//! Class descriptors: the shape of heap objects.
//!
//! TxIL classes (and the native workloads' record types) are described by
//! a [`ClassDesc`]: an ordered list of named fields, each either mutable
//! (`var`) or immutable-after-construction (`val`). Immutability is what
//! licenses the PLDI 2006 optimization of eliding STM barriers on reads
//! of `val` fields.

use std::fmt;
use std::sync::Arc;

use omt_util::sync::RwLock;
use std::collections::HashMap;

/// Identifies a class registered with a [`crate::Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// The raw index of this class in its registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassId({})", self.0)
    }
}

/// Whether a field may be mutated after the constructor finishes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldMut {
    /// Mutable field; transactional stores need undo logging.
    Var,
    /// Immutable field; reads never need STM barriers.
    Val,
}

/// One field of a class.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDesc {
    name: String,
    mutability: FieldMut,
}

impl FieldDesc {
    /// Creates a field description.
    pub fn new(name: impl Into<String>, mutability: FieldMut) -> FieldDesc {
        FieldDesc { name: name.into(), mutability }
    }

    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's mutability.
    pub fn mutability(&self) -> FieldMut {
        self.mutability
    }

    /// True if the field is immutable (`val`).
    pub fn is_immutable(&self) -> bool {
        self.mutability == FieldMut::Val
    }
}

/// The shape of a class: its name and ordered fields.
///
/// # Examples
///
/// ```
/// use omt_heap::{ClassDesc, FieldDesc, FieldMut};
///
/// let desc = ClassDesc::new(
///     "Node",
///     vec![
///         FieldDesc::new("key", FieldMut::Val),
///         FieldDesc::new("next", FieldMut::Var),
///     ],
/// );
/// assert_eq!(desc.field_count(), 2);
/// assert_eq!(desc.field_index("next"), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassDesc {
    name: String,
    fields: Vec<FieldDesc>,
}

impl ClassDesc {
    /// Creates a class description.
    pub fn new(name: impl Into<String>, fields: Vec<FieldDesc>) -> ClassDesc {
        ClassDesc { name: name.into(), fields }
    }

    /// Convenience constructor: every listed field is a mutable `var`.
    pub fn with_var_fields(name: impl Into<String>, fields: &[&str]) -> ClassDesc {
        ClassDesc::new(name, fields.iter().map(|f| FieldDesc::new(*f, FieldMut::Var)).collect())
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered fields.
    pub fn fields(&self) -> &[FieldDesc] {
        &self.fields
    }

    /// Number of fields (and heap words) per instance.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Looks a field up by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name() == name)
    }

    /// Returns the description of field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn field(&self, index: usize) -> &FieldDesc {
        &self.fields[index]
    }
}

/// A concurrent registry of class descriptors.
///
/// Classes are append-only: once defined, a [`ClassId`] remains valid for
/// the registry's lifetime.
#[derive(Default)]
pub struct ClassRegistry {
    inner: RwLock<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    classes: Vec<Arc<ClassDesc>>,
    by_name: HashMap<String, ClassId>,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Registers a class and returns its id.
    ///
    /// Defining a class with a name that already exists returns the
    /// existing id if the shapes match.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name but a different shape is
    /// already registered.
    pub fn define(&self, desc: ClassDesc) -> ClassId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name.get(desc.name()) {
            let existing = &inner.classes[id.index()];
            assert!(
                existing.as_ref() == &desc,
                "class {:?} redefined with a different shape",
                desc.name()
            );
            return id;
        }
        let id = ClassId(u32::try_from(inner.classes.len()).expect("too many classes"));
        inner.by_name.insert(desc.name().to_owned(), id);
        inner.classes.push(Arc::new(desc));
        id
    }

    /// Returns the descriptor for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this registry.
    pub fn get(&self, id: ClassId) -> Arc<ClassDesc> {
        self.inner.read().classes[id.index()].clone()
    }

    /// Number of fields of class `id`, read without cloning its
    /// descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this registry.
    pub fn field_count(&self, id: ClassId) -> usize {
        self.inner.read().classes[id.index()].field_count()
    }

    /// Looks a class up by name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.inner.read().classes.len()
    }

    /// True if no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("ClassRegistry").field("classes", &inner.classes.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_lookup() {
        let reg = ClassRegistry::new();
        let id = reg.define(ClassDesc::with_var_fields("Point", &["x", "y"]));
        assert_eq!(reg.lookup("Point"), Some(id));
        assert_eq!(reg.lookup("Missing"), None);
        let desc = reg.get(id);
        assert_eq!(desc.name(), "Point");
        assert_eq!(desc.field_count(), 2);
    }

    #[test]
    fn redefining_identical_class_is_idempotent() {
        let reg = ClassRegistry::new();
        let a = reg.define(ClassDesc::with_var_fields("P", &["x"]));
        let b = reg.define(ClassDesc::with_var_fields("P", &["x"]));
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "redefined")]
    fn redefining_with_different_shape_panics() {
        let reg = ClassRegistry::new();
        reg.define(ClassDesc::with_var_fields("P", &["x"]));
        reg.define(ClassDesc::with_var_fields("P", &["x", "y"]));
    }

    #[test]
    fn field_metadata() {
        let desc = ClassDesc::new(
            "Node",
            vec![FieldDesc::new("key", FieldMut::Val), FieldDesc::new("next", FieldMut::Var)],
        );
        assert!(desc.field(0).is_immutable());
        assert!(!desc.field(1).is_immutable());
        assert_eq!(desc.field_index("key"), Some(0));
        assert_eq!(desc.field_index("nope"), None);
    }

    #[test]
    fn registry_is_empty_initially() {
        let reg = ClassRegistry::new();
        assert!(reg.is_empty());
        reg.define(ClassDesc::with_var_fields("A", &[]));
        assert!(!reg.is_empty());
    }
}
