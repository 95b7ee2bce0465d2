//! # omt-heap — managed object heap substrate
//!
//! The PLDI 2006 paper *"Optimizing memory transactions"* builds its STM
//! into the Bartok C# compiler and managed runtime: objects carry a
//! header word of STM metadata, fields are updated in place, and the
//! garbage collector understands transaction logs. Rust has no managed
//! heap, so this crate provides one — the substrate the rest of the
//! reproduction stands on:
//!
//! - [`Word`]: tagged 64-bit values (63-bit scalars or [`ObjRef`]s) so
//!   the collector can trace without per-class layout maps;
//! - [`ClassDesc`] / [`ClassRegistry`]: object shapes, with per-field
//!   `var`/`val` mutability (immutability licenses barrier elision);
//! - [`Heap`]: a chunked, concurrently usable object table where every
//!   object has a header atomic (the STM word) and field atomics;
//! - [`Heap::collect`]: stop-the-world mark-sweep with [`GcParticipant`]
//!   hooks so the STM can contribute roots and have its logs trimmed,
//!   reproducing the paper's GC integration.
//!
//! # Examples
//!
//! ```
//! use omt_heap::{Heap, ClassDesc, RootSet, Word};
//!
//! let heap = Heap::new();
//! let node = heap.define_class(ClassDesc::with_var_fields("Node", &["key", "next"]));
//!
//! // Build a two-element list, drop the tail, and collect.
//! let head = heap.alloc(node)?;
//! let tail = heap.alloc(node)?;
//! heap.store(head, 1, Word::from_ref(tail));
//! heap.store(head, 1, Word::null());
//! let outcome = heap.collect(&RootSet::from(vec![head]), &[]);
//! assert_eq!(outcome.swept, 1);
//! # Ok::<(), omt_heap::HeapFullError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod class;
mod gc;
mod heap;
mod stats;
mod word;

pub use class::{ClassDesc, ClassId, ClassRegistry, FieldDesc, FieldMut};
pub use gc::{GcOutcome, GcParticipant, RootSet};
pub use heap::{Heap, HeapFullError, MAX_FIELDS, MAX_OBJECTS};
pub use stats::{HeapStats, HeapStatsSnapshot};
pub use word::{ObjRef, Word, SCALAR_BITS, SCALAR_MAX, SCALAR_MIN};
