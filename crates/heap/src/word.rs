//! Tagged heap words and object references.
//!
//! Every field of a heap object holds a [`Word`]: a 64-bit value whose low
//! bit distinguishes scalars from object references so the garbage
//! collector can trace the heap without per-class layout maps:
//!
//! ```text
//! bit 0 = 0:  [ scalar : 63 ][0]   — a 63-bit signed integer
//! bit 0 = 1:  [ objref : 32 ][..][1] — an object reference (0 = null)
//! ```
//!
//! This mirrors the Bartok runtime's ability to distinguish pointers from
//! non-pointers, which the PLDI 2006 STM's GC integration relies on.

use std::fmt;
use std::num::NonZeroU32;

/// The number of bits available for scalar payloads in a [`Word`].
pub const SCALAR_BITS: u32 = 63;

/// Largest scalar storable in a [`Word`].
pub const SCALAR_MAX: i64 = i64::MAX >> 1;

/// Smallest scalar storable in a [`Word`].
pub const SCALAR_MIN: i64 = i64::MIN >> 1;

/// A reference to a heap object.
///
/// Packs a 24-bit slot index and an 8-bit generation. The generation is
/// bumped every time the slot is recycled by the garbage collector, so a
/// stale reference is detected (with high probability) instead of silently
/// aliasing a new object.
///
/// # Examples
///
/// ```
/// use omt_heap::{Heap, ClassDesc};
///
/// let heap = Heap::new();
/// let class = heap.define_class(ClassDesc::with_var_fields("Pair", &["a", "b"]));
/// let r = heap.alloc(class).unwrap();
/// assert_eq!(r, r.clone());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(NonZeroU32);

impl ObjRef {
    #[inline]
    pub(crate) fn from_parts(slot: u32, generation: u8) -> ObjRef {
        debug_assert!(slot < (1 << 24) - 1, "slot index out of range");
        // Bias the slot by one so that slot 0 still yields a non-zero raw
        // representation.
        let raw = ((slot + 1) << 8) | u32::from(generation);
        ObjRef(NonZeroU32::new(raw).expect("biased slot is non-zero"))
    }

    /// The slot index inside the heap's object table.
    #[inline]
    pub(crate) fn slot(self) -> u32 {
        (self.0.get() >> 8) - 1
    }

    /// The recycling generation this reference was created under.
    #[inline]
    pub(crate) fn generation(self) -> u8 {
        (self.0.get() & 0xff) as u8
    }

    /// Raw bit pattern, used by [`Word`] packing and by the STM word
    /// encoding in `omt-stm`.
    #[inline]
    pub fn to_raw(self) -> u32 {
        self.0.get()
    }

    /// Rebuilds a reference from [`ObjRef::to_raw`] output.
    ///
    /// Returns `None` for zero, which encodes null in a [`Word`].
    #[inline]
    pub fn from_raw(raw: u32) -> Option<ObjRef> {
        NonZeroU32::new(raw).map(ObjRef)
    }
}

impl fmt::Debug for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjRef({}g{})", self.slot(), self.generation())
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.slot())
    }
}

/// A tagged 64-bit heap word: either a 63-bit scalar or an object
/// reference (possibly null).
///
/// # Examples
///
/// ```
/// use omt_heap::Word;
///
/// let w = Word::from_scalar(-42);
/// assert_eq!(w.as_scalar(), Some(-42));
/// assert!(Word::null().is_null());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Word(u64);

impl Word {
    /// The null reference.
    pub const NULL: Word = Word(1);

    /// Returns the null reference word.
    #[inline]
    pub fn null() -> Word {
        Word::NULL
    }

    /// Encodes a scalar.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in 63 bits (outside
    /// [`SCALAR_MIN`]..=[`SCALAR_MAX`]).
    #[inline]
    pub fn from_scalar(value: i64) -> Word {
        assert!(
            (SCALAR_MIN..=SCALAR_MAX).contains(&value),
            "scalar {value} does not fit in a 63-bit heap word"
        );
        Word((value << 1) as u64)
    }

    /// Encodes a scalar, wrapping values that exceed 63 bits.
    #[inline]
    pub fn from_scalar_wrapping(value: i64) -> Word {
        Word((value.wrapping_shl(1)) as u64)
    }

    /// Encodes an object reference.
    #[inline]
    pub fn from_ref(r: ObjRef) -> Word {
        Word((u64::from(r.to_raw()) << 1) | 1)
    }

    /// Encodes an optional reference (`None` becomes null).
    #[inline]
    pub fn from_opt_ref(r: Option<ObjRef>) -> Word {
        match r {
            Some(r) => Word::from_ref(r),
            None => Word::NULL,
        }
    }

    /// True if this word is a reference (including null).
    #[inline]
    pub fn is_ref(self) -> bool {
        self.0 & 1 == 1
    }

    /// True if this word is the null reference.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 1
    }

    /// Decodes a scalar, or `None` if this word is a reference.
    #[inline]
    pub fn as_scalar(self) -> Option<i64> {
        if self.is_ref() {
            None
        } else {
            Some((self.0 as i64) >> 1)
        }
    }

    /// Decodes a non-null object reference.
    #[inline]
    pub fn as_ref(self) -> Option<ObjRef> {
        if self.is_ref() {
            ObjRef::from_raw((self.0 >> 1) as u32)
        } else {
            None
        }
    }

    /// Raw bit pattern, as stored in field atomics.
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a word from [`Word::to_bits`] output.
    #[inline]
    pub fn from_bits(bits: u64) -> Word {
        Word(bits)
    }
}

impl Default for Word {
    /// The default word is scalar zero.
    #[inline]
    fn default() -> Word {
        Word::from_scalar(0)
    }
}

impl From<ObjRef> for Word {
    #[inline]
    fn from(r: ObjRef) -> Word {
        Word::from_ref(r)
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else if let Some(r) = self.as_ref() {
            write!(f, "{r:?}")
        } else {
            write!(f, "{}", self.as_scalar().expect("non-ref word is scalar"))
        }
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else if let Some(r) = self.as_ref() {
            write!(f, "{r}")
        } else {
            write!(f, "{}", self.as_scalar().expect("non-ref word is scalar"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        for v in [0, 1, -1, 42, -42, SCALAR_MAX, SCALAR_MIN] {
            let w = Word::from_scalar(v);
            assert_eq!(w.as_scalar(), Some(v), "value {v}");
            assert!(!w.is_ref());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn scalar_overflow_panics() {
        let _ = Word::from_scalar(SCALAR_MAX + 1);
    }

    #[test]
    fn wrapping_scalar_masks_high_bit() {
        let w = Word::from_scalar_wrapping(i64::MAX);
        assert_eq!(w.as_scalar(), Some(-1));
    }

    #[test]
    fn ref_round_trip() {
        let r = ObjRef::from_parts(12345, 7);
        let w = Word::from_ref(r);
        assert!(w.is_ref());
        assert!(!w.is_null());
        assert_eq!(w.as_ref(), Some(r));
        assert_eq!(w.as_scalar(), None);
    }

    #[test]
    fn null_is_ref_without_target() {
        let w = Word::null();
        assert!(w.is_ref());
        assert!(w.is_null());
        assert_eq!(w.as_ref(), None);
    }

    #[test]
    fn objref_parts_round_trip() {
        for slot in [0u32, 1, 255, 65535, (1 << 24) - 2] {
            for generation in [0u8, 1, 128, 255] {
                let r = ObjRef::from_parts(slot, generation);
                assert_eq!(r.slot(), slot);
                assert_eq!(r.generation(), generation);
                assert_eq!(ObjRef::from_raw(r.to_raw()), Some(r));
            }
        }
    }

    #[test]
    fn bits_round_trip() {
        let w = Word::from_scalar(-99);
        assert_eq!(Word::from_bits(w.to_bits()), w);
    }

    #[test]
    fn debug_formatting_is_never_empty() {
        assert_eq!(format!("{:?}", Word::null()), "null");
        assert_eq!(format!("{:?}", Word::from_scalar(3)), "3");
        let r = ObjRef::from_parts(5, 1);
        assert_eq!(format!("{r:?}"), "ObjRef(5g1)");
    }
}
