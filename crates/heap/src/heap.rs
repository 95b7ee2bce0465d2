//! The managed object heap.
//!
//! A [`Heap`] owns a chunked table of object slots. Each object carries a
//! single *header word* — the STM word of the PLDI 2006 design — plus its
//! class id and tagged field words. The table grows by whole chunks that
//! are published with atomic pointers, so allocation in one thread never
//! invalidates references held by another.
//!
//! # Memory reclamation model
//!
//! The collector (see [`Heap::collect`]) is stop-the-world mark-sweep, as
//! in the Bartok runtime the paper's STM was built into. Swept objects
//! are *recycled*, not deallocated: their slot generation is bumped and
//! the storage is reused for the next allocation of the same size class.
//! Object storage is only returned to the operating system when the heap
//! itself is dropped. This keeps all non-GC operations safe for
//! concurrent use (a stale [`ObjRef`] is detected by its generation and
//! reported as a panic rather than undefined behaviour).

use std::fmt;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};

use omt_util::sync::Mutex;

use crate::class::{ClassDesc, ClassId, ClassRegistry};
use crate::stats::HeapStats;
use crate::word::{ObjRef, Word};

pub(crate) const CHUNK_BITS: u32 = 16;
pub(crate) const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
pub(crate) const MAX_CHUNKS: usize = 255;

/// Largest number of simultaneously-allocated objects a heap supports.
pub const MAX_OBJECTS: usize = MAX_CHUNKS * CHUNK_SIZE;

/// Error returned when the heap's slot table is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFullError;

impl fmt::Display for HeapFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap slot table exhausted ({MAX_OBJECTS} objects)")
    }
}

impl std::error::Error for HeapFullError {}

/// Largest field count an object can have: the count is stored in 16
/// bits of the object's prefix.
pub const MAX_FIELDS: usize = u16::MAX as usize;

/// `Object::flags` bit: the slot holds a live object.
const LIVE: u8 = 1;
/// `Object::flags` bit: the collector reached the object this cycle.
const MARKED: u8 = 2;

/// The 16-byte prefix of one heap object. Its fields follow inline in
/// the same allocation, `len` tagged words starting right after the
/// prefix, so the STM header word shares a cache line with the first
/// fields and an object costs one allocation. The allocation has a
/// stable address for the lifetime of the heap; it is reached only
/// through [`ObjPtr`], which derives field pointers from the raw
/// allocation pointer.
#[repr(C)]
pub(crate) struct Object {
    /// The STM word: version number or ownership pointer (see `omt-stm`).
    /// `0` encodes "version 0, quiescent".
    header: AtomicU64,
    class: AtomicU32,
    /// Field count. Fixed for the slot's lifetime: a swept slot is
    /// recycled only for an object of the same size.
    len: u16,
    generation: AtomicU8,
    /// [`LIVE`] and [`MARKED`].
    flags: AtomicU8,
}

/// Bytes before an object's first field.
const PREFIX_BYTES: usize = std::mem::size_of::<Object>();
const _: () = assert!(PREFIX_BYTES == 16 && std::mem::align_of::<Object>() == 8);

/// Layout of an object with `len` fields: the prefix, then the fields.
fn object_layout(len: usize) -> std::alloc::Layout {
    std::alloc::Layout::from_size_align(
        PREFIX_BYTES + len * std::mem::size_of::<AtomicU64>(),
        std::mem::align_of::<Object>(),
    )
    .expect("at most MAX_FIELDS fields fit a layout")
}

/// Allocates a live, zero-initialized object of `class` with `len`
/// fields: header version 0, every field scalar 0, generation 0.
fn new_object(class: ClassId, len: u16) -> *mut Object {
    let layout = object_layout(usize::from(len));
    // SAFETY: the layout has a non-zero size (the prefix alone is 16
    // bytes). Zeroed memory is a valid value for every field word (an
    // `AtomicU64` of scalar 0), and the prefix is written in full
    // below before the pointer escapes.
    unsafe {
        let obj = std::alloc::alloc_zeroed(layout).cast::<Object>();
        if obj.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        obj.write(Object {
            header: AtomicU64::new(0),
            class: AtomicU32::new(class.0),
            len,
            generation: AtomicU8::new(0),
            flags: AtomicU8::new(LIVE),
        });
        obj
    }
}

/// A published object, borrowed from the heap that owns it.
#[derive(Clone, Copy)]
pub(crate) struct ObjPtr<'h> {
    ptr: NonNull<Object>,
    _heap: PhantomData<&'h Heap>,
}

impl<'h> ObjPtr<'h> {
    /// The object's prefix.
    #[inline]
    fn meta(self) -> &'h Object {
        // SAFETY: `ptr` came from `new_object` and was published in the
        // slot table; objects are freed only when the heap drops, which
        // the `'h` borrow rules out. The prefix is only mutated through
        // atomics (`len` is written once, before publication).
        unsafe { self.ptr.as_ref() }
    }

    /// The object's fields.
    #[inline]
    fn fields(self) -> &'h [AtomicU64] {
        let len = usize::from(self.meta().len);
        // SAFETY: the allocation holds `len` initialized field words
        // right after the 16-byte prefix (see `object_layout`), 8-byte
        // aligned. The pointer is derived from the allocation pointer
        // itself, not from a reference to the prefix, so its provenance
        // covers the fields. They live as long as the object (see
        // `meta`) and are only accessed through atomics.
        unsafe {
            let first = self.ptr.as_ptr().cast::<u8>().add(PREFIX_BYTES).cast::<AtomicU64>();
            std::slice::from_raw_parts(first, len)
        }
    }

    /// True if the slot holds a live object of generation `generation`.
    #[inline]
    fn is_live_at(self, generation: u8) -> bool {
        let meta = self.meta();
        meta.generation.load(Ordering::Relaxed) == generation
            && meta.flags.load(Ordering::Acquire) & LIVE != 0
    }

    fn reset_for_reuse(self, class: ClassId) {
        let meta = self.meta();
        meta.header.store(0, Ordering::Relaxed);
        meta.class.store(class.0, Ordering::Relaxed);
        for f in self.fields() {
            f.store(0, Ordering::Relaxed);
        }
        // Live again, with the mark bit clear.
        meta.flags.store(LIVE, Ordering::Release);
    }
}

/// One chunk of the slot table; entries are published exactly once.
type Chunk = [AtomicPtr<Object>; CHUNK_SIZE];

fn new_chunk() -> *mut Chunk {
    // Allocate the chunk zeroed instead of building it entry by entry:
    // a fresh heap's first allocation pays for the whole chunk, and a
    // 64Ki-element constructor loop dominates scenario setup when a
    // schedule explorer creates a heap per schedule. The all-zero bit
    // pattern is exactly the initial state (every entry a null
    // `AtomicPtr`, which is `repr(transparent)` over `*mut`).
    let layout = std::alloc::Layout::new::<Chunk>();
    // SAFETY: `Chunk` is a non-zero-sized array of `AtomicPtr`, valid
    // when zeroed; the pointer is released in `Drop` via
    // `Box::from_raw`, which pairs with the global allocator used here.
    unsafe {
        let chunk = std::alloc::alloc_zeroed(layout) as *mut Chunk;
        if chunk.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        chunk
    }
}

/// Recycled slots, one list per field count: a slot is reused only for
/// an object of the same size. Programs use a handful of sizes, so the
/// lists are found by a linear scan instead of hashing.
#[derive(Default)]
struct FreeLists(Vec<(u16, Vec<u32>)>);

impl FreeLists {
    fn slots(&mut self, field_count: u16) -> &mut Vec<u32> {
        let index = match self.0.iter().position(|(count, _)| *count == field_count) {
            Some(index) => index,
            None => {
                self.0.push((field_count, Vec::new()));
                self.0.len() - 1
            }
        };
        &mut self.0[index].1
    }

    fn pop(&mut self, field_count: u16) -> Option<u32> {
        self.0.iter_mut().find(|(count, _)| *count == field_count)?.1.pop()
    }

    fn len(&self) -> usize {
        self.0.iter().map(|(_, slots)| slots.len()).sum()
    }
}

struct AllocState {
    /// Next never-used slot index.
    next_fresh: u32,
    free: FreeLists,
    /// Number of chunks created so far.
    chunk_count: usize,
    /// Field count per class id, filled from the class registry on the
    /// first allocation of each class, so `alloc` reads it under the
    /// lock it already holds.
    field_counts: Vec<Option<u16>>,
}

impl AllocState {
    /// Field count of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` has more than [`MAX_FIELDS`] fields.
    fn field_count(&mut self, classes: &ClassRegistry, class: ClassId) -> u16 {
        let index = class.index();
        if let Some(Some(count)) = self.field_counts.get(index) {
            return *count;
        }
        let count = classes.field_count(class);
        let count = u16::try_from(count).unwrap_or_else(|_| {
            panic!("class {class:?} has {count} fields; an object holds at most {MAX_FIELDS}")
        });
        if self.field_counts.len() <= index {
            self.field_counts.resize(index + 1, None);
        }
        self.field_counts[index] = Some(count);
        count
    }
}

/// The managed heap. See the [crate documentation](crate) for the
/// memory model.
///
/// # Examples
///
/// ```
/// use omt_heap::{Heap, ClassDesc, Word};
///
/// let heap = Heap::new();
/// let point = heap.define_class(ClassDesc::with_var_fields("Point", &["x", "y"]));
/// let p = heap.alloc(point)?;
/// heap.store(p, 0, Word::from_scalar(3));
/// assert_eq!(heap.load(p, 0).as_scalar(), Some(3));
/// # Ok::<(), omt_heap::HeapFullError>(())
/// ```
pub struct Heap {
    /// Published chunk pointers; index `i` is non-null once chunk `i`
    /// exists. Chunks are freed only on drop.
    chunk_table: Box<[AtomicPtr<Chunk>]>,
    alloc_state: Mutex<AllocState>,
    classes: ClassRegistry,
    stats: HeapStats,
}

// SAFETY: the chunk table holds raw pointers to chunks and objects that
// live until the heap is dropped and are freed only by `Drop`, which has
// exclusive access. Every shared mutation of a chunk or an object goes
// through atomics; an object's one plain field, `len`, is written before
// the object is published by a release store and never again. The
// allocator state and class registry sit behind their own locks.
unsafe impl Send for Heap {}
// SAFETY: as for `Send`.
unsafe impl Sync for Heap {}

impl Default for Heap {
    fn default() -> Heap {
        Heap::new()
    }
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        let chunk_table = (0..MAX_CHUNKS).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect();
        Heap {
            chunk_table,
            alloc_state: Mutex::new(AllocState {
                next_fresh: 0,
                free: FreeLists::default(),
                chunk_count: 0,
                field_counts: Vec::new(),
            }),
            classes: ClassRegistry::new(),
            stats: HeapStats::new(),
        }
    }

    /// The heap's class registry.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Registers a class (see [`ClassRegistry::define`]).
    pub fn define_class(&self, desc: ClassDesc) -> ClassId {
        self.classes.define(desc)
    }

    /// Allocation, GC, and reuse counters.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Allocates a zero-initialized instance of `class`.
    ///
    /// All fields start as scalar `0` and the header word starts at
    /// version 0.
    ///
    /// # Errors
    ///
    /// Returns [`HeapFullError`] if the slot table is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `class` has more than [`MAX_FIELDS`] fields.
    pub fn alloc(&self, class: ClassId) -> Result<ObjRef, HeapFullError> {
        let mut state = self.alloc_state.lock();
        let field_count = state.field_count(&self.classes, class);

        if let Some(slot) = state.free.pop(field_count) {
            drop(state);
            let obj = self.object(slot);
            obj.reset_for_reuse(class);
            let generation = obj.meta().generation.load(Ordering::Relaxed);
            self.stats.record_reuse();
            return Ok(ObjRef::from_parts(slot, generation));
        }

        let slot = state.next_fresh;
        if slot as usize >= MAX_OBJECTS {
            return Err(HeapFullError);
        }
        state.next_fresh += 1;

        let chunk_index = (slot >> CHUNK_BITS) as usize;
        if chunk_index == state.chunk_count {
            self.chunk_table[chunk_index].store(new_chunk(), Ordering::Release);
            state.chunk_count += 1;
        }

        let obj = new_object(class, field_count);
        let chunk = self.chunk_table[chunk_index].load(Ordering::Relaxed);
        // SAFETY: the chunk was just ensured non-null and chunks are never
        // freed before the heap drops. The release store publishes the
        // fully initialized object.
        unsafe {
            (*chunk)[(slot & (CHUNK_SIZE as u32 - 1)) as usize].store(obj, Ordering::Release);
        }
        drop(state);
        self.stats.record_alloc();
        Ok(ObjRef::from_parts(slot, 0))
    }

    /// Resolves a slot index to its object.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never allocated.
    #[inline]
    pub(crate) fn object(&self, slot: u32) -> ObjPtr<'_> {
        let chunk = self.chunk_table[(slot >> CHUNK_BITS) as usize].load(Ordering::Acquire);
        if chunk.is_null() {
            unallocated(slot, "beyond allocated chunks");
        }
        // SAFETY: as in `try_object`.
        let obj =
            unsafe { (*chunk)[(slot & (CHUNK_SIZE as u32 - 1)) as usize].load(Ordering::Acquire) };
        let Some(ptr) = NonNull::new(obj) else { unallocated(slot, "never allocated") };
        ObjPtr { ptr, _heap: PhantomData }
    }

    fn try_object(&self, slot: u32) -> Option<ObjPtr<'_>> {
        let chunk_index = (slot >> CHUNK_BITS) as usize;
        let chunk = self.chunk_table[chunk_index].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer was published by `alloc` and
        // chunks are freed only when the heap drops.
        let obj =
            unsafe { (*chunk)[(slot & (CHUNK_SIZE as u32 - 1)) as usize].load(Ordering::Acquire) };
        Some(ObjPtr { ptr: NonNull::new(obj)?, _heap: PhantomData })
    }

    /// Resolves a reference, panicking if it is stale.
    #[inline]
    fn resolve(&self, r: ObjRef) -> ObjPtr<'_> {
        let obj = self.object(r.slot());
        if !obj.is_live_at(r.generation()) {
            dangling(r, obj);
        }
        obj
    }

    /// True if `r` still refers to a live (uncollected) object.
    pub fn is_valid(&self, r: ObjRef) -> bool {
        self.try_object(r.slot()).is_some_and(|obj| obj.is_live_at(r.generation()))
    }

    /// The class of the object `r` refers to.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale.
    pub fn class_of(&self, r: ObjRef) -> ClassId {
        ClassId(self.resolve(r).meta().class.load(Ordering::Relaxed))
    }

    /// Number of fields of the object `r` refers to.
    pub fn field_count(&self, r: ObjRef) -> usize {
        usize::from(self.resolve(r).meta().len)
    }

    /// Loads field `field` of `r` (relaxed; transactional consistency is
    /// the STM's job).
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale or `field` is out of bounds.
    #[inline]
    pub fn load(&self, r: ObjRef, field: usize) -> Word {
        Word::from_bits(self.resolve(r).fields()[field].load(Ordering::Relaxed))
    }

    /// Stores `value` into field `field` of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale or `field` is out of bounds.
    #[inline]
    pub fn store(&self, r: ObjRef, field: usize, value: Word) {
        self.resolve(r).fields()[field].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Direct access to a field's atomic cell, for synchronization
    /// backends that need compare-and-swap or custom orderings.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale or `field` is out of bounds.
    #[inline]
    pub fn field_atomic(&self, r: ObjRef, field: usize) -> &AtomicU64 {
        &self.resolve(r).fields()[field]
    }

    /// Direct access to the object's header (STM) word.
    ///
    /// The header encodes either a version number or transactional
    /// ownership; the encoding lives in `omt-stm`. A freshly allocated
    /// object has header `0`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale.
    #[inline]
    pub fn header_atomic(&self, r: ObjRef) -> &AtomicU64 {
        &self.resolve(r).meta().header
    }

    /// Calls `f` for every live object.
    ///
    /// Intended for stop-the-world maintenance passes (version
    /// renumbering, heap audits); concurrent allocation during iteration
    /// may or may not be visited.
    pub fn for_each_live(&self, mut f: impl FnMut(ObjRef)) {
        let next_fresh = self.alloc_state.lock().next_fresh;
        for slot in 0..next_fresh {
            if let Some(obj) = self.try_object(slot) {
                let meta = obj.meta();
                if meta.flags.load(Ordering::Acquire) & LIVE != 0 {
                    f(ObjRef::from_parts(slot, meta.generation.load(Ordering::Relaxed)));
                }
            }
        }
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        let state = self.alloc_state.lock();
        state.next_fresh as usize - state.free.len()
    }

    pub(crate) fn with_alloc_state<R>(&self, f: impl FnOnce(&mut AllocStateView<'_>) -> R) -> R {
        let mut state = self.alloc_state.lock();
        let mut view = AllocStateView { state: &mut state };
        f(&mut view)
    }

    /// Sets the mark bit of `slot`; true if it was clear.
    pub(crate) fn mark(&self, slot: u32) -> bool {
        self.object(slot).meta().flags.fetch_or(MARKED, Ordering::Relaxed) & MARKED == 0
    }

    pub(crate) fn is_marked(&self, slot: u32) -> bool {
        self.object(slot).meta().flags.load(Ordering::Relaxed) & MARKED != 0
    }

    /// Clears the mark bit of `slot`; true if it was set.
    pub(crate) fn take_mark(&self, slot: u32) -> bool {
        self.object(slot).meta().flags.fetch_and(!MARKED, Ordering::Relaxed) & MARKED != 0
    }

    pub(crate) fn slot_live(&self, slot: u32) -> bool {
        self.try_object(slot).is_some_and(|o| o.meta().flags.load(Ordering::Acquire) & LIVE != 0)
    }

    pub(crate) fn object_fields(&self, slot: u32) -> &[AtomicU64] {
        self.object(slot).fields()
    }

    pub(crate) fn object_field_count(&self, slot: u32) -> u16 {
        self.object(slot).meta().len
    }

    pub(crate) fn retire(&self, slot: u32) {
        let meta = self.object(slot).meta();
        meta.flags.fetch_and(!LIVE, Ordering::Release);
        meta.generation.fetch_add(1, Ordering::Relaxed);
    }
}

// The panics of the resolve path stay out of line, so the inlined
// checks are a compare and a branch each.
#[cold]
#[inline(never)]
fn unallocated(slot: u32, why: &str) -> ! {
    panic!("object slot {slot} {why}")
}

#[cold]
#[inline(never)]
fn dangling(r: ObjRef, obj: ObjPtr<'_>) -> ! {
    panic!(
        "dangling {r:?}: object was collected (current generation {})",
        obj.meta().generation.load(Ordering::Relaxed)
    )
}

/// Restricted view of the allocator state used by the collector.
pub(crate) struct AllocStateView<'a> {
    state: &'a mut AllocState,
}

impl AllocStateView<'_> {
    pub(crate) fn next_fresh(&self) -> u32 {
        self.state.next_fresh
    }

    pub(crate) fn push_free(&mut self, field_count: u16, slot: u32) {
        self.state.free.slots(field_count).push(slot);
    }
}

impl Drop for Heap {
    fn drop(&mut self) {
        let state = self.alloc_state.get_mut();
        let used = state.next_fresh as usize;
        for chunk_index in 0..state.chunk_count {
            let chunk = *self.chunk_table[chunk_index].get_mut();
            if chunk.is_null() {
                continue;
            }
            // Object pointers only ever live below `next_fresh`;
            // scanning the full 64Ki-entry chunk is measurable when an
            // explorer drops one heap per explored schedule.
            let in_chunk = used.saturating_sub(chunk_index << CHUNK_BITS).min(CHUNK_SIZE);
            // SAFETY: we have exclusive access; each chunk and each
            // published object pointer came from the global allocator
            // and is freed exactly once, here, with the layout it was
            // allocated with (recycling never changes an object's `len`).
            unsafe {
                for entry in (&*chunk)[..in_chunk].iter() {
                    let obj = entry.load(Ordering::Relaxed);
                    if !obj.is_null() {
                        let layout = object_layout(usize::from((*obj).len));
                        std::alloc::dealloc(obj.cast::<u8>(), layout);
                    }
                }
                drop(Box::from_raw(chunk));
            }
        }
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("live_objects", &self.live_objects())
            .field("classes", &self.classes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_heap() -> (Heap, ClassId) {
        let heap = Heap::new();
        let class = heap.define_class(ClassDesc::with_var_fields("Point", &["x", "y"]));
        (heap, class)
    }

    #[test]
    fn alloc_zero_initializes() {
        let (heap, class) = point_heap();
        let r = heap.alloc(class).unwrap();
        assert_eq!(heap.load(r, 0).as_scalar(), Some(0));
        assert_eq!(heap.load(r, 1).as_scalar(), Some(0));
        assert_eq!(heap.class_of(r), class);
        assert_eq!(heap.field_count(r), 2);
        assert_eq!(heap.header_atomic(r).load(Ordering::Relaxed), 0);
    }

    #[test]
    fn store_load_round_trip() {
        let (heap, class) = point_heap();
        let a = heap.alloc(class).unwrap();
        let b = heap.alloc(class).unwrap();
        heap.store(a, 0, Word::from_scalar(7));
        heap.store(a, 1, Word::from_ref(b));
        assert_eq!(heap.load(a, 0).as_scalar(), Some(7));
        assert_eq!(heap.load(a, 1).as_ref(), Some(b));
        assert_eq!(heap.load(b, 0).as_scalar(), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn field_out_of_bounds_panics() {
        let (heap, class) = point_heap();
        let r = heap.alloc(class).unwrap();
        let _ = heap.load(r, 2);
    }

    #[test]
    fn many_allocations_cross_chunks() {
        let heap = Heap::new();
        let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
        let mut refs = Vec::new();
        for i in 0..(CHUNK_SIZE + 10) {
            let r = heap.alloc(class).unwrap();
            heap.store(r, 0, Word::from_scalar(i as i64));
            refs.push(r);
        }
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(heap.load(*r, 0).as_scalar(), Some(i as i64));
        }
        assert_eq!(heap.live_objects(), CHUNK_SIZE + 10);
    }

    #[test]
    fn concurrent_allocation_is_race_free() {
        let heap = std::sync::Arc::new(Heap::new());
        let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
        let mut handles = Vec::new();
        for t in 0..8 {
            let heap = heap.clone();
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for i in 0..2000 {
                    let r = heap.alloc(class).unwrap();
                    heap.store(r, 0, Word::from_scalar(t * 1_000_000 + i));
                    refs.push((r, t * 1_000_000 + i));
                }
                for (r, v) in refs {
                    assert_eq!(heap.load(r, 0).as_scalar(), Some(v));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(heap.live_objects(), 8 * 2000);
    }

    #[test]
    fn for_each_live_visits_exactly_live_objects() {
        let (heap, class) = point_heap();
        let a = heap.alloc(class).unwrap();
        let b = heap.alloc(class).unwrap();
        let mut seen = Vec::new();
        heap.for_each_live(|r| seen.push(r));
        assert_eq!(seen, vec![a, b]);
        // After collecting `b`, only `a` is visited.
        heap.collect(&crate::RootSet::from(vec![a]), &[]);
        let mut seen = Vec::new();
        heap.for_each_live(|r| seen.push(r));
        assert_eq!(seen, vec![a]);
    }

    fn class_with(heap: &Heap, fields: usize) -> ClassId {
        let names: Vec<String> = (0..fields).map(|i| format!("f{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        heap.define_class(ClassDesc::with_var_fields(format!("C{fields}"), &names))
    }

    #[test]
    fn objects_of_every_size_keep_their_fields_apart() {
        let heap = Heap::new();
        for fields in [0, 1, 300, 4096] {
            let class = class_with(&heap, fields);
            let a = heap.alloc(class).unwrap();
            let b = heap.alloc(class).unwrap();
            assert_eq!(heap.field_count(a), fields);
            assert_eq!(heap.class_of(a), class);
            assert_eq!(heap.header_atomic(a).load(Ordering::Relaxed), 0);
            for i in 0..fields {
                assert_eq!(heap.load(a, i).as_scalar(), Some(0), "field {i} starts zeroed");
                heap.store(a, i, Word::from_scalar(i as i64));
                heap.store(b, i, Word::from_scalar(-(i as i64)));
            }
            heap.header_atomic(a).store(u64::MAX, Ordering::Relaxed);
            for i in 0..fields {
                assert_eq!(heap.load(a, i).as_scalar(), Some(i as i64));
                assert_eq!(heap.load(b, i).as_scalar(), Some(-(i as i64)));
            }
            assert_eq!(heap.header_atomic(b).load(Ordering::Relaxed), 0, "headers are distinct");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn fieldless_object_has_no_field_zero() {
        let heap = Heap::new();
        let class = class_with(&heap, 0);
        let r = heap.alloc(class).unwrap();
        let _ = heap.field_atomic(r, 0);
    }

    #[test]
    #[should_panic(expected = "an object holds at most")]
    fn classes_beyond_max_fields_are_refused() {
        let heap = Heap::new();
        let class = class_with(&heap, MAX_FIELDS + 1);
        let _ = heap.alloc(class);
    }

    #[test]
    fn swept_slots_are_reused_only_for_the_same_size_and_come_back_clean() {
        let heap = Heap::new();
        let small = class_with(&heap, 3);
        let big = class_with(&heap, 300);
        let small_dead = heap.alloc(small).unwrap();
        let big_dead = heap.alloc(big).unwrap();
        heap.store(small_dead, 2, Word::from_scalar(7));
        heap.store(big_dead, 299, Word::from_scalar(9));
        heap.header_atomic(big_dead).store(42, Ordering::Relaxed);
        assert_eq!(heap.collect(&crate::RootSet::new(), &[]).swept, 2);

        // A same-size class of another name takes the swept 300-field
        // slot, zeroed, under a new generation.
        let other_big = {
            let names: Vec<String> = (0..300).map(|i| format!("g{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            heap.define_class(ClassDesc::with_var_fields("Other", &names))
        };
        let reused = heap.alloc(other_big).unwrap();
        assert_eq!(reused.slot(), big_dead.slot());
        assert_ne!(reused, big_dead);
        assert!(!heap.is_valid(big_dead));
        assert_eq!(heap.class_of(reused), other_big);
        assert_eq!(heap.field_count(reused), 300);
        assert_eq!(heap.load(reused, 299).as_scalar(), Some(0));
        assert_eq!(heap.header_atomic(reused).load(Ordering::Relaxed), 0);

        let reused_small = heap.alloc(small).unwrap();
        assert_eq!(reused_small.slot(), small_dead.slot());
        assert_eq!(heap.load(reused_small, 2).as_scalar(), Some(0));
        // Both free lists are drained: the next object takes a fresh slot.
        let fresh = heap.alloc(small).unwrap();
        assert_eq!(fresh.slot(), 2);
        assert_eq!(heap.stats().snapshot().reuses, 2);
        assert_eq!(heap.live_objects(), 3);
    }

    #[test]
    fn is_valid_detects_fresh_and_bogus_refs() {
        let (heap, class) = point_heap();
        let r = heap.alloc(class).unwrap();
        assert!(heap.is_valid(r));
        let bogus = ObjRef::from_parts(999, 0);
        assert!(!heap.is_valid(bogus));
    }
}
