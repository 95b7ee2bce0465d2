//! Allocation accounting for heap objects: an object is one allocation
//! (its fields sit inline after the header), recycled slots allocate
//! nothing, and dropping the heap frees every object exactly once.
//!
//! A counting global allocator tallies the blocks the test thread
//! holds; the file has a single test so no other test thread runs
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use omt_heap::{ClassDesc, Heap, RootSet, Word};

struct Counting;

thread_local! {
    /// Blocks allocated and freed by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are `const`-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Blocks allocated minus blocks freed on this thread (negative when
/// the thread frees blocks another thread allocated).
fn outstanding() -> i64 {
    ALLOCS.with(Cell::get) as i64 - FREES.with(Cell::get) as i64
}

#[test]
fn objects_are_one_allocation_and_are_freed_exactly_once() {
    const OBJECTS: u64 = 1000;
    let before = outstanding();
    {
        let heap = Heap::new();
        let node = heap.define_class(ClassDesc::with_var_fields("Node", &["k", "v", "next"]));
        let empty = heap.define_class(ClassDesc::with_var_fields("Empty", &[]));
        // Warm up: the first allocation of a class creates the slot
        // chunk and the allocator's bookkeeping.
        let keep = heap.alloc(node).unwrap();
        heap.alloc(empty).unwrap();

        let mut refs = Vec::with_capacity(OBJECTS as usize);
        let start = allocs();
        for i in 0..OBJECTS {
            let r = heap.alloc(node).unwrap();
            heap.store(r, 0, Word::from_scalar(i as i64));
            refs.push(r);
        }
        assert_eq!(allocs() - start, OBJECTS, "one allocation per fresh object");
        drop(refs);

        let outcome = heap.collect(&RootSet::from(vec![keep]), &[]);
        assert_eq!(outcome.swept, OBJECTS + 1);

        // Recycled slots reuse their storage: no allocation at all.
        let start = allocs();
        for _ in 0..OBJECTS {
            let r = heap.alloc(node).unwrap();
            assert_eq!(heap.load(r, 0).as_scalar(), Some(0), "recycled object is zeroed");
        }
        heap.alloc(empty).unwrap();
        assert_eq!(allocs() - start, 0, "reuse allocates nothing");
        assert_eq!(heap.live_objects() as u64, OBJECTS + 2);
    }
    assert_eq!(outstanding(), before, "dropping the heap freed every block exactly once");
}
