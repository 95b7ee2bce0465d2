//! Stop-the-world mark-sweep collection with STM log integration.
//!
//! The PLDI 2006 STM is integrated with the Bartok garbage collector:
//! transaction logs are known to the GC, which (a) treats values needed
//! for rollback as roots, and (b) *trims* read-log and update-log entries
//! whose objects died, shrinking the logs of long-running transactions.
//!
//! That integration is expressed here by the [`GcParticipant`] trait: the
//! STM registers the objects its undo logs can restore as roots in
//! [`GcParticipant::trace_roots`], and prunes dead entries in
//! [`GcParticipant::after_sweep`].
//!
//! # Stop-the-world contract
//!
//! [`Heap::collect`] must only run while every mutator thread is paused
//! at a safepoint and has reported its live references through `roots`
//! or a participant. Violating this cannot cause undefined behaviour
//! (storage is recycled, never freed — see the [`crate::heap`] module
//! docs), but it can collect objects a running thread still uses, which
//! surfaces as a "dangling ObjRef" panic.

use std::fmt;

use crate::heap::Heap;
use crate::word::{ObjRef, Word};

/// A component that owns references the collector must know about.
///
/// Implemented by the STM's transaction registry (logs), by VM thread
/// states (registers), and by workloads with global structures.
pub trait GcParticipant: Sync {
    /// Report every reference that must keep its target alive.
    fn trace_roots(&self, mark: &mut dyn FnMut(ObjRef));

    /// Called after the sweep with a liveness predicate; implementations
    /// drop bookkeeping entries whose objects died (the paper's log
    /// trimming).
    fn after_sweep(&self, is_live: &dyn Fn(ObjRef) -> bool);
}

/// A plain list of root references.
///
/// # Examples
///
/// ```
/// use omt_heap::{Heap, ClassDesc, RootSet};
///
/// let heap = Heap::new();
/// let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
/// let keep = heap.alloc(class)?;
/// let lose = heap.alloc(class)?;
/// let stats = heap.collect(&RootSet::from(vec![keep]), &[]);
/// assert_eq!(stats.swept, 1);
/// assert!(heap.is_valid(keep));
/// assert!(!heap.is_valid(lose));
/// # Ok::<(), omt_heap::HeapFullError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct RootSet {
    roots: Vec<ObjRef>,
}

impl RootSet {
    /// Creates an empty root set.
    pub fn new() -> RootSet {
        RootSet::default()
    }

    /// Adds a root.
    pub fn push(&mut self, r: ObjRef) {
        self.roots.push(r);
    }

    /// Adds an optional root (nulls are ignored).
    pub fn push_word(&mut self, w: Word) {
        if let Some(r) = w.as_ref() {
            self.roots.push(r);
        }
    }

    /// The roots collected so far.
    pub fn iter(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.roots.iter().copied()
    }

    /// Number of roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if there are no roots.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

impl From<Vec<ObjRef>> for RootSet {
    fn from(roots: Vec<ObjRef>) -> RootSet {
        RootSet { roots }
    }
}

impl Extend<ObjRef> for RootSet {
    fn extend<T: IntoIterator<Item = ObjRef>>(&mut self, iter: T) {
        self.roots.extend(iter);
    }
}

/// Outcome of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Objects found reachable.
    pub marked: u64,
    /// Objects reclaimed (recycled).
    pub swept: u64,
    /// Live objects before the collection.
    pub live_before: u64,
}

impl fmt::Display for GcOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: {} live before, {} marked, {} swept",
            self.live_before, self.marked, self.swept
        )
    }
}

impl Heap {
    /// Runs a stop-the-world mark-sweep collection.
    ///
    /// `roots` are the caller's live references (thread stacks, global
    /// structures); `participants` contribute further roots and have
    /// their bookkeeping trimmed after the sweep (the STM registry).
    ///
    /// # Stop-the-world contract
    ///
    /// Call only while every mutator thread is paused at a safepoint and
    /// all live references are reported via `roots` or a participant;
    /// violations surface as "dangling ObjRef" panics, never undefined
    /// behaviour.
    ///
    /// Under a schedule explorer, a participant's `after_sweep` may
    /// yield between shards of its own bookkeeping; mutator steps
    /// interleaved there are safe (logs are trimmed before storage is
    /// reclaimed — see below) as long as they do not *allocate*: the
    /// sweep would treat an unmarked fresh object as garbage. Marking
    /// takes no such pauses — without write barriers a mutator store
    /// interleaved mid-mark could hide a live object from the trace.
    pub fn collect(&self, roots: &RootSet, participants: &[&dyn GcParticipant]) -> GcOutcome {
        let live_before = self.live_objects() as u64;
        let mut worklist: Vec<u32> = Vec::new();
        let mut marked: u64 = 0;

        {
            let mut mark = |r: ObjRef| {
                if !self.is_valid(r) {
                    return;
                }
                let slot = r.slot();
                if self.mark(slot) {
                    worklist.push(slot);
                }
            };
            for r in roots.iter() {
                mark(r);
            }
            for p in participants {
                p.trace_roots(&mut mark);
            }
        }

        while let Some(slot) = worklist.pop() {
            marked += 1;
            let fields = self.object_fields(slot);
            for field in fields {
                let word = Word::from_bits(field.load(std::sync::atomic::Ordering::Relaxed));
                let Some(r) = word.as_ref() else { continue };
                if !self.is_valid(r) {
                    continue;
                }
                let child = r.slot();
                if self.mark(child) {
                    worklist.push(child);
                }
            }
        }

        // Trim participant bookkeeping *before* storage is reclaimed.
        // A participant may pause mid-trim under a schedule explorer
        // (see the registry's shard-boundary yields); a mutator step
        // interleaved there can still validate a not-yet-trimmed entry
        // against an intact — merely condemned — object. Freeing first
        // would put a dangling slot behind that entry.
        let is_live = |r: ObjRef| self.is_valid(r) && self.is_marked(r.slot());
        for p in participants {
            p.after_sweep(&is_live);
        }

        let mut swept: u64 = 0;
        self.with_alloc_state(|state| {
            for slot in 0..state.next_fresh() {
                if !self.slot_live(slot) {
                    continue;
                }
                if self.take_mark(slot) {
                    continue; // survivor; mark bit cleared for next cycle
                }
                let field_count = self.object_field_count(slot);
                self.retire(slot);
                state.push_free(field_count, slot);
                swept += 1;
            }
        });

        self.stats().record_collection(swept);
        GcOutcome { marked, swept, live_before }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDesc;
    use crate::word::Word;

    fn cell_heap() -> (Heap, crate::class::ClassId) {
        let heap = Heap::new();
        let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v", "next"]));
        (heap, class)
    }

    #[test]
    fn unreachable_objects_are_swept() {
        let (heap, class) = cell_heap();
        let a = heap.alloc(class).unwrap();
        let _b = heap.alloc(class).unwrap();
        let outcome = heap.collect(&RootSet::from(vec![a]), &[]);
        assert_eq!(outcome.live_before, 2);
        assert_eq!(outcome.marked, 1);
        assert_eq!(outcome.swept, 1);
        assert_eq!(heap.live_objects(), 1);
    }

    #[test]
    fn reachability_is_transitive() {
        let (heap, class) = cell_heap();
        let a = heap.alloc(class).unwrap();
        let b = heap.alloc(class).unwrap();
        let c = heap.alloc(class).unwrap();
        let dead = heap.alloc(class).unwrap();
        heap.store(a, 1, Word::from_ref(b));
        heap.store(b, 1, Word::from_ref(c));
        let outcome = heap.collect(&RootSet::from(vec![a]), &[]);
        assert_eq!(outcome.marked, 3);
        assert_eq!(outcome.swept, 1);
        assert!(heap.is_valid(c));
        assert!(!heap.is_valid(dead));
    }

    #[test]
    fn cycles_are_collected_when_unreachable() {
        let (heap, class) = cell_heap();
        let a = heap.alloc(class).unwrap();
        let b = heap.alloc(class).unwrap();
        heap.store(a, 1, Word::from_ref(b));
        heap.store(b, 1, Word::from_ref(a));
        let outcome = heap.collect(&RootSet::new(), &[]);
        assert_eq!(outcome.swept, 2);
    }

    #[test]
    fn swept_slots_are_recycled_with_new_generation() {
        let (heap, class) = cell_heap();
        let dead = heap.alloc(class).unwrap();
        heap.collect(&RootSet::new(), &[]);
        let fresh = heap.alloc(class).unwrap();
        // Same slot, different generation.
        assert_ne!(dead, fresh);
        assert!(!heap.is_valid(dead));
        assert!(heap.is_valid(fresh));
        assert_eq!(heap.load(fresh, 0).as_scalar(), Some(0));
        assert_eq!(heap.stats().snapshot().reuses, 1);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn stale_reference_access_panics() {
        let (heap, class) = cell_heap();
        let dead = heap.alloc(class).unwrap();
        heap.collect(&RootSet::new(), &[]);
        heap.alloc(class).unwrap(); // recycles the slot
        let _ = heap.load(dead, 0);
    }

    #[test]
    fn participants_contribute_roots_and_get_trimmed() {
        struct LogLike {
            held: std::sync::Mutex<Vec<ObjRef>>,
        }
        impl GcParticipant for LogLike {
            fn trace_roots(&self, mark: &mut dyn FnMut(ObjRef)) {
                // Hold the first entry strongly, like an undo-log root.
                if let Some(first) = self.held.lock().unwrap().first() {
                    mark(*first);
                }
            }
            fn after_sweep(&self, is_live: &dyn Fn(ObjRef) -> bool) {
                self.held.lock().unwrap().retain(|r| is_live(*r));
            }
        }

        let (heap, class) = cell_heap();
        let strong = heap.alloc(class).unwrap();
        let weak = heap.alloc(class).unwrap();
        let log = LogLike { held: std::sync::Mutex::new(vec![strong, weak]) };
        let outcome = heap.collect(&RootSet::new(), &[&log]);
        assert_eq!(outcome.swept, 1);
        let held = log.held.lock().unwrap();
        assert_eq!(held.as_slice(), &[strong], "dead entry trimmed from the log");
    }

    #[test]
    fn repeated_collections_are_stable() {
        let (heap, class) = cell_heap();
        let root = heap.alloc(class).unwrap();
        for i in 0..100 {
            let tmp = heap.alloc(class).unwrap();
            heap.store(tmp, 0, Word::from_scalar(i));
        }
        let first = heap.collect(&RootSet::from(vec![root]), &[]);
        assert_eq!(first.swept, 100);
        let second = heap.collect(&RootSet::from(vec![root]), &[]);
        assert_eq!(second.swept, 0);
        assert_eq!(second.marked, 1);
        assert_eq!(heap.live_objects(), 1);
    }
}
