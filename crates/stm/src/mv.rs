//! Bounded per-word version chains (multi-version objects, DESIGN.md
//! §4.13).
//!
//! With [`StmConfig::mv_depth`](crate::StmConfig) `> 0`, every
//! publishing commit *retires* the value it overwrites into a bounded
//! ring keyed by `(object, field)`, tagged with the half-open
//! commit-clock interval `[from, until)` over which that value was the
//! committed state. A snapshot reader whose `read_ver` falls inside the
//! interval can then be served the retired value instead of attempting
//! a timestamp extension — the extension either succeeds (losing the
//! abort-free guarantee the moment a conflicting entry exists) or
//! aborts the reader. Chains close the largest remaining source of
//! reader aborts under read-write mixes.
//!
//! # Why no seqlock sandwich on chain hits
//!
//! A chain entry is immutable once pushed: `retire` appends a complete
//! `(from, until, bits)` triple under the shard lock and never mutates
//! it afterwards. A lookup that finds an entry covering `read_ver`
//! therefore returns a value that *was* the committed state of the
//! field throughout `[from, until)` — there is no window in which a
//! concurrent writer can tear it, so the composed read's header
//! re-check is unnecessary on this path. The only concurrent mutation
//! is trimming, which removes whole entries under the same shard lock;
//! a lookup racing a trim either finds the entry (still valid — trim
//! only removes entries no active or future `read_ver` can need) or
//! misses and falls back to the extension path.
//!
//! # Reclamation
//!
//! Chains ride the heap's stop-the-world collections ([`Stm`]'s
//! [`omt_heap::GcParticipant`] impl, which delegates here): retired
//! values that are references are traced as roots (a chain hit may
//! resurrect them into a reader's computation), rings of dead objects
//! are dropped, and entries whose `until` is at or below the minimum
//! active `read_ver` are trimmed — no active transaction can be served
//! by them, and every future transaction begins at or past the current
//! clock. The ring bound (`mv_depth`) caps memory between collections.
//!
//! [`Stm`]: crate::Stm

use std::collections::HashMap;

use omt_util::sync::Mutex;

use omt_heap::{ObjRef, Word};

use crate::schedpt;

/// Number of lock shards. A power of two; keys mix the object and
/// field so hot neighbouring fields spread out.
const MV_SHARDS: usize = 16;

/// One retired version: `bits` was the committed value of the field for
/// every commit-clock timestamp in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MvEntry {
    /// First timestamp the value was current at (the install stamp of
    /// the retired value — the update entry's `original_version`).
    pub from: u64,
    /// The retiring commit's stamp (exclusive): the first timestamp at
    /// which the *successor* value is current.
    pub until: u64,
    /// Raw field bits of the retired value.
    pub bits: u64,
}

/// One shard: rings keyed by `(object raw bits, field)`. Rings are
/// append-ordered, so `until` values increase towards the back.
type MvShard = HashMap<(u32, u32), Vec<MvEntry>>;

/// The store of all version chains of one [`crate::Stm`].
pub(crate) struct MvStore {
    /// Ring bound per `(object, field)`; 0 disables the store entirely
    /// (no retires, no lookups, no yields — byte-identical behaviour to
    /// a build without chains).
    depth: usize,
    shards: Box<[Mutex<MvShard>]>,
}

impl MvStore {
    pub(crate) fn new(depth: usize) -> MvStore {
        MvStore { depth, shards: (0..MV_SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// True when chains are in use (`mv_depth > 0`).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.depth > 0
    }

    #[inline]
    fn shard(&self, obj_raw: u32, field: u32) -> &Mutex<MvShard> {
        // Golden-ratio mix so consecutive objects and fields spread.
        let h = (obj_raw ^ field.wrapping_mul(0x9E37_79B9)) as usize;
        &self.shards[h & (MV_SHARDS - 1)]
    }

    /// Retires one `(value, interval)` pair for `(obj, field)`. Called
    /// by a publishing commit *before* the header release-store that
    /// installs the successor, so a reader that meets the new version
    /// finds the chain entry already in place (the abort-free
    /// guarantee; a retire-after-release window would let the reader
    /// miss and abort). Keys carry the object's full raw bits, so a
    /// recycled slot (new generation) never aliases a dead ring.
    ///
    /// A ring is allocated at exactly `depth` entries and never grows:
    /// a full ring drops its oldest entry before the push. Rows stay
    /// until a collection trims them, so their size is the store's
    /// footprint between collections.
    pub(crate) fn retire(&self, obj: ObjRef, field: u32, entry: MvEntry) {
        debug_assert!(self.enabled());
        debug_assert!(entry.from < entry.until, "empty validity interval");
        omt_util::sched::yield_point_keyed(schedpt::MV_PRE_RETIRE, obj.to_raw() as usize);
        let mut shard = self.shard(obj.to_raw(), field).lock();
        let ring =
            shard.entry((obj.to_raw(), field)).or_insert_with(|| Vec::with_capacity(self.depth));
        if ring.len() == self.depth {
            ring.remove(0);
        }
        ring.push(entry);
    }

    /// Finds the retired value of `(obj, field)` current at `read_ver`,
    /// if the chain still holds it: the (unique) entry with
    /// `from <= read_ver < until`. Returns the value and the entry's
    /// `until`, which the caller must fold into its extension ceiling —
    /// a transaction that computed with this value must never advance
    /// its `read_ver` to `until` or past it.
    pub(crate) fn lookup(&self, obj: ObjRef, field: u32, read_ver: u64) -> Option<(Word, u64)> {
        if !self.enabled() {
            return None;
        }
        omt_util::sched::yield_point_keyed(schedpt::MV_PRE_WALK, obj.to_raw() as usize);
        let shard = self.shard(obj.to_raw(), field).lock();
        let ring = shard.get(&(obj.to_raw(), field))?;
        // Newest-first: intervals are disjoint, so the first cover wins.
        ring.iter()
            .rev()
            .find(|e| e.from <= read_ver && read_ver < e.until)
            .map(|e| (Word::from_bits(e.bits), e.until))
    }

    /// GC: retired values that are references must stay live — a chain
    /// hit hands them to a reader.
    pub(crate) fn trace_roots(&self, mark: &mut dyn FnMut(ObjRef)) {
        if !self.enabled() {
            return;
        }
        for shard in self.shards.iter() {
            for ring in shard.lock().values() {
                for entry in ring {
                    if let Some(r) = Word::from_bits(entry.bits).as_ref() {
                        mark(r);
                    }
                }
            }
        }
    }

    /// GC trimming (stop-the-world, after the mark): drops rings of
    /// dead objects wholesale and, within live rings, entries whose
    /// `until <= min_read_ver` — no transaction with
    /// `read_ver >= min_read_ver` can be served by them, active
    /// transactions all sit at or above the floor, and future
    /// transactions begin at or past the current clock (which the
    /// caller uses as the floor when no transaction is active).
    /// Returns the number of entries removed. Yields at each shard
    /// boundary (never under a shard lock) so the explorer can
    /// interleave chain walks with the trim; with `mv_depth = 0` the
    /// store is empty and no yield fires.
    pub(crate) fn trim(&self, is_live: &dyn Fn(ObjRef) -> bool, min_read_ver: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let mut trimmed = 0u64;
        for shard in self.shards.iter() {
            omt_util::sched::yield_point(schedpt::MV_PRE_TRIM);
            let mut shard = shard.lock();
            shard.retain(|&(obj_raw, _), ring| {
                let live = ObjRef::from_raw(obj_raw).is_some_and(&is_live);
                if !live {
                    trimmed += ring.len() as u64;
                    return false;
                }
                let before = ring.len();
                ring.retain(|e| e.until > min_read_ver);
                trimmed += (before - ring.len()) as u64;
                !ring.is_empty()
            });
        }
        trimmed
    }

    /// Total retained entries (tests and debugging; takes every shard
    /// lock).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().values().map(Vec::len).sum::<usize>()).sum()
    }
}

impl std::fmt::Debug for MvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStore").field("depth", &self.depth).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_heap::{ClassDesc, Heap};

    fn objs(n: usize) -> (Heap, Vec<ObjRef>) {
        let heap = Heap::new();
        let class = heap.define_class(ClassDesc::with_var_fields("C", &["v"]));
        let refs = (0..n).map(|_| heap.alloc(class).unwrap()).collect();
        (heap, refs)
    }

    #[test]
    fn depth_zero_stores_and_serves_nothing() {
        let (_heap, refs) = objs(1);
        let mv = MvStore::new(0);
        assert!(!mv.enabled());
        assert_eq!(mv.lookup(refs[0], 0, 5), None);
        assert_eq!(mv.trim(&|_| true, u64::MAX), 0);
    }

    #[test]
    fn lookup_serves_the_interval_covering_read_ver() {
        let (_heap, refs) = objs(1);
        let mv = MvStore::new(4);
        // Value 10 current over [3, 7), then 20 over [7, 12).
        mv.retire(refs[0], 0, MvEntry { from: 3, until: 7, bits: 10 });
        mv.retire(refs[0], 0, MvEntry { from: 7, until: 12, bits: 20 });
        assert_eq!(mv.lookup(refs[0], 0, 2), None, "before the oldest interval");
        assert_eq!(mv.lookup(refs[0], 0, 3), Some((Word::from_bits(10), 7)));
        assert_eq!(mv.lookup(refs[0], 0, 6), Some((Word::from_bits(10), 7)));
        assert_eq!(mv.lookup(refs[0], 0, 7), Some((Word::from_bits(20), 12)));
        assert_eq!(mv.lookup(refs[0], 0, 11), Some((Word::from_bits(20), 12)));
        assert_eq!(mv.lookup(refs[0], 0, 12), None, "until is exclusive");
    }

    #[test]
    fn ring_is_bounded_by_depth_dropping_oldest() {
        let (_heap, refs) = objs(1);
        let mv = MvStore::new(2);
        for i in 0..5u64 {
            mv.retire(refs[0], 0, MvEntry { from: i, until: i + 1, bits: 100 + i });
        }
        assert_eq!(mv.len(), 2);
        assert_eq!(mv.lookup(refs[0], 0, 0), None, "oldest entries evicted");
        assert_eq!(mv.lookup(refs[0], 0, 3), Some((Word::from_bits(103), 4)));
        assert_eq!(mv.lookup(refs[0], 0, 4), Some((Word::from_bits(104), 5)));
    }

    #[test]
    fn ring_is_allocated_at_depth_and_never_grows() {
        let (_heap, refs) = objs(1);
        for depth in [1, 3] {
            let mv = MvStore::new(depth);
            let capacity = || {
                let key = (refs[0].to_raw(), 0);
                mv.shard(key.0, key.1).lock().get(&key).map(Vec::capacity)
            };
            for i in 0..10u64 {
                mv.retire(refs[0], 0, MvEntry { from: i, until: i + 1, bits: i });
                assert_eq!(capacity(), Some(depth), "ring sized at depth {depth}");
            }
            assert_eq!(mv.len(), depth);
        }
    }

    #[test]
    fn fields_keep_independent_chains() {
        let (_heap, refs) = objs(1);
        let mv = MvStore::new(2);
        mv.retire(refs[0], 0, MvEntry { from: 1, until: 5, bits: 10 });
        mv.retire(refs[0], 1, MvEntry { from: 2, until: 6, bits: 20 });
        assert_eq!(mv.lookup(refs[0], 0, 4), Some((Word::from_bits(10), 5)));
        assert_eq!(mv.lookup(refs[0], 1, 4), Some((Word::from_bits(20), 6)));
        assert_eq!(mv.lookup(refs[0], 1, 1), None);
    }

    #[test]
    fn trim_drops_quiesced_entries_and_dead_rings() {
        let (_heap, refs) = objs(2);
        let mv = MvStore::new(4);
        mv.retire(refs[0], 0, MvEntry { from: 1, until: 4, bits: 10 });
        mv.retire(refs[0], 0, MvEntry { from: 4, until: 9, bits: 20 });
        mv.retire(refs[1], 0, MvEntry { from: 1, until: 100, bits: 30 });
        // Floor 4: the [1,4) entry can serve no read_ver >= 4; the
        // [4,9) entry still can (read_ver 4..=8). refs[1] died.
        let trimmed = mv.trim(&|r| r == refs[0], 4);
        assert_eq!(trimmed, 2, "one quiesced entry + one dead ring of one entry");
        assert_eq!(mv.lookup(refs[0], 0, 2), None);
        assert_eq!(mv.lookup(refs[0], 0, 5), Some((Word::from_bits(20), 9)));
        assert_eq!(mv.lookup(refs[1], 0, 50), None);
    }

    #[test]
    fn trace_roots_marks_only_reference_values() {
        let (_heap, refs) = objs(3);
        let mv = MvStore::new(4);
        mv.retire(
            refs[0],
            0,
            MvEntry { from: 1, until: 2, bits: Word::from_ref(refs[1]).to_bits() },
        );
        mv.retire(refs[0], 1, MvEntry { from: 1, until: 2, bits: Word::from_scalar(7).to_bits() });
        let mut roots = Vec::new();
        mv.trace_roots(&mut |r| roots.push(r));
        assert_eq!(roots, vec![refs[1]]);
    }
}
