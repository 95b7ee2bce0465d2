//! Registry of in-flight transactions, for GC integration, contention
//! management, and orphan recovery.
//!
//! The paper's collector understands transaction logs: undo-log old
//! values are roots (abort may write them back into the heap), and log
//! entries for dead objects are trimmed. To give the collector access to
//! logs that live on mutator stacks, every active transaction registers
//! a pointer to its [`TxLogs`] here, and unregisters on completion.
//!
//! The same row carries the transaction's [`TxCtl`], keyed by its
//! token, so a transaction that loses an `OpenForUpdate` race can
//! inspect the *owner's* priority and doom or wait on it (priority
//! contention management). One further index serves the robustness
//! layer:
//!
//! - an **orphan pool** holds the undo logs of transactions whose
//!   thread "died" (a `Kill` failpoint) while owning objects. Any
//!   transaction that later stumbles on an orphaned owner calls
//!   [`TxRegistry::recover`], which replays the orphan's undo log and
//!   releases its ownership — exactly what the victim's own rollback
//!   would have done.
//!
//! # Lock striping
//!
//! Every transaction registers at begin and unregisters at
//! commit/abort, so the registry is on the hot path of *all* threads.
//! It is therefore striped: [`REGISTRY_STRIPES`] shards, each with its
//! own `rows` and `orphans` and their mutexes. Everything about one
//! transaction lives in the shard its token selects; tokens are
//! allocated sequentially, so concurrent transactions land on
//! different shards and never contend on registration. A stripe holds
//! about a sixteenth of the live transactions, so its rows are a small
//! `Vec` scanned linearly: begin and finish each take one lock and
//! touch one short vector, with no hashing. Register refuses a token
//! that already has a row, which is how a wrapped token counter learns
//! that a live (or killed-but-unrecovered) transaction still holds the
//! candidate. Recovery takes the orphan's logs out **before** removing
//! its row, so contenders keep seeing `killed` until the undo is done.
//!
//! # Stop-the-world contract
//!
//! The registry dereferences the raw [`TxLogs`] pointers only from
//! [`GcParticipant`] callbacks, which [`omt_heap::Heap::collect`]
//! documents may run only while all mutators are paused. Outside a
//! collection the pointers are never touched. (Orphan logs are owned
//! `Box`es, not raw pointers, and are safe to touch any time under the
//! shard mutex.)

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use omt_util::sync::Mutex;

use omt_heap::{GcParticipant, Heap, ObjRef};

use crate::cm::TxCtl;
use crate::logs::TxLogs;
use crate::word::{version_bits, TxToken};

/// Number of lock stripes. A power of two; tokens are assigned
/// sequentially so consecutive transactions hash to distinct stripes.
const REGISTRY_STRIPES: usize = 16;

/// A registered pointer to a transaction's logs.
///
/// SAFETY invariant: the pointee is a `Box<TxLogs>` owned by a live
/// `Transaction` that unregisters before the box is dropped; it is only
/// dereferenced under the stop-the-world contract above.
struct LogsPtr(*mut TxLogs);

// SAFETY: see the struct invariant; access is serialized by the GC's
// stop-the-world contract plus the shard mutex.
unsafe impl Send for LogsPtr {}

/// One registered transaction.
struct Row {
    /// The transaction's control block; `ctl.token` is the row's key.
    ctl: Arc<TxCtl>,
    /// Its logs while it runs. `None` once a kill parked them in the
    /// orphan pool: the row itself stays (with `killed` set) until the
    /// orphan is recovered, so contenders can tell "owner died" from
    /// "owner released", and the token stays taken.
    logs: Option<LogsPtr>,
}

/// One lock stripe: the rows and orphans whose tokens select it.
#[derive(Default)]
struct RegistryShard {
    rows: Mutex<Vec<Row>>,
    /// Undo logs of killed transactions, awaiting recovery.
    orphans: Mutex<HashMap<TxToken, Box<TxLogs>>>,
}

/// Registry of all active transactions of one [`crate::Stm`].
pub struct TxRegistry {
    shards: Box<[RegistryShard]>,
    stats: Arc<crate::stats::StmStats>,
}

impl Default for TxRegistry {
    fn default() -> TxRegistry {
        TxRegistry::new(Default::default())
    }
}

impl TxRegistry {
    pub(crate) fn new(stats: Arc<crate::stats::StmStats>) -> TxRegistry {
        TxRegistry {
            shards: (0..REGISTRY_STRIPES).map(|_| RegistryShard::default()).collect(),
            stats,
        }
    }

    #[inline]
    fn shard_for_token(&self, token: TxToken) -> &RegistryShard {
        &self.shards[token.0 as usize & (REGISTRY_STRIPES - 1)]
    }

    /// Registers the transaction `ctl` describes, with its logs.
    /// Returns `false`, registering nothing, if `ctl.token` is already
    /// taken by a running or killed-but-unrecovered transaction.
    pub(crate) fn register(&self, ctl: &Arc<TxCtl>, logs: *mut TxLogs) -> bool {
        let mut rows = self.shard_for_token(ctl.token).rows.lock();
        if rows.iter().any(|row| row.ctl.token == ctl.token) {
            return false;
        }
        rows.push(Row { ctl: Arc::clone(ctl), logs: Some(LogsPtr(logs)) });
        true
    }

    /// Removes `token`'s row, returning it so the caller drops it
    /// outside the stripe lock.
    fn remove_row(&self, token: TxToken) -> Option<Row> {
        let mut rows = self.shard_for_token(token).rows.lock();
        let at = rows.iter().position(|row| row.ctl.token == token)?;
        Some(rows.swap_remove(at))
    }

    pub(crate) fn unregister(&self, token: TxToken) {
        self.remove_row(token);
    }

    /// Control block of the in-flight (or killed-but-unrecovered)
    /// transaction holding `token`, if any.
    pub(crate) fn ctl_of(&self, token: TxToken) -> Option<Arc<TxCtl>> {
        let rows = self.shard_for_token(token).rows.lock();
        rows.iter().find(|row| row.ctl.token == token).map(|row| Arc::clone(&row.ctl))
    }

    /// Parks a killed transaction's logs for later recovery. The row
    /// forgets its logs pointer (the thread is gone; there is no stack
    /// slot to trace) but keeps the control block until recovery so
    /// contenders can detect the death.
    pub(crate) fn park_orphan(&self, token: TxToken, logs: Box<TxLogs>) {
        let shard = self.shard_for_token(token);
        if let Some(row) = shard.rows.lock().iter_mut().find(|row| row.ctl.token == token) {
            row.logs = None;
        }
        shard.orphans.lock().insert(token, logs);
    }

    /// Recovers the orphaned transaction holding `token`: replays its
    /// undo log (restoring every field it had updated in place) and
    /// releases its ownership records — exactly the rollback its own
    /// thread would have performed, including burning a version on
    /// dirtied entries (a reader may have loaded the dead transaction's
    /// uncommitted stores; see `Transaction::rollback`). `max_version`
    /// is the configured wrap point and `bump_epoch` is invoked once,
    /// before any wrapped header store, if a burned version wraps.
    ///
    /// `fresh_burn` supplies the burn policy: it is called at most once
    /// — and only if some dirtied entry needs burning — and returns
    /// `Some(stamp)` to release every dirtied entry at that one fresh
    /// commit-clock timestamp (snapshot-reads mode, where burned
    /// versions must never exceed the clock) or `None` for the legacy
    /// per-entry `original + 1` increment.
    ///
    /// Idempotent and race-free: the first caller takes the logs out of
    /// the pool; concurrent callers find nothing and return `false`.
    pub(crate) fn recover(
        &self,
        heap: &Heap,
        token: TxToken,
        max_version: u64,
        fresh_burn: &mut dyn FnMut() -> Option<u64>,
        bump_epoch: &mut dyn FnMut(),
    ) -> bool {
        let shard = self.shard_for_token(token);
        let Some(logs) = shard.orphans.lock().remove(&token) else {
            return false;
        };
        omt_util::sched::yield_point(crate::schedpt::RECOVER_PRE_UNDO);
        for entry in logs.undo.iter().rev() {
            heap.field_atomic(entry.obj, entry.field as usize)
                .store(entry.old_bits, Ordering::Relaxed);
        }
        let any_burn = logs.update.iter().any(|e| !e.dead && e.dirtied);
        let stamp = if any_burn { fresh_burn() } else { None };
        let burned = |original: u64| stamp.unwrap_or(original + 1);
        let will_wrap = logs
            .update
            .iter()
            .any(|e| !e.dead && e.dirtied && burned(e.original_version) > max_version);
        if will_wrap {
            bump_epoch();
        }
        for entry in &logs.update {
            if entry.dead {
                continue;
            }
            let released = if entry.dirtied {
                let next = burned(entry.original_version);
                if next > max_version {
                    0
                } else {
                    next
                }
            } else {
                entry.original_version
            };
            omt_util::sched::yield_point_keyed(
                crate::schedpt::RECOVER_PRE_RELEASE,
                entry.obj.to_raw() as usize,
            );
            heap.header_atomic(entry.obj).store(version_bits(released), Ordering::Release);
        }
        // Only now does the token disappear: contenders that raced with
        // us kept seeing `killed` rather than a stale "still running".
        self.remove_row(token);
        self.stats.add(|c| &c.orphans_recovered, 1);
        true
    }

    /// The minimum `read_ver` across all registered control blocks
    /// (including killed-but-unrecovered ones, whose last snapshot
    /// conservatively pins reclamation), or `None` when no transaction
    /// is in flight. This is the floor below which version-chain
    /// entries are unreachable: every active transaction sits at or
    /// above it, and future transactions begin at or past the current
    /// clock. Control blocks that never published a `read_ver` report
    /// `u64::MAX` and do not constrain the minimum.
    pub(crate) fn min_active_read_ver(&self) -> Option<u64> {
        let mut min = None;
        for shard in self.shards.iter() {
            for row in shard.rows.lock().iter() {
                let rv = row.ctl.read_ver.load(Ordering::Acquire);
                if rv != u64::MAX && min.is_none_or(|m| rv < m) {
                    min = Some(rv);
                }
            }
        }
        min
    }

    /// Number of registered (active) transactions.
    pub fn active_count(&self) -> usize {
        self.shards.iter().map(|s| s.rows.lock().iter().filter(|r| r.logs.is_some()).count()).sum()
    }

    /// Number of killed transactions awaiting recovery.
    pub fn orphan_count(&self) -> usize {
        self.shards.iter().map(|s| s.orphans.lock().len()).sum()
    }

    /// Total byte footprint of all registered logs (including orphans).
    ///
    /// Only meaningful while mutators are paused (same contract as GC).
    pub fn total_log_bytes(&self) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            for p in shard.rows.lock().iter().filter_map(|r| r.logs.as_ref()) {
                // SAFETY: stop-the-world contract (see module docs).
                total += unsafe { &*p.0 }.byte_size();
            }
            total += shard.orphans.lock().values().map(|l| l.byte_size()).sum::<usize>();
        }
        total
    }

    /// Total `(read, update, undo)` entry counts across registered logs
    /// (including orphans).
    ///
    /// Only meaningful while mutators are paused (same contract as GC).
    pub fn total_log_entries(&self) -> (usize, usize, usize) {
        let mut totals = (0, 0, 0);
        for shard in self.shards.iter() {
            for p in shard.rows.lock().iter().filter_map(|r| r.logs.as_ref()) {
                // SAFETY: stop-the-world contract (see module docs).
                let (r, u, n) = unsafe { &*p.0 }.lens();
                totals.0 += r;
                totals.1 += u;
                totals.2 += n;
            }
            for logs in shard.orphans.lock().values() {
                let (r, u, n) = logs.lens();
                totals.0 += r;
                totals.1 += u;
                totals.2 += n;
            }
        }
        totals
    }
}

impl GcParticipant for TxRegistry {
    // Trimming yields at each shard *boundary* — never while a shard
    // lock is held or a raw `LogsPtr` is live. In production the yields
    // are no-ops and the stop-the-world contract holds verbatim. Under
    // the `omt-sched` explorer (which serializes all threads, so there
    // are no data races) the boundary placement is what keeps the raw
    // derefs sound while mutator steps interleave with the trim:
    // registration changes take the same shard lock the traversal
    // holds, so a pointer observed inside the lock cannot dangle;
    // between shards no pointer is held; and `Heap::collect` frees
    // storage only after every participant trimmed, so a mutator step
    // validating a not-yet-trimmed dead entry still finds an intact
    // header. Tracing takes *no* yields: without write barriers, a
    // mutator store interleaved mid-mark could hide a live object from
    // the trace (the undo entry recording the overwritten reference may
    // sit in an already-traced shard).

    fn trace_roots(&self, mark: &mut dyn FnMut(ObjRef)) {
        for shard in self.shards.iter() {
            for p in shard.rows.lock().iter().filter_map(|r| r.logs.as_ref()) {
                // SAFETY: stop-the-world contract (see module docs).
                unsafe { &*p.0 }.trace_rollback_roots(mark);
            }
            // Orphan undo logs are rollback roots too: recovery will
            // write their old values back into the heap.
            for logs in shard.orphans.lock().values() {
                logs.trace_rollback_roots(mark);
            }
        }
    }

    fn after_sweep(&self, is_live: &dyn Fn(ObjRef) -> bool) {
        let mut trimmed = 0u64;
        for shard in self.shards.iter() {
            omt_util::sched::yield_point(crate::schedpt::GC_PRE_TRIM_SHARD);
            for p in shard.rows.lock().iter().filter_map(|r| r.logs.as_ref()) {
                // SAFETY: stop-the-world contract (see module docs); the
                // mutable access is exclusive because mutators are paused.
                trimmed += unsafe { &mut *p.0 }.trim(is_live) as u64;
            }
            for logs in shard.orphans.lock().values_mut() {
                trimmed += logs.trim(is_live) as u64;
            }
        }
        self.stats.add(|c| &c.gc_trimmed_entries, trimmed);
    }
}

impl std::fmt::Debug for TxRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxRegistry")
            .field("stripes", &self.shards.len())
            .field("active", &self.active_count())
            .field("orphans", &self.orphan_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(token: u32, serial: u64) -> Arc<TxCtl> {
        Arc::new(TxCtl::new(TxToken(token), serial, 0))
    }

    #[test]
    fn register_and_unregister() {
        let registry = TxRegistry::new(Default::default());
        let mut logs = Box::new(TxLogs::new());
        assert!(registry.register(&ctl(9, 1), &mut *logs));
        assert_eq!(registry.active_count(), 1);
        assert!(registry.ctl_of(TxToken(9)).is_some());
        assert!(registry.ctl_of(TxToken(8)).is_none());
        registry.unregister(TxToken(9));
        assert_eq!(registry.active_count(), 0);
        assert!(registry.ctl_of(TxToken(9)).is_none());
    }

    #[test]
    fn rows_spread_across_stripes_but_aggregate_exactly() {
        // Register transactions whose tokens cover every stripe (and
        // wrap around); global counts must see all of them.
        let registry = TxRegistry::new(Default::default());
        let mut logs: Vec<Box<TxLogs>> =
            (0..3 * REGISTRY_STRIPES).map(|_| Box::new(TxLogs::new())).collect();
        for (i, l) in logs.iter_mut().enumerate() {
            assert!(registry.register(&ctl(i as u32, i as u64), &mut **l));
        }
        assert_eq!(registry.active_count(), 3 * REGISTRY_STRIPES);
        for i in 0..3 * REGISTRY_STRIPES {
            assert!(registry.ctl_of(TxToken(i as u32)).is_some(), "token {i} lost");
        }
        for i in 0..3 * REGISTRY_STRIPES {
            registry.unregister(TxToken(i as u32));
        }
        assert_eq!(registry.active_count(), 0);
    }

    #[test]
    fn register_refuses_a_token_that_is_live_or_killed_but_unrecovered() {
        let registry = TxRegistry::new(Default::default());
        let mut logs = Box::new(TxLogs::new());
        let mut other = Box::new(TxLogs::new());
        assert!(registry.register(&ctl(18, 1), &mut *logs));
        // A second transaction drawing the live token gets "taken",
        // and the refusal registers nothing.
        assert!(!registry.register(&ctl(18, 2), &mut *other));
        assert_eq!(registry.active_count(), 1);
        assert_eq!(registry.ctl_of(TxToken(18)).unwrap().priority(), 1);
        // A neighbour in the same stripe is a different token.
        assert!(registry.register(&ctl(2, 3), &mut *other));
        registry.unregister(TxToken(2));

        // Killed: the logs leave the row, the token stays taken.
        registry.park_orphan(TxToken(18), logs);
        assert_eq!(registry.active_count(), 0);
        assert_eq!(registry.orphan_count(), 1);
        assert!(registry.ctl_of(TxToken(18)).is_some(), "ctl survives park until recovery");
        assert!(!registry.register(&ctl(18, 4), &mut *other), "an orphan's token is taken");
        assert!(registry.recover(
            &omt_heap::Heap::new(),
            TxToken(18),
            u64::MAX,
            &mut || None,
            &mut || ()
        ));
        assert_eq!(registry.orphan_count(), 0);
        assert!(registry.ctl_of(TxToken(18)).is_none());
        assert!(registry.register(&ctl(18, 5), &mut *other), "free again after recovery");
        registry.unregister(TxToken(18));
        assert_eq!(registry.active_count(), 0);
    }

    #[test]
    fn log_footprint_visible_through_registry() {
        let heap = omt_heap::Heap::new();
        let class = heap.define_class(omt_heap::ClassDesc::with_var_fields("C", &["v"]));
        let obj = heap.alloc(class).unwrap();

        let registry = TxRegistry::new(Default::default());
        let mut logs = Box::new(TxLogs::new());
        logs.read.push(crate::logs::ReadEntry { obj, observed: 0 });
        assert!(registry.register(&ctl(1, 7), &mut *logs));
        let (r, u, n) = registry.total_log_entries();
        assert_eq!((r, u, n), (1, 0, 0));
        assert!(registry.total_log_bytes() > 0);
        registry.unregister(TxToken(1));
    }

    #[test]
    fn orphan_recovery_restores_and_releases() {
        use crate::logs::{UndoEntry, UpdateEntry};
        use omt_heap::Word;

        let heap = omt_heap::Heap::new();
        let class = heap.define_class(omt_heap::ClassDesc::with_var_fields("C", &["v"]));
        let obj = heap.alloc(class).unwrap();
        heap.store(obj, 0, Word::from_scalar(41));
        let old_bits = heap.field_atomic(obj, 0).load(Ordering::Relaxed);

        // Simulate a killed transaction: field overwritten in place,
        // header left owned.
        heap.store(obj, 0, Word::from_scalar(99));
        let token = TxToken(5);
        heap.header_atomic(obj).store(crate::word::owned_bits(token, 0), Ordering::Release);

        let registry = TxRegistry::new(Default::default());
        let mut logs = Box::new(TxLogs::new());
        logs.undo.push(UndoEntry { obj, field: 0, old_bits });
        logs.update.push(UpdateEntry { obj, original_version: 3, dead: false, dirtied: true });
        assert!(registry.register(&ctl(5, 1), &mut *logs));
        registry.park_orphan(token, logs);
        assert_eq!(registry.orphan_count(), 1);
        assert!(registry.ctl_of(token).is_some(), "ctl survives until recovery");

        let mut epoch_bumps = 0;
        assert!(registry.recover(&heap, token, u64::MAX, &mut || None, &mut || epoch_bumps += 1));
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(41), "undo restored the field");
        assert_eq!(
            heap.header_atomic(obj).load(Ordering::Acquire),
            version_bits(4),
            "ownership released one past the original version (the entry was dirtied, \
             so a reader may have seen the dead store; abort burns a version)"
        );
        assert_eq!(epoch_bumps, 0, "no wrap, no epoch bump");
        assert_eq!(registry.orphan_count(), 0);
        assert!(registry.ctl_of(token).is_none());
        assert!(
            !registry.recover(&heap, token, u64::MAX, &mut || None, &mut || ()),
            "second recovery is a no-op"
        );
    }

    #[test]
    fn recovery_of_clean_entries_keeps_the_original_version() {
        use crate::logs::UpdateEntry;

        let heap = omt_heap::Heap::new();
        let class = heap.define_class(omt_heap::ClassDesc::with_var_fields("C", &["v"]));
        let obj = heap.alloc(class).unwrap();
        let token = TxToken(6);
        heap.header_atomic(obj).store(crate::word::owned_bits(token, 0), Ordering::Release);

        let registry = TxRegistry::new(Default::default());
        let mut logs = Box::new(TxLogs::new());
        // Acquired but never cleared for in-place stores: no reader can
        // have observed anything but the pre-acquisition state.
        logs.update.push(UpdateEntry { obj, original_version: 3, dead: false, dirtied: false });
        assert!(registry.register(&ctl(6, 1), &mut *logs));
        registry.park_orphan(token, logs);
        assert!(registry.recover(&heap, token, u64::MAX, &mut || None, &mut || ()));
        assert_eq!(heap.header_atomic(obj).load(Ordering::Acquire), version_bits(3));
    }

    #[test]
    fn recovery_wrap_bumps_epoch_before_release() {
        use crate::logs::UpdateEntry;

        let heap = omt_heap::Heap::new();
        let class = heap.define_class(omt_heap::ClassDesc::with_var_fields("C", &["v"]));
        let obj = heap.alloc(class).unwrap();
        let token = TxToken(7);
        heap.header_atomic(obj).store(crate::word::owned_bits(token, 0), Ordering::Release);

        let registry = TxRegistry::new(Default::default());
        let mut logs = Box::new(TxLogs::new());
        // Dirtied at the maximum version: burning one must wrap to 0 and
        // announce a new epoch.
        logs.update.push(UpdateEntry { obj, original_version: 15, dead: false, dirtied: true });
        assert!(registry.register(&ctl(7, 1), &mut *logs));
        registry.park_orphan(token, logs);
        let mut epoch_bumps = 0;
        assert!(registry.recover(&heap, token, 15, &mut || None, &mut || epoch_bumps += 1));
        assert_eq!(heap.header_atomic(obj).load(Ordering::Acquire), version_bits(0));
        assert_eq!(epoch_bumps, 1);
    }

    #[test]
    fn orphans_in_distinct_stripes_recover_independently() {
        let heap = omt_heap::Heap::new();
        let registry = TxRegistry::new(Default::default());
        // Two orphans whose tokens land in different stripes.
        for (serial, token) in [(1u64, TxToken(3)), (2, TxToken(4))] {
            let mut logs = Box::new(TxLogs::new());
            assert!(registry.register(&ctl(token.0, serial), &mut *logs));
            registry.park_orphan(token, logs);
        }
        assert_eq!(registry.orphan_count(), 2);
        assert!(registry.recover(&heap, TxToken(3), u64::MAX, &mut || None, &mut || ()));
        assert_eq!(registry.orphan_count(), 1, "other stripe's orphan untouched");
        assert!(registry.ctl_of(TxToken(4)).is_some());
        assert!(registry.recover(&heap, TxToken(4), u64::MAX, &mut || None, &mut || ()));
        assert_eq!(registry.orphan_count(), 0);
    }
}
