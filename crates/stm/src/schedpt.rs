//! Named schedule points instrumented in the STM hot paths.
//!
//! Each constant names a cross-thread-visible step at which the runtime
//! calls [`omt_util::sched::yield_point`]. In production builds nothing
//! listens and each site costs one relaxed atomic load; under the
//! `omt-sched` explorer every virtual thread pauses at every site it
//! reaches, which is what makes interleavings enumerable and
//! counterexample traces readable (the trace prints these names).
//!
//! The map from site to code location:
//!
//! | site | where |
//! |------|-------|
//! | [`OPEN_READ_PRE_HEADER`] | `open_for_read`, before the header load |
//! | [`READ_PRE_LOAD`] | composed `read`, between open and the data load |
//! | [`OPEN_UPDATE_PRE_HEADER`] | `open_for_update`, top of the CAS loop |
//! | [`OPEN_UPDATE_PRE_ACQ_BUMP`] | after a winning CAS, before the acquisition-clock bump |
//! | [`WRITE_PRE_STORE`] | composed `write`, between undo logging and the data store |
//! | [`CONTEND_WAIT`] | every contention-wait round (CM `Wait` and doom-wait) |
//! | [`VALIDATE_PRE_CLOCKS`] | `validate`, before the two clock loads |
//! | [`VALIDATE_PRE_SCAN`] | `validate`, before the read-log scan |
//! | [`COMMIT_PRE_CLOCK_BUMP`] | `commit`, after validation, before the commit-clock bump |
//! | [`COMMIT_PRE_RELEASE`] | `commit`, before **each** release-phase header store |
//! | [`ROLLBACK_PRE_UNDO`] | `rollback`/`rollback_to`, before **each** undo-log field restore |
//! | [`ROLLBACK_PRE_RELEASE`] | `rollback`/`rollback_to`, before **each** ownership release |
//! | [`KILL_PRE_PARK`] | `kill`, before the logs are parked as an orphan |
//! | [`RECOVER_PRE_UNDO`] | `TxRegistry::recover`, before the orphan's undo replay |
//! | [`RECOVER_PRE_RELEASE`] | `TxRegistry::recover`, before **each** ownership release |
//! | [`GATE_ENTER`] | `enter_gate`, before taking the serial-mode gate |
//! | [`GATE_ACQUIRE_SHARED`] | `enter_gate`, each failed shared acquisition attempt (blocking) |
//! | [`GATE_ACQUIRE_EXCLUSIVE`] | `enter_gate`, each failed exclusive acquisition attempt (blocking) |
//! | [`GC_PRE_TRIM_SHARD`] | `TxRegistry::after_sweep`, before **each** registry shard's trim |
//! | [`STATS_PRE_SNAPSHOT`] | `StmStats::snapshot`, before the cross-shard sum |
//! | [`READ_PRE_RECHECK`] | snapshot-mode `read`, between the data load and the header re-check |
//! | [`READ_OWNED_WAIT`] | snapshot-mode open, each bounded-wait round on a foreign owner |
//! | [`EXTEND_PRE_VALIDATE`] | snapshot-mode open, before a timestamp-extension revalidation |
//! | [`CLOCK_PRE_RAISE`] | snapshot-mode open, before raising the commit clock to a version ahead of it (a `Deferred` leading stamp, or a stamp from another `Stm` on the same heap) |
//! | [`BOOST_PRE_LOCK_CAS`] | abstract-lock `acquire`, top of the load/CAS loop |
//! | [`BOOST_LOCK_WAIT`] | abstract-lock `acquire`, each bounded-wait round on a held lock |
//! | [`BOOST_PRE_UNLOCK`] | abstract-lock `release`, before the word is cleared |
//! | [`BOOST_PRE_INVERSE`] | boosted abort handler, before an inverse semantic op runs |
//! | [`MV_PRE_RETIRE`] | publishing commit, before a retired version is pushed onto its chain |
//! | [`MV_PRE_WALK`] | snapshot-mode `read`, before a version-chain lookup |
//! | [`MV_PRE_TRIM`] | `MvStore::trim`, before **each** chain shard's trim |
//!
//! Several sites are *gated* and fire only along specific paths, so
//! frozen schedules recorded against other configurations keep their
//! exact step sequences: `READ_PRE_RECHECK`, `READ_OWNED_WAIT`, and
//! `EXTEND_PRE_VALIDATE` fire only with `snapshot_reads` enabled;
//! `CLOCK_PRE_RAISE` additionally only under a clock mode whose commit
//! stamps can lead the global clock (`Deferred`), or when a second
//! `Stm` on the same heap stamped a version ahead of this one's clock,
//! which no single-`Stm` scenario does; the four
//! `BOOST_*` sites fire only through the abstract-lock table
//! ([`crate::boost`]), which no word-level-only scenario touches; and
//! the three `MV_*` sites fire only with
//! [`StmConfig::mv_depth`](crate::StmConfig) `> 0` (at depth 0 no
//! retire or walk runs and the trim returns before its first yield).
//!
//! Sites that name an object use
//! [`omt_util::sched::yield_point_keyed`] with the object's raw
//! reference as key, which lets explorers prune schedules that differ
//! only in the order of steps on distinct objects. The two
//! `GATE_ACQUIRE_*` sites are *blocking* points raised through
//! [`omt_util::sched::block_until`]: an explorer sees the waiting
//! thread as blocked instead of spinning it, so scenarios may run with
//! serial-mode escalation enabled.

/// In `open_for_read`, before the header load that samples the word the
/// read log will record.
pub const OPEN_READ_PRE_HEADER: &str = "open_read.pre_header_load";
/// In the composed `read` barrier, between `open_for_read` returning
/// and the raw data load — the window in which a foreign owner's
/// in-place store can become the value this transaction computes with.
pub const READ_PRE_LOAD: &str = "read.pre_data_load";
/// Top of `open_for_update`'s load/CAS loop (covers every retry and
/// every contention re-examination).
pub const OPEN_UPDATE_PRE_HEADER: &str = "open_update.pre_header_load";
/// Immediately after `open_for_update`'s winning CAS, before the
/// acquisition-clock bump — the window the PR 3 two-clock fix closed.
pub const OPEN_UPDATE_PRE_ACQ_BUMP: &str = "open_update.pre_acquire_bump";
/// In the composed `write` barrier, between `log_for_undo` and the raw
/// data store.
pub const WRITE_PRE_STORE: &str = "write.pre_data_store";
/// One contention-wait round: the CM said `Wait`, or the winner is
/// waiting for a doomed victim to notice. Placed so a waiting virtual
/// thread hands the baton back instead of spinning it forever.
pub const CONTEND_WAIT: &str = "contend.wait";
/// In `validate`, after the doom/epoch checks, before the two clock
/// loads of the commit-sequence fast path.
pub const VALIDATE_PRE_CLOCKS: &str = "validate.pre_clocks";
/// In `validate`, after the clock comparison decided to scan, before
/// the read-log pass starts.
pub const VALIDATE_PRE_SCAN: &str = "validate.pre_scan";
/// In `commit`, after validation succeeded, before the commit-sequence
/// clock bump that announces the release phase.
pub const COMMIT_PRE_CLOCK_BUMP: &str = "commit.pre_clock_bump";
/// In `commit`'s release phase, before each header store that publishes
/// one updated object.
pub const COMMIT_PRE_RELEASE: &str = "commit.pre_release_store";
/// In rollback (full or to a savepoint), before each undo-log field
/// restore.
pub const ROLLBACK_PRE_UNDO: &str = "rollback.pre_undo_store";
/// In rollback (full or to a savepoint), before each ownership-release
/// header store.
pub const ROLLBACK_PRE_RELEASE: &str = "rollback.pre_release_store";
/// In `kill`, before the dead transaction's logs are parked in the
/// orphan pool (ownership is still in place, data possibly dirty).
pub const KILL_PRE_PARK: &str = "kill.pre_park";
/// In `TxRegistry::recover`, after the orphan's logs were claimed,
/// before its undo log is replayed.
pub const RECOVER_PRE_UNDO: &str = "recover.pre_undo_store";
/// In `TxRegistry::recover`, before each ownership-release header
/// store.
pub const RECOVER_PRE_RELEASE: &str = "recover.pre_release_store";
/// In `enter_gate`, before acquiring the serial-mode gate (shared or
/// exclusive).
pub const GATE_ENTER: &str = "gate.enter";
/// In `enter_gate`'s shared path: a *blocking* point raised on each
/// failed non-blocking read acquisition (a serial writer is queued or
/// holds the gate).
pub const GATE_ACQUIRE_SHARED: &str = "gate.acquire_shared";
/// In `enter_gate`'s exclusive path: a *blocking* point raised on each
/// failed non-blocking write acquisition (retry-loop attempts still
/// hold the gate shared).
pub const GATE_ACQUIRE_EXCLUSIVE: &str = "gate.acquire_exclusive";
/// In `TxRegistry::after_sweep`, before each registry shard is locked
/// and its log entries trimmed. Placed at the shard *boundary* — never
/// while a shard lock is held or a raw log pointer is live — so an
/// explorer can interleave mutator steps with the trim shard-by-shard.
/// (Tracing has no counterpart: marking is atomic with respect to
/// mutators — see `TxRegistry`'s `GcParticipant` impl.)
pub const GC_PRE_TRIM_SHARD: &str = "gc.pre_trim_shard";
/// In `StmStats::snapshot`, before the cross-shard counter sum — the
/// snapshot is not atomic with respect to concurrent increments.
pub const STATS_PRE_SNAPSHOT: &str = "stats.pre_snapshot";
/// Snapshot-mode composed `read`, between the raw data load and the
/// header re-check that closes the seqlock sandwich — the window in
/// which a writer's acquisition or release invalidates the loaded
/// value.
pub const READ_PRE_RECHECK: &str = "read.pre_recheck";
/// Snapshot-mode open, one bounded-wait round on a word owned by a
/// foreign transaction (the snapshot path waits for the release version
/// instead of logging an unvalidatable owned word).
pub const READ_OWNED_WAIT: &str = "read.owned_wait";
/// Snapshot-mode open, after observing a version newer than `read_ver`,
/// before the timestamp-extension revalidation.
pub const EXTEND_PRE_VALIDATE: &str = "extend.pre_validate";
/// Snapshot-mode open under `Deferred` commit stamps: after observing a
/// version newer than `read_ver`, before raising the global commit
/// clock to cover it (so the subsequent extension's refreshed
/// `read_ver` admits the stamp). Fires only when
/// `ClockMode::Deferred`'s leading stamps make the raise necessary, or
/// when the version was stamped by another `Stm` sharing the heap.
pub const CLOCK_PRE_RAISE: &str = "clock.pre_raise";
/// Abstract-lock `acquire` (boosting), top of the load/CAS loop: covers
/// the initial attempt, every lost CAS race, and every re-examination
/// after a contention round. Keyed by the lock slot.
pub const BOOST_PRE_LOCK_CAS: &str = "boost.pre_lock_cas";
/// Abstract-lock `acquire`, one bounded-wait round on a lock held by a
/// foreign transaction (the CM said `Wait`, or a doomed holder has not
/// yet noticed). Keyed by the lock slot.
pub const BOOST_LOCK_WAIT: &str = "boost.lock_wait";
/// Abstract-lock `release` (commit/abort handler), before the lock word
/// is cleared. Keyed by the lock slot.
pub const BOOST_PRE_UNLOCK: &str = "boost.pre_unlock";
/// Boosted abort handler, before one inverse semantic operation runs
/// (under the still-held abstract lock).
pub const BOOST_PRE_INVERSE: &str = "boost.pre_inverse_op";
/// Publishing commit with `mv_depth > 0`, before one retired
/// `(value, interval)` pair is pushed onto its version chain — ordered
/// before the header release-store that installs the successor, which
/// is what the chain-walk race oracle sweeps. Keyed by the object.
pub const MV_PRE_RETIRE: &str = "mv.pre_retire";
/// Snapshot-mode composed `read` with `mv_depth > 0`, after meeting a
/// version newer than `read_ver`, before the version-chain lookup.
/// Keyed by the object.
pub const MV_PRE_WALK: &str = "mv.pre_walk";
/// `MvStore::trim` (GC), before each chain shard is locked and its
/// quiesced entries dropped. Placed at the shard *boundary* — never
/// under a shard lock — mirroring [`GC_PRE_TRIM_SHARD`].
pub const MV_PRE_TRIM: &str = "mv.pre_trim";

/// Every instrumented site, for tools that sweep or document them.
pub const ALL: [&str; 31] = [
    OPEN_READ_PRE_HEADER,
    READ_PRE_LOAD,
    OPEN_UPDATE_PRE_HEADER,
    OPEN_UPDATE_PRE_ACQ_BUMP,
    WRITE_PRE_STORE,
    CONTEND_WAIT,
    VALIDATE_PRE_CLOCKS,
    VALIDATE_PRE_SCAN,
    COMMIT_PRE_CLOCK_BUMP,
    COMMIT_PRE_RELEASE,
    ROLLBACK_PRE_UNDO,
    ROLLBACK_PRE_RELEASE,
    KILL_PRE_PARK,
    RECOVER_PRE_UNDO,
    RECOVER_PRE_RELEASE,
    GATE_ENTER,
    GATE_ACQUIRE_SHARED,
    GATE_ACQUIRE_EXCLUSIVE,
    GC_PRE_TRIM_SHARD,
    STATS_PRE_SNAPSHOT,
    READ_PRE_RECHECK,
    READ_OWNED_WAIT,
    EXTEND_PRE_VALIDATE,
    CLOCK_PRE_RAISE,
    BOOST_PRE_LOCK_CAS,
    BOOST_LOCK_WAIT,
    BOOST_PRE_UNLOCK,
    BOOST_PRE_INVERSE,
    MV_PRE_RETIRE,
    MV_PRE_WALK,
    MV_PRE_TRIM,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_unique() {
        let mut names: Vec<&str> = ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate schedule-point names");
    }

    #[test]
    fn site_names_are_dotted_paths() {
        for site in ALL {
            assert!(site.contains('.'), "site {site} should be area.step");
            assert!(!site.contains(' '), "site {site} should be machine-friendly");
        }
    }
}
