//! STM-wide statistics: transaction outcomes, barrier executions, and
//! filtering effectiveness.
//!
//! These counters regenerate the paper's dynamic-count tables: how many
//! `OpenForRead` / `OpenForUpdate` / `LogForUndo` operations executed,
//! how many log entries the runtime filter suppressed, and abort rates.
//!
//! # Sharding
//!
//! Counters are *sharded*: [`StmStats`] holds an array of
//! cache-line-padded [`StatShard`] cells and each thread increments the
//! shard assigned to it, so the commit/abort hot path never `fetch_add`s
//! on a cache line another core is writing. [`StmStats::snapshot`]
//! aggregates all shards on demand — reads are rare and pay the cost,
//! writers pay nothing beyond an uncontended relaxed RMW.
//!
//! Recording can also be disabled wholesale (via
//! [`crate::StmConfig::record_stats`]): every record call then
//! compiles down to a single predictable branch, so throughput-mode
//! benchmarks can measure the runtime without counter overhead.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards. A power of two; more shards than typical
/// hardware threads so round-robin assignment rarely aliases.
const STAT_SHARDS: usize = 32;

/// Monotonic source of per-thread shard assignments.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    /// Global across all `StmStats` instances: a thread always uses the
    /// same stripe, which keeps its counter lines in its own cache.
    static SHARD_INDEX: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (STAT_SHARDS - 1);
}

macro_rules! counters {
    ($($(#[$meta:meta])* $name:ident),+ $(,)?) => {
        /// One cache-line-padded stripe of counters, written by (at
        /// most a few) threads that hash to it; relaxed atomics.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub(crate) struct StatShard {
            $( $(#[$meta])* pub(crate) $name: AtomicU64, )+
        }

        /// A point-in-time copy of [`StmStats`], aggregated across all
        /// shards.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StmStatsSnapshot {
            $( $(#[$meta])* pub $name: u64, )+
        }

        impl StmStats {
            /// Takes a snapshot of all counters (sums every shard).
            /// The sum is not atomic against concurrent increments; the
            /// schedule point makes that window explorable.
            pub fn snapshot(&self) -> StmStatsSnapshot {
                omt_util::sched::yield_point(crate::schedpt::STATS_PRE_SNAPSHOT);
                let mut snap = StmStatsSnapshot::default();
                for shard in self.shards.iter() {
                    $( snap.$name += shard.$name.load(Ordering::Relaxed); )+
                }
                snap
            }
        }

        impl StmStatsSnapshot {
            /// Subtracts a baseline snapshot, yielding deltas.
            pub fn delta_since(&self, baseline: &StmStatsSnapshot) -> StmStatsSnapshot {
                StmStatsSnapshot {
                    $( $name: self.$name - baseline.$name, )+
                }
            }
        }
    };
}

counters! {
    /// Transactions begun.
    begins,
    /// Transactions committed.
    commits,
    /// Aborts because `OpenForUpdate` lost to another owner.
    aborts_busy,
    /// Aborts because read-set validation failed.
    aborts_invalid,
    /// Aborts because the renumbering epoch advanced.
    aborts_epoch,
    /// Aborts requested explicitly by the user.
    aborts_explicit,
    /// Aborts of transactions doomed by another transaction's
    /// contention manager (priority policies).
    aborts_doomed,
    /// Doom flags set by priority contention managers (each one aborts
    /// some *other* transaction).
    dooms_issued,
    /// Times a retry loop escalated into exclusive serial mode after
    /// too many consecutive aborts (or past its deadline on the
    /// infallible path).
    serial_entries,
    /// Fallible retry loops that gave up because the atomic block's
    /// deadline passed (config `tx_deadline` or a per-call deadline).
    deadlines_exceeded,
    /// Fallible retry loops that gave up because the attempt budget
    /// (`max_retries`) was consumed by conflicts.
    retries_exhausted,
    /// Panics that unwound out of a transaction closure after the
    /// runtime rolled the transaction back (undo replayed, ownership
    /// released, registry deregistered).
    panics_unwound,
    /// Failpoint actions triggered (fault injection).
    failpoint_fires,
    /// Transactions killed mid-flight by a `Kill` failpoint (simulated
    /// thread death while holding ownership).
    txs_killed,
    /// Orphaned (killed) transactions rolled back and released by a
    /// concurrent transaction's recovery path.
    orphans_recovered,
    /// `OpenForRead` barrier executions.
    open_read_ops,
    /// `OpenForUpdate` barrier executions.
    open_update_ops,
    /// `LogForUndo` barrier executions.
    log_undo_ops,
    /// Read-log entries actually appended.
    read_entries,
    /// Read-log appends suppressed by the runtime filter.
    read_filtered,
    /// Undo-log entries actually appended.
    undo_entries,
    /// Undo-log appends suppressed by the runtime filter.
    undo_filtered,
    /// Successful ownership acquisitions (CAS to owned).
    acquires,
    /// Read-set validations performed (commit-time and incremental).
    validations,
    /// Incremental (mid-transaction) validations.
    mid_validations,
    /// Validations that returned through the commit-sequence-clock fast
    /// path without scanning any read-log entry.
    validation_fast_path,
    /// Read-log entries actually scanned by validations (a full pass
    /// scans the whole read log; the fast path scans none).
    validation_entries_scanned,
    /// Contention-manager spin iterations.
    cm_spins,
    /// Log entries removed or tombstoned by GC trimming.
    gc_trimmed_entries,
    /// Snapshot-mode reads satisfied by the O(1) `version <= read_ver`
    /// check (no read-set walk, no validation).
    snapshot_read_hits,
    /// Successful timestamp extensions: a too-new version triggered a
    /// read-set revalidation that advanced `read_ver` in place instead
    /// of aborting.
    ts_extensions,
    /// Timestamp extensions that found a genuine conflict and fell back
    /// to the abort path.
    extension_failures,
    /// Commits of transactions that made no updates (empty update and
    /// undo logs).
    readonly_commits,
    /// Aborts of transactions that had made no updates at rollback time
    /// (the numerator of the read-only abort rate).
    readonly_aborts,
    /// Commit-clock CAS attempts that lost the race and adopted the
    /// winner's value instead of retrying (GV6 `PassOnFail` mode). Zero
    /// in every other clock mode.
    clock_cas_failures,
    /// Retries of the per-stripe stamp-reservation CAS loop in
    /// `Deferred` mode (only possible when more threads than clock
    /// stripes share a home stripe). Zero in every other mode.
    clock_bump_retries,
    /// Snapshot-mode reads served from a version chain: the current
    /// version was newer than `read_ver` and the chain held the value
    /// current at `read_ver`, so the reader proceeded without a
    /// timestamp extension (`mv_depth > 0` only).
    mv_read_hits,
    /// Chain walks that found no entry covering `read_ver` (trimmed,
    /// evicted by the ring bound, or never retired); the read fell back
    /// to the timestamp-extension path (`mv_depth > 0` only).
    mv_chain_misses,
    /// Version-chain entries removed by GC trimming (dead objects and
    /// quiesced intervals no active `read_ver` can need).
    mv_trims,
    /// Decomposed `OpenForRead` executions under `snapshot_reads`: the
    /// paired data load cannot be sandwich-verified, so the transaction
    /// loses the abort-free `snapshot_clean` path. The compiled TxIL
    /// backend routes loads through the composed barrier instead; this
    /// counts the callers that still take the decomposed path.
    snapshot_decomposed_opens,
}

/// Live counters owned by an [`crate::Stm`]: an array of padded shards,
/// one picked per thread (see the module docs).
#[derive(Debug)]
pub struct StmStats {
    shards: Box<[StatShard]>,
    /// When false, every record call is a single early-return branch.
    enabled: bool,
}

impl Default for StmStats {
    fn default() -> StmStats {
        StmStats::new(true)
    }
}

impl StmStats {
    pub(crate) fn new(enabled: bool) -> StmStats {
        StmStats { shards: (0..STAT_SHARDS).map(|_| StatShard::default()).collect(), enabled }
    }

    /// True if record calls are actually counted.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The shard assigned to the calling thread.
    #[inline]
    fn shard(&self) -> &StatShard {
        // Round-robin thread assignment bounds aliasing: two threads
        // share a stripe only when more than `STAT_SHARDS` threads have
        // ever recorded, and relaxed atomics keep that correct anyway.
        &self.shards[SHARD_INDEX.with(|s| *s)]
    }

    /// Runs `record` once against this thread's shard, so a batch of
    /// adds (a finished transaction's counters) looks the shard up once.
    #[inline]
    pub(crate) fn record(&self, record: impl FnOnce(&StatShard)) {
        if self.enabled {
            record(self.shard());
        }
    }

    /// Adds `n` to the counter selected by `counter` on this thread's
    /// shard. `counter` is a field projection (`|c| &c.commits`) so the
    /// call inlines to one branch plus one uncontended relaxed RMW.
    #[inline]
    pub(crate) fn add(&self, counter: impl FnOnce(&StatShard) -> &AtomicU64, n: u64) {
        if !self.enabled {
            return;
        }
        counter(self.shard()).fetch_add(n, Ordering::Relaxed);
    }
}

impl StmStatsSnapshot {
    /// Total aborts across all causes.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.aborts_busy
            + self.aborts_invalid
            + self.aborts_epoch
            + self.aborts_explicit
            + self.aborts_doomed
    }

    /// Retry loops that gave up, whatever the budget that ran out
    /// (deadline or attempt count) — both paths share one give-up
    /// decision, so this is the complete count.
    #[must_use]
    pub fn give_ups(&self) -> u64 {
        self.deadlines_exceeded + self.retries_exhausted
    }

    /// Aborts per begun transaction (0 if none begun).
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            self.aborts() as f64 / self.begins as f64
        }
    }

    /// Fraction of read-log appends suppressed by the filter.
    #[must_use]
    pub fn read_filter_rate(&self) -> f64 {
        let total = self.read_entries + self.read_filtered;
        if total == 0 {
            0.0
        } else {
            self.read_filtered as f64 / total as f64
        }
    }

    /// Fraction of validations that skipped the read-log scan via the
    /// commit-sequence clock (0 if none ran).
    #[must_use]
    pub fn validation_fast_path_rate(&self) -> f64 {
        if self.validations == 0 {
            0.0
        } else {
            self.validation_fast_path as f64 / self.validations as f64
        }
    }

    /// Read-log entries scanned per committed transaction (0 if none
    /// committed).
    #[must_use]
    pub fn entries_scanned_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.validation_entries_scanned as f64 / self.commits as f64
        }
    }

    /// Fraction of undo-log appends suppressed by the filter.
    #[must_use]
    pub fn undo_filter_rate(&self) -> f64 {
        let total = self.undo_entries + self.undo_filtered;
        if total == 0 {
            0.0
        } else {
            self.undo_filtered as f64 / total as f64
        }
    }

    /// Commit-clock CAS failures per commit-stamp claim (0 if none
    /// claimed). Commits and version-burning rollbacks each claim one
    /// stamp, so the denominator is `commits + readonly-ish burns`; we
    /// approximate it with `commits + aborts`, which upper-bounds the
    /// claim count and keeps the rate comparable across modes. The E5d
    /// headline: near zero for `Striped`/`Deferred`, where the hot
    /// paths never CAS a shared clock word.
    #[must_use]
    pub fn clock_cas_failure_rate(&self) -> f64 {
        let claims = self.commits + self.aborts();
        if claims == 0 {
            0.0
        } else {
            self.clock_cas_failures as f64 / claims as f64
        }
    }

    /// Aborts per read-only transaction outcome (0 if none finished).
    /// The E5c headline: with `snapshot_reads` on this is 0 for
    /// read-mostly workloads.
    #[must_use]
    pub fn readonly_abort_rate(&self) -> f64 {
        let total = self.readonly_commits + self.readonly_aborts;
        if total == 0 {
            0.0
        } else {
            self.readonly_aborts as f64 / total as f64
        }
    }
}

impl fmt::Display for StmStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx: {} begun, {} committed, {} aborted ({:.1}%); barriers: {} open-read, \
             {} open-update, {} log-undo; filtered: {} read ({:.1}%), {} undo ({:.1}%); \
             validation: {} runs, {} fast-path ({:.1}%), {} entries scanned",
            self.begins,
            self.commits,
            self.aborts(),
            self.abort_rate() * 100.0,
            self.open_read_ops,
            self.open_update_ops,
            self.log_undo_ops,
            self.read_filtered,
            self.read_filter_rate() * 100.0,
            self.undo_filtered,
            self.undo_filter_rate() * 100.0,
            self.validations,
            self.validation_fast_path,
            self.validation_fast_path_rate() * 100.0,
            self.validation_entries_scanned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let stats = StmStats::default();
        stats.add(|c| &c.begins, 3);
        stats.add(|c| &c.commits, 2);
        stats.add(|c| &c.aborts_busy, 1);
        let snap = stats.snapshot();
        assert_eq!(snap.begins, 3);
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts(), 1);
        assert!((snap.abort_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_stats_record_nothing() {
        let stats = StmStats::new(false);
        assert!(!stats.is_enabled());
        stats.add(|c| &c.begins, 5);
        assert_eq!(stats.snapshot(), StmStatsSnapshot::default());
    }

    #[test]
    fn shards_are_padded_against_false_sharing() {
        assert_eq!(std::mem::align_of::<StatShard>(), 128);
        assert_eq!(std::mem::size_of::<StatShard>() % 128, 0);
    }

    #[test]
    fn cross_thread_increments_aggregate_exactly() {
        // Threads land on different shards; the aggregate must still be
        // the exact event total, same as the old single-cell counters.
        let stats = StmStats::default();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        stats.add(|c| &c.commits, 1);
                    }
                    stats.add(|c| &c.begins, PER_THREAD);
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.commits, THREADS as u64 * PER_THREAD);
        assert_eq!(snap.begins, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn filter_rates() {
        let snap = StmStatsSnapshot {
            read_entries: 25,
            read_filtered: 75,
            undo_entries: 10,
            undo_filtered: 0,
            ..StmStatsSnapshot::default()
        };
        assert!((snap.read_filter_rate() - 0.75).abs() < 1e-9);
        assert_eq!(snap.undo_filter_rate(), 0.0);
    }

    #[test]
    fn validation_rates() {
        let snap = StmStatsSnapshot {
            commits: 4,
            validations: 10,
            validation_fast_path: 9,
            validation_entries_scanned: 20,
            ..StmStatsSnapshot::default()
        };
        assert!((snap.validation_fast_path_rate() - 0.9).abs() < 1e-9);
        assert!((snap.entries_scanned_per_commit() - 5.0).abs() < 1e-9);
        let empty = StmStatsSnapshot::default();
        assert_eq!(empty.validation_fast_path_rate(), 0.0);
        assert_eq!(empty.entries_scanned_per_commit(), 0.0);
    }

    #[test]
    fn readonly_abort_rate_counts_only_readonly_outcomes() {
        let snap = StmStatsSnapshot {
            readonly_commits: 3,
            readonly_aborts: 1,
            aborts_invalid: 50, // update-transaction aborts do not dilute the rate
            ..StmStatsSnapshot::default()
        };
        assert!((snap.readonly_abort_rate() - 0.25).abs() < 1e-9);
        assert_eq!(StmStatsSnapshot::default().readonly_abort_rate(), 0.0);
    }

    #[test]
    fn clock_cas_failure_rate_normalizes_by_claims() {
        let snap = StmStatsSnapshot {
            commits: 6,
            aborts_busy: 2,
            clock_cas_failures: 2,
            ..StmStatsSnapshot::default()
        };
        assert!((snap.clock_cas_failure_rate() - 0.25).abs() < 1e-9);
        assert_eq!(StmStatsSnapshot::default().clock_cas_failure_rate(), 0.0);
    }

    #[test]
    fn delta_since_subtracts() {
        let a = StmStatsSnapshot { begins: 10, commits: 8, ..Default::default() };
        let b = StmStatsSnapshot { begins: 4, commits: 3, ..Default::default() };
        let d = a.delta_since(&b);
        assert_eq!(d.begins, 6);
        assert_eq!(d.commits, 5);
    }

    #[test]
    fn rates_are_zero_when_empty() {
        let snap = StmStatsSnapshot::default();
        assert_eq!(snap.abort_rate(), 0.0);
        assert_eq!(snap.read_filter_rate(), 0.0);
    }

    #[test]
    fn display_mentions_key_counts() {
        let snap = StmStatsSnapshot { begins: 7, ..Default::default() };
        assert!(snap.to_string().contains("7 begun"));
    }
}
