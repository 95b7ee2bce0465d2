//! The STM runtime: transaction management, the retry loop, and the
//! serial-mode fallback gate.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omt_heap::{GcParticipant, Heap};
use omt_util::pad::CachePadded;
use omt_util::sched::{block_until, yield_point};
use omt_util::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::clock::{Clocks, Stamp};
use crate::config::{ClockMode, StmConfig};
use crate::error::{ConflictKind, RetryExhausted, TxError, TxResult};
use crate::failpoint::Failpoints;
use crate::mv::MvStore;
use crate::pool;
use crate::registry::TxRegistry;
use crate::stats::{StmStats, StmStatsSnapshot};
use crate::tx::{Outcome, Transaction, TxCounters};
use crate::word::TxToken;

/// A direct-access software transactional memory over an
/// [`omt_heap::Heap`].
///
/// One `Stm` instance manages any number of concurrent transactions on
/// the heap it wraps. Share it across threads behind an [`Arc`] (or with
/// scoped threads).
///
/// # Examples
///
/// Transfer between two accounts with automatic retry:
///
/// ```
/// use std::sync::Arc;
/// use omt_heap::{Heap, ClassDesc, Word};
/// use omt_stm::Stm;
///
/// let heap = Arc::new(Heap::new());
/// let class = heap.define_class(ClassDesc::with_var_fields("Acct", &["bal"]));
/// let a = heap.alloc(class)?;
/// let b = heap.alloc(class)?;
/// let stm = Stm::new(heap.clone());
/// heap.store(a, 0, Word::from_scalar(100));
///
/// stm.atomically(|tx| {
///     let bal_a = tx.read(a, 0)?.as_scalar().unwrap();
///     let bal_b = tx.read(b, 0)?.as_scalar().unwrap();
///     tx.write(a, 0, Word::from_scalar(bal_a - 30))?;
///     tx.write(b, 0, Word::from_scalar(bal_b + 30))?;
///     Ok(())
/// });
/// assert_eq!(heap.load(b, 0).as_scalar(), Some(30));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Stm {
    heap: Arc<Heap>,
    config: StmConfig,
    /// Global renumbering epoch; bumped when a version number wraps.
    /// Padded so this occasionally-written word never false-shares
    /// with the clocks or the allocation counters around it.
    epoch: CachePadded<AtomicU64>,
    /// The commit-sequence / acquisition clock pair, in the
    /// [`StmConfig::clock_mode`]-selected implementation (see
    /// [`crate::clock`] and DESIGN.md §4.11). The commit side is
    /// bumped (or a stamp claimed) by every transaction that publishes
    /// updates, at the *start* of its release phase; the acquisition
    /// side by every successful `open_for_update` CAS, *before* the
    /// acquiring transaction can issue any in-place store. In a
    /// direct-update STM an uncommitted in-place store is observable
    /// without any commit having happened, so the commit clock alone
    /// cannot vouch for a read set; the validation fast path requires
    /// *both* clocks to be quiescent (see [`Transaction::validate`]
    /// and DESIGN.md §4.7).
    clocks: Clocks,
    next_token: AtomicU32,
    next_serial: AtomicU64,
    registry: TxRegistry,
    /// Bounded per-word version chains (DESIGN.md §4.13); inert (and
    /// zero-cost on every hot path) unless [`StmConfig::mv_depth`] > 0.
    mv: MvStore,
    stats: Arc<StmStats>,
    failpoints: Failpoints,
    /// Serial-mode gate. Every retry-loop attempt holds it shared; a
    /// transaction that escalates to serial mode holds it exclusively,
    /// so it runs with no retry-loop transaction in flight.
    gate: RwLock<()>,
    /// Writers queued on the gate. Shared entrants yield while this is
    /// non-zero, giving escalated transactions priority (std's `RwLock`
    /// does not promise writer preference).
    gate_waiting: AtomicUsize,
    /// Test-only unsoundness knob: validation's fast path consults the
    /// commit-sequence clock *alone*, reverting the PR 3 two-clock fix.
    /// Exists so the schedule explorer can re-derive that bug's
    /// counterexample as a regression oracle.
    #[cfg(test)]
    test_unsound_commit_clock_only: std::sync::atomic::AtomicBool,
    /// Test-only unsoundness knob: abort releases dirtied entries at
    /// their *original* version instead of burning one, reverting this
    /// PR's abort-ABA fix (see `UpdateEntry::original_version`).
    #[cfg(test)]
    test_unsound_abort_restores_version: std::sync::atomic::AtomicBool,
    /// Test-only unsoundness knob: the snapshot-mode composed `read`
    /// skips the header re-check that closes its seqlock sandwich,
    /// accepting whatever the data load returned. Exists so the
    /// schedule explorer can demonstrate the zombie commit that the
    /// re-check prevents (a read-only snapshot transaction commits an
    /// aborting writer's in-place store).
    #[cfg(test)]
    test_unsound_snapshot_skip_recheck: std::sync::atomic::AtomicBool,
    /// Test-only unsoundness knob: timestamp extension advances
    /// `read_ver` to the current clock *without* revalidating the read
    /// set. Exists so the schedule explorer can demonstrate the torn
    /// snapshot that the revalidation prevents.
    #[cfg(test)]
    test_unsound_extension_skips_revalidate: std::sync::atomic::AtomicBool,
}

/// Per-atomic-block state carried across retries: the age priority is
/// pinned to the *first* attempt and karma accumulates, so contention
/// managers see a transaction's full history, not just its latest
/// incarnation.
struct AttemptSeed {
    priority: u64,
    karma: u64,
}

/// Holder of the serial-mode gate for one attempt.
enum GateGuard<'a> {
    Shared(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Exclusive(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

/// The give-up budget of one retry loop — the *single* decision point
/// shared by every entry path, so the attempt counter, the deadline,
/// and the give-up statistics live in one place instead of per-caller
/// bespoke counters.
///
/// - [`Stm::atomically`] runs an *infallible* budget: it never gives
///   up, but a configured deadline forces escalation into exclusive
///   serial mode (which cannot lose a conflict race), bounding its
///   completion time gracefully.
/// - [`Stm::try_atomically`] / [`Stm::try_atomically_within`] run a
///   *fallible* budget: attempt count and deadline both end the loop
///   with a typed [`RetryExhausted`].
#[derive(Debug, Clone, Copy)]
struct RetryBudget {
    /// Extra attempts allowed after the first (`None` = unbounded).
    max_attempts: Option<u32>,
    /// Absolute give-up time (`None` = no deadline).
    deadline: Option<Instant>,
    /// Whether running out of budget surfaces as an error (`true`) or
    /// as forced serial-mode escalation (`false`).
    fallible: bool,
    /// The deadline was zero on arrival: a fallible call is shed before
    /// any attempt runs. Known from the duration itself, so the fast
    /// path reads no clock beyond the one that set `deadline`.
    expired: bool,
}

impl RetryBudget {
    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Stm {
    /// Creates an STM over `heap` with the default configuration.
    pub fn new(heap: Arc<Heap>) -> Stm {
        Stm::with_config(heap, StmConfig::default())
    }

    /// Creates an STM with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`StmConfig::validate`]).
    pub fn with_config(heap: Arc<Heap>, config: StmConfig) -> Stm {
        config.validate();
        let stats: Arc<StmStats> = Arc::new(StmStats::new(config.record_stats));
        Stm {
            heap,
            config,
            epoch: CachePadded::new(AtomicU64::new(0)),
            clocks: Clocks::new(config.clock_mode),
            next_token: AtomicU32::new(1),
            next_serial: AtomicU64::new(1),
            registry: TxRegistry::new(stats.clone()),
            mv: MvStore::new(config.mv_depth),
            stats,
            failpoints: Failpoints::new(),
            gate: RwLock::new(()),
            gate_waiting: AtomicUsize::new(0),
            #[cfg(test)]
            test_unsound_commit_clock_only: std::sync::atomic::AtomicBool::new(false),
            #[cfg(test)]
            test_unsound_abort_restores_version: std::sync::atomic::AtomicBool::new(false),
            #[cfg(test)]
            test_unsound_snapshot_skip_recheck: std::sync::atomic::AtomicBool::new(false),
            #[cfg(test)]
            test_unsound_extension_skips_revalidate: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The underlying heap.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The active configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Snapshot of the global statistics.
    pub fn stats(&self) -> StmStatsSnapshot {
        self.stats.snapshot()
    }

    /// The fault-injection registry (see [`crate::failpoint`]). Arm
    /// sites here before running workloads under test.
    pub fn failpoints(&self) -> &Failpoints {
        &self.failpoints
    }

    pub(crate) fn note_failpoint_fire(&self) {
        self.stats.add(|c| &c.failpoint_fires, 1);
    }

    /// The registry of in-flight transactions (also the STM's
    /// [`GcParticipant`]).
    pub fn registry(&self) -> &TxRegistry {
        &self.registry
    }

    /// This STM as a GC participant, to pass to
    /// [`omt_heap::Heap::collect`]. Covers both the in-flight
    /// transaction logs (via the registry) and the version chains:
    /// chain entries keep their referents alive until trimmed, and the
    /// trim itself rides the collection's quiescent window (see
    /// DESIGN.md §4.13).
    pub fn gc_participant(&self) -> &dyn GcParticipant {
        self
    }

    /// The multi-version store (inert at `mv_depth = 0`).
    pub(crate) fn mv(&self) -> &MvStore {
        &self.mv
    }

    /// Current renumbering epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The clock pair (see [`crate::clock`]).
    pub(crate) fn clocks(&self) -> &Clocks {
        &self.clocks
    }

    /// The clock organization this runtime was built with (see
    /// [`ClockMode`] and DESIGN.md §4.11).
    pub fn clock_mode(&self) -> ClockMode {
        self.clocks.mode()
    }

    /// Current commit-sequence clock (number of update-publishing
    /// release phases started so far; under
    /// [`crate::ClockMode::Deferred`] the lazily-raised lower bound on
    /// claimed stamps).
    pub fn commit_clock(&self) -> u64 {
        self.clocks.commit_now()
    }

    /// Claims the stamp for an update-publishing release phase. Must
    /// happen *before* the first header release-store so that any
    /// transaction observing a published header also observes the
    /// claim (writer program order + release/acquire on the header),
    /// and therefore never takes the validation fast path across this
    /// commit. Under [`StmConfig::snapshot_reads`] the returned value
    /// is also the *timestamp* the release phase stamps into every
    /// published header (see DESIGN.md §4.10). The returned [`Stamp`]
    /// carries the claim's contention counts for the caller to fold
    /// into its [`TxCounters`].
    pub(crate) fn commit_stamp(&self) -> Stamp {
        self.clocks.commit_stamp()
    }

    /// Draws a fresh commit-clock timestamp for *burning* dirtied
    /// entries on the snapshot-mode abort path. A burned version must
    /// be reachable by extension: a snapshot reader that meets a
    /// burned header extends its `read_ver` to at least the burn
    /// value, which the clock itself has already reached — or, under
    /// [`crate::ClockMode::Deferred`]'s leading stamps, which the
    /// reader first raises the clock to. Claiming a stamp on abort is
    /// acceptable because aborts of dirtied writers are the rare path.
    pub(crate) fn burn_stamp(&self) -> Stamp {
        self.clocks.commit_stamp()
    }

    /// Current acquisition clock (number of successful ownership
    /// acquisitions so far, while [`StmConfig::commit_sequence`] is
    /// enabled). In the striped modes this sums the per-thread
    /// stripes; the sum is monotone, which is all the validation fast
    /// path needs (see [`crate::clock`]).
    pub fn acquire_clock(&self) -> u64 {
        self.clocks.acquire_now()
    }

    /// Announces a successful ownership acquisition. Runs *after* the
    /// acquiring CAS and *before* `open_for_update` returns, so no
    /// in-place store can precede it. Two orderings matter:
    ///
    /// - CAS-then-bump (`AcqRel` on both): a validator whose `Acquire`
    ///   load observes the bump also observes the `Owned` header,
    ///   so a read-log scan under that clock value cannot miss the
    ///   acquisition.
    /// - The trailing `Release` fence (inside
    ///   [`Clocks::bump_acquire`]) pairs with the `Acquire` fence at
    ///   the top of [`Transaction::validate`]: a validator that
    ///   observed any of the owner's subsequent (relaxed) in-place
    ///   stores must then also observe the bump — in whichever stripe
    ///   it landed — and therefore never takes the fast path across
    ///   uncommitted data.
    pub(crate) fn bump_acquire_clock(&self) {
        self.clocks.bump_acquire();
    }

    /// Begins a transaction.
    ///
    /// Manual transactions do not participate in the serial-mode gate:
    /// only [`Stm::atomically`] / [`Stm::try_atomically`] attempts are
    /// excluded when some retry loop escalates to serial mode.
    pub fn begin(&self) -> Transaction<'_> {
        self.begin_with(None)
    }

    fn begin_with(&self, seed: Option<&AttemptSeed>) -> Transaction<'_> {
        self.stats.add(|c| &c.begins, 1);
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        let (priority, karma) = match seed {
            Some(s) => (s.priority, s.karma),
            None => (serial, 0),
        };
        let mut ctx = pool::acquire(self.config.runtime_filter, self.config.filter_bits);
        // Reuse-safe token allocation (sound in release builds, unlike
        // the debug-only collision panic it replaced). The 32-bit
        // counter wraps after 2³² begins; handing out a token that a
        // live transaction still holds would let two transactions treat
        // each other's ownership records as their own, corrupting the
        // heap far from the cause. Instead of assuming wraps never
        // overtake a live transaction, redraw: skip token 0 (which the
        // abstract-lock table reserves as its "free" encoding) and any
        // candidate the registry refuses because a running or
        // killed-but-unrecovered transaction still holds it. The check
        // and the registration are one step under the stripe lock, so
        // a candidate found free is ours. The loop terminates because
        // live transactions are finitely many — far fewer than 2³²
        // (each holds a registry row) — so some candidate is always
        // free.
        let token = loop {
            let raw = self.next_token.fetch_add(1, Ordering::Relaxed);
            if raw == 0 {
                continue;
            }
            let candidate = TxToken(raw);
            ctx.arm_ctl(candidate, priority, karma);
            if self.registry.register(&ctx.ctl, &mut *ctx.logs) {
                break candidate;
            }
        };
        Transaction::new(self, token, self.epoch(), ctx)
    }

    /// Runs `f` transactionally, retrying on conflicts with randomized
    /// exponential backoff, until it commits.
    ///
    /// After `serial_after_aborts` consecutive failed attempts (see
    /// [`StmConfig`]), the loop degrades gracefully: it waits for all
    /// other retry-loop transactions to drain and re-runs `f` in
    /// exclusive *serial mode*, which cannot lose another conflict race
    /// — a livelock-freedom guarantee under any contention-management
    /// policy. A configured [`StmConfig::tx_deadline`] triggers the
    /// same escalation once it passes (this entry point never returns
    /// an error, so the deadline bounds completion time instead).
    ///
    /// # Panics
    ///
    /// Panics if the heap fills up ([`TxError::HeapFull`] is not
    /// retryable), or if `f` returns [`TxError::DeadlineExceeded`]
    /// explicitly; use [`Stm::try_atomically`] to handle those cases.
    pub fn atomically<T>(&self, f: impl FnMut(&mut Transaction<'_>) -> TxResult<T>) -> T {
        let budget = RetryBudget {
            max_attempts: None,
            deadline: self.config.tx_deadline.map(|d| Instant::now() + d),
            fallible: false,
            expired: false,
        };
        match self.run_loop(f, budget) {
            Ok(v) => v,
            Err(RetryExhausted::HeapFull) => {
                panic!("heap slot table exhausted inside atomically")
            }
            Err(RetryExhausted::DeadlineExceeded { .. }) => {
                panic!("transaction closure returned TxError::DeadlineExceeded inside atomically")
            }
            Err(RetryExhausted::Conflicts { .. }) => {
                unreachable!("infallible budget => conflicts never exhaust")
            }
        }
    }

    /// Like [`Stm::atomically`] but gives up after the configured retry
    /// budget (and the configured [`StmConfig::tx_deadline`], if any)
    /// instead of looping forever.
    ///
    /// # Errors
    ///
    /// [`RetryExhausted::Conflicts`] after `max_retries` failed
    /// attempts; [`RetryExhausted::DeadlineExceeded`] once the
    /// configured deadline passes; [`RetryExhausted::HeapFull`] on
    /// allocation failure.
    pub fn try_atomically<T>(
        &self,
        f: impl FnMut(&mut Transaction<'_>) -> TxResult<T>,
    ) -> Result<T, RetryExhausted> {
        let budget = RetryBudget {
            max_attempts: Some(self.config.max_retries),
            deadline: self.config.tx_deadline.map(|d| Instant::now() + d),
            fallible: true,
            expired: self.config.tx_deadline.is_some_and(|d| d.is_zero()),
        };
        self.run_loop(f, budget)
    }

    /// Like [`Stm::try_atomically`] with an explicit per-call deadline,
    /// overriding [`StmConfig::tx_deadline`]. The retry budget
    /// (`max_retries`) still applies; whichever runs out first ends the
    /// loop. This is the entry point for request-scoped work (a service
    /// handler that must answer or shed within its latency budget).
    ///
    /// # Errors
    ///
    /// As [`Stm::try_atomically`];
    /// [`RetryExhausted::DeadlineExceeded`] once `deadline` (measured
    /// from now) passes — with `attempts: 0` if `deadline` is zero.
    #[must_use = "the transaction may have been shed; inspect the result"]
    pub fn try_atomically_within<T>(
        &self,
        deadline: Duration,
        f: impl FnMut(&mut Transaction<'_>) -> TxResult<T>,
    ) -> Result<T, RetryExhausted> {
        let budget = RetryBudget {
            max_attempts: Some(self.config.max_retries),
            deadline: Some(Instant::now() + deadline),
            fallible: true,
            expired: deadline.is_zero(),
        };
        self.run_loop(f, budget)
    }

    /// The retry loop shared by every entry path; `budget` is the one
    /// give-up decision (attempts *and* deadline — see [`RetryBudget`]).
    fn run_loop<T>(
        &self,
        mut f: impl FnMut(&mut Transaction<'_>) -> TxResult<T>,
        budget: RetryBudget,
    ) -> Result<T, RetryExhausted> {
        let mut seed = None;
        let mut failures = 0u32;
        // A zero deadline sheds the call before any attempt runs — the
        // admission-control fast path.
        if budget.fallible && budget.expired {
            self.stats.add(|c| &c.deadlines_exceeded, 1);
            return Err(RetryExhausted::DeadlineExceeded { attempts: 0 });
        }
        loop {
            // Past-deadline infallible loops escalate to serial mode:
            // they cannot return an error, but exclusive execution
            // cannot lose another conflict race, so the block completes
            // in bounded further time instead of thrashing.
            let serial = self.config.serial_after_aborts.is_some_and(|n| failures >= n)
                || (!budget.fallible && failures > 0 && budget.past_deadline());
            let gate = self.enter_gate(serial);
            match self.attempt(&mut f, &mut seed) {
                Ok(v) => return Ok(v),
                Err(TxError::HeapFull) => return Err(RetryExhausted::HeapFull),
                Err(TxError::DeadlineExceeded) => {
                    // The closure bailed out on its own deadline check;
                    // give up without re-running it.
                    self.stats.add(|c| &c.deadlines_exceeded, 1);
                    return Err(RetryExhausted::DeadlineExceeded { attempts: failures + 1 });
                }
                Err(TxError::Conflict(kind)) => {
                    failures = failures.saturating_add(1);
                    if let Some(gave_up) = self.give_up(&budget, failures, kind) {
                        return Err(gave_up);
                    }
                    drop(gate);
                    self.backoff_within(failures, budget.deadline);
                }
            }
        }
    }

    /// The single give-up decision for fallible budgets: deadline
    /// first (it is the stronger promise), then the attempt count.
    /// Returns `None` while the loop should keep retrying.
    fn give_up(
        &self,
        budget: &RetryBudget,
        failures: u32,
        last: ConflictKind,
    ) -> Option<RetryExhausted> {
        if !budget.fallible {
            return None;
        }
        if budget.past_deadline() {
            self.stats.add(|c| &c.deadlines_exceeded, 1);
            return Some(RetryExhausted::DeadlineExceeded { attempts: failures });
        }
        if budget.max_attempts.is_some_and(|b| failures > b) {
            self.stats.add(|c| &c.retries_exhausted, 1);
            return Some(RetryExhausted::Conflicts { attempts: failures, last });
        }
        None
    }

    /// One attempt: begin (re-seeding priority/karma from prior
    /// attempts), run `f`, commit or roll back. On failure the seed is
    /// updated so the next attempt inherits this one's age and karma.
    ///
    /// A panic inside `f` is caught, the transaction is rolled back
    /// (undo replayed, ownership released, registry deregistered), and
    /// the unwind then resumes — so callers above the retry loop never
    /// observe a heap with the panicking transaction's effects or
    /// ownership in place, and the serial-mode gate hold (dropped by
    /// `run_loop` as the resumed unwind passes through it) is released
    /// only after cleanup finished.
    fn attempt<T>(
        &self,
        f: &mut impl FnMut(&mut Transaction<'_>) -> TxResult<T>,
        seed: &mut Option<AttemptSeed>,
    ) -> TxResult<T> {
        let mut tx = self.begin_with(seed.as_ref());
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut tx)));
        // Finishing opens nothing, so the age and karma the next
        // attempt inherits are final once the body returned.
        let next_seed = AttemptSeed { priority: tx.ctl().priority(), karma: tx.ctl().karma() };
        let result = match body {
            Ok(Ok(v)) => tx.commit().map(|()| v),
            Ok(Err(e)) => {
                match e {
                    TxError::Conflict(kind) => tx.abort_with(kind),
                    TxError::HeapFull | TxError::DeadlineExceeded => {
                        tx.abort_with(ConflictKind::Explicit)
                    }
                }
                Err(e)
            }
            Err(payload) => {
                self.stats.add(|c| &c.panics_unwound, 1);
                tx.abort_with(ConflictKind::Explicit);
                std::panic::resume_unwind(payload);
            }
        };
        if result.is_err() {
            *seed = Some(next_seed);
        }
        result
    }

    /// Takes the serial-mode gate: shared for a normal attempt,
    /// exclusive for an escalated one. Shared entrants yield while a
    /// writer is queued so escalation cannot starve.
    ///
    /// Both acquisitions go through [`block_until`], so a schedule
    /// explorer sees a waiting entrant as a *blocked* thread (runnable
    /// again only after some other thread progressed) instead of a
    /// native `RwLock` wait that would wedge the exploration baton.
    /// In production builds the non-blocking attempt runs once and
    /// falls back to the plain blocking acquisition.
    fn enter_gate(&self, exclusive: bool) -> GateGuard<'_> {
        yield_point(crate::schedpt::GATE_ENTER);
        if exclusive {
            self.gate_waiting.fetch_add(1, Ordering::AcqRel);
            let guard = block_until(
                crate::schedpt::GATE_ACQUIRE_EXCLUSIVE,
                || self.gate.try_write(),
                || self.gate.write(),
            );
            self.gate_waiting.fetch_sub(1, Ordering::AcqRel);
            self.stats.add(|c| &c.serial_entries, 1);
            GateGuard::Exclusive(guard)
        } else {
            let guard = block_until(
                crate::schedpt::GATE_ACQUIRE_SHARED,
                // Refuse even an available read slot while a writer is
                // queued: escalation must not starve behind a stream of
                // shared entrants.
                || {
                    if self.gate_waiting.load(Ordering::Acquire) > 0 {
                        None
                    } else {
                        self.gate.try_read()
                    }
                },
                || {
                    while self.gate_waiting.load(Ordering::Acquire) > 0 {
                        std::thread::yield_now();
                    }
                    self.gate.read()
                },
            );
            GateGuard::Shared(guard)
        }
    }

    /// Randomized exponential backoff between attempts: spin a random
    /// count in a window doubling per attempt (capped by
    /// `backoff_cap_log2`), yielding to the scheduler past
    /// `backoff_yield_after` attempts.
    pub(crate) fn backoff(&self, attempt: u32) {
        let cap = 1u32 << attempt.min(self.config.backoff_cap_log2);
        let spins = omt_util::rng::thread_rng().gen_range(0..=cap);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if attempt > self.config.backoff_yield_after {
            std::thread::yield_now();
        }
    }

    /// Deadline-capped [`Stm::backoff`]: once the budget's deadline has
    /// passed there is no point burning it further on a wait, so the
    /// retry loop goes straight to its next (final or serial) attempt.
    fn backoff_within(&self, attempt: u32, deadline: Option<Instant>) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return;
        }
        self.backoff(attempt);
    }

    /// Resets every live object's version to zero and advances the
    /// epoch — the heavy-weight fallback for version-number exhaustion.
    ///
    /// The cheap path (automatic wrap + epoch bump at release time)
    /// normally suffices; this exists to measure the full renumbering
    /// cost in experiment E9 and to restore small-version-width
    /// configurations to a clean state.
    ///
    /// # Panics
    ///
    /// Panics if any transaction is still active or any killed
    /// transaction is unrecovered (requires quiescence).
    pub fn renumber_versions(&self) {
        assert_eq!(
            self.registry.active_count(),
            0,
            "renumber_versions requires quiescence (no active transactions)"
        );
        assert_eq!(
            self.registry.orphan_count(),
            0,
            "renumber_versions requires quiescence (no unrecovered orphans)"
        );
        self.bump_epoch();
        self.heap.for_each_live(|r| {
            self.heap.header_atomic(r).store(0, Ordering::Release);
        });
    }

    /// Recovers the orphaned (killed) transaction holding `token`,
    /// replaying its undo log and releasing its ownership records with
    /// this STM's wrap/epoch semantics. Returns `false` if someone else
    /// got there first (or the token was never orphaned).
    pub(crate) fn recover_orphan(&self, token: TxToken) -> bool {
        let max_version = self.config.max_version();
        // Under snapshot reads, dirtied orphan entries burn a fresh
        // clock timestamp (never `original + 1`, which could exceed the
        // clock and strand extending readers); otherwise the legacy
        // per-entry increment applies.
        let mut fresh_burn = || {
            if self.config.snapshot_reads {
                let stamp = self.burn_stamp();
                // No transaction context to attribute the claim to, so
                // the contention counts land on the global stats
                // directly.
                self.stats.add(|c| &c.clock_cas_failures, stamp.cas_failures);
                self.stats.add(|c| &c.clock_bump_retries, stamp.bump_retries);
                Some(stamp.value)
            } else {
                None
            }
        };
        self.registry
            .recover(&self.heap, token, max_version, &mut fresh_burn, &mut || self.bump_epoch())
    }

    /// Reads the `commit-clock-only` unsoundness knob (see the field).
    #[cfg(test)]
    pub(crate) fn test_unsound_commit_clock_only(&self) -> bool {
        self.test_unsound_commit_clock_only.load(Ordering::Relaxed)
    }

    /// Arms/disarms validation's single-clock fast path (test only).
    #[cfg(test)]
    pub(crate) fn set_test_unsound_commit_clock_only(&self, on: bool) {
        self.test_unsound_commit_clock_only.store(on, Ordering::Relaxed);
    }

    /// Reads the `abort-restores-version` unsoundness knob (see the
    /// field).
    #[cfg(test)]
    pub(crate) fn test_unsound_abort_restores_version(&self) -> bool {
        self.test_unsound_abort_restores_version.load(Ordering::Relaxed)
    }

    /// Arms/disarms version-burning on abort (test only).
    #[cfg(test)]
    pub(crate) fn set_test_unsound_abort_restores_version(&self, on: bool) {
        self.test_unsound_abort_restores_version.store(on, Ordering::Relaxed);
    }

    /// Reads the `snapshot-skip-recheck` unsoundness knob (see the
    /// field).
    #[cfg(test)]
    pub(crate) fn test_unsound_snapshot_skip_recheck(&self) -> bool {
        self.test_unsound_snapshot_skip_recheck.load(Ordering::Relaxed)
    }

    /// Arms/disarms the snapshot read's header re-check (test only).
    #[cfg(test)]
    pub(crate) fn set_test_unsound_snapshot_skip_recheck(&self, on: bool) {
        self.test_unsound_snapshot_skip_recheck.store(on, Ordering::Relaxed);
    }

    /// Reads the `extension-skips-revalidate` unsoundness knob (see the
    /// field).
    #[cfg(test)]
    pub(crate) fn test_unsound_extension_skips_revalidate(&self) -> bool {
        self.test_unsound_extension_skips_revalidate.load(Ordering::Relaxed)
    }

    /// Arms/disarms timestamp extension's revalidation (test only).
    #[cfg(test)]
    pub(crate) fn set_test_unsound_extension_skips_revalidate(&self, on: bool) {
        self.test_unsound_extension_skips_revalidate.store(on, Ordering::Relaxed);
    }

    /// Rewinds the token counter so the next [`Stm::begin`] reissues a
    /// specific token (test only; exercises the collision guard).
    #[cfg(test)]
    pub(crate) fn set_next_token_for_test(&self, raw: u32) {
        self.next_token.store(raw, Ordering::Relaxed);
    }

    /// Folds a finished transaction's outcome and counters into the
    /// global statistics: one shard lookup, and no RMW for a counter
    /// the transaction left at zero.
    pub(crate) fn flush_outcome(&self, outcome: Outcome, counters: &TxCounters) {
        self.stats.record(|s| {
            let ended = match outcome {
                Outcome::Committed => &s.commits,
                Outcome::Aborted(ConflictKind::Busy) => &s.aborts_busy,
                Outcome::Aborted(ConflictKind::Invalid) => &s.aborts_invalid,
                Outcome::Aborted(ConflictKind::Epoch) => &s.aborts_epoch,
                Outcome::Aborted(ConflictKind::Explicit) => &s.aborts_explicit,
                Outcome::Aborted(ConflictKind::Doomed) => &s.aborts_doomed,
                Outcome::Killed => &s.txs_killed,
            };
            ended.fetch_add(1, Ordering::Relaxed);
            let c = counters;
            for (cell, n) in [
                (&s.open_read_ops, c.open_read_ops),
                (&s.open_update_ops, c.open_update_ops),
                (&s.log_undo_ops, c.log_undo_ops),
                (&s.read_entries, c.read_entries),
                (&s.read_filtered, c.read_filtered),
                (&s.undo_entries, c.undo_entries),
                (&s.undo_filtered, c.undo_filtered),
                (&s.acquires, c.acquires),
                (&s.validations, c.validations),
                (&s.mid_validations, c.mid_validations),
                (&s.validation_fast_path, c.validation_fast_path),
                (&s.validation_entries_scanned, c.validation_entries_scanned),
                (&s.cm_spins, c.cm_spins),
                (&s.dooms_issued, c.dooms),
                (&s.snapshot_read_hits, c.snapshot_read_hits),
                (&s.ts_extensions, c.ts_extensions),
                (&s.extension_failures, c.extension_failures),
                (&s.readonly_commits, c.readonly_commits),
                (&s.readonly_aborts, c.readonly_aborts),
                (&s.clock_cas_failures, c.clock_cas_failures),
                (&s.clock_bump_retries, c.clock_bump_retries),
                (&s.mv_read_hits, c.mv_read_hits),
                (&s.mv_chain_misses, c.mv_chain_misses),
                (&s.snapshot_decomposed_opens, c.snapshot_decomposed_opens),
            ] {
                if n != 0 {
                    cell.fetch_add(n, Ordering::Relaxed);
                }
            }
        });
    }
}

impl GcParticipant for Stm {
    fn trace_roots(&self, mark: &mut dyn FnMut(omt_heap::ObjRef)) {
        self.registry.trace_roots(mark);
        self.mv.trace_roots(mark);
    }

    fn after_sweep(&self, is_live: &dyn Fn(omt_heap::ObjRef) -> bool) {
        self.registry.after_sweep(is_live);
        // Trim version chains at quiescence: every entry whose validity
        // interval ended at or before the oldest active snapshot can
        // never be served again. With no reader in flight the commit
        // clock itself is the floor — anything retired so far is
        // already unreachable by any *future* snapshot (which starts at
        // the clock or later and is served in place).
        let floor = self.registry.min_active_read_ver().unwrap_or_else(|| self.commit_clock());
        let trimmed = self.mv.trim(is_live, floor);
        self.stats.add(|c| &c.mv_trims, trimmed);
    }
}
