//! Transactions: the decomposed barrier interface.
//!
//! A [`Transaction`] exposes exactly the operations the paper's compiler
//! emits after decomposition:
//!
//! | paper operation   | method                                        |
//! |-------------------|-----------------------------------------------|
//! | `OpenForRead`     | [`Transaction::open_for_read`]                |
//! | `OpenForUpdate`   | [`Transaction::open_for_update`]              |
//! | `LogForUndo`      | [`Transaction::log_for_undo`]                 |
//! | direct data access| [`Transaction::load_direct`] / [`Transaction::store_direct`] |
//!
//! The *monolithic* barriers every unoptimized access uses are the
//! compositions [`Transaction::read`] and [`Transaction::write`]. The
//! optimizer's job (crate `omt-opt`) is to replace compositions with the
//! minimal set of decomposed operations.
//!
//! # Direct update and zombies
//!
//! Updates happen in place; reads are optimistic and validated at
//! commit. Between a conflicting commit and this transaction's own
//! validation, reads can observe *inconsistent* states (a "zombie"
//! transaction). The paper relies on managed-runtime sandboxing; here,
//! [`StmConfig::validate_every`](crate::StmConfig) re-validates
//! periodically and the `omt-vm` interpreter re-validates at loop
//! back-edges. Native users must tolerate torn-but-typed values (all
//! heap data is tagged [`Word`]s, so this is safe, never UB).

use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;

use omt_heap::{ClassId, ObjRef, Word};

use omt_util::sched::{yield_point, yield_point_keyed};

use crate::cm::{CmDecision, TxCtl};
use crate::error::{ConflictKind, TxError, TxResult};
use crate::failpoint::{sites, FailAction};
use crate::filter::FilterKind;
use crate::logs::{ReadEntry, Savepoint, TxLogs, UndoEntry, UpdateEntry};
use crate::mv::MvEntry;
use crate::pool::{self, TxCtx};
use crate::schedpt;
use crate::stm::Stm;
use crate::word::{owned_bits, version_bits, StmWord, TxToken, MAX_UPDATE_ENTRIES};

/// Per-transaction operation counters, flushed into the global
/// [`crate::StmStats`] when the transaction finishes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TxCounters {
    /// `OpenForRead` executions.
    pub open_read_ops: u64,
    /// `OpenForUpdate` executions.
    pub open_update_ops: u64,
    /// `LogForUndo` executions.
    pub log_undo_ops: u64,
    /// Read-log entries appended.
    pub read_entries: u64,
    /// Read-log appends suppressed by the runtime filter.
    pub read_filtered: u64,
    /// Undo-log entries appended.
    pub undo_entries: u64,
    /// Undo-log appends suppressed by the runtime filter.
    pub undo_filtered: u64,
    /// Successful ownership acquisitions.
    pub acquires: u64,
    /// Validations run (including the commit-time one).
    pub validations: u64,
    /// Mid-transaction validations.
    pub mid_validations: u64,
    /// Validations that returned through the commit-sequence-clock fast
    /// path without scanning any read-log entry.
    pub validation_fast_path: u64,
    /// Read-log entries scanned by validations (full and partial
    /// passes; the fast path scans none).
    pub validation_entries_scanned: u64,
    /// Contention-manager spins.
    pub cm_spins: u64,
    /// Doom flags this transaction set on *other* transactions
    /// (priority contention management).
    pub dooms: u64,
    /// Snapshot-mode reads satisfied by the O(1) `version <= read_ver`
    /// check.
    pub snapshot_read_hits: u64,
    /// Successful timestamp extensions (a too-new version advanced
    /// `read_ver` via revalidation instead of aborting).
    pub ts_extensions: u64,
    /// Timestamp extensions that found a genuine conflict and aborted.
    pub extension_failures: u64,
    /// 1 if this transaction committed having made no updates.
    pub readonly_commits: u64,
    /// 1 if this transaction aborted having made no updates.
    pub readonly_aborts: u64,
    /// Commit-clock CAS attempts that lost their race (stamp claims
    /// and burns; `PassOnFail` adopts the winner's value instead of
    /// retrying, so this counts contention events, not extra spins).
    pub clock_cas_failures: u64,
    /// Per-stripe stamp-reservation CAS retries (`Deferred` mode;
    /// non-zero only when threads share a home stripe).
    pub clock_bump_retries: u64,
    /// Snapshot-mode reads served from a version chain
    /// (`mv_depth > 0`): a too-new version was resolved to the retired
    /// value current at `read_ver` instead of a timestamp extension.
    pub mv_read_hits: u64,
    /// Version-chain walks that found no entry covering `read_ver` and
    /// fell back to the timestamp-extension path.
    pub mv_chain_misses: u64,
    /// Decomposed `OpenForRead` executions under `snapshot_reads` (the
    /// paired separate load cannot be sandwich-verified, so each one
    /// costs the transaction its abort-free `snapshot_clean` path).
    pub snapshot_decomposed_opens: u64,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum TxState {
    Active,
    Finished,
}

/// Transaction-lifetime handler list (boosting support, DESIGN.md
/// §4.12). Handlers are opaque one-shot closures; `Debug` reports only
/// the count.
#[derive(Default)]
pub(crate) struct Handlers(pub(crate) Vec<Box<dyn FnOnce() + 'static>>);

impl std::fmt::Debug for Handlers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handlers({})", self.0.len())
    }
}

impl Handlers {
    /// Runs `handlers`, each under its own `catch_unwind`, so one
    /// panicking handler cannot starve the rest (a lock-release handler
    /// skipped here would wedge every future contender). The first
    /// captured panic resumes after all handlers ran — unless the
    /// thread is already unwinding (drop-during-panic), where a second
    /// panic would abort the process; there the payload is dropped.
    fn run(handlers: impl Iterator<Item = Box<dyn FnOnce() + 'static>>) {
        let mut first_panic = None;
        for h in handlers {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(h)) {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// An in-flight transaction. Obtained from [`Stm::begin`].
///
/// Dropping an unfinished transaction aborts it (rolling back all
/// in-place updates and releasing ownership), so early returns and
/// panics cannot leak ownership or torn state.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use omt_heap::{Heap, ClassDesc, Word};
/// use omt_stm::Stm;
///
/// let heap = Arc::new(Heap::new());
/// let class = heap.define_class(ClassDesc::with_var_fields("Acct", &["bal"]));
/// let acct = heap.alloc(class)?;
/// let stm = Stm::new(heap);
///
/// let mut tx = stm.begin();
/// let bal = tx.read(acct, 0)?.as_scalar().unwrap();
/// tx.write(acct, 0, Word::from_scalar(bal + 10))?;
/// tx.commit()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Transaction<'stm> {
    stm: &'stm Stm,
    token: TxToken,
    epoch: u64,
    /// Pooled logs, filter, control block and handler lists; taken
    /// from the thread-local context pool at begin and returned in
    /// `Drop` (`ManuallyDrop` lets `Drop` move it out without a
    /// replacement allocation). The handler lists run after a
    /// successful commit's release phase (in order) and after rollback
    /// (in reverse) — boosting registers abstract-lock releases in both
    /// and inverse semantic ops in the abort list. Exactly one list
    /// runs; the other is dropped unrun.
    ctx: ManuallyDrop<TxCtx>,
    counters: TxCounters,
    reads_since_validate: u32,
    /// Commit-sequence clock value under which the validated read-log
    /// prefix (`0..validated_watermark`) is known consistent: snapshot
    /// at begin, refreshed by every successful validation.
    clock_snapshot: u64,
    /// Acquisition-clock value snapshot, taken and refreshed together
    /// with `clock_snapshot`. The fast path additionally requires the
    /// acquisition clock to be quiescent — in a direct-update STM a
    /// foreign acquisition alone (no commit) already permits
    /// observable dirty in-place stores.
    acquire_snapshot: u64,
    /// Acquisition-clock bumps made by *this* transaction since
    /// `acquire_snapshot`. The clock is monotone, so
    /// `acquire_clock == acquire_snapshot + self_acquire_bumps` proves
    /// no *foreign* acquisition happened in between — our own
    /// acquisitions never invalidate our own reads (validation checks
    /// self-owned entries against the update log, and a foreign
    /// publish between our read and our acquisition would have bumped
    /// the commit clock).
    self_acquire_bumps: u64,
    /// Length of the read-log prefix covered by `clock_snapshot`.
    /// Entries past the watermark have not been re-checked since they
    /// were appended.
    validated_watermark: usize,
    /// False once any read-log entry observed a foreign owner: the
    /// clock cannot vouch for such an entry (ownership transfers do not
    /// bump it), so validation must fall back to scanning.
    clock_fast_path_ok: bool,
    /// Snapshot mode only: true while every read so far was
    /// sandwich-verified against `read_ver` (`clock_snapshot`) by the
    /// composed [`Transaction::read`]. A read-only transaction that
    /// stays clean commits without any validation — its reads are
    /// already known mutually consistent at `read_ver`. Cleared by the
    /// decomposed [`Transaction::open_for_read`] (the separate
    /// `load_direct` cannot be sandwich-verified) and by the
    /// foreign-owner fallback.
    snapshot_clean: bool,
    /// Exclusive upper bound on timestamp extension, `u64::MAX` until a
    /// read is served from a version chain (`StmConfig::mv_depth`). A
    /// chain hit returns the value current over `[from, until)`; this
    /// transaction is thereafter serialized *before* the commit that
    /// retired it, so `read_ver` must never advance to `until` or past
    /// it — [`Self::validate`] clamps its refreshed snapshot here and
    /// [`Self::open_for_update`] refuses to acquire (a pinned
    /// transaction publishing updates would be a lost update).
    ext_ceiling: u64,
    state: TxState,
}

/// Outcome of resolving one object's header through the snapshot-read
/// protocol (see [`Transaction::read`] in snapshot mode).
enum SnapObserved {
    /// Already open for update by this transaction; reads are subsumed.
    SelfOwned,
    /// Quiescent at a version covered by `read_ver` (raw header bits).
    Covered(u64),
    /// Foreign ownership outlasted the bounded wait; the caller logs
    /// the owned word and proceeds optimistically (legacy semantics —
    /// the entry cannot pass validation, so commit decides).
    Fallback(u64),
    /// The current version is newer than `read_ver` but the field's
    /// version chain (`StmConfig::mv_depth`) held the value current at
    /// `read_ver`: the read is served without extension or abort.
    /// Chain entries are immutable, so the value needs no seqlock
    /// sandwich, no read-log entry, and no validation; the resolver
    /// has already folded the entry's `until` into `ext_ceiling`.
    /// Only produced when the resolver was given a field (the composed
    /// read); the decomposed open has no field to look up.
    Chain(Word),
}

impl<'stm> Transaction<'stm> {
    /// Starts the transaction `ctx` was registered for under `token`.
    pub(crate) fn new(stm: &'stm Stm, token: TxToken, epoch: u64, ctx: TxCtx) -> Transaction<'stm> {
        let clock_snapshot = stm.commit_clock();
        // Publish the initial read_ver so GC trimming never reclaims a
        // version-chain entry this transaction could still be served.
        ctx.ctl.read_ver.store(clock_snapshot, Ordering::Release);
        Transaction {
            stm,
            token,
            epoch,
            ctx: ManuallyDrop::new(ctx),
            counters: TxCounters::default(),
            reads_since_validate: 0,
            clock_snapshot,
            acquire_snapshot: stm.acquire_clock(),
            self_acquire_bumps: 0,
            validated_watermark: 0,
            clock_fast_path_ok: true,
            snapshot_clean: true,
            ext_ceiling: u64::MAX,
            state: TxState::Active,
        }
    }

    /// Registers a handler to run exactly once if this transaction
    /// commits, after the release phase (so the transaction's updates
    /// are already published when the handler observes the heap).
    /// Handlers run in registration order. If the transaction aborts
    /// instead, the handler is dropped unrun. Transactional boosting
    /// (DESIGN.md §4.12) uses this to release abstract locks.
    ///
    /// Handlers run on the committing thread and may begin fresh
    /// (manual) transactions on the same [`Stm`]; they must not touch
    /// this transaction (it has already finished).
    ///
    /// # Panics
    ///
    /// Panics if the transaction already finished.
    pub fn on_commit(&mut self, f: impl FnOnce() + 'static) {
        self.assert_active();
        self.ctx.commit_handlers.0.push(Box::new(f));
    }

    /// Registers a handler to run exactly once if this transaction
    /// aborts, after rollback has restored the heap and released
    /// word-level ownership. Handlers run in **reverse** registration
    /// order: boosting registers each abstract-lock release *before*
    /// the semantic ops it guards, so in reverse the inverse ops run
    /// while the lock is still held and the release comes last — no
    /// observer can see un-undone state. If the transaction commits,
    /// the handler is dropped unrun. A `Kill` failpoint (simulated
    /// thread death) also runs abort handlers — see [`Self::kill`].
    ///
    /// # Panics
    ///
    /// Panics if the transaction already finished.
    pub fn on_abort(&mut self, f: impl FnOnce() + 'static) {
        self.assert_active();
        self.ctx.abort_handlers.0.push(Box::new(f));
    }

    /// This transaction's token (unique among concurrent transactions).
    pub fn token(&self) -> TxToken {
        self.token
    }

    /// Shared control block (priority, karma, doom flag).
    pub(crate) fn ctl(&self) -> &TxCtl {
        &self.ctx.ctl
    }

    /// The owning [`Stm`] (for in-crate layers like boosting that need
    /// the registry, contention manager, and config of the transaction
    /// they extend).
    pub(crate) fn stm(&self) -> &Stm {
        self.stm
    }

    /// True if another transaction's contention manager doomed this
    /// one; the next open or validate will return
    /// [`TxError::DOOMED`].
    pub fn is_doomed(&self) -> bool {
        self.ctx.ctl.is_doomed()
    }

    /// Returns [`TxError::DOOMED`] once a priority contention manager
    /// has doomed this transaction.
    fn check_doomed(&self) -> TxResult<()> {
        if self.ctx.ctl.is_doomed() {
            Err(TxError::DOOMED)
        } else {
            Ok(())
        }
    }

    /// Performs a failpoint action, if `site` is armed and fires.
    ///
    /// `Delay` spins then continues; `Abort` surfaces as an explicit
    /// conflict; `Kill` simulates thread death (logs parked, ownership
    /// left in place) and surfaces as `DOOMED` so retry loops stop
    /// using this transaction.
    fn hit_failpoint(&mut self, site: &'static str) -> TxResult<()> {
        let Some(action) = self.stm.failpoints().check(site) else {
            return Ok(());
        };
        self.stm.note_failpoint_fire();
        match action {
            FailAction::Delay(n) => {
                for _ in 0..n {
                    std::hint::spin_loop();
                }
                Ok(())
            }
            FailAction::Abort => Err(TxError::EXPLICIT),
            FailAction::Kill => {
                self.kill();
                Err(TxError::DOOMED)
            }
        }
    }

    /// Simulates the owning thread dying right now: the transaction
    /// stops, its logs are parked in the registry's orphan pool, and
    /// every object it owns stays owned until a concurrent transaction
    /// runs recovery.
    fn kill(&mut self) {
        self.state = TxState::Finished;
        yield_point(schedpt::KILL_PRE_PARK);
        // Kills are rare (fault injection only), so the replacement
        // allocation off the pooled fast path is fine.
        let logs = std::mem::replace(&mut self.ctx.logs, Box::new(TxLogs::new()));
        self.stm.registry().park_orphan(self.token, logs);
        // Publish the death only after the logs are recoverable.
        self.ctx.ctl.killed.store(true, Ordering::Release);
        self.stm.flush_outcome(Outcome::Killed, &self.counters);
        // Semantic (boosting) state cannot be parked: abort handlers
        // are opaque closures, so no recovering thread could replay
        // them. Run them here instead — modeling a boosted runtime
        // whose semantic undo executes during recovery — in the same
        // reverse order as rollback, so inverse ops still run under
        // their abstract locks. Word-level recovery of the parked logs
        // proceeds independently (the boosted discipline keeps the
        // outer transaction off the map's words entirely).
        self.ctx.commit_handlers.0.clear();
        Handlers::run(self.ctx.abort_handlers.0.drain(..).rev());
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> TxCounters {
        self.counters
    }

    /// Whether this transaction runs under the snapshot-read protocol
    /// ([`StmConfig::snapshot_reads`](crate::StmConfig)). Callers that
    /// decompose barriers (the VM backend) must route loads through the
    /// composed [`Self::read`] when this is set: a bare data load after
    /// a decomposed open has no seqlock sandwich and no version-chain
    /// service, so it would silently surrender the snapshot guarantees.
    pub fn snapshot_reads(&self) -> bool {
        self.stm.config().snapshot_reads
    }

    /// Number of read-log entries.
    pub fn read_set_size(&self) -> usize {
        self.ctx.logs.read.len()
    }

    /// Number of update-log entries (owned objects).
    pub fn update_set_size(&self) -> usize {
        self.ctx.logs.update.len()
    }

    /// Number of undo-log entries.
    pub fn undo_log_size(&self) -> usize {
        self.ctx.logs.undo.len()
    }

    fn assert_active(&self) {
        assert!(self.state == TxState::Active, "transaction already finished");
    }

    /// `OpenForRead`: make `obj` readable by this transaction.
    ///
    /// Logs the object's STM word for commit-time validation. Reading an
    /// object currently owned by *another* transaction is permitted
    /// (optimism) — validation will abort this transaction if that
    /// matters.
    ///
    /// With [`StmConfig::snapshot_reads`](crate::StmConfig) enabled the
    /// header is resolved through the snapshot protocol instead
    /// (DESIGN.md §4.10): the version is accepted in O(1) when covered
    /// by `read_ver`, a too-new version triggers a timestamp extension
    /// rather than poisoning the read set, and foreign owners are
    /// waited out (bounded). The decomposed form still pairs with a
    /// separate [`Self::load_direct`] that cannot be sandwich-verified,
    /// so it clears `snapshot_clean` and keeps the periodic zombie
    /// containment (`validate_every`); the composed [`Self::read`] is
    /// the fully abort-free path.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Conflict`] when incremental validation
    /// (config `validate_every`) — or, under snapshot reads, a failed
    /// timestamp extension — detects this transaction cannot commit, or
    /// [`TxError::DOOMED`] when a priority contention manager aborted
    /// it on another transaction's behalf.
    ///
    /// # Panics
    ///
    /// Panics if the transaction already finished.
    #[inline]
    pub fn open_for_read(&mut self, obj: ObjRef) -> TxResult<()> {
        self.assert_active();
        self.check_doomed()?;
        self.counters.open_read_ops += 1;
        self.ctx.ctl.bump_karma();

        if self.stm.config().snapshot_reads {
            return self.snapshot_open(obj);
        }

        if let Some(filter) = &mut self.ctx.filter {
            if filter.check_and_set(FilterKind::Read, obj.to_raw(), 0) {
                self.counters.read_filtered += 1;
                return self.tick_read_validation();
            }
        }

        yield_point_keyed(schedpt::OPEN_READ_PRE_HEADER, obj.to_raw() as usize);
        let observed = self.stm.heap().header_atomic(obj).load(Ordering::Acquire);
        if let StmWord::Owned { owner, .. } = StmWord::decode(observed) {
            if owner == self.token {
                // Already open for update by us: subsumed, nothing to log.
                return self.tick_read_validation();
            }
            // An entry that observed a foreign owner can never pass
            // validation, and the clocks cannot vouch for it: the
            // acquisition may predate our snapshots, and the owner's
            // later in-place stores move neither clock. The validation
            // fast path is off for the rest of this transaction.
            self.clock_fast_path_ok = false;
        }
        self.ctx.logs.read.push(ReadEntry { obj, observed });
        self.counters.read_entries += 1;
        self.tick_read_validation()
    }

    /// Decomposed snapshot-mode open: resolves the header through the
    /// snapshot protocol, but the separate data load that follows
    /// cannot be sandwich-verified, so the transaction loses the
    /// read-only validation skip (`snapshot_clean`).
    fn snapshot_open(&mut self, obj: ObjRef) -> TxResult<()> {
        self.snapshot_clean = false;
        self.counters.snapshot_decomposed_opens += 1;
        match self.snapshot_resolve(obj, None)? {
            SnapObserved::SelfOwned => {}
            SnapObserved::Covered(observed) => {
                self.counters.snapshot_read_hits += 1;
                self.log_read_entry(obj, observed);
            }
            SnapObserved::Fallback(observed) => self.log_read_entry(obj, observed),
            // Chain service needs a field to key the version store; a
            // decomposed open resolves the header alone, so the resolver
            // was called without one and can never produce this.
            SnapObserved::Chain(_) => unreachable!("chain service requires a field"),
        }
        self.tick_read_validation()
    }

    /// Appends a read-log entry, deduplicated through the runtime
    /// filter (snapshot paths resolve the header *before* consulting
    /// the filter, so the entry to suppress is already in hand).
    fn log_read_entry(&mut self, obj: ObjRef, observed: u64) {
        if let Some(filter) = &mut self.ctx.filter {
            if filter.check_and_set(FilterKind::Read, obj.to_raw(), 0) {
                self.counters.read_filtered += 1;
                return;
            }
        }
        self.ctx.logs.read.push(ReadEntry { obj, observed });
        self.counters.read_entries += 1;
    }

    /// Resolves `obj`'s header under the snapshot-read protocol
    /// (DESIGN.md §4.10). Loops until one of:
    ///
    /// - the word is ours ([`SnapObserved::SelfOwned`]);
    /// - the word is quiescent at a version covered by `read_ver`
    ///   ([`SnapObserved::Covered`]) — the O(1) acceptance test that
    ///   replaces the read-set walk;
    /// - a version *newer* than `read_ver` triggers a **timestamp
    ///   extension**: revalidate the read set against the current
    ///   clocks ([`Self::validate`] refreshes `clock_snapshot`, i.e.
    ///   advances `read_ver` in place) and re-examine. Only a genuinely
    ///   conflicting extension aborts. Extension terminates: under
    ///   snapshot mode every released version is a commit-clock
    ///   timestamp (commits stamp the post-bump value; aborts burn at a
    ///   fresh bump), so after a successful extension the offending
    ///   version is covered — at worst one extension per observed
    ///   foreign commit;
    /// - a foreign owner outlasts the bounded wait
    ///   ([`SnapObserved::Fallback`]): fall back to legacy optimistic
    ///   logging. The waiting itself recovers killed owners and
    ///   re-checks our doom flag, so orphans and doom cycles cannot
    ///   wedge us.
    ///
    /// With `chain_field` set (composed reads only — a decomposed open
    /// has no field to key the version store) and multi-versioning
    /// enabled, a too-new version first tries the object's version
    /// chain: a hit serves the old value at `read_ver` with no
    /// extension and no abort ([`SnapObserved::Chain`]), pinning
    /// `ext_ceiling` so later extensions cannot move `read_ver` past
    /// the served entry's validity interval. Chain service is refused
    /// once the transaction has taken ownership or logged undo (mixed
    /// old-snapshot reads and in-place writes would not be opaque).
    fn snapshot_resolve(
        &mut self,
        obj: ObjRef,
        chain_field: Option<u32>,
    ) -> TxResult<SnapObserved> {
        let mut spins = 0u32;
        loop {
            yield_point_keyed(schedpt::OPEN_READ_PRE_HEADER, obj.to_raw() as usize);
            let observed = self.stm.heap().header_atomic(obj).load(Ordering::Acquire);
            match StmWord::decode(observed) {
                StmWord::Owned { owner, .. } if owner == self.token => {
                    return Ok(SnapObserved::SelfOwned);
                }
                StmWord::Owned { owner, .. } => {
                    self.check_doomed()?;
                    if self.stm.registry().ctl_of(owner).is_some_and(|ctl| ctl.is_killed()) {
                        self.stm.recover_orphan(owner);
                        continue;
                    }
                    if spins >= self.stm.config().doom_wait_spins {
                        // The owner is alive but has sat on the word past
                        // the wait budget. Fall back to the legacy
                        // optimistic path: log the owned word (it can
                        // never pass validation, so commit decides) and
                        // surrender both the clock fast path and the
                        // read-only skip.
                        self.clock_fast_path_ok = false;
                        self.snapshot_clean = false;
                        return Ok(SnapObserved::Fallback(observed));
                    }
                    spins += 1;
                    self.counters.cm_spins += 1;
                    yield_point_keyed(schedpt::READ_OWNED_WAIT, obj.to_raw() as usize);
                    if spins.is_multiple_of(32) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                word @ StmWord::Version(_) => {
                    if word.covered_by(self.clock_snapshot) {
                        return Ok(SnapObserved::Covered(observed));
                    }
                    // Version newer than read_ver: before reaching for a
                    // timestamp extension, try the version chain — a
                    // writer's commit retired the value that *was*
                    // current at read_ver, so a hit serves the read
                    // without moving the snapshot at all. Only pure
                    // readers qualify: once this transaction owns words
                    // or has undo to publish, its own writes must be
                    // ordered after read_ver advances, not behind it.
                    if let Some(field) = chain_field {
                        if self.stm.mv().enabled()
                            && self.ctx.logs.update.is_empty()
                            && self.ctx.logs.undo.is_empty()
                        {
                            if let Some((value, until)) =
                                self.stm.mv().lookup(obj, field, self.clock_snapshot)
                            {
                                self.counters.mv_read_hits += 1;
                                // The entry is valid for read_ver in
                                // [from, until); a later extension past
                                // until-1 would invalidate this read.
                                self.ext_ceiling = self.ext_ceiling.min(until - 1);
                                return Ok(SnapObserved::Chain(value));
                            }
                            self.counters.mv_chain_misses += 1;
                        }
                    }
                    // Pinned below the version we just met: an extension
                    // can never cover it without breaking an earlier
                    // chain-served read, so abort now and retry with a
                    // fresh snapshot.
                    if let StmWord::Version(v) = word {
                        if v > self.ext_ceiling {
                            self.counters.extension_failures += 1;
                            return Err(TxError::INVALID);
                        }
                    }
                    // Version newer than read_ver: extend the timestamp
                    // instead of aborting.
                    if self.stm.clocks().leading_stamps() {
                        // Deferred-mode stamps may lead the shared
                        // clock; raise it to the stamp first, so the
                        // extension's refreshed read_ver actually
                        // covers the version we just met (otherwise
                        // the extension could spin on a stamp the
                        // clock never reaches on its own).
                        yield_point_keyed(schedpt::CLOCK_PRE_RAISE, obj.to_raw() as usize);
                        if let StmWord::Version(v) = word {
                            self.stm.clocks().raise_to(v);
                        }
                    } else if let StmWord::Version(v) = word {
                        // This `Stm`'s own stamps never lead its clock,
                        // but another `Stm` sharing the heap stamps
                        // headers from a clock of its own. Raise ours
                        // to such a version, or no extension would ever
                        // cover it and the read would spin forever.
                        if v > self.stm.commit_clock() {
                            yield_point_keyed(schedpt::CLOCK_PRE_RAISE, obj.to_raw() as usize);
                            self.stm.clocks().raise_to(v);
                        }
                    }
                    yield_point_keyed(schedpt::EXTEND_PRE_VALIDATE, obj.to_raw() as usize);
                    // Test-only regression mode: fast-forward read_ver
                    // *without* revalidating the read set, re-opening
                    // the torn-extension hole the schedule explorer
                    // proves it would catch.
                    #[cfg(test)]
                    if self.stm.test_unsound_extension_skips_revalidate() {
                        self.clock_snapshot = self.stm.commit_clock();
                        continue;
                    }
                    match self.validate() {
                        Ok(()) => {
                            self.counters.ts_extensions += 1;
                            // Loop: the fresh read_ver covers the version
                            // we saw (timestamps never exceed the clock —
                            // Deferred's leading stamps were raised into
                            // it above), though the header may have moved
                            // again.
                        }
                        Err(e) => {
                            self.counters.extension_failures += 1;
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    fn tick_read_validation(&mut self) -> TxResult<()> {
        if let Some(every) = self.stm.config().validate_every {
            self.reads_since_validate += 1;
            if self.reads_since_validate >= every {
                self.reads_since_validate = 0;
                self.counters.mid_validations += 1;
                return self.validate();
            }
        }
        Ok(())
    }

    /// `OpenForUpdate`: acquire exclusive ownership of `obj`.
    ///
    /// Idempotent for objects this transaction already owns. On success
    /// the object's STM word points at this transaction's update log and
    /// in-place stores become permissible (after [`Self::log_for_undo`]).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::BUSY`] if another transaction owns the object
    /// and the contention policy gives up, or [`TxError::DOOMED`] if a
    /// priority contention manager aborted this transaction on another
    /// transaction's behalf (including mid-wait, which is what keeps
    /// doom cycles impossible).
    ///
    /// # Panics
    ///
    /// Panics if the transaction already finished, or if a single
    /// transaction opens more than 2³¹ objects for update.
    #[inline]
    pub fn open_for_update(&mut self, obj: ObjRef) -> TxResult<()> {
        self.assert_active();
        self.check_doomed()?;
        // Chain-pinned transactions are read-only: a write published at
        // a post-ceiling stamp against a pre-ceiling snapshot would be a
        // lost update (the chain served state some later commit already
        // replaced). Abort; the retry begins with a fresh read_ver and
        // an unpinned ceiling.
        if self.ext_ceiling != u64::MAX {
            return Err(TxError::INVALID);
        }
        self.counters.open_update_ops += 1;
        self.ctx.ctl.bump_karma();

        let header = self.stm.heap().header_atomic(obj);
        let mut spins = 0u32;
        // First iteration is the version-match fast path: one load, one
        // CAS, one log push. Contention falls into the `#[cold]`
        // arbitration routine and comes back around the loop.
        loop {
            yield_point_keyed(schedpt::OPEN_UPDATE_PRE_HEADER, obj.to_raw() as usize);
            let current = header.load(Ordering::Acquire);
            match StmWord::decode(current) {
                StmWord::Owned { owner, .. } if owner == self.token => return Ok(()),
                StmWord::Owned { owner, .. } => {
                    self.contend(obj, owner, &mut spins)?;
                }
                StmWord::Version(v) => {
                    let entry = self.ctx.logs.update.len();
                    assert!(
                        entry <= MAX_UPDATE_ENTRIES as usize,
                        "update log exceeds {MAX_UPDATE_ENTRIES} entries"
                    );
                    let owned = owned_bits(self.token, entry as u32);
                    if header
                        .compare_exchange(current, owned, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        // Announce the acquisition before any in-place
                        // store becomes possible (stores require this
                        // call to return first), so no concurrent
                        // validation can fast-path across our dirty
                        // data.
                        yield_point(schedpt::OPEN_UPDATE_PRE_ACQ_BUMP);
                        if self.stm.config().commit_sequence {
                            self.stm.bump_acquire_clock();
                            self.self_acquire_bumps += 1;
                        } else {
                            // The clock bump carries a trailing Release
                            // fence that orders the CAS before our
                            // upcoming (relaxed) in-place stores as seen
                            // by a validator's Acquire fence. With the
                            // clock knob off that ordering must still
                            // hold — a validator that read one of our
                            // dirty stores must not then load the
                            // header as still-unowned.
                            std::sync::atomic::fence(Ordering::Release);
                        }
                        self.ctx.logs.update.push(UpdateEntry {
                            obj,
                            original_version: v,
                            dead: false,
                            dirtied: false,
                        });
                        self.counters.acquires += 1;
                        self.hit_failpoint(sites::OPEN_UPDATE_AFTER_ACQUIRE)?;
                        return Ok(());
                    }
                    // Lost a race; retry (the new word may be ours never —
                    // we didn't install it — so loop to re-decode).
                }
            }
        }
    }

    /// One round of contention handling against `owner`, which was
    /// observed owning `obj`. Returns `Ok(())` to make the caller
    /// re-examine the header (the conflict may have evaporated), or an
    /// error to abort this transaction.
    #[cold]
    fn contend(&mut self, obj: ObjRef, owner: TxToken, spins: &mut u32) -> TxResult<()> {
        // A winner that dooms us mid-wait must be able to proceed, so
        // re-check our own doom flag on every round.
        self.check_doomed()?;

        let Some(other) = self.stm.registry().ctl_of(owner) else {
            // The owner finished between our header load and the
            // registry lookup; the header is released (or re-owned) by
            // now — re-examine it.
            yield_point_keyed(schedpt::CONTEND_WAIT, obj.to_raw() as usize);
            std::hint::spin_loop();
            return Ok(());
        };
        if other.is_killed() {
            // The owner's thread died holding the object: recover the
            // orphan (replay its undo log, release its ownership), then
            // re-examine the header.
            self.stm.recover_orphan(owner);
            return Ok(());
        }

        match self.stm.config().cm.arbitrate(&self.ctx.ctl, &other, *spins) {
            CmDecision::Wait => {
                *spins += 1;
                self.counters.cm_spins += 1;
                yield_point_keyed(schedpt::CONTEND_WAIT, obj.to_raw() as usize);
                std::hint::spin_loop();
                Ok(())
            }
            CmDecision::AbortSelf => Err(TxError::BUSY),
            CmDecision::AbortOther => {
                if !other.doomed.swap(true, Ordering::AcqRel) {
                    self.counters.dooms += 1;
                }
                // The victim only notices at its next open or validate;
                // wait for it to release, bounded so a descheduled (or
                // compute-bound) victim cannot wedge us.
                let header = self.stm.heap().header_atomic(obj);
                for _ in 0..self.stm.config().doom_wait_spins {
                    match StmWord::decode(header.load(Ordering::Acquire)) {
                        StmWord::Owned { owner: now, .. } if now == owner => {
                            if other.is_killed() {
                                self.stm.recover_orphan(owner);
                                return Ok(());
                            }
                            self.counters.cm_spins += 1;
                            yield_point_keyed(schedpt::CONTEND_WAIT, obj.to_raw() as usize);
                            std::hint::spin_loop();
                        }
                        _ => return Ok(()),
                    }
                }
                Err(TxError::BUSY)
            }
        }
    }

    /// `LogForUndo`: record the current value of `(obj, field)` so abort
    /// can restore it.
    ///
    /// Must be called (at least once per field) before
    /// [`Self::store_direct`] on an object this transaction owns; the
    /// compiler or the composed [`Self::write`] barrier guarantees this.
    ///
    /// # Panics
    ///
    /// Panics if the transaction already finished. In debug builds,
    /// panics if the object is not owned by this transaction.
    #[inline]
    pub fn log_for_undo(&mut self, obj: ObjRef, field: usize) {
        self.assert_active();
        self.counters.log_undo_ops += 1;
        debug_assert!(
            matches!(
                StmWord::decode(self.stm.heap().header_atomic(obj).load(Ordering::Relaxed)),
                StmWord::Owned { owner, .. } if owner == self.token
            ),
            "log_for_undo on object not owned by this transaction"
        );

        if let Some(filter) = &mut self.ctx.filter {
            if filter.check_and_set(FilterKind::Undo, obj.to_raw(), field as u32) {
                self.counters.undo_filtered += 1;
                return;
            }
        }
        // The object is about to be stored to in place: its update
        // entry must release with a *bumped* version even on abort, or a
        // concurrent optimistic reader could validate against the
        // restored header after having loaded our uncommitted value
        // (see `rollback`). The owned header points at the entry.
        if let StmWord::Owned { owner, entry } =
            StmWord::decode(self.stm.heap().header_atomic(obj).load(Ordering::Relaxed))
        {
            if owner == self.token {
                if let Some(e) = self.ctx.logs.update.get_mut(entry as usize) {
                    e.dirtied = true;
                }
            }
        }
        let old_bits = self.stm.heap().field_atomic(obj, field).load(Ordering::Relaxed);
        self.ctx.logs.undo.push(UndoEntry { obj, field: field as u32, old_bits });
        self.counters.undo_entries += 1;
    }

    /// Direct data read, without any barrier.
    ///
    /// Sound only after [`Self::open_for_read`] or
    /// [`Self::open_for_update`] on `obj` in this transaction (the
    /// compiler's obligation).
    pub fn load_direct(&self, obj: ObjRef, field: usize) -> Word {
        self.stm.heap().load(obj, field)
    }

    /// Direct data store, without any barrier.
    ///
    /// Sound only after [`Self::open_for_update`] and
    /// [`Self::log_for_undo`] for `(obj, field)` (the compiler's
    /// obligation).
    pub fn store_direct(&self, obj: ObjRef, field: usize, value: Word) {
        self.stm.heap().store(obj, field, value);
    }

    /// Monolithic read barrier: `OpenForRead` + direct load.
    ///
    /// With [`StmConfig::snapshot_reads`](crate::StmConfig) enabled this
    /// is the fully sandwich-verified path: the value returned is known
    /// consistent at `read_ver` the moment it is read, so a transaction
    /// built purely from composed reads commits with *no* validation at
    /// all and can only abort on a genuinely conflicting timestamp
    /// extension (never from validation races) — see DESIGN.md §4.10.
    ///
    /// # Errors
    ///
    /// See [`Self::open_for_read`].
    #[inline]
    pub fn read(&mut self, obj: ObjRef, field: usize) -> TxResult<Word> {
        if self.stm.config().snapshot_reads {
            return self.snapshot_read(obj, field);
        }
        self.open_for_read(obj)?;
        // The window between logging the header and loading the data is
        // where a foreign owner's in-place store can become the value
        // this transaction computes with; validation must catch that.
        yield_point_keyed(schedpt::READ_PRE_LOAD, obj.to_raw() as usize);
        Ok(self.load_direct(obj, field))
    }

    /// Composed snapshot-mode read: resolve the header, load the data,
    /// then re-check the header (a seqlock sandwich). A read that
    /// passes the sandwich is consistent at `read_ver`, so it is logged
    /// only *after* verifying and never needs the periodic zombie
    /// containment (`validate_every`) — a sandwiched read cannot be a
    /// zombie.
    fn snapshot_read(&mut self, obj: ObjRef, field: usize) -> TxResult<Word> {
        self.assert_active();
        self.check_doomed()?;
        self.counters.open_read_ops += 1;
        self.ctx.ctl.bump_karma();
        loop {
            match self.snapshot_resolve(obj, Some(field as u32))? {
                SnapObserved::SelfOwned => {
                    yield_point_keyed(schedpt::READ_PRE_LOAD, obj.to_raw() as usize);
                    return Ok(self.load_direct(obj, field));
                }
                SnapObserved::Chain(value) => {
                    // Served from an immutable retired version: nothing
                    // to sandwich, log, or validate — the resolver
                    // already pinned `ext_ceiling` to keep read_ver
                    // inside the entry's validity interval, and
                    // `snapshot_clean` stays intact (the read is
                    // consistent at read_ver by construction).
                    return Ok(value);
                }
                SnapObserved::Fallback(observed) => {
                    // Legacy optimistic read of a stuck foreign-owned
                    // word: log it (`snapshot_resolve` already cleared
                    // `snapshot_clean`, so commit-time validation — which
                    // always rejects owned entries — decides) and return
                    // the possibly-dirty value, exactly as the
                    // non-snapshot path would.
                    self.log_read_entry(obj, observed);
                    yield_point_keyed(schedpt::READ_PRE_LOAD, obj.to_raw() as usize);
                    return Ok(self.load_direct(obj, field));
                }
                SnapObserved::Covered(h1) => {
                    yield_point_keyed(schedpt::READ_PRE_LOAD, obj.to_raw() as usize);
                    let value = self.load_direct(obj, field);
                    // Close the sandwich. The Acquire fence upgrades the
                    // (relaxed) data load: it pairs with the Release
                    // fence every acquirer issues after its winning CAS
                    // (before any in-place store is possible), so if the
                    // data load observed a foreign store — dirty or
                    // committed — the header re-load below observes at
                    // least the foreign CAS and cannot equal `h1`.
                    std::sync::atomic::fence(Ordering::Acquire);
                    yield_point_keyed(schedpt::READ_PRE_RECHECK, obj.to_raw() as usize);
                    let h2 = self.stm.heap().header_atomic(obj).load(Ordering::Relaxed);
                    // Test-only regression mode: accept the first header
                    // unconditionally, re-opening the torn-read hole the
                    // schedule explorer proves the re-check closes.
                    #[cfg(test)]
                    let h2 = if self.stm.test_unsound_snapshot_skip_recheck() { h1 } else { h2 };
                    if h2 == h1 {
                        // ABA-free: h1 is a version word, and a version,
                        // once replaced, only recurs after a clean abort
                        // (data untouched — harmless) — dirty aborts and
                        // commits always move to a fresh stamp.
                        self.counters.snapshot_read_hits += 1;
                        self.log_read_entry(obj, h1);
                        return Ok(value);
                    }
                    // A writer moved the header mid-read; resolve afresh.
                }
            }
        }
    }

    /// Monolithic write barrier: `OpenForUpdate` + `LogForUndo` + direct
    /// store.
    ///
    /// # Errors
    ///
    /// See [`Self::open_for_update`].
    #[inline]
    pub fn write(&mut self, obj: ObjRef, field: usize, value: Word) -> TxResult<()> {
        self.open_for_update(obj)?;
        self.log_for_undo(obj, field);
        yield_point_keyed(schedpt::WRITE_PRE_STORE, obj.to_raw() as usize);
        self.store_direct(obj, field, value);
        Ok(())
    }

    /// Allocates a new object inside the transaction.
    ///
    /// The object starts at version 0 and is recorded in the allocation
    /// log (it becomes garbage if the transaction aborts). Accesses to
    /// it still need barriers *unless* the compiler proves it
    /// transaction-local (optimization level O4) — exactly the paper's
    /// division of labour.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::HeapFull`] if allocation fails.
    pub fn alloc(&mut self, class: ClassId) -> TxResult<ObjRef> {
        self.assert_active();
        let obj = self.stm.heap().alloc(class)?;
        self.ctx.logs.allocs.push(obj);
        Ok(obj)
    }

    /// Validates the read set against the current heap state.
    ///
    /// With [`StmConfig::commit_sequence`](crate::StmConfig) enabled
    /// (the default), validation first consults two global clocks: the
    /// commit-sequence clock (bumped before any update is published)
    /// and the acquisition clock (bumped before any in-place store is
    /// possible). A transaction whose snapshots of both are unchanged
    /// — modulo its own acquisitions — and whose read log never
    /// observed a foreign owner knows every entry is still consistent
    /// and returns without touching the read log at all. This makes
    /// read-only commits O(1) and repeated re-validation nearly free
    /// under low write traffic. When either clock has moved, one full
    /// pass runs and refreshes the snapshots and the validated
    /// watermark; the doom flag and the renumbering epoch are always
    /// checked *before* the clock shortcut, so dooming and
    /// version-overflow epoch bumps can never be skipped.
    ///
    /// # Errors
    ///
    /// [`TxError::INVALID`] if a read object changed;
    /// [`TxError::EPOCH`] if the renumbering epoch advanced;
    /// [`TxError::DOOMED`] if a contention manager aborted this
    /// transaction on another's behalf.
    pub fn validate(&mut self) -> TxResult<()> {
        self.hit_failpoint(sites::VALIDATE_ENTRY)?;
        self.check_doomed()?;
        self.counters.validations += 1;
        // Order all preceding data loads before the validation loads
        // (seqlock-style LoadLoad fence). Also orders them before the
        // commit-clock load below.
        std::sync::atomic::fence(Ordering::Acquire);

        if self.stm.epoch() != self.epoch {
            return Err(TxError::EPOCH);
        }

        // Commit-sequence fast path. Soundness needs *two* quiescent
        // clocks in a direct-update STM:
        //
        // - Commit clock: bumped before the first header release-store
        //   of every update-publishing commit, so observing any
        //   published header implies observing the bump
        //   (release/acquire on the header, program order in the
        //   writer). Unchanged ⇒ no update this transaction could have
        //   seen was published since the snapshot.
        // - Acquisition clock: bumped after every successful ownership
        //   CAS, before the owner can issue an in-place store, with a
        //   release fence pairing with the acquire fence above.
        //   Observing an owner's dirty (uncommitted) store therefore
        //   implies observing the bump. Foreign-quiescent (the monotone
        //   clock advanced by exactly our own acquisitions) ⇒ no entry
        //   that observed a version word has been acquired — let alone
        //   dirtied — since the snapshot.
        //
        // Under the striped clock modes (DESIGN.md §4.11) the
        // acquisition "clock" is a vector of per-stripe monotone
        // counters and `acquire_clock()` is their sum. The argument is
        // unchanged: each stripe is monotone, so the sum is monotone
        // and can neither miss nor double-count a bump that completed
        // before the fence above; equality with `snapshot + self_bumps`
        // therefore still proves zero foreign acquisitions, and the
        // per-bump Release fence pairs with our Acquire fence exactly
        // as in the single-word case, whichever stripe the bump landed
        // in. The commit clock may lag claimed stamps in Deferred mode;
        // that weakens nothing here — the acquisition conjunct alone
        // rules out foreign effects on version-word entries, because
        // every publishing writer must first acquire.
        //
        // Entries that observed a foreign owner *at open time* are the
        // remaining case; they cleared `clock_fast_path_ok` when they
        // were appended, because the owner's later stores move neither
        // clock.
        let mut start = 0;
        let mut clock = None;
        if self.stm.config().commit_sequence {
            yield_point(schedpt::VALIDATE_PRE_CLOCKS);
            let now = self.stm.commit_clock();
            let acq_now = self.stm.acquire_clock();
            let acq_quiescent = acq_now == self.acquire_snapshot + self.self_acquire_bumps;
            // Test-only regression mode: re-open the pre-PR-3 hole where
            // the fast path consulted the commit clock alone, so the
            // schedule explorer can prove it catches that class of bug.
            #[cfg(test)]
            let acq_quiescent = acq_quiescent || self.stm.test_unsound_commit_clock_only();
            if now == self.clock_snapshot && acq_quiescent {
                if self.clock_fast_path_ok {
                    self.counters.validation_fast_path += 1;
                    self.validated_watermark = self.ctx.logs.read.len();
                    return Ok(());
                }
                // Clocks unchanged but a foreign owner was observed
                // since the watermark: the covered prefix is still
                // vouched for by the clocks; rescan only the tail
                // (which contains the offending entry and cannot
                // pass).
                start = self.validated_watermark;
            }
            clock = Some((now, acq_now));
        }

        yield_point(schedpt::VALIDATE_PRE_SCAN);
        let mut scanned = 0u64;
        let mut valid = true;
        let mut blocker = None;
        for entry in &self.ctx.logs.read[start..] {
            scanned += 1;
            let current = self.stm.heap().header_atomic(entry.obj).load(Ordering::Acquire);
            valid = match StmWord::decode(entry.observed) {
                StmWord::Version(v) => match StmWord::decode(current) {
                    StmWord::Version(cv) => cv == v,
                    StmWord::Owned { owner, entry: idx } => {
                        owner == self.token
                            && self
                                .ctx
                                .logs
                                .update
                                .get(idx as usize)
                                .is_some_and(|u| u.obj == entry.obj && u.original_version == v)
                    }
                },
                StmWord::Owned { owner, .. } if owner == self.token => current == entry.observed,
                StmWord::Owned { .. } => false,
            };
            if !valid {
                if let StmWord::Owned { owner, .. } = StmWord::decode(current) {
                    if owner != self.token {
                        blocker = Some(owner);
                    }
                }
                break;
            }
        }
        self.counters.validation_entries_scanned += scanned;
        if !valid {
            // If the failing entry is held by a *killed* owner, recover
            // the orphan before aborting. Read-only transactions never
            // call `open_for_update` (the other recovery trigger), so
            // without this an orphan squatting on a cold key would doom
            // every validation of its readers forever — a livelock.
            if let Some(owner) = blocker {
                if self.stm.registry().ctl_of(owner).is_some_and(|ctl| ctl.is_killed()) {
                    self.stm.recover_orphan(owner);
                }
            }
            return Err(TxError::INVALID);
        }
        if let Some((now, acq_now)) = clock {
            // The pass read both clocks *before* scanning: a commit or
            // acquisition that raced with the scan keeps the snapshot
            // behind and forces the next validation back onto the full
            // pass.
            //
            // The ceiling clamp keeps chain-served reads consistent: a
            // chain hit pinned `ext_ceiling` to its entry's last valid
            // read_ver, and the resolver aborts (never extends) on any
            // version past the ceiling, so every logged version entry
            // is ≤ the clamped snapshot — validation success at `now`
            // therefore proves consistency at the clamp too.
            self.clock_snapshot = now.min(self.ext_ceiling);
            self.acquire_snapshot = acq_now;
            self.self_acquire_bumps = 0;
            self.validated_watermark = self.ctx.logs.read.len();
            // Republish read_ver: GC trimming must keep every chain
            // entry this (possibly long-running) reader can still hit.
            self.ctx.ctl.read_ver.store(self.clock_snapshot, Ordering::Release);
        }
        Ok(())
    }

    /// Attempts to commit.
    ///
    /// Validates the read set while still holding ownership of every
    /// updated object, then releases each with an incremented version —
    /// the linearization point. On failure the transaction is rolled
    /// back (undo log replayed, ownership released at the original
    /// versions).
    ///
    /// # Errors
    ///
    /// [`TxError::INVALID`] or [`TxError::EPOCH`] when validation fails;
    /// the transaction is already aborted when the error returns.
    pub fn commit(mut self) -> TxResult<()> {
        self.assert_active();
        if let Err(e) = self.hit_failpoint(sites::COMMIT_BEFORE_VALIDATE) {
            let TxError::Conflict(kind) = e else { unreachable!("failpoints only conflict") };
            self.rollback(kind);
            return Err(e);
        }
        // Snapshot-mode read-only fast path (DESIGN.md §4.10): every
        // read was sandwich-verified consistent at `read_ver`, so the
        // transaction serializes at that timestamp with no validation
        // at all. Doom and the renumbering epoch still win — a doomed
        // transaction must abort for its contender, and renumbering
        // invalidates version observations wholesale.
        let snapshot_readonly = self.stm.config().snapshot_reads
            && self.snapshot_clean
            && self.ctx.logs.update.is_empty()
            && self.ctx.logs.undo.is_empty();
        if snapshot_readonly {
            if let Err(e) = self.check_doomed() {
                let TxError::Conflict(kind) = e else { unreachable!("doom is a conflict") };
                self.rollback(kind);
                return Err(e);
            }
            if self.stm.epoch() != self.epoch {
                self.rollback(ConflictKind::Epoch);
                return Err(TxError::EPOCH);
            }
        } else if let Err(e) = self.validate() {
            let TxError::Conflict(kind) = e else { unreachable!("validate only conflicts") };
            self.rollback(kind);
            return Err(e);
        }
        if let Err(e) = self.hit_failpoint(sites::COMMIT_BEFORE_RELEASE) {
            let TxError::Conflict(kind) = e else { unreachable!("failpoints only conflict") };
            self.rollback(kind);
            return Err(e);
        }

        // Release phase: publish every update with a bumped version.
        // Announce the publish on the commit-sequence clock *first*:
        // any transaction that observes one of the released headers
        // must also observe the bump (and so cannot skip validation
        // across this commit).
        let max_version = self.stm.config().max_version();
        let snapshot = self.stm.config().snapshot_reads;
        let mut publishes = false;
        let mut will_wrap = false;
        for entry in &self.ctx.logs.update {
            if !entry.dead {
                publishes = true;
                will_wrap |= !snapshot && entry.original_version + 1 > max_version;
            }
        }
        let mut stamp = None;
        if self.stm.config().commit_sequence && publishes {
            yield_point(schedpt::COMMIT_PRE_CLOCK_BUMP);
            let claim = self.stm.commit_stamp();
            self.counters.clock_cas_failures += claim.cas_failures;
            self.counters.clock_bump_retries += claim.bump_retries;
            let now = claim.value;
            if snapshot {
                // Timestamp release: every published header carries the
                // post-bump clock value, making `version <= read_ver` a
                // meaningful O(1) test for readers. One bump covers the
                // whole write set (the clock still counts publishing
                // commits exactly once). Config validation pins
                // `version_bits` to the full 62-bit space under
                // snapshot reads, so timestamps cannot wrap.
                assert!(now <= max_version, "commit-clock timestamp exhausted version space");
                stamp = Some(now);
            }
        }
        if will_wrap {
            // Version overflow: advance the global epoch *before* any
            // wrapped header becomes visible, so a concurrent
            // transaction that observes a wrapped version also fails
            // its epoch check (it aborts with EPOCH and restarts)
            // instead of matching the small number against a stale
            // observation. Bumping after the stores would leave a
            // window in which old and new version numbers are
            // indistinguishable.
            self.stm.bump_epoch();
        }
        let mv_on = self.stm.mv().enabled();
        for i in 0..self.ctx.logs.update.len() {
            let entry = self.ctx.logs.update[i];
            if entry.dead {
                continue;
            }
            let mut next = stamp.unwrap_or(entry.original_version + 1);
            if next > max_version {
                next = 0;
            }
            // Retire the displaced version *before* the release store
            // publishes the new one: a reader that meets the new header
            // must find the old (value, interval) already in the chain,
            // or the walk would miss and cost it an extension. The
            // reverse order is the race the chain-walk oracle sweeps.
            if mv_on {
                if let Some(until) = stamp {
                    self.retire_chain(entry.obj, entry.original_version, until);
                }
            }
            yield_point_keyed(schedpt::COMMIT_PRE_RELEASE, entry.obj.to_raw() as usize);
            self.stm.heap().header_atomic(entry.obj).store(version_bits(next), Ordering::Release);
        }
        self.finish(Outcome::Committed);
        // Commit handlers (boosting: abstract-lock releases) run after
        // the updates are published and the transaction has finished,
        // in registration order; the abort list is dropped unrun.
        self.ctx.abort_handlers.0.clear();
        Handlers::run(self.ctx.commit_handlers.0.drain(..));
        Ok(())
    }

    /// Retires `obj`'s displaced field values into the version store
    /// (commit release phase only — rollbacks restore in place and
    /// retire nothing). The *first* undo entry per field in log order
    /// holds the pre-transaction value, i.e. the one that was current
    /// over `[from, until)`; later entries for the same field are
    /// intermediate states no snapshot ever published. Fields the
    /// transaction never dirtied keep their chain history untouched —
    /// their current value is still the one the header's old version
    /// vouched for, and it remains readable in place.
    fn retire_chain(&self, obj: ObjRef, from: u64, until: u64) {
        if from >= until {
            // A freshly allocated object can carry version 0 == no
            // prior committed state worth serving; and a same-stamp
            // republish (impossible today, cheap to guard) would make
            // an empty interval.
            return;
        }
        let mut seen: Vec<u32> = Vec::new();
        for entry in &self.ctx.logs.undo {
            if entry.obj != obj || seen.contains(&entry.field) {
                continue;
            }
            seen.push(entry.field);
            self.stm.mv().retire(obj, entry.field, MvEntry { from, until, bits: entry.old_bits });
        }
    }

    /// Aborts the transaction explicitly, rolling back all updates.
    pub fn abort(mut self) {
        self.assert_active();
        self.rollback(ConflictKind::Explicit);
    }

    pub(crate) fn abort_with(mut self, kind: ConflictKind) {
        // Tolerates an already-finished transaction: the closure's
        // error may have come from a `Kill` failpoint, in which case
        // the logs are parked and there is nothing left to roll back.
        self.rollback(kind);
    }

    fn rollback(&mut self, kind: ConflictKind) {
        if self.state == TxState::Finished {
            return;
        }
        if let Some(action) = self.stm.failpoints().check(sites::ABORT_BEFORE_UNDO) {
            self.stm.note_failpoint_fire();
            match action {
                FailAction::Delay(n) => {
                    for _ in 0..n {
                        std::hint::spin_loop();
                    }
                }
                // Death at the top of rollback orphans the transaction
                // with its in-place updates unrestored — the worst
                // case the recovery path must handle.
                FailAction::Kill => {
                    self.kill();
                    return;
                }
                // Already aborting; injecting an abort is a no-op.
                FailAction::Abort => {}
            }
        }
        // Replay the undo log in reverse: duplicate entries (filter off)
        // then restore progressively older values, ending at the oldest.
        for entry in self.ctx.logs.undo.iter().rev() {
            yield_point_keyed(schedpt::ROLLBACK_PRE_UNDO, entry.obj.to_raw() as usize);
            self.stm
                .heap()
                .field_atomic(entry.obj, entry.field as usize)
                .store(entry.old_bits, Ordering::Relaxed);
        }
        // Release ownership. Dirtied entries release at a *bumped*
        // version even though the data is restored: between our
        // in-place store and this undo, a concurrent optimistic reader
        // may have loaded the uncommitted value, and its commit-time
        // validation compares versions only — releasing at the original
        // version would let that reader validate a value that never
        // committed (the abort-ABA the schedule explorer reproduces;
        // DESIGN.md §4.8). Burning a version on dirty aborts makes such
        // readers fail validation and retry. Clean (acquired but never
        // stored) entries restore the original version: nothing
        // observable happened.
        let max_version = self.stm.config().max_version();
        #[cfg(test)]
        let legacy_restore = self.stm.test_unsound_abort_restores_version();
        #[cfg(not(test))]
        let legacy_restore = false;
        let any_burn = !legacy_restore && self.ctx.logs.update.iter().any(|e| !e.dead && e.dirtied);
        // Under snapshot reads, burned headers carry a fresh commit-clock
        // timestamp: burning at `original + 1` could leave a version
        // *ahead* of the clock, and a reader extending to cover it could
        // never terminate (`read_ver` only reaches what the clock
        // reached). One bump stamps the whole dirty set, drawn before
        // any release store so a reader observing a burned header finds
        // the clock already at (or past) the stamp — or, under
        // Deferred's leading stamps, raises it there before extending.
        let stamp = if any_burn && self.stm.config().snapshot_reads {
            let claim = self.stm.burn_stamp();
            self.counters.clock_cas_failures += claim.cas_failures;
            self.counters.clock_bump_retries += claim.bump_retries;
            Some(claim.value)
        } else {
            None
        };
        let mut will_wrap = false;
        if !legacy_restore {
            for entry in &self.ctx.logs.update {
                will_wrap |= !entry.dead
                    && entry.dirtied
                    && stamp.unwrap_or(entry.original_version + 1) > max_version;
            }
        }
        if will_wrap {
            // As in commit: the epoch must advance before any wrapped
            // header is visible.
            self.stm.bump_epoch();
        }
        for entry in &self.ctx.logs.update {
            if entry.dead {
                continue;
            }
            let released = if entry.dirtied && !legacy_restore {
                let next = stamp.unwrap_or(entry.original_version + 1);
                if next > max_version {
                    0
                } else {
                    next
                }
            } else {
                entry.original_version
            };
            yield_point_keyed(schedpt::ROLLBACK_PRE_RELEASE, entry.obj.to_raw() as usize);
            self.stm
                .heap()
                .header_atomic(entry.obj)
                .store(version_bits(released), Ordering::Release);
        }
        self.finish(Outcome::Aborted(kind));
        // Abort handlers (boosting: inverse semantic ops, then abstract
        // lock releases) run after word-level rollback is complete, in
        // reverse registration order; the commit list is dropped unrun.
        self.ctx.commit_handlers.0.clear();
        Handlers::run(self.ctx.abort_handlers.0.drain(..).rev());
    }

    /// Creates a savepoint for closed-nested rollback.
    ///
    /// Clears the runtime filter: entries logged before the savepoint
    /// must not suppress re-logging afterwards, or a partial rollback
    /// could miss restores.
    pub fn savepoint(&mut self) -> Savepoint {
        self.assert_active();
        if let Some(filter) = &mut self.ctx.filter {
            filter.clear();
        }
        let mut sp = self.ctx.logs.savepoint();
        sp.commit_handler_len = self.ctx.commit_handlers.0.len();
        sp.abort_handler_len = self.ctx.abort_handlers.0.len();
        sp
    }

    /// Rolls back to `sp`: undoes stores, releases ownership acquired,
    /// and forgets reads logged since the savepoint.
    ///
    /// # Panics
    ///
    /// Panics if `sp` does not describe a prefix of the current logs
    /// (e.g. a savepoint from another transaction).
    pub fn rollback_to(&mut self, sp: Savepoint) {
        self.assert_active();
        assert!(
            sp.read_len <= self.ctx.logs.read.len()
                && sp.update_len <= self.ctx.logs.update.len()
                && sp.undo_len <= self.ctx.logs.undo.len()
                && sp.alloc_len <= self.ctx.logs.allocs.len()
                && sp.commit_handler_len <= self.ctx.commit_handlers.0.len()
                && sp.abort_handler_len <= self.ctx.abort_handlers.0.len(),
            "savepoint does not match this transaction's logs"
        );
        for entry in self.ctx.logs.undo[sp.undo_len..].iter().rev() {
            yield_point_keyed(schedpt::ROLLBACK_PRE_UNDO, entry.obj.to_raw() as usize);
            self.stm
                .heap()
                .field_atomic(entry.obj, entry.field as usize)
                .store(entry.old_bits, Ordering::Relaxed);
        }
        self.ctx.logs.undo.truncate(sp.undo_len);
        // Release ownership acquired since the savepoint, burning a
        // version on dirtied entries exactly as `rollback` does (a
        // foreign reader may have seen the rolled-away stores). Our own
        // surviving read entries that observed the original version stay
        // valid — we held exclusive ownership, so the restored state at
        // version v+1 is bit-identical to what version v named — and are
        // patched to the released version so the transaction does not
        // abort against its own savepoint rollback (`or_else` relies on
        // this).
        let max_version = self.stm.config().max_version();
        let any_burn = self.ctx.logs.update[sp.update_len..].iter().any(|e| !e.dead && e.dirtied);
        // Same burn policy as `rollback`: under snapshot reads, dirtied
        // entries release at one fresh commit-clock stamp so burned
        // versions never run ahead of what extension can reach.
        let stamp = if any_burn && self.stm.config().snapshot_reads {
            let claim = self.stm.burn_stamp();
            self.counters.clock_cas_failures += claim.cas_failures;
            self.counters.clock_bump_retries += claim.bump_retries;
            Some(claim.value)
        } else {
            None
        };
        let mut will_wrap = false;
        for entry in &self.ctx.logs.update[sp.update_len..] {
            will_wrap |= !entry.dead
                && entry.dirtied
                && stamp.unwrap_or(entry.original_version + 1) > max_version;
        }
        if will_wrap {
            self.stm.bump_epoch();
        }
        for i in sp.update_len..self.ctx.logs.update.len() {
            let entry = self.ctx.logs.update[i];
            if entry.dead {
                continue;
            }
            let released = if entry.dirtied {
                let next = stamp.unwrap_or(entry.original_version + 1);
                if next > max_version {
                    0
                } else {
                    next
                }
            } else {
                entry.original_version
            };
            yield_point_keyed(schedpt::ROLLBACK_PRE_RELEASE, entry.obj.to_raw() as usize);
            self.stm
                .heap()
                .header_atomic(entry.obj)
                .store(version_bits(released), Ordering::Release);
            if released != entry.original_version {
                let old = StmWord::Version(entry.original_version).encode();
                let new = StmWord::Version(released).encode();
                for read in self.ctx.logs.read[..sp.read_len].iter_mut() {
                    if read.obj == entry.obj && read.observed == old {
                        read.observed = new;
                    }
                }
            }
        }
        self.ctx.logs.update.truncate(sp.update_len);
        self.ctx.logs.read.truncate(sp.read_len);
        self.ctx.logs.allocs.truncate(sp.alloc_len);
        // The validated watermark must not extend past the surviving
        // read log, and a foreign-owner observation may have been
        // rolled away with the truncated tail — recompute eligibility
        // from the entries that remain.
        self.validated_watermark = self.validated_watermark.min(sp.read_len);
        self.clock_fast_path_ok =
            !self.ctx.logs.read.iter().any(|e| e.observed_foreign_owner(self.token));
        // Stale filter claims would be unsound after truncation.
        if let Some(filter) = &mut self.ctx.filter {
            filter.clear();
        }
        // Handlers registered since the savepoint belong to the rolled-
        // away region: its abort handlers run now (reverse order, as in
        // a full rollback — inverse ops fire under their still-held
        // abstract locks, releases last) and its commit handlers are
        // dropped, since the operations they would have sealed no
        // longer happen. Handlers registered before the savepoint
        // survive untouched.
        let aborted: Vec<_> = self.ctx.abort_handlers.0.drain(sp.abort_handler_len..).collect();
        self.ctx.commit_handlers.0.truncate(sp.commit_handler_len);
        Handlers::run(aborted.into_iter().rev());
    }

    /// Runs `f` as a closed-nested transaction: on `Err`, its effects
    /// are rolled back (the outer transaction survives) and the error is
    /// returned for the caller to decide.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error after rolling back the inner effects.
    pub fn nested<R>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'stm>) -> TxResult<R>,
    ) -> TxResult<R> {
        let sp = self.savepoint();
        match f(self) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.rollback_to(sp);
                Err(e)
            }
        }
    }

    /// The `orElse` combinator: tries `first`; if it *explicitly*
    /// retries ([`TxError::EXPLICIT`]), its effects are rolled back and
    /// `second` runs instead. Genuine conflicts propagate (the whole
    /// transaction must restart).
    ///
    /// # Errors
    ///
    /// Whatever the chosen alternative returns; an explicit retry from
    /// `second` propagates to the caller's retry loop.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use omt_heap::{Heap, ClassDesc, Word};
    /// use omt_stm::{Stm, TxError};
    ///
    /// let heap = Arc::new(Heap::new());
    /// let class = heap.define_class(ClassDesc::with_var_fields("Slot", &["v"]));
    /// let a = heap.alloc(class)?;
    /// let b = heap.alloc(class)?;
    /// heap.store(b, 0, Word::from_scalar(7));
    /// let stm = Stm::new(heap);
    ///
    /// // Take from `a` if non-empty, else from `b`.
    /// let taken = stm.atomically(|tx| {
    ///     tx.or_else(
    ///         |tx| {
    ///             let v = tx.read(a, 0)?.as_scalar().unwrap();
    ///             if v == 0 { return Err(TxError::EXPLICIT); }
    ///             tx.write(a, 0, Word::from_scalar(0))?;
    ///             Ok(v)
    ///         },
    ///         |tx| {
    ///             let v = tx.read(b, 0)?.as_scalar().unwrap();
    ///             tx.write(b, 0, Word::from_scalar(0))?;
    ///             Ok(v)
    ///         },
    ///     )
    /// });
    /// assert_eq!(taken, 7);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn or_else<R>(
        &mut self,
        first: impl FnOnce(&mut Transaction<'stm>) -> TxResult<R>,
        second: impl FnOnce(&mut Transaction<'stm>) -> TxResult<R>,
    ) -> TxResult<R> {
        match self.nested(first) {
            Err(TxError::Conflict(ConflictKind::Explicit)) => second(self),
            other => other,
        }
    }

    fn finish(&mut self, outcome: Outcome) {
        // A transaction that made no updates (empty update and undo
        // logs) is read-only; the E5c experiment compares read-only
        // abort rates across snapshot modes, so count in every mode.
        if self.ctx.logs.update.is_empty() && self.ctx.logs.undo.is_empty() {
            match outcome {
                Outcome::Committed => self.counters.readonly_commits = 1,
                Outcome::Aborted(_) => self.counters.readonly_aborts = 1,
                Outcome::Killed => {}
            }
        }
        self.state = TxState::Finished;
        self.stm.registry().unregister(self.token);
        self.stm.flush_outcome(outcome, &self.counters);
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    Committed,
    Aborted(ConflictKind),
    /// A `Kill` failpoint simulated thread death; the transaction
    /// neither committed nor rolled back (recovery does that later).
    Killed,
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.state == TxState::Active {
            self.rollback(ConflictKind::Explicit);
        }
        // Recycle the context through the thread-local pool so the next
        // transaction on this thread starts without allocating.
        // SAFETY: `ctx` is taken exactly once, here, and `self` is not
        // used again after `drop` returns.
        let ctx = unsafe { ManuallyDrop::take(&mut self.ctx) };
        pool::release(ctx);
    }
}
