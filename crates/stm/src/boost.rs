//! Transactional boosting support: striped abstract locks over the
//! word-level STM (DESIGN.md §4.12).
//!
//! The word-granularity STM aborts transactions whose *operations*
//! commute whenever they touch the same words (two inserts of distinct
//! keys both rewriting a hash-bucket head). Boosting (Herlihy &
//! Koskinen; Proust in PAPERS.md) recovers that lost concurrency by
//! detecting conflicts at the *semantic* level: each operation takes an
//! **abstract lock** on the key it touches, holds it two-phase for the
//! enclosing transaction's lifetime, and logs an **inverse operation**
//! that a rollback replays. Physical mutations run as small,
//! immediately-committed inner transactions on the same STM — the
//! word-level machinery still provides atomicity and opacity for each
//! step; the abstract locks provide isolation between the steps.
//!
//! This module supplies the lock table; the transaction-lifetime
//! commit/abort handlers it pairs with live on
//! [`Transaction`](crate::Transaction) (`on_commit` / `on_abort`).
//! A boosted data structure (e.g. `omt-workloads`' `BoostedHashMap`)
//! composes them:
//!
//! 1. [`AbstractLockTable::acquire`] the operation's key. The first
//!    acquisition per key registers a release in **both** handler
//!    lists, so the lock is held exactly until the outer transaction's
//!    fate is sealed (two-phase locking).
//! 2. Run the physical operation as an inner manual transaction
//!    ([`crate::Stm::begin`] — inner transactions must *not* use
//!    `atomically`, whose serial-mode gate the outer attempt already
//!    holds).
//! 3. If the operation had an effect, register its inverse with
//!    `on_abort`. Abort handlers run in reverse registration order, so
//!    inverses replay newest-first *under their still-held locks*, and
//!    each lock's release (registered before the ops it guards) runs
//!    after every inverse for that key.
//!
//! # Deadlock avoidance
//!
//! Two-phase locking can deadlock, so [`AbstractLockTable::acquire`] is
//! a *bounded* try-acquire: contention rounds consult the configured
//! [`ContentionManager`](crate::cm::ContentionManager) exactly like
//! word-level ownership conflicts do (wait / abort self / doom other),
//! every round re-checks our own doom flag, killed holders are routed
//! through orphan recovery, and the total wait is capped by
//! [`StmConfig::doom_wait_spins`](crate::StmConfig). On giving up it
//! returns [`TxError::BUSY`]: the outer retry loop rolls the
//! transaction back — abort handlers release every abstract lock it
//! holds — backs off, and retries. A cycle of waiters therefore always
//! breaks, because no participant waits unboundedly while holding
//! locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use omt_util::sched::yield_point_keyed;

use crate::cm::CmDecision;
use crate::error::{TxError, TxResult};
use crate::schedpt;
use crate::tx::Transaction;
use crate::word::TxToken;

/// A striped table of abstract locks, each one word wide.
///
/// A lock word holds the owning transaction's raw token, or 0 when
/// free ([`crate::Stm::begin`] never issues token 0). Keys map to
/// stripes by masking — deliberately *identity* striping, so a caller
/// that numbers its keys densely and sizes the table at least as large
/// as its live-key range gets genuinely disjoint locks for disjoint
/// keys (the property the E2 boosted probe asserts).
///
/// The table is shared (`Arc`) between the data structure and the
/// release/inverse handlers it registers on transactions.
#[derive(Debug)]
pub struct AbstractLockTable {
    /// One lock word per stripe; length is a power of two.
    words: Box<[AtomicU64]>,
    mask: usize,
    acquires: AtomicU64,
    reentrant_hits: AtomicU64,
    wait_rounds: AtomicU64,
    busy_failures: AtomicU64,
    dooms_issued: AtomicU64,
    orphan_recoveries: AtomicU64,
    releases: AtomicU64,
}

/// Snapshot of an [`AbstractLockTable`]'s counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoostLockStats {
    /// Fresh acquisitions (lock transferred from free to a holder).
    pub acquires: u64,
    /// Acquire calls satisfied because the caller already held the key.
    pub reentrant_hits: u64,
    /// Contention-wait rounds spent on held locks.
    pub wait_rounds: u64,
    /// Acquire calls that gave up ([`TxError::BUSY`] returned).
    pub busy_failures: u64,
    /// Doom flags set on lock holders by priority contention managers.
    pub dooms_issued: u64,
    /// Killed holders routed through word-level orphan recovery.
    pub orphan_recoveries: u64,
    /// Lock releases (commit and abort handlers both count here).
    pub releases: u64,
}

impl AbstractLockTable {
    /// Creates a table with at least `stripes` locks (rounded up to a
    /// power of two, minimum 1).
    pub fn new(stripes: usize) -> Arc<AbstractLockTable> {
        let len = stripes.max(1).next_power_of_two();
        Arc::new(AbstractLockTable {
            words: (0..len).map(|_| AtomicU64::new(0)).collect(),
            mask: len - 1,
            acquires: AtomicU64::new(0),
            reentrant_hits: AtomicU64::new(0),
            wait_rounds: AtomicU64::new(0),
            busy_failures: AtomicU64::new(0),
            dooms_issued: AtomicU64::new(0),
            orphan_recoveries: AtomicU64::new(0),
            releases: AtomicU64::new(0),
        })
    }

    /// Number of lock stripes (a power of two).
    pub fn stripes(&self) -> usize {
        self.words.len()
    }

    /// The stripe a key maps to.
    pub fn slot_of(&self, key: u64) -> usize {
        (key as usize) & self.mask
    }

    /// The token currently holding `key`'s lock, if any (tests and
    /// diagnostics; racy by nature).
    pub fn holder(&self, key: u64) -> Option<TxToken> {
        let raw = self.words[self.slot_of(key)].load(Ordering::Acquire) as u32;
        (raw != 0).then_some(TxToken(raw))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BoostLockStats {
        BoostLockStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            reentrant_hits: self.reentrant_hits.load(Ordering::Relaxed),
            wait_rounds: self.wait_rounds.load(Ordering::Relaxed),
            busy_failures: self.busy_failures.load(Ordering::Relaxed),
            dooms_issued: self.dooms_issued.load(Ordering::Relaxed),
            orphan_recoveries: self.orphan_recoveries.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
        }
    }

    /// Acquires the abstract lock for `key` on behalf of `tx`, holding
    /// it until `tx` commits or aborts (two-phase): the first
    /// acquisition per slot registers the release in both of `tx`'s
    /// handler lists. Re-acquiring a slot this transaction already
    /// holds returns immediately.
    ///
    /// # Errors
    ///
    /// [`TxError::BUSY`] when the configured contention manager decides
    /// to abort self, or the holder outlasts the
    /// [`StmConfig::doom_wait_spins`](crate::StmConfig) wait budget —
    /// the caller's retry loop aborts the transaction (releasing all
    /// its abstract locks) and retries. [`TxError::DOOMED`] when a
    /// contention manager doomed `tx` on another transaction's behalf.
    ///
    /// # Panics
    ///
    /// Panics if `tx` already finished.
    pub fn acquire(self: &Arc<Self>, tx: &mut Transaction<'_>, key: u64) -> TxResult<()> {
        let slot = self.slot_of(key);
        let me = u64::from(tx.token().to_raw());
        // Bound borrowed from the word-level doom-wait: both answer
        // "how long may one transaction stall behind another before
        // restarting instead".
        let budget = tx.stm().config().doom_wait_spins.max(1);
        let mut spins = 0u32;
        let mut waited = 0u32;
        loop {
            if tx.is_doomed() {
                return Err(TxError::DOOMED);
            }
            yield_point_keyed(schedpt::BOOST_PRE_LOCK_CAS, slot);
            let word = &self.words[slot];
            let current = word.load(Ordering::Acquire);
            if current == me {
                self.reentrant_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if current == 0 {
                if word.compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                    self.acquires.fetch_add(1, Ordering::Relaxed);
                    // Two-phase hold: exactly one of these runs (the
                    // other list is dropped unrun), after the
                    // transaction's word-level fate is sealed.
                    let table = Arc::clone(self);
                    tx.on_commit(move || table.release(slot, me));
                    let table = Arc::clone(self);
                    tx.on_abort(move || table.release(slot, me));
                    return Ok(());
                }
                continue; // lost the race; re-examine
            }

            // Held by a foreign transaction: arbitrate exactly as
            // word-level contention does.
            let holder = TxToken(current as u32);
            let Some(other) = tx.stm().registry().ctl_of(holder) else {
                // The holder's transaction finished between our load
                // and the lookup; its release handler clears the word
                // promptly (handlers run right after finish). Count the
                // round against the wait budget and re-examine.
                self.note_wait(budget, &mut waited)?;
                yield_point_keyed(schedpt::BOOST_LOCK_WAIT, slot);
                std::hint::spin_loop();
                continue;
            };
            if other.is_killed() {
                // The holder's thread died. Its abort handlers (which
                // release abstract locks) run on the dying thread as
                // part of `kill`, and its word-level state is parked
                // for orphan recovery — trigger that recovery so the
                // physical structure quiesces, then re-examine.
                self.orphan_recoveries.fetch_add(1, Ordering::Relaxed);
                tx.stm().recover_orphan(holder);
                self.note_wait(budget, &mut waited)?;
                yield_point_keyed(schedpt::BOOST_LOCK_WAIT, slot);
                std::hint::spin_loop();
                continue;
            }
            match tx.stm().config().cm.arbitrate(tx.ctl(), &other, spins) {
                CmDecision::Wait => {
                    spins += 1;
                    self.note_wait(budget, &mut waited)?;
                    yield_point_keyed(schedpt::BOOST_LOCK_WAIT, slot);
                    std::hint::spin_loop();
                }
                CmDecision::AbortSelf => {
                    self.busy_failures.fetch_add(1, Ordering::Relaxed);
                    return Err(TxError::BUSY);
                }
                CmDecision::AbortOther => {
                    if !other.doomed.swap(true, Ordering::AcqRel) {
                        self.dooms_issued.fetch_add(1, Ordering::Relaxed);
                    }
                    // The victim notices at its next open/validate/
                    // acquire and releases on rollback; wait bounded.
                    spins += 1;
                    self.note_wait(budget, &mut waited)?;
                    yield_point_keyed(schedpt::BOOST_LOCK_WAIT, slot);
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// One wait round against the shared budget; converts exhaustion
    /// into the BUSY that makes the outer retry loop break any
    /// potential deadlock cycle.
    fn note_wait(&self, budget: u32, waited: &mut u32) -> TxResult<()> {
        self.wait_rounds.fetch_add(1, Ordering::Relaxed);
        *waited += 1;
        if *waited > budget {
            self.busy_failures.fetch_add(1, Ordering::Relaxed);
            return Err(TxError::BUSY);
        }
        Ok(())
    }

    /// Releases `slot`, called only from the handlers registered by
    /// [`Self::acquire`] (so exactly once per acquisition).
    fn release(&self, slot: usize, me: u64) {
        yield_point_keyed(schedpt::BOOST_PRE_UNLOCK, slot);
        let swapped =
            self.words[slot].compare_exchange(me, 0, Ordering::AcqRel, Ordering::Acquire).is_ok();
        debug_assert!(swapped, "abstract lock released by a non-holder");
        if swapped {
            self.releases.fetch_add(1, Ordering::Relaxed);
        }
    }
}
