//! Contention management: what `OpenForUpdate` does when it finds an
//! object owned by another transaction.
//!
//! The paper's contribution is the decomposed barrier interface, not
//! contention management — it uses simple self-abort policies. This
//! module adds the classic priority-based managers from the CM
//! literature so experiment E7 can ablate them on the direct-access
//! design:
//!
//! - [`CmPolicy::AbortSelf`] — abort immediately, let backoff sort it
//!   out (the paper's behaviour);
//! - [`CmPolicy::Spin`] — wait briefly for the owner to finish, then
//!   abort self (Polite-style);
//! - [`CmPolicy::OldestWins`] — Greedy-style: the transaction with the
//!   older timestamp wins and *dooms the other*, so long transactions
//!   cannot starve;
//! - [`CmPolicy::Karma`] — the transaction that has performed more work
//!   (open operations, accumulated across retries of the same atomic
//!   block) wins; ties break by age.
//!
//! Aborting the *other* transaction is asynchronous in a direct-access
//! STM: the winner cannot roll the victim back (only the victim knows
//! its undo log), so it sets the victim's **doom flag** in its
//! [`TxCtl`] and waits (bounded) for the victim to notice. Victims
//! check the flag at every open operation and at validation, observe
//! [`ConflictKind::Doomed`](crate::ConflictKind), and roll themselves
//! back, releasing ownership.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::word::TxToken;

/// Shared control block of one in-flight transaction: everything
/// another transaction's contention manager may inspect or write.
///
/// Registered in the [`crate::TxRegistry`] keyed by token while the
/// transaction is active, and held (via `Arc`) by any contender
/// currently arbitrating against it — so a contender can finish its
/// decision even if the owner commits concurrently.
#[derive(Debug)]
pub struct TxCtl {
    /// The owning transaction's token.
    pub(crate) token: TxToken,
    /// Age-based priority: the serial of the *first* attempt of this
    /// atomic block, stable across retries, so a long-suffering
    /// transaction keeps its seniority. Lower is older and wins.
    pub(crate) priority: u64,
    /// Work-based priority (Karma): open operations performed,
    /// accumulated across retries of the same atomic block. Higher
    /// wins.
    pub(crate) karma: AtomicU64,
    /// Set by a higher-priority contender; the transaction observes it
    /// at its next open or validate and aborts with
    /// [`ConflictKind::Doomed`](crate::ConflictKind).
    pub(crate) doomed: AtomicBool,
    /// Set when a failpoint killed the thread mid-transaction while it
    /// held ownership; contenders finding this recover the orphan via
    /// [`crate::TxRegistry`].
    pub(crate) killed: AtomicBool,
    /// The transaction's current `read_ver` (snapshot of the commit
    /// clock at begin, advanced by successful validations). Published
    /// so GC trimming can compute the minimum `read_ver` any active
    /// transaction might still be served at — the floor below which
    /// version-chain entries (`StmConfig::mv_depth`) are reclaimable.
    /// `u64::MAX` until the owning transaction first publishes.
    pub(crate) read_ver: AtomicU64,
}

impl TxCtl {
    pub(crate) fn new(token: TxToken, priority: u64, karma: u64) -> TxCtl {
        TxCtl {
            token,
            priority,
            karma: AtomicU64::new(karma),
            doomed: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            read_ver: AtomicU64::new(u64::MAX),
        }
    }

    /// Counts one open operation. Only the owning transaction writes
    /// karma (contenders just read it), so a load and a store suffice —
    /// no read-modify-write.
    #[inline]
    pub(crate) fn bump_karma(&self) {
        self.karma.store(self.karma.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// The transaction's stable age-based priority (lower = older).
    pub fn priority(&self) -> u64 {
        self.priority
    }

    /// Work performed so far (open operations across retries).
    pub fn karma(&self) -> u64 {
        self.karma.load(Ordering::Relaxed)
    }

    /// True once a contention manager has doomed this transaction.
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    /// True once a `Kill` failpoint simulated thread death.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }
}

/// What the contention manager tells `OpenForUpdate` to do about an
/// object owned by another transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmDecision {
    /// Spin once and re-examine the object.
    Wait,
    /// Give up: abort the *current* transaction with `Busy`.
    AbortSelf,
    /// Doom the *owner*: set its doom flag, then wait (bounded) for it
    /// to release the object.
    AbortOther,
}

/// A contention manager arbitrates between the running transaction
/// (`me`) and the current owner (`other`) of a contended object.
///
/// `spins` counts how many times this open operation has already
/// waited on this conflict, letting policies bound their patience.
pub trait ContentionManager {
    /// Decides what to do about the conflict.
    fn arbitrate(&self, me: &TxCtl, other: &TxCtl, spins: u32) -> CmDecision;
}

/// The paper's policy: abort self immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbortSelfCm;

impl ContentionManager for AbortSelfCm {
    fn arbitrate(&self, _me: &TxCtl, _other: &TxCtl, _spins: u32) -> CmDecision {
        CmDecision::AbortSelf
    }
}

/// Polite-style: wait up to `max_spins`, then abort self.
#[derive(Debug, Clone, Copy)]
pub struct SpinCm {
    /// Re-reads of the STM word before giving up.
    pub max_spins: u32,
}

impl ContentionManager for SpinCm {
    fn arbitrate(&self, _me: &TxCtl, _other: &TxCtl, spins: u32) -> CmDecision {
        if spins < self.max_spins {
            CmDecision::Wait
        } else {
            CmDecision::AbortSelf
        }
    }
}

/// Greedy-style timestamp priority: the older transaction dooms the
/// younger one; the younger waits briefly for the older, then aborts
/// itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct OldestWinsCm;

/// How long a losing transaction waits for a winning owner before
/// aborting itself (it cannot doom its senior).
const LOSER_PATIENCE: u32 = 128;

impl ContentionManager for OldestWinsCm {
    fn arbitrate(&self, me: &TxCtl, other: &TxCtl, spins: u32) -> CmDecision {
        if me.priority < other.priority {
            CmDecision::AbortOther
        } else if spins < LOSER_PATIENCE {
            CmDecision::Wait
        } else {
            CmDecision::AbortSelf
        }
    }
}

/// Karma: the transaction that has invested more work wins; ties break
/// by age so the decision is total and livelock-free.
#[derive(Debug, Clone, Copy, Default)]
pub struct KarmaCm;

impl ContentionManager for KarmaCm {
    fn arbitrate(&self, me: &TxCtl, other: &TxCtl, spins: u32) -> CmDecision {
        let mine = me.karma();
        let theirs = other.karma();
        let i_win = mine > theirs || (mine == theirs && me.priority < other.priority);
        if i_win {
            CmDecision::AbortOther
        } else if spins < LOSER_PATIENCE {
            CmDecision::Wait
        } else {
            CmDecision::AbortSelf
        }
    }
}

/// Contention-management policy applied when `OpenForUpdate` finds the
/// object owned by another transaction.
///
/// The enum selects one of the built-in [`ContentionManager`]s; see the
/// module docs for what each does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmPolicy {
    /// Abort immediately and let the retry loop back off.
    AbortSelf,
    /// Spin re-reading the STM word up to the given number of times
    /// before giving up and aborting.
    Spin {
        /// Maximum number of re-reads before aborting.
        max_spins: u32,
    },
    /// Greedy-style: older transaction dooms the younger.
    OldestWins,
    /// Karma-style: the transaction with more accumulated work dooms
    /// the other; ties break by age.
    Karma,
}

impl Default for CmPolicy {
    fn default() -> CmPolicy {
        CmPolicy::Spin { max_spins: 128 }
    }
}

impl CmPolicy {
    /// Arbitrates the conflict under this policy.
    pub fn arbitrate(&self, me: &TxCtl, other: &TxCtl, spins: u32) -> CmDecision {
        match *self {
            CmPolicy::AbortSelf => AbortSelfCm.arbitrate(me, other, spins),
            CmPolicy::Spin { max_spins } => SpinCm { max_spins }.arbitrate(me, other, spins),
            CmPolicy::OldestWins => OldestWinsCm.arbitrate(me, other, spins),
            CmPolicy::Karma => KarmaCm.arbitrate(me, other, spins),
        }
    }

    /// True for policies that may doom the other transaction (and so
    /// need doom-flag checks to be observable quickly).
    pub fn is_priority_based(&self) -> bool {
        matches!(self, CmPolicy::OldestWins | CmPolicy::Karma)
    }
}

impl std::fmt::Display for CmPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmPolicy::AbortSelf => write!(f, "abort-self"),
            CmPolicy::Spin { max_spins } => write!(f, "spin-{max_spins}"),
            CmPolicy::OldestWins => write!(f, "oldest-wins"),
            CmPolicy::Karma => write!(f, "karma"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(token: u32, priority: u64, karma: u64) -> TxCtl {
        TxCtl::new(TxToken(token), priority, karma)
    }

    #[test]
    fn abort_self_always_aborts_self() {
        let (a, b) = (ctl(1, 1, 0), ctl(2, 2, 0));
        assert_eq!(CmPolicy::AbortSelf.arbitrate(&a, &b, 0), CmDecision::AbortSelf);
        assert_eq!(CmPolicy::AbortSelf.arbitrate(&b, &a, 99), CmDecision::AbortSelf);
    }

    #[test]
    fn spin_waits_then_gives_up() {
        let (a, b) = (ctl(1, 1, 0), ctl(2, 2, 0));
        let p = CmPolicy::Spin { max_spins: 3 };
        assert_eq!(p.arbitrate(&a, &b, 0), CmDecision::Wait);
        assert_eq!(p.arbitrate(&a, &b, 2), CmDecision::Wait);
        assert_eq!(p.arbitrate(&a, &b, 3), CmDecision::AbortSelf);
    }

    #[test]
    fn oldest_wins_dooms_younger() {
        let (old, young) = (ctl(1, 10, 0), ctl(2, 20, 0));
        assert_eq!(CmPolicy::OldestWins.arbitrate(&old, &young, 0), CmDecision::AbortOther);
        // The younger waits at first, then aborts itself.
        assert_eq!(CmPolicy::OldestWins.arbitrate(&young, &old, 0), CmDecision::Wait);
        assert_eq!(
            CmPolicy::OldestWins.arbitrate(&young, &old, LOSER_PATIENCE),
            CmDecision::AbortSelf
        );
    }

    #[test]
    fn karma_prefers_work_then_age() {
        let (rich, poor) = (ctl(1, 20, 100), ctl(2, 10, 1));
        assert_eq!(CmPolicy::Karma.arbitrate(&rich, &poor, 0), CmDecision::AbortOther);
        assert_eq!(CmPolicy::Karma.arbitrate(&poor, &rich, 0), CmDecision::Wait);
        // Equal karma: older (lower priority number) wins.
        let (old, young) = (ctl(3, 1, 5), ctl(4, 2, 5));
        assert_eq!(CmPolicy::Karma.arbitrate(&old, &young, 0), CmDecision::AbortOther);
        assert_eq!(CmPolicy::Karma.arbitrate(&young, &old, LOSER_PATIENCE), CmDecision::AbortSelf);
    }

    #[test]
    fn decisions_are_antisymmetric() {
        // No pair where both sides doom each other — that would be
        // mutual destruction. (Wait/AbortSelf on both sides is fine.)
        for policy in [CmPolicy::OldestWins, CmPolicy::Karma] {
            for (pa, ka, pb, kb) in
                [(1u64, 0u64, 2u64, 0u64), (2, 5, 1, 5), (1, 3, 2, 9), (5, 2, 6, 2)]
            {
                let a = ctl(1, pa, ka);
                let b = ctl(2, pb, kb);
                let ab = policy.arbitrate(&a, &b, 0);
                let ba = policy.arbitrate(&b, &a, 0);
                assert!(
                    !(ab == CmDecision::AbortOther && ba == CmDecision::AbortOther),
                    "{policy}: mutual AbortOther for prio ({pa},{pb}) karma ({ka},{kb})"
                );
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(CmPolicy::AbortSelf.to_string(), "abort-self");
        assert_eq!(CmPolicy::Spin { max_spins: 128 }.to_string(), "spin-128");
        assert_eq!(CmPolicy::OldestWins.to_string(), "oldest-wins");
        assert_eq!(CmPolicy::Karma.to_string(), "karma");
    }

    #[test]
    fn priority_based_classification() {
        assert!(!CmPolicy::AbortSelf.is_priority_based());
        assert!(!CmPolicy::default().is_priority_based());
        assert!(CmPolicy::OldestWins.is_priority_based());
        assert!(CmPolicy::Karma.is_priority_based());
    }
}
