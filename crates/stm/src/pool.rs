//! Thread-local pool of reusable transaction contexts.
//!
//! Every transaction needs a `Box<TxLogs>` (three entry vectors plus an
//! allocation log), a shared [`TxCtl`], two handler lists and, with
//! runtime filtering on, a [`LogFilter`] table. Allocating these per
//! transaction puts the allocator on the hot path of every attempt —
//! including every *retry* of a contended atomic block. The pool
//! instead recycles contexts per thread: a finished transaction's logs
//! and handler lists keep their vector capacities, its filter is
//! cleared in O(1) (generation bump, see [`crate::filter`]), and its
//! control block is re-armed in place, so a steady-state thread begins
//! transactions without touching the allocator at all.
//!
//! A control block is shared: a contender that looked the owner up in
//! the registry may still hold it (and may still set its doom flag)
//! after the owner finished. [`TxCtx::arm_ctl`] therefore re-arms it
//! only when `Arc::get_mut` proves no such holder is left, and
//! otherwise leaves the old block to its holders and allocates a new
//! one, so a late doom can never land on the next transaction.
//!
//! The pool is keyed by thread (a `thread_local!` stack), so acquiring
//! and releasing takes no lock and can never contend. Contexts are not
//! tied to one [`crate::Stm`]: a recycled filter is reconciled with the
//! acquiring STM's configuration (present/absent, table size) on the
//! way out.

use std::cell::RefCell;
use std::sync::Arc;

use crate::cm::TxCtl;
use crate::filter::LogFilter;
use crate::logs::TxLogs;
use crate::tx::Handlers;
use crate::word::TxToken;

/// The reusable allocation-heavy parts of a transaction.
#[derive(Debug)]
pub(crate) struct TxCtx {
    /// Read/update/undo/alloc logs; empty but warm (capacity retained).
    pub(crate) logs: Box<TxLogs>,
    /// Duplicate-suppression filter, if the releasing STM used one.
    pub(crate) filter: Option<LogFilter>,
    /// The transaction's control block, re-armed by [`Self::arm_ctl`].
    pub(crate) ctl: Arc<TxCtl>,
    /// Commit and abort handler lists; empty but warm.
    pub(crate) commit_handlers: Handlers,
    pub(crate) abort_handlers: Handlers,
}

impl TxCtx {
    fn new() -> TxCtx {
        TxCtx {
            logs: Box::new(TxLogs::new()),
            filter: None,
            ctl: Arc::new(TxCtl::new(TxToken(0), 0, 0)),
            commit_handlers: Handlers::default(),
            abort_handlers: Handlers::default(),
        }
    }

    /// Makes `ctl` a fresh control block for a transaction holding
    /// `token`: the pooled one, re-armed, when nobody else holds it;
    /// otherwise a new allocation.
    pub(crate) fn arm_ctl(&mut self, token: TxToken, priority: u64, karma: u64) {
        match Arc::get_mut(&mut self.ctl) {
            Some(ctl) => *ctl = TxCtl::new(token, priority, karma),
            None => self.ctl = Arc::new(TxCtl::new(token, priority, karma)),
        }
    }
}

/// Contexts retained per thread. Nested manual transactions are rare,
/// so a small stack bounds memory while covering real usage.
const MAX_POOLED: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<TxCtx>> = const { RefCell::new(Vec::new()) };
}

/// Takes a context for a new transaction, recycling a pooled one when
/// available. The returned logs are empty; the filter matches the
/// requested configuration and remembers nothing.
pub(crate) fn acquire(runtime_filter: bool, filter_bits: u32) -> TxCtx {
    let mut ctx = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_else(TxCtx::new);
    debug_assert!(
        ctx.logs.lens() == (0, 0, 0) && ctx.logs.allocs.is_empty(),
        "pooled logs must be empty"
    );
    debug_assert!(
        ctx.commit_handlers.0.is_empty() && ctx.abort_handlers.0.is_empty(),
        "pooled handler lists must be empty"
    );
    // Reconcile the recycled filter with this STM's configuration.
    if runtime_filter {
        match &mut ctx.filter {
            Some(f) if f.bits() == filter_bits => f.clear(),
            slot => *slot = Some(LogFilter::new(filter_bits)),
        }
    } else {
        ctx.filter = None;
    }
    ctx
}

/// Returns a finished transaction's context to the calling thread's
/// pool (or drops it if the pool is full).
pub(crate) fn release(mut ctx: TxCtx) {
    ctx.logs.clear();
    // Finishing ran one list and cleared the other, so these are
    // normally no-ops; they keep a stray handler out of the pool.
    ctx.commit_handlers.0.clear();
    ctx.abort_handlers.0.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(ctx);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterKind;
    use crate::logs::ReadEntry;

    /// Empties this thread's pool so a test observes only its own
    /// releases (unit tests share threads with each other).
    fn drain() {
        POOL.with(|p| p.borrow_mut().clear());
    }

    #[test]
    fn acquire_reuses_released_capacity() {
        drain();
        let heap = omt_heap::Heap::new();
        let class = heap.define_class(omt_heap::ClassDesc::with_var_fields("C", &["v"]));
        let obj = heap.alloc(class).unwrap();

        let mut ctx = acquire(false, 8);
        for _ in 0..100 {
            ctx.logs.read.push(ReadEntry { obj, observed: 0 });
        }
        let warmed = ctx.logs.read.capacity();
        release(ctx);

        let ctx = acquire(false, 8);
        assert!(ctx.logs.read.is_empty(), "recycled logs start empty");
        assert_eq!(ctx.logs.read.capacity(), warmed, "capacity survived the round trip");
    }

    #[test]
    fn recycled_filter_is_cleared_and_resized() {
        drain();
        let mut ctx = acquire(true, 8);
        let f = ctx.filter.as_mut().unwrap();
        assert!(!f.check_and_set(FilterKind::Read, 42, 0));
        release(ctx);

        // Same size: reused, but remembers nothing.
        let mut ctx = acquire(true, 8);
        let f = ctx.filter.as_mut().unwrap();
        assert_eq!(f.bits(), 8);
        assert!(!f.check_and_set(FilterKind::Read, 42, 0), "stale filter claim leaked");
        release(ctx);

        // Different size: rebuilt.
        let ctx = acquire(true, 4);
        assert_eq!(ctx.filter.as_ref().unwrap().bits(), 4);
        release(ctx);

        // Filtering off: dropped.
        let ctx = acquire(false, 8);
        assert!(ctx.filter.is_none());
        release(ctx);
    }

    #[test]
    fn pool_is_bounded() {
        drain();
        let contexts: Vec<TxCtx> = (0..2 * MAX_POOLED).map(|_| acquire(false, 8)).collect();
        for ctx in contexts {
            release(ctx);
        }
        assert_eq!(POOL.with(|p| p.borrow().len()), MAX_POOLED);
    }
}
