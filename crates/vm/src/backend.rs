//! Synchronization backends and per-region sessions.
//!
//! One compiled program can execute under any of five synchronization
//! regimes — the comparison axis of the paper's evaluation:
//!
//! | backend | atomic region becomes |
//! |---------|------------------------|
//! | [`SyncBackend::Sequential`] | nothing (uninstrumented baseline)  |
//! | [`SyncBackend::Coarse`]     | one global mutex                   |
//! | [`SyncBackend::TwoPhase`]   | per-object encounter-time locks    |
//! | [`SyncBackend::Buffered`]   | TL2-style buffered transaction     |
//! | [`SyncBackend::DirectStm`]  | the paper's direct-access STM      |
//!
//! The interpreter maps each decomposed IR operation onto the session
//! of the active backend; note that the buffered STM *cannot* exploit
//! the decomposed barriers (every read must consult the write buffer),
//! which is exactly the structural disadvantage the paper identifies.

use std::fmt;
use std::sync::Arc;

use omt_baselines::{CoarseGuard, CoarseLock, TplTx, TwoPhaseLocking, WConflict, WStm, WTx};
use omt_heap::{Heap, ObjRef, Word};
use omt_stm::{Stm, StmConfig, Transaction, TxError};

/// Why an atomic region's execution could not continue.
#[derive(Debug)]
pub(crate) enum Trap {
    /// Synchronization conflict: roll back to the region start and
    /// retry.
    Conflict,
    /// A genuine runtime error (null dereference, division by zero,
    /// heap exhaustion...).
    Error(String),
}

/// A synchronization backend over a shared heap.
// One backend exists per VM, so the size skew from the Stm variant
// (serial gate + failpoint registry) does not matter.
#[allow(clippy::large_enum_variant)]
pub enum SyncBackend {
    /// No synchronization: the uninstrumented sequential baseline.
    Sequential,
    /// One global lock around every atomic region.
    Coarse(CoarseLock),
    /// Encounter-time per-object two-phase locking.
    TwoPhase(TwoPhaseLocking),
    /// Buffered-update word STM (TL2-style).
    Buffered(WStm),
    /// The direct-access STM of the paper.
    DirectStm(Stm),
}

impl SyncBackend {
    /// Creates a backend of the given kind over `heap`.
    pub fn new(kind: BackendKind, heap: Arc<Heap>) -> SyncBackend {
        SyncBackend::with_stm_config(kind, heap, StmConfig::default())
    }

    /// Creates a backend of the given kind over `heap`, using `config`
    /// for the direct STM (contention management, serial fallback,
    /// filtering...). Non-STM backends ignore the config.
    pub fn with_stm_config(kind: BackendKind, heap: Arc<Heap>, config: StmConfig) -> SyncBackend {
        match kind {
            BackendKind::Sequential => SyncBackend::Sequential,
            BackendKind::Coarse => SyncBackend::Coarse(CoarseLock::new()),
            BackendKind::TwoPhase => SyncBackend::TwoPhase(TwoPhaseLocking::new(heap)),
            BackendKind::Buffered => SyncBackend::Buffered(WStm::new(heap)),
            BackendKind::DirectStm => SyncBackend::DirectStm(Stm::with_config(heap, config)),
        }
    }

    /// The backend's kind.
    pub fn kind(&self) -> BackendKind {
        match self {
            SyncBackend::Sequential => BackendKind::Sequential,
            SyncBackend::Coarse(_) => BackendKind::Coarse,
            SyncBackend::TwoPhase(_) => BackendKind::TwoPhase,
            SyncBackend::Buffered(_) => BackendKind::Buffered,
            SyncBackend::DirectStm(_) => BackendKind::DirectStm,
        }
    }

    /// The inner direct STM, if this backend is one.
    pub fn as_stm(&self) -> Option<&Stm> {
        match self {
            SyncBackend::DirectStm(stm) => Some(stm),
            _ => None,
        }
    }
}

impl fmt::Debug for SyncBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SyncBackend::{:?}", self.kind())
    }
}

/// Identifies a backend kind (for CLI parsing and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Uninstrumented sequential execution.
    Sequential,
    /// Global mutex.
    Coarse,
    /// Per-object two-phase locking.
    TwoPhase,
    /// Buffered word STM.
    Buffered,
    /// Direct-access STM.
    DirectStm,
}

impl BackendKind {
    /// All kinds, in the order evaluation tables report them.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Sequential,
        BackendKind::Coarse,
        BackendKind::TwoPhase,
        BackendKind::Buffered,
        BackendKind::DirectStm,
    ];
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BackendKind::Sequential => "sequential",
            BackendKind::Coarse => "coarse-lock",
            BackendKind::TwoPhase => "2pl",
            BackendKind::Buffered => "wstm",
            BackendKind::DirectStm => "stm",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Ok(BackendKind::Sequential),
            "coarse" | "coarse-lock" => Ok(BackendKind::Coarse),
            "2pl" | "twophase" | "medium" => Ok(BackendKind::TwoPhase),
            "wstm" | "buffered" | "tl2" => Ok(BackendKind::Buffered),
            "stm" | "direct" => Ok(BackendKind::DirectStm),
            other => Err(format!("unknown backend `{other}` (sequential|coarse|2pl|wstm|stm)")),
        }
    }
}

/// The per-atomic-region synchronization state.
// One `Session` lives per interpreter, never in collections, so the
// size spread between `Idle` and a full `Transaction` costs nothing;
// boxing the STM variant would put an indirection on the hot path. The
// explicit tag byte lets every per-op match test one byte instead of
// decoding a niche inside `Transaction`.
#[allow(clippy::large_enum_variant)]
#[repr(u8)]
pub(crate) enum Session<'b> {
    /// No region active.
    Idle,
    /// Sequential: regions are free.
    SequentialRegion,
    /// Holding the global lock.
    Coarse(CoarseGuard<'b>),
    /// A 2PL section.
    Tpl(TplTx<'b>),
    /// A buffered transaction.
    Buffered(WTx<'b>),
    /// A direct-access transaction.
    Stm(Transaction<'b>),
}

impl<'b> Session<'b> {
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        !matches!(self, Session::Idle)
    }

    /// Begins a region on `backend`.
    #[inline(never)]
    pub(crate) fn begin(backend: &'b SyncBackend) -> Session<'b> {
        match backend {
            SyncBackend::Sequential => Session::SequentialRegion,
            SyncBackend::Coarse(lock) => Session::Coarse(lock.enter()),
            SyncBackend::TwoPhase(tpl) => Session::Tpl(tpl.begin()),
            SyncBackend::Buffered(wstm) => Session::Buffered(wstm.begin()),
            SyncBackend::DirectStm(stm) => Session::Stm(stm.begin()),
        }
    }

    #[inline]
    pub(crate) fn open_for_read(&mut self, obj: ObjRef) -> Result<(), Trap> {
        match self {
            Session::Stm(tx) => stm_open_for_read(tx, obj),
            Session::Tpl(tx) => tx.acquire(obj).map_err(|_| Trap::Conflict),
            Session::Idle => Err(Trap::Error("barrier outside atomic region".into())),
            _ => Ok(()),
        }
    }

    #[inline]
    pub(crate) fn open_for_update(&mut self, obj: ObjRef) -> Result<(), Trap> {
        match self {
            Session::Stm(tx) => stm_open_for_update(tx, obj),
            Session::Tpl(tx) => tx.acquire(obj).map_err(|_| Trap::Conflict),
            Session::Idle => Err(Trap::Error("barrier outside atomic region".into())),
            _ => Ok(()),
        }
    }

    #[inline]
    pub(crate) fn log_for_undo(&mut self, obj: ObjRef, field: usize) -> Result<(), Trap> {
        match self {
            Session::Stm(tx) => {
                stm_log_for_undo(tx, obj, field);
                Ok(())
            }
            Session::Tpl(tx) => {
                tx.log_undo(obj, field);
                Ok(())
            }
            Session::Idle => Err(Trap::Error("barrier outside atomic region".into())),
            _ => Ok(()),
        }
    }

    #[inline]
    pub(crate) fn load(&mut self, heap: &Heap, obj: ObjRef, field: usize) -> Result<Word, Trap> {
        match self {
            Session::Buffered(tx) => tx.read(obj, field).map_err(Trap::from),
            // Snapshot mode: a bare `heap.load` after the decomposed
            // open would miss the seqlock sandwich and the version
            // chain — the open logged the header, but nothing ties the
            // data this load observes to `read_ver`. Route through the
            // composed read, which is where snapshot mode's guarantees
            // (and its abort-free chain service) live.
            Session::Stm(tx) if tx.snapshot_reads() => stm_read(tx, obj, field),
            _ => Ok(heap.load(obj, field)),
        }
    }

    #[inline]
    pub(crate) fn store(
        &mut self,
        heap: &Heap,
        obj: ObjRef,
        field: usize,
        value: Word,
    ) -> Result<(), Trap> {
        match self {
            Session::Buffered(tx) => {
                tx.write(obj, field, value);
                Ok(())
            }
            _ => {
                heap.store(obj, field, value);
                Ok(())
            }
        }
    }

    /// Allocates an object (recorded in the transaction's allocation
    /// log under the direct STM).
    #[inline(never)]
    pub(crate) fn alloc(&mut self, heap: &Heap, class: omt_heap::ClassId) -> Result<ObjRef, Trap> {
        match self {
            Session::Stm(tx) => tx.alloc(class).map_err(Trap::from),
            _ => heap.alloc(class).map_err(|e| Trap::Error(e.to_string())),
        }
    }

    /// Mid-region validation (direct STM only; others are always
    /// consistent).
    #[inline(never)]
    pub(crate) fn validate(&mut self) -> Result<(), Trap> {
        match self {
            Session::Stm(tx) => tx.validate().map_err(Trap::from),
            _ => Ok(()),
        }
    }

    /// Commits the region. On `Err` the session has been rolled back.
    #[inline(never)]
    pub(crate) fn commit(&mut self) -> Result<(), Trap> {
        match std::mem::replace(self, Session::Idle) {
            Session::Idle => Err(Trap::Error("tx_commit outside atomic region".into())),
            Session::SequentialRegion => Ok(()),
            Session::Coarse(guard) => {
                drop(guard);
                Ok(())
            }
            Session::Tpl(tx) => {
                tx.commit();
                Ok(())
            }
            Session::Buffered(tx) => tx.commit().map_err(Trap::from),
            Session::Stm(tx) => tx.commit().map_err(Trap::from),
        }
    }

    /// Aborts the region (idempotent on idle sessions).
    #[inline(never)]
    pub(crate) fn abort(&mut self) {
        match std::mem::replace(self, Session::Idle) {
            Session::Idle | Session::SequentialRegion => {}
            Session::Coarse(guard) => drop(guard),
            Session::Tpl(tx) => tx.abort(),
            Session::Buffered(tx) => drop(tx),
            Session::Stm(tx) => tx.abort(),
        }
    }
}

// The direct STM's barriers, each compiled once, out of the
// interpreter's dispatch loop: inlined there, their fast paths crowded
// the loop's registers for every other op.

#[inline(never)]
fn stm_open_for_read(tx: &mut Transaction<'_>, obj: ObjRef) -> Result<(), Trap> {
    // Under snapshot reads the decomposed open is deferred to the load
    // itself: `Session::load` routes through the composed
    // `Transaction::read`, which resolves the header, sandwiches the
    // data load, and can serve old values from the version chain.
    // Opening here as well would only burn the abort-free
    // `snapshot_clean` path (a decomposed open's separate load cannot be
    // sandwich-verified).
    if tx.snapshot_reads() {
        return Ok(());
    }
    tx.open_for_read(obj).map_err(Trap::from)
}

#[inline(never)]
fn stm_open_for_update(tx: &mut Transaction<'_>, obj: ObjRef) -> Result<(), Trap> {
    tx.open_for_update(obj).map_err(Trap::from)
}

#[inline(never)]
fn stm_log_for_undo(tx: &mut Transaction<'_>, obj: ObjRef, field: usize) {
    tx.log_for_undo(obj, field);
}

#[inline(never)]
fn stm_read(tx: &mut Transaction<'_>, obj: ObjRef, field: usize) -> Result<Word, Trap> {
    tx.read(obj, field).map_err(Trap::from)
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Session::Idle => "Idle",
            Session::SequentialRegion => "SequentialRegion",
            Session::Coarse(_) => "Coarse",
            Session::Tpl(_) => "Tpl",
            Session::Buffered(_) => "Buffered",
            Session::Stm(_) => "Stm",
        };
        write!(f, "Session::{name}")
    }
}

impl From<TxError> for Trap {
    fn from(e: TxError) -> Trap {
        match e {
            TxError::Conflict(_) => Trap::Conflict,
            TxError::HeapFull => Trap::Error("heap slot table exhausted".into()),
            TxError::DeadlineExceeded => Trap::Error("transaction deadline exceeded".into()),
        }
    }
}

impl From<WConflict> for Trap {
    fn from(_: WConflict) -> Trap {
        Trap::Conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_heap::{ClassDesc, ClassId, FieldDesc, FieldMut};

    fn snapshot_setup(mv_depth: usize) -> (Arc<Heap>, SyncBackend, ClassId) {
        let heap = Arc::new(Heap::new());
        let class =
            heap.define_class(ClassDesc::new("Cell", vec![FieldDesc::new("v", FieldMut::Var)]));
        let config = StmConfig { snapshot_reads: true, mv_depth, ..StmConfig::default() };
        let backend = SyncBackend::with_stm_config(BackendKind::DirectStm, heap.clone(), config);
        (heap, backend, class)
    }

    /// Regression: a decomposed `OpenForRead` + bare load under
    /// snapshot mode used to bypass the transaction entirely
    /// (`Session::load` fell through to `heap.load`), observing a
    /// concurrent writer's committed value even though the session's
    /// snapshot predates that commit. With the routing fix the load
    /// goes through the composed snapshot read, which serves the
    /// pre-commit value from the version chain — no abort, no torn
    /// snapshot.
    #[test]
    fn decomposed_txil_load_is_served_at_the_session_snapshot() {
        let (heap, backend, class) = snapshot_setup(1);
        let stm = backend.as_stm().expect("direct STM backend");
        let obj = stm.atomically(|tx| {
            let obj = tx.alloc(class)?;
            tx.write(obj, 0, Word::from_scalar(1))?;
            Ok(obj)
        });

        // Reader session begins (pinning its snapshot) *before* the
        // writer publishes the new value.
        let mut session = Session::begin(&backend);
        stm.atomically(|tx| tx.write(obj, 0, Word::from_scalar(2)));

        // Decomposed TxIL sequence the optimizer emits: OpenForRead
        // then a bare data load.
        session.open_for_read(obj).expect("open");
        let value = session.load(&heap, obj, 0).expect("load");
        assert_eq!(
            value.as_scalar(),
            Some(1),
            "decomposed load must observe the session snapshot, not the later commit"
        );
        session.commit().expect("read-only session commits abort-free");

        let stats = stm.stats();
        assert!(stats.mv_read_hits >= 1, "old value must come from the version chain");
        assert_eq!(stats.readonly_aborts, 0);
        assert_eq!(stats.aborts_invalid, 0);
    }

    /// The same race at `mv_depth = 0` (no chains): the routed load
    /// must still be snapshot-consistent — here via timestamp
    /// extension, which moves the whole snapshot past the writer's
    /// commit and returns the *new* value. Either way, never the
    /// torn mix the bare `heap.load` produced.
    #[test]
    fn decomposed_txil_load_stays_consistent_without_chains() {
        let (heap, backend, class) = snapshot_setup(0);
        let stm = backend.as_stm().expect("direct STM backend");
        let obj = stm.atomically(|tx| {
            let obj = tx.alloc(class)?;
            tx.write(obj, 0, Word::from_scalar(1))?;
            Ok(obj)
        });

        let mut session = Session::begin(&backend);
        stm.atomically(|tx| tx.write(obj, 0, Word::from_scalar(2)));

        session.open_for_read(obj).expect("open");
        let value = session.load(&heap, obj, 0).expect("load");
        assert_eq!(value.as_scalar(), Some(2), "extension advances the snapshot past the commit");
        session.commit().expect("commit");
        assert!(stm.stats().ts_extensions >= 1);
    }
}
