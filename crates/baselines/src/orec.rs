//! A direct-update STM with *hashed ownership records* instead of
//! per-object header words.
//!
//! The PLDI 2006 design attaches STM metadata to each object's header;
//! the word-based alternative it argues against keeps a global table of
//! ownership records ("orecs") indexed by an address hash. The orec
//! design needs no header space, but distinct locations that hash to
//! the same orec *falsely conflict*, and every barrier pays a hash.
//! This implementation exists to measure that trade-off (experiment
//! E8c); the transaction machinery (direct update, undo log,
//! commit-time validation) matches `omt-stm`.
//!
//! Orec encoding (same shape as the object STM word):
//!
//! ```text
//! bit 0 = 0:  [ version : 63 ][0]
//! bit 0 = 1:  [ owner token : 63 ][1]
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use omt_heap::{Heap, ObjRef, Word};

/// Conflict error for the orec STM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrecConflict {
    /// An orec was owned by another transaction.
    Busy,
    /// Read validation failed.
    Invalid,
}

impl fmt::Display for OrecConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrecConflict::Busy => write!(f, "ownership record busy"),
            OrecConflict::Invalid => write!(f, "read validation failed"),
        }
    }
}

impl std::error::Error for OrecConflict {}

/// Counters for the orec STM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrecStatsSnapshot {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts.
    pub aborts: u64,
}

/// Direct-update STM over a hashed ownership-record table.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use omt_heap::{Heap, ClassDesc, Word};
/// use omt_baselines::OrecStm;
///
/// let heap = Arc::new(Heap::new());
/// let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
/// let obj = heap.alloc(class)?;
/// let stm = OrecStm::new(heap.clone(), 10); // 1024 orecs
///
/// stm.atomically(|tx| {
///     let v = tx.read(obj, 0)?.as_scalar().unwrap();
///     tx.write(obj, 0, Word::from_scalar(v + 1))?;
///     Ok(())
/// });
/// assert_eq!(heap.load(obj, 0).as_scalar(), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OrecStm {
    heap: Arc<Heap>,
    orecs: Box<[AtomicU64]>,
    shift: u32,
    next_token: AtomicU64,
    begins: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl OrecStm {
    /// Creates an orec STM with `2^bits` ownership records.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 24`.
    pub fn new(heap: Arc<Heap>, bits: u32) -> OrecStm {
        assert!((1..=24).contains(&bits), "orec bits must be in 1..=24");
        let len = 1usize << bits;
        OrecStm {
            heap,
            orecs: (0..len).map(|_| AtomicU64::new(0)).collect(),
            shift: 64 - bits,
            next_token: AtomicU64::new(1),
            begins: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// The underlying heap.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Number of ownership records.
    pub fn orec_count(&self) -> usize {
        self.orecs.len()
    }

    /// The ownership-record index guarding `(obj, field)`.
    ///
    /// Exposed so the evaluation can measure how often *disjoint*
    /// locations share a record (false-conflict probability).
    pub fn orec_index(&self, obj: ObjRef, field: usize) -> usize {
        let key = (u64::from(obj.to_raw()) << 22) | field as u64;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Begins a transaction.
    pub fn begin(&self) -> OrecTx<'_> {
        self.begins.fetch_add(1, Ordering::Relaxed);
        OrecTx {
            stm: self,
            token: self.next_token.fetch_add(1, Ordering::Relaxed),
            reads: Vec::new(),
            owned: Vec::new(),
            undo: Vec::new(),
            finished: false,
        }
    }

    /// Runs `f` transactionally with retry and backoff.
    pub fn atomically<T>(
        &self,
        mut f: impl FnMut(&mut OrecTx<'_>) -> Result<T, OrecConflict>,
    ) -> T {
        let mut attempt = 0u32;
        loop {
            let mut tx = self.begin();
            match f(&mut tx) {
                Ok(v) => {
                    if tx.commit().is_ok() {
                        return v;
                    }
                }
                Err(_) => tx.abort(),
            }
            attempt = attempt.saturating_add(1);
            backoff(attempt);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OrecStatsSnapshot {
        OrecStatsSnapshot {
            begins: self.begins.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
        }
    }
}

/// An in-flight orec transaction. Dropping without commit aborts.
#[derive(Debug)]
pub struct OrecTx<'a> {
    stm: &'a OrecStm,
    token: u64,
    /// (orec index, observed version word).
    reads: Vec<(usize, u64)>,
    /// (orec index, original version word).
    owned: Vec<(usize, u64)>,
    undo: Vec<(ObjRef, u32, u64)>,
    finished: bool,
}

impl OrecTx<'_> {
    fn owned_word(&self) -> u64 {
        (self.token << 1) | 1
    }

    /// Transactional read: log the location's orec, read in place.
    ///
    /// # Errors
    ///
    /// Never fails at read time (optimistic); the error type matches
    /// [`OrecTx::write`] for composition.
    pub fn read(&mut self, obj: ObjRef, field: usize) -> Result<Word, OrecConflict> {
        self.log_read(self.stm.orec_index(obj, field));
        Ok(self.stm.heap.load(obj, field))
    }

    /// Logs the word of orec `index` as the version the next data load
    /// depends on (unless this transaction owns it).
    fn log_read(&mut self, index: usize) {
        let observed = self.stm.orecs[index].load(Ordering::Acquire);
        if observed != self.owned_word() {
            self.reads.push((index, observed));
        }
    }

    /// Transactional write: acquire the location's orec, undo-log, and
    /// store in place.
    ///
    /// # Errors
    ///
    /// [`OrecConflict::Busy`] when another transaction owns the orec.
    pub fn write(&mut self, obj: ObjRef, field: usize, value: Word) -> Result<(), OrecConflict> {
        let index = self.stm.orec_index(obj, field);
        let orec = &self.stm.orecs[index];
        let mut spins = 0u32;
        loop {
            let current = orec.load(Ordering::Acquire);
            if current == self.owned_word() {
                break;
            }
            if current & 1 == 1 {
                if spins > 64 {
                    return Err(OrecConflict::Busy);
                }
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if orec
                .compare_exchange(current, self.owned_word(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.owned.push((index, current));
                break;
            }
        }
        let old = self.stm.heap.field_atomic(obj, field).load(Ordering::Relaxed);
        self.undo.push((obj, field as u32, old));
        self.stm.heap.store(obj, field, value);
        Ok(())
    }

    /// Attempts to commit (validate reads, then release with bumped
    /// versions).
    ///
    /// # Errors
    ///
    /// [`OrecConflict::Invalid`] if a read orec changed; the heap has
    /// been rolled back when the error returns.
    pub fn commit(mut self) -> Result<(), OrecConflict> {
        std::sync::atomic::fence(Ordering::Acquire);
        for (index, observed) in &self.reads {
            let current = self.stm.orecs[*index].load(Ordering::Acquire);
            let valid = if current == *observed {
                // Same version word, and not owned by someone else now.
                current & 1 == 0
            } else {
                // Changed: acceptable only if we own it and the observed
                // word was its pre-acquisition version.
                current == self.owned_word()
                    && self.owned.iter().any(|(i, original)| i == index && original == observed)
            };
            if !valid {
                self.rollback();
                return Err(OrecConflict::Invalid);
            }
        }
        for (index, original) in self.owned.drain(..) {
            self.stm.orecs[index].store(original.wrapping_add(2), Ordering::Release);
        }
        self.finished = true;
        self.stm.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Aborts, rolling back in-place writes and releasing orecs.
    pub fn abort(mut self) {
        self.rollback();
        self.finished = true;
        self.stm.aborts.fetch_add(1, Ordering::Relaxed);
    }

    fn rollback(&mut self) {
        for (obj, field, old) in self.undo.iter().rev() {
            self.stm.heap.field_atomic(*obj, *field as usize).store(*old, Ordering::Relaxed);
        }
        self.undo.clear();
        // Release with a new version, as commit does: a reader that
        // logged `original` and then loaded a value this transaction
        // stored in place must fail validation. Restoring `original`
        // would let it commit the undone value (ABA).
        for (index, original) in self.owned.drain(..) {
            self.stm.orecs[index].store(original.wrapping_add(2), Ordering::Release);
        }
        self.reads.clear();
    }
}

impl Drop for OrecTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
            self.stm.aborts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn backoff(attempt: u32) {
    let cap = 1u32 << attempt.min(12);
    let spins = omt_util::rng::thread_rng().gen_range(0..=cap);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempt > 8 {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_heap::ClassDesc;

    fn setup(bits: u32) -> (Arc<Heap>, omt_heap::ClassId, OrecStm) {
        let heap = Arc::new(Heap::new());
        let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["a", "b"]));
        let stm = OrecStm::new(heap.clone(), bits);
        (heap, class, stm)
    }

    #[test]
    fn read_write_commit_and_abort() {
        let (heap, class, stm) = setup(10);
        let obj = heap.alloc(class).unwrap();
        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(7)).unwrap();
        assert_eq!(tx.read(obj, 0).unwrap().as_scalar(), Some(7));
        tx.commit().unwrap();
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(7));

        let mut tx = stm.begin();
        tx.write(obj, 0, Word::from_scalar(9)).unwrap();
        tx.abort();
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(7));
    }

    #[test]
    fn conflicting_writer_invalidates_reader() {
        let (heap, class, stm) = setup(10);
        let obj = heap.alloc(class).unwrap();
        let mut reader = stm.begin();
        reader.read(obj, 0).unwrap();
        reader.write(obj, 1, Word::from_scalar(1)).unwrap();

        stm.atomically(|tx| tx.write(obj, 0, Word::from_scalar(5)));
        assert_eq!(reader.commit(), Err(OrecConflict::Invalid));
        assert_eq!(heap.load(obj, 1).as_scalar(), Some(0), "rolled back");
    }

    #[test]
    fn reader_of_an_aborted_in_place_store_fails_validation() {
        let (heap, class, stm) = setup(10);
        let obj = heap.alloc(class).unwrap();
        let index = stm.orec_index(obj, 0);

        // The reader logs the orec's version, then a writer acquires
        // the orec and stores in place before the reader's data load.
        let mut reader = stm.begin();
        reader.log_read(index);
        let mut writer = stm.begin();
        writer.write(obj, 0, Word::from_scalar(5)).unwrap();
        let dirty = heap.load(obj, 0);
        assert_eq!(dirty.as_scalar(), Some(5));

        writer.abort();
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(0), "the store was undone");
        assert_eq!(
            reader.commit(),
            Err(OrecConflict::Invalid),
            "the reader saw a value that never committed"
        );
    }

    #[test]
    fn false_conflicts_with_tiny_orec_table() {
        // With a single orec, *disjoint* objects conflict — the
        // structural weakness of hashed ownership records.
        let (heap, class, stm) = setup(1);
        let a = heap.alloc(class).unwrap();
        let b = heap.alloc(class).unwrap();
        // Find two (object, field) pairs sharing an orec.
        let mut pair = None;
        'outer: for fa in 0..2usize {
            for fb in 0..2usize {
                if stm.orec_index(a, fa) == stm.orec_index(b, fb) {
                    pair = Some((fa, fb));
                    break 'outer;
                }
            }
        }
        let Some((fa, fb)) = pair else {
            // 2 orecs; with 4 pairs a collision is guaranteed by
            // pigeonhole across objects or within.
            panic!("expected a colliding pair");
        };
        let mut first = stm.begin();
        first.write(a, fa, Word::from_scalar(1)).unwrap();
        let mut second = stm.begin();
        assert_eq!(
            second.write(b, fb, Word::from_scalar(2)),
            Err(OrecConflict::Busy),
            "disjoint objects, same orec"
        );
        second.abort();
        first.commit().unwrap();
    }

    #[test]
    fn concurrent_increments_serialize() {
        let (heap, class, stm) = setup(8);
        let obj = heap.alloc(class).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stm = &stm;
                scope.spawn(move || {
                    for _ in 0..500 {
                        stm.atomically(|tx| {
                            let v = tx.read(obj, 0)?.as_scalar().unwrap();
                            tx.write(obj, 0, Word::from_scalar(v + 1))
                        });
                    }
                });
            }
        });
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(2000));
    }

    #[test]
    fn drop_aborts() {
        let (heap, class, stm) = setup(8);
        let obj = heap.alloc(class).unwrap();
        {
            let mut tx = stm.begin();
            tx.write(obj, 0, Word::from_scalar(3)).unwrap();
        }
        assert_eq!(heap.load(obj, 0).as_scalar(), Some(0));
        assert_eq!(stm.stats().aborts, 1);
    }
}
