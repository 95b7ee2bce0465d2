//! The cost ladder for one uncontended transaction, timed from outside:
//! an empty transaction and one of two reads plus two writes, on the
//! workload's own `StmConfig`, next to the reference rungs of an
//! uncontended mutex and the hashed-orec baseline STM.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use omt_baselines::OrecStm;
use omt_heap::{ClassDesc, Heap, ObjRef, Word};
use omt_stm::{Stm, StmConfig};

use crate::stats::median;
use crate::trace;

/// Transactions per timed batch.
const BATCH: u32 = 20_000;
/// Timed batches per rung (after one untimed warm-up batch).
const BATCHES: usize = 7;

/// Median nanoseconds per call of `op` over [`BATCHES`] batches.
fn per_op_ns(name: &'static str, mut op: impl FnMut()) -> f64 {
    for _ in 0..BATCH {
        op();
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let ((), ns) = trace::timed(name, b as u64, || {
                for _ in 0..BATCH {
                    op();
                }
            });
            ns as f64 / f64::from(BATCH)
        })
        .collect();
    median(&samples)
}

fn two_cells(heap: &Heap) -> (ObjRef, ObjRef) {
    let class = heap.define_class(ClassDesc::with_var_fields("Cell", &["v"]));
    let a = heap.alloc(class).expect("a fresh heap holds two cells");
    let b = heap.alloc(class).expect("a fresh heap holds two cells");
    heap.store(a, 0, Word::from_scalar(1));
    heap.store(b, 0, Word::from_scalar(2));
    (a, b)
}

/// `(empty, 2r2w)` nanoseconds per transaction through
/// [`Stm::atomically`] under `config`.
pub fn stm_rungs(config: StmConfig) -> (f64, f64) {
    let heap = Arc::new(Heap::new());
    let (a, b) = two_cells(&heap);
    let stm = Stm::with_config(heap, config);
    let empty = per_op_ns("stm.atomically.empty", || stm.atomically(|_| Ok(())));
    let rw = per_op_ns("stm.atomically.2r2w", || {
        stm.atomically(|tx| {
            let x = tx.read(a, 0)?;
            let y = tx.read(b, 0)?;
            tx.write(a, 0, y)?;
            tx.write(b, 0, x)
        })
    });
    (empty, rw)
}

/// `(mutex 2r2w, orec empty, orec 2r2w)` nanoseconds per operation.
pub fn baseline_rungs() -> (f64, f64, f64) {
    let cells = Mutex::new((1i64, 2i64));
    let mutex = per_op_ns("baseline.mutex.2r2w", || {
        let mut g = cells.lock().expect("the benchmark thread never panics holding it");
        let (x, y) = *black_box(&*g);
        *g = (y, x);
    });

    let heap = Arc::new(Heap::new());
    let (a, b) = two_cells(&heap);
    let orec = OrecStm::new(heap, 16);
    let orec_empty = per_op_ns("baseline.orec.empty", || orec.atomically(|_| Ok(())));
    let orec_rw = per_op_ns("baseline.orec.2r2w", || {
        orec.atomically(|tx| {
            let x = tx.read(a, 0)?;
            let y = tx.read(b, 0)?;
            tx.write(a, 0, y)?;
            tx.write(b, 0, x)
        })
    });
    (mutex, orec_empty, orec_rw)
}
