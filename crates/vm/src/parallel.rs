//! Multithreaded execution harness.
//!
//! Spawns one [`Vm`] per thread over a shared program, heap, and
//! backend, runs a per-thread entry function, and aggregates dynamic
//! counters — the engine behind the scalability experiments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omt_heap::{Heap, Word};
use omt_ir::IrProgram;

use crate::backend::SyncBackend;
use crate::counters::VmCountersSnapshot;
use crate::vm::{Vm, VmConfig, VmError};

/// Result of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-thread return values.
    pub results: Vec<Option<Word>>,
    /// Summed dynamic counters across threads.
    pub counters: VmCountersSnapshot,
}

impl ParallelOutcome {
    /// Throughput in "returned scalar units" per second: the sum of
    /// per-thread scalar return values divided by elapsed time. Threads
    /// conventionally return their completed-operation count.
    pub fn ops_per_second(&self) -> f64 {
        let total: i64 =
            self.results.iter().map(|r| r.and_then(Word::as_scalar).unwrap_or(0)).sum();
        total as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `entry(thread_index)` on `threads` interpreter threads sharing
/// `program`, `heap`, and `backend`.
///
/// Each thread calls the entry function with the argument words
/// produced by `args_for`; the convention in the benchmark programs is
/// to return the number of operations completed.
///
/// # Errors
///
/// Returns the first per-thread error, if any.
pub fn run_parallel(
    program: &Arc<IrProgram>,
    heap: &Arc<Heap>,
    backend: &Arc<SyncBackend>,
    config: VmConfig,
    entry: &str,
    threads: usize,
    args_for: impl Fn(usize) -> Vec<Word> + Sync,
) -> Result<ParallelOutcome, VmError> {
    assert!(threads >= 1, "need at least one thread");
    let start = Instant::now();
    let outcomes: Vec<Result<(Option<Word>, VmCountersSnapshot), VmError>> =
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let program = Arc::clone(program);
                let heap = Arc::clone(heap);
                let backend = Arc::clone(backend);
                let args = args_for(t);
                handles.push(scope.spawn(move || {
                    let vm = Vm::with_config(program, heap, backend, config);
                    let result = vm.run(entry, &args)?;
                    Ok((result, vm.counters()))
                }));
            }
            handles.into_iter().map(|h| h.join().expect("vm thread panicked")).collect()
        });
    let elapsed = start.elapsed();

    let mut results = Vec::with_capacity(threads);
    let mut counters = VmCountersSnapshot::default();
    for outcome in outcomes {
        let (result, c) = outcome?;
        results.push(result);
        counters = counters.merged(&c);
    }
    Ok(ParallelOutcome { elapsed, results, counters })
}
