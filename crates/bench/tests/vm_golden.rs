//! Golden results and dynamic counters for the TxIL benchmark programs.
//!
//! Each of the four `omt_bench::programs` runs at every optimization
//! level on the `Sequential` and `DirectStm` backends with a fixed
//! argument, once with the default configuration and once validating
//! every 7 loop back-edges (so region-frame and callee back-edge
//! counting are both pinned down). The expected result and the full
//! `VmCountersSnapshot` were recorded from the block-walking
//! interpreter that preceded the
//! pre-decoded one, so any drift in what the VM executes — an
//! instruction counted twice, a barrier skipped, a back-edge misjudged —
//! shows up here as an exact mismatch.

use std::sync::Arc;

use omt_bench::programs::txil_benchmarks;
use omt_heap::{Heap, Word};
use omt_opt::{compile, OptLevel};
use omt_vm::{BackendKind, SyncBackend, Vm, VmConfig, VmCountersSnapshot};

/// `(program, level, backend, result, [insts, open_read, open_update,
/// log_undo, get_field, set_field, allocs, calls, tx_begun,
/// tx_committed, tx_retries, backedge_validations])`.
type Golden = (&'static str, &'static str, &'static str, i64, [u64; 12]);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("list-traverse", "O0", "sequential", 99500, [10258, 2000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O0", "stm", 99500, [10258, 2000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O0", "sequential/7", 99500, [10258, 2000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O0", "stm/7", 99500, [10258, 2000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O1", "sequential", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O1", "stm", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O1", "sequential/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O1", "stm/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O2", "sequential", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O2", "stm", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O2", "sequential/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O2", "stm/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O3", "sequential", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O3", "stm", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O3", "sequential/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O3", "stm/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O4", "sequential", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O4", "stm", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 0]),
    ("list-traverse", "O4", "sequential/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("list-traverse", "O4", "stm/7", 99500, [9258, 1000, 0, 0, 2000, 0, 200, 1, 5, 5, 0, 140]),
    ("bst-insert", "O0", "sequential", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O0", "stm", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O0", "sequential/7", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O0", "stm/7", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O1", "sequential", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O1", "stm", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O1", "sequential/7", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O1", "stm/7", 11, [4085, 446, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O2", "sequential", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O2", "stm", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O2", "sequential/7", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O2", "stm/7", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O3", "sequential", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O3", "stm", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O3", "sequential/7", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O3", "stm/7", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O4", "sequential", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O4", "stm", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 0]),
    ("bst-insert", "O4", "sequential/7", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("bst-insert", "O4", "stm/7", 11, [3882, 243, 40, 40, 527, 40, 41, 121, 40, 40, 0, 17]),
    ("counter-churn", "O0", "sequential", 8204, [5863, 1000, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O0", "stm", 8204, [5863, 1000, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O0", "sequential/7", 8204, [5863, 1000, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O0", "stm/7", 8204, [5863, 1000, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O1", "sequential", 8204, [5463, 600, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O1", "stm", 8204, [5463, 600, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O1", "sequential/7", 8204, [5463, 600, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O1", "stm/7", 8204, [5463, 600, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O2", "sequential", 8204, [4863, 0, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O2", "stm", 8204, [4863, 0, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O2", "sequential/7", 8204, [4863, 0, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O2", "stm/7", 8204, [4863, 0, 600, 600, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O3", "sequential", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O3", "stm", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O3", "sequential/7", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O3", "stm/7", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O4", "sequential", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O4", "stm", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 0]),
    ("counter-churn", "O4", "sequential/7", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("counter-churn", "O4", "stm/7", 8204, [3687, 0, 12, 12, 1004, 600, 3, 4, 4, 4, 0, 28]),
    ("bank-transfer", "O0", "sequential", 16000, [8210, 840, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O0", "stm", 16000, [8210, 840, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O0", "sequential/7", 16000, [8210, 840, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O0", "stm/7", 16000, [8210, 840, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O1", "sequential", 16000, [8194, 824, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O1", "stm", 16000, [8194, 824, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O1", "sequential/7", 16000, [8194, 824, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O1", "stm/7", 16000, [8194, 824, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O2", "sequential", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O2", "stm", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O2", "sequential/7", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O2", "stm/7", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O3", "sequential", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O3", "stm", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O3", "sequential/7", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O3", "stm/7", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O4", "sequential", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O4", "stm", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 0]),
    ("bank-transfer", "O4", "sequential/7", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
    ("bank-transfer", "O4", "stm/7", 16000, [8100, 730, 94, 94, 840, 94, 16, 95, 48, 48, 0, 104]),
];

fn counters_array(c: VmCountersSnapshot) -> [u64; 12] {
    [
        c.insts,
        c.open_read,
        c.open_update,
        c.log_undo,
        c.get_field,
        c.set_field,
        c.allocs,
        c.calls,
        c.tx_begun,
        c.tx_committed,
        c.tx_retries,
        c.backedge_validations,
    ]
}

fn observed() -> Vec<Golden> {
    let mut rows = Vec::new();
    for (name, src, entry, n) in txil_benchmarks() {
        for level in OptLevel::ALL {
            let (ir, _) = compile(src, level).expect("compile");
            let ir = Arc::new(ir);
            for (kind, every, label) in [
                (BackendKind::Sequential, Some(1024), "sequential"),
                (BackendKind::DirectStm, Some(1024), "stm"),
                (BackendKind::Sequential, Some(7), "sequential/7"),
                (BackendKind::DirectStm, Some(7), "stm/7"),
            ] {
                let heap = Arc::new(Heap::new());
                let backend = Arc::new(SyncBackend::new(kind, heap.clone()));
                let config = VmConfig { validate_backedges_every: every, ..VmConfig::default() };
                let vm = Vm::with_config(ir.clone(), heap, backend, config);
                let result = vm
                    .run(entry, &[Word::from_scalar(n / 10)])
                    .expect("run")
                    .and_then(Word::as_scalar)
                    .expect("scalar result");
                let level = match level {
                    OptLevel::O0 => "O0",
                    OptLevel::O1 => "O1",
                    OptLevel::O2 => "O2",
                    OptLevel::O3 => "O3",
                    OptLevel::O4 => "O4",
                };
                rows.push((name, level, label, result, counters_array(vm.counters())));
            }
        }
    }
    rows
}

#[test]
fn benchmark_programs_reproduce_golden_results_and_counters() {
    let rows = observed();
    assert_eq!(rows.len(), GOLDEN.len(), "one golden row per program, level and backend");
    for (got, want) in rows.iter().zip(GOLDEN) {
        assert_eq!(got, want, "{} at {} on {}", want.0, want.1, want.2);
    }
}
