//! The reproduction experiments E1–E9 (see DESIGN.md for the mapping to
//! the paper's tables and figures).

use std::sync::Arc;
use std::time::Instant;

use omt_heap::{Heap, RootSet};
use omt_opt::{compile, OptLevel};
use omt_stm::{CmPolicy, Stm, StmConfig};
use omt_vm::{BackendKind, VmConfig};
use omt_workloads::{
    prefill, run_bank_workload, run_contention_point, run_contention_storm, run_set_workload, Bank,
    CoarseStdSet, ConcurrentSet, CounterArray, HandOverHandList, LockBank, OpMix, RwStdSet,
    SetWorkload, StmBank, StmBst, StmHashSet, StmSkipList, StmSortedList, StripedHashSet,
};

use crate::harness::{ms, ratio, time_txil, time_txil_with, Table};
use crate::programs::{txil_benchmarks, COUNTER_CHURN};

/// Experiment sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Multiplier on iteration counts (1 = quick, 4 = full).
    pub factor: i64,
    /// Thread counts to sweep.
    pub threads: &'static [usize],
}

impl Scale {
    /// Fast sizes for CI and smoke runs.
    pub const QUICK: Scale = Scale { factor: 1, threads: &[1, 2, 4] };
    /// The sizes used for EXPERIMENTS.md numbers.
    pub const FULL: Scale = Scale { factor: 4, threads: &[1, 2, 4, 8] };
}

/// E1 — single-threaded overhead of each optimization level, normalized
/// to uninstrumented sequential execution (paper: the headline
/// "overhead reduction" figure).
pub fn e1_overhead(scale: Scale) {
    let mut table = Table::new(
        "E1: single-thread execution time, normalized to sequential (lower is better)",
        &["benchmark", "seq(ms)", "seq ns/inst", "O0", "O1", "O2", "O3", "O4", "wstm"],
    );
    for (name, src, entry, base_n) in txil_benchmarks() {
        let n = base_n * scale.factor;
        let seq = crate::harness::time_txil_uninstrumented(src, entry, n);
        // The interpreter's own cost: what every IR instruction pays
        // before any barrier does.
        let ns_per_inst = seq.elapsed.as_nanos() as f64 / seq.counters.insts.max(1) as f64;
        let mut cells = vec![name.to_string(), ms(seq.elapsed), format!("{ns_per_inst:.2}")];
        for level in OptLevel::ALL {
            let run = time_txil(src, level, BackendKind::DirectStm, entry, n);
            assert_eq!(run.result, seq.result, "{name}@{level} diverged");
            cells.push(ratio(run.elapsed, seq.elapsed));
        }
        // The buffered STM cannot exploit decomposed barriers; its level
        // is irrelevant, shown once.
        let wstm = time_txil(src, OptLevel::O2, BackendKind::Buffered, entry, n);
        assert_eq!(wstm.result, seq.result, "{name}@wstm diverged");
        cells.push(ratio(wstm.elapsed, seq.elapsed));
        table.row(cells);
    }
    table.print();
}

/// E2 — hash-table scalability: the paper's headline comparison against
/// coarse- and fine-grained locks.
pub fn e2_hashtable(scale: Scale) {
    for (mix_name, mix) in
        [("read-heavy 90/5/5", OpMix::READ_HEAVY), ("write-heavy 50/25/25", OpMix::WRITE_HEAVY)]
    {
        let workload = SetWorkload {
            initial_size: 256,
            key_range: 1024,
            mix,
            ops_per_thread: 4_000 * scale.factor as usize,
            seed: 42,
        };
        let mut table = Table::new(
            format!("E2: hash table ops/s, {mix_name} mix"),
            &header_with_threads("impl", scale.threads),
        );
        let coarse = CoarseStdSet::new();
        prefill(&coarse, &workload);
        table.row(sweep_row("coarse-lock", &coarse, &workload, scale.threads));
        let rw = RwStdSet::new();
        prefill(&rw, &workload);
        table.row(sweep_row("rwlock", &rw, &workload, scale.threads));
        let fine = StripedHashSet::new(64);
        prefill(&fine, &workload);
        table.row(sweep_row("fine (native mem)", &fine, &workload, scale.threads));
        let heap_fine = omt_workloads::HeapStripedHashSet::new(Arc::new(Heap::new()), 64);
        prefill(&heap_fine, &workload);
        table.row(sweep_row("fine (managed heap)", &heap_fine, &workload, scale.threads));
        let stm = StmHashSet::new(Arc::new(Stm::new(Arc::new(Heap::new()))), 64);
        prefill(&stm, &workload);
        table.row(sweep_row("stm", &stm, &workload, scale.threads));
        table.print();
    }
}

/// E3 — scalability on list-, tree-, and skip-list-shaped structures.
pub fn e3_structures(scale: Scale) {
    let list_workload = SetWorkload {
        initial_size: 64,
        key_range: 128,
        mix: OpMix::READ_HEAVY,
        ops_per_thread: 600 * scale.factor as usize,
        seed: 43,
    };
    let mut table = Table::new(
        "E3a: sorted list ops/s (long transactions)",
        &header_with_threads("impl", scale.threads),
    );
    let coarse = CoarseStdSet::new();
    prefill(&coarse, &list_workload);
    table.row(sweep_row("coarse-lock", &coarse, &list_workload, scale.threads));
    let hoh = HandOverHandList::new();
    prefill(&hoh, &list_workload);
    table.row(sweep_row("fine (lock-coupling)", &hoh, &list_workload, scale.threads));
    let stm_list = StmSortedList::new(Arc::new(Stm::new(Arc::new(Heap::new()))));
    prefill(&stm_list, &list_workload);
    table.row(sweep_row("stm", &stm_list, &list_workload, scale.threads));
    table.print();

    let tree_workload = SetWorkload {
        initial_size: 512,
        key_range: 4096,
        mix: OpMix::READ_HEAVY,
        ops_per_thread: 3_000 * scale.factor as usize,
        seed: 44,
    };
    let mut table =
        Table::new("E3b: binary search tree ops/s", &header_with_threads("impl", scale.threads));
    let coarse = CoarseStdSet::new();
    prefill(&coarse, &tree_workload);
    table.row(sweep_row("coarse-lock", &coarse, &tree_workload, scale.threads));
    let rw = RwStdSet::new();
    prefill(&rw, &tree_workload);
    table.row(sweep_row("rwlock", &rw, &tree_workload, scale.threads));
    let stm_tree = StmBst::new(Arc::new(Stm::new(Arc::new(Heap::new()))));
    prefill(&stm_tree, &tree_workload);
    table.row(sweep_row("stm", &stm_tree, &tree_workload, scale.threads));
    table.print();

    let mut table = Table::new("E3c: skip list ops/s", &header_with_threads("impl", scale.threads));
    let coarse = CoarseStdSet::new();
    prefill(&coarse, &tree_workload);
    table.row(sweep_row("coarse-lock", &coarse, &tree_workload, scale.threads));
    let stm_skip = StmSkipList::new(Arc::new(Stm::new(Arc::new(Heap::new()))));
    prefill(&stm_skip, &tree_workload);
    table.row(sweep_row("stm", &stm_skip, &tree_workload, scale.threads));
    table.print();
}

/// E3d — the composite travel workload: multi-structure transactions
/// (three tree moves + a customer update per booking).
pub fn e3d_travel(scale: Scale) {
    use omt_workloads::{run_travel_workload, TravelSystem};
    let mut table = Table::new(
        "E3d: travel bookings (3-structure transactions), attempts/s",
        &header_with_threads("config", scale.threads),
    );
    for (label, resources) in [("64 resources/kind", 64usize), ("8 resources/kind", 8)] {
        let mut cells = vec![label.to_string()];
        for &threads in scale.threads {
            let stm = Arc::new(Stm::new(Arc::new(Heap::new())));
            let travel = TravelSystem::new(stm, resources, 16);
            let outcome = run_travel_workload(&travel, threads, 500 * scale.factor as usize, 53);
            travel.check_invariants();
            cells.push(format!("{:.0}", outcome.attempts_per_second()));
        }
        table.row(cells);
    }
    table.print();
}

/// E4 — static and dynamic barrier counts per optimization level (the
/// compiler's contribution, measured directly).
pub fn e4_barrier_counts(scale: Scale) {
    for (name, src, entry, base_n) in txil_benchmarks() {
        let n = base_n * scale.factor;
        let mut table = Table::new(
            format!("E4: barriers for `{name}` (n = {n})"),
            &[
                "level",
                "static",
                "dyn open-read",
                "dyn open-update",
                "dyn log-undo",
                "barriers/access",
            ],
        );
        for level in OptLevel::ALL {
            let (_, report) = compile(src, level).expect("compiles");
            let (sr, su, sn) = report.static_barriers;
            let run = time_txil(src, level, BackendKind::DirectStm, entry, n);
            let c = run.counters;
            table.row(vec![
                level.to_string(),
                (sr + su + sn).to_string(),
                c.open_read.to_string(),
                c.open_update.to_string(),
                c.log_undo.to_string(),
                format!("{:.3}", c.barriers_per_access()),
            ]);
        }
        table.print();
    }
}

/// A list summed five times inside ONE transaction: 80% of its read
/// opens are loop-carried duplicates only the runtime filter can catch
/// at O1.
const LIST_RETRAVERSE: &str = "
    class Node { val key: int; var next: Node; }
    fn build(n: int) -> Node {
        let head: Node = null;
        let i = 0;
        while i < n { head = new Node(i, head); i = i + 1; }
        return head;
    }
    fn main(n: int) -> int {
        let list = build(100);
        let total = 0;
        let round = 0;
        while round < n {
            atomic {
                let pass = 0;
                while pass < 5 {
                    let p = list;
                    while p != null { total = total + p.key; p = p.next; }
                    pass = pass + 1;
                }
            }
            round = round + 1;
        }
        return total;
    }
";

/// E5 — runtime log filtering: entries appended vs suppressed, with the
/// filter on and off.
pub fn e5_filter(scale: Scale) {
    let mut table = Table::new(
        "E5: runtime log filter (direct STM, level O1 so duplicates reach the runtime)",
        &[
            "benchmark",
            "filter",
            "read entries",
            "read filtered",
            "undo entries",
            "undo filtered",
            "val fast-path",
            "val scanned",
            "time(ms)",
        ],
    );
    for (name, src, entry, base_n) in [
        ("counter-churn", COUNTER_CHURN, "main", 40),
        ("list-retraverse", LIST_RETRAVERSE, "main", 20),
    ] {
        let n = base_n * scale.factor;
        for filter in [true, false] {
            let (ir, _) = compile(src, OptLevel::O1).expect("compiles");
            let heap = Arc::new(Heap::new());
            let stm = Stm::with_config(
                heap.clone(),
                StmConfig { runtime_filter: filter, ..StmConfig::default() },
            );
            let backend = Arc::new(omt_vm::SyncBackend::DirectStm(stm));
            let vm = omt_vm::Vm::new(Arc::new(ir), heap, backend.clone());
            let start = Instant::now();
            vm.run(entry, &[omt_heap::Word::from_scalar(n)]).expect("runs");
            let elapsed = start.elapsed();
            let stats = backend.as_stm().expect("direct").stats();
            table.row(vec![
                name.to_string(),
                if filter { "on" } else { "off" }.to_string(),
                stats.read_entries.to_string(),
                stats.read_filtered.to_string(),
                stats.undo_entries.to_string(),
                stats.undo_filtered.to_string(),
                stats.validation_fast_path.to_string(),
                stats.validation_entries_scanned.to_string(),
                ms(elapsed),
            ]);
        }
    }
    table.print();
}

/// E6 — GC integration: log footprint of a long transaction with the
/// paper's GC-time trimming, versus a conventional GC that must treat
/// log entries as ordinary roots (pinning everything the transaction
/// ever touched).
pub fn e6_gc(scale: Scale) {
    let mut table = Table::new(
        "E6: GC / transaction-log integration for a long transaction",
        &[
            "gc treats logs as",
            "entries before",
            "entries after",
            "log bytes after",
            "objects swept",
            "gc(ms)",
        ],
    );
    for trim in [true, false] {
        let heap = Arc::new(Heap::new());
        let class = heap.define_class(omt_heap::ClassDesc::with_var_fields("Cell", &["v"]));
        let stm = Stm::new(heap.clone());
        let keeper = heap.alloc(class).expect("heap full");
        let mut tx = stm.begin();
        let n = 20_000 * scale.factor as usize;
        let mut touched = Vec::with_capacity(n);
        for _ in 0..n {
            let o = heap.alloc(class).expect("heap full");
            tx.read(o, 0).expect("read");
            touched.push(o);
        }
        tx.read(keeper, 0).expect("read");
        let before = tx.read_set_size();
        let mut roots = RootSet::from(vec![keeper]);
        if !trim {
            // A GC that does not understand transaction logs must keep
            // every logged object alive: model it by rooting them.
            roots.extend(touched.iter().copied());
        }
        let participants: &[&dyn omt_heap::GcParticipant] =
            if trim { &[stm.gc_participant()] } else { &[] };
        let start = Instant::now();
        let outcome = heap.collect(&roots, participants);
        let gc_time = start.elapsed();
        table.row(vec![
            if trim { "trimmable (paper)" } else { "roots (naive)" }.to_string(),
            before.to_string(),
            tx.read_set_size().to_string(),
            stm.registry().total_log_bytes().to_string(),
            outcome.swept.to_string(),
            ms(gc_time),
        ]);
        tx.commit().expect("no conflicts");
    }
    table.print();
}

/// The contention-management policies ablated in E7.
const CM_POLICIES: [CmPolicy; 4] =
    [CmPolicy::AbortSelf, CmPolicy::Spin { max_spins: 128 }, CmPolicy::OldestWins, CmPolicy::Karma];

/// E7 — contention management: throughput and abort rate as the hot-set
/// shrinks, the policy ablation (abort-self / spin / oldest-wins /
/// karma) with per-cause abort breakdowns, and the serial-mode-fallback
/// storm.
pub fn e7_contention(scale: Scale) {
    let threads = *scale.threads.last().unwrap_or(&4);
    let mut table = Table::new(
        format!("E7a: contention sweep ({threads} threads incrementing counters)"),
        &["hot cells", "ops/s", "aborts", "abort rate", "cm spins"],
    );
    for hot in [256usize, 64, 16, 4, 1] {
        let counters = CounterArray::new(Arc::new(Stm::new(Arc::new(Heap::new()))), 256);
        let outcome =
            run_contention_point(&counters, threads, 2_000 * scale.factor as usize, hot, 7);
        table.row(vec![
            hot.to_string(),
            format!("{:.0}", outcome.ops_per_second()),
            outcome.stats.aborts().to_string(),
            format!("{:.4}", outcome.stats.abort_rate()),
            outcome.stats.cm_spins.to_string(),
        ]);
    }
    table.print();

    let cause_headers = [
        "policy",
        "ops/s",
        "aborts",
        "busy",
        "invalid",
        "doomed",
        "dooms",
        "serial",
        "cm spins",
        "val fast-path%",
        "val scans/commit",
        "clk cas-fail%",
        "clk bump-retry",
    ];
    let cause_row = |name: String, ops: f64, s: &omt_stm::StmStatsSnapshot| {
        vec![
            name,
            format!("{ops:.0}"),
            s.aborts().to_string(),
            s.aborts_busy.to_string(),
            s.aborts_invalid.to_string(),
            s.aborts_doomed.to_string(),
            s.dooms_issued.to_string(),
            s.serial_entries.to_string(),
            s.cm_spins.to_string(),
            format!("{:.1}", s.validation_fast_path_rate() * 100.0),
            format!("{:.2}", s.entries_scanned_per_commit()),
            format!("{:.2}", s.clock_cas_failure_rate() * 100.0),
            s.clock_bump_retries.to_string(),
        ]
    };

    let mut table = Table::new(
        format!("E7b: CM policy ablation, counter array ({threads} threads, 4 hot cells)"),
        &cause_headers,
    );
    for cm in CM_POLICIES {
        let stm = Arc::new(Stm::with_config(
            Arc::new(Heap::new()),
            StmConfig { cm, ..StmConfig::default() },
        ));
        let counters = CounterArray::new(stm, 256);
        let per_thread = 2_000 * scale.factor as usize;
        let outcome = run_contention_point(&counters, threads, per_thread, 4, 11);
        assert_eq!(counters.total(), (threads * per_thread) as i64, "{cm}: lost increments");
        table.row(cause_row(cm.to_string(), outcome.ops_per_second(), &outcome.stats));
    }
    table.print();

    let mut table = Table::new(
        format!("E7c: CM policy ablation, bank transfers ({threads} threads, 2 hot accounts)"),
        &cause_headers,
    );
    for cm in CM_POLICIES {
        let stm = Arc::new(Stm::with_config(
            Arc::new(Heap::new()),
            StmConfig { cm, ..StmConfig::default() },
        ));
        let bank = StmBank::new(stm.clone(), 2, 10_000);
        let before = stm.stats();
        let outcome = run_bank_workload(&bank, threads, 2_000 * scale.factor as usize, None, 19);
        assert_eq!(bank.total(), 20_000, "{cm}: money not conserved");
        let stats = stm.stats().delta_since(&before);
        table.row(cause_row(cm.to_string(), outcome.transfers_per_second(), &stats));
    }
    table.print();

    let mut table = Table::new(
        format!("E7d: serial-mode fallback storm ({threads} threads, 1 hot cell, abort-self CM)"),
        &["serial threshold", "ops/s", "aborts", "serial entries", "all committed"],
    );
    for serial_after in [None, Some(8u32)] {
        let stm = Arc::new(Stm::with_config(
            Arc::new(Heap::new()),
            StmConfig {
                cm: CmPolicy::AbortSelf,
                serial_after_aborts: serial_after,
                ..StmConfig::default()
            },
        ));
        let counters = CounterArray::new(stm, 1);
        let per_thread = 1_000 * scale.factor as usize;
        let outcome = run_contention_storm(&counters, threads, per_thread);
        let complete = outcome.per_thread.iter().all(|&c| c == per_thread as u64);
        assert!(complete, "storm livelocked: {:?}", outcome.per_thread);
        assert_eq!(counters.total(), (threads * per_thread) as i64);
        table.row(vec![
            serial_after.map_or("off".to_string(), |n| n.to_string()),
            format!("{:.0}", outcome.total() as f64 / outcome.elapsed.as_secs_f64()),
            outcome.stats.aborts().to_string(),
            outcome.stats.serial_entries.to_string(),
            "yes".to_string(),
        ]);
    }
    table.print();
}

/// E8 — design ablation: direct update + undo log vs buffered update
/// (the structural comparison the paper stakes its design on).
pub fn e8_direct_vs_buffered(scale: Scale) {
    let mut table = Table::new(
        "E8a: direct-access vs buffered STM (single-thread TxIL benchmarks)",
        &["benchmark", "direct(ms)", "buffered(ms)", "buffered/direct"],
    );
    for (name, src, entry, base_n) in txil_benchmarks() {
        let n = base_n * scale.factor;
        let direct = time_txil(src, OptLevel::O4, BackendKind::DirectStm, entry, n);
        let buffered = time_txil(src, OptLevel::O4, BackendKind::Buffered, entry, n);
        assert_eq!(direct.result, buffered.result, "{name} diverged");
        table.row(vec![
            name.to_string(),
            ms(direct.elapsed),
            ms(buffered.elapsed),
            ratio(buffered.elapsed, direct.elapsed),
        ]);
    }
    table.print();

    let mut table = Table::new(
        "E8b: bank transfers per second, direct STM vs fine-grained locks",
        &["impl", "transfers/s", "total conserved"],
    );
    let threads = *scale.threads.last().unwrap_or(&4);
    let transfers = 5_000 * scale.factor as usize;
    let stm_bank = StmBank::new(Arc::new(Stm::new(Arc::new(Heap::new()))), 64, 1_000);
    let outcome = run_bank_workload(&stm_bank, threads, transfers, None, 29);
    table.row(vec![
        "stm (direct)".into(),
        format!("{:.0}", outcome.transfers_per_second()),
        (stm_bank.total() == 64_000).to_string(),
    ]);
    let lock_bank = LockBank::new(64, 1_000);
    let outcome = run_bank_workload(&lock_bank, threads, transfers, None, 29);
    table.row(vec![
        "fine-grained locks".into(),
        format!("{:.0}", outcome.transfers_per_second()),
        (lock_bank.total() == 64_000).to_string(),
    ]);
    table.print();
}

/// E8c — metadata placement: per-object header words (the paper's
/// design) versus a hashed ownership-record table, measured by false
/// conflicts on disjoint-object workloads.
pub fn e8c_metadata_placement(scale: Scale) {
    use omt_baselines::OrecStm;
    use omt_heap::{ClassDesc, Word};
    use omt_util::rng::StdRng;

    let threads = *scale.threads.last().unwrap_or(&4);
    let increments = 2_000 * scale.factor as usize;
    const OBJECTS: usize = 1024;

    let mut table = Table::new(
        format!("E8c: metadata placement — {threads} threads, {OBJECTS} disjoint counters"),
        &["metadata", "ops/s", "aborts", "false-share %"],
    );

    // Per-object header words (omt-stm): disjoint objects can never
    // share metadata, by construction.
    {
        let stm = Arc::new(Stm::new(Arc::new(Heap::new())));
        let counters = CounterArray::new(stm.clone(), OBJECTS);
        let outcome = run_contention_point(&counters, threads, increments, OBJECTS, 37);
        table.row(vec![
            "object header (paper)".into(),
            format!("{:.0}", outcome.ops_per_second()),
            outcome.stats.aborts().to_string(),
            "0.00".into(),
        ]);
    }

    // Hashed orec tables of decreasing size: smaller tables mean more
    // distinct objects sharing one ownership record (false conflicts).
    for bits in [16u32, 8, 4] {
        let heap = Arc::new(Heap::new());
        let class = heap.define_class(ClassDesc::with_var_fields("Counter", &["value"]));
        let cells: Vec<_> = (0..OBJECTS).map(|_| heap.alloc(class).expect("heap full")).collect();
        let stm = OrecStm::new(heap.clone(), bits);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let stm = &stm;
                let cells = &cells;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(37 + t as u64 * 31337);
                    for _ in 0..increments {
                        let cell = cells[rng.gen_range(0..OBJECTS)];
                        stm.atomically(|tx| {
                            let v = tx.read(cell, 0)?.as_scalar().unwrap_or(0);
                            tx.write(cell, 0, Word::from_scalar(v + 1))
                        });
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        let total: i64 = cells.iter().map(|c| heap.load(*c, 0).as_scalar().unwrap_or(0)).sum();
        assert_eq!(total as usize, threads * increments, "lost updates");
        // Structural false-sharing probability: how often two random
        // *distinct* counters map to the same ownership record.
        let mut rng = StdRng::seed_from_u64(99);
        let mut collisions = 0u32;
        const SAMPLES: u32 = 20_000;
        for _ in 0..SAMPLES {
            let a = rng.gen_range(0..OBJECTS);
            let mut b = rng.gen_range(0..OBJECTS - 1);
            if b >= a {
                b += 1;
            }
            if stm.orec_index(cells[a], 0) == stm.orec_index(cells[b], 0) {
                collisions += 1;
            }
        }
        table.row(vec![
            format!("orec table 2^{bits}"),
            format!("{:.0}", (threads * increments) as f64 / elapsed.as_secs_f64()),
            stm.stats().aborts.to_string(),
            format!("{:.2}", collisions as f64 * 100.0 / SAMPLES as f64),
        ]);
    }
    table.print();
}

/// E9 — sandboxing and version overflow.
pub fn e9_sandbox_overflow(scale: Scale) {
    // (a) Back-edge validation cost: the counter-churn loop spends its
    // time inside one transactional loop; validating more often costs
    // more but bounds zombie lifetime.
    let mut table = Table::new(
        "E9a: back-edge validation period vs single-thread time (counter-churn)",
        &["validate every", "time(ms)", "back-edge validations"],
    );
    let n = 40 * scale.factor;
    for every in [Some(16u32), Some(256), Some(4096), None] {
        let run = time_txil_with(
            COUNTER_CHURN,
            OptLevel::O2,
            BackendKind::DirectStm,
            "main",
            n,
            VmConfig { validate_backedges_every: every, ..VmConfig::default() },
        );
        table.row(vec![
            every.map_or("off".to_string(), |e| e.to_string()),
            ms(run.elapsed),
            run.counters.backedge_validations.to_string(),
        ]);
    }
    table.print();

    // (b) Version-number width: tiny widths wrap constantly, each wrap
    // bumping the epoch and aborting concurrent transactions.
    let mut table = Table::new(
        "E9b: version width vs throughput (4 threads, 16 counters)",
        &["version bits", "ops/s", "epoch bumps", "epoch aborts"],
    );
    for bits in [6u32, 10, 62] {
        let stm = Arc::new(Stm::with_config(
            Arc::new(Heap::new()),
            StmConfig { version_bits: bits, ..StmConfig::default() },
        ));
        let counters = CounterArray::new(stm.clone(), 16);
        let outcome = run_contention_point(&counters, 4, 2_000 * scale.factor as usize, 16, 23);
        table.row(vec![
            bits.to_string(),
            format!("{:.0}", outcome.ops_per_second()),
            stm.epoch().to_string(),
            outcome.stats.aborts_epoch.to_string(),
        ]);
    }
    table.print();
}

/// Runs every experiment.
pub fn run_all(scale: Scale) {
    e1_overhead(scale);
    e2_hashtable(scale);
    e3_structures(scale);
    e3d_travel(scale);
    e4_barrier_counts(scale);
    e5_filter(scale);
    e6_gc(scale);
    e7_contention(scale);
    e8_direct_vs_buffered(scale);
    e8c_metadata_placement(scale);
    e9_sandbox_overflow(scale);
}

fn header_with_threads(first: &str, threads: &[usize]) -> Vec<&'static str> {
    // Leak tiny strings: simplest way to build &'static headers for a
    // handful of thread counts; bounded by the sweep size.
    let mut headers: Vec<&'static str> = vec![Box::leak(first.to_owned().into_boxed_str())];
    for t in threads {
        headers.push(Box::leak(format!("{t} thr (ops/s)").into_boxed_str()));
    }
    headers
}

fn sweep_row(
    name: &str,
    set: &dyn ConcurrentSet,
    workload: &SetWorkload,
    threads: &[usize],
) -> Vec<String> {
    let mut cells = vec![name.to_string()];
    for &t in threads {
        let outcome = run_set_workload(set, workload, t);
        cells.push(format!("{:.0}", outcome.ops_per_second()));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests: each experiment must run end-to-end at tiny scale.
    const TINY: Scale = Scale { factor: 1, threads: &[1, 2] };

    #[test]
    fn e1_runs() {
        e1_overhead(TINY);
    }

    #[test]
    fn e3d_runs() {
        e3d_travel(TINY);
    }

    #[test]
    fn e4_and_e5_run() {
        e4_barrier_counts(TINY);
        e5_filter(TINY);
    }

    #[test]
    fn e6_and_e9_run() {
        e6_gc(TINY);
        e9_sandbox_overflow(TINY);
    }

    #[test]
    fn e7_and_e8_run() {
        e7_contention(TINY);
        e8_direct_vs_buffered(TINY);
        e8c_metadata_placement(TINY);
    }
}
