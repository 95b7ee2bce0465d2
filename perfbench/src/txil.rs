//! `txil-o4`: the four TxIL benchmark programs compiled at O4 and run
//! back to back on one thread, on the direct-access STM backend under
//! the paper profile (`StmConfig::default()`).
//!
//! It is the paper's own claim and the only workload that passes
//! through the front end, the optimizer, the VM and the decomposed
//! barriers. It is uncontended, and its barrier counts repeat exactly.
//! An operation is one `Vm::run` of one program with a seeded argument;
//! list-traverse's read-only transactions count as reads, the other
//! three programs as writes. The heap is collected after every run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use omt_bench::programs::txil_benchmarks;
use omt_heap::{Heap, RootSet, Word};
use omt_opt::{OptLevel, PipelineReport};
use omt_stm::StmConfig;
use omt_util::rng::StdRng;
use omt_vm::{BackendKind, SyncBackend, Vm, VmCountersSnapshot};

use crate::probe::Probe;
use crate::stats::{median, ratio, Hist};
use crate::{sub_seed, subwindows, trace, trace_overhead, Opts, Report, Window};

/// The programs, in `omt_bench::programs::txil_benchmarks` order.
pub const PROGRAMS: [&str; 4] = ["list-traverse", "bst-insert", "counter-churn", "bank-transfer"];
/// Optimization level the programs are compiled at.
pub const LEVEL: OptLevel = OptLevel::O4;
/// Per program, the smallest argument; a run draws one of the next
/// [`ARG_CHOICES`] values.
pub const ARG_BASE: [i64; 4] = [5, 40, 4, 50];
/// Distinct arguments per program. Odd, so that the write runs fall
/// into an odd number of equally likely (program, argument) groups and
/// each median lands inside one group rather than on the gap between
/// two, where it would jump between them from run to run.
pub const ARG_CHOICES: i64 = 7;
/// Compilations per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Probe chunks before each compilation.
const SETUP_PROBES: usize = 4;
/// Program runs between two probe chunks (about 10 ms).
const PROBE_EVERY: u64 = 64;
/// Passes per backend when pricing the STM against sequential runs.
const SHARE_REPS: usize = 5;

/// The `(program, argument)` sequence of `seed`.
pub fn inputs(seed: u64) -> impl Iterator<Item = (usize, i64)> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    std::iter::repeat_with(move || {
        let p = rng.gen_range(0..PROGRAMS.len());
        (p, ARG_BASE[p] + rng.gen_range(0..ARG_CHOICES))
    })
}

/// The first `n` inputs of `seed`, as bytes.
pub fn input_bytes(seed: u64, n: usize) -> Vec<u8> {
    inputs(seed)
        .take(n)
        .flat_map(|(p, arg)| [vec![p as u8], arg.to_le_bytes().to_vec()].concat())
        .collect()
}

/// The compiled programs on one backend.
struct Suite {
    heap: Arc<Heap>,
    backend: Arc<SyncBackend>,
    vms: Vec<Vm>,
}

impl Suite {
    fn new(programs: &[Arc<omt_ir::IrProgram>], kind: BackendKind) -> Suite {
        let heap = Arc::new(Heap::new());
        let backend =
            Arc::new(SyncBackend::with_stm_config(kind, heap.clone(), StmConfig::default()));
        let vms =
            programs.iter().map(|ir| Vm::new(ir.clone(), heap.clone(), backend.clone())).collect();
        Suite { heap, backend, vms }
    }

    /// Runs program `p` with `arg`; the program's answer.
    fn run(&self, p: usize, arg: i64, seq: u64) -> Result<i64, String> {
        let (out, _) =
            trace::timed("vm.Vm::run", seq, || self.vms[p].run("main", &[Word::from_scalar(arg)]));
        match out {
            Ok(Some(w)) => w.as_scalar().ok_or_else(|| format!("{} returned {w:?}", PROGRAMS[p])),
            other => Err(format!("{}({arg}) returned {other:?}", PROGRAMS[p])),
        }
    }

    /// Collects the heap (no transaction is live between runs); returns
    /// the live objects before the collection.
    fn collect(&self, seq: u64) -> u64 {
        let participants: Vec<&dyn omt_heap::GcParticipant> =
            self.backend.as_stm().map(|s| vec![s.gc_participant()]).unwrap_or_default();
        let (outcome, _) = trace::timed("heap.Heap::collect", seq, || {
            self.heap.collect(&RootSet::new(), &participants)
        });
        outcome.live_before
    }

    fn counters(&self) -> VmCountersSnapshot {
        let mut sum = VmCountersSnapshot::default();
        for vm in &self.vms {
            let c = vm.counters();
            sum.insts += c.insts;
            sum.open_read += c.open_read;
            sum.open_update += c.open_update;
            sum.log_undo += c.log_undo;
            sum.tx_committed += c.tx_committed;
            sum.tx_retries += c.tx_retries;
        }
        sum
    }
}

/// Front-end and optimizer times of one compilation, in microseconds.
#[derive(Default)]
struct CompileTimes {
    parse: f64,
    check: f64,
    lower: f64,
    optimize: f64,
}

fn compile(
    times: &mut CompileTimes,
) -> Result<(Vec<Arc<omt_ir::IrProgram>>, PipelineReport), String> {
    let mut total = PipelineReport::default();
    let mut out = Vec::new();
    for ((name, source, _, _), expected) in txil_benchmarks().into_iter().zip(PROGRAMS) {
        if name != expected {
            return Err(format!("program {name} where {expected} was expected"));
        }
        let (ast, ns) = trace::timed("lang.parse", 0, || omt_lang::parse(source));
        times.parse += ns as f64 / 1e3;
        let ast = ast.map_err(|e| format!("{name}: {e}"))?;
        let (info, ns) = trace::timed("lang.check", 0, || omt_lang::check(&ast));
        times.check += ns as f64 / 1e3;
        let info = info.map_err(|e| format!("{name}: {e}"))?;
        let (mut ir, ns) = trace::timed("ir.lower", 0, || omt_ir::lower(&ast, &info));
        times.lower += ns as f64 / 1e3;
        let (report, ns) = trace::timed("opt.optimize", 0, || omt_opt::optimize(&mut ir, LEVEL));
        times.optimize += ns as f64 / 1e3;
        total.promoted += report.promoted;
        total.hoisted += report.hoisted;
        total.removed += report.removed;
        let (r, u, n) = report.static_barriers;
        total.static_barriers.0 += r;
        total.static_barriers.1 += u;
        total.static_barriers.2 += n;
        out.push(Arc::new(ir));
    }
    Ok((out, total))
}

/// Runs every program once at its largest argument; the summed time in
/// nanoseconds.
fn reference_pass(suite: &Suite) -> Result<u64, String> {
    let start = Instant::now();
    for (p, base) in ARG_BASE.iter().enumerate() {
        suite.run(p, base + ARG_CHOICES - 1, 0)?;
        suite.collect(0);
    }
    Ok(start.elapsed().as_nanos() as u64)
}

/// One measured window's tally.
#[derive(Default)]
struct Tally {
    window: Window,
    per_program: [Hist; 4],
    live_max: u64,
}

/// Runs `txil-o4`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    report.param("level", LEVEL);
    report.param("programs", PROGRAMS.join(","));
    report.param("arg_base", format!("{ARG_BASE:?}"));
    report.param("arg_choices", ARG_CHOICES);
    report.param("backend", "DirectStm, StmConfig::default()");
    report.param("threads", 1);

    let mut setups = Vec::new();
    let mut compile_times = Vec::new();
    let mut built = None;
    let (mut probe, mut setup_probes) = (Probe::default(), Hist::default());
    for _ in 0..SETUP_REPS {
        drop(built.take());
        probe.chunks(SETUP_PROBES, &mut setup_probes);
        let start = Instant::now();
        let mut times = CompileTimes::default();
        let compiled = compile(&mut times);
        let (programs, pipeline) = match compiled {
            Ok(c) => c,
            Err(e) => {
                report.fail(format!("compilation failed: {e}"));
                return report;
            }
        };
        let suite = Suite::new(&programs, BackendKind::DirectStm);
        if let Err(e) = reference_pass(&suite) {
            report.fail(format!("warm-up run failed: {e}"));
        }
        setups.push(start.elapsed().as_secs_f64());
        compile_times.push(times);
        built = Some((programs, pipeline, suite));
    }
    let (programs, pipeline, suite) = built.expect("at least one setup ran");
    trace::set_enabled(false);

    // The oracle: every program and argument on the sequential backend.
    let oracle = Suite::new(&programs, BackendKind::Sequential);
    let mut expected = HashMap::new();
    for (p, base) in ARG_BASE.iter().enumerate() {
        for arg in *base..base + ARG_CHOICES {
            match oracle.run(p, arg, 0) {
                Ok(v) => {
                    expected.insert((p, arg), v);
                }
                Err(e) => report.fail(format!("sequential oracle: {e}")),
            }
            oracle.collect(0);
        }
    }

    let stm = suite.backend.as_stm().expect("the suite runs on the direct STM");
    let windows = subwindows(opts);
    let warmup = Duration::from_secs_f64((opts.seconds / 10.0).clamp(0.05, 1.0));
    let mut inputs = inputs(opts.seed);
    let mut seq = 0u64;
    let mut step = |tally: Option<&mut Tally>| -> Result<(), String> {
        let (p, arg) = inputs.next().expect("the input stream is endless");
        seq += 1;
        let start = Instant::now();
        let got = suite.run(p, arg, seq)?;
        let ns = start.elapsed().as_nanos() as u64;
        let want = expected.get(&(p, arg)).copied();
        if want != Some(got) {
            return Err(format!(
                "{}({arg}) = {got} on the STM, {want:?} sequentially",
                PROGRAMS[p]
            ));
        }
        let live = suite.collect(seq);
        if let Some(t) = tally {
            t.window.attempted += 1;
            t.window.completed += 1;
            t.live_max = t.live_max.max(live);
            t.per_program[p].record(ns);
            if p == 0 { &mut t.window.reads } else { &mut t.window.writes }.record(ns);
        }
        Ok(())
    };

    let mut failures = Vec::new();
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        if let Err(e) = step(None) {
            failures.push(e);
            break;
        }
    }
    let mut tallies = Vec::new();
    let mut marks = Vec::new();
    for &(length, traced) in &windows {
        let mut t = Tally::default();
        marks.push((stm.stats(), suite.counters(), suite.heap.stats().snapshot()));
        trace::set_enabled(traced);
        let start = Instant::now();
        let end = start + length;
        while failures.is_empty() && Instant::now() < end {
            if t.window.attempted.is_multiple_of(PROBE_EVERY) {
                let ns = probe.chunk();
                t.window.probe.record(ns);
                t.window.paused_secs += ns as f64 / 1e9;
            }
            if let Err(e) = step(Some(&mut t)) {
                failures.push(e);
            }
        }
        trace::set_enabled(false);
        t.window.secs = start.elapsed().as_secs_f64();
        tallies.push(t);
    }
    marks.push((stm.stats(), suite.counters(), suite.heap.stats().snapshot()));
    for e in failures {
        report.fail(e);
    }

    let measured: Vec<Window> = tallies.iter().map(|t| t.window.clone()).collect();
    if !opts.trace {
        report.windows(&measured);
        report.setup(&setups, &setup_probes);
        return report;
    }

    // Traced run: tracing changes nothing the program counts, so the
    // counters and tails cover every sub-window, traced or not.
    let all = Window::pooled(&measured);
    report.counts(&measured);
    report.tail("read", &all.reads);
    report.tail("write", &all.writes);
    report.set("trace.overhead_ratio", trace_overhead(&measured, &windows));
    report.probe(&measured);
    let med =
        |f: fn(&CompileTimes) -> f64| median(&compile_times.iter().map(f).collect::<Vec<_>>());
    report.set("lang.parse_us", med(|c| c.parse));
    report.set("lang.check_us", med(|c| c.check));
    report.set("ir.lower_us", med(|c| c.lower));
    report.set("opt.optimize_us", med(|c| c.optimize));
    let (r, u, n) = pipeline.static_barriers;
    report.set("opt.static_barriers", (r + u + n) as f64);
    report.set("opt.removed", pipeline.removed as f64);
    report.set("opt.hoisted", pipeline.hoisted as f64);
    report.set("opt.promoted", pipeline.promoted as f64);
    for (p, name) in [
        "vm.run_ms.list-traverse",
        "vm.run_ms.bst-insert",
        "vm.run_ms.counter-churn",
        "vm.run_ms.bank-transfer",
    ]
    .into_iter()
    .enumerate()
    {
        let mut runs = Hist::default();
        for t in &tallies {
            runs.merge(&t.per_program[p]);
        }
        report.set(name, runs.quantile(0.5) / 1e6);
    }

    // Dynamic counts of one reference pass repeat exactly.
    let before = suite.counters();
    if let Err(e) = reference_pass(&suite) {
        report.fail(format!("reference pass failed: {e}"));
    }
    let after = suite.counters();
    let tx = (after.tx_committed - before.tx_committed) as f64;
    let (reads, updates, undos) = (
        (after.open_read - before.open_read) as f64,
        (after.open_update - before.open_update) as f64,
        (after.log_undo - before.log_undo) as f64,
    );
    report.set("vm.barriers_per_tx", ratio(reads + updates + undos, tx));
    report.set("vm.insts_per_tx", ratio((after.insts - before.insts) as f64, tx));
    report.set("vm.open_read", reads);
    report.set("vm.open_update", updates);
    report.set("vm.log_undo", undos);
    let (w0, w1) = (&marks[0], &marks[windows.len()]);
    report.set("vm.tx_retries", (w1.1.tx_retries - w0.1.tx_retries) as f64);
    let pass = |s: &Suite| {
        let times: Vec<f64> =
            (0..SHARE_REPS).map(|_| reference_pass(s).map_or(f64::NAN, |ns| ns as f64)).collect();
        median(&times)
    };
    report.set("vm.stm_share", 1.0 - pass(&oracle) / pass(&suite));
    let agg = trace::aggregates();
    let self_ms = |name: &str| agg.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e6);
    report.set("vm.busy_ms", self_ms("vm.Vm::run"));
    report.set("heap.gc_ms", self_ms("heap.Heap::collect"));
    report.stm_delta(&w1.0.delta_since(&w0.0));
    report.set("heap.allocs", (w1.2.total_allocs() - w0.2.total_allocs()) as f64);
    report.set("heap.live_objects", tallies.iter().map(|t| t.live_max).max().unwrap_or(0) as f64);
    report.failures();
    report.ladder(StmConfig::default());
    report
}
