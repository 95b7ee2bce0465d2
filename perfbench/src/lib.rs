//! # omt-perfbench — the repository's benchmark
//!
//! Three seeded workloads, each loading a different stack of layers:
//!
//! - [`kv`] (`kv-zipf`): a closed loop against the boosted [`KvStore`](omt_server::KvStore);
//! - [`bank`] (`bank-open`): an open loop against the bank [`Service`](omt_server::Service);
//! - [`txil`] (`txil-o4`): the TxIL programs compiled at O4 and run on the VM.
//!
//! A run measures for a fixed number of seconds, checks every output,
//! and ends with one JSON line: the end-to-end metrics of
//! [`END_TO_END`] without tracing, scaled to a reference host speed by
//! the [`probe`], or the per-layer metrics of [`PER_LAYER`] from a
//! traced run. `README.md` beside this crate says
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use stats::{median, Hist};

pub mod bank;
pub mod kv;
pub mod ladder;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod txil;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["kv-zipf", "bank-open", "txil-o4"];

/// End-to-end metrics `(name, unit)`, reported by every workload
/// without tracing.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of a traced run. A workload that
/// does not pass through a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // omt-lang, omt-ir, omt-opt (txil-o4)
    ("lang.parse_us", "us"),
    ("lang.check_us", "us"),
    ("ir.lower_us", "us"),
    ("opt.optimize_us", "us"),
    ("opt.static_barriers", "count"),
    ("opt.removed", "count"),
    ("opt.hoisted", "count"),
    ("opt.promoted", "count"),
    // omt-vm (txil-o4)
    ("vm.run_ms.list-traverse", "ms"),
    ("vm.run_ms.bst-insert", "ms"),
    ("vm.run_ms.counter-churn", "ms"),
    ("vm.run_ms.bank-transfer", "ms"),
    ("vm.barriers_per_tx", "count"),
    ("vm.insts_per_tx", "count"),
    ("vm.open_read", "count"),
    ("vm.open_update", "count"),
    ("vm.log_undo", "count"),
    ("vm.tx_retries", "count"),
    ("vm.stm_share", "ratio"),
    ("vm.busy_ms", "ms"),
    // omt-stm (every workload; deltas over the measured window)
    ("stm.begins", "count"),
    ("stm.commits", "count"),
    ("stm.commit_ratio", "ratio"),
    ("stm.aborts_busy", "count"),
    ("stm.aborts_invalid", "count"),
    ("stm.aborts_doomed", "count"),
    ("stm.cm_spins", "count"),
    ("stm.serial_entries", "count"),
    ("stm.deadlines_exceeded", "count"),
    ("stm.retries_exhausted", "count"),
    ("stm.validation_entries_per_commit", "count"),
    ("stm.validation_fast_path_ratio", "ratio"),
    ("stm.snapshot_hit_ratio", "ratio"),
    ("stm.ts_extensions", "count"),
    ("stm.extension_failures", "count"),
    ("stm.mv_read_hits", "count"),
    ("stm.mv_chain_misses", "count"),
    ("stm.readonly_abort_ratio", "ratio"),
    ("stm.read_filter_ratio", "ratio"),
    ("stm.undo_filter_ratio", "ratio"),
    ("stm.tx_empty_ns", "ns"),
    ("stm.tx_2r2w_ns", "ns"),
    // omt-baselines (reference rungs, never a target)
    ("baseline.mutex_2r2w_ns", "ns"),
    ("baseline.orec_empty_ns", "ns"),
    ("baseline.orec_2r2w_ns", "ns"),
    // omt-workloads boosting (kv-zipf)
    ("boost.acquires", "count"),
    ("boost.wait_rounds", "count"),
    ("boost.busy_failures", "count"),
    ("boost.busy_ratio", "ratio"),
    // omt-server (bank-open; busy time also on kv-zipf)
    ("server.sheds", "count"),
    ("server.admit_ratio", "ratio"),
    ("server.busy_ms", "ms"),
    // omt-heap
    ("heap.allocs", "count"),
    ("heap.live_objects", "count"),
    ("heap.prefill_ms", "ms"),
    ("heap.gc_ms", "ms"),
    // bank-open figures that are 0 or undefined on the other workloads
    ("scan_p99_us", "us"),
    ("slo_rate_ops_s", "ops/s"),
    ("failed_ratio", "ratio"),
    ("failed.shed", "count"),
    ("failed.deadline", "count"),
    ("failed.retry_exhausted", "count"),
    // sample counts and supported tails of the latency percentiles
    ("read.samples", "count"),
    ("read.tail_pct", "%"),
    ("read.tail_us", "us"),
    ("write.samples", "count"),
    ("write.tail_pct", "%"),
    ("write.tail_us", "us"),
    ("scan.samples", "count"),
    ("scan.tail_pct", "%"),
    ("scan.tail_us", "us"),
    // the load generator and the tracer
    ("loadgen.offered", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.backlog_growth", "ratio"),
    ("loadgen.p99_us.rate1", "us"),
    ("loadgen.p99_us.rate2", "us"),
    ("loadgen.p99_us.rate3", "us"),
    ("loadgen.p99_us.rate4", "us"),
    ("loadgen.p99_us.rate5", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("host.probe_chunk_us", "us"),
];

/// How one run is asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
}

/// Failed requests by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Refused by admission control.
    pub shed: u64,
    /// Deadline passed before commit.
    pub deadline: u64,
    /// Retry budget consumed by conflicts.
    pub retry_exhausted: u64,
    /// Any other typed error (heap exhaustion).
    pub other: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.shed + self.deadline + self.retry_exhausted + self.other
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &Failures) {
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.retry_exhausted += other.retry_exhausted;
        self.other += other.other;
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures (empty when every output was right).
    pub errors: Vec<String>,
    /// Requests attempted in the measured window.
    pub attempted: u64,
    /// Requests in the measured window that failed, by kind.
    pub failed: Failures,
    /// Metrics `name -> value`; units come from the metric tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload parameters, for the run metadata.
    pub params: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output-check failure, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    /// Records a parameter for the metadata line.
    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Sets the end-to-end throughput and latencies of an untraced run
    /// as medians over its measured sub-windows, each scaled to the
    /// reference host by the probe chunks run in it (see [`probe`]), so
    /// that neither a stretch of unusual host speed nor a scheduling stall
    /// shorter than half the run can move them. Notes the unscaled
    /// medians, and sets the attempted and failed counts.
    pub fn windows(&mut self, windows: &[Window]) {
        let fallback = probe::speed(&Window::pooled(windows).probe);
        let speed =
            |w: &Window| if w.probe.count() == 0 { fallback } else { probe::speed(&w.probe) };
        let med = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        let figures: [(&'static str, Figure); 5] = [
            ("throughput_ops_s", Window::throughput),
            ("read_p50_us", |w| w.reads.quantile(0.5) / 1e3),
            ("read_p99_us", |w| w.reads.quantile(0.99) / 1e3),
            ("write_p50_us", |w| w.writes.quantile(0.5) / 1e3),
            ("write_p99_us", |w| w.writes.quantile(0.99) / 1e3),
        ];
        let mut unscaled = Vec::new();
        for (name, figure) in figures {
            // A rate falls as the host slows down; a time rises.
            let rate = name == "throughput_ops_s";
            let scale = |w: &Window| if rate { 1.0 / speed(w) } else { speed(w) };
            self.set(name, med(&|w| figure(w) * scale(w)));
            unscaled.push(format!("{name} {:.4}", med(&|w| figure(w))));
        }
        self.notes.push(format!(
            "unscaled: {}; host speed {fallback:.4} of the reference",
            unscaled.join(", ")
        ));
        self.counts(windows);
    }

    /// Sets `setup_s`: the median of `setups` (seconds), scaled to the
    /// reference host by the probe chunks run between them.
    pub fn setup(&mut self, setups: &[f64], chunks: &Hist) {
        let speed = probe::speed(chunks);
        self.notes.push(format!(
            "set-up: median {:.6} s unscaled over {} set-ups, host speed {speed:.4}",
            median(setups),
            setups.len()
        ));
        self.set("setup_s", median(setups) * speed);
    }

    /// Adds the attempted and failed counts of `windows`, and notes
    /// their pooled latencies.
    pub fn counts(&mut self, windows: &[Window]) {
        let pooled = Window::pooled(windows);
        self.attempted += pooled.attempted;
        self.failed.add(&pooled.failed);
        self.notes.push(format!(
            "{} of {} requests completed in {} windows over {:.3} s",
            pooled.completed,
            pooled.attempted,
            windows.len(),
            pooled.secs
        ));
        self.notes.push(pooled.reads.describe("read"));
        self.notes.push(pooled.writes.describe("write"));
    }

    /// Sets the sample count and supported tail of a class of requests
    /// (`read`, `write` or `scan`).
    pub fn tail(&mut self, class: &'static str, hist: &Hist) {
        let names = match class {
            "read" => ["read.samples", "read.tail_pct", "read.tail_us"],
            "write" => ["write.samples", "write.tail_pct", "write.tail_us"],
            "scan" => ["scan.samples", "scan.tail_pct", "scan.tail_us"],
            other => panic!("unknown latency class {other}"),
        };
        let tail = hist.tail().unwrap_or(0.0);
        self.set(names[0], hist.count() as f64);
        self.set(names[1], tail * 100.0);
        self.set(names[2], hist.quantile(tail) / 1e3);
    }

    /// Sets the STM deltas of a window.
    pub fn stm_delta(&mut self, d: &omt_stm::StmStatsSnapshot) {
        let f = |v: u64| v as f64;
        self.set("stm.begins", f(d.begins));
        self.set("stm.commits", f(d.commits));
        self.set("stm.commit_ratio", stats::ratio(f(d.commits), f(d.begins)));
        self.set("stm.aborts_busy", f(d.aborts_busy));
        self.set("stm.aborts_invalid", f(d.aborts_invalid));
        self.set("stm.aborts_doomed", f(d.aborts_doomed));
        self.set("stm.cm_spins", f(d.cm_spins));
        self.set("stm.serial_entries", f(d.serial_entries));
        self.set("stm.deadlines_exceeded", f(d.deadlines_exceeded));
        self.set("stm.retries_exhausted", f(d.retries_exhausted));
        self.set("stm.validation_entries_per_commit", d.entries_scanned_per_commit());
        self.set("stm.validation_fast_path_ratio", d.validation_fast_path_rate());
        self.set(
            "stm.snapshot_hit_ratio",
            stats::ratio(f(d.snapshot_read_hits), f(d.open_read_ops)),
        );
        self.set("stm.ts_extensions", f(d.ts_extensions));
        self.set("stm.extension_failures", f(d.extension_failures));
        self.set("stm.mv_read_hits", f(d.mv_read_hits));
        self.set("stm.mv_chain_misses", f(d.mv_chain_misses));
        self.set("stm.readonly_abort_ratio", d.readonly_abort_rate());
        self.set("stm.read_filter_ratio", d.read_filter_rate());
        self.set("stm.undo_filter_ratio", d.undo_filter_rate());
    }

    /// Sets the cost-ladder rungs for `config` and the baselines.
    pub fn ladder(&mut self, config: omt_stm::StmConfig) {
        trace::set_enabled(true);
        let (empty, rw) = ladder::stm_rungs(config);
        self.set("stm.tx_empty_ns", empty);
        self.set("stm.tx_2r2w_ns", rw);
        let (mutex, orec_empty, orec_rw) = ladder::baseline_rungs();
        trace::set_enabled(false);
        self.set("baseline.mutex_2r2w_ns", mutex);
        self.set("baseline.orec_empty_ns", orec_empty);
        self.set("baseline.orec_2r2w_ns", orec_rw);
    }

    /// Sets the probe's median chunk time over `windows` (traced run).
    pub fn probe(&mut self, windows: &[Window]) {
        self.set("host.probe_chunk_us", Window::pooled(windows).probe.quantile(0.5) / 1e3);
    }

    /// Sets the failure metrics of the traced run.
    pub fn failures(&mut self) {
        self.set("failed_ratio", stats::ratio(self.failed.total() as f64, self.attempted as f64));
        self.set("failed.shed", self.failed.shed as f64);
        self.set("failed.deadline", self.failed.deadline as f64);
        self.set("failed.retry_exhausted", self.failed.retry_exhausted as f64);
    }
}

/// A figure read off one sub-window.
type Figure = fn(&Window) -> f64;

/// Requests of one measured sub-window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Latencies of read-only requests.
    pub reads: Hist,
    /// Latencies of updating requests.
    pub writes: Hist,
    /// Requests that completed.
    pub completed: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, by kind.
    pub failed: Failures,
    /// Length of the sub-window in seconds.
    pub secs: f64,
    /// Nanoseconds of each probe chunk run in the sub-window.
    pub probe: Hist,
    /// Seconds of the sub-window a closed loop of one client spent on
    /// probe chunks instead of requests.
    pub paused_secs: f64,
}

impl Window {
    /// Adds `other`'s requests (same sub-window, another client).
    pub fn merge(&mut self, other: &Window) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed.add(&other.failed);
        self.probe.merge(&other.probe);
        self.paused_secs += other.paused_secs;
    }

    /// All of `windows` as one, their lengths summed.
    pub fn pooled(windows: &[Window]) -> Window {
        let mut out = Window::default();
        for w in windows {
            out.merge(w);
            out.secs += w.secs;
        }
        out
    }

    /// Completed requests per second spent on requests.
    pub fn throughput(&self) -> f64 {
        stats::ratio(self.completed as f64, self.secs - self.paused_secs)
    }
}

/// Measured sub-windows per run. In a traced run every other one is
/// traced, so a drift in host speed falls on both kinds alike.
pub const SUBWINDOWS: usize = 30;

/// The measured sub-windows `(length, traced)` of a run.
pub fn subwindows(opts: &Opts) -> Vec<(Duration, bool)> {
    let length = Duration::from_secs_f64(opts.seconds / SUBWINDOWS as f64);
    (0..SUBWINDOWS).map(|i| (length, opts.trace && i % 2 == 1)).collect()
}

/// The throughput the traced sub-windows lost against the untraced ones.
pub fn trace_overhead(windows: &[Window], plan: &[(Duration, bool)]) -> f64 {
    let pick = |traced: bool| {
        let picked: Vec<Window> = windows
            .iter()
            .zip(plan)
            .filter(|(_, p)| p.1 == traced)
            .map(|(w, _)| w.clone())
            .collect();
        Window::pooled(&picked).throughput()
    };
    1.0 - stats::ratio(pick(true), pick(false))
}

/// Runs `workload`, or `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<Report> {
    // A traced run also records its set-up; each workload turns tracing
    // off once set up and on again for its traced windows.
    trace::reset();
    trace::set_enabled(opts.trace);
    let mut report = match workload {
        "kv-zipf" => kv::run(opts),
        "bank-open" => bank::run(opts),
        "txil-o4" => txil::run(opts),
        _ => return None,
    };
    trace::set_enabled(false);
    trace::flush();
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}-{}.json", opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_json())) {
            Ok(()) => report.notes.push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    } else {
        report.metrics.entry("peak_rss_mb").or_insert_with(peak_rss_mb);
    }
    Some(report)
}

/// The result line: exactly the metrics of the run's table, with
/// per-layer metrics of layers the workload skipped reported as 0.
///
/// # Panics
///
/// Panics if the report names a metric outside the table, or misses an
/// end-to-end metric.
pub fn result_json(report: &Report, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    for name in report.metrics.keys() {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed.total()
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if trace || !report.errors.is_empty() => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

/// The metadata line printed before the result.
pub fn meta_json(workload: &str, opts: &Opts, report: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {cores}, \"git_sha\": \"{}\", \"rustc\": \"{}\", \"params\": {{",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        git_sha(),
        env!("PERFBENCH_RUSTC"),
    );
    for (i, (k, v)) in report.params.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\": \"{v}\"", if i == 0 { "" } else { ", " });
    }
    out.push_str("}}");
    out
}

/// The checkout's commit, read from `.git` in the working directory
/// (no subprocess); `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The process's high-water resident memory in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's resident memory in MB (`VmRSS`); 0 where `/proc` is
/// unavailable.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A seed for stream `stream` of a workload, mixed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
