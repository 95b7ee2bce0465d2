//! `bank-open`: an open loop of Poisson arrivals against the bank
//! [`Service`] (admission on, Karma, striped clock, snapshot reads,
//! `mv_depth` 1) with 4096 zipf-popular accounts: half transfers, half
//! balance reads, and a small share of full-ledger audits.
//!
//! It is the only workload with queueing, admission, deadlines and long
//! readers racing writers. The generators are the benchmark's own: each
//! of two threads issues its share of the schedule through
//! [`Session::call`]. The end-to-end latencies time each call; the
//! load-generator metrics time each request from when it was due, so
//! that a stall also charges the requests queued behind it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use omt_server::{Request, Response, Service, ServiceConfig, ServiceError, Session};
use omt_util::rng::{StdRng, Zipf};

use crate::probe::Probe;
use crate::stats::{median, ratio, Hist};
use crate::{sub_seed, trace, Opts, Report, Window};

/// Accounts in the ledger.
pub const ACCOUNTS: usize = 4096;
const _: () =
    assert!(ACCOUNTS.is_power_of_two(), "the hot-set layout permutes a power-of-two ledger");
/// Zipf exponent of account popularity.
pub const ZIPF_S: f64 = 0.99;
/// Generator threads; each offers half of the rate.
pub const GENERATORS: usize = 2;
/// Share of transfers, in parts per thousand.
pub const TRANSFER_PERMILLE: u64 = 500;
/// Share of full-ledger audits, in parts per thousand; balance reads
/// take the rest.
pub const AUDIT_PERMILLE: u64 = 10;
/// Fixed arrival rates (requests per second), bracketing the knee of a
/// 2-vCPU host (120k–140k). The middle one is the nominal rate the
/// end-to-end metrics are measured at, well below the knee: nearer it
/// the p99 amplifies every drift in host speed.
pub const RATES: [f64; 5] = [10_000.0, 20_000.0, 40_000.0, 120_000.0, 240_000.0];
/// Index of the nominal rate in [`RATES`].
pub const NOMINAL: usize = 2;
/// The p99 latency limit a rate must meet to count as sustained.
pub const SLO_LIMIT_US: f64 = 1_000.0;
/// Sessions per generator; requests rotate over them.
const SESSIONS: usize = 64;
/// Service builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Probe chunks before each service build.
const SETUP_PROBES: usize = 4;
/// Shortest time between two probe chunks of one generator. A chunk
/// evicts part of the caches and slows the request after it; one in
/// every 2 ms would slow one request in 40, inside the p99.
const PROBE_GAP: Duration = Duration::from_millis(50);
/// A generator runs a probe chunk only while waiting for an arrival at
/// least this far off, so that the chunk (about 20 us) ends before it.
const PROBE_SLACK: Duration = Duration::from_micros(100);
/// The per-request deadline. The default 10 ms is shorter than the
/// stalls a shared virtual machine can give a vCPU (tens of ms), and a
/// benchmark request must not fail because of the host.
pub const DEADLINE: Duration = Duration::from_secs(10);
/// Latency percentiles of the nominal rate are medians over sub-windows
/// of this length (by due time), so that a host stall of a few
/// milliseconds, which delays every request queued behind it, moves only
/// the sub-windows it falls in.
pub const SUBWINDOW: Duration = Duration::from_millis(100);
/// Windows the nominal rate is measured in.
const NOMINAL_WINDOWS: usize = 10;
/// How long a generator keeps serving its backlog after a window's last
/// arrival; requests not started by then count as over the limit.
const GRACE: Duration = Duration::from_millis(50);

/// The service's configuration: the default with [`ACCOUNTS`] accounts,
/// the [`DEADLINE`], and shedding thresholds no load can pass (an abort
/// rate is at most 1), so that admission runs on every request but never
/// refuses one.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        accounts: ACCOUNTS,
        deadline: DEADLINE,
        shed_abort_rate: 1.0,
        shed_serial_per_sec: f64::INFINITY,
        ..ServiceConfig::default()
    }
}

/// Seeded arrivals of one generator at one rate: `(due_ns, request)`
/// with exponential gaps and zipf-popular accounts.
///
/// Which accounts are hot is redrawn every [`SUBWINDOW`] of due time, as
/// an affine permutation of the ledger shared by both generators. An
/// audit reads the ledger in index order, so how long it is exposed to
/// transfers on the hot accounts depends on where they sit; a fixed
/// layout per seed would make audit retries, and with them the p99, a
/// property of the seed.
#[derive(Debug, Clone)]
pub struct Arrivals<'a> {
    rng: StdRng,
    zipf: &'a Zipf,
    layout_seed: u64,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl<'a> Arrivals<'a> {
    /// Generator `g`'s arrivals at `rate`, for window `window` of the run
    /// with `seed`.
    pub fn new(seed: u64, window: usize, g: usize, rate: f64, zipf: &'a Zipf) -> Arrivals<'a> {
        let stream = 1 + (window * GENERATORS + g) as u64;
        Arrivals {
            rng: StdRng::seed_from_u64(sub_seed(seed, stream)),
            zipf,
            layout_seed: sub_seed(seed, u64::MAX - window as u64),
            mean_gap_ns: 1e9 * GENERATORS as f64 / rate,
            due_ns: 0.0,
        }
    }

    /// A zipf-popular account under the current layout.
    fn account(&mut self) -> usize {
        let layout = sub_seed(self.layout_seed, self.due_ns as u64 / SUBWINDOW.as_nanos() as u64);
        // An odd multiplier permutes the power-of-two ledger.
        let (a, b) = ((layout | 1) as usize, (layout >> 32) as usize);
        self.zipf.sample(&mut self.rng).wrapping_mul(a).wrapping_add(b) % ACCOUNTS
    }
}

impl Iterator for Arrivals<'_> {
    type Item = (u64, Request);

    fn next(&mut self) -> Option<(u64, Request)> {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.due_ns += -(1.0 - u).ln() * self.mean_gap_ns;
        let roll = self.rng.gen_range(0..1000u64);
        let request = if roll < AUDIT_PERMILLE {
            Request::Audit
        } else if roll < AUDIT_PERMILLE + TRANSFER_PERMILLE {
            let from = self.account();
            let mut to = self.account();
            if to == from {
                to = (to + 1) % ACCOUNTS;
            }
            Request::Transfer { from, to, amount: self.rng.gen_range(1..=100i64) }
        } else {
            Request::Balance { account: self.account() }
        };
        Some((self.due_ns as u64, request))
    }
}

/// The first `n` arrivals of every generator in every window, as bytes.
pub fn input_bytes(seed: u64, n: usize) -> Vec<u8> {
    let zipf = Zipf::new(ACCOUNTS, ZIPF_S);
    let mut out = Vec::new();
    for (w, &rate) in RATES.iter().enumerate() {
        for g in 0..GENERATORS {
            for (due, req) in Arrivals::new(seed, w, g, rate, &zipf).take(n) {
                out.extend_from_slice(&due.to_le_bytes());
                let (kind, a, b, amount) = match req {
                    Request::Transfer { from, to, amount } => (0u8, from, to, amount),
                    Request::Balance { account } => (1, account, 0, 0),
                    Request::Audit => (2, 0, 0, 0),
                };
                out.push(kind);
                out.extend_from_slice(&(a as u32).to_le_bytes());
                out.extend_from_slice(&(b as u32).to_le_bytes());
                out.extend_from_slice(&amount.to_le_bytes());
            }
        }
    }
    out
}

/// One window's tally from one or more generators.
#[derive(Debug, Default)]
struct Tally {
    /// Per [`SUBWINDOW`] of due times: the call latencies of balance
    /// reads and transfers and the counts of attempted requests, and
    /// every offered request's latency from its due time.
    windows: Vec<(Window, Hist)>,
    /// Call latencies of audits.
    scans: Hist,
    lag: Hist,
    offered: u64,
    backlogged: u64,
    service_ns: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Adds another generator's tally of the same window.
    fn merge(&mut self, o: Tally) {
        for ((w, all), (ow, oall)) in self.windows.iter_mut().zip(&o.windows) {
            w.merge(ow);
            all.merge(oall);
        }
        self.absorb(o);
    }

    /// Adds the tally of a later window.
    fn append(&mut self, mut o: Tally) {
        self.windows.append(&mut o.windows);
        self.absorb(o);
    }

    fn absorb(&mut self, o: Tally) {
        self.scans.merge(&o.scans);
        self.lag.merge(&o.lag);
        self.offered += o.offered;
        self.backlogged += o.backlogged;
        self.service_ns += o.service_ns;
        self.errors.extend(o.errors);
    }
}

/// Waits until `deadline` by spinning, and runs a probe chunk into
/// `chunks` while the wait is long enough for one and `next_probe` has
/// passed. Sleeping would let the vCPU go idle, and waking an idle vCPU
/// can take milliseconds on a virtual machine, which would be charged to
/// the request as latency.
fn pace_until(deadline: Instant, probe: &mut Probe, next_probe: &mut Instant, chunks: &mut Hist) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        if now >= *next_probe && deadline - now >= PROBE_SLACK {
            chunks.record(probe.chunk());
            *next_probe = now + PROBE_GAP;
        } else {
            std::hint::spin_loop();
        }
    }
}

fn generate(
    service: &Arc<Service>,
    arrivals: Arrivals<'_>,
    start: Instant,
    length: Duration,
    probe: &mut Probe,
) -> Tally {
    let mut t = Tally::default();
    let sub_ns = SUBWINDOW.as_nanos() as u64;
    let length_ns = length.as_nanos() as u64;
    t.windows = (0..length_ns.div_ceil(sub_ns))
        .map(|i| {
            let secs = (length_ns - i * sub_ns).min(sub_ns) as f64 / 1e9;
            (Window { secs, ..Window::default() }, Hist::default())
        })
        .collect();
    let mut sessions: Vec<Session> = (0..SESSIONS).map(|_| service.session()).collect();
    let expected = service.expected_total();
    let cutoff = start + length + GRACE;
    let (mut next_probe, mut chunks) = (start, Hist::default());
    for (k, (due_ns, request)) in arrivals.enumerate() {
        if due_ns >= length_ns {
            break;
        }
        t.offered += 1;
        let due = start + Duration::from_nanos(due_ns);
        let sub = (due_ns / sub_ns) as usize;
        pace_until(due, probe, &mut next_probe, &mut chunks);
        let began = Instant::now();
        if began >= cutoff {
            t.backlogged += 1;
            t.windows[sub].1.record((began - due).as_nanos() as u64);
            continue;
        }
        t.lag.record((began - due).as_nanos() as u64);
        let session = &mut sessions[k % SESSIONS];
        let (result, service_ns) =
            trace::timed("server.Session::call", k as u64, || session.call(&request));
        let now = Instant::now();
        let latency = (now - began).as_nanos() as u64;
        let (w, all) = &mut t.windows[sub];
        w.attempted += 1;
        w.completed += u64::from(result.is_ok());
        all.record((now - due).as_nanos() as u64);
        t.service_ns += service_ns;
        let mut bad = None;
        match (request, result) {
            (_, Err(e)) => match e {
                ServiceError::Overloaded(_) => w.failed.shed += 1,
                ServiceError::DeadlineExceeded { .. } => w.failed.deadline += 1,
                ServiceError::RetryExhausted { .. } => w.failed.retry_exhausted += 1,
                ServiceError::HeapFull => w.failed.other += 1,
                ServiceError::NoSuchAccount { account } => {
                    bad = Some(format!("{request:?} named no such account {account}"));
                }
            },
            (Request::Transfer { .. }, Ok(Response::Transferred)) => w.writes.record(latency),
            (Request::Balance { .. }, Ok(Response::Balance(_))) => w.reads.record(latency),
            (Request::Audit, Ok(Response::Audit(total))) => {
                t.scans.record(latency);
                if total != expected {
                    bad = Some(format!("audit summed {total}, expected {expected}"));
                }
            }
            (request, Ok(response)) => {
                bad = Some(format!("{request:?} answered with {response:?}"))
            }
        }
        if let Some(msg) = bad {
            if t.errors.len() < 20 {
                t.errors.push(msg);
            }
        }
    }
    // Too few chunks fall in one sub-window to price it, so each carries
    // every chunk of its window.
    for (w, _) in &mut t.windows {
        w.probe = chunks.clone();
    }
    t
}

/// The highest rate whose p99 over every offered request meets the
/// limit, interpolated in log latency towards the next rate, which
/// misses it; 0 if no rate meets it.
fn slo_rate(p99_us: &[f64]) -> f64 {
    let Some(n) = p99_us.iter().rposition(|&p| p <= SLO_LIMIT_US) else { return 0.0 };
    if n + 1 == RATES.len() {
        return RATES[n];
    }
    let (r0, r1) = (RATES[n], RATES[n + 1]);
    let (l0, l1) = (p99_us[n].max(1e-3).ln(), p99_us[n + 1].ln());
    r0 + (r1 - r0) * ((SLO_LIMIT_US.ln() - l0) / (l1 - l0)).clamp(0.0, 1.0)
}

/// The service and the run's seed; each [`Load::window`] call draws a
/// fresh arrival stream.
struct Load {
    service: Arc<Service>,
    seed: u64,
    zipf: Zipf,
    windows: usize,
    /// One per generator.
    probes: Vec<Probe>,
}

impl Load {
    /// Offers `rate` for `length` from every generator.
    fn window(&mut self, rate: f64, length: Duration) -> Tally {
        self.windows += 1;
        let w = self.windows;
        let start = Instant::now() + Duration::from_millis(1);
        let (service, seed, zipf) = (&self.service, self.seed, &self.zipf);
        let parts: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (self.probes.iter_mut().enumerate())
                .map(|(g, probe)| {
                    let arrivals = Arrivals::new(seed, w, g, rate, zipf);
                    scope.spawn(move || {
                        let t = generate(service, arrivals, start, length, probe);
                        trace::flush();
                        t
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a load generator panicked")).collect()
        });
        let mut parts = parts.into_iter();
        let mut total = parts.next().expect("at least one generator");
        for p in parts {
            total.merge(p);
        }
        total
    }
}

/// Runs `bank-open`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    report.param("accounts", ACCOUNTS);
    report.param("zipf_s", ZIPF_S);
    report.param("generators", GENERATORS);
    report.param(
        "mix_transfer_balance_audit_permille",
        format!(
            "{TRANSFER_PERMILLE}/{}/{AUDIT_PERMILLE}",
            1000 - TRANSFER_PERMILLE - AUDIT_PERMILLE
        ),
    );
    report.param("rates_ops_s", format!("{RATES:?}"));
    report.param("nominal_rate_ops_s", RATES[NOMINAL]);
    report.param("slo_p99_limit_us", SLO_LIMIT_US);
    report.param(
        "service",
        "ServiceConfig::default() with 4096 accounts, a 10 s deadline and no shedding threshold",
    );

    let config = config();
    let mut setups = Vec::new();
    let mut service = None;
    let mut probes: Vec<Probe> = (0..GENERATORS).map(|_| Probe::default()).collect();
    let mut setup_probes = Hist::default();
    for _ in 0..SETUP_REPS {
        drop(service.take());
        probes[0].chunks(SETUP_PROBES, &mut setup_probes);
        let (s, ns) = trace::timed("server.Service::new", 0, || Service::new(config));
        setups.push(ns as f64 / 1e9);
        service = Some(s);
    }
    let service = service.expect("at least one setup ran");
    trace::set_enabled(false);
    let mut load =
        Load { service, seed: opts.seed, zipf: Zipf::new(ACCOUNTS, ZIPF_S), windows: 0, probes };

    // An untraced run spends all its time at the nominal rate. A traced
    // run spends half of it there, in windows of which every other one
    // is traced, and sweeps the other rates in the other half.
    let nominal = RATES[NOMINAL];
    load.window(nominal, Duration::from_secs_f64((opts.seconds / 10.0).clamp(0.05, 1.0)));
    let share = if opts.trace { 2.0 } else { 1.0 };
    let length = Duration::from_secs_f64(opts.seconds / share / NOMINAL_WINDOWS as f64);
    let mark = |load: &Load| (load.service.stm().stats(), load.service.admission().sheds());
    let (stm0, sheds0) = mark(&load);
    let mut measured = Tally::default();
    // Time in `Session::call` and calls, untraced and traced.
    let mut calls = [(0u64, 0u64); 2];
    let mut errors = Vec::new();
    for i in 0..NOMINAL_WINDOWS {
        let traced = opts.trace && i % 2 == 1;
        trace::set_enabled(traced);
        let mut t = load.window(nominal, length);
        trace::set_enabled(false);
        errors.append(&mut t.errors);
        let c = &mut calls[usize::from(traced)];
        c.0 += t.service_ns;
        c.1 += t.windows.iter().map(|(w, _)| w.attempted).sum::<u64>();
        measured.append(t);
    }
    let (stm1, sheds1) = mark(&load);

    // Each rate's p99 over every offered request from its due time,
    // failed and unstarted ones included: the median over its
    // sub-windows. Only a traced run sweeps the other rates.
    let sweep = Duration::from_secs_f64(opts.seconds / 2.0 / (RATES.len() - 1) as f64);
    let mut p99s = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        if i != NOMINAL && !opts.trace {
            continue;
        }
        let swept = (i != NOMINAL).then(|| load.window(rate, sweep));
        let t = swept.as_ref().unwrap_or(&measured);
        errors.extend(swept.iter().flat_map(|t| t.errors.iter().cloned()));
        let p99 =
            median(&t.windows.iter().map(|(_, all)| all.quantile(0.99) / 1e3).collect::<Vec<_>>());
        report.notes.push(format!(
            "rate {rate} ops/s: p99 {p99:.1} us (median of {} sub-windows), {} not started in time",
            t.windows.len(),
            t.backlogged
        ));
        p99s.push(p99);
    }
    for e in errors {
        report.fail(e);
    }
    let service = &load.service;
    let audit = service.audit_total();
    if audit != service.expected_total() {
        report
            .fail(format!("post-run audit summed {audit}, expected {}", service.expected_total()));
    }

    let windows: Vec<Window> = measured.windows.iter().map(|(w, _)| w.clone()).collect();
    let pooled = Window::pooled(&windows);
    let failed_ratio = ratio(pooled.failed.total() as f64, pooled.attempted as f64);
    report.notes.push(format!("failed_ratio {failed_ratio} at the nominal rate {nominal} ops/s"));
    report.notes.push(measured.scans.describe("scan"));
    if !opts.trace {
        report.windows(&windows);
        // Goodput follows the offered rate, so the median over
        // sub-windows would only round it to whole requests per window.
        // It is also not scaled by host speed: a faster host serves the
        // same arrivals.
        report.set("throughput_ops_s", pooled.throughput());
        report.setup(&setups, &setup_probes);
        return report;
    }

    report.counts(&windows);
    report.tail("read", &pooled.reads);
    report.tail("write", &pooled.writes);
    report.tail("scan", &measured.scans);
    report.set("scan_p99_us", measured.scans.quantile(0.99) / 1e3);
    report.stm_delta(&stm1.delta_since(&stm0));
    let sheds = (sheds1 - sheds0) as f64;
    report.set("server.sheds", sheds);
    report.set("server.admit_ratio", 1.0 - ratio(sheds, pooled.attempted as f64));
    let per_call = |(ns, n): (u64, u64)| ratio(ns as f64, n as f64);
    report.set("trace.overhead_ratio", per_call(calls[1]) / per_call(calls[0]) - 1.0);
    report.probe(&windows);
    if let Some(a) = trace::aggregates().get("server.Session::call") {
        report.set("server.busy_ms", a.self_ns as f64 / 1e6);
    }
    let slo = slo_rate(&p99s);
    report.notes.push(format!("slo_rate_ops_s {slo:.0} (p99 limit {SLO_LIMIT_US} us)"));
    report.set("slo_rate_ops_s", slo);
    report.set("loadgen.offered", measured.offered as f64);
    report.set("loadgen.lag_p99_us", measured.lag.quantile(0.99) / 1e3);
    report
        .set("loadgen.backlog_growth", ratio(measured.backlogged as f64, measured.offered as f64));
    let names = [
        "loadgen.p99_us.rate1",
        "loadgen.p99_us.rate2",
        "loadgen.p99_us.rate3",
        "loadgen.p99_us.rate4",
        "loadgen.p99_us.rate5",
    ];
    for (name, p99) in names.into_iter().zip(&p99s) {
        report.set(name, *p99);
    }
    report.set("heap.live_objects", service.stm().heap().live_objects() as f64);
    report.set("heap.prefill_ms", median(&setups) * 1e3);
    report.failures();
    report.ladder(config.stm);
    report
}
