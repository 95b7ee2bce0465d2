//! `kv-zipf`: a closed loop of one client against a default, boosted
//! [`KvStore`] on zipf-distributed keys, 80% gets, 10% puts and 10%
//! deletes.
//!
//! Its transactions are short, so the STM's fixed cost per transaction
//! and the abstract-lock acquisition on every key decide latency; the
//! compiler, the VM and admission control are not on its path.
//! Contention between threads is `bank-open`'s to measure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omt_server::{KvConfig, KvError, KvRequest, KvResponse, KvStore};
use omt_util::rng::{StdRng, Zipf};

use crate::probe::Probe;
use crate::stats::{median, ratio, Hist};
use crate::{probe, sub_seed, subwindows, trace, trace_overhead, Opts, Report, Window};

/// Keys in the keyspace.
pub const KEYS: usize = 65_536;
/// Keys present before the run (a seeded half of the keyspace).
pub const PREFILL: usize = KEYS / 2;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 0.99;
/// Hash buckets, sized to the keyspace: about two live keys per chain.
pub const BUCKETS: usize = KEYS / 4;
/// Closed-loop client threads. With two, the clients meet on the
/// heap's allocation lock and the hot keys' abstract locks, the write
/// p99 sat on the knee between those waits and the rest, and ten runs of
/// the same code spread by 21–29%; with one, by about 14%.
pub const CLIENTS: usize = 1;
/// Percent of gets; puts take the next `PUT_PCT`, deletes the rest.
pub const GET_PCT: u64 = 80;
/// Percent of puts.
pub const PUT_PCT: u64 = 10;
/// Operations generated per client; a client cycles through its stream.
const STREAM_LEN: usize = 1 << 20;
/// Longest warm-up, in seconds. After the prefill the store takes some
/// seconds to settle: following a 1 s warm-up, the first five 1 s
/// windows of a two-client run read write p99s half again as high as
/// the rest.
const WARMUP_MAX_S: f64 = 8.0;
/// Store builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Probe chunks before each store build.
const SETUP_PROBES: usize = 4;
/// Requests between two probe chunks (about 10 ms). A chunk evicts
/// part of the caches and slows the request after it, so chunks stay
/// rarer than one request in a thousand.
const PROBE_EVERY: usize = 4096;
/// The per-request deadline. The default 10 ms is shorter than the
/// stalls a shared virtual machine can give a vCPU (tens of ms), and a
/// benchmark request must not fail because of the host.
pub const DEADLINE: Duration = Duration::from_secs(10);
/// Values carry their key and writer: `key * VALUE_TAG + writer`, where
/// the prefill writes writer 0 and client `c` writes `c + 1`.
const VALUE_TAG: i64 = 16;

const GET: u32 = 0;
const PUT: u32 = 1;
const DELETE: u32 = 2;

/// A run's generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Keys to insert before the run.
    pub prefill: Vec<u32>,
    /// Per client: operations encoded as `kind << 30 | key`.
    pub streams: Vec<Vec<u32>>,
}

/// Generates the inputs of `seed`, `len` operations per client.
pub fn inputs(seed: u64, len: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0));
    // Popularity rank -> key, so hot keys land in unrelated buckets.
    let mut by_rank: Vec<u32> = (0..KEYS as u32).collect();
    rng.shuffle(&mut by_rank);
    let mut prefill: Vec<u32> = (0..KEYS as u32).collect();
    rng.shuffle(&mut prefill);
    prefill.truncate(PREFILL);
    let zipf = Zipf::new(KEYS, ZIPF_S);
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, c as u64 + 1));
            (0..len)
                .map(|_| {
                    let roll = rng.gen_range(0..100u64);
                    let kind = if roll < GET_PCT {
                        GET
                    } else if roll < GET_PCT + PUT_PCT {
                        PUT
                    } else {
                        DELETE
                    };
                    (kind << 30) | by_rank[zipf.sample(&mut rng)]
                })
                .collect()
        })
        .collect();
    Inputs { prefill, streams }
}

/// The inputs of `seed` as bytes, `len` operations per client.
pub fn input_bytes(seed: u64, len: usize) -> Vec<u8> {
    let inputs = inputs(seed, len);
    let mut out = Vec::new();
    for v in inputs.prefill.iter().chain(inputs.streams.iter().flatten()) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The store's configuration: the default (boosted, snapshot reads,
/// `mv_depth` 1) with [`BUCKETS`] buckets and the [`DEADLINE`].
pub fn config() -> KvConfig {
    KvConfig { buckets: BUCKETS, deadline: DEADLINE, ..KvConfig::default() }
}

fn request(code: u32, client: usize) -> KvRequest {
    let key = i64::from(code & 0x3FFF_FFFF);
    match code >> 30 {
        GET => KvRequest::Get { key },
        PUT => KvRequest::Put { key, value: key * VALUE_TAG + client as i64 + 1 },
        _ => KvRequest::Delete { key },
    }
}

fn valid_value(key: i64, value: i64) -> bool {
    value.div_euclid(VALUE_TAG) == key && value.rem_euclid(VALUE_TAG) <= CLIENTS as i64
}

/// Builds the store and inserts the prefill; returns it with the prefill
/// time in seconds.
fn build(prefill: &[u32], report: &mut Report) -> (Arc<KvStore>, f64) {
    let (kv, _) = trace::timed("server.KvStore::new", 0, || KvStore::new(config()));
    let ((), ns) = trace::timed("setup.prefill", 0, || {
        for &key in prefill {
            let key = i64::from(key);
            let r = kv.execute(&KvRequest::Put { key, value: key * VALUE_TAG });
            if r != Ok(KvResponse::Inserted(true)) {
                report.fail(format!("prefill put of key {key} returned {r:?}"));
            }
        }
    });
    (kv, ns as f64 / 1e9)
}

/// Runs `clients` closed-loop threads through a warm-up and the given
/// measured windows `(length, traced)`. Each client reads the phase: 0
/// is the warm-up, `1..=windows.len()` a measured window, anything above
/// the end. `at_boundary(w)` runs on the driving thread just before
/// window `w` (0-based) opens and, with `w == windows.len()`, after the
/// last one closes. Returns the client results and each window's
/// measured length.
fn drive<T: Send>(
    clients: usize,
    warmup: Duration,
    windows: &[(Duration, bool)],
    mut at_boundary: impl FnMut(usize),
    client: impl Fn(usize, &AtomicUsize) -> T + Sync,
) -> (Vec<T>, Vec<Duration>) {
    let phase = AtomicUsize::new(0);
    let mut lengths = Vec::new();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (phase, client) = (&phase, &client);
                scope.spawn(move || {
                    let out = client(c, phase);
                    trace::flush();
                    out
                })
            })
            .collect();
        std::thread::sleep(warmup);
        for (w, &(length, traced)) in windows.iter().enumerate() {
            at_boundary(w);
            trace::set_enabled(traced);
            let start = Instant::now();
            phase.store(w + 1, Ordering::Release);
            std::thread::sleep(length);
            lengths.push(start.elapsed());
        }
        phase.store(windows.len() + 1, Ordering::Release);
        trace::set_enabled(false);
        at_boundary(windows.len());
        handles.into_iter().map(|h| h.join().expect("a benchmark client panicked")).collect()
    });
    (results, lengths)
}

/// One client's counts.
#[derive(Default)]
struct Tally {
    /// Index 0 is the warm-up, then one per measured sub-window.
    windows: Vec<Window>,
    inserted: i64,
    deleted: i64,
    errors: Vec<String>,
}

fn client(kv: &KvStore, stream: &[u32], c: usize, phase: &AtomicUsize, windows: usize) -> Tally {
    let mut t = Tally::default();
    t.windows.resize_with(windows + 1, Default::default);
    let mut i = 0usize;
    let mut probe = Probe::default();
    loop {
        let w = phase.load(Ordering::Acquire);
        if w > windows {
            break;
        }
        if i.is_multiple_of(PROBE_EVERY) {
            let ns = probe.chunk();
            t.windows[w].probe.record(ns);
            t.windows[w].paused_secs += ns as f64 / 1e9;
        }
        let req = request(stream[i % stream.len()], c);
        let seq = i as u64;
        i += 1;
        let (res, ns) = trace::timed("server.KvStore::execute", seq, || kv.execute(&req));
        let win = &mut t.windows[w];
        win.attempted += 1;
        win.completed += u64::from(res.is_ok());
        let mut bad = None;
        match (req, res) {
            (_, Err(e)) => match e {
                KvError::DeadlineExceeded { .. } => win.failed.deadline += 1,
                KvError::RetryExhausted { .. } => win.failed.retry_exhausted += 1,
                KvError::HeapFull => win.failed.other += 1,
            },
            (KvRequest::Get { key }, Ok(KvResponse::Value(v))) => {
                win.reads.record(ns);
                if v.is_some_and(|v| !valid_value(key, v)) {
                    bad = Some(format!("get {key} returned {v:?}, which no put wrote"));
                }
            }
            (KvRequest::Put { .. }, Ok(KvResponse::Inserted(inserted))) => {
                win.writes.record(ns);
                t.inserted += i64::from(inserted);
            }
            (KvRequest::Delete { key }, Ok(KvResponse::Deleted(v))) => {
                win.writes.record(ns);
                t.deleted += i64::from(v.is_some());
                if v.is_some_and(|v| !valid_value(key, v)) {
                    bad = Some(format!("delete {key} returned {v:?}, which no put wrote"));
                }
            }
            (req, Ok(resp)) => bad = Some(format!("{req:?} answered with {resp:?}")),
        }
        if let Some(msg) = bad {
            if t.errors.len() < 20 {
                t.errors.push(msg);
            }
        }
    }
    t
}

/// Runs `kv-zipf`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    report.param("keys", KEYS);
    report.param("prefill", PREFILL);
    report.param("zipf_s", ZIPF_S);
    report.param("clients", CLIENTS);
    report.param(
        "mix_get_put_delete_pct",
        format!("{GET_PCT}/{PUT_PCT}/{}", 100 - GET_PCT - PUT_PCT),
    );
    report.param(
        "store",
        format!(
            "KvConfig::default() with {BUCKETS} buckets and a 10 s deadline \
             (boosted, snapshot reads, mv_depth 1)"
        ),
    );

    let inputs = inputs(opts.seed, STREAM_LEN);
    let mut setups = Vec::new();
    let mut prefills = Vec::new();
    let mut store = None;
    let (mut probe, mut setup_probes) = (Probe::default(), Hist::default());
    for _ in 0..SETUP_REPS {
        drop(store.take());
        probe.chunks(SETUP_PROBES, &mut setup_probes);
        let ((kv, prefill_s), ns) =
            trace::timed("setup.kv", 0, || build(&inputs.prefill, &mut report));
        setups.push(ns as f64 / 1e9);
        prefills.push(prefill_s * 1e3);
        store = Some(kv);
    }
    let kv = store.expect("at least one setup ran");
    trace::set_enabled(false);

    let rss_before = crate::rss_mb();
    let windows = subwindows(opts);
    let warmup = Duration::from_secs_f64((opts.seconds / 4.0).clamp(0.05, WARMUP_MAX_S));
    let mut stm_marks = Vec::new();
    let mut lock_marks = Vec::new();
    let mut heap_marks = Vec::new();
    let (tallies, lengths) = drive(
        CLIENTS,
        warmup,
        &windows,
        |_| {
            stm_marks.push(kv.stm().stats());
            lock_marks.push(kv.map().locks().stats());
            heap_marks.push(kv.stm().heap().stats().snapshot());
        },
        |c, phase| client(&kv, &inputs.streams[c], c, phase, windows.len()),
    );

    // Output checks: the map holds exactly the keys the responses
    // account for, each with a value a put wrote.
    let (mut inserted, mut deleted) = (0i64, 0i64);
    for t in &tallies {
        inserted += t.inserted;
        deleted += t.deleted;
        for e in &t.errors {
            report.fail(e.clone());
        }
    }
    let entries = kv.map().snapshot();
    let expected = PREFILL as i64 + inserted - deleted;
    if entries.len() as i64 != expected {
        report.fail(format!(
            "map holds {} keys; prefill {PREFILL} + {inserted} inserts - {deleted} deletes = {expected}",
            entries.len()
        ));
    }
    if let Some((k, v)) = entries.iter().find(|(k, v)| !valid_value(*k, *v)) {
        report.fail(format!("map holds {k} -> {v}, which no put wrote"));
    }

    let measured: Vec<Window> = lengths
        .iter()
        .enumerate()
        .map(|(i, length)| {
            let mut w = Window { secs: length.as_secs_f64(), ..Window::default() };
            for t in &tallies {
                w.merge(&t.windows[i + 1]);
            }
            w
        })
        .collect();
    if !opts.trace {
        report.windows(&measured);
        report.setup(&setups, &setup_probes);
        // A deleted node is never freed, so the store grows with the
        // requests it serves, and so with host speed: its growth since the
        // set-up is scaled like the throughput.
        let speed = probe::speed(&Window::pooled(&measured).probe);
        report.set("peak_rss_mb", rss_before + (crate::peak_rss_mb() - rss_before) / speed);
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
    let last = windows.len();
    report.stm_delta(&stm_marks[last].delta_since(&stm_marks[0]));
    let (l0, l1) = (lock_marks[0], lock_marks[last]);
    let acquires = (l1.acquires - l0.acquires) as f64;
    let busy = (l1.busy_failures - l0.busy_failures) as f64;
    let calls = acquires + (l1.reentrant_hits - l0.reentrant_hits) as f64 + busy;
    report.set("boost.acquires", acquires);
    report.set("boost.wait_rounds", (l1.wait_rounds - l0.wait_rounds) as f64);
    report.set("boost.busy_failures", busy);
    report.set("boost.busy_ratio", ratio(busy, calls));
    report.set(
        "heap.allocs",
        (heap_marks[last].total_allocs() - heap_marks[0].total_allocs()) as f64,
    );
    report.set("heap.live_objects", kv.stm().heap().live_objects() as f64);
    report.set("heap.prefill_ms", median(&prefills));
    if let Some(a) = trace::aggregates().get("server.KvStore::execute") {
        report.set("server.busy_ms", a.self_ns as f64 / 1e6);
    }
    report.failures();
    report.ladder(config().stm);
    report
}
