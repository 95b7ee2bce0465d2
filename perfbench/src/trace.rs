//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself carries no tracing: a span starts just before the
//! benchmark calls a layer's public function and ends when it returns.
//! Spans are kept in memory per thread (the first
//! [`SPANS_PER_THREAD`] in full, all of them in per-name aggregates
//! with self time) and written out once the run ends (at most
//! [`SPANS_WRITTEN`] in full). With tracing off
//! a span is a clock read on each side of the call, which the benchmark
//! needs anyway for latencies.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept in full per thread; later ones only feed the aggregates.
pub const SPANS_PER_THREAD: usize = 16_384;
/// Spans written out in full per run, first threads first.
pub const SPANS_WRITTEN: usize = 32_768;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, as `<layer>.<function>`.
    pub name: &'static str,
    /// Identifier, unique within its thread (1-based).
    pub id: u32,
    /// The enclosing span's `id`, 0 for none.
    pub parent: u32,
    /// Request the span served (the operation's sequence number).
    pub req: u64,
    /// Start, in nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: u32,
    req: u64,
    start: Instant,
    child_ns: u64,
}

/// Everything one thread recorded.
#[derive(Default)]
pub struct ThreadTrace {
    stack: Vec<Open>,
    next_id: u32,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Runs `f` (a call into a layer) and returns its result and duration
/// in nanoseconds, recording a span named `name` for request `req` when
/// tracing is on.
#[inline]
pub fn timed<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, u64) {
    if !enabled() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed().as_nanos() as u64);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.next_id += 1;
        let id = l.next_id;
        l.stack.push(Open { name, id, req, start: Instant::now(), child_ns: 0 });
    });
    let out = f();
    let end = Instant::now();
    let dur = LOCAL.with(|l| l.borrow_mut().close(end));
    (out, dur)
}

impl ThreadTrace {
    fn close(&mut self, end: Instant) -> u64 {
        let open = self.stack.pop().expect("span closed without being opened");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let agg = self.agg.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < SPANS_PER_THREAD {
            let start_ns = open.start.duration_since(epoch()).as_nanos() as u64;
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent,
                req: open.req,
                start_ns,
                dur_ns: dur,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }
}

/// Hands the calling thread's spans to the process-wide collection.
/// Every thread that records spans calls this before it ends.
pub fn flush() {
    let local = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if local.next_id > 0 {
        COLLECTED.lock().expect("a thread panicked while flushing spans").push(local);
    }
}

/// Drops every flushed span.
pub fn reset() {
    COLLECTED.lock().expect("a thread panicked while flushing spans").clear();
}

/// Per-name aggregates over every flushed thread and the calling one.
pub fn aggregates() -> BTreeMap<&'static str, Agg> {
    flush();
    let collected = COLLECTED.lock().expect("a thread panicked while flushing spans");
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for t in collected.iter() {
        for (name, a) in &t.agg {
            let e = out.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }
    out
}

/// Every flushed span and aggregate as one JSON document.
pub fn to_json() -> String {
    let collected = COLLECTED.lock().expect("a thread panicked while flushing spans");
    let mut out = String::from("{\"spans\":[");
    let mut written = 0;
    for (thread, t) in collected.iter().enumerate() {
        for s in t.spans.iter().take(SPANS_WRITTEN - written) {
            if written > 0 {
                out.push(',');
            }
            written += 1;
            let _ = write!(
                out,
                "\n{{\"thread\":{thread},\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.dur_ns
            );
        }
    }
    let kept: usize = collected.iter().map(|t| t.spans.len()).sum();
    let dropped = collected.iter().map(|t| t.dropped).sum::<u64>() + (kept - written) as u64;
    drop(collected);
    let _ = write!(out, "\n],\"spans_not_kept\":{dropped},\"layers\":{{");
    for (i, (name, a)) in aggregates().iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i == 0 { "" } else { "," },
            a.count,
            a.total_ns,
            a.self_ns
        );
    }
    out.push_str("\n}}\n");
    out
}
