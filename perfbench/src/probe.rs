//! The host-speed probe.
//!
//! The vCPUs of a shared virtual machine change speed by up to half
//! again, for seconds to minutes at a time, as their neighbours come and
//! go; every timing the benchmark takes moves with them, and a drift
//! slower than a run cannot be averaged away inside it. So the workloads
//! run a fixed chunk of general-purpose work, which touches none of the
//! repository's code, every few milliseconds between requests, and the
//! end-to-end timings of each measured window are scaled to a host on
//! which one chunk takes [`REF_CHUNK_NS`]. A change to the program moves
//! the scaled figures exactly as much as the raw ones; a change in host
//! speed moves the chunk as well, and cancels out.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::Hist;

/// Nanoseconds one chunk takes on the reference host: the scaled
/// timings are those of a host this fast.
pub const REF_CHUNK_NS: f64 = 13_000.0;
/// Keys in the probe's hash map (about 200 KB, well inside a core's
/// L2 cache).
const MAP_KEYS: usize = 8192;
/// Hash-map lookups and updates per chunk.
const MAP_OPS: u32 = 256;
/// Words in the compare-and-swap table (32 KiB).
const TABLE: usize = 4096;
/// Compare-and-swap steps per chunk.
const CAS_OPS: u32 = 512;

/// SipHash with fixed keys, so every process builds the same map.
type FixedState = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One thread's probe. Its map never grows after construction, so every
/// chunk does the same kind of work.
pub struct Probe {
    map: HashMap<u64, u64, FixedState>,
    keys: Vec<u64>,
    table: Vec<u64>,
    cell: AtomicU64,
    x: u64,
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let keys: Vec<u64> = (0..MAP_KEYS).map(|_| xorshift(&mut x)).collect();
        let map = keys.iter().map(|&k| (k, 0)).collect();
        Probe { map, keys, table: vec![0; TABLE], cell: AtomicU64::new(0), x }
    }
}

impl Probe {
    /// Runs one chunk; its nanoseconds. The chunk first reads its whole
    /// working set, untimed, so that what the program left in the caches
    /// does not change its time.
    pub fn chunk(&mut self) -> u64 {
        let warm = self.map.values().fold(0u64, |a, v| a ^ v)
            ^ self.keys.iter().fold(0u64, |a, k| a ^ k)
            ^ self.table.iter().fold(0u64, |a, w| a ^ w);
        black_box(warm);
        let start = Instant::now();
        let mut x = self.x;
        let mut hits = 0u64;
        for _ in 0..MAP_OPS {
            let r = xorshift(&mut x);
            // Half of the lookups hit (and update), half miss.
            let key = if r & 1 == 0 { self.keys[(r >> 1) as usize % MAP_KEYS] } else { r };
            if let Some(v) = self.map.get_mut(&key) {
                *v += 1;
                hits += 1;
            }
        }
        for _ in 0..CAS_OPS {
            let r = xorshift(&mut x);
            let i = r as usize & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(r);
            let seen = self.cell.load(Ordering::Relaxed);
            let _ = self.cell.compare_exchange(seen, seen ^ r, Ordering::AcqRel, Ordering::Acquire);
        }
        self.x = black_box(x);
        black_box(hits);
        start.elapsed().as_nanos() as u64
    }

    /// Runs `n` chunks into `hist`.
    pub fn chunks(&mut self, n: usize, hist: &mut Hist) {
        for _ in 0..n {
            hist.record(self.chunk());
        }
    }
}

/// How much faster than the reference host the probe ran: durations
/// measured alongside `chunks` are multiplied by this, rates divided.
/// 1 when no chunk ran.
pub fn speed(chunks: &Hist) -> f64 {
    if chunks.count() == 0 {
        1.0
    } else {
        REF_CHUNK_NS / chunks.quantile(0.5)
    }
}
