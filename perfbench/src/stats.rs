//! Latency histograms, percentiles and medians.
//!
//! Latencies are recorded in nanoseconds into a log-linear histogram
//! with 128 sub-buckets per octave (exact below 128 ns, at most 0.8%
//! relative bucket width above, and percentiles interpolated by rank
//! within a bucket). Memory grows with the largest latency seen, not
//! with the number of requests.

/// Sub-bucket bits per octave.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^36 ns (about 68 s).
const MAX_EXP: u32 = 36;

/// The percentiles a tail is chosen from, as fractions.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// A latency histogram in nanoseconds.
#[derive(Clone, Default)]
pub struct Hist {
    /// Counts per bucket, up to the highest bucket used.
    counts: Vec<u32>,
    n: u64,
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hist {{ n: {} }}", self.n)
    }
}

fn index_of(v: u64) -> usize {
    let v = v.min((1u64 << MAX_EXP) - 1);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((v >> shift) & (SUB - 1))) as usize
}

/// Lowest value in bucket `idx` and the bucket's width.
fn bucket_range(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let shift = idx / SUB - 1;
    (((SUB + idx % SUB) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let idx = index_of(ns);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] =
            self.counts[idx].checked_add(1).expect("fewer than 2^32 samples per bucket");
        self.n += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.checked_add(*b).expect("fewer than 2^32 samples per bucket");
        }
        self.n += other.n;
    }

    /// The `p`-quantile in nanoseconds (`p` in `[0, 1]`), interpolated
    /// within its bucket; 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (low, width) = bucket_range(idx);
                let within = (rank - seen) as f64 - 0.5;
                return low + width * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }

    /// The highest percentile of the ladder p50, p90, p99, ... with at
    /// least ten samples beyond it, as a fraction; `None` below eleven
    /// samples.
    pub fn tail(&self) -> Option<f64> {
        TAIL_LADDER.iter().copied().rev().find(|p| (1.0 - p) * self.n as f64 + 1e-6 >= 10.0)
    }

    /// One line of summary: samples, p50, p99 and the supported tail.
    pub fn describe(&self, label: &str) -> String {
        let tail = match self.tail() {
            Some(p) => format!("p{} {:.2} us", (p * 1e5).round() / 1e3, self.quantile(p) / 1e3),
            None => "no percentile has ten samples beyond it".to_owned(),
        };
        format!(
            "{label}: {} samples, p50 {:.2} us, p99 {:.2} us{}, tail {tail}",
            self.n,
            self.quantile(0.5) / 1e3,
            self.quantile(0.99) / 1e3,
            if self.n >= 1000 { "" } else { " (under 1000 samples)" },
        )
    }
}

/// The `p`-quantile of `values` (`p` in `[0, 1]`), interpolated
/// linearly between the order statistics; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1023, 123_456, 9_999_999] {
            let (low, width) = bucket_range(index_of(v));
            assert!(low <= v as f64 && (v as f64) < low + width, "{v}: [{low}, +{width})");
        }
    }

    #[test]
    fn quantiles_are_close_to_exact() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.008, "{p50}");
        assert_eq!(h.tail(), Some(0.9999));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
