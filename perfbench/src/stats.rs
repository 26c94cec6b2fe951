//! Order statistics over run samples and a lock-free latency histogram
//! for per-call spans.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in
/// place); `0.0` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Values below this are counted exactly, one bucket each.
const LINEAR: u64 = 16;
/// Sub-buckets per octave above [`LINEAR`]: ±6% resolution.
const SUB_BITS: u32 = 3;
const BUCKETS: usize = 16 + 60 * (1 << SUB_BITS);

/// Log-bucketed histogram of nanosecond durations. Recording is one
/// relaxed `fetch_add`, so the span hot path neither locks nor
/// allocates; quantiles are read at bucket resolution (±6%).
pub struct Hist {
    buckets: Box<[AtomicU64]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < LINEAR {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // ≥ 4
    let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    (LINEAR as usize + ((exp - 4) << SUB_BITS) as usize + sub as usize).min(BUCKETS - 1)
}

/// Midpoint of bucket `i` in nanoseconds.
fn bucket_mid(i: usize) -> f64 {
    if (i as u64) < LINEAR {
        return i as f64;
    }
    let j = i - LINEAR as usize;
    let exp = (j >> SUB_BITS) as u32 + 4;
    let sub = (j & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    ((1u64 << exp) + sub * width) as f64 + width as f64 / 2.0
}

impl Hist {
    /// Records one duration.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Quantile `q` at bucket resolution; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&self, other: &Hist) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn histogram_median_within_bucket_resolution() {
        let h = Hist::default();
        for ns in [5u64, 100, 1_000, 1_000, 1_000, 50_000, 7] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        let p50 = h.quantile(0.5);
        assert!((p50 - 1_000.0).abs() / 1_000.0 < 0.07, "{p50}");
        assert_eq!(h.quantile(0.0), 5.0);
        for ns in [17u64, 123, 4_567, 1 << 40] {
            let mid = bucket_mid(bucket_of(ns));
            assert!((mid - ns as f64).abs() / ns as f64 <= 0.07, "{ns} -> {mid}");
        }
    }
}
