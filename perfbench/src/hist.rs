//! Allocation-free log-linear latency histogram and percentile helpers.
//!
//! Values (nanoseconds, bytes) land in buckets whose width is 1/128 of
//! their magnitude, so a percentile read back is within 0.8 % of the exact
//! sample percentile. Percentiles interpolate linearly inside the bucket
//! that holds the requested rank, so repeated runs do not snap to bucket
//! edges.

/// Sub-buckets per power of two (2^7 = 128).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for every `u64` value.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Count, sum, extremes and a log-linear bucket array of recorded values.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() - SUB_BITS;
        ((e as u64 + 1) * SUB + ((v >> e) - SUB)) as usize
    }
}

/// Lowest value and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        (idx, 1)
    } else {
        let e = idx / SUB - 1;
        let sub = idx % SUB + SUB;
        (sub << e, 1u64 << e)
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Add every value recorded in `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolated inside its bucket and
    /// capped at the recorded maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (low, width) = bucket_range(idx);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return (low as f64 + frac * width as f64).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

/// Median of a small sample (mean of the middle pair for even lengths).
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for v in (0..5_000u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b < BUCKETS);
            assert!(b >= last, "buckets are monotone in the value");
            last = b;
            let (low, width) = bucket_range(b);
            assert!(low <= v && (v as u128) < low as u128 + width as u128);
            assert!(width <= low.max(1) / 64 || low < 256, "width within 1/128");
        }
        // Exact below 256.
        for v in 0..256u64 {
            assert_eq!(bucket_range(bucket_of(v)), (v, 1));
        }
    }

    #[test]
    fn percentiles_match_a_known_sample() {
        // 1..=100_000 ns: the q-quantile is q * 100_000.
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_000.5).abs() < 1e-6);
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: got {got}, want {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), 100_000.0);
    }

    #[test]
    fn percentiles_of_a_skewed_sample() {
        // 990 fast values and 10 slow ones: p50 is fast, p99.5 is slow.
        let mut h = Histogram::default();
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert!((h.quantile(0.5) - 1_000.0).abs() / 1_000.0 < 0.01);
        assert!((h.quantile(0.995) - 1_000_000.0).abs() / 1_000_000.0 < 0.01);
    }

    #[test]
    fn merge_equals_recording_both() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in 0..1_000u64 {
            a.record(v * 7);
            both.record(v * 7);
            b.record(v * 13 + 5);
            both.record(v * 13 + 5);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
        assert_eq!(a.quantile(0.99), both.quantile(0.99));
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
