//! Fixed-memory latency histogram.
//!
//! Log-linear buckets (64 per power of two, about 1.6% wide) keep memory
//! constant however many operations a run completes, so the benchmark's
//! own bookkeeping never moves `peak_rss_mb`. Each bucket also keeps the
//! sum of its samples: a quantile reads the mean of the samples in its
//! bucket, a measured value rather than a bucket edge.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Histogram of `u64` samples (host nanoseconds throughout the benchmark).
#[derive(Debug, Clone)]
pub struct Hist {
    count: Vec<u64>,
    sum: Vec<u64>,
    n: u64,
    total: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            count: vec![0; BUCKETS],
            sum: vec![0; BUCKETS],
            n: 0,
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        self.count[b] += 1;
        self.sum[b] += v;
        self.n += 1;
        self.total += v as u128;
    }

    /// Fold `other` into this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for b in 0..BUCKETS {
            self.count[b] += other.count[b];
            self.sum[b] += other.sum[b];
        }
        self.n += other.n;
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of all samples.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`), 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for b in 0..BUCKETS {
            seen += self.count[b];
            if seen >= rank {
                return self.sum[b] as f64 / self.count[b] as f64;
            }
        }
        unreachable!("rank {rank} lies within {} samples", self.n)
    }

    /// Whether at least ten samples lie beyond the `q`-quantile, the
    /// condition for reporting it.
    pub fn has_tail(&self, q: f64) -> bool {
        (self.n as f64 * (1.0 - q)) >= 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_samples_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.02, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.02, "{p99}");
        assert!(h.has_tail(0.99));
        assert_eq!(h.len(), 1000);
    }

    #[test]
    fn buckets_are_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1 << 20, u64::MAX] {
            let b = bucket(v);
            assert!(b >= last && b < BUCKETS);
            last = b;
        }
    }
}
