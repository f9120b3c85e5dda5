//! Log-bucketed HDR-style histograms over non-negative integers.
//!
//! Fixed layout — every histogram has the same 252 buckets, so merging is
//! element-wise addition and therefore commutative and associative:
//! recording the same samples in any order, split across any number of DSE
//! workers and merged in any order, yields bit-identical bucket counts and
//! quantiles. That merge-order independence is what makes the serve/DSE
//! determinism guarantees survive telemetry.
//!
//! Bucket scheme (values are `u64`, e.g. latencies in microseconds):
//!
//! * bucket 0 holds the value 0, buckets 1–3 hold 1, 2, 3 exactly;
//! * every value `v >= 4` lands in one of four sub-buckets of its binary
//!   magnitude: with `e = floor(log2 v)` and `sub = (v >> (e-2)) & 3`,
//!   the bucket index is `4 + (e-2)*4 + sub`.
//!
//! Four sub-buckets per power of two bound the relative quantile error at
//! 25% while keeping the whole histogram a flat 2 KiB array — the classic
//! HdrHistogram trade at its coarsest setting.

/// Exact buckets for 0..=3, then 4 sub-buckets for each of the 62
/// magnitudes 2^2..2^63.
const EXACT: usize = 4;
const BUCKETS: usize = EXACT + 62 * 4;

/// A fixed-layout log-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index for `v` (see the module docs for the layout).
fn index_of(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (e - 2)) & 3) as usize;
    EXACT + (e - 2) * 4 + sub
}

/// The inclusive upper bound of bucket `index` — the value reported for
/// any quantile that lands in it.
fn upper_bound(index: usize) -> u64 {
    if index < EXACT {
        return index as u64;
    }
    let e = 2 + (index - EXACT) / 4;
    let sub = ((index - EXACT) % 4) as u128;
    // Buckets cover [2^e + sub*2^(e-2), 2^e + (sub+1)*2^(e-2) - 1]; the
    // very last bucket's bound is exactly u64::MAX, so compute in u128.
    let bound = (1u128 << e) + (sub + 1) * (1u128 << (e - 2)) - 1;
    bound.min(u64::MAX as u128) as u64
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Element-wise merge: commutative, associative, deterministic across
    /// any split of the samples over workers.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket holding the sample of integer rank `max(1, ceil(q *
    /// count))` — exact for values below 4, within 25% above. Returns 0
    /// for an empty histogram; `q >= 1` reports the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the true extremes.
                return upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending —
    /// the series a Prometheus `_bucket` exposition is built from.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (upper_bound(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..4 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.75), 2);
        assert_eq!(h.quantile(1.0), 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6);
    }

    #[test]
    fn buckets_partition_the_u64_line() {
        // Every bucket's range starts right after the previous bucket ends.
        let mut prev_end = None;
        for i in 0..BUCKETS {
            let end = upper_bound(i);
            if let Some(p) = prev_end {
                assert!(end > p, "bucket {i} upper bound not increasing");
            }
            prev_end = Some(end);
        }
        // And index_of(v) maps v into a bucket whose bound is >= v.
        for v in [0, 1, 3, 4, 5, 7, 8, 100, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = index_of(v);
            assert!(upper_bound(i) >= v, "value {v} above its bucket bound");
            if i > 0 {
                assert!(upper_bound(i - 1) < v, "value {v} fits an earlier bucket");
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let got = h.quantile(q);
            assert!(got >= want, "q{q}: {got} < exact {want}");
            assert!(
                (got - want) as f64 <= want as f64 * 0.25,
                "q{q}: {got} overshoots exact {want} by more than 25%"
            );
        }
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut rng = SplitMix64::new(42);
        let samples: Vec<u64> = (0..1000).map(|_| rng.next_u64() >> 40).collect();

        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }

        // Split across 8 "workers", merge in reverse order.
        let mut shards: Vec<Histogram> = (0..8).map(|_| Histogram::new()).collect();
        for (i, &s) in samples.iter().enumerate() {
            shards[i % 8].record(s);
        }
        let mut merged = Histogram::new();
        for shard in shards.iter().rev() {
            merged.merge(shard);
        }
        assert_eq!(whole, merged);
        assert_eq!(whole.quantile(0.99), merged.quantile(0.99));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn nonzero_buckets_are_cumulative_consistent() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 5, 100, 100_000] {
            h.record(v);
        }
        let total: u64 = h.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, h.count());
        let bounds: Vec<u64> = h.nonzero_buckets().map(|(b, _)| b).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
