//! Named counters, maxima, and log-scale histograms.
//!
//! Metric names are dotted paths (`flow.unify.calls`,
//! `sat.checks.twosat`, `beta.clauses.live`); see
//! `docs/OBSERVABILITY.md` for the full naming scheme. Registries are
//! plain values — every [`crate::Recorder`] snapshot carries one, each
//! thread buffers its own, and [`MetricsRegistry::merge`] combines them
//! (counters add, maxima max, histograms merge bucket-wise), which is
//! how per-thread buffers fold into their recorder.

use std::collections::BTreeMap;

use crate::json::Json;

/// Power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range, so clause
/// counts and nanosecond durations share one shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `1 + floor(log2(v))`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Lower bound of log₂ bucket `i` (see [`bucket_index`]).
pub(crate) fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Non-empty log₂ buckets as `(lower_bound_inclusive, count)` pairs.
pub(crate) fn nonzero_buckets(buckets: &[u64]) -> Vec<(u64, u64)> {
    let occupied = buckets.iter().enumerate().filter(|(_, &n)| n > 0);
    occupied.map(|(i, &n)| (bucket_floor(i), n)).collect()
}

/// [`percentile_from_buckets`] over bare buckets, with no exact
/// minimum: the lowest occupied bucket's floor stands in for it, and
/// `max` is clamped into the highest occupied bucket (pass `u64::MAX`
/// when no exact maximum is tracked).
pub(crate) fn bucket_percentile(buckets: &[u64], max: u64, p: f64) -> Option<u64> {
    let min = bucket_floor(buckets.iter().position(|&n| n > 0)?);
    let top = bucket_floor(buckets.iter().rposition(|&n| n > 0)?);
    let max = max.clamp(min, top.saturating_mul(2).saturating_sub(1).max(min));
    percentile_from_buckets(buckets, buckets.iter().sum(), min, max, p)
}

/// Estimated `p`-th percentile (`0.0 ..= 100.0`) over log₂ buckets
/// (bucket `0` = the value 0, bucket `i ≥ 1` = `[2^(i-1), 2^i)`) with
/// a known sample `count` and observed `min`/`max`. This is the one
/// estimator every surface shares — [`Histogram::percentile`], the
/// lock-wait report, and the allocation-size report — so text and
/// JSON renderings of the same data can never disagree: the ranked
/// sample's bucket is found by walking counts, the position inside
/// the bucket is interpolated linearly, and the estimate is clamped
/// to `[min, max]` (exact at the extremes, within one bucket — a
/// factor of two — in between).
pub fn percentile_from_buckets(
    buckets: &[u64],
    count: u64,
    min: u64,
    max: u64,
    p: f64,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    // The extreme ranks are tracked exactly; only interior ranks
    // need the bucket walk.
    if rank >= count {
        return Some(max);
    }
    if rank == 1 {
        return Some(min);
    }
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n >= rank {
            let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
            let hi = lo.saturating_mul(2).saturating_sub(1);
            let idx = rank - seen - 1; // 0-based position inside the bucket
            let est = if n <= 1 || hi <= lo {
                lo
            } else {
                lo + ((hi - lo) as u128 * idx as u128 / (n - 1) as u128) as u64
            };
            return Some(est.clamp(min, max));
        }
        seen += n;
    }
    Some(max)
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `p`-th percentile (`0.0 ..= 100.0`) of the recorded
    /// samples, via the shared [`percentile_from_buckets`] estimator
    /// (linear interpolation inside the ranked sample's power-of-two
    /// bucket, clamped to the observed `[min, max]`).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        percentile_from_buckets(&self.buckets, self.count, self.min, self.max, p)
    }

    /// Number of samples in bucket `i` (see [`bucket_index`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Non-empty buckets as `(lower_bound_inclusive, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        nonzero_buckets(&self.buckets)
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            (
                "min",
                self.min().map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "max",
                self.max().map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "p50",
                self.percentile(50.0)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "p90",
                self.percentile(90.0)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "p99",
                self.percentile(99.0)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, n)| Json::Arr(vec![Json::Int(lo as i64), Json::Int(n as i64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A registry of named counters, maxima, and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    maxima: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Raises the maximum `name` to at least `value`.
    pub fn raise_max(&mut self, name: &str, value: u64) {
        match self.maxima.get_mut(name) {
            Some(m) => *m = (*m).max(value),
            None => {
                self.maxima.insert(name.to_string(), value);
            }
        }
    }

    /// Records `value` into the histogram `name`.
    pub fn record(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn maximum(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn maxima(&self) -> impl Iterator<Item = (&str, u64)> {
        self.maxima.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.maxima.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, maxima take the max,
    /// histograms merge bucket-wise. Associative and commutative, so
    /// per-thread registries can fold in any order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &n) in &other.counters {
            self.add(name, n);
        }
        for (name, &v) in &other.maxima {
            self.raise_max(name, v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Int(v as i64)))
                        .collect(),
                ),
            ),
            (
                "maxima",
                Json::Obj(
                    self.maxima
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Int(v as i64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), None);
        for v in [0u64, 1, 3, 8, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1020);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.bucket(0), 1); // the single 0
        assert_eq!(h.bucket(4), 2); // both 8s in [8,16)
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 1), (8, 2), (512, 1)]
        );
    }

    #[test]
    fn percentiles_from_buckets() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), None);

        let mut h = Histogram::default();
        h.record(7);
        // A single sample is every percentile.
        assert_eq!(h.percentile(0.0), Some(7));
        assert_eq!(h.percentile(50.0), Some(7));
        assert_eq!(h.percentile(100.0), Some(7));

        // 99 samples of 1 and one of 1000: the tail only shows past p99.
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.percentile(90.0), Some(1));
        assert_eq!(h.percentile(99.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(1000));

        // Estimates stay inside the observed range and are monotone.
        let mut h = Histogram::default();
        for v in [3u64, 5, 9, 12, 70, 300, 301, 302, 900, 4000] {
            h.record(v);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let e = h.percentile(p).unwrap();
            assert!((3..=4000).contains(&e), "p{p} = {e} out of range");
            assert!(e >= last, "p{p} = {e} not monotone (prev {last})");
            last = e;
        }
        assert_eq!(h.percentile(100.0), Some(4000));
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [1u64, 5, 9] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 5, 700] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_merge_semantics() {
        let mut a = MetricsRegistry::new();
        a.add("calls", 3);
        a.raise_max("peak", 10);
        a.record("sizes", 4);
        let mut b = MetricsRegistry::new();
        b.add("calls", 2);
        b.add("other", 1);
        b.raise_max("peak", 7);
        b.record("sizes", 100);
        a.merge(&b);
        assert_eq!(a.counter("calls"), 5);
        assert_eq!(a.counter("other"), 1);
        assert_eq!(a.maximum("peak"), 10);
        assert_eq!(a.histogram("sizes").unwrap().count(), 2);
    }
}
