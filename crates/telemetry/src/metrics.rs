//! Named counters, histograms, and virtual-time series.
//!
//! Everything is keyed by `BTreeMap`, so serialized registries are
//! deterministically ordered; everything is stamped with [`SimTime`], so a
//! registry never consults the wall clock. Histograms use fixed
//! power-of-ten buckets (no per-registry configuration to drift between
//! runs), and time series aggregate samples into fixed-width virtual-time
//! buckets so a 12-month trace stays small.

use dlrover_sim::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;

/// Upper bounds (exclusive) of the histogram buckets: 1e-6 … 1e9, one
/// decade per bucket, plus an overflow bucket.
const DECADES: i32 = 16;
const FIRST_DECADE: i32 = -6;

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Per-decade counts (`counts[i]` ⇔ value < 10^(FIRST_DECADE + i)),
    /// final slot = overflow.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; DECADES as usize + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one observation (non-finite values are ignored).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut idx = DECADES as usize; // overflow by default
        for i in 0..DECADES {
            if value < 10f64.powi(FIRST_DECADE + i) {
                idx = i as usize;
                break;
            }
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Deterministic quantile estimate (`q` in `[0, 1]`) by cumulative
    /// bucket walk + linear interpolation inside the landing bucket.
    ///
    /// The bucket layout is fixed (one power-of-ten decade per bucket),
    /// so the estimate is a pure function of the counts — identical
    /// across runs, merge orders, and thread counts, unlike a sample
    /// reservoir. Interpolation assumes observations spread uniformly
    /// within a bucket: the first bucket interpolates up from 0, the
    /// overflow bucket up to `max`, and the result is clamped to
    /// `[min, max]` so a single-value histogram reports that value
    /// exactly. Returns 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let through = below + c;
            if through as f64 >= target {
                let lo = if i == 0 { 0.0 } else { 10f64.powi(FIRST_DECADE + i as i32 - 1) };
                let hi = if i == DECADES as usize {
                    self.max
                } else {
                    10f64.powi(FIRST_DECADE + i as i32)
                };
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            below = through;
        }
        self.max
    }

    /// Median estimate (see `Self::quantile`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see `Self::quantile`).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see `Self::quantile`).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Adds `other`'s observations into this histogram (bucket-wise; the
    /// fixed bucket layout makes merging exact for counts, approximate for
    /// nothing — sum/min/max combine losslessly too).
    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One aggregated time-series bucket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesPoint {
    /// Bucket index (`at / bucket_width`).
    pub bucket: u64,
    /// Sum of samples in the bucket.
    pub sum: f64,
    /// Sample count in the bucket.
    pub count: u64,
    /// Last sample in the bucket.
    pub last: f64,
}

impl SeriesPoint {
    /// Bucket mean.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A virtual-time-bucketed series of samples.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeSeries {
    /// Bucket width in microseconds.
    pub bucket_us: u64,
    /// Buckets in time order (sparse: empty buckets are absent).
    pub points: Vec<SeriesPoint>,
}

impl TimeSeries {
    fn new(bucket: SimDuration) -> Self {
        TimeSeries { bucket_us: bucket.as_micros().max(1), points: Vec::new() }
    }

    fn sample(&mut self, at: SimTime, value: f64) {
        if !value.is_finite() {
            return;
        }
        let bucket = at.as_micros() / self.bucket_us;
        match self.points.last_mut() {
            Some(p) if p.bucket == bucket => {
                p.sum += value;
                p.count += 1;
                p.last = value;
            }
            _ => self.points.push(SeriesPoint { bucket, sum: value, count: 1, last: value }),
        }
    }

    /// Merges `other`'s buckets into this series (bucket widths must
    /// match). Same-index buckets combine sums and counts; `last` takes
    /// `other`'s value (merge order is fixed, so this is deterministic).
    /// The result is re-sorted by bucket index.
    fn absorb(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_us, other.bucket_us,
            "cannot merge time series with different bucket widths"
        );
        let mut merged: BTreeMap<u64, SeriesPoint> =
            self.points.drain(..).map(|p| (p.bucket, p)).collect();
        for p in &other.points {
            match merged.get_mut(&p.bucket) {
                Some(mine) => {
                    mine.sum += p.sum;
                    mine.count += p.count;
                    mine.last = p.last;
                }
                None => {
                    merged.insert(p.bucket, p.clone());
                }
            }
        }
        self.points = merged.into_values().collect();
    }
}

/// Default time-series bucket width.
pub(crate) const DEFAULT_SERIES_BUCKET: SimDuration = SimDuration::from_secs(60);

/// The registry: named counters, histograms, and time series.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsRegistry {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Virtual-time series.
    pub series: BTreeMap<String, TimeSeries>,
}

impl MetricsRegistry {
    /// Increments counter `name` by `n`.
    pub fn count(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Appends a `(at, value)` sample to series `name`, aggregating into
    /// `DEFAULT_SERIES_BUCKET`-wide virtual-time buckets.
    pub fn sample(&mut self, name: &str, at: SimTime, value: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.sample(at, value);
        } else {
            let mut s = TimeSeries::new(DEFAULT_SERIES_BUCKET);
            s.sample(at, value);
            self.series.insert(name.to_string(), s);
        }
    }

    /// Merges another registry into this one (the metrics half of the
    /// parallel experiment engine's per-unit merge; callers absorb unit
    /// registries in sorted-unit-key order).
    ///
    /// Counters and histograms combine losslessly; time series merge
    /// bucket-wise (see [`TimeSeries`]).
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        self.absorb_owned(other.clone());
    }

    /// [`Self::absorb`], consuming the other registry: names and payloads
    /// *move* in where this registry has no entry yet (the common case in
    /// a merge into a fresh sink), instead of being cloned key by key.
    pub(crate) fn absorb_owned(&mut self, other: MetricsRegistry) {
        for (name, n) in other.counters {
            match self.counters.get_mut(&name) {
                Some(mine) => *mine += n,
                None => {
                    self.counters.insert(name, n);
                }
            }
        }
        for (name, h) in other.histograms {
            match self.histograms.get_mut(&name) {
                Some(mine) => mine.absorb(&h),
                None => {
                    self.histograms.insert(name, h);
                }
            }
        }
        for (name, s) in other.series {
            match self.series.get_mut(&name) {
                Some(mine) => mine.absorb(&s),
                None => {
                    self.series.insert(name, s);
                }
            }
        }
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::default();
        m.count("scalings", 1);
        m.count("scalings", 2);
        assert_eq!(m.counter("scalings"), 3);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0.5, 5.0, 5.0, 500.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 500.0);
        assert!((h.mean() - 127.625).abs() < 1e-9);
        assert_eq!(h.counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn quantiles_interpolate_within_buckets_and_clamp_to_range() {
        let mut h = Histogram::default();
        // 100 observations spread across the [1, 10) decade.
        for i in 0..100 {
            h.observe(1.0 + 9.0 * (i as f64) / 100.0);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 > 1.0 && p50 < 10.0, "p50 inside the decade: {p50}");
        assert!(p95 > p50 && p99 >= p95, "quantiles must be monotone");
        assert!(p99 <= h.max, "clamped to observed range");
        // A single-valued histogram reports that value exactly.
        let mut single = Histogram::default();
        single.observe(0.25);
        assert_eq!(single.p50(), 0.25);
        assert_eq!(single.p99(), 0.25);
        // Empty histogram: defined, zero.
        assert_eq!(Histogram::default().p95(), 0.0);
    }

    #[test]
    fn quantiles_are_merge_order_invariant() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0.01, 0.5, 2.0, 80.0] {
            a.observe(v);
        }
        for v in [0.3, 7.0, 7.0, 900.0] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.p50(), ba.p50());
        assert_eq!(ab.p95(), ba.p95());
        assert_eq!(ab.p99(), ba.p99());
    }

    #[test]
    fn absorb_owned_matches_absorb() {
        let mut a = MetricsRegistry::default();
        a.count("iters", 3);
        a.observe("lat", 0.5);
        a.sample("s", SimTime::from_secs(10), 1.0);
        let mut b = MetricsRegistry::default();
        b.count("iters", 4);
        b.count("fresh", 1);
        b.observe("lat", 5.0);
        b.observe("lat2", 0.125);
        b.sample("s", SimTime::from_secs(30), 3.0);
        let mut by_ref = a.clone();
        by_ref.absorb(&b);
        let mut by_own = a.clone();
        by_own.absorb_owned(b.clone());
        assert_eq!(
            serde_json::to_string(&by_ref).unwrap(),
            serde_json::to_string(&by_own).unwrap()
        );
    }

    #[test]
    fn series_aggregates_within_buckets() {
        let mut m = MetricsRegistry::default();
        m.sample("thp", SimTime::from_secs(10), 1.0);
        m.sample("thp", SimTime::from_secs(50), 3.0);
        m.sample("thp", SimTime::from_secs(70), 5.0);
        let s = &m.series["thp"];
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].count, 2);
        assert_eq!(s.points[0].mean(), 2.0);
        assert_eq!(s.points[0].last, 3.0);
        assert_eq!(s.points[1].bucket, 1);
    }

    #[test]
    fn absorb_combines_counters_histograms_and_series() {
        let mut a = MetricsRegistry::default();
        a.count("iters", 3);
        a.observe("lat", 0.5);
        a.sample("s", SimTime::from_secs(10), 1.0);
        let mut b = MetricsRegistry::default();
        b.count("iters", 4);
        b.observe("lat", 5.0);
        b.sample("s", SimTime::from_secs(30), 3.0); // same bucket as a's
        b.sample("s", SimTime::from_secs(70), 9.0);

        a.absorb(&b);
        assert_eq!(a.counter("iters"), 7);
        let h = &a.histograms["lat"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 5.0);
        let s = &a.series["s"];
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].count, 2);
        assert_eq!(s.points[0].sum, 4.0);
        assert_eq!(s.points[0].last, 3.0);
        assert_eq!(s.points[1].bucket, 1);
    }

    #[test]
    fn registry_serializes_deterministically() {
        let build = || {
            let mut m = MetricsRegistry::default();
            m.count("b", 1);
            m.count("a", 2);
            m.observe("lat", 0.25);
            m.sample("s", SimTime::from_secs(1), 1.0);
            serde_json::to_string(&m).unwrap()
        };
        assert_eq!(build(), build());
        // BTreeMap ordering: "a" serializes before "b".
        let s = build();
        assert!(s.find("\"a\"").unwrap() < s.find("\"b\"").unwrap());
    }
}
