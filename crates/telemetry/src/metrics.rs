//! Typed metrics: monotonic counters, last-write gauges, and raw-value
//! histograms with nearest-rank percentiles.
//!
//! Everything is `BTreeMap`-backed so snapshots iterate in sorted name
//! order and the plain-text export is deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// `p` is in `(0, 100]`; with `n` samples the nearest-rank index is
/// `ceil(p/100 · n) - 1` — the convention the paper-style latency tables
/// (p50/p95/p99) use, and the one `serve::metrics` has always used.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

/// A histogram of raw `u64` observations (latencies in ns, batch sizes,
/// byte counts). Observations are kept verbatim — at simulation scale the
/// exactness is worth more than a sketch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    values: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.values.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        self.values.iter().copied().min()
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        self.values.iter().copied().max()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile (`p` in `(0, 100]`) of the observations.
    ///
    /// # Panics
    /// Panics when empty or `p` is out of range, like
    /// [`percentile_of_sorted`].
    pub fn percentile(&self, p: f64) -> u64 {
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        percentile_of_sorted(&sorted, p)
    }

    /// The raw observations, in recording order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Registry of named counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero on first touch; only
    /// a new name allocates, here and in the other updates).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .record(value);
        }
    }

    /// Histogram `name`, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Merge another registry into this one: counters add, gauges take
    /// the other's value (last write wins, matching
    /// [`gauge_set`](MetricsRegistry::gauge_set)), histograms append
    /// observations. Used to fold a subsystem's private registry (e.g.
    /// the fleet's router gauges) into a run's exported telemetry.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.counter_add(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauge_set(name, *v);
        }
        for (name, h) in &other.histograms {
            let dst = self.histograms.entry(name.clone()).or_default();
            for v in h.values() {
                dst.record(*v);
            }
        }
    }

    /// Plain-text snapshot: one line per metric, sorted within sorted
    /// sections, deterministic.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "# counters");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name} = {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "# gauges");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name} = {v:.3}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "# histograms");
            for (name, h) in &self.histograms {
                if h.is_empty() {
                    let _ = writeln!(out, "{name}: count=0");
                } else {
                    let _ = writeln!(
                        out,
                        "{name}: count={} min={} max={} mean={:.1} p50={} p95={} p99={}",
                        h.count(),
                        h.min().unwrap(),
                        h.max().unwrap(),
                        h.mean(),
                        h.percentile(50.0),
                        h.percentile(95.0),
                        h.percentile(99.0),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_known_quantiles() {
        // 1..=100: pXX is exactly XX under nearest-rank.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&v, 50.0), 50);
        assert_eq!(percentile_of_sorted(&v, 95.0), 95);
        assert_eq!(percentile_of_sorted(&v, 99.0), 99);
        assert_eq!(percentile_of_sorted(&v, 100.0), 100);
        assert_eq!(percentile_of_sorted(&v, 1.0), 1);
        // Small-sample convention: ceil(0.5 * 3) - 1 = index 1.
        assert_eq!(percentile_of_sorted(&[10, 20, 30], 50.0), 20);
        // p just above a rank boundary rounds up.
        assert_eq!(percentile_of_sorted(&[10, 20, 30], 34.0), 20);
        assert_eq!(percentile_of_sorted(&[7], 99.0), 7);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_of_sorted(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn percentile_zero_panics() {
        percentile_of_sorted(&[1], 0.0);
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let mut h = Histogram::new();
        // Unsorted insert order must not matter.
        for v in [30u64, 10, 50, 20, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(50));
        assert_eq!(h.sum(), 150);
        assert!((h.mean() - 30.0).abs() < 1e-12);
        assert_eq!(h.percentile(50.0), 30);
        assert_eq!(h.percentile(95.0), 50);
        assert_eq!(h.percentile(99.0), 50);
    }

    #[test]
    fn histogram_percentiles_match_direct_percentile() {
        // Same known-quantile inputs through both paths: the raw
        // nearest-rank helper and the histogram it is folded into.
        let mut hist = Histogram::new();
        let mut v: Vec<u64> = (1..=100).rev().collect();
        for &x in &v {
            hist.record(x);
        }
        v.sort_unstable();
        for p in [1.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(hist.percentile(p), percentile_of_sorted(&v, p), "p{p}");
        }
        assert_eq!(hist.percentile(50.0), 50);
        assert_eq!(hist.max(), Some(100));
    }

    #[test]
    fn registry_counter_gauge_histogram_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a.hits", 3);
        m.counter_add("a.hits", 2);
        m.gauge_set("q.depth", 4.0);
        m.gauge_set("q.depth", 7.0);
        m.observe("lat", 100);
        m.observe("lat", 200);
        assert_eq!(m.counter("a.hits"), 5);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("q.depth"), Some(7.0));
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn merge_adds_counters_overwrites_gauges_appends_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("hits", 3);
        a.gauge_set("depth", 1.0);
        a.observe("lat", 10);
        let mut b = MetricsRegistry::new();
        b.counter_add("hits", 2);
        b.counter_add("misses", 1);
        b.gauge_set("depth", 9.0);
        b.observe("lat", 20);
        b.observe("other", 5);
        a.merge_from(&b);
        assert_eq!(a.counter("hits"), 5);
        assert_eq!(a.counter("misses"), 1);
        assert_eq!(a.gauge("depth"), Some(9.0));
        assert_eq!(a.histogram("lat").unwrap().values(), [10, 20]);
        assert_eq!(a.histogram("other").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 1);
        m.counter_add("a.first", 1);
        m.gauge_set("mid", 1.5);
        m.observe("h", 10);
        let s = m.snapshot();
        let a = s.find("a.first").unwrap();
        let z = s.find("z.last").unwrap();
        assert!(a < z, "counters must be name-sorted:\n{s}");
        assert!(s.contains("mid = 1.500"));
        assert!(s.contains("h: count=1 min=10 max=10"));
        assert_eq!(s, m.snapshot(), "snapshot must be deterministic");
    }
}
