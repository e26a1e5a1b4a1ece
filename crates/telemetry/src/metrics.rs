//! Typed metrics: monotonic counters, last-write gauges, and raw-value
//! histograms with nearest-rank percentiles.
//!
//! Each metric lives once in an index-addressed table; a sorted name
//! index resolves names, so a hot path resolves once to a `Copy` id
//! ([`CounterId`], [`GaugeId`]) and then reads and writes by index, while
//! snapshots still iterate in sorted name order and the plain-text export
//! stays deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A metric's place in one registry: a table index plus the stamp of the
/// registry that resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    stamp: u64,
    index: u32,
}

/// A counter resolved once by name ([`MetricsRegistry::counter_id`]);
/// updating through it is plain indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(Slot);

/// A gauge resolved once by name ([`MetricsRegistry::gauge_id`],
/// [`MetricsRegistry::find_gauge`]); reads and writes through it are
/// plain indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(Slot);

/// Which gauges a registry holds: equal layouts mean the same registry
/// (stamp) with no gauge added since. A cache of [`GaugeId`]s keyed by it
/// stays valid exactly as long as the layout does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeLayout {
    stamp: u64,
    gauges: usize,
}

/// Source of registry stamps: every registry, clones included, draws its
/// own, so an id is never valid in a registry other than its resolver.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// One metric kind: each name lives once at a fixed index. An entry is
/// `None` from the moment its name is resolved to an id until its first
/// write, and every read treats it as missing until then.
#[derive(Debug, Clone, Default)]
struct Table<T> {
    index: BTreeMap<String, u32>,
    values: Vec<Option<T>>,
}

impl<T> Table<T> {
    /// The index of `name`, creating an unwritten entry on first sight
    /// (the only allocation a table makes).
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = u32::try_from(self.values.len()).expect("fewer than 2^32 metrics");
        self.index.insert(name.to_string(), i);
        self.values.push(None);
        i
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index
            .get(name)
            .and_then(|&i| self.values[i as usize].as_ref())
    }

    fn entry(&mut self, name: &str) -> &mut Option<T> {
        let i = self.intern(name);
        &mut self.values[i as usize]
    }

    /// Written entries, sorted by name.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.index
            .iter()
            .filter_map(|(name, &i)| Some((name.as_str(), self.values[i as usize].as_ref()?)))
    }

    fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// Registry of named counters, gauges and histograms.
///
/// Each metric lives once in an index-addressed table. Callers on a hot
/// path resolve a name to a [`CounterId`] or [`GaugeId`] once and then
/// update or read by index; the by-name calls resolve on every call.
/// Ids carry the registry's stamp, and a clone draws a fresh one, so
/// using an id against any other registry panics instead of touching an
/// unrelated metric.
#[derive(Debug)]
pub struct MetricsRegistry {
    stamp: u64,
    counters: Table<u64>,
    gauges: Table<f64>,
    histograms: Table<Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            stamp: fresh_stamp(),
            counters: Table::default(),
            gauges: Table::default(),
            histograms: Table::default(),
        }
    }
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            stamp: fresh_stamp(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, index: u32) -> Slot {
        Slot {
            stamp: self.stamp,
            index,
        }
    }

    /// The table index of an id, checked to come from this registry.
    #[inline]
    fn index(&self, slot: Slot) -> usize {
        assert_eq!(
            slot.stamp, self.stamp,
            "metric id used against a registry it was not resolved in"
        );
        slot.index as usize
    }

    /// Resolve counter `name` to an id, creating it if new. Resolving
    /// alone writes nothing: the counter reads 0 and stays out of
    /// snapshots and merges until its first add.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        let i = self.counters.intern(name);
        CounterId(self.slot(i))
    }

    /// Resolve gauge `name` to an id, creating it if new. Resolving alone
    /// sets nothing: the gauge reads `None` until its first set.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        let i = self.gauges.intern(name);
        GaugeId(self.slot(i))
    }

    /// The id of gauge `name`, if the name was ever resolved or set.
    pub fn find_gauge(&self, name: &str) -> Option<GaugeId> {
        self.gauges.index.get(name).map(|&i| GaugeId(self.slot(i)))
    }

    /// This registry's gauge layout (see [`GaugeLayout`]).
    #[inline]
    pub fn gauge_layout(&self) -> GaugeLayout {
        GaugeLayout {
            stamp: self.stamp,
            gauges: self.gauges.values.len(),
        }
    }

    /// Add `delta` to counter `name` (created at zero on first touch; only
    /// a new name allocates, here and in the other updates).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name).get_or_insert(0) += delta;
    }

    /// [`counter_add`](MetricsRegistry::counter_add) by id.
    ///
    /// # Panics
    /// Panics if `id` was resolved in another registry.
    #[inline]
    pub fn counter_add_id(&mut self, id: CounterId, delta: u64) {
        let i = self.index(id.0);
        *self.counters.values[i].get_or_insert(0) += delta;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        *self.gauges.entry(name) = Some(value);
    }

    /// [`gauge_set`](MetricsRegistry::gauge_set) by id.
    ///
    /// # Panics
    /// Panics if `id` was resolved in another registry.
    #[inline]
    pub fn gauge_set_id(&mut self, id: GaugeId, value: f64) {
        let i = self.index(id.0);
        self.gauges.values[i] = Some(value);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// [`gauge`](MetricsRegistry::gauge) by id.
    ///
    /// # Panics
    /// Panics if `id` was resolved in another registry.
    #[inline]
    pub fn gauge_by_id(&self, id: GaugeId) -> Option<f64> {
        self.gauges.values[self.index(id.0)]
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name)
            .get_or_insert_with(Histogram::new)
            .record(value);
    }

    /// Histogram `name`, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(name, &v)| (name, v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(name, &v)| (name, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter()
    }

    /// Plain-text snapshot: one line per metric, sorted within sorted
    /// sections, deterministic.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "# counters");
            for (name, v) in self.counters() {
                let _ = writeln!(out, "{name} = {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "# gauges");
            for (name, v) in self.gauges() {
                let _ = writeln!(out, "{name} = {v:.3}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "# histograms");
            for (name, h) in self.histograms() {
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
    #[test]
    fn ids_and_names_address_the_same_metric() {
        let mut m = MetricsRegistry::new();
        m.counter_add("hits", 2);
        let hits = m.counter_id("hits");
        let depth = m.gauge_id("depth");
        m.counter_add_id(hits, 3);
        m.gauge_set_id(depth, 4.0);
        assert_eq!(m.counter("hits"), 5);
        assert_eq!(m.gauge("depth"), Some(4.0));
        m.gauge_set("depth", 6.0);
        assert_eq!(m.gauge_by_id(depth), Some(6.0));
        assert_eq!(m.find_gauge("depth"), Some(depth));
        assert_eq!(m.counter_id("hits"), hits, "a name resolves to one id");
    }

    #[test]
    fn resolved_but_unwritten_metrics_stay_invisible() {
        let mut m = MetricsRegistry::new();
        m.counter_add("seen", 1);
        let before = m.snapshot();
        let c = m.counter_id("later");
        let g = m.gauge_id("unset");
        assert_eq!(m.counter("later"), 0);
        assert_eq!(m.gauge("unset"), None);
        assert_eq!(m.gauge_by_id(g), None);
        assert_eq!(m.snapshot(), before, "an unwritten id exports nothing");
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.gauges().count(), 0);
        m.counter_add_id(c, 0);
        assert!(m.snapshot().contains("later = 0"), "a zero add writes");
    }

    #[test]
    fn gauge_layout_moves_only_when_a_gauge_is_added() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("a", 1.0);
        let layout = m.gauge_layout();
        m.gauge_set("a", 2.0);
        m.counter_add("c", 1);
        m.observe("h", 1);
        assert_eq!(m.gauge_layout(), layout);
        m.gauge_id("b");
        assert_ne!(m.gauge_layout(), layout);
        let clone = m.clone();
        assert_ne!(
            clone.gauge_layout(),
            m.gauge_layout(),
            "a clone is restamped"
        );
        assert_eq!(clone.snapshot(), m.snapshot());
    }

    #[test]
    #[should_panic(expected = "not resolved in")]
    fn an_id_from_a_clone_is_refused() {
        let mut m = MetricsRegistry::new();
        let id = m.counter_id("hits");
        let mut clone = m.clone();
        clone.counter_add_id(id, 1);
    }

    #[test]
    #[should_panic(expected = "not resolved in")]
    fn an_id_from_another_registry_is_refused() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let id = a.gauge_id("depth");
        b.gauge_id("depth");
        b.gauge_by_id(id);
    }

    #[test]
    fn iterators_are_name_sorted_whatever_the_insertion_order() {
        let mut m = MetricsRegistry::new();
        for name in ["z", "a", "m"] {
            m.counter_add(name, 1);
            m.gauge_set(name, 1.0);
            m.observe(name, 1);
        }
        let names = |it: Vec<&str>| it.join(",");
        assert_eq!(names(m.counters().map(|(n, _)| n).collect()), "a,m,z");
        assert_eq!(names(m.gauges().map(|(n, _)| n).collect()), "a,m,z");
        assert_eq!(names(m.histograms().map(|(n, _)| n).collect()), "a,m,z");
    }
}
