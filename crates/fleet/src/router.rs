//! Request routing across replicas.
//!
//! All policies read replica load from the *live gauges* the fleet
//! publishes into its [`telemetry::MetricsRegistry`]
//! (`fleet.replica.{slot}.queue_depth` / `.inflight`) rather than from
//! private simulator state — the same numbers an operator's dashboard
//! would show, so the router can never act on information the telemetry
//! layer doesn't export. The router resolves those gauge names to ids
//! once per registry layout and then reads loads by index.

use telemetry::{GaugeId, GaugeLayout, MetricsRegistry};

/// Pluggable routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Cycle through active replicas in slot order, load-blind.
    RoundRobin,
    /// Send to the replica with the fewest queued + inflight requests
    /// (ties to the lowest slot index).
    JoinShortestQueue,
    /// Join-shortest-*weighted*-queue: load is divided by the slot's
    /// relative peak-FLOPs capacity, so a Titan XP absorbs
    /// proportionally more than a K40C on a heterogeneous fabric.
    Weighted,
}

impl RouterPolicy {
    /// Short name used in report tables.
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::JoinShortestQueue => "jsq",
            RouterPolicy::Weighted => "weighted",
        }
    }

    /// All policies, in report order.
    pub fn all() -> [RouterPolicy; 3] {
        [
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::Weighted,
        ]
    }
}

/// The gauge name carrying replica `slot`'s queue depth.
pub fn queue_depth_gauge(slot: usize) -> String {
    format!("fleet.replica.{slot}.queue_depth")
}

/// The gauge name carrying replica `slot`'s inflight wave size.
pub fn inflight_gauge(slot: usize) -> String {
    format!("fleet.replica.{slot}.inflight")
}

/// A router instance: the round-robin cursor, plus each slot's two gauge
/// ids. Ids are resolved once per registry layout (a different registry,
/// or one that gained a gauge, re-resolves), so a route reads loads by
/// index, with no string lookup and no allocation.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    rr_next: usize,
    /// The layout `gauge_ids` was resolved against.
    layout: Option<GaugeLayout>,
    /// Per slot, the queue-depth and inflight gauge ids; `None` where the
    /// registry holds no such gauge.
    gauge_ids: Vec<[Option<GaugeId>; 2]>,
}

impl Router {
    /// A router with the given policy.
    pub fn new(policy: RouterPolicy) -> Self {
        Router {
            policy,
            rr_next: 0,
            layout: None,
            gauge_ids: Vec::new(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Make `gauge_ids` cover slots `0..=max_slot` of `metrics`.
    fn resolve(&mut self, metrics: &MetricsRegistry, max_slot: usize) {
        let layout = metrics.gauge_layout();
        if self.layout == Some(layout) && max_slot < self.gauge_ids.len() {
            return;
        }
        let slots = self.gauge_ids.len().max(max_slot + 1);
        self.gauge_ids.clear();
        self.gauge_ids.extend((0..slots).map(|s| {
            [
                metrics.find_gauge(&queue_depth_gauge(s)),
                metrics.find_gauge(&inflight_gauge(s)),
            ]
        }));
        self.layout = Some(layout);
    }

    /// Replica `slot`'s queued + inflight load according to the gauges.
    fn load(&self, metrics: &MetricsRegistry, slot: usize) -> f64 {
        let read = |id: Option<GaugeId>| id.and_then(|id| metrics.gauge_by_id(id)).unwrap_or(0.0);
        let [depth, inflight] = self.gauge_ids[slot];
        read(depth) + read(inflight)
    }

    /// Pick a replica among `active` slots.
    ///
    /// `weights[slot]` is the slot's relative capacity (peak FLOPs,
    /// normalized or not — only ratios matter) and `metrics` holds the
    /// live load gauges. Deterministic: ties break to the earliest slot
    /// in `active`.
    ///
    /// # Panics
    /// Panics if `active` is empty.
    pub fn route(&mut self, active: &[usize], metrics: &MetricsRegistry, weights: &[f64]) -> usize {
        assert!(!active.is_empty(), "routing with no active replicas");
        if self.policy != RouterPolicy::RoundRobin {
            let max_slot = active.iter().copied().max().unwrap_or(0);
            self.resolve(metrics, max_slot);
        }
        match self.policy {
            RouterPolicy::RoundRobin => {
                let slot = active[self.rr_next % active.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                slot
            }
            RouterPolicy::JoinShortestQueue => pick_min(active, |slot| self.load(metrics, slot)),
            RouterPolicy::Weighted => pick_min(active, |slot| {
                // +1 so an empty fast device still beats an empty slow
                // one instead of tying at zero.
                (self.load(metrics, slot) + 1.0) / weights[slot].max(f64::MIN_POSITIVE)
            }),
        }
    }
}

/// The slot minimizing `score`, first-wins on ties (stable because
/// `active` is iterated in order).
fn pick_min(active: &[usize], score: impl Fn(usize) -> f64) -> usize {
    let mut best = active[0];
    let mut best_score = score(best);
    for &slot in &active[1..] {
        let s = score(slot);
        if s < best_score {
            best = slot;
            best_score = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with_loads(loads: &[(usize, f64, f64)]) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for &(slot, depth, inflight) in loads {
            m.gauge_set(&queue_depth_gauge(slot), depth);
            m.gauge_set(&inflight_gauge(slot), inflight);
        }
        m
    }

    #[test]
    fn round_robin_cycles_active_slots() {
        let mut r = Router::new(RouterPolicy::RoundRobin);
        let m = MetricsRegistry::new();
        let w = [1.0; 4];
        let picks: Vec<usize> = (0..6).map(|_| r.route(&[0, 2, 3], &m, &w)).collect();
        assert_eq!(picks, [0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn jsq_reads_live_gauges_and_breaks_ties_low() {
        let mut r = Router::new(RouterPolicy::JoinShortestQueue);
        let m = metrics_with_loads(&[(0, 5.0, 8.0), (1, 2.0, 8.0), (2, 2.0, 8.0)]);
        // Slots 1 and 2 tie on load 10; the earlier slot wins.
        assert_eq!(r.route(&[0, 1, 2], &m, &[1.0; 3]), 1);
        // A missing gauge reads as zero load.
        assert_eq!(r.route(&[0, 1, 7], &m, &[1.0; 8]), 7);
    }

    #[test]
    fn weighted_prefers_faster_devices_at_equal_load() {
        let mut r = Router::new(RouterPolicy::Weighted);
        let m = metrics_with_loads(&[(0, 4.0, 0.0), (1, 4.0, 0.0)]);
        // Same load, slot 1 twice the capacity: route there.
        assert_eq!(r.route(&[0, 1], &m, &[1.0, 2.0]), 1);
        // Even empty, a faster device wins the tie on score (0+1)/w.
        let empty = MetricsRegistry::new();
        assert_eq!(r.route(&[0, 1], &empty, &[1.0, 2.0]), 1);
        // But enough load flips it back: (9+1)/2 > (4+1)/1? 5 == 5 →
        // first-wins tie; one more request breaks it.
        let m2 = metrics_with_loads(&[(0, 4.0, 0.0), (1, 10.0, 0.0)]);
        assert_eq!(r.route(&[0, 1], &m2, &[1.0, 2.0]), 0);
    }
    #[test]
    fn one_router_reads_each_registrys_own_loads() {
        // Same gauge count, opposite insertion order: slot 0's gauges sit
        // at the indices that hold slot 1's in the other registry.
        let a = metrics_with_loads(&[(0, 1.0, 0.0), (1, 5.0, 0.0)]);
        let b = metrics_with_loads(&[(1, 1.0, 0.0), (0, 5.0, 0.0)]);
        let mut r = Router::new(RouterPolicy::JoinShortestQueue);
        for _ in 0..3 {
            assert_eq!(r.route(&[0, 1], &a, &[1.0; 2]), 0);
            assert_eq!(r.route(&[0, 1], &b, &[1.0; 2]), 1);
        }
        // A clone is another registry: its writes are its own.
        let mut c = a.clone();
        c.gauge_set(&queue_depth_gauge(0), 9.0);
        assert_eq!(r.route(&[0, 1], &c, &[1.0; 2]), 1);
        assert_eq!(r.route(&[0, 1], &a, &[1.0; 2]), 0);
    }

    #[test]
    fn a_gauge_first_set_after_caching_is_seen_on_the_next_route() {
        let mut m = metrics_with_loads(&[(0, 3.0, 0.0)]);
        let mut r = Router::new(RouterPolicy::JoinShortestQueue);
        // Slot 1 has no gauge yet, so it reads load 0 and wins.
        assert_eq!(r.route(&[0, 1], &m, &[1.0; 2]), 1);
        m.gauge_set(&inflight_gauge(1), 8.0);
        assert_eq!(r.route(&[0, 1], &m, &[1.0; 2]), 0);
        // A write to a gauge the router already resolved is seen too.
        m.gauge_set(&queue_depth_gauge(0), 9.0);
        assert_eq!(r.route(&[0, 1], &m, &[1.0; 2]), 1);
    }

    #[test]
    fn a_missing_gauge_reads_as_zero_load() {
        let mut m = MetricsRegistry::new();
        m.gauge_set(&queue_depth_gauge(0), 1.0);
        m.gauge_set(&inflight_gauge(1), 0.5);
        // Slot 2 has neither gauge, slot 1 only one of its two.
        let mut jsq = Router::new(RouterPolicy::JoinShortestQueue);
        assert_eq!(jsq.route(&[0, 1, 2], &m, &[1.0; 3]), 2);
        assert_eq!(jsq.route(&[0, 1], &m, &[1.0; 3]), 1);
        // A gauge resolved to an id but never set reads as zero too.
        m.gauge_id(&queue_depth_gauge(3));
        assert_eq!(jsq.route(&[0, 3], &m, &[1.0; 4]), 3);
        let mut weighted = Router::new(RouterPolicy::Weighted);
        assert_eq!(weighted.route(&[0, 1, 2], &m, &[1.0; 3]), 2);
    }

    /// The by-name reference: every gauge looked up by its name on every
    /// call, the first minimal score winning.
    fn reference_route(
        policy: RouterPolicy,
        rr_next: &mut usize,
        active: &[usize],
        m: &MetricsRegistry,
        weights: &[f64],
    ) -> usize {
        let load = |s: usize| {
            m.gauge(&queue_depth_gauge(s)).unwrap_or(0.0)
                + m.gauge(&inflight_gauge(s)).unwrap_or(0.0)
        };
        let score = |s: usize| match policy {
            RouterPolicy::Weighted => (load(s) + 1.0) / weights[s].max(f64::MIN_POSITIVE),
            _ => load(s),
        };
        if policy == RouterPolicy::RoundRobin {
            let slot = active[*rr_next % active.len()];
            *rr_next += 1;
            return slot;
        }
        let mut best = active[0];
        for &s in active {
            if score(s) < score(best) {
                best = s;
            }
        }
        best
    }

    const SLOTS: usize = 8;

    /// One step: gauge writes `(registry, slot, inflight?, load)`, then a
    /// route over the slots `mask` marks on one of the two registries.
    type Step = (Vec<(bool, usize, bool, u8)>, u8, bool);

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        (
            proptest::collection::vec((any::<bool>(), 0..SLOTS, any::<bool>(), 0u8..6), 0..4),
            any::<u8>(),
            any::<bool>(),
        )
    }

    proptest::proptest! {
        #[test]
        fn id_routing_picks_what_by_name_routing_picks(
            steps in proptest::collection::vec(step(), 1..40),
            weights in proptest::collection::vec(0.25f64..4.0, SLOTS),
        ) {
            let mut registries = [MetricsRegistry::new(), MetricsRegistry::new()];
            let mut routers = RouterPolicy::all().map(Router::new);
            let mut cursors = [0usize; 3];
            for (writes, mask, which) in steps {
                for (reg, slot, inflight, load) in writes {
                    let name = if inflight { inflight_gauge(slot) } else { queue_depth_gauge(slot) };
                    registries[reg as usize].gauge_set(&name, f64::from(load));
                }
                let mut active: Vec<usize> = (0..SLOTS).filter(|s| mask & (1 << s) != 0).collect();
                if active.is_empty() {
                    active.push(usize::from(mask) % SLOTS);
                }
                let m = &registries[which as usize];
                for (router, cursor) in routers.iter_mut().zip(&mut cursors) {
                    let policy = router.policy();
                    let want = reference_route(policy, cursor, &active, m, &weights);
                    proptest::prop_assert_eq!(router.route(&active, m, &weights), want, "{}", policy.name());
                }
            }
        }
    }
}
