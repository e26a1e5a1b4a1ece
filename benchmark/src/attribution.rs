//! From span self-times to the per-layer share metrics of a traced run.
//!
//! Shares are taken of the *untraced end-to-end body*: the time the real
//! entry points (`Net::forward`, `FleetSim::run`, ...) took for the same
//! work the hand-driven pipeline repeated under spans. What the spans do
//! not cover is the residual the ROADMAP asks to see stated: the glue
//! between the layers (`nn.glue_share`), or on `fleet-serve` the fleet's
//! own control loop (`fleet.control_share`).

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// `(layer key, share metric)`; `gpu-sim.fabric` is split out of
/// `gpu-sim` because `multi-gpu` exists to load it. `fleet` has no entry:
/// its own time is the residual, `fleet.control_share`.
const SHARE_METRICS: [(&str, &str); 12] = [
    ("tensor", "tensor.self_share"),
    ("milp", "milp.self_share"),
    ("cupti-sim", "cupti-sim.self_share"),
    ("core", "core.self_share"),
    ("sanitizer", "sanitizer.self_share"),
    ("nn", "nn.self_share"),
    ("interop", "interop.self_share"),
    ("gpu-sim", "gpu-sim.self_share"),
    ("gpu-sim.fabric", "gpu-sim.fabric_self_share"),
    ("collective", "collective.self_share"),
    ("serve", "serve.self_share"),
    ("telemetry", "telemetry.self_share"),
];

/// Span self-times inside the traced bodies (`bench.body`), per body and
/// with the recorder's own cost taken out: every span is deflated by the
/// measured ratio of the untraced to the traced hand-driven body.
#[derive(Debug)]
pub struct BodySpans {
    self_ns: BTreeMap<&'static str, u64>,
    scale: f64,
    /// Traced ÷ untraced hand-driven body − 1 (`trace.overhead_share`).
    pub overhead_share: f64,
}

impl BodySpans {
    /// Spans of `tracer` over `bodies` traced bodies, given the median
    /// hand-driven body with the recorder off and on.
    pub fn new(tracer: &Tracer, bodies: usize, hand_off_s: f64, hand_on_s: f64) -> Self {
        BodySpans {
            self_ns: tracer.self_by_name_under("bench.body"),
            scale: (hand_off_s / hand_on_s).min(1.0) / bodies as f64 / 1e9,
            overhead_share: hand_on_s / hand_off_s - 1.0,
        }
    }

    /// Deflated self seconds per body of the spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * self.scale
    }
}

/// Layer self-times against one untraced body.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Untraced end-to-end body, seconds.
    pub body_s: f64,
    layer_s: BTreeMap<&'static str, f64>,
}

impl Attribution {
    /// Attribution against an untraced body of `body_s` seconds.
    pub fn new(body_s: f64) -> Self {
        Attribution {
            body_s,
            layer_s: BTreeMap::new(),
        }
    }

    /// Add `seconds` of self time to `layer` (a key of the share table).
    pub fn add(&mut self, layer: &'static str, seconds: f64) {
        assert!(
            SHARE_METRICS.iter().any(|(l, _)| *l == layer),
            "no share metric for layer {layer}"
        );
        *self.layer_s.entry(layer).or_insert(0.0) += seconds;
    }

    /// Move up to `seconds` from one layer to another: a callee's cost
    /// measured by a separate probe (device launches inside
    /// `ExecPlan::issue`, the MILP solve inside `analyze_profiles`) leaves
    /// the caller's self time. Never moves more than the caller has.
    pub fn transfer(&mut self, from: &'static str, to: &'static str, seconds: f64) {
        let have = self.layer_s.get(from).copied().unwrap_or(0.0);
        let moved = seconds.min(have).max(0.0);
        self.add(from, -moved);
        self.add(to, moved);
    }

    /// Share of the body spent in `layer`.
    pub fn share(&self, layer: &str) -> f64 {
        self.layer_s.get(layer).copied().unwrap_or(0.0) / self.body_s
    }

    /// The residual: what no layer span covers.
    pub fn residual_share(&self) -> f64 {
        1.0 - self.layer_s.values().sum::<f64>() / self.body_s
    }

    /// The share metrics, the residual under `residual_metric`, the
    /// combined share of the workload's intended `dominant` layers, and
    /// the body itself.
    pub fn metrics(
        &self,
        residual_metric: &'static str,
        dominant: &[&str],
    ) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = SHARE_METRICS
            .iter()
            .map(|(layer, metric)| (*metric, self.share(layer)))
            .collect();
        out.push((residual_metric, self.residual_share()));
        let mut dom: f64 = dominant.iter().map(|l| self.share(l)).sum();
        // The residual belongs to the layer whose metric names it.
        if dominant
            .iter()
            .any(|l| residual_metric.starts_with(&format!("{l}.")))
        {
            dom += self.residual_share();
        }
        out.push(("trace.dominant_share", dom));
        out.push(("trace.body_ms", self.body_s * 1e3));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_residual_sum_to_the_body() {
        let mut a = Attribution::new(2.0);
        a.add("gpu-sim", 1.0);
        a.add("core", 0.5);
        a.transfer("core", "gpu-sim", 0.2);
        assert!((a.share("gpu-sim") - 0.6).abs() < 1e-12);
        assert!((a.share("core") - 0.15).abs() < 1e-12);
        assert!((a.residual_share() - 0.25).abs() < 1e-12);
        let m = a.metrics("nn.glue_share", &["gpu-sim"]);
        let total: f64 = m
            .iter()
            .filter(|(n, _)| n.ends_with("self_share") || *n == "nn.glue_share")
            .map(|(_, v)| v)
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "shares + residual = 1, got {total}"
        );
        let dom = m
            .iter()
            .find(|(n, _)| *n == "trace.dominant_share")
            .unwrap()
            .1;
        assert!((dom - 0.6).abs() < 1e-12);
    }

    #[test]
    fn transfer_never_overdraws_and_residual_can_join_the_dominant_set() {
        let mut a = Attribution::new(1.0);
        a.add("core", 0.1);
        a.transfer("core", "gpu-sim", 5.0);
        assert_eq!(a.share("core"), 0.0);
        assert!((a.share("gpu-sim") - 0.1).abs() < 1e-12);
        // fleet.control_share is the fleet layer's own time.
        let m = a.metrics("fleet.control_share", &["fleet"]);
        let dom = m
            .iter()
            .find(|(n, _)| *n == "trace.dominant_share")
            .unwrap()
            .1;
        assert!((dom - 0.9).abs() < 1e-12);
    }

    #[test]
    fn every_share_metric_is_a_listed_per_layer_metric() {
        for (_, metric) in SHARE_METRICS {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == metric),
                "{metric} missing from spec::PER_LAYER"
            );
        }
    }
}
