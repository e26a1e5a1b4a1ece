//! The `reproduce fleet` experiment: a multi-replica serving fleet with
//! continuous batching, SLO-aware routing, and autoscaling.
//!
//! The sweep crosses three router policies x two fabrics x two tenant
//! priority mixes. Each fabric runs at a calibrated operating point:
//! the homogeneous 8x P100 fabric at ~93 % of its saturation throughput
//! (where every policy should hold the SLO), and the heterogeneous
//! 12-slot K40C/P100/TitanXP fabric ~6 % *over* its aggregate capacity —
//! the regime where capacity-blind round-robin keeps drowning the K40Cs
//! while load-aware policies ride the fast devices and keep the premium
//! SLO. Everything derives from the simulated clock, so two invocations
//! print byte-identical tables.

use ::fleet::{
    fabric_hetero12, fabric_uniform8, AutoscaleConfig, FleetConfig, FleetReport, FleetSim,
    LoadPhase, PriorityMix, RouterPolicy,
};
use gpu_sim::FabricSpec;
use sanitizer::SanitizeMode;

/// Offered load per fabric (requests per simulated second): just under
/// saturation for the uniform fabric, just over for the heterogeneous
/// one (saturation measured at ~82 k and ~153 k resp.).
fn fabric_rate(fabric: &FabricSpec) -> f64 {
    if fabric.name.starts_with("hetero") {
        160_000.0
    } else {
        76_000.0
    }
}

/// Requests per sweep cell. The full grid is 12 cells x 100 k requests
/// = 1.2 M simulated requests.
fn cell_requests(smoke: bool) -> usize {
    if smoke {
        2_000
    } else {
        100_000
    }
}

/// The two fabrics swept, in print order.
fn fleet_fabrics() -> Vec<FabricSpec> {
    vec![fabric_uniform8(), fabric_hetero12()]
}

/// The two tenant mixes swept, in print order.
fn fleet_mixes() -> Vec<PriorityMix> {
    vec![
        PriorityMix::premium_heavy(),
        PriorityMix::besteffort_heavy(),
    ]
}

/// Build the config for one sweep cell. Smoke cells run every replica
/// under the full sanitizer (static plan checks + one happens-before
/// replay of each replica's device log).
pub fn cell_config(
    fabric: FabricSpec,
    policy: RouterPolicy,
    mix: PriorityMix,
    smoke: bool,
) -> FleetConfig {
    let rate = fabric_rate(&fabric);
    let mut cfg = FleetConfig::cifar10(fabric, policy, mix);
    cfg.rate_rps = rate;
    cfg.num_requests = cell_requests(smoke);
    if smoke {
        cfg.engine.sanitize = Some(SanitizeMode::Full);
    }
    cfg
}

/// Run the full grid: fabric x mix x policy, in deterministic order.
pub fn fleet_sweep(smoke: bool) -> Vec<FleetReport> {
    let mut rows = Vec::new();
    for fabric in fleet_fabrics() {
        for mix in fleet_mixes() {
            for policy in RouterPolicy::all() {
                let cfg = cell_config(fabric.clone(), policy, mix.clone(), smoke);
                let mut sim = FleetSim::new(cfg).unwrap_or_else(|e| panic!("{e}"));
                rows.push(sim.run());
            }
        }
    }
    rows
}

/// Whether join-shortest-queue matched or beat round-robin on SLO
/// attainment at every (fabric, mix) sweep point — the payoff of routing
/// on live queue-depth gauges instead of blindly cycling slots.
pub fn jsq_matches_or_beats_rr(rows: &[FleetReport]) -> bool {
    let find = |fabric: &str, mix: &str, policy: &str| {
        rows.iter()
            .find(|r| r.fabric == fabric && r.mix == mix && r.policy == policy)
            .map(|r| r.slo_attainment)
    };
    rows.iter()
        .filter(|r| r.policy == "jsq")
        .all(|jsq| match find(&jsq.fabric, &jsq.mix, "rr") {
            Some(rr) => jsq.slo_attainment >= rr,
            None => false,
        })
}

/// Total sanitizer diagnostics across the sweep (must be zero on the
/// sanitized smoke configuration).
pub fn total_sanitizer_reports(rows: &[FleetReport]) -> usize {
    rows.iter().map(|r| r.sanitizer_reports).sum()
}

/// The autoscaler demonstration: a burst-then-trickle load on the
/// uniform fabric with a 2..=8 replica controller, so the fleet scales
/// up under the burst (fresh spawns pay warmup/plan capture in simulated
/// time) and back down through the trickle.
fn autoscale_config(smoke: bool) -> FleetConfig {
    let mut cfg = cell_config(
        fabric_uniform8(),
        RouterPolicy::JoinShortestQueue,
        PriorityMix::premium_heavy(),
        false,
    );
    cfg.autoscale = Some(AutoscaleConfig::new(2, 8));
    let (burst, trickle) = if smoke {
        (4_000, 1_500)
    } else {
        (40_000, 10_000)
    };
    cfg.load_phases = Some(vec![
        LoadPhase {
            num_requests: burst,
            rate_rps: 60_000.0,
        },
        LoadPhase {
            num_requests: trickle,
            rate_rps: 3_000.0,
        },
    ]);
    cfg
}

/// Run the autoscaler demo and return its report.
pub fn autoscale_demo(smoke: bool) -> FleetReport {
    let mut sim = FleetSim::new(autoscale_config(smoke)).unwrap_or_else(|e| panic!("{e}"));
    sim.run()
}

/// Print the sweep as the main policy table plus per-class breakdowns
/// for the heterogeneous premium-heavy cells (where the policies
/// actually separate), and the dominance verification line.
pub fn print_fleet_table(rows: &[FleetReport], smoke: bool) {
    println!("== Fleet: multi-replica serving over the simulated fabric ==");
    println!(
        "(CIFAR10 inference; continuous batching, batch 8 / 2 ms; {} requests/cell{}; \
         uniform8 @ 76k r/s, hetero12 @ 160k r/s)",
        cell_requests(smoke),
        if smoke { "; smoke, sanitized" } else { "" }
    );
    println!("{}", FleetReport::table_header());
    for r in rows {
        println!("{}", r.table_row());
    }
    println!();
    println!("-- per-class breakdown: hetero12-pcie, premium-heavy --");
    for r in rows {
        if r.fabric == "hetero12-pcie" && r.mix == "premium-heavy" {
            println!("[{}]", r.policy);
            println!("{}", FleetReport::class_header());
            for line in r.class_rows() {
                println!("{line}");
            }
        }
    }
    println!(
        "JSQ SLO attainment >= round-robin at all {} (fabric, mix) sweep points: {}",
        rows.iter().filter(|r| r.policy == "jsq").count(),
        if jsq_matches_or_beats_rr(rows) {
            "yes"
        } else {
            "NO"
        }
    );
}

/// Print the autoscaler demo summary.
pub fn print_autoscale_demo(r: &FleetReport) {
    println!("-- autoscaler: burst (60k r/s) then trickle (3k r/s), 2..=8 x P100, JSQ --");
    println!(
        "scale-ups {} (warmup charged: {:.3} ms simulated), scale-downs {}, peak replicas {}",
        r.scale_ups,
        r.warmup_total_ns as f64 / 1e6,
        r.scale_downs,
        r.peak_replicas,
    );
    println!(
        "offered {} completed {} shed {} expired {} | p99 {:.3} ms | SLO attainment {:.2}%",
        r.offered,
        r.completed,
        r.shed,
        r.expired,
        r.p99_ns as f64 / 1e6,
        r.slo_attainment * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_deterministic_and_jsq_holds() {
        let a = fleet_sweep(true);
        let b = fleet_sweep(true);
        assert_eq!(a, b, "two smoke sweeps must be identical");
        assert_eq!(a.len(), 12, "2 fabrics x 2 mixes x 3 policies");
        assert!(jsq_matches_or_beats_rr(&a));
        assert_eq!(
            total_sanitizer_reports(&a),
            0,
            "sanitized smoke sweep must be clean"
        );
    }

    #[test]
    fn autoscale_demo_scales_both_ways() {
        let r = autoscale_demo(true);
        assert!(r.scale_ups >= 1, "burst must trigger scale-up");
        assert!(r.scale_downs >= 1, "trickle must trigger scale-down");
        assert!(r.warmup_total_ns > 0, "fresh spawns must charge warmup");
        assert!(r.peak_replicas > 2 && r.peak_replicas <= 8);
    }
}
