//! The `reproduce serving` experiment: inference serving with dynamic
//! batching, swept over arrival rate x batch policy backend x device.
//!
//! Each operating point runs the same seeded Poisson arrival trace
//! through the same dynamic batcher under three dispatch backends —
//! naive, a fixed 8-stream pool, and the full GLP4NN runtime — and
//! reports throughput plus p50/p95/p99 end-to-end latency from the
//! simulated clock. Everything is deterministic: two invocations print
//! byte-identical tables.
//!
//! An operating point is a one-replica [`FleetSim`]: one fabric slot, one
//! class without a deadline, no controller. Its batch policy is not
//! work-conserving, so a drained engine waits on the size-or-delay
//! triggers like an idle one (the fleet sweep batches continuously).

use fleet::{ClassSpec, FleetConfig, FleetReport, FleetSim, PriorityMix, RouterPolicy};
use gpu_sim::{DeviceProps, FabricSpec, LinkProps, SimTime};
use nn::DispatchMode;
use serve::BatchPolicy;

/// The three serving backends compared, in print order.
pub const SERVING_MODES: [(&str, DispatchMode); 3] = [
    ("naive", DispatchMode::Naive),
    ("8str", DispatchMode::FixedStreams(8)),
    ("glp4nn", DispatchMode::Glp4nn),
];

/// One operating point's results: every backend at one device x rate.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Device name.
    pub device: String,
    /// Mean arrival rate (requests per simulated second).
    pub rate_rps: f64,
    /// `(mode name, report)` per backend, in [`SERVING_MODES`] order.
    pub reports: Vec<(&'static str, FleetReport)>,
}

/// Arrival rates swept (requests per simulated second).
pub fn serving_rates(smoke: bool) -> Vec<f64> {
    if smoke {
        vec![2000.0]
    } else {
        vec![500.0, 2000.0, 8000.0]
    }
}

/// The one-replica fleet that serves one operating point.
pub fn serving_config(
    device: DeviceProps,
    mode: DispatchMode,
    rate_rps: f64,
    smoke: bool,
) -> FleetConfig {
    let fabric = FabricSpec::uniform("single", 1, device, LinkProps::pcie3());
    let mix = PriorityMix::new(
        "single",
        vec![ClassSpec {
            name: "all".into(),
            share: 1.0,
            deadline_ns: SimTime::MAX,
        }],
    );
    FleetConfig {
        mode,
        policy: BatchPolicy {
            work_conserving: false,
            ..BatchPolicy::new(8, 2_000_000)
        },
        queue_capacity: 1024,
        rate_rps,
        num_requests: if smoke { 40 } else { 300 },
        seed: 42,
        ..FleetConfig::cifar10(fabric, RouterPolicy::RoundRobin, mix)
    }
}

/// Run the full sweep: every device in the paper's evaluation set, every
/// arrival rate, every backend.
pub fn serving_sweep(smoke: bool) -> Vec<ServingRow> {
    let mut rows = Vec::new();
    for dev in DeviceProps::evaluation_set() {
        for &rate in &serving_rates(smoke) {
            let reports = SERVING_MODES
                .iter()
                .map(|&(name, mode)| {
                    let cfg = serving_config(dev.clone(), mode, rate, smoke);
                    let mut sim = FleetSim::new(cfg).unwrap_or_else(|e| panic!("{e}"));
                    (name, sim.run())
                })
                .collect();
            rows.push(ServingRow {
                device: dev.name.clone(),
                rate_rps: rate,
                reports,
            });
        }
    }
    rows
}

/// Whether GLP4NN matched or beat naive throughput at every operating
/// point (the profile-once-then-concurrent payoff under serving load).
pub fn glp4nn_dominates(rows: &[ServingRow]) -> bool {
    rows.iter().all(|row| {
        let tput = |name: &str| {
            row.reports
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, r)| r.throughput_rps)
                .unwrap_or(0.0)
        };
        tput("glp4nn") >= tput("naive")
    })
}

/// Print the sweep as a table, plus the dominance verification line.
pub fn print_serving_table(rows: &[ServingRow], smoke: bool) {
    println!("== Serving: dynamic batching over the GLP4NN runtime ==");
    println!(
        "(CIFAR10 inference; Poisson arrivals; batch policy: size 8 or 2 ms delay; {} requests/point{})",
        if smoke { 40 } else { 300 },
        if smoke { "; smoke" } else { "" }
    );
    println!(
        "{:<10} {:>9} {:<8} {:>11} {:>9} {:>9} {:>9} {:>7} {:>6} {:>5}",
        "device",
        "rate(r/s)",
        "mode",
        "tput(r/s)",
        "p50(ms)",
        "p95(ms)",
        "p99(ms)",
        "batch",
        "#batch",
        "shed"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for row in rows {
        for (name, r) in &row.reports {
            println!(
                "{:<10} {:>9.0} {:<8} {:>11.1} {:>9.3} {:>9.3} {:>9.3} {:>7.2} {:>6} {:>5}",
                row.device,
                row.rate_rps,
                name,
                r.throughput_rps,
                ms(r.p50_ns),
                ms(r.p95_ns),
                ms(r.p99_ns),
                r.mean_wave,
                r.waves,
                r.shed + r.expired
            );
        }
    }
    println!(
        "GLP4NN throughput >= naive at all {} operating points: {}",
        rows.len(),
        if glp4nn_dominates(rows) { "yes" } else { "NO" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_all_devices_and_modes() {
        let rows = serving_sweep(true);
        assert_eq!(rows.len(), 3, "3 devices x 1 smoke rate");
        for row in &rows {
            assert_eq!(row.reports.len(), 3);
            for (_, r) in &row.reports {
                assert_eq!(r.completed + r.shed, 40);
            }
        }
        assert!(glp4nn_dominates(&rows), "GLP4NN must not lose to naive");
    }

    #[test]
    fn full_sweep_has_three_rates() {
        assert_eq!(serving_rates(false).len(), 3);
    }

    /// A small P100 operating point: 60 requests at 2000 r/s, batch 4.
    fn small_config(mode: DispatchMode) -> FleetConfig {
        let mut cfg = serving_config(DeviceProps::p100(), mode, 2000.0, true);
        cfg.num_requests = 60;
        cfg.policy.max_batch = 4;
        cfg.queue_capacity = 256;
        cfg.seed = 11;
        cfg
    }

    fn serve(cfg: FleetConfig) -> FleetReport {
        FleetSim::new(cfg).unwrap().run()
    }

    #[test]
    fn unknown_model_is_an_error() {
        let mut cfg = small_config(DispatchMode::Naive);
        cfg.model = "ResNet".to_string();
        assert!(FleetSim::new(cfg).is_err());
    }

    #[test]
    fn serving_completes_all_requests_when_not_overloaded() {
        let r = serve(small_config(DispatchMode::Naive));
        assert_eq!(r.completed, 60);
        assert_eq!(r.shed + r.expired, 0);
        assert!(r.waves > 0 && r.waves <= 60);
        assert!(r.mean_wave >= 1.0 && r.mean_wave <= 4.0);
        assert!(r.throughput_rps > 0.0);
        assert!(r.p50_ns <= r.p95_ns);
        assert!(r.p95_ns <= r.p99_ns);
    }

    #[test]
    fn serving_is_deterministic() {
        let a = serve(small_config(DispatchMode::Glp4nn));
        let b = serve(small_config(DispatchMode::Glp4nn));
        assert_eq!(a, b);
        assert_eq!(a.throughput_rps.to_bits(), b.throughput_rps.to_bits());
    }

    #[test]
    fn glp4nn_serves_no_slower_than_naive() {
        let naive = serve(small_config(DispatchMode::Naive));
        let glp = serve(small_config(DispatchMode::Glp4nn));
        assert_eq!(naive.completed, glp.completed);
        assert!(
            glp.throughput_rps >= naive.throughput_rps,
            "GLP4NN {} rps < naive {} rps",
            glp.throughput_rps,
            naive.throughput_rps
        );
    }

    #[test]
    fn overload_sheds_but_still_serves() {
        // A burst far beyond the queue: arrivals at 1M rps with a tiny
        // queue must shed most requests yet serve the admitted ones.
        let mut cfg = small_config(DispatchMode::Naive);
        cfg.rate_rps = 1_000_000.0;
        cfg.num_requests = 200;
        cfg.queue_capacity = 8;
        let r = serve(cfg);
        assert!(r.shed > 0, "overload must shed");
        assert_eq!(r.expired, 0);
        assert_eq!(r.completed + r.shed, 200);
        assert!(r.completed >= 8);
    }

    #[test]
    fn zero_requests_give_a_zero_report() {
        let mut cfg = small_config(DispatchMode::Glp4nn);
        cfg.num_requests = 0;
        let r = serve(cfg);
        assert_eq!((r.offered, r.completed, r.shed, r.expired), (0, 0, 0, 0));
        assert_eq!((r.waves, r.makespan_ns), (0, 0));
        assert_eq!(r.mean_wave, 0.0);
        assert_eq!(r.throughput_rps, 0.0);
        assert_eq!((r.p50_ns, r.p95_ns, r.p99_ns), (0, 0, 0));
    }
}
