//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with direction and regression bound, and per-layer metrics.
//! `BENCHMARK.json` at the repo root states the same tables; a unit test
//! keeps the two in step.

/// Seed whose seed-dependent digests are committed in
/// `expected_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Whether larger or smaller is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every end-to-end metric, reported by every workload.
///
/// A bound is at least three times the quartile spread seen over ten
/// seeds (see the README's steadiness table); `sim_time`'s, capped at
/// the contract's 0.25, is that for most tens of seeds and 2.3 times for
/// the widest seen. `sim_` metrics read the simulated clock and repeat
/// exactly for one seed; their bounds are what `fleet-serve`'s seeded
/// arrivals need across seeds — every other workload's simulated outputs
/// do not depend on the seed and are pinned exactly by committed digests.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_time",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_gain",
        unit: "x",
        better: Better::Higher,
        bound: 0.03,
    },
];

/// One per-layer metric (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (stated for `BENCHMARK.json`; per-layer metrics have no
    /// bound, so the program itself never compares them).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric. A traced run prints all of them; a metric
/// whose call the workload never crosses reads 0.
pub const PER_LAYER: [PerLayer; 59] = [
    // gpu-sim
    pl("gpu-sim.run_ns_per_event", "ns/event", Lower),
    pl("gpu-sim.events", "count", Lower),
    pl("gpu-sim.events_per_kernel", "events/kernel", Lower),
    pl("gpu-sim.launch_ns_per_kernel", "ns/kernel", Lower),
    pl("gpu-sim.fabric_run_ns_per_event", "ns/event", Lower),
    pl("gpu-sim.fabric_copies", "count", Lower),
    pl("gpu-sim.fabric_workers_speedup", "x", Higher),
    // core
    pl("core.issue_ns_per_kernel", "ns/kernel", Lower),
    pl("core.capture_us_per_kernel", "us/kernel", Lower),
    pl("core.analyze_us", "us", Lower),
    pl("core.plan_cache_hit_share", "share", Higher),
    // milp
    pl("milp.solve_us", "us", Lower),
    pl("milp.nodes_per_solve", "nodes/solve", Lower),
    // cupti-sim
    pl("cupti-sim.ingest_ns_per_record", "ns/record", Lower),
    pl("cupti-sim.records", "count", Lower),
    pl("cupti-sim.dropped", "count", Lower),
    // sanitizer
    pl("sanitizer.verify_us_per_chunk", "us/chunk", Lower),
    pl("sanitizer.certified_share", "share", Higher),
    pl("sanitizer.lint_us_per_node", "us/node", Lower),
    pl("sanitizer.hb_us_per_kernel", "us/kernel", Lower),
    pl("sanitizer.reports", "count", Lower),
    // nn
    pl("nn.stage_us_per_kernel", "us/kernel", Lower),
    pl("nn.glue_share", "share", Lower),
    // interop
    pl("interop.dag_us", "us", Lower),
    pl("interop.coschedule_us", "us", Lower),
    pl("interop.netcapture_ms", "ms", Lower),
    // tensor
    pl("tensor.sgemm_s", "s", Lower),
    pl("tensor.sgemm_gflops", "GFLOP/s", Higher),
    pl("tensor.sgemm_calls", "count", Lower),
    pl("tensor.im2col_s", "s", Lower),
    // collective
    pl("collective.allreduce_issue_us", "us", Lower),
    pl("collective.wire_bytes", "bytes", Lower),
    // serve
    pl("serve.wave_us", "us", Lower),
    pl("serve.batches", "count", Lower),
    pl("serve.mean_batch", "requests/wave", Higher),
    pl("serve.warmup_ms", "ms", Lower),
    // fleet
    pl("fleet.run_us_per_request", "us/request", Lower),
    pl("fleet.route_ns", "ns/call", Lower),
    pl("fleet.control_share", "share", Lower),
    pl("fleet.shed_share", "share", Lower),
    // telemetry
    pl("telemetry.observe_ns", "ns/call", Lower),
    pl("telemetry.percentile_us", "us", Lower),
    pl("telemetry.export_ms_per_kspan", "ms/kspan", Lower),
    pl("telemetry.attached_slowdown", "x", Lower),
    // the benchmark itself
    pl("trace.overhead_share", "share", Lower),
    pl("trace.body_ms", "ms", Lower),
    // attribution: each layer's self time as a share of the untraced body
    pl("tensor.self_share", "share", Lower),
    pl("milp.self_share", "share", Lower),
    pl("cupti-sim.self_share", "share", Lower),
    pl("core.self_share", "share", Lower),
    pl("sanitizer.self_share", "share", Lower),
    pl("nn.self_share", "share", Lower),
    pl("interop.self_share", "share", Lower),
    pl("gpu-sim.self_share", "share", Lower),
    pl("gpu-sim.fabric_self_share", "share", Lower),
    pl("collective.self_share", "share", Lower),
    pl("serve.self_share", "share", Lower),
    pl("telemetry.self_share", "share", Lower),
    pl("trace.dominant_share", "share", Higher),
];

/// One workload: name, the one-line reason it exists, and what one unit
/// of `work_per_s` is on it.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (stated for `BENCHMARK.json`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
    /// The ISSUE-11 name of this workload's `work_per_s`.
    pub work_alias: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "train-steady",
        why: "timing-only steady training iterations on warm plans: the paper's main loop, almost all gpu-sim engine; reads core::plan, bypasses capture, MILP, sanitizer and tensor math",
        work_alias: "sim_kernels_per_s",
    },
    WorkloadSpec {
        name: "cold-capture",
        why: "fresh contexts profile, solve, capture, verify and lint every dispatch site at small batches: the one-time T_p+T_a cost and the write path of the plan cache train-steady only reads",
        work_alias: "captures_per_s",
    },
    WorkloadSpec {
        name: "train-math",
        why: "real f32 Solver::step under naive and glp4nn with bitwise-equal weights: tensor dominates and every scheduling layer is bypassed, so a scheduler change predicts no change here",
        work_alias: "images_per_s",
    },
    WorkloadSpec {
        name: "fleet-serve",
        why: "open-loop Poisson arrivals from the seed into FleetSim: fleet control loop, serve batcher, router gauges and telemetry percentiles over short batch-8 bursts with idle gaps",
        work_alias: "sim_requests_per_s",
    },
    WorkloadSpec {
        name: "multi-gpu",
        why: "data-parallel timing-only steps over pcie/nvlink with and without overlap: gpu-sim fabric, collective ring issue and the deferred-issue path; the only place lookahead workers can show",
        work_alias: "sim_kernels_per_s",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{parse, Value};

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{m:?}");
            assert!(m.bound >= 0.0 && m.bound <= 0.25, "{m:?}");
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{m:?}");
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{w:?}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{w:?}");
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn word(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let e2e = field(&doc, "end_to_end").as_array().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit));
            assert_eq!(field(j, "better").as_str(), Some(word(m.better)));
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
        }
        let layers = field(&doc, "per_layer").as_array().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit));
            assert_eq!(field(j, "better").as_str(), Some(word(m.better)));
        }
        let workloads = field(&doc, "workloads").as_array().expect("array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name").as_str(), Some(w.name));
            assert_eq!(field(j, "why").as_str(), Some(w.why));
        }
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(crate::harness::RUN_SECONDS as f64)
        );
    }
}
