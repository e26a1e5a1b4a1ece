//! End-to-end fleet tests: determinism, request conservation, routing
//! policy behaviour, telemetry layout, and sanitized runs.

use fleet::{
    fabric_hetero12, fabric_uniform8, replica_pid, AutoscaleConfig, ClassSpec, FleetConfig,
    FleetConfigError, FleetSim, LoadPhase, PriorityMix, RouterPolicy,
};
use sanitizer::SanitizeMode;
use telemetry::FLEET_PID;

fn small_cfg(router: RouterPolicy) -> FleetConfig {
    let mut cfg = FleetConfig::cifar10(fabric_uniform8(), router, PriorityMix::premium_heavy());
    cfg.rate_rps = 60_000.0;
    cfg.num_requests = 3_000;
    cfg
}

#[test]
fn two_runs_are_identical() {
    let run = || {
        FleetSim::new(small_cfg(RouterPolicy::JoinShortestQueue))
            .unwrap()
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.offered, 3_000);
    assert_eq!(a.completed + a.shed + a.expired, a.offered);
}

#[test]
fn all_policies_complete_the_trace_under_capacity() {
    for policy in RouterPolicy::all() {
        let r = FleetSim::new(small_cfg(policy)).unwrap().run();
        assert_eq!(r.offered, 3_000, "{}", policy.name());
        // 60k r/s on an 8x P100 fleet is well under saturation: nothing
        // should shed and every deadline class should attain its SLO.
        assert_eq!(r.shed + r.expired, 0, "{}", policy.name());
        assert!(r.slo_attainment == 1.0, "{}", policy.name());
        assert!(r.throughput_rps > 0.0 && r.makespan_ns > 0);
        assert!(r.mean_wave >= 1.0 && r.mean_wave <= 8.0);
    }
}

#[test]
fn heterogeneous_overload_separates_jsq_from_rr() {
    let run = |policy| {
        let mut cfg = FleetConfig::cifar10(fabric_hetero12(), policy, PriorityMix::premium_heavy());
        cfg.rate_rps = 160_000.0;
        cfg.num_requests = 20_000;
        FleetSim::new(cfg).unwrap().run()
    };
    let rr = run(RouterPolicy::RoundRobin);
    let jsq = run(RouterPolicy::JoinShortestQueue);
    // Past the K40Cs' share of capacity, load-blind round-robin must
    // shed/expire more and attain less than queue-aware routing.
    assert!(jsq.slo_attainment >= rr.slo_attainment);
    assert!(jsq.slo_attainment > 0.9 && rr.slo_attainment < 1.0);
    assert!(jsq.completed > rr.completed);
}

#[test]
fn sanitized_run_is_clean_and_cross_checked() {
    let mut cfg = small_cfg(RouterPolicy::Weighted);
    cfg.num_requests = 500;
    cfg.engine.sanitize = Some(SanitizeMode::Full);
    let r = FleetSim::new(cfg).unwrap().run();
    assert_eq!(r.sanitizer_reports, 0);
    assert_eq!(r.completed + r.shed + r.expired, 500);
}

#[test]
fn autoscaler_scales_up_then_down_and_charges_warmup() {
    let mut cfg = small_cfg(RouterPolicy::JoinShortestQueue);
    cfg.autoscale = Some(AutoscaleConfig::new(2, 8));
    cfg.load_phases = Some(vec![
        LoadPhase {
            num_requests: 4_000,
            rate_rps: 60_000.0,
        },
        LoadPhase {
            num_requests: 1_500,
            rate_rps: 3_000.0,
        },
    ]);
    let r = FleetSim::new(cfg).unwrap().run();
    assert!(r.scale_ups >= 1, "burst must add replicas");
    assert!(r.scale_downs >= 1, "trickle must retire replicas");
    assert!(r.warmup_total_ns > 0, "fresh spawns pay plan capture");
    assert!(r.peak_replicas > 2 && r.peak_replicas <= 8);
    assert_eq!(r.replicas, 2, "starts at the autoscale floor");
    assert_eq!(r.completed + r.shed + r.expired, r.offered);
}

#[test]
fn telemetry_uses_one_pid_per_replica() {
    let mut cfg = small_cfg(RouterPolicy::RoundRobin);
    cfg.num_requests = 200;
    let mut sim = FleetSim::new(cfg).unwrap();
    let rec = telemetry::shared(telemetry::Telemetry::new());
    sim.set_telemetry(rec.clone());
    let report = sim.run();
    {
        let mut guard = rec.lock().unwrap();
        sim.annotate_telemetry(&mut guard);
    }
    drop(sim);
    let t = std::sync::Arc::try_unwrap(rec)
        .unwrap()
        .into_inner()
        .unwrap();
    // Every replica contributed spans under its own pid, and fleet wave
    // spans live there too (device kernels at tid 0 of the same pid).
    let pids: std::collections::BTreeSet<u32> = t.spans().iter().map(|s| s.pid).collect();
    for slot in 0..8 {
        assert!(
            pids.contains(&replica_pid(slot)),
            "replica {slot} missing from trace"
        );
        assert!(replica_pid(slot) > FLEET_PID);
    }
    let waves = t
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("wave x"))
        .count();
    assert!(waves > 0 && waves <= report.waves);
    // The export round-trips through the Chrome-trace validator.
    let json = t.chrome_trace();
    telemetry::validate_chrome_trace(&json).expect("fleet trace must validate");
}

#[test]
fn brownout_sheds_besteffort_to_protect_tight_deadlines() {
    // A deadline barely above one wave's service time: under load the
    // premium lane's windowed p99 blows past it, so the brownout
    // controller must drop the best-effort lane at a tick boundary.
    let mix = fleet::PriorityMix::new(
        "tight",
        vec![
            fleet::ClassSpec {
                name: "premium".into(),
                share: 0.5,
                deadline_ns: 2_000_000,
            },
            fleet::ClassSpec {
                name: "besteffort".into(),
                share: 0.5,
                deadline_ns: gpu_sim::SimTime::MAX,
            },
        ],
    );
    let mut cfg = FleetConfig::cifar10(fabric_uniform8(), RouterPolicy::JoinShortestQueue, mix);
    cfg.autoscale = Some(AutoscaleConfig::new(2, 2));
    cfg.rate_rps = 30_000.0;
    cfg.num_requests = 8_000;
    let r = FleetSim::new(cfg).unwrap().run();
    assert!(r.brownout_sheds > 0, "brownout controller must engage");
    // Every brownout shed hits the best-effort lane, never premium.
    assert_eq!(
        r.per_class[0].shed + r.per_class[0].expired + r.per_class[0].completed,
        r.per_class[0].offered
    );
    assert!(
        r.per_class[1].shed >= r.brownout_sheds,
        "brownout sheds land on the best-effort class"
    );
    assert_eq!(r.completed + r.shed + r.expired, r.offered);
}

#[test]
fn timing_only_replicas_report_what_computing_replicas_report() {
    // Timing-only replicas skip the request payloads and the layer math;
    // neither may move anything the fleet simulates.
    let run = |timing_only| {
        let mut cfg = small_cfg(RouterPolicy::JoinShortestQueue);
        cfg.num_requests = 500;
        cfg.engine.timing_only = timing_only;
        FleetSim::new(cfg).unwrap().run()
    };
    let timed = run(true);
    assert_eq!(timed.completed + timed.shed + timed.expired, 500);
    assert_eq!(timed, run(false));
}

#[test]
fn a_zero_tick_runs_no_controller_and_returns() {
    for autoscale in [None, Some(AutoscaleConfig::new(2, 8))] {
        let mut cfg = small_cfg(RouterPolicy::JoinShortestQueue);
        (cfg.num_requests, cfg.tick_ns, cfg.autoscale) = (200, 0, autoscale);
        // On its own thread, so a controller that re-arms at the same
        // instant fails the test instead of stalling it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(FleetSim::new(cfg).unwrap().run());
        });
        let r = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a run with tick_ns 0 returns");
        assert_eq!(r.offered, 200);
        assert_eq!(r.completed + r.shed + r.expired, r.offered);
        assert_eq!((r.brownout_sheds, r.scale_ups, r.scale_downs), (0, 0, 0));
    }
}

#[test]
fn every_malformed_config_is_a_typed_error() {
    type Edit = fn(&mut FleetConfig);
    type Expect = fn(&FleetConfigError) -> bool;
    let cases: [(&str, Edit, Expect); 12] = [
        (
            "rate 0",
            |c| c.rate_rps = 0.0,
            |e| matches!(e, FleetConfigError::ArrivalRate(r) if *r == 0.0),
        ),
        (
            "rate NaN",
            |c| c.rate_rps = f64::NAN,
            |e| matches!(e, FleetConfigError::ArrivalRate(r) if r.is_nan()),
        ),
        (
            "a phase at rate 0",
            |c| {
                c.load_phases = Some(vec![
                    LoadPhase {
                        num_requests: 10,
                        rate_rps: 1_000.0,
                    },
                    LoadPhase {
                        num_requests: 10,
                        rate_rps: 0.0,
                    },
                ])
            },
            |e| matches!(e, FleetConfigError::ArrivalRate(_)),
        ),
        (
            "queue capacity 0",
            |c| c.queue_capacity = 0,
            |e| *e == FleetConfigError::ZeroQueueCapacity,
        ),
        (
            "max_batch 0",
            |c| c.policy.max_batch = 0,
            |e| *e == FleetConfigError::ZeroMaxBatch,
        ),
        (
            "no fabric slot",
            |c| c.fabric.slots.clear(),
            |e| *e == FleetConfigError::NoSlots,
        ),
        (
            "autoscale min 0",
            |c| {
                c.autoscale = Some(AutoscaleConfig {
                    min_replicas: 0,
                    ..AutoscaleConfig::new(1, 4)
                })
            },
            |e| *e == FleetConfigError::ZeroMinReplicas,
        ),
        (
            "autoscale min above max",
            |c| {
                c.autoscale = Some(AutoscaleConfig {
                    min_replicas: 5,
                    ..AutoscaleConfig::new(1, 4)
                })
            },
            |e| *e == FleetConfigError::MinAboveMax { min: 5, max: 4 },
        ),
        (
            "empty mix",
            |c| c.mix.classes.clear(),
            |e| *e == FleetConfigError::EmptyMix,
        ),
        (
            "shares under 1",
            |c| c.mix.classes[0].share = 0.1,
            |e| matches!(e, FleetConfigError::SharesNotOne { .. }),
        ),
        (
            "shares NaN",
            |c| {
                c.mix = PriorityMix {
                    name: "nan".into(),
                    classes: vec![ClassSpec {
                        name: "only".into(),
                        share: f64::NAN,
                        deadline_ns: u64::MAX,
                    }],
                }
            },
            |e| matches!(e, FleetConfigError::SharesNotOne { .. }),
        ),
        (
            "unknown model",
            |c| c.model = "ResNet".into(),
            |e| matches!(e, FleetConfigError::UnknownModel(m) if m.requested == "ResNet"),
        ),
    ];
    for (what, edit, expected) in cases {
        let mut cfg = small_cfg(RouterPolicy::Weighted);
        edit(&mut cfg);
        let outcome = std::panic::catch_unwind(|| FleetSim::new(cfg).map(|_| ()));
        let err = match outcome {
            Ok(Err(e)) => e,
            Ok(Ok(())) => panic!("{what}: accepted"),
            Err(_) => panic!("{what}: panicked instead of returning an error"),
        };
        assert!(expected(&err), "{what}: wrong error {err:?}");
        assert!(!err.to_string().is_empty());
    }
    assert_eq!(small_cfg(RouterPolicy::Weighted).validate(), Ok(()));
}
