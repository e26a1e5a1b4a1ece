//! `fleet-serve`: `FleetSim::run` over open-loop Poisson arrivals in
//! simulated time, generated from the seed.
//!
//! Inputs: two cells, uniform8-nvlink / jsq / premium-heavy @ 76 k r/s
//! at 10 k requests and hetero12-pcie / weighted / besteffort-heavy @
//! 160 k r/s at 20 k. (`reproduce fleet` runs 100 k per cell; that is
//! 10 host seconds per repetition here, so the request counts — not the
//! cell list or the rates — were cut.) The second cell runs ~5 % over its
//! fabric's capacity by design, so the brownout controller sheds. It
//! sets `sim_time` (the worst p99), which at 10 k requests moves 12 %
//! from seed to seed and at 20 k 5 %; the first cell costs twice as much
//! host time per request, so halving it gives both cells a ~0.8 s timed
//! unit and a run half as many instances again to take the best of.
//!
//! The load is open-loop: arrivals follow their schedule whatever the
//! fleet does, and every request is timed from its scheduled arrival. The
//! generator runs in simulated time, so it is never late.

use super::{net_spec, Mode};
use crate::attribution::{Attribution, BodySpans};
use crate::digest::Digest;
use crate::hand::{launch_probe, stage_inference, HandExec};
use crate::harness::{Cell, CellOut, SimSummary, Workload};
use crate::spec::{workload, WorkloadSpec};
use crate::stats::median;
use crate::trace::Tracer;
use fleet::{
    fabric_hetero12, fabric_uniform8, replica_pid, FleetConfig, FleetReport, FleetSim, PriorityMix,
    Router, RouterPolicy,
};
use gpu_sim::DeviceProps;
use nn::{ExecCtx, Net};
use serve::{EngineOptions, ServeConfig, ServingEngine};
use std::time::Instant;
use telemetry::{Histogram, MetricsRegistry, Telemetry};

/// Number of fleet cells.
pub const CELLS: usize = 2;
/// Requests of each cell in a timed body.
pub const REQUESTS: [usize; CELLS] = [10_000, 20_000];

/// Configuration of fleet cell `i`.
pub fn cell_config(i: usize, seed: u64, requests: usize) -> FleetConfig {
    let (fabric, router, mix, rate) = match i {
        0 => (
            fabric_uniform8(),
            RouterPolicy::JoinShortestQueue,
            PriorityMix::premium_heavy(),
            76_000.0,
        ),
        _ => (
            fabric_hetero12(),
            RouterPolicy::Weighted,
            PriorityMix::besteffort_heavy(),
            160_000.0,
        ),
    };
    let mut cfg = FleetConfig::cifar10(fabric, router, mix);
    cfg.rate_rps = rate;
    cfg.num_requests = requests;
    cfg.seed = seed;
    cfg
}

/// Requests completed within their deadline (best-effort requests have
/// none, so completing is attaining; shed and expired requests miss).
pub fn attained(report: &FleetReport) -> usize {
    report.per_class.iter().map(|c| c.attained).sum()
}

/// Digest of a whole report (its `Debug` rendering covers every field).
pub fn report_digest(report: &FleetReport) -> u64 {
    Digest::new().str(&format!("{report:?}")).value()
}

/// The workload.
pub struct FleetServe;

struct FleetCell {
    sim: FleetSim,
}

impl Cell for FleetCell {
    /// `FleetSim::run` is one-shot, so a set holds exactly one body.
    fn body(&mut self) -> CellOut {
        let t = Instant::now();
        let report = self.sim.run();
        let host_s = t.elapsed().as_secs_f64();
        let offered = report.offered as u64;
        CellOut {
            host_s,
            work: offered,
            attempted: offered,
            // Shed and expired requests are the brownout controller doing
            // its job under designed overload, not program failures: they
            // count against `sim_gain` (SLO attainment) instead.
            failed: report.sanitizer_reports as u64,
            sim_digest: 0,
            seeded_digest: report_digest(&report),
            sim: [report.p99_ns as f64, attained(&report) as f64],
            unit_s: Vec::new(),
        }
    }
}

impl Workload for FleetServe {
    fn spec(&self) -> &'static WorkloadSpec {
        workload("fleet-serve").expect("listed")
    }

    fn num_cells(&self) -> usize {
        CELLS
    }

    fn bodies_per_set(&self) -> usize {
        1
    }

    /// Set-up spawns and warms every replica (`FleetSim::new` profiles and
    /// captures batch sizes 1..=8 on each).
    fn setup(&self, cell: usize, seed: u64) -> Box<dyn Cell> {
        Box::new(FleetCell {
            sim: FleetSim::new(cell_config(cell, seed, REQUESTS[cell]))
                .unwrap_or_else(|e| panic!("{e}")),
        })
    }

    /// `sim_time`: worst-cell simulated p99 latency.
    /// `sim_gain`: SLO attainment, completed within deadline ÷ offered.
    fn summarize(&self, outs: &[CellOut]) -> SimSummary {
        let worst_p99 = outs.iter().map(|o| o.sim[0]).fold(0.0, f64::max);
        let attained: f64 = outs.iter().map(|o| o.sim[1]).sum();
        let offered: u64 = outs.iter().map(|o| o.work).sum();
        SimSummary {
            time_ms: worst_p99 / 1e6,
            gain: attained / offered as f64,
        }
    }

    /// Arrivals come from `--seed`, so no committed digest can cover an
    /// arbitrary seed; this fixed-seed reference run can. It is what
    /// catches a simulated-behaviour change on any invocation.
    fn verify(&self) -> u64 {
        let mut d = Digest::new();
        for cell in 0..CELLS {
            let mut sim =
                FleetSim::new(cell_config(cell, 42, 2_000)).unwrap_or_else(|e| panic!("{e}"));
            d.u64(report_digest(&sim.run()));
        }
        d.value()
    }

    fn unit_name(&self) -> &'static str {
        "fleet cell"
    }

    fn trace(&self, seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
        trace(seed, tracer)
    }
}

/// One wave the fleet dispatched: which replica, when, how many.
#[derive(Debug, Clone, Copy)]
struct Wave {
    slot: usize,
    start_ns: u64,
    done_ns: u64,
    size: usize,
}

/// The serving configuration `FleetSim` gives replica `slot`.
fn serve_config(cfg: &FleetConfig, slot: usize) -> ServeConfig {
    ServeConfig {
        device: cfg.fabric.slot(slot).clone(),
        mode: cfg.mode,
        model: cfg.model.clone(),
        rate_rps: cfg.rate_rps,
        num_requests: cfg.num_requests,
        policy: cfg.policy,
        queue_capacity: cfg.queue_capacity,
        seed: cfg.seed,
    }
}

/// Run the cell once with a trace recorder attached and read back the
/// waves it dispatched (the fleet records one `wave xN` span per wave on
/// the replica's track). Returns the waves in dispatch order, the host
/// seconds of the attached run, and the recorder.
fn recorded_waves(
    cfg: &FleetConfig,
) -> (Vec<Wave>, f64, std::sync::Arc<std::sync::Mutex<Telemetry>>) {
    let rec = telemetry::shared(Telemetry::new());
    let mut sim = FleetSim::new(cfg.clone()).unwrap_or_else(|e| panic!("{e}"));
    sim.set_telemetry(rec.clone());
    let t = Instant::now();
    sim.run();
    let attached_s = t.elapsed().as_secs_f64();
    let slots = cfg.num_slots();
    let waves = {
        let tel = rec.lock().unwrap_or_else(|p| p.into_inner());
        let mut spans: Vec<_> = tel
            .spans()
            .iter()
            .filter(|s| s.cat == "fleet" && s.name.starts_with("wave x"))
            .collect();
        spans.sort_by_key(|s| s.seq);
        spans
            .iter()
            .map(|s| Wave {
                slot: (0..slots)
                    .find(|&slot| replica_pid(slot) == s.pid)
                    .expect("wave span on a replica track"),
                start_ns: s.start_ns,
                done_ns: s.end_ns,
                size: s.name["wave x".len()..].parse().expect("wave size"),
            })
            .collect()
    };
    (waves, attached_s, rec)
}

/// Replay the recorded waves through `ServingEngine::run_wave` on fresh,
/// warmed engines — the serve + nn + engine half of the fleet run, without
/// the fleet. Each replayed wave must span exactly the simulated interval
/// the fleet saw. Returns the host seconds of the replay loop.
fn replay_waves(cfg: &FleetConfig, waves: &[Wave], tr: &mut Tracer) -> f64 {
    let setup = tr.enter("bench.setup");
    let mut engines: Vec<ServingEngine> = (0..cfg.num_slots())
        .map(|slot| {
            let s = tr.enter("serve.warmup");
            let mut engine = ServingEngine::new_with(
                &serve_config(cfg, slot),
                EngineOptions {
                    timing_only: cfg.engine.timing_only,
                    sanitize: cfg.engine.sanitize,
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));
            engine.warmup(cfg.policy.max_batch);
            tr.exit(s);
            engine
        })
        .collect();
    tr.exit(setup);
    let ids: Vec<u64> = (0..cfg.policy.max_batch as u64).collect();
    let body = tr.enter("bench.body");
    let t = Instant::now();
    for w in waves {
        let s = tr.enter("serve.wave");
        let timing = engines[w.slot].run_wave(&ids[..w.size], w.start_ns);
        tr.exit(s);
        assert_eq!(
            (timing.start_ns, timing.done_ns),
            (w.start_ns, w.done_ns),
            "replayed wave on slot {} spans a different simulated interval",
            w.slot
        );
    }
    let host_s = t.elapsed().as_secs_f64();
    tr.exit(body);
    host_s
}

/// Device work inside one wave, per wave.
#[derive(Debug, Clone, Copy)]
struct WaveCost {
    /// Host seconds in `ExecPlan::issue`.
    issue_s: f64,
    /// Host seconds in `Device::run`.
    run_s: f64,
    /// Host seconds of the device launches inside `issue` (probe).
    launch_s: f64,
    /// Queue events processed.
    events: f64,
    /// Kernels retired.
    kernels: f64,
    /// Simulated ns from the wave's first launch to its drain.
    sim_ns: u64,
}

/// The device work inside one wave of `size` on `props`: the wave's
/// inference sites staged and dispatched by hand, warm.
fn wave_engine_cost(cfg: &FleetConfig, props: &DeviceProps, size: usize) -> WaveCost {
    const ROUNDS: usize = 40;
    let spec = net_spec(&cfg.model, cfg.policy.max_batch, cfg.seed).inference();
    let mut net = Net::from_spec(&spec);
    let ids: Vec<u64> = (0..size as u64).collect();
    ServingEngine::fill_inputs(&mut net, &spec, &ids);
    let mut scratch = ExecCtx::naive(props.clone()).timing_only();
    let sites = stage_inference(&mut scratch, &mut net);
    let mut exec = HandExec::new(props.clone(), Mode::Glp4nn, &spec.name, size);
    let wave = |exec: &mut HandExec, tr: &mut Tracer| {
        let t0 = exec.dev.now();
        for (i, site) in sites.iter().enumerate() {
            exec.dispatch(i, site, tr);
        }
        exec.dev.now() - t0
    };
    let mut off = Tracer::new(false);
    wave(&mut exec, &mut off);
    wave(&mut exec, &mut off);
    let (events0, kernels0) = (exec.dev.events_processed(), exec.dev.trace().len());
    let mut probe = Tracer::new(true);
    let mut sim_ns = 0;
    for _ in 0..ROUNDS {
        sim_ns = wave(&mut exec, &mut probe);
    }
    let kernels = (exec.dev.trace().len() - kernels0) as f64 / ROUNDS as f64;
    let events = (exec.dev.events_processed() - events0) as f64 / ROUNDS as f64;
    let spans = probe.self_by_name();
    let per_wave = |name: &str| spans.get(name).copied().unwrap_or(0) as f64 / 1e9 / ROUNDS as f64;
    let launch_ns = launch_probe(props, &exec.cached_plans(), 3);
    WaveCost {
        issue_s: per_wave("core.issue"),
        run_s: per_wave("gpu-sim.run"),
        launch_s: launch_ns * kernels / 1e9,
        events,
        kernels,
        sim_ns,
    }
}

/// Mean ns per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs per arm in the traced run; medians are taken over these.
const TRACE_REPS: usize = 3;

fn trace(seed: u64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut off = Tracer::new(false);
    let (mut run_s, mut replay_off_s, mut replay_on_s) = (0.0, 0.0, 0.0);
    let (mut offered, mut lost, mut waves_total, mut wave_requests) = (0u64, 0u64, 0u64, 0u64);
    let (mut issue_s, mut engine_s, mut launch_s) = (0.0, 0.0, 0.0);
    let (mut events, mut kernels) = (0.0, 0.0);
    let mut export_ms_per_kspan = Vec::new();

    for (cell, &requests) in REQUESTS.iter().enumerate() {
        let cfg = cell_config(cell, seed, requests);

        // Arm 1: the end-to-end path, untraced.
        let mut times = Vec::new();
        let mut report = None;
        for _ in 0..TRACE_REPS {
            let mut sim = FleetSim::new(cfg.clone()).unwrap_or_else(|e| panic!("{e}"));
            let t = Instant::now();
            let r = sim.run();
            times.push(t.elapsed().as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("at least one run");
        run_s += median(&times);
        offered += report.offered as u64;
        lost += (report.shed + report.expired) as u64;

        // The waves that run dispatched, read back from a recorded run.
        let (waves, _attached_s, rec) = recorded_waves(&cfg);
        assert_eq!(
            waves.len(),
            report.waves,
            "recorded run dispatched different waves"
        );
        waves_total += waves.len() as u64;
        wave_requests += waves.iter().map(|w| w.size as u64).sum::<u64>();
        {
            let tel = rec.lock().unwrap_or_else(|p| p.into_inner());
            let t = Instant::now();
            let json = tel.chrome_trace();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(json.len() > tel.spans().len(), "export covers every span");
            export_ms_per_kspan.push(ms / (tel.spans().len() as f64 / 1e3));
        }
        drop(rec);

        // Arms 2 and 3: the serve half replayed without the fleet.
        replay_off_s += replay_waves(&cfg, &waves, &mut off);
        replay_on_s += replay_waves(&cfg, &waves, tr);

        // The device work inside those waves, per (device, wave size).
        let mut cost: Vec<(String, usize, WaveCost)> = Vec::new();
        for w in &waves {
            let props = cfg.fabric.slot(w.slot);
            let c = match cost
                .iter()
                .find(|(n, s, _)| *n == props.name && *s == w.size)
            {
                Some((_, _, c)) => *c,
                None => {
                    let c = wave_engine_cost(&cfg, props, w.size);
                    cost.push((props.name.clone(), w.size, c));
                    c
                }
            };
            // The hand-dispatched wave takes the simulated time the fleet's
            // wave took (launch overheads included from its own start).
            assert_eq!(
                c.sim_ns,
                w.done_ns - w.start_ns,
                "hand-driven wave time differs"
            );
            issue_s += c.issue_s;
            engine_s += c.run_s;
            launch_s += c.launch_s;
            events += c.events;
            kernels += c.kernels;
        }
    }

    // Per-call probes of the router and the metrics registry, populated
    // the way the fleet populates them (two gauges per slot).
    let probe = tr.enter("bench.probe");
    let slots = 12;
    let mut registry = MetricsRegistry::new();
    let names: Vec<(String, String)> = (0..slots)
        .map(|s| {
            (
                fleet::router::queue_depth_gauge(s),
                fleet::router::inflight_gauge(s),
            )
        })
        .collect();
    for (i, (d, f)) in names.iter().enumerate() {
        registry.gauge_set(d, i as f64);
        registry.gauge_set(f, 1.0);
    }
    let active: Vec<usize> = (0..slots).collect();
    let weights: Vec<f64> = (0..slots).map(|s| 1.0 + s as f64).collect();
    let mut router = Router::new(RouterPolicy::Weighted);
    let mut picked = 0usize;
    let route_ns = ns_per_call(200_000, |_| {
        picked += router.route(&active, &registry, &weights)
    });
    let gauge_ns = ns_per_call(200_000, |i| {
        registry.gauge_set(&names[i % slots].0, i as f64)
    });
    let counter_ns = ns_per_call(200_000, |_| registry.counter_add("fleet.completed", 1));
    let mut scratch = MetricsRegistry::new();
    let samples = REQUESTS[1];
    let observe_ns = ns_per_call(samples, |i| {
        scratch.observe("fleet.latency_ns", (i * 7919 % 10_007) as u64)
    });
    let mut hist = Histogram::new();
    for i in 0..samples {
        hist.record((i * 7919 % 10_007) as u64);
    }
    let mut p99 = 0;
    let percentile_us = ns_per_call(20, |_| p99 += hist.percentile(99.0)) / 1e3;
    assert!(picked > 0 && p99 > 0);
    tr.exit(probe);

    let spans = BodySpans::new(tr, 1, replay_off_s, replay_on_s);
    let wave_s = spans.seconds("serve.wave");
    let totals = tr.total_by_name();
    let warm = totals.get("serve.warmup").copied().unwrap_or((0, 1));
    // An estimate from outside: the registry calls the fleet makes per
    // arrival (two gauges), per wave (two gauges and a counter, at
    // dispatch and at completion), at their measured per-call cost.
    let telemetry_s = ((2 * offered + 4 * waves_total) as f64 * gauge_ns
        + (2 * waves_total) as f64 * counter_ns)
        / 1e9;

    let mut attr = Attribution::new(run_s);
    attr.add("serve", wave_s);
    attr.transfer("serve", "gpu-sim", engine_s);
    attr.transfer("serve", "core", issue_s);
    attr.transfer("core", "gpu-sim", launch_s);
    attr.add("telemetry", telemetry_s);

    let mut out = vec![
        ("serve.wave_us", wave_s * 1e6 / waves_total as f64),
        ("serve.batches", waves_total as f64),
        (
            "serve.mean_batch",
            wave_requests as f64 / waves_total as f64,
        ),
        ("serve.warmup_ms", warm.0 as f64 / 1e6 / warm.1 as f64),
        ("fleet.run_us_per_request", run_s * 1e6 / offered as f64),
        ("fleet.route_ns", route_ns),
        ("fleet.shed_share", lost as f64 / offered as f64),
        ("telemetry.observe_ns", (observe_ns + gauge_ns) / 2.0),
        ("telemetry.percentile_us", percentile_us),
        (
            "telemetry.export_ms_per_kspan",
            median(&export_ms_per_kspan),
        ),
        ("gpu-sim.run_ns_per_event", engine_s * 1e9 / events),
        ("gpu-sim.events", events),
        ("gpu-sim.events_per_kernel", events / kernels),
        ("core.issue_ns_per_kernel", issue_s * 1e9 / kernels),
        ("core.plan_cache_hit_share", 1.0),
        ("trace.overhead_share", spans.overhead_share),
    ];
    out.extend(attr.metrics("fleet.control_share", &["fleet", "serve", "telemetry"]));
    out
}
