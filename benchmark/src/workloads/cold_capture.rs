//! `cold-capture`: every dispatch site taken from nothing to a verified,
//! linted, cached `ExecPlan` — the one-time cost the paper reports as
//! `T_p + T_a` (Fig. 10 / Table 6), and what `serve` warm-up and `fleet`
//! autoscale spawns pay.
//!
//! Inputs: a fresh `ExecCtx::glp4nn(..).sanitize(PlanOnly).lint()` for
//! each of {CIFAR10, Siamese, GoogLeNet, FanOut} × {K40C, P100, TitanXP} ×
//! batch {8, 16, 32}, timing-only. Each runs its first *two* training
//! iterations: GLP4NN profiles and solves on the first and captures,
//! verifies and lints its concurrent plans on the second, so one
//! iteration alone would stop before the write to the plan cache. The
//! two branchy nets additionally run a first `InterOpExec::step`.

use super::{iteration, net_spec, Mode};
use crate::attribution::{Attribution, BodySpans};
use crate::digest::Digest;
use crate::hand::{launch_probe, milp_probe, stage, HandExec};
use crate::harness::{Cell, CellOut, SimSummary, Workload};
use crate::spec::{workload, WorkloadSpec};
use crate::stats::{geo_mean, median};
use crate::trace::Tracer;
use glp4nn::KernelProfile;
use gpu_sim::{Device, DeviceProps};
use interop::{co_schedule, InterOpExec, LayerDag, WaveDispatchProfile};
use nn::{ExecCtx, Net, NetSpec};
use sanitizer::SanitizeMode;
use std::time::Instant;

/// Nets of the matrix; the flag marks the branchy ones that also take an
/// inter-operator capture.
pub const NETS: [(&str, bool); 4] = [
    ("CIFAR10", false),
    ("Siamese", true),
    ("GoogLeNet", false),
    ("FanOut", true),
];
/// Batch sizes of the matrix.
pub const BATCHES: [usize; 3] = [8, 16, 32];

/// One point of the matrix.
pub struct Point {
    /// Net spec at this batch.
    pub spec: NetSpec,
    /// Device.
    pub props: DeviceProps,
    /// Whether the inter-operator capture runs too.
    pub branchy: bool,
}

/// The whole matrix, in run order.
pub fn matrix() -> Vec<Point> {
    let mut points = Vec::new();
    for (name, branchy) in NETS {
        for props in DeviceProps::evaluation_set() {
            for batch in BATCHES {
                points.push(Point {
                    // Timing-only: the weight seed shapes no simulated output.
                    spec: net_spec(name, batch, 1),
                    props: props.clone(),
                    branchy,
                });
            }
        }
    }
    points
}

/// A fresh capture context: GLP4NN, plan-level sanitizing, linting.
pub fn capture_ctx(props: &DeviceProps) -> ExecCtx {
    ExecCtx::glp4nn(props.clone())
        .timing_only()
        .sanitize(SanitizeMode::PlanOnly)
        .lint()
}

/// A fresh whole-net capture context, as `reproduce interop` builds it.
pub fn interop_ctx(props: &DeviceProps) -> ExecCtx {
    ExecCtx::naive(props.clone())
        .batch_parallel_all()
        .timing_only()
        .sanitize(SanitizeMode::PlanOnly)
        .lint()
}

/// Correctness findings a context accumulated: sanitizer reports plus
/// lint diagnostics of error severity.
pub fn correctness_findings(ctx: &ExecCtx) -> u64 {
    let lint_errors = ctx.sanitizer.linter().map_or(0, |l| l.stats().errors);
    ctx.sanitizer.reports().len() as u64 + lint_errors
}

/// What one pass over the matrix produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Plans captured (per-layer and whole-net).
    pub captures: u64,
    /// Correctness findings.
    pub findings: u64,
    /// Summed simulated ns over every context's clock.
    pub sim_ns: u64,
    /// Per branchy point: simulated time of the per-layer GLP4NN
    /// iteration (concurrent plans) ÷ the whole-net interop step.
    pub wave_ratios: Vec<f64>,
    /// Digest of every timeline and decision.
    pub digest: Digest,
    /// Host seconds per point.
    pub unit_s: Vec<f64>,
    /// Per point: `(simulated end ns, kernels, captures)` of its per-layer
    /// context — what the hand-driven pipeline must reproduce.
    pub point_ends: Vec<(u64, usize, u64)>,
}

/// One pass: every point from nothing to cached plans.
pub fn pass(points: &[Point]) -> PassOut {
    let mut out = PassOut::default();
    for p in points {
        let t = Instant::now();
        let mut ctx = capture_ctx(&p.props);
        let mut net = Net::from_spec(&p.spec);
        iteration(&mut ctx, &mut net); // profile + solve
        let per_layer_ns = iteration(&mut ctx, &mut net); // capture + verify + lint
        out.captures += ctx.plan_captures();
        out.findings += correctness_findings(&ctx);
        out.sim_ns += ctx.device.now();
        out.digest
            .timeline(ctx.device.trace())
            .u64(ctx.plan_captures());
        out.point_ends.push((
            ctx.device.now(),
            ctx.device.trace().len(),
            ctx.plan_captures(),
        ));
        if p.branchy {
            let mut ictx = interop_ctx(&p.props);
            let mut inet = Net::from_spec(&p.spec);
            let mut exec = InterOpExec::new(&p.spec);
            exec.step(&mut ictx, &mut inet);
            out.captures += ictx.plan_captures();
            out.findings += correctness_findings(&ictx);
            out.sim_ns += ictx.device.now();
            for r in exec.phase_reports() {
                out.digest
                    .u64(r.serial_ns)
                    .u64(r.wave_ns)
                    .u64(u64::from(r.chose_waves))
                    .u64(r.waves as u64);
            }
            out.wave_ratios
                .push(per_layer_ns as f64 / ictx.device.now() as f64);
            out.digest.timeline(ictx.device.trace());
        }
        out.unit_s.push(t.elapsed().as_secs_f64());
    }
    out
}

/// The workload.
pub struct ColdCapture;

struct MatrixCell {
    points: Vec<Point>,
}

impl Cell for MatrixCell {
    fn body(&mut self) -> CellOut {
        let t = Instant::now();
        let out = pass(&self.points);
        let host_s = t.elapsed().as_secs_f64();
        CellOut {
            host_s,
            work: out.captures,
            attempted: out.captures,
            failed: out.findings,
            sim_digest: out.digest.value(),
            seeded_digest: 0,
            sim: [out.sim_ns as f64, geo_mean(&out.wave_ratios)],
            unit_s: out.unit_s,
        }
    }
}

impl Workload for ColdCapture {
    fn spec(&self) -> &'static WorkloadSpec {
        workload("cold-capture").expect("listed")
    }

    fn num_cells(&self) -> usize {
        1
    }

    fn bodies_per_set(&self) -> usize {
        3
    }

    /// Set-up is the spec matrix plus one untimed pass: every body builds
    /// its contexts from nothing by design, so what a set warms is the
    /// process (code pages, allocator), not the program's caches.
    fn setup(&self, _cell: usize, _seed: u64) -> Box<dyn Cell> {
        let points = matrix();
        pass(&points);
        Box::new(MatrixCell { points })
    }

    /// `sim_time`: summed simulated time of every capture context.
    /// `sim_gain`: geo-mean of simulated per-layer GLP4NN ÷ interop waves
    /// over the Siamese and FanOut points.
    fn summarize(&self, outs: &[CellOut]) -> SimSummary {
        SimSummary {
            time_ms: outs[0].sim[0] / 1e6,
            gain: outs[0].sim[1],
        }
    }

    fn unit_name(&self) -> &'static str {
        "matrix point (net x device x batch, nothing to cached plans)"
    }

    fn trace(&self, _seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
        trace(tracer)
    }
}

/// Batch size of a spec (leading dimension of its first input).
fn batch_of(spec: &NetSpec) -> usize {
    spec.inputs[0].1[0]
}

/// One matrix point driven by hand: build, then two iterations of stage
/// → (profile → parse → solve | capture → verify → lint) → issue → run.
/// Returns the device and the kernels staged.
fn hand_point(p: &Point, mode: SanitizeMode, tr: &mut Tracer) -> (HandExec, u64) {
    let s = tr.enter("nn.build");
    let mut net = Net::from_spec(&p.spec);
    let mut scratch = ExecCtx::naive(p.props.clone()).timing_only();
    tr.exit(s);
    let mut exec = HandExec::new(
        p.props.clone(),
        Mode::Glp4nn,
        &p.spec.name,
        batch_of(&p.spec),
    )
    .with_sanitizer(mode, true);
    let mut staged_kernels = 0;
    for _ in 0..2 {
        let s = tr.enter("nn.stage");
        let sites = stage(&mut scratch, &mut net);
        tr.exit(s);
        staged_kernels += sites
            .iter()
            .flat_map(|d| d.groups.iter())
            .map(|g| g.len() as u64)
            .sum::<u64>();
        for (i, site) in sites.iter().enumerate() {
            exec.dispatch(i, site, tr);
        }
    }
    (exec, staged_kernels)
}

/// The whole-net capture of a branchy point, through the library's own
/// entry point: `InterOpExec`'s staging, wave MILPs, candidate probing and
/// validation are private, so from outside it is one span.
fn interop_point(p: &Point, tr: &mut Tracer) -> ExecCtx {
    let s = tr.enter("interop.netcapture");
    let mut ictx = interop_ctx(&p.props);
    let mut inet = Net::from_spec(&p.spec);
    let mut exec = InterOpExec::new(&p.spec);
    exec.step(&mut ictx, &mut inet);
    tr.exit(s);
    ictx
}

/// One hand-driven pass over the matrix; returns per-point devices.
fn hand_pass(points: &[Point], tr: &mut Tracer) -> (f64, Vec<(HandExec, u64)>) {
    let t = Instant::now();
    let mut execs = Vec::with_capacity(points.len());
    for p in points {
        execs.push(hand_point(p, SanitizeMode::PlanOnly, tr));
        if p.branchy {
            interop_point(p, tr);
        }
    }
    (t.elapsed().as_secs_f64(), execs)
}

/// Inputs of `co_schedule` for every forward wave of `spec` holding two
/// or more dispatching layers, built as `InterOpExec` builds them: one
/// profile per kernel class, its duration measured solo on a scratch
/// device.
fn wave_inputs(p: &Point) -> Vec<Vec<WaveDispatchProfile>> {
    let dag = LayerDag::from_spec(&p.spec);
    let mut ictx = interop_ctx(&p.props);
    let mut net = Net::from_spec(&p.spec);
    ictx.begin_staging();
    net.forward(&mut ictx);
    let staged = ictx.take_staged();
    let profile_of = |li: usize| -> Option<WaveDispatchProfile> {
        let mine: Vec<_> = staged.iter().filter(|d| d.layer == dag.name(li)).collect();
        let mut classes: Vec<KernelProfile> = Vec::new();
        for k in mine.iter().flat_map(|d| d.groups.iter().flatten()) {
            let same = |c: &KernelProfile| {
                c.name == k.name.as_str()
                    && c.grid_blocks == k.launch.num_blocks()
                    && c.threads_per_block == k.launch.threads_per_block()
            };
            if let Some(c) = classes.iter_mut().find(|c| same(c)) {
                c.instances += 1;
                continue;
            }
            let mut dev = Device::new(p.props.clone());
            let s0 = dev.default_stream();
            dev.launch(s0, k.clone());
            dev.run();
            classes.push(KernelProfile {
                name: k.name.to_string(),
                grid_blocks: k.launch.num_blocks(),
                threads_per_block: k.launch.threads_per_block(),
                regs_per_thread: k.launch.regs_per_thread,
                smem_per_block: k.launch.smem_per_block(),
                avg_duration_ns: dev.trace()[0].duration_ns().max(1),
                instances: 1,
            });
        }
        (!classes.is_empty()).then(|| WaveDispatchProfile {
            layer: li,
            name: dag.name(li).to_string(),
            groups: mine.iter().map(|d| d.groups.len()).max().unwrap_or(1),
            classes,
        })
    };
    dag.waves()
        .iter()
        .map(|wave| {
            wave.iter()
                .filter_map(|&li| profile_of(li))
                .collect::<Vec<_>>()
        })
        .filter(|w: &Vec<WaveDispatchProfile>| w.len() >= 2)
        .collect()
}

/// Bodies per arm in the traced run; medians are taken over these. A
/// pass is short (under half a second), so five rather than three.
const TRACE_REPS: usize = 5;

fn trace(tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let points = matrix();
    let mut off = Tracer::new(false);

    // Arm 1: the end-to-end path, untraced (first pass warms the process).
    pass(&points);
    let e2e: Vec<PassOut> = (0..TRACE_REPS).map(|_| pass(&points)).collect();
    let e2e_s = median(
        &e2e.iter()
            .map(|o| o.unit_s.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let reference = &e2e[0];

    // Arm 2: hand-driven, recorder off. Arm 3: under spans. The two
    // alternate, so a swell in machine speed lands on both.
    let (mut off_times, mut on_times) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    for _ in 0..TRACE_REPS {
        off_times.push(hand_pass(&points, &mut off).0);
        let s = tr.enter("bench.body");
        let (host_s, execs) = hand_pass(&points, tr);
        tr.exit(s);
        on_times.push(host_s);
        last = execs;
    }
    let (hand_off_s, hand_on_s) = (median(&off_times), median(&on_times));

    // The hand-driven devices end where the end-to-end contexts did.
    let mut stats = crate::hand::HandStats::default();
    let (mut staged_kernels, mut events, mut findings) = (0u64, 0u64, 0u64);
    let (mut certified, mut fallbacks, mut lint_nodes) = (0u64, 0u64, 0u64);
    let (mut launch_s, mut milp) = (0.0, (0u64, 0u64, 0u64));
    let mut launch_ns = Vec::new();
    for (i, ((exec, staged), want)) in last.iter().zip(&reference.point_ends).enumerate() {
        assert_eq!(
            exec.dev.now(),
            want.0,
            "point {i}: simulated end time differs"
        );
        assert_eq!(
            exec.dev.trace().len(),
            want.1,
            "point {i}: kernel count differs"
        );
        assert_eq!(
            exec.stats.captures, want.2,
            "point {i}: capture count differs"
        );
        stats.dispatches += exec.stats.dispatches;
        stats.captures += exec.stats.captures;
        stats.captured_kernels += exec.stats.captured_kernels;
        stats.issued_kernels += exec.stats.issued_kernels;
        stats.verified_chunks += exec.stats.verified_chunks;
        stats.records += exec.stats.records;
        staged_kernels += staged;
        events += exec.dev.events_processed();
        let san = exec.sanitizer.as_ref().expect("capture arm sanitizes");
        findings += san.reports().len() as u64 + san.linter().map_or(0, |l| l.stats().errors);
        certified += san.stats().certified_captures;
        fallbacks += san.stats().pairwise_fallbacks;
        lint_nodes += san.linter().map_or(0, |l| l.stats().nodes);
        let ns = launch_probe(exec.dev.props(), &exec.cached_plans(), 1);
        launch_ns.push(ns);
        launch_s += ns * exec.stats.issued_kernels as f64 / 1e9;
        let m = milp_probe(exec.dev.props(), &exec.stats.analyzed);
        milp = (milp.0 + m.0, milp.1 + m.1, milp.2 + m.2);
    }
    assert_eq!(
        findings, 0,
        "capture-time verification reported a correctness finding"
    );

    // Probes outside the timed body.
    let probe = tr.enter("bench.probe");
    let hb_point = &points[5]; // CIFAR10 / P100 / b32
    let (hb_exec, _) = hand_point(hb_point, SanitizeMode::Full, tr);
    let hb_kernels = hb_exec
        .sanitizer
        .as_ref()
        .map_or(0, |s| s.stats().trace_kernels);
    let mut profiler = cupti_sim::Profiler::new();
    profiler.enable();
    profiler.ingest(hb_exec.dev.trace());
    profiler.flush();
    let dropped = profiler.dropped();
    let branchy: Vec<&Point> = points.iter().filter(|p| p.branchy).collect();
    let mut dag_us = Vec::new();
    let mut cosched_us = Vec::new();
    for p in &branchy {
        let t = Instant::now();
        let dag = LayerDag::from_spec(&p.spec);
        dag_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(dag);
        for wave in wave_inputs(p) {
            let t = Instant::now();
            let wa = co_schedule(&p.props, &wave);
            cosched_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(wa.streams_per_dispatch.len(), wave.len());
        }
    }
    tr.exit(probe);

    let reps = TRACE_REPS as f64;
    let spans = BodySpans::new(tr, TRACE_REPS, hand_off_s, hand_on_s);
    let per_body = |name: &str| spans.seconds(name);
    let totals = tr.total_by_name();
    let hb_s = totals.get("sanitizer.hb").map_or(0.0, |t| t.0 as f64 / 1e9);
    let netcaptures = totals.get("interop.netcapture").map_or(1, |t| t.1);
    let analyses: u64 = last
        .iter()
        .map(|(e, _)| e.stats.analyzed.len() as u64)
        .sum();

    let mut attr = Attribution::new(e2e_s);
    attr.add("nn", per_body("nn.build") + per_body("nn.stage"));
    attr.add(
        "cupti-sim",
        per_body("cupti-sim.ingest") + per_body("cupti-sim.parse"),
    );
    attr.add(
        "core",
        per_body("core.capture") + per_body("core.analyze") + per_body("core.issue"),
    );
    attr.add(
        "sanitizer",
        per_body("sanitizer.verify") + per_body("sanitizer.lint"),
    );
    attr.add("gpu-sim", per_body("gpu-sim.run"));
    attr.add("interop", per_body("interop.netcapture"));
    attr.transfer("core", "gpu-sim", launch_s);
    attr.transfer("core", "milp", milp.0 as f64 / 1e9);

    let mut out = vec![
        (
            "gpu-sim.run_ns_per_event",
            per_body("gpu-sim.run") * 1e9 / events as f64,
        ),
        ("gpu-sim.events", events as f64),
        (
            "gpu-sim.events_per_kernel",
            events as f64 / stats.issued_kernels as f64,
        ),
        ("gpu-sim.launch_ns_per_kernel", median(&launch_ns)),
        (
            "core.issue_ns_per_kernel",
            per_body("core.issue") * 1e9 / stats.issued_kernels as f64,
        ),
        (
            "core.capture_us_per_kernel",
            per_body("core.capture") * 1e6 / stats.captured_kernels as f64,
        ),
        (
            "core.analyze_us",
            per_body("core.analyze") * 1e6 / analyses as f64,
        ),
        (
            "core.plan_cache_hit_share",
            1.0 - stats.captures as f64 / stats.dispatches as f64,
        ),
        ("milp.solve_us", milp.0 as f64 / 1e3 / milp.1 as f64),
        ("milp.nodes_per_solve", milp.2 as f64 / milp.1 as f64),
        (
            "cupti-sim.ingest_ns_per_record",
            (per_body("cupti-sim.ingest") + per_body("cupti-sim.parse")) * 1e9
                / stats.records as f64,
        ),
        ("cupti-sim.records", stats.records as f64),
        ("cupti-sim.dropped", dropped as f64),
        (
            "sanitizer.verify_us_per_chunk",
            per_body("sanitizer.verify") * 1e6 / stats.verified_chunks as f64,
        ),
        (
            "sanitizer.certified_share",
            certified as f64 / (certified + fallbacks).max(1) as f64,
        ),
        (
            "sanitizer.lint_us_per_node",
            per_body("sanitizer.lint") * 1e6 / lint_nodes as f64,
        ),
        (
            "sanitizer.hb_us_per_kernel",
            hb_s * 1e6 / hb_kernels.max(1) as f64,
        ),
        ("sanitizer.reports", findings as f64),
        (
            "nn.stage_us_per_kernel",
            per_body("nn.stage") * 1e6 / staged_kernels as f64,
        ),
        ("interop.dag_us", median(&dag_us)),
        ("interop.coschedule_us", median(&cosched_us)),
        (
            "interop.netcapture_ms",
            per_body("interop.netcapture") * 1e3 * reps / netcaptures as f64,
        ),
        ("trace.overhead_share", spans.overhead_share),
    ];
    out.extend(attr.metrics(
        "nn.glue_share",
        &["cupti-sim", "core", "milp", "sanitizer", "nn", "interop"],
    ));
    out
}
