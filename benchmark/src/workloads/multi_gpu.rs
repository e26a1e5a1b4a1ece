//! `multi-gpu`: `DataParallelTrainer` timing-only steady steps at the
//! library-default fabric worker count.
//!
//! Inputs: CIFAR10 b16 × 8 replicas, Siamese b16 × 4, GoogLeNet b2 × 4,
//! over {pcie, nvlink} × {no-overlap, overlap}, P100s, 4 streams per
//! replica. CaffeNet is left out so set-up is not a 1–5 s first-touch
//! weight-fill lottery.

use super::{net_spec, Mode};
use crate::attribution::{Attribution, BodySpans};
use crate::digest::Digest;
use crate::hand::{launch_probe, stage, HandExec};
use crate::harness::{Cell, CellOut, SimSummary, Workload};
use crate::spec::{workload, WorkloadSpec};
use crate::stats::{geo_mean, median};
use crate::trace::Tracer;
use collective::{Bucket, RingComm};
use glp4nn::Phase;
use gpu_sim::{Device, DeviceProps, Fabric, LinkProps};
use nn::{DataParallelTrainer, DispatchMode, ExecCtx, Net, SolverConfig, StagedDispatch};
use std::time::Instant;

/// `(net, per-replica batch, replicas, steps per body)`.
pub const NETS: [(&str, usize, usize, usize); 3] = [
    ("CIFAR10", 16, 8, 3),
    ("Siamese", 16, 4, 15),
    ("GoogLeNet", 2, 4, 20),
];
/// Link presets, in cell order.
pub const LINKS: [&str; 2] = ["pcie", "nvlink"];
/// Streams per replica.
pub const STREAMS: u32 = 4;
/// Steps before timing: the first captures every plan.
pub const WARM_STEPS: usize = 2;

/// The link preset called `name`.
pub fn link_props(name: &str) -> LinkProps {
    match name {
        "nvlink" => LinkProps::nvlink(),
        _ => LinkProps::pcie3(),
    }
}

/// `(net index, link, overlap)` of cell `i`: overlap varies fastest.
pub fn cell_params(i: usize) -> (usize, &'static str, bool) {
    (i / 4, LINKS[(i / 2) % 2], i % 2 == 1)
}

/// The workload.
pub struct MultiGpu;

struct TrainerCell {
    dp: DataParallelTrainer,
    steps: usize,
    /// Kernels plus P2P copies one step retires.
    per_step: u64,
}

impl TrainerCell {
    fn new(cell: usize) -> Self {
        let (net, link, overlap) = cell_params(cell);
        let (name, batch, replicas, steps) = NETS[net];
        // Timing-only: the weight seed shapes no simulated output.
        let spec = net_spec(name, batch, 1);
        let devices = vec![DeviceProps::p100(); replicas];
        let mut dp = DataParallelTrainer::new(&spec, &devices, false, SolverConfig::default())
            .with_link(link_props(link))
            .with_dispatch(DispatchMode::FixedStreams(STREAMS))
            .with_overlap(overlap)
            .timing_only();
        let mut per_step = 0;
        for _ in 0..WARM_STEPS {
            let before = dp.merged_timeline().len();
            dp.step();
            per_step = (dp.merged_timeline().len() - before) as u64;
        }
        TrainerCell {
            dp,
            steps,
            per_step,
        }
    }
}

impl Cell for TrainerCell {
    fn body(&mut self) -> CellOut {
        let mut unit_s = Vec::with_capacity(self.steps);
        let mut d = Digest::new();
        let mut wall_ns = 0;
        let t = Instant::now();
        for _ in 0..self.steps {
            let ti = Instant::now();
            let r = self.dp.step();
            unit_s.push(ti.elapsed().as_secs_f64());
            d.u64(r.wall_ns).u64(r.compute_ns).u64(r.comm_ns);
            wall_ns = r.wall_ns;
        }
        let host_s = t.elapsed().as_secs_f64();
        let work = self.per_step * self.steps as u64;
        CellOut {
            host_s,
            work,
            attempted: work,
            failed: 0,
            sim_digest: d.value(),
            seeded_digest: 0,
            sim: [wall_ns as f64, 0.0],
            unit_s,
        }
    }

    fn finish(&mut self) -> (u64, u64) {
        let tl = self.dp.merged_timeline();
        // The merged timeline's own rendering covers kernels and copies
        // of every replica, with their stream rows and spans.
        (Digest::new().str(&tl.render_csv()).value(), 0)
    }
}

impl Workload for MultiGpu {
    fn spec(&self) -> &'static WorkloadSpec {
        workload("multi-gpu").expect("listed")
    }

    fn num_cells(&self) -> usize {
        NETS.len() * 4
    }

    fn bodies_per_set(&self) -> usize {
        3
    }

    fn setup(&self, cell: usize, _seed: u64) -> Box<dyn Cell> {
        Box::new(TrainerCell::new(cell))
    }

    /// `sim_time`: summed simulated overlapped step time over (net, link).
    /// `sim_gain`: geo-mean of simulated step time, no-overlap ÷ overlap.
    fn summarize(&self, outs: &[CellOut]) -> SimSummary {
        let mut overlap_ns = 0.0;
        let mut ratios = Vec::new();
        for pair in outs.chunks(2) {
            overlap_ns += pair[1].sim[0];
            ratios.push(pair[0].sim[0] / pair[1].sim[0]);
        }
        SimSummary {
            time_ms: overlap_ns / 1e6,
            gain: geo_mean(&ratios),
        }
    }

    fn unit_name(&self) -> &'static str {
        "data-parallel step"
    }

    fn trace(&self, _seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
        trace(tracer)
    }
}

/// `DataParallelTrainer::step` in timing-only mode, driven by hand: one
/// [`HandExec`] per replica, the fabric, and the ring communicator, in
/// the order nn/src/parallel_train.rs issues them.
struct HandTrainer {
    execs: Vec<HandExec>,
    fabric: Fabric,
    comm: RingComm,
    overlap: bool,
    sites: Vec<StagedDispatch>,
    /// Indices into `sites` of the forward dispatches, in order.
    forward: Vec<usize>,
    /// Per layer: indices of its backward dispatches, in order.
    backward: Vec<Vec<usize>>,
    /// Per layer: its gradient bucket, if it has parameters.
    buckets: Vec<Option<Bucket>>,
    steps: usize,
    /// Bytes the collectives of the last step put on the wire.
    wire_bytes: u64,
    /// Device events processed inside `Fabric::run` so far.
    fabric_events: u64,
}

impl HandTrainer {
    fn new(cell: usize, tr: &mut Tracer) -> Self {
        let (net, link, overlap) = cell_params(cell);
        let (name, batch, replicas, steps) = NETS[net];
        let spec = net_spec(name, batch, 1);
        let mut scratch = ExecCtx::naive(DeviceProps::p100()).timing_only();
        let mut staged_net = Net::from_spec(&spec);
        let s = tr.enter("nn.stage");
        let sites = stage(&mut scratch, &mut staged_net);
        tr.exit(s);
        let names = staged_net.layer_names();
        let layer_of = |d: &StagedDispatch| {
            names
                .iter()
                .position(|n| *n == d.layer)
                .expect("staged dispatch names a layer of the net")
        };
        let forward = (0..sites.len())
            .filter(|&i| sites[i].phase == Phase::Forward)
            .collect();
        let mut backward = vec![Vec::new(); names.len()];
        for (i, d) in sites.iter().enumerate() {
            if d.phase == Phase::Backward {
                backward[layer_of(d)].push(i);
            }
        }
        let buckets = (0..names.len())
            .map(|i| {
                let bytes: u64 = staged_net
                    .layer_params_mut(i)
                    .iter()
                    .map(|p| p.count() as u64 * 4)
                    .sum();
                (bytes > 0).then(|| Bucket::new(format!("{}/dw", names[i]), bytes))
            })
            .collect();
        let mut execs: Vec<HandExec> = (0..replicas)
            .map(|_| HandExec::new(DeviceProps::p100(), Mode::Fixed(STREAMS), &spec.name, batch))
            .collect();
        // The communicator takes its stream on every device before any
        // compute stream exists, as the trainer's constructor does.
        let comm = {
            let mut devs: Vec<&mut Device> = execs.iter_mut().map(|e| &mut e.dev).collect();
            RingComm::new(&mut devs)
        };
        let mut trainer = HandTrainer {
            execs,
            fabric: Fabric::ring(replicas, link_props(link)),
            comm,
            overlap,
            sites,
            forward,
            backward,
            buckets,
            steps,
            wire_bytes: 0,
            fabric_events: 0,
        };
        for _ in 0..WARM_STEPS {
            trainer.step(tr);
        }
        trainer
    }

    fn all_reduce(&mut self, layer: usize, gate: bool, tr: &mut Tracer) {
        let Some(bucket) = self.buckets[layer].clone() else {
            return;
        };
        if gate {
            let s = tr.enter("nn.barrier");
            for (r, exec) in self.execs.iter_mut().enumerate() {
                if let Some(ev) = exec.barrier_event() {
                    exec.dev.wait_event(self.comm.stream(r), ev);
                }
            }
            tr.exit(s);
        }
        let mut devs: Vec<&mut Device> = self.execs.iter_mut().map(|e| &mut e.dev).collect();
        let s = tr.enter("collective.allreduce");
        let report = self
            .comm
            .all_reduce(&mut self.fabric, &mut devs, &bucket)
            .expect("ring all-reduce over its own fabric");
        tr.exit(s);
        self.wire_bytes += report.bytes_on_wire;
    }

    /// One step; returns its simulated wall ns.
    fn step(&mut self, tr: &mut Tracer) -> u64 {
        let replicas = self.execs.len();
        let defer = self.overlap && replicas > 1;
        self.wire_bytes = 0;
        let t0: Vec<u64> = self.execs.iter().map(|e| e.dev.now()).collect();
        for exec in &mut self.execs {
            exec.set_deferred(defer);
            for &i in &self.forward {
                exec.dispatch(i, &self.sites[i], tr);
            }
        }
        for layer in (0..self.backward.len()).rev() {
            for exec in &mut self.execs {
                for &i in &self.backward[layer] {
                    exec.dispatch(i, &self.sites[i], tr);
                }
            }
            if replicas > 1 && defer {
                self.all_reduce(layer, true, tr);
            }
        }
        if replicas > 1 && !defer {
            for layer in (0..self.backward.len()).rev() {
                self.all_reduce(layer, false, tr);
            }
        }
        let events0: u64 = self.execs.iter().map(|e| e.dev.events_processed()).sum();
        {
            let mut devs: Vec<&mut Device> = self.execs.iter_mut().map(|e| &mut e.dev).collect();
            let s = tr.enter("gpu-sim.fabric_run");
            self.fabric.run(&mut devs);
            tr.exit(s);
        }
        let events1: u64 = self.execs.iter().map(|e| e.dev.events_processed()).sum();
        self.fabric_events += events1 - events0;
        let mut wall = 0;
        for (exec, start) in self.execs.iter_mut().zip(t0) {
            exec.set_deferred(false);
            wall = wall.max(exec.dev.now() - start);
        }
        wall
    }

    /// One body: `steps` steps; returns `(host seconds, last wall ns)`.
    fn body(&mut self, tr: &mut Tracer) -> (f64, u64) {
        let t = Instant::now();
        let mut wall = 0;
        for _ in 0..self.steps {
            wall = self.step(tr);
        }
        (t.elapsed().as_secs_f64(), wall)
    }

    fn timeline_csv(&self) -> String {
        let devs: Vec<&Device> = self.execs.iter().map(|e| &e.dev).collect();
        self.fabric.merged_timeline(&devs).render_csv()
    }
}

/// Bodies per arm in the traced run; medians are taken over these.
const TRACE_REPS: usize = 3;

fn trace(tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let props = DeviceProps::p100();
    let mut off = Tracer::new(false);
    let (mut e2e_s, mut attached_s, mut hand_off_s, mut hand_on_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut one_worker_s, mut all_workers_s) = (0.0, 0.0);
    let (mut kernels, mut events, mut fabric_events, mut copies, mut wire_bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut launch_s = 0.0;
    let mut launch_ns = Vec::new();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    for cell in 0..NETS.len() * 4 {
        let (_, _, overlap) = cell_params(cell);

        // Arm 1: the end-to-end path, untraced; then with a recorder
        // attached to the whole trainer.
        let mut e2e = TrainerCell::new(cell);
        let outs: Vec<CellOut> = (0..TRACE_REPS).map(|_| e2e.body()).collect();
        e2e_s += median(&outs.iter().map(|o| o.host_s).collect::<Vec<_>>());
        let wall_ns = outs[0].sim[0] as u64;
        let e2e_csv = e2e.dp.merged_timeline().render_csv();
        drop(e2e);
        let mut attached = TrainerCell::new(cell);
        attached
            .dp
            .set_telemetry(telemetry::shared(telemetry::Telemetry::new()));
        let times: Vec<f64> = (0..TRACE_REPS).map(|_| attached.body().host_s).collect();
        attached_s += median(&times);
        drop(attached);

        // Arm 2: hand-driven, recorder off.
        let mut hand = HandTrainer::new(cell, &mut off);
        let times: Vec<f64> = (0..TRACE_REPS).map(|_| hand.body(&mut off).0).collect();
        hand_off_s += median(&times);
        drop(hand);

        // Arm 3: hand-driven under spans.
        let s = tr.enter("bench.setup");
        let mut hand = HandTrainer::new(cell, tr);
        tr.exit(s);
        let kernels0: usize = hand.execs.iter().map(|e| e.dev.trace().len()).sum();
        let events0: u64 = hand.execs.iter().map(|e| e.dev.events_processed()).sum();
        let (fabric_events0, copies0) = (hand.fabric_events, hand.fabric.num_copies());
        let mut times = Vec::new();
        for _ in 0..TRACE_REPS {
            let s = tr.enter("bench.body");
            let (host_s, hand_wall) = hand.body(tr);
            tr.exit(s);
            times.push(host_s);
            assert_eq!(
                hand_wall, wall_ns,
                "cell {cell}: hand-driven step time differs"
            );
        }
        hand_on_s += median(&times);
        // Same commands in the same order: the same merged timeline,
        // kernel for kernel and copy for copy.
        assert!(
            hand.timeline_csv() == e2e_csv,
            "cell {cell}: merged timeline differs"
        );
        let reps = TRACE_REPS as u64;
        let cell_kernels = (hand
            .execs
            .iter()
            .map(|e| e.dev.trace().len())
            .sum::<usize>()
            - kernels0) as u64
            / reps;
        kernels += cell_kernels;
        events += (hand
            .execs
            .iter()
            .map(|e| e.dev.events_processed())
            .sum::<u64>()
            - events0)
            / reps;
        fabric_events += (hand.fabric_events - fabric_events0) / reps;
        copies += (hand.fabric.num_copies() - copies0) as u64 / reps;
        wire_bytes += hand.wire_bytes * hand.steps as u64;
        let ns = launch_probe(&props, &hand.execs[0].cached_plans(), 3);
        launch_ns.push(ns);
        launch_s += ns * cell_kernels as f64 / 1e9;
        drop(hand);

        // Lookahead workers only have concurrent device work to step
        // when compute is deferred into the fabric: the overlap cells.
        if overlap {
            let mut csvs = Vec::new();
            for (workers, total) in [(1, &mut one_worker_s), (host_cores, &mut all_workers_s)] {
                let mut hand = HandTrainer::new(cell, &mut off);
                hand.fabric.set_workers(workers);
                *total += hand.body(&mut off).0;
                csvs.push(hand.timeline_csv());
            }
            assert!(
                csvs[0] == csvs[1],
                "cell {cell}: worker count changed the merged timeline"
            );
        }
    }

    let spans = BodySpans::new(tr, TRACE_REPS, hand_off_s, hand_on_s);
    let per_body = |name: &str| spans.seconds(name);
    let totals = tr.total_by_name();
    let allreduce = totals
        .get("collective.allreduce")
        .copied()
        .unwrap_or((0, 1));
    let mut attr = Attribution::new(e2e_s);
    attr.add("gpu-sim.fabric", per_body("gpu-sim.fabric_run"));
    attr.add("collective", per_body("collective.allreduce"));
    attr.add("gpu-sim", per_body("gpu-sim.run"));
    attr.add("core", per_body("core.issue"));
    attr.add("nn", per_body("nn.barrier"));
    attr.transfer("core", "gpu-sim", launch_s);

    let mut out = vec![
        (
            "gpu-sim.fabric_run_ns_per_event",
            per_body("gpu-sim.fabric_run") * 1e9 / fabric_events as f64,
        ),
        ("gpu-sim.fabric_copies", copies as f64),
        (
            "gpu-sim.fabric_workers_speedup",
            one_worker_s / all_workers_s,
        ),
        (
            "gpu-sim.run_ns_per_event",
            per_body("gpu-sim.run") * 1e9 / (events - fabric_events).max(1) as f64,
        ),
        ("gpu-sim.events", events as f64),
        ("gpu-sim.events_per_kernel", events as f64 / kernels as f64),
        ("gpu-sim.launch_ns_per_kernel", median(&launch_ns)),
        (
            "core.issue_ns_per_kernel",
            per_body("core.issue") * 1e9 / kernels as f64,
        ),
        ("core.plan_cache_hit_share", 1.0),
        (
            "collective.allreduce_issue_us",
            allreduce.0 as f64 / 1e3 / allreduce.1 as f64,
        ),
        ("collective.wire_bytes", wire_bytes as f64),
        ("telemetry.attached_slowdown", attached_s / e2e_s),
        ("trace.overhead_share", spans.overhead_share),
    ];
    out.extend(attr.metrics("nn.glue_share", &["gpu-sim.fabric", "collective"]));
    out
}
