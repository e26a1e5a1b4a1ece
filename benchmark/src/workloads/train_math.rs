//! `train-math`: real f32 `Solver::step` under naive and glp4nn dispatch
//! from the same seed, final weights compared bitwise — the paper's
//! convergence invariance (Fig. 11).
//!
//! Inputs: CIFAR10 b32 and Siamese b64. CIFAR10 runs at batch 32, not
//! 100: a b100 step costs 0.65 host seconds per mode, so three set-ups
//! and seven repetitions would not fit a run; `tensor`'s share of the
//! step does not depend on the batch. `--seed` feeds the weight-init
//! seed and the synthetic dataset.

use super::{net_spec, Mode};
use crate::attribution::{Attribution, BodySpans};
use crate::digest::Digest;
use crate::hand::{launch_probe, stage, HandExec};
use crate::harness::{Cell, CellOut, SimSummary, Workload};
use crate::spec::{workload, WorkloadSpec};
use crate::stats::{geo_mean, median};
use crate::trace::Tracer;
use gpu_sim::DeviceProps;
use nn::data::SyntheticDataset;
use nn::net::LayerKind;
use nn::{ExecCtx, Net, NetSpec, Solver, SolverConfig};
use std::time::Instant;
use tensor::pool::{num_workers, parallel_for_rows};
use tensor::{col2im, im2col, sgemm, Blob, ConvGeometry, Transpose};

/// `(net, batch)`.
pub const NETS: [(&str, usize); 2] = [("CIFAR10", 32), ("Siamese", 64)];
/// Dispatch modes, in cell order.
pub const MODES: [Mode; 2] = [Mode::Naive, Mode::Glp4nn];
/// Steps before timing: GLP4NN profiles on the first, captures on the
/// second; naive takes the same two so both arms see the same samples.
pub const WARM_STEPS: usize = 2;
/// Steps per timed body.
pub const STEPS_PER_BODY: usize = 1;

/// The workload.
pub struct TrainMath;

/// One (net, mode) cell.
pub struct MathCell {
    /// Solver over the net.
    pub solver: Solver,
    /// The context.
    pub ctx: ExecCtx,
    dataset: SyntheticDataset,
    pairs: bool,
    batch: usize,
    step: usize,
}

/// Move a named input blob out, fill it, and put it back.
fn with_inputs(net: &mut Net, names: &[&str], fill: impl FnOnce(&mut [Blob])) {
    let mut blobs: Vec<Blob> = names
        .iter()
        .map(|n| std::mem::replace(net.blob_mut(n), Blob::empty()))
        .collect();
    fill(&mut blobs);
    for (n, b) in names.iter().zip(blobs) {
        *net.blob_mut(n) = b;
    }
}

impl MathCell {
    /// Build `(net, mode)` from `seed` and take the warm steps.
    pub fn new(net: usize, mode: Mode, seed: u64) -> Self {
        let (name, batch) = NETS[net];
        let pairs = name == "Siamese";
        let mut cell = MathCell {
            solver: Solver::new(
                Net::from_spec(&net_spec(name, batch, seed)),
                SolverConfig::default(),
            ),
            ctx: mode.ctx(DeviceProps::p100()),
            dataset: if pairs {
                SyntheticDataset::mnist_like(seed)
            } else {
                SyntheticDataset::cifar_like(seed)
            },
            pairs,
            batch,
            step: 0,
        };
        for _ in 0..WARM_STEPS {
            cell.train_step();
        }
        cell
    }

    /// Load the next batch and take one solver step; returns the loss.
    pub fn train_step(&mut self) -> f32 {
        let (ds, batch, step) = (&self.dataset, self.batch, self.step);
        if self.pairs {
            with_inputs(&mut self.solver.net, &["data", "data_p", "sim"], |b| {
                let [a, p, s] = b else { unreachable!() };
                ds.fill_pair_batch(step * 2 * batch, a, p, s);
            });
        } else {
            with_inputs(&mut self.solver.net, &["data", "label"], |b| {
                let [data, label] = b else { unreachable!() };
                ds.fill_batch(step * batch, data, label);
            });
        }
        self.step += 1;
        self.solver.step(&mut self.ctx)
    }
}

impl Cell for MathCell {
    fn body(&mut self) -> CellOut {
        let sim0 = self.ctx.device.now();
        let mut unit_s = Vec::with_capacity(STEPS_PER_BODY);
        let mut losses = Digest::new();
        let t = Instant::now();
        for _ in 0..STEPS_PER_BODY {
            let ti = Instant::now();
            losses.u64(u64::from(self.train_step().to_bits()));
            unit_s.push(ti.elapsed().as_secs_f64());
        }
        let host_s = t.elapsed().as_secs_f64();
        let sim_ns = (self.ctx.device.now() - sim0) / STEPS_PER_BODY as u64;
        let images = (self.batch * STEPS_PER_BODY) as u64;
        CellOut {
            host_s,
            work: images,
            attempted: images,
            failed: 0,
            sim_digest: Digest::new().u64(sim_ns).value(),
            // Losses move from body to body as training proceeds, so
            // they are pinned through the end-of-set weights instead.
            seeded_digest: 0,
            sim: [sim_ns as f64, 0.0],
            unit_s,
        }
    }

    fn finish(&mut self) -> (u64, u64) {
        let mut weights = Digest::new();
        for p in self.solver.net.params_mut() {
            weights.f32s(p.data());
        }
        (
            Digest::new().timeline(self.ctx.device.trace()).value(),
            weights.value(),
        )
    }
}

impl Workload for TrainMath {
    fn spec(&self) -> &'static WorkloadSpec {
        workload("train-math").expect("listed")
    }

    fn num_cells(&self) -> usize {
        NETS.len() * MODES.len()
    }

    fn bodies_per_set(&self) -> usize {
        3
    }

    fn setup(&self, cell: usize, seed: u64) -> Box<dyn Cell> {
        Box::new(MathCell::new(
            cell / MODES.len(),
            MODES[cell % MODES.len()],
            seed,
        ))
    }

    /// `sim_time`: summed simulated glp4nn step time over the nets.
    /// `sim_gain`: geo-mean over nets of naive ÷ glp4nn step time.
    fn summarize(&self, outs: &[CellOut]) -> SimSummary {
        let mut glp_ns = 0.0;
        let mut ratios = Vec::new();
        for per_net in outs.chunks(MODES.len()) {
            glp_ns += per_net[1].sim[0];
            ratios.push(per_net[0].sim[0] / per_net[1].sim[0]);
        }
        SimSummary {
            time_ms: glp_ns / 1e6,
            gain: geo_mean(&ratios),
        }
    }

    /// Convergence invariance: naive and glp4nn end every set with
    /// bitwise-equal weights.
    fn check_set(&self, finals: &[(u64, u64)]) -> u64 {
        finals
            .chunks(MODES.len())
            .filter(|per_net| per_net[0].1 != per_net[1].1)
            .count() as u64
    }

    fn unit_name(&self) -> &'static str {
        "solver step"
    }

    /// The only workload whose library code threads (`tensor::pool`): on
    /// one CPU it measures `tensor`'s arithmetic, not the host scheduler.
    fn single_cpu(&self) -> bool {
        true
    }

    fn trace(&self, seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
        trace(seed, tracer)
    }
}

/// The `tensor` calls one layer makes per training step, as shapes.
#[derive(Debug, Clone, Copy)]
enum MathOp {
    /// A convolution: per-sample im2col + three SGEMMs + col2im.
    Conv {
        n: usize,
        ci: usize,
        ih: usize,
        iw: usize,
        co: usize,
        geom: ConvGeometry,
    },
    /// A fully connected layer: three whole-batch SGEMMs.
    Ip {
        n: usize,
        input: usize,
        output: usize,
    },
}

/// The shape list of one step, read off a built net's blobs.
fn math_ops(spec: &NetSpec, net: &Net) -> Vec<MathOp> {
    spec.layers
        .iter()
        .filter_map(|l| {
            let b = net.blob(&l.bottoms[0]);
            match l.kind {
                LayerKind::Convolution {
                    num_output,
                    kernel,
                    stride,
                    pad,
                } => Some(MathOp::Conv {
                    n: b.num(),
                    ci: b.channels(),
                    ih: b.height(),
                    iw: b.width(),
                    co: num_output,
                    geom: ConvGeometry::square(kernel, stride, pad),
                }),
                LayerKind::InnerProduct { num_output } => Some(MathOp::Ip {
                    n: b.num(),
                    input: b.count() / b.num(),
                    output: num_output,
                }),
                _ => None,
            }
        })
        .collect()
}

/// Buffers of one op, filled with a fixed nonzero pattern (SGEMM and
/// im2col cost does not depend on the values).
struct OpBuffers {
    bottom: Vec<f32>,
    bottom_diff: Vec<f32>,
    weight: Vec<f32>,
    weight_diff: Vec<f32>,
    top: Vec<f32>,
}

fn pattern(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect()
}

impl OpBuffers {
    fn new(op: &MathOp) -> Self {
        let (bottom, weight, top) = match *op {
            MathOp::Conv {
                n,
                ci,
                ih,
                iw,
                co,
                geom,
            } => (
                n * ci * ih * iw,
                co * ci * geom.kernel_h * geom.kernel_w,
                n * co * geom.out_h(ih) * geom.out_w(iw),
            ),
            MathOp::Ip { n, input, output } => (n * input, output * input, n * output),
        };
        OpBuffers {
            bottom: pattern(bottom),
            bottom_diff: vec![0.0; bottom],
            weight: pattern(weight),
            weight_diff: vec![0.0; weight],
            top: pattern(top),
        }
    }
}

/// Seconds and counts of the `tensor` calls of a replay.
#[derive(Debug, Default, Clone, Copy)]
struct TensorCost {
    sgemm_s: f64,
    sgemm_calls: u64,
    sgemm_flops: f64,
    im2col_s: f64,
}

/// Replay one op's forward + backward `tensor` calls on one thread,
/// timing each call: what the calls cost, without the layers' threading.
fn replay_serial(op: &MathOp, buf: &mut OpBuffers, cost: &mut TensorCost) {
    let mut gemm =
        |ta, tb, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], beta, c: &mut [f32]| {
            let t = Instant::now();
            sgemm(ta, tb, m, n, k, 1.0, a, b, beta, c);
            cost.sgemm_s += t.elapsed().as_secs_f64();
            cost.sgemm_calls += 1;
            cost.sgemm_flops += 2.0 * (m * n * k) as f64;
        };
    match *op {
        MathOp::Ip { n, input, output } => {
            gemm(
                Transpose::No,
                Transpose::Yes,
                n,
                output,
                input,
                &buf.bottom,
                &buf.weight,
                0.0,
                &mut buf.top,
            );
            gemm(
                Transpose::Yes,
                Transpose::No,
                output,
                input,
                n,
                &buf.top,
                &buf.bottom,
                1.0,
                &mut buf.weight_diff,
            );
            gemm(
                Transpose::No,
                Transpose::No,
                n,
                input,
                output,
                &buf.top,
                &buf.weight,
                0.0,
                &mut buf.bottom_diff,
            );
        }
        MathOp::Conv {
            n,
            ci,
            ih,
            iw,
            co,
            geom,
        } => {
            let k = ci * geom.kernel_h * geom.kernel_w;
            let ohw = geom.out_h(ih) * geom.out_w(iw);
            let (in_stride, out_stride) = (ci * ih * iw, co * ohw);
            let one_by_one = geom.kernel_h == 1 && geom.stride == 1 && geom.pad == 0;
            let mut col = vec![0.0f32; k * ohw];
            let mut im_diff = vec![0.0f32; in_stride];
            let mut im2col_s = 0.0;
            for s in 0..n {
                let im = &buf.bottom[s * in_stride..(s + 1) * in_stride];
                let out = &mut buf.top[s * out_stride..(s + 1) * out_stride];
                // Forward and weight gradient each expand the sample.
                for pass in 0..2 {
                    if !one_by_one {
                        let t = Instant::now();
                        im2col(im, ci, ih, iw, &geom, &mut col);
                        im2col_s += t.elapsed().as_secs_f64();
                    }
                    let cols: &[f32] = if one_by_one { im } else { &col };
                    if pass == 0 {
                        gemm(
                            Transpose::No,
                            Transpose::No,
                            co,
                            ohw,
                            k,
                            &buf.weight,
                            cols,
                            0.0,
                            out,
                        );
                    } else {
                        gemm(
                            Transpose::No,
                            Transpose::Yes,
                            co,
                            k,
                            ohw,
                            out,
                            cols,
                            1.0,
                            &mut buf.weight_diff,
                        );
                    }
                }
                gemm(
                    Transpose::Yes,
                    Transpose::No,
                    k,
                    ohw,
                    co,
                    &buf.weight,
                    out,
                    0.0,
                    &mut col,
                );
                if !one_by_one {
                    let t = Instant::now();
                    col2im(&col, ci, ih, iw, &geom, &mut im_diff);
                    im2col_s += t.elapsed().as_secs_f64();
                }
            }
            cost.im2col_s += im2col_s;
        }
    }
}

/// Replay one op's `tensor` calls with the layers' own threading
/// (`parallel_for_rows` over samples forward and for the data gradient,
/// one scoped thread per worker for the weight gradient): the wall time
/// `tensor` accounts for inside a step.
fn replay_parallel(op: &MathOp, buf: &mut OpBuffers) {
    let MathOp::Conv {
        n,
        ci,
        ih,
        iw,
        co,
        geom,
    } = *op
    else {
        // Whole-batch SGEMMs thread inside `sgemm` itself.
        replay_serial(op, buf, &mut TensorCost::default());
        return;
    };
    let k = ci * geom.kernel_h * geom.kernel_w;
    let ohw = geom.out_h(ih) * geom.out_w(iw);
    let (in_stride, out_stride) = (ci * ih * iw, co * ohw);
    let one_by_one = geom.kernel_h == 1 && geom.stride == 1 && geom.pad == 0;
    let (bottom, weight) = (&buf.bottom, &buf.weight);
    let expand = |im: &[f32], col: &mut [f32]| {
        if !one_by_one {
            im2col(im, ci, ih, iw, &geom, col);
        }
    };

    parallel_for_rows(&mut buf.top, out_stride, |n0, chunk| {
        let mut col = vec![0.0f32; if one_by_one { 0 } else { k * ohw }];
        for (s, out) in chunk.chunks_mut(out_stride).enumerate() {
            let im = &bottom[(n0 + s) * in_stride..(n0 + s + 1) * in_stride];
            expand(im, &mut col);
            let cols: &[f32] = if one_by_one { im } else { &col };
            sgemm(
                Transpose::No,
                Transpose::No,
                co,
                ohw,
                k,
                1.0,
                weight,
                cols,
                0.0,
                out,
            );
        }
    });

    let top = &buf.top;
    let workers = num_workers().min(n).max(1);
    let per = n.div_ceil(workers);
    let mut partials = vec![0.0f32; workers * co * k];
    std::thread::scope(|scope| {
        for (w, part) in partials.chunks_mut(co * k).enumerate() {
            let expand = &expand;
            scope.spawn(move || {
                let mut col = vec![0.0f32; if one_by_one { 0 } else { k * ohw }];
                for s in w * per..((w + 1) * per).min(n) {
                    let im = &bottom[s * in_stride..(s + 1) * in_stride];
                    expand(im, &mut col);
                    let cols: &[f32] = if one_by_one { im } else { &col };
                    let td = &top[s * out_stride..(s + 1) * out_stride];
                    sgemm(
                        Transpose::No,
                        Transpose::Yes,
                        co,
                        k,
                        ohw,
                        1.0,
                        td,
                        cols,
                        1.0,
                        part,
                    );
                }
            });
        }
    });

    parallel_for_rows(&mut buf.bottom_diff, in_stride, |n0, chunk| {
        let mut col_diff = vec![0.0f32; k * ohw];
        let mut im_diff = vec![0.0f32; if one_by_one { 0 } else { in_stride }];
        for (s, out) in chunk.chunks_mut(in_stride).enumerate() {
            let td = &top[(n0 + s) * out_stride..(n0 + s + 1) * out_stride];
            sgemm(
                Transpose::Yes,
                Transpose::No,
                k,
                ohw,
                co,
                1.0,
                weight,
                td,
                0.0,
                &mut col_diff,
            );
            if one_by_one {
                out.copy_from_slice(&col_diff);
            } else {
                col2im(&col_diff, ci, ih, iw, &geom, &mut im_diff);
                out.copy_from_slice(&im_diff);
            }
        }
    });
}

/// Bodies per arm in the traced run; medians are taken over these.
const TRACE_REPS: usize = 3;

fn trace(seed: u64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let props = DeviceProps::p100();
    let mut off = Tracer::new(false);
    let (mut e2e_s, mut hand_off_s, mut hand_on_s) = (0.0, 0.0, 0.0);
    let (mut events, mut kernels, mut launch_s) = (0u64, 0u64, 0.0);
    let mut launch_ns = Vec::new();
    let mut cost = TensorCost::default();

    for cell in 0..NETS.len() * MODES.len() {
        let (net, mode) = (cell / MODES.len(), MODES[cell % MODES.len()]);
        let (name, batch) = NETS[net];
        let spec = net_spec(name, batch, seed);

        // Arm 1: the end-to-end path, untraced.
        let mut e2e = MathCell::new(net, mode, seed);
        let outs: Vec<CellOut> = (0..TRACE_REPS).map(|_| e2e.body()).collect();
        e2e_s += median(&outs.iter().map(|o| o.host_s).collect::<Vec<_>>());
        let ops = math_ops(&spec, &e2e.solver.net);
        let e2e_end = e2e.ctx.device.now();
        let e2e_len = e2e.ctx.device.trace().len();
        drop(e2e);

        // The hand-driven step: the layers' tensor calls, then the
        // simulated dispatch of the same sites.
        let mut bufs: Vec<OpBuffers> = ops.iter().map(OpBuffers::new).collect();
        let mut scratch = ExecCtx::naive(props.clone()).timing_only();
        let mut staged_net = Net::from_spec(&spec);
        let sites = stage(&mut scratch, &mut staged_net);
        let step = |exec: &mut HandExec, bufs: &mut [OpBuffers], tr: &mut Tracer| {
            let t = Instant::now();
            let s = tr.enter("tensor.replay");
            for (op, buf) in ops.iter().zip(bufs.iter_mut()) {
                replay_parallel(op, buf);
            }
            tr.exit(s);
            for (i, site) in sites.iter().enumerate() {
                exec.dispatch(i, site, tr);
            }
            t.elapsed().as_secs_f64()
        };

        // Arm 2: recorder off.
        let mut exec = HandExec::new(props.clone(), mode, &spec.name, batch);
        for _ in 0..WARM_STEPS {
            step(&mut exec, &mut bufs, &mut off);
        }
        let times: Vec<f64> = (0..TRACE_REPS * STEPS_PER_BODY)
            .map(|_| step(&mut exec, &mut bufs, &mut off))
            .collect();
        hand_off_s += median(&times) * STEPS_PER_BODY as f64;

        // Arm 3: under spans.
        let s = tr.enter("bench.setup");
        let mut exec = HandExec::new(props.clone(), mode, &spec.name, batch);
        for _ in 0..WARM_STEPS {
            step(&mut exec, &mut bufs, tr);
        }
        tr.exit(s);
        let events0 = exec.dev.events_processed();
        let kernels0 = exec.dev.trace().len();
        let mut times = Vec::new();
        for _ in 0..TRACE_REPS {
            let s = tr.enter("bench.body");
            times.push(
                (0..STEPS_PER_BODY)
                    .map(|_| step(&mut exec, &mut bufs, tr))
                    .sum(),
            );
            tr.exit(s);
        }
        hand_on_s += median(&times);
        assert_eq!(
            exec.dev.now(),
            e2e_end,
            "cell {cell}: simulated end time differs"
        );
        assert_eq!(
            exec.dev.trace().len(),
            e2e_len,
            "cell {cell}: kernel count differs"
        );
        let cell_kernels = (exec.dev.trace().len() - kernels0) as u64 / TRACE_REPS as u64;
        events += (exec.dev.events_processed() - events0) / TRACE_REPS as u64;
        kernels += cell_kernels;
        let ns = launch_probe(&props, &exec.cached_plans(), 3);
        launch_ns.push(ns);
        launch_s += ns * cell_kernels as f64 / 1e9;

        // What the tensor calls cost one by one (both modes run the same
        // math, so each net is replayed once).
        if mode == MODES[0] {
            let probe = tr.enter("bench.probe");
            for (op, buf) in ops.iter().zip(bufs.iter_mut()) {
                replay_serial(op, buf, &mut cost);
            }
            tr.exit(probe);
        }
    }

    let spans = BodySpans::new(tr, TRACE_REPS, hand_off_s, hand_on_s);
    let per_body = |name: &str| spans.seconds(name);
    let mut attr = Attribution::new(e2e_s);
    attr.add("tensor", per_body("tensor.replay"));
    attr.add("gpu-sim", per_body("gpu-sim.run"));
    attr.add("core", per_body("core.issue"));
    attr.transfer("core", "gpu-sim", launch_s);

    let mut out = vec![
        ("tensor.sgemm_s", cost.sgemm_s),
        ("tensor.sgemm_gflops", cost.sgemm_flops / cost.sgemm_s / 1e9),
        ("tensor.sgemm_calls", cost.sgemm_calls as f64),
        ("tensor.im2col_s", cost.im2col_s),
        (
            "gpu-sim.run_ns_per_event",
            per_body("gpu-sim.run") * 1e9 / events as f64,
        ),
        ("gpu-sim.events", events as f64),
        ("gpu-sim.events_per_kernel", events as f64 / kernels as f64),
        ("gpu-sim.launch_ns_per_kernel", median(&launch_ns)),
        (
            "core.issue_ns_per_kernel",
            per_body("core.issue") * 1e9 / kernels as f64,
        ),
        ("core.plan_cache_hit_share", 1.0),
        ("trace.overhead_share", spans.overhead_share),
    ];
    out.extend(attr.metrics("nn.glue_share", &["tensor"]));
    out
}
