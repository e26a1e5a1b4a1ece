//! Synchronous data-parallel training over a fabric of simulated GPUs —
//! the paper's §6 future work ("we will try to provide a distributed
//! implementation of the proposed framework") built on top of the
//! single-GPU GLP4NN optimization.
//!
//! Every replica holds an identical copy of the network on its own
//! simulated device (optionally accelerated by GLP4NN). The devices are
//! joined by a [`Fabric`] ring (PCIe- or NVLink-like links) and gradients
//! travel as real simulated traffic: per-layer buckets are ring
//! all-reduced ([`collective::RingComm`]) as chains of peer-to-peer copies
//! plus local fold kernels on per-device communication streams.
//!
//! Two scheduling modes:
//!
//! - **No overlap** (default): replicas run forward/backward eagerly,
//!   then all buckets are reduced — the classic BSP step. Simulated step
//!   time is `max(compute) + comm`.
//! - **Overlap** ([`with_overlap`](DataParallelTrainer::with_overlap)):
//!   the whole pass is issued in deferred mode (cached execution plans
//!   are *issued*, not run; inter-layer barriers become events), and
//!   layer `k`'s bucket all-reduce is enqueued — gated on a barrier event
//!   — right after layer `k`'s backward, so it overlaps layer `k-1`'s
//!   backward. One [`Fabric::run`] drives the whole iteration; the
//!   communication hides behind compute.
//!
//! Numerics are decoupled from the simulated schedule, deliberately: the
//! simulator moves no data, so gradient math happens host-side. Every
//! step computes each shard's gradient separately, combines shards (and
//! their losses) by a fixed binary tree over shard indices
//! ([`collective::tree_sum_scaled`]), and applies one momentum update to
//! every replica. The plain [`step`](DataParallelTrainer::step) takes one
//! shard per replica (deterministic for a given replica count);
//! [`step_sharded`](DataParallelTrainer::step_sharded) reproduces the
//! paper's convergence-invariance contract for data parallelism: the
//! global batch is cut into a *fixed* number of shards, so trained weights
//! are **bitwise identical for any replica count** that divides the shard
//! count.

use crate::exec::{DispatchMode, ExecCtx};
use crate::net::{Net, NetSpec};
use crate::solver::SolverConfig;
use collective::{tree_sum_scaled, Bucket, CommReport, RingComm};
use gpu_sim::{Device, DeviceProps, DeviceStats, Fabric, LinkProps, SimTime, Timeline};
use sanitizer::{Diagnostic, SanitizeMode, Sanitizer};

/// Result of one data-parallel step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Fixed-tree mean loss over shards (one shard per replica for
    /// [`DataParallelTrainer::step`]).
    pub loss: f32,
    /// Simulated compute time: the slowest replica's eager pass (ns). In
    /// overlap mode compute and communication are indistinguishable, and
    /// this equals [`wall_ns`](StepReport::wall_ns).
    pub compute_ns: u64,
    /// Simulated span of the gradient all-reduce traffic (ns). In overlap
    /// mode this runs concurrently with compute.
    pub comm_ns: u64,
    /// Simulated wall-clock of the whole step: the slowest device's
    /// elapsed simulated time, communication included.
    pub wall_ns: u64,
}

impl StepReport {
    /// Total simulated step time under sequential compute-then-communicate
    /// accounting. Prefer [`wall_ns`](StepReport::wall_ns), which is also
    /// correct for overlapped schedules.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.comm_ns
    }
}

/// A synchronous data-parallel trainer.
pub struct DataParallelTrainer {
    replicas: Vec<(Net, ExecCtx)>,
    cfg: SolverConfig,
    momentum: Vec<Vec<f32>>,
    iter: usize,
    fabric: Fabric,
    comm: RingComm,
    overlap: bool,
    shards: usize,
    /// The one happens-before replay of every replica's command log, run
    /// over the fabric because copies cross devices (the replicas'
    /// contexts keep only their static checks).
    sanitizer: Sanitizer,
}

impl DataParallelTrainer {
    /// Build `devices.len()` replicas of `spec`, one per device, joined in
    /// a PCIe-like ring. When `glp4nn` is true each replica's context runs
    /// the full framework (profile-then-parallelize per device, as the
    /// paper's multi-GPU architecture assigns a private analyzer/scheduler
    /// per GPU).
    pub fn new(spec: &NetSpec, devices: &[DeviceProps], glp4nn: bool, cfg: SolverConfig) -> Self {
        assert!(!devices.is_empty());
        let mut replicas: Vec<(Net, ExecCtx)> = devices
            .iter()
            .map(|d| {
                let ctx = if glp4nn {
                    ExecCtx::glp4nn(d.clone())
                } else {
                    ExecCtx::naive(d.clone())
                };
                (Net::from_spec(spec), ctx)
            })
            .collect();
        let fabric = Fabric::ring(devices.len(), LinkProps::pcie3());
        let comm = {
            let mut devs: Vec<&mut Device> =
                replicas.iter_mut().map(|(_, c)| &mut c.device).collect();
            RingComm::new(&mut devs)
        };
        let shards = devices.len();
        DataParallelTrainer {
            replicas,
            cfg,
            momentum: Vec::new(),
            iter: 0,
            fabric,
            comm,
            overlap: false,
            shards,
            sanitizer: Sanitizer::default(),
        }
    }

    /// Attach a shared telemetry recorder to every replica's device (pid =
    /// replica index). Everything else records on the devices' recorders:
    /// the fabric (P2P copy spans and flow arrows, on the source device's),
    /// the ring communicator (traffic counters) and the trainer itself
    /// (per-iteration collective spans and step metrics), both on replica
    /// 0's. Observation only: timelines and trained weights are unchanged.
    pub fn set_telemetry(&mut self, rec: telemetry::SharedRecorder) {
        for (r, (_, ctx)) in self.replicas.iter_mut().enumerate() {
            ctx.set_telemetry(std::sync::Arc::clone(&rec), r as u32);
        }
    }

    /// Detach the shared telemetry recorder from every replica's device.
    pub fn clear_telemetry(&mut self) {
        for (_, ctx) in &mut self.replicas {
            ctx.clear_telemetry();
        }
    }

    /// Name the processes/threads this trainer records under (call once
    /// before export).
    pub fn annotate_telemetry(&self, t: &mut telemetry::Telemetry) {
        for (_, ctx) in &self.replicas {
            ctx.device.annotate_telemetry(t);
        }
        t.set_process_name(telemetry::COLLECTIVE_PID, "collectives");
    }

    /// Rebuild the interconnect ring with `link` (e.g.
    /// [`LinkProps::nvlink`]). Call before the first step.
    pub fn with_link(mut self, link: LinkProps) -> Self {
        assert_eq!(self.iter, 0, "change links before training starts");
        self.fabric = Fabric::ring(self.replicas.len(), link);
        self
    }

    /// Enable or disable communication/compute overlap (see module docs).
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Let the fabric step replicas' devices on up to `workers` threads
    /// under conservative lookahead. Simulation results are byte-identical
    /// for any worker count (see [`Fabric::run`]); this only changes real
    /// wall-clock time.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.fabric.set_workers(workers);
        self
    }

    /// Set every replica's dispatch mode (e.g.
    /// [`DispatchMode::FixedStreams`] for the multi-stream sweeps).
    pub fn with_dispatch(mut self, mode: DispatchMode) -> Self {
        for (_, ctx) in &mut self.replicas {
            ctx.mode = mode;
        }
        self
    }

    /// Set the fixed shard count for
    /// [`step_sharded`](DataParallelTrainer::step_sharded). Must be a
    /// multiple of the replica count. Defaults to the replica count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0 && shards.is_multiple_of(self.replicas.len()));
        self.shards = shards;
        self
    }

    /// Skip host-side math on every replica: kernels are still dispatched
    /// and timed on the simulated devices, but no CPU arithmetic runs —
    /// including the trainer's own gradient combine and solver update.
    /// Losses and weights become meaningless — use for timing sweeps.
    pub fn timing_only(mut self) -> Self {
        for (_, ctx) in &mut self.replicas {
            ctx.compute = false;
        }
        self
    }

    /// Whether host-side numerics are live (false after
    /// [`timing_only`](DataParallelTrainer::timing_only)). Guards the
    /// trainer's gradient/solver math: in timing-only mode the weights are
    /// meaningless anyway, so copying hundreds of MB of gradients per step
    /// would be pure overhead.
    fn numerics(&self) -> bool {
        self.replicas.iter().any(|(_, ctx)| ctx.compute)
    }

    /// Enable schedule sanitizing: every replica's context validates its
    /// plans statically, and in `Full` mode the trainer replays all
    /// replicas' command logs together over the fabric once per step —
    /// the only happens-before replay, so a race is reported once.
    pub fn sanitize(mut self, mode: SanitizeMode) -> Self {
        let replica_mode = match mode {
            SanitizeMode::Full => SanitizeMode::PlanOnly,
            m => m,
        };
        for (_, ctx) in &mut self.replicas {
            ctx.sanitizer = Sanitizer::new(replica_mode);
        }
        self.sanitizer = Sanitizer::new(mode);
        self
    }

    /// All sanitizer diagnostics accumulated so far (per-replica static
    /// checks first, then the fabric replay's).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, ctx) in &self.replicas {
            out.extend_from_slice(ctx.sanitizer.reports());
        }
        out.extend_from_slice(self.sanitizer.reports());
        out
    }

    /// Current iteration.
    pub fn iteration(&self) -> usize {
        self.iter
    }

    /// Access replica `r`'s network (e.g. to fill its input sub-batch).
    pub fn replica_net(&mut self, r: usize) -> &mut Net {
        &mut self.replicas[r].0
    }

    /// Access replica `r`'s execution context (e.g. to attach a recorder
    /// to its device alone).
    pub fn replica_ctx(&mut self, r: usize) -> &mut ExecCtx {
        &mut self.replicas[r].1
    }

    /// The interconnect fabric (copy spans, link properties).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Per-device utilization statistics, in replica order.
    pub fn device_stats(&self) -> Vec<DeviceStats> {
        self.replicas
            .iter()
            .map(|(_, c)| c.device.stats())
            .collect()
    }

    /// One timeline over all replicas' devices (stream rows offset per
    /// device), communication traffic included.
    pub fn merged_timeline(&self) -> Timeline {
        let views: Vec<&Device> = self.replicas.iter().map(|(_, c)| &c.device).collect();
        self.fabric.merged_timeline(&views)
    }

    /// One synchronous step with one shard per replica. Input sub-batches
    /// must already be loaded into every replica's input blobs. Gradients
    /// are combined in a fixed tree over replica indices (deterministic;
    /// for replica-count-*invariant* bits use
    /// [`step_sharded`](DataParallelTrainer::step_sharded)).
    pub fn step(&mut self) -> StepReport {
        self.step_over(self.replicas.len(), |_, _| {})
    }

    /// One convergence-invariant step over `shards` fixed shards (see
    /// [`with_shards`](DataParallelTrainer::with_shards)). `fill` loads
    /// shard `q`'s samples into the given replica net before its pass;
    /// replica `r` processes the contiguous shard range
    /// `r*S/R .. (r+1)*S/R`, so the shard set — and therefore the fixed
    /// reduction tree and every intermediate rounding — is identical for
    /// every replica count dividing `S`. Trained weights are bitwise
    /// reproducible across replica counts and device models.
    pub fn step_sharded<F>(&mut self, fill: F) -> StepReport
    where
        F: FnMut(&mut Net, usize),
    {
        self.step_over(self.shards, fill)
    }

    /// One step over `s_count` shards, `fill` loading shard `q` before its
    /// pass.
    fn step_over<F>(&mut self, s_count: usize, mut fill: F) -> StepReport
    where
        F: FnMut(&mut Net, usize),
    {
        let r_count = self.replicas.len();
        assert!(
            s_count.is_multiple_of(r_count),
            "{s_count} shards do not divide over {r_count} replicas"
        );
        let per = s_count / r_count;
        let numerics = self.numerics();
        let t0 = self.begin_iteration();

        let mut shard_losses = vec![0.0f32; s_count];
        let mut shard_grads: Vec<Vec<Vec<f32>>> = vec![Vec::new(); s_count];
        // All shards but each replica's last run as whole passes; the last
        // shard's backward is stepped per layer below so bucket
        // all-reduces can overlap it.
        for (r, (net, ctx)) in self.replicas.iter_mut().enumerate() {
            ctx.take_timings();
            for k in 0..per {
                let q = r * per + k;
                fill(net, q);
                if numerics {
                    net.zero_param_diffs();
                }
                shard_losses[q] = net.forward(ctx);
                if k + 1 < per {
                    net.backward(ctx);
                    if numerics {
                        shard_grads[q] =
                            net.params_mut().iter().map(|p| p.diff().to_vec()).collect();
                    }
                } else {
                    net.seed_loss_grads();
                }
            }
        }
        let comm_reports = self.backward_with_allreduce();
        if numerics {
            for (r, (net, _)) in self.replicas.iter_mut().enumerate() {
                let q = r * per + per - 1;
                shard_grads[q] = net.params_mut().iter().map(|p| p.diff().to_vec()).collect();
            }
        }
        let (compute_ns, comm_ns, wall_ns) = self.finish_iteration(&t0, &comm_reports);

        // Host-side numerics: skipped entirely in timing-only mode.
        if !numerics {
            self.iter += 1;
            return StepReport {
                loss: 0.0,
                compute_ns,
                comm_ns,
                wall_ns,
            };
        }

        // Canonical math: fixed tree over the full shard set.
        let inv = 1.0 / s_count as f32;
        let num_params = shard_grads[0].len();
        let reduced: Vec<Vec<f32>> = (0..num_params)
            .map(|pi| {
                let views: Vec<&[f32]> = shard_grads.iter().map(|g| g[pi].as_slice()).collect();
                tree_sum_scaled(&views, inv)
            })
            .collect();
        let loss = {
            let parts: Vec<[f32; 1]> = shard_losses.iter().map(|&l| [l]).collect();
            let views: Vec<&[f32]> = parts.iter().map(|p| p.as_slice()).collect();
            tree_sum_scaled(&views, inv)[0]
        };

        // One momentum update, applied identically to every replica, so
        // replicas stay bitwise in lock-step.
        let lr = self.cfg.base_lr;
        if self.momentum.len() != num_params {
            self.momentum = reduced.iter().map(|g| vec![0.0; g.len()]).collect();
        }
        let data0: Vec<Vec<f32>> = self.replicas[0]
            .0
            .params_mut()
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        let mut delta: Vec<Vec<f32>> = Vec::with_capacity(num_params);
        for pi in 0..num_params {
            let h = &mut self.momentum[pi];
            let mut d = vec![0.0f32; h.len()];
            for i in 0..h.len() {
                let g = reduced[pi][i] + self.cfg.weight_decay * data0[pi][i];
                h[i] = self.cfg.momentum * h[i] + lr * g;
                d[i] = h[i];
            }
            delta.push(d);
        }
        for (net, _) in &mut self.replicas {
            for (p, d) in net.params_mut().iter_mut().zip(&delta) {
                for (v, dv) in p.data_mut().iter_mut().zip(d) {
                    *v -= *dv;
                }
            }
        }

        self.iter += 1;
        StepReport {
            loss,
            compute_ns,
            comm_ns,
            wall_ns,
        }
    }

    /// Start an iteration: snapshot device clocks and arm deferred mode
    /// when overlapping. A single replica has no communication to hide, so
    /// overlap degenerates to the plain eager schedule there (deferred
    /// issue alone would only add event-barrier overhead).
    fn begin_iteration(&mut self) -> Vec<SimTime> {
        let defer = self.overlap && self.replicas.len() > 1;
        self.replicas
            .iter_mut()
            .map(|(_, ctx)| {
                ctx.set_deferred(defer);
                ctx.device.now()
            })
            .collect()
    }

    /// The per-layer backward loop with bucket all-reduces. In overlap
    /// mode buckets are enqueued (event-gated) as soon as their layer's
    /// backward has issued; otherwise the eager backward completes first
    /// and buckets are enqueued afterwards, to be driven by the single
    /// `Fabric::run` in [`finish_iteration`].
    fn backward_with_allreduce(&mut self) -> Vec<(String, CommReport)> {
        let r_count = self.replicas.len();
        let num_layers = self.replicas[0].0.num_layers();
        let names = self.replicas[0].0.layer_names();
        let mut reports = Vec::new();
        let overlapped = self.overlap && self.replicas.iter().any(|(_, c)| c.is_deferred());
        for i in (0..num_layers).rev() {
            for (net, ctx) in &mut self.replicas {
                net.backward_layer(i, ctx);
            }
            if r_count > 1 && overlapped {
                if let Some(bucket) = self.layer_bucket(i, &names) {
                    let rep = all_reduce_bucket(
                        &mut self.replicas,
                        &mut self.fabric,
                        &mut self.comm,
                        &bucket,
                        true,
                    );
                    reports.push((bucket.label, rep));
                }
            }
        }
        if r_count > 1 && !overlapped {
            for i in (0..num_layers).rev() {
                if let Some(bucket) = self.layer_bucket(i, &names) {
                    let rep = all_reduce_bucket(
                        &mut self.replicas,
                        &mut self.fabric,
                        &mut self.comm,
                        &bucket,
                        false,
                    );
                    reports.push((bucket.label, rep));
                }
            }
        }
        reports
    }

    /// Layer `i`'s gradient bucket: its parameter bytes under the layer's
    /// weight-gradient buffer label (so the sanitizer sees the collective
    /// touch the same address ranges the backward kernels declare).
    fn layer_bucket(&mut self, i: usize, names: &[String]) -> Option<Bucket> {
        let bytes: u64 = self.replicas[0]
            .0
            .layer_params_mut(i)
            .iter()
            .map(|p| p.count() as u64 * 4)
            .sum();
        (bytes > 0).then(|| Bucket::new(format!("{}/dw", names[i]), bytes))
    }

    /// Drive everything still queued (deferred compute, collectives) to
    /// completion, close the iteration's trace segment, run sanitizer
    /// checks, and compute the step's timing triple.
    fn finish_iteration(
        &mut self,
        t0: &[SimTime],
        comm_reports: &[(String, CommReport)],
    ) -> (u64, u64, u64) {
        {
            let mut devs: Vec<&mut Device> = self
                .replicas
                .iter_mut()
                .map(|(_, c)| &mut c.device)
                .collect();
            self.fabric.run(&mut devs);
        }
        let mut compute_ns = 0u64;
        let mut wall_ns = 0u64;
        for ((_, ctx), &start) in self.replicas.iter_mut().zip(t0) {
            ctx.set_deferred(false);
            wall_ns = wall_ns.max(ctx.device.now() - start);
            let eager: u64 = ctx.take_timings().iter().map(|t| t.elapsed_ns).sum();
            compute_ns = compute_ns.max(eager);
        }
        if self.overlap {
            compute_ns = wall_ns;
        }
        let rec = self.replicas[0].1.device.telemetry();
        let mut span: Option<(u64, u64)> = None;
        for (tid, (label, rep)) in comm_reports.iter().enumerate() {
            rec.with(|r| {
                rep.emit_span(&self.fabric, r, &format!("allreduce {label}"), tid as u64);
            });
            if let Some((s, e)) = rep.span(&self.fabric) {
                span = Some(match span {
                    None => (s, e),
                    Some((s0, e0)) => (s0.min(s), e0.max(e)),
                });
            }
        }
        let comm_ns = span.map_or(0, |(s, e)| e - s);
        if self.sanitizer.is_full() {
            let views: Vec<&Device> = self.replicas.iter().map(|(_, c)| &c.device).collect();
            self.sanitizer.check_fabric(&self.fabric, &views);
        }
        rec.with(|r| {
            r.counter_add("train.iterations", 1);
            r.observe("train.step_wall_ns", wall_ns);
            r.observe("train.step_compute_ns", compute_ns);
            r.observe("train.step_comm_ns", comm_ns);
        });
        (compute_ns, comm_ns, wall_ns)
    }
}

/// Ring all-reduce one bucket across every replica's device. With `gate`,
/// each device's communication stream first waits on a barrier event
/// covering all of that replica's deferred work, so the collective cannot
/// start before the gradient it ships exists.
fn all_reduce_bucket(
    replicas: &mut [(Net, ExecCtx)],
    fabric: &mut Fabric,
    comm: &mut RingComm,
    bucket: &Bucket,
    gate: bool,
) -> CommReport {
    if gate {
        for (r, (_, ctx)) in replicas.iter_mut().enumerate() {
            if let Some(ev) = ctx.barrier_event() {
                let stream = comm.stream(r);
                ctx.device.wait_event(stream, ev);
            }
        }
    }
    let mut devs: Vec<&mut Device> = replicas.iter_mut().map(|(_, c)| &mut c.device).collect();
    comm.all_reduce(fabric, &mut devs, bucket)
        .expect("ring all-reduce over the trainer's own fabric cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;
    use crate::models;
    use crate::solver::{MomentumKind, Solver};
    use tensor::Blob;

    fn fill(net: &mut Net, ds: &SyntheticDataset, start: usize) {
        let mut data = std::mem::replace(net.blob_mut("data"), Blob::empty());
        let mut label = std::mem::replace(net.blob_mut("label"), Blob::empty());
        ds.fill_batch(start, &mut data, &mut label);
        *net.blob_mut("data") = data;
        *net.blob_mut("label") = label;
    }

    fn cfg() -> SolverConfig {
        SolverConfig {
            base_lr: 0.01,
            momentum: 0.9,
            momentum_kind: MomentumKind::Classical,
            weight_decay: 0.0,
            policy: crate::solver::LrPolicy::Fixed,
        }
    }

    #[test]
    fn two_replicas_match_single_gpu_training() {
        let total_batch = 16;
        let ds = SyntheticDataset::cifar_like(11);

        // Single GPU, full batch.
        let mut single = Solver::new(
            Net::from_spec(&models::cifar10_quick(total_batch, 9)),
            cfg(),
        );
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let mut single_losses = Vec::new();
        for it in 0..3 {
            fill(&mut single.net, &ds, it * total_batch);
            single_losses.push(single.step(&mut ctx));
        }

        // Two replicas, half batch each, same sample order.
        let spec = models::cifar10_quick(total_batch / 2, 9);
        let mut dp = DataParallelTrainer::new(
            &spec,
            &[DeviceProps::p100(), DeviceProps::p100()],
            false,
            cfg(),
        );
        let mut dp_losses = Vec::new();
        for it in 0..3 {
            fill(dp.replica_net(0), &ds, it * total_batch);
            fill(dp.replica_net(1), &ds, it * total_batch + total_batch / 2);
            dp_losses.push(dp.step().loss);
        }

        for (s, d) in single_losses.iter().zip(&dp_losses) {
            assert!(
                (s - d).abs() < 2e-3,
                "data-parallel loss must track single-GPU: {s} vs {d}"
            );
        }
    }

    #[test]
    fn replicas_stay_in_sync() {
        let spec = models::cifar10_quick(8, 3);
        let ds = SyntheticDataset::cifar_like(3);
        let mut dp = DataParallelTrainer::new(
            &spec,
            &[DeviceProps::k40c(), DeviceProps::p100()],
            false,
            cfg(),
        );
        for it in 0..2 {
            fill(dp.replica_net(0), &ds, it * 16);
            fill(dp.replica_net(1), &ds, it * 16 + 8);
            dp.step();
        }
        let w0: Vec<f32> = dp.replicas[0].0.params_mut()[0].data().to_vec();
        let w1: Vec<f32> = dp.replicas[1].0.params_mut()[0].data().to_vec();
        assert_eq!(w0, w1, "broadcast must keep replicas identical");
        assert_eq!(dp.iteration(), 2);
    }

    #[test]
    fn comm_cost_scales_with_replicas() {
        let spec = models::cifar10_quick(8, 3);
        let ds = SyntheticDataset::cifar_like(3);
        let one = {
            let mut dp = DataParallelTrainer::new(&spec, &[DeviceProps::p100()], false, cfg());
            fill(dp.replica_net(0), &ds, 0);
            dp.step()
        };
        assert_eq!(one.comm_ns, 0, "single replica needs no all-reduce");
        let two = {
            let mut dp = DataParallelTrainer::new(
                &spec,
                &[DeviceProps::p100(), DeviceProps::p100()],
                false,
                cfg(),
            );
            fill(dp.replica_net(0), &ds, 0);
            fill(dp.replica_net(1), &ds, 8);
            dp.step()
        };
        assert!(two.comm_ns > 0);
        assert!(two.total_ns() > two.compute_ns);
        assert!(two.wall_ns >= two.compute_ns);
    }

    #[test]
    fn glp4nn_replicas_accelerate_after_profiling() {
        let spec = models::cifar10_quick(8, 3);
        let ds = SyntheticDataset::cifar_like(3);
        let devices = [DeviceProps::p100(), DeviceProps::p100()];
        let two_steps = |mut dp: DataParallelTrainer| {
            fill(dp.replica_net(0), &ds, 0);
            fill(dp.replica_net(1), &ds, 8);
            let first = dp.step(); // profiling iteration on both replicas
            fill(dp.replica_net(0), &ds, 16);
            fill(dp.replica_net(1), &ds, 24);
            let second = dp.step(); // steady state
            (first.compute_ns, second.compute_ns)
        };
        let (first, second) = two_steps(DataParallelTrainer::new(&spec, &devices, true, cfg()));
        assert!(
            second < first,
            "GLP4NN steady state must be faster: {second} vs {first}"
        );
        // Switching a framework-less trainer to Glp4nn dispatch attaches
        // the same per-replica framework on first use.
        let late = DataParallelTrainer::new(&spec, &devices, false, cfg())
            .with_dispatch(DispatchMode::Glp4nn);
        assert_eq!(two_steps(late), (first, second));
    }

    /// Run K iterations in each mode and compare simulated wall time.
    fn wall_after(overlap: bool, iters: usize) -> (u64, Vec<Diagnostic>) {
        let spec = models::cifar10_quick(8, 3);
        let ds = SyntheticDataset::cifar_like(3);
        let mut dp = DataParallelTrainer::new(
            &spec,
            &[DeviceProps::p100(), DeviceProps::p100()],
            false,
            cfg(),
        )
        .with_dispatch(DispatchMode::FixedStreams(4))
        .with_overlap(overlap)
        .sanitize(SanitizeMode::Full);
        let mut wall = 0;
        for it in 0..iters {
            fill(dp.replica_net(0), &ds, it * 16);
            fill(dp.replica_net(1), &ds, it * 16 + 8);
            wall = dp.step().wall_ns; // steady-state (last) iteration
        }
        (wall, dp.diagnostics())
    }

    #[test]
    fn overlap_hides_communication_and_stays_race_free() {
        let (eager, eager_diag) = wall_after(false, 3);
        let (overlapped, overlap_diag) = wall_after(true, 3);
        assert_eq!(eager_diag, vec![], "no-overlap schedule must be clean");
        assert_eq!(overlap_diag, vec![], "overlap schedule must be clean");
        assert!(
            overlapped <= eager,
            "overlap must not be slower: {overlapped} vs {eager}"
        );
    }

    #[test]
    fn injected_race_is_reported_once_by_the_fabric_replay() {
        use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc, LaunchConfig};
        use sanitizer::DiagnosticKind;

        let spec = models::cifar10_quick(4, 3);
        let mut dp = DataParallelTrainer::new(
            &spec,
            &[DeviceProps::p100(), DeviceProps::p100()],
            false,
            cfg(),
        )
        .timing_only()
        .sanitize(SanitizeMode::Full);
        // Two launches writing one range from two streams of replica 1,
        // with no event between them.
        let buf = BufferId::from_label("injected/race");
        let dev = &mut dp.replicas[1].1.device;
        for name in ["w0", "w1"] {
            let s = dev.create_stream();
            let k = KernelDesc::new(
                name,
                LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
                KernelCost::new(1.0e5, 1.0e4),
            )
            .writes(buf, ByteRange::new(0, 64));
            dev.launch(s, k);
        }
        dp.step();
        let diags = dp.diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::DataRace);
        assert_eq!(diags[0].context, "fabric-trace");
        assert!(diags[0].detail.ends_with("on device 1"), "{diags:?}");
    }

    #[test]
    fn sharded_step_is_bitwise_invariant_to_replica_count() {
        let shard_batch = 4;
        let shards = 4;
        let ds = SyntheticDataset::cifar_like(5);
        let spec = models::cifar10_quick(shard_batch, 21);
        let train = |devices: &[DeviceProps], overlap: bool| {
            let mut dp = DataParallelTrainer::new(&spec, devices, false, cfg())
                .with_shards(shards)
                .with_overlap(overlap);
            for _ in 0..3 {
                dp.step_sharded(|net, q| fill(net, &ds, q * shard_batch));
            }
            dp.replicas[0].0.state_dict()
        };
        let one = train(&[DeviceProps::p100()], false);
        let two = train(&[DeviceProps::k40c(), DeviceProps::titan_xp()], true);
        let four = train(&vec![DeviceProps::p100(); 4], false);
        assert_eq!(one, two, "1 vs 2 replicas must be bitwise identical");
        assert_eq!(one, four, "1 vs 4 replicas must be bitwise identical");
    }
}
