//! Execution context: simulated device + dispatch policy + timing capture.

use glp4nn::plan::CaptureSource;
use glp4nn::{ExecMode, ExecPlan, ExecReport, Glp4nn, LayerKey, Phase, PlanCache, Schedule};
use gpu_sim::{Device, DeviceProps, EventId, KernelDesc, SimTime, StreamId};
use sanitizer::{LintConfig, SampleSlots, SanitizeMode, Sanitizer};
use std::fmt::Write as _;
use std::sync::Arc;

/// How a layer's kernel groups are dispatched to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Original Caffe behaviour: every kernel serialized on the default
    /// stream.
    Naive,
    /// Round-robin over a fixed number of streams (used for the manual
    /// sweeps of the paper's Figs. 2-4; bypasses the analytical model).
    FixedStreams(u32),
    /// The full GLP4NN runtime-scheduler workflow (profile once, then
    /// model-sized stream pool).
    Glp4nn,
}

/// One dispatch recorded during a staging pass (see
/// [`ExecCtx::begin_staging`]): everything an inter-operator scheduler
/// needs to rebuild the launch — the kernel groups, the per-sample slot
/// declaration (when the layer has one), and the site identity.
pub struct StagedDispatch {
    /// Layer name (matches the layer's position in the net spec).
    pub layer: String,
    /// Forward or backward.
    pub phase: Phase,
    /// Chunk count the layer would have used as its cache key.
    pub chunks: usize,
    /// Independent kernel groups (each group is a FIFO chain).
    pub groups: Vec<Vec<KernelDesc>>,
    /// Per-sample slot declaration, when the layer has one (exactly the
    /// [`dispatch_split`](ExecCtx::dispatch_split) sites).
    pub spec: Option<SampleSlots>,
}

/// Per-layer timing record captured during a pass; `layer` shares the
/// dispatching layer's `Arc` name, so recording one allocates no `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTiming {
    /// Layer name.
    pub layer: Arc<str>,
    /// Forward or backward.
    pub phase: Phase,
    /// Simulated elapsed ns for the layer (inter-layer sync included).
    pub elapsed_ns: SimTime,
    /// Execution mode used.
    pub mode: ExecMode,
}

/// The context threaded through every layer's forward/backward.
pub struct ExecCtx {
    /// The simulated GPU.
    pub device: Device,
    /// Index of this GPU within the GLP4NN framework.
    pub gpu: usize,
    /// Dispatch policy for convolution layers.
    pub mode: DispatchMode,
    /// GLP4NN runtime. A default single-GPU framework is attached on the
    /// first `Glp4nn`-mode dispatch if none is present.
    pub glp: Option<Glp4nn>,
    /// Whether layers run their real CPU math (`false` = timing-only, used
    /// for the large CaffeNet/GoogLeNet sweeps; see DESIGN.md).
    pub compute: bool,
    /// Extend batch-level parallelism beyond convolutions to every layer
    /// that processes samples independently (currently pooling) — the
    /// paper's §3.3.1 note that the approach "can be easily extended to
    /// other network layers adopting the batch training method". Off by
    /// default (paper-faithful: conv only).
    pub batch_parallel_all: bool,
    /// Name of the network currently executing (set by [`crate::Net`]).
    pub net_name: String,
    /// Batch size of the pass currently executing (set by [`crate::Net`];
    /// part of the execution-plan cache key, since per-layer kernel
    /// geometry depends on it).
    pub batch: usize,
    /// Captured per-layer timings, one per executed dispatch, until the owner
    /// takes ([`take_timings`]) or clears them (the serving engine, per wave).
    ///
    /// [`take_timings`]: ExecCtx::take_timings
    pub timings: Vec<LayerTiming>,
    /// Schedule sanitizer (off by default; see [`sanitize`]).
    ///
    /// [`sanitize`]: ExecCtx::sanitize
    pub sanitizer: Sanitizer,
    fixed_pool: Vec<StreamId>,
    /// Every frozen execution plan this context captured, in one cache:
    /// self-dispatched sites keyed `net/layer/phase/batch/chunks/pool`,
    /// Glp4nn sites `net/layer/phase/chunks#optim` (the runtime scheduler
    /// writes them here), and the inter-operator scheduler's whole-net
    /// plans `net/interop/phase/batch` (the Nimble-style AOT cache).
    pub plans: PlanCache,
    key: String,
    /// Staging mode: dispatches are recorded instead of executed (layers
    /// still run their CPU math). Used by the inter-operator scheduler to
    /// harvest every kernel group of a whole pass before building one
    /// net-level plan.
    staged: Option<Vec<StagedDispatch>>,
    /// Suppress mode: dispatches become no-ops (CPU math still runs).
    /// Used during warm whole-net replays, where the device work is a
    /// single cached net-level plan instead of per-layer launches.
    suppress: bool,
    /// Deferred-issue mode: dispatches enqueue their plans (with
    /// inter-layer barrier events standing in for the per-layer
    /// `device.run()`) but never drive the simulation — the caller runs
    /// the device (or its fabric) once for the whole pass. Only the
    /// self-dispatched modes defer; `Glp4nn` dispatches stay eager.
    deferred: bool,
    /// Streams carrying issued-but-unjoined work in deferred mode.
    pending: Vec<StreamId>,
}

impl ExecCtx {
    /// Context in naive mode with real computation enabled.
    pub fn naive(props: DeviceProps) -> Self {
        Self::with_mode(props, DispatchMode::Naive)
    }

    /// Context with the GLP4NN framework attached (single GPU).
    pub fn glp4nn(props: DeviceProps) -> Self {
        Self::glp4nn_with(props, glp4nn::OptimConfig::default())
    }

    /// GLP4NN context with explicit §6 fusion/reordering configuration.
    pub fn glp4nn_with(props: DeviceProps, optim: glp4nn::OptimConfig) -> Self {
        let mut ctx = Self::with_mode(props.clone(), DispatchMode::Glp4nn);
        let mut glp = Glp4nn::with_optim(1, optim);
        glp.register_device(0, &props);
        ctx.glp = Some(glp);
        ctx
    }

    /// Context with an explicit dispatch mode. In `Glp4nn` mode the same
    /// framework as [`glp4nn`](ExecCtx::glp4nn)'s attaches on the first
    /// dispatch, taking the recorder set by then.
    pub fn with_mode(props: DeviceProps, mode: DispatchMode) -> Self {
        ExecCtx {
            device: Device::new(props),
            gpu: 0,
            mode,
            glp: None,
            compute: true,
            batch_parallel_all: false,
            net_name: String::new(),
            batch: 0,
            timings: Vec::new(),
            sanitizer: Sanitizer::default(),
            fixed_pool: Vec::new(),
            plans: PlanCache::default(),
            key: String::new(),
            staged: None,
            suppress: false,
            deferred: false,
            pending: Vec::new(),
        }
    }

    /// Disable execution-plan reuse ([`PlanCache::disable_reuse`]): every
    /// dispatch, in every mode, re-captures (and re-validates) its schedule.
    /// Kept as the baseline for replay-equivalence checks.
    pub fn without_plan_reuse(mut self) -> Self {
        self.plans.disable_reuse();
        self
    }

    /// How many execution plans this context has captured, in any mode. A
    /// steady-state workload stops incrementing this: every later
    /// iteration is a pure plan replay.
    pub fn plan_captures(&self) -> u64 {
        self.plans.captures()
    }

    /// Disable real CPU math (timing-only experiments).
    pub fn timing_only(mut self) -> Self {
        self.compute = false;
        self
    }

    /// Attach a shared telemetry recorder: the device records kernel spans
    /// and event-dependency flows under process `pid`, and in Glp4nn mode
    /// the framework's profiler mirrors its ingest activity. Observation
    /// only — attaching changes neither the simulated timeline nor any
    /// numerics.
    pub fn set_telemetry(&mut self, rec: telemetry::SharedRecorder, pid: u32) {
        self.device.set_telemetry(Arc::clone(&rec), pid);
        if let Some(glp) = self.glp.as_ref() {
            glp.tracker().set_telemetry(self.gpu, rec, pid);
        }
    }

    /// Detach the shared telemetry recorder.
    pub fn clear_telemetry(&mut self) {
        self.device.clear_telemetry();
        if let Some(glp) = self.glp.as_ref() {
            glp.tracker().clear_telemetry(self.gpu);
        }
    }

    /// Enable schedule sanitizing: `PlanOnly` statically validates every
    /// dispatch plan (chunk-region disjointness, hazards, wait cycles)
    /// before launch; `Full` additionally replays the executed command
    /// trace with the happens-before checker. Diagnostics accumulate in
    /// [`sanitizer`](ExecCtx::sanitizer).
    pub fn sanitize(mut self, mode: SanitizeMode) -> Self {
        self.sanitizer = Sanitizer::new(mode);
        self
    }

    /// Enable batch-level parallelism for every independent-sample layer
    /// (the paper's extension note), not just convolutions.
    pub fn batch_parallel_all(mut self) -> Self {
        self.batch_parallel_all = true;
        self
    }

    /// Attach the plan linter: every captured plan is additionally
    /// analyzed for performance defects (redundant synchronization, false
    /// serialization, unused events) and peak-memory bounds, with
    /// findings accumulating in the sanitizer's
    /// [`Linter`](sanitizer::Linter). Upgrades the sanitize mode to
    /// `PlanOnly` if checking was off (linting rides on capture-time
    /// validation).
    pub fn lint(mut self) -> Self {
        if !self.sanitizer.is_enabled() {
            self.sanitizer = Sanitizer::new(SanitizeMode::PlanOnly);
        }
        let cfg = LintConfig::from_props(self.device.props());
        self.sanitizer.attach_linter(cfg);
        self
    }

    /// Begin a staging pass: until [`take_staged`](ExecCtx::take_staged),
    /// every dispatch is recorded (with its kernel groups and sample
    /// slots) instead of being launched, and no timings accumulate. Layer
    /// CPU math is unaffected — GLP4NN's convergence invariant means the
    /// numerics never depend on how (or whether) kernels are dispatched.
    pub fn begin_staging(&mut self) {
        self.staged = Some(Vec::new());
    }

    /// End a staging pass and return the recorded dispatches in issue
    /// order.
    pub fn take_staged(&mut self) -> Vec<StagedDispatch> {
        self.staged.take().unwrap_or_default()
    }

    /// Switch dispatch suppression on or off: while on, dispatches are
    /// no-ops (CPU math still runs). The warm half of whole-net replay —
    /// the caller replays one cached net-level plan for the device work.
    pub fn set_suppress(&mut self, on: bool) {
        self.suppress = on;
    }

    /// Grow the context's stream pool to at least `n` streams and return
    /// the first `n` (shared with `FixedStreams` mode's pool; streams are
    /// a device-lifetime resource, so reuse beats re-creation).
    pub fn ensure_streams(&mut self, n: usize) -> Vec<StreamId> {
        while self.fixed_pool.len() < n {
            let s = self.device.create_stream();
            self.fixed_pool.push(s);
        }
        self.fixed_pool[..n].to_vec()
    }

    /// The staging/suppression interposer: records the dispatch (staging)
    /// or swallows it (suppression), returning a zero-time report either
    /// way.
    fn stage_or_skip(
        &mut self,
        layer: &str,
        phase: Phase,
        chunks: usize,
        make_spec: impl FnOnce() -> Option<SampleSlots>,
        make_groups: impl FnOnce() -> Vec<Vec<KernelDesc>>,
    ) -> ExecReport {
        let mut kernels = 0;
        if let Some(staged) = self.staged.as_mut() {
            let groups = make_groups();
            let spec = make_spec();
            kernels = groups.iter().map(Vec::len).sum();
            staged.push(StagedDispatch {
                layer: layer.to_string(),
                phase,
                chunks,
                groups,
                spec,
            });
        }
        ExecReport {
            mode: ExecMode::Profiling,
            elapsed_ns: 0,
            kernels,
        }
    }

    /// *Batch-split* dispatch: the layer's batch as `chunks` mutually
    /// independent kernel groups, spread over the pool the context's
    /// [`DispatchMode`] chooses. Blocks until the device drains (the
    /// inter-layer synchronization of the paper's §2.1) and records a
    /// timing entry.
    ///
    /// Both closures are lazy: when the site's frozen [`ExecPlan`] is
    /// cached the plan replays and neither runs, so steady-state
    /// iterations build no kernel descriptors. `make_groups` must build
    /// exactly `chunks` groups (the count is part of the cache key).
    /// `make_spec` is the layer's declaration of its per-sample slots,
    /// called at capture with the sanitizer enabled only: with one, chunk
    /// checking is one pass checking each access against its chunk's slot
    /// ([`SampleSlots::admits`]) instead of a hazard sweep over the chunks'
    /// access unions (O(a log a) in their declared accesses), and certified
    /// plans skip the plan-level sweep too.
    pub fn dispatch_split(
        &mut self,
        layer: &Arc<str>,
        phase: Phase,
        chunks: usize,
        make_spec: impl Fn() -> Option<SampleSlots>,
        make_groups: impl Fn() -> Vec<Vec<KernelDesc>>,
    ) -> ExecReport {
        self.dispatch(self.mode, layer, phase, chunks, make_spec, make_groups)
    }

    /// *Whole-batch* dispatch: a sequence of kernels covering the whole
    /// batch, serialized on the default stream — the path of the layers the
    /// paper leaves in original Caffe form. `make_kernels` is lazy like
    /// [`dispatch_split`](ExecCtx::dispatch_split)'s closures: a warm
    /// iteration replays the cached plan and builds no descriptor.
    pub fn dispatch_batch(
        &mut self,
        layer: &Arc<str>,
        phase: Phase,
        make_kernels: impl Fn() -> Vec<KernelDesc>,
    ) -> ExecReport {
        let make_groups = || vec![make_kernels()];
        self.dispatch(DispatchMode::Naive, layer, phase, 1, || None, make_groups)
    }

    fn dispatch(
        &mut self,
        mode: DispatchMode,
        layer: &Arc<str>,
        phase: Phase,
        chunks: usize,
        make_spec: impl Fn() -> Option<SampleSlots>,
        make_groups: impl Fn() -> Vec<Vec<KernelDesc>>,
    ) -> ExecReport {
        if self.staged.is_some() || self.suppress {
            return self.stage_or_skip(layer, phase, chunks, make_spec, make_groups);
        }
        let serial = [self.device.default_stream()];
        let report = match mode {
            DispatchMode::Naive => {
                self.replay_or_capture(layer, phase, chunks, &serial, make_spec, make_groups)
            }
            DispatchMode::FixedStreams(n) => {
                let pool = self.ensure_streams(n as usize);
                self.replay_or_capture(layer, phase, chunks, &pool, make_spec, make_groups)
            }
            DispatchMode::Glp4nn => {
                debug_assert!(
                    !self.deferred,
                    "Glp4nn dispatch runs eagerly; deferred mode is ignored"
                );
                // Plans are keyed per layer x phase x group count: a
                // serving batcher that varies the batch size profiles each
                // shape once, then every later batch of that shape reuses
                // its cached plan. Validation happens inside the runtime
                // scheduler, against the schedule it actually captures
                // (post fusion/reordering).
                let key = LayerKey {
                    net: &self.net_name,
                    layer,
                    phase,
                    chunks,
                };
                let san = self.sanitizer.is_enabled().then_some(&mut self.sanitizer);
                let source = Schedule {
                    make_groups: &make_groups,
                    make_spec: &make_spec,
                };
                let device = &self.device;
                let glp = self.glp.get_or_insert_with(|| {
                    // `mode` was set without going through
                    // [`glp4nn`](ExecCtx::glp4nn): same framework, late.
                    let mut glp = Glp4nn::new(1);
                    glp.register_device(0, device.props());
                    if let Some(rec) = device.telemetry() {
                        glp.tracker()
                            .set_telemetry(0, Arc::clone(rec), device.telemetry_pid());
                    }
                    glp
                });
                let (dev, plans) = (&mut self.device, &mut self.plans);
                match glp.execute(dev, plans, self.gpu, &key, source, san) {
                    Ok(report) => report,
                    // An attached framework that does not manage this GPU
                    // leaves the layer in original Caffe form.
                    Err(_) => self.replay_or_capture(
                        layer,
                        phase,
                        chunks,
                        &serial,
                        make_spec,
                        make_groups,
                    ),
                }
            }
        };
        if self.sanitizer.is_full() && !self.deferred {
            self.sanitizer.check_device(&self.device);
        }
        self.timings.push(LayerTiming {
            layer: Arc::clone(layer),
            phase,
            elapsed_ns: report.elapsed_ns,
            mode: report.mode,
        });
        report
    }

    /// Write the cache key for one dispatch site into the reused `key`.
    /// Batch size and chunk count pin the kernel geometry (the frozen-shape
    /// contract, as with CUDA Graphs): for a fixed network, every per-layer
    /// kernel descriptor is a pure function of `(batch, chunks)`, so two
    /// calls agreeing on this key dispatch identical kernels.
    fn plan_key(&mut self, layer: &str, phase: Phase, chunks: usize, pool_len: usize) {
        self.key.clear();
        let _ = write!(
            self.key,
            "{}/{}/{}/b{}/c{}/p{}",
            self.net_name,
            layer,
            phase.as_str(),
            self.batch,
            chunks,
            pool_len
        );
    }

    /// The capture-once / replay-many core of the self-dispatched modes
    /// ([`PlanCache::lookup`]): on a hit the frozen plan replays (tight
    /// issue loop, no validation, no per-kernel allocation); on a miss the
    /// groups are built, captured round-robin over `pool`, statically
    /// validated once, cached, and replayed.
    fn replay_or_capture(
        &mut self,
        layer: &str,
        phase: Phase,
        chunks: usize,
        pool: &[StreamId],
        make_spec: impl FnOnce() -> Option<SampleSlots>,
        make_groups: impl FnOnce() -> Vec<Vec<KernelDesc>>,
    ) -> ExecReport {
        self.plan_key(layer, phase, chunks, pool.len());
        let key = &self.key;
        let plan = match self.plans.lookup(&self.device, key, key) {
            Ok(plan) => plan,
            Err(miss) => {
                let groups = make_groups();
                let mode = if pool.len() <= 1 {
                    ExecMode::Profiling // serial on default stream
                } else {
                    ExecMode::Concurrent {
                        streams: pool.len() as u32,
                    }
                };
                let plan = ExecPlan::capture_round_robin(key, &groups, pool, mode);
                let san = self.sanitizer.is_enabled().then_some(&mut self.sanitizer);
                // Shape-independent: one disjointness proof covers every
                // batch size and chunk count the site is captured at.
                let site = format!("{}/{}/{}", self.net_name, layer, phase.as_str());
                let spec = san.as_ref().and_then(|_| make_spec());
                let source = CaptureSource {
                    context: if spec.is_some() { key } else { layer },
                    site: &site,
                    spec: spec.as_ref(),
                    groups: &groups,
                };
                miss.capture(&self.device, san, source, plan)
            }
        };
        self.replay_or_issue(&plan)
    }

    /// Eager mode: replay the plan (issue + run to completion). Deferred
    /// mode: interpose the inter-layer barrier (events standing in for the
    /// eager mode's device drain) and issue without running; the report
    /// then carries no elapsed time — the caller measures the whole pass.
    fn replay_or_issue(&mut self, plan: &ExecPlan) -> ExecReport {
        if !self.deferred {
            return plan.replay(&mut self.device);
        }
        self.barrier_before(plan.streams());
        plan.issue(&mut self.device);
        ExecReport {
            mode: plan.mode(),
            elapsed_ns: 0,
            kernels: plan.num_kernels(),
        }
    }

    /// Switch deferred-issue mode on or off (see the field docs). Ignored
    /// in `Glp4nn` mode, which must run eagerly (its profiling iteration
    /// measures real elapsed time). Turning deferred off clears the
    /// pending-work bookkeeping — only do so after draining the device.
    pub fn set_deferred(&mut self, on: bool) {
        self.deferred = on && self.mode != DispatchMode::Glp4nn;
        if !self.deferred {
            self.pending.clear();
        }
    }

    /// Whether deferred-issue mode is active.
    pub fn is_deferred(&self) -> bool {
        self.deferred
    }

    /// Join all pending deferred work onto one stream (events from every
    /// other pending stream, waited on the first) and return that stream.
    fn join_pending(&mut self) -> Option<StreamId> {
        let s0 = *self.pending.first()?;
        for &s in &self.pending[1..] {
            let e = self.device.create_event();
            self.device.record_event(s, e);
            self.device.wait_event(s0, e);
        }
        self.pending.truncate(1);
        Some(s0)
    }

    /// A barrier over all deferred work issued so far: an event that fires
    /// once every pending stream drains. `None` when nothing is pending
    /// (eager mode, or nothing issued yet). Used by the data-parallel
    /// trainer to gate a gradient bucket's all-reduce on the layer's
    /// backward.
    pub fn barrier_event(&mut self) -> Option<EventId> {
        let s0 = self.join_pending()?;
        let e = self.device.create_event();
        self.device.record_event(s0, e);
        Some(e)
    }

    /// Make every stream of `pool` wait for all pending deferred work —
    /// the deferred stand-in for the inter-layer synchronization — then
    /// mark `pool` as the new pending set.
    fn barrier_before(&mut self, pool: &[StreamId]) {
        if let Some(s0) = self.join_pending() {
            // Work already joined onto s0; anything issued to s0 follows
            // in FIFO order, so only the other pool streams need gating.
            if pool.iter().any(|&s| s != s0) {
                let b = self.device.create_event();
                self.device.record_event(s0, b);
                for &s in pool {
                    if s != s0 {
                        self.device.wait_event(s, b);
                    }
                }
            }
        }
        self.pending.clear();
        self.pending.extend_from_slice(pool);
    }

    /// Take and clear accumulated layer timings.
    pub fn take_timings(&mut self) -> Vec<LayerTiming> {
        std::mem::take(&mut self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Dim3, KernelCost, LaunchConfig};

    fn groups(n: u64) -> Vec<Vec<KernelDesc>> {
        (0..n)
            .map(|i| {
                vec![KernelDesc::new(
                    "sgemm",
                    LaunchConfig::new(Dim3::linear(16), Dim3::linear(128), 32, 2048),
                    KernelCost::new(2.0e6, 1.0e5),
                )
                .with_tag(i)]
            })
            .collect()
    }

    fn split(ctx: &mut ExecCtx, layer: &str, phase: Phase, n: u64) -> ExecReport {
        ctx.dispatch_split(&layer.into(), phase, n as usize, || None, || groups(n))
    }

    #[test]
    fn naive_serializes_on_default_stream() {
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let r = split(&mut ctx, "conv1", Phase::Forward, 4);
        assert_eq!(r.kernels, 4);
        // All trace entries on stream 0.
        assert!(ctx.device.trace().iter().all(|t| t.stream.is_default()));
    }

    #[test]
    fn fixed_streams_spread_groups() {
        let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), DispatchMode::FixedStreams(4));
        split(&mut ctx, "conv1", Phase::Forward, 8);
        let used: std::collections::HashSet<u32> =
            ctx.device.trace().iter().map(|t| t.stream.raw()).collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn whole_batch_dispatch_ignores_the_mode() {
        let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), DispatchMode::FixedStreams(4));
        let r = ctx.dispatch_batch(&"relu1".into(), Phase::Forward, || groups(3).concat());
        assert_eq!((r.kernels, r.mode), (3, ExecMode::Profiling));
        assert!(ctx.device.trace().iter().all(|t| t.stream.is_default()));
    }

    #[test]
    fn fixed_streams_faster_than_naive() {
        let t_for = |mode| {
            let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), mode);
            split(&mut ctx, "conv1", Phase::Forward, 16).elapsed_ns
        };
        let naive = t_for(DispatchMode::Naive);
        let conc = t_for(DispatchMode::FixedStreams(8));
        assert!(conc < naive, "concurrent {conc} vs naive {naive}");
    }

    fn timeline(ctx: &ExecCtx) -> Vec<(u32, SimTime, SimTime)> {
        let trace = ctx.device.trace().iter();
        trace
            .map(|t| (t.stream.raw(), t.start_ns, t.end_ns))
            .collect()
    }

    #[test]
    fn glp4nn_mode_profiles_then_accelerates() {
        let mut ctx = ExecCtx::glp4nn(DeviceProps::k40c());
        ctx.net_name = "testnet".to_string();
        let r1 = split(&mut ctx, "conv1", Phase::Forward, 12);
        assert_eq!(r1.mode, ExecMode::Profiling);
        let r2 = split(&mut ctx, "conv1", Phase::Forward, 12);
        assert!(matches!(r2.mode, ExecMode::Concurrent { .. }));
        assert!(r2.elapsed_ns < r1.elapsed_ns);

        // Setting the mode without attaching a framework gets the same
        // framework on first dispatch: same steps, same timeline.
        let mut late = ExecCtx::with_mode(DeviceProps::k40c(), DispatchMode::Glp4nn);
        late.net_name = "testnet".to_string();
        assert_eq!(split(&mut late, "conv1", Phase::Forward, 12), r1);
        assert_eq!(split(&mut late, "conv1", Phase::Forward, 12), r2);
        assert_eq!(timeline(&late), timeline(&ctx));
        assert_eq!(late.plan_captures(), ctx.plan_captures());

        // Plan reuse switched off before the framework attached holds for
        // it too (the switch is on the context's one cache), and the late
        // framework inherits a recorder attached before the first dispatch
        // (its profiler's ingest spans land under the device's pid).
        let run = |mut ctx: ExecCtx, reuse: bool, traced: bool| {
            if !reuse {
                ctx = ctx.without_plan_reuse();
            }
            let rec = telemetry::shared(telemetry::Telemetry::new());
            if traced {
                ctx.set_telemetry(rec.clone(), 3);
            }
            ctx.net_name = "testnet".to_string();
            let reports = [0; 3].map(|_| split(&mut ctx, "conv1", Phase::Forward, 12));
            let rec = rec.lock().expect("recorder");
            let recorded = (rec.spans().to_vec(), rec.metrics_snapshot());
            (reports, timeline(&ctx), ctx.plan_captures(), recorded)
        };
        for (reuse, traced) in [(false, false), (true, true)] {
            let eager = run(ExecCtx::glp4nn(DeviceProps::k40c()), reuse, traced);
            let late = ExecCtx::with_mode(DeviceProps::k40c(), DispatchMode::Glp4nn);
            assert_eq!(run(late, reuse, traced), eager);
            let (_, _, captures, (spans, _)) = eager;
            assert_eq!(spans.is_empty(), !traced);
            assert_eq!(captures, if reuse { 1 } else { 2 });
        }
    }

    #[test]
    fn framework_that_does_not_manage_the_gpu_falls_back_to_serial() {
        let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), DispatchMode::Glp4nn);
        ctx.glp = Some(Glp4nn::new(1)); // nothing registered
        let r = split(&mut ctx, "conv1", Phase::Forward, 4);
        assert_eq!((r.kernels, r.mode), (4, ExecMode::Profiling));
        assert!(ctx.device.trace().iter().all(|t| t.stream.is_default()));
        assert_eq!(timeline(&ctx), {
            let mut naive = ExecCtx::naive(DeviceProps::p100());
            split(&mut naive, "conv1", Phase::Forward, 4);
            timeline(&naive)
        });
    }

    #[test]
    fn timings_are_recorded_and_takeable() {
        let mut ctx = ExecCtx::naive(DeviceProps::titan_xp());
        split(&mut ctx, "conv1", Phase::Forward, 2);
        split(&mut ctx, "conv1", Phase::Backward, 2);
        assert_eq!(ctx.timings.len(), 2);
        assert!(ctx.timings.iter().map(|t| t.elapsed_ns).sum::<SimTime>() > 0);
        let t = ctx.take_timings();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].phase, Phase::Forward);
        assert_eq!(t[1].phase, Phase::Backward);
        assert!(ctx.timings.is_empty());
    }
}
