#![warn(missing_docs)]

//! Inter-operator scheduling on top of the GLP4NN runtime.
//!
//! GLP4NN parallelizes *within* one layer: the batch is split into
//! per-sample kernel chains spread over a model-sized stream pool, and the
//! network still executes layer by layer with an inter-layer
//! synchronization after each (paper §2.1). Branchy networks — the Siamese
//! twin towers, GoogLeNet's inception branches — leave a second axis on
//! the table: independent *operators* whose kernels could share the device
//! at the same time.
//!
//! This crate adds that axis in three pieces:
//!
//! - [`dag::LayerDag`] — the net-level dependency DAG derived from blob
//!   producer/consumer relations, with a deterministic topological order
//!   and the *wave* (antichain level-set) decomposition identifying
//!   co-schedulable layer sets.
//! - [`wave::co_schedule`] — the joint MILP extending the paper's
//!   analytical model to kernels from different operators in one wave
//!   (Opara-style per-operator stream sub-pools), with an explicit
//!   fall-back verdict: when joint occupancy does not beat the best
//!   per-layer schedule, the wave serializes and each layer keeps its
//!   GLP4NN per-layer plan.
//! - [`InterOpExec`] — whole-net execution-plan capture à la Nimble: one
//!   staging pass records every dispatch of a forward (or backward) pass,
//!   the scheduler assembles one frozen [`ExecPlan`] for the entire pass
//!   (validated by the sanitizer at capture), caches it per
//!   `(net, phase, batch)`, and every later iteration replays the plan in
//!   a tight loop while the layers run only their CPU math.
//!
//! Convergence invariance is inherited, not re-proven: layer numerics
//! never depend on how kernels are dispatched, and wave execution is a
//! legal topological schedule of the layer DAG, so trained weights stay
//! bitwise-identical to the sequential baseline (property-tested in this
//! crate's test-suite across all evaluation networks).

pub mod dag;
pub mod wave;

pub use dag::LayerDag;
pub use wave::{co_schedule, WaveAssignment, WaveDispatchProfile};

use glp4nn::plan::{verify_capture, CaptureSource};
use glp4nn::{ExecMode, ExecPlan, KernelProfile, Phase};
use gpu_sim::{Device, DeviceProps, KernelDesc, KernelName, SimTime, StreamId};
use nn::exec::StagedDispatch;
use nn::{ExecCtx, LayerTiming, Net, NetSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a kernel class for one-shot duration profiling: kernels
/// agreeing on this key are charged the same measured duration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey {
    name: KernelName,
    blocks: u64,
    threads: u32,
    smem: u32,
    flops_bits: u64,
    dram_bits: u64,
}

impl ClassKey {
    fn of(k: &KernelDesc) -> Self {
        ClassKey {
            name: k.name.clone(),
            blocks: k.launch.num_blocks(),
            threads: k.launch.threads_per_block(),
            smem: k.launch.smem_per_block(),
            flops_bits: k.cost.flops_per_block.to_bits(),
            dram_bits: k.cost.dram_bytes_per_block.to_bits(),
        }
    }
}

/// Measures each unique kernel class once, solo on a scratch device — the
/// inter-operator equivalent of GLP4NN's profiling iteration. Durations
/// feed the wave MILP's duty cycles and caps.
struct ClassProfiler {
    props: DeviceProps,
    durations: HashMap<ClassKey, u64>,
}

impl ClassProfiler {
    fn new(props: DeviceProps) -> Self {
        ClassProfiler {
            props,
            durations: HashMap::new(),
        }
    }

    /// Solo duration of `k`, whose class key is `key`.
    fn duration_ns(&mut self, key: &ClassKey, k: &Arc<KernelDesc>) -> u64 {
        if let Some(&d) = self.durations.get(key) {
            return d;
        }
        let mut dev = Device::new(self.props.clone());
        let s = dev.default_stream();
        dev.launch_shared(s, Arc::clone(k));
        dev.run();
        let t = dev.trace().last().expect("profiled kernel must trace");
        let d = t.duration_ns().max(1);
        self.durations.insert(key.clone(), d);
        d
    }
}

/// One staged dispatch's kernel groups, each descriptor moved into an `Arc`
/// once: both candidates' assemblies, their probe plans and the executed
/// plan share it instead of cloning name and access sets per capture.
type SharedGroups = Vec<Vec<Arc<KernelDesc>>>;

/// A fully resolved whole-net schedule before plan capture: the flattened
/// kernel list with explicit dependencies and stream assignments, ready
/// for [`ExecPlan::capture_assigned`].
struct Assembly {
    nodes: Vec<Arc<KernelDesc>>,
    deps: Vec<Vec<usize>>,
    stream_of: Vec<usize>,
    num_streams: usize,
    waves: usize,
    multi_waves: usize,
    coscheduled_kernels: usize,
}

/// What the scheduler decided for one captured pass — kept for the bench
/// harness, which compares the two candidate plans' lint profiles and
/// simulated times.
#[derive(Clone)]
pub struct PhaseReport {
    /// Forward or backward.
    pub phase: Phase,
    /// Net-plan cache key the capture was stored under.
    pub key: String,
    /// The wave-co-scheduled candidate plan (DAG waves, joint MILP).
    pub wave_plan: Arc<ExecPlan>,
    /// The per-layer fallback candidate plan (topological order, one
    /// layer at a time, GLP4NN stream sizing).
    pub serial_plan: Arc<ExecPlan>,
    /// Simulated time of the wave candidate on a scratch device.
    pub wave_ns: SimTime,
    /// Simulated time of the per-layer candidate on a scratch device.
    pub serial_ns: SimTime,
    /// Which candidate the scheduler executed (`true` = waves).
    pub chose_waves: bool,
    /// Waves in the executed schedule (after pays-gating expanded
    /// non-paying waves into singletons).
    pub waves: usize,
    /// Waves of the wave candidate holding two or more co-scheduled
    /// layers.
    pub multi_waves: usize,
    /// Kernels of the wave candidate living in multi-layer waves.
    pub coscheduled_kernels: usize,
}

/// The inter-operator executor for one network: owns the layer DAG and
/// drives whole-net capture / replay through an [`ExecCtx`].
pub struct InterOpExec {
    spec: NetSpec,
    dag: LayerDag,
    reports: Vec<PhaseReport>,
}

impl InterOpExec {
    /// Build the executor for a network spec.
    pub fn new(spec: &NetSpec) -> Self {
        InterOpExec {
            spec: spec.clone(),
            dag: LayerDag::from_spec(spec),
            reports: Vec::new(),
        }
    }

    /// The network's layer DAG.
    pub fn dag(&self) -> &LayerDag {
        &self.dag
    }

    /// Capture decisions made so far (one per cold capture).
    pub fn phase_reports(&self) -> &[PhaseReport] {
        &self.reports
    }

    /// Run one training step (forward + backward) through the
    /// inter-operator scheduler; returns the loss.
    pub fn step(&mut self, ctx: &mut ExecCtx, net: &mut Net) -> f32 {
        let loss = self.pass(ctx, net, Phase::Forward);
        self.pass(ctx, net, Phase::Backward);
        loss
    }

    /// One pass of `net`: replay the cached whole-net plan when one exists
    /// for this `(net, phase, batch)`, otherwise stage the pass, capture
    /// and cache a plan, then execute it. Returns the loss of a forward
    /// pass (always computed by the layers' real CPU math, independent of
    /// the dispatch path) and 0 for a backward pass. Backward wave order
    /// is reversed: the forward DAG's successor sets become predecessor
    /// sets, so reversed level sets stay antichains.
    pub fn pass(&mut self, ctx: &mut ExecCtx, net: &mut Net, phase: Phase) -> f32 {
        let layers = |ctx: &mut ExecCtx, net: &mut Net| match phase {
            Phase::Forward => net.forward(ctx),
            Phase::Backward => {
                net.backward(ctx);
                0.0
            }
        };
        // One whole-net plan per `(net, phase, batch)` — the frozen-shape
        // contract: kernel geometry is a pure function of the batch size
        // for a fixed network, so agreeing keys dispatch identical kernels.
        let batch = match self.spec.inputs.first() {
            Some((name, _)) => net.blob(name).num(),
            None => 0,
        };
        let key = format!("{}/interop/{}/b{batch}", self.spec.name, phase.as_str());
        let (loss, plan) = match ctx.cached_plan(&key) {
            Some(plan) => {
                ctx.set_suppress(true);
                let loss = layers(ctx, net);
                ctx.set_suppress(false);
                (loss, plan)
            }
            None => {
                ctx.begin_staging();
                let loss = layers(ctx, net);
                let staged = ctx.take_staged();
                (loss, self.capture(ctx, staged, phase, &key))
            }
        };
        let report = plan.replay(&mut ctx.device);
        if ctx.sanitizer.is_full() {
            ctx.sanitizer.check_device(&ctx.device);
        }
        ctx.timings.push(LayerTiming {
            layer: format!("interop/{}", phase.as_str()),
            phase,
            elapsed_ns: report.elapsed_ns,
            mode: report.mode,
        });
        loss
    }

    /// The cold path: turn one staged pass into a frozen whole-net plan.
    fn capture(
        &mut self,
        ctx: &mut ExecCtx,
        staged: Vec<StagedDispatch>,
        phase: Phase,
        key: &str,
    ) -> Arc<ExecPlan> {
        if ctx.sanitizer.is_enabled() {
            // Per-dispatch chunk disjointness (symbolically certified where
            // the layer declares a spec — the certificate cache is shared
            // with per-layer dispatch sites); the whole-net plan is
            // validated once it exists, below.
            for d in &staged {
                let site = format!("{}/{}/{}", self.spec.name, d.layer, phase.as_str());
                let dkey = format!("{site}/b{}/c{}/interop", ctx.batch, d.chunks);
                let source = CaptureSource {
                    context: if d.spec.is_some() { &dkey } else { &d.layer },
                    site: &site,
                    spec: d.spec.as_ref(),
                    groups: &d.groups,
                };
                verify_capture(&mut ctx.sanitizer, Some(source), None);
            }
        }

        let props = ctx.device.props().clone();
        let n = self.dag.num_layers();
        let index: HashMap<&str, usize> = (0..n).map(|i| (self.dag.name(i), i)).collect();
        let mut dispatches_of: Vec<Vec<SharedGroups>> = vec![Vec::new(); n];
        for d in staged {
            let li = *index
                .get(d.layer.as_str())
                .unwrap_or_else(|| panic!("staged dispatch from unknown layer {}", d.layer));
            let share = |g: Vec<KernelDesc>| g.into_iter().map(Arc::new).collect();
            dispatches_of[li].push(d.groups.into_iter().map(share).collect());
        }

        let mut profiler = ClassProfiler::new(props.clone());
        let mut profiles: HashMap<usize, WaveDispatchProfile> = HashMap::new();
        for (li, dispatches) in dispatches_of.iter().enumerate() {
            if !dispatches.is_empty() {
                profiles.insert(
                    li,
                    layer_profile(&mut profiler, li, self.dag.name(li), dispatches),
                );
            }
        }
        // Per-layer GLP4NN sizing (the single-dispatch joint model is the
        // per-layer model), solved once per layer: the stream count sizes
        // singleton waves, non-paying wave fall-backs and the whole
        // per-layer candidate, the objective is the layer's side of every
        // pays-comparison it takes part in.
        let solo: HashMap<usize, Option<wave::Solo>> = profiles
            .iter()
            .map(|(&li, p)| (li, wave::solve_solo(&props, p)))
            .collect();
        let solo_width = |li: usize| solo[&li].map_or(1, |(streams, _)| streams);

        // Candidate A — DAG waves, each multi-layer wave kept only when
        // the joint model says concurrency pays.
        let wave_src: Vec<Vec<usize>> = match phase {
            Phase::Forward => self.dag.waves().to_vec(),
            Phase::Backward => self.dag.waves().iter().rev().cloned().collect(),
        };
        let mut exec_waves_a: Vec<Vec<(usize, u32)>> = Vec::new();
        for wave in &wave_src {
            let active: Vec<usize> = wave
                .iter()
                .copied()
                .filter(|li| profiles.contains_key(li))
                .collect();
            if active.is_empty() {
                continue;
            }
            if active.len() >= 2 {
                let wps: Vec<&WaveDispatchProfile> =
                    active.iter().map(|li| &profiles[li]).collect();
                let solos: Vec<Option<wave::Solo>> = active.iter().map(|li| solo[li]).collect();
                let wa = wave::co_schedule_with(&props, &wps, &solos);
                if wa.pays {
                    exec_waves_a.push(
                        active
                            .iter()
                            .copied()
                            .zip(wa.streams_per_dispatch.iter().copied())
                            .collect(),
                    );
                    continue;
                }
            }
            for li in active {
                exec_waves_a.push(vec![(li, solo_width(li))]);
            }
        }
        // Candidate B — pure per-layer GLP4NN: every layer its own wave in
        // (phase-appropriate) topological order.
        let exec_waves_b: Vec<Vec<(usize, u32)>> = wave_src
            .iter()
            .flat_map(|w| w.iter().copied())
            .filter(|li| profiles.contains_key(li))
            .map(|li| vec![(li, solo_width(li))])
            .collect();

        // Dependency direction follows the phase: backward gradients flow
        // against the forward edges.
        let preds_of: Vec<Vec<usize>> = match phase {
            Phase::Forward => (0..n).map(|i| self.dag.preds(i).to_vec()).collect(),
            Phase::Backward => (0..n).map(|i| self.dag.succs(i).to_vec()).collect(),
        };
        let asm_a = assemble(&exec_waves_a, &dispatches_of, &preds_of);
        let asm_b = assemble(&exec_waves_b, &dispatches_of, &preds_of);
        let (wave_ns, wave_plan) = measure(&asm_a, key, &props);
        let (serial_ns, serial_plan) = measure(&asm_b, key, &props);
        let chose_waves = wave_ns <= serial_ns;
        let (chosen, probed) = if chose_waves {
            (&asm_a, &wave_plan)
        } else {
            (&asm_b, &serial_plan)
        };

        // The executed plan is the winning probe's tables on this
        // context's streams, not a third capture.
        let pool = ctx.ensure_streams(chosen.num_streams.max(1));
        let plan = Arc::new(probed.on_pool(&pool));

        if ctx.sanitizer.is_enabled() {
            // Verifying the plan without a source deliberately keeps the
            // cross-node hazard sweep: catching cross-*operator* hazards is
            // the point of validating at net scope.
            verify_capture(&mut ctx.sanitizer, None, Some(&plan));
        }

        if let Some(rec) = ctx.device.telemetry() {
            let mut r = rec.lock().unwrap_or_else(|p| p.into_inner());
            r.counter_add("interop.waves", chosen.waves as u64);
            r.counter_add(
                "interop.coscheduled_kernels",
                chosen.coscheduled_kernels as u64,
            );
        }

        ctx.store_plan(key.to_string(), Arc::clone(&plan));
        self.reports.push(PhaseReport {
            phase,
            key: key.to_string(),
            wave_plan,
            serial_plan,
            wave_ns,
            serial_ns,
            chose_waves,
            waves: chosen.waves,
            multi_waves: asm_a.multi_waves,
            coscheduled_kernels: asm_a.coscheduled_kernels,
        });
        plan
    }
}

/// Aggregate one layer's staged dispatches into the wave model's input:
/// one [`KernelProfile`] per kernel class (measured solo once), plus the
/// group count bounding useful streams.
fn layer_profile(
    profiler: &mut ClassProfiler,
    layer: usize,
    name: &str,
    dispatches: &[SharedGroups],
) -> WaveDispatchProfile {
    let mut order: Vec<ClassKey> = Vec::new();
    let mut agg: HashMap<ClassKey, KernelProfile> = HashMap::new();
    for groups in dispatches {
        for g in groups {
            for k in g {
                let ck = ClassKey::of(k);
                if let Some(class) = agg.get_mut(&ck) {
                    class.instances += 1;
                    continue;
                }
                let class = KernelProfile {
                    name: k.name.to_string(),
                    grid_blocks: k.launch.num_blocks(),
                    threads_per_block: k.launch.threads_per_block(),
                    regs_per_thread: k.launch.regs_per_thread,
                    smem_per_block: k.launch.smem_per_block(),
                    avg_duration_ns: profiler.duration_ns(&ck, k),
                    instances: 1,
                };
                order.push(ck.clone());
                agg.insert(ck, class);
            }
        }
    }
    let groups = dispatches.iter().map(Vec::len).max().unwrap_or(1);
    WaveDispatchProfile {
        layer,
        name: name.to_string(),
        groups,
        classes: order
            .into_iter()
            .map(|k| agg.remove(&k).expect("aggregated"))
            .collect(),
    }
}

/// The cross-layer dependencies of layer `li`: the last node per stream
/// of every (phase-)predecessor, falling through predecessors that issued
/// no kernels this pass to *their* predecessors — transitive ordering must
/// not break at a silent layer.
fn pred_deps(
    li: usize,
    preds_of: &[Vec<usize>],
    last_of_layer: &HashMap<usize, Vec<usize>>,
) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    let mut seen = vec![false; preds_of.len()];
    let mut stack: Vec<usize> = preds_of[li].to_vec();
    while let Some(p) = stack.pop() {
        if seen[p] {
            continue;
        }
        seen[p] = true;
        match last_of_layer.get(&p) {
            Some(nodes) => out.extend(nodes.iter().copied()),
            None => stack.extend(preds_of[p].iter().copied()),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Flatten an executed wave sequence into explicit (node, deps, stream)
/// tables.
///
/// Stream discipline: within a wave every layer owns a disjoint stream
/// sub-pool `[base, base+width)`; bases restart at 0 each wave (streams
/// are reused across waves). Groups round-robin over the layer's
/// sub-pool; kernels within a group chain FIFO. Cross dependencies are
/// declared sparsely, on the first kernel a dispatch places on each
/// stream: against the last node per stream of the layer's previous
/// dispatch (intra-layer ordering), or — for the layer's first dispatch —
/// against its DAG predecessors' last nodes ([`pred_deps`]): only *data*
/// dependencies become plan edges. Independent work sharing a stream
/// declares nothing: its serialization is the stream FIFO. That is exactly
/// the false serialization the linter's PW002 analysis surfaces on the
/// per-layer candidate (independent towers queued through one sub-pool),
/// and what wave co-scheduling eliminates by giving co-scheduled layers
/// disjoint sub-pools.
fn assemble(
    exec_waves: &[Vec<(usize, u32)>],
    dispatches_of: &[Vec<SharedGroups>],
    preds_of: &[Vec<usize>],
) -> Assembly {
    let mut nodes: Vec<Arc<KernelDesc>> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut stream_of: Vec<usize> = Vec::new();
    let mut num_streams = 0usize;
    let mut multi_waves = 0usize;
    let mut coscheduled = 0usize;
    let mut last_of_layer: HashMap<usize, Vec<usize>> = HashMap::new();
    for wave in exec_waves {
        let mut base = 0usize;
        let wave_start = nodes.len();
        for &(li, width) in wave {
            let width = width.max(1) as usize;
            let mut layer_last: Option<HashMap<usize, usize>> = None;
            for groups in &dispatches_of[li] {
                if groups.iter().all(Vec::is_empty) {
                    continue;
                }
                // Cross deps for this dispatch's first node on each stream
                // (sorted so the captured plan is bit-stable run to run —
                // HashMap iteration order is arbitrary).
                let cross: Vec<usize> = match &layer_last {
                    Some(ll) => {
                        let mut v: Vec<usize> = ll.values().copied().collect();
                        v.sort_unstable();
                        v
                    }
                    None => pred_deps(li, preds_of, &last_of_layer),
                };
                let s_d = width.min(groups.len().max(1));
                let mut cur_last: HashMap<usize, usize> = HashMap::new();
                let mut touched = vec![false; s_d];
                for (g, group) in groups.iter().enumerate() {
                    let local = g % s_d;
                    let stream = base + local;
                    let mut prev_in_group: Option<usize> = None;
                    for k in group {
                        let idx = nodes.len();
                        let mut dl: Vec<usize> = Vec::new();
                        if let Some(p) = prev_in_group {
                            dl.push(p);
                        } else if !touched[local] {
                            dl.extend(cross.iter().copied());
                        }
                        nodes.push(Arc::clone(k));
                        deps.push(dl);
                        stream_of.push(stream);
                        prev_in_group = Some(idx);
                        touched[local] = true;
                        cur_last.insert(stream, idx);
                    }
                }
                if !cur_last.is_empty() {
                    layer_last = Some(cur_last);
                }
            }
            if let Some(ll) = layer_last {
                last_of_layer.insert(li, ll.values().copied().collect());
            }
            base += width;
        }
        num_streams = num_streams.max(base);
        if wave.len() > 1 {
            multi_waves += 1;
            coscheduled += nodes.len() - wave_start;
        }
    }
    Assembly {
        nodes,
        deps,
        stream_of,
        num_streams,
        waves: exec_waves.len(),
        multi_waves,
        coscheduled_kernels: coscheduled,
    }
}

/// Instantiate an assembly against a scratch device and measure one
/// replay — the candidate-selection probe. The scratch device is fresh
/// and idle, so the measurement is deterministic and isolated from the
/// training device's state.
fn measure(asm: &Assembly, label: &str, props: &DeviceProps) -> (SimTime, Arc<ExecPlan>) {
    let n = asm.num_streams.max(1);
    let mode = if n <= 1 {
        ExecMode::Profiling
    } else {
        ExecMode::Concurrent { streams: n as u32 }
    };
    let mut dev = Device::new(props.clone());
    let pool: Vec<StreamId> = (0..n).map(|_| dev.create_stream()).collect();
    let plan =
        ExecPlan::capture_assigned(label, &asm.nodes, &asm.deps, &asm.stream_of, &pool, mode);
    let r = plan.replay(&mut dev);
    (r.elapsed_ns, Arc::new(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sanitizer::SanitizeMode;

    fn fill_inputs(net: &mut Net, spec: &NetSpec, seed: u64) {
        for (name, shape) in &spec.inputs {
            let blob = net.blob_mut(name);
            blob.resize(shape);
            let n = blob.count();
            let data = blob.data_mut();
            let mut x = seed ^ 0x9e3779b97f4a7c15;
            for (i, v) in data.iter_mut().enumerate().take(n) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = if name == "label" || name == "sim" {
                    ((x >> 33) % 2) as f32
                } else {
                    ((x >> 40) as f32 / 16777216.0) - 0.5 + (i as f32 * 0.0)
                };
            }
        }
    }

    fn sgd(net: &mut Net, lr: f32) {
        for p in net.params_mut() {
            let g: Vec<f32> = p.diff().to_vec();
            for (w, g) in p.data_mut().iter_mut().zip(g) {
                *w -= lr * g;
            }
        }
    }

    fn train_baseline(spec: &NetSpec, iters: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
        let mut net = Net::from_spec(spec);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let mut losses = Vec::new();
        for it in 0..iters {
            fill_inputs(&mut net, spec, it as u64);
            losses.push(net.forward(&mut ctx));
            net.zero_param_diffs();
            net.backward(&mut ctx);
            sgd(&mut net, 0.01);
        }
        (losses, net.state_dict())
    }

    fn train_interop(
        spec: &NetSpec,
        iters: usize,
    ) -> (Vec<f32>, Vec<Vec<f32>>, ExecCtx, InterOpExec) {
        let mut net = Net::from_spec(spec);
        let mut ctx = ExecCtx::naive(DeviceProps::p100())
            .batch_parallel_all()
            .sanitize(SanitizeMode::Full);
        let mut exec = InterOpExec::new(spec);
        let mut losses = Vec::new();
        for it in 0..iters {
            fill_inputs(&mut net, spec, it as u64);
            losses.push(exec.pass(&mut ctx, &mut net, Phase::Forward));
            net.zero_param_diffs();
            exec.pass(&mut ctx, &mut net, Phase::Backward);
            sgd(&mut net, 0.01);
        }
        (losses, net.state_dict(), ctx, exec)
    }

    #[test]
    fn siamese_interop_matches_sequential_bitwise() {
        let spec = nn::models::siamese(4, 7);
        let (l0, w0) = train_baseline(&spec, 3);
        let (l1, w1, ctx, exec) = train_interop(&spec, 3);
        assert_eq!(l0, l1, "losses must be bitwise identical");
        assert_eq!(w0, w1, "weights must be bitwise identical");
        assert!(
            ctx.sanitizer.reports().is_empty(),
            "clean whole-net schedule: {:?}",
            ctx.sanitizer.reports()
        );
        // One capture per phase; later iterations are pure replays.
        assert_eq!(ctx.plan_captures(), 2);
        assert_eq!(exec.phase_reports().len(), 2);
    }

    #[test]
    fn fanout_interop_matches_sequential_bitwise() {
        let spec = nn::models::fanout(4, 11);
        let (l0, w0) = train_baseline(&spec, 2);
        let (l1, w1, ctx, _) = train_interop(&spec, 2);
        assert_eq!(l0, l1);
        assert_eq!(w0, w1);
        assert!(ctx.sanitizer.reports().is_empty());
    }

    #[test]
    fn siamese_wave_candidate_beats_per_layer() {
        let spec = nn::models::siamese(8, 3);
        let (_, _, _, exec) = train_interop(&spec, 1);
        for r in exec.phase_reports() {
            assert!(r.multi_waves > 0, "Siamese towers must form waves");
            assert!(r.coscheduled_kernels > 0);
        }
        // Forward: the twin towers genuinely overlap, so the wave
        // candidate must win the measured probe. (Backward is allowed to
        // fall back — the measured minimum decides, checked in
        // `executed_plan_is_never_slower_than_per_layer_candidate`.)
        let fwd = exec
            .phase_reports()
            .iter()
            .find(|r| r.phase == Phase::Forward)
            .expect("forward capture");
        assert!(
            fwd.wave_ns < fwd.serial_ns,
            "forward waves must beat the per-layer candidate: {} vs {}",
            fwd.wave_ns,
            fwd.serial_ns
        );
        assert!(fwd.chose_waves);
    }

    #[test]
    fn executed_plan_is_never_slower_than_per_layer_candidate() {
        for spec in [nn::models::siamese(4, 5), nn::models::fanout(4, 5)] {
            let (_, _, _, exec) = train_interop(&spec, 1);
            for r in exec.phase_reports() {
                let executed = r.wave_ns.min(r.serial_ns);
                assert!(executed <= r.serial_ns);
                assert_eq!(r.chose_waves, r.wave_ns <= r.serial_ns);
            }
        }
    }

    #[test]
    fn chain_net_degenerates_to_per_layer() {
        // A linear net has no antichains: both candidates coincide and
        // capture still works.
        let spec = nn::models::cifar10_quick(4, 2);
        let (l0, w0) = train_baseline(&spec, 2);
        let (l1, w1, ctx, exec) = train_interop(&spec, 2);
        assert_eq!(l0, l1);
        assert_eq!(w0, w1);
        assert!(ctx.sanitizer.reports().is_empty());
        for r in exec.phase_reports() {
            assert_eq!(r.multi_waves, 0);
        }
    }

    #[test]
    fn fused_plan_verification_matches_the_separate_check_and_lint() {
        use sanitizer::{LintConfig, PlanNodeRef, Sanitizer};
        let props = DeviceProps::p100();
        let spec = nn::models::siamese(32, 7);
        let mut net = Net::from_spec(&spec);
        let mut ctx = ExecCtx::naive(props.clone())
            .batch_parallel_all()
            .timing_only();
        let mut exec = InterOpExec::new(&spec);
        exec.step(&mut ctx, &mut net);
        let sanitizer = || {
            let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
            san.attach_linter(LintConfig::from_props(&props));
            san
        };
        let mut findings = 0;
        for r in exec.phase_reports() {
            for plan in [&r.wave_plan, &r.serial_plan] {
                let mut fused = sanitizer();
                verify_capture(&mut fused, None, Some(plan));

                let mut split = sanitizer();
                let nodes: Vec<PlanNodeRef<'_>> = (0..plan.num_kernels())
                    .map(|i| PlanNodeRef {
                        kernel: plan.kernel(i),
                        stream: plan.node_streams()[i],
                        deps: plan.node_deps(i),
                    })
                    .collect();
                split.check_plan_ref(plan.label(), &nodes);
                split.lint_plan_nodes(plan.label(), &nodes, plan.num_events() > 0, false);

                let (fl, sl) = (fused.linter().unwrap(), split.linter().unwrap());
                assert_eq!(fused.reports(), split.reports());
                assert_eq!(fl.diags(), sl.diags());
                assert_eq!(fused.stats(), split.stats());
                assert_eq!(fl.stats(), sl.stats());
                // Whole-net scope: every declaring kernel pair is covered.
                let m = plan.num_kernels() as u64;
                assert!(m > 500, "Siamese b32 is a {m}-node plan");
                assert_eq!(fused.stats().plan_pairs, m * (m - 1) / 2);
                assert_eq!(fused.reports(), &[]);
                findings += fl.diags().len();
            }
        }
        assert!(
            findings > 0,
            "the per-layer candidates carry PW002 findings"
        );
    }

    #[test]
    fn warm_replays_do_not_recapture() {
        let spec = nn::models::fanout(4, 9);
        let mut net = Net::from_spec(&spec);
        let mut ctx = ExecCtx::naive(DeviceProps::k40c()).batch_parallel_all();
        let mut exec = InterOpExec::new(&spec);
        fill_inputs(&mut net, &spec, 0);
        exec.step(&mut ctx, &mut net);
        let captures = ctx.plan_captures();
        for it in 1..4 {
            fill_inputs(&mut net, &spec, it);
            exec.step(&mut ctx, &mut net);
        }
        assert_eq!(captures, 2, "one whole-net plan per phase");
        assert_eq!(ctx.plan_captures(), captures, "steady state replays only");
    }
}
