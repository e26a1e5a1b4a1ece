//! The hand-driven dispatch pipeline of the traced run.
//!
//! `ExecCtx` and `Glp4nn` bundle stage → profile → solve → capture →
//! verify → lint → issue → run behind one `dispatch` call, so from outside
//! only the sum can be timed. This module drives the same public pieces
//! one by one — `ExecCtx::begin_staging`, `ResourceTracker`,
//! `analyze_profiles`, `StreamManager`, `ExecPlan::capture_round_robin`,
//! `Sanitizer::check_*`, `ExecPlan::issue`, `Device::run` — in the order
//! the runtime scheduler does (core/src/scheduler.rs, nn/src/exec.rs),
//! with a span around each. Because the device sees the same commands in
//! the same order, its simulated clock ends where the end-to-end path's
//! does; every traced pipeline asserts that, so the spans measure the
//! same work.

use crate::trace::Tracer;
use crate::workloads::Mode;
use glp4nn::analyzer::analyze_profiles;
use glp4nn::{
    ConcurrencyPlan, ExecMode, ExecPlan, KernelProfile, Phase, ResourceTracker, StreamManager,
};
use gpu_sim::{Device, DeviceProps, EventId, KernelDesc, StreamId};
use milp::{Model, Sense, VarKind};
use nn::{ExecCtx, Net, StagedDispatch};
use sanitizer::{LintConfig, PlanNodeRef, SanitizeMode, Sanitizer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Record every dispatch of one forward + backward pass without
/// launching anything: the kernel groups and symbolic specs each layer
/// would hand to its dispatch site.
pub fn stage(ctx: &mut ExecCtx, net: &mut Net) -> Vec<StagedDispatch> {
    ctx.begin_staging();
    net.forward(ctx);
    net.backward(ctx);
    ctx.take_staged()
}

/// Record one inference forward pass.
pub fn stage_inference(ctx: &mut ExecCtx, net: &mut Net) -> Vec<StagedDispatch> {
    ctx.begin_staging();
    net.forward_inference(ctx);
    ctx.take_staged()
}

fn phase_str(phase: Phase) -> &'static str {
    match phase {
        Phase::Forward => "fwd",
        Phase::Backward => "bwd",
    }
}

/// Counters the hand pipeline keeps alongside its spans.
#[derive(Debug, Default, Clone)]
pub struct HandStats {
    /// Dispatch sites visited.
    pub dispatches: u64,
    /// Plans captured into a cache slot.
    pub captures: u64,
    /// Kernels in captured plans (profiling plans included).
    pub captured_kernels: u64,
    /// Kernels issued.
    pub issued_kernels: u64,
    /// Chunks (kernel groups) handed to the chunk verifier.
    pub verified_chunks: u64,
    /// Activity records the tracker ingested.
    pub records: u64,
    /// Profile sets handed to the analyzer, kept for the MILP probe.
    pub analyzed: Vec<Vec<KernelProfile>>,
}

/// One simulated device driven by hand in one dispatch mode.
pub struct HandExec {
    /// The device.
    pub dev: Device,
    mode: Mode,
    net_name: String,
    batch: usize,
    tracker: ResourceTracker,
    streams: StreamManager,
    concurrency: HashMap<usize, ConcurrencyPlan>,
    fixed_pool: Vec<StreamId>,
    plans: Vec<Option<Arc<ExecPlan>>>,
    /// Capture-time sanitizer, if the end-to-end arm has one.
    pub sanitizer: Option<Sanitizer>,
    deferred: bool,
    pending: Vec<StreamId>,
    /// Counters.
    pub stats: HandStats,
}

impl HandExec {
    /// A device in `mode` for net `net_name` at `batch`.
    pub fn new(props: DeviceProps, mode: Mode, net_name: &str, batch: usize) -> Self {
        HandExec {
            dev: Device::new(props),
            mode,
            net_name: net_name.to_string(),
            batch,
            tracker: ResourceTracker::new(1),
            streams: StreamManager::new(1),
            concurrency: HashMap::new(),
            fixed_pool: Vec::new(),
            plans: Vec::new(),
            sanitizer: None,
            deferred: false,
            pending: Vec::new(),
            stats: HandStats::default(),
        }
    }

    /// Attach a sanitizer in `mode`, with the plan linter when `lint`.
    pub fn with_sanitizer(mut self, mode: SanitizeMode, lint: bool) -> Self {
        let mut san = Sanitizer::new(mode);
        if lint {
            san.attach_linter(LintConfig::from_props(self.dev.props()));
        }
        self.sanitizer = Some(san);
        self
    }

    /// Every plan currently cached, for the launch probe.
    pub fn cached_plans(&self) -> Vec<Arc<ExecPlan>> {
        self.plans.iter().flatten().cloned().collect()
    }

    /// Switch deferred issue on or off (`ExecCtx::set_deferred`): plans
    /// are issued behind event barriers and the caller runs the device.
    pub fn set_deferred(&mut self, on: bool) {
        self.deferred = on;
        if !on {
            self.pending.clear();
        }
    }

    /// Dispatch site `idx` of a staged pass, as `ExecCtx` would.
    pub fn dispatch(&mut self, idx: usize, site: &StagedDispatch, tr: &mut Tracer) {
        if self.plans.len() <= idx {
            self.plans.resize(idx + 1, None);
        }
        self.stats.dispatches += 1;
        // Layers that split their batch hand over a symbolic spec; the
        // whole-batch `dispatch_single`/`dispatch_batch` sites never do
        // and always run on the default stream.
        let group_site = site.spec.is_some();
        match (self.mode, group_site) {
            (Mode::Glp4nn, true) => self.dispatch_glp4nn(idx, site, tr),
            (Mode::Fixed(n), true) => {
                while self.fixed_pool.len() < n as usize {
                    let s = self.dev.create_stream();
                    self.fixed_pool.push(s);
                }
                let pool = self.fixed_pool[..n as usize].to_vec();
                self.dispatch_self(idx, site, &pool, tr);
            }
            _ => {
                let pool = [self.dev.default_stream()];
                self.dispatch_self(idx, site, &pool, tr);
            }
        }
    }

    /// `ExecCtx::replay_or_capture`: the self-dispatched modes.
    fn dispatch_self(
        &mut self,
        idx: usize,
        site: &StagedDispatch,
        pool: &[StreamId],
        tr: &mut Tracer,
    ) {
        if let Some(plan) = self.plans[idx].clone() {
            self.replay(&plan, tr);
            return;
        }
        let phase = phase_str(site.phase);
        let key = format!(
            "{}/{}/{phase}/b{}/c{}/p{}",
            self.net_name,
            site.layer,
            self.batch,
            site.chunks,
            pool.len()
        );
        let mode = if pool.len() <= 1 {
            ExecMode::Profiling
        } else {
            ExecMode::Concurrent {
                streams: pool.len() as u32,
            }
        };
        let plan = self.capture(&key, &site.groups, pool, mode, tr);
        let site_key = format!("{}/{}/{phase}", self.net_name, site.layer);
        self.verify(&key, &site.layer, &site_key, site, Some(&plan), tr);
        self.stats.captures += 1;
        let plan = Arc::new(plan);
        self.replay(&plan, tr);
        self.plans[idx] = Some(plan);
    }

    /// `RuntimeScheduler::execute_spec`: replay, capture, or profile.
    fn dispatch_glp4nn(&mut self, idx: usize, site: &StagedDispatch, tr: &mut Tracer) {
        if let Some(plan) = self.plans[idx].clone() {
            self.replay(&plan, tr);
            return;
        }
        let phase = phase_str(site.phase);
        let key = format!("{}/{}/{phase}/c{}", self.net_name, site.layer, site.chunks);
        let site_key = format!("{}/{}/{phase}", self.net_name, site.layer);

        if let Some(streams) = self.concurrency.get(&idx).map(|c| c.streams) {
            // Capture: freeze the round-robin schedule over the C_out pool.
            let pool = self
                .streams
                .pool(&mut self.dev, 0, streams as usize)
                .expect("gpu 0 is registered");
            let plan = self.capture(
                &key,
                &site.groups,
                &pool,
                ExecMode::Concurrent { streams },
                tr,
            );
            self.verify(&key, &key, &site_key, site, Some(&plan), tr);
            self.stats.captures += 1;
            let plan = Arc::new(plan);
            self.replay(&plan, tr);
            self.plans[idx] = Some(plan);
            return;
        }

        // Profile: serial run on the default stream under the tracker,
        // then parse and solve.
        self.verify(&key, &key, &site_key, site, None, tr);
        let s = tr.enter("cupti-sim.ingest");
        self.tracker.ingest(0, self.dev.trace());
        self.tracker.enable(0);
        tr.exit(s);
        let pool = [self.streams.default_stream(&self.dev)];
        let plan = self.capture(&key, &site.groups, &pool, ExecMode::Profiling, tr);
        self.replay(&plan, tr);
        let s = tr.enter("cupti-sim.ingest");
        self.stats.records += self.tracker.ingest(0, self.dev.trace()) as u64;
        self.tracker.disable(0);
        tr.exit(s);
        let s = tr.enter("cupti-sim.parse");
        let profiles = self.tracker.parse(0);
        tr.exit(s);
        let s = tr.enter("core.analyze");
        let cplan = analyze_profiles(self.dev.props(), &profiles);
        tr.exit(s);
        self.stats.analyzed.push(profiles);
        self.concurrency.insert(idx, cplan);
    }

    fn capture(
        &mut self,
        key: &str,
        groups: &[Vec<KernelDesc>],
        pool: &[StreamId],
        mode: ExecMode,
        tr: &mut Tracer,
    ) -> ExecPlan {
        let s = tr.enter("core.capture");
        let plan = ExecPlan::capture_round_robin(key, groups, pool, mode);
        tr.exit(s);
        self.stats.captured_kernels += plan.num_kernels() as u64;
        plan
    }

    /// Capture-time verification: the chunk check, then (for a plan that
    /// will be cached) `ExecPlan::validate_certified` taken apart into its
    /// plan check and its lint so each gets a span.
    fn verify(
        &mut self,
        key: &str,
        unspecced_context: &str,
        site_key: &str,
        site: &StagedDispatch,
        plan: Option<&ExecPlan>,
        tr: &mut Tracer,
    ) {
        let Some(san) = self.sanitizer.as_mut().filter(|s| s.is_enabled()) else {
            return;
        };
        let s = tr.enter("sanitizer.verify");
        self.stats.verified_chunks += site.groups.len() as u64;
        let certified = match &site.spec {
            Some(spec) => san.check_chunks_spec(key, site_key, spec, &site.groups),
            None => {
                san.check_chunks(unspecced_context, &site.groups);
                false
            }
        };
        let Some(plan) = plan else {
            tr.exit(s);
            return;
        };
        let nodes: Vec<PlanNodeRef<'_>> = (0..plan.num_kernels())
            .map(|i| PlanNodeRef {
                kernel: plan.kernel(i),
                stream: plan.node_streams()[i],
                deps: plan.node_deps(i),
            })
            .collect();
        if certified {
            san.check_plan_ref_certified(plan.label(), &nodes);
        } else {
            san.check_plan_ref(plan.label(), &nodes);
        }
        tr.exit(s);
        let s = tr.enter("sanitizer.lint");
        san.lint_plan_nodes(plan.label(), &nodes, plan.num_events() > 0, certified);
        tr.exit(s);
    }

    /// `ExecPlan::replay`, taken apart: issue, then run. Deferred, the
    /// inter-layer drain becomes an event barrier and nothing runs.
    fn replay(&mut self, plan: &ExecPlan, tr: &mut Tracer) {
        self.stats.issued_kernels += plan.num_kernels() as u64;
        if self.deferred {
            let s = tr.enter("nn.barrier");
            self.barrier_before(plan.streams());
            tr.exit(s);
            let s = tr.enter("core.issue");
            plan.issue(&mut self.dev);
            tr.exit(s);
            return;
        }
        let s = tr.enter("core.issue");
        plan.issue(&mut self.dev);
        tr.exit(s);
        let s = tr.enter("gpu-sim.run");
        self.dev.run();
        tr.exit(s);
        if let Some(san) = self.sanitizer.as_mut().filter(|s| s.is_full()) {
            let s = tr.enter("sanitizer.hb");
            san.check_device(&self.dev);
            tr.exit(s);
        }
    }

    /// `ExecCtx::join_pending`.
    fn join_pending(&mut self) -> Option<StreamId> {
        let s0 = *self.pending.first()?;
        for i in 1..self.pending.len() {
            let s = self.pending[i];
            let e = self.dev.create_event();
            self.dev.record_event(s, e);
            self.dev.wait_event(s0, e);
        }
        self.pending.truncate(1);
        Some(s0)
    }

    /// `ExecCtx::barrier_event`: fires once all deferred work drains.
    pub fn barrier_event(&mut self) -> Option<EventId> {
        let s0 = self.join_pending()?;
        let e = self.dev.create_event();
        self.dev.record_event(s0, e);
        Some(e)
    }

    /// `ExecCtx::barrier_before`.
    fn barrier_before(&mut self, pool: &[StreamId]) {
        if let Some(s0) = self.join_pending() {
            if pool.iter().any(|&s| s != s0) {
                let b = self.dev.create_event();
                self.dev.record_event(s0, b);
                for &s in pool {
                    if s != s0 {
                        self.dev.wait_event(s, b);
                    }
                }
            }
        }
        self.pending.clear();
        self.pending.extend_from_slice(pool);
    }
}

/// Host cost of the device launch path alone: replay every plan's step
/// list by hand (`launch_shared` / `record_event` / `wait_event`, what
/// `ExecPlan::issue` spends its time in) on a scratch device. Returns
/// ns per kernel, the median of `rounds` rounds.
pub fn launch_probe(props: &DeviceProps, plans: &[Arc<ExecPlan>], rounds: usize) -> f64 {
    use glp4nn::PlanStep;
    let kernels: Vec<Vec<Arc<KernelDesc>>> = plans
        .iter()
        .map(|p| {
            (0..p.num_kernels())
                .map(|i| Arc::new(p.kernel(i).clone()))
                .collect()
        })
        .collect();
    let total: u64 = plans.iter().map(|p| p.num_kernels() as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let max_stream = plans
        .iter()
        .flat_map(|p| p.streams().iter().map(|s| s.raw()))
        .max()
        .unwrap_or(0);
    let mut dev = Device::new(props.clone());
    while (dev.num_streams() as u32) <= max_stream {
        dev.create_stream();
    }
    let mut per_kernel = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut ns = 0u128;
        for (plan, ks) in plans.iter().zip(&kernels) {
            let t = Instant::now();
            let events: Vec<EventId> = (0..plan.num_events()).map(|_| dev.create_event()).collect();
            for step in plan.steps() {
                match *step {
                    PlanStep::Launch { stream, kernel } => {
                        dev.launch_shared(
                            plan.streams()[stream as usize],
                            Arc::clone(&ks[kernel as usize]),
                        );
                    }
                    PlanStep::Record { stream, event } => {
                        dev.record_event(plan.streams()[stream as usize], events[event as usize]);
                    }
                    PlanStep::Wait { stream, event } => {
                        dev.wait_event(plan.streams()[stream as usize], events[event as usize]);
                    }
                }
            }
            ns += t.elapsed().as_nanos();
            // Drain per plan, as the inter-layer synchronization does, so
            // queue depths match the pipeline's.
            dev.run();
        }
        per_kernel.push(ns as f64 / total as f64);
    }
    crate::stats::median(&per_kernel)
}

/// The analyzer's integer program (core/src/analyzer.rs, Eqs. 1–9),
/// rebuilt from the same profiles so `milp::solve_with_stats` can be
/// timed on its own; `analyze_profiles` times build + solve together.
pub fn analyzer_model(props: &DeviceProps, profiles: &[KernelProfile]) -> Model {
    let total_time: f64 = profiles
        .iter()
        .map(|p| p.avg_duration_ns.max(1) as f64)
        .sum();
    let mut m = Model::new(Sense::Maximize);
    let (mut smem, mut threads, mut blocks, mut conc) = (vec![], vec![], vec![], vec![]);
    for p in profiles {
        let duty = p.avg_duration_ns.max(1) as f64 / total_time;
        // Eq. 8: blocks of one instance per SM, capped at occupancy.
        let even = ((p.grid_blocks / u64::from(props.num_sms)) as u32).max(1);
        let by_threads = (props.max_threads_per_sm / p.threads_per_block.max(1)).max(1);
        let by_smem = props
            .smem_per_sm
            .checked_div(p.smem_per_block)
            .map_or(u32::MAX, |v| v.max(1));
        let beta = f64::from(
            even.min(by_threads)
                .min(by_smem)
                .min(props.max_blocks_per_sm),
        ) * duty;
        // Eq. 7: per-kernel cap on concurrent instances.
        let by_launch = (p.avg_duration_ns as f64 / props.launch_overhead_ns.max(1) as f64)
            .ceil()
            .max(1.0);
        let all_threads = u64::from(p.threads_per_block) * p.grid_blocks;
        let cap_threads = if all_threads > 0 {
            (u64::from(props.max_threads_per_sm) * u64::from(props.num_sms)) as f64
                / all_threads as f64
        } else {
            f64::INFINITY
        };
        let cap_smem = if p.smem_per_block > 0 {
            (u64::from(props.smem_per_sm) * u64::from(props.num_sms)) as f64
                / (u64::from(p.smem_per_block) * p.grid_blocks) as f64
        } else {
            f64::INFINITY
        };
        let cap = (by_launch
            .min(cap_threads.max(1.0))
            .min(cap_smem.max(1.0))
            .floor() as u32)
            .clamp(1, props.concurrency_degree());
        let tau = f64::from(p.threads_per_block);
        let v = m.add_var(&p.name, VarKind::Integer, 0.0, f64::from(cap), tau * beta);
        smem.push((v, f64::from(p.smem_per_block) * beta));
        threads.push((v, tau * beta));
        blocks.push((v, beta));
        conc.push((v, 1.0));
    }
    m.add_le_constraint("smem", &smem, f64::from(props.smem_per_sm));
    m.add_le_constraint("threads", &threads, f64::from(props.max_threads_per_sm));
    m.add_le_constraint("blocks", &blocks, f64::from(props.max_blocks_per_sm));
    m.add_le_constraint("conc_hi", &conc, f64::from(props.concurrency_degree()));
    m.add_ge_constraint("conc_lo", &conc, 1.0);
    m
}

/// Time `milp::solve_with_stats` over every profile set the pipeline
/// analyzed. Returns `(total ns, solves, branch-and-bound nodes)` and
/// asserts each optimum matches the analyzer's own stream count, so the
/// rebuilt model is the model the analyzer solves.
pub fn milp_probe(props: &DeviceProps, analyzed: &[Vec<KernelProfile>]) -> (u64, u64, u64) {
    let (mut ns, mut solves, mut nodes) = (0u64, 0u64, 0u64);
    for profiles in analyzed.iter().filter(|p| !p.is_empty()) {
        let model = analyzer_model(props, profiles);
        let t = Instant::now();
        let (sol, stats) =
            milp::branch::solve_with_stats(&model).expect("analyzer model is feasible");
        ns += t.elapsed().as_nanos() as u64;
        solves += 1;
        nodes += stats.nodes as u64;
        let streams: i64 = (0..profiles.len())
            .map(|i| sol.values[i].round() as i64)
            .sum::<i64>()
            .max(1);
        let want = analyze_profiles(props, profiles).streams;
        assert_eq!(
            streams.min(i64::from(props.concurrency_degree())),
            i64::from(want),
            "rebuilt MILP disagrees with the analyzer's plan"
        );
    }
    (ns, solves, nodes)
}
