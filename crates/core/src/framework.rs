//! The top-level GLP4NN framework object (the paper's Fig. 5).
//!
//! "GLP4NN supports multiple GPUs on the same machine. Each GPU device is
//! assigned with a private kernel analyzer and runtime scheduler, and all
//! GPUs in the same machine share a public resource tracker and stream
//! manager."

use crate::analyzer::KernelAnalyzer;
use crate::cost::CostReport;
use crate::optim::OptimConfig;
use crate::scheduler::{RuntimeScheduler, Schedule};
use crate::streams::{StreamError, StreamManager};
use crate::tracker::ResourceTracker;
use gpu_sim::{Device, DeviceProps, KernelDesc, SimTime};
use sanitizer::{Sanitizer, SymGroupSpec};

/// Error from framework-level execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Glp4nnError {
    /// The GPU slot exists but [`Glp4nn::register_device`] was never
    /// called for it (or the index is out of range).
    DeviceNotRegistered {
        /// The requested GPU index.
        gpu: usize,
    },
    /// The shared stream manager rejected the request.
    Stream(StreamError),
}

impl std::fmt::Display for Glp4nnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Glp4nnError::DeviceNotRegistered { gpu } => {
                write!(f, "device {gpu} not registered with Glp4nn")
            }
            Glp4nnError::Stream(e) => write!(f, "stream manager: {e}"),
        }
    }
}

impl std::error::Error for Glp4nnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Glp4nnError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for Glp4nnError {
    fn from(e: StreamError) -> Self {
        Glp4nnError::Stream(e)
    }
}

/// Which pass of training a layer execution belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward propagation (paper Algorithm 1).
    Forward,
    /// Backward propagation (paper Algorithm 2).
    Backward,
}

impl Phase {
    /// Short form used in every cache key, plan label and telemetry name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Forward => "fwd",
            Phase::Backward => "bwd",
        }
    }
}

/// Identity of a layer execution site, keying the concurrency maintainer's
/// plan cache.
///
/// The key is `net x layer x phase x chunks`: `chunks` is the number of
/// kernel groups the layer dispatches (the batch size under per-sample
/// batch-level parallelism). Keeping it in the key lets a serving engine
/// feed batches of varying size through one framework instance — each
/// batch shape is profiled once and then reuses its own cached plan, since
/// the analytical model's `C_out` depends on how many groups compete for
/// the device.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerKey {
    /// Network name.
    pub net: String,
    /// Layer name within the network.
    pub layer: String,
    /// Forward or backward pass.
    pub phase: Phase,
    /// Number of kernel groups dispatched (0 = shape-agnostic site).
    pub chunks: usize,
}

impl LayerKey {
    /// Key for a forward-pass execution.
    pub fn forward(net: &str, layer: &str) -> Self {
        LayerKey {
            net: net.to_string(),
            layer: layer.to_string(),
            phase: Phase::Forward,
            chunks: 0,
        }
    }

    /// Key for a backward-pass execution.
    pub fn backward(net: &str, layer: &str) -> Self {
        LayerKey {
            net: net.to_string(),
            layer: layer.to_string(),
            phase: Phase::Backward,
            chunks: 0,
        }
    }

    /// Same site, keyed to a specific chunk (group) count.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks;
        self
    }

    /// String form used by the plan cache.
    pub fn cache_key(&self) -> String {
        format!(
            "{}/{}/{}/c{}",
            self.net,
            self.layer,
            self.phase.as_str(),
            self.chunks
        )
    }

    /// Shape-independent dispatch-site key (`net/layer/phase`), used by
    /// the sanitizer's symbolic-certificate cache: one disjointness proof
    /// covers every chunk count the site is captured at.
    pub fn site_key(&self) -> String {
        format!("{}/{}/{}", self.net, self.layer, self.phase.as_str())
    }
}

/// How a layer execution was carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// First sight of the layer: serial run on the default stream with the
    /// resource tracker recording.
    Profiling,
    /// Dispatched round-robin over a pool of `streams` concurrent streams.
    Concurrent {
        /// Pool size used (`C_out` from the analytical model).
        streams: u32,
    },
}

/// Result of one layer execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Profiling or concurrent.
    pub mode: ExecMode,
    /// Simulated device time the layer took (ns).
    pub elapsed_ns: SimTime,
    /// Kernels launched.
    pub kernels: usize,
}

struct GpuRuntime {
    analyzer: KernelAnalyzer,
    scheduler: RuntimeScheduler,
}

/// The GLP4NN framework: shared tracker + stream manager, per-GPU analyzer
/// + scheduler.
pub struct Glp4nn {
    tracker: ResourceTracker,
    streams: StreamManager,
    gpus: Vec<Option<GpuRuntime>>,
    optim: OptimConfig,
}

impl Glp4nn {
    /// Framework managing `num_gpus` devices. Each device must be
    /// registered with [`register_device`](Self::register_device) before
    /// use.
    pub fn new(num_gpus: usize) -> Self {
        Self::with_optim(num_gpus, OptimConfig::default())
    }

    /// Framework with the paper's §6 kernel fusion / reordering
    /// extensions configured.
    pub fn with_optim(num_gpus: usize, optim: OptimConfig) -> Self {
        Glp4nn {
            tracker: ResourceTracker::new(num_gpus),
            streams: StreamManager::new(num_gpus),
            gpus: (0..num_gpus).map(|_| None).collect(),
            optim,
        }
    }

    /// Register device `gpu` with its hardware properties, creating its
    /// private kernel analyzer and runtime scheduler.
    pub fn register_device(&mut self, gpu: usize, props: &DeviceProps) {
        self.gpus[gpu] = Some(GpuRuntime {
            analyzer: KernelAnalyzer::new(props.clone()),
            scheduler: RuntimeScheduler::with_optim(gpu, self.optim),
        });
    }

    /// Number of GPU slots.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Enable or disable execution-plan reuse on every registered GPU.
    /// With reuse off each iteration re-captures (and re-validates) its
    /// schedule — the behaviour of the old imperative dispatch loops,
    /// kept as the baseline for replay-equivalence checks and benchmarks.
    pub fn set_plan_reuse(&mut self, on: bool) {
        for rt in self.gpus.iter_mut().flatten() {
            rt.scheduler.set_plan_reuse(on);
        }
    }

    /// How many execution plans device `gpu` has captured so far (cache
    /// misses; a steady-state workload should stop incrementing this).
    pub fn plan_captures(&self, gpu: usize) -> u64 {
        self.gpus[gpu]
            .as_ref()
            .map_or(0, |rt| rt.analyzer.exec_plans.captures())
    }

    /// How many analytical-model (MILP) solves device `gpu` has run.
    pub fn plan_solves(&self, gpu: usize) -> u64 {
        self.gpus[gpu].as_ref().map_or(0, |rt| rt.analyzer.solves())
    }

    /// Execute one schedule source — a layer's chunk groups — on device
    /// `gpu` through the runtime scheduler's workflow (profile once, then
    /// capture over the model-sized stream pool, then replay the frozen
    /// plan; see [`RuntimeScheduler::execute`]). With a [`Sanitizer`] attached the
    /// schedule is verified once, at capture, and (in full mode) the
    /// executed command trace is replayed after every execution.
    ///
    /// # Errors
    /// [`Glp4nnError::DeviceNotRegistered`] if `gpu` was never registered;
    /// nothing of `source` has been built or run in that case.
    pub fn execute<G, S>(
        &mut self,
        dev: &mut Device,
        gpu: usize,
        key: &LayerKey,
        source: Schedule<G, S>,
        sanitizer: Option<&mut Sanitizer>,
    ) -> Result<ExecReport, Glp4nnError>
    where
        G: FnOnce() -> Vec<Vec<KernelDesc>>,
        S: FnOnce() -> Option<SymGroupSpec>,
    {
        let rt = self
            .gpus
            .get_mut(gpu)
            .and_then(Option::as_mut)
            .ok_or(Glp4nnError::DeviceNotRegistered { gpu })?;
        rt.scheduler
            .execute(
                dev,
                &self.tracker,
                &mut rt.analyzer,
                &self.streams,
                key,
                source,
                sanitizer,
            )
            .map_err(Glp4nnError::from)
    }

    /// The cached concurrency plan for a layer, if analyzed.
    pub fn plan_for(&self, gpu: usize, key: &LayerKey) -> Option<crate::ConcurrencyPlan> {
        self.gpus[gpu]
            .as_ref()
            .and_then(|rt| rt.analyzer.plan_for(&key.cache_key()).cloned())
    }

    /// One-time overhead report for device `gpu` (Table 6 / Fig. 10 data).
    pub fn cost_report(&self, gpu: usize) -> CostReport {
        let o = self.tracker.overhead(gpu);
        let t_a = self.gpus[gpu]
            .as_ref()
            .map(|rt| rt.analyzer.total_analysis_time())
            .unwrap_or_default();
        CostReport {
            t_p: o.t_p,
            t_a,
            mem_tt_bytes: o.mem_tt_bytes,
            mem_k_bytes: o.mem_k_bytes,
            mem_cupti_bytes: o.mem_cupti_bytes,
            kernels_recorded: o.kernels_recorded,
        }
    }

    /// Shared resource tracker (for direct inspection).
    pub fn tracker(&self) -> &ResourceTracker {
        &self.tracker
    }

    /// Shared stream manager (for direct inspection).
    pub fn stream_manager(&self) -> &StreamManager {
        &self.streams
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
                    LaunchConfig::new(Dim3::linear(20), Dim3::linear(128), 48, 4096),
                    KernelCost::new(4.0e6, 2.0e5),
                )
                .with_tag(i)]
            })
            .collect()
    }

    #[test]
    fn layer_key_cache_keys_are_distinct() {
        assert_ne!(
            LayerKey::forward("n", "l").cache_key(),
            LayerKey::backward("n", "l").cache_key()
        );
        assert_ne!(
            LayerKey::forward("n", "l1").cache_key(),
            LayerKey::forward("n", "l2").cache_key()
        );
        assert_ne!(
            LayerKey::forward("n1", "l").cache_key(),
            LayerKey::forward("n2", "l").cache_key()
        );
        assert_ne!(
            LayerKey::forward("n", "l").with_chunks(8).cache_key(),
            LayerKey::forward("n", "l").with_chunks(16).cache_key()
        );
    }

    fn run(glp: &mut Glp4nn, dev: &mut Device, gpu: usize, key: &LayerKey, n: u64) -> ExecReport {
        glp.execute(dev, gpu, key, Schedule::groups(groups(n)), None)
            .unwrap()
    }

    #[test]
    fn multi_gpu_runtimes_are_private() {
        let mut glp = Glp4nn::new(2);
        let mut d0 = Device::new(DeviceProps::k40c());
        let mut d1 = Device::new(DeviceProps::p100());
        glp.register_device(0, d0.props());
        glp.register_device(1, d1.props());
        let key = LayerKey::forward("net", "conv1");

        // Profile on GPU 0 only.
        run(&mut glp, &mut d0, 0, &key, 4);
        assert!(glp.plan_for(0, &key).is_some());
        assert!(glp.plan_for(1, &key).is_none(), "analyzers are per-GPU");

        // GPU 1 profiles independently.
        let r = run(&mut glp, &mut d1, 1, &key, 4);
        assert_eq!(r.mode, ExecMode::Profiling);
        assert!(glp.plan_for(1, &key).is_some());
    }

    #[test]
    fn cost_report_populates_after_profiling() {
        let mut glp = Glp4nn::new(1);
        let mut dev = Device::new(DeviceProps::titan_xp());
        glp.register_device(0, dev.props());
        let key = LayerKey::forward("net", "conv1");
        run(&mut glp, &mut dev, 0, &key, 6);
        let c = glp.cost_report(0);
        assert_eq!(c.kernels_recorded, 6);
        assert!(c.t_a.as_nanos() > 0);
        assert!(c.mem_total_bytes() > c.mem_tt_bytes + c.mem_k_bytes);
    }

    #[test]
    fn unregistered_device_is_a_typed_error() {
        let mut glp = Glp4nn::new(1);
        let mut dev = Device::new(DeviceProps::p100());
        let key = LayerKey::forward("net", "l");
        let err = glp
            .execute(&mut dev, 0, &key, Schedule::groups(groups(1)), None)
            .unwrap_err();
        assert_eq!(err, Glp4nnError::DeviceNotRegistered { gpu: 0 });
        assert!(err.to_string().contains("not registered"), "{err}");
        // Out-of-range index is the same error, not a panic.
        assert_eq!(
            glp.execute(&mut dev, 9, &key, Schedule::groups(groups(1)), None),
            Err(Glp4nnError::DeviceNotRegistered { gpu: 9 })
        );
    }

    #[test]
    fn stream_pool_sized_by_plan() {
        let mut glp = Glp4nn::new(1);
        let mut dev = Device::new(DeviceProps::k40c());
        glp.register_device(0, dev.props());
        let key = LayerKey::forward("net", "conv1");
        run(&mut glp, &mut dev, 0, &key, 8);
        let plan = glp.plan_for(0, &key).unwrap();
        run(&mut glp, &mut dev, 0, &key, 8);
        assert_eq!(
            glp.stream_manager().pool_size(0).unwrap(),
            plan.streams as usize
        );
    }
}
