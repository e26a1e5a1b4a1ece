//! The runtime scheduler: the Fig. 6 workflow.
//!
//! "At the beginning, the runtime scheduler checks whether configurations
//! of these kernels have been collected. If not, it will invoke the
//! resource tracker to gather the profiling information of these kernels
//! ... Then the information gathered is parsed by the kernel parser and
//! further analyzed by the kernel analyzer ... The runtime scheduler will
//! take the result into account to dispatch kernels in the following
//! iterations." Dispatch policy is round-robin over the stream pool, as in
//! the paper.

use crate::analyzer::KernelAnalyzer;
use crate::framework::{ExecMode, ExecReport, LayerKey};
use crate::optim::{fuse_group, reorder_groups, OptimConfig};
use crate::plan::{verify_capture, CaptureSource, ExecPlan, PlanCache};
use crate::streams::{StreamError, StreamManager};
use crate::tracker::ResourceTracker;
use gpu_sim::{Device, KernelDesc};
use sanitizer::{SampleSlots, Sanitizer};
use std::fmt::Write as _;

/// Emit a host-track instant plus a counter bump on the device's attached
/// recorder, if any. The name closure runs only when telemetry is
/// attached, so the disabled path performs no formatting and no
/// allocation. Every plan-cache event in the workspace ([`PlanCache`]'s)
/// and every profiling-stage event of this scheduler but the CUPTI ingest
/// instant (stamped with its batch's end, not the device clock) goes
/// through here, so the instant-then-counter order the trace files pin has
/// one definition.
pub(crate) fn tel_instant(
    dev: &Device,
    cat: &str,
    counter: &str,
    make_name: impl FnOnce() -> String,
) {
    dev.telemetry().with(|r| {
        r.instant(
            dev.telemetry_pid(),
            telemetry::HOST_TID,
            &make_name(),
            cat,
            dev.now(),
        );
        r.counter_add(counter, 1);
    });
}

/// Emit a host-track span `[start_ns, end_ns]` on the device's attached
/// recorder, if any.
pub(crate) fn tel_span(
    dev: &Device,
    cat: &str,
    start_ns: u64,
    end_ns: u64,
    make_name: impl FnOnce() -> String,
) {
    dev.telemetry().with(|r| {
        r.span(
            dev.telemetry_pid(),
            telemetry::HOST_TID,
            &make_name(),
            cat,
            start_ns,
            end_ns,
        );
    });
}

/// One thing to schedule: a layer's batch-split chunk groups — mutually
/// independent, each an ordered chain of dependent kernels (one sample's
/// `im2col → sgemm → bias`) — handed over lazily: on a plan-cache hit
/// neither closure runs, so steady-state iterations build no kernel
/// descriptors.
pub struct Schedule<G, S> {
    /// Builds the groups; called on a plan-cache miss only.
    pub make_groups: G,
    /// Builds the site's per-sample slot declaration, if the layer has
    /// one; called on a plan-cache miss with a sanitizer attached only.
    /// When every chunk stays in its slots, capture-time checking drops
    /// from two hazard sweeps (chunk unions, then plan nodes; each
    /// O(a log a) in the declared accesses plus the overlapping pairs
    /// found) to one pass over the accesses plus structural plan checks.
    /// The slots are checked against the *post-transform* groups: §6
    /// fusion merges a chain's kernels and keeps their accesses, so a
    /// fused capture still certifies; reordering moves a sample's chain
    /// to another chunk index, so a reordered capture misses its slots and
    /// falls back to the pairwise path.
    pub make_spec: S,
}

type Groups = Vec<Vec<KernelDesc>>;

// Constructor for the call sites that have no closures of their own: `fn`
// pointers stand in for the unused type parameters, so none needs naming.
impl Schedule<fn() -> Groups, fn() -> Option<SampleSlots>> {
    /// Chunk groups already built, no slot declaration.
    pub fn groups(
        groups: Groups,
    ) -> Schedule<impl FnOnce() -> Groups, fn() -> Option<SampleSlots>> {
        Schedule {
            make_groups: move || groups,
            make_spec: || None,
        }
    }
}

/// Per-GPU runtime scheduler.
#[derive(Debug)]
pub struct RuntimeScheduler {
    gpu: usize,
    optim: OptimConfig,
    /// `#` plus [`OptimConfig::cache_tag`], formatted once.
    tag: String,
    /// Reused `cache_key#tag` buffer: only a miss copies it.
    key: String,
}

impl RuntimeScheduler {
    /// Scheduler for device index `gpu` with the default (paper-faithful,
    /// optimizations off) configuration.
    pub fn new(gpu: usize) -> Self {
        Self::with_optim(gpu, OptimConfig::default())
    }

    /// Scheduler with explicit fusion/reordering configuration (the
    /// paper's §6 extensions).
    pub fn with_optim(gpu: usize, optim: OptimConfig) -> Self {
        RuntimeScheduler {
            gpu,
            tag: format!("#{}", optim.cache_tag()),
            key: String::new(),
            optim,
        }
    }

    /// Execute one schedule source on `dev`: the Fig. 6 workflow, the only
    /// copy of it.
    ///
    /// 1. *Replay.* The replay-or-capture step ([`PlanCache::lookup`])
    ///    finds a frozen plan for `key` (qualified by the optimizer
    ///    configuration, which changes the captured schedule) in `plans`,
    ///    the caller's cache: replay it. The hot loop does no analysis, no
    ///    MILP, no plan validation, no per-kernel allocation, and never
    ///    builds the source.
    /// 2. *Capture.* The concurrency plan for `key` is known: apply the
    ///    optional §6 transforms to chunk groups (using the plan's profiled
    ///    durations), freeze the schedule over the `C_out`-stream pool, and
    ///    let the step's miss verify it once and cache it; replay it.
    /// 3. *Profile.* First sight of `key`: run serially on the default
    ///    stream with the resource tracker recording, feed the parsed
    ///    profiles to the analyzer. The serial plan is transient —
    ///    profiling runs once per key.
    ///
    /// Every execution ends with a device-wide barrier (inside replay):
    /// the inter-layer synchronization of paper §2.1.
    ///
    /// With a [`Sanitizer`] attached, the source is checked on every
    /// non-replay execution and the plan about to be cached is validated
    /// once ([`verify_capture`]). The executed command trace is not
    /// replayed here: the caller that owns the device's whole command log
    /// (`nn::ExecCtx::dispatch`) replays it once, in full mode.
    // One parameter per Fig. 5 module plus the device's plan cache, the
    // source and the optional sanitizer; a params struct would just rename
    // the modules.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<G, S>(
        &mut self,
        dev: &mut Device,
        plans: &mut PlanCache,
        tracker: &ResourceTracker,
        analyzer: &mut KernelAnalyzer,
        streams: &StreamManager,
        key: &LayerKey,
        source: Schedule<G, S>,
        sanitizer: Option<&mut Sanitizer>,
    ) -> Result<ExecReport, StreamError>
    where
        G: FnOnce() -> Groups,
        S: FnOnce() -> Option<SampleSlots>,
    {
        self.key.clear();
        let _ = write!(self.key, "{key}");
        let key_len = self.key.len();
        self.key.push_str(&self.tag);
        let name = &self.key[..key_len];
        let miss = match plans.lookup(dev, &self.key, name) {
            Ok(plan) => return Ok(plan.replay(dev)),
            Err(miss) => miss,
        };

        // Build the source: what gets captured, and what gets verified if
        // a sanitizer is attached.
        let cplan = analyzer.plan_for(name).cloned();
        let mut groups = (source.make_groups)();
        if let Some(cplan) = &cplan {
            let overhead = dev.props().launch_overhead_ns;
            if self.optim.fusion {
                groups = groups
                    .into_iter()
                    .map(|g| {
                        fuse_group(
                            g,
                            &cplan.class_durations,
                            overhead,
                            self.optim.fusion_threshold_x,
                        )
                    })
                    .collect();
            }
            if self.optim.reordering {
                groups = reorder_groups(groups, &cplan.class_durations, overhead);
            }
        }
        // Only a slot-miss diagnostic names the site.
        let site = sanitizer
            .as_ref()
            .map_or_else(String::new, |_| key.site_key());
        let spec = sanitizer.as_ref().and_then(|_| (source.make_spec)());
        let source = CaptureSource {
            context: name,
            site: &site,
            spec: spec.as_ref(),
            groups: &groups,
        };

        if let Some(cplan) = cplan {
            let pool = streams.pool(dev, self.gpu, cplan.streams as usize)?;
            let mode = ExecMode::Concurrent {
                streams: cplan.streams,
            };
            let plan = ExecPlan::capture_round_robin(name, &groups, &pool, mode);
            return Ok(miss.capture(dev, sanitizer, source, plan).replay(dev));
        }

        // Chunks must be disjoint whatever the dispatch; the serial
        // profiling plan itself is trivially race-free.
        if let Some(san) = sanitizer {
            verify_capture(san, Some(source), None);
        }
        // Skip any trace entries produced since the last profiling window
        // (kernels of layers GLP4NN does not manage) before turning
        // recording on.
        let profile_start = dev.now();
        tracker.ingest(self.gpu, dev.trace());
        tracker.enable(self.gpu);
        let pool = [streams.default_stream(dev)];
        let plan = ExecPlan::capture_round_robin(name, &groups, &pool, ExecMode::Profiling);
        let report = plan.replay(dev);
        let n = tracker.ingest(self.gpu, dev.trace());
        // The profiler mirrors into the device's recorder: one instant per
        // ingested batch (the trace's last `n` kernels), stamped with its
        // last kernel's simulated end.
        if n > 0 {
            dev.telemetry().with(|r| {
                r.counter_add("cupti.records", n as u64);
                let batch = &dev.trace()[dev.trace().len() - n..];
                let end = batch.iter().map(|t| t.end_ns).max().unwrap_or(0);
                r.instant(
                    dev.telemetry_pid(),
                    telemetry::HOST_TID,
                    &format!("cupti.ingest x{n}"),
                    "cupti",
                    end,
                );
            });
        }
        tracker.disable(self.gpu);
        tel_span(dev, "profile", profile_start, dev.now(), || {
            format!("profile {name}")
        });
        let profiles = tracker.parse(self.gpu);
        dev.telemetry().with(|r| {
            let flushed = profiles.iter().map(|p| p.instances).sum();
            r.counter_add("cupti.flushed_records", flushed);
        });
        tel_instant(dev, "cupti", "cupti.flushes", || {
            format!("cupti.flush gpu{}", self.gpu)
        });
        analyzer.analyze(name, &profiles);
        tel_instant(dev, "milp", "milp.solves", || format!("milp.solve {name}"));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceProps, Dim3, KernelCost, LaunchConfig};

    fn groups(n: u64) -> Vec<Vec<KernelDesc>> {
        (0..n)
            .map(|i| {
                vec![
                    KernelDesc::new(
                        "im2col",
                        LaunchConfig::new(Dim3::linear(18), Dim3::linear(256), 33, 0),
                        KernelCost::new(3.0e5, 1.0e5),
                    )
                    .with_tag(i),
                    KernelDesc::new(
                        "sgemm",
                        LaunchConfig::new(Dim3::linear(24), Dim3::linear(128), 60, 8192),
                        KernelCost::new(6.0e6, 3.0e5),
                    )
                    .with_tag(i),
                ]
            })
            .collect()
    }

    /// One simulated GPU with its four Fig. 5 modules and its plan cache.
    struct Rig {
        dev: Device,
        plans: PlanCache,
        tracker: ResourceTracker,
        analyzer: KernelAnalyzer,
        streams: StreamManager,
        sched: RuntimeScheduler,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                dev: Device::new(DeviceProps::k40c()),
                plans: PlanCache::default(),
                tracker: ResourceTracker::new(1),
                analyzer: KernelAnalyzer::new(DeviceProps::k40c()),
                streams: StreamManager::new(1),
                sched: RuntimeScheduler::new(0),
            }
        }

        fn run(&mut self, key: &LayerKey, n: u64) -> ExecReport {
            self.sched
                .execute(
                    &mut self.dev,
                    &mut self.plans,
                    &self.tracker,
                    &mut self.analyzer,
                    &self.streams,
                    key,
                    Schedule::groups(groups(n)),
                    None,
                )
                .unwrap()
        }
    }

    #[test]
    fn first_run_profiles_then_concurrent() {
        let mut rig = Rig::new();
        let key = LayerKey::forward("net", "conv1");

        let r1 = rig.run(&key, 8);
        assert_eq!(r1.mode, ExecMode::Profiling);
        assert_eq!(r1.kernels, 16);
        assert!(rig.analyzer.plan_for(&key.cache_key()).is_some());

        let r2 = rig.run(&key, 8);
        match r2.mode {
            ExecMode::Concurrent { streams: s } => assert!(s >= 1),
            m => panic!("expected concurrent, got {m:?}"),
        }
    }

    #[test]
    fn concurrent_is_faster_for_small_kernels() {
        let mut rig = Rig::new();
        let key = LayerKey::forward("net", "conv1");
        let r1 = rig.run(&key, 16);
        let r2 = rig.run(&key, 16);
        assert!(
            r2.elapsed_ns < r1.elapsed_ns,
            "concurrent {} vs profiled/serial {}",
            r2.elapsed_ns,
            r1.elapsed_ns
        );
    }

    #[test]
    fn group_internal_order_is_preserved() {
        let mut rig = Rig::new();
        let key = LayerKey::forward("net", "conv1");
        rig.run(&key, 4);
        let trace_before = rig.dev.trace().len();
        rig.run(&key, 4);
        // For each tag, im2col must end before its sgemm starts.
        let new = &rig.dev.trace()[trace_before..];
        for tag in 0..4u64 {
            let im = new
                .iter()
                .find(|t| t.name == "im2col" && t.tag == tag)
                .unwrap();
            let gm = new
                .iter()
                .find(|t| t.name == "sgemm" && t.tag == tag)
                .unwrap();
            assert!(
                gm.start_ns >= im.end_ns,
                "tag {tag}: sgemm {} before im2col end {}",
                gm.start_ns,
                im.end_ns
            );
        }
    }

    #[test]
    fn different_layers_profile_independently() {
        let mut rig = Rig::new();
        let k1 = LayerKey::forward("net", "conv1");
        let k2 = LayerKey::forward("net", "conv2");
        assert_eq!(rig.run(&k1, 2).mode, ExecMode::Profiling);
        assert_eq!(rig.run(&k2, 2).mode, ExecMode::Profiling);
        assert_eq!(rig.analyzer.num_plans(), 2);
    }

    #[test]
    fn forward_and_backward_have_distinct_plans() {
        let mut rig = Rig::new();
        rig.run(&LayerKey::forward("net", "conv1"), 2);
        let r = rig.run(&LayerKey::backward("net", "conv1"), 2);
        assert_eq!(r.mode, ExecMode::Profiling);
    }
}
