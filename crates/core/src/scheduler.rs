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
use crate::plan::{verify_capture, CaptureSource, ExecPlan};
use crate::streams::{StreamError, StreamManager};
use crate::tracker::ResourceTracker;
use gpu_sim::{Device, KernelDesc};
use sanitizer::{Sanitizer, SymGroupSpec};
use std::sync::Arc;

/// Emit a host-track instant plus a counter bump on the device's attached
/// recorder, if any. The name closure runs only when telemetry is
/// attached, so the disabled path performs no formatting and no
/// allocation. Every plan-cache event in the workspace (this scheduler's and
/// `nn::ExecCtx`'s self-dispatched modes) goes through here, so the
/// instant-then-counter order the trace files pin has one definition.
pub fn tel_instant(dev: &Device, cat: &str, counter: &str, make_name: impl FnOnce() -> String) {
    if let Some(rec) = dev.telemetry() {
        let mut r = rec.lock().unwrap_or_else(|p| p.into_inner());
        r.instant(
            dev.telemetry_pid(),
            telemetry::HOST_TID,
            &make_name(),
            cat,
            dev.now(),
        );
        r.counter_add(counter, 1);
    }
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
    if let Some(rec) = dev.telemetry() {
        let mut r = rec.lock().unwrap_or_else(|p| p.into_inner());
        r.span(
            dev.telemetry_pid(),
            telemetry::HOST_TID,
            &make_name(),
            cat,
            start_ns,
            end_ns,
        );
    }
}

/// One thing to schedule: a layer's batch-split chunk groups — mutually
/// independent, each an ordered chain of dependent kernels (one sample's
/// `im2col → sgemm → bias`) — handed over lazily: on a plan-cache hit
/// neither closure runs, so steady-state iterations build no kernel
/// descriptors.
pub struct Schedule<G, S> {
    /// Builds the groups; called on a plan-cache miss only.
    pub make_groups: G,
    /// Builds the site's symbolic access declaration, if the layer has
    /// one; called on a plan-cache miss with a sanitizer attached only.
    /// With a `Proven` certificate for `key.site_key()`, capture-time
    /// checking drops from two hazard sweeps (chunk unions, then plan
    /// nodes; each O(a log a) in the declared accesses plus the
    /// overlapping pairs found) to an O(chunks) conformance check plus
    /// structural plan checks. Conformance runs against the
    /// *post-transform* groups: §6 fusion/reordering rewrites kernels,
    /// so transformed schedules fall back to the pairwise path by
    /// construction.
    pub make_spec: S,
}

type Groups = Vec<Vec<KernelDesc>>;

// Constructor for the call sites that have no closures of their own: `fn`
// pointers stand in for the unused type parameters, so none needs naming.
impl Schedule<fn() -> Groups, fn() -> Option<SymGroupSpec>> {
    /// Chunk groups already built, no symbolic spec.
    pub fn groups(
        groups: Groups,
    ) -> Schedule<impl FnOnce() -> Groups, fn() -> Option<SymGroupSpec>> {
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
    plan_reuse: bool,
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
            optim,
            plan_reuse: true,
        }
    }

    /// Enable or disable execution-plan reuse. With reuse off every
    /// iteration re-captures (and re-validates) its schedule — the
    /// behaviour of the old imperative dispatch loop, kept as a baseline
    /// for the replay-equivalence checks and benchmarks.
    pub fn set_plan_reuse(&mut self, on: bool) {
        self.plan_reuse = on;
    }

    /// Execute one schedule source on `dev`: the Fig. 6 workflow, the only
    /// copy of it.
    ///
    /// 1. *Replay.* A frozen plan is cached for `key` (qualified by the
    ///    optimizer configuration, which changes the captured schedule):
    ///    replay it. The hot loop does no analysis, no MILP, no plan
    ///    validation, no per-kernel allocation, and never builds the source.
    /// 2. *Capture.* The concurrency plan for `key` is known: apply the
    ///    optional §6 transforms to chunk groups (using the plan's profiled
    ///    durations), freeze the schedule over the `C_out`-stream pool,
    ///    verify it once, cache it, replay it.
    /// 3. *Profile.* First sight of `key`: run serially on the default
    ///    stream with the resource tracker recording, feed the parsed
    ///    profiles to the analyzer. The serial plan is transient —
    ///    profiling runs once per key.
    ///
    /// With a [`Sanitizer`] attached, the source is checked on every
    /// non-replay execution and the plan about to be cached is validated
    /// once ([`verify_capture`]); in full mode the executed command trace
    /// is additionally replayed after every execution.
    // One parameter per Fig. 5 module plus the source and the optional
    // sanitizer; a params struct would just rename the modules.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<G, S>(
        &mut self,
        dev: &mut Device,
        tracker: &ResourceTracker,
        analyzer: &mut KernelAnalyzer,
        streams: &StreamManager,
        key: &LayerKey,
        source: Schedule<G, S>,
        mut sanitizer: Option<&mut Sanitizer>,
    ) -> Result<ExecReport, StreamError>
    where
        G: FnOnce() -> Groups,
        S: FnOnce() -> Option<SymGroupSpec>,
    {
        // Inter-layer synchronization (paper §2.1): every execution ends
        // with a device-wide barrier (inside replay).
        let run = |plan: &ExecPlan, dev: &mut Device, san: Option<&mut Sanitizer>| {
            let report = plan.replay(dev);
            if let Some(san) = san {
                san.check_device(dev);
            }
            report
        };

        let key_str = key.cache_key();
        let plan_key = format!("{key_str}#{}", self.optim.cache_tag());
        if self.plan_reuse {
            if let Some(plan) = analyzer.exec_plans.get(&plan_key).cloned() {
                tel_instant(dev, "plan", "plan.cache_hits", || {
                    format!("plan.replay {key_str}")
                });
                return Ok(run(&plan, dev, sanitizer));
            }
        }

        // Build the source: what gets captured, and what gets verified if
        // a sanitizer is attached.
        let cplan = analyzer.plan_for(&key_str).cloned();
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
        let site = key.site_key();
        let spec = sanitizer.as_ref().and_then(|_| (source.make_spec)());
        let source = CaptureSource {
            context: &key_str,
            site: &site,
            spec: spec.as_ref(),
            groups: &groups,
        };

        if let Some(cplan) = cplan {
            let pool = streams.pool(dev, self.gpu, cplan.streams as usize)?;
            let mode = ExecMode::Concurrent {
                streams: cplan.streams,
            };
            let plan = Arc::new(ExecPlan::capture_round_robin(
                &key_str, &groups, &pool, mode,
            ));
            if let Some(san) = sanitizer.as_deref_mut() {
                verify_capture(san, Some(source), Some(&plan));
            }
            analyzer.exec_plans.store(plan_key, Arc::clone(&plan));
            tel_instant(dev, "plan", "plan.captures", || {
                format!("plan.capture {key_str}")
            });
            return Ok(run(&plan, dev, sanitizer));
        }

        // Chunks must be disjoint whatever the dispatch; the serial
        // profiling plan itself is trivially race-free.
        if let Some(san) = sanitizer.as_deref_mut() {
            verify_capture(san, Some(source), None);
        }
        // Skip any trace entries produced since the last profiling window
        // (kernels of layers GLP4NN does not manage) before turning
        // recording on.
        let profile_start = dev.now();
        tracker.ingest(self.gpu, dev.trace());
        tracker.enable(self.gpu);
        let pool = [streams.default_stream(dev)];
        let plan = ExecPlan::capture_round_robin(&key_str, &groups, &pool, ExecMode::Profiling);
        let report = run(&plan, dev, sanitizer);
        tracker.ingest(self.gpu, dev.trace());
        tracker.disable(self.gpu);
        tel_span(dev, "profile", profile_start, dev.now(), || {
            format!("profile {key_str}")
        });
        let profiles = tracker.parse(self.gpu);
        tel_instant(dev, "cupti", "cupti.flushes", || {
            format!("cupti.flush gpu{}", self.gpu)
        });
        analyzer.analyze(&key_str, &profiles);
        tel_instant(dev, "milp", "milp.solves", || {
            format!("milp.solve {key_str}")
        });
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

    /// One simulated GPU with its four Fig. 5 modules.
    struct Rig {
        dev: Device,
        tracker: ResourceTracker,
        analyzer: KernelAnalyzer,
        streams: StreamManager,
        sched: RuntimeScheduler,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                dev: Device::new(DeviceProps::k40c()),
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
