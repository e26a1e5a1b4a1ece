//! Execution plans: capture-once / replay-many dispatch.
//!
//! After the first profiled run of a layer-phase the schedule is a pure
//! function of (network, layer, phase, chunk count, device, optimizer
//! config) — yet the runtime used to re-derive it and re-validate it on
//! every iteration. An [`ExecPlan`] freezes the outcome of that decision
//! process once, at *capture* time: the kernels to launch (shared, not
//! cloned per launch), the stream each goes to, and the event record/wait
//! edges between streams. *Replay* then walks the frozen step list against
//! a [`Device`] in a tight loop — no MILP solve, no plan validation, no
//! per-kernel heap allocation — the same division of labour as CUDA
//! Graphs' `cudaGraphInstantiate` / `cudaGraphLaunch`.
//!
//! All dispatch front-ends lower to this IR, cached in the one
//! [`PlanCache`] of the context that owns the device:
//!
//! * [`RuntimeScheduler::execute`](crate::scheduler::RuntimeScheduler::execute)
//!   captures its round-robin group schedule (after §6 fusion/reordering);
//! * the naive and fixed-stream modes of `nn::exec::ExecCtx` are trivially
//!   captured single-pool plans;
//! * `interop`'s whole-net wave scheduler captures its operator DAG with an
//!   explicit stream assignment
//!   ([`capture_assigned`](ExecPlan::capture_assigned)).
//!
//! The first two share one replay-or-capture step ([`PlanCache::lookup`]).
//!
//! The contract mirrors CUDA Graphs: a captured plan freezes kernel
//! geometry, so the cache key must cover everything the kernels depend on
//! (here: layer, phase, batch/chunk count, dispatch mode, device).

use crate::framework::{ExecMode, ExecReport};
use crate::scheduler::tel_instant;
use gpu_sim::{Device, EventId, KernelDesc, Recording, StreamId};
use sanitizer::{PlanNodeRef, SampleSlots, Sanitizer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh plan id, the plan's key in [`Device::replay_memo`].
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One step of a frozen execution plan. Streams, kernels, and events are
/// indices into the owning plan's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStep {
    /// Launch `kernel` on `stream`.
    Launch {
        /// Index into the plan's stream table.
        stream: u16,
        /// Index into the plan's kernel table.
        kernel: u32,
    },
    /// Record plan-local event `event` on `stream`.
    Record {
        /// Index into the plan's stream table.
        stream: u16,
        /// Plan-local event number.
        event: u32,
    },
    /// Make `stream` wait for plan-local event `event`.
    Wait {
        /// Index into the plan's stream table.
        stream: u16,
        /// Plan-local event number.
        event: u32,
    },
}

/// A frozen, validated description of one layer-phase's dispatch.
///
/// Produced by [`capture_round_robin`](ExecPlan::capture_round_robin) or
/// [`capture_assigned`](ExecPlan::capture_assigned); executed by
/// [`replay`](ExecPlan::replay). Cheap to share (`Arc<ExecPlan>`): replay
/// takes `&self`.
#[derive(Debug)]
pub struct ExecPlan {
    id: u64,
    label: String,
    /// Resolved device streams. Stream-manager pools only ever grow, so
    /// these stay valid for the lifetime of the device.
    streams: Vec<StreamId>,
    kernels: Vec<Arc<KernelDesc>>,
    steps: Vec<PlanStep>,
    num_events: u32,
    mode: ExecMode,
    /// Pool-relative stream index per kernel (validation view).
    node_stream: Vec<usize>,
    /// Declared happens-before dependencies per kernel (validation view).
    node_deps: Vec<Vec<usize>>,
}

impl ExecPlan {
    fn empty(label: &str, pool: &[StreamId], mode: ExecMode) -> Self {
        assert!(!pool.is_empty(), "capture needs at least one stream");
        ExecPlan {
            id: next_id(),
            label: label.to_string(),
            streams: pool.to_vec(),
            kernels: Vec::new(),
            steps: Vec::new(),
            num_events: 0,
            mode,
            node_stream: Vec::new(),
            node_deps: Vec::new(),
        }
    }

    /// Capture the round-robin group schedule: group `g` goes to
    /// `pool[g % pool.len()]`, kernels inside a group stay in order on
    /// that stream (stream FIFO ordering — no events needed). Issue order
    /// is group-major, identical to the imperative loop this replaces.
    pub fn capture_round_robin(
        label: &str,
        groups: &[Vec<KernelDesc>],
        pool: &[StreamId],
        mode: ExecMode,
    ) -> Self {
        let mut plan = Self::empty(label, pool, mode);
        for (g, group) in groups.iter().enumerate() {
            let sidx = g % pool.len();
            let mut prev: Option<usize> = None;
            for k in group {
                let ki = plan.kernels.len();
                plan.kernels.push(Arc::new(k.clone()));
                plan.steps.push(PlanStep::Launch {
                    stream: sidx as u16,
                    kernel: ki as u32,
                });
                plan.node_stream.push(sidx);
                plan.node_deps.push(prev.into_iter().collect());
                prev = Some(ki);
            }
        }
        plan
    }

    /// Capture a DAG schedule with an *explicit* per-node stream
    /// assignment — the form produced by schedulers that decide stream
    /// placement themselves (the inter-operator wave scheduler assigns
    /// each operator's chunk groups to a dedicated sub-pool). Cross-stream
    /// dependencies become record/wait edges; same-stream dependencies are
    /// satisfied by stream FIFO order and emit nothing. An event is
    /// recorded only for nodes some later cross-stream node actually waits
    /// on, so replays create no dead events (and the linter's unused-event
    /// check stays quiet).
    ///
    /// `deps[i]` must only reference earlier nodes (`d < i`); later
    /// references are ignored. `stream_of[i]` indexes into `pool`. The
    /// plan shares the descriptors in `nodes` (a reference-count bump per
    /// node), so several captures of one staged pass copy no kernel.
    pub fn capture_assigned(
        label: &str,
        nodes: &[Arc<KernelDesc>],
        deps: &[Vec<usize>],
        stream_of: &[usize],
        pool: &[StreamId],
        mode: ExecMode,
    ) -> Self {
        let n = nodes.len();
        assert_eq!(n, deps.len(), "deps table must cover every node");
        assert_eq!(n, stream_of.len(), "stream table must cover every node");
        let mut plan = Self::empty(label, pool, mode);
        let mut needs_event = vec![false; n];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                if d < i && stream_of[d] != stream_of[i] {
                    needs_event[d] = true;
                }
            }
        }
        let mut event_of: Vec<u32> = vec![u32::MAX; n];
        for i in 0..n {
            let sidx = stream_of[i];
            assert!(sidx < pool.len(), "node {i} assigned outside the pool");
            for &d in &deps[i] {
                if d < i && stream_of[d] != sidx {
                    plan.steps.push(PlanStep::Wait {
                        stream: sidx as u16,
                        event: event_of[d],
                    });
                }
            }
            let ki = plan.kernels.len() as u32;
            plan.kernels.push(Arc::clone(&nodes[i]));
            plan.steps.push(PlanStep::Launch {
                stream: sidx as u16,
                kernel: ki,
            });
            if needs_event[i] {
                let ev = plan.num_events;
                plan.num_events += 1;
                plan.steps.push(PlanStep::Record {
                    stream: sidx as u16,
                    event: ev,
                });
                event_of[i] = ev;
            }
            plan.node_stream.push(sidx);
            plan.node_deps
                .push(deps[i].iter().copied().filter(|&d| d < i).collect());
        }
        plan
    }

    /// The same frozen schedule bound to another stream pool of the same
    /// size — a candidate measured on a scratch device (its run recorded by
    /// [`Device::run_recorded`]), re-targeted at `dev`, the device that will
    /// execute it. Tables are copied, kernel descriptors shared; nothing is
    /// re-derived. When `pool` holds the probe's own stream ids, `probe`,
    /// the recording of its run, becomes `dev`'s recording of the new plan
    /// ([`Device::seed_memo`]): the new plan's replays on a quiescent `dev`
    /// apply the probe's run instead of simulating it again. Under other ids
    /// the plan starts the memo's usual life: stream ids order simultaneous
    /// events, so a shifted recording would not be the same run.
    pub fn on_pool(&self, dev: &mut Device, pool: &[StreamId], probe: Option<Recording>) -> Self {
        assert_eq!(
            pool.len(),
            self.streams.len(),
            "a plan is re-targeted at a pool of its own size"
        );
        let id = next_id();
        if let Some(rec) = probe.filter(|_| pool == self.streams.as_slice()) {
            dev.seed_memo(id, rec);
        }
        ExecPlan {
            id,
            label: self.label.clone(),
            streams: pool.to_vec(),
            kernels: self.kernels.clone(),
            steps: self.steps.clone(),
            num_events: self.num_events,
            mode: self.mode,
            node_stream: self.node_stream.clone(),
            node_deps: self.node_deps.clone(),
        }
    }

    /// Replay the plan: issue every step, run the device to completion,
    /// and report. The hot loop performs no analysis, no validation, and
    /// no per-kernel heap allocation (kernel descriptors are shared via
    /// `Arc`; events, if any, are created in one batch up front). Goes
    /// through the device's replay memo under the plan's id, so a warm
    /// plan on an idle device applies its recorded outcome instead
    /// ([`Device::replay_memo`]).
    pub fn replay(&self, dev: &mut Device) -> ExecReport {
        let t0 = dev.now();
        let end = dev.replay_memo(self.id, |dev| self.issue(dev));
        ExecReport {
            mode: self.mode,
            elapsed_ns: end - t0,
            kernels: self.kernels.len(),
        }
    }

    /// Issue every step of the plan without running the device. Callers
    /// that need the simulation driven to completion follow with
    /// [`Device::run`] (or use [`replay`](ExecPlan::replay)).
    pub fn issue(&self, dev: &mut Device) {
        // Events are one-shot in the simulator (as in CUDA without
        // explicit reset), so each replay gets a fresh batch.
        let mut events: Vec<EventId> = Vec::with_capacity(self.num_events as usize);
        for _ in 0..self.num_events {
            events.push(dev.create_event());
        }
        for step in &self.steps {
            match *step {
                PlanStep::Launch { stream, kernel } => {
                    dev.launch_shared(
                        self.streams[stream as usize],
                        Arc::clone(&self.kernels[kernel as usize]),
                    );
                }
                PlanStep::Record { stream, event } => {
                    dev.record_event(self.streams[stream as usize], events[event as usize]);
                }
                PlanStep::Wait { stream, event } => {
                    dev.wait_event(self.streams[stream as usize], events[event as usize]);
                }
            }
        }
    }

    /// Label the plan was captured under (sanitizer context string).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Execution mode reported by [`replay`](ExecPlan::replay).
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Number of kernels the plan launches per replay.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// The device streams this plan issues onto (the capture pool).
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// Number of streams the plan dispatches across.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Number of plan-local events created per replay.
    pub fn num_events(&self) -> usize {
        self.num_events as usize
    }

    /// The frozen step list.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Kernel descriptor `i` of the plan's kernel table.
    pub fn kernel(&self, i: usize) -> &KernelDesc {
        &self.kernels[i]
    }

    /// Pool-relative stream index per kernel (validation view).
    pub fn node_streams(&self) -> &[usize] {
        &self.node_stream
    }

    /// Declared happens-before dependencies of kernel `i` (validation view).
    pub fn node_deps(&self, i: usize) -> &[usize] {
        &self.node_deps[i]
    }
}

/// Frozen plans by cache key, plus the count of plans ever stored — the
/// capture-once / replay-many cache. Each `nn::ExecCtx` owns exactly one:
/// its self-dispatched modes and the runtime scheduler reach it through the
/// replay-or-capture step ([`lookup`](PlanCache::lookup), then
/// [`PlanMiss::capture`]), `interop`'s whole-net plans through `get` and
/// `store`. The count is the cache-correctness probe: a steady-state
/// workload stops incrementing it.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<String, Arc<ExecPlan>>,
    captures: u64,
    /// Plan reuse switched off: [`lookup`](PlanCache::lookup) always misses.
    recapture: bool,
}

impl PlanCache {
    /// Switch plan reuse off, so every dispatch re-captures and re-validates
    /// its schedule like the old imperative launch loops: the reference arm
    /// of the replay-equivalence checks. [`get`](PlanCache::get) ignores it.
    pub fn disable_reuse(&mut self) {
        self.recapture = true;
    }

    /// Look up a frozen plan, whether or not reuse is on.
    pub fn get(&self, key: &str) -> Option<&Arc<ExecPlan>> {
        self.plans.get(key)
    }

    /// Store a captured plan under `key`, counted, with a
    /// `plan.capture {name}` instant on `dev`'s recorder, if any.
    pub fn store(&mut self, dev: &Device, key: &str, name: &str, plan: Arc<ExecPlan>) {
        tel_instant(dev, "plan", "plan.captures", || {
            format!("plan.capture {name}")
        });
        self.captures += 1;
        self.plans.insert(key.to_string(), plan);
    }

    /// Plans stored so far (cache misses that led to a capture).
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// The replay-or-capture step: the plan cached under `key`, with a
    /// `plan.replay {name}` instant (one map lookup, no allocation), or the
    /// miss through which the caller's capture is verified and stored.
    /// `name` is the traced name (the scheduler's drops its optimizer tag).
    pub fn lookup<'c>(
        &'c mut self,
        dev: &Device,
        key: &'c str,
        name: &'c str,
    ) -> Result<Arc<ExecPlan>, PlanMiss<'c>> {
        if !self.recapture {
            if let Some(plan) = self.plans.get(key) {
                tel_instant(dev, "plan", "plan.cache_hits", || {
                    format!("plan.replay {name}")
                });
                return Ok(Arc::clone(plan));
            }
        }
        let cache = self;
        Err(PlanMiss { cache, key, name })
    }
}

/// A [`PlanCache::lookup`] miss, holding the key the capture is stored under.
#[derive(Debug)]
pub struct PlanMiss<'c> {
    cache: &'c mut PlanCache,
    key: &'c str,
    name: &'c str,
}

impl PlanMiss<'_> {
    /// Verify the caller's capture against its `source` if a sanitizer is
    /// given ([`verify_capture`]; traced runs add its wall time to
    /// `sanitize.verify_ns` and count `sanitize.certified_captures`), then
    /// [`store`](PlanCache::store) it and return it for replay.
    pub fn capture(
        self,
        dev: &Device,
        sanitizer: Option<&mut Sanitizer>,
        source: CaptureSource<'_>,
        plan: ExecPlan,
    ) -> Arc<ExecPlan> {
        if let Some(san) = sanitizer {
            let t0 = dev.telemetry().is_attached().then(std::time::Instant::now);
            let certified = verify_capture(san, Some(source), Some(&plan));
            if let Some(t0) = t0 {
                dev.telemetry().with(|r| {
                    r.counter_add("sanitize.verify_ns", t0.elapsed().as_nanos() as u64);
                    if certified {
                        r.counter_add("sanitize.certified_captures", 1);
                    }
                });
            }
        }
        let plan = Arc::new(plan);
        self.cache
            .store(dev, self.key, self.name, Arc::clone(&plan));
        plan
    }
}

/// What a schedule was captured from, as capture-time verification sees it:
/// the batch-split chunk groups of one dispatch site.
#[derive(Debug, Clone, Copy)]
pub struct CaptureSource<'a> {
    /// Sanitizer context string for diagnostics.
    pub context: &'a str,
    /// Shape-independent site key (`net/layer/phase`), named by a
    /// slot-miss diagnostic.
    pub site: &'a str,
    /// The layer's per-sample slot declaration, when it has one.
    pub spec: Option<&'a SampleSlots>,
    /// One kernel chain per chunk.
    pub groups: &'a [Vec<KernelDesc>],
}

/// Capture-time verification, run once per captured schedule and never on
/// replay. First the `source` the schedule was built from: chunk regions
/// must be disjoint (admitted by the site's sample slots when it declares
/// them and every chunk stays in its slots, pairwise otherwise). Then the `plan` about to be
/// cached: the static plan check over its frozen tables, then the linter if
/// one is attached — one analysis ([`Sanitizer::verify_plan`]: one
/// happens-before relation, one closure, one hazard sweep) feeding both. A
/// plan whose source was certified skips the hazard sweep and keeps only the
/// structural checks; a plan verified without its source (one spanning
/// several sites) always gets the sweep, which costs O(a log a) in the
/// plan's declared accesses plus the overlapping pairs it finds, not
/// O(kernels²). Returns whether the source was certified.
pub fn verify_capture(
    san: &mut Sanitizer,
    source: Option<CaptureSource<'_>>,
    plan: Option<&ExecPlan>,
) -> bool {
    let certified = source.is_some_and(|src| match src.spec {
        Some(spec) => san.check_chunks_spec(src.context, src.site, spec, src.groups),
        None => {
            san.check_chunks(src.context, src.groups);
            false
        }
    });
    if let Some(plan) = plan {
        let nodes: Vec<PlanNodeRef<'_>> = (0..plan.kernels.len())
            .map(|i| PlanNodeRef {
                kernel: &plan.kernels[i],
                stream: plan.node_stream[i],
                deps: &plan.node_deps[i],
            })
            .collect();
        san.verify_plan(&plan.label, &nodes, plan.num_events > 0, certified);
    }
    certified
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceProps, Dim3, KernelCost, LaunchConfig};

    fn kernel(name: &str, blocks: u32, threads: u32, flops: f64) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), 32, 0),
            KernelCost::new(flops, flops / 4.0),
        )
    }

    fn timeline(dev: &Device) -> Vec<(String, u32, u64, u64, u64)> {
        dev.trace()
            .iter()
            .map(|t| {
                (
                    t.name.to_string(),
                    t.stream.raw(),
                    t.launch_ns,
                    t.start_ns,
                    t.end_ns,
                )
            })
            .collect()
    }

    #[test]
    fn round_robin_replay_matches_imperative_loop() {
        let groups: Vec<Vec<KernelDesc>> = (0..5)
            .map(|g| {
                (0..3)
                    .map(|j| kernel(&format!("k{g}_{j}"), 8 + g, 128, 1.0e6 * (j + 1) as f64))
                    .collect()
            })
            .collect();

        // Imperative reference: the loop the scheduler used to run.
        let mut dev_a = Device::new(DeviceProps::p100());
        let pool_a: Vec<_> = (0..3).map(|_| dev_a.create_stream()).collect();
        for (i, group) in groups.iter().enumerate() {
            let sid = pool_a[i % pool_a.len()];
            for k in group {
                dev_a.launch(sid, k.clone());
            }
        }
        let end_a = dev_a.run();

        // Captured plan, replayed twice.
        let mut dev_b = Device::new(DeviceProps::p100());
        let pool_b: Vec<_> = (0..3).map(|_| dev_b.create_stream()).collect();
        let plan = ExecPlan::capture_round_robin(
            "test",
            &groups,
            &pool_b,
            ExecMode::Concurrent { streams: 3 },
        );
        let r1 = plan.replay(&mut dev_b);
        assert_eq!(end_a, r1.elapsed_ns);
        assert_eq!(timeline(&dev_a), timeline(&dev_b));
        assert_eq!(r1.kernels, 15);

        let r2 = plan.replay(&mut dev_b);
        assert_eq!(r1.elapsed_ns, r2.elapsed_ns, "replay must be deterministic");
    }

    #[test]
    fn round_robin_matches_group_scheduler_shape() {
        let k = |name| kernel(name, 8, 128, 1.0e5);
        let groups = vec![vec![k("a0"), k("a1")], vec![k("b0")], vec![k("c0")]];
        let mut dev = Device::new(DeviceProps::p100());
        let pool: Vec<_> = (0..2).map(|_| dev.create_stream()).collect();
        let mode = ExecMode::Concurrent { streams: 2 };
        let p = ExecPlan::capture_round_robin("t", &groups, &pool, mode);
        assert_eq!(p.num_kernels(), 4);
        assert_eq!(p.node_streams(), &[0, 0, 1, 0]);
        assert_eq!(p.node_deps(1), &[0], "chain edge inside group");
        assert!(p.node_deps(2).is_empty());
    }

    fn shared(kernels: Vec<KernelDesc>) -> Vec<Arc<KernelDesc>> {
        kernels.into_iter().map(Arc::new).collect()
    }

    /// `(start_ns, end_ns)` of the traced kernel called `name`.
    fn span(dev: &Device, name: &str) -> (u64, u64) {
        let t = dev.trace().iter().find(|t| &*t.name == name).unwrap();
        (t.start_ns, t.end_ns)
    }

    #[test]
    fn assigned_diamond_is_enforced_across_streams() {
        // Diamond a -> {b, c} -> d with c alone on the second stream.
        let nodes = shared(vec![
            kernel("a", 14, 256, 5.0e6),
            kernel("b", 14, 256, 5.0e6),
            kernel("c", 14, 256, 5.0e6),
            kernel("d", 14, 256, 5.0e6),
        ]);
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let mut dev = Device::new(DeviceProps::p100());
        let pool: Vec<_> = (0..2).map(|_| dev.create_stream()).collect();
        let plan = ExecPlan::capture_assigned(
            "diamond",
            &nodes,
            &deps,
            &[0, 0, 1, 0],
            &pool,
            ExecMode::Concurrent { streams: 2 },
        );

        // Only the two cross-stream edges (a -> c, c -> d) cost an event:
        // a -> b and b -> d ride stream FIFO order, and b and d, which no
        // other stream waits on, record nothing.
        let (launch, record, wait) = (
            |stream, kernel| PlanStep::Launch { stream, kernel },
            |stream, event| PlanStep::Record { stream, event },
            |stream, event| PlanStep::Wait { stream, event },
        );
        assert_eq!(
            plan.steps(),
            &[
                launch(0, 0),
                record(0, 0),
                launch(0, 1),
                wait(1, 0),
                launch(1, 2),
                record(1, 1),
                wait(0, 1),
                launch(0, 3),
            ]
        );
        assert_eq!(plan.num_events(), 2);
        assert_eq!(plan.node_streams(), &[0, 0, 1, 0]);
        assert_eq!(plan.node_deps(3), &[1, 2]);

        let r = plan.replay(&mut dev);
        assert_eq!(r.kernels, 4);
        let (a, b, c, d) = (
            span(&dev, "a"),
            span(&dev, "b"),
            span(&dev, "c"),
            span(&dev, "d"),
        );
        assert!(b.0 >= a.1, "b after a");
        assert!(c.0 >= a.1, "c after a");
        assert!(d.0 >= b.1, "d after b");
        assert!(d.0 >= c.1, "d after c");
    }

    #[test]
    fn a_retargeted_plan_shares_kernels_and_replays_the_same_timeline() {
        let nodes = shared(vec![
            kernel("a", 14, 256, 5.0e6),
            kernel("b", 14, 256, 5.0e6),
            kernel("c", 14, 256, 5.0e6),
        ]);
        let deps = vec![vec![], vec![0], vec![0, 1]];
        let mode = ExecMode::Concurrent { streams: 2 };
        let mut scratch = Device::new(DeviceProps::p100());
        let scratch_pool: Vec<_> = (0..2).map(|_| scratch.create_stream()).collect();
        let probed =
            ExecPlan::capture_assigned("p", &nodes, &deps, &[0, 1, 0], &scratch_pool, mode);

        let probe = scratch.run_recorded(|d| probed.issue(d));
        let r1 = ExecReport {
            mode,
            elapsed_ns: scratch.now(),
            kernels: 3,
        };
        let spans = |d: &Device| -> Vec<_> {
            let trace = d.trace().iter();
            trace
                .map(|t| (t.name.to_string(), t.stream, t.start_ns, t.end_ns))
                .collect()
        };

        // The executing device's pool sits at other stream ids: the plan
        // is re-targeted, and its replay simulates.
        let mut dev = Device::new(DeviceProps::p100());
        dev.create_stream();
        let pool: Vec<_> = (0..2).map(|_| dev.create_stream()).collect();
        assert_ne!(pool, scratch_pool);
        let plan = probed.on_pool(&mut dev, &pool, probe.clone());
        assert_eq!(plan.streams(), &pool[..]);
        assert_eq!(plan.steps(), probed.steps());
        assert_eq!(plan.node_streams(), probed.node_streams());
        assert_eq!(plan.node_deps(2), probed.node_deps(2));
        assert_eq!((plan.num_events(), plan.mode()), (2, mode));
        assert!((0..3).all(|i| Arc::ptr_eq(&plan.kernels[i], &nodes[i])));
        assert_eq!(plan.replay(&mut dev), r1);
        assert_eq!(dev.memo_stats(), (0, 1));
        let shifted: Vec<_> = spans(&dev)
            .into_iter()
            .map(|(n, _, s, e)| (n, s, e))
            .collect();
        let probed_spans = spans(&scratch).into_iter().map(|(n, _, s, e)| (n, s, e));
        assert!(probed_spans.eq(shifted));

        // On the probe's own stream ids the first replay applies its run.
        let mut same = Device::new(DeviceProps::p100());
        let same_pool: Vec<_> = (0..2).map(|_| same.create_stream()).collect();
        let applied = probed.on_pool(&mut same, &same_pool, probe);
        assert_eq!(applied.replay(&mut same), r1);
        assert_eq!(same.memo_stats(), (1, 0));
        assert_eq!(spans(&same), spans(&scratch));
        assert_eq!(same.command_log(), scratch.command_log());
    }

    #[test]
    fn assigned_independent_siblings_overlap() {
        let nodes = shared(vec![
            kernel("a", 14, 256, 2.0e6),
            kernel("b", 14, 256, 5.0e7),
            kernel("c", 14, 256, 5.0e7),
        ]);
        let deps = vec![vec![], vec![0], vec![0]];
        let mut dev = Device::new(DeviceProps::p100());
        let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
        let mode = ExecMode::Concurrent { streams: 4 };
        let plan = ExecPlan::capture_assigned("fork", &nodes, &deps, &[0, 0, 1], &pool, mode);
        plan.replay(&mut dev);
        let ((bs, be), (cs, ce)) = (span(&dev, "b"), span(&dev, "c"));
        assert!(
            be.min(ce) > bs.max(cs),
            "siblings must overlap: b {bs}-{be}, c {cs}-{ce}"
        );
    }

    #[test]
    fn assigned_same_stream_chain_needs_no_event() {
        let nodes = shared(vec![
            kernel("x", 8, 128, 1.0e6),
            kernel("y", 8, 128, 1.0e6),
            kernel("z", 8, 128, 1.0e6),
        ]);
        let deps = vec![vec![], vec![0], vec![1]];
        let mut dev = Device::new(DeviceProps::p100());
        let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
        let mode = ExecMode::Concurrent { streams: 4 };
        let plan = ExecPlan::capture_assigned("chain", &nodes, &deps, &[2, 2, 2], &pool, mode);
        assert_eq!(plan.num_events(), 0);
        assert!(plan
            .steps()
            .iter()
            .all(|s| matches!(s, PlanStep::Launch { stream: 2, .. })));
        plan.replay(&mut dev);
        assert!(dev.trace().iter().all(|t| t.stream == pool[2]));
        assert!(span(&dev, "y").0 >= span(&dev, "x").1);
        assert!(span(&dev, "z").0 >= span(&dev, "y").1);
    }

    #[test]
    fn assigned_single_stream_serializes() {
        // No declared dependency: the one stream's FIFO order is the only
        // thing keeping the two apart.
        let nodes = shared(vec![kernel("a", 8, 128, 1.0e6), kernel("b", 8, 128, 1.0e6)]);
        let deps = vec![vec![], vec![]];
        let mut dev = Device::new(DeviceProps::p100());
        let pool = vec![dev.create_stream()];
        let plan = ExecPlan::capture_assigned(
            "serial",
            &nodes,
            &deps,
            &[0, 0],
            &pool,
            ExecMode::Profiling,
        );
        assert_eq!(plan.num_events(), 0);
        plan.replay(&mut dev);
        assert!(span(&dev, "b").0 >= span(&dev, "a").1);
    }

    #[test]
    fn single_stream_capture_serializes() {
        let groups = vec![
            vec![kernel("a", 8, 128, 1.0e6)],
            vec![kernel("b", 8, 128, 1.0e6)],
        ];
        let mut dev = Device::new(DeviceProps::p100());
        let pool = vec![dev.default_stream()];
        let plan = ExecPlan::capture_round_robin("serial", &groups, &pool, ExecMode::Profiling);
        plan.replay(&mut dev);
        let tl = timeline(&dev);
        assert_eq!(tl.len(), 2);
        assert!(tl[1].3 >= tl[0].4, "single stream must serialize");
    }
}
