//! The discrete-event simulation core.
//!
//! Execution model:
//!
//! 1. The host enqueues commands ([`Device::launch`], [`Device::record_event`],
//!    [`Device::wait_event`]) into streams. A single host dispatcher thread
//!    issues launches serially — each launch call advances the host clock by
//!    `T_launch` (GLP4NN deliberately uses one dispatch thread instead of a
//!    thread per stream; the launch-rate limit this creates is captured by
//!    Eq. 7 of the paper).
//! 2. [`Device::run`] plays the simulation forward until all streams drain.
//!    A kernel becomes *ready* when it reaches the front of its stream and
//!    its launch has been issued; ready kernels become *active* as hardware
//!    concurrency slots (at most `C` of them, Table 1) free up.
//! 3. Active kernels, in activation order, spread thread blocks over the
//!    SMs one block per SM per rotation — like the hardware block
//!    scheduler — until the grid is exhausted or no SM has room under its
//!    thread/block/shared-memory/register limits. The blocks one such
//!    placement puts on one SM form a *burst* that retires together; its
//!    duration follows the kernel's roofline cost, scaled by the SM's
//!    residency and stretched by the DRAM contention factor at placement
//!    time.
//! 4. When a kernel's last block retires the kernel completes, its stream
//!    advances (possibly completing events and unblocking waiters), and a
//!    pending kernel takes its concurrency slot.
//!
//! # The saturation invariant
//!
//! Every event ends with a dispatch, and **after a dispatch returns, no
//! active kernel with unplaced blocks fits on any SM**. Placement only
//! ever adds residency and [`SmState::fits`] is monotone in it, so one pass
//! over the active kernels establishes this: whatever a later kernel
//! places cannot make room for an earlier one. The invariant is what makes
//! dispatch incremental. Between two dispatches the only residency that
//! shrinks is the one SM whose burst was just retired — a retired burst
//! frees exactly one SM, every other event frees none — so a kernel that
//! has already been offered the whole device is offered only that SM. A
//! kernel is offered every SM exactly once, in the dispatch that follows
//! its activation. Debug builds re-check every SM a kernel is not offered.
//!
//! # Burst groups
//!
//! One placement often gives a run of adjacent SMs the same block count
//! and the same end time (an idle P100 takes a 56-block kernel as 56 equal
//! bursts). Such bursts carry the same `(time, stream)` and consecutive
//! `seq`, so they would pop back-to-back with nothing between them; they
//! are queued as **one** `BurstDone` over the SM range instead, and a
//! range of one SM is the plain per-burst event. Placement closes a group
//! where the next placed SM is not adjacent, got another block count or
//! ends at another time, so pushes keep their ascending-SM order and every
//! other event sorts wholly before or wholly after a group.
//!
//! Popping a group does, per member in ascending SM order, exactly what
//! popping that member alone did: release the SM, retire the member's
//! bandwidth demand (one retirement per member — floating-point
//! subtraction does not distribute over the group), credit the kernel's
//! blocks, dispatch with that SM freed, count one logical event
//! ([`Device::events_processed`] counts retired bursts, not pops). This is
//! sound because nothing a member's handling pushes can sort inside the
//! group: bursts last at least 1000 ns, host-ready wake-ups are strictly
//! in the future, and the one handler that acts at `now` — kernel
//! completion, which activates pending kernels and surfaces ready copies —
//! can run only on the group's last member, whose blocks are the kernel's
//! last outstanding ones. For the same reason, when no active kernel has
//! unplaced blocks at the group's start, the dispatches after all members
//! but the last have nothing to place and are skipped. Debug builds check
//! between members that the queue head still sorts after the group, and a
//! test-only switch that never extends a group keeps the per-burst engine
//! as the reference arm of the differential tests.
//!
//! The simulation is fully deterministic.

use crate::arena::Arena;
use crate::contention::BandwidthTracker;
use crate::device::DeviceProps;
use crate::kernel::{KernelDesc, KernelId};
use crate::queue::{EventKey, EventQueue, HeapQueue};
use crate::sm::{BlockFootprint, SmState};
use crate::stats::DeviceStats;
use crate::stream::{CmdRecord, Command, CopyId, EventId, EventState, StreamId, StreamState};
use crate::timeline::KernelTrace;
use crate::SimTime;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use telemetry::{RecorderSlot, SharedRecorder};

/// Kernel lifecycle inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KState {
    /// Still queued behind other commands in its stream.
    Queued,
    /// At stream front but its host launch has not been issued yet.
    WaitingHost,
    /// Ready to execute, waiting for a hardware concurrency slot.
    Pending,
    /// Holding a concurrency slot, issuing/executing blocks.
    Active,
    /// All blocks retired.
    Done,
}

#[derive(Debug)]
struct KernelRuntime {
    desc: Arc<KernelDesc>,
    stream: StreamId,
    /// Host time at which the launch call completed.
    launch_issued: SimTime,
    blocks_total: u64,
    blocks_issued: u64,
    blocks_done: u64,
    start: Option<SimTime>,
    end: Option<SimTime>,
    state: KState,
    footprint: BlockFootprint,
    bw_demand: f64,
    /// Set by the first dispatch after activation, which offers the kernel
    /// every SM; later dispatches offer it only the SM an event freed.
    offered_all_sms: bool,
}

/// Queued event payloads. Ordering lives entirely in
/// [`EventKey`] — see [`crate::queue`] for the documented
/// `(time, stream, seq)` tie-break contract.
#[derive(Debug, PartialEq, Eq)]
enum EvKind {
    /// `count` blocks of a kernel finish on each SM of `sm_lo..=sm_hi` — a
    /// burst group (module docs); `demand_milli` is one member's demand.
    BurstDone {
        kernel: KernelId,
        sm_lo: u32,
        sm_hi: u32,
        count: u32,
        demand_milli: u64,
    },
    /// A host launch time arrives for a kernel at its stream front.
    HostReady(KernelId),
    /// The host issue time of a copy's source half arrives.
    CopyHostReady(CopyId),
    /// An outbound copy's transfer completed; its source stream unparks.
    CopyDone(CopyId),
    /// An inbound copy landed on this device; a waiting `CopyDst` unblocks.
    CopyArrived(CopyId),
}

/// Source-side runtime state of a copy on its sending device.
#[derive(Debug)]
struct CopySrcState {
    stream: StreamId,
    /// Host time at which the enqueue call completed (launch overhead).
    issued: SimTime,
    /// A `CopyHostReady` wake-up has been scheduled.
    notified: bool,
}

/// Synchronous launch-interception hook (the driver-API callback site a
/// CUPTI-style callback API subscribes to). Invoked inside
/// [`Device::launch`] with the descriptor, target stream, and the host
/// time at which the launch call completed. `Send` so devices can be
/// stepped from fabric worker threads.
pub type LaunchHook = Box<dyn FnMut(&KernelDesc, StreamId, SimTime) + Send>;

/// A simulated GPU device.
///
/// See the [crate-level docs](crate) for the execution model.
pub struct Device {
    props: DeviceProps,
    clock: SimTime,
    host_clock: SimTime,
    launch_hook: Option<LaunchHook>,
    streams: Vec<StreamState>,
    events: Vec<EventState>,
    event_waiters: Vec<Vec<StreamId>>,
    kernels: Arena<KernelRuntime>,
    sms: Vec<SmState>,
    bw: BandwidthTracker,
    /// Kernels holding a concurrency slot.
    active: Vec<KernelId>,
    /// Ready kernels waiting for a slot (FIFO).
    pending: VecDeque<KernelId>,
    queue: EventQueue<EvKind>,
    seq: u64,
    /// Logical events processed so far: one per retired burst (a popped
    /// group counts each member) plus one per other popped event.
    events_processed: u64,
    /// Trace/log slots still owed by in-flight work; `trace` keeps
    /// `capacity ≥ len + pending_trace` so event-time pushes never grow
    /// the vector (see [`crate::arena`] for the allocation policy).
    pending_trace: usize,
    trace: Vec<KernelTrace>,
    cmd_log: Vec<CmdRecord>,
    /// Reusable block-placement scratch, one count per offered SM (avoids
    /// a heap allocation per placement).
    scratch_per_sm: Vec<u32>,
    /// Source-side state of copies enqueued on this device, until their
    /// transfer completes (`CopyDone`).
    copy_src: HashMap<u64, CopySrcState>,
    /// Copies whose source half reached its stream front, awaiting link
    /// scheduling by the fabric: `(copy, ready time, discovery step)`.
    /// The discovery step (the device's event counter at the moment the
    /// stream unparked) lets the fabric's lookahead rounds resolve
    /// same-link copies in the exact order the one-event-at-a-time loop
    /// would have discovered them.
    copy_ready: Vec<(CopyId, SimTime, u64)>,
    /// Inbound copies that landed before their `CopyDst` marker reached
    /// its stream front; the marker consumes the entry when it pops.
    copy_arrived: HashSet<u64>,
    /// Streams blocked at a `CopyDst` front, waiting for the transfer.
    copy_waiters: HashMap<u64, StreamId>,
    /// Optional telemetry recorder (kernel spans, event-dep flow arrows).
    /// Empty slot = zero-cost off-path: no recording, no allocation, no
    /// behavioural difference.
    telemetry: RecorderSlot,
    /// Chrome-trace process id used when telemetry is attached.
    telemetry_pid: u32,
    /// Recording stream and completion time per event, kept **only** while
    /// telemetry is attached (feeds dependency flow arrows).
    event_src: HashMap<u64, (StreamId, SimTime)>,
    /// Reference arm for differential tests: never extend a burst group, so
    /// every burst is queued and popped on its own.
    #[cfg(test)]
    pub(crate) never_extend_groups: bool,
}

impl Device {
    /// Create a device with its default stream (stream 0).
    pub fn new(props: DeviceProps) -> Self {
        let sms = vec![SmState::new(); props.num_sms as usize];
        let bw = BandwidthTracker::new(&props);
        Device {
            props,
            clock: 0,
            host_clock: 0,
            launch_hook: None,
            streams: vec![StreamState::default()],
            events: Vec::new(),
            event_waiters: Vec::new(),
            kernels: Arena::new(),
            sms,
            bw,
            active: Vec::new(),
            pending: VecDeque::new(),
            queue: EventQueue::default(),
            seq: 0,
            events_processed: 0,
            pending_trace: 0,
            trace: Vec::new(),
            cmd_log: Vec::new(),
            scratch_per_sm: Vec::new(),
            copy_src: HashMap::new(),
            copy_ready: Vec::new(),
            copy_arrived: HashSet::new(),
            copy_waiters: HashMap::new(),
            telemetry: RecorderSlot::empty(),
            telemetry_pid: 0,
            event_src: HashMap::new(),
            #[cfg(test)]
            never_extend_groups: false,
        }
    }

    /// Device properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Install a synchronous launch-interception hook (at most one; the
    /// CUPTI-style callback API multiplexes its own subscribers on top).
    pub fn set_launch_hook(&mut self, hook: LaunchHook) {
        self.launch_hook = Some(hook);
    }

    /// Remove the launch hook.
    pub fn clear_launch_hook(&mut self) {
        self.launch_hook = None;
    }

    /// Switch this device onto the pre-calendar binary-heap event queue.
    /// Differential tests replay identical workloads under both queues
    /// and assert byte-identical timelines; there is no reason to call
    /// this outside such a comparison.
    ///
    /// # Panics
    /// Panics if events are already pending (switch before enqueuing).
    pub fn use_heap_queue(&mut self) {
        assert!(self.queue.is_empty(), "switch queues before enqueuing work");
        self.queue = EventQueue::Heap(HeapQueue::new());
    }

    /// Number of logical discrete events processed so far (the
    /// engine-throughput denominator reported by benchmarks): one per
    /// retired burst and one per other event. Not the number of queue pops
    /// — a burst group is one pop and counts once per member.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Attach a telemetry recorder. `pid` is the Chrome-trace process id
    /// this device reports under (its fabric/device index by convention;
    /// streams are the tids). Recording is observation-only: it never
    /// creates streams or events, advances a clock, or changes how work
    /// is scheduled, so timelines are identical with or without it.
    pub fn set_telemetry(&mut self, rec: SharedRecorder, pid: u32) {
        self.telemetry.attach(rec);
        self.telemetry_pid = pid;
    }

    /// Detach the telemetry recorder, returning to the zero-cost off-path.
    pub fn clear_telemetry(&mut self) {
        self.telemetry.clear();
        self.event_src.clear();
    }

    /// The attached telemetry recorder, if any (host-side layers — plan
    /// capture, profiling — reuse the device's handle rather than
    /// threading their own).
    pub fn telemetry(&self) -> Option<&SharedRecorder> {
        self.telemetry.get()
    }

    /// The Chrome-trace process id this device reports under.
    pub fn telemetry_pid(&self) -> u32 {
        self.telemetry_pid
    }

    /// Register this device's process/thread names (`gpuN`, `stream K`,
    /// `host`) with a concrete [`telemetry::Telemetry`] so the exported
    /// trace is labelled. Call once after the run, before export.
    pub fn annotate_telemetry(&self, t: &mut telemetry::Telemetry) {
        let pid = self.telemetry_pid;
        t.set_process_name(pid, &format!("gpu{pid}"));
        for s in 0..self.streams.len() {
            let name = if s == 0 {
                "stream 0 (default)".to_string()
            } else {
                format!("stream {s}")
            };
            t.set_thread_name(pid, s as u64, &name);
        }
        t.set_thread_name(pid, telemetry::HOST_TID, "host");
    }

    /// Current simulated device time (ns).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Create a new (non-default) stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(StreamState::default());
        StreamId((self.streams.len() - 1) as u32)
    }

    /// The default stream.
    pub fn default_stream(&self) -> StreamId {
        StreamId::DEFAULT
    }

    /// Number of streams (including the default stream).
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Enqueue a kernel launch on `stream`. The host clock advances by the
    /// launch overhead; the kernel cannot start before that point.
    ///
    /// # Panics
    /// Panics if the grid or block is empty, the block exceeds the device's
    /// max threads per block, or one block cannot fit on an empty SM.
    pub fn launch(&mut self, stream: StreamId, desc: KernelDesc) -> KernelId {
        self.launch_shared(stream, Arc::new(desc))
    }

    /// Like [`launch`](Device::launch) but takes a shared descriptor, so a
    /// replayed execution plan can re-issue the same kernel many times
    /// without cloning the descriptor (name, access sets) per launch.
    pub fn launch_shared(&mut self, stream: StreamId, desc: Arc<KernelDesc>) -> KernelId {
        assert!(desc.launch.num_blocks() > 0, "empty grid");
        let tpb = desc.launch.threads_per_block();
        assert!(tpb > 0, "empty block");
        assert!(
            tpb <= self.props.max_threads_per_block,
            "block of {} threads exceeds device limit {}",
            tpb,
            self.props.max_threads_per_block
        );
        let footprint = BlockFootprint::of(&self.props, &desc.launch);
        assert!(
            SmState::new().fits(&self.props, &footprint),
            "kernel {} block does not fit on an empty SM",
            desc.name
        );

        // Host launch serialization: the dispatcher cannot issue before the
        // device-side present either (enqueue happens in host real time,
        // which we pin to the device clock at enqueue).
        self.host_clock = self.host_clock.max(self.clock) + self.props.launch_overhead_ns;
        let id = KernelId(self.kernels.len() as u64);
        let demand = desc.cost.bandwidth_demand(&self.props, tpb);
        // Launch-time reservation: the completion this launch owes the
        // trace (and the episode's trailing sync marker in the command
        // log) must not grow a vector at event time.
        self.pending_trace += 1;
        self.trace.reserve(self.pending_trace);
        self.cmd_log.reserve(2);
        self.kernels.push(KernelRuntime {
            blocks_total: desc.launch.num_blocks(),
            blocks_issued: 0,
            blocks_done: 0,
            start: None,
            end: None,
            state: KState::Queued,
            stream,
            launch_issued: self.host_clock,
            footprint,
            bw_demand: demand,
            offered_all_sms: false,
            desc,
        });
        if let Some(hook) = self.launch_hook.as_mut() {
            hook(
                self.kernels[id.0 as usize].desc.as_ref(),
                stream,
                self.host_clock,
            );
        }
        self.cmd_log.push(CmdRecord::Launch { stream, kernel: id });
        self.streams[stream.0 as usize]
            .queue
            .push_back(Command::Launch(id));
        id
    }

    /// Create an event (not yet recorded).
    pub fn create_event(&mut self) -> EventId {
        self.events.push(EventState::Created);
        // Pre-size the waiter list (host side) so typical fan-outs never
        // allocate when a wait blocks at event time.
        self.event_waiters.push(Vec::with_capacity(4));
        EventId((self.events.len() - 1) as u64)
    }

    /// Record `event` into `stream`: it completes when all prior work in
    /// the stream completes.
    pub fn record_event(&mut self, stream: StreamId, event: EventId) {
        self.events[event.0 as usize] = EventState::Pending;
        self.cmd_log.push(CmdRecord::RecordEvent { stream, event });
        self.streams[stream.0 as usize]
            .queue
            .push_back(Command::RecordEvent(event));
    }

    /// Make `stream` wait for `event` before executing subsequent commands.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) {
        self.cmd_log.push(CmdRecord::WaitEvent { stream, event });
        self.streams[stream.0 as usize]
            .queue
            .push_back(Command::WaitEvent(event));
    }

    /// Completion time of `event`, if completed.
    pub fn event_time(&self, event: EventId) -> Option<SimTime> {
        match self.events[event.0 as usize] {
            EventState::Completed(t) => Some(t),
            _ => None,
        }
    }

    /// Kernel execution interval `(start, end)`, available after [`run`].
    ///
    /// [`run`]: Device::run
    pub fn kernel_span(&self, id: KernelId) -> Option<(SimTime, SimTime)> {
        let k = &self.kernels[id.0 as usize];
        match (k.start, k.end) {
            (Some(s), Some(e)) => Some((s, e)),
            _ => None,
        }
    }

    /// All kernel traces so far, in launch order.
    pub fn trace(&self) -> &[KernelTrace] {
        &self.trace
    }

    /// The driver command log: every host-issued launch / event record /
    /// event wait in issue order, with [`CmdRecord::Sync`] markers where a
    /// [`run`](Device::run) episode completed. The schedule sanitizer
    /// replays this to reconstruct happens-before.
    pub fn command_log(&self) -> &[CmdRecord] {
        &self.cmd_log
    }

    /// Descriptor of a previously launched kernel.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this device.
    pub fn kernel_desc(&self, id: KernelId) -> &KernelDesc {
        self.kernels[id.0 as usize].desc.as_ref()
    }

    /// Utilization statistics over everything simulated so far.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats::from_parts(&self.props, &self.sms, &self.trace, self.clock)
    }

    /// Run the simulation until all streams drain; returns the final
    /// simulated time.
    ///
    /// Streams parked on peer-to-peer copy traffic are left parked — only
    /// [`Fabric::run`](crate::fabric::Fabric::run) can schedule a link
    /// transfer, so a lone `run` tolerates them and resumes them later.
    pub fn run(&mut self) -> SimTime {
        self.kick();
        while self.step_one() {}

        debug_assert!(
            self.streams.iter().all(|s| s.is_idle() || s.copy_parked()),
            "event queue drained with non-idle streams (unsatisfiable event wait?)"
        );
        if self.streams.iter().all(|s| s.is_idle()) {
            self.push_sync_marker();
        }
        if self.telemetry.is_attached() {
            let stats = self.stats();
            let pid = self.telemetry_pid;
            self.telemetry.with(|r| {
                r.gauge_set(&format!("gpu{pid}.avg_occupancy"), stats.avg_occupancy);
                r.gauge_set(
                    &format!("gpu{pid}.total_kernel_time_ns"),
                    stats.total_kernel_time_ns as f64,
                );
            });
        }
        self.clock
    }

    // ----- fabric stepping API (crate-internal) ----------------------

    /// Kick all streams and the block dispatcher at the current time
    /// without consuming any queued event ([`run`](Device::run)'s preamble).
    pub(crate) fn kick(&mut self) {
        for s in 0..self.streams.len() {
            self.advance_stream(StreamId(s as u32));
        }
        self.dispatch(None);
    }

    /// Time of the next pending queued event, if any.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_key().map(|k| k.time)
    }

    /// Pop one queued event (advancing the clock to it), handle it and
    /// re-dispatch; a burst group retires member by member (module docs,
    /// "Burst groups"). Returns `false` when no event was pending.
    pub(crate) fn step_one(&mut self) -> bool {
        let Some((key, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.time >= self.clock, "time went backwards");
        self.clock = key.time;
        self.events_processed += 1;
        // The one SM whose residency the event shrank last, if any.
        let mut freed = None;
        match kind {
            EvKind::BurstDone {
                kernel,
                sm_lo,
                sm_hi,
                count,
                demand_milli,
            } => {
                // With every active kernel fully placed a dispatch does
                // nothing, and only the last member can change that (it
                // alone can complete the kernel and so activate another).
                let all_placed = sm_lo < sm_hi && self.all_active_placed();
                for sm in sm_lo..sm_hi {
                    self.on_burst_done(kernel, sm as usize, count, demand_milli);
                    if !all_placed {
                        self.dispatch(Some(sm as usize));
                    }
                    debug_assert!(!all_placed || self.all_active_placed());
                    debug_assert!(
                        self.queue.peek_key().is_none_or(|next| next > key),
                        "an event sorts inside a burst group"
                    );
                    self.events_processed += 1;
                }
                self.on_burst_done(kernel, sm_hi as usize, count, demand_milli);
                freed = Some(sm_hi as usize);
            }
            EvKind::HostReady(k) => self.on_host_ready(k),
            EvKind::CopyHostReady(c) => {
                if let Some(st) = self.copy_src.get(&c.0) {
                    let sid = st.stream;
                    self.advance_stream(sid);
                }
            }
            EvKind::CopyDone(c) => self.on_copy_done(c),
            EvKind::CopyArrived(c) => self.on_copy_arrived(c),
        }
        self.dispatch(freed);
        true
    }

    /// Whether no active kernel has unplaced blocks.
    fn all_active_placed(&self) -> bool {
        self.active.iter().all(|id| {
            let k = &self.kernels[id.0 as usize];
            k.blocks_issued == k.blocks_total
        })
    }

    /// Process every queued event with `time <= horizon` (the fabric's
    /// conservative-lookahead round body: safe to run concurrently with
    /// peers because no cross-device effect can land inside the horizon).
    pub(crate) fn step_until(&mut self, horizon: SimTime) {
        while self.queue.peek_key().is_some_and(|k| k.time <= horizon) {
            self.step_one();
        }
    }

    /// The fabric's run-length step: process queued events for as long as
    /// the next one fires at or before `horizon` and no copy has become
    /// ready for link scheduling (the fabric must resolve a ready copy
    /// before any further event, on this device or a peer). Returns the
    /// time of the next pending event.
    pub(crate) fn step_run(&mut self, horizon: SimTime) -> Option<SimTime> {
        loop {
            let next = self.next_event_time();
            if !self.copy_ready.is_empty() || next.is_none_or(|t| t > horizon) {
                return next;
            }
            self.step_one();
        }
    }

    /// Whether every stream is fully idle (no copy-parked streams either)
    /// and no events are pending.
    pub(crate) fn fully_idle(&self) -> bool {
        self.queue.is_empty() && self.streams.iter().all(|s| s.is_idle())
    }

    /// Append a [`CmdRecord::Sync`] barrier marker unless one is already
    /// last. The fabric calls this on every device when a multi-device
    /// episode drains, so per-device logs stay segment-aligned.
    pub(crate) fn push_sync_marker(&mut self) {
        if self.cmd_log.last().is_some_and(|c| *c != CmdRecord::Sync) {
            self.cmd_log.push(CmdRecord::Sync);
        }
    }

    /// Enqueue the source half of copy `id` on `stream`: pays the host
    /// launch overhead (it is a driver call) and parks the stream when it
    /// reaches the front until the fabric finishes the transfer. Returns
    /// the host issue time.
    pub(crate) fn enqueue_copy_src(&mut self, stream: StreamId, id: CopyId) -> SimTime {
        self.host_clock = self.host_clock.max(self.clock) + self.props.launch_overhead_ns;
        // The fabric pushes one trace entry when it resolves this copy;
        // reserve that slot now (host time), like kernel launches do.
        self.pending_trace += 1;
        self.trace.reserve(self.pending_trace);
        self.cmd_log.reserve(2);
        self.cmd_log.push(CmdRecord::CopySrc { stream, copy: id });
        self.copy_src.insert(
            id.0,
            CopySrcState {
                stream,
                issued: self.host_clock,
                notified: false,
            },
        );
        self.streams[stream.0 as usize]
            .queue
            .push_back(Command::CopySrc(id));
        self.host_clock
    }

    /// Enqueue the destination half of copy `id` on `stream`: a pure wait
    /// marker (no host launch overhead, like an event wait).
    pub(crate) fn enqueue_copy_dst(&mut self, stream: StreamId, id: CopyId) {
        self.cmd_log.push(CmdRecord::CopyDst { stream, copy: id });
        self.streams[stream.0 as usize]
            .queue
            .push_back(Command::CopyDst(id));
    }

    /// Drain the copies whose source half has reached its stream front
    /// since the last call (ready for link scheduling) into `out` as
    /// `(copy, ready time, discovery step)`. Appends; the caller owns the
    /// buffer so both sides keep their capacity across episodes.
    pub(crate) fn drain_ready_copies(&mut self, out: &mut Vec<(CopyId, SimTime, u64)>) {
        out.append(&mut self.copy_ready);
    }

    /// The fabric scheduled copy `id` (sourced here) to complete at `end`:
    /// wake the parked source stream then.
    pub(crate) fn finish_copy_src(&mut self, id: CopyId, end: SimTime) {
        let stream = self.copy_src.get(&id.0).expect("copy source state").stream;
        self.push_ev(end.max(self.clock), stream, EvKind::CopyDone(id));
    }

    /// The fabric scheduled copy `id` (landing here, consumed by
    /// `dst_stream`) to arrive at `end`: complete the destination-side
    /// wait then.
    pub(crate) fn finish_copy_dst(&mut self, id: CopyId, dst_stream: StreamId, end: SimTime) {
        self.push_ev(end.max(self.clock), dst_stream, EvKind::CopyArrived(id));
    }

    /// Append a fabric-constructed trace entry (a completed copy, rendered
    /// in the timeline exactly like a kernel). Consumes the slot reserved
    /// by [`enqueue_copy_src`](Device::enqueue_copy_src).
    pub(crate) fn push_trace_entry(&mut self, trace: KernelTrace) {
        self.pending_trace = self.pending_trace.saturating_sub(1);
        self.trace.push(trace);
    }

    fn on_copy_done(&mut self, id: CopyId) {
        let st = self.copy_src.remove(&id.0).expect("copy source state");
        let sid = st.stream;
        debug_assert_eq!(self.streams[sid.0 as usize].copy_inflight, Some(id));
        self.streams[sid.0 as usize].copy_inflight = None;
        self.advance_stream(sid);
    }

    fn on_copy_arrived(&mut self, id: CopyId) {
        let Some(sid) = self.copy_waiters.remove(&id.0) else {
            // The marker has not reached its stream front yet; it pops
            // without blocking when it does.
            self.copy_arrived.insert(id.0);
            return;
        };
        // A waiter parks only with this copy's marker at its front, and a
        // parked stream cannot advance, so the marker is still there.
        let s = sid.0 as usize;
        debug_assert!(
            matches!(self.streams[s].queue.front(), Some(Command::CopyDst(c)) if *c == id)
        );
        self.streams[s].queue.pop_front();
        self.advance_stream(sid);
    }

    /// Fast-forward an idle device's clock to `t` (no-op if `t` is in the
    /// past). A serving event loop uses this to jump to the next request
    /// arrival when the device has drained; the host dispatcher clock
    /// follows so later launches pay their overhead relative to `t`.
    ///
    /// # Panics
    /// Panics (debug builds) if called with work still in flight — the
    /// clock may only move between [`run`](Device::run) episodes.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            self.queue.is_empty() && self.streams.iter().all(|s| s.is_idle()),
            "advance_to on a busy device"
        );
        if t > self.clock {
            self.clock = t;
        }
        self.host_clock = self.host_clock.max(self.clock);
    }

    // ----- internals -------------------------------------------------

    /// Queue `kind` at `time` on behalf of `stream` (the completing
    /// kernel's stream, or the copy's source/destination stream) — the
    /// stream id is the documented first tie-break among same-time
    /// events, see [`crate::queue`].
    fn push_ev(&mut self, time: SimTime, stream: StreamId, kind: EvKind) {
        self.seq += 1;
        self.queue.push(
            EventKey {
                time,
                stream: stream.raw(),
                seq: self.seq,
            },
            kind,
        );
    }

    /// Pop and process stream commands until the stream blocks.
    fn advance_stream(&mut self, sid: StreamId) {
        let s = sid.0 as usize;
        loop {
            if self.streams[s].inflight.is_some() || self.streams[s].copy_inflight.is_some() {
                return; // in-order: wait for the running kernel / copy
            }
            let Some(cmd) = self.streams[s].queue.front() else {
                self.streams[s].last_idle = self.clock;
                return;
            };
            match cmd {
                Command::Launch(id) => {
                    let id = *id;
                    let k = &mut self.kernels[id.0 as usize];
                    if k.launch_issued > self.clock {
                        // Host has not issued this launch yet.
                        if k.state == KState::Queued {
                            k.state = KState::WaitingHost;
                            let t = k.launch_issued;
                            self.push_ev(t, sid, EvKind::HostReady(id));
                        }
                        return;
                    }
                    self.streams[s].queue.pop_front();
                    self.streams[s].inflight = Some(id);
                    self.make_ready(id);
                    return; // in-order: nothing further until it completes
                }
                Command::RecordEvent(ev) => {
                    let ev = *ev;
                    self.streams[s].queue.pop_front();
                    self.complete_event(ev, sid);
                }
                Command::WaitEvent(ev) => {
                    let ev = *ev;
                    match self.events[ev.0 as usize] {
                        EventState::Completed(_) => {
                            self.streams[s].queue.pop_front();
                            // The wait never blocked, but the ordering
                            // edge still exists — record it.
                            self.tel_dep_flow(ev, sid);
                        }
                        _ => {
                            // Block until the event completes.
                            if !self.event_waiters[ev.0 as usize].contains(&sid) {
                                self.event_waiters[ev.0 as usize].push(sid);
                            }
                            return;
                        }
                    }
                }
                Command::CopySrc(id) => {
                    let id = *id;
                    let st = self.copy_src.get_mut(&id.0).expect("copy source state");
                    if st.issued > self.clock {
                        // Host has not issued this copy yet.
                        if !st.notified {
                            st.notified = true;
                            let t = st.issued;
                            self.push_ev(t, sid, EvKind::CopyHostReady(id));
                        }
                        return;
                    }
                    self.streams[s].queue.pop_front();
                    self.streams[s].copy_inflight = Some(id);
                    // Hand to the fabric for link scheduling; the stream
                    // stays parked until `CopyDone`. The discovery step
                    // tags the copy for deterministic link ordering in
                    // lookahead rounds.
                    self.copy_ready
                        .push((id, self.clock, self.events_processed));
                    return;
                }
                Command::CopyDst(id) => {
                    let id = *id;
                    if self.copy_arrived.remove(&id.0) {
                        self.streams[s].queue.pop_front();
                    } else {
                        // Block until the transfer lands.
                        self.copy_waiters.insert(id.0, sid);
                        return;
                    }
                }
            }
        }
    }

    fn complete_event(&mut self, ev: EventId, recorded_in: StreamId) {
        self.events[ev.0 as usize] = EventState::Completed(self.clock);
        if self.telemetry.is_attached() {
            self.event_src.insert(ev.0, (recorded_in, self.clock));
        }
        let waiters = std::mem::take(&mut self.event_waiters[ev.0 as usize]);
        for sid in waiters {
            self.tel_dep_flow(ev, sid);
            // Drop the WaitEvent at the waiter's front and continue it.
            let s = sid.0 as usize;
            if let Some(Command::WaitEvent(e)) = self.streams[s].queue.front() {
                if *e == ev {
                    self.streams[s].queue.pop_front();
                }
            }
            self.advance_stream(sid);
        }
    }

    /// Flow arrow for the ordering edge `ev` imposes from its recording
    /// stream onto `waiter`, when telemetry is attached.
    fn tel_dep_flow(&mut self, ev: EventId, waiter: StreamId) {
        if !self.telemetry.is_attached() {
            return;
        }
        let Some(&(src, completed)) = self.event_src.get(&ev.0) else {
            return;
        };
        let pid = self.telemetry_pid;
        let now = self.clock;
        self.telemetry.with(|r| {
            r.flow(
                "dep",
                "event",
                (pid, src.0 as u64, completed),
                (pid, waiter.0 as u64, now),
            );
        });
    }

    /// A kernel reached its stream front with its launch issued.
    fn make_ready(&mut self, id: KernelId) {
        let c = self.props.concurrency_degree() as usize;
        let k = &mut self.kernels[id.0 as usize];
        debug_assert!(matches!(k.state, KState::Queued | KState::WaitingHost));
        if self.active.len() < c {
            k.state = KState::Active;
            self.active.push(id);
        } else {
            k.state = KState::Pending;
            self.pending.push_back(id);
        }
    }

    fn on_host_ready(&mut self, id: KernelId) {
        // The launch time arrived; the kernel may or may not still be at its
        // stream front (it is, by in-order construction, unless already ready).
        if self.kernels[id.0 as usize].state == KState::WaitingHost {
            self.kernels[id.0 as usize].state = KState::Queued;
            let sid = self.kernels[id.0 as usize].stream;
            self.advance_stream(sid);
        }
    }

    /// Retire one burst: `count` blocks of kernel `id` leave `sm`.
    fn on_burst_done(&mut self, id: KernelId, sm: usize, count: u32, demand_milli: u64) {
        let fp = self.kernels[id.0 as usize].footprint;
        self.sms[sm].release(&self.props, self.clock, &fp, count);
        self.bw.retire(demand_milli as f64 / 1000.0);
        let k = &mut self.kernels[id.0 as usize];
        k.blocks_done += u64::from(count);
        debug_assert!(k.blocks_done <= k.blocks_total);
        if k.blocks_done == k.blocks_total {
            k.end = Some(self.clock);
            k.state = KState::Done;
            let sid = k.stream;
            self.pending_trace -= 1;
            self.trace.push(KernelTrace::from_runtime(
                id,
                self.kernels[id.0 as usize].desc.as_ref(),
                sid,
                self.kernels[id.0 as usize].launch_issued,
                self.kernels[id.0 as usize].start.unwrap_or(self.clock),
                self.clock,
            ));
            if self.telemetry.is_attached() {
                let t = self.trace.last().expect("just pushed");
                let pid = self.telemetry_pid;
                self.telemetry.with(|r| {
                    r.span(pid, sid.0 as u64, &t.name, "kernel", t.start_ns, t.end_ns);
                    r.counter_add("gpu.kernels_completed", 1);
                });
            }
            self.active.retain(|&a| a != id);
            if let Some(next) = self.pending.pop_front() {
                self.kernels[next.0 as usize].state = KState::Active;
                self.active.push(next);
            }
            self.streams[sid.0 as usize].inflight = None;
            self.advance_stream(sid);
        }
    }

    /// Restore the saturation invariant (module docs): offer each active
    /// kernel that still has unplaced blocks the SMs it may newly fit on —
    /// all of them on its first dispatch since activation, afterwards only
    /// `freed`, the SM the event being handled retired a burst from.
    fn dispatch(&mut self, freed: Option<usize>) {
        let now = self.clock;
        #[cfg(test)]
        let extend = !self.never_extend_groups;
        #[cfg(not(test))]
        let extend = true;
        // Index loop: `active` is not mutated inside a dispatch, and
        // indexing avoids cloning the active set.
        for ai in 0..self.active.len() {
            let id = self.active[ai];
            let k = &mut self.kernels[id.0 as usize];
            debug_assert_eq!(k.state, KState::Active);
            let remaining = k.blocks_total - k.blocks_issued;
            if remaining == 0 {
                continue;
            }
            let offered = if !std::mem::replace(&mut k.offered_all_sms, true) {
                0..self.sms.len()
            } else if let Some(sm) = freed {
                sm..sm + 1
            } else {
                0..0
            };
            let (fp, demand, sid) = (k.footprint, k.bw_demand, k.stream);
            // What the pre-incremental dispatcher found out by probing
            // every SM for every kernel after every event.
            #[cfg(debug_assertions)]
            for smi in (0..self.sms.len()).filter(|smi| !offered.contains(smi)) {
                assert!(
                    !self.sms[smi].fits(&self.props, &fp),
                    "saturation invariant broken: kernel {} fits on skipped SM {smi}",
                    id.0
                );
            }
            if offered.is_empty() {
                continue;
            }
            // Wave placement: spread blocks one-per-SM in rotation, like
            // the hardware block scheduler, until the grid is exhausted or
            // no offered SM has room.
            let mut per_sm = std::mem::take(&mut self.scratch_per_sm);
            per_sm.clear();
            per_sm.resize(offered.len(), 0);
            let mut placed_total = 0u64;
            let mut progress = true;
            while placed_total < remaining && progress {
                progress = false;
                for (placed, smi) in per_sm.iter_mut().zip(offered.clone()) {
                    if placed_total >= remaining {
                        break;
                    }
                    if self.sms[smi].fits(&self.props, &fp) {
                        self.sms[smi].update(&self.props, now, &fp, true);
                        *placed += 1;
                        placed_total += 1;
                        progress = true;
                    }
                }
            }
            if placed_total == 0 {
                self.scratch_per_sm = per_sm;
                continue;
            }
            let factor = self.bw.place(demand * placed_total as f64);
            // Residency-aware burst duration: SM issue throughput
            // scales with resident warps up to `warps_for_peak`
            // (latency hiding), then is shared warp-proportionally.
            let cost = self.kernels[id.0 as usize].desc.cost;
            let w_block = fp.threads.div_ceil(self.props.warp_size).max(1);
            let bw_share = self.props.mem_bw_gbps * 1e9 / self.props.num_sms as f64;
            let peak_block = self.props.sm_peak_flops() * w_block as f64;
            let t_m = if cost.dram_bytes_per_block > 0.0 {
                cost.dram_bytes_per_block / bw_share * factor
            } else {
                0.0
            };
            // Within one placement a burst's duration depends on `w_total`
            // alone: computed once per run of equal residencies.
            let mut last_dur: Option<(u32, SimTime)> = None;
            // The open burst group and its end time.
            let mut open: Option<(SimTime, EvKind)> = None;
            for (&n, smi) in per_sm.iter().zip(offered) {
                if n == 0 {
                    continue;
                }
                let w_total = self.sms[smi]
                    .threads_used
                    .div_ceil(self.props.warp_size)
                    .max(w_block);
                let dur = match last_dur {
                    Some((w, dur)) if w == w_total => dur,
                    _ => {
                        let rate_c = peak_block / w_total.max(self.props.warps_for_peak) as f64;
                        let t_c = if cost.flops_per_block > 0.0 {
                            cost.flops_per_block / rate_c
                        } else {
                            0.0
                        };
                        // The shared rate above already splits the SM among
                        // all resident warps, so the n co-resident blocks of
                        // this burst progress in parallel and retire together.
                        let dur = (t_c.max(t_m) * 1e9 + 1000.0).ceil() as SimTime;
                        last_dur = Some((w_total, dur));
                        dur
                    }
                };
                let end = now + dur.max(1);
                let sm = smi as u32;
                match &mut open {
                    Some((t, EvKind::BurstDone { sm_hi, count, .. }))
                        if extend && *sm_hi + 1 == sm && *count == n && *t == end =>
                    {
                        *sm_hi = sm;
                    }
                    _ => {
                        let group = EvKind::BurstDone {
                            kernel: id,
                            sm_lo: sm,
                            sm_hi: sm,
                            count: n,
                            demand_milli: (demand * n as f64 * 1000.0).round() as u64,
                        };
                        if let Some((t, done)) = open.replace((end, group)) {
                            self.push_ev(t, sid, done);
                        }
                    }
                }
            }
            if let Some((t, done)) = open {
                self.push_ev(t, sid, done);
            }
            self.scratch_per_sm = per_sm;
            let k = &mut self.kernels[id.0 as usize];
            k.blocks_issued += placed_total;
            if k.start.is_none() {
                k.start = Some(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Dim3, KernelCost, KernelDesc, LaunchConfig};

    fn kernel(name: &str, blocks: u32, threads: u32, flops: f64) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), 32, 0),
            KernelCost::new(flops, flops / 4.0),
        )
    }

    #[test]
    fn single_kernel_completes() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        let id = dev.launch(s, kernel("k", 56, 256, 1.0e6));
        let end = dev.run();
        let (start, fin) = dev.kernel_span(id).unwrap();
        assert!(start >= dev.props().launch_overhead_ns);
        assert!(fin > start);
        assert_eq!(fin, end);
        assert_eq!(dev.trace().len(), 1);
    }

    #[test]
    fn same_stream_serializes() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        let a = dev.launch(s, kernel("a", 56, 256, 1.0e7));
        let b = dev.launch(s, kernel("b", 56, 256, 1.0e7));
        dev.run();
        let (_, a_end) = dev.kernel_span(a).unwrap();
        let (b_start, _) = dev.kernel_span(b).unwrap();
        assert!(b_start >= a_end, "in-order stream must serialize");
    }

    #[test]
    fn different_streams_overlap() {
        let mut dev = Device::new(DeviceProps::p100());
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        // Small grids so both kernels fit on the device simultaneously.
        let a = dev.launch(s1, kernel("a", 28, 256, 5.0e7));
        let b = dev.launch(s2, kernel("b", 28, 256, 5.0e7));
        dev.run();
        let (a_s, a_e) = dev.kernel_span(a).unwrap();
        let (b_s, b_e) = dev.kernel_span(b).unwrap();
        let overlap = a_e.min(b_e).saturating_sub(a_s.max(b_s));
        assert!(
            overlap > 0,
            "concurrent streams must overlap: {a_s}-{a_e} vs {b_s}-{b_e}"
        );
    }

    #[test]
    fn two_streams_faster_than_one_for_underfilling_kernels() {
        // Kernels that fill only half the SMs: serial = 2T, concurrent ≈ T.
        let run = |nstreams: usize| {
            let mut dev = Device::new(DeviceProps::p100());
            let streams: Vec<_> = (0..nstreams).map(|_| dev.create_stream()).collect();
            for i in 0..2 {
                dev.launch(streams[i % nstreams], kernel("k", 28, 512, 2.0e8));
            }
            dev.run()
        };
        let t1 = run(1);
        let t2 = run(2);
        assert!(
            (t2 as f64) < (t1 as f64) * 0.75,
            "2 streams should be clearly faster: t1={t1} t2={t2}"
        );
    }

    #[test]
    fn concurrency_degree_caps_active_kernels() {
        // On Kepler (C=32) launching 40 tiny kernels: all complete, and the
        // engine never holds more than C active (observable via pending
        // FIFO — here we just assert completion and ordering sanity).
        let mut dev = Device::new(DeviceProps::k40c());
        let streams: Vec<_> = (0..40).map(|_| dev.create_stream()).collect();
        let ids: Vec<_> = (0..40)
            .map(|i| dev.launch(streams[i], kernel("t", 1, 64, 1.0e5)))
            .collect();
        dev.run();
        for id in ids {
            assert!(dev.kernel_span(id).is_some());
        }
        assert_eq!(dev.trace().len(), 40);
    }

    #[test]
    fn launch_overhead_serializes_host() {
        let mut dev = Device::new(DeviceProps::p100());
        let ovh = dev.props().launch_overhead_ns;
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        let a = dev.launch(s1, kernel("a", 1, 64, 1.0e5));
        let b = dev.launch(s2, kernel("b", 1, 64, 1.0e5));
        dev.run();
        let (a_s, _) = dev.kernel_span(a).unwrap();
        let (b_s, _) = dev.kernel_span(b).unwrap();
        assert!(a_s >= ovh);
        assert!(b_s >= 2 * ovh, "second launch pays two launch overheads");
    }

    #[test]
    fn events_order_across_streams() {
        let mut dev = Device::new(DeviceProps::p100());
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        let ev = dev.create_event();
        let a = dev.launch(s1, kernel("a", 56, 256, 1.0e8));
        dev.record_event(s1, ev);
        dev.wait_event(s2, ev);
        let b = dev.launch(s2, kernel("b", 56, 256, 1.0e6));
        dev.run();
        let (_, a_e) = dev.kernel_span(a).unwrap();
        let (b_s, _) = dev.kernel_span(b).unwrap();
        assert!(b_s >= a_e, "event wait must order b after a");
        assert_eq!(dev.event_time(ev), Some(a_e));
    }

    #[test]
    fn wait_on_already_completed_event_is_noop() {
        let mut dev = Device::new(DeviceProps::p100());
        let s1 = dev.create_stream();
        let ev = dev.create_event();
        dev.launch(s1, kernel("a", 1, 64, 1.0e5));
        dev.record_event(s1, ev);
        dev.run();
        let s2 = dev.create_stream();
        dev.wait_event(s2, ev);
        let b = dev.launch(s2, kernel("b", 1, 64, 1.0e5));
        dev.run();
        assert!(dev.kernel_span(b).is_some());
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let mut dev = Device::new(DeviceProps::titan_xp());
            let streams: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
            for i in 0..12u32 {
                dev.launch(
                    streams[(i % 4) as usize],
                    kernel(&format!("k{i}"), 10 + i, 128, 1.0e6 * (i + 1) as f64),
                );
            }
            dev.run();
            dev.trace()
                .iter()
                .map(|t| (t.start_ns, t.end_ns))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn advance_to_fast_forwards_idle_clock() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("a", 8, 128, 1.0e6));
        let t1 = dev.run();
        dev.advance_to(t1 + 500_000);
        assert_eq!(dev.now(), t1 + 500_000);
        // Moving backwards is a no-op.
        dev.advance_to(t1);
        assert_eq!(dev.now(), t1 + 500_000);
        // Work after the jump starts no earlier than the new present.
        let b = dev.launch(s, kernel("b", 8, 128, 1.0e6));
        dev.run();
        let (b_s, _) = dev.kernel_span(b).unwrap();
        assert!(b_s >= t1 + 500_000);
    }

    #[test]
    fn clock_is_monotonic_across_runs() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("a", 8, 128, 1.0e6));
        let t1 = dev.run();
        dev.launch(s, kernel("b", 8, 128, 1.0e6));
        let t2 = dev.run();
        assert!(t2 > t1);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("huge", 1, 2048, 1.0e5));
    }

    #[test]
    fn concurrency_degree_one_forbids_overlap() {
        // A Tesla-class device (C = 1, Table 1) cannot overlap kernels
        // even across streams — Eq. 6's upper bound at its tightest.
        let mut props = DeviceProps::p100();
        props.arch = crate::device::Arch::Tesla;
        let mut dev = Device::new(props);
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        let a = dev.launch(s1, kernel("a", 8, 256, 1.0e7));
        let b = dev.launch(s2, kernel("b", 8, 256, 1.0e7));
        dev.run();
        let (a_s, a_e) = dev.kernel_span(a).unwrap();
        let (b_s, b_e) = dev.kernel_span(b).unwrap();
        let overlap = a_e.min(b_e).saturating_sub(a_s.max(b_s));
        assert_eq!(overlap, 0, "C=1 must serialize everything");
    }

    #[test]
    fn drained_ring_exchange_leaves_no_copy_bookkeeping() {
        use crate::fabric::{CopyDesc, Fabric, LinkProps};
        use crate::kernel::{BufferId, ByteRange, MemAccess};
        let mut devices: Vec<Device> = (0..3).map(|_| Device::new(DeviceProps::p100())).collect();
        let comm: Vec<StreamId> = devices.iter_mut().map(|d| d.create_stream()).collect();
        let mut fabric = Fabric::ring(3, LinkProps::nvlink());
        let mut devs: Vec<&mut Device> = devices.iter_mut().collect();
        let mem = |buffer: u64| MemAccess {
            buffer: BufferId(buffer),
            range: ByteRange::new(0, 64 * 1024),
        };
        for round in 0..4u64 {
            // Device 1's first receive marker sits behind a long kernel,
            // so that copy lands before its marker reaches the stream
            // front (the `copy_arrived` path); device 2's first marker is
            // at the front from the start and parks (`copy_waiters`).
            if round == 0 {
                devs[1].launch(comm[1], kernel("busy", 56, 256, 5.0e8));
            }
            for src in 0..3 {
                let dst = (src + 1) % 3;
                fabric
                    .copy_p2p(
                        &mut devs,
                        CopyDesc::new(
                            "xchg",
                            (src, comm[src], mem(round)),
                            (dst, comm[dst], mem(100 + round)),
                        ),
                    )
                    .unwrap();
            }
        }
        fabric.run(&mut devs);
        for (i, d) in devices.iter().enumerate() {
            assert!(d.fully_idle(), "device {i} did not drain");
            assert!(d.copy_src.is_empty(), "device {i} kept source state");
            assert!(d.copy_arrived.is_empty(), "device {i} kept arrivals");
            assert!(d.copy_waiters.is_empty(), "device {i} kept waiters");
        }
    }

    fn compute_only(name: &str, blocks: u32, threads: u32, flops: f64) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), 32, 0),
            KernelCost::new(flops, 0.0),
        )
    }

    #[test]
    fn burst_event_payload_is_32_bytes() {
        assert_eq!(std::mem::size_of::<EvKind>(), 32);
    }

    #[test]
    fn a_full_wave_is_one_queued_group_and_one_logical_event_per_sm() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("k", 56, 256, 1.0e6));
        dev.kick();
        assert!(
            dev.step_one(),
            "the host launch time arrives; the wave is placed"
        );
        assert_eq!(dev.queue.len(), 1, "56 equal bursts on adjacent SMs");
        let before = dev.events_processed();
        assert!(dev.step_one());
        assert_eq!(dev.events_processed() - before, 56);
        assert_eq!(dev.trace().len(), 1);
        assert!(!dev.step_one());
    }

    #[test]
    fn a_group_ends_where_the_block_count_or_the_end_time_changes() {
        // 84 two-warp blocks: 2 per SM on SMs 0..28, 1 on the rest. Both
        // residencies sit below `warps_for_peak`, so every burst ends at
        // the same time and only the block count splits the wave.
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, compute_only("k", 84, 64, 1.0e6));
        dev.kick();
        dev.step_one();
        assert_eq!(dev.queue.len(), 2);
        for retired in [28, 56] {
            assert!(dev.step_one());
            assert_eq!(dev.events_processed(), 1 + retired);
        }
        assert_eq!(dev.trace().len(), 1);

        // One 16-warp block everywhere, but SMs 0..28 already hold 16
        // warps of `a`: equal counts, two residencies, two end times.
        let mut dev = Device::new(DeviceProps::p100());
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        dev.launch(s1, compute_only("a", 28, 512, 1.0e9));
        let b = dev.launch(s2, compute_only("b", 56, 512, 1.0e6));
        dev.kick();
        dev.step_one();
        dev.step_one();
        assert_eq!(dev.queue.len(), 3, "one group of `a`, two of `b`");
        dev.step_one();
        assert_eq!(dev.events_processed(), 2 + 28, "the uncrowded half first");
        assert!(dev.kernel_span(b).is_none());
        dev.step_one();
        assert!(dev.kernel_span(b).is_some());
    }

    #[test]
    fn completion_on_a_groups_last_member_stops_step_run_at_the_ready_copy() {
        let mut dev = Device::new(DeviceProps::p100());
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        dev.launch(s1, kernel("producer", 56, 256, 1.0e6));
        dev.enqueue_copy_src(s1, CopyId(0));
        // Issued two launch overheads later at the same cost: its group is
        // still queued, inside the horizon, when the producer's retires.
        dev.launch(s2, kernel("bystander", 56, 256, 1.0e6));
        dev.kick();
        let next = dev.step_run(SimTime::MAX);
        assert_eq!(dev.trace().len(), 1, "stopped before the bystander's group");
        assert!(next.is_some_and(|t| t > dev.now()));
        // Two host-ready events, then one logical event per producer burst.
        assert_eq!(dev.copy_ready, [(CopyId(0), dev.now(), 2 + 56)]);
    }

    /// One launch of the differential mixes below — `(stream, blocks,
    /// threads, smem, regs, cost class, edge)` — plus an optional
    /// cross-stream edge issued right after it: edge `(0, ..)` records an
    /// event on the launch's stream, `(1, stream, pick)` makes `stream` wait
    /// for the `pick`-th event recorded so far, anything else issues none
    /// (`tests/dispatch_saturation.rs` has the same generator for the public
    /// surface).
    type Op = (usize, u32, u32, u32, u32, usize, (u8, usize, usize));

    fn issue_mix(dev: &mut Device, streams: usize, ops: &[Op]) {
        let pool: Vec<_> = (0..streams).map(|_| dev.create_stream()).collect();
        let mut recorded = Vec::new();
        for (i, &(stream, blocks, threads, smem, regs, cost, edge)) in ops.iter().enumerate() {
            // Few cost classes, so same-time completions are common.
            let (flops, bytes) = [(2.0e4, 0.0), (3.0e5, 6.0e4), (5.0e4, 4.0e5)][cost];
            let k = KernelDesc::new(
                "k",
                LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), regs, smem),
                KernelCost::new(flops, bytes),
            )
            .with_tag(i as u64);
            let stream = pool[stream % streams];
            dev.launch(stream, k);
            match edge {
                (0, ..) => {
                    let ev = dev.create_event();
                    dev.record_event(stream, ev);
                    recorded.push(ev);
                }
                // Only events recorded earlier in issue order: no cycle.
                (1, waiter, pick) if !recorded.is_empty() => {
                    dev.wait_event(pool[waiter % streams], recorded[pick % recorded.len()]);
                }
                _ => {}
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Burst groups against the per-SM arm, in lock-step: after every
        /// grouped pop the reference catches up to the same logical event
        /// count and must be in the same state.
        #[test]
        fn burst_groups_match_the_per_sm_reference(
            props in proptest::sample::select({
                let mut one_sm = DeviceProps::p100();
                one_sm.num_sms = 1;
                let mut single_slot = DeviceProps::p100();
                single_slot.arch = crate::device::Arch::Tesla; // C = 1
                // Any block above 24 KiB of shared memory is alone on its SM.
                let mut starved = DeviceProps::p100();
                starved.smem_per_sm = 48 * 1024;
                let mut all = DeviceProps::evaluation_set();
                all.extend([one_sm, single_slot, starved]);
                all
            }),
            use_heap in proptest::bool::ANY,
            streams in 1usize..=8,
            ops in proptest::collection::vec(
                (
                    0usize..8,
                    1u32..=5_000,
                    32u32..=1024,
                    0u32..=48 * 1024,
                    16u32..=64,
                    0usize..3,
                    (0u8..5, 0usize..8, 0usize..64),
                ),
                1..=24,
            ),
        ) {
            let ops: Vec<Op> = ops;
            let mut pair = [false, true].map(|never_extend| {
                let mut dev = Device::new(props.clone());
                dev.never_extend_groups = never_extend;
                if use_heap {
                    dev.use_heap_queue();
                }
                issue_mix(&mut dev, streams, &ops);
                dev.kick();
                dev
            });
            let [grouped, per_sm] = &mut pair;
            while grouped.step_one() {
                while per_sm.events_processed < grouped.events_processed {
                    proptest::prop_assert!(per_sm.step_one());
                }
                proptest::prop_assert_eq!(per_sm.events_processed, grouped.events_processed);
                proptest::prop_assert_eq!(per_sm.clock, grouped.clock);
                proptest::prop_assert_eq!(
                    per_sm.bw.demand().to_bits(),
                    grouped.bw.demand().to_bits()
                );
                proptest::prop_assert_eq!(per_sm.trace.len(), grouped.trace.len());
                proptest::prop_assert!(per_sm.queue.len() >= grouped.queue.len());
            }
            proptest::prop_assert!(!per_sm.step_one());
            proptest::prop_assert_eq!(grouped.run(), per_sm.run());
            proptest::prop_assert_eq!(grouped.trace().len(), ops.len());
            proptest::prop_assert_eq!(grouped.trace(), per_sm.trace());
            proptest::prop_assert_eq!(grouped.command_log(), per_sm.command_log());
            proptest::prop_assert_eq!(grouped.stats(), per_sm.stats());
            for (a, b) in grouped.sms.iter().zip(&per_sm.sms) {
                proptest::prop_assert_eq!(a.warp_time_integral, b.warp_time_integral);
                proptest::prop_assert_eq!(a.last_change, b.last_change);
            }
        }
    }

    #[test]
    fn blocks_never_oversubscribe_sm() {
        // Launch many kernels and verify (via stats) utilization ≤ 1.
        let mut dev = Device::new(DeviceProps::k40c());
        let streams: Vec<_> = (0..8).map(|_| dev.create_stream()).collect();
        for i in 0..16u32 {
            dev.launch(streams[(i % 8) as usize], kernel("k", 64, 256, 5.0e6));
        }
        dev.run();
        let stats = dev.stats();
        assert!(stats.avg_occupancy <= 1.0 + 1e-9);
        assert!(stats.avg_occupancy > 0.0);
    }
}
