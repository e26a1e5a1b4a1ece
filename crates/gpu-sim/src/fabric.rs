//! A multi-GPU interconnect fabric: N devices joined by point-to-point
//! links, with first-class asynchronous peer-to-peer copies.
//!
//! The fabric is the missing piece between single-device GLP4NN scheduling
//! and data-parallel training: collectives (`crates/collective`) are built
//! as chains of [`CopyP2P`](Fabric::copy_p2p) commands plus local reduction
//! kernels, and the comm/compute overlap that makes data parallelism scale
//! is exactly the stream/event machinery the single-device engine already
//! has.
//!
//! Model:
//!
//! - A **link** is a directed `(src, dst)` connection with a bandwidth, a
//!   fixed latency, and optional deterministic jitter ([`LinkProps`];
//!   [`pcie3`](LinkProps::pcie3) and [`nvlink`](LinkProps::nvlink)
//!   presets). Links are independent — NVLink-style point-to-point — and a
//!   link serializes the transfers scheduled on it (FIFO, busy-until).
//! - A **copy** occupies a source stream (like `cudaMemcpyPeerAsync`: the
//!   sending stream is busy for the whole transfer) and completes a
//!   destination-side wait marker, giving the same happens-before edge an
//!   event wait would. Copies pay the host launch overhead on the source
//!   device, appear in its command log ([`CmdRecord::CopySrc`] /
//!   [`CmdRecord::CopyDst`]) and in its timeline like kernels do.
//! - [`Fabric::run`] is a global discrete-event loop: it always steps the
//!   device with the earliest pending event (ties go to the lower device
//!   index), so cross-device timestamps are processed in nondecreasing
//!   global order and copy completions never time-travel. It is fully
//!   deterministic.
//!
//! # The frontier invariant
//!
//! The loop does not ask every device for its next event after every
//! event. It keeps a **frontier** — one cached next-event time per device
//! — and relies on a short list of what can change a device's queue
//! inside `run`: the device being stepped (a pop and the pushes the event
//! causes), and `resolve_copy`, which pushes `CopyDone` on the copy's
//! source device and `CopyArrived` on its destination. So only the
//! stepped device and the two endpoints of each resolved copy are
//! re-peeked. Likewise a copy becomes ready only when its source stream
//! advances, which happens only while its own device steps, so after the
//! initial kick only the stepped device is drained. And because nothing
//! but the minimum device's own events and the copies they surface can
//! move any frontier entry, that device keeps stepping
//! (`Device::step_run`) for as long as its `(time, device index)` key
//! stays below the runner-up's and no copy has surfaced: the global
//! sequence of `step_one` and `resolve_copy` calls is exactly that of the
//! loop that reselects after every event. Debug builds re-check every
//! frontier entry against the device at every selection.
//!
//! The fabric does **not** own its devices — callers keep them (an
//! execution context owns its `Device`) and lend `&mut [&mut Device]` per
//! call, indexed by the device's position in the slice.

use crate::device::DeviceProps;
use crate::engine::Device;
use crate::kernel::{KernelDesc, KernelId, KernelName, LaunchConfig, MemAccess};
use crate::stats::DeviceStats;
use crate::stream::{CopyId, StreamId};
use crate::timeline::{KernelTrace, Timeline};
use crate::SimTime;

/// Properties of one directed link between two devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProps {
    /// Link bandwidth in GB/s (1 GB = 1e9 bytes).
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer latency in ns.
    pub latency_ns: SimTime,
    /// Maximum deterministic timing jitter added per transfer, in ns
    /// (a pseudo-random value in `[0, jitter_ns]` derived from the copy
    /// id — repeatable, and never affects data, only timing).
    pub jitter_ns: SimTime,
}

impl LinkProps {
    /// A PCIe 3.0 x16-like link: ~12 GB/s effective, ~1.3 µs latency.
    pub fn pcie3() -> Self {
        LinkProps {
            bandwidth_gbps: 12.0,
            latency_ns: 1_300,
            jitter_ns: 0,
        }
    }

    /// An NVLink-like link (P100 generation): ~40 GB/s, ~700 ns latency.
    pub fn nvlink() -> Self {
        LinkProps {
            bandwidth_gbps: 40.0,
            latency_ns: 700,
            jitter_ns: 0,
        }
    }

    /// The same link with timing jitter up to `ns` per transfer.
    pub fn with_jitter(mut self, ns: SimTime) -> Self {
        self.jitter_ns = ns;
        self
    }

    /// Pure transfer duration of `bytes` over this link (latency + wire
    /// time, before jitter), in ns.
    pub fn transfer_ns(&self, bytes: u64) -> SimTime {
        let wire = (bytes as f64 / self.bandwidth_gbps).ceil() as SimTime;
        self.latency_ns + wire.max(1)
    }
}

/// Typed error for cross-device misuse, mirroring `StreamError` /
/// `PlanError` elsewhere in the workspace: misconfigured topologies are
/// caller bugs we want surfaced as values, not panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// A device index is outside the fabric.
    UnknownDevice {
        /// Offending index.
        device: usize,
        /// Number of devices in the fabric.
        num_devices: usize,
    },
    /// Source and destination are the same device (use an ordinary kernel
    /// or event, not the fabric, for intra-device data movement).
    SelfCopy {
        /// The device named on both sides.
        device: usize,
    },
    /// No link exists between the two devices.
    NotConnected {
        /// Source device.
        src: usize,
        /// Destination device.
        dst: usize,
    },
    /// The stream does not exist on that device — typically a stream id
    /// created on *another* device's stream table.
    UnknownStream {
        /// Device the operation targeted.
        device: usize,
        /// The invalid stream.
        stream: StreamId,
        /// Number of streams the device actually has.
        num_streams: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::UnknownDevice {
                device,
                num_devices,
            } => write!(
                f,
                "unknown device {device}: fabric has {num_devices} devices"
            ),
            FabricError::SelfCopy { device } => {
                write!(f, "self-copy on device {device}: src and dst are the same")
            }
            FabricError::NotConnected { src, dst } => {
                write!(f, "no link from device {src} to device {dst}")
            }
            FabricError::UnknownStream {
                device,
                stream,
                num_streams,
            } => write!(
                f,
                "stream {} does not exist on device {device} ({num_streams} streams) — \
                 was it created on another device?",
                stream.raw()
            ),
        }
    }
}

impl std::error::Error for FabricError {}

/// Description of one peer-to-peer copy: endpoints, streams, and the
/// declared buffer accesses (source read, destination write) the schedule
/// sanitizer checks.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyDesc {
    /// Name shown in timelines / diagnostics (e.g. `p2p:0->1 bucket3`).
    pub name: KernelName,
    /// Source device index within the fabric.
    pub src: usize,
    /// Destination device index within the fabric.
    pub dst: usize,
    /// Stream on the source device the transfer occupies.
    pub src_stream: StreamId,
    /// Stream on the destination device that waits for the arrival.
    pub dst_stream: StreamId,
    /// Bytes transferred.
    pub bytes: u64,
    /// Declared read on the source device.
    pub src_access: MemAccess,
    /// Declared write on the destination device.
    pub dst_access: MemAccess,
}

impl CopyDesc {
    /// Build a copy description; `bytes` defaults to the length of the
    /// source range.
    pub fn new(
        name: &str,
        (src, src_stream, src_access): (usize, StreamId, MemAccess),
        (dst, dst_stream, dst_access): (usize, StreamId, MemAccess),
    ) -> Self {
        CopyDesc {
            name: name.into(),
            src,
            dst,
            src_stream,
            dst_stream,
            bytes: src_access.range.len(),
            src_access,
            dst_access,
        }
    }
}

/// One scheduled copy: its description plus resolved timing.
#[derive(Debug, Clone)]
struct CopyRecord {
    desc: CopyDesc,
    /// Host time the source-side enqueue completed.
    launch_ns: SimTime,
    /// Transfer start (after link queueing), set by [`Fabric::run`].
    start: Option<SimTime>,
    /// Transfer end, set by [`Fabric::run`].
    end: Option<SimTime>,
}

/// How the slots of a [`FabricSpec`] are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTopology {
    /// Every ordered pair of slots joined by the spec's link.
    FullyConnected,
    /// Slot `i` linked bidirectionally to `(i + 1) % n`.
    Ring,
}

/// A declarative placement plan for a fabric: which device model occupies
/// each slot and how the slots are linked.
///
/// The [`Fabric`] itself deliberately does not own devices, so anything
/// that wants to *stand up* a multi-device deployment (the serving fleet,
/// the data-parallel trainer, a benchmark sweep) needs a description it
/// can instantiate devices and fabric from together, keeping slot indices
/// consistent between the two. That is this type: a named, possibly
/// heterogeneous list of [`DeviceProps`] plus a link model and topology.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// Name shown in reports (e.g. `uniform8-nvlink`).
    pub name: String,
    /// Device model per fabric slot, in slot order.
    pub slots: Vec<DeviceProps>,
    /// Link model joining the slots.
    pub link: LinkProps,
    /// Wiring between slots.
    pub topology: FabricTopology,
}

impl FabricSpec {
    /// A homogeneous fully-connected spec: `n` slots of the same model.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn uniform(name: &str, n: usize, props: DeviceProps, link: LinkProps) -> Self {
        assert!(n > 0, "a fabric spec needs at least one slot");
        FabricSpec {
            name: name.to_string(),
            slots: vec![props; n],
            link,
            topology: FabricTopology::FullyConnected,
        }
    }

    /// A heterogeneous fully-connected spec with explicit per-slot models.
    ///
    /// # Panics
    /// Panics if `slots` is empty.
    pub fn heterogeneous(name: &str, slots: Vec<DeviceProps>, link: LinkProps) -> Self {
        assert!(!slots.is_empty(), "a fabric spec needs at least one slot");
        FabricSpec {
            name: name.to_string(),
            slots,
            link,
            topology: FabricTopology::FullyConnected,
        }
    }

    /// The same spec with a different topology.
    pub fn with_topology(mut self, topology: FabricTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Number of device slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The device model in slot `i`.
    pub fn slot(&self, i: usize) -> &DeviceProps {
        &self.slots[i]
    }

    /// Peak single-precision FLOP/s of slot `i`'s model — the capacity
    /// weight a heterogeneity-aware router uses.
    pub fn slot_peak_flops(&self, i: usize) -> f64 {
        self.slots[i].device_peak_flops()
    }

    /// Instantiate the link structure described by this spec.
    pub fn build_fabric(&self) -> Fabric {
        let n = self.slots.len();
        match self.topology {
            FabricTopology::FullyConnected => Fabric::fully_connected(n, self.link),
            FabricTopology::Ring => Fabric::ring(n, self.link),
        }
    }

    /// Instantiate one fresh [`Device`] per slot, in slot order.
    pub fn spawn_devices(&self) -> Vec<Device> {
        self.slots.iter().cloned().map(Device::new).collect()
    }
}

/// A fabric of N devices and the links between them.
///
/// See the [module docs](self) for the model. Devices are *not* owned;
/// every operation takes the device slice, indexed by fabric position.
#[derive(Debug)]
pub struct Fabric {
    num_devices: usize,
    /// `links[src][dst]`.
    links: Vec<Vec<Option<LinkProps>>>,
    /// Busy-until time per directed link (transfers on a link serialize).
    link_busy: Vec<Vec<SimTime>>,
    copies: Vec<CopyRecord>,
    jitter_seed: u64,
    /// Worker threads used by [`run`](Fabric::run) (see
    /// [`set_workers`](Fabric::set_workers)). 1 = the global
    /// earliest-event loop.
    workers: usize,
    /// Reusable drain buffer for ready copies (keeps the steady-state
    /// loop allocation-free once warm).
    ready_buf: Vec<(CopyId, SimTime, u64)>,
    /// Reusable storage for the loop's cached next-event time per device
    /// (see the module docs, "The frontier invariant").
    frontier: Vec<Option<SimTime>>,
    /// Optional telemetry recorder: P2P copy spans on the source stream,
    /// transfer flow arrows to the destination, and link-byte counters.
    /// Device index = Chrome-trace pid, matching the per-device
    /// [`Device::set_telemetry`] convention.
    telemetry: telemetry::RecorderSlot,
}

impl Fabric {
    /// A fabric of `n` devices with no links (connect them explicitly).
    pub fn new(n: usize) -> Self {
        Fabric {
            num_devices: n,
            links: vec![vec![None; n]; n],
            link_busy: vec![vec![0; n]; n],
            copies: Vec::new(),
            jitter_seed: 0,
            workers: 1,
            ready_buf: Vec::new(),
            frontier: Vec::new(),
            telemetry: telemetry::RecorderSlot::empty(),
        }
    }

    /// A fully connected fabric: every ordered pair joined by `link`.
    pub fn fully_connected(n: usize, link: LinkProps) -> Self {
        let mut f = Fabric::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    f.links[a][b] = Some(link);
                }
            }
        }
        f
    }

    /// A ring fabric: device `i` linked to `(i+1) % n` and back.
    pub fn ring(n: usize, link: LinkProps) -> Self {
        let mut f = Fabric::new(n);
        for a in 0..n {
            let b = (a + 1) % n;
            if a != b {
                f.links[a][b] = Some(link);
                f.links[b][a] = Some(link);
            }
        }
        f
    }

    /// Connect `a` and `b` in both directions with `link`.
    pub fn connect(&mut self, a: usize, b: usize, link: LinkProps) -> Result<(), FabricError> {
        for d in [a, b] {
            if d >= self.num_devices {
                return Err(FabricError::UnknownDevice {
                    device: d,
                    num_devices: self.num_devices,
                });
            }
        }
        if a == b {
            return Err(FabricError::SelfCopy { device: a });
        }
        self.links[a][b] = Some(link);
        self.links[b][a] = Some(link);
        Ok(())
    }

    /// Seed for the deterministic per-copy jitter hash.
    pub fn set_jitter_seed(&mut self, seed: u64) {
        self.jitter_seed = seed;
    }

    /// Number of worker threads [`run`](Fabric::run) may use to step
    /// devices concurrently under conservative lookahead. 1 (the
    /// default) keeps the global earliest-event loop. Any worker
    /// count yields byte-identical results — see
    /// [`run_with_workers`](Fabric::run_with_workers).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Builder form of [`set_workers`](Fabric::set_workers).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// The smallest latency of any configured link — the conservative
    /// lookahead bound: every cross-device effect discovered at or after
    /// global time `T` lands strictly after `T + min_link_latency`, so
    /// devices may safely advance that far ahead of their peers.
    /// `None` when no links exist (devices are then fully independent).
    pub fn min_link_latency(&self) -> Option<SimTime> {
        self.links
            .iter()
            .flatten()
            .flatten()
            .map(|l| l.latency_ns)
            .min()
    }

    /// Attach a telemetry recorder: each resolved P2P copy emits a span
    /// on its source device's stream, a flow arrow to the destination
    /// stream, and per-link byte counters. Observation-only — link
    /// scheduling and timing are unaffected.
    pub fn set_telemetry(&mut self, rec: telemetry::SharedRecorder) {
        self.telemetry.attach(rec);
    }

    /// Detach the telemetry recorder.
    pub fn clear_telemetry(&mut self) {
        self.telemetry.clear();
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// The directed link from `src` to `dst`, if connected.
    pub fn link(&self, src: usize, dst: usize) -> Option<&LinkProps> {
        self.links.get(src)?.get(dst)?.as_ref()
    }

    /// Number of copies enqueued so far.
    pub fn num_copies(&self) -> usize {
        self.copies.len()
    }

    /// Description of a previously enqueued copy.
    pub fn copy_desc(&self, id: CopyId) -> &CopyDesc {
        &self.copies[id.raw() as usize].desc
    }

    /// Resolved `(start, end)` of a copy's transfer, after [`run`].
    ///
    /// [`run`]: Fabric::run
    pub fn copy_span(&self, id: CopyId) -> Option<(SimTime, SimTime)> {
        let rec = &self.copies[id.raw() as usize];
        match (rec.start, rec.end) {
            (Some(s), Some(e)) => Some((s, e)),
            _ => None,
        }
    }

    /// Validate that `device`/`stream` name an existing stream of an
    /// existing device.
    fn check_stream(
        &self,
        devs: &[&mut Device],
        device: usize,
        stream: StreamId,
    ) -> Result<(), FabricError> {
        if device >= self.num_devices || device >= devs.len() {
            return Err(FabricError::UnknownDevice {
                device,
                num_devices: self.num_devices.min(devs.len()),
            });
        }
        let n = devs[device].num_streams();
        if stream.raw() as usize >= n {
            return Err(FabricError::UnknownStream {
                device,
                stream,
                num_streams: n,
            });
        }
        Ok(())
    }

    /// Launch a kernel on `device`'s `stream`, validating that the stream
    /// actually belongs to that device (the classic multi-GPU bug of using
    /// a stream created under another device).
    pub fn launch_on(
        &self,
        devs: &mut [&mut Device],
        device: usize,
        stream: StreamId,
        desc: KernelDesc,
    ) -> Result<KernelId, FabricError> {
        self.check_stream(devs, device, stream)?;
        Ok(devs[device].launch(stream, desc))
    }

    /// Enqueue an asynchronous peer-to-peer copy: the source stream is
    /// occupied for the whole transfer, the destination stream blocks at
    /// its `CopyDst` marker until the data lands, and the transfer itself
    /// is scheduled on the `(src, dst)` link by [`run`](Fabric::run),
    /// contending FIFO with other transfers on the same link.
    pub fn copy_p2p(
        &mut self,
        devs: &mut [&mut Device],
        desc: CopyDesc,
    ) -> Result<CopyId, FabricError> {
        if desc.src == desc.dst {
            return Err(FabricError::SelfCopy { device: desc.src });
        }
        self.check_stream(devs, desc.src, desc.src_stream)?;
        self.check_stream(devs, desc.dst, desc.dst_stream)?;
        if self.links[desc.src][desc.dst].is_none() {
            return Err(FabricError::NotConnected {
                src: desc.src,
                dst: desc.dst,
            });
        }
        let id = CopyId(self.copies.len() as u64);
        let launch_ns = devs[desc.src].enqueue_copy_src(desc.src_stream, id);
        devs[desc.dst].enqueue_copy_dst(desc.dst_stream, id);
        self.copies.push(CopyRecord {
            desc,
            launch_ns,
            start: None,
            end: None,
        });
        Ok(id)
    }

    /// Deterministic per-copy jitter in `[0, jitter_ns]` (splitmix64 of
    /// the copy id and fabric seed).
    fn jitter(&self, id: CopyId, jitter_ns: SimTime) -> SimTime {
        if jitter_ns == 0 {
            return 0;
        }
        let mut z = self
            .jitter_seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id.raw().wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        z % (jitter_ns + 1)
    }

    /// Schedule a ready copy on its link and wake both endpoint devices at
    /// the transfer end.
    fn resolve_copy(&mut self, devs: &mut [&mut Device], id: CopyId, ready: SimTime) {
        let idx = id.raw() as usize;
        let (src, dst, bytes, name, stream, dst_stream, launch_ns) = {
            let d = &self.copies[idx].desc;
            (
                d.src,
                d.dst,
                d.bytes,
                d.name.clone(),
                d.src_stream,
                d.dst_stream,
                self.copies[idx].launch_ns,
            )
        };
        let link = self.links[src][dst].expect("link validated at enqueue");
        let start = ready.max(self.link_busy[src][dst]);
        let end = start + link.transfer_ns(bytes) + self.jitter(id, link.jitter_ns);
        self.link_busy[src][dst] = end;
        self.copies[idx].start = Some(start);
        self.copies[idx].end = Some(end);
        // The copy shows up in the source device's timeline like a kernel
        // (tagged with its fabric-wide copy id).
        if self.telemetry.is_attached() {
            self.telemetry.with(|r| {
                r.span(src as u32, stream.raw() as u64, &name, "p2p", start, end);
                r.flow(
                    &name,
                    "p2p",
                    (src as u32, stream.raw() as u64, end),
                    (dst as u32, dst_stream.raw() as u64, end),
                );
                r.counter_add("fabric.p2p_copies", 1);
                r.counter_add("fabric.link_bytes", bytes);
                r.counter_add(&format!("fabric.link_bytes.{src}->{dst}"), bytes);
            });
        }
        devs[src].push_trace_entry(KernelTrace {
            id: KernelId(u64::MAX - id.raw()),
            name,
            stream,
            launch: LaunchConfig::new(
                crate::kernel::Dim3::linear(1),
                crate::kernel::Dim3::linear(1),
                0,
                0,
            ),
            tag: id.raw(),
            launch_ns,
            start_ns: start,
            end_ns: end,
        });
        devs[src].finish_copy_src(id, end);
        devs[dst].finish_copy_dst(id, dst_stream, end);
    }

    /// Run all devices to completion, scheduling link transfers as their
    /// source halves become ready. Returns the latest device clock.
    ///
    /// Uses the worker count configured by
    /// [`set_workers`](Fabric::set_workers); results are byte-identical
    /// for every worker count (see
    /// [`run_with_workers`](Fabric::run_with_workers)).
    pub fn run(&mut self, devs: &mut [&mut Device]) -> SimTime {
        self.run_with_workers(devs, self.workers)
    }

    /// Run all devices to completion using up to `workers` threads.
    ///
    /// `workers <= 1` is the global discrete-event loop: always step the
    /// device with the earliest pending event, so cross-device timestamps
    /// are processed in nondecreasing global order (selection is cached —
    /// see the module docs, "The frontier invariant").
    ///
    /// `workers > 1` runs **conservative-lookahead rounds**: each round
    /// resolves all ready copies (sorted by ready time, then source
    /// device, then per-device discovery order — exactly the order the
    /// sequential loop discovers them in), computes the global minimum
    /// next event time `T`, and then lets every device independently
    /// process all its events up to the horizon `T + min_link_latency`.
    /// That is safe because any copy becoming ready during the round has
    /// ready time ≥ `T` and completes at
    /// `ready + latency + wire(≥1) > T + min_link_latency`, i.e. no
    /// cross-device effect can land inside the horizon. Rounds depend
    /// only on global state at their boundary, so any worker count —
    /// including the sequential path — produces byte-identical timelines
    /// (pinned by the `fabric_parallel_determinism` proptest).
    ///
    /// Telemetry keeps a run on the one-worker loop — the default, and the
    /// fast path: recorder entries are pushed in stepping order, and
    /// concurrent stepping would interleave them nondeterministically.
    pub fn run_with_workers(&mut self, devs: &mut [&mut Device], workers: usize) -> SimTime {
        assert_eq!(
            devs.len(),
            self.num_devices,
            "fabric of {} devices got {} device handles",
            self.num_devices,
            devs.len()
        );
        let telemetry_on =
            self.telemetry.is_attached() || devs.iter().any(|d| d.telemetry().is_some());
        for d in devs.iter_mut() {
            d.kick();
        }
        if workers <= 1 || devs.len() <= 1 || telemetry_on {
            self.run_sequential(devs);
        } else {
            self.run_lookahead(devs, workers.min(devs.len()));
        }
        for d in devs.iter_mut() {
            debug_assert!(
                d.fully_idle(),
                "fabric drained with a non-idle device (missing copy half or \
                 unsatisfiable wait?)"
            );
            d.push_sync_marker();
        }
        devs.iter().map(|d| d.now()).max().unwrap_or(0)
    }

    /// The one-worker loop: resolve ready copies, then run-length step the
    /// device with the earliest `(time, device index)` key, repeat. See
    /// the module docs ("The frontier invariant") for why re-peeking only
    /// the devices whose queues changed reproduces the loop that reselects
    /// after every event.
    fn run_sequential(&mut self, devs: &mut [&mut Device]) {
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        frontier.extend(devs.iter_mut().map(|d| d.next_event_time()));
        let mut ready = std::mem::take(&mut self.ready_buf);
        ready.clear();
        // The kick may have surfaced copies on any device; afterwards only
        // the device that stepped can.
        for d in devs.iter_mut() {
            d.drain_ready_copies(&mut ready);
        }
        loop {
            // Resolve copies whose source half reached its stream front,
            // in deterministic (ready time, copy id) order.
            ready.sort_unstable_by_key(|&(id, t, _)| (t, id));
            for (id, t, _) in ready.drain(..) {
                self.resolve_copy(devs, id, t);
                for end in [self.copy_desc(id).src, self.copy_desc(id).dst] {
                    frontier[end] = devs[end].next_event_time();
                }
            }
            #[cfg(debug_assertions)]
            for (j, d) in devs.iter_mut().enumerate() {
                assert_eq!(
                    frontier[j],
                    d.next_event_time(),
                    "stale frontier: device {j}"
                );
                d.drain_ready_copies(&mut ready);
                assert!(ready.is_empty(), "undrained ready copy on device {j}");
            }
            // The earliest pending event and the runner-up.
            let mut keys = frontier
                .iter()
                .enumerate()
                .filter_map(|(j, t)| t.map(|t| (t, j)));
            let Some(mut first) = keys.next() else { break };
            let mut second = None;
            for key in keys {
                if key < first {
                    second = Some(std::mem::replace(&mut first, key));
                } else if second.is_none_or(|s| key < s) {
                    second = Some(key);
                }
            }
            // The last timestamp at which device `i` still precedes the
            // runner-up (`t2 > first.0 >= 0` whenever `j < i`).
            let i = first.1;
            let horizon = match second {
                Some((t2, j)) if j < i => t2 - 1,
                Some((t2, _)) => t2,
                None => SimTime::MAX,
            };
            frontier[i] = devs[i].step_run(horizon);
            devs[i].drain_ready_copies(&mut ready);
        }
        self.frontier = frontier;
        self.ready_buf = ready;
    }

    /// Conservative-lookahead rounds with per-device parallelism. See
    /// [`run_with_workers`](Fabric::run_with_workers) for the horizon
    /// argument.
    fn run_lookahead(&mut self, devs: &mut [&mut Device], workers: usize) {
        let lookahead = self.min_link_latency();
        // (ready time, src device, discovery step, copy): same-link copies
        // share a source device, where this key reproduces the sequential
        // loop's discovery order; cross-link order only needs determinism.
        let mut batch: Vec<(SimTime, usize, u64, CopyId)> = Vec::new();
        loop {
            let mut drained = std::mem::take(&mut self.ready_buf);
            batch.clear();
            for (i, d) in devs.iter_mut().enumerate() {
                drained.clear();
                d.drain_ready_copies(&mut drained);
                batch.extend(drained.iter().map(|&(id, t, step)| (t, i, step, id)));
            }
            self.ready_buf = drained;
            batch.sort_unstable();
            let resolved = batch.len();
            for (t, _, _, id) in batch.iter().copied() {
                self.resolve_copy(devs, id, t);
            }
            let Some(t_min) = devs.iter_mut().filter_map(|d| d.next_event_time()).min() else {
                if resolved == 0 {
                    break;
                }
                continue;
            };
            let horizon = match lookahead {
                Some(l) => t_min.saturating_add(l),
                None => SimTime::MAX,
            };
            let chunk = devs.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for group in devs.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for d in group {
                            d.step_until(horizon);
                        }
                    });
                }
            });
        }
    }

    /// Per-device utilization statistics.
    pub fn stats(&self, devs: &[&Device]) -> Vec<DeviceStats> {
        devs.iter().map(|d| d.stats()).collect()
    }

    /// A merged timeline across devices: stream rows are offset per device
    /// so device `i`'s streams render as a contiguous band under a shared
    /// time axis.
    pub fn merged_timeline(&self, devs: &[&Device]) -> Timeline {
        let mut offset = 0u32;
        let mut traces: Vec<KernelTrace> = Vec::new();
        for d in devs {
            for t in d.trace() {
                let mut t = t.clone();
                t.stream = StreamId(offset + t.stream.raw());
                traces.push(t);
            }
            offset += d.num_streams() as u32;
        }
        traces.sort_by_key(|t| (t.start_ns, t.stream));
        Timeline::new(&traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProps;
    use crate::kernel::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc};

    fn mem(label: &str, len: u64) -> MemAccess {
        MemAccess {
            buffer: BufferId::from_label(label),
            range: ByteRange::new(0, len),
        }
    }

    fn kernel(name: &str, blocks: u32, flops: f64) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(256), 32, 0),
            KernelCost::new(flops, flops / 4.0),
        )
    }

    fn two_devices() -> Vec<Device> {
        vec![
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ]
    }

    fn handles(devs: &mut [Device]) -> Vec<&mut Device> {
        devs.iter_mut().collect()
    }

    #[test]
    fn simple_copy_completes_and_orders_consumer() {
        let mut devs = two_devices();
        let s0 = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h = handles(&mut devs);
        let id = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new(
                    "p2p",
                    (0, s0, mem("src", 1 << 20)),
                    (1, s1, mem("dst", 1 << 20)),
                ),
            )
            .unwrap();
        // Consumer kernel on the destination stream must start after the
        // copy lands.
        let k = h[1].launch(s1, kernel("consume", 8, 1.0e6));
        fab.run(&mut h);
        let (c_start, c_end) = fab.copy_span(id).unwrap();
        let (k_start, _) = h[1].kernel_span(k).unwrap();
        assert!(c_end > c_start);
        assert!(
            k_start >= c_end,
            "consumer started at {k_start} before copy landed at {c_end}"
        );
        // The copy shows in the source device's trace like a kernel.
        assert!(h[0].trace().iter().any(|t| t.name == "p2p"));
    }

    #[test]
    fn copy_duration_follows_link_bandwidth() {
        let span_for = |link: LinkProps| {
            let mut devs = two_devices();
            let s0 = devs[0].create_stream();
            let s1 = devs[1].create_stream();
            let mut fab = Fabric::fully_connected(2, link);
            let mut h = handles(&mut devs);
            let id = fab
                .copy_p2p(
                    &mut h,
                    CopyDesc::new(
                        "p2p",
                        (0, s0, mem("src", 64 << 20)),
                        (1, s1, mem("dst", 64 << 20)),
                    ),
                )
                .unwrap();
            fab.run(&mut h);
            let (s, e) = fab.copy_span(id).unwrap();
            e - s
        };
        let pcie = span_for(LinkProps::pcie3());
        let nvl = span_for(LinkProps::nvlink());
        assert!(
            pcie > nvl * 2,
            "PCIe transfer ({pcie} ns) should be ≫ NVLink ({nvl} ns)"
        );
    }

    #[test]
    fn same_link_copies_serialize_different_links_overlap() {
        // Two big copies 0→1 on the same link serialize; the reverse
        // direction is a different link and may overlap.
        let mut devs = two_devices();
        let s0a = devs[0].create_stream();
        let s0b = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let s1b = devs[1].create_stream();
        let s1c = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::pcie3());
        let mut h = handles(&mut devs);
        let a = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new(
                    "a",
                    (0, s0a, mem("a.src", 32 << 20)),
                    (1, s1, mem("a.dst", 32 << 20)),
                ),
            )
            .unwrap();
        let b = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new(
                    "b",
                    (0, s0b, mem("b.src", 32 << 20)),
                    (1, s1b, mem("b.dst", 32 << 20)),
                ),
            )
            .unwrap();
        let c = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new(
                    "c",
                    (1, s1c, mem("c.src", 32 << 20)),
                    (0, s0b, mem("c.dst", 32 << 20)),
                ),
            )
            .unwrap();
        fab.run(&mut h);
        let (a_s, a_e) = fab.copy_span(a).unwrap();
        let (b_s, b_e) = fab.copy_span(b).unwrap();
        let (c_s, c_e) = fab.copy_span(c).unwrap();
        let overlap = |x: (SimTime, SimTime), y: (SimTime, SimTime)| {
            x.1.min(y.1).saturating_sub(x.0.max(y.0))
        };
        assert_eq!(
            overlap((a_s, a_e), (b_s, b_e)),
            0,
            "same-link transfers must serialize: a={a_s}-{a_e} b={b_s}-{b_e}"
        );
        assert!(
            overlap((a_s, a_e), (c_s, c_e)) > 0 || overlap((b_s, b_e), (c_s, c_e)) > 0,
            "reverse-direction transfer should overlap: c={c_s}-{c_e}"
        );
    }

    #[test]
    fn typed_errors_for_misuse() {
        let mut devs = two_devices();
        let s0 = devs[0].create_stream();
        let mut fab = Fabric::new(2); // no links
        let mut h = handles(&mut devs);
        // Self copy.
        let err = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new("x", (0, s0, mem("a", 8)), (0, s0, mem("b", 8))),
            )
            .unwrap_err();
        assert_eq!(err, FabricError::SelfCopy { device: 0 });
        // Unconnected devices.
        let err = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new("x", (0, s0, mem("a", 8)), (1, StreamId(0), mem("b", 8))),
            )
            .unwrap_err();
        assert_eq!(err, FabricError::NotConnected { src: 0, dst: 1 });
        // Stream created on device 0 does not exist on device 1.
        fab.connect(0, 1, LinkProps::pcie3()).unwrap();
        let err = fab
            .copy_p2p(
                &mut h,
                CopyDesc::new("x", (0, s0, mem("a", 8)), (1, s0, mem("b", 8))),
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::UnknownStream { device: 1, .. }));
        let err = fab
            .launch_on(&mut h, 1, s0, kernel("k", 1, 1.0e5))
            .unwrap_err();
        assert!(matches!(err, FabricError::UnknownStream { device: 1, .. }));
        // Unknown device index.
        let err = fab
            .launch_on(&mut h, 7, StreamId(0), kernel("k", 1, 1.0e5))
            .unwrap_err();
        assert!(matches!(err, FabricError::UnknownDevice { device: 7, .. }));
        assert!(err.to_string().contains("unknown device 7"));
        // connect() validates too.
        assert!(matches!(
            Fabric::new(2).connect(0, 5, LinkProps::pcie3()),
            Err(FabricError::UnknownDevice { device: 5, .. })
        ));
        assert!(matches!(
            Fabric::new(2).connect(1, 1, LinkProps::pcie3()),
            Err(FabricError::SelfCopy { device: 1 })
        ));
    }

    #[test]
    fn jitter_perturbs_timing_deterministically() {
        let run_with_seed = |seed: u64| {
            let mut devs = two_devices();
            let s0 = devs[0].create_stream();
            let s1 = devs[1].create_stream();
            let mut fab = Fabric::fully_connected(2, LinkProps::pcie3().with_jitter(10_000));
            fab.set_jitter_seed(seed);
            let mut h = handles(&mut devs);
            let id = fab
                .copy_p2p(
                    &mut h,
                    CopyDesc::new(
                        "p2p",
                        (0, s0, mem("src", 1 << 20)),
                        (1, s1, mem("dst", 1 << 20)),
                    ),
                )
                .unwrap();
            fab.run(&mut h);
            fab.copy_span(id).unwrap()
        };
        assert_eq!(run_with_seed(1), run_with_seed(1), "same seed, same timing");
        assert_ne!(
            run_with_seed(1),
            run_with_seed(2),
            "jitter responds to seed"
        );
    }

    #[test]
    fn merged_timeline_offsets_streams_per_device() {
        let mut devs = two_devices();
        let s0 = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h = handles(&mut devs);
        h[0].launch(s0, kernel("a", 8, 1.0e6));
        h[1].launch(s1, kernel("b", 8, 1.0e6));
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        let tl = fab.merged_timeline(&views);
        assert_eq!(tl.len(), 2);
        let ascii = tl.render_ascii(40);
        // Device 1's stream 1 renders offset by device 0's stream count.
        assert!(ascii.contains("stream  1"), "{ascii}");
        assert!(ascii.contains("stream  3"), "{ascii}");
        let stats = fab.stats(&views);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].kernels_completed, 1);
    }

    #[test]
    fn fabric_spec_builds_matching_devices_and_links() {
        let spec = FabricSpec::uniform("u4", 4, DeviceProps::p100(), LinkProps::nvlink());
        assert_eq!(spec.num_slots(), 4);
        let devs = spec.spawn_devices();
        assert_eq!(devs.len(), 4);
        let fab = spec.build_fabric();
        assert_eq!(fab.num_devices(), 4);
        // Fully connected: every ordered pair linked.
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(fab.link(a, b).is_some(), a != b, "link {a}->{b}");
            }
        }

        let hetero = FabricSpec::heterogeneous(
            "h3",
            vec![
                DeviceProps::k40c(),
                DeviceProps::p100(),
                DeviceProps::titan_xp(),
            ],
            LinkProps::pcie3(),
        )
        .with_topology(FabricTopology::Ring);
        assert_eq!(hetero.slot(0).name, DeviceProps::k40c().name);
        assert!(hetero.slot_peak_flops(1) > hetero.slot_peak_flops(0));
        let ring = hetero.build_fabric();
        assert!(ring.link(0, 1).is_some());
        assert!(ring.link(1, 2).is_some());
        assert!(ring.link(2, 0).is_some());
        // Ring of 3 happens to be fully connected; a ring of 4 is not.
        let ring4 = FabricSpec::uniform("r4", 4, DeviceProps::p100(), LinkProps::nvlink())
            .with_topology(FabricTopology::Ring)
            .build_fabric();
        assert!(ring4.link(0, 1).is_some());
        assert!(ring4.link(0, 2).is_none());
    }

    impl Fabric {
        /// The loop [`Fabric::run`] replaced, kept as the reference arm:
        /// after every single pop, drain and peek every device.
        fn run_reference(&mut self, devs: &mut [&mut Device]) -> SimTime {
            for d in devs.iter_mut() {
                d.kick();
            }
            let mut drained = Vec::new();
            let mut batch: Vec<(SimTime, CopyId)> = Vec::new();
            loop {
                for d in devs.iter_mut() {
                    d.drain_ready_copies(&mut drained);
                }
                batch.extend(drained.drain(..).map(|(id, t, _)| (t, id)));
                batch.sort_unstable();
                for (t, id) in batch.drain(..) {
                    self.resolve_copy(devs, id, t);
                }
                let next = devs
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, d)| d.next_event_time().map(|t| (t, i)))
                    .min();
                match next {
                    Some((_, i)) => {
                        devs[i].step_one();
                    }
                    None => break,
                }
            }
            for d in devs.iter_mut() {
                d.push_sync_marker();
            }
            devs.iter().map(|d| d.now()).max().unwrap_or(0)
        }
    }

    /// The four link presets of `tests/fabric_determinism.rs`.
    const LINKS: [fn() -> LinkProps; 4] = [
        LinkProps::pcie3,
        LinkProps::nvlink,
        || LinkProps::pcie3().with_jitter(200),
        || LinkProps::nvlink().with_jitter(50),
    ];

    /// One enqueue: `(is_copy, device, selector, class)` — a kernel launch
    /// on `device`'s stream `selector % 2` with cost class `class`, or a
    /// copy from `device` to the peer picked by `selector`, size class
    /// `class`. Interleaved, so kernels queue behind arrival markers and
    /// every arrival time shows in the timeline.
    type Op = (bool, usize, usize, u8);

    #[derive(Debug, PartialEq)]
    struct Observed {
        timeline: String,
        copy_spans: Vec<Option<(SimTime, SimTime)>>,
        events_processed: Vec<u64>,
        clocks: Vec<SimTime>,
        episode_ends: Vec<SimTime>,
        /// Telemetry records carry their global recording order (`seq`),
        /// so these pin the cross-device order of tied timestamps, which
        /// no per-device output shows.
        spans: Vec<telemetry::SpanEvent>,
        flows: Vec<telemetry::FlowEvent>,
    }

    /// Build the workload from the recipe and drive every episode with
    /// [`Fabric::run`] or the reference loop. `mirror` repeats each launch
    /// on every device, so devices of one model fire events at identical
    /// timestamps and selection is decided by the device-index tie-break.
    /// Episodes end with unequal device clocks, so a later copy from a
    /// lagging device to a leading one has an `end` before the
    /// destination's clock.
    fn drive(
        models: &[u8],
        link_sel: usize,
        seed: u64,
        mirror: bool,
        episodes: &[Vec<Op>],
        reference: bool,
    ) -> Observed {
        let n = models.len();
        let mut devices: Vec<Device> = models
            .iter()
            .map(|&m| Device::new(DeviceProps::evaluation_set().swap_remove(m as usize)))
            .collect();
        let pools: Vec<Vec<StreamId>> = devices
            .iter_mut()
            .map(|d| (0..2).map(|_| d.create_stream()).collect())
            .collect();
        let mut fab = Fabric::fully_connected(n, LINKS[link_sel]());
        fab.set_jitter_seed(seed);
        let rec = telemetry::shared(telemetry::Telemetry::new());
        fab.set_telemetry(rec.clone());
        for (pid, d) in devices.iter_mut().enumerate() {
            d.set_telemetry(rec.clone(), pid as u32);
            // The reference arm also queues every burst on its own.
            d.never_extend_groups = reference;
        }
        let mut h = handles(&mut devices);
        let mut copy_ids = Vec::new();
        let mut episode_ends = Vec::new();
        for ops in episodes {
            for (i, &(is_copy, dev, sel, class)) in ops.iter().enumerate() {
                let dev = dev % n;
                if is_copy {
                    let dst = (dev + 1 + sel % (n - 1)) % n;
                    let bytes = [4 * 1024u64, 256 * 1024, 2 * 1024 * 1024][class as usize];
                    let desc = CopyDesc::new(
                        "p2p",
                        (dev, pools[dev][sel % 2], mem("src", bytes)),
                        (dst, pools[dst][(sel / 2) % 2], mem("dst", bytes)),
                    );
                    copy_ids.push(fab.copy_p2p(&mut h, desc).unwrap());
                } else {
                    let flops = [2.0e5, 1.0e6, 8.0e6][class as usize];
                    for d in if mirror { 0..n } else { dev..dev + 1 } {
                        let k = kernel("k", 28, flops).with_tag(i as u64);
                        fab.launch_on(&mut h, d, pools[d][sel % 2], k).unwrap();
                    }
                }
            }
            episode_ends.push(if reference {
                fab.run_reference(&mut h)
            } else {
                fab.run(&mut h)
            });
        }
        let views: Vec<&Device> = devices.iter().collect();
        let rec = rec.lock().expect("no recorder user panicked");
        Observed {
            spans: rec.spans().to_vec(),
            flows: rec.flows().to_vec(),
            timeline: fab.merged_timeline(&views).render_csv(),
            copy_spans: copy_ids.iter().map(|&id| fab.copy_span(id)).collect(),
            events_processed: views.iter().map(|d| d.events_processed()).collect(),
            clocks: views.iter().map(|d| d.now()).collect(),
            episode_ends,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The frontier-cached, run-length-stepping loop over burst groups
        /// is observationally identical to reselecting among all devices
        /// after every event, one burst per event.
        #[test]
        fn run_matches_reference_loop(
            models in proptest::collection::vec(0u8..3, 2..9),
            uniform in proptest::bool::ANY,
            link_sel in 0usize..LINKS.len(),
            seed in proptest::prelude::any::<u64>(),
            mirror in proptest::bool::ANY,
            episodes in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::bool::ANY, 0usize..8, 0usize..28, 0u8..3),
                    0..40,
                ),
                1..4,
            ),
        ) {
            let models = if uniform { vec![models[0]; models.len()] } else { models };
            let episodes: Vec<Vec<Op>> = episodes;
            let got = drive(&models, link_sel, seed, mirror, &episodes, false);
            let want = drive(&models, link_sel, seed, mirror, &episodes, true);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn per_device_run_is_unchanged_without_copies() {
        // Fabric::run over independent devices == Device::run per device.
        let mut a = Device::new(DeviceProps::p100());
        let s = a.create_stream();
        a.launch(s, kernel("k", 16, 2.0e6));
        let solo = a.run();

        let mut devs = two_devices();
        let s0 = devs[0].create_stream();
        devs[0].launch(s0, kernel("k", 16, 2.0e6));
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h = handles(&mut devs);
        let end = fab.run(&mut h);
        assert_eq!(end, solo);
    }
}
