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
//!   device, appear in its command log
//!   ([`CmdRecord::CopySrc`](crate::CmdRecord::CopySrc) /
//!   [`CmdRecord::CopyDst`](crate::CmdRecord::CopyDst)) and in its timeline like kernels do.
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
use crate::engine::memo::{Outcome, Segment};
use crate::engine::Device;
use crate::kernel::{KernelDesc, KernelId, KernelName, LaunchConfig, MemAccess};
use crate::stats::DeviceStats;
use crate::stream::{CopyId, StreamId};
use crate::timeline::{KernelTrace, Timeline};
use crate::SimTime;
use std::collections::HashMap;

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
/// `SolveError` elsewhere in the workspace: misconfigured topologies are
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

/// A declarative placement plan for a fabric: which device model occupies
/// each slot and how the slots are linked.
///
/// The [`Fabric`] itself deliberately does not own devices, so anything
/// that wants to *stand up* a multi-device deployment (the serving fleet,
/// the data-parallel trainer, a benchmark sweep) needs a description it
/// can instantiate devices and fabric from together, keeping slot indices
/// consistent between the two. That is this type: a named, possibly
/// heterogeneous list of [`DeviceProps`] plus the link model that fully
/// connects them.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// Name shown in reports (e.g. `uniform8-nvlink`).
    pub name: String,
    /// Device model per fabric slot, in slot order.
    pub slots: Vec<DeviceProps>,
    /// Link model joining every ordered pair of slots.
    pub link: LinkProps,
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
        }
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
    /// Copies before this index were resolved by an earlier `run`.
    settled: usize,
    memo: Memo,
}

/// The quiescent fabric-run memo (DESIGN.md, "Quiescent fabric-run memo"):
/// episodes by the hash of their key words, seen once (`None`) or recorded.
#[derive(Debug, Default)]
struct Memo {
    runs: HashMap<u64, (Vec<u64>, Option<Box<Recording>>)>,
    /// Reusable buffers: the pending episode's key and segments.
    key: Vec<u64>,
    segments: Vec<Segment>,
    stats: (u64, u64),
}

/// One recorded episode, relative to the earliest device clock: each
/// device's outcome and model, and each copy's `(start, end)` in id order.
#[derive(Debug)]
struct Recording(Vec<Outcome>, Vec<DeviceProps>, Vec<(SimTime, SimTime)>);

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
            settled: 0,
            memo: Memo::default(),
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
    /// count yields byte-identical results — see [`run`](Fabric::run).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The smallest latency of any configured link — the conservative
    /// lookahead bound: every cross-device effect discovered at or after
    /// global time `T` lands strictly after `T + min_link_latency`, so
    /// devices may safely advance that far ahead of their peers.
    /// `None` when no links exist (devices are then fully independent).
    fn min_link_latency(&self) -> Option<SimTime> {
        self.links
            .iter()
            .flatten()
            .flatten()
            .map(|l| l.latency_ns)
            .min()
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

    /// Resolved `(start, end)` of a copy's transfer, after [`run`] (`None`
    /// for an id this fabric never enqueued).
    ///
    /// [`run`]: Fabric::run
    pub fn copy_span(&self, id: CopyId) -> Option<(SimTime, SimTime)> {
        let rec = self.copies.get(id.raw() as usize)?;
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
        // (tagged with its fabric-wide copy id). The source device's
        // recorder takes the span, the flow arrow to the destination stream
        // and the link-byte counters; observation-only.
        let (src_pid, dst_pid) = (devs[src].telemetry_pid(), devs[dst].telemetry_pid());
        devs[src].telemetry().with(|r| {
            r.span(src_pid, stream.raw() as u64, &name, "p2p", start, end);
            r.flow(
                &name,
                "p2p",
                (src_pid, stream.raw() as u64, end),
                (dst_pid, dst_stream.raw() as u64, end),
            );
            r.counter_add("fabric.p2p_copies", 1);
            r.counter_add("fabric.link_bytes", bytes);
            r.counter_add(&format!("fabric.link_bytes.{src}->{dst}"), bytes);
        });
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
    /// Uses up to the worker count configured by
    /// [`set_workers`](Fabric::set_workers); results are byte-identical
    /// for every worker count (see `run_with_workers`).
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
    /// A recorder on any device keeps a run on the one-worker loop — the
    /// default, and the fast path: recorder entries are pushed in stepping
    /// order, and concurrent stepping would interleave them
    /// nondeterministically. Copies record on their source device's
    /// recorder.
    ///
    /// At one worker, an episode is keyed by its pending program (DESIGN.md,
    /// "Quiescent fabric-run memo"): its second sighting records, later ones
    /// apply the recording where every device's residue program is proven to
    /// repeat.
    fn run_with_workers(&mut self, devs: &mut [&mut Device], workers: usize) -> SimTime {
        assert_eq!(
            devs.len(),
            self.num_devices,
            "fabric of {} devices got {} device handles",
            self.num_devices,
            devs.len()
        );
        let telemetry_on = devs.iter().any(|d| d.telemetry().is_attached());
        let key = (workers <= 1 && !telemetry_on)
            .then(|| self.episode_key(devs))
            .flatten();
        let mut runs = std::mem::take(&mut self.memo.runs);
        let entry = key.and_then(|(hash, _)| runs.get(&hash));
        let entry = entry.filter(|(k, _)| *k == self.memo.key);
        let mut starts = None;
        match (key, entry) {
            (Some((_, base)), Some((_, Some(rec)))) if self.apply(devs, rec, base) => {
                self.memo.stats.0 += 1;
            }
            (_, seen) => {
                self.memo.stats.1 += 1;
                match (key, seen) {
                    (Some((_, base)), Some(_)) => {
                        let segs = devs.iter_mut().zip(&self.memo.segments);
                        starts = Some(Vec::from_iter(
                            segs.map(|(d, s)| d.record_start(base, s.kernels, s.events)),
                        ));
                    }
                    (Some((hash, _)), None) => {
                        runs.insert(hash, (self.memo.key.clone(), None));
                    }
                    _ => {}
                }
                for d in devs.iter_mut() {
                    d.kick();
                }
                if workers <= 1 || devs.len() <= 1 || telemetry_on {
                    self.run_sequential(devs);
                } else {
                    self.run_lookahead(devs, workers.min(devs.len()));
                }
            }
        }
        for d in devs.iter_mut() {
            debug_assert!(
                d.fully_idle(),
                "fabric drained with a non-idle device (missing copy half or \
                 unsatisfiable wait?)"
            );
            d.push_sync_marker();
        }
        if let (Some(starts), Some((hash, base))) = (starts, key) {
            // Every device stops recording, whichever fails.
            let outcomes = Vec::from_iter(
                (devs.iter_mut().zip(starts)).map(|(d, s)| d.record_finish(s, self.settled as u64)),
            );
            let copies = (self.copies[self.settled..].iter())
                .map(|c| Some((c.start? - base, c.end? - base)))
                .collect();
            let props = devs.iter().map(|d| d.props().clone()).collect();
            let recording = (outcomes.into_iter().collect::<Option<_>>())
                .zip(copies)
                .map(|(outcomes, copies)| Box::new(Recording(outcomes, props, copies)));
            runs.insert(hash, (self.memo.key.clone(), recording));
        }
        self.memo.runs = runs;
        self.settled = self.copies.len();
        devs.iter().map(|d| d.now()).max().unwrap_or(0)
    }

    /// `(hits, misses)` of the episode memo: [`run`](Fabric::run) calls
    /// that applied a recorded episode, and calls that simulated.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.stats
    }

    /// The pending episode's key words and segments into the memo's buffers:
    /// `(hash, earliest device clock)`, or `None` if a link jitters (it
    /// hashes copy ids) or a device did not enter the episode quiescent.
    /// `link_busy` is at most every future ready time then, so no input.
    fn episode_key(&mut self, devs: &[&mut Device]) -> Option<(u64, SimTime)> {
        let base = devs.iter().map(|d| d.now()).min()?;
        let (copy0, copies, links) = (self.settled as u64, &self.copies, &self.links);
        if links.iter().flatten().flatten().any(|l| l.jitter_ns > 0) {
            return None;
        }
        let Memo { key, segments, .. } = &mut self.memo;
        key.clear();
        segments.clear();
        for d in devs {
            segments.push(d.segment_key(base, copy0, key, |id, key| {
                let CopyRecord {
                    desc: d, launch_ns, ..
                } = copies.get(id.raw() as usize)?;
                let link = links[d.src][d.dst]
                    .map_or([0; 2], |l| [l.bandwidth_gbps.to_bits(), l.latency_ns]);
                let dst = d.dst as u64 | u64::from(d.dst_stream.raw()) << 32;
                key.extend([launch_ns.wrapping_sub(base), dst, d.bytes, link[0], link[1]]);
                Some(())
            })?);
        }
        let hash = (key.iter()).fold(0, |h: u64, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        Some((hash, base))
    }

    /// Apply `rec` at `base` if every device has the recorded model and its
    /// residue program is proven to repeat from its current demand
    /// ([`crate::contention`]); otherwise change nothing observable. Every
    /// device is checked before any is written.
    fn apply(&mut self, devs: &mut [&mut Device], rec: &Recording, base: SimTime) -> bool {
        let Recording(outcomes, props, copies) = rec;
        if !props.iter().eq(devs.iter().map(|d| d.props())) {
            return false;
        }
        if !(devs.iter_mut().zip(outcomes)).all(|(d, o)| d.bw.check(&o.residue)) {
            return false;
        }
        for (c, &(s, e)) in self.copies[self.settled..].iter_mut().zip(copies) {
            (c.start, c.end) = (Some(base + s), Some(base + e));
            let busy = &mut self.link_busy[c.desc.src][c.desc.dst];
            *busy = (*busy).max(base + e);
        }
        let (copies, at) = (&self.copies, (base, self.settled as u64));
        for ((d, o), seg) in devs.iter_mut().zip(outcomes).zip(&self.memo.segments) {
            d.bw.commit(&o.residue);
            d.apply_episode(o, seg, at, |c| copies[c as usize].desc.name.clone());
        }
        true
    }

    /// The one-worker loop: resolve ready copies, then run-length step the
    /// device with the earliest `(time, device index)` key, repeat. See
    /// the module docs ("The frontier invariant") for why re-peeking only
    /// the devices whose queues changed reproduces the loop that reselects
    /// after every event.
    fn run_sequential(&mut self, devs: &mut [&mut Device]) {
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        frontier.extend(devs.iter().map(|d| d.next_event_time()));
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
    /// `run_with_workers` for the horizon argument.
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
            let Some(t_min) = devs.iter().filter_map(|d| d.next_event_time()).min() else {
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
    use crate::stream::CmdRecord;

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
    fn fabric_spec_reports_slots_and_peak_flops() {
        let spec = FabricSpec::uniform("u4", 4, DeviceProps::p100(), LinkProps::nvlink());
        assert_eq!(spec.num_slots(), 4);

        let hetero = FabricSpec::heterogeneous(
            "h3",
            vec![
                DeviceProps::k40c(),
                DeviceProps::p100(),
                DeviceProps::titan_xp(),
            ],
            LinkProps::pcie3(),
        );
        assert_eq!(hetero.slot(0).name, DeviceProps::k40c().name);
        assert!(hetero.slot_peak_flops(1) > hetero.slot_peak_flops(0));
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
                    .iter()
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

    /// One enqueue: `(kind, device, selector, class)` — kind 0 a kernel
    /// launch on `device`'s stream `selector % 2` with cost class `class`,
    /// kind 1 a copy from `device` to the peer picked by `selector`, size
    /// class `class`, kind 2 an event recorded on one of `device`'s streams
    /// and waited on by the other. Interleaved, so kernels queue behind
    /// arrival markers and every arrival time shows in the timeline.
    type Op = (u8, usize, usize, u8);

    /// Runs of one recipe episode: `(episode, repeats, stray, wait)` runs
    /// episode `episode` `repeats` times; before repeat `run`, `stray =
    /// (device, amount, run, gap)` places `amount` bytes/s of DRAM demand
    /// nothing retires on that device or, with `gap`, moves its idle clock
    /// `amount / 1e6` ns ahead; with `wait`, each repeat first waits on the
    /// events the run before it recorded last on every device.
    type Runs = (usize, usize, Option<(usize, f64, usize, bool)>, bool);

    #[derive(Debug, PartialEq)]
    struct Observed {
        timeline: String,
        copy_spans: Vec<Option<(SimTime, SimTime)>>,
        events_processed: Vec<u64>,
        clocks: Vec<SimTime>,
        episode_ends: Vec<SimTime>,
        logs: Vec<Vec<CmdRecord>>,
        stats: Vec<DeviceStats>,
        demand_bits: Vec<u64>,
        /// Telemetry records carry their global recording order (`seq`),
        /// so these pin the cross-device order of tied timestamps, which
        /// no per-device output shows.
        spans: Vec<telemetry::SpanEvent>,
        flows: Vec<telemetry::FlowEvent>,
    }

    /// Build the workload from the recipe and drive every run, then `tail`,
    /// with [`Fabric::run`] or the reference loop (which never reaches the
    /// memo). `mirror` repeats each launch on every device, so devices of
    /// one model fire events at identical timestamps and selection is
    /// decided by the device-index tie-break. Runs end with unequal device
    /// clocks, so a later copy from a lagging device to a leading one has
    /// an `end` before the destination's clock. `telemetry` attaches one
    /// recorder to every device (pid = index), which also bypasses the memo.
    fn drive(
        (models, link_sel, seed, mirror, telemetry): (&[u8], usize, u64, bool, bool),
        episodes: &[Vec<Op>],
        runs: &[Runs],
        tail: &[Op],
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
        for (pid, d) in devices.iter_mut().enumerate() {
            if telemetry {
                d.set_telemetry(rec.clone(), pid as u32);
            }
            // The reference arm also queues every burst on its own.
            d.never_extend_groups = reference;
        }
        let mut h = handles(&mut devices);
        let mut copy_ids = Vec::new();
        let mut episode_ends = Vec::new();
        let mut last_events = Vec::new();
        let schedule = runs.iter().flat_map(|&(e, repeats, stray, wait)| {
            (0..repeats).map(move |r| {
                let stray = stray.filter(|s| s.2 % repeats == r);
                (&episodes[e % episodes.len()][..], stray, wait)
            })
        });
        for (ops, stray, wait) in schedule.chain([(tail, None, false)]) {
            if let Some((d, amount, _, gap)) = stray {
                let d = &mut h[d % n];
                if gap {
                    d.advance_to(d.now() + amount as SimTime / 1_000_000);
                } else {
                    d.add_stray_demand(amount);
                }
            }
            if wait {
                for (d, &ev) in last_events.iter().enumerate() {
                    h[d].wait_event(pools[d][1], ev);
                }
            }
            for (i, &(kind, dev, sel, class)) in ops.iter().enumerate() {
                let dev = dev % n;
                match kind {
                    0 => {
                        let flops = [2.0e5, 1.0e6, 8.0e6][class as usize];
                        for d in if mirror { 0..n } else { dev..dev + 1 } {
                            let k = kernel("k", 28, flops).with_tag(i as u64);
                            fab.launch_on(&mut h, d, pools[d][sel % 2], k).unwrap();
                        }
                    }
                    1 => {
                        let dst = (dev + 1 + sel % (n - 1)) % n;
                        let bytes = [4 * 1024u64, 256 * 1024, 2 * 1024 * 1024][class as usize];
                        let desc = CopyDesc::new(
                            "p2p",
                            (dev, pools[dev][sel % 2], mem("src", bytes)),
                            (dst, pools[dst][(sel / 2) % 2], mem("dst", bytes)),
                        );
                        copy_ids.push(fab.copy_p2p(&mut h, desc).unwrap());
                    }
                    _ => {
                        let ev = h[dev].create_event();
                        h[dev].record_event(pools[dev][sel % 2], ev);
                        h[dev].wait_event(pools[dev][(sel + 1) % 2], ev);
                    }
                }
            }
            last_events.clear();
            for (d, pool) in h.iter_mut().zip(&pools) {
                let ev = d.create_event();
                d.record_event(pool[0], ev);
                last_events.push(ev);
            }
            episode_ends.push(if reference {
                fab.run_reference(&mut h)
            } else {
                fab.run(&mut h)
            });
        }
        let (hits, misses) = fab.memo_stats();
        assert_eq!(
            hits + misses,
            episode_ends.len() as u64 * u64::from(!reference)
        );
        let demand_bits = devices.iter_mut().map(|d| d.demand_bits()).collect();
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
            logs: views.iter().map(|d| d.command_log().to_vec()).collect(),
            stats: fab.stats(&views),
            demand_bits,
        }
    }

    fn arb_ops(len: usize) -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..3, 0usize..8, 0usize..28, 0u8..3), 0..len)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The frontier-cached, run-length-stepping loop over burst groups,
        /// and the episode memo in front of it, are observationally
        /// identical to reselecting among all devices after every event,
        /// one burst per event. Episodes repeat 1–6 times from idle — from
        /// the second repeat on the memo records, then applies — some
        /// repeats after stray DRAM demand that moves a recorded duration or
        /// an idle gap that moves one device's start offset, some waiting on
        /// the previous run's events; a different episode follows.
        #[test]
        fn run_matches_reference_loop(
            models in proptest::collection::vec(0u8..3, 2..9),
            uniform in proptest::bool::ANY,
            link_sel in 0usize..LINKS.len(),
            seed in proptest::prelude::any::<u64>(),
            flags in (proptest::bool::ANY, proptest::bool::ANY),
            episodes in proptest::collection::vec(arb_ops(30), 1..4),
            recipe in (
                proptest::collection::vec(
                    (
                        0usize..4,
                        1usize..=6,
                        (0u8..3, 0usize..8, 0.0f64..6.0e11, 0usize..6),
                        proptest::bool::ANY,
                    ),
                    1..4,
                ),
                arb_ops(12),
            ),
        ) {
            let models = if uniform { vec![models[0]; models.len()] } else { models };
            let ((mirror, telemetry), (runs, tail)) = (flags, recipe);
            let runs: Vec<Runs> = (runs.into_iter())
                .map(|(e, repeats, (stray, d, amount, at), wait)| {
                    (e, repeats, (stray > 0).then_some((d, amount, at, stray == 2)), wait)
                })
                .collect();
            let episodes: Vec<Vec<Op>> = episodes;
            let tail: Vec<Op> = tail;
            let setup = (&models[..], link_sel, seed, mirror, telemetry);
            let got = drive(setup, &episodes, &runs, &tail, false);
            let want = drive(setup, &episodes, &runs, &tail, true);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_repeated_episode_records_on_its_second_run_and_applies_after() {
        let mut devices = two_devices();
        let (s0, s1) = (devices[0].create_stream(), devices[1].create_stream());
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h = handles(&mut devices);
        let episode = |fab: &mut Fabric, h: &mut [&mut Device], workers: usize| {
            h[0].launch(s0, kernel("k", 28, 1.0e6));
            let desc = CopyDesc::new(
                "p2p",
                (0, s0, mem("a", 1 << 16)),
                (1, s1, mem("b", 1 << 16)),
            );
            fab.copy_p2p(h, desc).unwrap();
            fab.set_workers(workers);
            fab.run(h);
            fab.memo_stats()
        };
        let stats: Vec<_> = (0..4).map(|_| episode(&mut fab, &mut h, 1)).collect();
        assert_eq!(
            stats,
            [(0, 1), (0, 2), (1, 2), (2, 2)],
            "noted, recorded, applied"
        );
        h[1].set_telemetry(telemetry::shared(telemetry::Telemetry::new()), 1);
        assert_eq!(
            episode(&mut fab, &mut h, 1),
            (2, 3),
            "a device's recorder sees every kernel"
        );
        h[1].clear_telemetry();
        let rec = telemetry::shared(telemetry::Telemetry::new());
        h[0].set_telemetry(rec.clone(), 0);
        assert_eq!(
            episode(&mut fab, &mut h, 1),
            (2, 4),
            "the source device's recorder sees every copy"
        );
        h[0].clear_telemetry();
        let seen = {
            let rec = rec.lock().unwrap();
            let p2p = rec.spans().iter().filter(|s| s.cat == "p2p").count();
            (p2p, rec.flows().len())
        };
        assert_eq!(seen, (1, 1), "one span and one flow arrow for the copy");
        assert_eq!(
            episode(&mut fab, &mut h, 2),
            (2, 5),
            "lookahead workers simulate"
        );
        h[0].launch(s0, kernel("in-flight", 8, 1.0e5));
        h[0].kick(); // queues its host-ready event
        assert_eq!(
            episode(&mut fab, &mut h, 1),
            (2, 6),
            "a device was not quiescent"
        );
        assert_eq!(episode(&mut fab, &mut h, 1), (3, 6));
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink().with_jitter(1));
        for _ in 0..4 {
            episode(&mut fab, &mut h, 1);
        }
        assert_eq!(fab.memo_stats(), (0, 4), "jitter hashes copy ids");
    }

    #[test]
    fn device_memo_hits_and_fabric_hits_interleave_on_the_never_memo_bits() {
        let arm = |never_memo: bool| {
            let mut devices = two_devices();
            let s: Vec<_> = (devices.iter_mut())
                .map(|d| {
                    d.never_memo = never_memo;
                    [d.create_stream(), d.create_stream()]
                })
                .collect();
            let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
            let mut pending = 0;
            for _ in 0..6 {
                // A device-memo replay on each device, then a fabric episode.
                for (d, s) in devices.iter_mut().zip(&s) {
                    d.replay_memo(7, |d| {
                        d.launch(s[0], kernel("solo", 112, 4.0e6));
                        d.launch(s[1], kernel("solo", 112, 8.0e6));
                    });
                }
                let mut h = handles(&mut devices);
                h[0].launch(s[0][0], kernel("k", 56, 2.0e6));
                let (src, dst) = (
                    (0, s[0][0], mem("a", 1 << 20)),
                    (1, s[1][1], mem("b", 1 << 20)),
                );
                fab.copy_p2p(&mut h, CopyDesc::new("p2p", src, dst))
                    .unwrap();
                h[1].launch(s[1][1], kernel("consume", 56, 2.0e6));
                fab.run(&mut h);
                pending = pending.max(devices.iter().map(|d| d.bw.pending()).sum());
            }
            let stats = (
                devices.iter().map(|d| d.memo_stats()).collect::<Vec<_>>(),
                fab.memo_stats(),
            );
            let demand: Vec<_> = devices.iter_mut().map(|d| d.demand_bits()).collect();
            let views: Vec<&Device> = devices.iter().collect();
            let clocks: Vec<_> = views.iter().map(|d| d.now()).collect();
            (
                fab.merged_timeline(&views).render_csv(),
                clocks,
                demand,
                stats,
                pending,
            )
        };
        let (got, want) = (arm(false), arm(true));
        assert_eq!((&got.0, &got.1, &got.2), (&want.0, &want.1, &want.2));
        let (devices, (fabric_hits, _)) = got.3;
        assert_eq!(devices, [(4, 2); 2], "noted, recorded, applied");
        assert!(fabric_hits >= 3, "{fabric_hits} episodes applied");
        assert!(got.4 > 2, "hits of both memos left their programs pending");
    }

    #[test]
    fn foreign_ids_are_none_not_a_panic() {
        let mut devices = two_devices();
        let s0 = devices[0].create_stream();
        let k = devices[0].launch(s0, kernel("k", 8, 1.0e5));
        let ev = devices[0].create_event();
        devices[0].record_event(s0, ev);
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h = handles(&mut devices);
        let id = (fab.copy_p2p(
            &mut h,
            CopyDesc::new("p2p", (0, s0, mem("a", 64)), (1, StreamId(0), mem("b", 64))),
        ))
        .unwrap();
        fab.run(&mut h);
        assert!(fab.copy_span(id).is_some());
        assert_eq!(Fabric::new(2).copy_span(id), None);
        assert!(h[0].kernel_span(k).is_some() && h[0].event_time(ev).is_some());
        assert_eq!(h[1].kernel_span(k), None);
        assert_eq!(h[1].event_time(ev), None);
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
