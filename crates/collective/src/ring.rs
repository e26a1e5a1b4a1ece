//! Ring collective schedules over a [`Fabric`].
//!
//! All collectives here are *timing* schedules: they enqueue peer-to-peer
//! copies and local reduction kernels onto per-device communication
//! streams and return; the caller drives them with [`Fabric::run`]
//! (possibly interleaved with compute — overlap is just "enqueue the
//! collective while the compute streams are still busy").
//!
//! The schedules follow the bandwidth-optimal ring algorithm: a bucket of
//! `B` bytes on `R` devices is cut into `R` segments; reduce-scatter runs
//! `R-1` steps in which every device forwards one segment to its ring
//! successor and folds the segment it receives into its local accumulator;
//! all-gather runs `R-1` more steps circulating the finished segments.
//! Every device therefore sends `2B(R-1)/R` bytes — the classic ring
//! bound.
//!
//! Incoming segments land in **per-step staging buffers** (a fresh label
//! per step). Real implementations double-buffer with flags; giving each
//! step its own staging area models the same thing and keeps the schedule
//! free of write-after-read hazards on the staging area, which the
//! stream-schedule sanitizer would otherwise rightly flag.
//!
//! Numerical values never ride these copies (the simulator moves no data);
//! the canonical math is the host-side fixed tree in [`crate::reduce`].
//!
//! The communicator holds no recorder: it counts `collective.*` traffic on
//! the rank-0 device's. Spans stay with the caller ([`CommReport::emit_span`]),
//! as copy timings exist only after `fabric.run`.

use gpu_sim::{
    BufferId, ByteRange, CopyId, Device, Dim3, Fabric, FabricError, KernelCost, KernelDesc,
    LaunchConfig, MemAccess, StreamId,
};

/// One gradient bucket to be reduced: a buffer label (the same label on
/// every device — device address spaces are separate) and its size.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Buffer label, resolved per device via [`BufferId::from_label`].
    pub label: String,
    /// Bucket size in bytes (padded internally to 4-byte alignment).
    pub bytes: u64,
}

impl Bucket {
    /// A bucket named `label` of `bytes` bytes.
    pub fn new(label: impl Into<String>, bytes: u64) -> Self {
        Bucket {
            label: label.into(),
            bytes,
        }
    }
}

/// What a collective enqueued — copy handles for span queries plus the
/// aggregate traffic, for reports and tests.
#[derive(Debug, Clone, Default)]
pub struct CommReport {
    /// Every copy enqueued, in schedule order.
    pub copies: Vec<CopyId>,
    /// Total bytes crossing links.
    pub bytes_on_wire: u64,
    /// Local reduction kernels launched.
    pub reduce_kernels: u64,
}

impl CommReport {
    fn absorb(&mut self, other: CommReport) {
        self.copies.extend(other.copies);
        self.bytes_on_wire += other.bytes_on_wire;
        self.reduce_kernels += other.reduce_kernels;
    }

    /// Wall-clock span of the enqueued copies, if `fabric.run` resolved
    /// them: `(earliest start, latest end)`.
    pub fn span(&self, fabric: &Fabric) -> Option<(u64, u64)> {
        let mut span: Option<(u64, u64)> = None;
        for &c in &self.copies {
            let (s, e) = fabric.copy_span(c)?;
            span = Some(match span {
                None => (s, e),
                Some((s0, e0)) => (s0.min(s), e0.max(e)),
            });
        }
        span
    }

    /// Record this collective as a span on the shared collective track
    /// (pid [`telemetry::COLLECTIVE_PID`], thread `tid`), once `fabric.run`
    /// has resolved its copies. Returns the span recorded, if any.
    pub fn emit_span(
        &self,
        fabric: &Fabric,
        rec: &mut dyn telemetry::Recorder,
        name: &str,
        tid: u64,
    ) -> Option<(u64, u64)> {
        let (s, e) = self.span(fabric)?;
        rec.span(telemetry::COLLECTIVE_PID, tid, name, "collective", s, e);
        Some((s, e))
    }
}

/// Ring communicator: one communication stream per device, plus a
/// sequence counter that keeps staging labels unique across invocations.
#[derive(Debug)]
pub struct RingComm {
    streams: Vec<StreamId>,
    seq: u64,
}

impl RingComm {
    /// Create one communication stream on every device of the ring.
    pub fn new(devs: &mut [&mut Device]) -> Self {
        RingComm {
            streams: devs.iter_mut().map(|d| d.create_stream()).collect(),
            seq: 0,
        }
    }

    /// Run `f` on the rank-0 device's recorder, if one is attached.
    fn record(devs: &[&mut Device], f: impl FnOnce(&mut dyn telemetry::Recorder)) {
        if let Some(d) = devs.first() {
            d.telemetry().with(f);
        }
    }

    fn count(devs: &[&mut Device], op: &'static str, rep: &CommReport) {
        Self::record(devs, |r| {
            r.counter_add(op, 1);
            r.counter_add("collective.bytes_on_wire", rep.bytes_on_wire);
            r.counter_add("collective.copies", rep.copies.len() as u64);
            r.counter_add("collective.reduce_kernels", rep.reduce_kernels);
        });
    }

    /// The communication stream of device `r` (e.g. to make it wait on a
    /// compute event before an overlapped collective).
    pub fn stream(&self, r: usize) -> StreamId {
        self.streams[r]
    }

    /// Number of ring members.
    pub fn size(&self) -> usize {
        self.streams.len()
    }

    /// The segment device `r` owns (holds fully reduced) after the
    /// reduce-scatter half of [`all_reduce`](RingComm::all_reduce).
    pub fn owned_segment(&self, r: usize) -> usize {
        (r + 1) % self.size()
    }

    /// Ring all-reduce of `bucket`: reduce-scatter then all-gather.
    /// `R == 1` is a no-op. Enqueue-only; drive with [`Fabric::run`].
    pub fn all_reduce(
        &mut self,
        fabric: &mut Fabric,
        devs: &mut [&mut Device],
        bucket: &Bucket,
    ) -> Result<CommReport, FabricError> {
        let mut rep = self.reduce_scatter(fabric, devs, bucket)?;
        rep.absorb(self.all_gather(fabric, devs, bucket)?);
        Self::record(devs, |r| r.counter_add("collective.allreduces", 1));
        Ok(rep)
    }

    /// Reduce-scatter: after `R-1` steps device `r` holds the fully
    /// reduced segment [`owned_segment(r)`](RingComm::owned_segment).
    fn reduce_scatter(
        &mut self,
        fabric: &mut Fabric,
        devs: &mut [&mut Device],
        bucket: &Bucket,
    ) -> Result<CommReport, FabricError> {
        let r_count = self.size();
        let mut rep = CommReport::default();
        if r_count < 2 {
            return Ok(rep);
        }
        let segs = segments(bucket.bytes, r_count);
        let buf = BufferId::from_label(&bucket.label);
        let seq = self.next_seq();
        for step in 0..r_count - 1 {
            // Fresh staging label per step (see module docs).
            let stage_label = format!("{}/rs{}.s{}", bucket.label, seq, step);
            let stage = BufferId::from_label(&stage_label);
            for r in 0..r_count {
                let dst = (r + 1) % r_count;
                // Device r forwards segment (r - step) mod R; dst folds it
                // into the same segment of its accumulator.
                let seg = (r + r_count - step) % r_count;
                let range = segs[seg];
                let stage_range = ByteRange::new(0, range.len());
                let copy = fabric.copy_p2p(
                    devs,
                    CopyDesc::new(
                        &format!("p2p:{}->{} {} rs{}", r, dst, bucket.label, step),
                        (r, self.streams[r], MemAccess { buffer: buf, range }),
                        (
                            dst,
                            self.streams[dst],
                            MemAccess {
                                buffer: stage,
                                range: stage_range,
                            },
                        ),
                    ),
                )?;
                rep.copies.push(copy);
                rep.bytes_on_wire += range.len();
                // Fold: accumulator[seg] += staging. FIFO order on the
                // destination communication stream gates it behind the
                // arrival marker.
                devs[dst].launch(
                    self.streams[dst],
                    reduce_kernel(&bucket.label, step, range.len())
                        .reads(stage, stage_range)
                        .reads(buf, range)
                        .writes(buf, range),
                );
                rep.reduce_kernels += 1;
            }
        }
        Self::count(devs, "collective.reduce_scatters", &rep);
        Ok(rep)
    }

    /// All-gather: assumes device `r` holds segment
    /// [`owned_segment(r)`](RingComm::owned_segment) (the reduce-scatter
    /// postcondition) and circulates the segments until every device holds
    /// the whole bucket. Arriving segments are written straight into the
    /// accumulator — no reduction kernels.
    fn all_gather(
        &mut self,
        fabric: &mut Fabric,
        devs: &mut [&mut Device],
        bucket: &Bucket,
    ) -> Result<CommReport, FabricError> {
        let r_count = self.size();
        let mut rep = CommReport::default();
        if r_count < 2 {
            return Ok(rep);
        }
        let segs = segments(bucket.bytes, r_count);
        let buf = BufferId::from_label(&bucket.label);
        for step in 0..r_count - 1 {
            for r in 0..r_count {
                let dst = (r + 1) % r_count;
                // Device r forwards segment (r + 1 - step) mod R: its own
                // finished segment first, then whatever just arrived.
                let seg = (r + 1 + r_count - step) % r_count;
                let range = segs[seg];
                let copy = fabric.copy_p2p(
                    devs,
                    CopyDesc::new(
                        &format!("p2p:{}->{} {} ag{}", r, dst, bucket.label, step),
                        (r, self.streams[r], MemAccess { buffer: buf, range }),
                        (dst, self.streams[dst], MemAccess { buffer: buf, range }),
                    ),
                )?;
                rep.copies.push(copy);
                rep.bytes_on_wire += range.len();
            }
        }
        Self::count(devs, "collective.all_gathers", &rep);
        Ok(rep)
    }

    /// Broadcast `bucket` from `root` around the ring, segment-pipelined:
    /// each segment hops `R-1` times, and successive segments stream
    /// behind one another so the wall time approaches `B/bw` instead of
    /// `(R-1)·B/bw`.
    pub fn broadcast(
        &mut self,
        fabric: &mut Fabric,
        devs: &mut [&mut Device],
        bucket: &Bucket,
        root: usize,
    ) -> Result<CommReport, FabricError> {
        let r_count = self.size();
        let mut rep = CommReport::default();
        if r_count < 2 {
            return Ok(rep);
        }
        if root >= r_count {
            return Err(FabricError::UnknownDevice {
                device: root,
                num_devices: r_count,
            });
        }
        let segs = segments(bucket.bytes, r_count);
        let buf = BufferId::from_label(&bucket.label);
        // Segment-major enqueue order: an intermediate device's stream
        // alternates receive/forward per segment, so it relays segment i
        // while segment i+1 is still in flight — hop-major order would
        // make every device wait for the whole bucket before forwarding.
        for (seg, &range) in segs.iter().enumerate() {
            for hop in 0..r_count - 1 {
                let src = (root + hop) % r_count;
                let dst = (root + hop + 1) % r_count;
                let copy = fabric.copy_p2p(
                    devs,
                    CopyDesc::new(
                        &format!("p2p:{src}->{dst} {} bc{seg}", bucket.label),
                        (src, self.streams[src], MemAccess { buffer: buf, range }),
                        (dst, self.streams[dst], MemAccess { buffer: buf, range }),
                    ),
                )?;
                rep.copies.push(copy);
                rep.bytes_on_wire += range.len();
            }
        }
        Self::count(devs, "collective.broadcasts", &rep);
        Ok(rep)
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

use gpu_sim::CopyDesc;

/// Cut `bytes` into `n` contiguous segments, 4-byte aligned, covering
/// `[0, bytes)`; trailing segments may be shorter (or empty for tiny
/// buckets — those produce zero-byte copies that still cost link latency,
/// like real flag messages).
fn segments(bytes: u64, n: usize) -> Vec<ByteRange> {
    let seg = (bytes.div_ceil(n as u64) + 3) & !3;
    (0..n as u64)
        .map(|i| ByteRange::new((i * seg).min(bytes), ((i + 1) * seg).min(bytes)))
        .collect()
}

/// The per-step segment fold `acc[seg] += staged`: element-wise add,
/// purely bandwidth-bound, sized so a big bucket segment uses a few dozen
/// blocks and a tiny one a single block.
fn reduce_kernel(label: &str, step: usize, seg_bytes: u64) -> KernelDesc {
    let blocks = (seg_bytes / (64 * 1024)).clamp(1, 64) as u32;
    let elems = seg_bytes as f64 / 4.0;
    KernelDesc::new(
        &format!("allreduce/{label}/fold{step}"),
        LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(256), 24, 0),
        KernelCost::new(
            elems / blocks as f64,
            3.0 * seg_bytes as f64 / blocks as f64, // read staged + acc, write acc
        ),
    )
    .with_tag(step as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceProps, LinkProps};
    use sanitizer::{SanitizeMode, Sanitizer};

    fn ring_devs(n: usize) -> Vec<Device> {
        (0..n).map(|_| Device::new(DeviceProps::p100())).collect()
    }

    /// Run one all-reduce on `n` devices over `link`; returns
    /// `(wall_ns, report, fabric, devices)` after sanitizer-checking the
    /// merged trace.
    fn run_all_reduce(
        n: usize,
        link: LinkProps,
        bytes: u64,
    ) -> (u64, CommReport, Fabric, Vec<Device>) {
        let mut devs = ring_devs(n);
        let mut fabric = Fabric::ring(n, link);
        let mut handles: Vec<&mut Device> = devs.iter_mut().collect();
        let mut comm = RingComm::new(&mut handles);
        let rep = comm
            .all_reduce(&mut fabric, &mut handles, &Bucket::new("grad", bytes))
            .unwrap();
        let wall = fabric.run(&mut handles);
        drop(handles);
        let mut san = Sanitizer::new(SanitizeMode::Full);
        let views: Vec<&Device> = devs.iter().collect();
        san.check_fabric(&fabric, &views);
        assert_eq!(san.reports(), &[], "all-reduce schedule must be race-free");
        (wall, rep, fabric, devs)
    }

    #[test]
    fn all_reduce_traffic_matches_ring_bound() {
        for n in [2usize, 4, 8] {
            let bytes = 1 << 20;
            let (_, rep, ..) = run_all_reduce(n, LinkProps::nvlink(), bytes);
            // 2(R-1) steps × R copies per step.
            assert_eq!(rep.copies.len(), 2 * n * (n - 1), "n={n}");
            assert_eq!(rep.reduce_kernels as usize, n * (n - 1), "n={n}");
            // Per-device traffic ≈ 2B(R-1)/R, so total ≈ 2B(R-1).
            let per_dev = rep.bytes_on_wire / n as u64;
            let bound = 2 * bytes * (n as u64 - 1) / n as u64;
            assert!(
                per_dev >= bound && per_dev <= bound + 8 * n as u64,
                "n={n}: {per_dev} vs bound {bound}"
            );
        }
    }

    #[test]
    fn single_device_is_a_noop() {
        let (wall, rep, fabric, _) = run_all_reduce(1, LinkProps::pcie3(), 1 << 20);
        assert_eq!(rep.copies.len(), 0);
        assert_eq!(fabric.num_copies(), 0);
        assert_eq!(wall, 0);
    }

    #[test]
    fn nvlink_beats_pcie() {
        let (pcie, ..) = run_all_reduce(4, LinkProps::pcie3(), 8 << 20);
        let (nv, ..) = run_all_reduce(4, LinkProps::nvlink(), 8 << 20);
        assert!(
            nv * 2 < pcie,
            "NVLink all-reduce should be >2x faster: {nv} vs {pcie}"
        );
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        let n = 4;
        let bytes = 1 << 20;
        let mut devs = ring_devs(n);
        let mut fabric = Fabric::ring(n, LinkProps::nvlink());
        let mut handles: Vec<&mut Device> = devs.iter_mut().collect();
        let mut comm = RingComm::new(&mut handles);
        let bucket = Bucket::new("grad", bytes);
        let rs = comm
            .reduce_scatter(&mut fabric, &mut handles, &bucket)
            .unwrap();
        let ag = comm.all_gather(&mut fabric, &mut handles, &bucket).unwrap();
        fabric.run(&mut handles);
        assert_eq!(rs.copies.len() + ag.copies.len(), 2 * n * (n - 1));
        assert_eq!(ag.reduce_kernels, 0);
        assert_eq!(comm.owned_segment(n - 1), 0);
    }

    #[test]
    fn broadcast_pipelines_segments() {
        let n = 4;
        let bytes: u64 = 4 << 20;
        let mut devs = ring_devs(n);
        let mut fabric = Fabric::ring(n, LinkProps::nvlink());
        let mut handles: Vec<&mut Device> = devs.iter_mut().collect();
        let mut comm = RingComm::new(&mut handles);
        let rep = comm
            .broadcast(&mut fabric, &mut handles, &Bucket::new("weights", bytes), 0)
            .unwrap();
        let wall = fabric.run(&mut handles);
        drop(handles);
        assert_eq!(rep.copies.len(), n * (n - 1));
        let mut san = Sanitizer::new(SanitizeMode::Full);
        let views: Vec<&Device> = devs.iter().collect();
        san.check_fabric(&fabric, &views);
        assert_eq!(san.reports(), &[]);
        // Pipelining: wall must be well below (R-1) sequential full-bucket
        // transfers.
        let sequential = (n as u64 - 1) * LinkProps::nvlink().transfer_ns(bytes);
        assert!(
            wall < sequential * 3 / 4,
            "pipelined broadcast {wall} vs sequential bound {sequential}"
        );
        let mut nonroot = Sanitizer::new(SanitizeMode::Full);
        let _ = &mut nonroot;
        let err = comm
            .broadcast(
                &mut fabric,
                &mut devs.iter_mut().collect::<Vec<_>>(),
                &Bucket::new("weights", bytes),
                9,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::UnknownDevice { device: 9, .. }));
    }

    #[test]
    fn racy_copy_before_reduce_is_caught() {
        // Fault injection (the satellite test): emulate a buggy schedule
        // where the fold kernel runs on a stream that does NOT wait for
        // the staged segment to arrive — the race the per-step FIFO
        // gating exists to prevent.
        let n = 2;
        let mut devs = ring_devs(n);
        let mut fabric = Fabric::ring(n, LinkProps::nvlink());
        let rogue = devs[1].create_stream();
        let mut handles: Vec<&mut Device> = devs.iter_mut().collect();
        let comm = RingComm::new(&mut handles);
        let bucket = Bucket::new("grad", 1 << 16);
        let segs = segments(bucket.bytes, n);
        let buf = BufferId::from_label(&bucket.label);
        let stage = BufferId::from_label("grad/rs0.s0");
        let stage_range = ByteRange::new(0, segs[0].len());
        fabric
            .copy_p2p(
                &mut handles,
                CopyDesc::new(
                    "p2p:0->1 grad rs0",
                    (
                        0,
                        comm.stream(0),
                        MemAccess {
                            buffer: buf,
                            range: segs[0],
                        },
                    ),
                    (
                        1,
                        comm.stream(1),
                        MemAccess {
                            buffer: stage,
                            range: stage_range,
                        },
                    ),
                ),
            )
            .unwrap();
        // BUG: fold launched on `rogue`, unordered with the arrival.
        handles[1].launch(
            rogue,
            reduce_kernel("grad", 0, segs[0].len())
                .reads(stage, stage_range)
                .reads(buf, segs[0])
                .writes(buf, segs[0]),
        );
        fabric.run(&mut handles);
        drop(handles);
        let mut san = Sanitizer::new(SanitizeMode::Full);
        let views: Vec<&Device> = devs.iter().collect();
        san.check_fabric(&fabric, &views);
        assert_eq!(san.reports().len(), 1, "{:?}", san.reports());
        assert_eq!(san.reports()[0].kind, sanitizer::DiagnosticKind::DataRace);
    }
}
