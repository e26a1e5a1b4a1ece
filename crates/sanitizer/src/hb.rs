//! Dynamic happens-before race detection over the device command log.
//!
//! The engine records every host-issued stream command ([`CmdRecord`]); the
//! checker replays that trace with one vector clock per stream, CUDA
//! semantics:
//!
//! - a stream executes its commands in FIFO order;
//! - `record(e)` snapshots the recording stream's clock into `e`;
//! - `wait(e)` joins `e`'s snapshot into the waiting stream's clock — and
//!   can only fire after the record has (the engine blocks a wait enqueued
//!   before its record until the event completes);
//! - a [`CmdRecord::Sync`] marker (a completed [`run`](gpu_sim::Device::run)
//!   episode) orders everything before it against everything after, so each
//!   sync-delimited segment is checked independently.
//!
//! Two launches with overlapping declared accesses (at least one write)
//! whose clocks are incomparable are a data race. A segment whose replay
//! stalls (a wait whose event is never recorded, or waits forming a cycle)
//! is a deadlock.

use crate::report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
use crate::sweep::{conflict_candidates, pairs_covered};
use gpu_sim::{CmdRecord, Device, EventId, StreamId};
use std::collections::{HashMap, VecDeque};

/// A launched kernel's happens-before summary within one segment.
struct LaunchRecord {
    /// Which stream launched it.
    stream: StreamId,
    /// The launching stream's scalar clock at launch (after increment).
    epoch: u64,
    /// Snapshot of the launching stream's vector clock at launch.
    clock: HashMap<StreamId, u64>,
    /// Index into the device kernel table.
    kernel: gpu_sim::KernelId,
    /// Position in the command log (for diagnostics).
    log_index: usize,
}

impl LaunchRecord {
    /// `self` happens before `other` iff `other`'s snapshot has seen
    /// `self`'s epoch on `self`'s stream.
    fn happens_before(&self, other: &LaunchRecord) -> bool {
        other.clock.get(&self.stream).copied().unwrap_or(0) >= self.epoch
    }
}

/// Replay `log` (one sync-delimited segment at a time) against the kernel
/// descriptors of `dev`, appending diagnostics to `out` under `context`.
/// Returns `(kernels_checked, pairs_covered)`.
pub(crate) fn check_log(
    dev: &Device,
    log: &[CmdRecord],
    context: &str,
    out: &mut Vec<Diagnostic>,
) -> (u64, u64) {
    let mut kernels = 0u64;
    let mut pairs = 0u64;
    for segment in log.split(|c| *c == CmdRecord::Sync) {
        let (k, p) = check_segment(dev, segment, context, out);
        kernels += k;
        pairs += p;
    }
    (kernels, pairs)
}

fn check_segment(
    dev: &Device,
    segment: &[CmdRecord],
    context: &str,
    out: &mut Vec<Diagnostic>,
) -> (u64, u64) {
    if segment.is_empty() {
        return (0, 0);
    }

    // Partition the segment into per-stream FIFOs, remembering log order.
    let mut fifos: HashMap<StreamId, VecDeque<(usize, CmdRecord)>> = HashMap::new();
    let mut stream_order: Vec<StreamId> = Vec::new();
    for (i, c) in segment.iter().enumerate() {
        let sid = match c {
            CmdRecord::Launch { stream, .. }
            | CmdRecord::RecordEvent { stream, .. }
            | CmdRecord::WaitEvent { stream, .. } => *stream,
            // Peer-to-peer copy halves carry no *intra*-device ordering
            // beyond stream FIFO order (their edges cross devices, and the
            // merged fabric replay checks those); skip them here so a
            // single-device replay neither stalls at a `CopyDst` nor
            // misreads a copy as a launch.
            CmdRecord::CopySrc { .. } | CmdRecord::CopyDst { .. } => continue,
            CmdRecord::Sync => continue,
        };
        if !fifos.contains_key(&sid) {
            stream_order.push(sid);
        }
        fifos.entry(sid).or_default().push_back((i, *c));
    }

    let mut clocks: HashMap<StreamId, HashMap<StreamId, u64>> = HashMap::new();
    let mut event_clock: HashMap<EventId, HashMap<StreamId, u64>> = HashMap::new();
    let mut launches: Vec<LaunchRecord> = Vec::new();

    // Worklist replay: drain any stream whose head command can fire. A
    // wait enqueued before its record is legal (the engine blocks on it),
    // so issue order alone cannot drive the replay.
    loop {
        let mut progressed = false;
        for &sid in &stream_order {
            let Some(fifo) = fifos.get_mut(&sid) else {
                continue;
            };
            while let Some(&(log_index, cmd)) = fifo.front() {
                match cmd {
                    CmdRecord::Launch { kernel, .. } => {
                        let clock = clocks.entry(sid).or_default();
                        let epoch = clock.entry(sid).or_insert(0);
                        *epoch += 1;
                        let epoch = *epoch;
                        launches.push(LaunchRecord {
                            stream: sid,
                            epoch,
                            clock: clock.clone(),
                            kernel,
                            log_index,
                        });
                    }
                    CmdRecord::RecordEvent { event, .. } => {
                        let clock = clocks.entry(sid).or_default().clone();
                        event_clock.insert(event, clock);
                    }
                    CmdRecord::WaitEvent { event, .. } => {
                        let Some(ev) = event_clock.get(&event) else {
                            break; // blocked: record not yet replayed
                        };
                        let clock = clocks.entry(sid).or_default();
                        for (s, t) in ev {
                            let e = clock.entry(*s).or_insert(0);
                            *e = (*e).max(*t);
                        }
                    }
                    // Filtered out at partition time.
                    CmdRecord::CopySrc { .. } | CmdRecord::CopyDst { .. } | CmdRecord::Sync => {}
                }
                fifo.pop_front();
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // A stalled replay is a deadlock: some wait's event is never recorded,
    // or the waits form a cross-stream cycle.
    let stuck: Vec<(StreamId, usize, EventId)> = stream_order
        .iter()
        .filter_map(|sid| {
            fifos.get(sid).and_then(|f| {
                f.front().map(|&(i, c)| match c {
                    CmdRecord::WaitEvent { event, .. } => (*sid, i, event),
                    _ => unreachable!("only waits can block a stream"),
                })
            })
        })
        .collect();
    if !stuck.is_empty() {
        let named: Vec<String> = stuck
            .iter()
            .map(|(sid, i, ev)| {
                format!(
                    "stream {} blocked at log[{i}] waiting on event {}",
                    sid.raw(),
                    ev.raw()
                )
            })
            .collect();
        out.push(Diagnostic {
            kind: DiagnosticKind::EventWaitCycle,
            context: context.to_string(),
            first: None,
            second: None,
            site: None,
            detail: format!(
                "trace replay deadlocks: {} (event never recorded, or waits form a cycle)",
                named.join("; ")
            ),
        });
    }

    // Race detection among the launches with declared accesses: the sweep
    // names the pairs whose regions conflict, the vector clocks decide
    // which of those are unordered.
    let descs: Vec<_> = launches.iter().map(|l| dev.kernel_desc(l.kernel)).collect();
    let sets: Vec<_> = descs.iter().map(|d| &d.accesses).collect();
    let pairs = pairs_covered(&sets);
    for (i, j) in conflict_candidates(&sets) {
        let (i, j) = (i as usize, j as usize);
        let (a, b) = (&launches[i], &launches[j]);
        if a.happens_before(b) || b.happens_before(a) {
            continue;
        }
        if let Some(c) = sets[i].conflict_with(sets[j]) {
            let kernel_ref = |l: &LaunchRecord, d: &gpu_sim::KernelDesc| KernelRef {
                name: d.name.to_string(),
                tag: d.tag,
                stream: Some(l.stream.raw()),
                index: l.log_index,
            };
            out.push(Diagnostic {
                kind: DiagnosticKind::DataRace,
                context: context.to_string(),
                first: Some(kernel_ref(a, descs[i])),
                second: Some(kernel_ref(b, descs[j])),
                site: Some(ConflictSite {
                    buffer: c.buffer,
                    overlap: c.overlap,
                    hazard: c.hazard(),
                }),
                detail: "no event or stream order makes these two launches \
                         happens-before ordered"
                    .to_string(),
            });
        }
    }
    (launches.len() as u64, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BufferId, ByteRange, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    fn check(dev: &Device) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_log(dev, dev.command_log(), "test", &mut out);
        out
    }

    #[test]
    fn same_stream_conflicts_are_ordered() {
        let buf = BufferId::from_label("hb/a");
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.launch(s, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn cross_stream_unordered_write_is_a_race() {
        let buf = BufferId::from_label("hb/b");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(32, 96)));
        dev.run();
        let out = check(&dev);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::DataRace);
        let s = out[0].to_string();
        assert!(s.contains("`w0`") && s.contains("`w1`"), "{s}");
        assert!(s.contains("[32, 64)"), "{s}");
    }

    #[test]
    fn event_order_suppresses_the_race() {
        let buf = BufferId::from_label("hb/c");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        let ev = dev.create_event();
        dev.record_event(s0, ev);
        dev.wait_event(s1, ev);
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn wait_enqueued_before_record_still_orders() {
        // Host issues s1's wait before s0's record — legal, the engine
        // blocks s1. The worklist replay must handle it.
        let buf = BufferId::from_label("hb/d");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        let ev = dev.create_event();
        dev.wait_event(s1, ev);
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.record_event(s0, ev);
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn sync_orders_across_run_episodes() {
        let buf = BufferId::from_label("hb/e");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![], "run() is a device-wide barrier");
    }

    #[test]
    fn undeclared_kernels_are_skipped() {
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("k0"));
        dev.launch(s1, kernel("k1"));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }

    #[test]
    fn read_read_overlap_is_not_a_race() {
        let buf = BufferId::from_label("hb/f");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        dev.launch(s0, kernel("r0").reads(buf, ByteRange::new(0, 64)));
        dev.launch(s1, kernel("r1").reads(buf, ByteRange::new(0, 64)));
        dev.run();
        assert_eq!(check(&dev), vec![]);
    }
}
