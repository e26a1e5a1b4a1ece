//! Happens-before race detection over recorded command logs: the one replay
//! behind both [`Sanitizer::check_device`](crate::Sanitizer::check_device)
//! (one device, no fabric) and
//! [`Sanitizer::check_fabric`](crate::Sanitizer::check_fabric) (every
//! device of a [`Fabric`](gpu_sim::Fabric), replayed together).
//!
//! The engine records every host-issued stream command ([`CmdRecord`]); the
//! replay walks the log suffixes with one vector clock per
//! `(device, stream)`, CUDA semantics:
//!
//! - a stream executes its commands in FIFO order;
//! - `record(e)` snapshots the recording stream's clock into `e`;
//! - `wait(e)` joins `e`'s snapshot into the waiting stream's clock — and
//!   can only fire after the record has (the engine blocks a wait enqueued
//!   before its record until the event completes). A wait on an event the
//!   suffixes never record is a join with already-checked history if the
//!   device reports the event completed, and stalls otherwise;
//! - a `CopySrc` is an access-carrying node — it **reads** the declared
//!   source range on the source device and **writes** the declared
//!   destination range on the destination device — and records a per-copy
//!   virtual event; a `CopyDst` waits on it, giving the cross-device
//!   happens-before edge. Without a fabric, copy halves are skipped (their
//!   edges cross devices, and a one-device replay sees only one side);
//! - a device's own [`CmdRecord::Sync`] markers are per-device barriers:
//!   commands of a later sync phase join the barrier clock of everything
//!   the device completed in earlier phases (device logs do **not** need
//!   the same number of sync markers — each device's phases advance
//!   independently, which is exactly what happens when replicas run
//!   eagerly and only meet inside `Fabric::run`).
//!
//! Buffers live in **per-device address spaces**: the same buffer label on
//! two replicas names two different allocations (layers derive labels from
//! layer names, identical across replicas), so accesses conflict only when
//! they touch the same byte range of the same buffer *on the same device*,
//! in the same sync phase. A copy's destination write participates in the
//! destination device's space — the edge the fault-injection tests
//! exercise. Each `(device, phase)` bucket is scanned with
//! [`conflict_candidates`]: two conflicting accesses whose clocks are
//! incomparable are a data race. A replay that stalls (a wait whose event
//! is never recorded, or waits forming a cycle) is a deadlock.

use crate::report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
use crate::sweep::{conflict_candidates, pairs_covered};
use gpu_sim::{AccessSet, CmdRecord, Device, Fabric, MemAccess, StreamId};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};

/// Merged-replay clock key: a stream of a particular device.
type Key = (usize, StreamId);

/// One access-carrying node of the replay (a kernel launch with declared
/// accesses, or a peer-to-peer copy).
struct Node<'a> {
    name: &'a str,
    tag: u64,
    key: Key,
    epoch: u64,
    clock: HashMap<Key, u64>,
    log_index: usize,
}

impl Node<'_> {
    /// `self` happens before `other` iff `other`'s snapshot has seen
    /// `self`'s epoch on `self`'s stream.
    fn happens_before(&self, other: &Node) -> bool {
        other.clock.get(&self.key).copied().unwrap_or(0) >= self.epoch
    }
}

/// One node's accesses in one `(device, sync phase)` address-space bucket.
struct Entry<'a> {
    device: usize,
    phase: usize,
    node: usize,
    set: Cow<'a, AccessSet>,
}

fn read_set(a: MemAccess) -> AccessSet {
    AccessSet {
        reads: vec![a],
        writes: vec![],
    }
}

fn write_set(a: MemAccess) -> AccessSet {
    AccessSet {
        reads: vec![],
        writes: vec![a],
    }
}

fn join(clock: &mut HashMap<Key, u64>, other: &HashMap<Key, u64>) {
    for (k, t) in other {
        let e = clock.entry(*k).or_insert(0);
        *e = (*e).max(*t);
    }
}

/// Replay per-device log suffixes together (`logs[d]` of `devs[d]`),
/// following the copies of `fabric` when given, and append diagnostics to
/// `out`. Returns `(launches_and_copies_replayed, pairs_covered)`, the
/// pairs summed over the `(device, phase)` buckets.
pub(crate) fn check_logs<'a>(
    fabric: Option<&'a Fabric>,
    devs: &[&'a Device],
    logs: &[&[CmdRecord]],
    context: &str,
    out: &mut Vec<Diagnostic>,
) -> (u64, u64) {
    debug_assert_eq!(devs.len(), logs.len());

    // ---- partition into per-(device, stream) FIFOs, tagging each command
    // with its device's sync phase -------------------------------------
    struct Fifo {
        queue: VecDeque<(usize, usize, CmdRecord)>, // (log index, phase, cmd)
        /// Barrier clock of phases < N already joined into the stream.
        joined_phase: usize,
    }
    let mut fifos: HashMap<Key, Fifo> = HashMap::new();
    let mut key_order: Vec<Key> = Vec::new();
    // Commands per (device, phase), for barrier completion tracking.
    let mut phase_totals: Vec<Vec<usize>> = vec![Vec::new(); devs.len()];
    // Destination-side sync phase of each copy (address-space bucket of
    // its landing write).
    let mut copy_dst_phase: HashMap<u64, usize> = HashMap::new();
    // Events / copies whose record half appears in these suffixes; a wait
    // on anything else is decided by the device's event state.
    let mut recorded_events: HashSet<(usize, u64)> = HashSet::new();
    let mut recorded_copies: HashSet<u64> = HashSet::new();

    for (d, log) in logs.iter().enumerate() {
        let mut phase = 0usize;
        for (i, c) in log.iter().enumerate() {
            let sid = match c {
                CmdRecord::Sync => {
                    phase += 1;
                    continue;
                }
                CmdRecord::CopySrc { .. } | CmdRecord::CopyDst { .. } if fabric.is_none() => {
                    continue;
                }
                CmdRecord::Launch { stream, .. }
                | CmdRecord::RecordEvent { stream, .. }
                | CmdRecord::WaitEvent { stream, .. }
                | CmdRecord::CopySrc { stream, .. }
                | CmdRecord::CopyDst { stream, .. } => *stream,
            };
            match c {
                CmdRecord::RecordEvent { event, .. } => {
                    recorded_events.insert((d, event.raw()));
                }
                CmdRecord::CopySrc { copy, .. } => {
                    recorded_copies.insert(copy.raw());
                }
                CmdRecord::CopyDst { copy, .. } => {
                    copy_dst_phase.insert(copy.raw(), phase);
                }
                _ => {}
            }
            if phase_totals[d].len() <= phase {
                phase_totals[d].resize(phase + 1, 0);
            }
            phase_totals[d][phase] += 1;
            let key = (d, sid);
            if !fifos.contains_key(&key) {
                key_order.push(key);
            }
            fifos
                .entry(key)
                .or_insert_with(|| Fifo {
                    queue: VecDeque::new(),
                    joined_phase: 0,
                })
                .queue
                .push_back((i, phase, *c));
        }
    }

    // ---- worklist replay ---------------------------------------------
    // A wait enqueued before its record is legal (the engine blocks on
    // it), so issue order alone cannot drive the replay: drain any stream
    // whose head command can fire until none can.
    let mut clocks: HashMap<Key, HashMap<Key, u64>> = HashMap::new();
    let mut event_clock: HashMap<(usize, u64), HashMap<Key, u64>> = HashMap::new();
    let mut copy_clock: HashMap<u64, HashMap<Key, u64>> = HashMap::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut entries: Vec<Entry> = Vec::new();
    let mut replayed = 0u64;
    // Per-device barrier: clock joining everything in completed phases,
    // and how many phases have completed (leading empty phases — a suffix
    // that starts at a sync marker — are complete from the start).
    let mut barrier: Vec<HashMap<Key, u64>> = vec![HashMap::new(); devs.len()];
    let mut barrier_phase: Vec<usize> = phase_totals
        .iter()
        .map(|t| t.iter().take_while(|&&n| n == 0).count())
        .collect();
    let mut phase_fired: Vec<Vec<usize>> = phase_totals.iter().map(|t| vec![0; t.len()]).collect();

    loop {
        let mut progressed = false;
        for &key in &key_order {
            let d = key.0;
            loop {
                let fifo = fifos.get_mut(&key).expect("fifo exists");
                let Some(&(log_index, phase, cmd)) = fifo.queue.front() else {
                    break;
                };
                // Per-device barrier: a command of phase p may only fire
                // once all of its device's commands in phases < p fired.
                if barrier_phase[d] < phase {
                    break;
                }
                if fifo.joined_phase < phase {
                    fifo.joined_phase = phase;
                    join(clocks.entry(key).or_default(), &barrier[d]);
                }
                match cmd {
                    CmdRecord::Launch { kernel, .. } => {
                        let clock = clocks.entry(key).or_default();
                        let epoch = clock.entry(key).or_insert(0);
                        *epoch += 1;
                        let epoch = *epoch;
                        replayed += 1;
                        let desc = devs[d].kernel_desc(kernel);
                        if let Some(desc) = desc.filter(|d| !d.accesses.is_empty()) {
                            entries.push(Entry {
                                device: d,
                                phase,
                                node: nodes.len(),
                                set: Cow::Borrowed(&desc.accesses),
                            });
                            nodes.push(Node {
                                name: &desc.name,
                                tag: desc.tag,
                                key,
                                epoch,
                                clock: clock.clone(),
                                log_index,
                            });
                        }
                    }
                    CmdRecord::RecordEvent { event, .. } => {
                        let clock = clocks.entry(key).or_default().clone();
                        event_clock.insert((d, event.raw()), clock);
                    }
                    CmdRecord::WaitEvent { event, .. } => {
                        match event_clock.get(&(d, event.raw())) {
                            Some(ev) => join(clocks.entry(key).or_default(), ev),
                            // Recorded before these suffixes and completed:
                            // a join with already-checked history.
                            None if !recorded_events.contains(&(d, event.raw()))
                                && devs[d].event_time(event).is_some() => {}
                            // Blocked: the record is not replayed yet, or
                            // is never issued at all.
                            None => break,
                        }
                    }
                    CmdRecord::CopySrc { copy, .. } => {
                        let Some(fabric) = fabric else {
                            unreachable!("copy halves are dropped without a fabric")
                        };
                        let desc = fabric.copy_desc(copy);
                        let clock = clocks.entry(key).or_default();
                        let epoch = clock.entry(key).or_insert(0);
                        *epoch += 1;
                        let epoch = *epoch;
                        replayed += 1;
                        copy_clock.insert(copy.raw(), clock.clone());
                        let node = nodes.len();
                        entries.push(Entry {
                            device: desc.src,
                            phase,
                            node,
                            set: Cow::Owned(read_set(desc.src_access)),
                        });
                        if let Some(&dp) = copy_dst_phase.get(&copy.raw()) {
                            entries.push(Entry {
                                device: desc.dst,
                                phase: dp,
                                node,
                                set: Cow::Owned(write_set(desc.dst_access)),
                            });
                        }
                        nodes.push(Node {
                            name: &desc.name,
                            tag: copy.raw(),
                            key,
                            epoch,
                            clock: clock.clone(),
                            log_index,
                        });
                    }
                    CmdRecord::CopyDst { copy, .. } => {
                        match copy_clock.get(&copy.raw()) {
                            Some(cc) => join(clocks.entry(key).or_default(), cc),
                            None if recorded_copies.contains(&copy.raw()) => {
                                break; // blocked: source half not replayed
                            }
                            None => {} // copy resolved before these suffixes
                        }
                    }
                    CmdRecord::Sync => {}
                }
                fifo.queue.pop_front();
                progressed = true;
                // Barrier bookkeeping: completing the last command of the
                // device's current phase freezes the barrier clock and
                // unlocks the next phase (skipping empty phases).
                phase_fired[d][phase] += 1;
                while barrier_phase[d] < phase_totals[d].len()
                    && phase_fired[d][barrier_phase[d]] == phase_totals[d][barrier_phase[d]]
                {
                    for (k, clock) in &clocks {
                        if k.0 == d {
                            join(&mut barrier[d], clock);
                        }
                    }
                    barrier_phase[d] += 1;
                }
            }
        }
        if !progressed {
            break;
        }
    }

    // A one-device replay without a fabric (`Sanitizer::check_device`)
    // knows its device only as slice index 0, so it names streams alone.
    let named = fabric.is_some() || devs.len() > 1;
    let on_device = |d: usize| {
        if named {
            format!(" on device {d}")
        } else {
            String::new()
        }
    };

    // ---- deadlock detection ------------------------------------------
    let stuck: Vec<String> = key_order
        .iter()
        .filter_map(|key| {
            fifos[key].queue.front().map(|&(i, _, c)| {
                let what = match c {
                    CmdRecord::WaitEvent { event, .. } => {
                        format!("waiting on event {}", event.raw())
                    }
                    CmdRecord::CopyDst { copy, .. } => {
                        format!("waiting on copy {}", copy.raw())
                    }
                    _ => "blocked behind its device's sync barrier".to_string(),
                };
                format!(
                    "stream {}{} blocked at log[{i}] {what}",
                    key.1.raw(),
                    on_device(key.0)
                )
            })
        })
        .collect();
    if !stuck.is_empty() {
        out.push(Diagnostic {
            kind: DiagnosticKind::EventWaitCycle,
            context: context.to_string(),
            first: None,
            second: None,
            site: None,
            detail: format!(
                "trace replay deadlocks: {} (an event is never recorded, a copy \
                 half is missing, or waits form a cycle)",
                stuck.join("; ")
            ),
        });
    }

    // ---- race detection ----------------------------------------------
    // Entries in different phases of the same device are ordered by its
    // sync barrier, and entries on different devices live in different
    // address spaces, so only entries of one (device, phase) bucket can
    // race: the sweep names the pairs whose regions conflict, the vector
    // clocks decide which of those are unordered. The sort is stable, so
    // each bucket keeps node order and its pairs come back ascending.
    entries.sort_by_key(|e| (e.device, e.phase));
    let node_ref = |n: &Node| KernelRef {
        name: if devs.len() > 1 {
            format!("dev{}:{}", n.key.0, n.name)
        } else {
            n.name.to_string()
        },
        tag: n.tag,
        stream: Some(n.key.1.raw()),
        index: n.log_index,
    };
    let mut pairs = 0u64;
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    for bucket in entries.chunk_by(|a, b| (a.device, a.phase) == (b.device, b.phase)) {
        let sets: Vec<&AccessSet> = bucket.iter().map(|e| e.set.as_ref()).collect();
        pairs += pairs_covered(&sets);
        for (x, y) in conflict_candidates(&sets) {
            let (x, y) = (x as usize, y as usize);
            let (ni, nj) = (bucket[x].node, bucket[y].node);
            let (a, b) = (&nodes[ni], &nodes[nj]);
            if reported.contains(&(ni, nj)) || a.happens_before(b) || b.happens_before(a) {
                continue;
            }
            if let Some(c) = sets[x].conflict_with(sets[y]) {
                reported.insert((ni, nj));
                out.push(Diagnostic {
                    kind: DiagnosticKind::DataRace,
                    context: context.to_string(),
                    first: Some(node_ref(a)),
                    second: Some(node_ref(b)),
                    site: Some(ConflictSite {
                        buffer: c.buffer,
                        overlap: c.overlap,
                        hazard: c.hazard(),
                    }),
                    detail: format!(
                        "no copy edge, event, or stream order makes these \
                         happens-before ordered{}",
                        on_device(bucket[x].device)
                    ),
                });
            }
        }
    }
    (replayed, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SanitizeMode, Sanitizer};
    use gpu_sim::{
        BufferId, ByteRange, CopyDesc, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig,
        LinkProps,
    };

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    fn mem(label: &str, range: ByteRange) -> MemAccess {
        MemAccess {
            buffer: BufferId::from_label(label),
            range,
        }
    }

    /// Every device's whole log, replayed together over `fabric`.
    fn check_all(fabric: &Fabric, devs: &[&Device]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let logs: Vec<&[CmdRecord]> = devs.iter().map(|d| d.command_log()).collect();
        check_logs(Some(fabric), devs, &logs, "test", &mut out);
        out
    }

    /// Two devices, one stream each, a copy from 0 to 1, and a consumer
    /// kernel on device 1 reading the landed bytes.
    fn copy_then_consume(gate_consumer: bool) -> Vec<Diagnostic> {
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let s0 = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let free = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let range = ByteRange::new(0, 4096);
        {
            let mut h: Vec<&mut Device> = devs.iter_mut().collect();
            h[0].launch(
                s0,
                kernel("produce").writes(BufferId::from_label("grad"), range),
            );
            fab.copy_p2p(
                &mut h,
                CopyDesc::new(
                    "p2p:0->1",
                    (0, s0, mem("grad", range)),
                    (1, s1, mem("staging", range)),
                ),
            )
            .expect("fully-connected fabric has a 0->1 link, so copy_p2p cannot fail");
            // The consumer either rides the gated stream (ordered after
            // the CopyDst marker) or a free stream (racy).
            let consumer_stream = if gate_consumer { s1 } else { free };
            h[1].launch(
                consumer_stream,
                kernel("reduce").reads(BufferId::from_label("staging"), range),
            );
            fab.run(&mut h);
        }
        let views: Vec<&Device> = devs.iter().collect();
        check_all(&fab, &views)
    }

    #[test]
    fn gated_consumer_is_race_free() {
        assert_eq!(copy_then_consume(true), vec![]);
    }

    #[test]
    fn ungated_consumer_races_with_the_copy_write() {
        let out = copy_then_consume(false);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, DiagnosticKind::DataRace);
        let s = out[0].to_string();
        assert!(s.contains("p2p:0->1"), "{s}");
        assert!(s.contains("staging"), "{s}");
    }

    #[test]
    fn same_label_on_two_devices_is_not_a_conflict() {
        // Replicas reuse layer-scoped buffer labels; per-device address
        // spaces must keep them apart.
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let s0 = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let buf = BufferId::from_label("conv1/out");
        let range = ByteRange::new(0, 1024);
        devs[0].launch(s0, kernel("w").writes(buf, range));
        devs[1].launch(s1, kernel("w").writes(buf, range));
        let mut fab = fab;
        let mut h: Vec<&mut Device> = devs.iter_mut().collect();
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        assert_eq!(check_all(&fab, &views), vec![]);
    }

    #[test]
    fn copy_read_races_with_unordered_source_overwrite() {
        // Device 0 overwrites the source buffer on a second stream while
        // the copy reads it: write/read race on the *source* device.
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let s0 = devs[0].create_stream();
        let other = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let mut fab = Fabric::fully_connected(2, LinkProps::pcie3());
        let range = ByteRange::new(0, 4096);
        let mut h: Vec<&mut Device> = devs.iter_mut().collect();
        fab.copy_p2p(
            &mut h,
            CopyDesc::new(
                "p2p",
                (0, s0, mem("src", range)),
                (1, s1, mem("dst", range)),
            ),
        )
        .expect("fully-connected fabric has a 0->1 link, so copy_p2p cannot fail");
        h[0].launch(
            other,
            kernel("overwrite").writes(BufferId::from_label("src"), range),
        );
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        let out = check_all(&fab, &views);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, DiagnosticKind::DataRace);
        assert!(out[0].to_string().contains("src"), "{}", out[0]);
    }

    #[test]
    fn unaligned_sync_phases_still_order_per_device() {
        // Device 0 runs two solo episodes (2 syncs) while device 1 runs
        // one; conflicting launches across device 0's episodes are
        // barrier-ordered even though phase counts differ between logs.
        let mut devs = [
            Device::new(DeviceProps::p100()),
            Device::new(DeviceProps::p100()),
        ];
        let a = devs[0].create_stream();
        let b = devs[0].create_stream();
        let s1 = devs[1].create_stream();
        let buf = BufferId::from_label("x");
        let range = ByteRange::new(0, 64);
        devs[0].launch(a, kernel("w0").writes(buf, range));
        devs[0].run();
        devs[0].launch(b, kernel("w1").writes(buf, range));
        devs[0].run();
        devs[1].launch(s1, kernel("other").writes(buf, range));
        devs[1].run();
        let mut fab = Fabric::fully_connected(2, LinkProps::nvlink());
        let mut h: Vec<&mut Device> = devs.iter_mut().collect();
        fab.run(&mut h);
        let views: Vec<&Device> = devs.iter().collect();
        assert_eq!(check_all(&fab, &views), vec![]);
    }

    #[test]
    fn missing_source_half_reports_deadlock_not_panic() {
        // A CopyDst wait whose CopySrc appears in the suffix but whose
        // replay can never fire does not exist by construction (copy_p2p
        // enqueues both), so exercise the cross-segment tolerance: a wait
        // on an event recorded before the suffix is a no-op.
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let ev = dev.create_event();
        dev.record_event(s0, ev);
        dev.run();
        let cut = dev.command_log().len();
        dev.wait_event(s0, ev);
        dev.launch(s0, kernel("k"));
        dev.run();
        let fab = Fabric::new(1);
        let suffix = &dev.command_log()[cut..];
        let mut out = Vec::new();
        check_logs(Some(&fab), &[&dev], &[suffix], "test", &mut out);
        assert_eq!(out, vec![]);
    }

    #[test]
    fn never_recorded_wait_is_a_deadlock() {
        // A wait on an event no command ever records: the engine would
        // hang in run(), so nothing runs and the replay must stall — through
        // the fabric path exactly as through the per-device one.
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let ev = dev.create_event();
        dev.wait_event(s0, ev);
        dev.launch(s0, kernel("blocked"));
        let fab = Fabric::new(1);
        let mut san = Sanitizer::new(SanitizeMode::Full);
        san.check_fabric(&fab, &[&dev]);
        assert_eq!(san.reports().len(), 1, "{:?}", san.reports());
        assert_eq!(san.reports()[0].kind, DiagnosticKind::EventWaitCycle);
    }

    /// One device's log replayed with no fabric: the path of
    /// [`Sanitizer::check_device`].
    fn check(dev: &Device) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_logs(None, &[dev], &[dev.command_log()], "test", &mut out);
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
