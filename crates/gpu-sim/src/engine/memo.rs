//! The quiescent-replay memo (DESIGN.md, "Quiescent-replay memo"): the
//! second replay of a key from an idle device is simulated and recorded
//! relative to its start; later ones from an idle device apply the
//! recording at the current clock and ids once its residue program is
//! proven to repeat ([`crate::contention`]), by reference:
//! its kernels get ids but no arena slots. The fabric's episode memo records
//! and applies one [`Outcome`] per device the same way.

use super::{Device, KernelRuntime};
use crate::contention::Residue;
use crate::kernel::{KernelId, KernelName};
use crate::sm::SmState;
use crate::stream::{CmdRecord, CopyId, EventState};
use crate::timeline::KernelTrace;
use crate::SimTime;
use std::sync::Arc;

/// One idle replay's effect on a device, relative to its start: times from
/// the start clock, kernel and event ids from the first one it assigned.
#[derive(Debug)]
pub(crate) struct Outcome {
    kernels: Vec<KernelRuntime>,
    trace: Vec<KernelTrace>,
    cmd_log: Vec<CmdRecord>,
    events: Vec<EventState>,
    /// `(sm, warp-time integral increase, last_change offset)` if touched.
    sms: Vec<(usize, u128, SimTime)>,
    /// Clock, push-sequence and logical-event advances.
    advance: (SimTime, u64, u64),
    /// The host clock's offset, unless the replay launched nothing.
    host_clock: Option<SimTime>,
    pub(crate) residue: Arc<Residue>,
}

/// One quiescent run recorded on a device ([`Device::run_recorded`]), for a
/// device whose same streams then receive the same commands to apply
/// ([`Device::seed_memo`]).
#[derive(Debug, Clone)]
pub struct Recording(Arc<Outcome>);

/// Kernel-id, event-id, time and fabric copy-id offsets (wrapping: records
/// subtract).
#[derive(Clone, Copy)]
struct Shift(u64, u64, SimTime, u64);

impl Shift {
    fn kernel(self, k: &KernelRuntime) -> KernelRuntime {
        let mut k = k.clone();
        let times = [Some(&mut k.launch_issued), k.start.as_mut(), k.end.as_mut()];
        for t in times.into_iter().flatten() {
            *t = t.wrapping_add(self.2);
        }
        k
    }

    fn trace(self, t: &KernelTrace) -> KernelTrace {
        let mut t = t.clone();
        if t.id.0 > u64::MAX / 2 {
            // A fabric copy's row: `KernelId(u64::MAX - copy)`, tag `copy`.
            (t.id.0, t.tag) = (t.id.0.wrapping_sub(self.3), t.tag.wrapping_add(self.3));
        } else {
            t.id.0 = t.id.0.wrapping_add(self.0);
        }
        for ns in [&mut t.launch_ns, &mut t.start_ns, &mut t.end_ns] {
            *ns = ns.wrapping_add(self.2);
        }
        t
    }

    fn event(self, mut e: EventState) -> EventState {
        if let EventState::Completed(t) = &mut e {
            *t = t.wrapping_add(self.2);
        }
        e
    }

    fn cmd(self, mut r: CmdRecord) -> CmdRecord {
        match &mut r {
            CmdRecord::Launch { kernel, .. } => kernel.0 = kernel.0.wrapping_add(self.0),
            CmdRecord::RecordEvent { event, .. } | CmdRecord::WaitEvent { event, .. } => {
                event.0 = event.0.wrapping_add(self.1)
            }
            _ => {}
        }
        r
    }
}

/// Where a recording starts: time base, first ids, and the state it diffs.
pub(crate) struct Start {
    base: SimTime,
    ids: (usize, usize),
    host: SimTime,
    counters: (u64, u64),
    lens: (usize, usize, usize),
    sms: Vec<SmState>,
}

/// A device's pending fabric episode: its first kernel and recorded event.
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) kernels: usize,
    pub(crate) events: usize,
}

impl Device {
    /// Issue one replay of a fixed command sequence with `issue` and run
    /// the device to completion — or, on an idle device that recorded this
    /// key's replay, apply the recording instead, with the same observable
    /// result. Every call with one `key` must issue the same commands on the
    /// same existing streams (`ExecPlan` keys by plan); the second call on
    /// an idle device records, unless [`seed_memo`](Device::seed_memo) gave
    /// the key a recording first. Attached telemetry bypasses the memo.
    pub fn replay_memo(&mut self, key: u64, issue: impl FnOnce(&mut Device)) -> SimTime {
        let idle = self.quiescent();
        #[cfg(test)]
        let idle = idle && !self.never_memo;
        let mut memo = std::mem::take(&mut self.memo);
        match memo.get(&key).filter(|_| idle) {
            Some(Some(outcome)) if self.apply(outcome) => self.memo_stats.0 += 1,
            seen => {
                self.memo_stats.1 += 1;
                let start = seen
                    .map(|_| self.record_start(self.clock, self.kernels.len(), self.events.len()));
                if seen.is_none() && idle {
                    memo.insert(key, None);
                }
                issue(self);
                self.run();
                if let Some(start) = start {
                    memo.insert(key, self.record_finish(start, 0).map(Arc::new));
                }
            }
        }
        self.memo = memo;
        self.clock
    }

    /// Issue with `issue` and run to completion, recording the run the way
    /// [`replay_memo`](Device::replay_memo) records a replay: `None` unless
    /// the device was quiescent before and after it, and the run created no
    /// stream. Telemetry bypasses it, as it does the memo.
    pub fn run_recorded(&mut self, issue: impl FnOnce(&mut Device)) -> Option<Recording> {
        let start = (self.quiescent())
            .then(|| self.record_start(self.clock, self.kernels.len(), self.events.len()));
        issue(self);
        self.run();
        Some(Recording(Arc::new(self.record_finish(start?, 0)?)))
    }

    /// Make `rec` this device's recording of replay `key`: from the next
    /// [`replay_memo`](Device::replay_memo) of `key` on, a quiescent device
    /// applies it (once its residue program is proven to repeat) instead of
    /// simulating. `key` must issue the recorded commands on the recorded
    /// stream ids: ids are shifted on apply, stream ids are not.
    pub fn seed_memo(&mut self, key: u64, rec: Recording) {
        self.memo.insert(key, Some(rec.0));
    }

    /// `(hits, misses)` of [`replay_memo`](Device::replay_memo): replays
    /// applied from a recording, and replays that were simulated.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo_stats
    }

    /// Nothing observes the replay and nothing is in flight (an active or
    /// pending kernel, or copy state, keeps a stream busy).
    fn quiescent(&self) -> bool {
        !self.telemetry.is_attached()
            && self.host_clock <= self.clock
            && self.cmd_log.last().is_none_or(|r| *r == CmdRecord::Sync)
            && self.fully_idle()
    }

    /// Start recording: kernels from `k0` and events from `e0` on are the
    /// recording's, its times are from `base`.
    pub(crate) fn record_start(&mut self, base: SimTime, k0: usize, e0: usize) -> Start {
        self.bw.record(true);
        Start {
            base,
            ids: (k0, e0),
            host: self.host_clock,
            counters: (self.seq, self.events_processed),
            lens: (self.trace.len(), self.cmd_log.len(), self.streams.len()),
            sms: self.sms.clone(),
        }
    }

    /// The outcome since `s`, copy ids from `copy0`; `None` when the run
    /// created streams or left work behind.
    pub(crate) fn record_finish(&mut self, s: Start, copy0: u64) -> Option<Outcome> {
        let ((k0, e0), (t0, l0, streams)) = (s.ids, s.lens);
        let residue = (self.bw.record(false))
            .filter(|_| self.streams.len() == streams && self.quiescent())?;
        let (c, neg) = (s.base, |x: usize| (x as u64).wrapping_neg());
        let to_rel = Shift(neg(k0), neg(e0), c.wrapping_neg(), copy0.wrapping_neg());
        Some(Outcome {
            kernels: (k0..self.kernels.len())
                .map(|i| to_rel.kernel(&self.kernels[i]))
                .collect(),
            trace: self.trace[t0..].iter().map(|t| to_rel.trace(t)).collect(),
            cmd_log: self.cmd_log[l0..].iter().map(|&r| to_rel.cmd(r)).collect(),
            events: self.events[e0..].iter().map(|&e| to_rel.event(e)).collect(),
            sms: (self.sms.iter().zip(s.sms).enumerate())
                .filter_map(|(i, (s, b))| {
                    let dw = s.warp_time_integral - b.warp_time_integral;
                    ((dw, s.last_change) != (0, b.last_change)).then(|| (i, dw, s.last_change - c))
                })
                .collect(),
            advance: (
                self.clock - c,
                self.seq - s.counters.0,
                self.events_processed - s.counters.1,
            ),
            host_clock: (self.host_clock != s.host).then(|| self.host_clock - c),
            residue: Arc::new(residue),
        })
    }

    /// Apply `o` at the current clock and ids if its residue program is
    /// proven to repeat from the current demand ([`crate::contention`]);
    /// otherwise change nothing observable. Its kernels take the next ids
    /// without arena slots: one `applied` entry answers for them
    /// ([`kernel_record`](Device::kernel_record)).
    fn apply(&mut self, o: &Arc<Outcome>) -> bool {
        if !self.bw.check(&o.residue) {
            return false;
        }
        self.bw.commit(&o.residue);
        let (k, e) = (self.kernels.len() as u64, self.events.len() as u64);
        if !o.kernels.is_empty() {
            self.applied.push((KernelId(k), Arc::clone(o), self.clock));
            self.kernels.skip(o.kernels.len());
        }
        self.apply_at(o, Shift(k, e, self.clock, 0));
        true
    }

    /// Kernel `id`'s record and the clock its times are relative to: its
    /// arena slot (times absolute), or the recording an `applied` entry
    /// holds for it. `None` for an id this device never issued.
    pub(super) fn kernel_record(&self, id: KernelId) -> Option<(&KernelRuntime, SimTime)> {
        if let Some(k) = self.kernels.get(id.0 as usize) {
            return Some((k, 0));
        }
        let at = (self.applied.partition_point(|(first, ..)| first.0 <= id.0)).checked_sub(1)?;
        let (first, o, clock) = &self.applied[at];
        Some((o.kernels.get((id.0 - first.0) as usize)?, *clock))
    }

    /// Write everything of `o` but its kernel records, shifted by `at`:
    /// event states overwrite events still pending and are pushed past the
    /// table's end.
    fn apply_at(&mut self, o: &Outcome, at: Shift) {
        let (e0, c) = (at.1 as usize, at.2);
        self.trace.extend(o.trace.iter().map(|t| at.trace(t)));
        self.cmd_log.extend(o.cmd_log.iter().map(|&r| at.cmd(r)));
        for (i, &e) in o.events.iter().enumerate() {
            match self.events.get_mut(e0 + i) {
                Some(live) if *live == EventState::Pending => *live = at.event(e),
                Some(_) => {}
                None => self.events.push(at.event(e)),
            }
        }
        // The recorded run ended with every stream idle: no waiters.
        self.event_waiters.resize_with(self.events.len(), Vec::new);
        for &(sm, integral, last_change) in &o.sms {
            self.sms[sm].warp_time_integral += integral;
            self.sms[sm].last_change = c + last_change;
        }
        self.clock = c + o.advance.0;
        self.seq += o.advance.1;
        self.events_processed += o.advance.2;
        if let Some(host) = o.host_clock {
            self.host_clock = c + host;
        }
    }

    /// Append the key words of this device's pending fabric episode — what
    /// its simulation reads: times from `base`, kernels by position, pending
    /// events by distance from the table's end, copies from `copy0` plus
    /// `copy`'s words for a sourced one — if it entered the episode
    /// quiescent: unobserved, and nothing issued since its last `Sync` has
    /// been simulated. `None` bypasses the memo.
    pub(crate) fn segment_key(
        &self,
        base: SimTime,
        copy0: u64,
        key: &mut Vec<u64>,
        mut copy: impl FnMut(CopyId, &mut Vec<u64>) -> Option<()>,
    ) -> Option<Segment> {
        let from = self.cmd_log.iter().rposition(|r| *r == CmdRecord::Sync);
        let log = &self.cmd_log[from.map_or(0, |i| i + 1)..];
        // Each command issued since queued one stream command: a simulated
        // one has left its queue, and a parked stream holds copy state or
        // a copy waiter.
        let queued: usize = self.streams.iter().map(|s| s.queue.len()).sum();
        let observed = self.telemetry.is_attached();
        let busy = (self.streams.iter()).any(|s| s.inflight.is_some() || s.copy_inflight.is_some());
        let busy = busy || !self.copy_waiters.is_empty();
        #[cfg(test)]
        let busy = busy || self.never_memo;
        if observed || busy || queued != log.len() || !self.queue.is_empty() {
            return None;
        }
        key.extend([u64::MAX, self.clock - base, log.len() as u64]);
        let launches = log.iter().filter(|r| matches!(r, CmdRecord::Launch { .. }));
        let kernels = self.kernels.len() - launches.count();
        let (n_events, mut next, mut e0) = (self.events.len() as u64, kernels as u64, u64::MAX);
        for &r in log {
            let (tag, stream, word) = match r {
                CmdRecord::Launch { stream, kernel } if kernel.0 == next => {
                    next += 1;
                    let k = &self.kernels[kernel.0 as usize];
                    let (fp, c, t) = (k.footprint, k.desc.cost, k.launch_issued);
                    let shape =
                        u64::from(fp.threads) | u64::from(fp.smem) << 16 | u64::from(fp.regs) << 40;
                    let [flops, dram] =
                        [c.flops_per_block, c.dram_bytes_per_block].map(f64::to_bits);
                    key.extend([t.wrapping_sub(base), k.blocks_total, shape, flops, dram]);
                    (0, stream, 0)
                }
                CmdRecord::RecordEvent { stream, event }
                | CmdRecord::WaitEvent { stream, event } => {
                    let wait = matches!(r, CmdRecord::WaitEvent { .. });
                    // A wait on an earlier episode's event reads only that
                    // it completed.
                    let state = match self.events[event.0 as usize] {
                        EventState::Pending => {
                            e0 = e0.min(event.0);
                            n_events - event.0
                        }
                        EventState::Completed(_) if wait => 0,
                        _ => return None,
                    };
                    (1 + u64::from(wait), stream, state)
                }
                CmdRecord::CopySrc { stream, copy: id } => {
                    copy(id, key)?;
                    (3, stream, id.0.wrapping_sub(copy0))
                }
                CmdRecord::CopyDst { stream, copy: id } => (4, stream, id.0.wrapping_sub(copy0)),
                _ => return None,
            };
            key.extend([tag | u64::from(stream.0) << 8, word]);
        }
        let events = e0.min(n_events) as usize;
        Some(Segment { kernels, events })
    }

    /// Apply a fabric episode's outcome `o` at `base`, copy ids from `copy0`
    /// (its residue program already applied): overwrite the arena slots of
    /// the episode's launches, keeping their live descriptors, patch its
    /// events, push the trace rows with the live kernels' and copies'
    /// (`copy_name`) names, and drop what the simulation would consume.
    pub(crate) fn apply_episode(
        &mut self,
        o: &Outcome,
        seg: &Segment,
        (base, copy0): (SimTime, u64),
        copy_name: impl Fn(u64) -> KernelName,
    ) {
        let at = Shift(seg.kernels as u64, seg.events as u64, base, copy0);
        let t0 = self.trace.len();
        for (i, k) in o.kernels.iter().enumerate() {
            let live = &mut self.kernels[seg.kernels + i];
            *live = KernelRuntime {
                desc: Arc::clone(&live.desc),
                ..at.kernel(k)
            };
        }
        self.apply_at(o, at);
        for t in &mut self.trace[t0..] {
            if t.id.0 > u64::MAX / 2 {
                t.name = copy_name(t.tag);
            } else {
                let desc = &self.kernels[t.id.0 as usize].desc;
                (t.name, t.tag, t.launch) = (desc.name.clone(), desc.tag, desc.launch);
            }
        }
        self.streams.iter_mut().for_each(|s| s.queue.clear());
        self.copy_src.clear();
        self.pending_trace = self.pending_trace.saturating_sub(o.trace.len());
    }
}
