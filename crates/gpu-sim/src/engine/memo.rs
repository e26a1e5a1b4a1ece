//! The quiescent-replay memo (DESIGN.md, "Quiescent-replay memo"): the
//! second replay of a key from an idle device is simulated and recorded
//! relative to its start; later ones from an idle device apply the
//! recording at the current clock and ids once its residue program
//! ([`crate::contention`]) proves the simulation would repeat.

use super::{Device, KernelRuntime};
use crate::contention::Residue;
use crate::stream::{CmdRecord, EventState};
use crate::timeline::KernelTrace;
use crate::SimTime;

/// One idle replay's effect on a device, relative to its start: times from
/// the start clock, kernel and event ids from the first one it assigned.
#[derive(Debug)]
pub(super) struct Outcome {
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
    pub(super) residue: Residue,
}

/// Kernel-id, event-id and time offsets (wrapping: records subtract).
#[derive(Clone, Copy)]
struct Shift(u64, u64, SimTime);

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
        t.id.0 = t.id.0.wrapping_add(self.0);
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

impl Device {
    /// Issue one replay of a fixed command sequence with `issue` and run
    /// the device to completion — or, on an idle device that recorded this
    /// key's replay, apply the recording instead, with the same observable
    /// result. Every call with one `key` must issue the same commands on the
    /// same existing streams (`ExecPlan` keys by plan); the second call on
    /// an idle device records. A launch hook or telemetry bypasses the memo.
    pub fn replay_memo(&mut self, key: u64, issue: impl FnOnce(&mut Device)) -> SimTime {
        let idle = self.quiescent();
        #[cfg(test)]
        let idle = idle && !self.never_memo;
        let mut memo = std::mem::take(&mut self.memo);
        match memo.get(&key).filter(|_| idle) {
            Some(Some(outcome)) if self.apply(outcome) => self.memo_stats.0 += 1,
            seen => {
                self.memo_stats.1 += 1;
                if seen.is_some() {
                    let outcome = self.record(issue);
                    memo.insert(key, outcome);
                } else {
                    if idle {
                        memo.insert(key, None);
                    }
                    issue(self);
                    self.run();
                }
            }
        }
        self.memo = memo;
        self.clock
    }

    /// `(hits, misses)` of [`replay_memo`](Device::replay_memo): replays
    /// applied from a recording, and replays that were simulated.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo_stats
    }

    /// Nothing observes the replay and nothing is in flight (an active or
    /// pending kernel, or copy state, keeps a stream busy).
    fn quiescent(&self) -> bool {
        self.launch_hook.is_none()
            && !self.telemetry.is_attached()
            && self.host_clock <= self.clock
            && self.cmd_log.last().is_none_or(|r| *r == CmdRecord::Sync)
            && self.fully_idle()
    }

    /// Issue and run, recording the outcome; `None` when the replay
    /// created streams or left work behind.
    fn record(&mut self, issue: impl FnOnce(&mut Device)) -> Option<Box<Outcome>> {
        let (c, host, seq, events) = (self.clock, self.host_clock, self.seq, self.events_processed);
        let (k0, e0, streams) = (self.kernels.len(), self.events.len(), self.streams.len());
        let (t0, l0, sms) = (self.trace.len(), self.cmd_log.len(), self.sms.clone());
        self.bw.record(true);
        issue(self);
        self.run();
        let residue = (self.bw.record(false))
            .filter(|_| self.streams.len() == streams && self.quiescent())?;
        let neg = |x: usize| (x as u64).wrapping_neg();
        let to_rel = Shift(neg(k0), neg(e0), c.wrapping_neg());
        Some(Box::new(Outcome {
            kernels: (k0..self.kernels.len())
                .map(|i| to_rel.kernel(&self.kernels[i]))
                .collect(),
            trace: self.trace[t0..].iter().map(|t| to_rel.trace(t)).collect(),
            cmd_log: self.cmd_log[l0..].iter().map(|&r| to_rel.cmd(r)).collect(),
            events: self.events[e0..].iter().map(|&e| to_rel.event(e)).collect(),
            sms: (self.sms.iter().zip(sms).enumerate())
                .filter_map(|(i, (s, b))| {
                    let dw = s.warp_time_integral - b.warp_time_integral;
                    ((dw, s.last_change) != (0, b.last_change)).then(|| (i, dw, s.last_change - c))
                })
                .collect(),
            advance: (
                self.clock - c,
                self.seq - seq,
                self.events_processed - events,
            ),
            host_clock: (self.host_clock != host).then(|| self.host_clock - c),
            residue,
        }))
    }

    /// Apply `o` at the current clock and ids if its residue program holds
    /// from the current residue; otherwise change nothing.
    fn apply(&mut self, o: &Outcome) -> bool {
        if !self.bw.replay(&o.residue) {
            return false;
        }
        let c = self.clock;
        let at = Shift(self.kernels.len() as u64, self.events.len() as u64, c);
        for k in &o.kernels {
            self.kernels.push(at.kernel(k));
        }
        self.trace.extend(o.trace.iter().map(|t| at.trace(t)));
        self.cmd_log.extend(o.cmd_log.iter().map(|&r| at.cmd(r)));
        self.events.extend(o.events.iter().map(|&e| at.event(e)));
        // The recorded replay ended with every stream idle: no waiters.
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
        true
    }
}
