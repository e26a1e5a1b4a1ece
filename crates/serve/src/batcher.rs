//! The dynamic batching policy.

use gpu_sim::SimTime;

/// When to close a batch and dispatch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are waiting.
    pub max_batch: usize,
    /// Dispatch a partial batch once the oldest waiting request has
    /// queued this long (ns).
    pub max_delay_ns: SimTime,
    /// Continuous batching: the instant a wave drains, whatever is queued
    /// forms the next wave. When `false`, a drained engine waits on the
    /// same size-or-delay triggers as an idle one.
    pub work_conserving: bool,
}

impl BatchPolicy {
    /// A size-and-delay policy with continuous batching
    /// (`work_conserving: true`).
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, max_delay_ns: SimTime) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        BatchPolicy {
            max_batch,
            max_delay_ns,
            work_conserving: true,
        }
    }

    /// Decide what to do at simulated time `now`. Admission is
    /// incremental, so the policy sees only the queue's aggregate state,
    /// and `just_drained` marks the instant a wave completed on the
    /// engine.
    ///
    /// A wave closes on the size trigger (`max_batch` waiting) or the
    /// delay trigger (oldest request waited `max_delay_ns`). A
    /// [`work_conserving`](Self::work_conserving) policy also fires at a
    /// wave boundary whatever the count: requests that arrived while the
    /// previous wave executed form the next wave immediately instead of
    /// waiting out the delay timer behind an idle engine.
    pub fn decide(
        &self,
        now: SimTime,
        queued: usize,
        oldest_arrival_ns: Option<SimTime>,
        just_drained: bool,
    ) -> BatchDecision {
        let Some(oldest) = oldest_arrival_ns else {
            return BatchDecision::Idle;
        };
        if queued >= self.max_batch {
            return BatchDecision::Fire(self.max_batch);
        }
        if just_drained && self.work_conserving {
            return BatchDecision::Fire(queued);
        }
        let deadline = oldest + self.max_delay_ns;
        if now >= deadline {
            BatchDecision::Fire(queued)
        } else {
            BatchDecision::WaitUntil(deadline)
        }
    }
}

/// Outcome of a batching decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDecision {
    /// Dispatch a batch of this many requests now.
    Fire(usize),
    /// Nothing to dispatch yet; re-decide at this time (or on the next
    /// arrival, whichever is earlier).
    WaitUntil(SimTime),
    /// The queue is empty.
    Idle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use BatchDecision::{Fire, Idle, WaitUntil};

    /// `(max_batch, max_delay_ns, now, queued, oldest, just_drained)`
    /// `-> (work-conserving decision, size-or-delay decision)`.
    type Row = (
        (usize, SimTime, SimTime, usize, Option<SimTime>, bool),
        (BatchDecision, BatchDecision),
    );

    /// Checks each row with the bit on and off, and that with the bit off
    /// a wave boundary never changes the decision.
    fn check(rows: &[Row]) {
        for &((max_batch, delay, now, queued, oldest, drained), (conserving, triggered)) in rows {
            let on = BatchPolicy::new(max_batch, delay);
            let off = BatchPolicy {
                work_conserving: false,
                ..on
            };
            let row = format!("max_batch {max_batch} delay {delay} at t={now}: {queued} queued, oldest {oldest:?}, drained {drained}");
            assert_eq!(on.decide(now, queued, oldest, drained), conserving, "{row}");
            assert_eq!(off.decide(now, queued, oldest, drained), triggered, "{row}");
            assert_eq!(
                off.decide(now, queued, oldest, !drained),
                triggered,
                "{row}"
            );
        }
    }

    #[test]
    fn size_trigger_fires_a_full_batch() {
        // Five waiting, max_batch 4: fire exactly 4 at once, far from the
        // delay deadline, whether or not a wave just drained.
        #[rustfmt::skip]
        check(&[
            ((4, 1_000_000, 60, 5, Some(10), false), (Fire(4), Fire(4))),
            ((4, 1_000_000, 60, 5, Some(10), true), (Fire(4), Fire(4))),
        ]);
    }

    #[test]
    fn delay_trigger_fires_a_partial_batch() {
        // Before the head's deadline wait for it; at or after it fire the
        // partial batch.
        #[rustfmt::skip]
        check(&[
            ((8, 1_000, 500, 2, Some(100), false), (WaitUntil(1_100), WaitUntil(1_100))),
            ((8, 1_000, 1_100, 2, Some(100), false), (Fire(2), Fire(2))),
            ((8, 1_000, 5_000, 2, Some(100), false), (Fire(2), Fire(2))),
            ((8, 1_000, 5_000, 2, Some(100), true), (Fire(2), Fire(2))),
        ]);
    }

    #[test]
    fn empty_queue_is_idle() {
        #[rustfmt::skip]
        check(&[
            ((4, 1_000, 0, 0, None, false), (Idle, Idle)),
            ((8, 0, 500, 0, None, true), (Idle, Idle)),
        ]);
    }

    #[test]
    fn zero_delay_fires_singletons_immediately() {
        check(&[((8, 0, 42, 1, Some(42), false), (Fire(1), Fire(1)))]);
    }

    #[test]
    fn continuous_is_work_conserving_at_wave_boundaries() {
        // Mid-wave arrivals far from both triggers wait; at the instant a
        // wave drains, only a work-conserving policy fires them. The size
        // trigger still caps the wave, and an empty queue is idle even at
        // a wave boundary.
        #[rustfmt::skip]
        check(&[
            ((8, 1_000_000, 500, 3, Some(100), false), (WaitUntil(1_000_100), WaitUntil(1_000_100))),
            ((8, 1_000_000, 500, 3, Some(100), true), (Fire(3), WaitUntil(1_000_100))),
            ((8, 1_000, 500, 2, Some(100), true), (Fire(2), WaitUntil(1_100))),
            ((8, 1_000_000, 500, 11, Some(100), true), (Fire(8), Fire(8))),
            ((8, 1_000_000, 500, 0, None, true), (Idle, Idle)),
        ]);
    }

    #[test]
    fn continuous_matches_batch_decide_when_not_draining() {
        // Away from a wave boundary the bit makes no difference.
        let on = BatchPolicy::new(4, 1_000);
        let off = BatchPolicy {
            work_conserving: false,
            ..on
        };
        for now in [100, 500, 1_100, 5_000] {
            assert_eq!(
                on.decide(now, 2, Some(100), false),
                off.decide(now, 2, Some(100), false),
                "at t={now}"
            );
        }
    }
}
