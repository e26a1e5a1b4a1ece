//! The class-aware bounded admission queue: per-tenant priority lanes,
//! shed order that preempts the lowest class first, and deadline-expiry
//! eviction. With one lane it is a plain FIFO that sheds arrivals once
//! full.

use gpu_sim::SimTime;
use std::collections::VecDeque;

/// A request tagged with its tenant priority class and SLO deadline —
/// the admission unit of the serving fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassedRequest {
    /// Request id (unique within a run).
    pub id: u64,
    /// Priority class index: `0` is the *highest* priority.
    pub class: usize,
    /// Simulated arrival time (ns).
    pub arrival_ns: SimTime,
    /// Absolute completion deadline (ns); [`SimTime::MAX`] for none.
    /// A queued request past its deadline is evicted rather than served.
    pub deadline_ns: SimTime,
}

/// Outcome of a [`ClassQueue::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was admitted; capacity was available.
    Admitted,
    /// The request was admitted by shedding a queued request of a
    /// strictly lower priority class (returned for accounting).
    Preempted(ClassedRequest),
    /// The queue was full of equal-or-higher-priority work; the request
    /// itself was shed (returned for accounting).
    Shed(ClassedRequest),
}

/// A bounded admission queue with per-class priority lanes.
///
/// Capacity is shared across classes. When full, an arriving request
/// preempts the *youngest* queued request of the *lowest* priority class
/// below its own — so under overload the best-effort lane drains first
/// and the premium lanes keep their capacity (shedding order). Waves pop
/// in `(class priority, FIFO)` order, and [`expire`](ClassQueue::expire)
/// evicts queued requests whose deadline has already passed.
#[derive(Debug, Clone)]
pub struct ClassQueue {
    /// `lanes[c]` holds class `c`'s waiting requests in arrival order.
    lanes: Vec<VecDeque<ClassedRequest>>,
    capacity: usize,
    len: usize,
    shed: usize,
    expired: usize,
}

impl ClassQueue {
    /// An empty queue with `num_classes` priority lanes sharing
    /// `capacity` slots.
    ///
    /// # Panics
    /// Panics if `num_classes` or `capacity` is zero.
    pub fn new(num_classes: usize, capacity: usize) -> Self {
        assert!(num_classes > 0, "need at least one priority class");
        assert!(capacity > 0, "queue capacity must be positive");
        ClassQueue {
            lanes: vec![VecDeque::new(); num_classes],
            capacity,
            len: 0,
            shed: 0,
            expired: 0,
        }
    }

    /// Admit a request, preempting lower-priority queued work when full.
    ///
    /// # Panics
    /// Panics if the request's class is outside the queue's lanes.
    pub fn admit(&mut self, r: ClassedRequest) -> Admission {
        assert!(
            r.class < self.lanes.len(),
            "class {} outside {} lanes",
            r.class,
            self.lanes.len()
        );
        if self.len < self.capacity {
            self.lanes[r.class].push_back(r);
            self.len += 1;
            return Admission::Admitted;
        }
        // Full: shed the youngest request of the lowest-priority
        // non-empty lane strictly below the newcomer's class.
        for lane in (r.class + 1..self.lanes.len()).rev() {
            if let Some(victim) = self.lanes[lane].pop_back() {
                self.shed += 1;
                self.lanes[r.class].push_back(r);
                return Admission::Preempted(victim);
            }
        }
        self.shed += 1;
        Admission::Shed(r)
    }

    /// Evict every queued request whose deadline has passed at `now`,
    /// returning them (oldest class lane first, FIFO within a lane) for
    /// SLO accounting.
    pub fn expire(&mut self, now: SimTime) -> Vec<ClassedRequest> {
        let mut evicted = Vec::new();
        for lane in &mut self.lanes {
            lane.retain(|r| {
                if r.deadline_ns <= now {
                    evicted.push(*r);
                    false
                } else {
                    true
                }
            });
        }
        self.len -= evicted.len();
        self.expired += evicted.len();
        evicted
    }

    /// Remove and return up to `n` requests: highest-priority lane first,
    /// arrival order within a lane. Call [`expire`](ClassQueue::expire)
    /// first so dead requests never occupy a wave slot.
    pub fn pop_wave(&mut self, n: usize) -> Vec<ClassedRequest> {
        let mut wave = Vec::with_capacity(n.min(self.len));
        for lane in &mut self.lanes {
            while wave.len() < n {
                match lane.pop_front() {
                    Some(r) => wave.push(r),
                    None => break,
                }
            }
        }
        self.len -= wave.len();
        wave
    }

    /// Arrival time of the oldest waiting request, if any (drives the
    /// batcher's delay trigger).
    pub fn oldest_arrival(&self) -> Option<SimTime> {
        self.lanes
            .iter()
            .filter_map(|l| l.front().map(|r| r.arrival_ns))
            .min()
    }

    /// Waiting requests across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no requests are waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of priority lanes.
    pub fn num_classes(&self) -> usize {
        self.lanes.len()
    }

    /// Shared capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests shed so far (at admission or by preemption).
    pub fn shed_count(&self) -> usize {
        self.shed
    }

    /// Requests evicted past their deadline so far.
    pub fn expired_count(&self) -> usize {
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn creq(id: u64, class: usize, t: u64) -> ClassedRequest {
        ClassedRequest {
            id,
            class,
            arrival_ns: t,
            deadline_ns: SimTime::MAX,
        }
    }

    #[test]
    fn sheds_when_full() {
        // One lane: arrivals beyond capacity are shed, never queued.
        let mut q = ClassQueue::new(1, 2);
        assert_eq!(q.admit(creq(0, 0, 10)), Admission::Admitted);
        assert_eq!(q.admit(creq(1, 0, 20)), Admission::Admitted);
        assert_eq!(q.admit(creq(2, 0, 30)), Admission::Shed(creq(2, 0, 30)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.shed_count(), 1);
        // Draining frees capacity again.
        q.pop_wave(1);
        assert_eq!(q.admit(creq(3, 0, 40)), Admission::Admitted);
        assert_eq!(q.shed_count(), 1);
        assert_eq!(
            q.pop_wave(8).iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 3]
        );
    }

    #[test]
    fn waves_pop_by_class_then_fifo() {
        let mut q = ClassQueue::new(3, 16);
        q.admit(creq(0, 2, 10));
        q.admit(creq(1, 0, 20));
        q.admit(creq(2, 1, 30));
        q.admit(creq(3, 0, 40));
        let wave = q.pop_wave(3);
        assert_eq!(wave.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 3, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_wave(8).iter().map(|r| r.id).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn full_queue_preempts_lowest_class_youngest_first() {
        let mut q = ClassQueue::new(3, 3);
        q.admit(creq(0, 1, 10));
        q.admit(creq(1, 2, 20));
        q.admit(creq(2, 2, 30));
        // Queue full. A class-0 arrival preempts the *youngest* class-2
        // request (id 2), not the older one.
        assert_eq!(
            q.admit(creq(3, 0, 40)),
            Admission::Preempted(creq(2, 2, 30))
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.shed_count(), 1);
        // Another class-0 arrival takes the remaining class-2 slot.
        assert_eq!(
            q.admit(creq(4, 0, 50)),
            Admission::Preempted(creq(1, 2, 20))
        );
        // Then the class-1 slot.
        assert_eq!(
            q.admit(creq(5, 0, 60)),
            Admission::Preempted(creq(0, 1, 10))
        );
        // With only class-0 work queued, a class-0 arrival is shed itself.
        assert_eq!(q.admit(creq(6, 0, 70)), Admission::Shed(creq(6, 0, 70)));
        // And a lower-class arrival can never displace higher-class work.
        assert_eq!(q.admit(creq(7, 2, 80)), Admission::Shed(creq(7, 2, 80)));
        assert_eq!(q.shed_count(), 5);
        assert_eq!(
            q.pop_wave(8).iter().map(|r| r.id).collect::<Vec<_>>(),
            [3, 4, 5]
        );
    }

    #[test]
    fn expiry_evicts_past_deadline_requests() {
        let mut q = ClassQueue::new(2, 8);
        q.admit(ClassedRequest {
            id: 0,
            class: 0,
            arrival_ns: 0,
            deadline_ns: 100,
        });
        q.admit(ClassedRequest {
            id: 1,
            class: 1,
            arrival_ns: 10,
            deadline_ns: 50,
        });
        q.admit(creq(2, 0, 20));
        assert_eq!(q.expire(40), vec![]);
        let dead = q.expire(100);
        assert_eq!(dead.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(q.expired_count(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_wave(4).iter().map(|r| r.id).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn oldest_arrival_spans_all_lanes() {
        let mut q = ClassQueue::new(2, 8);
        assert_eq!(q.oldest_arrival(), None);
        q.admit(creq(0, 1, 30));
        q.admit(creq(1, 0, 50));
        assert_eq!(q.oldest_arrival(), Some(30));
        q.pop_wave(1); // pops the class-0 request (id 1)
        assert_eq!(q.oldest_arrival(), Some(30));
    }
}
