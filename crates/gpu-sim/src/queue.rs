//! The engine's event queue: a binary min-heap with an explicit,
//! documented total order.
//!
//! # Ordering contract
//!
//! Every queued event carries an [`EventKey`] and events are delivered in
//! strictly ascending key order. The key compares lexicographically:
//!
//! 1. **`time`** — the simulated timestamp, ascending. The fundamental
//!    discrete-event invariant.
//! 2. **`stream`** — the raw id of the stream the event belongs to
//!    (the completing kernel's stream, the copy's source stream, or the
//!    copy's destination stream for arrivals), ascending.
//! 3. **`seq`** — the per-device push sequence number, ascending. `seq`
//!    is unique per device, so the order is total: no two events of one
//!    device ever compare equal, and delivery order is independent of
//!    the queue implementation.
//!
//! The tie-break is load-bearing: same-timestamp events are common
//! (equal-cost bursts retiring together, copies landing in lock-step)
//! and their processing order decides trace order, concurrency-slot
//! hand-off and block placement. It is pinned by a unit test below so a
//! field reordering cannot silently change simulation results.
//!
//! The heap's storage is retained across episodes (a pop never shrinks
//! it), so a steady-state workload reaches a high-water mark after which
//! push/pop allocate nothing — half of the engine's
//! zero-allocation-per-event budget (the other half is `crate::arena`).

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The explicit ordering key of a queued event. See the [module
/// docs](self) for the contract; comparison is derived lexicographic
/// order over `(time, stream, seq)` in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    /// Simulated timestamp (ns) the event fires at.
    pub time: SimTime,
    /// Raw id of the stream the event belongs to.
    pub stream: u32,
    /// Per-device push sequence number (unique; makes the order total).
    pub seq: u64,
}

/// A binary min-heap delivering `(EventKey, T)` pairs in ascending key
/// order. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

/// A queued event, ordered by its key alone and *reversed*, so the
/// standard library's max-heap pops the minimum key first.
#[derive(Debug)]
struct Entry<T>(EventKey, T);

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl<T> EventQueue<T> {
    /// An empty queue (allocates nothing until the first push).
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue an event. Keys may arrive in any order.
    pub(crate) fn push(&mut self, key: EventKey, value: T) {
        self.heap.push(Entry(key, value));
    }

    /// Remove and return the minimum-key event.
    pub(crate) fn pop(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|Entry(k, v)| (k, v))
    }

    /// The minimum key currently queued, without removing it.
    pub(crate) fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Entry(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time: SimTime, stream: u32, seq: u64) -> EventKey {
        EventKey { time, stream, seq }
    }

    /// Pins the documented tie-break: time, then stream, then seq. A
    /// field reordering in `EventKey` flips one of these assertions.
    #[test]
    fn event_key_orders_by_time_then_stream_then_seq() {
        // Time dominates, even against larger stream/seq.
        assert!(key(1, 9, 9) < key(2, 0, 0));
        // Same time: stream breaks the tie, even against a larger seq.
        assert!(key(5, 1, 9) < key(5, 2, 0));
        // Same time and stream: push order (seq) decides.
        assert!(key(5, 3, 7) < key(5, 3, 8));
        // Total order: unique seqs mean no two keys compare equal.
        assert_ne!(key(5, 3, 7), key(5, 3, 8));
    }

    /// A deterministic splitmix64 stream for test event generation.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// 1000 events at the *same* timestamp, pushed in scrambled order,
    /// pop in `(stream, seq)` order — the pinned tie-break of
    /// `EventKey`'s `Ord`.
    #[test]
    fn dense_same_timestamp_collisions_pop_in_tiebreak_order() {
        let mut q = EventQueue::new();
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut keys: Vec<EventKey> = (0..1000u64)
            .map(|seq| key(42, (mix(&mut rng) % 7) as u32, seq))
            .collect();
        // Shuffle by sort on a random tag, then push in that order.
        let mut tagged: Vec<(u64, EventKey)> = keys.iter().map(|&k| (mix(&mut rng), k)).collect();
        tagged.sort_unstable();
        for &(_, k) in &tagged {
            q.push(k, ());
        }
        keys.sort_unstable(); // expected pop order: (time, stream, seq)
        for expect in keys {
            assert_eq!(q.peek_key(), Some(expect));
            assert_eq!(q.pop(), Some((expect, ())));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Timestamps within one event of `SimTime::MAX` are ordinary keys: a
    /// queue that did arithmetic on them (rounding a time up to a bucket
    /// boundary, say) would overflow here.
    #[test]
    fn keys_at_the_end_of_time_pop_in_order() {
        let mut q = EventQueue::new();
        let keys = [
            key(SimTime::MAX, 0, 0),
            key(7, 1, 1),
            key(SimTime::MAX - 5, 0, 2),
            key(SimTime::MAX, 0, 3),
        ];
        for (i, &k) in keys.iter().enumerate() {
            q.push(k, i);
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        assert_eq!(q.peek_key(), Some(sorted[0]));
        let popped: Vec<EventKey> = std::iter::from_fn(|| q.pop().map(|(k, _)| k)).collect();
        assert_eq!(popped, sorted);
    }
}
