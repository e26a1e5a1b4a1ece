//! The engine's event queue: a bucketed **calendar queue** with an
//! explicit, documented total order, plus the binary-heap baseline it
//! replaced (kept as the reference arm for differential tests).
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
//! # Calendar queue
//!
//! [`CalendarQueue`] is a classic Brown-style calendar: a ring of
//! `num_buckets` buckets, each `bucket_width` nanoseconds wide, covering
//! one "year" of simulated time from the queue's current position. An
//! event lands in the bucket of its timestamp's day; events beyond the
//! current year wait in an overflow min-heap that is drained into the
//! ring as the cursor advances. The cursor's own day lives in a small
//! min-heap, so a pop is O(log day) — with days orders of magnitude
//! smaller than the queue — and otherwise jumps the cursor straight to
//! the earliest populated day: the next non-empty ring bucket or the
//! earliest overflow day, whichever comes first. Peeking is the first
//! half of popping: both first *settle* the cursor on the minimum's day,
//! so a peek is never a separate scan that the following pop repeats.
//! The ring doubles when occupancy exceeds `GROW_FACTOR` events per
//! bucket, keeping each day small.
//!
//! Bucket storage is recycled (`clear`, never shrink), so a steady-state
//! workload reaches a high-water mark after which push/pop allocate
//! nothing — half of the engine's zero-allocation-per-event budget (the
//! other half is [`crate::arena`]).

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The explicit ordering key of a queued event. See the [module
/// docs](self) for the contract; comparison is derived lexicographic
/// order over `(time, stream, seq)` in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulated timestamp (ns) the event fires at.
    pub time: SimTime,
    /// Raw id of the stream the event belongs to.
    pub stream: u32,
    /// Per-device push sequence number (unique; makes the order total).
    pub seq: u64,
}

/// Initial number of buckets (power of two).
const INIT_BUCKETS: usize = 64;
/// Bucket width in ns (power of two). Burst durations have a ~1 µs floor
/// (block overhead) and link latencies are 0.7–1.3 µs, so a 4 µs day
/// keeps a handful of events per bucket on real workloads.
const BUCKET_WIDTH: SimTime = 4096;
/// Double the ring when average occupancy exceeds this many events per
/// bucket.
const GROW_FACTOR: usize = 8;
/// Capacity pre-reserved in every bucket. The cursor sweeps forward with
/// absolute simulated time, so without a reserve each freshly-visited
/// day would take a first-touch heap allocation even on a warm queue;
/// pre-sizing above `GROW_FACTOR` (the ring doubles past that average
/// occupancy) keeps the steady-state push/pop loop allocation-free.
const BUCKET_RESERVE: usize = 2 * GROW_FACTOR;

/// A bucketed calendar queue delivering `(EventKey, T)` pairs in
/// ascending key order. See the [module docs](self).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The ring: bucket `i` holds the events of future day `i` of the
    /// current year (unsorted; pops scan for the minimum). The cursor's
    /// own day never lives here — see [`today`](Self::today).
    buckets: Vec<Vec<(EventKey, T)>>,
    /// Events of the cursor's day and earlier, as a min-heap: the day's
    /// events pop in O(log day) instead of a linear rescan per pop
    /// (dense days hold hundreds of events on bursty workloads), and
    /// the queue minimum is an O(1) peek. A single persistent heap
    /// rather than a rotating ring slot: the launch burst of an episode
    /// always lands at ~now, so keeping "now" in one reused allocation
    /// lets its capacity high-water mark survive ring rotation (a
    /// rotating slot would take a first-touch allocation on every fresh
    /// day index).
    today: BinaryHeap<Reverse<HeapEntry<T>>>,
    /// Events beyond the current year, held in a min-heap so the next
    /// overflow time is O(1) to consult and year advances drain only the
    /// prefix that became in-year. (A flat list would be rescanned in
    /// full on every cursor jump — quadratic on sparse timelines such as
    /// serving traces, where almost everything sits beyond the year.)
    overflow: BinaryHeap<Reverse<HeapEntry<T>>>,
    /// Day index the cursor is on.
    cur: usize,
    /// Start time of the cursor's day (aligned to `BUCKET_WIDTH`).
    day_start: SimTime,
    /// Total queued events (today + ring + overflow).
    len: usize,
    /// Events in ring buckets (excluding `today` and `overflow`).
    in_ring: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue positioned at time 0.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INIT_BUCKETS)
                .map(|_| Vec::with_capacity(BUCKET_RESERVE))
                .collect(),
            today: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur: 0,
            day_start: 0,
            len: 0,
            in_ring: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One year: the span the ring covers.
    fn year(&self) -> SimTime {
        BUCKET_WIDTH * self.buckets.len() as SimTime
    }

    /// The bucket index of an in-year timestamp.
    fn day_of(&self, time: SimTime) -> usize {
        ((time / BUCKET_WIDTH) as usize) & (self.buckets.len() - 1)
    }

    /// Queue an event. Keys may arrive in any order (including before
    /// the cursor — such events simply pop first).
    pub fn push(&mut self, key: EventKey, value: T) {
        self.len += 1;
        if key.time >= self.day_start + self.year() {
            self.overflow.push(Reverse(HeapEntry(key, value)));
            return;
        }
        // Past-cursor events join the cursor's day: they are consulted
        // first and the heap orders them by full key.
        if key.time < self.day_start + BUCKET_WIDTH {
            self.today.push(Reverse(HeapEntry(key, value)));
        } else {
            let day = self.day_of(key.time);
            self.buckets[day].push((key, value));
            self.in_ring += 1;
        }
        if self.len > GROW_FACTOR * self.buckets.len() {
            self.grow();
        }
    }

    /// Double the ring and re-bucket everything (amortized by the
    /// doubling; bucket capacity is retained).
    fn grow(&mut self) {
        let new_n = self.buckets.len() * 2;
        let mut all: Vec<(EventKey, T)> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.append(b);
        }
        all.extend(self.today.drain().map(|Reverse(HeapEntry(k, v))| (k, v)));
        all.extend(self.overflow.drain().map(|Reverse(HeapEntry(k, v))| (k, v)));
        self.buckets
            .resize_with(new_n, || Vec::with_capacity(BUCKET_RESERVE));
        self.in_ring = 0;
        let n = all.len();
        self.cur = self.day_of(self.day_start);
        for (key, value) in all {
            self.len -= 1; // push re-counts
            self.push(key, value);
        }
        debug_assert_eq!(self.len, n);
    }

    /// Move overflow events that now fall inside the current year into
    /// the ring (or `today`). Pops only the in-year prefix of the
    /// min-heap, so the cost is proportional to what actually moves.
    fn drain_overflow(&mut self) {
        let horizon = self.day_start + self.year();
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(HeapEntry(k, _))| k.time < horizon)
        {
            let Some(Reverse(HeapEntry(key, value))) = self.overflow.pop() else {
                unreachable!("peek just succeeded");
            };
            if key.time < self.day_start + BUCKET_WIDTH {
                self.today.push(Reverse(HeapEntry(key, value)));
            } else {
                let day = self.day_of(key.time);
                self.buckets[day].push((key, value));
                self.in_ring += 1;
            }
        }
    }

    /// Make the queue minimum the top of `today` (the first half of a
    /// pop, shared with [`peek_key`](Self::peek_key)). `today` holds only
    /// events of the cursor's day and earlier, and everything in the ring
    /// and overflow is at least a day later, so there is nothing to do
    /// while it has events. When it is dry, jump straight to the earliest
    /// populated day — the next non-empty ring bucket or the earliest
    /// overflow day, whichever comes first — promote that day's bucket
    /// into `today` and admit the overflow events that now fit in the
    /// year. (Walking day by day would rescan the overflow list at every
    /// crossing, which is quadratic on sparse timelines like serving
    /// traces.) Ring events all predate every overflow event *filed under
    /// the current cursor position*, but overflow events may have become
    /// in-year as the cursor advanced, so the jump target must consider
    /// both. Moving the cursor early is invisible to callers:
    /// [`push`](Self::push) files any key before the end of the cursor's
    /// day into `today`, so pop order is the total [`EventKey`] order
    /// wherever the cursor stands.
    fn settle(&mut self) {
        while self.today.is_empty() && self.len > 0 {
            let mask = self.buckets.len() - 1;
            let ring_day = (self.in_ring > 0).then(|| {
                let mut d = 1;
                while self.buckets[(self.cur + d) & mask].is_empty() {
                    d += 1;
                }
                self.day_start + d as SimTime * BUCKET_WIDTH
            });
            let over_day = self
                .overflow
                .peek()
                .map(|Reverse(HeapEntry(k, _))| k.time / BUCKET_WIDTH * BUCKET_WIDTH);
            self.day_start = match (ring_day, over_day) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a
                    .or(b)
                    .expect("len > 0 with empty today implies ring or overflow"),
            };
            self.cur = self.day_of(self.day_start);
            self.in_ring -= self.buckets[self.cur].len();
            let mut bucket = std::mem::take(&mut self.buckets[self.cur]);
            self.today
                .extend(bucket.drain(..).map(|(k, v)| Reverse(HeapEntry(k, v))));
            self.buckets[self.cur] = bucket;
            if !self.overflow.is_empty() {
                self.drain_overflow();
            }
        }
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.settle();
        let Reverse(HeapEntry(key, value)) = self.today.pop()?;
        self.len -= 1;
        Some((key, value))
    }

    /// The minimum key currently queued, without removing it: the first
    /// half of a [`pop`](Self::pop). It moves the cursor to the minimum's
    /// day, so the pop that follows — or the next peek — finds `today`
    /// populated and is O(1); the fabric peeks every device it steps.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.settle();
        self.today.peek().map(|Reverse(HeapEntry(k, _))| *k)
    }
}

/// The pre-calendar event queue: a binary min-heap over the same
/// [`EventKey`] order. Kept as the differential-testing baseline — the
/// `queue_equivalence` proptest pops random event sets from both
/// implementations and asserts identical order, and the engine can be
/// switched onto it (`Device::use_heap_queue`) to replay whole
/// workloads under the old queue.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

#[derive(Debug)]
struct HeapEntry<T>(EventKey, T);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue an event.
    pub fn push(&mut self, key: EventKey, value: T) {
        self.heap.push(Reverse(HeapEntry(key, value)));
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|Reverse(HeapEntry(k, v))| (k, v))
    }

    /// The minimum key currently queued.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(HeapEntry(k, _))| *k)
    }
}

/// The engine's queue: the calendar fast path, or the heap baseline for
/// differential runs. Enum dispatch keeps the hot loop monomorphic.
#[derive(Debug)]
pub enum EventQueue<T> {
    /// The bucketed calendar queue (default).
    Calendar(CalendarQueue<T>),
    /// The binary-heap baseline.
    Heap(HeapQueue<T>),
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::Calendar(CalendarQueue::new())
    }
}

impl<T> EventQueue<T> {
    /// Number of queued events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Heap(q) => q.len(),
        }
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue an event.
    pub fn push(&mut self, key: EventKey, value: T) {
        match self {
            EventQueue::Calendar(q) => q.push(key, value),
            EventQueue::Heap(q) => q.push(key, value),
        }
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Heap(q) => q.pop(),
        }
    }

    /// The minimum key currently queued (`&mut`: the calendar settles
    /// its cursor on the minimum's day).
    pub fn peek_key(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Calendar(q) => q.peek_key(),
            EventQueue::Heap(q) => q.peek_key(),
        }
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

    #[test]
    fn calendar_matches_heap_on_mixed_push_pop() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = 42u64;
        let mut seq = 0u64;
        // Interleave pushes (with dense same-time collisions and far-future
        // outliers) and pops, comparing every pop.
        for round in 0..200 {
            for _ in 0..(mix(&mut rng) % 8) {
                seq += 1;
                let time = match mix(&mut rng) % 4 {
                    0 => 1000 * round,                    // dense collisions
                    1 => mix(&mut rng) % 10_000,          // near past/present
                    2 => 1_000_000 + mix(&mut rng) % 100, // mid future
                    _ => mix(&mut rng) % 4_000_000_000,   // far future
                };
                let k = key(time, (mix(&mut rng) % 5) as u32, seq);
                cal.push(k, seq);
                heap.push(k, seq);
            }
            for _ in 0..(mix(&mut rng) % 6) {
                assert_eq!(cal.pop(), heap.pop());
                assert_eq!(cal.peek_key(), heap.peek_key());
            }
            assert_eq!(cal.len(), heap.len());
        }
        while !heap.is_empty() {
            assert_eq!(cal.pop(), heap.pop());
        }
        assert!(cal.is_empty());
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn calendar_handles_year_jumps_and_growth() {
        let mut q = CalendarQueue::new();
        // Far-apart years force overflow re-bucketing and cursor jumps.
        let times = [0u64, 5_000_000_000, 1_000, 9_999_999_999, 2_500_000];
        for (i, &t) in times.iter().enumerate() {
            q.push(key(t, 0, i as u64), i);
        }
        // Enough same-day events to trigger ring growth.
        for i in 0..1024u64 {
            q.push(key(100, 1, 100 + i), 0);
        }
        let mut last = None;
        let mut n = 0;
        while let Some((k, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(prev < k, "pop order must strictly ascend");
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, times.len() + 1024);
    }
}
