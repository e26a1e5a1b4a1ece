//! Differential equivalence for the event-queue swap.
//!
//! PR 10 replaces the engine's `BinaryHeap` event queue with a bucketed
//! calendar queue. The queues are interchangeable only if they agree on
//! *every* pop — including the tie-break between events that share a
//! timestamp, which decides trace order, stream hand-off and block
//! placement. These tests drive both implementations with the same
//! random inputs and demand identical output:
//!
//! - random key sets (with deliberately dense same-timestamp collisions)
//!   pop in the same order from [`CalendarQueue`] and [`HeapQueue`],
//!   under both drain-at-end and interleaved push/pop schedules;
//! - random single-device workloads produce byte-identical timelines
//!   whether the device runs on the calendar queue (default) or is
//!   switched to the reference heap with [`Device::use_heap_queue`].
#![recursion_limit = "256"]

use gpu_sim::{
    CalendarQueue, Device, DeviceProps, Dim3, EventKey, HeapQueue, KernelCost, KernelDesc,
    LaunchConfig, Timeline,
};
use proptest::prelude::*;

/// A kernel's observable execution record.
type TraceRow = (String, u64, u32, u64, u64);

fn timeline(dev: &Device) -> Vec<TraceRow> {
    dev.trace()
        .iter()
        .map(|t| {
            (
                t.name.to_string(),
                t.tag,
                t.stream.raw(),
                t.start_ns,
                t.end_ns,
            )
        })
        .collect()
}

/// Random keys biased toward collisions: timestamps are drawn from three
/// regimes (a handful of hot nanoseconds, one calendar year, far future)
/// so the same `(time)` and even `(time, stream)` repeat often. `seq` is
/// the push index — unique, as in the engine.
fn arb_keys() -> impl Strategy<Value = Vec<EventKey>> {
    prop::collection::vec((0u8..8, 0u64..1_000_000, 0u32..4), 0..400).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (regime, t, stream))| {
                let time = match regime {
                    0..=2 => t % 8,        // dense same-timestamp pileups
                    3 | 4 => t % 5_000,    // within one calendar bucket span
                    5 | 6 => t,            // across many buckets / years
                    _ => u64::MAX / 2 + t, // far-future overflow list
                };
                EventKey {
                    time,
                    stream,
                    seq: i as u64,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drain-at-end: push everything, then pop everything. The two
    /// queues must emit the exact same key sequence.
    #[test]
    fn calendar_drains_in_heap_order(keys in arb_keys()) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for &k in &keys {
            cal.push(k, k.seq);
            heap.push(k, k.seq);
        }
        prop_assert_eq!(cal.len(), heap.len());
        loop {
            prop_assert_eq!(cal.peek_key(), heap.peek_key());
            match (cal.pop(), heap.pop()) {
                (None, None) => break,
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Interleaved schedule: alternate batches of pushes with bursts of
    /// pops, as the engine does (pop one event, push its successors).
    /// Both queues must agree at every intermediate step.
    #[test]
    fn calendar_matches_heap_under_interleaving(
        rounds in prop::collection::vec((arb_keys(), 0usize..64), 1..8)
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut next_seq = 0u64;
        for (batch, pops) in rounds {
            for mut k in batch {
                // Re-number so seq stays globally unique across rounds.
                k.seq = next_seq;
                next_seq += 1;
                cal.push(k, k.seq);
                heap.push(k, k.seq);
            }
            for _ in 0..pops {
                prop_assert_eq!(cal.peek_key(), heap.peek_key());
                prop_assert_eq!(cal.pop(), heap.pop());
            }
        }
        while !heap.is_empty() {
            prop_assert_eq!(cal.pop(), heap.pop());
        }
        prop_assert!(cal.is_empty());
    }

    /// Peeking is the first half of popping: it settles the calendar's
    /// cursor on the minimum's day. With only far-future keys queued that
    /// is a jump of many years — and keys pushed afterwards, all earlier
    /// than the cursor, must still pop first and in heap order, with
    /// `peek_key` agreeing before every pop.
    #[test]
    fn peek_jumps_the_cursor_then_earlier_keys_still_pop_first(
        far in prop::collection::vec((0u64..1_000_000, 0u32..4), 1..40),
        early in arb_keys(),
        late in arb_keys(),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut next_seq = 0u64;
        let mut push = |cal: &mut CalendarQueue<u64>, heap: &mut HeapQueue<u64>, mut k: EventKey| {
            k.seq = next_seq;
            next_seq += 1;
            cal.push(k, k.seq);
            heap.push(k, k.seq);
        };
        for (t, stream) in far {
            let time = 1_000_000_000 + t * 997;
            push(&mut cal, &mut heap, EventKey { time, stream, seq: 0 });
        }
        prop_assert_eq!(cal.peek_key(), heap.peek_key());
        for k in early {
            push(&mut cal, &mut heap, k);
        }
        // Pop half, peek again (the cursor may jump back out to the far
        // keys), then push a second batch behind the cursor.
        for _ in 0..heap.len() / 2 {
            prop_assert_eq!(cal.peek_key(), heap.peek_key());
            prop_assert_eq!(cal.pop(), heap.pop());
        }
        prop_assert_eq!(cal.peek_key(), heap.peek_key());
        for k in late {
            push(&mut cal, &mut heap, k);
        }
        while !heap.is_empty() {
            prop_assert_eq!(cal.peek_key(), heap.peek_key());
            prop_assert_eq!(cal.pop(), heap.pop());
        }
        prop_assert_eq!(cal.peek_key(), None);
        prop_assert!(cal.is_empty());
    }
}

/// 1000 events at the *same* timestamp pop in `(stream, seq)` order from
/// both queues — the pinned tie-break of `EventKey`'s `Ord`.
#[test]
fn dense_same_timestamp_collisions_pop_in_tiebreak_order() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    // splitmix64 scramble so push order is unrelated to pop order.
    let mut z = 0x1234_5678_9abc_def0u64;
    let mut mix = move || {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let mut keys: Vec<EventKey> = (0..1000u64)
        .map(|seq| EventKey {
            time: 42,
            stream: (mix() % 7) as u32,
            seq,
        })
        .collect();
    // Shuffle by sort on a random tag, then push in that scrambled order.
    let mut tagged: Vec<(u64, EventKey)> = keys.iter().map(|&k| (mix(), k)).collect();
    tagged.sort_unstable();
    for &(_, k) in &tagged {
        cal.push(k, ());
        heap.push(k, ());
    }
    keys.sort_unstable(); // expected pop order: (time, stream, seq)
    for expect in keys {
        assert_eq!(cal.pop(), Some((expect, ())));
        assert_eq!(heap.pop(), Some((expect, ())));
    }
    assert!(cal.is_empty() && heap.is_empty());
}

// ----- whole-device differential: calendar vs heap timelines -----------

fn arb_device() -> impl Strategy<Value = DeviceProps> {
    prop::sample::select(vec![
        DeviceProps::k40c(),
        DeviceProps::p100(),
        DeviceProps::titan_xp(),
    ])
}

/// Random workload: `n` kernels sprayed over `streams` streams. Costs are
/// drawn from a tiny set so many kernels are *identical* — identical
/// kernels on sibling streams finish at identical timestamps, which is
/// exactly the same-time collision the tie-break must resolve.
fn arb_workload() -> impl Strategy<Value = (usize, Vec<(usize, u8, u8)>)> {
    (
        1usize..5,
        prop::collection::vec((0usize..4, 0u8..3, 0u8..3), 1..40),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same workload on the calendar queue and on the reference heap
    /// yields byte-identical timelines.
    #[test]
    fn device_timeline_is_queue_invariant(
        props in arb_device(),
        workload in arb_workload(),
    ) {
        let (num_streams, kernels) = workload;
        let run = |use_heap: bool| -> (Vec<TraceRow>, String, u64) {
            let mut dev = Device::new(props.clone());
            if use_heap {
                dev.use_heap_queue();
            }
            let pool: Vec<_> = (0..num_streams).map(|_| dev.create_stream()).collect();
            for (i, &(s, shape, cost)) in kernels.iter().enumerate() {
                let blocks = [8u32, 28, 96][shape as usize];
                let flops = [1.0e5, 1.0e6, 4.0e6][cost as usize];
                let k = KernelDesc::new(
                    &format!("k{shape}c{cost}"),
                    LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(128), 32, 2048),
                    KernelCost::new(flops, flops / 8.0),
                )
                .with_tag(i as u64);
                dev.launch(pool[s % pool.len()], k);
            }
            let end = dev.run();
            let csv = Timeline::new(dev.trace()).render_csv();
            (timeline(&dev), csv, end)
        };
        let (cal_rows, cal_csv, cal_end) = run(false);
        let (heap_rows, heap_csv, heap_end) = run(true);
        prop_assert_eq!(cal_rows, heap_rows);
        prop_assert_eq!(cal_csv, heap_csv);
        prop_assert_eq!(cal_end, heap_end);
    }
}
