//! Hostile mixes for the engine's incremental block dispatcher.
//!
//! The dispatcher relies on one invariant — after a dispatch, no active
//! kernel with unplaced blocks fits on any SM — to offer a kernel only
//! the SM an event just freed. In debug builds (this test's profile) the
//! engine asserts, at the moment it skips an SM, that the kernel really
//! does not fit there, so every run below is a differential test against
//! the full rescan the dispatcher replaced. The property test throws
//! awkward devices and footprints at it; the two fixed cases pin the
//! situations the incremental path could plausibly get wrong, with
//! expected times worked out by hand from the burst-duration formula.

use gpu_sim::{Arch, Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};
use proptest::prelude::*;

fn with_sms(mut props: DeviceProps, num_sms: u32) -> DeviceProps {
    props.num_sms = num_sms;
    props
}

fn with_arch(mut props: DeviceProps, arch: Arch) -> DeviceProps {
    props.arch = arch;
    props
}

fn arb_device() -> impl Strategy<Value = DeviceProps> {
    // Any block above 24 KiB of shared memory is alone on its SM.
    let mut starved = DeviceProps::p100();
    starved.smem_per_sm = 48 * 1024;
    prop::sample::select(vec![
        DeviceProps::k40c(),
        DeviceProps::p100(),
        DeviceProps::titan_xp(),
        with_sms(DeviceProps::p100(), 1),
        with_arch(DeviceProps::p100(), Arch::Tesla), // C = 1
        starved,
    ])
}

/// One launch plus an optional cross-stream edge issued right after it.
#[derive(Debug, Clone)]
struct Op {
    stream: usize,
    blocks: u32,
    threads: u32,
    smem: u32,
    regs: u32,
    cost: usize,
    /// `(kind, stream, pick)`: kind 0 records an event on this op's
    /// stream, kind 1 makes `stream` wait for the `pick`-th event recorded
    /// so far, anything else issues no edge.
    edge: (u8, usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0usize..8,
        1u32..=5_000,
        32u32..=1024,
        0u32..=48 * 1024,
        16u32..=64,
        0usize..3,
        (0u8..5, 0usize..8, 0usize..64),
    )
        .prop_map(|(stream, blocks, threads, smem, regs, cost, edge)| Op {
            stream,
            blocks,
            threads,
            smem,
            regs,
            cost,
            edge,
        })
}

/// Issue `ops` and run to completion; `(start_ns, end_ns)` per kernel in
/// completion order, plus the number of events processed.
fn run_mix(
    props: &DeviceProps,
    streams: usize,
    ops: &[Op],
    use_heap: bool,
) -> (Vec<(u64, u64)>, u64) {
    let mut dev = Device::new(props.clone());
    if use_heap {
        dev.use_heap_queue();
    }
    let pool: Vec<_> = (0..streams).map(|_| dev.create_stream()).collect();
    let mut recorded = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // Few cost classes, so same-time completions are common.
        let (flops, bytes) = [(2.0e4, 0.0), (3.0e5, 6.0e4), (5.0e4, 4.0e5)][op.cost];
        let k = KernelDesc::new(
            "k",
            LaunchConfig::new(
                Dim3::linear(op.blocks),
                Dim3::linear(op.threads),
                op.regs,
                op.smem,
            ),
            KernelCost::new(flops, bytes),
        )
        .with_tag(i as u64);
        let stream = pool[op.stream % streams];
        dev.launch(stream, k);
        match op.edge {
            (0, ..) => {
                let ev = dev.create_event();
                dev.record_event(stream, ev);
                recorded.push(ev);
            }
            // A wait only names an event recorded earlier in issue order,
            // so every dependency points backwards: no cycle.
            (1, waiter, pick) if !recorded.is_empty() => {
                dev.wait_event(pool[waiter % streams], recorded[pick % recorded.len()]);
            }
            _ => {}
        }
    }
    dev.run();
    let spans = dev.trace().iter().map(|t| (t.start_ns, t.end_ns)).collect();
    (spans, dev.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every mix drains, completes every launch, and is queue-invariant —
    /// with the engine's skip-time assertion live throughout.
    #[test]
    fn hostile_mixes_drain_identically_on_both_queues(
        props in arb_device(),
        streams in 1usize..=8,
        ops in prop::collection::vec(arb_op(), 1..=24),
    ) {
        let (calendar, cal_events) = run_mix(&props, streams, &ops, false);
        let (heap, heap_events) = run_mix(&props, streams, &ops, true);
        prop_assert_eq!(calendar.len(), ops.len());
        prop_assert!(calendar.iter().all(|&(start, end)| start < end));
        prop_assert_eq!(calendar, heap);
        prop_assert_eq!(cal_events, heap_events);
    }
}

/// The engine's burst duration for a compute-only block of `w_block`
/// warps placed on an SM then holding `w_total` resident warps
/// (`engine.rs`, "residency-aware burst duration").
fn burst_ns(props: &DeviceProps, flops: f64, w_block: u32, w_total: u32) -> u64 {
    let rate = props.sm_peak_flops() * w_block as f64 / w_total.max(props.warps_for_peak) as f64;
    (flops / rate * 1e9 + 1000.0).ceil() as u64
}

fn compute_kernel(name: &str, blocks: u32, threads: u32, smem: u32, flops: f64) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), 16, smem),
        KernelCost::new(flops, 0.0),
    )
}

/// (a) An SM frees while two active kernels have unplaced blocks. The
/// earlier one is shared-memory-bound and still does not fit there; the
/// later one does, and must get the SM in that same event.
#[test]
fn freed_sm_goes_to_the_later_kernel_when_the_earlier_does_not_fit() {
    let props = with_sms(DeviceProps::p100(), 2); // 2048 threads, 64 KiB smem per SM
    let mut dev = Device::new(props.clone());
    let s: Vec<_> = (0..3).map(|_| dev.create_stream()).collect();
    // 40 KiB per block: one per SM, three blocks left over, ~0.2 ms each.
    let fat = dev.launch(s[0], compute_kernel("fat", 5, 256, 40 * 1024, 2.0e7));
    // Seven per SM fill the remaining 1792 threads of both SMs.
    let filler = dev.launch(s[1], compute_kernel("filler", 14, 256, 0, 1.0e6));
    // Activated with every SM thread-full: nothing placed at first.
    let thin = dev.launch(s[2], compute_kernel("thin", 8, 256, 0, 1.0e6));
    dev.run();

    let launch = props.launch_overhead_ns;
    let (fat_start, fat_end) = dev.kernel_span(fat).unwrap();
    let (filler_start, filler_end) = dev.kernel_span(filler).unwrap();
    let (thin_start, thin_end) = dev.kernel_span(thin).unwrap();
    assert_eq!(fat_start, launch);
    assert_eq!(filler_start, 2 * launch);
    // Filler: 8-warp blocks on SMs holding 8 + 7·8 = 64 warps.
    assert_eq!(filler_end, filler_start + burst_ns(&props, 1.0e6, 8, 64));
    // Both filler bursts retire at `filler_end`. The first frees SM 0:
    // fat (earlier, three blocks unplaced) needs 40 KiB next to its own
    // 40 KiB and is passed over; thin takes seven blocks there and its
    // eighth on SM 1 when the second burst retires in the next event.
    assert_eq!(thin_start, filler_end);
    assert_eq!(thin_end, thin_start + burst_ns(&props, 1.0e6, 8, 64));
    // Fat's blocks run one per SM, back to back: 2 + 2 + 1.
    assert!(fat_end > thin_end);
    assert!(fat_end >= fat_start + 3 * burst_ns(&props, 2.0e7, 8, 8));
}

/// (b) A completion promotes a pending kernel. In that one event the
/// promoted kernel is offered every SM while the older active kernel with
/// unplaced blocks is offered only the SM that was freed (where it does
/// not fit).
#[test]
fn promoted_kernel_is_offered_every_sm_in_the_promoting_event() {
    let props = with_arch(with_sms(DeviceProps::p100(), 4), Arch::Fermi);
    assert_eq!(props.concurrency_degree(), 16);
    let mut dev = Device::new(props.clone());
    let s: Vec<_> = (0..17).map(|_| dev.create_stream()).collect();
    // Slot 1: two warps alone on SM 0 when placed, ~197 µs.
    let door = dev.launch(s[0], compute_kernel("door", 1, 64, 0, 5.0e6));
    // Slot 2: shared-memory-bound, one 8-warp block per SM, four unplaced.
    let fat = dev.launch(s[1], compute_kernel("fat", 8, 256, 40 * 1024, 1.0e9));
    // Slots 3–16: one-warp kernels that outlive everything; the rotation
    // starts at SM 0, so all fourteen land there.
    for stream in &s[2..16] {
        dev.launch(*stream, compute_kernel("slot", 1, 32, 0, 1.0e8));
    }
    // The seventeenth launch finds all 16 slots taken and goes pending.
    let late = dev.launch(s[16], compute_kernel("late", 4, 512, 0, 1.0e7));
    dev.run();

    let launch = props.launch_overhead_ns;
    let (door_start, door_end) = dev.kernel_span(door).unwrap();
    let (late_start, late_end) = dev.kernel_span(late).unwrap();
    assert_eq!(door_start, launch);
    assert_eq!(door_end, door_start + burst_ns(&props, 5.0e6, 2, 2));
    assert!(
        door_end > 17 * launch,
        "late must be issued while door runs"
    );
    // Door's only burst frees SM 0 and completes it, promoting `late`.
    // Fat is offered SM 0 alone and does not fit beside its own block;
    // late spreads one 16-warp block over each of the four SMs. The
    // slowest sits on SM 0 with fat's 8 warps and the 14 slot warps.
    assert_eq!(late_start, door_end);
    assert_eq!(
        late_end,
        late_start + burst_ns(&props, 1.0e7, 16, 8 + 14 + 16)
    );
    // Offered only the freed SM, all four blocks would have shared SM 0.
    assert!(late_end < late_start + burst_ns(&props, 1.0e7, 16, 8 + 14 + 4 * 16));
    assert!(dev.kernel_span(fat).unwrap().1 > late_end);
}
