//! Allocation probe for the discrete-event hot loop.
//!
//! The bar is stricter than the replay probe's sub-per-kernel bound:
//! once the device is warm (event-queue heap grown, kernel arena chunks
//! allocated, trace/cmd-log capacity reserved at launch time), the *event
//! loop itself* — `Device::run` after all launches are enqueued — must
//! perform **zero** heap allocations. Every event pops from the heap's
//! retained storage, every kernel runtime lives in a retained arena slot,
//! and every trace row lands in capacity that the launch path reserved up
//! front.
//!
//! Counting is per thread and off by default, so the tests running on
//! the harness's other threads, which share this binary's allocator,
//! cannot land in a probe's window.

use crate::common::counting_alloc;
use gpu_sim::{
    BufferId, ByteRange, CopyDesc, Device, DeviceProps, Dim3, Fabric, KernelCost, KernelDesc,
    LaunchConfig, LinkProps, MemAccess, StreamId,
};

fn kernel(i: u64, flops: f64) -> KernelDesc {
    KernelDesc::new(
        "steady",
        LaunchConfig::new(Dim3::linear(28), Dim3::linear(128), 32, 2048),
        KernelCost::new(flops, flops / 8.0),
    )
    .with_tag(i)
}

fn enqueue_episode(dev: &mut Device, pool: &[StreamId], kernels: u64) {
    for i in 0..kernels {
        // Vary the cost so completions spread over distinct timestamps
        // *and* collide (three cost classes across four streams).
        let flops = [4.0e5, 1.0e6, 2.5e6][(i % 3) as usize];
        dev.launch(pool[(i % pool.len() as u64) as usize], kernel(i, flops));
    }
}

/// Measured allocations of one episode's event loop (launches excluded).
fn episode_allocs(dev: &mut Device, pool: &[gpu_sim::StreamId], kernels: u64) -> (u64, u64) {
    enqueue_episode(dev, pool, kernels);
    let before = dev.events_processed();
    counting_alloc::start();
    dev.run();
    (counting_alloc::stop(), dev.events_processed() - before)
}

/// Run `episode` (which returns its event loop's allocation count) until
/// eight consecutive episodes allocate nothing, then return the counts of
/// three more. "Warm" is defined by observed quiescence, not an episode
/// count: every retained buffer must have reached its high-water mark.
/// The warm-up is bounded and deterministic.
fn steady_state_allocs(mut episode: impl FnMut() -> u64) -> [u64; 3] {
    let mut warm_episodes = 0;
    let mut quiet_streak = 0;
    while quiet_streak < 8 {
        let allocs = episode();
        quiet_streak = if allocs == 0 { quiet_streak + 1 } else { 0 };
        warm_episodes += 1;
        assert!(
            warm_episodes < 500,
            "event loop never quiesced \
             (last episode allocated {allocs} times)"
        );
    }
    [episode(), episode(), episode()]
}

/// Steady-state allocation counts of a single device's event loop, and
/// the per-episode event count.
fn measure_steady_state(kernels: u64) -> ([u64; 3], u64) {
    let mut dev = Device::new(DeviceProps::p100());
    let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
    let mut events = 0;
    let counts = steady_state_allocs(|| {
        let (allocs, ev) = episode_allocs(&mut dev, &pool, kernels);
        events = ev;
        allocs
    });
    (counts, events)
}

#[test]
fn warm_event_loop_is_allocation_free() {
    let (counts, events) = measure_steady_state(64);
    assert!(events > 64, "probe must actually process events");
    assert_eq!(
        counts,
        [0, 0, 0],
        "steady state must persist: {events} events per episode \
         must keep processing without touching the heap"
    );
}

#[test]
fn allocation_freedom_holds_at_scale() {
    // 10× the kernel count: the zero bound is per-episode, not merely
    // amortized growth that a bigger episode would expose.
    let (counts, events) = measure_steady_state(640);
    assert!(events > 640);
    assert_eq!(counts, [0, 0, 0]);
}

/// One multi-device episode: compute on every device plus three rounds of
/// a ring exchange (every device sends to its successor) on dedicated
/// communication streams, each receive followed by a kernel that
/// consumes it. Returns the allocations of `Fabric::run` alone —
/// enqueueing (host side) is excluded, as in the single-device probe.
fn fabric_episode_allocs(
    fabric: &mut Fabric,
    devs: &mut [&mut Device],
    compute: &[Vec<StreamId>],
    comm: &[StreamId],
) -> u64 {
    let n = devs.len();
    for (d, pool) in compute.iter().enumerate() {
        enqueue_episode(devs[d], pool, 24);
    }
    for round in 0..3u64 {
        for src in 0..n {
            let dst = (src + 1) % n;
            let mem = |buffer: u64| MemAccess {
                buffer: BufferId(buffer),
                range: ByteRange::new(0, 256 * 1024),
            };
            fabric
                .copy_p2p(
                    devs,
                    CopyDesc::new(
                        "xchg",
                        (src, comm[src], mem(round)),
                        (dst, comm[dst], mem(100 + round)),
                    ),
                )
                .expect("ring neighbours are linked");
            devs[dst].launch(comm[dst], kernel(round, 4.0e5));
        }
    }
    counting_alloc::start();
    fabric.run(devs);
    counting_alloc::stop()
}

/// Steady-state allocation counts of `Fabric::run` on a four-device ring
/// over `link`, and the fabric's episode-memo `(hits, misses)` over them.
fn fabric_steady_state(link: LinkProps) -> ([u64; 3], (u64, u64)) {
    let mut devices: Vec<Device> = (0..4).map(|_| Device::new(DeviceProps::p100())).collect();
    let compute: Vec<Vec<StreamId>> = devices
        .iter_mut()
        .map(|d| (0..2).map(|_| d.create_stream()).collect())
        .collect();
    let comm: Vec<StreamId> = devices.iter_mut().map(|d| d.create_stream()).collect();
    let mut fabric = Fabric::ring(4, link);
    let mut devs: Vec<&mut Device> = devices.iter_mut().collect();
    let mut warm =
        steady_state_allocs(|| fabric_episode_allocs(&mut fabric, &mut devs, &compute, &comm));
    let (hits, misses) = fabric.memo_stats();
    warm = warm.map(|_| fabric_episode_allocs(&mut fabric, &mut devs, &compute, &comm));
    let (h, m) = fabric.memo_stats();
    (warm, (h - hits, m - misses))
}

#[test]
fn warm_fabric_loop_is_allocation_free() {
    // The fabric's own state — the frontier, the ready-copy buffer, and
    // each device's copy bookkeeping (entries are removed as copies
    // complete, so the maps keep their capacity instead of growing) — is
    // recycled like the engine's, so once warm `Fabric::run` allocates
    // nothing either. The episode repeats, so the fabric's episode memo
    // applies it: building and comparing the key, proving the residue
    // programs from the bound and writing the recorded outcome allocate
    // nothing either, but for the pending-program list, which grows by one
    // entry per device and hit into capacity that doubles.
    let (counts, memo) = fabric_steady_state(LinkProps::nvlink());
    assert_eq!(counts, [0, 0, 0]);
    assert_eq!(memo, (3, 0), "every warm episode applies the recording");
}

#[test]
fn warm_simulated_fabric_loop_is_allocation_free() {
    // A jittered link keeps every episode on the simulation (the jitter
    // hashes copy ids), so this is the event loop itself.
    let (counts, memo) = fabric_steady_state(LinkProps::nvlink().with_jitter(50));
    assert_eq!(counts, [0, 0, 0]);
    assert_eq!(memo, (0, 3), "a jittered episode is simulated");
}
