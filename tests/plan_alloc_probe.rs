//! Allocation probe for the replay hot path.
//!
//! The acceptance bar for capture-once / replay-many: a warm replay's
//! issue loop performs no per-kernel heap allocation — kernel descriptors
//! are shared `Arc`s, round-robin plans need zero events, and the
//! device's internal queues are amortized. The shared counting allocator
//! (`tests/common/counting_alloc.rs`) measures the issue phase of a warm
//! replay and the tests assert the allocation count stays below the
//! kernel count (i.e. strictly sub-per-kernel; the handful that remain
//! are amortized `Vec` growth inside the simulator).
//!
//! The same bound holds for a whole warm replay that the device's replay
//! memo applies instead of simulating: copying the recorded outcome into
//! the device's logs allocates only when they outgrow their capacity.
//!
//! Telemetry must not change that: with no recorder attached — including
//! after one was attached and detached again — the instrumentation is a
//! `None` check and the same sub-per-kernel bound holds.
//!
//! Counting is per thread and off by default, so the tests running on
//! the harness's other threads, which share this binary's allocator,
//! cannot land in a probe's window.

use crate::common::counting_alloc;
use glp4nn::{ExecMode, ExecPlan};
use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};

fn groups(n: u64, chain: usize) -> Vec<Vec<KernelDesc>> {
    (0..n)
        .map(|i| {
            (0..chain)
                .map(|c| {
                    KernelDesc::new(
                        &format!("k{c}"),
                        LaunchConfig::new(Dim3::linear(16), Dim3::linear(128), 32, 2048),
                        KernelCost::new(1.0e6, 1.0e5),
                    )
                    .with_tag(i)
                })
                .collect()
        })
        .collect()
}

/// Warm `plan` on `dev`, then measure the allocations of one issue pass.
fn warm_issue_allocs(plan: &ExecPlan, dev: &mut Device) -> u64 {
    // Warm up: two full replays grow every device-internal Vec past the
    // per-iteration watermark.
    plan.replay(dev);
    plan.replay(dev);

    counting_alloc::start();
    plan.issue(dev);
    let issue_allocs = counting_alloc::stop();
    dev.run();
    issue_allocs
}

#[test]
fn warm_replay_issue_loop_is_sub_per_kernel_allocation() {
    let mut dev = Device::new(DeviceProps::p100());
    let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
    let g = groups(16, 4); // 64 kernels per iteration
    let plan = ExecPlan::capture_round_robin(
        "alloc-probe",
        &g,
        &pool,
        ExecMode::Concurrent { streams: 4 },
    );
    assert_eq!(plan.num_kernels(), 64);

    let issue_allocs = warm_issue_allocs(&plan, &mut dev);
    assert!(
        issue_allocs < plan.num_kernels() as u64,
        "warm replay issued {} kernels with {} allocations — \
         the issue loop must be sub-per-kernel",
        plan.num_kernels(),
        issue_allocs
    );
}

#[test]
fn warm_memo_hit_replay_is_sub_per_kernel_allocation() {
    // A plan's third replay on an idle device applies the outcome its
    // second recorded: no issue, no simulation, and the device's logs
    // grow by amortized doubling only.
    let mut dev = Device::new(DeviceProps::p100());
    let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
    let g = groups(16, 4);
    let plan = ExecPlan::capture_round_robin(
        "alloc-probe-memo",
        &g,
        &pool,
        ExecMode::Concurrent { streams: 4 },
    );
    for _ in 0..3 {
        plan.replay(&mut dev);
    }
    let (hits, misses) = dev.memo_stats();

    counting_alloc::start();
    plan.replay(&mut dev);
    let replay_allocs = counting_alloc::stop();
    assert_eq!(dev.memo_stats(), (hits + 1, misses), "the replay was a hit");
    assert!(
        replay_allocs < plan.num_kernels() as u64,
        "a memo-hit replay of {} kernels made {} allocations — \
         applying a recorded outcome must be sub-per-kernel",
        plan.num_kernels(),
        replay_allocs
    );
}

#[test]
fn telemetry_off_path_keeps_replay_sub_per_kernel() {
    // Attach a recorder (so spans really record), then detach — the
    // device must return to the zero-cost off-path: the warm issue loop
    // stays strictly sub-per-kernel, exactly as if telemetry had never
    // existed.
    let mut dev = Device::new(DeviceProps::p100());
    let pool: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
    let g = groups(16, 4);
    let plan = ExecPlan::capture_round_robin(
        "alloc-probe-tel",
        &g,
        &pool,
        ExecMode::Concurrent { streams: 4 },
    );

    let rec = telemetry::shared(telemetry::Telemetry::new());
    dev.set_telemetry(rec.clone(), 0);
    plan.replay(&mut dev);
    dev.clear_telemetry();
    let recorded = rec
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
        .spans()
        .len();
    assert!(
        recorded >= plan.num_kernels(),
        "recorder attached but only {recorded} spans recorded"
    );

    let issue_allocs = warm_issue_allocs(&plan, &mut dev);
    assert!(
        issue_allocs < plan.num_kernels() as u64,
        "telemetry-off warm replay issued {} kernels with {} allocations — \
         detaching the recorder must restore the sub-per-kernel issue loop",
        plan.num_kernels(),
        issue_allocs
    );
}

#[test]
fn replay_is_deterministic_across_repeats() {
    // The same frozen plan replayed on two fresh devices yields the same
    // elapsed time and the same number of launches — replay carries no
    // hidden state between iterations.
    let pool_of = |dev: &mut Device| -> Vec<_> { (0..3).map(|_| dev.create_stream()).collect() };
    let g = groups(9, 2);
    let mut d1 = Device::new(DeviceProps::k40c());
    let p1 = pool_of(&mut d1);
    let plan = ExecPlan::capture_round_robin("det", &g, &p1, ExecMode::Concurrent { streams: 3 });
    let r1 = plan.replay(&mut d1);
    let r2 = plan.replay(&mut d1);
    assert_eq!(r1.elapsed_ns, r2.elapsed_ns);
    assert_eq!(r1.kernels, r2.kernels);
    assert_eq!(dev_trace_len(&d1), 2 * plan.num_kernels());
}

fn dev_trace_len(dev: &Device) -> usize {
    dev.trace().len()
}
