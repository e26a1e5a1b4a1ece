//! Golden timeline for an over-subscribed multi-stream mix.
//!
//! The smoke goldens under `tests/golden/smoke/` run small grids that fit
//! in one wave, so they barely exercise the block dispatcher's steady
//! state: an SM frees, and some kernel's next block takes it. This test
//! pins that path. One fixed 8-stream mix — grids far larger than one
//! wave, three distinct block footprints (thread-, register- and
//! shared-memory-bound), a cross-stream event edge and a second episode —
//! runs on each of the paper's three GPUs, and every kernel's
//! `(id, stream, launch_ns, start_ns, end_ns)` plus the device's
//! `events_processed()` must match `tests/golden/engine/oversubscribed.txt`
//! byte for byte. The file was recorded at commit `869b998`, before the
//! dispatcher became incremental; an engine change that is meant to be
//! invisible must leave it untouched. Regenerate only for an intended
//! behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p glp4nn-bench --test integration engine_golden::
//! ```

use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};
use std::fmt::Write as _;

use crate::common::golden;

/// `(blocks, threads, regs/thread, smem bytes, flops/block, dram bytes/block)`.
const SHAPES: [(u32, u32, u32, u32, f64, f64); 3] = [
    // Thread-bound: two 1024-thread blocks fill an SM.
    (1_500, 1024, 16, 0, 6.0e5, 4.0e4),
    // Register-bound: 256 threads × 64 regs = 16 K regs, four per SM.
    (4_000, 256, 64, 4096, 2.5e5, 9.0e4),
    // Shared-memory-bound: 20 KiB per block, two (K40C, Titan XP) or three (P100) per SM.
    (2_500, 128, 32, 20 * 1024, 1.0e5, 2.0e5),
];

fn enqueue_mix(dev: &mut Device, pool: &[gpu_sim::StreamId], first_tag: u64, kernels: u64) {
    for i in 0..kernels {
        let (blocks, threads, regs, smem, flops, bytes) = SHAPES[(i % 3) as usize];
        // Stagger the grids so streams do not finish in lock-step.
        let blocks = blocks + 37 * (i as u32 % 5);
        let k = KernelDesc::new(
            ["fat", "regs", "smem"][(i % 3) as usize],
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), regs, smem),
            KernelCost::new(flops, bytes),
        )
        .with_tag(first_tag + i);
        dev.launch(pool[(i % pool.len() as u64) as usize], k);
    }
}

fn render(props: DeviceProps) -> String {
    let mut dev = Device::new(props);
    let pool: Vec<_> = (0..8).map(|_| dev.create_stream()).collect();
    enqueue_mix(&mut dev, &pool, 0, 16);
    // Stream 5 may not continue before stream 2's first two kernels end.
    let ev = dev.create_event();
    dev.record_event(pool[2], ev);
    dev.wait_event(pool[5], ev);
    enqueue_mix(&mut dev, &pool, 16, 8);
    dev.run();
    // A second episode on the warm device (`run`'s preamble dispatch).
    enqueue_mix(&mut dev, &pool, 24, 8);
    let end = dev.run();

    let mut out = String::new();
    writeln!(out, "# {}", dev.props().name).unwrap();
    writeln!(out, "# id stream launch_ns start_ns end_ns").unwrap();
    for t in dev.trace() {
        writeln!(
            out,
            "{} {} {} {} {}",
            t.id.raw(),
            t.stream.raw(),
            t.launch_ns,
            t.start_ns,
            t.end_ns
        )
        .unwrap();
    }
    writeln!(
        out,
        "end_ns {end} events_processed {}",
        dev.events_processed()
    )
    .unwrap();
    out
}

#[test]
fn oversubscribed_mix_matches_golden_file() {
    let text: String = DeviceProps::evaluation_set()
        .into_iter()
        .map(render)
        .collect();
    golden::check("engine/oversubscribed.txt", &text);
}
