//! Golden timeline for an overlapped ring all-reduce on a mixed fabric.
//!
//! `engine_golden.rs` pins one device's event order; this pins the order
//! the *fabric* interleaves several devices in. Three different GPUs
//! (K40C, P100, Titan XP — so their clocks never advance in
//! lock-step) sit on a jittered PCIe ring; each runs compute kernels on
//! two streams, and two gradient buckets are ring-all-reduced on the
//! communication streams, each gated behind an event recorded mid-way
//! through the compute so copies, reduction kernels and compute kernels
//! overlap. A second episode runs on the warm devices. The merged
//! timeline, every copy span and each device's `events_processed()` and
//! final clock must match `tests/golden/fabric/ring_overlap.txt` byte for
//! byte. The file was recorded at commit `8ebff62`, before `Fabric::run`
//! cached its frontier; a fabric or queue change that is meant to be
//! invisible must leave it untouched. Regenerate only for an intended
//! behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p glp4nn-bench --test integration fabric_golden::
//! ```

use collective::{Bucket, RingComm};
use gpu_sim::{
    Device, DeviceProps, Dim3, Fabric, KernelCost, KernelDesc, LaunchConfig, LinkProps, StreamId,
};
use std::fmt::Write as _;

use crate::common::golden;

fn compute(i: u64) -> KernelDesc {
    // Three cost classes, grids of one to three waves.
    let (blocks, flops) = [(40u32, 1.8e6), (120, 6.0e6), (72, 2.7e6)][(i % 3) as usize];
    KernelDesc::new(
        ["conv", "gemm", "pool"][(i % 3) as usize],
        LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(256), 32, 4096),
        KernelCost::new(flops, flops / 6.0),
    )
    .with_tag(i)
}

/// One training-step-shaped episode: per device, a first half of compute,
/// an event, a second half; the all-reduce of bucket `b` waits on the
/// event of half `b`, so it overlaps whatever compute follows.
fn enqueue_step(
    fabric: &mut Fabric,
    comm: &mut RingComm,
    devs: &mut [&mut Device],
    pools: &[Vec<StreamId>],
    step: u64,
    copies: &mut Vec<gpu_sim::CopyId>,
) {
    for (half, bytes) in [(0u64, 3 * 1024 * 1024u64), (1, 512 * 1024)] {
        for (d, pool) in pools.iter().enumerate() {
            for i in 0..6u64 {
                let tag = step * 100 + half * 10 + i;
                devs[d].launch(pool[(i % 2) as usize], compute(tag + d as u64));
            }
            let ev = devs[d].create_event();
            devs[d].record_event(pool[0], ev);
            devs[d].wait_event(comm.stream(d), ev);
        }
        let rep = comm
            .all_reduce(
                fabric,
                devs,
                &Bucket::new(format!("grad{step}.{half}"), bytes),
            )
            .expect("ring is connected");
        copies.extend(rep.copies);
    }
}

fn render() -> String {
    let mut devices: Vec<Device> = DeviceProps::evaluation_set()
        .into_iter()
        .map(Device::new)
        .collect();
    let pools: Vec<Vec<StreamId>> = devices
        .iter_mut()
        .map(|d| (0..2).map(|_| d.create_stream()).collect())
        .collect();
    let mut fabric = Fabric::ring(devices.len(), LinkProps::pcie3().with_jitter(900));
    fabric.set_jitter_seed(7);
    let mut devs: Vec<&mut Device> = devices.iter_mut().collect();
    let mut comm = RingComm::new(&mut devs);
    let mut copies = Vec::new();
    let mut ends = Vec::new();
    for step in 0..2 {
        enqueue_step(&mut fabric, &mut comm, &mut devs, &pools, step, &mut copies);
        ends.push(fabric.run(&mut devs));
    }

    let ro: Vec<&Device> = devices.iter().collect();
    let mut out = String::from("# merged timeline\n");
    out.push_str(&fabric.merged_timeline(&ro).render_csv());
    writeln!(out, "# copy start_ns end_ns").unwrap();
    for id in copies {
        let (s, e) = fabric.copy_span(id).expect("run resolved every copy");
        writeln!(out, "{} {s} {e}", id.raw()).unwrap();
    }
    writeln!(out, "# device now_ns events_processed").unwrap();
    for d in &ro {
        writeln!(
            out,
            "{} {} {}",
            d.props().name,
            d.now(),
            d.events_processed()
        )
        .unwrap();
    }
    writeln!(out, "episode_end_ns {} {}", ends[0], ends[1]).unwrap();
    out
}

#[test]
fn ring_overlap_matches_golden_file() {
    golden::check("fabric/ring_overlap.txt", &render());
}
