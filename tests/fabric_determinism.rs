//! Determinism of the parallel fabric scheduler.
//!
//! PR 10 lets [`Fabric::run`] advance devices on worker threads under a
//! conservative lookahead horizon (each device may run ahead of its
//! peers by at most the minimum link latency). Parallel execution is
//! only admissible if it is *invisible*: the merged timeline, every copy
//! span and the final simulated clock must be byte-identical to the
//! sequential one-event-at-a-time run, for any worker count, any link
//! preset (PCIe, NVLink, jittered) and any workload mix of kernels and
//! peer-to-peer copies. On top of the raw fabric check, a data-parallel
//! trainer driven with 1, 2 and 4 workers must produce bitwise-identical
//! trained weights.

use gpu_sim::{
    BufferId, ByteRange, CopyDesc, Device, DeviceProps, Dim3, Fabric, KernelCost, KernelDesc,
    LaunchConfig, LinkProps, MemAccess, StreamId,
};
use nn::data::SyntheticDataset;
use nn::models;
use nn::{DataParallelTrainer, DispatchMode, Net, SolverConfig};
use proptest::prelude::*;
use tensor::Blob;

/// One kernel launch: (device, stream slot, cost class).
type Launch = (usize, usize, u8);
/// One p2p copy: (src device, dst device selector, size class).
type Copy = (usize, usize, u8);

const LINKS: [fn() -> LinkProps; 4] = [
    LinkProps::pcie3,
    LinkProps::nvlink,
    || LinkProps::pcie3().with_jitter(200),
    || LinkProps::nvlink().with_jitter(50),
];

/// Build the fabric workload deterministically from the recipe and run
/// it with `workers` threads; return every observable output.
fn run_fabric(
    n: usize,
    link_sel: usize,
    seed: u64,
    launches: &[Launch],
    copies: &[Copy],
    workers: usize,
) -> (String, Vec<Option<(u64, u64)>>, u64) {
    let mut devices: Vec<Device> = (0..n).map(|_| Device::new(DeviceProps::p100())).collect();
    let pools: Vec<Vec<StreamId>> = devices
        .iter_mut()
        .map(|d| (0..2).map(|_| d.create_stream()).collect())
        .collect();
    let mut fabric = Fabric::fully_connected(n, LINKS[link_sel]());
    fabric.set_jitter_seed(seed);
    let mut devs: Vec<&mut Device> = devices.iter_mut().collect();

    for (i, &(dev, slot, cost)) in launches.iter().enumerate() {
        let d = dev % n;
        let flops = [2.0e5, 1.0e6, 8.0e6][cost as usize];
        let k = KernelDesc::new(
            &format!("k{cost}"),
            LaunchConfig::new(Dim3::linear(28), Dim3::linear(128), 32, 2048),
            KernelCost::new(flops, flops / 8.0),
        )
        .with_tag(i as u64);
        fabric
            .launch_on(&mut devs, d, pools[d][slot % 2], k)
            .unwrap();
    }
    let mut copy_ids = Vec::new();
    for (i, &(src, dst_off, size)) in copies.iter().enumerate() {
        let src = src % n;
        let dst = (src + 1 + dst_off % (n - 1)) % n;
        let bytes = [4 * 1024u64, 256 * 1024, 2 * 1024 * 1024][size as usize];
        let id = fabric
            .copy_p2p(
                &mut devs,
                CopyDesc::new(
                    &format!("p2p{i}:{src}->{dst}"),
                    (
                        src,
                        pools[src][1],
                        MemAccess {
                            buffer: BufferId(src as u64),
                            range: ByteRange::new(0, bytes),
                        },
                    ),
                    (
                        dst,
                        pools[dst][1],
                        MemAccess {
                            buffer: BufferId(100 + dst as u64),
                            range: ByteRange::new(0, bytes),
                        },
                    ),
                ),
            )
            .unwrap();
        copy_ids.push(id);
    }

    fabric.set_workers(workers);
    let end = fabric.run(&mut devs);
    let ro: Vec<&Device> = devices.iter().collect();
    let csv = fabric.merged_timeline(&ro).render_csv();
    let spans = copy_ids.iter().map(|&id| fabric.copy_span(id)).collect();
    (csv, spans, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential (1 worker) and parallel (2 / 4 workers) runs of the
    /// same workload are observationally identical.
    #[test]
    fn parallel_fabric_matches_sequential(
        n in 2usize..5,
        link_sel in 0usize..LINKS.len(),
        seed in any::<u64>(),
        launches in prop::collection::vec((0usize..4, 0usize..2, 0u8..3), 1..24),
        copies in prop::collection::vec((0usize..4, 0usize..3, 0u8..3), 0..12),
    ) {
        let baseline = run_fabric(n, link_sel, seed, &launches, &copies, 1);
        for workers in [2usize, 4] {
            let got = run_fabric(n, link_sel, seed, &launches, &copies, workers);
            prop_assert_eq!(&got.0, &baseline.0, "timeline diverged at {} workers", workers);
            prop_assert_eq!(&got.1, &baseline.1, "copy spans diverged at {} workers", workers);
            prop_assert_eq!(got.2, baseline.2, "final clock diverged at {} workers", workers);
        }
    }
}

// ----- trained-weights bit-identity through the trainer ----------------

fn fill(net: &mut Net, ds: &SyntheticDataset, start: usize) {
    let mut data = std::mem::replace(net.blob_mut("data"), Blob::empty());
    let mut label = std::mem::replace(net.blob_mut("label"), Blob::empty());
    ds.fill_batch(start, &mut data, &mut label);
    *net.blob_mut("data") = data;
    *net.blob_mut("label") = label;
}

fn train(workers: usize, link: LinkProps) -> (Vec<Vec<f32>>, String, Vec<u64>) {
    let batch = 8;
    let replicas = 4;
    let ds = SyntheticDataset::cifar_like(23);
    let spec = models::cifar10_quick(batch, 5);
    let devices = vec![DeviceProps::p100(); replicas];
    let mut dp = DataParallelTrainer::new(&spec, &devices, false, SolverConfig::default())
        .with_link(link)
        .with_dispatch(DispatchMode::FixedStreams(4))
        .with_overlap(true)
        .with_workers(workers);
    let mut walls = Vec::new();
    for _ in 0..3 {
        for r in 0..replicas {
            fill(dp.replica_net(r), &ds, r * batch);
        }
        let rep = dp.step();
        walls.push(rep.wall_ns);
    }
    let weights = dp.replica_net(0).state_dict();
    let csv = dp.merged_timeline().render_csv();
    (weights, csv, walls)
}

/// The trainer's weights, merged timeline and per-step wall clocks are
/// bitwise-identical whether its fabric runs with 1, 2 or 4 workers.
#[test]
fn trained_weights_are_worker_count_invariant() {
    for link in [LinkProps::nvlink(), LinkProps::pcie3().with_jitter(100)] {
        let (w1, csv1, walls1) = train(1, link);
        for workers in [2usize, 4] {
            let (w, csv, walls) = train(workers, link);
            assert_eq!(w1, w, "weights diverged at {workers} workers");
            assert_eq!(csv1, csv, "timeline diverged at {workers} workers");
            assert_eq!(walls1, walls, "wall clocks diverged at {workers} workers");
        }
    }
}
