//! End-to-end multi-GPU data parallelism over the simulated fabric: real
//! gradients ride a real (simulated) ring all-reduce, communication
//! overlaps backward compute, the whole schedule passes the per-device
//! *and* cross-device sanitizers, and the collective layer's traffic
//! matches the analytic ring bound.

use collective::{Bucket, RingComm};
use gpu_sim::{Device, DeviceProps, Fabric, LinkProps};
use nn::data::SyntheticDataset;
use nn::models;
use nn::{DataParallelTrainer, DispatchMode, Net, SolverConfig};
use sanitizer::SanitizeMode;
use tensor::Blob;

fn fill(net: &mut Net, ds: &SyntheticDataset, start: usize) {
    let mut data = std::mem::replace(net.blob_mut("data"), Blob::empty());
    let mut label = std::mem::replace(net.blob_mut("label"), Blob::empty());
    ds.fill_batch(start, &mut data, &mut label);
    *net.blob_mut("data") = data;
    *net.blob_mut("label") = label;
}

/// Four replicas, overlap on, full sanitizing: training converges, the
/// replicas stay identical, communication is real fabric traffic, and
/// neither the per-device nor the merged cross-device checker objects.
#[test]
fn overlapped_training_is_clean_and_converges() {
    let batch = 8;
    let ds = SyntheticDataset::cifar_like(23);
    let spec = models::cifar10_quick(batch, 5);
    let devices = vec![DeviceProps::p100(); 4];
    let mut dp = DataParallelTrainer::new(&spec, &devices, false, SolverConfig::default())
        .with_link(LinkProps::nvlink())
        .with_dispatch(DispatchMode::FixedStreams(4))
        .with_overlap(true)
        .sanitize(SanitizeMode::Full);

    // Fixed sub-batches (replica r always sees the same samples): the
    // loss on the same data must fall monotonically enough to compare
    // endpoints, without fresh-sample noise.
    let mut first = None;
    let mut last = None;
    for _ in 0..6 {
        for r in 0..4 {
            fill(dp.replica_net(r), &ds, r * batch);
        }
        let rep = dp.step();
        assert!(rep.comm_ns > 0, "4 replicas must produce fabric traffic");
        assert!(rep.wall_ns > 0);
        first.get_or_insert(rep.loss);
        last = Some(rep.loss);
    }
    assert!(
        last.unwrap() < first.unwrap(),
        "loss must fall: {:?} -> {:?}",
        first,
        last
    );
    assert_eq!(
        dp.diagnostics(),
        vec![],
        "sanitizers must be silent on the overlapped schedule"
    );

    // Replicas remain bitwise identical after every synchronous step.
    let w0 = dp.replica_net(0).state_dict();
    for r in 1..4 {
        assert_eq!(w0, dp.replica_net(r).state_dict(), "replica {r} diverged");
    }

    // Per-replica observability: all four devices did comparable work.
    let stats = dp.device_stats();
    assert_eq!(stats.len(), 4);
    assert!(stats.iter().all(|s| s.kernels_completed > 0));
    let tl = dp.merged_timeline();
    assert!(!tl.is_empty());
}

/// Timing-only steady steps repeat one device-and-link program, so after
/// warm-up (the first step captures plans, the second notes the program)
/// and one recording step, every step's `Fabric::run` applies the recorded
/// episode — CIFAR10 and Siamese, PCIe and NVLink, with and without
/// overlap. A trainer with a recorder attached simulates every step and is
/// the reference: step reports, the merged timeline and device statistics
/// agree, and the `Full`-mode sanitizers find nothing in the applied output.
#[test]
fn warm_steps_apply_the_recorded_fabric_episode() {
    for spec in [models::cifar10_quick(4, 1), models::siamese(4, 1)] {
        for link in [LinkProps::pcie3(), LinkProps::nvlink()] {
            for overlap in [false, true] {
                let case = format!("{} over {link:?}, overlap {overlap}", spec.name);
                let [mut memo, mut sim] = [false, true].map(|reference| {
                    let mut dp = DataParallelTrainer::new(
                        &spec,
                        &vec![DeviceProps::p100(); 4],
                        false,
                        SolverConfig::default(),
                    )
                    .with_link(link)
                    .with_dispatch(DispatchMode::FixedStreams(4))
                    .with_overlap(overlap)
                    .timing_only()
                    .sanitize(SanitizeMode::Full);
                    if reference {
                        dp.set_telemetry(telemetry::shared(telemetry::Telemetry::new()));
                    }
                    dp
                });
                let step = |dp: &mut DataParallelTrainer| {
                    let r = dp.step();
                    (r.wall_ns, r.compute_ns, r.comm_ns)
                };
                for _ in 0..3 {
                    assert_eq!(step(&mut memo), step(&mut sim), "{case}");
                }
                let (hits, misses) = memo.fabric().memo_stats();
                for i in 1..=3 {
                    assert_eq!(step(&mut memo), step(&mut sim), "{case}");
                    assert_eq!(
                        memo.fabric().memo_stats(),
                        (hits + i, misses),
                        "{case}: a warm step simulated"
                    );
                }
                assert_eq!(sim.fabric().memo_stats().0, 0, "{case}");
                assert!(
                    memo.merged_timeline().render_csv() == sim.merged_timeline().render_csv(),
                    "{case}: merged timelines differ"
                );
                assert_eq!(memo.device_stats(), sim.device_stats(), "{case}");
                assert_eq!(memo.diagnostics(), vec![], "{case}");
                assert_eq!(sim.diagnostics(), vec![], "{case}");
            }
        }
    }
}

/// One recorder per device: a recorder attached to each replica's context
/// alone (pid = replica index) records everything the trainer-wide attach
/// does — P2P copy spans and flow arrows, `fabric.*` and `collective.*`
/// counters, `allreduce` spans, `train.*` metrics and the profiler's
/// `cupti.*` events — in the same order.
#[test]
fn replica_recorders_see_the_whole_trainer() {
    let run = |per_replica: bool| {
        let spec = models::cifar10_quick(4, 1);
        let devices = vec![DeviceProps::p100(); 4];
        let mut dp = DataParallelTrainer::new(&spec, &devices, true, SolverConfig::default())
            .with_link(LinkProps::nvlink())
            .with_overlap(true)
            .timing_only();
        let rec = telemetry::shared(telemetry::Telemetry::new());
        if per_replica {
            for r in 0..4 {
                dp.replica_ctx(r).set_telemetry(rec.clone(), r as u32);
            }
        } else {
            dp.set_telemetry(rec.clone());
        }
        for _ in 0..3 {
            dp.step();
        }
        dp.clear_telemetry();
        let t = rec.lock().unwrap();
        (t.chrome_trace(), t.metrics_snapshot())
    };
    let (trace, metrics) = run(true);
    for cat in ["\"p2p\"", "\"allreduce ", "\"cupti.ingest x"] {
        assert!(trace.contains(cat), "trace lacks {cat}");
    }
    for counter in [
        "fabric.p2p_copies",
        "collective.allreduces",
        "cupti.flushed_records",
        "train.iterations = 3",
    ] {
        assert!(metrics.contains(counter), "metrics lack {counter}");
    }
    assert!(run(false) == (trace, metrics), "attach points disagree");
}

/// The trainer's communication volume matches the collective layer run
/// standalone: 2(R-1) segment copies per device, R(R-1) fold kernels.
#[test]
fn trainer_traffic_matches_ring_bound() {
    let r = 3usize;
    let mut devices: Vec<Device> = (0..r).map(|_| Device::new(DeviceProps::p100())).collect();
    let mut fabric = Fabric::ring(r, LinkProps::pcie3());
    let mut devs: Vec<&mut Device> = devices.iter_mut().collect();
    let mut comm = RingComm::new(&mut devs);
    let rep = comm
        .all_reduce(&mut fabric, &mut devs, &Bucket::new("g", 12 * 1024))
        .unwrap();
    fabric.run(&mut devs);
    assert_eq!(rep.copies.len(), 2 * r * (r - 1));
    assert_eq!(rep.reduce_kernels as usize, r * (r - 1));
    assert!(rep.span(&fabric).is_some());
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pins what `DataParallelTrainer::step` computes: three numerics steps of
/// CIFAR10-quick (batch 2) on 1–4 replicas of mixed K40C / P100 / Titan
/// XP, with overlap off and on. Each row holds the digest of every
/// replica's final weights and the digest of every step's
/// `(compute_ns, comm_ns, wall_ns)`.
#[test]
fn plain_steps_keep_their_weights_and_step_reports() {
    #[rustfmt::skip]
    let want: [(usize, bool, u64, u64); 8] = [
        (1, false, 0x1468_6ce3_c1f3_0b6c, 0xec63_f663_4595_4de5),
        (1, true, 0x1468_6ce3_c1f3_0b6c, 0xec63_f663_4595_4de5),
        (2, false, 0x6e11_a24f_36ac_afa9, 0x9d23_04df_454d_c6a4),
        (2, true, 0x6e11_a24f_36ac_afa9, 0x449f_8c2d_0850_eea9),
        (3, false, 0xa53a_4447_2c34_969c, 0x2f4e_e16e_2317_a9b7),
        (3, true, 0xa53a_4447_2c34_969c, 0x25ad_c3de_75a6_6976),
        (4, false, 0xb46d_9b86_697e_4aad, 0x16f0_7109_c109_e6b6),
        (4, true, 0xb46d_9b86_697e_4aad, 0x6784_6c8c_076d_9b1a),
    ];
    let batch = 2;
    let ds = SyntheticDataset::cifar_like(7);
    let spec = models::cifar10_quick(batch, 13);
    let models = DeviceProps::evaluation_set();
    let mut got = Vec::new();
    for &(replicas, overlap, _, _) in &want {
        let devices: Vec<_> = (0..replicas).map(|r| models[r % 3].clone()).collect();
        let mut dp = DataParallelTrainer::new(&spec, &devices, false, SolverConfig::default())
            .with_overlap(overlap);
        let mut steps = Vec::new();
        for it in 0..3 {
            for r in 0..replicas {
                fill(dp.replica_net(r), &ds, (it * replicas + r) * batch);
            }
            let rep = dp.step();
            steps.extend([rep.compute_ns, rep.comm_ns, rep.wall_ns]);
        }
        let weights = (0..replicas).flat_map(|r| dp.replica_net(r).state_dict());
        let weights = fnv(weights.flatten().map(|v| u64::from(v.to_bits())));
        got.push((replicas, overlap, weights, fnv(steps)));
    }
    assert_eq!(got, want);
}
