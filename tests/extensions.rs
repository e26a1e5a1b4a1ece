//! Integration tests for the paper's §6 future-work features implemented
//! in this reproduction: kernel fusion/reordering and data-parallel
//! multi-GPU training. (Dataflow dependency graphs are `interop`'s whole-net
//! wave plans; `crates/interop/tests` and `reproduce interop` cover them.)

use glp4nn::{Glp4nn, LayerKey, OptimConfig, PlanCache, Schedule};
use gpu_sim::LaunchConfig;
use gpu_sim::{BufferId, ByteRange, Device, DeviceProps, Dim3, KernelCost, KernelDesc};
use nn::data::SyntheticDataset;
use nn::models;
use nn::solver::MomentumKind;
use nn::{DataParallelTrainer, ExecCtx, Net, SolverConfig};
use tensor::Blob;

fn small_kernel(name: &str, tag: u64) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(6), Dim3::linear(128), 24, 0),
        KernelCost::new(5.0e4, 2.0e4),
    )
    .with_tag(tag)
}

fn small_groups(n: u64) -> Vec<Vec<KernelDesc>> {
    (0..n)
        .map(|i| {
            vec![
                small_kernel("im2col", i),
                small_kernel("sgemm", i),
                small_kernel("gemmk", i),
            ]
        })
        .collect()
}

#[test]
fn fusion_reduces_launches_and_time_for_small_kernels() {
    let run = |optim: OptimConfig| -> (u64, usize) {
        let mut dev = Device::new(DeviceProps::k40c());
        let mut glp = Glp4nn::with_optim(1, optim);
        glp.register_device(0, dev.props());
        let key = LayerKey::forward("net", "tiny");
        let mut plans = PlanCache::default();
        let mut run = |dev: &mut Device| {
            let groups = Schedule::groups(small_groups(16));
            glp.execute(dev, &mut plans, 0, &key, groups, None).unwrap()
        };
        run(&mut dev); // profile
        let before = dev.trace().len();
        let r = run(&mut dev);
        (r.elapsed_ns, dev.trace().len() - before)
    };
    let (base_ns, base_launches) = run(OptimConfig::default());
    let (fused_ns, fused_launches) = run(OptimConfig {
        fusion: true,
        ..OptimConfig::default()
    });
    assert!(
        fused_launches < base_launches,
        "fusion must reduce launches: {fused_launches} vs {base_launches}"
    );
    assert!(
        fused_ns < base_ns,
        "launch-bound groups must get faster: {fused_ns} vs {base_ns}"
    );
}

#[test]
fn fused_captures_certify_and_reordered_ones_fall_back() {
    // Sample i's chain reads its slot of `in` and the whole of `w`, and
    // writes its slot of `out`; chain i has min(i + 1, 3) kernels.
    let [input, w, out] = ["in", "w", "out"].map(|b| BufferId::from_label(&format!("ext/{b}")));
    let slots = || sanitizer::SampleSlots(vec![(input, 256), (out, 256)]);
    let groups = || -> Vec<Vec<KernelDesc>> {
        (0..3u64)
            .map(|i| {
                let mut g = small_groups(1).remove(0);
                g.truncate(i as usize + 1);
                g.into_iter()
                    .map(|k| {
                        k.with_tag(i)
                            .reads(input, ByteRange::span(i * 256, 256))
                            .reads(w, ByteRange::new(0, 1024))
                            .writes(out, ByteRange::span(i * 256, 256))
                    })
                    .collect()
            })
            .collect()
    };
    let run = |optim: OptimConfig| {
        let mut dev = Device::new(DeviceProps::k40c());
        let mut glp = Glp4nn::with_optim(1, optim);
        glp.register_device(0, dev.props());
        let mut plans = PlanCache::default();
        let mut san = sanitizer::Sanitizer::new(sanitizer::SanitizeMode::PlanOnly);
        san.attach_linter(sanitizer::LintConfig {
            mem_bytes: 1 << 30,
            max_resident_threads: 1 << 16,
        });
        let key = LayerKey::forward("net", "ext");
        // Profile, then capture: both check the chunks.
        for _ in 0..2 {
            let source = Schedule {
                make_groups: groups,
                make_spec: || Some(slots()),
            };
            glp.execute(&mut dev, &mut plans, 0, &key, source, Some(&mut san))
                .unwrap();
        }
        let linter = san.linter().unwrap();
        let codes: Vec<_> = linter.diags().iter().map(|d| d.code.code()).collect();
        let launches = dev.trace().len();
        (san.stats(), codes, san.reports().len(), launches)
    };

    // Fusion merges each chain into one launch whose accesses stay in the
    // sample's slots: the capture certifies and nothing is reported.
    let (stats, codes, reports, launches) = run(OptimConfig {
        fusion: true,
        ..OptimConfig::default()
    });
    assert!(launches < 2 * 6, "the capture must have fused: {launches}");
    assert_eq!((stats.certified_captures, stats.pairwise_fallbacks), (2, 0));
    assert!(!codes.contains(&"PL004"), "{codes:?}");
    assert_eq!(reports, 0);

    // LPT puts the longest chain (sample 2) at chunk 0: no longer its
    // sample's slot, so the capture misses, says so and falls back to the
    // pairwise check, which finds the chunks disjoint.
    let (stats, codes, reports, _) = run(OptimConfig {
        reordering: true,
        ..OptimConfig::default()
    });
    assert_eq!((stats.certified_captures, stats.pairwise_fallbacks), (1, 1));
    assert_eq!(stats.conformance_misses, 1);
    assert_eq!(
        codes.iter().filter(|&&c| c == "PL004").count(),
        1,
        "{codes:?}"
    );
    assert!(!codes.contains(&"PL002"), "{codes:?}");
    assert_eq!(reports, 0);
}

#[test]
fn fusion_does_not_change_training_math() {
    let train = |optim: OptimConfig| -> Vec<u32> {
        let mut ctx = ExecCtx::glp4nn_with(DeviceProps::p100(), optim);
        let net = Net::from_spec(&models::cifar10_quick(8, 21));
        let mut solver = nn::Solver::new(net, SolverConfig::default());
        let ds = SyntheticDataset::cifar_like(21);
        (0..3)
            .map(|it| {
                let mut data = std::mem::replace(solver.net.blob_mut("data"), Blob::empty());
                let mut label = std::mem::replace(solver.net.blob_mut("label"), Blob::empty());
                ds.fill_batch(it * 8, &mut data, &mut label);
                *solver.net.blob_mut("data") = data;
                *solver.net.blob_mut("label") = label;
                solver.step(&mut ctx).to_bits()
            })
            .collect()
    };
    assert_eq!(
        train(OptimConfig::default()),
        train(OptimConfig::all()),
        "fusion/reordering only reschedule simulated kernels; math is unchanged"
    );
}

#[test]
fn data_parallel_losses_independent_of_replica_count() {
    let ds = SyntheticDataset::cifar_like(5);
    let global = 16usize;
    let run = |gpus: usize| -> Vec<f32> {
        let per = global / gpus;
        let spec = models::cifar10_quick(per, 3);
        let mut dp = DataParallelTrainer::new(
            &spec,
            &vec![DeviceProps::p100(); gpus],
            false,
            SolverConfig {
                base_lr: 0.01,
                momentum: 0.9,
                momentum_kind: MomentumKind::Classical,
                weight_decay: 0.0,
                policy: nn::LrPolicy::Fixed,
            },
        );
        (0..3)
            .map(|it| {
                for r in 0..gpus {
                    let net = dp.replica_net(r);
                    let mut data = std::mem::replace(net.blob_mut("data"), Blob::empty());
                    let mut label = std::mem::replace(net.blob_mut("label"), Blob::empty());
                    ds.fill_batch(it * global + r * per, &mut data, &mut label);
                    *net.blob_mut("data") = data;
                    *net.blob_mut("label") = label;
                }
                dp.step().loss
            })
            .collect()
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    for i in 0..3 {
        assert!((one[i] - two[i]).abs() < 2e-3, "1 vs 2 GPUs at iter {i}");
        assert!((one[i] - four[i]).abs() < 2e-3, "1 vs 4 GPUs at iter {i}");
    }
}
