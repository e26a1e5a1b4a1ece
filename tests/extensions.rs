//! Integration tests for the paper's §6 future-work features implemented
//! in this reproduction: kernel fusion/reordering and data-parallel
//! multi-GPU training. (Dataflow dependency graphs are `interop`'s whole-net
//! wave plans; `crates/interop/tests` and `reproduce interop` cover them.)

use glp4nn::{Glp4nn, LayerKey, OptimConfig, Schedule};
use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};
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
        let mut run = |dev: &mut Device| {
            glp.execute(dev, 0, &key, Schedule::groups(small_groups(16)), None)
                .unwrap()
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
