//! Multi-GPU architecture checks: "GLP4NN supports multiple GPUs on the
//! same machine. Each GPU device is assigned with a private kernel
//! analyzer and runtime scheduler, and all GPUs in the same machine share
//! a public resource tracker and stream manager" (paper §3.1).

use glp4nn::{ExecReport, Glp4nn, LayerKey, Schedule};
use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};

fn groups(n: u64, flops: f64) -> Vec<Vec<KernelDesc>> {
    (0..n)
        .map(|i| {
            vec![
                KernelDesc::new(
                    "im2col",
                    LaunchConfig::new(Dim3::linear(12), Dim3::linear(128), 33, 0),
                    KernelCost::new(flops / 10.0, flops / 40.0),
                )
                .with_tag(i),
                KernelDesc::new(
                    "sgemm",
                    LaunchConfig::new(Dim3::linear(20), Dim3::linear(256), 64, 8192),
                    KernelCost::new(flops, flops / 4.0),
                )
                .with_tag(i),
            ]
        })
        .collect()
}

fn run(
    glp: &mut Glp4nn,
    dev: &mut Device,
    gpu: usize,
    key: &LayerKey,
    n: u64,
    f: f64,
) -> ExecReport {
    glp.execute(dev, gpu, key, Schedule::groups(groups(n, f)), None)
        .expect("registered gpu")
}

#[test]
fn two_gpus_profile_and_accelerate_independently() {
    let mut glp = Glp4nn::new(2);
    let mut k40 = Device::new(DeviceProps::k40c());
    let mut p100 = Device::new(DeviceProps::p100());
    glp.register_device(0, k40.props());
    glp.register_device(1, p100.props());
    let key = LayerKey::forward("net", "conv2");

    // Profile both.
    run(&mut glp, &mut k40, 0, &key, 16, 4.0e6);
    run(&mut glp, &mut p100, 1, &key, 16, 4.0e6);
    let plan_k40 = glp.plan_for(0, &key).expect("k40 plan");
    let plan_p100 = glp.plan_for(1, &key).expect("p100 plan");

    // Steady state beats naive serial time on both devices.
    let r_k40 = run(&mut glp, &mut k40, 0, &key, 16, 4.0e6);
    let r_p100 = run(&mut glp, &mut p100, 1, &key, 16, 4.0e6);
    assert!(matches!(r_k40.mode, glp4nn::ExecMode::Concurrent { .. }));
    assert!(matches!(r_p100.mode, glp4nn::ExecMode::Concurrent { .. }));

    // Pools were created on the right devices: pool size per GPU matches
    // the private analyzer's plan.
    assert_eq!(
        glp.stream_manager().pool_size(0).unwrap(),
        plan_k40.streams as usize
    );
    assert_eq!(
        glp.stream_manager().pool_size(1).unwrap(),
        plan_p100.streams as usize
    );
}

#[test]
fn shared_tracker_keeps_per_gpu_overheads_separate() {
    let mut glp = Glp4nn::new(2);
    let mut d0 = Device::new(DeviceProps::titan_xp());
    let mut d1 = Device::new(DeviceProps::titan_xp());
    glp.register_device(0, d0.props());
    glp.register_device(1, d1.props());

    run(
        &mut glp,
        &mut d0,
        0,
        &LayerKey::forward("net", "a"),
        4,
        1.0e6,
    );
    run(
        &mut glp,
        &mut d1,
        1,
        &LayerKey::forward("net", "b"),
        10,
        1.0e6,
    );

    let c0 = glp.cost_report(0);
    let c1 = glp.cost_report(1);
    assert_eq!(c0.kernels_recorded, 8);
    assert_eq!(c1.kernels_recorded, 20);
}

#[test]
fn per_gpu_plans_differ_across_device_generations() {
    // Observation 2 of the paper: the optimal stream count is
    // device-dependent. The same layer profiled on K40C and P100 may get
    // different plans; at minimum both are valid and within each device's
    // concurrency degree.
    let mut glp = Glp4nn::new(2);
    let mut k40 = Device::new(DeviceProps::k40c());
    let mut p100 = Device::new(DeviceProps::p100());
    glp.register_device(0, k40.props());
    glp.register_device(1, p100.props());
    let key = LayerKey::forward("net", "conv1");
    run(&mut glp, &mut k40, 0, &key, 8, 2.0e7);
    run(&mut glp, &mut p100, 1, &key, 8, 2.0e7);
    let pk = glp.plan_for(0, &key).unwrap();
    let pp = glp.plan_for(1, &key).unwrap();
    assert!(pk.streams <= DeviceProps::k40c().concurrency_degree());
    assert!(pp.streams <= DeviceProps::p100().concurrency_degree());
    assert!(pk.streams >= 1 && pp.streams >= 1);
}
