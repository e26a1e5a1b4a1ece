//! Multi-GPU deployment (paper §3.1): one GLP4NN instance manages several
//! GPUs — a shared resource tracker and stream manager, with a private
//! kernel analyzer and runtime scheduler per device — and each device gets
//! its own concurrency plan for the same layer.
//!
//! ```sh
//! cargo run --release --example multi_gpu
//! ```

use glp4nn::{ExecMode, Glp4nn, Glp4nnError, LayerKey, Schedule};
use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};

/// A CaffeNet-conv3-shaped per-sample kernel chain.
fn groups(samples: u64) -> Vec<Vec<KernelDesc>> {
    (0..samples)
        .map(|i| {
            vec![
                KernelDesc::new(
                    "im2col",
                    LaunchConfig::new(Dim3::linear(339), Dim3::linear(128), 33, 0),
                    KernelCost::new(2.3e4, 1.4e4),
                )
                .with_tag(i),
                KernelDesc::new(
                    "sgemm",
                    LaunchConfig::new(Dim3::plane(6, 3), Dim3::linear(256), 64, 16384),
                    KernelCost::new(1.9e7, 1.2e6),
                )
                .with_tag(i),
            ]
        })
        .collect()
}

fn main() -> Result<(), Glp4nnError> {
    let props = [
        DeviceProps::k40c(),
        DeviceProps::p100(),
        DeviceProps::titan_xp(),
    ];
    let mut glp = Glp4nn::new(props.len());
    let mut devices: Vec<Device> = props.iter().cloned().map(Device::new).collect();
    for (i, d) in devices.iter().enumerate() {
        glp.register_device(i, d.props());
    }
    let key = LayerKey::forward("demo", "conv3");

    println!(
        "one GLP4NN framework, {} GPUs, same conv3-shaped layer\n",
        props.len()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>14}",
        "GPU", "profile(ms)", "steady(ms)", "speedup", "plan (streams)"
    );
    for (i, dev) in devices.iter_mut().enumerate() {
        let r1 = glp.execute(dev, i, &key, Schedule::groups(groups(32)), None)?;
        assert_eq!(r1.mode, ExecMode::Profiling);
        let r2 = glp.execute(dev, i, &key, Schedule::groups(groups(32)), None)?;
        let streams = match r2.mode {
            ExecMode::Concurrent { streams } => streams,
            _ => unreachable!("plan must exist after profiling"),
        };
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>9.2} {:>14}",
            dev.props().name,
            r1.elapsed_ns as f64 / 1e6,
            r2.elapsed_ns as f64 / 1e6,
            r1.elapsed_ns as f64 / r2.elapsed_ns as f64,
            streams
        );
    }
    println!("\nper-GPU overheads (shared tracker keeps separate books):");
    for i in 0..devices.len() {
        let c = glp.cost_report(i);
        println!(
            "  gpu{}: {} kernels profiled, T_p {:.3} ms, T_a {:.3} ms, mem_total {:.1} KB",
            i,
            c.kernels_recorded,
            c.t_p.as_secs_f64() * 1e3,
            c.t_a.as_secs_f64() * 1e3,
            c.mem_total_bytes() as f64 / 1024.0
        );
    }
    Ok(())
}
