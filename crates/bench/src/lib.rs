//! Shared workload builders for the reproduction harness and the
//! criterion benches.
//!
//! Everything here is deterministic; timing numbers come from the
//! simulated device ([`gpu_sim`]), while `T_p`/`T_a` overheads are real
//! measured wall times of our profiler and MILP solver.

pub mod fleet;
pub mod interop;
pub mod lint;
pub mod multi_gpu;
pub mod serving;
pub mod trace;

use glp4nn::Phase;
use gpu_sim::DeviceProps;
use nn::layer::Layer;
use nn::layers::conv::{ConvConfig, ConvLayer};
use nn::models;
use nn::{DispatchMode, ExecCtx, LayerTiming, Net};
use tensor::Blob;

/// One convolution layer workload from the paper's Table 5.
#[derive(Debug, Clone, Copy)]
pub struct ConvWorkload {
    /// Network name.
    pub net: &'static str,
    /// Layer name.
    pub layer: &'static str,
    /// Batch size `N`.
    pub batch: usize,
    /// Input channels `C_i`.
    pub ci: usize,
    /// Input spatial extent `H = W`.
    pub hw: usize,
    /// Convolution configuration (`C_o`, `F`, `S`, `P`).
    pub cfg: ConvConfig,
}

/// All 18 Table-5 convolution workloads.
pub fn table5_workloads() -> Vec<ConvWorkload> {
    models::table5_rows()
        .into_iter()
        .map(|(net, layer, n, ci, hw, co, f, s, p)| ConvWorkload {
            net,
            layer,
            batch: n,
            ci,
            hw,
            cfg: ConvConfig {
                num_output: co,
                kernel: f,
                stride: s,
                pad: p,
            },
        })
        .collect()
}

/// The Table-5 workloads belonging to one network.
pub fn workloads_for(net: &str) -> Vec<ConvWorkload> {
    table5_workloads()
        .into_iter()
        .filter(|w| w.net == net)
        .collect()
}

/// Simulated forward time (ns) of one conv layer under a dispatch mode
/// (timing-only: no CPU math).
pub fn conv_forward_ns(dev: DeviceProps, mode: DispatchMode, w: &ConvWorkload) -> u64 {
    let mut ctx = ExecCtx::with_mode(dev, mode).timing_only();
    run_conv_forward(&mut ctx, w)
}

/// Forward one conv layer in an existing context; returns simulated ns.
pub fn run_conv_forward(ctx: &mut ExecCtx, w: &ConvWorkload) -> u64 {
    let mut layer = ConvLayer::new(w.layer, w.cfg, 1);
    let bottom = Blob::nchw(w.batch, w.ci, w.hw, w.hw);
    let mut top = vec![Blob::empty()];
    layer.reshape(&[&bottom], &mut top);
    ctx.take_timings();
    layer.forward(ctx, &[&bottom], &mut top);
    ctx.take_timings()[0].elapsed_ns
}

/// Simulated forward time under GLP4NN after its profiling iteration
/// (steady state). Returns `(profiling_ns, steady_ns, planned_streams)`.
pub fn conv_forward_glp4nn_ns(dev: DeviceProps, w: &ConvWorkload) -> (u64, u64, u32) {
    let mut ctx = ExecCtx::glp4nn(dev).timing_only();
    ctx.net_name = w.net.to_string();
    let mut layer = ConvLayer::new(w.layer, w.cfg, 1);
    let bottom = Blob::nchw(w.batch, w.ci, w.hw, w.hw);
    let mut top = vec![Blob::empty()];
    layer.reshape(&[&bottom], &mut top);
    layer.forward(&mut ctx, &[&bottom], &mut top);
    let profile_ns = ctx.take_timings()[0].elapsed_ns;
    layer.forward(&mut ctx, &[&bottom], &mut top);
    let steady_ns = ctx.take_timings()[0].elapsed_ns;
    // Conv dispatch emits one kernel group per sample, so the plan is
    // cached under chunks == batch.
    let key = glp4nn::LayerKey::forward(w.net, w.layer).with_chunks(w.batch);
    let streams = ctx
        .glp
        .as_ref()
        .and_then(|g| g.plan_for(0, &key))
        .map(|p| p.streams)
        .unwrap_or(1);
    (profile_ns, steady_ns, streams)
}

/// Build the spec for a named network at its Table-5 batch size.
///
/// # Panics
/// Panics on an unknown name; use [`nn::models::spec_by_name`] for a
/// `Result`.
pub fn net_spec(net: &str, seed: u64) -> nn::NetSpec {
    let batch = models::default_batch(net).unwrap_or_else(|e| panic!("{e}"));
    net_spec_with_batch(net, batch, seed)
}

/// Build the spec for a named network at an explicit batch size.
///
/// # Panics
/// Panics on an unknown name; use [`nn::models::spec_by_name`] for a
/// `Result`.
pub fn net_spec_with_batch(net: &str, batch: usize, seed: u64) -> nn::NetSpec {
    models::spec_by_name(net, batch, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// One full training iteration (forward + backward), timing-only.
/// Returns the per-layer timings.
pub fn iteration_timings(ctx: &mut ExecCtx, net: &mut Net) -> Vec<LayerTiming> {
    ctx.take_timings();
    net.forward(ctx);
    net.backward(ctx);
    ctx.take_timings()
}

/// Total simulated ns of a timing list.
pub fn total_ns(timings: &[LayerTiming]) -> u64 {
    timings.iter().map(|t| t.elapsed_ns).sum()
}

/// Per-iteration simulated time of a network under naive dispatch and
/// under GLP4NN steady state. Returns `(naive_ns, glp_steady_ns)`.
pub fn iteration_speedup(dev: DeviceProps, net_name: &str) -> (u64, u64) {
    let spec = net_spec(net_name, 1);
    let naive = {
        let mut ctx = ExecCtx::with_mode(dev.clone(), DispatchMode::Naive).timing_only();
        let mut net = Net::from_spec(&spec);
        total_ns(&iteration_timings(&mut ctx, &mut net))
    };
    let glp = {
        let mut ctx = ExecCtx::glp4nn(dev).timing_only();
        let mut net = Net::from_spec(&spec);
        // Iteration 1 profiles every layer; iteration 2 is steady state.
        iteration_timings(&mut ctx, &mut net);
        total_ns(&iteration_timings(&mut ctx, &mut net))
    };
    (naive, glp)
}

/// Forward-only per-layer times for a net (used by Fig. 9).
pub fn forward_layer_times(dev: DeviceProps, net_name: &str, glp: bool) -> Vec<(String, u64)> {
    let spec = net_spec(net_name, 1);
    let mut ctx = if glp {
        ExecCtx::glp4nn(dev).timing_only()
    } else {
        ExecCtx::with_mode(dev, DispatchMode::Naive).timing_only()
    };
    let mut net = Net::from_spec(&spec);
    net.forward(&mut ctx); // profiling (or plain) pass
    ctx.take_timings();
    net.forward(&mut ctx); // steady state
    ctx.take_timings()
        .into_iter()
        .filter(|t| t.phase == Phase::Forward)
        .map(|t| (t.layer, t.elapsed_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_cover_table5() {
        let all = table5_workloads();
        assert_eq!(all.len(), 18);
        assert_eq!(workloads_for("CaffeNet").len(), 5);
        assert_eq!(workloads_for("GoogLeNet").len(), 6);
    }

    #[test]
    fn conv_timing_is_positive_and_deterministic() {
        let w = workloads_for("CIFAR10")[1];
        let a = conv_forward_ns(DeviceProps::p100(), DispatchMode::Naive, &w);
        let b = conv_forward_ns(DeviceProps::p100(), DispatchMode::Naive, &w);
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn glp4nn_helper_reports_plan() {
        let w = workloads_for("CIFAR10")[1];
        let (profile, steady, streams) = conv_forward_glp4nn_ns(DeviceProps::k40c(), &w);
        assert!(profile > 0 && steady > 0);
        assert!(streams >= 1);
    }

    #[test]
    fn iteration_speedup_positive() {
        let (naive, glp) = iteration_speedup(DeviceProps::k40c(), "CIFAR10");
        assert!(naive > 0 && glp > 0);
    }
}
