//! End-to-end checks of the Fig. 6 workflow: profile → parse → analyze →
//! stream-pool dispatch, including the overhead accounting the paper
//! reports in Fig. 10 and Table 6.

use glp4nn::{CostBook, ExecMode, Phase};
use gpu_sim::DeviceProps;
use nn::models;
use nn::{DispatchMode, ExecCtx, Net};

fn forward_timing_only(ctx: &mut ExecCtx, spec: &nn::NetSpec) -> u64 {
    let mut net = Net::from_spec(spec);
    ctx.take_timings();
    net.forward(ctx);
    ctx.take_timings().iter().map(|t| t.elapsed_ns).sum()
}

#[test]
fn first_iteration_profiles_then_concurrent_kernels_run() {
    let spec = models::cifar10_quick(32, 1);
    let mut ctx = ExecCtx::glp4nn(DeviceProps::k40c()).timing_only();
    let mut net = Net::from_spec(&spec);

    net.forward(&mut ctx);
    let first = ctx.take_timings();
    let conv_first: Vec<_> = first
        .iter()
        .filter(|t| t.layer.starts_with("conv"))
        .collect();
    assert_eq!(conv_first.len(), 3);
    assert!(conv_first.iter().all(|t| t.mode == ExecMode::Profiling));

    net.forward(&mut ctx);
    let second = ctx.take_timings();
    let conv_second: Vec<_> = second
        .iter()
        .filter(|t| t.layer.starts_with("conv"))
        .collect();
    assert!(conv_second
        .iter()
        .all(|t| matches!(t.mode, ExecMode::Concurrent { .. })));

    // Concurrent conv execution is no slower overall.
    let t1: u64 = conv_first.iter().map(|t| t.elapsed_ns).sum();
    let t2: u64 = conv_second.iter().map(|t| t.elapsed_ns).sum();
    assert!(
        t2 <= t1,
        "steady-state convs should not be slower: {t2} vs {t1}"
    );
}

#[test]
fn overhead_report_matches_paper_structure() {
    let spec = models::cifar10_quick(16, 3);
    let mut ctx = ExecCtx::glp4nn(DeviceProps::p100()).timing_only();
    let mut net = Net::from_spec(&spec);
    net.forward(&mut ctx); // profiling iteration
    let glp = ctx.glp.as_ref().unwrap();
    let report = glp.cost_report(0).unwrap();

    // Forward profiled 3 conv layers × 16 samples × 3 kernels.
    assert_eq!(report.kernels_recorded, 3 * 16 * 3);
    assert!(report.t_p.as_nanos() > 0, "T_p measured");
    assert!(report.t_a.as_nanos() > 0, "T_a measured");
    // Fig. 10: mem_cupti dominates mem_tt + mem_K.
    assert!(report.mem_cupti_bytes > report.mem_tt_bytes + report.mem_k_bytes);
    // Eq. 11: mem_tt = 16 bytes per kernel.
    assert_eq!(report.mem_tt_bytes, report.kernels_recorded * 16);

    // Table 6 ratio: after a few training iterations the one-time overhead
    // is far below the paper's 0.1% bound target shape (we just require
    // that the book computes a finite, small ratio).
    let mut book = CostBook::new();
    for _ in 0..5 {
        net.forward(&mut ctx);
        book.add_iteration(ctx.take_timings().iter().map(|t| t.elapsed_ns).sum());
    }
    let ratio = book.overhead_ratio(&report).unwrap();
    assert!(ratio.is_finite() && ratio > 0.0);
}

#[test]
fn plans_are_cached_per_layer_and_phase() {
    let spec = models::cifar10_quick(16, 5);
    let mut ctx = ExecCtx::glp4nn(DeviceProps::titan_xp()).timing_only();
    let mut net = Net::from_spec(&spec);
    net.forward(&mut ctx);
    net.backward(&mut ctx);
    let glp = ctx.glp.as_ref().unwrap();
    for layer in ["conv1", "conv2", "conv3"] {
        let f = glp.plan_for(
            0,
            &glp4nn::LayerKey::forward("CIFAR10", layer).with_chunks(16),
        );
        let b = glp4nn::LayerKey {
            net: "CIFAR10",
            layer,
            phase: Phase::Backward,
            chunks: 16,
        };
        assert!(f.is_some(), "forward plan for {layer}");
        assert!(glp.plan_for(0, &b).is_some(), "backward plan for {layer}");
        let plan = f.unwrap();
        assert!(plan.streams >= 1);
        assert!(plan.streams <= DeviceProps::titan_xp().concurrency_degree());
    }
}

#[test]
fn fixed_stream_sweep_brackets_glp4nn_choice() {
    // The analytical model should land in the right ballpark: its steady
    // state must beat 1 stream on a conv-heavy forward pass.
    let spec = models::cifar10_quick(32, 9);

    let naive = {
        let mut ctx = ExecCtx::with_mode(DeviceProps::k40c(), DispatchMode::Naive).timing_only();
        forward_timing_only(&mut ctx, &spec)
    };
    let glp = {
        let mut ctx = ExecCtx::glp4nn(DeviceProps::k40c()).timing_only();
        let mut net = Net::from_spec(&spec);
        net.forward(&mut ctx); // profile
        ctx.take_timings();
        net.forward(&mut ctx); // steady state
        ctx.take_timings().iter().map(|t| t.elapsed_ns).sum::<u64>()
    };
    assert!(
        glp < naive,
        "GLP4NN steady state {glp} must beat naive {naive}"
    );
}

#[test]
fn googlenet_and_caffenet_run_timing_only() {
    for (spec, dev) in [
        (models::googlenet_subset(8, 1), DeviceProps::p100()),
        (models::caffenet(8, 1), DeviceProps::p100()),
    ] {
        let mut ctx = ExecCtx::glp4nn(dev).timing_only();
        let mut net = Net::from_spec(&spec);
        net.forward(&mut ctx);
        net.backward(&mut ctx);
        net.forward(&mut ctx);
        let timings = ctx.take_timings();
        assert!(!timings.is_empty());
        assert!(
            timings
                .iter()
                .any(|t| matches!(t.mode, ExecMode::Concurrent { .. })),
            "{}: some layer must reach concurrent dispatch",
            spec.name
        );
    }
}
