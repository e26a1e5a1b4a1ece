//! Capture-once / replay-many equivalence (the ExecPlan IR contract).
//!
//! Replaying a frozen execution plan must be *observationally identical*
//! to the imperative dispatch loop it replaced: same simulated timeline
//! (every kernel's start/end timestamp, stream, and name) and bitwise
//! identical tensor outputs. The imperative baseline is plan reuse turned
//! off — each iteration then re-captures its schedule from scratch, which
//! is exactly what the old per-iteration loops did.
//!
//! Also proves the cache key is honest: batch size, chunk count, dispatch
//! mode, device, and `OptimConfig` each force a re-capture, while an
//! unchanged key replays without capturing (asserted with the
//! capture-count probes).

use glp4nn::analyzer::KernelAnalyzer;
use glp4nn::scheduler::{RuntimeScheduler, Schedule};
use glp4nn::streams::StreamManager;
use glp4nn::tracker::ResourceTracker;
use glp4nn::{LayerKey, OptimConfig, Phase};
use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};
use nn::data::SyntheticDataset;
use nn::{models, DispatchMode, ExecCtx, Net, Solver, SolverConfig};
use proptest::prelude::*;
use tensor::Blob;

/// A kernel's observable execution record.
type TraceRow = (String, u64, u32, u64, u64);

fn timeline(dev: &Device) -> Vec<TraceRow> {
    dev.trace()
        .iter()
        .map(|t| {
            (
                t.name.to_string(),
                t.tag,
                t.stream.raw(),
                t.start_ns,
                t.end_ns,
            )
        })
        .collect()
}

fn arb_device() -> impl Strategy<Value = DeviceProps> {
    prop::sample::select(vec![
        DeviceProps::k40c(),
        DeviceProps::p100(),
        DeviceProps::titan_xp(),
    ])
}

/// Random layer shapes: `n` independent chains of 1-3 kernels with varied
/// geometry (the per-sample groups of a conv-like layer).
fn arb_groups() -> impl Strategy<Value = Vec<Vec<KernelDesc>>> {
    (1usize..10, 1usize..4, 1u32..48, 1u32..9, 0u32..3).prop_map(
        |(n, chain, blocks, warps, smem_sel)| {
            (0..n as u64)
                .map(|i| {
                    (0..chain)
                        .map(|c| {
                            KernelDesc::new(
                                &format!("k{c}"),
                                LaunchConfig::new(
                                    Dim3::linear(blocks + c as u32),
                                    Dim3::linear(warps * 32),
                                    32,
                                    [0u32, 2048, 8192][smem_sel as usize],
                                ),
                                KernelCost::new(1.0e5 * (c as f64 + 1.0), 5.0e4),
                            )
                            .with_tag(i)
                        })
                        .collect()
                })
                .collect()
        },
    )
}

fn mode_ctx(props: DeviceProps, mode: DispatchMode) -> ExecCtx {
    match mode {
        DispatchMode::Glp4nn => ExecCtx::glp4nn(props),
        m => ExecCtx::with_mode(props, m),
    }
    .timing_only()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random layer shapes on every device preset and every dispatch
    /// mode, N iterations through the plan cache produce the identical
    /// simulated timeline to N iterations of fresh-capture-per-iteration
    /// (the imperative baseline).
    #[test]
    fn replay_timeline_matches_imperative(
        props in arb_device(),
        groups in arb_groups(),
    ) {
        for mode in [
            DispatchMode::Naive,
            DispatchMode::FixedStreams(4),
            DispatchMode::Glp4nn,
        ] {
            let mut replayed = mode_ctx(props.clone(), mode);
            let mut imperative = mode_ctx(props.clone(), mode).without_plan_reuse();
            for ctx in [&mut replayed, &mut imperative] {
                ctx.net_name = "propnet".to_string();
                ctx.batch = groups.len();
                for _ in 0..3 {
                    ctx.dispatch_split(
                        "layer",
                        Phase::Forward,
                        groups.len(),
                        || None,
                        || groups.clone(),
                    );
                }
            }
            prop_assert_eq!(
                timeline(&replayed.device),
                timeline(&imperative.device),
                "timelines diverge under {:?}",
                mode
            );
        }
    }
}

/// Training with plan reuse produces bitwise identical losses and
/// parameters to training with per-iteration capture, for every dispatch
/// mode — replay changes scheduling cost, never results.
#[test]
fn replayed_training_is_bitwise_identical() {
    let batch = 4;
    let iters = 3;
    let run = |mode: DispatchMode, reuse: bool| -> (Vec<u32>, Vec<u32>) {
        let mut ctx = mode_ctx(DeviceProps::p100(), mode);
        ctx.compute = true;
        if !reuse {
            ctx = ctx.without_plan_reuse();
        }
        let net = Net::from_spec(&models::cifar10_quick(batch, 42));
        let mut solver = Solver::new(net, SolverConfig::default());
        let ds = SyntheticDataset::cifar_like(42);
        let mut losses = Vec::new();
        for it in 0..iters {
            let mut data = std::mem::replace(solver.net.blob_mut("data"), Blob::empty());
            let mut label = std::mem::replace(solver.net.blob_mut("label"), Blob::empty());
            ds.fill_batch(it * batch, &mut data, &mut label);
            *solver.net.blob_mut("data") = data;
            *solver.net.blob_mut("label") = label;
            losses.push(solver.step(&mut ctx).to_bits());
        }
        let params: Vec<u32> = solver
            .net
            .params_mut()
            .iter()
            .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
            .collect();
        (losses, params)
    };
    for mode in [
        DispatchMode::Naive,
        DispatchMode::FixedStreams(8),
        DispatchMode::Glp4nn,
    ] {
        let (replay_losses, replay_params) = run(mode, true);
        let (imp_losses, imp_params) = run(mode, false);
        assert_eq!(replay_losses, imp_losses, "losses diverge under {mode:?}");
        assert_eq!(replay_params, imp_params, "params diverge under {mode:?}");
    }
}

fn small_groups(n: u64) -> Vec<Vec<KernelDesc>> {
    (0..n)
        .map(|i| {
            vec![KernelDesc::new(
                "sgemm",
                LaunchConfig::new(Dim3::linear(16), Dim3::linear(128), 32, 2048),
                KernelCost::new(2.0e6, 1.0e5),
            )
            .with_tag(i)]
        })
        .collect()
}

fn split(ctx: &mut ExecCtx, phase: Phase, n: u64) {
    ctx.dispatch_split("conv1", phase, n as usize, || None, || small_groups(n));
}

/// The ExecCtx-level cache key: same (layer, phase, batch, chunks, mode)
/// replays; changing batch size, chunk count, or dispatch mode misses and
/// re-captures.
#[test]
fn ctx_plan_cache_keys_on_batch_chunks_and_mode() {
    let mut ctx =
        ExecCtx::with_mode(DeviceProps::p100(), DispatchMode::FixedStreams(4)).timing_only();
    ctx.net_name = "net".to_string();
    ctx.batch = 8;
    split(&mut ctx, Phase::Forward, 8);
    assert_eq!(ctx.plan_captures(), 1, "first sight captures");
    split(&mut ctx, Phase::Forward, 8);
    assert_eq!(ctx.plan_captures(), 1, "same key must hit");
    ctx.batch = 16;
    split(&mut ctx, Phase::Forward, 8);
    assert_eq!(ctx.plan_captures(), 2, "batch-size change must miss");
    split(&mut ctx, Phase::Forward, 4);
    assert_eq!(ctx.plan_captures(), 3, "chunk-count change must miss");
    ctx.mode = DispatchMode::Naive;
    split(&mut ctx, Phase::Forward, 4);
    assert_eq!(ctx.plan_captures(), 4, "dispatch-mode change must miss");
    split(&mut ctx, Phase::Backward, 4);
    assert_eq!(ctx.plan_captures(), 5, "phase change must miss");
    split(&mut ctx, Phase::Backward, 4);
    assert_eq!(ctx.plan_captures(), 5, "warm key must keep hitting");
}

/// The scheduler-level cache key: the optimizer configuration is part of
/// it (fusion/reordering change the captured schedule), and each device's
/// analyzer caches privately.
#[test]
fn scheduler_plan_cache_keys_on_optim_and_device() {
    let props = DeviceProps::k40c();
    let mut dev = Device::new(props.clone());
    let tracker = ResourceTracker::new(1);
    let mut analyzer = KernelAnalyzer::new(props.clone());
    let streams = StreamManager::new(1);
    let key = LayerKey::forward("net", "conv1").with_chunks(8);

    let mut plain = RuntimeScheduler::with_optim(0, OptimConfig::default());
    let mut tuned = RuntimeScheduler::with_optim(0, OptimConfig::all());

    let groups8 = || Schedule::groups(small_groups(8));
    let captures_solves = |an: &KernelAnalyzer| (an.exec_plans.captures(), an.solves());

    let exec = |s: &mut RuntimeScheduler, dev: &mut Device, an: &mut KernelAnalyzer| {
        s.execute(dev, &tracker, an, &streams, &key, groups8(), None)
            .unwrap()
    };

    exec(&mut plain, &mut dev, &mut analyzer); // profiling, no capture
    assert_eq!(captures_solves(&analyzer), (0, 1));
    exec(&mut plain, &mut dev, &mut analyzer); // capture + replay
    assert_eq!(captures_solves(&analyzer), (1, 1));
    exec(&mut plain, &mut dev, &mut analyzer); // pure replay
    exec(&mut plain, &mut dev, &mut analyzer);
    assert_eq!(
        captures_solves(&analyzer),
        (1, 1),
        "steady state must not re-capture or re-solve"
    );

    // Same analyzer, different optimizer config: the concurrency plan is
    // shared but the execution plan must be re-captured.
    exec(&mut tuned, &mut dev, &mut analyzer);
    assert_eq!(
        captures_solves(&analyzer),
        (2, 1),
        "OptimConfig change must miss the exec-plan cache"
    );

    // A different device gets a private analyzer (and its own stream
    // pool), so nothing is shared.
    let mut dev2 = Device::new(DeviceProps::titan_xp());
    let mut analyzer2 = KernelAnalyzer::new(DeviceProps::titan_xp());
    let streams2 = StreamManager::new(1);
    let exec2 = |s: &mut RuntimeScheduler, dev: &mut Device, an: &mut KernelAnalyzer| {
        s.execute(dev, &tracker, an, &streams2, &key, groups8(), None)
            .unwrap()
    };
    exec2(&mut plain, &mut dev2, &mut analyzer2);
    exec2(&mut plain, &mut dev2, &mut analyzer2);
    assert_eq!(
        captures_solves(&analyzer2),
        (1, 1),
        "new device must profile and capture afresh"
    );
    assert_eq!(
        captures_solves(&analyzer),
        (2, 1),
        "first device's cache is untouched"
    );
}
