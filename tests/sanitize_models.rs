//! End-to-end schedule sanitizing of the paper's four networks.
//!
//! Two properties, checked per model at several batch sizes:
//! - the GLP4NN batch-split path declares pairwise-disjoint chunk output
//!   regions (the premise of convergence invariance), and
//! - a full training iteration under every dispatch mode survives both
//!   static plan validation and dynamic happens-before replay with zero
//!   diagnostics.
//!
//! `SanitizerStats` counters prove the checks actually ran rather than
//! silently skipping undeclared kernels.

use glp4nn_bench::{iteration_timings, net_spec_with_batch};
use gpu_sim::DeviceProps;
use nn::{DispatchMode, ExecCtx, Net};
use sanitizer::{SanitizeMode, Sanitizer};

const MODELS: [&str; 4] = ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"];

fn sanitized_iteration(net: &str, batch: usize, mode: DispatchMode) -> ExecCtx {
    let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), mode)
        .timing_only()
        .sanitize(SanitizeMode::Full);
    let mut net_obj = Net::from_spec(&net_spec_with_batch(net, batch, 1));
    // Two iterations so GLP4NN reaches concurrent steady state (the first
    // profiles on the default stream).
    for _ in 0..2 {
        iteration_timings(&mut ctx, &mut net_obj);
    }
    ctx
}

#[test]
fn glp4nn_batch_split_regions_are_disjoint_for_all_models() {
    for net in MODELS {
        for batch in [2usize, 4, 8] {
            let ctx = sanitized_iteration(net, batch, DispatchMode::Glp4nn);
            let stats = ctx.sanitizer.stats();
            // Chunk disjointness is established by the sites' sample slots
            // with pairwise comparison as the fallback; either counter
            // proves the check ran.
            assert!(
                stats.symbolic_chunks + stats.chunk_pairs > 0,
                "{net}@{batch}: no chunks verified — layers stopped declaring accesses?"
            );
            assert!(
                stats.certified_captures > 0,
                "{net}@{batch}: no capture admitted by its sample slots"
            );
            let overlaps: Vec<_> = ctx
                .sanitizer
                .reports()
                .iter()
                .filter(|d| d.kind == sanitizer::DiagnosticKind::OverlappingChunkRegions)
                .collect();
            assert!(
                overlaps.is_empty(),
                "{net}@{batch}: chunk regions overlap: {overlaps:?}"
            );
        }
    }
}

#[test]
fn full_iteration_is_race_free_under_every_dispatch_mode() {
    for net in MODELS {
        for mode in [
            DispatchMode::Naive,
            DispatchMode::FixedStreams(8),
            DispatchMode::Glp4nn,
        ] {
            let ctx = sanitized_iteration(net, 4, mode);
            let stats = ctx.sanitizer.stats();
            assert!(
                stats.plans_checked > 0 && stats.trace_kernels > 0,
                "{net} under {mode:?}: sanitizer did not run ({stats:?})"
            );
            assert!(
                ctx.sanitizer.reports().is_empty(),
                "{net} under {mode:?}: {:?}",
                ctx.sanitizer.reports()
            );
        }
    }
}

#[test]
fn larger_batches_scale_the_checked_pairs() {
    // Chunk pairs grow quadratically with the batch: a quick sanity check
    // that per-sample declarations track the batch size. Capture admits
    // these sites by their sample slots, so the pairwise checker runs on
    // one staged iteration's chunk groups directly.
    let chunk_pairs = |batch: usize| {
        let mut ctx = ExecCtx::glp4nn(DeviceProps::p100()).timing_only();
        let mut net = Net::from_spec(&net_spec_with_batch("CIFAR10", batch, 1));
        ctx.begin_staging();
        iteration_timings(&mut ctx, &mut net);
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        for site in ctx.take_staged() {
            san.check_chunks(&site.layer, &site.groups);
        }
        assert!(
            san.reports().is_empty(),
            "batch {batch}: {:?}",
            san.reports()
        );
        san.stats().chunk_pairs
    };
    let (small, large) = (chunk_pairs(2), chunk_pairs(8));
    assert!(
        large > small * 4,
        "chunk pairs: batch 8 = {large} vs batch 2 = {small}"
    );
}
