//! Property tests: the sanitizer is silent on every correctly-constructed
//! schedule, and a single injected fault — a dropped dependency or a
//! widened chunk region — is always reported.

use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc, LaunchConfig};
use proptest::prelude::*;
use sanitizer::{DiagnosticKind, DispatchPlan, SanitizeMode, Sanitizer};

fn kernel(name: &str, tag: u64) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
        KernelCost::new(1.0e5, 1.0e4),
    )
    .with_tag(tag)
}

/// A batch-split schedule: `chunks` chains of `depth` kernels. Kernel `k`
/// of chunk `i` reads the chunk's stage-`k-1` region and writes its
/// stage-`k` region; per-chunk regions tile each stage buffer contiguously
/// with `stride` bytes, so distinct chunks are disjoint by construction.
fn schedule(chunks: usize, depth: usize, stride: u64) -> Vec<Vec<KernelDesc>> {
    (0..chunks as u64)
        .map(|i| {
            (0..depth)
                .map(|k| {
                    let r = ByteRange::span(i * stride, stride);
                    let mut kd =
                        kernel("stage", i).writes(BufferId::from_label(&format!("pt/buf{k}")), r);
                    if k > 0 {
                        kd = kd.reads(BufferId::from_label(&format!("pt/buf{}", k - 1)), r);
                    }
                    kd
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any legal round-robin interleaving of a valid batch-split schedule
    /// passes all static checks, whatever the pool size.
    #[test]
    fn valid_schedules_are_silent(
        chunks in 1usize..8,
        depth in 1usize..4,
        stride_elems in 1u64..64,
        pool in 1usize..6,
    ) {
        let groups = schedule(chunks, depth, stride_elems * 4);
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.check_chunks("pt", &groups);
        san.check_plan(&DispatchPlan::round_robin("pt", &groups, pool));
        prop_assert_eq!(san.reports(), &[]);
        // The checks genuinely ran (unless there was nothing to compare).
        if chunks > 1 {
            prop_assert!(san.stats().chunk_pairs > 0);
            prop_assert!(san.stats().plan_pairs > 0);
        }
    }

    /// Dropping the dependency between two consecutive chain kernels and
    /// scattering the chain across streams is always reported: a chain has
    /// no alternative dependency path, so the RAW hazard is uncovered.
    #[test]
    fn dropped_dep_is_always_reported(
        chunks in 1usize..6,
        depth in 2usize..4,
        victim_chunk in 0usize..6,
        victim_link in 0usize..3,
        stride_elems in 1u64..64,
    ) {
        let victim_chunk = victim_chunk % chunks;
        let victim_link = 1 + victim_link % (depth - 1).max(1);
        let groups = schedule(chunks, depth, stride_elems * 4);

        // Every kernel on its own stream, consecutive chain kernels
        // linked by an explicit dep: declared deps are the only ordering.
        let build = |drop: Option<(usize, usize)>| {
            let mut plan = DispatchPlan::new("pt");
            let mut idx = 0usize;
            for (c, chain) in groups.iter().enumerate() {
                for (k, kd) in chain.iter().enumerate() {
                    let deps: Vec<usize> = if k == 0 || drop == Some((c, k)) {
                        vec![]
                    } else {
                        vec![idx - 1]
                    };
                    plan.add(kd.clone(), idx, &deps);
                    idx += 1;
                }
            }
            plan
        };

        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.check_plan(&build(None));
        prop_assert_eq!(san.reports(), &[]);

        san.check_plan(&build(Some((victim_chunk, victim_link))));
        let missing: Vec<_> = san
            .reports()
            .iter()
            .filter(|d| d.kind == DiagnosticKind::MissingDependency)
            .collect();
        prop_assert!(!missing.is_empty(), "dropped dep must be reported");
    }

    /// Widening one chunk's write region into its neighbour is always
    /// caught by the chunk-disjointness check.
    #[test]
    fn widened_region_is_always_reported(
        chunks in 2usize..8,
        depth in 1usize..4,
        victim in 0usize..8,
        widen_elems in 1u64..32,
        stride_elems in 1u64..64,
    ) {
        // Widen any chunk but the last, into its right-hand neighbour.
        let victim = victim % (chunks - 1);
        let stride = stride_elems * 4;
        let mut groups = schedule(chunks, depth, stride);
        let last = depth - 1;
        let r = ByteRange::span(victim as u64 * stride, stride + widen_elems * 4);
        groups[victim][last] = kernel("stage", victim as u64)
            .writes(BufferId::from_label(&format!("pt/buf{last}")), r);

        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.check_chunks("pt", &groups);
        let overlaps: Vec<_> = san
            .reports()
            .iter()
            .filter(|d| d.kind == DiagnosticKind::OverlappingChunkRegions)
            .collect();
        prop_assert!(!overlaps.is_empty(), "widened region must be reported");
    }
}
