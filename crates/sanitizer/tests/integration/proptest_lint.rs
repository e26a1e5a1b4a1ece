//! Property tests for the plan linter and the sample-slot check.
//!
//! 1. **PW001 is sound**: removing *every* event edge the linter flags as
//!    redundant leaves the happens-before relation (transitive closure of
//!    declared deps + per-stream FIFO order) exactly unchanged.
//! 2. **The sample-slot check is sound**: whenever declared slots admit a
//!    capture's chunk groups, the pairwise checker finds no cross-chunk
//!    conflict in them.

use crate::refs;
use gpu_sim::{BufferId, ByteRange};
use gpu_sim::{Dim3, KernelCost, KernelDesc, LaunchConfig};
use proptest::prelude::*;
use sanitizer::{LintConfig, Linter, SampleSlots, SanitizeMode, Sanitizer};
use std::collections::BTreeSet;

fn kernel(name: &str) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 32, 0),
        KernelCost::new(1.0e5, 1.0e4),
    )
}

/// The happens-before edge set a plan induces: declared deps
/// plus the implicit FIFO edge from each node to its stream predecessor —
/// minus `removed` (declared edges only, as `(dep, node)` pairs).
fn hb_closure(
    streams: &[usize],
    deps: &[Vec<usize>],
    removed: &BTreeSet<(usize, usize)>,
) -> Vec<BTreeSet<usize>> {
    let n = streams.len();
    let mut succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut last: std::collections::BTreeMap<usize, usize> = Default::default();
    for i in 0..n {
        for &d in &deps[i] {
            if !removed.contains(&(d, i)) {
                succ[d].insert(i);
            }
        }
        if let Some(&p) = last.get(&streams[i]) {
            succ[p].insert(i);
        }
        last.insert(streams[i], i);
    }
    // Floyd–Warshall-ish closure; plans are tiny.
    let mut reach: Vec<BTreeSet<usize>> = succ.clone();
    for _ in 0..n {
        for i in 0..n {
            let step: BTreeSet<usize> = reach[i]
                .iter()
                .flat_map(|&j| reach[j].iter().copied())
                .collect();
            reach[i].extend(step);
        }
    }
    reach
}

/// Parse the dep endpoint out of a PW001 message ("… on node {d} (stream").
fn pw001_dep(message: &str) -> usize {
    let rest = message
        .split("on node ")
        .nth(1)
        .expect("PW001 message names the dep node");
    rest.split_whitespace()
        .next()
        .and_then(|w| w.parse().ok())
        .expect("dep node index parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Removing all PW001-flagged edges preserves happens-before exactly.
    #[test]
    fn removing_flagged_redundant_edges_preserves_hb(
        streams in prop::collection::vec(0usize..3, 2..12),
        seed in any::<u64>(),
    ) {
        let n = streams.len();
        // Deterministic pseudo-random dep sets from the seed.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut s = seed | 1;
        for (i, d) in deps.iter_mut().enumerate() {
            for c in 0..i {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if s >> 61 == 0 {
                    d.push(c); // ~1/8 of candidate edges
                }
            }
        }
        let plan: Vec<_> = (0..n).map(|i| (kernel("k"), streams[i], deps[i].clone())).collect();
        let mut linter = Linter::new(LintConfig {
            mem_bytes: 1 << 40,
            max_resident_threads: 1 << 16,
        });
        linter.lint_plan("pt/hb", &refs(&plan), false, true);
        let flagged: BTreeSet<(usize, usize)> = linter
            .diags()
            .iter()
            .filter(|d| d.code.code() == "PW001")
            .map(|d| (pw001_dep(&d.message), d.node.expect("PW001 anchors to the waiter")))
            .collect();
        let before = hb_closure(&streams, &deps, &BTreeSet::new());
        let after = hb_closure(&streams, &deps, &flagged);
        prop_assert_eq!(before, after, "flagged {:?}", flagged);
    }

    /// The sample-slot check is sound: whatever it admits, the pairwise
    /// checker finds no cross-chunk conflict in.
    #[test]
    fn admitted_groups_never_conflict_pairwise(
        decls in prop::collection::vec((0usize..3, 1u64..5), 1..3),
        accs in prop::collection::vec(
            (0u8..4, 0usize..3, 0usize..3, any::<bool>(), 1u64..5, 0u64..4, 1u64..4),
            1..5,
        ),
        chunks in 2u64..7,
    ) {
        // Units of 64 bytes. Each access tuple is (mode, slot, buffer,
        // is_write, stride, offset, len); every chunk performs every access:
        // modes 0 and 1 land inside declared slot `slot`, mode 2 is
        // per-chunk at its own stride, mode 3 is one whole-buffer range.
        let buf = |b: usize| BufferId::from_label(&format!("pt/slot{b}"));
        let slots = SampleSlots(decls.iter().map(|&(b, s)| (buf(b), s * 64)).collect());
        let groups: Vec<Vec<KernelDesc>> = (0..chunks)
            .map(|i| {
                let mut k = kernel("k").with_tag(i);
                for &(mode, slot, b, is_write, stride, off, len) in &accs {
                    let (sb, s) = decls[slot % decls.len()];
                    let (b, start, len) = match mode {
                        0 | 1 => (buf(sb), i * s + off % s, len.min(s - off % s)),
                        2 => (buf(b), i * stride + off, len),
                        _ => (buf(b), off, len),
                    };
                    let r = ByteRange::span(start * 64, len * 64);
                    k = if is_write { k.writes(b, r) } else { k.reads(b, r) };
                }
                vec![k]
            })
            .collect();
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        let certified = san.check_chunks_spec("pt", "pt/site", &slots, &groups);
        prop_assert_eq!(certified, slots.admits(&groups).is_ok());
        if certified {
            san.check_chunks("pt", &groups);
            prop_assert!(
                san.reports().is_empty(),
                "admitted groups conflict: {:?}", san.reports()
            );
        }
    }
}
