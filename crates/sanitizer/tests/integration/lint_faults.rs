//! Fault injection for the plan linter: each lint code is provoked by a
//! deliberately constructed plan (or slot declaration) and must surface
//! with exactly that code, and rendering must be byte-identical across
//! runs.
//!
//! Covered codes:
//! - `PW001` — an event edge already implied by the rest of happens-before.
//! - `PW002` — independent kernels serialized on one stream.
//! - `PW003` — recorded events never consumed across streams.
//! - `PL002` — chunks whose regions overlap (found by the pairwise fallback).
//! - `PL004` — declared sample slots that do not admit the built kernels.
//! - `PL005` — peak live-buffer footprint over device memory.

use crate::refs;
use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc, LaunchConfig};
use sanitizer::{DiagnosticKind, LintConfig, SampleSlots, SanitizeMode, Sanitizer};

fn kernel(name: &str) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 32, 0),
        KernelCost::new(1.0e5, 1.0e4),
    )
}

fn cfg() -> LintConfig {
    LintConfig {
        mem_bytes: 1 << 30,
        max_resident_threads: 1 << 16,
    }
}

fn lint_codes(san: &Sanitizer) -> Vec<&'static str> {
    san.linter()
        .expect("linter attached")
        .diags()
        .iter()
        .map(|d| d.code.code())
        .collect()
}

#[test]
fn redundant_event_edge_surfaces_as_pw001() {
    // a(s0) → b(s1) → c(s2) plus a direct wait c → a: the direct edge is
    // outside the transitive reduction.
    let p = [
        (kernel("a"), 0, vec![]),
        (kernel("b"), 1, vec![0]),
        (kernel("c"), 2, vec![1, 0]),
    ];
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    san.check_plan_ref("lf/redundant", &refs(&p));
    san.lint_plan_nodes("lf/redundant", &refs(&p), true, false);
    assert!(san.reports().is_empty(), "{:?}", san.reports());
    assert!(
        lint_codes(&san).contains(&"PW001"),
        "{:?}",
        lint_codes(&san)
    );
}

#[test]
fn same_stream_independent_pair_surfaces_as_pw002() {
    let buf = BufferId::from_label("lf/pw002");
    let p = [
        (kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
        (kernel("w1").writes(buf, ByteRange::new(64, 128)), 0, vec![]),
    ];
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    san.check_plan_ref("lf/serial", &refs(&p));
    san.lint_plan_nodes("lf/serial", &refs(&p), false, false);
    assert!(san.reports().is_empty(), "{:?}", san.reports());
    assert_eq!(lint_codes(&san), vec!["PW002"]);
}

#[test]
fn unconsumed_events_surface_as_pw003() {
    let p = [(kernel("a"), 0, vec![]), (kernel("b"), 1, vec![])];
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    san.lint_plan_nodes("lf/unused", &refs(&p), true, false);
    assert_eq!(lint_codes(&san), vec!["PW003"]);
}

#[test]
fn symbolic_refutation_surfaces_as_pl002_and_a_diagnostic() {
    // Declared stride 256 but length 384: each chunk spills 128 bytes into
    // its neighbour's slot. The slots miss (PL004), and the pairwise
    // fallback finds both neighbour overlaps (PL002 and a diagnostic each).
    let buf = BufferId::from_label("lf/pl002");
    let slots = SampleSlots(vec![(buf, 256)]);
    let groups: Vec<Vec<KernelDesc>> = (0..3u64)
        .map(|i| {
            vec![kernel("k")
                .with_tag(i)
                .writes(buf, ByteRange::span(i * 256, 384))]
        })
        .collect();
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    let certified = san.check_chunks_spec("lf/refuted", "lf/net/conv/fwd", &slots, &groups);
    assert!(!certified);
    assert_eq!(lint_codes(&san), vec!["PL004", "PL002", "PL002"]);
    let diags = san.linter().unwrap().diags();
    assert!(diags[0].message.contains("lf/net/conv/fwd"), "{diags:?}");
    assert!(diags[1].message.contains("[256, 384)"), "{diags:?}");
    // Each overlap is also a first-class sanitizer diagnostic.
    assert_eq!(san.reports().len(), 2);
    for r in san.reports() {
        assert_eq!(r.kind, DiagnosticKind::OverlappingChunkRegions);
        assert_eq!(r.context, "lf/refuted");
    }
    let stats = san.stats();
    assert_eq!(stats.certified_captures, 0);
    assert_eq!(stats.symbolic_chunks, 0);
    assert_eq!(stats.pairwise_fallbacks, 1);
}

#[test]
fn declaration_drift_surfaces_as_pl004_and_falls_back() {
    // The slots say stride 256; the built kernels actually stride 512.
    // The slots must refuse the groups and pairwise checking must run (and
    // stay silent — the real kernels are fine).
    let buf = BufferId::from_label("lf/pl004");
    let slots = SampleSlots(vec![(buf, 256)]);
    let groups: Vec<Vec<KernelDesc>> = (0..3u64)
        .map(|i| {
            vec![kernel("k")
                .with_tag(i)
                .writes(buf, ByteRange::span(i * 512, 256))]
        })
        .collect();
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(cfg());
    let certified = san.check_chunks_spec("lf/drift", "lf/net/conv2/fwd", &slots, &groups);
    assert!(!certified);
    assert_eq!(lint_codes(&san), vec!["PL004"]);
    let message = &san.linter().unwrap().diags()[0].message;
    assert!(
        message.contains("lf/net/conv2/fwd") && message.contains("chunk 1"),
        "{message}"
    );
    assert!(san.reports().is_empty(), "{:?}", san.reports());
    assert_eq!(san.stats().certified_captures, 0);
    assert_eq!(san.stats().pairwise_fallbacks, 1);
    assert!(
        san.stats().chunk_pairs > 0,
        "pairwise checker must have run"
    );
}

#[test]
fn over_capacity_buffer_set_surfaces_as_pl005() {
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(LintConfig {
        mem_bytes: 1000,
        max_resident_threads: 1 << 16,
    });
    let (big0, big1) = (
        BufferId::from_label("lf/big0"),
        BufferId::from_label("lf/big1"),
    );
    let p = [
        (kernel("w0").writes(big0, ByteRange::new(0, 600)), 0, vec![]),
        (
            kernel("w1")
                .reads(big0, ByteRange::new(0, 600))
                .writes(big1, ByteRange::new(0, 600)),
            0,
            vec![0],
        ),
    ];
    san.lint_plan_nodes("lf/oom", &refs(&p), false, false);
    assert_eq!(lint_codes(&san), vec!["PL005"]);
    let rendered = san.linter().unwrap().render();
    assert!(rendered.contains("1200 B"), "{rendered}");
}

#[test]
fn rendering_is_byte_identical_across_runs() {
    let run = || {
        let buf = BufferId::from_label("lf/det");
        let p = [
            (kernel("a").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (kernel("b").writes(buf, ByteRange::new(64, 128)), 1, vec![0]),
            (
                kernel("c").writes(buf, ByteRange::new(128, 192)),
                2,
                vec![1, 0],
            ),
            (kernel("d").writes(buf, ByteRange::new(192, 256)), 2, vec![]),
        ];
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.attach_linter(cfg());
        san.check_plan_ref("lf/det", &refs(&p));
        san.lint_plan_nodes("lf/det", &refs(&p), true, false);
        san.linter().unwrap().render()
    };
    let first = run();
    assert!(!first.is_empty());
    assert_eq!(first, run());
    assert_eq!(first, run());
}
