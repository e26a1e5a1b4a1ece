//! Fault injection: deliberately break known-good schedules and assert the
//! sanitizer reports each class of fault with an actionable diagnostic.
//!
//! Covered classes:
//! - `missing-dependency` — a declared dep is dropped from a plan whose
//!   kernels conflict (static).
//! - `overlapping-chunk-regions` — a batch-split chunk's declared region
//!   is widened into its neighbour (static).
//! - `event-wait-cycle` — circular deps in a plan, down to a node that
//!   waits on itself (static), and a trace whose replay stalls on an event
//!   that is never recorded (dynamic).
//! - `data-race` — conflicting launches on unordered streams (dynamic).

use gpu_sim::{
    BufferId, ByteRange, Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig,
};
use sanitizer::{DiagnosticKind, DispatchPlan, SanitizeMode, Sanitizer};

fn kernel(name: &str) -> KernelDesc {
    KernelDesc::new(
        name,
        LaunchConfig::new(Dim3::linear(8), Dim3::linear(128), 32, 0),
        KernelCost::new(1.0e5, 1.0e4),
    )
}

/// A conv-like per-sample chain: im2col writes col[i], sgemm reads col[i]
/// and writes out[i].
fn sample_chain(i: u64) -> Vec<KernelDesc> {
    let col = BufferId::from_label("fi/col");
    let out = BufferId::from_label("fi/out");
    vec![
        kernel("im2col")
            .with_tag(i)
            .writes(col, ByteRange::span(i * 256, 256)),
        kernel("sgemm")
            .with_tag(i)
            .reads(col, ByteRange::span(i * 256, 256))
            .writes(out, ByteRange::span(i * 128, 128)),
    ]
}

#[test]
fn dropped_dep_in_plan_is_a_missing_dependency() {
    // Correct plan: each sample's sgemm depends on its im2col, samples on
    // separate streams. Clean.
    let groups: Vec<Vec<KernelDesc>> = (0..4).map(sample_chain).collect();
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.check_plan(&DispatchPlan::round_robin("good", &groups, 4));
    assert_eq!(san.reports(), &[], "correct plan must be silent");

    // Fault: rebuild the same schedule by hand but put sample 0's sgemm on
    // a different stream than its im2col and drop the dependency between
    // them — the RAW hazard on fi/col is no longer covered.
    let mut plan = DispatchPlan::new("dropped-dep");
    let chain = sample_chain(0);
    plan.add(chain[0].clone(), 0, &[]);
    plan.add(chain[1].clone(), 1, &[]); // should have been deps = [0]
    san.check_plan(&plan);
    assert_eq!(san.reports().len(), 1);
    let d = &san.reports()[0];
    assert_eq!(d.kind, DiagnosticKind::MissingDependency);
    let msg = d.to_string();
    assert!(msg.contains("missing-dependency"), "{msg}");
    assert!(msg.contains("im2col") && msg.contains("sgemm"), "{msg}");
    assert!(msg.contains("[0, 256)"), "{msg}");
}

#[test]
fn widened_chunk_region_overlaps_its_neighbour() {
    let mut groups: Vec<Vec<KernelDesc>> = (0..4).map(sample_chain).collect();
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.check_chunks("conv1/fwd", &groups);
    assert_eq!(san.reports(), &[], "disjoint chunks must be silent");

    // Fault: widen chunk 2's output region so it bleeds into chunk 3's.
    let out = BufferId::from_label("fi/out");
    groups[2][1] = kernel("sgemm")
        .with_tag(2)
        .writes(out, ByteRange::span(2 * 128, 200));
    san.check_chunks("conv1/fwd", &groups);
    let overlaps: Vec<_> = san
        .reports()
        .iter()
        .filter(|d| d.kind == DiagnosticKind::OverlappingChunkRegions)
        .collect();
    assert_eq!(overlaps.len(), 1);
    let msg = overlaps[0].to_string();
    assert!(msg.contains("overlapping-chunk-regions"), "{msg}");
    assert!(msg.contains("fi/out"), "diagnostic names the buffer: {msg}");
    // Overlap is [384, 456): chunk 3 starts at 384, chunk 2 now ends at 456.
    assert!(msg.contains("[384, 456)"), "{msg}");
}

#[test]
fn circular_plan_deps_are_an_event_wait_cycle() {
    // DispatchPlan::add doesn't validate deps, precisely so faults like
    // this can be constructed: node 0 waits on node 1 and vice versa.
    let mut plan = DispatchPlan::new("cycle");
    plan.add(kernel("a"), 0, &[1]);
    plan.add(kernel("b"), 1, &[0]);
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.check_plan(&plan);
    assert!(san
        .reports()
        .iter()
        .any(|d| d.kind == DiagnosticKind::EventWaitCycle));
}

#[test]
fn self_wait_in_plan_is_an_event_wait_cycle() {
    // The shortest cycle: a node whose own completion it waits for. The
    // rest of the plan is sound, so this is the only report.
    let mut plan = DispatchPlan::new("self-wait");
    plan.add(kernel("a"), 0, &[]);
    plan.add(kernel("b"), 1, &[0, 1]);
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.check_plan(&plan);
    let reports = san.reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].kind, DiagnosticKind::EventWaitCycle);
    let msg = reports[0].to_string();
    assert!(msg.contains("waits on itself"), "{msg}");
}

#[test]
fn unordered_conflicting_launches_are_a_data_race() {
    // Dynamic variant of the dropped dependency: enqueue a correct run
    // (record/wait orders the conflict), then an incorrect one (the wait
    // is dropped), and replay both.
    let buf = BufferId::from_label("fi/dyn");
    let mut dev = Device::new(DeviceProps::p100());
    let s0 = dev.create_stream();
    let s1 = dev.create_stream();
    let mut san = Sanitizer::new(SanitizeMode::Full);

    let ev = dev.create_event();
    dev.launch(s0, kernel("producer").writes(buf, ByteRange::new(0, 512)));
    dev.record_event(s0, ev);
    dev.wait_event(s1, ev);
    dev.launch(s1, kernel("consumer").reads(buf, ByteRange::new(0, 512)));
    dev.run();
    san.check_device(&dev);
    assert_eq!(san.reports(), &[], "event-ordered trace must be silent");

    dev.launch(s0, kernel("producer").writes(buf, ByteRange::new(0, 512)));
    dev.launch(s1, kernel("consumer").reads(buf, ByteRange::new(0, 512)));
    dev.run();
    san.check_device(&dev);
    assert_eq!(san.reports().len(), 1);
    let d = &san.reports()[0];
    assert_eq!(d.kind, DiagnosticKind::DataRace);
    let msg = d.to_string();
    assert!(
        msg.contains("producer") && msg.contains("consumer"),
        "{msg}"
    );
    assert!(msg.contains("[0, 512)"), "{msg}");
    assert!(
        msg.contains("stream"),
        "diagnostic names the streams: {msg}"
    );
}

#[test]
fn stalled_trace_replay_is_reported_as_deadlock() {
    // A wait on an event that is never recorded. The engine itself would
    // hang in run(), so the commands are only enqueued (the log records
    // them at enqueue time) and the replay is run directly.
    let mut dev = Device::new(DeviceProps::p100());
    let s0 = dev.create_stream();
    let ev = dev.create_event();
    dev.wait_event(s0, ev);
    dev.launch(s0, kernel("blocked"));
    let mut san = Sanitizer::new(SanitizeMode::Full);
    san.check_device(&dev);
    let cycles: Vec<_> = san
        .reports()
        .iter()
        .filter(|d| d.kind == DiagnosticKind::EventWaitCycle)
        .collect();
    assert_eq!(cycles.len(), 1);
    let msg = cycles[0].to_string();
    assert!(msg.contains("event-wait-cycle"), "{msg}");
}

#[test]
fn all_three_required_diagnostic_classes_have_distinct_labels() {
    // The acceptance criterion asks for >= 3 distinct diagnostic classes;
    // pin their wire labels so downstream tooling can match on them.
    let labels: std::collections::HashSet<&str> = [
        DiagnosticKind::MissingDependency,
        DiagnosticKind::OverlappingChunkRegions,
        DiagnosticKind::EventWaitCycle,
        DiagnosticKind::DataRace,
    ]
    .iter()
    .map(|k| k.label())
    .collect();
    assert_eq!(labels.len(), 4);
    assert!(labels.contains("missing-dependency"));
    assert!(labels.contains("overlapping-chunk-regions"));
    assert!(labels.contains("event-wait-cycle"));
    assert!(labels.contains("data-race"));
}
