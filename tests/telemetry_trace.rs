//! Golden-file and structural tests for the Chrome-trace export.
//!
//! The exported trace for a fixed (net, mode, seed) workload must be
//! **byte-stable**: all span timestamps come from the simulated clock,
//! registries are ordered, and flow ids are sequential — so the same
//! workload always serializes to the same bytes. The golden file lives at
//! `tests/golden/cifar10_glp4nn.trace.json`; regenerate it with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p glp4nn-bench --test integration telemetry_trace::
//! ```
//!
//! after an intentional trace-format or instrumentation change, and
//! review the diff like any other code change.

use glp4nn_bench::trace::{trace_multi_gpu, trace_net, trace_net_with_stats};
use nn::DispatchMode;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cifar10_glp4nn.trace.json")
}

/// The fixed workload the golden file pins: CIFAR10, GLP4NN dispatch,
/// smoke-sized batch, two iterations (profiled first, replayed second).
fn golden_trace() -> (telemetry::Telemetry, gpu_sim::DeviceStats) {
    trace_net_with_stats("CIFAR10", DispatchMode::Glp4nn, true)
}

#[test]
fn chrome_trace_export_matches_golden_file() {
    let (t, _) = golden_trace();
    let json = t.chrome_trace();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); run with UPDATE_GOLDEN=1 to create",
            path.display()
        )
    });
    assert!(
        json == golden,
        "exported trace diverged from {} — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

#[test]
fn export_is_byte_stable_across_runs() {
    let a = trace_net("CIFAR10", DispatchMode::Glp4nn, true).chrome_trace();
    let b = trace_net("CIFAR10", DispatchMode::Glp4nn, true).chrome_trace();
    assert!(a == b, "two identical runs exported different bytes");
}

#[test]
fn golden_trace_is_valid_and_strictly_nested() {
    let (t, _) = golden_trace();
    let json = t.chrome_trace();
    let summary = telemetry::validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("structural validation failed: {e}"));
    assert_eq!(
        summary.spans,
        t.spans().len(),
        "every span exports one B/E pair"
    );
    assert_eq!(summary.instants, t.instants().len());
    assert_eq!(summary.flows, t.flows().len());
    assert!(
        summary.tracks >= 2,
        "expected at least a stream track and the host track"
    );
}

#[test]
fn kernel_span_total_reconciles_with_device_stats() {
    let (t, stats) = golden_trace();
    assert_eq!(
        t.span_time_ns(0, "kernel"),
        stats.total_kernel_time_ns,
        "sum of kernel span durations must equal DeviceStats::total_kernel_time_ns"
    );
    assert_eq!(
        t.spans().iter().filter(|s| s.cat == "kernel").count(),
        stats.kernels_completed,
        "one kernel span per completed kernel"
    );
    assert_eq!(
        t.metrics().counter("gpu.kernels_completed"),
        stats.kernels_completed as u64
    );
}

#[test]
fn all_reproduce_trace_outputs_validate() {
    // The same net x mode matrix the `reproduce trace --smoke` subcommand
    // emits, plus the multi-GPU overlap run — every export must pass the
    // structural validator (balanced, strictly nested B/E per track;
    // paired flow halves).
    for mode in [
        DispatchMode::Naive,
        DispatchMode::FixedStreams(8),
        DispatchMode::Glp4nn,
    ] {
        for net in ["CIFAR10", "Siamese"] {
            let t = trace_net(net, mode, true);
            let json = t.chrome_trace();
            telemetry::validate_chrome_trace(&json)
                .unwrap_or_else(|e| panic!("{net}/{mode:?}: {e}"));
        }
    }
    let t = trace_multi_gpu(true);
    let summary = telemetry::validate_chrome_trace(&t.chrome_trace())
        .unwrap_or_else(|e| panic!("multi-gpu: {e}"));
    assert_eq!(
        summary.flows,
        t.flows().len(),
        "P2P flow arrows survive export"
    );
    assert!(summary.flows > 0, "multi-GPU run must emit P2P flow arrows");
}
