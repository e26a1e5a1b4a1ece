//! Cross-crate integration tests: one test binary, one module per former
//! file, registered on `glp4nn-bench` (which already depends on every
//! crate). Run one module with
//!
//! ```text
//! cargo test -p glp4nn-bench --test integration <module>::
//! ```
//!
//! The allocation probes share the binary's one counting allocator;
//! counting is per thread and off by default, so the other tests' threads
//! never land in a probe's window (`common/counting_alloc.rs`).

mod common;

#[global_allocator]
static ALLOCATOR: common::counting_alloc::CountingAlloc = common::counting_alloc::CountingAlloc;

mod convergence_invariance;
mod data_parallel_fabric;
mod dispatch_saturation;
mod engine_alloc_probe;
mod engine_golden;
mod extensions;
mod fabric_determinism;
mod fabric_golden;
mod multi_gpu;
mod plan_alloc_probe;
mod plan_replay;
mod sanitize_models;
mod serving_smoke;
mod speedup_shapes;
mod telemetry_trace;
mod timing_only_alloc_probe;
mod workflow_end_to_end;
