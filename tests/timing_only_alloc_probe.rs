//! Allocation probe for timing-only runs (first-touch blob storage).
//!
//! A timing-only context (`compute == false`) reads no tensor, so it must
//! not pay for any: blobs record their shape at `reshape` and materialise
//! `data`/`diff` only when an accessor asks (`tensor::blob`, "First-touch
//! storage"), and parameter blobs carry their filler instead of running
//! it. Two budgets pin that, both measured with the shared counting
//! allocator (`tests/common/counting_alloc.rs`) on the test's own thread:
//!
//! - **bytes, cold**: building GoogLeNet at batch 8 and running its first
//!   two timing-only iterations on a capture context (profile + solve, then
//!   capture + verify + lint) — one `cold-capture` matrix point — requests
//!   1.6 MB in 13,422 calls. With eager storage (parent `53d0976`) the same
//!   window requested 39.6 MB in 16,963 calls: every weight and every
//!   activation, data and diff, zero-filled.
//! - **calls, warm**: a warm naive CIFAR10 iteration replays cached plans,
//!   and since `ExecCtx::dispatch_batch` takes its kernels lazily the
//!   whole-batch layers build no `KernelDesc` (and hash no buffer label)
//!   on the way: 162 allocation calls (what is left is per-dispatch
//!   bookkeeping — the plan key, the timing record), 345 at the parent.
//!
//! Lives in its own test binary so other tests' allocations cannot
//! pollute the counter.

#[path = "common/mod.rs"]
mod common;

use common::counting_alloc;
use gpu_sim::DeviceProps;
use nn::{ExecCtx, Net};
use sanitizer::SanitizeMode;

#[global_allocator]
static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn iteration(ctx: &mut ExecCtx, net: &mut Net) {
    ctx.take_timings();
    net.forward(ctx);
    net.backward(ctx);
}

#[test]
fn cold_timing_only_googlenet_allocates_no_tensors() {
    counting_alloc::start();
    let mut ctx = ExecCtx::glp4nn(DeviceProps::p100())
        .timing_only()
        .sanitize(SanitizeMode::PlanOnly)
        .lint();
    let mut net = Net::by_name("GoogLeNet", 8, 1).expect("known net");
    iteration(&mut ctx, &mut net); // profile + solve
    iteration(&mut ctx, &mut net); // capture + verify + lint
    let calls = counting_alloc::stop();
    let mb = counting_alloc::bytes() as f64 / (1u64 << 20) as f64;
    assert!(ctx.plan_captures() > 0, "the second iteration captures");
    assert!(
        mb < 8.0,
        "two cold timing-only GoogLeNet b8 iterations requested {mb:.1} MB \
         in {calls} calls — a timing-only run must not allocate tensors"
    );
}

#[test]
fn warm_timing_only_iteration_builds_no_whole_batch_descriptors() {
    let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
    let mut net = Net::by_name("CIFAR10", 16, 1).expect("known net");
    for _ in 0..3 {
        iteration(&mut ctx, &mut net);
    }
    let captures = ctx.plan_captures();
    counting_alloc::start();
    iteration(&mut ctx, &mut net);
    let calls = counting_alloc::stop();
    assert_eq!(ctx.plan_captures(), captures, "the iteration was warm");
    assert!(
        calls <= 200,
        "a warm naive CIFAR10 b16 iteration made {calls} allocation calls \
         (162 when pinned) — whole-batch layers must not build descriptors \
         a cache hit throws away"
    );
}
