//! Allocation probe for timing-only runs (first-touch blob storage).
//!
//! A timing-only context (`compute == false`) reads no tensor, so it must
//! not pay for any: blobs record their shape at `reshape` and materialise
//! `data`/`diff` only when an accessor asks (`tensor::blob`, "First-touch
//! storage"), and parameter blobs carry their filler instead of running
//! it. These budgets pin that, all measured with the shared counting
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
//!   on the way, and since cache hits look plans up through one reused key
//!   buffer and share the layer's name the timing record allocates no
//!   `String` either: 53 allocation calls (what is left is
//!   `Net::forward_layer`'s per-layer `Vec`s), 162 with per-dispatch key
//!   and name strings and 345 with eager descriptors.
//! - **calls and bytes, warm serving wave**: a timing-only GLP4NN CIFAR10
//!   `ServingEngine` on P100 writes no request payload (12 KB a sample
//!   when it did) and its cache hits build no `String`: the median warm
//!   wave makes 24 calls for 1,536 bytes, where writing payloads and
//!   formatting keys made 108 calls for 89 KB. Registry updates of
//!   existing names make none.
//! - **calls, warm fleet arrival**: once the replicas are warm, an arrival
//!   that the fleet routes, admits, publishes and counts allocates
//!   nothing. The router reads its gauges through cached ids, and the
//!   fleet routes from a reused active-slot buffer; it used to collect a
//!   fresh `Vec` of active slots per arrival.
//!
//! Counting is per thread and off by default, so the tests running on
//! the harness's other threads, which share this binary's allocator,
//! cannot land in a probe's window.

use crate::common::counting_alloc;
use fleet::{ClassSpec, FleetConfig, FleetSim, PriorityMix, RouterPolicy};
use gpu_sim::{DeviceProps, FabricSpec, LinkProps};
use nn::{DispatchMode, ExecCtx, Net};
use sanitizer::SanitizeMode;
use serve::{BatchPolicy, EngineOptions, ServeConfig, ServingEngine};
use telemetry::MetricsRegistry;

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
        calls <= 80,
        "a warm naive CIFAR10 b16 iteration made {calls} allocation calls \
         (53 when pinned) — whole-batch layers must not build descriptors, \
         nor cache hits strings, that a hit throws away"
    );
}

#[test]
fn warm_timing_only_serving_wave_writes_no_payload() {
    // Every wave changes the batch size (the cycle wraps 7 -> 8 too), so
    // every wave resizes its input blob.
    const SIZES: [usize; 6] = [8, 3, 8, 5, 1, 7];
    const WAVES: usize = 120;
    let cfg = ServeConfig {
        device: DeviceProps::p100(),
        mode: DispatchMode::Glp4nn,
        model: "CIFAR10".to_string(),
        rate_rps: 1000.0,
        num_requests: 0,
        policy: BatchPolicy::new(8, 0),
        queue_capacity: 64,
        seed: 1,
    };
    let opts = EngineOptions {
        timing_only: true,
        sanitize: None,
    };
    let mut engine = ServingEngine::new_with(&cfg, opts).expect("known model");
    engine.warmup(8);
    let ids: Vec<u64> = (0..8).collect();
    let wave = |engine: &mut ServingEngine, k: usize| {
        engine.run_wave(&ids[..SIZES[k % SIZES.len()]], engine.now());
    };
    for k in 0..SIZES.len() {
        wave(&mut engine, k);
    }
    let captures = engine.plan_captures();
    let mut calls = Vec::with_capacity(WAVES);
    let mut bytes = Vec::with_capacity(WAVES);
    for k in 0..WAVES {
        counting_alloc::start();
        wave(&mut engine, k);
        calls.push(counting_alloc::stop());
        bytes.push(counting_alloc::bytes());
    }
    assert_eq!(engine.plan_captures(), captures, "every wave was warm");
    // The median wave: the device log's occasional doubling (a memo hit
    // still appends its trace rows) lands on a few waves and is not what
    // this probe pins.
    calls.sort_unstable();
    bytes.sort_unstable();
    let (calls, bytes) = (calls[WAVES / 2], bytes[WAVES / 2]);
    assert!(
        calls <= 32 && bytes <= 4096,
        "a warm timing-only CIFAR10 serving wave made {calls} allocation \
         calls for {bytes} bytes (24 and 1,536 when pinned; 108 and 89 KB \
         when every wave wrote a 12 KB payload per sample)"
    );
}

#[test]
fn warm_registry_updates_allocate_nothing() {
    let mut registry = MetricsRegistry::new();
    registry.gauge_set("fleet.replica3.queue_depth", 0.0);
    registry.counter_add("fleet.completed", 1);
    counting_alloc::start();
    for i in 0..1000 {
        registry.gauge_set("fleet.replica3.queue_depth", i as f64);
        registry.counter_add("fleet.completed", 1);
    }
    let calls = counting_alloc::stop();
    assert_eq!(
        calls, 0,
        "updating existing names made {calls} allocation calls"
    );
    assert_eq!(registry.counter("fleet.completed"), 1001);
    assert_eq!(registry.gauge("fleet.replica3.queue_depth"), Some(999.0));
}

#[test]
fn warm_fleet_arrivals_allocate_nothing() {
    // Two replicas and arrivals a thousand times faster than a wave: the
    // first few start both replicas and fill both queues, and every later
    // arrival is routed, admitted (shed: the queues are full), published
    // and counted while no new wave starts. So the calls one run makes
    // beyond a shorter run's are the arrivals' own.
    let run = |requests: usize| {
        let fabric = FabricSpec::uniform("pair", 2, DeviceProps::p100(), LinkProps::nvlink());
        let mix = PriorityMix::new(
            "single",
            vec![ClassSpec {
                name: "all".into(),
                share: 1.0,
                deadline_ns: u64::MAX,
            }],
        );
        let cfg = FleetConfig {
            queue_capacity: 4,
            rate_rps: 1e12,
            num_requests: requests,
            tick_ns: 0,
            ..FleetConfig::cifar10(fabric, RouterPolicy::JoinShortestQueue, mix)
        };
        let mut sim = FleetSim::new(cfg).expect("valid config");
        counting_alloc::start();
        let report = sim.run();
        (report, counting_alloc::stop())
    };
    let (short, short_calls) = run(1_000);
    let (long, long_calls) = run(3_000);
    assert_eq!(long.waves, short.waves, "the extra arrivals start no wave");
    assert_eq!(long.shed - short.shed, 2_000, "the extra arrivals are shed");
    let extra = long_calls.saturating_sub(short_calls);
    assert!(
        extra <= 8,
        "2,000 more warm arrivals made {extra} more allocation calls \
         ({short_calls} vs {long_calls}): routing, admission, gauge \
         publication and counter updates must not allocate"
    );
}
