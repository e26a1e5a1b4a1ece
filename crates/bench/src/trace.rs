//! Trace capture: run instrumented workloads with a telemetry recorder
//! attached and hand back the recorded [`telemetry::Telemetry`] for
//! export (Chrome-trace JSON, metrics snapshots) and golden-file tests.
//!
//! All timestamps in the captured traces come from the simulated clock,
//! so a fixed (net, mode, seed) workload produces a byte-stable export.

use gpu_sim::{DeviceProps, LinkProps};
use nn::{DataParallelTrainer, DispatchMode, ExecCtx, Net, SolverConfig};
use telemetry::Telemetry;

/// Recover the owned recorder from the shared handle. Callers must
/// detach every instrumented component (`clear_telemetry`) first so this
/// clone is the last one standing.
fn unwrap_shared(rec: std::sync::Arc<std::sync::Mutex<Telemetry>>) -> Telemetry {
    std::sync::Arc::try_unwrap(rec)
        .unwrap_or_else(|_| panic!("telemetry handle still shared after clear_telemetry"))
        .into_inner()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Run training iterations of `net` under `mode` on a single simulated
/// P100 with telemetry attached from the first dispatch, so the trace
/// shows the whole GLP4NN lifecycle: the profiled first iteration
/// (profile span, CUPTI flush, MILP solve, plan capture) followed by
/// steady-state plan replays.
pub fn trace_net(net: &str, mode: DispatchMode, smoke: bool) -> Telemetry {
    trace_net_with_stats(net, mode, smoke).0
}

/// [`trace_net`], additionally returning the device's [`DeviceStats`] so
/// tests can reconcile span wall-clock totals (e.g. the sum of `kernel`
/// span durations) against the simulator's own accounting.
pub fn trace_net_with_stats(
    net: &str,
    mode: DispatchMode,
    smoke: bool,
) -> (Telemetry, gpu_sim::DeviceStats) {
    let spec = if smoke {
        crate::net_spec_with_batch(net, 4, 1)
    } else {
        crate::net_spec(net, 1)
    };
    let iters = if smoke { 2 } else { 3 };
    let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), mode).timing_only();
    let mut net_obj = Net::from_spec(&spec);
    let rec = telemetry::shared(Telemetry::new());
    ctx.set_telemetry(rec.clone(), 0);
    for _ in 0..iters {
        crate::iteration_timings(&mut ctx, &mut net_obj);
    }
    ctx.clear_telemetry();
    let mut t = unwrap_shared(rec);
    ctx.device.annotate_telemetry(&mut t);
    (t, ctx.device.stats())
}

/// Run a 4-replica data-parallel job (NVLink ring, overlap scheduling,
/// four fixed streams per replica) with telemetry attached: one trace
/// pid per device plus the collective lane, P2P copy spans and flow
/// arrows on the fabric links, and per-bucket all-reduce spans.
pub fn trace_multi_gpu(smoke: bool) -> Telemetry {
    let net = "CIFAR10";
    let batch = if smoke { 4 } else { 16 };
    let spec = crate::net_spec_with_batch(net, batch, 1);
    let devices = vec![DeviceProps::p100(); 4];
    let mut dp = DataParallelTrainer::new(&spec, &devices, false, SolverConfig::default())
        .with_link(LinkProps::nvlink())
        .with_dispatch(DispatchMode::FixedStreams(4))
        .with_overlap(true)
        .timing_only();
    let iters = if smoke { 2 } else { 3 };
    let rec = telemetry::shared(Telemetry::new());
    dp.set_telemetry(rec.clone());
    for _ in 0..iters {
        dp.step();
    }
    dp.clear_telemetry();
    let mut t = unwrap_shared(rec);
    dp.annotate_telemetry(&mut t);
    t
}
