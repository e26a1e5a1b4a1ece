//! The `reproduce interop` sweep: inter-operator wave scheduling vs
//! per-layer GLP4NN on the branchy nets, across the three evaluation GPUs.
//!
//! Per-layer GLP4NN (the paper's framework) splits each layer's batch over
//! a model-sized stream pool but synchronizes between layers, so the
//! Siamese twin towers and the synthetic fan-out net serialize independent
//! operators. The inter-operator scheduler captures one whole-net plan per
//! phase and co-schedules DAG-wave layers in shared stream sub-pools. The
//! sweep checks the three contracted properties at every operating point:
//! wave mode beats the per-layer iteration time, the sanitizer stays
//! silent, and trained weights are bitwise-identical to naive sequential
//! training.

use crate::{iteration_timings, net_spec_with_batch, total_ns};
use glp4nn::Phase;
use gpu_sim::DeviceProps;
use interop::InterOpExec;
use nn::models;
use nn::{ExecCtx, Net, NetSpec};
use sanitizer::{LintConfig, SanitizeMode, Sanitizer};

/// The branchy nets whose layer DAGs have non-trivial antichains.
pub const NETS: [&str; 2] = ["Siamese", "FanOut"];

/// One (net, GPU) cell of the interop sweep.
#[derive(Debug)]
pub struct InteropRow {
    /// Net name.
    pub net: String,
    /// GPU name.
    pub gpu: String,
    /// Batch size used for the timing arms.
    pub batch: usize,
    /// Steady-state simulated iteration time under per-layer GLP4NN.
    pub per_layer_ns: u64,
    /// Steady-state simulated iteration time under inter-operator waves.
    pub interop_ns: u64,
    /// Waves in the executed forward schedule.
    pub waves: usize,
    /// Forward waves co-scheduling two or more layers.
    pub multi_waves: usize,
    /// Kernels living in multi-layer forward waves.
    pub coscheduled_kernels: usize,
    /// PW002 false-serialization pairs on the per-layer candidate plan.
    pub pw002_per_layer: usize,
    /// PW002 false-serialization pairs on the wave candidate plan.
    pub pw002_waves: usize,
    /// Sanitizer diagnostics across both interop runs (must be zero).
    pub sanitizer_reports: usize,
    /// `interop.waves` telemetry counter after the timing run.
    pub tel_waves: u64,
    /// `interop.coscheduled_kernels` telemetry counter after the run.
    pub tel_coscheduled: u64,
    /// Whether interop training matched sequential training bitwise
    /// (losses and final weights).
    pub weights_identical: bool,
}

fn fill_inputs(net: &mut Net, spec: &NetSpec, seed: u64) {
    for (name, shape) in &spec.inputs {
        let blob = net.blob_mut(name);
        blob.resize(shape);
        let mut x = seed ^ 0x243f6a8885a308d3;
        for v in blob.data_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = if name == "label" || name == "sim" {
                ((x >> 33) % 2) as f32
            } else {
                ((x >> 40) as f32 / 16777216.0) - 0.5
            };
        }
    }
}

fn sgd(net: &mut Net, lr: f32) {
    for p in net.params_mut() {
        let g: Vec<f32> = p.diff().to_vec();
        for (w, g) in p.data_mut().iter_mut().zip(g) {
            *w -= lr * g;
        }
    }
}

/// Count PW002 false-serialization pairs in one frozen plan (the lint
/// message leads with the pair count per stream).
fn pw002_pairs(plan: &glp4nn::ExecPlan, props: &DeviceProps) -> usize {
    let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
    san.attach_linter(LintConfig::from_props(props));
    glp4nn::plan::verify_capture(&mut san, None, Some(plan));
    assert!(
        san.reports().is_empty(),
        "candidate plan must be hazard-free: {:?}",
        san.reports()
    );
    san.linter()
        .expect("linter attached above")
        .diags()
        .iter()
        .filter(|d| d.code.code() == "PW002")
        .map(|d| {
            d.message
                .split_whitespace()
                .next()
                .and_then(|w| w.parse::<usize>().ok())
                .unwrap_or(1)
        })
        .sum()
}

/// Bitwise training equivalence: a few iterations of naive sequential SGD
/// vs the same iterations through the inter-operator scheduler (full
/// sanitizing). Returns `(identical, sanitizer_reports)`.
fn training_matches(dev: &DeviceProps, net_name: &str, iters: usize) -> (bool, usize) {
    let spec = net_spec_with_batch(net_name, 4, 13);
    let run_naive = || {
        let mut net = Net::from_spec(&spec);
        let mut ctx = ExecCtx::naive(dev.clone());
        let mut losses = Vec::new();
        for it in 0..iters {
            fill_inputs(&mut net, &spec, it as u64);
            losses.push(net.forward(&mut ctx));
            net.zero_param_diffs();
            net.backward(&mut ctx);
            sgd(&mut net, 0.01);
        }
        (losses, net.state_dict())
    };
    let (l0, w0) = run_naive();
    let mut net = Net::from_spec(&spec);
    let mut ctx = ExecCtx::naive(dev.clone())
        .batch_parallel_all()
        .sanitize(SanitizeMode::Full);
    let mut exec = InterOpExec::new(&spec);
    let mut losses = Vec::new();
    for it in 0..iters {
        fill_inputs(&mut net, &spec, it as u64);
        losses.push(exec.pass(&mut ctx, &mut net, Phase::Forward));
        net.zero_param_diffs();
        exec.pass(&mut ctx, &mut net, Phase::Backward);
        sgd(&mut net, 0.01);
    }
    let identical = l0 == losses && w0 == net.state_dict();
    (identical, ctx.sanitizer.reports().len())
}

/// Run the sweep: branchy nets x evaluation GPUs x {per-layer GLP4NN,
/// interop waves}.
pub fn interop_sweep(smoke: bool) -> Vec<InteropRow> {
    let mut rows = Vec::new();
    for net_name in NETS {
        for dev in DeviceProps::evaluation_set() {
            let batch = if smoke {
                4
            } else {
                models::default_batch(net_name).unwrap_or_else(|e| panic!("{e}"))
            };
            let spec = net_spec_with_batch(net_name, batch, 1);

            // Per-layer GLP4NN arm: profiling iteration, then steady state.
            let per_layer_ns = {
                let mut ctx = ExecCtx::glp4nn(dev.clone())
                    .batch_parallel_all()
                    .timing_only();
                let mut net = Net::from_spec(&spec);
                iteration_timings(&mut ctx, &mut net);
                total_ns(&iteration_timings(&mut ctx, &mut net))
            };

            // Inter-operator arm: capture iteration, then whole-net replay
            // steady state, fully sanitized and telemetered.
            let rec = telemetry::shared(telemetry::Telemetry::new());
            let mut ctx = ExecCtx::naive(dev.clone())
                .batch_parallel_all()
                .timing_only()
                .sanitize(SanitizeMode::Full);
            ctx.set_telemetry(rec.clone(), 0);
            let mut net = Net::from_spec(&spec);
            let mut exec = InterOpExec::new(&spec);
            let iter = |ctx: &mut ExecCtx, net: &mut Net, exec: &mut InterOpExec| {
                ctx.take_timings();
                exec.step(ctx, net);
                total_ns(&ctx.take_timings())
            };
            iter(&mut ctx, &mut net, &mut exec); // capture
            let interop_ns = iter(&mut ctx, &mut net, &mut exec);
            let timing_reports = ctx.sanitizer.reports().len();
            let (tel_waves, tel_coscheduled) = {
                let guard = rec.lock().unwrap_or_else(|p| p.into_inner());
                (
                    guard.metrics().counter("interop.waves"),
                    guard.metrics().counter("interop.coscheduled_kernels"),
                )
            };

            let fwd = exec
                .phase_reports()
                .iter()
                .find(|r| r.phase == glp4nn::Phase::Forward)
                .expect("forward capture recorded a report");
            let pw002_per_layer = pw002_pairs(&fwd.serial_plan, &dev);
            let pw002_waves = pw002_pairs(&fwd.wave_plan, &dev);

            let (weights_identical, train_reports) =
                training_matches(&dev, net_name, if smoke { 2 } else { 3 });

            rows.push(InteropRow {
                net: net_name.to_string(),
                gpu: dev.name.clone(),
                batch,
                per_layer_ns,
                interop_ns,
                waves: fwd.waves,
                multi_waves: fwd.multi_waves,
                coscheduled_kernels: fwd.coscheduled_kernels,
                pw002_per_layer,
                pw002_waves,
                sanitizer_reports: timing_reports + train_reports,
                tel_waves,
                tel_coscheduled,
                weights_identical,
            });
        }
    }
    rows
}

/// Wave mode must beat the per-layer iteration time at every sweep point.
pub fn waves_dominate(rows: &[InteropRow]) -> bool {
    rows.iter().all(|r| r.interop_ns < r.per_layer_ns)
}

/// Total sanitizer diagnostics across the sweep.
pub fn total_sanitizer_reports(rows: &[InteropRow]) -> usize {
    rows.iter().map(|r| r.sanitizer_reports).sum()
}

/// Print the sweep as the `reproduce interop` table.
pub fn print_table(rows: &[InteropRow]) {
    println!(
        "{:<8} {:<10} {:>6} {:>14} {:>13} {:>8} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "net",
        "GPU",
        "batch",
        "per-layer(ms)",
        "interop(ms)",
        "speedup",
        "waves",
        "multi",
        "cosched",
        "PW002pl",
        "PW002wv",
        "bitwise"
    );
    for r in rows {
        println!(
            "{:<8} {:<10} {:>6} {:>14.3} {:>13.3} {:>7.2}x {:>6} {:>6} {:>8} {:>8} {:>8} {:>8}",
            r.net,
            r.gpu,
            r.batch,
            r.per_layer_ns as f64 / 1e6,
            r.interop_ns as f64 / 1e6,
            r.per_layer_ns as f64 / r.interop_ns as f64,
            r.waves,
            r.multi_waves,
            r.coscheduled_kernels,
            r.pw002_per_layer,
            r.pw002_waves,
            if r.weights_identical { "yes" } else { "NO" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_point_holds_all_three_contracts() {
        // One (net, GPU) point of the smoke sweep exercised end to end:
        // waves win, sanitizer silent, training bitwise-identical.
        let dev = DeviceProps::p100();
        let spec = net_spec_with_batch("Siamese", 4, 1);
        let per_layer = {
            let mut ctx = ExecCtx::glp4nn(dev.clone())
                .batch_parallel_all()
                .timing_only();
            let mut net = Net::from_spec(&spec);
            iteration_timings(&mut ctx, &mut net);
            total_ns(&iteration_timings(&mut ctx, &mut net))
        };
        let mut ctx = ExecCtx::naive(dev.clone())
            .batch_parallel_all()
            .timing_only()
            .sanitize(SanitizeMode::Full);
        let mut net = Net::from_spec(&spec);
        let mut exec = InterOpExec::new(&spec);
        ctx.take_timings();
        exec.step(&mut ctx, &mut net);
        ctx.take_timings();
        exec.step(&mut ctx, &mut net);
        let interop = total_ns(&ctx.take_timings());
        assert!(
            interop < per_layer,
            "waves must win on Siamese: {interop} vs {per_layer}"
        );
        assert!(ctx.sanitizer.reports().is_empty());
        let (identical, reports) = training_matches(&dev, "Siamese", 2);
        assert!(identical, "interop training must stay bitwise-identical");
        assert_eq!(reports, 0);
    }

    #[test]
    fn wave_plan_eliminates_false_serialization_on_siamese() {
        let dev = DeviceProps::p100();
        let spec = net_spec_with_batch("Siamese", 8, 1);
        let mut ctx = ExecCtx::naive(dev.clone())
            .batch_parallel_all()
            .timing_only();
        let mut net = Net::from_spec(&spec);
        let mut exec = InterOpExec::new(&spec);
        exec.pass(&mut ctx, &mut net, Phase::Forward);
        let fwd = &exec.phase_reports()[0];
        let pl = pw002_pairs(&fwd.serial_plan, &dev);
        let wv = pw002_pairs(&fwd.wave_plan, &dev);
        assert!(
            wv < pl,
            "wave co-scheduling must reduce PW002 false serialization: {wv} vs {pl}"
        );
    }
}
