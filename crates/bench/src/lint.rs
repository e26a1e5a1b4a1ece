//! The `reproduce lint` sweep: run the plan linter over every captured
//! plan of the four paper nets in each dispatch mode and tabulate the
//! findings.
//!
//! Correctness codes (`PLxxx`) must never fire on shipped schedules — the
//! driver asserts that. Performance codes (`PWxxx`) are *expected* to
//! differ by mode: naive dispatch serializes independent per-sample chains
//! on one stream (PW002), while a plan that records events no other stream
//! waits on carries them for nothing (PW003).

use crate::{iteration_timings, net_spec, net_spec_with_batch};
use gpu_sim::DeviceProps;
use nn::{DispatchMode, ExecCtx, Net};
use std::collections::BTreeMap;

/// The nets of the paper's Table 5.
pub const NETS: [&str; 4] = ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"];

/// The dispatch modes the sweep compares.
pub fn modes() -> [(&'static str, DispatchMode); 3] {
    [
        ("naive", DispatchMode::Naive),
        ("8-streams", DispatchMode::FixedStreams(8)),
        ("glp4nn", DispatchMode::Glp4nn),
    ]
}

/// One (net, mode) cell of the lint sweep.
#[derive(Debug)]
pub struct LintRow {
    /// Net name.
    pub net: String,
    /// Dispatch-mode label.
    pub mode: String,
    /// Plans the linter analyzed.
    pub plans: u64,
    /// Plan nodes analyzed.
    pub nodes: u64,
    /// Correctness (`PLxxx`) findings — must be zero on shipped nets.
    pub correctness: usize,
    /// Performance (`PWxxx`) findings.
    pub performance: usize,
    /// Finding count per code, e.g. `PW002 -> 12`.
    pub by_code: BTreeMap<&'static str, usize>,
    /// Captures fully admitted by their sample slots (the report's
    /// "symbolic disjointness certificates").
    pub certified_captures: u64,
    /// Capture checks that fell back to pairwise comparison.
    pub pairwise_fallbacks: u64,
    /// Rendered correctness findings (empty when `correctness == 0`).
    pub errors_rendered: String,
}

/// Run two training iterations of each net in each mode with the linter
/// attached, and collect the findings.
pub fn lint_sweep(smoke: bool) -> Vec<LintRow> {
    let mut rows = Vec::new();
    for net in NETS {
        for (label, mode) in modes() {
            let mut ctx = ExecCtx::with_mode(DeviceProps::p100(), mode)
                .timing_only()
                .sanitize(sanitizer::SanitizeMode::PlanOnly)
                .lint();
            let spec = if smoke {
                net_spec_with_batch(net, 4, 1)
            } else {
                net_spec(net, 1)
            };
            let mut net_obj = Net::from_spec(&spec);
            // Two iterations so GLP4NN passes profiling and captures its
            // concurrent steady-state plans.
            for _ in 0..2 {
                iteration_timings(&mut ctx, &mut net_obj);
            }
            assert!(
                ctx.sanitizer.reports().is_empty(),
                "{net}/{label}: sanitizer diagnostics on a shipped schedule: {:?}",
                ctx.sanitizer.reports()
            );
            let stats = ctx.sanitizer.stats();
            let linter = ctx.sanitizer.linter().expect("lint() attached a linter");
            let mut by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
            let mut errors: Vec<_> = Vec::new();
            for d in linter.diags() {
                *by_code.entry(d.code.code()).or_insert(0) += 1;
                if d.code.is_correctness() {
                    errors.push(d.clone());
                }
            }
            let correctness = errors.len();
            rows.push(LintRow {
                net: net.to_string(),
                mode: label.to_string(),
                plans: linter.stats().plans_linted,
                nodes: linter.stats().nodes,
                correctness,
                performance: linter.diags().len() - correctness,
                by_code,
                certified_captures: stats.certified_captures,
                pairwise_fallbacks: stats.pairwise_fallbacks,
                errors_rendered: sanitizer::diag::render_all(&errors),
            });
        }
    }
    rows
}

/// Total correctness findings across the sweep.
pub fn total_correctness(rows: &[LintRow]) -> usize {
    rows.iter().map(|r| r.correctness).sum()
}

/// Print the sweep as the `reproduce lint` table.
pub fn print_table(rows: &[LintRow]) {
    println!(
        "{:<10} {:<10} {:>6} {:>7} {:>10} {:>6} {:>6} {:>9} {:>9}  findings",
        "net", "mode", "plans", "nodes", "certified", "fallbk", "PLxxx", "PW002", "PW003"
    );
    for r in rows {
        let pw = |code: &str| r.by_code.get(code).copied().unwrap_or(0);
        let mut findings: Vec<String> = r.by_code.iter().map(|(c, n)| format!("{c}x{n}")).collect();
        if findings.is_empty() {
            findings.push("clean".to_string());
        }
        println!(
            "{:<10} {:<10} {:>6} {:>7} {:>10} {:>6} {:>6} {:>9} {:>9}  {}",
            r.net,
            r.mode,
            r.plans,
            r.nodes,
            r.certified_captures,
            r.pairwise_fallbacks,
            r.correctness,
            pw("PW002"),
            pw("PW003"),
            findings.join(" ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke sweep over the smallest net must certify its conv
    /// captures by their sample slots and produce zero correctness findings.
    #[test]
    fn smoke_lint_of_cifar10_is_correctness_clean_and_certified() {
        let mut ctx = ExecCtx::glp4nn(DeviceProps::p100())
            .timing_only()
            .sanitize(sanitizer::SanitizeMode::PlanOnly)
            .lint();
        let spec = net_spec_with_batch("CIFAR10", 4, 1);
        let mut net = Net::from_spec(&spec);
        for _ in 0..2 {
            iteration_timings(&mut ctx, &mut net);
        }
        assert!(ctx.sanitizer.reports().is_empty());
        let linter = ctx.sanitizer.linter().unwrap();
        assert!(linter.stats().plans_linted > 0, "linter must have run");
        assert_eq!(
            linter
                .diags()
                .iter()
                .filter(|d| d.code.is_correctness())
                .count(),
            0,
            "{}",
            linter.render()
        );
        let s = ctx.sanitizer.stats();
        assert!(
            s.certified_captures > 0,
            "conv/pool captures must be admitted by their sample slots: {s:?}"
        );
    }
}
