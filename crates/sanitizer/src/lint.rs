//! The plan linter: static analyses over a frozen schedule.
//!
//! Where the sanitizer's plan checker ([`crate::plan`]) answers "can this
//! plan race or deadlock?", the linter also answers "is this plan
//! needlessly slow?" — once, at capture time, against the same borrowed
//! [`PlanNodeRef`] views. Findings carry stable codes ([`LintCode`]):
//!
//! - **PL001** unordered hazard, **PL003** wait cycle / dangling wait —
//!   the correctness analyses, re-expressed as lint findings. PL001 reads
//!   the hazards of the plan's one `PlanAnalysis` (an indexed sweep over
//!   the declared accesses, `sweep.rs`, not a pair-by-pair scan;
//!   skipped entirely when a symbolic certificate already proves
//!   hazard-freedom);
//! - **PL005** peak live-buffer footprint vs. device memory, from
//!   per-buffer lifetime intervals over the plan;
//! - **PW001** redundant synchronization: an event edge already implied
//!   by the rest of the happens-before relation (it is outside the
//!   transitive reduction), so removing it changes nothing;
//! - **PW002** false serialization: provably independent kernels queued
//!   back-to-back on one stream with no occupancy justification;
//! - **PW003** a recorded event no cross-stream wait ever consumes.
//!
//! All analyses are deterministic: nodes are visited in issue order and
//! findings render in the canonical [`crate::diag`] order, so output is
//! byte-identical across runs.

use crate::diag::{LintCode, LintDiag, Severity};
use crate::plan::{PlanAnalysis, PlanNodeRef};
use gpu_sim::DeviceProps;
use std::collections::BTreeMap;

/// Device-derived thresholds the performance lints judge against.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    /// Device memory capacity in bytes (PL005 bound).
    pub mem_bytes: u64,
    /// Threads the device can keep resident at once
    /// (`num_sms · max_threads_per_sm`); a kernel at or above this cap
    /// saturates the device alone, which justifies serializing its
    /// neighbours (suppresses PW002).
    pub max_resident_threads: u64,
}

impl LintConfig {
    /// Thresholds for a simulated device.
    pub fn from_props(props: &DeviceProps) -> Self {
        LintConfig {
            mem_bytes: (props.mem_size_gb * 1e9) as u64,
            max_resident_threads: props.num_sms as u64 * props.max_threads_per_sm as u64,
        }
    }
}

/// Counters describing how much linting happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Plans linted.
    pub plans_linted: u64,
    /// Plan nodes analyzed.
    pub nodes: u64,
    /// Error-severity findings.
    pub errors: u64,
    /// Warning-severity findings.
    pub warnings: u64,
    /// Note-severity findings.
    pub notes: u64,
}

/// Per-plan finding counts returned by [`Linter::lint_plan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanLintSummary {
    /// Correctness (`PLxxx`) findings on this plan.
    pub correctness: usize,
    /// Performance (`PWxxx`) findings on this plan.
    pub performance: usize,
}

/// Accumulates lint findings across captured plans.
#[derive(Debug)]
pub struct Linter {
    cfg: LintConfig,
    diags: Vec<LintDiag>,
    stats: LintStats,
}

impl Linter {
    /// Linter judging against the given device thresholds.
    pub fn new(cfg: LintConfig) -> Self {
        Linter {
            cfg,
            diags: Vec::new(),
            stats: LintStats::default(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> LintConfig {
        self.cfg
    }

    /// Record an externally produced finding (the symbolic checker pushes
    /// PL002/PL004 through here so all findings render together).
    pub fn push(&mut self, diag: LintDiag) {
        self.count(diag.code);
        self.diags.push(diag);
    }

    fn count(&mut self, code: LintCode) {
        match code.severity() {
            Severity::Error => self.stats.errors += 1,
            Severity::Warning => self.stats.warnings += 1,
            Severity::Note => self.stats.notes += 1,
        }
    }

    /// Findings accumulated so far (analysis order; sort for rendering).
    pub fn diags(&self) -> &[LintDiag] {
        &self.diags
    }

    /// Render all accumulated findings in canonical order.
    pub fn render(&self) -> String {
        crate::diag::render_all(&self.diags)
    }

    /// Lint counters.
    pub fn stats(&self) -> LintStats {
        self.stats
    }

    /// Run every analysis over one frozen plan.
    ///
    /// `records_events` says whether the plan actually records events
    /// (DAG plans with cross-stream edges do; round-robin chain plans order
    /// through stream FIFO alone and get no PW003 analysis). `hazards_proven`
    /// says a symbolic certificate already proved cross-chunk hazard-freedom
    /// for this plan's kernels, so the PL001 hazard sweep is skipped.
    pub fn lint_plan(
        &mut self,
        label: &str,
        nodes: &[PlanNodeRef<'_>],
        records_events: bool,
        hazards_proven: bool,
    ) -> PlanLintSummary {
        let analysis = PlanAnalysis::new(nodes, !hazards_proven, true);
        self.lint_analysis(label, nodes, &analysis, records_events)
    }

    /// [`lint_plan`](Linter::lint_plan) over an analysis the caller already
    /// holds (built `for_lint`) — capture-time verification shares one with
    /// the plan checker.
    pub(crate) fn lint_analysis(
        &mut self,
        label: &str,
        nodes: &[PlanNodeRef<'_>],
        analysis: &PlanAnalysis,
        records_events: bool,
    ) -> PlanLintSummary {
        self.stats.plans_linted += 1;
        self.stats.nodes += nodes.len() as u64;
        let before = self.diags.len();
        let n = nodes.len();

        // PL003 (a): waits on nodes outside the plan can never fire.
        for (i, node) in nodes.iter().enumerate() {
            for &d in node.deps {
                if d >= n {
                    self.push(LintDiag {
                        code: LintCode::WaitCycle,
                        plan: label.to_string(),
                        node: Some(i),
                        message: format!(
                            "node {i} waits on nonexistent node {d} (plan has {n} nodes)"
                        ),
                        notes: vec![],
                    });
                }
            }
        }

        // Same happens-before relation as the plan checker.
        let hb = match &analysis.hb {
            Ok(hb) => hb,
            Err(stuck) => {
                // PL003 (b): a wait cycle. Everything downstream needs an
                // acyclic relation, so stop after reporting.
                let named: Vec<String> = stuck.iter().take(4).map(|i| i.to_string()).collect();
                self.push(LintDiag {
                    code: LintCode::WaitCycle,
                    plan: label.to_string(),
                    node: None,
                    message: format!(
                        "{} of {n} kernels can never start: event waits form a cycle through nodes {}",
                        stuck.len(),
                        named.join(", ")
                    ),
                    notes: vec![],
                });
                return self.summarize(before);
            }
        };
        let succ = &hb.succ;
        let reach = analysis
            .reach
            .as_ref()
            .expect("an analysis built for the linter keeps its closure");
        let reaches = |a, b| reach.before(a, b);

        // PL001: conflicting kernels with no HB ordering (none to report
        // when a symbolic certificate made the sweep unnecessary).
        for &(i, j, c) in &analysis.hazards {
            self.push(LintDiag {
                code: LintCode::UnorderedHazard,
                plan: label.to_string(),
                node: Some(i),
                message: format!(
                    "nodes {i} (`{}`) and {j} (`{}`) race: {} on {} over {}",
                    nodes[i].kernel.name,
                    nodes[j].kernel.name,
                    c.hazard(),
                    c.buffer,
                    c.overlap
                ),
                notes: vec![],
            });
        }

        // PW001: event edges outside the transitive reduction. An event
        // edge is a declared cross-stream dep d → i; it is redundant iff
        // some *other* direct successor w of d already reaches i — then
        // d → w → … → i orders the pair without the event.
        for (i, node) in nodes.iter().enumerate() {
            for &d in node.deps {
                if d >= n || d == i || nodes[d].stream == node.stream {
                    continue;
                }
                let via = succ[d].iter().copied().find(|&w| w != i && reaches(w, i));
                if let Some(w) = via {
                    self.push(LintDiag {
                        code: LintCode::RedundantSync,
                        plan: label.to_string(),
                        node: Some(i),
                        message: format!(
                            "wait of node {i} (stream {}) on node {d} (stream {}) is already \
                             implied via node {w}",
                            node.stream, nodes[d].stream
                        ),
                        notes: vec![
                            "removing this event edge preserves the happens-before relation"
                                .to_string(),
                        ],
                    });
                }
            }
        }

        // PW002: independent kernels serialized by stream FIFO order.
        // Consecutive same-stream launches with no declared or transitive
        // ordering, disjoint access sets, and no occupancy justification
        // could have run concurrently. Aggregated per stream.
        let mut last_on_stream: BTreeMap<usize, usize> = BTreeMap::new();
        let mut per_stream: BTreeMap<usize, (usize, Option<(usize, usize)>)> = BTreeMap::new();
        for (c, node) in nodes.iter().enumerate() {
            let p = match last_on_stream.insert(node.stream, c) {
                Some(p) => p,
                None => continue,
            };
            if node.deps.contains(&p) {
                continue; // declared dependence: serialization is required
            }
            // Ordered through some other path anyway (the FIFO edge is not
            // what serializes them).
            let alt = succ[p].iter().any(|&w| w != c && reaches(w, c));
            if alt {
                continue;
            }
            let (ka, kb) = (&nodes[p].kernel, &nodes[c].kernel);
            if ka.accesses.is_empty() || kb.accesses.is_empty() {
                continue; // independence not provable
            }
            if ka.accesses.conflict_with(&kb.accesses).is_some() {
                continue; // dependent: must serialize
            }
            let threads = |k: &gpu_sim::KernelDesc| k.launch.grid.count() * k.launch.block.count();
            if threads(ka) >= self.cfg.max_resident_threads
                || threads(kb) >= self.cfg.max_resident_threads
            {
                continue; // either kernel saturates the device alone
            }
            let e = per_stream.entry(node.stream).or_insert((0, None));
            e.0 += 1;
            e.1.get_or_insert((p, c));
        }
        for (stream, (count, example)) in per_stream {
            let (p, c) = example.expect("counted stream has an example pair");
            self.push(LintDiag {
                code: LintCode::FalseSerialization,
                plan: label.to_string(),
                node: Some(p),
                message: format!(
                    "{count} independent kernel pair(s) serialized on stream {stream}; e.g. \
                     nodes {p} (`{}`) and {c} (`{}`) have disjoint accesses, no ordering \
                     requirement, and neither saturates the device",
                    nodes[p].kernel.name, nodes[c].kernel.name
                ),
                notes: vec![format!(
                    "occupancy bar: {} resident threads",
                    self.cfg.max_resident_threads
                )],
            });
        }

        // PW003: recorded events never consumed by a cross-stream wait.
        // Only meaningful for plans that record events at all.
        if records_events {
            let mut waited = vec![false; n];
            for node in nodes {
                for &d in node.deps {
                    if d < n && nodes[d].stream != node.stream {
                        waited[d] = true;
                    }
                }
            }
            let unused: Vec<usize> = (0..n).filter(|&i| !waited[i]).collect();
            if !unused.is_empty() {
                let shown: Vec<String> = unused.iter().take(4).map(|i| i.to_string()).collect();
                self.push(LintDiag {
                    code: LintCode::UnusedEvent,
                    plan: label.to_string(),
                    node: Some(unused[0]),
                    message: format!(
                        "{} of {n} recorded events are never waited on across streams \
                         (nodes {}{})",
                        unused.len(),
                        shown.join(", "),
                        if unused.len() > shown.len() {
                            ", …"
                        } else {
                            ""
                        }
                    ),
                    notes: vec![
                        "record-after-every-launch capture trades unused events for \
                         replay-time simplicity"
                            .to_string(),
                    ],
                });
            }
        }

        // PL005: peak live-buffer footprint vs. device memory. A buffer's
        // footprint is the highest byte any access touches; it is live
        // from its first to its last accessing node in issue order.
        let mut bufs: BTreeMap<u64, (usize, usize, u64)> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            for acc in node
                .kernel
                .accesses
                .reads
                .iter()
                .chain(&node.kernel.accesses.writes)
            {
                let e = bufs.entry(acc.buffer.0).or_insert((i, i, 0));
                e.1 = i;
                e.2 = e.2.max(acc.range.end);
            }
        }
        let mut delta = vec![0i128; n + 1];
        for &(first, last, bytes) in bufs.values() {
            delta[first] += bytes as i128;
            delta[last + 1] -= bytes as i128;
        }
        let mut live = 0i128;
        let mut peak = 0i128;
        let mut peak_at = 0usize;
        for (i, d) in delta.iter().enumerate().take(n) {
            live += d;
            if live > peak {
                peak = live;
                peak_at = i;
            }
        }
        if peak as u128 > self.cfg.mem_bytes as u128 {
            self.push(LintDiag {
                code: LintCode::PeakMemory,
                plan: label.to_string(),
                node: Some(peak_at),
                message: format!(
                    "peak live-buffer footprint {peak} B at node {peak_at} exceeds device \
                     memory {} B ({} buffers live)",
                    self.cfg.mem_bytes,
                    bufs.values()
                        .filter(|&&(f, l, _)| f <= peak_at && peak_at <= l)
                        .count()
                ),
                notes: vec![],
            });
        }

        self.summarize(before)
    }

    fn summarize(&self, before: usize) -> PlanLintSummary {
        let mut s = PlanLintSummary::default();
        for d in &self.diags[before..] {
            if d.code.is_correctness() {
                s.correctness += 1;
            } else {
                s.performance += 1;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::refs;
    use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, KernelDesc, LaunchConfig};

    fn cfg() -> LintConfig {
        LintConfig {
            mem_bytes: 1 << 30,
            max_resident_threads: 1 << 16,
        }
    }

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    fn lint(nodes: &[PlanNodeRef<'_>], records_events: bool) -> (Linter, PlanLintSummary) {
        let mut l = Linter::new(cfg());
        let s = l.lint_plan("t", nodes, records_events, false);
        (l, s)
    }

    #[test]
    fn redundant_event_edge_is_pw001() {
        // a(s0) → b(s1) → c(s0), plus a direct wait c → a: implied.
        let p = [
            (kernel("a"), 0, vec![]),
            (kernel("b"), 1, vec![0]),
            (kernel("c"), 2, vec![1, 0]),
        ];
        let (l, s) = lint(&refs(&p), true);
        assert_eq!(s.performance, 1 + 1, "PW001 plus PW003 for unused events");
        let codes: Vec<&str> = l.diags().iter().map(|d| d.code.code()).collect();
        assert!(codes.contains(&"PW001"), "{codes:?}");
        let d = l.diags().iter().find(|d| d.code.code() == "PW001").unwrap();
        assert!(d.message.contains("implied via node 1"), "{}", d.message);
    }

    #[test]
    fn necessary_event_edge_is_not_flagged() {
        let p = [(kernel("a"), 0, vec![]), (kernel("b"), 1, vec![0])];
        let (l, _) = lint(&refs(&p), false);
        assert!(l.diags().iter().all(|d| d.code.code() != "PW001"));
    }

    #[test]
    fn independent_same_stream_pair_is_pw002() {
        let buf = BufferId::from_label("lint/a");
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(64, 128)), 0, vec![]),
        ];
        let (l, s) = lint(&refs(&p), false);
        assert_eq!(s.performance, 1);
        assert_eq!(l.diags()[0].code.code(), "PW002");
        assert!(l.diags()[0].message.contains("stream 0"));
    }

    #[test]
    fn pw002_suppressed_by_dep_conflict_or_occupancy() {
        let buf = BufferId::from_label("lint/b");
        // Declared dep: required serialization.
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (
                kernel("w1").writes(buf, ByteRange::new(64, 128)),
                0,
                vec![0],
            ),
        ];
        assert_eq!(lint(&refs(&p), false).1.performance, 0);
        // Conflicting accesses: required serialization.
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
        ];
        assert_eq!(lint(&refs(&p), false).1.performance, 0);
        // Saturating kernel: occupancy-justified.
        let big = KernelDesc::new(
            "big",
            LaunchConfig::new(Dim3::linear(1024), Dim3::linear(256), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
        .writes(buf, ByteRange::new(0, 64));
        let p = [
            (big, 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(64, 128)), 0, vec![]),
        ];
        assert_eq!(lint(&refs(&p), false).1.performance, 0);
    }

    #[test]
    fn unordered_hazard_is_pl001_unless_proven() {
        let buf = BufferId::from_label("lint/c");
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(32, 96)), 1, vec![]),
        ];
        let (l, s) = lint(&refs(&p), false);
        assert_eq!(s.correctness, 1);
        assert_eq!(l.diags()[0].code.code(), "PL001");
        // With a certificate the scan is skipped.
        let mut l2 = Linter::new(cfg());
        let s2 = l2.lint_plan("t", &refs(&p), false, true);
        assert_eq!(s2.correctness, 0);
    }

    #[test]
    fn wait_cycle_and_dangling_wait_are_pl003() {
        let p = [(kernel("k0"), 0, vec![1]), (kernel("k1"), 1, vec![0])];
        let (l, s) = lint(&refs(&p), false);
        assert_eq!(s.correctness, 1);
        assert_eq!(l.diags()[0].code.code(), "PL003");

        let (l, _) = lint(&refs(&[(kernel("k"), 0, vec![9])]), false);
        assert!(l.diags().iter().any(|d| d.message.contains("nonexistent")));
    }

    #[test]
    fn over_capacity_footprint_is_pl005() {
        let mut l = Linter::new(LintConfig {
            mem_bytes: 100,
            max_resident_threads: 1 << 16,
        });
        let buf = BufferId::from_label("lint/d");
        let p = [(kernel("w").writes(buf, ByteRange::new(0, 200)), 0, vec![])];
        let s = l.lint_plan("t", &refs(&p), false, false);
        assert_eq!(s.correctness, 1);
        assert_eq!(l.diags()[0].code.code(), "PL005");
        assert!(
            l.diags()[0].message.contains("200 B"),
            "{}",
            l.diags()[0].message
        );
    }

    #[test]
    fn disjoint_lifetimes_do_not_sum() {
        // Two 80-byte buffers, never live together: peak 80 < 100.
        let mut l = Linter::new(LintConfig {
            mem_bytes: 100,
            max_resident_threads: 1 << 16,
        });
        let (b1, b2) = (
            BufferId::from_label("lint/e1"),
            BufferId::from_label("lint/e2"),
        );
        let p = [
            (kernel("w1").writes(b1, ByteRange::new(0, 80)), 0, vec![]),
            (kernel("w2").writes(b2, ByteRange::new(0, 80)), 0, vec![0]),
        ];
        let s = l.lint_plan("t", &refs(&p), false, false);
        assert_eq!(s.correctness, 0, "{}", l.render());
    }

    #[test]
    fn unused_events_only_for_recording_plans() {
        let p = [(kernel("a"), 0, vec![]), (kernel("b"), 1, vec![])];
        assert_eq!(lint(&refs(&p), false).1.performance, 0);
        let (l, s) = lint(&refs(&p), true);
        assert_eq!(s.performance, 1);
        assert_eq!(l.diags()[0].code.code(), "PW003");
    }

    #[test]
    fn stats_count_by_severity() {
        let buf = BufferId::from_label("lint/f");
        let mut l = Linter::new(cfg());
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(32, 96)), 1, vec![]),
        ];
        l.lint_plan("t", &refs(&p), false, false);
        assert_eq!(l.stats().plans_linted, 1);
        assert_eq!(l.stats().errors, 1);
    }
}
