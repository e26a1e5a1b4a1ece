#![warn(missing_docs)]

//! Stream-schedule sanitizer for the simulated CUDA runtime.
//!
//! GLP4NN's headline claim is *convergence invariance*: re-scheduling a
//! layer's batch-split kernels onto concurrent streams never changes the
//! math, because chunk output regions are disjoint and every true
//! dependency is preserved. This crate turns that claim from an argument
//! into a machine-checked property, in two layers:
//!
//! - **Static plan checking** ([`PlanNodeRef`] views of a frozen plan):
//!   given the schedule a dispatcher is about to execute — kernels, target
//!   streams, declared dependencies — prove chunk output regions pairwise
//!   disjoint, flag RAW/WAW/WAR hazards not covered by a declared dep or
//!   stream order, and detect event-wait cycles (deadlock). All before
//!   anything runs.
//! - **Dynamic happens-before checking** ([`fabric`]): replay the recorded
//!   command traces (launch, event record/wait, peer-to-peer copy,
//!   synchronize) of one device or of every device of a fabric with
//!   per-stream vector clocks and report any pair of overlapping accesses
//!   (at least one write) unordered by happens-before.
//!
//! Both layers consume the declared memory access sets on
//! [`gpu_sim::KernelDesc`] ([`gpu_sim::AccessSet`]); kernels that declare
//! nothing are skipped, so instrumentation can be adopted incrementally.
//! Every hazard check (plan nodes, chunk unions, trace launches) finds its
//! conflicting pairs with one indexed sweep over the declared accesses
//! (`sweep.rs`: sort by `(buffer, start)`, keep live writers and readers
//! apart), not by comparing every pair.
//!
//! The [`Sanitizer`] accumulates [`Diagnostic`]s across checks; a clean
//! run keeps [`Sanitizer::reports`] empty.

pub mod diag;
pub mod fabric;
pub mod lint;
pub mod plan;
pub mod report;
mod sweep;
pub mod symbolic;

pub use diag::{LintCode, LintDiag, Severity};
pub use lint::{LintConfig, LintStats, Linter, PlanLintSummary};
pub use plan::PlanNodeRef;
pub use report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
pub use symbolic::SampleSlots;

use gpu_sim::{AccessSet, CmdRecord, Device, Fabric, KernelDesc};

/// How much checking the runtime should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// No checking; zero overhead (the default).
    #[default]
    Off,
    /// Static checks only: chunk disjointness and dispatch-plan validation
    /// before launch.
    PlanOnly,
    /// Static checks plus dynamic happens-before replay of the executed
    /// command trace.
    Full,
}

/// Counters describing how much checking actually happened — so tests can
/// assert the sanitizer ran, not just that it stayed silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerStats {
    /// Chunk pairs covered by output-region disjointness checks.
    pub chunk_pairs: u64,
    /// Kernel pairs covered by the static plan checker's hazard sweep.
    pub plan_pairs: u64,
    /// Plans validated.
    pub plans_checked: u64,
    /// Launches and peer-to-peer copies replayed by the dynamic checker.
    pub trace_kernels: u64,
    /// Access-carrying node pairs covered by the dynamic checker, counted
    /// per (device, sync phase).
    pub trace_pairs: u64,
    /// Chunks admitted by their declared sample slots instead of pairwise
    /// comparison.
    pub symbolic_chunks: u64,
    /// Captures fully admitted by their declared sample slots (chunk check
    /// *and* plan hazard sweep skipped).
    pub certified_captures: u64,
    /// Captures whose groups left their declared sample slots (fell back
    /// to pairwise checking).
    pub conformance_misses: u64,
    /// Slot-declared capture checks that ran the pairwise path.
    pub pairwise_fallbacks: u64,
}

/// Accumulates checks and their diagnostics over a run.
#[derive(Debug, Default)]
pub struct Sanitizer {
    mode: SanitizeMode,
    reports: Vec<Diagnostic>,
    stats: SanitizerStats,
    /// How much of the device command log has already been replayed.
    log_cursor: usize,
    /// Per-device cursors for merged fabric replay ([`check_fabric`]
    /// (Sanitizer::check_fabric)); indexed by fabric device index.
    fabric_cursors: Vec<usize>,
    /// Attached plan linter, if any.
    linter: Option<Linter>,
}

impl Sanitizer {
    /// Sanitizer in the given mode.
    pub fn new(mode: SanitizeMode) -> Self {
        Sanitizer {
            mode,
            ..Default::default()
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> SanitizeMode {
        self.mode
    }

    /// Whether any checking is on.
    pub fn is_enabled(&self) -> bool {
        self.mode != SanitizeMode::Off
    }

    /// Whether dynamic (trace) checking is on.
    pub fn is_full(&self) -> bool {
        self.mode == SanitizeMode::Full
    }

    /// Static check: the batch-split chunks of one layer must have
    /// pairwise non-conflicting access sets (disjoint output regions), or
    /// dispatching them concurrently is not convergence-invariant. Each
    /// group is one chunk's kernel chain; its access set is the union over
    /// the chain. One sweep over the unions' declared accesses, not a
    /// comparison per chunk pair; `chunk_pairs` counts the pairs covered.
    /// Each overlap is also mirrored into the attached linter as a PL002.
    pub fn check_chunks(&mut self, context: &str, groups: &[Vec<KernelDesc>]) {
        if !self.is_enabled() {
            return;
        }
        let unions: Vec<AccessSet> = groups
            .iter()
            .map(|g| {
                let mut union = AccessSet::default();
                for k in g {
                    union.reads.extend_from_slice(&k.accesses.reads);
                    union.writes.extend_from_slice(&k.accesses.writes);
                }
                union
            })
            .collect();
        let sets: Vec<&AccessSet> = unions.iter().collect();
        self.stats.chunk_pairs += sweep::pairs_covered(&sets);
        for (i, j) in sweep::conflict_candidates(&sets) {
            let (i, j) = (i as usize, j as usize);
            if let Some(c) = unions[i].conflict_with(&unions[j]) {
                let chunk_ref = |g: usize| {
                    groups[g].first().map(|k| KernelRef {
                        name: k.name.to_string(),
                        tag: k.tag,
                        stream: None,
                        index: g,
                    })
                };
                if let Some(l) = &mut self.linter {
                    l.push(LintDiag {
                        code: LintCode::OverlappingChunks,
                        plan: context.to_string(),
                        node: None,
                        message: format!(
                            "chunks {i} and {j} overlap on {} over {} ({})",
                            c.buffer,
                            c.overlap,
                            c.hazard()
                        ),
                        notes: vec![],
                    });
                }
                self.reports.push(Diagnostic {
                    kind: DiagnosticKind::OverlappingChunkRegions,
                    context: context.to_string(),
                    first: chunk_ref(i),
                    second: chunk_ref(j),
                    site: Some(ConflictSite {
                        buffer: c.buffer,
                        overlap: c.overlap,
                        hazard: c.hazard(),
                    }),
                    detail: format!(
                        "chunks {i} and {j} are dispatched concurrently but their \
                         declared regions overlap"
                    ),
                });
            }
        }
    }

    /// Attach a plan linter; captured plans are linted as they are
    /// validated, and chunk findings (PL002 overlaps, PL004 slot misses)
    /// are mirrored into it.
    pub fn attach_linter(&mut self, cfg: LintConfig) {
        self.linter = Some(Linter::new(cfg));
    }

    /// The attached linter, if any.
    pub fn linter(&self) -> Option<&Linter> {
        self.linter.as_ref()
    }

    /// Slot-declared chunk check. `slots` is the layer's declaration of
    /// its per-sample buffers; `groups` are the concrete chunks about to be
    /// dispatched; `site` (conventionally `net/layer/phase`) names the
    /// declaration in diagnostics.
    ///
    /// Returns `true` iff the capture is **certified**: every group stays
    /// in its sample slots ([`SampleSlots::admits`]) — in which case no
    /// pairwise comparison ran and the caller may also skip the plan-level
    /// hazard sweep
    /// ([`check_plan_ref_certified`](Sanitizer::check_plan_ref_certified)).
    /// On a miss the attached linter gets a PL004 naming `site` and the
    /// check falls back to [`check_chunks`](Sanitizer::check_chunks),
    /// which reports any real overlap.
    pub fn check_chunks_spec(
        &mut self,
        context: &str,
        site: &str,
        slots: &SampleSlots,
        groups: &[Vec<KernelDesc>],
    ) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let Err(why) = slots.admits(groups) else {
            self.stats.symbolic_chunks += groups.len() as u64;
            self.stats.certified_captures += 1;
            return true;
        };
        self.stats.conformance_misses += 1;
        if let Some(l) = &mut self.linter {
            l.push(LintDiag {
                code: LintCode::SlotMiss,
                plan: context.to_string(),
                node: None,
                message: format!(
                    "sample slots declared for site `{site}` do not admit the built kernels: {why}"
                ),
                notes: vec!["fell back to per-instance pairwise checking".to_string()],
            });
        }
        self.stats.pairwise_fallbacks += 1;
        self.check_chunks(context, groups);
        false
    }

    /// Structure-only plan check (dangling deps, wait cycles) for
    /// captures admitted by their sample slots: hazard-freedom is already
    /// proven, so the hazard sweep of
    /// [`check_plan_ref`](Sanitizer::check_plan_ref) is skipped.
    pub fn check_plan_ref_certified(&mut self, label: &str, nodes: &[PlanNodeRef<'_>]) {
        if !self.is_enabled() {
            return;
        }
        self.stats.plans_checked += 1;
        plan::check_nodes(label, nodes, &mut self.reports, false);
    }

    /// Lint a captured plan through the attached linter, if any. Returns
    /// the per-plan finding counts, or `None` when no linter is attached.
    pub fn lint_plan_nodes(
        &mut self,
        label: &str,
        nodes: &[PlanNodeRef<'_>],
        records_events: bool,
        hazards_proven: bool,
    ) -> Option<PlanLintSummary> {
        self.linter
            .as_mut()
            .map(|l| l.lint_plan(label, nodes, records_events, hazards_proven))
    }

    /// Capture-time verification of one plan in a single analysis: the
    /// static check of [`check_plan_ref`](Sanitizer::check_plan_ref) (or,
    /// when `certified`, of
    /// [`check_plan_ref_certified`](Sanitizer::check_plan_ref_certified))
    /// followed by [`lint_plan_nodes`](Sanitizer::lint_plan_nodes), with
    /// the same reports, findings and counters as the two calls — but one
    /// happens-before relation, one closure and one hazard sweep shared by
    /// the checker and the linter instead of one each.
    pub fn verify_plan(
        &mut self,
        label: &str,
        nodes: &[PlanNodeRef<'_>],
        records_events: bool,
        certified: bool,
    ) -> Option<PlanLintSummary> {
        let check = self.is_enabled();
        if !check && self.linter.is_none() {
            return None;
        }
        let analysis = plan::PlanAnalysis::new(nodes, !certified, self.linter.is_some());
        if check {
            self.stats.plans_checked += 1;
            self.stats.plan_pairs += analysis.pairs;
            analysis.report(label, nodes, &mut self.reports);
        }
        self.linter
            .as_mut()
            .map(|l| l.lint_analysis(label, nodes, &analysis, records_events))
    }

    /// Static check of a schedule given as borrowed node views, such as a
    /// captured execution plan's: out-of-range deps, event-wait cycles, and
    /// hazards not covered by declared deps or stream order.
    pub fn check_plan_ref(&mut self, label: &str, nodes: &[PlanNodeRef<'_>]) {
        if !self.is_enabled() {
            return;
        }
        self.stats.plans_checked += 1;
        self.stats.plan_pairs += plan::check_nodes(label, nodes, &mut self.reports, true);
    }

    /// Dynamic check: replay the portion of `dev`'s command log recorded
    /// since the last call, with vector clocks, reporting unordered
    /// conflicting launches and stalled (deadlocked) replays. The reports
    /// name streams only: `dev` may be any GPU of a fleet or trainer.
    pub fn check_device(&mut self, dev: &Device) {
        if !self.is_full() {
            return;
        }
        let log = dev.command_log();
        if self.log_cursor >= log.len() {
            return;
        }
        // Replay everything since the cursor, the (possibly unfinished)
        // tail included; the cursor always advances to the log end, and
        // commands before the cursor are already ordered against commands
        // after it by the completed run() they precede.
        let (kernels, pairs) = fabric::check_logs(
            None,
            &[dev],
            &[&log[self.log_cursor..]],
            "device-trace",
            &mut self.reports,
        );
        self.log_cursor = log.len();
        self.stats.trace_kernels += kernels;
        self.stats.trace_pairs += pairs;
    }

    /// Dynamic cross-device check: replay the command-log suffixes of all
    /// of a fabric's devices *together* since the last call, following
    /// peer-to-peer copies across device boundaries. A copy reads its
    /// source range on the source device and writes its destination range
    /// on the destination device; the destination-side wait marker is the
    /// happens-before edge consumers must be ordered behind. It is the same
    /// replay as [`check_device`](Sanitizer::check_device) (which replays
    /// one device with no fabric), run over every device at once: use it,
    /// instead of per-device checks, whenever devices exchange data
    /// through a [`Fabric`], so each command is replayed once.
    pub fn check_fabric(&mut self, fabric: &Fabric, devs: &[&Device]) {
        if !self.is_full() {
            return;
        }
        self.fabric_cursors.resize(devs.len(), 0);
        let logs: Vec<&[CmdRecord]> = devs
            .iter()
            .zip(&self.fabric_cursors)
            .map(|(d, &cur)| &d.command_log()[cur.min(d.command_log().len())..])
            .collect();
        if logs.iter().all(|l| l.is_empty()) {
            return;
        }
        let (kernels, pairs) =
            fabric::check_logs(Some(fabric), devs, &logs, "fabric-trace", &mut self.reports);
        for (cur, d) in self.fabric_cursors.iter_mut().zip(devs) {
            *cur = d.command_log().len();
        }
        self.stats.trace_kernels += kernels;
        self.stats.trace_pairs += pairs;
    }

    /// Diagnostics accumulated so far.
    pub fn reports(&self) -> &[Diagnostic] {
        &self.reports
    }

    /// Checking counters.
    pub fn stats(&self) -> SanitizerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BufferId, ByteRange, DeviceProps, Dim3, KernelCost, LaunchConfig};

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    #[test]
    fn off_mode_checks_nothing() {
        let buf = BufferId::from_label("lib/a");
        let mut san = Sanitizer::new(SanitizeMode::Off);
        let groups = vec![
            vec![kernel("w").writes(buf, ByteRange::new(0, 64))],
            vec![kernel("w").writes(buf, ByteRange::new(0, 64))],
        ];
        san.check_chunks("layer", &groups);
        assert!(!san.is_enabled());
        assert_eq!(san.reports(), &[]);
        assert_eq!(san.stats().chunk_pairs, 0);
    }

    #[test]
    fn disjoint_chunks_pass_overlapping_chunks_fail() {
        let buf = BufferId::from_label("lib/b");
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        let disjoint: Vec<Vec<KernelDesc>> = (0..3)
            .map(|i| {
                vec![kernel("chunk")
                    .with_tag(i)
                    .writes(buf, ByteRange::span(i * 100, 100))]
            })
            .collect();
        san.check_chunks("net/conv/fwd", &disjoint);
        assert_eq!(san.reports(), &[]);
        assert_eq!(san.stats().chunk_pairs, 3);

        let mut overlapped = disjoint.clone();
        overlapped[2][0] = kernel("chunk")
            .with_tag(2)
            .writes(buf, ByteRange::new(150, 250));
        san.check_chunks("net/conv/fwd", &overlapped);
        assert_eq!(san.reports().len(), 1);
        assert_eq!(
            san.reports()[0].kind,
            DiagnosticKind::OverlappingChunkRegions
        );
        let s = san.reports()[0].to_string();
        assert!(s.contains("[150, 200)"), "{s}");
    }

    #[test]
    fn chunk_union_covers_whole_chain() {
        // The conflict is between the *second* kernels of each chain.
        let buf = BufferId::from_label("lib/c");
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        let groups = vec![
            vec![
                kernel("a0"),
                kernel("a1").writes(buf, ByteRange::new(0, 64)),
            ],
            vec![
                kernel("b0"),
                kernel("b1").writes(buf, ByteRange::new(32, 96)),
            ],
        ];
        san.check_chunks("layer", &groups);
        assert_eq!(san.reports().len(), 1);
    }

    #[test]
    fn full_mode_replays_device_incrementally() {
        let buf = BufferId::from_label("lib/d");
        let mut dev = Device::new(DeviceProps::p100());
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        let mut san = Sanitizer::new(SanitizeMode::Full);

        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        san.check_device(&dev);
        assert_eq!(san.reports(), &[]);
        assert_eq!(san.stats().trace_kernels, 1);

        // Second episode conflicts with the first only across the sync —
        // which orders them, so still clean.
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        san.check_device(&dev);
        assert_eq!(san.reports(), &[]);
        assert_eq!(san.stats().trace_kernels, 2);

        // Now a real race within one episode.
        dev.launch(s0, kernel("w2").writes(buf, ByteRange::new(0, 64)));
        dev.launch(s1, kernel("w3").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        san.check_device(&dev);
        assert_eq!(san.reports().len(), 1);
        assert_eq!(san.reports()[0].kind, DiagnosticKind::DataRace);
    }

    #[test]
    fn one_device_replay_names_no_device() {
        // The replay knows the device only as slice index 0, whichever GPU
        // (or fleet replica) it is, so a race and a stuck wait name streams.
        let buf = BufferId::from_label("lib/e");
        let mut dev = Device::new(DeviceProps::p100());
        let (s0, s1) = (dev.create_stream(), dev.create_stream());
        let mut san = Sanitizer::new(SanitizeMode::Full);
        dev.launch(s0, kernel("w0").writes(buf, ByteRange::new(0, 64)));
        dev.launch(s1, kernel("w1").writes(buf, ByteRange::new(0, 64)));
        dev.run();
        san.check_device(&dev);
        // Enqueued only: the engine would hang on a never-recorded event.
        let ev = dev.create_event();
        dev.wait_event(s0, ev);
        san.check_device(&dev);
        let kinds: Vec<_> = san.reports().iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            [DiagnosticKind::DataRace, DiagnosticKind::EventWaitCycle]
        );
        for d in san.reports() {
            assert!(!d.detail.contains("device"), "{}", d.detail);
        }
        assert!(san.reports()[1].detail.contains("stream 1 blocked"));
    }

    #[test]
    fn plan_only_mode_skips_dynamic_checks() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        dev.launch(s, kernel("k"));
        dev.run();
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.check_device(&dev);
        assert_eq!(san.stats().trace_kernels, 0);
    }
}
