//! Lint diagnostics: stable codes, severities, deterministic ordering,
//! and a rustc-style text renderer.
//!
//! The plan linter ([`crate::lint`]) separates *correctness* findings
//! (`PLxxx`: the plan can race, deadlock, or exceed device memory) from
//! *performance* findings (`PWxxx`: the plan is provably correct but
//! needlessly slow). Codes are stable across releases so CI can grep for
//! them; rendering is deterministic so diagnostics are byte-identical
//! across runs.

/// How serious a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no action required.
    Note,
    /// The plan is correct but leaves performance on the table.
    Warning,
    /// The plan is (or can be) wrong: race, deadlock, over-capacity.
    Error,
}

impl Severity {
    /// Lowercase label used by the renderer (`error`, `warning`, `note`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Stable lint codes. `PLxxx` are correctness lints, `PWxxx` are
/// performance lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// PL001: two conflicting kernels with no happens-before ordering.
    UnorderedHazard,
    /// PL002: chunk access regions overlap (found by the pairwise chunk
    /// check), so concurrent dispatch is not convergence-invariant.
    OverlappingChunks,
    /// PL003: an event wait that can never be satisfied (dangling dep or
    /// wait cycle — deadlock).
    WaitCycle,
    /// PL004: a layer's declared sample slots do not admit the kernels it
    /// actually built (an access leaves its chunk's slot, or a write goes
    /// to an undeclared buffer); the checker fell back to per-instance
    /// pairwise checking.
    SlotMiss,
    /// PL005: the plan's peak live-buffer footprint exceeds the device's
    /// memory capacity.
    PeakMemory,
    /// PW001: an event edge already implied by other orderings
    /// (transitively redundant synchronization).
    RedundantSync,
    /// PW002: provably independent kernels serialized on one stream with
    /// no occupancy justification (missed parallelism).
    FalseSerialization,
    /// PW003: a recorded event no cross-stream consumer ever waits on.
    UnusedEvent,
}

impl LintCode {
    /// The stable code string (`PL001`...`PW003`).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnorderedHazard => "PL001",
            LintCode::OverlappingChunks => "PL002",
            LintCode::WaitCycle => "PL003",
            LintCode::SlotMiss => "PL004",
            LintCode::PeakMemory => "PL005",
            LintCode::RedundantSync => "PW001",
            LintCode::FalseSerialization => "PW002",
            LintCode::UnusedEvent => "PW003",
        }
    }

    /// One-line title shown on the diagnostic's first line.
    pub fn title(self) -> &'static str {
        match self {
            LintCode::UnorderedHazard => "conflicting kernels with no happens-before ordering",
            LintCode::OverlappingChunks => "chunk access regions overlap",
            LintCode::WaitCycle => "event wait can never be satisfied",
            LintCode::SlotMiss => "declared sample slots do not admit built kernels",
            LintCode::PeakMemory => "peak live-buffer footprint exceeds device memory",
            LintCode::RedundantSync => "event edge implied by other orderings",
            LintCode::FalseSerialization => "independent kernels serialized on one stream",
            LintCode::UnusedEvent => "recorded event is never waited on",
        }
    }

    /// Default severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnorderedHazard
            | LintCode::OverlappingChunks
            | LintCode::WaitCycle
            | LintCode::PeakMemory => Severity::Error,
            LintCode::SlotMiss | LintCode::RedundantSync | LintCode::FalseSerialization => {
                Severity::Warning
            }
            LintCode::UnusedEvent => Severity::Note,
        }
    }

    /// Whether this is a correctness (`PLxxx`) code. Performance codes
    /// (`PWxxx`) never indicate a wrong result.
    pub fn is_correctness(self) -> bool {
        self.code().starts_with("PL")
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint finding against one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    /// Stable code.
    pub code: LintCode,
    /// Label of the plan the finding is about.
    pub plan: String,
    /// Primary plan-node index the finding anchors to, if any.
    pub node: Option<usize>,
    /// One-line message specific to this finding.
    pub message: String,
    /// Additional `note:` lines.
    pub notes: Vec<String>,
}

impl LintDiag {
    /// Deterministic ordering key: plan label, then code, then node, then
    /// message. Sorting by this key makes rendered output byte-identical
    /// across runs regardless of analysis order.
    fn sort_key(&self) -> (&str, &'static str, usize, &str) {
        (
            &self.plan,
            self.code.code(),
            self.node.unwrap_or(usize::MAX),
            &self.message,
        )
    }

    /// Render the finding rustc-style:
    ///
    /// ```text
    /// warning[PW001]: event edge implied by other orderings
    ///   --> plan `net/conv1/fwd/b4/c4/p8`, node 7
    ///    = note: wait of node 7 on node 2 is implied via node 5
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n",
            self.code.severity().label(),
            self.code.code(),
            self.code.title()
        );
        match self.node {
            Some(n) => out.push_str(&format!("  --> plan `{}`, node {n}\n", self.plan)),
            None => out.push_str(&format!("  --> plan `{}`\n", self.plan)),
        }
        if !self.message.is_empty() {
            out.push_str(&format!("   = {}\n", self.message));
        }
        for n in &self.notes {
            out.push_str(&format!("   = note: {n}\n"));
        }
        out
    }
}

/// Sort findings into the canonical deterministic order.
pub fn sort_diags(diags: &mut [LintDiag]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// Render a batch of findings in canonical order, separated by blank
/// lines. Returns the empty string for no findings.
pub fn render_all(diags: &[LintDiag]) -> String {
    let mut sorted: Vec<LintDiag> = diags.to_vec();
    sort_diags(&mut sorted);
    sorted
        .iter()
        .map(LintDiag::render)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: LintCode, plan: &str, node: Option<usize>, msg: &str) -> LintDiag {
        LintDiag {
            code,
            plan: plan.to_string(),
            node,
            message: msg.to_string(),
            notes: vec![],
        }
    }

    #[test]
    fn codes_are_stable_and_classified() {
        assert_eq!(LintCode::UnorderedHazard.code(), "PL001");
        assert_eq!(LintCode::PeakMemory.code(), "PL005");
        assert_eq!(LintCode::RedundantSync.code(), "PW001");
        assert_eq!(LintCode::UnusedEvent.code(), "PW003");
        assert!(LintCode::OverlappingChunks.is_correctness());
        assert!(!LintCode::FalseSerialization.is_correctness());
        assert_eq!(LintCode::WaitCycle.severity(), Severity::Error);
        assert_eq!(LintCode::RedundantSync.severity(), Severity::Warning);
    }

    #[test]
    fn renderer_is_rustc_shaped() {
        let mut d = diag(LintCode::RedundantSync, "net/c1/fwd", Some(7), "");
        d.notes
            .push("wait of node 7 on node 2 is implied via node 5".into());
        let s = d.render();
        assert!(s.starts_with("warning[PW001]: "), "{s}");
        assert!(s.contains("--> plan `net/c1/fwd`, node 7"), "{s}");
        assert!(s.contains("= note: wait of node 7"), "{s}");
    }

    #[test]
    fn ordering_is_deterministic() {
        let a = diag(LintCode::RedundantSync, "p2", Some(1), "x");
        let b = diag(LintCode::UnorderedHazard, "p1", Some(3), "y");
        let c = diag(LintCode::RedundantSync, "p2", Some(0), "z");
        let r1 = render_all(&[a.clone(), b.clone(), c.clone()]);
        let r2 = render_all(&[c, a, b]);
        assert_eq!(r1, r2);
        assert!(r1.find("p1").unwrap() < r1.find("p2").unwrap());
    }
}
