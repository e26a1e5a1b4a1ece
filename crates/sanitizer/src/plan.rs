//! The static schedule checker. A plan is what a scheduler is *about* to
//! do: an issue-ordered slice of [`PlanNodeRef`] views (kernel, target
//! stream, declared dependencies) borrowed from the frozen execution plan
//! being captured, so the checker validates exactly the schedule that
//! would execute, before anything executes.

use crate::report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
use crate::sweep::{conflict_candidates, pairs_covered};
use gpu_sim::{AccessConflict, AccessSet, KernelDesc};

/// A borrowed view of one plan node, so a frozen execution plan is
/// validated in place, with no kernel cloned per check.
#[derive(Debug, Clone, Copy)]
pub struct PlanNodeRef<'a> {
    /// The kernel to launch.
    pub kernel: &'a KernelDesc,
    /// Target stream (pool-relative index).
    pub stream: usize,
    /// Plan-node indices whose completion this node waits for (cross-stream
    /// deps become event record/wait pairs at dispatch time). Not
    /// validated on construction: the checker flags out-of-range deps and
    /// wait cycles, which is the point — fault injection builds
    /// deliberately broken plans.
    pub deps: &'a [usize],
}

fn kernel_ref(nodes: &[PlanNodeRef<'_>], i: usize) -> KernelRef {
    let n = &nodes[i];
    KernelRef {
        name: n.kernel.name.to_string(),
        tag: n.kernel.tag,
        stream: Some(n.stream as u32),
        index: i,
    }
}

/// The happens-before relation of a plan, shared by the plan checker and
/// the linter: edges, a topological order, and (on demand) the transitive
/// closure.
pub(crate) struct HappensBefore {
    /// `succ[i]` holds every `j` that cannot start before `i` completes.
    /// Stream FIFO order contributes edges between issue-order neighbours
    /// on the same stream; declared deps contribute the rest (cross-stream
    /// ones become event waits at dispatch).
    pub(crate) succ: Vec<Vec<usize>>,
    order: Vec<usize>,
}

/// Transitive closure of a [`HappensBefore`] relation: one bit row per
/// node, all rows in one allocation.
pub(crate) struct Reach {
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    /// Does `a` happen before `b`?
    pub(crate) fn before(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

impl HappensBefore {
    /// Build the relation, or return the nodes that can never start
    /// because event waits form a cycle (Kahn's algorithm: any node left
    /// undrained sits on, or behind, a wait cycle).
    pub(crate) fn build(nodes: &[PlanNodeRef<'_>]) -> Result<Self, Vec<usize>> {
        let n = nodes.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on_stream: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(&p) = last_on_stream.get(&node.stream) {
                succ[p].push(i);
            }
            last_on_stream.insert(node.stream, i);
            for &d in node.deps {
                if d < n && d != i {
                    succ[d].push(i);
                }
            }
        }
        let mut indeg = vec![0usize; n];
        for outs in &succ {
            for &j in outs {
                indeg[j] += 1;
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in &succ[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if order.len() < n {
            return Err((0..n).filter(|&i| indeg[i] > 0).collect());
        }
        Ok(HappensBefore { succ, order })
    }

    /// Transitive closure, filled in reverse topological order.
    pub(crate) fn closure(&self) -> Reach {
        let n = self.succ.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for &i in self.order.iter().rev() {
            for &j in &self.succ[i] {
                // `build` drops self-edges, so the two rows are distinct.
                let (lo, hi) = bits.split_at_mut(i.max(j) * words);
                let (row_i, row_j) = if i < j {
                    (&mut lo[i * words..(i + 1) * words], &hi[..words])
                } else {
                    (&mut hi[..words], &lo[j * words..(j + 1) * words])
                };
                for (w_i, w_j) in row_i.iter_mut().zip(row_j) {
                    *w_i |= *w_j;
                }
                row_i[j / 64] |= 1 << (j % 64);
            }
        }
        Reach { words, bits }
    }
}

/// What capture-time verification derives from one plan, computed once and
/// read by both the checker's reports ([`report`](PlanAnalysis::report))
/// and the linter: the happens-before relation, its closure, and the
/// conflicting node pairs the relation leaves unordered.
pub(crate) struct PlanAnalysis {
    /// The relation, or the nodes stuck behind an event-wait cycle.
    pub(crate) hb: Result<HappensBefore, Vec<usize>>,
    /// Closure of an acyclic relation; present when the hazard scan or the
    /// linter asked for it.
    pub(crate) reach: Option<Reach>,
    /// Unordered hazards `(i, j, conflict)`, `i < j`, ascending. Empty when
    /// the scan was skipped or the relation is cyclic.
    pub(crate) hazards: Vec<(usize, usize, AccessConflict)>,
    /// Node pairs the hazard scan covered (0 when it did not run).
    pub(crate) pairs: u64,
}

impl PlanAnalysis {
    /// Analyse `nodes`. `scan_hazards` false skips the hazard scan — the
    /// caller's sample-slot check already proves hazard-freedom; `for_lint` keeps the closure for the linter's
    /// synchronization analyses even then.
    pub(crate) fn new(nodes: &[PlanNodeRef<'_>], scan_hazards: bool, for_lint: bool) -> Self {
        let mut a = PlanAnalysis {
            hb: HappensBefore::build(nodes),
            reach: None,
            hazards: Vec::new(),
            pairs: 0,
        };
        let Ok(hb) = &a.hb else {
            // Conflict analysis needs an acyclic relation.
            return a;
        };
        if !(scan_hazards || for_lint) {
            return a;
        }
        let reach = hb.closure();
        if scan_hazards {
            let sets: Vec<&AccessSet> = nodes.iter().map(|n| &n.kernel.accesses).collect();
            a.pairs = pairs_covered(&sets);
            for (i, j) in conflict_candidates(&sets) {
                let (i, j) = (i as usize, j as usize);
                if reach.before(i, j) || reach.before(j, i) {
                    continue;
                }
                if let Some(c) = sets[i].conflict_with(sets[j]) {
                    a.hazards.push((i, j, c));
                }
            }
        }
        a.reach = Some(reach);
        a
    }

    /// The plan checker's findings: out-of-range deps and self-waits, an
    /// event-wait cycle (deadlock), and memory conflicts not covered by
    /// happens-before. Appends diagnostics to `out`.
    pub(crate) fn report(&self, label: &str, nodes: &[PlanNodeRef<'_>], out: &mut Vec<Diagnostic>) {
        let n = nodes.len();
        for (i, node) in nodes.iter().enumerate() {
            for &d in node.deps {
                // `HappensBefore::build` skips both kinds of edge, so neither
                // would surface as a cycle below.
                let detail = if d >= n {
                    format!(
                        "node {i} waits on nonexistent node {d} (plan has {n} nodes): \
                         the wait can never be satisfied"
                    )
                } else if d == i {
                    format!("node {i} waits on itself: the wait can never be satisfied")
                } else {
                    continue;
                };
                out.push(Diagnostic {
                    kind: DiagnosticKind::EventWaitCycle,
                    context: label.to_string(),
                    first: Some(kernel_ref(nodes, i)),
                    second: None,
                    site: None,
                    detail,
                });
            }
        }

        if let Err(stuck) = &self.hb {
            let named: Vec<String> = stuck
                .iter()
                .take(4)
                .map(|&i| kernel_ref(nodes, i).to_string())
                .collect();
            out.push(Diagnostic {
                kind: DiagnosticKind::EventWaitCycle,
                context: label.to_string(),
                first: None,
                second: None,
                site: None,
                detail: format!(
                    "{} of {} kernels can never start: event waits form a cycle through {}",
                    stuck.len(),
                    n,
                    named.join(", ")
                ),
            });
        }

        for &(i, j, c) in &self.hazards {
            out.push(Diagnostic {
                kind: DiagnosticKind::MissingDependency,
                context: label.to_string(),
                first: Some(kernel_ref(nodes, i)),
                second: Some(kernel_ref(nodes, j)),
                site: Some(ConflictSite {
                    buffer: c.buffer,
                    overlap: c.overlap,
                    hazard: c.hazard(),
                }),
                detail: "no declared dependency or stream order covers this hazard".to_string(),
            });
        }
    }
}

/// Check an issue-ordered schedule given as borrowed node views:
/// out-of-range deps, self-waits and event-wait cycles (deadlock), and
/// memory conflicts not covered by happens-before. Appends diagnostics to
/// `out`; returns the number of kernel pairs the hazard scan covered —
/// covered, not visited: the scan is one [`conflict_candidates`] sweep,
/// `O(a log a)` in the plan's declared accesses plus the overlapping pairs
/// it finds. With `scan_pairs` false only the structural checks run
/// (dangling deps, self-waits, wait cycles) — the caller's sample-slot
/// check already proves hazard-freedom.
pub(crate) fn check_nodes(
    label: &str,
    nodes: &[PlanNodeRef<'_>],
    out: &mut Vec<Diagnostic>,
    scan_pairs: bool,
) -> u64 {
    let analysis = PlanAnalysis::new(nodes, scan_pairs, false);
    analysis.report(label, nodes, out);
    analysis.pairs
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, LaunchConfig};

    /// Borrowed node views over owned `(kernel, stream, deps)` rows: the
    /// shape the checker and the linter take.
    pub(crate) fn refs(rows: &[(KernelDesc, usize, Vec<usize>)]) -> Vec<PlanNodeRef<'_>> {
        rows.iter()
            .map(|(kernel, stream, deps)| PlanNodeRef {
                kernel,
                stream: *stream,
                deps,
            })
            .collect()
    }

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(8), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    #[test]
    fn clean_plan_has_no_diagnostics() {
        let buf = BufferId::from_label("plan/x");
        // Four one-kernel chunks, one per stream.
        let p: Vec<_> = (0..4)
            .map(|i| {
                let k = kernel("k")
                    .with_tag(i)
                    .writes(buf, ByteRange::span(i * 64, 64));
                (k, i as usize, vec![])
            })
            .collect();
        let mut out = Vec::new();
        let pairs = check_nodes("t", &refs(&p), &mut out, true);
        assert_eq!(out, vec![]);
        assert_eq!(pairs, 6);
    }

    #[test]
    fn unordered_conflict_is_a_missing_dependency() {
        let buf = BufferId::from_label("plan/y");
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 128)), 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(64, 192)), 1, vec![]),
        ];
        let mut out = Vec::new();
        check_nodes("t", &refs(&p), &mut out, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::MissingDependency);
        let s = out[0].to_string();
        assert!(s.contains("write/write"), "{s}");
        assert!(s.contains("[64, 128)"), "{s}");
    }

    #[test]
    fn dep_or_same_stream_covers_the_hazard() {
        let buf = BufferId::from_label("plan/z");
        // Same conflict, covered by a declared dep.
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 128)), 0, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(0, 128)), 1, vec![0]),
        ];
        let mut out = Vec::new();
        check_nodes("t", &refs(&p), &mut out, true);
        assert_eq!(out, vec![]);
        // Covered by stream FIFO order instead.
        let p = [
            (kernel("w0").writes(buf, ByteRange::new(0, 128)), 3, vec![]),
            (kernel("w1").writes(buf, ByteRange::new(0, 128)), 3, vec![]),
        ];
        let mut out = Vec::new();
        check_nodes("t", &refs(&p), &mut out, true);
        assert_eq!(out, vec![]);
    }

    #[test]
    fn transitive_order_suppresses_false_positives() {
        let buf = BufferId::from_label("plan/t");
        let p = [
            (kernel("a").writes(buf, ByteRange::new(0, 64)), 0, vec![]),
            (kernel("b"), 1, vec![0]),
            (kernel("c").reads(buf, ByteRange::new(0, 64)), 2, vec![1]),
        ];
        let mut out = Vec::new();
        check_nodes("t", &refs(&p), &mut out, true);
        assert_eq!(out, vec![], "a → b → c orders a before c transitively");
    }

    #[test]
    fn cross_stream_wait_cycle_is_detected() {
        // Stream 0: k0 waits on k1 (enqueued later on stream 1); stream 1:
        // k1 waits on k0. Neither can ever start.
        let p = [(kernel("k0"), 0, vec![1]), (kernel("k1"), 1, vec![0])];
        let mut out = Vec::new();
        check_nodes("t", &refs(&p), &mut out, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::EventWaitCycle);
        assert!(out[0].to_string().contains("cycle"), "{}", out[0]);
    }

    #[test]
    fn dangling_dep_is_reported() {
        let mut out = Vec::new();
        check_nodes("t", &refs(&[(kernel("k"), 0, vec![7])]), &mut out, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::EventWaitCycle);
        assert!(out[0].to_string().contains("nonexistent"), "{}", out[0]);
    }
}
