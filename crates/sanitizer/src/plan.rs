//! Dispatch plans and the static schedule checker.
//!
//! A [`DispatchPlan`] is the sanitizer's model of what a scheduler is
//! *about* to do: an issue-ordered list of kernels, each with a target
//! stream and a set of declared dependencies. [`DispatchPlan::round_robin`]
//! mirrors the group scheduler's dispatch policy, so the checker validates
//! exactly the schedule that would execute — before anything executes.

use crate::report::{ConflictSite, Diagnostic, DiagnosticKind, KernelRef};
use crate::sweep::{conflict_candidates, pairs_covered};
use gpu_sim::{AccessConflict, AccessSet, KernelDesc};

/// One node of a dispatch plan.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The kernel to launch.
    pub kernel: KernelDesc,
    /// Target stream (pool-relative index).
    pub stream: usize,
    /// Plan-node indices whose completion this node waits for (cross-stream
    /// deps become event record/wait pairs at dispatch time).
    pub deps: Vec<usize>,
}

/// A borrowed view of one plan node, so a frozen execution plan can be
/// validated in place — no kernels cloned into a [`DispatchPlan`] per
/// check. [`DispatchPlan::check`] itself runs on this view.
#[derive(Debug, Clone, Copy)]
pub struct PlanNodeRef<'a> {
    /// The kernel to launch.
    pub kernel: &'a KernelDesc,
    /// Target stream (pool-relative index).
    pub stream: usize,
    /// Plan-node indices whose completion this node waits for.
    pub deps: &'a [usize],
}

/// An issue-ordered schedule: which kernel goes to which stream, after
/// which dependencies.
#[derive(Debug, Clone, Default)]
pub struct DispatchPlan {
    nodes: Vec<PlanNode>,
    /// Human-readable label for diagnostics (layer key, net name...).
    pub label: String,
}

impl DispatchPlan {
    /// Empty plan with a diagnostic label.
    pub fn new(label: &str) -> Self {
        DispatchPlan {
            nodes: Vec::new(),
            label: label.to_string(),
        }
    }

    /// Append a node; returns its index. Dependency indices are *not*
    /// validated here — [`check`](crate::Sanitizer::check_plan) flags
    /// out-of-range deps and wait cycles, which is the point: fault
    /// injection builds deliberately broken plans.
    pub fn add(&mut self, kernel: KernelDesc, stream: usize, deps: &[usize]) -> usize {
        self.nodes.push(PlanNode {
            kernel,
            stream,
            deps: deps.to_vec(),
        });
        self.nodes.len() - 1
    }

    /// The plan the group scheduler would execute: group `i` is an ordered
    /// chain on stream `i % num_streams`, with chain edges as deps.
    pub fn round_robin(label: &str, groups: &[Vec<KernelDesc>], num_streams: usize) -> Self {
        let num_streams = num_streams.max(1);
        let mut plan = DispatchPlan::new(label);
        for (g, group) in groups.iter().enumerate() {
            let mut prev: Option<usize> = None;
            for k in group {
                let deps: Vec<usize> = prev.into_iter().collect();
                prev = Some(plan.add(k.clone(), g % num_streams, &deps));
            }
        }
        plan
    }

    /// Plan nodes in issue order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Number of kernels in the plan.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrowed node views in issue order.
    pub fn node_refs(&self) -> Vec<PlanNodeRef<'_>> {
        self.nodes
            .iter()
            .map(|n| PlanNodeRef {
                kernel: &n.kernel,
                stream: n.stream,
                deps: &n.deps,
            })
            .collect()
    }

    /// Check the plan: out-of-range deps, event-wait cycles (deadlock),
    /// and memory conflicts not covered by happens-before. Appends
    /// diagnostics to `out`; returns the number of kernel pairs compared.
    pub(crate) fn check(&self, out: &mut Vec<Diagnostic>) -> u64 {
        check_nodes(&self.label, &self.node_refs(), out, true)
    }
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
    /// caller holds a symbolic certificate that already proves
    /// hazard-freedom; `for_lint` keeps the closure for the linter's
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
/// (dangling deps, self-waits, wait cycles) — the caller holds a symbolic
/// certificate that already proves hazard-freedom.
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
mod tests {
    use super::*;
    use gpu_sim::{BufferId, ByteRange, Dim3, KernelCost, LaunchConfig};

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(8), Dim3::linear(128), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        )
    }

    #[test]
    fn round_robin_matches_group_scheduler_shape() {
        let groups = vec![
            vec![kernel("a0"), kernel("a1")],
            vec![kernel("b0")],
            vec![kernel("c0")],
        ];
        let p = DispatchPlan::round_robin("t", &groups, 2);
        assert_eq!(p.len(), 4);
        let streams: Vec<usize> = p.nodes().iter().map(|n| n.stream).collect();
        assert_eq!(streams, vec![0, 0, 1, 0]);
        assert_eq!(p.nodes()[1].deps, vec![0], "chain edge inside group");
        assert!(p.nodes()[2].deps.is_empty());
    }

    #[test]
    fn clean_plan_has_no_diagnostics() {
        let buf = BufferId::from_label("plan/x");
        let groups: Vec<Vec<KernelDesc>> = (0..4)
            .map(|i| {
                vec![kernel("k")
                    .with_tag(i)
                    .writes(buf, ByteRange::span(i * 64, 64))]
            })
            .collect();
        let p = DispatchPlan::round_robin("t", &groups, 4);
        let mut out = Vec::new();
        let pairs = p.check(&mut out);
        assert_eq!(out, vec![]);
        assert_eq!(pairs, 6);
    }

    #[test]
    fn unordered_conflict_is_a_missing_dependency() {
        let buf = BufferId::from_label("plan/y");
        let mut p = DispatchPlan::new("t");
        p.add(kernel("w0").writes(buf, ByteRange::new(0, 128)), 0, &[]);
        p.add(kernel("w1").writes(buf, ByteRange::new(64, 192)), 1, &[]);
        let mut out = Vec::new();
        p.check(&mut out);
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
        let mut p = DispatchPlan::new("t");
        let a = p.add(kernel("w0").writes(buf, ByteRange::new(0, 128)), 0, &[]);
        p.add(kernel("w1").writes(buf, ByteRange::new(0, 128)), 1, &[a]);
        let mut out = Vec::new();
        p.check(&mut out);
        assert_eq!(out, vec![]);
        // Covered by stream FIFO order instead.
        let mut p = DispatchPlan::new("t");
        p.add(kernel("w0").writes(buf, ByteRange::new(0, 128)), 3, &[]);
        p.add(kernel("w1").writes(buf, ByteRange::new(0, 128)), 3, &[]);
        let mut out = Vec::new();
        p.check(&mut out);
        assert_eq!(out, vec![]);
    }

    #[test]
    fn transitive_order_suppresses_false_positives() {
        let buf = BufferId::from_label("plan/t");
        let mut p = DispatchPlan::new("t");
        let a = p.add(kernel("a").writes(buf, ByteRange::new(0, 64)), 0, &[]);
        let b = p.add(kernel("b"), 1, &[a]);
        p.add(kernel("c").reads(buf, ByteRange::new(0, 64)), 2, &[b]);
        let mut out = Vec::new();
        p.check(&mut out);
        assert_eq!(out, vec![], "a → b → c orders a before c transitively");
    }

    #[test]
    fn cross_stream_wait_cycle_is_detected() {
        // Stream 0: k0 waits on k1 (enqueued later on stream 1); stream 1:
        // k1 waits on k0. Neither can ever start.
        let mut p = DispatchPlan::new("t");
        p.add(kernel("k0"), 0, &[1]);
        p.add(kernel("k1"), 1, &[0]);
        let mut out = Vec::new();
        p.check(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::EventWaitCycle);
        assert!(out[0].to_string().contains("cycle"), "{}", out[0]);
    }

    #[test]
    fn dangling_dep_is_reported() {
        let mut p = DispatchPlan::new("t");
        p.add(kernel("k"), 0, &[7]);
        let mut out = Vec::new();
        p.check(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagnosticKind::EventWaitCycle);
        assert!(out[0].to_string().contains("nonexistent"), "{}", out[0]);
    }
}
