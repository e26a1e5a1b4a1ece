//! The indexed hazard sweep: which pairs of access sets can conflict at all.
//!
//! Every hazard check in this crate — plan nodes, trace launches, chunk
//! unions — asks the same question of a list of [`AccessSet`]s: which pairs
//! touch overlapping bytes of one buffer with at least one side writing.
//! Asking it pair by pair costs `m·(m−1)/2` [`AccessSet::conflict_with`]
//! calls to find, on a clean schedule, nothing. [`conflict_candidates`]
//! answers it for the whole list at once: flatten the declared accesses,
//! sort them by `(buffer, start)` and sweep each buffer keeping the accesses
//! still open at the current start. A write meets every open access, a read
//! meets open writes only, so `n` readers of one weight range cost `n`, not
//! `n²`. The work is `O(a log a + candidates)` for `a` declared accesses;
//! the consumers then run their happens-before test and `conflict_with`
//! (which picks the reported buffer, overlap and hazard kind) on the
//! survivors only.

use gpu_sim::AccessSet;

/// The pairs `(i, j)`, `i < j`, of `sets` for which
/// `sets[i].conflict_with(sets[j])` is `Some`, ascending and without
/// duplicates — the order the all-pairs loops visited them in.
pub(crate) fn conflict_candidates(sets: &[&AccessSet]) -> Vec<(u32, u32)> {
    #[cfg(test)]
    if reference::is_on() {
        return reference::all_pairs(sets);
    }
    // Every declared access as `(buffer, start, end, node, is_write)`; an
    // empty range intersects nothing and is dropped.
    let mut flat: Vec<(u64, u64, u64, u32, bool)> = Vec::new();
    for (node, set) in sets.iter().enumerate() {
        let node = u32::try_from(node).expect("fewer than 2^32 access sets");
        for (accesses, write) in [(&set.reads, false), (&set.writes, true)] {
            let declared = accesses.iter().filter(|a| !a.range.is_empty());
            flat.extend(declared.map(|a| (a.buffer.0, a.range.start, a.range.end, node, write)));
        }
    }
    flat.sort_unstable();

    let mut pairs: Vec<(u32, u32)> = Vec::new();
    // `(end, node)` of the accesses of the current buffer that may still
    // reach the sweep position. Every one of them starts at or before the
    // access in hand, so it overlaps exactly when its end lies beyond that
    // access's start.
    let mut writers: Vec<(u64, u32)> = Vec::new();
    let mut readers: Vec<(u64, u32)> = Vec::new();
    let mut current = None;
    for &(buffer, start, end, node, write) in &flat {
        if current != Some(buffer) {
            current = Some(buffer);
            writers.clear();
            readers.clear();
        }
        let mut meet = |live: &mut Vec<(u64, u32)>| {
            live.retain(|&(live_end, _)| live_end > start);
            let others = live.iter().filter(|&&(_, other)| other != node);
            pairs.extend(others.map(|&(_, other)| (other.min(node), other.max(node))));
        };
        meet(&mut writers);
        if write {
            meet(&mut readers);
            writers.push((end, node));
        } else {
            // Reads never meet reads: the reader list is pruned only when a
            // write walks it.
            readers.push((end, node));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Pairs a hazard check over `sets` covers: every two sets that declare
/// anything (the `plan_pairs` / `trace_pairs` / `chunk_pairs` counters).
pub(crate) fn pairs_covered(sets: &[&AccessSet]) -> u64 {
    let m = sets.iter().filter(|s| !s.is_empty()).count() as u64;
    m * m.saturating_sub(1) / 2
}

/// The all-pairs loop the sweep replaced, kept as the reference arm of the
/// differential tests: while switched on (per thread),
/// [`conflict_candidates`] returns every pair of declaring sets, so each
/// consumer degenerates to the old "test every pair" scan.
#[cfg(test)]
pub(crate) mod reference {
    use super::AccessSet;
    use std::cell::Cell;

    thread_local! {
        static ON: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn is_on() -> bool {
        ON.with(Cell::get)
    }

    /// Run `f` with every hazard check of this thread on the all-pairs arm.
    pub(crate) fn with_all_pairs<R>(f: impl FnOnce() -> R) -> R {
        ON.with(|on| on.set(true));
        let out = f();
        ON.with(|on| on.set(false));
        out
    }

    pub(crate) fn all_pairs(sets: &[&AccessSet]) -> Vec<(u32, u32)> {
        let declaring = |i: &usize| !sets[*i].is_empty();
        let mut pairs = Vec::new();
        for i in (0..sets.len()).filter(declaring) {
            for j in (i + 1..sets.len()).filter(declaring) {
                pairs.push((i as u32, j as u32));
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DispatchPlan, PlanNodeRef};
    use crate::{Diagnostic, LintConfig, LintDiag, LintStats, SanitizeMode, Sanitizer};
    use crate::{SanitizerStats, SymGroupSpec};
    use gpu_sim::{BufferId, ByteRange, Device, DeviceProps, Dim3, KernelCost, KernelDesc};
    use gpu_sim::{LaunchConfig, MemAccess};
    use proptest::prelude::*;

    fn kernel(name: &str, set: &AccessSet) -> KernelDesc {
        let mut k = KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 32, 0),
            KernelCost::new(1.0e5, 1.0e4),
        );
        k.accesses = set.clone();
        k
    }

    fn set(reads: &[(u64, u64, u64)], writes: &[(u64, u64, u64)]) -> AccessSet {
        let access = |&(buffer, start, end): &(u64, u64, u64)| MemAccess {
            buffer: BufferId(buffer),
            range: ByteRange { start, end },
        };
        AccessSet {
            reads: reads.iter().map(access).collect(),
            writes: writes.iter().map(access).collect(),
        }
    }

    fn candidates(sets: &[AccessSet]) -> Vec<(u32, u32)> {
        conflict_candidates(&sets.iter().collect::<Vec<_>>())
    }

    /// The definition the sweep must meet: the pairs `conflict_with` accepts.
    fn conflicting_pairs(sets: &[AccessSet]) -> Vec<(u32, u32)> {
        let refs: Vec<&AccessSet> = sets.iter().collect();
        reference::all_pairs(&refs)
            .into_iter()
            .filter(|&(i, j)| sets[i as usize].conflict_with(&sets[j as usize]).is_some())
            .collect()
    }

    #[test]
    fn degenerate_inputs_yield_no_candidates() {
        assert_eq!(candidates(&[]), vec![]);
        assert_eq!(candidates(&[set(&[], &[(0, 0, 64)])]), vec![]);
        assert_eq!(candidates(&vec![AccessSet::default(); 5]), vec![]);
        // Zero-length and inverted ranges cover no byte.
        let hollow = set(&[(0, 8, 8)], &[(0, 16, 4)]);
        assert_eq!(candidates(&[hollow.clone(), hollow]), vec![]);
        // A plan whose only overlap is read/read.
        let reader = set(&[(0, 0, 64)], &[]);
        assert_eq!(candidates(&vec![reader; 6]), vec![]);
        // One node overlapping itself is not a pair.
        assert_eq!(candidates(&[set(&[(0, 0, 64)], &[(0, 32, 96)])]), vec![]);
        // None of the above reaches a consumer's report either.
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.check_plan(&DispatchPlan::new("empty"));
        san.check_chunks("empty", &[]);
        assert_eq!(san.reports(), &[]);
        assert_eq!(san.stats().plan_pairs + san.stats().chunk_pairs, 0);
    }

    #[test]
    fn adjacent_ranges_do_not_meet_and_one_byte_does() {
        let tiles = [set(&[], &[(0, 0, 8)]), set(&[], &[(0, 8, 16)])];
        assert_eq!(candidates(&tiles), vec![]);
        let lapped = [set(&[], &[(0, 0, 9)]), set(&[(0, 8, 16)], &[])];
        assert_eq!(candidates(&lapped), vec![(0, 1)]);
        // Same range in another buffer is unrelated.
        let apart = [set(&[], &[(0, 0, 8)]), set(&[], &[(1, 0, 8)])];
        assert_eq!(candidates(&apart), vec![]);
    }

    #[test]
    fn a_pair_is_listed_once_and_in_ascending_order() {
        // Sets 2 and 0 conflict on two buffers and in both directions.
        let sets = [
            set(&[(1, 0, 8)], &[(0, 0, 8)]),
            set(&[(0, 100, 108)], &[]),
            set(&[(0, 0, 8)], &[(1, 0, 8), (0, 4, 6)]),
            set(&[], &[(0, 104, 105)]),
        ];
        assert_eq!(candidates(&sets), vec![(0, 2), (1, 3)]);
        assert_eq!(candidates(&sets), conflicting_pairs(&sets));
    }

    /// `layers` kernels per sample: layer `l` of sample `s` reads the shared
    /// weights of `l` and the sample's row of activation `l`, and writes its
    /// row of activation `l + 1`.
    fn chain_plan(layers: u64, samples: u64) -> Vec<AccessSet> {
        let mut sets = Vec::new();
        for s in 0..samples {
            for l in 0..layers {
                sets.push(set(
                    &[(1000 + l, 0, 4096), (l, s * 64, s * 64 + 64)],
                    &[(l + 1, s * 64, s * 64 + 64)],
                ));
            }
        }
        sets
    }

    #[test]
    fn candidates_grow_linearly_with_the_batch() {
        // Per sample: the `layers - 1` producer/consumer pairs of its own
        // chain. The 32 (64) readers of each weight buffer add none.
        let at_32 = candidates(&chain_plan(5, 32));
        assert_eq!(at_32.len(), 32 * 4);
        assert_eq!(candidates(&chain_plan(5, 64)).len(), 2 * at_32.len());
        let sets = chain_plan(5, 32);
        assert_eq!(at_32, conflicting_pairs(&sets));
        assert_eq!(
            pairs_covered(&sets.iter().collect::<Vec<_>>()),
            160 * 159 / 2
        );
    }

    // ---- differential properties: sweep arm == all-pairs arm -------------

    fn arb_access() -> impl Strategy<Value = (u64, u64, u64)> {
        (0u8..8, 0u64..3, 0u64..14, 0u64..14).prop_map(|(kind, buffer, a, b)| match kind {
            // Anything, zero-length and inverted ranges included.
            0..=3 => (buffer, a, b),
            // Tiles of one buffer: adjacent, never overlapping.
            4..=5 => (3, 4 * (a % 4), 4 * (a % 4) + 4),
            // One hot range many sets name (weights).
            _ => (4, 0, 16),
        })
    }

    fn arb_set() -> impl Strategy<Value = AccessSet> {
        (
            prop::collection::vec(arb_access(), 0..4),
            prop::collection::vec(arb_access(), 0..3),
        )
            .prop_map(|(r, w)| set(&r, &w))
    }

    /// `(stream, deps, accesses)` per node; deps may dangle, point forward
    /// or at the node itself.
    type ArbNode = (usize, Vec<usize>, AccessSet);

    fn arb_plan() -> impl Strategy<Value = Vec<ArbNode>> {
        (1usize..=8, 0usize..20).prop_flat_map(|(streams, n)| {
            prop::collection::vec(
                (0..streams, prop::collection::vec(0..n + 2, 0..3), arb_set()),
                n,
            )
        })
    }

    /// Half of the time acyclic by construction (deps point backwards
    /// only), so the hazard scan is reached on plans with real dependencies.
    fn arb_any_plan() -> impl Strategy<Value = Vec<ArbNode>> {
        (arb_plan(), any::<bool>()).prop_map(|(mut nodes, backwards_only)| {
            if backwards_only {
                for (i, (_, deps, _)) in nodes.iter_mut().enumerate() {
                    deps.retain(|&d| d < i);
                }
            }
            nodes
        })
    }

    type PlanOutcome = (Vec<Diagnostic>, Vec<LintDiag>, SanitizerStats, LintStats);

    /// Verify `plan` through the fused entry point (`fused`) or through the
    /// `check_plan_ref*` + `lint_plan_nodes` wrappers.
    fn verify(plan: &[ArbNode], events: bool, certified: bool, fused: bool) -> PlanOutcome {
        let kernels: Vec<KernelDesc> = plan.iter().map(|(_, _, a)| kernel("k", a)).collect();
        let nodes: Vec<PlanNodeRef<'_>> = plan
            .iter()
            .zip(&kernels)
            .map(|((stream, deps, _), kernel)| PlanNodeRef {
                kernel,
                stream: *stream,
                deps,
            })
            .collect();
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        san.attach_linter(LintConfig {
            mem_bytes: 1 << 30,
            max_resident_threads: 1 << 16,
        });
        if fused {
            san.verify_plan("pt", &nodes, events, certified);
        } else {
            if certified {
                san.check_plan_ref_certified("pt", &nodes);
            } else {
                san.check_plan_ref("pt", &nodes);
            }
            san.lint_plan_nodes("pt", &nodes, events, certified);
        }
        let linter = san.linter().expect("attached above");
        (
            san.reports().to_vec(),
            linter.diags().to_vec(),
            san.stats(),
            linter.stats(),
        )
    }

    #[derive(Debug, Clone)]
    enum Cmd {
        Launch(usize, AccessSet),
        /// Record a fresh event on the stream.
        Record(usize),
        /// Wait for the `n`-th event recorded so far (modulo), if any.
        Wait(usize, usize),
        Sync,
    }

    fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
        let cmd =
            (0u8..11, 0usize..4, 0usize..8, arb_set()).prop_map(|(kind, s, e, a)| match kind {
                0..=5 => Cmd::Launch(s, a),
                6..=7 => Cmd::Record(s),
                8..=9 => Cmd::Wait(s, e),
                _ => Cmd::Sync,
            });
        prop::collection::vec(cmd, 0..30)
    }

    fn trace_outcome(cmds: &[Cmd]) -> (Vec<Diagnostic>, SanitizerStats) {
        let mut dev = Device::new(DeviceProps::p100());
        let streams: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
        let mut recorded = Vec::new();
        for cmd in cmds {
            match cmd {
                Cmd::Launch(s, a) => {
                    dev.launch(streams[*s], kernel("k", a));
                }
                Cmd::Record(s) => {
                    let e = dev.create_event();
                    dev.record_event(streams[*s], e);
                    recorded.push(e);
                }
                Cmd::Wait(s, e) => {
                    if !recorded.is_empty() {
                        dev.wait_event(streams[*s], recorded[e % recorded.len()]);
                    }
                }
                Cmd::Sync => {
                    dev.run();
                }
            }
        }
        let mut san = Sanitizer::new(SanitizeMode::Full);
        san.check_device(&dev);
        (san.reports().to_vec(), san.stats())
    }

    fn chunk_outcome(groups: &[Vec<AccessSet>], spec: bool) -> (Vec<Diagnostic>, SanitizerStats) {
        let groups: Vec<Vec<KernelDesc>> = groups
            .iter()
            .map(|g| g.iter().map(|a| kernel("chunk", a)).collect())
            .collect();
        let mut san = Sanitizer::new(SanitizeMode::PlanOnly);
        if spec {
            // An empty declaration conforms to no kernel: the certificate
            // path falls back to the per-instance check.
            san.check_chunks_spec("pt", "pt/site", &SymGroupSpec::new(), &groups);
        } else {
            san.check_chunks("pt", &groups);
        }
        (san.reports().to_vec(), san.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sweep_finds_exactly_the_conflicting_pairs(
            sets in prop::collection::vec(arb_set(), 0..24),
        ) {
            prop_assert_eq!(candidates(&sets), conflicting_pairs(&sets));
        }

        #[test]
        fn plan_verification_matches_the_all_pairs_reference(
            plan in arb_any_plan(),
            events in any::<bool>(),
            certified in any::<bool>(),
        ) {
            let swept = verify(&plan, events, certified, true);
            let reference = reference::with_all_pairs(|| verify(&plan, events, certified, true));
            prop_assert_eq!(&swept, &reference);
            // One shared analysis reports what the two separate ones do.
            prop_assert_eq!(&swept, &verify(&plan, events, certified, false));
        }

        #[test]
        fn trace_replay_matches_the_all_pairs_reference(cmds in arb_cmds()) {
            let reference = reference::with_all_pairs(|| trace_outcome(&cmds));
            prop_assert_eq!(trace_outcome(&cmds), reference);
        }

        #[test]
        fn chunk_check_matches_the_all_pairs_reference(
            groups in prop::collection::vec(prop::collection::vec(arb_set(), 0..3), 0..10),
            spec in any::<bool>(),
        ) {
            let reference = reference::with_all_pairs(|| chunk_outcome(&groups, spec));
            prop_assert_eq!(chunk_outcome(&groups, spec), reference);
        }
    }
}
