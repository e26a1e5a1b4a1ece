//! Wave co-scheduling: the inter-operator extension of the paper's
//! analytical model (§3.2).
//!
//! GLP4NN's MILP sizes a stream pool for one layer's kernel classes. A
//! *wave* — an antichain of the layer DAG — holds dispatches from several
//! independent layers that could share the device at once (Opara-style
//! per-operator streams). This module solves one joint occupancy program
//! over every (dispatch, kernel-class) pair in the wave, built by the same
//! builder as the per-layer model
//! ([`glp4nn::analyzer::solve_occupancy`]): duty cycles are normalized
//! *within each dispatch* (the dispatches themselves run concurrently, so
//! each kernel's residency fraction is relative to its own chain, not the
//! wave total), each class is capped at the dispatch's group count, and
//! every dispatch is forced at least one concurrent instance so no layer
//! is starved. A one-dispatch wave is exactly the per-layer model with
//! that group cap.
//!
//! The verdict includes a *pays* bit: co-scheduling is only worth the
//! extra streams and cross-operator events when the joint occupancy beats
//! the best any single dispatch achieves alone. When it does not —
//! typically when one operator already saturates the device — the caller
//! falls back to per-layer GLP4NN scheduling, which is the paper's
//! convergence-invariant baseline.

use glp4nn::analyzer::solve_occupancy;
use glp4nn::KernelProfile;
use gpu_sim::DeviceProps;

/// Occupancy improvement (relative) the joint schedule must show over the
/// best solo dispatch before co-scheduling is considered worthwhile.
const PAYS_MARGIN: f64 = 1.01;

/// Profile of one layer dispatch participating in a wave: the kernel
/// classes of its per-sample chains plus how many independent chains
/// (groups) it launches — the upper bound on useful streams.
#[derive(Debug, Clone)]
pub struct WaveDispatchProfile {
    /// Layer index in the DAG (for reporting).
    pub layer: usize,
    /// Layer name (for reporting).
    pub name: String,
    /// Independent kernel groups this dispatch launches.
    pub groups: usize,
    /// Kernel-class profiles of one group's chain.
    pub classes: Vec<KernelProfile>,
}

/// The joint model's verdict for one wave.
#[derive(Debug, Clone)]
pub struct WaveAssignment {
    /// Streams allocated to each dispatch, in input order: `Σ_k #K_{d,k}`
    /// clamped to `[1, min(C, groups_d)]`.
    pub streams_per_dispatch: Vec<u32>,
    /// Joint objective (active threads per SM) at the optimum.
    pub objective_threads_per_sm: f64,
    /// Best objective any dispatch achieves when scheduled alone with the
    /// per-layer model.
    pub best_solo_objective: f64,
    /// Whether the joint schedule beats the best solo schedule by the
    /// margin — the co-schedule / fall-back decision.
    pub pays: bool,
}

/// Solve the joint occupancy program for one wave of dispatches.
///
/// A single-dispatch wave degenerates to the per-layer model with the
/// instance counts additionally clamped to the dispatch's real group
/// count (and never "pays" — there is nothing to co-schedule). The
/// pays-comparison baseline is that same group-clamped solo model run on
/// each dispatch alone: both sides of the comparison see the finite batch,
/// so a layer that could *theoretically* saturate the device — but only
/// carries a handful of sample chains — does not spuriously veto
/// co-scheduling. Solver failure falls back to one stream per dispatch
/// with `pays = false`, mirroring the per-layer analyzer's serial
/// fallback.
pub fn co_schedule(props: &DeviceProps, dispatches: &[WaveDispatchProfile]) -> WaveAssignment {
    let refs: Vec<&WaveDispatchProfile> = dispatches.iter().collect();
    let solos: Vec<Option<Solo>> = dispatches.iter().map(|d| solve_solo(props, d)).collect();
    co_schedule_with(props, &refs, &solos)
}

/// One dispatch's solo optimum: `(streams, objective)` of the one-dispatch
/// joint model, `None` where [`solve_joint`] fails.
pub(crate) type Solo = (u32, f64);

/// The one-dispatch model of `d` — the per-layer GLP4NN sizing and the
/// pays-comparison baseline. A whole-net capture solves it once per layer
/// and hands the results to every wave the layer appears in.
pub(crate) fn solve_solo(props: &DeviceProps, d: &WaveDispatchProfile) -> Option<Solo> {
    solve_joint(props, &[d]).map(|(streams, objective)| (streams[0], objective))
}

/// [`co_schedule`] over solo optima the caller already holds (`solos[i]` is
/// [`solve_solo`] of `dispatches[i]`). A one-dispatch wave *is* its solo
/// model, so only waves of two or more solve anything here.
pub(crate) fn co_schedule_with(
    props: &DeviceProps,
    dispatches: &[&WaveDispatchProfile],
    solos: &[Option<Solo>],
) -> WaveAssignment {
    let best_solo = solos
        .iter()
        .flatten()
        .map(|&(_, obj)| obj)
        .fold(0.0f64, f64::max);
    let joint = match (dispatches, solos) {
        ([_], [solo]) => solo.map(|(streams, objective)| (vec![streams], objective)),
        _ => solve_joint(props, dispatches),
    };
    match joint {
        Some((streams_per_dispatch, objective)) => WaveAssignment {
            streams_per_dispatch,
            objective_threads_per_sm: objective,
            best_solo_objective: best_solo,
            pays: dispatches.len() >= 2 && objective >= best_solo * PAYS_MARGIN,
        },
        None => WaveAssignment {
            streams_per_dispatch: vec![1; dispatches.len()],
            objective_threads_per_sm: 0.0,
            best_solo_objective: best_solo,
            pays: false,
        },
    }
}

/// Solve the joint model over `dispatches`: [`solve_occupancy`] with each
/// dispatch's classes capped at its group count (concurrency beyond the
/// independent chains a dispatch launches is unrealizable), then each
/// dispatch's `Σ_k #K_{d,k}` clamped to a usable stream count. `None` on an
/// empty class set or solver failure (including a genuinely infeasible
/// joint — e.g. one dispatch alone saturating the thread budget, leaving no
/// room for another's progress row).
fn solve_joint(
    props: &DeviceProps,
    dispatches: &[&WaveDispatchProfile],
) -> Option<(Vec<u32>, f64)> {
    let model: Vec<(&[KernelProfile], u32)> = dispatches
        .iter()
        .map(|d| (d.classes.as_slice(), d.groups.max(1) as u32))
        .collect();
    let (counts, objective) = solve_occupancy(props, &model)?;
    let streams_per_dispatch = counts
        .iter()
        .zip(dispatches)
        .map(|(k, d)| clamp_streams(k.iter().sum(), d.groups, props))
        .collect();
    Some((streams_per_dispatch, objective))
}

fn clamp_streams(streams: u32, groups: usize, props: &DeviceProps) -> u32 {
    streams
        .max(1)
        .min(props.concurrency_degree())
        .min(groups.max(1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glp4nn::analyzer::analyze_profiles;

    fn profile(name: &str, blocks: u64, threads: u32, smem: u32, dur_us: u64) -> KernelProfile {
        KernelProfile {
            name: name.into(),
            grid_blocks: blocks,
            threads_per_block: threads,
            regs_per_thread: 32,
            smem_per_block: smem,
            avg_duration_ns: dur_us * 1000,
            instances: 4,
        }
    }

    fn dispatch(
        layer: usize,
        name: &str,
        groups: usize,
        classes: Vec<KernelProfile>,
    ) -> WaveDispatchProfile {
        WaveDispatchProfile {
            layer,
            name: name.into(),
            groups,
            classes,
        }
    }

    #[test]
    fn small_twin_dispatches_pay() {
        // Two Siamese-tower convs, each with small per-sample grids: the
        // joint schedule should pack instances from both and beat the
        // best solo occupancy.
        let props = DeviceProps::p100();
        let tower = vec![
            profile("im2col", 8, 256, 0, 100),
            profile("sgemm", 12, 128, 8192, 400),
        ];
        let wa = co_schedule(
            &props,
            &[
                dispatch(0, "conv1", 8, tower.clone()),
                dispatch(1, "conv1_p", 8, tower),
            ],
        );
        assert!(wa.pays, "wa = {wa:?}");
        assert!(wa.streams_per_dispatch.iter().all(|&s| s >= 1));
        assert!(
            wa.objective_threads_per_sm >= wa.best_solo_objective,
            "wa = {wa:?}"
        );
    }

    #[test]
    fn saturating_dispatch_does_not_pay() {
        // One operator already fills the device's thread capacity: adding
        // the second cannot raise occupancy, so co-scheduling is declined.
        let props = DeviceProps::k40c();
        let giant = vec![profile("sgemm", props.num_sms as u64 * 16, 1024, 0, 5000)];
        let tiny = vec![profile("relu", 2, 64, 0, 10)];
        let wa = co_schedule(
            &props,
            &[dispatch(0, "big", 4, giant), dispatch(1, "small", 4, tiny)],
        );
        assert!(!wa.pays, "wa = {wa:?}");
    }

    /// A one-dispatch wave is the per-layer model with the instance counts
    /// clamped to the group count: on every evaluation GPU the same stream
    /// count comes out, and the wave never "pays".
    fn assert_single_dispatch_matches(classes: &[KernelProfile], groups: usize) {
        for props in DeviceProps::evaluation_set() {
            let solo = analyze_profiles(&props, classes);
            let wa = co_schedule(&props, &[dispatch(0, "conv", groups, classes.to_vec())]);
            assert!(!wa.pays);
            assert_eq!(
                wa.streams_per_dispatch[0],
                solo.streams.min(groups as u32),
                "{}: wa = {wa:?} solo = {solo:?}",
                props.name
            );
        }
    }

    #[test]
    fn single_dispatch_matches_per_layer_model() {
        assert_single_dispatch_matches(
            &[
                profile("im2col", 18, 256, 0, 100),
                profile("sgemm", 24, 128, 8192, 400),
            ],
            16,
        );
    }

    #[test]
    fn footprint_helpers_match_core_model() {
        // The joint model charges the per-layer analyzer's Eq. 7/8
        // footprints (both come from `solve_occupancy`): with a group cap
        // above every Eq. 7 cap, a three-class chain gets the solo count.
        assert_single_dispatch_matches(
            &[
                profile("im2col", 18, 256, 0, 100),
                profile("sgemm", 24, 128, 8192, 400),
                profile("bias", 6, 64, 0, 50),
            ],
            64,
        );
    }

    #[test]
    fn streams_clamped_to_group_count() {
        // A dispatch with a single group can never use more than one
        // stream regardless of what the model would allocate.
        let props = DeviceProps::p100();
        let classes = vec![profile("relu", 2, 64, 0, 500)];
        let wa = co_schedule(
            &props,
            &[
                dispatch(0, "a", 1, classes.clone()),
                dispatch(1, "b", 1, classes),
            ],
        );
        assert_eq!(wa.streams_per_dispatch, vec![1, 1]);
    }

    #[test]
    fn every_dispatch_makes_progress() {
        // Even under heavy contention each dispatch keeps >= 1 stream.
        let props = DeviceProps::k40c();
        let heavy = vec![profile("sgemm", 60, 512, 16384, 3000)];
        let wa = co_schedule(
            &props,
            &[
                dispatch(0, "a", 8, heavy.clone()),
                dispatch(1, "b", 8, heavy.clone()),
                dispatch(2, "c", 8, heavy),
            ],
        );
        assert!(wa.streams_per_dispatch.iter().all(|&s| s >= 1));
        assert!(wa.streams_per_dispatch.iter().sum::<u32>() <= props.concurrency_degree() * 3);
    }
}
