//! The kernel analyzer: the paper's analytical model (§3.2).
//!
//! The *concurrency analyzer* turns per-kernel-class profiles into an
//! integer program — maximize the occupancy ratio `OR_SM` (Eqs. 1-3)
//! subject to shared-memory (Eq. 4), thread (Eq. 5), resident-block and
//! concurrency-degree (Eq. 6) constraints with per-kernel caps (Eq. 7) —
//! solves it with the [`milp`] crate (standing in for GLPK), and reports
//! `C_out = Σ #K_i` (Eq. 9), the number of streams to create.
//!
//! The *concurrency maintainer* caches one [`ConcurrencyPlan`] per layer
//! per GPU so the one-time analysis cost (`T_a`, Table 6) is paid once. The
//! schedules captured from those plans live one level up, in the caller's
//! [`crate::PlanCache`].

use gpu_sim::DeviceProps;
use milp::{Model, Sense, VarId, VarKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Aggregated profile of one kernel class, produced by the resource
/// tracker's kernel parser (the "profiling input" rows of Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Total blocks per instance (`#β_K`).
    pub grid_blocks: u64,
    /// Threads per block (`τ_K`).
    pub threads_per_block: u32,
    /// Registers per thread (soft constraint in the paper's model).
    pub regs_per_thread: u32,
    /// Shared memory per block (`sm_K`).
    pub smem_per_block: u32,
    /// Mean execution time (`T_K`), ns.
    pub avg_duration_ns: u64,
    /// Number of instances averaged.
    pub instances: u64,
}

/// The analyzer's verdict for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyPlan {
    /// `#K_i` per kernel class, in profile order.
    pub per_kernel: Vec<(String, u32)>,
    /// `C_out = Σ #K_i` — concurrent streams to allocate (Eq. 9).
    pub streams: u32,
    /// Objective value (active threads per SM) at the optimum.
    pub objective_threads_per_sm: f64,
    /// Real wall time spent solving (`T_a` contribution).
    pub analysis_time: Duration,
    /// Mean profiled duration per kernel class (feeds the fusion /
    /// reordering passes of [`crate::optim`]).
    pub class_durations: HashMap<String, u64>,
}

/// The per-GPU kernel analyzer (concurrency analyzer + maintainer).
#[derive(Debug)]
pub struct KernelAnalyzer {
    props: DeviceProps,
    /// Concurrency maintainer: layer key → plan.
    plans: HashMap<String, ConcurrencyPlan>,
    /// Times the MILP model was solved (probe for the steady-state tests).
    solves: u64,
    /// Accumulated analysis time on this GPU (`T_a`).
    total_analysis: Duration,
}

impl KernelAnalyzer {
    /// Analyzer for one device.
    pub fn new(props: DeviceProps) -> Self {
        KernelAnalyzer {
            props,
            plans: HashMap::new(),
            solves: 0,
            total_analysis: Duration::ZERO,
        }
    }

    /// Device this analyzer serves.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Look up a cached plan (concurrency maintainer).
    pub fn plan_for(&self, layer_key: &str) -> Option<&ConcurrencyPlan> {
        self.plans.get(layer_key)
    }

    /// Total analysis wall time accumulated (`T_a`).
    pub fn total_analysis_time(&self) -> Duration {
        self.total_analysis
    }

    /// Analyze a layer's kernel profiles, cache and return the plan.
    pub fn analyze(&mut self, layer_key: &str, profiles: &[KernelProfile]) -> &ConcurrencyPlan {
        let plan = analyze_profiles(&self.props, profiles);
        self.solves += 1;
        self.total_analysis += plan.analysis_time;
        self.plans.insert(layer_key.to_string(), plan);
        &self.plans[layer_key]
    }

    /// Number of cached plans.
    pub fn num_plans(&self) -> usize {
        self.plans.len()
    }

    /// Times the MILP model was solved.
    pub fn solves(&self) -> u64 {
        self.solves
    }
}

/// Eq. 8: blocks of one instance landing on a single SM under even spread,
/// floored at 1 (a kernel smaller than the SM count still occupies one
/// block-slot per instance) and capped at the configuration's occupancy
/// limit — a grid larger than the device executes in waves, so at most
/// the resident wave counts against the per-SM constraints.
fn beta_per_sm(props: &DeviceProps, p: &KernelProfile) -> u32 {
    let even = ((p.grid_blocks / props.num_sms as u64) as u32).max(1);
    let by_threads = (props.max_threads_per_sm / p.threads_per_block.max(1)).max(1);
    let by_smem = props
        .smem_per_sm
        .checked_div(p.smem_per_block)
        .map_or(u32::MAX, |v| v.max(1));
    even.min(by_threads)
        .min(by_smem)
        .min(props.max_blocks_per_sm)
}

/// Eq. 7: per-kernel cap on concurrent instances.
fn per_kernel_cap(props: &DeviceProps, p: &KernelProfile) -> u32 {
    let launch = props.launch_overhead_ns.max(1);
    let by_launch = (p.avg_duration_ns as f64 / launch as f64).ceil().max(1.0);
    let denom_thr = p.threads_per_block as u64 * p.grid_blocks;
    let by_threads = if denom_thr > 0 {
        (props.max_threads_per_sm as u64 * props.num_sms as u64) as f64 / denom_thr as f64
    } else {
        f64::INFINITY
    };
    let by_smem = if p.smem_per_block > 0 {
        (props.smem_per_sm as u64 * props.num_sms as u64) as f64
            / (p.smem_per_block as u64 * p.grid_blocks) as f64
    } else {
        f64::INFINITY
    };
    let cap = by_launch.min(by_threads.max(1.0)).min(by_smem.max(1.0));
    (cap.floor() as u32).clamp(1, props.concurrency_degree())
}

/// Build the duty-cycle-weighted occupancy program (Eqs. 1-8) over one or
/// more dispatches, each a kernel-class chain with a cap on concurrent
/// instances per class. Within a dispatch the classes run one after the
/// other, so each kernel's residency is its share of its own chain's time;
/// the dispatches themselves share the device, so the per-SM rows (Eqs.
/// 4-6) sum over all of them. Rows: the shared `smem`, `threads`, `blocks`
/// and `conc_hi`, then one `Σ #K ≥ 1` row per dispatch. Returns the model
/// and the variables, per dispatch in class order.
fn occupancy_model(
    props: &DeviceProps,
    dispatches: &[(&[KernelProfile], u32)],
) -> (Model, Vec<Vec<VarId>>) {
    let mut m = Model::new(Sense::Maximize);
    let mut vars = Vec::with_capacity(dispatches.len());
    let mut smem_terms = Vec::new();
    let mut thread_terms = Vec::new();
    let mut block_terms = Vec::new();
    let mut conc_terms = Vec::new();

    for &(profiles, group_cap) in dispatches {
        // The kernels of one chain form a dependent sequence (im2col →
        // sgemm → bias, Fig. 6), so over the chain's lifetime kernel `K_i`
        // occupies its SM footprint only for the fraction of time it
        // executes. The per-SM constraints therefore charge each instance
        // its *duty-cycle weighted* footprint — without this, a short
        // im2col with a large grid would appear to fill the device although
        // it is resident only briefly, and the model would degenerate to
        // one stream.
        let total_time: f64 = profiles
            .iter()
            .map(|p| p.avg_duration_ns.max(1) as f64)
            .sum();
        let mut dvars = Vec::with_capacity(profiles.len());
        for p in profiles {
            let duty = p.avg_duration_ns.max(1) as f64 / total_time;
            let beta = beta_per_sm(props, p) as f64 * duty;
            let tau = p.threads_per_block as f64;
            let cap = per_kernel_cap(props, p).min(group_cap);
            // Objective (Eqs. 1-3): active threads per SM contributed by
            // each concurrent instance of this class.
            let v = m.add_var(&p.name, VarKind::Integer, 0.0, cap as f64, tau * beta);
            dvars.push(v);
            smem_terms.push((v, p.smem_per_block as f64 * beta));
            thread_terms.push((v, tau * beta));
            block_terms.push((v, beta));
            conc_terms.push((v, 1.0));
        }
        vars.push(dvars);
    }

    // Eq. 4: shared memory per SM.
    m.add_le_constraint("smem", &smem_terms, props.smem_per_sm as f64);
    // Eq. 5: threads per SM.
    m.add_le_constraint("threads", &thread_terms, props.max_threads_per_sm as f64);
    // Hardware resident-block limit per SM.
    m.add_le_constraint("blocks", &block_terms, props.max_blocks_per_sm as f64);
    // Eq. 6: Σ #K_i ≤ C over everything sharing the device, and every
    // dispatch makes progress: at least one concurrent instance each.
    m.add_le_constraint("conc_hi", &conc_terms, props.concurrency_degree() as f64);
    for dvars in &vars {
        let progress: Vec<(VarId, f64)> = dvars.iter().map(|&v| (v, 1.0)).collect();
        m.add_ge_constraint("conc_lo", &progress, 1.0);
    }
    (m, vars)
}

/// Solve the occupancy program of [`occupancy_model`] over `dispatches`
/// (`(kernel classes, cap on concurrent instances per class)` each): the
/// per-layer model is one dispatch with cap `u32::MAX`, a wave of several
/// layers is one dispatch per layer with its group count as cap. Returns
/// `#K` per dispatch per class and the objective (active threads per SM),
/// or `None` when there is no dispatch, a dispatch has no class, or the
/// solver fails (e.g. one dispatch saturating the thread budget leaves no
/// room for another's progress row).
pub fn solve_occupancy(
    props: &DeviceProps,
    dispatches: &[(&[KernelProfile], u32)],
) -> Option<(Vec<Vec<u32>>, f64)> {
    if dispatches.is_empty() || dispatches.iter().any(|(p, _)| p.is_empty()) {
        return None;
    }
    let (m, vars) = occupancy_model(props, dispatches);
    let sol = milp::solve(&m).ok()?;
    let counts = vars
        .iter()
        .map(|dvars| {
            dvars
                .iter()
                .map(|&v| sol.try_int_value(v).unwrap_or(1).max(0) as u32)
                .collect()
        })
        .collect();
    Some((counts, sol.objective))
}

/// Run the analytical model on a set of kernel-class profiles.
pub fn analyze_profiles(props: &DeviceProps, profiles: &[KernelProfile]) -> ConcurrencyPlan {
    let t0 = Instant::now();
    let class_durations = profiles
        .iter()
        .map(|p| (p.name.clone(), p.avg_duration_ns))
        .collect();
    // The program is feasible by construction (Σ#K ≥ 1 always fits), but a
    // solver failure must not take the training loop down: fall back to
    // the serial plan (one stream) and let the next profiling window retry.
    // An empty profile set lands here too, as a serial plan with no class.
    let Some((counts, objective)) = solve_occupancy(props, &[(profiles, u32::MAX)]) else {
        return ConcurrencyPlan {
            per_kernel: profiles.iter().map(|p| (p.name.clone(), 1)).collect(),
            streams: 1,
            objective_threads_per_sm: 0.0,
            analysis_time: t0.elapsed(),
            class_durations,
        };
    };

    let per_kernel: Vec<(String, u32)> = profiles
        .iter()
        .zip(&counts[0])
        .map(|(p, &k)| (p.name.clone(), k))
        .collect();
    let streams: u32 = counts[0].iter().sum::<u32>().max(1);
    ConcurrencyPlan {
        per_kernel,
        streams: streams.min(props.concurrency_degree()),
        objective_threads_per_sm: objective,
        analysis_time: t0.elapsed(),
        class_durations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn even_spread_eq8() {
        let dev = DeviceProps::k40c(); // 15 SMs
        let beta = |blocks| beta_per_sm(&dev, &profile("k", blocks, 128, 0, 10));
        assert_eq!(beta(150), 10);
        assert_eq!(beta(151), 10);
        // Floors at 1 for tiny grids.
        assert_eq!(beta(3), 1);
    }

    #[test]
    fn small_kernels_get_multiple_streams() {
        // Per-sample kernels with small grids (18 blocks on a 15-SM K40C)
        // leave SMs idle; the model should pack several instances.
        let props = DeviceProps::k40c();
        let profiles = vec![
            profile("im2col", 18, 256, 0, 100),
            profile("sgemm", 24, 128, 8192, 400),
        ];
        let plan = analyze_profiles(&props, &profiles);
        assert!(plan.streams >= 2, "plan = {plan:?}");
        assert!(plan.streams <= props.concurrency_degree());
        assert_eq!(plan.per_kernel.len(), 2);
    }

    #[test]
    fn giant_kernel_gets_one_stream() {
        // A kernel that already saturates every SM's thread capacity
        // (β·τ = 2048 per SM) leaves no room: #K = 1.
        let props = DeviceProps::p100();
        let blocks = props.num_sms as u64 * 2; // β = 2 per SM
        let profiles = vec![profile("sgemm", blocks, 1024, 0, 2000)];
        let plan = analyze_profiles(&props, &profiles);
        assert_eq!(plan.streams, 1);
    }

    #[test]
    fn tiny_duration_capped_by_launch_overhead() {
        // T_K < T_launch -> ceil(T_K/T_launch) = 1 concurrent instance
        // (the paper's explanation for CIFAR10 conv1 slowdowns).
        let props = DeviceProps::p100(); // 5 µs launch overhead
        let profiles = vec![KernelProfile {
            avg_duration_ns: 2_000, // 2 µs
            ..profile("fast", 4, 64, 0, 0)
        }];
        let plan = analyze_profiles(&props, &profiles);
        assert_eq!(plan.per_kernel[0].1, 1);
    }

    #[test]
    fn long_kernels_allow_more_launch_headroom() {
        let props = DeviceProps::p100();
        let short = analyze_profiles(&props, &[profile("k", 28, 128, 0, 10)]);
        let long = analyze_profiles(&props, &[profile("k", 28, 128, 0, 10_000)]);
        assert!(
            long.per_kernel[0].1 >= short.per_kernel[0].1,
            "short {short:?} long {long:?}"
        );
    }

    #[test]
    fn smem_constrains_concurrency() {
        let props = DeviceProps::k40c(); // 48 KiB/SM
                                         // Each instance puts one 24-KiB block per SM -> at most 2 fit.
        let blocks = props.num_sms as u64;
        let plan = analyze_profiles(
            &props,
            &[profile("smem_heavy", blocks, 64, 24 * 1024, 5000)],
        );
        assert!(plan.per_kernel[0].1 <= 2, "plan = {plan:?}");
    }

    #[test]
    fn streams_never_exceed_concurrency_degree() {
        let props = DeviceProps::titan_xp();
        let profiles: Vec<_> = (0..6)
            .map(|i| profile(&format!("k{i}"), 2, 32, 0, 100_000))
            .collect();
        let plan = analyze_profiles(&props, &profiles);
        assert!(plan.streams <= props.concurrency_degree());
    }

    #[test]
    fn empty_profile_set_defaults_to_one_stream() {
        let plan = analyze_profiles(&DeviceProps::p100(), &[]);
        assert_eq!(plan.streams, 1);
        assert!(plan.per_kernel.is_empty());
    }

    #[test]
    fn maintainer_caches_plans() {
        let mut an = KernelAnalyzer::new(DeviceProps::k40c());
        assert!(an.plan_for("conv1").is_none());
        an.analyze("conv1", &[profile("im2col", 18, 256, 0, 100)]);
        assert!(an.plan_for("conv1").is_some());
        assert_eq!(an.num_plans(), 1);
        an.analyze("conv2", &[profile("im2col", 50, 256, 0, 100)]);
        assert_eq!(an.num_plans(), 2);
        assert!(an.total_analysis_time() > Duration::ZERO);
    }

    #[test]
    fn objective_is_threads_per_sm_and_bounded() {
        let props = DeviceProps::p100();
        let plan = analyze_profiles(&props, &[profile("k", 28, 256, 0, 5000)]);
        assert!(plan.objective_threads_per_sm > 0.0);
        assert!(plan.objective_threads_per_sm <= props.max_threads_per_sm as f64 + 1e-6);
    }

    #[test]
    fn device_dependence_of_stream_counts() {
        // The same kernel profile yields different plans on different GPUs
        // (paper Observation 2: optimal streams vary from GPU to GPU).
        let profiles = vec![profile("sgemm", 30, 256, 4096, 1500)];
        let k40 = analyze_profiles(&DeviceProps::k40c(), &profiles);
        let p100 = analyze_profiles(&DeviceProps::p100(), &profiles);
        // K40C: 15 SMs -> β=2/SM; P100: 56 SMs -> β=1/SM. Plans must differ
        // in objective or stream count.
        assert!(
            k40.streams != p100.streams
                || (k40.objective_threads_per_sm - p100.objective_threads_per_sm).abs() > 1.0,
            "k40 {k40:?} p100 {p100:?}"
        );
    }

    fn arb_profile() -> impl Strategy<Value = KernelProfile> {
        (
            1u64..200,
            prop::sample::select(vec![32u32, 64, 128, 256, 512, 1024]),
            prop::sample::select(vec![0u32, 4096, 8192, 16384, 24576]),
            1u64..5000,
        )
            .prop_map(|(blocks, threads, smem, dur_us)| profile("k", blocks, threads, smem, dur_us))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn occupancy_solve_matches_exhaustive_enumeration(
            device in 0usize..3,
            dispatches in prop::collection::vec(
                (prop::collection::vec(arb_profile(), 1..=2), 1u32..=8),
                1..=3,
            ),
        ) {
            let props = &DeviceProps::evaluation_set()[device];
            let model: Vec<(&[KernelProfile], u32)> =
                dispatches.iter().map(|(c, cap)| (c.as_slice(), *cap)).collect();
            let exhaustive = milp::enumerate::solve_exhaustive(&occupancy_model(props, &model).0);
            let Some((counts, objective)) = solve_occupancy(props, &model) else {
                prop_assert!(exhaustive.is_err(), "solver failed on {exhaustive:?}");
                return Ok(());
            };
            let best = exhaustive.expect("the solver found a feasible point").objective;
            prop_assert!(
                (objective - best).abs() <= 1e-6 * best.abs().max(1.0),
                "solve {objective} vs exhaustive {best}"
            );
            for ((classes, cap), k) in dispatches.iter().zip(&counts) {
                prop_assert!(k.iter().sum::<u32>() >= 1, "a dispatch starved: {counts:?}");
                for (p, &n) in classes.iter().zip(k) {
                    prop_assert!(n <= per_kernel_cap(props, p).min(*cap), "{counts:?}");
                }
            }
        }
    }
}
