//! Kernel reordering and kernel fusion (the paper's §6 future work).
//!
//! "Since there are always many kernels needed to be launched
//! concurrently, kernel reordering and kernel fusion technologies may be
//! helpful to gain better training performance of neural network models,
//! especially for small kernels."
//!
//! - **Fusion** ([`fuse_group`]): adjacent kernels of one dependent chain
//!   whose profiled durations are below a threshold (relative to the
//!   launch overhead `T_launch`) are merged into a single launch. The
//!   fused kernel sums the work and takes the maximum footprint of its
//!   parts, so SM constraints stay safe; every fusion saves one host
//!   launch slot — exactly the resource small kernels are bottlenecked on
//!   (Eq. 7's `⌈T_K/T_launch⌉` cap).
//! - **Reordering** ([`reorder_groups`]): independent groups are sorted
//!   longest-estimated-first before round-robin dispatch, so long chains
//!   start early and short chains pack into their tail (LPT scheduling).
//!   With homogeneous per-sample groups this is an identity — it matters
//!   when chains are heterogeneous (e.g. mixed layers of an inception
//!   module dispatched together).

use gpu_sim::{Dim3, KernelCost, KernelDesc, LaunchConfig};
use std::collections::HashMap;

/// Per-kernel-class durations from the resource tracker, used to decide
/// what is "small".
pub type DurationsByName = HashMap<String, u64>;

/// Tuning knobs for the optimizer passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimConfig {
    /// Enable kernel fusion.
    pub fusion: bool,
    /// Fuse while the *combined* estimated duration stays below
    /// `fusion_threshold_x` × `T_launch`.
    pub fusion_threshold_x: f64,
    /// Enable longest-first group reordering.
    pub reordering: bool,
}

impl Default for OptimConfig {
    fn default() -> Self {
        OptimConfig {
            fusion: false,
            fusion_threshold_x: 2.0,
            reordering: false,
        }
    }
}

impl OptimConfig {
    /// Everything enabled with default thresholds.
    pub fn all() -> Self {
        OptimConfig {
            fusion: true,
            fusion_threshold_x: 2.0,
            reordering: true,
        }
    }

    /// Short tag identifying this configuration in execution-plan cache
    /// keys: fusion and reordering change the captured schedule, so a
    /// different config must miss the cache and re-capture.
    pub fn cache_tag(&self) -> String {
        format!(
            "f{}x{}r{}",
            self.fusion as u8, self.fusion_threshold_x, self.reordering as u8
        )
    }
}

/// Merge two adjacent chain kernels into one launch.
///
/// Work adds; the footprint takes the maximum of each resource so the
/// fused kernel is schedulable wherever the bigger part was; the grid
/// keeps the larger block count. The name records the lineage
/// (`a+b`) so profiles of fused classes stay distinguishable.
fn fuse_pair(a: &KernelDesc, b: &KernelDesc) -> KernelDesc {
    let blocks = a.launch.num_blocks().max(b.launch.num_blocks()) as u32;
    let threads = a
        .launch
        .threads_per_block()
        .max(b.launch.threads_per_block());
    let launch = LaunchConfig {
        grid: Dim3::linear(blocks),
        block: Dim3::linear(threads),
        regs_per_thread: a.launch.regs_per_thread.max(b.launch.regs_per_thread),
        smem_static: a.launch.smem_static.max(b.launch.smem_static),
        smem_dynamic: a.launch.smem_dynamic.max(b.launch.smem_dynamic),
    };
    // Per-block work scales down by the larger grid: total work is the sum
    // of both kernels' totals.
    let total_flops = a.cost.flops_per_block * a.launch.num_blocks() as f64
        + b.cost.flops_per_block * b.launch.num_blocks() as f64;
    let total_bytes = a.cost.dram_bytes_per_block * a.launch.num_blocks() as f64
        + b.cost.dram_bytes_per_block * b.launch.num_blocks() as f64;
    KernelDesc {
        name: format!("{}+{}", a.name, b.name).into(),
        launch,
        cost: KernelCost::new(total_flops / blocks as f64, total_bytes / blocks as f64),
        tag: a.tag,
        // The fused launch performs both kernels' accesses.
        accesses: gpu_sim::AccessSet::union(&a.accesses, &b.accesses),
    }
}

/// Fuse a dependent chain: greedily merge adjacent kernels while the
/// merged estimated duration stays under `threshold_x × launch_overhead`.
/// Unknown classes (no profile entry) are treated as large (never fused).
pub fn fuse_group(
    group: Vec<KernelDesc>,
    durations: &DurationsByName,
    launch_overhead_ns: u64,
    threshold_x: f64,
) -> Vec<KernelDesc> {
    let limit = (launch_overhead_ns as f64 * threshold_x) as u64;
    let est = |k: &KernelDesc| -> Option<u64> { durations.get(k.name.as_str()).copied() };
    let mut out: Vec<(KernelDesc, Option<u64>)> = Vec::with_capacity(group.len());
    for k in group {
        let d = est(&k);
        match out.last_mut() {
            Some((prev, Some(pd))) if d.is_some() && *pd + d.unwrap() <= limit => {
                let merged = fuse_pair(prev, &k);
                let nd = *pd + d.unwrap();
                *prev = merged;
                *pd = nd;
            }
            _ => out.push((k, d)),
        }
    }
    out.into_iter().map(|(k, _)| k).collect()
}

/// Estimated duration of a group (sum of known class durations; unknown
/// classes count as one launch overhead).
fn estimate_group_ns(
    group: &[KernelDesc],
    durations: &DurationsByName,
    launch_overhead_ns: u64,
) -> u64 {
    group
        .iter()
        .map(|k| {
            durations
                .get(k.name.as_str())
                .copied()
                .unwrap_or(launch_overhead_ns)
        })
        .sum()
}

/// Longest-processing-time-first ordering of independent groups.
pub fn reorder_groups(
    mut groups: Vec<Vec<KernelDesc>>,
    durations: &DurationsByName,
    launch_overhead_ns: u64,
) -> Vec<Vec<KernelDesc>> {
    // Stable sort keeps equal-length groups in submission order, so
    // homogeneous batches are untouched (determinism).
    groups.sort_by_key(|g| std::cmp::Reverse(estimate_group_ns(g, durations, launch_overhead_ns)));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Dim3, KernelCost, LaunchConfig};

    fn kernel(name: &str, blocks: u32, flops: f64) -> KernelDesc {
        KernelDesc::new(
            name,
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(128), 32, 1024),
            KernelCost::new(flops, flops / 4.0),
        )
        .with_tag(7)
    }

    fn durations(pairs: &[(&str, u64)]) -> DurationsByName {
        pairs.iter().map(|&(n, d)| (n.to_string(), d)).collect()
    }

    #[test]
    fn fuse_pair_conserves_total_work() {
        let a = kernel("a", 4, 1000.0);
        let b = kernel("b", 8, 500.0);
        let f = fuse_pair(&a, &b);
        assert_eq!(f.name, "a+b");
        assert_eq!(f.launch.num_blocks(), 8);
        let total = f.cost.flops_per_block * f.launch.num_blocks() as f64;
        assert!((total - (4.0 * 1000.0 + 8.0 * 500.0)).abs() < 1e-6);
        assert_eq!(f.tag, 7);
    }

    #[test]
    fn fuse_pair_takes_max_footprint() {
        let mut a = kernel("a", 4, 1.0);
        a.launch.smem_static = 4096;
        a.launch.regs_per_thread = 64;
        let b = kernel("b", 2, 1.0);
        let f = fuse_pair(&a, &b);
        assert_eq!(f.launch.smem_static, 4096);
        assert_eq!(f.launch.regs_per_thread, 64);
        assert_eq!(f.launch.threads_per_block(), 128);
    }

    #[test]
    fn small_chain_collapses_to_one_launch() {
        let d = durations(&[("im2col", 1_000), ("sgemm", 1_500), ("gemmk", 800)]);
        let group = vec![
            kernel("im2col", 4, 1.0),
            kernel("sgemm", 4, 1.0),
            kernel("gemmk", 4, 1.0),
        ];
        let fused = fuse_group(group, &d, 4_000, 2.0); // limit 8 µs
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].name, "im2col+sgemm+gemmk");
    }

    #[test]
    fn large_kernels_are_not_fused() {
        let d = durations(&[("im2col", 1_000), ("sgemm", 500_000), ("gemmk", 800)]);
        let group = vec![
            kernel("im2col", 4, 1.0),
            kernel("sgemm", 4, 1.0),
            kernel("gemmk", 4, 1.0),
        ];
        let fused = fuse_group(group, &d, 4_000, 2.0);
        // im2col cannot merge into the huge sgemm; gemmk cannot merge into
        // it either.
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn threshold_controls_fusion() {
        let d = durations(&[("a", 3_000), ("b", 3_000)]);
        let group = vec![kernel("a", 2, 1.0), kernel("b", 2, 1.0)];
        // Limit 4 µs: combined 6 µs exceeds it.
        assert_eq!(fuse_group(group.clone(), &d, 4_000, 1.0).len(), 2);
        // Limit 8 µs: fuses.
        assert_eq!(fuse_group(group, &d, 4_000, 2.0).len(), 1);
    }

    #[test]
    fn unknown_classes_never_fuse() {
        let d = durations(&[("a", 100)]);
        let group = vec![kernel("a", 2, 1.0), kernel("mystery", 2, 1.0)];
        assert_eq!(fuse_group(group, &d, 4_000, 10.0).len(), 2);
    }

    #[test]
    fn reorder_puts_long_chains_first() {
        let d = durations(&[("short", 1_000), ("long", 50_000)]);
        let groups = vec![
            vec![kernel("short", 1, 1.0)],
            vec![kernel("long", 1, 1.0)],
            vec![kernel("short", 1, 1.0), kernel("short", 1, 1.0)],
        ];
        let ordered = reorder_groups(groups, &d, 4_000);
        assert_eq!(ordered[0][0].name, "long");
        assert_eq!(ordered[1].len(), 2); // 2 shorts (2 µs) before 1 short
        assert_eq!(ordered[2].len(), 1);
    }

    #[test]
    fn reorder_is_stable_for_homogeneous_groups() {
        let d = durations(&[("k", 1_000)]);
        let groups: Vec<Vec<KernelDesc>> = (0..5)
            .map(|i| vec![kernel("k", 1, 1.0).with_tag(i)])
            .collect();
        let ordered = reorder_groups(groups, &d, 4_000);
        let tags: Vec<u64> = ordered.iter().map(|g| g[0].tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn estimate_uses_launch_overhead_for_unknowns() {
        let d = durations(&[("a", 10_000)]);
        let group = vec![kernel("a", 1, 1.0), kernel("b", 1, 1.0)];
        assert_eq!(estimate_group_ns(&group, &d, 4_000), 14_000);
    }
}
