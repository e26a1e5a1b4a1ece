//! The kernel analyzer: the paper's analytical model (§3.2).
//!
//! The *concurrency analyzer* turns per-kernel-class profiles into an
//! integer program — maximize the occupancy ratio `OR_SM` (Eqs. 1-3)
//! subject to shared-memory (Eq. 4), thread (Eq. 5), resident-block and
//! concurrency-degree (Eq. 6) constraints with per-kernel caps (Eq. 7) —
//! solves it with an exact depth-first search of its own
//! ([`solve_occupancy`], standing in for GLPK), and reports
//! `C_out = Σ #K_i` (Eq. 9), the number of streams to create. The program
//! is a bounded knapsack of a few integer variables, so the search needs
//! no LP: it bounds each subtree by the best single-row fractional fill,
//! and collapses identical dispatches into per-class totals.
//!
//! The *concurrency maintainer* caches one [`ConcurrencyPlan`] per layer
//! per GPU so the one-time analysis cost (`T_a`, Table 6) is paid once. The
//! schedules captured from those plans live one level up, in the caller's
//! [`crate::PlanCache`].

use gpu_sim::DeviceProps;
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
    /// Times the occupancy program was solved (probe for the steady-state
    /// tests).
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

    /// Times the occupancy program was solved.
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

/// The `≤` rows every dispatch shares, in model order: shared memory (Eq.
/// 4), threads (Eq. 5), the hardware resident-block limit, and the
/// concurrency degree (Eq. 6).
const ROWS: usize = 4;

/// How far a point may overrun a `≤` row and still be feasible.
const FEAS_EPS: f64 = 1e-9;

/// A later point replaces an earlier optimum only when better by more than
/// this: among equal optima the first in odometer order wins (DESIGN.md,
/// "The occupancy search").
const TIE_EPS: f64 = 1e-12;

/// One `#K` variable of the occupancy program: a kernel class of one
/// dispatch, `0..=cap` concurrent instances, each adding `obj` active
/// threads per SM (Eqs. 1-3) and `row[r]` to `≤` row `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Column {
    obj: f64,
    row: [f64; ROWS],
    cap: u32,
}

/// The columns of one dispatch: a kernel-class chain whose classes are
/// capped at `group_cap` concurrent instances each.
fn columns(props: &DeviceProps, profiles: &[KernelProfile], group_cap: u32) -> Vec<Column> {
    // The kernels of one chain form a dependent sequence (im2col → sgemm →
    // bias, Fig. 6), so over the chain's lifetime kernel `K_i` occupies its
    // SM footprint only for the fraction of time it executes. The per-SM
    // rows therefore charge each instance its *duty-cycle weighted*
    // footprint — without this, a short im2col with a large grid would
    // appear to fill the device although it is resident only briefly, and
    // the model would degenerate to one stream. Dispatches share the
    // device, so the rows sum over all of them, each normalized to its own
    // chain's time.
    let total_time: f64 = profiles
        .iter()
        .map(|p| p.avg_duration_ns.max(1) as f64)
        .sum();
    profiles
        .iter()
        .map(|p| {
            let duty = p.avg_duration_ns.max(1) as f64 / total_time;
            let beta = beta_per_sm(props, p) as f64 * duty;
            let tau = p.threads_per_block as f64;
            Column {
                obj: tau * beta,
                row: [p.smem_per_block as f64 * beta, tau * beta, beta, 1.0],
                cap: per_kernel_cap(props, p).min(group_cap),
            }
        })
        .collect()
}

/// Right-hand sides of the `≤` rows.
fn row_limits(props: &DeviceProps) -> [f64; ROWS] {
    [
        props.smem_per_sm as f64,
        props.max_threads_per_sm as f64,
        props.max_blocks_per_sm as f64,
        props.concurrency_degree() as f64,
    ]
}

/// The objective at `x` if it keeps every `≤` row within [`FEAS_EPS`],
/// each sum taken in column order (the arithmetic of `milp::Model`'s
/// `is_feasible` and `objective_at`, so equal points give equal bits).
fn evaluate(cols: &[Column], rhs: &[f64; ROWS], x: &[u32]) -> Option<f64> {
    for (r, &b) in rhs.iter().enumerate() {
        let lhs: f64 = cols.iter().zip(x).map(|(c, &v)| c.row[r] * v as f64).sum();
        if lhs > b + FEAS_EPS {
            return None;
        }
    }
    Some(cols.iter().zip(x).map(|(c, &v)| c.obj * v as f64).sum())
}

/// `milp::enumerate`'s acceptance rule over points in odometer order.
fn improves(obj: f64, incumbent: Option<f64>) -> bool {
    incumbent.is_none_or(|b| obj > b + TIE_EPS)
}

/// Depth-first search of one occupancy program. Columns are assigned from
/// the last to the first, so the last column is the most significant digit
/// of `milp::enumerate`'s odometer (column 0 turns fastest). Free columns
/// are 0; `partial[i]` holds the row sums and objective of columns `i..`.
struct Search<'a> {
    cols: &'a [Column],
    rhs: [f64; ROWS],
    /// Per row, the columns by objective per unit of that row, best first.
    order: [Vec<usize>; ROWS],
    /// Progress rows `Σ x ≥ need` over consecutive column ranges: each
    /// column's range, what the columns of its range below it can add, and
    /// the range's running sum.
    range: Vec<usize>,
    below: Vec<u32>,
    need: u32,
    sums: Vec<u32>,
    x: Vec<u32>,
    partial: Vec<[f64; ROWS + 1]>,
    best: Option<f64>,
    best_x: Vec<u32>,
    /// Phase 2 collects every point above the floor here instead of
    /// stopping at the first optimum.
    collect: Option<Vec<u32>>,
}

impl<'a> Search<'a> {
    /// A search over `cols` with one progress row `Σ x ≥ need` per range of
    /// `sizes[k]` consecutive columns.
    fn new(cols: &'a [Column], rhs: [f64; ROWS], sizes: &[usize], need: u32) -> Self {
        let order = std::array::from_fn(|r| {
            let ratio = |c: &Column| match c.row[r] {
                a if a > 0.0 => c.obj / a,
                _ => f64::INFINITY,
            };
            let mut o: Vec<usize> = (0..cols.len()).collect();
            o.sort_by(|&i, &j| ratio(&cols[j]).total_cmp(&ratio(&cols[i])));
            o
        });
        let (mut range, mut below) = (Vec::new(), Vec::new());
        for (k, &len) in sizes.iter().enumerate() {
            let mut room = 0u32;
            for c in &cols[range.len()..range.len() + len] {
                range.push(k);
                below.push(room);
                room = room.saturating_add(c.cap);
            }
        }
        let n = cols.len();
        Search {
            cols,
            rhs,
            order,
            range,
            below,
            need,
            sums: vec![0; sizes.len()],
            x: vec![0; n],
            partial: vec![[0.0; ROWS + 1]; n + 1],
            best: None,
            best_x: vec![0; n],
            collect: None,
        }
    }

    /// Largest value column `i` may take given the columns above it (one
    /// more than fits is harmless: the leaf check decides), or `None` when
    /// they already overrun a row.
    fn hi(&self, i: usize) -> Option<u32> {
        let (prev, c) = (&self.partial[i + 1], &self.cols[i]);
        let mut hi = c.cap;
        for ((&b, &used), &a) in self.rhs.iter().zip(prev).zip(&c.row) {
            let room = b + FEAS_EPS - used + 1e-12 * b.abs();
            if room < 0.0 {
                return None;
            }
            if a > 0.0 {
                hi = hi.min((room / a).floor() as u32);
            }
        }
        Some(hi)
    }

    /// Set column `i` to `v` and return the bound on every completion: the
    /// least over the rows of the greedy fractional (one-row LP) bound.
    /// `None` when no completion meets the column's progress row.
    fn assign(&mut self, i: usize, v: u32) -> Option<f64> {
        let k = self.range[i];
        let sum = self.sums[k] - self.x[i] + v;
        if sum.saturating_add(self.below[i]) < self.need {
            return None;
        }
        (self.sums[k], self.x[i]) = (sum, v);
        let c = &self.cols[i];
        let mut next = self.partial[i + 1];
        for (sum, &a) in next.iter_mut().zip(&c.row) {
            *sum += a * v as f64;
        }
        next[ROWS] += c.obj * v as f64;
        self.partial[i] = next;
        let mut bound = f64::INFINITY;
        for (r, order) in self.order.iter().enumerate() {
            let (mut room, mut gain) = ((self.rhs[r] - next[r]).max(0.0), 0.0);
            for c in order.iter().filter(|&&j| j < i).map(|&j| &self.cols[j]) {
                let take = match c.row[r] {
                    a if a > 0.0 => (room / a).clamp(0.0, c.cap as f64),
                    _ => c.cap as f64,
                };
                gain += c.obj * take;
                room -= take * c.row[r];
            }
            bound = bound.min(gain);
        }
        Some(next[ROWS] + bound)
    }

    /// Reset column `i` to free.
    fn clear(&mut self, i: usize) {
        self.sums[self.range[i]] -= self.x[i];
        self.x[i] = 0;
    }

    /// Phase 1: the maximum objective, values tried in descending order,
    /// cutting every subtree that cannot beat the incumbent by a relative
    /// 1e-9 (so equal optima are visited once, not once each).
    fn maximize(&mut self, free: usize) {
        let Some(i) = free.checked_sub(1) else {
            if let Some(obj) = evaluate(self.cols, &self.rhs, &self.x) {
                if self.best.is_none_or(|b| obj > b) {
                    self.best = Some(obj);
                }
            }
            return;
        };
        let Some(hi) = self.hi(i) else { return };
        for v in (0..=hi).rev() {
            let Some(ub) = self.assign(i, v) else { break };
            if self.best.is_none_or(|b| ub > b + 1e-9 * b.abs().max(1.0)) {
                self.maximize(i);
            }
        }
        self.clear(i);
    }

    /// Phase 2: walk odometer order, skipping subtrees bounded below
    /// `floor`, and apply [`improves`] at each leaf; stop once nothing can
    /// improve on the incumbent any more (`target` is phase 1's maximum).
    /// Returns whether it stopped.
    fn odometer(&mut self, free: usize, floor: f64, target: f64) -> bool {
        let Some(i) = free.checked_sub(1) else {
            let Some(obj) = evaluate(self.cols, &self.rhs, &self.x) else {
                return false;
            };
            if let Some(found) = &mut self.collect {
                if obj >= floor {
                    found.extend_from_slice(&self.x);
                }
                return false;
            }
            if !improves(obj, self.best) {
                return false;
            }
            self.best = Some(obj);
            self.best_x.copy_from_slice(&self.x);
            return obj + TIE_EPS >= target;
        };
        let Some(hi) = self.hi(i) else { return false };
        for v in 0..=hi {
            match self.assign(i, v) {
                Some(ub) if ub >= floor && self.odometer(i, floor, target) => return true,
                _ => {}
            }
        }
        self.clear(i);
        false
    }

    /// Phase 1's maximum and the floor phase 2 searches above: generous, as
    /// a leaf may overrun a row by [`FEAS_EPS`] past the bound's room.
    fn maximum(&mut self) -> Option<(f64, f64)> {
        self.maximize(self.cols.len());
        let best = self.best.take()?;
        Some((best, best - 1e-6 * best.abs().max(1.0)))
    }

    /// The first optimum in odometer order.
    fn first_optimum(mut self) -> Option<Vec<u32>> {
        let (target, floor) = self.maximum()?;
        self.odometer(self.cols.len(), floor, target);
        self.best.map(|_| self.best_x)
    }
}

/// Split the per-class totals `y` of `copies` identical dispatches
/// (`block`'s columns each) into the first point in odometer order:
/// from the last dispatch down, each takes the fewest instances of its
/// most significant classes that still leave the dispatches below it a
/// feasible remainder — at most `cap` per class each, at least one apiece.
fn split(block: &[Column], copies: usize, y: &[u32]) -> Vec<u32> {
    let width = block.len();
    let mut rest = y.to_vec();
    let mut x = vec![0u32; copies * width];
    for d in (1..copies).rev() {
        let below = d as u32;
        let mine = &mut x[d * width..(d + 1) * width];
        for ((m, c), &r) in mine.iter_mut().zip(block).zip(&rest) {
            *m = r.saturating_sub(c.cap.saturating_mul(below));
        }
        if mine.iter().all(|&m| m == 0) {
            if let Some(c) = (0..width).find(|&c| rest[c] > 0 && block[c].cap > 0) {
                mine[c] = 1;
            }
        }
        for (r, &m) in rest.iter_mut().zip(mine.iter()) {
            *r -= m;
        }
    }
    x[..width].copy_from_slice(&rest);
    x
}

/// [`solve_occupancy`] over `copies` identical dispatches: every row and
/// the objective read only the per-class totals, so search that small
/// lattice (one progress row `Σ y ≥ copies`), split each total within the
/// tolerance of the optimum into its odometer-first point, and keep the
/// first optimum among those in odometer order.
fn solve_copies(
    block: &[Column],
    copies: usize,
    cols: &[Column],
    rhs: [f64; ROWS],
) -> Option<Vec<u32>> {
    let totals: Vec<Column> = block
        .iter()
        .map(|c| Column {
            cap: c.cap.saturating_mul(copies as u32),
            ..*c
        })
        .collect();
    let mut search = Search::new(&totals, rhs, &[totals.len()], copies as u32);
    let (target, floor) = search.maximum()?;
    search.collect = Some(Vec::new());
    search.odometer(totals.len(), floor, target);
    let found = search.collect.unwrap_or_default();
    let mut points: Vec<(Vec<u32>, f64)> = found
        .chunks(block.len())
        .filter_map(|y| {
            let x = split(block, copies, y);
            evaluate(cols, &rhs, &x).map(|obj| (x, obj))
        })
        .collect();
    points.sort_by(|a, b| a.0.iter().rev().cmp(b.0.iter().rev()));
    let mut best: Option<(Vec<u32>, f64)> = None;
    for (x, obj) in points {
        if improves(obj, best.as_ref().map(|b| b.1)) {
            best = Some((x, obj));
        }
    }
    best.map(|(x, _)| x)
}

/// Solve the duty-cycle-weighted occupancy program (Eqs. 1-8) over
/// `dispatches` (`(kernel classes, cap on concurrent instances per class)`
/// each): the per-layer model is one dispatch with cap `u32::MAX`, a wave
/// of several layers is one dispatch per layer with its group count as
/// cap. Rows: the shared `smem`, `threads`, `blocks` and `conc_hi` (Eqs.
/// 4-6, summed over every dispatch sharing the device), and one `Σ #K ≥ 1`
/// per dispatch so every dispatch makes progress.
///
/// The search is exact: it returns the first optimum in odometer order
/// (the first variable turning fastest), the point exhaustive enumeration
/// returns, and its objective bit for bit. Returns `#K` per dispatch per
/// class and the objective (active threads per SM), or `None` when there is
/// no dispatch, a dispatch has no class, or no point is feasible (e.g. one
/// dispatch saturating the thread budget leaves no room for another's
/// progress row).
pub fn solve_occupancy(
    props: &DeviceProps,
    dispatches: &[(&[KernelProfile], u32)],
) -> Option<(Vec<Vec<u32>>, f64)> {
    if dispatches.is_empty() || dispatches.iter().any(|(p, _)| p.is_empty()) {
        return None;
    }
    let blocks: Vec<Vec<Column>> = dispatches
        .iter()
        .map(|&(profiles, cap)| columns(props, profiles, cap))
        .collect();
    let cols = blocks.concat();
    let rhs = row_limits(props);
    let x = if blocks.len() >= 2 && blocks.iter().all(|b| *b == blocks[0]) {
        solve_copies(&blocks[0], blocks.len(), &cols, rhs)?
    } else {
        let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
        Search::new(&cols, rhs, &sizes, 1).first_optimum()?
    };
    let objective = evaluate(&cols, &rhs, &x)?;
    let mut rest = x.as_slice();
    let counts = blocks
        .iter()
        .map(|b| {
            let (mine, tail) = rest.split_at(b.len());
            rest = tail;
            mine.to_vec()
        })
        .collect();
    Some((counts, objective))
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
    use milp::{Model, Sense, VarId, VarKind};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The occupancy program as a `milp::Model`, the oracle's input: the
    /// same columns, rows in model order, one `conc_lo` row per dispatch.
    fn occupancy_model(
        props: &DeviceProps,
        dispatches: &[(&[KernelProfile], u32)],
    ) -> (Model, Vec<Vec<VarId>>) {
        let mut m = Model::new(Sense::Maximize);
        let mut terms: [Vec<(VarId, f64)>; ROWS] = Default::default();
        let mut vars = Vec::new();
        for &(profiles, cap) in dispatches {
            let cols = columns(props, profiles, cap);
            let dvars: Vec<VarId> = (profiles.iter().zip(cols))
                .map(|(p, c)| {
                    let v = m.add_var(&p.name, VarKind::Integer, 0.0, c.cap as f64, c.obj);
                    for (row, &a) in terms.iter_mut().zip(&c.row) {
                        row.push((v, a));
                    }
                    v
                })
                .collect();
            vars.push(dvars);
        }
        let names = ["smem", "threads", "blocks", "conc_hi"];
        for ((name, row), rhs) in names.iter().zip(&terms).zip(row_limits(props)) {
            m.add_le_constraint(name, row, rhs);
        }
        for dvars in &vars {
            let progress: Vec<(VarId, f64)> = dvars.iter().map(|&v| (v, 1.0)).collect();
            m.add_ge_constraint("conc_lo", &progress, 1.0);
        }
        (m, vars)
    }

    /// Exhaustive enumeration's answer in `solve_occupancy`'s shape.
    fn oracle(
        props: &DeviceProps,
        dispatches: &[(&[KernelProfile], u32)],
    ) -> Option<(Vec<Vec<u32>>, f64)> {
        let (m, vars) = occupancy_model(props, dispatches);
        let sol = milp::enumerate::solve_exhaustive(&m).ok()?;
        let counts = (vars.iter())
            .map(|dv| dv.iter().map(|&v| sol.int_value(v) as u32).collect())
            .collect();
        Some((counts, sol.objective))
    }

    /// Lattice points of the program over `dispatches`.
    fn lattice(props: &DeviceProps, dispatches: &[(&[KernelProfile], u32)]) -> u64 {
        (dispatches.iter())
            .flat_map(|&(p, cap)| columns(props, p, cap))
            .fold(1u64, |n, c| n.saturating_mul(u64::from(c.cap) + 1))
    }

    /// The search returns enumeration's point and objective bits.
    fn assert_matches_oracle(
        props: &DeviceProps,
        dispatches: &[(&[KernelProfile], u32)],
    ) -> Result<(), TestCaseError> {
        let got = solve_occupancy(props, dispatches);
        let want = oracle(props, dispatches);
        let bits = |r: &Option<(Vec<Vec<u32>>, f64)>| {
            r.as_ref().map(|(k, obj)| (k.clone(), obj.to_bits()))
        };
        prop_assert_eq!(bits(&got), bits(&want), "{} on {:?}", props.name, got);
        Ok(())
    }

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

    /// Kernel classes from a short menu, so dispatches often share classes
    /// and optima tie.
    fn menu_profile() -> impl Strategy<Value = KernelProfile> {
        (
            prop::sample::select(vec![2u64, 8, 18, 30, 60]),
            prop::sample::select(vec![64u32, 128, 256]),
            prop::sample::select(vec![0u32, 8192, 24576]),
            prop::sample::select(vec![50u64, 100, 400, 1000]),
        )
            .prop_map(|(blocks, threads, smem, dur_us)| profile("m", blocks, threads, smem, dur_us))
    }

    /// A joint wave's classes, each arbitrary or from the tie-prone menu.
    fn joint_classes() -> impl Strategy<Value = Vec<KernelProfile>> {
        let class =
            (0u8..2, menu_profile(), arb_profile())
                .prop_map(|(pick, menu, any)| if pick == 0 { menu } else { any });
        prop::collection::vec(class, 1..=2)
    }

    /// Enumeration stays cheap enough for the debug test profile.
    const ORACLE_POINTS: u64 = 40_000;

    #[test]
    fn an_exact_tie_returns_the_odometer_first_optimum() {
        // Objective 2048 at both [22, 11, 0] and [24, 10, 0] on a P100.
        // Branch-and-bound's dive happened to reach the first; exhaustive
        // enumeration, and this search, return the first optimum in
        // odometer order (class 0 turning fastest): the second.
        let classes = [
            profile("im2col", 18, 256, 0, 100),
            profile("sgemm", 24, 128, 8192, 400),
            profile("bias", 6, 64, 0, 50),
        ];
        let props = DeviceProps::p100();
        let (counts, objective) = solve_occupancy(&props, &[(&classes, 64)]).expect("feasible");
        assert_eq!(counts, vec![vec![24, 10, 0]]);
        assert_eq!(objective, 2048.0);
        assert_matches_oracle(&props, &[(&classes, 64)]).expect("oracle agrees");
    }

    #[test]
    fn many_equal_optima_solve_within_a_budget() {
        // Six identical classes under Σ #K ≤ C = 128 (a Titan XP): every
        // point summing to 128, about 3.4e8 of them, is optimal. Visiting
        // them one by one would hang, so the solve runs on its own thread
        // against a wall-clock budget.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let props = DeviceProps::titan_xp();
            let profiles: Vec<_> = (0..6)
                .map(|i| profile(&format!("k{i}"), 2, 32, 0, 100_000))
                .collect();
            let _ = tx.send(solve_occupancy(&props, &[(&profiles, u32::MAX)]));
        });
        let (counts, _) = rx
            .recv_timeout(Duration::from_millis(50))
            .expect("the solve returns within 50 ms")
            .expect("feasible");
        assert_eq!(counts, vec![vec![128, 0, 0, 0, 0, 0]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn per_layer_search_matches_the_oracle_bit_for_bit(
            device in 0usize..3,
            classes in prop::collection::vec(arb_profile(), 1..=3),
        ) {
            let props = &DeviceProps::evaluation_set()[device];
            let model = [(classes.as_slice(), u32::MAX)];
            prop_assume!(lattice(props, &model) <= ORACLE_POINTS);
            assert_matches_oracle(props, &model)?;
        }

        #[test]
        fn identical_copies_match_the_oracle_bit_for_bit(
            device in 0usize..3,
            classes in joint_classes(),
            cap in 1u32..=3,
            copies in 2usize..=4,
        ) {
            let props = &DeviceProps::evaluation_set()[device];
            let model = vec![(classes.as_slice(), cap); copies];
            prop_assume!(lattice(props, &model) <= ORACLE_POINTS);
            assert_matches_oracle(props, &model)?;
        }

        #[test]
        fn mixed_joints_match_the_oracle_bit_for_bit(
            device in 0usize..3,
            dispatches in prop::collection::vec((joint_classes(), 1u32..=3), 2..=4),
        ) {
            let props = &DeviceProps::evaluation_set()[device];
            let model: Vec<(&[KernelProfile], u32)> =
                dispatches.iter().map(|(c, cap)| (c.as_slice(), *cap)).collect();
            prop_assume!(lattice(props, &model) <= ORACLE_POINTS);
            assert_matches_oracle(props, &model)?;
        }

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
