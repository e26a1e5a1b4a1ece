//! The timing loop shared by every workload: sets of one set-up and a few
//! timed bodies, medians, digests, and the result line.
//!
//! A workload is a list of *cells* (a net under a dispatch mode, a fleet
//! configuration, ...). One *set* builds each cell in turn (timed as
//! set-up), runs its timed body a fixed number of times, and drops it, so
//! only one cell is alive at a time and peak RSS does not depend on how
//! many sets the clock allowed. Repetition `r` of a set is the sum over
//! cells of their `r`-th body: one pass over the whole workload.

use crate::digest::Digest;
use crate::json::{result_line, MetricValue};
use crate::spec::{WorkloadSpec, DEFAULT_SEED, END_TO_END};
use crate::stats::{describe, median};
use std::time::Instant;

/// `run_seconds` in `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u64 = 20;
/// Set-ups per run at least (the median of these is `setup_s`).
pub const MIN_SETS: usize = 3;
/// Timed repetitions per run at least, after the warm-up repetition.
pub const MIN_REPS: usize = 7;

const UNVALIDATED: &str = "the simulator model is unvalidated against real hardware (the repo \
holds no reference measurements): sim_ figures carry no error estimate";

/// What one timed body of one cell reports.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Host seconds the body took (digest folding excluded).
    pub host_s: f64,
    /// Units of work done (the workload's `work_per_s` numerator).
    pub work: u64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Digest of the body's seed-independent simulated outputs.
    pub sim_digest: u64,
    /// Digest of its seed-dependent outputs (0 when there are none).
    pub seeded_digest: u64,
    /// Simulated figures the workload's summary is computed from.
    pub sim: [f64; 2],
    /// Host seconds of each unit inside the body (iteration, step, ...).
    pub unit_s: Vec<f64>,
}

/// One built cell: runs timed bodies, then reports end-of-set outputs.
pub trait Cell {
    /// One timed body.
    fn body(&mut self) -> CellOut;
    /// End-of-set outputs: `(seed-independent digest, seeded digest)` —
    /// whole timelines, final weights.
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// The workload's two simulated-clock metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimSummary {
    /// `sim_time`, simulated ms.
    pub time_ms: f64,
    /// `sim_gain`, a ratio.
    pub gain: f64,
}

/// A workload the harness can time and trace.
pub trait Workload {
    /// Name, reason, alias.
    fn spec(&self) -> &'static WorkloadSpec;
    /// Number of cells.
    fn num_cells(&self) -> usize;
    /// Timed bodies per set-up.
    fn bodies_per_set(&self) -> usize;
    /// Build cell `i` to its steady state (timed as set-up).
    fn setup(&self, cell: usize, seed: u64) -> Box<dyn Cell>;
    /// `sim_time` and `sim_gain` from one repetition's cell outputs.
    fn summarize(&self, outs: &[CellOut]) -> SimSummary;
    /// Cross-cell checks over the end-of-set seeded digests (bitwise
    /// weight equality, say); returns the number of failures.
    fn check_set(&self, _finals: &[(u64, u64)]) -> u64 {
        0
    }
    /// An extra seed-independent reference check run once after timing;
    /// its digest joins the sim digest.
    fn verify(&self) -> u64 {
        0
    }
    /// What one unit inside a body is, for the latency line.
    fn unit_name(&self) -> &'static str;
    /// Whether the workload's process is restricted to one CPU before
    /// anything runs (see [`pin_to_one_cpu`]).
    fn single_cpu(&self) -> bool {
        false
    }
    /// The traced run: drive each layer by hand, return per-layer values.
    fn trace(&self, seed: u64, tracer: &mut crate::trace::Tracer) -> Vec<(&'static str, f64)>;
}

/// Everything one untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Set-up seconds, one per set.
    pub setup_s: Vec<f64>,
    /// Host seconds per timed repetition (warm-up excluded).
    pub rep_s: Vec<f64>,
    /// Work units per timed repetition (identical across repetitions).
    pub work: u64,
    /// Per timed repetition, the host seconds of every unit in cell
    /// order (a cell that times no units counts as one unit).
    pub rep_units: Vec<Vec<f64>>,
    /// Simulated metrics.
    pub sim: SimSummary,
    /// Seed-independent digest.
    pub sim_digest: u64,
    /// Seed-dependent digest; `None` when no output depends on the seed.
    pub seeded_digest: Option<u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Human-readable findings (digest mismatches etc.).
    pub notes: Vec<String>,
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Restrict this process (and every thread it later spawns) to one of
/// the CPUs it may run on — the highest, away from CPU 0's interrupts —
/// and return that CPU.
///
/// `tensor::pool` sizes itself by `available_parallelism`, which reads
/// the affinity mask: on one CPU the library spawns no worker and splits
/// nothing. On the shared 2-vCPU machines this runs on, its static
/// two-way split waits for the slower half, so any neighbour on either
/// vCPU stretched every call: over 24 alternated runs of unchanged code
/// `work_per_s`@`train-math` ranged 199–240 on two CPUs and 152–160 on
/// one.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    // std links the C library on Linux; these are its wrappers (0 on
    // success, -1 with errno set). `pid` 0 is the calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long, writable, and outlives the call.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or_else(|| std::io::Error::other("empty affinity mask"))?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is `bytes` long and outlives the call.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}

/// Other systems have no affinity call here: the workload runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other("no CPU affinity on this system"))
}

/// Run `wl` untraced for about `seconds`.
pub fn run(wl: &dyn Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let bodies = wl.bodies_per_set();
    let mut res = RunResult::default();
    // Reference values from the first repetition / first set; every later
    // one must reproduce them exactly (in-process self-consistency).
    let mut first_rep: Option<(u64, u64, SimSummary, u64)> = None;
    let mut first_set: Option<(u64, u64)> = None;
    let mut warmed_up = false;
    let mut any_seeded = false;

    loop {
        let mut setup_s = 0.0;
        let mut rep_s = vec![0.0; bodies];
        let mut outs: Vec<Vec<CellOut>> = vec![Vec::new(); bodies];
        let mut finals = Vec::with_capacity(wl.num_cells());
        for cell in 0..wl.num_cells() {
            let t = Instant::now();
            let mut built = wl.setup(cell, seed);
            setup_s += t.elapsed().as_secs_f64();
            for (r, rep_outs) in outs.iter_mut().enumerate() {
                let out = built.body();
                rep_s[r] += out.host_s;
                rep_outs.push(out);
            }
            finals.push(built.finish());
            let t = Instant::now();
            drop(built);
            setup_s += t.elapsed().as_secs_f64();
        }
        res.setup_s.push(setup_s);

        for (r, rep_outs) in outs.iter().enumerate() {
            let mut sim_d = Digest::new();
            let mut seeded_d = Digest::new();
            let mut work = 0;
            for o in rep_outs {
                any_seeded |= o.seeded_digest != 0;
                sim_d.u64(o.sim_digest);
                seeded_d.u64(o.seeded_digest);
                work += o.work;
                res.attempted += o.attempted;
                res.failed += o.failed;
            }
            let summary = wl.summarize(rep_outs);
            let this = (sim_d.value(), seeded_d.value(), summary, work);
            match &first_rep {
                None => first_rep = Some(this),
                Some(first) => {
                    res.attempted += 1;
                    if *first != this {
                        res.failed += 1;
                        res.notes.push(format!(
                            "repetition {} of set {} differs from the first repetition: \
                             {this:x?} vs {first:x?}",
                            r,
                            res.setup_s.len()
                        ));
                    }
                }
            }
            if warmed_up {
                res.rep_s.push(rep_s[r]);
                let mut units = Vec::new();
                for o in rep_outs {
                    if o.unit_s.is_empty() {
                        units.push(o.host_s);
                    } else {
                        units.extend_from_slice(&o.unit_s);
                    }
                }
                res.rep_units.push(units);
            }
            // The run's first repetition is the warm-up: it faults in
            // code and grows the allocator, and is not a sample.
            warmed_up = true;
        }

        res.attempted += 1;
        res.failed += wl.check_set(&finals);
        let mut set_sim = Digest::new();
        let mut set_seeded = Digest::new();
        for (a, b) in &finals {
            any_seeded |= *b != 0;
            set_sim.u64(*a);
            set_seeded.u64(*b);
        }
        let this_set = (set_sim.value(), set_seeded.value());
        match first_set {
            None => first_set = Some(this_set),
            Some(first) => {
                res.attempted += 1;
                if first != this_set {
                    res.failed += 1;
                    res.notes.push(format!(
                        "set {} end-of-set digests differ from the first set",
                        res.setup_s.len()
                    ));
                }
            }
        }

        let elapsed = started.elapsed().as_secs_f64();
        let mean_set = elapsed / res.setup_s.len() as f64;
        if res.setup_s.len() >= MIN_SETS
            && res.rep_s.len() >= MIN_REPS
            && elapsed + mean_set / 2.0 >= seconds
        {
            break;
        }
    }

    let (rep_sim, rep_seeded, summary, work) = first_rep.expect("at least one repetition ran");
    let (set_sim, set_seeded) = first_set.expect("at least one set ran");
    res.sim = summary;
    res.work = work;
    let mut sim_d = Digest::new();
    sim_d.u64(rep_sim).u64(set_sim).u64(wl.verify());
    res.sim_digest = sim_d.value();
    if any_seeded {
        res.seeded_digest = Some(Digest::new().u64(rep_seeded).u64(set_seeded).value());
    }
    res.peak_rss_mb = peak_rss_mb();
    res
}

/// Committed expected digests: `<workload> <sim|seed=N> <hex>` per line.
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// The committed digest for `(workload, kind)`, if any.
pub fn expected_digest(workload: &str, kind: &str) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, k, hex) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && k == kind)
            .then(|| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// Compare the run's digests with the committed ones; returns
/// `(checks made, mismatches, lines to print)`.
pub fn check_digests(name: &str, seed: u64, res: &RunResult) -> (u64, u64, Vec<String>) {
    let mut lines = Vec::new();
    let (mut checks, mut bad) = (0, 0);
    let mut check = |kind: &str, got: u64| match expected_digest(name, kind) {
        Some(want) => {
            checks += 1;
            if want == got {
                lines.push(format!(
                    "digest {kind} {got:#018x}: matches the committed value"
                ));
            } else {
                bad += 1;
                lines.push(format!(
                    "digest {kind} {got:#018x}: MISMATCH, committed value is {want:#018x}"
                ));
            }
        }
        None => lines.push(format!(
            "digest {kind} {got:#018x}: no committed value; self-consistent over {} repetitions",
            res.rep_s.len() + 1
        )),
    };
    check("sim", res.sim_digest);
    if let Some(seeded) = res.seeded_digest {
        check(&format!("seed={seed}"), seeded);
        if seed != DEFAULT_SEED {
            lines.push(format!(
                "(seed-dependent outputs are pinned for --seed {DEFAULT_SEED} only)"
            ));
        }
    }
    (checks, bad, lines)
}

/// Host seconds of the best observed pass over the workload: for every
/// unit (iteration, step, matrix point, fleet cell) the fastest of its
/// instances across the timed repetitions, summed.
///
/// Every unit does identical work in every repetition, and on the shared
/// 2-vCPU machines this runs on interference only ever adds time, in
/// bursts and in minutes-long swells: the median of whole repetitions
/// moved 10–21 % between back-to-back runs of unchanged code, the
/// per-unit minimum 2–4 %. The median and tail of the repetitions are
/// still printed beside it.
pub fn best_pass_s(rep_units: &[Vec<f64>]) -> f64 {
    let units = rep_units.first().map_or(0, Vec::len);
    assert!(
        rep_units.iter().all(|r| r.len() == units),
        "every repetition times the same units"
    );
    (0..units)
        .map(|j| rep_units.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The end-to-end metric values of a run, in `END_TO_END` order.
pub fn end_to_end_values(res: &RunResult) -> Vec<MetricValue> {
    END_TO_END
        .iter()
        .map(|m| MetricValue {
            name: m.name,
            unit: m.unit,
            value: match m.name {
                "setup_s" => median(&res.setup_s),
                "work_per_s" => res.work as f64 / best_pass_s(&res.rep_units),
                "peak_rss_mb" => res.peak_rss_mb,
                "sim_time" => res.sim.time_ms,
                "sim_gain" => res.sim.gain,
                other => unreachable!("no measurement for end-to-end metric {other}"),
            },
        })
        .collect()
}

/// Print the human-readable report and the final result line; returns
/// whether the run was correct.
pub fn report(wl: &dyn Workload, seed: u64, mut res: RunResult) -> bool {
    let spec = wl.spec();
    let (checks, bad, digest_lines) = check_digests(spec.name, seed, &res);
    res.attempted += checks;
    res.failed += bad;
    let metrics = end_to_end_values(&res);
    println!(
        "workload {} seed {seed}: {} sets, {} timed repetitions after 1 warm-up, {} work units each",
        spec.name,
        res.setup_s.len(),
        res.rep_s.len(),
        res.work
    );
    for m in &metrics {
        let extra = match m.name {
            "work_per_s" => format!(
                " ({} on this workload: work of one pass / best pass {:.4} s; repetition {})",
                spec.work_alias,
                best_pass_s(&res.rep_units),
                describe(&res.rep_s, 1.0, "s")
            ),
            "setup_s" => format!(" (per set: {})", describe(&res.setup_s, 1.0, "s")),
            "sim_time" | "sim_gain" => " (simulated clock, exact for this seed)".to_string(),
            _ => String::new(),
        };
        println!("  {} = {} {}{extra}", m.name, m.value, m.unit);
    }
    let units: Vec<f64> = res.rep_units.iter().flatten().copied().collect();
    println!(
        "  host time per {}: {}",
        wl.unit_name(),
        describe(&units, 1e3, "ms")
    );
    for l in &digest_lines {
        println!("  {l}");
    }
    for n in &res.notes {
        println!("  FAILED CHECK: {n}");
    }
    println!(
        "  failed {} of {} operations ({:.6} share)",
        res.failed,
        res.attempted,
        res.failed as f64 / res.attempted.max(1) as f64
    );
    println!("  note: {UNVALIDATED}");
    let correct = res.failed == 0;
    println!(
        "{}",
        result_line(correct, res.attempted.max(1), res.failed, &metrics)
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a resident set");
    }

    #[test]
    fn best_pass_takes_each_units_fastest_instance() {
        // Two units, three repetitions; a burst hits a different unit each
        // time, and the undisturbed cost (1.0 + 2.0) is still recovered.
        let reps = vec![vec![1.0, 2.9], vec![1.7, 2.0], vec![1.1, 2.1]];
        assert_eq!(best_pass_s(&reps), 3.0);
        assert_eq!(best_pass_s(&[vec![0.5]]), 0.5);
    }

    #[test]
    fn expected_digest_lookup_parses_hex_lines() {
        // Every committed line must parse: a typo would silently turn a
        // pinned check into "no committed value".
        for line in EXPECTED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "{line}");
            assert!(crate::spec::workload(parts[0]).is_some(), "{line}");
            assert!(parts[1] == "sim" || parts[1].starts_with("seed="), "{line}");
            assert_eq!(
                expected_digest(parts[0], parts[1]),
                u64::from_str_radix(parts[2].trim_start_matches("0x"), 16).ok(),
                "{line}"
            );
        }
        assert_eq!(expected_digest("no-such-workload", "sim"), None);
    }
}
