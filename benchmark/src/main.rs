//! The repo benchmark: five workloads, two clocks, per-layer attribution
//! measured from outside. See `benchmark/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and ends with one JSON result line (the contract in
//! `BENCHMARK.json`). Without `--workload`, every workload runs in its own
//! child process, so `peak_rss_mb` is per workload. `--agree` runs two
//! such full sets and fails if any end-to-end metric differs by more than
//! its bound; `--spread` runs ten seeds per workload and prints each
//! metric's quartile spread against a third of its bound.

mod attribution;
mod digest;
mod hand;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::MetricValue;
use spec::{Better, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: glp4nn-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--agree] [--spread] [--out-dir DIR]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    spread: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: harness::RUN_SECONDS as f64,
        trace: false,
        agree: false,
        spread: false,
        out_dir: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if spec::workload(&w).is_none() {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--agree" => args.agree = true,
            "--spread" => args.spread = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where the span dump goes: `--out-dir`, else the build's target
/// directory (this executable sits in `<target>/release/`).
fn out_dir(args: &Args) -> PathBuf {
    if let Some(d) = &args.out_dir {
        return d.clone();
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// One workload, in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let wl = workloads::by_name(name).expect("validated by parse_args");
    if wl.single_cpu() {
        match harness::pin_to_one_cpu() {
            Ok(cpu) => println!("workload {name}: process restricted to CPU {cpu}"),
            // Noisier, and results that depend on the library's worker
            // count (train-math's committed weights digest) will differ.
            Err(e) => {
                eprintln!("workload {name}: cannot restrict to one CPU ({e}); running on all")
            }
        }
    }
    if !args.trace {
        let res = harness::run(wl.as_ref(), args.seed, args.seconds);
        return if harness::report(wl.as_ref(), args.seed, res) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut tracer = trace::Tracer::new(true);
    let measured = wl.trace(args.seed, &mut tracer);
    let metrics: Vec<MetricValue> = PER_LAYER
        .iter()
        .map(|m| MetricValue {
            name: m.name,
            unit: m.unit,
            // A call this workload never crosses did no work and took no time.
            value: measured
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect();
    for (n, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *n),
            "traced run produced unlisted metric {n}"
        );
    }
    println!(
        "workload {name} seed {}: traced run, {} spans",
        args.seed,
        tracer.spans().len()
    );
    for m in metrics.iter().filter(|m| m.value != 0.0) {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    let zero: Vec<&str> = metrics
        .iter()
        .filter(|m| m.value == 0.0)
        .map(|m| m.name)
        .collect();
    println!(
        "  0 (call not crossed by this workload): {}",
        zero.join(" ")
    );
    let dir = out_dir(args);
    let path = dir.join(format!("trace-{name}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json(name)));
    match written {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // The traced run asserts its own equalities (hand-driven simulated end
    // times equal the end-to-end path's) and panics on a violation.
    println!(
        "{}",
        json::result_line(true, tracer.spans().len().max(1) as u64, 0, &metrics)
    );
    ExitCode::SUCCESS
}

/// A workload's parsed result line: metric values and the failed count.
type Parsed = (Vec<(String, f64)>, u64);

/// Run one workload in a child process (so `peak_rss_mb` is its own) and
/// parse its result line. `None` if the child failed.
fn run_child(name: &str, seed: u64, args: &Args, echo: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(d) = &args.out_dir {
        cmd.arg("--out-dir").arg(d);
    }
    let output = cmd.output().expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        eprintln!("workload {name} seed {seed} failed ({})", output.status);
        return None;
    }
    let doc = telemetry::json::parse(stdout.lines().last()?).ok()?;
    let failed = doc.get("failed")?.as_f64()? as u64;
    let metrics = doc
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Some((metrics, failed))
}

/// One full set: every workload, a child process each.
fn run_set(args: &Args, echo: bool) -> Option<Vec<(&'static str, Parsed)>> {
    WORKLOADS
        .iter()
        .map(|w| Some((w.name, run_child(w.name, args.seed, args, echo)?)))
        .collect()
}

/// The steadiness check the contract asks for: ten runs per workload,
/// each with another seed, and per end-to-end metric the distance between
/// the first and third quartile as a share of the median — to stay under
/// a third of the metric's bound.
fn spread(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
    {
        let mut runs = Vec::new();
        for seed in args.seed..args.seed + 10 {
            match run_child(w.name, seed, args, false) {
                Some((metrics, _)) => runs.push(metrics),
                None => return ExitCode::FAILURE,
            }
        }
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|ms| ms.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            let share = (q3 - q1) / med;
            let verdict = if share <= m.bound / 3.0 {
                "steady"
            } else {
                "NOT below bound/3"
            };
            println!(
                "{:13} {:12} median {med:>16.6} spread {share:.4} vs bound {:.2}  {verdict}",
                w.name, m.name, m.bound
            );
            ok &= share <= m.bound / 3.0;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// By how much of `first` the second value is worse, given direction.
fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// Two full sets must agree within each metric's bound, both ways round.
fn agree(args: &Args) -> ExitCode {
    let (Some(a), Some(b)) = (run_set(args, false), run_set(args, false)) else {
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for ((name, (ma, fa)), (_, (mb, fb))) in a.iter().zip(&b) {
        if fa != fb {
            println!("{name}: failed count differs: {fa} vs {fb}");
            ok = false;
        }
        for m in END_TO_END {
            let get =
                |ms: &Vec<(String, f64)>| ms.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(ma), get(mb)) else {
                println!("{name}: metric {} missing", m.name);
                ok = false;
                continue;
            };
            // Simulated metrics repeat exactly for one seed whatever their
            // cross-seed bound in BENCHMARK.json says.
            let bound = if m.name.starts_with("sim_") {
                0.0
            } else {
                m.bound
            };
            let gap = worse_by(x, y, m.better).max(worse_by(y, x, m.better));
            let verdict = if gap <= bound { "agree" } else { "DISAGREE" };
            println!(
                "{name:13} {:12} {x:>16.6} {y:>16.6} {:>8.4} vs bound {bound:.2}  {verdict}",
                m.name, gap
            );
            ok &= gap <= bound;
        }
    }
    println!(
        "{}",
        if ok {
            "two sets agree"
        } else {
            "two sets DISAGREE"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.agree {
        return agree(&args);
    }
    if args.spread {
        return spread(&args);
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => match run_set(&args, true) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_issue_forms_of_trace_both_parse() {
        let a = parse_args(&argv(
            "--workload train-math --seed 7 --seconds 3 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("train-math"), 7, 3.0, false)
        );
        assert!(parse_args(&argv("--trace 1 --seed 2")).unwrap().trace);
        assert!(parse_args(&argv("--seed 2 --trace")).unwrap().trace);
        assert!(
            parse_args(&argv("--trace --workload multi-gpu"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 110.0, Better::Higher) < 0.0);
        assert!((worse_by(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
    }
}
