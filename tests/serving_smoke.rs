//! Smoke test of the `reproduce serving` harness path: the same sweep the
//! binary runs with `--smoke`, checked end to end (this is what
//! `scripts/ci.sh` exercises through the binary as well).

use glp4nn_bench::serving::{glp4nn_dominates, serving_rates, serving_sweep, SERVING_MODES};

#[test]
fn smoke_sweep_is_deterministic_and_glp4nn_dominates() {
    let rows = serving_sweep(true);

    // 3 evaluation devices x 1 smoke rate, every backend at each point.
    assert_eq!(rows.len(), 3);
    let devices: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
    assert!(devices.contains(&"Tesla K40C"));
    assert!(devices.contains(&"Tesla P100"));
    assert!(devices.contains(&"Titan XP"));

    for row in &rows {
        assert_eq!(row.reports.len(), SERVING_MODES.len());
        for (name, report) in &row.reports {
            assert!(report.completed > 0, "{name} served nothing");
            assert_eq!(report.completed + report.shed, 40);
            assert!(report.throughput_rps > 0.0);
            assert!(report.p50_ns <= report.p99_ns);
        }
    }

    // The acceptance property of the serving experiment.
    assert!(glp4nn_dominates(&rows));

    // Determinism: a second sweep reproduces every simulated number.
    let again = serving_sweep(true);
    for (a, b) in rows.iter().zip(&again) {
        for ((_, ra), (_, rb)) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra, rb);
            assert_eq!(ra.throughput_rps.to_bits(), rb.throughput_rps.to_bits());
        }
    }

    // The full (non-smoke) sweep covers >= 3 arrival rates.
    assert!(serving_rates(false).len() >= 3);
}
