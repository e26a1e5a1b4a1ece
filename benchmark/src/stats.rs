//! Order statistics for host timings.

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one repetition.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`. `None` below twenty samples, where that
/// percentile would sit under the median and say nothing about the tail.
pub fn high_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // Ten samples lie strictly beyond index n - 11.
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), the spread the benchmark's acceptance
/// rule is stated in. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (cut(1), cut(3))
}

/// Geometric mean of positive ratios.
pub fn geo_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geo-mean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// One line for a host timing: median, tail percentile, sample count.
pub fn describe(samples: &[f64], unit_scale: f64, unit: &str) -> String {
    let med = median(samples) * unit_scale;
    match high_percentile(samples) {
        Some((p, v)) => format!(
            "median {med:.4} {unit}, p{p:.1} {:.4} {unit}, n={}",
            v * unit_scale,
            samples.len()
        ),
        None => format!(
            "median {med:.4} {unit}, no tail percentile (n={} < 20)",
            samples.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(high_percentile(&nineteen), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        // Index 9 (value 10): ten larger samples remain, so p50.
        assert_eq!(high_percentile(&twenty), Some((50.0, 10.0)));
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (p, v) = high_percentile(&thousand).unwrap();
        assert_eq!(v, 990.0);
        assert!((p - 99.0).abs() < 1e-9);
        assert_eq!(thousand.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_of_reciprocals_is_one() {
        assert!((geo_mean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geo_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
