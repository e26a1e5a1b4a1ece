//! Minimal JSON writer for the result line and the span dump.

use std::fmt::Write as _;
use telemetry::json::escape;

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Metric name (see `spec`).
    pub name: &'static str,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit string (see `spec`).
    pub unit: &'static str,
}

/// Write `v` as a JSON number. Rust's shortest round-trip formatting
/// keeps every measured digit; non-finite values have no JSON form and
/// show a broken measurement, so they are refused.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// The contract's result object, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[MetricValue]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(m.name),
            number(m.value),
            escape(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_parseable_object() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                MetricValue {
                    name: "work_per_s",
                    value: 1234.5678901234,
                    unit: "1/s",
                },
                MetricValue {
                    name: "setup_s",
                    value: 0.25,
                    unit: "s",
                },
            ],
        );
        assert!(!line.contains('\n'));
        let v = telemetry::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|a| a.as_f64()), Some(1000.0));
        assert_eq!(v.get("failed").and_then(|a| a.as_f64()), Some(0.0));
        let m = v.get("metrics").expect("metrics object");
        let w = m.get("work_per_s").expect("metric present");
        assert_eq!(
            w.get("value").and_then(|x| x.as_f64()),
            Some(1234.5678901234)
        );
        assert_eq!(w.get("unit").and_then(|x| x.as_str()), Some("1/s"));
        assert_eq!(
            v.as_object().map(|o| o.keys().cloned().collect::<Vec<_>>()),
            Some(vec![
                "attempted".to_string(),
                "correct".to_string(),
                "failed".to_string(),
                "metrics".to_string()
            ])
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_are_refused() {
        number(f64::NAN);
    }
}
