//! Chrome-trace / Perfetto JSON export.
//!
//! Layout conventions (loadable in `chrome://tracing` and Perfetto):
//!
//! - **pid** = device index (plus the synthetic [`crate::COLLECTIVE_PID`]
//!   and [`crate::FLEET_PID`] lanes), named via `process_name` metadata.
//! - **tid** = stream id within the device (plus [`crate::HOST_TID`] for
//!   host-side activity), named via `thread_name` metadata.
//! - Spans are `B`/`E` duration-event pairs, **strictly nested per tid**:
//!   the writer sorts each track and closes spans before opening
//!   non-overlapping successors, so the output always balances.
//! - Instants are `i` events with thread scope.
//! - Flow arrows (`s` → `f`, binding point `e`) connect cross-stream
//!   event dependencies and P2P copies.
//!
//! Timestamps are microseconds with exactly three decimals (the simulated
//! nanosecond, verbatim), formatted with deterministic integer math — the
//! whole export is byte-stable for a fixed recording, which the
//! golden-file test relies on.

use crate::json::escape;
use crate::{SpanEvent, Telemetry};
use std::fmt::Write as _;

/// Format simulated ns as a Chrome-trace µs timestamp (`1234.567`).
fn ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render everything `t` recorded as a Chrome-trace JSON document.
pub fn chrome_trace(t: &Telemetry) -> String {
    let mut events: Vec<String> = Vec::new();

    for (pid, name) in t.process_names() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }
    for ((pid, tid), name) in t.thread_names() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    // Group spans and instants per (pid, tid) track, tracks sorted.
    let mut tracks: Vec<(u32, u64)> = t
        .spans()
        .iter()
        .map(|s| (s.pid, s.tid))
        .chain(t.instants().iter().map(|i| (i.pid, i.tid)))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();

    for (pid, tid) in tracks {
        let mut spans: Vec<&SpanEvent> = t
            .spans()
            .iter()
            .filter(|s| s.pid == pid && s.tid == tid)
            .collect();
        // Chronological, outermost-first on ties, recording order as the
        // final tie-break: guarantees a nesting-compatible open order.
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.seq));

        let mut stack: Vec<&SpanEvent> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if top.end_ns <= s.start_ns {
                    push_end(&mut events, pid, tid, top);
                    stack.pop();
                } else {
                    break;
                }
            }
            debug_assert!(
                stack.last().is_none_or(|top| top.end_ns >= s.end_ns),
                "partially overlapping spans on one track: {} vs {}",
                stack.last().unwrap().name,
                s.name
            );
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}}}",
                escape(&s.name),
                escape(&s.cat),
                ts(s.start_ns)
            ));
            stack.push(s);
        }
        while let Some(top) = stack.pop() {
            push_end(&mut events, pid, tid, top);
        }

        let mut instants: Vec<_> = t
            .instants()
            .iter()
            .filter(|i| i.pid == pid && i.tid == tid)
            .collect();
        instants.sort_by_key(|i| (i.ts_ns, i.seq));
        for i in instants {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\"}}",
                escape(&i.name),
                escape(&i.cat),
                ts(i.ts_ns)
            ));
        }
    }

    for f in t.flows() {
        let (sp, st, sts) = f.from;
        let (fp, ft, fts) = f.to;
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"s\",\"id\":{},\"pid\":{sp},\"tid\":{st},\"ts\":{}}}",
            escape(&f.name),
            escape(&f.cat),
            f.id,
            ts(sts)
        ));
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":{fp},\"tid\":{ft},\"ts\":{}}}",
            escape(&f.name),
            escape(&f.cat),
            f.id,
            ts(fts)
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(out, "{}", events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

fn push_end(events: &mut Vec<String>, pid: u32, tid: u64, s: &SpanEvent) {
    events.push(format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}}}",
        escape(&s.name),
        escape(&s.cat),
        ts(s.end_ns)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::Recorder;

    #[test]
    fn export_is_valid_json_and_byte_stable() {
        let mut t = Telemetry::new();
        t.set_process_name(0, "gpu0");
        t.set_thread_name(0, 1, "stream 1");
        t.span(0, 1, "im2col", "kernel", 1_000, 2_500);
        t.span(0, 1, "sgemm", "kernel", 2_500, 9_000);
        t.instant(0, crate::HOST_TID, "milp.solve", "plan", 500);
        t.flow("dep", "event", (0, 1, 2_500), (0, 2, 2_500));
        let a = t.chrome_trace();
        let b = t.chrome_trace();
        assert_eq!(a, b, "export must be deterministic");
        let v = parse(&a).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + 2 B + 2 E + 1 i + 2 flow halves.
        assert_eq!(evs.len(), 9);
    }

    #[test]
    fn back_to_back_spans_close_before_opening() {
        let mut t = Telemetry::new();
        t.span(0, 1, "a", "kernel", 0, 100);
        t.span(0, 1, "b", "kernel", 100, 200);
        let json = t.chrome_trace();
        let ea = json.find("\"a\",\"cat\":\"kernel\",\"ph\":\"E\"").unwrap();
        let bb = json.find("\"b\",\"cat\":\"kernel\",\"ph\":\"B\"").unwrap();
        assert!(ea < bb, "a must close before b opens:\n{json}");
    }

    #[test]
    fn nested_spans_stay_nested() {
        let mut t = Telemetry::new();
        // Outer recorded second: sorting must still open it first.
        t.span(0, 1, "inner", "phase", 10, 20);
        t.span(0, 1, "outer", "phase", 0, 100);
        let json = t.chrome_trace();
        let bo = json
            .find("\"outer\",\"cat\":\"phase\",\"ph\":\"B\"")
            .unwrap();
        let bi = json
            .find("\"inner\",\"cat\":\"phase\",\"ph\":\"B\"")
            .unwrap();
        let ei = json
            .find("\"inner\",\"cat\":\"phase\",\"ph\":\"E\"")
            .unwrap();
        let eo = json
            .find("\"outer\",\"cat\":\"phase\",\"ph\":\"E\"")
            .unwrap();
        assert!(bo < bi && bi < ei && ei < eo, "nesting broken:\n{json}");
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_decimals() {
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1), "0.001");
        assert_eq!(ts(1_234_567), "1234.567");
        assert_eq!(ts(1_000), "1.000");
    }
}
