//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span's name is `<layer>.<call>`: the part before the
//! first dot is the layer (crate) the workload attributes it to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use telemetry::json::escape;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Span recorder. Disabled, `enter`/`exit` read no clock and record
/// nothing, so the same driving code measures the untraced body.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span. Spans close innermost-first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_cover)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time summed per span name, ns.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Self time summed per span name over the spans nested (at any
    /// depth) inside a span called `root` — the timed bodies, with their
    /// set-up spans left out.
    pub fn self_by_name_under(&self, root: &str) -> BTreeMap<&'static str, u64> {
        // Spans are stored in open order, so a parent precedes its children.
        let mut under = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            under[i] = s
                .parent
                .is_some_and(|p| under[p as usize] || self.spans[p as usize].name == root);
            if under[i] {
                *out.entry(s.name).or_insert(0) += t;
            }
        }
        out
    }

    /// Total duration (not self time) and call count per span name.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
        }
        out
    }

    /// The span dump written at exit: one object per span, every span
    /// carrying the workload id.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\": \"");
        out.push_str(&escape(workload));
        out.push_str("\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\"}}",
                escape(s.name),
                s.start_ns,
                s.end_ns,
                escape(workload)
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans,
            stack: Vec::new(),
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // body [0,100) > issue [10,40) > launch [15,35); body > run [40,90).
        let t = fixed(vec![
            span("bench.body", 0, 100, None),
            span("core.issue", 10, 40, Some(0)),
            span("gpu-sim.launch", 15, 35, Some(1)),
            span("gpu-sim.run", 40, 90, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 10, 20, 50]);
        let by_name = t.self_by_name();
        assert_eq!(by_name["gpu-sim.run"], 50);
        assert_eq!(by_name["gpu-sim.launch"], 20);
        assert_eq!(by_name["core.issue"], 10);
        assert_eq!(by_name["bench.body"], 20);
        // Self times partition the root span.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn spans_outside_the_named_root_are_left_out() {
        // setup > run [0,50) is set-up; body [60,100) > run [70,90) counts.
        let t = fixed(vec![
            span("bench.setup", 0, 55, None),
            span("gpu-sim.run", 0, 50, Some(0)),
            span("bench.body", 60, 100, None),
            span("core.issue", 60, 95, Some(2)),
            span("gpu-sim.run", 70, 90, Some(3)),
        ]);
        let under = t.self_by_name_under("bench.body");
        assert_eq!(under.get("gpu-sim.run"), Some(&20));
        assert_eq!(under.get("core.issue"), Some(&15));
        assert_eq!(under.get("bench.setup"), None);
        assert_eq!(t.self_by_name()["gpu-sim.run"], 70);
    }

    #[test]
    fn nesting_follows_enter_exit_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("nn.stage");
        let b = t.enter("core.capture");
        t.exit(b);
        t.exit(a);
        let c = t.enter("gpu-sim.run");
        t.exit(c);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let a = off.enter("nn.stage");
        off.exit(a);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn dump_is_valid_json_with_workload_ids() {
        let t = fixed(vec![
            span("bench.body", 0, 9, None),
            span("gpu-sim.run", 1, 8, Some(0)),
        ]);
        let v = telemetry::json::parse(&t.to_json("train-steady")).expect("valid JSON");
        let spans = v
            .get("spans")
            .and_then(|s| s.as_array())
            .expect("span array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            spans[1].get("workload").and_then(|w| w.as_str()),
            Some("train-steady")
        );
    }
}
