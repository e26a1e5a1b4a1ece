#![warn(missing_docs)]

//! Unified telemetry for the GLP4NN runtime: tracing spans, a typed
//! metrics registry, and exporters — all driven by the **simulated**
//! clock.
//!
//! Every subsystem of the runtime (the GPU simulator's engine and fabric,
//! the analyzer/scheduler plan machinery, the CUPTI-style profiler, the
//! data-parallel trainer, the ring collectives and the serving engine)
//! reports into one [`Recorder`]. Two exporters read the result back out:
//!
//! - [`Telemetry::chrome_trace`] — a Chrome-trace / Perfetto JSON string:
//!   one *pid* per device, one *tid* per stream, `B`/`E` duration events
//!   for kernels and P2P copies, `i` instant events for host-side moments
//!   (plan capture, MILP solve, CUPTI flush), and `s`/`f` flow arrows for
//!   cross-stream event dependencies and P2P transfers.
//! - [`Telemetry::metrics_snapshot`] — a plain-text dump of every counter,
//!   gauge and histogram (sorted, deterministic).
//!
//! Determinism is a design constraint, not an accident: all span
//! timestamps come from the simulated nanosecond clock, registries are
//! `BTreeMap`-backed, and flow ids are allocated sequentially in recording
//! order — so for a fixed workload the exported trace is **byte-stable**
//! and can be golden-file tested. Wall-clock quantities (e.g. the
//! profiler's `T_p`) live in *metrics counters only*, never in span
//! timestamps.
//!
//! The off-path costs nothing: instrumented components hold an
//! `Option<SharedRecorder>` and skip everything on `None`. Recording is
//! observation-only — it must never create streams or events, advance a
//! clock, or otherwise perturb the simulation (property-tested in
//! `tests/observation_only.rs`).
//!
//! ```
//! use telemetry::{Recorder, Telemetry};
//!
//! let mut t = Telemetry::new();
//! t.set_process_name(0, "gpu0");
//! t.set_thread_name(0, 1, "stream 1");
//! t.span(0, 1, "sgemm", "kernel", 1_000, 5_000);
//! t.counter_add("gpu.kernels_completed", 1);
//! let json = t.chrome_trace();
//! assert!(json.contains("\"sgemm\""));
//! ```

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod validate;

pub use chrome::chrome_trace;
pub use metrics::{percentile_of_sorted, Histogram, MetricsRegistry};
pub use validate::{validate_chrome_trace, TraceSummary};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Synthetic Chrome-trace *thread* id used for host-side activity of a
/// device process (plan capture/replay, profiling passes, MILP solves) —
/// distinct from any real stream id, and small enough to stay exact
/// through an `f64` round-trip in trace viewers.
pub const HOST_TID: u64 = 999_999;

/// Synthetic Chrome-trace *process* id for the serving engine's request
/// lifecycle lane (one tid per request, so spans stay strictly nested).
pub const SERVE_PID: u32 = 1000;

/// Synthetic Chrome-trace *process* id for collective-communication
/// aggregate spans (one per all-reduce bucket).
pub const COLLECTIVE_PID: u32 = 1001;

/// Base Chrome-trace *process* id for the serving fleet: fleet-level
/// control spans (routing, autoscaling) live at `FLEET_PID`, and replica
/// `i`'s request lifecycle lane at `FLEET_PID + 1 + i` — one pid per
/// replica, mirroring the per-device pid convention.
pub const FLEET_PID: u32 = 1002;

/// One side of a flow arrow: `(pid, tid, timestamp_ns)`.
pub type FlowPoint = (u32, u64, u64);

/// The recording interface instrumented components write into.
///
/// All timestamps are simulated nanoseconds. Implementations must not
/// interpret them — only store and export.
pub trait Recorder {
    /// A closed duration span `[start_ns, end_ns]` on track `(pid, tid)`.
    fn span(&mut self, pid: u32, tid: u64, name: &str, cat: &str, start_ns: u64, end_ns: u64);

    /// A zero-duration instant on track `(pid, tid)`.
    fn instant(&mut self, pid: u32, tid: u64, name: &str, cat: &str, ts_ns: u64);

    /// A flow arrow from one track/time to another (event dependency,
    /// P2P transfer). The recorder assigns the flow id.
    fn flow(&mut self, name: &str, cat: &str, from: FlowPoint, to: FlowPoint);

    /// Add `delta` to the named monotonic counter.
    fn counter_add(&mut self, name: &str, delta: u64);

    /// Set the named gauge to `value` (last write wins).
    fn gauge_set(&mut self, name: &str, value: f64);

    /// Record one observation into the named histogram.
    fn observe(&mut self, name: &str, value: u64);
}

/// A recorder shared across subsystems. `std::sync::Mutex` (not the
/// vendored `parking_lot`) so the unsized coercion to `dyn Recorder`
/// works and the telemetry crate stays dependency-free.
pub type SharedRecorder = Arc<Mutex<dyn Recorder + Send>>;

/// Wrap a concrete [`Telemetry`] (or any recorder) into the shared handle
/// components attach to.
pub fn shared(t: Telemetry) -> Arc<Mutex<Telemetry>> {
    Arc::new(Mutex::new(t))
}

/// An optional [`SharedRecorder`] with an opaque `Debug` representation,
/// so instrumented components can keep deriving `Debug`. The off-path is
/// a `None` check: an empty slot records nothing and allocates nothing.
#[derive(Clone, Default)]
pub struct RecorderSlot(Option<SharedRecorder>);

impl RecorderSlot {
    /// An empty (recording-off) slot.
    pub const fn empty() -> Self {
        RecorderSlot(None)
    }

    /// Attach a shared recorder.
    pub fn attach(&mut self, rec: SharedRecorder) {
        self.0 = Some(rec);
    }

    /// Detach, returning to the zero-cost off-path.
    pub fn clear(&mut self) {
        self.0 = None;
    }

    /// Whether a recorder is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// The attached handle, if any (e.g. to propagate to a sub-component).
    pub fn get(&self) -> Option<&SharedRecorder> {
        self.0.as_ref()
    }

    /// Run `f` against the recorder if one is attached; no-op otherwise.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn Recorder) -> R) -> Option<R> {
        self.0.as_ref().map(|rec| {
            let mut guard = rec.lock().unwrap_or_else(|poison| poison.into_inner());
            f(&mut *guard)
        })
    }
}

impl std::fmt::Debug for RecorderSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "RecorderSlot(attached)"
        } else {
            "RecorderSlot(empty)"
        })
    }
}

/// A recorded duration span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Chrome-trace process id (device index, or a synthetic lane).
    pub pid: u32,
    /// Chrome-trace thread id (stream id, request id, or [`HOST_TID`]).
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Event category (`kernel`, `p2p`, `plan`, ...).
    pub cat: String,
    /// Span start, simulated ns.
    pub start_ns: u64,
    /// Span end, simulated ns.
    pub end_ns: u64,
    /// Recording order, for deterministic tie-breaks.
    pub seq: u64,
}

/// A recorded instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantEvent {
    /// Chrome-trace process id.
    pub pid: u32,
    /// Chrome-trace thread id.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Event category.
    pub cat: String,
    /// Timestamp, simulated ns.
    pub ts_ns: u64,
    /// Recording order.
    pub seq: u64,
}

/// A recorded flow arrow (start + finish binding points).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEvent {
    /// Flow id (sequential in recording order; pairs `s` with `f`).
    pub id: u64,
    /// Arrow name.
    pub name: String,
    /// Arrow category.
    pub cat: String,
    /// Source binding point.
    pub from: FlowPoint,
    /// Destination binding point.
    pub to: FlowPoint,
}

/// The default [`Recorder`]: stores everything in memory and exports on
/// demand. One instance is shared (behind a mutex) by every instrumented
/// component of a run.
#[derive(Debug, Default)]
pub struct Telemetry {
    spans: Vec<SpanEvent>,
    instants: Vec<InstantEvent>,
    flows: Vec<FlowEvent>,
    metrics: MetricsRegistry,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u64), String>,
    seq: u64,
}

impl Telemetry {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name the Chrome-trace process `pid` (e.g. `"gpu0"`).
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.process_names.insert(pid, name.to_string());
    }

    /// Name thread `tid` of process `pid` (e.g. `"stream 3"`).
    pub fn set_thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.thread_names.insert((pid, tid), name.to_string());
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// All recorded instants, in recording order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// All recorded flow arrows, in recording order.
    pub fn flows(&self) -> &[FlowEvent] {
        &self.flows
    }

    /// The metrics registry (counters/gauges/histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registered process names.
    pub fn process_names(&self) -> &BTreeMap<u32, String> {
        &self.process_names
    }

    /// Registered thread names.
    pub fn thread_names(&self) -> &BTreeMap<(u32, u64), String> {
        &self.thread_names
    }

    /// Export everything recorded so far as a Chrome-trace JSON string.
    /// Deterministic: same recording → same bytes.
    pub fn chrome_trace(&self) -> String {
        chrome::chrome_trace(self)
    }

    /// Export the metrics registry as a sorted plain-text snapshot.
    pub fn metrics_snapshot(&self) -> String {
        self.metrics.snapshot()
    }

    /// Sum of span durations on every track of process `pid` with
    /// category `cat` (e.g. reconcile `kernel` spans against
    /// `DeviceStats::total_kernel_time_ns`).
    pub fn span_time_ns(&self, pid: u32, cat: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.pid == pid && s.cat == cat)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

impl Recorder for Telemetry {
    fn span(&mut self, pid: u32, tid: u64, name: &str, cat: &str, start_ns: u64, end_ns: u64) {
        debug_assert!(start_ns <= end_ns, "span {name} ends before it starts");
        self.seq += 1;
        self.spans.push(SpanEvent {
            pid,
            tid,
            name: name.to_string(),
            cat: cat.to_string(),
            start_ns,
            end_ns,
            seq: self.seq,
        });
    }

    fn instant(&mut self, pid: u32, tid: u64, name: &str, cat: &str, ts_ns: u64) {
        self.seq += 1;
        self.instants.push(InstantEvent {
            pid,
            tid,
            name: name.to_string(),
            cat: cat.to_string(),
            ts_ns,
            seq: self.seq,
        });
    }

    fn flow(&mut self, name: &str, cat: &str, from: FlowPoint, to: FlowPoint) {
        let id = self.flows.len() as u64 + 1;
        self.flows.push(FlowEvent {
            id,
            name: name.to_string(),
            cat: cat.to_string(),
            from,
            to,
        });
    }

    fn counter_add(&mut self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    fn observe(&mut self, name: &str, value: u64) {
        self.metrics.observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates_in_order() {
        let mut t = Telemetry::new();
        t.span(0, 1, "a", "kernel", 10, 20);
        t.span(0, 1, "b", "kernel", 20, 30);
        t.instant(0, HOST_TID, "solve", "plan", 15);
        t.flow("dep", "event", (0, 1, 20), (0, 2, 20));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].name, "a");
        assert_eq!(t.instants().len(), 1);
        assert_eq!(t.flows()[0].id, 1);
        assert_eq!(t.span_time_ns(0, "kernel"), 20);
        assert_eq!(t.span_time_ns(0, "p2p"), 0);
    }

    #[test]
    fn shared_handle_coerces_to_dyn_recorder() {
        let h = shared(Telemetry::new());
        let dynh: SharedRecorder = h.clone();
        dynh.lock().unwrap().counter_add("c", 2);
        assert_eq!(h.lock().unwrap().metrics().counter("c"), 2);
    }

    #[test]
    fn span_totals_filter_by_pid_and_cat() {
        let mut t = Telemetry::new();
        t.span(0, 1, "k", "kernel", 0, 100);
        t.span(1, 1, "k", "kernel", 0, 50);
        t.span(0, 2, "c", "p2p", 0, 7);
        assert_eq!(t.span_time_ns(0, "kernel"), 100);
        assert_eq!(t.span_time_ns(1, "kernel"), 50);
        assert_eq!(t.span_time_ns(0, "p2p"), 7);
    }
}
