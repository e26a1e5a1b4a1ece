//! Fleet run summaries. Every number derives from the simulated clock,
//! so rendering a report is byte-stable across runs.

use gpu_sim::SimTime;

/// Per-class outcome summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class name from the mix.
    pub name: String,
    /// Relative deadline (ns); [`SimTime::MAX`] for best-effort.
    pub deadline_ns: SimTime,
    /// Requests offered in this class.
    pub offered: usize,
    /// Requests completed (within deadline or late).
    pub completed: usize,
    /// Requests completed within their deadline.
    pub attained: usize,
    /// Requests shed (admission, preemption, or brownout).
    pub shed: usize,
    /// Requests evicted from a queue past their deadline.
    pub expired: usize,
    /// p50 end-to-end latency of completions (ns); 0 when none.
    pub p50_ns: SimTime,
    /// p95 end-to-end latency (ns).
    pub p95_ns: SimTime,
    /// p99 end-to-end latency (ns).
    pub p99_ns: SimTime,
}

impl ClassReport {
    /// Fraction of offered requests completed within deadline (1.0 for
    /// a best-effort class with nothing offered).
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.attained as f64 / self.offered as f64
        }
    }
}

/// Summary of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Router policy short name.
    pub policy: String,
    /// Fabric spec name.
    pub fabric: String,
    /// Priority mix name.
    pub mix: String,
    /// Replicas active at start.
    pub replicas: usize,
    /// Peak simultaneously active replicas (equals `replicas` without
    /// autoscaling).
    pub peak_replicas: usize,
    /// Requests offered.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed (admission, preemption, brownout).
    pub shed: usize,
    /// Requests evicted past their deadline while queued.
    pub expired: usize,
    /// Of the shed, how many the brownout controller rejected.
    pub brownout_sheds: usize,
    /// Waves dispatched across all replicas.
    pub waves: usize,
    /// Mean wave size.
    pub mean_wave: f64,
    /// First arrival to last completion (ns).
    pub makespan_ns: SimTime,
    /// Completions per simulated second.
    pub throughput_rps: f64,
    /// Overall p50 end-to-end latency (ns).
    pub p50_ns: SimTime,
    /// Overall p95 end-to-end latency (ns).
    pub p95_ns: SimTime,
    /// Overall p99 end-to-end latency (ns).
    pub p99_ns: SimTime,
    /// Fraction of deadline-bearing requests completed within deadline.
    pub slo_attainment: f64,
    /// Fraction of offered requests shed or expired.
    pub shed_rate: f64,
    /// Per-class breakdown, class 0 first.
    pub per_class: Vec<ClassReport>,
    /// Autoscaler scale-up actions.
    pub scale_ups: usize,
    /// Autoscaler scale-down actions.
    pub scale_downs: usize,
    /// Total warmup (plan capture) time charged to spawns after start
    /// (ns).
    pub warmup_total_ns: SimTime,
    /// Sanitizer diagnostics summed over the replicas' engines, each of
    /// which replays its own device's command log once (zero when
    /// sanitizing is off or the run is clean).
    pub sanitizer_reports: usize,
}

impl FleetReport {
    /// One fixed-width table row (see [`FleetReport::table_header`]).
    pub fn table_row(&self) -> String {
        format!(
            "{:<14} {:<9} {:<17} {:>4} {:>8} {:>8.1} {:>9.3} {:>9.3} {:>9.3} {:>7.2}% {:>6.2}% {:>5.2}",
            self.fabric,
            self.policy,
            self.mix,
            self.peak_replicas,
            self.completed,
            self.throughput_rps,
            self.p50_ns as f64 / 1e6,
            self.p95_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
            self.slo_attainment * 100.0,
            self.shed_rate * 100.0,
            self.mean_wave,
        )
    }

    /// Header matching [`table_row`](FleetReport::table_row).
    pub fn table_header() -> String {
        format!(
            "{:<14} {:<9} {:<17} {:>4} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>7} {:>5}",
            "fabric",
            "policy",
            "mix",
            "repl",
            "done",
            "tput r/s",
            "p50(ms)",
            "p95(ms)",
            "p99(ms)",
            "SLO att",
            "shed",
            "wave",
        )
    }

    /// Per-class sub-table rows for this run.
    pub fn class_rows(&self) -> Vec<String> {
        self.per_class
            .iter()
            .map(|c| {
                let deadline = if c.deadline_ns == SimTime::MAX {
                    "-".to_string()
                } else {
                    format!("{:.0}", c.deadline_ns as f64 / 1e6)
                };
                format!(
                    "  {:<12} {:>8} {:>9} {:>9} {:>7} {:>7} {:>9.3} {:>9.3} {:>8.2}% {:>6}",
                    c.name,
                    c.offered,
                    c.completed,
                    c.attained,
                    c.shed,
                    c.expired,
                    c.p50_ns as f64 / 1e6,
                    c.p99_ns as f64 / 1e6,
                    c.attainment() * 100.0,
                    deadline,
                )
            })
            .collect()
    }

    /// Header matching [`class_rows`](FleetReport::class_rows).
    pub fn class_header() -> String {
        format!(
            "  {:<12} {:>8} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9} {:>6}",
            "class",
            "offered",
            "done",
            "in-SLO",
            "shed",
            "expired",
            "p50(ms)",
            "p99(ms)",
            "attain",
            "SLO(ms)",
        )
    }
}
