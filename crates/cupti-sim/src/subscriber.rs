//! The profiler subscriber: enable/disable, ingest, flush.

use crate::activity::ActivityRecord;
use crate::buffer::BufferPool;
use crate::overhead::{self, ProfilerOverhead};
use std::time::Instant;
use telemetry::{MetricsRegistry, RecorderSlot, SharedRecorder};

/// A compact kernel profiler in the style of a CUPTI subscriber.
///
/// Lifecycle: [`enable`](Profiler::enable) → run kernels on a
/// [`gpu_sim::Device`] → [`ingest`](Profiler::ingest) the device trace →
/// [`flush`](Profiler::flush) parsed records. While disabled, `ingest` is a
/// no-op, so steady-state training (after GLP4NN's one-time profiling
/// phase) pays zero overhead.
///
/// Overhead accounting (Eqs. 10-12) lives in a private
/// [`telemetry::MetricsRegistry`]; an optionally attached shared recorder
/// additionally receives per-batch ingest instants (stamped with the
/// simulated completion time of the last kernel in the batch, never wall
/// clock) and record counters.
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    pool: BufferPool,
    metrics: MetricsRegistry,
    telemetry: RecorderSlot,
    telemetry_pid: u32,
    /// Trace entries already consumed (so repeated `ingest` of a growing
    /// device trace only processes new kernels).
    consumed: usize,
}

impl Profiler {
    /// A profiler with the default buffer pool.
    pub fn new() -> Self {
        let pool = BufferPool::default();
        let mut metrics = MetricsRegistry::new();
        overhead::init_registry(&mut metrics, pool.resident_bytes());
        Profiler {
            enabled: false,
            pool,
            metrics,
            telemetry: RecorderSlot::empty(),
            telemetry_pid: 0,
            consumed: 0,
        }
    }

    /// Mirror ingest activity into a shared recorder, attributed to
    /// device `pid`.
    pub fn set_telemetry(&mut self, rec: SharedRecorder, pid: u32) {
        self.telemetry.attach(rec);
        self.telemetry_pid = pid;
    }

    /// Detach the shared recorder.
    pub fn clear_telemetry(&mut self) {
        self.telemetry.clear();
    }

    /// Start recording kernel activity.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stop recording.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether the profiler is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Consume new entries of a device trace (asynchronous delivery: the
    /// simulator finished the kernels; the profiler serializes them into
    /// activity buffers on the host). Returns the number of kernels
    /// recorded. Real wall time spent here accrues to `T_p`.
    pub fn ingest(&mut self, trace: &[gpu_sim::KernelTrace]) -> usize {
        let new = &trace[self.consumed.min(trace.len())..];
        self.consumed = trace.len();
        if !self.enabled || new.is_empty() {
            return 0;
        }
        let t0 = Instant::now();
        let mut n = 0;
        let mut batch_end_ns = 0u64;
        for t in new {
            let rec = ActivityRecord::from_trace(t);
            overhead::account_record(&mut self.metrics, &rec);
            self.pool.push(&rec);
            batch_end_ns = batch_end_ns.max(rec.end_ns);
            n += 1;
        }
        overhead::add_profiling_time(&mut self.metrics, t0.elapsed());
        let pid = self.telemetry_pid;
        self.telemetry.with(|r| {
            r.counter_add("cupti.records", n as u64);
            r.instant(
                pid,
                telemetry::HOST_TID,
                &format!("cupti.ingest x{n}"),
                "cupti",
                batch_end_ns,
            );
        });
        n
    }

    /// Drain completed buffers and parse them back into records. Parse
    /// time also accrues to `T_p` (it is the kernel-parser half of the
    /// resource tracker).
    pub fn flush(&mut self) -> Vec<ActivityRecord> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        for mut buf in self.pool.drain() {
            // Clean exhaustion or a malformed tail: either way the rest of
            // this buffer is unreadable, so stop at the first decode error.
            while let Ok(rec) = ActivityRecord::decode(&mut buf) {
                out.push(rec);
            }
        }
        overhead::add_profiling_time(&mut self.metrics, t0.elapsed());
        self.telemetry.with(|r| {
            r.counter_add("cupti.flushed_records", out.len() as u64);
        });
        out
    }

    /// Records dropped by buffer back-pressure.
    pub fn dropped(&self) -> usize {
        self.pool.dropped()
    }

    /// Memory/time overhead accounting, snapshotted from the profiler's
    /// metrics registry.
    pub fn overhead(&self) -> ProfilerOverhead {
        ProfilerOverhead::from_metrics(&self.metrics)
    }

    /// The raw metrics registry backing the overhead accounting.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};

    fn run_kernels(n: u32) -> Device {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        for i in 0..n {
            dev.launch(
                s,
                KernelDesc::new(
                    &format!("k{i}"),
                    LaunchConfig::new(Dim3::linear(4), Dim3::linear(128), 24, 256),
                    KernelCost::new(1.0e5, 1.0e4),
                )
                .with_tag(i as u64),
            );
        }
        dev.run();
        dev
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let dev = run_kernels(3);
        let mut p = Profiler::new();
        assert_eq!(p.ingest(dev.trace()), 0);
        assert!(p.flush().is_empty());
    }

    #[test]
    fn records_roundtrip_through_buffers() {
        let dev = run_kernels(5);
        let mut p = Profiler::new();
        p.enable();
        assert_eq!(p.ingest(dev.trace()), 5);
        let recs = p.flush();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].name, "k0");
        assert_eq!(recs[4].tag, 4);
        assert_eq!(recs[0].block.0, 128);
        assert_eq!(recs[0].regs_per_thread, 24);
        assert!(recs[0].end_ns > recs[0].start_ns);
    }

    #[test]
    fn incremental_ingest_skips_consumed() {
        let mut dev = run_kernels(2);
        let mut p = Profiler::new();
        p.enable();
        assert_eq!(p.ingest(dev.trace()), 2);
        // More kernels on the same device.
        let s = dev.create_stream();
        dev.launch(
            s,
            KernelDesc::new(
                "late",
                LaunchConfig::new(Dim3::linear(2), Dim3::linear(64), 16, 0),
                KernelCost::new(1.0e4, 0.0),
            ),
        );
        dev.run();
        assert_eq!(p.ingest(dev.trace()), 1);
        assert_eq!(p.flush().len(), 3);
    }

    #[test]
    fn overhead_accounts_memory_per_kernel() {
        let dev = run_kernels(4);
        let mut p = Profiler::new();
        p.enable();
        p.ingest(dev.trace());
        let o = p.overhead();
        assert_eq!(o.mem_tt_bytes, 4 * 16);
        assert!(o.mem_k_bytes > 0);
        assert!(o.mem_cupti_bytes >= crate::buffer::DEFAULT_BUFFER_BYTES);
        // Fig. 10's qualitative claim: CUPTI runtime memory dominates.
        assert!(o.mem_cupti_bytes > o.mem_tt_bytes + o.mem_k_bytes);
    }

    #[test]
    fn profiling_time_accrues() {
        let dev = run_kernels(50);
        let mut p = Profiler::new();
        p.enable();
        p.ingest(dev.trace());
        p.flush();
        assert!(p.overhead().t_p.as_nanos() > 0);
    }
}
