//! Space/time overhead accounting (Eqs. 10-12 of the paper).
//!
//! `mem_total = mem_tt + mem_K + mem_cupti`: timestamp memory and
//! configuration memory scale with the number of kernels recorded
//! (Eq. 11), while `mem_cupti` is the resident buffer-pool footprint fixed
//! by the CUPTI runtime. All three live in **host** memory — they never
//! compete with training data on the device — and are released once kernel
//! analysis finishes.
//!
//! The accounting itself is kept in a [`telemetry::MetricsRegistry`]
//! owned by the [`Profiler`](crate::Profiler) (counters named by
//! [`metric`], updated through [`OverheadCounters`]); [`ProfilerOverhead`] is the typed snapshot view read back
//! out of that registry for cost reports.

use crate::activity::ActivityRecord;
use std::time::Duration;
use telemetry::{CounterId, MetricsRegistry};

/// Counter names the profiler accounts under in its metrics registry.
pub mod metric {
    /// Bytes devoted to kernel timestamps (`mem_tt`, Eq. 11).
    pub const MEM_TT_BYTES: &str = "cupti.mem_tt_bytes";
    /// Bytes devoted to kernel execution configurations (`mem_K`, Eq. 11).
    pub const MEM_K_BYTES: &str = "cupti.mem_k_bytes";
    /// Resident bytes pinned by the buffer pool (`mem_cupti`).
    pub const MEM_CUPTI_BYTES: &str = "cupti.mem_cupti_bytes";
    /// Kernels recorded.
    pub const KERNELS_RECORDED: &str = "cupti.kernels_recorded";
    /// Accumulated real profiling time (`T_p`), in nanoseconds.
    pub const T_P_NANOS: &str = "cupti.t_p_ns";
}

/// The overhead counters, resolved once in a profiler's registry: the
/// per-record accounting then updates them by index, not by name.
#[derive(Debug, Clone, Copy)]
pub struct OverheadCounters {
    mem_tt: CounterId,
    mem_k: CounterId,
    kernels: CounterId,
    t_p: CounterId,
}

impl OverheadCounters {
    /// Resolve the counters in a fresh registry and seed it with the
    /// fixed pool-resident footprint.
    pub fn init(m: &mut MetricsRegistry, pool_resident_bytes: usize) -> Self {
        m.counter_add(metric::MEM_CUPTI_BYTES, pool_resident_bytes as u64);
        OverheadCounters {
            mem_tt: m.counter_id(metric::MEM_TT_BYTES),
            mem_k: m.counter_id(metric::MEM_K_BYTES),
            kernels: m.counter_id(metric::KERNELS_RECORDED),
            t_p: m.counter_id(metric::T_P_NANOS),
        }
    }

    /// Account one recorded kernel (Eq. 11 terms) into the registry.
    pub fn account_record(&self, m: &mut MetricsRegistry, rec: &ActivityRecord) {
        m.counter_add_id(self.mem_tt, ActivityRecord::TIMESTAMP_BYTES as u64);
        m.counter_add_id(
            self.mem_k,
            (rec.encoded_len() - ActivityRecord::TIMESTAMP_BYTES) as u64,
        );
        m.counter_add_id(self.kernels, 1);
    }

    /// Accrue real profiling time (`T_p`) into the registry.
    pub fn add_profiling_time(&self, m: &mut MetricsRegistry, d: Duration) {
        m.counter_add_id(self.t_p, d.as_nanos() as u64);
    }
}

/// Memory and time overhead of the profiler, per the paper's cost model —
/// a snapshot view over the profiler's metrics registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilerOverhead {
    /// Bytes devoted to kernel timestamps (`mem_tt`).
    pub mem_tt_bytes: usize,
    /// Bytes devoted to kernel execution configurations (`mem_K`).
    pub mem_k_bytes: usize,
    /// Resident bytes pinned by the buffer pool (`mem_cupti`).
    pub mem_cupti_bytes: usize,
    /// Kernels recorded.
    pub kernels_recorded: usize,
    /// Accumulated real profiling time (`T_p`).
    pub t_p: Duration,
}

impl ProfilerOverhead {
    /// Snapshot the overhead counters out of a profiler's registry.
    pub fn from_metrics(m: &MetricsRegistry) -> Self {
        ProfilerOverhead {
            mem_tt_bytes: m.counter(metric::MEM_TT_BYTES) as usize,
            mem_k_bytes: m.counter(metric::MEM_K_BYTES) as usize,
            mem_cupti_bytes: m.counter(metric::MEM_CUPTI_BYTES) as usize,
            kernels_recorded: m.counter(metric::KERNELS_RECORDED) as usize,
            t_p: Duration::from_nanos(m.counter(metric::T_P_NANOS)),
        }
    }

    /// `mem_total` (Eq. 10).
    pub fn mem_total_bytes(&self) -> usize {
        self.mem_tt_bytes + self.mem_k_bytes + self.mem_cupti_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityKind;

    fn rec(name: &str) -> ActivityRecord {
        ActivityRecord {
            kind: ActivityKind::Kernel,
            name: name.to_string(),
            tag: 0,
            stream: 0,
            grid: (1, 1, 1),
            block: (64, 1, 1),
            regs_per_thread: 8,
            smem_static: 0,
            smem_dynamic: 0,
            start_ns: 0,
            end_ns: 100,
        }
    }

    #[test]
    fn eq10_total_is_sum_of_parts() {
        let mut m = MetricsRegistry::new();
        let c = OverheadCounters::init(&mut m, 1024);
        c.account_record(&mut m, &rec("abc"));
        c.account_record(&mut m, &rec("defgh"));
        let o = ProfilerOverhead::from_metrics(&m);
        assert_eq!(
            o.mem_total_bytes(),
            o.mem_tt_bytes + o.mem_k_bytes + o.mem_cupti_bytes
        );
        assert_eq!(o.mem_cupti_bytes, 1024);
        assert_eq!(o.kernels_recorded, 2);
    }

    #[test]
    fn eq11_scales_with_kernel_count() {
        let mut m = MetricsRegistry::new();
        let c = OverheadCounters::init(&mut m, 0);
        for _ in 0..10 {
            c.account_record(&mut m, &rec("k"));
        }
        let o = ProfilerOverhead::from_metrics(&m);
        assert_eq!(o.mem_tt_bytes, 160);
        let per_k = ActivityRecord { ..rec("k") }.encoded_len() - ActivityRecord::TIMESTAMP_BYTES;
        assert_eq!(o.mem_k_bytes, 10 * per_k);
    }

    #[test]
    fn time_accumulates() {
        let mut m = MetricsRegistry::new();
        let c = OverheadCounters::init(&mut m, 0);
        c.add_profiling_time(&mut m, Duration::from_micros(5));
        c.add_profiling_time(&mut m, Duration::from_micros(7));
        let o = ProfilerOverhead::from_metrics(&m);
        assert_eq!(o.t_p, Duration::from_micros(12));
    }
}
