//! Device utilization statistics.

use crate::device::DeviceProps;
use crate::sm::SmState;
use crate::timeline::KernelTrace;
use crate::SimTime;

/// Aggregate utilization over a simulated interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Total simulated time covered (ns).
    pub elapsed_ns: SimTime,
    /// Kernels completed.
    pub kernels_completed: usize,
    /// Time-weighted average occupancy: mean over SMs of
    /// (warp-time integral) / (max warps × elapsed). This is the paper's
    /// `OR_SM` (Eq. 1) averaged over time and SMs.
    pub avg_occupancy: f64,
    /// Sum of kernel durations (ns) — exceeds `elapsed_ns` when kernels
    /// overlap, so `parallel_efficiency > 1` indicates real concurrency.
    pub total_kernel_time_ns: SimTime,
}

impl DeviceStats {
    pub(crate) fn from_parts(
        props: &DeviceProps,
        sms: &[SmState],
        trace: &[KernelTrace],
        now: SimTime,
    ) -> Self {
        let max_warps = props.max_warps_per_sm() as u128;
        let mut occ_sum = 0.0;
        for sm in sms {
            // Include the un-integrated residual at `now` (idle SMs add 0).
            let warps_now = sm.threads_used.div_ceil(props.warp_size) as u128;
            let integral = sm.warp_time_integral + warps_now * (now - sm.last_change) as u128;
            if now > 0 {
                occ_sum += integral as f64 / (max_warps * now as u128) as f64;
            }
        }
        let avg_occupancy = if sms.is_empty() {
            0.0
        } else {
            occ_sum / sms.len() as f64
        };
        DeviceStats {
            elapsed_ns: now,
            kernels_completed: trace.len(),
            avg_occupancy,
            total_kernel_time_ns: trace.iter().map(|t| t.duration_ns()).sum(),
        }
    }

    /// Ratio of summed kernel time to wall time; > 1 means kernels ran
    /// concurrently.
    pub fn parallel_efficiency(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_kernel_time_ns as f64 / self.elapsed_ns as f64
    }
}

/// Aggregate statistics for one kernel class (same name), as a profiler
/// summary view would report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelClassStats {
    /// Kernel name.
    pub name: String,
    /// Number of instances executed.
    pub count: usize,
    /// Total execution time across instances (ns).
    pub total_ns: SimTime,
    /// Minimum instance duration (ns).
    pub min_ns: SimTime,
    /// Maximum instance duration (ns).
    pub max_ns: SimTime,
}

/// Summarize a trace by kernel name, in first-seen order.
pub fn stats_by_kernel(trace: &[KernelTrace]) -> Vec<KernelClassStats> {
    let mut order: Vec<String> = Vec::new();
    let mut map: std::collections::HashMap<String, KernelClassStats> =
        std::collections::HashMap::new();
    for t in trace {
        let d = t.duration_ns();
        match map.get_mut(t.name.as_str()) {
            None => {
                order.push(t.name.to_string());
                map.insert(
                    t.name.to_string(),
                    KernelClassStats {
                        name: t.name.to_string(),
                        count: 1,
                        total_ns: d,
                        min_ns: d,
                        max_ns: d,
                    },
                );
            }
            Some(s) => {
                s.count += 1;
                s.total_ns += d;
                s.min_ns = s.min_ns.min(d);
                s.max_ns = s.max_ns.max(d);
            }
        }
    }
    order
        .into_iter()
        .map(|n| map.remove(&n).expect("name collected"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Device;
    use crate::kernel::{Dim3, KernelCost, KernelDesc, LaunchConfig};

    fn kernel(blocks: u32, threads: u32, flops: f64) -> KernelDesc {
        KernelDesc::new(
            "k",
            LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), 16, 0),
            KernelCost::new(flops, flops / 8.0),
        )
    }

    #[test]
    fn idle_device_has_zero_stats() {
        let dev = Device::new(DeviceProps::p100());
        let s = dev.stats();
        assert_eq!(s.kernels_completed, 0);
        assert_eq!(s.elapsed_ns, 0);
        assert_eq!(s.parallel_efficiency(), 0.0);
    }

    #[test]
    fn occupancy_increases_with_concurrency() {
        let serial = {
            let mut dev = Device::new(DeviceProps::p100());
            let s = dev.create_stream();
            for _ in 0..4 {
                dev.launch(s, kernel(28, 512, 1.0e8));
            }
            dev.run();
            dev.stats()
        };
        let parallel = {
            let mut dev = Device::new(DeviceProps::p100());
            let streams: Vec<_> = (0..4).map(|_| dev.create_stream()).collect();
            for (i, &st) in streams.iter().enumerate() {
                let _ = i;
                dev.launch(st, kernel(28, 512, 1.0e8));
            }
            dev.run();
            dev.stats()
        };
        assert!(
            parallel.avg_occupancy > serial.avg_occupancy,
            "parallel {} vs serial {}",
            parallel.avg_occupancy,
            serial.avg_occupancy
        );
        assert!(parallel.parallel_efficiency() > serial.parallel_efficiency());
    }

    #[test]
    fn kernel_counts_match_trace() {
        let mut dev = Device::new(DeviceProps::k40c());
        let s = dev.create_stream();
        for _ in 0..3 {
            dev.launch(s, kernel(8, 128, 1.0e6));
        }
        dev.run();
        assert_eq!(dev.stats().kernels_completed, 3);
    }

    #[test]
    fn per_class_summary_aggregates_by_name() {
        let mut dev = Device::new(DeviceProps::p100());
        let s = dev.create_stream();
        for i in 0..4u32 {
            let mut k = kernel(8, 128, 1.0e6 * (i + 1) as f64);
            k.name = if i % 2 == 0 { "a".into() } else { "b".into() };
            dev.launch(s, k);
        }
        dev.run();
        let classes = stats_by_kernel(dev.trace());
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "a");
        assert_eq!(classes[0].count, 2);
        assert_eq!(classes[1].count, 2);
        assert!(classes[0].min_ns <= classes[0].max_ns);
        assert!(classes[0].total_ns >= 2 * classes[0].min_ns);
        assert!(classes[1].max_ns > classes[0].min_ns); // bigger flops -> longer
    }

    #[test]
    fn empty_trace_summary_is_empty() {
        assert!(stats_by_kernel(&[]).is_empty());
    }
}
