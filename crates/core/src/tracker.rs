//! The resource tracker: kernel profiler + kernel parser (paper §3.1).
//!
//! One tracker instance is shared by every GPU on the machine (Fig. 5).
//! Internally it keeps one compact [`cupti_sim::Profiler`] per device; the
//! *kernel parser* half aggregates raw activity records into one
//! [`KernelProfile`] per kernel *class* (same name + launch configuration),
//! averaging execution times over instances — exactly the "profiling
//! input" column of the paper's Table 2.

use crate::analyzer::KernelProfile;
use cupti_sim::{ActivityRecord, Profiler};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The shared resource tracker.
///
/// Wrapped in a [`Mutex`] because the paper's architecture shares one
/// tracker across per-GPU runtime schedulers; dispatch itself stays
/// single-threaded (that is the point of the stream pool), so the lock is
/// uncontended in practice. A panic inside the lock does not poison it:
/// every call recovers the guard.
#[derive(Debug)]
pub struct ResourceTracker {
    inner: Mutex<TrackerInner>,
}

#[derive(Debug)]
struct TrackerInner {
    profilers: Vec<Profiler>,
}

impl ResourceTracker {
    /// Tracker for `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        ResourceTracker {
            inner: Mutex::new(TrackerInner {
                profilers: (0..num_gpus).map(|_| Profiler::new()).collect(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TrackerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of devices tracked.
    pub fn num_gpus(&self) -> usize {
        self.lock().profilers.len()
    }

    /// Enable profiling on one device (start of a profiling run).
    ///
    /// # Panics
    /// If `gpu >= self.num_gpus()`.
    pub fn enable(&self, gpu: usize) {
        self.lock().profilers[gpu].enable();
    }

    /// Disable profiling on one device.
    ///
    /// # Panics
    /// If `gpu >= self.num_gpus()`.
    pub fn disable(&self, gpu: usize) {
        self.lock().profilers[gpu].disable();
    }

    /// Ingest new kernel traces from device `gpu` (asynchronous activity
    /// delivery). Returns the number of kernels recorded.
    ///
    /// # Panics
    /// If `gpu >= self.num_gpus()`.
    pub fn ingest(&self, gpu: usize, trace: &[gpu_sim::KernelTrace]) -> usize {
        self.lock().profilers[gpu].ingest(trace)
    }

    /// Flush raw records and parse them into per-class kernel profiles —
    /// the *kernel parser* step. Records are grouped by kernel name;
    /// launch configuration is taken from the first record of a class and
    /// execution time is averaged over all its instances.
    ///
    /// # Panics
    /// If `gpu >= self.num_gpus()`.
    pub fn parse(&self, gpu: usize) -> Vec<KernelProfile> {
        let records = self.lock().profilers[gpu].flush();
        parse_records(&records)
    }

    /// Profiler overhead accounting for device `gpu` (Fig. 10 / Table 6).
    pub fn overhead(&self, gpu: usize) -> cupti_sim::ProfilerOverhead {
        self.lock().profilers[gpu].overhead()
    }
}

/// Group raw activity records into kernel-class profiles.
fn parse_records(records: &[ActivityRecord]) -> Vec<KernelProfile> {
    // Preserve first-seen order for determinism.
    let mut order: Vec<String> = Vec::new();
    let mut acc: HashMap<String, (ActivityRecord, u64, u64)> = HashMap::new();
    for r in records {
        match acc.get_mut(&r.name) {
            None => {
                order.push(r.name.clone());
                acc.insert(r.name.clone(), (r.clone(), r.duration_ns(), 1));
            }
            Some((_, total, n)) => {
                *total += r.duration_ns();
                *n += 1;
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let (rec, total, n) = acc.remove(&name).expect("name in order map");
            KernelProfile {
                name,
                grid_blocks: (rec.grid.0 as u64) * (rec.grid.1 as u64) * (rec.grid.2 as u64),
                threads_per_block: rec.block.0 * rec.block.1 * rec.block.2,
                regs_per_thread: rec.regs_per_thread,
                smem_per_block: rec.smem_static + rec.smem_dynamic,
                avg_duration_ns: total / n,
                instances: n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceProps, Dim3, KernelCost, KernelDesc, LaunchConfig};

    fn run_layer(dev: &mut Device, reps: u32) {
        let s = dev.create_stream();
        for i in 0..reps {
            dev.launch(
                s,
                KernelDesc::new(
                    "im2col",
                    LaunchConfig::new(Dim3::linear(18), Dim3::linear(256), 33, 0),
                    KernelCost::new(1.0e5, 5.0e4),
                )
                .with_tag(i as u64),
            );
            dev.launch(
                s,
                KernelDesc::new(
                    "sgemm",
                    LaunchConfig::new(Dim3::linear(24), Dim3::linear(128), 60, 8192),
                    KernelCost::new(2.0e6, 1.0e5),
                )
                .with_tag(i as u64),
            );
        }
        dev.run();
    }

    #[test]
    fn parses_kernel_classes() {
        let mut dev = Device::new(DeviceProps::k40c());
        let tr = ResourceTracker::new(1);
        tr.enable(0);
        run_layer(&mut dev, 4);
        assert_eq!(tr.ingest(0, dev.trace()), 8);
        let profiles = tr.parse(0);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].name, "im2col");
        assert_eq!(profiles[0].instances, 4);
        assert_eq!(profiles[0].grid_blocks, 18);
        assert_eq!(profiles[0].threads_per_block, 256);
        assert_eq!(profiles[0].regs_per_thread, 33);
        assert_eq!(profiles[1].name, "sgemm");
        assert_eq!(profiles[1].smem_per_block, 8192);
        assert!(profiles[1].avg_duration_ns > profiles[0].avg_duration_ns);
    }

    #[test]
    fn disabled_tracker_collects_nothing() {
        let mut dev = Device::new(DeviceProps::k40c());
        let tr = ResourceTracker::new(1);
        run_layer(&mut dev, 2);
        assert_eq!(tr.ingest(0, dev.trace()), 0);
        assert!(tr.parse(0).is_empty());
    }

    #[test]
    fn tracker_is_per_gpu() {
        let tr = ResourceTracker::new(2);
        assert_eq!(tr.num_gpus(), 2);
        let mut d0 = Device::new(DeviceProps::k40c());
        let mut d1 = Device::new(DeviceProps::p100());
        tr.enable(0);
        tr.enable(1);
        run_layer(&mut d0, 1);
        run_layer(&mut d1, 3);
        tr.ingest(0, d0.trace());
        tr.ingest(1, d1.trace());
        assert_eq!(tr.parse(0)[0].instances, 1);
        assert_eq!(tr.parse(1)[0].instances, 3);
    }

    #[test]
    fn overhead_reflects_ingested_kernels() {
        let mut dev = Device::new(DeviceProps::p100());
        let tr = ResourceTracker::new(1);
        tr.enable(0);
        run_layer(&mut dev, 5);
        tr.ingest(0, dev.trace());
        let o = tr.overhead(0);
        assert_eq!(o.kernels_recorded, 10);
        assert_eq!(o.mem_tt_bytes, 160);
    }

    #[test]
    fn parse_records_averages_durations() {
        use cupti_sim::{ActivityKind, ActivityRecord};
        let base = ActivityRecord {
            kind: ActivityKind::Kernel,
            name: "k".into(),
            tag: 0,
            stream: 0,
            grid: (2, 1, 1),
            block: (64, 1, 1),
            regs_per_thread: 8,
            smem_static: 0,
            smem_dynamic: 0,
            start_ns: 0,
            end_ns: 100,
        };
        let mut r2 = base.clone();
        r2.start_ns = 0;
        r2.end_ns = 300;
        let profiles = parse_records(&[base, r2]);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].avg_duration_ns, 200);
    }
}
