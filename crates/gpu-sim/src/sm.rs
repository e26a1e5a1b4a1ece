//! Per-SM resource accounting and block placement.

use crate::device::DeviceProps;
use crate::kernel::LaunchConfig;

/// Resources consumed by one resident block; returned to the SM when the
/// block retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFootprint {
    /// Threads occupied.
    pub threads: u32,
    /// Shared-memory bytes occupied.
    pub smem: u32,
    /// Registers occupied (allocation-granule rounded).
    pub regs: u32,
}

impl BlockFootprint {
    /// Footprint of one block of `cfg` on `dev`.
    pub fn of(dev: &DeviceProps, cfg: &LaunchConfig) -> Self {
        let warps = cfg.threads_per_block().div_ceil(dev.warp_size);
        let per_warp = cfg.regs_per_thread * dev.warp_size;
        let granule = 256;
        BlockFootprint {
            threads: cfg.threads_per_block(),
            smem: cfg.smem_per_block(),
            regs: warps * per_warp.div_ceil(granule) * granule,
        }
    }
}

/// Mutable residency state of one streaming multiprocessor.
#[derive(Debug, Clone)]
pub struct SmState {
    /// Threads currently resident.
    pub threads_used: u32,
    /// Blocks currently resident.
    pub blocks_used: u32,
    /// Shared-memory bytes currently allocated.
    pub smem_used: u32,
    /// Registers currently allocated.
    pub regs_used: u32,
    /// Accumulated busy integral: Σ (resident warps × dt), for utilization
    /// statistics.
    pub warp_time_integral: u128,
    /// Last time residency changed (for the integral).
    pub last_change: u64,
}

impl SmState {
    /// An empty SM at time 0.
    pub fn new() -> Self {
        SmState {
            threads_used: 0,
            blocks_used: 0,
            smem_used: 0,
            regs_used: 0,
            warp_time_integral: 0,
            last_change: 0,
        }
    }

    /// Whether a block with `fp` fits under the device limits right now.
    pub fn fits(&self, dev: &DeviceProps, fp: &BlockFootprint) -> bool {
        self.threads_used + fp.threads <= dev.max_threads_per_sm
            && self.blocks_used < dev.max_blocks_per_sm
            && self.smem_used + fp.smem <= dev.smem_per_sm
            && self.regs_used + fp.regs <= dev.regs_per_sm
    }

    /// Account the warp-time integral up to `now`, then place (`place`)
    /// or retire one block with footprint `fp`.
    pub fn update(&mut self, dev: &DeviceProps, now: u64, fp: &BlockFootprint, place: bool) {
        if place {
            self.accrue(dev, now);
            self.threads_used += fp.threads;
            self.blocks_used += 1;
            self.smem_used += fp.smem;
            self.regs_used += fp.regs;
        } else {
            self.release(dev, now, fp, 1);
        }
    }

    /// Account the warp-time integral up to `now`, then retire `n` blocks
    /// with footprint `fp` at once — what `n` single-block retirements at
    /// the same `now` amount to, since only the first accrues any time.
    pub fn release(&mut self, dev: &DeviceProps, now: u64, fp: &BlockFootprint, n: u32) {
        self.accrue(dev, now);
        self.threads_used -= n * fp.threads;
        self.blocks_used -= n;
        self.smem_used -= n * fp.smem;
        self.regs_used -= n * fp.regs;
    }

    fn accrue(&mut self, dev: &DeviceProps, now: u64) {
        let warps_resident = self.threads_used.div_ceil(dev.warp_size) as u128;
        self.warp_time_integral += warps_resident * (now - self.last_change) as u128;
        self.last_change = now;
    }
}

impl Default for SmState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Dim3, LaunchConfig};

    fn cfg(threads: u32, regs: u32, smem: u32) -> LaunchConfig {
        LaunchConfig::new(Dim3::linear(100), Dim3::linear(threads), regs, smem)
    }

    #[test]
    fn footprint_computation() {
        let dev = DeviceProps::p100();
        let fp = BlockFootprint::of(&dev, &cfg(256, 33, 2048));
        assert_eq!(fp.threads, 256);
        assert_eq!(fp.smem, 2048);
        assert_eq!(fp.regs, 10240); // 8 warps * 1280 (granule-rounded 33*32)
    }

    #[test]
    fn placement_and_removal_restore_state() {
        let dev = DeviceProps::p100();
        let fp = BlockFootprint::of(&dev, &cfg(512, 32, 8192));
        let mut sm = SmState::new();
        assert!(sm.fits(&dev, &fp));
        sm.update(&dev, 100, &fp, true);
        assert_eq!(sm.threads_used, 512);
        assert_eq!(sm.blocks_used, 1);
        sm.update(&dev, 200, &fp, false);
        assert_eq!(sm.threads_used, 0);
        assert_eq!(sm.blocks_used, 0);
        assert_eq!(sm.smem_used, 0);
        assert_eq!(sm.regs_used, 0);
    }

    #[test]
    fn fits_rejects_over_subscription() {
        let dev = DeviceProps::p100(); // 2048 threads/SM
        let fp = BlockFootprint::of(&dev, &cfg(1024, 8, 0));
        let mut sm = SmState::new();
        sm.update(&dev, 0, &fp, true);
        sm.update(&dev, 0, &fp, true);
        assert_eq!(sm.threads_used, 2048);
        assert!(!sm.fits(&dev, &fp)); // third 1024-thread block won't fit
    }

    #[test]
    fn warp_time_integral_accumulates() {
        let dev = DeviceProps::p100();
        let fp = BlockFootprint::of(&dev, &cfg(64, 8, 0)); // 2 warps
        let mut sm = SmState::new();
        sm.update(&dev, 0, &fp, true); // integral += 0
        sm.update(&dev, 1000, &fp, false); // integral += 2 warps * 1000
        assert_eq!(sm.warp_time_integral, 2000);
    }

    #[test]
    fn batched_release_equals_single_block_retirements() {
        let dev = DeviceProps::p100();
        let fp = BlockFootprint::of(&dev, &cfg(32, 16, 1024)); // 32 fit per SM
        let fields = |sm: &SmState| {
            (
                sm.threads_used,
                sm.blocks_used,
                sm.smem_used,
                sm.regs_used,
                sm.warp_time_integral,
                sm.last_change,
            )
        };
        for n in [1u32, 2, 32] {
            let mut one_by_one = SmState::new();
            for i in 0..32 {
                one_by_one.update(&dev, 10 * i, &fp, true);
            }
            let mut batched = one_by_one.clone();
            for _ in 0..n {
                one_by_one.update(&dev, 5_000, &fp, false);
            }
            batched.release(&dev, 5_000, &fp, n);
            assert_eq!(fields(&batched), fields(&one_by_one), "n = {n}");
            assert!(batched.warp_time_integral > 0);
        }
    }

    #[test]
    fn smem_and_register_limits_enforced() {
        let dev = DeviceProps::k40c(); // 48 KiB smem
        let fp = BlockFootprint::of(&dev, &cfg(64, 8, 40 * 1024));
        let mut sm = SmState::new();
        assert!(sm.fits(&dev, &fp));
        sm.update(&dev, 0, &fp, true);
        assert!(!sm.fits(&dev, &fp)); // second 40 KiB block exceeds 48 KiB
    }
}
