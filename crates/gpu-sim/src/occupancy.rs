//! CUDA-style occupancy calculator.
//!
//! Computes how many blocks of a given launch configuration can be resident
//! on one SM simultaneously, which limiter binds, and the resulting
//! occupancy ratio `OR_SM = ω_active / ω_max` (Eqs. 1-2 of the paper).
//! GLP4NN's kernel analyzer uses these numbers to populate the constraints
//! of its integer program.

use crate::device::DeviceProps;
use crate::kernel::LaunchConfig;

/// Which per-SM resource limits residency for a launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Resident-thread limit (`τ_max`).
    Threads,
    /// Resident-block limit (`β_max`).
    Blocks,
    /// Shared-memory capacity (`sm_max`).
    SharedMemory,
    /// Register file capacity.
    Registers,
    /// The grid itself has fewer blocks than any limit allows.
    GridSize,
}

/// Result of an occupancy query for one launch configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyResult {
    /// Max blocks of this configuration resident on one SM.
    pub blocks_per_sm: u32,
    /// Active warps per SM at that residency.
    pub active_warps: u32,
    /// `OR_SM` ∈ [0, 1].
    pub occupancy: f64,
    /// The binding resource.
    pub limiter: Limiter,
}

/// Registers are allocated in fixed-size granules on real hardware; use a
/// 256-register warp granularity (Kepler+).
fn reg_alloc_per_block(dev: &DeviceProps, cfg: &LaunchConfig) -> u32 {
    let warps = cfg.threads_per_block().div_ceil(dev.warp_size);
    let per_warp = cfg.regs_per_thread * dev.warp_size;
    let granule = 256;
    warps * per_warp.div_ceil(granule) * granule
}

/// Compute residency of a single launch configuration on one SM of `dev`.
pub fn occupancy(dev: &DeviceProps, cfg: &LaunchConfig) -> OccupancyResult {
    let threads = cfg.threads_per_block().max(1);

    let by_threads = dev.max_threads_per_sm / threads;
    let by_blocks = dev.max_blocks_per_sm;
    let by_smem = if cfg.smem_per_block() > 0 {
        dev.smem_per_sm / cfg.smem_per_block()
    } else {
        u32::MAX
    };
    let regs = reg_alloc_per_block(dev, cfg);
    let by_regs = dev.regs_per_sm.checked_div(regs).unwrap_or(u32::MAX);

    let mut blocks = by_threads.min(by_blocks).min(by_smem).min(by_regs);
    let mut limiter = if blocks == by_threads {
        Limiter::Threads
    } else if blocks == by_blocks {
        Limiter::Blocks
    } else if blocks == by_smem {
        Limiter::SharedMemory
    } else {
        Limiter::Registers
    };

    // A small grid may not even fill one SM's residency.
    let grid_blocks = cfg.num_blocks();
    let per_sm_from_grid = grid_blocks.div_ceil(dev.num_sms as u64) as u32;
    if per_sm_from_grid < blocks {
        blocks = per_sm_from_grid;
        limiter = Limiter::GridSize;
    }

    let warps_per_block = threads.div_ceil(dev.warp_size);
    let active_warps = blocks * warps_per_block;
    let occupancy = active_warps as f64 / dev.max_warps_per_sm() as f64;
    OccupancyResult {
        blocks_per_sm: blocks,
        active_warps,
        occupancy: occupancy.min(1.0),
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Dim3, LaunchConfig};

    fn cfg(blocks: u32, threads: u32, regs: u32, smem: u32) -> LaunchConfig {
        LaunchConfig::new(Dim3::linear(blocks), Dim3::linear(threads), regs, smem)
    }

    #[test]
    fn thread_limited() {
        let dev = DeviceProps::p100();
        // 1024-thread blocks: 2048/1024 = 2 resident.
        let r = occupancy(&dev, &cfg(10_000, 1024, 8, 0));
        assert_eq!(r.blocks_per_sm, 2);
        assert_eq!(r.limiter, Limiter::Threads);
        assert!((r.occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn block_limited() {
        let dev = DeviceProps::p100(); // max 32 blocks/SM
        let r = occupancy(&dev, &cfg(100_000, 32, 8, 0));
        assert_eq!(r.blocks_per_sm, 32);
        assert_eq!(r.limiter, Limiter::Blocks);
        // 32 blocks * 1 warp = 32 of 64 warps.
        assert!((r.occupancy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn smem_limited() {
        let dev = DeviceProps::p100(); // 64 KiB smem
        let r = occupancy(&dev, &cfg(10_000, 128, 8, 16 * 1024));
        assert_eq!(r.blocks_per_sm, 4);
        assert_eq!(r.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn register_limited() {
        let dev = DeviceProps::p100(); // 64K regs
                                       // 256 threads * 64 regs = 16384 regs/block -> 4 blocks.
        let r = occupancy(&dev, &cfg(10_000, 256, 64, 0));
        assert_eq!(r.blocks_per_sm, 4);
        assert_eq!(r.limiter, Limiter::Registers);
    }

    #[test]
    fn grid_limited_small_kernel() {
        let dev = DeviceProps::p100(); // 56 SMs
                                       // 18-block grid (the paper's im2col example on K40C has grid [18,1,1]):
                                       // fewer blocks than SMs -> at most 1 per SM, grid-limited.
        let r = occupancy(&dev, &cfg(18, 128, 16, 0));
        assert_eq!(r.blocks_per_sm, 1);
        assert_eq!(r.limiter, Limiter::GridSize);
        assert!(r.occupancy < 0.1);
    }

    #[test]
    fn occupancy_never_exceeds_one() {
        let dev = DeviceProps::k40c();
        for threads in [32u32, 64, 128, 256, 512, 1024] {
            let r = occupancy(&dev, &cfg(1_000_000, threads, 8, 0));
            assert!(r.occupancy <= 1.0 + 1e-12);
            assert!(r.active_warps <= dev.max_warps_per_sm());
        }
    }

    #[test]
    fn register_allocation_granularity() {
        let dev = DeviceProps::p100();
        // 33 regs/thread (the paper's im2col example) on a 256-thread block:
        // 8 warps * ceil(33*32/256)*256 = 8 * 1280 = 10240 regs.
        let c = cfg(1000, 256, 33, 0);
        assert_eq!(reg_alloc_per_block(&dev, &c), 10240);
    }
}
