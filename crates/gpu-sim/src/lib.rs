#![warn(missing_docs)]

//! A block-granularity discrete-event simulator of an NVIDIA-style GPU.
//!
//! This crate is the hardware substitute for the physical GPUs (Tesla K40C,
//! Tesla P100, Titan XP) the GLP4NN paper evaluates on. It models exactly
//! the mechanisms GLP4NN exploits:
//!
//! - **Streams** ([`stream`]): in-order command FIFOs. Kernels in one stream
//!   serialize; kernels in different streams may execute concurrently.
//! - **Concurrent kernel execution** up to the device's hardware concurrency
//!   degree `C` (Table 1 of the paper: 32 on Kepler, 128 on Pascal).
//! - **SM-level resource occupancy** ([`sm`], [`occupancy`]): thread blocks
//!   are placed onto streaming multiprocessors subject to per-SM limits on
//!   threads, resident blocks, shared memory and registers — the constraints
//!   of the paper's analytical model (Eqs. 4-7).
//! - **Kernel launch overhead**: a single host dispatcher thread issues
//!   launches serially, each costing `T_launch`; a kernel cannot start
//!   before its launch is issued. This is what makes the paper's
//!   `⌈T_K / T_launch⌉` cap (Eq. 7) meaningful.
//! - **DRAM bandwidth contention** ([`contention`]): block durations stretch
//!   when the aggregate bandwidth demand of co-resident blocks exceeds the
//!   device's memory bandwidth, so over-subscription stops paying off.
//! - **Timelines** ([`timeline`]): per-kernel launch/start/end traces that
//!   reproduce the paper's Fig. 3, and utilization statistics ([`stats`]).
//!
//! Simulated time is in nanoseconds. The simulator is deterministic: the
//! same command sequence always yields the same timeline.
//!
//! # Quick example
//!
//! ```
//! use gpu_sim::{Device, DeviceProps, KernelDesc, LaunchConfig, KernelCost, Dim3};
//!
//! let mut dev = Device::new(DeviceProps::p100());
//! let s = dev.create_stream();
//! let k = KernelDesc::new(
//!     "sgemm",
//!     LaunchConfig::new(Dim3::linear(64), Dim3::linear(128), 32, 4096),
//!     KernelCost::new(2.0e6, 1.5e5),
//! );
//! dev.launch(s, k);
//! let end = dev.run();
//! assert!(end > 0);
//! assert_eq!(dev.trace().len(), 1);
//! ```

mod arena;
pub mod contention;
pub mod device;
pub mod engine;
pub mod fabric;
pub mod kernel;
pub mod occupancy;
mod queue;
pub mod sm;
pub mod stats;
pub mod stream;
pub mod timeline;

pub use device::{Arch, ArchFeatures, DeviceProps};
pub use engine::{Device, Recording};
pub use fabric::{CopyDesc, Fabric, FabricError, FabricSpec, LinkProps};
pub use kernel::{
    AccessConflict, AccessSet, BufferId, ByteRange, Dim3, KernelCost, KernelDesc, KernelId,
    KernelName, LaunchConfig, MemAccess,
};
pub use occupancy::OccupancyResult;
pub use stats::{stats_by_kernel, DeviceStats, KernelClassStats};
pub use stream::{CmdRecord, CopyId, EventId, StreamId};
pub use timeline::{KernelTrace, Timeline};

/// Simulated time in nanoseconds.
pub type SimTime = u64;
