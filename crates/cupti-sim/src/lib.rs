#![warn(missing_docs)]

//! A CUPTI-like asynchronous activity-profiling API over the simulated GPU.
//!
//! The GLP4NN paper's *resource tracker* is "a compact asynchronous resource
//! tracker ... based on NVIDIA CUPTI library ... for collecting runtime
//! configurations of kernels with low memory and time overheads" (§3.1).
//! This crate reproduces the CUPTI activity API surface that tracker needs:
//!
//! - [`activity::ActivityRecord`] — the per-kernel record CUPTI delivers
//!   (name, grid/block dims, registers per thread, static+dynamic shared
//!   memory, stream id and start/end timestamps).
//! - [`buffer`] — records are serialized into fixed-size binary buffers
//!   (`Vec<u8>`) handed over via a requested/completed double-buffer
//!   protocol, exactly like `cuptiActivityRegisterCallbacks`.
//! - [`subscriber::Profiler`] — enable/disable, ingest kernel traces from a
//!   [`gpu_sim::Device`], flush completed buffers, and parse records back.
//!   It holds no telemetry recorder: the device's is the one place a
//!   recorder attaches, and the caller that drives a profiling window
//!   records the ingest instants and `cupti.*` counters there.
//! - [`overhead`] — the memory (`mem_tt`, `mem_K`, `mem_cupti`, Eqs. 10-11)
//!   and profiling-time (`T_p`, Eq. 12) accounting that the paper reports
//!   in Fig. 10 and Table 6.
//!
//! ```
//! use cupti_sim::Profiler;
//! use gpu_sim::{Device, DeviceProps, KernelDesc, LaunchConfig, KernelCost, Dim3};
//!
//! let mut dev = Device::new(DeviceProps::k40c());
//! let mut prof = Profiler::new();
//! prof.enable();
//! let s = dev.create_stream();
//! dev.launch(s, KernelDesc::new(
//!     "im2col",
//!     LaunchConfig::new(Dim3::linear(18), Dim3::linear(256), 33, 0),
//!     KernelCost::new(1.0e5, 4.0e4),
//! ));
//! dev.run();
//! prof.ingest(dev.trace());
//! let records = prof.flush();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].name, "im2col");
//! assert_eq!(records[0].regs_per_thread, 33);
//! ```

pub mod activity;
pub mod buffer;
pub mod overhead;
pub mod subscriber;

pub use activity::{ActivityKind, ActivityRecord, DecodeError};
pub use buffer::{ActivityBuffer, BufferPool, DEFAULT_BUFFER_BYTES, DEFAULT_POOL_BUFFERS};
pub use overhead::ProfilerOverhead;
pub use subscriber::Profiler;
