#![warn(missing_docs)]

//! # GLP4NN — the paper's core framework
//!
//! A *convergence-invariant* and *network-agnostic* light-weight
//! parallelization framework for deep neural networks on (simulated) GPUs,
//! reproducing Fu, Tang, He, Yu & Sun, ICPP 2018.
//!
//! The framework accelerates DNN training by launching the **independent
//! per-sample kernels of a layer concurrently** on multiple CUDA streams,
//! instead of Caffe's serial launches on the default stream. Its four
//! modules map one-to-one onto the paper's Fig. 5:
//!
//! - [`tracker::ResourceTracker`] — *resource tracker*: a compact
//!   asynchronous kernel profiler ([`cupti_sim`]) plus a *kernel parser*
//!   that aggregates raw activity records into per-kernel-class profiles.
//!   Shared by all GPUs on the machine.
//! - [`analyzer::KernelAnalyzer`] — *kernel analyzer*: the *concurrency
//!   analyzer* builds the paper's analytical model (Eqs. 1-9) as a small
//!   integer program solved with [`milp`] (the GLPK substitute), and the
//!   *concurrency maintainer* caches one [`analyzer::ConcurrencyPlan`] per
//!   layer per GPU. Private to each GPU.
//! - [`streams::StreamManager`] — *stream manager*: a pool of pre-created
//!   concurrent streams per device plus the default stream used for
//!   synchronization; no extra host threads or processes are spawned.
//!   Shared by all GPUs.
//! - [`scheduler::RuntimeScheduler`] (driven through [`Glp4nn`]) — *runtime
//!   scheduler*: implements the Fig. 6 workflow — on first sight of a layer
//!   it profiles the kernels on the default stream, feeds the tracker's
//!   output to the analyzer, sizes the stream pool with the model's
//!   `C_out`, and on every later iteration dispatches kernel groups
//!   round-robin over the pool.
//!
//! ## Why this is convergence-invariant
//!
//! The framework only re-schedules kernel *launches*. Kernels within one
//! dependence group (e.g. one sample's `im2col → sgemm → bias`) stay on a
//! single stream, so their ordering is preserved; groups are mutually
//! independent by construction (they process different samples of a batch,
//! the loop at line 2 of the paper's Algorithms 1-2). No parameter, no
//! arithmetic, and no dependence is altered — see §3.3.1 of the paper, and
//! the end-to-end bitwise-identity tests in this repository.
//!
//! ## Example
//!
//! ```
//! use glp4nn::{ExecMode, Glp4nn, LayerKey, Schedule};
//! use gpu_sim::{Device, DeviceProps, KernelDesc, LaunchConfig, KernelCost, Dim3};
//!
//! let mut dev = Device::new(DeviceProps::p100());
//! let mut glp = Glp4nn::new(1);
//! glp.register_device(0, dev.props());
//!
//! let key = LayerKey::forward("demo-net", "conv1");
//! let group = |i: u64| vec![
//!     KernelDesc::new("im2col",
//!         LaunchConfig::new(Dim3::linear(18), Dim3::linear(256), 33, 0),
//!         KernelCost::new(2.0e5, 1.0e5)).with_tag(i),
//!     KernelDesc::new("sgemm",
//!         LaunchConfig::new(Dim3::linear(24), Dim3::linear(128), 60, 8192),
//!         KernelCost::new(4.0e6, 2.0e5)).with_tag(i),
//! ];
//! let groups: Vec<_> = (0..16).map(group).collect();
//!
//! // Iteration 1: profiling run on the default stream.
//! let r1 = glp.execute(&mut dev, 0, &key, Schedule::groups(groups.clone()), None)?;
//! assert_eq!(r1.mode, ExecMode::Profiling);
//!
//! // Iteration 2+: concurrent dispatch over the model-sized stream pool.
//! let r2 = glp.execute(&mut dev, 0, &key, Schedule::groups(groups), None)?;
//! match r2.mode {
//!     ExecMode::Concurrent { streams } => assert!(streams >= 2),
//!     m => panic!("expected concurrent, got {m:?}"),
//! }
//! assert!(r2.elapsed_ns < r1.elapsed_ns);
//! # Ok::<(), glp4nn::Glp4nnError>(())
//! ```

pub mod analyzer;
pub mod cost;
pub mod framework;
pub mod optim;
pub mod plan;
pub mod scheduler;
pub mod streams;
pub mod tracker;

pub use analyzer::{ConcurrencyPlan, KernelAnalyzer, KernelProfile};
pub use cost::CostBook;
pub use framework::{ExecMode, ExecReport, Glp4nn, Glp4nnError, LayerKey, Phase};
pub use optim::OptimConfig;
pub use plan::{ExecPlan, PlanCache, PlanStep};
pub use scheduler::Schedule;
pub use streams::{StreamError, StreamManager};
pub use tracker::ResourceTracker;
