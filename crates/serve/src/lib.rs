#![warn(missing_docs)]

//! An inference serving engine with dynamic batching on top of the GLP4NN
//! runtime.
//!
//! Training throughput is the paper's subject, but the same property that
//! makes GLP4NN attractive there — per-sample kernel groups dispatched
//! concurrently after a one-time profiling pass — matters at least as much
//! for online inference, where request batches are small, arrive at
//! unpredictable times, and vary in size from one dispatch to the next.
//! This crate holds the single-replica pieces; the event loop that drives
//! them over simulated time is the `fleet` crate's `FleetSim`, which serves
//! one replica as readily as many.
//!
//! - [`engine`]: the [`ServingEngine`]. Waves run through an
//!   inference-only [`nn::Net`] forward under any
//!   [`DispatchMode`](nn::DispatchMode); under GLP4NN each distinct batch
//!   size is profiled once (plans are keyed per layer x chunk count) and
//!   every later wave of that shape replays its cached concurrency plan.
//! - [`queue`]: the bounded, class-aware admission queue ([`ClassQueue`]):
//!   priority lanes, preemption of the lowest class when full, and
//!   deadline expiry. With one lane it is a FIFO that sheds when full.
//! - [`batcher`]: the dynamic batching policy — fire when `max_batch`
//!   requests are waiting *or* when the oldest request has waited
//!   `max_delay`, whichever comes first, and (when work-conserving) fire
//!   whatever is queued the instant a wave drains.
//! - [`arrivals`]: seeded Poisson request arrivals in **simulated time**
//!   (the gpu-sim clock), so every run is deterministic and two runs of
//!   the same configuration are byte-identical.
//!
//! ```no_run
//! use gpu_sim::DeviceProps;
//! use nn::DispatchMode;
//! use serve::{BatchPolicy, ServeConfig, ServingEngine};
//!
//! let mut engine = ServingEngine::new(&ServeConfig {
//!     device: DeviceProps::p100(),
//!     mode: DispatchMode::Glp4nn,
//!     model: "CIFAR10".into(),
//!     rate_rps: 2000.0,
//!     num_requests: 400,
//!     policy: BatchPolicy::new(8, 2_000_000),
//!     queue_capacity: 256,
//!     seed: 42,
//! })
//! .unwrap();
//! engine.warmup(8);
//! let wave = engine.run_wave(&[0, 1, 2], engine.now());
//! println!("wave of 3 took {} ns", wave.done_ns - wave.start_ns);
//! ```

pub mod arrivals;
pub mod batcher;
pub mod config;
pub mod engine;
pub mod queue;
pub mod request;

pub use arrivals::PoissonArrivals;
pub use batcher::{BatchDecision, BatchPolicy};
pub use config::ServeConfig;
pub use engine::{EngineOptions, ServingEngine, WaveTiming};
pub use queue::{Admission, ClassQueue, ClassedRequest};
pub use request::{fill_sample, Request};
