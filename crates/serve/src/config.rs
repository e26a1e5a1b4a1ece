//! Serving-engine configuration.

use crate::batcher::BatchPolicy;
use gpu_sim::DeviceProps;
use nn::DispatchMode;

/// What a [`ServingEngine`](crate::ServingEngine) is built from.
///
/// The engine reads `device`, `mode`, `model`, `seed` and
/// `policy.max_batch`. The load fields (`rate_rps`, `num_requests`,
/// `queue_capacity`) and `policy.max_delay_ns` describe the run an event
/// loop drives the engine with; this crate does not read them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated device to serve on.
    pub device: DeviceProps,
    /// Kernel dispatch mode (naive / fixed streams / GLP4NN).
    pub mode: DispatchMode,
    /// Model name resolved through [`nn::models::spec_by_name`].
    pub model: String,
    /// Mean request arrival rate (requests per simulated second).
    pub rate_rps: f64,
    /// Number of requests to generate.
    pub num_requests: usize,
    /// Dynamic batching policy.
    pub policy: BatchPolicy,
    /// Admission queue capacity (requests beyond it are shed).
    pub queue_capacity: usize,
    /// Seed for the arrival process and model parameters.
    pub seed: u64,
}
