#![warn(missing_docs)]

//! A multi-replica serving fleet over the simulated GPU fabric.
//!
//! N [`serve::ServingEngine`] replicas placed across a
//! [`gpu_sim::FabricSpec`] of possibly heterogeneous devices, driven from
//! **one** simulated-clock event loop ([`FleetSim`]). It is the only
//! serving loop: a single-device serving run is a one-slot, one-class
//! fleet without a controller. The pieces:
//!
//! - [`router`]: pluggable request routing — round-robin,
//!   join-shortest-queue, and a capacity-weighted variant for
//!   heterogeneous fabrics. All load signals come from the live
//!   queue-depth gauges the fleet publishes into its
//!   [`telemetry::MetricsRegistry`], not from private simulator state.
//! - **Continuous batching**: arrivals are admitted into a replica's
//!   *next* wave rather than waiting for a full drain
//!   ([`serve::BatchPolicy::decide`] with `work_conserving` set, +
//!   [`serve::ServingEngine::run_wave`]); warm ExecPlan replay makes the
//!   per-wave dispatch cost a cache hit.
//! - **SLO-aware admission** ([`config::PriorityMix`]): per-tenant
//!   priority classes with deadlines; queues preempt lower classes
//!   first, expired requests are evicted rather than served, and a
//!   windowed-p99 brownout controller sheds best-effort lanes when a
//!   premium SLO is violated.
//! - **Autoscaling** ([`config::AutoscaleConfig`]): replica count
//!   follows mean queue depth with scale-up/down hysteresis; fresh
//!   spawns pay their warmup (plan capture) in simulated time.
//!
//! Determinism: arrivals, class draws, routing, batching, and device
//! timing all derive from seeds and the simulated clock, so two runs of
//! the same [`FleetConfig`] produce identical [`FleetReport`]s.

pub mod config;
pub mod replica;
pub mod report;
pub mod router;
pub mod sim;

pub use config::{
    fabric_hetero12, fabric_uniform8, AutoscaleConfig, ClassSpec, FleetConfig, FleetConfigError,
    LoadPhase, PriorityMix,
};
pub use replica::Replica;
pub use report::{ClassReport, FleetReport};
pub use router::{Router, RouterPolicy};
pub use sim::{replica_pid, FleetSim};
