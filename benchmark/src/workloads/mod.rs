//! The five workloads. Each file holds the workload's inputs, its
//! end-to-end cells, and its traced (hand-driven) pipeline.

pub mod cold_capture;
pub mod fleet_serve;
pub mod multi_gpu;
pub mod train_math;
pub mod train_steady;

use crate::harness::Workload;
use gpu_sim::DeviceProps;
use nn::{DispatchMode, ExecCtx, Net, NetSpec};

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "train-steady" => Box::new(train_steady::TrainSteady),
        "cold-capture" => Box::new(cold_capture::ColdCapture),
        "train-math" => Box::new(train_math::TrainMath),
        "fleet-serve" => Box::new(fleet_serve::FleetServe),
        "multi-gpu" => Box::new(multi_gpu::MultiGpu),
        _ => return None,
    })
}

/// The dispatch modes the training workloads sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Everything on the default stream.
    Naive,
    /// Round-robin over a fixed pool.
    Fixed(u32),
    /// Profile, solve, then dispatch over the model-sized pool.
    Glp4nn,
}

impl Mode {
    /// A fresh context in this mode.
    pub fn ctx(self, props: DeviceProps) -> ExecCtx {
        match self {
            Mode::Naive => ExecCtx::naive(props),
            Mode::Fixed(n) => ExecCtx::with_mode(props, DispatchMode::FixedStreams(n)),
            Mode::Glp4nn => ExecCtx::glp4nn(props),
        }
    }

    /// Iterations until every dispatch site replays a cached plan: the
    /// self-dispatched modes capture on first sight; GLP4NN profiles on
    /// the first and captures on the second.
    pub fn warm_iterations(self) -> usize {
        match self {
            Mode::Glp4nn => 2,
            _ => 1,
        }
    }
}

/// Spec of a named evaluation net, or the synthetic FanOut.
pub fn net_spec(name: &str, batch: usize, seed: u64) -> NetSpec {
    if name == "FanOut" {
        nn::models::fanout(batch, seed)
    } else {
        nn::models::spec_by_name(name, batch, seed).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// One training iteration (forward + backward); returns the simulated ns
/// it advanced the device clock by.
pub fn iteration(ctx: &mut ExecCtx, net: &mut Net) -> u64 {
    let t0 = ctx.device.now();
    ctx.take_timings();
    net.forward(ctx);
    net.backward(ctx);
    ctx.device.now() - t0
}
