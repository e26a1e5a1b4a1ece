//! Serve CIFAR10 inference with dynamic batching over the GLP4NN runtime.
//!
//! ```text
//! cargo run --release -p glp4nn-bench --example serving
//! ```
//!
//! Requests arrive as a seeded Poisson process in simulated time; the
//! batcher fires on a size-8 or 2 ms-delay trigger; each batch runs an
//! inference-only forward pass. The run is a one-replica fleet, the same
//! configuration `reproduce serving` uses. Comparing naive dispatch against
//! GLP4NN shows the cached per-batch-shape concurrency plans paying off in
//! both throughput and tail latency.

use fleet::FleetSim;
use glp4nn_bench::serving::serving_config;
use gpu_sim::DeviceProps;
use nn::DispatchMode;

fn main() {
    println!("serving CIFAR10 on Tesla P100, 6000 req/s, batch <= 8 or 2 ms");
    println!(
        "{:<8} {:>11} {:>9} {:>9} {:>9} {:>7}",
        "mode", "tput(r/s)", "p50(ms)", "p95(ms)", "p99(ms)", "batch"
    );
    for (name, mode) in [
        ("naive", DispatchMode::Naive),
        ("glp4nn", DispatchMode::Glp4nn),
    ] {
        let cfg = serving_config(DeviceProps::p100(), mode, 6000.0, false);
        let r = FleetSim::new(cfg).unwrap().run();
        println!(
            "{:<8} {:>11.1} {:>9.3} {:>9.3} {:>9.3} {:>7.2}",
            name,
            r.throughput_rps,
            r.p50_ns as f64 / 1e6,
            r.p95_ns as f64 / 1e6,
            r.p99_ns as f64 / 1e6,
            r.mean_wave
        );
    }
}
