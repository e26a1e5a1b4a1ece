//! Property test: telemetry is **observation-only**.
//!
//! Attaching a recorder must never perturb the simulation — no extra
//! streams or events, no clock movement, no numeric change. For random
//! (net, dispatch mode, device, batch, seed) combinations, a training
//! run with telemetry attached produces a kernel timeline **identical**
//! to the telemetry-off run and **bitwise-identical** trained weights —
//! while still actually recording (one kernel span per trace entry).

use gpu_sim::{DeviceProps, KernelTrace};
use nn::data::SyntheticDataset;
use nn::models;
use nn::{DispatchMode, ExecCtx, Net, Solver, SolverConfig};
use proptest::prelude::*;
use tensor::Blob;

fn device(sel: usize) -> DeviceProps {
    match sel % 3 {
        0 => DeviceProps::k40c(),
        1 => DeviceProps::p100(),
        _ => DeviceProps::titan_xp(),
    }
}

fn mode(sel: usize) -> DispatchMode {
    match sel % 3 {
        0 => DispatchMode::Naive,
        1 => DispatchMode::FixedStreams(4),
        _ => DispatchMode::Glp4nn,
    }
}

fn ctx_for(mode_sel: usize, dev_sel: usize) -> ExecCtx {
    ExecCtx::with_mode(device(dev_sel), mode(mode_sel))
}

/// Train `iters` solver steps of one of the two cheap compute-on nets;
/// returns the kernel timeline, the bitwise weights, and how many spans
/// the recorder (if any) captured.
fn train(
    siamese: bool,
    mode_sel: usize,
    dev_sel: usize,
    iters: usize,
    batch: usize,
    seed: u64,
    with_telemetry: bool,
) -> (Vec<KernelTrace>, Vec<u32>, usize) {
    let mut ctx = ctx_for(mode_sel, dev_sel);
    let rec = with_telemetry.then(|| telemetry::shared(telemetry::Telemetry::new()));
    if let Some(rec) = &rec {
        ctx.set_telemetry(rec.clone(), 0);
    }
    let spec = if siamese {
        models::siamese(batch, seed)
    } else {
        models::cifar10_quick(batch, seed)
    };
    let mut solver = Solver::new(Net::from_spec(&spec), SolverConfig::default());
    let ds = if siamese {
        SyntheticDataset::mnist_like(seed)
    } else {
        SyntheticDataset::cifar_like(seed)
    };
    for it in 0..iters {
        if siamese {
            let mut a = std::mem::replace(solver.net.blob_mut("data"), Blob::empty());
            let mut b = std::mem::replace(solver.net.blob_mut("data_p"), Blob::empty());
            let mut s = std::mem::replace(solver.net.blob_mut("sim"), Blob::empty());
            ds.fill_pair_batch(it * batch, &mut a, &mut b, &mut s);
            *solver.net.blob_mut("data") = a;
            *solver.net.blob_mut("data_p") = b;
            *solver.net.blob_mut("sim") = s;
        } else {
            let mut data = std::mem::replace(solver.net.blob_mut("data"), Blob::empty());
            let mut label = std::mem::replace(solver.net.blob_mut("label"), Blob::empty());
            ds.fill_batch(it * batch, &mut data, &mut label);
            *solver.net.blob_mut("data") = data;
            *solver.net.blob_mut("label") = label;
        }
        solver.step(&mut ctx);
    }
    ctx.clear_telemetry();
    let spans = rec.map_or(0, |rec| {
        rec.lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .spans()
            .iter()
            .filter(|s| s.cat == "kernel")
            .count()
    });
    let weights: Vec<u32> = solver
        .net
        .params_mut()
        .iter()
        .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
        .collect();
    (ctx.device.trace().to_vec(), weights, spans)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Telemetry on vs off: identical simulated timelines, bitwise
    /// identical trained weights, and the on-run really recorded.
    #[test]
    fn recording_never_perturbs_the_simulation(
        siamese in any::<bool>(),
        mode_sel in 0usize..3,
        dev_sel in 0usize..3,
        iters in 1usize..=2,
        batch in 2usize..=4,
        seed in 0u64..1_000,
    ) {
        let (tl_off, w_off, _) =
            train(siamese, mode_sel, dev_sel, iters, batch, seed, false);
        let (tl_on, w_on, spans) =
            train(siamese, mode_sel, dev_sel, iters, batch, seed, true);
        prop_assert_eq!(&tl_off, &tl_on, "timeline changed under observation");
        prop_assert_eq!(&w_off, &w_on, "trained weights changed under observation");
        prop_assert_eq!(spans, tl_on.len(), "expected one kernel span per trace entry");
        prop_assert!(spans > 0, "recorder attached but nothing recorded");
    }
}
