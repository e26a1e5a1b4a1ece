//! Regenerate every table and figure of the GLP4NN paper (ICPP 2018).
//!
//! ```text
//! reproduce <experiment> [options]
//!
//! experiments:
//!   table1   GPU architecture features
//!   table3   hardware profile of the evaluation devices
//!   table4   datasets
//!   table5   DNN layer configurations
//!   fig2     speedup of CaffeNet conv layers vs stream count (P100)
//!   fig3     kernel timeline of Siamese conv1 with multiple streams
//!   fig4     best observed stream count per CaffeNet layer per GPU
//!   fig7     per-iteration speedup of GLP4NN vs naive, 4 nets x 3 GPUs
//!   fig8     stream counts chosen by the analytical model
//!   fig9     per-layer forward times: CIFAR10@TitanXP, Siamese@P100
//!   fig10    GLP4NN memory consumption
//!   table6   one-time overhead T_p / T_a / T_total and training ratio
//!   fig11    CIFAR10 convergence, GLP4NN vs naive  [--iters N]
//!   ablation fusion/reordering (§6) and launch-overhead sensitivity
//!   generations GLP4NN across Fermi→Volta device generations
//!   serving  inference serving with dynamic batching  [--smoke]
//!   fleet    multi-replica serving fleet: routing x fabric x priority mix  [--smoke]
//!   sanitize stream-schedule sanitizer over 4 nets x 3 dispatch modes  [--smoke]
//!   lint     plan linter: symbolic certificates + performance lints, 4 nets x 3 modes  [--smoke]
//!   interop  inter-operator waves vs per-layer GLP4NN on branchy nets x 3 GPUs  [--smoke]
//!   multi-gpu data-parallel scaling: replicas x interconnect x overlap  [--smoke]
//!   trace    Chrome-trace export: 4 nets x 3 modes + multi-GPU overlap  [--smoke]
//!   all      everything above
//! ```
//!
//! Timing numbers are **simulated device time**; `T_p`/`T_a` are real
//! measured wall times of the profiler and MILP solver. See DESIGN.md and
//! EXPERIMENTS.md. Wall-clock throughput is measured by `benchmark/run.sh`
//! (see `benchmark/README.md`), not here.

use glp4nn_bench::fleet as fleet_bench;
use glp4nn_bench::interop as interop_bench;
use glp4nn_bench::multi_gpu;
use glp4nn_bench::serving;
use glp4nn_bench::*;
use gpu_sim::{Arch, DeviceProps, Timeline};
use nn::data::SyntheticDataset;
use nn::models;
use nn::{DispatchMode, ExecCtx, Net, Solver, SolverConfig};
use tensor::Blob;

fn devices() -> Vec<DeviceProps> {
    DeviceProps::evaluation_set()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn table1() {
    println!("== Table 1: Overview of GPU architecture features ==");
    println!(
        "{:<12} {:>12} {:>20} {:>22} {:>6} {:>12}",
        "Architecture",
        "CUDA Streams",
        "Dynamic Parallelism",
        "Max Concurrent Kernels",
        "UVM",
        "Tensor Cores"
    );
    for arch in Arch::ALL {
        let f = arch.features();
        let yn = |b: bool| if b { "yes" } else { "x" };
        println!(
            "{:<12} {:>12} {:>20} {:>22} {:>6} {:>12}",
            arch.name(),
            yn(f.cuda_streams),
            yn(f.dynamic_parallelism),
            f.max_concurrent_kernels,
            yn(f.unified_memory),
            yn(f.tensor_cores)
        );
    }
}

fn table3() {
    println!("== Table 3: Hardware profile ==");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10} {:>12} {:>14} {:>8}",
        "GPU",
        "Generation",
        "Core Count",
        "Clock (GHz)",
        "Mem (GB)",
        "BW (GB/s)",
        "Smem/SM (KB)",
        "C"
    );
    for d in devices() {
        println!(
            "{:<12} {:>10} {:>7}x{:<4} {:>12.3} {:>10.0} {:>12.1} {:>14} {:>8}",
            d.name,
            d.arch.name(),
            d.num_sms,
            d.cores_per_sm,
            d.clock_ghz,
            d.mem_size_gb,
            d.mem_bw_gbps,
            d.smem_per_sm / 1024,
            d.concurrency_degree()
        );
    }
}

fn table4() {
    println!("== Table 4: Test datasets (synthetic, shape-identical) ==");
    println!(
        "{:<10} {:>16} {:>12} {:>10} {:>8}",
        "Dataset", "Training Images", "Test Images", "Pixels", "Classes"
    );
    for (d, pixels) in SyntheticDataset::table4() {
        println!(
            "{:<10} {:>16} {:>12} {:>10} {:>8}",
            d.name, d.train_images, d.test_images, pixels, d.classes
        );
    }
}

fn table5() {
    println!("== Table 5: Layers of DNNs used in this paper ==");
    println!(
        "{:<10} {:<8} {:>5} {:>5} {:>5} {:>5} {:>5} {:>3} {:>3}",
        "Net", "Layer", "N", "Ci", "H/W", "Co", "F", "S", "P"
    );
    for (net, layer, n, ci, hw, co, f, s, p) in models::table5_rows() {
        println!(
            "{:<10} {:<8} {:>5} {:>5} {:>5} {:>5} {:>5} {:>3} {:>3}",
            net, layer, n, ci, hw, co, f, s, p
        );
    }
}

fn fig2() {
    println!("== Fig. 2: Speedup of CaffeNet conv layers on P100 vs #streams ==");
    let streams = [1u32, 2, 4, 8, 16, 32];
    print!("{:<8}", "layer");
    for s in streams {
        print!("{:>9}", format!("{s}str"));
    }
    println!();
    for w in workloads_for("CaffeNet") {
        let base = conv_forward_ns(DeviceProps::p100(), DispatchMode::Naive, &w) as f64;
        print!("{:<8}", w.layer);
        for s in streams {
            let t = if s == 1 {
                base
            } else {
                conv_forward_ns(DeviceProps::p100(), DispatchMode::FixedStreams(s), &w) as f64
            };
            print!("{:>9.2}", base / t);
        }
        println!();
    }
}

fn fig3() {
    println!("== Fig. 3: Timeline of kernels with multiple CUDA streams (K40C) ==");
    // Two contrasting layers, 8 samples each so the charts stay readable:
    // Siamese conv1 (MNIST) is launch-bound — kernels finish before the
    // host can issue the next launch, so extra streams buy nothing (the
    // paper's Fig. 9 observation) — while a mid-sized CaffeNet conv shows
    // the overlap the paper's Fig. 3 illustrates.
    let cases = [
        ("Siamese conv1 (MNIST)", {
            let mut w = workloads_for("Siamese")[0];
            w.batch = 8;
            w
        }),
        ("CaffeNet conv3", {
            let mut w = workloads_for("CaffeNet")[2];
            w.batch = 8;
            w
        }),
    ];
    for (label, w) in cases {
        for nstreams in [1u32, 4] {
            let mode = if nstreams == 1 {
                DispatchMode::Naive
            } else {
                DispatchMode::FixedStreams(nstreams)
            };
            let mut ctx = ExecCtx::with_mode(DeviceProps::k40c(), mode).timing_only();
            run_conv_forward(&mut ctx, &w);
            let tl = Timeline::new(ctx.device.trace());
            println!(
                "-- {label}, {nstreams} stream(s): span {:.3} ms --",
                tl.span_ns() as f64 / 1e6
            );
            print!("{}", tl.render_ascii(100));
        }
    }
}

fn fig4() {
    println!("== Fig. 4: Best observed number of concurrent streams (CaffeNet) ==");
    println!(
        "{:<8} {:>8} {:>8} {:>8}",
        "layer", "K40C", "P100", "TitanXP"
    );
    let sweep = [1u32, 2, 3, 4, 6, 8, 12, 16, 24, 32];
    for w in workloads_for("CaffeNet") {
        print!("{:<8}", w.layer);
        for dev in devices() {
            let mut best = (1u32, u64::MAX);
            for &s in &sweep {
                let mode = if s == 1 {
                    DispatchMode::Naive
                } else {
                    DispatchMode::FixedStreams(s)
                };
                let t = conv_forward_ns(dev.clone(), mode, &w);
                if t < best.1 {
                    best = (s, t);
                }
            }
            print!("{:>8}", best.0);
        }
        println!();
    }
}

fn fig7() {
    println!("== Fig. 7: Speedup of GLP4NN-Caffe over naive Caffe per training iteration ==");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "net", "K40C", "P100", "TitanXP"
    );
    for net in ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"] {
        print!("{:<10}", net);
        for dev in devices() {
            let (naive, glp) = iteration_speedup(dev, net);
            print!("{:>10.2}", naive as f64 / glp as f64);
        }
        println!();
    }
}

fn fig8() {
    println!("== Fig. 8: Number of streams chosen by the analytical model ==");
    println!(
        "{:<10} {:<8} {:>8} {:>8} {:>8}",
        "net", "layer", "K40C", "P100", "TitanXP"
    );
    for w in table5_workloads() {
        print!("{:<10} {:<8}", w.net, w.layer);
        for dev in devices() {
            let (_, _, streams) = conv_forward_glp4nn_ns(dev, &w);
            print!("{:>8}", streams);
        }
        println!();
    }
}

fn fig9() {
    println!("== Fig. 9: Per-layer forward time — CIFAR10@TitanXP and Siamese@P100 ==");
    for (net, dev) in [
        ("CIFAR10", DeviceProps::titan_xp()),
        ("Siamese", DeviceProps::p100()),
    ] {
        println!("-- {net} on {} --", dev.name);
        let naive = forward_layer_times(dev.clone(), net, false);
        let glp = forward_layer_times(dev, net, true);
        println!(
            "{:<12} {:>12} {:>14} {:>9}",
            "layer", "Caffe (ms)", "GLP4NN (ms)", "speedup"
        );
        for ((l, tn), (_, tg)) in naive.iter().zip(&glp) {
            println!(
                "{:<12} {:>12.3} {:>14.3} {:>9.2}",
                l,
                ms(*tn),
                ms(*tg),
                *tn as f64 / *tg as f64
            );
        }
    }
}

fn profile_net(
    dev: DeviceProps,
    net_name: &str,
) -> (glp4nn::CostBook, glp4nn::framework::Glp4nn, u64) {
    let spec = net_spec(net_name, 1);
    let mut ctx = ExecCtx::glp4nn(dev).timing_only();
    let mut net = Net::from_spec(&spec);
    // Profiling iteration (forward + backward).
    let t_profile = total_ns(&iteration_timings(&mut ctx, &mut net));
    let _ = t_profile;
    // A few steady-state iterations for the training-time ratio.
    let mut book = glp4nn::CostBook::new();
    for _ in 0..3 {
        book.add_iteration(total_ns(&iteration_timings(&mut ctx, &mut net)));
    }
    let glp = ctx.glp.take().unwrap();
    let iter_ns = (book.training_ns / 3) as u64;
    (book, glp, iter_ns)
}

fn fig10() {
    println!("== Fig. 10: Memory consumption of GLP4NN ==");
    println!(
        "{:<10} {:<10} {:>12} {:>12} {:>14} {:>14}",
        "net", "GPU", "mem_tt (KB)", "mem_K (KB)", "mem_cupti (KB)", "total (KB)"
    );
    for net in ["GoogLeNet", "CaffeNet", "CIFAR10", "Siamese"] {
        for dev in devices() {
            let name = dev.name.clone();
            let (_, glp, _) = profile_net(dev, net);
            let c = glp.cost_report(0);
            println!(
                "{:<10} {:<10} {:>12.2} {:>12.2} {:>14.2} {:>14.2}",
                net,
                name,
                c.mem_tt_bytes as f64 / 1024.0,
                c.mem_k_bytes as f64 / 1024.0,
                c.mem_cupti_bytes as f64 / 1024.0,
                c.mem_total_bytes() as f64 / 1024.0
            );
        }
    }
}

fn table6() {
    println!("== Table 6: One-time overhead of GLP4NN ==");
    println!(
        "{:<10} {:<10} {:>10} {:>10} {:>12} {:>12}",
        "net", "GPU", "T_p (ms)", "T_a (ms)", "T_total(ms)", "ratio"
    );
    // Ratio against a full training run: Caffe's reference solvers run
    // 4000 (CIFAR10-quick), 50000 (Siamese), 450000 (CaffeNet) and
    // 2400000 (GoogLeNet) iterations; scale by simulated iteration time.
    let train_iters = |net: &str| -> u64 {
        match net {
            "CIFAR10" => 4000,
            "Siamese" => 50_000,
            "CaffeNet" => 450_000,
            _ => 2_400_000,
        }
    };
    for net in ["GoogLeNet", "CaffeNet", "CIFAR10", "Siamese"] {
        for dev in devices() {
            let name = dev.name.clone();
            let (_, glp, iter_ns) = profile_net(dev, net);
            let c = glp.cost_report(0);
            let total_train_ns = iter_ns as u128 * train_iters(net) as u128;
            let ratio = c.t_total().as_nanos() as f64 / total_train_ns as f64;
            println!(
                "{:<10} {:<10} {:>10.3} {:>10.3} {:>12.3} {:>11.5}%",
                net,
                name,
                c.t_p.as_secs_f64() * 1e3,
                c.t_a.as_secs_f64() * 1e3,
                c.t_total().as_secs_f64() * 1e3,
                ratio * 100.0
            );
        }
    }
}

fn fig11(iters: usize) {
    println!("== Fig. 11: Training CIFAR10 on P100 — train/test loss per iteration ==");
    let batch = 100;
    // Held-out test samples: indices far beyond anything training touches.
    const TEST_OFFSET: usize = 10_000_000;
    let eval_every = (iters / 10).max(1);
    let run = |glp: bool| -> (Vec<f32>, Vec<(usize, f32)>) {
        let mut ctx = if glp {
            ExecCtx::glp4nn(DeviceProps::p100())
        } else {
            ExecCtx::naive(DeviceProps::p100())
        };
        let net = Net::from_spec(&models::cifar10_quick(batch, 42));
        let mut solver = Solver::new(net, SolverConfig::default());
        let ds = SyntheticDataset::cifar_like(42);
        let mut train_losses = Vec::new();
        let mut test_losses = Vec::new();
        let load = |net: &mut Net, start: usize| {
            let mut data = std::mem::replace(net.blob_mut("data"), Blob::empty());
            let mut label = std::mem::replace(net.blob_mut("label"), Blob::empty());
            ds.fill_batch(start, &mut data, &mut label);
            *net.blob_mut("data") = data;
            *net.blob_mut("label") = label;
        };
        for it in 0..iters {
            load(&mut solver.net, it * batch);
            train_losses.push(solver.step(&mut ctx));
            if it % eval_every == 0 || it + 1 == iters {
                // Test evaluation: forward only, inference mode.
                solver.net.set_train(false);
                load(&mut solver.net, TEST_OFFSET);
                test_losses.push((it, solver.net.forward(&mut ctx)));
                solver.net.set_train(true);
            }
        }
        (train_losses, test_losses)
    };
    let (naive, naive_test) = run(false);
    let (glp, glp_test) = run(true);
    println!(
        "{:<6} {:>12} {:>14} {:>12} {:>10}",
        "iter", "train(Caffe)", "train(GLP4NN)", "test(Caffe)", "identical"
    );
    let mut test_iter = naive_test.iter().peekable();
    let step = (iters / 20).max(1);
    for i in (0..iters).step_by(step) {
        let test_str = match test_iter.peek() {
            Some(&&(ti, tv)) if ti <= i => {
                while test_iter
                    .peek()
                    .map(|&&(ti, _)| ti + eval_every <= i)
                    .unwrap_or(false)
                {
                    test_iter.next();
                }
                format!("{tv:.6}")
            }
            _ => "-".to_string(),
        };
        println!(
            "{:<6} {:>12.6} {:>14.6} {:>12} {:>10}",
            i,
            naive[i],
            glp[i],
            test_str,
            if naive[i].to_bits() == glp[i].to_bits() {
                "yes"
            } else {
                "NO"
            }
        );
    }
    let identical = naive
        .iter()
        .zip(&glp)
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && naive_test
            .iter()
            .zip(&glp_test)
            .all(|((_, a), (_, b))| a.to_bits() == b.to_bits());
    println!(
        "convergence-invariance: train+test losses bitwise identical across all {iters} iterations: {}",
        if identical { "yes" } else { "NO" }
    );
    println!(
        "train loss {:.4} -> {:.4}; test loss {:.4} -> {:.4}",
        naive[0],
        naive[iters - 1],
        naive_test[0].1,
        naive_test.last().unwrap().1
    );
}

fn ablation() {
    println!("== Ablation: §6 kernel fusion / reordering extensions ==");
    println!("(steady-state simulated iteration time; fusion targets launch-bound small kernels)");
    println!(
        "{:<10} {:<10} {:>14} {:>14} {:>14} {:>9}",
        "net", "GPU", "baseline (ms)", "fusion (ms)", "fusion+LPT", "gain"
    );
    for net in ["Siamese", "CIFAR10"] {
        for dev in devices() {
            let steady = |optim: glp4nn::OptimConfig| -> u64 {
                let mut ctx = ExecCtx::glp4nn_with(dev.clone(), optim).timing_only();
                let mut net_obj = Net::from_spec(&net_spec(net, 1));
                ctx.take_timings();
                net_obj.forward(&mut ctx); // profiling
                ctx.take_timings();
                net_obj.forward(&mut ctx); // steady
                ctx.take_timings().iter().map(|t| t.elapsed_ns).sum()
            };
            let base = steady(glp4nn::OptimConfig::default());
            let fusion = steady(glp4nn::OptimConfig {
                fusion: true,
                ..glp4nn::OptimConfig::default()
            });
            let all = steady(glp4nn::OptimConfig::all());
            println!(
                "{:<10} {:<10} {:>14.3} {:>14.3} {:>14.3} {:>8.1}%",
                net,
                dev.name,
                ms(base),
                ms(fusion),
                ms(all),
                (1.0 - all as f64 / base as f64) * 100.0
            );
        }
    }
    println!();
    println!("-- batch-level parallelism extended to pooling (paper §3.3.1 note) --");
    println!(
        "{:<10} {:<10} {:>14} {:>16} {:>8}",
        "net", "GPU", "conv-only (ms)", "conv+pool (ms)", "gain"
    );
    for net in ["CIFAR10", "CaffeNet"] {
        for dev in devices() {
            let steady = |all: bool| -> u64 {
                let mut ctx = ExecCtx::glp4nn(dev.clone()).timing_only();
                if all {
                    ctx = ctx.batch_parallel_all();
                }
                let mut net_obj = Net::from_spec(&net_spec(net, 1));
                net_obj.forward(&mut ctx);
                ctx.take_timings();
                net_obj.forward(&mut ctx);
                ctx.take_timings().iter().map(|t| t.elapsed_ns).sum()
            };
            let conv_only = steady(false);
            let all = steady(true);
            println!(
                "{:<10} {:<10} {:>14.3} {:>16.3} {:>7.1}%",
                net,
                dev.name,
                ms(conv_only),
                ms(all),
                (1.0 - all as f64 / conv_only as f64) * 100.0
            );
        }
    }
    println!();
    println!("-- launch-overhead sensitivity (Siamese conv1, naive vs 8 streams) --");
    println!(
        "{:>16} {:>12} {:>12} {:>9}",
        "T_launch (us)", "naive (ms)", "8str (ms)", "speedup"
    );
    for t_launch_us in [1u64, 2, 4, 8] {
        let mut dev = DeviceProps::k40c();
        dev.launch_overhead_ns = t_launch_us * 1000;
        let w = workloads_for("Siamese")[0];
        let naive = conv_forward_ns(dev.clone(), DispatchMode::Naive, &w);
        let conc = conv_forward_ns(dev, DispatchMode::FixedStreams(8), &w);
        println!(
            "{:>16} {:>12.3} {:>12.3} {:>9.2}",
            t_launch_us,
            ms(naive),
            ms(conc),
            naive as f64 / conc as f64
        );
    }
}

fn generations() {
    println!("== Generation sweep: GLP4NN across Fermi → Volta (extension of Table 1) ==");
    println!(
        "(CIFAR10 per-iteration speedup and model-chosen streams for conv2, per architecture)"
    );
    println!(
        "{:<20} {:<8} {:>4} {:>9} {:>14}",
        "GPU", "arch", "C", "speedup", "conv2 streams"
    );
    for dev in DeviceProps::generation_set() {
        let (naive, glp) = iteration_speedup(dev.clone(), "CIFAR10");
        let w = workloads_for("CIFAR10")[1];
        let (_, _, streams) = conv_forward_glp4nn_ns(dev.clone(), &w);
        println!(
            "{:<20} {:<8} {:>4} {:>8.2}x {:>14}",
            dev.name,
            dev.arch.name(),
            dev.concurrency_degree(),
            naive as f64 / glp as f64,
            streams
        );
    }
    println!("\nnewer generations expose more concurrency (Table 1's C column) and");
    println!("lower launch overhead; the framework adapts without reconfiguration.");
}

fn serving(smoke: bool) {
    let rows = serving::serving_sweep(smoke);
    serving::print_serving_table(&rows, smoke);
    assert!(
        serving::glp4nn_dominates(&rows),
        "GLP4NN throughput fell below naive at some operating point"
    );
}

fn fleet_cmd(smoke: bool) {
    let rows = fleet_bench::fleet_sweep(smoke);
    fleet_bench::print_fleet_table(&rows, smoke);
    assert!(
        fleet_bench::jsq_matches_or_beats_rr(&rows),
        "JSQ fell below round-robin on SLO attainment at some sweep point"
    );
    if smoke {
        assert_eq!(
            fleet_bench::total_sanitizer_reports(&rows),
            0,
            "sanitizer reported diagnostics on the sanitized fleet smoke sweep"
        );
    }
    println!();
    let demo = fleet_bench::autoscale_demo(smoke);
    fleet_bench::print_autoscale_demo(&demo);
    assert!(
        demo.scale_ups >= 1 && demo.scale_downs >= 1,
        "autoscaler demo must scale up under the burst and down through the trickle"
    );

    // A smoke-sized traced run: every replica records kernel spans under
    // its own trace pid, the fleet adds wave spans and control instants.
    // Written next to the other telemetry exports so the validate-trace
    // round-trip in CI covers it.
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let mut cfg = fleet_bench::cell_config(
        ::fleet::fabric_uniform8(),
        ::fleet::RouterPolicy::JoinShortestQueue,
        ::fleet::PriorityMix::premium_heavy(),
        true,
    );
    cfg.num_requests = 400;
    let mut sim = ::fleet::FleetSim::new(cfg).unwrap_or_else(|e| panic!("{e}"));
    let rec = telemetry::shared(telemetry::Telemetry::new());
    sim.set_telemetry(rec.clone());
    let traced = sim.run();
    {
        let mut guard = rec.lock().unwrap_or_else(|p| p.into_inner());
        sim.annotate_telemetry(&mut guard);
    }
    drop(sim);
    let t = std::sync::Arc::try_unwrap(rec)
        .unwrap_or_else(|_| panic!("telemetry handle still shared after fleet run"))
        .into_inner()
        .unwrap_or_else(|poison| poison.into_inner());
    let json = t.chrome_trace();
    let summary = telemetry::validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("fleet trace failed validation: {e}"));
    let path = dir.join("fleet_jsq.trace.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!();
    println!(
        "traced fleet run (400 requests, JSQ, sanitized): {} spans across {} tracks, {} -> {}",
        summary.spans,
        summary.tracks,
        traced.completed,
        path.display()
    );
    println!("\nfleet: JSQ >= round-robin SLO attainment at every sweep point; autoscaler");
    println!("scaled both directions; sanitized replicas + cross-device check stayed clean");
}

fn sanitize(smoke: bool) {
    println!("== Sanitize: plan validation + happens-before replay, 4 nets x 3 dispatch modes ==");
    println!("(two training iterations each so GLP4NN reaches concurrent steady state)");
    println!(
        "{:<10} {:<10} {:>7} {:>12} {:>12} {:>13} {:>13} {:>8}",
        "net",
        "mode",
        "plans",
        "plan pairs",
        "chunk pairs",
        "trace kerns",
        "trace pairs",
        "reports"
    );
    let modes = [
        ("naive", DispatchMode::Naive),
        ("8-streams", DispatchMode::FixedStreams(8)),
        ("glp4nn", DispatchMode::Glp4nn),
    ];
    let mut total_reports = 0usize;
    for net in ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"] {
        for (label, mode) in modes {
            let mut ctx = match mode {
                DispatchMode::Glp4nn => ExecCtx::glp4nn(DeviceProps::p100()),
                m => ExecCtx::with_mode(DeviceProps::p100(), m),
            }
            .timing_only()
            .sanitize(sanitizer::SanitizeMode::Full);
            let spec = if smoke {
                net_spec_with_batch(net, 4, 1)
            } else {
                net_spec(net, 1)
            };
            let mut net_obj = Net::from_spec(&spec);
            for _ in 0..2 {
                iteration_timings(&mut ctx, &mut net_obj);
            }
            let s = ctx.sanitizer.stats();
            let reports = ctx.sanitizer.reports();
            println!(
                "{:<10} {:<10} {:>7} {:>12} {:>12} {:>13} {:>13} {:>8}",
                net,
                label,
                s.plans_checked,
                s.plan_pairs,
                s.chunk_pairs,
                s.trace_kernels,
                s.trace_pairs,
                reports.len()
            );
            for d in reports {
                println!("  {d}");
            }
            total_reports += reports.len();
        }
    }
    assert_eq!(
        total_reports, 0,
        "sanitizer reported {total_reports} diagnostic(s) on schedules that must be clean"
    );
    println!("\nsanitize: every schedule clean — chunk regions disjoint, all conflicts ordered");
}

fn lint_cmd(smoke: bool) {
    println!("== Lint: symbolic disjointness certificates + plan lints, 4 nets x 3 modes ==");
    println!("(PLxxx = correctness, must be zero; PWxxx = performance findings, expected to");
    println!(" differ by mode: naive serializes independent chains, capture records spare events)");
    let rows = glp4nn_bench::lint::lint_sweep(smoke);
    glp4nn_bench::lint::print_table(&rows);
    let bad = glp4nn_bench::lint::total_correctness(&rows);
    if bad > 0 {
        for r in &rows {
            if r.correctness > 0 {
                println!("\n-- {} / {} --\n{}", r.net, r.mode, r.errors_rendered);
            }
        }
    }
    assert_eq!(
        bad, 0,
        "linter found {bad} correctness finding(s) on shipped schedules"
    );
    let certified: u64 = rows.iter().map(|r| r.certified_captures).sum();
    assert!(
        certified > 0,
        "no capture was admitted by a symbolic certificate"
    );
    println!(
        "\nlint: zero correctness findings; {certified} captures admitted by symbolic certificates"
    );
}

fn interop_cmd(smoke: bool) {
    println!("== Interop: whole-net wave co-scheduling vs per-layer GLP4NN ==");
    println!("(branchy nets x 3 GPUs; steady-state simulated iteration time; PW002 columns");
    println!(" count false-serialization pairs on the per-layer vs wave candidate plans)");
    let rows = interop_bench::interop_sweep(smoke);
    interop_bench::print_table(&rows);
    assert!(
        interop_bench::waves_dominate(&rows),
        "interop wave mode fell behind per-layer GLP4NN at some operating point"
    );
    assert_eq!(
        interop_bench::total_sanitizer_reports(&rows),
        0,
        "sanitizer reported diagnostics on an interop schedule"
    );
    assert!(
        rows.iter().all(|r| r.weights_identical),
        "interop training diverged from sequential training"
    );
    assert!(
        rows.iter().all(|r| r.multi_waves > 0 && r.tel_waves > 0),
        "branchy nets must produce multi-layer waves (and telemetry must count them)"
    );
    println!("\ninterop: waves beat per-layer at every point; zero sanitizer reports;");
    println!("trained weights bitwise-identical to sequential execution");
}

fn replay(smoke: bool) {
    println!("== Replay: capture-once / replay-many vs imperative dispatch, 4 nets x 3 modes ==");
    println!("(same training iterations twice: plan reuse on vs off; timelines must be identical)");
    println!(
        "{:<10} {:<10} {:>9} {:>9} {:>10} {:>8}",
        "net", "mode", "kernels", "captures", "timeline", "reports"
    );
    let modes = [
        ("naive", DispatchMode::Naive),
        ("8-streams", DispatchMode::FixedStreams(8)),
        ("glp4nn", DispatchMode::Glp4nn),
    ];
    type TraceRow = (String, u64, u32, u64, u64);
    let tl = |ctx: &ExecCtx| -> Vec<TraceRow> {
        ctx.device
            .trace()
            .iter()
            .map(|t| {
                (
                    t.name.to_string(),
                    t.tag,
                    t.stream.raw(),
                    t.start_ns,
                    t.end_ns,
                )
            })
            .collect()
    };
    for net in ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"] {
        for (label, mode) in modes {
            let spec = if smoke {
                net_spec_with_batch(net, 4, 1)
            } else {
                net_spec(net, 1)
            };
            let iters = if smoke { 2 } else { 3 };
            // Replay arm: plan reuse on, full sanitizing (static checks at
            // capture, happens-before replay per iteration). Imperative
            // arm: reuse off, so every iteration re-captures — the
            // behaviour of the old per-iteration dispatch loops.
            let mk = |reuse: bool| {
                let mut ctx = match mode {
                    DispatchMode::Glp4nn => ExecCtx::glp4nn(DeviceProps::p100()),
                    m => ExecCtx::with_mode(DeviceProps::p100(), m),
                }
                .timing_only();
                if reuse {
                    ctx = ctx.sanitize(sanitizer::SanitizeMode::Full);
                } else {
                    ctx = ctx.without_plan_reuse();
                }
                ctx
            };
            let mut replayed = mk(true);
            let mut imperative = mk(false);
            for ctx in [&mut replayed, &mut imperative] {
                let mut net_obj = Net::from_spec(&spec);
                for _ in 0..iters {
                    iteration_timings(ctx, &mut net_obj);
                }
            }
            let a = tl(&replayed);
            let b = tl(&imperative);
            assert!(
                a == b,
                "{net}/{label}: replayed timeline diverged from imperative dispatch \
                 ({} vs {} kernels)",
                a.len(),
                b.len()
            );
            let reports = replayed.sanitizer.reports().len();
            for d in replayed.sanitizer.reports() {
                println!("  {d}");
            }
            assert_eq!(
                reports, 0,
                "{net}/{label}: sanitizer flagged a replayed schedule"
            );
            println!(
                "{:<10} {:<10} {:>9} {:>9} {:>10} {:>8}",
                net,
                label,
                a.len(),
                replayed.plan_captures(),
                "identical",
                reports
            );
        }
    }
    println!("\nreplay: every timeline identical to the imperative path; zero sanitizer reports");
}

fn multi_gpu_cmd(smoke: bool) {
    println!("== Multi-GPU: data-parallel scaling over the simulated fabric ==");
    println!("(P100 replicas, 4 streams each; ring all-reduce of per-layer gradient buckets;");
    println!(" overlap = layer k's all-reduce gated behind layer k's backward, issued deferred)\n");
    let weak = multi_gpu::multi_gpu_sweep(smoke);
    multi_gpu::print_scaling_table(&weak, "weak scaling (per-replica batch fixed)");
    assert!(
        multi_gpu::overlap_dominates(&weak),
        "overlap scheduling fell behind no-overlap at some operating point"
    );
    println!();
    let strong = multi_gpu::strong_scaling_sweep(smoke);
    multi_gpu::print_scaling_table(&strong, "strong scaling (global batch fixed, CIFAR10)");
    assert!(
        multi_gpu::overlap_dominates(&strong),
        "overlap scheduling fell behind no-overlap at some operating point"
    );
    println!();
    multi_gpu::print_utilization(smoke);
    println!("\nmulti-gpu: overlap >= no-overlap throughput at every operating point;");
    println!("full sweep ran under the sanitizer (per-device + cross-device) with zero reports");
}

fn trace_cmd(smoke: bool) {
    println!("== Trace: Chrome-trace export, 4 nets x 3 modes + a multi-GPU overlap run ==");
    println!("(all span timestamps are simulated ns; traces open in chrome://tracing or Perfetto)");
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    println!(
        "{:<10} {:<10} {:>7} {:>8} {:>7} {:>7}  file",
        "net", "mode", "spans", "instants", "flows", "bytes"
    );
    let write_trace = |label: String, t: &telemetry::Telemetry, net: &str, mode: &str| {
        let json = t.chrome_trace();
        let summary = telemetry::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{label}: exported trace failed validation: {e}"));
        assert_eq!(
            summary.spans,
            t.spans().len(),
            "{label}: B/E pair count diverged from recorded spans"
        );
        let path = dir.join(format!("{label}.trace.json"));
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!(
            "{:<10} {:<10} {:>7} {:>8} {:>7} {:>7}  {}",
            net,
            mode,
            t.spans().len(),
            t.instants().len(),
            t.flows().len(),
            json.len(),
            path.display()
        );
    };
    let modes = [
        ("naive", DispatchMode::Naive),
        ("8str", DispatchMode::FixedStreams(8)),
        ("glp4nn", DispatchMode::Glp4nn),
    ];
    for net in ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"] {
        for (label, mode) in modes {
            let t = trace::trace_net(net, mode, smoke);
            write_trace(format!("{}_{label}", net.to_lowercase()), &t, net, label);
        }
    }
    let t = trace::trace_multi_gpu(smoke);
    write_trace("multi_gpu_overlap".to_string(), &t, "CIFAR10", "dp-overlap");
    println!("\n-- metrics snapshot of the multi-GPU overlap run --");
    print!("{}", t.metrics_snapshot());
    println!("\ntrace: 13 traces validated (strict B/E nesting per track) and written");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let iters = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(40usize);
    let smoke = args.iter().any(|a| a == "--smoke");

    match cmd {
        "table1" => table1(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "table6" => table6(),
        "fig11" => fig11(iters),
        "ablation" => ablation(),
        "generations" => generations(),
        "serving" => serving(smoke),
        "fleet" => fleet_cmd(smoke),
        "sanitize" => sanitize(smoke),
        "lint" => lint_cmd(smoke),
        "interop" => interop_cmd(smoke),
        "replay" => replay(smoke),
        "multi-gpu" => multi_gpu_cmd(smoke),
        "trace" => trace_cmd(smoke),
        "all" => {
            table1();
            println!();
            table3();
            println!();
            table4();
            println!();
            table5();
            println!();
            fig2();
            println!();
            fig3();
            println!();
            fig4();
            println!();
            fig7();
            println!();
            fig8();
            println!();
            fig9();
            println!();
            fig10();
            println!();
            table6();
            println!();
            fig11(iters);
            println!();
            ablation();
            println!();
            generations();
            println!();
            serving(smoke);
            println!();
            fleet_cmd(smoke);
            println!();
            sanitize(smoke);
            println!();
            lint_cmd(smoke);
            println!();
            interop_cmd(smoke);
            println!();
            replay(smoke);
            println!();
            multi_gpu_cmd(smoke);
            println!();
            trace_cmd(smoke);
        }
        _ => {
            eprintln!(
                "usage: reproduce <table1|ablation|table3|table4|table5|fig2|fig3|fig4|fig7|fig8|fig9|fig10|table6|fig11|generations|serving|fleet|sanitize|lint|interop|replay|multi-gpu|trace|all> [--iters N] [--smoke]"
            );
            std::process::exit(2);
        }
    }
}
