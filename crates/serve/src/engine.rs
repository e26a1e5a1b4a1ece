//! The inference engine: one model instance on one simulated device,
//! forwarding the waves an event loop closes.

use crate::config::ServeConfig;
use crate::request::fill_sample;
use gpu_sim::{Device, SimTime};
use nn::models::{spec_by_name, SpecError};
use nn::{ExecCtx, Net, NetSpec};
use sanitizer::{SanitizeMode, Sanitizer};

/// An inference server: one model instance on one simulated device,
/// forwarding dynamic batches through [`Net::forward_inference`].
///
/// The net is built once from the model's inference spec (trailing
/// loss/accuracy layers stripped), so parameters persist across batches
/// and match an offline net built from the same spec and seed. Input
/// blobs are resized to each batch's size before dispatch; under GLP4NN
/// the plan cache keys per layer x chunk count, so each batch size is
/// profiled once and then served from its cached concurrency plan.
pub struct ServingEngine {
    ctx: ExecCtx,
    net: Net,
    spec: NetSpec,
    output_blob: String,
}

/// Construction options beyond the [`ServeConfig`]: fleet replicas run
/// timing-only (latency/throughput studies don't need the real CPU math)
/// and optionally under the schedule sanitizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Skip layer arithmetic; simulate kernel timing only.
    pub timing_only: bool,
    /// Attach the schedule sanitizer in this mode.
    pub sanitize: Option<SanitizeMode>,
}

/// Timing of one dispatched wave (see [`ServingEngine::run_wave`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveTiming {
    /// When the wave's forward started on the device (ns).
    pub start_ns: SimTime,
    /// When the wave completed (ns).
    pub done_ns: SimTime,
}

impl ServingEngine {
    /// Build the engine for a configuration (device, mode, model, seed).
    pub fn new(config: &ServeConfig) -> Result<Self, SpecError> {
        Self::new_with(config, EngineOptions::default())
    }

    /// Build the engine with explicit [`EngineOptions`].
    pub fn new_with(config: &ServeConfig, opts: EngineOptions) -> Result<Self, SpecError> {
        let spec = spec_by_name(&config.model, config.policy.max_batch, config.seed)?.inference();
        let output_blob = spec
            .final_top()
            .expect("inference spec has no layers")
            .to_string();
        let mut ctx = ExecCtx::with_mode(config.device.clone(), config.mode);
        if opts.timing_only {
            ctx = ctx.timing_only();
        }
        if let Some(mode) = opts.sanitize {
            ctx = ctx.sanitize(mode);
        }
        Ok(ServingEngine {
            net: Net::from_spec(&spec),
            ctx,
            spec,
            output_blob,
        })
    }

    /// Attach a shared telemetry recorder: the device records kernel spans
    /// under Chrome-trace process id `pid` (the fleet gives every replica
    /// its own pid so traces render one process per replica). Observation
    /// only.
    pub fn set_telemetry_as(&mut self, rec: telemetry::SharedRecorder, pid: u32) {
        self.ctx.set_telemetry(rec, pid);
    }

    /// Fill `net`'s input blobs for a batch of request ids, resizing every
    /// input's leading (batch) dimension to the batch size. Sample
    /// payloads depend only on the request id and the input's position, so
    /// an offline net fed the same ids sees identical inputs. Only a
    /// computing engine fills its inputs; a timing-only one resizes them.
    pub fn fill_inputs(net: &mut Net, spec: &NetSpec, ids: &[u64]) {
        Self::resize_inputs(net, spec, ids.len());
        for (ii, (name, shape)) in spec.inputs.iter().enumerate() {
            let blob = net.blob_mut(name);
            if shape.len() > 1 {
                let per: usize = shape[1..].iter().product();
                for (s, &id) in ids.iter().enumerate() {
                    let slice = &mut blob.data_mut()[s * per..(s + 1) * per];
                    fill_sample(slice, id.wrapping_add((ii as u64) << 32));
                }
            } else {
                // Label-style inputs are unused by the inference spec.
                blob.data_mut().fill(0.0);
            }
        }
    }

    /// Set every input's leading (batch) dimension to `batch`.
    fn resize_inputs(net: &mut Net, spec: &NetSpec, batch: usize) {
        for (name, shape) in &spec.inputs {
            let mut dims = shape.clone();
            dims[0] = batch;
            net.blob_mut(name).resize(&dims);
        }
    }

    /// Forward one wave without reading its outputs. The timing list is
    /// cleared first, so it holds this wave's dispatches and no more.
    fn forward_wave(&mut self, ids: &[u64]) {
        assert!(!ids.is_empty(), "empty batch");
        self.ctx.timings.clear();
        if self.ctx.compute {
            Self::fill_inputs(&mut self.net, &self.spec, ids);
        } else {
            Self::resize_inputs(&mut self.net, &self.spec, ids.len());
        }
        self.net.forward_inference(&mut self.ctx);
    }

    /// Forward one batch of requests; returns each request's output row
    /// (the final top blob, split per sample; no values when timing-only).
    pub fn forward_batch(&mut self, ids: &[u64]) -> Vec<Vec<f32>> {
        self.forward_wave(ids);
        let out = self.net.blob(&self.output_blob);
        let per = out.count() / ids.len();
        out.data().chunks(per).map(<[f32]>::to_vec).collect()
    }

    /// Profile every batch size the policy can produce (1..=max_batch)
    /// before measurement, so GLP4NN's one-time profiling pass per batch
    /// shape is excluded from steady-state serving metrics — the serving
    /// analogue of the paper's profile-once-then-concurrent workflow.
    ///
    /// Each size runs twice: the first pass profiles (under GLP4NN) and
    /// the second captures the frozen execution plan, so every
    /// steady-state batch of a warmed size is a pure plan replay (see
    /// [`plan_captures`](Self::plan_captures)).
    pub fn warmup(&mut self, max_batch: usize) {
        for k in 1..=max_batch {
            let ids: Vec<u64> = (0..k as u64).map(|i| u64::MAX - i).collect();
            self.forward_wave(&ids);
            self.forward_wave(&ids);
        }
    }

    /// How many execution plans the context has captured so far (see
    /// [`ExecCtx::plan_captures`]). After [`warmup`](Self::warmup) this
    /// stops moving: batches of already-seen sizes replay their cached
    /// plan without re-analysis or re-validation.
    pub fn plan_captures(&self) -> u64 {
        self.ctx.plan_captures()
    }

    /// Current simulated device time (ns).
    pub fn now(&self) -> SimTime {
        self.ctx.device.now()
    }

    /// The inference spec the engine serves.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// The incremental admission path: dispatch one wave of requests no
    /// earlier than `not_before` (a fleet event loop's global clock) and
    /// return its device-time span. The caller owns queueing — this is
    /// the half of continuous batching that belongs to the engine:
    /// accept whatever the admission queue closed into the wave, replay
    /// the warm plan for that batch size, and report exactly when the
    /// engine becomes free for the next wave. Unlike
    /// [`forward_batch`](Self::forward_batch) it builds no output rows.
    ///
    /// # Panics
    /// Panics on an empty wave.
    pub fn run_wave(&mut self, ids: &[u64], not_before: SimTime) -> WaveTiming {
        self.ctx.device.advance_to(not_before);
        let start_ns = self.now();
        self.forward_wave(ids);
        WaveTiming {
            start_ns,
            done_ns: self.now(),
        }
    }

    /// The simulated device this engine serves on (for fleet-level
    /// stats and merged timelines).
    pub fn device(&self) -> &Device {
        &self.ctx.device
    }

    /// The schedule sanitizer attached via [`EngineOptions::sanitize`]
    /// (its diagnostics accumulate during dispatch).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.ctx.sanitizer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use gpu_sim::DeviceProps;
    use nn::DispatchMode;

    fn smoke_config(mode: DispatchMode) -> ServeConfig {
        ServeConfig {
            device: DeviceProps::p100(),
            mode,
            model: "CIFAR10".to_string(),
            rate_rps: 2000.0,
            num_requests: 60,
            policy: BatchPolicy::new(4, 2_000_000),
            queue_capacity: 256,
            seed: 11,
        }
    }

    #[test]
    fn steady_state_serving_is_pure_replay() {
        for mode in [
            DispatchMode::Naive,
            DispatchMode::FixedStreams(4),
            DispatchMode::Glp4nn,
        ] {
            let cfg = smoke_config(mode);
            let mut engine = ServingEngine::new(&cfg).unwrap();
            engine.warmup(4);
            let warm = engine.plan_captures();
            assert!(warm > 0, "warmup must capture plans ({mode:?})");
            for rep in 0..3u64 {
                for k in 1..=4usize {
                    let ids: Vec<u64> = (0..k as u64).map(|i| 1000 + rep * 10 + i).collect();
                    let _ = engine.forward_batch(&ids);
                }
            }
            assert_eq!(
                engine.plan_captures(),
                warm,
                "steady-state batches must be pure plan replays ({mode:?})"
            );
        }
    }

    #[test]
    fn timings_hold_one_wave() {
        let cfg = smoke_config(DispatchMode::Glp4nn);
        let opts = EngineOptions {
            timing_only: true,
            sanitize: None,
        };
        let mut engine = ServingEngine::new_with(&cfg, opts).unwrap();
        engine.warmup(4);
        for w in 0..100u64 {
            let ids: Vec<u64> = (0..1 + w % 4).collect();
            engine.run_wave(&ids, engine.now());
        }
        // One wave's dispatch count, from an offline pass over the spec.
        let mut ctx = ExecCtx::glp4nn(cfg.device.clone()).timing_only();
        Net::from_spec(engine.spec()).forward_inference(&mut ctx);
        assert!(!ctx.timings.is_empty());
        assert_eq!(engine.ctx.timings.len(), ctx.timings.len());
    }
}
