//! SGD solver with momentum, weight decay and learning-rate policies —
//! the batch training algorithm of the paper's §2.1.
//!
//! Training with GLP4NN must "converge to a stable state ... as the
//! execution without GLP4NN" (§3.3.1): the solver's update rule is pure
//! CPU arithmetic over parameter blobs, shared verbatim between dispatch
//! modes, so the whole optimization trajectory is bitwise identical.

use crate::exec::ExecCtx;
use crate::net::Net;

/// Learning-rate schedule (Caffe's `lr_policy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrPolicy {
    /// Constant learning rate.
    Fixed,
    /// `base_lr · gamma^floor(iter/step)`.
    Step {
        /// Decay factor.
        gamma: f32,
        /// Iterations per decay.
        step: usize,
    },
    /// `base_lr · (1 + gamma·iter)^(−power)` (Caffe's `inv`).
    Inv {
        /// Rate of decay.
        gamma: f32,
        /// Exponent.
        power: f32,
    },
    /// `base_lr · gamma^iter` (Caffe's `exp`).
    Exp {
        /// Per-iteration decay factor.
        gamma: f32,
    },
    /// `base_lr · (1 − iter/max_iter)^power` (Caffe's `poly`).
    Poly {
        /// Exponent.
        power: f32,
        /// Total planned iterations.
        max_iter: usize,
    },
}

/// Momentum flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MomentumKind {
    /// Classical heavy-ball momentum (Caffe's `SGD` solver).
    #[default]
    Classical,
    /// Nesterov accelerated gradient (Caffe's `Nesterov` solver).
    Nesterov,
}

/// Solver hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Base learning rate.
    pub base_lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Momentum flavour (classical or Nesterov).
    pub momentum_kind: MomentumKind,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Learning-rate schedule.
    pub policy: LrPolicy,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            base_lr: 0.01,
            momentum: 0.9,
            momentum_kind: MomentumKind::Classical,
            weight_decay: 5e-4,
            policy: LrPolicy::Fixed,
        }
    }
}

/// SGD with momentum over a [`Net`].
pub struct Solver {
    /// The network being trained.
    pub net: Net,
    cfg: SolverConfig,
    iter: usize,
    /// Momentum buffers, one per parameter blob (flattened).
    history: Vec<Vec<f32>>,
}

impl Solver {
    /// New solver over `net`.
    pub fn new(net: Net, cfg: SolverConfig) -> Self {
        Solver {
            net,
            cfg,
            iter: 0,
            history: Vec::new(),
        }
    }

    /// Current iteration count.
    pub fn iteration(&self) -> usize {
        self.iter
    }

    /// Learning rate at the current iteration.
    fn current_lr(&self) -> f32 {
        match self.cfg.policy {
            LrPolicy::Fixed => self.cfg.base_lr,
            LrPolicy::Step { gamma, step } => {
                self.cfg.base_lr * gamma.powi((self.iter / step.max(1)) as i32)
            }
            LrPolicy::Inv { gamma, power } => {
                self.cfg.base_lr * (1.0 + gamma * self.iter as f32).powf(-power)
            }
            LrPolicy::Exp { gamma } => self.cfg.base_lr * gamma.powi(self.iter as i32),
            LrPolicy::Poly { power, max_iter } => {
                let frac = 1.0 - (self.iter as f32 / max_iter.max(1) as f32).min(1.0);
                self.cfg.base_lr * frac.powf(power)
            }
        }
    }

    /// One training iteration: zero grads → forward → backward → update.
    /// Inputs must already be loaded into the net's input blobs. Returns
    /// the loss.
    pub fn step(&mut self, ctx: &mut ExecCtx) -> f32 {
        self.net.zero_param_diffs();
        let loss = self.net.forward(ctx);
        self.net.backward(ctx);
        let lr = self.current_lr();
        let momentum = self.cfg.momentum;
        let decay = self.cfg.weight_decay;
        let mut params = self.net.params_mut();
        if self.history.len() != params.len() {
            self.history = params.iter().map(|p| vec![0.0; p.count()]).collect();
        }
        let nesterov = self.cfg.momentum_kind == MomentumKind::Nesterov;
        for (p, h) in params.iter_mut().zip(&mut self.history) {
            let (data, diff) = p.data_and_diff_mut();
            for i in 0..data.len() {
                let g = diff[i] + decay * data[i];
                let prev = h[i];
                h[i] = momentum * h[i] + lr * g;
                if nesterov {
                    // Caffe's Nesterov update: w -= (1+m)·v_new − m·v_old.
                    data[i] -= (1.0 + momentum) * h[i] - momentum * prev;
                } else {
                    data[i] -= h[i];
                }
            }
        }
        self.iter += 1;
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LayerKind, LayerSpec, NetSpec};
    use gpu_sim::DeviceProps;

    fn tiny_net() -> Net {
        Net::from_spec(&NetSpec {
            name: "tiny".into(),
            inputs: vec![("data".into(), vec![8, 4]), ("label".into(), vec![8])],
            layers: vec![
                LayerSpec {
                    name: "ip".into(),
                    kind: LayerKind::InnerProduct { num_output: 2 },
                    bottoms: vec!["data".into()],
                    tops: vec!["scores".into()],
                },
                LayerSpec {
                    name: "loss".into(),
                    kind: LayerKind::SoftmaxLoss,
                    bottoms: vec!["scores".into(), "label".into()],
                    tops: vec!["loss_out".into()],
                },
            ],
            seed: 5,
        })
    }

    fn load_separable(net: &mut Net) {
        // Class 0: positive first feature, class 1: negative.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let cls = i % 2;
            let sign = if cls == 0 { 1.0 } else { -1.0 };
            data.extend_from_slice(&[sign * 1.0, sign * 0.5, 0.1, -0.1]);
            labels.push(cls as f32);
        }
        net.blob_mut("data").data_mut().copy_from_slice(&data);
        net.blob_mut("label").data_mut().copy_from_slice(&labels);
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let mut net = tiny_net();
        load_separable(&mut net);
        let mut solver = Solver::new(
            net,
            SolverConfig {
                base_lr: 0.5,
                momentum: 0.9,
                momentum_kind: MomentumKind::Classical,
                weight_decay: 0.0,
                policy: LrPolicy::Fixed,
            },
        );
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let first = solver.step(&mut ctx);
        let mut last = first;
        for _ in 0..30 {
            load_separable(&mut solver.net);
            last = solver.step(&mut ctx);
        }
        assert!(
            last < first * 0.3,
            "loss should drop: first {first}, last {last}"
        );
    }

    #[test]
    fn lr_policies() {
        let net = tiny_net();
        let mut s = Solver::new(
            net,
            SolverConfig {
                base_lr: 1.0,
                momentum: 0.0,
                momentum_kind: MomentumKind::Classical,
                weight_decay: 0.0,
                policy: LrPolicy::Step {
                    gamma: 0.1,
                    step: 10,
                },
            },
        );
        assert!((s.current_lr() - 1.0).abs() < 1e-7);
        s.iter = 10;
        assert!((s.current_lr() - 0.1).abs() < 1e-7);
        s.iter = 25;
        assert!((s.current_lr() - 0.01).abs() < 1e-7);

        s.cfg.policy = LrPolicy::Inv {
            gamma: 1.0,
            power: 1.0,
        };
        s.iter = 0;
        assert!((s.current_lr() - 1.0).abs() < 1e-7);
        s.iter = 1;
        assert!((s.current_lr() - 0.5).abs() < 1e-7);

        s.cfg.policy = LrPolicy::Exp { gamma: 0.5 };
        s.iter = 3;
        assert!((s.current_lr() - 0.125).abs() < 1e-7);

        s.cfg.policy = LrPolicy::Poly {
            power: 2.0,
            max_iter: 10,
        };
        s.iter = 5;
        assert!((s.current_lr() - 0.25).abs() < 1e-7);
        s.iter = 10;
        assert_eq!(s.current_lr(), 0.0);
        s.iter = 20; // past max_iter clamps at 0
        assert_eq!(s.current_lr(), 0.0);
    }

    #[test]
    fn nesterov_converges_and_differs_from_classical() {
        let run = |kind: MomentumKind| -> Vec<f32> {
            let mut net = tiny_net();
            load_separable(&mut net);
            let mut s = Solver::new(
                net,
                SolverConfig {
                    base_lr: 0.2,
                    momentum: 0.9,
                    momentum_kind: kind,
                    weight_decay: 0.0,
                    policy: LrPolicy::Fixed,
                },
            );
            let mut ctx = ExecCtx::naive(DeviceProps::p100());
            (0..15)
                .map(|_| {
                    load_separable(&mut s.net);
                    s.step(&mut ctx)
                })
                .collect()
        };
        let classical = run(MomentumKind::Classical);
        let nesterov = run(MomentumKind::Nesterov);
        assert!(
            nesterov.last().unwrap() < &(classical[0] * 0.5),
            "Nesterov must converge: {nesterov:?}"
        );
        assert_ne!(
            classical.last().unwrap().to_bits(),
            nesterov.last().unwrap().to_bits(),
            "the two momentum rules must differ"
        );
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut net = tiny_net();
        load_separable(&mut net);
        let mut s = Solver::new(
            net,
            SolverConfig {
                base_lr: 0.1,
                momentum: 0.9,
                momentum_kind: MomentumKind::Classical,
                weight_decay: 0.0,
                policy: LrPolicy::Fixed,
            },
        );
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        s.step(&mut ctx);
        let v1: f32 = s.history[0].iter().map(|v| v.abs()).sum();
        load_separable(&mut s.net);
        s.step(&mut ctx);
        let v2: f32 = s.history[0].iter().map(|v| v.abs()).sum();
        assert!(v1 > 0.0);
        assert!(v2 != v1);
        assert_eq!(s.iteration(), 2);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        // Zero-gradient situation: decay alone should shrink weights.
        let net = tiny_net();
        let mut s = Solver::new(
            net,
            SolverConfig {
                base_lr: 0.1,
                momentum: 0.0,
                momentum_kind: MomentumKind::Classical,
                weight_decay: 1.0,
                policy: LrPolicy::Fixed,
            },
        );
        // Use uniform labels/zero data so gradients ~0 for weights.
        s.net.blob_mut("data").zero_data();
        s.net
            .blob_mut("label")
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = 0.0);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        // First step lazily initializes the parameters.
        s.step(&mut ctx);
        let w0: f32 = s.net.params_mut()[0].data_l2();
        assert!(w0 > 0.0, "weights must be initialized after first step");
        s.net.blob_mut("data").zero_data();
        s.step(&mut ctx);
        let w1: f32 = s.net.params_mut()[0].data_l2();
        assert!(w1 < w0, "decay must shrink: {w0} -> {w1}");
    }
}
