//! Dropout (used by CaffeNet's fc6/fc7 and GoogLeNet).
//!
//! The mask is derived deterministically from `(seed, iteration)`, so the
//! naive and GLP4NN training runs see identical masks — a requirement for
//! the bitwise convergence-invariance demonstration.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use glp4nn::Phase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Blob;

/// Inverted dropout: surviving activations are scaled by `1/(1-ratio)` at
/// train time so inference needs no rescaling.
pub struct DropoutLayer {
    name: String,
    ratio: f32,
    seed: u64,
    iteration: u64,
    mask: Vec<bool>,
    /// When false (inference), dropout is the identity.
    pub train: bool,
}

impl DropoutLayer {
    /// New dropout layer dropping `ratio` of activations.
    pub fn new(name: &str, ratio: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&ratio), "ratio must be in [0, 1)");
        DropoutLayer {
            name: name.to_string(),
            ratio,
            seed,
            iteration: 0,
            mask: Vec::new(),
            train: true,
        }
    }
}

impl Layer for DropoutLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Dropout"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        top[0].resize(bottom[0].shape());
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let n = bottom[0].count();
        ctx.dispatch_batch(&self.name, Phase::Forward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("dropout", n, 2.0),
                &self.name,
                &[("in", n)],
                &[("out", n), ("mask", n)],
            )]
        });
        if !ctx.compute {
            return;
        }
        let b = bottom[0];
        if !self.train || self.ratio == 0.0 {
            top[0].data_mut().copy_from_slice(b.data());
            self.mask.clear();
            self.iteration += 1;
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.iteration.wrapping_mul(0x9E3779B9));
        self.iteration += 1;
        let scale = 1.0 / (1.0 - self.ratio);
        self.mask.clear();
        self.mask
            .extend((0..b.count()).map(|_| rng.gen::<f32>() >= self.ratio));
        let (t, data) = (top[0].data_mut(), b.data());
        for (i, v) in t.iter_mut().enumerate().take(b.count()) {
            *v = if self.mask[i] { data[i] * scale } else { 0.0 };
        }
    }

    fn set_train(&mut self, train: bool) {
        self.train = train;
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let n = top[0].count();
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("dropout_bwd", n, 1.0),
                &self.name,
                &[("dout", n), ("mask", n)],
                &[("din", n)],
            )]
        });
        if !ctx.compute {
            return;
        }
        let d = bottom[0].diff_mut();
        if self.mask.is_empty() {
            d.copy_from_slice(top[0].diff());
            return;
        }
        let (scale, tdiff) = (1.0 / (1.0 - self.ratio), top[0].diff());
        for (i, v) in d.iter_mut().enumerate() {
            *v = if self.mask[i] { tdiff[i] * scale } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    fn ctx() -> ExecCtx {
        ExecCtx::naive(DeviceProps::p100())
    }

    #[test]
    fn drops_roughly_ratio_fraction() {
        let mut l = DropoutLayer::new("drop", 0.5, 7);
        let bottom = Blob::from_data(&[10_000], vec![1.0; 10_000]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        let zeros = top[0].data().iter().filter(|&&v| v == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros = {zeros}");
        // Survivors scaled by 2.
        assert!(top[0]
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn identity_in_inference_mode() {
        let mut l = DropoutLayer::new("drop", 0.5, 7);
        l.train = false;
        let bottom = Blob::from_data(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        assert_eq!(top[0].data(), bottom.data());
    }

    #[test]
    fn mask_is_deterministic_per_iteration() {
        let run = |iters: usize| -> Vec<f32> {
            let mut l = DropoutLayer::new("drop", 0.3, 42);
            let bottom = Blob::from_data(&[64], vec![1.0; 64]);
            let mut top = vec![Blob::empty()];
            l.reshape(&[&bottom], &mut top);
            let mut c = ctx();
            for _ in 0..iters {
                l.forward(&mut c, &[&bottom], &mut top);
            }
            top[0].data().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(1), run(2), "mask changes across iterations");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut l = DropoutLayer::new("drop", 0.5, 3);
        let bottom = Blob::from_data(&[128], vec![1.0; 128]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        top[0].diff_mut().iter_mut().for_each(|v| *v = 1.0);
        let fwd = top[0].data().to_vec();
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![bottom];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        for (i, f) in fwd.iter().enumerate().take(128) {
            assert_eq!(
                *f == 0.0,
                bottoms[0].diff()[i] == 0.0,
                "mask mismatch at {i}"
            );
        }
    }
}
