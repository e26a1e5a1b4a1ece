//! Softmax + multinomial-logistic-loss layer (Caffe's `SoftmaxWithLoss`).
//!
//! Bottom 0 is the score matrix `[n × classes]`, bottom 1 the integer
//! labels `[n]` (stored as f32). Top is a single scalar loss.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use glp4nn::Phase;
use tensor::math::{cross_entropy, softmax_rows};
use tensor::Blob;

/// Softmax followed by cross-entropy against integer labels.
pub struct SoftmaxLossLayer {
    name: String,
    /// Cached probabilities from the forward pass.
    probs: Vec<f32>,
    classes: usize,
}

impl SoftmaxLossLayer {
    /// New loss layer.
    pub fn new(name: &str) -> Self {
        SoftmaxLossLayer {
            name: name.to_string(),
            probs: Vec::new(),
            classes: 0,
        }
    }

    /// Probabilities computed by the last forward (tests/diagnostics).
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }
}

impl Layer for SoftmaxLossLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "SoftmaxWithLoss"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        assert_eq!(bottom.len(), 2, "needs scores and labels");
        self.classes = bottom[0].count() / bottom[0].num();
        top[0].resize(&[1]);
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let scores = bottom[0];
        let n = scores.num();
        let sc = scores.count();
        ctx.dispatch_batch(&self.name, Phase::Forward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("softmax_loss", sc, 4.0),
                &self.name,
                &[("scores", sc), ("labels", n)],
                &[("probs", sc), ("loss", 1)],
            )]
        });
        if !ctx.compute {
            return;
        }
        self.probs.clear();
        self.probs.extend_from_slice(scores.data());
        softmax_rows(&mut self.probs, n, self.classes);
        let labels: Vec<usize> = bottom[1].data().iter().map(|&v| v as usize).collect();
        top[0].data_mut()[0] = cross_entropy(&self.probs, &labels, n, self.classes);
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let sc = bottom[0].count();
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("softmax_loss_bwd", sc, 1.0),
                &self.name,
                &[("probs", sc), ("labels", bottom[0].num()), ("dloss", 1)],
                &[("dscores", sc)],
            )]
        });
        if !ctx.compute {
            return;
        }
        // dL/dscore = (prob - onehot(label)) / n, scaled by top diff.
        let scale = top[0].diff()[0].max(f32::MIN_POSITIVE); // loss weight (1.0 by default)
        let n = bottom[0].num();
        let labels: Vec<usize> = bottom[1].data().iter().map(|&v| v as usize).collect();
        let d = bottom[0].diff_mut();
        d.copy_from_slice(&self.probs);
        for (r, &label) in labels.iter().enumerate() {
            d[r * self.classes + label] -= 1.0;
        }
        let inv = scale / n as f32;
        d.iter_mut().for_each(|v| *v *= inv);
    }

    fn loss_weight(&self) -> f32 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    fn ctx() -> ExecCtx {
        ExecCtx::naive(DeviceProps::p100())
    }

    fn setup(
        scores: Vec<f32>,
        labels: Vec<f32>,
        n: usize,
        c: usize,
    ) -> (SoftmaxLossLayer, Blob, Blob, Vec<Blob>) {
        let l = SoftmaxLossLayer::new("loss");
        let s = Blob::from_data(&[n, c], scores);
        let lb = Blob::from_data(&[n], labels);
        (l, s, lb, vec![Blob::empty()])
    }

    #[test]
    fn uniform_scores_give_log_c_loss() {
        let (mut l, s, lb, mut top) = setup(vec![0.0; 8], vec![1.0, 0.0], 2, 4);
        l.reshape(&[&s, &lb], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&s, &lb], &mut top);
        assert!((top[0].data()[0] - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_scores_give_small_loss() {
        let (mut l, s, lb, mut top) = setup(vec![10.0, -10.0, -10.0, 10.0], vec![0.0, 1.0], 2, 2);
        l.reshape(&[&s, &lb], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&s, &lb], &mut top);
        assert!(top[0].data()[0] < 1e-4);
    }

    #[test]
    fn gradient_is_prob_minus_onehot_over_n() {
        let (mut l, s, lb, mut top) = setup(vec![0.0, 0.0], vec![1.0], 1, 2);
        l.reshape(&[&s, &lb], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&s, &lb], &mut top);
        top[0].diff_mut()[0] = 1.0;
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![s, lb];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        let d = bottoms[0].diff();
        assert!((d[0] - 0.5).abs() < 1e-5);
        assert!((d[1] + 0.5).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_numeric() {
        let (mut l, mut s, lb, mut top) =
            setup(vec![0.3, -0.2, 0.7, 0.1, 0.5, -0.4], vec![2.0, 0.0], 2, 3);
        l.reshape(&[&s, &lb], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&s, &lb], &mut top);
        top[0].diff_mut()[0] = 1.0;
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![std::mem::replace(&mut s, Blob::empty()), lb];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        let analytic = bottoms[0].diff().to_vec();

        let eps = 1e-3f32;
        // Perturbs element `i` in place, then compares against `analytic[i]`.
        #[allow(clippy::needless_range_loop)]
        for i in 0..6 {
            let orig = bottoms[0].data()[i];
            let eval = |l: &mut SoftmaxLossLayer, c: &mut ExecCtx, s: &Blob, lb: &Blob| -> f32 {
                let mut t = vec![Blob::empty()];
                l.reshape(&[s, lb], &mut t);
                l.forward(c, &[s, lb], &mut t);
                t[0].data()[0]
            };
            bottoms[0].data_mut()[i] = orig + eps;
            let (b0, b1) = (bottoms[0].clone(), bottoms[1].clone());
            let p = eval(&mut l, &mut c, &b0, &b1);
            bottoms[0].data_mut()[i] = orig - eps;
            let (b0, b1) = (bottoms[0].clone(), bottoms[1].clone());
            let m = eval(&mut l, &mut c, &b0, &b1);
            bottoms[0].data_mut()[i] = orig;
            let numeric = (p - m) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-2,
                "d[{i}]: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn is_a_loss_layer() {
        assert_eq!(SoftmaxLossLayer::new("l").loss_weight(), 1.0);
    }
}
