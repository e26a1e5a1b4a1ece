//! Local response normalization (across channels) — used by CaffeNet and
//! GoogLeNet.
//!
//! `top = bottom / (k + α/size · Σ_{c' in window} bottom_{c'}²)^β`.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use glp4nn::Phase;
use tensor::Blob;

/// Across-channel LRN with Krizhevsky's defaults.
pub struct LrnLayer {
    name: std::sync::Arc<str>,
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
    /// `scale = k + α/size · window-sum of squares`, cached for backward.
    scale: Vec<f32>,
}

impl LrnLayer {
    /// LRN with AlexNet defaults (`size=5, α=1e-4, β=0.75, k=1`).
    pub fn new(name: &str) -> Self {
        Self::with_params(name, 5, 1e-4, 0.75, 1.0)
    }

    /// Fully parameterized LRN.
    fn with_params(name: &str, size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        assert!(size % 2 == 1, "LRN size must be odd");
        LrnLayer {
            name: name.into(),
            size,
            alpha,
            beta,
            k,
            scale: Vec::new(),
        }
    }
}

impl Layer for LrnLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "LRN"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        top[0].resize(bottom[0].shape());
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        let n = b.count();
        ctx.dispatch_batch(&self.name, Phase::Forward, || {
            vec![
                kernels::declare_io(
                    kernels::elemwise_kernel("lrn_fill_scale", n, self.size as f64),
                    &self.name,
                    &[("in", n)],
                    &[("scale", n)],
                ),
                kernels::declare_io(
                    kernels::elemwise_kernel("lrn_output", n, 2.0),
                    &self.name,
                    &[("in", n), ("scale", n)],
                    &[("out", n)],
                ),
            ]
        });
        if !ctx.compute {
            return;
        }
        let (n, c, h, w) = (b.num(), b.channels(), b.height(), b.width());
        let half = self.size / 2;
        let data = b.data();
        self.scale.resize(data.len(), 0.0);
        let spatial = h * w;
        for nn in 0..n {
            for cc in 0..c {
                let lo = cc.saturating_sub(half);
                let hi = (cc + half + 1).min(c);
                for s in 0..spatial {
                    let mut acc = 0.0f32;
                    for c2 in lo..hi {
                        let v = data[(nn * c + c2) * spatial + s];
                        acc += v * v;
                    }
                    let idx = (nn * c + cc) * spatial + s;
                    self.scale[idx] = self.k + self.alpha / self.size as f32 * acc;
                }
            }
        }
        let t = top[0].data_mut();
        for i in 0..data.len() {
            t[i] = data[i] * self.scale[i].powf(-self.beta);
        }
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let t = top[0];
        let n = t.count();
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("lrn_bwd", n, self.size as f64 * 2.0),
                &self.name,
                &[("in", n), ("out", n), ("scale", n), ("dout", n)],
                &[("din", n)],
            )]
        });
        if !ctx.compute {
            return;
        }
        // dBottom_i = dTop_i · scale_i^{-β}
        //           - 2αβ/size · bottom_i · Σ_{j: i in window(j)} dTop_j · top_j / scale_j
        let b = &mut bottom[0];
        let (n, c, h, w) = (b.num(), b.channels(), b.height(), b.width());
        let spatial = h * w;
        let half = self.size / 2;
        let (data, bd) = b.data_and_diff_mut();
        let (tdata, tdiff) = (t.data(), t.diff());
        let factor = 2.0 * self.alpha * self.beta / self.size as f32;
        for nn in 0..n {
            for cc in 0..c {
                for s in 0..spatial {
                    let idx = (nn * c + cc) * spatial + s;
                    let mut grad = tdiff[idx] * self.scale[idx].powf(-self.beta);
                    // Windows centered at c2 that contain cc.
                    let lo = cc.saturating_sub(half);
                    let hi = (cc + half + 1).min(c);
                    let mut cross = 0.0f32;
                    for c2 in lo..hi {
                        let j = (nn * c + c2) * spatial + s;
                        cross += tdiff[j] * tdata[j] / self.scale[j];
                    }
                    grad -= factor * data[idx] * cross;
                    bd[idx] = grad;
                }
            }
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
    fn normalizes_by_window_energy() {
        let mut l = LrnLayer::with_params("lrn", 3, 1.0, 1.0, 1.0);
        // 3 channels, single pixel: [1, 2, 2].
        let bottom = Blob::from_data(&[1, 3, 1, 1], vec![1.0, 2.0, 2.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        // Channel 0 window {0,1}: scale = 1 + (1/3)(1+4) = 8/3; out = 1/(8/3) = 0.375.
        assert!((top[0].data()[0] - 0.375).abs() < 1e-5);
        // Channel 1 window {0,1,2}: scale = 1 + (1/3)(1+4+4) = 4; out = 0.5.
        assert!((top[0].data()[1] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn identity_when_alpha_zero() {
        let mut l = LrnLayer::with_params("lrn", 5, 0.0, 0.75, 1.0);
        let bottom = Blob::from_data(&[1, 2, 1, 2], vec![1.0, -2.0, 3.0, 0.5]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        assert_eq!(top[0].data(), bottom.data());
    }

    #[test]
    fn gradient_check_numeric() {
        let mut l = LrnLayer::with_params("lrn", 3, 0.5, 0.75, 2.0);
        let mut bottom = Blob::from_data(
            &[1, 4, 1, 2],
            vec![0.5, -0.3, 0.8, 0.2, -0.6, 0.4, 0.1, 0.9],
        );
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        top[0].diff_mut().iter_mut().for_each(|v| *v = 1.0);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![std::mem::replace(&mut bottom, Blob::empty())];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        let analytic = bottoms[0].diff().to_vec();

        let eps = 1e-3f32;
        // Perturbs element `i` in place, then compares against `analytic[i]`.
        #[allow(clippy::needless_range_loop)]
        for i in 0..8 {
            let orig = bottoms[0].data()[i];
            let eval = |l: &mut LrnLayer, c: &mut ExecCtx, b: &Blob| -> f32 {
                let mut t = vec![Blob::empty()];
                l.reshape(&[b], &mut t);
                l.forward(c, &[b], &mut t);
                t[0].data().iter().sum()
            };
            bottoms[0].data_mut()[i] = orig + eps;
            let b = bottoms[0].clone();
            let p = eval(&mut l, &mut c, &b);
            bottoms[0].data_mut()[i] = orig - eps;
            let b = bottoms[0].clone();
            let m = eval(&mut l, &mut c, &b);
            bottoms[0].data_mut()[i] = orig;
            let numeric = (p - m) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 2e-2,
                "d[{i}]: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_window_rejected() {
        LrnLayer::with_params("lrn", 4, 1.0, 1.0, 1.0);
    }
}
