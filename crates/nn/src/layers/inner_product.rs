//! Fully-connected (inner product) layer.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use glp4nn::Phase;
use tensor::gemm::{sgemm, Transpose};
use tensor::{Blob, Filler};

/// `top[n × out] = bottom[n × in] · W^T + bias`.
pub struct InnerProductLayer {
    name: std::sync::Arc<str>,
    num_output: usize,
    weight: Blob, // [out, in]
    bias: Blob,   // [out]
    input_dim: usize,
    initialized: bool,
    seed: u64,
}

impl InnerProductLayer {
    /// New FC layer with `num_output` units.
    pub fn new(name: &str, num_output: usize, seed: u64) -> Self {
        InnerProductLayer {
            name: name.into(),
            num_output,
            weight: Blob::empty(),
            bias: Blob::empty(),
            input_dim: 0,
            initialized: false,
            seed,
        }
    }
}

impl Layer for InnerProductLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "InnerProduct"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        self.input_dim = b.count() / b.num();
        top[0].resize(&[b.num(), self.num_output]);
        if !self.initialized {
            // Declared, not drawn: the weights materialise at first touch.
            self.weight.resize_filled(
                &[self.num_output, self.input_dim],
                Filler::Xavier,
                self.input_dim,
                self.seed,
            );
            self.bias.resize(&[self.num_output]);
            self.initialized = true;
        }
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        let n = b.num();
        let in_elems = n * self.input_dim;
        let out_elems = n * self.num_output;
        let w_elems = self.num_output * self.input_dim;
        ctx.dispatch_batch(&self.name, Phase::Forward, || {
            vec![kernels::declare_io(
                kernels::fc_gemm_kernel(n, self.num_output, self.input_dim),
                &self.name,
                &[("in", in_elems), ("w", w_elems), ("bias", self.num_output)],
                &[("out", out_elems)],
            )]
        });
        if !ctx.compute {
            return;
        }
        // top = bottom · W^T
        sgemm(
            Transpose::No,
            Transpose::Yes,
            n,
            self.num_output,
            self.input_dim,
            1.0,
            b.data(),
            self.weight.data(),
            0.0,
            top[0].data_mut(),
        );
        let t = top[0].data_mut();
        for row in t.chunks_mut(self.num_output) {
            for (v, bv) in row.iter_mut().zip(self.bias.data()) {
                *v += bv;
            }
        }
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let t = top[0];
        let n = t.num();
        let in_elems = n * self.input_dim;
        let out_elems = n * self.num_output;
        let w_elems = self.num_output * self.input_dim;
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![
                kernels::declare_io(
                    kernels::fc_gemm_kernel(self.num_output, self.input_dim, n),
                    &self.name,
                    &[("dout", out_elems), ("in", in_elems)],
                    &[("dw", w_elems)],
                ),
                kernels::declare_io(
                    kernels::fc_gemm_kernel(n, self.input_dim, self.num_output),
                    &self.name,
                    &[("dout", out_elems), ("w", w_elems)],
                    &[("din", in_elems)],
                ),
            ]
        });
        if !ctx.compute {
            return;
        }
        let b = &mut bottom[0];
        // dW += dTop^T[out × n] · bottom[n × in]
        sgemm(
            Transpose::Yes,
            Transpose::No,
            self.num_output,
            self.input_dim,
            n,
            1.0,
            t.diff(),
            b.data(),
            1.0,
            self.weight.diff_mut(),
        );
        // db += column sums of dTop.
        {
            let db = self.bias.diff_mut();
            for row in t.diff().chunks(self.num_output) {
                for (d, g) in db.iter_mut().zip(row) {
                    *d += g;
                }
            }
        }
        // dBottom = dTop[n × out] · W[out × in]
        sgemm(
            Transpose::No,
            Transpose::No,
            n,
            self.input_dim,
            self.num_output,
            1.0,
            t.diff(),
            self.weight.data(),
            0.0,
            b.diff_mut(),
        );
    }

    fn params_mut(&mut self) -> Vec<&mut Blob> {
        vec![&mut self.weight, &mut self.bias]
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
    fn forward_known_values() {
        let mut l = InnerProductLayer::new("ip", 2, 1);
        let bottom = Blob::from_data(&[1, 3], vec![1.0, 2.0, 3.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        l.weight
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        l.bias.data_mut().copy_from_slice(&[0.5, -0.5]);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        assert_eq!(top[0].data(), &[1.5, 4.5]);
    }

    #[test]
    fn flattens_4d_input() {
        let mut l = InnerProductLayer::new("ip", 4, 1);
        let bottom = Blob::nchw(2, 3, 4, 4);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        assert_eq!(top[0].shape(), &[2, 4]);
        assert_eq!(l.weight.shape(), &[4, 48]);
    }

    #[test]
    fn gradient_check() {
        let mut l = InnerProductLayer::new("ip", 3, 5);
        let mut bottom = Blob::from_data(&[2, 4], (0..8).map(|i| i as f32 * 0.3 - 1.0).collect());
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        top[0].diff_mut().iter_mut().for_each(|v| *v = 1.0);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![std::mem::replace(&mut bottom, Blob::empty())];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        let dw = l.weight.diff().to_vec();
        let dx = bottoms[0].diff().to_vec();

        let eps = 1e-2f32;
        let fwd_sum = |l: &mut InnerProductLayer, c: &mut ExecCtx, b: &Blob| -> f32 {
            let mut t = vec![Blob::empty()];
            l.reshape(&[b], &mut t);
            l.forward(c, &[b], &mut t);
            t[0].data().iter().sum()
        };
        for &wi in &[0usize, 5, 11] {
            let orig = l.weight.data()[wi];
            l.weight.data_mut()[wi] = orig + eps;
            let p = fwd_sum(&mut l, &mut c, &bottoms[0]);
            l.weight.data_mut()[wi] = orig - eps;
            let m = fwd_sum(&mut l, &mut c, &bottoms[0]);
            l.weight.data_mut()[wi] = orig;
            let numeric = (p - m) / (2.0 * eps);
            assert!((numeric - dw[wi]).abs() < 0.03 * dw[wi].abs().max(1.0));
        }
        for &xi in &[0usize, 3, 7] {
            let orig = bottoms[0].data()[xi];
            bottoms[0].data_mut()[xi] = orig + eps;
            let p = fwd_sum(&mut l, &mut c, &bottoms[0]);
            bottoms[0].data_mut()[xi] = orig - eps;
            let m = fwd_sum(&mut l, &mut c, &bottoms[0]);
            bottoms[0].data_mut()[xi] = orig;
            let numeric = (p - m) / (2.0 * eps);
            assert!((numeric - dx[xi]).abs() < 0.03 * dx[xi].abs().max(1.0));
        }
    }

    #[test]
    fn bias_gradient_sums_rows() {
        let mut l = InnerProductLayer::new("ip", 2, 1);
        let bottom = Blob::from_data(&[2, 2], vec![1.0; 4]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        top[0].diff_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![bottom];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        assert_eq!(l.bias.diff(), &[4.0, 6.0]);
    }
}
