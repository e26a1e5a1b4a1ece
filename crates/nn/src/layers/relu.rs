//! ReLU activation.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use glp4nn::Phase;
use tensor::math::{relu, relu_backward};
use tensor::Blob;

/// Rectified linear unit, `top = max(bottom, 0)`.
pub struct ReluLayer {
    name: std::sync::Arc<str>,
    negative_slope: f32,
}

impl ReluLayer {
    /// Standard ReLU.
    pub fn new(name: &str) -> Self {
        ReluLayer {
            name: name.into(),
            negative_slope: 0.0,
        }
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky(name: &str, negative_slope: f32) -> Self {
        ReluLayer {
            name: name.into(),
            negative_slope,
        }
    }
}

impl Layer for ReluLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "ReLU"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        top[0].resize(bottom[0].shape());
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let n = bottom[0].count();
        ctx.dispatch_batch(&self.name, Phase::Forward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("relu", n, 1.0),
                &self.name,
                &[("in", n)],
                &[("out", n)],
            )]
        });
        if !ctx.compute {
            return;
        }
        top[0].data_mut().copy_from_slice(bottom[0].data());
        relu(top[0].data_mut(), self.negative_slope);
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let n = top[0].count();
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("relu_bwd", n, 1.0),
                &self.name,
                &[("in", n), ("dout", n)],
                &[("din", n)],
            )]
        });
        if !ctx.compute {
            return;
        }
        let (data, diff) = bottom[0].data_and_diff_mut();
        relu_backward(data, top[0].diff(), self.negative_slope, diff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    #[test]
    fn forward_clamps_negatives() {
        let mut l = ReluLayer::new("relu1");
        let bottom = Blob::from_data(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        l.forward(&mut ctx, &[&bottom], &mut top);
        assert_eq!(top[0].data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_by_forward_input() {
        let mut l = ReluLayer::new("relu1");
        let bottom = Blob::from_data(&[3], vec![-1.0, 2.0, 3.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        l.forward(&mut ctx, &[&bottom], &mut top);
        top[0].diff_mut().copy_from_slice(&[10.0, 10.0, 10.0]);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![bottom];
        l.backward(&mut ctx, &[&tops[0]], &mut bottoms);
        assert_eq!(bottoms[0].diff(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn leaky_variant() {
        let mut l = ReluLayer::leaky("lrelu", 0.5);
        let bottom = Blob::from_data(&[2], vec![-2.0, 2.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        l.forward(&mut ctx, &[&bottom], &mut top);
        assert_eq!(top[0].data(), &[-1.0, 2.0]);
    }
}
