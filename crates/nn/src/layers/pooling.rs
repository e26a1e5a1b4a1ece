//! Max / average pooling — with convolution, one of the two layers that
//! "dominate the forward execution during the training of a CNN" (§2.2).
//! Left on the default stream, as the paper only applies GLP4NN to
//! convolutions.

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use crate::layers::kernels::{full_range, sample_range};
use glp4nn::Phase;
use gpu_sim::BufferId;
use tensor::im2col::conv_out_dim;
use tensor::Blob;

/// Pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMethod {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Average,
}

/// Ids of a pooling layer's named device buffers, hashed and registered
/// once at construction (as `ConvBufs` are).
struct PoolBufs {
    input: BufferId,
    out: BufferId,
    argmax: BufferId,
    dout: BufferId,
    din: BufferId,
}

/// Spatial pooling over NCHW blobs.
pub struct PoolingLayer {
    name: String,
    bufs: PoolBufs,
    method: PoolMethod,
    kernel: usize,
    stride: usize,
    /// Argmax indices stashed by the forward pass (max pooling backward).
    max_idx: Vec<usize>,
    oh: usize,
    ow: usize,
}

impl PoolingLayer {
    /// New pooling layer with a square window.
    pub fn new(name: &str, method: PoolMethod, kernel: usize, stride: usize) -> Self {
        let buf = |which: &str| BufferId::from_label(&format!("{name}/{which}"));
        PoolingLayer {
            name: name.to_string(),
            bufs: PoolBufs {
                input: buf("in"),
                out: buf("out"),
                argmax: buf("argmax"),
                dout: buf("dout"),
                din: buf("din"),
            },
            method,
            kernel,
            stride,
            max_idx: Vec::new(),
            oh: 0,
            ow: 0,
        }
    }
}

impl Layer for PoolingLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Pooling"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        // Caffe uses ceil semantics for pooling output dims.
        let out = |i: usize| {
            if i < self.kernel {
                1
            } else {
                (i - self.kernel).div_ceil(self.stride) + 1
            }
        };
        self.oh = out(b.height());
        self.ow = out(b.width());
        let _ = conv_out_dim; // floor variant unused here, kept for parity
        top[0].resize(&[b.num(), b.channels(), self.oh, self.ow]);
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        let (n, c, ih, iw) = (b.num(), b.channels(), b.height(), b.width());
        let (oh, ow) = (self.oh, self.ow);

        let (in_buf, out_buf, idx_buf) = (self.bufs.input, self.bufs.out, self.bufs.argmax);
        if ctx.batch_parallel_all {
            // Extension (paper §3.3.1): pooling processes samples
            // independently too, so it can use the same per-sample group
            // dispatch as convolutions. Each chunk declares its sample's
            // regions so the sanitizer can prove chunks disjoint.
            let kernel = self.kernel;
            ctx.dispatch_split(
                &self.name,
                Phase::Forward,
                n,
                || {
                    Some(
                        sanitizer::SymGroupSpec::new().kernel(
                            sanitizer::SymKernel::new("pool")
                                .reads(in_buf, kernels::sym_sample(c * ih * iw))
                                .writes(out_buf, kernels::sym_sample(c * oh * ow))
                                .writes(idx_buf, kernels::sym_sample(c * oh * ow)),
                        ),
                    )
                },
                || {
                    (0..n as u64)
                        .map(|i| {
                            vec![kernels::pool_kernel("pool", c * oh * ow, kernel)
                                .with_tag(i)
                                .reads(in_buf, sample_range(i, c * ih * iw))
                                .writes(out_buf, sample_range(i, c * oh * ow))
                                .writes(idx_buf, sample_range(i, c * oh * ow))]
                        })
                        .collect()
                },
            );
        } else {
            ctx.dispatch_batch(&self.name, Phase::Forward, || {
                vec![kernels::pool_kernel("pool", n * c * oh * ow, self.kernel)
                    .reads(in_buf, full_range(n * c * ih * iw))
                    .writes(out_buf, full_range(n * c * oh * ow))
                    .writes(idx_buf, full_range(n * c * oh * ow))]
            });
        }
        if !ctx.compute {
            return;
        }

        let t = top[0].data_mut();
        self.max_idx.resize(t.len(), 0);
        let data = b.data();
        for nn in 0..n {
            for cc in 0..c {
                let in_base = (nn * c + cc) * ih * iw;
                let out_base = (nn * c + cc) * oh * ow;
                for y in 0..oh {
                    for x in 0..ow {
                        let h0 = y * self.stride;
                        let w0 = x * self.stride;
                        let h1 = (h0 + self.kernel).min(ih);
                        let w1 = (w0 + self.kernel).min(iw);
                        let oidx = out_base + y * ow + x;
                        match self.method {
                            PoolMethod::Max => {
                                let mut best = f32::NEG_INFINITY;
                                let mut best_i = in_base + h0 * iw + w0;
                                for hh in h0..h1 {
                                    for ww in w0..w1 {
                                        let i = in_base + hh * iw + ww;
                                        if data[i] > best {
                                            best = data[i];
                                            best_i = i;
                                        }
                                    }
                                }
                                t[oidx] = best;
                                self.max_idx[oidx] = best_i;
                            }
                            PoolMethod::Average => {
                                let mut sum = 0.0f32;
                                for hh in h0..h1 {
                                    for ww in w0..w1 {
                                        sum += data[in_base + hh * iw + ww];
                                    }
                                }
                                t[oidx] = sum / ((h1 - h0) * (w1 - w0)) as f32;
                            }
                        }
                    }
                }
            }
        }
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let t = top[0];
        let out_elems = t.count();
        let in_elems = bottom[0].count();
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![kernels::pool_kernel("pool_bwd", out_elems, self.kernel)
                .reads(self.bufs.dout, full_range(out_elems))
                .reads(self.bufs.argmax, full_range(out_elems))
                .writes(self.bufs.din, full_range(in_elems))]
        });
        if !ctx.compute {
            return;
        }
        let b = &mut bottom[0];
        let (ih, iw) = (b.height(), b.width());
        let (c,) = (b.channels(),);
        let bd = b.diff_mut();
        bd.iter_mut().for_each(|v| *v = 0.0);
        let tdiff = t.diff();
        match self.method {
            PoolMethod::Max => {
                for (oidx, &g) in tdiff.iter().enumerate() {
                    bd[self.max_idx[oidx]] += g;
                }
            }
            PoolMethod::Average => {
                let (oh, ow) = (self.oh, self.ow);
                let n = t.num();
                for nn in 0..n {
                    for cc in 0..c {
                        let in_base = (nn * c + cc) * ih * iw;
                        let out_base = (nn * c + cc) * oh * ow;
                        for y in 0..oh {
                            for x in 0..ow {
                                let h0 = y * self.stride;
                                let w0 = x * self.stride;
                                let h1 = (h0 + self.kernel).min(ih);
                                let w1 = (w0 + self.kernel).min(iw);
                                let g =
                                    tdiff[out_base + y * ow + x] / ((h1 - h0) * (w1 - w0)) as f32;
                                for hh in h0..h1 {
                                    for ww in w0..w1 {
                                        bd[in_base + hh * iw + ww] += g;
                                    }
                                }
                            }
                        }
                    }
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
    fn max_pool_2x2() {
        let mut l = PoolingLayer::new("pool1", PoolMethod::Max, 2, 2);
        #[rustfmt::skip]
        let bottom = Blob::from_data(&[1, 1, 4, 4], vec![
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
            0.0, 0.0, 1.0, 0.0,
            0.0, 9.0, 0.0, 0.0,
        ]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        assert_eq!(top[0].shape(), &[1, 1, 2, 2]);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        assert_eq!(top[0].data(), &[4.0, 8.0, 9.0, 1.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut l = PoolingLayer::new("pool1", PoolMethod::Max, 2, 2);
        let bottom = Blob::from_data(&[1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        top[0].diff_mut()[0] = 7.0;
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![bottom];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        assert_eq!(bottoms[0].diff(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn average_pool_and_backward() {
        let mut l = PoolingLayer::new("p", PoolMethod::Average, 2, 2);
        let bottom = Blob::from_data(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        assert_eq!(top[0].data(), &[3.0]);
        top[0].diff_mut()[0] = 4.0;
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![bottom];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        assert_eq!(bottoms[0].diff(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn ceil_output_dims_like_caffe() {
        // 3x3 input, 2x2 kernel stride 2 -> ceil((3-2)/2)+1 = 2.
        let mut l = PoolingLayer::new("p", PoolMethod::Max, 2, 2);
        let bottom = Blob::nchw(1, 1, 3, 3);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        assert_eq!(top[0].shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn batch_parallel_extension_emits_per_sample_groups() {
        let mut l = PoolingLayer::new("p", PoolMethod::Max, 2, 2);
        let bottom = Blob::nchw(6, 4, 8, 8);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ExecCtx::glp4nn(DeviceProps::p100()).batch_parallel_all();
        c.net_name = "test".into();
        l.forward(&mut c, &[&bottom], &mut top);
        // One kernel per sample (profiling run records them serially).
        assert_eq!(c.device.trace().len(), 6);
        // Second run goes concurrent via the analyzer's plan.
        l.forward(&mut c, &[&bottom], &mut top);
        let key = glp4nn::LayerKey::forward("test", "p").with_chunks(6);
        assert!(c.glp.as_ref().unwrap().plan_for(0, &key).is_some());
        // Math identical to the whole-batch path.
        let mut l2 = PoolingLayer::new("p", PoolMethod::Max, 2, 2);
        let mut top2 = vec![Blob::empty()];
        l2.reshape(&[&bottom], &mut top2);
        let mut c2 = ExecCtx::naive(DeviceProps::p100());
        l2.forward(&mut c2, &[&bottom], &mut top2);
        assert_eq!(top[0].data(), top2[0].data());
    }

    #[test]
    fn enqueues_pool_kernel() {
        let mut l = PoolingLayer::new("p", PoolMethod::Max, 3, 2);
        let bottom = Blob::nchw(2, 4, 10, 10);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&bottom], &mut top);
        assert_eq!(c.device.trace().len(), 1);
        assert_eq!(c.device.trace()[0].name, "pool");
    }
}
