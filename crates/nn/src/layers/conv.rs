//! The convolution layer — the layer GLP4NN optimizes in the paper.
//!
//! Forward (Algorithm 1) and backward (Algorithm 2) both consist of a loop
//! over the batch samples (line 2), each iteration launching the dependent
//! kernel chain `im2col → sgemm → gemmk` (forward) or
//! `im2col → sgemm(dW) → sgemm(dX) → col2im` (backward). These per-sample
//! chains are mutually independent — the *batch-level parallelism* the
//! framework exploits — so they are handed to [`ExecCtx::dispatch_split`]
//! as one group per sample.
//!
//! The CPU math is the same code in every dispatch mode, and its reduction
//! orders are fixed, so naive and GLP4NN runs produce bitwise-identical
//! outputs and gradients (convergence invariance, paper §3.3.1).

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use crate::layers::kernels::{full_range, sample_range};
use glp4nn::Phase;
use gpu_sim::BufferId;
use sanitizer::SampleSlots;
use tensor::gemm::{sgemm, Transpose};
use tensor::im2col::{col2im, im2col, ConvGeometry};
use tensor::pool::num_workers;
use tensor::{Blob, Filler};

/// Configuration of a convolution layer (one row of the paper's Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvConfig {
    /// Output feature maps (`C_o`).
    pub num_output: usize,
    /// Square filter edge (`F_h = F_w`).
    pub kernel: usize,
    /// Stride (`S`).
    pub stride: usize,
    /// Padding (`P`).
    pub pad: usize,
}

/// Ids of a convolution layer's named device buffers (`"{layer}/in"`,
/// `"{layer}/col"`, ...), hashed and registered once at construction: the
/// per-sample kernel groups name eight to ten of them per sample.
struct ConvBufs {
    input: BufferId,
    col: BufferId,
    w: BufferId,
    out: BufferId,
    bias: BufferId,
    dout: BufferId,
    dw_part: BufferId,
    dcol: BufferId,
    din: BufferId,
}

/// 2-D convolution over NCHW blobs via im2col + GEMM.
pub struct ConvLayer {
    name: std::sync::Arc<str>,
    bufs: ConvBufs,
    cfg: ConvConfig,
    geom: ConvGeometry,
    weight: Blob,
    bias: Blob,
    // Cached input geometry (set by reshape).
    ci: usize,
    ih: usize,
    iw: usize,
    oh: usize,
    ow: usize,
    initialized: bool,
    seed: u64,
}

impl ConvLayer {
    /// New convolution layer; the first reshape declares the weights as
    /// Xavier-filled from `seed`, and the first read of them draws them.
    pub fn new(name: &str, cfg: ConvConfig, seed: u64) -> Self {
        let buf = |which: &str| BufferId::from_label(&format!("{name}/{which}"));
        ConvLayer {
            name: name.into(),
            bufs: ConvBufs {
                input: buf("in"),
                col: buf("col"),
                w: buf("w"),
                out: buf("out"),
                bias: buf("bias"),
                dout: buf("dout"),
                dw_part: buf("dw.part"),
                dcol: buf("dcol"),
                din: buf("din"),
            },
            geom: ConvGeometry::square(cfg.kernel, cfg.stride, cfg.pad),
            cfg,
            weight: Blob::empty(),
            bias: Blob::empty(),
            ci: 0,
            ih: 0,
            iw: 0,
            oh: 0,
            ow: 0,
            initialized: false,
            seed,
        }
    }

    /// The layer's configuration.
    pub fn config(&self) -> ConvConfig {
        self.cfg
    }

    /// `K = C_i · F · F`, the GEMM reduction depth.
    fn k_dim(&self) -> usize {
        self.ci * self.cfg.kernel * self.cfg.kernel
    }

    /// Spatial output size `OH · OW`.
    fn ohw(&self) -> usize {
        self.oh * self.ow
    }

    /// Direct access to the weight blob (tests).
    pub fn weight(&self) -> &Blob {
        &self.weight
    }

    /// Whether this is a 1×1/stride-1/no-pad convolution, for which
    /// `im2col` is the identity and is skipped entirely (Caffe's own fast
    /// path; GoogLeNet's inception modules are full of these).
    fn is_1x1(&self) -> bool {
        self.cfg.kernel == 1 && self.cfg.stride == 1 && self.cfg.pad == 0
    }

    /// Per-sample forward kernel group. Each kernel declares the byte
    /// ranges it touches, so the schedule sanitizer can prove chunks of
    /// distinct samples write disjoint regions.
    fn forward_group(&self, tag: u64) -> Vec<gpu_sim::KernelDesc> {
        let i = tag;
        let in_r = sample_range(i, self.ci * self.ih * self.iw);
        let col_r = sample_range(i, self.k_dim() * self.ohw());
        let out_r = sample_range(i, self.cfg.num_output * self.ohw());
        let mut g = Vec::with_capacity(3);
        if !self.is_1x1() {
            g.push(
                kernels::im2col_kernel(self.ci, self.oh, self.ow, self.cfg.kernel, tag)
                    .reads(self.bufs.input, in_r)
                    .writes(self.bufs.col, col_r),
            );
        }
        // For 1×1/s1/p0 the GEMM reads the input image directly.
        let (gemm_src, gemm_src_r) = if self.is_1x1() {
            (self.bufs.input, in_r)
        } else {
            (self.bufs.col, col_r)
        };
        g.push(
            kernels::conv_gemm_kernel(self.cfg.num_output, self.k_dim(), self.ohw(), tag)
                .reads(self.bufs.w, full_range(self.cfg.num_output * self.k_dim()))
                .reads(gemm_src, gemm_src_r)
                .writes(self.bufs.out, out_r),
        );
        g.push(
            kernels::bias_kernel(self.cfg.num_output, self.ohw(), tag)
                .reads(self.bufs.bias, full_range(self.cfg.num_output))
                .reads(self.bufs.out, out_r)
                .writes(self.bufs.out, out_r),
        );
        g
    }

    /// Per-sample backward kernel group, with declared accesses. The
    /// weight gradient is accumulated into per-chunk partial buffers
    /// (`dw.part`, one slot per sample chunk) and reduced on the host in
    /// fixed order, so concurrent chunks never write the same region.
    fn backward_group(&self, tag: u64) -> Vec<gpu_sim::KernelDesc> {
        let i = tag;
        let co = self.cfg.num_output;
        let k = self.k_dim();
        let in_r = sample_range(i, self.ci * self.ih * self.iw);
        let col_r = sample_range(i, k * self.ohw());
        let dout_r = sample_range(i, co * self.ohw());
        let dw_part_r = sample_range(i, co * k);
        let mut g = Vec::with_capacity(4);
        if !self.is_1x1() {
            g.push(
                kernels::im2col_kernel(self.ci, self.oh, self.ow, self.cfg.kernel, tag)
                    .reads(self.bufs.input, in_r)
                    .writes(self.bufs.col, col_r),
            );
        }
        let (col_src, col_src_r) = if self.is_1x1() {
            (self.bufs.input, in_r)
        } else {
            (self.bufs.col, col_r)
        };
        // dW_partial = dTop · col^T
        g.push(
            kernels::conv_gemm_kernel(co, self.ohw(), k, tag)
                .reads(self.bufs.dout, dout_r)
                .reads(col_src, col_src_r)
                .writes(self.bufs.dw_part, dw_part_r),
        );
        // dcol = W^T · dTop; for 1×1 the column gradient *is* dIn.
        let (dcol_dst, dcol_dst_r) = if self.is_1x1() {
            (self.bufs.din, in_r)
        } else {
            (self.bufs.dcol, col_r)
        };
        g.push(
            kernels::conv_gemm_kernel(k, co, self.ohw(), tag)
                .reads(self.bufs.w, full_range(co * k))
                .reads(self.bufs.dout, dout_r)
                .writes(dcol_dst, dcol_dst_r),
        );
        if !self.is_1x1() {
            g.push(
                kernels::col2im_kernel(self.ci, self.ih, self.iw, self.cfg.kernel, tag)
                    .reads(self.bufs.dcol, col_r)
                    .writes(self.bufs.din, in_r),
            );
        }
        g
    }

    /// The batch-major buffers both kernel groups touch, with their
    /// per-sample strides: every access of sample `i`'s chain stays in slot
    /// `i` of these, and the weights and bias it only reads. The sanitizer
    /// admits a capture by checking each access against its slot.
    fn sample_slots(&self) -> SampleSlots {
        let (in_s, col_s) = (self.ci * self.ih * self.iw, self.k_dim() * self.ohw());
        let out_s = self.cfg.num_output * self.ohw();
        let b = &self.bufs;
        kernels::sample_slots([
            (b.input, in_s),
            (b.col, col_s),
            (b.out, out_s),
            (b.dout, out_s),
            (b.dw_part, self.cfg.num_output * self.k_dim()),
            (b.dcol, col_s),
            (b.din, in_s),
        ])
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Convolution"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        self.ci = b.channels();
        self.ih = b.height();
        self.iw = b.width();
        self.oh = self.geom.out_h(self.ih);
        self.ow = self.geom.out_w(self.iw);
        top[0].resize(&[b.num(), self.cfg.num_output, self.oh, self.ow]);
        if !self.initialized {
            let k = self.k_dim();
            // Declared, not drawn: the weights materialise at first touch.
            self.weight
                .resize_filled(&[self.cfg.num_output, k], Filler::Xavier, k, self.seed);
            self.bias.resize(&[self.cfg.num_output]);
            self.initialized = true;
        }
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let b = bottom[0];
        let n = b.num();

        // Simulated-GPU dispatch: one dependent chain per sample. Lazy:
        // once the site's execution plan is cached, the groups are never
        // rebuilt — the frozen plan replays directly.
        ctx.dispatch_split(
            &self.name,
            Phase::Forward,
            n,
            || Some(self.sample_slots()),
            || (0..n as u64).map(|i| self.forward_group(i)).collect(),
        );

        if !ctx.compute {
            return;
        }
        // Real math, parallel over samples (disjoint output rows).
        let co = self.cfg.num_output;
        let k = self.k_dim();
        let ohw = self.ohw();
        let (ci, ih, iw) = (self.ci, self.ih, self.iw);
        let geom = self.geom;
        let in_stride = ci * ih * iw;
        let out_stride = co * ohw;
        let weight = self.weight.data();
        let bias = self.bias.data();
        let bdata = b.data();
        let one_by_one = self.is_1x1();
        tensor::pool::parallel_for_rows(top[0].data_mut(), out_stride, |n0, chunk| {
            let mut col = vec![0.0f32; if one_by_one { 0 } else { k * ohw }];
            for (s, out) in chunk.chunks_mut(out_stride).enumerate() {
                let sample = n0 + s;
                let im = &bdata[sample * in_stride..(sample + 1) * in_stride];
                // For 1×1/s1/p0, im2col is the identity: GEMM directly on
                // the input (bitwise identical to the im2col path).
                let cols: &[f32] = if one_by_one {
                    im
                } else {
                    im2col(im, ci, ih, iw, &geom, &mut col);
                    &col
                };
                sgemm(
                    Transpose::No,
                    Transpose::No,
                    co,
                    ohw,
                    k,
                    1.0,
                    weight,
                    cols,
                    0.0,
                    out,
                );
                for c in 0..co {
                    let bv = bias[c];
                    for v in &mut out[c * ohw..(c + 1) * ohw] {
                        *v += bv;
                    }
                }
            }
        });
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let t = top[0];
        let n = t.num();

        ctx.dispatch_split(
            &self.name,
            Phase::Backward,
            n,
            || Some(self.sample_slots()),
            || (0..n as u64).map(|i| self.backward_group(i)).collect(),
        );

        if !ctx.compute {
            return;
        }
        let co = self.cfg.num_output;
        let k = self.k_dim();
        let ohw = self.ohw();
        let (ci, ih, iw) = (self.ci, self.ih, self.iw);
        let geom = self.geom;
        let in_stride = ci * ih * iw;
        let out_stride = co * ohw;
        let tdiff = t.diff();
        let (bdata, bdiff) = bottom[0].data_and_diff_mut();
        let bdata: &[f32] = bdata; // shared by the weight-gradient workers

        // Bias gradient: fixed sample order (deterministic).
        {
            let db = self.bias.diff_mut();
            for s in 0..n {
                let td = &tdiff[s * out_stride..(s + 1) * out_stride];
                for c in 0..co {
                    let sum: f32 = td[c * ohw..(c + 1) * ohw].iter().sum();
                    db[c] += sum;
                }
            }
        }

        // Weight gradient: per-chunk partials reduced in fixed chunk order.
        let one_by_one = self.is_1x1();
        {
            let wsize = co * k;
            let chunks = num_workers().min(n).max(1);
            let per = n.div_ceil(chunks);
            let mut partials = vec![0.0f32; chunks * wsize];
            std::thread::scope(|scope| {
                for (c, part) in partials.chunks_mut(wsize).enumerate() {
                    let tdiff = &tdiff;
                    scope.spawn(move || {
                        let mut col = vec![0.0f32; if one_by_one { 0 } else { k * ohw }];
                        let lo = c * per;
                        let hi = ((c + 1) * per).min(n);
                        for s in lo..hi {
                            let im = &bdata[s * in_stride..(s + 1) * in_stride];
                            let cols: &[f32] = if one_by_one {
                                im
                            } else {
                                im2col(im, ci, ih, iw, &geom, &mut col);
                                &col
                            };
                            let td = &tdiff[s * out_stride..(s + 1) * out_stride];
                            // dW += td[co×ohw] · col^T[ohw×k]
                            sgemm(
                                Transpose::No,
                                Transpose::Yes,
                                co,
                                k,
                                ohw,
                                1.0,
                                td,
                                cols,
                                1.0,
                                part,
                            );
                        }
                    });
                }
            });
            let dw = self.weight.diff_mut();
            for part in partials.chunks(wsize) {
                for (d, p) in dw.iter_mut().zip(part) {
                    *d += p;
                }
            }
        }

        // Bottom gradient: disjoint per-sample writes, parallel.
        let weight = self.weight.data();
        tensor::pool::parallel_for_rows(bdiff, in_stride, |n0, chunk| {
            let mut col_diff = vec![0.0f32; k * ohw];
            let mut im_diff = vec![0.0f32; if one_by_one { 0 } else { in_stride }];
            for (s, out) in chunk.chunks_mut(in_stride).enumerate() {
                let sample = n0 + s;
                let td = &tdiff[sample * out_stride..(sample + 1) * out_stride];
                // dcol = W^T[k×co] · td[co×ohw]; for 1×1 the column matrix
                // *is* the image gradient.
                sgemm(
                    Transpose::Yes,
                    Transpose::No,
                    k,
                    ohw,
                    co,
                    1.0,
                    weight,
                    td,
                    0.0,
                    &mut col_diff,
                );
                if one_by_one {
                    out.copy_from_slice(&col_diff);
                } else {
                    col2im(&col_diff, ci, ih, iw, &geom, &mut im_diff);
                    out.copy_from_slice(&im_diff);
                }
            }
        });
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

    fn forward_once(layer: &mut ConvLayer, ctx: &mut ExecCtx, bottom: &Blob) -> Blob {
        let mut top = vec![Blob::empty()];
        layer.reshape(&[bottom], &mut top);
        layer.forward(ctx, &[bottom], &mut top);
        top.pop().unwrap()
    }

    #[test]
    fn output_shape_follows_table5_formulas() {
        // CIFAR10 conv1: 3→32, k5 s1 p2 on 32x32 -> 32x32x32.
        let mut l = ConvLayer::new(
            "conv1",
            ConvConfig {
                num_output: 32,
                kernel: 5,
                stride: 1,
                pad: 2,
            },
            1,
        );
        let bottom = Blob::nchw(2, 3, 32, 32);
        let mut ctx = ctx();
        let top = forward_once(&mut l, &mut ctx, &bottom);
        assert_eq!(top.shape(), &[2, 32, 32, 32]);
    }

    #[test]
    fn known_convolution_value() {
        // 1 sample, 1 channel 3x3 input, 1 output, 3x3 kernel of ones,
        // no pad: output = sum of input.
        let mut l = ConvLayer::new(
            "c",
            ConvConfig {
                num_output: 1,
                kernel: 3,
                stride: 1,
                pad: 0,
            },
            1,
        );
        let bottom = Blob::from_data(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let mut ctx = ctx();
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        l.weight.data_mut().iter_mut().for_each(|v| *v = 1.0);
        l.bias.data_mut()[0] = 0.5;
        l.forward(&mut ctx, &[&bottom], &mut top);
        assert_eq!(top[0].count(), 1);
        assert!((top[0].data()[0] - 45.5).abs() < 1e-4);
    }

    #[test]
    fn emits_one_group_per_sample() {
        let mut l = ConvLayer::new(
            "conv1",
            ConvConfig {
                num_output: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            1,
        );
        let bottom = Blob::nchw(5, 2, 8, 8);
        let mut ctx = ctx();
        forward_once(&mut l, &mut ctx, &bottom);
        // 5 samples × (im2col, sgemm, gemmk).
        assert_eq!(ctx.device.trace().len(), 15);
        let names: Vec<_> = ctx.device.trace().iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"im2col"));
        assert!(names.contains(&"sgemm"));
        assert!(names.contains(&"gemmk"));
    }

    /// Finite-difference gradient check on a tiny conv layer.
    #[test]
    fn gradient_check() {
        let cfg = ConvConfig {
            num_output: 2,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut l = ConvLayer::new("c", cfg, 3);
        let mut bottom = Blob::from_data(
            &[2, 2, 4, 4],
            (0..64).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1).collect(),
        );
        let mut ctx = ctx();
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        l.forward(&mut ctx, &[&bottom], &mut top);

        // Loss = sum(top); dL/dtop = 1.
        top[0].diff_mut().iter_mut().for_each(|v| *v = 1.0);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![std::mem::replace(&mut bottom, Blob::empty())];
        l.backward(&mut ctx, &[&tops[0]], &mut bottoms);
        let analytic_w = l.weight.diff().to_vec();
        let analytic_x = bottoms[0].diff().to_vec();

        let eps = 1e-2f32;
        let fwd_sum = |l: &mut ConvLayer, ctx: &mut ExecCtx, b: &Blob| -> f32 {
            let mut t = vec![Blob::empty()];
            l.reshape(&[b], &mut t);
            l.forward(ctx, &[b], &mut t);
            t[0].data().iter().sum()
        };
        // Check a few weight entries.
        for &wi in &[0usize, 5, 17, 35] {
            let orig = l.weight.data()[wi];
            l.weight.data_mut()[wi] = orig + eps;
            let plus = fwd_sum(&mut l, &mut ctx, &bottoms[0]);
            l.weight.data_mut()[wi] = orig - eps;
            let minus = fwd_sum(&mut l, &mut ctx, &bottoms[0]);
            l.weight.data_mut()[wi] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic_w[wi]).abs() < 0.05 * analytic_w[wi].abs().max(1.0),
                "dW[{wi}]: numeric {numeric} vs analytic {}",
                analytic_w[wi]
            );
        }
        // Check a few input entries.
        for &xi in &[0usize, 13, 40, 63] {
            let orig = bottoms[0].data()[xi];
            bottoms[0].data_mut()[xi] = orig + eps;
            let plus = fwd_sum(&mut l, &mut ctx, &bottoms[0]);
            bottoms[0].data_mut()[xi] = orig - eps;
            let minus = fwd_sum(&mut l, &mut ctx, &bottoms[0]);
            bottoms[0].data_mut()[xi] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic_x[xi]).abs() < 0.05 * analytic_x[xi].abs().max(1.0),
                "dX[{xi}]: numeric {numeric} vs analytic {}",
                analytic_x[xi]
            );
        }
    }

    #[test]
    fn one_by_one_fast_path_skips_im2col_and_matches_gradient() {
        // Kernel groups contain no im2col for 1x1/s1/p0 ...
        let cfg = ConvConfig {
            num_output: 3,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let mut l = ConvLayer::new("c1x1", cfg, 5);
        let bottom = Blob::from_data(
            &[2, 4, 3, 3],
            (0..72).map(|i| ((i * 5 % 13) as f32 - 6.0) * 0.1).collect(),
        );
        let mut ctx = ctx();
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);
        l.forward(&mut ctx, &[&bottom], &mut top);
        assert!(
            ctx.device.trace().iter().all(|t| t.name != "im2col"),
            "1x1 conv must not launch im2col"
        );

        // ... and the gradients still pass a finite-difference check.
        top[0].diff_mut().iter_mut().for_each(|v| *v = 1.0);
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![bottom];
        l.backward(&mut ctx, &[&tops[0]], &mut bottoms);
        assert!(
            ctx.device.trace().iter().all(|t| t.name != "col2im"),
            "1x1 conv must not launch col2im"
        );
        let analytic = bottoms[0].diff().to_vec();
        let eps = 1e-2f32;
        let fwd_sum = |l: &mut ConvLayer, ctx: &mut ExecCtx, b: &Blob| -> f32 {
            let mut t = vec![Blob::empty()];
            l.reshape(&[b], &mut t);
            l.forward(ctx, &[b], &mut t);
            t[0].data().iter().sum()
        };
        for &xi in &[0usize, 20, 71] {
            let orig = bottoms[0].data()[xi];
            bottoms[0].data_mut()[xi] = orig + eps;
            let p = fwd_sum(&mut l, &mut ctx, &bottoms[0]);
            bottoms[0].data_mut()[xi] = orig - eps;
            let m = fwd_sum(&mut l, &mut ctx, &bottoms[0]);
            bottoms[0].data_mut()[xi] = orig;
            let numeric = (p - m) / (2.0 * eps);
            assert!(
                (numeric - analytic[xi]).abs() < 0.05 * analytic[xi].abs().max(1.0),
                "dX[{xi}]: numeric {numeric} vs analytic {}",
                analytic[xi]
            );
        }
    }

    #[test]
    fn per_sample_groups_declare_disjoint_writes() {
        let l = ConvLayer::new(
            "conv1",
            ConvConfig {
                num_output: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            1,
        );
        // Fake a reshape so geometry fields are populated.
        let mut l = l;
        let bottom = Blob::nchw(3, 2, 8, 8);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&bottom], &mut top);

        for mk in [ConvLayer::forward_group, ConvLayer::backward_group] {
            let a = mk(&l, 0);
            let b = mk(&l, 1);
            let mut union_a = gpu_sim::AccessSet::default();
            let mut union_b = gpu_sim::AccessSet::default();
            for kd in &a {
                assert!(!kd.accesses.is_empty(), "{} declares accesses", kd.name);
                union_a = gpu_sim::AccessSet::union(&union_a, &kd.accesses);
            }
            for kd in &b {
                union_b = gpu_sim::AccessSet::union(&union_b, &kd.accesses);
            }
            assert!(
                union_a.conflict_with(&union_b).is_none(),
                "sample chains 0 and 1 must touch disjoint regions"
            );
        }
    }

    #[test]
    fn forward_is_bitwise_deterministic() {
        let run = || {
            let mut l = ConvLayer::new(
                "c",
                ConvConfig {
                    num_output: 8,
                    kernel: 5,
                    stride: 1,
                    pad: 2,
                },
                9,
            );
            let bottom = Blob::from_data(
                &[4, 3, 16, 16],
                (0..3072).map(|i| ((i % 23) as f32 - 11.0) * 0.05).collect(),
            );
            let mut ctx = ctx();
            forward_once(&mut l, &mut ctx, &bottom).data().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stride_and_pad_respected() {
        // CaffeNet conv1: k11 s4 p0 on 227 -> 55.
        let mut l = ConvLayer::new(
            "conv1",
            ConvConfig {
                num_output: 4,
                kernel: 11,
                stride: 4,
                pad: 0,
            },
            1,
        );
        let bottom = Blob::nchw(1, 3, 227, 227);
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        let top = forward_once(&mut l, &mut ctx, &bottom);
        assert_eq!(top.shape(), &[1, 4, 55, 55]);
    }
}
