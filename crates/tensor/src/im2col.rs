//! `im2col` / `col2im` — the layout transforms that turn convolution into
//! GEMM (the first kernel of every conv layer's forward pass in the
//! paper's workflow example: "there are three kernels needed to be
//! computed, i.e., im2col, sgemm and gemmk").

use std::ops::Range;

/// Static geometry of a convolution: filter size, stride, padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Filter height (`F_h`).
    pub kernel_h: usize,
    /// Filter width (`F_w`).
    pub kernel_w: usize,
    /// Stride (`S`, same in both dims as in the paper's Table 5).
    pub stride: usize,
    /// Zero padding (`P`, same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Square-filter geometry (the paper's layer configs are all square).
    pub fn square(kernel: usize, stride: usize, pad: usize) -> Self {
        ConvGeometry {
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            pad,
        }
    }

    /// Output spatial extent for an input of `in_dim` pixels.
    pub fn out_h(&self, in_h: usize) -> usize {
        conv_out_dim(in_h, self.kernel_h, self.stride, self.pad)
    }

    /// Output width for an input of `in_w` pixels.
    pub fn out_w(&self, in_w: usize) -> usize {
        conv_out_dim(in_w, self.kernel_w, self.stride, self.pad)
    }
}

/// `(in + 2·pad − kernel) / stride + 1`.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(input + 2 * pad >= kernel, "kernel larger than padded input");
    (input + 2 * pad - kernel) / stride + 1
}

/// For a stride-1 convolution, the output columns `lo..hi` of one output
/// row whose tap `kw` lands inside the image (`ow + kw − pad ∈ 0..width`),
/// and the image column the first of them reads. Outside the span the tap
/// reads padding; the span is empty when the whole row does.
fn unit_stride_span(kw: usize, width: usize, pad: usize, out_w: usize) -> (Range<usize>, usize) {
    let lo = pad.saturating_sub(kw).min(out_w);
    let hi = (width + pad).saturating_sub(kw).min(out_w).max(lo);
    // `lo + kw − pad`: zero when the span starts past column 0 (`pad > kw`).
    // A tap past the right edge of a narrow image (`kw − pad ≥ width`) has
    // an empty span; its start still has to be a valid index into the row.
    (lo..hi, kw.saturating_sub(pad).min(width))
}

/// Expand one image `(channels × height × width)` into a column matrix of
/// shape `(channels·kernel_h·kernel_w) × (out_h·out_w)`, row-major.
///
/// Out-of-bounds (padding) taps contribute zeros.
pub fn im2col(
    im: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    geom: &ConvGeometry,
    col: &mut [f32],
) {
    let out_h = geom.out_h(height);
    let out_w = geom.out_w(width);
    assert_eq!(im.len(), channels * height * width, "image size mismatch");
    assert_eq!(
        col.len(),
        channels * geom.kernel_h * geom.kernel_w * out_h * out_w,
        "column buffer size mismatch"
    );

    let mut idx = 0usize;
    for c in 0..channels {
        let im_c = &im[c * height * width..(c + 1) * height * width];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                for oh in 0..out_h {
                    let out = &mut col[idx..idx + out_w];
                    idx += out_w;
                    let ih = (oh * geom.stride + kh) as isize - geom.pad as isize;
                    if ih < 0 || ih >= height as isize {
                        out.fill(0.0);
                        continue;
                    }
                    let row = &im_c[ih as usize * width..(ih as usize + 1) * width];
                    if geom.stride == 1 {
                        // One copy for the in-image span, zeros either side.
                        // The span is the same for every `oh`; asked for here
                        // so that only stride 1 computes it.
                        let (span, first) = unit_stride_span(kw, width, geom.pad, out_w);
                        out[..span.start].fill(0.0);
                        out[span.clone()].copy_from_slice(&row[first..first + span.len()]);
                        out[span.end..].fill(0.0);
                    } else {
                        for (ow, v) in out.iter_mut().enumerate() {
                            let iw = (ow * geom.stride + kw) as isize - geom.pad as isize;
                            *v = if iw < 0 || iw >= width as isize {
                                0.0
                            } else {
                                row[iw as usize]
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`]: scatter-add a column matrix back into an image
/// (used by the conv backward pass to form the input gradient).
pub fn col2im(
    col: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    geom: &ConvGeometry,
    im: &mut [f32],
) {
    let out_h = geom.out_h(height);
    let out_w = geom.out_w(width);
    assert_eq!(im.len(), channels * height * width, "image size mismatch");
    assert_eq!(
        col.len(),
        channels * geom.kernel_h * geom.kernel_w * out_h * out_w,
        "column buffer size mismatch"
    );
    im.iter_mut().for_each(|v| *v = 0.0);

    let mut idx = 0usize;
    for c in 0..channels {
        let im_c = &mut im[c * height * width..(c + 1) * height * width];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                for oh in 0..out_h {
                    let taps = &col[idx..idx + out_w];
                    idx += out_w;
                    let ih = (oh * geom.stride + kh) as isize - geom.pad as isize;
                    if ih < 0 || ih >= height as isize {
                        continue;
                    }
                    let row = &mut im_c[ih as usize * width..(ih as usize + 1) * width];
                    if geom.stride == 1 {
                        // The taps of one span hit distinct pixels, so each
                        // pixel still sees its adds in (kh, kw, oh) order.
                        let (span, first) = unit_stride_span(kw, width, geom.pad, out_w);
                        let pixels = &mut row[first..first + span.len()];
                        for (pv, tap) in pixels.iter_mut().zip(&taps[span.clone()]) {
                            *pv += tap;
                        }
                    } else {
                        for (ow, tap) in taps.iter().enumerate() {
                            let iw = (ow * geom.stride + kw) as isize - geom.pad as isize;
                            if iw >= 0 && iw < width as isize {
                                row[iw as usize] += tap;
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

    #[test]
    fn out_dim_formula() {
        // The paper's CaffeNet conv1: 227 input, 11 kernel, stride 4, pad 0 -> 55.
        assert_eq!(conv_out_dim(227, 11, 4, 0), 55);
        // CIFAR10 conv1: 32 input, 5 kernel, stride 1, pad 2 -> 32.
        assert_eq!(conv_out_dim(32, 5, 1, 2), 32);
        // Siamese conv1: 28 input, 5 kernel, stride 1, pad 0 -> 24.
        assert_eq!(conv_out_dim(28, 5, 1, 0), 24);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn out_dim_rejects_oversized_kernel() {
        conv_out_dim(3, 7, 1, 0);
    }

    #[test]
    fn identity_1x1_kernel() {
        // 1x1 kernel, stride 1, no pad: col == im.
        let im: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let geom = ConvGeometry::square(1, 1, 0);
        let mut col = vec![0.0f32; 12];
        im2col(&im, 3, 2, 2, &geom, &mut col);
        assert_eq!(col, im);
    }

    #[test]
    fn known_3x3_patch() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad -> 4 cols of 4 taps.
        #[rustfmt::skip]
        let im = vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ];
        let geom = ConvGeometry::square(2, 1, 0);
        let mut col = vec![0.0f32; 4 * 4];
        im2col(&im, 1, 3, 3, &geom, &mut col);
        // Row layout: tap (kh,kw) major, output position minor.
        // tap(0,0): positions (0,0),(0,1),(1,0),(1,1) -> 1,2,4,5
        assert_eq!(&col[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // tap(0,1): 2,3,5,6
        assert_eq!(&col[4..8], &[2.0, 3.0, 5.0, 6.0]);
        // tap(1,0): 4,5,7,8
        assert_eq!(&col[8..12], &[4.0, 5.0, 7.0, 8.0]);
        // tap(1,1): 5,6,8,9
        assert_eq!(&col[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_contributes_zeros() {
        let im = vec![1.0f32; 4]; // 1ch 2x2
        let geom = ConvGeometry::square(3, 1, 1); // out 2x2
        let mut col = vec![9.9f32; 9 * 4];
        im2col(&im, 1, 2, 2, &geom, &mut col);
        // Corner tap (0,0) at output (0,0) reads padded (-1,-1) -> 0.
        assert_eq!(col[0], 0.0);
        // Center tap (1,1) reads the image everywhere -> all ones.
        let center_row = 4; // tap index kh=1,kw=1 -> (1*3+1)=4
        assert_eq!(&col[center_row * 4..center_row * 4 + 4], &[1.0; 4]);
    }

    #[test]
    fn image_narrower_than_the_padding() {
        // 1x1 image under a 5x5 kernel, pad 2: only the centre tap sees the
        // pixel; taps 3 and 4 of a row start past the image's right edge.
        let geom = ConvGeometry::square(5, 1, 2);
        let mut col = vec![9.9f32; 25];
        im2col(&[7.0], 1, 1, 1, &geom, &mut col);
        let mut expected = vec![0.0f32; 25];
        expected[12] = 7.0;
        assert_eq!(col, expected);

        let mut im = [9.9f32];
        col2im(&[1.0; 25], 1, 1, 1, &geom, &mut im);
        assert_eq!(im, [1.0]);
    }

    #[test]
    fn col2im_counts_tap_multiplicity() {
        // col of all ones scattered back: each pixel accumulates the number
        // of kernel windows covering it.
        let geom = ConvGeometry::square(2, 1, 0);
        let col = vec![1.0f32; 4 * 4]; // from 3x3 image
        let mut im = vec![0.0f32; 9];
        col2im(&col, 1, 3, 3, &geom, &mut im);
        #[rustfmt::skip]
        let expected = vec![
            1.0, 2.0, 1.0,
            2.0, 4.0, 2.0,
            1.0, 2.0, 1.0,
        ];
        assert_eq!(im, expected);
    }

    #[test]
    fn stride_skips_pixels() {
        let im: Vec<f32> = (0..16).map(|i| i as f32).collect(); // 4x4
        let geom = ConvGeometry::square(2, 2, 0); // out 2x2
        let mut col = vec![0.0f32; 4 * 4];
        im2col(&im, 1, 4, 4, &geom, &mut col);
        // tap (0,0) samples (0,0),(0,2),(2,0),(2,2) -> 0,2,8,10
        assert_eq!(&col[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn multi_channel_layout() {
        // 2 channels: second channel's taps follow all of the first's.
        let im: Vec<f32> = (0..8).map(|i| i as f32).collect(); // 2ch 2x2
        let geom = ConvGeometry::square(1, 1, 0);
        let mut col = vec![0.0f32; 8];
        im2col(&im, 2, 2, 2, &geom, &mut col);
        assert_eq!(col, im);
    }
}
