//! Property tests for the numeric substrate.
//!
//! The `oracle_*` functions are the kernels as they stood before the
//! tiled dot arm and the span copies: one scalar loop per element. The
//! bitwise properties compare against them with `to_bits()`, because the
//! trained-weights digest the benchmark pins moves on a single ulp.

use proptest::prelude::*;
use tensor::gemm::{sgemm, Transpose};
use tensor::im2col::{col2im, im2col, ConvGeometry};

fn naive_gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// `sgemm` as three plain loops per arm (one `acc` chain per element in
/// the dot arms, a zero-skipping axpy in the others), single-threaded.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
fn oracle_sgemm(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            for i in 0..m {
                for p in 0..k {
                    let av = alpha * a[i * k + p];
                    if av != 0.0 {
                        for j in 0..n {
                            c[i * n + j] += av * b[p * n + j];
                        }
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            for p in 0..k {
                for i in 0..m {
                    let av = alpha * a[p * m + i];
                    if av != 0.0 {
                        for j in 0..n {
                            c[i * n + j] += av * b[p * n + j];
                        }
                    }
                }
            }
        }
        (_, Transpose::Yes) => {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        let av = if ta == Transpose::No {
                            a[i * k + p]
                        } else {
                            a[p * m + i]
                        };
                        acc += av * b[j * k + p];
                    }
                    c[i * n + j] += alpha * acc;
                }
            }
        }
    }
}

/// `im2col` with a bounds-checked branch per element.
fn oracle_im2col(im: &[f32], ch: usize, h: usize, w: usize, g: &ConvGeometry, col: &mut [f32]) {
    let (out_h, out_w) = (g.out_h(h), g.out_w(w));
    let mut idx = 0;
    for c in 0..ch {
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                for oh in 0..out_h {
                    for ow in 0..out_w {
                        let ih = (oh * g.stride + kh) as isize - g.pad as isize;
                        let iw = (ow * g.stride + kw) as isize - g.pad as isize;
                        let inside = ih >= 0 && ih < h as isize && iw >= 0 && iw < w as isize;
                        col[idx] = if inside {
                            im[(c * h + ih as usize) * w + iw as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// `col2im` with a bounds-checked branch per element.
fn oracle_col2im(col: &[f32], ch: usize, h: usize, w: usize, g: &ConvGeometry, im: &mut [f32]) {
    let (out_h, out_w) = (g.out_h(h), g.out_w(w));
    im.iter_mut().for_each(|v| *v = 0.0);
    let mut idx = 0;
    for c in 0..ch {
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                for oh in 0..out_h {
                    for ow in 0..out_w {
                        let ih = (oh * g.stride + kh) as isize - g.pad as isize;
                        let iw = (ow * g.stride + kw) as isize - g.pad as isize;
                        if ih >= 0 && ih < h as isize && iw >= 0 && iw < w as isize {
                            im[(c * h + ih as usize) * w + iw as usize] += col[idx];
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// Values that make rounding and sign visible: a spread of magnitudes
/// salted with `0.0`, `-0.0` and subnormals.
fn salted(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ seed.wrapping_mul(0xff51_afd7_ed55_8ccd);
            let h = h ^ (h >> 29);
            match h % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + (h >> 40) as u32 % 1000),
                3 => -f32::MIN_POSITIVE / 4.0,
                _ => ((h >> 20) % 2001) as f32 / 977.0 - 1.02,
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `im2col` and `col2im` against the per-element loops, `to_bits()` equal.
fn assert_im2col_col2im_match_oracle(ch: usize, h: usize, w: usize, g: &ConvGeometry, seed: u64) {
    let cols = ch * g.kernel_h * g.kernel_w * g.out_h(h) * g.out_w(w);

    let im = salted(ch * h * w, seed);
    let (mut col, mut want) = (vec![f32::NAN; cols], vec![f32::NAN; cols]);
    im2col(&im, ch, h, w, g, &mut col);
    oracle_im2col(&im, ch, h, w, g, &mut want);
    assert_eq!(bits(&col), bits(&want), "im2col {h}x{w} {g:?}");

    let grad = salted(cols, seed + 1);
    let (mut back, mut want) = (vec![f32::NAN; im.len()], vec![f32::NAN; im.len()]);
    col2im(&grad, ch, h, w, g, &mut back);
    oracle_col2im(&grad, ch, h, w, g, &mut want);
    assert_eq!(bits(&back), bits(&want), "col2im {h}x{w} {g:?}");
}

/// Every narrow image against every kernel width, padding and stride that
/// fits it, on every run. These are the geometries where a tap sees no pixel
/// of a row at all (`w = 1, kernel_w = 5, pad = 2`; `w = 2, kernel_w = 6,
/// pad = 2`): the in-image span is empty and would start past the row's end.
#[test]
fn im2col_col2im_narrow_images_exhaustive() {
    for w in 1usize..5 {
        for kernel_w in 1usize..8 {
            for pad in 0..kernel_w {
                for stride in 1usize..4 {
                    if w + 2 * pad < kernel_w {
                        continue;
                    }
                    // One-pixel-high kernel on a two-row image, then square.
                    let flat = ConvGeometry {
                        kernel_h: 1,
                        kernel_w,
                        stride,
                        pad,
                    };
                    assert_im2col_col2im_match_oracle(2, 2, w, &flat, 7);
                    let square = ConvGeometry::square(kernel_w, stride, pad);
                    assert_im2col_col2im_match_oracle(1, w, w, &square, 11);
                }
            }
        }
    }
}

const TRANSPOSES: [Transpose; 2] = [Transpose::No, Transpose::Yes];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All four arms reproduce the plain loops bit for bit, including
    /// shapes that leave partial tiles, `k = 0` and `n` below one tile.
    #[test]
    fn gemm_is_bitwise_the_plain_loops(
        m in 0usize..40, n in 0usize..40, k in 0usize..40,
        alpha in prop::sample::select(vec![1.0f32, 0.5, -1.0]),
        beta in prop::sample::select(vec![0.0f32, 1.0, 0.5]),
        seed in 0u64..1000,
    ) {
        let a = salted(m * k, seed);
        let b = salted(k * n, seed + 1);
        let c0 = salted(m * n, seed + 2);
        for ta in TRANSPOSES {
            for tb in TRANSPOSES {
                let (mut c, mut want) = (c0.clone(), c0.clone());
                sgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c);
                oracle_sgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut want);
                prop_assert_eq!(bits(&c), bits(&want), "{:?}/{:?}", ta, tb);
            }
        }
    }

    /// Rows `0..s` and `s..m` computed as two calls equal one call, for
    /// any `s`: an element's value does not depend on which row panel (and
    /// so which `tensor::pool` worker, or which tile) it falls in.
    #[test]
    fn gemm_rows_split_anywhere(
        m in 1usize..40, n in 1usize..40, k in 0usize..40,
        split in 0usize..40,
        seed in 0u64..1000,
    ) {
        let s = split % (m + 1);
        let a = salted(m * k, seed);
        let b = salted(k * n, seed + 1);
        let c0 = salted(m * n, seed + 2);
        for ta in TRANSPOSES {
            for tb in TRANSPOSES {
                let mut whole = c0.clone();
                sgemm(ta, tb, m, n, k, 0.5, &a, &b, 1.0, &mut whole);
                // The rows of op(A) in `lo..hi`, stored the way `ta` asks.
                let rows_of_a = |lo: usize, hi: usize| -> Vec<f32> {
                    match ta {
                        Transpose::No => a[lo * k..hi * k].to_vec(),
                        Transpose::Yes => (0..k)
                            .flat_map(|p| a[p * m + lo..p * m + hi].iter().copied())
                            .collect(),
                    }
                };
                let mut halves = c0.clone();
                let (top, bottom) = halves.split_at_mut(s * n);
                sgemm(ta, tb, s, n, k, 0.5, &rows_of_a(0, s), &b, 1.0, top);
                sgemm(ta, tb, m - s, n, k, 0.5, &rows_of_a(s, m), &b, 1.0, bottom);
                prop_assert_eq!(bits(&whole), bits(&halves), "{:?}/{:?} split at {}", ta, tb, s);
            }
        }
    }

    /// `im2col` and `col2im` reproduce the per-element loops bit for bit:
    /// stride 1 (the span copy) and 2 (the per-element loop), every padding
    /// below the kernel size. The empty-span geometries are too rare to
    /// leave to sampling; `im2col_col2im_narrow_images_exhaustive` has them.
    #[test]
    fn im2col_col2im_are_bitwise_the_element_loops(
        h in 1usize..9, w in 1usize..9,
        kernel_h in 1usize..6, kernel_w in 1usize..6,
        stride in 1usize..3, pad_seed in 0usize..5,
        channels in 1usize..3,
        seed in 0u64..1000,
    ) {
        let pad = pad_seed % kernel_h.max(kernel_w);
        prop_assume!(h + 2 * pad >= kernel_h && w + 2 * pad >= kernel_w);
        let geom = ConvGeometry { kernel_h, kernel_w, stride, pad };
        assert_im2col_col2im_match_oracle(channels, h, w, &geom, seed);
    }

    /// sgemm agrees with a naive triple-loop within f32 tolerance.
    #[test]
    fn gemm_matches_naive(
        m in 1usize..24, n in 1usize..24, k in 1usize..24,
        seed in 0u64..1000,
    ) {
        let gen = |len: usize, s: u64| -> Vec<f32> {
            (0..len).map(|i| (((i as u64 * 2654435761 + s * 97) % 17) as f32 - 8.0) / 4.0).collect()
        };
        let a = gen(m * k, seed);
        let b = gen(k * n, seed + 1);
        let mut c = vec![0.0f32; m * n];
        sgemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        let r = naive_gemm(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&r) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transposing inputs is equivalent to pre-transposing the matrices.
    #[test]
    fn gemm_transpose_consistency(
        m in 1usize..12, n in 1usize..12, k in 1usize..12,
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect();
        // Build A^T stored row-major (k×m) and ask for Transpose::Yes.
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        sgemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c1);
        sgemm(Transpose::Yes, Transpose::No, m, n, k, 1.0, &at, &b, 0.0, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// im2col then col2im computes, per pixel, (pixel value × number of
    /// windows covering it) — verified against direct counting.
    #[test]
    fn im2col_col2im_multiplicity(
        h in 3usize..10, w in 3usize..10,
        kernel in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        channels in 1usize..3,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let geom = ConvGeometry::square(kernel, stride, pad);
        let im: Vec<f32> = (0..channels * h * w).map(|i| (i % 11) as f32 * 0.5).collect();
        let out_h = geom.out_h(h);
        let out_w = geom.out_w(w);
        let mut col = vec![0.0f32; channels * kernel * kernel * out_h * out_w];
        im2col(&im, channels, h, w, &geom, &mut col);
        let mut back = vec![0.0f32; im.len()];
        col2im(&col, channels, h, w, &geom, &mut back);

        // Count window coverage per pixel directly.
        for c in 0..channels {
            for y in 0..h {
                for x in 0..w {
                    let mut cover = 0usize;
                    for kh in 0..kernel {
                        for kw in 0..kernel {
                            // Window position (oh, ow) samples (y, x) at tap (kh, kw)
                            // iff oh*stride + kh - pad == y (same for x).
                            let ny = y as isize + pad as isize - kh as isize;
                            let nx = x as isize + pad as isize - kw as isize;
                            if ny >= 0 && nx >= 0
                                && ny % stride as isize == 0 && nx % stride as isize == 0
                                && (ny / stride as isize) < out_h as isize
                                && (nx / stride as isize) < out_w as isize
                            {
                                cover += 1;
                            }
                        }
                    }
                    let idx = (c * h + y) * w + x;
                    let expect = im[idx] * cover as f32;
                    prop_assert!((back[idx] - expect).abs() < 1e-3,
                        "pixel ({c},{y},{x}): got {} want {}", back[idx], expect);
                }
            }
        }
    }

    /// Column matrix rows are exactly the strided taps: reconstruct a conv
    /// output via col and via direct convolution; they must agree.
    #[test]
    fn conv_via_im2col_matches_direct(
        h in 3usize..8, w in 3usize..8,
        kernel in 1usize..4,
    ) {
        prop_assume!(h >= kernel && w >= kernel);
        let geom = ConvGeometry::square(kernel, 1, 0);
        let im: Vec<f32> = (0..h * w).map(|i| (i % 9) as f32 - 4.0).collect();
        let filt: Vec<f32> = (0..kernel * kernel).map(|i| (i % 3) as f32 - 1.0).collect();
        let out_h = geom.out_h(h);
        let out_w = geom.out_w(w);
        let mut col = vec![0.0f32; kernel * kernel * out_h * out_w];
        im2col(&im, 1, h, w, &geom, &mut col);
        // GEMM: 1×(k*k) by (k*k)×(out) = conv output.
        let mut out = vec![0.0f32; out_h * out_w];
        sgemm(Transpose::No, Transpose::No, 1, out_h * out_w, kernel * kernel,
              1.0, &filt, &col, 0.0, &mut out);
        // Direct convolution.
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0f32;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        acc += filt[ky * kernel + kx] * im[(oy + ky) * w + (ox + kx)];
                    }
                }
                prop_assert!((out[oy * out_w + ox] - acc).abs() < 1e-3);
            }
        }
    }
}
