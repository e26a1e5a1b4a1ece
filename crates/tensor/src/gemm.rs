//! Single-precision GEMM (the `sgemm` of the paper's Fig. 6).
//!
//! Row-major `C = α·op(A)·op(B) + β·C`, parallel over row panels of `C`.
//! This is the CPU stand-in for cuBLAS: every convolutional and
//! fully-connected layer bottoms out here, exactly as Caffe's
//! `forward_gpu` bottoms out in `cublasSgemm`.
//!
//! There is no cache blocking. The two arms with `B` as stored (`(No, No)`
//! conv forward, `(Yes, No)` conv/fc data gradient) are one axpy kernel
//! that differs only in how it indexes `A`: an `AR×AW` tile of `C` stays in
//! registers while `p` runs over all of `k`, and each of its rows adds
//! `α·A[i][p]·B[p][..]` unless that scaled element is zero; edge rows and
//! columns take the plain row loop. The `(No, Yes)` arm (conv weight
//! gradient, fc forward) is a dot product per output element and runs as a
//! register tile: `MR×NR` independent accumulators over a packed
//! `NR`-column panel of `Bᵀ`.
//!
//! Every row panel runs one of two compilations of the same source: the
//! portable `panel` (baseline SSE2 on x86-64) or `panel_avx2`, the same
//! body under `#[target_feature(enable = "avx2")]`, which LLVM vectorises
//! eight lanes wide. [`sgemm`] takes the AVX2 copy whenever the running CPU
//! has it. The two are bitwise equal: AVX2 brings no fused multiply-add
//! (that is the separate `fma` feature, enabled nowhere), and Rust never
//! contracts `a * b + c` into one, so every lane still rounds the product
//! and then the sum, exactly as the scalar code does.
//!
//! The kernel is deterministic: every output element is accumulated by
//! exactly one thread, in ascending `p`, one multiply then one add per
//! step (no FMA, no reassociation), whatever the thread count, the row
//! split, the instruction set or the tile an element lands in. That
//! underpins the framework's convergence-invariance guarantee, and it is
//! why a tile may only widen *across* output elements, never along `k`.

use crate::pool::parallel_for_rows;
use std::ops::Range;

/// Whether an operand is used as-is or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// Row-major GEMM: `C[m×n] = α · op(A)[m×k] · op(B)[k×n] + β · C`.
///
/// `a` is `m×k` when `ta == No`, else `k×m` (stored row-major either way);
/// likewise for `b`.
///
/// # Panics
/// Panics when slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
pub fn sgemm(
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
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");

    // Scale C by beta first.
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }

    // Parallel over row-panels of C; each worker owns disjoint C rows, so
    // the computation is race-free and order-deterministic.
    parallel_for_rows(c, n, |row0, c_chunk| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU supports AVX2, checked just above.
            return unsafe { panel_avx2(ta, tb, m, n, k, alpha, a, b, row0, c_chunk) };
        }
        panel(ta, tb, m, n, k, alpha, a, b, row0, c_chunk);
    });
}

/// [`panel`] compiled for AVX2: LLVM widens the same loops to eight lanes.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // panel's arguments
unsafe fn panel_avx2(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    row0: usize,
    c: &mut [f32],
) {
    panel(ta, tb, m, n, k, alpha, a, b, row0, c);
}

/// `C += α·op(A)·op(B)` on one row panel: rows `row0..` of `C`, the panel
/// `c` (`rows×n`), with `a`, `b` the whole operands as [`sgemm`] takes them.
///
/// `#[inline(always)]` here and on everything it calls puts the whole body
/// inside each caller, so [`panel_avx2`] compiles all of it for AVX2.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // sgemm's arguments plus the panel
fn panel(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    row0: usize,
    c: &mut [f32],
) {
    let rows = c.len() / n;
    match (ta, tb) {
        // C[i][j] += alpha * A[i][p] * B[p][j].
        (Transpose::No, Transpose::No) => {
            axpy_panel(|i, p| a[(row0 + i) * k + p], b, n, alpha, c);
        }
        // A stored k×m; C[i][j] += alpha * A[p][i] * B[p][j].
        (Transpose::Yes, Transpose::No) => {
            axpy_panel(|i, p| a[p * m + row0 + i], b, n, alpha, c);
        }
        // B stored n×k; C[i][j] += alpha * A[i][p] * B[j][p] (dot rows).
        (Transpose::No, Transpose::Yes) => {
            dot_rows(&a[row0 * k..(row0 + rows) * k], b, n, k, alpha, c);
        }
        // C[i][j] += alpha * A[p][i] * B[j][p].
        (Transpose::Yes, Transpose::Yes) => {
            for i in 0..rows {
                let ai = row0 + i;
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[p * m + ai] * b[j * k + p];
                    }
                    c[i * n + j] += alpha * acc;
                }
            }
        }
    }
}

/// Rows of `C` per register tile of the axpy arms.
const AR: usize = 4;
/// Columns of `C` per register tile of the axpy arms: with [`AR`] rows that
/// is eight eight-lane AVX2 accumulators, leaving room for two registers
/// of the `B` row and the broadcast `A` element.
const AW: usize = 16;

/// The `(No, No)` and `(Yes, No)` arms over one row panel: `c[i][j] +=
/// α·at(i, p)·b[p][j]` for ascending `p`, skipping every `(i, p)` whose
/// scaled `A` element is zero, with `at(i, p)` the panel's `A[i][p]` as the
/// arm stores it, `b` stored `k×n` and `c` the panel (`rows×n`).
///
/// Each row tile's scaled `A` elements are gathered once (`avs[p][r] =
/// α·A[i0 + r][p]`) and reused by every column tile; an `AR×AW` tile loads
/// its block of `C` once and stores it once. Each element sees the same
/// adds in the same order as in the row loop that handles the edges, so
/// tile edges leave no trace in the result.
#[inline(always)]
fn axpy_panel(at: impl Fn(usize, usize) -> f32, b: &[f32], n: usize, alpha: f32, c: &mut [f32]) {
    let (rows, k) = (c.len() / n, b.len() / n);
    let (full_rows, full_cols) = (rows - rows % AR, n - n % AW);
    let mut avs = vec![[0.0f32; AR]; k];
    for i0 in (0..full_rows).step_by(AR) {
        for (p, avs) in avs.iter_mut().enumerate() {
            *avs = std::array::from_fn(|r| alpha * at(i0 + r, p));
        }
        for j0 in (0..full_cols).step_by(AW) {
            let mut acc = [[0.0f32; AW]; AR];
            for (r, acc) in acc.iter_mut().enumerate() {
                acc.copy_from_slice(&c[(i0 + r) * n + j0..][..AW]);
            }
            for (avs, brow) in avs.iter().zip(b.chunks_exact(n)) {
                let brow: &[f32; AW] = brow[j0..j0 + AW].try_into().expect("AW columns");
                for (acc, &av) in acc.iter_mut().zip(avs) {
                    if av != 0.0 {
                        for (cv, bv) in acc.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                c[(i0 + r) * n + j0..][..AW].copy_from_slice(acc);
            }
        }
    }
    // The row loop: edge columns of the tiled rows, every column of the rest.
    for i in 0..rows {
        let j0 = if i < full_rows { full_cols } else { 0 };
        let crow = &mut c[i * n + j0..(i + 1) * n];
        for p in 0..k {
            let av = alpha * at(i, p);
            if av != 0.0 {
                for (cv, bv) in crow.iter_mut().zip(&b[p * n + j0..(p + 1) * n]) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Rows of `C` per register tile of the `(No, Yes)` arm.
const MR: usize = 4;
/// Columns of `C` per register tile of the `(No, Yes)` arm: one AVX2
/// register per row. Sixteen lanes double the packed panel, which at
/// `k = 1024` then no longer fits in L1 (measured slower, EXPERIMENTS.md).
const NR: usize = 8;

/// The `(No, Yes)` arm over one row panel: `c[i][j] += alpha · Σ_p
/// a[i][p] · b[j][p]`, with `a` the panel's rows (`rows×k`), `b` stored
/// `n×k` and `c` the panel (`rows×n`).
///
/// Each `NR`-column panel of `Bᵀ` is packed once (`pack[p][x] =
/// b[j0 + x][p]`, edge columns zero) and reused by every row tile.
#[inline(always)]
fn dot_rows(a: &[f32], b: &[f32], n: usize, k: usize, alpha: f32, c: &mut [f32]) {
    let rows = c.len() / n;
    let full = rows - rows % MR;
    let mut pack = vec![[0.0f32; NR]; k];
    for j0 in (0..n).step_by(NR) {
        let cols = j0..(j0 + NR).min(n);
        if cols.len() < NR {
            pack.fill([0.0; NR]);
        }
        for (x, j) in cols.clone().enumerate() {
            for (lanes, bv) in pack.iter_mut().zip(&b[j * k..(j + 1) * k]) {
                lanes[x] = *bv;
            }
        }
        for i in (0..full).step_by(MR) {
            let (a, c) = (&a[i * k..(i + MR) * k], &mut c[i * n..(i + MR) * n]);
            dot_tile::<MR>(a, &pack, alpha, c, cols.clone());
        }
        for i in full..rows {
            let (a, c) = (&a[i * k..(i + 1) * k], &mut c[i * n..(i + 1) * n]);
            dot_tile::<1>(a, &pack, alpha, c, cols.clone());
        }
    }
}

/// One `R×NR` tile: `R` rows of `A` (`a`, `R×k`) against a packed panel,
/// added into columns `cols` of the same `R` rows of `C` (`c`, `R×n`).
///
/// Every accumulator is its own chain — start at `0.0`, one multiply then
/// one add per `p`, ascending — so an element's value does not depend on
/// `R`, on its lane or on its neighbours. Lanes past `cols.len()` are
/// computed on the panel's zero padding and dropped.
#[inline(always)]
fn dot_tile<const R: usize>(
    a: &[f32],
    pack: &[[f32; NR]],
    alpha: f32,
    c: &mut [f32],
    cols: Range<usize>,
) {
    let (k, n) = (pack.len(), c.len() / R);
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, lanes) in pack.iter().enumerate() {
        for r in 0..R {
            let av = arows[r][p];
            for x in 0..NR {
                acc[r][x] += av * lanes[x];
            }
        }
    }
    for (crow, acc) in c.chunks_exact_mut(n).zip(&acc) {
        for (cv, sum) in crow[cols.clone()].iter_mut().zip(acc) {
            *cv += alpha * sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference implementation. Mirrors the BLAS `sgemm` signature.
    #[allow(clippy::too_many_arguments)]
    fn reference(
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
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = match ta {
                        Transpose::No => a[i * k + p],
                        Transpose::Yes => a[p * m + i],
                    };
                    let bv = match tb {
                        Transpose::No => b[p * n + j],
                        Transpose::Yes => b[j * k + p],
                    };
                    acc += av * bv;
                }
                c[i * n + j] = alpha * acc + beta * c[i * n + j];
            }
        }
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 13) as f32 - 6.0) * scale).collect()
    }

    #[test]
    fn matches_reference_all_transpose_combos() {
        let (m, n, k) = (7, 9, 11);
        let a = seq(m * k, 0.5);
        let b = seq(k * n, 0.25);
        for &ta in &[Transpose::No, Transpose::Yes] {
            for &tb in &[Transpose::No, Transpose::Yes] {
                let mut c1 = seq(m * n, 1.0);
                let mut c2 = c1.clone();
                sgemm(ta, tb, m, n, k, 1.5, &a, &b, 0.5, &mut c1);
                reference(ta, tb, m, n, k, 1.5, &a, &b, 0.5, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!((x - y).abs() < 1e-3, "{ta:?}/{tb:?}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn identity_times_matrix() {
        let n = 4;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let b = seq(n * n, 1.0);
        let mut c = vec![0.0f32; n * n];
        sgemm(
            Transpose::No,
            Transpose::No,
            n,
            n,
            n,
            1.0,
            &eye,
            &b,
            0.0,
            &mut c,
        );
        assert_eq!(c, b);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta=0 must overwrite even if C held NaN (BLAS semantics).
        let mut c = vec![f32::NAN; 4];
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        sgemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
        assert!(c.iter().all(|v| (*v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn alpha_zero_scales_only() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![2.0f32; 4];
        sgemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            0.0,
            &a,
            &b,
            0.5,
            &mut c,
        );
        assert!(c.iter().all(|v| (*v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn large_parallel_matches_reference() {
        let (m, n, k) = (128, 96, 64);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.2);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        sgemm(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c1,
        );
        reference(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c2,
        );
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (m, n, k) = (64, 64, 64);
        let a = seq(m * k, 0.3);
        let b = seq(k * n, 0.7);
        let run = || {
            let mut c = vec![0.0f32; m * n];
            sgemm(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            );
            c
        };
        assert_eq!(run(), run()); // bitwise
    }

    /// Spread magnitudes salted with `0.0`, `-0.0` and subnormals.
    fn salted(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match (i * 7 + seed * 13) % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + (i % 500) as u32),
                3 => -f32::MIN_POSITIVE / 4.0,
                _ => ((i * 37 + seed) % 201) as f32 / 97.0 - 1.03,
            })
            .collect()
    }

    /// The two compilations of [`panel`] agree bit for bit on every arm, on
    /// shapes straddling both tiles' edges. CI hosts take the AVX2 copy, so
    /// this test is where the portable one runs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_avx2_panels_are_bitwise_equal() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this CPU: only the portable panel exists");
            return;
        }
        // x86's default NaN (what `0·inf` makes), so that every NaN the
        // arithmetic can produce has the same bits whichever operand order
        // each compilation picks.
        let nan = -f32::NAN;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in 1..=9 {
            for n in [1, 15, 16, 17, 33, 40] {
                for k in [1, 31, 70] {
                    for ta in [Transpose::No, Transpose::Yes] {
                        for tb in [Transpose::No, Transpose::Yes] {
                            let a_at = |i, p| {
                                if ta == Transpose::No {
                                    i * k + p
                                } else {
                                    p * m + i
                                }
                            };
                            let b_at = |p, j| {
                                if tb == Transpose::No {
                                    p * n + j
                                } else {
                                    j * k + p
                                }
                            };
                            for poisoned in [false, true] {
                                let (mut a, mut b) = (salted(m * k, 1), salted(k * n, 2));
                                // Rows p ≡ 3 (mod 7) of op(B) hold ±inf and NaN
                                // and meet a zero op(A) in every even row: the
                                // axpy arms skip those, odd rows take them in.
                                for p in (3..k).step_by(7).filter(|_| poisoned) {
                                    for i in (0..m).step_by(2) {
                                        a[a_at(i, p)] = if i % 4 == 0 { 0.0 } else { -0.0 };
                                    }
                                    for j in 0..n {
                                        b[b_at(p, j)] =
                                            [f32::INFINITY, f32::NEG_INFINITY, nan][j % 3];
                                    }
                                }
                                let c0 = salted(m * n, 3);
                                let (mut portable, mut avx2) = (c0.clone(), c0);
                                panel(ta, tb, m, n, k, -1.5, &a, &b, 0, &mut portable);
                                // SAFETY: AVX2 was detected at the top of the test.
                                unsafe { panel_avx2(ta, tb, m, n, k, -1.5, &a, &b, 0, &mut avx2) };
                                assert_eq!(
                                    bits(&portable),
                                    bits(&avx2),
                                    "{ta:?}/{tb:?} {m}x{n}x{k} poisoned {poisoned}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "A size mismatch")]
    fn dimension_checked() {
        let mut c = vec![0.0f32; 4];
        sgemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &[1.0; 3],
            &[1.0; 4],
            0.0,
            &mut c,
        );
    }
}
