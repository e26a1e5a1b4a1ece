//! Single-precision GEMM (the `sgemm` of the paper's Fig. 6).
//!
//! Row-major `C = α·op(A)·op(B) + β·C`, parallel over row panels of `C`.
//! This is the CPU stand-in for cuBLAS: every convolutional and
//! fully-connected layer bottoms out here, exactly as Caffe's
//! `forward_gpu` bottoms out in `cublasSgemm`.
//!
//! There is no cache blocking. The two arms with `B` as stored (`(No, No)`
//! conv forward, `(Yes, No)` conv/fc data gradient) are axpy loops: one
//! row of `B` streamed into one row of `C` per `(i, p)`, skipped when the
//! scaled `A` element is zero. The `(No, Yes)` arm (conv weight gradient,
//! fc forward) is a dot product per output element and runs as a
//! register tile: `MR×NR` independent accumulators over a packed
//! `NR`-column panel of `Bᵀ`.
//!
//! The kernel is deterministic: every output element is accumulated by
//! exactly one thread, in ascending `p`, one multiply then one add per
//! step (no FMA, no reassociation), whatever the thread count, the row
//! split or the tile an element lands in. That underpins the framework's
//! convergence-invariance guarantee, and it is why the tile may only
//! widen *across* output elements, never along `k`.

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
        let rows = c_chunk.len() / n;
        match (ta, tb) {
            (Transpose::No, Transpose::No) => {
                // C[i][j] += alpha * A[i][p] * B[p][j]  (ikj order, B streamed).
                for i in 0..rows {
                    let ai = row0 + i;
                    let crow = &mut c_chunk[i * n..(i + 1) * n];
                    for p in 0..k {
                        let av = alpha * a[ai * k + p];
                        if av != 0.0 {
                            let brow = &b[p * n..(p + 1) * n];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += av * bv;
                            }
                        }
                    }
                }
            }
            (Transpose::No, Transpose::Yes) => {
                // B stored n×k; C[i][j] += alpha * A[i][p] * B[j][p] (dot rows).
                dot_rows(&a[row0 * k..(row0 + rows) * k], b, n, k, alpha, c_chunk);
            }
            (Transpose::Yes, Transpose::No) => {
                // A stored k×m; C[i][j] += alpha * A[p][i] * B[p][j].
                for p in 0..k {
                    let arow = &a[p * m..(p + 1) * m];
                    let brow = &b[p * n..(p + 1) * n];
                    for i in 0..rows {
                        let av = alpha * arow[row0 + i];
                        if av != 0.0 {
                            let crow = &mut c_chunk[i * n..(i + 1) * n];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += av * bv;
                            }
                        }
                    }
                }
            }
            (Transpose::Yes, Transpose::Yes) => {
                // C[i][j] += alpha * A[p][i] * B[j][p].
                for i in 0..rows {
                    let ai = row0 + i;
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += a[p * m + ai] * b[j * k + p];
                        }
                        c_chunk[i * n + j] += alpha * acc;
                    }
                }
            }
        }
    });
}

/// Rows of `C` per register tile of the `(No, Yes)` arm.
const MR: usize = 4;
/// Columns of `C` per register tile: with [`MR`] rows that is eight
/// four-lane accumulator registers, which leaves room for the `Bᵀ` panel
/// row and the broadcast `A` element in the 16 registers of baseline SSE2.
const NR: usize = 8;

/// The `(No, Yes)` arm over one row panel: `c[i][j] += alpha · Σ_p
/// a[i][p] · b[j][p]`, with `a` the panel's rows (`rows×k`), `b` stored
/// `n×k` and `c` the panel (`rows×n`).
///
/// Each `NR`-column panel of `Bᵀ` is packed once (`pack[p][x] =
/// b[j0 + x][p]`, edge columns zero) and reused by every row tile.
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
