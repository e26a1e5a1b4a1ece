//! Element-wise and reduction vector operations (the small "BLAS"
//! operations of the paper's Algorithms 1-2).

/// `y += alpha * x`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Dot product.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// In-place ReLU: `x = max(x, 0)`, with optional negative slope (leaky).
pub fn relu(x: &mut [f32], negative_slope: f32) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v *= negative_slope;
        }
    }
}

/// ReLU backward: `dx = dy · (x > 0 ? 1 : slope)` evaluated on the
/// *forward input* `x`.
pub fn relu_backward(x: &[f32], dy: &[f32], negative_slope: f32, dx: &mut [f32]) {
    assert_eq!(x.len(), dy.len());
    assert_eq!(x.len(), dx.len());
    for i in 0..x.len() {
        dx[i] = if x[i] > 0.0 {
            dy[i]
        } else {
            dy[i] * negative_slope
        };
    }
}

/// Numerically-stable softmax over each row of an `rows × cols` matrix.
pub fn softmax_rows(x: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(x.len(), rows * cols);
    for r in 0..rows {
        let row = &mut x[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Mean cross-entropy loss of row-softmax probabilities against integer
/// labels; `probs` is `rows × cols` post-softmax.
pub fn cross_entropy(probs: &[f32], labels: &[usize], rows: usize, cols: usize) -> f32 {
    assert_eq!(probs.len(), rows * cols);
    assert_eq!(labels.len(), rows);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        debug_assert!(label < cols);
        let p = probs[r * cols + label].max(1e-12);
        loss -= p.ln();
    }
    loss / rows as f32
}

/// Max over a slice with its index.
pub fn argmax(x: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in x.iter().enumerate() {
        if *v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_and_scal() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn relu_clamps_and_leaks() {
        let mut x = vec![-2.0, 3.0];
        relu(&mut x, 0.0);
        assert_eq!(x, vec![0.0, 3.0]);
        let mut y = vec![-2.0, 3.0];
        relu(&mut y, 0.1);
        assert!((y[0] + 0.2).abs() < 1e-6);
        assert_eq!(y[1], 3.0);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = vec![-1.0, 2.0, 0.0];
        let dy = vec![5.0, 5.0, 5.0];
        let mut dx = vec![0.0; 3];
        relu_backward(&x, &dy, 0.0, &mut dx);
        assert_eq!(dx, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 2, 3);
        for r in 0..2 {
            let s: f32 = x[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows(&mut x, 1, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        let probs = vec![1.0, 0.0, 0.0, 1.0];
        let loss = cross_entropy(&probs, &[0, 1], 2, 2);
        assert!(loss.abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let probs = vec![0.25f32; 4];
        let loss = cross_entropy(&probs, &[2], 1, 4);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn argmax_finds_first_max() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }
}
