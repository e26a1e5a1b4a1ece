//! Contrastive loss (Hadsell-Chopra-LeCun) — the Siamese network's loss.
//!
//! Bottoms: two feature blobs `[n × d]` and a similarity label `[n]`
//! (1 = similar pair, 0 = dissimilar). Loss per pair:
//! `y · d² + (1-y) · max(margin − d, 0)²`, averaged over the batch and
//! halved (Caffe convention).

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::kernels;
use glp4nn::Phase;
use tensor::Blob;

/// Contrastive loss over paired embeddings.
pub struct ContrastiveLossLayer {
    name: String,
    margin: f32,
    /// Cached pairwise difference vectors (`a − b`), `[n × d]`.
    diff: Vec<f32>,
    /// Cached pairwise Euclidean distances, `[n]`.
    dist: Vec<f32>,
}

impl ContrastiveLossLayer {
    /// New contrastive loss with the given margin (Caffe default 1.0).
    pub fn new(name: &str, margin: f32) -> Self {
        ContrastiveLossLayer {
            name: name.to_string(),
            margin,
            diff: Vec::new(),
            dist: Vec::new(),
        }
    }
}

impl Layer for ContrastiveLossLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "ContrastiveLoss"
    }

    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
        assert_eq!(bottom.len(), 3, "needs feat_a, feat_b, similarity");
        assert_eq!(bottom[0].count(), bottom[1].count());
        top[0].resize(&[1]);
    }

    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
        let fc = bottom[0].count();
        let nb = bottom[0].num();
        ctx.dispatch_batch(&self.name, Phase::Forward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("contrastive", fc, 3.0),
                &self.name,
                &[("feat_a", fc), ("feat_b", fc), ("sim", nb)],
                &[("diff", fc), ("dist", nb), ("loss", 1)],
            )]
        });
        if !ctx.compute {
            return;
        }
        let (a, b, y) = (bottom[0], bottom[1], bottom[2]);
        let n = a.num();
        let d = a.count() / n;
        self.diff.clear();
        self.diff
            .extend(a.data().iter().zip(b.data()).map(|(x, y)| x - y));
        self.dist.clear();
        let mut loss = 0.0f32;
        for i in 0..n {
            let row = &self.diff[i * d..(i + 1) * d];
            let dist2: f32 = row.iter().map(|v| v * v).sum();
            let dist = dist2.sqrt();
            self.dist.push(dist);
            let sim = y.data()[i];
            if sim > 0.5 {
                loss += dist2;
            } else {
                let m = (self.margin - dist).max(0.0);
                loss += m * m;
            }
        }
        top[0].data_mut()[0] = loss / (2.0 * n as f32);
    }

    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
        let fc = bottom[0].count();
        let nb = bottom[0].num();
        ctx.dispatch_batch(&self.name, Phase::Backward, || {
            vec![kernels::declare_io(
                kernels::elemwise_kernel("contrastive_bwd", fc, 2.0),
                &self.name,
                &[("diff", fc), ("dist", nb), ("sim", nb), ("dloss", 1)],
                &[("dfeat_a", fc), ("dfeat_b", fc)],
            )]
        });
        if !ctx.compute {
            return;
        }
        let scale = top[0].diff()[0].max(f32::MIN_POSITIVE);
        let n = bottom[0].num();
        let d = bottom[0].count() / n;
        let labels: Vec<f32> = bottom[2].data().to_vec();
        let alpha = scale / n as f32;
        for (i, &sim) in labels.iter().enumerate().take(n) {
            let row = &self.diff[i * d..(i + 1) * d];
            let dist = self.dist[i];
            // d(loss_i)/d(a) rows.
            let mut grad_row = vec![0.0f32; d];
            if sim > 0.5 {
                for (g, &df) in grad_row.iter_mut().zip(row) {
                    *g = alpha * df;
                }
            } else if dist > 0.0 && self.margin > dist {
                let coeff = -alpha * (self.margin - dist) / dist.max(1e-9);
                for (g, &df) in grad_row.iter_mut().zip(row) {
                    *g = coeff * df;
                }
            }
            bottom[0].diff_mut()[i * d..(i + 1) * d].copy_from_slice(&grad_row);
            for (g, slot) in grad_row
                .iter()
                .zip(&mut bottom[1].diff_mut()[i * d..(i + 1) * d])
            {
                *slot = -g;
            }
        }
    }

    fn loss_weight(&self) -> f32 {
        1.0
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
    fn similar_pairs_penalize_distance() {
        let mut l = ContrastiveLossLayer::new("loss", 1.0);
        let a = Blob::from_data(&[1, 2], vec![1.0, 0.0]);
        let b = Blob::from_data(&[1, 2], vec![0.0, 0.0]);
        let y = Blob::from_data(&[1], vec![1.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b, &y], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&a, &b, &y], &mut top);
        // dist² = 1, loss = 1/2.
        assert!((top[0].data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dissimilar_far_pairs_cost_nothing() {
        let mut l = ContrastiveLossLayer::new("loss", 1.0);
        let a = Blob::from_data(&[1, 2], vec![5.0, 0.0]);
        let b = Blob::from_data(&[1, 2], vec![0.0, 0.0]);
        let y = Blob::from_data(&[1], vec![0.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b, &y], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&a, &b, &y], &mut top);
        assert_eq!(top[0].data()[0], 0.0);
    }

    #[test]
    fn dissimilar_close_pairs_are_pushed_apart() {
        let mut l = ContrastiveLossLayer::new("loss", 1.0);
        let a = Blob::from_data(&[1, 1], vec![0.2]);
        let b = Blob::from_data(&[1, 1], vec![0.0]);
        let y = Blob::from_data(&[1], vec![0.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b, &y], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&a, &b, &y], &mut top);
        // dist = 0.2, margin term = 0.8² / 2 = 0.32.
        assert!((top[0].data()[0] - 0.32).abs() < 1e-5);
        top[0].diff_mut()[0] = 1.0;
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![a, b, y];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        // Gradient pushes a away from b (negative direction since a > b).
        assert!(bottoms[0].diff()[0] < 0.0);
        assert!(bottoms[1].diff()[0] > 0.0);
    }

    #[test]
    fn gradient_check_numeric() {
        let mut l = ContrastiveLossLayer::new("loss", 1.5);
        let mut a = Blob::from_data(&[2, 3], vec![0.5, -0.2, 0.1, 0.9, 0.3, -0.4]);
        let b = Blob::from_data(&[2, 3], vec![0.1, 0.2, -0.3, 0.8, 0.2, -0.1]);
        let y = Blob::from_data(&[2], vec![1.0, 0.0]);
        let mut top = vec![Blob::empty()];
        l.reshape(&[&a, &b, &y], &mut top);
        let mut c = ctx();
        l.forward(&mut c, &[&a, &b, &y], &mut top);
        top[0].diff_mut()[0] = 1.0;
        let tops = [top.pop().unwrap()];
        let mut bottoms = vec![std::mem::replace(&mut a, Blob::empty()), b, y];
        l.backward(&mut c, &[&tops[0]], &mut bottoms);
        let analytic = bottoms[0].diff().to_vec();

        let eps = 1e-3f32;
        // Perturbs element `i` in place, then compares against `analytic[i]`.
        #[allow(clippy::needless_range_loop)]
        for i in 0..6 {
            let eval = |l: &mut ContrastiveLossLayer,
                        c: &mut ExecCtx,
                        a: &Blob,
                        b: &Blob,
                        y: &Blob|
             -> f32 {
                let mut t = vec![Blob::empty()];
                l.reshape(&[a, b, y], &mut t);
                l.forward(c, &[a, b, y], &mut t);
                t[0].data()[0]
            };
            let orig = bottoms[0].data()[i];
            bottoms[0].data_mut()[i] = orig + eps;
            let (ba, bb, by) = (bottoms[0].clone(), bottoms[1].clone(), bottoms[2].clone());
            let p = eval(&mut l, &mut c, &ba, &bb, &by);
            bottoms[0].data_mut()[i] = orig - eps;
            let (ba, bb, by) = (bottoms[0].clone(), bottoms[1].clone(), bottoms[2].clone());
            let m = eval(&mut l, &mut c, &ba, &bb, &by);
            bottoms[0].data_mut()[i] = orig;
            let numeric = (p - m) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-2,
                "d[{i}]: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }
}
