//! Deterministic synthetic datasets shaped like the paper's Table 4.
//!
//! The real MNIST / CIFAR-10 / ImageNet archives are unavailable offline,
//! and the paper uses them for two things only: tensor *shapes* (which
//! drive kernel configurations and therefore all timing results) and
//! *learnability* (the Fig. 11 convergence experiment). Both are preserved
//! here: each class has a deterministic random prototype image and samples
//! are `prototype + Gaussian-ish noise`, generated statelessly from
//! `(seed, class, pixel)` / `(seed, index, pixel)` hashes, so any sample
//! can be materialized in O(pixels) without storing a dataset (ImageNet's
//! 1000 × 227 × 227 × 3 prototypes would not fit in memory otherwise).

use tensor::Blob;

/// splitmix64 — a stateless 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform `[-1, 1)` from a hash.
fn uniform(h: u64) -> f32 {
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

/// A synthetic labelled-image dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticDataset {
    /// Dataset name (Table 4 row).
    pub name: &'static str,
    /// Number of classes.
    pub classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Nominal training-set size (Table 4).
    pub train_images: usize,
    /// Nominal test-set size (Table 4).
    pub test_images: usize,
    seed: u64,
}

impl SyntheticDataset {
    /// MNIST-shaped: 60k/10k, 28×28 grayscale, 10 classes.
    pub fn mnist_like(seed: u64) -> Self {
        SyntheticDataset {
            name: "MNIST",
            classes: 10,
            channels: 1,
            height: 28,
            width: 28,
            train_images: 60_000,
            test_images: 10_000,
            seed,
        }
    }

    /// CIFAR-10-shaped: 50k/10k, 32×32 RGB, 10 classes.
    pub fn cifar_like(seed: u64) -> Self {
        SyntheticDataset {
            name: "Cifar10",
            classes: 10,
            channels: 3,
            height: 32,
            width: 32,
            train_images: 50_000,
            test_images: 10_000,
            seed,
        }
    }

    /// ImageNet-shaped: 1.2M/150k, 256×256 RGB stored, 227×227 crops (the
    /// CaffeNet input), 1000 classes.
    fn imagenet_like(seed: u64) -> Self {
        SyntheticDataset {
            name: "ImageNet",
            classes: 1000,
            channels: 3,
            height: 227,
            width: 227,
            train_images: 1_200_000,
            test_images: 150_000,
            seed,
        }
    }

    /// Pixels per image.
    fn image_size(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Label of sample `index` (round-robin over classes, then shuffled by
    /// hash so batches are class-mixed).
    pub fn label(&self, index: usize) -> usize {
        (mix(self.seed ^ (index as u64).wrapping_mul(0xA24BAED4963EE407)) % self.classes as u64)
            as usize
    }

    /// Write sample `index` into `out` (length = `image_size`).
    fn sample_into(&self, index: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.image_size());
        let label = self.label(index) as u64;
        let proto_seed = mix(self.seed ^ label.wrapping_mul(0xD6E8FEB86659FD93));
        let noise_seed = mix(self.seed ^ (index as u64).wrapping_mul(0xCA5A826395121157));
        for (i, v) in out.iter_mut().enumerate() {
            let proto = uniform(mix(proto_seed ^ i as u64)) * 0.8;
            let noise = uniform(mix(noise_seed ^ i as u64)) * 0.25;
            *v = proto + noise;
        }
    }

    /// Fill a batch of images + labels starting at sample `start`.
    /// `data` must be `[n, channels, height, width]`, `labels` `[n]`.
    pub fn fill_batch(&self, start: usize, data: &mut Blob, labels: &mut Blob) {
        let n = data.num();
        assert_eq!(data.count(), n * self.image_size(), "batch shape mismatch");
        assert_eq!(labels.count(), n);
        let stride = self.image_size();
        let d = data.data_mut();
        for s in 0..n {
            self.sample_into(start + s, &mut d[s * stride..(s + 1) * stride]);
        }
        let l = labels.data_mut();
        for (s, v) in l.iter_mut().enumerate().take(n) {
            *v = self.label(start + s) as f32;
        }
    }

    /// Fill a Siamese pair batch: two image blobs plus a similarity label
    /// (1 when the pair shares a class). Pairs alternate similar /
    /// dissimilar deterministically.
    pub fn fill_pair_batch(
        &self,
        start: usize,
        data_a: &mut Blob,
        data_b: &mut Blob,
        sim: &mut Blob,
    ) {
        let n = data_a.num();
        let stride = self.image_size();
        let (da, db, ds) = (data_a.data_mut(), data_b.data_mut(), sim.data_mut());
        for s in 0..n {
            let ia = start + 2 * s;
            // Pick a partner with the same or a different label.
            let want_similar = s % 2 == 0;
            let la = self.label(ia);
            let mut ib = ia + 1;
            for probe in 0..64 {
                ib = ia + 1 + probe;
                let same = self.label(ib) == la;
                if same == want_similar {
                    break;
                }
            }
            self.sample_into(ia, &mut da[s * stride..(s + 1) * stride]);
            self.sample_into(ib, &mut db[s * stride..(s + 1) * stride]);
            ds[s] = if self.label(ib) == la { 1.0 } else { 0.0 };
        }
    }

    /// The Table 4 rows (name, train, test, pixel string, classes).
    pub fn table4() -> Vec<(SyntheticDataset, &'static str)> {
        vec![
            (Self::mnist_like(1), "28x28"),
            (Self::cifar_like(1), "32x32"),
            (Self::imagenet_like(1), "256x256"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_shapes() {
        let m = SyntheticDataset::mnist_like(0);
        assert_eq!((m.train_images, m.test_images), (60_000, 10_000));
        assert_eq!(m.image_size(), 784);
        let c = SyntheticDataset::cifar_like(0);
        assert_eq!((c.train_images, c.test_images), (50_000, 10_000));
        assert_eq!(c.image_size(), 3 * 32 * 32);
        let i = SyntheticDataset::imagenet_like(0);
        assert_eq!(i.classes, 1000);
        assert_eq!(i.image_size(), 3 * 227 * 227);
    }

    #[test]
    fn samples_are_deterministic() {
        let d = SyntheticDataset::cifar_like(7);
        let mut a = vec![0.0f32; d.image_size()];
        let mut b = vec![0.0f32; d.image_size()];
        d.sample_into(123, &mut a);
        d.sample_into(123, &mut b);
        assert_eq!(a, b);
        d.sample_into(124, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn same_class_samples_are_correlated() {
        let d = SyntheticDataset::mnist_like(3);
        // Find two samples of the same class and one of a different class.
        let l0 = d.label(0);
        let same = (1..200).find(|&i| d.label(i) == l0).unwrap();
        let diff = (1..200).find(|&i| d.label(i) != l0).unwrap();
        let mut x0 = vec![0.0f32; d.image_size()];
        let mut xs = vec![0.0f32; d.image_size()];
        let mut xd = vec![0.0f32; d.image_size()];
        d.sample_into(0, &mut x0);
        d.sample_into(same, &mut xs);
        d.sample_into(diff, &mut xd);
        let corr =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>() };
        assert!(
            corr(&x0, &xs) > corr(&x0, &xd),
            "same-class correlation must dominate"
        );
    }

    #[test]
    fn labels_cover_all_classes() {
        let d = SyntheticDataset::cifar_like(5);
        let seen: std::collections::HashSet<usize> = (0..500).map(|i| d.label(i)).collect();
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn fill_batch_writes_shapes() {
        let d = SyntheticDataset::cifar_like(2);
        let mut data = Blob::nchw(4, 3, 32, 32);
        let mut labels = Blob::new(&[4]);
        d.fill_batch(100, &mut data, &mut labels);
        assert!(data.data().iter().any(|&v| v != 0.0));
        assert!(labels.data().iter().all(|&v| v < 10.0));
    }

    #[test]
    fn pair_batches_alternate_similarity() {
        let d = SyntheticDataset::mnist_like(9);
        let mut a = Blob::nchw(6, 1, 28, 28);
        let mut b = Blob::nchw(6, 1, 28, 28);
        let mut sim = Blob::new(&[6]);
        d.fill_pair_batch(0, &mut a, &mut b, &mut sim);
        // Even slots want similar pairs; probing usually finds one.
        let n_similar = sim.data().iter().filter(|&&v| v == 1.0).count();
        assert!(
            n_similar >= 2,
            "expected some similar pairs, got {n_similar}"
        );
        assert!(n_similar < 6, "expected some dissimilar pairs");
    }
}
