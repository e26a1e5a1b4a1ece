//! Caffe-style blobs: N-dimensional `f32` tensors with a paired gradient.
//!
//! A blob carries `data` (activations / weights) and `diff` (gradients),
//! both shaped `N × C × H × W` for 4-D blobs (batch, channels, height,
//! width) or arbitrary dims for others — the exact layout Caffe's layers
//! expect in Algorithms 1 and 2 of the paper (`bottom`, `top`, `weight`,
//! `bias` are all blobs).
//!
//! # First-touch storage
//!
//! Shape and memory are separate: [`Blob::new`] and [`Blob::resize`] record
//! only the shape and element count, and `data` and `diff` each materialise
//! (zero-filled) the first time an accessor asks for them. A timing-only
//! run reshapes every blob of a net and reads none, so it holds no tensor
//! memory; a compute run touches everything on its first iteration and then
//! pays one atomic load per accessor call. There is one storage path and no
//! switch — whether a blob holds memory depends only on whether anyone
//! asked for it. The invariants:
//!
//! - `data` and `diff` materialise independently: reading activations does
//!   not allocate gradients.
//! - [`Blob::count`] is a stored field, not the shape's product
//!   ([`Blob::empty`] has 0 elements although an empty product is 1).
//! - [`Blob::resize`] to an equal count keeps whatever is stored; to a
//!   different count it drops storage *and* any pending filler.
//! - A parameter blob declared with [`Blob::resize_filled`] carries its
//!   *pending filler* `(Filler, fan_in, seed)`; the fill runs inside the
//!   first touch of `data`, through [`Filler::fill`] and therefore from a
//!   fresh RNG of that seed, so materialised weights are bit-identical
//!   whenever they are touched.
//! - [`Blob::zero_diff`] and [`Blob::zero_data`] allocate nothing: untouched
//!   storage already reads as zero.
//! - `Clone` of an untouched blob stays untouched, and `==` compares
//!   `shape`, `data()`, `diff()`, so an untouched blob equals a zero-filled
//!   one.

use crate::Filler;
use std::sync::OnceLock;

/// An N-dimensional tensor with data and gradient storage.
#[derive(Debug, Clone)]
pub struct Blob {
    shape: Vec<usize>,
    count: usize,
    data: OnceLock<Vec<f32>>,
    diff: OnceLock<Vec<f32>>,
    /// What the first touch of `data` fills it with: `(filler, fan_in, seed)`.
    pending: Option<(Filler, usize, u64)>,
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data() && self.diff() == other.diff()
    }
}

impl Blob {
    /// A blob of the given shape, reading as zeros.
    pub fn new(shape: &[usize]) -> Self {
        Self::with_count(shape, shape.iter().product())
    }

    fn with_count(shape: &[usize], count: usize) -> Self {
        Blob {
            shape: shape.to_vec(),
            count,
            data: OnceLock::new(),
            diff: OnceLock::new(),
            pending: None,
        }
    }

    /// A 4-D `N×C×H×W` blob.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self::new(&[n, c, h, w])
    }

    /// An empty (zero-dim, zero-element) blob.
    pub fn empty() -> Self {
        Self::with_count(&[], 0)
    }

    /// Build from existing data with the given shape.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_data(shape: &[usize], data: Vec<f32>) -> Self {
        let mut blob = Self::new(shape);
        assert_eq!(data.len(), blob.count, "data length does not match shape");
        blob.data = OnceLock::from(data);
        blob
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Batch dimension (dim 0; 1 for lower-rank blobs).
    pub fn num(&self) -> usize {
        self.shape.first().copied().unwrap_or(1)
    }

    /// Channel dimension (dim 1; 1 if absent).
    pub fn channels(&self) -> usize {
        self.shape.get(1).copied().unwrap_or(1)
    }

    /// Height (dim 2; 1 if absent).
    pub fn height(&self) -> usize {
        self.shape.get(2).copied().unwrap_or(1)
    }

    /// Width (dim 3; 1 if absent).
    pub fn width(&self) -> usize {
        self.shape.get(3).copied().unwrap_or(1)
    }

    /// Flat offset of `(n, c, h, w)` in NCHW layout.
    pub fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        ((n * self.channels() + c) * self.height() + h) * self.width() + w
    }

    /// Reshape in place; element count must be preserved.
    pub fn reshape(&mut self, shape: &[usize]) {
        let count: usize = shape.iter().product();
        assert_eq!(count, self.count, "reshape must preserve count");
        self.shape = shape.to_vec();
    }

    /// Resize; a changed count drops the contents (and any pending filler),
    /// so the blob reads as zeros again.
    pub fn resize(&mut self, shape: &[usize]) {
        let count: usize = shape.iter().product();
        if count != self.count {
            *self = Self::with_count(shape, count);
        } else if shape != self.shape {
            self.shape = shape.to_vec();
        }
    }

    /// [`resize`](Blob::resize), then declare the data's contents:
    /// `filler.fill(data, fan_in, seed)` runs at the first touch of `data`
    /// (see the module docs). The gradient is unaffected.
    pub fn resize_filled(&mut self, shape: &[usize], filler: Filler, fan_in: usize, seed: u64) {
        self.resize(shape);
        self.data = OnceLock::new();
        self.pending = Some((filler, fan_in, seed));
    }

    /// Immutable view of the data.
    pub fn data(&self) -> &[f32] {
        self.data.get_or_init(|| {
            let mut data = vec![0.0; self.count];
            if let Some((filler, fan_in, seed)) = self.pending {
                filler.fill(&mut data, fan_in, seed);
            }
            data
        })
    }

    /// Mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data();
        self.data.get_mut().expect("materialised on the line above")
    }

    /// Immutable view of the gradient.
    pub fn diff(&self) -> &[f32] {
        self.diff.get_or_init(|| vec![0.0; self.count])
    }

    /// Mutable view of the gradient.
    pub fn diff_mut(&mut self) -> &mut [f32] {
        self.diff();
        self.diff.get_mut().expect("materialised on the line above")
    }

    /// Simultaneous mutable access to data and diff (for in-place updates
    /// like `data -= lr * diff`).
    pub fn data_and_diff_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.data();
        self.diff();
        let touched = "materialised on the lines above";
        let (data, diff) = (self.data.get_mut(), self.diff.get_mut());
        (data.expect(touched), diff.expect(touched))
    }

    /// Zero the gradient.
    pub fn zero_diff(&mut self) {
        if let Some(diff) = self.diff.get_mut() {
            diff.fill(0.0);
        }
    }

    /// Zero the data.
    pub fn zero_data(&mut self) {
        self.pending = None;
        if let Some(data) = self.data.get_mut() {
            data.fill(0.0);
        }
    }

    /// L2 norm of the data (diagnostics).
    pub fn data_l2(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of absolute data values (Caffe's `asum_data`).
    pub fn asum_data(&self) -> f32 {
        self.data().iter().map(|v| v.abs()).sum()
    }

    /// Apply `data -= rate * diff` (plain SGD step on this blob).
    pub fn sgd_step(&mut self, rate: f32) {
        let (data, diff) = self.data_and_diff_mut();
        for (d, g) in data.iter_mut().zip(diff.iter()) {
            *d -= rate * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_dims() {
        let b = Blob::nchw(2, 3, 4, 5);
        assert_eq!(b.count(), 120);
        assert_eq!(b.num(), 2);
        assert_eq!(b.channels(), 3);
        assert_eq!(b.height(), 4);
        assert_eq!(b.width(), 5);
        assert!(b.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn offset_is_row_major_nchw() {
        let b = Blob::nchw(2, 3, 4, 5);
        assert_eq!(b.offset(0, 0, 0, 0), 0);
        assert_eq!(b.offset(0, 0, 0, 1), 1);
        assert_eq!(b.offset(0, 0, 1, 0), 5);
        assert_eq!(b.offset(0, 1, 0, 0), 20);
        assert_eq!(b.offset(1, 0, 0, 0), 60);
        assert_eq!(b.offset(1, 2, 3, 4), 119);
    }

    #[test]
    fn lower_rank_blobs_default_dims() {
        let b = Blob::new(&[10]);
        assert_eq!(b.num(), 10);
        assert_eq!(b.channels(), 1);
        assert_eq!(b.height(), 1);
        assert_eq!(b.width(), 1);
        let e = Blob::empty();
        assert_eq!(e.count(), 0);
        assert_eq!(e.num(), 1);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut b = Blob::from_data(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        b.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data()[4], 5.0);
    }

    #[test]
    #[should_panic(expected = "preserve count")]
    fn reshape_rejects_count_change() {
        let mut b = Blob::new(&[4]);
        b.reshape(&[5]);
    }

    #[test]
    fn resize_reallocates_when_needed() {
        let mut b = Blob::from_data(&[2], vec![1.0, 2.0]);
        b.resize(&[2, 2]);
        assert_eq!(b.count(), 4);
        assert!(b.data().iter().all(|&v| v == 0.0));
        // Same-count resize keeps data.
        let mut c = Blob::from_data(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        c.resize(&[2, 2]);
        assert_eq!(c.data()[3], 4.0);
    }

    #[test]
    fn sgd_step_updates_data() {
        let mut b = Blob::from_data(&[3], vec![1.0, 2.0, 3.0]);
        b.diff_mut().copy_from_slice(&[0.5, 0.5, 0.5]);
        b.sgd_step(2.0);
        assert_eq!(b.data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let b = Blob::from_data(&[2], vec![3.0, -4.0]);
        assert!((b.data_l2() - 5.0).abs() < 1e-6);
        assert!((b.asum_data() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn zeroing() {
        let mut b = Blob::from_data(&[2], vec![1.0, 2.0]);
        b.diff_mut().copy_from_slice(&[9.0, 9.0]);
        b.zero_diff();
        assert!(b.diff().iter().all(|&v| v == 0.0));
        b.zero_data();
        assert!(b.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn untouched_blob_equals_a_zero_filled_one_and_holds_no_memory() {
        let lazy = Blob::nchw(2, 3, 4, 5);
        assert!(lazy.data.get().is_none() && lazy.diff.get().is_none());
        assert_eq!(lazy, Blob::from_data(&[2, 3, 4, 5], vec![0.0; 120]));
        assert_ne!(lazy, Blob::from_data(&[2, 3, 4, 5], vec![1.0; 120]));
        assert_eq!(Blob::empty().count(), 0);
        assert!(Blob::empty().data().is_empty());
    }

    #[test]
    fn data_and_diff_materialise_independently() {
        let mut b = Blob::new(&[8]);
        b.data_mut()[3] = 1.0;
        assert!(b.diff.get().is_none(), "touching data allocated diff");
        b.zero_diff();
        assert!(b.diff.get().is_none(), "zero_diff allocated untouched diff");
        let mut c = Blob::new(&[8]);
        assert_eq!(c.diff_mut().len(), 8);
        assert!(c.data.get().is_none(), "touching diff allocated data");
        c.zero_data();
        assert!(c.data.get().is_none(), "zero_data allocated untouched data");
    }

    #[test]
    fn clone_then_touch_agrees_with_touch_then_clone() {
        let mut declared = Blob::empty();
        declared.resize_filled(&[4, 6], Filler::Xavier, 6, 11);
        let early = declared.clone();
        assert!(early.data.get().is_none(), "clone materialised the source");
        declared.data();
        let late = declared.clone();
        assert_eq!(early.data(), late.data());
        assert_eq!(early, late);
    }

    #[test]
    fn resize_keeps_contents_only_at_equal_count() {
        let mut b = Blob::empty();
        b.resize_filled(&[2, 3], Filler::Constant(2.5), 1, 0);
        b.resize(&[3, 2]);
        assert_eq!(b.data(), &[2.5; 6], "equal count keeps the pending filler");
        b.resize(&[6]);
        assert_eq!(b.data(), &[2.5; 6], "equal count keeps the data");
        b.resize(&[4]);
        assert_eq!((b.shape(), b.data()), (&[4usize][..], &[0.0f32; 4][..]));
        // A filler that was never run is dropped with the storage.
        let mut c = Blob::empty();
        c.resize_filled(&[2], Filler::Constant(1.0), 1, 0);
        c.resize(&[3]);
        assert_eq!(c.data(), &[0.0; 3]);
        // zero_data overrides a pending filler without allocating.
        let mut d = Blob::empty();
        d.resize_filled(&[2], Filler::Constant(1.0), 1, 0);
        d.zero_data();
        assert_eq!(d.data(), &[0.0; 2]);
    }

    #[test]
    fn late_touch_of_a_declared_filler_is_bitwise_the_eager_fill() {
        for filler in [
            Filler::Xavier,
            Filler::Gaussian(0.1),
            Filler::Uniform(-1.0, 2.0),
        ] {
            let (fan_in, seed) = (75, 0xC0FFEE);
            let mut eager = vec![0.0f32; 32 * 75];
            filler.fill(&mut eager, fan_in, seed);
            let mut b = Blob::empty();
            b.resize_filled(&[32, 75], filler, fan_in, seed);
            // Unrelated traffic before the first touch of `data`.
            b.diff_mut()[0] = 1.0;
            b.zero_diff();
            b.reshape(&[75, 32]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(b.data()), bits(&eager), "{filler:?}");
            assert_eq!(bits(b.clone().data_mut()), bits(&eager), "{filler:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_data_validates_length() {
        Blob::from_data(&[3], vec![1.0]);
    }
}
