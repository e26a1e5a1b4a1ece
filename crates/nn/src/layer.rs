//! The layer abstraction (the unit of the paper's Algorithms 1-2).

use crate::exec::ExecCtx;
use tensor::Blob;

/// A network layer: computes `top` blobs from `bottom` blobs (forward,
/// Algorithm 1) and propagates gradients from `top.diff` to `bottom.diff`
/// and its parameters' diffs (backward, Algorithm 2).
pub trait Layer {
    /// Instance name (e.g. `conv1`).
    fn name(&self) -> &str;

    /// Layer type tag (e.g. `"Convolution"`).
    fn layer_type(&self) -> &'static str;

    /// Infer/allocate top shapes from bottom shapes. Called once before
    /// the first forward and whenever input shapes change.
    fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]);

    /// Forward pass: fill `top[*].data` from `bottom[*].data`.
    fn forward(&mut self, ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]);

    /// Backward pass: fill `bottom[*].diff` (and parameter diffs) from
    /// `top[*].diff`, using data stashed during forward as needed.
    fn backward(&mut self, ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]);

    /// Learnable parameter blobs (weights, biases). Empty by default.
    fn params_mut(&mut self) -> Vec<&mut Blob> {
        Vec::new()
    }

    /// Weight applied to this layer's scalar output in the global loss
    /// (non-zero only for loss layers).
    fn loss_weight(&self) -> f32 {
        0.0
    }

    /// Whether backward should run for this layer at all (data/accuracy
    /// layers opt out).
    fn needs_backward(&self) -> bool {
        true
    }

    /// Switch between training and inference behaviour (dropout masks
    /// on/off etc.). Default: no-op.
    fn set_train(&mut self, _train: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null {
        name: String,
    }
    impl Layer for Null {
        fn name(&self) -> &str {
            &self.name
        }
        fn layer_type(&self) -> &'static str {
            "Null"
        }
        fn reshape(&mut self, bottom: &[&Blob], top: &mut [Blob]) {
            top[0].resize(bottom[0].shape());
        }
        fn forward(&mut self, _ctx: &mut ExecCtx, bottom: &[&Blob], top: &mut [Blob]) {
            top[0].data_mut().copy_from_slice(bottom[0].data());
        }
        fn backward(&mut self, _ctx: &mut ExecCtx, top: &[&Blob], bottom: &mut [Blob]) {
            bottom[0].diff_mut().copy_from_slice(top[0].diff());
        }
    }

    #[test]
    fn default_trait_methods() {
        let mut l = Null {
            name: "n".to_string(),
        };
        assert_eq!(l.loss_weight(), 0.0);
        assert!(l.needs_backward());
        assert!(l.params_mut().is_empty());
        assert_eq!(l.layer_type(), "Null");
    }
}
