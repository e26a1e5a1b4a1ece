//! Network assembly and execution (Caffe's `Net`).
//!
//! A [`NetSpec`] is the in-code equivalent of a Caffe prototxt:
//! named input blobs plus a list of layer specs wired by blob names. A
//! [`Net`] instantiates the layers, owns all blobs, and runs forward /
//! backward passes layer by layer with an inter-layer synchronization
//! after each (paper §2.1).

use crate::exec::ExecCtx;
use crate::layer::Layer;
use crate::layers::*;
use std::collections::HashMap;
use tensor::Blob;

/// Layer kind + hyper-parameters (the declarative part of a layer).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// 2-D convolution.
    Convolution {
        /// Output feature maps.
        num_output: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Spatial pooling.
    Pooling {
        /// `"max"` or `"ave"`.
        method: String,
        /// Window edge.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// ReLU activation.
    Relu,
    /// Local response normalization with AlexNet defaults.
    Lrn,
    /// Fully connected.
    InnerProduct {
        /// Output units.
        num_output: usize,
    },
    /// Softmax + cross-entropy loss.
    SoftmaxLoss,
    /// Top-1 accuracy (no backward).
    Accuracy,
    /// Dropout.
    Dropout {
        /// Fraction dropped.
        ratio: f32,
    },
    /// Channel concatenation.
    Concat,
    /// Contrastive (Siamese) loss.
    ContrastiveLoss {
        /// Margin for dissimilar pairs.
        margin: f32,
    },
    /// Blob duplication with gradient accumulation (enables fan-out).
    Split,
}

/// One layer in a [`NetSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer instance name.
    pub name: String,
    /// Kind and hyper-parameters.
    pub kind: LayerKind,
    /// Input blob names.
    pub bottoms: Vec<String>,
    /// Output blob names (must be fresh; in-place is not supported).
    pub tops: Vec<String>,
}

/// A complete network description.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Network name (keys GLP4NN's plan cache).
    pub name: String,
    /// External input blobs and their shapes.
    pub inputs: Vec<(String, Vec<usize>)>,
    /// Layers in topological order.
    pub layers: Vec<LayerSpec>,
    /// Seed for all parameter initialization.
    pub seed: u64,
}

impl NetSpec {
    /// The inference-serving variant of this network: trailing loss and
    /// accuracy layers are stripped, leaving the last scoring layer's top
    /// as the network output.
    ///
    /// Only *trailing* layers are removed, so every surviving layer keeps
    /// its position in `layers` — and therefore its derived parameter
    /// seed — making inference outputs bitwise-identical to the same
    /// layers inside the training net.
    pub fn inference(&self) -> NetSpec {
        let mut spec = self.clone();
        while let Some(last) = spec.layers.last() {
            match last.kind {
                LayerKind::SoftmaxLoss
                | LayerKind::Accuracy
                | LayerKind::ContrastiveLoss { .. } => {
                    spec.layers.pop();
                }
                _ => break,
            }
        }
        spec
    }

    /// Name of the network's final output blob (the last layer's first
    /// top), if any layer exists.
    pub fn final_top(&self) -> Option<&str> {
        self.layers
            .last()
            .and_then(|l| l.tops.first())
            .map(String::as_str)
    }
}

/// An instantiated, runnable network.
pub struct Net {
    /// Network name.
    pub name: String,
    layers: Vec<Box<dyn Layer>>,
    bottoms: Vec<Vec<usize>>,
    tops: Vec<Vec<usize>>,
    blobs: Vec<Blob>,
    blob_index: HashMap<String, usize>,
}

impl Net {
    /// Build a network from its spec.
    ///
    /// # Panics
    /// Panics on dangling blob references, duplicate tops, or a blob
    /// feeding more than one backward-participating layer (gradient
    /// accumulation across consumers is not supported — insert explicit
    /// split layers in the spec if ever needed).
    pub fn from_spec(spec: &NetSpec) -> Self {
        let mut blobs = Vec::new();
        let mut blob_index = HashMap::new();
        for (name, shape) in &spec.inputs {
            blob_index.insert(name.clone(), blobs.len());
            blobs.push(Blob::new(shape));
        }
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut bottoms = Vec::new();
        let mut tops = Vec::new();
        let mut consumers: HashMap<usize, usize> = HashMap::new();
        let num_inputs = blobs.len();

        for (li, ls) in spec.layers.iter().enumerate() {
            let seed = spec.seed.wrapping_add(li as u64 * 7919);
            let layer: Box<dyn Layer> = match &ls.kind {
                LayerKind::Convolution {
                    num_output,
                    kernel,
                    stride,
                    pad,
                } => Box::new(ConvLayer::new(
                    &ls.name,
                    conv::ConvConfig {
                        num_output: *num_output,
                        kernel: *kernel,
                        stride: *stride,
                        pad: *pad,
                    },
                    seed,
                )),
                LayerKind::Pooling {
                    method,
                    kernel,
                    stride,
                } => {
                    let m = match method.as_str() {
                        "max" => PoolMethod::Max,
                        "ave" => PoolMethod::Average,
                        other => panic!("unknown pooling method {other}"),
                    };
                    Box::new(PoolingLayer::new(&ls.name, m, *kernel, *stride))
                }
                LayerKind::Relu => Box::new(ReluLayer::new(&ls.name)),
                LayerKind::Lrn => Box::new(LrnLayer::new(&ls.name)),
                LayerKind::InnerProduct { num_output } => {
                    Box::new(InnerProductLayer::new(&ls.name, *num_output, seed))
                }
                LayerKind::SoftmaxLoss => Box::new(SoftmaxLossLayer::new(&ls.name)),
                LayerKind::Accuracy => Box::new(AccuracyLayer::new(&ls.name)),
                LayerKind::Dropout { ratio } => Box::new(DropoutLayer::new(&ls.name, *ratio, seed)),
                LayerKind::Concat => Box::new(ConcatLayer::new(&ls.name)),
                LayerKind::ContrastiveLoss { margin } => {
                    Box::new(ContrastiveLossLayer::new(&ls.name, *margin))
                }
                LayerKind::Split => Box::new(SplitLayer::new(&ls.name)),
            };
            let b_idx: Vec<usize> = ls
                .bottoms
                .iter()
                .map(|b| {
                    *blob_index
                        .get(b)
                        .unwrap_or_else(|| panic!("layer {} references unknown blob {b}", ls.name))
                })
                .collect();
            if layer.needs_backward() {
                for &b in &b_idx {
                    // External inputs may fan out (their gradient is never
                    // consumed); produced blobs must have one backward
                    // consumer, since backward overwrites bottom diffs.
                    if b >= num_inputs {
                        let c = consumers.entry(b).or_insert(0);
                        *c += 1;
                        assert!(
                            *c <= 1,
                            "blob index {b} consumed by multiple backward layers (layer {})",
                            ls.name
                        );
                    }
                }
            }
            let t_idx: Vec<usize> = ls
                .tops
                .iter()
                .map(|t| {
                    assert!(
                        !blob_index.contains_key(t),
                        "duplicate top blob {t} (in-place layers unsupported)"
                    );
                    blob_index.insert(t.clone(), blobs.len());
                    blobs.push(Blob::empty());
                    blobs.len() - 1
                })
                .collect();
            layers.push(layer);
            bottoms.push(b_idx);
            tops.push(t_idx);
        }
        Net {
            name: spec.name.clone(),
            layers,
            bottoms,
            tops,
            blobs,
            blob_index,
        }
    }

    /// Build one of the paper's evaluation networks by name (see
    /// [`crate::models::MODEL_NAMES`]).
    pub fn by_name(net: &str, batch: usize, seed: u64) -> Result<Net, crate::models::SpecError> {
        Ok(Net::from_spec(&crate::models::spec_by_name(
            net, batch, seed,
        )?))
    }

    /// Mutable access to a blob by name (set inputs before forward).
    pub fn blob_mut(&mut self, name: &str) -> &mut Blob {
        let i = *self
            .blob_index
            .get(name)
            .unwrap_or_else(|| panic!("unknown blob {name}"));
        &mut self.blobs[i]
    }

    /// Read a blob by name.
    pub fn blob(&self, name: &str) -> &Blob {
        let i = *self
            .blob_index
            .get(name)
            .unwrap_or_else(|| panic!("unknown blob {name}"));
        &self.blobs[i]
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name().to_string()).collect()
    }

    /// Run one layer's forward (reshape + forward + loss harvest),
    /// returning the layer's weighted loss contribution. The body of
    /// [`forward`](Net::forward), split out so order-driven executors can
    /// step layers in any topological order.
    fn forward_layer(&mut self, i: usize, ctx: &mut ExecCtx) -> f32 {
        // Move tops out so bottoms can be borrowed immutably.
        let mut my_tops: Vec<Blob> = self.tops[i]
            .iter()
            .map(|&t| std::mem::replace(&mut self.blobs[t], Blob::empty()))
            .collect();
        {
            let my_bottoms: Vec<&Blob> = self.bottoms[i].iter().map(|&b| &self.blobs[b]).collect();
            self.layers[i].reshape(&my_bottoms, &mut my_tops);
            self.layers[i].forward(ctx, &my_bottoms, &mut my_tops);
        }
        let w = self.layers[i].loss_weight();
        let mut loss = 0.0f32;
        if w > 0.0 && ctx.compute {
            loss = w * my_tops[0].data()[0];
        }
        for (&t, blob) in self.tops[i].iter().zip(my_tops) {
            self.blobs[t] = blob;
        }
        loss
    }

    /// Run the forward pass; returns the weighted sum of loss-layer
    /// outputs.
    pub fn forward(&mut self, ctx: &mut ExecCtx) -> f32 {
        ctx.net_name.clone_from(&self.name);
        ctx.batch = self.blobs.first().map_or(0, |b| b.num());
        let mut loss = 0.0f32;
        for i in 0..self.layers.len() {
            loss += self.forward_layer(i, ctx);
        }
        loss
    }

    /// Run the forward pass stepping layers in the given order, which
    /// must be a permutation of `0..num_layers()` that respects blob
    /// dependencies (any topological order of the layer DAG). Because
    /// each layer's CPU math reads only its own bottoms, every valid
    /// order computes bitwise-identical blobs — the net-level analogue of
    /// GLP4NN's convergence invariance, and the property the
    /// inter-operator scheduler's wave execution relies on.
    pub fn forward_in_order(&mut self, ctx: &mut ExecCtx, order: &[usize]) -> f32 {
        assert_eq!(
            order.len(),
            self.layers.len(),
            "order must cover every layer"
        );
        ctx.net_name.clone_from(&self.name);
        ctx.batch = self.blobs.first().map_or(0, |b| b.num());
        let mut loss = 0.0f32;
        for &i in order {
            loss += self.forward_layer(i, ctx);
        }
        loss
    }

    /// Run the backward pass stepping layers in *reverse* of the given
    /// topological order (see
    /// [`forward_in_order`](Net::forward_in_order); forward must have run
    /// first).
    pub fn backward_in_order(&mut self, ctx: &mut ExecCtx, order: &[usize]) {
        assert_eq!(
            order.len(),
            self.layers.len(),
            "order must cover every layer"
        );
        self.seed_loss_grads();
        for &i in order.iter().rev() {
            self.backward_layer(i, ctx);
        }
    }

    /// Inference-only forward: switches every layer to inference
    /// behaviour and runs the forward pass without accumulating a loss or
    /// touching any diff/solver state. Read outputs by blob name
    /// afterwards. The net stays in inference mode until
    /// [`set_train`](Self::set_train)`(true)` is called.
    pub fn forward_inference(&mut self, ctx: &mut ExecCtx) {
        self.set_train(false);
        let _ = self.forward(ctx);
    }

    /// Run the backward pass (forward must have run first).
    pub fn backward(&mut self, ctx: &mut ExecCtx) {
        self.seed_loss_grads();
        for i in (0..self.layers.len()).rev() {
            self.backward_layer(i, ctx);
        }
    }

    /// Seed the loss-layer output gradients (`∂L/∂loss =` loss weight) —
    /// the prologue of [`backward`](Net::backward), split out so callers
    /// can step the backward pass layer by layer (e.g. to overlap each
    /// layer's gradient all-reduce with the next layer's backward).
    pub fn seed_loss_grads(&mut self) {
        for i in 0..self.layers.len() {
            let w = self.layers[i].loss_weight();
            if w > 0.0 {
                let t = self.tops[i][0];
                self.blobs[t].diff_mut()[0] = w;
            }
        }
    }

    /// Run a single layer's backward (a no-op for layers that don't
    /// participate). Call [`seed_loss_grads`](Net::seed_loss_grads) first,
    /// then step `i` from `num_layers()-1` down to 0;
    /// [`backward`](Net::backward) is exactly that loop.
    pub fn backward_layer(&mut self, i: usize, ctx: &mut ExecCtx) {
        ctx.net_name.clone_from(&self.name);
        ctx.batch = self.blobs.first().map_or(0, |b| b.num());
        if !self.layers[i].needs_backward() {
            return;
        }
        let mut my_bottoms: Vec<Blob> = self.bottoms[i]
            .iter()
            .map(|&b| std::mem::replace(&mut self.blobs[b], Blob::empty()))
            .collect();
        {
            let my_tops: Vec<&Blob> = self.tops[i].iter().map(|&t| &self.blobs[t]).collect();
            self.layers[i].backward(ctx, &my_tops, &mut my_bottoms);
        }
        for (&b, blob) in self.bottoms[i].iter().zip(my_bottoms) {
            self.blobs[b] = blob;
        }
    }

    /// The learnable parameter blobs of layer `i` (empty for
    /// parameter-free layers).
    pub fn layer_params_mut(&mut self, i: usize) -> Vec<&mut Blob> {
        self.layers[i].params_mut()
    }

    /// All learnable parameter blobs, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Blob> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zero all parameter gradients (start of an iteration).
    pub fn zero_param_diffs(&mut self) {
        for p in self.params_mut() {
            p.zero_diff();
        }
    }

    /// Switch every layer between training and inference behaviour.
    pub fn set_train(&mut self, train: bool) {
        for l in &mut self.layers {
            l.set_train(train);
        }
    }

    /// Snapshot all learnable parameters (a checkpoint), in layer order.
    pub fn state_dict(&mut self) -> Vec<Vec<f32>> {
        self.params_mut()
            .iter()
            .map(|p| p.data().to_vec())
            .collect()
    }

    /// Restore parameters from a [`state_dict`](Self::state_dict)
    /// snapshot.
    ///
    /// # Panics
    /// Panics on a shape mismatch (wrong network or uninitialized layers —
    /// run one forward pass first so lazily-initialized parameters exist).
    pub fn load_state_dict(&mut self, state: &[Vec<f32>]) {
        let mut params = self.params_mut();
        assert_eq!(
            params.len(),
            state.len(),
            "checkpoint has {} parameter blobs, net has {}",
            state.len(),
            params.len()
        );
        for (p, s) in params.iter_mut().zip(state) {
            assert_eq!(p.count(), s.len(), "parameter shape mismatch");
            p.data_mut().copy_from_slice(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    fn tiny_spec() -> NetSpec {
        NetSpec {
            name: "tiny".to_string(),
            inputs: vec![
                ("data".to_string(), vec![4, 1, 8, 8]),
                ("label".to_string(), vec![4]),
            ],
            layers: vec![
                LayerSpec {
                    name: "conv1".into(),
                    kind: LayerKind::Convolution {
                        num_output: 4,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                    },
                    bottoms: vec!["data".into()],
                    tops: vec!["conv1_out".into()],
                },
                LayerSpec {
                    name: "relu1".into(),
                    kind: LayerKind::Relu,
                    bottoms: vec!["conv1_out".into()],
                    tops: vec!["relu1_out".into()],
                },
                LayerSpec {
                    name: "ip1".into(),
                    kind: LayerKind::InnerProduct { num_output: 3 },
                    bottoms: vec!["relu1_out".into()],
                    tops: vec!["ip1_out".into()],
                },
                LayerSpec {
                    name: "loss".into(),
                    kind: LayerKind::SoftmaxLoss,
                    bottoms: vec!["ip1_out".into(), "label".into()],
                    tops: vec!["loss_out".into()],
                },
            ],
            seed: 11,
        }
    }

    fn set_inputs(net: &mut Net) {
        let data: Vec<f32> = (0..4 * 64).map(|i| ((i % 17) as f32 - 8.0) * 0.1).collect();
        net.blob_mut("data").data_mut().copy_from_slice(&data);
        net.blob_mut("label")
            .data_mut()
            .copy_from_slice(&[0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn builds_and_runs_forward_backward() {
        let mut net = Net::from_spec(&tiny_spec());
        assert_eq!(net.num_layers(), 4);
        set_inputs(&mut net);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let loss = net.forward(&mut ctx);
        assert!(loss.is_finite() && loss > 0.0);
        net.backward(&mut ctx);
        // Conv weights received gradient.
        let grads: f32 = net.params_mut()[0].diff().iter().map(|v| v.abs()).sum();
        assert!(grads > 0.0);
    }

    #[test]
    fn forward_is_deterministic() {
        let run = || {
            let mut net = Net::from_spec(&tiny_spec());
            set_inputs(&mut net);
            let mut ctx = ExecCtx::naive(DeviceProps::p100());
            net.forward(&mut ctx)
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    #[should_panic(expected = "unknown blob missing")]
    fn dangling_bottom_panics() {
        let mut spec = tiny_spec();
        spec.layers[0].bottoms[0] = "missing".into();
        Net::from_spec(&spec);
    }

    #[test]
    #[should_panic(expected = "duplicate top")]
    fn inplace_tops_rejected() {
        let mut spec = tiny_spec();
        spec.layers[1].tops[0] = "conv1_out".into();
        Net::from_spec(&spec);
    }

    #[test]
    fn layer_names_in_order() {
        let net = Net::from_spec(&tiny_spec());
        assert_eq!(net.layer_names(), vec!["conv1", "relu1", "ip1", "loss"]);
    }

    #[test]
    fn checkpoint_roundtrip_restores_outputs() {
        let mut net = Net::from_spec(&tiny_spec());
        set_inputs(&mut net);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let loss0 = net.forward(&mut ctx);
        let ckpt = net.state_dict();
        assert!(!ckpt.is_empty());
        // Perturb weights, confirm the output changes, restore, confirm
        // bitwise recovery.
        for p in net.params_mut() {
            for v in p.data_mut() {
                *v += 0.1;
            }
        }
        set_inputs(&mut net);
        let perturbed = net.forward(&mut ctx);
        assert_ne!(loss0.to_bits(), perturbed.to_bits());
        net.load_state_dict(&ckpt);
        set_inputs(&mut net);
        let restored = net.forward(&mut ctx);
        assert_eq!(loss0.to_bits(), restored.to_bits());
    }

    #[test]
    #[should_panic(expected = "parameter blobs")]
    fn checkpoint_arity_checked() {
        let mut net = Net::from_spec(&tiny_spec());
        set_inputs(&mut net);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        net.forward(&mut ctx);
        net.load_state_dict(&[vec![0.0; 4]]);
    }

    #[test]
    fn set_train_toggles_dropout() {
        use crate::layer::Layer as _;
        use crate::layers::DropoutLayer;
        let mut d = DropoutLayer::new("drop", 0.5, 1);
        d.set_train(false);
        assert!(!d.train);
        d.set_train(true);
        assert!(d.train);
    }

    #[test]
    fn inference_spec_strips_trailing_loss_layers() {
        let spec = tiny_spec();
        let inf = spec.inference();
        assert_eq!(inf.layers.len(), 3);
        assert_eq!(inf.final_top(), Some("ip1_out"));
        // Surviving layers are untouched, so per-layer seeds are stable.
        assert_eq!(&inf.layers[..], &spec.layers[..3]);
    }

    #[test]
    fn inference_forward_is_bitwise_identical_to_training_forward() {
        // The served path (stripped spec + forward_inference) must produce
        // exactly the bits the training net computes for the same scoring
        // layers — the serving analogue of the paper's
        // convergence-invariance claim.
        let spec = crate::models::cifar10_quick(8, 77);
        let fill = |net: &mut Net| {
            let n = net.blob("data").count();
            let data: Vec<f32> = (0..n).map(|i| ((i % 251) as f32 - 125.0) * 0.01).collect();
            net.blob_mut("data").data_mut().copy_from_slice(&data);
        };

        let mut train_net = Net::from_spec(&spec);
        fill(&mut train_net);
        train_net
            .blob_mut("label")
            .data_mut()
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = (i % 10) as f32);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        train_net.forward(&mut ctx);

        let mut infer_net = Net::from_spec(&spec.inference());
        fill(&mut infer_net);
        infer_net.forward_inference(&mut ctx);

        let scores = spec.inference();
        let out = scores.final_top().unwrap();
        let a = train_net.blob(out).data();
        let b = infer_net.blob(out).data();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// First-touch blobs: weights nobody read during timing-only
    /// iterations materialise later exactly as an eager compute run's.
    #[test]
    fn state_dict_after_timing_only_iterations_is_bitwise_the_compute_one() {
        let mut timed = Net::from_spec(&tiny_spec());
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        for _ in 0..2 {
            timed.forward(&mut ctx);
            timed.backward(&mut ctx);
        }
        let mut computed = Net::from_spec(&tiny_spec());
        set_inputs(&mut computed);
        computed.forward(&mut ExecCtx::naive(DeviceProps::p100()));

        let bits = |state: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            let to_bits = |p: &Vec<f32>| p.iter().map(|v| v.to_bits()).collect();
            state.iter().map(to_bits).collect()
        };
        let (timed, computed) = (bits(timed.state_dict()), bits(computed.state_dict()));
        assert_eq!(timed.len(), 4, "conv1 and ip1 weight + bias");
        assert!(timed[0].iter().any(|&w| w != 0), "weights were filled");
        assert_eq!(timed, computed);
    }

    #[test]
    fn by_name_rejects_unknown_networks() {
        assert!(Net::by_name("CIFAR10", 4, 1).is_ok());
        let err = Net::by_name("ResNet", 4, 1).err().unwrap();
        assert!(err.to_string().contains("valid names"));
    }

    #[test]
    fn zero_param_diffs_clears_gradients() {
        let mut net = Net::from_spec(&tiny_spec());
        set_inputs(&mut net);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        net.forward(&mut ctx);
        net.backward(&mut ctx);
        net.zero_param_diffs();
        for p in net.params_mut() {
            assert!(p.diff().iter().all(|&v| v == 0.0));
        }
    }
}
