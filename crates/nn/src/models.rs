//! The paper's four evaluation networks (Table 5 layer configurations).
//!
//! All convolution layers carry exactly the `N, C_i, H/W, C_o, F, S, P`
//! values of Table 5. Non-convolution structure follows the corresponding
//! Caffe reference models (`cifar10_quick`, `mnist_siamese`,
//! `bvlc_reference_caffenet`, `bvlc_googlenet`); the GoogLeNet variant is
//! the inception-style subgraph containing the six convolutional units the
//! paper selected from the full 59.

use crate::net::{LayerKind, LayerSpec, NetSpec};

fn conv(name: &str, bottom: &str, top: &str, co: usize, k: usize, s: usize, p: usize) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::Convolution {
            num_output: co,
            kernel: k,
            stride: s,
            pad: p,
        },
        bottoms: vec![bottom.into()],
        tops: vec![top.into()],
    }
}

fn pool(name: &str, bottom: &str, top: &str, method: &str, k: usize, s: usize) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::Pooling {
            method: method.into(),
            kernel: k,
            stride: s,
        },
        bottoms: vec![bottom.into()],
        tops: vec![top.into()],
    }
}

fn relu(name: &str, bottom: &str, top: &str) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::Relu,
        bottoms: vec![bottom.into()],
        tops: vec![top.into()],
    }
}

fn lrn(name: &str, bottom: &str, top: &str) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::Lrn,
        bottoms: vec![bottom.into()],
        tops: vec![top.into()],
    }
}

fn ip(name: &str, bottom: &str, top: &str, n: usize) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::InnerProduct { num_output: n },
        bottoms: vec![bottom.into()],
        tops: vec![top.into()],
    }
}

fn dropout(name: &str, bottom: &str, top: &str, ratio: f32) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::Dropout { ratio },
        bottoms: vec![bottom.into()],
        tops: vec![top.into()],
    }
}

fn softmax_loss(name: &str, scores: &str, labels: &str, top: &str) -> LayerSpec {
    LayerSpec {
        name: name.into(),
        kind: LayerKind::SoftmaxLoss,
        bottoms: vec![scores.into(), labels.into()],
        tops: vec![top.into()],
    }
}

/// CIFAR10-quick: 3 conv layers (Table 5 rows 1-3), batch 100, 32×32×3.
pub fn cifar10_quick(batch: usize, seed: u64) -> NetSpec {
    NetSpec {
        name: "CIFAR10".into(),
        inputs: vec![
            ("data".into(), vec![batch, 3, 32, 32]),
            ("label".into(), vec![batch]),
        ],
        layers: vec![
            conv("conv1", "data", "conv1_o", 32, 5, 1, 2),
            pool("pool1", "conv1_o", "pool1_o", "max", 3, 2),
            relu("relu1", "pool1_o", "relu1_o"),
            conv("conv2", "relu1_o", "conv2_o", 32, 5, 1, 2),
            relu("relu2", "conv2_o", "relu2_o"),
            pool("pool2", "relu2_o", "pool2_o", "ave", 3, 2),
            conv("conv3", "pool2_o", "conv3_o", 64, 5, 1, 2),
            relu("relu3", "conv3_o", "relu3_o"),
            pool("pool3", "relu3_o", "pool3_o", "ave", 3, 2),
            ip("ip1", "pool3_o", "ip1_o", 64),
            ip("ip2", "ip1_o", "ip2_o", 10),
            softmax_loss("loss", "ip2_o", "label", "loss_o"),
        ],
        seed,
    }
}

/// Siamese (twin LeNet): conv1/conv2 and conv1_p/conv2_p (Table 5 rows
/// 4-7), batch 64, 28×28×1 pairs, contrastive loss.
pub fn siamese(batch: usize, seed: u64) -> NetSpec {
    let tower = |suffix: &str, data: &str, seed_note: &str| -> Vec<LayerSpec> {
        let n = |base: &str| format!("{base}{suffix}");
        let _ = seed_note;
        vec![
            conv(&n("conv1"), data, &n("conv1_o"), 20, 5, 1, 0),
            pool(&n("pool1"), &n("conv1_o"), &n("pool1_o"), "max", 2, 2),
            conv(&n("conv2"), &n("pool1_o"), &n("conv2_o"), 50, 5, 1, 0),
            pool(&n("pool2"), &n("conv2_o"), &n("pool2_o"), "max", 2, 2),
            ip(&n("ip1"), &n("pool2_o"), &n("ip1_o"), 500),
            relu(&n("relu1"), &n("ip1_o"), &n("relu1_o")),
            ip(&n("ip2"), &n("relu1_o"), &n("ip2_o"), 10),
            ip(&n("feat"), &n("ip2_o"), &n("feat_o"), 2),
        ]
    };
    let mut layers = tower("", "data", "a");
    layers.extend(tower("_p", "data_p", "b"));
    layers.push(LayerSpec {
        name: "loss".into(),
        kind: LayerKind::ContrastiveLoss { margin: 1.0 },
        bottoms: vec!["feat_o".into(), "feat_o_p".into(), "sim".into()],
        tops: vec!["loss_o".into()],
    });
    NetSpec {
        name: "Siamese".into(),
        inputs: vec![
            ("data".into(), vec![batch, 1, 28, 28]),
            ("data_p".into(), vec![batch, 1, 28, 28]),
            ("sim".into(), vec![batch]),
        ],
        layers,
        seed,
    }
}

/// CaffeNet (AlexNet variant): conv1-conv5 (Table 5 rows 8-12), batch 256,
/// 227×227×3.
pub fn caffenet(batch: usize, seed: u64) -> NetSpec {
    NetSpec {
        name: "CaffeNet".into(),
        inputs: vec![
            ("data".into(), vec![batch, 3, 227, 227]),
            ("label".into(), vec![batch]),
        ],
        layers: vec![
            conv("conv1", "data", "conv1_o", 96, 11, 4, 0),
            relu("relu1", "conv1_o", "relu1_o"),
            pool("pool1", "relu1_o", "pool1_o", "max", 3, 2),
            lrn("norm1", "pool1_o", "norm1_o"),
            conv("conv2", "norm1_o", "conv2_o", 256, 5, 1, 2),
            relu("relu2", "conv2_o", "relu2_o"),
            pool("pool2", "relu2_o", "pool2_o", "max", 3, 2),
            lrn("norm2", "pool2_o", "norm2_o"),
            conv("conv3", "norm2_o", "conv3_o", 384, 3, 1, 1),
            relu("relu3", "conv3_o", "relu3_o"),
            conv("conv4", "relu3_o", "conv4_o", 384, 3, 1, 1),
            relu("relu4", "conv4_o", "relu4_o"),
            conv("conv5", "relu4_o", "conv5_o", 256, 3, 1, 1),
            relu("relu5", "conv5_o", "relu5_o"),
            pool("pool5", "relu5_o", "pool5_o", "max", 3, 2),
            ip("fc6", "pool5_o", "fc6_o", 4096),
            relu("relu6", "fc6_o", "relu6_o"),
            dropout("drop6", "relu6_o", "drop6_o", 0.5),
            ip("fc7", "drop6_o", "fc7_o", 4096),
            relu("relu7", "fc7_o", "relu7_o"),
            dropout("drop7", "relu7_o", "drop7_o", 0.5),
            ip("fc8", "drop7_o", "fc8_o", 1000),
            softmax_loss("loss", "fc8_o", "label", "loss_o"),
        ],
        seed,
    }
}

/// GoogLeNet subgraph: an inception-style block over a `832×7×7` input
/// containing the paper's six selected convolutional units conv_1..conv_6
/// (Table 5 rows 13-18), batch 32.
pub fn googlenet_subset(batch: usize, seed: u64) -> NetSpec {
    NetSpec {
        name: "GoogLeNet".into(),
        inputs: vec![
            ("data".into(), vec![batch, 832, 7, 7]),
            ("label".into(), vec![batch]),
        ],
        layers: vec![
            // Branch 1: conv_3 (832 -> 384, 1x1).
            conv("conv_3", "data", "b1_o", 384, 1, 1, 0),
            relu("relu_b1", "b1_o", "b1_r"),
            // Branch 2: conv_5 (832 -> 192, 1x1) then conv_4 (192 -> 384, 3x3 p1).
            conv("conv_5", "data", "b2_reduce", 192, 1, 1, 0),
            relu("relu_b2a", "b2_reduce", "b2_reduce_r"),
            conv("conv_4", "b2_reduce_r", "b2_o", 384, 3, 1, 1),
            relu("relu_b2b", "b2_o", "b2_r"),
            // Branch 3: 1x1 reduce to 160 (auxiliary unit) then conv_1
            // (160 -> 320, 3x3 p1).
            conv("reduce_160", "data", "b3_reduce", 160, 1, 1, 0),
            relu("relu_b3a", "b3_reduce", "b3_reduce_r"),
            conv("conv_1", "b3_reduce_r", "b3_o", 320, 3, 1, 1),
            relu("relu_b3b", "b3_o", "b3_r"),
            // Branch 4: conv_2 (832 -> 32, 1x1).
            conv("conv_2", "data", "b4_o", 32, 1, 1, 0),
            relu("relu_b4", "b4_o", "b4_r"),
            // Branch 5: conv_6 (832 -> 48, 1x1).
            conv("conv_6", "data", "b5_o", 48, 1, 1, 0),
            relu("relu_b5", "b5_o", "b5_r"),
            // Join: 384 + 384 + 320 + 32 + 48 = 1168 channels.
            LayerSpec {
                name: "inception_out".into(),
                kind: LayerKind::Concat,
                bottoms: vec![
                    "b1_r".into(),
                    "b2_r".into(),
                    "b3_r".into(),
                    "b4_r".into(),
                    "b5_r".into(),
                ],
                tops: vec!["cat_o".into()],
            },
            pool("pool_avg", "cat_o", "pool_o", "ave", 7, 1),
            dropout("drop", "pool_o", "drop_o", 0.4),
            ip("classifier", "drop_o", "fc_o", 1000),
            softmax_loss("loss", "fc_o", "label", "loss_o"),
        ],
        seed,
    }
}

/// Synthetic fan-out network for inter-operator scheduling experiments:
/// a split layer duplicates the input into four independent conv+relu
/// branches (a 4-wide antichain in the layer DAG) that rejoin through a
/// concat. Not one of the paper's four evaluation nets — it exists to
/// exercise branch co-scheduling on a topology whose parallelism comes
/// entirely from fan-out (Siamese's comes from disjoint input towers).
pub fn fanout(batch: usize, seed: u64) -> NetSpec {
    let mut layers = vec![LayerSpec {
        name: "split".into(),
        kind: LayerKind::Split,
        bottoms: vec!["data".into()],
        tops: (0..4).map(|i| format!("s{i}")).collect(),
    }];
    for i in 0..4 {
        layers.push(conv(
            &format!("conv_b{i}"),
            &format!("s{i}"),
            &format!("c{i}"),
            8,
            3,
            1,
            1,
        ));
        layers.push(relu(
            &format!("relu_b{i}"),
            &format!("c{i}"),
            &format!("r{i}"),
        ));
    }
    layers.push(LayerSpec {
        name: "join".into(),
        kind: LayerKind::Concat,
        bottoms: (0..4).map(|i| format!("r{i}")).collect(),
        tops: vec!["cat_o".into()],
    });
    layers.push(ip("ip1", "cat_o", "ip1_o", 10));
    layers.push(softmax_loss("loss", "ip1_o", "label", "loss_o"));
    NetSpec {
        name: "FanOut".into(),
        inputs: vec![
            ("data".into(), vec![batch, 3, 16, 16]),
            ("label".into(), vec![batch]),
        ],
        layers,
        seed,
    }
}

/// One Table 5 row: `(net, layer, N, C_i, H/W, C_o, F, S, P)`.
pub type Table5Row = (
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// Table 5 rows: `(net, layer, N, C_i, H/W, C_o, F, S, P)`.
pub fn table5_rows() -> Vec<Table5Row> {
    vec![
        ("CIFAR10", "conv1", 100, 3, 32, 32, 5, 1, 2),
        ("CIFAR10", "conv2", 100, 32, 16, 32, 5, 1, 2),
        ("CIFAR10", "conv3", 100, 32, 8, 64, 5, 1, 2),
        ("Siamese", "conv1", 64, 1, 28, 20, 5, 1, 0),
        ("Siamese", "conv2", 64, 20, 12, 50, 5, 1, 0),
        ("Siamese", "conv1_p", 64, 1, 28, 20, 5, 1, 0),
        ("Siamese", "conv2_p", 64, 20, 12, 50, 5, 1, 0),
        ("CaffeNet", "conv1", 256, 3, 227, 96, 11, 4, 0),
        ("CaffeNet", "conv2", 256, 96, 27, 256, 5, 1, 2),
        ("CaffeNet", "conv3", 256, 256, 13, 384, 3, 1, 1),
        ("CaffeNet", "conv4", 256, 384, 13, 384, 3, 1, 1),
        ("CaffeNet", "conv5", 256, 384, 13, 256, 3, 1, 1),
        ("GoogLeNet", "conv_1", 32, 160, 7, 320, 3, 1, 1),
        ("GoogLeNet", "conv_2", 32, 832, 7, 32, 1, 1, 0),
        ("GoogLeNet", "conv_3", 32, 832, 7, 384, 1, 1, 0),
        ("GoogLeNet", "conv_4", 32, 192, 7, 384, 3, 1, 1),
        ("GoogLeNet", "conv_5", 32, 832, 7, 192, 1, 1, 0),
        ("GoogLeNet", "conv_6", 32, 832, 7, 48, 1, 1, 0),
    ]
}

/// Networks resolvable by name through [`spec_by_name`] /
/// [`crate::Net::by_name`].
pub const MODEL_NAMES: [&str; 4] = ["CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"];

/// A model name that [`spec_by_name`] does not recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelError {
    /// The name that failed to resolve.
    pub requested: String,
}

impl std::fmt::Display for UnknownModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown network {:?}; valid names: {}",
            self.requested,
            MODEL_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownModelError {}

/// Why [`spec_by_name`] could not build a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The name is not a known network.
    UnknownModel(UnknownModelError),
    /// A batch of zero samples: every layer's per-sample size would
    /// divide by it.
    ZeroBatch,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownModel(e) => e.fmt(f),
            SpecError::ZeroBatch => f.write_str("batch size must be positive, got 0"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Build a named evaluation network's spec at an explicit batch size.
pub fn spec_by_name(net: &str, batch: usize, seed: u64) -> Result<NetSpec, SpecError> {
    let build = match net {
        "CIFAR10" => cifar10_quick,
        "Siamese" => siamese,
        "CaffeNet" => caffenet,
        "GoogLeNet" => googlenet_subset,
        "FanOut" => fanout,
        other => {
            return Err(SpecError::UnknownModel(UnknownModelError {
                requested: other.to_string(),
            }))
        }
    };
    if batch == 0 {
        return Err(SpecError::ZeroBatch);
    }
    Ok(build(batch, seed))
}

/// Default batch sizes per network (Table 5's `N` column).
pub fn default_batch(net: &str) -> Result<usize, UnknownModelError> {
    match net {
        "CIFAR10" => Ok(100),
        "Siamese" => Ok(64),
        "CaffeNet" => Ok(256),
        "GoogLeNet" => Ok(32),
        "FanOut" => Ok(32),
        other => Err(UnknownModelError {
            requested: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecCtx;
    use crate::net::Net;
    use gpu_sim::DeviceProps;

    #[test]
    fn cifar10_builds_and_shapes_match_table5() {
        let mut net = Net::from_spec(&cifar10_quick(10, 1));
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        net.forward(&mut ctx);
        // conv2 input must be 32ch 16x16, conv3 input 32ch 8x8.
        assert_eq!(net.blob("relu1_o").shape(), &[10, 32, 16, 16]);
        assert_eq!(net.blob("pool2_o").shape(), &[10, 32, 8, 8]);
        assert_eq!(net.blob("ip2_o").shape(), &[10, 10]);
    }

    #[test]
    fn siamese_builds_with_twin_towers() {
        let spec = siamese(8, 2);
        let mut net = Net::from_spec(&spec);
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        net.forward(&mut ctx);
        // conv2 sees 20ch 12x12 (Table 5 row 5).
        assert_eq!(net.blob("pool1_o").shape(), &[8, 20, 12, 12]);
        assert_eq!(net.blob("pool1_o_p").shape(), &[8, 20, 12, 12]);
        assert_eq!(net.blob("feat_o").shape(), &[8, 2]);
    }

    #[test]
    fn caffenet_builds_with_table5_shapes() {
        let mut net = Net::from_spec(&caffenet(4, 3));
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        net.forward(&mut ctx);
        assert_eq!(net.blob("conv1_o").shape(), &[4, 96, 55, 55]);
        assert_eq!(net.blob("norm1_o").shape(), &[4, 96, 27, 27]); // conv2 input H=27
        assert_eq!(net.blob("norm2_o").shape(), &[4, 256, 13, 13]); // conv3 input H=13
        assert_eq!(net.blob("conv5_o").shape(), &[4, 256, 13, 13]);
        assert_eq!(net.blob("fc8_o").shape(), &[4, 1000]);
    }

    #[test]
    fn googlenet_contains_all_six_units() {
        let spec = googlenet_subset(2, 4);
        let names: Vec<&str> = spec.layers.iter().map(|l| l.name.as_str()).collect();
        for unit in ["conv_1", "conv_2", "conv_3", "conv_4", "conv_5", "conv_6"] {
            assert!(names.contains(&unit), "missing {unit}");
        }
        let mut net = Net::from_spec(&spec);
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        net.forward(&mut ctx);
        assert_eq!(net.blob("cat_o").shape(), &[2, 1168, 7, 7]);
    }

    #[test]
    fn fanout_builds_with_four_parallel_branches() {
        let spec = fanout(4, 7);
        let mut net = Net::from_spec(&spec);
        let mut ctx = ExecCtx::naive(DeviceProps::p100()).timing_only();
        net.forward(&mut ctx);
        // Four same-shape conv branches concatenated along channels.
        for i in 0..4 {
            assert_eq!(net.blob(&format!("r{i}")).shape(), &[4, 8, 16, 16]);
        }
        assert_eq!(net.blob("cat_o").shape(), &[4, 32, 16, 16]);
        assert_eq!(net.blob("ip1_o").shape(), &[4, 10]);
        assert_eq!(spec_by_name("FanOut", 4, 7).unwrap(), spec);
        assert_eq!(default_batch("FanOut"), Ok(32));
    }

    #[test]
    fn table5_has_18_conv_rows() {
        let rows = table5_rows();
        assert_eq!(rows.len(), 18);
        assert_eq!(rows.iter().filter(|r| r.0 == "GoogLeNet").count(), 6);
        assert_eq!(default_batch("CaffeNet"), Ok(256));
        let err = default_batch("AlexNet").unwrap_err();
        assert!(
            err.to_string().contains("CIFAR10"),
            "error lists valid names: {err}"
        );
        assert!(spec_by_name("nope", 4, 1).is_err());
        assert_eq!(spec_by_name("CIFAR10", 4, 1).unwrap(), cifar10_quick(4, 1));
    }

    #[test]
    fn batch_zero_is_an_error_not_a_division_by_zero() {
        for name in MODEL_NAMES.iter().chain(&["FanOut"]) {
            assert_eq!(
                spec_by_name(name, 0, 1),
                Err(SpecError::ZeroBatch),
                "{name}"
            );
            assert!(Net::by_name(name, 0, 1).is_err(), "{name}");
        }
        let err = spec_by_name("CIFAR10", 0, 1).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
        // The name is checked first.
        assert!(matches!(
            spec_by_name("nope", 0, 1),
            Err(SpecError::UnknownModel(_))
        ));
    }

    #[test]
    fn small_batch_cifar_trains_end_to_end() {
        use crate::data::SyntheticDataset;
        use crate::solver::{Solver, SolverConfig};
        let net = Net::from_spec(&cifar10_quick(8, 5));
        let mut solver = Solver::new(net, SolverConfig::default());
        let ds = SyntheticDataset::cifar_like(5);
        let mut ctx = ExecCtx::naive(DeviceProps::p100());
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..6 {
            let (mut data, mut label) = (
                std::mem::replace(solver.net.blob_mut("data"), tensor::Blob::empty()),
                std::mem::replace(solver.net.blob_mut("label"), tensor::Blob::empty()),
            );
            ds.fill_batch(it * 8, &mut data, &mut label);
            *solver.net.blob_mut("data") = data;
            *solver.net.blob_mut("label") = label;
            let loss = solver.step(&mut ctx);
            if it == 0 {
                first = loss;
            }
            last = loss;
            assert!(loss.is_finite());
        }
        assert!(
            last < first * 1.5,
            "training must not diverge: {first} -> {last}"
        );
    }
}
