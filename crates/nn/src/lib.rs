#![warn(missing_docs)]

//! A Caffe-like deep-learning framework with simulated-GPU kernel dispatch.
//!
//! This crate is the reproduction's stand-in for Caffe — the host framework
//! the paper integrates GLP4NN into ("GLP4NN-Caffe"). It provides:
//!
//! - [`layer`]: the `Layer` trait (forward/backward over bottom/top blobs,
//!   the structure of the paper's Algorithms 1-2) and [`layers`], the layer
//!   zoo used by the paper's four evaluation networks: convolution,
//!   pooling, ReLU, LRN, inner product, softmax loss, contrastive loss
//!   (Siamese), concat (GoogLeNet), dropout and accuracy.
//! - [`net`]: `NetSpec` (declarative network description, Caffe's
//!   prototxt equivalent) and `Net`, a topologically-executed layer stack.
//! - [`solver`]: plain SGD with momentum, weight decay and the standard
//!   learning-rate policies.
//! - [`models`]: the four evaluation networks with the exact convolution
//!   configurations of the paper's Table 5 — CIFAR10-quick, Siamese,
//!   CaffeNet and a GoogLeNet subgraph.
//! - [`data`]: deterministic synthetic datasets shaped like MNIST,
//!   CIFAR-10 and ImageNet (the paper's Table 4) — see DESIGN.md for the
//!   substitution rationale.
//! - [`exec`]: the execution context tying a layer's *real CPU math* to
//!   its *simulated GPU kernels*. Convolution layers emit one dependent
//!   kernel group per batch sample (`im2col → sgemm → bias`, the paper's
//!   batch-level parallelism) and dispatch them naively, over a fixed
//!   number of streams, or through the GLP4NN runtime scheduler.
//!
//! The CPU math is **identical code in every dispatch mode**, so GLP4NN
//! runs produce bitwise-identical parameters to naive runs — the
//! convergence-invariance property of the paper's §3.3.1, verified by this
//! repository's integration tests.

pub mod data;
pub mod exec;
pub mod layer;
pub mod layers;
pub mod models;
pub mod net;
pub mod parallel_train;
pub mod solver;

pub use exec::{DispatchMode, ExecCtx, LayerTiming, StagedDispatch};
pub use layer::Layer;
pub use models::{SpecError, UnknownModelError};
pub use net::{Net, NetSpec};
pub use parallel_train::{DataParallelTrainer, StepReport};
pub use solver::{LrPolicy, MomentumKind, Solver, SolverConfig};
