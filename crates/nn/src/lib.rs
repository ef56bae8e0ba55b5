//! Neural-network library for the `reprune` reversible-pruning stack.
//!
//! Provides everything the pruning engine and runtime need from an ML
//! framework, implemented from scratch on top of [`reprune_tensor`]:
//!
//! * [`layer`] — Linear, Conv2d, BatchNorm2d, activations, pooling, dropout,
//!   all with forward and backward passes,
//! * [`Network`] — a sequential model with inference, training, and the
//!   parameter-access API the pruning engine hooks into,
//! * [`loss`] — softmax cross-entropy and MSE,
//! * [`train`] — mini-batch SGD with momentum and evaluation loops,
//! * [`metrics`] — accuracy, confidence, confusion matrices,
//! * [`dataset`] — seeded synthetic perception and control workloads that
//!   substitute for the driving datasets we cannot ship,
//! * [`models`] — the reference model zoo used across the experiments.
//!
//! # Example
//!
//! ```
//! use reprune_nn::{models, dataset::{SceneDataset, SceneContext}};
//!
//! # fn main() -> Result<(), reprune_nn::NnError> {
//! let mut net = models::perception_cnn(6, 42)?;
//! let data = SceneDataset::builder()
//!     .samples(8)
//!     .context(SceneContext::Clear)
//!     .seed(1)
//!     .build();
//! let sample = &data.samples()[0];
//! let probs = net.predict_proba(&sample.input)?;
//! assert_eq!(probs.len(), 6);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod network;

pub mod dataset;
pub mod exec;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod serialize;
pub mod train;

pub use error::NnError;
pub use exec::{ExecPlan, PrecisionMode, QuantScratch, Scratch};
pub use network::{LayerId, Network, PrunableKind, PrunableLayer};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
