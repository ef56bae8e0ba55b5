//! Reversible runtime neural-network pruning — the primary contribution of
//! the reproduced paper.
//!
//! Conventional pruning is a one-way door: once weights are zeroed and
//! their values discarded, recovering full accuracy requires reloading the
//! model from storage or retraining. This crate makes the door two-way:
//!
//! * [`criterion`] — magnitude (unstructured) and channel-L2 (structured)
//!   ranking of what to prune, plus a random baseline,
//! * [`mask`] — per-layer element masks with set algebra,
//! * [`ladder`] — a [`SparsityLadder`]: an ordered family of *nested*
//!   masks, so moving between sparsity levels only ever touches the
//!   difference set,
//! * [`pruner`] — [`ReversiblePruner`], which walks a live
//!   [`reprune_nn::Network`] up and down the ladder, recording evicted
//!   weights in a compact reversal log and restoring them in-place in
//!   O(#evicted) time,
//! * [`packed`] — compaction of mask sets into the packed live-row
//!   [`reprune_nn::ExecPlan`] form the sparsity-aware compute engine
//!   executes,
//! * [`baseline`] — the restoration paths the paper compares against:
//!   full-snapshot copy, irreversible prune + storage reload, and
//!   fine-tuning recovery.
//!
//! # Example
//!
//! ```
//! use reprune_nn::models;
//! use reprune_prune::{LadderConfig, PruneCriterion, ReversiblePruner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = models::default_perception_cnn(42)?;
//! let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
//!     .criterion(PruneCriterion::Magnitude)
//!     .build(&net)?;
//! let mut pruner = ReversiblePruner::attach(&net, ladder)?;
//!
//! pruner.set_level(&mut net, 3)?;          // aggressive pruning
//! assert!(net.sparsity() > 0.5);
//! pruner.set_level(&mut net, 0)?;          // instant full restore
//! pruner.verify_restored(&net)?;           // bit-exact original weights
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;

mod f16;

pub mod baseline;
pub mod checksum;
pub mod compact;
pub mod criterion;
pub mod ladder;
pub mod mask;
pub mod packed;
pub mod pruner;
pub mod schedule;
pub mod spill;
pub mod stats;

pub use baseline::{FineTuneRecovery, OneShotPruner, SnapshotRestore};
pub use criterion::PruneCriterion;
pub use error::PruneError;
pub use ladder::{FineTuneSpec, LadderConfig, SparsityLadder};
pub use mask::{LayerMask, MaskSet};
pub use packed::{exec_plan, ladder_plans};
pub use checksum::BlockedHasher;
pub use pruner::{
    weights_checksum, weights_checksum_fnv, HopEntries, IntegrityStats, LogPrecision, PrunerCursor,
    ReversiblePruner, Transition,
};
pub use schedule::IterativeSchedule;
pub use spill::{RecordKind, ScanOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PruneError>;
