//! The managed element of the MAPE-K loop: network, pruner, and the
//! deterministic machinery around them.
//!
//! [`Plant`] owns everything the stages *act on* but do not decide
//! about — live weights, the reversible pruner, packed execution plans,
//! the inference scratch arena, the snapshot image, the fault-free
//! mirror twin, storage health, and the two RNG streams. It knows
//! nothing about policies, envelopes, or the degradation state machine;
//! that is [`crate::knowledge::Knowledge`]'s job.

use crate::Result;
use reprune_nn::dataset::{render_scene, SCENE_CLASSES};
use reprune_nn::{ExecPlan, Network, Scratch};
use reprune_platform::StorageHealth;
use reprune_prune::{weights_checksum, ReversiblePruner, SnapshotRestore};
use reprune_scenario::{weather_to_context, Weather};
use reprune_tensor::rng::Prng;

/// What one perception tick produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perception {
    /// Predicted scene class.
    pub pred: usize,
    /// Ground-truth scene class of the rendered frame.
    pub label: usize,
    /// Softmax confidence of the prediction.
    pub confidence: f64,
    /// Ground truth (experiment-side, invisible to the defense): the
    /// inference ran on weights that differ from the fault-free twin's.
    pub corrupt_inference: bool,
}

/// The network under management plus its deterministic surroundings.
pub struct Plant {
    /// Live weights.
    pub net: Network,
    /// Reversible pruner over `net`.
    pub pruner: ReversiblePruner,
    /// Packed live-row execution plan per ladder level: pruned-level
    /// inference iterates only surviving GEMM rows.
    pub plans: Vec<ExecPlan>,
    /// Arena for the allocation-free inference path; lives as long as
    /// the plant so steady-state ticks reuse every buffer.
    pub scratch: Scratch,
    /// Base weight image captured at attach: serves both as the in-RAM
    /// snapshot fallback and as the (pristine) storage model image.
    pub snapshot: SnapshotRestore,
    /// Ground-truth twin: same commanded levels, never faulted. A tick's
    /// inference is *corrupt* iff the live weights differ from the
    /// twin's.
    pub mirror_net: Network,
    /// Pruner of the mirror twin.
    pub mirror_pruner: ReversiblePruner,
    /// Checksum of the twin's weights at its current level.
    pub mirror_checksum: u64,
    /// Health of the model-image storage device.
    pub storage: StorageHealth,
    /// RNG realizing snapshot-region corruption deterministically.
    pub corruption_rng: Prng,
    /// RNG driving per-tick frame rendering.
    pub frame_rng: Prng,
    /// Durable reversal-log spill, when persistence is enabled.
    pub spill: Option<crate::spill::SpillState>,
}

impl Plant {
    /// Brings the fault-free twin to the live pruner's level and
    /// refreshes its checksum.
    ///
    /// # Errors
    ///
    /// Propagates pruning errors from the twin (which, being fault-free,
    /// never sees log corruption).
    pub fn sync_mirror(&mut self) -> Result<()> {
        let lvl = self.pruner.current_level();
        if self.mirror_pruner.current_level() != lvl {
            self.mirror_pruner.set_level(&mut self.mirror_net, lvl)?;
            self.mirror_checksum = weights_checksum(&self.mirror_net);
        }
        Ok(())
    }

    /// Renders one frame for the tick's weather, classifies it at the
    /// current ladder level, and reports whether the inference ran on
    /// corrupted weights.
    ///
    /// # Errors
    ///
    /// Propagates inference errors.
    pub fn infer(&mut self, weather: Weather) -> Result<Perception> {
        let context = weather_to_context(weather);
        let label = self.frame_rng.next_below(SCENE_CLASSES);
        let sample = render_scene(label, context, &mut self.frame_rng);
        let lvl = self.pruner.current_level();
        let (pred, confidence) =
            self.net
                .predict_with(&sample.input, self.plans.get(lvl), &mut self.scratch)?;
        let corrupt_inference = weights_checksum(&self.net) != self.mirror_checksum;
        Ok(Perception {
            pred,
            label,
            confidence: confidence as f64,
            corrupt_inference,
        })
    }
}
