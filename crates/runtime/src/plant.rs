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
use reprune_prune::{ReversiblePruner, SnapshotRestore};
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
    /// inference is *corrupt* iff a live prunable weight differs from
    /// the twin's bit for bit.
    pub mirror_net: Network,
    /// Pruner of the mirror twin.
    pub mirror_pruner: ReversiblePruner,
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
    /// Brings the fault-free twin to the live pruner's level.
    ///
    /// # Errors
    ///
    /// Propagates pruning errors from the twin (which, being fault-free,
    /// never sees log corruption).
    pub fn sync_mirror(&mut self) -> Result<()> {
        let lvl = self.pruner.current_level();
        if self.mirror_pruner.current_level() != lvl {
            self.mirror_pruner.set_level(&mut self.mirror_net, lvl)?;
        }
        Ok(())
    }

    /// Renders one frame for the tick's weather, classifies it at the
    /// current ladder level, and reports whether the inference ran on
    /// corrupted weights: weights that differ bit for bit from the
    /// twin's.
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
        let corrupt_inference = weights_differ(&self.net, &self.mirror_net);
        Ok(Perception {
            pred,
            label,
            confidence: confidence as f64,
            corrupt_inference,
        })
    }
}

/// Whether any prunable weight of `net` differs bit for bit from
/// `mirror`'s, the twin's definition of a corrupt inference.
///
/// Layers whose weight tensors share storage are equal without a scan.
/// Others compare `to_bits()` a chunk at a time, so the compare
/// vectorizes and stops at the first differing chunk. Float `==` is
/// never used: it equates `-0.0` with `+0.0` and no NaN with itself.
pub(crate) fn weights_differ(net: &Network, mirror: &Network) -> bool {
    net.prunable_layers().iter().any(|meta| {
        let (Ok(a), Ok(b)) = (net.weight(meta.id), mirror.weight(meta.id)) else {
            return true;
        };
        !a.shares_storage_with(b) && !bits_equal(a.data(), b.data())
    })
}

/// Bitwise slice equality, decided one chunk at a time. The
/// non-short-circuiting `&` inside a chunk lets it vectorize: on the
/// perception CNN's 54,480 equal weights it took ~11 µs where a plain
/// short-circuiting `all` took ~56 µs (2-vCPU AVX-512 VM).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    const CHUNK: usize = 64;
    a.len() == b.len()
        && a.chunks(CHUNK).zip(b.chunks(CHUNK)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(true, |eq, (u, v)| eq & (u.to_bits() == v.to_bits()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprune_nn::models;

    fn twins() -> (Network, Network) {
        let net = models::default_perception_cnn(5).expect("reference model builds");
        let mirror = net.clone();
        (net, mirror)
    }

    /// The last weight of the last prunable layer.
    fn last_weight(net: &mut Network) -> &mut f32 {
        let id = net.prunable_layers().last().expect("prunable layers").id;
        let w = net.weight_mut(id).expect("prunable weight");
        w.data_mut().last_mut().expect("non-empty weight")
    }

    /// Gives every prunable weight of `net` its own storage, same bits.
    fn unshare(net: &mut Network) {
        for meta in net.prunable_layers() {
            net.weight_mut(meta.id).expect("prunable weight").data_mut();
        }
    }

    #[test]
    fn shared_storage_is_equal() {
        let (net, mirror) = twins();
        assert!(!weights_differ(&net, &mirror));
    }

    #[test]
    fn unshared_equal_copies_are_equal() {
        let (mut net, mirror) = twins();
        unshare(&mut net);
        let id = net.prunable_layers()[0].id;
        let (a, b) = (net.weight(id).unwrap(), mirror.weight(id).unwrap());
        assert!(!a.shares_storage_with(b));
        assert!(!weights_differ(&net, &mirror));
    }

    #[test]
    fn one_flipped_mantissa_bit_differs() {
        let (mut net, mirror) = twins();
        let w = last_weight(&mut net);
        *w = f32::from_bits(w.to_bits() ^ 1);
        assert!(weights_differ(&net, &mirror));
        assert!(weights_differ(&mirror, &net));
    }

    #[test]
    fn signed_zeros_differ() {
        let (mut net, mut mirror) = twins();
        *last_weight(&mut net) = -0.0;
        *last_weight(&mut mirror) = 0.0;
        assert!(weights_differ(&net, &mirror));
    }

    #[test]
    fn equal_nan_payloads_are_equal() {
        let (mut net, mut mirror) = twins();
        let nan = f32::from_bits(0x7fc0_1234);
        *last_weight(&mut net) = nan;
        *last_weight(&mut mirror) = nan;
        assert!(!weights_differ(&net, &mirror));
    }
}
