//! Conversion from element-level pruning masks to packed execution plans.
//!
//! [`MaskSet`]s describe *what* is pruned (per weight element); the compute
//! engine wants to know *which rows of work survive*. This module compacts
//! masks into the [`ExecPlan`] packed row-index form consumed by
//! `reprune_nn::Network::forward_with`: for each prunable layer, a sorted
//! list of live structured units (output channels for `Conv2d`, output rows
//! for `Linear`). A unit is dead only when **every** one of its `unit_len`
//! weight elements is pruned, so unstructured (magnitude) masks — which
//! rarely empty a whole unit — conservatively fall back to dense execution
//! and stay numerically correct, while structured (channel-L2) masks shed
//! whole GEMM rows and make level latency track density.

use crate::mask::MaskSet;
use crate::{Result, SparsityLadder};
use reprune_nn::{ExecPlan, Network, PrecisionMode, PrunableLayer};

/// Live units of one layer under `mask`: unit `u` is live unless all of
/// its elements `u·unit_len .. (u+1)·unit_len` are pruned.
fn live_units(meta: &PrunableLayer, masks: &MaskSet) -> Option<Vec<u32>> {
    let mask = masks.get(meta.id)?;
    let mut live = Vec::with_capacity(meta.units);
    for u in 0..meta.units {
        let base = u * meta.unit_len;
        let dead = (base..base + meta.unit_len).all(|i| mask.is_pruned(i));
        if !dead {
            live.push(u as u32);
        }
    }
    Some(live)
}

/// Builds the packed execution plan for one mask set over `net`.
///
/// Layers gain a sparse entry only when the mask actually kills at least
/// one whole unit; everything else (unmasked layers, partially pruned
/// units) executes densely. An empty mask set therefore yields a fully
/// dense plan.
pub fn exec_plan(net: &Network, masks: &MaskSet) -> ExecPlan {
    let mut plan = ExecPlan::new();
    for meta in net.prunable_layers() {
        if let Some(live) = live_units(&meta, masks) {
            if live.len() < meta.units {
                plan.set_live_rows(meta.id, live);
            }
        }
    }
    plan
}

/// Builds one [`ExecPlan`] per ladder level, in level order. Index the
/// result with the runtime's current level to execute only live rows.
///
/// Levels with [`PrecisionMode::Int8`] additionally mark every
/// mask-covered layer as quantized on the plan, so the executor runs
/// those layers through the int8 kernels while still skipping dead
/// rows. F32 levels produce exactly the plans they always did.
///
/// # Errors
///
/// Propagates ladder access errors (cannot occur for a well-formed ladder).
pub fn ladder_plans(net: &Network, ladder: &SparsityLadder) -> Result<Vec<ExecPlan>> {
    ladder
        .levels()
        .map(|level| {
            let mut plan = exec_plan(net, &level.masks);
            if level.precision == PrecisionMode::Int8 {
                let quant: Vec<_> = net
                    .prunable_layers()
                    .iter()
                    .filter(|meta| level.masks.get(meta.id).is_some())
                    .map(|meta| meta.id)
                    .collect();
                plan.set_precision(PrecisionMode::Int8, quant);
            }
            Ok(plan)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LadderConfig, PruneCriterion};
    use reprune_nn::models;

    fn cnn() -> Network {
        models::default_perception_cnn(21).unwrap()
    }

    #[test]
    fn empty_masks_give_dense_plan() {
        let net = cnn();
        let plan = exec_plan(&net, &MaskSet::new());
        assert!(plan.is_dense());
    }

    #[test]
    fn structured_masks_drop_whole_channels() {
        let net = cnn();
        let ladder = LadderConfig::new(vec![0.0, 0.5])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .unwrap();
        let plans = ladder_plans(&net, &ladder).unwrap();
        assert_eq!(plans.len(), 2);
        assert!(plans[0].is_dense(), "level 0 prunes nothing");
        let meta = &net.prunable_layers()[0]; // 16-channel conv
        let live = plans[1].live_rows(meta.id).expect("sparse entry");
        assert_eq!(live.len(), 8, "0.5 sparsity halves the channels");
        assert!(live.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unstructured_masks_fall_back_to_dense() {
        let net = cnn();
        // Magnitude pruning at modest sparsity virtually never empties a
        // whole channel, so the plan must stay dense (correct, not fast).
        let ladder = LadderConfig::new(vec![0.0, 0.3])
            .criterion(PruneCriterion::Magnitude)
            .build(&net)
            .unwrap();
        let plan = exec_plan(&net, &ladder.level(1).unwrap().masks);
        for meta in net.prunable_layers() {
            if let Some(live) = plan.live_rows(meta.id) {
                // Any entry present must still be a correct live list.
                assert!(live.len() < meta.units);
            }
        }
    }

    #[test]
    fn nested_levels_have_shrinking_live_sets() {
        let net = cnn();
        let ladder = LadderConfig::new(vec![0.0, 0.25, 0.5, 0.75])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .unwrap();
        let plans = ladder_plans(&net, &ladder).unwrap();
        let meta = &net.prunable_layers()[0];
        let mut prev = meta.units;
        for plan in &plans[1..] {
            let n = plan.live_rows(meta.id).map_or(meta.units, <[u32]>::len);
            assert!(n < prev, "live rows must shrink as sparsity grows");
            prev = n;
        }
    }
}
