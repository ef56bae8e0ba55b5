//! Property-based tests for the reversible-pruning invariants.
//!
//! These encode the paper's core claims as machine-checked properties:
//! any walk over any ladder, under any criterion, restores the original
//! weights bit-exactly when it returns to level 0, and the reversal log
//! never exceeds the pruned fraction of the model.

use proptest::prelude::*;
use reprune_nn::{models, Network};
use reprune_prune::compact::{compact_network, zero_dead_unit_biases};
use reprune_prune::{
    FineTuneSpec, LadderConfig, PruneCriterion, ReversiblePruner, SnapshotRestore,
};
use reprune_tensor::rng::Prng;
use reprune_tensor::Tensor;

fn criterion_strategy() -> impl Strategy<Value = PruneCriterion> {
    prop_oneof![
        Just(PruneCriterion::Magnitude),
        Just(PruneCriterion::ChannelL2),
        any::<u64>().prop_map(|seed| PruneCriterion::Random { seed }),
    ]
}

fn ladder_levels_strategy() -> impl Strategy<Value = Vec<f64>> {
    // 2..=6 strictly increasing levels starting at 0, capped below 0.95.
    prop::collection::vec(0.01f64..0.9, 1..6).prop_map(|mut raw| {
        raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
        raw.dedup_by(|a, b| (*a - *b).abs() < 0.02);
        let mut levels = vec![0.0];
        levels.extend(raw);
        levels
    })
}

fn small_net(seed: u64) -> Network {
    models::control_mlp(6, &[12, 8], 4, seed).expect("valid dims")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_walk_restores_bit_exact(
        net_seed in 0u64..1000,
        crit in criterion_strategy(),
        levels in ladder_levels_strategy(),
        walk in prop::collection::vec(0usize..6, 1..12),
    ) {
        let original = small_net(net_seed);
        let mut net = original.clone();
        let ladder = LadderConfig::new(levels.clone()).criterion(crit).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        for &step in &walk {
            pruner.set_level(&mut net, step % n).unwrap();
        }
        pruner.set_level(&mut net, 0).unwrap();
        pruner.verify_restored(&net).unwrap();
        prop_assert_eq!(net, original);
    }

    #[test]
    fn realized_sparsity_matches_masks(
        net_seed in 0u64..1000,
        crit in criterion_strategy(),
        levels in ladder_levels_strategy(),
    ) {
        let mut net = small_net(net_seed);
        let ladder = LadderConfig::new(levels).criterion(crit).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        for level in (0..n).chain((0..n).rev()) {
            pruner.set_level(&mut net, level).unwrap();
            let masked = pruner.ladder().level(level).unwrap().masks.pruned_count();
            let zeros: usize = net
                .prunable_layers()
                .iter()
                .map(|m| net.weight(m.id).unwrap().count_near_zero(0.0))
                .sum();
            // Every masked weight is zero (pre-existing zeros may add more).
            prop_assert!(zeros >= masked);
        }
    }

    #[test]
    fn log_never_exceeds_snapshot(
        net_seed in 0u64..1000,
        crit in criterion_strategy(),
        levels in ladder_levels_strategy(),
        walk in prop::collection::vec(0usize..6, 1..8),
    ) {
        let mut net = small_net(net_seed);
        let snapshot_bytes = SnapshotRestore::capture(&net).bytes();
        let ladder = LadderConfig::new(levels).criterion(crit).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        for &step in &walk {
            pruner.set_level(&mut net, step % n).unwrap();
            // The reversal log stores (index, value) pairs only for pruned
            // weights: 8 bytes per pruned weight vs 4 bytes per weight for
            // the snapshot, so it wins whenever sparsity < 50%, and at the
            // ladder tops used in practice it is far smaller. It must never
            // exceed twice the snapshot (the 100%-sparsity bound).
            prop_assert!(pruner.log_bytes() <= 2 * snapshot_bytes);
            // Log entries equal exactly the pruned count of the current mask.
            let masked = pruner
                .ladder()
                .level(pruner.current_level())
                .unwrap()
                .masks
                .pruned_count();
            prop_assert_eq!(pruner.log_entries(), masked);
        }
    }

    #[test]
    fn transitions_report_conservation(
        net_seed in 0u64..200,
        levels in ladder_levels_strategy(),
    ) {
        // Weights pruned going up equal weights restored coming back down.
        let mut net = small_net(net_seed);
        let ladder = LadderConfig::new(levels).build(&net).unwrap();
        let top = ladder.num_levels() - 1;
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        let up = pruner.set_level(&mut net, top).unwrap();
        let down = pruner.set_level(&mut net, 0).unwrap();
        prop_assert_eq!(up.weights_pruned, down.weights_restored);
        prop_assert_eq!(up.weights_restored, 0);
        prop_assert_eq!(down.weights_pruned, 0);
    }

    #[test]
    fn snapshot_and_reversal_agree(
        net_seed in 0u64..200,
        crit in criterion_strategy(),
    ) {
        // Two restoration mechanisms, one truth.
        let original = small_net(net_seed);
        let mut via_log = original.clone();
        let mut via_snap = original.clone();
        let ladder = LadderConfig::new(vec![0.0, 0.6]).criterion(crit).build(&original).unwrap();
        let snap = SnapshotRestore::capture(&via_snap);

        let mut pruner = ReversiblePruner::attach(&via_log, ladder.clone()).unwrap();
        pruner.set_level(&mut via_log, 1).unwrap();
        pruner.set_level(&mut via_log, 0).unwrap();

        ladder.level(1).unwrap().masks.apply(&mut via_snap).unwrap();
        snap.restore(&mut via_snap).unwrap();

        prop_assert_eq!(&via_log, &original);
        prop_assert_eq!(&via_snap, &original);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn half_precision_walks_restore_the_quantized_baseline(
        net_seed in 0u64..500,
        levels in ladder_levels_strategy(),
        walk in prop::collection::vec(0usize..6, 1..8),
    ) {
        let mut net = small_net(net_seed);
        let ladder = LadderConfig::new(levels).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach_half(&mut net, ladder).unwrap();
        let baseline = net.clone(); // post-quantization baseline
        for &step in &walk {
            pruner.set_level(&mut net, step % n).unwrap();
        }
        pruner.set_level(&mut net, 0).unwrap();
        pruner.verify_restored(&net).unwrap();
        prop_assert_eq!(net, baseline);
    }

    #[test]
    fn half_log_is_exactly_three_quarters(
        net_seed in 0u64..500,
        sparsity in 0.1f64..0.9,
    ) {
        let base = small_net(net_seed);
        let ladder = LadderConfig::new(vec![0.0, sparsity]).build(&base).unwrap();
        let mut exact_net = base.clone();
        let mut exact = ReversiblePruner::attach(&exact_net, ladder.clone()).unwrap();
        exact.set_level(&mut exact_net, 1).unwrap();
        let mut half_net = base.clone();
        let mut half = ReversiblePruner::attach_half(&mut half_net, ladder).unwrap();
        half.set_level(&mut half_net, 1).unwrap();
        prop_assert_eq!(half.log_bytes() * 4, exact.log_bytes() * 3);
    }

    #[test]
    fn compaction_preserves_function_on_random_mlps(
        net_seed in 0u64..500,
        sparsity in 0.1f64..0.9,
        input_seed in any::<u64>(),
    ) {
        let mut net = small_net(net_seed);
        let ladder = LadderConfig::new(vec![0.0, sparsity])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .unwrap();
        let masks = ladder.level(1).unwrap().masks.clone();
        masks.apply(&mut net).unwrap();
        zero_dead_unit_biases(&mut net, &masks).unwrap();
        let (mut compacted, report) = compact_network(&net).unwrap();
        prop_assert!(report.params_after <= report.params_before);
        let mut rng = Prng::new(input_seed);
        for _ in 0..3 {
            let x = Tensor::rand_normal(&[6], 0.0, 1.5, &mut rng);
            let a = net.forward(&x).unwrap();
            let b = compacted.forward(&x).unwrap();
            prop_assert!(
                a.approx_eq(&b, 1e-3),
                "compaction changed outputs: {:?} vs {:?}",
                a.data(),
                b.data()
            );
        }
    }
}

// Fault-model properties: corruption in the reversal log must surface as
// a typed, recoverable error — never as a silently wrong restore.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corrupted_log_never_restores_silently(
        net_seed in 0u64..500,
        crit in criterion_strategy(),
        levels in ladder_levels_strategy(),
        walk in prop::collection::vec(0usize..6, 1..8),
        flip_seed in any::<u64>(),
        flips in 1usize..4,
    ) {
        let original = small_net(net_seed);
        let mut net = original.clone();
        let ladder = LadderConfig::new(levels).criterion(crit).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        for &step in &walk {
            pruner.set_level(&mut net, step % n).unwrap();
        }
        let mut rng = Prng::new(flip_seed);
        let mut landed = false;
        for _ in 0..flips {
            landed |= pruner.inject_log_bitflip(&mut rng).is_some();
        }
        match pruner.set_level(&mut net, 0) {
            Ok(_) => {
                // A flip can only go unnoticed if none actually landed
                // (the log may have been empty at injection time). In that
                // case the restore must still be bit-exact.
                prop_assert!(!landed, "a landed flip must not restore cleanly");
                pruner.verify_restored(&net).unwrap();
                prop_assert_eq!(&net, &original);
            }
            Err(reprune_prune::PruneError::LogCorruption { .. }) => {
                // Typed, recoverable refusal: the pruner must still be
                // pruned (it did NOT pretend the restore completed).
                prop_assert!(landed);
                prop_assert!(pruner.current_level() > 0);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn shadow_repair_recovers_bit_exact(
        net_seed in 0u64..500,
        crit in criterion_strategy(),
        levels in ladder_levels_strategy(),
        walk in prop::collection::vec(0usize..6, 1..8),
        flip_seed in any::<u64>(),
        flips in 1usize..5,
    ) {
        let original = small_net(net_seed);
        let mut net = original.clone();
        let ladder = LadderConfig::new(levels).criterion(crit).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        pruner.set_shadow_mode(true);
        for &step in &walk {
            pruner.set_level(&mut net, step % n).unwrap();
        }
        let mut rng = Prng::new(flip_seed);
        for _ in 0..flips {
            let _ = pruner.inject_log_bitflip(&mut rng);
        }
        // Detect-repair-retry until the restore goes through; the loop is
        // bounded because each repair fixes the segment it names.
        let mut attempts = 0;
        loop {
            match pruner.set_level(&mut net, 0) {
                Ok(_) => break,
                Err(reprune_prune::PruneError::LogCorruption { segment, .. }) => {
                    pruner.repair_segment(segment).unwrap();
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
            attempts += 1;
            prop_assert!(attempts <= 64, "repair loop must terminate");
        }
        pruner.verify_restored(&net).unwrap();
        prop_assert_eq!(&net, &original);
    }

    #[test]
    fn scrub_heals_before_anyone_asks(
        net_seed in 0u64..500,
        levels in ladder_levels_strategy(),
        flip_seed in any::<u64>(),
    ) {
        let original = small_net(net_seed);
        let mut net = original.clone();
        let ladder = LadderConfig::new(levels).build(&net).unwrap();
        let top = ladder.num_levels() - 1;
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        pruner.set_shadow_mode(true);
        pruner.set_level(&mut net, top).unwrap();
        let mut rng = Prng::new(flip_seed);
        let _ = pruner.inject_log_bitflip(&mut rng);
        // A background scrub finds the corruption before any restore asks
        // for the segment, and the shadow copy repairs it in place...
        let mut passes = 0;
        loop {
            match pruner.scrub() {
                Ok(_) => break,
                Err(reprune_prune::PruneError::LogCorruption { segment, .. }) => {
                    pruner.repair_segment(segment).unwrap();
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
            passes += 1;
            prop_assert!(passes <= 64, "scrub/repair loop must terminate");
        }
        // ...so the later restore succeeds first try, bit-exact.
        pruner.set_level(&mut net, 0).unwrap();
        pruner.verify_restored(&net).unwrap();
        prop_assert_eq!(&net, &original);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The compute-engine contract end to end: executing the packed plan
    // (skipping dead GEMM rows) on a pruned network must be bit-identical
    // to dense execution over the masked (zeroed) weights — pruned
    // channels contribute exactly their bias either way.
    #[test]
    fn plan_execution_matches_dense_on_pruned_network(
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let mut net = models::default_perception_cnn(seed).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.25, 0.5, 0.75])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .unwrap();
        let level = 1 + ((ladder.num_levels() - 1) as f64 * frac) as usize % (ladder.num_levels() - 1);
        let plans = reprune_prune::ladder_plans(&net, &ladder).unwrap();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        pruner.set_level(&mut net, level).unwrap();
        prop_assert!(!plans[level].is_dense(), "channel pruning must pack rows");

        let mut rng = Prng::new(seed ^ 0xCAFE);
        let s = reprune_nn::dataset::SCENE_SIZE;
        let x = Tensor::rand_uniform(&[1, s, s], -1.0, 1.0, &mut rng);
        let mut dense_scratch = reprune_nn::Scratch::new();
        let mut sparse_scratch = reprune_nn::Scratch::new();
        let (pred_dense, conf_dense) = net.predict_with(&x, None, &mut dense_scratch).unwrap();
        let (pred_sparse, conf_sparse) =
            net.predict_with(&x, Some(&plans[level]), &mut sparse_scratch).unwrap();
        prop_assert_eq!(pred_dense, pred_sparse);
        prop_assert_eq!(conf_dense.to_bits(), conf_sparse.to_bits());
    }
}

fn mixed_ladder_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<reprune_nn::PrecisionMode>)> {
    use reprune_nn::PrecisionMode;
    ladder_levels_strategy().prop_flat_map(|levels| {
        let n = levels.len();
        (
            Just(levels),
            prop::collection::vec(any::<bool>(), n..=n).prop_map(|bools| {
                let mut ps: Vec<PrecisionMode> = bools
                    .iter()
                    .map(|&b| if b { PrecisionMode::Int8 } else { PrecisionMode::F32 })
                    .collect();
                ps[0] = PrecisionMode::F32;
                ps
            }),
        )
    })
}

fn weights_bits_eq(a: &Network, b: &Network) -> bool {
    a.prunable_layers().iter().all(|m| {
        let wa = a.weight(m.id).unwrap().data();
        let wb = b.weight(m.id).unwrap().data();
        wa.len() == wb.len() && wa.iter().zip(wb).all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

/// Adversarial f32 bit patterns for weight injection: NaNs (quiet,
/// signaling, negative), ±0, ±inf, denormals, and extreme magnitudes
/// near the f32 range limits (which stress the per-row quant scales).
fn special_f32_bits_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(f32::NAN.to_bits()),
        Just(0xFFC0_0000u32),            // negative quiet NaN
        Just(0x7F80_0001u32),            // signaling NaN
        Just(0x0000_0000u32),            // +0.0
        Just(0x8000_0000u32),            // -0.0
        Just(f32::INFINITY.to_bits()),
        Just(f32::NEG_INFINITY.to_bits()),
        Just(0x0000_0001u32),            // smallest denormal
        Just(3.0e38f32.to_bits()),       // near f32::MAX
        Just(1.0e-38f32.to_bits()),      // subnormal neighbourhood
        Just((-2.5e37f32).to_bits()),
    ]
}

// Mixed-precision (int8 execution rung) properties: the precision axis
// must never weaken the reversibility guarantee — any walk over any
// (sparsity × precision) grid, executed through the quantized kernels,
// restores the pre-attach f32 weights bit-exactly, and the dtype-tagged
// segments survive the spill codec byte-identically.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mixed_precision_walks_execute_and_restore_bit_exact(
        net_seed in 0u64..500,
        ladder_spec in mixed_ladder_strategy(),
        walk in prop::collection::vec(0usize..6, 1..8),
        input_seed in any::<u64>(),
    ) {
        let (levels, precisions) = ladder_spec;
        let original = small_net(net_seed);
        let mut net = original.clone();
        let ladder = LadderConfig::new(levels)
            .criterion(PruneCriterion::ChannelL2)
            .precisions(precisions)
            .build(&net)
            .unwrap();
        let plans = reprune_prune::ladder_plans(&net, &ladder).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        let mut scratch = reprune_nn::Scratch::new();
        let mut rng = Prng::new(input_seed);
        for &step in &walk {
            let level = step % n;
            pruner.set_level(&mut net, level).unwrap();
            // Execute through the plan so int8 rungs actually run the
            // quantized kernels (and populate the weight-code cache,
            // which any later rung change must invalidate).
            let x = Tensor::rand_uniform(&[6], -1.0, 1.0, &mut rng);
            net.predict_with(&x, Some(&plans[level]), &mut scratch).unwrap();
        }
        pruner.set_level(&mut net, 0).unwrap();
        pruner.verify_restored(&net).unwrap();
        prop_assert_eq!(net, original);
    }

    #[test]
    fn special_value_weights_survive_int8_rungs_bit_exact(
        net_seed in 0u64..200,
        injections in prop::collection::vec(
            (0usize..10_000, special_f32_bits_strategy()), 1..16),
        mask_seed in any::<u64>(),
        walk in prop::collection::vec(0usize..4, 1..6),
        input_seed in any::<u64>(),
    ) {
        use reprune_nn::PrecisionMode::{F32, Int8};
        let mut original = small_net(net_seed);
        // Scatter adversarial bit patterns into the weight tensors.
        let ids: Vec<_> = original.prunable_layers().iter().map(|m| m.id).collect();
        for &(pos, bits) in &injections {
            let id = ids[pos % ids.len()];
            let w = original.weight_mut(id).unwrap();
            let len = w.len();
            w.data_mut()[pos % len] = f32::from_bits(bits);
        }
        let mut net = original.clone();
        // Random criterion: mask placement must not depend on comparing
        // NaN scores, and the reversibility claim is mask-agnostic.
        let ladder = LadderConfig::new(vec![0.0, 0.4, 0.8])
            .criterion(PruneCriterion::Random { seed: mask_seed })
            .precisions(vec![F32, Int8, Int8])
            .build(&net)
            .unwrap();
        let plans = reprune_prune::ladder_plans(&net, &ladder).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        let mut scratch = reprune_nn::Scratch::new();
        let mut rng = Prng::new(input_seed);
        for &step in &walk {
            let level = step % n;
            pruner.set_level(&mut net, level).unwrap();
            let x = Tensor::rand_uniform(&[6], -1.0, 1.0, &mut rng);
            // Predictions may be garbage (the weights are hostile); the
            // quantized path must not panic and must not taint restore.
            net.predict_with(&x, Some(&plans[level]), &mut scratch).unwrap();
        }
        pruner.set_level(&mut net, 0).unwrap();
        pruner.verify_restored(&net).unwrap();
        // `Network` equality uses f32 PartialEq, where NaN != NaN — the
        // bit-exactness claim needs a bit-level comparison.
        prop_assert!(
            weights_bits_eq(&net, &original),
            "restore must reproduce adversarial weight bits exactly"
        );
    }

    #[test]
    fn spill_recovery_reproduces_mixed_precision_logs_bit_exact(
        net_seed in 0u64..300,
        ladder_spec in mixed_ladder_strategy(),
        target in 0usize..6,
        tuned in any::<bool>(),
        tune_seed in 0u64..1000,
    ) {
        use reprune_prune::pruner::LevelDelta;
        let (levels, precisions) = ladder_spec;
        let original = small_net(net_seed);
        let mut net = original.clone();
        let mut config = LadderConfig::new(levels).precisions(precisions);
        if tuned {
            config = config.fine_tune(FineTuneSpec { steps: 2, lr: 0.05, seed: tune_seed });
        }
        let ladder = config.build(&net).unwrap();
        let n = ladder.num_levels();
        let level = 1 + target % (n - 1);
        let data = reprune_nn::dataset::BlobsDataset::generate(12, 6, 4, 0.4, tune_seed);
        let mut pruner = if tuned {
            ReversiblePruner::attach_fine_tuned(&mut net, ladder.clone(), data.samples())
        } else {
            ReversiblePruner::attach(&net, ladder.clone())
        }
        .unwrap();
        pruner.set_level(&mut net, level).unwrap();

        // Round-trip every live segment (evictions, tunes and any
        // precision segment) through the spill codec.
        let mut recovered_segs = Vec::new();
        for i in 0..pruner.log_segments() {
            let seg = pruner.log_segment(i).unwrap();
            let payload = seg.to_spill_payload();
            let back = LevelDelta::from_spill_payload(&payload).unwrap();
            prop_assert_eq!(
                back.to_spill_payload(),
                payload,
                "spill payload must round-trip byte-identically"
            );
            recovered_segs.push(back);
        }

        // Crash recovery: rebuild a fresh pruner over the pristine image
        // from the crashed pruner's tune record (empty for an untuned
        // ladder), with no training, then install the recovered segments.
        let mut rec_net = original.clone();
        let mut rec =
            ReversiblePruner::attach_recorded(&mut rec_net, ladder.clone(), &pruner.tune_record())
                .unwrap();
        rec.install_log(&mut rec_net, recovered_segs).unwrap();
        prop_assert_eq!(rec.current_level(), level);
        prop_assert!(
            weights_bits_eq(&rec_net, &net),
            "recovered network must match the crashed image bit-exactly"
        );
        rec.set_level(&mut rec_net, 0).unwrap();
        rec.verify_restored(&rec_net).unwrap();
        prop_assert_eq!(rec_net, original);
    }
}

fn special_word_strategy() -> impl Strategy<Value = u32> {
    // Random words plus the adversarial f32 bit patterns: quiet/signaling
    // NaNs, ±0, ±inf, denormal neighbourhood.
    prop_oneof![
        any::<u32>(),
        Just(f32::NAN.to_bits()),
        Just(0xFFC0_0000u32),  // negative quiet NaN
        Just(0x7F80_0001u32),  // signaling NaN
        Just(0x0000_0000u32),  // +0.0
        Just(0x8000_0000u32),  // -0.0
        Just(f32::INFINITY.to_bits()),
        Just(f32::NEG_INFINITY.to_bits()),
        Just(0x0000_0001u32),  // smallest denormal
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The unrolled slice paths of the blocked hasher must agree with the
    // scalar one-word-at-a-time definition on arbitrary streams — for
    // any misaligned prefix and for f32 inputs hashed via their bit
    // patterns (NaN payloads and ±0 must be distinguished, not
    // canonicalised).
    #[test]
    fn blocked_slice_paths_match_scalar_definition(
        words in prop::collection::vec(special_word_strategy(), 0..200),
        prefix in 0usize..8,
    ) {
        let prefix = prefix.min(words.len());
        let mut reference = reprune_prune::BlockedHasher::new();
        for &w in &words {
            reference.write_u32(w);
        }

        let mut as_u32 = reprune_prune::BlockedHasher::new();
        for &w in &words[..prefix] {
            as_u32.write_u32(w);
        }
        as_u32.write_u32_slice(&words[prefix..]);
        prop_assert_eq!(as_u32.finish(), reference.finish());

        let floats: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
        let mut as_f32 = reprune_prune::BlockedHasher::new();
        for &w in &words[..prefix] {
            as_f32.write_u32(w);
        }
        as_f32.write_f32_slice(&floats[prefix..]);
        prop_assert_eq!(as_f32.finish(), reference.finish());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Mask-aware fine-tuning must never resurrect a pruned weight: at
    // every ladder level, after any number of frozen SGD steps on any
    // data, every masked position is still exactly 0.0 — without any
    // post-step mask re-application.
    #[test]
    fn fine_tuning_keeps_pruned_weights_exactly_zero(
        net_seed in 0u64..200,
        crit in criterion_strategy(),
        levels in ladder_levels_strategy(),
        steps in 1usize..4,
        data_seed in 0u64..1000,
    ) {
        let mut net = small_net(net_seed);
        let data = reprune_nn::dataset::BlobsDataset::generate(12, 6, 4, 0.4, data_seed);
        let ladder = LadderConfig::new(levels).criterion(crit).build(&net).unwrap();
        let n = ladder.num_levels();
        let mut pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        for level in 1..n {
            pruner.set_level(&mut net, level).unwrap();
            let masks = pruner.ladder().level(level).unwrap().masks.clone();
            let freeze = masks.freeze_spec(false);
            reprune_nn::train::fine_tune_frozen(
                &mut net, data.samples(), steps, 0.05, data_seed, &freeze,
            ).unwrap();
            for mask in masks.iter() {
                let w = net.weight(mask.layer).unwrap().data().to_vec();
                for i in mask.pruned_indices() {
                    prop_assert_eq!(
                        w[i].to_bits(), 0.0f32.to_bits(),
                        "pruned weight {} of layer {} drifted at level {}",
                        i, mask.layer, level
                    );
                }
            }
        }
    }

    // The durable-log scanner must treat every header as untrusted: any
    // claimed payload length — including values whose frame arithmetic
    // would overflow — either yields a fully verified record or stops
    // the scan at the last good byte. No panics, no over-reads.
    #[test]
    fn scan_survives_arbitrary_length_words(
        plen in any::<u32>(),
        kind in 0u32..4,
        tail in prop::collection::vec(any::<u8>(), 0..96),
        good_payload in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        use reprune_prune::spill::{frame_record, scan, RecordKind, RECORD_MAGIC};
        let good = frame_record(RecordKind::Segment, &good_payload);
        let mut stream = good.clone();
        stream.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        stream.extend_from_slice(&kind.to_le_bytes());
        stream.extend_from_slice(&plen.to_le_bytes());
        stream.extend_from_slice(&tail);
        let out = scan(&stream);
        prop_assert!(out.valid_len <= stream.len() as u64);
        prop_assert!(!out.records.is_empty(), "the good first record must survive");
        prop_assert_eq!(out.records[0].payload.clone(), good_payload);
        // Whatever the scanner accepted, re-scanning the valid prefix
        // reproduces it exactly (the truncation point is stable).
        let again = scan(&stream[..out.valid_len as usize]);
        prop_assert_eq!(again.valid_len, out.valid_len);
        prop_assert_eq!(again.records.len(), out.records.len());
    }
}
