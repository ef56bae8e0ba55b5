//! Property-based tests for the neural-network layer of the stack.

use proptest::prelude::*;
use reprune_nn::dataset::{BlobsDataset, SceneContext, SceneDataset};
use reprune_nn::layer::SgdStep;
use reprune_nn::{loss, models, serialize, Scratch};
use reprune_tensor::rng::Prng;
use reprune_tensor::Tensor;

fn logits_strategy() -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-20.0f32..20.0, 2..10).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("sized")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_is_a_distribution(logits in logits_strategy()) {
        let p = loss::softmax(&logits);
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
        prop_assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Order-preserving.
        let li = logits.argmax().unwrap();
        prop_assert_eq!(p.argmax().unwrap(), li);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero(
        logits in logits_strategy(),
        frac in 0.0f64..1.0,
    ) {
        let target = ((logits.len() - 1) as f64 * frac) as usize;
        let (l, g) = loss::softmax_cross_entropy(&logits, target).unwrap();
        prop_assert!(l >= 0.0);
        prop_assert!(g.sum().abs() < 1e-4);
        prop_assert!(g.data()[target] <= 0.0);
    }

    #[test]
    fn scene_dataset_deterministic_and_bounded(seed in any::<u64>(), n in 1usize..40) {
        let a = SceneDataset::builder().samples(n).seed(seed).build();
        let b = SceneDataset::builder().samples(n).seed(seed).build();
        prop_assert_eq!(&a, &b);
        for s in a.samples() {
            prop_assert!(s.label < reprune_nn::dataset::SCENE_CLASSES);
            prop_assert!(s.input.data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn adverse_contexts_never_add_contrast(seed in any::<u64>()) {
        // For the same seed, a night scene has no more signal energy than
        // the clear rendering path would give the brightest class.
        let mut rng = Prng::new(seed);
        let night = reprune_nn::dataset::render_scene(4, SceneContext::Night, &mut rng);
        prop_assert!(night.input.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn model_image_roundtrips_arbitrary_mlps(
        seed in any::<u64>(),
        inf in 1usize..8,
        hidden in 1usize..12,
        classes in 2usize..6,
    ) {
        let net = models::control_mlp(inf, &[hidden], classes, seed).unwrap();
        let back = serialize::from_bytes(&serialize::to_bytes(&net)).unwrap();
        prop_assert_eq!(back.num_parameters(), net.num_parameters());
        for meta in net.prunable_layers() {
            prop_assert_eq!(net.weight(meta.id).unwrap(), back.weight(meta.id).unwrap());
        }
    }

    #[test]
    fn corrupting_any_byte_is_detected(
        seed in 0u64..100,
        flip in any::<u8>(),
        frac in 0.0f64..1.0,
    ) {
        let net = models::control_mlp(3, &[4], 2, seed).unwrap();
        let mut bytes = serialize::to_bytes(&net);
        let pos = ((bytes.len() - 1) as f64 * frac) as usize;
        if flip == 0 {
            return Ok(()); // XOR with 0 is not a corruption
        }
        bytes[pos] ^= flip;
        prop_assert!(serialize::from_bytes(&bytes).is_err());
    }
}

proptest! {
    // Training-based properties are slower: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn single_sgd_step_reduces_single_sample_loss(seed in any::<u64>()) {
        let data = BlobsDataset::generate(1, 4, 2, 0.1, seed);
        let sample = &data.samples()[0];
        let mut net = models::control_mlp(4, &[8], 2, seed ^ 1).unwrap();
        net.zero_grad();
        let logits = net.forward_train(&sample.input).unwrap();
        let (before, grad) = loss::softmax_cross_entropy(&logits, sample.label).unwrap();
        net.backward(&grad).unwrap();
        net.sgd_step(SgdStep { lr: 0.01, momentum: 0.0, weight_decay: 0.0 }, 1).unwrap();
        let logits2 = net.forward(&sample.input).unwrap();
        let (after, _) = loss::softmax_cross_entropy(&logits2, sample.label).unwrap();
        prop_assert!(
            after <= before + 1e-5,
            "one small gradient step must not increase this sample's loss: {before} -> {after}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The scratch-arena inference path must agree with the allocating
    // forward pass bit-for-bit: every layer's `_into` variant performs the
    // same operations in the same order, and `predict_with`'s in-place
    // softmax replicates `loss::softmax` exactly.
    #[test]
    fn arena_forward_matches_allocating_forward(seed in any::<u64>()) {
        let mut net = models::default_perception_cnn(seed).unwrap();
        let mut rng = Prng::new(seed ^ 0xF00D);
        let s = reprune_nn::dataset::SCENE_SIZE;
        let x = Tensor::rand_uniform(&[1, s, s], -1.0, 1.0, &mut rng);
        let (pred_alloc, conf_alloc) = net.predict(&x).unwrap();
        let mut scratch = Scratch::new();
        let (pred_arena, conf_arena) = net.predict_with(&x, None, &mut scratch).unwrap();
        prop_assert_eq!(pred_alloc, pred_arena);
        prop_assert_eq!(conf_alloc.to_bits(), conf_arena.to_bits());
    }
}

/// Same equivalence on a *trained* CNN (single slow case rather than a
/// property sweep): training changes the weight distribution, so this
/// catches ordering bugs that random init might mask.
#[test]
fn arena_forward_matches_allocating_on_trained_cnn() {
    use reprune_nn::train::{train_classifier, TrainConfig};
    let data = SceneDataset::builder().samples(80).seed(5).build();
    let mut net = models::default_perception_cnn(5).unwrap();
    train_classifier(
        &mut net,
        data.samples(),
        &TrainConfig { epochs: 2, batch_size: 16, lr: 0.04, seed: 5, ..TrainConfig::default() },
    )
    .unwrap();
    let mut scratch = Scratch::new();
    for sample in data.samples().iter().take(16) {
        let (pred_alloc, conf_alloc) = net.predict(&sample.input).unwrap();
        let (pred_arena, conf_arena) =
            net.predict_with(&sample.input, None, &mut scratch).unwrap();
        assert_eq!(pred_alloc, pred_arena);
        assert_eq!(conf_alloc.to_bits(), conf_arena.to_bits());
    }
}

/// The arena contract itself: after the first pass has grown every buffer,
/// steady-state inference performs zero further heap allocations — across
/// repeated ticks and input changes alike.
#[test]
fn steady_state_inference_does_not_allocate() {
    let net = models::default_perception_cnn(9).unwrap();
    let mut rng = Prng::new(1);
    let s = reprune_nn::dataset::SCENE_SIZE;
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| Tensor::rand_uniform(&[1, s, s], -1.0, 1.0, &mut rng))
        .collect();
    let mut scratch = Scratch::new();
    for x in &inputs {
        net.predict_with(x, None, &mut scratch).unwrap();
    }
    let warm = scratch.allocation_events();
    assert!(warm > 0, "first pass must have grown the arena");
    for _ in 0..5 {
        for x in &inputs {
            net.predict_with(x, None, &mut scratch).unwrap();
        }
    }
    assert_eq!(
        scratch.allocation_events(),
        warm,
        "steady-state inference must not allocate"
    );
}
