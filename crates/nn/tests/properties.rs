//! Property-based tests for the neural-network layer of the stack.

use proptest::prelude::*;
use reprune_nn::dataset::{BlobsDataset, SceneContext, SceneDataset};
use reprune_nn::layer::{Conv2d, Layer, Linear, SgdStep};
use reprune_nn::{loss, models, serialize, ExecPlan, PrecisionMode, QuantScratch, Scratch};
use reprune_tensor::conv::Conv2dSpec;
use reprune_tensor::linalg::GemmScratch;
use reprune_tensor::qgemm;
use reprune_tensor::rng::Prng;
use reprune_tensor::Tensor;

#[path = "../../tensor/tests/quant_ref/mod.rs"]
mod quant_ref;

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
/// repeated ticks, input changes and f32/int8 plan switches alike.
#[test]
fn steady_state_inference_does_not_allocate() {
    let net = models::default_perception_cnn(9).unwrap();
    let mut rng = Prng::new(1);
    let s = reprune_nn::dataset::SCENE_SIZE;
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| Tensor::rand_uniform(&[1, s, s], -1.0, 1.0, &mut rng))
        .collect();
    // An int8 plan over every prunable layer, with every other unit live.
    let mut int8 = ExecPlan::new();
    let layers = net.prunable_layers();
    for meta in &layers {
        int8.set_live_rows(meta.id, (0..meta.units as u32).step_by(2).collect());
    }
    int8.set_precision(PrecisionMode::Int8, layers.iter().map(|m| m.id).collect());
    let plans = [None, Some(&int8)];
    let mut scratch = Scratch::new();
    for plan in plans {
        for x in &inputs {
            net.predict_with(x, plan, &mut scratch).unwrap();
        }
    }
    let warm = scratch.allocation_events();
    assert!(warm > 0, "first pass must have grown the arena");
    for _ in 0..5 {
        for plan in plans {
            for x in &inputs {
                net.predict_with(x, plan, &mut scratch).unwrap();
            }
        }
    }
    assert_eq!(
        scratch.allocation_events(),
        warm,
        "steady-state inference must not allocate"
    );
}

/// The quantized forward as first written, from the test-only references:
/// quantize each live weight row over the full row, unfold the f32 input
/// into the patch matrix (a Linear input is a one-column matrix), take one
/// scale over that whole matrix, quantize it value by value, multiply
/// through `matmul_i8_naive`, then dequantize live rows (dead rows are
/// `0.0`) and add the bias.
fn reference_forward_q(layer: &Layer, x: &Tensor, live: Option<&[u32]>) -> Vec<f32> {
    let (weight, bias, cols, n) = match layer {
        Layer::Linear(l) => (&l.weight.value, &l.bias.value, x.data().to_vec(), 1),
        Layer::Conv2d(l) => {
            let d = x.dims();
            let spec = Conv2dSpec::square(l.kernel, l.stride, l.padding);
            let (oh, ow) = spec.output_hw(d[1], d[2]).unwrap();
            let cols = quant_ref::unfold(x.data(), [d[0], d[1], d[2]], spec);
            (&l.weight.value, &l.bias.value, cols, oh * ow)
        }
        other => panic!("no quantized path for {}", other.kind_name()),
    };
    let rows = weight.dims()[0];
    let k = weight.len() / rows;
    let is_live = |r: usize| live.is_none_or(|l| l.contains(&(r as u32)));
    let mut qweight = vec![0i8; rows * k];
    let mut row_scales = vec![0.0f32; rows];
    for r in (0..rows).filter(|&r| is_live(r)) {
        let row = &weight.data()[r * k..(r + 1) * k];
        row_scales[r] = quant_ref::quant_scale(row);
        for (q, &v) in qweight[r * k..].iter_mut().zip(row) {
            *q = quant_ref::quantize_value(v, row_scales[r]);
        }
    }
    let act_scale = quant_ref::quant_scale(&cols);
    let qcols: Vec<i8> = cols.iter().map(|&v| quant_ref::quantize_value(v, act_scale)).collect();
    let mut acc = vec![0i32; rows * n];
    qgemm::matmul_i8_naive(&qweight, rows, k, &qcols, n, &mut acc);
    let mut out = vec![0.0f32; rows * n];
    for r in 0..rows {
        for j in 0..n {
            let v = if is_live(r) {
                acc[r * n + j] as f32 * (act_scale * row_scales[r])
            } else {
                0.0
            };
            out[r * n + j] = v + bias.data()[r];
        }
    }
    out
}

/// Values with the f32 encoding's edge cases mixed in at `rate`.
fn values_with_specials(len: usize, rate: f32, rng: &mut Prng) -> Vec<f32> {
    let specials = quant_ref::special_values();
    (0..len)
        .map(|_| {
            if rng.next_bool(rate) {
                specials[rng.next_below(specials.len())]
            } else {
                rng.next_uniform(-2.0, 2.0)
            }
        })
        .collect()
}

/// No special values, a few, or many: an infinity anywhere in the input
/// zeroes the activation scale, so a single dense rate would rarely
/// exercise nonzero codes.
fn input_special_rate(seed: u64) -> f32 {
    [0.0, 0.02, 0.2][(seed % 3) as usize]
}

/// Live rows in one of four shapes: none given, empty, a random subset,
/// or every row.
fn live_rows(mode: u8, rows: usize, rng: &mut Prng) -> Option<Vec<u32>> {
    match mode % 4 {
        0 => None,
        1 => Some(Vec::new()),
        2 => Some((0..rows as u32).filter(|_| rng.next_bool(0.5)).collect()),
        _ => Some((0..rows as u32).collect()),
    }
}

/// Runs the production quantized forward after a larger layer has left
/// nonzero codes in every scratch buffer, so a consumer that reads an
/// element it did not write shows up as a mismatch.
fn production_forward_q(layer: &Layer, x: &Tensor, live: Option<&[u32]>) -> Vec<f32> {
    let mut rng = Prng::new(0xD127);
    let dirty = Layer::Conv2d(Conv2d::new(3, 9, 4, 1, 0, &mut rng));
    let mut quant = QuantScratch::default();
    let (mut cols, mut gemm, mut out) = (Tensor::default(), GemmScratch::new(), Tensor::default());
    let big = Tensor::rand_uniform(&[3, 20, 20], 0.5, 1.0, &mut rng);
    dirty.forward_infer_into_q(&big, None, &mut cols, &mut gemm, &mut quant, &mut out).unwrap();
    layer.forward_infer_into_q(x, live, &mut cols, &mut gemm, &mut quant, &mut out).unwrap();
    out.data().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every int8 output bit of the quantize-once conv path equals the
    // parent algorithm's over the f32 patch matrix: kernel 1–4, stride
    // 1–3 (stride > kernel included), padding 0–3 (padding ≥ kernel
    // included), any live-row shape, special and all-zero inputs.
    #[test]
    fn quantized_conv_matches_reference(
        geom in (1usize..=4, 1usize..=3, 0usize..=3),
        dims in (1usize..=3, 1usize..=9, 1usize..=8, 1usize..=8),
        mode in 0u8..8,
        seed in any::<u64>(),
    ) {
        let (kernel, stride, padding) = geom;
        let (c, oc, h, w) = dims;
        let min_hw = kernel.saturating_sub(2 * padding);
        let (h, w) = (h.max(min_hw), w.max(min_hw));
        let mut rng = Prng::new(seed);
        let mut conv = Conv2d::new(c, oc, kernel, stride, padding, &mut rng);
        let wdims = conv.weight.value.dims().to_vec();
        let wdata = values_with_specials(conv.weight.value.len(), 0.05, &mut rng);
        conv.weight.value = Tensor::from_vec(wdata, &wdims).unwrap();
        conv.bias.value = Tensor::rand_uniform(&[oc], -1.0, 1.0, &mut rng);
        let layer = Layer::Conv2d(conv);
        let data = if mode >= 4 {
            vec![0.0; c * h * w]
        } else {
            values_with_specials(c * h * w, input_special_rate(seed), &mut rng)
        };
        let x = Tensor::from_vec(data, &[c, h, w]).unwrap();
        let live = live_rows(mode, oc, &mut rng);
        let got = production_forward_q(&layer, &x, live.as_deref());
        let want = reference_forward_q(&layer, &x, live.as_deref());
        prop_assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "output {}: {} != {}", i, a, b);
        }
    }

    #[test]
    fn quantized_linear_matches_reference(
        dims in (1usize..=40, 1usize..=11),
        mode in 0u8..8,
        seed in any::<u64>(),
    ) {
        let (inf, units) = dims;
        let mut rng = Prng::new(seed);
        let mut lin = Linear::new(inf, units, &mut rng);
        let wdata = values_with_specials(inf * units, 0.05, &mut rng);
        lin.weight.value = Tensor::from_vec(wdata, &[units, inf]).unwrap();
        lin.bias.value = Tensor::rand_uniform(&[units], -1.0, 1.0, &mut rng);
        let layer = Layer::Linear(lin);
        let data = if mode >= 4 {
            vec![0.0; inf]
        } else {
            values_with_specials(inf, input_special_rate(seed), &mut rng)
        };
        let x = Tensor::from_vec(data, &[inf]).unwrap();
        let live = live_rows(mode, units, &mut rng);
        let got = production_forward_q(&layer, &x, live.as_deref());
        let want = reference_forward_q(&layer, &x, live.as_deref());
        prop_assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "output {}: {} != {}", i, a, b);
        }
    }
}
