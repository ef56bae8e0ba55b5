//! The libm-free int8 quantizer and the quantize-then-unfold conv input
//! path against their test-only references (`quant_ref`): every scale,
//! every code and every unfolded patch code must match bit for bit.

use proptest::prelude::*;
use reprune_tensor::conv::{im2col, im2col_quant_scale, im2col_slice_into, Conv2dSpec};
use reprune_tensor::qgemm::{quant_scale, quantize_value, round_through_i8};

mod quant_ref;

fn assert_value_matches(v: f32, scale: f32) {
    let want = quant_ref::quantize_value(v, scale);
    assert_eq!(
        quantize_value(v, scale),
        want,
        "quantize_value({v:e} [{:#010x}], {scale:e} [{:#010x}])",
        v.to_bits(),
        scale.to_bits()
    );
    let want_snap = want as f32 * scale;
    assert_eq!(round_through_i8(v, scale).to_bits(), want_snap.to_bits());
}

/// `x` and its two f32 neighbours.
fn with_neighbours(x: f32) -> [f32; 3] {
    [x.next_down(), x, x.next_up()]
}

#[test]
fn quantizer_matches_reference_on_ties_and_specials() {
    let pow2_scales = [
        2f32.powi(-20),
        2f32.powi(-3),
        0.5,
        1.0,
        2.0,
        8.0,
        2f32.powi(30),
    ];
    let arbitrary_scales = [0.013_7f32, 0.1, 0.3, 1.7, 2.9, 123.456, 7.9e-5];
    for &s in pow2_scales.iter().chain(&arbitrary_scales) {
        for k in -130i32..=130 {
            // At power-of-two scales (k + 0.5)·s divides back to an exact
            // tie; at arbitrary ones it lands next to one.
            let tie = (k as f32 + 0.5) * s;
            for v in with_neighbours(tie) {
                assert_value_matches(v, s);
            }
            for v in with_neighbours(k as f32 * s) {
                assert_value_matches(v, s);
            }
        }
    }

    let specials = quant_ref::special_values();
    let denormal_scales = [
        f32::from_bits(1),
        f32::from_bits(0x0040_0000),
        f32::from_bits(0x007f_ffff),
    ];
    let tiny_scales = [f32::MIN_POSITIVE, 1e-30, 1e-38];
    let scales: Vec<f32> = specials
        .iter()
        .copied()
        .chain(denormal_scales)
        .chain(tiny_scales)
        .chain(pow2_scales)
        .chain(arbitrary_scales)
        .collect();
    for &s in &scales {
        for &v in specials
            .iter()
            .chain(&[1.0f32, -1.0, 127.49, -127.5, 1e30, -3e-39])
        {
            assert_value_matches(v, s);
        }
    }
    // f32::MAX over a tiny scale overflows the division to ±inf.
    for s in [f32::from_bits(1), f32::MIN_POSITIVE, 1e-30] {
        assert_value_matches(f32::MAX, s);
        assert_value_matches(-f32::MAX, s);
    }

    // The scale over slices of the same values, one at a time and mixed.
    for &v in &specials {
        assert_eq!(
            quant_scale(&[v]).to_bits(),
            quant_ref::quant_scale(&[v]).to_bits(),
            "{v:e}"
        );
        assert_eq!(
            quant_scale(&[v, 0.5, -v]).to_bits(),
            quant_ref::quant_scale(&[v, 0.5, -v]).to_bits()
        );
    }
    assert_eq!(
        quant_scale(&specials).to_bits(),
        quant_ref::quant_scale(&specials).to_bits()
    );
    assert_eq!(
        quant_scale(&[]).to_bits(),
        quant_ref::quant_scale(&[]).to_bits()
    );
}

/// Slices mixing special values with ordinary ones of any magnitude.
fn special_slice() -> impl Strategy<Value = Vec<f32>> {
    let specials = quant_ref::special_values();
    prop::collection::vec((0usize..specials.len() + 4, any::<u32>()), 0..24).prop_map(
        move |picks| {
            picks
                .into_iter()
                .map(|(i, bits)| specials.get(i).copied().unwrap_or(f32::from_bits(bits)))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    // Any value bits against any scale bits — including negative, NaN,
    // infinite and denormal scales the production callers never pass.
    #[test]
    fn quantize_value_matches_reference_on_random_bits(v in any::<u32>(), s in any::<u32>()) {
        let (v, s) = (f32::from_bits(v), f32::from_bits(s));
        prop_assert_eq!(quantize_value(v, s), quant_ref::quantize_value(v, s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn quant_scale_matches_reference_on_special_slices(src in special_slice()) {
        prop_assert_eq!(quant_scale(&src).to_bits(), quant_ref::quant_scale(&src).to_bits());
        let scale = quant_scale(&src);
        for &v in &src {
            prop_assert_eq!(quantize_value(v, scale), quant_ref::quantize_value(v, scale));
        }
    }
}

/// A conv geometry (kernel 1–4, stride 1–3, padding 0–3, so stride >
/// kernel and padding ≥ kernel both occur) with a `(c,h,w)` input that
/// fits it. The input holds no special values, about one in 48, or one
/// in 4: an infinity anywhere a window reads zeroes the scale, so dense
/// specials alone would rarely exercise nonzero codes.
fn conv_case() -> impl Strategy<Value = (Conv2dSpec, [usize; 3], Vec<f32>)> {
    (
        (1usize..=4, 1usize..=3, 0usize..=3),
        (1usize..=3, 1usize..=7, 1usize..=7, 0usize..3),
    )
        .prop_flat_map(|((k, s, p), (c, h, w, density))| {
            let min_hw = k.saturating_sub(2 * p);
            let (h, w) = (h.max(min_hw), w.max(min_hw));
            let specials = quant_ref::special_values();
            let picks = specials.len() * [100_000, 48, 4][density];
            prop::collection::vec((0..picks, -4.0f32..4.0), c * h * w).prop_map(move |vals| {
                let data = vals
                    .into_iter()
                    .map(|(i, x)| specials.get(i).copied().unwrap_or(x))
                    .collect();
                (Conv2dSpec::square(k, s, p), [c, h, w], data)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The generic im2col equals the per-element gather for f32, the input
    // scale equals the reference scale of the patch matrix, and unfolding
    // the input's codes equals quantizing the patch matrix.
    #[test]
    fn quantized_unfold_matches_quantized_patch_matrix(case in conv_case()) {
        let (spec, chw, data) = case;
        let want_cols = quant_ref::unfold(&data, chw, spec);
        let input = reprune_tensor::Tensor::from_vec(data.clone(), &chw).expect("sized");
        let cols = im2col(&input, spec).expect("valid geometry");
        prop_assert_eq!(cols.len(), want_cols.len());
        for (a, b) in cols.data().iter().zip(&want_cols) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let want_scale = quant_ref::quant_scale(&want_cols);
        let scale = im2col_quant_scale(&data, chw, spec).expect("valid geometry");
        prop_assert_eq!(scale.to_bits(), want_scale.to_bits());

        let codes: Vec<i8> = data.iter().map(|&v| quantize_value(v, scale)).collect();
        let mut unfolded = vec![i8::MIN; want_cols.len()];
        im2col_slice_into(&codes, chw, spec, &mut unfolded).expect("valid geometry");
        for (&got, &v) in unfolded.iter().zip(&want_cols) {
            prop_assert_eq!(got, quant_ref::quantize_value(v, want_scale));
        }
    }
}

/// Every f32 bit pattern at scale 1.0 (~40 s in release). Ignored by
/// default; CI runs it with `cargo test --release -p reprune-tensor --
/// --ignored`.
#[test]
#[ignore]
fn quantize_value_matches_reference_on_every_f32_at_scale_one() {
    for bits in 0..=u32::MAX {
        let v = f32::from_bits(bits);
        if quantize_value(v, 1.0) != quant_ref::quantize_value(v, 1.0) {
            panic!("mismatch at {bits:#010x} ({v:e})");
        }
    }
}
