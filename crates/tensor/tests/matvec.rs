//! The SIMD matrix–vector kernels against their test-only references
//! (`matvec_ref`): f32 outputs bit-equal wherever the reference is not
//! NaN and NaN exactly where it is; int8 outputs equal.
//!
//! Shapes cover k = 0, k below one f32 lane group (8, 16) and k off
//! every multiple of 16, 32 and 64; live-row plans cover none, empty,
//! a random subset and every row.

use proptest::prelude::*;
use reprune_tensor::rng::Prng;
use reprune_tensor::{linalg, qgemm, Tensor};

mod matvec_ref;

/// One f32 with the edge cases mixed in at `special` odds: signed
/// zeros, infinities, denormals, NaN payloads of either sign, and
/// magnitudes whose products overflow.
fn value(rng: &mut Prng, special: f32) -> f32 {
    if !rng.next_bool(special) {
        return rng.next_uniform(-2.0, 2.0);
    }
    let sign = (rng.next_u64() as u32) & 0x8000_0000;
    let payload = (rng.next_u64() as u32) & 0x007f_ffff;
    match rng.next_below(6) {
        0 => f32::from_bits(sign),
        1 => f32::from_bits(sign | 0x7f80_0000),
        2 => f32::from_bits(sign | payload.max(1)),
        3 => f32::from_bits(sign | 0x7f80_0000 | payload.max(1)),
        4 => f32::from_bits(sign) + if sign == 0 { 1e30 } else { -1e30 },
        _ => f32::from_bits(sign | 0x0080_0000),
    }
}

/// The live-row plan `mode` names for `m` rows.
fn live_rows(mode: u8, m: usize, rng: &mut Prng) -> Option<Vec<u32>> {
    match mode {
        0 => None,
        1 => Some(Vec::new()),
        2 => Some((0..m as u32).filter(|_| rng.next_bool(0.5)).collect()),
        _ => Some((0..m as u32).collect()),
    }
}

fn assert_f32_rows(got: &[f32], want: &[f32]) -> TestCaseResult {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            prop_assert!(g.is_nan(), "row {}: {:e} where the reference is NaN", i, g);
        } else {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "row {}: {:e} vs {:e}", i, g, w);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn f32_matvec_matches_reference(
        m in 0usize..=40,
        k in 0usize..=70,
        special in prop_oneof![Just(0.0f32), Just(0.02f32), Just(0.2f32), Just(1.0f32)],
        zeros_only in any::<bool>(),
        mode in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = Prng::new(seed);
        let draw = |rng: &mut Prng| {
            let v = value(rng, special);
            // Signed zeros alone make rows whose sum must stay -0.0.
            if zeros_only { f32::from_bits(v.to_bits() & 0x8000_0000) } else { v }
        };
        let a: Vec<f32> = (0..m * k).map(|_| draw(&mut rng)).collect();
        let x: Vec<f32> = (0..k).map(|_| draw(&mut rng)).collect();
        let live = live_rows(mode, m, &mut rng);

        let mut want = vec![f32::NAN; m];
        matvec_ref::matvec(&a, &x, live.as_deref(), &mut want);
        let at = Tensor::from_vec(a.clone(), &[m, k]).expect("sized");
        let xt = Tensor::from_vec(x.clone(), &[k]).expect("sized");
        let mut out = Tensor::default();
        linalg::matvec_into(&at, &xt, live.as_deref(), &mut out).expect("shapes agree");
        assert_f32_rows(out.data(), &want)?;

        if live.is_none() {
            let dense = linalg::matvec(&at, &xt).expect("shapes agree");
            assert_f32_rows(dense.data(), &want)?;
        }
    }

    #[test]
    fn i8_matvec_matches_reference(
        m in 0usize..=40,
        k in 0usize..=70,
        mode in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = Prng::new(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_u64() as i8).collect();
        let x: Vec<i8> = (0..k).map(|_| rng.next_u64() as i8).collect();
        let live = live_rows(mode, m, &mut rng);

        let mut want = vec![i32::MIN; m];
        matvec_ref::matvec_i8(&a, &x, live.as_deref(), &mut want);
        let mut got = vec![i32::MAX; m];
        qgemm::matvec_i8_into(&a, &x, live.as_deref(), &mut got);
        prop_assert_eq!(got, want);
    }
}

#[test]
fn extreme_i8_codes_match_reference() {
    // The quantizer never emits -128, but the kernels take any i8 code:
    // the largest products must widen and sum exactly.
    for &(w, v) in &[(-128i8, -128i8), (-128, 127), (127, 127)] {
        let k = 67;
        let a = vec![w; 3 * k];
        let x = vec![v; k];
        let mut want = vec![0i32; 3];
        let mut got = vec![0i32; 3];
        matvec_ref::matvec_i8(&a, &x, None, &mut want);
        qgemm::matvec_i8_into(&a, &x, None, &mut got);
        assert_eq!(got, want, "codes {w} · {v}");
        assert_eq!(got[0], k as i32 * w as i32 * v as i32);
    }
}
