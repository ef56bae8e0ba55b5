//! Test-only oracles for the int8 quantizer and the patch-matrix unfold.
//!
//! `quant_scale` and `quantize_value` are the quantizer as first written
//! — an `f32::max` fold for the scale and libm `round` for the codes.
//! The libm-free quantizer in `reprune_tensor::qgemm` must match them bit
//! for bit on every input. `unfold` is the plain per-element im2col
//! gather. The nn quantized-layer oracle loads this file through a
//! `#[path]` module, so both crates test against one reference.

use reprune_tensor::conv::Conv2dSpec;

/// Reference scale: `max|x| / 127` over an `f32::max` fold (which drops
/// NaN operands), zero when that is zero or non-finite.
pub fn quant_scale(src: &[f32]) -> f32 {
    let mut max_abs = 0.0f32;
    for &v in src {
        max_abs = max_abs.max(v.abs());
    }
    let scale = max_abs / 127.0;
    if scale.is_finite() && scale > 0.0 {
        scale
    } else {
        0.0
    }
}

/// Reference code: `round(v / scale)` (half away from zero, libm)
/// clamped to ±127; the saturating `as i8` maps NaN to 0.
pub fn quantize_value(v: f32, scale: f32) -> i8 {
    if scale == 0.0 {
        return 0;
    }
    let q = (v / scale).round();
    q.clamp(-127.0, 127.0) as i8
}

/// Reference im2col: the `(c·kh·kw, oh·ow)` patch matrix of a `(c,h,w)`
/// image, gathered one element at a time, with zeros for padding taps.
pub fn unfold(src: &[f32], [c, h, w]: [usize; 3], spec: Conv2dSpec) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w).expect("valid geometry");
    let (kh_n, kw_n) = (spec.kernel_h, spec.kernel_w);
    let mut out = vec![0.0f32; c * kh_n * kw_n * oh * ow];
    for ch in 0..c {
        for kh in 0..kh_n {
            for kw in 0..kw_n {
                let row = (ch * kh_n + kh) * kw_n + kw;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + kh) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kw) as isize - spec.padding as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            out[row * oh * ow + oy * ow + ox] =
                                src[(ch * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Values at the edges of the f32 encoding: ±0, ±inf, NaNs with sign and
/// payload variety, the smallest and largest denormals and normals, and
/// `f32::MAX`.
pub fn special_values() -> Vec<f32> {
    [
        0x0000_0000u32, // +0
        0x8000_0000,    // -0
        0x7f80_0000,    // +inf
        0xff80_0000,    // -inf
        0x7fc0_0000,    // quiet NaN
        0xffc0_0000,    // negative quiet NaN
        0x7f80_0001,    // signalling NaN, payload 1
        0xff80_0001,
        0x7fff_ffff, // NaN, all payload bits
        0xffff_ffff,
        0x7fc1_2345, // quiet NaN with payload
        0x0000_0001, // smallest denormal
        0x8000_0001,
        0x007f_ffff, // largest denormal
        0x807f_ffff,
        0x0080_0000, // f32::MIN_POSITIVE
        0x8080_0000,
        0x7f7f_ffff, // f32::MAX
        0xff7f_ffff,
        0x3f80_0000, // 1.0
        0xbf00_0000, // -0.5
    ]
    .iter()
    .map(|&b| f32::from_bits(b))
    .collect()
}
