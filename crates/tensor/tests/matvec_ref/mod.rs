//! Test-only oracles for the matrix–vector kernels: the per-row scalar
//! dot products the f32 and int8 matvecs were first written as. The
//! SIMD kernels in `reprune_tensor::linalg` and `reprune_tensor::qgemm`
//! must match them bit for bit (for f32: on every output that is not
//! NaN, and NaN exactly where these are NaN).

/// Reference f32 matvec: each computed row is the sequential `.sum()`
/// of its `w * v` products; rows outside `live_rows` are `0.0`.
pub fn matvec(a: &[f32], x: &[f32], live_rows: Option<&[u32]>, out: &mut [f32]) {
    let k = x.len();
    let dot = |row: usize| -> f32 {
        a[row * k..(row + 1) * k]
            .iter()
            .zip(x)
            .map(|(&w, &v)| w * v)
            .sum()
    };
    match live_rows {
        None => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(i);
            }
        }
        Some(live) => {
            out.fill(0.0);
            for &r in live {
                let r = r as usize;
                out[r] = dot(r);
            }
        }
    }
}

/// Reference int8 matvec: each computed row is the scalar i32 sum of
/// its code products; rows outside `live_rows` are 0.
pub fn matvec_i8(a: &[i8], x: &[i8], live_rows: Option<&[u32]>, out: &mut [i32]) {
    let k = x.len();
    let dot = |row: usize| -> i32 {
        a[row * k..(row + 1) * k]
            .iter()
            .zip(x)
            .map(|(&w, &v)| w as i32 * v as i32)
            .sum()
    };
    match live_rows {
        None => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(i);
            }
        }
        Some(live) => {
            out.fill(0);
            for &r in live {
                let r = r as usize;
                out[r] = dot(r);
            }
        }
    }
}
