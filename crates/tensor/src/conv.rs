//! Convolution and pooling primitives (single-image, CHW layout).
//!
//! Convolutions are lowered to matrix multiplication through [`im2col`],
//! the classic strategy used by embedded inference engines; the reverse
//! scatter [`col2im`] supports backpropagation in `reprune-nn`.

use crate::{linalg, qgemm, Result, Tensor, TensorError};

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a square-kernel spec.
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec {
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Computes the output spatial size for an `(h, w)` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stride is zero or the
    /// window does not fit into the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::invalid("conv stride must be nonzero"));
        }
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if ph < self.kernel_h || pw < self.kernel_w {
            return Err(TensorError::invalid(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h, self.kernel_w, ph, pw
            )));
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }
}

fn require_chw<'t>(t: &'t Tensor, op: &'static str) -> Result<(&'t Tensor, usize, usize, usize)> {
    if t.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: t.shape().rank(),
            op,
        });
    }
    Ok((t, t.shape().dim(0), t.shape().dim(1), t.shape().dim(2)))
}

/// Unfolds a `(C,H,W)` image into a `(C·kh·kw, oh·ow)` matrix of patches.
///
/// Column `j` of the result holds the receptive field of output pixel `j`
/// (row-major over the output grid); padding contributes zeros.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-CHW input or
/// [`TensorError::InvalidArgument`] for degenerate window geometry.
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let mut out = Tensor::default();
    im2col_into(input, spec, &mut out)?;
    Ok(out)
}

/// [`im2col`] into a caller-provided buffer, reusing its allocation when
/// capacity allows. Returns `true` if the buffer had to grow.
///
/// # Errors
///
/// Same errors as [`im2col`].
pub fn im2col_into(input: &Tensor, spec: Conv2dSpec, out: &mut Tensor) -> Result<bool> {
    let (input, c, h, w) = require_chw(input, "im2col")?;
    let (oh, ow) = spec.output_hw(h, w)?;
    let grew = out.reuse_as(&[c * spec.kernel_h * spec.kernel_w, oh * ow]);
    im2col_slice_into(input.data(), [c, h, w], spec, out.data_mut())?;
    Ok(grew)
}

/// The one im2col body, generic over the element type: unfolds the
/// `(C,H,W)` image `src` (dims `chw`) into the row-major
/// `(C·kh·kw, oh·ow)` patch matrix `dst`. Every element of `dst` is
/// written, padding taps included (as `T::default()`: `0.0` for f32,
/// code 0 for i8), so `dst` needs no zeroing beforehand. [`im2col_into`]
/// is its f32 entry point; the int8 conv path unfolds quantized codes
/// through it.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for degenerate window
/// geometry or when `src`/`dst` lengths disagree with it.
pub fn im2col_slice_into<T: Copy + Default>(
    src: &[T],
    chw: [usize; 3],
    spec: Conv2dSpec,
    dst: &mut [T],
) -> Result<()> {
    let [c, h, w] = chw;
    let (oh, ow) = spec.output_hw(h, w)?;
    let (kh_n, kw_n, s, p) = (spec.kernel_h, spec.kernel_w, spec.stride, spec.padding);
    if src.len() != c * h * w || dst.len() != c * kh_n * kw_n * oh * ow {
        return Err(TensorError::invalid(format!(
            "im2col: {} source / {} destination elements for a {c}x{h}x{w} input \
             unfolded to {oh}x{ow}",
            src.len(),
            dst.len()
        )));
    }
    let zero = T::default();
    let mut rows = dst.chunks_exact_mut(oh * ow);
    for ch in 0..c {
        let plane = &src[ch * h * w..(ch + 1) * h * w];
        for kh in 0..kh_n {
            for kw in 0..kw_n {
                let row = rows.next().expect("dst length checked above");
                // Output columns [x0, x1) read inside the image for this
                // tap column; the rest read padding.
                let x0 = p.saturating_sub(kw).div_ceil(s).min(ow);
                let x1 = if w + p > kw { ((w + p - 1 - kw) / s + 1).min(ow) } else { 0 };
                let x1 = x1.max(x0);
                for (oy, seg) in row.chunks_exact_mut(ow).enumerate() {
                    let iy = (oy * s + kh) as isize - p as isize;
                    if iy < 0 || iy as usize >= h {
                        seg.fill(zero);
                        continue;
                    }
                    let line = &plane[iy as usize * w..(iy as usize + 1) * w];
                    seg[..x0].fill(zero);
                    if s == 1 && x0 < x1 {
                        // The in-image run is contiguous in the source row.
                        seg[x0..x1].copy_from_slice(&line[x0 + kw - p..x1 + kw - p]);
                    } else {
                        for (ox, d) in (x0..x1).zip(&mut seg[x0..x1]) {
                            *d = line[ox * s + kw - p];
                        }
                    }
                    seg[x1..].fill(zero);
                }
            }
        }
    }
    Ok(())
}

/// The int8 activation scale of the patch matrix [`im2col_slice_into`]
/// unfolds from `src` (dims `chw`), computed from `src` itself: the
/// [`qgemm::quant_scale`] max runs over the elements some window reads.
/// Padding taps are zeros, which never raise a max that starts at 0, so
/// the result equals `quant_scale` over the patch matrix bit for bit.
/// Where every element is read (the stride-1, padded 3×3 convs of the
/// reference models) this is a flat `quant_scale(src)`; a per-axis
/// coverage test handles a stride above the kernel and windows that
/// stop short of the last rows or columns.
///
/// # Errors
///
/// Same errors as [`im2col_slice_into`].
pub fn im2col_quant_scale(src: &[f32], chw: [usize; 3], spec: Conv2dSpec) -> Result<f32> {
    let [c, h, w] = chw;
    let (oh, ow) = spec.output_hw(h, w)?;
    if src.len() != c * h * w {
        return Err(TensorError::invalid(format!(
            "im2col_quant_scale: {} elements for a {c}x{h}x{w} input",
            src.len()
        )));
    }
    // Whether some window along one axis (`outs` windows of `kernel`
    // taps) reads input index `i`: the last window starting at or
    // before `i` is the one that reaches furthest past it.
    let read = |i: usize, outs: usize, kernel: usize| {
        let t = i + spec.padding;
        t - (t / spec.stride).min(outs - 1) * spec.stride < kernel
    };
    let rows_read = |iy: usize| read(iy, oh, spec.kernel_h);
    let cols_read = |ix: usize| read(ix, ow, spec.kernel_w);
    if (0..h).all(rows_read) && (0..w).all(cols_read) {
        return Ok(qgemm::quant_scale(src));
    }
    // Some axis is not fully read, so h and w are both nonzero here.
    let mut max_bits = 0;
    for (i, &v) in src.iter().enumerate() {
        if rows_read(i / w % h) && cols_read(i % w) {
            max_bits = max_bits.max(qgemm::abs_bits(v));
        }
    }
    Ok(qgemm::scale_from_abs_bits(max_bits))
}

/// Folds a `(C·kh·kw, oh·ow)` patch matrix back into a `(C,H,W)` image,
/// accumulating overlapping contributions (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the shape
/// `im2col` would produce for the given geometry.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Result<Tensor> {
    let (oh, ow) = spec.output_hw(h, w)?;
    let expected = [c * spec.kernel_h * spec.kernel_w, oh * ow];
    if cols.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: expected.to_vec(),
            op: "col2im",
        });
    }
    let mut out = Tensor::zeros(&[c, h, w]);
    let cd = cols.data();
    let od = out.data_mut();
    let ncols = oh * ow;
    for ch in 0..c {
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let row = (ch * spec.kernel_h + kh) * spec.kernel_w + kw;
                for oy in 0..oh {
                    let iy = (oy * spec.stride + kh) as isize - spec.padding as isize;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kw) as isize - spec.padding as isize;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            od[(ch * h + iy as usize) * w + ix as usize] +=
                                cd[row * ncols + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// 2-D convolution of a `(C,H,W)` image with `(OC,C,kh,kw)` weights and an
/// `(OC)` bias, producing `(OC,oh,ow)`.
///
/// # Errors
///
/// Returns a shape/rank error if any operand disagrees with the geometry.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let mut cols = Tensor::default();
    let mut out = Tensor::default();
    let mut scratch = linalg::GemmScratch::new();
    conv2d_into(input, weight, bias, spec, None, &mut cols, &mut out, &mut scratch)?;
    Ok(out)
}

/// [`conv2d`] into caller-provided buffers: `cols` receives the im2col
/// patch matrix, `out` the `(OC,oh,ow)` result, and `scratch` the GEMM
/// packing buffers — none allocate once warm. With `live_channels` (sorted
/// output-channel indices from a structured pruning mask) only the live
/// channels' GEMM rows are computed; pruned channels still receive their
/// bias, exactly matching dense execution over masked (zeroed) weights.
/// Returns `true` if any tensor buffer had to grow.
///
/// # Errors
///
/// Same errors as [`conv2d`].
// Deliberate allow: the arena-style signature is the point — operands,
// the sparse plan, and the three reusable buffers are each distinct
// borrows a wrapper struct could not hand out simultaneously.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: Conv2dSpec,
    live_channels: Option<&[u32]>,
    cols: &mut Tensor,
    out: &mut Tensor,
    scratch: &mut linalg::GemmScratch,
) -> Result<bool> {
    let (_, c, h, w) = require_chw(input, "conv2d")?;
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weight.shape().rank(),
            op: "conv2d weight",
        });
    }
    let oc = weight.shape().dim(0);
    let expected_w = [oc, c, spec.kernel_h, spec.kernel_w];
    if weight.dims() != expected_w {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.dims().to_vec(),
            rhs: expected_w.to_vec(),
            op: "conv2d weight",
        });
    }
    if bias.dims() != [oc] {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.dims().to_vec(),
            rhs: vec![oc],
            op: "conv2d bias",
        });
    }
    let (oh, ow) = spec.output_hw(h, w)?;
    let mut grew = im2col_into(input, spec, cols)?;
    grew |= out.reuse_as(&[oc, oh, ow]);
    let n = oh * ow;
    let k = c * spec.kernel_h * spec.kernel_w;
    // The weight tensor is viewed directly as the (oc, k) GEMM lhs — no
    // reshape clone on the hot path.
    linalg::matmul_slices_into(
        weight.data(),
        oc,
        k,
        cols.data(),
        n,
        live_channels,
        out.data_mut(),
        scratch,
    );
    let od = out.data_mut();
    for (i, &b) in bias.data().iter().enumerate() {
        for v in &mut od[i * n..(i + 1) * n] {
            *v += b;
        }
    }
    Ok(grew)
}

/// Result of a max-pooling pass: the pooled tensor plus, for each output
/// element, the flat input offset of the winning element (for backprop).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled `(C,oh,ow)` tensor.
    pub output: Tensor,
    /// For each output element (row-major), the flat offset into the input
    /// buffer of the element that won the max.
    pub argmax: Vec<usize>,
}

/// Max-pools a `(C,H,W)` image with a square window.
///
/// # Errors
///
/// Returns a rank/geometry error for invalid inputs.
pub fn max_pool2d(input: &Tensor, kernel: usize, stride: usize) -> Result<MaxPoolOutput> {
    let (input, c, h, w) = require_chw(input, "max_pool2d")?;
    let spec = Conv2dSpec::square(kernel, stride, 0);
    let (oh, ow) = spec.output_hw(h, w)?;
    let mut output = Tensor::zeros(&[c, oh, ow]);
    let mut argmax = vec![0usize; c * oh * ow];
    let id = input.data();
    let od = output.data_mut();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let iy = oy * stride + ky;
                        let ix = ox * stride + kx;
                        let off = (ch * h + iy) * w + ix;
                        if id[off] > best {
                            best = id[off];
                            best_off = off;
                        }
                    }
                }
                let oi = (ch * oh + oy) * ow + ox;
                od[oi] = best;
                argmax[oi] = best_off;
            }
        }
    }
    Ok(MaxPoolOutput { output, argmax })
}

/// [`max_pool2d`] into a reused output buffer, without materializing the
/// argmax bookkeeping (inference never needs it). Returns `true` if the
/// buffer had to grow.
///
/// # Errors
///
/// Returns a rank/geometry error for invalid inputs.
pub fn max_pool2d_into(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    out: &mut Tensor,
) -> Result<bool> {
    let (input, c, h, w) = require_chw(input, "max_pool2d")?;
    let spec = Conv2dSpec::square(kernel, stride, 0);
    let (oh, ow) = spec.output_hw(h, w)?;
    let grew = out.reuse_as(&[c, oh, ow]);
    let id = input.data();
    let od = out.data_mut();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let v = id[(ch * h + oy * stride + ky) * w + ox * stride + kx];
                        if v > best {
                            best = v;
                        }
                    }
                }
                od[(ch * oh + oy) * ow + ox] = best;
            }
        }
    }
    Ok(grew)
}

/// Average-pools a `(C,H,W)` image with a square window.
///
/// # Errors
///
/// Returns a rank/geometry error for invalid inputs.
pub fn avg_pool2d(input: &Tensor, kernel: usize, stride: usize) -> Result<Tensor> {
    let (input, c, h, w) = require_chw(input, "avg_pool2d")?;
    let spec = Conv2dSpec::square(kernel, stride, 0);
    let (oh, ow) = spec.output_hw(h, w)?;
    let mut output = Tensor::zeros(&[c, oh, ow]);
    let id = input.data();
    let od = output.data_mut();
    let inv = 1.0 / (kernel * kernel) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        acc += id[(ch * h + oy * stride + ky) * w + ox * stride + kx];
                    }
                }
                od[(ch * oh + oy) * ow + ox] = acc * inv;
            }
        }
    }
    Ok(output)
}

/// [`avg_pool2d`] into a reused output buffer. Returns `true` if the
/// buffer had to grow.
///
/// # Errors
///
/// Returns a rank/geometry error for invalid inputs.
pub fn avg_pool2d_into(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    out: &mut Tensor,
) -> Result<bool> {
    let (input, c, h, w) = require_chw(input, "avg_pool2d")?;
    let spec = Conv2dSpec::square(kernel, stride, 0);
    let (oh, ow) = spec.output_hw(h, w)?;
    let grew = out.reuse_as(&[c, oh, ow]);
    let id = input.data();
    let od = out.data_mut();
    let inv = 1.0 / (kernel * kernel) as f32;
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        acc += id[(ch * h + oy * stride + ky) * w + ox * stride + kx];
                    }
                }
                od[(ch * oh + oy) * ow + ox] = acc * inv;
            }
        }
    }
    Ok(grew)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_chw(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec((0..c * h * w).map(|v| v as f32).collect(), &[c, h, w]).unwrap()
    }

    #[test]
    fn output_hw_basic() {
        let spec = Conv2dSpec::square(3, 1, 1);
        assert_eq!(spec.output_hw(8, 8).unwrap(), (8, 8));
        let spec2 = Conv2dSpec::square(2, 2, 0);
        assert_eq!(spec2.output_hw(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn output_hw_rejects_zero_stride_and_big_kernel() {
        assert!(Conv2dSpec::square(3, 0, 0).output_hw(8, 8).is_err());
        assert!(Conv2dSpec::square(9, 1, 0).output_hw(8, 8).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a reshape.
        let x = seq_chw(2, 3, 3);
        let cols = im2col(&x, Conv2dSpec::square(1, 1, 0)).unwrap();
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.data(), x.data());
    }

    #[test]
    fn im2col_known_patch() {
        let x = seq_chw(1, 3, 3); // 0..9
        let cols = im2col(&x, Conv2dSpec::square(2, 1, 0)).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // First column = top-left 2x2 patch [0,1,3,4].
        let d = cols.data();
        assert_eq!([d[0], d[4], d[8], d[12]], [0.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_padding_adds_zeros() {
        let x = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&x, Conv2dSpec::square(3, 1, 1)).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Corner output pixel touches 5 padded zeros out of 9 elements.
        let first_col: Vec<f32> = (0..9).map(|r| cols.data()[r * 4]).collect();
        assert_eq!(first_col.iter().filter(|&&v| v == 0.0).count(), 5);
    }

    #[test]
    fn conv2d_identity_filter() {
        let x = seq_chw(1, 4, 4);
        // 1x1 kernel with weight 1 reproduces the input.
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, Conv2dSpec::square(1, 1, 0)).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_sum_filter() {
        let x = Tensor::ones(&[1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let y = conv2d(&x, &w, &b, Conv2dSpec::square(3, 1, 0)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert_eq!(y.data(), &[9.5]);
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let x = Tensor::ones(&[3, 2, 2]);
        let w = Tensor::ones(&[2, 3, 2, 2]);
        let b = Tensor::zeros(&[2]);
        let y = conv2d(&x, &w, &b, Conv2dSpec::square(2, 1, 0)).unwrap();
        assert_eq!(y.dims(), &[2, 1, 1]);
        assert_eq!(y.data(), &[12.0, 12.0]);
    }

    #[test]
    fn conv2d_rejects_mismatched_weight() {
        let x = Tensor::ones(&[2, 4, 4]);
        let w = Tensor::ones(&[1, 3, 3, 3]); // wrong in-channels
        let b = Tensor::zeros(&[1]);
        assert!(conv2d(&x, &w, &b, Conv2dSpec::square(3, 1, 0)).is_err());
        let w2 = Tensor::ones(&[1, 2, 3, 3]);
        assert!(conv2d(&x, &w2, &Tensor::zeros(&[2]), Conv2dSpec::square(3, 1, 0)).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_windows() {
        // Stride == kernel (no overlap): col2im(im2col(x)) == x.
        let x = seq_chw(2, 4, 4);
        let spec = Conv2dSpec::square(2, 2, 0);
        let cols = im2col(&x, spec).unwrap();
        let back = col2im(&cols, 2, 4, 4, spec).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let x = Tensor::ones(&[1, 3, 3]);
        let spec = Conv2dSpec::square(2, 1, 0);
        let cols = im2col(&x, spec).unwrap();
        let back = col2im(&cols, 1, 3, 3, spec).unwrap();
        // Center pixel is covered by all four 2x2 windows.
        assert_eq!(back.get(&[0, 1, 1]).unwrap(), 4.0);
        assert_eq!(back.get(&[0, 0, 0]).unwrap(), 1.0);
    }

    #[test]
    fn col2im_rejects_wrong_shape() {
        let spec = Conv2dSpec::square(2, 1, 0);
        assert!(col2im(&Tensor::zeros(&[3, 3]), 1, 3, 3, spec).is_err());
    }

    #[test]
    fn max_pool_values_and_argmax() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 4, 4],
        )
        .unwrap();
        let p = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(p.output.dims(), &[1, 2, 2]);
        assert_eq!(p.output.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(p.argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_handles_negative_inputs() {
        let x = Tensor::full(&[1, 2, 2], -3.0);
        let p = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(p.output.data(), &[-3.0]);
    }

    #[test]
    fn avg_pool_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = avg_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn pooling_rejects_non_chw() {
        assert!(max_pool2d(&Tensor::zeros(&[4, 4]), 2, 2).is_err());
        assert!(avg_pool2d(&Tensor::zeros(&[4, 4]), 2, 2).is_err());
    }
}
