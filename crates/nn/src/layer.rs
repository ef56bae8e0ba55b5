//! Layers with forward and backward passes.
//!
//! All layers process a single sample (rank-1 vectors for dense layers,
//! `(C,H,W)` images for spatial layers); mini-batching is done by the
//! trainer accumulating gradients across samples. Each parametric layer
//! owns its gradient accumulators and SGD momentum buffers, so the trainer
//! only orchestrates `zero_grad` → `forward` → `backward` → `sgd_step`.

use crate::exec::QuantScratch;
use crate::{NnError, Result};
use reprune_tensor::conv::{self, Conv2dSpec};
use reprune_tensor::rng::Prng;
use reprune_tensor::{linalg, qgemm, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Hyperparameters of one SGD update, shared by every parametric layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdStep {
    /// Learning rate.
    pub lr: f32,
    /// Classical momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay coefficient (0 disables decay).
    pub weight_decay: f32,
}

impl Default for SgdStep {
    fn default() -> Self {
        SgdStep {
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }
}

/// Hyperparameters of one Adam update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for AdamStep {
    fn default() -> Self {
        AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam moment buffers for one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First-moment estimate.
    pub m: Tensor,
    /// Second-moment estimate.
    pub v: Tensor,
    /// Step counter (for bias correction).
    pub t: u32,
}

/// One trainable parameter with its gradient accumulator and optimizer
/// state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (summed over the current mini-batch).
    #[serde(skip)]
    pub grad: Option<Tensor>,
    /// SGD momentum buffer.
    #[serde(skip)]
    pub velocity: Option<Tensor>,
    /// Adam moment buffers.
    #[serde(skip)]
    pub adam: Option<AdamState>,
    /// Retired gradient buffer recycled by the next `accumulate` so the
    /// training loop stops re-allocating gradients every mini-batch.
    /// Invisible to serialization and equality: purely a capacity cache.
    #[serde(skip)]
    spare: Option<Tensor>,
}

// Manual impl so the `spare` capacity cache never affects equality —
// two parameters that trained identically must compare equal regardless
// of which one recycled a buffer.
impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
            && self.grad == other.grad
            && self.velocity == other.velocity
            && self.adam == other.adam
    }
}

impl Param {
    /// Wraps a value tensor as a parameter.
    pub fn new(value: Tensor) -> Self {
        Param {
            value,
            grad: None,
            velocity: None,
            adam: None,
            spare: None,
        }
    }

    /// Applies one Adam update scaled by `1/batch` and clears the
    /// accumulator. A parameter with no accumulated gradient is left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (cannot occur for well-formed
    /// layers).
    pub fn adam_step(&mut self, step: AdamStep, batch: usize) -> Result<()> {
        let Some(mut g) = self.grad.take() else {
            return Ok(());
        };
        let scale = 1.0 / batch.max(1) as f32;
        g.map_inplace(|v| v * scale);
        if step.weight_decay > 0.0 {
            g.axpy(step.weight_decay, &self.value)?;
        }
        let state = self.adam.get_or_insert_with(|| AdamState {
            m: Tensor::zeros(self.value.dims()),
            v: Tensor::zeros(self.value.dims()),
            t: 0,
        });
        state.t += 1;
        state.m.zip_inplace(&g, |m, gi| step.beta1 * m + (1.0 - step.beta1) * gi)?;
        state
            .v
            .zip_inplace(&g, |v, gi| step.beta2 * v + (1.0 - step.beta2) * gi * gi)?;
        let bc1 = 1.0 - step.beta1.powi(state.t as i32);
        let bc2 = 1.0 - step.beta2.powi(state.t as i32);
        let data = self.value.data_mut();
        for ((x, &m), &v) in data.iter_mut().zip(state.m.data()).zip(state.v.data()) {
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            *x -= step.lr * m_hat / (v_hat.sqrt() + step.eps);
        }
        self.spare = Some(g);
        Ok(())
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad = None;
    }

    /// Adds `g` into the gradient accumulator, recycling a retired
    /// gradient buffer instead of allocating when one is available.
    pub fn accumulate(&mut self, g: &Tensor) -> Result<()> {
        match &mut self.grad {
            Some(acc) => acc.zip_inplace(g, |a, b| a + b)?,
            None => match self.spare.take() {
                Some(mut buf) => {
                    buf.copy_from(g);
                    self.grad = Some(buf);
                }
                None => self.grad = Some(g.clone()),
            },
        }
        Ok(())
    }

    /// Applies one SGD-with-momentum update scaled by `1/batch` and clears
    /// the accumulator. A parameter with no accumulated gradient is left
    /// untouched.
    pub fn sgd_step(&mut self, step: SgdStep, batch: usize) -> Result<()> {
        let Some(mut update) = self.grad.take() else {
            return Ok(());
        };
        let scale = 1.0 / batch.max(1) as f32;
        update.map_inplace(|v| v * scale);
        if step.weight_decay > 0.0 {
            update.axpy(step.weight_decay, &self.value)?;
        }
        if step.momentum > 0.0 {
            let mut vel = self
                .velocity
                .take()
                .unwrap_or_else(|| Tensor::zeros(self.value.dims()));
            vel.map_inplace(|v| v * step.momentum);
            vel.axpy(1.0, &update)?;
            self.value.axpy(-step.lr, &vel)?;
            self.velocity = Some(vel);
        } else {
            self.value.axpy(-step.lr, &update)?;
        }
        self.spare = Some(update);
        Ok(())
    }
}

/// Fully connected layer: `y = W·x + b` with `W: (out,in)`, `b: (out)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, shape `(out, in)`.
    pub weight: Param,
    /// Bias vector, shape `(out)`.
    pub bias: Param,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a He-initialized layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        Linear {
            weight: Param::new(Tensor::he_init(&[out_features, in_features], in_features, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let y = linalg::matvec(&self.weight.value, x)?.add(&self.bias.value)?;
        if train {
            self.cached_input = Some(x.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or_else(|| NnError::NoForwardCache {
            layer: "Linear".into(),
        })?;
        let grad_w = linalg::outer(grad_out, x)?;
        self.weight.accumulate(&grad_w)?;
        self.bias.accumulate(grad_out)?;
        let wt = self.weight.value.transpose2()?;
        Ok(linalg::matvec(&wt, grad_out)?)
    }
}

/// 2-D convolution layer over `(C,H,W)` images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    /// Kernel tensor, shape `(out_channels, in_channels, kh, kw)`.
    pub weight: Param,
    /// Per-output-channel bias, shape `(out_channels)`.
    pub bias: Param,
    /// Window geometry.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    #[serde(skip)]
    cached: Option<ConvCache>,
}

#[derive(Debug, Clone, PartialEq)]
struct ConvCache {
    cols: Tensor,
    in_dims: [usize; 3],
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a He-initialized convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Prng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(Tensor::he_init(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            kernel,
            stride,
            padding,
            cached: None,
        }
    }

    /// Number of output channels (the structured-pruning unit).
    pub fn out_channels(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dims()[1]
    }

    pub(crate) fn spec(&self) -> Conv2dSpec {
        Conv2dSpec::square(self.kernel, self.stride, self.padding)
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let spec = self.spec();
        if !train {
            return Ok(conv::conv2d(x, &self.weight.value, &self.bias.value, spec)?);
        }
        // Training path: unfold once into the (reused) cache buffer, then
        // run the GEMM straight off it — no second im2col, no re-allocated
        // patch matrix across mini-batches.
        let dims = x.dims();
        if dims.len() != 3 || dims[0] != self.in_channels() {
            return Err(NnError::bad_architecture(format!(
                "Conv2d expects ({},H,W) input, got {dims:?}",
                self.in_channels()
            )));
        }
        let mut cache = self.cached.take().unwrap_or_else(|| ConvCache {
            cols: Tensor::default(),
            in_dims: [0; 3],
            out_hw: (0, 0),
        });
        conv::im2col_into(x, spec, &mut cache.cols)?;
        cache.in_dims = [dims[0], dims[1], dims[2]];
        cache.out_hw = spec.output_hw(dims[1], dims[2])?;
        let (oh, ow) = cache.out_hw;
        let oc = self.out_channels();
        let k = self.in_channels() * self.kernel * self.kernel;
        let mut out = Tensor::zeros(&[oc, oh, ow]);
        let mut scratch = linalg::GemmScratch::new();
        linalg::matmul_slices_into(
            self.weight.value.data(),
            oc,
            k,
            cache.cols.data(),
            oh * ow,
            None,
            out.data_mut(),
            &mut scratch,
        );
        let n = oh * ow;
        let od = out.data_mut();
        for (i, &b) in self.bias.value.data().iter().enumerate() {
            for v in &mut od[i * n..(i + 1) * n] {
                *v += b;
            }
        }
        self.cached = Some(cache);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cached.as_ref().ok_or_else(|| NnError::NoForwardCache {
            layer: "Conv2d".into(),
        })?;
        let oc = self.out_channels();
        let (oh, ow) = cache.out_hw;
        let g = grad_out.reshape(&[oc, oh * ow])?;
        // grad_w = g · colsᵀ, reshaped to kernel layout.
        let grad_w = linalg::matmul(&g, &cache.cols.transpose2()?)?
            .reshape(self.weight.value.dims())?;
        self.weight.accumulate(&grad_w)?;
        // grad_b = row sums of g.
        let mut gb = Tensor::zeros(&[oc]);
        for i in 0..oc {
            gb.data_mut()[i] = g.row(i)?.sum();
        }
        self.bias.accumulate(&gb)?;
        // grad_x = col2im(Wᵀ · g).
        let wmat = self
            .weight
            .value
            .reshape(&[oc, self.in_channels() * self.kernel * self.kernel])?;
        let grad_cols = linalg::matmul(&wmat.transpose2()?, &g)?;
        let [c, h, w] = cache.in_dims;
        Ok(conv::col2im(&grad_cols, c, h, w, self.spec())?)
    }
}

/// Per-channel batch normalization over `(C,H,W)` activations.
///
/// Training uses the current sample's spatial statistics and maintains
/// exponential running estimates for inference. The backward pass treats
/// the normalization statistics as constants — a standard simplification
/// that trains the small reference models in this repository without issue
/// (documented in DESIGN.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchNorm2d {
    /// Learnable per-channel scale.
    pub gamma: Param,
    /// Learnable per-channel shift.
    pub beta: Param,
    /// Running mean used at inference time.
    pub running_mean: Tensor,
    /// Running variance used at inference time.
    pub running_var: Tensor,
    /// EMA momentum for the running statistics.
    pub ema: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    #[serde(skip)]
    cached: Option<BnCache>,
}

#[derive(Debug, Clone, PartialEq)]
struct BnCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates an identity-initialized batch norm over `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            ema: 0.1,
            eps: 1e-5,
            cached: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let dims = x.dims().to_vec();
        if dims.len() != 3 {
            return Err(NnError::bad_architecture(format!(
                "BatchNorm2d expects (C,H,W) input, got {dims:?}"
            )));
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let area = (h * w) as f32;
        let mut out = Tensor::zeros(&dims);
        let mut normalized = Tensor::zeros(&dims);
        let mut inv_stds = Vec::with_capacity(c);
        for ch in 0..c {
            let slice = &x.data()[ch * h * w..(ch + 1) * h * w];
            let (mean, var) = if train {
                let m = slice.iter().sum::<f32>() / area;
                let v = slice.iter().map(|&s| (s - m) * (s - m)).sum::<f32>() / area;
                self.running_mean.data_mut()[ch] =
                    (1.0 - self.ema) * self.running_mean.data()[ch] + self.ema * m;
                self.running_var.data_mut()[ch] =
                    (1.0 - self.ema) * self.running_var.data()[ch] + self.ema * v;
                (m, v)
            } else {
                (self.running_mean.data()[ch], self.running_var.data()[ch])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            let g = self.gamma.value.data()[ch];
            let b = self.beta.value.data()[ch];
            for (i, &si) in slice.iter().enumerate() {
                let n = (si - mean) * inv_std;
                normalized.data_mut()[ch * h * w + i] = n;
                out.data_mut()[ch * h * w + i] = g * n + b;
            }
        }
        if train {
            self.cached = Some(BnCache {
                normalized,
                inv_std: inv_stds,
            });
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cached.as_ref().ok_or_else(|| NnError::NoForwardCache {
            layer: "BatchNorm2d".into(),
        })?;
        let dims = grad_out.dims().to_vec();
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let mut grad_in = Tensor::zeros(&dims);
        let mut gg = Tensor::zeros(&[c]);
        let mut gb = Tensor::zeros(&[c]);
        for ch in 0..c {
            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            let mut gsum = 0.0;
            let mut bsum = 0.0;
            for i in 0..h * w {
                let off = ch * h * w + i;
                let go = grad_out.data()[off];
                gsum += go * cache.normalized.data()[off];
                bsum += go;
                grad_in.data_mut()[off] = go * g * inv_std;
            }
            gg.data_mut()[ch] = gsum;
            gb.data_mut()[ch] = bsum;
        }
        self.gamma.accumulate(&gg)?;
        self.beta.accumulate(&gb)?;
        Ok(grad_in)
    }
}

/// Rectified linear activation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Relu::default()
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            self.cached_input = Some(x.clone());
        }
        Ok(x.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or_else(|| NnError::NoForwardCache {
            layer: "Relu".into(),
        })?;
        Ok(grad_out.zip(x, |g, xi| if xi > 0.0 { g } else { 0.0 })?)
    }
}

/// Leaky rectified linear activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakyRelu {
    /// Negative-slope coefficient.
    pub alpha: f32,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates the activation with negative slope `alpha`.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu {
            alpha,
            cached_input: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            self.cached_input = Some(x.clone());
        }
        let a = self.alpha;
        Ok(x.map(|v| if v > 0.0 { v } else { a * v }))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or_else(|| NnError::NoForwardCache {
            layer: "LeakyRelu".into(),
        })?;
        let a = self.alpha;
        Ok(grad_out.zip(x, |g, xi| if xi > 0.0 { g } else { a * g })?)
    }
}

/// Max pooling with a square window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    #[serde(skip)]
    cached: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims)
}

impl MaxPool2d {
    /// Creates the pooling layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cached: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let pooled = conv::max_pool2d(x, self.kernel, self.stride)?;
        if train {
            self.cached = Some((pooled.argmax, x.dims().to_vec()));
        }
        Ok(pooled.output)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (argmax, in_dims) = self.cached.as_ref().ok_or_else(|| NnError::NoForwardCache {
            layer: "MaxPool2d".into(),
        })?;
        let mut grad_in = Tensor::zeros(in_dims);
        for (o, &src) in argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[o];
        }
        Ok(grad_in)
    }
}

/// Average pooling with a square window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvgPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    #[serde(skip)]
    cached_in_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates the pooling layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            kernel,
            stride,
            cached_in_dims: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            self.cached_in_dims = Some(x.dims().to_vec());
        }
        Ok(conv::avg_pool2d(x, self.kernel, self.stride)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let in_dims = self
            .cached_in_dims
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache {
                layer: "AvgPool2d".into(),
            })?;
        let (c, h, w) = (in_dims[0], in_dims[1], in_dims[2]);
        let od = grad_out.dims();
        let (oh, ow) = (od[1], od[2]);
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut grad_in = Tensor::zeros(in_dims);
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.data()[(ch * oh + oy) * ow + ox] * inv;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            grad_in.data_mut()
                                [(ch * h + oy * self.stride + ky) * w + ox * self.stride + kx] += g;
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }
}

/// Flattens any input into a rank-1 tensor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Flatten {
    #[serde(skip)]
    cached_in_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            self.cached_in_dims = Some(x.dims().to_vec());
        }
        Ok(x.reshape(&[x.len()])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_in_dims
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache {
                layer: "Flatten".into(),
            })?;
        Ok(grad_out.reshape(dims)?)
    }
}

/// Inverted dropout: active only in training mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    #[serde(skip)]
    rng: Option<Prng>,
    /// RNG seed, kept so serialization round-trips deterministically.
    pub seed: u64,
    #[serde(skip)]
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with its own deterministic RNG stream.
    pub fn new(p: f32, seed: u64) -> Self {
        Dropout {
            p,
            rng: Some(Prng::new(seed)),
            seed,
            cached_mask: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if !train || self.p <= 0.0 {
            return Ok(x.clone());
        }
        let rng = self.rng.get_or_insert_with(|| Prng::new(self.seed));
        let keep = 1.0 - self.p;
        let mask = Tensor::from_vec(
            (0..x.len())
                .map(|_| if rng.next_bool(keep) { 1.0 / keep } else { 0.0 })
                .collect(),
            x.dims(),
        )?;
        let y = x.mul(&mask)?;
        self.cached_mask = Some(mask);
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match &self.cached_mask {
            Some(mask) => Ok(grad_out.mul(mask)?),
            None => Ok(grad_out.clone()),
        }
    }
}

/// A sequential-network layer.
///
/// An enum rather than a trait object so networks are `Clone`,
/// `Serialize`, and cheaply introspectable by the pruning engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected layer.
    Linear(Linear),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Per-channel batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// ReLU activation.
    Relu(Relu),
    /// Leaky-ReLU activation.
    LeakyRelu(LeakyRelu),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Flatten to rank 1.
    Flatten(Flatten),
    /// Inverted dropout.
    Dropout(Dropout),
}

impl Layer {
    /// Runs the forward pass; `train` enables activation caching (and
    /// dropout masks / batch-norm statistics updates).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor operations.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        match self {
            Layer::Linear(l) => l.forward(x, train),
            Layer::Conv2d(l) => l.forward(x, train),
            Layer::BatchNorm2d(l) => l.forward(x, train),
            Layer::Relu(l) => l.forward(x, train),
            Layer::LeakyRelu(l) => l.forward(x, train),
            Layer::MaxPool2d(l) => l.forward(x, train),
            Layer::AvgPool2d(l) => l.forward(x, train),
            Layer::Flatten(l) => l.forward(x, train),
            Layer::Dropout(l) => l.forward(x, train),
        }
    }

    /// Allocation-free inference forward: computes this layer's output
    /// into `out`, reusing `cols` (im2col patches) and `gemm` (packing
    /// panels) as needed. `live` carries the packed live-row indices from
    /// an execution plan for prunable layers — pruned rows are skipped in
    /// the GEMM and zero-filled before the bias, which is numerically
    /// identical to dense execution over masked weights. Returns `true`
    /// if any buffer had to grow (an allocation event).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor operations.
    pub fn forward_infer_into(
        &self,
        x: &Tensor,
        live: Option<&[u32]>,
        cols: &mut Tensor,
        gemm: &mut linalg::GemmScratch,
        out: &mut Tensor,
    ) -> Result<bool> {
        match self {
            Layer::Linear(l) => {
                linalg::matvec_into(&l.weight.value, x, live, out)?;
                for (o, &b) in out.data_mut().iter_mut().zip(l.bias.value.data()) {
                    *o += b;
                }
                Ok(false)
            }
            Layer::Conv2d(l) => Ok(conv::conv2d_into(
                x,
                &l.weight.value,
                &l.bias.value,
                l.spec(),
                live,
                cols,
                out,
                gemm,
            )?),
            Layer::BatchNorm2d(l) => {
                let dims = x.dims();
                if dims.len() != 3 {
                    return Err(NnError::bad_architecture(format!(
                        "BatchNorm2d expects (C,H,W) input, got {dims:?}"
                    )));
                }
                let (c, h, w) = (dims[0], dims[1], dims[2]);
                let grew = out.reuse_as(dims);
                let od = out.data_mut();
                for ch in 0..c {
                    let mean = l.running_mean.data()[ch];
                    let var = l.running_var.data()[ch];
                    let inv_std = 1.0 / (var + l.eps).sqrt();
                    let g = l.gamma.value.data()[ch];
                    let b = l.beta.value.data()[ch];
                    let src = &x.data()[ch * h * w..(ch + 1) * h * w];
                    let dst = &mut od[ch * h * w..(ch + 1) * h * w];
                    for (o, &si) in dst.iter_mut().zip(src) {
                        *o = g * ((si - mean) * inv_std) + b;
                    }
                }
                Ok(grew)
            }
            Layer::Relu(_) => {
                let grew = out.reuse_as(x.dims());
                for (o, &xi) in out.data_mut().iter_mut().zip(x.data()) {
                    *o = xi.max(0.0);
                }
                Ok(grew)
            }
            Layer::LeakyRelu(l) => {
                let a = l.alpha;
                let grew = out.reuse_as(x.dims());
                for (o, &xi) in out.data_mut().iter_mut().zip(x.data()) {
                    *o = if xi > 0.0 { xi } else { a * xi };
                }
                Ok(grew)
            }
            Layer::MaxPool2d(l) => Ok(conv::max_pool2d_into(x, l.kernel, l.stride, out)?),
            Layer::AvgPool2d(l) => Ok(conv::avg_pool2d_into(x, l.kernel, l.stride, out)?),
            Layer::Flatten(_) => {
                let grew = out.reuse_as(&[x.len()]);
                out.data_mut().copy_from_slice(x.data());
                Ok(grew)
            }
            Layer::Dropout(_) => {
                // Inference-mode dropout is the identity.
                let grew = out.reuse_as(x.dims());
                out.data_mut().copy_from_slice(x.data());
                Ok(grew)
            }
        }
    }

    /// Quantized (int8) inference forward for GEMM-backed layers:
    /// weights get symmetric per-row scales, activations a per-tensor
    /// scale, the product runs through the int8 tiled kernels with i32
    /// accumulation, and the result is dequantized into `out` before
    /// the bias. Composes with the packed live-row plan exactly like
    /// the f32 path — pruned rows are exact `0.0` before the bias, and
    /// only live rows are quantized or computed. Layer kinds without a
    /// GEMM fall through to [`Layer::forward_infer_into`] (plans never
    /// mark them quantized).
    ///
    /// A Conv2d quantizes its `(C,H,W)` input once and unfolds the i8
    /// codes into the patch matrix (`cols` is not used). The scale is the
    /// max over the input elements some window reads
    /// ([`conv::im2col_quant_scale`]), so the codes equal those of
    /// quantizing the f32 patch matrix element by element — at a ninth
    /// of the quantization work for a 3×3 kernel.
    ///
    /// At an int8 rung the pruner has already rounded the live weights
    /// onto the int8 grid, so this re-quantization is a deterministic
    /// function of the stored weights (any corruption flows into the
    /// prediction, preserving mirror-twin accounting). The weight codes
    /// are cached in the scratch keyed on the weight tensor's
    /// `(storage_id, version)` stamp and the live set, so steady-state
    /// ticks skip re-quantization entirely; any weight mutation —
    /// including injected corruption — bumps the stamp and forces a
    /// bit-identical recompute.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor operations.
    pub fn forward_infer_into_q(
        &self,
        x: &Tensor,
        live: Option<&[u32]>,
        cols: &mut Tensor,
        gemm: &mut linalg::GemmScratch,
        quant: &mut QuantScratch,
        out: &mut Tensor,
    ) -> Result<bool> {
        match self {
            Layer::Linear(l) => {
                let wt = &l.weight.value;
                if wt.shape().rank() != 2 {
                    return Err(NnError::from(TensorError::RankMismatch {
                        expected: 2,
                        actual: wt.shape().rank(),
                        op: "quantized linear weight",
                    }));
                }
                let units = wt.shape().dim(0);
                let k = wt.shape().dim(1);
                if x.len() != k {
                    return Err(NnError::from(TensorError::ShapeMismatch {
                        lhs: x.dims().to_vec(),
                        rhs: vec![k],
                        op: "quantized linear input",
                    }));
                }
                quant.reserve_act(k, units);
                let QuantScratch {
                    cache, qact, iacc, ..
                } = quant;
                let (qact, iacc) = (&mut qact[..k], &mut iacc[..units]);
                let (qweight, row_scales) = cache.codes(wt, units, k, live);
                let act_scale = qgemm::quant_scale(x.data());
                qgemm::quantize_into(x.data(), act_scale, qact);
                qgemm::matvec_i8_into(qweight, qact, live, iacc);
                let grew = out.reuse_as(&[units]);
                dequantize_rows(iacc, 1, act_scale, row_scales, live, out.data_mut());
                for (o, &b) in out.data_mut().iter_mut().zip(l.bias.value.data()) {
                    *o += b;
                }
                Ok(grew)
            }
            Layer::Conv2d(l) => {
                let wt = &l.weight.value;
                let spec = l.spec();
                let dims = x.dims();
                if dims.len() != 3 {
                    return Err(NnError::from(TensorError::RankMismatch {
                        expected: 3,
                        actual: dims.len(),
                        op: "quantized conv2d input",
                    }));
                }
                let (c, h, w) = (dims[0], dims[1], dims[2]);
                let oc = wt.shape().dim(0);
                let expected_w = [oc, c, spec.kernel_h, spec.kernel_w];
                if wt.shape().rank() != 4 || wt.dims() != expected_w {
                    return Err(NnError::from(TensorError::ShapeMismatch {
                        lhs: wt.dims().to_vec(),
                        rhs: expected_w.to_vec(),
                        op: "quantized conv2d weight",
                    }));
                }
                if l.bias.value.dims() != [oc] {
                    return Err(NnError::from(TensorError::ShapeMismatch {
                        lhs: l.bias.value.dims().to_vec(),
                        rhs: vec![oc],
                        op: "quantized conv2d bias",
                    }));
                }
                let (oh, ow) = spec.output_hw(h, w)?;
                let grew = out.reuse_as(&[oc, oh, ow]);
                let n = oh * ow;
                let k = c * spec.kernel_h * spec.kernel_w;
                quant.reserve_input(x.len());
                quant.reserve_act(k * n, oc * n);
                let QuantScratch {
                    cache,
                    qin,
                    qact,
                    iacc,
                    qgemm: qscratch,
                    ..
                } = quant;
                let (qin, qact, iacc) =
                    (&mut qin[..x.len()], &mut qact[..k * n], &mut iacc[..oc * n]);
                let (qweight, row_scales) = cache.codes(wt, oc, k, live);
                // Quantize the input once, then unfold the codes: with the
                // patch matrix's scale, every patch code equals the code
                // of the input element it copies, and padding is code 0.
                let act_scale = conv::im2col_quant_scale(x.data(), [c, h, w], spec)?;
                qgemm::quantize_into(x.data(), act_scale, qin);
                conv::im2col_slice_into(qin, [c, h, w], spec, qact)?;
                qgemm::matmul_i8_slices_into(qweight, oc, k, qact, n, live, iacc, qscratch);
                dequantize_rows(iacc, n, act_scale, row_scales, live, out.data_mut());
                let od = out.data_mut();
                for (i, &b) in l.bias.value.data().iter().enumerate() {
                    for v in &mut od[i * n..(i + 1) * n] {
                        *v += b;
                    }
                }
                Ok(grew)
            }
            _ => self.forward_infer_into(x, live, cols, gemm, out),
        }
    }

    /// Runs the backward pass, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if no training-mode forward pass
    /// preceded this call.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Linear(l) => l.backward(grad_out),
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::BatchNorm2d(l) => l.backward(grad_out),
            Layer::Relu(l) => l.backward(grad_out),
            Layer::LeakyRelu(l) => l.backward(grad_out),
            Layer::MaxPool2d(l) => l.backward(grad_out),
            Layer::AvgPool2d(l) => l.backward(grad_out),
            Layer::Flatten(l) => l.backward(grad_out),
            Layer::Dropout(l) => l.backward(grad_out),
        }
    }

    /// Mutable views of every trainable parameter of this layer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Linear(l) => vec![&mut l.weight, &mut l.bias],
            Layer::Conv2d(l) => vec![&mut l.weight, &mut l.bias],
            Layer::BatchNorm2d(l) => vec![&mut l.gamma, &mut l.beta],
            _ => Vec::new(),
        }
    }

    /// Shared views of every trainable parameter of this layer.
    pub fn params(&self) -> Vec<&Param> {
        match self {
            Layer::Linear(l) => vec![&l.weight, &l.bias],
            Layer::Conv2d(l) => vec![&l.weight, &l.bias],
            Layer::BatchNorm2d(l) => vec![&l.gamma, &l.beta],
            _ => Vec::new(),
        }
    }

    /// Short human-readable kind name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Layer::Linear(_) => "Linear",
            Layer::Conv2d(_) => "Conv2d",
            Layer::BatchNorm2d(_) => "BatchNorm2d",
            Layer::Relu(_) => "Relu",
            Layer::LeakyRelu(_) => "LeakyRelu",
            Layer::MaxPool2d(_) => "MaxPool2d",
            Layer::AvgPool2d(_) => "AvgPool2d",
            Layer::Flatten(_) => "Flatten",
            Layer::Dropout(_) => "Dropout",
        }
    }
}

/// Dequantizes the i32 accumulator into f32 output rows of width `n`:
/// `out[r, j] = acc[r, j] · act_scale · row_scale[r]` for live rows,
/// exact `0.0` for dead ones (the bias is added afterwards, to every
/// row, matching the f32 path). `out` must arrive zeroed — callers pass
/// a buffer fresh from `reuse_as` — so dead rows are left untouched.
fn dequantize_rows(
    acc: &[i32],
    n: usize,
    act_scale: f32,
    row_scales: &[f32],
    live: Option<&[u32]>,
    out: &mut [f32],
) {
    fn dequant_row(acc: &[i32], out: &mut [f32], n: usize, r: usize, combined: f32) {
        for (o, &a) in out[r * n..(r + 1) * n].iter_mut().zip(&acc[r * n..(r + 1) * n]) {
            *o = a as f32 * combined;
        }
    }
    match live {
        None => {
            for (r, &scale) in row_scales.iter().enumerate() {
                dequant_row(acc, out, n, r, act_scale * scale);
            }
        }
        Some(l) => {
            for &r in l {
                let r = r as usize;
                dequant_row(acc, out, n, r, act_scale * row_scales[r]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(
        layer: &mut Layer,
        x: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        // Loss = sum(forward(x)); analytic grad_in vs central differences.
        let y = layer.forward(x, true).unwrap();
        let grad_out = Tensor::ones(y.dims());
        let grad_in = layer.backward(&grad_out).unwrap();
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = layer.forward(&xp, false).unwrap().sum();
            let fm = layer.forward(&xm, false).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grad_in.data()[i];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs()),
                "element {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn linear_forward_known() {
        let mut rng = Prng::new(1);
        let mut l = Linear::new(2, 2, &mut rng);
        l.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        l.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let y = l.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut rng = Prng::new(2);
        let mut layer = Layer::Linear(Linear::new(5, 3, &mut rng));
        let x = Tensor::rand_normal(&[5], 0.0, 1.0, &mut rng);
        finite_diff_check(&mut layer, &x, 1e-3, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_is_outer_product() {
        let mut rng = Prng::new(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        l.forward(&x, true).unwrap();
        let g = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        l.backward(&g).unwrap();
        let gw = l.weight.grad.as_ref().unwrap();
        assert_eq!(gw.data(), &[1.0, 2.0, -1.0, -2.0]);
        assert_eq!(l.bias.grad.as_ref().unwrap().data(), g.data());
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        let mut rng = Prng::new(4);
        let mut layer = Layer::Conv2d(Conv2d::new(2, 3, 3, 1, 1, &mut rng));
        let x = Tensor::rand_normal(&[2, 5, 5], 0.0, 1.0, &mut rng);
        finite_diff_check(&mut layer, &x, 1e-2, 3e-2);
    }

    #[test]
    fn batchnorm_gradient_matches_finite_difference_frozen_stats() {
        // Check the grad against inference-mode forward (frozen stats),
        // which is exactly the approximation the backward implements.
        let mut rng = Prng::new(5);
        let mut bn = BatchNorm2d::new(2);
        // Warm the running stats so train/infer paths roughly agree.
        let x = Tensor::rand_normal(&[2, 4, 4], 0.5, 2.0, &mut rng);
        for _ in 0..200 {
            bn.forward(&x, true).unwrap();
        }
        let mut layer = Layer::BatchNorm2d(bn);
        finite_diff_check(&mut layer, &x, 1e-3, 5e-2);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        assert_eq!(r.forward(&x, true).unwrap().data(), &[0.0, 2.0]);
        let g = Tensor::ones(&[2]);
        assert_eq!(r.backward(&g).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut r = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap();
        let y = r.forward(&x, true).unwrap();
        assert!(y.approx_eq(&Tensor::from_vec(vec![-0.2, 3.0], &[2]).unwrap(), 1e-6));
        let g = r.backward(&Tensor::ones(&[2])).unwrap();
        assert!(g.approx_eq(&Tensor::from_vec(vec![0.1, 1.0], &[2]).unwrap(), 1e-6));
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        p.forward(&x, true).unwrap();
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1]).unwrap();
        let gi = p.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 2, 2]);
        p.forward(&x, true).unwrap();
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1]).unwrap();
        let gi = p.backward(&g).unwrap();
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4]);
        let y = f.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[24]);
        let gi = f.backward(&Tensor::ones(&[24])).unwrap();
        assert_eq!(gi.dims(), &[2, 3, 4]);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::linspace(0.0, 1.0, 10);
        assert_eq!(d.forward(&x, false).unwrap(), x);
    }

    #[test]
    fn dropout_training_preserves_expectation() {
        let mut d = Dropout::new(0.3, 9);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true).unwrap();
        assert!((y.mean() - 1.0).abs() < 0.05, "mean = {}", y.mean());
        // Dropped entries are exact zeros.
        assert!(y.count_near_zero(0.0) > 1000);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Prng::new(1);
        let mut l = Layer::Linear(Linear::new(2, 2, &mut rng));
        let g = Tensor::ones(&[2]);
        assert!(matches!(l.backward(&g), Err(NnError::NoForwardCache { .. })));
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        p.accumulate(&Tensor::from_vec(vec![2.0], &[1]).unwrap()).unwrap();
        p.sgd_step(
            SgdStep {
                lr: 0.5,
                momentum: 0.0,
                weight_decay: 0.0,
            },
            1,
        )
        .unwrap();
        assert_eq!(p.value.data(), &[0.0]);
        // Gradient cleared afterwards.
        assert!(p.grad.is_none());
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let step = SgdStep {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let mut p = Param::new(Tensor::zeros(&[1]));
        let g = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        p.accumulate(&g).unwrap();
        p.sgd_step(step, 1).unwrap();
        let after_one = p.value.data()[0];
        p.accumulate(&g).unwrap();
        p.sgd_step(step, 1).unwrap();
        let second_delta = p.value.data()[0] - after_one;
        assert!(second_delta < after_one, "momentum should grow the step");
    }

    #[test]
    fn sgd_batch_scaling() {
        let mut p = Param::new(Tensor::zeros(&[1]));
        let g = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        p.accumulate(&g).unwrap();
        p.sgd_step(
            SgdStep {
                lr: 1.0,
                momentum: 0.0,
                weight_decay: 0.0,
            },
            4,
        )
        .unwrap();
        assert_eq!(p.value.data(), &[-1.0]);
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut p = Param::new(Tensor::from_vec(vec![10.0], &[1]).unwrap());
        p.accumulate(&Tensor::zeros(&[1])).unwrap();
        p.sgd_step(
            SgdStep {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.5,
            },
            1,
        )
        .unwrap();
        assert!(p.value.data()[0] < 10.0);
    }

    #[test]
    fn param_without_grad_is_untouched_by_step() {
        let mut p = Param::new(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        p.sgd_step(SgdStep::default(), 1).unwrap();
        assert_eq!(p.value.data(), &[3.0]);
        p.adam_step(AdamStep::default(), 1).unwrap();
        assert_eq!(p.value.data(), &[3.0]);
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, the first Adam step is ≈ lr·sign(g).
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate(&Tensor::from_vec(vec![0.5, -3.0], &[2]).unwrap()).unwrap();
        p.adam_step(AdamStep { lr: 0.1, ..Default::default() }, 1).unwrap();
        assert!((p.value.data()[0] + 0.1).abs() < 1e-3, "{:?}", p.value.data());
        assert!((p.value.data()[1] - 0.1).abs() < 1e-3, "{:?}", p.value.data());
        assert!(p.grad.is_none());
        assert_eq!(p.adam.as_ref().unwrap().t, 1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 5)²; gradient 2(x-5).
        let mut p = Param::new(Tensor::zeros(&[1]));
        for _ in 0..2000 {
            let x = p.value.data()[0];
            p.accumulate(&Tensor::from_vec(vec![2.0 * (x - 5.0)], &[1]).unwrap())
                .unwrap();
            p.adam_step(AdamStep { lr: 0.05, ..Default::default() }, 1).unwrap();
        }
        assert!((p.value.data()[0] - 5.0).abs() < 0.05, "x = {}", p.value.data()[0]);
    }

    #[test]
    fn adam_step_is_scale_invariant_in_gradient_magnitude() {
        // Adam's per-parameter normalization makes the first-step size
        // independent of gradient scale.
        let step = |g: f32| -> f32 {
            let mut p = Param::new(Tensor::zeros(&[1]));
            p.accumulate(&Tensor::from_vec(vec![g], &[1]).unwrap()).unwrap();
            p.adam_step(AdamStep { lr: 0.01, ..Default::default() }, 1).unwrap();
            p.value.data()[0]
        };
        assert!((step(0.001) - step(1000.0)).abs() < 1e-4);
    }

    #[test]
    fn layer_kind_names() {
        let mut rng = Prng::new(0);
        assert_eq!(Layer::Linear(Linear::new(1, 1, &mut rng)).kind_name(), "Linear");
        assert_eq!(Layer::Flatten(Flatten::new()).kind_name(), "Flatten");
    }
}
