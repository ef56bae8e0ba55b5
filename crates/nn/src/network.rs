use crate::exec::{ExecPlan, Scratch};
use crate::layer::{Layer, SgdStep};
use crate::loss;
use crate::{NnError, Result};
use reprune_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Identifies a layer inside a [`Network`] by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LayerId(pub usize);

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The kind of a prunable layer, as seen by the pruning engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrunableKind {
    /// Fully connected weight matrix `(out, in)`.
    Linear,
    /// Convolution kernel `(oc, ic, kh, kw)`; output channels are the
    /// structured-pruning unit.
    Conv2d,
}

/// Metadata the pruning engine needs about one prunable layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrunableLayer {
    /// Position in the network.
    pub id: LayerId,
    /// Layer kind.
    pub kind: PrunableKind,
    /// Weight tensor shape.
    pub weight_dims: Vec<usize>,
    /// Number of structured units (output rows / output channels).
    pub units: usize,
    /// Weight elements per structured unit.
    pub unit_len: usize,
}

impl PrunableLayer {
    /// Total number of weight elements.
    pub fn weight_len(&self) -> usize {
        self.units * self.unit_len
    }
}

/// A sequential neural network.
///
/// The network is the object the whole stack shares: the trainer mutates
/// its parameters, the pruning engine rewrites its weights in place, and
/// the runtime queries its predictions. See the crate-level example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
    name: String,
}

impl Network {
    /// Builds a network from a layer sequence.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Network {
            layers,
            name: name.into(),
        }
    }

    /// The model's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Shared access to a layer.
    pub fn layer(&self, id: LayerId) -> Option<&Layer> {
        self.layers.get(id.0)
    }

    /// Mutable access to a layer.
    pub fn layer_mut(&mut self, id: LayerId) -> Option<&mut Layer> {
        self.layers.get_mut(id.0)
    }

    /// Iterates over the layers in order.
    pub fn layers(&self) -> impl Iterator<Item = &Layer> {
        self.layers.iter()
    }

    /// Total number of trainable scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.value.len())
            .sum()
    }

    /// Runs inference (no activation caching, dropout disabled).
    ///
    /// # Errors
    ///
    /// Propagates shape errors when the input does not fit the architecture.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, false)?;
        }
        Ok(cur)
    }

    /// Allocation-free, sparsity-aware inference through the scratch
    /// arena: every activation, im2col patch matrix, and GEMM packing
    /// buffer lives in `scratch` and is reused across calls, so a
    /// steady-state loop performs zero heap allocations after warmup.
    /// With a `plan`, prunable layers iterate only their live rows —
    /// numerically identical to dense execution over masked weights, but
    /// with latency that scales with density.
    ///
    /// The result is left in (and borrowed from) the arena.
    ///
    /// # Errors
    ///
    /// Propagates shape errors when the input does not fit the architecture.
    pub fn forward_with<'s>(
        &self,
        x: &Tensor,
        plan: Option<&ExecPlan>,
        scratch: &'s mut Scratch,
    ) -> Result<&'s Tensor> {
        scratch.tensor_allocs += scratch.ping.copy_from(x) as usize;
        let Scratch {
            ping,
            pong,
            cols,
            gemm,
            quant,
            tensor_allocs,
        } = scratch;
        for (i, layer) in self.layers.iter().enumerate() {
            let live = plan.and_then(|p| p.live_rows(LayerId(i)));
            let grew = if plan.is_some_and(|p| p.is_quantized(LayerId(i))) {
                layer.forward_infer_into_q(ping, live, cols, gemm, quant, pong)?
            } else {
                layer.forward_infer_into(ping, live, cols, gemm, pong)?
            };
            *tensor_allocs += grew as usize;
            std::mem::swap(ping, pong);
        }
        Ok(&scratch.ping)
    }

    /// [`Network::predict`] through the scratch arena: allocation-free in
    /// steady state and sparsity-aware when given a `plan`. The softmax is
    /// computed in place on the arena's output buffer with exactly the
    /// same operations as [`loss::softmax`], so predictions are bitwise
    /// identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; errors on empty outputs.
    pub fn predict_with(
        &self,
        x: &Tensor,
        plan: Option<&ExecPlan>,
        scratch: &mut Scratch,
    ) -> Result<(usize, f32)> {
        self.forward_with(x, plan, scratch)?;
        let logits = &mut scratch.ping;
        let m = logits.max()?;
        logits.map_inplace(|v| (v - m).exp());
        let z = logits.sum();
        logits.map_inplace(|v| v / z);
        let idx = logits.argmax()?;
        Ok((idx, logits.data()[idx]))
    }

    /// Runs a training-mode forward pass (caches activations).
    ///
    /// # Errors
    ///
    /// Propagates shape errors when the input does not fit the architecture.
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, true)?;
        }
        Ok(cur)
    }

    /// Backpropagates a gradient with respect to the network output,
    /// accumulating parameter gradients in every layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] unless [`Network::forward_train`]
    /// ran first.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Applies one SGD update to every parameter and clears accumulators.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur with well-formed layers).
    pub fn sgd_step(&mut self, step: SgdStep, batch: usize) -> Result<()> {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.sgd_step(step, batch)?;
            }
        }
        Ok(())
    }

    /// Applies one Adam update to every parameter and clears accumulators.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur with well-formed layers).
    pub fn adam_step(&mut self, step: crate::layer::AdamStep, batch: usize) -> Result<()> {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.adam_step(step, batch)?;
            }
        }
        Ok(())
    }

    /// Class probabilities for one input (softmax over the logits).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the forward pass.
    pub fn predict_proba(&mut self, x: &Tensor) -> Result<Tensor> {
        let logits = self.forward(x)?;
        Ok(loss::softmax(&logits))
    }

    /// Predicted class index and its softmax confidence.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; errors on empty outputs.
    pub fn predict(&mut self, x: &Tensor) -> Result<(usize, f32)> {
        let probs = self.predict_proba(x)?;
        let idx = probs.argmax()?;
        Ok((idx, probs.data()[idx]))
    }

    /// Lists the prunable (weight-bearing) layers with their metadata.
    pub fn prunable_layers(&self) -> Vec<PrunableLayer> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, layer)| match layer {
                Layer::Linear(l) => {
                    let dims = l.weight.value.dims().to_vec();
                    Some(PrunableLayer {
                        id: LayerId(i),
                        kind: PrunableKind::Linear,
                        units: dims[0],
                        unit_len: dims[1],
                        weight_dims: dims,
                    })
                }
                Layer::Conv2d(l) => {
                    let dims = l.weight.value.dims().to_vec();
                    Some(PrunableLayer {
                        id: LayerId(i),
                        kind: PrunableKind::Conv2d,
                        units: dims[0],
                        unit_len: dims[1] * dims[2] * dims[3],
                        weight_dims: dims,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// Shared view of a prunable layer's weight tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] if `id` is not a prunable layer.
    pub fn weight(&self, id: LayerId) -> Result<&Tensor> {
        match self.layers.get(id.0) {
            Some(Layer::Linear(l)) => Ok(&l.weight.value),
            Some(Layer::Conv2d(l)) => Ok(&l.weight.value),
            _ => Err(NnError::UnknownLayer { index: id.0 }),
        }
    }

    /// Mutable view of a prunable layer's weight tensor (the pruning
    /// engine's write path).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] if `id` is not a prunable layer.
    pub fn weight_mut(&mut self, id: LayerId) -> Result<&mut Tensor> {
        match self.layers.get_mut(id.0) {
            Some(Layer::Linear(l)) => Ok(&mut l.weight.value),
            Some(Layer::Conv2d(l)) => Ok(&mut l.weight.value),
            _ => Err(NnError::UnknownLayer { index: id.0 }),
        }
    }

    /// One `(storage_id, bytes)` entry per parameter tensor.
    ///
    /// Cloned networks share tensor storage copy-on-write, so a fleet of
    /// members built from one trained model reports the same storage ids
    /// until a member mutates a layer. Memory accounting dedupes by the
    /// id to measure the *unique* bytes a fleet actually holds.
    pub fn param_storage(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .flat_map(|layer| layer.params())
            .map(|p| {
                (
                    p.value.storage_id(),
                    p.value.len() * std::mem::size_of::<f32>(),
                )
            })
            .collect()
    }

    /// Detaches every parameter tensor onto a private storage copy,
    /// ending any copy-on-write sharing with clones of this network.
    ///
    /// The benchmark's "copied fleet" baseline uses this to model the
    /// pre-shared-storage memory footprint (N full weight copies).
    pub fn unshare_params(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.value.unshare();
            }
        }
    }

    /// Fraction of weight elements that are exactly zero, across all
    /// prunable layers (the realized unstructured sparsity).
    pub fn sparsity(&self) -> f64 {
        let mut zeros = 0usize;
        let mut total = 0usize;
        for meta in self.prunable_layers() {
            if let Ok(w) = self.weight(meta.id) {
                zeros += w.count_near_zero(0.0);
                total += w.len();
            }
        }
        if total == 0 {
            0.0
        } else {
            zeros as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use reprune_tensor::rng::Prng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = Prng::new(seed);
        Network::new(
            "tiny",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::MaxPool2d(MaxPool2d::new(2, 2)),
                Layer::Flatten(Flatten::new()),
                Layer::Linear(Linear::new(2 * 4 * 4, 3, &mut rng)),
            ],
        )
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net(1);
        let x = Tensor::ones(&[1, 8, 8]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[3]);
    }

    #[test]
    fn predict_returns_valid_class_and_confidence() {
        let mut net = tiny_net(2);
        let x = Tensor::ones(&[1, 8, 8]);
        let (class, conf) = net.predict(&x).unwrap();
        assert!(class < 3);
        assert!((0.0..=1.0).contains(&conf));
        let probs = net.predict_proba(&x).unwrap();
        assert!((probs.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn prunable_layers_metadata() {
        let net = tiny_net(3);
        let metas = net.prunable_layers();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].kind, PrunableKind::Conv2d);
        assert_eq!(metas[0].units, 2);
        assert_eq!(metas[0].unit_len, 9);
        assert_eq!(metas[1].kind, PrunableKind::Linear);
        assert_eq!(metas[1].units, 3);
        assert_eq!(metas[1].unit_len, 32);
        assert_eq!(metas[1].weight_len(), 96);
    }

    #[test]
    fn weight_accessors() {
        let mut net = tiny_net(4);
        let metas = net.prunable_layers();
        let id = metas[0].id;
        let before = net.weight(id).unwrap().clone();
        net.weight_mut(id).unwrap().map_inplace(|_| 0.0);
        assert_ne!(&before, net.weight(id).unwrap());
        assert!(net.weight(LayerId(1)).is_err(), "Relu is not prunable");
    }

    #[test]
    fn sparsity_counts_zeros() {
        let mut net = tiny_net(5);
        assert!(net.sparsity() < 0.05);
        let id = net.prunable_layers()[1].id;
        net.weight_mut(id).unwrap().map_inplace(|_| 0.0);
        let total: usize = net.prunable_layers().iter().map(|m| m.weight_len()).sum();
        let expected = 96.0 / total as f64;
        assert!((net.sparsity() - expected).abs() < 1e-9);
    }

    #[test]
    fn training_step_reduces_loss_on_single_example() {
        let mut net = tiny_net(6);
        let x = Tensor::rand_normal(&[1, 8, 8], 0.0, 1.0, &mut Prng::new(7));
        let target = 1usize;
        let mut last = f32::INFINITY;
        for _ in 0..20 {
            net.zero_grad();
            let logits = net.forward_train(&x).unwrap();
            let (l, grad) = loss::softmax_cross_entropy(&logits, target).unwrap();
            net.backward(&grad).unwrap();
            net.sgd_step(SgdStep { lr: 0.05, momentum: 0.0, weight_decay: 0.0 }, 1)
                .unwrap();
            last = l;
        }
        assert!(last < 0.1, "loss after 20 steps = {last}");
    }

    #[test]
    fn num_parameters_counts_all() {
        let net = tiny_net(8);
        // Conv: 2*1*3*3 + 2 = 20; Linear: 3*32 + 3 = 99.
        assert_eq!(net.num_parameters(), 119);
    }

    #[test]
    fn layer_id_display() {
        assert_eq!(LayerId(4).to_string(), "L4");
    }
}
