//! Sparsity-aware execution plans and the scratch-arena inference path.
//!
//! [`ExecPlan`] is the packed row-index form of a structured pruning mask:
//! for each prunable layer it lists the *live* output rows/channels, so
//! pruned-level GEMMs iterate only the surviving work and latency tracks
//! density (the Fig. 2 shape from the paper). [`Scratch`] owns every buffer
//! the inference forward pass needs — ping-pong activations, the im2col
//! patch matrix, and the GEMM packing panels — so a steady-state
//! `forward_with` loop performs zero heap allocations after warmup.

use crate::LayerId;
use reprune_tensor::linalg::GemmScratch;
use reprune_tensor::qgemm::{self, QGemmScratch};
use reprune_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Numeric mode a plan executes its GEMM-backed layers in.
///
/// `F32` is the reference path; `Int8` runs the plan's quantized layers
/// through the int8 tiled kernels with per-row symmetric scales
/// (weights at an int8 rung are already rounded onto the int8 grid by
/// the pruner, so execution-time re-quantization is deterministic and
/// lossless w.r.t. the stored weights). The default is `F32`, so every
/// pre-precision plan — including deserialized ones — behaves exactly
/// as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrecisionMode {
    /// Full-precision f32 execution (the reference path).
    #[default]
    F32,
    /// Int8 execution with i32 accumulation on quantized layers.
    Int8,
}

impl PrecisionMode {
    /// Whether this is the full-precision default.
    pub fn is_f32(&self) -> bool {
        matches!(self, PrecisionMode::F32)
    }
}

/// Packed live-row lists per layer, derived from a structured pruning mask.
///
/// Layers without an entry execute densely. Row indices are strictly
/// increasing `u32`s into `0..units` of that layer; `reprune-prune`
/// produces plans from [`MaskSet`]s (a unit is dead only when *every*
/// weight element of the unit is pruned, so partially pruned units stay
/// live and correctness never depends on mask structure).
///
/// [`MaskSet`]: https://docs.rs/reprune-prune
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    live: BTreeMap<LayerId, Vec<u32>>,
    #[serde(default, skip_serializing_if = "PrecisionMode::is_f32")]
    precision: PrecisionMode,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    quant_layers: Vec<LayerId>,
}

impl ExecPlan {
    /// Creates an empty (fully dense) plan.
    pub fn new() -> Self {
        ExecPlan::default()
    }

    /// Registers the live rows for one layer, replacing any previous entry.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not strictly increasing.
    pub fn set_live_rows(&mut self, layer: LayerId, rows: Vec<u32>) {
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "live rows for {layer} must be strictly increasing"
        );
        self.live.insert(layer, rows);
    }

    /// The live rows for a layer, if it has a sparse entry.
    pub fn live_rows(&self, layer: LayerId) -> Option<&[u32]> {
        self.live.get(&layer).map(Vec::as_slice)
    }

    /// Number of layers with a sparse entry.
    pub fn num_sparse_layers(&self) -> usize {
        self.live.len()
    }

    /// Whether the plan is fully dense.
    pub fn is_dense(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterates over `(layer, live rows)` entries in layer order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &[u32])> {
        self.live.iter().map(|(id, rows)| (*id, rows.as_slice()))
    }

    /// The numeric mode this plan executes in. `F32` unless
    /// [`ExecPlan::set_precision`] installed int8 layers.
    pub fn precision(&self) -> PrecisionMode {
        self.precision
    }

    /// The sorted layers that execute int8 under this plan (empty for
    /// f32 plans).
    pub fn quant_layers(&self) -> &[LayerId] {
        &self.quant_layers
    }

    /// Installs the precision mode and, for [`PrecisionMode::Int8`],
    /// the set of GEMM-backed layers that run quantized. Setting `F32`
    /// clears the layer set, restoring the exact pre-precision plan.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is not strictly increasing, or if `Int8` is
    /// requested with an empty layer set (a no-op rung must be `F32` so
    /// plan equality and signatures stay canonical).
    pub fn set_precision(&mut self, mode: PrecisionMode, mut layers: Vec<LayerId>) {
        match mode {
            PrecisionMode::F32 => layers.clear(),
            PrecisionMode::Int8 => {
                assert!(
                    !layers.is_empty(),
                    "an Int8 plan must quantize at least one layer"
                );
                assert!(
                    layers.windows(2).all(|w| w[0].0 < w[1].0),
                    "quantized layers must be strictly increasing"
                );
            }
        }
        self.precision = mode;
        self.quant_layers = layers;
    }

    /// Whether `layer` executes int8 under this plan.
    pub fn is_quantized(&self, layer: LayerId) -> bool {
        self.precision == PrecisionMode::Int8 && self.quant_layers.binary_search(&layer).is_ok()
    }
}

/// One cached quantized weight matrix: int8 codes plus per-row scales,
/// tagged with the exact inputs that produced them.
#[derive(Debug, Default)]
struct QWeightEntry {
    /// [`Tensor::version`] of the source weights when the codes were
    /// produced. The global counter starts at 1, so the default `0`
    /// can never spuriously match a real tensor.
    version: u64,
    /// The live-row set the codes were produced under (`dense` when the
    /// plan had no entry). Compared by content on every lookup: plans
    /// zero dead rows, so two plans over identical weights are *not*
    /// interchangeable.
    live: Vec<u32>,
    dense: bool,
    qweight: Vec<i8>,
    row_scales: Vec<f32>,
    events: usize,
}

impl QWeightEntry {
    fn matches(&self, version: u64, rows: usize, k: usize, live: Option<&[u32]>) -> bool {
        self.version == version
            && self.qweight.len() == rows * k
            && self.row_scales.len() == rows
            && match live {
                None => self.dense,
                Some(l) => !self.dense && self.live == l,
            }
    }
}

/// Cache of quantized weight codes, keyed by the weight tensor's
/// storage identity.
///
/// A hit requires the source tensor's `(storage_id, version)` stamp and
/// the live-row set to match the cached entry exactly. Every mutation
/// path through `Tensor` — pruning walks, precision rounding, SGD,
/// *injected corruption* — mints a fresh version, so stale codes are
/// impossible and corrupted weights still flow into predictions (the
/// mirror-twin accounting the fault layer depends on). Re-quantizing
/// on miss is exactly the computation the uncached path performed every
/// tick, so cached and uncached execution are bit-identical.
#[derive(Debug, Default)]
pub(crate) struct QWeightCache {
    entries: BTreeMap<usize, QWeightEntry>,
    map_events: usize,
}

impl QWeightCache {
    /// Returns the int8 codes and per-row scales for `wt` viewed as a
    /// `(rows, k)` matrix under `live`, re-quantizing only on miss.
    pub(crate) fn codes(
        &mut self,
        wt: &Tensor,
        rows: usize,
        k: usize,
        live: Option<&[u32]>,
    ) -> (&[i8], &[f32]) {
        let key = wt.storage_id();
        if !self.entries.contains_key(&key) {
            self.map_events += 1;
            self.entries.insert(key, QWeightEntry::default());
        }
        let entry = self.entries.get_mut(&key).expect("entry just ensured");
        if !entry.matches(wt.version(), rows, k, live) {
            if rows * k > entry.qweight.capacity()
                || rows > entry.row_scales.capacity()
                || live.is_some_and(|l| l.len() > entry.live.capacity())
            {
                entry.events += 1;
            }
            entry.qweight.clear();
            entry.qweight.resize(rows * k, 0);
            entry.row_scales.clear();
            entry.row_scales.resize(rows, 0.0);
            entry.live.clear();
            entry.dense = live.is_none();
            if let Some(l) = live {
                entry.live.extend_from_slice(l);
            }
            quantize_live_rows(
                wt.data(),
                rows,
                k,
                live,
                &mut entry.qweight,
                &mut entry.row_scales,
            );
            entry.version = wt.version();
        }
        (&entry.qweight, &entry.row_scales)
    }

    fn allocation_events(&self) -> usize {
        self.map_events + self.entries.values().map(|e| e.events).sum::<usize>()
    }
}

/// Quantizes the live rows of a `(rows, k)` weight view into `qweight`
/// with per-row symmetric scales. Dead rows keep zero codes and zero
/// scales — the int8 GEMM never reads them and their dequant product is
/// an exact `0.0`.
pub(crate) fn quantize_live_rows(
    w: &[f32],
    rows: usize,
    k: usize,
    live: Option<&[u32]>,
    qweight: &mut [i8],
    row_scales: &mut [f32],
) {
    let mut quantize_one = |r: usize| {
        row_scales[r] =
            qgemm::quantize_row_i8(&w[r * k..(r + 1) * k], &mut qweight[r * k..(r + 1) * k]);
    };
    match live {
        None => {
            for r in 0..rows {
                quantize_one(r);
            }
        }
        Some(l) => {
            for &r in l {
                quantize_one(r as usize);
            }
        }
    }
}

/// Reusable int8 buffers for the quantized inference path.
///
/// Holds the quantized-weight code cache (see [`QWeightCache`]), the
/// codes of a conv layer's input (quantized once per layer, then
/// unfolded), the quantized activations the GEMM reads (a Linear
/// layer's input codes or a conv layer's unfolded patch codes), and the
/// i32 accumulator the int8 GEMM writes into, plus the int8 packing
/// panels. Same growth discipline as every other arena buffer: grow to
/// fit on first use, count the event, then reuse — a steady-state
/// quantized loop allocates nothing and, with stable weights,
/// re-quantizes nothing. The buffers are not re-zeroed per call: each
/// consumer writes every element it then reads, so callers slice them
/// to the current layer's length.
#[derive(Debug, Default)]
pub struct QuantScratch {
    pub(crate) cache: QWeightCache,
    pub(crate) qin: Vec<i8>,
    pub(crate) qact: Vec<i8>,
    pub(crate) iacc: Vec<i32>,
    pub(crate) qgemm: QGemmScratch,
    pub(crate) events: usize,
}

/// Grows `buf` to at least `len` elements without re-zeroing what it
/// holds, returning whether its capacity had to grow. The capacity grows
/// exactly as a `clear` + `resize` to `len` would make it grow.
fn grow_len<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> bool {
    let grew = len > buf.capacity();
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    grew
}

impl QuantScratch {
    /// Grows the activation and accumulator buffers to at least the given
    /// lengths, counting one allocation event when a capacity is
    /// exceeded.
    pub(crate) fn reserve_act(&mut self, act_len: usize, acc_len: usize) {
        let grew = grow_len(&mut self.qact, act_len) | grow_len(&mut self.iacc, acc_len);
        self.events += grew as usize;
    }

    /// Grows the conv input-code buffer to at least `len`, counting an
    /// allocation event when its capacity is exceeded.
    pub(crate) fn reserve_input(&mut self, len: usize) {
        self.events += grow_len(&mut self.qin, len) as usize;
    }

    /// Total buffer-growth events so far (including the int8 packing
    /// panels and the weight-code cache).
    pub fn allocation_events(&self) -> usize {
        self.events + self.qgemm.allocation_events() + self.cache.allocation_events()
    }
}

/// Reusable buffers for the allocation-free inference path.
///
/// Thread one `Scratch` per inference loop (it is cheap to create but the
/// point is to keep it alive across ticks). [`Scratch::allocation_events`]
/// counts every buffer growth; on a fixed workload it stops increasing
/// after the first pass — the no-alloc-after-warmup tests key off this.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) ping: Tensor,
    pub(crate) pong: Tensor,
    pub(crate) cols: Tensor,
    pub(crate) gemm: GemmScratch,
    pub(crate) quant: QuantScratch,
    pub(crate) tensor_allocs: usize,
}

impl Scratch {
    /// Creates an empty arena; buffers grow to fit on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Total buffer-growth (heap allocation) events so far, across
    /// activation ping-pong, im2col, GEMM packing, and quantization
    /// buffers.
    pub fn allocation_events(&self) -> usize {
        self.tensor_allocs + self.gemm.allocation_events() + self.quant.allocation_events()
    }

    /// The output of the most recent `forward_with` call.
    pub fn output(&self) -> &Tensor {
        &self.ping
    }
}
