//! The reversible pruner and its reversal log — the "back to the future"
//! mechanism.
//!
//! [`ReversiblePruner`] attaches to a live [`Network`] with a
//! [`SparsityLadder`] and then moves the network between ladder levels
//! in place:
//!
//! * **up** (more sparsity): the weights about to be evicted are copied
//!   into a [`LevelDelta`] (index + value pairs) pushed onto the log, then
//!   zeroed in the live tensor;
//! * **down** (less sparsity): deltas are popped off the log and written
//!   back, restoring exactly the evicted values;
//! * **precision rungs**: entering an int8 ladder level captures the
//!   full-precision originals of every live quantized weight in a
//!   [`DeltaKind::Precision`] segment before rounding those weights
//!   through the int8 grid in place, so a risk spike restores capacity
//!   *and* precision through the very same pop path.
//!
//! Both directions cost O(#weights that change level), not O(model size),
//! and need no storage I/O or retraining. A checksum captured at attach
//! time lets callers prove a full restore is bit-exact.
//!
//! # The restore fast path
//!
//! Because a restore is the runtime's *emergency* transition (a safety
//! context switch back to full capacity), the data path is built to be
//! near-tick-cost:
//!
//! * each segment is one contiguous **arena** — a single index vector, a
//!   single value vector, and a per-layer span table — so capture and
//!   apply are linear scans with no per-layer allocation;
//! * segment buffers are **pooled**: a popped segment's buffers are
//!   reused by the next push, so steady-state prune/restore cycles
//!   allocate nothing after one full warm-up cycle
//!   ([`ReversiblePruner::allocation_events`] proves it);
//! * the per-level index sets are **precomputed at attach time** from the
//!   nested masks, so a push never re-derives set differences;
//! * seals and verification use the word-wide blocked hash of
//!   [`crate::checksum`].

use crate::checksum::{fnv1a_u32, BlockedHasher, FNV_OFFSET};
use crate::f16::{f16_bits_to_f32, f32_to_f16_bits, round_through_f16};
use crate::ladder::SparsityLadder;
use crate::{PruneError, Result};
use reprune_nn::dataset::Example;
use reprune_nn::train;
use reprune_nn::{LayerId, Network, PrecisionMode};
use reprune_tensor::qgemm;
use reprune_tensor::rng::Prng;
use serde::{Deserialize, Serialize};

/// Numeric precision of the reversal log's stored values.
///
/// [`LogPrecision::Half`] halves the value storage (6 B/entry instead of
/// 8 B) by keeping evicted weights as IEEE binary16. To keep restoration
/// *exact*, [`ReversiblePruner::attach_half`] quantizes every
/// log-coverable weight through f16 once at attach time — a one-time,
/// measurable accuracy cost — after which every prune/restore cycle is
/// bit-exact against that quantized baseline. This is the paper-extension
/// feature ablated by `tab4_log_precision`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogPrecision {
    /// Full `f32` values: restoration is bit-exact against the original
    /// weights.
    Exact,
    /// Binary16 values: restoration is bit-exact against the f16-rounded
    /// baseline established at attach time.
    Half,
}

impl LogPrecision {
    /// Bytes per stored value.
    pub fn value_bytes(self) -> usize {
        match self {
            LogPrecision::Exact => 4,
            LogPrecision::Half => 2,
        }
    }

    /// Bytes per log entry (u32 index + value).
    pub fn entry_bytes(self) -> usize {
        std::mem::size_of::<u32>() + self.value_bytes()
    }
}

/// Stored values of one delta, in the log's configured precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeltaValues {
    /// Full-precision values.
    Exact(Vec<f32>),
    /// Binary16-encoded values.
    Half(Vec<u16>),
}

impl DeltaValues {
    fn with_capacity(precision: LogPrecision, n: usize) -> Self {
        match precision {
            LogPrecision::Exact => DeltaValues::Exact(Vec::with_capacity(n)),
            LogPrecision::Half => DeltaValues::Half(Vec::with_capacity(n)),
        }
    }

    fn push(&mut self, v: f32) {
        match self {
            DeltaValues::Exact(vs) => vs.push(v),
            DeltaValues::Half(vs) => vs.push(f32_to_f16_bits(v)),
        }
    }

    fn clear(&mut self) {
        match self {
            DeltaValues::Exact(vs) => vs.clear(),
            DeltaValues::Half(vs) => vs.clear(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            DeltaValues::Exact(vs) => vs.capacity(),
            DeltaValues::Half(vs) => vs.capacity(),
        }
    }

    /// Decoded value at position `i`.
    pub fn get(&self, i: usize) -> f32 {
        match self {
            DeltaValues::Exact(vs) => vs[i],
            DeltaValues::Half(vs) => f16_bits_to_f32(vs[i]),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            DeltaValues::Exact(vs) => vs.len(),
            DeltaValues::Half(vs) => vs.len(),
        }
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage bytes of the values.
    pub fn bytes(&self) -> usize {
        match self {
            DeltaValues::Exact(vs) => vs.len() * 4,
            DeltaValues::Half(vs) => vs.len() * 2,
        }
    }
}

/// Evicted weights of one layer for one ladder transition.
///
/// This is the construction/view form; [`LevelDelta::new`] packs a set
/// of these into the contiguous arena the log actually stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerDelta {
    /// The layer the entries belong to.
    pub layer: LayerId,
    /// Flat weight indices that were zeroed.
    pub indices: Vec<u32>,
    /// The original values, parallel to `indices`.
    pub values: DeltaValues,
}

impl LayerDelta {
    /// Bytes this delta occupies (4 bytes index + value bytes per entry).
    pub fn bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<u32>() + self.values.bytes()
    }

    /// Number of weight entries recorded.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// One layer's contiguous range inside a segment arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LayerSpan {
    layer: LayerId,
    start: usize,
    end: usize,
}

/// Borrowed view of an arena value range, in the log's precision.
enum ValueSlice<'a> {
    Exact(&'a [f32]),
    Half(&'a [u16]),
}

/// Scatters one span's evicted values back into a layer's weight slice.
fn apply_span(indices: &[u32], values: ValueSlice<'_>, data: &mut [f32]) {
    match values {
        ValueSlice::Exact(vs) => {
            for (&i, &v) in indices.iter().zip(vs) {
                data[i as usize] = v;
            }
        }
        ValueSlice::Half(vs) => {
            for (&i, &v) in indices.iter().zip(vs) {
                data[i as usize] = f16_bits_to_f32(v);
            }
        }
    }
}

/// What a reversal-log segment restores.
///
/// [`DeltaKind::Evict`] segments hold weights zeroed by a sparsity step
/// — the original reversal-log mechanism. [`DeltaKind::Precision`]
/// segments hold the full-precision originals of weights rounded through
/// the int8 grid on entry to a quantized ladder rung; popping one
/// restores precision without changing the sparsity level. At most one
/// precision segment exists at a time, it always sits on top of the log,
/// and it belongs to the level the pruner currently occupies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeltaKind {
    /// Weights evicted (zeroed) by a sparsity transition.
    #[default]
    Evict,
    /// Full-precision originals captured when entering an int8 rung.
    Precision,
    /// Parent-level originals of the weights a level's attach-time
    /// fine-tune retuned. Popping one rolls the live weights back from
    /// the level's tuned optimum to its parent level's values — the
    /// fine-tune analogue of a precision pop: bounded, in-place, no
    /// retraining on the critical path. A fine-tune segment belongs to
    /// the level that pushed it and sits directly above that level's
    /// eviction segment.
    FineTune,
}

/// Extra word mixed into a [`DeltaKind::Precision`] segment's checksum,
/// separating its hash domain from eviction segments with identical
/// contents. Eviction hashing is untouched, so every pre-precision log
/// keeps verifying bit-for-bit.
const PRECISION_CHECKSUM_DOMAIN: u32 = 0x5052_4543; // "PREC"

/// Domain word for [`DeltaKind::FineTune`] segment checksums, keeping
/// their hash domain separate from eviction and precision segments with
/// identical contents.
const FINE_TUNE_CHECKSUM_DOMAIN: u32 = 0x5455_4E45; // "TUNE"

/// Seal-algorithm word of every spill payload; 1 names the blocked
/// hash. It is the only value written, and the decoder rejects any
/// other value.
const SEAL_VERSION: u32 = 1;

/// All weights evicted when stepping from ladder level `k` to `k+1`, or
/// the full-precision originals captured when entering an int8 rung
/// (see [`DeltaKind`]).
///
/// Stored as a single arena: one index vector and one value vector for
/// the whole segment, with a span table mapping contiguous ranges to
/// layers. Capture and apply are then linear passes over two buffers,
/// and the buffers themselves are pooled and reused across cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelDelta {
    /// The level this delta raised the network *to* (for precision
    /// segments: the level whose rung captured it).
    pub to_level: usize,
    /// What this segment restores. Defaults to [`DeltaKind::Evict`] so
    /// logs serialized before the precision axis decode unchanged.
    #[serde(default)]
    pub kind: DeltaKind,
    spans: Vec<LayerSpan>,
    indices: Vec<u32>,
    values: DeltaValues,
    /// Checksum over the segment's contents, captured when the segment
    /// was sealed. Lets a scrub pass or a restore detect that stored
    /// deltas were corrupted in place.
    pub checksum: u64,
}

impl LevelDelta {
    /// Builds a segment from per-layer deltas and seals it.
    pub fn new(to_level: usize, layers: Vec<LayerDelta>) -> Self {
        let precision = layers
            .iter()
            .map(|l| match l.values {
                DeltaValues::Exact(_) => LogPrecision::Exact,
                DeltaValues::Half(_) => LogPrecision::Half,
            })
            .next()
            .unwrap_or(LogPrecision::Exact);
        let total = layers.iter().map(LayerDelta::len).sum();
        let mut d = LevelDelta {
            to_level,
            kind: DeltaKind::Evict,
            spans: Vec::with_capacity(layers.len()),
            indices: Vec::with_capacity(total),
            values: DeltaValues::with_capacity(precision, total),
            checksum: 0,
        };
        for l in &layers {
            let start = d.indices.len();
            d.indices.extend_from_slice(&l.indices);
            match (&mut d.values, &l.values) {
                (DeltaValues::Exact(dst), DeltaValues::Exact(src)) => dst.extend_from_slice(src),
                (DeltaValues::Half(dst), DeltaValues::Half(src)) => dst.extend_from_slice(src),
                // Mixed-precision input: decode through f32.
                (dst, src) => {
                    for i in 0..src.len() {
                        dst.push(src.get(i));
                    }
                }
            }
            d.spans.push(LayerSpan {
                layer: l.layer,
                start,
                end: d.indices.len(),
            });
        }
        d.seal();
        d
    }

    /// An empty, unsealed segment with no capacity yet.
    fn with_precision(precision: LogPrecision) -> Self {
        LevelDelta {
            to_level: 0,
            kind: DeltaKind::Evict,
            spans: Vec::new(),
            indices: Vec::new(),
            values: DeltaValues::with_capacity(precision, 0),
            checksum: 0,
        }
    }

    /// Clears contents for refilling, keeping buffer capacity.
    fn reset(&mut self, to_level: usize) {
        self.to_level = to_level;
        self.kind = DeltaKind::Evict;
        self.spans.clear();
        self.indices.clear();
        self.values.clear();
        self.checksum = 0;
    }

    /// Copies `src`'s contents into self, reusing existing capacity.
    fn copy_from(&mut self, src: &LevelDelta) {
        self.to_level = src.to_level;
        self.kind = src.kind;
        self.spans.clear();
        self.spans.extend_from_slice(&src.spans);
        self.indices.clear();
        self.indices.extend_from_slice(&src.indices);
        match (&mut self.values, &src.values) {
            (DeltaValues::Exact(dst), DeltaValues::Exact(s)) => {
                dst.clear();
                dst.extend_from_slice(s);
            }
            (DeltaValues::Half(dst), DeltaValues::Half(s)) => {
                dst.clear();
                dst.extend_from_slice(s);
            }
            (dst, s) => *dst = s.clone(),
        }
        self.checksum = src.checksum;
    }

    /// Buffer capacities, used to detect (re)allocation in the pools.
    fn capacity_sig(&self) -> (usize, usize, usize) {
        (
            self.spans.capacity(),
            self.indices.capacity(),
            self.values.capacity(),
        )
    }

    fn value_slice(&self, start: usize, end: usize) -> ValueSlice<'_> {
        match &self.values {
            DeltaValues::Exact(vs) => ValueSlice::Exact(&vs[start..end]),
            DeltaValues::Half(vs) => ValueSlice::Half(&vs[start..end]),
        }
    }

    /// Total bytes of this delta.
    pub fn bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<u32>() + self.values.bytes()
    }

    /// Total weight entries recorded.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the delta records no entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Seals the segment with the checksum of its current contents.
    fn seal(&mut self) {
        self.checksum = self.computed_checksum();
    }

    /// Blocked-hash checksum of the segment's *current* contents, with
    /// the segment kind's domain word mixed in after `to_level`.
    pub fn computed_checksum(&self) -> u64 {
        let mut h = BlockedHasher::new();
        h.write_u32(self.to_level as u32);
        match self.kind {
            DeltaKind::Evict => {}
            DeltaKind::Precision => h.write_u32(PRECISION_CHECKSUM_DOMAIN),
            DeltaKind::FineTune => h.write_u32(FINE_TUNE_CHECKSUM_DOMAIN),
        }
        for span in &self.spans {
            h.write_u32(span.layer.0 as u32);
            h.write_u32_slice(&self.indices[span.start..span.end]);
            match self.value_slice(span.start, span.end) {
                ValueSlice::Exact(vs) => h.write_f32_slice(vs),
                ValueSlice::Half(vs) => h.write_u16_slice(vs),
            }
        }
        h.finish()
    }

    /// Whether the current contents still match the sealed checksum.
    pub fn verify(&self) -> bool {
        self.computed_checksum() == self.checksum
    }

    /// Bit pattern of the stored value at `i` (f32 bits for exact logs,
    /// zero-extended binary16 bits for half logs). Used by crash-recovery
    /// checkpoints to diff live log contents against their durable copy.
    pub fn value_bits(&self, i: usize) -> u32 {
        match &self.values {
            DeltaValues::Exact(vs) => vs[i].to_bits(),
            DeltaValues::Half(vs) => vs[i] as u32,
        }
    }

    /// Serializes the segment for the on-disk reversal log (see
    /// [`crate::spill`] for the frame that wraps this payload). The
    /// *stored* seal checksum is written verbatim — not recomputed — so
    /// a round trip preserves the segment's integrity status exactly.
    pub fn to_spill_payload(&self) -> Vec<u8> {
        let mut w = crate::spill::PayloadWriter::new();
        w.put_u32(self.to_level as u32);
        w.put_u32(match self.kind {
            DeltaKind::Evict => 0,
            DeltaKind::Precision => 1,
            DeltaKind::FineTune => 2,
        });
        w.put_u32(match &self.values {
            DeltaValues::Exact(_) => 0,
            DeltaValues::Half(_) => 1,
        });
        w.put_u32(SEAL_VERSION);
        w.put_u64(self.checksum);
        w.put_u32(self.spans.len() as u32);
        for span in &self.spans {
            w.put_u32(span.layer.0 as u32);
            w.put_u32(span.start as u32);
            w.put_u32(span.end as u32);
        }
        w.put_u32(self.indices.len() as u32);
        for &i in &self.indices {
            w.put_u32(i);
        }
        match &self.values {
            DeltaValues::Exact(vs) => {
                for v in vs {
                    w.put_u32(v.to_bits());
                }
            }
            DeltaValues::Half(vs) => {
                for &v in vs {
                    w.put_u32(v as u32);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes a [`LevelDelta::to_spill_payload`] payload.
    ///
    /// The stored checksum is adopted **without** verification: the
    /// record's frame seal already proves the bytes are what was
    /// written, and what was written may legitimately be a segment
    /// whose live copy was corrupted — that status must survive the
    /// round trip for recovery to reproduce the crashed state.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::SpillDecode`] on truncated or internally
    /// inconsistent payloads.
    pub fn from_spill_payload(payload: &[u8]) -> crate::Result<LevelDelta> {
        let err = |what: &str| PruneError::spill_decode(format!("segment payload: {what}"));
        let mut r = crate::spill::PayloadReader::new(payload);
        let to_level = r.u32().ok_or_else(|| err("missing to_level"))? as usize;
        let kind = match r.u32().ok_or_else(|| err("missing segment kind"))? {
            0 => DeltaKind::Evict,
            1 => DeltaKind::Precision,
            2 => DeltaKind::FineTune,
            other => return Err(err(&format!("unknown segment kind {other}"))),
        };
        let precision = match r.u32().ok_or_else(|| err("missing precision"))? {
            0 => LogPrecision::Exact,
            1 => LogPrecision::Half,
            other => return Err(err(&format!("unknown precision {other}"))),
        };
        match r.u32().ok_or_else(|| err("missing version"))? {
            SEAL_VERSION => {}
            other => return Err(err(&format!("unknown checksum version {other}"))),
        }
        let checksum = r.u64().ok_or_else(|| err("missing checksum"))?;
        let span_count = r.u32().ok_or_else(|| err("missing span count"))? as usize;
        // Counts are bounded by the bytes left before anything is
        // allocated, so a hostile count word cannot request gigabytes.
        if span_count > r.remaining() / 12 {
            return Err(err("span count exceeds payload"));
        }
        let mut spans = Vec::with_capacity(span_count);
        for _ in 0..span_count {
            let layer = LayerId(r.u32().ok_or_else(|| err("truncated span"))? as usize);
            let start = r.u32().ok_or_else(|| err("truncated span"))? as usize;
            let end = r.u32().ok_or_else(|| err("truncated span"))? as usize;
            if start > end {
                return Err(err("span start past end"));
            }
            spans.push(LayerSpan { layer, start, end });
        }
        let count = r.u32().ok_or_else(|| err("missing entry count"))? as usize;
        if count > r.remaining() / 8 {
            return Err(err("entry count exceeds payload"));
        }
        if spans.last().map_or(0, |s| s.end) > count {
            return Err(err("span table exceeds entry count"));
        }
        let mut indices = Vec::with_capacity(count);
        for _ in 0..count {
            indices.push(r.u32().ok_or_else(|| err("truncated indices"))?);
        }
        let mut values = DeltaValues::with_capacity(precision, count);
        for _ in 0..count {
            let bits = r.u32().ok_or_else(|| err("truncated values"))?;
            match &mut values {
                DeltaValues::Exact(vs) => vs.push(f32::from_bits(bits)),
                DeltaValues::Half(vs) => vs.push(bits as u16),
            }
        }
        if !r.done() {
            return Err(err("trailing bytes"));
        }
        Ok(LevelDelta {
            to_level,
            kind,
            spans,
            indices,
            values,
            checksum,
        })
    }
}

/// Outcome of one [`ReversiblePruner::set_level`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Level before the call.
    pub from: usize,
    /// Level after the call.
    pub to: usize,
    /// Weights zeroed — or rounded to the int8 grid — by this transition.
    pub weights_pruned: usize,
    /// Weights written back by this transition (evicted values restored
    /// and/or full-precision originals reinstated).
    pub weights_restored: usize,
}

impl Transition {
    /// Total weight elements touched (the O() cost of the transition).
    pub fn weights_touched(&self) -> usize {
        self.weights_pruned + self.weights_restored
    }
}

/// Blocked hash over the bit patterns of all prunable weights.
///
/// This is the integrity primitive of the whole restore story: the
/// pruner seals it at attach time, [`ReversiblePruner::verify_restored`]
/// compares against it after a full restore, and the runtime's fault
/// defenses recompute it against live weights to detect in-RAM bit
/// flips that no log checksum can see. Digests are only ever compared
/// against digests from this same function, so the algorithm behind it
/// is free to change; [`weights_checksum_fnv`] keeps the original
/// scalar FNV-1a walk as the slow oracle.
pub fn weights_checksum(net: &Network) -> u64 {
    let mut h = BlockedHasher::new();
    for meta in net.prunable_layers() {
        if let Ok(w) = net.weight(meta.id) {
            h.write_f32_slice(w.data());
        }
    }
    h.finish()
}

/// Scalar FNV-1a over the bit patterns of all prunable weights — the
/// original byte-at-a-time implementation, retained as the
/// bit-exactness oracle and the baseline the checksum benchmarks
/// compare against.
pub fn weights_checksum_fnv(net: &Network) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for meta in net.prunable_layers() {
        if let Ok(w) = net.weight(meta.id) {
            for &x in w.data() {
                h = fnv1a_u32(h, x.to_bits());
            }
        }
    }
    h
}

/// Counters of the pruner's integrity actions, for observability: how
/// often each check ran and how often it caught corruption. Purely
/// additive bookkeeping — no control decision reads these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrityStats {
    /// Log segments whose checksum was verified by a successful pop.
    pub pops_verified: u64,
    /// Segments visited by incremental scrub steps.
    pub scrub_checks: u64,
    /// Segments rewritten from their shadow copy.
    pub repairs: u64,
    /// Checksum mismatches observed (on pop, scrub, or a corrupt shadow
    /// source during repair).
    pub corruption_hits: u64,
}

/// The pruner's incremental-progress state — scrub position, integrity
/// counters, pool accounting — exported into crash checkpoints so a
/// recovered pruner resumes scrubbing and counting exactly where the
/// crashed one stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrunerCursor {
    /// Round-robin scrub position.
    pub scrub_cursor: usize,
    /// Integrity counters at checkpoint time.
    pub stats: IntegrityStats,
    /// Pool (re)allocation events at checkpoint time.
    pub alloc_events: usize,
}

/// Indices evicted per layer when stepping one ladder level up,
/// precomputed at attach time so a push never re-derives the mask
/// difference sets on the hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TransitionPlan {
    layers: Vec<(LayerId, Vec<u32>)>,
    entries: usize,
}

/// Per-layer rounding plan for one int8 ladder rung, precomputed at
/// attach time: the live (unpruned) weight positions of one quantized
/// layer plus its row geometry, so entering a rung never re-derives
/// mask complements on the hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QuantLayerPlan {
    layer: LayerId,
    units: usize,
    unit_len: usize,
    /// Live weight indices at this level, ascending.
    indices: Vec<u32>,
}

/// Rounding plans for every layer quantized at one int8 rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QuantPlan {
    layers: Vec<QuantLayerPlan>,
    entries: usize,
}

/// The weights one level's attach-time fine-tune retuned in one layer:
/// ascending element indices plus the tuned values to scatter when the
/// level is (re-)entered. Derived deterministically at attach time, so
/// crash recovery reproduces the identical plan by replaying the same
/// training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FineTuneLayerPlan {
    layer: LayerId,
    indices: Vec<u32>,
    tuned: Vec<f32>,
}

/// All layers retuned by one level's attach-time fine-tune.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FineTunePlan {
    layers: Vec<FineTuneLayerPlan>,
    entries: usize,
}

/// Rounds one layer plan's live positions through the int8 grid in
/// place, invoking `capture` with each position's value *before*
/// rounding. Scales are per unit (GEMM row) and computed over the full
/// row — pruned zeros included, matching what the quantized executor
/// derives at inference time — so rung entry and every crash-recovery
/// replay round identically.
fn quantize_plan_layer(data: &mut [f32], lp: &QuantLayerPlan, mut capture: impl FnMut(f32)) {
    let mut next = 0usize;
    for u in 0..lp.units {
        let row_start = u * lp.unit_len;
        let row_end = row_start + lp.unit_len;
        let start = next;
        while next < lp.indices.len() && (lp.indices[next] as usize) < row_end {
            next += 1;
        }
        if start == next {
            continue;
        }
        let scale = qgemm::quant_scale(&data[row_start..row_end]);
        for &i in &lp.indices[start..next] {
            let w = &mut data[i as usize];
            capture(*w);
            *w = qgemm::round_through_i8(*w, scale);
        }
    }
}

/// A reversible runtime pruner attached to one network.
///
/// See the [crate-level example](crate) for typical use. The pruner
/// assumes it is the only writer of the pruned weight positions; callers
/// that fine-tune while pruned must re-assert the masks with
/// [`ReversiblePruner::reapply_masks`] after each optimizer step and call
/// [`ReversiblePruner::rebase`] after intentionally updating weights at
/// full capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReversiblePruner {
    ladder: SparsityLadder,
    log: Vec<LevelDelta>,
    current: usize,
    base_checksum: u64,
    precision: LogPrecision,
    verify_on_pop: bool,
    scrub_cursor: usize,
    shadow: Option<Vec<LevelDelta>>,
    stats: IntegrityStats,
    plans: Vec<TransitionPlan>,
    #[serde(default)]
    quant_plans: Vec<Option<QuantPlan>>,
    #[serde(default)]
    ft_plans: Vec<Option<FineTunePlan>>,
    pool: Vec<LevelDelta>,
    shadow_pool: Vec<LevelDelta>,
    alloc_events: usize,
}

impl ReversiblePruner {
    /// Attaches a pruner to a network at full capacity (ladder level 0),
    /// with a full-precision ([`LogPrecision::Exact`]) reversal log.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::MaskMismatch`] if any ladder mask disagrees
    /// with the network's weight shapes.
    pub fn attach(net: &Network, ladder: SparsityLadder) -> Result<Self> {
        if ladder.has_fine_tune() {
            return Err(PruneError::bad_ladder(
                "ladder carries a fine-tune spec; attach it with ReversiblePruner::attach_fine_tuned",
            ));
        }
        Self::attach_inner(net, ladder)
    }

    fn attach_inner(net: &Network, ladder: SparsityLadder) -> Result<Self> {
        for level in ladder.levels() {
            level.masks.validate_against(net)?;
        }
        ladder.verify_nesting()?;
        let plans = Self::build_plans(&ladder)?;
        let quant_plans = Self::build_quant_plans(net, &ladder)?;
        Ok(ReversiblePruner {
            ladder,
            log: Vec::new(),
            current: 0,
            base_checksum: weights_checksum(net),
            precision: LogPrecision::Exact,
            verify_on_pop: true,
            scrub_cursor: 0,
            shadow: None,
            stats: IntegrityStats::default(),
            plans,
            quant_plans,
            ft_plans: Vec::new(),
            pool: Vec::new(),
            shadow_pool: Vec::new(),
            alloc_events: 0,
        })
    }

    /// Attaches with a binary16 ([`LogPrecision::Half`]) reversal log.
    ///
    /// Every weight coverable by the ladder's top level is rounded through
    /// f16 **in place, once, now** — so all later restores are bit-exact
    /// against this quantized baseline while the log stores only 6 bytes
    /// per entry. The accuracy cost of the quantization is incurred here
    /// and is measurable before deployment.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::MaskMismatch`] if any ladder mask disagrees
    /// with the network's weight shapes.
    pub fn attach_half(net: &mut Network, ladder: SparsityLadder) -> Result<Self> {
        if ladder.has_fine_tune() {
            return Err(PruneError::bad_ladder(
                "fine-tuned ladders need a full-precision log; use ReversiblePruner::attach_fine_tuned",
            ));
        }
        for level in ladder.levels() {
            level.masks.validate_against(net)?;
        }
        ladder.verify_nesting()?;
        let top = ladder.num_levels() - 1;
        for mask in ladder.level(top)?.masks.iter() {
            let w = net.weight_mut(mask.layer)?;
            let data = w.data_mut();
            for i in mask.pruned_indices() {
                data[i] = round_through_f16(data[i]);
            }
        }
        let plans = Self::build_plans(&ladder)?;
        let quant_plans = Self::build_quant_plans(net, &ladder)?;
        // Precision segments must be exactly representable in the log's
        // value width too, so the weights an int8 rung will capture are
        // rounded through f16 here as well — they are "log-coverable"
        // exactly like the evictable set above.
        for plan in quant_plans.iter().flatten() {
            for lp in &plan.layers {
                let data = net.weight_mut(lp.layer)?.data_mut();
                for &i in &lp.indices {
                    data[i as usize] = round_through_f16(data[i as usize]);
                }
            }
        }
        Ok(ReversiblePruner {
            ladder,
            log: Vec::new(),
            current: 0,
            base_checksum: weights_checksum(net),
            precision: LogPrecision::Half,
            verify_on_pop: true,
            scrub_cursor: 0,
            shadow: None,
            stats: IntegrityStats::default(),
            plans,
            quant_plans,
            ft_plans: Vec::new(),
            pool: Vec::new(),
            shadow_pool: Vec::new(),
            alloc_events: 0,
        })
    }

    /// Attaches a pruner whose ladder carries a [`crate::FineTuneSpec`],
    /// briefly fine-tuning the live (masked) network at each level and
    /// recording the retuned weights as per-level plans. Each level is
    /// tuned *incrementally* from its parent level's tuned state, and its
    /// [`DeltaKind::FineTune`] reversal-log segment stores the parent's
    /// values — so popping one rolls the level back to its parent
    /// bit-exactly, with no retraining on the critical path.
    ///
    /// The network is returned at level 0 with its original weights
    /// restored bit-exactly (verified against the attach checksum);
    /// only the pruner's fine-tune plans remember the tuned optima.
    /// The whole procedure is deterministic: replaying it on the same
    /// network and samples reproduces byte-identical plans and segments,
    /// which is what lets crash recovery rebuild fine-tuned rungs.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::BadLadder`] if the ladder has no fine-tune
    /// spec, [`PruneError::MaskMismatch`] on mask/shape disagreement, and
    /// propagates training errors from [`reprune_nn::train`].
    pub fn attach_fine_tuned<E: Example>(
        net: &mut Network,
        ladder: SparsityLadder,
        samples: &[E],
    ) -> Result<Self> {
        let spec = *ladder.fine_tune().ok_or_else(|| {
            PruneError::bad_ladder("attach_fine_tuned requires a ladder with a fine-tune spec")
        })?;
        let mut pruner = Self::attach_inner(net, ladder)?;
        pruner.ft_plans = vec![None; pruner.ladder.num_levels()];
        for level in 1..pruner.ladder.num_levels() {
            // Evict this level's rows first: training sees the masked
            // network, starting from the parent level's tuned state.
            pruner.push_one_level(net)?;
            let parent: Vec<(LayerId, Vec<f32>)> = {
                let mut snap = Vec::new();
                for meta in net.prunable_layers() {
                    snap.push((meta.id, net.weight(meta.id)?.data().to_vec()));
                }
                snap
            };
            let freeze = pruner.ladder.level(level)?.masks.freeze_spec(true);
            let seed = spec.seed ^ (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            train::fine_tune_frozen(net, samples, spec.steps, spec.lr, seed, &freeze)?;
            let mut layers = Vec::new();
            let mut entries = 0usize;
            for (id, before) in &parent {
                let after = net.weight(*id)?.data();
                let mut indices = Vec::new();
                let mut tuned = Vec::new();
                for (i, (&b, &a)) in before.iter().zip(after).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        indices.push(i as u32);
                        tuned.push(a);
                    }
                }
                if indices.is_empty() {
                    continue;
                }
                entries += indices.len();
                layers.push(FineTuneLayerPlan {
                    layer: *id,
                    indices,
                    tuned,
                });
            }
            // Roll the weights back to the parent state, then push the
            // fine-tune segment through the same path runtime walks use:
            // it captures the parent values and scatters the tuned ones.
            for (id, before) in &parent {
                net.weight_mut(*id)?.data_mut().copy_from_slice(before);
            }
            pruner.ft_plans[level] = (entries > 0).then_some(FineTunePlan { layers, entries });
            if pruner.ft_plans[level].is_some() {
                pruner.push_fine_tune_segment(net)?;
            }
        }
        pruner.set_level(net, 0)?;
        pruner.verify_restored(net)?;
        Ok(pruner)
    }

    /// Precomputes the per-transition eviction index sets from the
    /// nested masks (one plan per upward step `k -> k+1`).
    fn build_plans(ladder: &SparsityLadder) -> Result<Vec<TransitionPlan>> {
        let mut plans = Vec::with_capacity(ladder.num_levels().saturating_sub(1));
        for k in 0..ladder.num_levels().saturating_sub(1) {
            let cur_masks = &ladder.level(k)?.masks;
            let next_masks = &ladder.level(k + 1)?.masks;
            let mut layers = Vec::new();
            let mut entries = 0usize;
            for next_mask in next_masks.iter() {
                let id = next_mask.layer;
                let newly: Vec<usize> = match cur_masks.get(id) {
                    Some(cur) => cur.newly_pruned_in(next_mask)?,
                    None => next_mask.pruned_indices().collect(),
                };
                if newly.is_empty() {
                    continue;
                }
                entries += newly.len();
                layers.push((id, newly.into_iter().map(|i| i as u32).collect()));
            }
            plans.push(TransitionPlan { layers, entries });
        }
        Ok(plans)
    }

    /// Precomputes, for every [`PrecisionMode::Int8`] ladder level, the
    /// live weight positions of each mask-covered layer — the positions
    /// rounded through the int8 grid on rung entry. F32 levels get
    /// `None`, so an all-f32 ladder carries no quantization state at all.
    fn build_quant_plans(net: &Network, ladder: &SparsityLadder) -> Result<Vec<Option<QuantPlan>>> {
        let metas = net.prunable_layers();
        let mut plans = Vec::with_capacity(ladder.num_levels());
        for k in 0..ladder.num_levels() {
            if ladder.precision_at(k)? != PrecisionMode::Int8 {
                plans.push(None);
                continue;
            }
            let masks = &ladder.level(k)?.masks;
            let mut layers = Vec::new();
            let mut entries = 0usize;
            for meta in &metas {
                let Some(mask) = masks.get(meta.id) else {
                    continue;
                };
                let len = meta.units * meta.unit_len;
                let indices: Vec<u32> = (0..len)
                    .filter(|&i| !mask.is_pruned(i))
                    .map(|i| i as u32)
                    .collect();
                if indices.is_empty() {
                    continue;
                }
                entries += indices.len();
                layers.push(QuantLayerPlan {
                    layer: meta.id,
                    units: meta.units,
                    unit_len: meta.unit_len,
                    indices,
                });
            }
            plans.push((entries > 0).then_some(QuantPlan { layers, entries }));
        }
        Ok(plans)
    }

    /// The log's value precision.
    pub fn precision(&self) -> LogPrecision {
        self.precision
    }

    /// The ladder this pruner walks.
    pub fn ladder(&self) -> &SparsityLadder {
        &self.ladder
    }

    /// Current ladder level (0 = full capacity).
    pub fn current_level(&self) -> usize {
        self.current
    }

    /// Nominal sparsity of the current level.
    pub fn current_sparsity(&self) -> f64 {
        self.ladder
            .sparsity_at(self.current)
            .expect("current level always valid")
    }

    /// Bytes currently held by the reversal log.
    pub fn log_bytes(&self) -> usize {
        self.log.iter().map(LevelDelta::bytes).sum()
    }

    /// Weight entries currently held by the reversal log.
    pub fn log_entries(&self) -> usize {
        self.log.iter().map(LevelDelta::len).sum()
    }

    /// Worst-case log size in bytes, over all parking levels: the
    /// cumulative evictions to reach a level, plus every fine-tune
    /// segment pushed on the way, plus that level's precision segment
    /// when it is an int8 rung. For an all-f32, untuned ladder this is
    /// exactly the top-level eviction log, as before.
    ///
    /// This is the number the memory-overhead experiment reports; it is
    /// proportional to the pruned (plus quantized, plus retuned)
    /// fraction, unlike a full snapshot.
    pub fn max_log_bytes(&self) -> usize {
        let entry = self.precision.entry_bytes();
        let mut max = 0usize;
        for k in 0..self.ladder.num_levels() {
            let Ok(level) = self.ladder.level(k) else {
                continue;
            };
            let entries = level.masks.pruned_count()
                + self.precision_entries_at(k)
                + self.fine_tune_entries_to(k);
            max = max.max(entries * entry);
        }
        max
    }

    /// Weight entries the precision segment at `level` records (0 for
    /// f32 levels), letting planners account an int8 rung's log cost.
    pub fn precision_entries_at(&self, level: usize) -> usize {
        self.quant_plans
            .get(level)
            .and_then(Option::as_ref)
            .map_or(0, |p| p.entries)
    }

    /// Weight entries the fine-tune segment at `level` records (0 for
    /// untuned levels or pruners attached without fine-tuning).
    pub fn fine_tune_entries_at(&self, level: usize) -> usize {
        self.ft_plans
            .get(level)
            .and_then(Option::as_ref)
            .map_or(0, |p| p.entries)
    }

    /// Cumulative fine-tune entries on the log when parked at `level`:
    /// one segment per fine-tuned level on the walk up.
    pub fn fine_tune_entries_to(&self, level: usize) -> usize {
        (1..=level).map(|k| self.fine_tune_entries_at(k)).sum()
    }

    /// Whether this pruner was attached with
    /// [`ReversiblePruner::attach_fine_tuned`] and recorded at least one
    /// per-level fine-tune plan.
    pub fn has_fine_tune_plans(&self) -> bool {
        self.ft_plans.iter().any(Option::is_some)
    }

    /// Buffer (re)allocations performed by the segment pools since
    /// attach: fresh segment buffers plus any capacity growth while
    /// refilling a pooled one. Mirrors the nn `Scratch`
    /// `allocation_events` pattern — after one full prune/restore
    /// warm-up cycle, steady-state cycling must not move this counter.
    pub fn allocation_events(&self) -> usize {
        self.alloc_events
    }

    /// Moves the network to ladder level `target`, pruning or restoring
    /// as needed, and returns what the transition touched.
    ///
    /// When the target level is an int8 rung, the walk additionally
    /// captures the originals of every live quantized weight into a
    /// precision segment and rounds those weights through the int8 grid
    /// (counted in `weights_pruned`); when *leaving* a rung, the
    /// precision segment is popped first — restoring full precision in
    /// place (counted in `weights_restored`) — before any capacity step.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::UnknownLevel`] for an out-of-range target and
    /// propagates layer-access errors.
    pub fn set_level(&mut self, net: &mut Network, target: usize) -> Result<Transition> {
        if target >= self.ladder.num_levels() {
            return Err(PruneError::UnknownLevel {
                level: target,
                available: self.ladder.num_levels(),
            });
        }
        let from = self.current;
        let mut pruned = 0usize;
        let mut restored = 0usize;
        if target != from {
            // A precision segment belongs to the level that pushed it and
            // always sits on top of the log: restore full precision before
            // any capacity walk, so eviction pops never tunnel under it.
            if self
                .log
                .last()
                .is_some_and(|d| d.kind == DeltaKind::Precision)
            {
                restored += self.pop_aux_segment(net)?;
            }
            while self.current < target {
                pruned += self.push_one_level(net)?;
            }
            while self.current > target {
                restored += self.pop_one_level(net)?;
            }
            if self.quant_plans.get(target).is_some_and(Option::is_some) {
                pruned += self.push_precision_segment(net)?;
            }
        }
        Ok(Transition {
            from,
            to: self.current,
            weights_pruned: pruned,
            weights_restored: restored,
        })
    }

    /// Shortcut for `set_level(net, 0)`: full-capacity restore.
    ///
    /// # Errors
    ///
    /// Propagates layer-access errors.
    pub fn restore_full(&mut self, net: &mut Network) -> Result<Transition> {
        self.set_level(net, 0)
    }

    fn push_one_level(&mut self, net: &mut Network) -> Result<usize> {
        let next = self.current + 1;
        let plan = &self.plans[self.current];
        let mut seg = self
            .pool
            .pop()
            .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
        let cap = seg.capacity_sig();
        seg.reset(next);
        for (id, idxs) in &plan.layers {
            let data = net.weight_mut(*id)?.data_mut();
            let start = seg.indices.len();
            seg.indices.extend_from_slice(idxs);
            match &mut seg.values {
                DeltaValues::Exact(vs) => {
                    for &i in idxs {
                        let w = &mut data[i as usize];
                        vs.push(*w);
                        *w = 0.0;
                    }
                }
                DeltaValues::Half(vs) => {
                    for &i in idxs {
                        let w = &mut data[i as usize];
                        vs.push(f32_to_f16_bits(*w));
                        *w = 0.0;
                    }
                }
            }
            seg.spans.push(LayerSpan {
                layer: *id,
                start,
                end: seg.indices.len(),
            });
        }
        seg.seal();
        if seg.capacity_sig() != cap {
            self.alloc_events += 1;
        }
        let mut count = seg.len();
        if let Some(shadow) = &mut self.shadow {
            let mut sh = self
                .shadow_pool
                .pop()
                .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
            let sh_cap = sh.capacity_sig();
            sh.copy_from(&seg);
            if sh.capacity_sig() != sh_cap {
                self.alloc_events += 1;
            }
            shadow.push(sh);
        }
        self.log.push(seg);
        self.current = next;
        if self.ft_plans.get(next).is_some_and(Option::is_some) {
            count += self.push_fine_tune_segment(net)?;
        }
        Ok(count)
    }

    fn pop_one_level(&mut self, net: &mut Network) -> Result<usize> {
        let mut count = 0usize;
        if self
            .log
            .last()
            .is_some_and(|d| d.kind == DeltaKind::FineTune)
        {
            // Pre-verify the eviction segment underneath before popping
            // the fine-tune segment, so a corrupt eviction record is
            // reported with the log fully intact (no partial pop).
            let below = self.log.len().checked_sub(2).ok_or_else(|| {
                PruneError::mask_mismatch("fine-tune segment with no eviction segment beneath it")
            })?;
            if self.verify_on_pop && !self.log[below].verify() {
                self.stats.corruption_hits += 1;
                let d = &self.log[below];
                return Err(PruneError::LogCorruption {
                    segment: below,
                    to_level: d.to_level,
                    expected: d.checksum,
                    actual: d.computed_checksum(),
                });
            }
            count += self.pop_aux_segment(net)?;
        }
        let segment = self.log.len().checked_sub(1).ok_or_else(|| {
            PruneError::mask_mismatch("reversal log empty while above level 0")
        })?;
        debug_assert_eq!(
            self.log[segment].kind,
            DeltaKind::Evict,
            "precision segments are popped before any capacity walk"
        );
        if self.verify_on_pop {
            if self.log[segment].verify() {
                self.stats.pops_verified += 1;
            } else {
                // Leave the log and level untouched: the caller decides
                // whether to repair the segment or escalate to a coarser
                // restore path.
                self.stats.corruption_hits += 1;
                let d = &self.log[segment];
                return Err(PruneError::LogCorruption {
                    segment,
                    to_level: d.to_level,
                    expected: d.checksum,
                    actual: d.computed_checksum(),
                });
            }
        }
        let delta = self.log.pop().expect("segment index checked above");
        if let Some(shadow) = &mut self.shadow {
            if let Some(sh) = shadow.pop() {
                self.shadow_pool.push(sh);
            }
        }
        count += delta.len();
        Self::apply_segment(&delta, net)?;
        self.current -= 1;
        // The pop mirrors the push order, so LIFO reuse hands each
        // future push a buffer already sized for its level.
        self.pool.push(delta);
        Ok(count)
    }

    /// Enters the current level's int8 rung: captures the full-precision
    /// originals of every live quantized-layer weight into a
    /// [`DeltaKind::Precision`] segment, then rounds those weights
    /// through the int8 grid in place. The segment restores by plain
    /// assignment, so popping it is byte-exact for every f32 bit pattern
    /// (±0.0, NaN payloads, extreme magnitudes included).
    fn push_precision_segment(&mut self, net: &mut Network) -> Result<usize> {
        let plan = self.quant_plans[self.current]
            .as_ref()
            .expect("caller checked the level has a quant plan");
        let mut seg = self
            .pool
            .pop()
            .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
        let cap = seg.capacity_sig();
        seg.reset(self.current);
        seg.kind = DeltaKind::Precision;
        for lp in &plan.layers {
            let data = net.weight_mut(lp.layer)?.data_mut();
            let start = seg.indices.len();
            seg.indices.extend_from_slice(&lp.indices);
            let values = &mut seg.values;
            quantize_plan_layer(data, lp, |w| values.push(w));
            seg.spans.push(LayerSpan {
                layer: lp.layer,
                start,
                end: seg.indices.len(),
            });
        }
        seg.seal();
        if seg.capacity_sig() != cap {
            self.alloc_events += 1;
        }
        let count = seg.len();
        if let Some(shadow) = &mut self.shadow {
            let mut sh = self
                .shadow_pool
                .pop()
                .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
            let sh_cap = sh.capacity_sig();
            sh.copy_from(&seg);
            if sh.capacity_sig() != sh_cap {
                self.alloc_events += 1;
            }
            shadow.push(sh);
        }
        self.log.push(seg);
        Ok(count)
    }

    /// Scatters the current level's fine-tuned weights into the live
    /// network while capturing the values they replace (the parent
    /// level's tuned state) into a [`DeltaKind::FineTune`] segment.
    /// Popping the segment therefore rolls the level back to its parent
    /// bit-exactly; the ladder level itself does not change.
    fn push_fine_tune_segment(&mut self, net: &mut Network) -> Result<usize> {
        let plan = self.ft_plans[self.current]
            .as_ref()
            .expect("caller checked the level has a fine-tune plan");
        let mut seg = self
            .pool
            .pop()
            .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
        let cap = seg.capacity_sig();
        seg.reset(self.current);
        seg.kind = DeltaKind::FineTune;
        for lp in &plan.layers {
            let data = net.weight_mut(lp.layer)?.data_mut();
            let start = seg.indices.len();
            seg.indices.extend_from_slice(&lp.indices);
            for (&i, &tuned) in lp.indices.iter().zip(&lp.tuned) {
                let w = &mut data[i as usize];
                seg.values.push(*w);
                *w = tuned;
            }
            seg.spans.push(LayerSpan {
                layer: lp.layer,
                start,
                end: seg.indices.len(),
            });
        }
        seg.seal();
        if seg.capacity_sig() != cap {
            self.alloc_events += 1;
        }
        let count = seg.len();
        if let Some(shadow) = &mut self.shadow {
            let mut sh = self
                .shadow_pool
                .pop()
                .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
            let sh_cap = sh.capacity_sig();
            sh.copy_from(&seg);
            if sh.capacity_sig() != sh_cap {
                self.alloc_events += 1;
            }
            shadow.push(sh);
        }
        self.log.push(seg);
        Ok(count)
    }

    /// Pops a precision or fine-tune segment off the top of the log,
    /// restoring the captured weights by assignment. The ladder level
    /// does not change — these segments record a rounding or a retune,
    /// not an eviction — and verification/pooling behave exactly as for
    /// eviction pops.
    fn pop_aux_segment(&mut self, net: &mut Network) -> Result<usize> {
        let segment = self.log.len() - 1;
        debug_assert_ne!(
            self.log[segment].kind,
            DeltaKind::Evict,
            "eviction segments are popped by pop_one_level"
        );
        if self.verify_on_pop {
            if self.log[segment].verify() {
                self.stats.pops_verified += 1;
            } else {
                self.stats.corruption_hits += 1;
                let d = &self.log[segment];
                return Err(PruneError::LogCorruption {
                    segment,
                    to_level: d.to_level,
                    expected: d.checksum,
                    actual: d.computed_checksum(),
                });
            }
        }
        let delta = self.log.pop().expect("caller checked the top segment");
        if let Some(shadow) = &mut self.shadow {
            if let Some(sh) = shadow.pop() {
                self.shadow_pool.push(sh);
            }
        }
        let count = delta.len();
        Self::apply_segment(&delta, net)?;
        self.pool.push(delta);
        Ok(count)
    }

    /// Writes a popped segment's values back into the network, one
    /// layer span at a time.
    fn apply_segment(delta: &LevelDelta, net: &mut Network) -> Result<()> {
        for span in &delta.spans {
            let data = net.weight_mut(span.layer)?.data_mut();
            apply_span(
                &delta.indices[span.start..span.end],
                delta.value_slice(span.start, span.end),
                data,
            );
        }
        Ok(())
    }

    /// Re-zeroes the current level's pruned positions.
    ///
    /// Call after each optimizer step when fine-tuning a pruned network so
    /// gradient updates cannot resurrect evicted weights.
    ///
    /// # Errors
    ///
    /// Propagates mask/layer errors.
    pub fn reapply_masks(&self, net: &mut Network) -> Result<()> {
        self.ladder.level(self.current)?.masks.apply(net)
    }

    /// Verifies that the network's prunable weights are bit-identical to
    /// the state captured at attach time. Only meaningful at level 0.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::IntegrityViolation`] on any difference, or
    /// [`PruneError::NotRestorable`] when called above level 0.
    pub fn verify_restored(&self, net: &Network) -> Result<()> {
        if self.current != 0 {
            return Err(PruneError::NotRestorable {
                message: format!(
                    "verify_restored requires level 0, pruner is at level {}",
                    self.current
                ),
            });
        }
        let actual = weights_checksum(net);
        if actual != self.base_checksum {
            return Err(PruneError::IntegrityViolation {
                expected: self.base_checksum,
                actual,
            });
        }
        Ok(())
    }

    /// Re-captures the attach-time checksum from the network's current
    /// weights. Call after intentionally updating weights (e.g. periodic
    /// retraining) at full capacity.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::NotRestorable`] when called above level 0 —
    /// rebasing a pruned network would bless zeroed weights as ground
    /// truth.
    pub fn rebase(&mut self, net: &Network) -> Result<()> {
        if self.current != 0 {
            return Err(PruneError::NotRestorable {
                message: "rebase requires the network at full capacity (level 0)".into(),
            });
        }
        self.base_checksum = weights_checksum(net);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault detection, injection, and repair
    // ------------------------------------------------------------------

    /// Number of segments currently on the reversal log.
    pub fn log_segments(&self) -> usize {
        self.log.len()
    }

    /// Integrity-action counters accumulated since attach.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.stats
    }

    /// Whether pops verify segment checksums before applying deltas.
    pub fn verifies_on_pop(&self) -> bool {
        self.verify_on_pop
    }

    /// Enables or disables checksum verification on pop. Disabling
    /// models the no-defense baseline: corrupted deltas are written
    /// straight into live weights without detection.
    pub fn set_verify_on_pop(&mut self, on: bool) {
        self.verify_on_pop = on;
    }

    /// Whether shadow-copy mode is active.
    pub fn shadow_enabled(&self) -> bool {
        self.shadow.is_some()
    }

    /// Enables or disables shadow-copy mode.
    ///
    /// While enabled, every pushed segment is mirrored into a second
    /// in-RAM copy, doubling log memory but letting
    /// [`ReversiblePruner::repair_segment`] fix a corrupted segment in
    /// place. Enabling mid-flight mirrors the current log; disabling
    /// drops the mirror (its buffers return to the pool).
    pub fn set_shadow_mode(&mut self, on: bool) {
        if on {
            self.shadow = Some(self.log.clone());
        } else if let Some(mut sh) = self.shadow.take() {
            sh.reverse();
            self.shadow_pool.append(&mut sh);
        }
    }

    /// Verifies every log segment, returning how many were checked.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::LogCorruption`] for the first segment whose
    /// contents no longer match its sealed checksum.
    pub fn scrub(&self) -> Result<usize> {
        for (segment, d) in self.log.iter().enumerate() {
            if !d.verify() {
                return Err(PruneError::LogCorruption {
                    segment,
                    to_level: d.to_level,
                    expected: d.checksum,
                    actual: d.computed_checksum(),
                });
            }
        }
        Ok(self.log.len())
    }

    /// Verifies the *next* segment in round-robin order — the
    /// incremental form of [`ReversiblePruner::scrub`], sized to run
    /// inside a control tick. Returns the index verified, or `None`
    /// when the log is empty.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::LogCorruption`] if the visited segment
    /// fails its checksum; the cursor still advances, so repeated calls
    /// make progress across a partially corrupted log.
    pub fn scrub_step(&mut self) -> Result<Option<usize>> {
        if self.log.is_empty() {
            self.scrub_cursor = 0;
            return Ok(None);
        }
        let segment = self.scrub_cursor % self.log.len();
        self.scrub_cursor = (segment + 1) % self.log.len();
        self.stats.scrub_checks += 1;
        if self.log[segment].verify() {
            Ok(Some(segment))
        } else {
            self.stats.corruption_hits += 1;
            let d = &self.log[segment];
            Err(PruneError::LogCorruption {
                segment,
                to_level: d.to_level,
                expected: d.checksum,
                actual: d.computed_checksum(),
            })
        }
    }

    /// Rewrites a corrupted segment from its shadow copy (in place,
    /// reusing the corrupted segment's buffers).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::NotRestorable`] when shadow mode is off or
    /// `segment` is out of range, and [`PruneError::LogCorruption`] when
    /// the shadow copy itself no longer verifies (both copies hit —
    /// escalate to a snapshot or storage restore).
    pub fn repair_segment(&mut self, segment: usize) -> Result<()> {
        let shadow = self.shadow.as_ref().ok_or_else(|| PruneError::NotRestorable {
            message: "shadow-copy mode is off; cannot repair log in place".into(),
        })?;
        if segment >= self.log.len() || segment >= shadow.len() {
            return Err(PruneError::NotRestorable {
                message: format!(
                    "segment {segment} out of range (log has {})",
                    self.log.len()
                ),
            });
        }
        let src = &shadow[segment];
        if !src.verify() {
            self.stats.corruption_hits += 1;
            return Err(PruneError::LogCorruption {
                segment,
                to_level: src.to_level,
                expected: src.checksum,
                actual: src.computed_checksum(),
            });
        }
        self.log[segment].copy_from(src);
        self.stats.repairs += 1;
        Ok(())
    }

    /// Fault hook: flips one mantissa bit of one stored log value,
    /// chosen by `rng`. Returns the index of the segment that was hit,
    /// or `None` when the log holds no entries.
    ///
    /// Mantissa-only flips keep the decoded value finite (no injected
    /// NaN/Inf), which mirrors the dominant DRAM single-bit-upset case
    /// while keeping downstream accuracy accounting well-defined. The
    /// shadow copy, if any, is deliberately *not* touched: it models an
    /// independent memory region.
    pub fn inject_log_bitflip(&mut self, rng: &mut Prng) -> Option<usize> {
        let total = self.log_entries();
        if total == 0 {
            return None;
        }
        let mut pick = rng.next_below(total);
        for (segment, delta) in self.log.iter_mut().enumerate() {
            if pick < delta.len() {
                match &mut delta.values {
                    DeltaValues::Exact(vs) => {
                        let bit = rng.next_below(23) as u32;
                        vs[pick] = f32::from_bits(vs[pick].to_bits() ^ (1u32 << bit));
                    }
                    DeltaValues::Half(vs) => {
                        let bit = rng.next_below(10) as u32;
                        vs[pick] ^= 1u16 << bit;
                    }
                }
                return Some(segment);
            }
            pick -= delta.len();
        }
        None
    }

    // ------------------------------------------------------------------
    // Durable-spill recovery hooks
    // ------------------------------------------------------------------

    /// Borrow of log segment `i` (0 = deepest), for spill encoding.
    pub fn log_segment(&self, i: usize) -> Option<&LevelDelta> {
        self.log.get(i)
    }

    /// Borrow of shadow segment `i`, if shadow mode is on. The shadow
    /// copy is never fault-injected, so it is the clean encode source
    /// under the full defense chain.
    pub fn shadow_segment(&self, i: usize) -> Option<&LevelDelta> {
        self.shadow.as_ref().and_then(|s| s.get(i))
    }

    /// Rebuilds the reversal log from recovered spill segments: zeroes
    /// each segment's masked weights in `net` (which must hold the
    /// pristine full-capacity image) and pushes the segments as-is,
    /// leaving the pruner parked at the deepest segment's level.
    ///
    /// The segments are installed verbatim — including their stored
    /// checksums — so a segment that was corrupt at crash time is
    /// corrupt again after recovery, exactly as the paper's defense
    /// chain expects to find it.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::NotRestorable`] unless called on a fresh
    /// level-0 pruner with an empty log, and [`PruneError::SpillDecode`]
    /// when the segments do not form the contiguous ladder walk
    /// `1..=n` (each level optionally followed by its fine-tune segment,
    /// plus at most one trailing precision segment belonging to the
    /// deepest level's int8 rung) or index weights the network does not
    /// have.
    pub fn install_log(&mut self, net: &mut Network, segments: Vec<LevelDelta>) -> Result<()> {
        if self.current != 0 || !self.log.is_empty() {
            return Err(PruneError::NotRestorable {
                message: "install_log requires a fresh pruner at level 0".into(),
            });
        }
        // Validate the sequence as a ladder walk: evict(1) [ft(1)]
        // evict(2) [ft(2)] ... with at most one trailing precision
        // segment at the deepest level.
        let mut level = 0usize;
        let mut ft_seen = false;
        for (k, seg) in segments.iter().enumerate() {
            match seg.kind {
                DeltaKind::Evict => {
                    if seg.to_level != level + 1 {
                        return Err(PruneError::spill_decode(format!(
                            "segment {k} restores to level {}, expected {}",
                            seg.to_level,
                            level + 1
                        )));
                    }
                    level += 1;
                    ft_seen = false;
                    if level >= self.ladder.num_levels() {
                        return Err(PruneError::spill_decode(format!(
                            "{level} eviction segments exceed the ladder's {} levels",
                            self.ladder.num_levels()
                        )));
                    }
                }
                DeltaKind::FineTune => {
                    if seg.to_level != level || level == 0 || ft_seen {
                        return Err(PruneError::spill_decode(format!(
                            "segment {k} is a misplaced fine-tune segment (restores level {}, walk is at level {level})",
                            seg.to_level
                        )));
                    }
                    ft_seen = true;
                }
                DeltaKind::Precision => {
                    if k != segments.len() - 1 {
                        return Err(PruneError::spill_decode(format!(
                            "segment {k} is a precision segment below the top of the log"
                        )));
                    }
                }
            }
        }
        for seg in segments {
            if seg.kind == DeltaKind::Precision {
                self.install_precision_segment(net, seg)?;
                continue;
            }
            if seg.kind == DeltaKind::FineTune {
                self.install_fine_tune_segment(net, seg)?;
                continue;
            }
            for span in &seg.spans {
                let data = net.weight_mut(span.layer)?.data_mut();
                for &i in &seg.indices[span.start..span.end] {
                    let slot = data.get_mut(i as usize).ok_or_else(|| {
                        PruneError::spill_decode(format!(
                            "index {i} out of range for layer {}",
                            span.layer
                        ))
                    })?;
                    *slot = 0.0;
                }
            }
            if let Some(shadow) = &mut self.shadow {
                shadow.push(seg.clone());
            }
            self.current = seg.to_level;
            self.log.push(seg);
        }
        Ok(())
    }

    /// Replays a recovered precision segment: re-rounds the rung's live
    /// weights exactly as rung entry did, then installs the segment
    /// verbatim (checksums included) rather than recapturing it, so a
    /// segment that was corrupt at crash time is corrupt again after
    /// recovery. Any weight patches the recovery applies afterwards
    /// reproduce post-rounding drift on top, and a mirror rebuilt
    /// through this same path re-rounds identically.
    fn install_precision_segment(&mut self, net: &mut Network, seg: LevelDelta) -> Result<()> {
        if seg.to_level != self.current {
            return Err(PruneError::spill_decode(format!(
                "precision segment restores level {}, but the log ends at level {}",
                seg.to_level, self.current
            )));
        }
        for span in &seg.spans {
            let len = net.weight(span.layer)?.data().len();
            if seg.indices[span.start..span.end]
                .iter()
                .any(|&i| i as usize >= len)
            {
                return Err(PruneError::spill_decode(format!(
                    "precision segment index out of range for layer {}",
                    span.layer
                )));
            }
        }
        let plan = self
            .quant_plans
            .get(seg.to_level)
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                PruneError::spill_decode(format!(
                    "precision segment at level {}, which is not an int8 rung",
                    seg.to_level
                ))
            })?;
        for lp in &plan.layers {
            let data = net.weight_mut(lp.layer)?.data_mut();
            quantize_plan_layer(data, lp, |_| {});
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.push(seg.clone());
        }
        self.log.push(seg);
        Ok(())
    }

    /// Replays a recovered fine-tune segment: scatters the level's tuned
    /// weights from the attach-time plan exactly as level entry did,
    /// then installs the segment verbatim (checksums included) rather
    /// than recapturing it, so a segment that was corrupt at crash time
    /// is corrupt again after recovery. The plan itself is rebuilt
    /// deterministically by re-running `attach_fine_tuned` before
    /// recovery calls this.
    fn install_fine_tune_segment(&mut self, net: &mut Network, seg: LevelDelta) -> Result<()> {
        if seg.to_level != self.current {
            return Err(PruneError::spill_decode(format!(
                "fine-tune segment restores level {}, but the log ends at level {}",
                seg.to_level, self.current
            )));
        }
        for span in &seg.spans {
            let len = net.weight(span.layer)?.data().len();
            if seg.indices[span.start..span.end]
                .iter()
                .any(|&i| i as usize >= len)
            {
                return Err(PruneError::spill_decode(format!(
                    "fine-tune segment index out of range for layer {}",
                    span.layer
                )));
            }
        }
        let plan = self
            .ft_plans
            .get(seg.to_level)
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                PruneError::spill_decode(format!(
                    "fine-tune segment at level {}, which has no fine-tune plan",
                    seg.to_level
                ))
            })?;
        for lp in &plan.layers {
            let data = net.weight_mut(lp.layer)?.data_mut();
            for (&i, &tuned) in lp.indices.iter().zip(&lp.tuned) {
                let slot = data.get_mut(i as usize).ok_or_else(|| {
                    PruneError::spill_decode(format!(
                        "fine-tune plan index {i} out of range for layer {}",
                        lp.layer
                    ))
                })?;
                *slot = tuned;
            }
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.push(seg.clone());
        }
        self.log.push(seg);
        Ok(())
    }

    /// Bit pattern of one stored log value, or `None` out of range.
    pub fn log_value_bits(&self, segment: usize, value_idx: usize) -> Option<u32> {
        let d = self.log.get(segment)?;
        if value_idx >= d.len() {
            return None;
        }
        Some(d.value_bits(value_idx))
    }

    /// Overwrites one stored log value's bit pattern **without**
    /// resealing the segment — recovery uses this to reproduce in-RAM
    /// log corruption recorded by a crash checkpoint. Returns whether
    /// the position existed.
    pub fn patch_log_value(&mut self, segment: usize, value_idx: usize, bits: u32) -> bool {
        let Some(d) = self.log.get_mut(segment) else {
            return false;
        };
        match &mut d.values {
            DeltaValues::Exact(vs) => match vs.get_mut(value_idx) {
                Some(v) => *v = f32::from_bits(bits),
                None => return false,
            },
            DeltaValues::Half(vs) => match vs.get_mut(value_idx) {
                Some(v) => *v = bits as u16,
                None => return false,
            },
        }
        true
    }

    /// Exports the pruner's incremental-progress state for a crash
    /// checkpoint.
    pub fn export_cursor(&self) -> PrunerCursor {
        PrunerCursor {
            scrub_cursor: self.scrub_cursor,
            stats: self.stats,
            alloc_events: self.alloc_events,
        }
    }

    /// Restores state exported by [`ReversiblePruner::export_cursor`].
    pub fn import_cursor(&mut self, cursor: PrunerCursor) {
        self.scrub_cursor = cursor.scrub_cursor;
        self.stats = cursor.stats;
        self.alloc_events = cursor.alloc_events;
    }

    /// Accepts an externally restored full-capacity network (in-RAM
    /// snapshot or storage reload) as the new level-0 state: verifies it
    /// against the attach-time checksum, then clears the log (and
    /// shadow) and resets the level to 0.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::IntegrityViolation`] if the restored
    /// weights do not match the attach-time baseline — the fallback
    /// image itself was corrupt.
    pub fn adopt_full_restore(&mut self, net: &Network) -> Result<()> {
        let actual = weights_checksum(net);
        if actual != self.base_checksum {
            return Err(PruneError::IntegrityViolation {
                expected: self.base_checksum,
                actual,
            });
        }
        // Drain buffers into the pools deepest-first, so the LIFO pool
        // hands them back to re-pushes of the matching level.
        self.pool.extend(self.log.drain(..).rev());
        if let Some(shadow) = &mut self.shadow {
            self.shadow_pool.extend(shadow.drain(..).rev());
        }
        self.scrub_cursor = 0;
        self.current = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::PruneCriterion;
    use crate::ladder::LadderConfig;
    use reprune_nn::models;
    use reprune_tensor::Tensor;

    fn setup(levels: Vec<f64>) -> (Network, ReversiblePruner) {
        let net = models::default_perception_cnn(21).unwrap();
        let ladder = LadderConfig::new(levels).build(&net).unwrap();
        let pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        (net, pruner)
    }

    #[test]
    fn attach_starts_at_level_zero() {
        let (_, p) = setup(vec![0.0, 0.5]);
        assert_eq!(p.current_level(), 0);
        assert_eq!(p.current_sparsity(), 0.0);
        assert_eq!(p.log_bytes(), 0);
    }

    #[test]
    fn prune_then_restore_is_bit_exact() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        let original = net.clone();
        let t = p.set_level(&mut net, 3).unwrap();
        assert_eq!(t.from, 0);
        assert_eq!(t.to, 3);
        assert!(t.weights_pruned > 0);
        assert!(net.sparsity() > 0.4);
        assert_ne!(net, original);
        let t = p.restore_full(&mut net).unwrap();
        assert!(t.weights_restored > 0);
        p.verify_restored(&net).unwrap();
        for meta in original.prunable_layers() {
            assert_eq!(
                original.weight(meta.id).unwrap(),
                net.weight(meta.id).unwrap()
            );
        }
    }

    #[test]
    fn partial_restore_pops_one_level() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6]);
        p.set_level(&mut net, 2).unwrap();
        let bytes_at_2 = p.log_bytes();
        let t = p.set_level(&mut net, 1).unwrap();
        assert_eq!(t.weights_pruned, 0);
        assert!(t.weights_restored > 0);
        assert_eq!(p.current_level(), 1);
        assert!(p.log_bytes() < bytes_at_2);
        // Realized sparsity should match level 1's mask exactly.
        let expect = p.ladder().level(1).unwrap().masks.pruned_count();
        let zeros: usize = net
            .prunable_layers()
            .iter()
            .map(|m| net.weight(m.id).unwrap().count_near_zero(0.0))
            .sum();
        assert!(zeros >= expect, "zeros {zeros} < masked {expect}");
    }

    #[test]
    fn transition_cost_is_delta_sized() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6]);
        let t1 = p.set_level(&mut net, 1).unwrap();
        let t2 = p.set_level(&mut net, 2).unwrap();
        // Moving one more level touches only the newly pruned weights,
        // which is far less than the whole model.
        assert!(t2.weights_pruned < net.num_parameters() / 2);
        assert!(t1.weights_touched() > 0);
        // Round trip 2 -> 1 restores exactly what 1 -> 2 pruned.
        let t3 = p.set_level(&mut net, 1).unwrap();
        assert_eq!(t3.weights_restored, t2.weights_pruned);
    }

    #[test]
    fn set_level_same_level_is_noop() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        let before = net.clone();
        let t = p.set_level(&mut net, 0).unwrap();
        assert_eq!(t.weights_touched(), 0);
        assert_eq!(net, before);
    }

    #[test]
    fn set_level_rejects_out_of_range() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        assert!(matches!(
            p.set_level(&mut net, 2),
            Err(PruneError::UnknownLevel { level: 2, available: 2 })
        ));
    }

    #[test]
    fn log_bytes_proportional_to_pruned_fraction() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p.set_level(&mut net, 1).unwrap();
        let b1 = p.log_bytes();
        p.set_level(&mut net, 3).unwrap();
        let b3 = p.log_bytes();
        assert!(b3 > 2 * b1, "log should grow with sparsity: {b1} vs {b3}");
        assert_eq!(b3, p.max_log_bytes());
        assert_eq!(p.log_entries() * 8, b3);
    }

    #[test]
    fn verify_restored_fails_above_level_zero() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        assert!(matches!(
            p.verify_restored(&net),
            Err(PruneError::NotRestorable { .. })
        ));
    }

    #[test]
    fn verify_detects_tampering() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        p.set_level(&mut net, 0).unwrap();
        // Tamper with one weight.
        let id = net.prunable_layers()[0].id;
        net.weight_mut(id).unwrap().data_mut()[0] += 1.0;
        assert!(matches!(
            p.verify_restored(&net),
            Err(PruneError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn rebase_accepts_new_weights_at_level_zero_only() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        let id = net.prunable_layers()[0].id;
        net.weight_mut(id).unwrap().data_mut()[0] += 1.0;
        assert!(p.verify_restored(&net).is_err());
        p.rebase(&net).unwrap();
        p.verify_restored(&net).unwrap();
        p.set_level(&mut net, 1).unwrap();
        assert!(p.rebase(&net).is_err());
    }

    #[test]
    fn reapply_masks_after_fine_tune_step() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        // Simulate an optimizer step resurrecting pruned weights.
        let id = net.prunable_layers()[0].id;
        net.weight_mut(id).unwrap().map_inplace(|x| x + 0.01);
        p.reapply_masks(&mut net).unwrap();
        let mask = p.ladder().level(1).unwrap().masks.get(id).unwrap();
        let w = net.weight(id).unwrap();
        for i in mask.pruned_indices() {
            assert_eq!(w.data()[i], 0.0);
        }
    }

    #[test]
    fn structured_ladder_round_trip() {
        let net0 = models::default_perception_cnn(31).unwrap();
        let ladder = LadderConfig::uniform(4, 0.75)
            .criterion(PruneCriterion::ChannelL2)
            .build(&net0)
            .unwrap();
        let mut net = net0.clone();
        let mut p = ReversiblePruner::attach(&net, ladder).unwrap();
        for level in [3, 1, 2, 0] {
            p.set_level(&mut net, level).unwrap();
        }
        p.verify_restored(&net).unwrap();
        assert_eq!(net, net0);
    }

    #[test]
    fn attach_rejects_foreign_ladder() {
        let cnn = models::default_perception_cnn(1).unwrap();
        let mlp = models::control_mlp(4, &[8], 2, 1).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.5]).build(&cnn).unwrap();
        assert!(ReversiblePruner::attach(&mlp, ladder).is_err());
    }

    #[test]
    fn layer_delta_accounting() {
        let d = LayerDelta {
            layer: LayerId(0),
            indices: vec![1, 2, 3],
            values: DeltaValues::Exact(vec![0.1, 0.2, 0.3]),
        };
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.bytes(), 24);
        let ld = LevelDelta::new(1, vec![d]);
        assert_eq!(ld.bytes(), 24);
        assert_eq!(ld.len(), 3);
        assert!(ld.verify());
        let h = LayerDelta {
            layer: LayerId(0),
            indices: vec![1, 2],
            values: DeltaValues::Half(vec![
                crate::f16::f32_to_f16_bits(0.5),
                crate::f16::f32_to_f16_bits(-1.0),
            ]),
        };
        assert_eq!(h.bytes(), 12, "half entries are 6 bytes");
        assert_eq!(h.values.get(0), 0.5);
        assert_eq!(h.values.get(1), -1.0);
        assert!(!h.values.is_empty());
    }

    #[test]
    fn half_precision_log_roundtrips_exactly_after_quantization() {
        let mut net = models::default_perception_cnn(51).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.4, 0.8]).build(&net).unwrap();
        let mut p = ReversiblePruner::attach_half(&mut net, ladder).unwrap();
        assert_eq!(p.precision(), LogPrecision::Half);
        let quantized_baseline = net.clone();
        for walk in [2usize, 1, 2, 0, 1, 0] {
            p.set_level(&mut net, walk).unwrap();
        }
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
        assert_eq!(net, quantized_baseline);
    }

    #[test]
    fn half_precision_log_is_three_quarters_the_size() {
        let base = models::default_perception_cnn(52).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.6]).build(&base).unwrap();

        let mut net_e = base.clone();
        let mut pe = ReversiblePruner::attach(&net_e, ladder.clone()).unwrap();
        pe.set_level(&mut net_e, 1).unwrap();

        let mut net_h = base.clone();
        let mut ph = ReversiblePruner::attach_half(&mut net_h, ladder).unwrap();
        ph.set_level(&mut net_h, 1).unwrap();

        assert_eq!(pe.log_entries(), ph.log_entries());
        assert_eq!(ph.log_bytes() * 4, pe.log_bytes() * 3, "6B vs 8B per entry");
        assert_eq!(ph.max_log_bytes() * 4, pe.max_log_bytes() * 3);
    }

    #[test]
    fn half_quantization_error_is_tiny() {
        // The one-time quantization moves coverable weights by < 0.1% rel.
        let base = models::default_perception_cnn(53).unwrap();
        let mut net = base.clone();
        let ladder = LadderConfig::new(vec![0.0, 0.9]).build(&net).unwrap();
        let _ = ReversiblePruner::attach_half(&mut net, ladder).unwrap();
        for meta in base.prunable_layers() {
            let a = base.weight(meta.id).unwrap();
            let b = net.weight(meta.id).unwrap();
            let diff = a.sub(b).unwrap().norm_l2();
            let norm = a.norm_l2().max(1e-9);
            assert!(diff / norm < 1e-3, "quantization moved {} by {}", meta.id, diff / norm);
        }
    }

    #[test]
    fn pruned_network_still_infers() {
        let (mut net, mut p) = setup(vec![0.0, 0.9]);
        p.set_level(&mut net, 1).unwrap();
        let x = Tensor::ones(&[1, 16, 16]);
        let probs = net.predict_proba(&x).unwrap();
        assert!((probs.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn scrub_passes_on_clean_log_and_catches_bitflip() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p.set_level(&mut net, 3).unwrap();
        assert_eq!(p.scrub().unwrap(), 3);
        let mut rng = Prng::new(7);
        assert!(p.inject_log_bitflip(&mut rng).is_some());
        let err = p.scrub().unwrap_err();
        assert!(matches!(err, PruneError::LogCorruption { .. }), "{err}");
    }

    #[test]
    fn scrub_step_walks_every_segment_round_robin() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p.set_level(&mut net, 3).unwrap();
        let visited: Vec<usize> = (0..6)
            .map(|_| p.scrub_step().unwrap().unwrap())
            .collect();
        assert_eq!(visited, vec![0, 1, 2, 0, 1, 2]);
        let (_, mut empty) = setup(vec![0.0, 0.5]);
        assert_eq!(empty.scrub_step().unwrap(), None);
    }

    #[test]
    fn corrupted_pop_is_detected_and_leaves_the_segment_on_the_log() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6]);
        p.set_level(&mut net, 2).unwrap();
        let mut rng = Prng::new(11);
        assert!(p.inject_log_bitflip(&mut rng).is_some());
        // The full restore pops every segment, so whichever one the
        // flip landed in must trip before its deltas are applied.
        let err = p.set_level(&mut net, 0).unwrap_err();
        let PruneError::LogCorruption { segment, .. } = err else {
            panic!("expected LogCorruption, got {err}");
        };
        // The corrupted segment was not consumed and the level tracks
        // the segments still on the log.
        assert_eq!(segment, p.log_segments() - 1);
        assert_eq!(p.current_level(), p.log_segments());
        assert!(p.log_segments() > 0);
    }

    #[test]
    fn no_defense_mode_silently_applies_corruption() {
        let (mut net, mut p) = setup(vec![0.0, 0.4, 0.8]);
        let original = net.clone();
        p.set_level(&mut net, 2).unwrap();
        let mut rng = Prng::new(3);
        assert!(p.inject_log_bitflip(&mut rng).is_some());
        p.set_verify_on_pop(false);
        p.set_level(&mut net, 0).unwrap();
        // The restore "succeeded" but the weights silently diverged.
        assert!(p.verify_restored(&net).is_err());
        assert_ne!(net, original);
    }

    #[test]
    fn shadow_repair_recovers_corrupted_segment() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6]);
        let original = net.clone();
        p.set_shadow_mode(true);
        assert!(p.shadow_enabled());
        p.set_level(&mut net, 2).unwrap();
        let mut rng = Prng::new(5);
        assert!(p.inject_log_bitflip(&mut rng).is_some());
        let bad = match p.scrub() {
            Err(PruneError::LogCorruption { segment, .. }) => segment,
            other => panic!("expected corruption, got {other:?}"),
        };
        p.repair_segment(bad).unwrap();
        assert_eq!(p.scrub().unwrap(), 2);
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
        assert_eq!(net, original);
    }

    #[test]
    fn repair_without_shadow_is_not_restorable() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        assert!(matches!(
            p.repair_segment(0),
            Err(PruneError::NotRestorable { .. })
        ));
    }

    #[test]
    fn adopt_full_restore_resets_after_external_reload() {
        let (mut net, mut p) = setup(vec![0.0, 0.4, 0.8]);
        let image = net.clone(); // what storage/snapshot would hold
        p.set_level(&mut net, 2).unwrap();
        let mut rng = Prng::new(9);
        assert!(p.inject_log_bitflip(&mut rng).is_some());
        // Simulate the fallback: clobber live weights from the image.
        net = image.clone();
        p.adopt_full_restore(&net).unwrap();
        assert_eq!(p.current_level(), 0);
        assert_eq!(p.log_segments(), 0);
        p.verify_restored(&net).unwrap();
        // The pruner is fully usable again.
        p.set_level(&mut net, 1).unwrap();
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
    }

    #[test]
    fn adopt_full_restore_rejects_corrupt_image() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        let id = net.prunable_layers()[0].id;
        net.weight_mut(id).unwrap().data_mut()[0] += 0.5;
        assert!(matches!(
            p.adopt_full_restore(&net),
            Err(PruneError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn injected_flips_stay_finite() {
        let (mut net, mut p) = setup(vec![0.0, 0.6, 0.9]);
        p.set_level(&mut net, 2).unwrap();
        let mut rng = Prng::new(13);
        for _ in 0..64 {
            assert!(p.inject_log_bitflip(&mut rng).is_some());
        }
        p.set_verify_on_pop(false);
        p.set_level(&mut net, 0).unwrap();
        for meta in net.prunable_layers() {
            assert!(net
                .weight(meta.id)
                .unwrap()
                .data()
                .iter()
                .all(|x| x.is_finite()));
        }
    }

    #[test]
    fn bitflip_on_empty_log_is_a_noop() {
        let (_, mut p) = setup(vec![0.0, 0.5]);
        let mut rng = Prng::new(1);
        assert!(p.inject_log_bitflip(&mut rng).is_none());
    }

    #[test]
    fn half_precision_log_corruption_also_detected() {
        let mut net = models::default_perception_cnn(54).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.5]).build(&net).unwrap();
        let mut p = ReversiblePruner::attach_half(&mut net, ladder).unwrap();
        p.set_level(&mut net, 1).unwrap();
        let mut rng = Prng::new(17);
        assert!(p.inject_log_bitflip(&mut rng).is_some());
        assert!(matches!(
            p.set_level(&mut net, 0),
            Err(PruneError::LogCorruption { .. })
        ));
    }

    // -------------------------------------------------------------
    // Restore fast path: pooling and checksums
    // -------------------------------------------------------------

    #[test]
    fn steady_state_cycles_allocate_zero_after_warmup() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p.set_shadow_mode(true);
        // Warm-up: one full climb and descent sizes every pool buffer.
        p.set_level(&mut net, 3).unwrap();
        p.set_level(&mut net, 0).unwrap();
        let warm = p.allocation_events();
        assert!(warm > 0, "warm-up must have allocated the buffers");
        for _ in 0..8 {
            p.set_level(&mut net, 3).unwrap();
            p.set_level(&mut net, 1).unwrap();
            p.set_level(&mut net, 2).unwrap();
            p.set_level(&mut net, 0).unwrap();
        }
        assert_eq!(
            p.allocation_events(),
            warm,
            "steady-state prune/restore cycles must not allocate"
        );
        p.verify_restored(&net).unwrap();
    }

    #[test]
    fn weights_checksum_and_fnv_oracle_both_detect_single_flip() {
        let (mut net, _) = setup(vec![0.0, 0.5]);
        let v2 = weights_checksum(&net);
        let v1 = weights_checksum_fnv(&net);
        let id = net.prunable_layers()[0].id;
        let d = net.weight_mut(id).unwrap().data_mut();
        d[3] = f32::from_bits(d[3].to_bits() ^ (1 << 12));
        assert_ne!(weights_checksum(&net), v2);
        assert_ne!(weights_checksum_fnv(&net), v1);
    }

    // -------------------------------------------------------------
    // Durable-spill hooks
    // -------------------------------------------------------------

    #[test]
    fn spill_payload_round_trips_exact_and_half_segments() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p.set_level(&mut net, 3).unwrap();
        for i in 0..p.log_segments() {
            let original = p.log_segment(i).unwrap().clone();
            let payload = original.to_spill_payload();
            let decoded = LevelDelta::from_spill_payload(&payload).unwrap();
            assert_eq!(decoded, original);
            assert!(decoded.verify());
        }

        let mut hnet = models::default_perception_cnn(55).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.5]).build(&hnet).unwrap();
        let mut hp = ReversiblePruner::attach_half(&mut hnet, ladder).unwrap();
        hp.set_level(&mut hnet, 1).unwrap();
        let original = hp.log_segment(0).unwrap().clone();
        let decoded = LevelDelta::from_spill_payload(&original.to_spill_payload()).unwrap();
        assert_eq!(decoded, original, "half-precision values survive widening");
    }

    #[test]
    fn spill_payload_preserves_corruption_status() {
        let (mut net, mut p) = setup(vec![0.0, 0.6]);
        p.set_level(&mut net, 1).unwrap();
        let mut rng = Prng::new(41);
        let seg = p.inject_log_bitflip(&mut rng).unwrap();
        let corrupt = p.log_segment(seg).unwrap().clone();
        assert!(!corrupt.verify());
        let decoded = LevelDelta::from_spill_payload(&corrupt.to_spill_payload()).unwrap();
        assert!(!decoded.verify(), "corrupt-at-crash stays corrupt after decode");
        assert_eq!(decoded.checksum, corrupt.checksum);
    }

    #[test]
    fn spill_payload_decode_rejects_truncation() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        let payload = p.log_segment(0).unwrap().to_spill_payload();
        for cut in [0usize, 3, 11, payload.len() - 2] {
            assert!(matches!(
                LevelDelta::from_spill_payload(&payload[..cut]),
                Err(PruneError::SpillDecode { .. })
            ));
        }
    }

    #[test]
    fn spill_payload_bytes_are_pinned_and_unknown_version_words_rejected() {
        // One hand-built segment, byte for byte: the on-device payload
        // format cannot drift without this literal changing.
        const PINNED: [u8; 60] = [
            1, 0, 0, 0, // to_level
            0, 0, 0, 0, // kind: evict
            0, 0, 0, 0, // value precision: exact
            1, 0, 0, 0, // seal version: blocked hash
            0x7F, 0x9E, 0x3F, 0x8D, 0xF7, 0xCA, 0x46, 0xCE, // seal
            1, 0, 0, 0, // span count
            0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, // span: layer 0, entries 0..2
            2, 0, 0, 0, // entry count
            3, 0, 0, 0, 7, 0, 0, 0, // indices
            0, 0, 0xC0, 0x3F, 0, 0, 0, 0x80, // values: 1.5, -0.0
        ];
        let seg = LevelDelta::new(
            1,
            vec![LayerDelta {
                layer: LayerId(0),
                indices: vec![3, 7],
                values: DeltaValues::Exact(vec![1.5, -0.0]),
            }],
        );
        assert_eq!(seg.to_spill_payload(), PINNED);
        let decoded = LevelDelta::from_spill_payload(&PINNED).unwrap();
        assert_eq!(decoded, seg);
        assert!(decoded.verify());
        // Seal version (byte 12): only 1 is accepted. Span and entry
        // counts (bytes 24 and 40) past what the payload holds are
        // rejected before anything is allocated for them.
        let hostile_words = [
            (12, 0u32),
            (12, 2),
            (12, u32::MAX),
            (24, 3),
            (24, u32::MAX),
            (40, 3),
            (40, u32::MAX),
        ];
        for (offset, word) in hostile_words {
            let mut hostile = PINNED;
            hostile[offset..offset + 4].copy_from_slice(&word.to_le_bytes());
            assert!(
                matches!(
                    LevelDelta::from_spill_payload(&hostile),
                    Err(PruneError::SpillDecode { .. })
                ),
                "word {word} at byte {offset} must be rejected"
            );
        }
    }

    #[test]
    fn install_log_rebuilds_a_crashed_walk() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        let pristine = net.clone();
        p.set_level(&mut net, 2).unwrap();
        let crashed_net = net.clone();
        let segments: Vec<LevelDelta> = (0..p.log_segments())
            .map(|i| {
                LevelDelta::from_spill_payload(&p.log_segment(i).unwrap().to_spill_payload())
                    .unwrap()
            })
            .collect();

        // A fresh process: pristine image + recovered segments.
        let mut net2 = pristine.clone();
        let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9]).build(&pristine).unwrap();
        let mut p2 = ReversiblePruner::attach(&net2, ladder).unwrap();
        p2.install_log(&mut net2, segments).unwrap();
        assert_eq!(p2.current_level(), 2);
        assert_eq!(p2.log_segments(), 2);
        assert_eq!(net2, crashed_net, "recovered weights match the crashed state");
        p2.set_level(&mut net2, 0).unwrap();
        p2.verify_restored(&net2).unwrap();
        assert_eq!(net2, pristine);
    }

    #[test]
    fn install_log_requires_fresh_pruner_and_contiguous_levels() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6]);
        p.set_level(&mut net, 1).unwrap();
        let seg = p.log_segment(0).unwrap().clone();
        assert!(matches!(
            p.install_log(&mut net, vec![seg.clone()]),
            Err(PruneError::NotRestorable { .. })
        ));
        let (mut net2, mut p2) = setup(vec![0.0, 0.3, 0.6]);
        let mut wrong = seg.clone();
        wrong.to_level = 2; // skips level 1
        assert!(matches!(
            p2.install_log(&mut net2, vec![wrong]),
            Err(PruneError::SpillDecode { .. })
        ));
    }

    #[test]
    fn patch_log_value_reproduces_and_reverts_corruption() {
        let (mut net, mut p) = setup(vec![0.0, 0.5]);
        p.set_level(&mut net, 1).unwrap();
        let before = p.log_value_bits(0, 0).unwrap();
        assert!(p.patch_log_value(0, 0, before ^ (1 << 5)));
        assert!(!p.log_segment(0).unwrap().verify());
        assert_eq!(p.log_value_bits(0, 0), Some(before ^ (1 << 5)));
        assert!(p.patch_log_value(0, 0, before));
        assert!(p.log_segment(0).unwrap().verify());
        assert!(!p.patch_log_value(0, usize::MAX, 0), "out of range is a no-op");
        assert!(!p.patch_log_value(9, 0, 0));
        assert_eq!(p.log_value_bits(9, 0), None);
    }

    #[test]
    fn cursor_round_trip_restores_scrub_progress_and_stats() {
        let (mut net, mut p) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p.set_level(&mut net, 3).unwrap();
        p.scrub_step().unwrap();
        p.scrub_step().unwrap();
        let cursor = p.export_cursor();
        assert_eq!(cursor.stats.scrub_checks, 2);

        let (mut net2, mut p2) = setup(vec![0.0, 0.3, 0.6, 0.9]);
        p2.set_level(&mut net2, 3).unwrap();
        p2.import_cursor(cursor);
        assert_eq!(p2.export_cursor(), cursor);
        // The recovered pruner continues the round-robin walk at 2.
        assert_eq!(p2.scrub_step().unwrap(), Some(2));
    }

    #[test]
    fn pool_survives_adopt_full_restore() {
        let (mut net, mut p) = setup(vec![0.0, 0.4, 0.8]);
        let image = net.clone();
        p.set_level(&mut net, 2).unwrap();
        p.set_level(&mut net, 0).unwrap();
        p.set_level(&mut net, 2).unwrap();
        let warm = p.allocation_events();
        net = image.clone();
        p.adopt_full_restore(&net).unwrap();
        // Buffers parked by the adopt are reused by the next climb.
        p.set_level(&mut net, 2).unwrap();
        p.set_level(&mut net, 0).unwrap();
        assert_eq!(p.allocation_events(), warm);
        p.verify_restored(&net).unwrap();
    }

    // -------------------------------------------------------------
    // Precision rungs (int8 execution levels)
    // -------------------------------------------------------------

    fn setup_quant(
        levels: Vec<f64>,
        precisions: Vec<PrecisionMode>,
    ) -> (Network, ReversiblePruner) {
        let net = models::default_perception_cnn(21).unwrap();
        let ladder = LadderConfig::new(levels)
            .criterion(PruneCriterion::ChannelL2)
            .precisions(precisions)
            .build(&net)
            .unwrap();
        let pruner = ReversiblePruner::attach(&net, ladder).unwrap();
        (net, pruner)
    }

    #[test]
    fn int8_rung_round_trip_is_bit_exact() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.4, 0.8], vec![F32, Int8, F32]);
        let original = net.clone();
        let tr = p.set_level(&mut net, 1).unwrap();
        assert_eq!(p.log_segments(), 2, "eviction segment plus precision segment");
        assert!(tr.weights_pruned > 0);
        assert_ne!(net, original, "rung entry rounds live weights in place");
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
        assert_eq!(net, original);
    }

    #[test]
    fn precision_segment_rides_on_top_of_the_log() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.4, 0.8], vec![F32, Int8, Int8]);
        p.set_level(&mut net, 1).unwrap();
        let top = p.log_segment(1).unwrap();
        assert_eq!(top.kind, DeltaKind::Precision);
        assert_eq!(top.to_level, 1);
        assert_eq!(top.len(), p.precision_entries_at(1));
        assert_eq!(p.log_segment(0).unwrap().kind, DeltaKind::Evict);
        // Climbing to the next rung pops level 1's precision segment
        // first and parks level 2's on top.
        p.set_level(&mut net, 2).unwrap();
        assert_eq!(p.log_segments(), 3);
        assert_eq!(p.log_segment(1).unwrap().kind, DeltaKind::Evict);
        let top = p.log_segment(2).unwrap();
        assert_eq!(top.kind, DeltaKind::Precision);
        assert_eq!(top.to_level, 2);
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
    }

    #[test]
    fn rung_transitions_conserve_entry_counts() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.5], vec![F32, Int8]);
        let up = p.set_level(&mut net, 1).unwrap();
        let evicted = p.ladder().level(1).unwrap().masks.pruned_count();
        assert_eq!(up.weights_pruned, evicted + p.precision_entries_at(1));
        let down = p.set_level(&mut net, 0).unwrap();
        assert_eq!(down.weights_restored, up.weights_pruned);
        p.verify_restored(&net).unwrap();
    }

    #[test]
    fn reentering_the_same_rung_is_a_no_op() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.5], vec![F32, Int8]);
        p.set_level(&mut net, 1).unwrap();
        let snap = weights_checksum(&net);
        let tr = p.set_level(&mut net, 1).unwrap();
        assert_eq!(tr.weights_touched(), 0);
        assert_eq!(p.log_segments(), 2);
        assert_eq!(weights_checksum(&net), snap);
    }

    #[test]
    fn steady_state_rung_cycles_allocate_nothing() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.4, 0.8], vec![F32, Int8, F32]);
        // Two warm-up laps let every pooled buffer grow to the largest
        // segment it will ever hold (eviction and precision segments of
        // different sizes share the LIFO pool).
        for _ in 0..2 {
            p.set_level(&mut net, 2).unwrap();
            p.set_level(&mut net, 1).unwrap();
            p.set_level(&mut net, 0).unwrap();
        }
        let warm = p.allocation_events();
        for _ in 0..3 {
            p.set_level(&mut net, 2).unwrap();
            p.set_level(&mut net, 1).unwrap();
            p.set_level(&mut net, 0).unwrap();
        }
        assert_eq!(p.allocation_events(), warm);
        p.verify_restored(&net).unwrap();
    }

    #[test]
    fn half_log_int8_rung_restores_the_f16_baseline() {
        use PrecisionMode::{Int8, F32};
        let base = models::default_perception_cnn(33).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.5])
            .criterion(PruneCriterion::ChannelL2)
            .precisions(vec![F32, Int8])
            .build(&base)
            .unwrap();
        let mut net = base.clone();
        let mut p = ReversiblePruner::attach_half(&mut net, ladder).unwrap();
        // attach_half rounds the rung-coverable live weights through f16
        // too, so the captured originals fit the half log exactly.
        let baseline = net.clone();
        assert_ne!(baseline, base);
        p.set_level(&mut net, 1).unwrap();
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
        assert_eq!(net, baseline);
    }

    #[test]
    fn precision_spill_payload_round_trips() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.5], vec![F32, Int8]);
        p.set_level(&mut net, 1).unwrap();
        let original = p.log_segment(1).unwrap().clone();
        assert_eq!(original.kind, DeltaKind::Precision);
        let decoded = LevelDelta::from_spill_payload(&original.to_spill_payload()).unwrap();
        assert_eq!(decoded, original);
        assert!(decoded.verify());
    }

    #[test]
    fn install_log_replays_precision_rung() {
        use PrecisionMode::{Int8, F32};
        let precisions = vec![F32, F32, Int8];
        let (mut net, mut p) = setup_quant(vec![0.0, 0.3, 0.6], precisions.clone());
        let pristine = net.clone();
        p.set_level(&mut net, 2).unwrap();
        let crashed = net.clone();
        let segments: Vec<LevelDelta> = (0..p.log_segments())
            .map(|i| {
                LevelDelta::from_spill_payload(&p.log_segment(i).unwrap().to_spill_payload())
                    .unwrap()
            })
            .collect();
        assert_eq!(segments.last().unwrap().kind, DeltaKind::Precision);

        let mut net2 = pristine.clone();
        let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6])
            .criterion(PruneCriterion::ChannelL2)
            .precisions(precisions)
            .build(&pristine)
            .unwrap();
        let mut p2 = ReversiblePruner::attach(&net2, ladder).unwrap();
        p2.install_log(&mut net2, segments.clone()).unwrap();
        assert_eq!(p2.current_level(), 2);
        assert_eq!(p2.log_segments(), 3);
        assert_eq!(net2, crashed, "replayed rounding matches the crashed state");
        p2.set_level(&mut net2, 0).unwrap();
        p2.verify_restored(&net2).unwrap();
        assert_eq!(net2, pristine);

        // A precision segment anywhere but the top is rejected.
        let mut shuffled = segments;
        shuffled.swap(1, 2);
        let mut net3 = pristine.clone();
        let (_, mut p3) = setup_quant(vec![0.0, 0.3, 0.6], vec![F32, F32, Int8]);
        assert!(matches!(
            p3.install_log(&mut net3, shuffled),
            Err(PruneError::SpillDecode { .. })
        ));
    }

    #[test]
    fn precision_checksums_are_domain_separated() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.5], vec![F32, Int8]);
        p.set_level(&mut net, 1).unwrap();
        let seg = p.log_segment(1).unwrap().clone();
        let mut as_evict = seg.clone();
        as_evict.kind = DeltaKind::Evict;
        assert_ne!(
            seg.computed_checksum(),
            as_evict.computed_checksum(),
            "same contents must hash differently across kinds"
        );
    }

    #[test]
    fn corrupt_precision_segment_is_detected_and_repairable() {
        use PrecisionMode::{Int8, F32};
        let (mut net, mut p) = setup_quant(vec![0.0, 0.5], vec![F32, Int8]);
        p.set_shadow_mode(true);
        p.set_level(&mut net, 1).unwrap();
        let bits = p.log_value_bits(1, 0).unwrap();
        assert!(p.patch_log_value(1, 0, bits ^ (1 << 3)));
        match p.set_level(&mut net, 0) {
            Err(PruneError::LogCorruption { segment, .. }) => assert_eq!(segment, 1),
            other => panic!("expected LogCorruption, got {other:?}"),
        }
        assert_eq!(p.current_level(), 1, "failed pop leaves the log untouched");
        p.repair_segment(1).unwrap();
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
    }

    #[test]
    fn max_log_bytes_counts_the_deepest_rung() {
        use PrecisionMode::{Int8, F32};
        let (_, p) = setup_quant(vec![0.0, 0.4, 0.8], vec![F32, Int8, F32]);
        let at_top = p.ladder().level(2).unwrap().masks.pruned_count();
        let at_rung =
            p.ladder().level(1).unwrap().masks.pruned_count() + p.precision_entries_at(1);
        assert_eq!(
            p.max_log_bytes(),
            at_rung.max(at_top) * LogPrecision::Exact.entry_bytes()
        );
        // All-f32 ladders keep the original top-of-ladder accounting.
        let (_, f32_only) = setup(vec![0.0, 0.4, 0.8]);
        assert_eq!(
            f32_only.max_log_bytes(),
            f32_only.ladder().level(2).unwrap().masks.pruned_count()
                * LogPrecision::Exact.entry_bytes()
        );
    }

    fn ft_attach(levels: Vec<f64>, seed: u64) -> (Network, ReversiblePruner) {
        use crate::ladder::FineTuneSpec;
        use reprune_nn::dataset::SceneDataset;
        let mut net = models::default_perception_cnn(21).unwrap();
        let data = SceneDataset::builder().samples(24).seed(4041).build();
        let ladder = LadderConfig::new(levels)
            .criterion(PruneCriterion::Magnitude)
            .fine_tune(FineTuneSpec { steps: 3, lr: 0.01, seed })
            .build(&net)
            .unwrap();
        let p = ReversiblePruner::attach_fine_tuned(&mut net, ladder, data.samples()).unwrap();
        (net, p)
    }

    #[test]
    fn fine_tuned_attach_restores_original_weights() {
        let original = models::default_perception_cnn(21).unwrap();
        let (net, p) = ft_attach(vec![0.0, 0.4, 0.8], 7);
        assert_eq!(p.current_level(), 0);
        p.verify_restored(&net).unwrap();
        for meta in original.prunable_layers() {
            assert_eq!(
                original.weight(meta.id).unwrap(),
                net.weight(meta.id).unwrap(),
                "attach must hand back the untouched level-0 weights"
            );
        }
        assert!(p.has_fine_tune_plans());
        assert!(p.fine_tune_entries_at(1) > 0, "training changed no weights");
        assert_eq!(
            p.fine_tune_entries_to(2),
            p.fine_tune_entries_at(1) + p.fine_tune_entries_at(2)
        );
    }

    #[test]
    fn fine_tuned_walks_are_reversible_and_keep_pruned_rows_zero() {
        let (mut net, mut p) = ft_attach(vec![0.0, 0.4, 0.8], 7);
        let original = net.clone();
        for level in [1, 2] {
            p.set_level(&mut net, level).unwrap();
            // Every fine-tune segment on the log belongs to a level on
            // the walk, directly above that level's eviction segment.
            let masks = &p.ladder().level(level).unwrap().masks;
            for mask in masks.iter() {
                let data = net.weight(mask.layer).unwrap().data();
                for i in mask.pruned_indices() {
                    assert_eq!(data[i], 0.0, "pruned weight drifted at level {level}");
                }
            }
        }
        // The tuned state at level 2 differs from what an untuned walk
        // produces: that's the accuracy-recovery payload.
        let (mut plain_net, mut plain) = setup(vec![0.0, 0.4, 0.8]);
        plain.set_level(&mut plain_net, 2).unwrap();
        assert_ne!(net, plain_net, "fine-tune left no trace on the weights");
        p.set_level(&mut net, 0).unwrap();
        p.verify_restored(&net).unwrap();
        assert_eq!(net, original);
    }

    #[test]
    fn fine_tune_pop_restores_parent_tuned_state() {
        let (mut net, mut p) = ft_attach(vec![0.0, 0.4, 0.8], 9);
        p.set_level(&mut net, 1).unwrap();
        let at_level_1 = net.clone();
        p.set_level(&mut net, 2).unwrap();
        assert_ne!(net, at_level_1);
        p.set_level(&mut net, 1).unwrap();
        assert_eq!(
            net, at_level_1,
            "walking back down must reproduce the parent's tuned state bit-exactly"
        );
    }

    #[test]
    fn fine_tuned_attach_is_deterministic() {
        let (mut n1, mut p1) = ft_attach(vec![0.0, 0.4, 0.8], 11);
        let (mut n2, mut p2) = ft_attach(vec![0.0, 0.4, 0.8], 11);
        p1.set_level(&mut n1, 2).unwrap();
        p2.set_level(&mut n2, 2).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(p1.log_segments(), p2.log_segments());
        for i in 0..p1.log_segments() {
            let a = p1.log_segment(i).unwrap().to_spill_payload();
            let b = p2.log_segment(i).unwrap().to_spill_payload();
            assert_eq!(a, b, "segment {i} differs between identical attaches");
        }
        // A different fine-tune seed must change the tuned weights.
        let (mut n3, mut p3) = ft_attach(vec![0.0, 0.4, 0.8], 12);
        p3.set_level(&mut n3, 2).unwrap();
        assert_ne!(n1, n3, "fine-tune seed had no effect");
    }

    #[test]
    fn fine_tune_segments_round_trip_through_spill_payloads() {
        let (mut net, mut p) = ft_attach(vec![0.0, 0.4, 0.8], 13);
        p.set_level(&mut net, 2).unwrap();
        let mut saw_fine_tune = false;
        for i in 0..p.log_segments() {
            let seg = p.log_segment(i).unwrap();
            let rt = LevelDelta::from_spill_payload(&seg.to_spill_payload()).unwrap();
            assert_eq!(&rt, seg);
            assert!(rt.verify(), "round-tripped segment fails its checksum");
            saw_fine_tune |= rt.kind == DeltaKind::FineTune;
        }
        assert!(saw_fine_tune, "walk to the top pushed no fine-tune segments");
    }

    #[test]
    fn install_log_replays_fine_tuned_walk() {
        let (mut net, mut p) = ft_attach(vec![0.0, 0.4, 0.8], 15);
        p.set_level(&mut net, 2).unwrap();
        let crashed = net.clone();
        let segments: Vec<LevelDelta> = (0..p.log_segments())
            .map(|i| {
                LevelDelta::from_spill_payload(&p.log_segment(i).unwrap().to_spill_payload())
                    .unwrap()
            })
            .collect();
        // Recovery re-runs the deterministic attach (rebuilding the
        // fine-tune plans), then installs the spilled segments.
        let (mut net2, mut p2) = ft_attach(vec![0.0, 0.4, 0.8], 15);
        p2.install_log(&mut net2, segments).unwrap();
        assert_eq!(p2.current_level(), 2);
        assert_eq!(net2, crashed, "recovered weights differ from crashed state");
        p2.set_level(&mut net2, 0).unwrap();
        p2.verify_restored(&net2).unwrap();
    }

    #[test]
    fn install_log_rejects_misplaced_fine_tune_segments() {
        let (mut net, mut p) = ft_attach(vec![0.0, 0.4, 0.8], 17);
        p.set_level(&mut net, 2).unwrap();
        let segs: Vec<LevelDelta> = (0..p.log_segments())
            .map(|i| p.log_segment(i).unwrap().clone())
            .collect();
        p.set_level(&mut net, 0).unwrap();
        // A fine-tune segment with no eviction segment beneath it.
        let ft = segs
            .iter()
            .find(|s| s.kind == DeltaKind::FineTune)
            .unwrap()
            .clone();
        let (mut net2, mut p2) = ft_attach(vec![0.0, 0.4, 0.8], 17);
        let err = p2.install_log(&mut net2, vec![ft]).unwrap_err();
        assert!(matches!(err, PruneError::SpillDecode { .. }), "{err}");
        // Duplicate fine-tune segments for one level.
        let mut doubled = Vec::new();
        for s in &segs {
            doubled.push(s.clone());
            if s.kind == DeltaKind::FineTune {
                doubled.push(s.clone());
            }
        }
        let err = p2.install_log(&mut net2, doubled).unwrap_err();
        assert!(matches!(err, PruneError::SpillDecode { .. }), "{err}");
    }

    #[test]
    fn plain_attach_rejects_fine_tuned_ladders() {
        use crate::ladder::FineTuneSpec;
        let mut net = models::default_perception_cnn(21).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.5])
            .fine_tune(FineTuneSpec::default())
            .build(&net)
            .unwrap();
        assert!(matches!(
            ReversiblePruner::attach(&net, ladder.clone()),
            Err(PruneError::BadLadder { .. })
        ));
        assert!(matches!(
            ReversiblePruner::attach_half(&mut net, ladder.clone()),
            Err(PruneError::BadLadder { .. })
        ));
        // And the dedicated constructor demands a spec.
        let plain = LadderConfig::new(vec![0.0, 0.5]).build(&net).unwrap();
        let data = reprune_nn::dataset::SceneDataset::builder().samples(4).build();
        assert!(matches!(
            ReversiblePruner::attach_fine_tuned(&mut net, plain, data.samples()),
            Err(PruneError::BadLadder { .. })
        ));
    }

    #[test]
    fn fine_tuned_pool_recycles_segments() {
        let (mut net, mut p) = ft_attach(vec![0.0, 0.4, 0.8], 19);
        // The attach itself performed one full warm-up walk; steady-state
        // cycling must not allocate.
        p.set_level(&mut net, 2).unwrap();
        p.set_level(&mut net, 0).unwrap();
        let warm = p.allocation_events();
        for _ in 0..4 {
            p.set_level(&mut net, 2).unwrap();
            p.set_level(&mut net, 0).unwrap();
        }
        assert_eq!(
            p.allocation_events(),
            warm,
            "steady-state fine-tuned cycling reallocated"
        );
        p.verify_restored(&net).unwrap();
    }
}
