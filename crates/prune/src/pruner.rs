//! The reversible pruner and its reversal log — the "back to the future"
//! mechanism.
//!
//! [`ReversiblePruner`] attaches to a live [`Network`] with a
//! [`SparsityLadder`] and then moves the network between ladder levels
//! in place. Every ladder step is a **hop**, a transform of its parent's
//! weights built at attach time: the positions it writes, per layer, and
//! a value rule for them.
//!
//! * A level's **eviction** hop zeroes the weights its mask prunes.
//! * A fine-tuned level's **tune** hop writes the values its attach-time
//!   fine-tune found.
//! * An **int8 rung** hop rounds the live weights through the int8 grid.
//!
//! Pushing a hop copies the parent bits of every position it writes into
//! a [`LevelDelta`] (index + value pairs) on the log; popping the segment
//! writes them back. One push, one pop and one recovery install serve
//! every hop, so a risk spike restores capacity *and* precision through
//! the very same pop path.
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

/// Which kind of hop a segment undoes: the segment's on-disk tag, also
/// mixed into its checksum. Every kind is pushed, popped and installed
/// by the same code; the tag only names which attach-time hop a
/// recovered segment must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum DeltaKind {
    /// A level's eviction hop: the sparsity step zeroed the positions.
    Evict,
    /// An int8 rung hop: the positions were rounded through the int8
    /// grid.
    Precision,
    /// A level's tune hop: the positions took the level's attach-time
    /// fine-tuned values.
    FineTune,
}

/// Extra word mixed into a precision segment's checksum, separating its
/// hash domain from eviction segments with identical contents. Eviction
/// hashing is untouched, so every pre-precision log keeps verifying
/// bit-for-bit.
const PRECISION_CHECKSUM_DOMAIN: u32 = 0x5052_4543; // "PREC"

/// Domain word for fine-tune segment checksums, keeping their hash
/// domain separate from eviction and precision segments with identical
/// contents.
const FINE_TUNE_CHECKSUM_DOMAIN: u32 = 0x5455_4E45; // "TUNE"

/// Seal-algorithm word of every spill payload; 1 names the blocked
/// hash. It is the only value written, and the decoder rejects any
/// other value.
const SEAL_VERSION: u32 = 1;

/// One reversal-log segment: the parent bits of every position one hop
/// overwrote — the weights a sparsity step evicted, the originals an
/// int8 rung rounded, or the parent values a level's fine-tune replaced.
///
/// Stored as a single arena: one index vector and one value vector for
/// the whole segment, with a span table mapping contiguous ranges to
/// layers. Capture and apply are then linear passes over two buffers,
/// and the buffers themselves are pooled and reused across cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelDelta {
    /// The level of the hop that pushed this segment (for an eviction
    /// hop, the level it raised the network *to*).
    pub to_level: usize,
    kind: DeltaKind,
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
    fn reset(&mut self, to_level: usize, kind: DeltaKind) {
        self.to_level = to_level;
        self.kind = kind;
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

    /// The error reporting this segment, at log position `segment`, as
    /// corrupt.
    fn corruption(&self, segment: usize) -> PruneError {
        PruneError::LogCorruption {
            segment,
            to_level: self.to_level,
            expected: self.checksum,
            actual: self.computed_checksum(),
        }
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
        // The spans must tile `0..count` contiguously and in order, as
        // every writer lays them out, so no span can slice past the
        // entries.
        let mut spans = Vec::with_capacity(span_count);
        let mut tiled = 0usize;
        for _ in 0..span_count {
            let layer = LayerId(r.u32().ok_or_else(|| err("truncated span"))? as usize);
            let start = r.u32().ok_or_else(|| err("truncated span"))? as usize;
            let end = r.u32().ok_or_else(|| err("truncated span"))? as usize;
            if start != tiled || end < start {
                return Err(err("span table does not tile the entries"));
            }
            tiled = end;
            spans.push(LayerSpan { layer, start, end });
        }
        let count = r.u32().ok_or_else(|| err("missing entry count"))? as usize;
        if count > r.remaining() / 8 {
            return Err(err("entry count exceeds payload"));
        }
        if tiled != count {
            return Err(err("span table does not cover the entry count"));
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

/// What a hop writes at each position it lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Rule {
    /// Zero: a sparsity step evicts the position.
    Zero,
    /// The level's attach-time fine-tuned values, parallel to the
    /// positions.
    Tuned(Vec<f32>),
    /// The live value rounded through the int8 grid of its
    /// `unit_len`-wide row (one GEMM row). The scale is computed over
    /// the full row — pruned zeros included, matching what the quantized
    /// executor derives at inference time — so rung entry and every
    /// crash-recovery replay round identically.
    Int8 { unit_len: usize },
}

/// The positions one hop writes in one layer, ascending, and the rule
/// giving their new values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HopLayer {
    layer: LayerId,
    indices: Vec<u32>,
    rule: Rule,
}

impl HopLayer {
    /// Writes the hop's values into `data`, handing each position's
    /// parent value to `capture` just before overwriting it.
    fn write(&self, data: &mut [f32], mut capture: impl FnMut(f32)) {
        match &self.rule {
            Rule::Zero => {
                for &i in &self.indices {
                    let w = &mut data[i as usize];
                    capture(*w);
                    *w = 0.0;
                }
            }
            Rule::Tuned(values) => {
                for (&i, &v) in self.indices.iter().zip(values) {
                    let w = &mut data[i as usize];
                    capture(*w);
                    *w = v;
                }
            }
            Rule::Int8 { unit_len } => {
                let unit_len = *unit_len;
                let row_of = |i: u32| i as usize / unit_len;
                for row in self.indices.chunk_by(|&a, &b| row_of(a) == row_of(b)) {
                    let start = row_of(row[0]) * unit_len;
                    let scale = qgemm::quant_scale(&data[start..start + unit_len]);
                    for &i in row {
                        let w = &mut data[i as usize];
                        capture(*w);
                        *w = qgemm::round_through_i8(*w, scale);
                    }
                }
            }
        }
    }
}

/// One ladder step as a transform of its parent's weights, built at
/// attach: the positions it writes in each layer and the rule for their
/// new values. Pushing a hop captures the parent bits of every position
/// into a segment while writing, so popping that segment restores the
/// parent bit-exactly. A new ladder axis is a new [`Rule`], not a new
/// push, pop or install path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Hop {
    /// The level the hop belongs to: its segments' `to_level`.
    level: usize,
    /// Its segments' tag.
    kind: DeltaKind,
    layers: Vec<HopLayer>,
    /// Positions written, over all layers.
    entries: usize,
}

impl Hop {
    fn new(level: usize, kind: DeltaKind, layers: Vec<HopLayer>) -> Self {
        let entries = layers.iter().map(|l| l.indices.len()).sum();
        Hop {
            level,
            kind,
            layers,
            entries,
        }
    }

    /// Whether `seg` lists exactly this hop's positions, layer by layer.
    fn same_positions(&self, seg: &LevelDelta) -> bool {
        seg.spans.len() == self.layers.len()
            && seg
                .spans
                .iter()
                .zip(&self.layers)
                .all(|(s, l)| s.layer == l.layer && seg.indices[s.start..s.end] == l.indices[..])
    }
}

/// Encodes tune hops as a [`ReversiblePruner::tune_record`].
fn encode_tune_hops<'a>(hops: impl Iterator<Item = &'a Hop>) -> Vec<u8> {
    let hops: Vec<&Hop> = hops.collect();
    let mut w = crate::spill::PayloadWriter::new();
    w.put_u32(hops.len() as u32);
    for hop in hops {
        w.put_u32(hop.level as u32);
        w.put_u32(hop.layers.len() as u32);
        for l in &hop.layers {
            let Rule::Tuned(values) = &l.rule else {
                unreachable!("tune hops carry tuned values");
            };
            w.put_u32(l.layer.0 as u32);
            w.put_u32(l.indices.len() as u32);
            for &i in &l.indices {
                w.put_u32(i);
            }
            for v in values {
                w.put_u32(v.to_bits());
            }
        }
    }
    w.into_bytes()
}

/// Where a hop lives: at a position of the canonical walk, or as a
/// level's int8 rung.
#[derive(Debug, Clone, Copy)]
enum HopAt {
    Walk(usize),
    Rung(usize),
}

/// Reversal-log entries between two parked ladder levels, split by hop
/// kind (see [`ReversiblePruner::hop_entries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopEntries {
    /// Weights the eviction hops zero.
    pub evict: usize,
    /// Weights the tune hops retune.
    pub tune: usize,
    /// Weights the upper level's int8 rung hop rounds (0 for f32
    /// levels).
    pub rung: usize,
}

impl HopEntries {
    /// Entries of the canonical-walk hops: evictions plus tunes, without
    /// the rung.
    pub fn walk(&self) -> usize {
        self.evict + self.tune
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
    base_checksum: u64,
    precision: LogPrecision,
    verify_on_pop: bool,
    scrub_cursor: usize,
    shadow: Option<Vec<LevelDelta>>,
    stats: IntegrityStats,
    /// The canonical walk up the ladder: level 1's eviction hop, then its
    /// tune hop if it has one, then level 2's eviction hop, and so on.
    /// Beneath any rung segment, the log holds the segments of a prefix
    /// of this walk that ends on a level boundary.
    walk: Vec<Hop>,
    /// Each level's int8 rung hop (`None` for f32 levels). A rung segment
    /// sits alone on top of the log and belongs to the current level.
    rungs: Vec<Option<Hop>>,
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
    /// Returns [`PruneError::BadLadder`] for a ladder carrying a
    /// fine-tune spec and [`PruneError::MaskMismatch`] if any ladder mask
    /// disagrees with the network's weight shapes.
    pub fn attach(net: &Network, ladder: SparsityLadder) -> Result<Self> {
        if ladder.has_fine_tune() {
            return Err(PruneError::bad_ladder(
                "ladder carries a fine-tune spec; attach it with ReversiblePruner::attach_fine_tuned",
            ));
        }
        Self::attach_core(net, ladder, LogPrecision::Exact)
    }

    /// Attaches with a binary16 ([`LogPrecision::Half`]) reversal log.
    ///
    /// Every weight a hop can capture (evicted or int8-rounded) is
    /// rounded through f16 **in place, once, now** — so all later
    /// restores are bit-exact against this quantized baseline while the
    /// log stores only 6 bytes per entry. The accuracy cost of the
    /// quantization is incurred here and is measurable before
    /// deployment.
    ///
    /// # Errors
    ///
    /// As [`ReversiblePruner::attach`].
    pub fn attach_half(net: &mut Network, ladder: SparsityLadder) -> Result<Self> {
        if ladder.has_fine_tune() {
            return Err(PruneError::bad_ladder(
                "fine-tuned ladders need a full-precision log; use ReversiblePruner::attach_fine_tuned",
            ));
        }
        let mut pruner = Self::attach_core(net, ladder, LogPrecision::Half)?;
        for hop in pruner.walk.iter().chain(pruner.rungs.iter().flatten()) {
            for l in &hop.layers {
                let data = net.weight_mut(l.layer)?.data_mut();
                for &i in &l.indices {
                    data[i as usize] = round_through_f16(data[i as usize]);
                }
            }
        }
        pruner.base_checksum = weights_checksum(net);
        Ok(pruner)
    }

    /// Attaches a pruner whose ladder carries a [`crate::FineTuneSpec`],
    /// briefly fine-tuning the masked network at each level and
    /// recording the retuned weights as that level's tune hop. Each level
    /// is tuned *incrementally* from its parent level's tuned state, and
    /// its tune segment stores the parent's values — so popping one rolls
    /// the level back to its parent bit-exactly, with no retraining on
    /// the critical path.
    ///
    /// Training runs on a scratch copy of `net`, so the caller's network
    /// comes back equal in full: its weights, and also the optimizer
    /// velocities, BatchNorm running statistics and dropout stream that
    /// training moves. Only the pruner's tune hops remember the tuned
    /// optima. The procedure is deterministic: the same network and
    /// samples reproduce byte-identical hops and segments.
    /// [`ReversiblePruner::tune_record`] persists the hops, and
    /// [`ReversiblePruner::attach_recorded`] rebuilds this pruner from
    /// them without training.
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
        let mut pruner = Self::attach_core(net, ladder, LogPrecision::Exact)?;
        let mut scratch = net.clone();
        let mut tunes = Vec::new();
        // The walk holds only the eviction hops yet, one per level.
        for evict in &pruner.walk {
            let level = evict.level;
            // Evict this level's rows first: training sees the masked
            // network, starting from the parent level's tuned state.
            for l in &evict.layers {
                l.write(scratch.weight_mut(l.layer)?.data_mut(), |_| {});
            }
            let mut parent = Vec::new();
            for meta in scratch.prunable_layers() {
                parent.push((meta.id, scratch.weight(meta.id)?.data().to_vec()));
            }
            let freeze = pruner.ladder.level(level)?.masks.freeze_spec(true);
            let seed = spec.seed ^ (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            train::fine_tune_frozen(&mut scratch, samples, spec.steps, spec.lr, seed, &freeze)?;
            let mut layers = Vec::new();
            for (id, before) in &parent {
                let after = scratch.weight(*id)?.data();
                let mut indices = Vec::new();
                let mut tuned = Vec::new();
                for (i, (&b, &a)) in before.iter().zip(after).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        indices.push(i as u32);
                        tuned.push(a);
                    }
                }
                if !indices.is_empty() {
                    layers.push(HopLayer {
                        layer: *id,
                        indices,
                        rule: Rule::Tuned(tuned),
                    });
                }
            }
            if !layers.is_empty() {
                tunes.push(Hop::new(level, DeltaKind::FineTune, layers));
            }
        }
        pruner.install_tune_hops(net, tunes)?;
        Ok(pruner)
    }

    /// Attaches a pruner from a tune record
    /// ([`ReversiblePruner::tune_record`]) instead of training: the
    /// recorded hops are checked against `net` and the ladder, then
    /// installed exactly as [`ReversiblePruner::attach_fine_tuned`]
    /// installs the hops it trains, so the two pruners are equal. A
    /// ladder without a fine-tune spec takes an empty record and
    /// attaches as [`ReversiblePruner::attach`] does.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::SpillDecode`] when the record is empty on a
    /// fine-tuned ladder or present on another, or when it is not a
    /// list of ascending in-range levels, each naming known prunable
    /// layers in network order with ascending in-range positions the
    /// level keeps, and nothing after; [`PruneError::MaskMismatch`] on
    /// mask/shape disagreement.
    pub fn attach_recorded(
        net: &mut Network,
        ladder: SparsityLadder,
        tune_record: &[u8],
    ) -> Result<Self> {
        match (ladder.has_fine_tune(), tune_record.is_empty()) {
            (false, true) => return Self::attach_core(net, ladder, LogPrecision::Exact),
            (false, false) => {
                return Err(PruneError::spill_decode(
                    "tune record on a ladder without a fine-tune spec",
                ))
            }
            (true, true) => {
                return Err(PruneError::spill_decode(
                    "fine-tuned ladder without a tune record",
                ))
            }
            (true, false) => {}
        }
        let mut pruner = Self::attach_core(net, ladder, LogPrecision::Exact)?;
        let tunes = pruner.decode_tune_hops(net, tune_record)?;
        pruner.install_tune_hops(net, tunes)?;
        Ok(pruner)
    }

    /// The tune record: every tune hop on the canonical walk, for the
    /// spill's base record. Little-endian `u32` words: the hop count,
    /// then per hop its level and layer count, then per layer its id,
    /// its position count, the ascending positions the hop retunes and
    /// their tuned f32 bits. Raw bits keep NaN, ±0 and denormal tuned
    /// values exact. Empty for a ladder without a fine-tune spec.
    pub fn tune_record(&self) -> Vec<u8> {
        if !self.ladder.has_fine_tune() {
            return Vec::new();
        }
        encode_tune_hops(self.walk.iter().filter(|h| h.kind == DeltaKind::FineTune))
    }

    /// Decodes a [`ReversiblePruner::tune_record`] into tune hops,
    /// checking each against `net`'s prunable layers and the ladder's
    /// masks. Counts are bounded before use: hops by the ladder's
    /// levels, layers by the network's, and positions by the bytes left
    /// (the only count anything is reserved for).
    fn decode_tune_hops(&self, net: &Network, record: &[u8]) -> Result<Vec<Hop>> {
        fn word(r: &mut crate::spill::PayloadReader<'_>, what: &str) -> Result<u32> {
            r.u32()
                .ok_or_else(|| PruneError::spill_decode(format!("tune record: missing {what}")))
        }
        let err = |what: String| PruneError::spill_decode(format!("tune record: {what}"));
        let levels = self.ladder.num_levels();
        let metas = net.prunable_layers();
        let mut r = crate::spill::PayloadReader::new(record);
        let hop_count = word(&mut r, "hop count")? as usize;
        if hop_count >= levels {
            return Err(err(format!(
                "{hop_count} tune hops on a {levels}-level ladder"
            )));
        }
        let mut hops = Vec::new();
        let mut prev_level = 0;
        for _ in 0..hop_count {
            let level = word(&mut r, "level")? as usize;
            if level <= prev_level || level >= levels {
                return Err(err(format!(
                    "level {level} is out of range or out of order"
                )));
            }
            prev_level = level;
            let masks = &self.ladder.level(level)?.masks;
            let layer_count = word(&mut r, "layer count")? as usize;
            if layer_count == 0 || layer_count > metas.len() {
                return Err(err(format!("level {level} lists {layer_count} layers")));
            }
            let mut layers = Vec::new();
            // Layers follow the network's order, each at most once.
            let mut next = 0;
            for _ in 0..layer_count {
                let layer = LayerId(word(&mut r, "layer id")? as usize);
                let at = metas
                    .iter()
                    .position(|m| m.id == layer)
                    .ok_or_else(|| err(format!("layer {layer} is not a prunable layer")))?;
                if at < next {
                    return Err(err(format!(
                        "layer {layer} is out of order at level {level}"
                    )));
                }
                next = at + 1;
                let len = metas[at].weight_len();
                let count = word(&mut r, "position count")? as usize;
                if count == 0 || count > r.remaining() / 8 {
                    return Err(err(format!(
                        "layer {layer} at level {level} claims {count} positions"
                    )));
                }
                let mask = masks.get(layer);
                let mut indices: Vec<u32> = Vec::with_capacity(count);
                for _ in 0..count {
                    let i = word(&mut r, "position")?;
                    if i as usize >= len
                        || indices.last().is_some_and(|&p| p >= i)
                        || mask.is_some_and(|m| m.is_pruned(i as usize))
                    {
                        return Err(err(format!(
                            "position {i} of layer {layer} is out of range, out of order \
                             or pruned at level {level}"
                        )));
                    }
                    indices.push(i);
                }
                let mut tuned = Vec::with_capacity(count);
                for _ in 0..count {
                    tuned.push(f32::from_bits(word(&mut r, "tuned value")?));
                }
                layers.push(HopLayer {
                    layer,
                    indices,
                    rule: Rule::Tuned(tuned),
                });
            }
            hops.push(Hop::new(level, DeltaKind::FineTune, layers));
        }
        if !r.done() {
            return Err(err("trailing bytes".into()));
        }
        Ok(hops)
    }

    /// Inserts each tune hop into the canonical walk right after its
    /// level's eviction hop, then walks `net` up every hop and back down
    /// to level 0, warming the segment pool and the integrity counters
    /// the same way whether the hops were trained or recorded. Verifies
    /// that `net` is back on its attach-time bits.
    fn install_tune_hops(&mut self, net: &mut Network, tunes: Vec<Hop>) -> Result<()> {
        for hop in tunes {
            let at = self
                .walk
                .iter()
                .position(|h| h.level > hop.level)
                .unwrap_or(self.walk.len());
            self.walk.insert(at, hop);
        }
        for at in 0..self.walk.len() {
            self.push(net, HopAt::Walk(at))?;
        }
        self.set_level(net, 0)?;
        self.verify_restored(net)
    }

    /// The attach every constructor shares: validates the ladder against
    /// the network, builds its eviction and rung hops, and seals the
    /// network's current weights as the level-0 baseline.
    fn attach_core(net: &Network, ladder: SparsityLadder, precision: LogPrecision) -> Result<Self> {
        for level in ladder.levels() {
            level.masks.validate_against(net)?;
        }
        ladder.verify_nesting()?;
        let walk = Self::eviction_hops(&ladder)?;
        let rungs = Self::rung_hops(net, &ladder)?;
        Ok(ReversiblePruner {
            ladder,
            log: Vec::new(),
            base_checksum: weights_checksum(net),
            precision,
            verify_on_pop: true,
            scrub_cursor: 0,
            shadow: None,
            stats: IntegrityStats::default(),
            walk,
            rungs,
            pool: Vec::new(),
            shadow_pool: Vec::new(),
            alloc_events: 0,
        })
    }

    /// One eviction hop per level above 0, precomputed from the nested
    /// masks so a push never re-derives set differences: the positions
    /// level `k` prunes that level `k - 1` keeps.
    fn eviction_hops(ladder: &SparsityLadder) -> Result<Vec<Hop>> {
        let mut hops = Vec::with_capacity(ladder.num_levels().saturating_sub(1));
        for k in 1..ladder.num_levels() {
            let parent = &ladder.level(k - 1)?.masks;
            let mut layers = Vec::new();
            for mask in ladder.level(k)?.masks.iter() {
                let newly: Vec<usize> = match parent.get(mask.layer) {
                    Some(p) => p.newly_pruned_in(mask)?,
                    None => mask.pruned_indices().collect(),
                };
                if !newly.is_empty() {
                    layers.push(HopLayer {
                        layer: mask.layer,
                        indices: newly.into_iter().map(|i| i as u32).collect(),
                        rule: Rule::Zero,
                    });
                }
            }
            hops.push(Hop::new(k, DeltaKind::Evict, layers));
        }
        Ok(hops)
    }

    /// Each [`PrecisionMode::Int8`] level's rung hop: the live positions
    /// of every mask-covered layer, rounded through their row's int8
    /// grid. F32 levels get `None`, so an all-f32 ladder carries no
    /// quantization state at all.
    fn rung_hops(net: &Network, ladder: &SparsityLadder) -> Result<Vec<Option<Hop>>> {
        let metas = net.prunable_layers();
        let mut rungs = Vec::with_capacity(ladder.num_levels());
        for k in 0..ladder.num_levels() {
            let level = ladder.level(k)?;
            if level.precision != PrecisionMode::Int8 {
                rungs.push(None);
                continue;
            }
            let mut layers = Vec::new();
            for meta in &metas {
                let Some(mask) = level.masks.get(meta.id) else {
                    continue;
                };
                let indices: Vec<u32> = (0..meta.units * meta.unit_len)
                    .filter(|&i| !mask.is_pruned(i))
                    .map(|i| i as u32)
                    .collect();
                if !indices.is_empty() {
                    layers.push(HopLayer {
                        layer: meta.id,
                        indices,
                        rule: Rule::Int8 {
                            unit_len: meta.unit_len,
                        },
                    });
                }
            }
            rungs.push((!layers.is_empty()).then(|| Hop::new(k, DeltaKind::Precision, layers)));
        }
        Ok(rungs)
    }

    /// The log's value precision.
    pub fn precision(&self) -> LogPrecision {
        self.precision
    }

    /// The ladder this pruner walks.
    pub fn ladder(&self) -> &SparsityLadder {
        &self.ladder
    }

    /// Current ladder level (0 = full capacity): the level of the
    /// segment on top of the log.
    pub fn current_level(&self) -> usize {
        self.log.last().map_or(0, |d| d.to_level)
    }

    /// Nominal sparsity of the current level.
    pub fn current_sparsity(&self) -> f64 {
        self.ladder
            .sparsity_at(self.current_level())
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

    /// Worst-case log size in bytes, over all parking levels: every hop
    /// on the walk up to a level plus that level's rung hop. For an
    /// all-f32, untuned ladder this is exactly the top-level eviction
    /// log.
    ///
    /// This is the number the memory-overhead experiment reports; it is
    /// proportional to the pruned (plus quantized, plus retuned)
    /// fraction, unlike a full snapshot.
    pub fn max_log_bytes(&self) -> usize {
        let entry = self.precision.entry_bytes();
        (0..self.ladder.num_levels())
            .map(|k| {
                let e = self.hop_entries(0, k);
                (e.walk() + e.rung) * entry
            })
            .max()
            .unwrap_or(0)
    }

    /// Log entries separating parking at level `low` from parking at
    /// level `high`: the eviction and tune hops of levels
    /// `low + 1..=high`, plus `high`'s int8 rung hop. The one entry count
    /// behind log sizing, restore pricing and the planners'
    /// standing-entry budgets.
    pub fn hop_entries(&self, low: usize, high: usize) -> HopEntries {
        let mut e = HopEntries {
            rung: self
                .rungs
                .get(high)
                .and_then(Option::as_ref)
                .map_or(0, |h| h.entries),
            ..HopEntries::default()
        };
        for hop in self
            .walk
            .iter()
            .filter(|h| h.level > low && h.level <= high)
        {
            if hop.kind == DeltaKind::FineTune {
                e.tune += hop.entries;
            } else {
                e.evict += hop.entries;
            }
        }
        e
    }

    /// Whether leaving the current level would first pop an int8 rung
    /// segment that fails its checksum: the one case where pruning deeper
    /// through [`ReversiblePruner::set_level`] would stop with
    /// [`PruneError::LogCorruption`] before evicting anything. Always
    /// `false` with verify-on-pop off.
    pub fn rung_pop_fails(&self) -> bool {
        self.verify_on_pop
            && self
                .log
                .last()
                .is_some_and(|d| d.kind == DeltaKind::Precision && !d.verify())
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
    /// The walk pops the current level's rung segment, if any, before
    /// any capacity step — restoring full precision in place (counted in
    /// `weights_restored`) — then pushes or pops whole levels (each
    /// level's eviction hop plus its tune hop, if it has one), and
    /// finally pushes the target level's rung hop when the target is an
    /// int8 rung (counted in `weights_pruned`).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::UnknownLevel`] for an out-of-range target,
    /// [`PruneError::LogCorruption`] when a popped segment fails its
    /// checksum, and propagates layer-access errors.
    pub fn set_level(&mut self, net: &mut Network, target: usize) -> Result<Transition> {
        if target >= self.ladder.num_levels() {
            return Err(PruneError::UnknownLevel {
                level: target,
                available: self.ladder.num_levels(),
            });
        }
        let from = self.current_level();
        let mut pruned = 0usize;
        let mut restored = 0usize;
        if target != from {
            if self
                .log
                .last()
                .is_some_and(|d| d.kind == DeltaKind::Precision)
            {
                restored += self.pop(net)?;
            }
            while self
                .walk
                .get(self.log.len())
                .is_some_and(|h| h.level <= target)
            {
                pruned += self.push(net, HopAt::Walk(self.log.len()))?;
            }
            while self.current_level() > target {
                // Pop the whole level: its tune segment, if any, then its
                // eviction segment. The segments beneath the top are
                // verified first, so a corrupt one is reported with the
                // level's segments all still on the log.
                let level = self.current_level();
                let first = self
                    .log
                    .iter()
                    .rposition(|d| d.to_level != level)
                    .map_or(0, |i| i + 1);
                if self.verify_on_pop {
                    if let Some(bad) = (first..self.log.len() - 1).find(|&s| !self.log[s].verify())
                    {
                        self.stats.corruption_hits += 1;
                        return Err(self.log[bad].corruption(bad));
                    }
                }
                while self.log.len() > first {
                    restored += self.pop(net)?;
                }
            }
            if self.rungs[target].is_some() {
                pruned += self.push(net, HopAt::Rung(target))?;
            }
        }
        Ok(Transition {
            from,
            to: self.current_level(),
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

    /// Applies a hop to the live weights, capturing the parent bits of
    /// every position it writes into a pooled segment pushed on top of
    /// the log (and mirrored into the shadow, if on).
    fn push(&mut self, net: &mut Network, at: HopAt) -> Result<usize> {
        let mut seg = self
            .pool
            .pop()
            .unwrap_or_else(|| LevelDelta::with_precision(self.precision));
        let cap = seg.capacity_sig();
        let hop = self.hop(at);
        seg.reset(hop.level, hop.kind);
        for l in &hop.layers {
            let data = net.weight_mut(l.layer)?.data_mut();
            let start = seg.indices.len();
            seg.indices.extend_from_slice(&l.indices);
            match &mut seg.values {
                DeltaValues::Exact(vs) => l.write(data, |w| vs.push(w)),
                DeltaValues::Half(vs) => l.write(data, |w| vs.push(f32_to_f16_bits(w))),
            }
            seg.spans.push(LayerSpan {
                layer: l.layer,
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

    /// Pops the top segment and writes its parent bits back. With
    /// verify-on-pop on, a segment failing its checksum is left on the
    /// log, untouched: the caller decides whether to repair it or
    /// escalate to a coarser restore path.
    fn pop(&mut self, net: &mut Network) -> Result<usize> {
        let segment = self.log.len() - 1;
        if self.verify_on_pop {
            if !self.log[segment].verify() {
                self.stats.corruption_hits += 1;
                return Err(self.log[segment].corruption(segment));
            }
            self.stats.pops_verified += 1;
        }
        let delta = self.log.pop().expect("segment index checked above");
        if let Some(shadow) = &mut self.shadow {
            if let Some(sh) = shadow.pop() {
                self.shadow_pool.push(sh);
            }
        }
        let count = delta.len();
        Self::apply_segment(&delta, net)?;
        // The pop mirrors the push order, so LIFO reuse hands each
        // future push a buffer already sized for its hop.
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
        self.ladder.level(self.current_level())?.masks.apply(net)
    }

    /// Verifies that the network's prunable weights are bit-identical to
    /// the state captured at attach time. Only meaningful at level 0.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::IntegrityViolation`] on any difference, or
    /// [`PruneError::NotRestorable`] when called above level 0.
    pub fn verify_restored(&self, net: &Network) -> Result<()> {
        if self.current_level() != 0 {
            return Err(PruneError::NotRestorable {
                message: format!(
                    "verify_restored requires level 0, pruner is at level {}",
                    self.current_level()
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
        if self.current_level() != 0 {
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
                return Err(d.corruption(segment));
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
            Err(self.log[segment].corruption(segment))
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
            return Err(src.corruption(segment));
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

    /// Rebuilds the reversal log from recovered spill segments: matches
    /// each segment to the attach-time hop that pushed it, replays those
    /// hops forward on `net` (which must hold the pristine full-capacity
    /// image) without capturing anything, and pushes the segments
    /// verbatim, leaving the pruner parked where the segments end.
    ///
    /// Verbatim means checksums included, so a segment that was corrupt
    /// at crash time is corrupt again after recovery, exactly as the
    /// paper's defense chain expects to find it; weight patches the
    /// recovery applies afterwards reproduce post-hop drift on top. The
    /// tune hops of a fine-tuned ladder come from its tune record, so
    /// recovery attaches with [`ReversiblePruner::attach_recorded`]
    /// before calling this.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::NotRestorable`] unless called on a fresh
    /// level-0 pruner with an empty log, [`PruneError::MaskMismatch`]
    /// when `net` does not fit the ladder, and [`PruneError::SpillDecode`]
    /// when the segments are not the canonical walk (for each level its
    /// eviction hop, then its tune hop if it has one, stopping on a
    /// level boundary, plus at most one rung hop of the level reached),
    /// when a segment's positions differ from its hop's, or when they
    /// index weights the network does not have.
    pub fn install_log(&mut self, net: &mut Network, segments: Vec<LevelDelta>) -> Result<()> {
        if !self.log.is_empty() {
            return Err(PruneError::NotRestorable {
                message: "install_log requires a fresh pruner at level 0".into(),
            });
        }
        self.ladder.level(0)?.masks.validate_against(net)?;
        let mut hops = Vec::with_capacity(segments.len());
        for (k, seg) in segments.iter().enumerate() {
            let tagged = |h: &&Hop| h.kind == seg.kind && h.level == seg.to_level;
            let reached = k.checked_sub(1).map_or(0, |j| self.walk[j].level);
            let at = if self.walk.get(k).filter(tagged).is_some() {
                HopAt::Walk(k)
            } else if k + 1 == segments.len()
                && self.rungs[reached].as_ref().filter(tagged).is_some()
            {
                HopAt::Rung(reached)
            } else {
                return Err(PruneError::spill_decode(format!(
                    "segment {k} ({:?} at level {}) is not the next hop of the ladder walk",
                    seg.kind, seg.to_level
                )));
            };
            let hop = self.hop(at);
            if !hop.same_positions(seg) {
                return Err(PruneError::spill_decode(format!(
                    "segment {k} lists other positions than its {:?} hop at level {}",
                    hop.kind, hop.level
                )));
            }
            for l in &hop.layers {
                let len = net.weight(l.layer)?.len();
                if l.indices.last().is_some_and(|&i| i as usize >= len) {
                    return Err(PruneError::spill_decode(format!(
                        "segment {k} indexes past the {len} weights of layer {}",
                        l.layer
                    )));
                }
            }
            hops.push(at);
        }
        let walked = segments.len() - usize::from(matches!(hops.last(), Some(HopAt::Rung(_))));
        if walked > 0
            && self
                .walk
                .get(walked)
                .is_some_and(|h| h.level == self.walk[walked - 1].level)
        {
            return Err(PruneError::spill_decode(format!(
                "the log stops inside level {}'s hops",
                self.walk[walked].level
            )));
        }
        for (seg, at) in segments.into_iter().zip(hops) {
            for l in &self.hop(at).layers {
                l.write(net.weight_mut(l.layer)?.data_mut(), |_| {});
            }
            if let Some(shadow) = &mut self.shadow {
                shadow.push(seg.clone());
            }
            self.log.push(seg);
        }
        Ok(())
    }

    fn hop(&self, at: HopAt) -> &Hop {
        match at {
            HopAt::Walk(i) => &self.walk[i],
            HopAt::Rung(level) => self.rungs[level]
                .as_ref()
                .expect("only int8 levels are addressed as rungs"),
        }
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
        // Two spans, the first claiming entries 0..9 of the two-entry
        // arena: spans must tile the entries, not merely end inside them.
        let mut two_spans = PINNED[..24].to_vec();
        for word in [2u32, 0, 0, 9, 1, 0, 2] {
            two_spans.extend_from_slice(&word.to_le_bytes());
        }
        two_spans.extend_from_slice(&PINNED[40..]);
        assert!(matches!(
            LevelDelta::from_spill_payload(&two_spans),
            Err(PruneError::SpillDecode { .. })
        ));

        // A precision and a fine-tune segment: their tag words and
        // checksum domain words cannot drift either.
        const PINNED_PRECISION: [u8; 60] = [
            2, 0, 0, 0, // to_level
            1, 0, 0, 0, // kind: precision
            0, 0, 0, 0, // value precision: exact
            1, 0, 0, 0, // seal version: blocked hash
            0xA0, 0x66, 0x6A, 0xB5, 0x5E, 0xBE, 0xAB, 0xEF, // seal
            1, 0, 0, 0, // span count
            1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, // span: layer 1, entries 0..2
            2, 0, 0, 0, // entry count
            0, 0, 0, 0, 5, 0, 0, 0, // indices
            0, 0, 0x80, 0x3E, 0, 0, 0x40, 0xC0, // values: 0.25, -3.0
        ];
        const PINNED_TUNE: [u8; 72] = [
            1, 0, 0, 0, // to_level
            2, 0, 0, 0, // kind: fine-tune
            0, 0, 0, 0, // value precision: exact
            1, 0, 0, 0, // seal version: blocked hash
            0x79, 0x87, 0x99, 0x67, 0x2D, 0x4F, 0xA2, 0xC3, // seal
            2, 0, 0, 0, // span count
            0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // span: layer 0, entries 0..1
            2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // span: layer 2, entries 1..2
            2, 0, 0, 0, // entry count
            4, 0, 0, 0, 1, 0, 0, 0, // indices
            0, 0, 0, 0x3F, 0, 0, 0x80, 0xBF, // values: 0.5, -1.0
        ];
        let exact = |layer: usize, i: u32, v: f32| LayerDelta {
            layer: LayerId(layer),
            indices: vec![i],
            values: DeltaValues::Exact(vec![v]),
        };
        let mut precision = LevelDelta::new(
            2,
            vec![LayerDelta {
                layer: LayerId(1),
                indices: vec![0, 5],
                values: DeltaValues::Exact(vec![0.25, -3.0]),
            }],
        );
        precision.kind = DeltaKind::Precision;
        precision.seal();
        let mut tune = LevelDelta::new(1, vec![exact(0, 4, 0.5), exact(2, 1, -1.0)]);
        tune.kind = DeltaKind::FineTune;
        tune.seal();
        for (seg, pinned) in [(precision, &PINNED_PRECISION[..]), (tune, &PINNED_TUNE[..])] {
            assert_eq!(seg.to_spill_payload(), pinned);
            let decoded = LevelDelta::from_spill_payload(pinned).unwrap();
            assert_eq!(decoded, seg);
            assert!(decoded.verify());
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
        assert_eq!(top.len(), p.hop_entries(0, 1).rung);
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
        assert_eq!(up.weights_pruned, evicted + p.hop_entries(0, 1).rung);
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
            p.ladder().level(1).unwrap().masks.pruned_count() + p.hop_entries(0, 1).rung;
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
        assert!(p.hop_entries(0, 2).tune > 0);
        assert!(p.hop_entries(0, 1).tune > 0, "training changed no weights");
        assert_eq!(
            p.hop_entries(0, 2).tune,
            p.hop_entries(0, 1).tune + p.hop_entries(1, 2).tune
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
        // A second deterministic attach rebuilds the same tune hops,
        // then installs the spilled segments.
        let (mut net2, mut p2) = ft_attach(vec![0.0, 0.4, 0.8], 15);
        p2.install_log(&mut net2, segments).unwrap();
        assert_eq!(p2.current_level(), 2);
        assert_eq!(net2, crashed, "recovered weights differ from crashed state");
        p2.set_level(&mut net2, 0).unwrap();
        p2.verify_restored(&net2).unwrap();
    }

    #[test]
    fn recorded_attach_equals_the_trained_one() {
        use crate::ladder::FineTuneSpec;
        use reprune_nn::dataset::SceneDataset;
        use PrecisionMode::{Int8, F32};
        let data = SceneDataset::builder().samples(24).seed(4041).build();
        let cases = [
            (
                vec![0.0, 0.4, 0.8],
                vec![F32; 3],
                PruneCriterion::Magnitude,
                7,
            ),
            (
                vec![0.0, 0.3, 0.6, 0.9],
                vec![F32, F32, Int8, Int8],
                PruneCriterion::ChannelL2,
                23,
            ),
        ];
        for (levels, precisions, criterion, seed) in cases {
            let original = models::default_perception_cnn(21).unwrap();
            let ladder = LadderConfig::new(levels)
                .criterion(criterion)
                .precisions(precisions)
                .fine_tune(FineTuneSpec {
                    steps: 3,
                    lr: 0.01,
                    seed,
                })
                .build(&original)
                .unwrap();
            let mut net = original.clone();
            let mut trained =
                ReversiblePruner::attach_fine_tuned(&mut net, ladder.clone(), data.samples())
                    .unwrap();
            let record = trained.tune_record();
            let mut rec_net = original.clone();
            let mut recorded =
                ReversiblePruner::attach_recorded(&mut rec_net, ladder, &record).unwrap();
            // Walk, hops, segment pool and integrity counters alike.
            assert_eq!(recorded, trained);
            assert_eq!(
                trained.integrity_stats().pops_verified,
                trained.walk.len() as u64,
                "attach walks every hop up and back down once"
            );
            assert_eq!(recorded.tune_record(), record);
            assert_eq!(rec_net, original);
            let n = trained.ladder().num_levels();
            assert!(
                trained.hop_entries(0, n - 1).tune > 0,
                "training changed no weights"
            );
            for low in 0..n {
                for high in low..n {
                    assert_eq!(
                        recorded.hop_entries(low, high),
                        trained.hop_entries(low, high)
                    );
                }
            }
            for level in (0..n).chain((0..n).rev()) {
                trained.set_level(&mut net, level).unwrap();
                recorded.set_level(&mut rec_net, level).unwrap();
                assert_eq!(rec_net, net, "level {level}");
                assert_eq!(recorded.log_segments(), trained.log_segments());
                for i in 0..trained.log_segments() {
                    assert_eq!(
                        recorded.log_segment(i).unwrap().to_spill_payload(),
                        trained.log_segment(i).unwrap().to_spill_payload(),
                        "segment {i} at level {level}"
                    );
                }
            }
        }
    }

    /// A fine-tuned ladder on a three-layer MLP, whose tune record is
    /// small enough to cut at every byte.
    fn small_ft() -> (Network, SparsityLadder, ReversiblePruner) {
        use crate::ladder::FineTuneSpec;
        let net = models::control_mlp(6, &[12, 8], 4, 3).unwrap();
        let data = reprune_nn::dataset::BlobsDataset::generate(12, 6, 4, 0.4, 5);
        let ladder = LadderConfig::new(vec![0.0, 0.4, 0.8])
            .fine_tune(FineTuneSpec {
                steps: 2,
                lr: 0.05,
                seed: 5,
            })
            .build(&net)
            .unwrap();
        let p =
            ReversiblePruner::attach_fine_tuned(&mut net.clone(), ladder.clone(), data.samples())
                .unwrap();
        (net, ladder, p)
    }

    /// Byte offsets of every count word in a tune record: the hop
    /// count, each hop's layer count and each layer's position count.
    fn count_word_offsets(record: &[u8]) -> Vec<usize> {
        let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().unwrap()) as usize;
        let mut offsets = vec![0];
        let mut at = 4;
        for _ in 0..word(0) {
            offsets.push(at + 4);
            let layers = word(at + 4);
            at += 8;
            for _ in 0..layers {
                offsets.push(at + 4);
                at += 8 + 8 * word(at + 4);
            }
        }
        assert_eq!(at, record.len(), "the walk covers the whole record");
        offsets
    }

    #[test]
    fn tune_record_decode_rejects_hostile_input() {
        let (net, ladder, p) = small_ft();
        let record = p.tune_record();
        let rejects = |bytes: &[u8]| {
            matches!(
                ReversiblePruner::attach_recorded(&mut net.clone(), ladder.clone(), bytes),
                Err(PruneError::SpillDecode { .. })
            )
        };
        assert!(!rejects(&record), "the valid record attaches");
        for cut in 0..record.len() {
            assert!(
                rejects(&record[..cut]),
                "record cut at byte {cut} was accepted"
            );
        }
        let offsets = count_word_offsets(&record);
        assert!(
            offsets.len() >= 5,
            "two hops of several layers: {offsets:?}"
        );
        for &at in &offsets {
            let original = u32::from_le_bytes(record[at..at + 4].try_into().unwrap());
            for word in [0u32, 1, u32::MAX] {
                if word == original {
                    continue;
                }
                let mut hostile = record.clone();
                hostile[at..at + 4].copy_from_slice(&word.to_le_bytes());
                assert!(
                    rejects(&hostile),
                    "count word {word} at byte {at} was accepted"
                );
            }
        }

        let tunes: Vec<Hop> = p
            .walk
            .iter()
            .filter(|h| h.kind == DeltaKind::FineTune)
            .cloned()
            .collect();
        assert_eq!(encode_tune_hops(tunes.iter()), record);
        let mutated = |edit: &dyn Fn(&mut Vec<Hop>)| {
            let mut hops = tunes.clone();
            edit(&mut hops);
            encode_tune_hops(hops.iter())
        };
        let insert_position = |hop: &mut Hop, layer: usize, i: u32| {
            let l = &mut hop.layers[layer];
            let at = l.indices.partition_point(|&p| p < i);
            l.indices.insert(at, i);
            if let Rule::Tuned(values) = &mut l.rule {
                values.insert(at, 0.5);
            }
        };
        let len_of = |hop: &Hop, layer: usize| net.weight(hop.layers[layer].layer).unwrap().len();
        let pruned_at = |hop: &Hop, layer: usize| {
            let masks = &ladder.level(hop.level).unwrap().masks;
            masks
                .get(hop.layers[layer].layer)
                .unwrap()
                .pruned_indices()
                .next()
                .unwrap() as u32
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("level out of range", mutated(&|h| h[1].level = 3)),
            ("level zero", mutated(&|h| h[0].level = 0)),
            ("levels out of order", mutated(&|h| h.swap(0, 1))),
            ("level repeated", mutated(&|h| h[1].level = h[0].level)),
            (
                "unknown layer",
                mutated(&|h| h[0].layers[0].layer = LayerId(999)),
            ),
            (
                "non-prunable layer",
                mutated(&|h| h[0].layers[0].layer = LayerId(1)),
            ),
            ("layers out of order", mutated(&|h| h[0].layers.swap(0, 1))),
            (
                "layer repeated",
                mutated(&|h| h[0].layers[1].layer = h[0].layers[0].layer),
            ),
            (
                "position out of range",
                mutated(&|h| {
                    let len = len_of(&h[0], 0) as u32;
                    insert_position(&mut h[0], 0, len);
                }),
            ),
            (
                "positions out of order",
                mutated(&|h| h[0].layers[0].indices.swap(0, 1)),
            ),
            (
                "position repeated",
                mutated(&|h| h[0].layers[0].indices[1] = h[0].layers[0].indices[0]),
            ),
            (
                "position pruned at its level",
                mutated(&|h| {
                    let i = pruned_at(&h[1], 0);
                    insert_position(&mut h[1], 0, i);
                }),
            ),
            ("trailing word", [record.as_slice(), &[0; 4]].concat()),
            ("trailing byte", [record.as_slice(), &[7]].concat()),
            ("missing on a tuned ladder", Vec::new()),
        ];
        for (what, bytes) in cases {
            assert!(rejects(&bytes), "{what} was accepted");
        }
        // Present on a ladder without a fine-tune spec.
        let plain = LadderConfig::new(vec![0.0, 0.4, 0.8]).build(&net).unwrap();
        assert!(matches!(
            ReversiblePruner::attach_recorded(&mut net.clone(), plain.clone(), &record),
            Err(PruneError::SpillDecode { .. })
        ));
        let mut plain_net = net.clone();
        let recorded =
            ReversiblePruner::attach_recorded(&mut plain_net, plain.clone(), &[]).unwrap();
        assert_eq!(recorded, ReversiblePruner::attach(&net, plain).unwrap());
    }

    #[test]
    fn tune_record_keeps_special_tuned_values_bit_exact() {
        let (net, ladder, p) = small_ft();
        let specials = [
            f32::NAN.to_bits(),
            0xFFC0_0000, // negative quiet NaN
            0x7F80_0001, // signaling NaN
            0x8000_0000, // -0.0
            0x0000_0000, // +0.0
            0x0000_0001, // smallest denormal
            f32::NEG_INFINITY.to_bits(),
        ];
        let mut tunes: Vec<Hop> = p
            .walk
            .iter()
            .filter(|h| h.kind == DeltaKind::FineTune)
            .cloned()
            .collect();
        let mut bits = specials.iter().cycle();
        for l in tunes.iter_mut().flat_map(|h| &mut h.layers) {
            if let Rule::Tuned(values) = &mut l.rule {
                for v in values {
                    *v = f32::from_bits(*bits.next().unwrap());
                }
            }
        }
        let record = encode_tune_hops(tunes.iter());
        let mut rec_net = net.clone();
        let mut recorded =
            ReversiblePruner::attach_recorded(&mut rec_net, ladder, &record).unwrap();
        assert_eq!(recorded.tune_record(), record);
        // The top level runs on exactly the recorded bits.
        recorded.set_level(&mut rec_net, 2).unwrap();
        let top = tunes.last().unwrap();
        for l in &top.layers {
            let Rule::Tuned(values) = &l.rule else {
                unreachable!()
            };
            let data = rec_net.weight(l.layer).unwrap().data();
            for (&i, v) in l.indices.iter().zip(values) {
                assert_eq!(data[i as usize].to_bits(), v.to_bits());
            }
        }
        recorded.set_level(&mut rec_net, 0).unwrap();
        recorded.verify_restored(&rec_net).unwrap();
    }

    #[test]
    fn fine_tuned_attach_leaves_a_batchnorm_network_equal() {
        use crate::ladder::FineTuneSpec;
        use reprune_nn::dataset::{SceneDataset, SCENE_CLASSES};
        let original = models::perception_cnn_deep(SCENE_CLASSES, 5).unwrap();
        let data = SceneDataset::builder().samples(16).seed(4041).build();
        let ladder = LadderConfig::new(vec![0.0, 0.5])
            .fine_tune(FineTuneSpec {
                steps: 2,
                lr: 0.01,
                seed: 3,
            })
            .build(&original)
            .unwrap();
        let mut net = original.clone();
        let p = ReversiblePruner::attach_fine_tuned(&mut net, ladder, data.samples()).unwrap();
        assert!(p.hop_entries(0, 1).tune > 0, "training changed no weights");
        assert_eq!(
            net, original,
            "attach must not move the caller's BatchNorm statistics or optimizer state"
        );
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
        // A level's tune segment missing from the walk.
        let first_tune = segs
            .iter()
            .position(|s| s.kind == DeltaKind::FineTune)
            .unwrap();
        let mut missing = segs.clone();
        missing.remove(first_tune);
        let err = p2.install_log(&mut net2, missing).unwrap_err();
        assert!(matches!(err, PruneError::SpillDecode { .. }), "{err}");
        // A resealed segment listing other positions than its hop.
        let mut moved = segs.clone();
        moved[0].indices[0] += 1;
        moved[0].seal();
        let err = p2.install_log(&mut net2, moved).unwrap_err();
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
