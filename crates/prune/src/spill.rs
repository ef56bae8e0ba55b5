//! On-disk record framing for reversal-log spilling.
//!
//! The durable reversal log is a flat byte stream of framed records:
//!
//! ```text
//! | magic u32 | kind u32 | payload_len u32 | payload (padded to 4 B) | seal u64 |
//! ```
//!
//! All integers are little-endian. The seal is a [`BlockedHasher`]
//! digest over the three header words plus the padded payload words, so
//! a torn write (partial frame), a bit flip on media, or garbage after
//! a tail truncation all fail verification. [`scan`] walks a byte
//! stream record by record and stops at the **first** frame that does
//! not verify, returning the prefix length that did — the recovery
//! truncation point. Everything the stream's *owner* means by a record
//! (segment encoding, checkpoint layout) lives with the owner; this
//! module only knows bytes, seals, and the three record kinds.

use crate::checksum::BlockedHasher;
use crate::{PruneError, Result};
use reprune_nn::{LayerId, Network};

/// First word of every framed record (`RPLG`).
pub const RECORD_MAGIC: u32 = 0x5250_4C47;

/// Fixed frame overhead: 12 header bytes + 8 seal bytes.
pub const FRAME_OVERHEAD: usize = 20;

/// What a framed record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// Full pristine image of all prunable weights, then the pruner's
    /// tune record (written once when spilling is enabled; recovery's
    /// ground truth).
    Base,
    /// One sealed reversal-log segment ([`crate::pruner::LevelDelta`]).
    Segment,
    /// A commit mark: full runtime-state checkpoint whose manifest
    /// names the durable segments it depends on.
    Mark,
}

impl RecordKind {
    fn from_u32(v: u32) -> Option<RecordKind> {
        match v {
            0 => Some(RecordKind::Base),
            1 => Some(RecordKind::Segment),
            2 => Some(RecordKind::Mark),
            _ => None,
        }
    }

    fn as_u32(self) -> u32 {
        match self {
            RecordKind::Base => 0,
            RecordKind::Segment => 1,
            RecordKind::Mark => 2,
        }
    }
}

/// Padded payload length: payloads are stored word-aligned.
fn padded_len(payload_len: usize) -> usize {
    payload_len.div_ceil(4) * 4
}

/// Total frame bytes for a payload of `payload_len` bytes, or `None`
/// when the arithmetic would overflow `usize` — the header length word
/// is untrusted media input, so a hostile or corrupt `payload_len` must
/// not wrap into a small (seemingly in-bounds) frame length.
pub fn framed_len_checked(payload_len: usize) -> Option<usize> {
    // After the checked +3, the round-down-divide-then-multiply can't
    // exceed the sum, so only the header/seal addition needs checking.
    let padded = payload_len.checked_add(3)? / 4 * 4;
    padded.checked_add(FRAME_OVERHEAD)
}

/// Total frame bytes for a payload of `payload_len` bytes.
///
/// # Panics
///
/// Panics on lengths that overflow the frame arithmetic; writers frame
/// in-memory payloads whose lengths are always far below that. Untrusted
/// lengths read from media go through [`framed_len_checked`].
pub fn framed_len(payload_len: usize) -> usize {
    framed_len_checked(payload_len).expect("payload length overflows frame arithmetic")
}

/// Hashes the (zero-padded) payload words into `h`.
fn write_padded_words(h: &mut BlockedHasher, payload: &[u8]) {
    for chunk in payload.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        h.write_u32(u32::from_le_bytes(w));
    }
}

/// The frame seal: header words + padded payload words.
fn seal_of(kind: RecordKind, payload: &[u8]) -> u64 {
    let mut h = BlockedHasher::new();
    h.write_u32(RECORD_MAGIC);
    h.write_u32(kind.as_u32());
    h.write_u32(payload.len() as u32);
    write_padded_words(&mut h, payload);
    h.finish()
}

/// Content hash of a payload alone (no frame header) — used by commit
/// marks to name the exact segment bytes they depend on.
pub fn payload_hash(payload: &[u8]) -> u64 {
    let mut h = BlockedHasher::new();
    h.write_u32(payload.len() as u32);
    write_padded_words(&mut h, payload);
    h.finish()
}

/// Frames `payload` as a sealed on-disk record.
pub fn frame_record(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let padded = padded_len(payload.len());
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + padded);
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&kind.as_u32().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.resize(12 + padded, 0);
    out.extend_from_slice(&seal_of(kind, payload).to_le_bytes());
    out
}

/// One record recovered by [`scan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The record kind.
    pub kind: RecordKind,
    /// The unpadded payload bytes.
    pub payload: Vec<u8>,
    /// Byte offset of the frame start in the scanned stream.
    pub offset: u64,
    /// Total frame bytes (header + padded payload + seal).
    pub frame_len: u64,
}

/// Result of walking a durable-log byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Every record that verified, in stream order.
    pub records: Vec<Record>,
    /// Bytes of the longest valid record prefix. Recovery truncates
    /// the device to this length, discarding any torn tail.
    pub valid_len: u64,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

/// Walks `bytes` record by record, verifying each frame seal, and
/// stops at the first frame that is incomplete, malformed, or fails
/// its seal. Never panics on arbitrary input.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        if bytes.len().saturating_sub(off) < 12 {
            break;
        }
        if read_u32(bytes, off) != RECORD_MAGIC {
            break;
        }
        let Some(kind) = RecordKind::from_u32(read_u32(bytes, off + 4)) else {
            break;
        };
        let plen = read_u32(bytes, off + 8) as usize;
        let Some(flen) = framed_len_checked(plen) else {
            break; // hostile length word: treat as a torn tail
        };
        if bytes.len().saturating_sub(off) < flen {
            break;
        }
        let payload = &bytes[off + 12..off + 12 + plen];
        let seal = u64::from_le_bytes(
            bytes[off + 12 + padded_len(plen)..off + flen]
                .try_into()
                .expect("bounds checked"),
        );
        if seal_of(kind, payload) != seal {
            break;
        }
        records.push(Record {
            kind,
            payload: payload.to_vec(),
            offset: off as u64,
            frame_len: flen as u64,
        });
        off += flen;
    }
    ScanOutcome {
        records,
        valid_len: off as u64,
    }
}

/// Whether `bytes` is exactly one valid frame (read-back verification
/// after an append).
pub fn verify_frame(bytes: &[u8]) -> bool {
    let outcome = scan(bytes);
    outcome.records.len() == 1 && outcome.valid_len == bytes.len() as u64
}

// ---------------------------------------------------------------------
// Payload cursors
// ---------------------------------------------------------------------

/// Little-endian byte-buffer writer for record payloads.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty writer.
    pub fn new() -> Self {
        PayloadWriter { buf: Vec::new() }
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (NaN- and infinity-preserving).
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian cursor over a record payload. Every getter returns
/// `None` past the end instead of panicking — decoders turn that into
/// a [`PruneError::SpillDecode`].
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A cursor at the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        PayloadReader { buf: payload, pos: 0 }
    }

    /// Reads the next `u32`, if present.
    pub fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        if end > self.buf.len() {
            return None;
        }
        let v = u32::from_le_bytes(self.buf[self.pos..end].try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    /// Reads the next `u64`, if present.
    pub fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        if end > self.buf.len() {
            return None;
        }
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    /// Reads the next `f64` by bit pattern, if present.
    pub fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Skips the next `n` bytes, if present.
    pub(crate) fn skip(&mut self, n: usize) -> Option<()> {
        if n > self.remaining() {
            return None;
        }
        self.pos += n;
        Some(())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole payload was consumed.
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }
}

// ---------------------------------------------------------------------
// Base-image codec
// ---------------------------------------------------------------------

/// Serializes the full pristine prunable-weight image (plus the log's
/// value precision, so recovery can re-attach in the same mode).
/// `precision_flag` is 0 for exact logs, 1 for binary16 logs. A base
/// record may carry a tail after the image ([`split_base`]).
pub fn encode_base(net: &Network, precision_flag: u32) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u32(precision_flag);
    let layers = net.prunable_layers();
    w.put_u32(layers.len() as u32);
    for meta in &layers {
        w.put_u32(meta.id.0 as u32);
        let data = net
            .weight(meta.id)
            .expect("prunable layer listed by the network")
            .data();
        w.put_u32(data.len() as u32);
        for v in data {
            w.put_u32(v.to_bits());
        }
    }
    w.into_bytes()
}

/// Splits a base record's payload into the [`encode_base`] weight image
/// and the tail its writer appended after it (the pruner's tune record,
/// empty for untuned ladders). Reads only the image's layer headers;
/// [`apply_base`] checks the image against a network.
///
/// # Errors
///
/// Returns [`PruneError::SpillDecode`] when the layer headers or
/// weights run past the payload.
pub fn split_base(payload: &[u8]) -> Result<(&[u8], &[u8])> {
    let err = |what: &str| PruneError::spill_decode(format!("base image: {what}"));
    let mut r = PayloadReader::new(payload);
    r.u32().ok_or_else(|| err("missing precision"))?;
    let layer_count = r.u32().ok_or_else(|| err("missing layer count"))?;
    for _ in 0..layer_count {
        r.u32().ok_or_else(|| err("missing layer id"))?;
        let len = r.u32().ok_or_else(|| err("missing layer length"))? as usize;
        r.skip(4 * len).ok_or_else(|| err("truncated weights"))?;
    }
    Ok(payload.split_at(payload.len() - r.remaining()))
}

/// Applies a [`encode_base`] payload onto `net`'s prunable weights,
/// returning the recorded precision flag. The whole payload is
/// validated before any weight is written, so a rejected payload leaves
/// `net` untouched.
///
/// # Errors
///
/// Returns [`PruneError::SpillDecode`] when the payload is truncated,
/// has trailing bytes, or names layers/shapes the network does not have.
pub fn apply_base(net: &mut Network, payload: &[u8]) -> Result<u32> {
    let err = |what: &str| PruneError::spill_decode(format!("base image: {what}"));
    let mut r = PayloadReader::new(payload);
    let precision = r.u32().ok_or_else(|| err("missing precision"))?;
    let layer_count = r.u32().ok_or_else(|| err("missing layer count"))? as usize;
    // Each layer's id and the byte offset of its weights.
    let mut layers = Vec::new();
    for _ in 0..layer_count {
        let id = LayerId(r.u32().ok_or_else(|| err("missing layer id"))? as usize);
        let len = r.u32().ok_or_else(|| err("missing layer length"))? as usize;
        let held = net
            .weight(id)
            .map_err(|e| err(&format!("unknown layer {id}: {e}")))?
            .len();
        if held != len {
            return Err(err(&format!(
                "layer {id} holds {held} weights, image has {len}"
            )));
        }
        let start = payload.len() - r.remaining();
        r.skip(4 * len).ok_or_else(|| err("truncated weights"))?;
        layers.push((id, start));
    }
    if !r.done() {
        return Err(err("trailing bytes"));
    }
    for (id, offset) in layers {
        let data = net.weight_mut(id)?.data_mut();
        let bytes = &payload[offset..offset + 4 * data.len()];
        for (slot, word) in data.iter_mut().zip(bytes.chunks_exact(4)) {
            *slot = f32::from_bits(u32::from_le_bytes(word.try_into().expect("4-byte chunk")));
        }
    }
    Ok(precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprune_nn::models;

    #[test]
    fn frame_and_scan_round_trip() {
        let a = frame_record(RecordKind::Base, b"hello");
        let b = frame_record(RecordKind::Segment, &[]);
        let c = frame_record(RecordKind::Mark, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&c);
        let out = scan(&stream);
        assert_eq!(out.valid_len, stream.len() as u64);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].kind, RecordKind::Base);
        assert_eq!(out.records[0].payload, b"hello");
        assert_eq!(out.records[1].payload, Vec::<u8>::new());
        assert_eq!(out.records[2].kind, RecordKind::Mark);
        assert_eq!(out.records[1].offset, a.len() as u64);
        assert_eq!(out.records[2].frame_len, c.len() as u64);
        assert!(verify_frame(&a));
        assert!(!verify_frame(&stream), "multi-record stream is not one frame");
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let a = frame_record(RecordKind::Segment, &[9; 13]);
        let b = frame_record(RecordKind::Segment, &[7; 40]);
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b[..b.len() - 5]); // torn mid-seal
        let out = scan(&stream);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.valid_len, a.len() as u64, "torn frame is discarded");
    }

    #[test]
    fn scan_stops_on_flipped_bit_and_garbage() {
        let mut a = frame_record(RecordKind::Mark, &[5; 24]);
        let good_len = a.len() as u64;
        a.extend_from_slice(&frame_record(RecordKind::Mark, &[6; 24]));
        a[good_len as usize + 14] ^= 0x10; // corrupt the second frame
        let out = scan(&a);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.valid_len, good_len);
        assert_eq!(scan(b"not a log at all").records.len(), 0);
        assert_eq!(scan(&[]).valid_len, 0);
    }

    #[test]
    fn scan_rejects_hostile_length_words() {
        // A frame header claiming a payload near the u32 ceiling: the
        // length arithmetic must not wrap, and the scan must stop at the
        // previous record instead of panicking or over-reading.
        let good = frame_record(RecordKind::Segment, &[3; 16]);
        for plen in [u32::MAX, u32::MAX - 3, u32::MAX - 19, 0x8000_0000] {
            let mut stream = good.clone();
            stream.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
            stream.extend_from_slice(&RecordKind::Segment.as_u32().to_le_bytes());
            stream.extend_from_slice(&plen.to_le_bytes());
            stream.extend_from_slice(&[0xAB; 64]);
            let out = scan(&stream);
            assert_eq!(out.records.len(), 1, "plen {plen:#x}");
            assert_eq!(out.valid_len, good.len() as u64, "plen {plen:#x}");
        }
    }

    #[test]
    fn framed_len_checked_rejects_overflow() {
        assert_eq!(framed_len_checked(0), Some(FRAME_OVERHEAD));
        assert_eq!(framed_len_checked(5), Some(FRAME_OVERHEAD + 8));
        assert_eq!(framed_len_checked(usize::MAX), None);
        assert_eq!(framed_len_checked(usize::MAX - 2), None);
        // Padding fits, but adding the frame overhead would wrap.
        assert_eq!(framed_len_checked(usize::MAX - 3 - 4), None);
        // Largest representable payload.
        let max_ok = usize::MAX - 3 - FRAME_OVERHEAD;
        let max_ok = max_ok - (max_ok % 4);
        assert!(framed_len_checked(max_ok).is_some());
    }

    #[test]
    fn payload_hash_tracks_content_not_frame() {
        assert_eq!(payload_hash(b"abc"), payload_hash(b"abc"));
        assert_ne!(payload_hash(b"abc"), payload_hash(b"abd"));
        // Padding must not collide length-distinct payloads.
        assert_ne!(payload_hash(&[0, 0, 0]), payload_hash(&[0, 0, 0, 0]));
    }

    #[test]
    fn payload_cursor_round_trip() {
        let mut w = PayloadWriter::new();
        assert!(w.is_empty());
        w.put_u32(7);
        w.put_u64(u64::MAX - 3);
        w.put_f64_bits(f64::NEG_INFINITY);
        w.put_f64_bits(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f64_bits(), Some(f64::NEG_INFINITY));
        assert!(r.f64_bits().unwrap().is_nan());
        assert!(r.done());
        assert_eq!(r.u32(), None, "reads past the end are None, not panics");
    }

    #[test]
    fn base_image_round_trips_bit_exactly() {
        let original = models::default_perception_cnn(77).unwrap();
        let payload = encode_base(&original, 1);
        let mut clobbered = models::default_perception_cnn(78).unwrap();
        assert_ne!(original, clobbered);
        let precision = apply_base(&mut clobbered, &payload).unwrap();
        assert_eq!(precision, 1);
        for meta in original.prunable_layers() {
            assert_eq!(
                original.weight(meta.id).unwrap(),
                clobbered.weight(meta.id).unwrap()
            );
        }
    }

    #[test]
    fn base_image_rejects_mismatched_network() {
        let net = models::default_perception_cnn(79).unwrap();
        let payload = encode_base(&net, 0);
        let mut other = models::control_mlp(4, &[8], 2, 1).unwrap();
        assert!(matches!(
            apply_base(&mut other, &payload),
            Err(PruneError::SpillDecode { .. })
        ));
        assert!(matches!(
            apply_base(&mut net.clone(), &payload[..8]),
            Err(PruneError::SpillDecode { .. })
        ));
    }

    #[test]
    fn rejected_base_image_leaves_the_network_untouched() {
        let payload = encode_base(&models::default_perception_cnn(80).unwrap(), 0);
        let target = models::default_perception_cnn(81).unwrap();
        let layers = target.prunable_layers();
        // The last layer's header follows the precision and count words
        // and every earlier layer's id, length and weights.
        let last = 8 + layers[..layers.len() - 1]
            .iter()
            .map(|m| 8 + 4 * m.weight_len())
            .sum::<usize>();
        let mut unknown_layer = payload.clone();
        unknown_layer[last..last + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut wrong_size = payload.clone();
        let len = layers[layers.len() - 1].weight_len() as u32 + 1;
        wrong_size[last + 4..last + 8].copy_from_slice(&len.to_le_bytes());
        let mut trailing = payload.clone();
        trailing.extend_from_slice(&[0; 4]);
        for bad in [
            &payload[..payload.len() - 4],
            &unknown_layer[..],
            &wrong_size[..],
            &trailing[..],
        ] {
            let mut net = target.clone();
            assert!(matches!(
                apply_base(&mut net, bad),
                Err(PruneError::SpillDecode { .. })
            ));
            assert_eq!(net, target, "a rejected image must not write any weight");
        }
    }
}
