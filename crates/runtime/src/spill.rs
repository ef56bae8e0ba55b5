//! Durable reversal-log spill and crash recovery (DESIGN.md §13).
//!
//! The spill persists the runtime's reversal-log state into an
//! append-only [`DurableLog`] as sealed records (see
//! [`reprune_prune::spill`] for the frame codec):
//!
//! * one **base** record — the pristine prunable-weight image, written
//!   when spilling is enabled; recovery's ground truth,
//! * **segment** records — sealed [`LevelDelta`]s, re-appended whenever
//!   the in-RAM log gains a segment the device does not hold,
//! * **mark** records — full runtime-state checkpoints whose manifest
//!   names (by content hash) the durable segment records they depend
//!   on. The log is never rewritten in place: a mark *commits* the
//!   records before it, and recovery replays the latest mark whose
//!   manifest is satisfiable from the records on the device.
//!
//! Writes are amortized ([`SpillConfig::bytes_per_tick`], scaled by the
//! storage device's live bandwidth factor) and routed through
//! [`StorageHealth`], so storage fault windows stall spilling exactly
//! like they stall model reloads. Every append is read back and
//! re-verified: a torn write is truncated away and retried
//! ([`crate::trace::TraceEventKind::SpillTornRepair`]); a tail that
//! shrank behind our back (device truncation) is cut at the last whole
//! record and the lost records are re-queued
//! ([`crate::trace::TraceEventKind::SpillTailTruncated`]).

use crate::faults::OperatingState;
use crate::knowledge::{ExternalCap, Knowledge, PendingRestore, TickBudget};
use crate::plant::Plant;
use crate::restore::{ChainReport, RestoreChain};
use crate::trace::{ChainHop, StageId, TickTrace, TraceEventKind};
use reprune_nn::{LayerId, Network};
use reprune_platform::{Bytes, DurableLog, StorageHealth};
use reprune_prune::pruner::LevelDelta;
use reprune_prune::spill::{self as codec, PayloadReader, PayloadWriter, RecordKind};
use reprune_prune::{IntegrityStats, PrunerCursor, ReversiblePruner};
use std::collections::VecDeque;

/// Version tag of the mark payload layout. Version 2 dropped the
/// amortized restore budget and the two manual channel-failure flags.
/// Other versions do not decode, so a device whose marks are all of
/// another version resumes from tick 0 on its base record.
const MARK_VERSION: u32 = 2;

/// Configuration of the durable reversal-log spill.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillConfig {
    /// Append budget per tick, bytes, before bandwidth scaling. The
    /// first queued record of a tick is always allowed through so
    /// progress is guaranteed even when a record exceeds the budget.
    pub bytes_per_tick: usize,
    /// Backing file path; `None` keeps the log in memory (tests and
    /// crash simulation).
    pub path: Option<String>,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            bytes_per_tick: 8192,
            path: None,
        }
    }
}

impl SpillConfig {
    /// Default in-memory spill configuration.
    pub fn new() -> Self {
        SpillConfig::default()
    }

    /// Sets the per-tick append budget in bytes.
    pub fn bytes_per_tick(mut self, bytes: usize) -> Self {
        self.bytes_per_tick = bytes;
        self
    }

    /// Persists to a file at `path` instead of memory.
    pub fn path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }
}

/// Counters of the spill's persistence actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segment records appended.
    pub segments_spilled: u64,
    /// Commit marks appended.
    pub marks_written: u64,
    /// Bytes appended (verified records only).
    pub bytes_appended: u64,
    /// Torn appends detected by read-back and truncated away.
    pub torn_writes_repaired: u64,
    /// Device-tail truncations detected and cut to a record boundary.
    pub tail_truncations: u64,
    /// Ticks on which spilling could not progress (device refused or
    /// repeated torn writes).
    pub stalled_ticks: u64,
}

/// What [`crate::manager::RuntimeManager::recover`] found on the device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Whether a committed checkpoint was replayed (false: fresh start).
    pub resumed: bool,
    /// Scenario tick index to resume from (ticks already completed).
    pub resume_tick: usize,
    /// Valid records found on the device.
    pub records_scanned: usize,
    /// Commit marks among them.
    pub marks_seen: usize,
    /// Torn-tail bytes discarded before replay.
    pub bytes_discarded: u64,
    /// In-RAM log corruption deviations reproduced from the checkpoint.
    pub log_patches_applied: usize,
    /// Live-weight deviations (vs the fault-free twin) reproduced.
    pub weight_patches_applied: usize,
}

/// The spill's in-RAM image of one reversal-log segment.
#[derive(Debug, Clone)]
struct SegView {
    /// The segment's sealed checksum at encode time; a re-pushed
    /// segment re-derives its seal, so a mismatch means replacement.
    seal: u64,
    /// Content hash of `payload` (what marks put in their manifest).
    hash: u64,
    /// The encoded payload, retained so deviation scans and re-spills
    /// after tail loss never read the device.
    payload: Vec<u8>,
    /// A verified record with this content is on the device.
    durable: bool,
    /// The live in-RAM segment may have drifted from `payload`
    /// (bit-flips); the next mark diffs and records the deviations.
    dirty: bool,
}

/// Queued-for-append record.
#[derive(Debug, Clone)]
enum PendingKind {
    Base,
    Segment { index: usize, hash: u64 },
}

#[derive(Debug, Clone)]
struct Pending {
    kind: PendingKind,
    frame: Vec<u8>,
}

/// What one durable record on the device is (for tail-loss repair).
#[derive(Debug, Clone)]
enum EntryKind {
    Base,
    Segment { index: usize, hash: u64 },
    Mark,
}

#[derive(Debug, Clone)]
struct Entry {
    offset: u64,
    frame_len: u64,
    kind: EntryKind,
}

/// Live state of the durable spill: the device handle, the in-RAM view
/// of what the device holds, and the append queue.
#[derive(Debug)]
pub struct SpillState {
    log: DurableLog,
    config: SpillConfig,
    view: Vec<SegView>,
    pending: VecDeque<Pending>,
    entries: Vec<Entry>,
    /// Device length after the last verified append — a shorter device
    /// means the tail was lost behind our back.
    expected_len: u64,
    base_frame: Vec<u8>,
    base_durable: bool,
    stats: SpillStats,
}

impl SpillState {
    /// Wraps a device that already holds the given records.
    fn with_entries(
        log: DurableLog,
        config: SpillConfig,
        base_frame: Vec<u8>,
        base_durable: bool,
        entries: Vec<Entry>,
        view: Vec<SegView>,
    ) -> Self {
        let expected_len = log.len();
        SpillState {
            log,
            config,
            view,
            pending: VecDeque::new(),
            entries,
            expected_len,
            base_frame,
            base_durable,
            stats: SpillStats::default(),
        }
    }

    /// Wraps a freshly created device whose only record is the base
    /// image at offset 0 (appended by the caller).
    pub(crate) fn fresh(log: DurableLog, config: SpillConfig, base_frame: Vec<u8>) -> Self {
        let entry = Entry {
            offset: 0,
            frame_len: base_frame.len() as u64,
            kind: EntryKind::Base,
        };
        SpillState::with_entries(log, config, base_frame, true, vec![entry], Vec::new())
    }

    /// Persistence counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Bytes currently persisted on the device.
    pub fn durable_len(&self) -> u64 {
        self.log.len()
    }

    /// The sealed base-image frame (recovery's ground truth), kept in
    /// RAM for the disk-reload restore hop.
    pub(crate) fn base_frame(&self) -> &[u8] {
        &self.base_frame
    }

    /// Full copy of the device bytes — crash-simulation tests freeze
    /// the device here and hand the bytes to recovery.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn device_bytes(&mut self) -> std::io::Result<Vec<u8>> {
        self.log.read_all()
    }

    /// Notes that the in-RAM copy of `segment` may have drifted from
    /// its durable image (a log bit-flip landed).
    pub fn mark_log_dirty(&mut self, segment: usize) {
        if let Some(v) = self.view.get_mut(segment) {
            v.dirty = true;
        }
    }

    /// Arms a torn write: the next append persists only `keep_bytes`
    /// bytes. Returns whether the injection armed (always true).
    pub fn inject_torn_write(&mut self, keep_bytes: u64) -> bool {
        self.log.inject_torn_write(keep_bytes);
        true
    }

    /// Chops `bytes` off the device tail immediately (media truncation
    /// fault). Returns whether anything was lost.
    pub fn chop_tail(&mut self, bytes: u64) -> bool {
        if bytes == 0 || self.log.is_empty() {
            return false;
        }
        self.log.chop_tail(bytes);
        true
    }

    /// Reconciles the in-RAM view with the pruner's live reversal log:
    /// popped segments shrink the view; new or re-pushed segments (the
    /// sealed checksum changed) are re-encoded and queued for append.
    /// Encoding prefers the shadow copy (clean by construction) so the
    /// durable image is the segment as sealed, with live drift carried
    /// separately as mark deviations.
    pub(crate) fn sync_view(&mut self, pruner: &ReversiblePruner) {
        let n = pruner.log_segments();
        self.view.truncate(n);
        for i in 0..n {
            let seal = match pruner.log_segment(i) {
                Some(seg) => seg.checksum,
                None => continue,
            };
            if self.view.get(i).is_some_and(|v| v.seal == seal) {
                continue;
            }
            let Some(delta) = pruner.shadow_segment(i).or_else(|| pruner.log_segment(i)) else {
                continue;
            };
            let payload = delta.to_spill_payload();
            let hash = codec::payload_hash(&payload);
            let frame = codec::frame_record(RecordKind::Segment, &payload);
            let sv = SegView {
                seal,
                hash,
                payload,
                durable: false,
                // Conservatively dirty: the first mark diffs it against
                // the live log and clears the flag if nothing drifted.
                dirty: true,
            };
            if i < self.view.len() {
                self.view[i] = sv;
            } else {
                self.view.push(sv);
            }
            let queued = self.pending.iter().any(|p| {
                matches!(p.kind, PendingKind::Segment { index, hash: h } if index == i && h == hash)
            });
            if !queued {
                self.pending.push_back(Pending {
                    kind: PendingKind::Segment { index: i, hash },
                    frame,
                });
            }
        }
    }

    /// Diffs every dirty view segment against the live log and returns
    /// the drifted positions as `(segment, value_idx, live_bits)`.
    /// Clears the dirty flag of segments that turn out clean.
    pub(crate) fn log_deviations(&mut self, pruner: &ReversiblePruner) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for (i, seg) in self.view.iter_mut().enumerate() {
            if !seg.dirty {
                continue;
            }
            let Ok(clean) = LevelDelta::from_spill_payload(&seg.payload) else {
                continue;
            };
            let mut drifted = false;
            for v in 0..clean.len() {
                if let Some(live) = pruner.log_value_bits(i, v) {
                    if live != clean.value_bits(v) {
                        out.push((i as u32, v as u32, live));
                        drifted = true;
                    }
                }
            }
            if !drifted {
                seg.dirty = false;
            }
        }
        out
    }

    /// Detects a device tail that shrank since the last verified append
    /// and cuts it back to the last whole record, re-queuing whatever
    /// the cut lost.
    fn check_tail(&mut self, t: f64, trace: &mut TickTrace) {
        let len = self.log.len();
        if len >= self.expected_len {
            return;
        }
        let mut keep = 0usize;
        let mut boundary = 0u64;
        for e in &self.entries {
            if e.offset + e.frame_len <= len {
                keep += 1;
                boundary = e.offset + e.frame_len;
            } else {
                break;
            }
        }
        let lost: Vec<Entry> = self.entries.split_off(keep);
        let _ = self.log.truncate(boundary);
        let bytes = self.expected_len - boundary;
        self.expected_len = boundary;
        self.stats.tail_truncations += 1;
        trace.record(t, StageId::Execute, TraceEventKind::SpillTailTruncated { bytes });
        for e in lost {
            match e.kind {
                EntryKind::Base => {
                    let survives = self
                        .entries
                        .iter()
                        .any(|s| matches!(s.kind, EntryKind::Base));
                    if !survives {
                        self.base_durable = false;
                        let queued = self
                            .pending
                            .iter()
                            .any(|p| matches!(p.kind, PendingKind::Base));
                        if !queued {
                            self.pending.push_front(Pending {
                                kind: PendingKind::Base,
                                frame: self.base_frame.clone(),
                            });
                        }
                    }
                }
                EntryKind::Segment { index, hash } => {
                    let survives = self.entries.iter().any(
                        |s| matches!(s.kind, EntryKind::Segment { hash: h, .. } if h == hash),
                    );
                    if survives {
                        continue;
                    }
                    if let Some(v) = self.view.get_mut(index) {
                        if v.hash == hash {
                            v.durable = false;
                            let queued = self.pending.iter().any(|p| {
                                matches!(p.kind, PendingKind::Segment { hash: h, .. } if h == hash)
                            });
                            if !queued {
                                let frame = codec::frame_record(RecordKind::Segment, &v.payload);
                                self.pending.push_back(Pending {
                                    kind: PendingKind::Segment { index, hash },
                                    frame,
                                });
                            }
                        }
                    }
                }
                EntryKind::Mark => {}
            }
        }
    }

    /// Appends one frame with read-back verification, truncating and
    /// retrying once on a torn write. Returns the frame's offset, or
    /// `None` when the device refused or both attempts tore.
    fn append_verified(
        &mut self,
        frame: &[u8],
        storage: &StorageHealth,
        t: f64,
        trace: &mut TickTrace,
    ) -> Option<u64> {
        for _attempt in 0..2 {
            let start = self.log.len();
            let written = match self.log.append_via(storage, t, frame) {
                Ok(w) => w,
                Err(_) => return None,
            };
            let intact = written == frame.len() as u64
                && self
                    .log
                    .read_at(start, frame.len())
                    .map(|back| codec::verify_frame(&back))
                    .unwrap_or(false);
            if intact {
                self.expected_len = start + frame.len() as u64;
                self.stats.bytes_appended += frame.len() as u64;
                return Some(start);
            }
            let _ = self.log.truncate(start);
            self.expected_len = start;
            self.stats.torn_writes_repaired += 1;
            trace.record(
                t,
                StageId::Execute,
                TraceEventKind::SpillTornRepair { bytes: written },
            );
        }
        None
    }

    /// One tick of persistence work: tail repair, then budgeted appends
    /// from the pending queue. Returns whether the device now holds
    /// everything a commit mark would depend on *and* budget remains
    /// for the mark itself.
    pub(crate) fn service_appends(
        &mut self,
        storage: &StorageHealth,
        t: f64,
        trace: &mut TickTrace,
    ) -> bool {
        if storage.is_permanently_failed() || storage.is_unavailable_at(t) {
            self.stats.stalled_ticks += 1;
            return false;
        }
        self.check_tail(t, trace);
        let mut budget =
            (self.config.bytes_per_tick as f64 * storage.bandwidth_factor_at(t)).max(1.0) as usize;
        let mut wrote_any = false;
        while let Some(p) = self.pending.pop_front() {
            let stale = match p.kind {
                PendingKind::Base => self.base_durable,
                PendingKind::Segment { index, hash } => self
                    .view
                    .get(index)
                    .map(|v| v.hash != hash || v.durable)
                    .unwrap_or(true),
            };
            if stale {
                continue;
            }
            if wrote_any && p.frame.len() > budget {
                self.pending.push_front(p);
                break;
            }
            match self.append_verified(&p.frame, storage, t, trace) {
                Some(offset) => {
                    budget = budget.saturating_sub(p.frame.len());
                    wrote_any = true;
                    let frame_len = p.frame.len() as u64;
                    match p.kind {
                        PendingKind::Base => {
                            self.base_durable = true;
                            self.entries.push(Entry {
                                offset,
                                frame_len,
                                kind: EntryKind::Base,
                            });
                        }
                        PendingKind::Segment { index, hash } => {
                            if let Some(v) = self.view.get_mut(index) {
                                v.durable = true;
                            }
                            self.stats.segments_spilled += 1;
                            self.entries.push(Entry {
                                offset,
                                frame_len,
                                kind: EntryKind::Segment { index, hash },
                            });
                        }
                    }
                }
                None => {
                    self.pending.push_front(p);
                    self.stats.stalled_ticks += 1;
                    return false;
                }
            }
        }
        if wrote_any {
            let _ = self.log.sync();
        }
        let committed =
            self.base_durable && self.pending.is_empty() && self.view.iter().all(|v| v.durable);
        committed && budget > 0
    }

    /// Content hashes of the durable view segments, in log order — the
    /// manifest a commit mark depends on.
    pub(crate) fn manifest(&self) -> Vec<u64> {
        self.view.iter().map(|v| v.hash).collect()
    }

    /// Appends a commit mark (unbudgeted: the caller already checked
    /// the budget) and flushes the device. Returns whether it landed.
    pub(crate) fn append_mark(
        &mut self,
        payload: &[u8],
        storage: &StorageHealth,
        t: f64,
        trace: &mut TickTrace,
    ) -> bool {
        let frame = codec::frame_record(RecordKind::Mark, payload);
        match self.append_verified(&frame, storage, t, trace) {
            Some(offset) => {
                self.entries.push(Entry {
                    offset,
                    frame_len: frame.len() as u64,
                    kind: EntryKind::Mark,
                });
                self.stats.marks_written += 1;
                let _ = self.log.sync();
                true
            }
            None => {
                self.stats.stalled_ticks += 1;
                false
            }
        }
    }
}

/// A restore hop between the in-RAM snapshot and the storage reload:
/// rebuild full capacity from the spill's sealed base-image record.
/// Unlike the storage reload it completes synchronously (the image is
/// already framed in RAM; the device read is *priced* but not awaited
/// across ticks), so a corrupt snapshot no longer forces a multi-tick
/// minimal-risk window when spilling is on.
///
/// Returns whether the hop fired and repaired.
pub(crate) fn try_disk_reload(
    chain: &RestoreChain,
    k: &mut Knowledge,
    plant: &mut Plant,
    t: f64,
    rep: &mut ChainReport,
    trace: &mut TickTrace,
) -> bool {
    let Some(spill) = plant.spill.take() else {
        return false;
    };
    let fired = disk_reload_inner(chain, k, plant, &spill, t, rep, trace);
    plant.spill = Some(spill);
    fired
}

fn disk_reload_inner(
    chain: &RestoreChain,
    k: &mut Knowledge,
    plant: &mut Plant,
    spill: &SpillState,
    t: f64,
    rep: &mut ChainReport,
    trace: &mut TickTrace,
) -> bool {
    let frame = spill.base_frame();
    let scanned = codec::scan(frame);
    let base = match scanned.records.as_slice() {
        [base] if base.kind == RecordKind::Base && scanned.valid_len == frame.len() as u64 => base,
        _ => return false,
    };
    let Ok(lat) = plant.storage.read_latency(&chain.soc, chain.model_bytes, t) else {
        return false;
    };
    // The frame carries the tune record after the weight image; only the
    // image is reloaded.
    let Ok((image, _)) = codec::split_base(&base.payload) else {
        return false;
    };
    if codec::apply_base(&mut plant.net, image).is_err() {
        return false;
    }
    if plant.pruner.adopt_full_restore(&plant.net).is_err() {
        return false;
    }
    rep.latency += lat;
    rep.energy += chain.soc.storage_reload_energy(chain.model_bytes);
    k.transitions += 1;
    k.integrity_bad = false;
    k.log_bad = false;
    k.snapshot_flips = 0;
    k.reseal(&plant.net);
    rep.repaired = true;
    trace.record(
        t,
        StageId::Execute,
        TraceEventKind::ChainStep {
            hop: ChainHop::DiskReload,
        },
    );
    k.note_repaired(t, StageId::Execute, ChainHop::DiskReload, trace);
    true
}

/// Positions where the live prunable weights disagree with the
/// fault-free twin's, as `(layer, index, live_bits)` — the weight
/// deviations a commit mark records so recovery reproduces in-RAM
/// corruption bit-exactly.
pub(crate) fn weight_divergence(net: &Network, mirror: &Network) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    for meta in net.prunable_layers() {
        let (Ok(a), Ok(b)) = (net.weight(meta.id), mirror.weight(meta.id)) else {
            continue;
        };
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            if x.to_bits() != y.to_bits() {
                out.push((meta.id.0 as u32, i as u32, x.to_bits()));
            }
        }
    }
    out
}

/// Writes recorded weight deviations back onto the live network;
/// returns how many landed (out-of-range entries are skipped).
pub(crate) fn apply_weight_patches(net: &mut Network, patches: &[(u32, u32, u32)]) -> usize {
    let mut applied = 0usize;
    for &(layer, idx, bits) in patches {
        if let Ok(t) = net.weight_mut(LayerId(layer as usize)) {
            if let Some(slot) = t.data_mut().get_mut(idx as usize) {
                *slot = f32::from_bits(bits);
                applied += 1;
            }
        }
    }
    applied
}

// ---------------------------------------------------------------------
// Commit-mark codec
// ---------------------------------------------------------------------

/// A commit mark: the full runtime state at the end of one tick, which
/// recovery replays. [`encode_mark`] writes each field once and
/// [`decode_mark`] reads it back once, in the same order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Mark {
    pub tick_index: u64,
    pub t: f64,
    pub current_level: u32,
    pub cursor: PrunerCursor,
    pub manifest: Vec<u64>,
    pub log_patches: Vec<(u32, u32, u32)>,
    pub weight_patches: Vec<(u32, u32, u32)>,
    /// The cross-stage state. Attach rebuilds `levels`, `model_bytes`
    /// and the per-tick budget, so the mark does not carry them: a
    /// decoded mark holds them empty, zero and default.
    pub knowledge: Knowledge,
    pub frame_rng: ([u64; 4], Option<f32>),
    pub corruption_rng: ([u64; 4], Option<f32>),
    pub storage: (f64, f64, f64, bool),
    pub monitor_words: Vec<u64>,
    pub planner_words: Vec<u64>,
    pub plan_words: Option<Vec<u64>>,
    pub trace_next_seq: u64,
    pub trace_dropped: u64,
}

/// Writes a presence word, then `v` or the `absent` placeholder, so an
/// optional field has the same size either way.
fn put_opt<T: Copy>(
    w: &mut PayloadWriter,
    v: Option<T>,
    absent: T,
    put: impl FnOnce(&mut PayloadWriter, T),
) {
    w.put_u32(u32::from(v.is_some()));
    put(w, v.unwrap_or(absent));
}

/// Writes a count word, then each item.
fn put_list<T: Copy>(
    w: &mut PayloadWriter,
    items: &[T],
    mut put: impl FnMut(&mut PayloadWriter, T),
) {
    w.put_u32(items.len() as u32);
    for &item in items {
        put(w, item);
    }
}

fn put_triple(w: &mut PayloadWriter, (a, b, c): (u32, u32, u32)) {
    w.put_u32(a);
    w.put_u32(b);
    w.put_u32(c);
}

fn put_rng(w: &mut PayloadWriter, rng: &([u64; 4], Option<f32>)) {
    for &word in &rng.0 {
        w.put_u64(word);
    }
    put_opt(w, rng.1.map(f32::to_bits), 0, PayloadWriter::put_u32);
}

fn put_knowledge(w: &mut PayloadWriter, k: &Knowledge) {
    w.put_u32(
        u32::from(k.integrity_bad) | u32::from(k.log_bad) << 1 | u32::from(k.reload_wanted) << 2,
    );
    w.put_u32(match k.op_state {
        OperatingState::Normal => 0,
        OperatingState::Degraded => 1,
        OperatingState::MinimalRisk => 2,
    });
    w.put_u64(k.sealed_checksum);
    put_opt(w, k.pending, PendingRestore { target: 0, ready_at: 0.0 }, |w, p| {
        w.put_u32(p.target as u32);
        w.put_f64_bits(p.ready_at);
    });
    put_opt(w, k.pending_reload, 0.0, PayloadWriter::put_f64_bits);
    w.put_f64_bits(k.reload_backoff_s);
    w.put_f64_bits(k.next_reload_attempt_s);
    w.put_u32(k.snapshot_flips);
    w.put_f64_bits(k.last_confidence);
    w.put_u64(k.transitions as u64);
    w.put_u64(k.faults_injected as u64);
    w.put_u64(k.faults_detected as u64);
    w.put_u64(k.faults_repaired as u64);
    put_opt(w, k.fault_onset, 0.0, PayloadWriter::put_f64_bits);
    put_list(w, &k.fault_recoveries, PayloadWriter::put_f64_bits);
    w.put_f64_bits(k.sensor_fault_until);
    w.put_f64_bits(k.confidence_fault_until);
    w.put_f64_bits(k.overrun_until);
    w.put_f64_bits(k.overrun_extra_s);
    put_opt(w, k.external_cap.map(|c| c.level as u32), 0, PayloadWriter::put_u32);
}

/// Serializes a commit mark.
pub(crate) fn encode_mark(m: &Mark) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u32(MARK_VERSION);
    w.put_u64(m.tick_index);
    w.put_f64_bits(m.t);
    w.put_u32(m.current_level);
    w.put_u64(m.cursor.scrub_cursor as u64);
    w.put_u64(m.cursor.stats.pops_verified);
    w.put_u64(m.cursor.stats.scrub_checks);
    w.put_u64(m.cursor.stats.repairs);
    w.put_u64(m.cursor.stats.corruption_hits);
    w.put_u64(m.cursor.alloc_events as u64);
    put_list(&mut w, &m.manifest, PayloadWriter::put_u64);
    put_list(&mut w, &m.log_patches, put_triple);
    put_list(&mut w, &m.weight_patches, put_triple);
    put_knowledge(&mut w, &m.knowledge);
    put_rng(&mut w, &m.frame_rng);
    put_rng(&mut w, &m.corruption_rng);
    w.put_f64_bits(m.storage.0);
    w.put_f64_bits(m.storage.1);
    w.put_f64_bits(m.storage.2);
    w.put_u32(u32::from(m.storage.3));
    put_list(&mut w, &m.monitor_words, PayloadWriter::put_u64);
    put_list(&mut w, &m.planner_words, PayloadWriter::put_u64);
    put_opt(&mut w, m.plan_words.as_deref(), &[], |w, words| {
        put_list(w, words, PayloadWriter::put_u64)
    });
    w.put_u64(m.trace_next_seq);
    w.put_u64(m.trace_dropped);
    w.into_bytes()
}

// The decoders below read every field with `?`, so any short read
// rejects the mark. Struct, tuple and array expressions evaluate their
// operands in the order written, which is the order `encode_mark`
// writes them.

/// A boolean word: 0 or 1; anything else rejects the mark.
fn get_bool(r: &mut PayloadReader) -> Option<bool> {
    match r.u32()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn get_opt<'a, T>(
    r: &mut PayloadReader<'a>,
    get: impl FnOnce(&mut PayloadReader<'a>) -> Option<T>,
) -> Option<Option<T>> {
    let present = get_bool(r)?;
    let v = get(r)?;
    Some(present.then_some(v))
}

/// A count word, then that many items of `width` bytes each. The count
/// is bounded by the bytes left before anything is allocated for it.
fn get_list<'a, T>(
    r: &mut PayloadReader<'a>,
    width: usize,
    mut get: impl FnMut(&mut PayloadReader<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let count = r.u32()? as usize;
    if count > r.remaining() / width {
        return None;
    }
    (0..count).map(|_| get(r)).collect()
}

fn get_triple(r: &mut PayloadReader) -> Option<(u32, u32, u32)> {
    Some((r.u32()?, r.u32()?, r.u32()?))
}

fn get_rng(r: &mut PayloadReader) -> Option<([u64; 4], Option<f32>)> {
    let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    Some((state, get_opt(r, |r| r.u32().map(f32::from_bits))?))
}

fn get_knowledge(r: &mut PayloadReader) -> Option<Knowledge> {
    let flags = r.u32()?;
    if flags & !0b111 != 0 {
        return None;
    }
    Some(Knowledge {
        levels: Vec::new(),
        model_bytes: Bytes(0),
        integrity_bad: flags & 1 != 0,
        log_bad: flags & 2 != 0,
        reload_wanted: flags & 4 != 0,
        op_state: match r.u32()? {
            0 => OperatingState::Normal,
            1 => OperatingState::Degraded,
            2 => OperatingState::MinimalRisk,
            _ => return None,
        },
        sealed_checksum: r.u64()?,
        pending: get_opt(r, |r| {
            Some(PendingRestore {
                target: r.u32()? as usize,
                ready_at: r.f64_bits()?,
            })
        })?,
        pending_reload: get_opt(r, PayloadReader::f64_bits)?,
        reload_backoff_s: r.f64_bits()?,
        next_reload_attempt_s: r.f64_bits()?,
        snapshot_flips: r.u32()?,
        last_confidence: r.f64_bits()?,
        transitions: r.u64()? as usize,
        faults_injected: r.u64()? as usize,
        faults_detected: r.u64()? as usize,
        faults_repaired: r.u64()? as usize,
        fault_onset: get_opt(r, PayloadReader::f64_bits)?,
        fault_recoveries: get_list(r, 8, PayloadReader::f64_bits)?,
        sensor_fault_until: r.f64_bits()?,
        confidence_fault_until: r.f64_bits()?,
        overrun_until: r.f64_bits()?,
        overrun_extra_s: r.f64_bits()?,
        external_cap: get_opt(r, |r| Some(ExternalCap { level: r.u32()? as usize }))?,
        tick: TickBudget::default(),
    })
}

/// Decodes a commit-mark payload; `None` on any malformed content.
pub(crate) fn decode_mark(payload: &[u8]) -> Option<Mark> {
    let mut r = PayloadReader::new(payload);
    if r.u32()? != MARK_VERSION {
        return None;
    }
    let r = &mut r;
    let mark = Mark {
        tick_index: r.u64()?,
        t: r.f64_bits()?,
        current_level: r.u32()?,
        cursor: PrunerCursor {
            scrub_cursor: r.u64()? as usize,
            stats: IntegrityStats {
                pops_verified: r.u64()?,
                scrub_checks: r.u64()?,
                repairs: r.u64()?,
                corruption_hits: r.u64()?,
            },
            alloc_events: r.u64()? as usize,
        },
        manifest: get_list(r, 8, PayloadReader::u64)?,
        log_patches: get_list(r, 12, get_triple)?,
        weight_patches: get_list(r, 12, get_triple)?,
        knowledge: get_knowledge(r)?,
        frame_rng: get_rng(r)?,
        corruption_rng: get_rng(r)?,
        storage: (r.f64_bits()?, r.f64_bits()?, r.f64_bits()?, get_bool(r)?),
        monitor_words: get_list(r, 8, PayloadReader::u64)?,
        planner_words: get_list(r, 8, PayloadReader::u64)?,
        plan_words: get_opt(r, |r| get_list(r, 8, PayloadReader::u64))?,
        trace_next_seq: r.u64()?,
        trace_dropped: r.u64()?,
    };
    r.done().then_some(mark)
}

// ---------------------------------------------------------------------
// Device-scan resolution for recovery
// ---------------------------------------------------------------------

/// What a device scan resolved for recovery: the base record's payload,
/// the latest payload per segment content hash, every decodable mark
/// (device order), and where each verified record sits on the device.
pub(crate) struct ScanResolution {
    pub base_payload: Option<Vec<u8>>,
    pub records_scanned: usize,
    pub marks: Vec<Mark>,
    pub segments_by_hash: std::collections::HashMap<u64, Vec<u8>>,
    pub valid_len: u64,
    /// One entry per verified record, in device order; segment indices
    /// are resolved against the replayed manifest by `rebuild_spill`.
    entries: Vec<Entry>,
}

/// Scans raw device bytes into the pieces recovery works from. The one
/// scan of a recovery: payloads move out of it, and `rebuild_spill`
/// works from the recorded entries.
pub(crate) fn resolve_scan(bytes: &[u8]) -> ScanResolution {
    let outcome = codec::scan(bytes);
    let mut base_payload = None;
    let mut marks = Vec::new();
    let mut segments_by_hash = std::collections::HashMap::new();
    let mut entries = Vec::with_capacity(outcome.records.len());
    for rec in outcome.records {
        let kind = match rec.kind {
            RecordKind::Base => {
                if base_payload.is_none() {
                    base_payload = Some(rec.payload);
                }
                EntryKind::Base
            }
            RecordKind::Segment => {
                let hash = codec::payload_hash(&rec.payload);
                segments_by_hash.insert(hash, rec.payload);
                EntryKind::Segment {
                    index: usize::MAX,
                    hash,
                }
            }
            RecordKind::Mark => {
                if let Some(m) = decode_mark(&rec.payload) {
                    marks.push(m);
                }
                EntryKind::Mark
            }
        };
        entries.push(Entry {
            offset: rec.offset,
            frame_len: rec.frame_len,
            kind,
        });
    }
    ScanResolution {
        base_payload,
        records_scanned: entries.len(),
        marks,
        segments_by_hash,
        valid_len: outcome.valid_len,
        entries,
    }
}

impl ScanResolution {
    /// The latest mark whose manifest is fully satisfiable from the
    /// segment records on the device.
    pub(crate) fn best_mark(&self) -> Option<&Mark> {
        self.marks.iter().rev().find(|m| {
            m.manifest
                .iter()
                .all(|h| self.segments_by_hash.contains_key(h))
        })
    }

    /// Rebuilds the spill's device bookkeeping (entries + view) for the
    /// recovered manager from the scanned entries and the valid device
    /// prefix `bytes`, moving the manifest's segment payloads into the
    /// view.
    pub(crate) fn rebuild_spill(
        mut self,
        bytes: &[u8],
        log: DurableLog,
        config: SpillConfig,
        mark: Option<&Mark>,
    ) -> SpillState {
        let manifest: &[u64] = mark.map_or(&[], |m| &m.manifest);
        let dirty: std::collections::HashSet<u32> = mark
            .map(|m| m.log_patches.iter().map(|&(seg, _, _)| seg).collect())
            .unwrap_or_default();
        let mut view = Vec::with_capacity(manifest.len());
        for (i, &hash) in manifest.iter().enumerate() {
            let payload = self.segments_by_hash.remove(&hash).unwrap_or_default();
            let seal = LevelDelta::from_spill_payload(&payload)
                .map(|d| d.checksum)
                .unwrap_or(0);
            view.push(SegView {
                seal,
                hash,
                payload,
                durable: true,
                dirty: dirty.contains(&(i as u32)),
            });
        }
        let mut base_frame = Vec::new();
        let mut base_durable = false;
        for e in &mut self.entries {
            match &mut e.kind {
                EntryKind::Base if !base_durable => {
                    let start = e.offset as usize;
                    base_frame = bytes[start..start + e.frame_len as usize].to_vec();
                    base_durable = true;
                }
                EntryKind::Segment { index, hash } => {
                    *index = manifest
                        .iter()
                        .position(|h| h == hash)
                        .unwrap_or(usize::MAX);
                }
                _ => {}
            }
        }
        SpillState::with_entries(log, config, base_frame, base_durable, self.entries, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TickTrace;

    fn mem_spill(budget: usize) -> SpillState {
        let log = DurableLog::in_memory();
        let base = codec::frame_record(RecordKind::Base, &[1, 2, 3, 4]);
        let mut log = log;
        log.append(&base).unwrap();
        SpillState::fresh(log, SpillConfig::new().bytes_per_tick(budget), base)
    }

    #[test]
    fn torn_append_is_detected_and_repaired() {
        let mut s = mem_spill(1 << 20);
        let mut trace = TickTrace::new(64);
        let storage = StorageHealth::new();
        s.inject_torn_write(7);
        let payload = vec![9u8; 40];
        let frame = codec::frame_record(RecordKind::Segment, &payload);
        s.pending.push_back(Pending {
            kind: PendingKind::Segment { index: 0, hash: 1 },
            frame,
        });
        s.view.push(SegView {
            seal: 5,
            hash: 1,
            payload,
            durable: false,
            dirty: false,
        });
        let ready = s.service_appends(&storage, 0.0, &mut trace);
        assert!(ready, "retry after the torn write must land the record");
        assert_eq!(s.stats.torn_writes_repaired, 1);
        assert!(s.view[0].durable);
        // The device holds base + segment, both intact.
        let bytes = s.device_bytes().unwrap();
        let outcome = codec::scan(&bytes);
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.valid_len, bytes.len() as u64);
    }

    #[test]
    fn chopped_tail_is_cut_to_record_boundary_and_requeued() {
        let mut s = mem_spill(1 << 20);
        let mut trace = TickTrace::new(64);
        let storage = StorageHealth::new();
        let payload = vec![3u8; 24];
        let frame = codec::frame_record(RecordKind::Segment, &payload);
        s.pending.push_back(Pending {
            kind: PendingKind::Segment { index: 0, hash: 2 },
            frame,
        });
        s.view.push(SegView {
            seal: 7,
            hash: 2,
            payload,
            durable: false,
            dirty: false,
        });
        assert!(s.service_appends(&storage, 0.0, &mut trace));
        // Lose half the segment record off the device tail.
        assert!(s.chop_tail(10));
        assert!(s.service_appends(&storage, 1.0, &mut trace));
        assert_eq!(s.stats.tail_truncations, 1);
        assert!(s.view[0].durable, "segment re-spilled after tail loss");
        let bytes = s.device_bytes().unwrap();
        let outcome = codec::scan(&bytes);
        assert_eq!(outcome.valid_len, bytes.len() as u64, "no torn bytes remain");
        assert_eq!(outcome.records.len(), 2);
    }

    #[test]
    fn unavailable_storage_stalls_spilling() {
        let mut s = mem_spill(1 << 20);
        let mut trace = TickTrace::new(16);
        let mut storage = StorageHealth::new();
        storage.inject_transient(0.0, 5.0);
        assert!(!s.service_appends(&storage, 1.0, &mut trace));
        assert_eq!(s.stats.stalled_ticks, 1);
        // After the window the same tick budget commits again.
        assert!(s.service_appends(&storage, 6.0, &mut trace));
    }

    /// A mark with every option present and at least two entries in
    /// every list, so each presence and count word is load-bearing.
    fn full_mark() -> Mark {
        let mut k = Knowledge::new(Vec::new(), reprune_platform::Bytes(0), 77);
        k.op_state = OperatingState::Degraded;
        k.integrity_bad = true;
        k.reload_wanted = true;
        k.pending = Some(PendingRestore {
            target: 2,
            ready_at: 3.5,
        });
        k.pending_reload = Some(9.25);
        k.snapshot_flips = 4;
        k.transitions = 11;
        k.fault_onset = Some(1.5);
        k.fault_recoveries = vec![0.5, 1.25];
        k.external_cap = Some(ExternalCap { level: 1 });
        Mark {
            tick_index: 42,
            t: 4.2,
            current_level: 2,
            cursor: PrunerCursor {
                scrub_cursor: 1,
                stats: IntegrityStats {
                    pops_verified: 5,
                    scrub_checks: 6,
                    repairs: 7,
                    corruption_hits: 8,
                },
                alloc_events: 9,
            },
            manifest: vec![111, 222],
            log_patches: vec![(0, 3, 0xDEAD), (1, 4, 0xF00D)],
            weight_patches: vec![(1, 2, 0xBEEF), (0, 0, 1)],
            knowledge: k,
            frame_rng: ([1, 2, 3, 4], Some(0.5)),
            corruption_rng: ([5, 6, 7, 8], None),
            storage: (1.0, 2.0, 0.5, false),
            monitor_words: vec![10, 20],
            planner_words: vec![30, 31],
            plan_words: Some(vec![40, 50, 60]),
            trace_next_seq: 1000,
            trace_dropped: 3,
        }
    }

    fn with_word(payload: &[u8], offset: usize, word: u32) -> Vec<u8> {
        let mut out = payload.to_vec();
        out[offset..offset + 4].copy_from_slice(&word.to_le_bytes());
        out
    }

    fn word_at(payload: &[u8], offset: usize) -> u32 {
        u32::from_le_bytes(payload[offset..offset + 4].try_into().unwrap())
    }

    #[test]
    fn mark_round_trip_preserves_every_field() {
        let m = full_mark();
        assert_eq!(decode_mark(&encode_mark(&m)), Some(m));
        let sparse = Mark {
            manifest: Vec::new(),
            plan_words: None,
            ..full_mark()
        };
        assert_eq!(decode_mark(&encode_mark(&sparse)), Some(sparse));
    }

    #[test]
    fn hostile_marks_are_rejected_without_panicking() {
        let payload = encode_mark(&full_mark());
        for len in 0..payload.len() {
            assert!(decode_mark(&payload[..len]).is_none(), "truncated to {len}");
        }
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode_mark(&longer).is_none(), "trailing byte");
        // Byte offsets of the count words in `full_mark`'s payload; the
        // first assert pins the layout so a format change fails here.
        let counts = [
            ("manifest", 72, 2),
            ("log patches", 92, 2),
            ("weight patches", 120, 2),
            ("fault recoveries", 264, 2),
            ("monitor words", 432, 2),
            ("planner words", 452, 2),
            ("plan words", 476, 3),
        ];
        for (name, offset, count) in counts {
            assert_eq!(word_at(&payload, offset), count, "{name} count word at {offset}");
            for bad in [0, 1, u32::MAX] {
                assert!(
                    decode_mark(&with_word(&payload, offset, bad)).is_none(),
                    "{name} count {bad}"
                );
            }
        }
        // Presence and boolean words hold 0 or 1.
        let bools = [
            ("pending restore", 164, 1),
            ("pending reload", 180, 1),
            ("fault onset", 252, 1),
            ("external cap", 316, 1),
            ("frame rng spare", 356, 1),
            ("corruption rng spare", 396, 0),
            ("storage failed", 428, 0),
            ("plan words", 472, 1),
        ];
        for (name, offset, value) in bools {
            assert_eq!(word_at(&payload, offset), value, "{name} word at {offset}");
            for bad in [2, u32::MAX] {
                assert!(
                    decode_mark(&with_word(&payload, offset, bad)).is_none(),
                    "{name} word {bad}"
                );
            }
        }
        for version in [0, 1, 3, u32::MAX] {
            assert!(decode_mark(&with_word(&payload, 0, version)).is_none(), "version {version}");
        }
        let (flags_at, op_state_at) = (148, 152);
        assert_eq!(word_at(&payload, flags_at), 0b101, "integrity_bad | reload_wanted");
        assert_eq!(word_at(&payload, op_state_at), 1, "Degraded");
        assert!(decode_mark(&with_word(&payload, op_state_at, 3)).is_none(), "op_state 3");
        for bit in 3..32 {
            let flags = 0b101 | 1 << bit;
            assert!(
                decode_mark(&with_word(&payload, flags_at, flags)).is_none(),
                "flag bit {bit}"
            );
        }
    }

    /// A device holding a base record, two segments and three marks, the
    /// last of which names a segment the device lacks.
    fn multi_record_device() -> Vec<u8> {
        let seg_a = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let seg_b = vec![9u8; 24];
        let (ha, hb) = (codec::payload_hash(&seg_a), codec::payload_hash(&seg_b));
        let mark = |manifest: Vec<u64>, tick_index: u64| {
            let m = Mark {
                tick_index,
                manifest,
                ..full_mark()
            };
            codec::frame_record(RecordKind::Mark, &encode_mark(&m))
        };
        let mut bytes = codec::frame_record(RecordKind::Base, &[0, 0, 0, 0]);
        bytes.extend(codec::frame_record(RecordKind::Segment, &seg_a));
        bytes.extend(mark(vec![ha], 1));
        bytes.extend(codec::frame_record(RecordKind::Segment, &seg_b));
        bytes.extend(mark(vec![ha, hb], 2));
        bytes.extend(mark(vec![ha, hb, 999], 3));
        bytes
    }

    fn assert_best_mark_is_satisfied(bytes: &[u8]) {
        let res = resolve_scan(bytes);
        assert!(res.valid_len <= bytes.len() as u64);
        if let Some(m) = res.best_mark() {
            assert!(m
                .manifest
                .iter()
                .all(|h| res.segments_by_hash.contains_key(h)));
        }
    }

    #[test]
    fn best_mark_skips_unsatisfiable_manifests() {
        let res = resolve_scan(&multi_record_device());
        assert_eq!(res.marks.len(), 3);
        let best = res.best_mark().expect("satisfiable mark exists");
        assert_eq!(best.tick_index, 2, "unsatisfiable latest mark is skipped");
    }

    #[test]
    fn hostile_devices_never_panic_the_scan() {
        let device = multi_record_device();
        for i in 0..device.len() {
            let mut flipped = device.clone();
            flipped[i] ^= 0xFF;
            assert_best_mark_is_satisfied(&flipped);
        }
        let mut rng = reprune_tensor::rng::Prng::new(0x5ca1);
        for _ in 0..200 {
            let len = rng.next_below(device.len() + 64);
            let noise: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
            assert_best_mark_is_satisfied(&noise);
            // The valid device with a random stretch overwritten.
            let mut spliced = device.clone();
            let at = rng.next_below(device.len());
            let end = (at + noise.len()).min(spliced.len());
            spliced[at..end].copy_from_slice(&noise[..end - at]);
            assert_best_mark_is_satisfied(&spliced);
        }
    }
}
