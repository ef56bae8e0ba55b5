//! Structured tick-event observability: the [`TickTrace`] ring buffer.
//!
//! Every MAPE-K stage records typed events as it works — a decision
//! taken, a fault detected, a fallback-chain hop fired, a deadline
//! missed. The trace turns fault campaigns and policy comparisons from
//! opaque aggregate counters into explainable timelines: *which* check
//! noticed the corruption, *which* hop repaired it, and *when* the state
//! machine moved.
//!
//! The buffer is bounded (oldest events drop first, with an explicit
//! drop counter) so a long fleet run cannot grow without limit, and the
//! recording path allocates nothing beyond the ring slots. Events render
//! to JSON-lines via [`TraceEvent::to_json_line`] — hand-rolled because
//! the workspace's serde is a compile-only shim (DESIGN.md §6).

use crate::faults::OperatingState;
use std::collections::VecDeque;

/// Default event capacity of a [`TickTrace`]; enough for multi-minute
/// drives under a severe fault storm without dropping anything.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Which pipeline stage recorded an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// The world outside the loop: scheduled fault injection.
    Environment,
    /// Monitor: sensor/confidence channels and window health.
    Monitor,
    /// Analyze: integrity verdicts and risk assessment.
    Analyze,
    /// Plan: level selection.
    Plan,
    /// Execute: transitions, the fallback chain, reload scheduling.
    Execute,
    /// Knowledge: cross-stage state transitions (degradation machine,
    /// deadline accounting).
    Knowledge,
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StageId::Environment => "environment",
            StageId::Monitor => "monitor",
            StageId::Analyze => "analyze",
            StageId::Plan => "plan",
            StageId::Execute => "execute",
            StageId::Knowledge => "knowledge",
        };
        write!(f, "{s}")
    }
}

/// Which check noticed a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionSource {
    /// A self-announcing fault window observed at onset by the armed
    /// health monitor.
    WindowOnset,
    /// Per-segment checksum verification during a reversal-log pop.
    VerifyOnPop,
    /// The incremental background scrub.
    Scrub,
    /// The sealed whole-weights checksum re-verified each tick.
    SealedChecksum,
    /// The attach-time base checksum rejecting a corrupt snapshot.
    SnapshotChecksum,
}

impl std::fmt::Display for DetectionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DetectionSource::WindowOnset => "window-onset",
            DetectionSource::VerifyOnPop => "verify-on-pop",
            DetectionSource::Scrub => "scrub",
            DetectionSource::SealedChecksum => "sealed-checksum",
            DetectionSource::SnapshotChecksum => "snapshot-checksum",
        };
        write!(f, "{s}")
    }
}

/// One hop of the restore fallback chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainHop {
    /// Delta restore through the reversal log.
    Delta,
    /// Shadow-copy repair of a corrupt log segment.
    ShadowRepair,
    /// Full restore from the in-RAM snapshot.
    Snapshot,
    /// Full restore from the base image persisted in the on-disk
    /// reversal-log spill (sits between snapshot and storage reload:
    /// already durable, but cheaper and available even while the model
    /// store is degraded).
    DiskReload,
    /// Model-image reload from storage.
    StorageReload,
}

impl std::fmt::Display for ChainHop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ChainHop::Delta => "delta",
            ChainHop::ShadowRepair => "shadow-repair",
            ChainHop::Snapshot => "snapshot",
            ChainHop::DiskReload => "disk-reload",
            ChainHop::StorageReload => "storage-reload",
        };
        write!(f, "{s}")
    }
}

/// What happened — the typed payload of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A scheduled fault event fired; `landed` counts the effective
    /// injections it produced.
    FaultInjected {
        /// Short name of the fault family.
        kind: &'static str,
        /// Effective injections that landed.
        landed: u32,
    },
    /// An armed check noticed a fault. Exactly one such event is
    /// recorded per `faults_detected` increment.
    FaultDetected {
        /// The check that fired.
        source: DetectionSource,
    },
    /// A repair or fallback restore resolved a fault. Exactly one such
    /// event is recorded per `faults_repaired` increment.
    FaultRepaired {
        /// The hop that resolved it.
        hop: ChainHop,
    },
    /// The fallback chain charged one hop.
    ChainStep {
        /// The hop fired.
        hop: ChainHop,
    },
    /// The Plan stage chose a target level different from the current
    /// one.
    DecisionTaken {
        /// Level in effect when the decision was made.
        current: usize,
        /// Level the policy wanted before degradation caps.
        planned: usize,
        /// Level actually commanded.
        target: usize,
    },
    /// The degradation state machine moved.
    StateChange {
        /// Rung before.
        from: OperatingState,
        /// Rung after.
        to: OperatingState,
    },
    /// A multi-tick capacity restore was scheduled.
    RestoreScheduled {
        /// Ladder level being restored to.
        target: usize,
        /// Tick time at which it completes.
        ready_at: f64,
    },
    /// A pending restore was retargeted by a deeper emergency.
    RestoreRetargeted {
        /// The new, lower target level.
        target: usize,
    },
    /// A scheduled restore completed.
    RestoreCompleted {
        /// Level in effect after completion.
        level: usize,
    },
    /// A storage reload was accepted by the device and scheduled.
    ReloadScheduled {
        /// Tick time at which the image arrives.
        ready_at: f64,
    },
    /// The storage device refused the reload; retry scheduled with
    /// backoff.
    ReloadDeferred {
        /// Next attempt time.
        next_attempt_s: f64,
    },
    /// The storage device failed permanently; no reload will succeed.
    ReloadImpossible,
    /// A scheduled storage reload completed.
    ReloadCompleted,
    /// Inference plus synchronous repair work overran the control
    /// period.
    DeadlineMissed {
        /// Work performed this tick, seconds.
        latency_s: f64,
        /// The control period, seconds.
        budget_s: f64,
    },
    /// A torn append to the durable reversal-log spill was caught by
    /// the read-back seal check and repaired by truncating back to the
    /// pre-append record boundary.
    SpillTornRepair {
        /// Bytes of partial frame discarded.
        bytes: u64,
    },
    /// The durable spill device lost its tail (truncation fault); the
    /// log was cut back to the last intact record boundary.
    SpillTailTruncated {
        /// Bytes of log lost to the truncation.
        bytes: u64,
    },
    /// Attach-time fine-tuning produced a weight-delta segment for one
    /// ladder level (recorded once per tuned level, at attach).
    FineTuneAttached {
        /// Ladder level the deltas belong to.
        level: usize,
        /// Weight entries the fine-tune segment holds (unscaled).
        entries: usize,
    },
}

impl TraceEventKind {
    /// Stable kebab-case name of the event kind (the `event` field of
    /// the JSON rendering).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::FaultInjected { .. } => "fault-injected",
            TraceEventKind::FaultDetected { .. } => "fault-detected",
            TraceEventKind::FaultRepaired { .. } => "fault-repaired",
            TraceEventKind::ChainStep { .. } => "chain-step",
            TraceEventKind::DecisionTaken { .. } => "decision-taken",
            TraceEventKind::StateChange { .. } => "state-change",
            TraceEventKind::RestoreScheduled { .. } => "restore-scheduled",
            TraceEventKind::RestoreRetargeted { .. } => "restore-retargeted",
            TraceEventKind::RestoreCompleted { .. } => "restore-completed",
            TraceEventKind::ReloadScheduled { .. } => "reload-scheduled",
            TraceEventKind::ReloadDeferred { .. } => "reload-deferred",
            TraceEventKind::ReloadImpossible => "reload-impossible",
            TraceEventKind::ReloadCompleted => "reload-completed",
            TraceEventKind::DeadlineMissed { .. } => "deadline-missed",
            TraceEventKind::SpillTornRepair { .. } => "spill-torn-repair",
            TraceEventKind::SpillTailTruncated { .. } => "spill-tail-truncated",
            TraceEventKind::FineTuneAttached { .. } => "fine-tune-attached",
        }
    }
}

/// One recorded stage event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number across the whole run (never reset, so
    /// drops are visible as gaps).
    pub seq: u64,
    /// Tick time the event was recorded at, seconds.
    pub t: f64,
    /// The stage that recorded it.
    pub stage: StageId,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// Renders an `f64` as a JSON number. `{:?}` is shortest-round-trip and
/// always parseable; non-finite values (which JSON cannot express) are
/// rendered as `null` — they never occur in recorded events by
/// construction, but the dump must stay parseable regardless.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl TraceEvent {
    /// Renders the event as one line of JSON (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"t\":{},\"stage\":\"{}\",\"event\":\"{}\"",
            self.seq,
            json_f64(self.t),
            self.stage,
            self.kind.name()
        );
        match &self.kind {
            TraceEventKind::FaultInjected { kind, landed } => {
                s.push_str(&format!(",\"kind\":\"{kind}\",\"landed\":{landed}"));
            }
            TraceEventKind::FaultDetected { source } => {
                s.push_str(&format!(",\"source\":\"{source}\""));
            }
            TraceEventKind::FaultRepaired { hop } | TraceEventKind::ChainStep { hop } => {
                s.push_str(&format!(",\"hop\":\"{hop}\""));
            }
            TraceEventKind::DecisionTaken {
                current,
                planned,
                target,
            } => {
                s.push_str(&format!(
                    ",\"current\":{current},\"planned\":{planned},\"target\":{target}"
                ));
            }
            TraceEventKind::StateChange { from, to } => {
                s.push_str(&format!(",\"from\":\"{from}\",\"to\":\"{to}\""));
            }
            TraceEventKind::RestoreScheduled { target, ready_at } => {
                s.push_str(&format!(
                    ",\"target\":{target},\"ready_at\":{}",
                    json_f64(*ready_at)
                ));
            }
            TraceEventKind::RestoreRetargeted { target } => {
                s.push_str(&format!(",\"target\":{target}"));
            }
            TraceEventKind::RestoreCompleted { level } => {
                s.push_str(&format!(",\"level\":{level}"));
            }
            TraceEventKind::ReloadScheduled { ready_at } => {
                s.push_str(&format!(",\"ready_at\":{}", json_f64(*ready_at)));
            }
            TraceEventKind::ReloadDeferred { next_attempt_s } => {
                s.push_str(&format!(",\"next_attempt_s\":{}", json_f64(*next_attempt_s)));
            }
            TraceEventKind::DeadlineMissed {
                latency_s,
                budget_s,
            } => {
                s.push_str(&format!(
                    ",\"latency_s\":{},\"budget_s\":{}",
                    json_f64(*latency_s),
                    json_f64(*budget_s)
                ));
            }
            TraceEventKind::SpillTornRepair { bytes }
            | TraceEventKind::SpillTailTruncated { bytes } => {
                s.push_str(&format!(",\"bytes\":{bytes}"));
            }
            TraceEventKind::FineTuneAttached { level, entries } => {
                s.push_str(&format!(",\"level\":{level},\"entries\":{entries}"));
            }
            TraceEventKind::ReloadImpossible | TraceEventKind::ReloadCompleted => {}
        }
        s.push('}');
        s
    }
}

/// Bounded ring buffer of stage events for one runtime.
///
/// Recording is O(1); when the buffer is full the oldest event is
/// dropped and [`TickTrace::dropped`] is incremented, so consumers can
/// tell a complete trace from a truncated one. Sequence numbers are
/// global across the run and never reused.
#[derive(Debug, Clone, PartialEq)]
pub struct TickTrace {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TickTrace {
    /// Creates a trace bounded to `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TickTrace {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Rebuilds an empty trace that continues an interrupted run's
    /// numbering: the next event gets `next_seq` and the drop counter
    /// resumes at `dropped`. Used by crash recovery so a resumed run's
    /// trace tail lines up byte-for-byte with the uninterrupted run.
    pub fn resume(capacity: usize, next_seq: u64, dropped: u64) -> Self {
        let mut tr = TickTrace::new(capacity);
        tr.next_seq = next_seq;
        tr.dropped = dropped;
        tr
    }

    /// Sequence number the next recorded event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records one event at tick time `t`.
    pub fn record(&mut self, t: f64, stage: StageId, kind: TraceEventKind) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent {
            seq: self.next_seq,
            t,
            stage,
            kind,
        });
        self.next_seq += 1;
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Takes all held events out, oldest first. Sequence numbering
    /// continues across drains.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl Default for TickTrace {
    fn default() -> Self {
        TickTrace::new(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: &mut TickTrace, t: f64) {
        trace.record(
            t,
            StageId::Execute,
            TraceEventKind::ChainStep {
                hop: ChainHop::Delta,
            },
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tr = TickTrace::new(3);
        for i in 0..5 {
            ev(&mut tr, i as f64);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        assert_eq!(tr.recorded(), 5);
        let seqs: Vec<u64> = tr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest dropped, seq preserved");
    }

    #[test]
    fn drain_keeps_sequence_running() {
        let mut tr = TickTrace::new(8);
        ev(&mut tr, 0.0);
        ev(&mut tr, 0.1);
        let first = tr.drain();
        assert_eq!(first.len(), 2);
        assert!(tr.is_empty());
        ev(&mut tr, 0.2);
        assert_eq!(tr.events().next().unwrap().seq, 2);
    }

    #[test]
    fn json_lines_are_wellformed() {
        let kinds = vec![
            TraceEventKind::FaultInjected {
                kind: "log-bit-flip",
                landed: 3,
            },
            TraceEventKind::FaultDetected {
                source: DetectionSource::Scrub,
            },
            TraceEventKind::FaultRepaired {
                hop: ChainHop::ShadowRepair,
            },
            TraceEventKind::ChainStep {
                hop: ChainHop::Snapshot,
            },
            TraceEventKind::DecisionTaken {
                current: 2,
                planned: 0,
                target: 0,
            },
            TraceEventKind::StateChange {
                from: OperatingState::Normal,
                to: OperatingState::Degraded,
            },
            TraceEventKind::RestoreScheduled {
                target: 1,
                ready_at: 3.25,
            },
            TraceEventKind::RestoreRetargeted { target: 0 },
            TraceEventKind::RestoreCompleted { level: 0 },
            TraceEventKind::ReloadScheduled { ready_at: 9.5 },
            TraceEventKind::ReloadDeferred {
                next_attempt_s: 10.0,
            },
            TraceEventKind::ReloadImpossible,
            TraceEventKind::ReloadCompleted,
            TraceEventKind::DeadlineMissed {
                latency_s: 0.15,
                budget_s: 0.1,
            },
            TraceEventKind::SpillTornRepair { bytes: 17 },
            TraceEventKind::SpillTailTruncated { bytes: 4096 },
        ];
        let mut tr = TickTrace::new(64);
        for k in kinds {
            tr.record(1.5, StageId::Analyze, k);
        }
        for e in tr.events() {
            let line = e.to_json_line();
            assert!(line.starts_with("{\"seq\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            assert_eq!(line.matches('"').count() % 2, 0, "quotes balance: {line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "braces balance: {line}"
            );
            assert!(line.contains(&format!("\"event\":\"{}\"", e.kind.name())));
            assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(0.1), "0.1");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            TraceEventKind::FaultDetected {
                source: DetectionSource::SealedChecksum
            }
            .name(),
            "fault-detected"
        );
        assert_eq!(TraceEventKind::ReloadCompleted.name(), "reload-completed");
        assert_eq!(
            TraceEventKind::SpillTornRepair { bytes: 1 }.name(),
            "spill-torn-repair"
        );
        assert_eq!(
            TraceEventKind::SpillTailTruncated { bytes: 1 }.name(),
            "spill-tail-truncated"
        );
        assert_eq!(StageId::Environment.to_string(), "environment");
        assert_eq!(DetectionSource::VerifyOnPop.to_string(), "verify-on-pop");
        assert_eq!(ChainHop::StorageReload.to_string(), "storage-reload");
        assert_eq!(ChainHop::DiskReload.to_string(), "disk-reload");
    }

    #[test]
    fn resume_continues_numbering() {
        let mut tr = TickTrace::resume(8, 41, 3);
        assert_eq!(tr.next_seq(), 41);
        assert_eq!(tr.dropped(), 3);
        assert!(tr.is_empty());
        ev(&mut tr, 2.0);
        assert_eq!(tr.events().next().unwrap().seq, 41);
        assert_eq!(tr.recorded(), 42);
    }
}
