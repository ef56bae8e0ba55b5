//! The K in MAPE-K: all cross-stage state, owned in one place.
//!
//! Every flag and counter that more than one stage reads or writes lives
//! in [`Knowledge`] — the degradation state machine, integrity verdicts,
//! pending restore/reload schedules, fault-window deadlines, fault
//! counters, and the per-tick cost budget. Stages receive `&mut
//! Knowledge` and communicate *only* through it (plus the trace); none
//! of them holds cross-stage state of its own. The managed element
//! (network, pruner, RNGs) is deliberately *not* here — see
//! [`crate::plant::Plant`].

use crate::faults::OperatingState;
use crate::restore::ChainReport;
use crate::trace::{
    ChainHop, DetectionSource, StageId, TickTrace, TraceEvent, TraceEventKind,
};
use reprune_platform::{Bytes, InferenceCost, Joules, Seconds};
use reprune_prune::weights_checksum;
use reprune_nn::Network;
use reprune_platform::StorageHealth;
use serde::{Deserialize, Serialize};

/// Initial retry backoff after a refused storage reload, seconds.
pub(crate) const RELOAD_BACKOFF_MIN_S: f64 = 0.2;

/// Backoff ceiling for storage-reload retries, seconds.
pub(crate) const RELOAD_BACKOFF_MAX_S: f64 = 6.4;

/// Pre-profiled cost of running at one ladder level (one row of the
/// MAPE-K knowledge base).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelKnowledge {
    /// Ladder level.
    pub level: usize,
    /// Nominal sparsity.
    pub sparsity: f64,
    /// Deployment-scale inference cost at this level.
    pub inference: InferenceCost,
    /// Reversal-log entries held when parked at this level (scaled).
    pub log_entries: usize,
}

/// A per-tick ladder-level directive injected by an external arbiter
/// (e.g. `FleetRuntime`'s shared-budget planner) into the Plan stage.
///
/// The cap is an energy allowance expressed as a *minimum prune level*:
/// the arbiter has decided this member's share of the fleet budget only
/// covers running at `level` or deeper. The Plan stage treats it as a
/// floor on the planned level **inside the ODD only**, clamped to the
/// envelope's `max_allowed_level` for the tick — safety overrides
/// (ODD exit, Degraded/MinimalRisk caps, envelope restores) always win
/// over the budget. `None` (the default) leaves planning untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExternalCap {
    /// Minimum ladder level the arbiter asks the member to hold.
    pub level: usize,
}

/// A capacity restore scheduled to complete at a future tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingRestore {
    /// Ladder level being restored to.
    pub target: usize,
    /// Tick time at which the restore completes.
    pub ready_at: f64,
}

/// Costs and flags accumulated while stages work on the current tick;
/// reset by [`Knowledge::begin_tick`] and folded into the
/// [`crate::record::TickRecord`] at the end of the step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickBudget {
    /// Transition latency charged this tick (scheduled + synchronous).
    pub transition_latency: Seconds,
    /// Transition energy charged this tick.
    pub transition_energy: Joules,
    /// Work done synchronously inside this tick, counted against the
    /// control deadline (scheduled multi-tick restores are not).
    pub sync_latency_s: f64,
    /// Effective fault injections that landed this tick.
    pub injected: u32,
    /// Whether any check detected a fault this tick.
    pub detected: bool,
    /// Whether any repair or fallback restore fired this tick.
    pub repaired: bool,
}

/// All cross-stage state of the runtime: the shared knowledge base the
/// Monitor, Analyze, Plan, and Execute stages read and write.
///
/// Ownership rules (DESIGN.md §10): any state read or written by more
/// than one stage lives here and nowhere else; stage implementations may
/// keep *private* state only if no other stage ever needs it (e.g. the
/// default Monitor's EWMA estimator). The managed element is in
/// [`crate::plant::Plant`]; `Knowledge` never owns weights or RNGs.
#[derive(Debug, Clone, PartialEq)]
pub struct Knowledge {
    /// Per-level profiled costs, indexed by ladder level.
    pub levels: Vec<LevelKnowledge>,
    /// Deployment-scale size of the model image.
    pub model_bytes: Bytes,
    /// Current rung of the degradation state machine.
    pub op_state: OperatingState,
    /// Sealed whole-weights checksum, re-verified every tick when the
    /// defense includes checksums; resealed after every trusted
    /// transition.
    pub sealed_checksum: u64,
    /// Live weights are known to disagree with the sealed checksum.
    pub integrity_bad: bool,
    /// The reversal log holds a detected-but-unrepaired corrupt segment.
    pub log_bad: bool,
    /// A multi-tick capacity restore in flight, if any.
    pub pending: Option<PendingRestore>,
    /// A storage reload is required to recover integrity.
    pub reload_wanted: bool,
    /// Completion time of a reload the storage device has accepted.
    pub pending_reload: Option<f64>,
    /// Current storage-reload retry backoff, seconds.
    pub reload_backoff_s: f64,
    /// Earliest time the next reload attempt may fire.
    pub next_reload_attempt_s: f64,
    /// Bit-flips that have landed in the in-RAM snapshot region; applied
    /// to the restored weights when the snapshot hop is used.
    pub snapshot_flips: u32,
    /// Confidence of the most recent inference (Monitor input).
    pub last_confidence: f64,
    /// Ladder transitions executed so far.
    pub transitions: usize,
    /// Effective fault injections so far (windows at onset; bit-flips
    /// that actually landed).
    pub faults_injected: usize,
    /// Faults the armed defense noticed.
    pub faults_detected: usize,
    /// Faults resolved by repair or a successful fallback restore.
    pub faults_repaired: usize,
    /// Onset time of the fault episode currently in progress.
    pub fault_onset: Option<f64>,
    /// Completed fault-episode durations (onset → return to Normal).
    pub fault_recoveries: Vec<f64>,
    /// End of the scheduled risk-sensor blackout window.
    pub sensor_fault_until: f64,
    /// End of the scheduled confidence-dropout window.
    pub confidence_fault_until: f64,
    /// End of the scheduled Execute-overrun window.
    pub overrun_until: f64,
    /// Extra per-tick latency while the overrun window is active.
    pub overrun_extra_s: f64,
    /// Fleet-arbitrated level floor for the next planned tick, if any.
    /// Written by an external budget arbiter between ticks; read by the
    /// Plan stage. Cleared only by the arbiter — a cap persists until
    /// replaced.
    pub external_cap: Option<ExternalCap>,
    /// Costs and flags for the tick currently being stepped.
    pub tick: TickBudget,
}

impl Knowledge {
    /// Creates the knowledge base for a freshly attached runtime.
    pub fn new(levels: Vec<LevelKnowledge>, model_bytes: Bytes, sealed_checksum: u64) -> Self {
        Knowledge {
            levels,
            model_bytes,
            op_state: OperatingState::Normal,
            sealed_checksum,
            integrity_bad: false,
            log_bad: false,
            pending: None,
            reload_wanted: false,
            pending_reload: None,
            reload_backoff_s: RELOAD_BACKOFF_MIN_S,
            next_reload_attempt_s: f64::NEG_INFINITY,
            snapshot_flips: 0,
            last_confidence: 1.0,
            transitions: 0,
            faults_injected: 0,
            faults_detected: 0,
            faults_repaired: 0,
            fault_onset: None,
            fault_recoveries: Vec::new(),
            sensor_fault_until: f64::NEG_INFINITY,
            confidence_fault_until: f64::NEG_INFINITY,
            overrun_until: f64::NEG_INFINITY,
            overrun_extra_s: 0.0,
            external_cap: None,
            tick: TickBudget::default(),
        }
    }

    /// Resets the per-tick budget at the start of a step.
    pub fn begin_tick(&mut self) {
        self.tick = TickBudget::default();
    }

    /// Folds a chain report into the tick budget: latency and energy are
    /// charged, the latency also counts against the control deadline,
    /// and detection/repair flags are merged.
    pub fn absorb(&mut self, rep: ChainReport) {
        self.tick.transition_latency += rep.latency;
        self.tick.transition_energy += rep.energy;
        self.tick.sync_latency_s += rep.latency.0;
        self.tick.detected |= rep.detected;
        self.tick.repaired |= rep.repaired;
    }

    /// Folds a chain report whose work happens *outside* the control
    /// deadline (scheduled reload attempts, multi-tick restores): only
    /// latency and energy are charged.
    pub fn absorb_deferred(&mut self, rep: ChainReport) {
        self.tick.transition_latency += rep.latency;
        self.tick.transition_energy += rep.energy;
    }

    /// Reseals the whole-weights checksum after a trusted transition.
    pub fn reseal(&mut self, net: &Network) {
        self.sealed_checksum = weights_checksum(net);
    }

    /// Whether any self-announcing fault window is active at `t`.
    pub fn windows_active(&self, t: f64, storage: &StorageHealth) -> bool {
        t < self.sensor_fault_until
            || t < self.confidence_fault_until
            || t < self.overrun_until
            || storage.is_unavailable_at(t)
            || storage.bandwidth_factor_at(t) < 1.0
    }

    /// Escalates the degradation state machine (never de-escalates).
    pub fn enter_state(&mut self, state: OperatingState, t: f64, trace: &mut TickTrace) {
        if state > self.op_state {
            if self.op_state == OperatingState::Normal && self.fault_onset.is_none() {
                self.fault_onset = Some(t);
            }
            trace.record(
                t,
                StageId::Knowledge,
                TraceEventKind::StateChange {
                    from: self.op_state,
                    to: state,
                },
            );
            self.op_state = state;
        }
    }

    /// Counts one detection and records exactly one `fault-detected`
    /// trace event — the only path that increments `faults_detected`, so
    /// the trace count and the aggregate counter stay equal by
    /// construction.
    pub fn note_detected(
        &mut self,
        t: f64,
        stage: StageId,
        source: DetectionSource,
        trace: &mut TickTrace,
    ) {
        self.faults_detected += 1;
        trace.record(t, stage, TraceEventKind::FaultDetected { source });
    }

    /// Counts one repair and records exactly one `fault-repaired` trace
    /// event — the only path that increments `faults_repaired`.
    pub fn note_repaired(&mut self, t: f64, stage: StageId, hop: ChainHop, trace: &mut TickTrace) {
        self.faults_repaired += 1;
        trace.record(t, stage, TraceEventKind::FaultRepaired { hop });
    }

    /// De-escalates once the triggering conditions have cleared:
    /// `MinimalRisk → Degraded` when full capacity is reached and
    /// verified, `Degraded → Normal` when nothing is unresolved and no
    /// fault window is active.
    pub fn relax_state(&mut self, plant: &crate::plant::Plant, t: f64, trace: &mut TickTrace) {
        // A bit-exact level-0 state clears a weights-integrity flag even
        // without the repair chain: the attach-time base checksum is a
        // known-good reference at full capacity.
        if self.integrity_bad
            && self.pending_reload.is_none()
            && plant.pruner.current_level() == 0
            && plant.pruner.verify_restored(&plant.net).is_ok()
        {
            self.integrity_bad = false;
            self.reseal(&plant.net);
        }
        let unresolved = self.integrity_bad
            || self.log_bad
            || self.reload_wanted
            || self.pending_reload.is_some();
        if self.op_state == OperatingState::MinimalRisk
            && !unresolved
            && plant.pruner.current_level() == 0
        {
            trace.record(
                t,
                StageId::Knowledge,
                TraceEventKind::StateChange {
                    from: self.op_state,
                    to: OperatingState::Degraded,
                },
            );
            self.op_state = OperatingState::Degraded;
        }
        if self.op_state == OperatingState::Degraded
            && !unresolved
            && !self.windows_active(t, &plant.storage)
        {
            trace.record(
                t,
                StageId::Knowledge,
                TraceEventKind::StateChange {
                    from: self.op_state,
                    to: OperatingState::Normal,
                },
            );
            self.op_state = OperatingState::Normal;
            if let Some(onset) = self.fault_onset.take() {
                self.fault_recoveries.push(t - onset);
            }
        }
    }

    /// Records a `deadline-missed` event (called by the step wrap-up
    /// when the tick's synchronous work overran the control period).
    pub fn note_deadline_miss(
        &mut self,
        t: f64,
        latency_s: f64,
        budget_s: f64,
        trace: &mut TickTrace,
    ) {
        trace.record(
            t,
            StageId::Knowledge,
            TraceEventKind::DeadlineMissed {
                latency_s,
                budget_s,
            },
        );
    }

    /// Consistency check used by tests and bench self-checks: the number
    /// of `fault-detected` events in `events` must equal the detection
    /// counter (assuming the ring never dropped).
    pub fn detections_match_trace(&self, events: &[TraceEvent]) -> bool {
        events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::FaultDetected { .. }))
            .count()
            == self.faults_detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprune_platform::{Joules, Seconds};

    fn k() -> Knowledge {
        Knowledge::new(Vec::new(), Bytes(1), 0)
    }

    #[test]
    fn absorb_merges_everything_deferred_only_costs() {
        let mut kn = k();
        let rep = ChainReport {
            latency: Seconds(0.5),
            energy: Joules(2.0),
            detected: true,
            repaired: true,
        };
        kn.absorb(rep);
        assert_eq!(kn.tick.transition_latency, Seconds(0.5));
        assert_eq!(kn.tick.transition_energy, Joules(2.0));
        assert_eq!(kn.tick.sync_latency_s, 0.5);
        assert!(kn.tick.detected && kn.tick.repaired);

        let mut kn2 = k();
        kn2.absorb_deferred(rep);
        assert_eq!(kn2.tick.transition_latency, Seconds(0.5));
        assert_eq!(kn2.tick.transition_energy, Joules(2.0));
        assert_eq!(kn2.tick.sync_latency_s, 0.0, "deferred work is off-deadline");
        assert!(!kn2.tick.detected && !kn2.tick.repaired);
    }

    #[test]
    fn absorb_accumulates_across_reports() {
        let mut kn = k();
        for _ in 0..3 {
            kn.absorb(ChainReport {
                latency: Seconds(0.1),
                energy: Joules(1.0),
                detected: false,
                repaired: false,
            });
        }
        assert!((kn.tick.transition_latency.0 - 0.3).abs() < 1e-12);
        assert!((kn.tick.transition_energy.0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn enter_state_escalates_only_and_tracks_onset() {
        let mut kn = k();
        let mut tr = TickTrace::new(8);
        kn.enter_state(OperatingState::Degraded, 1.0, &mut tr);
        assert_eq!(kn.op_state, OperatingState::Degraded);
        assert_eq!(kn.fault_onset, Some(1.0));
        // De-escalation through enter_state is a no-op.
        kn.enter_state(OperatingState::Normal, 2.0, &mut tr);
        assert_eq!(kn.op_state, OperatingState::Degraded);
        assert_eq!(tr.len(), 1, "only the real escalation is traced");
    }

    #[test]
    fn note_detected_keeps_counter_and_trace_equal() {
        let mut kn = k();
        let mut tr = TickTrace::new(64);
        for _ in 0..5 {
            kn.note_detected(0.0, StageId::Analyze, DetectionSource::Scrub, &mut tr);
        }
        kn.note_repaired(0.0, StageId::Execute, ChainHop::Snapshot, &mut tr);
        let events: Vec<TraceEvent> = tr.events().cloned().collect();
        assert_eq!(kn.faults_detected, 5);
        assert_eq!(kn.faults_repaired, 1);
        assert!(kn.detections_match_trace(&events));
    }

    #[test]
    fn begin_tick_resets_budget() {
        let mut kn = k();
        kn.tick.sync_latency_s = 9.0;
        kn.tick.detected = true;
        kn.begin_tick();
        assert_eq!(kn.tick, TickBudget::default());
    }
}
