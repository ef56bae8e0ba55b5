//! The M, A, P, and E of the MAPE-K loop as swappable trait objects.
//!
//! Each stage is a trait whose methods receive `&mut Knowledge`, the
//! [`Plant`], the [`RestoreChain`], and the trace — never another
//! stage. The default implementations reproduce the monolithic
//! pre-refactor `RuntimeManager::step()` bit for bit (the golden-output
//! test gates this); alternative estimators, policies, and actuators
//! can be installed per fleet member via the `RuntimeManager::set_*`
//! hooks.

use crate::envelope::SafetyEnvelope;
use crate::faults::OperatingState;
use crate::knowledge::{Knowledge, PendingRestore};
use crate::monitor::RiskEstimator;
use crate::plant::Plant;
use crate::policy::Policy;
use crate::restore::{ChainReport, RestoreChain};
use crate::trace::{StageId, TickTrace, TraceEventKind};
use crate::Result;
use reprune_scenario::{OddSpec, Tick};

/// Ladder cap applied while [`OperatingState::Degraded`]: no pruning
/// deeper than one level until the system is verified clean.
pub const DEGRADED_MAX_LEVEL: usize = 1;

/// What the Analyze stage concluded about the current tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Analysis {
    /// Fused risk estimate from the Monitor.
    pub estimated_risk: f64,
    /// Whether the tick is inside the Operational Design Domain.
    pub inside_odd: bool,
    /// Deepest ladder level the safety envelope permits at the true
    /// risk.
    pub max_allowed_level: usize,
}

/// What the Plan stage commanded for the current tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Directive {
    /// Level the policy wanted before degradation caps.
    pub planned: usize,
    /// Level the Execute stage must drive toward.
    pub target: usize,
}

/// Monitor stage: sensor/confidence channel health and the fused risk
/// estimate.
pub trait Monitor: Send {
    /// Propagates scheduled fault-window channel failures into the
    /// estimator and pins the system at least at Degraded while any
    /// self-announcing window is active (armed defenses only).
    fn observe_health(
        &mut self,
        k: &mut Knowledge,
        plant: &Plant,
        tick: &Tick,
        trace: &mut TickTrace,
    );

    /// Fuses the risk sensor with the last inference confidence into
    /// the per-tick risk estimate. Called exactly once per tick.
    fn estimate(&mut self, k: &Knowledge, tick: &Tick) -> f64;

    /// Serializes any stage-private mutable state as plain words so a
    /// crash-recovery checkpoint can resume the stage bit-exactly.
    /// Stateless monitors return an empty vector (the default).
    fn export_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state exported by [`Monitor::export_state`]. Malformed
    /// input is ignored.
    fn import_state(&mut self, _words: &[u64]) {}
}

/// Analyze stage: integrity verdicts and tick assessment.
pub trait Analyze: Send {
    /// Runs the armed integrity checks (background scrub, sealed
    /// checksum) and escalates through the restore chain on a verdict.
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable restore errors.
    fn verify_integrity(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Result<()>;

    /// Assesses the tick: ODD membership and the envelope's level cap.
    fn assess(&mut self, k: &Knowledge, tick: &Tick, estimated_risk: f64) -> Analysis;
}

/// Plan stage: level selection under the degradation caps.
pub trait Plan: Send {
    /// Chooses the planned and target levels for this tick.
    fn plan(
        &mut self,
        k: &Knowledge,
        analysis: &Analysis,
        current_level: usize,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Directive;

    /// Name of the governing policy (reported on `RunResult`).
    fn policy_name(&self) -> String;

    /// Serializes any stage-private mutable state as plain words so a
    /// crash-recovery checkpoint can resume the stage bit-exactly.
    /// Stateless planners return an empty vector (the default).
    fn export_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state exported by [`Plan::export_state`]. Malformed
    /// input is ignored.
    fn import_state(&mut self, _words: &[u64]) {}
}

/// Execute stage: pruner transitions, the fallback chain, and reload
/// scheduling.
pub trait Execute: Send {
    /// Completes a due storage reload and retries a wanted one under
    /// backoff.
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable restore errors.
    fn service_reload(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Result<()>;

    /// Completes a due multi-tick ladder restore through the fallback
    /// chain.
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable restore errors.
    fn service_restore(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Result<()>;

    /// Drives the pruner toward the directive's target: in-place deeper
    /// pruning, synchronous restore through the chain, or scheduling a
    /// multi-tick restore (retargeting it on a deeper emergency).
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable pruning/restore errors.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        directive: &Directive,
        tick: &Tick,
        dt: f64,
        trace: &mut TickTrace,
    ) -> Result<()>;
}

/// Default Monitor: the EWMA risk-fusion estimator plus window-health
/// propagation.
pub struct DefaultMonitor {
    estimator: RiskEstimator,
    armed: bool,
}

impl DefaultMonitor {
    /// Wraps a risk estimator; `armed` reflects whether any defense tier
    /// is active (unarmed monitors never escalate the state machine).
    pub fn new(estimator: RiskEstimator, armed: bool) -> Self {
        DefaultMonitor { estimator, armed }
    }
}

impl Monitor for DefaultMonitor {
    fn observe_health(
        &mut self,
        k: &mut Knowledge,
        plant: &Plant,
        tick: &Tick,
        trace: &mut TickTrace,
    ) {
        // Monitor channels follow the scheduled fault windows.
        self.estimator.set_sensor_failed(tick.t < k.sensor_fault_until);
        self.estimator.set_confidence_failed(tick.t < k.confidence_fault_until);
        // An armed health monitor pins the system at least at Degraded
        // while any fault window is active.
        if self.armed && k.windows_active(tick.t, &plant.storage) {
            k.enter_state(OperatingState::Degraded, tick.t, trace);
        }
    }

    fn estimate(&mut self, k: &Knowledge, tick: &Tick) -> f64 {
        self.estimator.observe(tick.risk, k.last_confidence)
    }

    fn export_state(&self) -> Vec<u64> {
        // `armed` is config-derived and rebuilt on recovery; only the
        // estimator carries run-dependent state.
        self.estimator.export_state()
    }

    fn import_state(&mut self, words: &[u64]) {
        self.estimator.import_state(words);
    }
}

/// Default Analyze: scrub + sealed-checksum defense and envelope/ODD
/// assessment.
pub struct DefaultAnalyze {
    envelope: SafetyEnvelope,
    odd: OddSpec,
}

impl DefaultAnalyze {
    /// Builds the analyzer from the configured envelope and ODD.
    pub fn new(envelope: SafetyEnvelope, odd: OddSpec) -> Self {
        DefaultAnalyze { envelope, odd }
    }
}

impl Analyze for DefaultAnalyze {
    fn verify_integrity(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Result<()> {
        crate::defense::verify_integrity(k, plant, chain, tick, trace)
    }

    fn assess(&mut self, _k: &Knowledge, tick: &Tick, estimated_risk: f64) -> Analysis {
        Analysis {
            estimated_risk,
            inside_odd: self.odd.contains(tick),
            max_allowed_level: self.envelope.max_level(tick.risk),
        }
    }
}

/// Default Plan: the configured adaptation policy, capped by the
/// degradation state machine and forced to full capacity outside the
/// ODD.
pub struct DefaultPlanner {
    policy: Policy,
    envelope: SafetyEnvelope,
}

impl DefaultPlanner {
    /// Builds the planner from the configured policy and envelope.
    pub fn new(policy: Policy, envelope: SafetyEnvelope) -> Self {
        DefaultPlanner { policy, envelope }
    }
}

impl Plan for DefaultPlanner {
    fn plan(
        &mut self,
        k: &Knowledge,
        analysis: &Analysis,
        current_level: usize,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Directive {
        let planned = if analysis.inside_odd {
            let policy_level = self.policy.decide(
                &self.envelope,
                analysis.estimated_risk,
                tick.risk,
                current_level,
            );
            // A fleet arbiter may ask for deeper pruning than the local
            // policy chose (its budget share only covers `cap.level`),
            // but never deeper than the envelope allows at this tick's
            // risk — the budget yields to safety, not the other way.
            match k.external_cap {
                Some(cap) => policy_level.max(cap.level.min(analysis.max_allowed_level)),
                None => policy_level,
            }
        } else {
            // Outside the ODD the safety case does not cover degraded
            // perception: minimal-risk response is full capacity.
            0
        };
        let target = match k.op_state {
            OperatingState::Normal => planned,
            OperatingState::Degraded => planned.min(DEGRADED_MAX_LEVEL),
            OperatingState::MinimalRisk => 0,
        };
        if target != current_level {
            trace.record(
                tick.t,
                StageId::Plan,
                TraceEventKind::DecisionTaken {
                    current: current_level,
                    planned,
                    target,
                },
            );
        }
        Directive { planned, target }
    }

    fn policy_name(&self) -> String {
        self.policy.name()
    }

    fn export_state(&self) -> Vec<u64> {
        // The only mutable policy state is the adaptive dwell streak.
        match &self.policy {
            Policy::ReversibleAdaptive { raise_streak, .. } => vec![*raise_streak as u64],
            _ => Vec::new(),
        }
    }

    fn import_state(&mut self, words: &[u64]) {
        if let (Policy::ReversibleAdaptive { raise_streak, .. }, Some(w)) =
            (&mut self.policy, words.first())
        {
            *raise_streak = *w as usize;
        }
    }
}

/// Default Execute: the restore fallback chain actuator.
pub struct ChainExecutor;

impl Execute for ChainExecutor {
    fn service_reload(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Result<()> {
        if let Some(ready) = k.pending_reload {
            if tick.t + 1e-9 >= ready {
                k.pending_reload = None;
                chain.complete_storage_reload(k, plant, tick.t, trace)?;
                k.tick.repaired = true;
            }
        }
        if k.reload_wanted && k.pending_reload.is_none() && tick.t >= k.next_reload_attempt_s {
            let mut rep = ChainReport::default();
            chain.try_storage_reload(k, plant, tick.t, &mut rep, trace);
            k.absorb_deferred(rep);
        }
        Ok(())
    }

    fn service_restore(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        tick: &Tick,
        trace: &mut TickTrace,
    ) -> Result<()> {
        if k.pending_reload.is_none() {
            if let Some(p) = &k.pending {
                if tick.t + 1e-9 >= p.ready_at {
                    let target = p.target;
                    k.pending = None;
                    let rep = chain.set_level_chain(k, plant, target, tick.t, trace)?;
                    k.absorb(rep);
                    trace.record(
                        tick.t,
                        StageId::Execute,
                        TraceEventKind::RestoreCompleted {
                            level: plant.pruner.current_level(),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    fn apply(
        &mut self,
        k: &mut Knowledge,
        plant: &mut Plant,
        chain: &RestoreChain,
        directive: &Directive,
        tick: &Tick,
        dt: f64,
        trace: &mut TickTrace,
    ) -> Result<()> {
        let target = directive.target;
        if k.pending_reload.is_some() {
            // Nothing: the network serves as-is until the image arrives.
        } else if k.pending.is_none() && target != plant.pruner.current_level() {
            if target > plant.pruner.current_level() {
                // Pruning deeper: in-place mask application, sub-tick cost.
                let before = plant.pruner.log_entries();
                // Leaving an int8 rung pops its rung segment before
                // pruning deeper. A corrupt one goes through the restore
                // chain, which detects it once, repairs or degrades, and
                // counts the transition itself.
                if plant.pruner.rung_pop_fails() {
                    let rep = chain.set_level_chain(k, plant, target, tick.t, trace)?;
                    k.absorb(rep);
                } else {
                    let tr = plant.pruner.set_level(&mut plant.net, target)?;
                    if tr.from != tr.to {
                        k.transitions += 1;
                    }
                    k.reseal(&plant.net);
                }
                // Only net log growth is charged: a snapshot fallback
                // empties the log, and a popped precision segment can
                // outweigh the evictions pushed after it.
                let pushed = plant.pruner.log_entries().saturating_sub(before);
                let lat = chain
                    .soc
                    .delta_restore_latency((pushed as f64 * chain.scale_factor) as usize);
                k.absorb(ChainReport {
                    latency: lat,
                    energy: chain.restore_energy(pushed),
                    detected: false,
                    repaired: false,
                });
            } else {
                // Restoring capacity: charge the configured mechanism.
                let entries = plant
                    .pruner
                    .hop_entries(target, plant.pruner.current_level())
                    .walk();
                let latency = chain.restore_latency(entries);
                k.absorb_deferred(ChainReport {
                    latency,
                    energy: chain.restore_energy(entries),
                    detected: false,
                    repaired: false,
                });
                if latency.0 <= dt {
                    k.tick.sync_latency_s += latency.0;
                    let rep = chain.set_level_chain(k, plant, target, tick.t, trace)?;
                    k.absorb(rep);
                } else {
                    k.pending = Some(PendingRestore {
                        target,
                        ready_at: tick.t + latency.0,
                    });
                    trace.record(
                        tick.t,
                        StageId::Execute,
                        TraceEventKind::RestoreScheduled {
                            target,
                            ready_at: tick.t + latency.0,
                        },
                    );
                }
            }
        } else if let Some(p) = &mut k.pending {
            // A deeper emergency while already restoring: retarget lower.
            if target < p.target {
                p.target = target;
                trace.record(
                    tick.t,
                    StageId::Execute,
                    TraceEventKind::RestoreRetargeted { target },
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use reprune_scenario::{SegmentKind, Weather};

    fn tick(t: f64, risk: f64) -> Tick {
        Tick {
            t,
            segment: SegmentKind::Highway,
            weather: Weather::Clear,
            risk,
            active_events: 0,
        }
    }

    fn knowledge() -> Knowledge {
        Knowledge::new(Vec::new(), reprune_platform::Bytes(1), 0)
    }

    fn planner() -> DefaultPlanner {
        DefaultPlanner::new(
            Policy::Oracle,
            SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).unwrap(),
        )
    }

    #[test]
    fn planner_forces_full_capacity_outside_odd() {
        let mut p = planner();
        let k = knowledge();
        let mut tr = TickTrace::new(8);
        let analysis = Analysis {
            estimated_risk: 0.05,
            inside_odd: false,
            max_allowed_level: 3,
        };
        let d = p.plan(&k, &analysis, 3, &tick(0.0, 0.05), &mut tr);
        assert_eq!(d.planned, 0, "outside the ODD the plan is full capacity");
        assert_eq!(d.target, 0);
    }

    #[test]
    fn planner_caps_target_by_degradation_state() {
        let mut p = planner();
        let mut k = knowledge();
        let mut tr = TickTrace::new(8);
        let analysis = Analysis {
            estimated_risk: 0.05,
            inside_odd: true,
            max_allowed_level: 3,
        };
        // Oracle at risk 0.05 plans the deepest level (3).
        k.op_state = OperatingState::Degraded;
        let d = p.plan(&k, &analysis, 0, &tick(0.0, 0.05), &mut tr);
        assert_eq!(d.planned, 3);
        assert_eq!(d.target, DEGRADED_MAX_LEVEL, "degraded caps the target");
        k.op_state = OperatingState::MinimalRisk;
        let d = p.plan(&k, &analysis, 1, &tick(0.0, 0.05), &mut tr);
        assert_eq!(d.target, 0, "minimal risk forces full capacity");
    }

    #[test]
    fn external_cap_floors_the_plan_inside_the_odd_only() {
        use crate::knowledge::ExternalCap;
        let mut p = planner();
        let mut k = knowledge();
        let mut tr = TickTrace::new(8);
        // Oracle at risk 0.5 plans level 1; the arbiter asks for ≥ 2.
        let analysis = Analysis {
            estimated_risk: 0.5,
            inside_odd: true,
            max_allowed_level: 3,
        };
        k.external_cap = Some(ExternalCap { level: 2 });
        let d = p.plan(&k, &analysis, 0, &tick(0.0, 0.5), &mut tr);
        assert_eq!(d.planned, 2, "budget floor raises the planned level");
        // The cap is clamped to the envelope's allowance for the tick.
        let risky = Analysis {
            estimated_risk: 0.9,
            inside_odd: true,
            max_allowed_level: 0,
        };
        let d = p.plan(&k, &risky, 0, &tick(0.1, 0.9), &mut tr);
        assert_eq!(d.planned, 0, "envelope beats the budget cap");
        // Outside the ODD the cap is ignored entirely.
        let outside = Analysis {
            estimated_risk: 0.1,
            inside_odd: false,
            max_allowed_level: 3,
        };
        let d = p.plan(&k, &outside, 2, &tick(0.2, 0.1), &mut tr);
        assert_eq!(d.planned, 0, "ODD exit overrides the budget cap");
        // A cap below the policy's own choice changes nothing.
        k.external_cap = Some(ExternalCap { level: 0 });
        let deep = Analysis {
            estimated_risk: 0.05,
            inside_odd: true,
            max_allowed_level: 3,
        };
        let d = p.plan(&k, &deep, 3, &tick(0.3, 0.05), &mut tr);
        assert_eq!(d.planned, 3, "floor below the plan is inert");
    }

    #[test]
    fn planner_traces_only_real_decisions() {
        let mut p = planner();
        let k = knowledge();
        let mut tr = TickTrace::new(8);
        let analysis = Analysis {
            estimated_risk: 0.9,
            inside_odd: true,
            max_allowed_level: 0,
        };
        // Already at the target level: no decision event.
        p.plan(&k, &analysis, 0, &tick(0.0, 0.9), &mut tr);
        assert!(tr.is_empty());
        // A change is commanded: one decision event.
        p.plan(&k, &analysis, 2, &tick(0.1, 0.9), &mut tr);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.events().next().unwrap().kind.name(), "decision-taken");
    }
}
