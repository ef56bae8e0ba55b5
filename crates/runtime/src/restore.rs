//! The restore fallback chain: delta restore → shadow repair → in-RAM
//! snapshot → storage reload.
//!
//! [`RestoreChain`] is a *stateless* cost-and-mechanism model: it holds
//! the configured restore mechanism, deployment scaling, SoC model, and
//! defense tier, and mutates only the [`Knowledge`] and
//! [`Plant`] passed into each call. All chain bookkeeping (pending
//! reloads, backoff, integrity flags, counters) lives in `Knowledge`, so
//! the chain can be shared by every stage that needs it.

use crate::faults::{FaultDefense, OperatingState};
use crate::knowledge::{Knowledge, RELOAD_BACKOFF_MAX_S, RELOAD_BACKOFF_MIN_S};
use crate::plant::Plant;
use crate::trace::{ChainHop, DetectionSource, StageId, TickTrace, TraceEventKind};
use crate::Result;
use reprune_platform::{Bytes, Joules, Seconds, SocModel, StorageError};
use reprune_prune::PruneError;
use serde::{Deserialize, Serialize};

/// How the runtime restores capacity when it lowers the ladder level.
///
/// All three mechanisms end in the same weights (the simulator uses the
/// reversal log for state in every case); they differ in the *platform
/// cost* charged and therefore in how long the network stays degraded —
/// which is exactly what experiment F4 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RestoreMechanism {
    /// The paper's reversal log: O(#evicted) scattered writes.
    DeltaLog,
    /// Full in-RAM snapshot copy.
    Snapshot,
    /// Reload the model image from storage (the conventional baseline for
    /// irreversible pruning).
    StorageReload,
}

impl std::fmt::Display for RestoreMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RestoreMechanism::DeltaLog => "delta-log",
            RestoreMechanism::Snapshot => "snapshot",
            RestoreMechanism::StorageReload => "storage-reload",
        };
        write!(f, "{s}")
    }
}

/// What repair/fallback hops charged during one tick, and whether
/// detection or repair fired. Folded into the tick budget via
/// [`Knowledge::absorb`] / [`Knowledge::absorb_deferred`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainReport {
    /// Latency charged by the hops.
    pub latency: Seconds,
    /// Energy charged by the hops.
    pub energy: Joules,
    /// A check fired during the chain.
    pub detected: bool,
    /// A repair or fallback restore resolved the problem.
    pub repaired: bool,
}

/// The configured restore mechanism and platform cost model, plus the
/// chain logic that walks the fallback hops.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreChain {
    /// Restore mechanism to charge.
    pub mechanism: RestoreMechanism,
    /// Deployment scale factor on log entries.
    pub scale_factor: f64,
    /// Platform model.
    pub soc: SocModel,
    /// Deployment-scale size of the model image.
    pub model_bytes: Bytes,
    /// Armed fault-defense tier (gates which hops exist).
    pub defense: FaultDefense,
}

impl RestoreChain {
    /// Latency of restoring `entries_restored` log entries under the
    /// configured mechanism.
    pub fn restore_latency(&self, entries_restored: usize) -> Seconds {
        match self.mechanism {
            RestoreMechanism::DeltaLog => self
                .soc
                .delta_restore_latency((entries_restored as f64 * self.scale_factor) as usize),
            RestoreMechanism::Snapshot => self.soc.snapshot_restore_latency(self.model_bytes),
            RestoreMechanism::StorageReload => self.soc.storage_reload_latency(self.model_bytes),
        }
    }

    /// Energy of restoring `entries_restored` log entries under the
    /// configured mechanism.
    pub fn restore_energy(&self, entries_restored: usize) -> Joules {
        match self.mechanism {
            RestoreMechanism::DeltaLog => self
                .soc
                .delta_restore_energy((entries_restored as f64 * self.scale_factor) as usize),
            RestoreMechanism::Snapshot => self.soc.snapshot_restore_energy(self.model_bytes),
            RestoreMechanism::StorageReload => self.soc.storage_reload_energy(self.model_bytes),
        }
    }

    /// Applies `target` through the restore fallback chain:
    /// delta restore → shadow repair + retry → in-RAM snapshot →
    /// storage reload (scheduled with backoff by the Execute stage).
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable pruning errors.
    pub fn set_level_chain(
        &self,
        k: &mut Knowledge,
        plant: &mut Plant,
        target: usize,
        t: f64,
        trace: &mut TickTrace,
    ) -> Result<ChainReport> {
        let mut rep = ChainReport::default();
        let mut repairs = 0usize;
        loop {
            match plant.pruner.set_level(&mut plant.net, target) {
                Ok(tr) => {
                    if tr.from != tr.to {
                        k.transitions += 1;
                        k.reseal(&plant.net);
                        trace.record(
                            t,
                            StageId::Execute,
                            TraceEventKind::ChainStep {
                                hop: ChainHop::Delta,
                            },
                        );
                    }
                    return Ok(rep);
                }
                Err(PruneError::LogCorruption { segment, .. }) => {
                    rep.detected = true;
                    if !k.log_bad {
                        k.note_detected(t, StageId::Execute, DetectionSource::VerifyOnPop, trace);
                    }
                    k.enter_state(OperatingState::Degraded, t, trace);
                    if self.defense != FaultDefense::FullChain {
                        // Checksum-only: detected but unrepairable. The
                        // log below the corrupt segment is unusable, so
                        // full capacity is unreachable: minimal risk.
                        k.log_bad = true;
                        k.enter_state(OperatingState::MinimalRisk, t, trace);
                        return Ok(rep);
                    }
                    repairs += 1;
                    if repairs <= plant.pruner.log_segments() + 1
                        && plant.pruner.repair_segment(segment).is_ok()
                    {
                        // Hop 2: shadow-copy repair, then retry the
                        // delta restore. The repair rewrites the
                        // segment, priced as one more delta pass.
                        rep.repaired = true;
                        k.note_repaired(t, StageId::Execute, ChainHop::ShadowRepair, trace);
                        k.log_bad = false;
                        rep.latency += self.soc.delta_restore_latency(
                            (plant
                                .pruner
                                .hop_entries(target, plant.pruner.current_level())
                                .walk() as f64
                                * self.scale_factor) as usize,
                        );
                        trace.record(
                            t,
                            StageId::Execute,
                            TraceEventKind::ChainStep {
                                hop: ChainHop::ShadowRepair,
                            },
                        );
                        continue;
                    }
                    // Hop 3: in-RAM snapshot (storage reload inside if
                    // the snapshot is itself corrupt).
                    k.log_bad = true;
                    self.fallback_snapshot(k, plant, t, &mut rep, trace)?;
                    return Ok(rep);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Hop 3 of the chain: full restore from the in-RAM snapshot. Falls
    /// through to a storage reload when the snapshot region was hit by
    /// bit-flips (caught by the attach-time base checksum).
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable restore errors.
    pub fn fallback_snapshot(
        &self,
        k: &mut Knowledge,
        plant: &mut Plant,
        t: f64,
        rep: &mut ChainReport,
        trace: &mut TickTrace,
    ) -> Result<()> {
        rep.latency += self.soc.snapshot_restore_latency(self.model_bytes);
        rep.energy += self.soc.snapshot_restore_energy(self.model_bytes);
        trace.record(
            t,
            StageId::Execute,
            TraceEventKind::ChainStep {
                hop: ChainHop::Snapshot,
            },
        );
        plant.snapshot.restore(&mut plant.net)?;
        // The snapshot region is DRAM too: flips that landed there
        // surface in the restored copy.
        for _ in 0..k.snapshot_flips {
            crate::faults::inject_weight_bitflip(&mut plant.net, &mut plant.corruption_rng);
        }
        match plant.pruner.adopt_full_restore(&plant.net) {
            Ok(()) => {
                k.transitions += 1;
                k.log_bad = false;
                k.integrity_bad = false;
                k.reseal(&plant.net);
                rep.repaired = true;
                k.note_repaired(t, StageId::Execute, ChainHop::Snapshot, trace);
                Ok(())
            }
            Err(PruneError::IntegrityViolation { .. }) => {
                // Hop 4: the snapshot is corrupt too — reload the model
                // image from storage.
                rep.detected = true;
                k.note_detected(t, StageId::Execute, DetectionSource::SnapshotChecksum, trace);
                k.integrity_bad = true;
                k.enter_state(OperatingState::MinimalRisk, t, trace);
                // Hop 3½: when the durable spill holds a sealed base
                // image, rebuild from it synchronously instead of
                // waiting out a multi-tick storage reload.
                if crate::spill::try_disk_reload(self, k, plant, t, rep, trace) {
                    return Ok(());
                }
                k.reload_wanted = true;
                self.try_storage_reload(k, plant, t, rep, trace);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Hop 4: schedule a full model-image reload from storage, backing
    /// off exponentially (bounded) while the device refuses reads.
    pub fn try_storage_reload(
        &self,
        k: &mut Knowledge,
        plant: &mut Plant,
        t: f64,
        rep: &mut ChainReport,
        trace: &mut TickTrace,
    ) {
        if k.pending_reload.is_some() {
            return;
        }
        match plant.storage.read_latency(&self.soc, self.model_bytes, t) {
            Ok(lat) => {
                rep.latency += lat;
                rep.energy += self.soc.storage_reload_energy(self.model_bytes);
                k.pending_reload = Some(t + lat.0);
                k.reload_backoff_s = RELOAD_BACKOFF_MIN_S;
                trace.record(
                    t,
                    StageId::Execute,
                    TraceEventKind::ReloadScheduled { ready_at: t + lat.0 },
                );
            }
            Err(StorageError::TransientFailure) => {
                k.next_reload_attempt_s = t + k.reload_backoff_s;
                k.reload_backoff_s = (k.reload_backoff_s * 2.0).min(RELOAD_BACKOFF_MAX_S);
                trace.record(
                    t,
                    StageId::Execute,
                    TraceEventKind::ReloadDeferred {
                        next_attempt_s: k.next_reload_attempt_s,
                    },
                );
            }
            Err(StorageError::PermanentFailure) => {
                // No reload will ever succeed; the state machine keeps
                // the system parked in minimal risk.
                k.next_reload_attempt_s = f64::INFINITY;
                trace.record(t, StageId::Execute, TraceEventKind::ReloadImpossible);
            }
        }
    }

    /// Completes a scheduled storage reload: the image that crossed the
    /// storage bus is pristine, so this always rebases cleanly.
    ///
    /// # Errors
    ///
    /// Propagates restore errors (none occur on a pristine image).
    pub fn complete_storage_reload(
        &self,
        k: &mut Knowledge,
        plant: &mut Plant,
        t: f64,
        trace: &mut TickTrace,
    ) -> Result<()> {
        plant.snapshot.restore(&mut plant.net)?;
        plant.pruner.adopt_full_restore(&plant.net)?;
        k.transitions += 1;
        k.reload_wanted = false;
        k.integrity_bad = false;
        k.log_bad = false;
        // Reloading also refreshes the in-RAM snapshot copy.
        k.snapshot_flips = 0;
        k.reseal(&plant.net);
        k.note_repaired(t, StageId::Execute, ChainHop::StorageReload, trace);
        trace.record(t, StageId::Execute, TraceEventKind::ReloadCompleted);
        Ok(())
    }
}
