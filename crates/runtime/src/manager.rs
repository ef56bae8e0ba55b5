//! The MAPE-K runtime manager: pure orchestration over the stages.
//!
//! [`RuntimeManager::step`] wires the pipeline in a fixed order —
//! environment fault injection, Monitor health, Execute reload/restore
//! servicing, Analyze integrity + assessment, Plan, Execute, perception,
//! state relaxation, record assembly — and owns no control logic of its
//! own. The logic lives in the stage implementations
//! ([`crate::stages`]), the restore chain ([`crate::restore`]), the
//! defense ([`crate::defense`]), and the shared [`Knowledge`] base.

use crate::envelope::SafetyEnvelope;
use crate::faults::{FaultDefense, FaultPlan, OperatingState};
use crate::knowledge::Knowledge;
use crate::monitor::{RiskEstimator, RiskEstimatorConfig};
use crate::plant::Plant;
use crate::policy::Policy;
use crate::record::{RunResult, TickRecord};
use crate::restore::RestoreChain;
use crate::spill::{RecoveryReport, SpillConfig, SpillState, SpillStats};
use crate::stages::{
    Analyze, ChainExecutor, DefaultAnalyze, DefaultMonitor, DefaultPlanner, Execute, Monitor, Plan,
};
use crate::trace::{StageId, TickTrace, TraceEventKind};
use crate::{defense, Result, RuntimeError};
use reprune_nn::{ExecPlan, Network, Scratch};
use reprune_platform::profile::NetworkProfile;
use reprune_platform::{Bytes, DurableLog, Seconds, SocModel, StorageHealth};
use reprune_prune::spill as prune_spill;
use reprune_prune::{
    ladder_plans, weights_checksum, IntegrityStats, RecordKind, ReversiblePruner, SnapshotRestore,
    SparsityLadder,
};
use reprune_scenario::{OddSpec, Scenario, Tick};
use reprune_tensor::rng::Prng;
use serde::{Deserialize, Serialize};

pub use crate::knowledge::LevelKnowledge;
pub use crate::restore::RestoreMechanism;
// Moved to `reprune_scenario` next to `Weather`; re-exported here for
// compatibility with pre-refactor import paths.
pub use reprune_scenario::weather_to_context;

/// Scale factor mapping the tiny trainable reference model to a
/// deployment-scale perception network (DESIGN.md §5): MACs, weight
/// bytes, and log entries are all multiplied by `factor` when charging
/// platform costs. Accuracy is always measured on the real (small) model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentScale {
    /// Multiplier on MACs / bytes / log entries.
    pub factor: f64,
}

impl Default for DeploymentScale {
    fn default() -> Self {
        // ~54k-param reference CNN × 150 ≈ an 8M-param (33 MB) perception
        // network — ResNet-18 class, the size automotive stacks deploy.
        DeploymentScale { factor: 150.0 }
    }
}

/// Calibration data the runtime renders for attach-time per-level
/// fine-tuning (only consulted when the ladder carries a
/// [`reprune_prune::FineTuneSpec`]). The set is generated
/// deterministically from the seed. Recovery reads the tune hops back
/// from the spill's base record and renders the set only when it has
/// to start fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FineTuneData {
    /// Scene samples rendered for the tuning set.
    pub samples: usize,
    /// Seed of the deterministic scene generator.
    pub seed: u64,
}

impl Default for FineTuneData {
    fn default() -> Self {
        // Large enough to cover every class/context pair a few times;
        // small enough that attach stays sub-second at bench scale.
        FineTuneData { samples: 64, seed: 0 }
    }
}

/// Configuration of the runtime manager.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeManagerConfig {
    /// Adaptation policy.
    pub policy: Policy,
    /// Safety envelope over the ladder.
    pub envelope: SafetyEnvelope,
    /// Risk-estimator (Monitor) configuration.
    pub estimator: RiskEstimatorConfig,
    /// Restore mechanism to charge.
    pub mechanism: RestoreMechanism,
    /// Deployment scaling of platform costs.
    pub scale: DeploymentScale,
    /// Platform model.
    pub soc: SocModel,
    /// Seed for per-tick frame rendering.
    pub frame_seed: u64,
    /// Operational Design Domain: outside it the runtime forces full
    /// capacity regardless of the policy (minimal-risk response).
    pub odd: OddSpec,
    /// How much of the fault-tolerance machinery is armed
    /// (see [`FaultDefense`]).
    pub defense: FaultDefense,
    /// Capacity of the tick-event trace ring buffer.
    pub trace_capacity: usize,
    /// Durable reversal-log spill configuration; `None` (the default)
    /// keeps everything in RAM with no crash recovery.
    pub spill: Option<SpillConfig>,
    /// Calibration data for attach-time per-level fine-tuning. Ignored
    /// unless the attached ladder carries a fine-tune spec.
    pub fine_tune_data: FineTuneData,
}

impl RuntimeManagerConfig {
    /// A reasonable default configuration for a given envelope.
    pub fn new(policy: Policy, envelope: SafetyEnvelope) -> Self {
        RuntimeManagerConfig {
            policy,
            envelope,
            estimator: RiskEstimatorConfig::default(),
            mechanism: RestoreMechanism::DeltaLog,
            scale: DeploymentScale::default(),
            soc: SocModel::jetson_class(),
            frame_seed: 0,
            odd: OddSpec::permissive(),
            defense: FaultDefense::FullChain,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
            spill: None,
            fine_tune_data: FineTuneData::default(),
        }
    }

    /// Sets the restore mechanism.
    pub fn mechanism(mut self, mechanism: RestoreMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sets the frame-rendering seed.
    pub fn frame_seed(mut self, seed: u64) -> Self {
        self.frame_seed = seed;
        self
    }

    /// Sets the estimator configuration.
    pub fn estimator(mut self, estimator: RiskEstimatorConfig) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the platform model.
    pub fn soc(mut self, soc: SocModel) -> Self {
        self.soc = soc;
        self
    }

    /// Sets the deployment scale factor.
    pub fn scale(mut self, factor: f64) -> Self {
        self.scale = DeploymentScale { factor };
        self
    }

    /// Sets the Operational Design Domain.
    pub fn odd(mut self, odd: OddSpec) -> Self {
        self.odd = odd;
        self
    }

    /// Sets the fault-defense tier.
    pub fn defense(mut self, defense: FaultDefense) -> Self {
        self.defense = defense;
        self
    }

    /// Sets the trace ring-buffer capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables the durable reversal-log spill (crash recovery).
    pub fn spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Sets the attach-time fine-tuning calibration data.
    pub fn fine_tune_data(mut self, data: FineTuneData) -> Self {
        self.fine_tune_data = data;
        self
    }
}

/// The MAPE-K runtime manager: owns the plant, the knowledge base, the
/// four stages, and the control loop that drives them through a
/// scenario.
pub struct RuntimeManager {
    config: RuntimeManagerConfig,
    plant: Plant,
    knowledge: Knowledge,
    chain: RestoreChain,
    monitor: Box<dyn Monitor>,
    analyzer: Box<dyn Analyze>,
    planner: Box<dyn Plan>,
    executor: Box<dyn Execute>,
    plan: Option<FaultPlan>,
    trace: TickTrace,
    /// Ticks completed so far (across recoveries — a recovered manager
    /// starts at the checkpoint's tick index).
    ticks_done: usize,
    /// Scenario tick index a recovered manager resumes from (0 for a
    /// fresh attach).
    resume_tick: usize,
    /// Fault-plan cursor/RNG state from a recovered checkpoint, applied
    /// to the next plan installed.
    recovered_plan_state: Option<Vec<u64>>,
}

/// Checks the envelope against the ladder and builds each level's
/// execution plan — the attach work that needs no pruner, done before
/// it.
fn plan_ladder(
    net: &Network,
    ladder: &SparsityLadder,
    config: &RuntimeManagerConfig,
) -> Result<Vec<ExecPlan>> {
    if config.envelope.levels() != ladder.num_levels() {
        return Err(RuntimeError::bad_config(format!(
            "envelope governs {} levels but ladder has {}",
            config.envelope.levels(),
            ladder.num_levels()
        )));
    }
    Ok(ladder_plans(net, ladder)?)
}

impl RuntimeManager {
    /// Attaches the runtime to a trained network with a pre-built ladder.
    ///
    /// Profiles every ladder level once (the Knowledge base) and
    /// installs the default stage implementations.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] if the envelope's level count
    /// disagrees with the ladder or the spill device cannot be created,
    /// or propagates profiling errors.
    pub fn attach(
        mut net: Network,
        ladder: SparsityLadder,
        config: RuntimeManagerConfig,
    ) -> Result<Self> {
        let plans = plan_ladder(&net, &ladder, &config)?;
        let pruner = Self::attach_pruner(&mut net, ladder, &config)?;
        let mut mgr = Self::attach_core(net, pruner, plans, config)?;
        mgr.enable_spill()?;
        Ok(mgr)
    }

    /// The pruner a first attach starts from. A fine-tuned ladder
    /// renders its calibration set deterministically and runs the
    /// attach-time tuning walk, which leaves `net` untouched; the spill
    /// records the resulting tune hops, so recovery never repeats it.
    fn attach_pruner(
        net: &mut Network,
        ladder: SparsityLadder,
        config: &RuntimeManagerConfig,
    ) -> Result<ReversiblePruner> {
        if !ladder.has_fine_tune() {
            return Ok(ReversiblePruner::attach(net, ladder)?);
        }
        let data = reprune_nn::dataset::SceneDataset::builder()
            .samples(config.fine_tune_data.samples)
            .seed(config.fine_tune_data.seed)
            .build();
        Ok(ReversiblePruner::attach_fine_tuned(
            net,
            ladder,
            data.samples(),
        )?)
    }

    /// Attach minus spill setup — shared by [`RuntimeManager::attach`]
    /// and [`RuntimeManager::recover`] (which installs its own spill
    /// state from the scanned device instead). `pruner` is attached to
    /// `net` at level 0, and `plans` come from [`plan_ladder`].
    fn attach_core(
        net: Network,
        mut pruner: ReversiblePruner,
        plans: Vec<ExecPlan>,
        config: RuntimeManagerConfig,
    ) -> Result<Self> {
        let input_dims = [1, reprune_nn::dataset::SCENE_SIZE, reprune_nn::dataset::SCENE_SIZE];
        let mut trace = TickTrace::new(config.trace_capacity);
        for level in 1..pruner.ladder().num_levels() {
            let entries = pruner.hop_entries(level - 1, level).tune;
            if entries > 0 {
                trace.record(
                    0.0,
                    StageId::Knowledge,
                    TraceEventKind::FineTuneAttached { level, entries },
                );
            }
        }
        // The fault-free twin starts as a copy of the freshly attached
        // pruner and network.
        let mirror_net = net.clone();
        let mirror_pruner = pruner.clone();
        let num_levels = pruner.ladder().num_levels();
        let mut levels = Vec::with_capacity(num_levels);
        for k in 0..num_levels {
            let level = pruner.ladder().level(k)?;
            let profile = NetworkProfile::of_masked(&net, &input_dims, Some(&level.masks))?
                .scaled(config.scale.factor);
            levels.push(LevelKnowledge {
                level: k,
                sparsity: level.sparsity,
                // Int8 rungs are profiled at int8 cost so FleetPlanner
                // budgets see the cheaper precision; F32 levels delegate
                // bit-identically to the pre-precision cost model.
                inference: config.soc.inference_cost_at(&profile, level.precision),
                // Tune hops ride on the log next to the eviction hops, so
                // they count toward the standing-entry budget (zero for
                // ladders without a fine-tune spec).
                log_entries: (pruner.hop_entries(0, k).walk() as f64 * config.scale.factor)
                    as usize,
            });
        }
        let model_bytes = Bytes(
            (net.prunable_layers()
                .iter()
                .map(|m| m.weight_len() * 4)
                .sum::<usize>() as f64
                * config.scale.factor) as u64,
        );
        match config.defense {
            FaultDefense::None => pruner.set_verify_on_pop(false),
            FaultDefense::ChecksumOnly => {}
            FaultDefense::FullChain => pruner.set_shadow_mode(true),
        }
        let snapshot = SnapshotRestore::capture(&net);
        let sealed_checksum = weights_checksum(&net);
        let plant = Plant {
            frame_rng: Prng::new(config.frame_seed),
            corruption_rng: Prng::new(config.frame_seed ^ 0xc0_44u64),
            net,
            pruner,
            plans,
            scratch: Scratch::new(),
            snapshot,
            mirror_net,
            mirror_pruner,
            storage: StorageHealth::new(),
            spill: None,
        };
        let knowledge = Knowledge::new(levels, model_bytes, sealed_checksum);
        let chain = RestoreChain {
            mechanism: config.mechanism,
            scale_factor: config.scale.factor,
            soc: config.soc.clone(),
            model_bytes,
            defense: config.defense,
        };
        let armed = config.defense != FaultDefense::None;
        Ok(RuntimeManager {
            monitor: Box::new(DefaultMonitor::new(RiskEstimator::new(config.estimator), armed)),
            analyzer: Box::new(DefaultAnalyze::new(config.envelope.clone(), config.odd.clone())),
            planner: Box::new(DefaultPlanner::new(config.policy.clone(), config.envelope.clone())),
            executor: Box::new(ChainExecutor),
            plant,
            knowledge,
            chain,
            plan: None,
            trace,
            ticks_done: 0,
            resume_tick: 0,
            recovered_plan_state: None,
            config,
        })
    }

    /// Creates the spill device and writes its base record.
    fn enable_spill(&mut self) -> Result<()> {
        let Some(cfg) = self.config.spill.clone() else {
            return Ok(());
        };
        let log = match &cfg.path {
            Some(p) => DurableLog::create(p)
                .map_err(|e| RuntimeError::bad_config(format!("spill device {p}: {e}")))?,
            None => DurableLog::in_memory(),
        };
        self.bootstrap_spill(log, cfg)
    }

    /// Writes the sealed base record onto an empty spill device — the
    /// pristine weight image, then the pruner's tune record (empty for
    /// untuned ladders) — and installs the spill state. An unbudgeted
    /// bootstrap write: the runtime is not ticking yet.
    fn bootstrap_spill(&mut self, mut log: DurableLog, cfg: SpillConfig) -> Result<()> {
        let mut payload = prune_spill::encode_base(&self.plant.net, 0);
        payload.extend_from_slice(&self.plant.pruner.tune_record());
        let frame = prune_spill::frame_record(RecordKind::Base, &payload);
        log.append(&frame)
            .map_err(|e| RuntimeError::bad_config(format!("spill bootstrap append: {e}")))?;
        log.sync()
            .map_err(|e| RuntimeError::bad_config(format!("spill bootstrap sync: {e}")))?;
        self.plant.spill = Some(SpillState::fresh(log, cfg, frame));
        Ok(())
    }

    /// Rebuilds a runtime from a crashed run's spill device.
    ///
    /// Scans the device once, discards any torn tail, restores the
    /// pristine base image onto `net` and attaches the pruner from the
    /// base record's tune hops, so a fine-tuned ladder is never trained
    /// again. It then replays the latest commit mark whose segment
    /// manifest is satisfiable: reversal-log segments are reinstalled,
    /// recorded in-RAM corruption is reproduced bit-exactly (log and
    /// weight patches), and the cross-stage knowledge, RNG streams,
    /// storage health, stage state, and trace numbering resume where
    /// the crashed run sealed them. Without a usable mark the manager
    /// starts at tick 0 on the surviving device. A base record whose
    /// image does not fit `net`, or whose tune record does not fit the
    /// ladder, is unusable: the device is reset and the manager starts
    /// fresh, exactly like a first attach.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] when the device cannot be
    /// read or the chosen mark names a segment it lacks, or propagates
    /// attach/replay errors.
    pub fn recover(
        mut net: Network,
        ladder: SparsityLadder,
        config: RuntimeManagerConfig,
        mut log: DurableLog,
    ) -> Result<(Self, RecoveryReport)> {
        let plans = plan_ladder(&net, &ladder, &config)?;
        let spill_cfg = config.spill.clone().unwrap_or_default();
        let bytes = log
            .read_all()
            .map_err(|e| RuntimeError::bad_config(format!("spill device read: {e}")))?;
        let mut res = crate::spill::resolve_scan(&bytes);
        log.truncate(res.valid_len)
            .map_err(|e| RuntimeError::bad_config(format!("spill device truncate: {e}")))?;
        let valid = &bytes[..res.valid_len as usize];
        let mut report = RecoveryReport {
            resumed: false,
            resume_tick: 0,
            records_scanned: res.records_scanned,
            marks_seen: res.marks.len(),
            bytes_discarded: bytes.len() as u64 - res.valid_len,
            log_patches_applied: 0,
            weight_patches_applied: 0,
        };
        let recorded = res.base_payload.take().and_then(|payload| {
            let (image, tune_record) = prune_spill::split_base(&payload).ok()?;
            let mut base = net.clone();
            prune_spill::apply_base(&mut base, image).ok()?;
            let pruner =
                ReversiblePruner::attach_recorded(&mut base, ladder.clone(), tune_record).ok()?;
            Some((base, pruner))
        });
        let base_ok = recorded.is_some();
        let mut mgr = match recorded {
            Some((base, pruner)) => Self::attach_core(base, pruner, plans, config)?,
            None => {
                let pruner = Self::attach_pruner(&mut net, ladder, &config)?;
                Self::attach_core(net, pruner, plans, config)?
            }
        };
        let mark = if base_ok { res.best_mark().cloned() } else { None };
        if let Some(m) = &mark {
            let mut segments = Vec::with_capacity(m.manifest.len());
            for h in &m.manifest {
                // `best_mark` picks only marks whose manifest the device
                // satisfies, so this error marks a scan bookkeeping bug.
                let payload = res.segments_by_hash.get(h).ok_or_else(|| {
                    RuntimeError::bad_config(format!(
                        "spill mark names segment {h:#018x}, which the device lacks"
                    ))
                })?;
                segments.push(reprune_prune::pruner::LevelDelta::from_spill_payload(payload)?);
            }
            mgr.plant.pruner.install_log(&mut mgr.plant.net, segments)?;
            for &(seg, idx, bits) in &m.log_patches {
                if mgr.plant.pruner.patch_log_value(seg as usize, idx as usize, bits) {
                    report.log_patches_applied += 1;
                }
            }
            report.weight_patches_applied =
                crate::spill::apply_weight_patches(&mut mgr.plant.net, &m.weight_patches);
            mgr.plant.pruner.import_cursor(m.cursor);
            mgr.plant.sync_mirror()?;
            // Attach rebuilt the per-level profile and the model size;
            // everything else comes from the mark.
            mgr.knowledge = Knowledge {
                levels: std::mem::take(&mut mgr.knowledge.levels),
                model_bytes: mgr.knowledge.model_bytes,
                ..m.knowledge.clone()
            };
            mgr.plant.frame_rng = Prng::from_parts(m.frame_rng.0, m.frame_rng.1);
            mgr.plant.corruption_rng = Prng::from_parts(m.corruption_rng.0, m.corruption_rng.1);
            mgr.plant.storage =
                StorageHealth::from_parts(m.storage.0, m.storage.1, m.storage.2, m.storage.3);
            mgr.monitor.import_state(&m.monitor_words);
            mgr.planner.import_state(&m.planner_words);
            mgr.recovered_plan_state = m.plan_words.clone();
            mgr.trace =
                TickTrace::resume(mgr.config.trace_capacity, m.trace_next_seq, m.trace_dropped);
            mgr.ticks_done = m.tick_index as usize;
            mgr.resume_tick = m.tick_index as usize;
            report.resumed = true;
            report.resume_tick = m.tick_index as usize;
        }
        if base_ok {
            mgr.plant.spill = Some(res.rebuild_spill(valid, log, spill_cfg, mark.as_ref()));
        } else {
            // No usable base record survived, so nothing on the device
            // can ever be replayed: reset it and bootstrap a sealed
            // base record exactly like a first attach.
            log.truncate(0)
                .map_err(|e| RuntimeError::bad_config(format!("spill device reset: {e}")))?;
            mgr.bootstrap_spill(log, spill_cfg)?;
        }
        Ok((mgr, report))
    }

    /// The per-level Knowledge base.
    pub fn knowledge(&self) -> &[LevelKnowledge] {
        &self.knowledge.levels
    }

    /// The configuration the runtime was attached with.
    pub fn config(&self) -> &RuntimeManagerConfig {
        &self.config
    }

    /// The full cross-stage knowledge base.
    pub fn knowledge_state(&self) -> &Knowledge {
        &self.knowledge
    }

    /// Current effective ladder level.
    pub fn current_level(&self) -> usize {
        self.plant.pruner.current_level()
    }

    /// Shared access to the managed network.
    pub fn network(&self) -> &Network {
        &self.plant.net
    }

    /// Number of ladder transitions executed so far.
    pub fn transitions(&self) -> usize {
        self.knowledge.transitions
    }

    /// The structured stage-event trace recorded so far.
    pub fn trace(&self) -> &TickTrace {
        &self.trace
    }

    /// Drains the stage-event trace, leaving the ring empty. The fleet
    /// executor uses this to merge member traces after a run.
    pub fn drain_trace(&mut self) -> Vec<crate::trace::TraceEvent> {
        self.trace.drain()
    }

    /// Installs or clears the fleet arbiter's level floor for subsequent
    /// ticks (see [`crate::knowledge::ExternalCap`]). `None` — the
    /// default — leaves planning entirely to the local policy.
    pub fn set_external_cap(&mut self, cap: Option<crate::knowledge::ExternalCap>) {
        self.knowledge.external_cap = cap;
    }

    /// One `(storage_id, bytes)` entry for every weight tensor this
    /// runtime holds: the live network, the fault-free mirror twin, and
    /// the snapshot-restore baseline. Tensors cloned from one trained
    /// model share storage copy-on-write, so deduping by the id measures
    /// the *unique* bytes — the basis of the fleet memory metric.
    pub fn weight_storage(&self) -> Vec<(usize, usize)> {
        let mut out = self.plant.net.param_storage();
        out.extend(self.plant.mirror_net.param_storage());
        out.extend(self.plant.snapshot.weight_storage());
        out
    }

    /// Integrity-action counters of the reversible pruner (verified
    /// pops, scrub checks, shadow repairs, corruption hits).
    pub fn pruner_integrity(&self) -> IntegrityStats {
        self.plant.pruner.integrity_stats()
    }

    /// Replaces the Monitor stage (per-fleet-member estimators).
    pub fn set_monitor(&mut self, monitor: Box<dyn Monitor>) {
        self.monitor = monitor;
    }

    /// Replaces the Analyze stage.
    pub fn set_analyzer(&mut self, analyzer: Box<dyn Analyze>) {
        self.analyzer = analyzer;
    }

    /// Replaces the Plan stage.
    pub fn set_planner(&mut self, planner: Box<dyn Plan>) {
        self.planner = planner;
    }

    /// Replaces the Execute stage.
    pub fn set_executor(&mut self, executor: Box<dyn Execute>) {
        self.executor = executor;
    }

    /// Installs a fault campaign to execute against the next run. Pass
    /// `None` to clear. When no plan is installed,
    /// [`RuntimeManager::run`] builds one automatically from the
    /// scenario's scheduled faults. On a recovered manager, the
    /// checkpoint's plan cursor and RNG state are applied to the plan
    /// being installed, so the campaign resumes mid-stream.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
        if self.plan.is_some() {
            self.apply_recovered_plan_state();
        }
    }

    /// Applies a recovered checkpoint's fault-plan cursor/RNG state to
    /// the currently installed plan, once.
    fn apply_recovered_plan_state(&mut self) {
        if let (Some(p), Some(words)) = (self.plan.as_mut(), self.recovered_plan_state.take()) {
            p.import_state(&words);
        }
    }

    /// Persistence counters of the durable spill, when enabled.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.plant.spill.as_ref().map(|s| s.stats())
    }

    /// Bytes currently persisted on the spill device, when enabled.
    pub fn spill_bytes(&self) -> Option<u64> {
        self.plant.spill.as_ref().map(|s| s.durable_len())
    }

    /// Full copy of the spill device's bytes (crash-simulation tests
    /// freeze the device here and hand it to [`RuntimeManager::recover`]
    /// via [`DurableLog::from_bytes`]).
    pub fn spill_device_bytes(&mut self) -> Option<Vec<u8>> {
        self.plant.spill.as_mut().and_then(|s| s.device_bytes().ok())
    }

    /// Ticks completed so far (carries across recoveries).
    pub fn ticks_done(&self) -> usize {
        self.ticks_done
    }

    /// Scenario tick index this manager resumes from (0 unless built by
    /// [`RuntimeManager::recover`]).
    pub fn resume_tick(&self) -> usize {
        self.resume_tick
    }

    /// Current rung of the degradation state machine.
    pub fn op_state(&self) -> OperatingState {
        self.knowledge.op_state
    }

    /// Health of the model-image storage device.
    pub fn storage(&self) -> &StorageHealth {
        &self.plant.storage
    }

    /// Effective fault injections so far (windows at onset; bit-flips
    /// that actually landed).
    pub fn faults_injected(&self) -> usize {
        self.knowledge.faults_injected
    }

    /// Faults the armed defense noticed.
    pub fn faults_detected(&self) -> usize {
        self.knowledge.faults_detected
    }

    /// Faults resolved by repair or a successful fallback restore.
    pub fn faults_repaired(&self) -> usize {
        self.knowledge.faults_repaired
    }

    /// Runs one MAPE-K iteration for a scenario tick, returning the
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates pruning/inference errors.
    pub fn step(&mut self, tick: &Tick, dt: f64) -> Result<TickRecord> {
        let (k, plant, chain, trace) = (
            &mut self.knowledge,
            &mut self.plant,
            &self.chain,
            &mut self.trace,
        );
        k.begin_tick();

        // Environment: fire scheduled fault events up to this tick.
        let armed = self.config.defense != FaultDefense::None;
        defense::inject_scheduled(&mut self.plan, k, plant, armed, tick, trace);

        // Monitor: channel health and fault-window escalation.
        self.monitor.observe_health(k, plant, tick, trace);

        // Execute (async half): complete or retry a pending storage
        // reload before anything else touches the weights.
        self.executor.service_reload(k, plant, chain, tick, trace)?;

        // Analyze (defense half): background scrub + sealed checksum.
        self.analyzer.verify_integrity(k, plant, chain, tick, trace)?;

        // Execute (async half): complete a due multi-tick ladder restore.
        self.executor.service_restore(k, plant, chain, tick, trace)?;

        // Monitor: fuse risk sensor + last confidence.
        let estimated = self.monitor.estimate(k, tick);

        // Analyze: ODD membership and envelope cap.
        let analysis = self.analyzer.assess(k, tick, estimated);

        // Plan: level selection under the degradation caps.
        let current = plant.pruner.current_level();
        let directive = self.planner.plan(k, &analysis, current, tick, trace);

        // Execute: drive the pruner toward the target.
        self.executor
            .apply(k, plant, chain, &directive, tick, dt, trace)?;

        // Ground-truth twin follows the same effective level, fault-free.
        plant.sync_mirror()?;

        // Perception: render this tick's frame and classify it.
        let seen = plant.infer(tick.weather)?;
        k.last_confidence = seen.confidence;

        // De-escalate once fault triggers have cleared.
        k.relax_state(plant, tick.t, trace);

        // Record assembly.
        let effective = plant.pruner.current_level();
        let lk = k.levels[effective].clone();
        let overrun = if tick.t < k.overrun_until {
            k.overrun_extra_s
        } else {
            0.0
        };
        let inference_latency = Seconds(lk.inference.latency.0 + overrun);
        let violation = effective > analysis.max_allowed_level
            || (!analysis.inside_odd && effective > 0)
            || (k.op_state == OperatingState::MinimalRisk && (effective > 0 || k.integrity_bad));
        let deadline_miss = inference_latency.0 + k.tick.sync_latency_s > dt;
        if deadline_miss {
            k.note_deadline_miss(
                tick.t,
                inference_latency.0 + k.tick.sync_latency_s,
                dt,
                trace,
            );
        }
        let rec = TickRecord {
            t: tick.t,
            true_risk: tick.risk,
            estimated_risk: estimated,
            level: effective,
            sparsity: lk.sparsity,
            max_allowed_level: analysis.max_allowed_level,
            odd_exit: !analysis.inside_odd,
            violation,
            correct: seen.pred == seen.label,
            confidence: seen.confidence,
            inference_energy: lk.inference.energy,
            inference_latency,
            transition_energy: k.tick.transition_energy,
            transition_latency: k.tick.transition_latency,
            segment: tick.segment,
            weather: tick.weather,
            op_state: k.op_state,
            faults_injected: k.tick.injected,
            fault_detected: k.tick.detected,
            fault_repaired: k.tick.repaired,
            corrupt_inference: seen.corrupt_inference,
            deadline_miss,
        };

        // Persistence: spill reversal-log changes and, when everything
        // a checkpoint depends on is durable, seal a commit mark.
        self.service_spill(tick, seen.corrupt_inference);
        self.ticks_done += 1;
        Ok(rec)
    }

    /// The per-tick persistence slice: reconcile the spill's view with
    /// the live reversal log, run the budgeted appends, and — when the
    /// device holds everything and budget remains — seal a commit mark
    /// checkpointing the full runtime state.
    fn service_spill(&mut self, tick: &Tick, corrupt_inference: bool) {
        let Some(mut spill) = self.plant.spill.take() else {
            return;
        };
        spill.sync_view(&self.plant.pruner);
        let ready = spill.service_appends(&self.plant.storage, tick.t, &mut self.trace);
        if ready {
            let log_patches = spill.log_deviations(&self.plant.pruner);
            let weight_patches = if corrupt_inference {
                crate::spill::weight_divergence(&self.plant.net, &self.plant.mirror_net)
            } else {
                Vec::new()
            };
            let payload = crate::spill::encode_mark(&crate::spill::Mark {
                tick_index: self.ticks_done as u64 + 1,
                t: tick.t,
                current_level: self.plant.pruner.current_level() as u32,
                cursor: self.plant.pruner.export_cursor(),
                manifest: spill.manifest(),
                log_patches,
                weight_patches,
                knowledge: self.knowledge.clone(),
                frame_rng: self.plant.frame_rng.state_parts(),
                corruption_rng: self.plant.corruption_rng.state_parts(),
                storage: self.plant.storage.state_parts(),
                monitor_words: self.monitor.export_state(),
                planner_words: self.planner.export_state(),
                plan_words: self.plan.as_ref().map(|p| p.export_state()),
                trace_next_seq: self.trace.next_seq(),
                trace_dropped: self.trace.dropped(),
            });
            spill.append_mark(&payload, &self.plant.storage, tick.t, &mut self.trace);
        }
        self.plant.spill = Some(spill);
    }

    /// Drives a whole scenario, returning per-tick records, aggregates,
    /// and the stage-event trace.
    ///
    /// # Errors
    ///
    /// Propagates per-tick errors.
    pub fn run(&mut self, scenario: &Scenario) -> Result<RunResult> {
        self.run_from(scenario, 0)
    }

    /// Drives a scenario starting at tick index `start` (clamped to the
    /// scenario length) — how a recovered manager resumes: pass
    /// [`RuntimeManager::resume_tick`]. Aggregates cover the resumed
    /// span only; the trace continues the crashed run's numbering.
    ///
    /// # Errors
    ///
    /// Propagates per-tick errors.
    pub fn run_from(&mut self, scenario: &Scenario, start: usize) -> Result<RunResult> {
        // Faults scheduled on the scenario become the campaign, unless a
        // plan was installed explicitly.
        if self.plan.is_none() && !scenario.faults().is_empty() {
            self.plan = Some(FaultPlan::from_scenario(scenario, self.config.frame_seed));
        }
        // A recovered checkpoint resumes the campaign mid-stream.
        self.apply_recovered_plan_state();
        let dt = scenario.config().dt_s;
        let start = start.min(scenario.ticks().len());
        let mut records = Vec::with_capacity(scenario.ticks().len() - start);
        let mut total_energy = reprune_platform::Joules::ZERO;
        let mut violations = 0usize;
        let mut recovery_latencies = Vec::new();
        let mut recovery_start: Option<f64> = None;
        let dense = self.knowledge.levels[0].inference.energy;
        for tick in &scenario.ticks()[start..] {
            let rec = self.step(tick, dt)?;
            total_energy += rec.inference_energy + rec.transition_energy;
            if rec.violation {
                violations += 1;
                if recovery_start.is_none() {
                    recovery_start = Some(rec.t);
                }
            } else if let Some(start) = recovery_start.take() {
                recovery_latencies.push(rec.t - start);
            }
            records.push(rec);
        }
        Ok(RunResult {
            policy: self.planner.policy_name(),
            mechanism: self.config.mechanism.to_string(),
            defense: self.config.defense.to_string(),
            dense_energy: dense * records.len() as f64,
            total_energy,
            violations,
            recovery_latencies,
            transitions: self.knowledge.transitions,
            faults_injected: self.knowledge.faults_injected,
            faults_detected: self.knowledge.faults_detected,
            faults_repaired: self.knowledge.faults_repaired,
            fault_recovery_latencies: self.knowledge.fault_recoveries.clone(),
            trace_dropped: self.trace.dropped(),
            trace: self.trace.drain(),
            records,
        })
    }
}
