//! MAPE-K runtime for reversible neural-network pruning.
//!
//! This crate closes the loop the paper's title promises: a self-aware
//! runtime that prunes the perception network when the driving context is
//! benign and snaps it back to full capacity — through the reversal log —
//! the moment risk rises.
//!
//! The MAPE-K stages are explicit, trait-backed, and swappable
//! (DESIGN.md §10):
//!
//! * **Monitor** — [`stages::Monitor`] (default:
//!   [`monitor::RiskEstimator`] fusing a noisy context-risk sensor with
//!   the model's own confidence signal, plus fault-window health),
//! * **Analyze** — [`stages::Analyze`] (default: the armed integrity
//!   defense in [`defense`], plus [`envelope::SafetyEnvelope`] turning
//!   estimated risk into the maximum ladder level safety permits),
//! * **Plan** — [`stages::Plan`] (default: [`policy::Policy`] choosing
//!   the target level with hysteresis and dwell, capped by the
//!   degradation state machine),
//! * **Execute** — [`stages::Execute`] (default: the restore fallback
//!   chain in [`restore`] driving the reversible pruner),
//! * **Knowledge** — [`knowledge::Knowledge`] owns *all* cross-stage
//!   state; per-level costs are profiled once at attach time
//!   ([`manager::LevelKnowledge`]). The managed element itself lives in
//!   [`plant::Plant`].
//!
//! [`manager::RuntimeManager::run`] composes the stages in a fixed
//! order, drives a full [`reprune_scenario::Scenario`], and returns
//! per-tick records, the violation / energy / recovery aggregates every
//! end-to-end experiment reports, and a bounded structured
//! [`trace::TickTrace`] of typed stage events (dumpable as JSON-lines
//! from the bench bins).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;

pub mod defense;
pub mod envelope;
pub mod executor;
pub mod faults;
pub mod fleet;
pub mod knowledge;
pub mod manager;
pub mod monitor;
pub mod planner;
pub mod plant;
pub mod policy;
pub mod record;
pub mod restore;
pub mod spill;
pub mod stages;
pub mod trace;

pub use envelope::SafetyEnvelope;
pub use executor::{
    FleetRunResult, FleetRuntime, FleetStorageBytes, FleetTickRecord, FleetTraceEvent, MemberTick,
};
pub use faults::{storm_events, FaultDefense, FaultPlan, OperatingState, StormConfig};
pub use fleet::{plan_budget, plan_budget_prevalidated, BudgetPlan, FleetMember};
pub use error::RuntimeError;
pub use knowledge::{ExternalCap, Knowledge, LevelKnowledge, TickBudget};
pub use manager::{
    weather_to_context, DeploymentScale, FineTuneData, RuntimeManager, RuntimeManagerConfig,
};
pub use monitor::RiskEstimator;
pub use planner::{FleetPlanner, PlannerStats};
pub use plant::{Perception, Plant};
pub use policy::Policy;
pub use record::{RunResult, TickRecord};
pub use restore::{ChainReport, RestoreChain, RestoreMechanism};
pub use spill::{RecoveryReport, SpillConfig, SpillState, SpillStats};
pub use stages::{Analysis, Analyze, Directive, Execute, Monitor, Plan};
pub use trace::{
    ChainHop, DetectionSource, StageId, TickTrace, TraceEvent, TraceEventKind,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
