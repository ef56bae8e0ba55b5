//! `FleetRuntime`: N MAPE-K runtimes stepped concurrently on one clock
//! under live shared-budget arbitration.
//!
//! The fleet module ([`crate::fleet`]) plans a shared energy budget over
//! *static* member profiles; this module closes the loop and actually
//! **runs** the fleet. Every tick:
//!
//! 1. **Arbitrate** — the members' current risks and the tick's budget
//!    become per-member ladder levels through the heap-ordered greedy of
//!    [`FleetPlanner`] (DESIGN.md §15), whose plans are byte-identical
//!    to [`crate::fleet::plan_budget_prevalidated`]. Member profiles are
//!    derived from each member's attach-time Knowledge and validated
//!    once, at construction; they never change afterwards.
//! 2. **Inject** — each arbitrated level becomes an
//!    [`ExternalCap`](crate::knowledge::ExternalCap) on that member's
//!    Plan stage: a level *floor* the local policy may deepen but not
//!    undercut, always clamped by the member's own safety envelope.
//! 3. **Step** — all members execute one MAPE-K iteration concurrently
//!    inside one `std::thread::scope`: the threads claim members from a
//!    shared iterator and return their records tagged by member index,
//!    so the output is identical to serial stepping (DESIGN.md §14).
//! 4. **Record** — a [`FleetTickRecord`] aggregates per-member
//!    level/energy/utility, the arbitration decision, and budget slack.
//!
//! Members cloned from one trained network share their dense base
//! weights copy-on-write (`reprune-tensor`'s `Arc` storage), so an
//! N-member fleet holds ~1× the dense weights plus per-member reversal
//! logs instead of N× full copies.

use crate::fleet::{BudgetPlan, FleetMember};
use crate::knowledge::ExternalCap;
use crate::manager::RuntimeManager;
use crate::planner::{FleetPlanner, PlannerStats};
use crate::record::TickRecord;
use crate::trace::TraceEvent;
use crate::{Result, RuntimeError};
use reprune_platform::Joules;
use reprune_scenario::{Scenario, Tick};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// One member's slice of a [`FleetTickRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberTick {
    /// Arbitrated level floor handed to the member's Plan stage.
    pub cap: usize,
    /// Effective ladder level after the member's own MAPE-K step.
    pub level: usize,
    /// Profiled inference energy at the effective level.
    pub energy: Joules,
    /// Profiled utility at the effective level.
    pub utility: f64,
    /// Whether the member's step flagged a safety violation.
    pub violation: bool,
    /// The member's full per-tick record.
    pub record: TickRecord,
}

/// Fleet-level observability for one shared-clock tick.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTickRecord {
    /// Tick time, seconds.
    pub t: f64,
    /// Budget the arbiter planned against (`None` = unlimited).
    pub budget: Option<Joules>,
    /// The arbitration decision (levels, planned totals, feasibility).
    pub plan: BudgetPlan,
    /// Per-member outcomes, fleet order.
    pub members: Vec<MemberTick>,
    /// Realized fleet inference energy this tick (sum over members at
    /// their *effective* levels, which local safety logic may have
    /// driven away from the arbitrated ones).
    pub total_energy: Joules,
    /// Budget minus realized energy; `None` when the budget is
    /// unlimited. Negative slack means local safety overrides (restores,
    /// degradation caps) pushed the fleet over its allowance.
    pub slack: Option<f64>,
}

/// A stage-event trace entry tagged with the member that recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTraceEvent {
    /// Index of the member in fleet order.
    pub member: usize,
    /// The member's trace event.
    pub event: TraceEvent,
}

/// Unique-vs-naive weight-storage accounting for a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStorageBytes {
    /// Bytes of physically distinct weight storage (deduped by storage
    /// id across every member's live net, mirror twin, and snapshot).
    pub unique: usize,
    /// Bytes the same tensors would occupy without sharing (the sum of
    /// every copy's length).
    pub total: usize,
}

/// What a whole fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunResult {
    /// Member names, fleet order.
    pub names: Vec<String>,
    /// One record per scenario tick.
    pub ticks: Vec<FleetTickRecord>,
    /// All members' stage events, merged and ordered by time (ties by
    /// member, then by each member's own sequence number).
    pub trace: Vec<FleetTraceEvent>,
}

impl FleetRunResult {
    /// Total safety violations across all members and ticks.
    pub fn violations(&self) -> usize {
        self.ticks
            .iter()
            .flat_map(|t| &t.members)
            .filter(|m| m.violation)
            .count()
    }

    /// Safety violations of one member across the run.
    pub fn member_violations(&self, member: usize) -> usize {
        self.ticks
            .iter()
            .filter(|t| t.members[member].violation)
            .count()
    }

    /// Ticks whose arbitration could not meet the budget even with
    /// every member at its envelope cap.
    pub fn infeasible_ticks(&self) -> usize {
        self.ticks.iter().filter(|t| !t.plan.feasible).count()
    }

    /// Realized fleet inference energy over the whole run.
    pub fn total_energy(&self) -> Joules {
        self.ticks.iter().map(|t| t.total_energy).sum()
    }

    /// Mean per-tick fleet utility (sum of member utilities at their
    /// effective levels, averaged over ticks). `0.0` for an empty run.
    pub fn mean_utility(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .ticks
            .iter()
            .map(|t| t.members.iter().map(|m| m.utility).sum::<f64>())
            .sum();
        total / self.ticks.len() as f64
    }

    /// Mean effective ladder level of one member over the run.
    pub fn mean_level(&self, member: usize) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        let total: usize = self.ticks.iter().map(|t| t.members[member].level).sum();
        total as f64 / self.ticks.len() as f64
    }
}

/// N concurrently executing MAPE-K runtimes under one budget arbiter.
///
/// Build one manager per fleet member (cloning a shared trained network
/// keeps the dense weights in one copy), attach each to its own
/// [`RuntimeManager`], and hand them to [`FleetRuntime::new`] together
/// with a per-level utility profile (e.g. validation accuracy). The
/// member profiles are validated once here and handed to the
/// [`FleetPlanner`], which arbitrates every tick.
pub struct FleetRuntime {
    managers: Vec<RuntimeManager>,
    workers: usize,
    /// The budget arbiter. It owns the validated member profiles and
    /// keeps each member's risk band and its plan cache across ticks.
    planner: FleetPlanner,
    /// Wall-clock seconds the most recent arbitration took.
    last_plan_s: f64,
}

impl FleetRuntime {
    /// Assembles a fleet from `(name, manager, utility_per_level)`
    /// members.
    ///
    /// Each member's energy profile comes from its manager's attach-time
    /// Knowledge base; envelope and profile consistency is validated
    /// once, here, so the per-tick planner never re-validates.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] if the fleet is empty or any
    /// member's profile is inconsistent (wrong length, non-monotone
    /// energy/utility).
    pub fn new(members: Vec<(String, RuntimeManager, Vec<f64>)>) -> Result<Self> {
        if members.is_empty() {
            return Err(RuntimeError::bad_config("fleet is empty"));
        }
        let mut profiles = Vec::with_capacity(members.len());
        let mut managers = Vec::with_capacity(members.len());
        for (name, manager, utility) in members {
            // `from_knowledge` runs the full member validation.
            profiles.push(FleetMember::from_knowledge(
                name,
                manager.config().envelope.clone(),
                manager.knowledge(),
                utility,
            )?);
            managers.push(manager);
        }
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(FleetRuntime {
            managers,
            workers,
            planner: FleetPlanner::new(profiles)?,
            last_plan_s: 0.0,
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.managers.len()
    }

    /// `false` always — construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.managers.is_empty()
    }

    /// The validated member profiles the planner arbitrates over, fleet
    /// order.
    pub fn profiles(&self) -> &[FleetMember] {
        self.planner.members()
    }

    /// Shared access to one member's runtime.
    pub fn manager(&self, member: usize) -> &RuntimeManager {
        &self.managers[member]
    }

    /// Exclusive access to one member's runtime (crash-recovery flows
    /// freeze and inspect member spill devices through this).
    pub fn manager_mut(&mut self, member: usize) -> &mut RuntimeManager {
        &mut self.managers[member]
    }

    /// Caps the stepping threads (clamped to at least 1). Workers
    /// default to the machine's available parallelism; `1` steps every
    /// member on the calling thread — the baseline the fleet benchmark
    /// compares against.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Statistics of the most recent arbitration (risk changes, band
    /// moves, cache hits); all zero before the first step.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.stats()
    }

    /// Wall-clock seconds the most recent budget arbitration took;
    /// `0.0` before the first step.
    pub fn last_plan_seconds(&self) -> f64 {
        self.last_plan_s
    }

    /// Threads a step runs on, including the calling thread:
    /// `min(workers, members)`.
    pub fn pool_size(&self) -> usize {
        self.workers.min(self.managers.len())
    }

    /// Unique-vs-naive bytes of weight storage across the whole fleet
    /// (every member's live network, mirror twin, and snapshot,
    /// deduped by tensor storage identity).
    pub fn weight_storage_bytes(&self) -> FleetStorageBytes {
        let mut seen: Vec<usize> = Vec::new();
        let mut unique = 0usize;
        let mut total = 0usize;
        for m in &self.managers {
            for (id, bytes) in m.weight_storage() {
                total += bytes;
                if !seen.contains(&id) {
                    seen.push(id);
                    unique += bytes;
                }
            }
        }
        FleetStorageBytes { unique, total }
    }

    /// One arbitrated, concurrent fleet step with every member at the
    /// tick's shared context risk. See [`FleetRuntime::step_with_risks`].
    ///
    /// # Errors
    ///
    /// Propagates arbitration and member step errors.
    pub fn step_all(
        &mut self,
        tick: &Tick,
        dt: f64,
        budget: Option<Joules>,
    ) -> Result<FleetTickRecord> {
        let risks = vec![tick.risk; self.managers.len()];
        self.step_with_risks(tick, dt, &risks, budget)
    }

    /// One arbitrated, concurrent fleet step with explicit per-member
    /// risks: arbitrates the budget, injects the per-member caps, steps
    /// every member concurrently, and aggregates the record.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] for invalid risks (NaN,
    /// infinite, negative, wrong count) and propagates member step
    /// errors.
    ///
    /// # Panics
    ///
    /// Re-raises a member step's panic on the calling thread, after
    /// every other member has stepped.
    pub fn step_with_risks(
        &mut self,
        tick: &Tick,
        dt: f64,
        risks: &[f64],
        budget: Option<Joules>,
    ) -> Result<FleetTickRecord> {
        let planned_at = std::time::Instant::now();
        let plan = self.planner.plan(risks, budget)?;
        self.last_plan_s = planned_at.elapsed().as_secs_f64();
        for (manager, &level) in self.managers.iter_mut().zip(&plan.levels) {
            manager.set_external_cap(Some(ExternalCap { level }));
        }
        let records = self.step_members(tick, dt)?;
        let members: Vec<MemberTick> = records
            .iter()
            .zip(self.planner.members())
            .zip(&plan.levels)
            .map(|((rec, profile), &cap)| MemberTick {
                cap,
                level: rec.level,
                energy: profile.energy_per_level[rec.level],
                utility: profile.utility_per_level[rec.level],
                violation: rec.violation,
                record: *rec,
            })
            .collect();
        let total_energy: Joules = members.iter().map(|m| m.energy).sum();
        Ok(FleetTickRecord {
            t: tick.t,
            budget,
            plan,
            slack: budget.map(|b| b.0 - total_energy.0),
            total_energy,
            members,
        })
    }

    /// Steps every member once on [`FleetRuntime::pool_size`] threads:
    /// the calling thread plus scoped helpers, all claiming members from
    /// one shared iterator, so a slow member never stalls a fixed chunk.
    /// Each thread returns its records tagged by member index; sorting
    /// by index makes the outcome identical to serial stepping at every
    /// worker count. A member whose step panics does not stop the
    /// others: every member steps, then the lowest-index failure — a
    /// panic, re-raised here, or an error — is reported.
    fn step_members(&mut self, tick: &Tick, dt: f64) -> Result<Vec<TickRecord>> {
        let threads = self.pool_size();
        let claims = Mutex::new(self.managers.iter_mut().enumerate());
        let claim_loop = || {
            let mut stepped = Vec::new();
            loop {
                // The lock guards only the claim, never a member's step.
                // `next` on the enumerated slice iterator leaves it valid
                // at every point, so even a poisoned lock holds an
                // iterator that is safe to keep claiming from.
                let claim = claims.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((i, manager)) = claim else {
                    return stepped;
                };
                stepped.push((i, catch_unwind(AssertUnwindSafe(|| manager.step(tick, dt)))));
            }
        };
        let mut stepped = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim_loop)).collect();
            let mut stepped = claim_loop();
            for helper in helpers {
                stepped.extend(
                    helper
                        .join()
                        .unwrap_or_else(|payload| resume_unwind(payload)),
                );
            }
            stepped
        });
        stepped.sort_unstable_by_key(|&(i, _)| i);
        stepped
            .into_iter()
            .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Drives a whole scenario under a constant budget.
    ///
    /// # Errors
    ///
    /// Propagates per-tick errors.
    pub fn run(&mut self, scenario: &Scenario, budget: Option<Joules>) -> Result<FleetRunResult> {
        self.run_with(scenario, |_| budget)
    }

    /// Drives a whole scenario, asking `budget` for each tick's energy
    /// allowance (shrinking-budget campaigns hand in a schedule here).
    /// Scenario-scheduled faults are installed as each member's fault
    /// campaign, exactly as [`RuntimeManager::run`] would.
    ///
    /// # Errors
    ///
    /// Propagates per-tick errors.
    pub fn run_with<F>(&mut self, scenario: &Scenario, budget: F) -> Result<FleetRunResult>
    where
        F: FnMut(&Tick) -> Option<Joules>,
    {
        self.run_span(scenario, budget, 0)
    }

    /// Drives a scenario from tick index `start` under a constant
    /// budget — how a fleet of recovered members resumes after a crash
    /// (members checkpoint every committed tick, so their resume ticks
    /// agree whenever the spill was keeping up; pass the common
    /// [`RuntimeManager::resume_tick`]).
    ///
    /// # Errors
    ///
    /// Propagates per-tick errors.
    pub fn run_from(
        &mut self,
        scenario: &Scenario,
        budget: Option<Joules>,
        start: usize,
    ) -> Result<FleetRunResult> {
        self.run_span(scenario, |_| budget, start)
    }

    /// [`FleetRuntime::run_with`] generalized to a starting tick index
    /// (clamped to the scenario length).
    ///
    /// # Errors
    ///
    /// Propagates per-tick errors.
    pub fn run_span<F>(
        &mut self,
        scenario: &Scenario,
        mut budget: F,
        start: usize,
    ) -> Result<FleetRunResult>
    where
        F: FnMut(&Tick) -> Option<Joules>,
    {
        if !scenario.faults().is_empty() {
            for manager in &mut self.managers {
                let seed = manager.config().frame_seed;
                // `set_fault_plan` folds in a recovered member's plan
                // cursor, resuming the campaign mid-stream.
                manager.set_fault_plan(Some(crate::faults::FaultPlan::from_scenario(
                    scenario, seed,
                )));
            }
        }
        let dt = scenario.config().dt_s;
        let start = start.min(scenario.ticks().len());
        let mut ticks = Vec::with_capacity(scenario.ticks().len() - start);
        for tick in &scenario.ticks()[start..] {
            let b = budget(tick);
            ticks.push(self.step_all(tick, dt, b)?);
        }
        let mut trace = Vec::new();
        for (member, manager) in self.managers.iter_mut().enumerate() {
            trace.extend(
                manager
                    .drain_trace()
                    .into_iter()
                    .map(|event| FleetTraceEvent { member, event }),
            );
        }
        trace.sort_by(|a, b| {
            a.event
                .t
                .total_cmp(&b.event.t)
                .then(a.member.cmp(&b.member))
                .then(a.event.seq.cmp(&b.event.seq))
        });
        Ok(FleetRunResult {
            names: self.profiles().iter().map(|p| p.name.clone()).collect(),
            ticks,
            trace,
        })
    }
}
