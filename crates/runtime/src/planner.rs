//! The fleet budget planner: one heap-ordered greedy (DESIGN.md §15).
//!
//! Every member starts at full capacity (level 0). The greedy then
//! repeatedly raises the level of whichever member sheds the most energy
//! per unit utility lost, ties to the lowest member index, never past
//! the member's safety envelope, until the budget is met or no safe
//! move remains. A member's next move score depends only on its own
//! level, so a max-heap holding one entry per member that can still
//! move pops the same member that a rescan of the whole fleet would
//! pick. The moves, and the sequential float energy updates they make,
//! therefore come in the rescan's exact order, at O(moves × log
//! members) instead of O(moves × members).
//!
//! [`plan_budget`] and [`plan_budget_prevalidated`] run the greedy on
//! the inputs they are given. [`FleetPlanner`] runs the same greedy for
//! the fleet executor: it owns the validated profiles, remembers each
//! member's last risk band, and serves a quiet tick (no band moved, same
//! budget) from its last plan.

use crate::fleet::{BudgetPlan, FleetMember};
use crate::{Result, RuntimeError};
use reprune_platform::Joules;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Plans per-member ladder levels under a shared energy budget.
///
/// Starts every member at full capacity (level 0) and greedily raises the
/// level of whichever member sheds the most energy per unit utility lost,
/// never beyond that member's envelope at its current risk, until the
/// budget is met or no safe moves remain.
///
/// # Errors
///
/// Returns [`RuntimeError::BadConfig`] if `members` and `risks` disagree
/// in length, the member list is empty, any risk is non-finite or
/// negative, or any member is inconsistent.
pub fn plan_budget(
    members: &[FleetMember],
    risks: &[f64],
    budget: Option<Joules>,
) -> Result<BudgetPlan> {
    for m in members {
        m.validate()?;
    }
    plan_budget_prevalidated(members, risks, budget)
}

/// [`plan_budget`] without the per-member consistency re-check.
///
/// Member profiles are immutable after construction, so a caller that
/// validated them once can skip the O(members × levels) re-validation.
/// Risks change every tick and are still checked here.
///
/// # Errors
///
/// Returns [`RuntimeError::BadConfig`] if `members` and `risks` disagree
/// in length, the member list is empty, or any risk is non-finite or
/// negative.
pub fn plan_budget_prevalidated(
    members: &[FleetMember],
    risks: &[f64],
    budget: Option<Joules>,
) -> Result<BudgetPlan> {
    check_risks(members, risks)?;
    Ok(greedy(
        members,
        |i| members[i].envelope.max_level(risks[i]),
        budget,
    ))
}

/// Rejects an empty fleet, a risk count that differs from the member
/// count, and any risk that is not a finite non-negative number.
fn check_risks(members: &[FleetMember], risks: &[f64]) -> Result<()> {
    if members.is_empty() {
        return Err(RuntimeError::bad_config("fleet is empty"));
    }
    if members.len() != risks.len() {
        return Err(RuntimeError::bad_config(format!(
            "{} members but {} risks",
            members.len(),
            risks.len()
        )));
    }
    // A NaN risk would sail through `max_level`'s `risk < t` comparison
    // (always false) and silently grant the *most pruned* level — the
    // exact opposite of the safe reading of an undefined risk. Reject
    // anything that is not a finite non-negative number.
    for (m, &r) in members.iter().zip(risks) {
        if !r.is_finite() || r < 0.0 {
            return Err(RuntimeError::bad_config(format!(
                "{}: risk {r} must be finite and non-negative",
                m.name
            )));
        }
    }
    Ok(())
}

/// The greedy: levels for every member under `budget`, member `i` never
/// past level `allowed(i)`.
fn greedy(
    members: &[FleetMember],
    allowed: impl Fn(usize) -> usize,
    budget: Option<Joules>,
) -> BudgetPlan {
    let mut levels = vec![0usize; members.len()];
    if let Some(budget) = budget {
        // Track energy incrementally: each move adjusts the running total
        // by one level delta, in move order.
        let mut energy: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        if energy > budget.0 {
            let mut heap: BinaryHeap<Move> = (0..members.len())
                .filter(|&i| allowed(i) > 0)
                .map(|i| Move::of(members, i, 0))
                .collect();
            while energy > budget.0 {
                // No safe moves left: stop and report infeasible below.
                let Some(mut best) = heap.peek_mut() else {
                    break;
                };
                let i = best.member;
                let l = levels[i];
                let e = &members[i].energy_per_level;
                energy -= e[l].0 - e[l + 1].0;
                levels[i] = l + 1;
                if l + 1 < allowed(i) {
                    *best = Move::of(members, i, l + 1);
                } else {
                    PeekMut::pop(best);
                }
            }
        }
    }
    // Reported totals (and the feasibility verdict) come from one exact
    // final re-sum in member order, so the running energy can never leak
    // float drift into the plan.
    let energy: Joules = members
        .iter()
        .zip(&levels)
        .map(|(m, &l)| m.energy_per_level[l])
        .sum();
    let utility: f64 = members
        .iter()
        .zip(&levels)
        .map(|(m, &l)| m.utility_per_level[l])
        .sum();
    BudgetPlan {
        levels,
        total_energy: energy,
        total_utility: utility,
        feasible: budget.is_none_or(|b| energy.0 <= b.0),
    }
}

/// One member's next greedy move, as a heap entry: the greater entry
/// has the higher score under `f64::total_cmp`, then the lower member
/// index.
#[derive(Debug, Clone, Copy)]
struct Move {
    score: f64,
    member: usize,
}

impl Move {
    /// Member `i`'s move from `level` to `level + 1`.
    fn of(members: &[FleetMember], i: usize, level: usize) -> Self {
        let m = &members[i];
        let saved = m.energy_per_level[level].0 - m.energy_per_level[level + 1].0;
        let lost = m.utility_per_level[level] - m.utility_per_level[level + 1];
        Move {
            score: move_score(saved, lost),
            member: i,
        }
    }
}

impl Ord for Move {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.member.cmp(&self.member))
    }
}

impl PartialOrd for Move {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Move {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Move {}

/// Score of the greedy move `l -> l+1`: energy saved per unit utility
/// lost. A zero drop is clamped to `1e-12` (a free move scores huge but
/// finite). A *negative* drop — utility increasing with level — violates
/// the profile contract [`FleetMember::validate`] enforces at admission;
/// on the prevalidated path, rather than letting the tiny clamp turn the
/// violation into the most attractive move in the fleet, it is handled
/// by sign explicitly and scores `NEG_INFINITY`, below every finite
/// alternative. The `+ 0.0` turns a `-0.0` quotient into `+0.0`, so the
/// two zeros tie under `total_cmp` as they do under `==`.
fn move_score(saved: f64, lost: f64) -> f64 {
    if lost < 0.0 {
        f64::NEG_INFINITY
    } else {
        saved / lost.max(1e-12) + 0.0
    }
}

/// Outcome counters of the most recent [`FleetPlanner::plan`] call plus
/// lifetime cache statistics, which `examples/fleet_storm.rs` prints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlannerStats {
    /// Fleet size.
    pub members: usize,
    /// Members whose risk changed bitwise on the last call (their band
    /// was recomputed).
    pub dirty_members: usize,
    /// Members whose allowed band actually moved on the last call
    /// (forces a re-plan).
    pub moved_members: usize,
    /// Whether the last call was served from the plan cache.
    pub cache_hit: bool,
    /// Total plan calls that completed successfully.
    pub plans: u64,
    /// Plan calls served from the cache (no band moved, same budget).
    pub cache_hits: u64,
}

impl PlannerStats {
    /// Fraction of members whose risk changed bitwise on the last call
    /// (`dirty_members / members`): `0.0` when no risk changed, `1.0`
    /// on the first plan. A risk change need not move a band, so this
    /// is at least the fraction of members re-banded.
    pub fn dirty_occupancy(&self) -> f64 {
        if self.members == 0 {
            0.0
        } else {
            self.dirty_members as f64 / self.members as f64
        }
    }
}

/// The fleet executor's budget arbiter. Construction validates every
/// member once, so the per-tick path never re-validates a profile.
/// [`FleetPlanner::plan`] runs the greedy of [`plan_budget_prevalidated`]
/// and returns the same plan on every call; a quiet tick, where no
/// member's band moved and the budget is bitwise unchanged, gets the last
/// plan back without a replan.
#[derive(Debug, Clone)]
pub struct FleetPlanner {
    members: Vec<FleetMember>,
    /// Each member's last risk (as bits) and the band it mapped to;
    /// `None` until the first successful plan.
    bands: Vec<Option<(u64, usize)>>,
    /// The last plan and the budget bits it was made under: the
    /// quiet-tick cache.
    last: Option<(Option<u64>, BudgetPlan)>,
    stats: PlannerStats,
}

impl FleetPlanner {
    /// Builds a planner over a validated fleet.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] if the fleet is empty or any
    /// member fails [`FleetMember::validate`].
    pub fn new(members: Vec<FleetMember>) -> Result<Self> {
        if members.is_empty() {
            return Err(RuntimeError::bad_config("fleet is empty"));
        }
        for m in &members {
            m.validate()?;
        }
        let n = members.len();
        Ok(FleetPlanner {
            members,
            bands: vec![None; n],
            last: None,
            stats: PlannerStats {
                members: n,
                ..PlannerStats::default()
            },
        })
    }

    /// The member profiles, fleet order.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// Planning statistics for the most recent call (plus lifetime cache
    /// counters).
    pub fn stats(&self) -> PlannerStats {
        self.stats
    }

    /// Plans the fleet under `budget` at the given per-member risks —
    /// the same plan as [`plan_budget_prevalidated`] on the same inputs.
    /// A tick that moves no member's band under a bitwise-unchanged
    /// budget returns the cached plan.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] for a risk-count mismatch or
    /// any risk that is non-finite or negative (same message as
    /// [`plan_budget_prevalidated`]). Every risk is checked before any
    /// state changes, so a failed call leaves the planner untouched.
    pub fn plan(&mut self, risks: &[f64], budget: Option<Joules>) -> Result<BudgetPlan> {
        check_risks(&self.members, risks)?;
        let mut dirty = 0;
        let mut moved = 0;
        for ((slot, m), &risk) in self.bands.iter_mut().zip(&self.members).zip(risks) {
            let bits = risk.to_bits();
            if slot.is_some_and(|(old, _)| old == bits) {
                continue;
            }
            let band = m.envelope.max_level(risk);
            dirty += 1;
            if slot.is_none_or(|(_, old)| old != band) {
                moved += 1;
            }
            *slot = Some((bits, band));
        }
        self.stats.dirty_members = dirty;
        self.stats.moved_members = moved;
        self.stats.plans += 1;
        let budget_bits = budget.map(|b| b.0.to_bits());
        if let Some((bits, plan)) = &self.last {
            if moved == 0 && *bits == budget_bits {
                self.stats.cache_hit = true;
                self.stats.cache_hits += 1;
                return Ok(plan.clone());
            }
        }
        self.stats.cache_hit = false;
        let bands = &self.bands;
        let plan = greedy(
            &self.members,
            |i| bands[i].map_or(0, |(_, band)| band),
            budget,
        );
        self.last = Some((budget_bits, plan.clone()));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::SafetyEnvelope;

    fn member(name: &str, energies: &[f64], utilities: &[f64]) -> FleetMember {
        FleetMember {
            name: name.into(),
            envelope: SafetyEnvelope::evenly_spaced(energies.len(), 0.6).unwrap(),
            energy_per_level: energies.iter().map(|&e| Joules(e)).collect(),
            utility_per_level: utilities.to_vec(),
        }
    }

    fn perception() -> FleetMember {
        member("perception", &[10.0, 7.0, 4.0, 2.0], &[0.95, 0.93, 0.88, 0.60])
    }

    fn control() -> FleetMember {
        member("control", &[4.0, 3.0, 2.0, 1.0], &[0.99, 0.98, 0.97, 0.90])
    }

    #[test]
    fn unlimited_budget_keeps_full_capacity() {
        let plan = plan_budget(&[perception(), control()], &[0.1, 0.1], None).unwrap();
        assert_eq!(plan.levels, vec![0, 0]);
        assert_eq!(plan.total_energy, Joules(14.0));
        assert!(plan.feasible);
    }

    #[test]
    fn safety_envelope_is_a_hard_constraint() {
        // Perception at high risk may not be pruned at all, no matter how
        // tight the budget; control at low risk takes the whole cut.
        let plan = plan_budget(
            &[perception(), control()],
            &[0.9, 0.05],
            Some(Joules(11.5)),
        )
        .unwrap();
        assert_eq!(plan.levels[0], 0, "high-risk member stays dense");
        assert!(plan.levels[1] > 0, "low-risk member absorbs the cut");
        assert!(plan.feasible);
        assert!(plan.total_energy.0 <= 11.5);
    }

    #[test]
    fn infeasible_budget_reports_honestly() {
        let plan = plan_budget(
            &[perception(), control()],
            &[0.9, 0.9], // both must stay dense
            Some(Joules(5.0)),
        )
        .unwrap();
        assert_eq!(plan.levels, vec![0, 0]);
        assert!(!plan.feasible, "cannot meet 5 J with 14 J mandatory");
        assert_eq!(plan.total_energy, Joules(14.0));
    }

    #[test]
    fn negative_utility_drop_never_outranks_valid_moves() {
        // An increasing-utility profile violates the FleetMember contract
        // and is rejected at admission — but the prevalidated fast path
        // trusts its caller, and the old 1e-12 clamp turned the sign
        // error into the most attractive move in the fleet. The sign is
        // now handled explicitly: a contract-violating move scores
        // negative infinity and loses to every valid alternative.
        let bad = member("bad", &[10.0, 8.0, 6.0], &[0.90, 0.95, 0.97]);
        assert!(bad.validate().is_err(), "increasing utility must not validate");
        let good = member("good", &[10.0, 5.0, 2.0], &[0.90, 0.89, 0.88]);
        let members = vec![bad, good];
        let plan =
            plan_budget_prevalidated(&members, &[0.0, 0.0], Some(Joules(12.0))).unwrap();
        assert_eq!(
            plan.levels,
            vec![0, 2],
            "the valid member's headroom must be spent before any malformed move"
        );
        // Once only malformed moves remain, the greedy still takes them
        // (degrading instead of deadlocking below budget).
        let plan =
            plan_budget_prevalidated(&members, &[0.0, 0.0], Some(Joules(8.0))).unwrap();
        assert_eq!(plan.levels, vec![2, 2]);
        assert!(plan.feasible);
    }

    #[test]
    fn zero_drop_clamp_is_oracle_equal_incrementally() {
        // Equal-utility adjacent levels (a legal, non-increasing profile)
        // exercise the 1e-12 clamp; the planner's cached bands and the
        // stateless path must give byte-identical plans across a budget
        // sweep.
        let flat = member("flat", &[9.0, 6.0, 3.0], &[0.9, 0.9, 0.9]);
        let sloped = member("sloped", &[9.0, 5.0, 1.0], &[0.95, 0.90, 0.80]);
        let members = vec![flat, sloped];
        let risks = [0.0, 0.0];
        let mut planner = FleetPlanner::new(members.clone()).unwrap();
        for budget in [18.0, 15.0, 12.0, 9.0, 6.0, 4.0] {
            let scratch =
                plan_budget_prevalidated(&members, &risks, Some(Joules(budget))).unwrap();
            let incremental = planner.plan(&risks, Some(Joules(budget))).unwrap();
            assert_eq!(scratch, incremental, "budget {budget}");
        }
    }

    #[test]
    fn move_score_sign_and_clamp_edges() {
        assert_eq!(move_score(3.0, 0.01), 300.0);
        // Free move: clamped, huge but finite.
        assert_eq!(move_score(2.0, 0.0), 2.0 / 1e-12);
        // Contract violation: never preferred under strict `>`.
        assert_eq!(move_score(2.0, -0.01), f64::NEG_INFINITY);
        assert!(move_score(2.0, -0.0) > 0.0, "negative zero is a zero drop");
        // A -0.0 quotient comes out as +0.0, so it ties with +0.0 under
        // the heap's `total_cmp`.
        assert_eq!(move_score(-0.0, 1.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn greedy_sheds_cheapest_utility_first() {
        // Control loses only 0.01 utility/level for 1 J; perception loses
        // 0.02 for 3 J (level 0→1): perception's J-per-utility is better
        // (150 vs 100), so it gets pruned first under a mild cut.
        let plan = plan_budget(
            &[perception(), control()],
            &[0.0, 0.0],
            Some(Joules(11.0)),
        )
        .unwrap();
        assert!(plan.feasible);
        assert_eq!(plan.levels[0], 1, "perception 0→1 is the best J/utility move");
        assert_eq!(plan.levels[1], 0);
    }

    #[test]
    fn tight_budget_prunes_everyone_within_safety() {
        let plan = plan_budget(
            &[perception(), control()],
            &[0.0, 0.0],
            Some(Joules(3.0)),
        )
        .unwrap();
        assert!(plan.feasible);
        assert_eq!(plan.levels, vec![3, 3], "only the floor fits 3 J");
        assert_eq!(plan.total_energy, Joules(3.0));
    }

    #[test]
    fn utility_monotone_in_budget() {
        let members = [perception(), control()];
        let risks = [0.0, 0.0];
        let mut prev_utility = -1.0;
        for budget in [3.0, 6.0, 9.0, 12.0, 14.0] {
            let plan = plan_budget(&members, &risks, Some(Joules(budget))).unwrap();
            assert!(
                plan.total_utility >= prev_utility,
                "utility must not drop as the budget grows"
            );
            prev_utility = plan.total_utility;
        }
    }

    #[test]
    fn input_validation() {
        assert!(plan_budget(&[], &[], None).is_err());
        assert!(plan_budget(&[perception()], &[0.1, 0.2], None).is_err());
    }

    #[test]
    fn non_finite_and_negative_risks_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, -1e30] {
            let err = plan_budget(&[perception(), control()], &[0.1, bad], Some(Joules(5.0)));
            assert!(err.is_err(), "risk {bad} must be rejected");
            let err = plan_budget_prevalidated(&[perception()], &[bad], None);
            assert!(err.is_err(), "prevalidated path must also reject {bad}");
            let mut planner = FleetPlanner::new(vec![perception()]).unwrap();
            assert!(
                planner.plan(&[bad], None).is_err(),
                "incremental path must also reject {bad}"
            );
        }
    }

    #[test]
    fn risk_boundaries_still_plan() {
        // 0.0 (below every threshold, all levels allowed) and very large
        // finite risks (level 0 forced) are both legal inputs.
        let plan = plan_budget(&[perception()], &[0.0], Some(Joules(2.0))).unwrap();
        assert_eq!(plan.levels, vec![3]);
        assert!(plan.feasible);
        let plan = plan_budget(&[perception()], &[1e300], Some(Joules(2.0))).unwrap();
        assert_eq!(plan.levels, vec![0], "huge risk pins the member dense");
        assert!(!plan.feasible);
        // -0.0 is a negative-sign zero but compares == 0.0: accepted.
        assert!(plan_budget(&[perception()], &[-0.0], None).is_ok());
    }

    #[test]
    fn prevalidated_matches_validating_path() {
        let members = [perception(), control()];
        for budget in [None, Some(Joules(3.0)), Some(Joules(8.0)), Some(Joules(14.0))] {
            for risks in [[0.0, 0.0], [0.9, 0.05], [0.45, 0.65]] {
                let a = plan_budget(&members, &risks, budget).unwrap();
                let b = plan_budget_prevalidated(&members, &risks, budget).unwrap();
                assert_eq!(a, b);
            }
        }
    }

    /// A tie-heavy synthetic fleet: few distinct profiles, risks spread
    /// across every band, so members with one profile constantly tie.
    fn synth(n: usize) -> (Vec<FleetMember>, Vec<f64>) {
        let members = (0..n)
            .map(|i| {
                let f = 1.0 + (i % 3) as f64 * 0.25;
                member(
                    &format!("s{i}"),
                    &[10.0 * f, 7.0 * f, 4.0 * f, 2.0 * f],
                    &[0.95, 0.93 - 0.001 * (i % 2) as f64, 0.88, 0.60],
                )
            })
            .collect();
        let risks = (0..n).map(|i| (i % 10) as f64 * 0.05).collect();
        (members, risks)
    }

    #[test]
    fn incremental_matches_scratch_across_budget_sweep() {
        let (members, risks) = synth(23);
        let mut planner = FleetPlanner::new(members.clone()).unwrap();
        let dense: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        for frac in [1.1, 1.0, 0.8, 0.61, 0.4, 0.2, 0.05, 0.0] {
            let budget = Some(Joules(dense * frac));
            let scratch = plan_budget_prevalidated(&members, &risks, budget).unwrap();
            let inc = planner.plan(&risks, budget).unwrap();
            assert_eq!(inc, scratch, "budget frac {frac}");
        }
        let scratch = plan_budget_prevalidated(&members, &risks, None).unwrap();
        assert_eq!(planner.plan(&risks, None).unwrap(), scratch);
    }

    #[test]
    fn incremental_matches_scratch_across_risk_mutations() {
        let (members, mut risks) = synth(17);
        let mut planner = FleetPlanner::new(members.clone()).unwrap();
        let budget = Some(Joules(40.0));
        for step in 0..30usize {
            let i = (step * 7) % risks.len();
            risks[i] = ((step * 3 + i) % 10) as f64 * 0.05;
            let scratch = plan_budget_prevalidated(&members, &risks, budget).unwrap();
            let inc = planner.plan(&risks, budget).unwrap();
            assert_eq!(inc, scratch, "mutation step {step}");
        }
    }

    #[test]
    fn quiet_ticks_hit_the_cache() {
        let (members, risks) = synth(12);
        let mut planner = FleetPlanner::new(members).unwrap();
        let budget = Some(Joules(50.0));
        let first = planner.plan(&risks, budget).unwrap();
        assert!(!planner.stats().cache_hit);
        let second = planner.plan(&risks, budget).unwrap();
        assert_eq!(first, second);
        assert!(planner.stats().cache_hit);
        assert_eq!(planner.stats().dirty_members, 0);
        // A risk wiggle *within* the same band re-validates but keeps the
        // cached plan (the plan depends on risk only through the band).
        let mut wiggled = risks.clone();
        wiggled[0] += 0.01;
        let third = planner.plan(&wiggled, budget).unwrap();
        assert_eq!(first, third);
        assert!(planner.stats().cache_hit);
        assert_eq!(planner.stats().dirty_members, 1);
        assert_eq!(planner.stats().moved_members, 0);
        // A budget change invalidates even a quiet tick.
        let fourth = planner.plan(&wiggled, Some(Joules(30.0))).unwrap();
        assert!(!planner.stats().cache_hit);
        assert!(fourth.total_energy.0 <= 30.0 || !fourth.feasible);
    }

    #[test]
    fn failed_risk_validation_leaves_planner_recoverable() {
        let (members, mut risks) = synth(9);
        let mut planner = FleetPlanner::new(members.clone()).unwrap();
        let budget = Some(Joules(30.0));
        planner.plan(&risks, budget).unwrap();
        let good = risks.clone();
        let before = planner.stats();
        risks[4] = f64::NAN;
        assert!(planner.plan(&risks, budget).is_err());
        // The same bad input errs again (NaNs are never cached) and a
        // corrected input matches the scratch plan exactly.
        assert!(planner.plan(&risks, budget).is_err());
        // A failed call changes nothing, so the corrected tick is quiet.
        assert_eq!(planner.stats(), before);
        let scratch = plan_budget_prevalidated(&members, &good, budget).unwrap();
        assert_eq!(planner.plan(&good, budget).unwrap(), scratch);
        assert!(planner.stats().cache_hit);
    }

    #[test]
    fn non_finite_profiles_are_rejected_at_admission() {
        let mut m = perception();
        m.energy_per_level[3] = Joules(f64::NEG_INFINITY);
        assert!(FleetPlanner::new(vec![m]).is_err());
        let mut m = perception();
        m.utility_per_level[2] = f64::NAN;
        assert!(m.validate().is_err(), "validate rejects NaN utility");
    }
}
