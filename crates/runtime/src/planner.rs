//! The fleet budget planner: the from-scratch greedy oracle and the
//! stateful dirty-set / bucketed planner built on top of it.
//!
//! [`plan_budget`] / [`plan_budget_prevalidated`] are the reference
//! greedy — every member starts at full capacity and the planner
//! repeatedly raises the level of whichever member sheds the most energy
//! per unit utility lost (ties to the lowest member index), never past
//! the member's safety envelope, until the budget is met. They re-plan
//! the whole fleet from scratch on every call, which is superlinear in
//! members.
//!
//! [`FleetPlanner`] produces **byte-identical plans** at a fraction of
//! the cost by exploiting two structural facts (DESIGN.md §15):
//!
//! 1. **Dirty-set** — a plan depends on risks only through each member's
//!    *allowed band* (`envelope.max_level(risk)`). Risks are cached
//!    bitwise; members whose band did not move since the last tick keep
//!    their bucket slot, and a tick that moves no bands under an
//!    unchanged budget returns the cached plan outright.
//! 2. **Bucketing** — members with identical profiles (energy, utility,
//!    envelope — a *profile class*) and the same allowed band are
//!    interchangeable except for index-order tie-breaking. Inside one
//!    bucket the greedy provably keeps levels non-increasing in member
//!    index, so a bucket's whole state is a per-level occupancy count
//!    plus its sorted member list, and the greedy iterates over buckets
//!    with multiplicity instead of individuals.
//!
//! Exactness is preserved move-for-move: tied buckets (same class,
//! different band — the common case) are advanced through a min-index
//! head "run" schedule that replays the scratch greedy's move order,
//! including its float-exact sequential energy updates, and the
//! reported totals come from the same member-order final re-sum. The
//! from-scratch-vs-incremental equivalence property test pins this.

use crate::envelope::SafetyEnvelope;
use crate::fleet::{BudgetPlan, FleetMember};
use crate::{Result, RuntimeError};
use reprune_platform::Joules;

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
/// validated them once (e.g. `FleetRuntime`, which arbitrates every tick)
/// can skip the O(members × levels) re-validation on the hot path. Risks
/// change every tick and are still checked here.
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
    let allowed: Vec<usize> = members
        .iter()
        .zip(risks)
        .map(|(m, &r)| m.envelope.max_level(r))
        .collect();
    let mut levels = vec![0usize; members.len()];
    let total = |levels: &[usize]| -> (Joules, f64) {
        let e: Joules = members
            .iter()
            .zip(levels)
            .map(|(m, &l)| m.energy_per_level[l])
            .sum();
        let u: f64 = members
            .iter()
            .zip(levels)
            .map(|(m, &l)| m.utility_per_level[l])
            .sum();
        (e, u)
    };
    if let Some(budget) = budget {
        // Track energy incrementally: each greedy move adjusts the running
        // total by one level delta instead of re-summing all members, so
        // the loop is O(moves × members) rather than O(moves × members²).
        let mut energy: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        while energy > budget.0 {
            // Best next move: max energy saved per utility lost.
            let mut best: Option<(usize, f64)> = None;
            for (i, m) in members.iter().enumerate() {
                if levels[i] >= allowed[i] {
                    continue;
                }
                let l = levels[i];
                let saved = m.energy_per_level[l].0 - m.energy_per_level[l + 1].0;
                let score =
                    move_score(saved, m.utility_per_level[l] - m.utility_per_level[l + 1]);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
            match best {
                Some((i, _)) => {
                    let l = levels[i];
                    energy -= members[i].energy_per_level[l].0
                        - members[i].energy_per_level[l + 1].0;
                    levels[i] += 1;
                }
                // No safe moves left: stop and report infeasible below.
                None => break,
            }
        }
    }
    // Reported totals (and the feasibility verdict) come from one exact
    // final re-sum so the incremental loop can never leak float drift
    // into the plan.
    let (energy, utility) = total(&levels);
    Ok(BudgetPlan {
        levels,
        total_energy: energy,
        total_utility: utility,
        feasible: budget.is_none_or(|b| energy.0 <= b.0),
    })
}

/// Score of the greedy move `l -> l+1`: energy saved per unit utility
/// lost. A zero drop is clamped to `1e-12` (a free move scores huge but
/// finite). A *negative* drop — utility increasing with level — violates
/// the profile contract [`FleetMember::validate`] enforces at admission;
/// on the prevalidated paths, rather than letting the tiny clamp turn the
/// violation into the most attractive move in the fleet, it is handled
/// by sign explicitly and scores `NEG_INFINITY`, which the strict `>`
/// comparison never picks over any finite alternative. Both the scratch
/// greedy and the incremental planner's precomputed class scores go
/// through this one definition, keeping them oracle-equal even on
/// malformed profiles.
fn move_score(saved: f64, lost: f64) -> f64 {
    if lost < 0.0 {
        f64::NEG_INFINITY
    } else {
        saved / lost.max(1e-12)
    }
}

/// One distinct (energy, utility, envelope) profile shared by a set of
/// members. Greedy move scores depend only on the class, so they are
/// precomputed here once at admission time.
#[derive(Debug, Clone)]
struct ProfileClass {
    energy: Vec<f64>,
    utility: Vec<f64>,
    /// `scores[l]` = energy saved per utility lost for the move l → l+1,
    /// exactly as the scratch greedy computes it.
    scores: Vec<f64>,
    envelope: SafetyEnvelope,
}

impl ProfileClass {
    fn of(member: &FleetMember) -> Self {
        let energy: Vec<f64> = member.energy_per_level.iter().map(|e| e.0).collect();
        let utility = member.utility_per_level.clone();
        let scores = (0..energy.len().saturating_sub(1))
            .map(|l| move_score(energy[l] - energy[l + 1], utility[l] - utility[l + 1]))
            .collect();
        ProfileClass {
            energy,
            utility,
            scores,
            envelope: member.envelope.clone(),
        }
    }

    fn matches(&self, member: &FleetMember) -> bool {
        self.envelope.thresholds() == member.envelope.thresholds()
            && self.energy.len() == member.energy_per_level.len()
            && self
                .energy
                .iter()
                .zip(&member.energy_per_level)
                .all(|(a, b)| a.to_bits() == b.0.to_bits())
            && self
                .utility
                .iter()
                .zip(&member.utility_per_level)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// All members sharing a (profile class, allowed band): interchangeable
/// in the greedy except for index-order ties.
#[derive(Debug, Clone)]
struct Bucket {
    class: usize,
    allowed: usize,
    /// Member indices, ascending. The greedy keeps levels non-increasing
    /// along this list, so together with `counts` it determines every
    /// member's cap.
    ids: Vec<usize>,
    /// Per-level occupancy during/after a greedy pass.
    counts: Vec<usize>,
}

impl Bucket {
    /// Index into `ids` of the lowest-id member currently at `level`
    /// (levels deeper than `level` occupy the front of the list).
    fn offset(&self, level: usize) -> usize {
        self.counts[level + 1..].iter().sum()
    }
}

/// Moves `member` into the bucket keyed `(class, allowed)`, creating it
/// if needed. `ids` stay sorted (binary insertion).
fn insert(buckets: &mut Vec<Bucket>, member: usize, class: usize, allowed: usize, levels: usize) {
    match buckets
        .iter_mut()
        .find(|b| b.class == class && b.allowed == allowed)
    {
        Some(b) => {
            let pos = b.ids.partition_point(|&id| id < member);
            b.ids.insert(pos, member);
        }
        None => buckets.push(Bucket {
            class,
            allowed,
            ids: vec![member],
            counts: vec![0; levels],
        }),
    }
}

/// Removes `member` from the bucket keyed `(class, allowed)`, dropping
/// the bucket when it empties.
fn remove(buckets: &mut Vec<Bucket>, member: usize, class: usize, allowed: usize) {
    let idx = buckets
        .iter()
        .position(|b| b.class == class && b.allowed == allowed)
        .expect("member's cached bucket exists");
    let b = &mut buckets[idx];
    let pos = b.ids.partition_point(|&id| id < member);
    debug_assert_eq!(b.ids.get(pos), Some(&member));
    b.ids.remove(pos);
    if b.ids.is_empty() {
        buckets.swap_remove(idx);
    }
}

/// Outcome counters of the most recent [`FleetPlanner::plan`] call plus
/// lifetime cache statistics — what `examples/fleet_storm.rs` prints as
/// dirty-set occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlannerStats {
    /// Fleet size.
    pub members: usize,
    /// Members whose risk changed bitwise on the last call (re-validated
    /// and re-banded).
    pub dirty_members: usize,
    /// Members whose allowed band actually moved on the last call
    /// (re-bucketed; forces a re-plan).
    pub moved_members: usize,
    /// Whether the last call was served from the plan cache.
    pub cache_hit: bool,
    /// Total plan calls that completed successfully.
    pub plans: u64,
    /// Plan calls served from the cache (no band moved, same budget).
    pub cache_hits: u64,
}

impl PlannerStats {
    /// Fraction of members re-banded on the last call (`0.0` for a
    /// cache hit on a quiet tick, `1.0` for a full first plan).
    pub fn dirty_occupancy(&self) -> f64 {
        if self.members == 0 {
            0.0
        } else {
            self.dirty_members as f64 / self.members as f64
        }
    }
}

/// Per-member cached risk state: the bitwise risk and the band it mapped
/// to. `valid` distinguishes "never planned" from any real risk value
/// (a sentinel NaN would collide with a caller's NaN bit pattern).
#[derive(Debug, Clone, Copy)]
struct RiskSlot {
    bits: u64,
    allowed: usize,
    valid: bool,
}

/// The stateful incremental budget arbiter. See the module docs for the
/// architecture; construction validates every member once (admission-time
/// validation — the per-tick hot path never re-validates a profile), and
/// [`FleetPlanner::plan`] then produces plans byte-identical to
/// [`plan_budget_prevalidated`] on every call.
#[derive(Debug, Clone)]
pub struct FleetPlanner {
    members: Vec<FleetMember>,
    classes: Vec<ProfileClass>,
    class_of: Vec<usize>,
    risks: Vec<RiskSlot>,
    /// One bucket table for the whole fleet: the dirty scan, the greedy
    /// and cap materialization all work on it.
    buckets: Vec<Bucket>,
    /// Member-order sum of level-0 energies — the scratch greedy's exact
    /// starting energy.
    full_energy: f64,
    cached: Option<CachedPlan>,
    stats: PlannerStats,
}

#[derive(Debug, Clone)]
struct CachedPlan {
    budget_bits: Option<u64>,
    plan: BudgetPlan,
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
        let mut planner = FleetPlanner {
            members,
            classes: Vec::new(),
            class_of: Vec::new(),
            risks: Vec::new(),
            buckets: Vec::new(),
            full_energy: 0.0,
            cached: None,
            stats: PlannerStats::default(),
        };
        planner.rebuild()?;
        Ok(planner)
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

    /// Replaces one member's profile (admission-time validation: the
    /// profile is checked here, at the mutation edge, never on the
    /// per-tick hot path). The member is re-classed, re-bucketed under
    /// its cached risk, and the plan cache is invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] if `index` is out of range or
    /// the new profile fails [`FleetMember::validate`].
    pub fn update_member(&mut self, index: usize, member: FleetMember) -> Result<()> {
        if index >= self.members.len() {
            return Err(RuntimeError::bad_config(format!(
                "member {index} out of range ({} members)",
                self.members.len()
            )));
        }
        member.validate()?;
        let old_class = self.class_of[index];
        let new_class = self.class_index(&member);
        let new_levels = self.classes[new_class].energy.len();
        self.members[index] = member;
        let slot = self.risks[index];
        if slot.valid {
            // Re-band the cached risk under the (possibly new) envelope
            // and move the member's bucket slot atomically with the
            // profile swap so planner state never skews.
            let risk = f64::from_bits(slot.bits);
            let allowed = self.classes[new_class].envelope.max_level(risk);
            remove(&mut self.buckets, index, old_class, slot.allowed);
            insert(&mut self.buckets, index, new_class, allowed, new_levels);
            self.risks[index].allowed = allowed;
        }
        self.class_of[index] = new_class;
        // Level-0 energy may have moved: recompute the exact member-order
        // starting sum the scratch greedy uses.
        self.full_energy = self.members.iter().map(|m| m.energy_per_level[0].0).sum();
        self.cached = None;
        Ok(())
    }

    /// Finds or creates the profile class of `member`.
    fn class_index(&mut self, member: &FleetMember) -> usize {
        match self.classes.iter().position(|c| c.matches(member)) {
            Some(c) => c,
            None => {
                self.classes.push(ProfileClass::of(member));
                self.classes.len() - 1
            }
        }
    }

    /// Validates every member, assigns classes, and resets all risk /
    /// bucket / cache state (construction, or a full invalidation).
    fn rebuild(&mut self) -> Result<()> {
        for m in &self.members {
            m.validate()?;
        }
        self.classes.clear();
        let n = self.members.len();
        let mut class_of = Vec::with_capacity(n);
        for i in 0..n {
            let member = self.members[i].clone();
            class_of.push(self.class_index(&member));
        }
        self.class_of = class_of;
        self.risks = vec![
            RiskSlot {
                bits: 0,
                allowed: 0,
                valid: false,
            };
            n
        ];
        self.buckets.clear();
        self.full_energy = self.members.iter().map(|m| m.energy_per_level[0].0).sum();
        self.cached = None;
        self.stats = PlannerStats {
            members: n,
            ..PlannerStats::default()
        };
        Ok(())
    }

    /// Plans the fleet under `budget` at the given per-member risks —
    /// byte-identical to [`plan_budget_prevalidated`] on the same inputs,
    /// but incremental: only members whose risk changed are re-validated
    /// and re-banded, and a tick that moves no bands under an unchanged
    /// budget returns the cached plan.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] for a risk-count mismatch or
    /// any changed risk that is non-finite or negative (same message as
    /// the scratch planner). A failed call leaves the planner consistent;
    /// re-planning with corrected risks recovers.
    pub fn plan(&mut self, risks: &[f64], budget: Option<Joules>) -> Result<BudgetPlan> {
        let n = self.members.len();
        if risks.len() != n {
            return Err(RuntimeError::bad_config(format!(
                "{n} members but {} risks",
                risks.len()
            )));
        }
        let (dirty, moved) = match self.scan_risks(risks) {
            Ok(counts) => counts,
            Err(e) => {
                // A failed scan may have re-banded some members before the
                // rejected one. The bucket state is still consistent, but
                // the cached plan no longer describes it — drop it so a
                // later "quiet" tick cannot serve a stale plan.
                self.cached = None;
                return Err(e);
            }
        };
        self.stats.dirty_members = dirty;
        self.stats.moved_members = moved;
        let budget_bits = budget.map(|b| b.0.to_bits());
        if moved == 0 {
            if let Some(c) = &self.cached {
                if c.budget_bits == budget_bits {
                    self.stats.cache_hit = true;
                    self.stats.plans += 1;
                    self.stats.cache_hits += 1;
                    return Ok(c.plan.clone());
                }
            }
        }
        self.stats.cache_hit = false;

        if let Some(b) = budget {
            self.greedy(b.0);
        } else {
            for bucket in &mut self.buckets {
                bucket.counts.fill(0);
                bucket.counts[0] = bucket.ids.len();
            }
        }

        // Materialize per-member caps from the final bucket counts
        // (deepest levels to lowest member ids), then re-sum totals in
        // exact member order — the scratch planner's final `total`.
        let mut levels = vec![0usize; n];
        for b in &self.buckets {
            let mut pos = 0usize;
            for l in (0..b.counts.len()).rev() {
                for _ in 0..b.counts[l] {
                    levels[b.ids[pos]] = l;
                    pos += 1;
                }
            }
        }
        let mut energy = 0.0f64;
        let mut utility = 0.0f64;
        for (i, &l) in levels.iter().enumerate() {
            let c = &self.classes[self.class_of[i]];
            energy += c.energy[l];
            utility += c.utility[l];
        }
        let plan = BudgetPlan {
            levels,
            total_energy: Joules(energy),
            total_utility: utility,
            feasible: budget.is_none_or(|b| energy <= b.0),
        };
        self.cached = Some(CachedPlan {
            budget_bits,
            plan: plan.clone(),
        });
        self.stats.plans += 1;
        Ok(plan)
    }

    /// The dirty scan: re-validates and re-bands every member whose risk
    /// changed bitwise, returning `(dirty, moved)` counts. The cached
    /// risk, band and bucket slot move together per member, so an error
    /// part-way through leaves every already-processed member fully
    /// consistent.
    fn scan_risks(&mut self, risks: &[f64]) -> Result<(usize, usize)> {
        let mut dirty = 0;
        let mut moved = 0;
        for (i, (slot, &risk)) in self.risks.iter_mut().zip(risks).enumerate() {
            let bits = risk.to_bits();
            if slot.valid && slot.bits == bits {
                continue;
            }
            // Same rejection (and message) as the scratch planner: a NaN
            // risk would silently grant the most pruned level via
            // `max_level`.
            if !risk.is_finite() || risk < 0.0 {
                return Err(RuntimeError::bad_config(format!(
                    "{}: risk {risk} must be finite and non-negative",
                    self.members[i].name
                )));
            }
            let class = self.class_of[i];
            let allowed = self.classes[class].envelope.max_level(risk);
            let levels = self.classes[class].energy.len();
            if !slot.valid {
                insert(&mut self.buckets, i, class, allowed, levels);
                moved += 1;
            } else if slot.allowed != allowed {
                remove(&mut self.buckets, i, class, slot.allowed);
                insert(&mut self.buckets, i, class, allowed, levels);
                moved += 1;
            }
            *slot = RiskSlot {
                bits,
                allowed,
                valid: true,
            };
            dirty += 1;
        }
        Ok((dirty, moved))
    }

    /// The exact bucket greedy: replays the scratch planner's move order
    /// (including index-order tie resolution and per-move sequential
    /// energy subtraction) over bucket counts instead of individuals.
    fn greedy(&mut self, budget: f64) {
        for b in &mut self.buckets {
            b.counts.fill(0);
            b.counts[0] = b.ids.len();
        }
        let mut energy = self.full_energy;
        // Candidate buckets at the current plateau score: each
        // contributes its deepest maximizing level (whose head is the
        // bucket's lowest-index maximizer) and that head's member id.
        // `multi` marks buckets with more than one level at the score.
        struct Cand {
            b: usize,
            level: usize,
            head: usize,
            multi: bool,
        }
        let mut cands: Vec<Cand> = Vec::new();
        'outer: while energy > budget {
            // One fused pass: find the max frontier score across every
            // occupied, in-envelope bucket level, collecting the
            // maximizing buckets along the way (the buffer resets
            // whenever a later bucket raises the maximum).
            let mut best: Option<f64> = None;
            let mut s_bits = 0u64;
            cands.clear();
            for (bi, b) in self.buckets.iter().enumerate() {
                let scores = &self.classes[b.class].scores;
                let mut deepest: Option<usize> = None;
                let mut matches = 0usize;
                for (l, &s) in scores.iter().enumerate().take(b.allowed) {
                    if b.counts[l] == 0 {
                        continue;
                    }
                    if best.is_none_or(|bs| s > bs) {
                        best = Some(s);
                        s_bits = s.to_bits();
                        cands.clear();
                        deepest = Some(l);
                        matches = 1;
                    } else if s.to_bits() == s_bits {
                        deepest = Some(l);
                        matches += 1;
                    }
                }
                if let Some(level) = deepest {
                    cands.push(Cand {
                        b: bi,
                        level,
                        head: b.ids[b.offset(level)],
                        multi: matches > 1,
                    });
                }
            }
            let Some(s) = best else { break };
            // Bulk fast path: when every candidate bucket has a single
            // matching level whose runs stop after one move, and all
            // moves free bitwise-identical energy, the sequential value
            // replay is independent of the member interleave — so the
            // plateau advances with one subtraction loop and per-bucket
            // counts updates instead of per-member work. This is the
            // overwhelmingly common shape (profile scores decreasing
            // with depth), and what keeps 10k-member replans flat.
            let mut bulk = true;
            let mut delta_bits: Option<u64> = None;
            let mut movable = 0usize;
            for c in &cands {
                let b = &self.buckets[c.b];
                let class = &self.classes[b.class];
                let nl = c.level + 1;
                let continues = nl < b.allowed && {
                    let sc = class.scores[nl];
                    sc >= s || sc.to_bits() == s_bits
                };
                let d = (class.energy[c.level] - class.energy[nl]).to_bits();
                if c.multi || continues || *delta_bits.get_or_insert(d) != d {
                    bulk = false;
                    break;
                }
                movable += b.counts[c.level];
            }
            if bulk {
                let delta = f64::from_bits(delta_bits.expect("plateau has candidates"));
                let mut moved = 0usize;
                while energy > budget && moved < movable {
                    energy -= delta;
                    moved += 1;
                }
                if moved == movable {
                    for c in &cands {
                        let b = &mut self.buckets[c.b];
                        b.counts[c.level + 1] += b.counts[c.level];
                        b.counts[c.level] = 0;
                    }
                    continue 'outer;
                }
                // The budget landed mid-plateau: runs start in ascending
                // member-id order, so the moved members are exactly the
                // `moved` lowest ids across the candidate buckets. Walk
                // the id ranges as a k-way merge — cheap, because this
                // happens at most once per plan.
                let mut heads: Vec<(usize, usize)> = cands
                    .iter()
                    .map(|c| {
                        let b = &self.buckets[c.b];
                        (b.offset(c.level), b.counts[c.level])
                    })
                    .collect();
                for _ in 0..moved {
                    let mut win = usize::MAX;
                    let mut wi = 0usize;
                    for (i, c) in cands.iter().enumerate() {
                        let (pos, left) = heads[i];
                        if left == 0 {
                            continue;
                        }
                        let id = self.buckets[c.b].ids[pos];
                        if id < win {
                            win = id;
                            wi = i;
                        }
                    }
                    let c = &cands[wi];
                    let b = &mut self.buckets[c.b];
                    b.counts[c.level] -= 1;
                    b.counts[c.level + 1] += 1;
                    heads[wi].0 += 1;
                    heads[wi].1 -= 1;
                }
                break 'outer;
            }
            // Plateau: repeatedly run the lowest-index head as deep as
            // its successor scores stay ≥ s. Each run replays the
            // scratch greedy's consecutive moves for that member — it
            // keeps winning while its score holds: strictly above s it
            // is the unique maximizer, and at exactly s (scores are
            // strictly positive, so value equality is bit equality) it
            // stays the lowest tied index, since no other bucket's head
            // changes mid-run and moving deeper keeps it at the front of
            // its own bucket. Per-move order — and float-exact energy —
            // is therefore preserved even when distinct profile classes
            // collide on the same score bits.
            loop {
                if energy <= budget {
                    break 'outer;
                }
                let Some(ci) = cands
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.head)
                    .map(|(i, _)| i)
                else {
                    break; // plateau exhausted — rescan for the next score
                };
                let mut lvl = cands[ci].level;
                let bucket = &mut self.buckets[cands[ci].b];
                let class = &self.classes[bucket.class];
                loop {
                    energy -= class.energy[lvl] - class.energy[lvl + 1];
                    bucket.counts[lvl] -= 1;
                    bucket.counts[lvl + 1] += 1;
                    lvl += 1;
                    if energy <= budget {
                        break 'outer;
                    }
                    if lvl >= bucket.allowed {
                        break;
                    }
                    let sc = class.scores[lvl];
                    if !(sc >= s || sc.to_bits() == s_bits) {
                        break;
                    }
                }
                // Refresh this bucket's candidacy after the run.
                let scores = &self.classes[bucket.class].scores;
                let deepest = (0..bucket.allowed)
                    .rev()
                    .find(|&l| bucket.counts[l] > 0 && scores[l].to_bits() == s_bits);
                match deepest {
                    Some(level) => {
                        let head = bucket.ids[bucket.offset(level)];
                        cands[ci].level = level;
                        cands[ci].head = head;
                    }
                    None => {
                        cands.swap_remove(ci);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // exercise the 1e-12 clamp in both the scratch greedy and the
        // incremental planner's precomputed class scores; the plans must
        // stay byte-identical across a budget sweep.
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

    /// A tie-heavy synthetic fleet: few profile classes, risks spread
    /// across every band, so buckets within a class constantly tie.
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
        risks[4] = f64::NAN;
        assert!(planner.plan(&risks, budget).is_err());
        // The same bad input errs again (NaNs are never cached) and a
        // corrected input matches the scratch plan exactly.
        assert!(planner.plan(&risks, budget).is_err());
        let scratch = plan_budget_prevalidated(&members, &good, budget).unwrap();
        assert_eq!(planner.plan(&good, budget).unwrap(), scratch);
    }

    #[test]
    fn update_member_revalidates_and_replans() {
        let (members, risks) = synth(6);
        let mut planner = FleetPlanner::new(members.clone()).unwrap();
        let budget = Some(Joules(20.0));
        planner.plan(&risks, budget).unwrap();
        // An invalid replacement profile is rejected at the mutation edge.
        let mut bad = members[2].clone();
        bad.energy_per_level[1] = Joules(1e9);
        assert!(planner.update_member(2, bad).is_err());
        // A valid replacement takes effect immediately and exactly.
        let mut updated = members.clone();
        updated[2] = member("s2b", &[40.0, 20.0, 10.0, 5.0], &[0.99, 0.98, 0.9, 0.5]);
        planner.update_member(2, updated[2].clone()).unwrap();
        let scratch = plan_budget_prevalidated(&updated, &risks, budget).unwrap();
        assert_eq!(planner.plan(&risks, budget).unwrap(), scratch);
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
