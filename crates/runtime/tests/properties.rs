//! Property-based tests of the runtime's safety invariants.
//!
//! These encode the end-to-end safety claims as properties over random
//! scenarios and policies, on a small untrained model (the invariants are
//! about control, not perception accuracy).

use proptest::prelude::*;
use reprune_nn::models;
use reprune_platform::Joules;
use reprune_prune::{LadderConfig, PruneCriterion, SparsityLadder};
use reprune_runtime::envelope::SafetyEnvelope;
use reprune_runtime::fleet::{plan_budget, plan_budget_prevalidated, BudgetPlan, FleetMember};
use reprune_runtime::planner::FleetPlanner;
use reprune_runtime::manager::{RestoreMechanism, RuntimeManager, RuntimeManagerConfig};
use reprune_runtime::policy::{AdaptiveConfig, Policy};
use reprune_scenario::ScenarioConfig;

fn ladder(net: &reprune_nn::Network) -> SparsityLadder {
    LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(net)
        .expect("ladder builds")
}

fn envelope() -> SafetyEnvelope {
    SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).expect("valid")
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::NoPruning),
        (0usize..4).prop_map(|level| Policy::Static { level }),
        Just(Policy::Oracle),
        (0.0f64..0.2, 1usize..20).prop_map(|(hysteresis, dwell_ticks)| {
            Policy::adaptive(AdaptiveConfig {
                hysteresis,
                dwell_ticks,
            })
        }),
    ]
}

/// A random but always-valid fleet member: strictly decreasing energy
/// (built from positive per-level drops), non-increasing utility (built
/// from non-negative per-level losses), four ladder levels.
fn fleet_member_strategy() -> impl Strategy<Value = FleetMember> {
    (
        0.5f64..20.0,
        proptest::collection::vec(0.1f64..5.0, 3),
        proptest::collection::vec(0.0f64..0.2, 3),
    )
        .prop_map(|(floor, drops, losses)| {
            let mut energies = vec![floor + drops.iter().sum::<f64>()];
            for d in &drops {
                let last = *energies.last().unwrap();
                energies.push(last - d);
            }
            let mut utilities = vec![1.0];
            for l in &losses {
                let last = *utilities.last().unwrap();
                utilities.push(last - l);
            }
            FleetMember {
                name: "m".into(),
                envelope: SafetyEnvelope::evenly_spaced(4, 0.6).unwrap(),
                energy_per_level: energies.into_iter().map(Joules).collect(),
                utility_per_level: utilities,
            }
        })
}

fn fleet_strategy() -> impl Strategy<Value = (Vec<FleetMember>, Vec<f64>)> {
    proptest::collection::vec((fleet_member_strategy(), 0.0f64..1.0), 1..6)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

/// A fleet drawn from a small pool of distinct profiles, so many members
/// share a profile and their moves constantly tie — the regime where the
/// planner's lowest-index tie rule must not drift from the reference.
fn tied_fleet_strategy() -> impl Strategy<Value = (Vec<FleetMember>, Vec<f64>)> {
    (
        proptest::collection::vec(fleet_member_strategy(), 1..4),
        proptest::collection::vec((0usize..1024, 0.0f64..1.0), 2..24),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|(pick, risk)| (pool[pick % pool.len()].clone(), risk))
                .unzip()
        })
}

/// A budget as a fraction of the dense draw: none, zero, or anything up
/// to twice dense.
fn budget_frac_strategy() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), Just(Some(0.0)), (0.0f64..2.0).prop_map(Some)]
}

/// The quadratic greedy the planner must replay: before every move it
/// rescans the whole fleet for the highest score, ties to the lowest
/// index (strict `>`), and subtracts that move's energy from a running
/// total. Totals come from a member-order re-sum.
fn reference_plan(members: &[FleetMember], risks: &[f64], budget: Option<Joules>) -> BudgetPlan {
    let allowed: Vec<usize> = members
        .iter()
        .zip(risks)
        .map(|(m, &r)| m.envelope.max_level(r))
        .collect();
    let mut levels = vec![0usize; members.len()];
    if let Some(budget) = budget {
        let mut energy: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        while energy > budget.0 {
            let mut best: Option<(usize, f64)> = None;
            for (i, m) in members.iter().enumerate() {
                let l = levels[i];
                if l >= allowed[i] {
                    continue;
                }
                let saved = m.energy_per_level[l].0 - m.energy_per_level[l + 1].0;
                let lost = m.utility_per_level[l] - m.utility_per_level[l + 1];
                let score = if lost < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    saved / lost.max(1e-12)
                };
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
            let Some((i, _)) = best else { break };
            let l = levels[i];
            energy -= members[i].energy_per_level[l].0 - members[i].energy_per_level[l + 1].0;
            levels[i] += 1;
        }
    }
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

proptest! {
    // Planning a small fleet takes microseconds, so the planner's oracle
    // test affords many more cases than the runtime drives below.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_planner_matches_scratch_under_mutation_sequences(
        fleet in prop_oneof![tied_fleet_strategy(), fleet_strategy()],
        steps in proptest::collection::vec(
            (0usize..1024, 0.0f64..1.0, budget_frac_strategy(), any::<bool>()),
            1..25,
        ),
    ) {
        // The oracle for the planner: over a random mutation sequence
        // (one risk moved per step, budget occasionally re-set), on
        // shared or per-member profiles, both the stateful planner and
        // the stateless greedy must produce plans *byte-identical* to the
        // quadratic reference on every tick — same levels, bit-equal
        // totals, same feasibility.
        let (members, mut risks) = fleet;
        let dense: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        let mut planner = FleetPlanner::new(members.clone()).unwrap();
        let mut budget = Some(Joules(dense * 0.7));
        for (pick, new_risk, frac, rebudget) in steps {
            let i = pick % risks.len();
            risks[i] = new_risk;
            if rebudget {
                budget = frac.map(|f| Joules(dense * f));
            }
            let reference = reference_plan(&members, &risks, budget);
            let stateless = plan_budget_prevalidated(&members, &risks, budget).unwrap();
            prop_assert_eq!(&stateless, &reference);
            let incremental = planner.plan(&risks, budget).unwrap();
            prop_assert_eq!(incremental, reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn budget_plan_never_exceeds_any_members_allowance(
        fleet in fleet_strategy(),
        budget_frac in 0.0f64..1.2,
    ) {
        let (members, risks) = fleet;
        let dense: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        let plan = plan_budget(&members, &risks, Some(Joules(dense * budget_frac))).unwrap();
        for ((m, &r), &level) in members.iter().zip(&risks).zip(&plan.levels) {
            prop_assert!(
                level <= m.envelope.max_level(r),
                "level {} exceeds allowance {} at risk {:.2}",
                level,
                m.envelope.max_level(r),
                r
            );
        }
        // The reported totals match the chosen levels exactly.
        let energy: f64 = members
            .iter()
            .zip(&plan.levels)
            .map(|(m, &l)| m.energy_per_level[l].0)
            .sum();
        prop_assert!((plan.total_energy.0 - energy).abs() < 1e-9);
    }

    #[test]
    fn budget_plan_energy_is_monotone_in_budget(
        fleet in fleet_strategy(),
    ) {
        let (members, risks) = fleet;
        // As the budget shrinks, planned energy must never increase.
        let dense: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        let mut prev_energy = f64::INFINITY;
        for frac in [1.1, 1.0, 0.8, 0.6, 0.4, 0.2, 0.0] {
            let plan = plan_budget(&members, &risks, Some(Joules(dense * frac))).unwrap();
            prop_assert!(
                plan.total_energy.0 <= prev_energy + 1e-9,
                "energy rose from {prev_energy} to {} as the budget shrank",
                plan.total_energy.0
            );
            prev_energy = plan.total_energy.0;
        }
    }

    #[test]
    fn budget_plan_infeasible_exactly_when_floor_exceeds_budget(
        fleet in fleet_strategy(),
        budget_frac in 0.0f64..1.2,
    ) {
        let (members, risks) = fleet;
        let dense: f64 = members.iter().map(|m| m.energy_per_level[0].0).sum();
        let budget = dense * budget_frac;
        let plan = plan_budget(&members, &risks, Some(Joules(budget))).unwrap();
        // The cheapest safe allocation: every member at its envelope cap.
        let floor: f64 = members
            .iter()
            .zip(&risks)
            .map(|(m, &r)| m.energy_per_level[m.envelope.max_level(r)].0)
            .sum();
        if plan.feasible {
            prop_assert!(plan.total_energy.0 <= budget);
        } else {
            prop_assert!(
                floor > budget,
                "reported infeasible though all-at-cap ({floor}) fits {budget}"
            );
            prop_assert!(
                (plan.total_energy.0 - floor).abs() < 1e-9,
                "the infeasible fallback must be the maximally pruned safe plan"
            );
        }
    }

    #[test]
    fn oracle_with_delta_restore_never_violates(
        scenario_seed in any::<u64>(),
        rate in 0.5f64..4.0,
    ) {
        let net = models::default_perception_cnn(1).expect("model");
        let scenario = ScenarioConfig::new()
            .duration_s(60.0)
            .seed(scenario_seed)
            .event_rate_scale(rate)
            .generate();
        let mut mgr = RuntimeManager::attach(
            net.clone(),
            ladder(&net),
            RuntimeManagerConfig::new(Policy::Oracle, envelope())
                .mechanism(RestoreMechanism::DeltaLog)
                .frame_seed(scenario_seed),
        )
        .expect("attach");
        let r = mgr.run(&scenario).expect("run");
        prop_assert_eq!(r.violations, 0);
    }

    #[test]
    fn any_policy_accounting_is_consistent(
        scenario_seed in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let net = models::default_perception_cnn(2).expect("model");
        let scenario = ScenarioConfig::new()
            .duration_s(45.0)
            .seed(scenario_seed)
            .generate();
        let mut mgr = RuntimeManager::attach(
            net.clone(),
            ladder(&net),
            RuntimeManagerConfig::new(policy, envelope()).frame_seed(scenario_seed),
        )
        .expect("attach");
        let r = mgr.run(&scenario).expect("run");
        // Bookkeeping invariants.
        prop_assert_eq!(r.records.len(), scenario.ticks().len());
        prop_assert_eq!(
            r.violations,
            r.records.iter().filter(|rec| rec.violation).count()
        );
        prop_assert!(r.total_energy.0 > 0.0);
        prop_assert!(r.dense_energy.0 > 0.0);
        prop_assert!(r.total_energy.0 <= r.dense_energy.0 * 1.5, "energy blow-up");
        // A violation tick is exactly level > allowed.
        for rec in &r.records {
            prop_assert_eq!(rec.violation, rec.level > rec.max_allowed_level);
            prop_assert!((0.0..=1.0).contains(&rec.estimated_risk));
        }
        // Recovery latencies are positive and bounded by the drive length.
        for &lat in &r.recovery_latencies {
            prop_assert!(lat >= 0.0 && lat <= scenario.duration_s());
        }
    }

    #[test]
    fn no_pruning_is_always_safe_and_dense(
        scenario_seed in any::<u64>(),
    ) {
        let net = models::default_perception_cnn(3).expect("model");
        let scenario = ScenarioConfig::new()
            .duration_s(30.0)
            .seed(scenario_seed)
            .event_rate_scale(3.0)
            .generate();
        let mut mgr = RuntimeManager::attach(
            net.clone(),
            ladder(&net),
            RuntimeManagerConfig::new(Policy::NoPruning, envelope())
                .frame_seed(scenario_seed),
        )
        .expect("attach");
        let r = mgr.run(&scenario).expect("run");
        prop_assert_eq!(r.violations, 0);
        prop_assert!(r.records.iter().all(|rec| rec.level == 0));
        prop_assert!(r.energy_saved_fraction().abs() < 1e-9);
    }

    #[test]
    fn adaptive_restores_are_risk_driven(
        scenario_seed in any::<u64>(),
    ) {
        // Whenever the level drops between consecutive ticks under the
        // adaptive policy with delta restore, either estimated risk rose
        // into a stricter band — there is no other reason to restore.
        let net = models::default_perception_cnn(4).expect("model");
        let scenario = ScenarioConfig::new()
            .duration_s(60.0)
            .seed(scenario_seed)
            .event_rate_scale(2.0)
            .generate();
        let env = envelope();
        let mut mgr = RuntimeManager::attach(
            net.clone(),
            ladder(&net),
            RuntimeManagerConfig::new(
                Policy::adaptive(AdaptiveConfig::default()),
                env.clone(),
            )
            .frame_seed(scenario_seed),
        )
        .expect("attach");
        let r = mgr.run(&scenario).expect("run");
        for pair in r.records.windows(2) {
            if pair[1].level < pair[0].level {
                let allowed = env.max_level(pair[1].estimated_risk);
                prop_assert!(
                    allowed <= pair[1].level,
                    "restore to {} though {} was allowed at est {:.2}",
                    pair[1].level,
                    allowed,
                    pair[1].estimated_risk
                );
            }
        }
    }
}
