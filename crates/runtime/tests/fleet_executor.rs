//! End-to-end tests of the concurrent fleet executor: arbitration
//! safety, pooled-vs-serial equivalence, and shared-weight accounting.

use reprune_nn::{models, Network};
use reprune_platform::Joules;
use reprune_prune::{LadderConfig, PruneCriterion, SparsityLadder};
use reprune_runtime::envelope::SafetyEnvelope;
use reprune_runtime::manager::{RuntimeManager, RuntimeManagerConfig};
use reprune_runtime::policy::Policy;
use reprune_runtime::FleetRuntime;
use reprune_scenario::{Scenario, ScenarioConfig};

/// Utility profile matching the 4-level ladder below.
const UTILITY: [f64; 4] = [0.95, 0.93, 0.88, 0.60];

fn ladder(net: &Network) -> SparsityLadder {
    LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(net)
        .expect("ladder builds")
}

fn envelope() -> SafetyEnvelope {
    SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).expect("valid")
}

fn member_manager(net: &Network, policy: Policy, seed: u64) -> RuntimeManager {
    let net = net.clone();
    let ladder = ladder(&net);
    RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(policy, envelope()).frame_seed(seed),
    )
    .expect("attach")
}

fn fleet(net: &Network, policy: Policy, n: usize) -> FleetRuntime {
    FleetRuntime::new(
        (0..n)
            .map(|i| {
                (
                    format!("member-{i}"),
                    member_manager(net, policy.clone(), i as u64),
                    UTILITY.to_vec(),
                )
            })
            .collect(),
    )
    .expect("fleet builds")
}

fn scenario(seed: u64) -> Scenario {
    ScenarioConfig::new().duration_s(30.0).seed(seed).generate()
}

#[test]
fn pooled_and_serial_stepping_agree_exactly() {
    let net = models::default_perception_cnn(21).expect("model");
    let sc = scenario(7);
    let budget = Some(Joules(10.0));

    let mut serial = fleet(&net, Policy::Oracle, 4);
    serial.set_workers(1);
    let a = serial.run(&sc, budget).unwrap();

    let mut pooled = fleet(&net, Policy::Oracle, 4);
    pooled.set_workers(4);
    let b = pooled.run(&sc, budget).unwrap();

    assert_eq!(a.ticks.len(), sc.ticks().len());
    assert_eq!(a.names, b.names);
    assert_eq!(a.ticks, b.ticks, "worker count must not change any record");
    assert_eq!(a.trace, b.trace, "merged traces must be identical too");
}

#[test]
fn incremental_planner_run_is_byte_identical_to_scratch() {
    let net = models::default_perception_cnn(21).expect("model");
    let sc = scenario(7);
    // A shrinking budget keeps the arbiter busy; shared tick risk means
    // quiet stretches where the dirty-set planner should be caching.
    let mut scratch = fleet(&net, Policy::Oracle, 4);
    scratch.set_workers(1);
    let a = scratch
        .run_with(&sc, |t| Some(Joules(10.0 - 0.02 * t.t)))
        .unwrap();

    for workers in [1usize, 4] {
        let mut inc = fleet(&net, Policy::Oracle, 4);
        inc.set_workers(workers);
        inc.set_incremental_planner(true);
        assert!(inc.incremental_planner());
        let b = inc
            .run_with(&sc, |t| Some(Joules(10.0 - 0.02 * t.t)))
            .unwrap();
        assert_eq!(a.names, b.names);
        assert_eq!(
            a.ticks, b.ticks,
            "incremental planning ({workers} workers) must match scratch records"
        );
        assert_eq!(a.trace, b.trace, "merged traces must be identical too");
        let stats = inc.planner_stats().expect("planner ran");
        assert!(stats.plans > 0, "the incremental planner actually planned");
        assert!(
            inc.last_plan_seconds() >= 0.0,
            "plan timing is recorded in incremental mode"
        );
    }
}

#[test]
fn reprofiled_member_dirties_the_planner_in_both_modes() {
    let net = models::default_perception_cnn(29).expect("model");
    let sc = scenario(13);
    let dt = sc.config().dt_s;
    // A budget just below the dense draw forces the arbiter to make a
    // small cut every tick — exactly where a cheaper level-1 profile on
    // one member changes which cut wins.
    let dense: f64 = fleet(&net, Policy::NoPruning, 3)
        .profiles()
        .iter()
        .map(|p| p.energy_per_level[0].0)
        .sum();
    let budget = Some(Joules(dense * 0.97));
    let drive = |f: &mut FleetRuntime| {
        let mut ticks = Vec::new();
        for (k, tick) in sc.ticks().iter().enumerate() {
            if k == 3 {
                // Mid-run recalibration: member 1's level-1 energy drops
                // halfway toward its level-2 cost (staying strictly
                // monotone), via the Knowledge plan-epoch mutation edge.
                let lk = f.manager(1).knowledge();
                let mid = Joules((lk[1].inference.energy.0 + lk[2].inference.energy.0) / 2.0);
                f.manager_mut(1).reprofile_level_energy(1, mid).unwrap();
            }
            ticks.push(f.step_all(tick, dt, budget).unwrap());
        }
        ticks
    };

    let mut scratch = fleet(&net, Policy::NoPruning, 3);
    scratch.set_workers(1);
    let a = drive(&mut scratch);

    let mut inc = fleet(&net, Policy::NoPruning, 3);
    inc.set_workers(1);
    inc.set_incremental_planner(true);
    let b = drive(&mut inc);

    assert_eq!(a, b, "a reprofile must land identically in both modes");
    // The reprofile visibly moved the arbitration: member 1's halved
    // level-1 cost makes pruning it the best first move under a budget
    // that previously split the cut differently.
    assert!(
        a.iter().any(|t| t.plan.levels[1] > 0),
        "the cheaper level-1 profile must attract the arbiter"
    );
    let updated = inc.profiles()[1].energy_per_level[1];
    assert_eq!(
        updated,
        inc.manager(1).knowledge()[1].inference.energy,
        "the fleet profile tracks the reprofiled knowledge"
    );
    // An out-of-range reprofile is rejected at the mutation edge.
    assert!(inc
        .manager_mut(0)
        .reprofile_level_energy(99, Joules(1.0))
        .is_err());
}

#[test]
fn arbitration_never_violates_any_members_envelope() {
    let net = models::default_perception_cnn(22).expect("model");
    let mut f = fleet(&net, Policy::Oracle, 3);
    let env = envelope();
    // Tight budget: roughly the deepest-pruned fleet's draw, so the
    // arbiter is constantly asking for deep levels.
    let dense: f64 = f.profiles().iter().map(|p| p.energy_per_level[0].0).sum();
    let r = f.run(&scenario(8), Some(Joules(dense * 0.3))).unwrap();
    for tick in &r.ticks {
        for m in &tick.members {
            let allowed = env.max_level(m.record.true_risk);
            assert!(
                m.cap <= allowed,
                "t={}: arbitrated cap {} above envelope allowance {}",
                tick.t,
                m.cap,
                allowed
            );
            assert!(
                m.level <= allowed,
                "t={}: effective level {} above envelope allowance {}",
                tick.t,
                m.level,
                allowed
            );
        }
    }
    assert_eq!(r.violations(), 0, "oracle fleet under arbitration stays safe");
}

#[test]
fn budget_floor_drives_members_the_policy_would_leave_dense() {
    let net = models::default_perception_cnn(23).expect("model");
    // NoPruning members never prune on their own; only the arbiter's
    // level floor can move the dial.
    let mut unlimited = fleet(&net, Policy::NoPruning, 3);
    let free = unlimited.run(&scenario(9), None).unwrap();
    for i in 0..3 {
        assert_eq!(free.mean_level(i), 0.0, "no budget pressure, no pruning");
    }
    let mut squeezed = fleet(&net, Policy::NoPruning, 3);
    let dense: f64 = squeezed
        .profiles()
        .iter()
        .map(|p| p.energy_per_level[0].0)
        .sum();
    let tight = squeezed.run(&scenario(9), Some(Joules(dense * 0.5))).unwrap();
    assert!(
        (0..3).any(|i| tight.mean_level(i) > 0.0),
        "a tight budget must push some member down the ladder"
    );
    assert!(
        tight.total_energy().0 < free.total_energy().0,
        "budget pressure must reduce realized fleet energy"
    );
}

#[test]
fn cloned_fleet_shares_base_weights_until_members_diverge() {
    let net = models::default_perception_cnn(24).expect("model");
    let dense_bytes: usize = net.param_storage().iter().map(|(_, b)| b).sum();

    // Shared-storage fleet: four members cloned from one trained model.
    let shared = fleet(&net, Policy::Oracle, 4);
    let s = shared.weight_storage_bytes();
    assert!(
        s.unique < (dense_bytes as f64 * 1.5) as usize,
        "shared fleet holds ~1x dense weights, got {} vs {}",
        s.unique,
        dense_bytes
    );
    // 4 members x (live + mirror + snapshot) all share one base copy.
    assert!(s.total > s.unique * 8, "naive footprint is many copies");

    // Copied fleet: every member detached onto private storage.
    let copied = FleetRuntime::new(
        (0..4)
            .map(|i| {
                let mut private = net.clone();
                private.unshare_params();
                (
                    format!("copy-{i}"),
                    member_manager(&private, Policy::Oracle, i as u64),
                    UTILITY.to_vec(),
                )
            })
            .collect(),
    )
    .expect("fleet builds");
    let c = copied.weight_storage_bytes();
    assert!(
        c.unique >= dense_bytes * 4,
        "copied fleet holds one full copy per member"
    );
    assert!(c.unique > s.unique * 3, "sharing must cut fleet memory");
}

#[test]
fn running_fleet_detaches_only_what_it_mutates() {
    let net = models::default_perception_cnn(25).expect("model");
    let mut f = fleet(&net, Policy::Oracle, 4);
    let before = f.weight_storage_bytes();
    let dense: f64 = f.profiles().iter().map(|p| p.energy_per_level[0].0).sum();
    f.run(&scenario(10), Some(Joules(dense * 0.5))).unwrap();
    let after = f.weight_storage_bytes();
    assert!(
        after.unique >= before.unique,
        "pruning can only detach storage, never re-share it"
    );
    assert!(
        after.unique < after.total,
        "mirror/snapshot sharing keeps the footprint under the naive sum"
    );
}

#[test]
fn fleet_records_are_internally_consistent() {
    let net = models::default_perception_cnn(26).expect("model");
    let mut f = fleet(&net, Policy::Oracle, 2);
    let sc = scenario(11);
    let r = f.run(&sc, Some(Joules(9.0))).unwrap();
    assert_eq!(r.names, vec!["member-0", "member-1"]);
    assert_eq!(r.ticks.len(), sc.ticks().len());
    for tick in &r.ticks {
        assert_eq!(tick.members.len(), 2);
        let sum: f64 = tick.members.iter().map(|m| m.energy.0).sum();
        assert!((tick.total_energy.0 - sum).abs() < 1e-9);
        let slack = tick.slack.expect("budgeted run has slack");
        assert!((slack - (9.0 - tick.total_energy.0)).abs() < 1e-9);
    }
    assert_eq!(
        r.violations(),
        (0..2).map(|i| r.member_violations(i)).sum::<usize>()
    );
    // The merged trace is time-ordered with member as the tiebreak.
    for pair in r.trace.windows(2) {
        assert!(
            pair[0].event.t < pair[1].event.t
                || (pair[0].event.t == pair[1].event.t
                    && pair[0].member <= pair[1].member)
        );
    }
    // Both members contributed stage events.
    assert!(r.trace.iter().any(|e| e.member == 0));
    assert!(r.trace.iter().any(|e| e.member == 1));
}

#[test]
fn rejects_empty_and_inconsistent_fleets() {
    assert!(FleetRuntime::new(Vec::new()).is_err());
    let net = models::default_perception_cnn(27).expect("model");
    // Utility profile length disagrees with the 4-level ladder.
    let bad = FleetRuntime::new(vec![(
        "bad".into(),
        member_manager(&net, Policy::Oracle, 0),
        vec![0.9, 0.8],
    )]);
    assert!(bad.is_err());
}
