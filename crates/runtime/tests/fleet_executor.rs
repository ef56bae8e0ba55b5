//! End-to-end tests of the concurrent fleet executor: arbitration
//! safety and exactness, pooled-vs-serial equivalence, panic
//! propagation, and shared-weight accounting.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use reprune_nn::{models, Network};
use reprune_platform::Joules;
use reprune_prune::{LadderConfig, PruneCriterion, SparsityLadder};
use reprune_runtime::envelope::SafetyEnvelope;
use reprune_runtime::manager::{RuntimeManager, RuntimeManagerConfig};
use reprune_runtime::policy::Policy;
use reprune_runtime::{
    plan_budget_prevalidated, Directive, Execute, FleetRuntime, FleetTickRecord, Knowledge, Plant,
    RestoreChain, TickTrace,
};
use reprune_scenario::{Scenario, ScenarioConfig, Tick};

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

/// Steps `f` through `sc` with per-member risks spread around the
/// scenario's shared risk (so members sit in different bands) and a
/// budget shrinking from `dense` to 40% of it, checking every tick's
/// arbitration against the from-scratch oracle on the fleet's
/// profiles. At tick `nan_at`, a step with one NaN risk must be
/// rejected first.
fn step_against_oracle(
    f: &mut FleetRuntime,
    sc: &Scenario,
    dense: f64,
    nan_at: Option<usize>,
) -> Vec<FleetTickRecord> {
    let dt = sc.config().dt_s;
    let n = f.len();
    let n_ticks = sc.ticks().len();
    let mut ticks = Vec::new();
    for (k, tick) in sc.ticks().iter().enumerate() {
        let risks: Vec<f64> = (0..n).map(|i| tick.risk * (0.5 + 0.5 * i as f64)).collect();
        let budget = Some(Joules(dense * (1.0 - 0.6 * k as f64 / n_ticks as f64)));
        if nan_at == Some(k) {
            let mut bad = risks.clone();
            bad[n - 1] = f64::NAN;
            assert!(
                f.step_with_risks(tick, dt, &bad, budget).is_err(),
                "tick {k}: a NaN risk must be rejected"
            );
        }
        let rec = f.step_with_risks(tick, dt, &risks, budget).unwrap();
        let oracle = plan_budget_prevalidated(f.profiles(), &risks, budget).unwrap();
        assert_eq!(rec.plan, oracle, "tick {k}: the planner matches the oracle");
        ticks.push(rec);
    }
    ticks
}

fn dense_draw(f: &FleetRuntime) -> f64 {
    f.profiles().iter().map(|p| p.energy_per_level[0].0).sum()
}

/// The fleet's stateful planner, run live at one and four workers
/// under a shrinking budget, arbitrates every tick exactly as the
/// from-scratch oracle does, and a tick rejected for a NaN risk leaves
/// the next tick's plan exact too.
#[test]
fn incremental_planner_run_is_byte_identical_to_scratch() {
    let net = models::default_perception_cnn(21).expect("model");
    let sc = scenario(7);
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let mut f = fleet(&net, Policy::Oracle, 4);
        f.set_workers(workers);
        let dense = dense_draw(&f);
        let ticks = step_against_oracle(&mut f, &sc, dense, Some(5));
        assert_eq!(
            f.planner_stats().plans,
            sc.ticks().len() as u64,
            "{workers} workers: one plan per good tick"
        );
        assert!(
            f.last_plan_seconds() >= 0.0,
            "{workers} workers: plan timing is recorded"
        );
        runs.push(ticks);
    }
    assert_eq!(runs[0], runs[1], "worker count must not change any record");
}

/// An Execute stage whose every call panics.
struct PanickingExecutor;

const INJECTED: &str = "injected Execute failure";

impl Execute for PanickingExecutor {
    fn service_reload(
        &mut self,
        _: &mut Knowledge,
        _: &mut Plant,
        _: &RestoreChain,
        _: &Tick,
        _: &mut TickTrace,
    ) -> reprune_runtime::Result<()> {
        panic!("{INJECTED}")
    }

    fn service_restore(
        &mut self,
        _: &mut Knowledge,
        _: &mut Plant,
        _: &RestoreChain,
        _: &Tick,
        _: &mut TickTrace,
    ) -> reprune_runtime::Result<()> {
        panic!("{INJECTED}")
    }

    fn apply(
        &mut self,
        _: &mut Knowledge,
        _: &mut Plant,
        _: &RestoreChain,
        _: &Directive,
        _: &Tick,
        _: f64,
        _: &mut TickTrace,
    ) -> reprune_runtime::Result<()> {
        panic!("{INJECTED}")
    }
}

/// One member's Execute stage panics on every tick: `step_all` must
/// re-raise that panic on the calling thread rather than hang or lose
/// it, and every other member must still have completed the tick. The
/// 2-worker case repeats 200 times so the threads race through the
/// failure path in many interleavings.
#[test]
fn a_panicking_member_fails_the_step_on_the_calling_thread() {
    const MEMBERS: usize = 4;
    const BAD: usize = 1;
    let net = models::default_perception_cnn(28).expect("model");
    for (workers, rounds) in [(1usize, 1usize), (2, 200), (4, 1)] {
        let net = net.clone();
        let (done_tx, done_rx) = mpsc::channel();
        // The test body runs on its own thread so that a hang fails the
        // test instead of stalling it.
        let body = std::thread::spawn(move || {
            let sc = scenario(14);
            let dt = sc.config().dt_s;
            let mut f = fleet(&net, Policy::Oracle, MEMBERS);
            f.set_workers(workers);
            f.manager_mut(BAD).set_executor(Box::new(PanickingExecutor));
            for round in 0..rounds {
                let before: Vec<usize> = (0..MEMBERS).map(|i| f.manager(i).ticks_done()).collect();
                let tick = &sc.ticks()[round % sc.ticks().len()];
                let payload = catch_unwind(AssertUnwindSafe(|| f.step_all(tick, dt, None)))
                    .expect_err("the member's panic must propagate");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(INJECTED),
                    "{workers} workers, round {round}: the calling thread re-raises the member's own panic"
                );
                for (i, &was) in before.iter().enumerate() {
                    let want = if i == BAD { was } else { was + 1 };
                    assert_eq!(
                        f.manager(i).ticks_done(),
                        want,
                        "{workers} workers, round {round}: member {i} tick count"
                    );
                }
            }
            done_tx.send(()).expect("the test thread is waiting");
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(300)) {
            panic!("{workers} workers: step_all hung");
        }
        if let Err(failure) = body.join() {
            resume_unwind(failure);
        }
    }
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
    assert_eq!(
        r.violations(),
        0,
        "oracle fleet under arbitration stays safe"
    );
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
    let tight = squeezed
        .run(&scenario(9), Some(Joules(dense * 0.5)))
        .unwrap();
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
                || (pair[0].event.t == pair[1].event.t && pair[0].member <= pair[1].member)
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
