//! Crash-recovery integration tests for the durable reversal-log spill.
//!
//! The contract under test (ISSUE PR 6): a manager killed mid-storm and
//! rebuilt from nothing but its spill device must resume the scenario
//! and produce a **byte-identical** tick-record and trace tail versus an
//! uninterrupted run, with identical final recovery counters. Torn
//! writes and truncated tails on the device must be detected via the
//! sealed record checksums and either repaired or cleanly truncated —
//! never panicked on.

use reprune_nn::{models, Network};
use reprune_platform::DurableLog;
use reprune_prune::{FineTuneSpec, LadderConfig, PruneCriterion, SparsityLadder};
use reprune_runtime::policy::AdaptiveConfig;
use reprune_runtime::trace::TraceEventKind;
use reprune_runtime::{
    plan_budget_prevalidated, storm_events, FaultDefense, FaultPlan, FineTuneData, FleetRuntime,
    Policy, RuntimeManager, RuntimeManagerConfig, SafetyEnvelope, SpillConfig, StormConfig,
};
use reprune_scenario::{Scenario, ScenarioConfig};

/// Scenario tick index at which the "crash" freezes the spill device:
/// t = 30 s, the middle of the 10–50 s fault storm.
const CRASH_AT: usize = 300;

fn model() -> Network {
    models::default_perception_cnn(1).expect("reference model builds")
}

fn ladder(net: &Network) -> SparsityLadder {
    LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(net)
        .expect("ladder builds")
}

/// Same rungs, but each level is briefly fine-tuned at attach and the
/// resulting weight deltas ride on the reversal log.
fn ft_ladder(net: &Network) -> SparsityLadder {
    LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .fine_tune(FineTuneSpec { steps: 2, lr: 0.01, seed: 9 })
        .build(net)
        .expect("fine-tuned ladder builds")
}

fn build_ladder(net: &Network, fine_tuned: bool) -> SparsityLadder {
    if fine_tuned {
        ft_ladder(net)
    } else {
        ladder(net)
    }
}

fn config() -> RuntimeManagerConfig {
    let envelope = SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).expect("envelope is valid");
    RuntimeManagerConfig::new(Policy::adaptive(AdaptiveConfig::default()), envelope)
        .defense(FaultDefense::FullChain)
        .frame_seed(5)
        // Large enough that no run here ever evicts a trace event —
        // byte-tail comparison needs the full suffix on both sides.
        .trace_capacity(1 << 15)
        .spill(SpillConfig::new())
        // Only consulted by the fine-tuned arm; ordinary ladders never
        // render the calibration set.
        .fine_tune_data(FineTuneData { samples: 24, seed: 7 })
}

fn storm_scenario(storm: StormConfig) -> Scenario {
    ScenarioConfig::new()
        .duration_s(60.0)
        .seed(21)
        .event_rate_scale(2.0)
        .generate()
        .with_faults(storm_events(&storm, 77))
}

fn attach(cfg: RuntimeManagerConfig, fine_tuned: bool) -> RuntimeManager {
    let net = model();
    let ladder = build_ladder(&net, fine_tuned);
    RuntimeManager::attach(net, ladder, cfg).expect("attach")
}

/// Runs the scenario to completion on one manager; the reference arm.
fn uninterrupted(scenario: &Scenario, fine_tuned: bool) -> (RuntimeManager, reprune_runtime::RunResult) {
    let mut mgr = attach(config(), fine_tuned);
    let result = mgr.run(scenario).expect("uninterrupted run");
    (mgr, result)
}

/// Steps a fresh manager to `crash_at`, then "kills" it: only the spill
/// device bytes survive.
fn crash_at(scenario: &Scenario, crash_at: usize, fine_tuned: bool) -> Vec<u8> {
    let mut mgr = attach(config(), fine_tuned);
    // Mirror `run_from`'s implicit campaign install so the crashed
    // prefix is byte-identical to the reference run's prefix.
    mgr.set_fault_plan(Some(FaultPlan::from_scenario(scenario, 5)));
    let dt = scenario.config().dt_s;
    for tick in &scenario.ticks()[..crash_at] {
        mgr.step(tick, dt).expect("pre-crash step");
    }
    mgr.spill_device_bytes().expect("spill enabled")
    // `mgr` dropped here: RAM state is gone, like a SIGKILL.
}

/// Rebuilds a manager from frozen device bytes and replays the rest of
/// the scenario.
fn recover_and_resume(
    scenario: &Scenario,
    device: Vec<u8>,
    fine_tuned: bool,
) -> (
    RuntimeManager,
    reprune_runtime::RecoveryReport,
    reprune_runtime::RunResult,
) {
    recover_and_resume_with(scenario, device, fine_tuned, config())
}

/// [`recover_and_resume`] under a recovery-side configuration.
fn recover_and_resume_with(
    scenario: &Scenario,
    device: Vec<u8>,
    fine_tuned: bool,
    cfg: RuntimeManagerConfig,
) -> (
    RuntimeManager,
    reprune_runtime::RecoveryReport,
    reprune_runtime::RunResult,
) {
    let net = model();
    let ladder = build_ladder(&net, fine_tuned);
    let (mut mgr, report) =
        RuntimeManager::recover(net, ladder, cfg, DurableLog::from_bytes(device)).expect("recover");
    let start = mgr.resume_tick();
    let tail = mgr.run_from(scenario, start).expect("resumed run");
    (mgr, report, tail)
}

/// Asserts the resumed run's records and trace are byte-identical to
/// the reference run's suffix, and that the two managers agree on every
/// cumulative recovery counter.
fn assert_tail_identical(
    full_mgr: &RuntimeManager,
    full: &reprune_runtime::RunResult,
    resumed_mgr: &RuntimeManager,
    tail: &reprune_runtime::RunResult,
    start: usize,
) {
    // Tick records: the resumed span must be the exact suffix.
    assert_eq!(tail.records.len(), full.records.len() - start);
    for (i, (got, want)) in tail.records.iter().zip(&full.records[start..]).enumerate() {
        assert_eq!(got, want, "tick record {} diverged after resume", start + i);
    }

    // Trace tail: every event from the resumed run, rendered as JSON
    // lines, must be byte-identical to the reference events with the
    // same sequence numbers.
    assert_eq!(full.trace_dropped, 0, "reference trace ring overflowed");
    assert_eq!(tail.trace_dropped, 0, "resumed trace ring overflowed");
    let first_seq = tail
        .trace
        .first()
        .expect("resumed storm span emits trace events")
        .seq;
    let want: Vec<String> = full
        .trace
        .iter()
        .filter(|e| e.seq >= first_seq)
        .map(|e| e.to_json_line())
        .collect();
    let got: Vec<String> = tail.trace.iter().map(|e| e.to_json_line()).collect();
    assert_eq!(got.len(), want.len(), "trace tail length diverged");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "trace tail line {i} diverged after resume");
    }

    // Final cumulative counters (MTTR samples, fault tallies, level).
    let (a, b) = (full_mgr.knowledge_state(), resumed_mgr.knowledge_state());
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.faults_detected, b.faults_detected);
    assert_eq!(a.faults_repaired, b.faults_repaired);
    assert_eq!(a.fault_recoveries, b.fault_recoveries, "MTTR samples diverged");
    assert_eq!(a.snapshot_flips, b.snapshot_flips);
    assert_eq!(a.op_state, b.op_state);
    assert_eq!(full_mgr.current_level(), resumed_mgr.current_level());
    assert_eq!(full_mgr.ticks_done(), resumed_mgr.ticks_done());
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let (full_mgr, full) = uninterrupted(&scenario, false);
    assert!(full_mgr.faults_injected() > 0, "storm must land faults");

    let device = crash_at(&scenario, CRASH_AT, false);
    let (resumed_mgr, report, tail) = recover_and_resume(&scenario, device, false);

    assert!(report.resumed, "a mid-storm device must hold a usable mark");
    assert!(report.marks_seen > 0);
    let start = resumed_mgr.resume_tick();
    assert!(
        start > 0 && start <= CRASH_AT,
        "resume tick {start} outside (0, {CRASH_AT}]"
    );
    assert_eq!(resumed_mgr.ticks_done() - tail.records.len(), start);

    assert_tail_identical(&full_mgr, &full, &resumed_mgr, &tail, start);
}

#[test]
fn fine_tuned_kill_and_resume_is_byte_identical() {
    // A fleet member whose ladder carries per-level fine-tune deltas:
    // the spill persists the fine-tune segments next to the eviction
    // segments and the tune hops in its base record, and recovery
    // attaches from those hops before reinstalling the log — so the
    // resumed tail must still be byte-identical to an uninterrupted run.
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let (full_mgr, full) = uninterrupted(&scenario, true);
    assert!(full_mgr.faults_injected() > 0, "storm must land faults");
    assert!(
        full.trace
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FineTuneAttached { .. })),
        "attach must record at least one fine-tuned level"
    );

    let device = crash_at(&scenario, CRASH_AT, true);
    let (resumed_mgr, report, tail) = recover_and_resume(&scenario, device, true);

    assert!(report.resumed, "a mid-storm device must hold a usable mark");
    let start = resumed_mgr.resume_tick();
    assert!(start > 0 && start <= CRASH_AT);
    assert_tail_identical(&full_mgr, &full, &resumed_mgr, &tail, start);
}

/// A recovery-side configuration whose calibration set is empty:
/// attach-time training rejects it, so only a recovery that never
/// trains can succeed with it.
fn untrainable_config() -> RuntimeManagerConfig {
    config().fine_tune_data(FineTuneData {
        samples: 0,
        seed: 7,
    })
}

#[test]
fn fine_tuned_recovery_does_not_train() {
    let net = model();
    let ladder = ft_ladder(&net);
    assert!(
        RuntimeManager::attach(net, ladder, untrainable_config()).is_err(),
        "an empty calibration set must make training fail"
    );
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let (full_mgr, full) = uninterrupted(&scenario, true);
    let device = crash_at(&scenario, CRASH_AT, true);
    let (resumed_mgr, report, tail) =
        recover_and_resume_with(&scenario, device, true, untrainable_config());
    assert!(report.resumed, "a mid-storm device must hold a usable mark");
    let start = resumed_mgr.resume_tick();
    assert!(start > 0 && start <= CRASH_AT);
    assert_tail_identical(&full_mgr, &full, &resumed_mgr, &tail, start);
}

#[test]
fn fine_tuned_crash_before_any_mark_restarts_like_a_plain_attach() {
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let (mut full_mgr, full) = uninterrupted(&scenario, true);
    // Killed before the first tick: the device holds only the base
    // record, so recovery starts at tick 0 on it — still without
    // training, from the recorded tune hops.
    let device = crash_at(&scenario, 0, true);
    let net = model();
    let ladder = ft_ladder(&net);
    let (mut mgr, report) = RuntimeManager::recover(
        net,
        ladder,
        untrainable_config(),
        DurableLog::from_bytes(device),
    )
    .expect("recover");
    assert!(!report.resumed);
    assert_eq!(mgr.resume_tick(), 0);
    let run = mgr.run(&scenario).expect("run after recovery");
    assert_eq!(run.records, full.records);
    assert_eq!(run.trace_json_lines(), full.trace_json_lines());
    assert_eq!(mgr.pruner_integrity(), full_mgr.pruner_integrity());
    assert_eq!(
        mgr.spill_device_bytes(),
        full_mgr.spill_device_bytes(),
        "the restarted device grew exactly as a first attach's did"
    );
}

#[test]
fn fine_tuned_base_without_tune_record_starts_fresh() {
    use reprune_prune::spill::{frame_record, scan, split_base};
    use reprune_prune::RecordKind;
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let (_, full) = uninterrupted(&scenario, true);
    let device = crash_at(&scenario, CRASH_AT, true);
    // Re-frame the base record as the bare weight image, the way a
    // device written before tune records holds it.
    let scanned = scan(&device);
    let base = &scanned.records[0];
    assert_eq!(base.kind, RecordKind::Base);
    let (image, tune_record) = split_base(&base.payload).expect("base record splits");
    assert!(
        !tune_record.is_empty(),
        "a fine-tuned base record carries its tune hops"
    );
    let mut old = frame_record(RecordKind::Base, image);
    old.extend_from_slice(&device[base.frame_len as usize..]);
    assert!(
        scan(&old).records.len() > 2,
        "the rest of the device is intact"
    );

    let net = model();
    let ladder = ft_ladder(&net);
    let (mut mgr, report) =
        RuntimeManager::recover(net, ladder, config(), DurableLog::from_bytes(old))
            .expect("a base record without tune hops must not error");
    assert!(
        !report.resumed,
        "an unusable base record must not be resumed from"
    );
    assert_eq!(mgr.resume_tick(), 0);
    // The reset device's new base record carries the tune hops again.
    let reset = mgr.spill_device_bytes().expect("spill enabled");
    let rebuilt = scan(&reset);
    let (_, tune_record) = split_base(&rebuilt.records[0].payload).expect("base record splits");
    assert!(!tune_record.is_empty());
    let run = mgr.run(&scenario).expect("fresh run");
    assert_eq!(run.records, full.records);
}

#[test]
fn torn_and_truncated_device_faults_are_survived() {
    // A storm that also tears spill appends and chops the device tail.
    let scenario = storm_scenario(
        StormConfig::severe(10.0, 50.0).with_spill_faults(0.5, 0.3),
    );

    let (full_mgr, full) = uninterrupted(&scenario, false);
    let stats = full_mgr.spill_stats().expect("spill enabled");
    assert!(
        stats.torn_writes_repaired > 0,
        "storm must tear at least one append: {stats:?}"
    );
    assert!(
        stats.tail_truncations > 0,
        "storm must chop the tail at least once: {stats:?}"
    );
    // The full run survives device sabotage without losing the drive.
    assert_eq!(full.records.len(), scenario.ticks().len());

    // And a crash in the middle of that sabotage still resumes exactly.
    let device = crash_at(&scenario, CRASH_AT, false);
    let (resumed_mgr, report, tail) = recover_and_resume(&scenario, device, false);
    assert!(report.resumed, "device with torn/chopped records must still recover");
    let start = resumed_mgr.resume_tick();
    assert!(start > 0 && start <= CRASH_AT);
    assert_tail_identical(&full_mgr, &full, &resumed_mgr, &tail, start);
}

#[test]
fn crash_before_any_mark_restarts_cleanly() {
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    // Freeze after a single tick: the device may hold the base record
    // and at most an unusable prefix of the first checkpoint.
    let device = crash_at(&scenario, 1, false);
    let net = model();
    let ladder = ladder(&net);
    let (mut mgr, report) =
        RuntimeManager::recover(net, ladder, config(), DurableLog::from_bytes(device))
            .expect("recover");
    let start = mgr.resume_tick();
    let tail = mgr.run_from(&scenario, start).expect("run after recovery");
    assert_eq!(tail.records.len(), scenario.ticks().len() - start);
    if !report.resumed {
        // Fresh start on the surviving device must equal a plain attach.
        assert_eq!(start, 0);
        let (_, full) = uninterrupted(&scenario, false);
        assert_eq!(tail.records, full.records);
    }
}

#[test]
fn garbage_or_empty_device_falls_back_to_fresh_start() {
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let (_, reference) = uninterrupted(&scenario, false);

    for device in [Vec::new(), vec![0xAB; 4096]] {
        let net = model();
        let ladder = ladder(&net);
        let (mut mgr, report) =
            RuntimeManager::recover(net, ladder, config(), DurableLog::from_bytes(device))
                .expect("garbage device must not error");
        assert!(!report.resumed);
        assert_eq!(mgr.resume_tick(), 0);
        // A fresh start after discarding garbage behaves exactly like a
        // first boot.
        let run = mgr.run(&scenario).expect("fresh run");
        assert_eq!(run.records, reference.records);
    }
}

/// Kills a fleet mid-storm, recovers every member from its device, and
/// asserts the resumed tail is byte-identical to an uninterrupted run
/// and that every resumed tick's plan equals the from-scratch oracle.
/// `budget_frac`, when set, caps the fleet at that fraction of its
/// dense draw so the arbiter keeps cutting through the storm.
fn fleet_crash_roundtrip(budget_frac: Option<f64>) {
    let scenario = storm_scenario(StormConfig::severe(10.0, 50.0));
    let utility = vec![0.95, 0.93, 0.88, 0.60];
    let members = |n: usize| -> FleetRuntime {
        FleetRuntime::new(
            (0..n)
                .map(|i| {
                    let net = model();
                    let ladder = ladder(&net);
                    let mgr = RuntimeManager::attach(net, ladder, config().frame_seed(5 + i as u64))
                        .expect("attach");
                    (format!("member-{i}"), mgr, utility.clone())
                })
                .collect(),
        )
        .expect("fleet builds")
    };

    let mut reference = members(2);
    let dense: f64 = reference
        .profiles()
        .iter()
        .map(|p| p.energy_per_level[0].0)
        .sum();
    let budget = budget_frac.map(|f| reprune_platform::Joules(dense * f));
    let full = reference.run(&scenario, budget).expect("uninterrupted fleet run");

    // Crash: drive a second fleet tick-by-tick to the cut point with
    // the exact arbitration `run_span` would apply, freeze each
    // member's device, drop the fleet.
    let mut crashed = members(2);
    let dt = scenario.config().dt_s;
    for m in 0..2 {
        crashed
            .manager_mut(m)
            .set_fault_plan(Some(FaultPlan::from_scenario(&scenario, 5 + m as u64)));
    }
    for tick in &scenario.ticks()[..CRASH_AT] {
        crashed.step_all(tick, dt, budget).expect("pre-crash fleet step");
    }
    let devices: Vec<Vec<u8>> = (0..2)
        .map(|m| crashed.manager_mut(m).spill_device_bytes().expect("spill"))
        .collect();
    drop(crashed);

    // Recover every member and resume from the common checkpoint tick.
    let mut recovered = Vec::new();
    let mut resume_ticks = Vec::new();
    for (i, device) in devices.into_iter().enumerate() {
        let net = model();
        let ladder = ladder(&net);
        let (mgr, report) = RuntimeManager::recover(
            net,
            ladder,
            config().frame_seed(5 + i as u64),
            DurableLog::from_bytes(device),
        )
        .expect("member recovers");
        assert!(report.resumed, "member {i} must resume from its device");
        resume_ticks.push(mgr.resume_tick());
        recovered.push((format!("member-{i}"), mgr, utility.clone()));
    }
    assert_eq!(
        resume_ticks[0], resume_ticks[1],
        "members checkpoint every committed tick, so resume ticks agree"
    );
    let start = resume_ticks[0];
    assert!(start > 0 && start <= CRASH_AT);

    // The planner holds no durable state: the recovered fleet's planner
    // starts cold and rebuilds its risk bands and plan cache purely from
    // the recovered Knowledge-derived profiles.
    let mut resumed = FleetRuntime::new(recovered).expect("recovered fleet builds");
    let tail = resumed
        .run_from(&scenario, budget, start)
        .expect("resumed fleet run");

    assert_eq!(tail.ticks.len(), full.ticks.len() - start);
    for (i, (got, want)) in tail.ticks.iter().zip(&full.ticks[start..]).enumerate() {
        assert_eq!(got, want, "fleet tick {} diverged after resume", start + i);
    }
    for (got, tick) in tail.ticks.iter().zip(&scenario.ticks()[start..]) {
        let oracle = plan_budget_prevalidated(resumed.profiles(), &[tick.risk; 2], budget)
            .expect("oracle plans");
        assert_eq!(
            got.plan, oracle,
            "resumed plan at t={} left the oracle",
            tick.t
        );
    }
    assert_eq!(
        resumed.planner_stats().plans,
        tail.ticks.len() as u64,
        "the resumed fleet planned every tick"
    );
}

#[test]
fn fleet_kill_and_resume_matches_uninterrupted_fleet() {
    fleet_crash_roundtrip(None);
}

#[test]
fn fleet_kill_and_resume_with_incremental_planner_is_byte_identical() {
    // A binding budget (70% of dense) keeps the arbiter cutting through
    // the storm, so the planner's risk bands and plan cache are live on
    // both sides of the crash.
    fleet_crash_roundtrip(Some(0.7));
}
