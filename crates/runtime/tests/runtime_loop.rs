//! End-to-end tests of the MAPE-K loop through the public API.
//!
//! These were the `RuntimeManager` unit tests before the pipeline
//! refactor; they intentionally use only exported types so that the
//! stage decomposition cannot silently change observable behavior.

use reprune_nn::{models, Network};
use reprune_prune::{LadderConfig, PruneCriterion, SparsityLadder};
use reprune_runtime::policy::AdaptiveConfig;
use reprune_runtime::{
    storm_events, FaultDefense, FaultPlan, OperatingState, Policy, RestoreMechanism,
    RuntimeManager, RuntimeManagerConfig, SafetyEnvelope, StormConfig,
};
use reprune_scenario::{FaultEvent, FaultKind, Scenario, ScenarioConfig, SegmentKind, Weather};

fn ladder_net() -> (Network, SparsityLadder) {
    let net = models::default_perception_cnn(1).unwrap();
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&net)
        .unwrap();
    (net, ladder)
}

fn env() -> SafetyEnvelope {
    SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).unwrap()
}

fn manager(policy: Policy, mech: RestoreMechanism) -> RuntimeManager {
    let (net, ladder) = ladder_net();
    RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(policy, env()).mechanism(mech),
    )
    .unwrap()
}

fn calm_scenario(seed: u64) -> Scenario {
    ScenarioConfig::new()
        .duration_s(30.0)
        .seed(seed)
        .start_segment(SegmentKind::Highway)
        .event_rate_scale(0.0)
        .fixed_weather(Weather::Clear)
        .generate()
}

#[test]
fn attach_validates_envelope_size() {
    let (net, ladder) = ladder_net();
    let bad_env = SafetyEnvelope::new(vec![0.5]).unwrap(); // 2 levels vs 4
    assert!(RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(Policy::NoPruning, bad_env)
    )
    .is_err());
}

#[test]
fn knowledge_costs_decrease_with_level() {
    let m = manager(Policy::NoPruning, RestoreMechanism::DeltaLog);
    let k = m.knowledge();
    assert_eq!(k.len(), 4);
    for pair in k.windows(2) {
        assert!(pair[1].inference.energy.0 < pair[0].inference.energy.0);
        assert!(pair[1].log_entries > pair[0].log_entries);
    }
    assert_eq!(k[0].log_entries, 0);
}

#[test]
fn fine_tuned_attach_charges_log_entries_and_traces_tuned_levels() {
    use reprune_prune::FineTuneSpec;
    use reprune_runtime::trace::TraceEventKind;
    use reprune_runtime::FineTuneData;

    let plain = manager(Policy::NoPruning, RestoreMechanism::DeltaLog);
    let net = models::default_perception_cnn(1).unwrap();
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .fine_tune(FineTuneSpec { steps: 2, lr: 0.01, seed: 3 })
        .build(&net)
        .unwrap();
    let tuned = RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(Policy::NoPruning, env())
            .fine_tune_data(FineTuneData { samples: 24, seed: 7 }),
    )
    .unwrap();

    // Attach hands the net back at full capacity, tuning deltas staged
    // for the walk; each tuned level is announced exactly once.
    assert_eq!(tuned.current_level(), 0);
    let announced: Vec<(usize, usize)> = tuned
        .trace()
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::FineTuneAttached { level, entries } => Some((level, entries)),
            _ => None,
        })
        .collect();
    assert!(!announced.is_empty(), "tuning must move at least one level's weights");
    assert!(announced.iter().all(|&(l, n)| l > 0 && n > 0));

    // The knowledge base charges the fine-tune deltas on top of the
    // evicted rows: strictly more standing entries than the plain
    // ladder at every announced level, identical at level 0.
    let (pk, tk) = (plain.knowledge(), tuned.knowledge());
    assert_eq!(tk[0].log_entries, 0);
    for &(level, _) in &announced {
        for k in level..tk.len() {
            assert!(
                tk[k].log_entries > pk[k].log_entries,
                "level {k} must charge fine-tune entries"
            );
        }
    }
}

#[test]
fn int8_rungs_profile_cheaper_than_their_f32_twins() {
    use reprune_nn::PrecisionMode;
    let levels = vec![0.0, 0.3, 0.6, 0.9];
    let build = |precisions: Option<Vec<PrecisionMode>>| {
        let net = models::default_perception_cnn(1).unwrap();
        let mut cfg = LadderConfig::new(levels.clone()).criterion(PruneCriterion::ChannelL2);
        if let Some(p) = precisions {
            cfg = cfg.precisions(p);
        }
        let ladder = cfg.build(&net).unwrap();
        RuntimeManager::attach(
            net,
            ladder,
            RuntimeManagerConfig::new(Policy::NoPruning, env()),
        )
        .unwrap()
    };
    let f32_only = build(None);
    let mixed = build(Some(vec![
        PrecisionMode::F32,
        PrecisionMode::F32,
        PrecisionMode::Int8,
        PrecisionMode::Int8,
    ]));
    let (kf, km) = (f32_only.knowledge(), mixed.knowledge());
    for k in 0..2 {
        // F32 levels delegate bit-identically to the old cost model.
        assert_eq!(kf[k].inference.energy.0.to_bits(), km[k].inference.energy.0.to_bits());
        assert_eq!(kf[k].inference.latency.0.to_bits(), km[k].inference.latency.0.to_bits());
    }
    for k in 2..4 {
        assert!(
            km[k].inference.energy.0 < kf[k].inference.energy.0,
            "level {k}: int8 energy {} must beat f32 {}",
            km[k].inference.energy.0,
            kf[k].inference.energy.0
        );
        assert!(km[k].inference.latency.0 <= kf[k].inference.latency.0);
    }
}

#[test]
fn no_pruning_never_violates_and_saves_nothing() {
    let mut m = manager(Policy::NoPruning, RestoreMechanism::DeltaLog);
    let r = m.run(&calm_scenario(1)).unwrap();
    assert_eq!(r.violations, 0);
    assert!(r.energy_saved_fraction().abs() < 1e-9);
    assert!(r.records.iter().all(|rec| rec.level == 0));
}

#[test]
fn adaptive_prunes_on_calm_highway() {
    let mut m = manager(
        Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.05,
            dwell_ticks: 5,
        }),
        RestoreMechanism::DeltaLog,
    );
    let r = m.run(&calm_scenario(2)).unwrap();
    // Highway clear risk = 0.10 → deepest level permitted is 3.
    assert!(r.mean_sparsity() > 0.3, "mean sparsity {}", r.mean_sparsity());
    assert!(r.energy_saved_fraction() > 0.2, "saved {}", r.energy_saved_fraction());
    assert!(r.transitions >= 3);
}

#[test]
fn static_aggressive_violates_in_urban_risk() {
    let mut m = manager(Policy::Static { level: 3 }, RestoreMechanism::DeltaLog);
    let busy = ScenarioConfig::new()
        .duration_s(60.0)
        .seed(3)
        .start_segment(SegmentKind::Intersection)
        .event_rate_scale(2.0)
        .generate();
    let r = m.run(&busy).unwrap();
    assert!(r.violations > 0, "static-aggressive must violate in traffic");
}

#[test]
fn static_policy_envelope_breaches_are_counted_per_tick() {
    // `Policy::Static` clamps only to the ladder depth, never to
    // `envelope.max_level(risk)`, so during risk spikes it sits above
    // the safe level *by design* (it is the paper's unsafe baseline).
    // The safety accounting must not let that slide: every such tick
    // must carry the violation flag, and the aggregate counter (tab3's
    // safety column) must equal the per-record count.
    let mut m = manager(Policy::Static { level: 3 }, RestoreMechanism::DeltaLog);
    let busy = ScenarioConfig::new()
        .duration_s(90.0)
        .seed(11)
        .start_segment(SegmentKind::Intersection)
        .event_rate_scale(2.5)
        .generate();
    let envelope = env();
    let r = m.run(&busy).unwrap();
    let mut breaches = 0usize;
    for rec in &r.records {
        // The record's allowance is the envelope at the tick's true risk.
        assert_eq!(rec.max_allowed_level, envelope.max_level(rec.true_risk));
        if rec.level > rec.max_allowed_level {
            breaches += 1;
            assert!(
                rec.violation,
                "t={}: level {} above allowed {} must be flagged",
                rec.t, rec.level, rec.max_allowed_level
            );
        }
    }
    assert!(breaches > 0, "risk spikes must catch the static baseline out");
    assert_eq!(
        r.violations, breaches,
        "aggregate counter must equal the per-tick breach count"
    );
}

#[test]
fn oracle_never_violates_with_delta_restore() {
    let mut m = manager(Policy::Oracle, RestoreMechanism::DeltaLog);
    let busy = ScenarioConfig::new()
        .duration_s(120.0)
        .seed(4)
        .event_rate_scale(2.0)
        .generate();
    let r = m.run(&busy).unwrap();
    assert_eq!(
        r.violations, 0,
        "oracle + instant restore is violation-free by construction"
    );
}

#[test]
fn reload_mechanism_delays_recovery() {
    // Same oracle policy; reload restoration takes >1 tick at
    // deployment scale, so demand spikes produce violation ticks.
    let busy = ScenarioConfig::new()
        .duration_s(300.0)
        .seed(5)
        .event_rate_scale(3.0)
        .generate();
    let mut fast = manager(Policy::Oracle, RestoreMechanism::DeltaLog);
    let mut slow = manager(Policy::Oracle, RestoreMechanism::StorageReload);
    let rf = fast.run(&busy).unwrap();
    let rs = slow.run(&busy).unwrap();
    assert!(
        rs.violations > rf.violations,
        "reload {} must out-violate delta {}",
        rs.violations,
        rf.violations
    );
}

#[test]
fn run_is_deterministic() {
    let s = calm_scenario(7);
    let run = |seed| {
        let (net, ladder) = ladder_net();
        let mut m = RuntimeManager::attach(
            net,
            ladder,
            RuntimeManagerConfig::new(
                Policy::adaptive(AdaptiveConfig::default()),
                env(),
            )
            .frame_seed(seed),
        )
        .unwrap();
        m.run(&s).unwrap()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).records, run(10).records);
}

#[test]
fn pending_restore_retargets_on_deeper_emergency() {
    // With the slow reload mechanism, a restore spans multiple ticks;
    // if a deeper emergency arrives mid-restore, the pending target
    // must drop further instead of being ignored.
    let mut m = manager(Policy::Oracle, RestoreMechanism::StorageReload);
    let mk = |t: f64, risk: f64| reprune_scenario::Tick {
        t,
        segment: SegmentKind::Highway,
        weather: Weather::Clear,
        risk,
        active_events: 0,
    };
    let dt = 0.1;
    // Calm: oracle walks to the deepest level immediately.
    for i in 0..3 {
        m.step(&mk(i as f64 * dt, 0.05), dt).unwrap();
    }
    assert_eq!(m.current_level(), 3);
    // Moderate risk demands level 1 → slow restore begins (200 ms).
    m.step(&mk(0.3, 0.45), dt).unwrap();
    assert_eq!(m.current_level(), 3, "restore still in flight");
    // Mid-restore the risk spikes to critical: pending target must
    // retarget to level 0.
    m.step(&mk(0.4, 0.9), dt).unwrap();
    // Let the (retargeted) restore complete.
    for i in 5..12 {
        m.step(&mk(i as f64 * dt, 0.9), dt).unwrap();
    }
    assert_eq!(
        m.current_level(),
        0,
        "the completed restore must honor the deeper emergency target"
    );
}

#[test]
fn odd_exit_forces_full_capacity() {
    // Night weather is outside the conservative ODD: even on a calm
    // highway the runtime must refuse to prune.
    let (net, ladder) = ladder_net();
    let mut m = RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(
            Policy::adaptive(AdaptiveConfig {
                hysteresis: 0.0,
                dwell_ticks: 1,
            }),
            env(),
        )
        .odd(reprune_scenario::OddSpec::conservative()),
    )
    .unwrap();
    let night = ScenarioConfig::new()
        .duration_s(30.0)
        .seed(13)
        .start_segment(SegmentKind::Highway)
        .event_rate_scale(0.0)
        .fixed_weather(Weather::Night)
        .generate();
    let r = m.run(&night).unwrap();
    assert_eq!(r.odd_exit_ticks(), r.records.len(), "whole drive is out of ODD");
    assert!(r.records.iter().all(|rec| rec.level == 0));
    assert_eq!(r.violations, 0, "full capacity outside the ODD is compliant");
    // Same drive in clear weather is inside the ODD and prunes freely.
    let clear = ScenarioConfig::new()
        .duration_s(30.0)
        .seed(13)
        .start_segment(SegmentKind::Highway)
        .event_rate_scale(0.0)
        .fixed_weather(Weather::Clear)
        .generate();
    let (net2, ladder2) = ladder_net();
    let mut m2 = RuntimeManager::attach(
        net2,
        ladder2,
        RuntimeManagerConfig::new(
            Policy::adaptive(AdaptiveConfig {
                hysteresis: 0.0,
                dwell_ticks: 1,
            }),
            env(),
        )
        .odd(reprune_scenario::OddSpec::conservative()),
    )
    .unwrap();
    let rc = m2.run(&clear).unwrap();
    assert_eq!(rc.odd_exit_ticks(), 0);
    assert!(rc.mean_sparsity() > 0.0, "inside the ODD pruning proceeds");
}

#[test]
fn sensor_blackout_restores_capacity() {
    // Unarmed, so no Degraded cap can force the restore: the
    // estimator's fail-safe reading during the window must.
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.05,
            dwell_ticks: 5,
        }),
        FaultDefense::None,
    );
    let calm = calm_scenario(11);
    let dt = calm.config().dt_s;
    let ticks = calm.ticks();
    // A scheduled blackout over ticks 150..180.
    m.set_fault_plan(Some(FaultPlan::new(
        vec![FaultEvent {
            start_s: ticks[150].t,
            kind: FaultKind::SensorBlackout {
                duration_s: 30.0 * dt,
            },
        }],
        11,
    )));
    // Let it prune on the calm highway.
    for tick in &ticks[..150] {
        m.step(tick, dt).unwrap();
    }
    assert!(m.current_level() > 0, "should have pruned when calm");
    // The fail-safe estimate must drive a restore within the window
    // even though the true risk stays low.
    for tick in &ticks[150..180] {
        m.step(tick, dt).unwrap();
    }
    assert_eq!(m.current_level(), 0, "blackout must restore full capacity");
    // Recovery: pruning resumes after the sensor returns.
    for tick in &ticks[180..300] {
        m.step(tick, dt).unwrap();
    }
    assert!(m.current_level() > 0, "pruning should resume after recovery");
}

fn busy_scenario(seed: u64) -> Scenario {
    ScenarioConfig::new()
        .duration_s(120.0)
        .seed(seed)
        .event_rate_scale(2.0)
        .generate()
}

fn log_flip_campaign() -> Vec<FaultEvent> {
    [10.0, 30.0, 50.0, 70.0, 90.0]
        .iter()
        .map(|&t| FaultEvent {
            start_s: t,
            kind: FaultKind::LogBitFlip { flips: 3 },
        })
        .collect()
}

fn fault_manager(policy: Policy, defense: FaultDefense) -> RuntimeManager {
    let (net, ladder) = ladder_net();
    RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(policy, env()).defense(defense),
    )
    .unwrap()
}

#[test]
fn full_chain_repairs_log_bitflips_with_zero_silent_corruption() {
    // The acceptance campaign: bit-flips land in the reversal log
    // while the oracle policy is actively pruning/restoring through
    // risk spikes. The full chain must detect, repair, and finish
    // the drive without ever serving corrupted weights.
    let s = busy_scenario(21).with_faults(log_flip_campaign());
    let mut m = fault_manager(Policy::Oracle, FaultDefense::FullChain);
    let r = m.run(&s).unwrap();
    assert!(r.faults_injected > 0, "campaign must land flips");
    assert!(r.faults_detected >= 1, "scrub/verify must notice");
    assert!(r.faults_repaired >= 1, "shadow repair must fire");
    assert_eq!(r.corrupt_inference_ticks(), 0, "no corrupt inference");
    assert_eq!(r.silent_corruption_ticks(), 0);
    assert_eq!(r.violations, 0, "oracle + full chain stays compliant");
}

#[test]
fn no_defense_serves_corruption_silently() {
    let s = busy_scenario(21).with_faults(log_flip_campaign());
    let mut m = fault_manager(Policy::Oracle, FaultDefense::None);
    let r = m.run(&s).unwrap();
    assert!(r.faults_injected > 0);
    assert_eq!(r.faults_detected, 0, "no checks, no detections");
    assert!(
        r.corrupt_inference_ticks() > 0,
        "corrupted deltas must reach the live weights"
    );
    assert_eq!(
        r.silent_corruption_ticks(),
        r.corrupt_inference_ticks(),
        "without a defense, every corrupt tick is silent"
    );
    assert!(r.records.iter().all(|rec| rec.op_state == OperatingState::Normal));
}

#[test]
fn checksum_only_detects_but_parks_in_minimal_risk() {
    let s = busy_scenario(21).with_faults(log_flip_campaign());
    let mut m = fault_manager(Policy::Oracle, FaultDefense::ChecksumOnly);
    let r = m.run(&s).unwrap();
    assert!(r.faults_detected >= 1, "verify-on-pop must notice");
    assert_eq!(r.faults_repaired, 0, "nothing to repair with");
    assert_eq!(
        r.corrupt_inference_ticks(),
        0,
        "detection alone still refuses corrupted restores"
    );
    assert!(
        r.minimal_risk_ticks() > 0,
        "unrepairable log must park the system in minimal risk"
    );
    assert!(
        r.violations > 0,
        "stuck pruned in minimal risk is flagged, not hidden"
    );
}

#[test]
fn weight_bitflips_trigger_snapshot_fallback() {
    let faults = vec![FaultEvent {
        start_s: 12.0,
        kind: FaultKind::WeightBitFlip { flips: 8 },
    }];
    let s = calm_scenario(3).with_faults(faults);
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.05,
            dwell_ticks: 5,
        }),
        FaultDefense::FullChain,
    );
    let r = m.run(&s).unwrap();
    assert!(r.faults_injected >= 1);
    assert!(r.faults_detected >= 1, "sealed checksum must notice");
    assert!(r.faults_repaired >= 1, "snapshot restore must resolve it");
    assert_eq!(r.silent_corruption_ticks(), 0);
    assert_eq!(
        m.op_state(),
        OperatingState::Normal,
        "system must recover to Normal"
    );
    assert!(r.mean_time_to_recover().is_some());
}

#[test]
fn snapshot_corruption_escalates_to_storage_reload_with_backoff() {
    // Storage goes dark, then a burst of RAM flips hits both the
    // live weights and the snapshot region: the snapshot hop fails
    // its integrity check and the chain must fall through to a
    // storage reload, retrying with backoff until the outage ends.
    let faults = vec![
        FaultEvent {
            start_s: 5.0,
            kind: FaultKind::StorageTransient { duration_s: 10.0 },
        },
        FaultEvent {
            start_s: 6.0,
            kind: FaultKind::WeightBitFlip { flips: 12 },
        },
    ];
    let s = ScenarioConfig::new()
        .duration_s(40.0)
        .seed(5)
        .start_segment(SegmentKind::Highway)
        .event_rate_scale(0.0)
        .fixed_weather(Weather::Clear)
        .generate()
        .with_faults(faults);
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.05,
            dwell_ticks: 5,
        }),
        FaultDefense::FullChain,
    );
    let r = m.run(&s).unwrap();
    assert!(r.faults_detected >= 2, "live + snapshot corruption noticed");
    assert!(
        r.minimal_risk_ticks() > 0,
        "waiting on storage must be minimal-risk, not business as usual"
    );
    assert!(
        r.corrupt_inference_ticks() > 0,
        "the wait is served on corrupt weights — but loudly"
    );
    assert_eq!(r.silent_corruption_ticks(), 0);
    assert_eq!(
        m.op_state(),
        OperatingState::Normal,
        "reload after the outage must fully recover the system"
    );
}

#[test]
fn fault_campaign_is_deterministic() {
    let storm = storm_events(&StormConfig::severe(10.0, 100.0), 77);
    let s = busy_scenario(9).with_faults(storm);
    let run = || {
        let mut m = fault_manager(
            Policy::adaptive(AdaptiveConfig::default()),
            FaultDefense::FullChain,
        );
        m.run(&s).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.records, b.records, "same seed, same campaign, same run");
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.faults_detected, b.faults_detected);
    assert_eq!(a.silent_corruption_ticks(), 0, "full chain never silent");
}

#[test]
fn scheduled_sensor_blackout_restores_capacity_and_degrades() {
    let faults = vec![FaultEvent {
        start_s: 15.0,
        kind: FaultKind::SensorBlackout { duration_s: 6.0 },
    }];
    let s = calm_scenario(11).with_faults(faults);
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.05,
            dwell_ticks: 5,
        }),
        FaultDefense::FullChain,
    );
    let r = m.run(&s).unwrap();
    let during: Vec<_> = r
        .records
        .iter()
        .filter(|rec| rec.t >= 15.0 && rec.t < 21.0)
        .collect();
    assert!(
        during.iter().any(|rec| rec.level == 0),
        "fail-safe estimate must force a restore during the blackout"
    );
    assert!(
        during.iter().all(|rec| rec.op_state == OperatingState::Degraded),
        "blackout window is a Degraded episode"
    );
    assert_eq!(m.op_state(), OperatingState::Normal, "recovers after window");
    assert!(
        r.records.last().unwrap().level > 0,
        "pruning resumes once the sensor returns"
    );
}

#[test]
fn exec_overrun_flags_deadline_misses() {
    let faults = vec![FaultEvent {
        start_s: 10.0,
        kind: FaultKind::ExecOverrun {
            extra_ms: 150.0,
            duration_s: 3.0,
        },
    }];
    let s = calm_scenario(4).with_faults(faults);
    let mut m = fault_manager(Policy::NoPruning, FaultDefense::FullChain);
    let r = m.run(&s).unwrap();
    let window = r
        .records
        .iter()
        .filter(|rec| rec.t >= 10.0 && rec.t < 13.0)
        .count();
    assert!(window > 0);
    assert!(
        r.deadline_miss_ticks() >= window,
        "a 150 ms overrun on a 100 ms period must miss every tick: {} < {window}",
        r.deadline_miss_ticks()
    );
    let clean = fault_manager(Policy::NoPruning, FaultDefense::FullChain)
        .run(&calm_scenario(4))
        .unwrap();
    assert_eq!(clean.deadline_miss_ticks(), 0, "no faults, no misses");
}

#[test]
fn confidence_dropout_raises_estimated_risk() {
    let faults = vec![FaultEvent {
        start_s: 15.0,
        kind: FaultKind::ConfidenceDropout { duration_s: 5.0 },
    }];
    let s = calm_scenario(8).with_faults(faults);
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.05,
            dwell_ticks: 5,
        }),
        FaultDefense::FullChain,
    );
    let r = m.run(&s).unwrap();
    let before: f64 = r
        .records
        .iter()
        .filter(|rec| rec.t >= 10.0 && rec.t < 15.0)
        .map(|rec| rec.estimated_risk)
        .sum::<f64>()
        / 50.0;
    let during: f64 = r
        .records
        .iter()
        .filter(|rec| rec.t >= 16.0 && rec.t < 20.0)
        .map(|rec| rec.estimated_risk)
        .sum::<f64>()
        / 40.0;
    assert!(
        during > before + 0.02,
        "worst-case confidence deficit must lift the estimate: {before} -> {during}"
    );
}

#[test]
fn trace_detection_events_match_counters() {
    // The detection invariant the tab8 --trace self-check relies on:
    // the trace records exactly one fault-detected event per counted
    // detection, and injections/repairs line up the same way.
    let storm = storm_events(&StormConfig::severe(10.0, 100.0), 77);
    let s = busy_scenario(9).with_faults(storm);
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig::default()),
        FaultDefense::FullChain,
    );
    let r = m.run(&s).unwrap();
    assert!(r.faults_detected > 0, "storm must produce detections");
    assert_eq!(r.trace_event_count("fault-detected"), r.faults_detected);
    assert_eq!(r.trace_event_count("fault-repaired"), r.faults_repaired);
    let injected: usize = r
        .trace
        .iter()
        .filter_map(|ev| match ev.kind {
            reprune_runtime::TraceEventKind::FaultInjected { landed, .. } => {
                Some(landed as usize)
            }
            _ => None,
        })
        .sum();
    assert_eq!(injected, r.faults_injected);
    assert_eq!(r.trace_dropped, 0, "default capacity must hold a storm run");
}

#[test]
fn trace_json_lines_are_well_formed() {
    let storm = storm_events(&StormConfig::severe(10.0, 60.0), 42);
    let s = calm_scenario(6).with_faults(storm);
    let mut m = fault_manager(
        Policy::adaptive(AdaptiveConfig::default()),
        FaultDefense::FullChain,
    );
    let r = m.run(&s).unwrap();
    assert!(!r.trace.is_empty());
    let dump = r.trace_json_lines();
    let mut last_seq = None;
    for line in dump.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        for key in ["\"seq\":", "\"t\":", "\"stage\":", "\"event\":"] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        let seq: u64 = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|num| num.trim().parse().ok())
            .expect("seq parses");
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq must be strictly increasing");
        }
        last_seq = Some(seq);
    }
}

#[test]
fn custom_planner_stage_is_swappable() {
    // The trait seams are real: a planner that always demands full
    // capacity pins the runtime at level 0 regardless of policy.
    struct FullCapacity;
    impl reprune_runtime::Plan for FullCapacity {
        fn plan(
            &mut self,
            _k: &reprune_runtime::Knowledge,
            _analysis: &reprune_runtime::Analysis,
            _current_level: usize,
            _tick: &reprune_scenario::Tick,
            _trace: &mut reprune_runtime::TickTrace,
        ) -> reprune_runtime::Directive {
            reprune_runtime::Directive {
                planned: 0,
                target: 0,
            }
        }

        fn policy_name(&self) -> String {
            "full-capacity".into()
        }
    }

    let mut m = manager(
        Policy::adaptive(AdaptiveConfig::default()),
        RestoreMechanism::DeltaLog,
    );
    m.set_planner(Box::new(FullCapacity));
    let r = m.run(&calm_scenario(2)).unwrap();
    assert_eq!(r.policy, "full-capacity");
    assert!(r.records.iter().all(|rec| rec.level == 0));
    assert!(r.energy_saved_fraction().abs() < 1e-9);
}

#[test]
fn mechanism_display() {
    assert_eq!(RestoreMechanism::DeltaLog.to_string(), "delta-log");
    assert_eq!(RestoreMechanism::Snapshot.to_string(), "snapshot");
    assert_eq!(RestoreMechanism::StorageReload.to_string(), "storage-reload");
}

/// Leaving an int8 rung pops its precision segment first, even when the
/// walk goes deeper. Parks an oracle-driven manager on the int8 rung of
/// a 4-level ladder, then steps a low-risk tick that asks for the
/// deepest level while log bit-flips land in the precision segment.
/// Returns the manager, the deepening tick's outcome, and the transition
/// and corruption-hit counts before it.
fn deepen_from_corrupt_int8_rung(
    defense: FaultDefense,
    analyzer: Option<Box<dyn reprune_runtime::Analyze>>,
) -> (
    RuntimeManager,
    reprune_runtime::Result<reprune_runtime::TickRecord>,
    usize,
    u64,
) {
    use reprune_nn::PrecisionMode::{Int8, F32};
    use reprune_runtime::FaultPlan;
    let tick = |t: f64, risk: f64| reprune_scenario::Tick {
        t,
        segment: SegmentKind::Highway,
        weather: Weather::Clear,
        risk,
        active_events: 0,
    };
    let dt = 0.1;
    let net = models::default_perception_cnn(1).unwrap();
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .precisions(vec![F32, Int8, F32, F32])
        .build(&net)
        .unwrap();
    let mut m = RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(Policy::Oracle, env()).defense(defense),
    )
    .unwrap();
    if let Some(analyzer) = analyzer {
        m.set_analyzer(analyzer);
    }
    // Moderate risk parks the oracle on the int8 rung.
    m.step(&tick(0.0, 0.45), dt).unwrap();
    assert_eq!(m.current_level(), 1);
    // Flip log bits, then ask for the deepest level in the same tick.
    m.set_fault_plan(Some(FaultPlan::new(
        vec![FaultEvent {
            start_s: dt,
            kind: FaultKind::LogBitFlip { flips: 4 },
        }],
        3,
    )));
    let transitions = m.transitions();
    let hits = m.pruner_integrity().corruption_hits;
    let rec = m.step(&tick(dt, 0.05), dt);
    (m, rec, transitions, hits)
}

#[test]
fn deepening_from_a_corrupt_int8_rung_takes_the_restore_chain() {
    // Checksum-only defense runs no scrub, so the deepening tick is the
    // first to touch the corrupt segment, and with no shadow copy to
    // repair from, the chain parks the system in minimal risk.
    let (m, rec, transitions, hits) =
        deepen_from_corrupt_int8_rung(FaultDefense::ChecksumOnly, None);
    let rec = rec.expect("a corrupt precision segment is a detected fault, not a step error");
    assert!(rec.fault_detected, "the corruption must be reported");
    assert!(!rec.corrupt_inference, "corrupt weights must not be served");
    assert_eq!(m.op_state(), OperatingState::MinimalRisk);
    assert_eq!(m.current_level(), 1, "an unrepairable log stays put");
    assert_eq!(m.transitions(), transitions, "no transition completed");
    assert_eq!(
        m.pruner_integrity().corruption_hits,
        hits + 1,
        "detected once"
    );
}

#[test]
fn deepening_from_a_corrupt_int8_rung_repairs_from_the_shadow() {
    // Full-chain defense with the background scrub switched off: the
    // deepening pop is again the first reader of the corrupt segment.
    // The chain repairs it from the shadow log and the walk completes,
    // counted as one transition.
    struct NoScrub(SafetyEnvelope);
    impl reprune_runtime::Analyze for NoScrub {
        fn verify_integrity(
            &mut self,
            _k: &mut reprune_runtime::Knowledge,
            _plant: &mut reprune_runtime::Plant,
            _chain: &reprune_runtime::RestoreChain,
            _tick: &reprune_scenario::Tick,
            _trace: &mut reprune_runtime::TickTrace,
        ) -> reprune_runtime::Result<()> {
            Ok(())
        }

        fn assess(
            &mut self,
            _k: &reprune_runtime::Knowledge,
            tick: &reprune_scenario::Tick,
            estimated_risk: f64,
        ) -> reprune_runtime::Analysis {
            reprune_runtime::Analysis {
                estimated_risk,
                inside_odd: true,
                max_allowed_level: self.0.max_level(tick.risk),
            }
        }
    }

    let (m, rec, transitions, hits) =
        deepen_from_corrupt_int8_rung(FaultDefense::FullChain, Some(Box::new(NoScrub(env()))));
    let rec = rec.expect("a corrupt precision segment is a detected fault, not a step error");
    assert!(rec.fault_detected, "the corruption must be reported");
    assert!(rec.fault_repaired, "the shadow log repairs it");
    assert!(!rec.corrupt_inference, "corrupt weights must not be served");
    assert_eq!(m.current_level(), 3, "the repaired walk completes");
    assert_eq!(m.transitions(), transitions + 1, "the deepen counts once");
    assert_eq!(
        m.pruner_integrity().corruption_hits,
        hits + 1,
        "detected once"
    );
}
