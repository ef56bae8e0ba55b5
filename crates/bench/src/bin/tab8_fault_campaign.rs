//! Experiment T8 (extension) — fault-injection campaign: what each layer
//! of the defense buys.
//!
//! A seeded fault storm (reversal-log and live-weight bit-flips, storage
//! outages and bandwidth collapses, sensor/confidence dropouts, Execute
//! overruns) is replayed against the same urban drive under three
//! defense configurations plus the never-pruned reference:
//!
//! * **no-pruning** — full capacity throughout; shows the violation rate
//!   a defense must match to be called safe,
//! * **no-defense** — pruning enabled, every check disabled: corrupted
//!   restores reach the live weights silently,
//! * **checksum-only** — corruption is detected and refused, but cannot
//!   be repaired: the system parks in minimal-risk and bleeds violations,
//! * **full-chain** — scrub + shadow repair + snapshot + storage-reload
//!   fallback: faults are absorbed and the drive completes cleanly.
//!
//! The seed × defense grid is fanned out with
//! `reprune_bench::run_sharded`; each campaign run is a pure function of
//! its (seed, defense) cell, so the merged table — and the bit-exact
//! replay check at the end — are identical to a serial sweep.
//!
//! Run with: `cargo run --release -p reprune-bench --bin tab8_fault_campaign`
//!
//! Flags:
//!
//! * `--trace PATH` — dump the full-chain run's stage-event trace for
//!   the first seed as JSON-lines to `PATH`, after self-checking that
//!   the `fault-detected` event count equals the run's detection
//!   counter and that the bounded ring dropped nothing.
//! * `--quick` — one seed and a short drive under a severe storm; skips
//!   the shape checks and the replay (CI smoke-test mode). Default
//!   output is unchanged.
//! * `--recovery-dir DIR` — run *only* the crash-recovery arm: a
//!   full-chain drive with the reversal-log spill persisted to
//!   `DIR/spill.log`, the stage trace dumped to `DIR/trace.jsonl` and
//!   the final cumulative counters to `DIR/counters.txt`. Combine with:
//!   * `--pace-ms N` — sleep `N` ms per tick so an external `kill -9`
//!     can land mid-drive (the CI kill-and-resume smoke test),
//!   * `--resume` — instead of starting fresh, recover from
//!     `DIR/spill.log` and replay the remaining ticks; the trace file
//!     then holds only the resumed tail, byte-comparable against the
//!     same-seq suffix of an uninterrupted run's `trace.jsonl`,
//!   * `--fine-tune` — drive a per-level fine-tuned ladder (DESIGN.md
//!     §17) instead of the shared-weight one, so the spilled log
//!     carries tune-hop segments and its base record the tune hops;
//!     recovery attaches from the recorded hops without training and
//!     must still be byte-identical.

use reprune::platform::DurableLog;
use reprune::prune::{FineTuneSpec, LadderConfig, PruneCriterion, SparsityLadder};
use reprune::runtime::manager::{FineTuneData, RuntimeManager, RuntimeManagerConfig};
use reprune::runtime::policy::{AdaptiveConfig, Policy};
use reprune::runtime::record::RunResult;
use reprune::runtime::{storm_events, FaultDefense, FaultPlan, SpillConfig, StormConfig};
use reprune::scenario::{Scenario, ScenarioConfig, SegmentKind};
use reprune_bench::{
    print_row, print_rule, run_sharded, standard_envelope, standard_ladder, trained_perception,
};
use reprune::nn::Network;

const CAMPAIGN_SEEDS: [u64; 2] = [80, 81];
const DRIVE_S: f64 = 300.0;
const QUICK_DRIVE_S: f64 = 60.0;

fn campaign(seed: u64, drive_s: f64, quick: bool) -> Scenario {
    let scenario = ScenarioConfig::new()
        .duration_s(drive_s)
        .seed(seed)
        .start_segment(SegmentKind::Urban)
        .generate();
    // Quick mode compresses the drive; a mild storm rarely lands a fault
    // in so short a window, so it uses the severe profile to keep the
    // detection path (and the trace self-check) exercised.
    let storm = if quick {
        storm_events(&StormConfig::severe(10.0, drive_s - 10.0), seed)
    } else {
        storm_events(&StormConfig::mild(20.0, drive_s - 20.0), seed)
    };
    scenario.with_faults(storm)
}

/// Dumps a run's trace as JSON-lines after self-checking the
/// detection-counting invariant the trace is supposed to uphold.
fn dump_trace(r: &RunResult, path: &str) {
    assert_eq!(
        r.trace_event_count("fault-detected"),
        r.faults_detected,
        "trace fault-detected events must equal the detection counter"
    );
    assert_eq!(r.trace_dropped, 0, "campaign trace must fit the ring");
    std::fs::write(path, r.trace_json_lines()).expect("write trace");
    println!(
        "\nwrote {} trace events ({} detections) to {path}",
        r.trace.len(),
        r.faults_detected
    );
}

fn run(net: &Network, scenario: &Scenario, policy: Policy, defense: FaultDefense) -> RunResult {
    let mut mgr = RuntimeManager::attach(
        net.clone(),
        standard_ladder(net),
        RuntimeManagerConfig::new(policy, standard_envelope())
            .defense(defense)
            .frame_seed(8),
    )
    .expect("attach");
    mgr.run(scenario).expect("run")
}

/// Crash-invariant cumulative counters: a killed-and-resumed run must
/// reproduce these byte-for-byte versus an uninterrupted one.
fn counters(mgr: &RuntimeManager) -> String {
    let k = mgr.knowledge_state();
    format!(
        "transitions={}\nfaults_injected={}\nfaults_detected={}\nfaults_repaired={}\n\
         recoveries={:?}\nsnapshot_flips={}\nlevel={}\nop_state={:?}\nticks_done={}\n",
        k.transitions,
        k.faults_injected,
        k.faults_detected,
        k.faults_repaired,
        k.fault_recoveries,
        k.snapshot_flips,
        mgr.current_level(),
        k.op_state,
        mgr.ticks_done(),
    )
}

/// The kill-and-resume arm (`--recovery-dir`): one full-chain drive with
/// the spill persisted on disk, either started fresh (optionally paced
/// so a SIGKILL can interrupt it) or resumed from the surviving device.
fn recovery_arm(dir: &str, resume: bool, pace_ms: u64, quick: bool, fine_tune: bool) {
    std::fs::create_dir_all(dir).expect("create recovery dir");
    let log_path = format!("{dir}/spill.log");
    let drive_s = if quick { QUICK_DRIVE_S } else { DRIVE_S };
    let seed = CAMPAIGN_SEEDS[0];
    let scenario = campaign(seed, drive_s, quick);
    let (net, _) = trained_perception(80);
    // Same rungs either way; the fine-tuned variant briefly tunes each
    // level at attach and spills tune-hop segments, and recovery reads
    // the tune hops back from the base record instead of tuning again.
    let ladder = |net: &Network| -> SparsityLadder {
        if fine_tune {
            LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                .criterion(PruneCriterion::ChannelL2)
                .fine_tune(FineTuneSpec { steps: 5, lr: 0.01, seed: 80 })
                .build(net)
                .expect("fine-tuned ladder builds")
        } else {
            standard_ladder(net)
        }
    };
    let config = || {
        RuntimeManagerConfig::new(
            Policy::adaptive(AdaptiveConfig::default()),
            standard_envelope(),
        )
        .defense(FaultDefense::FullChain)
        .frame_seed(8)
        .trace_capacity(1 << 15)
        .fine_tune_data(FineTuneData { samples: 48, seed: 80 })
        .spill(SpillConfig::new().path(&log_path))
    };
    let dt = scenario.config().dt_s;

    let mut mgr = if resume {
        let log = DurableLog::open(&log_path).expect("open spill device");
        let (mgr, report) = RuntimeManager::recover(net.clone(), ladder(&net), config(), log)
            .expect("recover from spill device");
        println!(
            "recovery: resumed={} resume_tick={} marks_seen={} records_scanned={} \
             bytes_discarded={} log_patches={} weight_patches={}",
            report.resumed,
            report.resume_tick,
            report.marks_seen,
            report.records_scanned,
            report.bytes_discarded,
            report.log_patches_applied,
            report.weight_patches_applied,
        );
        mgr
    } else {
        RuntimeManager::attach(net.clone(), ladder(&net), config()).expect("attach")
    };

    // Step manually (mirroring `run_from`'s campaign install) so pacing
    // can stretch the drive for an external `kill -9`.
    mgr.set_fault_plan(Some(FaultPlan::from_scenario(&scenario, 8)));
    let start = mgr.resume_tick();
    for tick in &scenario.ticks()[start..] {
        mgr.step(tick, dt).expect("step");
        if pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(pace_ms));
        }
    }

    let events = mgr.drain_trace();
    let mut trace = String::new();
    for ev in &events {
        trace.push_str(&ev.to_json_line());
        trace.push('\n');
    }
    std::fs::write(format!("{dir}/trace.jsonl"), trace).expect("write trace");
    std::fs::write(format!("{dir}/counters.txt"), counters(&mgr)).expect("write counters");
    let stats = mgr.spill_stats().expect("spill enabled");
    println!(
        "recovery arm done: start_tick={start} ticks_done={} trace_events={} \
         spill[segments={} marks={} bytes={} torn_repaired={} tail_truncations={} stalled={}]",
        mgr.ticks_done(),
        events.len(),
        stats.segments_spilled,
        stats.marks_written,
        stats.bytes_appended,
        stats.torn_writes_repaired,
        stats.tail_truncations,
        stats.stalled_ticks,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{name} needs a value")).clone())
    };
    if let Some(dir) = flag_val("--recovery-dir") {
        let resume = args.iter().any(|a| a == "--resume");
        let pace_ms = flag_val("--pace-ms").map_or(0, |v| v.parse().expect("--pace-ms N"));
        let fine_tune = args.iter().any(|a| a == "--fine-tune");
        recovery_arm(&dir, resume, pace_ms, quick, fine_tune);
        return;
    }
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a path").clone());
    let seeds: &[u64] = if quick { &CAMPAIGN_SEEDS[..1] } else { &CAMPAIGN_SEEDS };
    let drive_s = if quick { QUICK_DRIVE_S } else { DRIVE_S };

    let (net, _) = trained_perception(80);
    println!(
        "T8 (extension): fault campaign, {} urban drives of {drive_s} s under a mild storm\n",
        seeds.len()
    );
    let widths = [6, 14, 9, 7, 8, 8, 9, 8, 8, 6];
    print_row(
        &[
            "seed".into(),
            "defense".into(),
            "injected".into(),
            "det %".into(),
            "repair".into(),
            "MTTR s".into(),
            "ddl miss".into(),
            "silent".into(),
            "corrupt".into(),
            "viol".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let adaptive = || Policy::adaptive(AdaptiveConfig::default());
    let mut totals: std::collections::BTreeMap<&str, (usize, usize, usize, usize)> =
        std::collections::BTreeMap::new();
    let mut full_chain_runs = Vec::new();

    // Every (seed, defense) cell is independent: fan the whole campaign
    // out at once and regroup by seed below.
    type DefenseRow = (&'static str, fn() -> Policy, FaultDefense);
    let defenses: [DefenseRow; 4] = [
        ("no-pruning", || Policy::NoPruning, FaultDefense::FullChain),
        ("no-defense", || Policy::adaptive(AdaptiveConfig::default()), FaultDefense::None),
        (
            "checksum-only",
            || Policy::adaptive(AdaptiveConfig::default()),
            FaultDefense::ChecksumOnly,
        ),
        (
            "full-chain",
            || Policy::adaptive(AdaptiveConfig::default()),
            FaultDefense::FullChain,
        ),
    ];
    let cells: Vec<(u64, usize)> = seeds
        .iter()
        .flat_map(|&seed| (0..defenses.len()).map(move |d| (seed, d)))
        .collect();
    let mut results = run_sharded(cells.len(), |i| {
        let (seed, d) = cells[i];
        let (_, make_policy, defense) = defenses[d];
        run(&net, &campaign(seed, drive_s, quick), make_policy(), defense)
    })
    .into_iter();

    for &seed in seeds {
        let rows: Vec<(&str, RunResult)> = defenses
            .iter()
            .map(|(name, _, _)| (*name, results.next().expect("one result per cell")))
            .collect();
        for (name, r) in &rows {
            print_row(
                &[
                    format!("{seed}"),
                    name.to_string(),
                    format!("{}", r.faults_injected),
                    r.detection_rate()
                        .map_or("-".into(), |d| format!("{:.0}", 100.0 * d)),
                    format!("{}", r.faults_repaired),
                    r.mean_time_to_recover()
                        .map_or("-".into(), |m| format!("{m:.2}")),
                    format!("{}", r.deadline_miss_ticks()),
                    format!("{}", r.silent_corruption_ticks()),
                    format!("{}", r.corrupt_inference_ticks()),
                    format!("{}", r.violations),
                ],
                &widths,
            );
            let t = totals.entry(match *name {
                "no-pruning" => "no-pruning",
                "no-defense" => "no-defense",
                "checksum-only" => "checksum-only",
                _ => "full-chain",
            });
            let e = t.or_insert((0, 0, 0, 0));
            e.0 += r.faults_injected;
            e.1 += r.faults_detected;
            e.2 += r.silent_corruption_ticks();
            e.3 += r.violations;
        }
        print_rule(&widths);
        full_chain_runs.push(rows.into_iter().next_back().unwrap().1);
    }

    if let Some(path) = &trace_path {
        dump_trace(&full_chain_runs[0], path);
    }
    if quick {
        println!("\nquick mode: shape checks and replay skipped.");
        return;
    }

    // Shape checks — the claims the table exists to make.
    let g = |n: &str| totals[n];
    let ticks = (seeds.len() as f64) * drive_s * 10.0;

    // 1. Without a defense, corruption reaches the live weights and nobody
    //    notices: zero detections, non-zero silent-corruption inferences.
    assert_eq!(g("no-defense").1, 0, "no-defense must detect nothing");
    assert!(
        g("no-defense").2 > 0,
        "no-defense must serve silently corrupted inferences"
    );

    // 2. Any armed defense eliminates *silent* corruption entirely.
    assert_eq!(g("checksum-only").2, 0);
    assert_eq!(g("full-chain").2, 0);

    // 3. Detection alone is not enough: with no repair path the system
    //    parks in minimal risk and accrues strictly more violations than
    //    the full chain.
    assert!(g("checksum-only").1 > 0);
    assert!(
        g("checksum-only").3 > g("full-chain").3,
        "checksum-only {} must out-violate full-chain {}",
        g("checksum-only").3,
        g("full-chain").3
    );

    // 4. The headline: under the same storm, the full chain holds the
    //    violation rate down at the never-pruned reference level.
    let np_rate = g("no-pruning").3 as f64 / ticks;
    let fc_rate = g("full-chain").3 as f64 / ticks;
    assert!(
        (fc_rate - np_rate).abs() < 0.02,
        "full-chain violation rate {fc_rate:.4} must track no-pruning {np_rate:.4}"
    );

    // 5. Determinism: replaying the same seed reproduces the run bit-exactly.
    let replay = run(
        &net,
        &campaign(seeds[0], drive_s, quick),
        adaptive(),
        FaultDefense::FullChain,
    );
    assert_eq!(
        replay.records, full_chain_runs[0].records,
        "same seed must reproduce the same campaign"
    );

    println!("\nshape checks passed: no-defense is silently corrupt, armed defenses");
    println!("never are, and the full chain tracks the no-pruning violation rate.");
}
