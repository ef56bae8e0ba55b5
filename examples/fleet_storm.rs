//! A camera fleet rides out a fault storm while its energy budget
//! shrinks mid-drive: N runtimes cloned from one trained perception
//! CNN (dense weights shared copy-on-write) are stepped concurrently by
//! [`FleetRuntime`], which re-arbitrates the shared budget into
//! per-member level floors every tick. Forty seconds in, a severe fault
//! storm opens on every member while the budget ramps from 100% of the
//! dense draw down to 40% — safety envelopes hold the line, the budget
//! takes what's left.
//!
//! Run with:
//! ```sh
//! cargo run --release -p reprune --example fleet_storm -- \
//!     [--members N] [--workers N]
//! ```
//!
//! `--workers` caps the stepping threads (default: machine parallelism;
//! `1` forces serial stepping). Every tick is arbitrated by the fleet's
//! heap-ordered greedy planner, which serves a quiet tick (no risk band
//! moved, same budget) from its last plan. The example times every tick
//! and prints p50/p95 step *and* planner latency, the mean share of
//! members whose risk changed per tick, and the planner's cache hits.
//! It exits nonzero if the arbiter ever pushes a healthy member past its
//! envelope, and, with `--workers 4` or more on a host with at least 4
//! cores, if parallel stepping is more than 5% slower than a serial
//! rerun — the threads must never cost more than they save.

use std::time::Instant;

use reprune::nn::models;
use reprune::platform::Joules;
use reprune::prune::{LadderConfig, PruneCriterion};
use reprune::runtime::envelope::SafetyEnvelope;
use reprune::runtime::manager::{RuntimeManager, RuntimeManagerConfig};
use reprune::runtime::policy::{AdaptiveConfig, Policy};
use reprune::runtime::{
    storm_events, FaultDefense, FaultPlan, FleetRunResult, FleetRuntime, FleetTraceEvent,
    StormConfig,
};
use reprune::scenario::{Scenario, ScenarioConfig, SegmentKind};

const UTILITY: [f64; 4] = [0.95, 0.93, 0.88, 0.60];

struct Options {
    members: usize,
    workers: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        members: 4,
        workers: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut int_arg = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| panic!("{name} needs a positive integer"))
        };
        match arg.as_str() {
            "--members" => opts.members = int_arg("--members"),
            "--workers" => opts.workers = int_arg("--workers"),
            other => panic!("unknown argument: {other} (expected --members N / --workers N)"),
        }
    }
    opts
}

fn build_fleet(members: usize, workers: usize) -> Result<FleetRuntime, Box<dyn std::error::Error>> {
    let net = models::default_perception_cnn(9)?;
    let mut fleet = FleetRuntime::new(
        (0..members)
            .map(|i| {
                let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                    .criterion(PruneCriterion::ChannelL2)
                    .build(&net)?;
                let mgr = RuntimeManager::attach(
                    net.clone(),
                    ladder,
                    RuntimeManagerConfig::new(
                        Policy::adaptive(AdaptiveConfig::default()),
                        SafetyEnvelope::new(vec![0.6, 0.4, 0.2])?,
                    )
                    .defense(FaultDefense::FullChain)
                    .frame_seed(33 + i as u64),
                )?;
                Ok((format!("cam-{i}"), mgr, UTILITY.to_vec()))
            })
            .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?,
    )?;
    fleet.set_workers(workers);
    Ok(fleet)
}

/// Per-tick series collected by [`drive`]: whole-step latency and the
/// planning slice of each step, in seconds, and the fraction of members
/// whose risk changed.
struct TickTimings {
    steps: Vec<f64>,
    plans: Vec<f64>,
    risk_changes: Vec<f64>,
}

/// Drives the whole scenario tick by tick — the same flow as
/// `FleetRuntime::run_with`, opened up so every step can be timed.
/// Returns the run result plus the per-tick timing series.
fn drive(
    fleet: &mut FleetRuntime,
    scenario: &Scenario,
    dense: f64,
) -> Result<(FleetRunResult, TickTimings), Box<dyn std::error::Error>> {
    for i in 0..fleet.len() {
        let seed = fleet.manager(i).config().frame_seed;
        fleet
            .manager_mut(i)
            .set_fault_plan(Some(FaultPlan::from_scenario(scenario, seed)));
    }
    let dt = scenario.config().dt_s;
    let mut ticks = Vec::with_capacity(scenario.ticks().len());
    let mut timings = TickTimings {
        steps: Vec::with_capacity(scenario.ticks().len()),
        plans: Vec::with_capacity(scenario.ticks().len()),
        risk_changes: Vec::with_capacity(scenario.ticks().len()),
    };
    for tick in scenario.ticks() {
        // The budget schedule: full dense draw until the storm opens,
        // then a linear ramp down to 40% by t = 120 s (an overheating
        // pack, a failing DC bus — the fleet sheds load *during* the
        // storm).
        let frac = if tick.t < 40.0 {
            1.0
        } else if tick.t < 120.0 {
            1.0 - 0.6 * (tick.t - 40.0) / 80.0
        } else {
            0.4
        };
        let started = Instant::now();
        ticks.push(fleet.step_all(tick, dt, Some(Joules(dense * frac)))?);
        timings.steps.push(started.elapsed().as_secs_f64());
        timings.plans.push(fleet.last_plan_seconds());
        timings
            .risk_changes
            .push(fleet.planner_stats().dirty_occupancy());
    }
    let mut trace = Vec::new();
    for member in 0..fleet.len() {
        trace.extend(
            fleet
                .manager_mut(member)
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
    let names = fleet.profiles().iter().map(|p| p.name.clone()).collect();
    Ok((FleetRunResult { names, ticks, trace }, timings))
}

/// `q`-th percentile (0..=100) of a latency series, in microseconds.
fn percentile_us(latencies: &[f64], q: usize) -> f64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = (sorted.len().saturating_sub(1) * q) / 100;
    sorted[idx] * 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args();
    let scenario = ScenarioConfig::new()
        .duration_s(180.0)
        .seed(33)
        .start_segment(SegmentKind::Highway)
        .generate();
    // The storm opens 40 s in and rages for 100 s — every member gets
    // its own fault campaign drawn from this schedule.
    let storm = storm_events(&StormConfig::severe(40.0, 140.0), 33);
    println!(
        "highway drive, 180 s, {}-camera fleet ({} worker(s)); {} faults over [40 s, 140 s)",
        opts.members,
        opts.workers,
        storm.len()
    );
    let scenario = scenario.with_faults(storm);

    let mut fleet = build_fleet(opts.members, opts.workers)?;

    // N members, each carrying live weights + a mirror + a snapshot —
    // yet one shared base copy until a member actually mutates a tensor.
    let storage = fleet.weight_storage_bytes();
    println!(
        "weight storage at launch: {:.1} KiB unique of {:.1} KiB naive ({:.1}x saved)\n",
        storage.unique as f64 / 1024.0,
        storage.total as f64 / 1024.0,
        storage.total as f64 / storage.unique as f64
    );

    let dense: f64 = fleet
        .profiles()
        .iter()
        .map(|p| p.energy_per_level[0].0)
        .sum();
    let (r, timings) = drive(&mut fleet, &scenario, dense)?;

    // Fleet timeline: budget vs realized draw, sampled every 20 s.
    println!("fleet timeline (budget -> realized, mean level across members):");
    let mut next_sample = 0.0;
    for tick in &r.ticks {
        if tick.t + 1e-9 >= next_sample {
            let mean_level: f64 = tick.members.iter().map(|m| m.level as f64).sum::<f64>()
                / tick.members.len() as f64;
            println!(
                "  t={:6.1} s  budget {:6.2} mJ -> drew {:6.2} mJ  mean level {:.2}{}",
                tick.t,
                tick.budget.map_or(f64::NAN, |b| b.as_millijoules()),
                tick.total_energy.as_millijoules(),
                mean_level,
                if tick.plan.feasible { "" } else { "  [infeasible]" }
            );
            next_sample += 20.0;
        }
    }

    println!("\nper-member summary:");
    for (i, name) in r.names.iter().enumerate() {
        let mean_level = r.mean_level(i);
        let degraded = r
            .ticks
            .iter()
            .filter(|t| {
                t.members[i].record.op_state != reprune::runtime::OperatingState::Normal
            })
            .count();
        println!(
            "  {name}: mean level {mean_level:.2}, violations {}, degraded ticks {degraded}",
            r.member_violations(i)
        );
    }

    let after = fleet.weight_storage_bytes();
    println!("\ncampaign summary:");
    println!("  ticks                  {}", r.ticks.len());
    println!("  fleet violations       {}", r.violations());
    println!("  infeasible ticks       {}", r.infeasible_ticks());
    println!(
        "  total energy           {:.1} J (dense-everywhere would be {:.1} J)",
        r.total_energy().0,
        dense * r.ticks.len() as f64
    );
    println!("  mean fleet utility     {:.3}", r.mean_utility());
    println!(
        "  weight storage now     {:.1} KiB unique (was {:.1} KiB — pruning detached copies)",
        after.unique as f64 / 1024.0,
        storage.unique as f64 / 1024.0
    );
    println!("  merged trace events    {}", r.trace.len());
    let p50 = percentile_us(&timings.steps, 50);
    let p95 = percentile_us(&timings.steps, 95);
    println!("  step latency           p50 {p50:.0} us, p95 {p95:.0} us (pool size {})", fleet.pool_size());
    let plan_p50 = percentile_us(&timings.plans, 50);
    let plan_p95 = percentile_us(&timings.plans, 95);
    println!("  planner time           p50 {plan_p50:.0} us, p95 {plan_p95:.0} us");
    let stats = fleet.planner_stats();
    let mean_changes: f64 =
        timings.risk_changes.iter().sum::<f64>() / timings.risk_changes.len().max(1) as f64;
    println!(
        "  risk changes           mean {:.1}% of members per tick \
         (planner cache hits {}/{})",
        mean_changes * 100.0,
        stats.cache_hits,
        stats.plans
    );

    // Every violation on record is a fault-era integrity flag (degraded /
    // minimal-risk ticks while the defense chain heals) — never the
    // arbiter pushing a healthy member past its envelope.
    for tick in &r.ticks {
        for m in &tick.members {
            assert!(
                !(m.violation
                    && m.record.op_state == reprune::runtime::OperatingState::Normal),
                "t={}: a healthy member was pushed past its envelope",
                tick.t
            );
        }
    }
    println!("\nthe budget squeeze and the storm overlapped for 80 s, and the");
    println!("arbiter still never asked a *healthy* camera for more pruning than");
    println!("its safety envelope allows — every flagged tick above came from the");
    println!("fault storm itself, announced while the defense chain healed it.");

    // Performance verdict: at 4+ workers on a multi-core host, parallel
    // stepping must not lose more than 5% to a serial rerun of the
    // identical campaign.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if opts.workers >= 4 && cores >= 4 {
        let mut serial = build_fleet(opts.members, 1)?;
        let (serial_r, serial_t) = drive(&mut serial, &scenario, dense)?;
        assert_eq!(
            r.ticks, serial_r.ticks,
            "parallel run must match serial run"
        );
        let serial_p50 = percentile_us(&serial_t.steps, 50);
        println!(
            "\nparallel vs serial p50: {p50:.0} us vs {serial_p50:.0} us ({:.2}x)",
            serial_p50 / p50
        );
        if p50 > serial_p50 * 1.05 {
            eprintln!(
                "FAIL: parallel stepping ({} workers) is >5% slower than serial \
                 (p50 {p50:.0} us vs {serial_p50:.0} us)",
                opts.workers
            );
            std::process::exit(1);
        }
    } else if opts.workers >= 4 {
        println!("\n(parallel-vs-serial verdict skipped: only {cores} core(s) available)");
    }
    Ok(())
}
