//! Experiment T6 — fleet-scale budget arbitration, live and planned.
//!
//! Two parts:
//!
//! 1. **Live executor** — a 4-camera perception fleet (four runtimes
//!    cloned from one trained CNN, sharing dense weights copy-on-write)
//!    driven through a scenario by `FleetRuntime`: every tick the shared
//!    budget is arbitrated into per-member level floors, injected into
//!    each member's Plan stage, and all members step concurrently. The
//!    table sweeps the budget and reports *realized* levels, energy,
//!    and utility — not just the planner's intent.
//! 2. **Heterogeneous planning** — the original static table: a
//!    perception CNN and a control MLP profiled offline (measured
//!    per-level energy + test-set accuracy) and planned under a budget
//!    sweep. (The MLP cannot run under the perception runtime, so this
//!    part stays a planning-only view.)
//!
//! Run with: `cargo run --release -p reprune-bench --bin tab6_fleet_budget`
//!
//! Flag: `--workers N` caps the threads the live fleet steps on
//! (default: machine parallelism; `1` forces serial stepping). Stepping
//! is byte-identical at every worker count, so the printed tables —
//! which CI diffs across worker counts — never change with the flag.

use reprune::nn::dataset::{BlobsDataset, SCENE_SIZE};
use reprune::nn::train::{train_classifier, TrainConfig};
use reprune::nn::{metrics, models, Network};
use reprune::platform::profile::NetworkProfile;
use reprune::platform::{Joules, SocModel};
use reprune::prune::{LadderConfig, PruneCriterion, ReversiblePruner, SparsityLadder};
use reprune::runtime::envelope::SafetyEnvelope;
use reprune::runtime::fleet::{plan_budget, FleetMember};
use reprune::runtime::FleetPlanner;
use reprune::runtime::manager::{RuntimeManager, RuntimeManagerConfig};
use reprune::runtime::policy::Policy;
use reprune::runtime::FleetRuntime;
use reprune::scenario::ScenarioConfig;
use reprune_bench::{print_row, print_rule, trained_perception};

const SCALE: f64 = 150.0;
const FLEET_SIZE: usize = 4;

/// Profiles a member: per-level platform energy + measured accuracy.
fn profile_member<E: reprune::nn::dataset::Example>(
    name: &str,
    net: &Network,
    ladder: &SparsityLadder,
    input_dims: &[usize],
    test: &[E],
    soc: &SocModel,
) -> FleetMember {
    let mut live = net.clone();
    let mut pruner = ReversiblePruner::attach(&live, ladder.clone()).expect("attach");
    let mut energy = Vec::new();
    let mut utility = Vec::new();
    for level in 0..ladder.num_levels() {
        pruner.set_level(&mut live, level).expect("walk");
        let masks = &ladder.level(level).expect("level").masks;
        let profile = NetworkProfile::of_masked(net, input_dims, Some(masks))
            .expect("profile")
            .scaled(SCALE);
        energy.push(soc.inference_cost(&profile).energy);
        utility.push(
            metrics::evaluate(&mut live, test)
                .expect("eval")
                .accuracy,
        );
    }
    pruner.set_level(&mut live, 0).expect("restore");
    // Guard the planner's monotonicity requirement: accuracy estimates on
    // a finite test set can wobble upward by a sample or two.
    for i in 1..utility.len() {
        utility[i] = utility[i].min(utility[i - 1]);
    }
    FleetMember {
        name: name.into(),
        envelope: SafetyEnvelope::evenly_spaced(ladder.num_levels(), 0.6).expect("envelope"),
        energy_per_level: energy,
        utility_per_level: utility,
    }
}

/// A fresh 4-camera fleet: four runtimes cloned from one trained CNN
/// (dense weights shared copy-on-write), distinct frame seeds. The
/// members run `NoPruning` locally, so the arbiter's per-tick level
/// floor is the *only* pruning pressure — the table below isolates what
/// budget arbitration alone does.
fn camera_fleet(
    cnn: &Network,
    ladder: &SparsityLadder,
    utility: &[f64],
    workers: Option<usize>,
) -> FleetRuntime {
    let mut fleet = FleetRuntime::new(
        (0..FLEET_SIZE)
            .map(|i| {
                let mgr = RuntimeManager::attach(
                    cnn.clone(),
                    ladder.clone(),
                    RuntimeManagerConfig::new(
                        Policy::NoPruning,
                        SafetyEnvelope::evenly_spaced(ladder.num_levels(), 0.6)
                            .expect("envelope"),
                    )
                    .frame_seed(70 + i as u64),
                )
                .expect("attach");
                (format!("cam-{i}"), mgr, utility.to_vec())
            })
            .collect(),
    )
    .expect("fleet builds");
    if let Some(w) = workers {
        fleet.set_workers(w);
    }
    fleet
}

/// The `--workers N` cap on the live fleet's stepping threads, if given.
fn parse_args() -> Option<usize> {
    let mut workers = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a positive integer");
                workers = Some(n);
            }
            other => panic!("unknown argument: {other} (expected --workers N)"),
        }
    }
    workers
}

fn main() {
    let workers = parse_args();
    let soc = SocModel::jetson_class();

    // Member 1: the perception CNN (also the live fleet's architecture).
    let (cnn, cnn_test) = trained_perception(60);
    let cnn_ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&cnn)
        .expect("ladder");
    let perception = profile_member(
        "perception",
        &cnn,
        &cnn_ladder,
        &[1, SCENE_SIZE, SCENE_SIZE],
        cnn_test.samples(),
        &soc,
    );

    // ---- Part 1: the live 4-camera fleet under arbitration ----------
    println!("T6a: live {FLEET_SIZE}-camera fleet, per-tick budget arbitration");
    let fleet = camera_fleet(&cnn, &cnn_ladder, &perception.utility_per_level, workers);
    let storage = fleet.weight_storage_bytes();
    let dense_bytes: usize = cnn.param_storage().iter().map(|(_, b)| b).sum();
    println!(
        "shared weight storage: {} B unique of {} B naive ({:.2}x one member's dense {} B)\n",
        storage.unique,
        storage.total,
        storage.unique as f64 / dense_bytes as f64,
        dense_bytes
    );
    let fleet_dense: f64 = fleet
        .profiles()
        .iter()
        .map(|p| p.energy_per_level[0].0)
        .sum();
    drop(fleet);

    let scenario = ScenarioConfig::new().duration_s(45.0).seed(64).generate();
    let widths = [10, 22, 12, 11, 11, 11];
    print_row(
        &[
            "budget %".into(),
            "mean level cam0-3".into(),
            "mJ/tick".into(),
            "utility".into(),
            "violations".into(),
            "infeasible".into(),
        ],
        &widths,
    );
    print_rule(&widths);
    let mut realized = Vec::new();
    for frac in [1.0, 0.7, 0.5, 0.35] {
        let mut f = camera_fleet(&cnn, &cnn_ladder, &perception.utility_per_level, workers);
        let r = f
            .run(&scenario, Some(Joules(fleet_dense * frac)))
            .expect("fleet run");
        let per_tick_mj = r.total_energy().as_millijoules() / r.ticks.len() as f64;
        realized.push(per_tick_mj);
        print_row(
            &[
                format!("{:.0}%", frac * 100.0),
                (0..FLEET_SIZE)
                    .map(|i| format!("{:.2}", r.mean_level(i)))
                    .collect::<Vec<_>>()
                    .join("/"),
                format!("{per_tick_mj:.3}"),
                format!("{:.3}", r.mean_utility()),
                format!("{}", r.violations()),
                format!("{}", r.infeasible_ticks()),
            ],
            &widths,
        );
        assert_eq!(
            r.violations(),
            0,
            "arbitration must never push a member past its envelope"
        );
    }
    print_rule(&widths);
    for pair in realized.windows(2) {
        assert!(
            pair[1] <= pair[0] + 1e-9,
            "realized energy must not grow as the budget shrinks"
        );
    }
    assert!(
        storage.unique < (dense_bytes as f64 * 1.5) as usize,
        "cloned fleet must hold ~1x dense weights"
    );
    println!();

    // ---- Part 2: heterogeneous planning (perception + control) ------
    // Member 2: the control MLP on the tabular task.
    let blobs = BlobsDataset::generate(400, 12, 4, 0.5, 61);
    let mut mlp = models::control_mlp(12, &[64, 32], 4, 62).expect("mlp");
    train_classifier(
        &mut mlp,
        blobs.samples(),
        &TrainConfig {
            epochs: 12,
            ..Default::default()
        },
    )
    .expect("train mlp");
    let mlp_test = BlobsDataset::generate(150, 12, 4, 0.5, 63);
    let mlp_ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&mlp)
        .expect("ladder");
    let control = profile_member(
        "control",
        &mlp,
        &mlp_ladder,
        &[12],
        mlp_test.samples(),
        &soc,
    );

    let members = [perception.clone(), control.clone()];
    let full_energy = members
        .iter()
        .map(|m| m.energy_per_level[0])
        .sum::<Joules>();
    println!("T6b: shared energy budget across perception + control (planned)");
    println!(
        "full-capacity fleet energy: {:.3} mJ/tick | member profiles measured\n",
        full_energy.as_millijoules()
    );
    for m in &members {
        println!(
            "  {:<11} energy mJ {:?}  utility {:?}",
            m.name,
            m.energy_per_level
                .iter()
                .map(|e| (e.as_millijoules() * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>(),
            m.utility_per_level
                .iter()
                .map(|u| (u * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
    }
    println!();

    let widths = [12, 10, 12, 12, 12, 10];
    print_row(
        &[
            "budget %".into(),
            "risk".into(),
            "perception".into(),
            "control".into(),
            "utility".into(),
            "feasible".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let mut utilities_low_risk = Vec::new();
    // The fleet executor's stateful planner rides along through the
    // whole budget/risk sweep — a live mutation sequence that exercises
    // its risk bands and plan cache — and must agree byte-for-byte with
    // every stateless `plan_budget` plan. It asserts silently, so stdout
    // shows only the stateless table.
    let mut planner = FleetPlanner::new(members.to_vec()).expect("planner builds");
    for (risks, label) in [([0.05, 0.05], "calm"), ([0.9, 0.05], "p-risk")] {
        for budget_frac in [1.0, 0.8, 0.6, 0.4, 0.3] {
            let budget = Joules(full_energy.0 * budget_frac);
            let plan = plan_budget(&members, &risks, Some(budget)).expect("plan");
            assert_eq!(
                planner.plan(&risks, Some(budget)).expect("FleetPlanner plan"),
                plan,
                "FleetPlanner diverged from plan_budget at {label} {budget_frac}"
            );
            if label == "calm" {
                utilities_low_risk.push((budget_frac, plan.total_utility, plan.feasible));
            }
            print_row(
                &[
                    format!("{:.0}%", budget_frac * 100.0),
                    label.into(),
                    format!("L{}", plan.levels[0]),
                    format!("L{}", plan.levels[1]),
                    format!("{:.3}", plan.total_utility),
                    format!("{}", plan.feasible),
                ],
                &widths,
            );
        }
        print_rule(&widths);
    }

    // Shape checks: utility monotone in budget; high perception risk pins
    // perception at L0 regardless of budget.
    for pair in utilities_low_risk.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1 + 1e-9,
            "utility must not grow as the budget shrinks"
        );
    }
    let pinned = plan_budget(&members, &[0.9, 0.0], Some(Joules(full_energy.0 * 0.3)))
        .expect("plan");
    assert_eq!(pinned.levels[0], 0, "risky perception stays dense even at 30% budget");
    assert_eq!(
        planner
            .plan(&[0.9, 0.0], Some(Joules(full_energy.0 * 0.3)))
            .expect("FleetPlanner plan"),
        pinned,
        "FleetPlanner agrees on the pinned-risk plan"
    );
    println!("\nshape checks passed: live fleet stays safe under arbitration; budget trades utility greedily; safety is never traded.");
}
