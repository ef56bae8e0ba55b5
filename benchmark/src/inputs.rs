//! Workload inputs, defined here and nowhere else: the trained model's
//! configuration, the ladders, envelope and policy, and the seeded
//! scenario, fault-storm, member-risk and budget schedules. Library
//! generators (`ScenarioConfig::generate`, `storm_events`) turn these
//! definitions into ticks and faults; [`Inputs::digest`] pins the result
//! so a change to a generator shows up as a failed run rather than as a
//! silent change of workload.

use crate::stats::Fnv;
use reprune::nn::dataset::{SceneContext, SceneDataset};
use reprune::nn::train::{train_classifier, Optimizer, TrainConfig};
use reprune::nn::{models, Network, PrecisionMode};
use reprune::prune::{FineTuneSpec, LadderConfig, PruneCriterion, SparsityLadder};
use reprune::runtime::policy::AdaptiveConfig;
use reprune::runtime::{
    storm_events, FaultDefense, FineTuneData, Policy, RuntimeManagerConfig, SafetyEnvelope,
    SpillConfig, StormConfig,
};
use reprune::scenario::{Scenario, ScenarioConfig, SegmentKind};
use reprune::tensor::rng::Prng;

/// Control period of every workload, seconds.
pub const DT: f64 = 0.1;

/// Seed whose input digests are pinned in [`PINNED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 1;

/// Training seed: the model is a fixed artifact, not a workload input.
const TRAIN_SEED: u64 = 0x7EA1;

/// Per-level utility the fleet arbiter trades against energy.
pub const FLEET_UTILITY: [f64; 4] = [0.95, 0.93, 0.88, 0.60];

/// `input_digest` of [`DEFAULT_SEED`] per workload, full then quick.
/// Update these only together with a deliberate change of workload.
pub const PINNED_DIGESTS: [(&str, u64, u64); 4] = [
    ("commute", 0x7e4d_06c6_21be_b715, 0x29a3_1bfa_e4f9_c968),
    ("storm", 0x0c11_27b7_17fd_d756, 0x3550_d4a5_74a1_a870),
    ("fleet", 0x494c_9005_8058_8c79, 0x2fb9_92d9_12c3_97b2),
    (
        "crash_recover",
        0x1451_c18e_5f5d_5338,
        0xd961_54bd_5126_564b,
    ),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One vehicle, benign highway-start drive, no faults, int8 rungs,
    /// spill on.
    Commute,
    /// One vehicle, busy urban drive, severe fault storm, spill off.
    Storm,
    /// Many vehicles under one shrinking energy budget.
    Fleet,
    /// One fine-tuned vehicle under a storm, frozen and recovered
    /// periodically.
    CrashRecover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Commute,
        Workload::Storm,
        Workload::Fleet,
        Workload::CrashRecover,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Commute => "commute",
            Workload::Storm => "storm",
            Workload::Fleet => "fleet",
            Workload::CrashRecover => "crash_recover",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which ladder a workload attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderKind {
    /// f32 at every rung.
    Standard,
    /// Rungs 2 and 3 execute at int8.
    MixedPrecision,
    /// Every rung briefly fine-tuned at attach.
    FineTuned,
}

/// Everything one pass of a workload consumes: one drive, driven from a
/// fresh attach. Pass `k` of a run draws its drive from `(seed, k)`, so
/// a run averages over many independent drives of the same kind.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs drive.
    pub workload: Workload,
    /// Ticks of one pass plus its scheduled faults.
    pub scenario: Scenario,
    /// Frame-rendering seed per member (one member off the fleet).
    pub frame_seeds: Vec<u64>,
    /// Fault-placement seed per member.
    pub plan_seeds: Vec<u64>,
    /// Additive risk offset per member (fleet only).
    pub risk_offsets: Vec<f64>,
    /// Budget per tick as a share of the dense draw (fleet only).
    pub budget_fracs: Vec<f64>,
    /// Tick indices after which the device is frozen and recovered
    /// (crash_recover only).
    pub drills: Vec<usize>,
}

/// The fault storm every faulted workload uses, over `[start_s, end_s)`:
/// a fault of some family lands every few seconds.
fn severe_storm(start_s: f64, end_s: f64) -> StormConfig {
    StormConfig {
        start_s,
        end_s,
        log_flip_rate_hz: 1.0 / 8.0,
        weight_flip_rate_hz: 1.0 / 15.0,
        storage_outage_rate_hz: 1.0 / 25.0,
        storage_degrade_rate_hz: 1.0 / 40.0,
        sensor_rate_hz: 1.0 / 40.0,
        confidence_rate_hz: 1.0 / 40.0,
        overrun_rate_hz: 1.0 / 30.0,
        torn_write_rate_hz: 0.0,
        truncated_tail_rate_hz: 0.0,
    }
}

impl Inputs {
    /// Generates pass `pass` of `workload` from `seed`. `quick` shrinks
    /// the pass to a smoke-test size.
    pub fn generate(workload: Workload, seed: u64, pass: u64, quick: bool) -> Inputs {
        let mut rng = Prng::new(seed ^ 0xB3_4C4D ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (ticks, members) = match (workload, quick) {
            (Workload::Commute | Workload::Storm, false) => (3_000, 1),
            (Workload::Commute | Workload::Storm, true) => (600, 1),
            (Workload::Fleet, false) => (600, 32),
            (Workload::Fleet, true) => (120, 4),
            (Workload::CrashRecover, false) => (600, 1),
            (Workload::CrashRecover, true) => (400, 1),
        };
        let duration = ticks as f64 * DT;
        let drive = ScenarioConfig::new()
            .duration_s(duration)
            .dt_s(DT)
            .seed(rng.next_u64());
        let storm_seed = rng.next_u64();
        let scenario = match workload {
            Workload::Commute => drive.start_segment(SegmentKind::Highway).generate(),
            Workload::Storm => drive
                .start_segment(SegmentKind::Urban)
                .event_rate_scale(5.0)
                .generate()
                .with_faults(storm_events(&severe_storm(0.0, duration), storm_seed)),
            Workload::Fleet => drive
                .start_segment(SegmentKind::Highway)
                .generate()
                .with_faults(storm_events(
                    &severe_storm(duration / 3.0, 2.0 * duration / 3.0),
                    storm_seed,
                )),
            Workload::CrashRecover => drive
                .start_segment(SegmentKind::Highway)
                .generate()
                .with_faults(storm_events(&severe_storm(0.0, duration), storm_seed)),
        };
        let frame_seeds = (0..members).map(|_| rng.next_u64()).collect();
        let plan_seeds = (0..members).map(|_| rng.next_u64()).collect();
        let (risk_offsets, budget_fracs) = if workload == Workload::Fleet {
            (
                (0..members)
                    .map(|_| f64::from(rng.next_uniform(-0.05, 0.15)))
                    .collect(),
                // The fleet sheds load while it drives: 100% of the dense
                // draw at the first tick down to 40% at the last.
                (0..ticks)
                    .map(|k| 1.0 - 0.6 * k as f64 / (ticks - 1) as f64)
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let drills = if workload == Workload::CrashRecover {
            let first = if quick { 100 } else { 200 };
            (first..ticks - 1).step_by(100).collect()
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            scenario,
            frame_seeds,
            plan_seeds,
            risk_offsets,
            budget_fracs,
            drills,
        }
    }

    /// Members per fleet tick (1 for single-vehicle workloads).
    pub fn members(&self) -> usize {
        self.frame_seeds.len()
    }

    /// Per-member risks at tick `k`: the tick's risk plus each member's
    /// offset, clamped to `[0, 1]`.
    pub fn member_risks(&self, k: usize, out: &mut Vec<f64>) {
        let risk = self.scenario.ticks()[k].risk;
        out.clear();
        out.extend(self.risk_offsets.iter().map(|o| (risk + o).clamp(0.0, 1.0)));
    }

    /// Hash of every generated input: the tick stream, the fault
    /// schedule, seeds, member risk offsets, budgets and drill points.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for t in self.scenario.ticks() {
            h.f64(t.t);
            h.f64(t.risk);
            h.u64(t.active_events as u64);
            h.debug(&(t.segment, t.weather));
        }
        for f in self.scenario.faults() {
            h.debug(f);
        }
        for v in self.frame_seeds.iter().chain(&self.plan_seeds) {
            h.u64(*v);
        }
        for v in self.risk_offsets.iter().chain(&self.budget_fracs) {
            h.f64(*v);
        }
        for d in &self.drills {
            h.u64(*d as u64);
        }
        h.finish()
    }

    /// The ladder this workload attaches.
    pub fn ladder_kind(&self) -> LadderKind {
        match self.workload {
            // The int8 rungs ride on the fault-free drive. Under a fault
            // storm, pruning deeper from an int8 rung pops that rung's
            // precision segment outside the restore chain, so a bit-flip
            // landed in it makes `step` return an error.
            Workload::Commute => LadderKind::MixedPrecision,
            Workload::Storm | Workload::Fleet => LadderKind::Standard,
            Workload::CrashRecover => LadderKind::FineTuned,
        }
    }

    /// Runtime configuration of member `i`.
    pub fn config(&self, i: usize) -> RuntimeManagerConfig {
        let envelope =
            SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).expect("constant envelope is valid");
        let policy = Policy::adaptive(AdaptiveConfig {
            hysteresis: 0.08,
            dwell_ticks: 10,
        });
        let cfg = RuntimeManagerConfig::new(policy, envelope)
            .defense(FaultDefense::FullChain)
            .frame_seed(self.frame_seeds[i])
            .fine_tune_data(fine_tune_data());
        match self.workload {
            Workload::Commute | Workload::CrashRecover => cfg.spill(SpillConfig::new()),
            Workload::Storm | Workload::Fleet => cfg,
        }
    }
}

/// Calibration data for attach-time fine-tuning (fine-tuned ladder only).
pub fn fine_tune_data() -> FineTuneData {
    FineTuneData {
        samples: 64,
        seed: 0xF7DA,
    }
}

/// The calibration samples the runtime renders from [`fine_tune_data`],
/// rendered the same way for the traced replay of a fine-tuned attach.
pub fn fine_tune_samples() -> SceneDataset {
    let data = fine_tune_data();
    SceneDataset::builder()
        .samples(data.samples)
        .seed(data.seed)
        .build()
}

/// Builds the ladder of `kind` over `net`.
///
/// # Errors
///
/// Propagates ladder construction errors.
pub fn build_ladder(kind: LadderKind, net: &Network) -> reprune::prune::Result<SparsityLadder> {
    let config = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9]).criterion(PruneCriterion::ChannelL2);
    match kind {
        LadderKind::Standard => config,
        LadderKind::MixedPrecision => config.precisions(vec![
            PrecisionMode::F32,
            PrecisionMode::F32,
            PrecisionMode::Int8,
            PrecisionMode::Int8,
        ]),
        LadderKind::FineTuned => config.fine_tune(FineTuneSpec {
            steps: 30,
            lr: 0.01,
            seed: 0xF1DE,
        }),
    }
    .build(net)
}

/// Trains the perception CNN every workload runs. It stands in for
/// loading a trained image, so no metric includes it.
///
/// # Panics
///
/// Panics if the fixed reference configuration fails to train.
pub fn trained_model() -> Network {
    let data = SceneDataset::builder()
        .samples(600)
        .seed(TRAIN_SEED ^ 0xDA7A)
        .context_mix(&[
            (SceneContext::Clear, 0.55),
            (SceneContext::Rain, 0.15),
            (SceneContext::Night, 0.15),
            (SceneContext::Fog, 0.15),
        ])
        .build();
    let (train, _held_out) = data.split(0.8);
    let mut net = models::default_perception_cnn(TRAIN_SEED).expect("reference model builds");
    train_classifier(
        &mut net,
        train.samples(),
        &TrainConfig {
            epochs: 10,
            batch_size: 16,
            lr: 0.04,
            lr_decay: 0.95,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: TRAIN_SEED,
            optimizer: Optimizer::Sgd,
        },
    )
    .expect("reference training converges");
    net
}
