//! The restore fast path, measured two ways.
//!
//! First, wall-clock percentiles for raw prune-and-restore round trips
//! on the reference perception CNN — the paper's "back to the future"
//! primitive — expressed as a multiple of one full-density inference
//! tick. Then a severe fault storm driven through the runtime, whose
//! one-shot restores snap the network back to full capacity without
//! ever serving silently corrupted weights.
//!
//! Run with:
//! ```sh
//! cargo run --release --example fast_restore
//! ```

use std::time::Instant;

use reprune::nn::dataset::{render_scene, SceneContext};
use reprune::nn::{models, Scratch};
use reprune::prune::{ladder_plans, LadderConfig, PruneCriterion, ReversiblePruner};
use reprune::runtime::envelope::SafetyEnvelope;
use reprune::runtime::manager::{RuntimeManager, RuntimeManagerConfig};
use reprune::runtime::policy::{AdaptiveConfig, Policy};
use reprune::runtime::{storm_events, FaultDefense, StormConfig};
use reprune::scenario::{ScenarioConfig, SegmentKind};
use reprune::tensor::rng::Prng;

const ROUNDTRIPS: usize = 200;

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Raw round-trip latency vs one inference tick. ---
    let mut net = models::default_perception_cnn(11)?;
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&net)?;
    let plans = ladder_plans(&net, &ladder)?;
    let mut pruner = ReversiblePruner::attach(&net, ladder)?;

    let mut frame_rng = Prng::new(3);
    let sample = render_scene(0, SceneContext::Clear, &mut frame_rng);
    let mut scratch = Scratch::new();
    // Warm both the inference scratch and the pruner's segment pools.
    for _ in 0..20 {
        net.predict_with(&sample.input, Some(&plans[0]), &mut scratch)?;
    }
    pruner.set_level(&mut net, 3)?;
    pruner.set_level(&mut net, 0)?;
    let alloc_after_warmup = pruner.allocation_events();

    let mut tick_ns: Vec<f64> = (0..ROUNDTRIPS)
        .map(|_| {
            let t0 = Instant::now();
            net.predict_with(&sample.input, Some(&plans[0]), &mut scratch)
                .expect("inference tick");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    tick_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let tick_p50 = percentile(&tick_ns, 0.50);

    println!("restore round trips vs one full-density tick ({ROUNDTRIPS} samples each):");
    println!("  tick (density 1.00)    p50 {:9.0} ns", tick_p50);
    for level in 1..=3usize {
        let mut ns: Vec<f64> = (0..ROUNDTRIPS)
            .map(|_| {
                let t0 = Instant::now();
                pruner.set_level(&mut net, level).expect("prune");
                pruner.set_level(&mut net, 0).expect("restore");
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p50, p90, p99) = (
            percentile(&ns, 0.50),
            percentile(&ns, 0.90),
            percentile(&ns, 0.99),
        );
        println!(
            "  roundtrip 0->{level}->0     p50 {p50:9.0} ns   p90 {p90:9.0} ns   p99 {p99:9.0} ns   \
             ({:.2}x tick)",
            p50 / tick_p50
        );
    }
    assert_eq!(
        pruner.allocation_events(),
        alloc_after_warmup,
        "warm segment pools never re-allocate across round trips"
    );

    // --- 2. A severe storm through the runtime's one-shot restores. ---
    let net = models::default_perception_cnn(9)?;
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&net)?;
    let envelope = SafetyEnvelope::new(vec![0.6, 0.4, 0.2])?;
    let cfg = RuntimeManagerConfig::new(Policy::adaptive(AdaptiveConfig::default()), envelope)
        .defense(FaultDefense::FullChain)
        .frame_seed(23);
    let mut mgr = RuntimeManager::attach(net, ladder, cfg)?;
    let scenario = ScenarioConfig::new()
        .duration_s(180.0)
        .seed(23)
        .start_segment(SegmentKind::Urban)
        .event_rate_scale(0.4)
        .generate()
        .with_faults(storm_events(&StormConfig::severe(40.0, 140.0), 23));
    let r = mgr.run(&scenario)?;
    println!("\nsevere storm (100 s of faults on a 180 s urban drive), one-shot restores:");
    println!(
        "  detected / repaired      {} / {} (of {} injected)",
        r.faults_detected, r.faults_repaired, r.faults_injected
    );
    println!(
        "  degraded / min-risk      {} / {} ticks",
        r.degraded_ticks(),
        r.minimal_risk_ticks()
    );
    println!("  deadline misses          {}", r.deadline_miss_ticks());
    println!("  silent corruption        {}", r.silent_corruption_ticks());
    println!("  safety violations        {}", r.violations);
    println!(
        "  energy saved             {:.1}%",
        100.0 * r.energy_saved_fraction()
    );
    assert_eq!(
        r.trace_event_count("fault-detected"),
        r.faults_detected,
        "trace self-check balances"
    );
    assert_eq!(r.silent_corruption_ticks(), 0);
    Ok(())
}
