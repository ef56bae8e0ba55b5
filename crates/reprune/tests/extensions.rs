//! Integration tests for the extension features: persisted model images,
//! half-precision logs, physical compaction, and failure injection.

use reprune::nn::dataset::{SceneContext, SceneDataset};
use reprune::nn::train::{train_classifier, TrainConfig};
use reprune::nn::{metrics, models, serialize, Network};
use reprune::prune::compact::{compact_network, zero_dead_unit_biases};
use reprune::prune::{LadderConfig, OneShotPruner, PruneCriterion, ReversiblePruner};
use reprune::runtime::envelope::SafetyEnvelope;
use reprune::runtime::manager::{RestoreMechanism, RuntimeManager, RuntimeManagerConfig};
use reprune::runtime::policy::{AdaptiveConfig, Policy};
use reprune::runtime::FaultPlan;
use reprune::scenario::{FaultEvent, FaultKind, ScenarioConfig, SegmentKind, Weather};

fn trained() -> (Network, SceneDataset) {
    let data = SceneDataset::builder()
        .samples(300)
        .seed(777)
        .context(SceneContext::Clear)
        .build();
    let (train, test) = data.split(0.8);
    let mut net = models::default_perception_cnn(17).expect("model");
    train_classifier(
        &mut net,
        train.samples(),
        &TrainConfig {
            epochs: 6,
            ..Default::default()
        },
    )
    .expect("train");
    (net, test)
}

#[test]
fn storage_image_reload_round_trip() {
    // The full irreversible-pruning deployment story: persist the trained
    // model, prune one-shot, recover by deserializing the image.
    let (mut net, test) = trained();
    let acc = metrics::evaluate(&mut net, test.samples()).unwrap().accuracy;
    let image = serialize::to_bytes(&net);

    let ladder = LadderConfig::new(vec![0.0, 0.8])
        .criterion(PruneCriterion::ChannelL2)
        .build(&net)
        .unwrap();
    let mut one_shot = OneShotPruner::new();
    one_shot
        .prune(&mut net, ladder.level(1).unwrap().masks.clone())
        .unwrap();
    let degraded = metrics::evaluate(&mut net, test.samples()).unwrap().accuracy;
    assert!(degraded < acc);

    let restored_weights = one_shot.reload_from_image(&mut net, &image).unwrap();
    assert!(restored_weights > 0);
    let recovered = metrics::evaluate(&mut net, test.samples()).unwrap().accuracy;
    assert_eq!(recovered, acc, "image reload must restore accuracy exactly");
}

#[test]
fn half_precision_log_preserves_usable_accuracy() {
    let (net, test) = trained();
    let mut half_net = net.clone();
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&half_net)
        .unwrap();
    let mut pruner = ReversiblePruner::attach_half(&mut half_net, ladder).unwrap();

    // Quantization itself must be nearly free on real accuracy.
    let mut dense = net.clone();
    let dense_acc = metrics::evaluate(&mut dense, test.samples()).unwrap().accuracy;
    let quant_acc = metrics::evaluate(&mut half_net, test.samples()).unwrap().accuracy;
    assert!(
        (dense_acc - quant_acc).abs() <= 0.02,
        "f16 quantization cost too high: {dense_acc} vs {quant_acc}"
    );

    // Walk and restore: exact against the quantized baseline.
    let baseline = half_net.clone();
    pruner.set_level(&mut half_net, 3).unwrap();
    pruner.set_level(&mut half_net, 0).unwrap();
    pruner.verify_restored(&half_net).unwrap();
    assert_eq!(half_net, baseline);
}

#[test]
fn compaction_matches_masked_accuracy_end_to_end() {
    let (net, test) = trained();
    let ladder = LadderConfig::new(vec![0.0, 0.5])
        .criterion(PruneCriterion::ChannelL2)
        .build(&net)
        .unwrap();
    let masks = ladder.level(1).unwrap().masks.clone();
    let mut masked = net.clone();
    masks.apply(&mut masked).unwrap();
    zero_dead_unit_biases(&mut masked, &masks).unwrap();
    let masked_acc = metrics::evaluate(&mut masked, test.samples()).unwrap().accuracy;

    let (mut compacted, report) = compact_network(&masked).unwrap();
    let compacted_acc = metrics::evaluate(&mut compacted, test.samples()).unwrap().accuracy;
    assert_eq!(masked_acc, compacted_acc);
    assert!(report.reduction() > 0.5);
    assert!(compacted.num_parameters() < net.num_parameters() / 2);
}

#[test]
fn sensor_blackout_forces_full_capacity_under_load() {
    let (net, _) = trained();
    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
        .criterion(PruneCriterion::ChannelL2)
        .build(&net)
        .unwrap();
    let envelope = SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).unwrap();
    let mut mgr = RuntimeManager::attach(
        net,
        ladder,
        RuntimeManagerConfig::new(
            Policy::adaptive(AdaptiveConfig {
                hysteresis: 0.05,
                dwell_ticks: 5,
            }),
            envelope,
        )
        .mechanism(RestoreMechanism::DeltaLog),
    )
    .unwrap();
    let scenario = ScenarioConfig::new()
        .duration_s(60.0)
        .seed(4)
        .start_segment(SegmentKind::Highway)
        .event_rate_scale(0.0)
        .fixed_weather(Weather::Clear)
        .generate();
    let dt = scenario.config().dt_s;
    let ticks = scenario.ticks();
    // A scheduled blackout over ticks 200..240.
    mgr.set_fault_plan(Some(FaultPlan::new(
        vec![FaultEvent {
            start_s: ticks[200].t,
            kind: FaultKind::SensorBlackout {
                duration_s: 40.0 * dt,
            },
        }],
        4,
    )));
    for tick in &ticks[..200] {
        mgr.step(tick, dt).unwrap();
    }
    assert!(mgr.current_level() > 0, "calm drive should be pruned");
    for tick in &ticks[200..240] {
        mgr.step(tick, dt).unwrap();
    }
    assert_eq!(
        mgr.current_level(),
        0,
        "sensor blackout must fail safe to full capacity"
    );
}
