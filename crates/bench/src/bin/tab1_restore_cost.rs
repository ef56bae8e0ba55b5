//! Experiment T1 — the restoration-cost table: reversal-log delta restore
//! vs snapshot copy vs storage reload vs fine-tuning, per ladder level.
//!
//! Latency/energy come from the platform model at deployment scale;
//! "accuracy after restore" is measured on the real model (exact for the
//! three weight-restoring paths, approximate for fine-tuning).
//! Run with: `cargo run --release -p reprune-bench --bin tab1_restore_cost`
//!
//! `--precision` appends a mixed-precision arm (delta restore from int8
//! rungs, which also pay their precision-residual entries) after the
//! main table; `--fine-tune` appends a fine-tuned-ladder arm (per-level
//! tuned accuracy vs the shared-weight baseline, and delta restore —
//! which now also pops the tuning deltas — priced against a fine-tune
//! recovery of the same scenario). Without the flags, output is
//! byte-identical to the pre-extension binary.

use reprune::nn::metrics;
use reprune::platform::restore::{price, RestorePath, RestoreScenario};
use reprune::platform::{Bytes, SocModel};
use reprune::prune::{FineTuneRecovery, OneShotPruner, ReversiblePruner};
use reprune::nn::dataset::{SceneContext, SceneDataset};
use reprune_bench::{
    fine_tune_calibration, fine_tuned_ladder, mixed_precision_ladder, print_row, print_rule,
    standard_ladder, trained_perception,
};

const SCALE: f64 = 150.0;

fn main() {
    let precision_arm = std::env::args().skip(1).any(|a| a == "--precision");
    let fine_tune_arm = std::env::args().skip(1).any(|a| a == "--fine-tune");
    let (net, test) = trained_perception(43);
    let soc = SocModel::jetson_class();
    let ladder = standard_ladder(&net);
    let dense_acc = {
        let mut m = net.clone();
        metrics::evaluate(&mut m, test.samples()).expect("eval").accuracy
    };
    let model_bytes = Bytes(
        (net.prunable_layers()
            .iter()
            .map(|m| m.weight_len() * 4)
            .sum::<usize>() as f64
            * SCALE) as u64,
    );
    let forward_macs = (381_504.0 * SCALE) as u64;

    println!("T1: restoring full capacity from each ladder level");
    println!(
        "platform: {} | deployment model {} MB | dense accuracy {:.1}%\n",
        soc.name,
        model_bytes.0 / 1_000_000,
        100.0 * dense_acc
    );
    let widths = [7, 16, 13, 13, 14, 12];
    print_row(
        &[
            "level".into(),
            "path".into(),
            "latency ms".into(),
            "energy mJ".into(),
            "memory kB".into(),
            "acc after %".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let ft_recovery = FineTuneRecovery {
        steps: 50,
        lr: 0.01,
        seed: 5,
    };
    let ft_data = SceneDataset::builder()
        .samples(200)
        .seed(4242)
        .context(SceneContext::Clear)
        .build();

    let mut delta_ms_by_level = Vec::new();
    let mut reload_ms = 0.0;
    for level in 1..ladder.num_levels() {
        let pruned_entries =
            (ladder.level(level).expect("level").masks.pruned_count() as f64 * SCALE) as usize;
        let scenario = RestoreScenario {
            pruned_entries,
            model_bytes,
            forward_macs,
        };
        for path in [
            RestorePath::DeltaLog,
            RestorePath::Snapshot,
            RestorePath::StorageReload,
            RestorePath::FineTune { steps: 50, batch: 8 },
        ] {
            let cost = price(&soc, scenario, path);
            // Measured accuracy after the restore mechanism runs, on the
            // real (small) model.
            let acc = match path {
                RestorePath::FineTune { .. } => {
                    // Irreversibly prune a copy, then fine-tune in place.
                    let mut live = net.clone();
                    let masks = ladder.level(level).expect("level").masks.clone();
                    let mut one_shot = OneShotPruner::new();
                    one_shot.prune(&mut live, masks.clone()).expect("prune");
                    ft_recovery
                        .run(&mut live, &masks, ft_data.samples())
                        .expect("fine-tune");
                    metrics::evaluate(&mut live, test.samples()).expect("eval").accuracy
                }
                _ => {
                    // All weight-restoring paths are bit-exact; verify via
                    // the reversal log once per level.
                    let mut live = net.clone();
                    let mut pruner =
                        ReversiblePruner::attach(&live, ladder.clone()).expect("attach");
                    pruner.set_level(&mut live, level).expect("prune");
                    pruner.set_level(&mut live, 0).expect("restore");
                    pruner.verify_restored(&live).expect("bit-exact");
                    dense_acc
                }
            };
            if path == RestorePath::DeltaLog {
                delta_ms_by_level.push(cost.latency.as_millis());
            }
            if path == RestorePath::StorageReload {
                reload_ms = cost.latency.as_millis();
            }
            print_row(
                &[
                    format!("{level}"),
                    path.to_string(),
                    format!("{:.3}", cost.latency.as_millis()),
                    format!("{:.3}", cost.energy.as_millijoules()),
                    format!("{:.1}", cost.standing_memory.0 as f64 / 1e3),
                    format!("{:.1}", 100.0 * acc),
                ],
                &widths,
            );
        }
        print_rule(&widths);
    }

    // Shape checks (EXPERIMENTS.md T1).
    for d in &delta_ms_by_level {
        assert!(
            reload_ms > 5.0 * d,
            "reload ({reload_ms:.2} ms) must dwarf delta restore ({d:.3} ms)"
        );
    }
    assert!(
        delta_ms_by_level.windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "delta cost grows with pruned fraction"
    );
    println!("\nshape checks passed: delta ≪ reload at every level; delta cost ∝ pruned fraction.");

    if precision_arm {
        // Delta restore from the mixed-precision ladder: an int8 rung's
        // reversal log holds its eviction entries *plus* one precision
        // segment (the f32 originals of the surviving weights), so the
        // priced entry count grows — and the restore is verified to
        // recover the pre-attach f32 model bit-exactly.
        println!("\nmixed-precision arm: delta restore from int8 rungs (levels 2-3 quantized)");
        let mixed = mixed_precision_ladder(&net);
        let mut live = net.clone();
        let mut pruner = ReversiblePruner::attach(&live, mixed.clone()).expect("attach");
        let widths = [7, 11, 13, 13, 13, 12];
        print_row(
            &[
                "level".into(),
                "precision".into(),
                "entries".into(),
                "latency ms".into(),
                "energy mJ".into(),
                "acc after %".into(),
            ],
            &widths,
        );
        print_rule(&widths);
        let mut mixed_ms_by_level = Vec::new();
        for level in 1..mixed.num_levels() {
            let hops = pruner.hop_entries(0, level);
            let residual = hops.rung;
            let entries = ((hops.evict + residual) as f64 * SCALE) as usize;
            let cost = price(
                &soc,
                RestoreScenario {
                    pruned_entries: entries,
                    model_bytes,
                    forward_macs,
                },
                RestorePath::DeltaLog,
            );
            pruner.set_level(&mut live, level).expect("prune");
            pruner.set_level(&mut live, 0).expect("restore");
            pruner.verify_restored(&live).expect("int8 rung restores pre-attach f32");
            mixed_ms_by_level.push(cost.latency.as_millis());
            print_row(
                &[
                    format!("{level}"),
                    if residual > 0 { "int8".into() } else { "f32".into() },
                    format!("{entries}"),
                    format!("{:.3}", cost.latency.as_millis()),
                    format!("{:.3}", cost.energy.as_millijoules()),
                    format!("{:.1}", 100.0 * dense_acc),
                ],
                &widths,
            );
        }
        // The rung restores still undercut a storage reload despite the
        // extra residual entries. The floor is 3x rather than the main
        // table's 5x: a deep int8 rung's log covers *every* coverable
        // weight (evictions + surviving-weight residuals).
        for d in &mixed_ms_by_level {
            assert!(
                reload_ms > 3.0 * d,
                "reload ({reload_ms:.2} ms) must dwarf rung delta restore ({d:.3} ms)"
            );
        }
        println!("\nprecision arm passed: rung restores stay well under reload and bit-exact.");
    }

    if fine_tune_arm {
        // Fine-tuned ladder: each level was briefly tuned at attach and
        // the weight deltas ride on the reversal log, so a delta restore
        // pops them together with the evicted rows — still bit-exact,
        // still a pure memory write. The table puts that against the
        // alternative way of getting the accuracy back: re-running a
        // fine-tune recovery (compute, not bit-exact) on the same
        // scenario.
        println!("\nfine-tuned arm: per-level tuned accuracy and restore pricing");
        let tuned_ladder = fine_tuned_ladder(&net);
        let cal = fine_tune_calibration(0xCA11);
        let mut tuned_live = net.clone();
        let mut tuned_pruner =
            ReversiblePruner::attach_fine_tuned(&mut tuned_live, tuned_ladder.clone(), cal.samples())
                .expect("fine-tuned attach");
        let mut shared_live = net.clone();
        let mut shared_pruner =
            ReversiblePruner::attach(&shared_live, ladder.clone()).expect("attach");
        let widths = [7, 12, 12, 9, 14, 16];
        print_row(
            &[
                "level".into(),
                "shared %".into(),
                "tuned %".into(),
                "gain pp".into(),
                "delta-rst ms".into(),
                "ft-recovery ms".into(),
            ],
            &widths,
        );
        print_rule(&widths);
        let mut deepest_gain = 0.0;
        for level in 1..tuned_ladder.num_levels() {
            shared_pruner.set_level(&mut shared_live, level).expect("prune");
            let shared_acc =
                metrics::evaluate(&mut shared_live, test.samples()).expect("eval").accuracy;
            tuned_pruner.set_level(&mut tuned_live, level).expect("prune");
            let tuned_acc =
                metrics::evaluate(&mut tuned_live, test.samples()).expect("eval").accuracy;
            let entries = (tuned_pruner.hop_entries(0, level).walk() as f64 * SCALE) as usize;
            let scenario = RestoreScenario {
                pruned_entries: entries,
                model_bytes,
                forward_macs,
            };
            let delta = price(&soc, scenario, RestorePath::DeltaLog);
            let ft = price(&soc, scenario, RestorePath::FineTune { steps: 50, batch: 8 });
            // The tuned log is much bigger than the plain one (each
            // level's plan touches every surviving weight), so the edge
            // narrows with depth — but the restore must still undercut
            // re-tuning by 2x while also being bit-exact.
            assert!(
                delta.latency.0 < ft.latency.0 / 2.0,
                "delta restore (tuning deltas included) must undercut a fine-tune recovery \
                 by >2x at level {level}"
            );
            deepest_gain = tuned_acc - shared_acc;
            print_row(
                &[
                    format!("{level}"),
                    format!("{:.1}", 100.0 * shared_acc),
                    format!("{:.1}", 100.0 * tuned_acc),
                    format!("{:+.1}", 100.0 * (tuned_acc - shared_acc)),
                    format!("{:.3}", delta.latency.as_millis()),
                    format!("{:.3}", ft.latency.as_millis()),
                ],
                &widths,
            );
        }
        // Both walks return to the exact pre-attach weights.
        shared_pruner.set_level(&mut shared_live, 0).expect("restore");
        shared_pruner.verify_restored(&shared_live).expect("bit-exact");
        tuned_pruner.set_level(&mut tuned_live, 0).expect("restore");
        tuned_pruner.verify_restored(&tuned_live).expect("bit-exact with tuning deltas");
        assert!(
            deepest_gain > 0.0,
            "fine-tuning must recover accuracy at the deepest level: {deepest_gain}"
        );
        println!(
            "\nfine-tune arm passed: tuned rungs gain accuracy at depth, restore stays bit-exact."
        );
    }
}
