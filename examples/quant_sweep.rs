//! Density × precision sweep: what the int8 execution rungs actually buy.
//!
//! Two ladders share the same structured masks (densities 1.00 → 0.10)
//! over a wide GEMM-bound control MLP, where the matvec is
//! weight-bandwidth-bound and int8 codes move a quarter of the bytes f32
//! does. The int8 rungs also beat their f32 twins on the perception CNN,
//! whose convs quantize each input once; `perf_kernels` gates that with
//! its `predict_cnn_L{2,3}` pairs, and this sweep covers the MLP. One
//! ladder executes every level at f32, the twin runs its two deepest
//! rungs at int8 through the quantized tiled kernels (weight codes
//! cached across ticks, keyed on the weight tensor's mutation stamp).
//! For every (density, precision) cell the sweep reports
//!
//! * measured inference-tick latency (p50 / p95 over wall-clock samples),
//! * modeled per-tick energy on the jetson-class platform at deployment
//!   scale (`SocModel::inference_cost_at`),
//! * measured restore-to-full round-trip latency (p50 / p95) — int8
//!   rungs pop a precision-residual segment on top of the eviction walk,
//!   and every restore is verified bit-exact against the pre-attach f32
//!   weights.
//!
//! The example exits nonzero if an int8 rung fails to beat its f32 twin
//! on measured tick latency — the acceptance gate for the quantized
//! execution path.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quant_sweep
//! ```

use std::time::Instant;

use reprune::nn::{models, Network, Scratch};
use reprune::platform::profile::NetworkProfile;
use reprune::platform::SocModel;
use reprune::prune::{
    ladder_plans, LadderConfig, PruneCriterion, ReversiblePruner, SparsityLadder,
};
use reprune::tensor::qgemm;
use reprune::tensor::rng::Prng;
use reprune::tensor::Tensor;

const TICKS: usize = 300;
const ROUNDTRIPS: usize = 120;
const SCALE: f64 = 150.0; // deployment scale (DESIGN.md §5)

// A control head wide enough that the per-tick matvec is weight-
// bandwidth-bound: ~564k weights, so a dense f32 tick streams ~2.2 MB
// while the int8 twin streams ~0.56 MB of codes.
const IN_FEATURES: usize = 64;
const HIDDEN: [usize; 3] = [512, 512, 512];
const CLASSES: usize = 16;

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn sampled(mut f: impl FnMut(), samples: usize) -> (f64, f64) {
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (percentile(&ns, 0.50), percentile(&ns, 0.95))
}

struct Arm {
    name: &'static str,
    net: Network,
    pruner: ReversiblePruner,
    ladder: SparsityLadder,
    plans: Vec<reprune::nn::ExecPlan>,
    scratch: Scratch,
}

fn arm(name: &'static str, int8_rungs: bool) -> Result<Arm, Box<dyn std::error::Error>> {
    use reprune::nn::PrecisionMode::{F32, Int8};
    let net = models::control_mlp(IN_FEATURES, &HIDDEN, CLASSES, 11)?;
    let mut cfg =
        LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9]).criterion(PruneCriterion::ChannelL2);
    if int8_rungs {
        cfg = cfg.precisions(vec![F32, F32, Int8, Int8]);
    }
    let ladder = cfg.build(&net)?;
    let plans = ladder_plans(&net, &ladder)?;
    let pruner = ReversiblePruner::attach(&net, ladder.clone())?;
    Ok(Arm { name, net, pruner, ladder, plans, scratch: Scratch::new() })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = SocModel::jetson_class();
    let input_dims = [IN_FEATURES];
    let mut frame_rng = Prng::new(3);
    let sample = Tensor::rand_uniform(&[IN_FEATURES], -1.0, 1.0, &mut frame_rng);

    let mut arms = [arm("f32", false)?, arm("int8", true)?];
    println!(
        "density × precision sweep ({} ticks, {} round trips per cell, int8 isa {})",
        TICKS,
        ROUNDTRIPS,
        qgemm::active_isa_i8()
    );
    println!(
        "workload: control MLP {IN_FEATURES}->{HIDDEN:?}->{CLASSES} | platform: {} at deployment scale {SCALE}x\n",
        soc.name
    );
    println!(
        "{:>5} {:>8} {:>10} {:>13} {:>13} {:>12} {:>14} {:>14}",
        "level", "density", "precision", "tick p50 ns", "tick p95 ns", "energy mJ", "restore p50", "restore p95"
    );

    // tick_p50[arm][level]
    let mut tick_p50 = [[0.0f64; 4]; 2];
    for level in 0..4usize {
        for (ai, a) in arms.iter_mut().enumerate() {
            let rung = a.ladder.level(level)?;
            let precision = rung.precision;
            a.pruner.set_level(&mut a.net, level)?;
            // Warm scratch buffers (incl. the int8 quant pools and the
            // weight-code cache) and the pruner's segment pools before
            // timing anything.
            for _ in 0..20 {
                a.net.predict_with(&sample, Some(&a.plans[level]), &mut a.scratch)?;
            }
            let (net, plans, scratch) = (&a.net, &a.plans, &mut a.scratch);
            let (t50, t95) = sampled(
                || {
                    net.predict_with(&sample, Some(&plans[level]), scratch)
                        .expect("inference tick");
                },
                TICKS,
            );
            tick_p50[ai][level] = t50;

            let profile = NetworkProfile::of_masked(&a.net, &input_dims, Some(&rung.masks))?
                .scaled(SCALE);
            let energy_mj = soc.inference_cost_at(&profile, precision).energy.as_millijoules();

            let (r50, r95) = if level == 0 {
                (0.0, 0.0)
            } else {
                let (pruner, net) = (&mut a.pruner, &mut a.net);
                pruner.set_level(net, 0).expect("warm restore");
                sampled(
                    || {
                        pruner.set_level(net, level).expect("prune");
                        pruner.set_level(net, 0).expect("restore");
                    },
                    ROUNDTRIPS,
                )
            };
            a.pruner.set_level(&mut a.net, 0)?;
            a.pruner.verify_restored(&a.net).expect("restore is bit-exact vs pre-attach f32");

            println!(
                "{:>5} {:>8.2} {:>10} {:>13.0} {:>13.0} {:>12.3} {:>14.0} {:>14.0}",
                level,
                1.0 - rung.sparsity,
                format!("{}/{precision:?}", a.name),
                t50,
                t95,
                energy_mj,
                r50,
                r95
            );
        }
    }

    println!();
    let mut ok = true;
    let [f32_p50, i8_p50] = &tick_p50;
    for (level, (&f32_ns, &i8_ns)) in f32_p50.iter().zip(i8_p50).enumerate().skip(2) {
        let speedup = f32_ns / i8_ns;
        println!(
            "level {level}: int8 tick p50 {i8_ns:.0} ns vs f32 twin {f32_ns:.0} ns ({speedup:.2}x)"
        );
        if i8_ns >= f32_ns {
            eprintln!("FAIL: int8 rung {level} is not faster than its f32 twin");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("\nint8 rungs beat their f32 twins at every quantized density; all restores bit-exact.");
    Ok(())
}
