//! Kernel benchmark trajectory — machine-readable latency report for the
//! sparsity-aware compute engine (`BENCH_kernels.json`).
//!
//! Unlike the figure/table binaries this emits JSON, so kernel latency is
//! trackable as a trajectory across commits. Measured (median / p95 over
//! interleaved batches, see `reprune_bench::perf`):
//!
//! * tiled vs naive matmul at square sizes up to 256³,
//! * the int8 tiled GEMM vs the f32 tiled engine at the same sizes
//!   (`matmul_i8_tiled_*`, ISA recorded as `isa_i8`), per-row
//!   quantize/dequantize (the weight-code cache's miss cost), and
//!   precision-residual pack/apply on an int8 rung (`residual_pack_L1`
//!   / `residual_apply_L1`),
//! * int8 rungs against their f32 twins on `default_perception_cnn`
//!   (`predict_cnn_L{2,3}_int8` vs `predict_cnn_L{2,3}_f32`, derived
//!   `speedup_i8_over_f32_cnn_L{2,3}`), and its first Linear layer in
//!   both precisions (`linear_i8_96x512` vs `linear_f32_96x512`, derived
//!   `speedup_i8_over_f32_linear_96x512`, not asserted),
//! * the im2col + GEMM conv forward at the reference first-layer shape,
//! * a restore-from-log round trip (prune to the top level and back),
//! * the durable spill (`BENCH_restore.json`): sealed-record append,
//!   crash replay (`log_replay` = full scan + base restore + mark
//!   replay; `log_replay_fine_tuned` = the same on a per-level
//!   fine-tuned ladder), and the steady-state tick overhead of spilling
//!   (`tick_spill_on` / `tick_spill_off`, floor 0.95 off/on on the
//!   median of three in-process repeats),
//! * the end-to-end inference tick (`predict_with`) at every ladder
//!   density from 1.00 down to 0.25,
//! * steady-state arena allocation events (must be zero),
//! * the fleet suite (`BENCH_fleet.json`): `FleetRuntime::step_all` on
//!   1/2/4/8 stepping threads vs serial (the `fleet_step_pooled_*`
//!   entries keep their names), shared-vs-copied weight bytes,
//!   budget-planner scaling (8 -> 64 members), and `FleetPlanner`
//!   replanning a 10k-member fleet with ~1% of risks moving per tick,
//!   on shared and on per-member profiles.
//!
//! `--quick` shrinks sizes and batch counts for CI smoke and skips the
//! *timing* assertions — quick mode fails only on a panic (a real bug),
//! never on a noisy-runner timing regression. Full mode asserts the
//! acceptance shape: tiled ≥ 2.5× naive at 256³, int8 levels 2 and 3
//! predicting faster than their f32 twins on the reference CNN (unless
//! the int8 ISA is `portable`), tick latency strictly decreasing as
//! density drops, zero steady-state allocations.
//!
//! Run with:
//! `cargo run --release -p reprune-bench --bin perf_kernels \
//!   [-- --quick] [-- --out path] [-- --out-restore path] [-- --out-fleet path]`

use reprune::nn::dataset::{render_scene, SceneContext};
use reprune::nn::layer::Layer;
use reprune::nn::{models, PrecisionMode, QuantScratch, Scratch};
use reprune::prune::{ladder_plans, LadderConfig, PruneCriterion, ReversiblePruner};
use reprune::tensor::conv::{self, Conv2dSpec};
use reprune::tensor::linalg::{self, GemmScratch};
use reprune::tensor::qgemm::{self, QGemmScratch};
use reprune::tensor::rng::Prng;
use reprune::tensor::Tensor;
use reprune_bench::perf::{measure, measure_pair, report_json, KernelStat};

fn random_tensor(dims: &[usize], rng: &mut Prng) -> Tensor {
    let volume: usize = dims.iter().product();
    let data: Vec<f32> = (0..volume).map(|_| rng.next_uniform(-1.0, 1.0)).collect();
    Tensor::from_vec(data, dims).expect("volume matches dims")
}

/// Median restore_roundtrip_L3 before the restore fast path (arena
/// segments + blocked checksums + pooled buffers), measured on this
/// reference configuration. The `restore_l3_speedup` derived entry and
/// the full-mode ≥4x assertion are relative to this number.
const RESTORE_L3_BASELINE_NS: f64 = 1_344_830.2;

/// In-process repeats of the timed section behind each single-ratio
/// full-mode floor (`restore_l3_speedup`, the spill tick ratio). The
/// floor reads the median repeat, so one noisy section on a shared
/// host cannot fail the run by itself; every repeat is written to
/// `BENCH_restore.json`.
const GATE_REPEATS: usize = 3;

/// Sorts `stats` by `key` and returns the median element (the upper
/// one for an even count).
fn median_by<T: Clone>(stats: &[T], key: impl Fn(&T) -> f64) -> T {
    let mut sorted = stats.to_vec();
    sorted.sort_by(|a, b| key(a).total_cmp(&key(b)));
    sorted[sorted.len() / 2].clone()
}

/// Renders values as a JSON array with three decimals.
fn json_array(values: impl IntoIterator<Item = f64>) -> String {
    let parts: Vec<String> = values.into_iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", parts.join(", "))
}

struct Cfg {
    quick: bool,
    out_path: String,
    out_restore_path: String,
    out_fleet_path: String,
    /// Square matmul sizes (n for n×n×n), ascending; the last is the
    /// headline tiled-vs-naive comparison.
    matmul_sizes: Vec<(usize, u32)>, // (n, iters_per_batch)
    batches: usize,
    conv_iters: u32,
    restore_batches: usize,
    checksum_iters: u32,
    tick_iters: u32,
    steady_ticks: usize,
    fleet_members: usize,
    fleet_batches: usize,
    fleet_iters: u32,
    plan_batches: usize,
    plan_iters: u32,
}

fn parse_args() -> Cfg {
    let mut quick = false;
    let mut out_path = String::from("BENCH_kernels.json");
    let mut out_restore_path = String::from("BENCH_restore.json");
    let mut out_fleet_path = String::from("BENCH_fleet.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--out-restore" => out_restore_path = args.next().expect("--out-restore needs a path"),
            "--out-fleet" => out_fleet_path = args.next().expect("--out-fleet needs a path"),
            other => panic!(
                "unknown argument {other:?} (expected --quick / --out <path> / \
                 --out-restore <path> / --out-fleet <path>)"
            ),
        }
    }
    if quick {
        Cfg {
            quick,
            out_path,
            out_restore_path,
            out_fleet_path,
            matmul_sizes: vec![(48, 8), (96, 4)],
            batches: 5,
            conv_iters: 20,
            restore_batches: 8,
            checksum_iters: 10,
            tick_iters: 5,
            steady_ticks: 12,
            fleet_members: 4,
            fleet_batches: 3,
            fleet_iters: 1,
            plan_batches: 5,
            plan_iters: 8,
        }
    } else {
        Cfg {
            quick,
            out_path,
            out_restore_path,
            out_fleet_path,
            matmul_sizes: vec![(64, 40), (128, 10), (256, 4)],
            batches: 25,
            conv_iters: 200,
            restore_batches: 40,
            checksum_iters: 50,
            tick_iters: 40,
            steady_ticks: 60,
            fleet_members: 8,
            fleet_batches: 12,
            fleet_iters: 2,
            plan_batches: 25,
            plan_iters: 64,
        }
    }
}

fn main() {
    let cfg = parse_args();
    let mode = if cfg.quick { "quick" } else { "full" };
    let isa = linalg::active_isa();
    println!("perf_kernels ({mode} mode, isa {isa}) -> {}", cfg.out_path);

    let mut rng = Prng::new(0x5EED);
    let mut stats: Vec<KernelStat> = Vec::new();
    let mut derived: Vec<(String, String)> = Vec::new();

    // --- 1. Tiled vs naive matmul, interleaved batches per size. ---
    let mut last_speedup = 0.0;
    let mut last_size = 0;
    for &(n, iters) in &cfg.matmul_sizes {
        let a = random_tensor(&[n, n], &mut rng);
        let b = random_tensor(&[n, n], &mut rng);
        let pair = measure_pair(
            &format!("matmul_tiled_{n}"),
            &format!("matmul_naive_{n}"),
            cfg.batches,
            iters,
            || linalg::matmul(&a, &b).expect("square matmul"),
            || linalg::matmul_naive(&a, &b).expect("square matmul"),
        );
        // Median of per-pair ratios: immune to the slow frequency /
        // co-tenant drift that makes independent medians jitter.
        last_speedup = pair.ratio_b_over_a;
        last_size = n;
        println!(
            "  matmul {n}³: tiled {:.0} ns, naive {:.0} ns ({last_speedup:.2}x)",
            pair.a.median_ns, pair.b.median_ns
        );
        stats.push(pair.a);
        stats.push(pair.b);
    }
    derived.push((
        format!("speedup_tiled_over_naive_{last_size}"),
        format!("{last_speedup:.3}"),
    ));

    // --- 1b. Int8 tiled GEMM vs the f32 tiled engine, same sizes. The
    //         f32 side re-runs interleaved with the i8 side (instead of
    //         reusing section 1's medians) so the ratio is drift-immune.
    let isa_i8 = qgemm::active_isa_i8();
    let mut i8_speedup = 0.0;
    for &(n, iters) in &cfg.matmul_sizes {
        let af = random_tensor(&[n, n], &mut rng);
        let bf = random_tensor(&[n, n], &mut rng);
        let ai: Vec<i8> = (0..n * n).map(|_| (rng.next_uniform(-127.0, 127.0)) as i8).collect();
        let bi: Vec<i8> = (0..n * n).map(|_| (rng.next_uniform(-127.0, 127.0)) as i8).collect();
        let mut out = vec![0i32; n * n];
        let mut qscratch = QGemmScratch::new();
        qgemm::matmul_i8_slices_into(&ai, n, n, &bi, n, None, &mut out, &mut qscratch);
        let pair = measure_pair(
            &format!("matmul_i8_tiled_{n}"),
            &format!("matmul_f32_tiled_ref_{n}"),
            cfg.batches,
            iters,
            || qgemm::matmul_i8_slices_into(&ai, n, n, &bi, n, None, &mut out, &mut qscratch),
            || linalg::matmul(&af, &bf).expect("square matmul"),
        );
        i8_speedup = pair.ratio_b_over_a;
        println!(
            "  matmul i8 {n}³ ({isa_i8}): {:.0} ns vs f32 tiled {:.0} ns ({i8_speedup:.2}x)",
            pair.a.median_ns, pair.b.median_ns
        );
        stats.push(pair.a);
        stats.push(pair.b);
    }
    // Derived values are raw JSON; the ISA name is a string and must be
    // quoted or the report file fails to parse.
    derived.push(("isa_i8".to_string(), format!("\"{isa_i8}\"")));
    derived.push((
        format!("speedup_i8_over_f32_{last_size}"),
        format!("{i8_speedup:.3}"),
    ));

    // --- 1c. Per-row quantize / dequantize of one 4096-weight row — the
    //         weight-cache-miss cost: the executor re-quantizes a row only
    //         after its weights change (steady-state predicts hit the
    //         code cache). ---
    {
        let row: Vec<f32> = (0..4096).map(|_| rng.next_uniform(-1.0, 1.0)).collect();
        let mut qrow = vec![0i8; 4096];
        let scale = qgemm::quantize_row_i8(&row, &mut qrow);
        let mut frow = vec![0.0f32; 4096];
        stats.push(measure("quantize_row_4096", cfg.batches, cfg.conv_iters, || {
            std::hint::black_box(qgemm::quantize_row_i8(&row, &mut qrow));
        }));
        stats.push(measure("dequantize_row_4096", cfg.batches, cfg.conv_iters, || {
            qgemm::dequantize_row_i8(&qrow, scale, &mut frow);
        }));
    }

    // --- 1d. Int8 rungs against their f32 twins on the system's own
    //         model: the keep-or-delete gate for the precision axis. Two
    //         copies of the reference CNN share one ChannelL2 ladder; the
    //         twin runs levels 2-3 at int8. Interleaved batches per level,
    //         one fixed input. ---
    let mut cnn_i8_speedups: Vec<(usize, f64)> = Vec::new();
    {
        use reprune::nn::PrecisionMode::{F32, Int8};
        let twin = |precisions: Vec<PrecisionMode>| {
            let net = models::default_perception_cnn(11).expect("reference model builds");
            let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                .criterion(PruneCriterion::ChannelL2)
                .precisions(precisions)
                .build(&net)
                .expect("ladder builds");
            let plans = ladder_plans(&net, &ladder).expect("plans build");
            let pruner = ReversiblePruner::attach(&net, ladder).expect("attach");
            (net, pruner, plans, Scratch::new())
        };
        let (mut net_f, mut pruner_f, plans_f, mut scratch_f) = twin(vec![F32; 4]);
        let (mut net_q, mut pruner_q, plans_q, mut scratch_q) = twin(vec![F32, F32, Int8, Int8]);
        let sample = render_scene(0, SceneContext::Clear, &mut Prng::new(3));
        for level in [2usize, 3] {
            pruner_f.set_level(&mut net_f, level).expect("set level");
            pruner_q.set_level(&mut net_q, level).expect("set level");
            let pair = measure_pair(
                &format!("predict_cnn_L{level}_int8"),
                &format!("predict_cnn_L{level}_f32"),
                cfg.batches,
                cfg.tick_iters,
                || {
                    net_q.predict_with(&sample.input, Some(&plans_q[level]), &mut scratch_q)
                        .expect("int8 tick")
                },
                || {
                    net_f.predict_with(&sample.input, Some(&plans_f[level]), &mut scratch_f)
                        .expect("f32 tick")
                },
            );
            let speedup = pair.ratio_b_over_a;
            println!(
                "  predict cnn L{level} ({isa_i8}): int8 {:.0} ns vs f32 {:.0} ns ({speedup:.2}x)",
                pair.a.median_ns, pair.b.median_ns
            );
            derived.push((format!("speedup_i8_over_f32_cnn_L{level}"), format!("{speedup:.3}")));
            cnn_i8_speedups.push((level, speedup));
            stats.push(pair.a);
            stats.push(pair.b);
        }
    }

    // --- 1e. The reference CNN's first Linear (512 -> 96), dense, in both
    //         precisions: the per-layer cost behind the int8 rungs' lead.
    //         One fixed input from its own stream; reported, not asserted.
    {
        let net = models::default_perception_cnn(11).expect("reference model builds");
        let layer = net
            .layers()
            .find(|l| matches!(l, Layer::Linear(_)))
            .expect("the reference CNN has a Linear layer");
        let x = random_tensor(&[512], &mut Prng::new(0x11EA));
        let (mut cols_f, mut gemm_f, mut out_f) =
            (Tensor::default(), GemmScratch::new(), Tensor::default());
        let (mut cols_q, mut gemm_q, mut out_q) =
            (Tensor::default(), GemmScratch::new(), Tensor::default());
        let mut quant = QuantScratch::default();
        let pair = measure_pair(
            "linear_i8_96x512",
            "linear_f32_96x512",
            cfg.batches,
            cfg.conv_iters,
            || {
                layer
                    .forward_infer_into_q(
                        &x,
                        None,
                        &mut cols_q,
                        &mut gemm_q,
                        &mut quant,
                        &mut out_q,
                    )
                    .expect("int8 linear")
            },
            || {
                layer
                    .forward_infer_into(&x, None, &mut cols_f, &mut gemm_f, &mut out_f)
                    .expect("f32 linear")
            },
        );
        let speedup = pair.ratio_b_over_a;
        println!(
            "  linear 96x512 ({isa}/{isa_i8}): int8 {:.0} ns vs f32 {:.0} ns ({speedup:.2}x)",
            pair.a.median_ns, pair.b.median_ns
        );
        derived.push((
            "speedup_i8_over_f32_linear_96x512".to_string(),
            format!("{speedup:.3}"),
        ));
        stats.push(pair.a);
        stats.push(pair.b);
    }

    // --- 2. Conv forward at the reference first-layer shape. ---
    {
        let input = random_tensor(&[1, 32, 32], &mut rng);
        let weight = random_tensor(&[16, 1, 3, 3], &mut rng);
        let bias = random_tensor(&[16], &mut rng);
        let spec = Conv2dSpec::square(3, 1, 1);
        let mut cols = Tensor::default();
        let mut out = Tensor::default();
        let mut gemm = GemmScratch::new();
        stats.push(measure("conv2d_16c_3x3_32x32", cfg.batches, cfg.conv_iters, || {
            conv::conv2d_into(&input, &weight, &bias, spec, None, &mut cols, &mut out, &mut gemm)
                .expect("reference conv shape")
        }));
    }

    // --- 3. Restore fast path: round trips, checksums, segment ops. ---
    //
    // Everything here also lands in the dedicated restore report
    // (`BENCH_restore.json`) so the prune/restore trajectory is tracked
    // independently of the compute-kernel trajectory.
    let mut rstats: Vec<KernelStat> = Vec::new();
    let mut rderived: Vec<(String, String)> = Vec::new();
    let (restore_l3_repeats, restore_l3_median, checksum_speedup) = {
        let mut net = models::default_perception_cnn(11).expect("reference model builds");
        let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .expect("ladder builds");
        let mut pruner = ReversiblePruner::attach(&net, ladder).expect("attach");

        // Round trip to every ladder level. One round trip per batch
        // (iters = 1): each sample is one full prune-and-restore, and
        // the ladder is back at level 0 between samples by construction.
        // Level 3 feeds the `restore_l3_speedup` floor, so its section
        // runs GATE_REPEATS times and reports the median repeat.
        let mut restore_l3_repeats = Vec::new();
        let mut restore_l3_median = 0.0;
        for level in 1..=3usize {
            // Warmup: populate the segment pools before timing.
            pruner.set_level(&mut net, level).expect("warmup prune");
            pruner.set_level(&mut net, 0).expect("warmup restore");
            let repeats = if level == 3 { GATE_REPEATS } else { 1 };
            let runs: Vec<KernelStat> = (0..repeats)
                .map(|_| {
                    let mut samples = criterion::SampleStats::default();
                    for _ in 0..cfg.restore_batches {
                        samples.batch_ns.push(criterion::time_batch(1, &mut || {
                            pruner.set_level(&mut net, level).expect("prune");
                            pruner.set_level(&mut net, 0).expect("restore from log");
                        }));
                    }
                    KernelStat::from_samples(&format!("restore_roundtrip_L{level}"), &samples, 1)
                })
                .collect();
            let stat = median_by(&runs, |s| s.median_ns);
            println!("  restore round trip L{level}: {:.0} ns", stat.median_ns);
            if level == 3 {
                restore_l3_repeats = runs.iter().map(|s| s.median_ns).collect();
                restore_l3_median = stat.median_ns;
                stats.push(stat.clone());
            }
            rstats.push(stat);
        }

        // Segment pack (push to L3) and apply (pop to L0), timed
        // separately with the inverse transition untimed between
        // samples so each sample isolates one direction.
        let mut pack = criterion::SampleStats::default();
        let mut apply = criterion::SampleStats::default();
        for _ in 0..cfg.restore_batches {
            pack.batch_ns.push(criterion::time_batch(1, &mut || {
                pruner.set_level(&mut net, 3).expect("pack segments")
            }));
            apply.batch_ns.push(criterion::time_batch(1, &mut || {
                pruner.set_level(&mut net, 0).expect("apply segments")
            }));
        }
        for (name, samples) in [("segment_pack_L3", &pack), ("segment_apply_L3", &apply)] {
            let stat = KernelStat::from_samples(name, samples, 1);
            println!("  {name}: {:.0} ns", stat.median_ns);
            rstats.push(stat);
        }

        // Steady state: with the pools warm, further ladder cycles must
        // not allocate (mirrors the nn `Scratch` invariant).
        let alloc_before = pruner.allocation_events();
        for _ in 0..cfg.steady_ticks {
            pruner.set_level(&mut net, 3).expect("steady prune");
            pruner.set_level(&mut net, 0).expect("steady restore");
        }
        let pruner_alloc_delta = pruner.allocation_events() - alloc_before;
        rderived.push((
            "steady_state_pruner_alloc_events".to_string(),
            pruner_alloc_delta.to_string(),
        ));
        assert_eq!(pruner_alloc_delta, 0, "steady-state ladder cycles must not allocate");

        // Blocked (v2) vs scalar FNV (v1) full-model checksum,
        // interleaved so the ratio is drift-immune.
        let pair = measure_pair(
            "checksum_weights_blocked",
            "checksum_weights_fnv",
            cfg.batches,
            cfg.checksum_iters,
            || reprune::prune::weights_checksum(&net),
            || reprune::prune::weights_checksum_fnv(&net),
        );
        let checksum_speedup = pair.ratio_b_over_a;
        println!(
            "  checksum: blocked {:.0} ns, fnv {:.0} ns ({checksum_speedup:.2}x)",
            pair.a.median_ns, pair.b.median_ns
        );
        rstats.push(pair.a);
        rstats.push(pair.b);
        (restore_l3_repeats, restore_l3_median, checksum_speedup)
    };
    let restore_l3_speedup = RESTORE_L3_BASELINE_NS / restore_l3_median;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rderived.push(("cores".to_string(), cores.to_string()));
    rderived.push((
        "restore_l3_baseline_ns".to_string(),
        format!("{RESTORE_L3_BASELINE_NS:.1}"),
    ));
    rderived.push(("restore_l3_speedup".to_string(), format!("{restore_l3_speedup:.3}")));
    rderived.push((
        "restore_l3_speedup_repeats".to_string(),
        json_array(restore_l3_repeats.iter().map(|m| RESTORE_L3_BASELINE_NS / m)),
    ));
    rderived.push(("checksum_speedup".to_string(), format!("{checksum_speedup:.3}")));

    // --- 3a. Precision residuals: packing an int8 rung (quantize the
    //         live weights in place, capture the f32 originals as a
    //         delta segment) and applying it back (bit-exact restore).
    //         Timed as full rung transitions, so each sample includes
    //         the capacity walk of the same level — the shape a risk
    //         spike actually pays. ---
    {
        let mut net = models::default_perception_cnn(11).expect("reference model builds");
        let ladder = LadderConfig::new(vec![0.0, 0.3])
            .criterion(PruneCriterion::ChannelL2)
            .precisions(vec![PrecisionMode::F32, PrecisionMode::Int8])
            .build(&net)
            .expect("mixed-precision ladder builds");
        let mut pruner = ReversiblePruner::attach(&net, ladder).expect("attach");
        rderived.push((
            "residual_entries_L1".to_string(),
            pruner.hop_entries(0, 1).rung.to_string(),
        ));
        pruner.set_level(&mut net, 1).expect("warmup pack");
        pruner.set_level(&mut net, 0).expect("warmup apply");
        let mut pack = criterion::SampleStats::default();
        let mut apply = criterion::SampleStats::default();
        for _ in 0..cfg.restore_batches {
            pack.batch_ns.push(criterion::time_batch(1, &mut || {
                pruner.set_level(&mut net, 1).expect("pack residual")
            }));
            apply.batch_ns.push(criterion::time_batch(1, &mut || {
                pruner.set_level(&mut net, 0).expect("apply residual")
            }));
        }
        for (name, samples) in [("residual_pack_L1", &pack), ("residual_apply_L1", &apply)] {
            let stat = KernelStat::from_samples(name, samples, 1);
            println!("  {name}: {:.0} ns", stat.median_ns);
            stats.push(stat);
        }
        pruner.verify_restored(&net).expect("residual apply must be bit-exact");
    }

    // --- 3b. Durable spill: sealed-record append, crash replay, and the
    //         steady-state tick overhead of spilling (PR 6). ---
    {
        use reprune::platform::DurableLog;
        use reprune::prune::spill::frame_record;
        use reprune::prune::RecordKind;
        use reprune::runtime::envelope::SafetyEnvelope;
        use reprune::runtime::manager::{RuntimeManager, RuntimeManagerConfig};
        use reprune::runtime::policy::{AdaptiveConfig, Policy};
        use reprune::runtime::{storm_events, FaultDefense, SpillConfig, StormConfig};
        use reprune::scenario::ScenarioConfig;

        let net = models::default_perception_cnn(11).expect("reference model builds");
        let build_ladder = |net: &reprune::nn::Network| {
            LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                .criterion(PruneCriterion::ChannelL2)
                .build(net)
                .expect("ladder builds")
        };

        // Representative sealed segment frames: prune a clone to the top
        // level and serialize its reversal-log segments.
        let frames: Vec<Vec<u8>> = {
            let mut pruned = net.clone();
            let mut pruner =
                ReversiblePruner::attach(&pruned, build_ladder(&pruned)).expect("attach");
            pruner.set_level(&mut pruned, 3).expect("prune to top level");
            (0..pruner.log_segments())
                .filter_map(|i| pruner.log_segment(i))
                .map(|d| frame_record(RecordKind::Segment, &d.to_spill_payload()))
                .collect()
        };
        assert!(!frames.is_empty(), "a pruned ladder must hold log segments");
        let mut log = DurableLog::in_memory();
        let mut fi = 0usize;
        let stat = measure("spill_append", cfg.batches, cfg.checksum_iters, || {
            if log.len() > (1 << 22) {
                log.truncate(0).expect("reset bench device");
            }
            let f = &frames[fi % frames.len()];
            fi += 1;
            log.append(f).expect("append sealed record");
        });
        println!("  spill_append: {:.0} ns/record", stat.median_ns);
        rstats.push(stat);

        let envelope = SafetyEnvelope::new(vec![0.6, 0.4, 0.2]).expect("envelope");
        let mgr_config = |spill: bool| {
            let c = RuntimeManagerConfig::new(
                Policy::adaptive(AdaptiveConfig::default()),
                envelope.clone(),
            )
            .defense(FaultDefense::FullChain)
            .frame_seed(8);
            if spill { c.spill(SpillConfig::new()) } else { c }
        };

        // A real crashed-device image: a short stormy drive with the
        // spill on, then the full scan + base restore + mark replay.
        let stormy = ScenarioConfig::new()
            .duration_s(20.0)
            .seed(9)
            .generate()
            .with_faults(storm_events(&StormConfig::severe(5.0, 18.0), 9));
        let device = {
            let mut m = RuntimeManager::attach(net.clone(), build_ladder(&net), mgr_config(true))
                .expect("attach");
            m.run(&stormy).expect("stormy drive");
            m.spill_device_bytes().expect("spill enabled")
        };
        rderived.push(("spill_device_bytes".to_string(), device.len().to_string()));
        let mut replay = criterion::SampleStats::default();
        for _ in 0..cfg.restore_batches.min(10) {
            replay.batch_ns.push(criterion::time_batch(1, &mut || {
                let (mgr, report) = RuntimeManager::recover(
                    net.clone(),
                    build_ladder(&net),
                    mgr_config(true),
                    DurableLog::from_bytes(device.clone()),
                )
                .expect("recover");
                assert!(report.resumed, "bench device must resume");
                std::hint::black_box(mgr.resume_tick());
            }));
        }
        let stat = KernelStat::from_samples("log_replay", &replay, 1);
        println!("  log_replay: {:.0} ns (device {} B)", stat.median_ns, device.len());
        rstats.push(stat);

        // The same drive and recover loop on a per-level fine-tuned
        // ladder (30 tuning steps per level, as the benchmark's
        // crash_recover vehicle): the device's base record carries the
        // tune hops, so recovery attaches from them instead of tuning.
        let build_ft_ladder = |net: &reprune::nn::Network| {
            LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                .criterion(PruneCriterion::ChannelL2)
                .fine_tune(reprune::prune::FineTuneSpec {
                    steps: 30,
                    lr: 0.01,
                    seed: 0xF1DE,
                })
                .build(net)
                .expect("fine-tuned ladder builds")
        };
        let ft_device = {
            let mut m =
                RuntimeManager::attach(net.clone(), build_ft_ladder(&net), mgr_config(true))
                    .expect("fine-tuned attach");
            m.run(&stormy).expect("fine-tuned stormy drive");
            m.spill_device_bytes().expect("spill enabled")
        };
        rderived.push((
            "spill_device_bytes_fine_tuned".to_string(),
            ft_device.len().to_string(),
        ));
        let mut ft_replay = criterion::SampleStats::default();
        for _ in 0..cfg.restore_batches.min(10) {
            ft_replay.batch_ns.push(criterion::time_batch(1, &mut || {
                let (mgr, report) = RuntimeManager::recover(
                    net.clone(),
                    build_ft_ladder(&net),
                    mgr_config(true),
                    DurableLog::from_bytes(ft_device.clone()),
                )
                .expect("fine-tuned recover");
                assert!(report.resumed, "fine-tuned bench device must resume");
                std::hint::black_box(mgr.resume_tick());
            }));
        }
        let stat = KernelStat::from_samples("log_replay_fine_tuned", &ft_replay, 1);
        println!(
            "  log_replay_fine_tuned: {:.0} ns (device {} B)",
            stat.median_ns,
            ft_device.len()
        );
        rstats.push(stat);

        // Steady-state MAPE-K tick with and without spilling. Both
        // managers first age identically through half the benign drive
        // (levels settle, sealed segments drain to the device), then the
        // same mid-drive tick repeats: no transitions, so the measured
        // delta is exactly the per-tick spill tax (view scan + commit
        // mark + verified append).
        let benign = ScenarioConfig::new().duration_s(60.0).seed(3).generate();
        let ticks = benign.ticks();
        let dt = benign.config().dt_s;
        let mut on = RuntimeManager::attach(net.clone(), build_ladder(&net), mgr_config(true))
            .expect("attach");
        let mut off = RuntimeManager::attach(net.clone(), build_ladder(&net), mgr_config(false))
            .expect("attach");
        for t in &ticks[..ticks.len() / 2] {
            on.step(t, dt).expect("spill-on warmup");
            off.step(t, dt).expect("spill-off warmup");
        }
        let steady = &ticks[ticks.len() / 2];
        let repeats: Vec<_> = (0..GATE_REPEATS)
            .map(|_| {
                measure_pair(
                    "tick_spill_on",
                    "tick_spill_off",
                    cfg.batches,
                    cfg.tick_iters,
                    || {
                        on.step(steady, dt).expect("spill-on tick");
                    },
                    || {
                        off.step(steady, dt).expect("spill-off tick");
                    },
                )
            })
            .collect();
        // off/on: 1.0 means spilling is free; the acceptance floor is
        // 0.95 (amortized appends must cost <= ~5% of a tick), read on
        // the median of GATE_REPEATS interleaved measurements.
        let pair = median_by(&repeats, |p| p.ratio_b_over_a);
        let spill_ratio = pair.ratio_b_over_a;
        println!(
            "  tick: spill on {:.0} ns, off {:.0} ns (off/on = {spill_ratio:.3}, median of {:?})",
            pair.a.median_ns,
            pair.b.median_ns,
            repeats.iter().map(|p| p.ratio_b_over_a).collect::<Vec<_>>()
        );
        rstats.push(pair.a);
        rstats.push(pair.b);
        rderived.push(("spill_tick_ratio_off_over_on".to_string(), format!("{spill_ratio:.3}")));
        rderived.push((
            "spill_tick_ratio_off_over_on_repeats".to_string(),
            json_array(repeats.iter().map(|p| p.ratio_b_over_a)),
        ));
        if !cfg.quick {
            assert!(
                spill_ratio >= 0.95,
                "steady-state tick with spilling must stay within 5% of no-spill \
                 on the median repeat (off/on = {spill_ratio:.3})"
            );
        }
    }

    // --- 4. End-to-end tick per ladder density (1.00 -> 0.25). ---
    let (tick_medians, densities, alloc_delta) = {
        let mut net = models::default_perception_cnn(11).expect("reference model builds");
        let ladder = LadderConfig::new(vec![0.0, 0.25, 0.5, 0.75])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .expect("ladder builds");
        let densities: Vec<f64> = ladder.levels().map(|l| 1.0 - l.sparsity).collect();
        let plans = ladder_plans(&net, &ladder).expect("plans build");
        let mut pruner = ReversiblePruner::attach(&net, ladder).expect("attach");
        let mut frame_rng = Prng::new(3);
        let sample = render_scene(0, SceneContext::Clear, &mut frame_rng);
        let mut scratch = Scratch::new();

        // Interleave the levels round-robin (L0,L1,…,L0,L1,… per batch):
        // a slow-timescale noise burst then lands on every level equally
        // instead of poisoning one level's median.
        let mut level_samples: Vec<criterion::SampleStats> =
            vec![criterion::SampleStats::default(); plans.len()];
        for (k, plan) in plans.iter().enumerate() {
            pruner.set_level(&mut net, k).expect("set level");
            criterion::time_batch(cfg.tick_iters, &mut || {
                net.predict_with(&sample.input, Some(plan), &mut scratch)
                    .expect("warmup tick")
            });
        }
        for _ in 0..cfg.batches {
            for (k, samples) in level_samples.iter_mut().enumerate() {
                pruner.set_level(&mut net, k).expect("set level");
                samples.batch_ns.push(criterion::time_batch(cfg.tick_iters, &mut || {
                    net.predict_with(&sample.input, Some(&plans[k]), &mut scratch)
                        .expect("inference tick")
                }));
            }
        }
        let mut tick_medians = Vec::with_capacity(plans.len());
        for (density, samples) in densities.iter().zip(&level_samples) {
            let stat = KernelStat::from_samples(
                &format!("tick_density_{density:.2}"),
                samples,
                cfg.tick_iters,
            );
            println!("  tick @ density {density:.2}: {:.0} ns", stat.median_ns);
            tick_medians.push(stat.median_ns);
            stats.push(stat);
        }

        // --- 5. Steady state: every buffer is warm at every level, so
        //        further ticks must not allocate at all. ---
        let before = scratch.allocation_events();
        for i in 0..cfg.steady_ticks {
            let k = i % plans.len();
            pruner.set_level(&mut net, k).expect("set level");
            net.predict_with(&sample.input, Some(&plans[k]), &mut scratch)
                .expect("steady-state tick");
        }
        (tick_medians, densities, scratch.allocation_events() - before)
    };
    derived.push((
        "tick_median_ns_by_density".to_string(),
        format!(
            "[{}]",
            densities
                .iter()
                .zip(&tick_medians)
                .map(|(d, ns)| format!("[{d:.2},{ns:.1}]"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    derived.push(("steady_state_alloc_events".to_string(), alloc_delta.to_string()));

    // Deterministic invariant: holds in both modes, noise-free.
    assert_eq!(alloc_delta, 0, "steady-state inference must not allocate");

    // Restore cost relative to one full-density inference tick — the
    // headline "near-tick-cost restore" number.
    let restore_to_tick_ratio = restore_l3_median / tick_medians[0];
    rderived.push((
        "restore_to_tick_ratio".to_string(),
        format!("{restore_to_tick_ratio:.3}"),
    ));
    println!(
        "  restore L3 = {restore_to_tick_ratio:.2}x one full-density tick \
         ({restore_l3_speedup:.2}x over pre-fast-path baseline)"
    );

    if !cfg.quick {
        // Timing assertions only in full mode; quick/CI fails on panic,
        // not on a noisy-runner timing regression.
        // 2.5x floor, not 3x: the copy-on-write tensor storage rework
        // shifted codegen enough that the *naive* oracle runs measurably
        // faster, compressing the measured ratio from ~3.2x to ~2.8x on
        // the reference container while tiled latency itself held.
        assert!(
            last_speedup >= 2.5,
            "tiled matmul must be >= 2.5x naive at {last_size}³ (got {last_speedup:.2}x)"
        );
        // Keyed on the detected int8 ISA: the 2x floor holds where the
        // 512-bit dot-product tiles run; narrower hosts report the
        // trajectory number without gating CI on hardware they lack.
        if isa_i8.starts_with("avx512") {
            assert!(
                i8_speedup >= 2.0,
                "int8 tiled matmul must be >= 2x the f32 tiled engine at {last_size}³ \
                 on {isa_i8} (got {i8_speedup:.2}x)"
            );
        } else {
            println!("  (skipping i8-speedup assertion: isa_i8 = {isa_i8})");
        }
        // The precision axis earns its place only if its rungs beat their
        // f32 twins on the model every workload runs. Portable hosts have
        // no int8 SIMD tiles, so they report without gating.
        if isa_i8 != "portable" {
            for &(level, speedup) in &cnn_i8_speedups {
                assert!(
                    speedup > 1.0,
                    "int8 level {level} must predict faster than its f32 twin on \
                     default_perception_cnn on {isa_i8} (got {speedup:.2}x)"
                );
            }
        } else {
            println!("  (skipping cnn int8-over-f32 assertion: isa_i8 = {isa_i8})");
        }
        for w in tick_medians.windows(2) {
            assert!(
                w[1] < w[0],
                "tick latency must strictly decrease with density: {tick_medians:?}"
            );
        }
        assert!(
            restore_l3_speedup >= 4.0,
            "restore_roundtrip_L3 must be >= 4x the pre-fast-path baseline on the median \
             repeat (got {restore_l3_speedup:.2}x, median {restore_l3_median:.0} ns of \
             repeats {restore_l3_repeats:?} ns)"
        );
        assert!(
            checksum_speedup >= 4.0,
            "blocked checksum must be >= 4x scalar FNV (got {checksum_speedup:.2}x)"
        );
    }

    // --- 6. Fleet executor: pooled vs serial stepping, shared-weight
    //        footprint, and budget-planner scaling (`BENCH_fleet.json`). ---
    let mut fstats: Vec<KernelStat> = Vec::new();
    let mut fderived: Vec<(String, String)> = Vec::new();
    {
        use reprune::platform::Joules;
        use reprune::runtime::envelope::SafetyEnvelope;
        use reprune::runtime::fleet::{plan_budget, plan_budget_prevalidated, FleetMember};
        use reprune::runtime::FleetPlanner;
        use reprune::runtime::manager::{RuntimeManager, RuntimeManagerConfig};
        use reprune::runtime::policy::Policy;
        use reprune::runtime::FleetRuntime;
        use reprune::scenario::ScenarioConfig;

        let net = models::default_perception_cnn(31).expect("reference model builds");
        let utility = [0.95, 0.93, 0.88, 0.60];
        let make_fleet = |workers: usize| -> FleetRuntime {
            let mut f = FleetRuntime::new(
                (0..cfg.fleet_members)
                    .map(|i| {
                        let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                            .criterion(PruneCriterion::ChannelL2)
                            .build(&net)
                            .expect("ladder builds");
                        let mgr = RuntimeManager::attach(
                            net.clone(),
                            ladder,
                            RuntimeManagerConfig::new(
                                Policy::Oracle,
                                SafetyEnvelope::evenly_spaced(4, 0.6).expect("envelope"),
                            )
                            .frame_seed(i as u64),
                        )
                        .expect("attach");
                        (format!("m{i}"), mgr, utility.to_vec())
                    })
                    .collect(),
            )
            .expect("fleet builds");
            f.set_workers(workers);
            f
        };

        // Worker-count sweep: step_all at 1/2/4/8 workers, each against
        // a fresh serial baseline, interleaved on the same tick sequence
        // so both fleets in a pair age identically between samples.
        // Every entry records the threads a step actually ran on
        // (`pool_size()` is `min(workers, members)`).
        let scenario = ScenarioConfig::new().duration_s(120.0).seed(77).generate();
        let ticks = scenario.ticks();
        let dt = scenario.config().dt_s;
        // Freshly-built footprint: once members start pruning, their
        // mutated tensors detach from the shared base copy-on-write.
        let s = make_fleet(1).weight_storage_bytes();
        let budget_for = |f: &FleetRuntime| {
            Some(Joules(
                f.profiles()
                    .iter()
                    .map(|p| p.energy_per_level[0].0)
                    .sum::<f64>()
                    * 0.5,
            ))
        };
        let mut speedup_at_4 = None;
        for &w in &[1usize, 2, 4, 8] {
            let mut serial = make_fleet(1);
            let mut pooled = make_fleet(w);
            let budget = budget_for(&serial);
            let mut pi = 0usize;
            let mut si = 0usize;
            let pair = measure_pair(
                &format!("fleet_step_pooled_{w}c"),
                &format!("fleet_step_serial_vs_{w}c"),
                cfg.fleet_batches,
                cfg.fleet_iters,
                || {
                    let t = &ticks[pi % ticks.len()];
                    pi += 1;
                    pooled.step_all(t, dt, budget).expect("pooled step")
                },
                || {
                    let t = &ticks[si % ticks.len()];
                    si += 1;
                    serial.step_all(t, dt, budget).expect("serial step")
                },
            );
            let step_speedup = pair.ratio_b_over_a;
            println!(
                "  fleet step ({} members, {w} workers, pool {}): pooled {:.0} ns, serial {:.0} ns ({step_speedup:.2}x)",
                cfg.fleet_members,
                pooled.pool_size(),
                pair.a.median_ns,
                pair.b.median_ns
            );
            fstats.push(pair.a);
            fstats.push(pair.b);
            fderived.push((format!("pool_size_{w}c"), pooled.pool_size().to_string()));
            fderived.push((
                format!("step_speedup_pooled_over_serial_{w}c"),
                format!("{step_speedup:.3}"),
            ));
            if w == 4 {
                speedup_at_4 = Some(step_speedup);
                // The acceptance metric keeps its historical key: pooled
                // speedup at 4 workers over serial stepping.
                fderived.push((
                    "step_speedup_pooled_over_serial".to_string(),
                    format!("{step_speedup:.3}"),
                ));
            }
        }
        fderived.push(("fleet_members".to_string(), cfg.fleet_members.to_string()));
        fderived.push(("cores".to_string(), cores.to_string()));
        let step_speedup = speedup_at_4.expect("4-worker sweep entry ran");

        // Shared vs copied weight storage — deterministic byte counts,
        // asserted in both modes.
        let dense_bytes: usize = net.param_storage().iter().map(|(_, b)| b).sum();
        let copied = FleetRuntime::new(
            (0..cfg.fleet_members)
                .map(|i| {
                    let mut private = net.clone();
                    private.unshare_params();
                    let ladder = LadderConfig::new(vec![0.0, 0.3, 0.6, 0.9])
                        .criterion(PruneCriterion::ChannelL2)
                        .build(&private)
                        .expect("ladder builds");
                    let mgr = RuntimeManager::attach(
                        private,
                        ladder,
                        RuntimeManagerConfig::new(
                            Policy::Oracle,
                            SafetyEnvelope::evenly_spaced(4, 0.6).expect("envelope"),
                        )
                        .frame_seed(i as u64),
                    )
                    .expect("attach");
                    (format!("c{i}"), mgr, utility.to_vec())
                })
                .collect(),
        )
        .expect("fleet builds");
        let c = copied.weight_storage_bytes();
        let memory_ratio = c.unique as f64 / s.unique as f64;
        println!(
            "  fleet weights: shared {} B, copied {} B ({memory_ratio:.2}x), dense {} B",
            s.unique, c.unique, dense_bytes
        );
        fderived.push(("dense_weight_bytes".to_string(), dense_bytes.to_string()));
        fderived.push(("shared_unique_bytes".to_string(), s.unique.to_string()));
        fderived.push(("copied_unique_bytes".to_string(), c.unique.to_string()));
        fderived.push((
            "memory_ratio_copied_over_shared".to_string(),
            format!("{memory_ratio:.3}"),
        ));
        assert!(
            s.unique < (dense_bytes as f64 * 1.5) as usize,
            "shared fleet must hold < 1.5x one member's dense weights \
             (got {} vs dense {dense_bytes})",
            s.unique
        );
        assert!(
            c.unique >= dense_bytes * cfg.fleet_members,
            "copied fleet must hold one full copy per member"
        );

        // Budget-planner scaling: an 8x-larger fleet planned to its
        // envelope floor (budget 0 forces the maximum number of greedy
        // moves). The heap greedy is O(moves x log members); a rescan per
        // move is O(members²) here and a per-move total recompute cubic,
        // so an 8x fleet must cost well under 8³ = 512x.
        let synth = |n: usize| -> (Vec<FleetMember>, Vec<f64>) {
            let members = (0..n)
                .map(|i| {
                    let f = 1.0 + (i % 7) as f64 * 0.25;
                    FleetMember {
                        name: format!("s{i}"),
                        envelope: SafetyEnvelope::evenly_spaced(4, 0.6).expect("envelope"),
                        energy_per_level: [10.0, 7.0, 4.0, 2.0]
                            .iter()
                            .map(|&e| Joules(e * f))
                            .collect(),
                        utility_per_level: vec![0.95, 0.93 - 0.001 * (i % 5) as f64, 0.88, 0.60],
                    }
                })
                .collect();
            let risks = (0..n).map(|i| (i % 10) as f64 * 0.05).collect();
            (members, risks)
        };
        let (small_m, small_r) = synth(8);
        let (large_m, large_r) = synth(64);
        let pair = measure_pair(
            "plan_budget_64m",
            "plan_budget_8m",
            cfg.plan_batches,
            cfg.plan_iters,
            || plan_budget_prevalidated(&large_m, &large_r, Some(Joules(0.0))).expect("plan"),
            || plan_budget_prevalidated(&small_m, &small_r, Some(Joules(0.0))).expect("plan"),
        );
        let plan_scaling = 1.0 / pair.ratio_b_over_a;
        let plan64_ns = pair.a.median_ns;
        println!(
            "  plan_budget: 64 members {:.0} ns, 8 members {:.0} ns ({plan_scaling:.1}x for 8x fleet)",
            pair.a.median_ns, pair.b.median_ns
        );
        // Per-member normalized cost makes the scaling factor honest: a
        // superlinear planner shows up as 64m cost-per-member exceeding
        // the 8m one, independent of the absolute fleet sizes.
        fderived.push((
            "plan_ns_per_member_64m".to_string(),
            format!("{:.1}", pair.a.median_ns / 64.0),
        ));
        fderived.push((
            "plan_ns_per_member_8m".to_string(),
            format!("{:.1}", pair.b.median_ns / 8.0),
        ));
        fstats.push(pair.a);
        fstats.push(pair.b);
        fderived.push((
            "plan_scaling_64_over_8".to_string(),
            format!("{plan_scaling:.3}"),
        ));

        // Fleet-scale replans through `FleetPlanner`: 10k members, and
        // before every replan ~1% of the risks move. That moves some
        // bands, so every timed call is a full heap replan (the quiet-tick
        // cache never hits). `plan_budget_10k_incremental` runs the
        // 35-profile synth above; `plan_budget_10k_distinct` gives every
        // member its own profile (a jittered energy factor and utility
        // drop). The greedy costs O(moves x log members), so cost per
        // member may grow with log n and no faster: full mode asserts
        // each 10k entry's per-member cost within 4 x (log2 10k / log2 64)
        // of the 64-member plan's.
        let distinct = |n: usize| -> (Vec<FleetMember>, Vec<f64>) {
            let mut rng = Prng::new(0x10C0);
            let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let members = (0..n)
                .map(|i| {
                    let f = 1.0 + unit() * 0.75;
                    let drop = 0.001 + unit() * 0.04;
                    FleetMember {
                        name: format!("d{i}"),
                        envelope: SafetyEnvelope::evenly_spaced(4, 0.6).expect("envelope"),
                        energy_per_level: [10.0, 7.0, 4.0, 2.0]
                            .iter()
                            .map(|&e| Joules(e * f))
                            .collect(),
                        utility_per_level: vec![0.95, 0.93 - drop, 0.88, 0.60],
                    }
                })
                .collect();
            let risks = (0..n).map(|i| (i % 10) as f64 * 0.05).collect();
            (members, risks)
        };
        let floor = Some(Joules(0.0));
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut replan_10k = |name: &str, (members, mut risks): (Vec<FleetMember>, Vec<f64>)| {
            let mut planner = FleetPlanner::new(members.clone()).expect("planner builds");
            // Exactness at scale, outside the timing loop: the stateful
            // plan must equal the stateless one byte-for-byte.
            assert_eq!(
                planner.plan(&risks, floor).expect("plan"),
                plan_budget_prevalidated(&members, &risks, floor).expect("plan"),
                "{name}: FleetPlanner must match plan_budget_prevalidated"
            );
            let stat = measure(name, cfg.plan_batches, cfg.plan_iters, || {
                // Deterministically move ~1% of the risks, then replan.
                for _ in 0..100 {
                    lcg = lcg
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let i = (lcg >> 33) as usize % risks.len();
                    risks[i] = ((lcg >> 11) & 0x3FF) as f64 / 1024.0;
                }
                planner.plan(&risks, floor).expect("plan")
            });
            // And again after the mutation storm: the planner's bands
            // and cache must not have drifted.
            assert_eq!(
                planner.plan(&risks, floor).expect("plan"),
                plan_budget_prevalidated(&members, &risks, floor).expect("plan"),
                "{name}: FleetPlanner drifted after the mutation storm"
            );
            stat
        };
        let stat10k = replan_10k("plan_budget_10k_incremental", synth(10_000));
        let stat10k_distinct = replan_10k("plan_budget_10k_distinct", distinct(10_000));
        let plan_scaling_10k = stat10k.median_ns / plan64_ns;
        let per_member_64 = plan64_ns / 64.0;
        let per_member_ratio = (stat10k.median_ns / 10_000.0) / per_member_64;
        let per_member_ratio_distinct = (stat10k_distinct.median_ns / 10_000.0) / per_member_64;
        let per_member_bound = 4.0 * 10_000f64.log2() / 64f64.log2();
        println!(
            "  plan_budget 10k replan: {:.0} ns shared profiles, {:.0} ns per-member profiles \
             (per member {per_member_ratio:.2}x / {per_member_ratio_distinct:.2}x the 64-member plan, \
             bound {per_member_bound:.2}x)",
            stat10k.median_ns, stat10k_distinct.median_ns
        );
        fderived.push((
            "plan_ns_per_member_10k".to_string(),
            format!("{:.1}", stat10k.median_ns / 10_000.0),
        ));
        fderived.push((
            "plan_ns_per_member_10k_distinct".to_string(),
            format!("{:.1}", stat10k_distinct.median_ns / 10_000.0),
        ));
        fderived.push((
            "plan_scaling_10k_over_64".to_string(),
            format!("{plan_scaling_10k:.3}"),
        ));
        fderived.push((
            "plan_per_member_10k_over_64".to_string(),
            format!("{per_member_ratio:.3}"),
        ));
        fderived.push((
            "plan_per_member_10k_distinct_over_64".to_string(),
            format!("{per_member_ratio_distinct:.3}"),
        ));
        fderived.push((
            "plan_per_member_bound".to_string(),
            format!("{per_member_bound:.3}"),
        ));
        fstats.push(stat10k);
        fstats.push(stat10k_distinct);

        // Validation hoisting: the per-tick arbitration path skips the
        // O(members x levels) profile re-check FleetRuntime did once at
        // construction. Reported as a trajectory number, not asserted
        // (the delta is small and noise-prone).
        let pair = measure_pair(
            "plan_prevalidated_64m",
            "plan_validating_64m",
            cfg.plan_batches,
            cfg.plan_iters,
            || plan_budget_prevalidated(&large_m, &large_r, Some(Joules(0.0))).expect("plan"),
            || plan_budget(&large_m, &large_r, Some(Joules(0.0))).expect("plan"),
        );
        fderived.push((
            "plan_validation_overhead".to_string(),
            format!("{:.3}", pair.ratio_b_over_a),
        ));
        fstats.push(pair.a);
        fstats.push(pair.b);

        if !cfg.quick {
            assert!(
                plan_scaling < 128.0,
                "plan_budget must scale sub-cubically: 8x members cost {plan_scaling:.1}x \
                 (quadratic bound with headroom is 128x)"
            );
            for (name, ratio) in [
                ("plan_budget_10k_incremental", per_member_ratio),
                ("plan_budget_10k_distinct", per_member_ratio_distinct),
            ] {
                assert!(
                    ratio <= per_member_bound,
                    "{name}: cost per member must stay within {per_member_bound:.2}x of the \
                     64-member plan's, 4 x (log2 10k / log2 64) (got {ratio:.2}x)"
                );
            }
            if cores >= 4 {
                assert!(
                    step_speedup >= 1.8,
                    "pooled step_all at 4 workers must be >= 1.8x serial on {cores} cores \
                     (got {step_speedup:.2}x)"
                );
            } else {
                println!("  (skipping pooled-speedup assertion: only {cores} core(s))");
            }
        }
    }

    let json = report_json(mode, isa, &stats, &derived);
    std::fs::write(&cfg.out_path, &json).expect("write benchmark report");
    println!("wrote {} ({} entries)", cfg.out_path, stats.len());

    let rjson = report_json(mode, isa, &rstats, &rderived);
    std::fs::write(&cfg.out_restore_path, &rjson).expect("write restore report");
    println!("wrote {} ({} entries)", cfg.out_restore_path, rstats.len());

    let fjson = report_json(mode, isa, &fstats, &fderived);
    std::fs::write(&cfg.out_fleet_path, &fjson).expect("write fleet report");
    println!("wrote {} ({} entries)", cfg.out_fleet_path, fstats.len());
}
