//! End-to-end benchmark of the reprune runtime.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <commute|storm|fleet|crash_recover|all> [--seed N] [--seconds S] \
//!     [--trace 0|1] [--quick] [--spans-dir DIR] [--out FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --compare BEFORE.jsonl AFTER.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! One run drives one workload through the public API only
//! (`RuntimeManager::attach`/`step`/`recover`, `FleetRuntime::new`/
//! `step_with_risks`), checks the outputs, and prints every metric with
//! its unit. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). See README.md for the workloads,
//! metric definitions and bounds.

mod compare;
mod drive;
mod heap;
mod inputs;
mod json;
mod replay;
mod stats;

use inputs::Workload;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

const USAGE: &str = "usage: benchmark --workload <commute|storm|fleet|crash_recover|all> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans-dir DIR] [--out FILE]\n       \
benchmark --compare BEFORE.jsonl AFTER.jsonl [--bench BENCHMARK.json]";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    spans_dir: PathBuf,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bench: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        quick: false,
        spans_dir: PathBuf::from("target/benchmark-trace"),
        out: None,
        compare: None,
        bench: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            "--spans-dir" => cli.spans_dir = value()?.into(),
            "--out" => cli.out = Some(value()?.into()),
            "--bench" => cli.bench = value()?.into(),
            "--compare" => {
                let a = value()?;
                cli.compare = Some((a.into(), value()?.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match compare::compare(&cli.bench, a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    match cli.workload.as_deref() {
        Some("all") => run_all(&cli),
        Some(name) => match Workload::parse(name) {
            Some(w) => run_one(&cli, w),
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The `"metrics"` object of a result line.
fn metrics_json(metrics: &[drive::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last stdout line: the verdict, operation counts and metrics.
fn result_line(o: &drive::Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(if trace { &o.per_layer } else { &o.end_to_end })
    )
}

/// The line `--out` appends: the result plus what `--compare` keys on.
fn out_line(cli: &Cli, w: Workload, o: &drive::Outcome) -> String {
    let mut metrics = o.end_to_end.clone();
    metrics.extend(o.per_layer.iter().cloned());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \"passes\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"input_digest\": \"{:016x}\", \
         \"records_digest\": \"{:016x}\", \"metrics\": {}, \"outcomes\": {}}}",
        json::quote(w.name()),
        cli.seed,
        json::number(cli.seconds),
        u8::from(cli.trace),
        cli.quick,
        o.passes,
        o.failed == 0,
        o.attempted,
        o.failed,
        o.input_digest,
        o.records_digest,
        metrics_json(&metrics),
        metrics_json(&o.outcomes)
    )
}

fn run_one(cli: &Cli, w: Workload) -> ExitCode {
    let net = inputs::trained_model();
    let opts = drive::Options {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        spans_dir: cli.spans_dir.clone(),
    };
    let o = drive::run(&opts, &net);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} passes {} trace {} quick {} available_parallelism {threads}",
        w.name(),
        cli.seed,
        o.passes,
        u8::from(cli.trace),
        u8::from(cli.quick)
    );
    println!("input_digest {:016x}", o.input_digest);
    println!("records_digest {:016x}", o.records_digest);
    for (kind, list) in [
        ("end_to_end", &o.end_to_end),
        ("per_layer", &o.per_layer),
        ("outcome", &o.outcomes),
    ] {
        for m in list {
            println!("{kind} {} {} {}", m.name, json::number(m.value), m.unit);
        }
    }
    for note in &o.notes {
        println!("note {note}");
    }
    for f in &o.failures {
        println!("FAILED {f}");
    }
    let mut ok = o.failed == 0;
    if let Some(path) = &cli.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", out_line(cli, w, &o)));
        if let Err(e) = appended {
            eprintln!("--out {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{}", result_line(&o, cli.trace));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child process per workload (so `peak_rss_mb` is per
/// workload), relaying its output. With `--trace 1` each workload runs
/// untraced and traced: both must print the same `records_digest`, and
/// the traced step p50 over the untraced one is the tracing overhead.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let child = |w: Workload, trace: bool| -> Option<String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--spans-dir")
            .arg(&cli.spans_dir);
        if cli.quick {
            cmd.arg("--quick");
        }
        if let Some(out) = &cli.out {
            cmd.arg("--out").arg(out);
        }
        let output = cmd.stderr(Stdio::inherit()).output().ok()?;
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        print!("{stdout}");
        output.status.success().then_some(stdout)
    };
    let digest = |out: &str| {
        out.lines()
            .find_map(|l| l.strip_prefix("records_digest "))
            .map(str::to_string)
    };
    let last_metric = |out: &str, name: &str| {
        let doc = json::Json::parse(out.lines().last()?).ok()?;
        doc.get("metrics")?.get(name)?.get("value")?.num()
    };
    let mut ok = true;
    for w in Workload::ALL {
        let Some(untraced) = child(w, false) else {
            println!("workload {} failed", w.name());
            ok = false;
            continue;
        };
        if !cli.trace {
            continue;
        }
        let Some(traced) = child(w, true) else {
            println!("workload {} failed when traced", w.name());
            ok = false;
            continue;
        };
        if digest(&untraced) != digest(&traced) {
            println!(
                "FAILED {}: timed and traced runs printed different records_digest",
                w.name()
            );
            ok = false;
        }
        if let (Some(plain), Some(traced)) = (
            last_metric(&untraced, "tick_p50_us"),
            last_metric(&traced, "runtime.manager.step_us_p50"),
        ) {
            println!(
                "tracing_overhead {} {:.4} (traced step p50 / untraced tick p50)",
                w.name(),
                traced / plain
            );
        }
    }
    println!("all workloads {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &json::Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(json::Json::arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(json::Json::str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// Every workload at smoke size, traced: every metric
    /// BENCHMARK.json names is reported, every name is valid, every
    /// check passes, and the result line parses.
    #[test]
    fn quick_runs_report_every_metric_and_pass_every_check() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let doc = json::Json::parse(&text).expect("BENCHMARK.json parses");
        let (e2e, layer) = (names(&doc, "end_to_end"), names(&doc, "per_layer"));
        assert!(e2e.iter().chain(&layer).all(|n| stats::valid_name(n)));
        assert!(compare::rules(&doc).is_ok());
        let net = inputs::trained_model();
        for w in Workload::ALL {
            let opts = drive::Options {
                workload: w,
                seed: inputs::DEFAULT_SEED,
                seconds: 0.0,
                trace: true,
                quick: true,
                spans_dir: std::env::temp_dir().join("reprune-benchmark-test"),
            };
            let o = drive::run(&opts, &net);
            assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.failures);
            assert!(o.attempted > 0);
            let got = |list: &[drive::Metric]| {
                list.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()
            };
            assert_eq!(got(&o.end_to_end), e2e, "{}", w.name());
            assert_eq!(got(&o.per_layer), layer, "{}", w.name());
            for trace in [false, true] {
                let line = json::Json::parse(&result_line(&o, trace)).expect("result line parses");
                let keys: Vec<&String> = line.obj().expect("object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            }
        }
    }

    #[test]
    fn parses_a_workload_command_line() {
        let args = [
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let cli = parse_args(args.map(String::from)).expect("valid");
        assert_eq!(cli.workload.as_deref(), Some("fleet"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        for bad in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--seconds", "-1"],
            &["--bogus"],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }
}
