//! `--compare`: judges two sets of runs against `BENCHMARK.json`'s
//! bounds, one verdict per (metric, workload) pair.

use crate::json::Json;
use crate::stats::{median, quartiles, spread, valid_name};
use std::collections::BTreeMap;
use std::path::Path;

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median improved by more than the bound.
    Better,
    /// Medians within the bound of each other.
    Same,
    /// Median worsened by more than the bound.
    Worse,
    /// A side's spread exceeds the bound, so the bound cannot be judged.
    Unresolved,
}

/// An end-to-end metric's comparison rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the first median.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message when the document lacks a well-formed
/// `end_to_end` list.
pub fn rules(doc: &Json) -> Result<Vec<Rule>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::str).filter(|n| valid_name(n));
            let name = name.ok_or("metric without a valid name")?;
            let better = m
                .get("better")
                .and_then(Json::str)
                .ok_or("metric without 'better'")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without a bound")?;
            Ok(Rule {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// Judges `b` against `a` under `rule`: a side whose interquartile
/// spread exceeds the bound leaves the pair unresolved, unless every run
/// of `b` beats every run of `a`.
pub fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb), Some(sa), Some(sb)) = (median(a), median(b), spread(a), spread(b))
    else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    if sa.max(sb) > rule.bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = (mb - ma) / ma.abs();
    let worsened = if rule.lower_is_better {
        change
    } else {
        -change
    };
    if worsened > rule.bound {
        Verdict::Worse
    } else if worsened < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One untraced run read back from an `--out` file.
struct Run {
    workload: String,
    seed: u64,
    digests: (String, String),
    metrics: BTreeMap<String, f64>,
}

fn read_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if doc.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let text_of = |k: &str| doc.get(k).and_then(Json::str).unwrap_or("").to_string();
        let metrics = doc
            .get("metrics")
            .and_then(Json::obj)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
                    .collect()
            })
            .unwrap_or_default();
        runs.push(Run {
            workload: text_of("workload"),
            seed: doc.get("seed").and_then(Json::num).unwrap_or(-1.0) as u64,
            digests: (text_of("input_digest"), text_of("records_digest")),
            metrics,
        });
    }
    Ok(runs)
}

/// Compares the untraced runs in `a` (before) and `b` (after) and
/// prints one verdict per (metric, workload). Returns whether nothing
/// was worse or unresolved and every seed run on both sides printed the
/// same digests.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn compare(bench: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let doc_text =
        std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let rules = rules(&Json::parse(&doc_text)?)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut workloads: Vec<&str> = runs_a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut clean = true;
    println!(
        "{:<14} {:<22} {:>4} {:>14} {:>8} {:>4} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "n_a", "median_a", "iqr_a", "n_b", "median_b", "iqr_b", "change"
    );
    for w in workloads {
        for rule in &rules {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(&rule.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            let v = verdict(rule, &va, &vb);
            clean &= matches!(v, Verdict::Better | Verdict::Same);
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            let iqr = |v: &[f64]| {
                quartiles(v).map_or(f64::NAN, |(q1, q3)| {
                    (q3 - q1) / median(v).unwrap_or(f64::NAN)
                })
            };
            println!(
                "{w:<14} {:<22} {:>4} {ma:>14.4} {:>7.2}% {:>4} {mb:>14.4} {:>7.2}% {:>7.2}%  {v:?}",
                rule.name,
                va.len(),
                iqr(&va) * 100.0,
                vb.len(),
                iqr(&vb) * 100.0,
                (mb - ma) / ma * 100.0,
            );
        }
    }
    let (mut same, mut differ) = (0, 0);
    for x in &runs_a {
        for y in runs_b
            .iter()
            .filter(|y| y.workload == x.workload && y.seed == x.seed)
        {
            if x.digests == y.digests {
                same += 1;
            } else {
                differ += 1;
                println!(
                    "digest mismatch: {} seed {}: {:?} vs {:?}",
                    x.workload, x.seed, x.digests, y.digests
                );
            }
        }
    }
    println!("digests: {same} same-seed pairs identical, {differ} differ");
    Ok(clean && differ == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_apply_bound_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let faster = [85.0, 86.0, 84.0, 85.5, 84.5];
        let close = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(verdict(&rule(true), &a, &slower), Verdict::Worse);
        assert_eq!(verdict(&rule(true), &a, &faster), Verdict::Better);
        assert_eq!(verdict(&rule(true), &a, &close), Verdict::Same);
        assert_eq!(verdict(&rule(false), &a, &slower), Verdict::Better);
        assert_eq!(verdict(&rule(false), &a, &faster), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [100.0, 140.0, 80.0, 120.0, 90.0];
        let b = [101.0, 139.0, 81.0, 119.0, 91.0];
        assert_eq!(verdict(&rule(true), &a, &b), Verdict::Unresolved);
        let far = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(verdict(&rule(true), &a, &far), Verdict::Better);
        assert_eq!(verdict(&rule(true), &a, &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn reads_rules_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "x_us", "unit": "us", "better": "lower", "bound": 0.1},
                               {"name": "y", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#,
        )
        .expect("valid");
        let r = rules(&doc).expect("rules");
        assert_eq!(r.len(), 2);
        assert!(r[0].lower_is_better && !r[1].lower_is_better);
        assert_eq!(r[1].bound, 0.2);
        assert!(rules(&Json::parse("{}").expect("valid")).is_err());
    }
}
