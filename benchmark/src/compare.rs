//! `compare`: two results files (each one or more runs of `run`), judged
//! metric by metric against the bounds `BENCHMARK.json` fixes. Also how
//! "two sets of runs of the same code agree" is checked.

use crate::report::{Metric, Samples};
use crate::stats::{median, spread};
use serde::Value;
use std::collections::BTreeMap;

/// Schema tag of a results file.
pub const SCHEMA: &str = "adagp-benchmark-results-v1";

/// One workload's entry in a results file.
pub fn workload_value(samples: &Samples, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Value::object(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::String(crate::unit_of(m.name).to_string())),
                    ("n", Value::UInt(m.n as u64)),
                    ("note", Value::String(m.note.clone())),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("attempted", Value::UInt(samples.attempted)),
        ("failed", Value::UInt(samples.failed)),
        (
            "errors",
            Value::Array(samples.errors.iter().cloned().map(Value::String).collect()),
        ),
        ("metrics", Value::object(metrics)),
    ])
}

/// How one metric on one workload moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread exceeds the bound, and the two sets overlap.
    Unresolved,
}

/// By what share of the parent's median the change is worse (negative:
/// better), given which direction is better.
fn worse_by(better: &str, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    let delta = (change - parent) / parent;
    if better == "higher" {
        -delta
    } else {
        delta
    }
}

/// The rule of the choosing-metrics guide: regressed when the change's
/// median is worse than the parent's by more than the bound; where the
/// spread of either set is wider than the bound the metric is unresolved,
/// unless every run of one side reads better than every run of the other.
pub fn verdict(better: &str, bound: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let worse = worse_by(better, median(parent), median(change));
    let noisy = spread(parent).max(spread(change)) > bound;
    let beats = |a: &[f64], b: &[f64]| {
        a.iter()
            .all(|x| b.iter().all(|y| worse_by(better, *y, *x) < 0.0))
    };
    if noisy && !beats(change, parent) && !beats(parent, change) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// A results file reduced to what `compare` needs.
struct Results {
    env: Value,
    comparable: bool,
    /// workload → metric → one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (attempted, failed) summed over runs.
    counts: BTreeMap<String, (u64, u64)>,
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        _ => &[],
    }
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = serde::json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |name: &str| v.field(name).map_err(|e| format!("{path}: {e}"));
    if field("schema")?.as_str() != Some(SCHEMA) {
        return Err(format!("{path}: not a `{SCHEMA}` file"));
    }
    let Value::Array(runs) = field("runs")? else {
        return Err(format!("{path}: `runs` is not an array"));
    };
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut counts: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for run in runs {
        let workloads = run.field("workloads").map_err(|e| format!("{path}: {e}"))?;
        for (name, w) in entries(workloads) {
            let count = |f: &str| w.field(f).ok().and_then(Value::as_u64).unwrap_or(0);
            let c = counts.entry(name.clone()).or_default();
            c.0 += count("attempted");
            c.1 += count("failed");
            for (metric, m) in w.field("metrics").map(entries).unwrap_or(&[]) {
                if let Some(x) = m.field("value").ok().and_then(Value::as_f64) {
                    values
                        .entry(name.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(Results {
        env: field("env")?.clone(),
        comparable: field("comparable")? == &Value::Bool(true),
        values,
        counts,
    })
}

/// `(name, better, bound)` of every end-to-end metric in a `BENCHMARK.json`.
fn bounds(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = serde::json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let Ok(Value::Array(items)) = v.field("end_to_end") else {
        return Err(format!("{path}: no `end_to_end` list"));
    };
    items
        .iter()
        .map(|m| {
            let text = |f: &str| m.field(f).ok().and_then(Value::as_str).map(str::to_string);
            match (
                text("name"),
                text("better"),
                m.field("bound").ok().and_then(Value::as_f64),
            ) {
                (Some(n), Some(b), Some(x)) => Ok((n, b, x)),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

fn env_warnings(parent: &Value, change: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for (key, a) in entries(parent) {
        let b = change.field(key).ok();
        // The revision is expected to differ between a parent and a change.
        if key != "git" && key != "dirty" && b != Some(a) {
            out.push(format!("env `{key}` differs: {a:?} vs {b:?}"));
        }
    }
    for (side, env) in [("parent", parent), ("change", change)] {
        if env.field("dirty") == Ok(&Value::Bool(true)) {
            out.push(format!("{side} was measured on a -dirty tree"));
        }
    }
    out
}

/// `compare <parent.json> <change.json>`, with `BENCHMARK.json` read from
/// the working directory. Returns the exit code: non-zero on any regression
/// or any rise in failed share.
pub fn main(args: &[String]) -> i32 {
    let [parent_path, change_path] = args else {
        eprintln!("usage: compare <parent.json> <change.json>  (from the repository root)");
        return 2;
    };
    let loaded =
        load(parent_path).and_then(|p| Ok((p, load(change_path)?, bounds("BENCHMARK.json")?)));
    let (parent, change, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    for w in env_warnings(&parent.env, &change.env) {
        println!("warning: {w}");
    }
    if !(parent.comparable && change.comparable) {
        println!("warning: a --quick results file is not comparable");
    }

    let mut bad = false;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse%", "spread%", "bound%"
    );
    for (workload, metrics) in &parent.values {
        for (name, better, bound) in &bounds {
            let (Some(a), Some(b)) = (
                metrics.get(name),
                change.values.get(workload).and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let v = verdict(better, *bound, a, b);
            bad |= v == Verdict::Regressed;
            println!(
                "{workload:<16} {name:<16} {:>14.4} {:>14.4} {:>8.2} {:>7.2} {:>7.2}  {v:?}",
                median(a),
                median(b),
                100.0 * worse_by(better, median(a), median(b)),
                100.0 * spread(a).max(spread(b)),
                100.0 * bound,
            );
        }
        let share = |r: &Results| {
            r.counts
                .get(workload)
                .map_or(0.0, |&(att, failed)| failed as f64 / att.max(1) as f64)
        };
        if share(&change) > share(&parent) {
            println!(
                "{workload}: failed share rose from {} to {}",
                share(&parent),
                share(&change)
            );
            bad = true;
        }
    }
    i32::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let v = |better, parent: &[f64], change: &[f64]| verdict(better, 0.08, parent, change);
        assert_eq!(v("lower", &[100.0], &[105.0]), Verdict::Unchanged);
        assert_eq!(v("lower", &[100.0], &[109.0]), Verdict::Regressed);
        assert_eq!(v("lower", &[100.0], &[90.0]), Verdict::Improved);
        assert_eq!(v("higher", &[100.0], &[90.0]), Verdict::Regressed);
        assert_eq!(v("higher", &[100.0], &[110.0]), Verdict::Improved);
        assert_eq!(v("higher", &[0.0], &[5.0]), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_wins_every_run() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let shifted = [85.0, 105.0, 125.0, 95.0, 118.0];
        assert_eq!(
            verdict("lower", 0.08, &noisy, &shifted),
            Verdict::Unresolved
        );
        let far = [200.0, 240.0, 260.0, 220.0, 230.0];
        assert_eq!(verdict("lower", 0.08, &noisy, &far), Verdict::Regressed);
        assert_eq!(verdict("lower", 0.08, &far, &noisy), Verdict::Improved);
    }

    #[test]
    fn env_differences_and_dirty_trees_are_flagged() {
        let env = |threads: u64, dirty: bool| {
            Value::object(vec![
                ("adagp_threads", Value::UInt(threads)),
                (
                    "git",
                    Value::String(if dirty { "abc-dirty" } else { "abc" }.into()),
                ),
                ("dirty", Value::Bool(dirty)),
            ])
        };
        assert!(env_warnings(&env(2, false), &env(2, false)).is_empty());
        let w = env_warnings(&env(2, false), &env(1, true));
        assert_eq!(w.len(), 2, "{w:?}");
        assert!(w[0].contains("adagp_threads") && w[1].contains("-dirty"));
    }
}
