//! Cell-by-cell comparison of two stored runs — the cross-PR result
//! tracker.
//!
//! Cells are matched by their content-derived ID (so axis reordering or
//! grid growth between runs never misaligns the comparison), and every
//! metric is compared with a configurable relative tolerance. A delta is
//! a *regression* when it moves against the metric's direction
//! ([`Metric::higher_is_better`]): speed-up down, cycles/energy up.

use crate::store::{Metric, StoredCell, StoredRun, METRICS};
use std::collections::HashMap;

/// Tolerances for the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Relative deltas with magnitude ≤ `rel_tol` count as unchanged.
    /// The default (`2e-6`) absorbs the CSV's fixed-precision
    /// quantization of values of typical magnitude while flagging any
    /// real model change.
    pub rel_tol: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { rel_tol: 2e-6 }
    }
}

/// One metric delta that exceeded the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// The cell's readable key (`dataflow/dataset/model/design/schedule`).
    pub cell: String,
    /// Which metric moved.
    pub metric: Metric,
    /// Value in the `before` run.
    pub before: f64,
    /// Value in the `after` run.
    pub after: f64,
    /// `(after - before) / |before|`.
    pub rel_delta: f64,
}

impl MetricDelta {
    fn describe(&self) -> String {
        format!(
            "{}: {} {:.6} -> {:.6} ({:+.4}%)",
            self.cell,
            self.metric.name,
            self.before,
            self.after,
            100.0 * self.rel_delta
        )
    }
}

/// The outcome of diffing two runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Deltas that moved against their metric's direction.
    pub regressions: Vec<MetricDelta>,
    /// Deltas that moved with their metric's direction.
    pub improvements: Vec<MetricDelta>,
    /// Keys of cells present only in the `before` run.
    pub only_in_before: Vec<String>,
    /// Keys of cells present only in the `after` run.
    pub only_in_after: Vec<String>,
    /// Number of cells matched by ID between the runs.
    pub matched_cells: usize,
}

impl DiffReport {
    /// Whether any metric regressed (missing cells are not regressions —
    /// grids legitimately grow and shrink across PRs; they are reported
    /// separately).
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "matched {} cells: {} regression(s), {} improvement(s)\n",
            self.matched_cells,
            self.regressions.len(),
            self.improvements.len()
        );
        for d in &self.regressions {
            out.push_str(&format!("  REGRESSED  {}\n", d.describe()));
        }
        for d in &self.improvements {
            out.push_str(&format!("  improved   {}\n", d.describe()));
        }
        for k in &self.only_in_before {
            out.push_str(&format!("  only in before: {k}\n"));
        }
        for k in &self.only_in_after {
            out.push_str(&format!("  only in after:  {k}\n"));
        }
        out
    }
}

/// Compares `after` against `before` cell-by-cell, over every metric of
/// [`METRICS`].
pub fn diff_runs(before: &StoredRun, after: &StoredRun, cfg: &DiffConfig) -> DiffReport {
    let after_by_id: HashMap<&str, &StoredCell> =
        after.cells.iter().map(|c| (c.id.as_str(), c)).collect();
    let before_ids: std::collections::HashSet<&str> =
        before.cells.iter().map(|c| c.id.as_str()).collect();

    let mut report = DiffReport::default();
    for b in &before.cells {
        let Some(a) = after_by_id.get(b.id.as_str()) else {
            report.only_in_before.push(b.key());
            continue;
        };
        report.matched_cells += 1;
        for (i, metric) in METRICS.iter().enumerate() {
            let (old, new) = (b.metrics[i], a.metrics[i]);
            let denom = old.abs().max(f64::MIN_POSITIVE);
            let rel_delta = (new - old) / denom;
            if rel_delta.abs() <= cfg.rel_tol {
                continue;
            }
            let delta = MetricDelta {
                cell: b.key(),
                metric: *metric,
                before: old,
                after: new,
                rel_delta,
            };
            let improved = metric.higher_is_better == (rel_delta > 0.0);
            if improved {
                report.improvements.push(delta);
            } else {
                report.regressions.push(delta);
            }
        }
    }
    for a in &after.cells {
        if !before_ids.contains(a.id.as_str()) {
            report.only_in_after.push(a.key());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredCell;

    fn cell(id: &str, speedup: f64) -> StoredCell {
        StoredCell {
            id: id.to_string(),
            axes: [
                "WS".into(),
                "Cifar10".into(),
                "VGG13".into(),
                "ADA-GP-MAX".into(),
                "paper".into(),
                "default".into(),
                "default".into(),
            ],
            metrics: [
                speedup, 100.0, 50.0, 10.0, 5.0, 55.0, 0.9, 0.5, 120.0, 0.1, 48.0,
            ],
        }
    }

    fn run(cells: Vec<StoredCell>) -> StoredRun {
        StoredRun { cells }
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = run(vec![cell("aa", 1.5), cell("bb", 1.4)]);
        let r = diff_runs(&a, &a.clone(), &DiffConfig::default());
        assert!(!r.has_regressions());
        assert!(r.improvements.is_empty());
        assert_eq!(r.matched_cells, 2);
    }

    #[test]
    fn quantization_noise_is_tolerated() {
        let a = run(vec![cell("aa", 1.5)]);
        let b = run(vec![cell("aa", 1.5 * (1.0 - 1e-7))]);
        let r = diff_runs(&a, &b, &DiffConfig::default());
        assert!(!r.has_regressions());
    }

    #[test]
    fn speedup_drop_is_a_regression_and_rise_an_improvement() {
        let a = run(vec![cell("aa", 1.5)]);
        let down = run(vec![cell("aa", 1.2)]);
        let up = run(vec![cell("aa", 1.8)]);
        let r = diff_runs(&a, &down, &DiffConfig::default());
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].metric.name, "speedup");
        assert!(r.regressions[0].rel_delta < 0.0);
        let r = diff_runs(&a, &up, &DiffConfig::default());
        assert!(!r.has_regressions());
        assert_eq!(r.improvements.len(), 1);
    }

    #[test]
    fn cycle_increase_is_a_regression() {
        let a = run(vec![cell("aa", 1.5)]);
        let mut worse = cell("aa", 1.5);
        worse.metrics[2] *= 1.01; // adagp_cycles up 1%
        let r = diff_runs(&a, &run(vec![worse]), &DiffConfig::default());
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].metric.name, "adagp_cycles");
    }

    #[test]
    fn unmatched_cells_are_reported_not_regressed() {
        let a = run(vec![cell("aa", 1.5), cell("bb", 1.4)]);
        let b = run(vec![cell("aa", 1.5), cell("cc", 1.3)]);
        let r = diff_runs(&a, &b, &DiffConfig::default());
        assert!(!r.has_regressions());
        assert_eq!(r.matched_cells, 1);
        assert_eq!(r.only_in_before.len(), 1);
        assert_eq!(r.only_in_after.len(), 1);
    }

    #[test]
    fn tolerance_is_configurable() {
        let a = run(vec![cell("aa", 1.5)]);
        let b = run(vec![cell("aa", 1.5 * 0.99)]); // −1%
        assert!(diff_runs(&a, &b, &DiffConfig::default()).has_regressions());
        let loose = DiffConfig { rel_tol: 0.05 };
        assert!(!diff_runs(&a, &b, &loose).has_regressions());
    }

    #[test]
    fn report_renders_every_section() {
        let a = run(vec![cell("aa", 1.5), cell("bb", 1.4)]);
        let mut faster = cell("aa", 1.9);
        faster.metrics[4] *= 2.0; // energy doubled: regression
        let b = run(vec![faster, cell("cc", 1.0)]);
        let text = diff_runs(&a, &b, &DiffConfig::default()).render();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("improved"));
        assert!(text.contains("only in before"));
        assert!(text.contains("only in after"));
    }
}
