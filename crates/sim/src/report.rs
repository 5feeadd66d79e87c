//! Plain-text reports of a simulated batch: the span timeline (a textual
//! Gantt chart), per-resource utilization and the buffer-occupancy
//! summary — what `critpath sim` prints for one cell — plus the bridge
//! into `adagp-obs`'s critical-path analyzer ([`critical_path`]).

use crate::engine::SimResult;
use crate::workload::BatchSim;
use adagp_obs::crit::{analyze_dag, CritReport, CritTask};

/// Renders the span table: one line per executed task, in start order.
/// `limit` truncates long timelines (0 = everything).
pub fn span_table(result: &SimResult, limit: usize) -> String {
    let mut out = String::from("  start      end        dur        resource         task\n");
    let shown = if limit == 0 {
        result.spans.len()
    } else {
        limit.min(result.spans.len())
    };
    for span in &result.spans[..shown] {
        let resource = match result.tasks.resource(span.task) {
            Some(r) => result.tasks.resources()[r].name.as_str(),
            None => "-",
        };
        out.push_str(&format!(
            "  {:<10} {:<10} {:<10} {:<16} {}\n",
            span.start,
            span.end,
            span.end - span.start,
            resource,
            result.tasks.label(span.task)
        ));
    }
    if shown < result.spans.len() {
        out.push_str(&format!(
            "  … {} more spans (raise --limit or export --trace)\n",
            result.spans.len() - shown
        ));
    }
    out
}

/// Renders the utilization/occupancy summary of one simulated batch.
pub fn utilization_report(sim: &BatchSim) -> String {
    let r = &sim.result;
    let mut out = format!(
        "phase {} ({}): makespan {} cycles\n",
        sim.phase.name(),
        sim.design.map_or("baseline", |d| d.name()),
        r.makespan
    );
    for (i, res) in r.tasks.resources().iter().enumerate() {
        out.push_str(&format!(
            "  {:<16} busy {:>12} cycles  utilization {:>6.1}%\n",
            res.name,
            r.busy[i],
            100.0 * r.utilization(i)
        ));
    }
    out.push_str(&format!(
        "  model {} + predictor {} + buffer-spill {} cycles; overlap efficiency {:.1}%\n",
        sim.stats.model_cycles,
        sim.stats.predictor_cycles,
        sim.stats.spill_cycles,
        100.0 * sim.overlap_efficiency()
    ));
    out.push_str(&format!(
        "  peak buffer occupancy {} words over {} change points\n",
        r.buffer_peak,
        r.buffer_curve.len()
    ));
    out
}

/// Converts a finished simulation into the neutral task form
/// `adagp_obs::crit` analyzes: exact start/end cycles from the spans,
/// the engine's ready cycles and admission causes, and resource names as
/// lanes (`-` for resourceless synchronization nodes).
pub fn crit_tasks(result: &SimResult) -> Vec<CritTask> {
    let graph = &result.tasks;
    (0..graph.len())
        .map(|id| {
            let span = result.span_of(id);
            CritTask {
                label: graph.label(id),
                kind: graph.kind(id).name().to_string(),
                lane: graph
                    .resource(id)
                    .map_or_else(|| "-".to_string(), |r| graph.resources()[r].name.clone()),
                start: span.start,
                end: span.end,
                ready: result.ready_of[id],
                deps: graph.deps(id).collect(),
                unblocked_by: result.unblocked_by[id],
            }
        })
        .collect()
}

/// The zero-slack chain and blame report of one finished simulation.
/// The chain's summed segment durations equal `result.makespan`
/// bit-exactly (the engine invariant `adagp_obs::validate_critpath`
/// machine-checks).
pub fn critical_path(result: &SimResult, title: &str) -> CritReport {
    analyze_dag(&crit_tasks(result), title)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{simulate_batch, Phase, SimConfig, SimLayer};
    use adagp_accel::layer_cost::LayerCost;
    use adagp_accel::AdaGpDesign;

    fn sim() -> BatchSim {
        let layers: Vec<SimLayer> = (0..3u64)
            .map(|i| SimLayer {
                label: format!("l{i}").into(),
                cost: LayerCost {
                    fw: 100 * (i + 1),
                    bw: 200 * (i + 1),
                    alpha: 10,
                },
                weight_words: 256,
                activation_words: 64,
                spill_words: 512,
            })
            .collect();
        simulate_batch(
            Phase::Gp,
            Some(AdaGpDesign::Max),
            &layers,
            &SimConfig::default(),
        )
    }

    #[test]
    fn span_table_lists_and_truncates() {
        let s = sim();
        let full = span_table(&s.result, 0);
        assert!(full.contains("fwd l0") && full.contains("pred-fill l2"));
        assert!(full.contains("spill l0"), "spill tasks appear in the table");
        let short = span_table(&s.result, 2);
        assert!(short.contains("more spans"));
        assert_eq!(short.lines().count(), 1 + 2 + 1); // header + 2 + ellipsis
    }

    #[test]
    fn utilization_report_names_every_lane() {
        let text = utilization_report(&sim());
        assert!(text.contains("pe-array"));
        assert!(text.contains("predictor-array"));
        assert!(text.contains("dram"));
        assert!(text.contains("overlap efficiency"));
        assert!(text.contains("peak buffer occupancy"));
    }

    #[test]
    fn critical_path_chain_equals_makespan_bit_exactly() {
        let s = sim();
        let report = critical_path(&s.result, "unit");
        assert_eq!(report.makespan, s.result.makespan);
        let chain_sum: u64 = report.chain.iter().map(|c| c.end - c.start).sum();
        assert_eq!(chain_sum, s.result.makespan);
        let blame_sum: u64 = report.blame.iter().map(|b| b.time).sum();
        assert_eq!(blame_sum, s.result.makespan);
        adagp_obs::validate_critpath(&report.to_json()).expect("valid report");
    }

    #[test]
    fn contended_sim_blames_dram_somewhere_on_the_chain() {
        // Starve the DRAM port so weight loads and spills serialize: the
        // zero-slack chain must spend time on the dram lane.
        let layers: Vec<SimLayer> = (0..3u64)
            .map(|i| SimLayer {
                label: format!("l{i}").into(),
                cost: LayerCost {
                    fw: 50,
                    bw: 100,
                    alpha: 10,
                },
                weight_words: 100_000,
                activation_words: 64,
                spill_words: 200_000,
            })
            .collect();
        let cfg = SimConfig {
            dram_words_per_cycle: Some(1),
            ..SimConfig::default()
        };
        let s = simulate_batch(Phase::Gp, Some(AdaGpDesign::Max), &layers, &cfg);
        let report = critical_path(&s.result, "contended");
        assert!(
            report.blame.iter().any(|b| b.lane == "dram"),
            "no dram blame in {:?}",
            report.blame
        );
        adagp_obs::validate_critpath(&report.to_json()).expect("valid report");
    }
}
