//! Renders the GPipe schedule grid and compares all three pipeline
//! schemes with and without ADA-GP (the §3.8 / Figure 20 setting).
//!
//! ```sh
//! cargo run --release --example pipeline_schedules
//! ```

use ada_gp::pipeline::{PipelineConfig, PipelineScheme};
use ada_gp::sim::{pipeline_graph, Phase, PipelineOrder, TaskKind};

fn main() {
    let cfg = PipelineConfig::default();
    let run = pipeline_graph(
        PipelineOrder::GPipe,
        cfg.devices,
        cfg.microbatches,
        cfg.fw as u64,
        cfg.bw as u64,
        &[Phase::Bp],
    )
    .simulate();

    // One row per device, one slot per step, filled from the engine's spans.
    let mut grid = vec![vec![" .".to_string(); run.makespan as usize]; cfg.devices];
    for span in &run.spans {
        let device = run
            .tasks
            .resource(span.task)
            .expect("every task runs on a device");
        let m = run
            .tasks
            .layer(span.task)
            .expect("every task is a micro-batch");
        let kind = if run.tasks.kind(span.task) == TaskKind::Forward {
            'F'
        } else {
            'B'
        };
        for slot in &mut grid[device][span.start as usize..span.end as usize] {
            *slot = format!("{kind}{m}");
        }
    }
    println!("GPipe schedule, 4 devices x 4 micro-batches (F=forward, B=backward, .=bubble):");
    for (d, row) in grid.iter().enumerate() {
        println!("device {d}: {}", row.concat());
    }
    let busy: u64 = run.busy.iter().sum();
    let bubbles = 1.0 - busy as f64 / (cfg.devices as u64 * run.makespan) as f64;
    println!(
        "makespan {} steps, {:.0}% bubbles",
        run.makespan,
        100.0 * bubbles
    );
    println!();

    println!(
        "{:<10} {:>14} {:>18} {:>10}",
        "Scheme", "steps/batch", "ADA-GP steps/pair", "speed-up"
    );
    for scheme in PipelineScheme::all() {
        println!(
            "{:<10} {:>14} {:>18} {:>9.2}x",
            scheme.name(),
            scheme.batch_steps(&cfg),
            scheme.adagp_pair_steps(&cfg),
            scheme.adagp_speedup(&cfg, 0.0)
        );
    }
    println!();
    println!("(paper: GPipe 21 steps, Chimera 16; ADA-GP pairs 25 and 20)");
}
