//! Figure 20: ADA-GP speed-up over GPipe, DAPPLE and Chimera multi-device
//! pipelines (ImageNet-scale models, 4 devices × 4 micro-batches).

use adagp_bench::report::{f3, render_table};
use adagp_bench::speedup_tables::pipeline_speedup_rows;
use adagp_pipeline::PipelineScheme;

pub fn run() {
    for scheme in PipelineScheme::all() {
        let rows: Vec<Vec<String>> = pipeline_speedup_rows(scheme)
            .iter()
            .map(|(m, s)| vec![m.clone(), f3(*s)])
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Figure 20: ADA-GP speed-up over {}", scheme.name()),
                &["Model", "Speed-up"],
                &rows,
            )
        );
    }
}
