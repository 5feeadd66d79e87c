//! The `paper` CLI: every artifact of the ADA-GP paper's evaluation (§6)
//! behind one binary. Each artifact lives in its own module of this
//! directory; this file is the table that names them.
//!
//! ```text
//! paper list          # every artifact with a one-line description
//! paper <artifact>    # print that artifact's table(s) to stdout
//! ```
//!
//! Progress goes to stderr, the artifact to stdout, and stdout is
//! deterministic — `tests/paper_cli.rs` byte-compares the analytic
//! artifacts against `testdata/paper/`.

mod ablation_calibration;
mod ablation_predictor;
mod ablation_schedule;
mod comparison_dni;
mod fig15_predictor_error;
mod fig16_vgg13_characterization;
mod fig20_pipeline_speedup;
mod fig21_energy;
mod iso_resource;
mod pipeline_utilization;
mod table1_accuracy;
mod table2_transformer;
mod table3_yolo;
mod table4_fpga;
mod table5_asic;

use adagp_accel::Dataflow;
use adagp_bench::speedup_tables::print_speedup_figure;
use std::process::ExitCode;

/// `(name, one-line description, entry point)`, in the paper's order.
const ARTIFACTS: [(&str, &str, fn()); 18] = [
    (
        "fig15_predictor_error",
        "Fig. 15 — predictor MAPE/MSE per VGG13 layer over epochs (trains)",
        fig15_predictor_error::run,
    ),
    (
        "fig16_vgg13_characterization",
        "Fig. 16 — per-layer cycles: warm-up / BP / GP split",
        fig16_vgg13_characterization::run,
    ),
    (
        "fig17_ws_speedup",
        "Fig. 17 — speed-up vs weight-stationary baseline",
        || print_speedup_figure("Figure 17", Dataflow::WeightStationary),
    ),
    (
        "fig18_rs_speedup",
        "Fig. 18 — speed-up vs row-stationary baseline",
        || print_speedup_figure("Figure 18", Dataflow::RowStationary),
    ),
    (
        "fig19_is_speedup",
        "Fig. 19 — speed-up vs input-stationary baseline",
        || print_speedup_figure("Figure 19", Dataflow::InputStationary),
    ),
    (
        "fig20_pipeline_speedup",
        "Fig. 20 — speed-up vs GPipe/DAPPLE/Chimera pipelines",
        fig20_pipeline_speedup::run,
    ),
    (
        "fig21_energy",
        "Fig. 21 — off-chip memory energy savings",
        fig21_energy::run,
    ),
    (
        "table1_accuracy",
        "Table 1 — BP vs ADA-GP accuracy across the CNN zoo (trains; ADAGP_MODELS)",
        table1_accuracy::run,
    ),
    (
        "table2_transformer",
        "Table 2 — Transformer translation: accuracy, BLEU, cycles (trains)",
        table2_transformer::run,
    ),
    (
        "table3_yolo",
        "Table 3 — YOLO-style detection: accuracy, mAP, cycles (trains)",
        table3_yolo::run,
    ),
    (
        "table4_fpga",
        "Table 4 — FPGA resources/power of the ADA-GP designs",
        table4_fpga::run,
    ),
    (
        "table5_asic",
        "Table 5 — ASIC area/power of the ADA-GP designs",
        table5_asic::run,
    ),
    (
        "ablation_calibration",
        "Ablation — gradient-norm calibration on/off (trains)",
        ablation_calibration::run,
    ),
    (
        "ablation_predictor",
        "Ablation — §3.6 predictor scalability choices",
        ablation_predictor::run,
    ),
    (
        "ablation_schedule",
        "Ablation — §3.5 phase-schedule ratios (trains)",
        ablation_schedule::run,
    ),
    (
        "comparison_dni",
        "§2 — DNI-style synthetic gradients vs ADA-GP (trains)",
        comparison_dni::run,
    ),
    (
        "iso_resource",
        "§6.6.1 — iso-resource baseline comparison",
        iso_resource::run,
    ),
    (
        "pipeline_utilization",
        "§3.4 — per-stage busy/idle report of the pipelined training queue (trains)",
        pipeline_utilization::run,
    ),
];

const USAGE: &str = "\
Usage:
  paper list          list every artifact with a one-line description
  paper <artifact>    print that artifact's table(s) to stdout

Training artifacts use reduced budgets; ADAGP_FULL=1 selects the slower,
higher-fidelity ones. ADAGP_MODELS=vgg13,resnet50 restricts
table1_accuracy's model set.

Exit codes:
  0  the artifact (or the list) was printed
  2  usage error: no artifact, an unknown artifact, or an unknown
     ADAGP_MODELS name

Artifacts:
";

/// What `paper list` prints: one `name  description` line per artifact.
fn listing() -> String {
    ARTIFACTS
        .iter()
        .map(|(name, about, _)| format!("  {name:<30}{about}\n"))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let problem = match args.as_slice() {
        [cmd] if cmd == "list" => {
            print!("{}", listing());
            return ExitCode::SUCCESS;
        }
        [name] => match ARTIFACTS.iter().find(|(n, ..)| n == name) {
            Some((.., run)) => {
                run();
                return ExitCode::SUCCESS;
            }
            None => format!("unknown artifact `{name}`"),
        },
        _ => "expected exactly one argument".to_string(),
    };
    eprint!("paper: {problem}\n{USAGE}{}", listing());
    ExitCode::from(2)
}
