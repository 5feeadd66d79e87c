//! Figure 15: predictor MAPE and MSE per VGG13 layer across training
//! epochs.

use adagp_bench::accuracy::{predictor_error_series, TrainBudget};
use adagp_bench::{out, outln};
use adagp_nn::data::DatasetSpec;

pub fn run() {
    let budget = if adagp_bench::full_budget() {
        TrainBudget {
            epochs: 20,
            ..TrainBudget::full()
        }
    } else {
        TrainBudget {
            epochs: 8,
            ..TrainBudget::quick()
        }
    };
    let spec = DatasetSpec {
        classes: 10,
        channels: 3,
        size: 12,
        train_len: 128,
        test_len: 64,
    };
    let series = predictor_error_series(spec, &budget, 42);

    outln!("== Figure 15a: predictor MAPE (%) per layer per epoch ==");
    out!("epoch");
    for l in 0..series.len() {
        out!("  layer{:<2}", l + 1);
    }
    outln!();
    for e in 0..budget.epochs {
        out!("{e:>5}");
        for row in &series {
            out!("  {:>7.3}", row[e].0);
        }
        outln!();
    }

    outln!();
    outln!("== Figure 15b: predictor MSE per layer per epoch ==");
    out!("epoch");
    for l in 0..series.len() {
        out!("  layer{:<2}", l + 1);
    }
    outln!();
    for e in 0..budget.epochs {
        out!("{e:>5}");
        for row in &series {
            out!("  {:>9.2e}", row[e].1);
        }
        outln!();
    }
}
