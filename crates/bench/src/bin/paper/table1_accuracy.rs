//! Table 1: accuracy comparison between ADA-GP and the BP baseline over
//! the CNN zoo × {CIFAR10, CIFAR100, ImageNet} stand-ins.
//!
//! Set `ADAGP_FULL=1` for the fuller budget, `ADAGP_MODELS=vgg13,resnet50`
//! to restrict the model set (a name that matches no model is exit 2).

use adagp_bench::accuracy::{run_accuracy_experiment, TrainBudget};
use adagp_bench::cli::find_model;
use adagp_bench::outln;
use adagp_bench::report::render_table;
use adagp_nn::data::DatasetSpec;
use adagp_nn::models::CnnModel;

fn selected_models() -> Vec<CnnModel> {
    let Ok(spec) = std::env::var("ADAGP_MODELS") else {
        return CnnModel::all().to_vec();
    };
    let mut wanted = Vec::new();
    // A name that selects nothing is a typo, not an empty table.
    let mut unknown = Vec::new();
    for name in spec.split(',') {
        match find_model(name) {
            Some(model) => wanted.push(model),
            None => unknown.push(name.trim()),
        }
    }
    if !unknown.is_empty() {
        let valid: Vec<&str> = CnnModel::all().iter().map(|m| m.name()).collect();
        eprintln!(
            "ADAGP_MODELS: unknown model(s) `{}`; valid names (case and `-` ignored): {}",
            unknown.join("`, `"),
            valid.join(", ")
        );
        std::process::exit(2);
    }
    CnnModel::all()
        .into_iter()
        .filter(|m| wanted.contains(m))
        .collect()
}

pub fn run() {
    let budget = if adagp_bench::full_budget() {
        TrainBudget::full()
    } else {
        TrainBudget::quick()
    };
    // CPU-scaled dataset stand-ins; class counts are reduced in quick mode
    // so the budgeted runs land above chance: a 160-sample training split
    // holds too few samples per class for 100 or 1000 classes.
    let datasets: Vec<(&str, DatasetSpec)> = if adagp_bench::full_budget() {
        vec![
            ("CIFAR10", DatasetSpec::cifar10()),
            ("CIFAR100", DatasetSpec::cifar100()),
            ("ImageNet", DatasetSpec::imagenet()),
        ]
    } else {
        vec![
            (
                "CIFAR10",
                DatasetSpec {
                    classes: 10,
                    channels: 3,
                    size: 12,
                    train_len: 160,
                    test_len: 64,
                },
            ),
            (
                "CIFAR100",
                DatasetSpec {
                    classes: 20,
                    channels: 3,
                    size: 12,
                    train_len: 160,
                    test_len: 64,
                },
            ),
            (
                "ImageNet",
                DatasetSpec {
                    classes: 40,
                    channels: 3,
                    size: 16,
                    train_len: 160,
                    test_len: 64,
                },
            ),
        ]
    };

    let mut rows = Vec::new();
    for model in selected_models() {
        let mut cells = vec![model.name().to_string()];
        for (dname, spec) in &datasets {
            let r = run_accuracy_experiment(model, *spec, &budget, 42);
            eprintln!(
                "{} / {}: BP {:.2}% ADA-GP {:.2}%",
                model.name(),
                dname,
                r.bp_accuracy,
                r.adagp_accuracy
            );
            cells.push(format!("{:.2}", r.bp_accuracy));
            cells.push(format!("{:.2}", r.adagp_accuracy));
        }
        rows.push(cells);
    }
    outln!(
        "{}",
        render_table(
            "Table 1: Accuracy, BP vs ADA-GP (synthetic CIFAR10/CIFAR100/ImageNet stand-ins)",
            &[
                "Model",
                "C10 BP",
                "C10 ADA-GP",
                "C100 BP",
                "C100 ADA-GP",
                "ImgNet BP",
                "ImgNet ADA-GP",
            ],
            &rows,
        )
    );
}
