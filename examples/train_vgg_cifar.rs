//! Trains VGG13 on the synthetic CIFAR10 stand-in twice — plain backprop
//! vs ADA-GP — and prints the accuracy of both arms (the Table 1
//! comparison in miniature).
//!
//! ```sh
//! cargo run --release --example train_vgg_cifar
//! ```

use ada_gp::adagp::fit::{fit_adagp_pipelined, fit_baseline, FitOptions};
use ada_gp::adagp::{AdaGpConfig, ScheduleConfig};
use ada_gp::nn::data::{DatasetSpec, VisionDataset};
use ada_gp::nn::models::{build_cnn, CnnModel, ModelConfig};
use ada_gp::nn::optim::Sgd;
use ada_gp::tensor::Prng;

fn main() {
    let spec = DatasetSpec {
        classes: 10,
        channels: 3,
        size: 12,
        train_len: 160,
        test_len: 64,
    };
    let dataset = VisionDataset::new(spec, 42);
    let model_cfg = ModelConfig {
        width: 0.0625,
        depth_div: 4,
        classes: spec.classes,
    };
    let options = FitOptions {
        epochs: 6,
        batches_per_epoch: 16,
        batch_size: 8,
        eval_batches: 4,
        plateau: None,
    };

    // Arm 1: plain backprop.
    let mut rng = Prng::seed_from_u64(1);
    let mut bp_model = build_cnn(CnnModel::Vgg13, &model_cfg, 3, spec.size, &mut rng);
    let bp = fit_baseline(&mut bp_model, &dataset, &mut Sgd::new(0.01, 0.9), &options);
    for (epoch, loss) in bp.epoch_losses.iter().enumerate() {
        println!("BP     epoch {epoch}: mean loss {loss:.3}");
    }

    // Arm 2: ADA-GP (same init seed), batches pipelined three deep.
    let mut rng = Prng::seed_from_u64(1);
    let mut gp_model = build_cnn(CnnModel::Vgg13, &model_cfg, 3, spec.size, &mut rng);
    let mut cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 2,
            epochs_per_stage: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.predictor.lr = 1e-3;
    let adagp = fit_adagp_pipelined(
        &mut gp_model,
        &dataset,
        cfg,
        &mut Sgd::new(0.01, 0.9),
        &options,
        3,
        &mut rng,
    );
    for (epoch, loss) in adagp.epoch_losses.iter().enumerate() {
        println!("ADA-GP epoch {epoch}: mean loss {loss:.3}");
    }

    let (_, bp_batches, gp_batches) = adagp.phase_counts;
    println!();
    println!("BP baseline accuracy:  {:.2}%", bp.accuracy);
    println!("ADA-GP accuracy:       {:.2}%", adagp.accuracy);
    println!(
        "ADA-GP skipped the backward pass on {gp_batches} of {} batches",
        bp_batches + gp_batches
    );
}
