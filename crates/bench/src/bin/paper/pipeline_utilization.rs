//! Reports per-stage busy/idle utilization of the pipelined ADA-GP
//! training queue (`AdaGp::train_epoch_pipelined`): data generation, model
//! forward/backward + optimizer work, and predictor updates run as three
//! overlapped stages on bounded queues.
//!
//! The pipeline is bit-identical to the serial loop — this binary verifies
//! that on the fly (same seeds, serial arm vs pipelined arm) and then
//! prints where each stage spent its wall-clock time.

use adagp_core::fit::FitOptions;
use adagp_core::{AdaGp, AdaGpConfig};
use adagp_nn::containers::Sequential;
use adagp_nn::data::{DatasetSpec, VisionDataset};
use adagp_nn::layers::{Conv2d, Flatten, Linear, Relu};
use adagp_nn::module::Module;
use adagp_nn::optim::Sgd;
use adagp_tensor::Prng;

fn model(rng: &mut Prng) -> Sequential {
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, true, rng));
    m.push(Relu::new());
    m.push(Conv2d::new(8, 8, 3, 1, 1, true, rng));
    m.push(Relu::new());
    m.push(Flatten::new());
    m.push(Linear::new(8 * 16 * 16, 10, true, rng));
    m
}

pub fn run() {
    let _trace = adagp_obs::trace_guard_from_env("pipeline_utilization");
    let options = FitOptions::default();
    let ds = VisionDataset::new(DatasetSpec::cifar10(), 7);
    let epochs = 2usize;

    // Serial reference arm.
    let mut rng = Prng::seed_from_u64(3);
    let mut m_serial = model(&mut rng);
    let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut m_serial, &mut rng);
    let mut opt = Sgd::new(0.02, 0.9);
    for _ in 0..epochs {
        for b in 0..options.batches_per_epoch {
            let (x, y) = ds.train_batch(b, options.batch_size);
            adagp.train_batch(&mut m_serial, &mut opt, &x, &y);
        }
        adagp.controller_mut().end_epoch();
    }

    // Pipelined arm, identical seeds.
    let mut rng = Prng::seed_from_u64(3);
    let mut m_pipe = model(&mut rng);
    let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut m_pipe, &mut rng);
    let mut opt = Sgd::new(0.02, 0.9);
    for epoch in 0..epochs {
        let report =
            adagp.train_epoch_pipelined(&mut m_pipe, &mut opt, options.batches_per_epoch, 3, |b| {
                ds.train_batch(b, options.batch_size)
            });
        adagp.controller_mut().end_epoch();
        println!(
            "== epoch {epoch}: pipelined stage utilization ({} batches, pool size {}) ==",
            report.batches.len(),
            adagp_runtime::pool().size(),
        );
        for s in &report.stages {
            println!(
                "{:<12} busy {:>10.2?}  idle {:>10.2?}  items {:>4}  util {:>5.1}%",
                s.name,
                s.busy,
                s.idle,
                s.items,
                100.0 * s.utilization()
            );
        }
    }

    // Bit-identity check between the two arms.
    let mut ws = Vec::new();
    m_serial.visit_params(&mut |p| ws.push(p.value.clone()));
    let mut wp = Vec::new();
    m_pipe.visit_params(&mut |p| wp.push(p.value.clone()));
    assert_eq!(ws, wp, "pipelined arm diverged from serial arm");
    println!("\npipelined weights are bit-identical to the serial loop ✓");
}
