//! Ablation: gradient-norm calibration on/off.
//!
//! This reproduction adds one engineering refinement over the paper's
//! description: predicted gradients are rescaled to an EMA of the site's
//! true-gradient norm (`AdaGpConfig::norm_calibration`). This harness
//! quantifies its effect at the CPU budget.

use adagp_bench::accuracy::{quick_adagp_config, vgg13_quick_experiment};
use adagp_bench::outln;
use adagp_core::AdaGpConfig;

fn accuracy(calibrate: bool) -> f32 {
    let cfg = AdaGpConfig {
        norm_calibration: calibrate,
        ..quick_adagp_config(2)
    };
    vgg13_quick_experiment(cfg, 6).accuracy
}

pub fn run() {
    let with = accuracy(true);
    let without = accuracy(false);
    outln!("== Ablation: predicted-gradient norm calibration (VGG13, CIFAR10 stand-in) ==");
    outln!("with calibration:    {with:.2}%");
    outln!("without calibration: {without:.2}%");
    outln!("delta:               {:+.2} points", with - without);
}
