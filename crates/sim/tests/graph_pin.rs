//! Cross-commit pin of every compiled batch graph: the baseline plus
//! Phase BP and Phase GP under each ADA-GP design, over VGG13/CIFAR and
//! MobileNet-V2/ImageNet, without contention, with the default contention
//! (spills on one DRAM port) and with two DRAM ports behind a 4096-word
//! buffer.
//!
//! The engine admits ready tasks first-in-first-out by id, so two graphs
//! with the same makespan can still differ in the order tasks are
//! emitted, a label, a dependency or a buffer delta. The hash covers all
//! of it: the resources (name, capacity), then per task its kind, layer,
//! label, resource, duration, buffer delta and dependencies. The
//! constants were captured from a build of the commit before the five
//! per-schedule graph builders became one; a change that moves one
//! changes what the simulator runs and has to say so.

use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
use adagp_nn::models::shapes::{model_shapes, InputScale};
use adagp_nn::models::CnnModel;
use adagp_sim::{model_sim_layers, BatchGraph, Phase, SimConfig, TaskGraph};

/// 64-bit FNV-1a, fed piecewise.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt(&mut self, v: Option<usize>) {
        self.u64(v.map_or(u64::MAX, |v| v as u64));
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_graph(h: &mut Fnv, g: &TaskGraph) {
    h.u64(g.resources().len() as u64);
    for r in g.resources() {
        h.str(&r.name);
        h.u64(u64::from(r.capacity));
    }
    h.u64(g.len() as u64);
    for t in 0..g.len() {
        h.str(g.kind(t).name());
        h.opt(g.layer(t));
        h.str(&g.label(t));
        h.opt(g.resource(t));
        h.u64(g.duration(t));
        h.bytes(&g.buffer_delta(t).to_le_bytes());
        let deps: Vec<usize> = g.deps(t).collect();
        h.u64(deps.len() as u64);
        for d in deps {
            h.u64(d as u64);
        }
    }
}

/// Every (phase, design) pair the simulator builds a batch graph for.
fn schedules() -> Vec<(Phase, Option<AdaGpDesign>)> {
    let mut s = vec![(Phase::Baseline, None)];
    for phase in [Phase::Bp, Phase::Gp] {
        for d in [AdaGpDesign::Low, AdaGpDesign::Efficient, AdaGpDesign::Max] {
            s.push((phase, Some(d)));
        }
    }
    s
}

/// No contention; the default contention (spills on one DRAM port); two
/// DRAM ports behind a 4096-word buffer.
fn configs() -> [SimConfig; 3] {
    [
        SimConfig::no_contention(),
        SimConfig::default(),
        SimConfig {
            dram_ports: 2,
            buffer_words: Some(4096),
            ..SimConfig::default()
        },
    ]
}

/// FNV-1a over the seven batch graphs of `model` under `cfg`.
fn model_graphs_hash(model: CnnModel, scale: InputScale, cfg: &SimConfig) -> u64 {
    let shapes = model_shapes(model, scale);
    let layers = model_sim_layers(
        &AcceleratorConfig::default(),
        Dataflow::WeightStationary,
        &Default::default(),
        &shapes,
        cfg,
    );
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (phase, design) in schedules() {
        hash_graph(
            &mut h,
            BatchGraph::build(phase, design, &layers, cfg).graph(),
        );
    }
    h.0
}

#[test]
fn compiled_batch_graphs_are_pinned() {
    let models = [
        (CnnModel::Vgg13, InputScale::Cifar),
        (CnnModel::MobileNetV2, InputScale::ImageNet),
    ];
    #[rustfmt::skip]
    let pinned: [[u64; 3]; 2] = [
        [0x5afa_825f_f10b_f46a, 0xa511_86d3_79df_fb17, 0xa517_5967_3a7d_d66e],
        [0x6e06_020e_f140_aa22, 0x8b3a_1940_698b_c48e, 0xe3f3_00a5_2651_6b98],
    ];
    let got =
        models.map(|(model, scale)| configs().map(|cfg| model_graphs_hash(model, scale, &cfg)));
    assert_eq!(got, pinned, "got {got:#018x?}");
}
