//! Multi-device pipeline schedules (§3.8, §6.5) as task graphs on the
//! event engine: GPipe and DAPPLE batches, and ADA-GP's GP→BP pairs.
//!
//! Each device is one capacity-1 resource (`device{d}`). Every
//! micro-batch gets one forward task per device, and a backprop batch
//! ([`Phase::Baseline`] or [`Phase::Bp`]) one backward task per device
//! too; a [`Phase::Gp`] batch has forwards only — Phase GP skips the
//! backward pass, so its forwards stream into the bubbles the baseline
//! schedule leaves. A forward waits for the same micro-batch's forward on
//! the device before it, a backward for its backward on the device after
//! it.
//!
//! The engine admits ready tasks FIFO, so a schedule's order has to be a
//! dependency: each device runs its tasks as one chain, in the order
//! [`PipelineOrder`] names, and a sequence of batches continues the chain
//! — a device's first task of batch `i + 1` waits for its last task of
//! batch `i`. GPipe's flush needs no edge of its own: a device's first
//! backward follows its last forward in the chain.
//!
//! Tasks are [`LayerTask`]s whose label row is the micro-batch index
//! (labels `m0`, `m1`, …), so [`crate::report::span_table`],
//! [`crate::chrome_trace`] and [`crate::critical_path`] work on these
//! graphs unchanged. One cycle is one step.

use crate::engine::{LayerTask, SimBuilder, TaskGraph, TaskId, TaskKind};
use crate::workload::Phase;
use std::collections::HashMap;
use std::sync::Arc;

/// How each device orders a backprop batch's forwards and backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineOrder {
    /// GPipe (Huang et al.): every forward, then every backward.
    GPipe,
    /// DAPPLE (Fan et al.): one forward, one backward (1F1B) — device `d`
    /// runs `D − d − 1` warm-up forwards, then alternates, then drains the
    /// remaining backwards.
    OneFOneB,
}

/// Device `d`'s task order for one batch of `phase`, as `(kind,
/// micro-batch)`. GPipe is 1F1B with every forward in the warm-up.
fn device_order(
    order: PipelineOrder,
    phase: Phase,
    devices: usize,
    microbatches: usize,
    d: usize,
) -> Vec<(TaskKind, usize)> {
    let fwd = |m| (TaskKind::Forward, m);
    let bwd = |m| (TaskKind::BackwardData, m);
    if phase == Phase::Gp {
        return (0..microbatches).map(fwd).collect();
    }
    let warm = match order {
        PipelineOrder::GPipe => microbatches,
        PipelineOrder::OneFOneB => (devices - d - 1).min(microbatches),
    };
    let mut steps: Vec<_> = (0..warm).map(fwd).collect();
    for m in 0..microbatches - warm {
        steps.extend([fwd(warm + m), bwd(m)]);
    }
    steps.extend((microbatches - warm..microbatches).map(bwd));
    steps
}

/// Compiles `batches`, run back to back, as one pipeline schedule over
/// `devices` devices: `microbatches` micro-batches per batch, `fw` / `bw`
/// steps per micro-batch forward / backward on one device.
///
/// # Panics
///
/// Panics if `devices` or `microbatches` is zero.
pub fn pipeline_graph(
    order: PipelineOrder,
    devices: usize,
    microbatches: usize,
    fw: u64,
    bw: u64,
    batches: &[Phase],
) -> TaskGraph {
    assert!(
        devices > 0 && microbatches > 0,
        "a pipeline needs at least one device and one micro-batch"
    );
    let labels: Arc<[Arc<str>]> = (0..microbatches).map(|m| format!("m{m}").into()).collect();
    let mut b = SimBuilder::with_layer_labels(labels);
    let lanes: Vec<_> = (0..devices)
        .map(|d| b.add_resource(format!("device{d}"), 1))
        .collect();
    // Each device's latest task: the next one in its chain waits for it.
    let mut last: Vec<Option<TaskId>> = vec![None; devices];
    for &phase in batches {
        let orders: Vec<_> = (0..devices)
            .map(|d| device_order(order, phase, devices, microbatches, d))
            .collect();
        // This batch's tasks per device, by (kind, micro-batch).
        let mut ids: Vec<HashMap<(TaskKind, usize), TaskId>> = vec![HashMap::new(); devices];
        let mut next = vec![0; devices];
        // Register the chains in a dependency order: advance each device
        // while the device upstream of its next task already holds its part.
        let mut pending: usize = orders.iter().map(Vec::len).sum();
        while pending > 0 {
            let before = pending;
            for d in 0..devices {
                while let Some(&(kind, m)) = orders[d].get(next[d]) {
                    // A forward comes down the devices, a backward back up.
                    let upstream = if kind == TaskKind::Forward {
                        d.checked_sub(1)
                    } else {
                        Some(d + 1).filter(|&u| u < devices)
                    };
                    let cross = match upstream.map(|u| ids[u].get(&(kind, m))) {
                        Some(None) => break, // not registered yet
                        cross => cross.flatten().copied(),
                    };
                    let id = b.add_layer_task(
                        LayerTask {
                            kind,
                            layer: m,
                            prefix: kind.name(),
                            suffix: "",
                            resource: Some(lanes[d]),
                            duration: if kind == TaskKind::Forward { fw } else { bw },
                            buffer_delta: 0,
                        },
                        [last[d], cross].into_iter().flatten(),
                    );
                    ids[d].insert((kind, m), id);
                    last[d] = Some(id);
                    next[d] += 1;
                    pending -= 1;
                }
            }
            assert!(pending < before, "pipeline order deadlocks");
        }
    }
    b.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimResult;
    use serde::{Deserialize, Serialize};

    const ORDERS: [PipelineOrder; 2] = [PipelineOrder::GPipe, PipelineOrder::OneFOneB];

    fn makespan(order: PipelineOrder, d: usize, m: usize, batches: &[Phase]) -> u64 {
        pipeline_graph(order, d, m, 1, 2, batches).run().makespan
    }

    fn bubble_fraction(r: &SimResult) -> f64 {
        let devices = r.tasks.resources().len() as u64;
        1.0 - r.busy.iter().sum::<u64>() as f64 / (devices * r.makespan) as f64
    }

    /// The most micro-batches each device holds forwarded but not yet
    /// backwarded, counted from the spans.
    fn peak_in_flight(r: &SimResult) -> Vec<i64> {
        let mut held = vec![0i64; r.tasks.resources().len()];
        let mut peak = held.clone();
        for span in &r.spans {
            let d = r
                .tasks
                .resource(span.task)
                .expect("every task has a device");
            held[d] += if r.tasks.kind(span.task) == TaskKind::Forward {
                1
            } else {
                -1
            };
            peak[d] = peak[d].max(held[d]);
        }
        peak
    }

    #[test]
    fn paper_parameters_give_21_steps() {
        // §6.5.1–6.5.2: GPipe and DAPPLE take 21 steps per batch, and
        // ADA-GP a GP+BP pair in 25 (4 devices, 4 micro-batches, BW = 2FW);
        // four pairs take 4 × 25.
        let pairs = [Phase::Gp, Phase::Bp].repeat(4);
        for order in ORDERS {
            assert_eq!(makespan(order, 4, 4, &[Phase::Bp]), 21, "{order:?}");
            assert_eq!(makespan(order, 4, 4, &pairs[..2]), 25, "{order:?}");
            assert_eq!(makespan(order, 4, 4, &pairs), 100, "{order:?}");
        }
    }

    #[test]
    fn makespan_matches_closed_form() {
        for order in ORDERS {
            for d in 1..6 {
                for m in 1..6 {
                    assert_eq!(
                        makespan(order, d, m, &[Phase::Baseline]),
                        3 * (d + m - 1) as u64,
                        "{order:?} d={d} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_overlapping_work_per_device() {
        // Per device: M forwards and, for a backprop batch, M backwards —
        // busy M·(fw + bw), or M·fw for a GP batch — and no two spans
        // overlap.
        for order in ORDERS {
            for (phase, busy) in [(Phase::Bp, 4 * 3), (Phase::Gp, 4)] {
                let r = pipeline_graph(order, 4, 4, 1, 2, &[phase]).simulate();
                assert_eq!(r.busy, vec![busy; 4], "{order:?} {phase:?}");
                for d in 0..4 {
                    let spans: Vec<_> = r
                        .spans
                        .iter()
                        .filter(|s| r.tasks.resource(s.task) == Some(d))
                        .collect();
                    assert!(spans.windows(2).all(|w| w[0].end <= w[1].start));
                }
            }
        }
    }

    #[test]
    fn bubbles_exist_in_gpipe() {
        let r = pipeline_graph(PipelineOrder::GPipe, 4, 4, 1, 2, &[Phase::Bp]).simulate();
        assert!(bubble_fraction(&r) > 0.2); // GPipe is bubble-heavy
    }

    #[test]
    fn single_device_has_no_bubbles() {
        for order in ORDERS {
            let r = pipeline_graph(order, 1, 4, 1, 2, &[Phase::Bp]).simulate();
            assert_eq!(bubble_fraction(&r), 0.0);
            assert_eq!(r.makespan, 4 * 3);
        }
    }

    #[test]
    fn one_f_one_b_bounds_the_micro_batches_a_device_holds() {
        // What no closed form shows: 1F1B keeps at most D − d micro-batches
        // in flight on device d; GPipe holds all M on every device.
        for d in 1..=6 {
            for m in 1..=8 {
                let r =
                    pipeline_graph(PipelineOrder::OneFOneB, d, m, 1, 2, &[Phase::Bp]).simulate();
                for (dev, &peak) in peak_in_flight(&r).iter().enumerate() {
                    assert_eq!(peak, (d - dev).min(m) as i64, "D={d} M={m} device {dev}");
                }
                let r = pipeline_graph(PipelineOrder::GPipe, d, m, 1, 2, &[Phase::Bp]).simulate();
                assert_eq!(peak_in_flight(&r), vec![m as i64; d], "D={d} M={m}");
            }
        }
    }

    #[test]
    fn spans_carry_device_kind_and_micro_batch() {
        let g = pipeline_graph(PipelineOrder::GPipe, 2, 3, 1, 2, &[Phase::Bp]);
        assert_eq!(g.resources()[1].name, "device1");
        let labels: Vec<String> = (0..g.len()).map(|t| g.label(t)).collect();
        assert!(labels.contains(&"fwd m2".to_string()));
        assert!(labels.contains(&"bwd-data m0".to_string()));
        let r = g.simulate();
        let report = crate::critical_path(&r, "gpipe");
        assert_eq!(
            report.chain.iter().map(|c| c.end - c.start).sum::<u64>(),
            r.makespan
        );
    }

    #[test]
    fn slot_kind_serde_round_trips_tuple_variants() {
        // A slot of the pipeline grid mixes unit and single-field tuple
        // variants — the hardest shape the vendored serde derive supports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
        enum Slot {
            Idle,
            Forward(usize),
            Backward(usize),
        }
        for slot in [Slot::Idle, Slot::Forward(3), Slot::Backward(11)] {
            let js = serde::json::to_string(&slot);
            let back: Slot = serde::json::from_str(&js).expect("slot round-trip");
            assert_eq!(back, slot, "{js}");
        }
        assert_eq!(serde::json::to_string(&Slot::Idle), "\"Idle\"");
        assert_eq!(serde::json::to_string(&Slot::Forward(3)), "{\"Forward\":3}");
    }
}
