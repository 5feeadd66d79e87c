//! The adaptive phase controller (§3.5 of the paper).
//!
//! After `warmup_epochs` of plain backpropagation, training alternates
//! between Phase GP (k batches with predicted gradients) and Phase BP
//! (m batches of true backpropagation). The paper's heuristic anneals the
//! k:m ratio — 4:1 for four epochs, 3:1 for four, 2:1 for four, then 1:1
//! for the remainder — using prediction more aggressively early, when
//! coarse gradients suffice, and conservatively late, when updates must be
//! precise.
//!
//! An optional *reactive* mode extends the heuristic: if the predictor's
//! recent MAPE exceeds a threshold, the controller falls back to BP for
//! the rest of the cycle (the "adaptively adjusts when and for how long"
//! behaviour of §3.5).

use serde::{Deserialize, Serialize};

/// Which phase a given batch runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Plain backprop; predictor trains on true gradients (first `L`
    /// epochs).
    WarmUp,
    /// Backprop trains model and predictor (m batches per cycle).
    BP,
    /// Backprop skipped; predicted gradients update the model (k batches
    /// per cycle).
    GP,
}

/// Schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Warm-up epochs (`L`; the paper suggests ~10 for full runs).
    pub warmup_epochs: usize,
    /// Epochs spent at each annealing stage (paper: 4).
    pub epochs_per_stage: usize,
    /// GP:BP ratios per stage, ending at the steady-state ratio
    /// (paper: 4:1, 3:1, 2:1 then 1:1).
    pub ratios: [(usize, usize); 4],
    /// Reactive fallback: if `Some(t)`, a cycle's remaining GP batches
    /// demote to BP when the predictor's recent MAPE exceeds `t` percent.
    pub mape_guard: Option<f32>,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            warmup_epochs: 2,
            epochs_per_stage: 4,
            ratios: [(4, 1), (3, 1), (2, 1), (1, 1)],
            mape_guard: None,
        }
    }
}

impl ScheduleConfig {
    /// The paper's full-scale schedule (10 warm-up epochs).
    pub fn paper() -> Self {
        ScheduleConfig {
            warmup_epochs: 10,
            ..Default::default()
        }
    }

    /// GP:BP ratio `(k, m)` in force at `epoch` (0-based, counted from the
    /// end of warm-up).
    pub fn ratio_at(&self, epoch: usize) -> (usize, usize) {
        if epoch < self.warmup_epochs {
            return (0, 1);
        }
        let since = epoch - self.warmup_epochs;
        let stage = (since / self.epochs_per_stage.max(1)).min(self.ratios.len() - 1);
        self.ratios[stage]
    }
}

/// Tracks training position and decides each batch's phase.
#[derive(Debug, Clone)]
pub struct PhaseController {
    cfg: ScheduleConfig,
    epoch: usize,
    batch_in_epoch: usize,
    recent_mape: Option<f32>,
    // Statistics.
    counts: [u64; 3],
}

impl PhaseController {
    /// Creates a controller at epoch 0.
    pub fn new(cfg: ScheduleConfig) -> Self {
        PhaseController {
            cfg,
            epoch: 0,
            batch_in_epoch: 0,
            recent_mape: None,
            counts: [0; 3],
        }
    }

    /// Schedule configuration.
    pub fn config(&self) -> &ScheduleConfig {
        &self.cfg
    }

    /// Current epoch (0-based).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Feeds the predictor's latest MAPE (percent) for the reactive guard.
    pub fn report_mape(&mut self, mape: f32) {
        self.recent_mape = Some(mape);
    }

    /// Phase of the *next* batch, without advancing.
    pub fn peek(&self) -> Phase {
        self.phase_for(self.epoch, self.batch_in_epoch)
    }

    /// Decides the phase for the next batch and advances the batch
    /// counter.
    pub fn next_phase(&mut self) -> Phase {
        let p = self.peek();
        self.batch_in_epoch += 1;
        self.counts[match p {
            Phase::WarmUp => 0,
            Phase::BP => 1,
            Phase::GP => 2,
        }] += 1;
        p
    }

    /// Marks the end of an epoch.
    pub fn end_epoch(&mut self) {
        self.epoch += 1;
        self.batch_in_epoch = 0;
    }

    /// `(warmup, bp, gp)` batch counts seen so far.
    pub fn phase_counts(&self) -> (u64, u64, u64) {
        (self.counts[0], self.counts[1], self.counts[2])
    }

    fn phase_for(&self, epoch: usize, batch: usize) -> Phase {
        if epoch < self.cfg.warmup_epochs {
            return Phase::WarmUp;
        }
        let (k, m) = self.cfg.ratio_at(epoch);
        let cycle = k + m;
        let pos = batch % cycle.max(1);
        // GP-first within each cycle (§3.5: "Initially, it proceeds with
        // Phase GP ... persists for k batches before switching to BP").
        let want_gp = pos < k;
        if want_gp {
            if let (Some(guard), Some(mape)) = (self.cfg.mape_guard, self.recent_mape) {
                if mape > guard {
                    return Phase::BP;
                }
            }
            Phase::GP
        } else {
            Phase::BP
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_is_all_warmup() {
        let mut c = PhaseController::new(ScheduleConfig::default());
        for _ in 0..50 {
            assert_eq!(c.next_phase(), Phase::WarmUp);
        }
        c.end_epoch();
        assert_eq!(c.peek(), Phase::WarmUp); // epoch 1 still warm-up (L = 2)
    }

    #[test]
    fn first_stage_is_4_to_1() {
        let cfg = ScheduleConfig::default();
        let mut c = PhaseController::new(cfg);
        for _ in 0..cfg.warmup_epochs {
            c.end_epoch();
        }
        let phases: Vec<Phase> = (0..10).map(|_| c.next_phase()).collect();
        use Phase::*;
        assert_eq!(phases, vec![GP, GP, GP, GP, BP, GP, GP, GP, GP, BP]);
    }

    #[test]
    fn ratio_anneals_to_1_1() {
        let cfg = ScheduleConfig::default();
        assert_eq!(cfg.ratio_at(cfg.warmup_epochs), (4, 1));
        assert_eq!(cfg.ratio_at(cfg.warmup_epochs + 4), (3, 1));
        assert_eq!(cfg.ratio_at(cfg.warmup_epochs + 8), (2, 1));
        assert_eq!(cfg.ratio_at(cfg.warmup_epochs + 12), (1, 1));
        // Stays 1:1 forever after.
        assert_eq!(cfg.ratio_at(cfg.warmup_epochs + 100), (1, 1));
    }

    #[test]
    fn warmup_ratio_is_all_bp() {
        let cfg = ScheduleConfig::default();
        assert_eq!(cfg.ratio_at(0), (0, 1));
    }

    #[test]
    fn mape_guard_demotes_gp_to_bp() {
        let cfg = ScheduleConfig {
            warmup_epochs: 0,
            mape_guard: Some(1.0),
            ..Default::default()
        };
        let mut c = PhaseController::new(cfg);
        c.report_mape(5.0); // terrible predictor
        assert_eq!(c.next_phase(), Phase::BP);
        c.report_mape(0.1); // healthy predictor
        assert_eq!(c.next_phase(), Phase::GP);
    }

    #[test]
    fn phase_counts_accumulate() {
        let mut c = PhaseController::new(ScheduleConfig {
            warmup_epochs: 0,
            ..Default::default()
        });
        for _ in 0..10 {
            c.next_phase();
        }
        let (w, bp, gp) = c.phase_counts();
        assert_eq!(w, 0);
        assert_eq!(bp + gp, 10);
        assert_eq!(gp, 8); // 4:1 ratio
    }

    #[test]
    fn end_epoch_resets_cycle() {
        let mut c = PhaseController::new(ScheduleConfig {
            warmup_epochs: 0,
            ..Default::default()
        });
        c.next_phase();
        c.end_epoch();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.peek(), Phase::GP); // cycle restarts at GP
    }

    #[test]
    fn schedule_config_serde_round_trips() {
        // Exercises Option<f32> and [(usize, usize); 4] fields through the
        // activated serde derive.
        for guard in [None, Some(7.5f32)] {
            let cfg = ScheduleConfig {
                mape_guard: guard,
                ..Default::default()
            };
            let js = serde::json::to_string(&cfg);
            let back: ScheduleConfig = serde::json::from_str(&js).expect("config round-trip");
            assert_eq!(back, cfg, "{js}");
        }
        let js = serde::json::to_string(&Phase::GP);
        assert_eq!(serde::json::from_str::<Phase>(&js).unwrap(), Phase::GP);
    }
}
