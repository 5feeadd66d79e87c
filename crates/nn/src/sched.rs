//! Learning-rate scheduler: `ReduceLROnPlateau`, which the paper uses for the
//! original models (§5.2).

/// Reduces the learning rate by `factor` when a monitored metric stops
/// improving for `patience` epochs — mirrors PyTorch's
/// `ReduceLROnPlateau` with default parameters (`factor=0.1`,
/// `patience=10`, `min` mode).
#[derive(Debug, Clone)]
pub struct ReduceLrOnPlateau {
    factor: f32,
    patience: usize,
    best: f32,
    bad_epochs: usize,
    min_lr: f32,
}

impl Default for ReduceLrOnPlateau {
    fn default() -> Self {
        Self::new(0.1, 10)
    }
}

impl ReduceLrOnPlateau {
    /// Creates a plateau scheduler with the given decay factor and
    /// patience.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1)`.
    pub fn new(factor: f32, patience: usize) -> Self {
        assert!(factor > 0.0 && factor < 1.0, "factor must be in (0, 1)");
        ReduceLrOnPlateau {
            factor,
            patience,
            best: f32::INFINITY,
            bad_epochs: 0,
            min_lr: 1e-8,
        }
    }

    /// Feeds this epoch's monitored metric (lower is better); returns the
    /// new learning rate.
    pub fn step(&mut self, metric: f32, current_lr: f32) -> f32 {
        if metric < self.best - 1e-8 {
            self.best = metric;
            self.bad_epochs = 0;
            current_lr
        } else {
            self.bad_epochs += 1;
            if self.bad_epochs > self.patience {
                self.bad_epochs = 0;
                (current_lr * self.factor).max(self.min_lr)
            } else {
                current_lr
            }
        }
    }

    /// Epochs since the last improvement.
    pub fn bad_epochs(&self) -> usize {
        self.bad_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_keeps_lr_while_improving() {
        let mut s = ReduceLrOnPlateau::new(0.1, 2);
        let mut lr = 1.0;
        for m in [5.0, 4.0, 3.0, 2.0] {
            lr = s.step(m, lr);
        }
        assert_eq!(lr, 1.0);
    }

    #[test]
    fn plateau_decays_after_patience() {
        let mut s = ReduceLrOnPlateau::new(0.1, 2);
        let mut lr = 1.0;
        lr = s.step(1.0, lr); // best
        for _ in 0..3 {
            lr = s.step(2.0, lr); // no improvement x3 > patience 2
        }
        assert!((lr - 0.1).abs() < 1e-6);
    }

    #[test]
    fn plateau_resets_counter_on_improvement() {
        let mut s = ReduceLrOnPlateau::new(0.5, 3);
        let mut lr = 1.0;
        lr = s.step(1.0, lr);
        lr = s.step(2.0, lr);
        assert_eq!(s.bad_epochs(), 1);
        lr = s.step(0.5, lr);
        assert_eq!(s.bad_epochs(), 0);
        assert_eq!(lr, 1.0);
    }

    #[test]
    fn plateau_respects_min_lr() {
        let mut s = ReduceLrOnPlateau::new(0.1, 0);
        let mut lr = 1e-7;
        for _ in 0..10 {
            lr = s.step(9.0, lr);
        }
        assert!(lr >= 1e-8);
    }
}
