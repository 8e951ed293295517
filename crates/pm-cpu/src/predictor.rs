//! Dynamic branch prediction: a table of 2-bit saturating counters.

/// A bimodal branch predictor (2-bit saturating counters indexed by PC).
///
/// # Examples
///
/// ```
/// use pm_cpu::predictor::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(1024);
/// // Initially weakly not-taken; training on taken flips it.
/// bp.predict_and_update(0x40, true);
/// bp.predict_and_update(0x40, true);
/// assert!(bp.predict_and_update(0x40, true));
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    table: Vec<u8>,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters, all weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "BHT entries must be a power of two"
        );
        BranchPredictor {
            table: vec![1; entries], // weakly not-taken
            lookups: 0,
            mispredicts: 0,
        }
    }

    /// Predicts the branch at `pc`, then trains on the actual `taken`
    /// outcome. Returns whether the *prediction* was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.lookups += 1;
        let idx = (pc as usize) & (self.table.len() - 1);
        let counter = &mut self.table[idx];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        let correct = predicted_taken == taken;
        if !correct {
            self.mispredicts += 1;
        }
        correct
    }

    /// Number of predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate (0.0 when unused).
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut bp = BranchPredictor::new(256);
        // A loop branch taken 99 times then not taken once.
        let mut wrong = 0;
        for i in 0..100 {
            let taken = i != 99;
            if !bp.predict_and_update(0x10, taken) {
                wrong += 1;
            }
        }
        // Warm-up (1-2) plus the final not-taken.
        assert!(wrong <= 3, "too many mispredicts: {wrong}");
    }

    #[test]
    fn alternating_branch_defeats_two_bit_counter() {
        let mut bp = BranchPredictor::new(256);
        for i in 0..100 {
            bp.predict_and_update(0x20, i % 2 == 0);
        }
        assert!(
            bp.mispredict_rate() > 0.4,
            "alternating pattern should mispredict heavily"
        );
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut bp = BranchPredictor::new(256);
        for _ in 0..10 {
            bp.predict_and_update(0, true);
            bp.predict_and_update(1, false);
        }
        // After training, both predict correctly.
        assert!(bp.predict_and_update(0, true));
        assert!(bp.predict_and_update(1, false));
    }

    #[test]
    fn aliasing_wraps_table() {
        let mut bp = BranchPredictor::new(4);
        for _ in 0..8 {
            bp.predict_and_update(0, true);
        }
        // pc 4 aliases pc 0 in a 4-entry table.
        assert!(bp.predict_and_update(4, true));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_sizes() {
        BranchPredictor::new(3);
    }

    #[test]
    fn starts_weakly_not_taken() {
        let mut bp = BranchPredictor::new(16);
        assert_eq!(bp.lookups(), 0);
        // Weakly not-taken: the first taken prediction is wrong.
        assert!(!bp.predict_and_update(0, true));
    }
}
