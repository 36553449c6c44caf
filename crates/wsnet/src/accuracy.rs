//! Calibrated synthetic accuracy profile.
//!
//! The paper's SubNets carry ImageNet top-1 accuracies in the 75–80% band
//! (Figs. 10, 15, 16). Since serving decisions only consume accuracy as a
//! per-SubNet scalar, the reproduction replaces trained-model evaluation
//! with a *monotone, concave* profile of forward-pass FLOPs:
//!
//! ```text
//! acc(f) = a_min + (a_max − a_min) · (1 − e^{−κ·x}) / (1 − e^{−κ}),
//! x = (f − f_min) / (f_max − f_min)  clamped to [0, 1]
//! ```
//!
//! which maps the smallest SubNet to `a_min`, the largest to `a_max`, and
//! exhibits the diminishing returns characteristic of OFA Pareto fronts.

/// Monotone accuracy-vs-FLOPs profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyModel {
    /// Accuracy of the smallest SubNet, in `[0, 1]`.
    pub a_min: f64,
    /// Accuracy of the largest SubNet, in `[0, 1]`.
    pub a_max: f64,
    /// FLOPs of the smallest SubNet.
    pub f_min: u64,
    /// FLOPs of the largest SubNet.
    pub f_max: u64,
    /// Curvature `κ > 0`; larger = faster saturation.
    pub curvature: f64,
}

impl AccuracyModel {
    /// Creates a profile.
    ///
    /// # Panics
    /// Panics if the accuracy band or FLOP range is inverted, or `curvature`
    /// is not positive.
    #[must_use]
    pub fn new(a_min: f64, a_max: f64, f_min: u64, f_max: u64, curvature: f64) -> Self {
        assert!(a_min <= a_max, "accuracy band inverted");
        assert!(f_min <= f_max, "flop range inverted");
        assert!(curvature > 0.0, "curvature must be positive");
        Self { a_min, a_max, f_min, f_max, curvature }
    }

    /// A placeholder profile for skeleton construction (identity band).
    #[must_use]
    pub fn uncalibrated() -> Self {
        Self { a_min: 0.0, a_max: 0.0, f_min: 0, f_max: 1, curvature: 3.0 }
    }

    /// Accuracy for a SubNet with the given forward FLOPs.
    #[must_use]
    pub fn accuracy_for_flops(&self, flops: u64) -> f64 {
        if self.f_max <= self.f_min {
            return self.a_max;
        }
        let x = ((flops.saturating_sub(self.f_min)) as f64 / (self.f_max - self.f_min) as f64)
            .clamp(0.0, 1.0);
        let k = self.curvature;
        let shaped = (1.0 - (-k * x).exp()) / (1.0 - (-k).exp());
        self.a_min + (self.a_max - self.a_min) * shaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AccuracyModel {
        AccuracyModel::new(0.752, 0.803, 1_000_000, 9_000_000, 3.0)
    }

    #[test]
    fn endpoints_map_to_band_edges() {
        let m = model();
        assert!((m.accuracy_for_flops(1_000_000) - 0.752).abs() < 1e-12);
        assert!((m.accuracy_for_flops(9_000_000) - 0.803).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_range() {
        let m = model();
        assert_eq!(m.accuracy_for_flops(0), 0.752);
        assert_eq!(m.accuracy_for_flops(u64::MAX), 0.803);
    }

    #[test]
    fn is_monotone_nondecreasing() {
        let m = model();
        let mut prev = 0.0;
        for f in (1_000_000..=9_000_000).step_by(250_000) {
            let a = m.accuracy_for_flops(f);
            assert!(a >= prev, "not monotone at {f}");
            prev = a;
        }
    }

    #[test]
    fn is_concave_diminishing_returns() {
        let m = model();
        // First half of the FLOP range must buy more accuracy than the second.
        let mid = m.accuracy_for_flops(5_000_000);
        let first_half_gain = mid - m.accuracy_for_flops(1_000_000);
        let second_half_gain = m.accuracy_for_flops(9_000_000) - mid;
        assert!(first_half_gain > second_half_gain);
    }

    #[test]
    fn degenerate_range_returns_a_max() {
        let m = AccuracyModel::new(0.7, 0.8, 5, 5, 3.0);
        assert_eq!(m.accuracy_for_flops(5), 0.8);
    }

    #[test]
    #[should_panic(expected = "accuracy band inverted")]
    fn rejects_inverted_band() {
        let _ = AccuracyModel::new(0.9, 0.8, 0, 1, 3.0);
    }
}
