//! Spike Compensation coefficients (Section 3.2).

/// Coefficients `(a, b)` of the generalized spike-compensated update
/// `w ← w − η(a·v + b·g)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeCoeffs {
    /// Velocity coefficient.
    pub a: f32,
    /// Latest-gradient ("spike") coefficient.
    pub b: f32,
}

impl SpikeCoeffs {
    /// Plain SGDM: `a = 1, b = 0`.
    pub fn identity() -> Self {
        SpikeCoeffs { a: 1.0, b: 0.0 }
    }

    /// The paper's default SCD coefficients for delay `d` and momentum `m`
    /// (Eq. 14):
    ///
    /// ```text
    /// a = m^D,   b = (1 − m^D)/(1 − m)
    /// ```
    ///
    /// `b` equals the total contribution (Eq. 13) the delayed gradient
    /// would already have made to the weights in the no-delay case, so the
    /// "missing" update is applied as an immediate spike while later
    /// contributions match the no-delay impulse response (Figure 3).
    ///
    /// For `d == 0` this returns [`SpikeCoeffs::identity`] — SCD reduces
    /// exactly to SGDM without delay.
    ///
    /// # Example
    ///
    /// ```
    /// use pbp_optim::SpikeCoeffs;
    ///
    /// // For a delay of one, SCD is exactly Nesterov momentum (a = m, b = 1).
    /// let c = SpikeCoeffs::scd(0.9, 1.0);
    /// assert!((c.a - 0.9).abs() < 1e-6);
    /// assert!((c.b - 1.0).abs() < 1e-6);
    /// ```
    pub fn scd(momentum: f32, d: f32) -> Self {
        if d == 0.0 {
            return SpikeCoeffs::identity();
        }
        if momentum <= f32::EPSILON {
            // limit m→0: a = 0 (for d>0), b = 1.
            return SpikeCoeffs { a: 0.0, b: 1.0 };
        }
        let md = momentum.powf(d);
        SpikeCoeffs {
            a: md,
            b: (1.0 - md) / (1.0 - momentum),
        }
    }

    /// Total weight displacement per unit gradient over an infinite
    /// horizon, `a/(1−m) + b` — equals `1/(1−m)` for SCD, i.e. the same as
    /// plain momentum: SC redistributes contributions over time without
    /// changing their total (Section 3.2).
    pub fn total_contribution(&self, momentum: f32) -> f32 {
        self.a / (1.0 - momentum) + self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_reduces_to_sgdm() {
        let c = SpikeCoeffs::scd(0.9, 0.0);
        assert_eq!(c, SpikeCoeffs::identity());
    }

    #[test]
    fn delay_one_equals_nesterov() {
        // SCD with D=1: a = m, b = (1-m)/(1-m) = 1 — exactly Nesterov.
        let c = SpikeCoeffs::scd(0.9, 1.0);
        assert!((c.a - 0.9).abs() < 1e-6);
        assert!((c.b - 1.0).abs() < 1e-6);
    }

    #[test]
    fn b_matches_geometric_series_closed_form() {
        // Eq. 13: sum_{t=0}^{D-1} m^t == (1 - m^D) / (1 - m).
        for &m in &[0.5f32, 0.9, 0.99] {
            for d in 1..=16usize {
                let c = SpikeCoeffs::scd(m, d as f32);
                let series: f32 = (0..d).map(|t| m.powi(t as i32)).sum();
                assert!(
                    (c.b - series).abs() < 1e-3 * series.max(1.0),
                    "m={m} d={d}: {} vs {series}",
                    c.b
                );
            }
        }
    }

    #[test]
    fn total_contribution_is_preserved() {
        for &m in &[0.5f32, 0.9, 0.97] {
            for d in 0..10usize {
                let c = SpikeCoeffs::scd(m, d as f32);
                let total = c.total_contribution(m);
                assert!(
                    (total - 1.0 / (1.0 - m)).abs() < 1e-2 / (1.0 - m),
                    "m={m} d={d}: total {total}"
                );
            }
        }
    }

    #[test]
    fn zero_momentum_limit() {
        let c = SpikeCoeffs::scd(0.0, 4.0);
        assert_eq!(c.a, 0.0);
        assert_eq!(c.b, 1.0);
    }
}
