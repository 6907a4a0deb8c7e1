//! Closed forms the checks compare the simulator against. Written here
//! from the textbook relations, not taken from the program.

use std::f64::consts::{FRAC_PI_4, SQRT_2};

/// Fig. 5: image-rejection ratio (dB) of a Hartley front end with
/// quadrature phase error `phase_deg` and fractional gain error `gain`.
pub fn irr_db(phase_deg: f64, gain: f64) -> f64 {
    let a = 1.0 + gain;
    let c = phase_deg.to_radians().cos();
    10.0 * ((1.0 + 2.0 * a * c + a * a) / (1.0 - 2.0 * a * c + a * a)).log10()
}

/// Phase and gain error at the design frequency of the first-order
/// RC (low-pass, output `a`) and CR (high-pass, output `b`) arms when
/// `R1 = R (1 + m)`: `ωR1C = 1 + m` and `ωR2C = 1`.
pub fn rc_cr_balance(m: f64) -> (f64, f64) {
    let x = 1.0 + m;
    let phase_deg = (x.atan() - FRAC_PI_4).to_degrees();
    let gain = (1.0 + x * x).sqrt() / SQRT_2 - 1.0;
    (phase_deg, gain)
}

/// IRR (dB) of the RC-CR shifter with `R1` mismatch `m`.
pub fn shifter_irr_db(m: f64) -> f64 {
    let (p, g) = rc_cr_balance(m);
    irr_db(p, g)
}

/// Complementary error function (Chebyshev fit, fractional error below
/// 1.2e-7 everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Standard normal CDF.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// The mismatch between `inside` (passing) and `outside` (failing)
/// where `shifter_irr_db` crosses `required`, by bisection.
fn crossing(inside: f64, outside: f64, required: f64) -> f64 {
    let (mut a, mut b) = (inside, outside);
    for _ in 0..200 {
        let mid = 0.5 * (a + b);
        if shifter_irr_db(mid) >= required {
            a = mid;
        } else {
            b = mid;
        }
    }
    0.5 * (a + b)
}

/// P(IRR ≥ `required`) for `m ~ N(0, sigma)`: the passing mismatch
/// interval `[m_lo, m_hi]` around the balanced point, through the
/// normal CDF.
pub fn analytic_yield(sigma: f64, required: f64) -> f64 {
    let m_hi = crossing(0.0, 1.0, required);
    let m_lo = crossing(0.0, -0.99, required);
    normal_cdf(m_hi / sigma) - normal_cdf(m_lo / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irr_matches_the_zero_gain_error_form() {
        // With equal gains the relation reduces to cot²(θ/2).
        for deg in [1.0_f64, 2.0, 5.0, 10.0, 20.0] {
            let cot = 1.0 / (deg.to_radians() / 2.0).tan();
            assert!((irr_db(deg, 0.0) - 20.0 * cot.log10()).abs() < 1e-9);
        }
        assert!(irr_db(10.0, 0.05) < irr_db(10.0, 0.0));
    }

    #[test]
    fn balanced_shifter_is_exact_quadrature() {
        let (p, g) = rc_cr_balance(0.0);
        assert!(p.abs() < 1e-12 && g.abs() < 1e-12);
        // R1 up: more phase lag in the low-pass arm, smaller |a|.
        let (p, g) = rc_cr_balance(0.1);
        assert!(p > 0.0 && g > 0.0);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_746).abs() < 1e-7);
        assert!((normal_cdf(-1.959_963_985) - 0.025).abs() < 1e-7);
        assert!((normal_cdf(4.0) - 0.999_968_329).abs() < 1e-7);
    }

    /// The closed form against brute-force integration of the normal
    /// density over the mismatches whose IRR passes.
    #[test]
    fn analytic_yield_matches_numeric_integration() {
        for (sigma, required) in [(0.05, 30.0), (0.02, 30.0), (0.1, 25.0), (0.05, 40.0)] {
            // The midpoint rule misplaces each interval edge by at most
            // h/2, so it is within pdf(edge)·h of the exact integral.
            let n = 2_000_000;
            let (lo, hi) = (-10.0 * sigma, 10.0 * sigma);
            let h = (hi - lo) / n as f64;
            let norm = 1.0 / (sigma * (2.0 * std::f64::consts::PI).sqrt());
            let brute: f64 = (0..n)
                .map(|k| lo + (k as f64 + 0.5) * h)
                .filter(|&m| shifter_irr_db(m) >= required)
                .map(|m| norm * (-0.5 * (m / sigma).powi(2)).exp() * h)
                .sum();
            let closed = analytic_yield(sigma, required);
            assert!(
                (brute - closed).abs() < 1e-5,
                "sigma {sigma} req {required}: brute {brute} closed {closed}"
            );
        }
        // The paper's §2.2 example.
        assert!((analytic_yield(0.05, 30.0) - 0.9263).abs() < 5e-4);
    }
}
