//! Collision-probability math (§4.2, "Collision probabilities and
//! parameter effects").
//!
//! For p-stable Euclidean LSH with bucket length `b`, the probability
//! that two points at distance `d` share a bucket in one table is
//! (Datar et al. 2004, with `t = b/d`):
//!
//! ```text
//! p_b(d) = 1 − 2Φ(−t) − (2 / (√(2π)·t)) · (1 − e^(−t²/2))
//! ```
//!
//! which decreases in `d` and increases in `b`. Two points share a cluster
//! when all `T` independent tables agree: `p_b(d)^T`.

/// Error function via the Abramowitz–Stegun 7.1.26 approximation
/// (|ε| ≤ 1.5e-7), adequate for parameter reasoning.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Single-table collision probability `p_b(d)` of Euclidean LSH.
///
/// `d = 0` collides with certainty; `b <= 0` or `d < 0` are rejected.
pub fn elsh_collision_prob(bucket_length: f64, distance: f64) -> f64 {
    assert!(bucket_length > 0.0, "bucket length must be positive");
    assert!(distance >= 0.0, "distance must be non-negative");
    if distance == 0.0 {
        return 1.0;
    }
    let t = bucket_length / distance;
    let p = 1.0
        - 2.0 * normal_cdf(-t)
        - (2.0 / ((2.0 * std::f64::consts::PI).sqrt() * t)) * (1.0 - (-t * t / 2.0).exp());
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_points() {
        assert!((erf(0.0)).abs() < 1e-8); // approximation residual ~1e-9
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn collision_prob_limits() {
        assert_eq!(elsh_collision_prob(1.0, 0.0), 1.0);
        // Far points almost never collide.
        assert!(elsh_collision_prob(1.0, 1000.0) < 1e-3);
        // Very wide buckets almost always collide.
        assert!(elsh_collision_prob(1000.0, 1.0) > 0.99);
    }

    #[test]
    fn collision_prob_monotone_in_distance() {
        let mut prev = 1.0;
        for d in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let p = elsh_collision_prob(1.0, d);
            assert!(p <= prev + 1e-12, "p({d}) = {p} > previous {prev}");
            prev = p;
        }
    }

    #[test]
    fn collision_prob_monotone_in_bucket_length() {
        let mut prev = 0.0;
        for b in [0.1, 0.5, 1.0, 2.0, 5.0] {
            let p = elsh_collision_prob(b, 1.0);
            assert!(p >= prev - 1e-12);
            prev = p;
        }
    }
}
