//! Order statistics used by every report: median, quartiles, and the
//! tail percentile a sample is large enough to support.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        })
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample; 0 for an empty one (a layer that did no
/// work on this workload).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Percentiles a latency report may quote, highest first, each with the
/// sample count that leaves ten samples beyond it.
const TAIL_PERCENTILES: [(f64, usize); 4] =
    [(99.9, 10_000), (99.0, 1_000), (95.0, 200), (90.0, 100)];

/// The highest percentile with at least ten samples beyond it, and its
/// value. `None` below 100 samples: no tail is supported, quote the max.
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    TAIL_PERCENTILES
        .iter()
        .find(|(_, needs)| s.len() >= *needs)
        .map(|&(p, _)| (p, quantile_sorted(&s, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_tail(&n(99)), None);
        assert_eq!(supported_tail(&n(100)).unwrap().0, 90.0);
        assert_eq!(supported_tail(&n(199)).unwrap().0, 90.0);
        assert_eq!(supported_tail(&n(200)).unwrap().0, 95.0);
        assert_eq!(supported_tail(&n(1000)).unwrap().0, 99.0);
        assert_eq!(supported_tail(&n(10_000)).unwrap().0, 99.9);
        let (p, v) = supported_tail(&n(201)).unwrap();
        assert_eq!((p, v), (95.0, 190.0));
    }
}
