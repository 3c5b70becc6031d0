//! Adaptive LSH parameterization (§4.2, "Adaptive parameterization").
//!
//! Before clustering, PG-HIVE samples a small portion of the graph
//! (1 %, or at least 10 k elements, whichever is larger — capped at the
//! dataset size), measures the average pairwise Euclidean distance μ of
//! the sample, and derives:
//!
//! * `b_base = 1.2 · μ` — bucket width proportional to the data's actual
//!   distance scale (the 1.2 factor avoids over-fragmentation);
//! * `α` tiered by the number of distinct labels `L`: `0.8` for `L ≤ 3`,
//!   `1.0` for `4 ≤ L ≤ 10`, `1.5` for `L > 10`;
//! * `b = b_base · α`;
//! * `T = b_base · max(5, α · min(25, log₁₀ N))` for nodes and
//!   `T = b_base · max(3, α · min(20, log₁₀ E))` for edges, rounded and
//!   clamped to a sane table count.
//!
//! Users can always bypass this and supply explicit `(b, T)` — Figure 6
//! sweeps that space against the adaptive choice.

use crate::sparse::SparseVec;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Whether parameters are derived for node or edge clustering (edges use
/// slightly smaller `α` and a smaller `T` floor, per the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Node vectors (`R^{d+K}`).
    Node,
    /// Edge vectors (`R^{3d+Q}`).
    Edge,
}

/// The adaptive parameter choice, with the intermediate quantities kept
/// for reporting (Figure 6 marks the adaptive `(T, α)` with a red ×).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Estimated distance scale μ of the sample.
    pub mu: f64,
    /// `b_base = 1.2 · μ`.
    pub b_base: f64,
    /// The label-count multiplier α.
    pub alpha: f64,
    /// Final bucket length `b = b_base · α`.
    pub bucket_length: f64,
    /// Final number of hash tables `T`.
    pub tables: usize,
}

/// Bounds on the derived table count. The paper reports `T ∈ [15, 35]`
/// as the practical range; the lower bound matters on small graphs,
/// where the size-driven formula alone would under-amplify and let
/// distinct-label patterns share a full signature.
const MIN_TABLES: usize = 25;
const MAX_TABLES: usize = 48;

/// The α tier for a label count, with the per-kind practical clamp
/// (`α ∈ [0.5, 2]` for nodes, `[0.5, 1.5]` for edges). Edges use one
/// tier lower — §4.2: "edges benefit from slightly smaller α, due to
/// smaller vector representations".
pub fn alpha_for_labels(distinct_labels: usize, kind: ElementKind) -> f64 {
    let raw: f64 = match kind {
        ElementKind::Node => match distinct_labels {
            0..=3 => 0.8,
            4..=10 => 1.0,
            _ => 1.5,
        },
        ElementKind::Edge => match distinct_labels {
            0..=3 => 0.6,
            4..=10 => 0.8,
            _ => 1.2,
        },
    };
    match kind {
        ElementKind::Node => raw.clamp(0.5, 2.0),
        ElementKind::Edge => raw.clamp(0.5, 1.5),
    }
}

/// Derive adaptive parameters from the items themselves.
///
/// `distinct_labels` is the number of distinct individual labels observed
/// for this element kind. Deterministic in `seed`.
pub fn adapt(
    items: &[SparseVec],
    distinct_labels: usize,
    kind: ElementKind,
    seed: u64,
) -> AdaptiveParams {
    let mu = sample_distance_scale(items, seed);
    from_scale(mu, items.len(), distinct_labels, kind)
}

/// Derive parameters from a pre-computed distance scale (used by tests
/// and by the Figure 6 sweep, which fixes μ and varies `(T, α)`).
pub fn from_scale(
    mu: f64,
    n_items: usize,
    distinct_labels: usize,
    kind: ElementKind,
) -> AdaptiveParams {
    // Guard a degenerate sample (all-identical vectors): fall back to a
    // unit scale so the bucket length stays positive.
    let mu_safe = if mu > 1e-9 { mu } else { 1.0 };
    let b_base = 1.2 * mu_safe;
    let alpha = alpha_for_labels(distinct_labels, kind);
    let bucket_length = b_base * alpha;

    let n = (n_items.max(1)) as f64;
    let t_raw = match kind {
        ElementKind::Node => b_base * f64::max(5.0, alpha * f64::min(25.0, n.log10())),
        ElementKind::Edge => b_base * f64::max(3.0, alpha * f64::min(20.0, n.log10())),
    };
    let tables = (t_raw.round() as isize).clamp(MIN_TABLES as isize, MAX_TABLES as isize) as usize;

    AdaptiveParams {
        mu: mu_safe,
        b_base,
        alpha,
        bucket_length,
        tables,
    }
}

/// Estimate the distance scale: sample `max(1 % of N, 10 k)` items
/// (capped at N), then average the Euclidean distance over up to 5 000
/// random pairs of the sample.
pub fn sample_distance_scale(items: &[SparseVec], seed: u64) -> f64 {
    sampled_scale(items.len(), seed, |a, b| items[a].distance(&items[b]))
}

/// [`sample_distance_scale`] over a deduplicated item set: `reps[g]` is
/// the representative vector of fingerprint group `g` and
/// `assignment[i]` maps virtual item `i` of the *full* record set to its
/// group. The RNG stream depends only on `(assignment.len(), seed)` and
/// every virtual pair `(a, b)` measures
/// `reps[assignment[a]].distance(&reps[assignment[b]])` — which is the
/// distance the naive path would compute between records `a` and `b`
/// (vectors are value-independent) — so μ is bit-identical to sampling
/// the fully materialized vectors.
pub fn grouped_distance_scale(reps: &[SparseVec], assignment: &[usize], seed: u64) -> f64 {
    sampled_scale(assignment.len(), seed, |a, b| {
        reps[assignment[a]].distance(&reps[assignment[b]])
    })
}

/// [`adapt`] over a deduplicated item set (see
/// [`grouped_distance_scale`]); `assignment.len()` is the virtual record
/// count that also drives the table-count formula.
pub fn adapt_grouped(
    reps: &[SparseVec],
    assignment: &[usize],
    distinct_labels: usize,
    kind: ElementKind,
    seed: u64,
) -> AdaptiveParams {
    let mu = grouped_distance_scale(reps, assignment, seed);
    from_scale(mu, assignment.len(), distinct_labels, kind)
}

/// The sampling core shared by the direct and grouped entry points. The
/// entire RNG stream — shuffle, pair draws, collision fallback — depends
/// only on `(n, seed)`, so two callers with the same virtual item count
/// and a pointwise-equal `dist` produce the same μ bit-for-bit.
fn sampled_scale(n: usize, seed: u64, dist: impl Fn(usize, usize) -> f64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let want = (n / 100).max(10_000).min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx.truncate(want);

    let pairs = 5_000.min(idx.len() * (idx.len() - 1) / 2).max(1);
    let mut acc = 0.0;
    let mut count = 0usize;
    for _ in 0..pairs {
        let a = idx[rng.gen_range(0..idx.len())];
        let mut b = idx[rng.gen_range(0..idx.len())];
        if a == b {
            b = idx[(idx.iter().position(|&x| x == a).unwrap() + 1) % idx.len()];
            if a == b {
                continue;
            }
        }
        acc += dist(a, b);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(coords: &[f64]) -> SparseVec {
        SparseVec::new(
            coords.len(),
            coords
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as u32, x))
                .collect(),
        )
    }

    fn blob(n: usize, center: f64, spread: f64, seed: u64) -> Vec<SparseVec> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                dense(&[
                    center + rng.gen::<f64>() * spread,
                    center - rng.gen::<f64>() * spread,
                ])
            })
            .collect()
    }

    #[test]
    fn alpha_tiers() {
        assert_eq!(alpha_for_labels(2, ElementKind::Node), 0.8);
        assert_eq!(alpha_for_labels(4, ElementKind::Node), 1.0);
        assert_eq!(alpha_for_labels(10, ElementKind::Node), 1.0);
        assert_eq!(alpha_for_labels(11, ElementKind::Node), 1.5);
        // Edge tiers sit one step lower, clamped within [0.5, 1.5].
        assert_eq!(alpha_for_labels(2, ElementKind::Edge), 0.6);
        assert_eq!(alpha_for_labels(5, ElementKind::Edge), 0.8);
        assert_eq!(alpha_for_labels(50, ElementKind::Edge), 1.2);
    }

    #[test]
    fn bucket_scales_with_distance_scale() {
        let tight = blob(200, 0.0, 0.01, 1);
        let wide: Vec<SparseVec> = (0..200)
            .map(|i| dense(&[(i % 7) as f64 * 10.0, (i % 3) as f64 * 10.0]))
            .collect();
        let pt = adapt(&tight, 5, ElementKind::Node, 0);
        let pw = adapt(&wide, 5, ElementKind::Node, 0);
        assert!(pw.bucket_length > pt.bucket_length);
        assert!((pt.b_base - 1.2 * pt.mu).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sample_falls_back_to_unit_scale() {
        let same: Vec<SparseVec> = (0..50).map(|_| dense(&[1.0, 2.0])).collect();
        let p = adapt(&same, 3, ElementKind::Node, 0);
        assert!(p.bucket_length > 0.0);
        assert_eq!(p.mu, 1.0);
    }

    #[test]
    fn tables_respect_bounds_and_kind() {
        let p = from_scale(1.0, 1_000_000, 5, ElementKind::Node);
        assert!((MIN_TABLES..=MAX_TABLES).contains(&p.tables));
        let pe = from_scale(1.0, 1_000_000, 5, ElementKind::Edge);
        assert!(pe.tables <= p.tables, "edge floor is lower");
    }

    #[test]
    fn more_labels_widen_buckets() {
        let few = from_scale(1.0, 10_000, 2, ElementKind::Node);
        let many = from_scale(1.0, 10_000, 20, ElementKind::Node);
        assert!(many.bucket_length > few.bucket_length);
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        assert_eq!(sample_distance_scale(&[], 0), 0.0);
        let one = vec![dense(&[1.0])];
        assert_eq!(sample_distance_scale(&one, 0), 0.0);
        let p = adapt(&one, 1, ElementKind::Node, 0);
        assert!(p.tables >= MIN_TABLES);
    }

    #[test]
    fn deterministic_in_seed() {
        let items = blob(500, 0.0, 1.0, 3);
        let a = adapt(&items, 5, ElementKind::Node, 7);
        let b = adapt(&items, 5, ElementKind::Node, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn grouped_scale_is_bit_identical_to_direct() {
        // Build a record set with heavy structural duplication, then the
        // dedup view of it: distinct reps + assignment. The grouped
        // estimator must reproduce the direct one exactly.
        let reps = vec![
            dense(&[0.0, 1.0, 0.0]),
            dense(&[5.0, 0.0, 2.0]),
            dense(&[-3.0, 4.0, 1.0]),
        ];
        let assignment: Vec<usize> = (0..700).map(|i| (i * 7) % 3).collect();
        let full: Vec<SparseVec> = assignment.iter().map(|&g| reps[g].clone()).collect();
        for seed in [0, 7, 99] {
            let direct = sample_distance_scale(&full, seed);
            let grouped = grouped_distance_scale(&reps, &assignment, seed);
            assert_eq!(direct.to_bits(), grouped.to_bits(), "seed = {seed}");
            let pd = adapt(&full, 5, ElementKind::Node, seed);
            let pg = adapt_grouped(&reps, &assignment, 5, ElementKind::Node, seed);
            assert_eq!(pd, pg, "seed = {seed}");
        }
    }
}
