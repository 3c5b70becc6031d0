//! MinHash LSH over element sets.
//!
//! `Pr[h(A) = h(B)] = J(A, B)` for a min-wise independent hash family;
//! two sets share a cluster when all `T` hash functions agree, which
//! near-duplicates do with probability `J^T`. This mirrors Spark MLlib's
//! `MinHashLSH` (the reference the paper cites), where each "table" is a
//! single min-hash value.

use crate::Clustering;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// A large Mersenne prime used for the universal hash family
/// `h(x) = (a·x + b) mod p`.
const PRIME: u64 = (1 << 61) - 1;

/// A configured MinHash family with `T` hash functions.
#[derive(Debug, Clone)]
pub struct MinHashLsh {
    coeffs: Vec<(u64, u64)>,
}

impl MinHashLsh {
    /// Create a family with `tables` hash functions, deterministic in
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `tables == 0`.
    pub fn new(tables: usize, seed: u64) -> MinHashLsh {
        assert!(tables > 0, "need at least one hash function");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let coeffs = (0..tables)
            .map(|_| (rng.gen_range(1..PRIME), rng.gen_range(0..PRIME)))
            .collect();
        MinHashLsh { coeffs }
    }

    /// Number of hash functions `T`.
    pub fn tables(&self) -> usize {
        self.coeffs.len()
    }

    /// MinHash signature of a set of element ids. The empty set hashes to
    /// the sentinel signature `[u64::MAX; T]` — the fold identity below —
    /// so that empty sets collide with each other (two property-less
    /// elements are structurally identical) but not with non-empty sets
    /// except with negligible probability: every hash value is strictly
    /// below `PRIME < u64::MAX`, so a non-empty set can never produce the
    /// sentinel.
    pub fn signature(&self, set: &[u64]) -> Vec<u64> {
        self.coeffs
            .iter()
            .map(|&(a, b)| {
                set.iter().fold(u64::MAX, |best, &x| {
                    // (a*x + b) mod p via u128 to avoid overflow.
                    best.min(((a as u128 * x as u128 + b as u128) % PRIME as u128) as u64)
                })
            })
            .collect()
    }

    /// Cluster by *full signature* equality (AND over all `T` functions),
    /// the Spark `groupBy(hashes)` analog used by the pipeline. Sets with
    /// identical membership always share a cluster; near-duplicates
    /// collide with probability `J^T`.
    ///
    /// Signatures are hashed in parallel and grouped by
    /// [`crate::cluster_by_signature`]'s sharded accumulation; bucket ids
    /// follow first-occurrence order regardless of thread count.
    pub fn cluster_signature(&self, items: &[Vec<u64>]) -> Clustering {
        let signatures: Vec<Vec<u64>> = items.par_iter().map(|s| self.signature(s)).collect();
        crate::cluster_by_signature(&signatures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fraction of hash functions on which two signatures agree: an
    /// unbiased estimate of the sets' Jaccard similarity.
    fn estimate_jaccard(sig_a: &[u64], sig_b: &[u64]) -> f64 {
        let agree = sig_a.iter().zip(sig_b).filter(|(a, b)| a == b).count();
        agree as f64 / sig_a.len() as f64
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let mh = MinHashLsh::new(16, 5);
        let a = vec![1, 2, 3, 4];
        assert_eq!(mh.signature(&a), mh.signature(&a.clone()));
    }

    #[test]
    fn jaccard_estimate_tracks_true_jaccard() {
        let mh = MinHashLsh::new(512, 9);
        // |A ∩ B| = 50, |A ∪ B| = 150 → J = 1/3.
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (50..150).collect();
        let est = estimate_jaccard(&mh.signature(&a), &mh.signature(&b));
        assert!(
            (est - 1.0 / 3.0).abs() < 0.08,
            "estimate {est} too far from 1/3"
        );
    }

    #[test]
    fn disjoint_large_sets_rarely_collide() {
        let mh = MinHashLsh::new(16, 2);
        let a: Vec<u64> = (0..50).collect();
        let b: Vec<u64> = (1000..1050).collect();
        let est = estimate_jaccard(&mh.signature(&a), &mh.signature(&b));
        assert!(est < 0.2, "disjoint sets estimated {est}");
    }

    #[test]
    fn clustering_groups_similar_sets() {
        let mh = MinHashLsh::new(24, 3);
        let mut items = Vec::new();
        // Group A: {0..20} listed from a different start each time;
        // group B likewise {100..120}. Equal sets agree in every function.
        for i in 0..10u64 {
            items.push((0..20).map(|x| (x + i) % 20).collect::<Vec<u64>>());
            items.push((0..20).map(|x| 100 + (x + i) % 20).collect::<Vec<u64>>());
        }
        let c = mh.cluster_signature(&items);
        assert_eq!(c.num_clusters, 2, "got {} clusters", c.num_clusters);
        let a = c.assignment[0];
        for i in (0..items.len()).step_by(2) {
            assert_eq!(c.assignment[i], a);
        }
    }

    #[test]
    fn empty_sets_cluster_together() {
        let mh = MinHashLsh::new(8, 1);
        let items = vec![vec![], vec![], vec![1, 2, 3]];
        let c = mh.cluster_signature(&items);
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_ne!(c.assignment[0], c.assignment[2]);
    }

    #[test]
    fn signature_clustering_groups_identical_sets() {
        let mh = MinHashLsh::new(12, 4);
        let items = vec![
            vec![1, 2, 3],
            vec![7, 8, 9, 10],
            vec![3, 2, 1],
            vec![],
            vec![],
        ];
        let c = mh.cluster_signature(&items);
        assert_eq!(c.assignment[0], c.assignment[2], "order-insensitive");
        assert_eq!(c.assignment[3], c.assignment[4], "empty sets together");
        assert_ne!(c.assignment[0], c.assignment[1]);
    }

    #[test]
    fn empty_set_signature_is_the_sentinel() {
        // Regression: `signature` once reduced with `.min().expect(
        // "non-empty")` behind an early-return guard; the fold identity
        // now produces the sentinel structurally, with no panic path.
        let mh = MinHashLsh::new(6, 11);
        assert_eq!(mh.signature(&[]), vec![u64::MAX; 6]);
        // A non-empty set can never reach the sentinel (hashes < PRIME).
        assert!(mh.signature(&[0, u64::MAX]).iter().all(|&h| h < PRIME));
    }

    #[test]
    fn all_empty_input_clusters_without_panicking() {
        let mh = MinHashLsh::new(4, 8);
        let items: Vec<Vec<u64>> = vec![vec![]; 10];
        let c = mh.cluster_signature(&items);
        assert_eq!(c.num_clusters, 1, "all empty sets share one bucket");
    }

    #[test]
    fn deterministic_per_seed() {
        let items: Vec<Vec<u64>> = (0..20).map(|i| vec![i, i + 1, i % 5]).collect();
        let a = MinHashLsh::new(8, 42).cluster_signature(&items);
        let b = MinHashLsh::new(8, 42).cluster_signature(&items);
        assert_eq!(a, b);
    }
}
