//! Property-based tests for the LSH substrate: theoretical collision
//! probabilities versus empirical behavior, clustering invariants.

use pg_lsh::prob::elsh_collision_prob;
use pg_lsh::{EuclideanLsh, MinHashLsh, SparseVec};
use proptest::prelude::*;

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

proptest! {
    // --- Probability functions stay probabilities.
    #[test]
    fn elsh_probability_bounds(b in 0.01f64..100.0, d in 0.0f64..1000.0) {
        let p = elsh_collision_prob(b, d);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    // --- ELSH empirics match theory within tolerance.
    #[test]
    fn elsh_single_table_collision_rate_matches_theory(
        d in 0.5f64..5.0, b in 0.5f64..5.0, seed in 0u64..100
    ) {
        // Two fixed points at distance d; measure collisions over many
        // independent single-table families.
        let trials = 400;
        let a = dense(&[0.0, 0.0]);
        let c = dense(&[d, 0.0]);
        let mut hits = 0;
        for t in 0..trials {
            let lsh = EuclideanLsh::new(2, 1, b, seed * 10_000 + t);
            if lsh.signature(&a) == lsh.signature(&c) {
                hits += 1;
            }
        }
        let empirical = hits as f64 / trials as f64;
        let theoretical = elsh_collision_prob(b, d);
        // Binomial noise at n=400: σ ≈ 0.025; allow 5σ.
        prop_assert!(
            (empirical - theoretical).abs() < 0.125,
            "empirical {empirical} vs theoretical {theoretical} (b={b}, d={d})"
        );
    }

    // --- Clustering invariants.
    #[test]
    fn signature_clustering_is_a_partition(
        points in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 3), 1..60),
        tables in 1usize..10,
        seed in 0u64..50
    ) {
        let items: Vec<SparseVec> = points.iter().map(|p| dense(p)).collect();
        let lsh = EuclideanLsh::new(3, tables, 1.0, seed);
        let c = lsh.cluster_signature(&items);
        prop_assert_eq!(c.assignment.len(), items.len());
        prop_assert!(c.assignment.iter().all(|&a| a < c.num_clusters));
        // Identical points always co-cluster.
        for i in 0..items.len() {
            for j in 0..items.len() {
                if items[i] == items[j] {
                    prop_assert_eq!(c.assignment[i], c.assignment[j]);
                }
            }
        }
    }

    #[test]
    fn minhash_identical_sets_always_co_cluster(
        sets in prop::collection::vec(prop::collection::vec(0u64..100, 0..10), 1..40),
        tables in 1usize..12,
        seed in 0u64..50
    ) {
        let mh = MinHashLsh::new(tables, seed);
        let c = mh.cluster_signature(&sets);
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let (mut a, mut b) = (sets[i].clone(), sets[j].clone());
                a.sort_unstable();
                a.dedup();
                b.sort_unstable();
                b.dedup();
                if a == b {
                    prop_assert_eq!(c.assignment[i], c.assignment[j]);
                }
            }
        }
    }

}
