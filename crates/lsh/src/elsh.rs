//! Euclidean LSH: bucketed random projections (p-stable LSH for ℓ₂).
//!
//! Each of the `T` hash tables draws one Gaussian projection vector `a`
//! and an offset `u ~ U[0, b)`; the hash of `v` in that table is
//! `⌊(a·v + u) / b⌋` (Datar et al., the scheme Spark MLlib's
//! `BucketedRandomProjectionLSH` implements — the reference the paper
//! cites). A cluster is the set of vectors whose bucket ids agree in every
//! table (the artifact's `groupBy(hashes)`).
//!
//! The projection matrix is stored flat in dimension-major ("transposed")
//! layout — entry `(t, i)` lives at `proj[i * T + t]` — so hashing a
//! sparse vector walks its nonzeros once and updates all `T` dot-product
//! accumulators from one contiguous row per nonzero, instead of re-reading
//! the vector `T` times through `T` separate projection `Vec`s.

use crate::sparse::SparseVec;
use crate::Clustering;
use crate::FnvHashMap;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A configured Euclidean LSH family.
#[derive(Debug, Clone)]
pub struct EuclideanLsh {
    /// Bucket length `b > 0` (granularity of similarity).
    bucket_length: f64,
    /// Input dimensionality.
    dim: usize,
    /// Number of hash tables `T`.
    tables: usize,
    /// Flat Gaussian projection matrix in dimension-major layout:
    /// `proj[i * tables + t]` is coordinate `i` of table `t`'s vector.
    proj: Vec<f64>,
    /// Uniform offset per table in `[0, b)`.
    offsets: Vec<f64>,
}

impl EuclideanLsh {
    /// Create a family with `tables` hash tables over `dim`-dimensional
    /// input, deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if `bucket_length <= 0`, `tables == 0`, or `dim == 0`.
    pub fn new(dim: usize, tables: usize, bucket_length: f64, seed: u64) -> EuclideanLsh {
        assert!(bucket_length > 0.0, "bucket length must be positive");
        assert!(tables > 0, "need at least one hash table");
        assert!(dim > 0, "dimension must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Draw order is part of the determinism contract (all projection
        // Gaussians table-by-table, then the offsets): the flat layout
        // only changes where each draw is *stored*, never the stream.
        let mut proj = vec![0.0; tables * dim];
        for t in 0..tables {
            for i in 0..dim {
                proj[i * tables + t] = gaussian(&mut rng);
            }
        }
        let offsets = (0..tables)
            .map(|_| rng.gen::<f64>() * bucket_length)
            .collect();
        EuclideanLsh {
            bucket_length,
            dim,
            tables,
            proj,
            offsets,
        }
    }

    /// Number of hash tables `T`.
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Input dimensionality the family was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The bucket length `b`.
    pub fn bucket_length(&self) -> f64 {
        self.bucket_length
    }

    /// Hash one vector in one table.
    pub fn hash_in_table(&self, v: &SparseVec, table: usize) -> i64 {
        debug_assert!(table < self.tables);
        let dot: f64 = v
            .iter()
            .map(|(i, x)| x * self.proj[i as usize * self.tables + table])
            .sum();
        ((dot + self.offsets[table]) / self.bucket_length).floor() as i64
    }

    /// Compute all `T` bucket ids of `v` in a single pass over its
    /// nonzeros. `acc` and `sig` are caller-owned scratch of length `T`
    /// so bulk hashing allocates nothing per item.
    ///
    /// The per-table accumulation order matches [`Self::hash_in_table`]
    /// exactly (terms added in increasing index order starting from 0.0,
    /// offset added last), so the two paths are bit-identical.
    pub fn signature_into(&self, v: &SparseVec, acc: &mut [f64], sig: &mut [i64]) {
        debug_assert_eq!(v.dim(), self.dim);
        debug_assert_eq!(acc.len(), self.tables);
        debug_assert_eq!(sig.len(), self.tables);
        acc.fill(0.0);
        for (i, x) in v.iter() {
            let row = &self.proj[i as usize * self.tables..(i as usize + 1) * self.tables];
            for (a, &p) in acc.iter_mut().zip(row) {
                *a += x * p;
            }
        }
        for ((s, &a), &u) in sig.iter_mut().zip(acc.iter()).zip(&self.offsets) {
            *s = ((a + u) / self.bucket_length).floor() as i64;
        }
    }

    /// The full signature (one bucket id per table).
    pub fn signature(&self, v: &SparseVec) -> Vec<i64> {
        let mut acc = vec![0.0; self.tables];
        let mut sig = vec![0i64; self.tables];
        self.signature_into(v, &mut acc, &mut sig);
        sig
    }

    /// Cluster by *full signature* equality (AND over all `T` tables).
    ///
    /// This mirrors the Spark pattern the paper's artifact uses
    /// (`transform` + `groupBy(hashes)`): a cluster is a set of items
    /// whose bucket ids agree in **every** table. It deliberately
    /// over-fragments — PG-HIVE "prefers more separate types" because the
    /// type-extraction step merges afterwards (§4.2/§4.3). Increasing `T`
    /// or shrinking `b` makes the clusters finer, matching the paper's
    /// parameter-effect discussion.
    ///
    /// The grouping never materializes per-item signature `Vec`s: it
    /// hashes each signature into a `u64` key from a reused scratch
    /// buffer, and keeps a full signature only per *distinct* group (its
    /// first occupant) to verify candidates against, so a `u64` collision
    /// can never merge two different signatures. Bucket ids follow
    /// first-occurrence order, as in [`crate::cluster_by_signature`].
    pub fn cluster_signature(&self, items: &[SparseVec]) -> Clustering {
        let t = self.tables;
        let mut acc = vec![0.0; t];
        let mut sig = vec![0i64; t];
        let mut buckets: FnvHashMap<u64, Vec<usize>> = FnvHashMap::default();
        // Group-major representative signatures: group `g` is
        // `rep_sigs[g * t..(g + 1) * t]`.
        let mut rep_sigs: Vec<i64> = Vec::new();
        let mut assignment = Vec::with_capacity(items.len());
        for v in items {
            self.signature_into(v, &mut acc, &mut sig);
            let gids = buckets.entry(fnv1a_sig(&sig)).or_default();
            let found = gids
                .iter()
                .copied()
                .find(|&g| rep_sigs[g * t..(g + 1) * t] == sig[..]);
            let gid = found.unwrap_or_else(|| {
                let g = rep_sigs.len() / t;
                rep_sigs.extend_from_slice(&sig);
                gids.push(g);
                g
            });
            assignment.push(gid);
        }
        Clustering {
            num_clusters: rep_sigs.len() / t,
            assignment,
        }
    }
}

/// FNV-1a over a signature's bucket ids (little-endian bytes). Only a
/// grouping accelerator: equal signatures always agree, and unequal
/// signatures that collide are separated by the representative check.
fn fnv1a_sig(sig: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &s in sig {
        for b in s.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(coords: &[f64]) -> SparseVec {
        SparseVec::new(
            coords.len(),
            coords
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as u32, x))
                .collect(),
        )
    }

    #[test]
    fn identical_points_always_collide() {
        let lsh = EuclideanLsh::new(4, 10, 1.0, 1);
        let a = point(&[0.3, -1.0, 2.0, 0.0]);
        let b = a.clone();
        assert_eq!(lsh.signature(&a), lsh.signature(&b));
    }

    #[test]
    fn single_pass_kernel_matches_per_table_hashing() {
        // The flat kernel and the scalar `hash_in_table` path must agree
        // bit-for-bit on every table, including negative buckets.
        let lsh = EuclideanLsh::new(64, 17, 0.37, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let entries: Vec<(u32, f64)> = (0..12)
                .map(|_| (rng.gen_range(0..64u32), rng.gen::<f64>() * 8.0 - 4.0))
                .collect();
            let v = SparseVec::new(64, entries);
            let sig = lsh.signature(&v);
            assert_eq!(sig.len(), lsh.tables());
            for (t, &bucket) in sig.iter().enumerate() {
                assert_eq!(bucket, lsh.hash_in_table(&v, t), "table {t}");
            }
        }
    }

    /// Reference grouping: materialize every signature, group them with
    /// the generic scan. The hashed fast path must match it.
    fn reference_cluster_signature(lsh: &EuclideanLsh, items: &[SparseVec]) -> Clustering {
        let signatures: Vec<Vec<i64>> = items.iter().map(|v| lsh.signature(v)).collect();
        crate::cluster_by_signature(&signatures)
    }

    #[test]
    fn hashed_grouping_matches_materialized_signatures() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Heavy duplication plus unique stragglers.
        let items: Vec<SparseVec> = (0..800)
            .map(|i| {
                if i % 3 == 0 {
                    point(&[(i % 5) as f64, 1.0, 0.0])
                } else {
                    point(&[rng.gen::<f64>() * 50.0, rng.gen::<f64>(), 2.0])
                }
            })
            .collect();
        let lsh = EuclideanLsh::new(3, 12, 1.0, 5);
        assert_eq!(
            lsh.cluster_signature(&items),
            reference_cluster_signature(&lsh, &items)
        );
    }

    #[test]
    fn well_separated_clusters_are_recovered() {
        // Two tight blobs far apart.
        let mut items = Vec::new();
        for i in 0..20 {
            let eps = (i as f64) * 1e-3;
            items.push(point(&[0.0 + eps, 0.0, 0.0]));
            items.push(point(&[100.0 + eps, 100.0, 100.0]));
        }
        let lsh = EuclideanLsh::new(3, 8, 1.0, 7);
        let c = lsh.cluster_signature(&items);
        assert_eq!(c.num_clusters, 2);
        // Even items (blob A) share a cluster; odd items (blob B) share
        // the other.
        let a = c.assignment[0];
        let b = c.assignment[1];
        assert_ne!(a, b);
        for i in 0..items.len() {
            assert_eq!(c.assignment[i], if i % 2 == 0 { a } else { b });
        }
    }

    #[test]
    fn larger_buckets_merge_more() {
        let items: Vec<SparseVec> = (0..40).map(|i| point(&[i as f64 * 0.5, 0.0])).collect();
        let fine = EuclideanLsh::new(2, 6, 0.25, 3).cluster_signature(&items);
        let coarse = EuclideanLsh::new(2, 6, 50.0, 3).cluster_signature(&items);
        assert!(
            coarse.num_clusters <= fine.num_clusters,
            "coarse {} vs fine {}",
            coarse.num_clusters,
            fine.num_clusters
        );
        assert_eq!(coarse.num_clusters, 1, "a giant bucket swallows all");
    }

    #[test]
    fn clustering_is_deterministic_per_seed() {
        let items: Vec<SparseVec> = (0..30)
            .map(|i| point(&[(i % 3) as f64 * 10.0, (i % 5) as f64]))
            .collect();
        let a = EuclideanLsh::new(2, 5, 1.0, 11).cluster_signature(&items);
        let b = EuclideanLsh::new(2, 5, 1.0, 11).cluster_signature(&items);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        let lsh = EuclideanLsh::new(2, 3, 1.0, 0);
        assert!(lsh.cluster_signature(&[]).is_empty());
    }

    #[test]
    fn all_zero_vectors_hash_without_panicking() {
        // Audit companion to minhash's empty-set regression: ELSH's
        // degenerate input is the all-zero vector (no reduce to panic
        // on — the dot product of an empty entry list is just 0.0).
        let lsh = EuclideanLsh::new(3, 4, 1.0, 2);
        let items = vec![point(&[0.0, 0.0, 0.0]); 5];
        let c = lsh.cluster_signature(&items);
        assert_eq!(c.num_clusters, 1, "identical zero vectors share a bucket");
    }

    #[test]
    fn signature_clustering_groups_identical_vectors() {
        let lsh = EuclideanLsh::new(3, 12, 1.0, 5);
        let items = vec![
            point(&[1.0, 2.0, 3.0]),
            point(&[50.0, -2.0, 0.0]),
            point(&[1.0, 2.0, 3.0]),
            point(&[50.0, -2.0, 0.0]),
        ];
        let c = lsh.cluster_signature(&items);
        assert_eq!(c.assignment[0], c.assignment[2]);
        assert_eq!(c.assignment[1], c.assignment[3]);
        assert_ne!(c.assignment[0], c.assignment[1]);
    }

    #[test]
    #[should_panic(expected = "bucket length")]
    fn zero_bucket_length_panics() {
        let _ = EuclideanLsh::new(2, 3, 0.0, 0);
    }
}
