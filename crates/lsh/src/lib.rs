//! # pg-lsh
//!
//! Locality-Sensitive Hashing for PG-HIVE's clustering step (§4.2):
//!
//! * [`elsh::EuclideanLsh`] — bucketed random projections (p-stable LSH
//!   for ℓ₂ distance) with bucket length `b` and `T` hash tables; a
//!   *cluster* is the set of items whose bucket ids agree in every table
//!   (the artifact's `groupBy(hashes)`).
//! * [`minhash::MinHashLsh`] — MinHash over element sets, `T` hash
//!   functions, clustered the same way.
//! * [`adaptive`] — the paper's adaptive parameterization: sample the
//!   graph, estimate the distance scale μ, set `b = 1.2·μ·α` with α tiered
//!   by label count, and scale `T` with dataset size.
//! * [`prob`] — collision-probability math: `p_b(d)` for one table
//!   (Datar et al.).
//! * [`sparse::SparseVec`] — the sparse feature vectors produced by
//!   PG-HIVE's featurization (dense label embedding ‖ sparse binary
//!   property indicators).

pub mod adaptive;
pub mod elsh;
pub mod minhash;
pub mod prob;
pub mod sparse;

pub use adaptive::{AdaptiveParams, ElementKind};
pub use elsh::EuclideanLsh;
pub use minhash::MinHashLsh;
pub use sparse::SparseVec;

/// Streaming FNV-1a, exposed as a [`std::hash::Hasher`] so the crate's
/// hot hash maps (signature buckets, fingerprint grouping) skip SipHash.
/// The keys here are short — a handful of machine words or a short
/// string — where FNV's per-byte loop beats SipHash's setup cost by a
/// wide margin, and hash-flooding resistance buys nothing (all keys are
/// program-generated). Map iteration order is never observable in this
/// codebase (outputs are always rebuilt in input order), so the hasher
/// choice cannot affect results.
pub struct Fnv1aState(u64);

impl Default for Fnv1aState {
    fn default() -> Self {
        Fnv1aState(0xcbf29ce484222325)
    }
}

impl std::hash::Hasher for Fnv1aState {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`Fnv1aState`]; see there.
#[derive(Clone, Copy, Default)]
pub struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = Fnv1aState;

    fn build_hasher(&self) -> Fnv1aState {
        Fnv1aState::default()
    }
}

/// A `HashMap` using FNV-1a instead of SipHash.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuild>;

/// A deterministic grouping of items by key equality: `assignment[i]` is
/// the group id of item `i`, ids are dense in `0..num_groups` in
/// **first-occurrence order**, and `reps[g]` is the index of the first
/// item of group `g` (its representative).
///
/// This is the entry point of the structural-fingerprint dedup fast
/// path: records collapse to their fingerprint groups, only the `reps`
/// are featurized and hashed, and cluster ids are broadcast back through
/// `assignment`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    /// Group id per item (dense, first-occurrence order).
    pub assignment: Vec<usize>,
    /// Index of the first item of each group.
    pub reps: Vec<usize>,
    /// Number of distinct groups.
    pub num_groups: usize,
}

/// Group items by key equality in one left-to-right scan: a key's group
/// id is the number of distinct keys seen before its first occurrence,
/// and that occurrence is the group's representative.
pub fn group_by_key<K: Eq + std::hash::Hash>(keys: &[K]) -> Grouping {
    let mut ids: FnvHashMap<&K, usize> = FnvHashMap::default();
    let mut reps = Vec::new();
    let assignment = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            *ids.entry(key).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            })
        })
        .collect();
    Grouping {
        assignment,
        num_groups: reps.len(),
        reps,
    }
}

/// Group items by full-signature equality (the AND rule), assigning
/// dense bucket ids in **first-occurrence order**.
pub fn cluster_by_signature<T: Eq + std::hash::Hash>(signatures: &[Vec<T>]) -> Clustering {
    let g = group_by_key(signatures);
    Clustering {
        assignment: g.assignment,
        num_clusters: g.num_groups,
    }
}

/// A clustering of `n` items: `assignment[i]` is the cluster id of item
/// `i`; ids are dense in `0..num_clusters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster id per item.
    pub assignment: Vec<usize>,
    /// Number of clusters.
    pub num_clusters: usize,
}

impl Clustering {
    /// Build from a raw assignment, renumbering ids densely while
    /// preserving first-appearance order.
    pub fn from_assignment(raw: Vec<usize>) -> Clustering {
        let mut remap = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for r in raw {
            let next = remap.len();
            let id = *remap.entry(r).or_insert(next);
            assignment.push(id);
        }
        Clustering {
            assignment,
            num_clusters: remap.len(),
        }
    }

    /// Group item indices per cluster.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_clusters];
        for (item, &c) in self.assignment.iter().enumerate() {
            groups[c].push(item);
        }
        groups
    }

    /// Number of items clustered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the clustering is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_renumbers_densely() {
        let c = Clustering::from_assignment(vec![5, 5, 9, 5, 2]);
        assert_eq!(c.assignment, vec![0, 0, 1, 0, 2]);
        assert_eq!(c.num_clusters, 3);
        assert_eq!(c.groups(), vec![vec![0, 1, 3], vec![2], vec![4]]);
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::from_assignment(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.num_clusters, 0);
        assert!(c.groups().is_empty());
    }

    /// Reference implementation: a first-occurrence scan through
    /// `Clustering::from_assignment`'s renumbering.
    fn sequential_group(signatures: &[Vec<u64>]) -> Clustering {
        let mut buckets: std::collections::HashMap<&[u64], usize> =
            std::collections::HashMap::new();
        let mut raw = Vec::with_capacity(signatures.len());
        for sig in signatures {
            let next = buckets.len();
            raw.push(*buckets.entry(sig.as_slice()).or_insert(next));
        }
        Clustering::from_assignment(raw)
    }

    #[test]
    fn sharded_grouping_matches_sequential_scan() {
        // Heavy duplication, so signatures recur far from their first
        // occurrence.
        let signatures: Vec<Vec<u64>> =
            (0..1500).map(|i| vec![(i * 7) % 13, (i * 3) % 5]).collect();
        assert_eq!(
            cluster_by_signature(&signatures),
            sequential_group(&signatures)
        );
    }

    #[test]
    fn sharded_grouping_handles_tiny_and_empty_inputs() {
        assert!(cluster_by_signature::<u64>(&[]).is_empty());
        let one = cluster_by_signature(&[vec![9u64]]);
        assert_eq!(one.assignment, vec![0]);
        assert_eq!(one.num_clusters, 1);
    }

    #[test]
    fn sharded_grouping_ids_follow_first_occurrence() {
        let signatures = vec![vec![5u64], vec![1], vec![5], vec![2], vec![1]];
        let c = cluster_by_signature(&signatures);
        assert_eq!(c.assignment, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn group_by_key_ids_and_reps_follow_first_occurrence() {
        let keys = vec!["b", "a", "b", "c", "a", "c", "b"];
        let g = group_by_key(&keys);
        assert_eq!(g.assignment, vec![0, 1, 0, 2, 1, 2, 0]);
        assert_eq!(g.reps, vec![0, 1, 3], "reps are the first occurrences");
        assert_eq!(g.num_groups, 3);
    }

    #[test]
    fn group_by_key_matches_sequential_scan_at_any_thread_count() {
        let keys: Vec<u64> = (0..2000).map(|i| (i * 13) % 17).collect();
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut expected_assignment = Vec::new();
        let mut expected_reps = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let next = seen.len();
            let id = *seen.entry(k).or_insert_with(|| {
                expected_reps.push(i);
                next
            });
            expected_assignment.push(id);
        }
        let g = group_by_key(&keys);
        assert_eq!(g.assignment, expected_assignment);
        assert_eq!(g.reps, expected_reps);
    }

    #[test]
    fn group_by_key_handles_empty_input() {
        let g = group_by_key::<u64>(&[]);
        assert!(g.assignment.is_empty() && g.reps.is_empty());
        assert_eq!(g.num_groups, 0);
    }
}
