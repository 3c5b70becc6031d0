//! Sparse feature vectors.
//!
//! PG-HIVE's hybrid vectors concatenate a small dense label embedding
//! with a wide, sparse binary property-indicator block (§4.1). Datasets
//! like IYP have hundreds of distinct property keys, so a dense
//! representation would waste memory; a sparse index/value list keeps
//! projections `O(nnz)`.

/// A sparse vector in `R^dim`: strictly increasing indices with values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    entries: Vec<(u32, f64)>,
}

impl SparseVec {
    /// Build from `(index, value)` pairs; sorts, merges duplicates by
    /// last-write-wins, and drops explicit zeros.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn new(dim: usize, mut entries: Vec<(u32, f64)>) -> SparseVec {
        entries.sort_by_key(|e| e.0);
        entries.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        entries.retain(|e| e.1 != 0.0);
        if let Some(last) = entries.last() {
            assert!(
                (last.0 as usize) < dim,
                "index {} out of bounds for dim {dim}",
                last.0
            );
        }
        SparseVec { dim, entries }
    }

    /// Dimensionality of the ambient space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Iterate `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Squared Euclidean distance to another sparse vector.
    pub fn distance_sq(&self, other: &SparseVec) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    acc += a[i].1 * a[i].1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    acc += b[j].1 * b[j].1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let d = a[i].1 - b[j].1;
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(_, v) in &a[i..] {
            acc += v * v;
        }
        for &(_, v) in &b[j..] {
            acc += v * v;
        }
        acc
    }

    /// Euclidean distance.
    pub fn distance(&self, other: &SparseVec) -> f64 {
        self.distance_sq(other).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_prunes() {
        let v = SparseVec::new(10, vec![(5, 1.0), (2, 0.0), (1, 3.0), (5, 2.0)]);
        let entries: Vec<_> = v.iter().collect();
        assert_eq!(entries, vec![(1, 3.0), (5, 2.0)]); // last write wins on idx 5
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_index_panics() {
        let _ = SparseVec::new(3, vec![(3, 1.0)]);
    }

    #[test]
    fn distance() {
        let a = SparseVec::new(3, vec![(0, 1.0), (2, 2.0)]);
        let b = SparseVec::new(3, vec![(1, 3.0), (2, 2.0)]);
        assert_eq!(a.distance_sq(&b), 1.0 + 9.0);
        assert!((a.distance(&a)).abs() < 1e-12);
        // Symmetry.
        assert_eq!(a.distance_sq(&b), b.distance_sq(&a));
    }
}
