//! Mergeable sketches for the bounded-memory streaming mode.
//!
//! Every summary here is **seeded, bit-deterministic, and mergeable**
//! under the same order-insensitive algebra the distributed merge
//! demands (see DESIGN.md §3i): merges are commutative, associative,
//! and idempotent, so sketched shard states fold through
//! [`crate::merge`] and arrive at the same bits regardless of batch
//! arrival order, shard order, or reduction-tree shape.
//!
//! Two summaries, one shared primitive:
//!
//! - [`DistinctSketch`] — a KMV (k-minimum-values) distinct counter.
//!   Keeps the `k` smallest seeded hashes of the inserted items; below
//!   `k` distinct items the count is exact, above it the k-th smallest
//!   hash estimates the cardinality with relative error ≈ `1/√k`.
//! - [`ValueSample`] — a fixed-size bottom-`k` sample of property
//!   values (stored as value-hash + observed [`DataType`]), used for
//!   sampled data-type inference over a true value sample instead of
//!   the full value universe.
//!
//! Bottom-`k` over a seeded hash is the load-bearing trick: the kept
//! set is a deterministic function of the *set* of inserted items
//! (union-then-keep-k-smallest), which is exactly what makes the merge
//! laws hold where classic reservoir sampling (order-dependent) and
//! additive counters (non-idempotent) fail.

use pg_model::{DataType, PropertyValue, Symbol};
use serde::{Deserialize, Serialize};

/// Salt mixed into the pipeline seed to derive sketch seeds, so sketch
/// hashing never correlates with the LSH or batch-split streams.
pub const SKETCH_SALT: u64 = 0x5ce7c4;

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Seeded hash of one 64-bit item.
#[inline]
pub fn hash_u64(seed: u64, x: u64) -> u64 {
    mix64(x ^ mix64(seed))
}

/// Seeded hash of an ordered pair (endpoint pairs are directional).
#[inline]
pub fn hash_pair(seed: u64, a: u64, b: u64) -> u64 {
    mix64(b ^ mix64(a ^ mix64(seed)))
}

/// Seeded FNV-1a over bytes, finalized through [`mix64`].
#[inline]
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ mix64(seed);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    mix64(h)
}

/// Deterministic fingerprint of one property value under a property
/// key: two equal `(key, value)` observations hash identically on every
/// shard and every run, so the bottom-`k` sample is a *distinct-value*
/// sample — re-observing a hot value never displaces a rare one.
pub fn value_fingerprint(seed: u64, key: &Symbol, value: &PropertyValue) -> u64 {
    let kh = hash_bytes(seed, key.as_ref().as_bytes());
    match value {
        PropertyValue::Int(i) => hash_pair(kh, 1, *i as u64),
        PropertyValue::Float(f) => hash_pair(kh, 2, f.to_bits()),
        PropertyValue::Bool(b) => hash_pair(kh, 3, *b as u64),
        PropertyValue::Date(d) => hash_pair(
            kh,
            4,
            ((d.year as u64) << 16) | ((d.month as u64) << 8) | d.day as u64,
        ),
        PropertyValue::DateTime(dt) => hash_pair(
            kh,
            5,
            ((dt.date.year as u64) << 40)
                | ((dt.date.month as u64) << 32)
                | ((dt.date.day as u64) << 24)
                | ((dt.hour as u64) << 16)
                | ((dt.minute as u64) << 8)
                | dt.second as u64,
        ),
        PropertyValue::Str(s) => hash_pair(kh, 6, hash_bytes(kh, s.as_bytes())),
    }
}

/// KMV distinct counter: the `k` smallest seeded hashes of the inserted
/// items, kept sorted and distinct.
///
/// Exact below `k` distinct items; above, `estimate()` returns
/// `(k-1) / h_k` scaled to the hash range (the classic KMV estimator)
/// with relative standard error ≈ `1/√k`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistinctSketch {
    k: usize,
    seed: u64,
    /// Sorted ascending, distinct, `len() <= k`.
    hashes: Vec<u64>,
}

impl DistinctSketch {
    /// Empty sketch with capacity `k` (clamped to at least 16).
    pub fn new(k: usize, seed: u64) -> DistinctSketch {
        DistinctSketch {
            k: k.max(16),
            seed,
            hashes: Vec::new(),
        }
    }

    /// Insert one item (idempotent).
    pub fn insert(&mut self, item: u64) {
        self.insert_hash(hash_u64(self.seed, item));
    }

    /// Insert a pre-hashed observation (for pair hashes).
    pub fn insert_hash(&mut self, h: u64) {
        match self.hashes.binary_search(&h) {
            Ok(_) => {}
            Err(pos) => {
                if self.hashes.len() < self.k {
                    self.hashes.insert(pos, h);
                } else if pos < self.k {
                    self.hashes.insert(pos, h);
                    self.hashes.pop();
                }
            }
        }
    }

    /// The sketch's seed (merge partners must agree).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `(k, seed)`: merge partners must agree on both.
    pub(crate) fn shape(&self) -> (usize, u64) {
        (self.k, self.seed)
    }

    /// True when nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// True once the sketch holds `k` hashes — estimates are
    /// approximate from here on.
    pub fn is_saturated(&self) -> bool {
        self.hashes.len() >= self.k
    }

    /// Estimated distinct count: exact below saturation, KMV estimator
    /// above. Deterministic: pure function of the kept hash set.
    pub fn estimate(&self) -> u64 {
        if !self.is_saturated() {
            return self.hashes.len() as u64;
        }
        let kth = *self.hashes.last().expect("saturated sketch is non-empty");
        // (k-1) / (kth / 2^64): the k-th smallest of n uniform hashes
        // sits near k/n of the range.
        let frac = (kth as f64) / (u64::MAX as f64);
        if frac <= 0.0 {
            return self.hashes.len() as u64;
        }
        ((self.k as f64 - 1.0) / frac).round() as u64
    }

    /// Two-sigma relative error bound of [`estimate`](Self::estimate):
    /// `0` while exact, `≈ 2/√k` once saturated.
    pub fn error_bound(&self) -> f64 {
        if self.is_saturated() {
            2.0 / (self.k as f64).sqrt()
        } else {
            0.0
        }
    }

    /// Merge another sketch: union of kept hashes, truncated back to
    /// the `k` smallest. Commutative, associative, and idempotent —
    /// the result depends only on the union of the inserted item sets.
    pub fn merge(&mut self, other: &DistinctSketch) {
        debug_assert_eq!(self.seed, other.seed, "sketch seeds must agree");
        debug_assert_eq!(self.k, other.k, "sketch sizes must agree");
        let mut merged = Vec::with_capacity(self.k.min(self.hashes.len() + other.hashes.len()));
        let (mut i, mut j) = (0, 0);
        while merged.len() < self.k && (i < self.hashes.len() || j < other.hashes.len()) {
            let next = match (self.hashes.get(i), other.hashes.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a <= b {
                        i += 1;
                        if a == b {
                            j += 1;
                        }
                        a
                    } else {
                        j += 1;
                        b
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            merged.push(next);
        }
        self.hashes = merged;
    }

    /// Bytes retained (for the memory-pressure gauges).
    pub fn retained_bytes(&self) -> usize {
        self.hashes.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

/// Fixed-size seeded bottom-`k` sample of property values for data-type
/// inference: each kept entry is the value's fingerprint hash plus its
/// observed [`DataType`].
///
/// The kept set is the `k` smallest-hashed *distinct* values ever
/// observed, so merge is union-truncate — the same law as
/// [`DistinctSketch`]. Data-type inference joins the sampled types on
/// the type lattice; a rare outlier type survives in the sample iff one
/// of its values hashes into the bottom `k`, which is exactly the
/// "sampling can miss rare outliers" behavior the Figure-8
/// sampling-error metric measures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueSample {
    k: usize,
    seed: u64,
    /// Sorted ascending by hash, distinct hashes, `len() <= k`.
    entries: Vec<(u64, DataType)>,
}

impl ValueSample {
    /// Empty sample with capacity `k` (clamped to at least 16).
    pub fn new(k: usize, seed: u64) -> ValueSample {
        ValueSample {
            k: k.max(16),
            seed,
            entries: Vec::new(),
        }
    }

    /// Observe one value of a property.
    pub fn observe(&mut self, key: &Symbol, value: &PropertyValue) {
        let h = value_fingerprint(self.seed, key, value);
        self.observe_hashed(h, DataType::of(value));
    }

    /// Observe a pre-fingerprinted value.
    pub fn observe_hashed(&mut self, h: u64, dtype: DataType) {
        match self.entries.binary_search_by_key(&h, |e| e.0) {
            Ok(_) => {}
            Err(pos) => {
                if self.entries.len() < self.k {
                    self.entries.insert(pos, (h, dtype));
                } else if pos < self.k {
                    self.entries.insert(pos, (h, dtype));
                    self.entries.pop();
                }
            }
        }
    }

    /// Number of sampled distinct values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(k, seed)`: merge partners must agree on both.
    pub(crate) fn shape(&self) -> (usize, u64) {
        (self.k, self.seed)
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lattice join over the sampled value types (`None` when empty) —
    /// the sampled data-type inference of §4.4 computed from a real
    /// value sample instead of a histogram draw. Deterministic.
    pub fn join(&self) -> Option<DataType> {
        DataType::join_all(self.entries.iter().map(|&(_, t)| t))
    }

    /// Merge another sample (union of entries, keep the `k`
    /// smallest-hashed). Commutative, associative, idempotent.
    pub fn merge(&mut self, other: &ValueSample) {
        debug_assert_eq!(self.seed, other.seed, "sample seeds must agree");
        debug_assert_eq!(self.k, other.k, "sample sizes must agree");
        let mut merged = Vec::with_capacity(self.k.min(self.entries.len() + other.entries.len()));
        let (mut i, mut j) = (0, 0);
        while merged.len() < self.k && (i < self.entries.len() || j < other.entries.len()) {
            let next = match (self.entries.get(i), other.entries.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a.0 <= b.0 {
                        i += 1;
                        if a.0 == b.0 {
                            j += 1;
                        }
                        a
                    } else {
                        j += 1;
                        b
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            merged.push(next);
        }
        self.entries = merged;
    }

    /// Bytes retained.
    pub fn retained_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, DataType)>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::sym;

    #[test]
    fn distinct_exact_below_k() {
        let mut s = DistinctSketch::new(64, 7);
        for i in 0..50u64 {
            s.insert(i);
        }
        assert_eq!(s.estimate(), 50);
        // Re-inserting is idempotent.
        for i in 0..50u64 {
            s.insert(i);
        }
        assert_eq!(s.estimate(), 50);
        assert_eq!(s.error_bound(), 0.0);
    }

    #[test]
    fn distinct_estimate_within_bound_above_k() {
        let k = 256;
        let mut s = DistinctSketch::new(k, 42);
        let n = 100_000u64;
        for i in 0..n {
            s.insert(i);
        }
        assert!(s.is_saturated());
        let est = s.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(
            err <= s.error_bound(),
            "estimate {est} off by {err:.4}, bound {:.4}",
            s.error_bound()
        );
    }

    #[test]
    fn distinct_merge_equals_union_insert() {
        let mut a = DistinctSketch::new(32, 3);
        let mut b = DistinctSketch::new(32, 3);
        let mut both = DistinctSketch::new(32, 3);
        for i in 0..500u64 {
            if i % 2 == 0 {
                a.insert(i);
            }
            if i % 3 == 0 {
                b.insert(i);
            }
            if i % 2 == 0 || i % 3 == 0 {
                both.insert(i);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, both, "merge == union");
        assert_eq!(ab, ba, "commutative");
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a, "idempotent");
    }

    #[test]
    fn value_sample_joins_types() {
        let mut vs = ValueSample::new(32, 9);
        let key = sym("p");
        vs.observe(&key, &PropertyValue::Int(1));
        vs.observe(&key, &PropertyValue::Int(2));
        assert_eq!(vs.join(), Some(DataType::Int));
        vs.observe(&key, &PropertyValue::Float(0.5));
        assert_eq!(vs.join(), Some(DataType::Float));
        vs.observe(&key, &PropertyValue::Str("x".into()));
        assert_eq!(vs.join(), Some(DataType::Str));
        // Distinct-value semantics: duplicates don't grow the sample.
        let len = vs.len();
        vs.observe(&key, &PropertyValue::Int(1));
        assert_eq!(vs.len(), len);
    }

    #[test]
    fn value_fingerprint_distinguishes_values_and_keys() {
        let (a, b) = (sym("a"), sym("b"));
        let v = PropertyValue::Int(7);
        assert_ne!(value_fingerprint(1, &a, &v), value_fingerprint(1, &b, &v));
        assert_ne!(
            value_fingerprint(1, &a, &PropertyValue::Int(7)),
            value_fingerprint(1, &a, &PropertyValue::Int(8))
        );
        // Int(1) and Bool(true) must not collide via identical payloads.
        assert_ne!(
            value_fingerprint(1, &a, &PropertyValue::Int(1)),
            value_fingerprint(1, &a, &PropertyValue::Bool(true))
        );
        // Deterministic across calls.
        assert_eq!(value_fingerprint(5, &a, &v), value_fingerprint(5, &a, &v));
    }
}
