//! Deterministic symbol interning for labels and property keys.
//!
//! Graph dumps repeat a tiny key universe — a few dozen labels and
//! property names — millions of times. The stock [`sym`] helper
//! allocates a fresh `Arc<str>` per call, so a 1M-element load makes
//! millions of short-lived string allocations whose contents are all
//! duplicates. [`SymbolInterner`] is an `Arc<str>` pool: the first
//! occurrence of a string allocates, every later occurrence is a
//! refcount bump on the pooled `Arc`.
//!
//! Determinism: interning only affects *which allocation* backs a
//! [`Symbol`], never its contents. `Symbol` (`Arc<str>`) compares,
//! hashes, and orders by string content, so every downstream structure
//! (sorted `LabelSet`s, key-sorted `PropMap`s, accumulator
//! `HashMap`s folded in chunk order) is bit-identical whether symbols
//! came from the interner, from [`sym`], or from a mix. The pool's own
//! iteration order is never observed. This is why checkpoints, merges,
//! and content hashes are unaffected by interning (DESIGN.md §3j).
//!
//! [`sym`]: crate::label::sym

use crate::label::Symbol;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a 64-bit, the same cheap hash the discovery kernels use for
/// their flat maps. Self-contained here because `pg_model` sits below
/// the crates that expose one.
#[derive(Default)]
pub struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Build-hasher alias for FNV-keyed maps and sets.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// An `Arc<str>` pool: one allocation per distinct string, refcount
/// bumps for every repeat. See the module docs for why this is
/// bit-identity-safe.
#[derive(Default)]
pub struct SymbolInterner {
    pool: HashSet<Symbol, FnvBuildHasher>,
}

impl SymbolInterner {
    /// An empty pool.
    pub fn new() -> SymbolInterner {
        SymbolInterner::default()
    }

    /// An empty pool pre-sized for `capacity` distinct symbols.
    pub fn with_capacity(capacity: usize) -> SymbolInterner {
        SymbolInterner {
            pool: HashSet::with_capacity_and_hasher(capacity, FnvBuildHasher::default()),
        }
    }

    /// Return the pooled [`Symbol`] for `s`, allocating only on the
    /// first occurrence of each distinct string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(existing) = self.pool.get(s) {
            return existing.clone();
        }
        let symbol: Symbol = Arc::from(s);
        self.pool.insert(symbol.clone());
        symbol
    }

    /// Number of distinct symbols pooled so far.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::sym;

    #[test]
    fn repeated_strings_share_one_allocation() {
        let mut pool = SymbolInterner::new();
        let a = pool.intern("name");
        let b = pool.intern("name");
        assert!(
            Arc::ptr_eq(&a, &b),
            "second intern must reuse the pooled Arc"
        );
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut pool = SymbolInterner::new();
        let a = pool.intern("src");
        let b = pool.intern("tgt");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn interned_symbols_equal_fresh_symbols() {
        // Content equality with sym() is the bit-identity contract.
        let mut pool = SymbolInterner::new();
        let interned = pool.intern("Person");
        let fresh = sym("Person");
        assert_eq!(interned, fresh);
        assert!(!Arc::ptr_eq(&interned, &fresh));
        use std::collections::BTreeSet;
        let set: BTreeSet<Symbol> = [interned, fresh].into_iter().collect();
        assert_eq!(set.len(), 1, "BTree ordering must treat them as equal");
    }

    #[test]
    fn fnv_hashes_are_stable() {
        let mut h = FnvHasher::default();
        h.write(b"hello");
        // Known FNV-1a 64 test vector.
        assert_eq!(h.finish(), 0xa430d84680aabd0b);
    }
}
