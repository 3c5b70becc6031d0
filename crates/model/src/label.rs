//! Labels and canonical label sets.
//!
//! Labels are cheap-to-clone interned strings (`Arc<str>`). A [`LabelSet`]
//! keeps its members sorted and deduplicated so that the *sorted
//! concatenation* of a multi-label set is canonical — the paper uses this
//! concatenation as a single Word2Vec token so that `{Student, Person}` and
//! `{Person, Student}` embed identically while `{Athlete, Person}` embeds
//! differently.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A cheaply clonable interned string used for labels and property keys.
pub type Symbol = Arc<str>;

/// Intern a string slice as a [`Symbol`].
pub fn sym(s: &str) -> Symbol {
    Arc::from(s)
}

/// A canonically sorted, deduplicated set of labels.
///
/// The empty set models unlabeled nodes/edges (the partial labeling
/// function λ of Definition 3.1).
///
/// The labels sit behind one shared allocation and the type has no
/// mutators, so a clone — an edge record's two endpoint sets, a stream's
/// node index — is a refcount bump. `Eq`/`Ord`/`Hash` and the serialized
/// form are those of the label slice, i.e. of the `Vec<Symbol>` this
/// used to be (DESIGN.md §3m).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelSet(Arc<[Symbol]>);

impl LabelSet {
    /// The empty (unlabeled) set. Shared: no allocation per call.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<LabelSet> = OnceLock::new();
        EMPTY.get_or_init(|| LabelSet(Arc::new([]))).clone()
    }

    /// Build from any iterator of string-likes; sorts and deduplicates.
    /// (Deliberately shadows the trait method's name: the inherent method
    /// is the primary constructor and the `FromIterator` impl delegates
    /// to it.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        LabelSet::from_symbols(labels.into_iter().map(|s| sym(s.as_ref())).collect())
    }

    /// Single-label convenience constructor.
    pub fn single(label: &str) -> Self {
        LabelSet(Arc::new([sym(label)]))
    }

    /// Build from already-interned symbols; sorts and deduplicates.
    /// The allocation-lean loaders use this so label strings are pooled
    /// rather than re-allocated per element.
    pub fn from_symbols(mut labels: Vec<Symbol>) -> Self {
        labels.sort();
        labels.dedup();
        LabelSet(labels.into())
    }

    /// Build from symbols **preserving their wire order** — no sort, no
    /// dedup. This mirrors the derived `Deserialize` impl exactly (the
    /// tuple struct is transparent, so JSON input round-trips the raw
    /// vector); the zero-copy JSONL decoder must match it bit for bit.
    /// Writers always emit canonical order, so canonical input stays
    /// canonical — but arbitrary input keeps whatever order it had, just
    /// like the serde path.
    pub fn from_wire(labels: Vec<Symbol>) -> Self {
        LabelSet(labels.into())
    }

    /// Whether the two sets are one allocation, not merely equal — what
    /// the pools promise of repeated label arrays.
    pub fn ptr_eq(&self, other: &LabelSet) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Whether the set is empty (an unlabeled element).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Membership test.
    pub fn contains(&self, label: &str) -> bool {
        self.0.iter().any(|l| l.as_ref() == label)
    }

    /// Iterate labels in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.0.iter()
    }

    /// Set union, preserving canonical order. This is the merge operation
    /// of Lemmas 1 and 2: no label is ever lost.
    pub fn union(&self, other: &LabelSet) -> LabelSet {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.0[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.0[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.0[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.0[i..]);
        v.extend_from_slice(&other.0[j..]);
        LabelSet(v.into())
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &LabelSet) -> bool {
        let mut j = 0;
        'outer: for l in self.0.iter() {
            while j < other.0.len() {
                match other.0[j].cmp(l) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// The canonical token for embedding: the sorted labels joined with
    /// `"|"`. Returns `None` for the empty set — the paper maps unlabeled
    /// elements to the zero vector instead of a token.
    pub fn canonical_token(&self) -> Option<String> {
        if self.0.is_empty() {
            None
        } else {
            Some(
                self.0
                    .iter()
                    .map(|s| s.as_ref())
                    .collect::<Vec<_>>()
                    .join("|"),
            )
        }
    }
}

impl Default for LabelSet {
    fn default() -> Self {
        LabelSet::empty()
    }
}

impl Serialize for LabelSet {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        self.0.serialize(sink)
    }
}

impl Deserialize for LabelSet {
    /// Transparent, like the tuple struct it replaces: the raw label
    /// array in wire order.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Vec::from_value(value).map(LabelSet::from_wire)
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

impl<S: AsRef<str>> FromIterator<S> for LabelSet {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        LabelSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_ordering_and_dedup() {
        let a = LabelSet::from_iter(["Student", "Person", "Student"]);
        let b = LabelSet::from_iter(["Person", "Student"]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.canonical_token().unwrap(), "Person|Student");
    }

    #[test]
    fn empty_set_has_no_token() {
        assert_eq!(LabelSet::empty().canonical_token(), None);
        assert!(LabelSet::empty().is_empty());
    }

    #[test]
    fn union_is_sorted_and_loses_nothing() {
        let a = LabelSet::from_iter(["B", "D"]);
        let b = LabelSet::from_iter(["A", "B", "C"]);
        let u = a.union(&b);
        assert_eq!(u, LabelSet::from_iter(["A", "B", "C", "D"]));
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
    }

    #[test]
    fn subset() {
        let a = LabelSet::from_iter(["A", "C"]);
        let b = LabelSet::from_iter(["A", "B", "C"]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(LabelSet::empty().is_subset_of(&a));
    }

    #[test]
    fn display_formats_as_set() {
        let a = LabelSet::from_iter(["Person"]);
        assert_eq!(a.to_string(), "{Person}");
        assert_eq!(LabelSet::empty().to_string(), "{}");
    }
}
