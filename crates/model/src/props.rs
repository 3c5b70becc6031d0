//! Flat property maps.
//!
//! A record carries a handful of properties (≈ 4 on the benchmark
//! corpora), read far more often than written, and always in key order.
//! [`PropMap`] stores them as one key-sorted `Vec<(Symbol,
//! PropertyValue)>` — 40 bytes per entry in a single allocation, where a
//! `BTreeMap` pays a 540-byte leaf node for the first entry — behind the
//! `BTreeMap` method names its call sites were written against.
//!
//! Contract (DESIGN.md §3m): keys are unique and iteration is in
//! ascending key order, exactly a `BTreeMap`'s; [`PropMap::insert`] and
//! collecting from an iterator are last-wins on a repeated key; the
//! serialized form is a JSON object in key order, and both wire forms a
//! map may arrive in (object, `[key, value]` pair array) are accepted.
//! `tests/proptests.rs` holds it to a `BTreeMap` model.

use crate::label::Symbol;
use crate::value::PropertyValue;
use serde::{Deserialize, Error, Serialize, Sink, Value};
use std::borrow::Borrow;
use std::fmt;

/// A record's key–value properties, sorted by key.
#[derive(Clone, PartialEq, Default)]
pub struct PropMap(Vec<(Symbol, PropertyValue)>);

impl PropMap {
    /// The empty map (no allocation).
    pub fn new() -> PropMap {
        PropMap::default()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no properties.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn position<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        Symbol: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.0.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&PropertyValue>
    where
        Symbol: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.position(key).ok().map(|i| &self.0[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        Symbol: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.position(key).is_ok()
    }

    /// Store `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: Symbol, value: PropertyValue) -> Option<PropertyValue> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<PropertyValue>
    where
        Symbol: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.position(key).ok().map(|i| self.0.remove(i).1)
    }

    /// Keep the entries `keep` accepts, visiting them in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Symbol, &mut PropertyValue) -> bool) {
        self.0.retain_mut(|(k, v)| keep(k, v));
    }

    /// Entries in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Symbol> + Clone {
        self.0.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &PropertyValue> + Clone {
        self.0.iter().map(|(_, v)| v)
    }
}

/// Borrowing iterator over a [`PropMap`], yielding `(&key, &value)` like
/// a `BTreeMap`'s.
#[derive(Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (Symbol, PropertyValue)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Symbol, &'a PropertyValue);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a PropMap {
    type Item = (&'a Symbol, &'a PropertyValue);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for PropMap {
    type Item = (Symbol, PropertyValue);
    type IntoIter = std::vec::IntoIter<(Symbol, PropertyValue)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl FromIterator<(Symbol, PropertyValue)> for PropMap {
    /// Entries may arrive unsorted and with repeated keys (last wins).
    /// An exact-size iterator of distinct keys — what a decoder drains
    /// from its scratch — lands in one allocation of exactly its size.
    fn from_iter<I: IntoIterator<Item = (Symbol, PropertyValue)>>(iter: I) -> PropMap {
        let mut entries: Vec<(Symbol, PropertyValue)> = iter.into_iter().collect();
        // Stable, so among equal keys the last arrival sorts last; the
        // dedup then moves it into the slot that survives.
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        PropMap(entries)
    }
}

impl fmt::Debug for PropMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Serialize for PropMap {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_map();
        for (k, v) in self.iter() {
            sink.key(k);
            v.serialize(sink);
        }
        sink.end_map();
    }
}

impl Deserialize for PropMap {
    fn from_value(value: &Value) -> Result<PropMap, Error> {
        let entry = |k: &str, v: &Value| Ok((Symbol::from(k), PropertyValue::from_value(v)?));
        match value {
            Value::Object(fields) => fields.iter().map(|(k, v)| entry(k, v)).collect(),
            Value::Array(items) => items
                .iter()
                .map(|item| match item.as_array() {
                    Some([k, v]) => entry(
                        k.as_str().ok_or_else(|| Error::custom("expected string"))?,
                        v,
                    ),
                    _ => Err(Error::custom("expected [key, value] pair")),
                })
                .collect(),
            _ => Err(Error::custom("expected map")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::sym;

    #[test]
    fn insert_keeps_key_order_and_replaces() {
        let mut m = PropMap::new();
        assert_eq!(m.insert(sym("b"), PropertyValue::Int(1)), None);
        assert_eq!(m.insert(sym("a"), PropertyValue::Int(2)), None);
        assert_eq!(
            m.insert(sym("b"), PropertyValue::Int(3)),
            Some(PropertyValue::Int(1))
        );
        let keys: Vec<&str> = m.keys().map(|k| k.as_ref()).collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(m.get("b"), Some(&PropertyValue::Int(3)));
        assert_eq!(m.get(&sym("a")), Some(&PropertyValue::Int(2)));
        assert_eq!(m.remove("a"), Some(PropertyValue::Int(2)));
        assert!(!m.contains_key("a"));
        assert_eq!(format!("{m:?}"), r#"{"b": Int(3)}"#);
    }

    #[test]
    fn collecting_is_last_wins_and_exact_size() {
        let m: PropMap = [("z", 1), ("a", 2), ("z", 3), ("m", 4)]
            .into_iter()
            .map(|(k, v)| (sym(k), PropertyValue::Int(v)))
            .collect();
        let got: Vec<(&str, &PropertyValue)> = m.iter().map(|(k, v)| (k.as_ref(), v)).collect();
        assert_eq!(
            got,
            [
                ("a", &PropertyValue::Int(2)),
                ("m", &PropertyValue::Int(4)),
                ("z", &PropertyValue::Int(3)),
            ]
        );
        let mut scratch = vec![
            (sym("k"), PropertyValue::Int(1)),
            (sym("j"), PropertyValue::Int(2)),
        ];
        let m: PropMap = scratch.drain(..).collect();
        assert_eq!(m.0.capacity(), 2, "one allocation of exactly the size");
    }
}
