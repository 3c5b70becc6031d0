//! Property data types and the generalization lattice used when a property
//! exhibits values of mixed types (§4.4, "Property data types").

use crate::value::PropertyValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The GQL-style data types PG-Schema supports, ordered by inference
/// priority (most specific first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataType {
    /// `INT`
    Int,
    /// `DOUBLE`
    Float,
    /// `BOOLEAN`
    Bool,
    /// `DATE`
    Date,
    /// `TIMESTAMP`
    DateTime,
    /// `STRING` — the generalization fallback.
    Str,
}

impl DataType {
    /// Every data type, in declaration order — the order of the slots
    /// in a per-type histogram (see [`DataType::slot`]).
    pub const ALL: [DataType; 6] = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Date,
        DataType::DateTime,
        DataType::Str,
    ];

    /// This type's index in [`DataType::ALL`].
    pub fn slot(self) -> usize {
        self as usize
    }

    /// The data type of a single value.
    pub fn of(value: &PropertyValue) -> DataType {
        match value {
            PropertyValue::Int(_) => DataType::Int,
            PropertyValue::Float(_) => DataType::Float,
            PropertyValue::Bool(_) => DataType::Bool,
            PropertyValue::Date(_) => DataType::Date,
            PropertyValue::DateTime(_) => DataType::DateTime,
            PropertyValue::Str(_) => DataType::Str,
        }
    }

    /// The least general type compatible with both operands.
    ///
    /// The lattice is shallow by design (the paper defers enumerations and
    /// bounded ranges to future work): `Int ⊔ Float = Float`,
    /// `Date ⊔ DateTime = DateTime`, and any other mixture generalizes to
    /// `Str`. All values of a property remain consistent with the joined
    /// type under string rendering, which is the guarantee §4.7 states.
    pub fn join(self, other: DataType) -> DataType {
        use DataType::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Int, Float) | (Float, Int) => Float,
            (Date, DateTime) | (DateTime, Date) => DateTime,
            _ => Str,
        }
    }

    /// Fold [`DataType::join`] over an iterator of observed types.
    /// Returns `None` for an empty iterator (no observations).
    pub fn join_all<I: IntoIterator<Item = DataType>>(types: I) -> Option<DataType> {
        types.into_iter().reduce(DataType::join)
    }

    /// Whether a value is consistent with (an instance of) this type,
    /// taking the generalization lattice into account.
    pub fn admits(self, value: &PropertyValue) -> bool {
        let t = DataType::of(value);
        self.join(t) == self
    }

    /// GQL-flavoured name used in PG-Schema serialization.
    pub fn gql_name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "DOUBLE",
            DataType::Bool => "BOOLEAN",
            DataType::Date => "DATE",
            DataType::DateTime => "TIMESTAMP",
            DataType::Str => "STRING",
        }
    }

    /// XML Schema name used in XSD serialization.
    pub fn xsd_name(self) -> &'static str {
        match self {
            DataType::Int => "xs:long",
            DataType::Float => "xs:double",
            DataType::Bool => "xs:boolean",
            DataType::Date => "xs:date",
            DataType::DateTime => "xs:dateTime",
            DataType::Str => "xs:string",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.gql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_index_all() {
        for (i, t) in DataType::ALL.into_iter().enumerate() {
            assert_eq!(t.slot(), i);
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent() {
        use DataType::*;
        let all = [Int, Float, Bool, Date, DateTime, Str];
        for &a in &all {
            assert_eq!(a.join(a), a);
            for &b in &all {
                assert_eq!(a.join(b), b.join(a));
            }
        }
    }

    #[test]
    fn join_is_associative() {
        use DataType::*;
        let all = [Int, Float, Bool, Date, DateTime, Str];
        for &a in &all {
            for &b in &all {
                for &c in &all {
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)));
                }
            }
        }
    }

    #[test]
    fn numeric_and_temporal_promotions() {
        assert_eq!(DataType::Int.join(DataType::Float), DataType::Float);
        assert_eq!(DataType::Date.join(DataType::DateTime), DataType::DateTime);
        assert_eq!(DataType::Int.join(DataType::Bool), DataType::Str);
        assert_eq!(DataType::Float.join(DataType::Date), DataType::Str);
    }

    #[test]
    fn str_is_top() {
        use DataType::*;
        for t in [Int, Float, Bool, Date, DateTime, Str] {
            assert_eq!(t.join(Str), Str);
        }
    }

    #[test]
    fn admits_respects_lattice() {
        assert!(DataType::Float.admits(&PropertyValue::Int(3)));
        assert!(!DataType::Int.admits(&PropertyValue::Float(3.5)));
        assert!(DataType::Str.admits(&PropertyValue::Bool(true)));
    }

    #[test]
    fn join_all_empty_is_none() {
        assert_eq!(DataType::join_all(std::iter::empty()), None);
        assert_eq!(
            DataType::join_all([DataType::Int, DataType::Int]),
            Some(DataType::Int)
        );
        assert_eq!(
            DataType::join_all([DataType::Int, DataType::Float, DataType::Int]),
            Some(DataType::Float)
        );
    }
}
