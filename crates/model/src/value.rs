//! Property values and temporal literals.
//!
//! PG-HIVE infers property data types by a priority-based check over
//! observed values (§4.4 of the paper): integers first, then floats,
//! booleans, ISO-format dates/datetimes, and a string fallback. The
//! [`PropertyValue`] enum captures the typed values; parsing helpers
//! implement the same priority order.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A calendar date (no timezone), validated on construction.
///
/// Supports both ISO `YYYY-MM-DD` and the European `DD/MM/YYYY` layout that
/// appears in the paper's running example (`bday = 19/12/1999`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Date {
    /// Year, e.g. 1999. Negative years (BCE) are permitted.
    pub year: i32,
    /// Month in `1..=12`.
    pub month: u8,
    /// Day in `1..=31`, validated against the month and leap years.
    pub day: u8,
}

impl Date {
    /// Construct a validated date.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, ModelError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(ModelError::InvalidTemporal {
                literal: format!("{year:04}-{month:02}-{day:02}"),
            });
        }
        Ok(Date { year, month, day })
    }

    /// Parse `YYYY-MM-DD` or `DD/MM/YYYY`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if let Some((y, m, d)) = split3(s, '-') {
            // ISO layout requires a 4-digit year to avoid swallowing
            // arbitrary dash-separated numbers.
            if y.len() == 4 {
                return Date::new(y.parse().ok()?, m.parse().ok()?, d.parse().ok()?).ok();
            }
            return None;
        }
        if let Some((d, m, y)) = split3(s, '/') {
            if y.len() == 4 {
                return Date::new(y.parse().ok()?, m.parse().ok()?, d.parse().ok()?).ok();
            }
        }
        None
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A date with a time-of-day component (seconds resolution, no timezone
/// arithmetic — a trailing `Z` or offset is accepted and discarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DateTime {
    /// The calendar date.
    pub date: Date,
    /// Hour in `0..=23`.
    pub hour: u8,
    /// Minute in `0..=59`.
    pub minute: u8,
    /// Second in `0..=59`.
    pub second: u8,
}

impl DateTime {
    /// Construct a validated datetime.
    pub fn new(date: Date, hour: u8, minute: u8, second: u8) -> Result<Self, ModelError> {
        if hour > 23 || minute > 59 || second > 59 {
            return Err(ModelError::InvalidTemporal {
                literal: format!("{date}T{hour:02}:{minute:02}:{second:02}"),
            });
        }
        Ok(DateTime {
            date,
            hour,
            minute,
            second,
        })
    }

    /// Parse `YYYY-MM-DDTHH:MM:SS` (also accepts a space separator, an
    /// optional fractional-second part, and an optional `Z`/offset suffix).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        let (date_part, time_part) = s
            .split_once('T')
            .or_else(|| s.split_once(' '))
            .filter(|(_, t)| !t.is_empty())?;
        let date = Date::parse(date_part)?;
        // Strip timezone suffix and fractional seconds.
        let t = time_part.trim_end_matches('Z');
        let t = match t.find(['+']) {
            Some(i) => &t[..i],
            None => t,
        };
        let t = match t.split_once('.') {
            Some((head, _frac)) => head,
            None => t,
        };
        let (h, m, sec) = split3(t, ':')?;
        DateTime::new(date, h.parse().ok()?, m.parse().ok()?, sec.parse().ok()?).ok()
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}T{:02}:{:02}:{:02}",
            self.date, self.hour, self.minute, self.second
        )
    }
}

fn split3(s: &str, sep: char) -> Option<(&str, &str, &str)> {
    let mut it = s.split(sep);
    let a = it.next()?;
    let b = it.next()?;
    let c = it.next()?;
    if it.next().is_some() || a.is_empty() || b.is_empty() || c.is_empty() {
        return None;
    }
    Some((a, b, c))
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// A property value attached to a node or edge.
///
/// The variants mirror the GQL-style data types PG-Schema supports
/// (`INT`, `DOUBLE`, `BOOLEAN`, `DATE`, `TIMESTAMP`, `STRING`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropertyValue {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is not a valid property value and is rejected by
    /// the parsing helpers; constructing one directly is possible but
    /// comparisons treat `NaN` as unequal like IEEE 754.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Calendar date.
    Date(Date),
    /// Date and time-of-day.
    DateTime(DateTime),
    /// UTF-8 string (the inference fallback).
    Str(String),
}

impl PropertyValue {
    /// Parse a raw string into the most specific value following PG-HIVE's
    /// priority order: integer → float → boolean → datetime → date → string.
    ///
    /// The paper lists "date/time ISO formats" after the numeric and boolean
    /// checks; we test datetime before date because every datetime literal
    /// contains a valid date prefix.
    pub fn infer(raw: &str) -> PropertyValue {
        let t = raw.trim();
        if let Ok(i) = t.parse::<i64>() {
            return PropertyValue::Int(i);
        }
        if let Ok(x) = t.parse::<f64>() {
            if x.is_finite() {
                return PropertyValue::Float(x);
            }
        }
        match t {
            "true" | "false" => return PropertyValue::Bool(t == "true"),
            _ => {}
        }
        if let Some(dt) = DateTime::parse(t) {
            return PropertyValue::DateTime(dt);
        }
        if let Some(d) = Date::parse(t) {
            return PropertyValue::Date(d);
        }
        PropertyValue::Str(raw.to_owned())
    }

    /// A stable textual rendering, such that `infer(render(v))` round-trips
    /// for every variant except pathological strings that themselves look
    /// like other types.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Total order used for deterministic serialization; values of
    /// different variants order by variant tag.
    pub fn total_cmp(&self, other: &PropertyValue) -> Ordering {
        use PropertyValue::*;
        fn tag(v: &PropertyValue) -> u8 {
            match v {
                Int(_) => 0,
                Float(_) => 1,
                Bool(_) => 2,
                Date(_) => 3,
                DateTime(_) => 4,
                Str(_) => 5,
            }
        }
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Int(i) => write!(f, "{i}"),
            PropertyValue::Float(x) => {
                // Keep a decimal point (or an exponent) so re-inference
                // stays Float: `Debug` writes one for every integral
                // value, which `{x}` would write as digits alone.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else if x.fract() == 0.0 {
                    write!(f, "{x:?}")
                } else {
                    write!(f, "{x}")
                }
            }
            PropertyValue::Bool(b) => write!(f, "{b}"),
            PropertyValue::Date(d) => write!(f, "{d}"),
            PropertyValue::DateTime(dt) => write!(f, "{dt}"),
            PropertyValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for PropertyValue {
    fn from(v: i64) -> Self {
        PropertyValue::Int(v)
    }
}
impl From<f64> for PropertyValue {
    fn from(v: f64) -> Self {
        PropertyValue::Float(v)
    }
}
impl From<bool> for PropertyValue {
    fn from(v: bool) -> Self {
        PropertyValue::Bool(v)
    }
}
impl From<&str> for PropertyValue {
    fn from(v: &str) -> Self {
        PropertyValue::Str(v.to_owned())
    }
}
impl From<String> for PropertyValue {
    fn from(v: String) -> Self {
        PropertyValue::Str(v)
    }
}
impl From<Date> for PropertyValue {
    fn from(v: Date) -> Self {
        PropertyValue::Date(v)
    }
}
impl From<DateTime> for PropertyValue {
    fn from(v: DateTime) -> Self {
        PropertyValue::DateTime(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(Date::new(2024, 2, 29).is_ok());
        assert!(Date::new(2023, 2, 29).is_err());
        assert!(Date::new(1900, 2, 29).is_err()); // century non-leap
        assert!(Date::new(2000, 2, 29).is_ok()); // 400-year leap
        assert!(Date::new(2024, 4, 31).is_err());
        assert!(Date::new(2024, 13, 1).is_err());
        assert!(Date::new(2024, 0, 1).is_err());
        assert!(Date::new(2024, 1, 0).is_err());
    }

    #[test]
    fn date_parsing_both_layouts() {
        assert_eq!(
            Date::parse("1999-12-19"),
            Some(Date::new(1999, 12, 19).unwrap())
        );
        assert_eq!(
            Date::parse("19/12/1999"),
            Some(Date::new(1999, 12, 19).unwrap())
        );
        assert_eq!(Date::parse("19-12-1999"), None); // ambiguous layout rejected
        assert_eq!(Date::parse("1999-12-19-00"), None);
        assert_eq!(Date::parse("not a date"), None);
        assert_eq!(Date::parse(""), None);
    }

    #[test]
    fn datetime_parsing() {
        let dt = DateTime::parse("2024-05-01T13:45:09").unwrap();
        assert_eq!(dt.hour, 13);
        assert_eq!(dt.minute, 45);
        assert_eq!(dt.second, 9);
        assert!(DateTime::parse("2024-05-01 13:45:09").is_some());
        assert!(DateTime::parse("2024-05-01T13:45:09Z").is_some());
        assert!(DateTime::parse("2024-05-01T13:45:09.123Z").is_some());
        assert!(DateTime::parse("2024-05-01T25:00:00").is_none());
        assert!(DateTime::parse("2024-05-01T").is_none());
        assert!(DateTime::parse("2024-05-01").is_none());
    }

    #[test]
    fn inference_priority() {
        assert_eq!(PropertyValue::infer("42"), PropertyValue::Int(42));
        assert_eq!(PropertyValue::infer("-7"), PropertyValue::Int(-7));
        assert_eq!(PropertyValue::infer("3.5"), PropertyValue::Float(3.5));
        assert_eq!(PropertyValue::infer("1e3"), PropertyValue::Float(1000.0));
        assert_eq!(PropertyValue::infer("true"), PropertyValue::Bool(true));
        assert_eq!(PropertyValue::infer("false"), PropertyValue::Bool(false));
        assert!(matches!(
            PropertyValue::infer("2020-01-02"),
            PropertyValue::Date(_)
        ));
        assert!(matches!(
            PropertyValue::infer("2020-01-02T03:04:05"),
            PropertyValue::DateTime(_)
        ));
        assert_eq!(
            PropertyValue::infer("hello"),
            PropertyValue::Str("hello".into())
        );
        // NaN / inf fall through to string.
        assert!(matches!(PropertyValue::infer("NaN"), PropertyValue::Str(_)));
        assert!(matches!(PropertyValue::infer("inf"), PropertyValue::Str(_)));
    }

    #[test]
    fn render_round_trips() {
        for v in [
            PropertyValue::Int(5),
            PropertyValue::Float(2.0),
            PropertyValue::Float(-0.25),
            // Integral from 1e15 up: found by the CSV mutation battery,
            // these rendered as bare digits and came back as `Int`.
            PropertyValue::Float(1e15),
            PropertyValue::Float(-4.5e18),
            PropertyValue::Float(1e300),
            PropertyValue::Bool(true),
            PropertyValue::Date(Date::new(2021, 6, 30).unwrap()),
            PropertyValue::DateTime(
                DateTime::new(Date::new(2021, 6, 30).unwrap(), 1, 2, 3).unwrap(),
            ),
            PropertyValue::Str("plain".into()),
        ] {
            assert_eq!(PropertyValue::infer(&v.render()), v, "value {v:?}");
        }
    }

    #[test]
    fn total_cmp_orders_within_and_across_variants() {
        let a = PropertyValue::Int(1);
        let b = PropertyValue::Int(2);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        let s = PropertyValue::Str("x".into());
        assert_eq!(a.total_cmp(&s), Ordering::Less);
        assert_eq!(s.total_cmp(&a), Ordering::Greater);
        let f1 = PropertyValue::Float(1.0);
        let f2 = PropertyValue::Float(1.0);
        assert_eq!(f1.total_cmp(&f2), Ordering::Equal);
    }
}
