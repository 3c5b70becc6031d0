//! Zero-copy JSONL element decoder.
//!
//! The stock read path (`serde_json::from_str::<Element>`) parses every
//! line into an intermediate `Value` tree — one `String` per object key
//! and string scalar, one `Vec` per object/array — and then converts
//! that tree into a [`Node`]/[`Edge`]/[`EdgeRecord`]. For a graph dump
//! whose key universe is a few dozen symbols repeated millions of
//! times, that is millions of duplicate allocations on the hot ingest
//! path.
//!
//! [`JsonlDecoder`] parses the line **directly** into the typed element:
//! no `Value` tree, keys and labels resolved through a persistent
//! [`SymbolInterner`] (so repeated keys cost a refcount bump, not an
//! allocation), unescaped strings borrowed straight from the input
//! slice on the fast path and unescaped into one reusable scratch
//! buffer on the slow path. Steady-state, a decoded record allocates
//! only its own containers and owned string *values*.
//!
//! ## Grammar fidelity
//!
//! The decoder must accept **exactly** the set of lines the vendored
//! `serde_json` + `serde::Deserialize` pipeline accepts — the lenient
//! loaders quarantine rejected lines, so any acceptance drift would
//! change quarantine contents and break bit-identity with the reference
//! path. The number and string routines below are copied from the
//! vendored parser verbatim (including its quirks: leading zeros are
//! accepted, `"1."` parses as a float, non-negative integers always
//! classify as `U64`, and `\u` escapes go through `u32::from_str_radix`
//! which tolerates a leading `+`). Typed field handling mirrors the
//! derived `from_value` impls: struct fields are first-occurrence-wins
//! with later duplicates and unknown fields syntax-validated but
//! ignored, all fields are required, property maps accept both the
//! object form and the `[key, value]` pair-array form with last-wins
//! duplicate keys, `PropertyValue` objects must carry exactly one raw
//! pair, and label sets preserve wire order (the tuple struct is
//! transparent). Error *messages* may differ from the reference — the
//! loaders only surface them as quarantine reasons — but accept/reject
//! decisions may not.

use crate::jsonl::Element;
use crate::load::EdgeRecord;
use pg_model::{
    Date, DateTime, Edge, EdgeId, FnvBuildHasher, LabelSet, Node, NodeId, PropMap, PropertyValue,
    Symbol, SymbolInterner,
};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Why a line failed to decode. Carries the byte offset of the failure
/// like the reference parser's errors; the text is surfaced as a
/// quarantine reason.
#[derive(Debug)]
pub struct DecodeError {
    message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

/// A reusable JSONL → [`Element`] decoder with a persistent symbol
/// pool. Reuse one decoder across lines (and across batches: the
/// server keeps one per session) so every repeated label and property
/// key resolves to the same pooled `Arc<str>`, and every repeated label
/// *array* to the same pooled [`LabelSet`].
#[derive(Default)]
pub struct JsonlDecoder {
    interner: SymbolInterner,
    scratch: String,
    label_sets: LabelSetPool,
    props: Vec<(Symbol, PropertyValue)>,
}

/// Label sets already built, keyed by the addresses of their (pooled)
/// symbols in wire order, so a repeated label array costs a refcount
/// bump instead of an allocation. Address keys are sound because every
/// entry owns the symbols its key names: while the entry lives those
/// allocations cannot be freed and reused, so an equal address sequence
/// is the same strings in the same order. That the interner hands out
/// one address per distinct string is what makes the pool *hit*.
#[derive(Default)]
struct LabelSetPool {
    sets: HashMap<Box<[usize]>, LabelSet, FnvBuildHasher>,
    labels: Vec<Symbol>,
    key: Vec<usize>,
}

impl LabelSetPool {
    fn begin(&mut self) {
        self.labels.clear();
        self.key.clear();
    }

    fn push(&mut self, label: Symbol) {
        self.key.push(Arc::as_ptr(&label) as *const u8 as usize);
        self.labels.push(label);
    }

    /// The set of the labels pushed since [`Self::begin`], wire order
    /// preserved as [`LabelSet::from_wire`] requires.
    fn finish(&mut self) -> LabelSet {
        if let Some(set) = self.sets.get(self.key.as_slice()) {
            return set.clone();
        }
        let set = LabelSet::from_wire(self.labels.clone());
        self.sets.insert(self.key.as_slice().into(), set.clone());
        set
    }
}

impl JsonlDecoder {
    /// A fresh decoder with an empty symbol pool.
    pub fn new() -> JsonlDecoder {
        JsonlDecoder::default()
    }

    /// Number of distinct symbols pooled so far (metrics/diagnostics).
    pub fn interned_symbols(&self) -> usize {
        self.interner.len()
    }

    /// Number of distinct label arrays pooled so far.
    pub fn pooled_label_sets(&self) -> usize {
        self.label_sets.sets.len()
    }

    /// Decode one JSONL line into an element. The line must contain
    /// exactly one JSON object (leading/trailing whitespace tolerated),
    /// as the reference `serde_json::from_str::<Element>` requires.
    pub fn decode_element(&mut self, line: &str) -> Result<Element, DecodeError> {
        let mut p = Parser {
            text: line,
            bytes: line.as_bytes(),
            pos: 0,
            interner: &mut self.interner,
            scratch: &mut self.scratch,
            label_sets: &mut self.label_sets,
            props: &mut self.props,
        };
        let element = p.parse_element()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(element)
    }
}

/// A parsed JSON number, classified exactly as the vendored parser
/// classifies `Value` numbers: non-negative integers are `U`, negative
/// integers that fit `i64` are `I`, everything else falls back to `F`.
enum Num {
    I(i64),
    U(u64),
    F(f64),
}

/// Result of a string parse: either a borrowed slice of the input
/// (fast path, no escapes) or "the caller's scratch buffer holds it"
/// (slow path). Kept as a range so the borrow of the parser drops
/// before the caller resolves it against disjoint fields.
enum Str {
    Borrowed(Range<usize>),
    Scratch,
}

/// Resolve a [`Str`] against the input text and scratch buffer. A
/// macro rather than a method so the borrows stay field-disjoint from
/// `self.interner`.
macro_rules! resolve_str {
    ($p:expr, $part:expr) => {
        match $part {
            Str::Borrowed(ref r) => &$p.text[r.clone()],
            Str::Scratch => $p.scratch.as_str(),
        }
    };
}

struct Parser<'de, 'a> {
    text: &'de str,
    bytes: &'de [u8],
    pos: usize,
    interner: &'a mut SymbolInterner,
    scratch: &'a mut String,
    label_sets: &'a mut LabelSetPool,
    props: &'a mut Vec<(Symbol, PropertyValue)>,
}

impl<'de, 'a> Parser<'de, 'a> {
    fn err(&self, message: &str) -> DecodeError {
        DecodeError {
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), DecodeError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DecodeError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    // -- Scalar grammar, copied from the vendored parser. ---------------

    /// Parse a number with the reference grammar and classification.
    fn parse_number(&mut self) -> Result<Num, DecodeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                if n >= 0 {
                    return Ok(Num::U(n as u64));
                }
                return Ok(Num::I(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Num::U(n));
            }
        }
        text.parse::<f64>()
            .map(Num::F)
            .map_err(|_| self.err("invalid number"))
    }

    /// Parse a string. Fast path: no escapes → borrow the input slice.
    /// Slow path: unescape into the scratch buffer with the reference
    /// escape/surrogate machinery.
    fn parse_string_raw(&mut self) -> Result<Str, DecodeError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let r = start..self.pos;
                    self.pos += 1;
                    return Ok(Str::Borrowed(r));
                }
                Some(b'\\') => break,
                // Scanning byte-wise is safe: `"` and `\` are ASCII and
                // cannot occur inside a UTF-8 continuation sequence.
                Some(_) => self.pos += 1,
            }
        }
        self.scratch.clear();
        self.scratch.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Str::Scratch);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => self.scratch.push('"'),
                        Some(b'\\') => self.scratch.push('\\'),
                        Some(b'/') => self.scratch.push('/'),
                        Some(b'n') => self.scratch.push('\n'),
                        Some(b'r') => self.scratch.push('\r'),
                        Some(b't') => self.scratch.push('\t'),
                        Some(b'b') => self.scratch.push('\u{08}'),
                        Some(b'f') => self.scratch.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex_str = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let mut code = u32::from_str_radix(hex_str, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pair handling, verbatim.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                let lo_hex = self
                                    .bytes
                                    .get(self.pos + 3..self.pos + 7)
                                    .ok_or_else(|| self.err("truncated surrogate pair"))?;
                                let lo_str = std::str::from_utf8(lo_hex)
                                    .map_err(|_| self.err("invalid surrogate pair"))?;
                                let lo = u32::from_str_radix(lo_str, 16)
                                    .map_err(|_| self.err("invalid surrogate pair"))?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            self.scratch.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    self.scratch.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Syntactically validate and discard one JSON value — the exact
    /// acceptance set of the reference `parse_value`, including number
    /// and escape validation. Used for unknown and duplicate fields.
    fn skip_value(&mut self) -> Result<(), DecodeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect_keyword("null"),
            Some(b't') => self.expect_keyword("true"),
            Some(b'f') => self.expect_keyword("false"),
            Some(b'"') => self.parse_string_raw().map(|_| ()),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.parse_string_raw()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number().map(|_| ()),
            Some(b) => Err(self.err(&format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    // -- Typed scalar fields. -------------------------------------------

    fn parse_u64_typed(&mut self) -> Result<u64, DecodeError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => match self.parse_number()? {
                Num::U(n) => Ok(n),
                Num::I(_) => Err(self.err("negative integer for unsigned field")),
                Num::F(_) => Err(self.err("expected integer")),
            },
            _ => Err(self.err("expected integer")),
        }
    }

    fn parse_i64_typed(&mut self) -> Result<i64, DecodeError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => match self.parse_number()? {
                Num::I(n) => Ok(n),
                Num::U(n) => i64::try_from(n).map_err(|_| self.err("integer out of range")),
                Num::F(_) => Err(self.err("expected integer")),
            },
            _ => Err(self.err("expected integer")),
        }
    }

    fn parse_i32_typed(&mut self) -> Result<i32, DecodeError> {
        let wide = self.parse_i64_typed()?;
        i32::try_from(wide).map_err(|_| self.err("integer out of range"))
    }

    fn parse_u8_typed(&mut self) -> Result<u8, DecodeError> {
        let wide = self.parse_u64_typed()?;
        u8::try_from(wide).map_err(|_| self.err("integer out of range"))
    }

    fn parse_f64_typed(&mut self) -> Result<f64, DecodeError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => match self.parse_number()? {
                Num::F(x) => Ok(x),
                Num::I(n) => Ok(n as f64),
                Num::U(n) => Ok(n as f64),
            },
            _ => Err(self.err("expected number")),
        }
    }

    fn parse_bool_typed(&mut self) -> Result<bool, DecodeError> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.expect_keyword("true").map(|_| true),
            Some(b'f') => self.expect_keyword("false").map(|_| false),
            _ => Err(self.err("expected boolean")),
        }
    }

    /// An owned string value (`PropertyValue::Str` content). The owned
    /// allocation is the value itself — expected and unavoidable.
    fn parse_string_owned(&mut self) -> Result<String, DecodeError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        let part = self.parse_string_raw()?;
        Ok(resolve_str!(self, part).to_owned())
    }

    // -- Typed composite fields. ----------------------------------------

    /// `LabelSet` mirrors the transparent deserialize: the raw label
    /// array in wire order, no sort, no dedup — through the pool, so
    /// only the first occurrence of an array allocates.
    fn parse_labels(&mut self) -> Result<LabelSet, DecodeError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return Err(self.err("expected array"));
        }
        self.pos += 1;
        self.label_sets.begin();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(self.label_sets.finish());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string"));
            }
            let part = self.parse_string_raw()?;
            let symbol = {
                let s = resolve_str!(self, part);
                self.interner.intern(s)
            };
            self.label_sets.push(symbol);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(self.label_sets.finish());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A property map, in either of the two wire forms the reference
    /// `deserialize_map_entries` accepts: a JSON object, or an array of
    /// `[key, value]` pairs (each exactly two items, key a string).
    /// Entries collect in the reused scratch and leave it as one
    /// exact-size [`PropMap`]; duplicate keys are last-wins, as
    /// collecting a `PropMap` makes them.
    fn parse_props(&mut self) -> Result<PropMap, DecodeError> {
        self.skip_ws();
        self.props.clear();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(PropMap::new());
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected string key"));
                    }
                    let part = self.parse_string_raw()?;
                    let key = {
                        let s = resolve_str!(self, part);
                        self.interner.intern(s)
                    };
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_property_value()?;
                    self.props.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(self.props.drain(..).collect());
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(PropMap::new());
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'[') {
                        return Err(self.err("expected [key, value] pair"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected string key"));
                    }
                    let part = self.parse_string_raw()?;
                    let key = {
                        let s = resolve_str!(self, part);
                        self.interner.intern(s)
                    };
                    self.skip_ws();
                    self.expect(b',')?;
                    let value = self.parse_property_value()?;
                    self.skip_ws();
                    if self.peek() != Some(b']') {
                        return Err(self.err("expected [key, value] pair"));
                    }
                    self.pos += 1;
                    self.props.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(self.props.drain(..).collect());
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            _ => Err(self.err("expected map")),
        }
    }

    /// An externally tagged `PropertyValue`: an object with **exactly
    /// one** raw pair whose key names the variant.
    fn parse_property_value(&mut self) -> Result<PropertyValue, DecodeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.err("expected PropertyValue object"));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return Err(self.err("unrecognized PropertyValue variant"));
        }
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string key"));
        }
        let part = self.parse_string_raw()?;
        #[derive(Clone, Copy)]
        enum Tag {
            Int,
            Float,
            Bool,
            Date,
            DateTime,
            Str,
        }
        let tag = match resolve_str!(self, part) {
            "Int" => Tag::Int,
            "Float" => Tag::Float,
            "Bool" => Tag::Bool,
            "Date" => Tag::Date,
            "DateTime" => Tag::DateTime,
            "Str" => Tag::Str,
            _ => return Err(self.err("unrecognized PropertyValue variant")),
        };
        self.skip_ws();
        self.expect(b':')?;
        let value = match tag {
            Tag::Int => PropertyValue::Int(self.parse_i64_typed()?),
            Tag::Float => PropertyValue::Float(self.parse_f64_typed()?),
            Tag::Bool => PropertyValue::Bool(self.parse_bool_typed()?),
            Tag::Date => PropertyValue::Date(self.parse_date_struct()?),
            Tag::DateTime => PropertyValue::DateTime(self.parse_datetime_struct()?),
            Tag::Str => PropertyValue::Str(self.parse_string_owned()?),
        };
        self.skip_ws();
        if self.peek() != Some(b'}') {
            // A second pair (or junk): the reference rejects any
            // PropertyValue object whose raw pair count is not 1.
            return Err(self.err("unrecognized PropertyValue variant"));
        }
        self.pos += 1;
        Ok(value)
    }

    /// Derived-struct `Date`: integer range checks only, no calendar
    /// validation (matching `from_value`, which fills fields directly).
    fn parse_date_struct(&mut self) -> Result<Date, DecodeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.err("expected object"));
        }
        self.pos += 1;
        let mut year: Option<i32> = None;
        let mut month: Option<u8> = None;
        let mut day: Option<u8> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.err("expected string key"));
                }
                let part = self.parse_string_raw()?;
                #[derive(Clone, Copy)]
                enum F {
                    Year,
                    Month,
                    Day,
                    Other,
                }
                let field = match resolve_str!(self, part) {
                    "year" => F::Year,
                    "month" => F::Month,
                    "day" => F::Day,
                    _ => F::Other,
                };
                self.skip_ws();
                self.expect(b':')?;
                match field {
                    F::Year if year.is_none() => year = Some(self.parse_i32_typed()?),
                    F::Month if month.is_none() => month = Some(self.parse_u8_typed()?),
                    F::Day if day.is_none() => day = Some(self.parse_u8_typed()?),
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        match (year, month, day) {
            (Some(year), Some(month), Some(day)) => Ok(Date { year, month, day }),
            _ => Err(self.err("missing Date field")),
        }
    }

    /// Derived-struct `DateTime`: a nested `Date` plus clock fields,
    /// again with no semantic validation.
    fn parse_datetime_struct(&mut self) -> Result<DateTime, DecodeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.err("expected object"));
        }
        self.pos += 1;
        let mut date: Option<Date> = None;
        let mut hour: Option<u8> = None;
        let mut minute: Option<u8> = None;
        let mut second: Option<u8> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.err("expected string key"));
                }
                let part = self.parse_string_raw()?;
                #[derive(Clone, Copy)]
                enum F {
                    Date,
                    Hour,
                    Minute,
                    Second,
                    Other,
                }
                let field = match resolve_str!(self, part) {
                    "date" => F::Date,
                    "hour" => F::Hour,
                    "minute" => F::Minute,
                    "second" => F::Second,
                    _ => F::Other,
                };
                self.skip_ws();
                self.expect(b':')?;
                match field {
                    F::Date if date.is_none() => date = Some(self.parse_date_struct()?),
                    F::Hour if hour.is_none() => hour = Some(self.parse_u8_typed()?),
                    F::Minute if minute.is_none() => minute = Some(self.parse_u8_typed()?),
                    F::Second if second.is_none() => second = Some(self.parse_u8_typed()?),
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        match (date, hour, minute, second) {
            (Some(date), Some(hour), Some(minute), Some(second)) => Ok(DateTime {
                date,
                hour,
                minute,
                second,
            }),
            _ => Err(self.err("missing DateTime field")),
        }
    }

    // -- Element structs. -----------------------------------------------

    /// The internally tagged `Element` envelope: walk the top-level
    /// object until the first `"kind"` pair, deferring any fields seen
    /// before it (writers emit `kind` first, so that list is almost
    /// always empty), then hand off to the variant body parser.
    fn parse_element(&mut self) -> Result<Element, DecodeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.err("expected object for Element"));
        }
        self.pos += 1;
        // Fields preceding "kind": (unescaped key, value start offset).
        let mut deferred: Vec<(String, usize)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return Err(self.err("missing Element tag"));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let part = self.parse_string_raw()?;
            let is_kind = resolve_str!(self, part) == "kind";
            if !is_kind {
                let key = resolve_str!(self, part).to_owned();
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let start = self.pos;
                self.skip_value()?;
                deferred.push((key, start));
            } else {
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.err("missing Element tag"));
                }
                let part = self.parse_string_raw()?;
                #[derive(Clone, Copy)]
                enum Kind {
                    Node,
                    Edge,
                    ResolvedEdge,
                }
                let kind = match resolve_str!(self, part) {
                    "node" => Kind::Node,
                    "edge" => Kind::Edge,
                    "resolved_edge" => Kind::ResolvedEdge,
                    _ => return Err(self.err("unknown Element variant")),
                };
                return match kind {
                    Kind::Node => self.parse_node_body(&deferred).map(Element::Node),
                    Kind::Edge => self.parse_edge_body(&deferred).map(Element::Edge),
                    Kind::ResolvedEdge => {
                        self.parse_record_body(&deferred).map(Element::ResolvedEdge)
                    }
                };
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => return Err(self.err("missing Element tag")),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Node body: replay deferred pre-kind fields (first-wins), then
    /// stream the remaining pairs from the cursor.
    fn parse_node_body(&mut self, deferred: &[(String, usize)]) -> Result<Node, DecodeError> {
        #[derive(Clone, Copy)]
        enum F {
            Id,
            Labels,
            Props,
            Other,
        }
        fn classify(key: &str) -> F {
            match key {
                "id" => F::Id,
                "labels" => F::Labels,
                "props" => F::Props,
                _ => F::Other,
            }
        }
        let mut id: Option<NodeId> = None;
        let mut labels: Option<LabelSet> = None;
        let mut props: Option<PropMap> = None;
        let apply = |p: &mut Self,
                     f: F,
                     id: &mut Option<NodeId>,
                     labels: &mut Option<LabelSet>,
                     props: &mut Option<PropMap>|
         -> Result<(), DecodeError> {
            match f {
                F::Id if id.is_none() => *id = Some(NodeId(p.parse_u64_typed()?)),
                F::Labels if labels.is_none() => *labels = Some(p.parse_labels()?),
                F::Props if props.is_none() => *props = Some(p.parse_props()?),
                // Duplicate known field or unknown field (including a
                // second "kind"): syntax-validate and ignore.
                _ => p.skip_value()?,
            }
            Ok(())
        };
        for (key, start) in deferred {
            let save = self.pos;
            self.pos = *start;
            apply(self, classify(key), &mut id, &mut labels, &mut props)?;
            self.pos = save;
        }
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let part = self.parse_string_raw()?;
            let f = classify(resolve_str!(self, part));
            self.skip_ws();
            self.expect(b':')?;
            apply(self, f, &mut id, &mut labels, &mut props)?;
        }
        match (id, labels, props) {
            (Some(id), Some(labels), Some(props)) => Ok(Node { id, labels, props }),
            _ => Err(self.err("missing Node field")),
        }
    }

    /// Edge body, for both the top-level `edge` variant and the nested
    /// `edge` field of a resolved-edge record. `streaming` controls
    /// whether the cursor continues after a `kind` handoff (separator
    /// first) or parses a complete nested object (opening brace first).
    fn parse_edge_fields(
        &mut self,
        deferred: &[(String, usize)],
        nested: bool,
    ) -> Result<Edge, DecodeError> {
        #[derive(Clone, Copy)]
        enum F {
            Id,
            Src,
            Tgt,
            Labels,
            Props,
            Other,
        }
        fn classify(key: &str) -> F {
            match key {
                "id" => F::Id,
                "src" => F::Src,
                "tgt" => F::Tgt,
                "labels" => F::Labels,
                "props" => F::Props,
                _ => F::Other,
            }
        }
        struct Slots {
            id: Option<EdgeId>,
            src: Option<NodeId>,
            tgt: Option<NodeId>,
            labels: Option<LabelSet>,
            props: Option<PropMap>,
        }
        let mut s = Slots {
            id: None,
            src: None,
            tgt: None,
            labels: None,
            props: None,
        };
        let apply = |p: &mut Self, f: F, s: &mut Slots| -> Result<(), DecodeError> {
            match f {
                F::Id if s.id.is_none() => s.id = Some(EdgeId(p.parse_u64_typed()?)),
                F::Src if s.src.is_none() => s.src = Some(NodeId(p.parse_u64_typed()?)),
                F::Tgt if s.tgt.is_none() => s.tgt = Some(NodeId(p.parse_u64_typed()?)),
                F::Labels if s.labels.is_none() => s.labels = Some(p.parse_labels()?),
                F::Props if s.props.is_none() => s.props = Some(p.parse_props()?),
                _ => p.skip_value()?,
            }
            Ok(())
        };
        for (key, start) in deferred {
            let save = self.pos;
            self.pos = *start;
            apply(self, classify(key), &mut s)?;
            self.pos = save;
        }
        let mut first = false;
        if nested {
            self.skip_ws();
            if self.peek() != Some(b'{') {
                return Err(self.err("expected object"));
            }
            self.pos += 1;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Err(self.err("missing Edge field"));
            }
            first = true;
        }
        loop {
            if !first {
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
            first = false;
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let part = self.parse_string_raw()?;
            let f = classify(resolve_str!(self, part));
            self.skip_ws();
            self.expect(b':')?;
            apply(self, f, &mut s)?;
        }
        match (s.id, s.src, s.tgt, s.labels, s.props) {
            (Some(id), Some(src), Some(tgt), Some(labels), Some(props)) => Ok(Edge {
                id,
                src,
                tgt,
                labels,
                props,
            }),
            _ => Err(self.err("missing Edge field")),
        }
    }

    fn parse_edge_body(&mut self, deferred: &[(String, usize)]) -> Result<Edge, DecodeError> {
        self.parse_edge_fields(deferred, false)
    }

    /// Resolved-edge record body: a nested `edge` object plus endpoint
    /// label sets.
    fn parse_record_body(
        &mut self,
        deferred: &[(String, usize)],
    ) -> Result<EdgeRecord, DecodeError> {
        #[derive(Clone, Copy)]
        enum F {
            Edge,
            SrcLabels,
            TgtLabels,
            Other,
        }
        fn classify(key: &str) -> F {
            match key {
                "edge" => F::Edge,
                "src_labels" => F::SrcLabels,
                "tgt_labels" => F::TgtLabels,
                _ => F::Other,
            }
        }
        let mut edge: Option<Edge> = None;
        let mut src_labels: Option<LabelSet> = None;
        let mut tgt_labels: Option<LabelSet> = None;
        let apply = |p: &mut Self,
                     f: F,
                     edge: &mut Option<Edge>,
                     src_labels: &mut Option<LabelSet>,
                     tgt_labels: &mut Option<LabelSet>|
         -> Result<(), DecodeError> {
            match f {
                F::Edge if edge.is_none() => *edge = Some(p.parse_edge_fields(&[], true)?),
                F::SrcLabels if src_labels.is_none() => *src_labels = Some(p.parse_labels()?),
                F::TgtLabels if tgt_labels.is_none() => *tgt_labels = Some(p.parse_labels()?),
                _ => p.skip_value()?,
            }
            Ok(())
        };
        for (key, start) in deferred {
            let save = self.pos;
            self.pos = *start;
            apply(
                self,
                classify(key),
                &mut edge,
                &mut src_labels,
                &mut tgt_labels,
            )?;
            self.pos = save;
        }
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let part = self.parse_string_raw()?;
            let f = classify(resolve_str!(self, part));
            self.skip_ws();
            self.expect(b':')?;
            apply(self, f, &mut edge, &mut src_labels, &mut tgt_labels)?;
        }
        match (edge, src_labels, tgt_labels) {
            (Some(edge), Some(src_labels), Some(tgt_labels)) => Ok(EdgeRecord {
                edge,
                src_labels,
                tgt_labels,
            }),
            _ => Err(self.err("missing EdgeRecord field")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::sym;

    fn decode(line: &str) -> Result<Element, DecodeError> {
        JsonlDecoder::new().decode_element(line)
    }

    /// Both decoders must agree on accept/reject; on accept the
    /// elements must match (via their canonical re-serialization).
    fn assert_parity(line: &str) {
        let reference = serde_json::from_str::<Element>(line);
        let ours = decode(line);
        match (&reference, &ours) {
            (Ok(r), Ok(o)) => {
                // Debug-compare rather than re-serialize: the writer
                // rejects non-finite floats, which the read path accepts.
                assert_eq!(
                    format!("{r:?}"),
                    format!("{o:?}"),
                    "decoded elements differ for {line}"
                );
            }
            (Err(_), Err(_)) => {}
            _ => panic!(
                "acceptance divergence for {line}: reference={:?} ours={:?}",
                reference.as_ref().map(|_| ()),
                ours.as_ref().map(|_| ())
            ),
        }
    }

    #[test]
    fn decodes_canonical_node_line() {
        let line = r#"{"kind":"node","id":7,"labels":["Person","Student"],"props":{"age":{"Int":30},"name":{"Str":"A"}}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => {
                assert_eq!(n.id, NodeId(7));
                assert_eq!(n.labels.len(), 2);
                assert_eq!(n.props.get("age"), Some(&PropertyValue::Int(30)));
                assert_eq!(
                    n.props.get("name"),
                    Some(&PropertyValue::Str("A".to_owned()))
                );
            }
            other => panic!("expected node, got {other:?}"),
        }
        assert_parity(line);
    }

    #[test]
    fn decodes_edge_and_resolved_edge_lines() {
        let edge = r#"{"kind":"edge","id":9,"src":1,"tgt":2,"labels":["KNOWS"],"props":{}}"#;
        assert!(matches!(decode(edge).unwrap(), Element::Edge(_)));
        assert_parity(edge);
        let rec = r#"{"kind":"resolved_edge","edge":{"id":9,"src":1,"tgt":2,"labels":["KNOWS"],"props":{"w":{"Float":1.5}}},"src_labels":["Person"],"tgt_labels":["Org"]}"#;
        match decode(rec).unwrap() {
            Element::ResolvedEdge(r) => {
                assert_eq!(r.edge.id, EdgeId(9));
                assert_eq!(r.src_labels, LabelSet::single("Person"));
            }
            other => panic!("expected resolved edge, got {other:?}"),
        }
        assert_parity(rec);
    }

    #[test]
    fn kind_after_other_fields_is_deferred_and_replayed() {
        let line = r#"{"id":3,"labels":["X"],"kind":"node","props":{}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.id, NodeId(3)),
            other => panic!("{other:?}"),
        }
        assert_parity(line);
    }

    #[test]
    fn duplicate_struct_fields_are_first_wins() {
        let line = r#"{"kind":"node","id":1,"id":2,"labels":[],"props":{}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.id, NodeId(1)),
            other => panic!("{other:?}"),
        }
        assert_parity(line);
        // A later duplicate is only syntax-checked, so a type-invalid
        // duplicate still parses (matching the reference)...
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":{},"id":"x"}"#);
        // ...but a syntax-invalid one rejects.
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":{},"id":-}"#);
    }

    #[test]
    fn duplicate_prop_keys_are_last_wins() {
        let line = r#"{"kind":"node","id":1,"labels":[],"props":{"k":{"Int":1},"k":{"Int":2}}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.props.get("k"), Some(&PropertyValue::Int(2))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pair_array_props_form_is_accepted() {
        let line =
            r#"{"kind":"node","id":1,"labels":[],"props":[["a",{"Int":1}],["b",{"Bool":true}]]}"#;
        match decode(line).unwrap() {
            Element::Node(n) => {
                assert_eq!(n.props.len(), 2);
                assert_eq!(n.props.get("b"), Some(&PropertyValue::Bool(true)));
            }
            other => panic!("{other:?}"),
        }
        assert_parity(line);
        // Wrong pair arity rejects, as in the reference.
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":[["a",{"Int":1},3]]}"#);
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":[["a"]]}"#);
    }

    #[test]
    fn labels_preserve_wire_order_like_the_reference() {
        // The derived impl is transparent: no sort, no dedup on read.
        let line = r#"{"kind":"node","id":1,"labels":["Z","A","Z"],"props":{}}"#;
        let reference = match serde_json::from_str::<Element>(line).unwrap() {
            Element::Node(n) => n.labels,
            _ => unreachable!(),
        };
        let ours = match decode(line).unwrap() {
            Element::Node(n) => n.labels,
            _ => unreachable!(),
        };
        assert_eq!(ours, reference);
        let order: Vec<&str> = ours.iter().map(|s| s.as_ref()).collect();
        assert_eq!(order, ["Z", "A", "Z"]);
    }

    #[test]
    fn numeric_classification_matches_reference() {
        for (json, expect) in [
            (r#"{"Int":0}"#, Some(PropertyValue::Int(0))),
            (r#"{"Int":-0}"#, Some(PropertyValue::Int(0))),
            (
                r#"{"Int":-9223372036854775808}"#,
                Some(PropertyValue::Int(i64::MIN)),
            ),
            (
                r#"{"Int":9223372036854775807}"#,
                Some(PropertyValue::Int(i64::MAX)),
            ),
            (r#"{"Int":9223372036854775808}"#, None), // > i64::MAX
            (r#"{"Int":1.5}"#, None),
            (r#"{"Int":01}"#, Some(PropertyValue::Int(1))), // leading zero quirk
            (r#"{"Float":3}"#, Some(PropertyValue::Float(3.0))),
            (r#"{"Float":-0.0}"#, Some(PropertyValue::Float(-0.0))),
            (r#"{"Float":1.}"#, Some(PropertyValue::Float(1.0))), // "1." quirk
            (r#"{"Float":2e3}"#, Some(PropertyValue::Float(2000.0))),
            (
                r#"{"Float":18446744073709551615}"#,
                Some(PropertyValue::Float(u64::MAX as f64)),
            ),
            (
                r#"{"Float":1e999}"#,
                Some(PropertyValue::Float(f64::INFINITY)),
            ),
            (r#"{"Float":1e}"#, None),
            (r#"{"Bool":true}"#, Some(PropertyValue::Bool(true))),
            (r#"{"Bool":1}"#, None),
        ] {
            let line = format!(r#"{{"kind":"node","id":1,"labels":[],"props":{{"k":{json}}}}}"#);
            let got = decode(&line);
            match (&expect, &got) {
                (Some(want), Ok(Element::Node(n))) => {
                    let v = n.props.get("k").unwrap();
                    match (want, v) {
                        (PropertyValue::Float(a), PropertyValue::Float(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "{json}")
                        }
                        _ => assert_eq!(v, want, "{json}"),
                    }
                }
                (None, Err(_)) => {}
                other => panic!("unexpected outcome for {json}: {other:?}"),
            }
            assert_parity(&line);
        }
    }

    #[test]
    fn string_escapes_match_reference() {
        for s in [
            r#""plain""#,
            r#""tab\tand\nnewline""#,
            r#""quote \" backslash \\ solidus \/""#,
            r#""unicode Aé""#,
            r#""surrogate 😀""#,
            r#""radix quirk \u+abc""#, // from_str_radix accepts '+'
            "\"non-ascii é😀\"",
        ] {
            let line =
                format!(r#"{{"kind":"node","id":1,"labels":[],"props":{{"k":{{"Str":{s}}}}}}}"#);
            assert_parity(&line);
        }
        // Rejections: unpaired surrogate, truncated/invalid escapes.
        for s in [r#""\ud800""#, r#""\u12""#, r#""\q""#, r#""unterminated"#] {
            let line =
                format!(r#"{{"kind":"node","id":1,"labels":[],"props":{{"k":{{"Str":{s}}}}}}}"#);
            assert_parity(&line);
        }
    }

    #[test]
    fn escaped_keys_resolve_before_matching() {
        // An escaped key unescapes to "id"; the reference matches
        // unescaped keys, so must we.
        let line = "{\"kind\":\"node\",\"\\u0069d\":5,\"labels\":[],\"props\":{}}";
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.id, NodeId(5)),
            other => panic!("{other:?}"),
        }
        assert_parity(line);
        // Same for an escaped variant tag (unescapes to "node").
        let tagged = "{\"kind\":\"no\\u0064e\",\"id\":1,\"labels\":[],\"props\":{}}";
        assert!(decode(tagged).is_ok());
        assert_parity(tagged);
    }

    #[test]
    fn date_and_datetime_fill_without_validation() {
        // month 13 / day 99 pass the reference's derived deserialize
        // (range checks only); match it.
        let line = r#"{"kind":"node","id":1,"labels":[],"props":{"d":{"Date":{"year":2024,"month":13,"day":99}}}}"#;
        assert!(decode(line).is_ok());
        assert_parity(line);
        // u8 overflow rejects.
        assert_parity(
            r#"{"kind":"node","id":1,"labels":[],"props":{"d":{"Date":{"year":2024,"month":300,"day":1}}}}"#,
        );
        let dt = r#"{"kind":"node","id":1,"labels":[],"props":{"t":{"DateTime":{"date":{"year":1999,"month":12,"day":19},"hour":23,"minute":59,"second":59}}}}"#;
        assert_parity(dt);
        match decode(dt).unwrap() {
            Element::Node(n) => {
                assert!(matches!(n.props.get("t"), Some(PropertyValue::DateTime(_))))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejections_match_reference() {
        for line in [
            "not json at all",
            "5",
            "[1]",
            "\"x\"",
            "null",
            "{}",
            r#"{"id":1,"labels":[],"props":{}}"#, // no kind
            r#"{"kind":"widget","id":1}"#,        // unknown variant
            r#"{"kind":5,"id":1,"labels":[],"props":{}}"#, // non-string kind
            r#"{"kind":"node","id":1,"labels":[],"props":{}}x"#, // trailing
            r#"{"kind":"node","id":1,"labels":[],"props":{}"#, // truncated
            r#"{"kind":"node","id":-1,"labels":[],"props":{}}"#, // negative id
            r#"{"kind":"node","id":1.0,"labels":[],"props":{}}"#, // float id
            r#"{"kind":"node","id":1,"labels":"x","props":{}}"#, // non-array labels
            r#"{"kind":"node","id":1,"labels":[1],"props":{}}"#, // non-string label
            r#"{"kind":"node","id":1,"labels":[],"props":5}"#, // non-map props
            r#"{"kind":"node","id":1,"labels":[],"props":{"k":5}}"#, // untagged value
            r#"{"kind":"node","id":1,"labels":[],"props":{"k":{"Int":1,"Int":2}}}"#, // two pairs
            r#"{"kind":"node","id":1,"labels":[],"props":{"k":{"Nope":1}}}"#, // unknown tag
            r#"{"kind":"node","id":1,"labels":[]}"#, // missing props
            r#"{"kind":"edge","id":1,"src":1,"labels":[],"props":{}}"#, // missing tgt
            r#"{"kind":"node","id":1,"labels":[],"props":{},"x":-}"#, // bad ignored value
            r#"{"kind":"node","id":1,"labels":[],"props":{},}"#, // trailing comma
        ] {
            assert!(decode(line).is_err(), "should reject: {line}");
            assert_parity(line);
        }
    }

    #[test]
    fn unknown_fields_are_ignored_but_syntax_checked() {
        let line = r#"{"extra":{"deep":[1,2,{"x":null}]},"kind":"node","id":1,"labels":[],"props":{},"more":"ok"}"#;
        assert!(decode(line).is_ok());
        assert_parity(line);
    }

    #[test]
    fn whitespace_everywhere_is_tolerated() {
        let line = " { \"kind\" : \"node\" ,\t\"id\" : 1 , \"labels\" : [ \"A\" , \"B\" ] , \"props\" : { \"k\" : { \"Int\" : 1 } } } ";
        assert!(decode(line).is_ok());
        assert_parity(line);
    }

    #[test]
    fn interner_pools_repeated_symbols_across_lines() {
        let mut d = JsonlDecoder::new();
        let a = match d
            .decode_element(
                r#"{"kind":"node","id":1,"labels":["Person"],"props":{"age":{"Int":1}}}"#,
            )
            .unwrap()
        {
            Element::Node(n) => n,
            _ => unreachable!(),
        };
        let b = match d
            .decode_element(
                r#"{"kind":"node","id":2,"labels":["Person"],"props":{"age":{"Int":2}}}"#,
            )
            .unwrap()
        {
            Element::Node(n) => n,
            _ => unreachable!(),
        };
        let la = a.labels.iter().next().unwrap();
        let lb = b.labels.iter().next().unwrap();
        assert!(std::sync::Arc::ptr_eq(la, lb), "labels must share one Arc");
        let ka = a.props.keys().next().unwrap();
        let kb = b.props.keys().next().unwrap();
        assert!(std::sync::Arc::ptr_eq(ka, kb), "keys must share one Arc");
        assert_eq!(d.interned_symbols(), 2);
        assert_eq!(*ka, sym("age"));
    }

    fn labels_of(d: &mut JsonlDecoder, line: &str) -> LabelSet {
        match d.decode_element(line).unwrap() {
            Element::Node(n) => n.labels,
            Element::Edge(e) => e.labels,
            Element::ResolvedEdge(r) => r.edge.labels,
        }
    }

    #[test]
    fn equal_label_arrays_share_one_allocation_across_lines() {
        let mut d = JsonlDecoder::new();
        let a = labels_of(
            &mut d,
            r#"{"kind":"node","id":1,"labels":["Person","Student"],"props":{}}"#,
        );
        let b = labels_of(
            &mut d,
            r#"{"kind":"node","id":2,"labels":["Person","Student"],"props":{"k":{"Int":1}}}"#,
        );
        assert!(a.ptr_eq(&b), "the second array is a refcount bump");
        assert_eq!(d.pooled_label_sets(), 1);
        // Across element kinds and fields too: the pool is the decoder's.
        let rec = r#"{"kind":"resolved_edge","edge":{"id":9,"src":1,"tgt":2,"labels":["KNOWS"],"props":{}},"src_labels":["Person","Student"],"tgt_labels":["Person","Student"]}"#;
        match d.decode_element(rec).unwrap() {
            Element::ResolvedEdge(r) => {
                assert!(r.src_labels.ptr_eq(&a) && r.tgt_labels.ptr_eq(&a));
                assert!(!r.edge.labels.ptr_eq(&a));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.pooled_label_sets(), 2);
        // An escaped spelling of the same labels is the same array.
        let escaped = labels_of(
            &mut d,
            "{\"kind\":\"node\",\"id\":3,\"labels\":[\"P\\u0065rson\",\"Student\"],\"props\":{}}",
        );
        assert!(escaped.ptr_eq(&a));
        // Unlabeled elements pool as well.
        let none = r#"{"kind":"node","id":4,"labels":[],"props":{}}"#;
        let (e1, e2) = (labels_of(&mut d, none), labels_of(&mut d, none));
        assert!(e1.ptr_eq(&e2) && e1.is_empty());
    }

    #[test]
    fn label_pool_keeps_wire_order_apart() {
        // `from_wire` is order-preserving, so the two orders are two
        // different label sets and must stay two pool entries.
        let mut d = JsonlDecoder::new();
        let ba = labels_of(
            &mut d,
            r#"{"kind":"node","id":1,"labels":["B","A"],"props":{}}"#,
        );
        let ab = labels_of(
            &mut d,
            r#"{"kind":"node","id":2,"labels":["A","B"],"props":{}}"#,
        );
        assert_ne!(ba, ab);
        let order = |s: &LabelSet| s.iter().map(|l| l.to_string()).collect::<Vec<_>>();
        assert_eq!(order(&ba), ["B", "A"]);
        assert_eq!(order(&ab), ["A", "B"]);
        assert_eq!(d.pooled_label_sets(), 2);
        // A prefix, a repeat and a superset are their own arrays.
        for (line, want) in [
            (r#"{"kind":"node","id":3,"labels":["A"],"props":{}}"#, 1),
            (r#"{"kind":"node","id":4,"labels":["A","A"],"props":{}}"#, 2),
            (
                r#"{"kind":"node","id":5,"labels":["A","B","C"],"props":{}}"#,
                3,
            ),
        ] {
            assert_eq!(labels_of(&mut d, line).len(), want);
        }
        assert_eq!(d.pooled_label_sets(), 5);
        // A line that fails after its labels parsed leaves the pool usable.
        assert!(d
            .decode_element(r#"{"kind":"node","id":6,"labels":["B","A"],"props":5}"#)
            .is_err());
        assert!(labels_of(
            &mut d,
            r#"{"kind":"node","id":7,"labels":["B","A"],"props":{}}"#
        )
        .ptr_eq(&ba));
    }

    #[test]
    fn props_scratch_does_not_leak_between_lines() {
        let mut d = JsonlDecoder::new();
        // Fails inside the second value: "a" is already in the scratch.
        assert!(d
            .decode_element(
                r#"{"kind":"node","id":1,"labels":[],"props":{"a":{"Int":1},"b":{"Int":x}}}"#
            )
            .is_err());
        match d
            .decode_element(r#"{"kind":"node","id":2,"labels":[],"props":{"z":{"Int":2},"c":{"Int":3},"z":{"Int":4}}}"#)
            .unwrap()
        {
            Element::Node(n) => {
                let got: Vec<(&str, &PropertyValue)> =
                    n.props.iter().map(|(k, v)| (k.as_ref(), v)).collect();
                assert_eq!(
                    got,
                    [("c", &PropertyValue::Int(3)), ("z", &PropertyValue::Int(4))],
                    "unsorted arrival, last wins, nothing from the failed line"
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
