//! Lenient ingestion: error policies and the quarantine report.
//!
//! Real graph dumps are messy — truncated rows, stray quotes, malformed
//! JSON, edges whose endpoints never materialized. Following the
//! validation-not-trust stance of PG-Schema validators, the loaders can
//! run in a *lenient* mode where malformed input lines are diverted to a
//! [`Quarantine`] report (with their exact line number, the reason, and
//! the raw text) instead of aborting the whole load. The
//! [`ErrorPolicy`] decides how much dirt is tolerable:
//!
//! * [`ErrorPolicy::Strict`] — first malformed line aborts the load
//!   (the classic fail-fast behaviour).
//! * [`ErrorPolicy::Skip`] — quarantine everything malformed, load the
//!   rest.
//! * [`ErrorPolicy::Cap`]`(n)` — tolerate up to `n` quarantined lines,
//!   abort beyond that (a tripwire against loading 1% of a corrupt
//!   dump and calling it a graph).

use pg_model::ModelError;
use std::fmt;

/// How the lenient loaders react to malformed input lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Abort on the first malformed line.
    #[default]
    Strict,
    /// Quarantine malformed lines and keep loading.
    Skip,
    /// Quarantine up to `n` lines; abort when the budget is exceeded.
    Cap(usize),
}

/// `strict`, `skip`, or `cap:<n>` — the one spelling the CLI's
/// `--on-error` and a served session's `on_error` share.
impl std::str::FromStr for ErrorPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<ErrorPolicy, String> {
        match s {
            "strict" => Ok(ErrorPolicy::Strict),
            "skip" => Ok(ErrorPolicy::Skip),
            other => other
                .strip_prefix("cap:")
                .and_then(|n| n.parse().ok())
                .map(ErrorPolicy::Cap)
                .ok_or_else(|| {
                    format!("unknown error policy {other:?} (strict, skip, or cap:<n>)")
                }),
        }
    }
}

impl fmt::Display for ErrorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorPolicy::Strict => f.write_str("strict"),
            ErrorPolicy::Skip => f.write_str("skip"),
            ErrorPolicy::Cap(n) => write!(f, "cap:{n}"),
        }
    }
}

/// One diverted input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Which input the line came from (e.g. `"nodes.csv"`, `"jsonl"`).
    pub source: String,
    /// 1-based line number of the start of the offending record.
    pub line: usize,
    /// Why the line was rejected.
    pub reason: String,
    /// The raw record text (truncated to [`Quarantine::MAX_RAW`] bytes).
    pub raw: String,
}

impl fmt::Display for QuarantineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.source, self.line, self.reason)
    }
}

/// The report of everything a lenient load diverted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// Raw-line excerpts are capped at this many bytes so one corrupt
    /// multi-megabyte record cannot balloon the report.
    pub const MAX_RAW: usize = 200;

    /// An empty quarantine.
    pub fn new() -> Quarantine {
        Quarantine::default()
    }

    /// The diverted lines, in input order.
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// Number of diverted lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was diverted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record one malformed line under `policy`. Returns `Err` when the
    /// policy says the load must abort (Strict always; Cap when the
    /// budget is exhausted) — the error carries the offending location.
    pub fn divert(
        &mut self,
        policy: ErrorPolicy,
        source: &str,
        line: usize,
        reason: String,
        raw: &str,
    ) -> Result<(), ModelError> {
        let mut excerpt: String = raw.chars().take(Self::MAX_RAW).collect();
        if excerpt.len() < raw.len() {
            excerpt.push('…');
        }
        self.entries.push(QuarantineEntry {
            source: source.to_owned(),
            line,
            reason: reason.clone(),
            raw: excerpt,
        });
        match policy {
            ErrorPolicy::Strict => Err(ModelError::Parse {
                message: format!("{source} line {line}: {reason}"),
            }),
            ErrorPolicy::Skip => Ok(()),
            ErrorPolicy::Cap(n) if self.entries.len() > n => Err(ModelError::Parse {
                message: format!("{source} line {line}: {reason} (quarantine cap of {n} exceeded)"),
            }),
            ErrorPolicy::Cap(_) => Ok(()),
        }
    }

    /// A human-readable multi-line summary, one line per entry.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "quarantined {} malformed line{}:\n",
            self.len(),
            if self.len() == 1 { "" } else { "s" }
        );
        for e in &self.entries {
            let _ = writeln!(out, "  {e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_spelling_round_trips() {
        for policy in [ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Cap(0)] {
            assert_eq!(policy.to_string().parse(), Ok(policy));
        }
        for bad in ["", "Strict", "cap", "cap:", "cap:x", "cap:-1", "cap: 3"] {
            assert!(bad.parse::<ErrorPolicy>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn strict_policy_aborts_immediately() {
        let mut q = Quarantine::new();
        let err = q
            .divert(ErrorPolicy::Strict, "nodes.csv", 7, "bad id".into(), "x,y")
            .unwrap_err();
        assert!(err.to_string().contains("line 7"), "{err}");
        assert_eq!(q.len(), 1, "the line is still recorded for reporting");
    }

    #[test]
    fn skip_policy_accumulates() {
        let mut q = Quarantine::new();
        for i in 0..5 {
            q.divert(ErrorPolicy::Skip, "jsonl", i + 1, "broken".into(), "{")
                .unwrap();
        }
        assert_eq!(q.len(), 5);
        let s = q.summary();
        assert!(s.contains("5 malformed lines"), "{s}");
        assert!(s.contains("jsonl:3"), "{s}");
    }

    #[test]
    fn cap_policy_trips_beyond_budget() {
        let mut q = Quarantine::new();
        q.divert(ErrorPolicy::Cap(2), "e", 1, "r".into(), "")
            .unwrap();
        q.divert(ErrorPolicy::Cap(2), "e", 2, "r".into(), "")
            .unwrap();
        let err = q.divert(ErrorPolicy::Cap(2), "e", 3, "r".into(), "");
        assert!(err.unwrap_err().to_string().contains("cap of 2"));
    }

    #[test]
    fn raw_excerpts_are_truncated() {
        let mut q = Quarantine::new();
        let long = "x".repeat(10_000);
        q.divert(ErrorPolicy::Skip, "f", 1, "huge".into(), &long)
            .unwrap();
        assert!(q.entries()[0].raw.len() <= Quarantine::MAX_RAW + '…'.len_utf8());
        assert!(q.entries()[0].raw.ends_with('…'));
    }
}
