//! Result shapes: the driver's one-line JSON, the `run` report (table +
//! file), and `compare` over two reports.

use crate::metrics::{spread, Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use serde_json::JsonValue;

/// Everything one workload's run produced.
#[derive(Debug)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub rows: usize,
    pub corpus_bytes: usize,
    pub corpus_fnv: u64,
    /// Content hash of the schema, known once the replay has proved
    /// it computes what the child computed.
    pub hash: Option<String>,
    /// FNV of what every repetition handed back (schema JSON, or the
    /// served session's hash string).
    pub output_fnv: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Samples per end-to-end metric, in [`END_TO_END`] order.
    pub end_to_end: Vec<Vec<f64>>,
    /// One value per per-layer metric, in [`PER_LAYER`] order; empty
    /// when the run did not trace.
    pub per_layer: Vec<f64>,
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_owned())
}

fn metric(value: f64, unit: &str) -> JsonValue {
    obj(vec![("value", JsonValue::F64(value)), ("unit", text(unit))])
}

impl WorkloadReport {
    fn summaries(&self) -> impl Iterator<Item = (&'static EndToEnd, Option<Summary>)> + '_ {
        END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(def, samples)| (def, Summary::of(samples)))
    }

    /// The last stdout line the driver reads: end-to-end values with
    /// `--trace 0`, per-layer values with `--trace 1`.
    pub fn driver_line(&self, trace: bool) -> String {
        let metrics: Vec<(String, JsonValue)> = if trace {
            PER_LAYER
                .iter()
                .zip(&self.per_layer)
                .map(|(def, &v)| (def.name.to_owned(), metric(v, def.unit)))
                .collect()
        } else {
            self.summaries()
                .map(|(def, s)| {
                    let value = s.map_or(0.0, |s| s.median);
                    (def.name.to_owned(), metric(value, def.unit))
                })
                .collect()
        };
        let line = obj(vec![
            ("correct", JsonValue::Bool(self.failed == 0)),
            ("attempted", JsonValue::U64(self.attempted.max(1))),
            ("failed", JsonValue::U64(self.failed)),
            ("metrics", JsonValue::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }

    /// One line per end-to-end metric: the value a run reports and the
    /// distribution behind it.
    fn end_to_end_lines(&self) -> Vec<String> {
        self.summaries()
            .map(|(def, s)| match s {
                Some(s) => format!(
                    "{:<20} {:<28} {:>14.4} {:<6} (median; min {:.4}, q1 {:.4}, q3 {:.4}, max {:.4}, n {})",
                    self.name,
                    def.name,
                    s.median,
                    def.unit,
                    s.min,
                    s.q1,
                    s.q3,
                    s.max,
                    s.n
                ),
                None => format!("{:<20} {:<28} {:>14} {:<6}", self.name, def.name, "-", def.unit),
            })
            .collect()
    }

    /// The end-to-end distributions, on stderr (the driver's stdout
    /// carries only the result line).
    pub fn print_summaries(&self) {
        for line in self.end_to_end_lines() {
            eprintln!("{line}");
        }
    }

    /// One row per metric: `workload metric value unit`.
    pub fn print_table(&self) {
        for line in self.end_to_end_lines() {
            println!("{line}");
        }
        for (def, v) in PER_LAYER.iter().zip(&self.per_layer) {
            println!(
                "{:<20} {:<28} {:>14.4} {:<6}",
                self.name, def.name, v, def.unit
            );
        }
        println!(
            "{:<20} {:<28} {:>14} {:<6} ({} failed)",
            self.name, "ops_attempted", self.attempted, "count", self.failed
        );
    }

    fn to_json(&self) -> JsonValue {
        let end_to_end = self
            .summaries()
            .filter_map(|(def, s)| {
                let s = s?;
                Some((
                    def.name.to_owned(),
                    obj(vec![
                        ("unit", text(def.unit)),
                        ("value", JsonValue::F64(s.median)),
                        ("spread", JsonValue::F64(spread(&s))),
                        ("min", JsonValue::F64(s.min)),
                        ("q1", JsonValue::F64(s.q1)),
                        ("median", JsonValue::F64(s.median)),
                        ("q3", JsonValue::F64(s.q3)),
                        ("max", JsonValue::F64(s.max)),
                        ("n", JsonValue::U64(s.n as u64)),
                    ]),
                ))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .zip(&self.per_layer)
            .map(|(def, &v)| (def.name.to_owned(), metric(v, def.unit)))
            .collect();
        obj(vec![
            ("name", text(self.name)),
            ("rows", JsonValue::U64(self.rows as u64)),
            ("corpus_bytes", JsonValue::U64(self.corpus_bytes as u64)),
            ("corpus_fnv", text(&format!("{:016x}", self.corpus_fnv))),
            (
                "schema_hash",
                self.hash.as_deref().map_or(JsonValue::Null, text),
            ),
            (
                "output_fnv",
                self.output_fnv
                    .map_or(JsonValue::Null, |f| text(&format!("{f:016x}"))),
            ),
            ("ops_attempted", JsonValue::U64(self.attempted)),
            ("ops_failed", JsonValue::U64(self.failed)),
            (
                "failures",
                JsonValue::Array(self.failures.iter().map(|f| text(f)).collect()),
            ),
            ("end_to_end", JsonValue::Object(end_to_end)),
            ("per_layer", JsonValue::Object(per_layer)),
        ])
    }
}

/// The `run` report file.
pub fn run_json(
    seed: u64,
    seconds: f64,
    scale: usize,
    engine_threads: u64,
    reports: &[WorkloadReport],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    let report = obj(vec![
        ("benchmark", text("pg-hive bytes-in -> schema-hash-out")),
        ("seed", JsonValue::U64(seed)),
        ("seconds", JsonValue::F64(seconds)),
        ("size_divisor", JsonValue::U64(scale as u64)),
        ("nproc", JsonValue::U64(nproc as u64)),
        ("engine_threads", JsonValue::U64(engine_threads)),
        (
            "git_commit",
            commit.as_deref().map_or(JsonValue::Null, text),
        ),
        (
            "workloads",
            JsonValue::Array(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&report).expect("a value tree serializes") + "\n"
}

fn number(v: Option<&JsonValue>) -> Option<f64> {
    match v? {
        JsonValue::F64(x) => Some(*x),
        JsonValue::U64(x) => Some(*x as f64),
        JsonValue::I64(x) => Some(*x as f64),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's spread is wider than the bound: the bound cannot tell
    /// a regression from noise.
    Unresolved,
}

/// Judge candidate `b` against baseline `a` for one metric; each side
/// is `(value, spread)`.
pub fn judge(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> (f64, Verdict) {
    let ((a_value, a_spread), (b_value, b_spread)) = (a, b);
    let delta = (b_value - a_value) / a_value.abs().max(f64::MIN_POSITIVE);
    let worse = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if a_spread.max(b_spread) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric);
/// `Err` (non-zero exit) on a regression or a higher failure rate.
pub fn compare(a_text: &str, b_text: &str) -> Result<(), String> {
    let parse =
        |t: &str| serde_json::from_str::<JsonValue>(t).map_err(|e| format!("bad report: {e}"));
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let workloads = |v: &JsonValue| {
        v.get("workloads")
            .and_then(JsonValue::as_array)
            .map(<[_]>::to_vec)
    };
    let (wa, wb) = (
        workloads(&a).ok_or("A has no workloads")?,
        workloads(&b).ok_or("B has no workloads")?,
    );
    let mut bad = Vec::new();
    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for w in &wa {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let Some(other) = wb
            .iter()
            .find(|o| o.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            bad.push(format!("{name}: missing from B"));
            continue;
        };
        for def in &END_TO_END {
            let stat = |w: &JsonValue| {
                let m = w.get("end_to_end")?.get(def.name)?;
                Some((number(m.get("value"))?, number(m.get("spread"))?))
            };
            let (Some(sa), Some(sb)) = (stat(w), stat(other)) else {
                bad.push(format!("{name} {}: missing", def.name));
                continue;
            };
            let (delta, verdict) = judge(def.better, def.bound, sa, sb);
            println!(
                "{:<20} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}%  {}",
                name,
                def.name,
                sa.0,
                sb.0,
                delta * 100.0,
                def.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if verdict == Verdict::Regressed {
                bad.push(format!("{name} {}: {:+.1}%", def.name, delta * 100.0));
            }
        }
        let rate = |w: &JsonValue| {
            number(w.get("ops_failed")).unwrap_or(0.0)
                / number(w.get("ops_attempted")).unwrap_or(1.0).max(1.0)
        };
        if rate(other) > rate(w) {
            bad.push(format!(
                "{name}: failure rate rose from {} to {}",
                rate(w),
                rate(other)
            ));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("regressed: {}", bad.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> WorkloadReport {
        WorkloadReport {
            name: "offline_uniform",
            rows: 10,
            corpus_bytes: 100,
            corpus_fnv: 0xabc,
            hash: Some("00ff".into()),
            output_fnv: Some(7),
            attempted: 5,
            failed: 0,
            failures: vec![],
            end_to_end: vec![vec![1.0, 1.2, 1.1], vec![50.0, 50.5, 50.25], vec![0.25]],
            per_layer: (0..PER_LAYER.len()).map(|i| i as f64).collect(),
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let v: JsonValue = serde_json::from_str(&report().driver_line(trace)).unwrap();
            let keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = v.get("metrics").unwrap().as_object().unwrap();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                want
            );
        }
        let v: JsonValue = serde_json::from_str(&report().driver_line(false)).unwrap();
        let value = |name: &str| number(v.get("metrics").unwrap().get(name).unwrap().get("value"));
        assert_eq!(value("hash_out_s"), Some(1.1), "the median repetition");
        assert_eq!(value("peak_rss_mb"), Some(50.25));
    }

    #[test]
    fn judge_applies_bound_then_spread() {
        use Verdict::*;
        let tight = 0.01;
        assert_eq!(
            judge(Better::Lower, 0.05, (1.0, tight), (1.04, tight)).1,
            Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.05, (1.0, tight), (1.06, tight)).1,
            Regressed
        );
        assert_eq!(judge(Better::Lower, 0.05, (1.0, tight), (0.5, tight)).1, Ok);
        assert_eq!(
            judge(Better::Higher, 0.10, (100.0, tight), (89.0, tight)).1,
            Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, (100.0, tight), (120.0, tight)).1,
            Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.05, (1.0, 0.08), (1.01, tight)).1,
            Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.05, (1.0, 0.08), (1.2, tight)).1,
            Regressed
        );
    }

    #[test]
    fn compare_flags_regressions_and_failure_rates() {
        let base = run_json(42, 1.0, 1, 2, &[report()]);
        assert!(compare(&base, &base).is_ok());
        let mut slow = report();
        slow.end_to_end[0] = vec![1.4, 1.41, 1.42];
        let slow = run_json(42, 1.0, 1, 2, &[slow]);
        assert!(compare(&base, &slow).unwrap_err().contains("hash_out_s"));
        assert!(
            compare(&slow, &base).is_ok(),
            "an improvement is not a regression"
        );
        let mut failing = report();
        failing.failed = 1;
        let failing = run_json(42, 1.0, 1, 2, &[failing]);
        assert!(compare(&base, &failing)
            .unwrap_err()
            .contains("failure rate"));
    }
}
