//! End-to-end repetitions: bytes in → verified schema hash out, through
//! the release `pg-hive` binary a user runs, tracing off. Every output
//! check is an operation: attempted, and failed with its command line
//! when it misses.

use crate::calibrate::Pacer;
use crate::child::{run_to_exit, with_rss_poll, Server, TempRoot};
use crate::workload::{fnv1a, Bodies, Corpus, Mode, Workload};
use pg_hive::{content_hash_hex, CheckpointStore};
use pg_model::SchemaGraph;
use pg_serve::Client;
use serde_json::JsonValue;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// 503 retries one request may spend before it counts as failed.
const MAX_RETRIES: u32 = 50;
/// The one shared session of the served workload.
const SESSION: &str = "bench";

/// Where a run finds the binary under test and puts its files.
pub struct Env {
    pub pg_hive: PathBuf,
    pub tmp: TempRoot,
    /// Divisor applied to every corpus size (`--quick` = 10).
    pub scale: usize,
    /// Timed repetitions a run makes at the least (`--quick` = 1).
    pub min_reps: usize,
}

/// Operations attempted and failed; each failure keeps its story.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count one checked operation; `what` is only rendered on a miss.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("FAILED: {what}");
            self.failures.push(what);
        }
        ok
    }
}

/// A discovered schema as the checks see it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub hash: String,
    pub node_types: usize,
    pub edge_types: usize,
}

impl Outcome {
    pub fn of(schema: &SchemaGraph) -> Outcome {
        Outcome {
            hash: content_hash_hex(schema),
            node_types: schema.node_types.len(),
            edge_types: schema.edge_types.len(),
        }
    }

    /// Parse `discover --format json` output. The repo's schema reader
    /// is quadratic in the type count (5 s for incremental_diverse's
    /// 1.7k types), so this stays out of every timed window and is only
    /// used on the uniform workloads' small schemas.
    pub fn parse(json: &str) -> Option<Outcome> {
        serde_json::from_str::<SchemaGraph>(json)
            .ok()
            .map(|s| Outcome::of(&s))
    }
}

/// Client-side numbers of the served workload (empty for CLI workloads).
#[derive(Debug, Default)]
pub struct ServedStats {
    pub post_ms: Vec<f64>,
    pub get_ms: Vec<f64>,
    pub requests: u64,
    pub http_503: u64,
    pub retries: u64,
    pub startup_ms: Vec<f64>,
    pub drain_ms: Vec<f64>,
    pub state_dir_bytes: Vec<f64>,
    /// Mean handler time of the ingest route, from the server's own
    /// `/metrics` (`request_duration_us` sum ÷ count).
    pub handler_mean_us: Vec<f64>,
}

/// Everything the timed repetitions of one workload produced.
#[derive(Debug, Default)]
pub struct E2e {
    /// One per timed repetition, in seconds at reference speed (see
    /// `calibrate.rs`).
    pub hash_out_s: Vec<f64>,
    /// The same repetitions as the clock read them.
    pub wall_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// The set-ups made between repetitions, at reference speed.
    pub setup_s: Vec<f64>,
    /// What every repetition handed back, byte for byte: the schema
    /// JSON `discover` wrote, or the hash the server reported.
    pub output: Option<String>,
    pub served: ServedStats,
}

fn display(cmd: &Command) -> String {
    let mut s = cmd.get_program().to_string_lossy().into_owned();
    for a in cmd.get_args() {
        s.push(' ');
        s.push_str(&a.to_string_lossy());
    }
    s
}

/// The `pg-hive discover` invocation of a CLI workload.
fn discover_command(env: &Env, mode: Mode, corpus: &Path, out: &Path, ckpt: &Path) -> Command {
    let mut args: Vec<OsString> = vec!["discover".into(), "--jsonl".into(), corpus.into()];
    let mut flag = |name: &str, value: OsString| args.extend([name.into(), value]);
    flag("--format", "json".into());
    flag("--out", out.into());
    match mode {
        Mode::OneShot | Mode::Served { .. } => {}
        Mode::Incremental {
            batches,
            checkpoint_every,
        } => {
            flag("--batches", batches.to_string().into());
            flag("--checkpoint-dir", ckpt.into());
            flag("--checkpoint-every", checkpoint_every.to_string().into());
        }
        Mode::Stream { batches } => {
            args.push("--stream".into());
            args.extend(["--batches".into(), batches.to_string().into()]);
        }
    }
    let mut cmd = Command::new(&env.pg_hive);
    cmd.args(args);
    cmd
}

/// Checkpoint sequence numbers `discover --batches b --checkpoint-every
/// e` leaves behind under the default retention.
pub fn expected_checkpoints(batches: usize, every: usize) -> Vec<u64> {
    let saves = (1..=batches)
        .filter(|i| i % every == 0 || *i == batches)
        .count() as u64;
    (saves.saturating_sub(CheckpointStore::DEFAULT_KEEP as u64)..saves).collect()
}

/// One `pg-hive discover` child: spawn → exit → schema file read back.
/// Returns `(hash_out_s, peak_rss_mb, schema JSON)`.
fn discover_once(
    env: &Env,
    mode: Mode,
    corpus: &Corpus,
    ledger: &mut Ledger,
) -> Option<(f64, f64, String)> {
    let dir = env.tmp.fresh("rep").ok()?;
    let (out, ckpt) = (dir.join("schema.json"), dir.join("ckpt"));
    let mut cmd = discover_command(env, mode, &corpus.path, &out, &ckpt);
    let start = Instant::now();
    let run = run_to_exit(&mut cmd);
    let json = std::fs::read_to_string(&out).ok().filter(|t| !t.is_empty());
    let hash_out_s = start.elapsed().as_secs_f64();

    let run = match run {
        Ok(run) => run,
        Err(e) => {
            ledger.check(false, || format!("spawning `{}`: {e}", display(&cmd)));
            return None;
        }
    };
    let ok = ledger.check(run.status.success() && json.is_some(), || {
        format!(
            "`{}` exited {:?} (schema written: {}): {}",
            display(&cmd),
            run.status.code(),
            json.is_some(),
            run.stderr.trim()
        )
    });
    if let Mode::Incremental {
        batches,
        checkpoint_every,
    } = mode
    {
        let found: Vec<u64> = CheckpointStore::open(&ckpt)
            .and_then(|s| s.list())
            .map(|l| l.into_iter().map(|(seq, _)| seq).collect())
            .unwrap_or_default();
        let want = expected_checkpoints(batches, checkpoint_every);
        ledger.check(found == want, || {
            format!(
                "`{}` left checkpoints {found:?}, expected {want:?}",
                display(&cmd)
            )
        });
    }
    ok.then(|| (hash_out_s, run.peak_rss_mb, json.expect("checked above")))
}

/// The reference computation a workload's output is held against: one
/// plain `pg-hive discover` of the same file.
pub fn reference(env: &Env, corpus: &Corpus, ledger: &mut Ledger) -> Option<Outcome> {
    let (_, _, json) = discover_once(env, Mode::OneShot, corpus, ledger)?;
    let parsed = Outcome::parse(&json);
    ledger.check(parsed.is_some(), || {
        format!(
            "the reference discover of {} wrote unreadable JSON",
            corpus.path.display()
        )
    });
    parsed
}

/// One keep-alive caller of the served workload.
struct Caller {
    client: Client,
    etag: Option<String>,
    rows_acked: u64,
    stats: ServedStats,
    errors: Vec<String>,
}

impl Caller {
    fn new(server: &Server) -> Caller {
        Caller {
            client: Client::new(server.addr).with_timeout(Duration::from_secs(60)),
            etag: None,
            rows_acked: 0,
            stats: ServedStats::default(),
            errors: Vec::new(),
        }
    }

    /// Closed loop: take the next unsent body, post it, wait for the
    /// ack; every `get_every`-th request reads the schema instead.
    fn pump(&mut self, bodies: &[String], next: &AtomicUsize, get_every: u64) {
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(body) = bodies.get(i) else { return };
            if self.stats.requests % get_every == get_every - 1 {
                self.get_schema();
            }
            self.post(body);
        }
    }

    fn post(&mut self, body: &str) {
        let path = format!("/sessions/{SESSION}/ingest");
        for _ in 0..=MAX_RETRIES {
            let start = Instant::now();
            let resp = self.client.post(&path, body.as_bytes());
            let ms = start.elapsed().as_secs_f64() * 1e3;
            self.stats.requests += 1;
            match resp {
                Ok(r) if r.status == 200 => {
                    self.stats.post_ms.push(ms);
                    let ack = r.json().ok();
                    let field = |name: &str| match ack.as_ref()?.get(name)? {
                        JsonValue::U64(n) => Some(*n),
                        _ => None,
                    };
                    match (field("nodes"), field("edges"), field("quarantined")) {
                        (Some(n), Some(e), Some(0)) => self.rows_acked += n + e,
                        other => self.errors.push(format!("POST {path}: bad ack {other:?}")),
                    }
                    return;
                }
                Ok(r) if r.status == 503 => {
                    self.stats.http_503 += 1;
                    self.stats.retries += 1;
                    let wait = r
                        .header("retry-after")
                        .and_then(|s| s.trim().parse::<u64>().ok())
                        .map_or(Duration::from_millis(100), Duration::from_secs);
                    std::thread::sleep(wait.min(Duration::from_secs(2)));
                }
                Ok(r) => {
                    self.errors
                        .push(format!("POST {path}: status {} {}", r.status, r.text()));
                    return;
                }
                Err(e) => {
                    self.errors.push(format!("POST {path}: {e}"));
                    return;
                }
            }
        }
        self.errors.push(format!("POST {path}: retries exhausted"));
    }

    fn get_schema(&mut self) {
        let path = format!("/sessions/{SESSION}/schema");
        let start = Instant::now();
        let resp = match self.etag.clone() {
            Some(tag) => self
                .client
                .get_with_headers(&path, &[("If-None-Match", &tag)]),
            None => self.client.get(&path),
        };
        self.stats.get_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.stats.requests += 1;
        match resp {
            Ok(r) if matches!(r.status, 200 | 304) && r.header("etag").is_some() => {
                self.etag = r.header("etag").map(str::to_owned);
            }
            Ok(r) => self.errors.push(format!(
                "GET {path}: status {} etag {:?}",
                r.status,
                r.header("etag")
            )),
            Err(e) => self.errors.push(format!("GET {path}: {e}")),
        }
    }
}

/// First sample line of a Prometheus text exposition whose name and
/// label text match.
pub fn metric_value(text: &str, name: &str, labels: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(series, _)| {
            series.strip_prefix(name).is_some_and(|rest| {
                (rest.is_empty() || rest.starts_with('{')) && rest.contains(labels)
            })
        })
        .and_then(|(_, v)| v.parse().ok())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One served repetition: fresh durable server, one session, the whole
/// corpus through `connections` closed-loop callers (node bodies, a
/// barrier, edge bodies), then the verified final hash.
fn serve_once(
    env: &Env,
    (connections, get_every): (usize, u64),
    corpus: &Corpus,
    expected: &Outcome,
    ledger: &mut Ledger,
    stats: &mut ServedStats,
) -> Option<(f64, f64)> {
    let state = env.tmp.fresh("state").ok()?;
    let server = match Server::start(&env.pg_hive, &state) {
        Ok(s) => s,
        Err(e) => {
            ledger.check(false, || e);
            return None;
        }
    };
    let what = format!(
        "{} serve --addr 127.0.0.1:0 --state-dir {}",
        env.pg_hive.display(),
        state.display()
    );
    let mut admin = Client::new(server.addr);
    let created = admin.post(
        "/sessions",
        format!("{{\"name\":\"{SESSION}\"}}").as_bytes(),
    );
    if !ledger.check(matches!(&created, Ok(r) if r.status == 201), || {
        format!("`{what}`: creating the session: {created:?}")
    }) {
        return None;
    }

    let mut callers: Vec<Caller> = (0..connections).map(|_| Caller::new(&server)).collect();
    let Bodies { nodes, edges } = &corpus.bodies;
    let start = Instant::now();
    let (summary, peak_rss_mb) = with_rss_poll(server.pid(), || {
        for phase in [nodes, edges] {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for caller in callers.iter_mut() {
                    s.spawn(|| caller.pump(phase, &next, get_every));
                }
            });
        }
        admin
            .get(&format!("/sessions/{SESSION}"))
            .and_then(|r| r.json())
    });
    let hash_out_s = start.elapsed().as_secs_f64();

    let mut rows_acked = 0;
    for c in &mut callers {
        rows_acked += c.rows_acked;
        stats.requests += c.stats.requests;
        stats.http_503 += c.stats.http_503;
        stats.retries += c.stats.retries;
        stats.post_ms.append(&mut c.stats.post_ms);
        stats.get_ms.append(&mut c.stats.get_ms);
    }
    let errors: Vec<String> = callers.iter().flat_map(|c| c.errors.clone()).collect();
    let mut ok = ledger.check(errors.is_empty(), || {
        format!(
            "`{what}`: {} request(s) failed, first: {}",
            errors.len(),
            errors[0]
        )
    });
    let hash = summary
        .as_ref()
        .ok()
        .and_then(|v| v.get("hash")?.as_str().map(str::to_owned));
    ok &= ledger.check(
        hash.as_deref() == Some(&expected.hash) && rows_acked == corpus.rows as u64,
        || {
            format!(
                "`{what}`: served hash {hash:?} over {rows_acked} acked rows, offline discover of {} gives {} over {} rows",
                corpus.path.display(),
                expected.hash,
                corpus.rows
            )
        },
    );

    if let Ok(text) = admin.get("/metrics").map(|r| r.text()) {
        let route = "route=\"/sessions/{id}/ingest\"";
        let sum = metric_value(&text, "pg_serve_request_duration_us_sum", route);
        let count = metric_value(&text, "pg_serve_request_duration_us_count", route);
        if let (Some(sum), Some(count)) = (sum, count) {
            stats.handler_mean_us.push(sum / count.max(1.0));
        }
        let kind = |k: &str| metric_value(&text, "pg_serve_session_elements_total", k);
        let elements = kind("kind=\"node\"")
            .zip(kind("kind=\"edge\""))
            .map(|(n, e)| n + e);
        ok &= ledger.check(elements == Some(corpus.rows as f64), || {
            format!(
                "`{what}`: /metrics counts {elements:?} elements, sent {}",
                corpus.rows
            )
        });
    }
    drop((admin, callers));
    stats.startup_ms.push(server.startup.as_secs_f64() * 1e3);
    let (drain, clean) = server.drain();
    stats.drain_ms.push(drain.as_secs_f64() * 1e3);
    stats.state_dir_bytes.push(dir_bytes(&state) as f64);
    ok &= ledger.check(clean, || {
        format!("`{what}`: SIGINT did not end in a clean exit 0")
    });
    ok.then_some((hash_out_s, peak_rss_mb))
}

/// Set-ups a run makes between repetitions, evenly over the measured
/// window, so that they see the same box the repetitions see.
pub const SETUPS_IN_WINDOW: usize = 6;

/// Repeat the workload's end-to-end operation — one discarded warm-up,
/// then timed repetitions for `seconds` of wall time (and at least
/// `env.min_reps`) — checking every output. `pacer` calibrates between
/// any two operations; `set_up_again` runs [`SETUPS_IN_WINDOW`] times over
/// the window and returns the wall time of its set-up.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    env: &Env,
    workload: &Workload,
    corpus: &Corpus,
    reference: Option<&Outcome>,
    seconds: f64,
    ledger: &mut Ledger,
    pacer: &mut Pacer,
    set_up_again: &mut dyn FnMut() -> Option<f64>,
) -> E2e {
    let mut e2e = E2e::default();
    let mut warm = true;
    let mut attempts = 0;
    let setup_every = seconds / SETUPS_IN_WINDOW as f64;
    let mut next_setup = setup_every;
    let mut window = Instant::now();
    while warm || window.elapsed().as_secs_f64() < seconds || e2e.hash_out_s.len() < env.min_reps {
        attempts += 1;
        if attempts > 3 && e2e.hash_out_s.is_empty() {
            break; // nothing works; the ledger says why
        }
        let mut scratch = ServedStats::default();
        let (rep, ran) = pacer.run(|| match workload.mode {
            Mode::Served {
                connections,
                get_every,
                ..
            } => {
                let expected = reference?;
                let stats = if warm { &mut scratch } else { &mut e2e.served };
                serve_once(
                    env,
                    (connections, get_every),
                    corpus,
                    expected,
                    ledger,
                    stats,
                )
                .map(|(s, rss)| (s, rss, expected.hash.clone()))
            }
            mode => discover_once(env, mode, corpus, ledger),
        });
        let wall_s = rep.as_ref().map_or(0.0, |r| r.0);
        let Some((_, rss, output)) = rep else {
            continue;
        };
        let first = e2e.output.get_or_insert_with(|| output.clone());
        ledger.check(*first == output, || {
            format!(
                "{}: schema changed between repetitions ({} then {} bytes, fnv {:016x} then {:016x})",
                workload.name,
                first.len(),
                output.len(),
                fnv1a(first.as_bytes()),
                fnv1a(output.as_bytes())
            )
        });
        if warm {
            warm = false;
            window = Instant::now();
            continue;
        }
        e2e.hash_out_s.push(pacer.at_reference_speed(wall_s, ran));
        e2e.wall_s.push(wall_s);
        e2e.peak_rss_mb.push(rss);
        if window.elapsed().as_secs_f64() >= next_setup {
            if let (Some(setup_wall_s), ran) = pacer.run(&mut *set_up_again) {
                e2e.setup_s
                    .push(pacer.at_reference_speed(setup_wall_s, ran));
            }
            next_setup += setup_every;
        }
    }
    if let (Mode::Stream { .. }, Some(offline), Some(json)) =
        (workload.mode, reference, &e2e.output)
    {
        let counts = |o: &Outcome| (o.node_types, o.edge_types);
        let stream = Outcome::parse(json).as_ref().map(counts);
        ledger.check(stream == Some(counts(offline)), || {
            format!(
                "{}: --stream found {stream:?} (node, edge) types, offline discover of the same file {:?}",
                workload.name,
                counts(offline)
            )
        });
    }
    e2e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_exposition_is_scraped_by_name_and_label() {
        let text = "# HELP pg_serve_requests_total Requests.\n\
                    pg_serve_uptime_seconds 12\n\
                    pg_serve_request_duration_us_sum{route=\"/sessions/{id}\"} 9\n\
                    pg_serve_request_duration_us_sum{route=\"/sessions/{id}/ingest\"} 1500\n\
                    pg_serve_request_duration_us_count{route=\"/sessions/{id}/ingest\"} 3\n\
                    pg_serve_session_elements_total{session=\"bench\",kind=\"node\"} 20000\n\
                    pg_serve_session_elements_total{session=\"bench\",kind=\"edge\"} 10000\n";
        let route = "route=\"/sessions/{id}/ingest\"";
        assert_eq!(
            metric_value(text, "pg_serve_request_duration_us_sum", route),
            Some(1500.0)
        );
        assert_eq!(
            metric_value(text, "pg_serve_request_duration_us_count", route),
            Some(3.0)
        );
        assert_eq!(
            metric_value(text, "pg_serve_session_elements_total", "kind=\"edge\""),
            Some(10000.0)
        );
        assert_eq!(
            metric_value(text, "pg_serve_uptime_seconds", ""),
            Some(12.0)
        );
        // A name that merely prefixes another series does not match it.
        assert_eq!(
            metric_value(text, "pg_serve_request_duration_us", route),
            None
        );
        assert_eq!(metric_value(text, "pg_serve_requests_total", ""), None);
    }

    #[test]
    fn expected_checkpoints_follow_cadence_and_retention() {
        assert_eq!(expected_checkpoints(16, 4), vec![1, 2, 3]);
        assert_eq!(expected_checkpoints(16, 8), vec![0, 1]);
        assert_eq!(expected_checkpoints(10, 4), vec![0, 1, 2]);
        assert_eq!(expected_checkpoints(1, 1), vec![0]);
    }

    #[test]
    fn ledger_counts_and_keeps_failures() {
        let mut l = Ledger::default();
        assert!(l.check(true, || unreachable!()));
        assert!(!l.check(false, || "cmd --flag: boom".into()));
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.failures, vec!["cmd --flag: boom".to_owned()]);
    }
}
