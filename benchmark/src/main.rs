//! The repo's benchmark: bytes in → schema hash out over the shipped
//! `pg-hive` binary, plus a traced per-layer replay. See README.md.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   (one workload; last stdout line is the result JSON)
//! benchmark run [--seed 42] [--seconds 20] [--workload NAME]… [--quick] [--out FILE] [--trace-out FILE]
//! benchmark compare A.json B.json
//! benchmark metrics                                             (the metric and workload tables, as markdown)
//! ```

mod calibrate;
mod child;
mod e2e;
mod metrics;
mod replay;
mod report;
mod stats;
mod workload;

use calibrate::Pacer;
use child::TempRoot;
use e2e::{Env, Ledger};
use metrics::{END_TO_END, PER_LAYER};
use replay::{Facts, Tracer, ROOT};
use report::WorkloadReport;
use stats::{median, supported_tail};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Corpus, Mode, Workload, WORKLOADS};

/// Share of a traced run's seconds spent on untraced child runs (they
/// anchor `cli.unattributed_ms` and the served client-side numbers).
const TRACE_CHILD_SHARE: f64 = 0.3;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workloads.push(workload::by_name(value).ok_or_else(|| {
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {value:?}; known: {known:?}")
            })?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => out.out = Some(value.into()),
            "--trace-out" => out.trace_out = Some(value.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

impl Args {
    /// The measured window; `BENCHMARK.json`'s `run_seconds` by default.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { 1.0 } else { 22.0 })
    }

    /// Where the binary under test is and how big the run is.
    fn env(&self) -> Result<Env, String> {
        Ok(Env {
            pg_hive: find_pg_hive()?,
            tmp: TempRoot::create().map_err(|e| format!("creating the temp root: {e}"))?,
            scale: if self.quick { 10 } else { 1 },
            min_reps: if self.quick { 1 } else { 3 },
        })
    }
}

/// The release `pg-hive` built beside this executable.
fn find_pg_hive() -> Result<PathBuf, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build of the harness; build with --release".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    if dir.file_name().and_then(|n| n.to_str()) != Some("release") {
        return Err(format!("{} is not a release directory", dir.display()));
    }
    let pg_hive = dir.join("pg-hive");
    if !pg_hive.is_file() {
        return Err(format!(
            "{} not found: cargo build --release -p pg-hive-cli into the same target dir (benchmark/run.sh does)",
            pg_hive.display()
        ));
    }
    Ok(pg_hive)
}

fn facts_must_repeat(first: &Facts, again: &Facts, what: &str, ledger: &mut Ledger) {
    fn exact(f: &Facts) -> (u64, &Option<e2e::Outcome>, [u64; 5]) {
        let counts = [
            f.decode_records,
            f.batches,
            f.node_fingerprints,
            f.edge_fingerprints,
            f.checkpoint_bytes,
        ];
        (workload::fnv1a(f.output.as_bytes()), &f.outcome, counts)
    }
    ledger.check(exact(first) == exact(again), || {
        format!(
            "{what}: output or exact counts changed between replays: {:?} then {:?}",
            exact(first),
            exact(again)
        )
    });
}

/// The traced replay of one workload, cycled for `seconds`: traced,
/// untraced, and traced single-threaded repetitions in turn.
struct Replays {
    traced: Tracer,
    single: Tracer,
    untraced_ms: Vec<f64>,
    facts: Facts,
}

fn replay_for(
    env: &Env,
    w: &Workload,
    corpus: &Corpus,
    seconds: f64,
    ledger: &mut Ledger,
) -> Option<Replays> {
    let dir = env.tmp.path().join("replay");
    let run = |t: &mut Tracer, threads: usize| {
        let dir = env.tmp.fresh("replay").map_err(|e| e.to_string())?;
        match w.mode {
            Mode::Served { .. } => replay::replay_served(t, &corpus.bodies, &dir, threads),
            mode => replay::replay_cli(t, mode, &corpus.path, &dir, threads),
        }
    };
    let (mut traced, mut single) = (Tracer::new(), Tracer::new());
    let mut untraced_ms = Vec::new();
    let mut facts: Option<Facts> = None;
    let start = Instant::now();
    while facts.is_none() || start.elapsed().as_secs_f64() < seconds {
        let (plain, wall) = replay::untraced(&mut traced, |t| run(t, 0));
        untraced_ms.push(wall.as_secs_f64() * 1e3);
        for (variant, result) in [
            ("traced replay", run(&mut traced, 0)),
            ("untraced replay", plain),
            ("single-threaded replay", run(&mut single, 1)),
        ] {
            let what = format!("{} {variant} in {}", w.name, dir.display());
            match result {
                Ok(f) => {
                    let first = facts.get_or_insert_with(|| f.clone());
                    facts_must_repeat(first, &f, &what, ledger);
                }
                Err(e) => {
                    ledger.check(false, || format!("{what}: {e}"));
                    return None;
                }
            }
        }
    }
    Some(Replays {
        traced,
        single,
        untraced_ms,
        facts: facts.expect("the loop ran once"),
    })
}

/// Values for every [`PER_LAYER`] metric, in table order. A layer that
/// did no work on this workload reads 0. Times are wall times of the
/// fastest traced repetition, held against the fastest child repetition
/// (`box.wall_floor_s`), so the stages belong to one execution.
fn per_layer_values(
    w: &Workload,
    corpus: &Corpus,
    e2e: &e2e::E2e,
    r: &Replays,
    calibrations: &[f64],
) -> Vec<f64> {
    let t = &r.traced;
    let fastest = t.fastest_rep().unwrap_or(0);
    let span = |name: &str| t.rep_ms(fastest, name);
    let served = matches!(w.mode, Mode::Served { .. });
    let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let wall_ms = floor(&e2e.wall_s) * 1e3;
    let reps = e2e.wall_s.len().max(1) as f64;
    let top_level = t.rep_top_level_ms(fastest);
    let root = span(ROOT);
    let decode_ms = span("store.decode");
    let embed = span("embed.sentences") + span("embed.train");
    let (tn, t1) = (
        span("core.process_batch"),
        r.single
            .rep_ms(r.single.fastest_rep().unwrap_or(0), "core.process_batch"),
    );
    let tail = supported_tail(&e2e.served.post_ms);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let outcome = r.facts.outcome.as_ref();

    let value = |name: &str| -> f64 {
        match name {
            "synth.generate_ms" => corpus.generate_s * 1e3,
            "synth.write_ms" => corpus.write_s * 1e3,
            "synth.corpus_bytes" => corpus.bytes as f64,
            "cli.read_file_ms" => span("cli.read_file"),
            "cli.write_out_ms" => span("cli.write_out"),
            "cli.teardown_ms" => span("cli.teardown"),
            "cli.unattributed_ms" if !served => wall_ms - top_level,
            "store.decode_ms" => decode_ms,
            "store.decode_mb_per_s" if decode_ms > 0.0 => {
                r.facts.decode_bytes as f64 / 1e6 / (decode_ms / 1e3)
            }
            "store.decode_records" => r.facts.decode_records as f64,
            "store.load_ms" => span("store.load"),
            "embed.sentences_ms" => span("embed.sentences"),
            "embed.train_ms" => span("embed.train"),
            "core.process_batch_ms" => tn,
            "core.featurize_ms" => span("core.featurize"),
            "core.featurize_self_ms" => span("core.featurize") - embed,
            "core.cluster_ms" => span("core.cluster"),
            "core.extract_ms" => span("core.extract"),
            "core.post_ms" => span("core.post"),
            "core.finish_ms" => span("core.finish"),
            "core.serialize_ms" => span("core.serialize"),
            "core.batches" => r.facts.batches as f64,
            "core.node_fingerprints" => r.facts.node_fingerprints as f64,
            "core.edge_fingerprints" => r.facts.edge_fingerprints as f64,
            "core.dedup_ratio" => r.facts.dedup_ratio(),
            "core.node_types" => outcome.map_or(0.0, |o| o.node_types as f64),
            "core.edge_types" => outcome.map_or(0.0, |o| o.edge_types as f64),
            "core.process_batch_t1_ms" => t1,
            "core.parallel_speedup" if tn > 0.0 => t1 / tn,
            "core.checkpoint_encode_ms" => span("core.checkpoint_encode"),
            "core.checkpoint_save_ms" => span("core.checkpoint_save"),
            "core.checkpoint_bytes" => r.facts.checkpoint_bytes as f64,
            "core.accum_bytes" => r.facts.accum_bytes as f64,
            "server.ingest_p50_ms" => median(&e2e.served.post_ms),
            "server.ingest_tail_ms" => tail.map_or_else(|| max(&e2e.served.post_ms), |(_, v)| v),
            "server.ingest_tail_pct" if served => tail.map_or(100.0, |(p, _)| p),
            "server.ingest_max_ms" => max(&e2e.served.post_ms),
            "server.schema_get_p50_ms" => median(&e2e.served.get_ms),
            "server.schema_get_max_ms" => max(&e2e.served.get_ms),
            "server.requests" => e2e.served.requests as f64 / reps,
            "server.http_503" => e2e.served.http_503 as f64 / reps,
            "server.retries" => e2e.served.retries as f64 / reps,
            "server.handler_mean_us" => median(&e2e.served.handler_mean_us),
            "server.startup_ms" => median(&e2e.served.startup_ms),
            "server.drain_ms" => median(&e2e.served.drain_ms),
            "server.state_dir_bytes" => median(&e2e.served.state_dir_bytes),
            "server.head_parse_us" => span("server.head_parse") * 1e3,
            "server.engine_ms" if served => root,
            "server.ingest_self_ms" => t.rep_self_ms(fastest, "server.ingest"),
            "server.engine_share" if served && wall_ms > 0.0 => root / wall_ms,
            "trace.replay_total_ms" => root,
            "trace.overhead_ms" => root - floor(&r.untraced_ms),
            "trace.spans" => t.spans.len() as f64 / f64::from(t.reps().max(1)),
            "box.wall_median_s" => median(&e2e.wall_s),
            "box.wall_floor_s" => wall_ms / 1e3,
            "box.calibration_ms" => median(calibrations) * 1e3,
            _ => 0.0,
        }
    };
    PER_LAYER.iter().map(|def| value(def.name)).collect()
}

/// Set up, check and measure one workload. `replay_seconds` adds the
/// traced replay and the per-layer values.
fn run_workload(
    env: &Env,
    w: &'static Workload,
    seed: u64,
    e2e_seconds: f64,
    replay_seconds: Option<f64>,
    trace_out: &mut String,
) -> Result<(WorkloadReport, u64), String> {
    eprintln!("== {}: {}", w.name, w.why);
    let mut ledger = Ledger::default();
    // Corpus fnv of every set-up of the run: one now, and
    // `e2e::SETUPS_IN_WINDOW` more between the repetitions.
    let mut fnvs: Vec<u64> = Vec::new();
    let mut set_up = || {
        let c = workload::generate(w, seed, env.scale, env.tmp.path())
            .map_err(|e| format!("writing the {} corpus: {e}", w.name))?;
        fnvs.push(c.fnv);
        Ok::<_, String>(c)
    };
    let mut pacer = Pacer::start();
    let (corpus, ran) = pacer.run(&mut set_up);
    let corpus = corpus?;
    let first_setup_s = pacer.at_reference_speed(corpus.setup_s(), ran);
    eprintln!(
        "   corpus: {} rows, {} bytes, fnv {:016x}",
        corpus.rows, corpus.bytes, corpus.fnv
    );

    let reference = match w.mode {
        Mode::Stream { .. } | Mode::Served { .. } => e2e::reference(env, &corpus, &mut ledger),
        Mode::OneShot | Mode::Incremental { .. } => None,
    };
    let mut setup_error = None;
    let e2e = e2e::measure(
        env,
        w,
        &corpus,
        reference.as_ref(),
        e2e_seconds,
        &mut ledger,
        &mut pacer,
        &mut || match set_up() {
            Ok(c) => Some(c.setup_s()),
            Err(e) => {
                setup_error = Some(e);
                None
            }
        },
    );
    if let Some(e) = setup_error {
        return Err(e);
    }
    eprintln!(
        "   as the clock read it: repetitions median {:.4} s, calibrations median {:.1} ms over {} (reference {:.0} ms)",
        median(&e2e.wall_s),
        median(&pacer.calibrations()) * 1e3,
        pacer.calibrations().len(),
        calibrate::REFERENCE_S * 1e3
    );
    ledger.check(fnvs.iter().all(|fnv| *fnv == corpus.fnv), || {
        format!(
            "{}: seed {seed} did not draw the same corpus at every set-up",
            w.name
        )
    });

    let mut per_layer = Vec::new();
    let mut engine_threads = 0;
    let mut hash = None;
    if let (Some(seconds), Some(child)) = (replay_seconds, &e2e.output) {
        if let Some(replays) = replay_for(env, w, &corpus, seconds, &mut ledger) {
            let ours = &replays.facts.output;
            ledger.check(ours == child, || {
                format!(
                    "{}: the replay's output ({} bytes, fnv {:016x}) is not the child process's ({} bytes, fnv {:016x})",
                    w.name,
                    ours.len(),
                    workload::fnv1a(ours.as_bytes()),
                    child.len(),
                    workload::fnv1a(child.as_bytes())
                )
            });
            hash = replays.facts.outcome.as_ref().map(|o| o.hash.clone());
            engine_threads = replays.facts.resolved_threads;
            per_layer = per_layer_values(w, &corpus, &e2e, &replays, &pacer.calibrations());
            trace_out.push_str(&replays.traced.to_jsonl(w.name));
        }
    }
    if replay_seconds.is_some() && per_layer.is_empty() {
        per_layer = vec![0.0; PER_LAYER.len()];
    }
    let end_to_end = END_TO_END
        .iter()
        .map(|def| match def.name {
            "hash_out_s" => e2e.hash_out_s.clone(),
            "peak_rss_mb" => e2e.peak_rss_mb.clone(),
            "setup_s" => std::iter::once(first_setup_s)
                .chain(e2e.setup_s.iter().copied())
                .collect(),
            other => unreachable!("no samples for end-to-end metric {other}"),
        })
        .collect();
    let report = WorkloadReport {
        name: w.name,
        rows: corpus.rows,
        corpus_bytes: corpus.bytes,
        corpus_fnv: corpus.fnv,
        hash,
        output_fnv: e2e.output.as_deref().map(|o| workload::fnv1a(o.as_bytes())),
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        end_to_end,
        per_layer,
    };
    Ok((report, engine_threads))
}

fn write_spans(args: &Args, spans: &str) -> Result<(), String> {
    match &args.trace_out {
        Some(path) => {
            std::fs::write(path, spans).map_err(|e| format!("writing {}: {e}", path.display()))
        }
        None => Ok(()),
    }
}

/// The vocabulary as markdown: what README.md's tables are pasted from.
fn print_metrics() {
    println!("| workload | elements | why |\n|---|---|---|");
    for w in &WORKLOADS {
        println!("| `{}` | {} | {} |", w.name, w.elements, w.why);
    }
    println!("\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|");
    for m in &END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0} % |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("\n| per-layer metric | unit | better | moves which end-to-end metric, where |\n|---|---|---|---|");
    for m in &PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &argv[1..] else {
                return Err("usage: benchmark compare A.json B.json".into());
            };
            let read =
                |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
            report::compare(&read(a)?, &read(b)?)?;
            Ok(true)
        }
        Some("metrics") => {
            print_metrics();
            Ok(true)
        }
        Some("run") => {
            let mut args = parse_args(&argv[1..])?;
            if args.workloads.is_empty() {
                args.workloads = WORKLOADS.iter().collect();
            }
            let (env, seconds) = (args.env()?, args.seconds());
            let mut reports = Vec::new();
            let mut threads = 0;
            let mut spans = String::new();
            for w in &args.workloads {
                let (report, t) =
                    run_workload(&env, w, args.seed, seconds, Some(seconds), &mut spans)?;
                report.print_table();
                threads = threads.max(t);
                reports.push(report);
            }
            write_spans(&args, &spans)?;
            let json = report::run_json(args.seed, seconds, env.scale, threads, &reports);
            if let Some(path) = &args.out {
                std::fs::write(path, &json)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
            Ok(reports.iter().all(|r| r.failed == 0))
        }
        _ => {
            let args = parse_args(&argv)?;
            let (&[w], Some(trace)) = (&args.workloads[..], args.trace) else {
                return Err("usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 | run … | compare A B".into());
            };
            let (env, seconds) = (args.env()?, args.seconds());
            let (e2e_seconds, replay_seconds) = if trace {
                (
                    seconds * TRACE_CHILD_SHARE,
                    Some(seconds * (1.0 - TRACE_CHILD_SHARE)),
                )
            } else {
                (seconds, None)
            };
            let mut spans = String::new();
            let (report, _) =
                run_workload(&env, w, args.seed, e2e_seconds, replay_seconds, &mut spans)?;
            write_spans(&args, &spans)?;
            // The driver reads failures from the result line, not the
            // exit code: a printed result always exits 0.
            report.print_summaries();
            println!("{}", report.driver_line(trace));
            Ok(true)
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        // The result line is printed; the failures are on stderr.
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
