//! HTTP load generator for pg-serve: N concurrent clients streaming
//! synthetic JSONL batches into their own live sessions, reporting
//! ingest latency percentiles and row throughput.
//!
//! Against an external server (CI smoke, manual runs):
//!
//! ```text
//! load_gen --addr 127.0.0.1:8686 --clients 2 --batches 5
//! ```
//!
//! Without `--addr` an in-process server is started on an ephemeral
//! port, loaded, and shut down — a self-contained benchmark run.
//!
//! 503 responses are retried honoring the server's `Retry-After` header.
//!
//! With `--connections N` the generator switches to *swarm* mode: one
//! shared session, N keep-alive connections held open simultaneously
//! (driven by `--clients` threads), each connection ingesting its
//! round-robin share of one deterministic graph in two phases (nodes,
//! then edges). `--verify-hash` re-discovers the same graph offline and
//! fails the run unless the server's schema hash is bit-identical —
//! under load, under backpressure, over N wires, the answer must not
//! change. `--out FILE` writes a machine-readable report
//! (`BENCH_serve.json` convention).

use pg_hive::serialize::content_hash_hex;
use pg_hive::{HiveConfig, PgHive};
use pg_serve::{Client, Server, ServerConfig};
use pg_store::jsonl::Element;
use pg_synth::{random_schema, synthesize, SchemaParams, SynthSpec};
use serde_json::JsonValue;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Opts {
    addr: Option<SocketAddr>,
    clients: usize,
    batches: usize,
    rows: usize,
    seed: u64,
    /// Swarm mode: number of simultaneous keep-alive connections
    /// (0 = classic per-client-session mode).
    connections: usize,
    verify_hash: bool,
    out: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        addr: None,
        clients: 4,
        batches: 20,
        rows: 200,
        seed: 42,
        connections: 0,
        verify_hash: false,
        out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--verify-hash" {
            opts.verify_hash = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", args[i]))?;
        match args[i].as_str() {
            "--addr" => {
                opts.addr = Some(value.parse().map_err(|_| format!("bad --addr {value:?}"))?)
            }
            "--clients" => opts.clients = parse_num(value, "--clients")?,
            "--batches" => opts.batches = parse_num(value, "--batches")?,
            "--batch-rows" => opts.rows = parse_num(value, "--batch-rows")?,
            "--seed" => opts.seed = parse_num(value, "--seed")? as u64,
            "--connections" => opts.connections = parse_num(value, "--connections")?,
            "--out" => opts.out = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if opts.verify_hash && opts.connections == 0 {
        return Err("--verify-hash requires --connections (swarm mode)".into());
    }
    if opts.clients == 0 || opts.batches == 0 || opts.rows == 0 {
        return Err("--clients, --batches, and --batch-rows must be at least 1".into());
    }
    Ok(opts)
}

fn parse_num(value: &str, flag: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag} must be an integer, got {value:?}"))
}

/// The JSONL bodies one client will post: nodes first, then edges, cut
/// into `batches` bodies of ~`rows` lines.
fn client_bodies(client_id: usize, opts: &Opts) -> Vec<String> {
    let seed = opts.seed ^ (client_id as u64).wrapping_mul(0x9e3779b97f4a7c15);
    let schema = random_schema(&SchemaParams::default(), seed);
    let target = opts.batches * opts.rows;
    let graph = synthesize(&SynthSpec::new(schema).sized_for(target), seed).graph;
    let mut lines: Vec<String> = graph
        .nodes()
        .map(|n| serde_json::to_string(&Element::Node(n.clone())).unwrap())
        .collect();
    lines.extend(
        graph
            .edges()
            .map(|e| serde_json::to_string(&Element::Edge(e.clone())).unwrap()),
    );
    lines
        .chunks(lines.len().div_ceil(opts.batches).max(1))
        .map(|c| c.join("\n"))
        .collect()
}

/// 503 retries per request in classic mode (`Client::post_with_retry`
/// sleeps the server's `Retry-After` between them).
const RETRIES: u32 = 4;

struct ClientReport {
    latencies: Vec<Duration>,
    rows: usize,
    errors: usize,
    final_hash: String,
}

fn run_client(addr: SocketAddr, client_id: usize, opts: &Opts, go: &Barrier) -> ClientReport {
    let bodies = client_bodies(client_id, opts);
    let session = format!("load-{client_id}");
    let mut client = Client::new(addr);
    let resp = client
        .post_with_retry(
            "/sessions",
            format!("{{\"name\":\"{session}\"}}").as_bytes(),
            RETRIES,
        )
        .expect("create session");
    assert!(
        resp.status == 201 || resp.status == 409,
        "creating {session}: {}",
        resp.text()
    );
    let path = format!("/sessions/{session}/ingest");
    let mut report = ClientReport {
        latencies: Vec::with_capacity(bodies.len()),
        rows: 0,
        errors: 0,
        final_hash: String::new(),
    };
    go.wait();
    for body in &bodies {
        let rows = body.lines().count();
        let started = Instant::now();
        match client.post_with_retry(&path, body.as_bytes(), RETRIES) {
            Ok(resp) if resp.status == 200 => {
                report.latencies.push(started.elapsed());
                report.rows += rows;
                if let Ok(v) = resp.json() {
                    if let Some(h) = v.get("hash").and_then(|h| h.as_str()) {
                        report.final_hash = h.to_owned();
                    }
                }
            }
            Ok(resp) => {
                report.errors += 1;
                eprintln!("{session}: HTTP {} — {}", resp.status, resp.text());
            }
            Err(e) => {
                report.errors += 1;
                eprintln!("{session}: {e}");
            }
        }
    }
    report
}

/// What one load run did, in either mode, normalized for the summary
/// printer and the `--out` report.
struct RunOutcome {
    mode: &'static str,
    rows: usize,
    errors: usize,
    latencies: Vec<Duration>,
    wall: Duration,
    /// `(label, hash)` pairs to print — one per session in classic
    /// mode, the single shared session in swarm mode.
    hashes: Vec<(String, String)>,
    /// One-shot offline discovery hash of the exact same graph
    /// (`--verify-hash`), for bit-identity comparison.
    offline_hash: Option<String>,
}

impl RunOutcome {
    /// Swarm bit-identity: true unless `--verify-hash` ran and the
    /// server's schema hash diverged from offline discovery.
    fn hash_ok(&self) -> bool {
        match &self.offline_hash {
            Some(offline) => self.hashes.iter().all(|(_, h)| h == offline),
            None => true,
        }
    }
}

/// Swarm mode: every connection ingests its round-robin share of ONE
/// graph into ONE session, nodes before edges (phase barrier) so no
/// edge ever references a node the server has not met. All
/// `connections` keep-alive connections are open simultaneously —
/// clients pool their connection across requests and both phases.
fn run_swarm(addr: SocketAddr, opts: &Opts) -> RunOutcome {
    let target = opts.connections * opts.batches * opts.rows;
    let schema = random_schema(&SchemaParams::default(), opts.seed);
    let graph = synthesize(
        &SynthSpec::new(schema).sized_for(target),
        opts.seed ^ 0x5eed,
    )
    .graph;
    let node_lines: Vec<String> = graph
        .nodes()
        .map(|n| serde_json::to_string(&Element::Node(n.clone())).unwrap())
        .collect();
    let edge_lines: Vec<String> = graph
        .edges()
        .map(|e| serde_json::to_string(&Element::Edge(e.clone())).unwrap())
        .collect();
    let deal = |lines: &[String]| -> Vec<Vec<String>> {
        let mut buckets: Vec<Vec<String>> = vec![Vec::new(); opts.connections];
        for (i, line) in lines.iter().enumerate() {
            buckets[i % opts.connections].push(line.clone());
        }
        buckets
            .into_iter()
            .map(|mine| {
                let chunk = mine.len().div_ceil(opts.batches).max(1);
                mine.chunks(chunk).map(|c| c.join("\n")).collect()
            })
            .collect()
    };
    let node_bodies = deal(&node_lines);
    let edge_bodies = deal(&edge_lines);

    let mut admin = Client::new(addr);
    let resp = admin
        .post("/sessions", br#"{"name":"swarm"}"#)
        .expect("create swarm session");
    assert!(
        resp.status == 201 || resp.status == 409,
        "creating swarm session: {}",
        resp.text()
    );

    // Deal connections across the driver threads; each connection is
    // its own pooled keep-alive Client.
    let threads = opts.clients.min(opts.connections).max(1);
    // One keep-alive connection plus its node-phase and edge-phase
    // batch bodies.
    type Conn = (Client, Vec<String>, Vec<String>);
    let mut per_thread: Vec<Vec<Conn>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, (nodes, edges)) in node_bodies.into_iter().zip(edge_bodies).enumerate() {
        per_thread[i % threads].push((Client::new(addr), nodes, edges));
    }

    let barrier = Arc::new(Barrier::new(threads));
    let wall = Instant::now();
    let reports: Vec<(Vec<Duration>, usize, usize)> = {
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|mut conns| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut latencies = Vec::new();
                    let (mut rows, mut errors) = (0usize, 0usize);
                    let mut post =
                        |client: &mut Client, body: &str, latencies: &mut Vec<Duration>| {
                            let n = body.lines().count();
                            let started = Instant::now();
                            match client.post_with_retry(
                                "/sessions/swarm/ingest",
                                body.as_bytes(),
                                10,
                            ) {
                                Ok(resp) if resp.status == 200 => {
                                    latencies.push(started.elapsed());
                                    rows += n;
                                }
                                Ok(resp) => {
                                    errors += 1;
                                    eprintln!("swarm: HTTP {} — {}", resp.status, resp.text());
                                }
                                Err(e) => {
                                    errors += 1;
                                    eprintln!("swarm: {e}");
                                }
                            }
                        };
                    barrier.wait();
                    for (client, nodes, _) in &mut conns {
                        for body in nodes.iter() {
                            post(client, body, &mut latencies);
                        }
                    }
                    // Every thread is past its node share before any
                    // edge goes on a wire; the connections stay open.
                    barrier.wait();
                    for (client, _, edges) in &mut conns {
                        for body in edges.iter() {
                            post(client, body, &mut latencies);
                        }
                    }
                    (latencies, rows, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|t| t.join().expect("swarm driver thread"))
            .collect()
    };
    let wall = wall.elapsed();

    let summary = admin
        .get("/sessions/swarm")
        .expect("fetch swarm summary")
        .json()
        .expect("swarm summary JSON");
    let server_hash = summary
        .get("hash")
        .and_then(|h| h.as_str())
        .unwrap_or_default()
        .to_owned();
    let offline_hash = opts.verify_hash.then(|| {
        let offline = PgHive::new(HiveConfig::default()).discover_graph(&graph);
        content_hash_hex(&offline.schema)
    });

    let mut latencies: Vec<Duration> = Vec::new();
    let (mut rows, mut errors) = (0usize, 0usize);
    for (l, r, e) in reports {
        latencies.extend(l);
        rows += r;
        errors += e;
    }
    latencies.sort();
    RunOutcome {
        mode: "swarm",
        rows,
        errors,
        latencies,
        wall,
        hashes: vec![("swarm".to_owned(), server_hash)],
        offline_hash,
    }
}

// The vendored `serde_json` has no `json!` macro; these keep the
// report assembly readable.
fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn report_json(opts: &Opts, outcome: &RunOutcome) -> JsonValue {
    let num = |n: usize| JsonValue::U64(n as u64);
    let float = JsonValue::F64;
    let text = |s: &str| JsonValue::Str(s.to_string());
    let wall_s = outcome.wall.as_secs_f64();
    let mut fields = vec![
        ("benchmark", text("load_gen")),
        ("mode", text(outcome.mode)),
        ("seed", JsonValue::U64(opts.seed)),
        ("connections", num(opts.connections.max(opts.clients))),
        ("driver_threads", num(opts.clients)),
        ("batches", num(opts.batches)),
        ("batch_rows", num(opts.rows)),
        ("rows_ingested", num(outcome.rows)),
        ("wall_s", float(wall_s)),
        ("rows_per_s", float(outcome.rows as f64 / wall_s.max(1e-9))),
        (
            "latency_ms",
            obj(vec![
                ("p50", float(ms(percentile(&outcome.latencies, 0.50)))),
                ("p95", float(ms(percentile(&outcome.latencies, 0.95)))),
                ("p99", float(ms(percentile(&outcome.latencies, 0.99)))),
                (
                    "max",
                    float(ms(outcome.latencies.last().copied().unwrap_or_default())),
                ),
            ]),
        ),
        ("http_errors", num(outcome.errors)),
        (
            "hashes",
            JsonValue::Object(
                outcome
                    .hashes
                    .iter()
                    .map(|(k, v)| (k.clone(), text(v)))
                    .collect(),
            ),
        ),
    ];
    if let Some(offline) = &outcome.offline_hash {
        fields.push(("offline_hash", text(offline)));
        fields.push(("hash_verified", JsonValue::Bool(outcome.hash_ok())));
    }
    obj(fields)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let mut opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "load_gen: {e}\nusage: load_gen [--addr ip:port] [--clients N] \
                 [--batches N] [--batch-rows N] [--seed N] \
                 [--connections N] [--verify-hash] [--out FILE]"
            );
            std::process::exit(2);
        }
    };
    // Thousands of simultaneous sockets need more than the default
    // soft RLIMIT_NOFILE — and the in-process server's accept loop
    // needs headroom too.
    pg_serve::raise_nofile_limit();

    // Either target the given server or bring up our own.
    let mut local: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)> = None;
    let addr = match opts.addr {
        Some(addr) => addr,
        None => {
            let flag = Arc::new(AtomicBool::new(false));
            let server = Server::bind(ServerConfig::default(), Arc::clone(&flag))
                .expect("bind in-process server");
            let addr = server.local_addr();
            let handle = std::thread::spawn(move || {
                server.run().expect("in-process server run");
            });
            local = Some((flag, handle));
            addr
        }
    };

    let outcome = if opts.connections > 0 {
        run_swarm(addr, &opts)
    } else {
        let go = Arc::new(Barrier::new(opts.clients));
        let shared = Arc::new(opts);
        let wall = Instant::now();
        let reports: Vec<ClientReport> = {
            let threads: Vec<_> = (0..shared.clients)
                .map(|id| {
                    let go = Arc::clone(&go);
                    let opts = Arc::clone(&shared);
                    std::thread::spawn(move || run_client(addr, id, &opts, &go))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        };
        let wall = wall.elapsed();
        let mut latencies: Vec<Duration> =
            reports.iter().flat_map(|r| r.latencies.clone()).collect();
        latencies.sort();
        let outcome = RunOutcome {
            mode: "sessions",
            rows: reports.iter().map(|r| r.rows).sum(),
            errors: reports.iter().map(|r| r.errors).sum(),
            latencies,
            wall,
            hashes: reports
                .iter()
                .enumerate()
                .map(|(id, r)| (format!("load-{id}"), r.final_hash.clone()))
                .collect(),
            offline_hash: None,
        };
        opts = Arc::try_unwrap(shared).unwrap_or_else(|_| panic!("opts still shared"));
        outcome
    };

    if opts.connections > 0 {
        println!(
            "pg-serve load_gen: swarm of {} keep-alive connections ({} driver threads) \
             x {} batches x ~{} rows (seed {})",
            opts.connections, opts.clients, opts.batches, opts.rows, opts.seed
        );
    } else {
        println!(
            "pg-serve load_gen: {} clients x {} batches x ~{} rows (seed {})",
            opts.clients, opts.batches, opts.rows, opts.seed
        );
    }
    println!("  target          {addr}");
    println!("  rows ingested   {}", outcome.rows);
    println!("  wall time       {:.2} s", outcome.wall.as_secs_f64());
    println!(
        "  throughput      {:.0} rows/s",
        outcome.rows as f64 / outcome.wall.as_secs_f64().max(1e-9)
    );
    println!(
        "  ingest latency  p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms   max {:.2} ms",
        ms(percentile(&outcome.latencies, 0.50)),
        ms(percentile(&outcome.latencies, 0.95)),
        ms(percentile(&outcome.latencies, 0.99)),
        ms(outcome.latencies.last().copied().unwrap_or_default()),
    );
    println!("  http errors     {}", outcome.errors);
    for (label, hash) in &outcome.hashes {
        println!("  session {label}: final hash {hash}");
    }
    if let Some(offline) = &outcome.offline_hash {
        if outcome.hash_ok() {
            println!("  hash verified   server == offline discovery ({offline})");
        } else {
            eprintln!(
                "  HASH MISMATCH   offline discovery says {offline}, server disagrees — \
                 the serving layer changed the answer"
            );
        }
    }

    if let Some(path) = &opts.out {
        let report = report_json(&opts, &outcome);
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, text + "\n").expect("write load report");
        println!("  report          {path}");
    }

    if let Some((flag, handle)) = local {
        flag.store(true, Ordering::SeqCst);
        handle.join().expect("server thread");
    }
    if outcome.errors > 0 || !outcome.hash_ok() {
        std::process::exit(1);
    }
}
