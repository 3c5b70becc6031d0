//! The traced replay: the harness calls each layer's public functions
//! itself, on the same bytes and in the order `commands.rs` (CLI) and
//! `registry.rs` (server) call them, with a span around every call. It
//! proves by schema-hash equality that it ran the child processes'
//! computation, and it never feeds the end-to-end numbers.

use crate::e2e::Outcome;
use crate::workload::{Bodies, Mode};
use pg_embed::{build_sentences, Word2Vec};
use pg_hive::{serialize, BatchTiming, CheckpointStore, EmbeddingKind, HiveConfig, HiveSession};
use pg_model::LabelSet;
use pg_serve::registry::IngestFailure;
use pg_serve::{HeadParser, Registry, RegistryConfig, SessionSpec};
use pg_store::jsonl::{read_jsonl_elements_with, Element};
use pg_store::{EdgeRecord, ErrorPolicy, GraphBatch, JsonlDecoder, NodeRecord};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// `BATCH_SPLIT_SALT` of `crates/cli/src/commands.rs` (private there):
/// the batch split `discover --batches` derives from its seed.
const BATCH_SPLIT_SALT: u64 = 0xba7c4;
/// `pg-hive discover`'s default `--seed`.
const CLI_SEED: u64 = 42;
/// The server's default checkpoint cadence (`SessionSpec::default`).
const SERVED_CHECKPOINT_EVERY: usize = 8;

/// Root span of the pipeline a child process runs; its children are the
/// top-level stages that must add up to the end-to-end time.
pub const ROOT: &str = "replay";
/// Root span of calls repeated outside the pipeline to time a layer the
/// pipeline only reaches through another (`embed.*` inside featurize).
pub const SIDE: &str = "side";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// In-memory span recorder. Disabled, it records nothing and `span` is
/// a plain call — the untraced side of the tracing-overhead comparison.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            enabled: true,
        }
    }

    /// Repetitions recorded so far.
    pub fn reps(&self) -> u32 {
        self.rep
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record stages a call timed itself (`BatchTiming`) as consecutive
    /// children of the span that just closed around it.
    fn stages(&mut self, parent_name: &'static str, stages: &[(&'static str, Duration)]) {
        if !self.enabled {
            return;
        }
        let parent = self
            .spans
            .iter()
            .rposition(|s| s.name == parent_name)
            .expect("stages follow the span they belong to");
        let mut at = self.spans[parent].start_ns;
        for &(name, dur) in stages {
            let end = at + dur.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                rep: self.rep,
            });
            at = end;
        }
    }

    /// The completed repetition whose [`ROOT`] spans are shortest. Every
    /// per-layer time is read from this one repetition, so the stages
    /// add up to its root and a slow phase of the box that covered other
    /// repetitions does not leak into the ledger.
    pub fn fastest_rep(&self) -> Option<u32> {
        (0..self.rep).min_by(|a, b| self.rep_ms(*a, ROOT).total_cmp(&self.rep_ms(*b, ROOT)))
    }

    /// Time `name` took in repetition `rep` (ms, summed over its spans).
    pub fn rep_ms(&self, rep: u32, name: &str) -> f64 {
        self.sum(rep, |s| s.name == name, |i| ms(&self.spans[i]))
    }

    /// Self time of `name` in repetition `rep`: duration minus the part
    /// its children cover.
    pub fn rep_self_ms(&self, rep: u32, name: &str) -> f64 {
        self.sum(
            rep,
            |s| s.name == name,
            |i| self_ns(&self.spans, i) as f64 / 1e6,
        )
    }

    /// Σ direct children of the [`ROOT`] spans of repetition `rep` — the
    /// attributed part of the pipeline.
    pub fn rep_top_level_ms(&self, rep: u32) -> f64 {
        self.sum(
            rep,
            |s| s.parent.is_some_and(|p| self.spans[p].name == ROOT),
            |i| ms(&self.spans[i]),
        )
    }

    fn sum(&self, rep: u32, pick: impl Fn(&Span) -> bool, value: impl Fn(usize) -> f64) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rep == rep && pick(s))
            .map(|(i, _)| value(i))
            .sum()
    }

    /// The spans as JSON lines, for `--trace-out`. `parent` is an index
    /// into the same workload's lines.
    pub fn to_jsonl(&self, workload: &str) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{}}}\n",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.rep
                )
            })
            .collect()
    }
}

fn ms(s: &Span) -> f64 {
    (s.end_ns - s.start_ns) as f64 / 1e6
}

/// Duration of span `idx` minus the union of its children's intervals,
/// clipped to the span.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, me.start_ns);
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Counts a replay observed. All but the byte gauges must repeat
/// bit-for-bit across repetitions, thread counts and tracing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Facts {
    /// What the child process hands back for the same input: the schema
    /// JSON (CLI) or the session's hash (served).
    pub output: String,
    pub outcome: Option<Outcome>,
    pub decode_records: u64,
    pub decode_bytes: u64,
    pub batches: u64,
    pub node_fingerprints: u64,
    pub edge_fingerprints: u64,
    /// Records that reached the clustering hot path (Σ over batches).
    pub hot_records: u64,
    pub checkpoint_bytes: u64,
    pub accum_bytes: u64,
    pub resolved_threads: u64,
}

impl Facts {
    fn absorb(&mut self, t: &BatchTiming) {
        self.batches += 1;
        self.node_fingerprints += t.node_dedup.distinct as u64;
        self.edge_fingerprints += t.edge_dedup.distinct as u64;
        self.hot_records += (t.node_dedup.records + t.edge_dedup.records) as u64;
        self.resolved_threads = t.threads as u64;
    }

    /// Records per distinct fingerprint: useful work ÷ attempts.
    pub fn dedup_ratio(&self) -> f64 {
        let distinct = self.node_fingerprints + self.edge_fingerprints;
        if distinct == 0 {
            1.0
        } else {
            self.hot_records as f64 / distinct as f64
        }
    }
}

fn batch_stages(t: &BatchTiming) -> [(&'static str, Duration); 4] {
    [
        ("core.featurize", t.preprocess),
        ("core.cluster", t.cluster),
        ("core.extract", t.extract),
        ("core.post", t.post.unwrap_or_default()),
    ]
}

/// `embed.*` timed directly on one batch's records, as
/// `FeatureSpace::build` calls them.
fn embed_side(t: &mut Tracer, config: &HiveConfig, nodes: &[NodeRecord], edges: &[EdgeRecord]) {
    let EmbeddingKind::Word2Vec(cfg) = &config.embedding else {
        return;
    };
    let sentences = t.span("embed.sentences", |_| build_sentences(nodes, edges));
    t.span("embed.train", |_| {
        std::hint::black_box(Word2Vec::train(&sentences, cfg));
    });
}

/// Replay one `pg-hive discover` invocation in-process. `threads` is the
/// engine thread count (0 = the CLI's default).
pub fn replay_cli(
    t: &mut Tracer,
    mode: Mode,
    corpus: &Path,
    dir: &Path,
    threads: usize,
) -> Result<Facts, String> {
    let mut facts = Facts::default();
    let config = HiveConfig {
        stream: matches!(mode, Mode::Stream { .. }).then(pg_hive::StreamConfig::default),
        threads,
        ..HiveConfig::default()
    }
    .with_seed(CLI_SEED);
    let (batches, checkpoint_every) = match mode {
        Mode::Incremental {
            batches,
            checkpoint_every,
        } => (batches, Some(checkpoint_every)),
        Mode::Stream { batches } => (batches, None),
        Mode::OneShot | Mode::Served { .. } => (1, None),
    };
    let store = match checkpoint_every {
        Some(_) => Some(CheckpointStore::open(dir.join("ckpt")).map_err(|e| e.to_string())?),
        None => None,
    };

    let (batch_list, rest) = t.span(ROOT, |t| -> Result<_, String> {
        let text = t
            .span("cli.read_file", |_| std::fs::read_to_string(corpus))
            .map_err(|e| format!("reading {}: {e}", corpus.display()))?;
        facts.decode_bytes = text.len() as u64;
        let (graph, _) = t
            .span("store.decode", |_| {
                pg_store::jsonl::from_jsonl_with_policy(&text, ErrorPolicy::Strict)
            })
            .map_err(|e| format!("parsing {}: {e}", corpus.display()))?;
        facts.decode_records = (graph.node_count() + graph.edge_count()) as u64;
        let batch_list: Vec<GraphBatch> = t.span("store.load", |_| {
            if batches > 1 {
                pg_store::split_batches(&graph, batches, CLI_SEED ^ BATCH_SPLIT_SALT)
            } else {
                let (nodes, edges) = pg_store::load(&graph);
                vec![GraphBatch { nodes, edges }]
            }
        });

        let mut session = HiveSession::new(config.clone());
        let mut accum_mid = 0;
        for (i, batch) in batch_list.iter().enumerate() {
            let timing = t.span("core.process_batch", |_| session.process_graph_batch(batch));
            t.stages("core.process_batch", &batch_stages(&timing));
            facts.absorb(&timing);
            if let (Some(store), Some(every)) = (&store, checkpoint_every) {
                let ckpt = t.span("core.checkpoint_encode", |_| session.checkpoint());
                if (i + 1) % every == 0 || i + 1 == batch_list.len() {
                    let path = t
                        .span("core.checkpoint_save", |_| store.save(&ckpt))
                        .map_err(|e| e.to_string())?;
                    facts.checkpoint_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                }
            }
            if i + 1 == batch_list.len() / 2 {
                accum_mid = session.memory_stats().accum_bytes;
            }
        }
        let mem = session.memory_stats();
        facts.accum_bytes = mem.accum_bytes as u64;
        // Bounded memory is stream mode's contract: once every type's
        // sketches have filled (`distinct_k` records each by the
        // half-way batch), the second half of the input may not grow the
        // accumulators the way exact mode's per-record lists do (those
        // double).
        if let Some(stream) = &config.stream {
            let types = session.schema().node_types.len() + session.schema().edge_types.len();
            let filled = facts.decode_records as usize / 2 >= types * stream.distinct_k;
            if filled && mem.accum_bytes * 2 > accum_mid * 3 {
                return Err(format!(
                    "stream accumulators grew from {accum_mid} B at the half-way batch to {} B",
                    mem.accum_bytes
                ));
            }
        }

        let result = t.span("core.finish", |_| session.finish());
        let json = t.span("core.serialize", |_| serialize::to_json(&result.schema));
        t.span("cli.write_out", |_| {
            std::fs::write(dir.join("replay.json"), &json)
        })
        .map_err(|e| format!("writing the replay schema: {e}"))?;
        Ok((batch_list, (text, graph, result, json)))
    })?;
    facts.outcome = Some(Outcome::of(&rest.2.schema));
    facts.output.clone_from(&rest.3);

    if t.enabled {
        t.span(SIDE, |t| {
            for b in &batch_list {
                embed_side(t, &config, &b.nodes, &b.edges);
            }
        });
    }
    // The CLI frees all of this too before it exits; the checks and the
    // side spans needed it first, so the teardown gets a root span of
    // its own.
    t.span(ROOT, |t| {
        t.span("cli.teardown", |_| drop((batch_list, rest)))
    });
    t.rep += u32::from(t.enabled);
    Ok(facts)
}

/// The request head `pg_serve::Client` sends ahead of an ingest body.
fn ingest_head(body_len: usize) -> String {
    format!(
        "POST /sessions/bench/ingest HTTP/1.1\r\nHost: pg-serve\r\nContent-Length: {body_len}\r\n\r\n"
    )
}

/// Replay the served workload's engine work with no socket: the same
/// bodies, nodes then edges, through a durable `LiveSession` (decode →
/// `SharedSession::ingest` → cadence checkpoint), as the router does.
pub fn replay_served(
    t: &mut Tracer,
    bodies: &Bodies,
    dir: &Path,
    threads: usize,
) -> Result<Facts, String> {
    let mut facts = Facts::default();
    // The replay fires the cadence itself so the checkpoint gets its own
    // span; the session must not also fire it.
    let spec = SessionSpec {
        threads: threads as u64,
        checkpoint_every: 0,
        ..SessionSpec::default()
    };
    let config = spec.hive_config();
    let (live, _registry) = t.span(ROOT, |t| -> Result<_, String> {
        let (registry, _) = Registry::open(RegistryConfig {
            state_dir: Some(dir.join("state")),
            ..RegistryConfig::default()
        });
        let live = registry
            .create("bench", spec)
            .map_err(|e| format!("creating the replay session: {e:?}"))?;
        for (i, body) in bodies.iter().enumerate() {
            let report = t
                .span("server.ingest", |_| live.ingest_jsonl(body.as_bytes()))
                .map_err(|e| match e {
                    IngestFailure::Parse(e) => format!("replay ingest of body {i}: {e}"),
                    IngestFailure::Session(e) => format!("replay ingest of body {i}: {e}"),
                })?;
            let timing = report.outcome.timing;
            t.stages("server.ingest", &[("core.process_batch", timing.total)]);
            t.stages("core.process_batch", &batch_stages(&timing));
            facts.absorb(&timing);
            facts.decode_records += (report.outcome.nodes + report.outcome.edges) as u64;
            if (i + 1) % SERVED_CHECKPOINT_EVERY == 0 {
                t.span("core.checkpoint_save", |_| live.persist())?;
            }
        }
        // The drain's final checkpoint.
        t.span("core.checkpoint_save", |_| live.persist())?;
        Ok((live, registry))
    })?;
    facts.output = live.handle().version_info().1;
    facts.outcome = Some(Outcome::of(&live.handle().schema()));
    facts.accum_bytes = live.handle().memory_stats().accum_bytes as u64;
    facts.decode_bytes = bodies.iter().map(|b| b.len() as u64).sum();
    facts.checkpoint_bytes = newest_checkpoint_bytes(&dir.join("state/bench/ckpt"));

    if t.enabled {
        t.span(SIDE, |t| {
            t.span("server.head_parse", |_| {
                for body in bodies.iter() {
                    let head = ingest_head(body.len());
                    let parsed = HeadParser::new().feed(head.as_bytes());
                    assert!(
                        matches!(parsed, Ok((_, Some(_)))),
                        "the client's head parses"
                    );
                }
            });
            // One session-lifetime decoder, as `LiveSession` keeps.
            let mut decoder = JsonlDecoder::new();
            let mut labels: HashMap<u64, LabelSet> = HashMap::new();
            for body in bodies.iter() {
                let (elements, _) = t
                    .span("store.decode", |_| {
                        read_jsonl_elements_with(&mut decoder, body.as_bytes(), ErrorPolicy::Skip)
                    })
                    .expect("the replay ingest decoded these bodies already");
                let (mut nodes, mut edges) = (Vec::new(), Vec::new());
                for (_, el) in elements {
                    match el {
                        Element::Node(n) => {
                            labels.insert(n.id.0, n.labels.clone());
                            nodes.push(n);
                        }
                        Element::Edge(edge) => {
                            let of =
                                |id: u64| labels.get(&id).cloned().unwrap_or_else(LabelSet::empty);
                            edges.push(EdgeRecord {
                                src_labels: of(edge.src.0),
                                tgt_labels: of(edge.tgt.0),
                                edge,
                            });
                        }
                        Element::ResolvedEdge(r) => edges.push(r),
                    }
                }
                embed_side(t, &config, &nodes, &edges);
            }
        });
    }
    t.rep += u32::from(t.enabled);
    Ok(facts)
}

fn newest_checkpoint_bytes(ckpt_dir: &Path) -> u64 {
    CheckpointStore::open(ckpt_dir)
        .and_then(|s| s.list())
        .ok()
        .and_then(|l| l.last().and_then(|(_, p)| std::fs::metadata(p).ok()))
        .map_or(0, |m| m.len())
}

/// Run `replay` with span recording off and return its wall time — the
/// untraced in-process total tracing overhead is measured against.
pub fn untraced<T>(t: &mut Tracer, replay: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
    t.enabled = false;
    let start = Instant::now();
    let out = replay(t);
    let wall = start.elapsed();
    t.enabled = true;
    (out, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 130, Some(0)),
            span("b", 120, 150, Some(0)), // overlaps a: union is 110..150
            span("c", 190, 260, Some(0)), // clipped to 190..200
            span("grandchild", 111, 112, Some(1)),
            span("other", 0, 1000, None),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 19);
        assert_eq!(self_ns(&spans, 4), 1);
    }

    #[test]
    fn tracer_nests_spans_and_sums_per_repetition() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            t.span(ROOT, |t| {
                t.span("x", |t| t.span("y", |_| ()));
                t.span("x", |_| ());
                t.stages(
                    "x",
                    &[
                        ("s1", Duration::from_nanos(5)),
                        ("s2", Duration::from_nanos(7)),
                    ],
                );
            });
            t.rep += 1;
        }
        let names: Vec<_> = t.spans.iter().take(6).map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (ROOT, None),
                ("x", Some(0)),
                ("y", Some(1)),
                ("x", Some(0)),
                ("s1", Some(3)),
                ("s2", Some(3))
            ]
        );
        assert_eq!(t.spans[5].start_ns, t.spans[4].end_ns);
        assert_eq!(t.rep_ms(1, "s2"), 7e-6);
        assert_eq!(t.rep_ms(0, "absent"), 0.0);
        assert_eq!(
            t.rep_top_level_ms(0),
            t.rep_ms(0, "x"),
            "x spans are the only children of the root"
        );
        assert!(t.rep_self_ms(0, ROOT) <= t.rep_ms(0, ROOT) - t.rep_ms(0, "x") + 1e-9);
        let fastest = t.fastest_rep().unwrap();
        assert!(t.rep_ms(fastest, ROOT) <= t.rep_ms(1 - fastest, ROOT));
        assert_eq!(Tracer::new().fastest_rep(), None);
        assert_eq!(t.to_jsonl("w").lines().count(), t.spans.len());
    }

    #[test]
    fn untraced_records_nothing() {
        let mut t = Tracer::new();
        let ((), wall) = untraced(&mut t, |t| t.span("x", |_| ()));
        assert!(t.spans.is_empty() && wall > Duration::ZERO);
        t.span("x", |_| ());
        assert_eq!(t.spans.len(), 1);
    }
}
