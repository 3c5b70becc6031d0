//! The four workloads and their seeded corpora.
//!
//! A corpus is drawn by `pg_synth` in-process and written once per
//! set-up; the programs under test only ever see the file (or request
//! bodies cut from it). The schema shape is part of the workload
//! definition and is drawn from a fixed seed, so `--seed` varies the
//! instances — values, which optionals are missing, which labels are
//! stripped — and not the amount of work.

use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of every workload's ground-truth schema (see module docs).
const SCHEMA_SEED: u64 = 42;

/// How the corpus reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `pg-hive discover --jsonl F`.
    OneShot,
    /// `… --batches N --checkpoint-dir D --checkpoint-every E`.
    Incremental {
        batches: usize,
        checkpoint_every: usize,
    },
    /// `… --stream --batches N`.
    Stream { batches: usize },
    /// `pg-hive serve --state-dir D`, one shared session, closed loop:
    /// `connections` keep-alive callers that each wait for their ack,
    /// bodies of `body_lines` lines, every `get_every`-th request on a
    /// connection a schema GET.
    Served {
        body_lines: usize,
        connections: usize,
        get_every: u64,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Total nodes + edges asked of the generator.
    pub elements: usize,
    pub schema: SchemaParams,
    pub noise: NoiseProfile,
    pub mode: Mode,
}

const UNIFORM_SCHEMA: SchemaParams = SchemaParams {
    node_types: 8,
    edge_types: 6,
    max_extra_props: 3,
    multi_label_overlap: 0.3,
    optional_rate: 0.4,
};

const UNIFORM_NOISE: NoiseProfile = NoiseProfile {
    unlabeled_fraction: 0.05,
    missing_optional_rate: 0.3,
    label_noise_rate: 0.0,
    missing_mandatory_rate: 0.0,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline_uniform",
        why: "one-shot discover of a file with records >> patterns: decode, load, embedder training and process costs do the work, lsh/extract almost none",
        elements: 100_000,
        schema: UNIFORM_SCHEMA,
        noise: UNIFORM_NOISE,
        mode: Mode::OneShot,
    },
    Workload {
        name: "incremental_diverse",
        why: "16 checkpointed batches of a pattern-rich noisy graph: LSH clustering and Algorithm-2 extract against a growing state dominate, decode is small, checkpoint writes sit beside discovery",
        elements: 20_000,
        schema: SchemaParams {
            node_types: 64,
            edge_types: 48,
            max_extra_props: 12,
            multi_label_overlap: 0.3,
            optional_rate: 0.7,
        },
        noise: NoiseProfile {
            unlabeled_fraction: 0.3,
            missing_optional_rate: 0.5,
            label_noise_rate: 0.2,
            missing_mandatory_rate: 0.0,
        },
        mode: Mode::Incremental {
            batches: 16,
            checkpoint_every: 4,
        },
    },
    Workload {
        name: "stream_uniform",
        why: "the offline_uniform file through --stream --batches 16: same core layers with sketched accumulators and per-batch embedder retraining; bounded memory is this mode's purpose",
        elements: 100_000,
        schema: UNIFORM_SCHEMA,
        noise: UNIFORM_NOISE,
        mode: Mode::Stream { batches: 16 },
    },
    Workload {
        name: "served_ingest",
        why: "durable pg-hive serve, one session, 2 closed-loop keep-alive callers posting 500-line bodies beside schema GETs: the only path through reactor, HTTP parse, session queue and cadence checkpoints",
        elements: 30_000,
        schema: UNIFORM_SCHEMA,
        noise: UNIFORM_NOISE,
        mode: Mode::Served {
            body_lines: 500,
            connections: 2,
            get_every: 10,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Request bodies of the served workload: every node body precedes every
/// edge body, so no edge can reach the session before its endpoints.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Bodies {
    pub nodes: Vec<String>,
    pub edges: Vec<String>,
}

impl Bodies {
    /// Node bodies, then edge bodies — the sequential order the
    /// in-process replay applies them in.
    pub fn iter(&self) -> impl Iterator<Item = &String> {
        self.nodes.iter().chain(self.edges.iter())
    }
}

/// Cut a nodes-then-edges JSONL dump into bodies of at most `lines`
/// lines that never mix kinds.
pub fn cut_bodies(text: &str, lines: usize) -> Bodies {
    assert!(lines > 0, "a body holds at least one line");
    let all: Vec<&str> = text.lines().collect();
    let first_edge = all
        .iter()
        .position(|l| !l.starts_with("{\"kind\":\"node\""))
        .unwrap_or(all.len());
    let cut = |part: &[&str]| -> Vec<String> {
        part.chunks(lines)
            .map(|c| {
                let mut body = c.join("\n");
                body.push('\n');
                body
            })
            .collect()
    };
    Bodies {
        nodes: cut(&all[..first_edge]),
        edges: cut(&all[first_edge..]),
    }
}

/// 64-bit FNV-1a, the corpus identity recorded with every result.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One generated corpus on disk.
#[derive(Debug)]
pub struct Corpus {
    pub path: PathBuf,
    pub bytes: usize,
    pub fnv: u64,
    /// Lines in the file (nodes + edges actually generated).
    pub rows: usize,
    /// Present for [`Mode::Served`].
    pub bodies: Bodies,
    pub generate_s: f64,
    pub write_s: f64,
}

impl Corpus {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.write_s
    }
}

/// Generate `workload`'s corpus from `seed` and write it to
/// `dir/<name>.jsonl`. `scale` divides the element count (`--quick`).
pub fn generate(
    workload: &Workload,
    seed: u64,
    scale: usize,
    dir: &Path,
) -> std::io::Result<Corpus> {
    let start = Instant::now();
    let schema = random_schema(&workload.schema, SCHEMA_SEED);
    let spec = SynthSpec::new(schema)
        .sized_for((workload.elements / scale.max(1)).max(1))
        .with_noise(workload.noise);
    let graph = synthesize(&spec, seed).graph;
    let text = pg_store::jsonl::to_jsonl(&graph);
    let rows = graph.node_count() + graph.edge_count();
    drop(graph);
    let bodies = match workload.mode {
        Mode::Served { body_lines, .. } => cut_bodies(&text, body_lines),
        _ => Bodies::default(),
    };
    let generate_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let path = dir.join(format!("{}.jsonl", workload.name));
    std::fs::write(&path, &text)?;
    let write_s = start.elapsed().as_secs_f64();
    Ok(Corpus {
        path,
        bytes: text.len(),
        fnv: fnv1a(text.as_bytes()),
        rows,
        bodies,
        generate_s,
        write_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_never_put_an_edge_before_its_endpoints() {
        let node =
            |i: u32| format!("{{\"kind\":\"node\",\"id\":{i},\"labels\":[],\"props\":{{}}}}");
        let edge = |i: u32| {
            format!(
                "{{\"kind\":\"edge\",\"id\":{i},\"src\":0,\"tgt\":1,\"labels\":[],\"props\":{{}}}}"
            )
        };
        let mut lines: Vec<String> = (0..7).map(node).collect();
        lines.extend((7..12).map(edge));
        let text = lines.join("\n") + "\n";
        let b = cut_bodies(&text, 3);
        assert_eq!((b.nodes.len(), b.edges.len()), (3, 2));
        assert!(b
            .nodes
            .iter()
            .all(|body| !body.contains("\"kind\":\"edge\"")));
        assert!(b
            .edges
            .iter()
            .all(|body| !body.contains("\"kind\":\"node\"")));
        // Nothing lost, nothing reordered, every body newline-terminated.
        assert_eq!(b.iter().cloned().collect::<String>(), text);
        assert!(b.iter().all(|body| body.lines().count() <= 3));
        // A dump without edges has no edge phase.
        assert!(cut_bodies(&(node(1) + "\n"), 3).edges.is_empty());
    }

    #[test]
    fn same_seed_same_corpus_and_seed_leaves_size_alone() {
        let dir = std::env::temp_dir().join(format!("pg-benchmark-wl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let w = by_name("served_ingest").unwrap();
        let a = generate(w, 7, 30, &dir).unwrap();
        let b = generate(w, 7, 30, &dir).unwrap();
        let c = generate(w, 8, 30, &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((a.fnv, a.bytes, &a.bodies), (b.fnv, b.bytes, &b.bodies));
        assert_ne!(a.fnv, c.fnv);
        assert_eq!(a.rows, c.rows, "the seed draws instances, not sizes");
        assert_eq!(
            a.bodies.iter().map(|s| s.lines().count()).sum::<usize>(),
            a.rows
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
