//! Argument parsing for the CLI (hand-rolled: the workspace avoids
//! heavyweight dependencies; see DESIGN.md).

use pg_hive::{LshMethod, MergeSimilarity, SchemaMode};
use std::fmt;
use std::path::PathBuf;

/// CLI-level errors. Each variant maps to a distinct process exit code
/// (see [`CliError::exit_code`]) so scripts can tell bad *input* (fix
/// the data, rerun) from bad *state* (inspect the checkpoint directory)
/// apart without parsing stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation (unknown flag, missing value, …). Exit code 2.
    Usage(String),
    /// The input data could not be read or parsed (missing file,
    /// malformed CSV/JSONL line, strict-mode quarantine trip). Exit
    /// code 3.
    Input(String),
    /// Session state is damaged or unrecoverable (corrupt checkpoints,
    /// checkpoint I/O failure, panic during batch processing). Exit
    /// code 4.
    State(String),
    /// Any other runtime failure (e.g. writing the output file). Exit
    /// code 1.
    Failed(String),
}

impl CliError {
    /// The process exit code for this error class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Failed(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::State(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Input(m) => write!(f, "input error: {m}"),
            CliError::State(m) => write!(f, "state error: {m}"),
            CliError::Failed(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
pub const USAGE: &str = "\
pg-hive <command> [options]

Commands:
  discover  --nodes <csv> --edges <csv> | --jsonl <file>
            [--format pg-schema-strict|pg-schema-loose|xsd|json]
            [--method elsh|minhash] [--theta <f>] [--seed <n>]
            [--merge-similarity binary|weighted] [--refine]
            [--no-post] [--sample-datatypes] [--out <file>]
            [--batches <k>] (split input into k incremental batches)
            [--on-error strict|skip|cap:<n>] (malformed input lines:
              fail fast, quarantine and continue, or tolerate up to n)
            [--checkpoint-dir <dir>] [--checkpoint-every <n>]
            [--checkpoint-keep <k>] [--resume]
            (durable checkpoints: save session state every n batches,
             keep the last k; --resume continues from the newest valid
             checkpoint after a crash)
            [--shard <i>/<n>] (discover only shard i of a deterministic
              n-way partition of the input — run once per shard, then
              unify the shards with `pg-hive merge`)
            [--state-out <file>] (also write the full discovery state —
              schema + accumulators — as shard-state JSON, the exact
              exchange format `pg-hive merge` consumes)
            [--stream] (bounded-memory streaming mode: per-type
              statistics live in fixed-size mergeable sketches, so
              session and checkpoint size are independent of stream
              length; cardinalities and sampled datatypes become
              estimates within documented error bounds)
  validate  --schema <json> (--nodes <csv> --edges <csv> | --jsonl <file>)
            [--mode strict|loose]
  diff      --old <schema.json> --new <schema.json>
  stats     --nodes <csv> --edges <csv> | --jsonl <file>
  generate  --dataset <name> --out-dir <dir> [--scale <f>] [--seed <n>]
            [--noise <f>] [--label-availability <f>] [--jsonl]
  synth     --out-dir <dir> [--schema <json> | --types <n>] [--size <n>]
            [--seed <n>] [--unlabeled <f>] [--missing-optional <f>]
            [--label-noise <f>] [--missing-mandatory <f>] [--jsonl]
            (ground-truth corpus: generate a graph *from* a declared
             schema — given by --schema or drawn randomly with --types
             node types — plus truth-schema.json and truth-types.csv;
             bit-deterministic for a fixed seed)
            [--stream-chunks <n>] (emit the corpus in n streamed
              chunks through the iterator generator; the concatenated
              output is bit-identical to the one-shot run)
  serve     [--addr <ip:port>] [--state-dir <dir>] [--workers <n>]
            [--queue <n>] [--max-body-mb <n>] [--checkpoint-every <n>]
            [--checkpoint-keep <k>]
            [--max-connections <n>] [--idle-timeout-ms <n>]
            [--session-queue <n>]
            (HTTP server hosting live discovery sessions; Linux only —
             the connection loop is an epoll reactor; with
             --state-dir sessions checkpoint on cadence and at graceful
             shutdown (SIGINT/SIGTERM) and a restart resumes them
             bit-identically; --addr with port 0 picks a free port,
             printed as \"listening on <ip:port>\" at startup)
  hash      --schema <json>
            (print the canonical schema content hash — the same value
             the server reports and embeds in ETags)
  merge     <state.json|schema.json>... [--out <file>]
            (unify per-shard discovery results into one canonical
             schema, bit-identical regardless of input order.
             Shard-state JSON (from discover --state-out) merges
             exactly: constraints, data types, and cardinalities are
             recomputed from the merged accumulators. Bare schema JSON
             merges pessimistically: one-sided keys demote to OPTIONAL
             and declared cardinalities fold as maxima. Inputs must be
             all one kind)

Exit codes: 0 ok, 1 failure, 2 usage, 3 bad input data, 4 bad session
state (corrupt checkpoints, crash during batch processing).
";

/// Where to read a graph from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphInput {
    /// Node CSV path (paired with `edges`).
    pub nodes: Option<PathBuf>,
    /// Edge CSV path.
    pub edges: Option<PathBuf>,
    /// JSON-lines path (alternative to the CSV pair).
    pub jsonl: Option<PathBuf>,
}

impl GraphInput {
    fn validate(&self) -> Result<(), CliError> {
        match (&self.nodes, &self.edges, &self.jsonl) {
            (Some(_), Some(_), None) | (None, None, Some(_)) => Ok(()),
            _ => Err(CliError::Usage(
                "provide either --nodes with --edges, or --jsonl".into(),
            )),
        }
    }
}

/// Output format for `discover`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// PG-Schema STRICT declaration.
    #[default]
    PgSchemaStrict,
    /// PG-Schema LOOSE declaration.
    PgSchemaLoose,
    /// XML Schema.
    Xsd,
    /// JSON (round-trippable).
    Json,
}

/// A parsed CLI command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Discover a schema.
    Discover {
        /// Graph source.
        input: GraphInput,
        /// Output format.
        format: OutputFormat,
        /// LSH family.
        method: LshMethod,
        /// Jaccard threshold θ, in `[0, 1]`.
        theta: f64,
        /// Seed.
        seed: u64,
        /// Skip post-processing.
        no_post: bool,
        /// Binary or frequency-weighted unlabeled-cluster merging.
        merge_similarity: MergeSimilarity,
        /// Run the context-refinement pass on ABSTRACT types.
        refine: bool,
        /// Use sampled data-type inference.
        sample_datatypes: bool,
        /// Output path (stdout if None).
        out: Option<PathBuf>,
        /// Split the input into this many incremental batches (1 =
        /// classic one-shot discovery).
        batches: usize,
        /// Policy for malformed input lines.
        on_error: pg_store::ErrorPolicy,
        /// Directory for durable checkpoints (None = no persistence).
        checkpoint_dir: Option<PathBuf>,
        /// Checkpoint every N batches.
        checkpoint_every: usize,
        /// Retain the last K checkpoints.
        checkpoint_keep: usize,
        /// Resume from the newest valid checkpoint in `checkpoint_dir`.
        resume: bool,
        /// Fault injection for tests/CI: panic after this many batches
        /// have been processed (exercises the panic boundary and the
        /// emergency checkpoint). Hidden from USAGE on purpose.
        kill_after_batch: Option<usize>,
        /// Discover only shard `i` of a deterministic `n`-way partition
        /// (`(i, n)` with `i < n`); None = the whole input.
        shard: Option<(usize, usize)>,
        /// Also write the discovery state (schema + accumulators) as
        /// shard-state JSON — the input format of `pg-hive merge`.
        state_out: Option<PathBuf>,
        /// Bounded-memory streaming mode: swap per-type statistics
        /// onto fixed-size mergeable sketches.
        stream: bool,
    },
    /// Validate a graph against a schema.
    Validate {
        /// Path to the schema JSON.
        schema: PathBuf,
        /// Graph source.
        input: GraphInput,
        /// STRICT or LOOSE conformance.
        mode: SchemaMode,
    },
    /// Diff two schemas.
    Diff {
        /// Older schema JSON.
        old: PathBuf,
        /// Newer schema JSON.
        new: PathBuf,
    },
    /// Graph statistics.
    Stats {
        /// Graph source.
        input: GraphInput,
    },
    /// Generate a benchmark dataset.
    Generate {
        /// Catalog dataset name.
        dataset: String,
        /// Output directory.
        out_dir: PathBuf,
        /// Scale multiplier.
        scale: f64,
        /// Seed.
        seed: u64,
        /// Property-removal noise.
        noise: f64,
        /// Label availability.
        label_availability: f64,
        /// Emit JSON-lines instead of CSV.
        jsonl: bool,
    },
    /// Generate a ground-truth synthetic corpus (pg-synth).
    Synth {
        /// Declared schema JSON (None = draw a random ground truth).
        schema: Option<PathBuf>,
        /// Node-type count for the random ground truth (ignored with
        /// `--schema`).
        types: usize,
        /// Output directory.
        out_dir: PathBuf,
        /// Total element budget (nodes + edges) of the clean graph.
        size: usize,
        /// Seed (generation is bit-deterministic given schema + seed).
        seed: u64,
        /// Unlabeled-node fraction.
        unlabeled: f64,
        /// Missing-optional-property rate.
        missing_optional: f64,
        /// Spurious-label rate.
        label_noise: f64,
        /// Missing-MANDATORY-property rate (erodes the property
        /// discriminator; the graph stops STRICT-conforming).
        missing_mandatory: f64,
        /// Emit JSON-lines instead of CSV.
        jsonl: bool,
        /// Emit the corpus through the streaming generator in this
        /// many chunks (None = materialize the graph in one shot).
        stream_chunks: Option<usize>,
    },
    /// Run the pg-serve HTTP server.
    Serve {
        /// Listen address (`ip:port`; port 0 = ephemeral).
        addr: String,
        /// Durable session state directory (None = in-memory only).
        state_dir: Option<PathBuf>,
        /// Worker threads running request handlers.
        workers: usize,
        /// Handler-queue depth before 503s start.
        queue: usize,
        /// Largest accepted request body, in MiB.
        max_body_mb: usize,
        /// Default batches between cadence checkpoints.
        checkpoint_every: u64,
        /// Checkpoints retained per session.
        checkpoint_keep: usize,
        /// Concurrent-connection ceiling.
        max_connections: usize,
        /// Keep-alive idle timeout between requests, in milliseconds.
        idle_timeout_ms: u64,
        /// Per-session pending-ingest depth before 503 backpressure.
        session_queue: usize,
    },
    /// Print the canonical content hash of a schema JSON file.
    Hash {
        /// Path to the schema JSON.
        schema: PathBuf,
    },
    /// Merge per-shard discovery results into one canonical schema.
    Merge {
        /// Input files: all shard-state JSON or all schema JSON.
        inputs: Vec<PathBuf>,
        /// Merged schema output path (stdout if None).
        out: Option<PathBuf>,
    },
}

/// Every flag a command accepts (including the hidden
/// `--kill-after-batch`), each with whether it takes a value (`false`:
/// a bare switch); `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match cmd {
        "discover" => &[
            ("--nodes", true),
            ("--edges", true),
            ("--jsonl", true),
            ("--format", true),
            ("--method", true),
            ("--theta", true),
            ("--seed", true),
            ("--merge-similarity", true),
            ("--refine", false),
            ("--no-post", false),
            ("--sample-datatypes", false),
            ("--out", true),
            ("--batches", true),
            ("--on-error", true),
            ("--checkpoint-dir", true),
            ("--checkpoint-every", true),
            ("--checkpoint-keep", true),
            ("--resume", false),
            ("--kill-after-batch", true),
            ("--shard", true),
            ("--state-out", true),
            ("--stream", false),
        ],
        "validate" => &[
            ("--schema", true),
            ("--nodes", true),
            ("--edges", true),
            ("--jsonl", true),
            ("--mode", true),
        ],
        "diff" => &[("--old", true), ("--new", true)],
        "stats" => &[("--nodes", true), ("--edges", true), ("--jsonl", true)],
        "generate" => &[
            ("--dataset", true),
            ("--out-dir", true),
            ("--scale", true),
            ("--seed", true),
            ("--noise", true),
            ("--label-availability", true),
            ("--jsonl", false),
        ],
        "synth" => &[
            ("--out-dir", true),
            ("--schema", true),
            ("--types", true),
            ("--size", true),
            ("--seed", true),
            ("--unlabeled", true),
            ("--missing-optional", true),
            ("--label-noise", true),
            ("--missing-mandatory", true),
            ("--jsonl", false),
            ("--stream-chunks", true),
        ],
        "serve" => &[
            ("--addr", true),
            ("--state-dir", true),
            ("--workers", true),
            ("--queue", true),
            ("--max-body-mb", true),
            ("--checkpoint-every", true),
            ("--checkpoint-keep", true),
            ("--max-connections", true),
            ("--idle-timeout-ms", true),
            ("--session-queue", true),
        ],
        "hash" => &[("--schema", true)],
        "merge" => &[("--out", true)],
        _ => return None,
    })
}

/// Parse argv (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let declared =
        command_flags(cmd).ok_or_else(|| CliError::Usage(format!("unknown command {cmd:?}")))?;
    let takes_value = |flag: &str| declared.iter().find(|d| d.0 == flag).map(|d| d.1);

    // Flag → value; a switch that was given maps to "".
    let mut flags: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let mut positionals: Vec<&str> = Vec::new();
    let mut rest = rest.iter().map(String::as_str);
    while let Some(flag) = rest.next() {
        if !flag.starts_with("--") {
            // Only `merge` takes positional operands (its input files).
            if cmd == "merge" {
                positionals.push(flag);
                continue;
            }
            return Err(CliError::Usage(format!("unexpected argument {flag:?}")));
        }
        let value = match takes_value(flag) {
            None => {
                return Err(CliError::Usage(format!(
                    "unknown option {flag} for `{cmd}`"
                )))
            }
            Some(false) => "",
            // One of the command's own flags where the value belongs
            // means the value was left out, not that it is the value.
            Some(true) => match rest.next() {
                Some(value) if takes_value(value).is_none() => value,
                _ => return Err(CliError::Usage(format!("{flag} requires a value"))),
            },
        };
        if flags.insert(flag, value).is_some() {
            return Err(CliError::Usage(format!("{flag} given more than once")));
        }
    }

    let given = |name: &str| flags.contains_key(name);
    let text = |name: &str| flags.get(name).map(|v| (*v).to_owned());
    let path = |name: &str| flags.get(name).map(PathBuf::from);
    let required =
        |name: &str| path(name).ok_or_else(|| CliError::Usage(format!("{name} is required")));
    let input = || -> Result<GraphInput, CliError> {
        let g = GraphInput {
            nodes: path("--nodes"),
            edges: path("--edges"),
            jsonl: path("--jsonl"),
        };
        g.validate()?;
        Ok(g)
    };
    let u64_flag = |name: &str, default: u64| parsed(&flags, name, default);
    let rate_flag = |name: &str, default: f64| match parsed(&flags, name, default)? {
        v if (0.0..=1.0).contains(&v) => Ok(v),
        v => Err(CliError::Usage(format!(
            "{name} must be in [0, 1], got {v}"
        ))),
    };
    let positive_flag = |name: &str, default: u64| match u64_flag(name, default)? {
        0 => Err(CliError::Usage(format!("{name} must be at least 1"))),
        n => Ok(n),
    };

    match cmd.as_str() {
        "discover" => {
            let format = match flags.get("--format").copied() {
                None | Some("pg-schema-strict") => OutputFormat::PgSchemaStrict,
                Some("pg-schema-loose") => OutputFormat::PgSchemaLoose,
                Some("xsd") => OutputFormat::Xsd,
                Some("json") => OutputFormat::Json,
                Some(other) => return Err(CliError::Usage(format!("unknown format {other:?}"))),
            };
            let merge_similarity = match flags.get("--merge-similarity").copied() {
                None | Some("binary") => MergeSimilarity::BinaryJaccard,
                Some("weighted") => MergeSimilarity::WeightedJaccard,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown merge similarity {other:?}"
                    )))
                }
            };
            let batches = positive_flag("--batches", 1)? as usize;
            let checkpoint_dir = path("--checkpoint-dir");
            for needs_dir in ["--checkpoint-every", "--checkpoint-keep", "--resume"] {
                if given(needs_dir) && checkpoint_dir.is_none() {
                    return Err(CliError::Usage(format!(
                        "{needs_dir} requires --checkpoint-dir"
                    )));
                }
            }
            let shard = flags
                .get("--shard")
                .map(|v| -> Result<(usize, usize), CliError> {
                    let err = || {
                        CliError::Usage(format!("--shard must be <i>/<n> with i < n, got {v:?}"))
                    };
                    let (i, n) = v.split_once('/').ok_or_else(err)?;
                    let i = i.parse::<usize>().map_err(|_| err())?;
                    let n = n.parse::<usize>().map_err(|_| err())?;
                    if n == 0 || i >= n {
                        return Err(err());
                    }
                    Ok((i, n))
                })
                .transpose()?;
            if shard.is_some() && (batches > 1 || checkpoint_dir.is_some()) {
                return Err(CliError::Usage(
                    "--shard is one shard of one batch; it cannot combine with \
                     --batches or checkpointing"
                        .into(),
                ));
            }
            Ok(Command::Discover {
                input: input()?,
                format,
                method: parsed(&flags, "--method", LshMethod::Elsh)?,
                theta: rate_flag("--theta", 0.9)?,
                seed: u64_flag("--seed", 42)?,
                no_post: given("--no-post"),
                merge_similarity,
                refine: given("--refine"),
                sample_datatypes: given("--sample-datatypes"),
                out: path("--out"),
                batches,
                on_error: parsed(&flags, "--on-error", pg_store::ErrorPolicy::Strict)?,
                checkpoint_dir,
                checkpoint_every: positive_flag("--checkpoint-every", 1)? as usize,
                checkpoint_keep: u64_flag("--checkpoint-keep", 3)?.max(1) as usize,
                resume: given("--resume"),
                kill_after_batch: given("--kill-after-batch")
                    .then(|| parsed(&flags, "--kill-after-batch", 0))
                    .transpose()?,
                shard,
                state_out: path("--state-out"),
                stream: given("--stream"),
            })
        }
        "validate" => Ok(Command::Validate {
            schema: required("--schema")?,
            input: input()?,
            mode: match flags.get("--mode").copied() {
                None | Some("strict") => SchemaMode::Strict,
                Some("loose") => SchemaMode::Loose,
                Some(other) => return Err(CliError::Usage(format!("unknown mode {other:?}"))),
            },
        }),
        "diff" => Ok(Command::Diff {
            old: required("--old")?,
            new: required("--new")?,
        }),
        "stats" => Ok(Command::Stats { input: input()? }),
        "generate" => {
            // Checked here so no value reaches a `pg-datasets` assertion.
            let scale: f64 = parsed(&flags, "--scale", 1.0)?;
            if !(scale.is_finite() && scale > 0.0) {
                return Err(CliError::Usage(format!(
                    "--scale must be a positive number, got {scale}"
                )));
            }
            Ok(Command::Generate {
                dataset: text("--dataset")
                    .ok_or_else(|| CliError::Usage("--dataset is required".into()))?,
                out_dir: required("--out-dir")?,
                scale,
                seed: u64_flag("--seed", 42)?,
                noise: rate_flag("--noise", 0.0)?,
                label_availability: rate_flag("--label-availability", 1.0)?,
                jsonl: given("--jsonl"),
            })
        }
        "synth" => {
            let schema = path("--schema");
            if schema.is_some() && given("--types") {
                return Err(CliError::Usage(
                    "--schema and --types are mutually exclusive".into(),
                ));
            }
            if given("--stream-chunks") && !given("--jsonl") {
                return Err(CliError::Usage(
                    "--stream-chunks requires --jsonl (CSV headers depend on the \
                     whole corpus; JSONL chunks concatenate bit-identically)"
                        .into(),
                ));
            }
            Ok(Command::Synth {
                schema,
                types: positive_flag("--types", 4)? as usize,
                out_dir: required("--out-dir")?,
                size: positive_flag("--size", 1_000)? as usize,
                seed: u64_flag("--seed", 42)?,
                unlabeled: rate_flag("--unlabeled", 0.0)?,
                missing_optional: rate_flag("--missing-optional", 0.0)?,
                label_noise: rate_flag("--label-noise", 0.0)?,
                missing_mandatory: rate_flag("--missing-mandatory", 0.0)?,
                jsonl: given("--jsonl"),
                stream_chunks: given("--stream-chunks")
                    .then(|| positive_flag("--stream-chunks", 1).map(|n| n as usize))
                    .transpose()?,
            })
        }
        "serve" => Ok(Command::Serve {
            addr: text("--addr").unwrap_or_else(|| "127.0.0.1:8686".into()),
            state_dir: path("--state-dir"),
            workers: u64_flag("--workers", 4)?.max(1) as usize,
            queue: u64_flag("--queue", 64)?.max(1) as usize,
            max_body_mb: positive_flag("--max-body-mb", 64)? as usize,
            checkpoint_every: positive_flag("--checkpoint-every", 8)?,
            checkpoint_keep: u64_flag("--checkpoint-keep", 4)?.max(1) as usize,
            max_connections: u64_flag("--max-connections", 10_240)?.max(1) as usize,
            idle_timeout_ms: positive_flag("--idle-timeout-ms", 60_000)?,
            session_queue: u64_flag("--session-queue", 64)?.max(1) as usize,
        }),
        "hash" => Ok(Command::Hash {
            schema: required("--schema")?,
        }),
        "merge" => {
            if positionals.is_empty() {
                return Err(CliError::Usage(
                    "merge requires at least one shard-state or schema JSON file".into(),
                ));
            }
            Ok(Command::Merge {
                inputs: positionals.iter().map(PathBuf::from).collect(),
                out: path("--out"),
            })
        }
        other => unreachable!("command_flags admitted unknown command {other:?}"),
    }
}

/// The value of flag `name` as a `T` — in `T`'s one spelling, its
/// `FromStr` — or `default` when the flag was not given.
fn parsed<T: std::str::FromStr>(
    flags: &std::collections::HashMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    flags.get(name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|e| CliError::Usage(format!("{name} {v:?}: {e}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_discover_defaults() {
        let c = parse(&args(&["discover", "--jsonl", "g.jsonl"])).unwrap();
        match c {
            Command::Discover {
                format,
                method,
                theta,
                no_post,
                ..
            } => {
                assert_eq!(format, OutputFormat::PgSchemaStrict);
                assert_eq!(method, LshMethod::Elsh);
                assert_eq!(theta, 0.9);
                assert!(!no_post);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    /// A flag the command does not take is a usage error, never a
    /// silently ignored one: typos, flags this CLI no longer has, flags
    /// that belong to another command, and the hidden fault-injection
    /// flag outside `discover`.
    #[test]
    fn unknown_flags_are_usage_errors() {
        for bad in [
            vec!["discover", "--jsonl", "g.jsonl", "--thraeds", "4"],
            vec!["discover", "--jsonl", "g.jsonl", "--no-dedup"],
            vec!["discover", "--jsonl", "g.jsonl", "--threads", "2"],
            vec!["serve", "--transport", "epoll"],
            vec!["discover", "--jsonl", "g.jsonl", "--workers", "2"],
            vec!["stats", "--jsonl", "g.jsonl", "--stream"],
            vec!["serve", "--kill-after-batch", "1"],
            vec!["merge", "a.json", "--format", "json"],
        ] {
            match parse(&args(&bad)) {
                Err(CliError::Usage(m)) => {
                    assert!(m.contains("unknown option"), "{bad:?}: {m}")
                }
                other => panic!("{bad:?} should be a usage error, got {other:?}"),
            }
        }
        // The hidden flag stays accepted where it applies.
        assert!(parse(&args(&[
            "discover",
            "--jsonl",
            "g.jsonl",
            "--kill-after-batch",
            "2"
        ]))
        .is_ok());
        assert!(matches!(
            parse(&args(&["frobnicate", "--jsonl", "g.jsonl"])),
            Err(CliError::Usage(m)) if m.contains("unknown command")
        ));
    }

    #[test]
    fn parse_discover_full() {
        let c = parse(&args(&[
            "discover",
            "--nodes",
            "n.csv",
            "--edges",
            "e.csv",
            "--format",
            "xsd",
            "--method",
            "minhash",
            "--theta",
            "0.8",
            "--seed",
            "7",
            "--no-post",
            "--sample-datatypes",
            "--out",
            "schema.xsd",
        ]))
        .unwrap();
        match c {
            Command::Discover {
                input,
                format,
                method,
                theta,
                seed,
                no_post,
                sample_datatypes,
                out,
                ..
            } => {
                assert_eq!(input.nodes, Some(PathBuf::from("n.csv")));
                assert_eq!(format, OutputFormat::Xsd);
                assert_eq!(method, LshMethod::MinHash);
                assert_eq!(theta, 0.8);
                assert_eq!(seed, 7);
                assert!(no_post && sample_datatypes);
                assert_eq!(out, Some(PathBuf::from("schema.xsd")));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_discover_extensions() {
        let c = parse(&args(&[
            "discover",
            "--jsonl",
            "g.jsonl",
            "--merge-similarity",
            "weighted",
            "--refine",
        ]))
        .unwrap();
        match c {
            Command::Discover {
                merge_similarity,
                refine,
                ..
            } => {
                assert_eq!(merge_similarity, MergeSimilarity::WeightedJaccard);
                assert!(refine);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            parse(&args(&[
                "discover",
                "--jsonl",
                "g",
                "--merge-similarity",
                "cosine"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn input_requires_pair_or_jsonl() {
        assert!(matches!(
            parse(&args(&["discover", "--nodes", "n.csv"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["stats", "--jsonl", "g.jsonl", "--nodes", "n.csv"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_bits_are_rejected() {
        assert!(matches!(
            parse(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["discover", "--jsonl", "g", "--format", "yaml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["discover", "--jsonl", "g", "--method", "simhash"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&args(&[])), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_generate() {
        let c = parse(&args(&[
            "generate",
            "--dataset",
            "POLE",
            "--out-dir",
            "/tmp/x",
            "--scale",
            "0.5",
            "--noise",
            "0.2",
            "--label-availability",
            "0.5",
            "--jsonl",
        ]))
        .unwrap();
        match c {
            Command::Generate {
                dataset,
                scale,
                noise,
                label_availability,
                jsonl,
                ..
            } => {
                assert_eq!(dataset, "POLE");
                assert_eq!(scale, 0.5);
                assert_eq!(noise, 0.2);
                assert_eq!(label_availability, 0.5);
                assert!(jsonl);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_synth() {
        let c = parse(&args(&[
            "synth",
            "--out-dir",
            "/tmp/x",
            "--types",
            "6",
            "--size",
            "5000",
            "--seed",
            "9",
            "--unlabeled",
            "0.2",
            "--missing-optional",
            "0.1",
            "--missing-mandatory",
            "0.05",
            "--jsonl",
        ]))
        .unwrap();
        match c {
            Command::Synth {
                schema,
                types,
                size,
                seed,
                unlabeled,
                missing_optional,
                label_noise,
                missing_mandatory,
                jsonl,
                ..
            } => {
                assert_eq!(schema, None);
                assert_eq!(types, 6);
                assert_eq!(size, 5000);
                assert_eq!(seed, 9);
                assert_eq!(unlabeled, 0.2);
                assert_eq!(missing_optional, 0.1);
                assert_eq!(label_noise, 0.0);
                assert_eq!(missing_mandatory, 0.05);
                assert!(jsonl);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --schema excludes --types; rates must be probabilities.
        for bad in [
            vec![
                "synth",
                "--out-dir",
                "/tmp/x",
                "--schema",
                "s.json",
                "--types",
                "3",
            ],
            vec!["synth", "--out-dir", "/tmp/x", "--unlabeled", "1.5"],
            vec![
                "synth",
                "--out-dir",
                "/tmp/x",
                "--missing-mandatory",
                "-0.1",
            ],
            vec!["synth", "--out-dir", "/tmp/x", "--types", "0"],
            vec!["synth", "--out-dir", "/tmp/x", "--size", "0"],
            vec!["synth"],
        ] {
            assert!(
                matches!(parse(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
    }

    #[test]
    fn parse_discover_robustness_flags() {
        let c = parse(&args(&[
            "discover",
            "--jsonl",
            "g.jsonl",
            "--batches",
            "8",
            "--on-error",
            "skip",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--checkpoint-every",
            "2",
            "--checkpoint-keep",
            "5",
            "--resume",
        ]))
        .unwrap();
        match c {
            Command::Discover {
                batches,
                on_error,
                checkpoint_dir,
                checkpoint_every,
                checkpoint_keep,
                resume,
                kill_after_batch,
                ..
            } => {
                assert_eq!(batches, 8);
                assert_eq!(on_error, pg_store::ErrorPolicy::Skip);
                assert_eq!(checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
                assert_eq!(checkpoint_every, 2);
                assert_eq!(checkpoint_keep, 5);
                assert!(resume);
                assert_eq!(kill_after_batch, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: one batch, strict, no persistence.
        match parse(&args(&["discover", "--jsonl", "g.jsonl"])).unwrap() {
            Command::Discover {
                batches,
                on_error,
                checkpoint_dir,
                resume,
                ..
            } => {
                assert_eq!(batches, 1);
                assert_eq!(on_error, pg_store::ErrorPolicy::Strict);
                assert_eq!(checkpoint_dir, None);
                assert!(!resume);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Cap policy.
        match parse(&args(&["discover", "--jsonl", "g", "--on-error", "cap:7"])).unwrap() {
            Command::Discover { on_error, .. } => {
                assert_eq!(on_error, pg_store::ErrorPolicy::Cap(7));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn robustness_flag_misuse_is_rejected() {
        for bad in [
            vec!["discover", "--jsonl", "g", "--on-error", "ignore"],
            vec!["discover", "--jsonl", "g", "--on-error", "cap:x"],
            vec!["discover", "--jsonl", "g", "--batches", "0"],
            vec!["discover", "--jsonl", "g", "--checkpoint-every", "0"],
            vec!["discover", "--jsonl", "g", "--resume"],
            vec!["discover", "--jsonl", "g", "--kill-after-batch", "soon"],
            // A declared flag is never another flag's value; none twice.
            vec!["discover", "--jsonl", "g", "--out", "--stream"],
            vec!["discover", "--format", "--jsonl", "g"],
            vec!["discover", "--jsonl", "g", "--seed", "1", "--seed", "2"],
            vec!["discover", "--jsonl", "g", "--stream", "--stream"],
            // A checkpoint cadence with nowhere to checkpoint to.
            vec!["discover", "--jsonl", "g", "--checkpoint-every", "3"],
            vec!["discover", "--jsonl", "g", "--checkpoint-keep", "3"],
        ] {
            assert!(
                matches!(parse(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
        // What used to reach a `pg-datasets` assertion, or run.
        for bad in [
            ["--noise", "1.5"],
            ["--noise", "nan"],
            ["--label-availability", "7"],
            ["--scale", "0"],
            ["--scale", "inf"],
            ["--scale", "-1"],
            ["--seed", "--jsonl"],
        ] {
            let argv = [&["generate", "--dataset", "P", "--out-dir", "d"], &bad[..]].concat();
            let parsed = parse(&args(&argv));
            assert!(matches!(parsed, Err(CliError::Usage(_))), "{bad:?}");
        }
        // A value that only looks like a flag — not one of `discover`'s —
        // is still a value; `serve`'s cadence flags are session defaults.
        for out in ["-", "-weird.json", "--dataset", "--not-a-flag"] {
            match parse(&args(&["discover", "--jsonl", "g", "--out", out])).unwrap() {
                Command::Discover { out: got, .. } => assert_eq!(got, Some(PathBuf::from(out))),
                other => panic!("wrong command {other:?}"),
            }
        }
        assert!(parse(&args(&["serve", "--checkpoint-every", "3"])).is_ok());
    }

    #[test]
    fn parse_serve_and_hash() {
        match parse(&args(&["serve"])).unwrap() {
            Command::Serve {
                addr,
                state_dir,
                workers,
                queue,
                max_body_mb,
                checkpoint_every,
                checkpoint_keep,
                max_connections,
                idle_timeout_ms,
                session_queue,
            } => {
                assert_eq!(addr, "127.0.0.1:8686");
                assert_eq!(state_dir, None);
                assert_eq!(workers, 4);
                assert_eq!(queue, 64);
                assert_eq!(max_body_mb, 64);
                assert_eq!(checkpoint_every, 8);
                assert_eq!(checkpoint_keep, 4);
                assert_eq!(max_connections, 10_240);
                assert_eq!(idle_timeout_ms, 60_000);
                assert_eq!(session_queue, 64);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:0",
            "--state-dir",
            "/tmp/sessions",
            "--workers",
            "2",
            "--max-body-mb",
            "8",
        ]))
        .unwrap()
        {
            Command::Serve {
                addr,
                state_dir,
                workers,
                max_body_mb,
                ..
            } => {
                assert_eq!(addr, "0.0.0.0:0");
                assert_eq!(state_dir, Some(PathBuf::from("/tmp/sessions")));
                assert_eq!(workers, 2);
                assert_eq!(max_body_mb, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
        for bad in [
            vec!["serve", "--checkpoint-every", "0"],
            vec!["serve", "--max-body-mb", "0"],
            vec!["serve", "--workers", "x"],
            vec!["serve", "--idle-timeout-ms", "0"],
            vec!["hash"],
        ] {
            assert!(
                matches!(parse(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
        match parse(&args(&["hash", "--schema", "s.json"])).unwrap() {
            Command::Hash { schema } => assert_eq!(schema, PathBuf::from("s.json")),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_serve_connection_flags() {
        match parse(&args(&[
            "serve",
            "--max-connections",
            "2000",
            "--idle-timeout-ms",
            "5000",
            "--session-queue",
            "8",
        ]))
        .unwrap()
        {
            Command::Serve {
                max_connections,
                idle_timeout_ms,
                session_queue,
                ..
            } => {
                assert_eq!(max_connections, 2000);
                assert_eq!(idle_timeout_ms, 5000);
                assert_eq!(session_queue, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_shard_and_state_out() {
        match parse(&args(&[
            "discover",
            "--jsonl",
            "g.jsonl",
            "--shard",
            "2/4",
            "--state-out",
            "s.json",
        ]))
        .unwrap()
        {
            Command::Discover {
                shard, state_out, ..
            } => {
                assert_eq!(shard, Some((2, 4)));
                assert_eq!(state_out, Some(PathBuf::from("s.json")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: no sharding, no state dump.
        match parse(&args(&["discover", "--jsonl", "g.jsonl"])).unwrap() {
            Command::Discover {
                shard, state_out, ..
            } => {
                assert_eq!(shard, None);
                assert_eq!(state_out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        for bad in [
            vec!["discover", "--jsonl", "g", "--shard", "4"],
            vec!["discover", "--jsonl", "g", "--shard", "4/4"],
            vec!["discover", "--jsonl", "g", "--shard", "0/0"],
            vec!["discover", "--jsonl", "g", "--shard", "a/b"],
            vec![
                "discover",
                "--jsonl",
                "g",
                "--shard",
                "1/4",
                "--batches",
                "2",
            ],
            vec![
                "discover",
                "--jsonl",
                "g",
                "--shard",
                "1/4",
                "--checkpoint-dir",
                "/tmp/c",
            ],
        ] {
            assert!(
                matches!(parse(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
    }

    #[test]
    fn parse_stream_flags() {
        match parse(&args(&["discover", "--jsonl", "g.jsonl", "--stream"])).unwrap() {
            Command::Discover { stream, .. } => assert!(stream),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args(&["discover", "--jsonl", "g.jsonl"])).unwrap() {
            Command::Discover { stream, .. } => assert!(!stream, "exact mode by default"),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args(&[
            "synth",
            "--out-dir",
            "/tmp/x",
            "--jsonl",
            "--stream-chunks",
            "8",
        ]))
        .unwrap()
        {
            Command::Synth { stream_chunks, .. } => assert_eq!(stream_chunks, Some(8)),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args(&["synth", "--out-dir", "/tmp/x"])).unwrap() {
            Command::Synth { stream_chunks, .. } => assert_eq!(stream_chunks, None),
            other => panic!("wrong command {other:?}"),
        }
        for bad in [
            // Chunked emission is JSONL-only.
            vec!["synth", "--out-dir", "/tmp/x", "--stream-chunks", "8"],
            vec![
                "synth",
                "--out-dir",
                "/tmp/x",
                "--jsonl",
                "--stream-chunks",
                "0",
            ],
            vec![
                "synth",
                "--out-dir",
                "/tmp/x",
                "--jsonl",
                "--stream-chunks",
                "many",
            ],
        ] {
            assert!(
                matches!(parse(&args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
    }

    #[test]
    fn parse_merge() {
        match parse(&args(&["merge", "a.json", "b.json", "--out", "m.json"])).unwrap() {
            Command::Merge { inputs, out } => {
                assert_eq!(
                    inputs,
                    vec![PathBuf::from("a.json"), PathBuf::from("b.json")]
                );
                assert_eq!(out, Some(PathBuf::from("m.json")));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args(&["merge", "solo.json"])).unwrap() {
            Command::Merge { inputs, out } => {
                assert_eq!(inputs.len(), 1);
                assert_eq!(out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // No inputs → usage error; positionals stay merge-only.
        assert!(matches!(parse(&args(&["merge"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&args(&["merge", "--out", "m.json"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(&["hash", "stray.json", "--schema", "s.json"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn error_classes_map_to_distinct_exit_codes() {
        assert_eq!(CliError::Failed("x".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Input("x".into()).exit_code(), 3);
        assert_eq!(CliError::State("x".into()).exit_code(), 4);
    }

    #[test]
    fn parse_validate_and_diff() {
        assert!(parse(&args(&[
            "validate", "--schema", "s.json", "--jsonl", "g.jsonl", "--mode", "loose"
        ]))
        .is_ok());
        assert!(parse(&args(&["diff", "--old", "a.json", "--new", "b.json"])).is_ok());
        assert!(matches!(
            parse(&args(&["diff", "--old", "a.json"])),
            Err(CliError::Usage(_))
        ));
    }
}
