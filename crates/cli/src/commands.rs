//! Command implementations. Each returns the text it would print so the
//! logic is unit-testable; the binary writes it to stdout or `--out`.

use crate::opts::{CliError, Command, GraphInput, OutputFormat};
use pg_datasets::{generate, inject_noise, spec_by_name, NoiseConfig};
use pg_hive::{
    diff, merge_states, serialize, validate, CheckpointError, CheckpointStore, DatatypeSampling,
    DiscoveryResult, DurableSession, HiveConfig, HiveSession, MergeError, PgHive, SchemaMode,
    SessionCheckpoint, ShardState, SHARD_SPLIT_SALT,
};
use pg_model::{GraphStats, PropertyGraph, SchemaGraph};
use pg_store::{
    load, load_owned, split_batches, split_batches_owned, EdgeRecord, ErrorPolicy, GraphBatch,
    NodeRecord, Quarantine,
};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Salt for the deterministic batch split of incremental `discover`
/// runs. Must never change: `--resume` re-derives the identical batch
/// sequence from the input file and the seed, then skips the batches a
/// checkpoint already covers.
const BATCH_SPLIT_SALT: u64 = 0xba7c4;

/// Execute a parsed command; returns the report/serialization text.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Discover {
            input,
            format,
            method,
            theta,
            seed,
            no_post,
            merge_similarity,
            refine,
            sample_datatypes,
            out,
            batches,
            on_error,
            checkpoint_dir,
            checkpoint_every,
            checkpoint_keep,
            resume,
            kill_after_batch,
            shard,
            state_out,
            stream,
        } => {
            let (graph, quarantine) = read_graph_with_policy(input, *on_error)?;
            let config = HiveConfig {
                stream: stream.then(pg_hive::StreamConfig::default),
                method: *method,
                post_processing: !no_post,
                datatype_sampling: sample_datatypes.then(DatatypeSampling::default),
                merge_similarity: *merge_similarity,
                ..HiveConfig::default()
            }
            .with_theta(*theta)
            .with_seed(*seed);

            // Discovery takes the decoded graph by value — its records
            // move into the batches, so each exists once (DESIGN.md §3m) —
            // unless `--refine` reads the graph again afterwards: then it
            // is parked in `kept` and only lent.
            let mut kept = None;
            let graph = if *refine {
                Cow::Borrowed(&*kept.insert(graph))
            } else {
                Cow::Owned(graph)
            };
            let incremental =
                *batches > 1 || checkpoint_dir.is_some() || kill_after_batch.is_some();
            let (mut result, mut notes) = if incremental {
                let opts = IncrementalOpts {
                    batches: *batches,
                    checkpoint_dir: checkpoint_dir.as_deref(),
                    checkpoint_every: *checkpoint_every,
                    checkpoint_keep: *checkpoint_keep,
                    resume: *resume,
                    kill_after_batch: *kill_after_batch,
                };
                discover_incremental(graph, config, &opts)?
            } else if let Some((index, n)) = shard {
                // One shard of the same deterministic partition
                // `discover_sharded` uses: the full graph is loaded so
                // edge endpoint labels resolve, then only shard i is
                // discovered. `pg-hive merge` over all n shard states
                // reproduces the single-node schema bit-identically.
                let batch = split(graph, *n, seed ^ SHARD_SPLIT_SALT)
                    .into_iter()
                    .nth(*index)
                    .expect("shard index < n, by parse validation");
                let result = PgHive::new(config).discover(&batch.nodes, &batch.edges);
                let notes = format!(
                    "shard {index}/{n}: {} nodes, {} edges\n",
                    batch.nodes.len(),
                    batch.edges.len()
                );
                (result, notes)
            } else {
                let (nodes, edges) = load_records(graph);
                (PgHive::new(config).discover(&nodes, &edges), String::new())
            };
            if let Some(graph) = &kept {
                pg_hive::refine::refine_abstract_types(
                    &mut result.state,
                    graph,
                    pg_hive::refine::RefineConfig::default(),
                );
                if !no_post {
                    pg_hive::constraints::infer_property_constraints(&mut result.state);
                    pg_hive::datatypes::infer_datatypes(&mut result.state, None, *seed);
                    pg_hive::cardinality::compute_cardinalities(&mut result.state);
                }
                result.schema = result.state.schema.clone();
            }
            if !quarantine.is_empty() {
                notes.push_str(&quarantine.summary());
            }
            if let Some(path) = state_out {
                let state = ShardState::from_state(&result.state);
                let json = serde_json::to_string(&state)
                    .map_err(|e| CliError::Failed(format!("serializing state: {e}")))?;
                fs::write(path, json)
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
                let _ = writeln!(notes, "state -> {}", path.display());
            }
            let text = match format {
                OutputFormat::PgSchemaStrict => {
                    serialize::to_pg_schema(&result.schema, SchemaMode::Strict)
                }
                OutputFormat::PgSchemaLoose => {
                    serialize::to_pg_schema(&result.schema, SchemaMode::Loose)
                }
                OutputFormat::Xsd => serialize::to_xsd(&result.schema),
                OutputFormat::Json => serialize::to_json(&result.schema),
            };
            if let Some(path) = out {
                fs::write(path, &text)
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
                Ok(format!(
                    "{notes}discovered {} node types, {} edge types -> {}\n",
                    result.schema.node_types.len(),
                    result.schema.edge_types.len(),
                    path.display()
                ))
            } else {
                // Keep stdout machine-parseable (it carries the schema):
                // diagnostics go to stderr.
                if !notes.is_empty() {
                    eprint!("{notes}");
                }
                Ok(text)
            }
        }

        Command::Validate {
            schema,
            input,
            mode,
        } => {
            let graph = read_graph(input)?;
            let schema = read_schema(schema)?;
            let report = validate(&graph, &schema, *mode);
            let mut text = String::new();
            let _ = writeln!(
                text,
                "checked {} nodes, {} edges: {}",
                report.nodes_checked,
                report.edges_checked,
                if report.is_valid() {
                    "VALID".to_owned()
                } else {
                    format!("{} violations", report.violations.len())
                }
            );
            for v in report.violations.iter().take(50) {
                let _ = writeln!(text, "  {v:?}");
            }
            if report.violations.len() > 50 {
                let _ = writeln!(text, "  … and {} more", report.violations.len() - 50);
            }
            Ok(text)
        }

        Command::Diff { old, new } => {
            let old = read_schema(old)?;
            let new = read_schema(new)?;
            Ok(diff(&old, &new).to_string())
        }

        Command::Stats { input } => {
            let graph = read_graph(input)?;
            Ok(format!("{}\n", GraphStats::of(&graph)))
        }

        Command::Generate {
            dataset,
            out_dir,
            scale,
            seed,
            noise,
            label_availability,
            jsonl,
        } => {
            let spec = spec_by_name(dataset)
                .ok_or_else(|| CliError::Usage(format!("unknown dataset {dataset:?}")))?
                .scaled(*scale);
            let (mut graph, _) = generate(&spec, *seed);
            if *noise > 0.0 || *label_availability < 1.0 {
                inject_noise(
                    &mut graph,
                    NoiseConfig {
                        property_removal: *noise,
                        label_availability: *label_availability,
                        seed: seed ^ 0xabcdef,
                    },
                );
            }
            fs::create_dir_all(out_dir)
                .map_err(|e| CliError::Failed(format!("creating {out_dir:?}: {e}")))?;
            let written = if *jsonl {
                let path = out_dir.join("graph.jsonl");
                fs::write(&path, pg_store::jsonl::to_jsonl(&graph))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                vec![path]
            } else {
                let nodes = out_dir.join("nodes.csv");
                let edges = out_dir.join("edges.csv");
                fs::write(&nodes, pg_store::csv::nodes_to_csv(&graph))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                fs::write(&edges, pg_store::csv::edges_to_csv(&graph))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                vec![nodes, edges]
            };
            let mut text = format!(
                "generated {} ({} nodes, {} edges):\n",
                spec.name,
                graph.node_count(),
                graph.edge_count()
            );
            for p in written {
                let _ = writeln!(text, "  {}", p.display());
            }
            Ok(text)
        }

        Command::Synth {
            schema,
            types,
            out_dir,
            size,
            seed,
            unlabeled,
            missing_optional,
            label_noise,
            missing_mandatory,
            jsonl,
            stream_chunks,
        } => {
            let truth_schema = match schema {
                Some(path) => read_schema(path)?,
                None => pg_synth::random_schema(
                    &pg_synth::SchemaParams {
                        node_types: *types,
                        edge_types: (*types * 3 / 4).max(1),
                        ..Default::default()
                    },
                    *seed,
                ),
            };
            let spec = pg_synth::SynthSpec::new(truth_schema)
                .sized_for(*size)
                .with_noise(pg_synth::NoiseProfile {
                    unlabeled_fraction: *unlabeled,
                    missing_optional_rate: *missing_optional,
                    label_noise_rate: *label_noise,
                    missing_mandatory_rate: *missing_mandatory,
                });
            fs::create_dir_all(out_dir)
                .map_err(|e| CliError::Failed(format!("creating {out_dir:?}: {e}")))?;
            if let Some(chunks) = stream_chunks {
                // Streamed emission: drain the iterator generator in
                // ~`chunks` fixed-size batches, appending as we go. The
                // chunking never touches the generator RNG, so the
                // concatenated output is bit-identical to the one-shot
                // run (and truth rows arrive already id-sorted: nodes
                // precede edges globally, ids ascend within each kind).
                use std::io::Write as _;
                let estimated = spec.schema.node_types.len() * spec.nodes_per_type
                    + spec.schema.edge_types.len() * spec.edges_per_type;
                let chunk_size = (estimated / chunks).max(1);
                let graph_path = out_dir.join("graph.jsonl");
                let types_path = out_dir.join("truth-types.csv");
                let io_err = |e: std::io::Error| CliError::Failed(e.to_string());
                let mut graph_out =
                    std::io::BufWriter::new(fs::File::create(&graph_path).map_err(io_err)?);
                let mut types_out =
                    std::io::BufWriter::new(fs::File::create(&types_path).map_err(io_err)?);
                writeln!(types_out, "kind,id,type").map_err(io_err)?;
                let (mut node_count, mut edge_count) = (0usize, 0usize);
                for chunk in pg_synth::StreamGen::new(&spec, *seed).with_chunk_size(chunk_size) {
                    for (node, name) in chunk.nodes.into_iter().zip(chunk.node_types) {
                        let id = node.id.0;
                        let line = serde_json::to_string(&pg_store::jsonl::Element::Node(node))
                            .map_err(|e| CliError::Failed(e.to_string()))?;
                        writeln!(graph_out, "{line}").map_err(io_err)?;
                        writeln!(types_out, "node,{id},{name}").map_err(io_err)?;
                        node_count += 1;
                    }
                    for (se, name) in chunk.edges.into_iter().zip(chunk.edge_types) {
                        let id = se.edge.id.0;
                        let line = serde_json::to_string(&pg_store::jsonl::Element::Edge(se.edge))
                            .map_err(|e| CliError::Failed(e.to_string()))?;
                        writeln!(graph_out, "{line}").map_err(io_err)?;
                        writeln!(types_out, "edge,{id},{name}").map_err(io_err)?;
                        edge_count += 1;
                    }
                }
                graph_out.flush().map_err(io_err)?;
                types_out.flush().map_err(io_err)?;
                let schema_path = out_dir.join("truth-schema.json");
                fs::write(&schema_path, serialize::to_json(&spec.schema))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                let mut text = format!(
                    "synthesized {node_count} nodes, {edge_count} edges from {} node types, \
                     {} edge types (seed {seed}, streamed in ~{chunks} chunks):\n",
                    spec.schema.node_types.len(),
                    spec.schema.edge_types.len(),
                );
                for p in [graph_path, schema_path, types_path] {
                    let _ = writeln!(text, "  {}", p.display());
                }
                return Ok(text);
            }
            let out = pg_synth::synthesize(&spec, *seed);
            let mut written = if *jsonl {
                let path = out_dir.join("graph.jsonl");
                fs::write(&path, pg_store::jsonl::to_jsonl(&out.graph))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                vec![path]
            } else {
                let nodes = out_dir.join("nodes.csv");
                let edges = out_dir.join("edges.csv");
                fs::write(&nodes, pg_store::csv::nodes_to_csv(&out.graph))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                fs::write(&edges, pg_store::csv::edges_to_csv(&out.graph))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
                vec![nodes, edges]
            };
            // The declared ground truth, in the same JSON the validate
            // and diff commands read back.
            let schema_path = out_dir.join("truth-schema.json");
            fs::write(&schema_path, serialize::to_json(&spec.schema))
                .map_err(|e| CliError::Failed(e.to_string()))?;
            written.push(schema_path);
            // The per-element type assignment, sorted for determinism.
            let types_path = out_dir.join("truth-types.csv");
            let mut lines = vec!["kind,id,type".to_owned()];
            let mut node_rows: Vec<_> = out.truth.node_type.iter().collect();
            node_rows.sort();
            lines.extend(node_rows.iter().map(|(id, t)| format!("node,{},{t}", id.0)));
            let mut edge_rows: Vec<_> = out.truth.edge_type.iter().collect();
            edge_rows.sort();
            lines.extend(edge_rows.iter().map(|(id, t)| format!("edge,{},{t}", id.0)));
            fs::write(&types_path, lines.join("\n") + "\n")
                .map_err(|e| CliError::Failed(e.to_string()))?;
            written.push(types_path);

            let mut text = format!(
                "synthesized {} nodes, {} edges from {} node types, {} edge types (seed {seed}):\n",
                out.graph.node_count(),
                out.graph.edge_count(),
                spec.schema.node_types.len(),
                spec.schema.edge_types.len(),
            );
            for p in written {
                let _ = writeln!(text, "  {}", p.display());
            }
            Ok(text)
        }

        Command::Serve {
            addr,
            state_dir,
            workers,
            queue,
            max_body_mb,
            max_connections,
            idle_timeout_ms,
            session_queue,
            checkpoint_every,
            checkpoint_keep,
        } => {
            let addr: std::net::SocketAddr = addr
                .parse()
                .map_err(|_| CliError::Usage(format!("--addr {addr:?} is not ip:port")))?;
            let config = pg_serve::ServerConfig {
                addr,
                workers: *workers,
                queue: *queue,
                max_body: max_body_mb * 1024 * 1024,
                state_dir: state_dir.clone(),
                checkpoint_every: *checkpoint_every,
                checkpoint_keep: *checkpoint_keep,
                max_connections: *max_connections,
                idle_timeout: std::time::Duration::from_millis(*idle_timeout_ms),
                session_queue: *session_queue,
                ..pg_serve::ServerConfig::default()
            };
            let flag = pg_serve::shutdown_flag();
            pg_serve::install_signal_handlers(&flag);
            let server = pg_serve::Server::bind(config, flag)
                .map_err(|e| CliError::Failed(format!("binding {addr}: {e}")))?;
            // Announce the resolved address before blocking so scripts
            // (and the e2e tests) can discover an ephemeral port.
            println!("listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let summary = server
                .run()
                .map_err(|e| CliError::Failed(format!("serving: {e}")))?;
            if !summary.persist_failures.is_empty() {
                return Err(CliError::State(format!(
                    "final checkpoint failed for {} session(s): {}",
                    summary.persist_failures.len(),
                    summary
                        .persist_failures
                        .iter()
                        .map(|(n, e)| format!("{n}: {e}"))
                        .collect::<Vec<_>>()
                        .join("; ")
                )));
            }
            Ok(format!(
                "shut down cleanly: {} connection(s) served, {} session(s) persisted\n",
                summary.connections, summary.sessions_persisted
            ))
        }

        Command::Hash { schema } => {
            let schema = read_schema(schema)?;
            Ok(format!("{}\n", serialize::content_hash_hex(&schema)))
        }

        Command::Merge { inputs, out } => {
            let mut states = Vec::with_capacity(inputs.len());
            let mut kind = None;
            for path in inputs {
                let text = fs::read_to_string(path)
                    .map_err(|e| CliError::Input(format!("reading {path:?}: {e}")))?;
                let (state, this) = pg_hive::merge::parse(&text)
                    .map_err(|e| CliError::Input(format!("{path:?} is {e}")))?;
                if *kind.get_or_insert(this) != this {
                    return Err(CliError::Usage(
                        "cannot mix shard-state and bare-schema inputs in one merge \
                         (their statistics are not comparable); re-run discover with \
                         --state-out to export shard states"
                            .into(),
                    ));
                }
                states.push(state);
            }
            let merged = merge_states(&states, &HiveConfig::default()).map_err(|e| match e {
                MergeError::SketchMismatch => CliError::Input(e.to_string()),
                _ => CliError::Usage(e.to_string()),
            })?;
            let text = serialize::to_json(&merged.schema);
            if let Some(path) = out {
                fs::write(path, &text)
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
                Ok(format!(
                    "merged {} input(s) -> {} node types, {} edge types -> {}\n",
                    inputs.len(),
                    merged.schema.node_types.len(),
                    merged.schema.edge_types.len(),
                    path.display()
                ))
            } else {
                Ok(text)
            }
        }
    }
}

/// Knobs of the incremental (batched / checkpointed) discover path.
struct IncrementalOpts<'a> {
    batches: usize,
    checkpoint_dir: Option<&'a Path>,
    checkpoint_every: usize,
    checkpoint_keep: usize,
    resume: bool,
    kill_after_batch: Option<usize>,
}

/// Run discovery as an incremental session over a deterministic batch
/// split, with optional durable checkpoints, crash resume, and a panic
/// boundary that writes an emergency checkpoint before reporting a
/// state error. Returns the result plus human-readable status notes
/// (resume provenance, corrupt checkpoints skipped).
fn discover_incremental(
    graph: Cow<'_, PropertyGraph>,
    config: HiveConfig,
    opts: &IncrementalOpts<'_>,
) -> Result<(DiscoveryResult, String), CliError> {
    let state_err = |e: CheckpointError| CliError::State(e.to_string());
    let mut durable = opts
        .checkpoint_dir
        .map(|d| CheckpointStore::open(d).map(|s| s.with_retention(opts.checkpoint_keep)))
        .transpose()
        .map_err(state_err)?
        .map(|store| DurableSession::new(store, opts.checkpoint_every as u64));
    let batch_list = split(graph, opts.batches, config.seed ^ BATCH_SPLIT_SALT);
    let n_batches = batch_list.len();
    let mut notes = String::new();

    let (mut session, start_batch) = match (&mut durable, opts.resume) {
        (Some(durable), true) => {
            let outcome = durable.resume().map_err(state_err)?;
            for (path, why) in &outcome.skipped {
                let _ = writeln!(
                    notes,
                    "skipped corrupt checkpoint {}: {why}",
                    path.display()
                );
            }
            match (outcome.checkpoint, outcome.path) {
                (Some(ckpt), Some(path)) => {
                    let start = ckpt.batches_processed;
                    if start > n_batches {
                        return Err(CliError::State(format!(
                            "checkpoint {} covers {start} batches but the input splits \
                             into only {n_batches} — wrong input file or --batches value?",
                            path.display(),
                        )));
                    }
                    let _ = writeln!(
                        notes,
                        "resumed from {} at batch {start}/{n_batches}",
                        path.display(),
                    );
                    let session = HiveSession::restore(config, ckpt)
                        .map_err(|e| CliError::State(e.to_string()))?;
                    // An emergency checkpoint sits between two cadence
                    // points: count the batches it holds past the last
                    // one, so the resumed run saves after the same
                    // batches an uninterrupted one does.
                    durable.tick((start % opts.checkpoint_every) as u64);
                    (session, start)
                }
                _ => {
                    let _ = writeln!(notes, "no checkpoint found; starting fresh");
                    (HiveSession::new(config), 0)
                }
            }
        }
        _ => (HiveSession::new(config), 0),
    };

    // The panic boundary: a panic anywhere in batch processing must not
    // lose the session — the last completed batch's state is written as
    // an emergency checkpoint before the error surfaces.
    let mut last_checkpoint: Option<SessionCheckpoint> = None;
    let mut completed = start_batch;
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<(), CliError> {
            // By value: each batch is freed as soon as it is processed.
            for (i, batch) in batch_list.into_iter().enumerate().skip(start_batch) {
                session.process_graph_batch(&batch);
                completed = i + 1;
                if let Some(durable) = &mut durable {
                    let ckpt = session.checkpoint();
                    if durable.tick(1) || i + 1 == n_batches {
                        durable.persist(&ckpt).map_err(state_err)?;
                    }
                    last_checkpoint = Some(ckpt);
                }
                if opts.kill_after_batch == Some(i + 1) {
                    panic!("fault injection: --kill-after-batch {}", i + 1);
                }
            }
            Ok(())
        }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(e),
        Err(_) => {
            let mut msg = format!(
                "panic during batch processing ({completed} of {n_batches} batches completed)"
            );
            if let (Some(durable), Some(ckpt)) = (&mut durable, &last_checkpoint) {
                match durable.persist(ckpt) {
                    Ok(path) => {
                        let _ = write!(msg, "; emergency checkpoint -> {}", path.display());
                    }
                    Err(e) => {
                        let _ = write!(msg, "; emergency checkpoint failed: {e}");
                    }
                }
            }
            return Err(CliError::State(msg));
        }
    }
    Ok((session.finish(), notes))
}

/// [`load`] by the form the ownership allows: a lent graph is cloned
/// record by record, an owned one is taken apart.
fn load_records(graph: Cow<'_, PropertyGraph>) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    match graph {
        Cow::Borrowed(graph) => load(graph),
        Cow::Owned(graph) => load_owned(graph),
    }
}

/// [`split_batches`] by the form the ownership allows, as [`load_records`].
fn split(graph: Cow<'_, PropertyGraph>, k: usize, seed: u64) -> Vec<GraphBatch> {
    match graph {
        Cow::Borrowed(graph) => split_batches(graph, k, seed),
        Cow::Owned(graph) => split_batches_owned(graph, k, seed),
    }
}

fn read_graph(input: &GraphInput) -> Result<PropertyGraph, CliError> {
    read_graph_with_policy(input, ErrorPolicy::Strict).map(|(g, _)| g)
}

/// Read a graph from CSV or JSONL under an error policy. Malformed
/// lines land in the returned [`Quarantine`] (empty under `Strict`,
/// which fails fast instead).
fn read_graph_with_policy(
    input: &GraphInput,
    policy: ErrorPolicy,
) -> Result<(PropertyGraph, Quarantine), CliError> {
    if let Some(jsonl) = &input.jsonl {
        let text = fs::read_to_string(jsonl)
            .map_err(|e| CliError::Input(format!("reading {jsonl:?}: {e}")))?;
        return pg_store::jsonl::from_jsonl_with_policy(&text, policy)
            .map_err(|e| CliError::Input(format!("parsing {jsonl:?}: {e}")));
    }
    let (Some(nodes_path), Some(edges_path)) = (&input.nodes, &input.edges) else {
        return Err(CliError::Usage(
            "provide either --nodes with --edges, or --jsonl".into(),
        ));
    };
    let nodes = fs::read_to_string(nodes_path)
        .map_err(|e| CliError::Input(format!("reading {nodes_path:?}: {e}")))?;
    let edges = fs::read_to_string(edges_path)
        .map_err(|e| CliError::Input(format!("reading {edges_path:?}: {e}")))?;
    pg_store::csv::graph_from_csv_with_policy(&nodes, &edges, policy)
        .map_err(|e| CliError::Input(e.to_string()))
}

fn read_schema(path: &Path) -> Result<SchemaGraph, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| CliError::Input(format!("reading {path:?}: {e}")))?;
    serde_json::from_str(&text)
        .map_err(|e| CliError::Input(format!("parsing schema {path:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::parse;
    use pg_model::{Edge, LabelSet, Node, NodeId};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pg-hive-cli-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn argv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn generate_then_discover_then_validate_round_trip() {
        let dir = tmpdir("roundtrip");
        let dir_s = dir.to_str().unwrap();

        // 1. Generate a small POLE twin.
        let out = run(&parse(&argv(&[
            "generate",
            "--dataset",
            "POLE",
            "--out-dir",
            dir_s,
            "--scale",
            "0.05",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("generated POLE"));
        let nodes = dir.join("nodes.csv");
        let edges = dir.join("edges.csv");
        assert!(nodes.exists() && edges.exists());

        // 2. Discover its schema to JSON.
        let schema_path = dir.join("schema.json");
        let out = run(&parse(&argv(&[
            "discover",
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            schema_path.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("node types"));
        assert!(schema_path.exists());

        // 3. Validate the same data against the discovered schema.
        let out = run(&parse(&argv(&[
            "validate",
            "--schema",
            schema_path.to_str().unwrap(),
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--mode",
            "strict",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("VALID"), "{out}");

        // 4. Diff the schema against itself.
        let out = run(&parse(&argv(&[
            "diff",
            "--old",
            schema_path.to_str().unwrap(),
            "--new",
            schema_path.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("identical"));

        // 5. Stats.
        let out = run(&parse(&argv(&[
            "stats",
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("nodes"));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discover_emits_each_format() {
        let dir = tmpdir("formats");
        let dir_s = dir.to_str().unwrap();
        run(&parse(&argv(&[
            "generate",
            "--dataset",
            "POLE",
            "--out-dir",
            dir_s,
            "--scale",
            "0.05",
            "--jsonl",
        ]))
        .unwrap())
        .unwrap();
        let jsonl = dir.join("graph.jsonl");
        for (fmt, marker) in [
            ("pg-schema-strict", "STRICT"),
            ("pg-schema-loose", "LOOSE"),
            ("xsd", "<?xml"),
            ("json", "node_types"),
        ] {
            let out = run(&parse(&argv(&[
                "discover",
                "--jsonl",
                jsonl.to_str().unwrap(),
                "--format",
                fmt,
            ]))
            .unwrap())
            .unwrap();
            assert!(out.contains(marker), "format {fmt}: {out:.80}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn noisy_generation_strips_labels() {
        let dir = tmpdir("noisy");
        run(&parse(&argv(&[
            "generate",
            "--dataset",
            "MB6",
            "--out-dir",
            dir.to_str().unwrap(),
            "--scale",
            "0.05",
            "--label-availability",
            "0.0",
            "--jsonl",
        ]))
        .unwrap())
        .unwrap();
        let graph =
            pg_store::jsonl::from_jsonl(&fs::read_to_string(dir.join("graph.jsonl")).unwrap())
                .unwrap();
        assert!(graph.nodes().all(|n| n.labels.is_empty()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn synth_discover_validate_round_trip() {
        let dir = tmpdir("synthtrip");
        let dir_s = dir.to_str().unwrap();

        // 1. Synthesize a clean ground-truth corpus.
        let out = run(&parse(&argv(&[
            "synth",
            "--out-dir",
            dir_s,
            "--types",
            "4",
            "--size",
            "600",
            "--seed",
            "11",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("synthesized"), "{out}");
        let nodes = dir.join("nodes.csv");
        let edges = dir.join("edges.csv");
        let truth_schema = dir.join("truth-schema.json");
        assert!(nodes.exists() && edges.exists() && truth_schema.exists());
        assert!(dir.join("truth-types.csv").exists());

        // 2. The clean corpus STRICT-validates against its declared
        // ground truth — the oracle baseline, via the CLI end to end.
        let out = run(&parse(&argv(&[
            "validate",
            "--schema",
            truth_schema.to_str().unwrap(),
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--mode",
            "strict",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("VALID"), "{out}");

        // 3. Discovery on the corpus, diffed against the ground truth:
        // every declared type must be recovered (label sets match).
        let discovered = dir.join("discovered.json");
        run(&parse(&argv(&[
            "discover",
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            discovered.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let diff_out = run(&parse(&argv(&[
            "diff",
            "--old",
            truth_schema.to_str().unwrap(),
            "--new",
            discovered.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert!(
            !diff_out.contains("- node type"),
            "discovery lost a declared node type:\n{diff_out}"
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn synth_is_deterministic_across_runs() {
        let a = tmpdir("synthdet-a");
        let b = tmpdir("synthdet-b");
        for dir in [&a, &b] {
            run(&parse(&argv(&[
                "synth",
                "--out-dir",
                dir.to_str().unwrap(),
                "--size",
                "400",
                "--seed",
                "3",
                "--unlabeled",
                "0.2",
                "--jsonl",
            ]))
            .unwrap())
            .unwrap();
        }
        for file in ["graph.jsonl", "truth-schema.json", "truth-types.csv"] {
            assert_eq!(
                fs::read_to_string(a.join(file)).unwrap(),
                fs::read_to_string(b.join(file)).unwrap(),
                "{file} differs between identical runs"
            );
        }
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }

    #[test]
    fn sharded_discover_then_merge_matches_single_node_hash() {
        let dir = tmpdir("shardmerge");
        let dir_s = dir.to_str().unwrap();
        run(&parse(&argv(&[
            "synth",
            "--out-dir",
            dir_s,
            "--types",
            "4",
            "--size",
            "800",
            "--seed",
            "5",
        ]))
        .unwrap())
        .unwrap();
        let nodes = dir.join("nodes.csv");
        let edges = dir.join("edges.csv");

        // Single-node baseline.
        let single = dir.join("single.json");
        run(&parse(&argv(&[
            "discover",
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            single.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let single_hash =
            run(&parse(&argv(&["hash", "--schema", single.to_str().unwrap()])).unwrap()).unwrap();

        // Three independent per-shard runs, states exported.
        let mut state_files = Vec::new();
        for i in 0..3 {
            let state = dir.join(format!("state-{i}.json"));
            let out = run(&parse(&argv(&[
                "discover",
                "--nodes",
                nodes.to_str().unwrap(),
                "--edges",
                edges.to_str().unwrap(),
                "--shard",
                &format!("{i}/3"),
                "--state-out",
                state.to_str().unwrap(),
                "--format",
                "json",
                "--out",
                dir.join(format!("shard-{i}.json")).to_str().unwrap(),
            ]))
            .unwrap())
            .unwrap();
            assert!(out.contains(&format!("shard {i}/3")), "{out}");
            assert!(state.exists());
            state_files.push(state);
        }

        // Merge the shard states; the canonical hash must equal the
        // single-node run's.
        let merged = dir.join("merged.json");
        let mut merge_args = vec!["merge".to_owned()];
        merge_args.extend(state_files.iter().map(|p| p.to_str().unwrap().to_owned()));
        merge_args.extend(["--out".to_owned(), merged.to_str().unwrap().to_owned()]);
        let out = run(&parse(&merge_args).unwrap()).unwrap();
        assert!(out.contains("merged 3 input(s)"), "{out}");
        let merged_hash =
            run(&parse(&argv(&["hash", "--schema", merged.to_str().unwrap()])).unwrap()).unwrap();
        assert_eq!(
            merged_hash, single_hash,
            "sharded discover + merge must reproduce the single-node hash"
        );

        let _ = fs::remove_dir_all(&dir);
    }

    /// FNV-1a of a file's bytes.
    fn digest(path: &Path) -> u64 {
        use std::hash::Hasher as _;
        let mut h = pg_model::FnvHasher::default();
        h.write(&fs::read(path).unwrap());
        h.finish()
    }

    /// `discover --jsonl <input> --format json --out <dir>/<name>.json`
    /// plus `extra`; returns the digest of the schema file.
    fn discover_digest(dir: &Path, input: &Path, name: &str, extra: &[&str]) -> u64 {
        let out = dir.join(format!("{name}.json"));
        let mut args = argv(&[
            "discover",
            "--jsonl",
            input.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ]);
        args.extend(argv(extra));
        run(&parse(&args).unwrap()).unwrap();
        digest(&out)
    }

    /// Every branch of `discover` that takes the decoded graph apart —
    /// one-shot, `--batches`, `--stream`, `--shard` — and the one that
    /// keeps it (`--refine`) must write the bytes the build that cloned
    /// every record wrote. The digests were recorded with that build
    /// (the PR 16 tree) on the same two files.
    #[test]
    fn every_discover_path_writes_the_bytes_the_cloning_build_wrote() {
        let dir = tmpdir("paths");
        run(&parse(&argv(&[
            "synth",
            "--jsonl",
            "--out-dir",
            dir.to_str().unwrap(),
            "--types",
            "6",
            "--size",
            "1500",
            "--seed",
            "9",
            "--unlabeled",
            "0.3",
        ]))
        .unwrap())
        .unwrap();
        let synth = dir.join("graph.jsonl");
        let mut got = vec![
            ("corpus", digest(&synth)),
            ("one-shot", discover_digest(&dir, &synth, "oneshot", &[])),
            (
                "batches",
                discover_digest(&dir, &synth, "batches", &["--batches", "5"]),
            ),
            (
                "stream",
                discover_digest(&dir, &synth, "stream", &["--stream", "--batches", "5"]),
            ),
        ];
        let mut merge_args = vec!["merge".to_owned()];
        for (i, name) in ["shard 0/3", "shard 1/3", "shard 2/3"]
            .into_iter()
            .enumerate()
        {
            let state = dir.join(format!("state{i}.json"));
            let extra = [
                "--shard",
                &format!("{i}/3"),
                "--state-out",
                state.to_str().unwrap(),
            ];
            got.push((
                name,
                discover_digest(&dir, &synth, &format!("shard{i}"), &extra),
            ));
            got.push(("its state", digest(&state)));
            merge_args.push(state.to_str().unwrap().to_owned());
        }
        let merged = dir.join("merged.json");
        merge_args.extend(argv(&["--out", merged.to_str().unwrap()]));
        run(&parse(&merge_args).unwrap()).unwrap();
        got.push(("merged", digest(&merged)));

        // `--refine` needs a corpus it has something to split on: two
        // unlabeled device kinds of identical structure that differ only
        // in the edges they touch (no pg-synth schema has such a pair).
        let mut g = PropertyGraph::new();
        for i in 0..40u64 {
            for (base, labels, key) in [
                (0, LabelSet::empty(), "serial"),
                (1000, LabelSet::empty(), "serial"),
                (2000, LabelSet::single("Hub"), "port"),
            ] {
                g.add_node(Node::new(base + i, labels).with_prop(key, i as i64))
                    .unwrap();
            }
            for (id, src, tgt, label) in [
                (3000 + i, i, 2000 + i, "MEASURES"),
                (4000 + i, 2000 + i, 1000 + i, "CONTROLS"),
            ] {
                g.add_edge(Edge::new(
                    id,
                    NodeId(src),
                    NodeId(tgt),
                    LabelSet::single(label),
                ))
                .unwrap();
            }
        }
        let field = dir.join("field.jsonl");
        fs::write(&field, pg_store::jsonl::to_jsonl(&g)).unwrap();
        let plain = discover_digest(&dir, &field, "field", &[]);
        let refined = discover_digest(&dir, &field, "field-refined", &["--refine"]);
        assert_ne!(refined, plain, "refinement must have split the devices");
        got.extend([
            ("field corpus", digest(&field)),
            ("field one-shot", plain),
            ("field --refine", refined),
            (
                "field --refine --batches",
                discover_digest(
                    &dir,
                    &field,
                    "field-refined-batches",
                    &["--refine", "--batches", "4"],
                ),
            ),
        ]);

        let recorded: [(&str, u64); 15] = [
            ("corpus", 0x959ead42065839a4),
            ("one-shot", 0x706252449f0e8fb8),
            ("batches", 0xe4f284858197aa58),
            ("stream", 0xe4f284858197aa58),
            ("shard 0/3", 0xa8894669d309d6bc),
            ("its state", 0xf73e1687e5b81315),
            ("shard 1/3", 0xd04d158d8f9b0d0a),
            ("its state", 0x515ac34d8d4d6dcc),
            ("shard 2/3", 0x45ef120362941746),
            ("its state", 0x93ea7e7f4862878f),
            ("merged", 0xf9deba4deaf5badc),
            ("field corpus", 0xaaa36ed5eb3281cb),
            ("field one-shot", 0x513487940cb032ad),
            ("field --refine", 0x1ce32a65108aea30),
            ("field --refine --batches", 0x99bdd35b8281fd1c),
        ];
        assert_eq!(got, recorded, "left: this build, right: the cloning build");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_mixed_and_malformed_inputs() {
        let dir = tmpdir("mergeneg");
        let dir_s = dir.to_str().unwrap();
        run(&parse(&argv(&[
            "synth",
            "--out-dir",
            dir_s,
            "--types",
            "3",
            "--size",
            "300",
            "--seed",
            "2",
        ]))
        .unwrap())
        .unwrap();
        let schema_file = dir.join("truth-schema.json");
        let state_file = dir.join("state.json");
        run(&parse(&argv(&[
            "discover",
            "--nodes",
            dir.join("nodes.csv").to_str().unwrap(),
            "--edges",
            dir.join("edges.csv").to_str().unwrap(),
            "--state-out",
            state_file.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();

        // Bare schemas merge with themselves (pessimistic algebra).
        let merged = dir.join("schemas-merged.json");
        run(&parse(&argv(&[
            "merge",
            schema_file.to_str().unwrap(),
            schema_file.to_str().unwrap(),
            "--out",
            merged.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert!(read_schema(&merged).is_ok());

        // Mixing kinds is a usage error (exit code 2).
        let err = run(&parse(&argv(&[
            "merge",
            schema_file.to_str().unwrap(),
            state_file.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);

        // Malformed JSON is an input error (exit code 3).
        let junk = dir.join("junk.json");
        fs::write(&junk, "{not json").unwrap();
        let err = run(&parse(&argv(&["merge", junk.to_str().unwrap()])).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err}");
        assert_eq!(err.exit_code(), 3);

        // A missing file is also an input error, not a panic.
        let err = run(&parse(&argv(&["merge", "/nonexistent/state.json"])).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Input(_)));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_states_sketched_with_another_seed() {
        let dir = tmpdir("mergeseed");
        let dir_s = dir.to_str().unwrap();
        let synth = [
            "synth",
            "--out-dir",
            dir_s,
            "--types",
            "3",
            "--size",
            "300",
            "--jsonl",
        ];
        run(&parse(&argv(&synth)).unwrap()).unwrap();
        let state = |seed: &str| {
            let file = dir.join(format!("state-{seed}.json"));
            run(&parse(&argv(&[
                "discover",
                "--jsonl",
                dir.join("graph.jsonl").to_str().unwrap(),
                "--stream",
                "--seed",
                seed,
                "--state-out",
                file.to_str().unwrap(),
            ]))
            .unwrap())
            .unwrap();
            file.to_str().unwrap().to_owned()
        };
        let (a, b) = (state("1"), state("2"));
        run(&parse(&argv(&["merge", &a, &a])).unwrap()).expect("one seed merges");
        let err = run(&parse(&argv(&["merge", &a, &b])).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_fail_cleanly() {
        let err = run(&parse(&argv(&["stats", "--jsonl", "/nonexistent/file.jsonl"])).unwrap())
            .unwrap_err();
        assert!(matches!(err, CliError::Input(_)));
        assert_eq!(err.exit_code(), 3);
        let err = run(&parse(&argv(&[
            "generate",
            "--dataset",
            "NOPE",
            "--out-dir",
            "/tmp/x",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }
}
