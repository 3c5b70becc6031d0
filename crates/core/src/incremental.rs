//! The incremental pipeline (Algorithm 1 / §4.6).
//!
//! A [`HiveSession`] owns the running [`DiscoveryState`] and processes
//! batch after batch: featurize → cluster → extract/merge. Post-processing
//! can run after each batch (the `postProcessing` flag) or once at the
//! end. Because every merge is monotone, the schema after batch `i+1`
//! generalizes the schema after batch `i`.

use crate::checkpoint::EmbedderRows;
use crate::cluster::{cluster_records, DedupStats, EdgeCluster, NodeCluster};
use crate::config::HiveConfig;
use crate::constraints::infer_property_constraints;
use crate::datatypes::infer_datatypes;
use crate::extract::{integrate, Cluster, MergeOptions};
use crate::features::{Embedder, FeatureSpace};
use crate::handle::SessionAux;
use crate::merge::{sorted_accums, MergeError};
use crate::pipeline::DiscoveryResult;
use crate::state::{DiscoveryState, Kind, Membership, Record, TypeAccum};
use pg_lsh::AdaptiveParams;
use pg_model::SchemaGraph;
use pg_store::{EdgeRecord, GraphBatch, NodeRecord};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one processed batch (Figure 7's data points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchTiming {
    /// 0-based batch index within the session.
    pub batch_index: usize,
    /// Inert: always 1, since a batch runs on the calling thread. Kept
    /// because the benchmark harness still reads it.
    pub threads: usize,
    /// Nodes in the batch.
    pub nodes: usize,
    /// Edges in the batch.
    pub edges: usize,
    /// Structural-fingerprint dedup of the node clustering pass
    /// (`records` = nodes in the batch, `distinct` = fingerprints
    /// actually featurized/hashed).
    pub node_dedup: DedupStats,
    /// Dedup of the edge clustering pass.
    pub edge_dedup: DedupStats,
    /// Featurization time (vector building + embedder training).
    pub preprocess: Duration,
    /// Clustering time: LSH over the distinct fingerprints, then
    /// assembly of the clusters from every record.
    pub cluster: Duration,
    /// The assembly part of `cluster`.
    pub assemble: Duration,
    /// Type extraction/merging time (Algorithm 2).
    pub extract: Duration,
    /// Post-processing time, if it ran for this batch.
    pub post: Option<Duration>,
    /// End-to-end batch time.
    pub total: Duration,
}

/// What one hot-path run hands back to [`HiveSession::process_batch`]:
/// stage durations plus the dedup statistics of the two clustering
/// passes.
struct HotPathOutcome {
    preprocess: Duration,
    cluster: Duration,
    assemble: Duration,
    extract: Duration,
    node_dedup: DedupStats,
    edge_dedup: DedupStats,
}

/// Which statistics representation a session's accumulators use. A
/// checkpoint records the mode it was written under so a resume can
/// refuse to mix exact lists with sketched estimates — the two carry
/// incompatible invariants (exact maxima vs KMV estimates), and a
/// silent mix would corrupt every downstream cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AccumMode {
    /// Exact member/endpoint lists (batch and incremental default).
    Exact,
    /// Sketched statistics (bounded-memory streaming mode).
    Sketch,
}

impl std::fmt::Display for AccumMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccumMode::Exact => "exact",
            AccumMode::Sketch => "sketch",
        })
    }
}

/// Typed rejection of a cross-mode resume: the checkpoint was written
/// under one [`AccumMode`], the resuming configuration implies the
/// other. The CLI maps this to the state-error exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeMismatch {
    /// Mode recorded in the checkpoint envelope.
    pub checkpoint: AccumMode,
    /// Mode the resuming session's configuration implies.
    pub session: AccumMode,
}

impl std::fmt::Display for ModeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint was written in {} accumulator mode but the session is configured for {} \
             mode; resume with a matching configuration instead of mixing statistics",
            self.checkpoint, self.session
        )
    }
}

impl std::error::Error for ModeMismatch {}

/// A serializable snapshot of a [`HiveSession`] (see
/// [`HiveSession::checkpoint`]). Maps are stored as pair lists so the
/// JSON form is stable and human-inspectable.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionCheckpoint {
    /// The schema discovered so far.
    pub schema: SchemaGraph,
    /// Node accumulators.
    pub node_accums: Vec<(pg_model::TypeId, crate::state::NodeTypeAccum)>,
    /// Edge accumulators.
    pub edge_accums: Vec<(pg_model::TypeId, crate::state::EdgeTypeAccum)>,
    /// Batches processed before the checkpoint.
    pub batches_processed: usize,
    /// Accumulator mode the checkpoint was written under. `None` in
    /// checkpoints from before streaming mode existed — those were
    /// always exact.
    pub mode: Option<AccumMode>,
    /// The rows of the session's trained label embedder, so that a
    /// resumed session embeds every token seen so far to the bits the
    /// interrupted one did. Absent — not `null` — where there is none:
    /// before the first labelled batch, under an embedder that trains
    /// nothing, and in checkpoints from before the embedder outlived a
    /// batch, which resume untrained and train at their next batch.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub embedder: Option<EmbedderRows>,
    /// A live session's stream-side state, in the same frame as the
    /// engine state. Absent from a bare engine checkpoint (the CLI's).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub aux: Option<SessionAux>,
    /// What the session's host needs back on restart, opaque to the
    /// engine (the server's session name, spec and quarantine total).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub host: Option<serde::Value>,
}

impl SessionCheckpoint {
    /// The accumulator mode this checkpoint was written under
    /// (pre-stream checkpoints default to exact).
    pub fn accum_mode(&self) -> AccumMode {
        self.mode.unwrap_or(AccumMode::Exact)
    }
}

/// Algorithm 2 for one kind's clusters, then — in stream mode — the
/// per-record follow-up that needs the assignment: the value samples.
fn extract_kind<R: Record, C: Cluster<Record = R, Kind = R::Kind>>(
    state: &mut DiscoveryState,
    records: &[R],
    clusters: Vec<C>,
    opts: MergeOptions,
) {
    if opts.stream.is_none() {
        integrate(state, clusters, opts);
        return;
    }
    let members: Vec<Vec<_>> = clusters
        .iter()
        .map(|c| c.parts().2.members().to_vec())
        .collect();
    let assignment = integrate(state, clusters, opts);
    let by_id: HashMap<_, &R> = records.iter().map(|r| (r.instance().id(), r)).collect();
    let accums = R::Kind::split(state).1;
    for (members, tid) in members.iter().zip(&assignment) {
        // Sketched accumulators sample property *values* for data-type
        // inference, but cluster accumulators are exact and values are
        // gone by integration time — so feed each record's values into
        // its assigned type's sketch here. (Member ids were already
        // absorbed by the merge.)
        let Some(TypeAccum {
            membership: Membership::Sketched(sk),
            ..
        }) = accums.get_mut(tid)
        else {
            continue;
        };
        for id in members {
            sk.observe_values(by_id[id].instance().props());
        }
    }
}

/// Estimated memory retained by a session's long-lived state (see
/// [`HiveSession::memory_stats`]). All figures are estimates for
/// observability gauges, not allocator ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMemoryStats {
    /// Accumulator heap bytes (members, endpoints, histograms,
    /// sketches). Grows O(records) in exact mode; bounded in stream
    /// mode.
    pub accum_bytes: usize,
}

/// An incremental schema-discovery session.
pub struct HiveSession {
    config: HiveConfig,
    state: DiscoveryState,
    /// The label embedder, lent to each batch's feature space: the first
    /// batch that carries a label trains it, and no later one does.
    embedder: Embedder,
    /// Batches applied before this process (restored from a
    /// checkpoint). Batch indices — and therefore per-batch seeds —
    /// continue from here, so a resumed session is bit-identical to an
    /// uninterrupted one.
    batch_offset: usize,
    timings: Vec<BatchTiming>,
    node_params: Option<AdaptiveParams>,
    edge_params: Option<AdaptiveParams>,
    /// Cross-batch incremental degree state for cardinality inference:
    /// per-batch post-processing folds in only the endpoint pairs
    /// appended since the last pass instead of rescanning every edge
    /// ever ingested. Not serialized — a restored session rebuilds it
    /// with one full scan on its first post-processing pass, which is
    /// bit-identical.
    card_cache: crate::cardinality::CardCache,
}

impl HiveSession {
    /// Start a session with an empty schema (`S_G ← ∅`).
    pub fn new(config: HiveConfig) -> HiveSession {
        HiveSession {
            embedder: Embedder::for_session(&config),
            config,
            state: DiscoveryState::new(),
            batch_offset: 0,
            timings: Vec::new(),
            node_params: None,
            edge_params: None,
            card_cache: crate::cardinality::CardCache::default(),
        }
    }

    /// The accumulator mode this session's configuration implies.
    pub fn accum_mode(&self) -> AccumMode {
        if self.config.stream.is_some() {
            AccumMode::Sketch
        } else {
            AccumMode::Exact
        }
    }

    /// Total batches applied to this session's state, including batches
    /// restored from a checkpoint.
    pub fn batches_processed(&self) -> usize {
        self.batch_offset + self.timings.len()
    }

    /// The session configuration.
    pub fn config(&self) -> &HiveConfig {
        &self.config
    }

    /// The schema discovered so far.
    pub fn schema(&self) -> &SchemaGraph {
        &self.state.schema
    }

    /// The full running state (schema + accumulators).
    pub fn state(&self) -> &DiscoveryState {
        &self.state
    }

    /// The session's label embedder, as the batches so far have left it.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// Per-batch timings recorded so far.
    pub fn timings(&self) -> &[BatchTiming] {
        &self.timings
    }

    /// Process one batch of loaded records (Algorithm 1, lines 3–6, plus
    /// lines 7–10 when `post_processing` is set).
    pub fn process_batch(&mut self, nodes: &[NodeRecord], edges: &[EdgeRecord]) -> BatchTiming {
        let start = Instant::now();
        let batch_index = self.batches_processed();
        let batch_seed = self.config.seed.wrapping_add(batch_index as u64 * 0x9e37);

        let hot = self.batch_hot_path(nodes, edges, batch_seed);
        let post = self.config.post_processing.then(|| {
            let t3 = Instant::now();
            self.post_process();
            t3.elapsed()
        });

        let timing = BatchTiming {
            batch_index,
            threads: 1,
            nodes: nodes.len(),
            edges: edges.len(),
            node_dedup: hot.node_dedup,
            edge_dedup: hot.edge_dedup,
            preprocess: hot.preprocess,
            cluster: hot.cluster,
            assemble: hot.assemble,
            extract: hot.extract,
            post,
            total: start.elapsed(),
        };
        self.timings.push(timing);
        timing
    }

    /// Featurize → cluster → extract/merge for one batch (Algorithm 1,
    /// lines 3–6). Returns the per-stage wall-clock durations plus the
    /// dedup statistics.
    fn batch_hot_path(
        &mut self,
        nodes: &[NodeRecord],
        edges: &[EdgeRecord],
        batch_seed: u64,
    ) -> HotPathOutcome {
        // Preprocess: train the embedder if this is the first batch to
        // carry a label, and build the per-batch feature space.
        let t0 = Instant::now();
        let fs = FeatureSpace::with_embedder(nodes, edges, &mut self.embedder);
        let preprocess = t0.elapsed();

        // Cluster nodes and edges with LSH.
        let t1 = Instant::now();
        let mut cfg = self.config.clone();
        cfg.seed = batch_seed;
        let (node_clusters, np, node_dedup, node_assemble) =
            cluster_records::<NodeCluster>(nodes, &fs, &cfg);
        let (edge_clusters, ep, edge_dedup, edge_assemble) =
            cluster_records::<EdgeCluster>(edges, &fs, &cfg);
        if np.is_some() {
            self.node_params = np;
        }
        if ep.is_some() {
            self.edge_params = ep;
        }
        let cluster = t1.elapsed();

        // Extract + merge into the running schema.
        let t2 = Instant::now();
        let opts = MergeOptions::from_config(&self.config);
        extract_kind(&mut self.state, nodes, node_clusters, opts);
        extract_kind(&mut self.state, edges, edge_clusters, opts);
        let extract = t2.elapsed();
        HotPathOutcome {
            preprocess,
            cluster,
            assemble: node_assemble + edge_assemble,
            extract,
            node_dedup,
            edge_dedup,
        }
    }

    /// Convenience wrapper over a [`GraphBatch`].
    pub fn process_graph_batch(&mut self, batch: &GraphBatch) -> BatchTiming {
        self.process_batch(&batch.nodes, &batch.edges)
    }

    /// Fold a foreign shard's discovery state into this session — the
    /// session-side half of distributed discovery (§4.6). The foreign
    /// types re-enter Algorithm 2 as clusters against the live state
    /// under this session's alignment knobs; existing type ids are never
    /// renumbered. Post-processing then re-derives constraints, data
    /// types, and cardinalities from the merged accumulators (when the
    /// config enables it), exactly as after an ingested batch. A foreign
    /// state whose sketches cannot merge with this session's is refused
    /// with nothing applied.
    pub fn merge_state(&mut self, foreign: &DiscoveryState) -> Result<(), MergeError> {
        crate::merge::fold_states(&mut self.state, std::slice::from_ref(foreign), &self.config)?;
        // A fold may rebuild or rekey edge accumulators, which breaks
        // the append-only premise of the incremental degree cache; the
        // next post-processing pass rescans from scratch.
        self.card_cache.invalidate();
        if self.config.post_processing {
            self.post_process();
        }
        Ok(())
    }

    /// Run post-processing now (constraints, data types, cardinalities).
    pub fn post_process(&mut self) {
        infer_property_constraints(&mut self.state);
        infer_datatypes(
            &mut self.state,
            self.config.datatype_sampling,
            self.config.seed,
        );
        crate::cardinality::compute_cardinalities_cached(&mut self.state, &mut self.card_cache);
    }

    /// Serialize the entire session state (schema, accumulators,
    /// embedder rows) into a checkpoint that can be persisted and
    /// restored later — streaming deployments survive restarts without
    /// reprocessing history.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            schema: self.state.schema.clone(),
            node_accums: sorted_accums(&self.state.node_accums),
            edge_accums: sorted_accums(&self.state.edge_accums),
            batches_processed: self.batches_processed(),
            mode: Some(self.accum_mode()),
            embedder: self.embedder.rows(),
            aux: None,
            host: None,
        }
    }

    /// Restore a session from a checkpoint. Per-batch timings are not
    /// part of the checkpoint; the restored session starts a fresh
    /// timing log but continues the batch numbering.
    ///
    /// Refuses a cross-mode resume: a checkpoint written with exact
    /// accumulators cannot seed a sketched session or vice versa —
    /// the statistics are not interchangeable (exact maxima vs KMV
    /// estimates), so mixing them would silently corrupt cardinality
    /// and data-type inference.
    pub fn restore(
        config: HiveConfig,
        checkpoint: SessionCheckpoint,
    ) -> Result<HiveSession, ModeMismatch> {
        let mut session = HiveSession::new(config);
        let (ckpt_mode, session_mode) = (checkpoint.accum_mode(), session.accum_mode());
        if ckpt_mode != session_mode {
            return Err(ModeMismatch {
                checkpoint: ckpt_mode,
                session: session_mode,
            });
        }
        session.batch_offset = checkpoint.batches_processed;
        session.state.schema = checkpoint.schema;
        session.state.node_accums = checkpoint.node_accums.into_iter().collect();
        session.state.edge_accums = checkpoint.edge_accums.into_iter().collect();
        if let Some(rows) = checkpoint.embedder {
            session.embedder.restore(rows);
        }
        Ok(session)
    }

    /// Estimated memory retained by the session's long-lived state —
    /// the numbers behind the server's per-session `/metrics` gauges.
    pub fn memory_stats(&self) -> SessionMemoryStats {
        SessionMemoryStats {
            accum_bytes: self.state.estimated_accum_bytes(),
        }
    }

    /// Finish the session: ensure post-processing ran at least once (the
    /// `i = n` case of Algorithm 1 line 7) and hand back the result.
    pub fn finish(mut self) -> DiscoveryResult {
        self.post_process();
        DiscoveryResult {
            schema: self.state.schema.clone(),
            state: self.state,
            node_params: self.node_params,
            edge_params: self.edge_params,
            timings: self.timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{Edge, LabelSet, Node, NodeId, PropertyGraph};
    use pg_store::split_batches;

    fn dataset(n: u64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.add_node(
                Node::new(i, LabelSet::single("Person"))
                    .with_prop("name", format!("p{i}"))
                    .with_prop("age", i as i64),
            )
            .unwrap();
            g.add_node(Node::new(n + i, LabelSet::single("Org")).with_prop("url", format!("o{i}")))
                .unwrap();
        }
        for i in 0..n {
            g.add_edge(
                Edge::new(
                    10_000 + i,
                    NodeId(i),
                    NodeId(n + i),
                    LabelSet::single("WORKS_AT"),
                )
                .with_prop("from", 2000 + i as i64),
            )
            .unwrap();
        }
        g
    }

    fn quick_config() -> HiveConfig {
        let mut c = HiveConfig::default();
        if let crate::config::EmbeddingKind::Word2Vec(ref mut w) = c.embedding {
            w.dim = 5;
            w.epochs = 2;
        }
        c.post_processing = false;
        c
    }

    #[test]
    fn incremental_matches_types_of_single_shot() {
        let g = dataset(60);
        let batches = split_batches(&g, 5, 99);

        let mut session = HiveSession::new(quick_config());
        for b in &batches {
            session.process_graph_batch(b);
        }
        let inc = session.finish();

        let single = crate::pipeline::PgHive::new(quick_config()).discover_graph(&g);

        let labels = |s: &SchemaGraph| -> Vec<String> {
            let mut v: Vec<String> = s.node_types.iter().map(|t| t.labels.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(labels(&inc.schema), labels(&single.schema));
        assert_eq!(inc.schema.edge_types.len(), single.schema.edge_types.len());
    }

    #[test]
    fn schema_chain_is_monotone_across_batches() {
        let g = dataset(40);
        let batches = split_batches(&g, 4, 5);
        let mut session = HiveSession::new(quick_config());
        let mut prev = session.schema().clone();
        for b in &batches {
            session.process_graph_batch(b);
            let cur = session.schema().clone();
            assert!(
                prev.is_generalized_by(&cur),
                "batch broke the monotone chain"
            );
            prev = cur;
        }
    }

    #[test]
    fn timings_are_recorded_per_batch() {
        let g = dataset(20);
        let batches = split_batches(&g, 3, 1);
        let mut session = HiveSession::new(quick_config());
        for b in &batches {
            session.process_graph_batch(b);
        }
        assert_eq!(session.timings().len(), 3);
        for (i, t) in session.timings().iter().enumerate() {
            assert_eq!(t.batch_index, i);
            assert_eq!(t.threads, 1, "a batch runs on the calling thread");
            assert!(t.total >= t.extract);
            assert!(t.post.is_none(), "post_processing disabled");
            // The dataset has two node structures and one edge
            // structure total, and every record reaches clustering.
            assert_eq!(t.node_dedup.records, t.nodes);
            assert_eq!(t.edge_dedup.records, t.edges);
            assert!((1..=2).contains(&t.node_dedup.distinct));
            assert!(t.edge_dedup.distinct <= 1);
            assert!(t.node_dedup.ratio() >= 1.0);
        }
    }

    #[test]
    fn per_batch_post_processing_flag() {
        let g = dataset(10);
        let mut cfg = quick_config();
        cfg.post_processing = true;
        let mut session = HiveSession::new(cfg);
        let (nodes, edges) = pg_store::load(&g);
        let t = session.process_batch(&nodes, &edges);
        assert!(t.post.is_some());
        // Constraints are already available before finish().
        let person = session
            .schema()
            .node_types
            .iter()
            .find(|t| t.labels.contains("Person"))
            .unwrap();
        assert!(person
            .properties
            .values()
            .all(|spec| spec.presence.is_some()));
    }

    #[test]
    fn checkpoint_restore_round_trips_through_json() {
        let g = dataset(40);
        let batches = split_batches(&g, 4, 2);
        let cfg = quick_config();

        // Process half, checkpoint, serialize to JSON, restore, process
        // the rest — must equal an uninterrupted session.
        let mut first = HiveSession::new(cfg.clone());
        first.process_graph_batch(&batches[0]);
        first.process_graph_batch(&batches[1]);
        let json = serde_json::to_string(&first.checkpoint()).unwrap();
        let checkpoint: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(checkpoint.batches_processed, 2);
        let mut resumed = HiveSession::restore(cfg.clone(), checkpoint).unwrap();
        resumed.process_graph_batch(&batches[2]);
        resumed.process_graph_batch(&batches[3]);
        let resumed_result = resumed.finish();

        let mut uninterrupted = HiveSession::new(cfg);
        for b in &batches {
            uninterrupted.process_graph_batch(b);
        }
        let full_result = uninterrupted.finish();

        assert_eq!(resumed_result.schema, full_result.schema);
        assert_eq!(
            resumed_result.node_assignment().len(),
            full_result.node_assignment().len()
        );
    }

    #[test]
    fn empty_batches_are_harmless() {
        let mut session = HiveSession::new(quick_config());
        session.process_batch(&[], &[]);
        let r = session.finish();
        assert!(r.schema.node_types.is_empty() && r.schema.edge_types.is_empty());
    }

    #[test]
    fn empty_batch_mid_session_changes_nothing_but_the_count() {
        let g = dataset(30);
        let batches = split_batches(&g, 2, 8);

        let mut session = HiveSession::new(quick_config());
        session.process_graph_batch(&batches[0]);
        let before = session.schema().clone();
        session.process_batch(&[], &[]);
        assert_eq!(session.schema(), &before, "empty batch mutated the schema");
        assert_eq!(session.batches_processed(), 2, "but it still counts");
        session.process_graph_batch(&batches[1]);
        let with_gap = session.finish();

        // A checkpoint taken right after the empty batch restores to the
        // same place: an idle period in a stream is representable state.
        let mut reference = HiveSession::new(quick_config());
        reference.process_graph_batch(&batches[0]);
        reference.process_batch(&[], &[]);
        let mut restored = HiveSession::restore(quick_config(), reference.checkpoint()).unwrap();
        assert_eq!(restored.batches_processed(), 2);
        restored.process_graph_batch(&batches[1]);
        let resumed = restored.finish();

        assert_eq!(with_gap.schema, resumed.schema);
    }
}
