//! Thread-safe live-session handle used by the serving layer.
//!
//! A [`SharedSession`] wraps a [`HiveSession`] behind a mutex together
//! with everything a *stream* (as opposed to a file) needs on top of the
//! batch pipeline:
//!
//! * a cumulative `NodeId → LabelSet` index so edge endpoint labels can
//!   be resolved against every node seen so far (the offline loader
//!   resolves against the full graph; a live session can only resolve
//!   against history),
//! * duplicate-element tracking with the same quarantine semantics the
//!   offline lenient loaders apply,
//! * a content-addressed [`SchemaHistory`] driven after every batch,
//! * a panic boundary: if the discovery engine panics mid-batch the
//!   session is marked broken (its in-memory state can no longer be
//!   trusted) instead of poisoning the lock — callers get a structured
//!   error and the last durable checkpoint stays authoritative.
//!
//! All of the stream-side state ([`SessionAux`]) is serializable, and
//! [`SharedSession::export`] puts it in the same frame as the engine's
//! [`SessionCheckpoint`], so a serving process persists the whole handle
//! as one file and restores it bit-identically.

use crate::config::HiveConfig;
use crate::incremental::{BatchTiming, HiveSession, SessionCheckpoint};
use crate::merge::MergeError;
use crate::serialize::{SchemaHistory, SchemaVersion};
use pg_model::{LabelSet, ModelError, SchemaGraph};
use pg_store::jsonl::Element;
use pg_store::{EdgeRecord, ErrorPolicy, NodeRecord, Quarantine};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Why an ingest call did not apply its batch.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The error policy aborted the batch (Strict, or a Cap exceeded).
    /// Nothing was applied: session state is exactly as before the call.
    Rejected(ModelError),
    /// The discovery engine panicked while processing this batch; the
    /// in-memory session state is no longer trustworthy and the session
    /// refuses further work. Resume from the last durable checkpoint.
    Engine(String),
    /// The session was already marked broken by an earlier engine
    /// failure.
    Broken(String),
    /// A merge operand cannot fold into this session (see
    /// [`MergeError`]). Nothing was applied.
    Incompatible(MergeError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Rejected(e) => write!(f, "batch rejected: {e}"),
            IngestError::Engine(m) => write!(f, "discovery engine failed: {m}"),
            IngestError::Broken(m) => {
                write!(f, "session is broken (earlier engine failure: {m})")
            }
            IngestError::Incompatible(e) => write!(f, "merge refused: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Result of one applied ingest batch.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// 0-based batch index the elements were processed as.
    pub batch_index: usize,
    /// Nodes accepted into the batch.
    pub nodes: usize,
    /// Edges accepted into the batch.
    pub edges: usize,
    /// Elements diverted to the quarantine by this call.
    pub quarantined: usize,
    /// Schema version after the batch.
    pub version: u64,
    /// Schema content hash (hex) after the batch.
    pub hash: String,
    /// Whether the batch changed the schema (minted a new version).
    pub changed: bool,
    /// Engine timing for the batch.
    pub timing: BatchTiming,
}

/// Result of one applied shard-state merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// Schema version after the merge.
    pub version: u64,
    /// Schema content hash (hex) after the merge.
    pub hash: String,
    /// Whether the merge changed the schema (minted a new version).
    pub changed: bool,
    /// Node types in the schema after the merge.
    pub node_types: usize,
    /// Edge types in the schema after the merge.
    pub edge_types: usize,
}

/// Result of a version lookup in the session's history.
#[derive(Debug, Clone, PartialEq)]
pub enum VersionLookup {
    /// The version is retained; here is its entry.
    Found(SchemaVersion),
    /// The version existed but was evicted from the bounded history.
    Evicted,
    /// The version was never assigned.
    NeverExisted,
}

/// Serializable stream-side state of a [`SharedSession`] — everything
/// beyond the engine's own [`SessionCheckpoint`] that a restart needs to
/// be bit-identical: version history, the endpoint-label index, and the
/// duplicate-tracking sets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionAux {
    /// Content-addressed schema version history.
    pub history: SchemaHistory,
    /// Cumulative `NodeId → LabelSet` index (pair list for stable JSON).
    pub node_labels: Vec<(u64, LabelSet)>,
    /// Edge ids seen so far (duplicate detection).
    pub seen_edges: Vec<u64>,
}

/// What a stream has seen so far — the state one batch is staged
/// against and, once it commits, grows: the cumulative
/// `NodeId → LabelSet` index edge endpoints resolve against, and the
/// edge ids already applied. A [`SharedSession`] keeps one per session;
/// a caller routing one stream across plain shards keeps one for the
/// whole stream.
#[derive(Debug, Default)]
pub struct StreamIndex {
    /// Labels of every node applied so far.
    pub node_labels: HashMap<u64, LabelSet>,
    /// Ids of every edge applied so far.
    pub seen_edges: HashSet<u64>,
}

/// One batch that passed [`StreamIndex::stage`]: the deduplicated nodes
/// and endpoint-resolved edges to apply, in input order.
#[derive(Debug, Default)]
pub struct StagedBatch {
    /// Nodes accepted into the batch.
    pub nodes: Vec<NodeRecord>,
    /// Edges accepted into the batch, endpoint labels resolved.
    pub edges: Vec<EdgeRecord>,
    labels: HashMap<u64, LabelSet>,
    edge_ids: HashSet<u64>,
}

impl StreamIndex {
    /// Stage one batch of parsed JSONL elements (with their 1-based
    /// line numbers) against this index under `policy`.
    ///
    /// Semantic dirt — duplicate node/edge ids, edges whose endpoints
    /// were never seen (neither in the index nor earlier in this batch)
    /// — is diverted to `quarantine` with the same reasons the offline
    /// lenient loaders produce. Edges may precede their endpoints
    /// *within* a batch (they are buffered, like the offline JSONL
    /// loader), but not across batches: a stream cannot wait forever.
    /// A pre-resolved edge carries its endpoint labels (resolved by the
    /// router against the *global* node index), so it
    /// skips the endpoint lookup entirely.
    ///
    /// The index is untouched: if the policy aborts (`Err`), nothing
    /// happened; otherwise the caller applies the batch and then
    /// [`commit`](StreamIndex::commit)s it.
    pub fn stage(
        &self,
        elements: Vec<(usize, Element)>,
        policy: ErrorPolicy,
        quarantine: &mut Quarantine,
        source: &str,
    ) -> Result<StagedBatch, ModelError> {
        let mut staged = StagedBatch::default();
        // (source line, edge, pre-resolved endpoint labels if any)
        type PendingEdge = (usize, pg_model::Edge, Option<(LabelSet, LabelSet)>);
        let mut pending_edges: Vec<PendingEdge> = Vec::new();
        let divert = |q: &mut Quarantine, line: usize, err: ModelError, raw: String| {
            q.divert(policy, source, line, err.to_string(), &raw)
        };
        // Elements are consumed by value: records move into the staging
        // buffers instead of deep-cloning every property map, which is
        // the per-row cost that dominates a serialized ingest stream.
        for (line, el) in elements {
            match el {
                Element::Node(n) => {
                    let id = n.id.0;
                    if self.node_labels.contains_key(&id) || staged.labels.contains_key(&id) {
                        divert(
                            quarantine,
                            line,
                            ModelError::DuplicateNode { node: id },
                            render(&Element::Node(n)),
                        )?;
                    } else {
                        staged.labels.insert(id, n.labels.clone());
                        staged.nodes.push(n);
                    }
                }
                Element::Edge(e) => pending_edges.push((line, e, None)),
                Element::ResolvedEdge(r) => {
                    pending_edges.push((line, r.edge, Some((r.src_labels, r.tgt_labels))))
                }
            }
        }
        for (line, e, resolved) in pending_edges {
            let id = e.id.0;
            let rerender =
                |e: pg_model::Edge, resolved: &Option<(LabelSet, LabelSet)>| match resolved {
                    Some((s, t)) => render(&Element::ResolvedEdge(EdgeRecord {
                        edge: e,
                        src_labels: s.clone(),
                        tgt_labels: t.clone(),
                    })),
                    None => render(&Element::Edge(e)),
                };
            if self.seen_edges.contains(&id) || staged.edge_ids.contains(&id) {
                divert(
                    quarantine,
                    line,
                    ModelError::DuplicateEdge { edge: id },
                    rerender(e, &resolved),
                )?;
                continue;
            }
            let (src_labels, tgt_labels) = if let Some(pair) = resolved {
                pair
            } else {
                let lookup = |nid: pg_model::NodeId| -> Option<LabelSet> {
                    staged
                        .labels
                        .get(&nid.0)
                        .or_else(|| self.node_labels.get(&nid.0))
                        .cloned()
                };
                match (lookup(e.src), lookup(e.tgt)) {
                    (Some(s), Some(t)) => (s, t),
                    (None, _) => {
                        divert(
                            quarantine,
                            line,
                            ModelError::DanglingEndpoint { node: e.src.0 },
                            render(&Element::Edge(e)),
                        )?;
                        continue;
                    }
                    (_, None) => {
                        divert(
                            quarantine,
                            line,
                            ModelError::DanglingEndpoint { node: e.tgt.0 },
                            render(&Element::Edge(e)),
                        )?;
                        continue;
                    }
                }
            };
            staged.edge_ids.insert(id);
            staged.edges.push(EdgeRecord {
                edge: e,
                src_labels,
                tgt_labels,
            });
        }
        Ok(staged)
    }

    /// Record an applied batch: later batches deduplicate and resolve
    /// against its elements.
    pub fn commit(&mut self, staged: StagedBatch) {
        self.node_labels.extend(staged.labels);
        self.seen_edges.extend(staged.edge_ids);
    }
}

struct Inner {
    session: HiveSession,
    history: SchemaHistory,
    index: StreamIndex,
    broken: Option<String>,
}

/// A mutex-guarded live discovery session. See the module docs.
pub struct SharedSession {
    inner: Mutex<Inner>,
}

impl SharedSession {
    /// Start an empty session retaining at most `retain` schema versions.
    pub fn new(config: HiveConfig, retain: usize) -> SharedSession {
        let mut history = SchemaHistory::new(retain);
        let session = HiveSession::new(config);
        // Version 1 is the empty schema: a session is pollable (and
        // diffable-from) before its first batch arrives.
        history.observe(session.schema());
        SharedSession {
            inner: Mutex::new(Inner {
                session,
                history,
                index: StreamIndex::default(),
                broken: None,
            }),
        }
    }

    /// Restore a session from its engine checkpoint plus stream-side
    /// state, continuing batch numbering and the version counter.
    /// Fails if the checkpoint's accumulator mode does not match the
    /// mode the configuration implies (see [`HiveSession::restore`]).
    pub fn restore(
        config: HiveConfig,
        checkpoint: SessionCheckpoint,
        aux: SessionAux,
    ) -> Result<Self, crate::incremental::ModeMismatch> {
        // The frame spells every node's labels out; pool them on the
        // way in so equal sets share one allocation again, as they did
        // in the session that wrote it (there via the decoder's pool).
        let mut pool: HashSet<LabelSet> = HashSet::new();
        let node_labels = aux
            .node_labels
            .into_iter()
            .map(|(id, labels)| match pool.get(&labels) {
                Some(shared) => (id, shared.clone()),
                None => {
                    pool.insert(labels.clone());
                    (id, labels)
                }
            })
            .collect();
        Ok(SharedSession {
            inner: Mutex::new(Inner {
                session: HiveSession::restore(config, checkpoint)?,
                history: aux.history,
                index: StreamIndex {
                    node_labels,
                    seen_edges: aux.seen_edges.into_iter().collect(),
                },
                broken: None,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The engine panic boundary in `ingest` means no code path
        // panics while holding the lock, so poisoning is unreachable;
        // recover defensively anyway rather than propagating a panic
        // into a serving thread.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Ingest one batch of parsed JSONL elements (with their 1-based
    /// line numbers) under `policy`: stage it against the session's
    /// [`StreamIndex`] (see [`StreamIndex::stage`] for the quarantine
    /// rules), run the engine, commit.
    ///
    /// The batch is transactional: if the policy aborts, no element of
    /// the batch reaches the engine and the session is unchanged.
    pub fn ingest(
        &self,
        elements: Vec<(usize, Element)>,
        policy: ErrorPolicy,
        quarantine: &mut Quarantine,
        source: &str,
    ) -> Result<IngestOutcome, IngestError> {
        let mut inner = self.lock();
        if let Some(m) = &inner.broken {
            return Err(IngestError::Broken(m.clone()));
        }
        let before_quarantine = quarantine.len();
        let staged = inner
            .index
            .stage(elements, policy, quarantine, source)
            .map_err(IngestError::Rejected)?;

        // Commit: run the engine inside a panic boundary, then fold the
        // staged stream state in.
        let inner = &mut *inner;
        let timing = match catch_unwind(AssertUnwindSafe(|| {
            inner.session.process_batch(&staged.nodes, &staged.edges)
        })) {
            Ok(t) => t,
            Err(panic) => {
                let msg = panic_message(panic);
                inner.broken = Some(msg.clone());
                return Err(IngestError::Engine(msg));
            }
        };
        let (nodes, edges) = (staged.nodes.len(), staged.edges.len());
        inner.index.commit(staged);
        let (version, changed) = inner.history.observe(inner.session.schema());
        let hash = inner
            .history
            .current()
            .map(|v| v.hash.clone())
            .unwrap_or_default();
        Ok(IngestOutcome {
            batch_index: timing.batch_index,
            nodes,
            edges,
            quarantined: quarantine.len() - before_quarantine,
            version,
            hash,
            changed,
            timing,
        })
    }

    /// Fold a foreign shard's discovery state into the live session
    /// (distributed discovery, §4.6) and record the resulting schema in
    /// the version history. Runs under the same panic boundary as
    /// [`SharedSession::ingest`]: an engine panic marks the session
    /// broken instead of poisoning the lock.
    pub fn merge_state(
        &self,
        foreign: &crate::state::DiscoveryState,
    ) -> Result<MergeOutcome, IngestError> {
        let mut inner = self.lock();
        if let Some(m) = &inner.broken {
            return Err(IngestError::Broken(m.clone()));
        }
        let inner = &mut *inner;
        match catch_unwind(AssertUnwindSafe(|| inner.session.merge_state(foreign))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(IngestError::Incompatible(e)),
            Err(panic) => {
                let msg = panic_message(panic);
                inner.broken = Some(msg.clone());
                return Err(IngestError::Engine(msg));
            }
        }
        let (version, changed) = inner.history.observe(inner.session.schema());
        let hash = inner
            .history
            .current()
            .map(|v| v.hash.clone())
            .unwrap_or_default();
        let schema = inner.session.schema();
        Ok(MergeOutcome {
            version,
            hash,
            changed,
            node_types: schema.node_types.len(),
            edge_types: schema.edge_types.len(),
        })
    }

    /// Snapshot the current schema.
    pub fn schema(&self) -> SchemaGraph {
        self.lock().session.schema().clone()
    }

    /// Snapshot the full discovery state as a serializable
    /// [`crate::merge::ShardState`] — schema plus accumulators, the
    /// exchange format of exact cluster merge-on-read. Refused for
    /// broken sessions: their in-memory state must not be exported.
    pub fn shard_state(&self) -> Result<crate::merge::ShardState, IngestError> {
        let inner = self.lock();
        if let Some(m) = &inner.broken {
            return Err(IngestError::Broken(m.clone()));
        }
        Ok(crate::merge::ShardState::from_state(inner.session.state()))
    }

    /// Current `(version, content-hash-hex)`.
    pub fn version_info(&self) -> (u64, String) {
        let inner = self.lock();
        match inner.history.current() {
            Some(v) => (v.version, v.hash.clone()),
            None => (
                0,
                crate::serialize::content_hash_hex(inner.session.schema()),
            ),
        }
    }

    /// Look up a historical version.
    pub fn lookup_version(&self, version: u64) -> VersionLookup {
        let inner = self.lock();
        match inner.history.get(version) {
            Some(v) => VersionLookup::Found(v.clone()),
            None if inner.history.existed(version) => VersionLookup::Evicted,
            None => VersionLookup::NeverExisted,
        }
    }

    /// Batches applied so far (including restored ones).
    pub fn batches_processed(&self) -> usize {
        self.lock().session.batches_processed()
    }

    /// Nodes seen so far (size of the endpoint-label index).
    pub fn nodes_seen(&self) -> usize {
        self.lock().index.node_labels.len()
    }

    /// Edges seen so far.
    pub fn edges_seen(&self) -> usize {
        self.lock().index.seen_edges.len()
    }

    /// The broken-marker message, if the engine failed earlier.
    pub fn broken(&self) -> Option<String> {
        self.lock().broken.clone()
    }

    /// Estimated engine-side memory (the accumulators), for the
    /// server's per-session `/metrics` gauge.
    pub fn memory_stats(&self) -> crate::incremental::SessionMemoryStats {
        self.lock().session.memory_stats()
    }

    /// Export the engine checkpoint with the stream-side state in its
    /// `aux` field: one frame for durable persistence. Refused for broken
    /// sessions: their in-memory state must not overwrite the last good
    /// checkpoint.
    pub fn export(&self) -> Result<SessionCheckpoint, IngestError> {
        let inner = self.lock();
        if let Some(m) = &inner.broken {
            return Err(IngestError::Broken(m.clone()));
        }
        let mut node_labels: Vec<(u64, LabelSet)> = inner
            .index
            .node_labels
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        node_labels.sort_by_key(|(k, _)| *k);
        let mut seen_edges: Vec<u64> = inner.index.seen_edges.iter().copied().collect();
        seen_edges.sort_unstable();
        Ok(SessionCheckpoint {
            aux: Some(SessionAux {
                history: inner.history.clone(),
                node_labels,
                seen_edges,
            }),
            ..inner.session.checkpoint()
        })
    }
}

fn render(el: &Element) -> String {
    serde_json::to_string(el).unwrap_or_else(|_| "<unrenderable element>".to_owned())
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{Edge, LabelSet, Node, NodeId};

    fn node(id: u64, label: &str) -> (usize, Element) {
        (
            id as usize,
            Element::Node(Node::new(id, LabelSet::single(label)).with_prop("k", id as i64)),
        )
    }

    fn edge(id: u64, src: u64, tgt: u64) -> (usize, Element) {
        (
            id as usize,
            Element::Edge(Edge::new(
                id,
                NodeId(src),
                NodeId(tgt),
                LabelSet::single("R"),
            )),
        )
    }

    fn quick_config() -> HiveConfig {
        let mut c = HiveConfig::default();
        if let crate::config::EmbeddingKind::Word2Vec(ref mut w) = c.embedding {
            w.dim = 5;
            w.epochs = 2;
        }
        c
    }

    #[test]
    fn ingest_resolves_edges_against_history() {
        let s = SharedSession::new(quick_config(), 8);
        let mut q = Quarantine::new();
        // Batch 1: nodes only.
        let out = s
            .ingest(
                vec![node(1, "A"), node(2, "B")],
                ErrorPolicy::Skip,
                &mut q,
                "t",
            )
            .unwrap();
        assert_eq!(out.nodes, 2);
        assert_eq!(out.batch_index, 0);
        // Batch 2: an edge whose endpoints arrived in batch 1.
        let out = s
            .ingest(vec![edge(10, 1, 2)], ErrorPolicy::Skip, &mut q, "t")
            .unwrap();
        assert_eq!(out.edges, 1);
        assert!(q.is_empty());
        let schema = s.schema();
        let et = &schema.edge_types[0];
        assert_eq!(et.src_labels, LabelSet::single("A"));
        assert_eq!(et.tgt_labels, LabelSet::single("B"));
    }

    #[test]
    fn duplicates_and_dangling_edges_are_quarantined() {
        let s = SharedSession::new(quick_config(), 8);
        let mut q = Quarantine::new();
        s.ingest(vec![node(1, "A")], ErrorPolicy::Skip, &mut q, "t")
            .unwrap();
        let out = s
            .ingest(
                vec![node(1, "A"), edge(10, 1, 999), edge(10, 1, 1)],
                ErrorPolicy::Skip,
                &mut q,
                "t",
            )
            .unwrap();
        // Duplicate node and dangling edge are diverted. The second
        // edge reuses id 10, but the first never got past quarantine,
        // so the id was never marked seen and the self-loop goes in.
        assert_eq!(out.nodes, 0);
        assert_eq!(out.edges, 1);
        assert_eq!(out.quarantined, 2);
        assert!(q.entries()[0].reason.contains("duplicate node id 1"));
        assert!(q.entries()[1].reason.contains("unknown node id 999"));

        // Re-sending the surviving edge id now IS a duplicate.
        let out = s
            .ingest(vec![edge(10, 1, 1)], ErrorPolicy::Skip, &mut q, "t")
            .unwrap();
        assert_eq!(out.edges, 0);
        assert!(q.entries()[2].reason.contains("duplicate edge id 10"));
    }

    #[test]
    fn resolved_edges_apply_without_local_endpoints() {
        use pg_store::EdgeRecord;
        let s = SharedSession::new(quick_config(), 8);
        let mut q = Quarantine::new();
        // Neither endpoint was ever ingested here — the labels ride on
        // the record, as a stream router would ship them.
        let rec = EdgeRecord {
            edge: Edge::new(5, NodeId(100), NodeId(200), LabelSet::single("R")),
            src_labels: LabelSet::single("A"),
            tgt_labels: LabelSet::single("B"),
        };
        let out = s
            .ingest(
                vec![(1, Element::ResolvedEdge(rec.clone()))],
                ErrorPolicy::Skip,
                &mut q,
                "t",
            )
            .unwrap();
        assert_eq!(out.edges, 1);
        assert!(q.is_empty(), "{q:?}");
        let schema = s.schema();
        assert_eq!(schema.edge_types[0].src_labels, LabelSet::single("A"));
        assert_eq!(schema.edge_types[0].tgt_labels, LabelSet::single("B"));
        // Duplicate ids are still caught across element kinds.
        let out = s
            .ingest(
                vec![(2, Element::ResolvedEdge(rec))],
                ErrorPolicy::Skip,
                &mut q,
                "t",
            )
            .unwrap();
        assert_eq!(out.edges, 0);
        assert!(q.entries()[0].reason.contains("duplicate edge id 5"));
    }

    #[test]
    fn shard_state_snapshot_matches_live_schema() {
        let s = SharedSession::new(quick_config(), 8);
        let mut q = Quarantine::new();
        s.ingest(
            vec![node(1, "A"), node(2, "B"), edge(9, 1, 2)],
            ErrorPolicy::Skip,
            &mut q,
            "t",
        )
        .unwrap();
        let state = s.shard_state().unwrap();
        assert_eq!(state.schema, s.schema());
        assert_eq!(state.node_accums.len(), state.schema.node_types.len());
        // It round-trips through JSON (the wire format).
        let json = serde_json::to_string(&state).unwrap();
        let back: crate::merge::ShardState = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, state.schema);
    }

    #[test]
    fn strict_policy_rejects_atomically() {
        let s = SharedSession::new(quick_config(), 8);
        let mut q = Quarantine::new();
        s.ingest(vec![node(1, "A")], ErrorPolicy::Strict, &mut q, "t")
            .unwrap();
        let before = s.schema();
        let (before_batches, before_nodes) = (s.batches_processed(), s.nodes_seen());
        let err = s
            .ingest(
                vec![node(2, "B"), node(1, "A")],
                ErrorPolicy::Strict,
                &mut q,
                "t",
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::Rejected(_)));
        assert_eq!(s.schema(), before, "rejected batch mutated the schema");
        assert_eq!(s.batches_processed(), before_batches);
        assert_eq!(s.nodes_seen(), before_nodes, "staged node 2 leaked");
        // The offending line is still reported.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn history_versions_advance_only_on_change() {
        let s = SharedSession::new(quick_config(), 8);
        let (v, _) = s.version_info();
        assert_eq!(v, 1, "empty schema is version 1");
        let mut q = Quarantine::new();
        s.ingest(vec![node(1, "A")], ErrorPolicy::Skip, &mut q, "t")
            .unwrap();
        let (v2, h2) = s.version_info();
        assert_eq!(v2, 2);
        // An empty batch changes nothing.
        let out = s.ingest(vec![], ErrorPolicy::Skip, &mut q, "t").unwrap();
        assert!(!out.changed);
        assert_eq!(s.version_info(), (v2, h2));
        match s.lookup_version(1) {
            VersionLookup::Found(v) => assert_eq!(v.schema, SchemaGraph::new()),
            other => panic!("expected version 1, got {other:?}"),
        }
        assert_eq!(s.lookup_version(99), VersionLookup::NeverExisted);
    }

    #[test]
    fn export_restore_round_trip_is_bit_identical() {
        let cfg = quick_config();
        let a = SharedSession::new(cfg.clone(), 8);
        let mut q = Quarantine::new();
        a.ingest(
            vec![node(1, "A"), node(2, "B")],
            ErrorPolicy::Skip,
            &mut q,
            "t",
        )
        .unwrap();
        let frame = crate::checkpoint::encode(&a.export().unwrap()).unwrap();
        let mut ckpt = crate::checkpoint::decode(&frame).unwrap();
        let aux = ckpt.aux.take().expect("the frame carries the aux state");
        let b = SharedSession::restore(cfg, ckpt, aux).unwrap();

        let batch = vec![edge(10, 1, 2), node(3, "A")];
        let out_a = a
            .ingest(batch.clone(), ErrorPolicy::Skip, &mut q, "t")
            .unwrap();
        let out_b = b.ingest(batch, ErrorPolicy::Skip, &mut q, "t").unwrap();
        assert_eq!(out_a.hash, out_b.hash);
        assert_eq!(out_a.version, out_b.version);
        assert_eq!(out_a.batch_index, out_b.batch_index);
        assert_eq!(a.schema(), b.schema());
    }

    #[test]
    fn restore_shares_equal_label_sets_like_a_fresh_session() {
        let cfg = quick_config();
        let a = SharedSession::new(cfg.clone(), 8);
        let mut q = Quarantine::new();
        let nodes = (1..=40).map(|id| node(id, if id % 2 == 0 { "A" } else { "B" }));
        a.ingest(nodes.collect(), ErrorPolicy::Skip, &mut q, "t")
            .unwrap();
        let frame = crate::checkpoint::encode(&a.export().unwrap()).unwrap();
        let mut ckpt = crate::checkpoint::decode(&frame).unwrap();
        let aux = ckpt.aux.take().expect("the frame carries the aux state");
        let b = SharedSession::restore(cfg, ckpt, aux).unwrap();

        let inner = b.lock();
        let labels = &inner.index.node_labels;
        assert_eq!(labels.len(), 40);
        for id in 3..=40u64 {
            assert_eq!(labels[&id], labels[&(id - 2)]);
            assert!(
                labels[&id].ptr_eq(&labels[&(id - 2)]),
                "node {id}: two allocations for the index, not one per node"
            );
        }
        assert!(!labels[&1].ptr_eq(&labels[&2]));
    }
}
