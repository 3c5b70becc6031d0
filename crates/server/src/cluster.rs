//! `pg_cluster`: the fault-tolerant coordinator in front of N ordinary
//! pg-serve shard instances.
//!
//! The coordinator owns three responsibilities:
//!
//! * **Ingest routing.** `POST /ingest` bodies are parsed once at the
//!   coordinator, which — as the only party that sees every node —
//!   keeps the global `NodeId → LabelSet` index and the duplicate-id
//!   sets. Nodes and *endpoint-resolved* edges (`resolved_edge` lines,
//!   see [`pg_store::jsonl::Element::ResolvedEdge`]) are partitioned by
//!   id hash across the shards. Because every shard applies exactly the
//!   deduplicated, resolved elements a single node would have applied,
//!   and [`pg_hive::merge_states`] is partition- and order-invariant,
//!   the merged cluster schema is content-hash-equal to single-node
//!   discovery.
//!
//! * **Durability.** Each shard's sub-batch is appended (and fsynced)
//!   to a per-shard CRC-checksummed [`crate::wal::Wal`] *before* the
//!   client is acked. The WAL record sequence number equals the shard
//!   session's batch index plus the shard's cumulative `lost_records`
//!   offset (zero until a durable shard irrecoverably loses a trimmed
//!   prefix), and the coordinator is the sole writer of the cluster
//!   session on every shard, so recovery is exactly-once by
//!   construction: ask the shard how many batches it durably holds,
//!   translate that into seq space, replay the WAL from there. A shard
//!   killed mid-ingest (`kill -9`) loses nothing that was acked.
//!
//! * **Supervision and degraded reads.** A heartbeat thread probes each
//!   shard's `/healthz`, driving a per-shard circuit breaker
//!   (closed → open → half-open) and triggering WAL replay on recovery.
//!   `GET /schema` folds the live shards' [`pg_hive::ShardState`]s
//!   through exact merge; a down shard contributes its last cached
//!   state instead of failing the read — the response carries
//!   `degraded: true` and per-shard staleness rather than a 500.
//!
//! Per-shard work (WAL append, delivery, probes) is serialized by a
//! per-shard mutex, which is what makes the seq ↔ batch-index
//! correspondence airtight. A delivery the shard applied but whose ack
//! was lost is never re-sent: the watermark is re-read from the shard
//! immediately before every replay.
//!
//! Operational bound: the coordinator's routing state (`NodeId →
//! LabelSet`, seen edge ids) grows with the number of *distinct*
//! elements ever ingested — it is the price of exact cluster-global
//! dedup and endpoint resolution, the same O(|V|+|E|) a single-node
//! session pays. WAL *payloads* stay on disk (only a fixed-size index
//! entry per record is in memory), but the logs of non-durable shards
//! are never trimmed, so their disk footprint grows with total ingest;
//! give long-lived clusters durable shards (`--state-dir`) so
//! checkpoints let the logs trim.

use crate::backoff::{BreakerState, CircuitBreaker};
use crate::registry::SessionSpec;
use crate::shard_client::{resolve_shard_addr, ShardClient, ShardClientConfig};
use crate::wal::Wal;
use pg_hive::handle::StreamIndex;
use pg_hive::{content_hash_hex, merge_states, DiscoveryState, HiveConfig, ShardState};
use pg_model::SchemaGraph;
use pg_store::jsonl::Element;
use pg_store::{read_jsonl_elements, ErrorPolicy, LoadError, Quarantine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything a [`Coordinator`] needs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard specs (`host:port`, optionally `http://`-prefixed).
    pub shards: Vec<String>,
    /// Directory for the per-shard write-ahead logs.
    pub wal_dir: PathBuf,
    /// Session name the coordinator creates and owns on every shard.
    pub session: String,
    /// Engine spec for the shard sessions (the coordinator enforces the
    /// ingest error policy itself; shards always run lenient so that a
    /// re-delivered batch quarantines instead of aborting).
    pub spec: SessionSpec,
    /// Heartbeat interval of the health monitor.
    pub heartbeat: Duration,
    /// Consecutive failures before a shard's breaker opens.
    pub failure_threshold: u32,
    /// How long an open breaker refuses requests before half-opening.
    pub breaker_open_ms: u64,
    /// Seed for retry jitter (per-shard seeds are derived from it).
    pub seed: u64,
    /// Shard HTTP client tuning.
    pub client: ShardClientConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: Vec::new(),
            wal_dir: PathBuf::from("pg-cluster-wal"),
            session: "cluster".to_owned(),
            spec: SessionSpec::default(),
            heartbeat: Duration::from_millis(500),
            failure_threshold: 3,
            breaker_open_ms: 2_000,
            seed: 42,
            client: ShardClientConfig::default(),
        }
    }
}

/// Why a coordinator operation failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The error policy aborted the batch; nothing was applied anywhere.
    Rejected(String),
    /// The request body could not be read.
    BadBody(String),
    /// A write-ahead-log append failed; the batch was not acked.
    Wal(String),
    /// Merging shard states failed.
    Merge(String),
}

/// One accepted (acked) cluster ingest.
pub struct ClusterIngest {
    /// Cluster-wide batch number (1-based count of accepted batches).
    pub batch: u64,
    /// Nodes accepted and routed.
    pub nodes: usize,
    /// Edges accepted, resolved, and routed.
    pub edges: usize,
    /// Lines this call quarantined at the coordinator.
    pub quarantine: Quarantine,
    /// `(shard url, lines routed)` for shards that received data.
    pub routed: Vec<(String, usize)>,
    /// Shards whose delivery failed — their sub-batches are durable in
    /// the WAL and will be replayed on recovery.
    pub pending: Vec<String>,
}

/// One merged cluster schema read.
pub struct ClusterSchemaView {
    /// The merged schema.
    pub schema: SchemaGraph,
    /// Its content hash (hex).
    pub hash: String,
    /// Whether the view may be missing acked data: a shard's live
    /// state was unavailable (cached or missing snapshot stood in), a
    /// reachable shard still has a WAL backlog to replay, or records
    /// were permanently lost.
    pub degraded: bool,
    /// Per-shard read provenance.
    pub shards: Vec<ShardRow>,
}

/// Per-shard status row for `/cluster/health` and schema responses.
pub struct ShardRow {
    /// The shard's configured spec string.
    pub url: String,
    /// `"up"`, `"degraded"` (reachable, backlog pending), `"down"`, or
    /// `"unknown"` (never contacted).
    pub status: &'static str,
    /// Circuit breaker state.
    pub breaker: &'static str,
    /// WAL records appended but not yet confirmed delivered.
    pub wal_pending: u64,
    /// Age of the cached state snapshot standing in for a live read
    /// (only set when this read was degraded for this shard).
    pub stale_ms: Option<u64>,
    /// WAL seq watermark confirmed durably applied by the shard (its
    /// batch count translated by the lost-prefix offset).
    pub delivered: u64,
    /// Batches permanently lost to this shard: trimmed from the WAL
    /// against a durable checkpoint that was later wiped. Nonzero means
    /// the cluster view is incomplete for good (short of re-ingesting),
    /// and reads stay degraded.
    pub lost_records: u64,
}

impl ShardRow {
    /// The row as a JSON object.
    pub fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("url".to_owned(), serde::Value::Str(self.url.clone())),
            (
                "status".to_owned(),
                serde::Value::Str(self.status.to_owned()),
            ),
            (
                "breaker".to_owned(),
                serde::Value::Str(self.breaker.to_owned()),
            ),
            (
                "wal_pending".to_owned(),
                serde::Value::U64(self.wal_pending),
            ),
            ("delivered".to_owned(), serde::Value::U64(self.delivered)),
        ];
        if let Some(ms) = self.stale_ms {
            fields.push(("stale_ms".to_owned(), serde::Value::U64(ms)));
        }
        if self.lost_records > 0 {
            fields.push((
                "lost_records".to_owned(),
                serde::Value::U64(self.lost_records),
            ));
        }
        serde::Value::Object(fields)
    }
}

struct ShardRuntime {
    client: ShardClient,
    breaker: CircuitBreaker,
    wal: Wal,
    /// The WAL-seq watermark confirmed durably applied (the shard's
    /// batch count translated into seq space, as of the last successful
    /// sync; re-read from the shard before every sync).
    delivered: u64,
    /// Records the shard is missing that the WAL can no longer supply —
    /// its prefix was trimmed against a durable checkpoint that has
    /// since been wiped (a durable shard restarted with a fresh state
    /// dir). Permanent loss: reads stay degraded and the count is
    /// surfaced rather than quietly merging a partial view. Doubles as
    /// the offset between the shard's batch numbering (which restarts
    /// at the loss point) and WAL seq space — see [`seq_watermark`].
    lost_records: u64,
    /// Last fetched shard state, kept for degraded reads.
    last_state: Option<ShardState>,
    last_state_at_ms: Option<u64>,
    last_ok_ms: Option<u64>,
}

struct Shard {
    url: String,
    runtime: Mutex<ShardRuntime>,
}

/// Global stream-side state the coordinator deduplicates and resolves
/// against: the same index a [`pg_hive::SharedSession`] keeps per
/// session, lifted to the whole cluster.
#[derive(Default)]
struct Routing {
    index: StreamIndex,
    quarantined_total: u64,
    batches: u64,
}

/// The cluster coordinator. See the module docs.
pub struct Coordinator {
    config: ClusterConfig,
    hive_config: HiveConfig,
    policy: ErrorPolicy,
    shards: Vec<Shard>,
    routing: Mutex<Routing>,
    started: Instant,
    retries: AtomicU64,
    wal_appends: AtomicU64,
    wal_replayed: AtomicU64,
    degraded_reads: AtomicU64,
}

impl Coordinator {
    /// Build a coordinator: resolve every shard spec and open (replay)
    /// its WAL. Returns warnings for WAL tails that had to be truncated.
    pub fn new(config: ClusterConfig) -> std::io::Result<(Coordinator, Vec<String>)> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cluster mode needs at least one shard",
            ));
        }
        let policy = config
            .spec
            .policy()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let mut shards = Vec::with_capacity(config.shards.len());
        let mut warnings = Vec::new();
        for (i, spec) in config.shards.iter().enumerate() {
            let addr = resolve_shard_addr(spec)?;
            let wal_path = config.wal_dir.join(format!("shard-{i:02}.wal"));
            let (wal, truncated) = Wal::open(&wal_path)?;
            if let Some(w) = truncated {
                warnings.push(format!("shard {spec}: {w}"));
            }
            shards.push(Shard {
                url: spec.clone(),
                runtime: Mutex::new(ShardRuntime {
                    client: ShardClient::new(
                        addr,
                        config.seed ^ (i as u64 + 1),
                        config.client.clone(),
                    ),
                    breaker: CircuitBreaker::new(config.failure_threshold, config.breaker_open_ms),
                    wal,
                    delivered: 0,
                    lost_records: 0,
                    last_state: None,
                    last_state_at_ms: None,
                    last_ok_ms: None,
                }),
            });
        }
        Ok((
            Coordinator {
                hive_config: config.spec.hive_config(),
                policy,
                config,
                shards,
                routing: Mutex::new(Routing::default()),
                started: Instant::now(),
                retries: AtomicU64::new(0),
                wal_appends: AtomicU64::new(0),
                wal_replayed: AtomicU64::new(0),
                degraded_reads: AtomicU64::new(0),
            },
            warnings,
        ))
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn shard_of(&self, id: u64) -> usize {
        // Fibonacci hashing: spreads dense synthetic id ranges evenly.
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
    }

    /// Route one JSONL batch across the cluster: dedup and resolve at
    /// the coordinator, WAL-append each shard's sub-batch, ack, then
    /// attempt delivery. Delivery failures do not fail the call — the
    /// sub-batch is durable and replayed when the shard recovers.
    pub fn ingest(&self, body: &[u8]) -> Result<ClusterIngest, ClusterError> {
        let (elements, mut quarantine) =
            read_jsonl_elements(&mut &body[..], self.policy).map_err(|e| match e {
                LoadError::Policy(m) => ClusterError::Rejected(m.to_string()),
                LoadError::Io(m) => ClusterError::BadBody(m.to_string()),
            })?;

        let mut routing = self.routing.lock().unwrap_or_else(|p| p.into_inner());

        // Stage with the single-node rule itself (`StreamIndex::stage`,
        // the one `SharedSession::ingest` runs). If the policy aborts,
        // nothing has been appended or committed.
        let mut staged = routing
            .index
            .stage(elements, self.policy, &mut quarantine, "cluster")
            .map_err(|e| ClusterError::Rejected(e.to_string()))?;
        let mut batches: Vec<String> = vec![String::new(); self.shards.len()];
        let mut batch_lines: Vec<usize> = vec![0; self.shards.len()];
        let mut route = |id: u64, el: &Element| {
            let shard = self.shard_of(id);
            batches[shard].push_str(
                &serde_json::to_string(el).unwrap_or_else(|_| "<unrenderable>".to_owned()),
            );
            batches[shard].push('\n');
            batch_lines[shard] += 1;
        };
        let (staged_nodes, staged_edges) = (staged.nodes.len(), staged.edges.len());
        for n in std::mem::take(&mut staged.nodes) {
            route(n.id.0, &Element::Node(n));
        }
        for e in std::mem::take(&mut staged.edges) {
            route(e.edge.id.0, &Element::ResolvedEdge(e));
        }

        // Durability point: every non-empty sub-batch goes to its
        // shard's WAL (fsynced) before the routing state commits. If an
        // append fails the call errors *without* committing — already-
        // appended sub-batches will be delivered anyway, but that is
        // harmless: the client's retry re-stages the same elements, and
        // the shards' own duplicate-id tracking quarantines the extra
        // copies without touching the schema.
        let mut fresh: Vec<Option<u64>> = vec![None; self.shards.len()];
        for (i, shard) in self.shards.iter().enumerate() {
            if batches[i].is_empty() {
                continue;
            }
            let mut rt = shard.runtime.lock().unwrap_or_else(|p| p.into_inner());
            let seq = rt
                .wal
                .append(batches[i].as_bytes())
                .map_err(|e| ClusterError::Wal(format!("shard {}: {e}", shard.url)))?;
            self.wal_appends.fetch_add(1, Ordering::Relaxed);
            fresh[i] = Some(seq);
        }

        routing.index.commit(staged);
        routing.quarantined_total += quarantine.len() as u64;
        routing.batches += 1;
        let batch = routing.batches;
        drop(routing);

        // Delivery is best-effort: the data is durable, the shard can
        // catch up later.
        let mut routed = Vec::new();
        let mut pending = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(seq) = fresh[i] else { continue };
            routed.push((shard.url.clone(), batch_lines[i]));
            let mut rt = shard.runtime.lock().unwrap_or_else(|p| p.into_inner());
            if self.sync_shard(&mut rt, Some(seq)).is_err() {
                pending.push(shard.url.clone());
            }
        }

        Ok(ClusterIngest {
            batch,
            nodes: staged_nodes,
            edges: staged_edges,
            quarantine,
            routed,
            pending,
        })
    }

    /// Bring one shard up to date: re-read its durable batch count and
    /// deliver every WAL record from there, in order. `fresh` marks the
    /// seq appended by the current ingest call so only genuinely
    /// *replayed* records count toward the replay metric. Feeds the
    /// shard's circuit breaker.
    fn sync_shard(&self, rt: &mut ShardRuntime, fresh: Option<u64>) -> Result<usize, String> {
        let now = self.now_ms();
        if !rt.breaker.allow(now) {
            return Err("circuit breaker open".to_owned());
        }
        let result = self.try_sync(rt, fresh);
        self.retries
            .fetch_add(rt.client.take_retries(), Ordering::Relaxed);
        match result {
            Ok(sent) => {
                rt.breaker.record_success();
                rt.last_ok_ms = Some(now);
                Ok(sent)
            }
            Err(e) => {
                rt.breaker.record_failure(now);
                Err(e)
            }
        }
    }

    fn try_sync(&self, rt: &mut ShardRuntime, fresh: Option<u64>) -> Result<usize, String> {
        let session = &self.config.session;
        let batches = match rt
            .client
            .request("GET", &format!("/sessions/{session}"), b"")
        {
            Ok(r) if r.status == 200 => r
                .json()
                .ok()
                .and_then(|v| v.get("batches").and_then(value_u64))
                .ok_or_else(|| "shard summary lacks a batches count".to_owned())?,
            Ok(r) if r.status == 404 => {
                self.create_session(rt)?;
                0
            }
            Ok(r) => return Err(format!("GET /sessions/{session}: http {}", r.status)),
            Err(e) => return Err(e.to_string()),
        };
        let watermark = seq_watermark(rt, batches)?;
        let records = rt
            .wal
            .read_from(watermark)
            .map_err(|e| format!("wal read: {e}"))?;
        let mut sent = 0usize;
        let mut replayed = 0u64;
        let mut next = watermark;
        for record in records {
            // X-Atomic-Batch: WAL seq ↔ shard batch index is 1:1; the
            // shard must never slice this delivery into several
            // batches.
            let resp = rt
                .client
                .request_with_headers(
                    "POST",
                    &format!("/sessions/{session}/ingest"),
                    &[("X-Atomic-Batch", "1")],
                    &record.payload,
                )
                .map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!(
                    "delivering seq {}: http {}",
                    record.seq, resp.status
                ));
            }
            sent += 1;
            next = record.seq + 1;
            if fresh != Some(record.seq) {
                replayed += 1;
            }
        }
        // Advance in *seq* space — the shard's batch count lags it by
        // `lost_records` once a prefix is gone for good.
        rt.delivered = next;
        self.wal_replayed.fetch_add(replayed, Ordering::Relaxed);
        Ok(sent)
    }

    fn create_session(&self, rt: &mut ShardRuntime) -> Result<(), String> {
        // Shards run lenient regardless of the coordinator policy: the
        // coordinator already enforced it, and re-delivered batches must
        // quarantine their duplicates, not abort.
        let mut spec = self.config.spec.clone();
        spec.on_error = ErrorPolicy::Skip.to_string();
        let json = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        let mut value: serde::Value = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        if let serde::Value::Object(fields) = &mut value {
            fields.push((
                "name".to_owned(),
                serde::Value::Str(self.config.session.clone()),
            ));
        }
        let body = serde_json::to_string(&value).map_err(|e| e.to_string())?;
        let resp = rt
            .client
            .request("POST", "/sessions", body.as_bytes())
            .map_err(|e| e.to_string())?;
        match resp.status {
            201 | 409 => Ok(()),
            s => Err(format!("POST /sessions: http {s}")),
        }
    }

    /// Merge-on-read: fetch every shard's live [`ShardState`], fall back
    /// to the cached snapshot for unreachable shards, and fold through
    /// [`merge_states`]. Never 500s on a down shard — the view is marked
    /// degraded instead.
    pub fn schema(&self) -> Result<ClusterSchemaView, ClusterError> {
        let mut states: Vec<DiscoveryState> = Vec::new();
        let mut rows = Vec::new();
        let mut degraded = false;
        for shard in &self.shards {
            let mut rt = shard.runtime.lock().unwrap_or_else(|p| p.into_inner());
            let now = self.now_ms();
            let mut live_ok = false;
            if rt.breaker.allow(now) {
                let path = format!("/sessions/{}/state", self.config.session);
                match rt.client.request("GET", &path, b"") {
                    Ok(r) if r.status == 200 => {
                        match serde_json::from_str::<ShardState>(&r.text()) {
                            Ok(s) => {
                                rt.last_state = Some(s);
                                rt.last_state_at_ms = Some(now);
                                rt.breaker.record_success();
                                rt.last_ok_ms = Some(now);
                                live_ok = true;
                            }
                            Err(_) => rt.breaker.record_failure(now),
                        }
                    }
                    // No session yet: the shard is reachable and holds
                    // nothing — an empty contribution, not a failure.
                    Ok(r) if r.status == 404 => {
                        rt.breaker.record_success();
                        rt.last_ok_ms = Some(now);
                        live_ok = true;
                    }
                    _ => rt.breaker.record_failure(now),
                }
                self.retries
                    .fetch_add(rt.client.take_retries(), Ordering::Relaxed);
            }
            let wal_pending = rt.wal.pending_from(rt.delivered);
            // A reachable shard still catching up contributes a live
            // state that is missing acked data — that view must not
            // read as complete either.
            if wal_pending > 0 {
                degraded = true;
            }
            let mut stale_ms = None;
            if live_ok {
                if let Some(s) = &rt.last_state {
                    if rt.last_state_at_ms == Some(now) {
                        states.push(s.clone().into_state());
                    }
                }
            } else {
                degraded = true;
                if let Some(s) = &rt.last_state {
                    states.push(s.clone().into_state());
                    stale_ms = Some(now.saturating_sub(rt.last_state_at_ms.unwrap_or(now)));
                }
            }
            // Data the WAL can no longer re-supply makes the merged view
            // permanently incomplete — the read is degraded even though
            // every shard answers.
            if rt.lost_records > 0 {
                degraded = true;
            }
            rows.push(ShardRow {
                url: shard.url.clone(),
                status: if !live_ok {
                    "down"
                } else if rt.lost_records > 0 {
                    "data_loss"
                } else if wal_pending > 0 {
                    "degraded"
                } else {
                    "up"
                },
                breaker: rt.breaker.state().as_str(),
                wal_pending,
                stale_ms,
                delivered: rt.delivered,
                lost_records: rt.lost_records,
            });
        }
        if degraded {
            self.degraded_reads.fetch_add(1, Ordering::Relaxed);
        }
        let schema = if states.is_empty() {
            SchemaGraph::new()
        } else {
            merge_states(&states, &self.hive_config)
                .map_err(|e| ClusterError::Merge(format!("{e:?}")))?
                .schema
        };
        let hash = content_hash_hex(&schema);
        Ok(ClusterSchemaView {
            schema,
            hash,
            degraded,
            shards: rows,
        })
    }

    /// Membership as the monitor currently sees it — no network calls,
    /// so `/cluster/health` stays cheap and safe to poll.
    pub fn health(&self) -> serde::Value {
        let mut rows = Vec::new();
        let mut all_up = true;
        for shard in &self.shards {
            let rt = shard.runtime.lock().unwrap_or_else(|p| p.into_inner());
            let wal_pending = rt.wal.pending_from(rt.delivered);
            let status = if rt.lost_records > 0 {
                "data_loss"
            } else {
                match rt.breaker.state() {
                    BreakerState::Open => "down",
                    BreakerState::HalfOpen => "degraded",
                    BreakerState::Closed => match rt.last_ok_ms {
                        None => "unknown",
                        Some(_) if wal_pending > 0 => "degraded",
                        Some(_) => "up",
                    },
                }
            };
            if status != "up" {
                all_up = false;
            }
            rows.push(
                ShardRow {
                    url: shard.url.clone(),
                    status,
                    breaker: rt.breaker.state().as_str(),
                    wal_pending,
                    stale_ms: None,
                    delivered: rt.delivered,
                    lost_records: rt.lost_records,
                }
                .to_value(),
            );
        }
        let routing = self.routing.lock().unwrap_or_else(|p| p.into_inner());
        serde::Value::Object(vec![
            (
                "status".to_owned(),
                serde::Value::Str(if all_up { "ok" } else { "degraded" }.to_owned()),
            ),
            ("batches".to_owned(), serde::Value::U64(routing.batches)),
            (
                "quarantined_total".to_owned(),
                serde::Value::U64(routing.quarantined_total),
            ),
            ("shards".to_owned(), serde::Value::Array(rows)),
        ])
    }

    /// One health-monitor pass: probe every shard, drive its breaker,
    /// replay pending WAL records to recovered shards, and trim each
    /// WAL below what its shard has durably checkpointed.
    pub fn heartbeat_tick(&self) {
        for shard in &self.shards {
            let mut rt = shard.runtime.lock().unwrap_or_else(|p| p.into_inner());
            let now = self.now_ms();
            if !rt.breaker.allow(now) {
                continue;
            }
            let probe = rt.client.request("GET", "/healthz", b"");
            self.retries
                .fetch_add(rt.client.take_retries(), Ordering::Relaxed);
            match probe {
                Ok(r) if r.status == 200 => {
                    rt.breaker.record_success();
                    rt.last_ok_ms = Some(now);
                    // A shard that answers /healthz may still have lost
                    // state (killed and restarted between probes, or
                    // resumed from an older checkpoint). Re-read its
                    // durable batch count and refresh the watermark —
                    // otherwise the pending check below trusts stale
                    // memory and the replay never happens, quietly
                    // dropping that shard's share of the data from
                    // every future read. `seq_watermark` also detects
                    // unrecoverable loss: if the log was fully trimmed
                    // there is nothing pending, so `try_sync` (which
                    // also checks) would never run.
                    if let Some(summary) = self.fetch_summary(&mut rt) {
                        let batches = summary.get("batches").and_then(value_u64).unwrap_or(0);
                        if let Ok(watermark) = seq_watermark(&mut rt, batches) {
                            // The shard's own durable count is the
                            // authority, in both directions: a regression
                            // means a wipe to replay, an advance means an
                            // ack we lost.
                            rt.delivered = watermark;
                            if rt.wal.pending_from(watermark) > 0 {
                                let _ = self.sync_shard(&mut rt, None);
                            }
                            self.maybe_trim(&mut rt, &summary);
                        }
                    }
                }
                _ => rt.breaker.record_failure(now),
            }
        }
    }

    /// The shard's current cluster-session summary: the summary JSON
    /// when the session exists, `Null` when the shard answers but holds
    /// no session (so its durable batch count is zero), `None` when the
    /// shard is unreachable or answered abnormally (no information —
    /// leave cached state alone).
    fn fetch_summary(&self, rt: &mut ShardRuntime) -> Option<serde::Value> {
        let resp = rt
            .client
            .request("GET", &format!("/sessions/{}", self.config.session), b"");
        self.retries
            .fetch_add(rt.client.take_retries(), Ordering::Relaxed);
        match resp {
            Ok(r) if r.status == 200 => r.json().ok(),
            Ok(r) if r.status == 404 => Some(serde::Value::Null),
            _ => None,
        }
    }

    /// Drop WAL records the shard has durably checkpointed. Non-durable
    /// shards report a checkpoint lag equal to their batch count, so
    /// their WALs are never trimmed — a restart of such a shard loses
    /// its memory and needs the full log back.
    fn maybe_trim(&self, rt: &mut ShardRuntime, summary: &serde::Value) {
        let durable = summary
            .get("durable")
            .map(|v| matches!(v, serde::Value::Bool(true)))
            .unwrap_or(false);
        if !durable {
            return;
        }
        let (Some(batches), Some(lag)) = (
            summary.get("batches").and_then(value_u64),
            summary.get("checkpoint_lag").and_then(value_u64),
        ) else {
            return;
        };
        // The checkpointed batch count is in the shard's numbering;
        // translate into seq space before using it as a trim bound.
        let _ = rt
            .wal
            .trim_below(batches.saturating_sub(lag) + rt.lost_records);
    }

    /// Cluster counters and per-shard gauges in Prometheus text format,
    /// appended to the base `/metrics` output.
    pub fn render_metrics(&self) -> String {
        let mut out = String::with_capacity(1024);
        let routing = self.routing.lock().unwrap_or_else(|p| p.into_inner());
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            &mut out,
            "pg_cluster_batches_total",
            "Ingest batches accepted by the coordinator.",
            routing.batches,
        );
        counter(
            &mut out,
            "pg_cluster_quarantined_total",
            "Lines quarantined at the coordinator.",
            routing.quarantined_total,
        );
        drop(routing);
        counter(
            &mut out,
            "pg_cluster_shard_retries_total",
            "Shard requests retried after transport failures or 503s.",
            self.retries.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "pg_cluster_wal_appends_total",
            "Sub-batches appended to shard write-ahead logs.",
            self.wal_appends.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "pg_cluster_wal_replayed_records_total",
            "WAL records re-delivered to recovering shards.",
            self.wal_replayed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "pg_cluster_degraded_reads_total",
            "Schema reads answered from a partially cached view.",
            self.degraded_reads.load(Ordering::Relaxed),
        );
        let opens: u64 = self
            .shards
            .iter()
            .map(|s| {
                s.runtime
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .breaker
                    .opens()
            })
            .sum();
        counter(
            &mut out,
            "pg_cluster_breaker_opens_total",
            "Circuit breaker open transitions across all shards.",
            opens,
        );
        out.push_str(
            "# HELP pg_cluster_shard_up Shard liveness (1 up, 0 down/unknown).\n\
             # TYPE pg_cluster_shard_up gauge\n",
        );
        let mut pending_lines = String::new();
        let mut lost_lines = String::new();
        for shard in &self.shards {
            let rt = shard.runtime.lock().unwrap_or_else(|p| p.into_inner());
            let up = matches!(rt.breaker.state(), BreakerState::Closed) && rt.last_ok_ms.is_some();
            out.push_str(&format!(
                "pg_cluster_shard_up{{shard=\"{}\"}} {}\n",
                shard.url,
                u8::from(up)
            ));
            pending_lines.push_str(&format!(
                "pg_cluster_shard_wal_pending{{shard=\"{}\"}} {}\n",
                shard.url,
                rt.wal.pending_from(rt.delivered)
            ));
            lost_lines.push_str(&format!(
                "pg_cluster_shard_lost_records{{shard=\"{}\"}} {}\n",
                shard.url, rt.lost_records
            ));
        }
        out.push_str(
            "# HELP pg_cluster_shard_wal_pending WAL records awaiting delivery per shard.\n\
             # TYPE pg_cluster_shard_wal_pending gauge\n",
        );
        out.push_str(&pending_lines);
        out.push_str(
            "# HELP pg_cluster_shard_lost_records Batches unrecoverable after a durable \
             shard lost its checkpointed state (WAL prefix already trimmed).\n\
             # TYPE pg_cluster_shard_lost_records gauge\n",
        );
        out.push_str(&lost_lines);
        out
    }
}

/// Translate a shard-reported durable batch count into WAL seq space.
///
/// A shard that irrecoverably lost a prefix restarts its batch
/// numbering at the loss point, so its batch index lags the WAL seq by
/// the cumulative lost-record count. Two anomalies are resolved here,
/// in order:
///
/// * the WAL fell behind the shard (`watermark > next_seq`: its file
///   was replaced or wiped while the shard kept its state) — fast-
///   forward the log so fresh appends never reuse seqs the shard
///   already holds, which would strand them below the watermark forever;
/// * the retained log no longer reaches down to the watermark (its
///   prefix was trimmed against a durable checkpoint that has since
///   been wiped) — the gap is permanent loss: add it to `lost_records`
///   and resume from the log's floor, so replay delivers contiguous
///   seqs and the shard's new batch numbering stays aligned.
fn seq_watermark(rt: &mut ShardRuntime, batches: u64) -> Result<u64, String> {
    let mut watermark = batches + rt.lost_records;
    if watermark > rt.wal.next_seq() {
        rt.wal
            .align_to(watermark)
            .map_err(|e| format!("wal align: {e}"))?;
    }
    let floor = rt.wal.first_seq().unwrap_or_else(|| rt.wal.next_seq());
    if floor > watermark {
        rt.lost_records += floor - watermark;
        watermark = floor;
    }
    Ok(watermark)
}

fn value_u64(v: &serde::Value) -> Option<u64> {
    match v {
        serde::Value::U64(n) => Some(*n),
        serde::Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_addr() -> String {
        // Bind-then-drop: a port with nothing listening.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        format!("{}", l.local_addr().unwrap())
    }

    fn quick_coordinator(n: usize, tag: &str) -> (Coordinator, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "pg-cluster-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            shards: (0..n).map(|_| dead_addr()).collect(),
            wal_dir: dir.clone(),
            client: ShardClientConfig {
                connect_timeout: Duration::from_millis(50),
                io_timeout: Duration::from_millis(100),
                max_retries: 0,
                backoff_base_ms: 1,
                backoff_cap_ms: 2,
            },
            ..ClusterConfig::default()
        };
        let (c, warnings) = Coordinator::new(config).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        (c, dir)
    }

    #[test]
    fn ingest_acks_after_wal_even_with_every_shard_down() {
        let (c, dir) = quick_coordinator(2, "ack");
        let body = b"{\"kind\":\"node\",\"id\":1,\"labels\":[\"A\"],\"props\":{}}\n\
                     {\"kind\":\"node\",\"id\":2,\"labels\":[\"B\"],\"props\":{}}\n\
                     {\"kind\":\"edge\",\"id\":9,\"src\":1,\"tgt\":2,\"labels\":[\"R\"],\"props\":{}}\n";
        let out = c.ingest(body).unwrap();
        assert_eq!(out.nodes, 2);
        assert_eq!(out.edges, 1);
        assert!(out.quarantine.is_empty());
        assert_eq!(
            out.pending.len(),
            out.routed.len(),
            "every delivery failed, but the batch was still acked"
        );
        // The data survived to disk.
        let total_pending: usize = c
            .shards
            .iter()
            .map(|s| s.runtime.lock().unwrap().wal.len())
            .sum();
        assert!(total_pending >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinator_dedup_matches_single_node_semantics() {
        let (c, dir) = quick_coordinator(2, "dedup");
        let first = b"{\"kind\":\"node\",\"id\":1,\"labels\":[\"A\"],\"props\":{}}\n";
        c.ingest(first).unwrap();
        // Duplicate node, dangling edge, then a valid self-loop reusing
        // the quarantined edge's id — mirrors the `SharedSession` test.
        let second = b"{\"kind\":\"node\",\"id\":1,\"labels\":[\"A\"],\"props\":{}}\n\
                       {\"kind\":\"edge\",\"id\":10,\"src\":1,\"tgt\":999,\"labels\":[\"R\"],\"props\":{}}\n\
                       {\"kind\":\"edge\",\"id\":10,\"src\":1,\"tgt\":1,\"labels\":[\"R\"],\"props\":{}}\n";
        let out = c.ingest(second).unwrap();
        assert_eq!(out.nodes, 0);
        assert_eq!(out.edges, 1);
        assert_eq!(out.quarantine.len(), 2);
        assert!(out.quarantine.entries()[0]
            .reason
            .contains("duplicate node"));
        assert!(out.quarantine.entries()[1].reason.contains("unknown node"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermarks_translate_through_lost_prefixes() {
        let dir = std::env::temp_dir().join(format!(
            "pg-cluster-test-watermark-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut wal, _) = Wal::open(&dir.join("w.wal")).unwrap();
        for i in 0..5u8 {
            wal.append(&[i]).unwrap();
        }
        // A durable checkpoint covered seqs 0..3, so they were trimmed.
        wal.trim_below(3).unwrap();
        let mut rt = ShardRuntime {
            client: ShardClient::new(
                dead_addr().parse().unwrap(),
                1,
                ShardClientConfig::default(),
            ),
            breaker: CircuitBreaker::new(3, 100),
            wal,
            delivered: 0,
            lost_records: 0,
            last_state: None,
            last_state_at_ms: None,
            last_ok_ms: None,
        };
        // Shard restarted with a wiped state dir: its batch count
        // regressed to 0, but seqs 0..3 are gone from the log —
        // permanent loss, and replay resumes at the floor.
        assert_eq!(seq_watermark(&mut rt, 0).unwrap(), 3);
        assert_eq!(rt.lost_records, 3);
        // Re-checking the same regressed count must not double-count.
        assert_eq!(seq_watermark(&mut rt, 0).unwrap(), 3);
        assert_eq!(rt.lost_records, 3);
        // The shard re-applies the two retained records as its batches
        // 0 and 1; the count translates back into seq space, so nothing
        // is re-delivered and trim bounds stay aligned.
        assert_eq!(seq_watermark(&mut rt, 2).unwrap(), 5);
        assert_eq!(rt.lost_records, 3);
        assert_eq!(rt.wal.pending_from(5), 0);
        // A WAL that fell behind its shard (file replaced while the
        // shard kept its state) fast-forwards: fresh appends must not
        // reuse seqs the shard already holds.
        let (wal2, _) = Wal::open(&dir.join("w2.wal")).unwrap();
        rt.wal = wal2;
        rt.lost_records = 0;
        assert_eq!(seq_watermark(&mut rt, 4).unwrap(), 4);
        assert_eq!(rt.lost_records, 0, "nothing pending, nothing lost");
        assert_eq!(rt.wal.next_seq(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_on_unreachable_cluster_is_degraded_not_an_error() {
        let (c, dir) = quick_coordinator(2, "degraded");
        let view = c.schema().unwrap();
        assert!(view.degraded);
        assert!(view.schema.node_types.is_empty());
        assert_eq!(view.hash, content_hash_hex(&SchemaGraph::new()));
        assert!(view.shards.iter().all(|r| r.status == "down"));
        let health = c.health();
        assert_eq!(
            health.get("status").and_then(|v| v.as_str()),
            Some("degraded")
        );
        let metrics = c.render_metrics();
        assert!(metrics.contains("pg_cluster_degraded_reads_total 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
