//! Named live discovery sessions and their durable state.
//!
//! The [`Registry`] owns every session by name. Each [`LiveSession`]
//! wraps a thread-safe [`SharedSession`] plus the serving-side extras:
//! its creation-time [`SessionSpec`], lifetime counters, and (when the
//! server runs with a state directory) a per-session on-disk layout
//!
//! ```text
//! state_dir/<name>/ckpt/ckpt-<seq>.pghive    one frame per persist
//! ```
//!
//! Each frame is a `PGHIVE-CKPT v3` checkpoint that holds the whole
//! session: the engine state, the stream-side state (`aux`), and the
//! session's name, spec and quarantine total (`host`). A
//! [`DurableSession`] writes it atomically at session creation, on the
//! configured batch cadence, and at graceful shutdown, so a restarted
//! server resumes every session bit-identically from its newest valid
//! frame, and no crash can leave two files that disagree.
//!
//! Builds before v3 kept the host fields and the aux state in a
//! `state_dir/<name>/session.json` beside v1 / v2 checkpoints. Such a
//! directory still resumes: a frame without host fields is paired with
//! that file, and only if the file's current schema version hashes like
//! the frame's schema, so a `session.json` one save behind its newest
//! checkpoint resumes from the checkpoint it was written with.

use crate::metrics::SessionStats;
use pg_hive::{
    content_hash_hex, CheckpointStore, DiscoveryState, DurableSession, HiveConfig, IngestError,
    IngestOutcome, LshMethod, MergeOutcome, SessionAux, SessionCheckpoint, SharedSession,
};
use pg_store::{read_jsonl_elements_with, ErrorPolicy, JsonlDecoder, LoadError, Quarantine};
use serde::{Deserialize as _, Serialize as _};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// User-settable knobs of a session, fixed at creation and persisted in
/// every frame so a restart rebuilds the identical engine configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SessionSpec {
    /// Master seed for the deterministic pipeline.
    pub seed: u64,
    /// Merge similarity threshold θ.
    pub theta: f64,
    /// Clustering family: `"elsh"` or `"minhash"`.
    pub method: String,
    /// Inert: discovery runs on the session's worker thread. Still
    /// accepted by `POST /sessions` and written in persisted frames, so
    /// old clients and state directories keep working.
    pub threads: u64,
    /// Ingest error policy: `"strict"`, `"skip"`, or `"cap:N"`.
    pub on_error: String,
    /// Checkpoint every N applied batches (0 = only at shutdown).
    pub checkpoint_every: u64,
    /// Schema versions retained for `diff?from=`.
    pub history_retain: u64,
    /// Accumulator mode: `"exact"` (default) or `"stream"` (bounded-
    /// memory sketches). `None` in a `session.json` written before the
    /// field existed, meaning exact.
    pub mode: Option<String>,
}

impl Default for SessionSpec {
    fn default() -> SessionSpec {
        SessionSpec {
            seed: 42,
            theta: 0.9,
            method: LshMethod::Elsh.to_string(),
            threads: 0,
            on_error: ErrorPolicy::Skip.to_string(),
            checkpoint_every: 8,
            history_retain: 64,
            mode: None,
        }
    }
}

fn as_u64(v: &serde::Value) -> Option<u64> {
    match v {
        serde::Value::U64(n) => Some(*n),
        serde::Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn as_f64(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::F64(n) => Some(*n),
        serde::Value::U64(n) => Some(*n as f64),
        serde::Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

impl SessionSpec {
    /// Parse a spec from a `POST /sessions` body, starting from
    /// `defaults` and overriding any field present. Unknown fields are
    /// rejected so typos fail loudly instead of silently configuring
    /// nothing.
    pub fn from_value(body: &serde::Value, defaults: &SessionSpec) -> Result<SessionSpec, String> {
        let obj = body
            .as_object()
            .ok_or_else(|| "request body must be a JSON object".to_owned())?;
        let mut spec = defaults.clone();
        for (key, value) in obj {
            let fail = || format!("invalid value for {key:?}");
            match key.as_str() {
                "name" => {} // handled by the caller
                "seed" => spec.seed = as_u64(value).ok_or_else(fail)?,
                "theta" => spec.theta = as_f64(value).ok_or_else(fail)?,
                "method" => spec.method = value.as_str().ok_or_else(fail)?.to_owned(),
                "threads" => spec.threads = as_u64(value).ok_or_else(fail)?,
                "on_error" => spec.on_error = value.as_str().ok_or_else(fail)?.to_owned(),
                "checkpoint_every" => spec.checkpoint_every = as_u64(value).ok_or_else(fail)?,
                "history_retain" => spec.history_retain = as_u64(value).ok_or_else(fail)?,
                // Accept an explicit null (the derive serializer emits
                // one for an unset mode, so a serialized spec posts back
                // as itself) as "leave the default".
                "mode" => match value {
                    serde::Value::Null => {}
                    _ => spec.mode = Some(value.as_str().ok_or_else(fail)?.to_owned()),
                },
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Check the cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(format!("theta must be in [0, 1], got {}", self.theta));
        }
        self.method.parse::<LshMethod>()?;
        if self.history_retain == 0 {
            return Err("history_retain must be at least 1".to_owned());
        }
        if let Some(mode) = &self.mode {
            if !matches!(mode.as_str(), "exact" | "stream") {
                return Err(format!(
                    "mode must be \"exact\" or \"stream\", got {mode:?}"
                ));
            }
        }
        self.policy().map(|_| ())
    }

    /// Whether this spec asks for bounded-memory streaming accumulators.
    pub fn is_stream(&self) -> bool {
        self.mode.as_deref() == Some("stream")
    }

    /// The engine configuration this spec describes. Fields the spec
    /// does not expose keep [`HiveConfig::default`]'s values, so a
    /// default spec discovers bit-identically to the offline CLI.
    pub fn hive_config(&self) -> HiveConfig {
        HiveConfig {
            // `validate` has refused every other spelling.
            method: self.method.parse().unwrap_or(LshMethod::Elsh),
            theta: self.theta,
            threads: self.threads as usize,
            seed: self.seed,
            stream: self.is_stream().then(pg_hive::StreamConfig::default),
            ..HiveConfig::default()
        }
    }

    /// The ingest error policy this spec describes.
    pub fn policy(&self) -> Result<ErrorPolicy, String> {
        self.on_error.parse()
    }
}

/// What a frame's `host` field holds for a served session. A legacy
/// `session.json` holds the same fields plus the aux state.
#[derive(serde::Serialize, serde::Deserialize)]
struct Host {
    name: String,
    spec: SessionSpec,
    quarantined_total: u64,
}

/// The session's quarantine total and, when it is durable, its frame
/// store and cadence. One lock over both serializes its persists.
struct Ledger {
    quarantined_total: u64,
    durable: Option<DurableSession>,
}

/// Everything one applied (or refused) ingest call produced.
pub struct IngestReport {
    /// The applied batch.
    pub outcome: IngestOutcome,
    /// Lines this call diverted (parse dirt and semantic dirt).
    pub quarantine: Quarantine,
    /// Whether this call triggered a cadence checkpoint.
    pub checkpointed: bool,
    /// Why the cadence checkpoint failed, if it did. A failed
    /// checkpoint does not fail the ingest — the batch is applied in
    /// memory and the error is surfaced for the operator.
    pub checkpoint_error: Option<String>,
}

/// Everything one applied shard-state merge produced.
pub struct MergeReport {
    /// The applied merge.
    pub outcome: MergeOutcome,
    /// Whether this call triggered a cadence checkpoint.
    pub checkpointed: bool,
    /// Why the cadence checkpoint failed, if it did (the merge itself
    /// is applied in memory regardless).
    pub checkpoint_error: Option<String>,
}

/// Why an ingest call applied nothing.
pub enum IngestFailure {
    /// Reading the JSONL body aborted (Strict/Cap policy, or stream
    /// I/O).
    Parse(LoadError),
    /// The session refused the batch (policy abort, engine failure, or
    /// an already-broken session).
    Session(IngestError),
}

/// An RAII slot in a session's bounded ingest queue. Holding one means
/// the session admitted this ingest; dropping it (success or failure)
/// releases the slot. The ingest route acquires a permit *before* it
/// decodes the body so an overloaded session can shed load with 503 +
/// `Retry-After` instead of queueing unboundedly.
pub struct IngestPermit {
    inflight: Arc<AtomicUsize>,
}

impl Drop for IngestPermit {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One named live session.
pub struct LiveSession {
    name: String,
    spec: SessionSpec,
    handle: SharedSession,
    ledger: Mutex<Ledger>,
    dir: Option<PathBuf>,
    inflight: Arc<AtomicUsize>,
    queue_limit: usize,
    /// Session-lifetime JSONL decoder: its symbol pool survives across
    /// batches, so a label or property key allocates once per session,
    /// not once per line.
    decoder: Mutex<JsonlDecoder>,
}

impl LiveSession {
    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The creation-time spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The underlying thread-safe session handle.
    pub fn handle(&self) -> &SharedSession {
        &self.handle
    }

    /// Try to claim a slot in the session's bounded ingest queue.
    /// `None` means the queue is full: the caller should answer 503
    /// with `Retry-After` rather than admit more in-flight work.
    pub fn try_ingest_permit(&self) -> Option<IngestPermit> {
        let mut current = self.inflight.load(Ordering::SeqCst);
        loop {
            if current >= self.queue_limit {
                return None;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Some(IngestPermit {
                        inflight: Arc::clone(&self.inflight),
                    })
                }
                Err(now) => current = now,
            }
        }
    }

    /// Parse `body` as JSONL and ingest it as one batch under the
    /// session's error policy. See [`IngestReport`].
    pub fn ingest_jsonl(&self, body: &[u8]) -> Result<IngestReport, IngestFailure> {
        let policy = self
            .spec
            .policy()
            .expect("spec was validated at session creation");
        let mut decoder = self.decoder.lock().unwrap_or_else(|p| p.into_inner());
        let (elements, mut quarantine) =
            read_jsonl_elements_with(&mut decoder, &mut &body[..], policy)
                .map_err(IngestFailure::Parse)?;
        drop(decoder);
        let outcome = self
            .handle
            .ingest(elements, policy, &mut quarantine, "http")
            .map_err(IngestFailure::Session)?;
        let (checkpointed, checkpoint_error) = self.cadence_tick(quarantine.len() as u64);
        Ok(IngestReport {
            outcome,
            quarantine,
            checkpointed,
            checkpoint_error,
        })
    }

    /// Fold a foreign shard's discovery state into the live session
    /// (`POST /sessions/{id}/merge`). A merge counts as one applied
    /// batch for the checkpoint cadence: merged schema state is as
    /// worth persisting as ingested state.
    pub fn merge_state(&self, foreign: &DiscoveryState) -> Result<MergeReport, IngestError> {
        let outcome = self.handle.merge_state(foreign)?;
        let (checkpointed, checkpoint_error) = self.cadence_tick(0);
        Ok(MergeReport {
            outcome,
            checkpointed,
            checkpoint_error,
        })
    }

    fn ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Count one applied batch (plus any quarantined lines) toward the
    /// checkpoint cadence, persisting when the cadence fires.
    fn cadence_tick(&self, quarantined: u64) -> (bool, Option<String>) {
        let mut ledger = self.ledger();
        ledger.quarantined_total += quarantined;
        if !ledger.durable.as_mut().is_some_and(|d| d.tick(1)) {
            return (false, None);
        }
        match self.persist_locked(&mut ledger) {
            Ok(()) => (true, None),
            Err(e) => (false, Some(e)),
        }
    }

    /// Write the session's frame, if it is durable. No-op without a
    /// state directory.
    pub fn persist(&self) -> Result<(), String> {
        self.persist_locked(&mut self.ledger())
    }

    /// Persist under an already-held ledger lock: one frame holding the
    /// engine state, the aux state and the host fields.
    fn persist_locked(&self, ledger: &mut Ledger) -> Result<(), String> {
        let Some(durable) = &mut ledger.durable else {
            return Ok(());
        };
        let host = Host {
            name: self.name.clone(),
            spec: self.spec.clone(),
            quarantined_total: ledger.quarantined_total,
        };
        let frame = SessionCheckpoint {
            host: Some(host.to_value()),
            ..self
                .handle
                .export()
                .map_err(|e| format!("exporting session state: {e}"))?
        };
        durable
            .persist(&frame)
            .map(drop)
            .map_err(|e| format!("saving checkpoint: {e}"))
    }

    /// Batches applied since the last completed checkpoint (the
    /// session's checkpoint lag): what a crash right now would lose —
    /// every batch, for an in-memory session. Reported in the summary and
    /// summed in `/healthz`.
    pub fn checkpoint_lag(&self) -> u64 {
        match &self.ledger().durable {
            Some(durable) => durable.lag(),
            None => self.handle.batches_processed() as u64,
        }
    }

    /// Lifetime quarantine total.
    pub fn quarantined_total(&self) -> u64 {
        self.ledger().quarantined_total
    }

    /// The numbers `/metrics` exposes for this session.
    pub fn stats(&self) -> SessionStats {
        let (version, _) = self.handle.version_info();
        let mem = self.handle.memory_stats();
        SessionStats {
            name: self.name.clone(),
            batches: self.handle.batches_processed() as u64,
            nodes: self.handle.nodes_seen() as u64,
            edges: self.handle.edges_seen() as u64,
            quarantined: self.quarantined_total(),
            version,
            broken: self.handle.broken().is_some(),
            accum_bytes: mem.accum_bytes as u64,
        }
    }

    /// The JSON summary `GET /sessions/{id}` returns.
    pub fn summary(&self) -> serde::Value {
        let (version, hash) = self.handle.version_info();
        let spec = serde_json::to_string(&self.spec)
            .ok()
            .and_then(|s| serde_json::from_str::<serde::Value>(&s).ok())
            .unwrap_or(serde::Value::Null);
        serde::Value::Object(vec![
            ("name".to_owned(), serde::Value::Str(self.name.clone())),
            ("spec".to_owned(), spec),
            (
                "batches".to_owned(),
                serde::Value::U64(self.handle.batches_processed() as u64),
            ),
            (
                "nodes".to_owned(),
                serde::Value::U64(self.handle.nodes_seen() as u64),
            ),
            (
                "edges".to_owned(),
                serde::Value::U64(self.handle.edges_seen() as u64),
            ),
            (
                "quarantined_total".to_owned(),
                serde::Value::U64(self.quarantined_total()),
            ),
            ("version".to_owned(), serde::Value::U64(version)),
            ("hash".to_owned(), serde::Value::Str(hash)),
            (
                "checkpoint_lag".to_owned(),
                serde::Value::U64(self.checkpoint_lag()),
            ),
            ("durable".to_owned(), serde::Value::Bool(self.dir.is_some())),
            (
                "broken".to_owned(),
                match self.handle.broken() {
                    Some(m) => serde::Value::Str(m),
                    None => serde::Value::Null,
                },
            ),
        ])
    }
}

/// Why a session could not be created.
#[derive(Debug)]
pub enum CreateError {
    /// The name is missing or not `[A-Za-z0-9_-]{1,64}`.
    InvalidName(String),
    /// The spec failed validation.
    InvalidSpec(String),
    /// A session with this name already exists.
    Conflict,
    /// The initial durable write failed.
    Persist(String),
}

/// Server-level defaults and the optional state directory.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Where durable sessions live; `None` keeps everything in memory.
    pub state_dir: Option<PathBuf>,
    /// Checkpoints retained per session.
    pub checkpoint_keep: usize,
    /// Default [`SessionSpec`] for fields a create request omits.
    pub spec_defaults: SessionSpec,
    /// In-flight ingests admitted per session before 503s start.
    pub session_queue: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            state_dir: None,
            checkpoint_keep: 4,
            spec_defaults: SessionSpec::default(),
            session_queue: 64,
        }
    }
}

/// The named-session registry.
pub struct Registry {
    sessions: RwLock<BTreeMap<String, Arc<LiveSession>>>,
    config: RegistryConfig,
}

impl Registry {
    /// Open a registry, resuming every durable session found under the
    /// state directory. Sessions whose state fails to load are skipped
    /// with a warning (returned, and the caller logs them) — one
    /// corrupt session must not take the server down.
    pub fn open(config: RegistryConfig) -> (Registry, Vec<String>) {
        let mut sessions = BTreeMap::new();
        let mut warnings = Vec::new();
        if let Some(state_dir) = &config.state_dir {
            let scanned = scan_state_dir(
                state_dir,
                config.checkpoint_keep,
                config.session_queue,
                &mut warnings,
            );
            match scanned {
                Ok(resumed) => {
                    for live in resumed {
                        sessions.insert(live.name.clone(), Arc::new(live));
                    }
                }
                Err(w) => warnings.push(w),
            }
        }
        (
            Registry {
                sessions: RwLock::new(sessions),
                config,
            },
            warnings,
        )
    }

    /// The default spec create requests start from.
    pub fn spec_defaults(&self) -> &SessionSpec {
        &self.config.spec_defaults
    }

    /// Create (and, when durable, immediately persist) a session.
    pub fn create(&self, name: &str, spec: SessionSpec) -> Result<Arc<LiveSession>, CreateError> {
        validate_name(name).map_err(CreateError::InvalidName)?;
        spec.validate().map_err(CreateError::InvalidSpec)?;
        let mut sessions = self.sessions.write().unwrap_or_else(|p| p.into_inner());
        if sessions.contains_key(name) {
            return Err(CreateError::Conflict);
        }
        let handle = SharedSession::new(spec.hive_config(), spec.history_retain as usize);
        let (durable, dir) = match &self.config.state_dir {
            Some(state_dir) => {
                let dir = state_dir.join(name);
                let store = CheckpointStore::open(dir.join("ckpt"))
                    .map_err(|e| CreateError::Persist(e.to_string()))?
                    .with_retention(self.config.checkpoint_keep);
                let durable = DurableSession::new(store, spec.checkpoint_every);
                (Some(durable), Some(dir))
            }
            None => (None, None),
        };
        let live = Arc::new(LiveSession {
            name: name.to_owned(),
            spec,
            handle,
            ledger: Mutex::new(Ledger {
                quarantined_total: 0,
                durable,
            }),
            dir,
            inflight: Arc::new(AtomicUsize::new(0)),
            queue_limit: self.config.session_queue.max(1),
            decoder: Mutex::new(JsonlDecoder::new()),
        });
        // Persist at creation so a restart finds the session even if it
        // never ingests a batch.
        live.persist().map_err(CreateError::Persist)?;
        sessions.insert(name.to_owned(), Arc::clone(&live));
        Ok(live)
    }

    /// Look up a session by name.
    pub fn get(&self, name: &str) -> Option<Arc<LiveSession>> {
        self.sessions
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
    }

    /// All sessions, name-ordered.
    pub fn list(&self) -> Vec<Arc<LiveSession>> {
        self.sessions
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Remove a session and delete its durable state. Returns whether
    /// it existed.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self
            .sessions
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .remove(name);
        match removed {
            Some(live) => {
                if let Some(dir) = &live.dir {
                    if let Err(e) = fs::remove_dir_all(dir) {
                        eprintln!(
                            "warning: removing state of session {:?} at {}: {e}",
                            live.name,
                            dir.display()
                        );
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Persist every durable session (graceful shutdown). Returns
    /// `(session, error)` pairs for sessions that could not be saved.
    pub fn persist_all(&self) -> Vec<(String, String)> {
        let mut failures = Vec::new();
        for live in self.list() {
            if let Err(e) = live.persist() {
                failures.push((live.name.clone(), e));
            }
        }
        failures
    }

    /// Per-session stats for `/metrics`.
    pub fn stats(&self) -> Vec<SessionStats> {
        self.list().iter().map(|l| l.stats()).collect()
    }
}

/// Session names become directory names, so they are restricted to a
/// safe charset: `[A-Za-z0-9_-]{1,64}`.
pub fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("session name must be 1–64 characters".to_owned());
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(format!(
            "session name {name:?} must match [A-Za-z0-9_-]{{1,64}}"
        ));
    }
    Ok(())
}

/// Resume every session stored under `state_dir`. A session that cannot
/// be resumed, and every frame a resumed one skipped, is a warning.
fn scan_state_dir(
    state_dir: &Path,
    checkpoint_keep: usize,
    session_queue: usize,
    warnings: &mut Vec<String>,
) -> Result<Vec<LiveSession>, String> {
    fs::create_dir_all(state_dir)
        .map_err(|e| format!("creating state dir {}: {e}", state_dir.display()))?;
    let entries = fs::read_dir(state_dir)
        .map_err(|e| format!("listing state dir {}: {e}", state_dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = match entry {
            Ok(e) => e,
            Err(e) => {
                warnings.push(format!("reading state dir entry: {e}"));
                continue;
            }
        };
        let dir = entry.path();
        if dir.join("ckpt").is_dir() || dir.join(SIDECAR).exists() {
            match resume_session(&dir, checkpoint_keep, session_queue, warnings) {
                Ok(live) => out.extend(live),
                Err(w) => warnings.push(w),
            }
        }
    }
    Ok(out)
}

/// The legacy file beside v1 / v2 checkpoints.
const SIDECAR: &str = "session.json";

/// Read a legacy `session.json`: the host fields plus the aux state.
fn read_sidecar(path: &Path) -> Result<(Host, SessionAux), String> {
    let raw = fs::read_to_string(path).map_err(|e| format!("reading {SIDECAR}: {e}"))?;
    let parse = |e: &dyn std::fmt::Display| format!("parsing {SIDECAR}: {e}");
    let value: serde::Value = serde_json::from_str(&raw).map_err(|e| parse(&e))?;
    let aux = value.get("aux").unwrap_or(&serde::Value::Null);
    Ok((
        Host::from_value(&value).map_err(|e| parse(&e))?,
        SessionAux::from_value(aux).map_err(|e| parse(&e))?,
    ))
}

/// Resume the session stored under `dir` from its newest valid frame,
/// with one warning per newer frame it skipped: the batches that frame
/// held are lost. `Ok(None)` for a directory that holds no frame and no
/// `session.json`: a create that crashed before its first frame, never
/// acknowledged.
fn resume_session(
    dir: &Path,
    checkpoint_keep: usize,
    session_queue: usize,
    warnings: &mut Vec<String>,
) -> Result<Option<LiveSession>, String> {
    let skip = |stage: &str, detail: String| {
        format!("skipping session at {}: {stage}: {detail}", dir.display())
    };
    let store = CheckpointStore::open(dir.join("ckpt"))
        .map_err(|e| skip("opening checkpoint store", e.to_string()))?
        .with_retention(checkpoint_keep);
    let sidecar = dir.join(SIDECAR);
    let legacy = sidecar.exists().then(|| read_sidecar(&sidecar));
    let outcome = store
        .resume_where(|frame| match (&frame.host, &legacy) {
            (Some(_), _) => Ok(()),
            // A session.json is written after the checkpoint it belongs
            // with, so a crash between the two leaves it one save behind
            // the newest one: pair it with the frame it describes.
            (None, Some(Ok((_, aux))))
                if aux.history.current().map(|v| &v.hash)
                    == Some(&content_hash_hex(&frame.schema)) =>
            {
                Ok(())
            }
            (None, Some(Err(e))) => Err(e.clone()),
            (None, _) => Err(format!("no host fields, and no {SIDECAR} of this version")),
        })
        .map_err(|e| skip("resuming checkpoints", e.to_string()))?;
    warnings.extend(outcome.skipped.iter().map(|(path, why)| {
        format!(
            "session at {}: skipped checkpoint {}: {why}",
            dir.display(),
            path.display()
        )
    }));
    let (host, restore) = match (outcome.checkpoint, legacy) {
        (Some(mut frame), legacy) => {
            let (host, aux) = match (frame.host.take(), frame.aux.take(), legacy) {
                (Some(host), Some(aux), _) => (
                    Host::from_value(&host).map_err(|e| skip("reading host", e.to_string()))?,
                    aux,
                ),
                (None, _, Some(Ok(pair))) => pair,
                _ => return Err(skip("reading host", "the frame has no aux state".into())),
            };
            (host, Some((frame, aux)))
        }
        // No checkpoint file at all beside a session.json (a crash before
        // the first save completed): the session restarts empty.
        (None, Some(read)) => (read.map_err(|e| skip("reading", e))?.0, None),
        (None, None) => return Ok(None),
    };
    validate_name(&host.name).map_err(|e| skip("validating name", e))?;
    // The directory is the session's identity on disk: a frame naming
    // another session would resume it where `create` of the directory's
    // own name writes too.
    if dir.file_name() != Some(std::ffi::OsStr::new(&host.name)) {
        return Err(skip(
            "validating name",
            format!("the session's state names session {:?}", host.name),
        ));
    }
    host.spec
        .validate()
        .map_err(|e| skip("validating spec", e))?;
    let config = host.spec.hive_config();
    let handle = match restore {
        Some((frame, aux)) => {
            aux.history
                .validate()
                .map_err(|e| skip("validating history", e))?;
            SharedSession::restore(config, frame, aux)
                .map_err(|e| skip("restoring checkpoint", e.to_string()))?
        }
        None => SharedSession::new(config, host.spec.history_retain as usize),
    };
    Ok(Some(LiveSession {
        handle,
        ledger: Mutex::new(Ledger {
            quarantined_total: host.quarantined_total,
            durable: Some(DurableSession::new(store, host.spec.checkpoint_every)),
        }),
        dir: Some(dir.to_path_buf()),
        name: host.name,
        spec: host.spec,
        inflight: Arc::new(AtomicUsize::new(0)),
        queue_limit: session_queue.max(1),
        decoder: Mutex::new(JsonlDecoder::new()),
    }))
}

/// The tree writer the JSON text is checked against.
#[cfg(test)]
#[path = "../../../vendor/serde_json/tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SessionSpec {
        SessionSpec::default()
    }

    /// The host fields of the `session.json` a served session wrote
    /// before v3 (the `state_v2` fixture) re-serialize as the tree writer
    /// writes their value tree.
    #[test]
    fn host_fields_write_as_the_tree_writer_writes_them() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/state_v2/current/session.json");
        let (host, _) = read_sidecar(&path).unwrap();
        let written = serde_json::to_string(&host).unwrap();
        assert!(written.starts_with(r#"{"name":"current","spec":{"seed":42,"#));
        let tree = host.to_value();
        assert_eq!(Some(written), oracle::compact(&tree));
        let pretty = serde_json::to_string_pretty(&host).ok();
        assert_eq!(pretty, oracle::pretty(&tree));
    }

    #[test]
    fn spec_parsing_applies_defaults_and_rejects_unknown_fields() {
        let body: serde::Value =
            serde_json::from_str(r#"{"name":"s1","seed":7,"method":"minhash","on_error":"cap:3"}"#)
                .unwrap();
        let parsed = SessionSpec::from_value(&body, &spec()).unwrap();
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.method, "minhash");
        assert_eq!(parsed.policy().unwrap(), ErrorPolicy::Cap(3));
        assert_eq!(parsed.theta, 0.9, "unset fields keep defaults");

        let bad: serde::Value = serde_json::from_str(r#"{"sede":7}"#).unwrap();
        assert!(SessionSpec::from_value(&bad, &spec())
            .unwrap_err()
            .contains("unknown field"));
        // A field clients of older servers may still send is refused by
        // name like any typo, not accepted and ignored.
        let bad: serde::Value = serde_json::from_str(r#"{"memoize":true}"#).unwrap();
        assert_eq!(
            SessionSpec::from_value(&bad, &spec()).unwrap_err(),
            r#"unknown field "memoize""#
        );
        let bad: serde::Value = serde_json::from_str(r#"{"theta":3.0}"#).unwrap();
        assert!(SessionSpec::from_value(&bad, &spec())
            .unwrap_err()
            .contains("theta"));
    }

    #[test]
    fn spec_mode_selects_stream_accumulators() {
        assert!(!spec().is_stream(), "exact mode by default");
        assert!(spec().hive_config().stream.is_none());

        let body: serde::Value = serde_json::from_str(r#"{"mode":"stream"}"#).unwrap();
        let parsed = SessionSpec::from_value(&body, &spec()).unwrap();
        assert!(parsed.is_stream());
        assert!(parsed.hive_config().stream.is_some());

        let body: serde::Value = serde_json::from_str(r#"{"mode":"exact"}"#).unwrap();
        let parsed = SessionSpec::from_value(&body, &spec()).unwrap();
        assert!(!parsed.is_stream());

        let bad: serde::Value = serde_json::from_str(r#"{"mode":"sketchy"}"#).unwrap();
        assert!(SessionSpec::from_value(&bad, &spec())
            .unwrap_err()
            .contains("mode"));

        // The spec's round-trip preserves the mode, so a restart
        // rebuilds the same accumulator kind (and a checkpoint written
        // in the other mode is rejected at restore).
        let json = serde_json::to_string(&SessionSpec {
            mode: Some("stream".to_owned()),
            ..spec()
        })
        .unwrap();
        let back: SessionSpec = serde_json::from_str(&json).unwrap();
        assert!(back.is_stream());
    }

    #[test]
    fn name_validation_rejects_path_hazards() {
        assert!(validate_name("ok-session_1").is_ok());
        for bad in ["", "../etc", "a/b", "a b", &"x".repeat(65)] {
            assert!(validate_name(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn create_get_remove_in_memory() {
        let (reg, warnings) = Registry::open(RegistryConfig::default());
        assert!(warnings.is_empty());
        reg.create("a", spec()).unwrap();
        assert!(matches!(
            reg.create("a", spec()),
            Err(CreateError::Conflict)
        ));
        assert!(reg.get("a").is_some());
        assert_eq!(reg.list().len(), 1);
        assert!(reg.remove("a"));
        assert!(!reg.remove("a"));
        assert!(reg.get("a").is_none());
    }

    #[test]
    fn ingest_permits_are_bounded_and_released_on_drop() {
        let (reg, _) = Registry::open(RegistryConfig {
            session_queue: 2,
            ..RegistryConfig::default()
        });
        let live = reg.create("s1", spec()).unwrap();
        let a = live.try_ingest_permit().expect("first slot");
        let _b = live.try_ingest_permit().expect("second slot");
        assert!(live.try_ingest_permit().is_none(), "queue full");
        assert_eq!(live.inflight.load(Ordering::SeqCst), 2);
        drop(a);
        assert!(live.try_ingest_permit().is_some(), "slot released");
    }

    #[test]
    fn session_decoder_pools_symbols_across_ingest_calls() {
        let (reg, _) = Registry::open(RegistryConfig::default());
        let live = reg.create("s1", spec()).unwrap();
        let body =
            b"{\"kind\":\"node\",\"id\":1,\"labels\":[\"A\"],\"props\":{\"k\":{\"Int\":1}}}\n";
        live.ingest_jsonl(body)
            .unwrap_or_else(|_| panic!("ingest 1"));
        let after_first = live
            .decoder
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .interned_symbols();
        let body2 =
            b"{\"kind\":\"node\",\"id\":2,\"labels\":[\"A\"],\"props\":{\"k\":{\"Int\":2}}}\n";
        live.ingest_jsonl(body2)
            .unwrap_or_else(|_| panic!("ingest 2"));
        let after_second = live
            .decoder
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .interned_symbols();
        assert_eq!(after_first, 2, "label A + key k");
        assert_eq!(
            after_second, after_first,
            "second batch reuses the session's pooled symbols"
        );
    }

    #[test]
    fn session_decoder_pools_label_sets_across_ingest_calls() {
        let (reg, _) = Registry::open(RegistryConfig::default());
        let live = reg.create("s1", spec()).unwrap();
        let pooled = || {
            live.decoder
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pooled_label_sets()
        };
        let nodes = b"{\"kind\":\"node\",\"id\":1,\"labels\":[\"A\"],\"props\":{}}\n\
                      {\"kind\":\"node\",\"id\":2,\"labels\":[\"A\"],\"props\":{}}\n";
        live.ingest_jsonl(nodes)
            .unwrap_or_else(|_| panic!("ingest 1"));
        assert_eq!(pooled(), 1, "one array for both nodes");
        // A later batch — another request — finds the array pooled: the
        // session's node index grows by refcount bumps, not allocations.
        let more = b"{\"kind\":\"node\",\"id\":3,\"labels\":[\"A\"],\"props\":{}}\n\
                     {\"kind\":\"edge\",\"id\":9,\"src\":1,\"tgt\":3,\"labels\":[\"R\"],\"props\":{}}\n";
        live.ingest_jsonl(more)
            .unwrap_or_else(|_| panic!("ingest 2"));
        assert_eq!(pooled(), 2, "[A] reused, [R] new");
        assert_eq!(live.handle.nodes_seen(), 3);
    }

    #[test]
    fn durable_sessions_resume_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "pg-serve-registry-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let config = RegistryConfig {
            state_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };

        let (reg, _) = Registry::open(config.clone());
        let live = reg.create("s1", spec()).unwrap();
        let body =
            b"{\"kind\":\"node\",\"id\":1,\"labels\":[\"A\"],\"props\":{\"k\":{\"Int\":1}}}\n\
                     {\"kind\":\"node\",\"id\":2,\"labels\":[\"B\"],\"props\":{}}\n";
        let report = live.ingest_jsonl(body).unwrap_or_else(|_| panic!("ingest"));
        assert_eq!(report.outcome.nodes, 2);
        let (v1, h1) = live.handle.version_info();
        reg.persist_all();
        drop(reg);

        let (reg2, warnings) = Registry::open(config);
        assert!(warnings.is_empty(), "{warnings:?}");
        let live2 = reg2.get("s1").expect("session resumed");
        assert_eq!(live2.handle.version_info(), (v1, h1));
        assert_eq!(live2.handle.batches_processed(), 1);
        // The resumed session keeps discovering identically.
        let edge =
            b"{\"kind\":\"edge\",\"id\":9,\"src\":1,\"tgt\":2,\"labels\":[\"R\"],\"props\":{}}\n";
        let r1 = live.ingest_jsonl(edge).unwrap_or_else(|_| panic!("ingest"));
        let r2 = live2
            .ingest_jsonl(edge)
            .unwrap_or_else(|_| panic!("ingest"));
        assert_eq!(r1.outcome.hash, r2.outcome.hash);
        assert_eq!(r1.outcome.batch_index, r2.outcome.batch_index);

        let _ = fs::remove_dir_all(&dir);
    }
}
