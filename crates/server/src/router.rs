//! Request routing: URL + method → handler, with uniform structured
//! errors.
//!
//! [`dispatch`] is pure request-in/response-out (no socket I/O), so the
//! whole API surface is testable without a listener, and a connection
//! drop mid-write can never leave a handler half-run: by the time bytes
//! hit the wire the handler has fully committed its state changes.
//!
//! Every dispatch also yields the matched route *pattern* (e.g.
//! `/sessions/{id}/ingest`) for metrics, keeping label cardinality
//! independent of the number of live sessions.

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::registry::{CreateError, IngestFailure, LiveSession, Registry, SessionSpec};
use pg_hive::{diff, validate, IngestError, SchemaMode, VersionLookup};
use pg_store::{from_jsonl_reader_with_policy, ErrorPolicy, LoadError, Quarantine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Shared state every handler sees.
pub struct Ctx {
    /// The session registry.
    pub registry: Arc<Registry>,
    /// The metrics sink.
    pub metrics: Arc<Metrics>,
    /// The server's shutdown flag. Connection loops consult it so a
    /// draining server closes keep-alive connections after the in-flight
    /// response instead of serving an eager client forever.
    pub shutdown: Arc<AtomicBool>,
}

/// Violations included verbatim in a validate response before the list
/// is truncated (the full count is always reported).
const MAX_VIOLATIONS_LISTED: usize = 100;

/// Quarantine entries included verbatim in an ingest response.
const MAX_QUARANTINE_LISTED: usize = 32;

type Handler<'a> = Box<dyn FnOnce() -> Response + 'a>;

/// Route `req` and produce its response, plus the matched route pattern
/// for metrics. Handler panics become structured 500s instead of tearing
/// the connection thread down.
pub fn dispatch(req: &Request, ctx: &Ctx) -> (&'static str, Response) {
    let (route, handler) = match route_of(req, ctx) {
        Ok(pair) => pair,
        Err(resp) => return ("<unmatched>", resp),
    };
    let resp = catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        Response::error(
            500,
            "internal_error",
            "the request handler panicked; see server logs",
        )
    });
    (route, resp)
}

fn route_of<'a>(req: &'a Request, ctx: &'a Ctx) -> Result<(&'static str, Handler<'a>), Response> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    macro_rules! route {
        ($pattern:literal, $handler:expr) => {
            Ok(($pattern, Box::new($handler) as Handler<'a>))
        };
    }
    match segments.as_slice() {
        ["healthz"] => match method {
            "GET" => route!("/healthz", || healthz(ctx)),
            _ => Err(method_not_allowed("GET")),
        },
        ["metrics"] => match method {
            "GET" => route!("/metrics", || metrics(ctx)),
            _ => Err(method_not_allowed("GET")),
        },
        ["sessions"] => match method {
            "GET" => route!("/sessions", || list_sessions(ctx)),
            "POST" => route!("/sessions", || create_session(req, ctx)),
            _ => Err(method_not_allowed("GET, POST")),
        },
        ["sessions", name] => {
            let name = *name;
            match method {
                "GET" => route!("/sessions/{id}", move || with_session(ctx, name, |live| {
                    Response::json(200, &live.summary())
                })),
                "DELETE" => route!("/sessions/{id}", move || delete_session(ctx, name)),
                _ => Err(method_not_allowed("GET, DELETE")),
            }
        }
        ["sessions", name, "ingest"] => {
            let name = *name;
            match method {
                "POST" => route!("/sessions/{id}/ingest", move || with_session(
                    ctx,
                    name,
                    |live| ingest(req, ctx, live)
                )),
                _ => Err(method_not_allowed("POST")),
            }
        }
        ["sessions", name, "merge"] => {
            let name = *name;
            match method {
                "POST" => route!("/sessions/{id}/merge", move || with_session(
                    ctx,
                    name,
                    |live| merge_shard(req, live)
                )),
                _ => Err(method_not_allowed("POST")),
            }
        }
        ["sessions", name, "state"] => {
            let name = *name;
            match method {
                "GET" => route!("/sessions/{id}/state", move || with_session(
                    ctx,
                    name,
                    shard_state
                )),
                _ => Err(method_not_allowed("GET")),
            }
        }
        ["sessions", name, "schema"] => {
            let name = *name;
            match method {
                "GET" => route!("/sessions/{id}/schema", move || with_session(
                    ctx,
                    name,
                    |live| schema(req, live)
                )),
                _ => Err(method_not_allowed("GET")),
            }
        }
        ["sessions", name, "diff"] => {
            let name = *name;
            match method {
                "GET" => route!("/sessions/{id}/diff", move || with_session(
                    ctx,
                    name,
                    |live| diff_versions(req, live)
                )),
                _ => Err(method_not_allowed("GET")),
            }
        }
        ["sessions", name, "validate"] => {
            let name = *name;
            match method {
                "POST" => route!("/sessions/{id}/validate", move || with_session(
                    ctx,
                    name,
                    |live| validate_subgraph(req, live)
                )),
                _ => Err(method_not_allowed("POST")),
            }
        }
        _ => Err(not_found(&req.path)),
    }
}

fn not_found(path: &str) -> Response {
    Response::error(404, "not_found", &format!("no route for {path}"))
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, "method_not_allowed", &format!("allowed: {allow}"))
        .with_header("Allow", allow)
}

fn with_session(ctx: &Ctx, name: &str, f: impl FnOnce(&Arc<LiveSession>) -> Response) -> Response {
    match ctx.registry.get(name) {
        Some(live) => f(&live),
        None => Response::error(
            404,
            "unknown_session",
            &format!("no session named {name:?}"),
        ),
    }
}

fn healthz(ctx: &Ctx) -> Response {
    // Session count and total checkpoint lag ride along so an
    // operator's probe learns how far this instance's in-memory state
    // runs ahead of its durable checkpoints.
    let sessions = ctx.registry.list();
    let lag: u64 = sessions.iter().map(|l| l.checkpoint_lag()).sum();
    Response::json(
        200,
        &serde::Value::Object(vec![
            ("status".to_owned(), serde::Value::Str("ok".to_owned())),
            (
                "sessions".to_owned(),
                serde::Value::U64(sessions.len() as u64),
            ),
            ("checkpoint_lag".to_owned(), serde::Value::U64(lag)),
        ]),
    )
}

fn metrics(ctx: &Ctx) -> Response {
    let text = ctx.metrics.render(&ctx.registry.stats());
    Response {
        status: 200,
        headers: vec![(
            "Content-Type".to_owned(),
            "text/plain; version=0.0.4".to_owned(),
        )],
        body: text.into_bytes(),
    }
}

fn shard_state(live: &Arc<LiveSession>) -> Response {
    match live.handle().shard_state() {
        Ok(state) => match serde_json::to_string(&state) {
            Ok(text) => Response {
                status: 200,
                headers: vec![("Content-Type".to_owned(), "application/json".to_owned())],
                body: text.into_bytes(),
            },
            Err(e) => Response::error(500, "serialize_failed", &e.to_string()),
        },
        Err(IngestError::Broken(m)) => Response::error(
            500,
            "session_broken",
            &format!("resume from the last checkpoint: {m}"),
        ),
        Err(e) => Response::error(500, "engine_failure", &e.to_string()),
    }
}

fn list_sessions(ctx: &Ctx) -> Response {
    let sessions: Vec<serde::Value> = ctx.registry.list().iter().map(|l| l.summary()).collect();
    Response::json(
        200,
        &serde::Value::Object(vec![("sessions".to_owned(), serde::Value::Array(sessions))]),
    )
}

fn create_session(req: &Request, ctx: &Ctx) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "bad_request", "body is not UTF-8"),
    };
    let value: serde::Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "bad_json", &format!("parsing body: {e}")),
    };
    let name = match value.get("name").and_then(|n| n.as_str()) {
        Some(n) => n.to_owned(),
        None => {
            return Response::error(
                400,
                "missing_name",
                "body must carry a string \"name\" field",
            )
        }
    };
    let spec = match SessionSpec::from_value(&value, ctx.registry.spec_defaults()) {
        Ok(s) => s,
        Err(e) => return Response::error(400, "invalid_spec", &e),
    };
    match ctx.registry.create(&name, spec) {
        Ok(live) => Response::json(201, &live.summary()),
        Err(CreateError::InvalidName(e)) => Response::error(400, "invalid_name", &e),
        Err(CreateError::InvalidSpec(e)) => Response::error(400, "invalid_spec", &e),
        Err(CreateError::Conflict) => Response::error(
            409,
            "session_exists",
            &format!("a session named {name:?} already exists"),
        ),
        Err(CreateError::Persist(e)) => Response::error(500, "persist_failed", &e),
    }
}

fn delete_session(ctx: &Ctx, name: &str) -> Response {
    if ctx.registry.remove(name) {
        Response::empty(204)
    } else {
        Response::error(
            404,
            "unknown_session",
            &format!("no session named {name:?}"),
        )
    }
}

/// The 503 an over-admitted session answers. `Retry-After` is what
/// `Client::post_with_retry` keys its wait on.
fn session_busy_response() -> Response {
    Response::error(
        503,
        "session_busy",
        "session ingest queue is full; retry with backoff",
    )
    .with_header("Retry-After", "1")
}

fn quarantine_json(q: &Quarantine) -> serde::Value {
    let listed: Vec<serde::Value> = q
        .entries()
        .iter()
        .take(MAX_QUARANTINE_LISTED)
        .map(|e| {
            serde::Value::Object(vec![
                ("line".to_owned(), serde::Value::U64(e.line as u64)),
                ("reason".to_owned(), serde::Value::Str(e.reason.clone())),
            ])
        })
        .collect();
    serde::Value::Array(listed)
}

fn ingest(req: &Request, ctx: &Ctx, live: &Arc<LiveSession>) -> Response {
    // Admission first: an overloaded session sheds this request before
    // any parse work happens. The permit covers the whole apply.
    let _permit = match live.try_ingest_permit() {
        Some(p) => p,
        None => {
            ctx.metrics.session_busy_rejection();
            return session_busy_response();
        }
    };
    match live.ingest_jsonl(&req.body) {
        Ok(report) => ingest_success_response(live.name(), &report),
        Err(failure) => ingest_failure_response(&failure),
    }
}

/// The 200 body of an applied ingest.
fn ingest_success_response(session: &str, report: &crate::registry::IngestReport) -> Response {
    let o = &report.outcome;
    let elapsed_us = u64::try_from(o.timing.total.as_micros()).unwrap_or(u64::MAX);
    let mut fields = vec![
        ("session".to_owned(), serde::Value::Str(session.to_owned())),
        (
            "batch_index".to_owned(),
            serde::Value::U64(o.batch_index as u64),
        ),
        ("nodes".to_owned(), serde::Value::U64(o.nodes as u64)),
        ("edges".to_owned(), serde::Value::U64(o.edges as u64)),
        (
            "quarantined".to_owned(),
            serde::Value::U64(report.quarantine.len() as u64),
        ),
        ("quarantine".to_owned(), quarantine_json(&report.quarantine)),
        ("version".to_owned(), serde::Value::U64(o.version)),
        ("hash".to_owned(), serde::Value::Str(o.hash.clone())),
        ("changed".to_owned(), serde::Value::Bool(o.changed)),
        ("elapsed_us".to_owned(), serde::Value::U64(elapsed_us)),
        (
            "checkpointed".to_owned(),
            serde::Value::Bool(report.checkpointed),
        ),
    ];
    if let Some(e) = &report.checkpoint_error {
        eprintln!("warning: cadence checkpoint of session {session:?} failed: {e}");
        fields.push(("checkpoint_error".to_owned(), serde::Value::Str(e.clone())));
    }
    Response::json(200, &serde::Value::Object(fields))
}

/// The error response of a refused ingest.
fn ingest_failure_response(failure: &IngestFailure) -> Response {
    match failure {
        IngestFailure::Parse(LoadError::Policy(e)) => {
            Response::error(422, "batch_rejected", &format!("nothing was applied: {e}"))
        }
        IngestFailure::Parse(LoadError::Io(e)) => {
            Response::error(500, "body_read_failed", &e.to_string())
        }
        IngestFailure::Session(IngestError::Rejected(e)) => {
            Response::error(422, "batch_rejected", &format!("nothing was applied: {e}"))
        }
        IngestFailure::Session(IngestError::Incompatible(e)) => {
            Response::error(422, "batch_rejected", &format!("nothing was applied: {e}"))
        }
        IngestFailure::Session(IngestError::Engine(m)) => Response::error(500, "engine_failure", m),
        IngestFailure::Session(IngestError::Broken(m)) => Response::error(
            500,
            "session_broken",
            &format!("resume from the last checkpoint: {m}"),
        ),
    }
}

fn merge_shard(req: &Request, live: &Arc<LiveSession>) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "bad_request", "body is not UTF-8"),
    };
    let (foreign, kind) = match pg_hive::merge::parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, "bad_merge_input", &format!("body is {e}")),
    };
    match live.merge_state(&foreign) {
        Ok(report) => {
            let o = &report.outcome;
            let mut fields = vec![
                (
                    "session".to_owned(),
                    serde::Value::Str(live.name().to_owned()),
                ),
                ("input".to_owned(), serde::Value::Str(kind.to_string())),
                ("version".to_owned(), serde::Value::U64(o.version)),
                ("hash".to_owned(), serde::Value::Str(o.hash.clone())),
                ("changed".to_owned(), serde::Value::Bool(o.changed)),
                (
                    "node_types".to_owned(),
                    serde::Value::U64(o.node_types as u64),
                ),
                (
                    "edge_types".to_owned(),
                    serde::Value::U64(o.edge_types as u64),
                ),
                (
                    "checkpointed".to_owned(),
                    serde::Value::Bool(report.checkpointed),
                ),
            ];
            if let Some(e) = report.checkpoint_error {
                eprintln!(
                    "warning: cadence checkpoint of session {:?} failed: {e}",
                    live.name()
                );
                fields.push(("checkpoint_error".to_owned(), serde::Value::Str(e)));
            }
            Response::json(200, &serde::Value::Object(fields))
        }
        Err(IngestError::Rejected(e)) => {
            Response::error(422, "merge_rejected", &format!("nothing was applied: {e}"))
        }
        Err(IngestError::Incompatible(e)) => {
            Response::error(422, "merge_rejected", &format!("nothing was applied: {e}"))
        }
        Err(IngestError::Engine(m)) => Response::error(500, "engine_failure", &m),
        Err(IngestError::Broken(m)) => Response::error(
            500,
            "session_broken",
            &format!("resume from the last checkpoint: {m}"),
        ),
    }
}

fn schema(req: &Request, live: &Arc<LiveSession>) -> Response {
    let format = req.query_param("format").unwrap_or("json");
    if !matches!(format, "json" | "loose" | "strict") {
        return Response::error(
            400,
            "unknown_format",
            &format!("format must be \"json\", \"loose\", or \"strict\", got {format:?}"),
        );
    }
    let (version, hash) = live.handle().version_info();
    let etag = format!("\"{format}-v{version}-{hash}\"");
    if let Some(inm) = req.header("if-none-match") {
        if inm.split(',').any(|t| t.trim() == etag || t.trim() == "*") {
            return Response::empty(304).with_header("ETag", &etag);
        }
    }
    let schema = live.handle().schema();
    let resp = match format {
        "json" => {
            let text = pg_hive::serialize::to_json(&schema);
            Response {
                status: 200,
                headers: vec![("Content-Type".to_owned(), "application/json".to_owned())],
                body: text.into_bytes(),
            }
        }
        "loose" => Response::text(
            200,
            &pg_hive::serialize::to_pg_schema(&schema, SchemaMode::Loose),
        ),
        _ => Response::text(
            200,
            &pg_hive::serialize::to_pg_schema(&schema, SchemaMode::Strict),
        ),
    };
    resp.with_header("ETag", &etag)
        .with_header("X-Schema-Version", &version.to_string())
}

fn diff_versions(req: &Request, live: &Arc<LiveSession>) -> Response {
    let from = match req.query_param("from").map(str::parse::<u64>) {
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            return Response::error(400, "bad_from", "\"from\" must be an unsigned integer")
        }
        None => {
            return Response::error(
                400,
                "missing_from",
                "pass ?from=<version> (see \"version\" in the session summary)",
            )
        }
    };
    let old = match live.handle().lookup_version(from) {
        VersionLookup::Found(v) => v,
        VersionLookup::Evicted => {
            return Response::error(
                410,
                "version_evicted",
                &format!("version {from} fell out of the retained history; re-fetch the schema"),
            )
        }
        VersionLookup::NeverExisted => {
            return Response::error(
                404,
                "unknown_version",
                &format!("version {from} never existed"),
            )
        }
    };
    let (to_version, to_hash) = live.handle().version_info();
    let current = live.handle().schema();
    let d = diff(&old.schema, &current);
    Response::json(
        200,
        &serde::Value::Object(vec![
            ("from".to_owned(), serde::Value::U64(old.version)),
            ("from_hash".to_owned(), serde::Value::Str(old.hash.clone())),
            ("to".to_owned(), serde::Value::U64(to_version)),
            ("to_hash".to_owned(), serde::Value::Str(to_hash)),
            ("identical".to_owned(), serde::Value::Bool(d.is_empty())),
            (
                "pure_extension".to_owned(),
                serde::Value::Bool(d.is_pure_extension()),
            ),
            ("text".to_owned(), serde::Value::Str(d.to_string())),
        ]),
    )
}

fn validate_subgraph(req: &Request, live: &Arc<LiveSession>) -> Response {
    let mode = match req.query_param("mode").unwrap_or("loose") {
        "loose" => SchemaMode::Loose,
        "strict" => SchemaMode::Strict,
        other => {
            return Response::error(
                400,
                "unknown_mode",
                &format!("mode must be \"loose\" or \"strict\", got {other:?}"),
            )
        }
    };
    // Validation never mutates the session, so dirt in the posted
    // subgraph is always lenient-loaded and reported.
    let (graph, quarantine) =
        match from_jsonl_reader_with_policy(&mut &req.body[..], ErrorPolicy::Skip) {
            Ok(pair) => pair,
            Err(e) => return Response::error(400, "bad_subgraph", &e.to_string()),
        };
    let schema = live.handle().schema();
    let report = validate(&graph, &schema, mode);
    let listed: Vec<serde::Value> = report
        .violations
        .iter()
        .take(MAX_VIOLATIONS_LISTED)
        .map(|v| serde::Value::Str(format!("{v:?}")))
        .collect();
    Response::json(
        200,
        &serde::Value::Object(vec![
            ("valid".to_owned(), serde::Value::Bool(report.is_valid())),
            (
                "mode".to_owned(),
                serde::Value::Str(
                    match mode {
                        SchemaMode::Loose => "loose",
                        SchemaMode::Strict => "strict",
                    }
                    .to_owned(),
                ),
            ),
            (
                "nodes_checked".to_owned(),
                serde::Value::U64(report.nodes_checked as u64),
            ),
            (
                "edges_checked".to_owned(),
                serde::Value::U64(report.edges_checked as u64),
            ),
            (
                "violation_count".to_owned(),
                serde::Value::U64(report.violations.len() as u64),
            ),
            ("violations".to_owned(), serde::Value::Array(listed)),
            (
                "quarantined".to_owned(),
                serde::Value::U64(quarantine.len() as u64),
            ),
            ("quarantine".to_owned(), quarantine_json(&quarantine)),
        ]),
    )
}
