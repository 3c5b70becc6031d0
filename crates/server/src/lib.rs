//! # pg-serve
//!
//! A from-scratch HTTP/1.1 serving layer for PG-HIVE: named live
//! discovery sessions over `std::net`, no async runtime. One reactor
//! thread multiplexes every connection over raw epoll (non-blocking
//! state machines, resumable head parser, keep-alive, hard size limits,
//! structured JSON errors); CPU-bound request work runs on a bounded
//! worker pool that answers 503 + `Retry-After` when full. Serving is
//! Linux-only: [`Server`] and [`raise_nofile_limit`] exist only when
//! `target_os = "linux"`, so no build ships a serving path no build has
//! compiled. The client, registry and HTTP parser are portable.
//!
//! ## API
//!
//! | route                            | verb   | purpose                              |
//! |----------------------------------|--------|--------------------------------------|
//! | `/healthz`                       | GET    | liveness                             |
//! | `/metrics`                       | GET    | Prometheus text metrics              |
//! | `/sessions`                      | GET/POST | list / create sessions             |
//! | `/sessions/{id}`                 | GET/DELETE | inspect / drop a session         |
//! | `/sessions/{id}/ingest`          | POST   | JSONL batch → incremental discovery  |
//! | `/sessions/{id}/schema`          | GET    | current schema (ETag = content hash) |
//! | `/sessions/{id}/state`           | GET    | full shard state (schema + accumulators) |
//! | `/sessions/{id}/diff?from=v`     | GET    | schema delta since version `v`       |
//! | `/sessions/{id}/merge`           | POST   | fold a shard state or schema into the session |
//! | `/sessions/{id}/validate`        | POST   | LOOSE/STRICT conformance of a subgraph |
//!
//! One ingest request is one batch: the reactor buffers every body whole
//! (up to [`ServerConfig::max_body`]) before a worker decodes and applies
//! it, under every error policy, so a body torn by a disconnect applies
//! nothing.
//!
//! Distributed discovery needs no coordinator: run N plain servers, pull
//! each one's `GET …/state`, and fold them with `pg-hive merge` or
//! `POST …/merge` (the monotone merge of [`pg_hive::merge_states`]).
//!
//! ## Durability
//!
//! With a state directory configured, each session persists as one
//! checksummed frame through a core [`pg_hive::DurableSession`] on a
//! per-session batch cadence and once more at graceful shutdown
//! (SIGINT/SIGTERM → stop accepting → drain workers → persist all →
//! exit), so a restarted server resumes every session bit-identically —
//! same schema content hash, same batch numbering. See the `registry`
//! module for the layout on disk.

pub mod client;
#[cfg(target_os = "linux")]
pub(crate) mod conn;
pub mod http;
pub mod metrics;
pub mod pool;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod registry;
pub mod router;
pub mod shutdown;

pub use client::{Client, ClientResponse};
pub use http::{HeadParser, Request, RequestHead, Response};
pub use metrics::{Metrics, SessionStats};
pub use registry::{LiveSession, Registry, RegistryConfig, SessionSpec};
pub use router::Ctx;
pub use shutdown::{install_signal_handlers, shutdown_flag};

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Everything `Server::bind` needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Worker threads running CPU-bound request work (routing, JSONL
    /// decode, incremental discovery); the reactor thread owns the
    /// sockets.
    pub workers: usize,
    /// Jobs queued beyond the busy workers before 503s start.
    pub queue: usize,
    /// Concurrent connections admitted before 503s start.
    pub max_connections: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Per-connection read timeout (bounds slow-loris style stalls).
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection may sit between requests
    /// before the reactor closes it.
    pub idle_timeout: Duration,
    /// In-flight ingests admitted per session before 503s start.
    pub session_queue: usize,
    /// Durable session state directory (`None` = in-memory only).
    pub state_dir: Option<PathBuf>,
    /// Default batches between cadence checkpoints for new sessions.
    pub checkpoint_every: u64,
    /// Checkpoints retained per session.
    pub checkpoint_keep: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("literal address parses"),
            workers: 4,
            queue: 64,
            max_connections: 10_240,
            max_body: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(60),
            session_queue: 64,
            state_dir: None,
            checkpoint_every: 8,
            checkpoint_keep: 4,
        }
    }
}

/// Best-effort raise of the process open-files soft limit toward its
/// hard limit. Serving (or load-generating) 10k+ concurrent
/// connections overruns the common 1024-descriptor soft default;
/// raising it needs no privilege. Returns the soft limit afterwards
/// when known.
#[cfg(target_os = "linux")]
pub fn raise_nofile_limit() -> Option<u64> {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return None;
        }
        if lim.cur < lim.max {
            let want = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return Some(lim.max);
            }
        }
        Some(lim.cur)
    }
}

/// What a completed [`Server::run`] did.
#[cfg(target_os = "linux")]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Sessions persisted during the final shutdown checkpoint.
    pub sessions_persisted: usize,
    /// `(session, error)` pairs from the final persist.
    pub persist_failures: Vec<(String, String)>,
}

/// A bound, not-yet-running server.
#[cfg(target_os = "linux")]
pub struct Server {
    pub(crate) listener: TcpListener,
    local_addr: SocketAddr,
    pub(crate) ctx: Arc<Ctx>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: Arc<AtomicBool>,
}

#[cfg(target_os = "linux")]
impl Server {
    /// Bind the listener and open (or resume) the session registry.
    /// Resume warnings for corrupt sessions go to stderr — one bad
    /// session must not stop the server.
    pub fn bind(config: ServerConfig, shutdown: Arc<AtomicBool>) -> io::Result<Server> {
        let _ = raise_nofile_limit();
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (registry, warnings) = Registry::open(RegistryConfig {
            state_dir: config.state_dir.clone(),
            checkpoint_keep: config.checkpoint_keep,
            spec_defaults: SessionSpec {
                checkpoint_every: config.checkpoint_every,
                ..SessionSpec::default()
            },
            session_queue: config.session_queue,
        });
        for w in warnings {
            eprintln!("warning: {w}");
        }
        let ctx = Arc::new(Ctx {
            registry: Arc::new(registry),
            metrics: Arc::new(Metrics::new()),
            shutdown: Arc::clone(&shutdown),
        });
        Ok(Server {
            listener,
            local_addr,
            ctx,
            config,
            shutdown,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The session registry (tests drive it directly).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.ctx.registry)
    }

    /// The metrics sink.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.ctx.metrics)
    }

    /// Accept and serve until the shutdown flag is set, then drain
    /// in-flight work, persist every durable session, and return.
    pub fn run(self) -> io::Result<RunSummary> {
        let connections = reactor::serve(&self)?;
        let persist_failures = self.ctx.registry.persist_all();
        let sessions_persisted = self.ctx.registry.list().len() - persist_failures.len();
        for (name, err) in &persist_failures {
            eprintln!("warning: final checkpoint of session {name:?} failed: {err}");
        }
        Ok(RunSummary {
            connections,
            sessions_persisted,
            persist_failures,
        })
    }
}
