//! Shared helpers for the pg-serve integration suites.
//!
//! Each test binary compiles this module independently and uses a
//! different subset of it.
#![allow(dead_code)]

use pg_serve::{Client, Metrics, Registry, RunSummary, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A server running on a background thread, stopped (gracefully) on
/// drop or via [`TestServer::stop`].
pub struct TestServer {
    pub addr: SocketAddr,
    /// Direct handle on the server's session registry — lets tests
    /// hold ingest permits to provoke backpressure deterministically.
    pub registry: Arc<Registry>,
    /// Direct handle on the server's metrics counters.
    pub metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<RunSummary>>>,
}

impl TestServer {
    pub fn start(config: ServerConfig) -> TestServer {
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Server::bind(config, Arc::clone(&shutdown)).expect("bind test server");
        let addr = server.local_addr();
        let registry = server.registry();
        let metrics = server.metrics();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            registry,
            metrics,
            shutdown,
            thread: Some(thread),
        }
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr)
    }

    /// Graceful shutdown; returns what the run did.
    pub fn stop(mut self) -> RunSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("server thread present")
            .join()
            .expect("server thread join")
            .expect("server run")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A unique scratch directory under the target tmpdir.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pg-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// JSONL line for a node.
pub fn node_line(id: u64, label: &str, props: &str) -> String {
    format!("{{\"kind\":\"node\",\"id\":{id},\"labels\":[\"{label}\"],\"props\":{{{props}}}}}")
}

/// JSONL line for an edge.
pub fn edge_line(id: u64, src: u64, tgt: u64, label: &str) -> String {
    format!(
        "{{\"kind\":\"edge\",\"id\":{id},\"src\":{src},\"tgt\":{tgt},\"labels\":[\"{label}\"],\"props\":{{}}}}"
    )
}
