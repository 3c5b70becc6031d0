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

/// Rewrite a session directory this build wrote into the layout of a
/// build before envelope v3: each frame becomes a v2 checkpoint without
/// its aux state and host fields, and a `session.json` holds those of
/// the frame numbered `sidecar_seq` (the newest when `None`) — the newest
/// for a directory a graceful stop left, an older one for a crash
/// between the old writer's two renames.
pub fn downgrade_to_v2(session: &std::path::Path, sidecar_seq: Option<u64>) {
    use pg_hive::checkpoint::{crc32, decode};
    let ckpt = session.join("ckpt");
    let mut frames: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?;
            let seq = name.strip_prefix("ckpt-")?.strip_suffix(".pghive")?;
            Some((seq.parse().ok()?, path))
        })
        .collect();
    frames.sort();
    let sidecar_seq = sidecar_seq.unwrap_or_else(|| frames.last().expect("a frame").0);
    for (seq, path) in frames {
        let mut frame = decode(&std::fs::read(&path).unwrap()).unwrap();
        let aux = frame.aux.take().expect("a served frame has aux state");
        let host = frame.host.take().expect("a served frame has host fields");
        let payload = serde_json::to_string(&frame).unwrap();
        let header = format!(
            "PGHIVE-CKPT v2 len={} crc32={:08x}\n",
            payload.len(),
            crc32(payload.as_bytes())
        );
        std::fs::write(&path, header + &payload).unwrap();
        if seq == sidecar_seq {
            // The old writer's field order: name, spec, aux, quarantined_total.
            let serde::Value::Object(mut fields) = host else {
                panic!("host fields are an object")
            };
            fields.insert(2, ("aux".to_owned(), serde::Serialize::to_value(&aux)));
            let sidecar = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
            std::fs::write(session.join("session.json"), sidecar).unwrap();
        }
    }
}
