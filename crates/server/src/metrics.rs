//! Request and session metrics, rendered in the Prometheus text
//! exposition format.
//!
//! Route labels are the route *patterns* (`/sessions/{id}/ingest`), not
//! concrete paths, so label cardinality stays bounded no matter how many
//! sessions exist. Latencies go into a fixed-bucket histogram in
//! microseconds. Per-session gauges are injected at render time from the
//! registry rather than tracked here, so the metrics module needs no
//! knowledge of session lifecycle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bounds (µs) of the latency histogram buckets; +Inf is implicit.
const BUCKETS_US: [u64; 10] = [
    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
];

#[derive(Default)]
struct RouteStat {
    /// Requests per status code.
    by_status: BTreeMap<u16, u64>,
    /// Cumulative counts per histogram bucket (same order as
    /// [`BUCKETS_US`]), plus one trailing +Inf bucket.
    buckets: [u64; BUCKETS_US.len() + 1],
    sum_us: u64,
    count: u64,
}

/// Per-session numbers the registry supplies at render time.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Session name.
    pub name: String,
    /// Batches applied so far.
    pub batches: u64,
    /// Nodes seen so far.
    pub nodes: u64,
    /// Edges seen so far.
    pub edges: u64,
    /// Lines quarantined over the session's lifetime.
    pub quarantined: u64,
    /// Current schema version.
    pub version: u64,
    /// Whether the session is marked broken.
    pub broken: bool,
    /// Estimated bytes retained by the session's per-type accumulator
    /// statistics (bounded in stream mode; grows with distinct
    /// members/endpoints in exact mode).
    pub accum_bytes: u64,
}

/// The server-wide metrics sink.
pub struct Metrics {
    started: Instant,
    connections: AtomicU64,
    closed_connections: AtomicU64,
    busy_rejections: AtomicU64,
    session_busy_rejections: AtomicU64,
    idle_timeouts: AtomicU64,
    connection_limit_rejections: AtomicU64,
    routes: Mutex<BTreeMap<&'static str, RouteStat>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// A fresh sink; uptime counts from here.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            closed_connections: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            session_busy_rejections: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
            connection_limit_rejections: AtomicU64::new(0),
            routes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Count an accepted connection.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a closed connection (the open-connections gauge is
    /// `opened - closed`).
    pub fn connection_closed(&self) {
        self.closed_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.connections
            .load(Ordering::Relaxed)
            .saturating_sub(self.closed_connections.load(Ordering::Relaxed))
    }

    /// Count a connection refused with 503 because the pool was full.
    pub fn busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an ingest refused with 503 because the session's bounded
    /// ingest queue was full.
    pub fn session_busy_rejection(&self) {
        self.session_busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection killed by the idle/slowloris timeout.
    pub fn idle_timeout(&self) {
        self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection refused at accept because the reactor's
    /// connection limit was reached.
    pub fn connection_limit_rejection(&self) {
        self.connection_limit_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one handled request under its route pattern.
    pub fn record(&self, route: &'static str, status: u16, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let mut routes = self.routes.lock().unwrap_or_else(|p| p.into_inner());
        let stat = routes.entry(route).or_default();
        *stat.by_status.entry(status).or_insert(0) += 1;
        let idx = BUCKETS_US
            .iter()
            .position(|b| us <= *b)
            .unwrap_or(BUCKETS_US.len());
        stat.buckets[idx] += 1;
        stat.sum_us = stat.sum_us.saturating_add(us);
        stat.count += 1;
    }

    /// Render everything in the Prometheus text format.
    pub fn render(&self, sessions: &[SessionStats]) -> String {
        let mut out = String::with_capacity(4096);
        let push = |out: &mut String, s: &str| out.push_str(s);

        push(
            &mut out,
            "# HELP pg_serve_uptime_seconds Seconds since the server started.\n\
             # TYPE pg_serve_uptime_seconds gauge\n",
        );
        push(
            &mut out,
            &format!(
                "pg_serve_uptime_seconds {}\n",
                self.started.elapsed().as_secs()
            ),
        );
        push(
            &mut out,
            "# HELP pg_serve_connections_total Connections accepted.\n\
             # TYPE pg_serve_connections_total counter\n",
        );
        push(
            &mut out,
            &format!(
                "pg_serve_connections_total {}\n",
                self.connections.load(Ordering::Relaxed)
            ),
        );
        push(
            &mut out,
            "# HELP pg_serve_open_connections Connections currently open.\n\
             # TYPE pg_serve_open_connections gauge\n",
        );
        push(
            &mut out,
            &format!("pg_serve_open_connections {}\n", self.open_connections()),
        );
        push(
            &mut out,
            "# HELP pg_serve_busy_rejections_total Connections answered 503 because the worker pool was full.\n\
             # TYPE pg_serve_busy_rejections_total counter\n",
        );
        push(
            &mut out,
            &format!(
                "pg_serve_busy_rejections_total {}\n",
                self.busy_rejections.load(Ordering::Relaxed)
            ),
        );
        push(
            &mut out,
            "# HELP pg_serve_session_busy_rejections_total Ingests answered 503 because a session's ingest queue was full.\n\
             # TYPE pg_serve_session_busy_rejections_total counter\n",
        );
        push(
            &mut out,
            &format!(
                "pg_serve_session_busy_rejections_total {}\n",
                self.session_busy_rejections.load(Ordering::Relaxed)
            ),
        );
        push(
            &mut out,
            "# HELP pg_serve_idle_timeouts_total Connections killed by the idle/slowloris timeout.\n\
             # TYPE pg_serve_idle_timeouts_total counter\n",
        );
        push(
            &mut out,
            &format!(
                "pg_serve_idle_timeouts_total {}\n",
                self.idle_timeouts.load(Ordering::Relaxed)
            ),
        );
        push(
            &mut out,
            "# HELP pg_serve_connection_limit_rejections_total Connections refused at accept because the connection limit was reached.\n\
             # TYPE pg_serve_connection_limit_rejections_total counter\n",
        );
        push(
            &mut out,
            &format!(
                "pg_serve_connection_limit_rejections_total {}\n",
                self.connection_limit_rejections.load(Ordering::Relaxed)
            ),
        );

        let routes = self.routes.lock().unwrap_or_else(|p| p.into_inner());
        push(
            &mut out,
            "# HELP pg_serve_requests_total Requests handled, by route pattern and status.\n\
             # TYPE pg_serve_requests_total counter\n",
        );
        for (route, stat) in routes.iter() {
            for (status, n) in &stat.by_status {
                push(
                    &mut out,
                    &format!(
                        "pg_serve_requests_total{{route=\"{route}\",status=\"{status}\"}} {n}\n"
                    ),
                );
            }
        }
        push(
            &mut out,
            "# HELP pg_serve_request_duration_us Request handling latency in microseconds.\n\
             # TYPE pg_serve_request_duration_us histogram\n",
        );
        for (route, stat) in routes.iter() {
            let mut cumulative = 0u64;
            for (i, bound) in BUCKETS_US.iter().enumerate() {
                cumulative += stat.buckets[i];
                push(
                    &mut out,
                    &format!(
                        "pg_serve_request_duration_us_bucket{{route=\"{route}\",le=\"{bound}\"}} {cumulative}\n"
                    ),
                );
            }
            cumulative += stat.buckets[BUCKETS_US.len()];
            push(
                &mut out,
                &format!(
                    "pg_serve_request_duration_us_bucket{{route=\"{route}\",le=\"+Inf\"}} {cumulative}\n"
                ),
            );
            push(
                &mut out,
                &format!(
                    "pg_serve_request_duration_us_sum{{route=\"{route}\"}} {}\n",
                    stat.sum_us
                ),
            );
            push(
                &mut out,
                &format!(
                    "pg_serve_request_duration_us_count{{route=\"{route}\"}} {}\n",
                    stat.count
                ),
            );
        }
        drop(routes);

        push(
            &mut out,
            "# HELP pg_serve_session_batches_total Batches applied per session.\n\
             # TYPE pg_serve_session_batches_total counter\n",
        );
        for s in sessions {
            push(
                &mut out,
                &format!(
                    "pg_serve_session_batches_total{{session=\"{}\"}} {}\n",
                    s.name, s.batches
                ),
            );
        }
        push(
            &mut out,
            "# HELP pg_serve_session_elements_total Nodes and edges seen per session.\n\
             # TYPE pg_serve_session_elements_total counter\n",
        );
        for s in sessions {
            push(
                &mut out,
                &format!(
                    "pg_serve_session_elements_total{{session=\"{}\",kind=\"node\"}} {}\n\
                     pg_serve_session_elements_total{{session=\"{}\",kind=\"edge\"}} {}\n",
                    s.name, s.nodes, s.name, s.edges
                ),
            );
        }
        push(
            &mut out,
            "# HELP pg_serve_session_quarantined_total Input lines diverted to the quarantine per session.\n\
             # TYPE pg_serve_session_quarantined_total counter\n",
        );
        for s in sessions {
            push(
                &mut out,
                &format!(
                    "pg_serve_session_quarantined_total{{session=\"{}\"}} {}\n",
                    s.name, s.quarantined
                ),
            );
        }
        push(
            &mut out,
            "# HELP pg_serve_session_schema_version Current schema version per session.\n\
             # TYPE pg_serve_session_schema_version gauge\n",
        );
        for s in sessions {
            push(
                &mut out,
                &format!(
                    "pg_serve_session_schema_version{{session=\"{}\"}} {}\n",
                    s.name, s.version
                ),
            );
        }
        push(
            &mut out,
            "# HELP pg_serve_session_broken Whether the session's engine failed (1) or is healthy (0).\n\
             # TYPE pg_serve_session_broken gauge\n",
        );
        for s in sessions {
            push(
                &mut out,
                &format!(
                    "pg_serve_session_broken{{session=\"{}\"}} {}\n",
                    s.name,
                    u8::from(s.broken)
                ),
            );
        }
        push(
            &mut out,
            "# HELP pg_serve_session_accum_bytes Estimated bytes retained by per-type accumulator statistics.\n\
             # TYPE pg_serve_session_accum_bytes gauge\n",
        );
        for s in sessions {
            push(
                &mut out,
                &format!(
                    "pg_serve_session_accum_bytes{{session=\"{}\"}} {}\n",
                    s.name, s.accum_bytes
                ),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_route_and_session_series() {
        let m = Metrics::new();
        m.connection_opened();
        m.busy_rejection();
        m.record("/healthz", 200, Duration::from_micros(50));
        m.record("/sessions/{id}/ingest", 200, Duration::from_micros(2_000));
        m.record("/sessions/{id}/ingest", 422, Duration::from_micros(800));
        let text = m.render(&[SessionStats {
            name: "s1".into(),
            batches: 3,
            nodes: 10,
            edges: 4,
            quarantined: 1,
            version: 4,
            broken: false,
            accum_bytes: 12_345,
        }]);
        assert!(text.contains("pg_serve_connections_total 1"));
        assert!(text.contains("pg_serve_busy_rejections_total 1"));
        assert!(text.contains("pg_serve_open_connections 1"));
        assert!(text.contains("pg_serve_session_busy_rejections_total 0"));
        assert!(text.contains("pg_serve_idle_timeouts_total 0"));
        assert!(text.contains("pg_serve_connection_limit_rejections_total 0"));
        assert!(text
            .contains("pg_serve_requests_total{route=\"/sessions/{id}/ingest\",status=\"422\"} 1"));
        assert!(text.contains("pg_serve_requests_total{route=\"/healthz\",status=\"200\"} 1"));
        assert!(
            text.contains("pg_serve_request_duration_us_count{route=\"/sessions/{id}/ingest\"} 2")
        );
        assert!(text.contains("pg_serve_session_batches_total{session=\"s1\"} 3"));
        assert!(text.contains("pg_serve_session_broken{session=\"s1\"} 0"));
        assert!(text.contains("pg_serve_session_accum_bytes{session=\"s1\"} 12345"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record("/r", 200, Duration::from_micros(50)); // le=100
        m.record("/r", 200, Duration::from_micros(400)); // le=500
        m.record("/r", 200, Duration::from_secs(60)); // +Inf only
        let text = m.render(&[]);
        assert!(text.contains("pg_serve_request_duration_us_bucket{route=\"/r\",le=\"100\"} 1"));
        assert!(text.contains("pg_serve_request_duration_us_bucket{route=\"/r\",le=\"500\"} 2"));
        assert!(text.contains("pg_serve_request_duration_us_bucket{route=\"/r\",le=\"5000000\"} 2"));
        assert!(text.contains("pg_serve_request_duration_us_bucket{route=\"/r\",le=\"+Inf\"} 3"));
        assert!(text.contains("pg_serve_request_duration_us_count{route=\"/r\"} 3"));
    }
}
