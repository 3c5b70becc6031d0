//! The metric vocabulary: every name the benchmark emits, with its unit,
//! direction, regression bound (end-to-end only) and — for per-layer
//! metrics — the end-to-end metric it should move, and where. A unit
//! test holds `BENCHMARK.json` to these tables.

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How uncertain a run's value — the median of its samples — is, as a
/// share of it: the quartile distance over √n, the scale of a median's
/// standard error.
pub fn spread(s: &Summary) -> f64 {
    if s.median == 0.0 {
        0.0
    } else {
        (s.q3 - s.q1) / (s.n as f64).sqrt() / s.median.abs()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline value by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
}

/// Measured with tracing off, on the release binaries, per workload. A
/// run reports the median of its samples. The two timings are in seconds
/// at reference speed: wall time scaled by the calibrations around it
/// (`calibrate.rs`).
pub const END_TO_END: [EndToEnd; 3] = [
    // Spawn (CLI) or first byte sent (served) → the schema read back
    // and verified.
    EndToEnd {
        name: "hash_out_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // VmHWM of the pg-hive child (the server, when serving). The
    // server's settles at 24.5 or 26.4 MB depending on how its queue
    // filled; the bound has to span that.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    // Corpus generation + file write (+ body cutting), over the run's
    // set-ups.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// From the traced replay unless `moves` says *e2e-run* (client side of
/// the untraced served repetitions) or *count*.
pub const PER_LAYER: [PerLayer; 56] = [
    layer("synth.generate_ms", "ms", Lower, "setup_s only"),
    layer("synth.write_ms", "ms", Lower, "setup_s only"),
    layer("synth.corpus_bytes", "bytes", Lower, "count; setup_s only"),
    layer("cli.read_file_ms", "ms", Lower, "hash_out_s on offline_uniform"),
    layer("cli.write_out_ms", "ms", Lower, "hash_out_s on offline_uniform"),
    layer("cli.teardown_ms", "ms", Lower, "hash_out_s on offline_uniform (explicit drops of text, graph, batches, result)"),
    layer("cli.unattributed_ms", "ms", Lower, "hash_out_s: fastest child repetition minus the top-level spans of the fastest replay — process start, page faults, allocator, exit"),
    layer("store.decode_ms", "ms", Lower, "hash_out_s on offline_uniform/stream_uniform/served_ingest; ~none on incremental_diverse"),
    layer("store.decode_mb_per_s", "MB/s", Higher, "as store.decode_ms"),
    layer("store.decode_records", "count", Higher, "count; regime marker"),
    layer("store.load_ms", "ms", Lower, "hash_out_s on offline_uniform (load) and the batched CLI workloads (split_batches)"),
    layer("embed.sentences_ms", "ms", Lower, "via core.featurize_ms: hash_out_s on offline_uniform (x1), stream_uniform (x16), served_ingest (per body)"),
    layer("embed.train_ms", "ms", Lower, "as embed.sentences_ms; the largest share on stream_uniform and served_ingest"),
    layer("core.process_batch_ms", "ms", Lower, "hash_out_s everywhere"),
    layer("core.featurize_ms", "ms", Lower, "hash_out_s on the uniform workloads"),
    layer("core.featurize_self_ms", "ms", Lower, "core.featurize_ms minus the embed.* replay"),
    layer("core.cluster_ms", "ms", Lower, "hash_out_s on incremental_diverse; upper bound of lsh; ~none on offline_uniform"),
    layer("core.extract_ms", "ms", Lower, "hash_out_s on incremental_diverse (Algorithm 2 against a growing state); ~none on offline_uniform"),
    layer("core.post_ms", "ms", Lower, "hash_out_s on the batched workloads (post-processing per batch)"),
    layer("core.finish_ms", "ms", Lower, "hash_out_s on the CLI workloads"),
    layer("core.serialize_ms", "ms", Lower, "hash_out_s on the CLI workloads (to_json)"),
    layer("core.batches", "count", Lower, "count; process_batch calls per repetition"),
    layer("core.node_fingerprints", "count", Lower, "count; regime marker, must repeat exactly"),
    layer("core.edge_fingerprints", "count", Lower, "count; regime marker, must repeat exactly"),
    layer("core.dedup_ratio", "ratio", Higher, "records per distinct fingerprint: useful work / attempts"),
    layer("core.node_types", "count", Lower, "count; output shape, must repeat exactly"),
    layer("core.edge_types", "count", Lower, "count; output shape, must repeat exactly"),
    layer("core.process_batch_t1_ms", "ms", Lower, "single-threaded baseline of core.process_batch_ms"),
    layer("core.parallel_speedup", "ratio", Higher, "hash_out_s everywhere once above 1.0"),
    layer("core.checkpoint_encode_ms", "ms", Lower, "hash_out_s on incremental_diverse (HiveSession::checkpoint after every batch)"),
    layer("core.checkpoint_save_ms", "ms", Lower, "hash_out_s on incremental_diverse and served_ingest (encode + fsync + rename)"),
    layer("core.checkpoint_bytes", "bytes", Lower, "core.checkpoint_save_ms; must repeat exactly"),
    layer("core.accum_bytes", "bytes", Lower, "peak_rss_mb; flat across batches on stream_uniform (asserted)"),
    layer("server.ingest_p50_ms", "ms", Lower, "e2e-run; hash_out_s on served_ingest (closed loop: 2 callers / latency = throughput)"),
    layer("server.ingest_tail_ms", "ms", Lower, "e2e-run; the highest percentile with >= 10 samples beyond it"),
    layer("server.ingest_tail_pct", "pct", Higher, "e2e-run; which percentile server.ingest_tail_ms is"),
    layer("server.ingest_max_ms", "ms", Lower, "e2e-run"),
    layer("server.schema_get_p50_ms", "ms", Lower, "e2e-run; reads beside writes"),
    layer("server.schema_get_max_ms", "ms", Lower, "e2e-run"),
    layer("server.requests", "count", Lower, "e2e-run count per repetition (POSTs + schema GETs)"),
    layer("server.http_503", "count", Lower, "e2e-run count per repetition; backpressure answers"),
    layer("server.retries", "count", Lower, "e2e-run count per repetition"),
    layer("server.handler_mean_us", "us", Lower, "e2e-run; /metrics request_duration_us sum / count of the ingest route"),
    layer("server.startup_ms", "ms", Lower, "e2e-run; spawn -> listening on"),
    layer("server.drain_ms", "ms", Lower, "e2e-run; SIGINT -> exit 0 with the final checkpoint"),
    layer("server.state_dir_bytes", "bytes", Lower, "e2e-run; checkpoints + sidecar after the drain"),
    layer("server.head_parse_us", "us", Lower, "hash_out_s on served_ingest (HeadParser over every request head)"),
    layer("server.engine_ms", "ms", Lower, "hash_out_s on served_ingest: same bodies through LiveSession, one at a time, no socket"),
    layer("server.ingest_self_ms", "ms", Lower, "server.engine_ms outside process_batch: body decode, semantic staging, version history"),
    layer("server.engine_share", "ratio", Lower, "engine / served wall: near or above 1 the engine bounds hash_out_s (store/core gains carry over; above 1 the two callers overlapped), well below 1 reactor/http/queueing do"),
    layer("trace.replay_total_ms", "ms", Lower, "the traced replay's pipeline, root span"),
    layer("trace.overhead_ms", "ms", Lower, "traced minus untraced replay total"),
    layer("trace.spans", "count", Lower, "count; spans per traced repetition"),
    layer("box.wall_median_s", "s", Lower, "e2e-run; hash_out_s before scaling: the median repetition as the clock read it"),
    layer("box.wall_floor_s", "s", Lower, "e2e-run; the fastest repetition as the clock read it; what cli.unattributed_ms is taken from"),
    layer("box.calibration_ms", "ms", Lower, "e2e-run; median of the run's calibrations: the box, not the program (100 ms at reference speed)"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use serde_json::JsonValue;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn names(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_per_layer_metric_has_a_value() {
        // `per_layer_values` dispatches on the name and reads 0 for a
        // name it does not know: a typo must not pass as "no work".
        let main = include_str!("main.rs");
        for m in &PER_LAYER {
            assert!(
                main.contains(&format!("\"{}\" ", m.name)),
                "no value arm for {}",
                m.name
            );
        }
    }

    #[test]
    fn readme_documents_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("README.md sits beside Cargo.toml");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
        for m in &PER_LAYER {
            assert!(
                readme.contains(m.moves),
                "README.md lost the moves column of {}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let v: JsonValue = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_owned()));
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(names(&v, "per_layer"), layers);

        for m in v.get("end_to_end").and_then(JsonValue::as_array).unwrap() {
            let def = END_TO_END
                .iter()
                .find(|d| Some(d.name) == m.get("name").and_then(JsonValue::as_str))
                .unwrap();
            assert_eq!(
                m.get("better").and_then(JsonValue::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(
                m.get("bound"),
                Some(&JsonValue::F64(def.bound)),
                "{}",
                def.name
            );
            assert!(def.bound <= 0.25);
        }
        for (name, unit) in workloads
            .iter()
            .map(|w| (w, "s"))
            .chain(e2e.iter().chain(&layers).map(|(n, u)| (n, u.as_str())))
        {
            assert!(valid_name(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut all: Vec<&String> = workloads
            .iter()
            .chain(e2e.iter().chain(&layers).map(|(n, _)| n))
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            workloads.len() + e2e.len() + layers.len(),
            "a name is used once"
        );
    }
}
