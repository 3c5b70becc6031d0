//! Crash drills for a durable session's persist.
//!
//! *Torn persist.* A served session is persisted as one frame, written to
//! a temp file, fsynced and renamed into place. The drill builds every
//! state a crash during one persist can leave on disk — the temp frame
//! partly written, written but not renamed, renamed — plus the layout of
//! a build before envelope v3 whose `session.json` is one save behind its
//! newest checkpoint (a crash between that writer's two renames). From
//! each, `Registry::open` must resume a consistent session: the ETag's
//! hash is the served body's, the quarantine total is the restored
//! batches' total, and an edge to any node of a restored batch applies.
//!
//! *Failing save.* A cadence save that fails (here: a directory where the
//! temp frame goes) fails no ingest. The response carries the error, the
//! previous frame stays the resume point, the checkpoint lag keeps
//! counting, and the next batch after the obstacle is gone saves.

use pg_hive::content_hash_hex;
use pg_serve::{Registry, RegistryConfig, ServerConfig, SessionSpec};
use std::fs;
use std::path::{Path, PathBuf};

mod util;
use util::{downgrade_to_v2, edge_line, node_line, scratch_dir, TestServer};

const NAME: &str = "s";
const NODES_PER_BATCH: u64 = 3;

fn open(state_dir: &Path) -> (Registry, Vec<String>) {
    Registry::open(RegistryConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..RegistryConfig::default()
    })
}

/// Batch `i`: three nodes with ids `10 i + n`, labelled per batch, and a
/// line the session's skip policy quarantines.
fn node_batch(i: u64) -> String {
    let mut out = String::new();
    for n in 0..NODES_PER_BATCH {
        let label = if n == 0 {
            "Person".to_owned()
        } else {
            format!("L{i}")
        };
        out += &node_line(10 * i + n, &label, r#""k":{"Int":1}"#);
        out.push('\n');
    }
    out + "not json\n"
}

/// One edge into every node of the first `batches` node batches.
fn edges_into(batches: u64) -> (String, usize) {
    let mut out = String::new();
    let mut count = 0;
    for i in 0..batches {
        for n in 0..NODES_PER_BATCH {
            let tgt = 10 * i + n;
            out += &edge_line(1000 + tgt, 0, tgt, "R");
            out.push('\n');
            count += 1;
        }
    }
    (out, count)
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// The newest `ckpt-*` file under `ckpt`.
fn newest_frame(ckpt: &Path) -> PathBuf {
    let mut frames: Vec<PathBuf> = fs::read_dir(ckpt)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("ckpt-")
        })
        .collect();
    frames.sort();
    frames.pop().expect("a frame")
}

/// Open `state_dir` and check the session it resumes against what the
/// live session reported after `batches` node batches.
fn assert_consistent(state_dir: &Path, batches: u64, recorded: &[(u64, String)], case: &str) {
    let (registry, warnings) = open(state_dir);
    assert!(warnings.is_empty(), "{case}: {warnings:?}");
    let live = registry
        .get(NAME)
        .unwrap_or_else(|| panic!("{case}: no session"));
    let (version, hash) = live.handle().version_info();
    assert_eq!(
        hash,
        content_hash_hex(&live.handle().schema()),
        "{case}: the ETag's hash is not the served body's"
    );
    assert_eq!(
        (version, hash),
        recorded[batches as usize],
        "{case}: resumed to another version than the one after batch {batches}"
    );
    assert_eq!(live.handle().batches_processed() as u64, batches, "{case}");
    assert_eq!(
        live.quarantined_total(),
        batches,
        "{case}: quarantine total"
    );
    let (body, count) = edges_into(batches);
    let report = live
        .ingest_jsonl(body.as_bytes())
        .unwrap_or_else(|_| panic!("{case}: the edge batch was refused"));
    assert_eq!(
        (report.outcome.edges, report.quarantine.len()),
        (count, 0),
        "{case}: edges into restored nodes dangle: {:?}",
        report.quarantine.entries()
    );
}

#[test]
fn every_crash_point_of_a_persist_resumes_a_consistent_session() {
    let work = scratch_dir("torn");
    let live_dir = work.join("live");
    let (registry, _) = open(&live_dir);
    let spec = SessionSpec {
        checkpoint_every: 1,
        ..SessionSpec::default()
    };
    let live = registry.create(NAME, spec).unwrap();
    let mut recorded = vec![live.handle().version_info()];
    let before = work.join("before");
    for i in 0..2 {
        if i == 1 {
            copy_dir(&live_dir, &before);
        }
        let report = live
            .ingest_jsonl(node_batch(i).as_bytes())
            .unwrap_or_else(|_| panic!("ingest {i}"));
        assert!(report.checkpointed, "{:?}", report.checkpoint_error);
        recorded.push(live.handle().version_info());
    }
    drop((live, registry));

    // The persist of batch 2 is the one the crash interrupts.
    let in_flight = newest_frame(&live_dir.join(NAME).join("ckpt"));
    let frame = fs::read(&in_flight).unwrap();
    let file_name = in_flight.file_name().unwrap().to_str().unwrap();
    let seq = file_name
        .strip_prefix("ckpt-")
        .unwrap()
        .strip_suffix(".pghive")
        .unwrap();
    let temp = format!(".tmp-ckpt-{seq}");
    let cases: [(&str, &str, &[u8], u64); 3] = [
        (
            "temp frame partly written",
            &temp,
            &frame[..frame.len() / 2],
            1,
        ),
        ("temp frame written, not renamed", &temp, &frame, 1),
        ("frame renamed", file_name, &frame, 2),
    ];
    for (case, file, bytes, batches) in cases {
        let state = work.join(case.replace([' ', ','], "-"));
        copy_dir(&before, &state);
        fs::write(state.join(NAME).join("ckpt").join(file), bytes).unwrap();
        assert_consistent(&state, batches, &recorded, case);
    }

    // A pre-v3 directory whose session.json is one save behind.
    let state = work.join("legacy");
    copy_dir(&live_dir, &state);
    downgrade_to_v2(&state.join(NAME), Some(seq.parse::<u64>().unwrap() - 1));
    assert_consistent(&state, 1, &recorded, "v2 checkpoint, stale session.json");
    let _ = fs::remove_dir_all(&work);
}

fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
    v.get(key).unwrap_or(&serde::Value::Null)
}

#[test]
fn a_failing_cadence_save_fails_no_ingest_and_retries_on_the_next_batch() {
    let state_dir = scratch_dir("failing-save");
    let server = TestServer::start(ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = server.client();
    let resp = client
        .post("/sessions", br#"{"name":"s","checkpoint_every":1}"#)
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let ingest = |client: &mut pg_serve::Client, i: u64| {
        let resp = client
            .post("/sessions/s/ingest", node_batch(i).as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        resp.json().unwrap()
    };
    let lag = |client: &mut pg_serve::Client| {
        let summary = client.get("/sessions/s").unwrap().json().unwrap();
        field(&summary, "checkpoint_lag").clone()
    };
    let v = ingest(&mut client, 0);
    assert_eq!(field(&v, "checkpointed"), &serde::Value::Bool(true));
    let ckpt = state_dir.join(NAME).join("ckpt");
    let resume_point = newest_frame(&ckpt);

    // The next save's temp frame cannot be created.
    let seq = resume_point.file_name().unwrap().to_str().unwrap()[5..13].parse::<u64>();
    let obstacle = ckpt.join(format!(".tmp-ckpt-{:08}", seq.unwrap() + 1));
    fs::create_dir(&obstacle).unwrap();
    for i in 1..3 {
        let v = ingest(&mut client, i);
        assert_eq!(field(&v, "checkpointed"), &serde::Value::Bool(false));
        let error = field(&v, "checkpoint_error").as_str().unwrap_or_default();
        assert!(error.contains("saving checkpoint"), "{v:?}");
        assert_eq!(lag(&mut client), serde::Value::U64(i));
        assert_eq!(newest_frame(&ckpt), resume_point, "the resume point moved");
    }
    // A restart now resumes the batch the last good frame holds.
    let copy = scratch_dir("failing-save-copy");
    copy_dir(&state_dir, &copy);
    fs::remove_dir(
        copy.join(NAME)
            .join("ckpt")
            .join(obstacle.file_name().unwrap()),
    )
    .unwrap();
    let (registry, warnings) = open(&copy);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(registry.get(NAME).unwrap().handle().batches_processed(), 1);
    drop(registry);

    fs::remove_dir(&obstacle).unwrap();
    let v = ingest(&mut client, 3);
    assert_eq!(
        field(&v, "checkpointed"),
        &serde::Value::Bool(true),
        "{v:?}"
    );
    assert!(v.get("checkpoint_error").is_none(), "{v:?}");
    assert_eq!(lag(&mut client), serde::Value::U64(0));
    drop(client);
    assert!(server.stop().persist_failures.is_empty());
    let (registry, _) = open(&state_dir);
    assert_eq!(registry.get(NAME).unwrap().handle().batches_processed(), 4);
    let _ = fs::remove_dir_all(&state_dir);
    let _ = fs::remove_dir_all(&copy);
}
