//! Hostile bytes for the legacy session sidecar: a structure-aware
//! mutation battery over `session.json`, which builds before checkpoint
//! envelope v3 wrote beside their v1 / v2 checkpoints and which
//! `Registry::open` still reads for such a directory when a server
//! starts.
//!
//! Seeds are three durable sessions a server legitimately writes — the
//! default spec, a MinHash spec with a capped error policy, and a
//! stream-mode spec, each with a few batches applied — rewritten into
//! that older layout (`util::downgrade_to_v2`). Mutations drop,
//! duplicate and retype fields and array items anywhere in the sidecar
//! — its name, its spec, and the aux state (schema history, node-label
//! index, seen edges) — and push numbers to the edges of their range.
//! The engine checkpoints beside it are left as written.
//!
//! Contract: never a panic; each session either resumes under its own
//! directory's name with a spec that validates and then serves an ingest,
//! or is skipped with one warning; opening allocates in proportion to the
//! bytes on disk and returns promptly.

use pg_serve::{Registry, RegistryConfig, SessionSpec};
use proptest::prelude::*;
use serde::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

#[path = "../../core/tests/mutation/mod.rs"]
mod mutation;
mod util;
use mutation::{allocation_bound, metered, mutate_field, mutate_item, mutate_number};

/// The session every seed directory holds.
const NAME: &str = "s";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pg-serve-sidecar-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(state_dir: &Path) -> (Registry, Vec<String>) {
    Registry::open(RegistryConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..RegistryConfig::default()
    })
}

/// Labeled and unlabeled nodes, a late label, and edges over both.
fn batch(i: u64) -> String {
    let mut out = String::new();
    for n in 0..6 {
        let id = i * 100 + n;
        let labels = match n % 3 {
            0 => "[]".to_owned(),
            1 => "[\"Person\"]".to_owned(),
            _ => format!("[\"L{i}\"]"),
        };
        out += &format!(
            "{{\"kind\":\"node\",\"id\":{id},\"labels\":{labels},\"props\":{{\"k{n}\":{{\"Int\":{n}}},\"name\":{{\"Str\":\"x\"}}}}}}\n"
        );
    }
    for n in 0..4 {
        let (src, tgt) = (i * 100 + n, i * 100 + n + 1);
        out += &format!(
            "{{\"kind\":\"edge\",\"id\":{},\"src\":{src},\"tgt\":{tgt},\"labels\":[\"R\"],\"props\":{{}}}}\n",
            i * 100 + 50 + n
        );
    }
    out
}

/// Write one durable session per spec into its own state directory and
/// return the directories.
fn write_seeds() -> Vec<PathBuf> {
    let specs = [
        SessionSpec::default(),
        SessionSpec {
            method: "minhash".into(),
            on_error: "cap:5".into(),
            ..SessionSpec::default()
        },
        SessionSpec {
            mode: Some("stream".into()),
            seed: 7,
            ..SessionSpec::default()
        },
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let dir = scratch(&format!("seed{i}"));
            let (registry, warnings) = open(&dir);
            assert!(warnings.is_empty(), "{warnings:?}");
            let live = registry.create(NAME, spec).expect("create");
            for b in 0..3 {
                assert!(live.ingest_jsonl(batch(b).as_bytes()).is_ok(), "ingest");
            }
            live.persist().expect("persist");
            util::downgrade_to_v2(&dir.join(NAME), None);
            dir
        })
        .collect()
}

fn sidecar_path(state_dir: &Path) -> PathBuf {
    state_dir.join(NAME).join("session.json")
}

/// Bytes `Registry::open` reads: the sidecar and every checkpoint file.
fn bytes_on_disk(dir: &Path) -> usize {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => bytes_on_disk(&e.path()),
                    _ => e.metadata().map_or(0, |m| m.len() as usize),
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Open `state_dir` under the battery's contract; `Ok(true)` if the
/// session resumed.
fn check(state_dir: &Path) -> Result<bool, TestCaseError> {
    let input = bytes_on_disk(state_dir);
    let ((registry, warnings), requested, elapsed) = metered(|| open(state_dir));
    prop_assert!(
        requested <= allocation_bound(input),
        "opening asked for {requested} bytes on {input} bytes of state"
    );
    prop_assert!(elapsed < Duration::from_secs(5), "opening took {elapsed:?}");
    let sessions = registry.list();
    match sessions.as_slice() {
        [] => {
            prop_assert_eq!(warnings.len(), 1, "a skipped session warns once");
            prop_assert!(
                warnings[0].starts_with("skipping session"),
                "{}",
                warnings[0]
            );
            Ok(false)
        }
        [live] => {
            prop_assert!(warnings.is_empty(), "{:?}", warnings);
            prop_assert_eq!(live.name(), NAME, "resumed under another directory's name");
            prop_assert!(live.spec().validate().is_ok(), "{:?}", live.spec());
            let _ = live.summary();
            let before = live.handle().version_info().0;
            prop_assert!(
                live.ingest_jsonl(batch(9).as_bytes()).is_ok(),
                "resumed session refused a batch"
            );
            prop_assert!(
                live.handle().version_info().0 >= before,
                "version moved backwards"
            );
            Ok(true)
        }
        more => Err(TestCaseError::Fail(format!(
            "{} sessions from one directory",
            more.len()
        ))),
    }
}

/// Apply one mutation to `payload`; `a` and `b` choose where and what.
fn mutate(payload: &mut Value, kind: u8, a: u64, b: u64) {
    match kind {
        0..=2 => mutate_field(payload, kind, a, b),
        3..=5 => mutate_item(payload, kind - 3, a, b),
        _ => mutate_number(payload, a, b),
    }
}

#[test]
fn every_seed_resumes_unmutated() {
    for dir in write_seeds() {
        assert!(check(&dir).unwrap(), "seed refused: {}", dir.display());
        let _ = fs::remove_dir_all(dir);
    }
}

/// Copy a seed state directory, so what a case writes stays its own.
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

/// Rewrite the first seed's sidecar with `edit` and open it.
fn open_edited(edit: impl FnOnce(&mut Value)) -> (Registry, Vec<String>) {
    let dirs = write_seeds();
    let path = sidecar_path(&dirs[0]);
    let mut sidecar: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
    edit(&mut sidecar);
    fs::write(&path, serde_json::to_string(&sidecar).unwrap()).unwrap();
    let opened = open(&dirs[0]);
    for dir in dirs {
        let _ = fs::remove_dir_all(dir);
    }
    opened
}

/// A sidecar naming another session is not that session: resuming it
/// under the other name would let a later `POST /sessions` of the
/// directory's own name write into the same directory.
#[test]
fn sidecar_renamed_to_another_session_is_skipped() {
    let (registry, warnings) = open_edited(|sidecar| {
        *mutation::field_mut(sidecar, "name").unwrap() = Value::Str("other".into());
    });
    assert!(
        registry.get("other").is_none(),
        "resumed under the sidecar's name"
    );
    assert!(registry.list().is_empty());
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("validating name"), "{}", warnings[0]);
}

/// A version counter with no room left would overflow on the session's
/// next schema change; the history is refused when it is read instead.
#[test]
fn sidecar_with_an_exhausted_version_counter_is_skipped() {
    let (registry, warnings) = open_edited(|sidecar| {
        let aux = mutation::field_mut(sidecar, "aux").unwrap();
        let history = mutation::field_mut(aux, "history").unwrap();
        *mutation::field_mut(history, "next_version").unwrap() = Value::U64(u64::MAX);
    });
    assert!(registry.list().is_empty());
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].contains("validating history"),
        "{}",
        warnings[0]
    );
}

/// Each seed's directory and its sidecar as written, removed with the
/// thread that wrote them.
struct Seeds(Vec<(PathBuf, Value)>);

impl Drop for Seeds {
    fn drop(&mut self) {
        for (dir, _) in &self.0 {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutants_resume_validated_or_are_skipped(
        steps in prop::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 1..4),
    ) {
        thread_local! {
            static SEEDS: Seeds = Seeds(
                write_seeds()
                    .into_iter()
                    .map(|dir| {
                        let text = fs::read_to_string(sidecar_path(&dir)).unwrap();
                        (dir, serde_json::from_str(&text).unwrap())
                    })
                    .collect(),
            );
        }
        let case = scratch("case");
        for (dir, seed) in SEEDS.with(|seeds| seeds.0.clone()) {
            let mut payload = seed;
            for &(kind, a, b) in &steps {
                mutate(&mut payload, kind, a, b);
            }
            let _ = fs::remove_dir_all(&case);
            copy_dir(&dir, &case);
            fs::write(sidecar_path(&case), serde_json::to_string(&payload).unwrap()).unwrap();
            check(&case)?;
        }
        let _ = fs::remove_dir_all(&case);
    }
}
