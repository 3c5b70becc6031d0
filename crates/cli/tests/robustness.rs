//! End-to-end robustness tests driven through the command layer
//! (`parse` + `run`), covering the ISSUE 2 CLI contracts: `--on-error`
//! strict/skip behaviour, kill-and-resume through the panic boundary,
//! and degenerate inputs (zero nodes, zero edges, quarantined
//! endpoints) flowing through full discovery.

use pg_hive_cli::opts::{parse, CliError};
use pg_hive_cli::run;
use std::fs;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pg-hive-robustness-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn argv(a: &[&str]) -> Vec<String> {
    a.iter().map(|s| (*s).to_owned()).collect()
}

/// A CSV pair with three malformed lines: a node with a non-numeric id
/// (line 3), a node row with the wrong width (line 4), and an edge
/// whose target only existed on a quarantined row (line 3).
fn write_dirty_csvs(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let nodes = dir.join("nodes.csv");
    let edges = dir.join("edges.csv");
    fs::write(
        &nodes,
        "id,labels,name\n1,Person,Ada\nbogus,Person,Broken\n3,Person\n4,Person,Bob\n",
    )
    .unwrap();
    fs::write(&edges, "id,src,tgt,labels\n10,1,4,KNOWS\n11,1,3,KNOWS\n").unwrap();
    (nodes, edges)
}

/// A misspelled flag stops the run with exit code 2 instead of
/// discovering with the default silently substituted.
#[test]
fn unknown_flag_is_a_usage_error_with_exit_code_2() {
    let err = parse(&argv(&["discover", "--jsonl", "g.jsonl", "--thraeds", "4"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("--thraeds"), "{err}");
}

/// A bad value is refused at parse time, by the flag's name. An
/// out-of-range θ, `generate` rate or scale used to reach a library
/// `assert!` and die with a panic (exit 101) — or run, as
/// `--label-availability 7` did; `--out --stream` wrote the schema to a
/// file named `--stream`; a repeated flag was silently last-wins; a
/// checkpoint cadence without a directory was silently ignored.
#[test]
fn bad_values_are_usage_errors_that_name_the_flag() {
    let discover = ["discover", "--jsonl", "g.jsonl"];
    let generate = ["generate", "--dataset", "POLE", "--out-dir", "/nonexistent"];
    for (command, bad) in [
        (&discover[..], &["--theta", "1.5"][..]),
        (&discover, &["--theta", "-1"]),
        (&discover, &["--theta", "nan"]),
        (&generate, &["--noise", "1.5"]),
        (&generate, &["--scale", "-1"]),
        (&generate, &["--scale", "nan"]),
        (&generate, &["--label-availability", "7"]),
        (&discover, &["--out", "--stream"]),
        (&discover, &["--seed", "1", "--seed", "2"]),
        (&discover, &["--checkpoint-every", "3"]),
        (&discover, &["--checkpoint-keep", "2"]),
    ] {
        let err = parse(&argv(&[command, bad].concat())).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{bad:?}: {err:?}");
        let message = err.to_string();
        let message = message.lines().next().unwrap();
        assert!(message.contains(bad[0]), "{bad:?}: {message}");
    }
    // Not caught: a value that merely starts with a dash, or spells a
    // flag of some *other* command, is still a value.
    for out in ["-schema.json", "--dataset"] {
        assert!(parse(&argv(&[&discover[..], &["--out", out]].concat())).is_ok());
    }
}

/// A bad `--mode` is a usage error (exit 2) before any file is opened,
/// not an input error (exit 3) about the files that were never read.
#[test]
fn unknown_validate_mode_is_a_usage_error_before_any_io() {
    let err = parse(&argv(&[
        "validate",
        "--mode",
        "bogus",
        "--schema",
        "/nonexistent",
        "--jsonl",
        "/nonexistent",
    ]))
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn strict_mode_fails_fast_on_dirty_input() {
    let dir = tmpdir("strict");
    let (nodes, edges) = write_dirty_csvs(&dir);
    let err = run(&parse(&argv(&[
        "discover",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap_err();
    assert!(matches!(err, CliError::Input(_)), "{err:?}");
    assert_eq!(err.exit_code(), 3);
    let msg = err.to_string();
    assert!(msg.contains("nodes.csv line 3"), "{msg}");
    assert!(msg.contains("bad node id"), "{msg}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn skip_mode_quarantines_and_discovery_proceeds() {
    let dir = tmpdir("skip");
    let (nodes, edges) = write_dirty_csvs(&dir);
    let out_path = dir.join("schema.json");
    // With --out, the returned text is the status line prefixed by the
    // quarantine summary (without --out the summary goes to stderr so
    // stdout stays machine-parseable).
    let text = run(&parse(&argv(&[
        "discover",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--on-error",
        "skip",
        "--format",
        "json",
        "--out",
        out_path.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();
    assert!(text.contains("quarantined 3 malformed lines"), "{text}");
    assert!(text.contains("nodes.csv:3"), "{text}");
    assert!(text.contains("nodes.csv:4"), "{text}");
    // The edge whose endpoint was quarantined is itself quarantined —
    // it never reaches discovery as a dangling reference.
    assert!(text.contains("edges.csv:3"), "{text}");
    assert!(text.contains("discovered"), "{text}");
    // The surviving rows (nodes 1 and 4, edge 10) still make a schema.
    let schema = fs::read_to_string(&out_path).unwrap();
    assert!(schema.contains("Person"), "{schema}");
    assert!(schema.contains("KNOWS"), "{schema}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cap_policy_aborts_beyond_budget_through_cli() {
    let dir = tmpdir("cap");
    let (nodes, edges) = write_dirty_csvs(&dir);
    let err = run(&parse(&argv(&[
        "discover",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--on-error",
        "cap:1",
    ]))
    .unwrap())
    .unwrap_err();
    assert_eq!(err.exit_code(), 3);
    assert!(err.to_string().contains("cap of 1"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// The full crash drill, entirely through `run()`: discover in batches,
/// kill mid-run via the fault-injection flag (exit class 4, emergency
/// checkpoint written), resume, and end with a byte-identical schema to
/// the uninterrupted run.
#[test]
fn kill_then_resume_reproduces_the_uninterrupted_schema() {
    let dir = tmpdir("killresume");
    let dir_s = dir.to_str().unwrap();
    run(&parse(&argv(&[
        "generate",
        "--dataset",
        "POLE",
        "--out-dir",
        dir_s,
        "--scale",
        "0.05",
        "--jsonl",
    ]))
    .unwrap())
    .unwrap();
    let jsonl = dir.join("graph.jsonl");
    let jsonl_s = jsonl.to_str().unwrap();
    let ckpt_dir = dir.join("ckpt");

    // Reference: the same batched run, never interrupted.
    let full_path = dir.join("full.json");
    run(&parse(&argv(&[
        "discover",
        "--jsonl",
        jsonl_s,
        "--batches",
        "4",
        "--format",
        "json",
        "--out",
        full_path.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();

    // The crashing run. --checkpoint-every 4 means no periodic
    // checkpoint has fired by batch 2: only the emergency checkpoint
    // written by the panic boundary preserves the session.
    let err = run(&parse(&argv(&[
        "discover",
        "--jsonl",
        jsonl_s,
        "--batches",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "4",
        "--kill-after-batch",
        "2",
    ]))
    .unwrap())
    .unwrap_err();
    assert!(matches!(err, CliError::State(_)), "{err:?}");
    assert_eq!(err.exit_code(), 4);
    let msg = err.to_string();
    assert!(msg.contains("2 of 4 batches completed"), "{msg}");
    assert!(msg.contains("emergency checkpoint ->"), "{msg}");

    // Resume and finish.
    let resumed_path = dir.join("resumed.json");
    let text = run(&parse(&argv(&[
        "discover",
        "--jsonl",
        jsonl_s,
        "--batches",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--resume",
        "--format",
        "json",
        "--out",
        resumed_path.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();
    assert!(text.contains("resumed from"), "{text}");
    assert!(text.contains("at batch 2/4"), "{text}");

    let full = fs::read_to_string(&full_path).unwrap();
    let resumed = fs::read_to_string(&resumed_path).unwrap();
    assert_eq!(full, resumed, "resumed schema differs from uninterrupted");
    let _ = fs::remove_dir_all(&dir);
}

/// Retention floor: `--checkpoint-keep 1` holds even through the
/// emergency write (exactly one file survives the crash), and when a
/// *newer* checkpoint file is garbage (a torn write), `--resume` skips
/// it and still resumes from the emergency checkpoint — finishing with
/// the uninterrupted run's byte-identical schema.
#[test]
fn keep_one_survives_crash_and_corrupt_newest() {
    let dir = tmpdir("keepone");
    let dir_s = dir.to_str().unwrap();
    run(&parse(&argv(&[
        "generate",
        "--dataset",
        "POLE",
        "--out-dir",
        dir_s,
        "--scale",
        "0.05",
        "--jsonl",
    ]))
    .unwrap())
    .unwrap();
    let jsonl = dir.join("graph.jsonl");
    let jsonl_s = jsonl.to_str().unwrap();
    let ckpt_dir = dir.join("ckpt");

    let full_path = dir.join("full.json");
    run(&parse(&argv(&[
        "discover",
        "--jsonl",
        jsonl_s,
        "--batches",
        "4",
        "--format",
        "json",
        "--out",
        full_path.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();

    // Crash at batch 2 with per-batch checkpoints but retention 1: the
    // periodic checkpoints are pruned as they rotate, and the emergency
    // write prunes the last periodic one behind itself.
    let err = run(&parse(&argv(&[
        "discover",
        "--jsonl",
        jsonl_s,
        "--batches",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--checkpoint-keep",
        "1",
        "--kill-after-batch",
        "2",
    ]))
    .unwrap())
    .unwrap_err();
    assert_eq!(err.exit_code(), 4);
    assert!(err.to_string().contains("emergency checkpoint ->"), "{err}");

    let survivors: Vec<_> = fs::read_dir(&ckpt_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".pghive"))
        .collect();
    assert_eq!(
        survivors.len(),
        1,
        "retention 1 must leave exactly the emergency checkpoint: {survivors:?}"
    );

    // A garbage file with a higher sequence number shadows the good one.
    fs::write(ckpt_dir.join("ckpt-00000099.pghive"), b"torn write").unwrap();

    let resumed_path = dir.join("resumed.json");
    let text = run(&parse(&argv(&[
        "discover",
        "--jsonl",
        jsonl_s,
        "--batches",
        "4",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-keep",
        "1",
        "--resume",
        "--format",
        "json",
        "--out",
        resumed_path.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();
    assert!(text.contains("skipped corrupt checkpoint"), "{text}");
    assert!(text.contains("ckpt-00000099"), "{text}");
    assert!(
        text.contains(&format!(
            "resumed from {}",
            ckpt_dir.join(&survivors[0]).display()
        )),
        "{text}"
    );
    assert!(text.contains("at batch 2/4"), "{text}");

    let full = fs::read_to_string(&full_path).unwrap();
    let resumed = fs::read_to_string(&resumed_path).unwrap();
    assert_eq!(full, resumed, "resumed schema differs from uninterrupted");
    let _ = fs::remove_dir_all(&dir);
}

/// Format migration through the CLI: `tests/fixtures/ckpt_v1` is the
/// emergency checkpoint a v1-writing build left after batch 2 of 4 over
/// the graph beside it. `--resume` reads it, finishes on the
/// uninterrupted run's bytes and saves v3 from then on; with both v3
/// files torn, the next `--resume` falls back across the version
/// boundary to the v1 file and still finishes on the same bytes.
#[test]
fn resume_from_a_v1_directory_saves_v3_and_falls_back_to_v1() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ckpt_v1");
    let jsonl = fixtures.join("graph.jsonl");
    let dir = tmpdir("v1resume");
    let ckpt_dir = dir.join("ckpt");
    fs::create_dir_all(&ckpt_dir).unwrap();
    let v1 = "ckpt-00000002.pghive";
    fs::copy(fixtures.join(v1), ckpt_dir.join(v1)).unwrap();

    let discover = |extra: &[&str], out: &str| {
        let out = dir.join(out);
        let mut args = vec![
            "discover",
            "--jsonl",
            jsonl.to_str().unwrap(),
            "--batches",
            "4",
        ];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--format", "json", "--out", out.to_str().unwrap()]);
        let text = run(&parse(&argv(&args)).unwrap()).unwrap();
        (text, fs::read_to_string(out).unwrap())
    };
    let (_, full) = discover(&[], "full.json");
    let resume = [
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "1",
        "--resume",
    ];
    let version_of = |name: &str| {
        let bytes = fs::read(ckpt_dir.join(name)).unwrap();
        String::from_utf8_lossy(&bytes[..14]).into_owned()
    };

    let (text, resumed) = discover(&resume, "resumed.json");
    assert!(text.contains("at batch 2/4"), "{text}");
    assert_eq!(full, resumed, "v1 resume differs from uninterrupted");
    assert_eq!(version_of(v1), "PGHIVE-CKPT v1");
    let written = ["ckpt-00000003.pghive", "ckpt-00000004.pghive"];
    for name in written {
        assert_eq!(version_of(name), "PGHIVE-CKPT v3", "{name}");
        let bytes = fs::read(ckpt_dir.join(name)).unwrap();
        fs::write(ckpt_dir.join(name), &bytes[..bytes.len() / 2]).unwrap();
    }

    let (text, resumed) = discover(&resume, "fallback.json");
    assert_eq!(
        text.matches("skipped corrupt checkpoint").count(),
        2,
        "{text}"
    );
    assert!(
        text.contains(&format!("resumed from {}", ckpt_dir.join(v1).display())),
        "{text}"
    );
    assert_eq!(full, resumed, "fallback to v1 differs from uninterrupted");
    let _ = fs::remove_dir_all(&dir);
}

/// `--resume` from a directory holding only corrupt checkpoint files is
/// a state error (exit code 4) naming every file it tried — NOT a
/// silent fresh start, which would quietly recompute and mask the loss.
#[test]
fn resume_from_only_corrupt_checkpoints_is_a_state_error() {
    let dir = tmpdir("allcorrupt");
    fs::write(dir.join("nodes.csv"), "id,labels\n1,P\n2,P\n").unwrap();
    fs::write(dir.join("edges.csv"), "id,src,tgt,labels\n9,1,2,R\n").unwrap();
    let ckpt_dir = dir.join("ckpt");
    fs::create_dir_all(&ckpt_dir).unwrap();
    fs::write(ckpt_dir.join("ckpt-00000000.pghive"), b"not a checkpoint").unwrap();
    fs::write(
        ckpt_dir.join("ckpt-00000001.pghive"),
        b"PGHIVE-CKPT but truncated",
    )
    .unwrap();

    let err = run(&parse(&argv(&[
        "discover",
        "--nodes",
        dir.join("nodes.csv").to_str().unwrap(),
        "--edges",
        dir.join("edges.csv").to_str().unwrap(),
        "--batches",
        "2",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--resume",
    ]))
    .unwrap())
    .unwrap_err();
    assert!(matches!(err, CliError::State(_)), "{err:?}");
    assert_eq!(err.exit_code(), 4);
    let msg = err.to_string();
    assert!(msg.contains("no valid checkpoint found; tried 2"), "{msg}");
    assert!(msg.contains("ckpt-00000000.pghive"), "{msg}");
    assert!(msg.contains("ckpt-00000001.pghive"), "{msg}");
    let _ = fs::remove_dir_all(&dir);
}

/// `--resume` on an empty checkpoint directory is a fresh start, not an
/// error.
#[test]
fn resume_with_no_checkpoints_starts_fresh() {
    let dir = tmpdir("freshresume");
    fs::write(dir.join("nodes.csv"), "id,labels\n1,P\n2,P\n").unwrap();
    fs::write(dir.join("edges.csv"), "id,src,tgt,labels\n9,1,2,R\n").unwrap();
    let out_path = dir.join("schema.json");
    let text = run(&parse(&argv(&[
        "discover",
        "--nodes",
        dir.join("nodes.csv").to_str().unwrap(),
        "--edges",
        dir.join("edges.csv").to_str().unwrap(),
        "--batches",
        "2",
        "--checkpoint-dir",
        dir.join("ckpt").to_str().unwrap(),
        "--resume",
        "--out",
        out_path.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();
    assert!(
        text.contains("no checkpoint found; starting fresh"),
        "{text}"
    );
    assert!(out_path.exists());
    let _ = fs::remove_dir_all(&dir);
}

/// Zero-node and zero-edge graphs flow through the full discover
/// pipeline — one-shot and batched (which feeds empty batches through
/// the session) — without errors.
#[test]
fn degenerate_graphs_discover_cleanly() {
    let dir = tmpdir("degenerate");
    let empty_nodes = dir.join("empty_nodes.csv");
    let empty_edges = dir.join("empty_edges.csv");
    fs::write(&empty_nodes, "id,labels\n").unwrap();
    fs::write(&empty_edges, "id,src,tgt,labels\n").unwrap();

    // Zero nodes, zero edges: one-shot and batched.
    for batches in ["1", "3"] {
        let out = run(&parse(&argv(&[
            "discover",
            "--nodes",
            empty_nodes.to_str().unwrap(),
            "--edges",
            empty_edges.to_str().unwrap(),
            "--format",
            "json",
            "--batches",
            batches,
        ]))
        .unwrap())
        .unwrap();
        let schema: pg_model::SchemaGraph = serde_json::from_str(&out).unwrap();
        assert!(schema.node_types.is_empty(), "batches={batches}");
        assert!(schema.edge_types.is_empty(), "batches={batches}");
    }

    // Nodes but zero edges.
    let some_nodes = dir.join("some_nodes.csv");
    fs::write(&some_nodes, "id,labels,name\n1,Person,Ada\n2,Person,Bob\n").unwrap();
    let out = run(&parse(&argv(&[
        "discover",
        "--nodes",
        some_nodes.to_str().unwrap(),
        "--edges",
        empty_edges.to_str().unwrap(),
        "--format",
        "json",
        "--batches",
        "2",
    ]))
    .unwrap())
    .unwrap();
    let schema: pg_model::SchemaGraph = serde_json::from_str(&out).unwrap();
    assert_eq!(schema.node_types.len(), 1, "{out}");
    assert!(schema.edge_types.is_empty(), "{out}");
    assert!(out.contains("Person"), "{out}");

    // stats on the empty pair also stays calm.
    let out = run(&parse(&argv(&[
        "stats",
        "--nodes",
        empty_nodes.to_str().unwrap(),
        "--edges",
        empty_edges.to_str().unwrap(),
    ]))
    .unwrap())
    .unwrap();
    assert!(out.contains("0"), "{out}");
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint records which accumulator family produced it; resuming
/// it under the other family would silently mix exact and sketched
/// statistics, so both cross-mode directions must die with the typed
/// state error (exit class 4) while same-mode resume still works.
#[test]
fn cross_mode_resume_is_a_state_error() {
    let dir = tmpdir("crossmode");
    let dir_s = dir.to_str().unwrap();
    run(&parse(&argv(&[
        "generate",
        "--dataset",
        "POLE",
        "--out-dir",
        dir_s,
        "--scale",
        "0.05",
        "--jsonl",
    ]))
    .unwrap())
    .unwrap();
    let jsonl = dir.join("graph.jsonl");
    let jsonl_s = jsonl.to_str().unwrap();

    let base = |ckpt: &str| {
        vec![
            "discover".to_owned(),
            "--jsonl".to_owned(),
            jsonl_s.to_owned(),
            "--batches".to_owned(),
            "4".to_owned(),
            "--checkpoint-dir".to_owned(),
            dir.join(ckpt).to_str().unwrap().to_owned(),
        ]
    };

    // Exact run leaves exact checkpoints; `--resume --stream` refuses.
    run(&parse(&base("exact-ckpt")).unwrap()).unwrap();
    let mut args = base("exact-ckpt");
    args.extend(["--resume".to_owned(), "--stream".to_owned()]);
    let err = run(&parse(&args).unwrap()).unwrap_err();
    assert!(matches!(err, CliError::State(_)), "{err:?}");
    assert_eq!(err.exit_code(), 4);
    assert!(err.to_string().contains("exact"), "{err}");
    assert!(err.to_string().contains("sketch"), "{err}");

    // Sketched run leaves sketched checkpoints; plain `--resume` refuses...
    let mut args = base("stream-ckpt");
    args.push("--stream".to_owned());
    run(&parse(&args).unwrap()).unwrap();
    let mut args = base("stream-ckpt");
    args.push("--resume".to_owned());
    let err = run(&parse(&args).unwrap()).unwrap_err();
    assert!(matches!(err, CliError::State(_)), "{err:?}");
    assert_eq!(err.exit_code(), 4);

    // ...while resuming in the matching mode succeeds.
    let mut args = base("stream-ckpt");
    args.extend(["--resume".to_owned(), "--stream".to_owned()]);
    run(&parse(&args).unwrap()).unwrap();
    let _ = fs::remove_dir_all(&dir);
}
