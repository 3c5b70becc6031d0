//! Fault-injection suite for durable checkpoints (ISSUE 2 tentpole).
//!
//! Three contracts:
//!
//! 1. **Kill-and-resume bit-identity** — checkpoint after every batch,
//!    drop the session after batch `i` (the "kill"), `resume()` from
//!    disk, process the remaining batches, and the final schema — and
//!    every instance assignment, and every row of the label embedder —
//!    is bit-identical to the uninterrupted run. Holds with exact and
//!    with sketched accumulators, because batch numbering (and therefore per-batch seeds) continues
//!    across the restore and the checkpoint carries the embedder's rows
//!    bit for bit.
//!
//! 2. **Corruption is always detected** — an envelope truncated at any
//!    byte offset, or with any single bit flipped anywhere, never
//!    decodes into a checkpoint. (CRC-32 detects all single-bit errors;
//!    the `len` field detects truncation and trailing garbage; the
//!    strict header parse catches damage to the header itself.)
//!
//! 3. **Fallback resume through the store** — when the newest on-disk
//!    checkpoint is damaged, `resume()` reports it and falls back to
//!    the newest valid one, and the session resumed from the fallback
//!    still converges to the uninterrupted schema.

use pg_hive::checkpoint::{decode, encode};
use pg_hive::{
    CheckpointStore, HiveConfig, HiveSession, LshMethod, SessionCheckpoint, StreamConfig,
};
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::{
    case_graph, drifting_graph, label_tokens, quick_config, sorted_edge_assignment,
    sorted_node_assignment,
};

/// Same salt the CLI uses: resume re-derives the identical batch split.
const BATCH_SPLIT_SALT: u64 = 0xba7c4;

/// A unique temp directory per test invocation; removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "pg-hive-crash-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small but non-trivial checkpoint for byte-level corruption cases,
/// encoded once (proptest runs many cases against the same bytes).
fn reference_envelope() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let graph = case_graph("POLE", 3, 0.0, 1.0);
        let batches = pg_store::split_batches(&graph, 2, 3 ^ BATCH_SPLIT_SALT);
        let mut session = HiveSession::new(quick_config(LshMethod::Elsh, 3));
        session.process_graph_batch(&batches[0]);
        encode(&session.checkpoint()).expect("encode reference checkpoint")
    })
}

/// Contract 1 for one batch sequence, configuration and kill point:
/// kill after batch `kill_after`, resume from disk, finish — the result
/// is `==` to never having crashed at all, embedder rows included.
fn assert_kill_and_resume_is_bit_identical(
    batches: &[pg_store::GraphBatch],
    cfg: &HiveConfig,
    kill_after: usize,
) -> Result<(), TestCaseError> {
    // The uninterrupted reference run.
    let mut full = HiveSession::new(cfg.clone());
    for b in batches {
        full.process_graph_batch(b);
    }
    let full_embedder = full.checkpoint().embedder;
    prop_assert!(full_embedder.is_some());
    let full = full.finish();

    // The crashing run: checkpoint each batch, then drop the
    // session (simulated kill — memory state is gone, only the
    // durable checkpoints survive).
    let tmp = TempDir::new("resume");
    let store = CheckpointStore::open(&tmp.0).unwrap();
    {
        let mut session = HiveSession::new(cfg.clone());
        for b in &batches[..kill_after] {
            session.process_graph_batch(b);
            store.save(&session.checkpoint()).unwrap();
        }
    } // <- kill

    let outcome = store.resume().unwrap();
    prop_assert!(outcome.skipped.is_empty());
    let ckpt = outcome.checkpoint.expect("a checkpoint was saved");
    prop_assert_eq!(ckpt.batches_processed, kill_after);
    let mut resumed = HiveSession::restore(cfg.clone(), ckpt).unwrap();
    for b in &batches[kill_after..] {
        resumed.process_graph_batch(b);
    }
    prop_assert_eq!(resumed.checkpoint().embedder, full_embedder);
    let resumed = resumed.finish();

    prop_assert_eq!(&resumed.schema, &full.schema);
    prop_assert_eq!(
        sorted_node_assignment(&resumed),
        sorted_node_assignment(&full)
    );
    prop_assert_eq!(
        sorted_edge_assignment(&resumed),
        sorted_edge_assignment(&full)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 1: kill after batch `i`, resume from disk, finish — the
    /// result is `==` to never having crashed at all.
    #[test]
    fn kill_and_resume_is_bit_identical(
        dataset in prop::sample::select(vec!["POLE", "MB6", "ICIJ"]),
        seed in 0u64..1000,
        k in 3usize..6,
        kill_after in 1usize..3,
    ) {
        let kill_after = kill_after.min(k - 1); // always leave work to resume
        let graph = case_graph(dataset, seed, 0.0, 1.0);
        let batches = pg_store::split_batches(&graph, k, seed ^ BATCH_SPLIT_SALT);
        let cfg = quick_config(LshMethod::Elsh, seed);
        assert_kill_and_resume_is_bit_identical(&batches, &cfg, kill_after)?;
    }
}

/// Contract 1 where labels keep arriving after the embedder has trained:
/// on a graph whose labels drift, the batches after every kill point
/// carry tokens the first batch never showed, so the resumed session
/// types them with the rows — and the out-of-vocabulary vectors — of the
/// model the checkpoint carried, under exact and under sketched
/// accumulators.
#[test]
fn kill_after_any_batch_resumes_the_embedder_in_both_accumulator_modes() {
    let batches = pg_store::split_batches(&drifting_graph(21), 5, 21 ^ BATCH_SPLIT_SALT);
    let trained = label_tokens(&batches[0]);
    for (i, b) in batches.iter().enumerate().skip(1) {
        let late = (label_tokens(b).iter())
            .filter(|t| !trained.contains(t))
            .count();
        assert!(late > 0, "batch {i} brings no label the first lacked");
    }

    for stream in [false, true] {
        let mut cfg = quick_config(LshMethod::Elsh, 21);
        cfg.stream = stream.then(StreamConfig::default);
        for kill_after in 1..batches.len() {
            assert_kill_and_resume_is_bit_identical(&batches, &cfg, kill_after)
                .unwrap_or_else(|e| panic!("stream={stream}, kill after {kill_after}: {e:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 2a: truncation at any offset strictly inside the
    /// envelope is detected.
    #[test]
    fn truncation_at_any_offset_is_detected(cut in 0.0f64..1.0) {
        let bytes = reference_envelope();
        // Clamp: f64 rounding near 1.0 could otherwise yield `len`
        // (a no-op truncation).
        let cut = (((bytes.len() as f64) * cut) as usize).min(bytes.len() - 1);
        prop_assert!(decode(&bytes[..cut]).is_err(), "decoded a {cut}-byte prefix");
    }

    /// Contract 2b: a single bit flipped at any offset is detected.
    #[test]
    fn bit_flip_at_any_offset_is_detected(pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = reference_envelope().to_vec();
        let pos = (((bytes.len() as f64) * pos) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode(&bytes).is_err(),
            "decoded with bit {bit} of byte {pos} flipped"
        );
    }
}

/// The unmodified reference envelope decodes — so the corruption
/// proptests above fail for the right reason, not because the
/// reference itself is broken.
#[test]
fn reference_envelope_is_valid() {
    let ckpt: SessionCheckpoint = decode(reference_envelope()).unwrap();
    assert_eq!(ckpt.batches_processed, 1);
}

/// Contract 3: damage the newest on-disk checkpoint; `resume()` reports
/// it, falls back to the previous one, and the resumed session still
/// finishes bit-identical to the uninterrupted run (it just redoes one
/// batch).
#[test]
fn fallback_resume_converges_after_newest_checkpoint_is_damaged() {
    let graph = case_graph("POLE", 17, 0.0, 1.0);
    let batches = pg_store::split_batches(&graph, 4, 17 ^ BATCH_SPLIT_SALT);
    let cfg = quick_config(LshMethod::Elsh, 17);

    let mut full = HiveSession::new(cfg.clone());
    for b in &batches {
        full.process_graph_batch(b);
    }
    let full = full.finish();

    let tmp = TempDir::new("fallback");
    let store = CheckpointStore::open(&tmp.0).unwrap().with_retention(4);
    {
        let mut session = HiveSession::new(cfg.clone());
        for b in &batches[..3] {
            session.process_graph_batch(b);
            store.save(&session.checkpoint()).unwrap();
        }
    } // <- kill

    // Torn write on the newest checkpoint: truncate it to half.
    let (_, newest) = store.list().unwrap().into_iter().next_back().unwrap();
    let damaged = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &damaged[..damaged.len() / 2]).unwrap();

    let outcome = store.resume().unwrap();
    assert_eq!(outcome.skipped.len(), 1, "the damaged file is reported");
    assert_eq!(outcome.skipped[0].0, newest);
    let ckpt = outcome.checkpoint.expect("fallback checkpoint");
    assert_eq!(ckpt.batches_processed, 2, "fell back one batch");

    let mut resumed = HiveSession::restore(cfg, ckpt).unwrap();
    for b in &batches[2..] {
        resumed.process_graph_batch(b);
    }
    let resumed = resumed.finish();

    assert_eq!(resumed.schema, full.schema);
    assert_eq!(
        sorted_node_assignment(&resumed),
        sorted_node_assignment(&full)
    );
}
