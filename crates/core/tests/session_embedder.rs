//! The session-lifetime label embedder (DESIGN.md §3k): what is pinned
//! once vectors stop being retrained per batch.
//!
//! 1. **One token, one vector.** The first batch that carries a label
//!    trains the model; its rows are bit-equal after every later batch,
//!    and a token that arrives later embeds to the same out-of-vocabulary
//!    vector every time it is asked for.
//! 2. **Nothing trains twice.** Every batch after the training one runs
//!    zero SGNS steps.
//! 3. **Thread count does not show** in the rows, batch by batch.
//! 4. **Late tokens survive a restart.** After a node-only first batch
//!    (the order a served stream arrives in), the edge labels of later
//!    batches are out of vocabulary; a session resumed through the
//!    encoded checkpoint holds the same rows and embeds those labels —
//!    and types the batches that follow — exactly as the uninterrupted
//!    one does.
//!
//! Kill-and-resume schema identity is `crash_resume.rs`; the v1 fixtures
//! (which carry no embedder) are `wire_v1.rs`.

use pg_embed::{LabelEmbedder, Word2Vec};
use pg_hive::checkpoint::{decode, encode, EmbedderRows};
use pg_hive::{Embedder, HiveSession, LshMethod};
use pg_store::GraphBatch;

mod common;
use common::{case_graph, drifting_graph, label_tokens, quick_config};

fn rows(session: &HiveSession) -> EmbedderRows {
    session.checkpoint().embedder.expect("a trained embedder")
}

fn model(session: &HiveSession) -> &Word2Vec {
    match session.embedder() {
        Embedder::Word2Vec { model, .. } => model,
        Embedder::Hashed(_) => panic!("the ELSH session trains Word2Vec"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Batches of a graph whose labels drift: those past the first keep
/// bringing tokens.
fn drifting_batches(k: usize) -> Vec<GraphBatch> {
    pg_store::split_batches(&drifting_graph(5), k, 5)
}

#[test]
fn the_first_batch_trains_and_every_token_keeps_its_vector() {
    let batches = drifting_batches(6);
    let mut session = HiveSession::new(quick_config(LshMethod::Elsh, 5, 1));
    session.process_graph_batch(&batches[0]);
    let (trained, steps) = (rows(&session), model(&session).steps());
    assert!(steps > 0, "the first batch has label pairs to train on");
    assert_eq!(trained.tokens, label_tokens(&batches[0]));

    // Every token embeds to its row.
    let dim = model(&session).dim();
    for (token, row) in trained.tokens.iter().zip(trained.vectors.0.chunks(dim)) {
        assert_eq!(bits(&model(&session).embed_token(token)), bits(row));
    }

    let mut late: Vec<(String, Vec<u64>)> = Vec::new();
    for (i, batch) in batches.iter().enumerate().skip(1) {
        for token in label_tokens(batch) {
            if !trained.tokens.contains(&token) && !late.iter().any(|(t, _)| *t == token) {
                let v = bits(&model(&session).embed_token(&token));
                late.push((token, v));
            }
        }
        session.process_graph_batch(batch);
        assert_eq!(rows(&session), trained, "batch {i} moved a row");
        assert_eq!(model(&session).steps(), steps, "batch {i} trained");
        for (token, v) in &late {
            assert_eq!(&bits(&model(&session).embed_token(token)), v, "{token}");
        }
    }
    assert!(late.len() >= 2, "labels do not drift: {late:?}");
    // Distinct late tokens stay distinct.
    assert_ne!(late[0].1, late[1].1);
}

#[test]
fn a_label_less_first_batch_leaves_the_training_to_the_next() {
    let batches = drifting_batches(2);
    let unlabeled: Vec<_> = (batches[0].nodes.iter())
        .filter(|n| n.labels.is_empty())
        .cloned()
        .collect();
    assert!(!unlabeled.is_empty());
    let mut late = HiveSession::new(quick_config(LshMethod::Elsh, 5, 1));
    late.process_batch(&unlabeled, &[]);
    assert!(late.checkpoint().embedder.is_none());
    late.process_graph_batch(&batches[1]);

    let mut fresh = HiveSession::new(quick_config(LshMethod::Elsh, 5, 1));
    fresh.process_graph_batch(&batches[1]);
    assert_eq!(rows(&late), rows(&fresh));
}

#[test]
fn rows_are_thread_count_invariant_batch_by_batch() {
    let batches = drifting_batches(4);
    let mut seq = HiveSession::new(quick_config(LshMethod::Elsh, 5, 1));
    let mut par = HiveSession::new(quick_config(LshMethod::Elsh, 5, 4));
    for (i, batch) in batches.iter().enumerate() {
        seq.process_graph_batch(batch);
        par.process_graph_batch(batch);
        assert_eq!(rows(&seq), rows(&par), "diverged at batch {i}");
        assert_eq!(seq.schema(), par.schema(), "diverged at batch {i}");
    }
}

#[test]
fn minhash_sessions_train_and_checkpoint_no_embedder() {
    let mut session = HiveSession::new(quick_config(LshMethod::MinHash, 5, 1));
    session.process_graph_batch(&drifting_batches(2)[0]);
    assert!(matches!(session.embedder(), Embedder::Hashed(_)));
    let ckpt = session.checkpoint();
    assert!(ckpt.embedder.is_none());
    // Left out of the wire form, not written as `null`: a checkpoint
    // without rows is byte for byte what it was before there were any.
    assert!(!serde_json::to_string(&ckpt).unwrap().contains("embedder"));
}

#[test]
fn labels_that_arrive_after_a_node_only_batch_survive_a_restart() {
    let graph = case_graph("POLE", 9, 0.0, 1.0);
    let (nodes, edges) = pg_store::load(&graph);
    let edge_batches: Vec<_> = edges.chunks(edges.len().div_ceil(3)).collect();
    let cfg = quick_config(LshMethod::Elsh, 9, 1);

    let mut session = HiveSession::new(cfg.clone());
    session.process_batch(&nodes, &[]);
    assert_eq!(model(&session).steps(), 0, "a node has no label pair");
    let node_rows = rows(&session);
    session.process_batch(&[], edge_batches[0]);
    assert_eq!(rows(&session), node_rows);

    // An edge label has no row: it embeds as any unknown token does.
    let edge_label = edges[0].edge.labels.canonical_token().unwrap();
    assert!(!model(&session).contains(&edge_label));
    let oov = bits(&model(&session).embed_token(&edge_label));
    assert_ne!(oov, bits(&model(&session).embed_token("never a label")));

    // Restart through the encoded checkpoint: same rows, same vector for
    // the late label, same schema after each batch that follows.
    let bytes = encode(&session.checkpoint()).unwrap();
    let mut resumed = HiveSession::restore(cfg, decode(&bytes).unwrap()).unwrap();
    assert_eq!(rows(&resumed), node_rows);
    assert_eq!(bits(&model(&resumed).embed_token(&edge_label)), oov);
    for batch in &edge_batches[1..] {
        session.process_batch(&[], batch);
        resumed.process_batch(&[], batch);
        assert_eq!(resumed.schema(), session.schema());
    }
    assert_eq!(rows(&resumed), node_rows);
    assert_eq!(resumed.finish().schema, session.finish().schema);
}

#[test]
fn malformed_or_misshapen_rows_never_panic() {
    let mut session = HiveSession::new(quick_config(LshMethod::Elsh, 5, 1));
    session.process_graph_batch(&drifting_batches(2)[0]);
    let ckpt = session.checkpoint();
    let json = serde_json::to_string(&ckpt).unwrap();
    let hex = serde_json::to_string(&rows(&session).vectors).unwrap();
    let hex = hex.trim_matches('"');

    // Not bit patterns: a typed decode error, whatever the damage.
    for bad in [
        &hex[1..],
        &format!("+{}", &hex[1..]),
        &hex.replacen('0', "g", 1),
    ] {
        let damaged = json.replacen(hex, bad, 1);
        assert_ne!(damaged, json);
        let err = serde_json::from_str::<pg_hive::SessionCheckpoint>(&damaged).unwrap_err();
        assert!(err.to_string().contains("bit patterns"), "{err}");
    }

    // Well-formed rows of another shape (a different embedding wrote
    // them) are left aside: the session resumes untrained.
    let mut other = ckpt.clone();
    other.embedder.as_mut().unwrap().vectors.0.truncate(8);
    let resumed = HiveSession::restore(quick_config(LshMethod::Elsh, 5, 1), other).unwrap();
    assert!(resumed.checkpoint().embedder.is_none());
}
