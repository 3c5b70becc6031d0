//! # pg-embed
//!
//! Label embeddings for PG-HIVE's hybrid feature vectors (§4.1).
//!
//! The paper trains a Word2Vec model on the node and edge labels observed
//! in the dataset "to ensure consistent semantic embeddings across
//! identical label sets". This crate implements:
//!
//! * [`corpus`] — corpus construction: each edge contributes a 3-token
//!   sentence `(src-labels, edge-label, tgt-labels)` where a multi-label
//!   set becomes a single token (its sorted concatenation), and each node
//!   contributes its token to the vocabulary. [`build_sentences`] interns
//!   the tokens to dense integer ids as it scans the records, so the
//!   resulting [`LabelCorpus`] holds one `String` per *distinct* token
//!   and the sentences as `u32`s.
//! * [`word2vec::Word2Vec`] — skip-gram with negative sampling, trained
//!   from scratch on a [`LabelCorpus`] by one allocation-free kernel,
//!   for a number of steps that follows the corpus's distinct label
//!   pairs rather than its record count.
//!   The trained vectors are pinned bit for bit against the original
//!   string-keyed trainer, which survives as the test oracle
//!   `tests/reference/`.
//! * [`hashed::HashedEmbedder`] — a training-free deterministic fallback
//!   that maps each token to a pseudo-random unit vector. It satisfies
//!   the two properties PG-HIVE actually relies on (identical sets map to
//!   identical vectors; distinct sets are well separated in expectation),
//!   and serves as the ablation baseline.
//!
//! Both embedders implement [`LabelEmbedder`]; missing labels map to the
//! zero vector, per the paper.

pub mod corpus;
pub mod hashed;
pub mod word2vec;

pub use corpus::{build_sentences, LabelCorpus};
pub use hashed::HashedEmbedder;
pub use word2vec::{Word2Vec, Word2VecConfig};

/// Anything that can embed a canonical label token into `R^d`.
pub trait LabelEmbedder: Send + Sync {
    /// Embedding dimensionality `d`.
    fn dim(&self) -> usize;

    /// Embed a canonical token. Unknown tokens receive a deterministic
    /// out-of-vocabulary embedding (implementation-specific) so that two
    /// occurrences of the same unseen token still coincide.
    fn embed_token(&self, token: &str) -> Vec<f64>;

    /// Embed an optional token: `None` (no labels) maps to the zero
    /// vector, as §4.1 prescribes for unlabeled elements.
    fn embed_opt(&self, token: Option<&str>) -> Vec<f64> {
        match token {
            Some(t) => self.embed_token(t),
            None => vec![0.0; self.dim()],
        }
    }
}
