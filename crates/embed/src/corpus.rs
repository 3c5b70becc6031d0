//! Label-corpus construction (§4.1).
//!
//! Sentences are short sequences of canonical label tokens:
//!
//! * each edge yields `[src-token, edge-token, tgt-token]` (tokens for
//!   unlabeled endpoints/edges are skipped — they embed as zero vectors
//!   and must not influence training);
//! * each labeled node yields a unigram sentence, which registers its
//!   token in the vocabulary even if the node is isolated.
//!
//! A [`LabelCorpus`] holds that corpus as integers: every distinct token
//! gets a dense `u32` id in first-occurrence order (nodes first, then
//! each edge's source, label and target — the trainer's init draws and
//! negative table follow vocabulary order, so this order is part of the
//! model), with one canonical-token `String` per *distinct* token rather
//! than one per occurrence. Only sentences of two or more tokens are
//! stored; a unigram contributes to its token's count and nothing else,
//! because it has no (center, context) pair.

use pg_model::{FnvBuildHasher, LabelSet};
use pg_store::{EdgeRecord, NodeRecord};
use std::collections::HashMap;

/// Interner value of the empty label set: no token, no vocabulary row.
const NO_TOKEN: u32 = u32::MAX;

/// The label corpus of one batch, as token ids.
#[derive(Debug, Clone, Default)]
pub struct LabelCorpus {
    /// Canonical token of each id, in first-occurrence order.
    vocab: Vec<String>,
    /// Occurrences of each token over all sentences, unigrams included.
    counts: Vec<usize>,
    /// Token ids of the multi-token sentences, back to back.
    ids: Vec<u32>,
    /// End offset into `ids` of each stored sentence.
    ends: Vec<u32>,
    /// Every distinct label set the records carried (the empty set
    /// included), in first-occurrence order.
    label_sets: Vec<LabelSet>,
}

/// Build the training corpus from loaded records.
pub fn build_sentences(nodes: &[NodeRecord], edges: &[EdgeRecord]) -> LabelCorpus {
    let mut b = Builder::default();
    for n in nodes {
        let unigram = b.label_set(&n.labels);
        b.corpus.push_sentence(unigram.into_iter());
    }
    for e in edges {
        let sentence = [
            b.label_set(&e.src_labels),
            b.label_set(&e.edge.labels),
            b.label_set(&e.tgt_labels),
        ];
        b.corpus.push_sentence(sentence.into_iter().flatten());
    }
    b.corpus
}

/// A corpus under construction, with the interners that assign its ids.
#[derive(Default)]
struct Builder {
    corpus: LabelCorpus,
    /// Token text → id.
    tokens: HashMap<String, u32>,
    /// Label set → id of its canonical token (`NO_TOKEN` for the empty
    /// set). Distinct sets can share a canonical token (`{"A|B"}` and
    /// `{"A", "B"}`), which is why ids are assigned by token text.
    sets: HashMap<LabelSet, u32, FnvBuildHasher>,
}

impl Builder {
    /// The id of a token, assigned in first-occurrence order.
    fn token(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.tokens.get(token) {
            return id;
        }
        let id = u32::try_from(self.corpus.vocab.len())
            .ok()
            .filter(|&id| id != NO_TOKEN)
            .expect("label vocabulary exceeds u32 ids");
        self.corpus.vocab.push(token.to_owned());
        self.corpus.counts.push(0);
        self.tokens.insert(token.to_owned(), id);
        id
    }

    /// The token id of a label set (`None` for the empty set), at the
    /// cost of one hash of the set unless the set is new.
    fn label_set(&mut self, labels: &LabelSet) -> Option<u32> {
        let id = match self.sets.get(labels) {
            Some(&id) => id,
            None => {
                let id = match labels.canonical_token() {
                    Some(token) => self.token(&token),
                    None => NO_TOKEN,
                };
                self.sets.insert(labels.clone(), id);
                self.corpus.label_sets.push(labels.clone());
                id
            }
        };
        (id != NO_TOKEN).then_some(id)
    }
}

impl LabelCorpus {
    /// A corpus from ready-made token sentences (tests, benches, callers
    /// with no records at hand). It carries no label sets.
    pub fn from_sentences(sentences: &[Vec<String>]) -> LabelCorpus {
        let mut b = Builder::default();
        let mut ids = Vec::new();
        for s in sentences {
            ids.clear();
            ids.extend(s.iter().map(|token| b.token(token)));
            b.corpus.push_sentence(ids.iter().copied());
        }
        b.corpus
    }

    /// Count every token of one sentence and store the sentence if it
    /// can yield a pair.
    fn push_sentence(&mut self, sentence: impl Iterator<Item = u32>) {
        let start = self.ids.len();
        for id in sentence {
            self.counts[id as usize] += 1;
            self.ids.push(id);
        }
        if self.ids.len() - start < 2 {
            self.ids.truncate(start);
        } else {
            let end = u32::try_from(self.ids.len()).expect("label corpus exceeds u32 offsets");
            self.ends.push(end);
        }
    }

    /// Canonical token of each id, in first-occurrence order.
    pub fn vocab(&self) -> &[String] {
        &self.vocab
    }

    /// Occurrences of each token, indexed by id.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The stored (multi-token) sentences, in corpus order.
    pub fn sentences(&self) -> impl Iterator<Item = &[u32]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.ids[start..end as usize];
            start = end as usize;
            s
        })
    }

    /// Every distinct label set of the records the corpus was built
    /// from — node labels and all three edge roles, the empty set
    /// included — in first-occurrence order. Only [`build_sentences`]
    /// sees records: a [`LabelCorpus::from_sentences`] corpus is complete
    /// for training but returns an empty slice here.
    pub fn label_sets(&self) -> &[LabelSet] {
        &self.label_sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{Edge, LabelSet, Node, NodeId};

    #[test]
    fn corpus_shapes() {
        let nodes = vec![
            Node::new(1, LabelSet::single("Person")),
            Node::new(2, LabelSet::empty()),
            Node::new(3, LabelSet::from_iter(["Student", "Person"])),
        ];
        let edges = vec![EdgeRecord {
            edge: Edge::new(9, NodeId(1), NodeId(3), LabelSet::single("KNOWS")),
            src_labels: LabelSet::single("Person"),
            tgt_labels: LabelSet::from_iter(["Person", "Student"]),
        }];
        let c = build_sentences(&nodes, &edges);
        // Ids follow first occurrence: nodes, then src / label / tgt.
        assert_eq!(c.vocab(), ["Person", "Person|Student", "KNOWS"]);
        // Unlabeled node contributes nothing; unigrams only count.
        assert_eq!(c.counts(), [2, 2, 1]);
        assert_eq!(c.sentences().collect::<Vec<_>>(), [[0, 2, 1]]);
        assert_eq!(
            c.label_sets(),
            [
                LabelSet::single("Person"),
                LabelSet::empty(),
                LabelSet::from_iter(["Person", "Student"]),
                LabelSet::single("KNOWS"),
            ]
        );
    }

    #[test]
    fn fully_unlabeled_edge_is_skipped() {
        let edges = vec![EdgeRecord {
            edge: Edge::new(1, NodeId(1), NodeId(2), LabelSet::empty()),
            src_labels: LabelSet::empty(),
            tgt_labels: LabelSet::empty(),
        }];
        let c = build_sentences(&[], &edges);
        assert!(c.vocab().is_empty());
        assert_eq!(c.sentences().count(), 0);
        assert_eq!(c.label_sets(), [LabelSet::empty()]);
    }

    #[test]
    fn distinct_sets_with_one_canonical_token_share_an_id() {
        let nodes = vec![
            Node::new(1, LabelSet::single("A|B")),
            Node::new(2, LabelSet::from_iter(["A", "B"])),
        ];
        let c = build_sentences(&nodes, &[]);
        assert_eq!(c.vocab(), ["A|B"]);
        assert_eq!(c.counts(), [2]);
        assert_eq!(c.label_sets().len(), 2);
    }

    #[test]
    fn from_sentences_matches_the_record_path() {
        let s = |toks: &[&str]| toks.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let c = LabelCorpus::from_sentences(&[
            s(&["Person"]),
            s(&["Person", "KNOWS", "Person", "Org"]),
            s(&[]),
        ]);
        assert_eq!(c.vocab(), ["Person", "KNOWS", "Org"]);
        assert_eq!(c.counts(), [3, 1, 1]);
        assert_eq!(c.sentences().collect::<Vec<_>>(), [[0, 1, 0, 2]]);
        assert!(c.label_sets().is_empty());
    }
}
