//! Skip-gram Word2Vec with negative sampling, from scratch.
//!
//! This is a faithful, small-scale implementation of Mikolov et al.'s
//! SGNS objective, adequate for PG-HIVE's setting: the vocabulary is the
//! set of canonical label tokens (tens to low thousands of entries), and
//! the corpus is the label co-occurrence structure of the graph. Training
//! is deterministic given the seed.
//!
//! Training cost follows the vocabulary, not the record count:
//! `epochs × min(pairs, STEPS_PER_KIND × kinds)` steps, where `kinds` is
//! the number of distinct ordered `(center, ctx)` pairs the corpus holds
//! (DESIGN.md §3k). `Sgns::steps` is the one kernel: it works on the
//! [`LabelCorpus`]'s integer ids, allocates nothing and hashes nothing per
//! step, and is instantiated once with the dimension as a compile-time
//! constant (the default, 8) and once with a run-time dimension. The
//! vectors it produces are pinned bit for bit to the string-keyed trainer
//! (`tests/reference/`, `tests/bit_identity.rs`; DESIGN.md §3k lists what
//! exactly is pinned).
//!
//! Output vectors are L2-normalized so that the ELSH distance scale is
//! controlled: identical tokens have distance 0; distinct tokens have
//! distance in `(0, 2]`.

use crate::{LabelCorpus, LabelEmbedder};
use pg_model::FnvBuildHasher;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality `d` (the paper's running example uses 5;
    /// we default to 8).
    pub dim: usize,
    /// Number of passes over the corpus, each of
    /// `min(pairs, STEPS_PER_KIND × kinds)` steps (see [`Word2Vec::steps`]).
    pub epochs: usize,
    /// Initial learning rate, linearly decayed to 10 % over training.
    pub learning_rate: f64,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Context window (sentences are ≤ 3 tokens, so 2 covers them fully).
    pub window: usize,
    /// RNG seed; training is deterministic given this.
    pub seed: u64,
    /// Identity blending weight λ: each trained vector is re-normalized
    /// from `w + λ·h(token)` where `h` is a deterministic per-token unit
    /// vector. Skip-gram places labels with identical contexts (e.g.
    /// CALLER/CALLED, both occurring between the same endpoint types)
    /// arbitrarily close together, but PG-HIVE's featurization needs
    /// *distinct label sets to stay separated* (§4.1: the representation
    /// "prevents semantically different nodes, or edges, from being
    /// merged due to their same structure"). λ = 1 guarantees a distance
    /// floor of ≈1 between distinct tokens while preserving the semantic
    /// gradient; λ = 0 is pure SGNS.
    pub identity_blend: f64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig {
            dim: 8,
            epochs: 12,
            learning_rate: 0.05,
            negatives: 5,
            window: 2,
            seed: 0x9e3779b97f4a7c15,
            identity_blend: 1.0,
        }
    }
}

/// Steps per epoch granted to each distinct `(center, ctx)` pair kind: the
/// smallest of {16, 32, 64, 128} to pass the `fig4` gate (DESIGN.md §3k).
const STEPS_PER_KIND: usize = 64;

/// A trained Word2Vec model over label tokens.
#[derive(Debug, Clone)]
pub struct Word2Vec {
    dim: usize,
    steps: usize,
    kinds: usize,
    index: HashMap<String, usize>,
    /// Row-major `vocab × dim` input embeddings (L2-normalized).
    vectors: Vec<f64>,
    /// Deterministic seed reused for out-of-vocabulary fallbacks.
    oov_seed: u64,
}

impl Word2Vec {
    /// Train on a label corpus.
    ///
    /// An empty corpus produces an empty model where every token falls
    /// back to the deterministic OOV embedding.
    ///
    /// The trained vectors are a pure function of `(corpus, cfg)` and are
    /// pinned bit for bit (DESIGN.md §3k): vocabulary order fixes the
    /// init draws and the negative table, pair order fixes which pair a
    /// draw selects, and every step makes one pair draw plus exactly
    /// `cfg.negatives` table draws.
    pub fn train(corpus: &LabelCorpus, cfg: &Word2VecConfig) -> Word2Vec {
        assert!(cfg.dim > 0, "embedding dimension must be positive");
        let vocab = corpus.vocab().len();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // Xavier-ish init for input vectors, zeros for output vectors.
        let mut input: Vec<f64> = (0..vocab * cfg.dim)
            .map(|_| (rng.gen::<f64>() - 0.5) / cfg.dim as f64)
            .collect();

        let pairs = positive_pairs(corpus, cfg.window);
        let kinds = pair_kinds(&pairs);
        let steps = cfg.epochs * pairs.len().min(STEPS_PER_KIND * kinds);

        // A node-only batch has no pair: its vectors are the init draws.
        if steps > 0 {
            let mut run = Sgns {
                input: &mut input,
                output: &mut vec![0.0; vocab * cfg.dim],
                pairs: &pairs,
                neg_table: &build_negative_table(corpus.counts()),
                steps,
                cfg,
                rng: &mut rng,
            };
            // The dimension is a compile-time constant for the shipped
            // default (and the eval config), where the row loops unroll
            // and vectorise; any other value runs the same source with a
            // run-time length.
            match cfg.dim {
                8 => run.steps(Const::<8>),
                n => run.steps(Dyn(n)),
            }
        }

        // Normalize rows, blend in the per-token identity direction, and
        // re-normalize. A numerically-zero row falls back to the pure
        // identity vector.
        for (token, v) in corpus.vocab().iter().zip(input.chunks_exact_mut(cfg.dim)) {
            let ident = unit_from_hash(hash_token(token) ^ cfg.seed, cfg.dim);
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for (x, h) in v.iter_mut().zip(&ident) {
                    *x = *x / norm + cfg.identity_blend * h;
                }
                let n2 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if n2 > 1e-12 {
                    v.iter_mut().for_each(|x| *x /= n2);
                } else {
                    v.copy_from_slice(&ident);
                }
            } else {
                v.copy_from_slice(&ident);
            }
        }

        Word2Vec {
            dim: cfg.dim,
            steps,
            kinds,
            index: corpus
                .vocab()
                .iter()
                .enumerate()
                .map(|(i, token)| (token.clone(), i))
                .collect(),
            vectors: input,
            oov_seed: cfg.seed,
        }
    }

    /// What a checkpoint keeps of the model: its tokens in row order and
    /// their embeddings, row-major `tokens × dim`.
    pub fn rows(&self) -> (Vec<&str>, &[f64]) {
        let mut tokens = vec![""; self.index.len()];
        for (token, &row) in &self.index {
            tokens[row] = token;
        }
        (tokens, &self.vectors)
    }

    /// The model whose [`Word2Vec::rows`] these are, trained under `cfg`
    /// (the step counters restart at zero); `None` unless `vectors` is
    /// `tokens × cfg.dim` and no token repeats.
    pub fn from_rows(
        cfg: &Word2VecConfig,
        tokens: Vec<String>,
        vectors: Vec<f64>,
    ) -> Option<Word2Vec> {
        let cells = tokens.len().checked_mul(cfg.dim)?;
        let index: HashMap<String, usize> = tokens.into_iter().zip(0..).collect();
        (cfg.dim > 0 && index.len() * cfg.dim == cells && vectors.len() == cells).then_some(
            Word2Vec {
                dim: cfg.dim,
                steps: 0,
                kinds: 0,
                index,
                vectors,
                oov_seed: cfg.seed,
            },
        )
    }

    /// SGNS steps training ran: `epochs × min(pairs, 64 × kinds)`, so a
    /// corpus that repeats few pair kinds many times trains no longer than
    /// one that holds each kind 64 times.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Distinct ordered `(center, ctx)` pairs of the training corpus.
    pub fn kinds(&self) -> usize {
        self.kinds
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.index.len()
    }

    /// Whether the token was observed in training.
    pub fn contains(&self, token: &str) -> bool {
        self.index.contains_key(token)
    }
}

impl LabelEmbedder for Word2Vec {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_token(&self, token: &str) -> Vec<f64> {
        match self.index.get(token) {
            Some(&i) => self.vectors[i * self.dim..(i + 1) * self.dim].to_vec(),
            None => unit_from_hash(hash_token(token) ^ self.oov_seed, self.dim),
        }
    }
}

/// The positive `(center, ctx)` pairs of a corpus for one window, in
/// corpus order and with their multiplicity (a pair's frequency is its
/// sampling weight).
fn positive_pairs(corpus: &LabelCorpus, window: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for s in corpus.sentences() {
        for (i, &center) in s.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = i.saturating_add(window).saturating_add(1).min(s.len());
            for (j, &ctx) in s.iter().enumerate().take(hi).skip(lo) {
                if i != j && center != ctx {
                    pairs.push((center, ctx));
                }
            }
        }
    }
    pairs
}

/// How many distinct ordered pairs `pairs` holds: one pass, with a set
/// that stays as small as the answer (2–3 ms on 250 k pairs).
fn pair_kinds(pairs: &[(u32, u32)]) -> usize {
    let kinds: HashSet<(u32, u32), FnvBuildHasher> = pairs.iter().copied().collect();
    kinds.len()
}

/// An embedding dimension known at compile time ([`Const`]) or at run
/// time ([`Dyn`]). [`Sgns::steps`] is written once over this trait.
trait Dim: Copy {
    /// One row of scratch: on the stack for [`Const`], allocated once
    /// per training run for [`Dyn`].
    type Row: AsMut<[f64]>;
    fn len(self) -> usize;
    fn zeros(self) -> Self::Row;
}

#[derive(Clone, Copy)]
struct Const<const N: usize>;

impl<const N: usize> Dim for Const<N> {
    type Row = [f64; N];
    #[inline(always)]
    fn len(self) -> usize {
        N
    }
    fn zeros(self) -> [f64; N] {
        [0.0; N]
    }
}

#[derive(Clone, Copy)]
struct Dyn(usize);

impl Dim for Dyn {
    type Row = Vec<f64>;
    #[inline(always)]
    fn len(self) -> usize {
        self.0
    }
    fn zeros(self) -> Vec<f64> {
        vec![0.0; self.0]
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Everything the SGNS steps of one training run read and write.
struct Sgns<'a> {
    /// Row-major `vocab × dim` input (center) vectors.
    input: &'a mut [f64],
    /// Row-major `vocab × dim` output (context) vectors.
    output: &'a mut [f64],
    pairs: &'a [(u32, u32)],
    neg_table: &'a [u32],
    steps: usize,
    cfg: &'a Word2VecConfig,
    rng: &'a mut ChaCha8Rng,
}

impl Sgns<'_> {
    /// Run every step, each drawing one positive pair and `negatives`
    /// table entries (drawn before the `neg == ctx` skip, so the draw
    /// schedule depends on the seed and the corpus, never on the weights),
    /// with the learning rate decayed linearly to 10 %.
    fn steps<D: Dim>(&mut self, d: D) {
        let Sgns {
            input,
            output,
            pairs,
            neg_table,
            steps,
            cfg,
            rng,
        } = self;
        let dim = d.len();
        let (mut center_row, mut grad_row) = (d.zeros(), d.zeros());
        // A copy of the center row: it stays in registers across the
        // samples of a step when `dim` is a constant.
        let (center_vec, grad) = (center_row.as_mut(), grad_row.as_mut());
        for step in 0..*steps {
            let (center, ctx) = pairs[rng.gen_range(0..pairs.len())];
            let (center, ctx) = (center as usize, ctx as usize);
            let lr = cfg.learning_rate * (1.0 - 0.9 * step as f64 / *steps as f64);
            let center_in = &mut input[center * dim..(center + 1) * dim];
            center_vec.copy_from_slice(center_in);
            grad.fill(0.0);
            let ctx_out = &mut output[ctx * dim..(ctx + 1) * dim];
            sgns_update(center_vec, ctx_out, grad, 1.0, lr);
            for _ in 0..cfg.negatives {
                let neg = neg_table[rng.gen_range(0..neg_table.len())] as usize;
                if neg == ctx {
                    continue;
                }
                let neg_out = &mut output[neg * dim..(neg + 1) * dim];
                sgns_update(center_vec, neg_out, grad, 0.0, lr);
            }
            for (x, g) in center_in.iter_mut().zip(grad.iter()) {
                *x -= g;
            }
        }
    }
}

/// One sample's gradient: `target` is 1 for the positive context and 0
/// for a negative. Accumulates the center row's gradient into `grad`
/// and updates the sample's output row in place.
#[inline(always)]
fn sgns_update(center: &[f64], out: &mut [f64], grad: &mut [f64], target: f64, lr: f64) {
    let dot: f64 = center.iter().zip(out.iter()).map(|(x, y)| x * y).sum();
    let g = (sigmoid(dot) - target) * lr;
    for ((c, o), gr) in center.iter().zip(out.iter_mut()).zip(grad.iter_mut()) {
        *gr += g * *o;
        *o -= g * c;
    }
}

/// Unigram^0.75 sampling table (size-bounded).
fn build_negative_table(counts: &[usize]) -> Vec<u32> {
    const TABLE: usize = 10_000;
    if counts.is_empty() {
        return vec![0];
    }
    let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
    let total: f64 = weights.iter().sum();
    let mut table = Vec::with_capacity(TABLE);
    for (i, w) in weights.iter().enumerate() {
        let n = ((w / total) * TABLE as f64).ceil() as usize;
        table.extend(std::iter::repeat_n(i as u32, n.max(1)));
    }
    table
}

fn hash_token(token: &str) -> u64 {
    // FNV-1a, stable across runs (std's Hash is not guaranteed stable).
    let mut h: u64 = 0xcbf29ce484222325;
    for b in token.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic pseudo-random unit vector from a hash seed.
pub(crate) fn unit_from_hash(seed: u64, dim: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    loop {
        let v: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_corpus() -> LabelCorpus {
        toy_corpus_of(50)
    }

    /// 16 pairs of 14 kinds per repetition: the budget binds from 57 on.
    fn toy_corpus_of(reps: usize) -> LabelCorpus {
        // Two communities: Person-KNOWS-Person and Gene-BINDS-Protein.
        let mut s: Vec<Vec<String>> = Vec::new();
        for _ in 0..reps {
            s.push(vec!["Person".into(), "KNOWS".into(), "Person".into()]);
            s.push(vec!["Person".into(), "WORKS_AT".into(), "Org".into()]);
            s.push(vec!["Gene".into(), "BINDS".into(), "Protein".into()]);
        }
        LabelCorpus::from_sentences(&s)
    }

    #[test]
    fn positive_pairs_follow_sentence_order_within_the_window() {
        let s = |t: &[&str]| t.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let corpus = LabelCorpus::from_sentences(&[s(&["a", "b", "a", "c"]), s(&["c", "b"])]);
        let list = |window| positive_pairs(&corpus, window);
        assert!(list(0).is_empty());
        // Equal tokens never pair, whatever their positions.
        assert_eq!(
            list(1),
            [
                (0, 1),
                (1, 0),
                (1, 0),
                (0, 1),
                (0, 2),
                (2, 0),
                (2, 1),
                (1, 2)
            ]
        );
        assert_eq!(
            list(2),
            [
                (0, 1),
                (1, 0),
                (1, 0),
                (1, 2),
                (0, 1),
                (0, 2),
                (2, 1),
                (2, 0),
                (2, 1),
                (1, 2)
            ]
        );
        assert_eq!(list(3).len(), 12);
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = toy_corpus();
        let cfg = Word2VecConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = Word2Vec::train(&corpus, &cfg);
        let b = Word2Vec::train(&corpus, &cfg);
        assert_eq!(a.embed_token("Person"), b.embed_token("Person"));
    }

    #[test]
    fn vectors_are_unit_norm() {
        let m = Word2Vec::train(&toy_corpus(), &Word2VecConfig::default());
        for tok in ["Person", "KNOWS", "Gene"] {
            let v = m.embed_token(tok);
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "{tok} norm {norm}");
        }
    }

    #[test]
    fn distributionally_similar_tokens_are_closer() {
        // Skip-gram places tokens with shared *contexts* nearby: KNOWS and
        // WORKS_AT both occur next to Person, while BINDS occurs next to
        // Gene/Protein only. Identity blending is disabled so the pure
        // SGNS geometry is visible — below the step budget (one step per
        // pair and epoch) and where it binds.
        for (reps, steps) in [(50, 12 * 800), (5_000, 12 * STEPS_PER_KIND * 14)] {
            let m = Word2Vec::train(
                &toy_corpus_of(reps),
                &Word2VecConfig {
                    identity_blend: 0.0,
                    ..Default::default()
                },
            );
            assert_eq!((m.steps(), m.kinds()), (steps, 14));
            let cosine = |a: &str, b: &str| -> f64 {
                let (va, vb) = (m.embed_token(a), m.embed_token(b));
                va.iter().zip(&vb).map(|(x, y)| x * y).sum()
            };
            let close = cosine("KNOWS", "WORKS_AT");
            let far = cosine("KNOWS", "BINDS");
            assert!(
                close > far,
                "expected cosine(KNOWS,WORKS_AT)={close} > cosine(KNOWS,BINDS)={far}"
            );
        }
    }

    #[test]
    fn oov_is_deterministic_and_unit() {
        let m = Word2Vec::train(&toy_corpus(), &Word2VecConfig::default());
        let a = m.embed_token("NeverSeen");
        let b = m.embed_token("NeverSeen");
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_ne!(a, m.embed_token("AlsoNeverSeen"));
    }

    #[test]
    fn empty_corpus_still_embeds() {
        let m = Word2Vec::train(&LabelCorpus::default(), &Word2VecConfig::default());
        assert_eq!(m.vocab_size(), 0);
        let v = m.embed_token("anything");
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn embed_opt_zero_for_unlabeled() {
        let m = Word2Vec::train(&toy_corpus(), &Word2VecConfig::default());
        assert_eq!(m.embed_opt(None), vec![0.0; 8]);
        assert_ne!(m.embed_opt(Some("Person")), vec![0.0; 8]);
    }
}
