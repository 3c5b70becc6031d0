//! The test oracle for `pg-embed`: the original string-keyed corpus
//! builder and SGNS trainer, kept verbatim but for the step budget, which
//! it states naively (a set of token-string pairs). The shipped
//! `build_sentences` + `Word2Vec::train` must produce bit-identical
//! vectors to this code for every corpus and config (`bit_identity.rs`);
//! `crates/bench/benches/embed_ablation.rs` includes this file to report
//! both trainers' steps/s. Nothing here is tuned — its allocation per
//! step, per-occurrence `String`s and double hashing are the baseline.
//! [`uniform_records`] is the corpus both of those measure on.
#![allow(dead_code)]

use pg_embed::{LabelEmbedder, Word2VecConfig};
use pg_model::LabelSet;
use pg_store::{EdgeRecord, NodeRecord};
use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// The shipped trainer's private constant, restated.
pub const STEPS_PER_KIND: usize = 64;

/// Records of the benchmark's `offline_uniform` shape
/// (`benchmark/src/workload.rs`): `elements` nodes + edges asked of an
/// 8-node-type / 6-edge-type schema drawn from seed 42, 5 % unlabeled.
/// 100 000 elements at seed 42 is that workload's corpus.
pub fn uniform_records(elements: usize, seed: u64) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    let schema = SchemaParams {
        node_types: 8,
        edge_types: 6,
        max_extra_props: 3,
        multi_label_overlap: 0.3,
        optional_rate: 0.4,
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.05,
        missing_optional_rate: 0.3,
        label_noise_rate: 0.0,
        missing_mandatory_rate: 0.0,
    };
    synth_records(&schema, noise, elements, seed)
}

/// Records of the benchmark's `incremental_diverse` shape: a 64-node-type
/// / 48-edge-type schema with 20 % label noise, so pair kinds number in
/// the hundreds and a batch-sized corpus stays under the step budget.
pub fn diverse_records(elements: usize, seed: u64) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    let schema = SchemaParams {
        node_types: 64,
        edge_types: 48,
        max_extra_props: 12,
        multi_label_overlap: 0.3,
        optional_rate: 0.7,
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.3,
        missing_optional_rate: 0.5,
        label_noise_rate: 0.2,
        missing_mandatory_rate: 0.0,
    };
    synth_records(&schema, noise, elements, seed)
}

fn synth_records(
    schema: &SchemaParams,
    noise: NoiseProfile,
    elements: usize,
    seed: u64,
) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    let spec = SynthSpec::new(random_schema(schema, 42))
        .sized_for(elements)
        .with_noise(noise);
    pg_store::load(&synthesize(&spec, seed).graph)
}

/// Build the training corpus from loaded records.
pub fn reference_sentences(nodes: &[NodeRecord], edges: &[EdgeRecord]) -> Vec<Vec<String>> {
    let mut sentences = Vec::with_capacity(nodes.len() + edges.len());
    for n in nodes {
        if let Some(tok) = n.labels.canonical_token() {
            sentences.push(vec![tok]);
        }
    }
    for e in edges {
        let sent: Vec<String> = [
            token_of(&e.src_labels),
            token_of(&e.edge.labels),
            token_of(&e.tgt_labels),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !sent.is_empty() {
            sentences.push(sent);
        }
    }
    sentences
}

fn token_of(labels: &LabelSet) -> Option<String> {
    labels.canonical_token()
}

/// A model trained by the reference trainer.
#[derive(Debug, Clone)]
pub struct ReferenceWord2Vec {
    dim: usize,
    index: HashMap<String, usize>,
    /// Row-major `vocab × dim` input embeddings (L2-normalized).
    vectors: Vec<f64>,
    /// Deterministic seed reused for out-of-vocabulary fallbacks.
    oov_seed: u64,
    /// SGNS steps training ran.
    pub steps: usize,
    /// Distinct ordered `(center, ctx)` token pairs of the corpus.
    pub kinds: usize,
}

impl ReferenceWord2Vec {
    /// Train on a corpus of token sentences.
    ///
    /// An empty corpus produces an empty model where every token falls
    /// back to the deterministic OOV embedding.
    pub fn train(sentences: &[Vec<String>], cfg: &Word2VecConfig) -> ReferenceWord2Vec {
        assert!(cfg.dim > 0, "embedding dimension must be positive");
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut counts: Vec<usize> = Vec::new();
        for s in sentences {
            for tok in s {
                match index.get(tok) {
                    Some(&i) => counts[i] += 1,
                    None => {
                        index.insert(tok.clone(), counts.len());
                        counts.push(1);
                    }
                }
            }
        }
        let vocab = counts.len();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // Xavier-ish init for input vectors, zeros for output vectors.
        let mut input: Vec<f64> = (0..vocab * cfg.dim)
            .map(|_| (rng.gen::<f64>() - 0.5) / cfg.dim as f64)
            .collect();
        let mut output: Vec<f64> = vec![0.0; vocab * cfg.dim];

        // Unigram^0.75 negative-sampling table.
        let neg_table = build_negative_table(&counts);

        // Collect the positive pairs once, keeping their multiplicity: a
        // pair's frequency is its sampling weight. The distinct pairs are
        // the corpus's kinds: each earns `STEPS_PER_KIND` steps per epoch.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut kinds: HashSet<(String, String)> = HashSet::new();
        for s in sentences {
            let idxs: Vec<usize> = s.iter().map(|t| index[t]).collect();
            for (i, &center) in idxs.iter().enumerate() {
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(idxs.len());
                for (j, &ctx) in idxs.iter().enumerate().take(hi).skip(lo) {
                    if i != j && center != ctx {
                        pairs.push((center, ctx));
                        kinds.insert((s[i].clone(), s[j].clone()));
                    }
                }
            }
        }
        let kinds = kinds.len();
        let per_epoch = pairs.len().min(STEPS_PER_KIND * kinds);

        if vocab > 0 && !pairs.is_empty() {
            let total_steps = (cfg.epochs * per_epoch).max(1);
            let mut step = 0usize;
            for _epoch in 0..cfg.epochs {
                for _ in 0..per_epoch {
                    let &(center, ctx) = &pairs[rng.gen_range(0..pairs.len())];
                    let lr = cfg.learning_rate * (1.0 - 0.9 * step as f64 / total_steps as f64);
                    sgns_step(
                        &mut input,
                        &mut output,
                        cfg.dim,
                        center,
                        ctx,
                        &neg_table,
                        cfg.negatives,
                        lr,
                        &mut rng,
                    );
                    step += 1;
                }
            }
        }

        // Normalize rows, blend in the per-token identity direction, and
        // re-normalize. A numerically-zero row falls back to the pure
        // identity vector.
        let mut token_of_row: Vec<&String> = vec![&EMPTY_STRING; vocab];
        for (tok, &i) in &index {
            token_of_row[i] = tok;
        }
        for row in 0..vocab {
            let v = &mut input[row * cfg.dim..(row + 1) * cfg.dim];
            let ident = unit_from_hash(hash_token(token_of_row[row]) ^ cfg.seed, cfg.dim);
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

        ReferenceWord2Vec {
            dim: cfg.dim,
            index,
            vectors: input,
            oov_seed: cfg.seed,
            steps: cfg.epochs * per_epoch,
            kinds,
        }
    }
}

impl LabelEmbedder for ReferenceWord2Vec {
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

static EMPTY_STRING: String = String::new();

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One SGNS gradient step for the pair `(center, ctx)`.
#[allow(clippy::too_many_arguments)]
fn sgns_step(
    input: &mut [f64],
    output: &mut [f64],
    dim: usize,
    center: usize,
    ctx: usize,
    neg_table: &[usize],
    negatives: usize,
    lr: f64,
    rng: &mut ChaCha8Rng,
) {
    let mut grad_center = vec![0.0; dim];
    {
        // Positive sample.
        let (vi, vo) = (center * dim, ctx * dim);
        let dot: f64 = (0..dim).map(|k| input[vi + k] * output[vo + k]).sum();
        let g = (sigmoid(dot) - 1.0) * lr;
        for k in 0..dim {
            grad_center[k] += g * output[vo + k];
            output[vo + k] -= g * input[vi + k];
        }
    }
    for _ in 0..negatives {
        let neg = neg_table[rng.gen_range(0..neg_table.len())];
        if neg == ctx {
            continue;
        }
        let (vi, vo) = (center * dim, neg * dim);
        let dot: f64 = (0..dim).map(|k| input[vi + k] * output[vo + k]).sum();
        let g = sigmoid(dot) * lr;
        for k in 0..dim {
            grad_center[k] += g * output[vo + k];
            output[vo + k] -= g * input[vi + k];
        }
    }
    let vi = center * dim;
    for k in 0..dim {
        input[vi + k] -= grad_center[k];
    }
}

/// Unigram^0.75 sampling table (size-bounded).
fn build_negative_table(counts: &[usize]) -> Vec<usize> {
    const TABLE: usize = 10_000;
    if counts.is_empty() {
        return vec![0];
    }
    let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
    let total: f64 = weights.iter().sum();
    let mut table = Vec::with_capacity(TABLE);
    for (i, w) in weights.iter().enumerate() {
        let n = ((w / total) * TABLE as f64).ceil() as usize;
        table.extend(std::iter::repeat_n(i, n.max(1)));
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
fn unit_from_hash(seed: u64, dim: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    loop {
        let v: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-9 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}
