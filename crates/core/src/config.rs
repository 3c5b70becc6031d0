//! Pipeline configuration.

use pg_embed::Word2VecConfig;

/// Which LSH family clusters the feature representation (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LshMethod {
    /// Euclidean (p-stable, bucketed random projections) LSH over the
    /// hybrid numeric vectors. The default.
    Elsh,
    /// MinHash LSH over set representations (label tokens + property
    /// keys).
    MinHash,
}

/// `elsh` or `minhash` — the one spelling the CLI's `--method` and a
/// served session's `method` share.
impl std::str::FromStr for LshMethod {
    type Err = String;
    fn from_str(s: &str) -> Result<LshMethod, String> {
        match s {
            "elsh" => Ok(LshMethod::Elsh),
            "minhash" => Ok(LshMethod::MinHash),
            other => Err(format!("unknown method {other:?} (elsh or minhash)")),
        }
    }
}

impl std::fmt::Display for LshMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LshMethod::Elsh => "elsh",
            LshMethod::MinHash => "minhash",
        })
    }
}

/// LSH parameter selection strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LshParams {
    /// The paper's adaptive strategy: sample the data, derive
    /// `b = 1.2·μ·α` and `T` from the distance scale, size, and label
    /// count.
    Adaptive,
    /// Explicit user-supplied parameters (`bucket_length` is ignored by
    /// MinHash, which only takes `tables`).
    Manual {
        /// ELSH bucket length `b`.
        bucket_length: f64,
        /// Number of hash tables `T`.
        tables: usize,
    },
}

/// Which label embedder backs the feature vectors (§4.1).
#[derive(Debug, Clone)]
pub enum EmbeddingKind {
    /// Word2Vec skip-gram trained on the label corpus of the session's
    /// first labelled batch — the paper's choice.
    Word2Vec(Word2VecConfig),
    /// Deterministic hashed unit vectors (training-free ablation).
    Hashed {
        /// Embedding dimensionality.
        dim: usize,
    },
}

/// How unlabeled clusters are compared against candidate types during
/// merging (Algorithm 2's similarity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeSimilarity {
    /// The paper's set Jaccard over property *keys* (§4.3).
    #[default]
    BinaryJaccard,
    /// Frequency-weighted Jaccard: keys are weighted by the fraction of
    /// instances carrying them, `Σ min(f₁,f₂) / Σ max(f₁,f₂)`. More
    /// robust when data is extremely sparse — heavy property removal
    /// shrinks binary key sets erratically, while presence *rates*
    /// degrade smoothly. Addresses the paper's future-work item (a)
    /// ("no label information … and data is extremely sparse", §6).
    WeightedJaccard,
}

/// Sampled data-type inference (§4.4): look at a fraction of the values
/// of each property ("e.g., 10 % of the properties, and at least 1000"),
/// falling back to the string default when values disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatatypeSampling {
    /// Fraction of values to sample.
    pub fraction: f64,
    /// Minimum sample size (caps at the number of observed values).
    pub min_values: usize,
}

impl Default for DatatypeSampling {
    fn default() -> Self {
        DatatypeSampling {
            fraction: 0.1,
            min_values: 1000,
        }
    }
}

/// Streaming-mode knobs: the sketch sizes of the bounded-memory
/// session (see [`crate::sketch`] and DESIGN.md §3i). All sketches
/// are seeded from the pipeline seed, so two sessions with the same
/// config and input produce bit-identical sketch state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// KMV sketch size `k` for distinct counts (members, endpoint
    /// pairs, sources, targets). Relative estimation error ≈ `1/√k`
    /// once a sketch saturates; memory is `8k` bytes per counter.
    pub distinct_k: usize,
    /// Bottom-`k` value-sample size per property for sampled data-type
    /// inference.
    pub sample_k: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            distinct_k: 1024,
            sample_k: 256,
        }
    }
}

/// Full PG-HIVE configuration (Algorithm 1's inputs plus engineering
/// knobs). `Default` reproduces the paper's settings: adaptive ELSH,
/// Word2Vec embeddings, θ = 0.9, post-processing on, full-scan data
/// types.
#[derive(Debug, Clone)]
pub struct HiveConfig {
    /// Clustering family.
    pub method: LshMethod,
    /// Parameters for node clustering.
    pub node_params: LshParams,
    /// Parameters for edge clustering.
    pub edge_params: LshParams,
    /// Label embedder.
    pub embedding: EmbeddingKind,
    /// Jaccard similarity threshold θ for merging unlabeled clusters
    /// (Algorithm 2). The paper sets 0.9: high to avoid over-merging.
    pub theta: f64,
    /// Which similarity the unlabeled-cluster merge uses.
    pub merge_similarity: MergeSimilarity,
    /// Run post-processing (constraints, data types, cardinalities) —
    /// the `postProcessing` flag of Algorithm 1.
    pub post_processing: bool,
    /// Sample-based data-type inference; `None` scans all values.
    pub datatype_sampling: Option<DatatypeSampling>,
    /// Merge labeled edge clusters on the full `(L, R)` key of
    /// Definition 3.6 (labels + endpoint label sets) instead of labels
    /// alone. Keeps same-label edge types with different endpoints
    /// distinct (e.g. the two `ConnectsTo` types of the connectome
    /// datasets). Disable for the label-only ablation.
    pub edge_endpoint_aware: bool,
    /// Inert: discovery runs on the calling thread (DESIGN.md §3a). Kept
    /// because the benchmark harness and `POST /sessions` still set it.
    pub threads: usize,
    /// Master seed: the pipeline is deterministic given config + input.
    pub seed: u64,
    /// Bounded-memory streaming mode: `Some` swaps the per-type
    /// accumulators onto mergeable sketches (KMV distinct counts for
    /// cardinalities, bottom-k value samples for data types), making
    /// session memory and checkpoint size independent of stream length.
    /// `None` (the default) keeps the exact accumulators.
    pub stream: Option<StreamConfig>,
}

impl Default for HiveConfig {
    fn default() -> Self {
        HiveConfig {
            method: LshMethod::Elsh,
            node_params: LshParams::Adaptive,
            edge_params: LshParams::Adaptive,
            embedding: EmbeddingKind::Word2Vec(Word2VecConfig::default()),
            theta: 0.9,
            merge_similarity: MergeSimilarity::BinaryJaccard,
            post_processing: true,
            datatype_sampling: None,
            edge_endpoint_aware: true,
            threads: 0,
            seed: 42,
            stream: None,
        }
    }
}

impl HiveConfig {
    /// The paper's MinHash variant with otherwise default settings.
    pub fn minhash() -> Self {
        HiveConfig {
            method: LshMethod::MinHash,
            ..Default::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style θ override.
    ///
    /// # Panics
    /// Panics if θ is outside `[0, 1]`.
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        self.theta = theta;
        self
    }

    /// Builder-style manual node/edge LSH parameters (used by the
    /// Figure 6 sweep).
    pub fn with_manual_params(mut self, bucket_length: f64, tables: usize) -> Self {
        self.node_params = LshParams::Manual {
            bucket_length,
            tables,
        };
        self.edge_params = LshParams::Manual {
            bucket_length,
            tables,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_spelling_round_trips() {
        for method in [LshMethod::Elsh, LshMethod::MinHash] {
            assert_eq!(method.to_string().parse(), Ok(method));
        }
        assert!("ELSH".parse::<LshMethod>().is_err());
    }

    #[test]
    fn defaults_match_paper() {
        let c = HiveConfig::default();
        assert_eq!(c.method, LshMethod::Elsh);
        assert_eq!(c.theta, 0.9);
        assert!(c.post_processing);
        assert!(c.datatype_sampling.is_none());
        assert_eq!(c.node_params, LshParams::Adaptive);
        assert!(c.stream.is_none(), "exact accumulators by default");
    }

    #[test]
    fn stream_defaults() {
        let s = StreamConfig::default();
        assert_eq!(s.distinct_k, 1024);
        assert_eq!(s.sample_k, 256);
    }

    #[test]
    fn builders() {
        let c = HiveConfig::minhash().with_seed(7).with_theta(0.8);
        assert_eq!(c.method, LshMethod::MinHash);
        assert_eq!(c.seed, 7);
        assert_eq!(c.theta, 0.8);
        let m = HiveConfig::default().with_manual_params(2.0, 20);
        assert_eq!(
            m.node_params,
            LshParams::Manual {
                bucket_length: 2.0,
                tables: 20
            }
        );
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_rejected() {
        let _ = HiveConfig::default().with_theta(1.5);
    }
}
