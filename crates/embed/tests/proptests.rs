//! Property-based tests for the embedding substrate.

use pg_embed::{HashedEmbedder, LabelCorpus, LabelEmbedder, Word2Vec, Word2VecConfig};
use proptest::prelude::*;

fn quick_cfg(dim: usize, seed: u64) -> Word2VecConfig {
    Word2VecConfig {
        dim,
        epochs: 1,
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trained_vectors_are_unit_norm(
        sentences in prop::collection::vec(
            prop::collection::vec("[A-Z][a-z]{0,5}", 1..4), 1..30),
        dim in 2usize..16,
        seed in 0u64..1000,
    ) {
        let m = Word2Vec::train(&LabelCorpus::from_sentences(&sentences), &quick_cfg(dim, seed));
        for s in &sentences {
            for tok in s {
                let v = m.embed_token(tok);
                prop_assert_eq!(v.len(), dim);
                let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                prop_assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
            }
        }
    }

    #[test]
    fn identical_tokens_embed_identically(
        token in "[A-Za-z|]{1,12}",
        dim in 2usize..16,
        seed in 0u64..1000,
    ) {
        let corpus = LabelCorpus::from_sentences(&[vec![token.clone()]]);
        let m = Word2Vec::train(&corpus, &quick_cfg(dim, seed));
        prop_assert_eq!(m.embed_token(&token), m.embed_token(&token));
        let h = HashedEmbedder::new(dim, seed);
        prop_assert_eq!(h.embed_token(&token), h.embed_token(&token));
    }

    #[test]
    fn distinct_tokens_are_separated(
        a in "[A-Z][a-z]{1,8}",
        b in "[A-Z][a-z]{1,8}",
        seed in 0u64..1000,
    ) {
        prop_assume!(a != b);
        // Identity blending guarantees a distance floor even for tokens
        // the trainer cannot distinguish (e.g. identical contexts).
        let corpus = LabelCorpus::from_sentences(&vec![vec![a.clone(), b.clone()]; 5]);
        let m = Word2Vec::train(&corpus, &quick_cfg(8, seed));
        let va = m.embed_token(&a);
        let vb = m.embed_token(&b);
        let d: f64 = va.iter().zip(&vb).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        prop_assert!(d > 0.3, "tokens {a:?}/{b:?} too close: {d}");
    }

    #[test]
    fn embed_opt_none_is_zero(dim in 1usize..16, seed in 0u64..1000) {
        let h = HashedEmbedder::new(dim, seed);
        prop_assert_eq!(h.embed_opt(None), vec![0.0; dim]);
        let m = Word2Vec::train(&LabelCorpus::default(), &quick_cfg(dim, seed));
        prop_assert_eq!(m.embed_opt(None), vec![0.0; dim]);
    }
}
