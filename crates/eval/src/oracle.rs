//! Oracle-mode runner: discovery scored against *declared* ground truth.
//!
//! The per-figure cells ([`crate::runner`]) score discovery against the
//! dataset twins of Table 2. This module closes the loop the other way:
//! `pg-synth` generates a graph *from* a declared schema, so both the
//! type assignment and the conformance target are known exactly —
//!
//! * a noise-free generated graph must score node/edge F1\* = 1.0 and
//!   STRICT-validate with zero violations against the generating schema;
//! * turning noise knobs up must degrade F1\* in a bounded, roughly
//!   monotone way (the regression curve `oracle_curve` regenerates).

use crate::f1::{majority_f1, F1Score};
use crate::runner::eval_hive_config;
use pg_hive::{validate, LshMethod, PgHive, SchemaMode};
use pg_model::{EdgeId, NodeId, SchemaGraph};
use pg_synth::{synthesize, NoiseProfile, SynthSpec};

/// Everything one oracle run measures.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// Node-type F1\* against the generating assignment.
    pub node_f1: F1Score,
    /// Edge-type F1\*; `None` when the spec generates no edges.
    pub edge_f1: Option<F1Score>,
    /// Violations when STRICT-validating the generated graph against
    /// the *declared* schema. Zero for a clean spec.
    pub strict_violations: usize,
    /// Same under LOOSE semantics (never more than STRICT).
    pub loose_violations: usize,
    /// The discovered schema, for structural inspection.
    pub discovered: SchemaGraph,
}

/// Generate a graph from `spec` with `seed`, run PG-HIVE (ELSH), and
/// score the result against the ground truth plus the declared schema.
pub fn run_oracle(spec: &SynthSpec, seed: u64) -> OracleResult {
    let out = synthesize(spec, seed);
    let result = PgHive::new(eval_hive_config(LshMethod::Elsh, seed)).discover_graph(&out.graph);

    let node_clusters: Vec<Vec<NodeId>> = result.node_members().into_values().collect();
    let node_f1 = majority_f1(&node_clusters, &out.truth.node_type);
    let edge_f1 = if out.truth.edge_type.is_empty() {
        None
    } else {
        let edge_clusters: Vec<Vec<EdgeId>> = result.edge_members().into_values().collect();
        Some(majority_f1(&edge_clusters, &out.truth.edge_type))
    };

    let strict = validate(&out.graph, &spec.schema, SchemaMode::Strict);
    let loose = validate(&out.graph, &spec.schema, SchemaMode::Loose);

    OracleResult {
        node_f1,
        edge_f1,
        strict_violations: strict.violations.len(),
        loose_violations: loose.violations.len(),
        discovered: result.schema,
    }
}

/// One point of the noise-vs-F1\* regression curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// The shared noise level `x` (unlabeled fraction = x, missing-
    /// optional rate = x, missing-mandatory rate = x, spurious-label
    /// rate = x/2).
    pub noise: f64,
    /// Node-type F1\* at that level.
    pub node_f1: f64,
    /// Edge-type F1\* at that level (1.0 when no edges were generated).
    pub edge_f1: f64,
    /// STRICT violations of the noisy graph against the declared schema.
    pub strict_violations: usize,
}

/// Sweep a shared noise level over `levels` for one generating schema.
pub fn noise_curve(schema: &SchemaGraph, levels: &[f64], seed: u64) -> Vec<CurvePoint> {
    levels
        .iter()
        .map(|&x| {
            // Labels and the property discriminator erode together:
            // stripping labels alone leaves the unique mandatory keys to
            // identify every type (F1* stays pinned at 1.0), so the
            // mandatory-erosion knob rises with x as well.
            let spec = SynthSpec::new(schema.clone()).with_noise(NoiseProfile {
                unlabeled_fraction: x,
                missing_optional_rate: x,
                label_noise_rate: x / 2.0,
                missing_mandatory_rate: x,
            });
            let r = run_oracle(&spec, seed);
            CurvePoint {
                noise: x,
                node_f1: r.node_f1.macro_f1,
                edge_f1: r.edge_f1.map(|f| f.macro_f1).unwrap_or(1.0),
                strict_violations: r.strict_violations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_synth::{random_schema, SchemaParams};

    #[test]
    fn clean_spec_scores_perfect_and_conformant() {
        let schema = random_schema(&SchemaParams::default(), 21);
        let spec = SynthSpec::new(schema);
        let r = run_oracle(&spec, 21);
        assert_eq!(r.node_f1.macro_f1, 1.0, "node F1 {:?}", r.node_f1);
        if let Some(ef1) = r.edge_f1 {
            assert_eq!(ef1.macro_f1, 1.0, "edge F1 {ef1:?}");
        }
        assert_eq!(r.strict_violations, 0);
        assert_eq!(r.loose_violations, 0);
    }

    #[test]
    fn loose_never_exceeds_strict() {
        let schema = random_schema(&SchemaParams::default(), 5);
        let spec = SynthSpec::new(schema).with_noise(NoiseProfile {
            unlabeled_fraction: 0.3,
            missing_optional_rate: 0.3,
            label_noise_rate: 0.1,
            missing_mandatory_rate: 0.2,
        });
        let r = run_oracle(&spec, 5);
        assert!(r.loose_violations <= r.strict_violations);
    }
}
