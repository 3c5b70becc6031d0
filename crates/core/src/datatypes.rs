//! Property data-type inference (§4.4, "Property data types").
//!
//! For each property of each type, the observed value types are joined on
//! the shallow lattice (int → float, date → datetime, mixed → string).
//! A full scan joins every value; the optional sampling mode joins a
//! without-replacement sample ("10 % of the properties, and at least
//! 1000") — Figure 8 measures how often sampling disagrees with the full
//! scan.

use crate::config::DatatypeSampling;
use crate::state::{DiscoveryState, DtypeHist, Kind};
use pg_model::{Edge, Node, SchemaType};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Infer and write data types for every property of every type.
///
/// Sketched accumulators (streaming mode) with sampling enabled join
/// over the accumulator's bottom-k value sample instead of drawing from
/// the histogram: a deterministic, RNG-free sample of *distinct*
/// values, so two sessions that saw the same stream in any order infer
/// identical types. Full-scan inference (`sampling == None`) uses the
/// exact histogram in both modes — the histogram stays O(1) per
/// property regardless of mode, so streaming keeps full fidelity there.
pub fn infer_datatypes(state: &mut DiscoveryState, sampling: Option<DatatypeSampling>, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    infer_kind::<Node>(state, sampling, &mut rng);
    infer_kind::<Edge>(state, sampling, &mut rng);
}

fn infer_kind<K: Kind>(
    state: &mut DiscoveryState,
    sampling: Option<DatatypeSampling>,
    rng: &mut ChaCha8Rng,
) {
    let (types, accums) = K::split(state);
    for t in types {
        let Some(acc) = accums.get(&t.id()) else {
            continue;
        };
        for (key, spec) in t.properties_mut() {
            let reservoir = sampling
                .and(acc.sketch())
                .and_then(|sk| sk.samples.get(key))
                .filter(|s| !s.is_empty());
            if let Some(sample) = reservoir {
                spec.datatype = sample.join();
            } else if let Some(hist) = acc.dtype_hist.get(key) {
                spec.datatype = infer_one(hist, sampling, rng);
            }
        }
    }
}

/// Data type of one property: full join or sampled join.
pub fn infer_one(
    hist: &DtypeHist,
    sampling: Option<DatatypeSampling>,
    rng: &mut ChaCha8Rng,
) -> Option<pg_model::DataType> {
    match sampling {
        None => hist.full_join(),
        Some(s) => hist.sample_join(sample_size(hist.total(), s), rng),
    }
}

/// The paper's sample size: `max(fraction·total, min_values)`, capped at
/// the total.
pub fn sample_size(total: u64, s: DatatypeSampling) -> usize {
    let frac = (total as f64 * s.fraction).ceil() as usize;
    frac.max(s.min_values).min(total as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::DataType;

    #[test]
    fn sample_size_rules() {
        let s = DatatypeSampling {
            fraction: 0.1,
            min_values: 1000,
        };
        assert_eq!(sample_size(50, s), 50, "capped at total");
        assert_eq!(sample_size(5_000, s), 1000, "minimum enforced");
        assert_eq!(sample_size(100_000, s), 10_000, "10 % of large sets");
    }

    #[test]
    fn full_scan_joins_all_values() {
        let mut h = DtypeHist::default();
        h.observe(DataType::Int);
        h.observe(DataType::Float);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(infer_one(&h, None, &mut rng), Some(DataType::Float));
    }

    #[test]
    fn sampling_can_miss_rare_outliers() {
        // 100k ints + 1 string: the full scan must say Str, a small
        // sample will usually say Int — exactly the Figure 8 phenomenon.
        let mut h = DtypeHist::default();
        for _ in 0..100_000 {
            h.observe(DataType::Int);
        }
        h.observe(DataType::Str);
        assert_eq!(h.full_join(), Some(DataType::Str));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sampled = infer_one(
            &h,
            Some(DatatypeSampling {
                fraction: 0.001,
                min_values: 100,
            }),
            &mut rng,
        );
        assert_eq!(sampled, Some(DataType::Int), "outlier missed by sample");
    }

    #[test]
    fn pipeline_writes_datatypes() {
        use crate::cluster::NodeCluster;
        use crate::extract::integrate;
        use crate::state::NodeTypeAccum;
        use pg_model::{LabelSet, Node};

        let mut accum = NodeTypeAccum::default();
        accum.observe(
            &Node::new(1, LabelSet::single("P"))
                .with_prop("age", 30i64)
                .with_prop("name", "bob")
                .with_prop("bday", pg_model::Date::new(1999, 12, 19).unwrap()),
        );
        let cluster = NodeCluster {
            labels: LabelSet::single("P"),
            keys: ["age", "name", "bday"]
                .iter()
                .map(|k| pg_model::sym(k))
                .collect(),
            accum,
        };
        let mut state = DiscoveryState::new();
        integrate(&mut state, vec![cluster], Default::default());
        infer_datatypes(&mut state, None, 0);
        let t = &state.schema.node_types[0];
        assert_eq!(
            t.properties[&pg_model::sym("age")].datatype,
            Some(DataType::Int)
        );
        assert_eq!(
            t.properties[&pg_model::sym("name")].datatype,
            Some(DataType::Str)
        );
        assert_eq!(
            t.properties[&pg_model::sym("bday")].datatype,
            Some(DataType::Date)
        );
    }
}
