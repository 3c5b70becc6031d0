//! Noise and value-distribution knobs of the generator.

use pg_model::{DataType, Date, DateTime, PropertyValue};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Graph-level noise applied on top of a clean generated graph. The
/// default (all zeros) is the oracle baseline: a clean graph that
/// STRICT-validates against its declared schema with zero violations.
///
/// Rates are probabilities in `[0, 1]`; anything outside is clamped.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseProfile {
    /// Fraction of nodes whose labels are stripped entirely (the
    /// paper's label-availability axis; exercises the unlabeled-cluster
    /// merge and ABSTRACT-type paths).
    pub unlabeled_fraction: f64,
    /// Probability that an OPTIONAL property is dropped from an
    /// instance *beyond* the baseline presence rate (the paper's
    /// property-removal noise, restricted to optionals so mandatory
    /// constraints stay intact).
    pub missing_optional_rate: f64,
    /// Probability that a labeled node gains one spurious label drawn
    /// from a small noise vocabulary (dirty-ingest simulation; splits
    /// label-set clusters without changing the ground-truth type).
    pub label_noise_rate: f64,
    /// Probability that a MANDATORY property is dropped from an
    /// instance. Unlike the other knobs this one erodes the property
    /// discriminator itself — generated types are identifiable by their
    /// unique mandatory key even with every label stripped, so this is
    /// the knob that actually degrades F1\* (and, by design, breaks
    /// STRICT conformance).
    pub missing_mandatory_rate: f64,
}

impl NoiseProfile {
    /// The noise-free baseline.
    pub fn clean() -> NoiseProfile {
        NoiseProfile::default()
    }

    pub(crate) fn clamped(&self) -> NoiseProfile {
        NoiseProfile {
            unlabeled_fraction: self.unlabeled_fraction.clamp(0.0, 1.0),
            missing_optional_rate: self.missing_optional_rate.clamp(0.0, 1.0),
            label_noise_rate: self.label_noise_rate.clamp(0.0, 1.0),
            missing_mandatory_rate: self.missing_mandatory_rate.clamp(0.0, 1.0),
        }
    }
}

/// Value distributions per [`DataType`]. Every generated value is drawn
/// so that serialization round-trips preserve its data type: floats sit
/// on a `k + 0.5` grid (never rendered as integers), strings carry a
/// non-numeric prefix, dates stay inside a valid calendar window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueModel {
    /// Integers are uniform in `[0, int_cardinality)`.
    pub int_cardinality: i64,
    /// Floats are `k + 0.5` for uniform `k` in `[0, float_cardinality)`.
    pub float_cardinality: i64,
    /// Strings are `"s<k>"` for uniform `k` in `[0, str_cardinality)`.
    pub str_cardinality: u64,
    /// Probability that an OPTIONAL property is present on an instance
    /// (before [`NoiseProfile::missing_optional_rate`] thins it).
    pub optional_present_rate: f64,
}

impl Default for ValueModel {
    fn default() -> Self {
        ValueModel {
            int_cardinality: 1_000_000,
            float_cardinality: 10_000,
            str_cardinality: 100_000,
            optional_present_rate: 0.7,
        }
    }
}

impl ValueModel {
    /// Draw one value of the given data type. `None` draws a string
    /// (the lattice top among concrete values).
    pub fn draw(&self, dt: Option<DataType>, rng: &mut ChaCha8Rng) -> PropertyValue {
        match dt.unwrap_or(DataType::Str) {
            DataType::Int => PropertyValue::Int(rng.gen_range(0..self.int_cardinality.max(1))),
            DataType::Float => {
                PropertyValue::Float(rng.gen_range(0..self.float_cardinality.max(1)) as f64 + 0.5)
            }
            DataType::Bool => PropertyValue::Bool(rng.gen_range(0..2) == 1),
            DataType::Date => PropertyValue::Date(
                Date::new(
                    rng.gen_range(1990..2030),
                    rng.gen_range(1..13),
                    rng.gen_range(1..29),
                )
                .expect("generated date is always valid"),
            ),
            DataType::DateTime => {
                let date = Date::new(
                    rng.gen_range(1990..2030),
                    rng.gen_range(1..13),
                    rng.gen_range(1..29),
                )
                .expect("generated date is always valid");
                PropertyValue::DateTime(
                    DateTime::new(
                        date,
                        rng.gen_range(0..24),
                        rng.gen_range(0..60),
                        rng.gen_range(0..60),
                    )
                    .expect("generated time is always valid"),
                )
            }
            DataType::Str => PropertyValue::Str(format!(
                "s{}",
                rng.gen_range(0..self.str_cardinality.max(1))
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn drawn_values_have_the_requested_datatype() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = ValueModel::default();
        for dt in DataType::ALL {
            for _ in 0..50 {
                let v = m.draw(Some(dt), &mut rng);
                assert_eq!(DataType::of(&v), dt);
                assert!(dt.admits(&v));
            }
        }
    }

    #[test]
    fn drawn_values_round_trip_through_text() {
        // CSV serialization renders values and re-infers their type;
        // the distributions are designed so that round trip is lossless
        // type-wise (floats never look like ints, strings never look
        // like numbers).
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = ValueModel::default();
        for dt in [
            DataType::Int,
            DataType::Float,
            DataType::Date,
            DataType::DateTime,
            DataType::Str,
        ] {
            for _ in 0..50 {
                let v = m.draw(Some(dt), &mut rng);
                let back = PropertyValue::infer(&v.render());
                assert_eq!(DataType::of(&back), dt, "{v:?} -> {back:?}");
            }
        }
    }
}
