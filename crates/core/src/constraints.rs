//! Mandatory/optional property constraints (§4.4, "Property
//! constraints").
//!
//! A property `p` is MANDATORY for type `T` iff `f_T(p) = 1`, i.e. it
//! appears in every instance of `T`; otherwise it is OPTIONAL. Soundness
//! (§4.7): every property marked mandatory is indeed present in every
//! observed instance, by construction of the presence counts.

use crate::state::{DiscoveryState, Kind};
use pg_model::{Edge, Node, Presence, SchemaType};

/// Infer presence constraints for every type in the state and write them
/// into the schema's property specs.
pub fn infer_property_constraints(state: &mut DiscoveryState) {
    constrain::<Node>(state);
    constrain::<Edge>(state);
}

fn constrain<K: Kind>(state: &mut DiscoveryState) {
    let (types, accums) = K::split(state);
    for t in types {
        let Some(acc) = accums.get(&t.id()) else {
            continue;
        };
        for (key, spec) in t.properties_mut() {
            let present = acc.key_present.get(key).copied().unwrap_or(0);
            spec.presence = Some(if present == acc.count && acc.count > 0 {
                Presence::Mandatory
            } else {
                Presence::Optional
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeCluster;
    use crate::extract::integrate;
    use crate::state::NodeTypeAccum;
    use pg_model::{LabelSet, Node};
    use std::collections::BTreeSet;

    #[test]
    fn mandatory_iff_present_in_all_instances() {
        // Example 6: Person{name,gender,bday} everywhere → mandatory;
        // Post.imgFile only sometimes → optional.
        let mut accum = NodeTypeAccum::default();
        accum.observe(
            &Node::new(1, LabelSet::single("Post"))
                .with_prop("content", "a")
                .with_prop("imgFile", "x.png"),
        );
        accum.observe(&Node::new(2, LabelSet::single("Post")).with_prop("content", "b"));
        let cluster = NodeCluster {
            labels: LabelSet::single("Post"),
            keys: ["content", "imgFile"]
                .iter()
                .map(|k| pg_model::sym(k))
                .collect::<BTreeSet<_>>(),
            accum,
        };
        let mut state = DiscoveryState::new();
        integrate(&mut state, vec![cluster], Default::default());
        infer_property_constraints(&mut state);
        let t = &state.schema.node_types[0];
        assert_eq!(
            t.properties[&pg_model::sym("content")].presence,
            Some(Presence::Mandatory)
        );
        assert_eq!(
            t.properties[&pg_model::sym("imgFile")].presence,
            Some(Presence::Optional)
        );
    }

    #[test]
    fn soundness_every_mandatory_key_is_in_every_instance() {
        // Randomized-ish structure; check the §4.7 soundness claim.
        let mut accum = NodeTypeAccum::default();
        let mut nodes = Vec::new();
        for i in 0..20u64 {
            let mut n = Node::new(i, LabelSet::single("T")).with_prop("always", 1i64);
            if i % 3 == 0 {
                n = n.with_prop("sometimes", 2i64);
            }
            accum.observe(&n);
            nodes.push(n);
        }
        let cluster = NodeCluster {
            labels: LabelSet::single("T"),
            keys: ["always", "sometimes"]
                .iter()
                .map(|k| pg_model::sym(k))
                .collect(),
            accum,
        };
        let mut state = DiscoveryState::new();
        integrate(&mut state, vec![cluster], Default::default());
        infer_property_constraints(&mut state);
        let t = &state.schema.node_types[0];
        for (key, spec) in &t.properties {
            if spec.presence == Some(Presence::Mandatory) {
                assert!(
                    nodes.iter().all(|n| n.props.contains_key(key)),
                    "{key} marked mandatory but missing somewhere"
                );
            }
        }
        assert_eq!(
            t.properties[&pg_model::sym("sometimes")].presence,
            Some(Presence::Optional)
        );
    }
}
