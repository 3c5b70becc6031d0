//! Context refinement — the paper's future-work item (b): "detect types
//! that share identical type patterns but lack distinguishing labels"
//! (§6).
//!
//! Structure-only clustering cannot separate two unlabeled types whose
//! instances carry the same property keys. Their *graph context* often
//! can: a `Person`-shaped node that only receives `WORKS_AT` edges is
//! not the same type as one that only receives `FOLLOWS` edges. This
//! pass re-examines each ABSTRACT node type and splits it when its
//! members fall into clearly distinct context groups, where a member's
//! context signature is the set of `(edge label set, direction)` pairs
//! over its incident edges.
//!
//! The pass is **opt-in and runs after discovery**: a split refines the
//! schema rather than extending it, so it deliberately steps outside the
//! monotone chain of §4.6 (rerun post-processing afterwards to refresh
//! constraints).

use crate::state::{DiscoveryState, NodeTypeAccum};
use pg_model::{LabelSet, Node, NodeType, PropertyGraph, TypeId};
use std::collections::{BTreeMap, BTreeSet};

/// Settings for the refinement pass.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Only types with at least this many members are examined.
    pub min_members: usize,
    /// A context group must hold at least this fraction of the type's
    /// members to be split out (guards against noise-induced slivers).
    pub min_group_fraction: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            min_members: 4,
            min_group_fraction: 0.2,
        }
    }
}

/// Outcome of one refinement pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Types examined (abstract, large enough).
    pub examined: usize,
    /// Types split, with the number of resulting parts.
    pub splits: Vec<(TypeId, usize)>,
}

/// A member's context signature: incident `(edge label set rendering,
/// direction)` pairs. Out = true.
fn context_signature(graph: &PropertyGraph, node: pg_model::NodeId) -> BTreeSet<(String, bool)> {
    let mut sig = BTreeSet::new();
    for e in graph.out_edges(node) {
        sig.insert((e.labels.to_string(), true));
    }
    for e in graph.in_edges(node) {
        sig.insert((e.labels.to_string(), false));
    }
    sig
}

/// Split ABSTRACT node types whose members exhibit distinct graph
/// contexts. Returns what happened; rerun constraint/data-type inference
/// afterwards (the new types carry freshly rebuilt accumulators).
pub fn refine_abstract_types(
    state: &mut DiscoveryState,
    graph: &PropertyGraph,
    cfg: RefineConfig,
) -> RefineReport {
    let mut report = RefineReport::default();
    let candidates: Vec<TypeId> = state
        .schema
        .node_types
        .iter()
        .filter(|t| t.is_abstract)
        .map(|t| t.id)
        .collect();

    for tid in candidates {
        let Some(accum) = state.node_accums.get(&tid) else {
            continue;
        };
        if accum.members().len() < cfg.min_members {
            continue;
        }
        report.examined += 1;

        // Group members by context signature. Members not present in
        // this graph (e.g. earlier batches) keep the original type.
        let mut groups: BTreeMap<BTreeSet<(String, bool)>, Vec<pg_model::NodeId>> = BTreeMap::new();
        let mut absent: Vec<pg_model::NodeId> = Vec::new();
        for &m in accum.members() {
            if graph.node(m).is_some() {
                groups
                    .entry(context_signature(graph, m))
                    .or_default()
                    .push(m);
            } else {
                absent.push(m);
            }
        }
        let total: usize = groups.values().map(Vec::len).sum();
        if total == 0 {
            continue;
        }
        let threshold = ((total as f64) * cfg.min_group_fraction).ceil() as usize;
        let (big, small): (Vec<_>, Vec<_>) = groups
            .into_values()
            .partition(|g| g.len() >= threshold.max(1));
        if big.len() < 2 {
            continue; // context does not separate this type
        }

        // Split: the largest group (plus sub-threshold slivers and
        // absent members) keeps the original id; every other big group
        // becomes a fresh ABSTRACT type with a rebuilt accumulator.
        let mut big = big;
        big.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let mut keep: Vec<pg_model::NodeId> = big.remove(0);
        keep.extend(small.into_iter().flatten());
        keep.extend(absent);

        let template = state
            .schema
            .node_types
            .iter()
            .find(|t| t.id == tid)
            .expect("candidate exists")
            .clone();

        // Rebuild the kept accumulator from scratch.
        let rebuilt = rebuild_accum(graph, &keep, state.node_accums.get(&tid));
        let kept_count = rebuilt.count;
        state.node_accums.insert(tid, rebuilt);
        if let Some(t) = state.schema.node_types.iter_mut().find(|t| t.id == tid) {
            t.instance_count = kept_count;
        }

        let mut parts = 1;
        for group in big {
            let accum = rebuild_accum(graph, &group, None);
            let mut t = NodeType::new(
                TypeId(0),
                template.labels.clone(),
                accum.key_present.keys().cloned(),
            );
            t.is_abstract = true;
            t.instance_count = accum.count;
            let new_id = state.schema.push_node_type(t);
            state.node_accums.insert(new_id, accum);
            parts += 1;
        }
        report.splits.push((tid, parts));
    }
    report
}

/// Rebuild an accumulator by re-observing members from the graph;
/// members absent from the graph fall back to bare membership (their
/// property statistics came from an earlier batch and are approximated
/// by the old accumulator's marginal rates — we keep them as members
/// only, which under-counts presence and therefore never produces an
/// unsound MANDATORY).
fn rebuild_accum(
    graph: &PropertyGraph,
    members: &[pg_model::NodeId],
    _old: Option<&NodeTypeAccum>,
) -> NodeTypeAccum {
    let mut accum = NodeTypeAccum::default();
    for &m in members {
        match graph.node(m) {
            Some(node) => accum.observe(node),
            // A property-less stand-in folds in as bare membership.
            None => accum.observe(&Node::new(m.0, LabelSet::empty())),
        }
    }
    accum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HiveConfig, PgHive};
    use pg_model::{Edge, LabelSet, Node, NodeId};

    /// Two unlabeled "sensor"-shaped types with identical properties:
    /// one kind emits MEASURES edges, the other receives CONTROLS edges.
    fn ambiguous_graph(n: u64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.add_node(Node::new(i, LabelSet::empty()).with_prop("serial", i as i64))
                .unwrap();
            g.add_node(Node::new(100 + i, LabelSet::empty()).with_prop("serial", i as i64))
                .unwrap();
            g.add_node(Node::new(200 + i, LabelSet::single("Hub")).with_prop("name", "h"))
                .unwrap();
        }
        for i in 0..n {
            g.add_edge(Edge::new(
                1000 + i,
                NodeId(i),
                NodeId(200 + i),
                LabelSet::single("MEASURES"),
            ))
            .unwrap();
            g.add_edge(Edge::new(
                2000 + i,
                NodeId(200 + i),
                NodeId(100 + i),
                LabelSet::single("CONTROLS"),
            ))
            .unwrap();
        }
        g
    }

    #[test]
    fn splits_structurally_identical_unlabeled_types_by_context() {
        let g = ambiguous_graph(10);
        let mut result = PgHive::new(HiveConfig::default()).discover_graph(&g);
        // Structure alone cannot separate the two sensor kinds: they end
        // up in one ABSTRACT type.
        let abstract_before: Vec<_> = result
            .schema
            .node_types
            .iter()
            .filter(|t| t.is_abstract)
            .collect();
        assert_eq!(abstract_before.len(), 1);
        assert_eq!(result.state.node_accums[&abstract_before[0].id].count, 20);

        let report = refine_abstract_types(&mut result.state, &g, RefineConfig::default());
        assert_eq!(report.examined, 1);
        assert_eq!(report.splits.len(), 1);
        assert_eq!(report.splits[0].1, 2, "split into two parts");

        let abstract_after: Vec<_> = result
            .state
            .schema
            .node_types
            .iter()
            .filter(|t| t.is_abstract)
            .collect();
        assert_eq!(abstract_after.len(), 2);
        // The split is clean: 10 + 10.
        let mut sizes: Vec<u64> = abstract_after
            .iter()
            .map(|t| result.state.node_accums[&t.id].count)
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![10, 10]);
        // No member lost.
        let total: usize = result
            .state
            .node_accums
            .values()
            .map(|a| a.members().len())
            .sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn uniform_context_is_not_split() {
        // One unlabeled type whose members all have the same context.
        let mut g = PropertyGraph::new();
        for i in 0..10u64 {
            g.add_node(Node::new(i, LabelSet::empty()).with_prop("x", 1i64))
                .unwrap();
            g.add_node(Node::new(100 + i, LabelSet::single("Hub")))
                .unwrap();
            g.add_edge(Edge::new(
                1000 + i,
                NodeId(i),
                NodeId(100 + i),
                LabelSet::single("E"),
            ))
            .unwrap();
        }
        let mut result = PgHive::new(HiveConfig::default()).discover_graph(&g);
        let before = result.schema.node_types.len();
        let report = refine_abstract_types(&mut result.state, &g, RefineConfig::default());
        assert!(report.splits.is_empty());
        assert_eq!(result.state.schema.node_types.len(), before);
    }

    #[test]
    fn labeled_types_are_never_touched() {
        let g = ambiguous_graph(5);
        let mut result = PgHive::new(HiveConfig::default()).discover_graph(&g);
        let hub_before = result
            .schema
            .node_types
            .iter()
            .find(|t| t.labels.contains("Hub"))
            .unwrap()
            .clone();
        refine_abstract_types(&mut result.state, &g, RefineConfig::default());
        let hub_after = result
            .state
            .schema
            .node_types
            .iter()
            .find(|t| t.labels.contains("Hub"))
            .unwrap();
        assert_eq!(&hub_before, hub_after);
    }

    #[test]
    fn small_types_are_skipped() {
        let g = ambiguous_graph(1); // 2 members < min_members
        let mut result = PgHive::new(HiveConfig::default()).discover_graph(&g);
        let report = refine_abstract_types(&mut result.state, &g, RefineConfig::default());
        assert_eq!(report.examined, 0);
    }
}
