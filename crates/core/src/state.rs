//! Discovery state: the running schema plus one statistics accumulator
//! per type.
//!
//! [`TypeAccum`] serves node and edge types alike. Its always-exact part
//! — instance count, per-key presence counts (mandatory/optional,
//! §4.4), per-key data-type histograms (data-type inference, §4.4) —
//! costs O(1) per instance and merges by integer addition. Its
//! [`Membership`] is in one of two states: exact member-id and endpoint
//! lists (evaluation, exact cardinalities), or fixed-size KMV /
//! bottom-k sketches of the same (bounded-memory streaming). What an
//! edge accumulator has beyond a node one — endpoint pairs, their
//! sketches, a cardinality floor — enters through the [`Kind`] trait,
//! which [`pg_model::Node`] and [`pg_model::Edge`] implement. [`Record`]
//! is its counterpart for the loaded input: what a node record and an
//! edge record give the front half of the pipeline.

use crate::config::StreamConfig;
use crate::sketch::{hash_pair, DistinctSketch, ValueSample, SKETCH_SALT};
use pg_lsh::adaptive::ElementKind;
use pg_model::{
    Cardinality, DataType, Edge, EdgeId, EdgeType, LabelSet, Node, NodeId, NodeType, PropMap,
    SchemaGraph, SchemaType, Symbol, TypeId,
};
use pg_store::{EdgeRecord, NodeRecord};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Error, MapFields, Serialize, Sink, Value};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// Histogram of observed value data types for one property of one type,
/// slot-indexed by [`DataType::slot`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DtypeHist {
    counts: [u64; 6],
}

impl DtypeHist {
    /// Record one observed value's type.
    pub fn observe(&mut self, t: DataType) {
        self.counts[t.slot()] += 1;
    }

    /// Record `n` observations of one type at once (used when lifting a
    /// bare schema's declared data types back into accumulator form).
    pub fn observe_n(&mut self, t: DataType, n: u64) {
        self.counts[t.slot()] += n;
    }

    /// Total number of observed values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count for one data type.
    pub fn count(&self, t: DataType) -> u64 {
        self.counts[t.slot()]
    }

    /// Full-scan inference: the lattice join over every observed value's
    /// type (`None` if nothing was observed).
    pub fn full_join(&self) -> Option<DataType> {
        join_present(&self.counts)
    }

    /// Draw a without-replacement sample of value types of the requested
    /// size (capped at the total) and return the join over the sample.
    pub fn sample_join(&self, sample_size: usize, rng: &mut ChaCha8Rng) -> Option<DataType> {
        join_present(&self.draw(sample_size, rng))
    }

    /// The paper's sampling-error metric (§5, "Evaluation metrics"):
    /// `error(p) = (1/|S_p|) Σ_{v∈S_p} 1(f(v) ≠ f(D_p))` — the fraction
    /// of sampled values whose individual type disagrees with the
    /// full-scan inference. Returns `None` when no values exist.
    pub fn sampling_error(&self, sample_size: usize, rng: &mut ChaCha8Rng) -> Option<f64> {
        let full = self.full_join()?;
        let sample = self.draw(sample_size, rng);
        let drawn: u64 = sample.iter().sum();
        if drawn == 0 {
            return None;
        }
        let disagree = drawn - sample[full.slot()];
        Some(disagree as f64 / drawn as f64)
    }

    /// Without-replacement draw from the histogram (multivariate
    /// hypergeometric), returned as per-type counts.
    fn draw(&self, sample_size: usize, rng: &mut ChaCha8Rng) -> [u64; 6] {
        let mut remaining = self.counts;
        let mut remaining_total = self.total();
        let mut out = [0u64; 6];
        let want = (sample_size as u64).min(remaining_total);
        for _ in 0..want {
            let mut pick = rng.gen_range(0..remaining_total);
            for (i, r) in remaining.iter_mut().enumerate() {
                if pick < *r {
                    *r -= 1;
                    out[i] += 1;
                    break;
                }
                pick -= *r;
            }
            remaining_total -= 1;
        }
        out
    }

    /// Merge another histogram (incremental batches). Pure integer
    /// addition per slot — commutative and associative, so any merge
    /// order (batch arrival, shard order, reduction tree shape) yields
    /// the same histogram. There is deliberately no floating-point
    /// accumulation anywhere in the per-type statistics: fractions like
    /// presence rates are derived at read time, never accumulated.
    pub fn merge(&mut self, other: &DtypeHist) {
        for i in 0..6 {
            self.counts[i] += other.counts[i];
        }
    }
}

/// Lattice join over the data types with a non-zero slot.
fn join_present(counts: &[u64; 6]) -> Option<DataType> {
    DataType::join_all(DataType::ALL.into_iter().filter(|t| counts[t.slot()] > 0))
}

/// Resolved sketch parameters for one accumulator (streaming mode).
/// Derived once from [`StreamConfig`] + the pipeline seed, then carried
/// inside every sketched accumulator so checkpoints and shard states
/// are self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchParams {
    /// KMV sketch size for distinct counters.
    pub distinct_k: usize,
    /// Bottom-k value-sample size per property.
    pub sample_k: usize,
    /// Sketch hash seed (pipeline seed ⊕ [`SKETCH_SALT`]).
    pub seed: u64,
}

impl SketchParams {
    /// Resolve from the config's stream knobs and the pipeline seed.
    pub fn resolve(stream: &StreamConfig, seed: u64) -> SketchParams {
        SketchParams {
            distinct_k: stream.distinct_k,
            sample_k: stream.sample_k,
            seed: seed ^ SKETCH_SALT,
        }
    }
}

/// An instance's property map.
pub type Props = PropMap;
/// The per-type accumulators of one kind, keyed by type id.
pub type Accums<K> = HashMap<TypeId, TypeAccum<K>>;

/// The two element kinds of a property graph, as far as discovery
/// state cares: implemented by [`Node`] and [`Edge`]. Everything the
/// kinds share is written once against this trait; what is left here is
/// what really differs — the id type, the schema type, where the state
/// keeps them, and the endpoint statistics only edges have (the
/// defaulted hooks, which [`Node`] leaves as no-ops).
pub trait Kind: Sized + Clone + Debug + 'static {
    /// Instance id.
    type Id: Copy + Ord + Hash + Debug + Serialize + Deserialize;
    /// What one instance contributes to the endpoint list.
    type Pair: Copy + Ord + Debug;
    /// Sketched counterpart of the endpoint list.
    type EndSketch: Clone + Debug + Serialize + Deserialize;
    /// The schema type instances of this kind are typed by.
    type Type: SchemaType;
    /// Seed salts of the member-id sketch and the value samples.
    const MEMBER_SALT: u64;
    /// See [`Kind::MEMBER_SALT`].
    const SAMPLE_SALT: u64;

    /// The instance's id.
    fn id(&self) -> Self::Id;
    /// An id as the `u64` the sketches hash.
    fn id_bits(id: Self::Id) -> u64;
    /// The instance's properties.
    fn props(&self) -> &Props;
    /// The instance's endpoint pair, if the kind has endpoints.
    fn ends(&self) -> Option<Self::Pair>;

    /// This kind's types and accumulators within a state.
    fn view(state: &DiscoveryState) -> (&[Self::Type], &Accums<Self>);
    /// Mutable [`Kind::view`].
    fn split(state: &mut DiscoveryState) -> (&mut Vec<Self::Type>, &mut Accums<Self>);
    /// Append a type under a fresh id.
    fn push(schema: &mut SchemaGraph, t: Self::Type) -> TypeId;

    /// Empty endpoint sketch.
    fn end_sketch(params: SketchParams) -> Self::EndSketch;
    /// Fold one endpoint pair into the sketch.
    fn observe_ends(_sketch: &mut Self::EndSketch, _pair: Self::Pair) {}
    /// Merge endpoint sketches (order-insensitive).
    fn merge_ends(_sketch: &mut Self::EndSketch, _other: &Self::EndSketch) {}
    /// The `(k, seed)` of every sketch inside the endpoint sketch.
    fn end_shapes(_sketch: &Self::EndSketch) -> Vec<(usize, u64)> {
        Vec::new()
    }
    /// Bytes the endpoint sketch retains.
    fn end_sketch_bytes(_sketch: &Self::EndSketch) -> usize {
        0
    }
    /// Write the wire fields that sit between an accumulator's
    /// `members` and `sketch`.
    fn ends_to_wire<S: Sink + ?Sized>(_: &[Self::Pair], _: Option<Cardinality>, _sink: &mut S) {}
    /// Read those fields back.
    fn ends_from_wire(
        _obj: &[(String, Value)],
    ) -> Result<(Vec<Self::Pair>, Option<Cardinality>), Error> {
        Ok((Vec::new(), None))
    }
}

/// The endpoint pair of a kind without endpoints. Uninhabited, so a
/// node accumulator's endpoint list is empty by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NoEndpoint {}

/// The endpoint sketch of a kind without endpoints: a map with no
/// fields, so a node sketch inlines nothing of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoEndpoints {}

impl Kind for Node {
    type Id = NodeId;
    type Pair = NoEndpoint;
    type EndSketch = NoEndpoints;
    type Type = NodeType;
    const MEMBER_SALT: u64 = 0x01;
    const SAMPLE_SALT: u64 = 0x02;

    fn id(&self) -> NodeId {
        self.id
    }
    fn id_bits(id: NodeId) -> u64 {
        id.0
    }
    fn props(&self) -> &Props {
        &self.props
    }
    fn ends(&self) -> Option<NoEndpoint> {
        None
    }
    fn view(state: &DiscoveryState) -> (&[NodeType], &Accums<Node>) {
        (&state.schema.node_types, &state.node_accums)
    }
    fn split(state: &mut DiscoveryState) -> (&mut Vec<NodeType>, &mut Accums<Node>) {
        (&mut state.schema.node_types, &mut state.node_accums)
    }
    fn push(schema: &mut SchemaGraph, t: NodeType) -> TypeId {
        schema.push_node_type(t)
    }
    fn end_sketch(_: SketchParams) -> NoEndpoints {
        NoEndpoints {}
    }
}

impl Kind for Edge {
    type Id = EdgeId;
    type Pair = (NodeId, NodeId);
    type EndSketch = EndpointSketch;
    type Type = EdgeType;
    const MEMBER_SALT: u64 = 0x11;
    const SAMPLE_SALT: u64 = 0x15;

    fn id(&self) -> EdgeId {
        self.id
    }
    fn id_bits(id: EdgeId) -> u64 {
        id.0
    }
    fn props(&self) -> &Props {
        &self.props
    }
    fn ends(&self) -> Option<(NodeId, NodeId)> {
        Some((self.src, self.tgt))
    }
    fn view(state: &DiscoveryState) -> (&[EdgeType], &Accums<Edge>) {
        (&state.schema.edge_types, &state.edge_accums)
    }
    fn split(state: &mut DiscoveryState) -> (&mut Vec<EdgeType>, &mut Accums<Edge>) {
        (&mut state.schema.edge_types, &mut state.edge_accums)
    }
    fn push(schema: &mut SchemaGraph, t: EdgeType) -> TypeId {
        schema.push_edge_type(t)
    }
    fn end_sketch(params: SketchParams) -> EndpointSketch {
        EndpointSketch {
            pairs: DistinctSketch::new(params.distinct_k, params.seed ^ 0x12),
            srcs: DistinctSketch::new(params.distinct_k, params.seed ^ 0x13),
            tgts: DistinctSketch::new(params.distinct_k, params.seed ^ 0x14),
        }
    }
    fn observe_ends(sketch: &mut EndpointSketch, (src, tgt): (NodeId, NodeId)) {
        sketch
            .pairs
            .insert_hash(hash_pair(sketch.pairs.seed(), src.0, tgt.0));
        sketch.srcs.insert(src.0);
        sketch.tgts.insert(tgt.0);
    }
    fn merge_ends(sketch: &mut EndpointSketch, other: &EndpointSketch) {
        sketch.pairs.merge(&other.pairs);
        sketch.srcs.merge(&other.srcs);
        sketch.tgts.merge(&other.tgts);
    }
    fn end_shapes(sketch: &EndpointSketch) -> Vec<(usize, u64)> {
        vec![
            sketch.pairs.shape(),
            sketch.srcs.shape(),
            sketch.tgts.shape(),
        ]
    }
    fn end_sketch_bytes(sketch: &EndpointSketch) -> usize {
        sketch.pairs.retained_bytes() + sketch.srcs.retained_bytes() + sketch.tgts.retained_bytes()
    }
    fn ends_to_wire<S: Sink + ?Sized>(
        endpoints: &[(NodeId, NodeId)],
        card_floor: Option<Cardinality>,
        sink: &mut S,
    ) {
        wire(sink, "endpoints", endpoints);
        wire(sink, "card_floor", &card_floor);
    }
    fn ends_from_wire(
        obj: &[(String, Value)],
    ) -> Result<(Vec<(NodeId, NodeId)>, Option<Cardinality>), Error> {
        Ok((unwire(obj, "endpoints")?, unwire(obj, "card_floor")?))
    }
}

/// A loaded record of either kind, as featurization, clustering and the
/// session read it: the graph element plus one label set per *role* —
/// its own, and for an edge its source's and target's (§4.1: `f_v` has
/// one label block, `f_e` three). Implemented by [`NodeRecord`] and
/// [`EdgeRecord`].
pub trait Record: Clone {
    /// Nodes or edges.
    type Kind: Kind;
    /// Which property-key universe and LSH parameter family the record
    /// reads.
    const ELEMENT: ElementKind;
    /// Label sets a record carries: 1 for a node, 3 for an edge.
    const ROLES: usize;
    /// The graph element inside the record.
    fn instance(&self) -> &Self::Kind;
    /// The label set of role `r < ROLES`: own, source, target.
    fn role(&self, r: usize) -> &LabelSet;
}

impl Record for NodeRecord {
    type Kind = Node;
    const ELEMENT: ElementKind = ElementKind::Node;
    const ROLES: usize = 1;
    fn instance(&self) -> &Node {
        self
    }
    fn role(&self, _: usize) -> &LabelSet {
        &self.labels
    }
}

impl Record for EdgeRecord {
    type Kind = Edge;
    const ELEMENT: ElementKind = ElementKind::Edge;
    const ROLES: usize = 3;
    fn instance(&self) -> &Edge {
        &self.edge
    }
    fn role(&self, r: usize) -> &LabelSet {
        [&self.edge.labels, &self.src_labels, &self.tgt_labels][r]
    }
}

/// The sketched form of an edge accumulator's endpoint list: three KMV
/// distinct counters — distinct `(src, tgt)` pairs, distinct sources,
/// distinct targets — which are exactly the per-endpoint distinct
/// counts that decide the `1:1 / 1:N / N:M` cardinality class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointSketch {
    /// Distinct `(src, tgt)` endpoint pairs.
    pub pairs: DistinctSketch,
    /// Distinct source node ids.
    pub srcs: DistinctSketch,
    /// Distinct target node ids.
    pub tgts: DistinctSketch,
}

impl EndpointSketch {
    /// Cardinality bounds from the distinct counters, or `None` when no
    /// endpoint was ever observed.
    ///
    /// `max_out > 1` iff distinct pairs exceed distinct sources beyond
    /// the sketches' error slack (a source with two distinct targets
    /// contributes two pairs but one source), and the magnitude is the
    /// mean fan-out `pairs / srcs` — an estimate of the fan-out class,
    /// not the exact maximum an endpoint scan would produce. Symmetric
    /// for `max_in`. Deterministic: a pure function of the merged
    /// sketch state, so shard order cannot change the classification.
    pub fn cardinality_estimate(&self) -> Option<Cardinality> {
        if self.pairs.is_empty() {
            return None;
        }
        let pairs = self.pairs.estimate().max(1);
        let srcs = self.srcs.estimate().max(1);
        let tgts = self.tgts.estimate().max(1);
        let out_slack = 1.0 + self.pairs.error_bound() + self.srcs.error_bound();
        let in_slack = 1.0 + self.pairs.error_bound() + self.tgts.error_bound();
        Some(Cardinality {
            max_out: ratio_bound(pairs, srcs, out_slack),
            max_in: ratio_bound(pairs, tgts, in_slack),
        })
    }
}

/// `pairs / ends` rounded, floored at 2 when the pair count exceeds the
/// endpoint count beyond the error slack, else 1.
fn ratio_bound(pairs: u64, ends: u64, slack: f64) -> u64 {
    if (pairs as f64) <= (ends as f64) * slack {
        1
    } else {
        (((pairs as f64) / (ends as f64)).round() as u64).max(2)
    }
}

fn new_sample<K: Kind>(params: SketchParams) -> ValueSample {
    ValueSample::new(params.sample_k, params.seed ^ K::SAMPLE_SALT)
}

/// Sketched membership of one type: member ids collapse into a KMV
/// distinct counter, endpoints into the kind's endpoint sketch, and
/// property values into bottom-k samples, so the size is independent of
/// how many instances streamed through.
#[derive(Debug, Clone)]
pub struct Sketch<K: Kind> {
    /// The parameters every sketch below was built with.
    pub params: SketchParams,
    /// Distinct member ids.
    pub members: DistinctSketch,
    /// Endpoint statistics (edges only).
    pub ends: K::EndSketch,
    /// Per property key: sampled distinct values with their types.
    pub samples: HashMap<Symbol, ValueSample>,
}

impl<K: Kind> Sketch<K> {
    /// Empty sketch set.
    pub fn new(params: SketchParams) -> Sketch<K> {
        Sketch {
            params,
            members: DistinctSketch::new(params.distinct_k, params.seed ^ K::MEMBER_SALT),
            ends: K::end_sketch(params),
            samples: HashMap::new(),
        }
    }

    /// Fold property values into the per-key samples.
    pub fn observe_values(&mut self, props: &Props) {
        for (k, v) in props {
            self.samples
                .entry(k.clone())
                .or_insert_with(|| new_sample::<K>(self.params))
                .observe(k, v);
        }
    }

    /// Whether every sketch inside has the size and seed [`Sketch::new`]
    /// gives `params` — only then can it merge with a partner of equal
    /// params. A decoded sketch can claim one set and hold another.
    pub(crate) fn well_formed(&self) -> bool {
        let fresh = Sketch::<K>::new(self.params);
        let sample = new_sample::<K>(self.params).shape();
        self.members.shape() == fresh.members.shape()
            && K::end_shapes(&self.ends) == K::end_shapes(&fresh.ends)
            && self.samples.values().all(|s| s.shape() == sample)
    }

    /// Absorb exact member-id and endpoint lists.
    fn absorb(&mut self, members: &[K::Id], endpoints: &[K::Pair]) {
        for &m in members {
            self.members.insert(K::id_bits(m));
        }
        for &pair in endpoints {
            K::observe_ends(&mut self.ends, pair);
        }
    }

    /// Merge another sketch set (order-insensitive).
    fn merge(&mut self, other: &Sketch<K>) {
        self.members.merge(&other.members);
        K::merge_ends(&mut self.ends, &other.ends);
        for (k, s) in &other.samples {
            match self.samples.get_mut(k) {
                Some(mine) => mine.merge(s),
                None => {
                    self.samples.insert(k.clone(), s.clone());
                }
            }
        }
    }

    fn retained_bytes(&self) -> usize {
        self.members.retained_bytes()
            + K::end_sketch_bytes(&self.ends)
            + self
                .samples
                .values()
                .map(|s| s.retained_bytes() + 64)
                .sum::<usize>()
    }
}

/// Which instances a type has absorbed: exactly, or as sketches. The
/// two states are exclusive — converting to sketches consumes the lists.
#[derive(Debug, Clone)]
pub enum Membership<K: Kind> {
    /// Member ids and endpoint pairs, one entry per instance. Grows
    /// O(instances): the dominant memory cost of a long-lived exact
    /// session.
    Exact {
        /// Member ids (evaluation + instance queries).
        members: Vec<K::Id>,
        /// Endpoint pairs for cardinality inference.
        endpoints: Vec<K::Pair>,
    },
    /// Fixed-size summaries (streaming mode).
    Sketched(Sketch<K>),
}

/// Per-type statistics accumulator, for node types ([`NodeTypeAccum`])
/// and edge types ([`EdgeTypeAccum`]).
#[derive(Debug, Clone)]
pub struct TypeAccum<K: Kind> {
    /// Number of instances assigned to the type.
    pub count: u64,
    /// Per property key: how many instances carry it.
    pub key_present: HashMap<Symbol, u64>,
    /// Per property key: histogram of observed value types.
    pub dtype_hist: HashMap<Symbol, DtypeHist>,
    /// Member ids and endpoints, exact or sketched.
    pub membership: Membership<K>,
    /// Edge types: cardinality floor folded in from a merged foreign
    /// schema whose endpoint pairs are unavailable (e.g. a shard schema
    /// posted to `/sessions/{id}/merge`). Cardinality inference takes
    /// the component-wise max of this floor and the bounds observed from
    /// the endpoints. `None` for locally observed edges, and for nodes.
    pub card_floor: Option<Cardinality>,
}

/// Accumulator of a node type.
pub type NodeTypeAccum = TypeAccum<Node>;
/// Accumulator of an edge type.
pub type EdgeTypeAccum = TypeAccum<Edge>;

impl<K: Kind> Default for TypeAccum<K> {
    fn default() -> Self {
        TypeAccum {
            count: 0,
            key_present: HashMap::new(),
            dtype_hist: HashMap::new(),
            membership: Membership::Exact {
                members: Vec::new(),
                endpoints: Vec::new(),
            },
            card_floor: None,
        }
    }
}

impl<K: Kind> TypeAccum<K> {
    /// Fold one instance in. Exact membership appends its id and
    /// endpoints; sketched membership folds them, and the property
    /// values, into the fixed-size sketches instead.
    pub fn observe(&mut self, instance: &K) {
        self.count += 1;
        match &mut self.membership {
            Membership::Exact { members, endpoints } => {
                members.push(instance.id());
                endpoints.extend(instance.ends());
            }
            Membership::Sketched(sk) => {
                sk.absorb(&[instance.id()], instance.ends().as_slice());
                sk.observe_values(instance.props());
            }
        }
        for (k, v) in instance.props() {
            *self.key_present.entry(k.clone()).or_insert(0) += 1;
            self.dtype_hist
                .entry(k.clone())
                .or_default()
                .observe(DataType::of(v));
        }
    }

    /// The exact member ids (empty once sketched).
    pub fn members(&self) -> &[K::Id] {
        match &self.membership {
            Membership::Exact { members, .. } => members,
            Membership::Sketched(_) => &[],
        }
    }

    /// The exact endpoint pairs (empty once sketched, and for nodes).
    pub fn endpoints(&self) -> &[K::Pair] {
        match &self.membership {
            Membership::Exact { endpoints, .. } => endpoints,
            Membership::Sketched(_) => &[],
        }
    }

    /// The sketches, once sketched.
    pub fn sketch(&self) -> Option<&Sketch<K>> {
        match &self.membership {
            Membership::Sketched(sk) => Some(sk),
            Membership::Exact { .. } => None,
        }
    }

    /// Convert exact membership to sketched form — fold the lists into
    /// fresh sketches and drop them — and hand back the sketches. Keeps
    /// the existing ones when already sketched.
    pub fn ensure_sketched(&mut self, params: SketchParams) -> &mut Sketch<K> {
        if let Membership::Exact { members, endpoints } = &self.membership {
            let mut sk = Sketch::new(params);
            sk.absorb(members, endpoints);
            self.membership = Membership::Sketched(sk);
        }
        let Membership::Sketched(sk) = &mut self.membership else {
            unreachable!("converted above")
        };
        sk
    }

    /// Merge another accumulator (cluster merge / batch merge / shard
    /// merge). Counts, presence maps, histograms and the floor always
    /// merge exactly. Membership follows one table: lists concatenate,
    /// sketches merge, and a list meeting a sketch is absorbed into it —
    /// so a mixed merge yields sketched form (the bounded side wins) and
    /// the same sketches whichever operand held the list.
    pub fn merge(&mut self, other: &TypeAccum<K>) {
        self.count += other.count;
        self.card_floor = match (self.card_floor, other.card_floor) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
        for (k, c) in &other.key_present {
            *self.key_present.entry(k.clone()).or_insert(0) += c;
        }
        for (k, h) in &other.dtype_hist {
            self.dtype_hist.entry(k.clone()).or_default().merge(h);
        }
        match (&mut self.membership, &other.membership) {
            (_, Membership::Sketched(theirs)) => self.ensure_sketched(theirs.params).merge(theirs),
            (Membership::Sketched(mine), _) => mine.absorb(other.members(), other.endpoints()),
            (Membership::Exact { members, endpoints }, _) => {
                members.extend_from_slice(other.members());
                endpoints.extend_from_slice(other.endpoints());
            }
        }
    }

    /// Sort the exact lists (canonical form of a merged state).
    pub fn sort_exact(&mut self) {
        if let Membership::Exact { members, endpoints } = &mut self.membership {
            members.sort_unstable();
            endpoints.sort_unstable();
        }
    }

    /// Estimated heap bytes this accumulator retains (memory gauges).
    pub fn retained_bytes(&self) -> usize {
        let maps = (self.key_present.len() + self.dtype_hist.len()) * 96;
        maps + match &self.membership {
            Membership::Exact { members, endpoints } => {
                members.capacity() * std::mem::size_of::<K::Id>()
                    + endpoints.capacity() * std::mem::size_of::<K::Pair>()
            }
            Membership::Sketched(sk) => sk.retained_bytes(),
        }
    }
}

fn wire<S: Sink + ?Sized>(sink: &mut S, name: &str, value: &(impl Serialize + ?Sized)) {
    sink.key(name);
    value.serialize(sink);
}

fn unwire<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
    T::from_value(serde::field(obj, name)).map_err(|e| Error::context(name, e))
}

fn wire_object(value: &Value) -> Result<&[(String, Value)], Error> {
    value
        .as_object()
        .ok_or_else(|| Error::custom("expected object"))
}

// The v1 wire form predates the two-state membership: `members` (and an
// edge's `endpoints`) are always written, empty beside a non-null
// `sketch`, and an edge sketch carries its endpoint counters inline
// between `members` and `samples`. Checkpoints and shard states are
// recovery data, so both directions keep that shape field for field.

impl<K: Kind> Serialize for Sketch<K> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_map();
        wire(sink, "params", &self.params);
        wire(sink, "members", &self.members);
        self.ends
            .serialize(&mut MapFields::new(sink, "an endpoint sketch"));
        wire(sink, "samples", &self.samples);
        sink.end_map();
    }
}

impl<K: Kind> Deserialize for Sketch<K> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = wire_object(value)?;
        Ok(Sketch {
            params: unwire(obj, "params")?,
            members: unwire(obj, "members")?,
            ends: K::EndSketch::from_value(value)?,
            samples: unwire(obj, "samples")?,
        })
    }
}

impl<K: Kind> Serialize for TypeAccum<K> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_map();
        wire(sink, "count", &self.count);
        wire(sink, "key_present", &self.key_present);
        wire(sink, "dtype_hist", &self.dtype_hist);
        wire(sink, "members", self.members());
        K::ends_to_wire(self.endpoints(), self.card_floor, sink);
        wire(sink, "sketch", &self.sketch());
        sink.end_map();
    }
}

impl<K: Kind> Deserialize for TypeAccum<K> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = wire_object(value)?;
        let members: Vec<K::Id> = unwire(obj, "members")?;
        let (endpoints, card_floor) = K::ends_from_wire(obj)?;
        let membership = match unwire::<Option<Sketch<K>>>(obj, "sketch")? {
            // No v1 writer emits lists beside a sketch, but the format
            // can say it; the merge table says what it means.
            Some(mut sk) => {
                sk.absorb(&members, &endpoints);
                Membership::Sketched(sk)
            }
            None => Membership::Exact { members, endpoints },
        };
        Ok(TypeAccum {
            count: unwire(obj, "count")?,
            key_present: unwire(obj, "key_present")?,
            dtype_hist: unwire(obj, "dtype_hist")?,
            membership,
            card_floor,
        })
    }
}

/// The running discovery state: schema graph + per-type accumulators.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryState {
    /// The schema inferred so far.
    pub schema: SchemaGraph,
    /// Node accumulators, keyed by node type id.
    pub node_accums: HashMap<TypeId, NodeTypeAccum>,
    /// Edge accumulators, keyed by edge type id.
    pub edge_accums: HashMap<TypeId, EdgeTypeAccum>,
}

impl DiscoveryState {
    /// Fresh, empty state (`S_G ← ∅`, Algorithm 1 line 1).
    pub fn new() -> Self {
        DiscoveryState::default()
    }

    /// Estimated heap bytes retained by all accumulators. Exposed as a
    /// `/metrics` gauge so operators can watch memory pressure: grows
    /// O(records) in batch mode, stays bounded in streaming mode.
    pub fn estimated_accum_bytes(&self) -> usize {
        self.node_accums
            .values()
            .map(|a| a.retained_bytes())
            .chain(self.edge_accums.values().map(|a| a.retained_bytes()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{LabelSet, Node};
    use rand::SeedableRng;

    #[test]
    fn hist_full_join() {
        let mut h = DtypeHist::default();
        assert_eq!(h.full_join(), None);
        h.observe(DataType::Int);
        assert_eq!(h.full_join(), Some(DataType::Int));
        h.observe(DataType::Float);
        assert_eq!(h.full_join(), Some(DataType::Float));
        h.observe(DataType::Str);
        assert_eq!(h.full_join(), Some(DataType::Str));
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn hist_sampling_error_pure_property_is_zero() {
        let mut h = DtypeHist::default();
        for _ in 0..1000 {
            h.observe(DataType::Int);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(h.sampling_error(100, &mut rng), Some(0.0));
    }

    #[test]
    fn hist_sampling_error_mixed_property() {
        // 90 % Int + 10 % Str → full join = Str; an Int draw disagrees,
        // so the expected error is ≈ 0.9.
        let mut h = DtypeHist::default();
        for _ in 0..900 {
            h.observe(DataType::Int);
        }
        for _ in 0..100 {
            h.observe(DataType::Str);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let e = h.sampling_error(200, &mut rng).unwrap();
        assert!((e - 0.9).abs() < 0.1, "error {e} should be near 0.9");
    }

    #[test]
    fn hist_draw_is_capped_at_total() {
        let mut h = DtypeHist::default();
        h.observe(DataType::Bool);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Sampling more than exists must not loop or overcount.
        assert_eq!(h.sample_join(10, &mut rng), Some(DataType::Bool));
    }

    /// Audit regression (distributed merge): `DtypeHist::merge` must be
    /// order-insensitive. The histogram stores pure integer counts, so
    /// any permutation and any reduction-tree shape must agree bit for
    /// bit — no float accumulation is allowed to sneak in.
    #[test]
    fn dtype_hist_merge_is_order_insensitive() {
        let parts: Vec<DtypeHist> = (0..6u64)
            .map(|i| {
                let mut h = DtypeHist::default();
                for (j, t) in DataType::ALL.into_iter().enumerate() {
                    for _ in 0..(i * 7 + j as u64 * 3 + 1) {
                        h.observe(t);
                    }
                }
                h
            })
            .collect();
        // Left fold in input order.
        let mut forward = DtypeHist::default();
        for p in &parts {
            forward.merge(p);
        }
        // Left fold in reverse order.
        let mut backward = DtypeHist::default();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        // Balanced reduction tree: (0+1) + ((2+3) + (4+5)).
        let pair = |a: &DtypeHist, b: &DtypeHist| {
            let mut m = a.clone();
            m.merge(b);
            m
        };
        let tree = pair(
            &pair(&parts[0], &parts[1]),
            &pair(&pair(&parts[2], &parts[3]), &pair(&parts[4], &parts[5])),
        );
        assert_eq!(forward, backward);
        assert_eq!(forward, tree);
        assert_eq!(forward.total(), parts.iter().map(DtypeHist::total).sum());
    }

    /// Audit regression: the edge accumulator's cardinality floor is an
    /// integer max-merge, so shard order cannot change it.
    #[test]
    fn card_floor_merge_is_order_insensitive() {
        let floors = [
            Some(Cardinality {
                max_out: 1,
                max_in: 5,
            }),
            None,
            Some(Cardinality {
                max_out: 4,
                max_in: 2,
            }),
            Some(Cardinality {
                max_out: 2,
                max_in: 2,
            }),
        ];
        let fold = |order: &[usize]| {
            let mut acc = EdgeTypeAccum::default();
            for &i in order {
                let other = EdgeTypeAccum {
                    card_floor: floors[i],
                    ..EdgeTypeAccum::default()
                };
                acc.merge(&other);
            }
            acc.card_floor
        };
        let expect = Some(Cardinality {
            max_out: 4,
            max_in: 5,
        });
        assert_eq!(fold(&[0, 1, 2, 3]), expect);
        assert_eq!(fold(&[3, 2, 1, 0]), expect);
        assert_eq!(fold(&[1, 3, 0, 2]), expect);
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut a = DtypeHist::default();
        a.observe_n(DataType::Date, 17);
        let mut b = DtypeHist::default();
        for _ in 0..17 {
            b.observe(DataType::Date);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn node_accum_counts_presence() {
        let mut acc = NodeTypeAccum::default();
        acc.observe(&Node::new(1, LabelSet::single("P")).with_prop("a", 1i64));
        acc.observe(
            &Node::new(2, LabelSet::single("P"))
                .with_prop("a", 2i64)
                .with_prop("b", "x"),
        );
        assert_eq!(acc.count, 2);
        assert_eq!(acc.key_present[&pg_model::sym("a")], 2);
        assert_eq!(acc.key_present[&pg_model::sym("b")], 1);
        assert_eq!(acc.members().len(), 2);

        let mut other = NodeTypeAccum::default();
        other.observe(&Node::new(3, LabelSet::single("P")).with_prop("b", "y"));
        acc.merge(&other);
        assert_eq!(acc.count, 3);
        assert_eq!(acc.key_present[&pg_model::sym("b")], 2);
        assert_eq!(
            acc.dtype_hist[&pg_model::sym("a")].full_join(),
            Some(DataType::Int)
        );
    }
}
