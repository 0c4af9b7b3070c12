//! The provenance graph and the operations from Appendix B.2.
//!
//! # The `(host, tuple)` index
//!
//! Every lookup the graph construction algorithm makes asks about one tuple
//! on one node ("the open `exist` of τ on i", "the `send` of ±τ from i to
//! j"), so the graph keeps a secondary index from `(host(v), tuple(v))` to
//! the vertices about that tuple and answers those lookups from one bucket
//! instead of scanning `V`.
//!
//! * **What is keyed.**  Identity fields only: the hosting node and the
//!   tuple.  The interval end (`until`) and the colour are the two things
//!   that change after a vertex is inserted, so they are never part of a
//!   key — `close_interval`, `set_color` and `force_color` leave the index
//!   untouched, and lookups test them on the vertex itself.
//! * **Compact form.**  An entry is two words: a 64-bit hash of
//!   `(host, tuple)` and the first 64 bits of the `VertexId`.  A lookup walks
//!   the entries of one hash in ascending order, resolves each id prefix to
//!   the vertices carrying it (a range of the id-ordered vertex map), and
//!   keeps those whose host and tuple really are the ones asked for.  A hash
//!   or prefix collision therefore only adds a candidate that the comparison
//!   rejects; it can never change a result.  Cost: 16 bytes per vertex in a
//!   `BTreeSet` (≈ 20–25 bytes resident with B-tree slack), against a few
//!   hundred bytes for the vertex, its tuple and its edges.
//! * **Order.**  Buckets are walked in ascending `VertexId` order and every
//!   lookup returns the first (or, where stated, the latest) match, which is
//!   exactly what a scan of the id-ordered vertex map restricted to the same
//!   `(host, tuple)` returns.
//!
//! `upsert`, `union_in_place` and `project` are the only ways a vertex
//! enters a graph, and each adds its index entry.  The pattern lookups of
//! negative provenance (`*_matching*`, `present_tuples_at`) take wildcard
//! patterns, which have no single bucket; they scan, once per absence claim.

use crate::vertex::{Color, Timestamp, Vertex, VertexId, VertexKind};
use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use snp_datalog::{Polarity, Tuple};
use std::collections::btree_map::Entry;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::BuildHasher;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

/// Table 1 of the paper: which edge types may appear in the graph.
///
/// Returns `true` when an edge from a vertex of kind `from` to a vertex of
/// kind `to` is permitted.
pub fn edge_allowed(from: &str, to: &str) -> bool {
    matches!(
        (from, to),
        ("insert", "appear")
            | ("delete", "disappear")
            | ("appear", "exist")
            | ("appear", "send")
            | ("appear", "derive")
            | ("disappear", "exist")
            | ("disappear", "send")
            | ("disappear", "underive")
            | ("exist", "derive")
            | ("exist", "underive")
            | ("derive", "appear")
            | ("underive", "disappear")
            | ("send", "receive")
            | ("receive", "believe-appear")
            | ("receive", "believe-disappear")
            | ("believe-appear", "believe")
            | ("believe-appear", "derive")
            | ("believe-disappear", "believe")
            | ("believe-disappear", "underive")
            | ("believe", "derive")
            | ("believe", "underive")
            // §3.4 constraint extension: a causally-related replacement links
            // the appearance of the new tuple to the disappearance of the old.
            | ("disappear", "appear")
            | ("appear", "disappear")
            // §5.6 checkpoint-anchored replay: a verified checkpoint vouches
            // for pre-checkpoint state, standing in for its truncated
            // appearance provenance.
            | ("checkpoint", "exist")
            // Negative provenance: the dual edges of the `why_absent` /
            // `why_vanished` query class.  An absence is explained either by
            // the disappearance that ended the tuple's last existence
            // interval, or by the missing preconditions of every rule that
            // could have derived it; a missing precondition is in turn
            // explained by the precondition's own absence (possibly on the
            // would-be sender), or by the sender's `send` vertex when it
            // logged a send it never delivered (lying by omission).
            | ("disappear", "absence")
            | ("believe-disappear", "absence")
            | ("delete", "absence")
            | ("missing-precondition", "absence")
            | ("absence", "missing-precondition")
            | ("send", "missing-precondition")
    )
}

/// The provenance graph `G = (V, E)`.
#[derive(Clone, Debug, Default)]
pub struct ProvenanceGraph {
    vertices: BTreeMap<VertexId, Vertex>,
    /// Forward edges `(v1, v2)`: v1 is part of the provenance of v2.
    edges: BTreeSet<(VertexId, VertexId)>,
    /// Reverse adjacency for successor queries.
    reverse: BTreeSet<(VertexId, VertexId)>,
    /// `(bucket(host, tuple), id prefix)` for every vertex (module docs).
    index: BTreeSet<(u64, u64)>,
}

/// The index bucket of the vertices about `tuple` on `host`.  Keyed per
/// process: tuples come out of audited nodes' logs, and an unkeyed hash
/// would let a node craft tuples that pile into one bucket.  Results never
/// depend on the key, only on which vertices share a bucket.
fn bucket(host: NodeId, tuple: &Tuple) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new).hash_one((host, tuple))
}

/// All ids whose first 64 bits are `prefix`.
fn ids_with_prefix(prefix: u64) -> RangeInclusive<VertexId> {
    let (mut lo, mut hi) = ([0u8; 32], [0xffu8; 32]);
    lo[..8].copy_from_slice(&prefix.to_be_bytes());
    hi[..8].copy_from_slice(&prefix.to_be_bytes());
    VertexId(Digest(lo))..=VertexId(Digest(hi))
}

/// Appendix B.2's vertex merge: the dominant colour wins, and of two
/// interval ends a closed one beats an open one and the earlier beats the
/// later.
fn merge_vertex(existing: &mut Vertex, other: &Vertex) {
    existing.color = existing.color.dominant(other.color);
    if let (
        VertexKind::Exist { until: mine, .. } | VertexKind::Believe { until: mine, .. },
        VertexKind::Exist { until: theirs, .. } | VertexKind::Believe { until: theirs, .. },
    ) = (&mut existing.kind, &other.kind)
    {
        *mine = match (*mine, *theirs) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
    }
}

impl ProvenanceGraph {
    /// Create an empty graph.
    pub fn new() -> ProvenanceGraph {
        ProvenanceGraph::default()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Insert (or merge) a vertex.  If a vertex with the same identity is
    /// already present, its color is upgraded to the dominant one and an
    /// open interval may be narrowed (Appendix B.2's union semantics);
    /// otherwise the vertex is added as-is.  Returns its id.
    pub fn upsert(&mut self, vertex: Vertex) -> VertexId {
        let id = vertex.id();
        self.upsert_as(id, vertex);
        id
    }

    /// [`ProvenanceGraph::upsert`] for a caller that already computed
    /// `vertex.id()` and passes it as `id`, so the identity is hashed once.
    pub(crate) fn upsert_as(&mut self, id: VertexId, vertex: Vertex) {
        debug_assert_eq!(id, vertex.id(), "upsert_as: id is not the vertex's identity");
        match self.vertices.entry(id) {
            Entry::Occupied(existing) => merge_vertex(existing.into_mut(), &vertex),
            Entry::Vacant(slot) => {
                self.index
                    .insert((bucket(vertex.host(), vertex.kind.tuple()), id.0.to_u64()));
                slot.insert(vertex);
            }
        }
    }

    /// Set (upgrade) the color of a vertex.  Downgrades are ignored, matching
    /// the monotonic color transitions proven in Theorem 1.
    pub fn set_color(&mut self, id: VertexId, color: Color) {
        if let Some(vertex) = self.vertices.get_mut(&id) {
            vertex.color = vertex.color.dominant(color);
        }
    }

    /// Force a color even if it is a downgrade.  Only used when a repaired
    /// node is re-audited (§4.4 allows recoloring a repaired node black).
    pub fn force_color(&mut self, id: VertexId, color: Color) {
        if let Some(vertex) = self.vertices.get_mut(&id) {
            vertex.color = color;
        }
    }

    /// Close the interval of an `exist` / `believe` vertex.
    pub fn close_interval(&mut self, id: VertexId, end: Timestamp) {
        if let Some(vertex) = self.vertices.get_mut(&id) {
            match &mut vertex.kind {
                VertexKind::Exist { until, .. } | VertexKind::Believe { until, .. } if until.is_none() => {
                    *until = Some(end);
                }
                _ => {}
            }
        }
    }

    /// Add a directed edge.  Edges whose endpoint kinds violate Table 1 are
    /// rejected with an error in debug builds and ignored in release builds.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        if let (Some(vf), Some(vt)) = (self.vertices.get(&from), self.vertices.get(&to)) {
            debug_assert!(
                edge_allowed(vf.kind.kind_name(), vt.kind.kind_name()),
                "edge {} -> {} violates Table 1",
                vf.kind.kind_name(),
                vt.kind.kind_name()
            );
        }
        if from == to {
            return;
        }
        self.edges.insert((from, to));
        self.reverse.insert((to, from));
    }

    /// Fetch a vertex by id.
    pub fn vertex(&self, id: &VertexId) -> Option<&Vertex> {
        self.vertices.get(id)
    }

    /// Whether the graph contains a vertex with this identity.
    pub fn contains(&self, id: &VertexId) -> bool {
        self.vertices.contains_key(id)
    }

    /// Whether the graph contains the edge `(from, to)`.
    pub fn has_edge(&self, from: &VertexId, to: &VertexId) -> bool {
        self.edges.contains(&(*from, *to))
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = (&VertexId, &Vertex)> {
        self.vertices.iter()
    }

    /// Iterate over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &(VertexId, VertexId)> {
        self.edges.iter()
    }

    /// Direct predecessors of a vertex (its immediate provenance).
    pub fn predecessors(&self, id: &VertexId) -> Vec<VertexId> {
        self.reverse
            .range((*id, VertexId(snp_crypto::Digest::ZERO))..)
            .take_while(|(to, _)| to == id)
            .map(|(_, from)| *from)
            .collect()
    }

    /// Direct successors of a vertex (what it contributed to).
    pub fn successors(&self, id: &VertexId) -> Vec<VertexId> {
        self.edges
            .range((*id, VertexId(snp_crypto::Digest::ZERO))..)
            .take_while(|(from, _)| from == id)
            .map(|(_, to)| *to)
            .collect()
    }

    /// All vertices hosted on `node`.
    pub fn vertices_on(&self, node: NodeId) -> impl Iterator<Item = (&VertexId, &Vertex)> {
        self.vertices.iter().filter(move |(_, v)| v.host() == node)
    }

    /// All vertices of a given color.
    pub fn vertices_with_color(&self, color: Color) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|(_, v)| v.color == color)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Nodes that host at least one red vertex (Theorem 3: exactly the faulty
    /// nodes).
    pub fn faulty_nodes(&self) -> BTreeSet<NodeId> {
        self.vertices
            .values()
            .filter(|v| v.color == Color::Red)
            .map(|v| v.host())
            .collect()
    }

    /// Nodes that host at least one red *or yellow* vertex — the set a
    /// forensic investigator should examine (§4.3 completeness).
    pub fn suspect_nodes(&self) -> BTreeSet<NodeId> {
        self.vertices
            .values()
            .filter(|v| v.color != Color::Black)
            .map(|v| v.host())
            .collect()
    }

    // ----- lookups used by the graph construction algorithm ----------------

    /// The vertices about `tuple` hosted on `host`, in ascending id order.
    fn about<'a>(&'a self, host: NodeId, tuple: &'a Tuple) -> impl Iterator<Item = (VertexId, &'a Vertex)> + 'a {
        let bucket = bucket(host, tuple);
        self.index
            .range((bucket, 0)..=(bucket, u64::MAX))
            .flat_map(move |(_, prefix)| self.vertices.range(ids_with_prefix(*prefix)))
            .filter(move |(_, v)| v.host() == host && v.kind.tuple() == tuple)
            .map(|(id, v)| (*id, v))
    }

    /// The first vertex (in id order) about `tuple` on `host` whose kind
    /// satisfies `f`.
    fn first_about(&self, host: NodeId, tuple: &Tuple, f: impl Fn(&VertexKind) -> bool) -> Option<VertexId> {
        self.about(host, tuple).find(|(_, v)| f(&v.kind)).map(|(id, _)| id)
    }

    /// The open `exist` vertex for a tuple on a node, if any.
    pub fn open_exist(&self, node: NodeId, tuple: &Tuple) -> Option<VertexId> {
        self.first_about(node, tuple, |k| matches!(k, VertexKind::Exist { until: None, .. }))
    }

    /// The open `believe` vertex for a tuple on a node (from any peer).
    pub fn open_believe(&self, node: NodeId, tuple: &Tuple) -> Option<VertexId> {
        self.first_about(node, tuple, |k| matches!(k, VertexKind::Believe { until: None, .. }))
    }

    /// The `appear` vertex for a tuple on a node at exactly `time`.
    pub fn appear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexId> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::Appear { time: t, .. } if *t == time),
        )
    }

    /// The `disappear` vertex for a tuple on a node at exactly `time`.
    pub fn disappear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexId> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::Disappear { time: t, .. } if *t == time),
        )
    }

    /// The `believe-appear` vertex for a tuple on a node at exactly `time`.
    pub fn believe_appear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexId> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::BelieveAppear { time: t, .. } if *t == time),
        )
    }

    /// The `believe-disappear` vertex for a tuple on a node at exactly `time`.
    pub fn believe_disappear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexId> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::BelieveDisappear { time: t, .. } if *t == time),
        )
    }

    /// The `exist` vertex (open or closed) covering a tuple at a given time.
    pub fn exist_covering(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexId> {
        self.first_about(node, tuple, |k| match k {
            VertexKind::Exist { from, until, .. } => *from <= time && until.map(|u| time <= u).unwrap_or(true),
            _ => false,
        })
    }

    /// Find a `send` vertex for a specific notification (any timestamp).
    pub fn find_send(
        &self,
        node: NodeId,
        peer: NodeId,
        tuple: &Tuple,
        polarity: Polarity,
        time: Option<Timestamp>,
    ) -> Option<VertexId> {
        self.first_about(node, tuple, |k| match k {
            VertexKind::Send {
                peer: p,
                delta,
                time: t,
                ..
            } => *p == peer && delta.polarity == polarity && time.map(|x| x == *t).unwrap_or(true),
            _ => false,
        })
    }

    /// Find a `receive` vertex for a specific notification (any timestamp).
    pub fn find_receive(&self, node: NodeId, peer: NodeId, tuple: &Tuple, polarity: Polarity) -> Option<VertexId> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::Receive { peer: p, delta, .. } if *p == peer && delta.polarity == polarity),
        )
    }

    // ----- pattern lookups used by negative provenance ----------------------

    /// Whether an interval `[from, until]` covers the instant of interest:
    /// `at = None` asks about "now", which only open intervals cover.
    fn interval_covers(from: Timestamp, until: Option<Timestamp>, at: Option<Timestamp>) -> bool {
        match at {
            None => until.is_none(),
            Some(t) => from <= t && until.map(|u| t <= u).unwrap_or(true),
        }
    }

    /// An `exist` or `believe` vertex on `node` for a tuple covered by
    /// `pattern` whose interval covers `at` (`None` = now).  This is the
    /// querier's presence test for `why_absent`.
    pub fn existence_matching(&self, node: NodeId, pattern: &Tuple, at: Option<Timestamp>) -> Option<VertexId> {
        self.vertices
            .iter()
            .find(|(_, v)| match &v.kind {
                VertexKind::Exist {
                    node: n,
                    tuple,
                    from,
                    until,
                }
                | VertexKind::Believe {
                    node: n,
                    tuple,
                    from,
                    until,
                    ..
                } => *n == node && pattern.covers(tuple) && Self::interval_covers(*from, *until, at),
                _ => false,
            })
            .map(|(id, _)| *id)
    }

    /// The latest `disappear` / `believe-disappear` vertex on `node` for a
    /// tuple covered by `pattern` at or before `before`, together with its
    /// timestamp.  This is how `why_absent` bottoms out in `why_disappeared`
    /// when the tuple once existed.
    pub fn latest_disappearance_matching(
        &self,
        node: NodeId,
        pattern: &Tuple,
        before: Timestamp,
    ) -> Option<(VertexId, Timestamp)> {
        self.vertices
            .iter()
            .filter_map(|(id, v)| match &v.kind {
                VertexKind::Disappear { node: n, tuple, time }
                | VertexKind::BelieveDisappear {
                    node: n, tuple, time, ..
                } if *n == node && pattern.covers(tuple) && *time <= before => Some((*id, *time)),
                _ => None,
            })
            .max_by_key(|(id, time)| (*time, *id))
    }

    /// Whether a tuple covered by `pattern` (re)appeared on `node` strictly
    /// after `after` and at or before `until`.  Used to check that a found
    /// disappearance is really the *last* word before the instant of
    /// interest.
    pub fn appearance_matching_in(&self, node: NodeId, pattern: &Tuple, after: Timestamp, until: Timestamp) -> bool {
        self.vertices.values().any(|v| match &v.kind {
            VertexKind::Appear { node: n, tuple, time }
            | VertexKind::BelieveAppear {
                node: n, tuple, time, ..
            } => *n == node && pattern.covers(tuple) && *time > after && *time <= until,
            _ => false,
        })
    }

    /// The latest `send` vertex from `node` to `peer` whose notification
    /// tuple is covered by `pattern`.  Negative provenance uses this to
    /// check whether a would-be sender logged a send that the receiver never
    /// saw — the lying-by-omission case.
    pub fn find_send_matching(
        &self,
        node: NodeId,
        peer: NodeId,
        pattern: &Tuple,
        polarity: Polarity,
    ) -> Option<VertexId> {
        self.vertices
            .iter()
            .filter_map(|(id, v)| match &v.kind {
                VertexKind::Send {
                    node: n,
                    peer: p,
                    delta,
                    time,
                } if *n == node && *p == peer && delta.polarity == polarity && pattern.covers(&delta.tuple) => {
                    Some((*time, *id))
                }
                _ => None,
            })
            .max()
            .map(|(_, id)| id)
    }

    /// The tuples visible on `node` at the instant of interest, reconstructed
    /// from its existence and belief intervals (`at = None` = now).  Sorted
    /// and deduplicated, so downstream absence tracing is deterministic.
    pub fn present_tuples_at(&self, node: NodeId, at: Option<Timestamp>) -> Vec<Tuple> {
        let set: BTreeSet<Tuple> = self
            .vertices
            .values()
            .filter_map(|v| match &v.kind {
                VertexKind::Exist {
                    node: n,
                    tuple,
                    from,
                    until,
                }
                | VertexKind::Believe {
                    node: n,
                    tuple,
                    from,
                    until,
                    ..
                } if *n == node && Self::interval_covers(*from, *until, at) => Some(tuple.clone()),
                _ => None,
            })
            .collect();
        set.into_iter().collect()
    }

    /// The latest timestamp mentioned anywhere in the graph (vertex times and
    /// closed interval ends).  Negative queries about "now" stamp their
    /// synthesized vertices with this horizon, which is a deterministic
    /// function of the verified evidence.
    pub fn horizon(&self) -> Timestamp {
        self.vertices
            .values()
            .map(|v| match &v.kind {
                VertexKind::Exist { from, until, .. } | VertexKind::Believe { from, until, .. } => {
                    until.unwrap_or(*from)
                }
                other => other.time(),
            })
            .max()
            .unwrap_or(0)
    }

    // ----- Appendix B.2 graph operations ------------------------------------

    /// Graph union `∪*`: vertices are merged by identity (dominant color,
    /// intersected intervals), edges are unioned.
    pub fn union(&self, other: &ProvenanceGraph) -> ProvenanceGraph {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// In-place graph union `∪*` — the same semantics as
    /// [`ProvenanceGraph::union`] without re-cloning the accumulated graph on
    /// every merge step (the macroquery processor folds one subgraph per
    /// audited node into its approximation `Gν`).
    ///
    /// Union is commutative and associative: vertex merge takes the dominant
    /// color (a max) and intersects intervals (a min), and edge union is set
    /// union, so the merged graph is independent of the order subgraphs
    /// arrive in.
    pub fn union_in_place(&mut self, other: &ProvenanceGraph) {
        // `other` already holds each vertex under its id and each index
        // entry under its bucket: nothing is re-hashed.
        for (id, vertex) in &other.vertices {
            match self.vertices.entry(*id) {
                Entry::Occupied(existing) => merge_vertex(existing.into_mut(), vertex),
                Entry::Vacant(slot) => {
                    slot.insert(vertex.clone());
                }
            }
        }
        self.index.extend(&other.index);
        self.edges.extend(&other.edges);
        self.reverse.extend(&other.reverse);
    }

    /// Deterministic merge of per-node partial graphs: the parts are merged
    /// in ascending node-id order, no matter what order the audit workers
    /// that produced them completed in.  Because the graph stores vertices
    /// and edges in ordered maps and [`ProvenanceGraph::union_in_place`] is
    /// commutative, the result — including its vertex iteration order — is a
    /// pure function of the part *set*; the explicit sort makes that
    /// independence obvious and keeps any future non-commutative merge step
    /// honest.
    pub fn merge_partials<'a>(parts: impl IntoIterator<Item = (NodeId, &'a ProvenanceGraph)>) -> ProvenanceGraph {
        let mut parts: Vec<(NodeId, &ProvenanceGraph)> = parts.into_iter().collect();
        parts.sort_by_key(|(node, _)| *node);
        let mut out = ProvenanceGraph::new();
        for (_, part) in parts {
            out.union_in_place(part);
        }
        out
    }

    /// Projection `G | i`: all vertices hosted on `i`, plus any `send` /
    /// `receive` vertices on other nodes that are connected to them by an
    /// edge (those are colored yellow in the projection).
    pub fn project(&self, node: NodeId) -> ProvenanceGraph {
        let mut out = ProvenanceGraph::new();
        let local: BTreeSet<VertexId> = self
            .vertices
            .iter()
            .filter(|(_, v)| v.host() == node)
            .map(|(id, _)| *id)
            .collect();
        for id in &local {
            out.upsert_as(*id, self.vertices[id].clone());
        }
        for (from, to) in &self.edges {
            let from_local = local.contains(from);
            let to_local = local.contains(to);
            if !from_local && !to_local {
                continue;
            }
            for (endpoint, is_local) in [(from, from_local), (to, to_local)] {
                if !is_local {
                    let vertex = &self.vertices[endpoint];
                    if matches!(vertex.kind, VertexKind::Send { .. } | VertexKind::Receive { .. })
                        && !out.vertices.contains_key(endpoint)
                    {
                        out.upsert_as(*endpoint, Vertex::new(vertex.kind.clone(), Color::Yellow));
                    }
                }
            }
            if out.vertices.contains_key(from) && out.vertices.contains_key(to) {
                out.edges.insert((*from, *to));
                out.reverse.insert((*to, *from));
            }
        }
        out
    }

    /// Subgraph relation `⊆*`: every vertex of `self` appears in `other`
    /// (with a color at least as dominant and a compatible interval) and every
    /// edge of `self` appears in `other`.
    pub fn is_subgraph_of(&self, other: &ProvenanceGraph) -> bool {
        for (id, vertex) in &self.vertices {
            match other.vertices.get(id) {
                None => return false,
                Some(theirs) => {
                    if theirs.color.dominant(vertex.color) != theirs.color {
                        return false;
                    }
                }
            }
        }
        self.edges.iter().all(|e| other.edges.contains(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::Value;

    fn tup(n: u64) -> Tuple {
        Tuple::new("t", NodeId(n), vec![Value::Int(n as i64)])
    }

    fn appear(n: u64, time: Timestamp) -> Vertex {
        Vertex::new(
            VertexKind::Appear {
                node: NodeId(n),
                tuple: tup(n),
                time,
            },
            Color::Black,
        )
    }

    fn exist_open(n: u64, from: Timestamp) -> Vertex {
        Vertex::new(
            VertexKind::Exist {
                node: NodeId(n),
                tuple: tup(n),
                from,
                until: None,
            },
            Color::Black,
        )
    }

    #[test]
    fn upsert_merges_by_identity() {
        let mut g = ProvenanceGraph::new();
        let id1 = g.upsert(appear(1, 5));
        let id2 = g.upsert(appear(1, 5));
        assert_eq!(id1, id2);
        assert_eq!(g.vertex_count(), 1);
        let id3 = g.upsert(appear(1, 6));
        assert_ne!(id1, id3);
        assert_eq!(g.vertex_count(), 2);
    }

    #[test]
    fn color_upgrades_but_never_downgrades() {
        let mut g = ProvenanceGraph::new();
        let mut v = appear(1, 5);
        v.color = Color::Yellow;
        let id = g.upsert(v);
        g.set_color(id, Color::Black);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Black);
        g.set_color(id, Color::Yellow);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Black);
        g.set_color(id, Color::Red);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Red);
        g.set_color(id, Color::Black);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Red);
        g.force_color(id, Color::Black);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Black);
    }

    #[test]
    fn close_interval_only_once() {
        let mut g = ProvenanceGraph::new();
        let id = g.upsert(exist_open(1, 10));
        g.close_interval(id, 20);
        g.close_interval(id, 30);
        match &g.vertex(&id).unwrap().kind {
            VertexKind::Exist { until, .. } => assert_eq!(*until, Some(20)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn edges_and_adjacency() {
        let mut g = ProvenanceGraph::new();
        let a = g.upsert(appear(1, 5));
        let e = g.upsert(exist_open(1, 5));
        g.add_edge(a, e);
        assert!(g.has_edge(&a, &e));
        assert_eq!(g.successors(&a), vec![e]);
        assert_eq!(g.predecessors(&e), vec![a]);
        assert!(g.predecessors(&a).is_empty());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn union_keeps_dominant_color_and_intersects_intervals() {
        let mut g1 = ProvenanceGraph::new();
        let mut v = exist_open(1, 10);
        v.color = Color::Yellow;
        let id = g1.upsert(v);

        let mut g2 = ProvenanceGraph::new();
        let mut closed = exist_open(1, 10);
        closed.color = Color::Red;
        if let VertexKind::Exist { until, .. } = &mut closed.kind {
            *until = Some(42);
        }
        g2.upsert(closed);

        let merged = g1.union(&g2);
        let vertex = merged.vertex(&id).unwrap();
        assert_eq!(vertex.color, Color::Red);
        match &vertex.kind {
            VertexKind::Exist { until, .. } => assert_eq!(*until, Some(42)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn merge_partials_is_independent_of_part_order() {
        let mut g1 = ProvenanceGraph::new();
        let a = g1.upsert(appear(1, 1));
        let shared = g1.upsert(exist_open(1, 1));
        g1.add_edge(a, shared);
        let mut g2 = ProvenanceGraph::new();
        let mut dominant = exist_open(1, 1);
        dominant.color = Color::Red;
        g2.upsert(dominant);
        g2.upsert(appear(2, 2));
        let mut g3 = ProvenanceGraph::new();
        g3.upsert(appear(3, 3));

        let forward = ProvenanceGraph::merge_partials([(NodeId(1), &g1), (NodeId(2), &g2), (NodeId(3), &g3)]);
        let shuffled = ProvenanceGraph::merge_partials([(NodeId(3), &g3), (NodeId(1), &g1), (NodeId(2), &g2)]);
        assert_eq!(forward.vertex_count(), shuffled.vertex_count());
        assert_eq!(forward.edge_count(), shuffled.edge_count());
        assert!(forward.is_subgraph_of(&shuffled) && shuffled.is_subgraph_of(&forward));
        let order_a: Vec<VertexId> = forward.vertices().map(|(id, _)| *id).collect();
        let order_b: Vec<VertexId> = shuffled.vertices().map(|(id, _)| *id).collect();
        assert_eq!(order_a, order_b, "vertex iteration order must be stable");
        assert_eq!(forward.vertex(&shared).unwrap().color, Color::Red);
    }

    #[test]
    fn union_is_superset_of_both() {
        let mut g1 = ProvenanceGraph::new();
        g1.upsert(appear(1, 1));
        let mut g2 = ProvenanceGraph::new();
        g2.upsert(appear(2, 2));
        let merged = g1.union(&g2);
        assert!(g1.is_subgraph_of(&merged));
        assert!(g2.is_subgraph_of(&merged));
        assert!(!merged.is_subgraph_of(&g1));
    }

    #[test]
    fn projection_keeps_local_vertices_and_boundary_messages() {
        let mut g = ProvenanceGraph::new();
        let send = g.upsert(Vertex::new(
            VertexKind::Send {
                node: NodeId(1),
                peer: NodeId(2),
                delta: snp_datalog::TupleDelta::plus(tup(1)),
                time: 3,
            },
            Color::Black,
        ));
        let recv = g.upsert(Vertex::new(
            VertexKind::Receive {
                node: NodeId(2),
                peer: NodeId(1),
                delta: snp_datalog::TupleDelta::plus(tup(1)),
                time: 4,
            },
            Color::Black,
        ));
        g.add_edge(send, recv);
        let appear2 = g.upsert(appear(2, 4));
        let _ = appear2;

        let proj = g.project(NodeId(2));
        assert!(proj.contains(&recv));
        assert!(proj.contains(&send), "boundary send vertex must be kept");
        assert_eq!(
            proj.vertex(&send).unwrap().color,
            Color::Yellow,
            "remote boundary vertex is yellow"
        );
        assert!(proj.contains(&appear2));

        let proj1 = g.project(NodeId(1));
        assert!(proj1.contains(&send));
        assert!(proj1.contains(&recv));
        assert!(!proj1.contains(&appear2));
    }

    #[test]
    fn faulty_and_suspect_nodes() {
        let mut g = ProvenanceGraph::new();
        let a = g.upsert(appear(1, 1));
        let mut yellow = appear(2, 2);
        yellow.color = Color::Yellow;
        g.upsert(yellow);
        g.set_color(a, Color::Red);
        assert_eq!(g.faulty_nodes(), BTreeSet::from([NodeId(1)]));
        assert_eq!(g.suspect_nodes(), BTreeSet::from([NodeId(1), NodeId(2)]));
    }

    #[test]
    fn lookup_helpers() {
        let mut g = ProvenanceGraph::new();
        let a = g.upsert(appear(1, 5));
        let e = g.upsert(exist_open(1, 5));
        assert_eq!(g.appear_at(NodeId(1), &tup(1), 5), Some(a));
        assert_eq!(g.appear_at(NodeId(1), &tup(1), 6), None);
        assert_eq!(g.open_exist(NodeId(1), &tup(1)), Some(e));
        assert_eq!(g.exist_covering(NodeId(1), &tup(1), 100), Some(e));
        g.close_interval(e, 50);
        assert_eq!(g.open_exist(NodeId(1), &tup(1)), None);
        assert_eq!(g.exist_covering(NodeId(1), &tup(1), 100), None);
        assert_eq!(g.exist_covering(NodeId(1), &tup(1), 30), Some(e));
    }

    /// The lookups as they were before the index: one scan of all vertices
    /// in id order, comparing host and tuple on each.
    fn scan(g: &ProvenanceGraph, f: impl Fn(&VertexKind) -> bool) -> Option<VertexId> {
        g.vertices().find(|(_, v)| f(&v.kind)).map(|(id, _)| *id)
    }

    /// Every keyed lookup, over the whole vocabulary, against [`scan`].
    fn assert_lookups_match_scan(g: &ProvenanceGraph, nodes: &[NodeId], tuples: &[Tuple], times: u64, step: &str) {
        assert_eq!(g.index.len(), g.vertices.len(), "{step}: one index entry per vertex");
        for &node in nodes {
            for tuple in tuples {
                assert_eq!(
                    g.open_exist(node, tuple),
                    scan(
                        g,
                        |k| matches!(k, VertexKind::Exist { node: n, tuple: t, until: None, .. } if *n == node && t == tuple)
                    ),
                    "{step}: open_exist({node}, {tuple})"
                );
                assert_eq!(
                    g.open_believe(node, tuple),
                    scan(
                        g,
                        |k| matches!(k, VertexKind::Believe { node: n, tuple: t, until: None, .. } if *n == node && t == tuple)
                    ),
                    "{step}: open_believe({node}, {tuple})"
                );
                for &peer in nodes {
                    for polarity in [Polarity::Plus, Polarity::Minus] {
                        let send = |time: Option<Timestamp>| {
                            scan(g, |k| {
                                matches!(k, VertexKind::Send { node: n, peer: p, delta, time: t }
                                if *n == node && *p == peer && delta.tuple == *tuple && delta.polarity == polarity
                                    && time.map_or(true, |x| x == *t))
                            })
                        };
                        assert_eq!(
                            g.find_send(node, peer, tuple, polarity, None),
                            send(None),
                            "{step}: find_send"
                        );
                        for time in 0..times {
                            assert_eq!(
                                g.find_send(node, peer, tuple, polarity, Some(time)),
                                send(Some(time)),
                                "{step}: find_send at {time}"
                            );
                        }
                        assert_eq!(
                            g.find_receive(node, peer, tuple, polarity),
                            scan(g, |k| matches!(k, VertexKind::Receive { node: n, peer: p, delta, .. }
                                if *n == node && *p == peer && delta.tuple == *tuple && delta.polarity == polarity)),
                            "{step}: find_receive"
                        );
                    }
                }
                for time in 0..times {
                    assert_eq!(
                        g.appear_at(node, tuple, time),
                        scan(
                            g,
                            |k| matches!(k, VertexKind::Appear { node: n, tuple: t, time: tt } if *n == node && t == tuple && *tt == time)
                        ),
                        "{step}: appear_at"
                    );
                    assert_eq!(
                        g.disappear_at(node, tuple, time),
                        scan(
                            g,
                            |k| matches!(k, VertexKind::Disappear { node: n, tuple: t, time: tt } if *n == node && t == tuple && *tt == time)
                        ),
                        "{step}: disappear_at"
                    );
                    assert_eq!(
                        g.believe_appear_at(node, tuple, time),
                        scan(
                            g,
                            |k| matches!(k, VertexKind::BelieveAppear { node: n, tuple: t, time: tt, .. } if *n == node && t == tuple && *tt == time)
                        ),
                        "{step}: believe_appear_at"
                    );
                    assert_eq!(
                        g.believe_disappear_at(node, tuple, time),
                        scan(
                            g,
                            |k| matches!(k, VertexKind::BelieveDisappear { node: n, tuple: t, time: tt, .. } if *n == node && t == tuple && *tt == time)
                        ),
                        "{step}: believe_disappear_at"
                    );
                    assert_eq!(
                        g.exist_covering(node, tuple, time),
                        scan(g, |k| matches!(k, VertexKind::Exist { node: n, tuple: t, from, until }
                            if *n == node && t == tuple && *from <= time && until.map_or(true, |u| time <= u))),
                        "{step}: exist_covering"
                    );
                }
            }
        }
    }

    #[test]
    fn property_keyed_lookups_match_a_linear_scan_under_every_mutation() {
        use snp_sim::rng::DetRng;

        const TIMES: u64 = 4;
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        // Tuples homed on either of two nodes, so that a vertex's host and
        // its tuple's location differ as often as they agree.
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| Tuple::new("t", nodes[i % 2], vec![Value::Int((i / 2) as i64)]))
            .collect();
        let pick = |rng: &mut DetRng, n: usize| rng.next_below(n as u64) as usize;
        let random_vertex = |rng: &mut DetRng| {
            let (node, peer) = (nodes[pick(rng, 3)], nodes[pick(rng, 3)]);
            let tuple = tuples[pick(rng, tuples.len())].clone();
            let time = rng.next_below(TIMES);
            let until = (rng.next_below(2) == 0).then(|| time + rng.next_below(TIMES));
            let delta = if rng.next_below(2) == 0 {
                snp_datalog::TupleDelta::plus(tuple.clone())
            } else {
                snp_datalog::TupleDelta::minus(tuple.clone())
            };
            let rule = format!("R{}", rng.next_below(2));
            let kind = match rng.next_below(15) {
                0 => VertexKind::Insert { node, tuple, time },
                1 => VertexKind::Delete { node, tuple, time },
                2 => VertexKind::Appear { node, tuple, time },
                3 => VertexKind::Disappear { node, tuple, time },
                4 => VertexKind::Exist {
                    node,
                    tuple,
                    from: time,
                    until,
                },
                5 => VertexKind::Derive {
                    node,
                    tuple,
                    rule,
                    time,
                },
                6 => VertexKind::Underive {
                    node,
                    tuple,
                    rule,
                    time,
                },
                7 => VertexKind::Send {
                    node,
                    peer,
                    delta,
                    time,
                },
                8 => VertexKind::Receive {
                    node,
                    peer,
                    delta,
                    time,
                },
                9 => VertexKind::BelieveAppear {
                    node,
                    peer,
                    tuple,
                    time,
                },
                10 => VertexKind::BelieveDisappear {
                    node,
                    peer,
                    tuple,
                    time,
                },
                11 => VertexKind::Believe {
                    node,
                    peer,
                    tuple,
                    from: time,
                    until,
                },
                12 => VertexKind::Checkpoint { node, tuple, time },
                13 => VertexKind::Absence { node, tuple, time },
                _ => VertexKind::MissingPrecondition {
                    node,
                    tuple,
                    rule: Some(rule),
                    peer: Some(peer),
                    time,
                },
            };
            let color = [Color::Yellow, Color::Black, Color::Red][pick(rng, 3)];
            Vertex::new(kind, color)
        };
        let random_id = |rng: &mut DetRng, g: &ProvenanceGraph| {
            let ids: Vec<VertexId> = g.vertices().map(|(id, _)| *id).collect();
            (!ids.is_empty()).then(|| ids[pick(rng, ids.len())])
        };

        for seed in 0..4u64 {
            let mut rng = DetRng::new(seed);
            let mut g = ProvenanceGraph::new();
            for step in 0..120 {
                let op = rng.next_below(10);
                let label = format!("seed {seed} step {step} op {op}");
                match op {
                    0..=4 => {
                        g.upsert(random_vertex(&mut rng));
                    }
                    5 => {
                        if let Some(id) = random_id(&mut rng, &g) {
                            g.close_interval(id, rng.next_below(2 * TIMES));
                        }
                    }
                    6 => {
                        if let Some(id) = random_id(&mut rng, &g) {
                            g.set_color(id, [Color::Yellow, Color::Black, Color::Red][pick(&mut rng, 3)]);
                        }
                    }
                    7 | 8 => {
                        // Union with a graph that overlaps `g` (same
                        // vocabulary) and links some of its vertices.
                        let mut other = ProvenanceGraph::new();
                        let ids: Vec<VertexId> = (0..8).map(|_| other.upsert(random_vertex(&mut rng))).collect();
                        for pair in ids.chunks(2) {
                            other.edges.insert((pair[0], pair[1]));
                            other.reverse.insert((pair[1], pair[0]));
                        }
                        g.union_in_place(&other);
                    }
                    _ => {
                        // Projections shrink the graph: take them rarely.
                        if step % 40 == 39 {
                            g = g.project(nodes[pick(&mut rng, 3)]);
                        }
                    }
                }
                assert_lookups_match_scan(&g, &nodes, &tuples, TIMES, &label);
            }
            assert!(
                g.vertex_count() > 20,
                "seed {seed}: the walk must build a graph worth indexing"
            );
        }
    }

    #[test]
    fn table1_edge_rules() {
        assert!(edge_allowed("insert", "appear"));
        assert!(edge_allowed("send", "receive"));
        assert!(edge_allowed("believe", "derive"));
        assert!(!edge_allowed("insert", "exist"));
        assert!(!edge_allowed("receive", "derive"));
        assert!(!edge_allowed("exist", "appear"));
    }
}
