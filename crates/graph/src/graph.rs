//! The provenance graph and the operations from Appendix B.2.
//!
//! # Representation
//!
//! Vertices live in an arena (`Vec` of slots) and are addressed by
//! [`VertexHandle`]s, `u32` positions that stay valid for the life of the
//! graph: nothing is ever removed, and a union only appends.  A hash map
//! resolves a [`VertexId`] to its handle.  Edges are a second arena whose
//! entries are threaded onto two intrusive lists per vertex (outgoing and
//! incoming), so adding an edge touches two slots and no search tree, and a
//! clone of the graph copies two flat vectors.  The graph construction
//! algorithm works on handles end to end; ids are only looked up where a
//! caller arrives with one.
//!
//! **Every observable order is ascending `VertexId`; hash-map iteration is
//! never observable.**  The two maps are only ever probed, never iterated.
//! Arena order (insertion order) is a deterministic function of the call
//! sequence, but it is not exposed either: `vertices()`, `edges()`,
//! `predecessors` / `successors` and every "first match" lookup order by id,
//! by sorting handles when asked (the sorted vertex order is cached until the
//! next vertex insert), so a graph's rendering depends only on its contents.
//!
//! # The `(host, tuple)` index
//!
//! Every lookup the graph construction algorithm makes asks about one tuple
//! on one node ("the open `exist` of τ on i", "the `send` of ±τ from i to
//! j"), so the vertices about one `(host(v), tuple(v))` are chained together
//! and those lookups walk one chain instead of scanning `V`.
//!
//! * **What is keyed.**  Identity fields only: the hosting node and the
//!   tuple.  The interval end (`until`) and the colour are the two things
//!   that change after a vertex is inserted, so they are never part of a
//!   key — `close_interval`, `set_color` and `force_color` leave the index
//!   untouched, and lookups test them on the vertex itself.
//! * **Compact form.**  A map from a 64-bit keyed hash of `(host, tuple)` to
//!   the most recently inserted vertex with that hash, and one `next` handle
//!   per slot.  A lookup walks the chain and keeps the vertices whose host
//!   and tuple really are the ones asked for, so a hash collision only adds a
//!   candidate that the comparison rejects; it can never change a result.
//!   The hash is keyed per graph: tuples come out of audited nodes' logs, and
//!   an unkeyed hash would let a node craft tuples that pile into one chain.
//! * **Order.**  A chain is in insertion order, so a lookup takes the match
//!   with the least id (or, where stated, the latest) — exactly what a scan
//!   of the vertices in id order restricted to the same `(host, tuple)`
//!   returns first.
//!
//! `upsert`, `insert_if_absent`, `union_in_place` and `project` are the only
//! ways a vertex enters a graph, and each links it into its chain.  The
//! pattern lookups of negative provenance (`*_matching*`,
//! `present_tuples_at`) take wildcard patterns, which have no single chain;
//! they scan, once per absence claim.

use crate::vertex::{Color, Timestamp, Vertex, VertexId, VertexKind};
use snp_crypto::keys::NodeId;
use snp_datalog::{Polarity, Tuple};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasher;
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

/// The position of a vertex in one graph's arena.  A handle is only
/// meaningful for the graph that returned it (and for clones of that graph
/// taken afterwards); it stays valid across every later insert and union.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexHandle(u32);

impl VertexHandle {
    /// The least handle: the lower bound of a range over keys that end in one.
    pub(crate) const FIRST: VertexHandle = VertexHandle(0);
}

/// "No slot / no edge": the end of an intrusive list.
const NONE: u32 = u32::MAX;

#[derive(Clone)]
struct Slot {
    id: VertexId,
    vertex: Vertex,
    /// The next vertex whose `(host, tuple)` has the same hash.
    next_about: u32,
    /// Heads and lengths of this vertex's outgoing and incoming edge lists.
    first_out: u32,
    first_in: u32,
    out_degree: u32,
    in_degree: u32,
}

#[derive(Clone, Copy)]
struct Edge {
    /// `from` is part of the provenance of `to`.
    from: u32,
    to: u32,
    /// The next edge out of `from`, and the next edge into `to`.
    next_out: u32,
    next_in: u32,
}

/// The provenance graph `G = (V, E)` (representation: module docs).
#[derive(Clone, Default)]
pub struct ProvenanceGraph {
    slots: Vec<Slot>,
    edges: Vec<Edge>,
    by_id: HashMap<VertexId, u32>,
    /// Keyed hash of `(host, tuple)` → the newest vertex with that hash.
    about: HashMap<u64, u32>,
    /// All handles in ascending id order, built on demand.
    sorted: OnceLock<Vec<u32>>,
}

// Printed by contents in id order, like everything else observable.
impl fmt::Debug for ProvenanceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProvenanceGraph")
            .field("vertices", &self.vertices().collect::<Vec<_>>())
            .field("edges", &self.edges().collect::<Vec<_>>())
            .finish()
    }
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

/// The position the next element of an arena of `len` elements gets.
fn next_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|index| *index != NONE)
        .expect("a provenance graph holds fewer than 2^32 - 1 vertices and edges")
}

impl ProvenanceGraph {
    /// Create an empty graph.
    pub fn new() -> ProvenanceGraph {
        ProvenanceGraph::default()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, handle: u32) -> &Slot {
        &self.slots[handle as usize]
    }

    /// The handle of the vertex `id`, which `make` builds if the graph does
    /// not hold it yet; the flag tells whether it did.
    fn intern(&mut self, id: VertexId, make: impl FnOnce() -> Vertex) -> (u32, bool) {
        match self.by_id.entry(id) {
            Entry::Occupied(existing) => (*existing.get(), false),
            Entry::Vacant(vacant) => {
                let vertex = make();
                debug_assert_eq!(id, vertex.id(), "intern: id is not the vertex's identity");
                let handle = next_index(self.slots.len());
                let bucket = self.about.hasher().hash_one((vertex.host(), vertex.kind.tuple()));
                self.slots.push(Slot {
                    id,
                    vertex,
                    next_about: self.about.insert(bucket, handle).unwrap_or(NONE),
                    first_out: NONE,
                    first_in: NONE,
                    out_degree: 0,
                    in_degree: 0,
                });
                vacant.insert(handle);
                self.sorted.take();
                (handle, true)
            }
        }
    }

    /// Insert (or merge) a vertex.  If a vertex with the same identity is
    /// already present, its color is upgraded to the dominant one and an
    /// open interval may be narrowed (Appendix B.2's union semantics);
    /// otherwise the vertex is added as-is.  Returns its handle.
    pub fn upsert(&mut self, vertex: Vertex) -> VertexHandle {
        let id = vertex.id();
        let mut given = Some(vertex);
        let (handle, _) = self.intern(id, || given.take().expect("built at most once"));
        if let Some(duplicate) = given {
            merge_vertex(&mut self.slots[handle as usize].vertex, &duplicate);
        }
        VertexHandle(handle)
    }

    /// Insert a vertex unless one with the same identity is present (which is
    /// then left exactly as it is).  Returns the handle and whether the
    /// vertex was inserted.
    pub fn insert_if_absent(&mut self, vertex: Vertex) -> (VertexHandle, bool) {
        let (handle, inserted) = self.intern(vertex.id(), || vertex);
        (VertexHandle(handle), inserted)
    }

    /// Set (upgrade) the color of a vertex.  Downgrades are ignored, matching
    /// the monotonic color transitions proven in Theorem 1.
    pub fn set_color(&mut self, vertex: VertexHandle, color: Color) {
        let vertex = &mut self.slots[vertex.0 as usize].vertex;
        vertex.color = vertex.color.dominant(color);
    }

    /// Force a color even if it is a downgrade.  Only used when a repaired
    /// node is re-audited (§4.4 allows recoloring a repaired node black).
    pub fn force_color(&mut self, vertex: VertexHandle, color: Color) {
        self.slots[vertex.0 as usize].vertex.color = color;
    }

    /// Close the interval of an `exist` / `believe` vertex.
    pub fn close_interval(&mut self, vertex: VertexHandle, end: Timestamp) {
        match &mut self.slots[vertex.0 as usize].vertex.kind {
            VertexKind::Exist { until, .. } | VertexKind::Believe { until, .. } if until.is_none() => {
                *until = Some(end);
            }
            _ => {}
        }
    }

    /// The far ends of the edges out of (`outgoing`) or into a vertex, most
    /// recently added first.
    fn neighbours(&self, handle: u32, outgoing: bool) -> impl Iterator<Item = u32> + '_ {
        let slot = self.slot(handle);
        let mut next = if outgoing { slot.first_out } else { slot.first_in };
        std::iter::from_fn(move || {
            let edge = self.edges.get(next as usize)?;
            let (following, other) = if outgoing {
                (edge.next_out, edge.to)
            } else {
                (edge.next_in, edge.from)
            };
            next = following;
            Some(other)
        })
    }

    fn linked(&self, from: u32, to: u32) -> bool {
        // Either list holds the edge; walk the shorter one.
        if self.slot(from).out_degree <= self.slot(to).in_degree {
            self.neighbours(from, true).any(|other| other == to)
        } else {
            self.neighbours(to, false).any(|other| other == from)
        }
    }

    /// Add a directed edge.  Edges whose endpoint kinds violate Table 1 are
    /// rejected with an error in debug builds and ignored in release builds.
    pub fn add_edge(&mut self, from: VertexHandle, to: VertexHandle) {
        let (from, to) = (from.0, to.0);
        debug_assert!(
            edge_allowed(
                self.slot(from).vertex.kind.kind_name(),
                self.slot(to).vertex.kind.kind_name()
            ),
            "edge {} -> {} violates Table 1",
            self.slot(from).vertex.kind.kind_name(),
            self.slot(to).vertex.kind.kind_name()
        );
        if from == to || self.linked(from, to) {
            return;
        }
        let edge = next_index(self.edges.len());
        let source = &mut self.slots[from as usize];
        let next_out = std::mem::replace(&mut source.first_out, edge);
        source.out_degree += 1;
        let target = &mut self.slots[to as usize];
        let next_in = std::mem::replace(&mut target.first_in, edge);
        target.in_degree += 1;
        self.edges.push(Edge {
            from,
            to,
            next_out,
            next_in,
        });
    }

    /// The handle of a vertex, by identity.
    pub fn handle(&self, id: &VertexId) -> Option<VertexHandle> {
        self.by_id.get(id).copied().map(VertexHandle)
    }

    /// The identity of the vertex a handle of this graph stands for.
    pub fn id(&self, vertex: VertexHandle) -> VertexId {
        self.slot(vertex.0).id
    }

    /// Fetch a vertex by id.
    pub fn vertex(&self, id: &VertexId) -> Option<&Vertex> {
        self.by_id.get(id).map(|handle| &self.slot(*handle).vertex)
    }

    /// Whether the graph contains a vertex with this identity.
    pub fn contains(&self, id: &VertexId) -> bool {
        self.by_id.contains_key(id)
    }

    /// Whether the graph contains the edge `(from, to)`.
    pub fn has_edge(&self, from: &VertexId, to: &VertexId) -> bool {
        matches!((self.by_id.get(from), self.by_id.get(to)), (Some(from), Some(to)) if self.linked(*from, *to))
    }

    /// All handles in ascending id order.
    fn sorted(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            let mut handles: Vec<u32> = (0..next_index(self.slots.len())).collect();
            handles.sort_unstable_by_key(|handle| self.slot(*handle).id);
            handles
        })
    }

    /// Iterate over all vertices, in ascending id order.
    pub fn vertices(&self) -> impl Iterator<Item = (&VertexId, &Vertex)> {
        self.sorted().iter().map(|handle| {
            let slot = self.slot(*handle);
            (&slot.id, &slot.vertex)
        })
    }

    /// Iterate over all edges, in ascending `(from, to)` order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        // Sort by rank in the id order: two words per edge instead of two ids.
        let mut rank = vec![0u32; self.slots.len()];
        for (position, handle) in (0u32..).zip(self.sorted()) {
            rank[*handle as usize] = position;
        }
        let mut edges: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|edge| (rank[edge.from as usize], rank[edge.to as usize]))
            .collect();
        edges.sort_unstable();
        let id = |position: u32| self.slot(self.sorted()[position as usize]).id;
        edges.into_iter().map(move |(from, to)| (id(from), id(to)))
    }

    fn adjacent(&self, id: &VertexId, outgoing: bool) -> Vec<VertexId> {
        let Some(handle) = self.by_id.get(id) else {
            return Vec::new();
        };
        let mut ids: Vec<VertexId> = self
            .neighbours(*handle, outgoing)
            .map(|other| self.slot(other).id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Direct predecessors of a vertex (its immediate provenance), in
    /// ascending id order.
    pub fn predecessors(&self, id: &VertexId) -> Vec<VertexId> {
        self.adjacent(id, false)
    }

    /// Direct successors of a vertex (what it contributed to), in ascending
    /// id order.
    pub fn successors(&self, id: &VertexId) -> Vec<VertexId> {
        self.adjacent(id, true)
    }

    /// All vertices hosted on `node`.
    pub fn vertices_on(&self, node: NodeId) -> impl Iterator<Item = (&VertexId, &Vertex)> {
        self.vertices().filter(move |(_, v)| v.host() == node)
    }

    /// All vertices of a given color.
    pub fn vertices_with_color(&self, color: Color) -> Vec<VertexId> {
        self.vertices()
            .filter(|(_, v)| v.color == color)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Nodes that host at least one red vertex (Theorem 3: exactly the faulty
    /// nodes).
    pub fn faulty_nodes(&self) -> BTreeSet<NodeId> {
        self.slots
            .iter()
            .filter(|slot| slot.vertex.color == Color::Red)
            .map(|slot| slot.vertex.host())
            .collect()
    }

    /// Nodes that host at least one red *or yellow* vertex — the set a
    /// forensic investigator should examine (§4.3 completeness).
    pub fn suspect_nodes(&self) -> BTreeSet<NodeId> {
        self.slots
            .iter()
            .filter(|slot| slot.vertex.color != Color::Black)
            .map(|slot| slot.vertex.host())
            .collect()
    }

    // ----- lookups used by the graph construction algorithm ----------------

    /// The vertices about `tuple` hosted on `host` whose kind satisfies `f`,
    /// most recently inserted first.
    fn about<'a>(
        &'a self,
        host: NodeId,
        tuple: &'a Tuple,
        f: impl Fn(&VertexKind) -> bool + 'a,
    ) -> impl Iterator<Item = (u32, &'a Slot)> + 'a {
        let bucket = self.about.hasher().hash_one((host, tuple));
        let mut next = self.about.get(&bucket).copied().unwrap_or(NONE);
        std::iter::from_fn(move || {
            let handle = next;
            let slot = self.slots.get(handle as usize)?;
            next = slot.next_about;
            Some((handle, slot))
        })
        // `f` first: it is a tag and a timestamp, the tuple is a deep compare.
        .filter(move |(_, slot)| {
            f(&slot.vertex.kind) && slot.vertex.host() == host && slot.vertex.kind.tuple() == tuple
        })
    }

    /// The first vertex (in id order) about `tuple` on `host` whose kind
    /// satisfies `f`.
    fn first_about(&self, host: NodeId, tuple: &Tuple, f: impl Fn(&VertexKind) -> bool) -> Option<VertexHandle> {
        self.about(host, tuple, f)
            .min_by_key(|(_, slot)| slot.id)
            .map(|(handle, _)| VertexHandle(handle))
    }

    /// The open `exist` vertex for a tuple on a node, if any.
    pub fn open_exist(&self, node: NodeId, tuple: &Tuple) -> Option<VertexHandle> {
        self.first_about(node, tuple, |k| matches!(k, VertexKind::Exist { until: None, .. }))
    }

    /// The open `believe` vertex for a tuple on a node (from any peer).
    pub fn open_believe(&self, node: NodeId, tuple: &Tuple) -> Option<VertexHandle> {
        self.first_about(node, tuple, |k| matches!(k, VertexKind::Believe { until: None, .. }))
    }

    /// The `appear` vertex for a tuple on a node at exactly `time`.
    pub fn appear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexHandle> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::Appear { time: t, .. } if *t == time),
        )
    }

    /// The `disappear` vertex for a tuple on a node at exactly `time`.
    pub fn disappear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexHandle> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::Disappear { time: t, .. } if *t == time),
        )
    }

    /// The `believe-appear` vertex for a tuple on a node at exactly `time`.
    pub fn believe_appear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexHandle> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::BelieveAppear { time: t, .. } if *t == time),
        )
    }

    /// The `believe-disappear` vertex for a tuple on a node at exactly `time`.
    pub fn believe_disappear_at(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexHandle> {
        self.first_about(
            node,
            tuple,
            |k| matches!(k, VertexKind::BelieveDisappear { time: t, .. } if *t == time),
        )
    }

    /// The vertex a (un)derivation at `time` hangs off for its body tuple
    /// `tuple` (Figure 11, lines 151–160 / 168–177), in one pass over the
    /// tuple's vertices: in order of preference the `believe-appear` /
    /// `believe-disappear` at `time` (`appearing` picks which), the `appear`
    /// / `disappear` at `time`, the open `believe`, the open `exist` — within
    /// one of these the vertex with the least id, i.e. what asking
    /// [`ProvenanceGraph::believe_appear_at`], [`ProvenanceGraph::appear_at`],
    /// [`ProvenanceGraph::open_believe`] and [`ProvenanceGraph::open_exist`]
    /// in turn returns.
    pub(crate) fn body_vertex(
        &self,
        node: NodeId,
        tuple: &Tuple,
        time: Timestamp,
        appearing: bool,
    ) -> Option<VertexHandle> {
        let preference = move |kind: &VertexKind| match kind {
            VertexKind::BelieveAppear { time: t, .. } if appearing && *t == time => Some(0),
            VertexKind::BelieveDisappear { time: t, .. } if !appearing && *t == time => Some(0),
            VertexKind::Appear { time: t, .. } if appearing && *t == time => Some(1),
            VertexKind::Disappear { time: t, .. } if !appearing && *t == time => Some(1),
            VertexKind::Believe { until: None, .. } => Some(2),
            VertexKind::Exist { until: None, .. } => Some(3),
            _ => None,
        };
        self.about(node, tuple, move |kind| preference(kind).is_some())
            .min_by_key(|(_, slot)| (preference(&slot.vertex.kind), slot.id))
            .map(|(handle, _)| VertexHandle(handle))
    }

    /// The `exist` vertex (open or closed) covering a tuple at a given time.
    pub fn exist_covering(&self, node: NodeId, tuple: &Tuple, time: Timestamp) -> Option<VertexHandle> {
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
    ) -> Option<VertexHandle> {
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
    pub fn find_receive(&self, node: NodeId, peer: NodeId, tuple: &Tuple, polarity: Polarity) -> Option<VertexHandle> {
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
    /// `pattern` whose interval covers `at` (`None` = now) — the one with the
    /// least id.  This is the querier's presence test for `why_absent`.
    pub fn existence_matching(&self, node: NodeId, pattern: &Tuple, at: Option<Timestamp>) -> Option<VertexId> {
        self.slots
            .iter()
            .filter(|slot| match &slot.vertex.kind {
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
            .map(|slot| slot.id)
            .min()
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
        self.slots
            .iter()
            .filter_map(|slot| match &slot.vertex.kind {
                VertexKind::Disappear { node: n, tuple, time }
                | VertexKind::BelieveDisappear {
                    node: n, tuple, time, ..
                } if *n == node && pattern.covers(tuple) && *time <= before => Some((slot.id, *time)),
                _ => None,
            })
            .max_by_key(|(id, time)| (*time, *id))
    }

    /// Whether a tuple covered by `pattern` (re)appeared on `node` strictly
    /// after `after` and at or before `until`.  Used to check that a found
    /// disappearance is really the *last* word before the instant of
    /// interest.
    pub fn appearance_matching_in(&self, node: NodeId, pattern: &Tuple, after: Timestamp, until: Timestamp) -> bool {
        self.slots.iter().any(|slot| match &slot.vertex.kind {
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
        self.slots
            .iter()
            .filter_map(|slot| match &slot.vertex.kind {
                VertexKind::Send {
                    node: n,
                    peer: p,
                    delta,
                    time,
                } if *n == node && *p == peer && delta.polarity == polarity && pattern.covers(&delta.tuple) => {
                    Some((*time, slot.id))
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
        let set: BTreeSet<&Tuple> = self
            .slots
            .iter()
            .filter_map(|slot| match &slot.vertex.kind {
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
                } if *n == node && Self::interval_covers(*from, *until, at) => Some(tuple),
                _ => None,
            })
            .collect();
        set.into_iter().cloned().collect()
    }

    /// The latest timestamp mentioned anywhere in the graph (vertex times and
    /// closed interval ends).  Negative queries about "now" stamp their
    /// synthesized vertices with this horizon, which is a deterministic
    /// function of the verified evidence.
    pub fn horizon(&self) -> Timestamp {
        self.slots
            .iter()
            .map(|slot| match &slot.vertex.kind {
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
        // `other`'s handles in `self`, by position: each of its vertices is
        // looked up by id once, each of its edges not at all.
        let mine: Vec<u32> = other
            .slots
            .iter()
            .map(|theirs| {
                let (handle, inserted) = self.intern(theirs.id, || theirs.vertex.clone());
                if !inserted {
                    merge_vertex(&mut self.slots[handle as usize].vertex, &theirs.vertex);
                }
                handle
            })
            .collect();
        for edge in &other.edges {
            self.add_edge(
                VertexHandle(mine[edge.from as usize]),
                VertexHandle(mine[edge.to as usize]),
            );
        }
    }

    /// Deterministic merge of per-node partial graphs: the parts are merged
    /// in ascending node-id order, no matter what order the audit workers
    /// that produced them completed in.  Because every observable order of a
    /// graph is by vertex id and [`ProvenanceGraph::union_in_place`] is
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
        // Where each vertex of `self` went in `out`, by position.
        let mut kept: Vec<u32> = self
            .slots
            .iter()
            .map(|slot| {
                if slot.vertex.host() == node {
                    out.intern(slot.id, || slot.vertex.clone()).0
                } else {
                    NONE
                }
            })
            .collect();
        for edge in &self.edges {
            let ends = [edge.from, edge.to].map(|end| end as usize);
            if ends.iter().all(|end| self.slots[*end].vertex.host() != node) {
                continue;
            }
            for end in ends {
                let slot = &self.slots[end];
                if kept[end] == NONE && matches!(slot.vertex.kind, VertexKind::Send { .. } | VertexKind::Receive { .. })
                {
                    kept[end] = out
                        .intern(slot.id, || Vertex::new(slot.vertex.kind.clone(), Color::Yellow))
                        .0;
                }
            }
            let [from, to] = ends.map(|end| kept[end]);
            if from != NONE && to != NONE {
                out.add_edge(VertexHandle(from), VertexHandle(to));
            }
        }
        out
    }

    /// Subgraph relation `⊆*`: every vertex of `self` appears in `other`
    /// (with a color at least as dominant and a compatible interval) and every
    /// edge of `self` appears in `other`.
    pub fn is_subgraph_of(&self, other: &ProvenanceGraph) -> bool {
        self.slots.iter().all(|slot| {
            other
                .vertex(&slot.id)
                .is_some_and(|theirs| theirs.color.dominant(slot.vertex.color) == theirs.color)
        }) && self
            .edges
            .iter()
            .all(|edge| other.has_edge(&self.slot(edge.from).id, &self.slot(edge.to).id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{self, Direction};
    use snp_datalog::{TupleDelta, Value};
    use std::collections::BTreeMap;

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

    /// `upsert`, for tests that go on to ask about the vertex by id.
    fn upsert_id(g: &mut ProvenanceGraph, vertex: Vertex) -> VertexId {
        let handle = g.upsert(vertex);
        g.id(handle)
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
        assert_eq!(g.id(id1), appear(1, 5).id());
        assert_eq!(g.handle(&appear(1, 6).id()), Some(id3));
        assert_eq!(g.handle(&appear(1, 7).id()), None);
    }

    #[test]
    fn insert_if_absent_leaves_a_present_vertex_alone() {
        let mut g = ProvenanceGraph::new();
        let (first, inserted) = g.insert_if_absent(appear(1, 5));
        assert!(inserted);
        let mut red = appear(1, 5);
        red.color = Color::Red;
        assert_eq!(g.insert_if_absent(red), (first, false));
        assert_eq!(g.vertex(&g.id(first)).unwrap().color, Color::Black);
    }

    #[test]
    fn color_upgrades_but_never_downgrades() {
        let mut g = ProvenanceGraph::new();
        let mut v = appear(1, 5);
        v.color = Color::Yellow;
        let handle = g.upsert(v);
        let id = g.id(handle);
        g.set_color(handle, Color::Black);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Black);
        g.set_color(handle, Color::Yellow);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Black);
        g.set_color(handle, Color::Red);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Red);
        g.set_color(handle, Color::Black);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Red);
        g.force_color(handle, Color::Black);
        assert_eq!(g.vertex(&id).unwrap().color, Color::Black);
    }

    #[test]
    fn close_interval_only_once() {
        let mut g = ProvenanceGraph::new();
        let handle = g.upsert(exist_open(1, 10));
        g.close_interval(handle, 20);
        g.close_interval(handle, 30);
        match &g.vertex(&g.id(handle)).unwrap().kind {
            VertexKind::Exist { until, .. } => assert_eq!(*until, Some(20)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn edges_and_adjacency() {
        let mut g = ProvenanceGraph::new();
        let (a, e) = (g.upsert(appear(1, 5)), g.upsert(exist_open(1, 5)));
        g.add_edge(a, e);
        g.add_edge(a, e);
        let (a, e) = (g.id(a), g.id(e));
        assert!(g.has_edge(&a, &e));
        assert!(!g.has_edge(&e, &a));
        assert_eq!(g.successors(&a), vec![e]);
        assert_eq!(g.predecessors(&e), vec![a]);
        assert!(g.predecessors(&a).is_empty());
        assert_eq!(g.edge_count(), 1, "an edge is stored once");
    }

    #[test]
    fn union_keeps_dominant_color_and_intersects_intervals() {
        let mut g1 = ProvenanceGraph::new();
        let mut v = exist_open(1, 10);
        v.color = Color::Yellow;
        let id = upsert_id(&mut g1, v);

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
        let shared = g1.id(shared);
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
                delta: TupleDelta::plus(tup(1)),
                time: 3,
            },
            Color::Black,
        ));
        let recv = g.upsert(Vertex::new(
            VertexKind::Receive {
                node: NodeId(2),
                peer: NodeId(1),
                delta: TupleDelta::plus(tup(1)),
                time: 4,
            },
            Color::Black,
        ));
        g.add_edge(send, recv);
        let (send, recv) = (g.id(send), g.id(recv));
        let appear2 = upsert_id(&mut g, appear(2, 4));

        let proj = g.project(NodeId(2));
        assert!(proj.contains(&recv));
        assert!(proj.contains(&send), "boundary send vertex must be kept");
        assert_eq!(
            proj.vertex(&send).unwrap().color,
            Color::Yellow,
            "remote boundary vertex is yellow"
        );
        assert!(proj.contains(&appear2));
        assert!(proj.has_edge(&send, &recv));

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

    /// The reference the arena representation is checked against: the graph
    /// as ordered maps keyed by vertex id, every lookup a scan in id order.
    #[derive(Clone, Default)]
    struct Model {
        vertices: BTreeMap<VertexId, Vertex>,
        edges: BTreeSet<(VertexId, VertexId)>,
    }

    impl Model {
        fn upsert(&mut self, vertex: Vertex) -> VertexId {
            let id = vertex.id();
            match self.vertices.get_mut(&id) {
                Some(existing) => merge_vertex(existing, &vertex),
                None => {
                    self.vertices.insert(id, vertex);
                }
            }
            id
        }

        fn add_edge(&mut self, from: VertexId, to: VertexId) {
            if from != to {
                self.edges.insert((from, to));
            }
        }

        fn union_in_place(&mut self, other: &Model) {
            for vertex in other.vertices.values() {
                self.upsert(vertex.clone());
            }
            self.edges.extend(&other.edges);
        }

        fn project(&self, node: NodeId) -> Model {
            let mut out = Model::default();
            for (id, vertex) in &self.vertices {
                if vertex.host() == node {
                    out.vertices.insert(*id, vertex.clone());
                }
            }
            for (from, to) in &self.edges {
                let local = |id: &VertexId| self.vertices[id].host() == node;
                if !local(from) && !local(to) {
                    continue;
                }
                for end in [from, to] {
                    let kind = &self.vertices[end].kind;
                    if !local(end) && matches!(kind, VertexKind::Send { .. } | VertexKind::Receive { .. }) {
                        out.vertices
                            .entry(*end)
                            .or_insert_with(|| Vertex::new(kind.clone(), Color::Yellow));
                    }
                }
                if out.vertices.contains_key(from) && out.vertices.contains_key(to) {
                    out.edges.insert((*from, *to));
                }
            }
            out
        }

        fn is_subgraph_of(&self, other: &Model) -> bool {
            self.vertices.iter().all(|(id, mine)| {
                other
                    .vertices
                    .get(id)
                    .is_some_and(|theirs| theirs.color.dominant(mine.color) == theirs.color)
            }) && self.edges.is_subset(&other.edges)
        }

        fn predecessors(&self, id: &VertexId) -> Vec<VertexId> {
            self.edges
                .iter()
                .filter(|(_, to)| to == id)
                .map(|(from, _)| *from)
                .collect()
        }

        fn successors(&self, id: &VertexId) -> Vec<VertexId> {
            self.edges
                .iter()
                .filter(|(from, _)| from == id)
                .map(|(_, to)| *to)
                .collect()
        }

        /// The first vertex in id order whose kind satisfies `f`.
        fn scan(&self, f: impl Fn(&VertexKind) -> bool) -> Option<VertexId> {
            self.vertices.iter().find(|(_, v)| f(&v.kind)).map(|(id, _)| *id)
        }

        fn hosts(&self, f: impl Fn(Color) -> bool) -> BTreeSet<NodeId> {
            self.vertices
                .values()
                .filter(|v| f(v.color))
                .map(Vertex::host)
                .collect()
        }

        /// `query::render_tree` over `query::explain`, on the model.
        fn render_explanation(&self, root: VertexId) -> String {
            fn rec(model: &Model, vertex: VertexId, indent: usize, visited: &mut BTreeSet<VertexId>, out: &mut String) {
                out.push_str(&"  ".repeat(indent));
                out.push_str(&model.vertices[&vertex].to_string());
                out.push('\n');
                if visited.insert(vertex) {
                    for cause in model.predecessors(&vertex) {
                        rec(model, cause, indent + 1, visited, out);
                    }
                }
            }
            let mut out = String::new();
            rec(self, root, 0, &mut BTreeSet::new(), &mut out);
            out
        }
    }

    /// What the walk draws vertices, patterns and query arguments from.
    struct Vocabulary {
        nodes: [NodeId; 3],
        tuples: Vec<Tuple>,
        patterns: Vec<Tuple>,
        times: u64,
    }

    /// Everything observable about `g` — iteration orders, adjacency, every
    /// keyed and pattern lookup over the whole vocabulary, verdict sets,
    /// rendering — against the same question asked of the model.
    fn assert_matches_model(g: &ProvenanceGraph, model: &Model, v: &Vocabulary, step: &str) {
        let id_of = |handle: Option<VertexHandle>| handle.map(|h| g.id(h));
        assert_eq!(g.vertex_count(), model.vertices.len(), "{step}: vertex_count");
        assert_eq!(g.edge_count(), model.edges.len(), "{step}: edge_count");
        assert!(
            g.vertices().eq(model.vertices.iter()),
            "{step}: vertices() in id order with the model's contents"
        );
        assert!(g.edges().eq(model.edges.iter().copied()), "{step}: edges() in order");
        for (id, vertex) in &model.vertices {
            assert_eq!(g.vertex(id), Some(vertex), "{step}: vertex({id:?})");
            assert_eq!(id_of(g.handle(id)), Some(*id), "{step}: handle / id round trip");
            assert_eq!(g.predecessors(id), model.predecessors(id), "{step}: predecessors");
            assert_eq!(g.successors(id), model.successors(id), "{step}: successors");
            for (other, _) in model.vertices.iter().take(6) {
                assert_eq!(
                    g.has_edge(id, other),
                    model.edges.contains(&(*id, *other)),
                    "{step}: has_edge"
                );
            }
        }
        // Explanations of a sample of roots spread over the id order.
        for id in model.vertices.keys().step_by(model.vertices.len() / 8 + 1) {
            assert_eq!(
                query::render_tree(g, &query::explain(g, *id), Direction::Causes),
                model.render_explanation(*id),
                "{step}: rendered explanation of {id:?}"
            );
        }
        assert_eq!(
            g.faulty_nodes(),
            model.hosts(|c| c == Color::Red),
            "{step}: faulty_nodes"
        );
        assert_eq!(
            g.suspect_nodes(),
            model.hosts(|c| c != Color::Black),
            "{step}: suspect_nodes"
        );
        for &node in &v.nodes {
            assert!(
                g.vertices_on(node)
                    .eq(model.vertices.iter().filter(|(_, vertex)| vertex.host() == node)),
                "{step}: vertices_on({node})"
            );
            for tuple in &v.tuples {
                let about = |k: &VertexKind| k.host() == node && k.tuple() == tuple;
                let open_exist = model.scan(|k| about(k) && matches!(k, VertexKind::Exist { until: None, .. }));
                let open_believe = model.scan(|k| about(k) && matches!(k, VertexKind::Believe { until: None, .. }));
                assert_eq!(id_of(g.open_exist(node, tuple)), open_exist, "{step}: open_exist");
                assert_eq!(id_of(g.open_believe(node, tuple)), open_believe, "{step}: open_believe");
                for &peer in &v.nodes {
                    for polarity in [Polarity::Plus, Polarity::Minus] {
                        let send = |time: Option<Timestamp>| {
                            model.scan(|k| {
                                about(k)
                                    && matches!(k, VertexKind::Send { peer: p, delta, time: t, .. }
                                        if *p == peer && delta.polarity == polarity && time.map_or(true, |x| x == *t))
                            })
                        };
                        assert_eq!(
                            id_of(g.find_send(node, peer, tuple, polarity, None)),
                            send(None),
                            "{step}: find_send"
                        );
                        for time in 0..v.times {
                            assert_eq!(
                                id_of(g.find_send(node, peer, tuple, polarity, Some(time))),
                                send(Some(time)),
                                "{step}: find_send at {time}"
                            );
                        }
                        assert_eq!(
                            id_of(g.find_receive(node, peer, tuple, polarity)),
                            model.scan(|k| about(k)
                                && matches!(k, VertexKind::Receive { peer: p, delta, .. }
                                    if *p == peer && delta.polarity == polarity)),
                            "{step}: find_receive"
                        );
                    }
                }
                for time in 0..v.times {
                    let at = |f: &dyn Fn(&VertexKind) -> bool| model.scan(|k| about(k) && f(k));
                    let appear = at(&|k| matches!(k, VertexKind::Appear { time: t, .. } if *t == time));
                    let disappear = at(&|k| matches!(k, VertexKind::Disappear { time: t, .. } if *t == time));
                    let believe_appear = at(&|k| matches!(k, VertexKind::BelieveAppear { time: t, .. } if *t == time));
                    let believe_disappear =
                        at(&|k| matches!(k, VertexKind::BelieveDisappear { time: t, .. } if *t == time));
                    assert_eq!(id_of(g.appear_at(node, tuple, time)), appear, "{step}: appear_at");
                    assert_eq!(
                        id_of(g.disappear_at(node, tuple, time)),
                        disappear,
                        "{step}: disappear_at"
                    );
                    assert_eq!(
                        id_of(g.believe_appear_at(node, tuple, time)),
                        believe_appear,
                        "{step}: believe_appear_at"
                    );
                    assert_eq!(
                        id_of(g.believe_disappear_at(node, tuple, time)),
                        believe_disappear,
                        "{step}: believe_disappear_at"
                    );
                    assert_eq!(
                        id_of(g.exist_covering(node, tuple, time)),
                        at(&|k| matches!(k, VertexKind::Exist { from, until, .. }
                            if *from <= time && until.map_or(true, |u| time <= u))),
                        "{step}: exist_covering"
                    );
                    // The GCA's one-pass body lookup against the four it replaced.
                    assert_eq!(
                        id_of(g.body_vertex(node, tuple, time, true)),
                        believe_appear.or(appear).or(open_believe).or(open_exist),
                        "{step}: body_vertex of an appearance"
                    );
                    assert_eq!(
                        id_of(g.body_vertex(node, tuple, time, false)),
                        believe_disappear.or(disappear).or(open_believe).or(open_exist),
                        "{step}: body_vertex of a disappearance"
                    );
                }
            }
            for pattern in &v.patterns {
                let covered = |k: &VertexKind| k.host() == node && pattern.covers(k.tuple());
                let interval = |k: &VertexKind| match k {
                    VertexKind::Exist { from, until, .. } | VertexKind::Believe { from, until, .. } => {
                        Some((*from, *until))
                    }
                    _ => None,
                };
                for at in std::iter::once(None).chain((0..v.times).map(Some)) {
                    let covers = |k: &VertexKind| {
                        covered(k)
                            && interval(k).is_some_and(|(from, until)| match at {
                                None => until.is_none(),
                                Some(t) => from <= t && until.map_or(true, |u| t <= u),
                            })
                    };
                    assert_eq!(
                        g.existence_matching(node, pattern, at),
                        model.scan(covers),
                        "{step}: existence_matching"
                    );
                }
                for time in 0..2 * v.times {
                    let gone = |k: &VertexKind| {
                        covered(k)
                            && matches!(k, VertexKind::Disappear { time: t, .. } | VertexKind::BelieveDisappear { time: t, .. }
                                if *t <= time)
                    };
                    assert_eq!(
                        g.latest_disappearance_matching(node, pattern, time),
                        model
                            .vertices
                            .iter()
                            .filter(|(_, vertex)| gone(&vertex.kind))
                            .map(|(id, vertex)| (*id, vertex.kind.time()))
                            .max_by_key(|(id, t)| (*t, *id)),
                        "{step}: latest_disappearance_matching"
                    );
                    for after in 0..time {
                        assert_eq!(
                            g.appearance_matching_in(node, pattern, after, time),
                            model.vertices.values().any(|vertex| covered(&vertex.kind)
                                && matches!(&vertex.kind, VertexKind::Appear { time: t, .. } | VertexKind::BelieveAppear { time: t, .. }
                                    if *t > after && *t <= time)),
                            "{step}: appearance_matching_in"
                        );
                    }
                }
                for &peer in &v.nodes {
                    for polarity in [Polarity::Plus, Polarity::Minus] {
                        assert_eq!(
                            g.find_send_matching(node, peer, pattern, polarity),
                            model
                                .vertices
                                .iter()
                                .filter(|(_, vertex)| covered(&vertex.kind)
                                    && matches!(&vertex.kind, VertexKind::Send { peer: p, delta, .. }
                                        if *p == peer && delta.polarity == polarity))
                                .map(|(id, vertex)| (vertex.kind.time(), *id))
                                .max()
                                .map(|(_, id)| id),
                            "{step}: find_send_matching"
                        );
                    }
                }
            }
            for at in std::iter::once(None).chain((0..v.times).map(Some)) {
                let present: BTreeSet<Tuple> = model
                    .vertices
                    .values()
                    .filter_map(|vertex| match &vertex.kind {
                        VertexKind::Exist { tuple, from, until, .. }
                        | VertexKind::Believe { tuple, from, until, .. }
                            if vertex.host() == node
                                && match at {
                                    None => until.is_none(),
                                    Some(t) => *from <= t && until.map_or(true, |u| t <= u),
                                } =>
                        {
                            Some(tuple.clone())
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    g.present_tuples_at(node, at),
                    present.into_iter().collect::<Vec<_>>(),
                    "{step}: present_tuples_at"
                );
            }
        }
        assert_eq!(
            g.horizon(),
            model
                .vertices
                .values()
                .map(|vertex| match &vertex.kind {
                    VertexKind::Exist { from, until, .. } | VertexKind::Believe { from, until, .. } =>
                        until.unwrap_or(*from),
                    other => other.time(),
                })
                .max()
                .unwrap_or(0),
            "{step}: horizon"
        );
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
        let vocabulary = Vocabulary {
            nodes,
            patterns: vec![
                tuples[0].clone(),
                Tuple::new("t", nodes[0], vec![Value::Wild]),
                Tuple::new("t", nodes[1], vec![Value::Wild]),
            ],
            tuples: tuples.clone(),
            times: TIMES,
        };
        let pick = |rng: &mut DetRng, n: usize| rng.next_below(n as u64) as usize;
        let random_vertex = |rng: &mut DetRng| {
            let (node, peer) = (nodes[pick(rng, 3)], nodes[pick(rng, 3)]);
            let tuple = tuples[pick(rng, tuples.len())].clone();
            let time = rng.next_below(TIMES);
            let until = (rng.next_below(2) == 0).then(|| time + rng.next_below(TIMES));
            let delta = if rng.next_below(2) == 0 {
                TupleDelta::plus(tuple.clone())
            } else {
                TupleDelta::minus(tuple.clone())
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
        let random_id = |rng: &mut DetRng, model: &Model| {
            let ids: Vec<VertexId> = model.vertices.keys().copied().collect();
            (!ids.is_empty()).then(|| ids[pick(rng, ids.len())])
        };
        // A pair of vertices Table 1 lets an edge join, if a few draws find one.
        let random_edge = |rng: &mut DetRng, model: &Model| {
            (0..12).find_map(|_| {
                let (from, to) = (random_id(rng, model)?, random_id(rng, model)?);
                let kind = |id: &VertexId| model.vertices[id].kind.kind_name();
                edge_allowed(kind(&from), kind(&to)).then_some((from, to))
            })
        };

        for seed in 0..4u64 {
            let mut rng = DetRng::new(seed);
            // The same walk on two graphs: each has its own hasher keys, so
            // anything that leaked a hash map's order would split them.
            let mut graphs = [ProvenanceGraph::new(), ProvenanceGraph::new()];
            assert_ne!(
                graphs[0].about.hasher().hash_one(0u64),
                graphs[1].about.hasher().hash_one(0u64),
                "the two graphs must hash under different keys"
            );
            let mut model = Model::default();
            for step in 0..120 {
                let op = rng.next_below(12);
                let label = format!("seed {seed} step {step} op {op}");
                match op {
                    0..=3 => {
                        let vertex = random_vertex(&mut rng);
                        let id = model.upsert(vertex.clone());
                        for g in &mut graphs {
                            let handle = g.upsert(vertex.clone());
                            assert_eq!(g.id(handle), id, "{label}: upsert returns the vertex's handle");
                        }
                    }
                    4 | 5 => {
                        if let Some((from, to)) = random_edge(&mut rng, &model) {
                            model.add_edge(from, to);
                            for g in &mut graphs {
                                let (from, to) = (g.handle(&from).unwrap(), g.handle(&to).unwrap());
                                g.add_edge(from, to);
                            }
                        }
                    }
                    6 => {
                        if let Some(id) = random_id(&mut rng, &model) {
                            let end = rng.next_below(2 * TIMES);
                            if let Some(VertexKind::Exist { until, .. } | VertexKind::Believe { until, .. }) =
                                model.vertices.get_mut(&id).map(|vertex| &mut vertex.kind)
                            {
                                *until = until.or(Some(end));
                            }
                            for g in &mut graphs {
                                let handle = g.handle(&id).unwrap();
                                g.close_interval(handle, end);
                            }
                        }
                    }
                    7 | 8 => {
                        if let Some(id) = random_id(&mut rng, &model) {
                            let color = [Color::Yellow, Color::Black, Color::Red][pick(&mut rng, 3)];
                            let vertex = model.vertices.get_mut(&id).unwrap();
                            vertex.color = if op == 7 { vertex.color.dominant(color) } else { color };
                            for g in &mut graphs {
                                let handle = g.handle(&id).unwrap();
                                if op == 7 {
                                    g.set_color(handle, color);
                                } else {
                                    g.force_color(handle, color);
                                }
                            }
                        }
                    }
                    9 | 10 => {
                        // Union with a graph that overlaps `g` (same
                        // vocabulary) and links some of its vertices.
                        let mut other = ProvenanceGraph::new();
                        let mut other_model = Model::default();
                        for _ in 0..8 {
                            let vertex = random_vertex(&mut rng);
                            other_model.upsert(vertex.clone());
                            other.upsert(vertex);
                        }
                        for _ in 0..4 {
                            if let Some((from, to)) = random_edge(&mut rng, &other_model) {
                                other_model.add_edge(from, to);
                                other.add_edge(other.handle(&from).unwrap(), other.handle(&to).unwrap());
                            }
                        }
                        assert_eq!(
                            other_model.is_subgraph_of(&model),
                            other.is_subgraph_of(&graphs[0]),
                            "{label}: is_subgraph_of before the union"
                        );
                        model.union_in_place(&other_model);
                        for g in &mut graphs {
                            g.union_in_place(&other);
                            assert!(other.is_subgraph_of(g), "{label}: a part is a subgraph of the union");
                        }
                    }
                    _ => {
                        // Projections shrink the graph: take them rarely.
                        if step % 40 == 39 {
                            let node = nodes[pick(&mut rng, 3)];
                            let projected = model.project(node);
                            for g in &mut graphs {
                                let small = g.project(node);
                                assert!(small.is_subgraph_of(g), "{label}: a projection is a subgraph");
                                *g = small;
                            }
                            model = projected;
                        }
                    }
                }
                for g in &graphs {
                    assert_matches_model(g, &model, &vocabulary, &label);
                }
                assert_eq!(
                    format!("{:?}", graphs[0]),
                    format!("{:?}", graphs[1]),
                    "{label}: Debug output"
                );
            }
            assert!(
                model.vertices.len() > 20 && model.edges.len() > 5,
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
