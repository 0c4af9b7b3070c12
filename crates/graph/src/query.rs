//! Graph traversal helpers used by macroqueries.
//!
//! The query processor (§5.1) answers *why* questions by walking the graph
//! backwards from a vertex to its root causes (base-tuple insertions or red
//! vertices), *effect* questions by walking forwards, and supports a scope
//! parameter `k` that bounds the exploration radius.

use crate::graph::ProvenanceGraph;
use crate::vertex::{Color, VertexId, VertexKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The result of a traversal: the visited vertices, their depths, and the
/// edges among them.
#[derive(Clone, Debug)]
pub struct Traversal {
    /// Visited vertices with their distance from the root.
    pub depths: BTreeMap<VertexId, usize>,
    /// Edges among visited vertices, in `(from, to)` provenance direction.
    pub edges: BTreeSet<(VertexId, VertexId)>,
    /// The root the traversal started from.
    pub root: VertexId,
}

impl Traversal {
    /// An empty traversal rooted at `root`.
    fn empty(root: VertexId) -> Traversal {
        Traversal {
            depths: BTreeMap::new(),
            edges: BTreeSet::new(),
            root,
        }
    }
}

impl Traversal {
    /// Vertices visited, in breadth-first order (by depth, then id).
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut v: Vec<(usize, VertexId)> = self.depths.iter().map(|(id, d)| (*d, *id)).collect();
        v.sort();
        v.into_iter().map(|(_, id)| id).collect()
    }

    /// Number of visited vertices.
    pub fn len(&self) -> usize {
        self.depths.len()
    }

    /// Whether only the root was visited.
    pub fn is_empty(&self) -> bool {
        self.depths.len() <= 1
    }
}

/// Direction of a traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Towards causes (follow edges backwards).
    Causes,
    /// Towards effects (follow edges forwards).
    Effects,
}

/// Breadth-first traversal from `root` in the given direction, bounded by
/// `scope` hops (`None` = unbounded).
pub fn traverse(graph: &ProvenanceGraph, root: VertexId, direction: Direction, scope: Option<usize>) -> Traversal {
    let mut out = Traversal::empty(root);
    if !graph.contains(&root) {
        return out;
    }
    let mut queue = VecDeque::new();
    queue.push_back((root, 0usize));
    out.depths.insert(root, 0);
    while let Some((vertex, depth)) = queue.pop_front() {
        if let Some(limit) = scope {
            if depth >= limit {
                continue;
            }
        }
        let next = match direction {
            Direction::Causes => graph.predecessors(&vertex),
            Direction::Effects => graph.successors(&vertex),
        };
        for n in next {
            let edge = match direction {
                Direction::Causes => (n, vertex),
                Direction::Effects => (vertex, n),
            };
            out.edges.insert(edge);
            if let std::collections::btree_map::Entry::Vacant(e) = out.depths.entry(n) {
                e.insert(depth + 1);
                queue.push_back((n, depth + 1));
            }
        }
    }
    out
}

/// The *explanation* (provenance subtree) of a vertex: every transitive cause.
pub fn explain(graph: &ProvenanceGraph, root: VertexId) -> Traversal {
    traverse(graph, root, Direction::Causes, None)
}

/// The forward slice of a vertex: everything derived from it (used for damage
/// assessment, §2.2 "causal queries").
pub fn affected(graph: &ProvenanceGraph, root: VertexId) -> Traversal {
    traverse(graph, root, Direction::Effects, None)
}

/// The leaves of an explanation: vertices with no further causes.  For a
/// legitimate explanation these are base-tuple `insert` / `delete` vertices
/// (§3.2: "The leaves of this subtree consist of base tuple insertions or
/// deletions, which require no further explanation") or `checkpoint`
/// vertices, whose pre-checkpoint provenance was truncated but whose
/// existence at the epoch boundary is vouched for by a verified signed
/// checkpoint (§5.6).  Negative explanations additionally bottom out at
/// `absence` vertices (a base tuple that was never inserted needs no further
/// explanation) and at `missing-precondition` vertices whose deriving rule
/// was filtered by a constraint or policy; an *unverified* missing
/// precondition never stays a black leaf — a refused or unknown would-be
/// sender leaves yellow audit evidence that fails the all-black check.
pub fn root_causes(graph: &ProvenanceGraph, traversal: &Traversal) -> Vec<VertexId> {
    traversal
        .depths
        .keys()
        .filter(|id| graph.predecessors(id).is_empty())
        .copied()
        .collect()
}

/// Whether an explanation is fully legitimate: every vertex black and every
/// leaf a base-tuple event.
pub fn is_legitimate_explanation(graph: &ProvenanceGraph, traversal: &Traversal) -> bool {
    let all_black = traversal
        .depths
        .keys()
        .all(|id| graph.vertex(id).map(|v| v.color == Color::Black).unwrap_or(false));
    if !all_black {
        return false;
    }
    root_causes(graph, traversal).iter().all(|id| {
        matches!(
            graph.vertex(id).map(|v| &v.kind),
            Some(VertexKind::Insert { .. })
                | Some(VertexKind::Delete { .. })
                | Some(VertexKind::Checkpoint { .. })
                | Some(VertexKind::Absence { .. })
                | Some(VertexKind::MissingPrecondition { .. })
        )
    })
}

/// Render a traversal as an indented text tree rooted at `root` (used by the
/// examples and the Figure 4 harness to print provenance trees).
pub fn render_tree(graph: &ProvenanceGraph, traversal: &Traversal, direction: Direction) -> String {
    let mut out = String::new();
    let mut visited = BTreeSet::new();
    render_rec(graph, traversal, traversal.root, direction, 0, &mut visited, &mut out);
    out
}

fn render_rec(
    graph: &ProvenanceGraph,
    traversal: &Traversal,
    vertex: VertexId,
    direction: Direction,
    indent: usize,
    visited: &mut BTreeSet<VertexId>,
    out: &mut String,
) {
    let Some(v) = graph.vertex(&vertex) else { return };
    out.push_str(&"  ".repeat(indent));
    out.push_str(&v.to_string());
    out.push('\n');
    if !visited.insert(vertex) {
        return;
    }
    let next = match direction {
        Direction::Causes => graph.predecessors(&vertex),
        Direction::Effects => graph.successors(&vertex),
    };
    for n in next {
        if traversal.depths.contains_key(&n) {
            render_rec(graph, traversal, n, direction, indent + 1, visited, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::{Color, Vertex, VertexKind};
    use snp_crypto::keys::NodeId;
    use snp_datalog::{Tuple, Value};

    fn tup(name: &str) -> Tuple {
        Tuple::new(name, NodeId(1), vec![Value::Int(1)])
    }

    /// insert(base) -> appear(base) -> derive(derived) -> appear(derived) -> exist(derived)
    fn chain_graph() -> (ProvenanceGraph, Vec<VertexId>) {
        let mut g = ProvenanceGraph::new();
        let insert = g.upsert(Vertex::new(
            VertexKind::Insert {
                node: NodeId(1),
                tuple: tup("base"),
                time: 1,
            },
            Color::Black,
        ));
        let appear_base = g.upsert(Vertex::new(
            VertexKind::Appear {
                node: NodeId(1),
                tuple: tup("base"),
                time: 1,
            },
            Color::Black,
        ));
        let derive = g.upsert(Vertex::new(
            VertexKind::Derive {
                node: NodeId(1),
                tuple: tup("derived"),
                rule: "R1".into(),
                time: 1,
            },
            Color::Black,
        ));
        let appear_derived = g.upsert(Vertex::new(
            VertexKind::Appear {
                node: NodeId(1),
                tuple: tup("derived"),
                time: 1,
            },
            Color::Black,
        ));
        let exist = g.upsert(Vertex::new(
            VertexKind::Exist {
                node: NodeId(1),
                tuple: tup("derived"),
                from: 1,
                until: None,
            },
            Color::Black,
        ));
        g.add_edge(insert, appear_base);
        g.add_edge(appear_base, derive);
        g.add_edge(derive, appear_derived);
        g.add_edge(appear_derived, exist);
        let ids = [insert, appear_base, derive, appear_derived, exist].map(|v| g.id(v));
        (g, ids.to_vec())
    }

    #[test]
    fn explain_reaches_base_insert() {
        let (g, ids) = chain_graph();
        let t = explain(&g, ids[4]);
        assert_eq!(t.len(), 5);
        let roots = root_causes(&g, &t);
        assert_eq!(roots, vec![ids[0]]);
        assert!(is_legitimate_explanation(&g, &t));
    }

    #[test]
    fn affected_walks_forward() {
        let (g, ids) = chain_graph();
        let t = affected(&g, ids[0]);
        assert_eq!(t.len(), 5);
        let t_mid = affected(&g, ids[2]);
        assert_eq!(t_mid.len(), 3);
    }

    #[test]
    fn scope_limits_depth() {
        let (g, ids) = chain_graph();
        let t = traverse(&g, ids[4], Direction::Causes, Some(2));
        assert_eq!(t.len(), 3, "root + two hops");
        let t0 = traverse(&g, ids[4], Direction::Causes, Some(0));
        assert!(t0.is_empty());
    }

    #[test]
    fn red_vertex_makes_explanation_illegitimate() {
        let (mut g, ids) = chain_graph();
        g.set_color(g.handle(&ids[1]).unwrap(), Color::Red);
        let t = explain(&g, ids[4]);
        assert!(!is_legitimate_explanation(&g, &t));
    }

    #[test]
    fn explanation_without_base_leaf_is_illegitimate() {
        // A derive with no predecessors (dangling provenance) is suspicious.
        let mut g = ProvenanceGraph::new();
        let derive = g.upsert(Vertex::new(
            VertexKind::Derive {
                node: NodeId(1),
                tuple: tup("derived"),
                rule: "R1".into(),
                time: 1,
            },
            Color::Black,
        ));
        let t = explain(&g, g.id(derive));
        assert!(!is_legitimate_explanation(&g, &t));
    }

    #[test]
    fn traversal_of_missing_root_is_empty() {
        let (g, _) = chain_graph();
        let bogus = VertexKind::Insert {
            node: NodeId(9),
            tuple: tup("zzz"),
            time: 9,
        }
        .identity();
        let t = explain(&g, bogus);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn render_tree_contains_all_lines() {
        let (g, ids) = chain_graph();
        let t = explain(&g, ids[4]);
        let text = render_tree(&g, &t, Direction::Causes);
        assert!(text.contains("EXIST"));
        assert!(text.contains("DERIVE"));
        assert!(text.contains("INSERT"));
        assert_eq!(text.lines().count(), 5);
    }
}
