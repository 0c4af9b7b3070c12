//! Vertex types, colors and identities.

use snp_crypto::keys::NodeId;
use snp_crypto::Digest;
use snp_datalog::{Polarity, Tuple, TupleDelta};
use std::fmt;

/// Node-local timestamps, in microseconds (§3.2: "The timestamps t should be
/// interpreted relative to node n").
pub type Timestamp = u64;

/// Vertex colors (§3.2 and §4.2).
///
/// * `Yellow` — the vertex's true color is not yet known (e.g. the hosting
///   node has not yet responded to a `retrieve`).
/// * `Black` — the vertex is legitimate.
/// * `Red` — the vertex is evidence of misbehavior on `host(v)`.
///
/// The order `red > black > yellow` is the *dominance* order of Appendix B.2;
/// graph union keeps the dominant color.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Color {
    /// True color not yet known.
    Yellow,
    /// Legitimate.
    Black,
    /// Evidence of misbehavior.
    Red,
}

impl Color {
    /// The dominant of two colors (`red > black > yellow`).
    pub fn dominant(self, other: Color) -> Color {
        self.max(other)
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Color::Yellow => write!(f, "yellow"),
            Color::Black => write!(f, "black"),
            Color::Red => write!(f, "red"),
        }
    }
}

/// The twelve vertex kinds of the SNP provenance graph (§3.2), plus the
/// `checkpoint` leaf produced by checkpoint-anchored suffix replay (§5.6).
///
/// `exist` and `believe` vertices carry an interval whose upper end is `None`
/// while the tuple still exists / is still believed; all other kinds carry a
/// single timestamp.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VertexKind {
    /// Base tuple `tuple` was inserted on `node` at `time`.
    Insert {
        /// Hosting node.
        node: NodeId,
        /// The inserted base tuple.
        tuple: Tuple,
        /// Local time of the insertion.
        time: Timestamp,
    },
    /// Base tuple `tuple` was deleted on `node` at `time`.
    Delete {
        /// Hosting node.
        node: NodeId,
        /// The deleted base tuple.
        tuple: Tuple,
        /// Local time of the deletion.
        time: Timestamp,
    },
    /// Tuple `tuple` appeared on `node` at `time`.
    Appear {
        /// Hosting node.
        node: NodeId,
        /// The tuple that appeared.
        tuple: Tuple,
        /// Local time of the appearance.
        time: Timestamp,
    },
    /// Tuple `tuple` disappeared from `node` at `time`.
    Disappear {
        /// Hosting node.
        node: NodeId,
        /// The tuple that disappeared.
        tuple: Tuple,
        /// Local time of the disappearance.
        time: Timestamp,
    },
    /// Tuple `tuple` existed on `node` during `[from, until]`.
    Exist {
        /// Hosting node.
        node: NodeId,
        /// The existing tuple.
        tuple: Tuple,
        /// Start of the interval.
        from: Timestamp,
        /// End of the interval; `None` while the tuple still exists.
        until: Option<Timestamp>,
    },
    /// Tuple `tuple` was derived on `node` via `rule` at `time`.
    Derive {
        /// Hosting (deriving) node.
        node: NodeId,
        /// The derived tuple.
        tuple: Tuple,
        /// Identifier of the rule that fired.
        rule: String,
        /// Local time of the derivation.
        time: Timestamp,
    },
    /// Tuple `tuple` was underived on `node` via `rule` at `time`.
    Underive {
        /// Hosting node.
        node: NodeId,
        /// The underived tuple.
        tuple: Tuple,
        /// Identifier of the rule.
        rule: String,
        /// Local time of the underivation.
        time: Timestamp,
    },
    /// At `time`, `node` sent `±tuple` to `peer`.
    Send {
        /// Sending node (the host).
        node: NodeId,
        /// Destination node.
        peer: NodeId,
        /// The notification that was sent.
        delta: TupleDelta,
        /// Local send time (as stamped by the sender).
        time: Timestamp,
    },
    /// At `time`, `node` received `±tuple` from `peer`.
    Receive {
        /// Receiving node (the host).
        node: NodeId,
        /// Originating node.
        peer: NodeId,
        /// The notification that was received.
        delta: TupleDelta,
        /// Local receive time.
        time: Timestamp,
    },
    /// At `time`, `node` learned that `tuple` appeared on `peer`.
    BelieveAppear {
        /// Believing node (the host).
        node: NodeId,
        /// The node the belief is about.
        peer: NodeId,
        /// The tuple believed to have appeared.
        tuple: Tuple,
        /// Local time the belief was formed.
        time: Timestamp,
    },
    /// At `time`, `node` learned that `tuple` disappeared from `peer`.
    BelieveDisappear {
        /// Believing node (the host).
        node: NodeId,
        /// The node the belief is about.
        peer: NodeId,
        /// The tuple believed to have disappeared.
        tuple: Tuple,
        /// Local time the belief was dropped.
        time: Timestamp,
    },
    /// During `[from, until]`, `node` believed `tuple` existed on `peer`.
    Believe {
        /// Believing node (the host).
        node: NodeId,
        /// The node the belief is about.
        peer: NodeId,
        /// The believed tuple.
        tuple: Tuple,
        /// Start of the belief interval.
        from: Timestamp,
        /// End of the interval; `None` while the belief still holds.
        until: Option<Timestamp>,
    },
    /// `tuple` was recorded on `node` by a verified epoch checkpoint sealed
    /// at `time` (§5.6).  Checkpoint vertices are the legitimate leaves of
    /// explanations produced by checkpoint-anchored suffix replay: the
    /// tuple's pre-checkpoint provenance was truncated, but its existence at
    /// the boundary is vouched for by the node's signed Merkle checkpoint.
    Checkpoint {
        /// Hosting node.
        node: NodeId,
        /// The checkpointed tuple.
        tuple: Tuple,
        /// Local time the checkpoint was sealed.
        time: Timestamp,
    },
    /// No tuple matching `tuple` (a possibly wildcarded pattern) existed on
    /// `node` at `time` — a *verified negative*, established by replaying the
    /// node's tamper-evident log and finding no covering existence interval.
    /// Negative provenance (`why_absent`) anchors at an `absence` vertex; its
    /// predecessors are either the `disappear` event that ended the tuple's
    /// last existence interval, or the `missing-precondition` vertices
    /// explaining why it could never be derived.  An absence with no
    /// predecessors is a base-tuple that was simply never inserted — a
    /// legitimate leaf, the negative analogue of `insert`.
    Absence {
        /// The node the absence is about.
        node: NodeId,
        /// The missing tuple (pattern).
        tuple: Tuple,
        /// The instant of interest.
        time: Timestamp,
    },
    /// A precondition that would have let a tuple be derived on `node` was
    /// itself missing at `time`: `rule` could have fired, but no tuple
    /// matching `tuple` was available — either never derivable locally
    /// (`peer` = `None`; explained by a predecessor `absence` vertex) or
    /// never received from the candidate sender `peer` (explained by the
    /// sender's own `absence`, or by its red `send` vertex when it logged a
    /// send it never delivered).
    MissingPrecondition {
        /// The node whose derivation was blocked.
        node: NodeId,
        /// The missing precondition tuple (pattern).
        tuple: Tuple,
        /// The rule (or policy) that could have fired, if known.
        rule: Option<String>,
        /// The candidate sender, for never-received message preconditions.
        peer: Option<NodeId>,
        /// The instant of interest.
        time: Timestamp,
    },
}

impl VertexKind {
    /// The node responsible for this vertex (`host(v)` in the paper).
    pub fn host(&self) -> NodeId {
        match self {
            VertexKind::Insert { node, .. }
            | VertexKind::Delete { node, .. }
            | VertexKind::Appear { node, .. }
            | VertexKind::Disappear { node, .. }
            | VertexKind::Exist { node, .. }
            | VertexKind::Derive { node, .. }
            | VertexKind::Underive { node, .. }
            | VertexKind::Send { node, .. }
            | VertexKind::Receive { node, .. }
            | VertexKind::BelieveAppear { node, .. }
            | VertexKind::BelieveDisappear { node, .. }
            | VertexKind::Believe { node, .. }
            | VertexKind::Checkpoint { node, .. }
            | VertexKind::Absence { node, .. }
            | VertexKind::MissingPrecondition { node, .. } => *node,
        }
    }

    /// The tuple the vertex talks about.
    pub fn tuple(&self) -> &Tuple {
        match self {
            VertexKind::Insert { tuple, .. }
            | VertexKind::Delete { tuple, .. }
            | VertexKind::Appear { tuple, .. }
            | VertexKind::Disappear { tuple, .. }
            | VertexKind::Exist { tuple, .. }
            | VertexKind::Derive { tuple, .. }
            | VertexKind::Underive { tuple, .. }
            | VertexKind::BelieveAppear { tuple, .. }
            | VertexKind::BelieveDisappear { tuple, .. }
            | VertexKind::Believe { tuple, .. }
            | VertexKind::Checkpoint { tuple, .. }
            | VertexKind::Absence { tuple, .. }
            | VertexKind::MissingPrecondition { tuple, .. } => tuple,
            VertexKind::Send { delta, .. } | VertexKind::Receive { delta, .. } => &delta.tuple,
        }
    }

    /// The vertex's primary timestamp (start of interval for `exist` /
    /// `believe`).
    pub fn time(&self) -> Timestamp {
        match self {
            VertexKind::Insert { time, .. }
            | VertexKind::Delete { time, .. }
            | VertexKind::Appear { time, .. }
            | VertexKind::Disappear { time, .. }
            | VertexKind::Derive { time, .. }
            | VertexKind::Underive { time, .. }
            | VertexKind::Send { time, .. }
            | VertexKind::Receive { time, .. }
            | VertexKind::BelieveAppear { time, .. }
            | VertexKind::BelieveDisappear { time, .. }
            | VertexKind::Checkpoint { time, .. }
            | VertexKind::Absence { time, .. }
            | VertexKind::MissingPrecondition { time, .. } => *time,
            VertexKind::Exist { from, .. } | VertexKind::Believe { from, .. } => *from,
        }
    }

    /// A short label for the kind (used in Display output and in the edge
    /// compatibility table).
    pub fn kind_name(&self) -> &'static str {
        match self {
            VertexKind::Insert { .. } => "insert",
            VertexKind::Delete { .. } => "delete",
            VertexKind::Appear { .. } => "appear",
            VertexKind::Disappear { .. } => "disappear",
            VertexKind::Exist { .. } => "exist",
            VertexKind::Derive { .. } => "derive",
            VertexKind::Underive { .. } => "underive",
            VertexKind::Send { .. } => "send",
            VertexKind::Receive { .. } => "receive",
            VertexKind::BelieveAppear { .. } => "believe-appear",
            VertexKind::BelieveDisappear { .. } => "believe-disappear",
            VertexKind::Believe { .. } => "believe",
            VertexKind::Checkpoint { .. } => "checkpoint",
            VertexKind::Absence { .. } => "absence",
            VertexKind::MissingPrecondition { .. } => "missing-precondition",
        }
    }

    /// The identity of the vertex: all fields *except* the mutable interval
    /// end of `exist` / `believe` vertices (which the GCA updates in place,
    /// cf. `replace-with` in Figure 10).
    pub fn identity(&self) -> VertexId {
        // `until` is simply never written: every other field is.
        let mut hasher = snp_crypto::Hasher::new();
        hasher.write(self.kind_name().as_bytes());
        hasher.write(&[0]);
        hasher.write(&self.host().to_bytes());
        hasher.write(&self.time().to_be_bytes());
        self.tuple().encode_with(&mut |bytes| hasher.write(bytes));
        match self {
            VertexKind::Send { peer, delta, .. } | VertexKind::Receive { peer, delta, .. } => {
                hasher.write(&peer.to_bytes());
                hasher.write(&[match delta.polarity {
                    Polarity::Plus => b'+',
                    Polarity::Minus => b'-',
                }]);
            }
            VertexKind::BelieveAppear { peer, .. }
            | VertexKind::BelieveDisappear { peer, .. }
            | VertexKind::Believe { peer, .. } => {
                hasher.write(&peer.to_bytes());
            }
            VertexKind::Derive { rule, .. } | VertexKind::Underive { rule, .. } => {
                hasher.write(rule.as_bytes());
            }
            VertexKind::MissingPrecondition { rule, peer, .. } => {
                if let Some(rule) = rule {
                    hasher.write(rule.as_bytes());
                }
                hasher.write(&[0]);
                if let Some(peer) = peer {
                    hasher.write(&peer.to_bytes());
                }
            }
            _ => {}
        }
        VertexId(hasher.finish())
    }
}

impl fmt::Display for VertexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VertexKind::Exist {
                node,
                tuple,
                from,
                until,
            } => {
                write!(
                    f,
                    "EXIST({node}, {tuple}, [{from}, {}])",
                    until.map(|u| u.to_string()).unwrap_or_else(|| "now".into())
                )
            }
            VertexKind::Believe {
                node,
                peer,
                tuple,
                from,
                until,
            } => {
                write!(
                    f,
                    "BELIEVE({node}, {peer}, {tuple}, [{from}, {}])",
                    until.map(|u| u.to_string()).unwrap_or_else(|| "now".into())
                )
            }
            VertexKind::Send {
                node,
                peer,
                delta,
                time,
            } => write!(f, "SEND({node}, {peer}, {delta}, {time})"),
            VertexKind::Receive {
                node,
                peer,
                delta,
                time,
            } => write!(f, "RECEIVE({node}, {peer}, {delta}, {time})"),
            VertexKind::BelieveAppear {
                node,
                peer,
                tuple,
                time,
            } => {
                write!(f, "BELIEVE-APPEAR({node}, {peer}, {tuple}, {time})")
            }
            VertexKind::BelieveDisappear {
                node,
                peer,
                tuple,
                time,
            } => {
                write!(f, "BELIEVE-DISAPPEAR({node}, {peer}, {tuple}, {time})")
            }
            VertexKind::Derive {
                node,
                tuple,
                rule,
                time,
            } => write!(f, "DERIVE({node}, {tuple}, {rule}, {time})"),
            VertexKind::Underive {
                node,
                tuple,
                rule,
                time,
            } => write!(f, "UNDERIVE({node}, {tuple}, {rule}, {time})"),
            VertexKind::MissingPrecondition {
                node,
                tuple,
                rule,
                peer,
                time,
            } => {
                write!(f, "MISSING-PRECONDITION({node}, {tuple}")?;
                if let Some(rule) = rule {
                    write!(f, ", rule {rule}")?;
                }
                if let Some(peer) = peer {
                    write!(f, ", never received from {peer}")?;
                }
                write!(f, ", {time})")
            }
            other => write!(
                f,
                "{}({}, {}, {})",
                other.kind_name().to_uppercase(),
                other.host(),
                other.tuple(),
                other.time()
            ),
        }
    }
}

/// A stable identifier for a vertex (content hash of its identity fields).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub Digest);

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{}", self.0.short())
    }
}

/// A vertex: its kind (identity + interval) plus its current color.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vertex {
    /// The vertex kind and payload.
    pub kind: VertexKind,
    /// The current color.
    pub color: Color,
}

impl Vertex {
    /// Create a vertex with an explicit color.
    pub fn new(kind: VertexKind, color: Color) -> Vertex {
        Vertex { kind, color }
    }

    /// The vertex identity.
    pub fn id(&self) -> VertexId {
        self.kind.identity()
    }

    /// `host(v)`.
    pub fn host(&self) -> NodeId {
        self.kind.host()
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.kind, self.color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::Value;

    fn tuple() -> Tuple {
        Tuple::new("link", NodeId(1), vec![Value::Int(5)])
    }

    #[test]
    fn color_dominance() {
        assert_eq!(Color::Yellow.dominant(Color::Black), Color::Black);
        assert_eq!(Color::Black.dominant(Color::Red), Color::Red);
        assert_eq!(Color::Red.dominant(Color::Yellow), Color::Red);
        assert_eq!(Color::Yellow.dominant(Color::Yellow), Color::Yellow);
    }

    #[test]
    fn exist_identity_ignores_interval_end() {
        let open = VertexKind::Exist {
            node: NodeId(1),
            tuple: tuple(),
            from: 10,
            until: None,
        };
        let closed = VertexKind::Exist {
            node: NodeId(1),
            tuple: tuple(),
            from: 10,
            until: Some(99),
        };
        assert_eq!(open.identity(), closed.identity());
        let different_start = VertexKind::Exist {
            node: NodeId(1),
            tuple: tuple(),
            from: 11,
            until: None,
        };
        assert_ne!(open.identity(), different_start.identity());
    }

    #[test]
    fn different_kinds_have_different_identities() {
        let appear = VertexKind::Appear {
            node: NodeId(1),
            tuple: tuple(),
            time: 10,
        };
        let insert = VertexKind::Insert {
            node: NodeId(1),
            tuple: tuple(),
            time: 10,
        };
        assert_ne!(appear.identity(), insert.identity());
    }

    #[test]
    fn send_identity_includes_polarity_and_peer() {
        let plus = VertexKind::Send {
            node: NodeId(1),
            peer: NodeId(2),
            delta: TupleDelta::plus(tuple()),
            time: 5,
        };
        let minus = VertexKind::Send {
            node: NodeId(1),
            peer: NodeId(2),
            delta: TupleDelta::minus(tuple()),
            time: 5,
        };
        let other_peer = VertexKind::Send {
            node: NodeId(1),
            peer: NodeId(3),
            delta: TupleDelta::plus(tuple()),
            time: 5,
        };
        assert_ne!(plus.identity(), minus.identity());
        assert_ne!(plus.identity(), other_peer.identity());
    }

    #[test]
    fn host_and_tuple_accessors() {
        let v = VertexKind::Derive {
            node: NodeId(7),
            tuple: tuple(),
            rule: "R1".into(),
            time: 3,
        };
        assert_eq!(v.host(), NodeId(7));
        assert_eq!(v.tuple(), &tuple());
        assert_eq!(v.time(), 3);
        assert_eq!(v.kind_name(), "derive");
    }

    #[test]
    fn display_includes_kind_and_color() {
        let v = Vertex::new(
            VertexKind::Appear {
                node: NodeId(1),
                tuple: tuple(),
                time: 4,
            },
            Color::Black,
        );
        let s = v.to_string();
        assert!(s.contains("APPEAR"));
        assert!(s.contains("black"));
    }

    #[test]
    fn derive_identity_includes_rule() {
        let a = VertexKind::Derive {
            node: NodeId(1),
            tuple: tuple(),
            rule: "R1".into(),
            time: 3,
        };
        let b = VertexKind::Derive {
            node: NodeId(1),
            tuple: tuple(),
            rule: "R2".into(),
            time: 3,
        };
        assert_ne!(a.identity(), b.identity());
    }
}
