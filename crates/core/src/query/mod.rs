//! The microquery module and the macroquery processor (§5.1, §5.5), as a
//! plan → parallel-execute → deterministic-merge pipeline.
//!
//! The querier ("Alice") holds the key registry, the expected state machine
//! for every node, and handles to the nodes (so it can invoke `retrieve`).
//! To answer a macroquery it repeatedly *audits* nodes — retrieve, verify,
//! replay, consistency-check — merges the reconstructed per-node subgraphs
//! into its approximation `Gν`, and finally walks the merged graph.
//!
//! Audits of distinct nodes are independent (per-node evidence is causally
//! disjoint until the graph join), so each expansion wave of the macroquery
//! processor is planned as per-`(node, anchor-epoch)` [`plan::AuditUnit`]s
//! and executed by an [`exec::AuditPool`] — serially by default, or fanned
//! out across `query_threads` scoped workers.  Outcomes are merged in plan
//! order (never completion order), so serial and parallel runs produce
//! byte-identical [`QueryResult`]s and stats, modulo the measured
//! `*_seconds` timing fields.
//!
//! Every audit records the download volume and the time spent checking
//! authenticators and replaying, which is exactly the cost breakdown that
//! Figure 8 reports; [`QueryStats::audit_wall_seconds`] additionally tracks
//! the wall-clock time of plan execution, whose ratio to the aggregate
//! verification time is the Figure 9 speedup curve.

pub mod absence;
pub mod cache;
pub mod exec;
pub mod plan;
pub mod result;

pub use exec::AuditPool;
pub use plan::{AuditPlan, AuditUnit};
pub use result::{NodeAudit, QueryResult, QueryStats, SegmentFetch};

use cache::{AuditCache, AuditRecord};
use exec::{AuditContext, PlannedUnit, UnitOutcome};
use result::{diff_stats, merge_stats, StatsMark};

use crate::fleet::{PeerLink, RemotePeer};
use crate::node::SnoopyHandle;
use snp_crypto::keys::{KeyRegistry, NodeId};
use snp_datalog::{MachineFactory, StateMachine, Tuple};
use snp_graph::query::{self, Direction, Traversal};
use snp_graph::vertex::{Color, Timestamp, VertexId, VertexKind};
use snp_graph::ProvenanceGraph;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// A macroquery (§3, §5.1).
#[derive(Clone, Debug)]
pub enum MacroQuery {
    /// "Why does τ exist?"
    WhyExists {
        /// The tuple in question.
        tuple: Tuple,
    },
    /// "Why did τ exist at time t?" (historical query)
    WhyExistedAt {
        /// The tuple in question.
        tuple: Tuple,
        /// The time of interest.
        at: Timestamp,
    },
    /// "Why did τ appear?" (dynamic query)
    WhyAppeared {
        /// The tuple in question.
        tuple: Tuple,
    },
    /// "Why did τ disappear?" (dynamic query)
    WhyDisappeared {
        /// The tuple in question.
        tuple: Tuple,
    },
    /// "What was derived from τ?" (causal query, for damage assessment)
    Effects {
        /// The tuple in question.
        tuple: Tuple,
    },
    /// "Why is there *no* tuple matching τ?" (negative query; τ may contain
    /// [`snp_datalog::Value::Wild`] wildcards)
    WhyAbsent {
        /// The missing tuple (pattern).
        tuple: Tuple,
    },
    /// "Why was there no tuple matching τ at time t?" (historical negative
    /// query, answered from the replayed insertion/deletion intervals)
    WhyAbsentAt {
        /// The missing tuple (pattern).
        tuple: Tuple,
        /// The time of interest.
        at: Timestamp,
    },
    /// "Why did τ vanish?" — like [`MacroQuery::WhyAbsent`], but only
    /// anchors when the tuple verifiably existed and then disappeared.
    WhyVanished {
        /// The vanished tuple (pattern).
        tuple: Tuple,
    },
}

impl MacroQuery {
    /// The tuple the query is about.
    pub fn tuple(&self) -> &Tuple {
        match self {
            MacroQuery::WhyExists { tuple }
            | MacroQuery::WhyExistedAt { tuple, .. }
            | MacroQuery::WhyAppeared { tuple }
            | MacroQuery::WhyDisappeared { tuple }
            | MacroQuery::Effects { tuple }
            | MacroQuery::WhyAbsent { tuple }
            | MacroQuery::WhyAbsentAt { tuple, .. }
            | MacroQuery::WhyVanished { tuple } => tuple,
        }
    }

    /// Whether this is a negative (absence) query.
    pub fn is_negative(&self) -> bool {
        matches!(
            self,
            MacroQuery::WhyAbsent { .. } | MacroQuery::WhyAbsentAt { .. } | MacroQuery::WhyVanished { .. }
        )
    }
}

/// A fluent, partially-specified macroquery; created by the `why_*` /
/// `effects_of` methods on [`Querier`] and executed with
/// [`QueryBuilder::run`].
///
/// ```ignore
/// let result = querier.why_exists(tuple).at(node).scope(2).run();
/// ```
///
/// The anchor host defaults to the queried tuple's own location and the scope
/// defaults to unbounded exploration.
#[must_use = "a QueryBuilder does nothing until `.run()` is called"]
pub struct QueryBuilder<'q> {
    querier: &'q mut Querier,
    query: MacroQuery,
    host: Option<NodeId>,
    scope: Option<usize>,
    when: Option<Timestamp>,
}

// Manual impl: the querier reference itself is summarized, not recursed.
impl std::fmt::Debug for QueryBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("query", &self.query)
            .field("host", &self.host)
            .field("scope", &self.scope)
            .field("when", &self.when)
            .finish_non_exhaustive()
    }
}

impl QueryBuilder<'_> {
    /// Anchor the query at `host` instead of the tuple's own location (e.g.
    /// to ask a node about a tuple it *believes* another node has).
    pub fn at(mut self, host: NodeId) -> Self {
        self.host = Some(host);
        self
    }

    /// Ask about the historical instant `t` instead of "now":
    /// `why_absent(τ).when(t)` is the historical negative query, and
    /// `why_exists(τ).when(t)` is equivalent to `why_existed_at(τ, t)`.
    /// Ignored by query kinds without a historical form.
    pub fn when(mut self, t: Timestamp) -> Self {
        self.when = Some(t);
        self
    }

    /// Explore at most `hops` hops from the anchor vertex.
    pub fn scope(mut self, hops: usize) -> Self {
        self.scope = Some(hops);
        self
    }

    /// Remove any scope bound (the default).
    pub fn unbounded(mut self) -> Self {
        self.scope = None;
        self
    }

    /// Execute the macroquery.
    pub fn run(self) -> QueryResult {
        let query = match (self.query, self.when) {
            (MacroQuery::WhyAbsent { tuple }, Some(at)) => MacroQuery::WhyAbsentAt { tuple, at },
            (MacroQuery::WhyExists { tuple }, Some(at)) => MacroQuery::WhyExistedAt { tuple, at },
            (query, _) => query,
        };
        let host = self.host.unwrap_or(query.tuple().location);
        self.querier.run_macroquery(query, host, self.scope)
    }
}

/// The per-node source of expected machines for replay: either a template
/// instance cloned via [`StateMachine::fresh`], or a shared
/// [`MachineFactory`].
enum ExpectedMachine {
    Template(Box<dyn StateMachine>),
    Factory(Arc<dyn MachineFactory>),
}

impl ExpectedMachine {
    /// A fresh expected machine a worker can own for one audit unit.
    fn instantiate(&self) -> Box<dyn StateMachine> {
        match self {
            ExpectedMachine::Template(machine) => machine.fresh(),
            ExpectedMachine::Factory(factory) => factory.build(),
        }
    }
}

/// The querier ("Alice").
pub struct Querier {
    registry: KeyRegistry,
    nodes: BTreeMap<NodeId, PeerLink>,
    expected: BTreeMap<NodeId, ExpectedMachine>,
    t_prop: Timestamp,
    /// Cached per-`(node, anchor epoch)` audit records (§5.6), sharded so
    /// audit workers can look up and publish concurrently.
    cache: AuditCache,
    /// Executes audit plans — serial by default, parallel when configured
    /// via [`Querier::set_query_threads`].
    pool: AuditPool,
    /// Cumulative statistics across all queries issued by this querier.
    pub stats: QueryStats,
}

// Manual impl: expected machines are factories/trait objects without
// `Debug`; identity and reachable nodes are the useful parts.
impl std::fmt::Debug for Querier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Querier")
            .field("nodes", &self.nodes.keys().collect::<Vec<_>>())
            .field("t_prop", &self.t_prop)
            .finish_non_exhaustive()
    }
}

impl Querier {
    /// Create a querier (serial audit execution by default).
    pub fn new(registry: KeyRegistry, t_prop: Timestamp) -> Querier {
        Querier {
            registry,
            nodes: BTreeMap::new(),
            expected: BTreeMap::new(),
            t_prop,
            cache: AuditCache::new(),
            pool: AuditPool::serial(),
            stats: QueryStats::default(),
        }
    }

    /// Execute audit plans on `threads` worker threads (1 = serial, the
    /// default).  Parallel execution produces byte-identical results and
    /// stats — only the measured `*_seconds` timing fields differ.
    pub fn set_query_threads(&mut self, threads: usize) {
        self.pool = AuditPool::new(threads);
    }

    /// The configured audit worker count.
    pub fn query_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Reconfigure the one-way commitment bound replay judges missing acks
    /// by (`Tprop`, plus the batching window when §5.6 batching is on).
    /// Callers that change it after audits were taken must also drop the
    /// stale cache entries — [`crate::Deployment::set_batch_window`] funnels
    /// both through one place.
    pub fn set_replay_bound(&mut self, micros: Timestamp) {
        self.t_prop = micros;
    }

    /// Register a node handle and the state machine the node is *expected*
    /// to run (used for deterministic replay).  Each audit replays on a
    /// fresh copy obtained via [`StateMachine::fresh`].
    pub fn register(&mut self, handle: SnoopyHandle, expected: Box<dyn StateMachine>) {
        let id = handle.id();
        self.nodes.insert(id, PeerLink::Local(handle));
        self.expected.insert(id, ExpectedMachine::Template(expected));
    }

    /// Register a *remote* node (fleet mode): audits reach it through the
    /// audit RPC instead of a shared in-process handle.  The verification
    /// pipeline is identical — retrieved bytes are checked against the
    /// node's certified key, so the transport is untrusted (§5.2).
    pub fn register_remote(&mut self, peer: RemotePeer, expected: Box<dyn StateMachine>) {
        let id = peer.id();
        self.nodes.insert(id, PeerLink::Remote(peer));
        self.expected.insert(id, ExpectedMachine::Template(expected));
    }

    /// Register a node handle with a [`MachineFactory`] producing its
    /// expected machine — the sharable alternative to [`Querier::register`]
    /// for callers that already construct machines from closures.
    pub fn register_with_factory(&mut self, handle: SnoopyHandle, factory: impl MachineFactory + 'static) {
        let id = handle.id();
        self.nodes.insert(id, PeerLink::Local(handle));
        self.expected.insert(id, ExpectedMachine::Factory(Arc::new(factory)));
    }

    /// Forget cached audits (e.g. after nodes have made progress).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Forget the cached audits of a single node — every anchor epoch,
    /// including checkpoint-anchored entries (e.g. after its behaviour was
    /// reconfigured while the simulation stood still).
    pub fn invalidate(&mut self, node: NodeId) {
        self.cache.invalidate_node(node);
    }

    /// Plan and execute the audits covering `hosts` over the window `at`,
    /// merging each unit's stats delta into the cumulative counters in plan
    /// order.  This is the single choke point both the serial and the
    /// parallel path go through.
    fn execute_plan(&mut self, hosts: impl IntoIterator<Item = NodeId>, at: Option<Timestamp>) -> Vec<UnitOutcome> {
        let plan = AuditPlan::for_hosts(hosts, at, &self.nodes);
        let planned: Vec<PlannedUnit> = plan
            .units
            .into_iter()
            .map(|unit| {
                // Cached units need no machine; uncached ones get their own.
                let machine = if self.cache.get(&(unit.node, unit.anchor_epoch)).is_some() {
                    None
                } else {
                    self.expected.get(&unit.node).map(|m| m.instantiate())
                };
                PlannedUnit { unit, machine }
            })
            .collect();
        let started = Instant::now();
        let outcomes = {
            let ctx = AuditContext {
                registry: &self.registry,
                nodes: &self.nodes,
                cache: &self.cache,
                t_prop: self.t_prop,
            };
            self.pool.execute(planned, &ctx)
        };
        self.stats.audit_wall_seconds += started.elapsed().as_secs_f64();
        // The wave's critical path: the most expensive unit bounds how fast
        // any worker count could have finished this wave.
        let critical = outcomes
            .iter()
            .map(|o| o.delta.aggregate_verification_seconds())
            .fold(0.0f64, f64::max);
        self.stats.audit_critical_seconds += critical;
        for outcome in &outcomes {
            merge_stats(&mut self.stats, &outcome.delta);
        }
        outcomes
    }

    /// The verified record for one node over the window `at` (auditing it if
    /// it is not cached yet).
    fn record_at(&mut self, node: NodeId, at: Option<Timestamp>) -> Arc<AuditRecord> {
        self.execute_plan([node], at)
            .pop()
            .expect("single-host plan yields one outcome")
            .record
    }

    /// Audit a node against its latest state: retrieve + verify + replay +
    /// consistency check.  Results are cached per `(node, anchor epoch)`.
    pub fn audit(&mut self, node: NodeId) -> NodeAudit {
        self.audit_at(node, None)
    }

    /// Audit a node for a query about time `at` (`None` = now): the replay
    /// anchors on the latest checkpoint at-or-before `at` and verifies only
    /// the suffix segments after it.
    pub fn audit_at(&mut self, node: NodeId, at: Option<Timestamp>) -> NodeAudit {
        self.record_at(node, at).audit.clone()
    }

    /// The subgraph reconstructed for a node (auditing it first if needed).
    pub fn node_graph(&mut self, node: NodeId) -> ProvenanceGraph {
        self.record_at(node, None).graph.clone()
    }

    /// Issue a microquery for a vertex: returns its color and its direct
    /// predecessors and successors in `Gν` (§4.3).
    pub fn microquery(&mut self, vertex: VertexId, host: NodeId) -> (Color, Vec<VertexId>, Vec<VertexId>) {
        self.stats.microqueries += 1;
        let record = self.record_at(host, None);
        let audit = &record.audit;
        let graph = &record.graph;
        match graph.vertex(&vertex) {
            None => {
                // The node's verified log does not contain this vertex: if the
                // node answered at all, that is evidence of misbehavior.
                let color = if audit.color == Color::Yellow {
                    Color::Yellow
                } else {
                    Color::Red
                };
                (color, Vec::new(), Vec::new())
            }
            Some(v) => {
                let color = if audit.color == Color::Black {
                    v.color
                } else {
                    audit.color
                };
                (color, graph.predecessors(&vertex), graph.successors(&vertex))
            }
        }
    }

    /// Locate the anchor vertex for a macroquery in the host node's subgraph
    /// reconstructed over the audit window.
    fn locate_root(query: &MacroQuery, host: NodeId, graph: &ProvenanceGraph) -> Option<VertexId> {
        let find_last = |pred: &dyn Fn(&VertexKind) -> bool| -> Option<VertexId> {
            graph
                .vertices()
                .filter(|(_, v)| pred(&v.kind))
                .max_by_key(|(_, v)| v.kind.time())
                .map(|(id, _)| *id)
        };
        let open_exist = |tuple| graph.open_exist(host, tuple).map(|v| graph.id(v));
        match query {
            MacroQuery::WhyExists { tuple } => open_exist(tuple)
                .or_else(|| graph.open_believe(host, tuple).map(|v| graph.id(v)))
                .or_else(|| find_last(&|k| matches!(k, VertexKind::Exist { tuple: t, .. } if t == tuple))),
            MacroQuery::WhyExistedAt { tuple, at } => graph.exist_covering(host, tuple, *at).map(|v| graph.id(v)),
            MacroQuery::WhyAppeared { tuple } => find_last(
                &|k| matches!(k, VertexKind::Appear { tuple: t, .. } | VertexKind::BelieveAppear { tuple: t, .. } if t == tuple),
            ),
            MacroQuery::WhyDisappeared { tuple } => find_last(
                &|k| matches!(k, VertexKind::Disappear { tuple: t, .. } | VertexKind::BelieveDisappear { tuple: t, .. } if t == tuple),
            ),
            // For forward slices, anchor at the appearance event: outgoing
            // derivations and sends hang off the `appear` vertex, not the
            // `exist` vertex (Figure 2 / Table 1).
            MacroQuery::Effects { tuple } => {
                find_last(&|k| matches!(k, VertexKind::Appear { tuple: t, .. } if t == tuple))
                    .or_else(|| open_exist(tuple))
            }
            // Negative queries synthesize their own anchor; they never reach
            // the positive processor (`run_macroquery` dispatches them to
            // `run_negative_query` first).
            MacroQuery::WhyAbsent { .. } | MacroQuery::WhyAbsentAt { .. } | MacroQuery::WhyVanished { .. } => None,
        }
    }

    /// Start a fluent macroquery from an explicit [`MacroQuery`] value.
    pub fn query(&mut self, query: MacroQuery) -> QueryBuilder<'_> {
        QueryBuilder {
            querier: self,
            query,
            host: None,
            scope: None,
            when: None,
        }
    }

    /// "Why does τ exist?" — anchored at the tuple's location unless
    /// [`QueryBuilder::at`] overrides it.
    pub fn why_exists(&mut self, tuple: Tuple) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyExists { tuple })
    }

    /// "Why did τ exist at time t?" (historical query).
    pub fn why_existed_at(&mut self, tuple: Tuple, at: Timestamp) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyExistedAt { tuple, at })
    }

    /// "Why did τ appear?" (dynamic query).
    pub fn why_appeared(&mut self, tuple: Tuple) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyAppeared { tuple })
    }

    /// "Why did τ disappear?" (dynamic query).
    pub fn why_disappeared(&mut self, tuple: Tuple) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyDisappeared { tuple })
    }

    /// "What was derived from τ?" (causal query, for damage assessment).
    pub fn effects_of(&mut self, tuple: Tuple) -> QueryBuilder<'_> {
        self.query(MacroQuery::Effects { tuple })
    }

    /// "Why is there *no* tuple matching τ?" (negative query).  τ may
    /// contain [`snp_datalog::Value::Wild`] wildcards for the arguments the
    /// operator cannot know — "why is there no route to prefix P at all?".
    /// Chain [`QueryBuilder::when`] for the historical form.
    pub fn why_absent(&mut self, tuple: Tuple) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyAbsent { tuple })
    }

    /// "Why was there no tuple matching τ at time t?" (historical negative
    /// query, answered from the replayed insertion/deletion intervals).
    pub fn why_absent_at(&mut self, tuple: Tuple, at: Timestamp) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyAbsentAt { tuple, at })
    }

    /// "Why did τ vanish?" — anchors only when the tuple verifiably existed
    /// and then disappeared; a tuple that never existed yields no root.
    pub fn why_vanished(&mut self, tuple: Tuple) -> QueryBuilder<'_> {
        self.query(MacroQuery::WhyVanished { tuple })
    }

    /// The macroquery processor (§5.1), with window widening: the first pass
    /// anchors every audit on the checkpoint matching the query's time of
    /// interest (latest, for non-historical queries), so only suffix segments
    /// are fetched, verified and replayed.  If the anchor vertex cannot be
    /// located in that window — e.g. a dynamic `why_disappeared` about an
    /// event sealed into an earlier epoch — the query is retried once over
    /// the widest retained window (the oldest anchorable checkpoint, or
    /// genesis while the full log is retained).
    ///
    /// Negative queries dispatch to the negative processor
    /// ([`Querier::run_negative_query`]); `why_vanished` gets the same
    /// widening treatment, since the disappearance it anchors on may lie in
    /// an epoch before the narrow audit window.
    fn run_macroquery(&mut self, query: MacroQuery, host: NodeId, scope: Option<usize>) -> QueryResult {
        match query {
            MacroQuery::WhyAbsent { tuple } => {
                return self.run_negative_query(tuple, host, None, None, scope, false);
            }
            MacroQuery::WhyAbsentAt { tuple, at } => {
                return self.run_negative_query(tuple, host, Some(at), Some(at), scope, false);
            }
            MacroQuery::WhyVanished { tuple } => {
                let mut narrow = self.run_negative_query(tuple.clone(), host, None, None, scope, true);
                if narrow.root.is_some() {
                    return narrow;
                }
                // Widen the *audit window* to the oldest retained anchor
                // while still asking about now: a disappearance sealed into
                // an earlier epoch is invisible to the narrow suffix replay.
                let mut widened = self.run_negative_query(tuple, host, Some(0), None, scope, true);
                if widened.root.is_none() {
                    merge_stats(&mut narrow.stats, &widened.stats);
                    return narrow;
                }
                merge_stats(&mut widened.stats, &narrow.stats);
                return widened;
            }
            _ => {}
        }
        let direction = match query {
            MacroQuery::Effects { .. } => Direction::Effects,
            _ => Direction::Causes,
        };
        let at = query_time(&query);
        let narrow_mark = StatsMark::of(&self.stats);
        let narrow = self.record_at(host, at);
        if let Some(root) = Self::locate_root(&query, host, &narrow.graph) {
            return self.expand_from(root, direction, &narrow, scope, at, &narrow_mark);
        }
        let mut stats = diff_stats(&self.stats, &narrow_mark);
        if at.is_none() {
            let wide_mark = StatsMark::of(&self.stats);
            let wide = self.record_at(host, Some(0));
            if let Some(root) = Self::locate_root(&query, host, &wide.graph) {
                let mut widened = self.expand_from(root, direction, &wide, scope, Some(0), &wide_mark);
                merge_stats(&mut widened.stats, &stats);
                return widened;
            }
            // Still unanswered: report the combined cost of both passes.
            merge_stats(&mut stats, &diff_stats(&self.stats, &wide_mark));
        }
        QueryResult {
            root: None,
            graph: narrow.graph.clone(),
            traversal: None,
            audits: BTreeMap::from([(host, narrow.audit.clone())]),
            stats,
        }
    }

    /// One pass of the macroquery processor at a fixed audit window, once
    /// the anchor vertex `root` has been located in the host's record: copy
    /// the host's graph out of the shared record, then iteratively plan →
    /// execute → merge expansion waves until fixpoint or scope.  `since`
    /// marks the start of the pass, for its cost.
    fn expand_from(
        &mut self,
        root: VertexId,
        direction: Direction,
        host_record: &AuditRecord,
        scope: Option<usize>,
        at: Option<Timestamp>,
        since: &StatsMark,
    ) -> QueryResult {
        let mut merged = host_record.graph.clone();
        let mut audits = BTreeMap::from([(host_record.audit.node, host_record.audit.clone())]);
        let traversal = self.expand_traversal(&mut merged, root, direction, scope, at, &mut audits);
        QueryResult {
            root: Some(root),
            graph: merged,
            traversal: Some(traversal),
            audits,
            stats: diff_stats(&self.stats, since),
        }
    }

    /// Iteratively plan → execute → merge expansion waves: traverse from
    /// `root`, find frontier vertices hosted on nodes not yet audited, audit
    /// them (in parallel when configured) and fold their subgraphs in, until
    /// fixpoint or scope.  Shared by the positive macroquery processor and
    /// the negative one (`query/absence.rs`).
    pub(super) fn expand_traversal(
        &mut self,
        merged: &mut ProvenanceGraph,
        root: VertexId,
        direction: Direction,
        scope: Option<usize>,
        at: Option<Timestamp>,
        audits: &mut BTreeMap<NodeId, NodeAudit>,
    ) -> Traversal {
        loop {
            let traversal = query::traverse(merged, root, direction, scope);
            let mut new_hosts = BTreeSet::new();
            for vertex_id in traversal.depths.keys() {
                if let Some(vertex) = merged.vertex(vertex_id) {
                    let h = vertex.host();
                    if !audits.contains_key(&h) && self.nodes.contains_key(&h) {
                        new_hosts.insert(h);
                    }
                }
            }
            if new_hosts.is_empty() {
                return traversal;
            }
            let outcomes = self.execute_plan(new_hosts, at);
            // Deterministic merge: outcomes arrive in plan order (ascending
            // node id, never completion order) and `union_in_place` is
            // commutative — see `ProvenanceGraph::merge_partials` for the
            // order-independence argument — so folding the partial graphs
            // directly into `Gν` is deterministic and single-pass.
            for outcome in outcomes {
                merged.union_in_place(&outcome.record.graph);
                audits.insert(outcome.node, outcome.record.audit.clone());
            }
        }
    }
}

/// The time of interest of a macroquery: historical queries anchor their
/// audits at the checkpoint at-or-before the queried instant; all other
/// queries audit against the latest checkpoint.
fn query_time(query: &MacroQuery) -> Option<Timestamp> {
    match query {
        MacroQuery::WhyExistedAt { at, .. } | MacroQuery::WhyAbsentAt { at, .. } => Some(*at),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ByzantineConfig;
    use crate::node::{SnoopyHandle, SnoopyNode, OPERATOR};
    use crate::wire::SnoopyWire;
    use snp_datalog::{Atom, Engine, Rule, RuleSet, SmInput, Term, TupleDelta, Value};
    use snp_sim::{NetworkConfig, SimTime, Simulator};

    fn rules() -> RuleSet {
        RuleSet::new(vec![
            Rule::standard(
                "R1",
                Atom::new("reach", Term::var("X"), vec![Term::var("Y")]),
                vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
                vec![],
            ),
            Rule::standard(
                "R2",
                Atom::new("reach", Term::var("Y"), vec![Term::var("X")]),
                vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
                vec![],
            ),
        ])
        .unwrap()
    }

    fn link(x: u64, y: u64) -> Tuple {
        Tuple::new("link", NodeId(x), vec![Value::node(y)])
    }

    fn reach(x: u64, y: u64) -> Tuple {
        Tuple::new("reach", NodeId(x), vec![Value::node(y)])
    }

    struct TestBed {
        sim: Simulator<SnoopyWire>,
        handles: BTreeMap<NodeId, SnoopyHandle>,
        querier: Querier,
    }

    fn testbed(num_nodes: u64) -> TestBed {
        let (_, _, registry) = KeyRegistry::deployment(num_nodes + 1);
        let config = NetworkConfig::default();
        let t_prop = config.t_prop.as_micros();
        let mut sim = Simulator::new(config, 11);
        let mut handles = BTreeMap::new();
        let mut querier = Querier::new(registry.clone(), t_prop);
        for i in 1..=num_nodes {
            let node = SnoopyNode::new(
                NodeId(i),
                Box::new(Engine::new(NodeId(i), rules())),
                registry.clone(),
                t_prop,
            );
            let handle = SnoopyHandle::new(node);
            sim.add_node(NodeId(i), Box::new(handle.clone()));
            querier.register(handle.clone(), Box::new(Engine::new(NodeId(i), rules())));
            handles.insert(NodeId(i), handle);
        }
        TestBed { sim, handles, querier }
    }

    fn insert(sim: &mut Simulator<SnoopyWire>, at_ms: u64, node: u64, tuple: Tuple) {
        sim.inject_message(
            SimTime::from_millis(at_ms),
            OPERATOR,
            NodeId(node),
            SnoopyWire::Operator {
                input: SmInput::InsertBase(tuple),
            },
        );
    }

    #[test]
    fn clean_run_yields_legitimate_cross_node_explanation() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        assert!(tb.handles[&NodeId(2)].with(|n| n.has_tuple(&reach(2, 1))));

        let result = tb.querier.why_exists(reach(2, 1)).at(NodeId(2)).run();
        assert!(result.root.is_some(), "the tuple's vertex must be found");
        assert!(result.implicated_nodes().is_empty(), "no fault in a clean run");
        assert!(
            result.is_legitimate(),
            "explanation must bottom out at base inserts: {}",
            result.render()
        );
        // The explanation spans both nodes: node 2's believe chain and node
        // 1's insert/derive chain.
        let hosts: BTreeSet<NodeId> = result
            .traversal
            .as_ref()
            .unwrap()
            .depths
            .keys()
            .filter_map(|id| result.graph.vertex(id).map(|v| v.host()))
            .collect();
        assert!(
            hosts.contains(&NodeId(1)) && hosts.contains(&NodeId(2)),
            "cross-node provenance expected, got {hosts:?}"
        );
        assert!(result.stats.log_bytes > 0);
        assert!(result.stats.audits >= 2);
    }

    #[test]
    fn fabricated_tuple_is_traced_to_the_liar() {
        let mut tb = testbed(3);
        // Node 3 fabricates reach(@2, 9) — a tuple its machine never derived.
        tb.handles[&NodeId(3)]
            .with(|n| n.set_byzantine(ByzantineConfig::fabricating(NodeId(2), TupleDelta::plus(reach(2, 9)))));
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        assert!(
            tb.handles[&NodeId(2)].with(|n| n.has_tuple(&reach(2, 9))),
            "the lie reaches node 2"
        );

        let result = tb.querier.why_exists(reach(2, 9)).at(NodeId(2)).run();
        assert!(!result.is_legitimate());
        assert!(
            result.implicated_nodes().contains(&NodeId(3)),
            "the fabricator must be implicated: {:?}",
            result.implicated_nodes()
        );
        assert!(
            !result.implicated_nodes().contains(&NodeId(1)),
            "correct nodes must not be implicated (accuracy)"
        );
        assert!(!result.implicated_nodes().contains(&NodeId(2)));
    }

    #[test]
    fn refusing_node_shows_up_yellow() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        tb.handles[&NodeId(1)].with(|n| {
            n.set_byzantine(ByzantineConfig {
                refuse_retrieve: true,
                ..Default::default()
            })
        });

        let result = tb.querier.why_exists(reach(2, 1)).at(NodeId(2)).run();
        assert!(!result.is_legitimate());
        assert!(
            result.suspect_nodes().contains(&NodeId(1)),
            "the silent node must at least be a suspect"
        );
        assert!(!result.implicated_nodes().contains(&NodeId(2)));
    }

    #[test]
    fn tampered_log_is_detected_as_red() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        tb.handles[&NodeId(1)].with(|n| {
            n.set_byzantine(ByzantineConfig {
                tamper_log_drop_entry: Some(0),
                ..Default::default()
            })
        });

        let audit = tb.querier.audit(NodeId(1));
        assert_eq!(
            audit.color,
            Color::Red,
            "log tampering must be detected: {:?}",
            audit.notes
        );
    }

    #[test]
    fn equivocation_is_caught_by_consistency_check() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        insert(&mut tb.sim, 500, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        // Node 1 now pretends its log stopped after the first entry, signing a
        // fresh (shorter) prefix.  Node 2 however holds an authenticator from
        // the +reach message that covers a later entry.
        tb.handles[&NodeId(1)].with(|n| {
            n.set_byzantine(ByzantineConfig {
                equivocate_truncate_to: Some(1),
                ..Default::default()
            })
        });

        let audit = tb.querier.audit(NodeId(1));
        assert_eq!(
            audit.color,
            Color::Red,
            "equivocation must be detected: {:?}",
            audit.notes
        );
        assert_eq!(
            audit.notes,
            ["log is inconsistent with an authenticator held by n2 (seq 1)"]
        );
    }

    /// A commitment by node 1 to a head its log never had at `seq`, as a peer
    /// might present it: properly signed by node 1 (equivocation), or with
    /// the signature `forged` (anyone could have fabricated it).
    fn conflicting_authenticator(seq: u64, forged: bool) -> snp_log::Authenticator {
        let keys = snp_crypto::keys::KeyPair::for_node(NodeId(1));
        let mut auth = snp_log::Authenticator::issue(&keys, seq, 1, snp_crypto::hash(b"another history"));
        auth.signature.s ^= u64::from(forged);
        auth
    }

    #[test]
    fn forged_peer_authenticator_with_mismatching_head_implicates_nobody() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        tb.handles[&NodeId(2)].with(|n| n.hold_authenticator(conflicting_authenticator(0, true)));
        let audit = tb.querier.audit(NodeId(1));
        assert_eq!(audit.color, Color::Black, "{:?}", audit.notes);
        assert!(tb.querier.audit(NodeId(2)).color == Color::Black);

        // The same conflicting head under node 1's real signature convicts it.
        tb.handles[&NodeId(2)].with(|n| n.hold_authenticator(conflicting_authenticator(0, false)));
        tb.querier.invalidate(NodeId(1));
        let audit = tb.querier.audit(NodeId(1));
        assert_eq!(audit.color, Color::Red);
        assert_eq!(
            audit.notes,
            ["log is inconsistent with an authenticator held by n2 (seq 0)"]
        );
    }

    #[test]
    fn out_of_window_mismatch_is_ignored() {
        let mut tb = testbed(2);
        tb.handles[&NodeId(1)].with(|n| n.set_epoch_length(1_000_000));
        for s in 0..=6u64 {
            insert(&mut tb.sim, 10 + s * 1000, 1, link(1, 2 + s));
        }
        tb.sim.run_until(SimTime::from_secs(10));
        tb.handles[&NodeId(2)].with(|n| n.hold_authenticator(conflicting_authenticator(0, false)));
        // Anchored at the latest checkpoint, the verified window starts long
        // after seq 0: the conflict is for the audit whose window holds it.
        let anchored = tb.querier.audit(NodeId(1));
        assert!(
            anchored.anchor_epoch > Some(0),
            "the window must start past the linking epoch"
        );
        assert_eq!(anchored.color, Color::Black, "{:?}", anchored.notes);
        let genesis = tb.querier.audit_at(NodeId(1), Some(0));
        assert_eq!(genesis.color, Color::Red);
        assert_eq!(
            genesis.notes,
            ["log is inconsistent with an authenticator held by n2 (seq 0)"]
        );
    }

    #[test]
    fn dynamic_query_why_disappeared() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.inject_message(
            SimTime::from_secs(2),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::DeleteBase(link(1, 2)),
            },
        );
        tb.sim.run_until(SimTime::from_secs(5));
        assert!(
            !tb.handles[&NodeId(2)].with(|n| n.has_tuple(&reach(2, 1))),
            "tuple must be gone after the delete"
        );

        let result = tb.querier.why_disappeared(reach(2, 1)).at(NodeId(2)).run();
        assert!(result.root.is_some(), "believe-disappear vertex must be found");
        assert!(result.implicated_nodes().is_empty());
        // The cause chain must reach node 1's delete event.
        let has_delete = result.traversal.as_ref().unwrap().depths.keys().any(|id| {
            matches!(
                result.graph.vertex(id).map(|v| &v.kind),
                Some(VertexKind::Delete { .. })
            )
        });
        assert!(
            has_delete,
            "explanation of the disappearance must include the base-tuple delete:\n{}",
            result.render()
        );
    }

    #[test]
    fn historical_query_finds_past_state() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.inject_message(
            SimTime::from_secs(2),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::DeleteBase(link(1, 2)),
            },
        );
        tb.sim.run_until(SimTime::from_secs(5));
        // Ask about the link tuple while it still existed (t = 1s).
        let result = tb.querier.why_existed_at(link(1, 2), 1_000_000).at(NodeId(1)).run();
        assert!(result.root.is_some(), "historical exist vertex must be found");
        assert!(result.is_legitimate());
        // Asking about a time after the deletion finds nothing.
        let result_after = tb.querier.why_existed_at(link(1, 2), 4_000_000).at(NodeId(1)).run();
        assert!(result_after.root.is_none());
    }

    #[test]
    fn causal_query_reports_effects_across_nodes() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        let result = tb.querier.effects_of(link(1, 2)).at(NodeId(1)).run();
        assert!(result.root.is_some());
        let traversal = result.traversal.as_ref().unwrap();
        // The forward slice must include node 2's believed reach tuple.
        let reaches_node2 = traversal
            .depths
            .keys()
            .any(|id| result.graph.vertex(id).map(|v| v.host() == NodeId(2)).unwrap_or(false));
        assert!(reaches_node2, "effects must propagate to node 2");
    }

    #[test]
    fn scope_limits_exploration() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        let narrow = tb.querier.why_exists(reach(2, 1)).at(NodeId(2)).scope(1).run();
        let wide = tb.querier.why_exists(reach(2, 1)).at(NodeId(2)).run();
        assert!(narrow.traversal.unwrap().len() < wide.traversal.unwrap().len());
    }

    #[test]
    fn microquery_reports_preds_and_succs() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        let graph = tb.querier.node_graph(NodeId(1));
        let exist = graph.open_exist(NodeId(1), &link(1, 2)).expect("link exists");
        let (color, preds, succs) = tb.querier.microquery(graph.id(exist), NodeId(1));
        assert_eq!(color, Color::Black);
        assert!(!preds.is_empty());
        let _ = succs;
        // Unknown vertex on an honest node is red (the node cannot justify it).
        let bogus = VertexKind::Appear {
            node: NodeId(1),
            tuple: link(9, 9),
            time: 1,
        }
        .identity();
        let (color, _, _) = tb.querier.microquery(bogus, NodeId(1));
        assert_eq!(color, Color::Red);
    }

    #[test]
    fn query_stats_accumulate() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        let result = tb.querier.why_exists(reach(2, 1)).at(NodeId(2)).run();
        assert!(result.stats.total_bytes() > 0);
        assert!(result.stats.turnaround_seconds(10_000_000.0) > 0.0);
        assert!(result.stats.audits >= 1);
        assert!(result.stats.audit_wall_seconds > 0.0, "plan execution must be timed");
    }

    /// Two testbeds driven identically, one querying serially and one with a
    /// worker pool: every externally observable part of the result must be
    /// byte-identical.
    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let mut serial = testbed(3);
        let mut parallel = testbed(3);
        for tb in [&mut serial, &mut parallel] {
            insert(&mut tb.sim, 10, 1, link(1, 2));
            insert(&mut tb.sim, 20, 2, link(2, 3));
            tb.sim.run_until(SimTime::from_secs(5));
        }
        parallel.querier.set_query_threads(4);
        assert_eq!(parallel.querier.query_threads(), 4);

        let a = serial.querier.why_exists(reach(3, 2)).at(NodeId(3)).run();
        let b = parallel.querier.why_exists(reach(3, 2)).at(NodeId(3)).run();
        assert_eq!(a.root, b.root);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.implicated_nodes(), b.implicated_nodes());
        assert_eq!(a.suspect_nodes(), b.suspect_nodes());
        assert_eq!(a.hosts(), b.hosts());
        assert_eq!(a.stats.without_timing(), b.stats.without_timing());
        let audits_a: Vec<(NodeId, Color)> = a.audits.iter().map(|(n, audit)| (*n, audit.color)).collect();
        let audits_b: Vec<(NodeId, Color)> = b.audits.iter().map(|(n, audit)| (*n, audit.color)).collect();
        assert_eq!(audits_a, audits_b);
    }

    /// The pool returns outcomes in plan order (ascending node id) even when
    /// workers finish in a different order.
    #[test]
    fn plan_outcomes_arrive_in_node_order() {
        let mut tb = testbed(4);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        tb.querier.set_query_threads(8);
        let outcomes = tb
            .querier
            .execute_plan([NodeId(4), NodeId(2), NodeId(1), NodeId(3)], None);
        let order: Vec<NodeId> = outcomes.iter().map(|o| o.node).collect();
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        // Executing the same plan again is served entirely from cache.
        let audits_before = tb.querier.stats.audits;
        let again = tb
            .querier
            .execute_plan([NodeId(1), NodeId(2), NodeId(3), NodeId(4)], None);
        assert_eq!(tb.querier.stats.audits, audits_before);
        assert!(again.iter().all(|o| o.delta == QueryStats::default()));
    }

    /// A registered factory supplies each audit worker's expected machine.
    #[test]
    fn factory_registration_replays_like_template_registration() {
        let (_, _, registry) = KeyRegistry::deployment(3);
        let config = NetworkConfig::default();
        let t_prop = config.t_prop.as_micros();
        let mut sim = Simulator::new(config, 11);
        let mut querier = Querier::new(registry.clone(), t_prop);
        for i in 1..=2u64 {
            let node = SnoopyNode::new(
                NodeId(i),
                Box::new(Engine::new(NodeId(i), rules())),
                registry.clone(),
                t_prop,
            );
            let handle = SnoopyHandle::new(node);
            sim.add_node(NodeId(i), Box::new(handle.clone()));
            querier.register_with_factory(handle, move || {
                Box::new(Engine::new(NodeId(i), rules())) as Box<dyn StateMachine>
            });
        }
        insert(&mut sim, 10, 1, link(1, 2));
        sim.run_until(SimTime::from_secs(5));
        querier.set_query_threads(2);
        let result = querier.why_exists(reach(2, 1)).at(NodeId(2)).run();
        assert!(result.root.is_some());
        assert!(result.is_legitimate(), "{}", result.render());
    }

    #[test]
    fn why_absent_of_underivable_tuple_is_legitimate() {
        // reach(@1, 3) never exists: node 1 has no link(1,3), and node 3 has
        // no link(3,1) to derive it remotely.  The explanation must bottom
        // out at base-tuple absences on both nodes — a verified negative.
        let mut tb = testbed(3);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        let result = tb.querier.why_absent(reach(1, 3)).at(NodeId(1)).run();
        assert!(result.root.is_some(), "absence root must be synthesized");
        assert!(
            result.is_legitimate(),
            "a clean absence must be legitimate:\n{}",
            result.render()
        );
        assert!(result.implicated_nodes().is_empty());
        // The recursion crossed to the candidate sender.
        assert!(result.audits.contains_key(&NodeId(3)), "would-be sender audited");
        let has_remote_absence = result.vertices().any(
            |v| matches!(&v.kind, VertexKind::Absence { node, tuple, .. } if *node == NodeId(3) && tuple.relation == "link"),
        );
        assert!(
            has_remote_absence,
            "cross-node recursion must bottom out at the sender's missing base tuple:\n{}",
            result.render()
        );
    }

    #[test]
    fn why_absent_of_present_tuple_has_no_root() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        let result = tb.querier.why_absent(reach(2, 1)).at(NodeId(2)).run();
        assert!(result.root.is_none(), "a present tuple is not absent");
    }

    #[test]
    fn why_absent_exposes_a_withheld_send() {
        // Node 1 suppresses its sends to node 2, so reach(@2, 1) never
        // arrives.  The absence explanation must audit node 1 and surface
        // the send its expected machine produced but it never delivered.
        let mut tb = testbed(2);
        tb.handles[&NodeId(1)].with(|n| n.set_byzantine(ByzantineConfig::suppressing(NodeId(2))));
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        assert!(!tb.handles[&NodeId(2)].with(|n| n.has_tuple(&reach(2, 1))));

        let result = tb.querier.why_absent(reach(2, 1)).at(NodeId(2)).run();
        assert!(result.root.is_some());
        assert!(!result.is_legitimate(), "a withheld send is not a clean absence");
        assert!(
            result.implicated_nodes().contains(&NodeId(1)),
            "the suppressor must be implicated: {:?}",
            result.implicated_nodes()
        );
        assert!(!result.implicated_nodes().contains(&NodeId(2)));
        // The red send vertex is part of the explanation.
        let has_red_send = result
            .vertices()
            .any(|v| matches!(&v.kind, VertexKind::Send { node, .. } if *node == NodeId(1)) && v.color == Color::Red);
        assert!(
            has_red_send,
            "the undelivered send must appear as red evidence:\n{}",
            result.render()
        );
    }

    #[test]
    fn why_absent_marks_a_refusing_sender_suspect() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.run_until(SimTime::from_secs(5));
        tb.handles[&NodeId(1)].with(|n| {
            n.set_byzantine(ByzantineConfig {
                refuse_retrieve: true,
                ..Default::default()
            })
        });
        // reach(@2, 3) is absent; node 1 is a candidate sender but refuses
        // the absence audit — it must show up as a suspect, never as clean.
        let result = tb.querier.why_absent(reach(2, 3)).at(NodeId(2)).run();
        assert!(result.root.is_some());
        assert!(!result.is_legitimate(), "a refused audit cannot be a clean absence");
        assert!(
            result.suspect_nodes().contains(&NodeId(1)),
            "the refusing would-be sender must be suspect: {:?}",
            result.suspect_nodes()
        );
        assert!(result.implicated_nodes().is_empty(), "refusal alone implicates nobody");
    }

    #[test]
    fn why_absent_after_deletion_degenerates_into_why_disappeared() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.inject_message(
            SimTime::from_secs(2),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::DeleteBase(link(1, 2)),
            },
        );
        tb.sim.run_until(SimTime::from_secs(5));

        let absent = tb.querier.why_absent(reach(2, 1)).at(NodeId(2)).run();
        assert!(absent.root.is_some());
        let disappeared = tb.querier.why_disappeared(reach(2, 1)).at(NodeId(2)).run();
        let disappear_root = disappeared.root.expect("disappearance must be found");
        // Duality: the absence explanation contains the disappearance and,
        // through it, the base-tuple delete that caused it.
        assert!(
            absent.traversal.as_ref().unwrap().depths.contains_key(&disappear_root),
            "why_absent must contain the why_disappeared anchor:\n{}",
            absent.render()
        );
        let has_delete = absent.vertices().any(|v| matches!(&v.kind, VertexKind::Delete { .. }));
        assert!(has_delete, "the delete must explain the absence:\n{}", absent.render());
        assert!(absent.is_legitimate(), "{}", absent.render());
        assert!(absent.implicated_nodes().is_empty());

        // why_vanished anchors on the same evidence; a never-existing tuple
        // does not vanish.
        let vanished = tb.querier.why_vanished(reach(2, 1)).at(NodeId(2)).run();
        assert!(vanished.root.is_some());
        assert!(vanished
            .traversal
            .as_ref()
            .unwrap()
            .depths
            .contains_key(&disappear_root));
        let never = tb.querier.why_vanished(reach(2, 9)).at(NodeId(2)).run();
        assert!(never.root.is_none(), "nothing vanished if it never existed");
    }

    #[test]
    fn why_vanished_widens_past_the_latest_checkpoint() {
        // The disappearance is sealed into an early epoch: the narrow pass
        // (anchored at the latest checkpoint) cannot see it — the tuple is
        // simply missing from the checkpoint state — so the query must
        // retry over the widest window and still anchor on the
        // believe-disappear event.
        let mut tb = testbed(2);
        for handle in tb.handles.values() {
            handle.with(|n| n.set_epoch_length(1_000_000));
        }
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.inject_message(
            SimTime::from_millis(500),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::DeleteBase(link(1, 2)),
            },
        );
        // Keep sealing epochs long after the deletion.
        for s in 1..=8u64 {
            insert(&mut tb.sim, s * 1000, 1, link(1, 9));
        }
        tb.sim.run_until(SimTime::from_secs(10));
        let anchored = tb.querier.audit(NodeId(2));
        assert!(
            anchored.anchor_epoch.is_some(),
            "epochs must have sealed for the widening to matter"
        );

        let result = tb.querier.why_vanished(reach(2, 1)).at(NodeId(2)).run();
        assert!(
            result.root.is_some(),
            "the widened pass must find the pre-checkpoint disappearance"
        );
        assert!(
            result.vertices().any(|v| matches!(
                &v.kind,
                VertexKind::BelieveDisappear { .. } | VertexKind::Disappear { .. }
            )),
            "{}",
            result.render()
        );
        assert!(
            result.vertices().any(|v| matches!(&v.kind, VertexKind::Delete { .. })),
            "the explanation must reach the base-tuple delete:\n{}",
            result.render()
        );
    }

    #[test]
    fn historical_why_absent_uses_replayed_intervals() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.sim.inject_message(
            SimTime::from_secs(2),
            OPERATOR,
            NodeId(1),
            SnoopyWire::Operator {
                input: SmInput::DeleteBase(link(1, 2)),
            },
        );
        tb.sim.run_until(SimTime::from_secs(5));
        // While the link existed, it was not absent.
        let during = tb.querier.why_absent(link(1, 2)).at(NodeId(1)).when(1_000_000).run();
        assert!(during.root.is_none(), "the tuple existed at t=1s");
        // After the deletion it is absent, explained by the delete.
        let after = tb.querier.why_absent(link(1, 2)).at(NodeId(1)).when(4_000_000).run();
        assert!(after.root.is_some());
        assert!(
            after.vertices().any(|v| matches!(&v.kind, VertexKind::Delete { .. })),
            "{}",
            after.render()
        );
        // Before the insertion it was also absent — but as a never-inserted
        // base tuple, a legitimate leaf.
        let before = tb.querier.why_absent(link(1, 2)).at(NodeId(1)).when(5).run();
        assert!(before.root.is_some());
        assert!(
            !before.vertices().any(|v| matches!(&v.kind, VertexKind::Delete { .. })),
            "{}",
            before.render()
        );
        assert!(before.is_legitimate(), "{}", before.render());
    }

    #[test]
    fn invalidate_drops_anchored_entries_too() {
        let mut tb = testbed(2);
        insert(&mut tb.sim, 10, 1, link(1, 2));
        tb.handles[&NodeId(1)].with(|n| n.set_epoch_length(1_000_000));
        tb.sim.run_until(SimTime::from_secs(5));
        // Warm both a checkpoint-anchored audit and (via the widest window)
        // a genesis-anchored one for node 1.
        let anchored = tb.querier.audit(NodeId(1));
        assert!(anchored.anchor_epoch.is_some(), "epochs sealed → anchored audit");
        let genesis = tb.querier.audit_at(NodeId(1), Some(0));
        assert!(genesis.anchor_epoch.is_none());
        let audits_before = tb.querier.stats.audits;
        tb.querier.invalidate(NodeId(1));
        tb.querier.audit(NodeId(1));
        tb.querier.audit_at(NodeId(1), Some(0));
        assert_eq!(
            tb.querier.stats.audits,
            audits_before + 2,
            "both the anchored and the genesis entry must have been evicted"
        );
    }
}
