//! A path-vector BGP engine standing in for Quagga (§6.3), driven through an
//! external-specification proxy.
//!
//! Each AS is one node.  The engine implements the parts of BGP the paper's
//! forensic scenarios exercise:
//!
//! * route announcements and withdrawals carrying full AS paths,
//! * per-prefix best-route selection (local preference by business
//!   relationship, then shortest AS path, then lowest neighbor id),
//! * optional per-prefix next-hop preferences (used to build BadGadget \[11\]),
//! * Gao–Rexford-style export policies (routes learned from a provider or a
//!   peer are only exported to customers).
//!
//! The machine reports the provenance of every selected route and every
//! advertisement (the proxy's external specification: an advertisement is
//! either originated locally or extends an advertisement previously received
//! — the `maybe` rule of §6.3 — and at most one route per prefix is exported
//! to a neighbor at any time).

use snp_core::deploy::{AppNode, Application, Deployment, WorkloadEvent};
use snp_crypto::keys::NodeId;
use snp_datalog::{AbsenceWitness, Polarity, SmInput, SmOutput, StateMachine, Tuple, TupleDelta, Value};
use snp_sim::rng::DetRng;
use snp_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Business relationship of a neighbor, from the local AS's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Relation {
    /// The neighbor is our customer (we provide transit to it).
    Customer,
    /// The neighbor is a peer.
    Peer,
    /// The neighbor is our provider.
    Provider,
}

impl Relation {
    fn as_str(&self) -> &'static str {
        match self {
            Relation::Customer => "customer",
            Relation::Peer => "peer",
            Relation::Provider => "provider",
        }
    }

    fn from_str(s: &str) -> Option<Relation> {
        match s {
            "customer" => Some(Relation::Customer),
            "peer" => Some(Relation::Peer),
            "provider" => Some(Relation::Provider),
            _ => None,
        }
    }

    /// Local preference: customer routes are preferred over peer routes over
    /// provider routes (higher is better).
    fn local_pref(&self) -> i64 {
        match self {
            Relation::Customer => 3,
            Relation::Peer => 2,
            Relation::Provider => 1,
        }
    }
}

/// The declarative companion of the BGP speaker: the external specification
/// the proxy reports provenance against (§6.3), written as NDlog rules so
/// the static analyzer and `DeploymentBuilder` can cross-check it against
/// the tuples the machine actually produces.
///
/// The `maybe` rules are exactly the paper's device for a black-box
/// protocol: selection among candidates (B2) and export policy (B3) are
/// *nondeterministic choices* the hand-written machine makes — the rules
/// only constrain what a legitimate choice may be derived from.  The
/// machine's path-concatenation on export is not expressible without list
/// constructors, so B3 carries the path through unchanged.
pub const BGP_PROGRAM: &str = r#"
    # B1: an advertisement received from a configured neighbor is a candidate
    B1 candidate(@A, P, Path, V)      :- advRoute(@A, P, Path, V), neighbor(@A, V, Rel).
    # B2: the speaker selects one candidate per prefix (policy choice)
    B2 route(@A, P, Path, V)    maybe :- candidate(@A, P, Path, V).
    # B3: a selected route may be exported to a neighbor (export policy)
    B3 advRoute(@B, P, Path, A) maybe :- route(@A, P, Path, V), neighbor(@A, B, Rel).
"#;

// ---- tuple constructors -------------------------------------------------------

/// `originate(@a, prefix)` — the AS originates the prefix (base tuple).
pub fn originate(asn: NodeId, prefix: &str) -> Tuple {
    Tuple::new("originate", asn, vec![Value::str(prefix)])
}

/// `neighbor(@a, b, relation)` — static neighbor configuration (base tuple).
pub fn neighbor(asn: NodeId, other: NodeId, relation: Relation) -> Tuple {
    Tuple::new("neighbor", asn, vec![Value::Node(other), Value::str(relation.as_str())])
}

/// `prefer(@a, prefix, nexthop)` — optional next-hop preference (base tuple;
/// this is what creates BadGadget-style oscillation potential).
pub fn prefer(asn: NodeId, prefix: &str, nexthop: NodeId) -> Tuple {
    Tuple::new("prefer", asn, vec![Value::str(prefix), Value::Node(nexthop)])
}

/// `advRoute(@a, prefix, path, from)` — an advertisement received by (or sent
/// to) AS `a`: `path` is the AS path (nearest first), `from` the neighbor it
/// came from.
pub fn adv_route(asn: NodeId, prefix: &str, path: &[NodeId], from: NodeId) -> Tuple {
    Tuple::new(
        "advRoute",
        asn,
        vec![
            Value::str(prefix),
            Value::List(path.iter().map(|n| Value::Node(*n)).collect()),
            Value::Node(from),
        ],
    )
}

/// `route(@a, prefix, path, via)` — the currently selected best route.
pub fn route(asn: NodeId, prefix: &str, path: &[NodeId], via: NodeId) -> Tuple {
    Tuple::new(
        "route",
        asn,
        vec![
            Value::str(prefix),
            Value::List(path.iter().map(|n| Value::Node(*n)).collect()),
            Value::Node(via),
        ],
    )
}

/// `route(@a, prefix, *, *)` — the negative-query pattern for "a route to
/// `prefix`, whatever its path": the blackhole question "why does my BGP
/// table have *no* route to prefix P?" cannot know the AS path of the route
/// it is missing.
pub fn route_pattern(asn: NodeId, prefix: &str) -> Tuple {
    Tuple::new("route", asn, vec![Value::str(prefix), Value::Wild, Value::Wild])
}

/// `advRoute(@a, prefix, *, from)` — the negative-query pattern for "an
/// advertisement of `prefix` from neighbor `from`, whatever its path".
pub fn adv_route_pattern(asn: NodeId, prefix: &str, from: NodeId) -> Tuple {
    Tuple::new(
        "advRoute",
        asn,
        vec![Value::str(prefix), Value::Wild, Value::Node(from)],
    )
}

fn path_of(tuple: &Tuple, arg: usize) -> Vec<NodeId> {
    tuple
        .args
        .get(arg)
        .and_then(Value::as_list)
        .map(|l| l.iter().filter_map(Value::as_node).collect())
        .unwrap_or_default()
}

// ---- the BGP speaker ------------------------------------------------------------

/// A candidate route for a prefix.
#[derive(Clone, Debug)]
struct Candidate {
    path: Vec<NodeId>,
    via: NodeId,
    relation: Relation,
    /// The tuple that justifies the candidate (originate or believed advRoute).
    witness: Tuple,
}

/// The deterministic BGP speaker machine.
#[derive(Clone, Debug, Default)]
pub struct BgpSpeaker {
    node: NodeId,
    /// All tuples currently visible on the node (base + believed).
    tuples: BTreeSet<Tuple>,
    /// Currently selected best route per prefix (tuple + witness).
    selected: BTreeMap<String, (Tuple, Candidate)>,
    /// Advertisements currently exported, per (neighbor, prefix).
    exported: BTreeMap<(NodeId, String), Tuple>,
}

impl BgpSpeaker {
    /// Create a speaker for an AS.
    pub fn new(node: NodeId) -> BgpSpeaker {
        BgpSpeaker {
            node,
            ..Default::default()
        }
    }

    fn neighbors(&self) -> Vec<(NodeId, Relation)> {
        self.tuples
            .iter()
            .filter(|t| t.relation == "neighbor")
            .filter_map(|t| Some((t.node_arg(0)?, Relation::from_str(t.str_arg(1)?)?)))
            .collect()
    }

    fn relation_of(&self, other: NodeId) -> Option<Relation> {
        self.neighbors().into_iter().find(|(n, _)| *n == other).map(|(_, r)| r)
    }

    fn preferred_nexthop(&self, prefix: &str) -> Option<NodeId> {
        self.tuples
            .iter()
            .find(|t| t.relation == "prefer" && t.str_arg(0) == Some(prefix))
            .and_then(|t| t.node_arg(1))
    }

    /// Collect the candidate routes for a prefix from the current tuple set.
    fn candidates(&self, prefix: &str) -> Vec<Candidate> {
        let mut out = Vec::new();
        for t in &self.tuples {
            if t.relation == "originate" && t.str_arg(0) == Some(prefix) {
                out.push(Candidate {
                    path: vec![],
                    via: self.node,
                    relation: Relation::Customer,
                    witness: t.clone(),
                });
            }
            if t.relation == "advRoute" && t.str_arg(0) == Some(prefix) {
                let path = path_of(t, 1);
                let Some(from) = t.node_arg(2) else { continue };
                // Loop prevention: discard paths containing ourselves.
                if path.contains(&self.node) {
                    continue;
                }
                let Some(relation) = self.relation_of(from) else {
                    continue;
                };
                out.push(Candidate {
                    path,
                    via: from,
                    relation,
                    witness: t.clone(),
                });
            }
        }
        out
    }

    /// Pick the best candidate: next-hop preference, then origination, then
    /// local-pref, then shortest path, then lowest neighbor id.
    fn best(&self, prefix: &str) -> Option<Candidate> {
        let preferred = self.preferred_nexthop(prefix);
        self.candidates(prefix).into_iter().min_by_key(|c| {
            let preferred_bonus = if Some(c.via) == preferred && c.via != self.node {
                0
            } else {
                1
            };
            let origin_bonus = if c.via == self.node { 0 } else { 1 };
            (
                preferred_bonus,
                origin_bonus,
                -c.relation.local_pref(),
                c.path.len(),
                c.via.0,
            )
        })
    }

    /// Export policy (Gao–Rexford): to whom may a route learned via
    /// `learned_from_relation` be exported?
    fn may_export(&self, learned_from: Relation, to_relation: Relation, originated: bool) -> bool {
        if originated || learned_from == Relation::Customer {
            true
        } else {
            // Peer / provider routes go to customers only.
            to_relation == Relation::Customer
        }
    }

    /// Recompute the selected route and the export set for `prefix`, emitting
    /// derive / underive / send outputs for everything that changed.
    fn refresh_prefix(&mut self, prefix: &str, out: &mut Vec<SmOutput>) {
        let new_best = self.best(prefix);
        let old = self.selected.get(prefix).cloned();

        let new_route_tuple = new_best.as_ref().map(|c| route(self.node, prefix, &c.path, c.via));
        let old_route_tuple = old.as_ref().map(|(t, _)| t.clone());
        if new_route_tuple != old_route_tuple {
            if let Some((old_tuple, old_cand)) = &old {
                out.push(SmOutput::Underive {
                    tuple: old_tuple.clone(),
                    rule: "bgp-select".into(),
                    body: vec![old_cand.witness.clone()],
                });
                self.selected.remove(prefix);
            }
            if let (Some(tuple), Some(cand)) = (&new_route_tuple, &new_best) {
                out.push(SmOutput::Derive {
                    tuple: tuple.clone(),
                    rule: "bgp-select".into(),
                    body: vec![cand.witness.clone()],
                });
                self.selected.insert(prefix.to_string(), (tuple.clone(), cand.clone()));
            }
        }

        // Recompute exports.
        let neighbors = self.neighbors();
        for (peer, peer_relation) in neighbors {
            let key = (peer, prefix.to_string());
            let desired: Option<Tuple> = match &new_best {
                Some(cand) if peer != cand.via => {
                    let originated = cand.via == self.node;
                    if self.may_export(cand.relation, peer_relation, originated) {
                        let mut exported_path = vec![self.node];
                        exported_path.extend(cand.path.iter().copied());
                        Some(adv_route(peer, prefix, &exported_path, self.node))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let current = self.exported.get(&key).cloned();
            if desired != current {
                if let Some(old_adv) = current {
                    // Withdraw the previously exported route (BGP constraint:
                    // at most one route per prefix per neighbor, and its
                    // replacement is causally tied to the withdrawal).
                    out.push(SmOutput::Underive {
                        tuple: old_adv.clone(),
                        rule: "bgp-export".into(),
                        body: self
                            .selected
                            .get(prefix)
                            .map(|(t, _)| vec![t.clone()])
                            .unwrap_or_default(),
                    });
                    out.push(SmOutput::Send {
                        to: key.0,
                        delta: TupleDelta::minus(old_adv),
                    });
                    self.exported.remove(&key);
                }
                if let Some(new_adv) = desired {
                    let body = self
                        .selected
                        .get(prefix)
                        .map(|(t, _)| vec![t.clone()])
                        .unwrap_or_default();
                    out.push(SmOutput::Derive {
                        tuple: new_adv.clone(),
                        rule: "bgp-export".into(),
                        body,
                    });
                    out.push(SmOutput::Send {
                        to: key.0,
                        delta: TupleDelta::plus(new_adv.clone()),
                    });
                    self.exported.insert(key, new_adv);
                }
            }
        }
    }

    // ----- negative provenance (why_absent) --------------------------------

    /// The neighbors recorded in an externally supplied tuple state.
    fn neighbors_in(node: NodeId, present: &[Tuple]) -> Vec<(NodeId, Relation)> {
        present
            .iter()
            .filter(|t| t.relation == "neighbor" && t.location == node)
            .filter_map(|t| Some((t.node_arg(0)?, Relation::from_str(t.str_arg(1)?)?)))
            .collect()
    }

    /// Why is there no selected route for `prefix` at this AS?  One witness
    /// per missing candidate source: the AS never originated the prefix, and
    /// each neighbor never advertised it.
    fn absent_route(&self, pattern: &Tuple, prefix: &str, present: &[Tuple]) -> Vec<AbsenceWitness> {
        let mut witnesses = Vec::new();
        let candidates: Vec<&Tuple> = present
            .iter()
            .filter(|t| {
                t.location == self.node
                    && ((t.relation == "originate" || t.relation == "advRoute") && t.str_arg(0) == Some(prefix))
            })
            .collect();
        if !candidates.is_empty() {
            // Some candidate exists, yet no matching route is selected.  If
            // the pattern is fully open this should be impossible for an
            // honest node; with concrete path/via arguments the selection
            // legitimately picked a different candidate.
            let open = pattern.args.iter().skip(1).all(Value::is_wild);
            witnesses.push(if open {
                AbsenceWitness::Derivable {
                    rule: "bgp-select".into(),
                }
            } else {
                AbsenceWitness::ConstraintFailed {
                    rule: "bgp-select".into(),
                }
            });
            return witnesses;
        }
        witnesses.push(AbsenceWitness::MissingLocal {
            rule: "bgp-select".into(),
            missing: originate(self.node, prefix),
        });
        for (neighbor, _) in Self::neighbors_in(self.node, present) {
            witnesses.push(AbsenceWitness::NeverReceived {
                rule: "bgp-export".into(),
                tuple: adv_route_pattern(self.node, prefix, neighbor),
                senders: vec![neighbor],
            });
        }
        witnesses
    }

    /// Why did this AS never advertise `prefix` to `peer`?  Either it has no
    /// route itself (recurse), or its export policy legitimately withheld
    /// the route (Gao–Rexford, or no back-propagation to the next hop).
    fn absent_export(&self, prefix: &str, peer: NodeId, present: &[Tuple]) -> Vec<AbsenceWitness> {
        let selected = present
            .iter()
            .find(|t| t.relation == "route" && t.location == self.node && t.str_arg(0) == Some(prefix));
        let Some(selected) = selected else {
            return vec![AbsenceWitness::MissingLocal {
                rule: "bgp-export".into(),
                missing: route_pattern(self.node, prefix),
            }];
        };
        let Some(via) = selected.node_arg(2) else {
            return vec![AbsenceWitness::ConstraintFailed {
                rule: "bgp-export".into(),
            }];
        };
        if via == peer {
            // At most one route per prefix per neighbor, and never back to
            // the AS the route came from.
            return vec![AbsenceWitness::ConstraintFailed {
                rule: "bgp-no-reexport-to-nexthop".into(),
            }];
        }
        let neighbors = Self::neighbors_in(self.node, present);
        let originated = via == self.node;
        let learned = neighbors
            .iter()
            .find(|(n, _)| *n == via)
            .map(|(_, r)| *r)
            .unwrap_or(Relation::Customer);
        let to_relation = neighbors.iter().find(|(n, _)| *n == peer).map(|(_, r)| *r);
        match to_relation {
            None => vec![AbsenceWitness::MissingLocal {
                rule: "bgp-export".into(),
                missing: Tuple::new("neighbor", self.node, vec![Value::Node(peer), Value::Wild]),
            }],
            Some(to_relation) if self.may_export(learned, to_relation, originated) => {
                // Policy says the route should have been exported; its
                // absence on the wire is unaccounted for.
                vec![AbsenceWitness::Derivable {
                    rule: "bgp-export".into(),
                }]
            }
            Some(_) => vec![AbsenceWitness::ConstraintFailed {
                rule: "bgp-export-policy".into(),
            }],
        }
    }

    fn affected_prefix(tuple: &Tuple) -> Option<String> {
        match tuple.relation.as_str() {
            "originate" | "prefer" | "advRoute" => tuple.str_arg(0).map(|s| s.to_string()),
            _ => None,
        }
    }

    fn all_known_prefixes(&self) -> BTreeSet<String> {
        self.tuples.iter().filter_map(Self::affected_prefix).collect()
    }
}

impl StateMachine for BgpSpeaker {
    fn handle(&mut self, input: SmInput) -> Vec<SmOutput> {
        let mut out = Vec::new();
        let (tuple, added) = match input {
            SmInput::InsertBase(t) => (t, true),
            SmInput::DeleteBase(t) => (t, false),
            SmInput::Receive { delta, .. } => {
                let added = delta.polarity == Polarity::Plus;
                (delta.tuple, added)
            }
        };
        if added {
            self.tuples.insert(tuple.clone());
        } else {
            self.tuples.remove(&tuple);
        }
        match Self::affected_prefix(&tuple) {
            Some(prefix) => self.refresh_prefix(&prefix, &mut out),
            None => {
                // A neighbor change affects every prefix.
                let prefixes = self.all_known_prefixes();
                for prefix in prefixes {
                    self.refresh_prefix(&prefix, &mut out);
                }
            }
        }
        out
    }

    fn fresh(&self) -> Box<dyn StateMachine> {
        Box::new(BgpSpeaker::new(self.node))
    }

    fn current_tuples(&self) -> Vec<Tuple> {
        let mut all: Vec<Tuple> = self.tuples.iter().cloned().collect();
        all.extend(self.selected.values().map(|(t, _)| t.clone()));
        all
    }

    /// The snapshot covers the visible tuple set, the selected best routes
    /// (with their justifying candidates) and the export table — everything
    /// that influences how the speaker reacts to future updates.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = snp_datalog::SnapshotWriter::new();
        w.u64(self.tuples.len() as u64);
        for tuple in &self.tuples {
            w.tuple(tuple);
        }
        w.u64(self.selected.len() as u64);
        for (prefix, (route_tuple, candidate)) in &self.selected {
            w.str(prefix);
            w.tuple(route_tuple);
            w.u64(candidate.path.len() as u64);
            for hop in &candidate.path {
                w.node(*hop);
            }
            w.node(candidate.via);
            w.str(candidate.relation.as_str());
            w.tuple(&candidate.witness);
        }
        w.u64(self.exported.len() as u64);
        for ((peer, prefix), adv) in &self.exported {
            w.node(*peer);
            w.str(prefix);
            w.tuple(adv);
        }
        Some(w.finish())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn StateMachine>, String> {
        let mut r = snp_datalog::SnapshotReader::new(snapshot);
        let mut machine = BgpSpeaker::new(self.node);
        (|| {
            let tuples = r.read_len()?;
            for _ in 0..tuples {
                machine.tuples.insert(r.tuple()?);
            }
            let selected = r.read_len()?;
            for _ in 0..selected {
                let prefix = r.str()?;
                let route_tuple = r.tuple()?;
                let hops = r.read_len()?;
                let mut path = r.vec_for(hops, std::mem::size_of::<NodeId>());
                for _ in 0..hops {
                    path.push(r.node()?);
                }
                let via = r.node()?;
                let relation_name = r.str()?;
                let relation = Relation::from_str(&relation_name)
                    .ok_or_else(|| snp_datalog::SnapshotError(format!("unknown relation {relation_name:?}")))?;
                let witness = r.tuple()?;
                machine.selected.insert(
                    prefix,
                    (
                        route_tuple,
                        Candidate {
                            path,
                            via,
                            relation,
                            witness,
                        },
                    ),
                );
            }
            let exported = r.read_len()?;
            for _ in 0..exported {
                let peer = r.node()?;
                let prefix = r.str()?;
                let adv = r.tuple()?;
                machine.exported.insert((peer, prefix), adv);
            }
            r.expect_exhausted()
        })()
        .map_err(|e: snp_datalog::SnapshotError| e.to_string())?;
        Ok(Box::new(machine))
    }

    /// Negative provenance for the BGP proxy's external specification: a
    /// missing `route` is traced to the missing origination and the
    /// advertisements never received from each neighbor; a missing
    /// `advRoute` (asked of the would-be advertiser) is traced to its own
    /// missing route or to the export policy that legitimately withheld it.
    fn absence_of(&self, pattern: &Tuple, present: &[Tuple], _peers: &[NodeId]) -> Vec<AbsenceWitness> {
        match pattern.relation.as_str() {
            "route" if pattern.location == self.node => match pattern.str_arg(0) {
                Some(prefix) => self.absent_route(pattern, prefix, present),
                None => Vec::new(),
            },
            "advRoute" if pattern.node_arg(2) == Some(self.node) && pattern.location != self.node => {
                match pattern.str_arg(0) {
                    Some(prefix) => self.absent_export(prefix, pattern.location, present),
                    None => Vec::new(),
                }
            }
            // Base tuples: never inserted is the whole explanation.
            "originate" | "neighbor" | "prefer" => vec![AbsenceWitness::NoBaseInsertion],
            _ => Vec::new(),
        }
    }

    fn name(&self) -> String {
        format!("bgp-as@{}", self.node)
    }
}

// ---- scenarios -------------------------------------------------------------------

/// The Quagga-style experiment configuration (§7.1: 35 daemons, 10 ASes,
/// RouteViews-driven updates).  The topology here is a provider/customer/peer
/// hierarchy over `ases` ASes.
#[derive(Clone, Copy, Debug)]
pub struct BgpScenario {
    /// Number of ASes.
    pub ases: u64,
    /// Number of distinct prefixes churned by the synthetic RouteViews trace.
    pub prefixes: usize,
    /// Number of announce/withdraw updates injected.
    pub updates: usize,
    /// Simulated duration in seconds.
    pub duration_s: u64,
}

impl BgpScenario {
    /// A scaled-down version of the paper's Quagga setup.
    pub fn quagga_like() -> BgpScenario {
        BgpScenario {
            ases: 10,
            prefixes: 40,
            updates: 400,
            duration_s: 120,
        }
    }

    /// AS ids (1..=ases).
    pub fn as_ids(&self) -> Vec<NodeId> {
        (1..=self.ases).map(NodeId).collect()
    }

    /// A mixed provider/customer/peer topology: AS 1 and 2 are tier-1 peers;
    /// every other AS `i` buys transit from `i/2` (its provider), and
    /// consecutive stubs peer with each other.
    pub fn topology(&self) -> Vec<(NodeId, NodeId, Relation)> {
        let mut links = Vec::new();
        if self.ases >= 2 {
            links.push((NodeId(1), NodeId(2), Relation::Peer));
        }
        for i in 3..=self.ases {
            let provider = NodeId((i / 2).max(1));
            links.push((NodeId(i), provider, Relation::Provider));
        }
        for i in (3..self.ases).step_by(2) {
            links.push((NodeId(i), NodeId(i + 1), Relation::Peer));
        }
        links
    }

    /// The deployable application: the AS topology, optionally with the
    /// synthetic RouteViews-like update trace as workload.
    pub fn app(&self, with_updates: bool) -> BgpApp {
        BgpApp {
            scenario: *self,
            with_updates,
        }
    }

    /// Build a deployment with the topology installed (no updates yet).
    pub fn build(&self, secure: bool, seed: u64) -> Deployment {
        Deployment::builder()
            .seed(seed)
            .secure(secure)
            .app(self.app(false))
            .build()
    }

    /// The synthetic RouteViews-like update trace: random ASes originate and
    /// withdraw prefixes over the run.
    pub fn update_trace(&self, seed: u64) -> Vec<WorkloadEvent> {
        let mut rng = DetRng::new(seed ^ 0xbeef);
        let ases = self.as_ids();
        let mut originated: Vec<(NodeId, String)> = Vec::new();
        let mut events = Vec::new();
        for u in 0..self.updates {
            let at = SimTime::from_millis(1_000 + (u as u64 * self.duration_s * 1_000) / self.updates.max(1) as u64);
            let withdraw = !originated.is_empty() && rng.chance(0.3);
            if withdraw {
                // Lossless: `next_below(len)` is below `len`, itself a usize.
                #[allow(clippy::cast_possible_truncation)]
                let idx = rng.next_below(originated.len() as u64) as usize;
                let (asn, prefix) = originated.remove(idx);
                events.push(WorkloadEvent::delete(at, asn, originate(asn, &prefix)));
            } else {
                let asn = *rng.choose(&ases).expect("non-empty");
                let prefix = format!("10.{}.0.0/16", rng.next_below(self.prefixes as u64));
                events.push(WorkloadEvent::insert(at, asn, originate(asn, &prefix)));
                originated.push((asn, prefix));
            }
        }
        events
    }

    /// Inject the update trace into an already-built deployment.
    pub fn inject_updates(&self, deployment: &mut Deployment, seed: u64) {
        for event in self.update_trace(seed) {
            deployment.schedule(event);
        }
    }
}

/// The deployable BGP application: speakers over the [`BgpScenario`]
/// topology, each behind a proxy, plus (optionally) the update trace.
#[derive(Debug)]
pub struct BgpApp {
    /// The experiment parameters.
    pub scenario: BgpScenario,
    /// Whether the RouteViews-like update trace is part of the workload.
    pub with_updates: bool,
}

impl Application for BgpApp {
    fn name(&self) -> String {
        format!("bgp-{}", self.scenario.ases)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.scenario.as_ids()
    }

    fn node(&self, id: NodeId) -> AppNode {
        // The paper's proxy re-encodes BGP messages as tuples; charge a small
        // constant per message (Figure 5's "Proxy" component).
        AppNode::new(Box::new(BgpSpeaker::new(id))).proxy_overhead(24)
    }

    fn workload(&self, seed: u64) -> Vec<WorkloadEvent> {
        let mut events = Vec::new();
        for (i, (a, b, rel_ab)) in self.scenario.topology().into_iter().enumerate() {
            let at = SimTime::from_millis(5 + i as u64);
            let rel_ba = match rel_ab {
                Relation::Provider => Relation::Customer,
                Relation::Customer => Relation::Provider,
                Relation::Peer => Relation::Peer,
            };
            events.push(WorkloadEvent::insert(at, a, neighbor(a, b, rel_ab)));
            events.push(WorkloadEvent::insert(at, b, neighbor(b, a, rel_ba)));
        }
        if self.with_updates {
            events.extend(self.scenario.update_trace(seed));
        }
        events
    }

    fn program(&self) -> Option<String> {
        Some(BGP_PROGRAM.into())
    }
}

/// Build the classic BadGadget gadget \[11\]: ASes 1, 2, 3 around destination
/// AS 0 (here AS 4 to keep ids positive), where each of the three prefers the
/// route through its clockwise neighbor over its direct route.
///
/// The gadget is *designed* to diverge, and over the simulator's FIFO links
/// it flutters persistently — the speakers have no MRAI-style damping, so
/// the flap rate is limited only by link latency and the event count grows
/// steeply with the horizon.  Run it for a bounded sub-second window (the
/// callers use ~600 ms); the provenance assertions hold at any instant of
/// the flutter.
pub fn badgadget_scenario(secure: bool, seed: u64) -> (Deployment, NodeId, String) {
    let dest = NodeId(4);
    let prefix = "203.0.113.0/24".to_string();
    let mut builder = Deployment::builder().seed(seed).secure(secure);
    for i in 1..=4u64 {
        builder = builder.node(NodeId(i), |id| Box::new(BgpSpeaker::new(id)));
    }
    let at = SimTime::from_millis(5);
    // Everyone peers with everyone (so export policies do not filter).
    for (a, b) in [(1u64, 2u64), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)] {
        builder = builder
            .insert_at(at, NodeId(a), neighbor(NodeId(a), NodeId(b), Relation::Customer))
            .insert_at(at, NodeId(b), neighbor(NodeId(b), NodeId(a), Relation::Customer));
    }
    let tb = builder
        // The cyclic preferences: 1 prefers via 2, 2 prefers via 3, 3 prefers via 1.
        .insert_at(at, NodeId(1), prefer(NodeId(1), &prefix, NodeId(2)))
        .insert_at(at, NodeId(2), prefer(NodeId(2), &prefix, NodeId(3)))
        .insert_at(at, NodeId(3), prefer(NodeId(3), &prefix, NodeId(1)))
        // The destination originates the prefix.
        .insert_at(SimTime::from_millis(50), dest, originate(dest, &prefix))
        .build();
    (tb, dest, prefix)
}

/// Build the Quagga-Disappear scenario (§7.2, after Teixeira et al.): AS `j`
/// first reaches the prefix through its customer and exports it to its peer
/// `i`; when a shorter route appears at `j` via its *provider*, `j` switches
/// to it and — because provider routes are not exported to peers — withdraws
/// the route from `i`, whose routing-table entry disappears.
pub fn disappear_scenario(secure: bool, seed: u64) -> (Deployment, NodeId, NodeId, String) {
    let prefix = "198.51.100.0/24".to_string();
    let i = NodeId(1); // the AS that observes the disappearance
    let j = NodeId(2); // the AS whose policy causes it
    let customer = NodeId(3); // j's customer, original path to the origin
    let provider = NodeId(4); // j's provider, later offers a better route
    let origin = NodeId(5); // the prefix owner, customer of 3 and of 4

    let mut builder = Deployment::builder().seed(seed).secure(secure);
    for n in [i, j, customer, provider, origin] {
        builder = builder.node(n, |id| Box::new(BgpSpeaker::new(id)));
    }
    let at = SimTime::from_millis(5);
    let pairs = [
        (i, j, Relation::Peer),
        (j, customer, Relation::Customer),
        (j, provider, Relation::Provider),
        (customer, origin, Relation::Customer),
        (provider, origin, Relation::Customer),
    ];
    for (a, b, rel_ab) in pairs {
        let rel_ba = match rel_ab {
            Relation::Provider => Relation::Customer,
            Relation::Customer => Relation::Provider,
            Relation::Peer => Relation::Peer,
        };
        builder = builder
            .insert_at(at, a, neighbor(a, b, rel_ab))
            .insert_at(at, b, neighbor(b, a, rel_ba));
    }
    // Phase 1: the origin announces the prefix; it reaches i via
    // origin → customer → j → i (customer routes are exported to peers).
    // Phase 2 happens later (see [`disappear_trigger`]): a policy change makes
    // j prefer the provider route, which it may NOT export to its peer i, so
    // the route disappears from i.
    let tb = builder
        .insert_at(SimTime::from_millis(100), origin, originate(origin, &prefix))
        .build();
    (tb, i, j, prefix)
}

/// Second phase of the disappear scenario: a traffic-engineering decision at
/// AS `j` (AS 2) makes it prefer the route through its provider (AS 4).  The
/// provider route may not be exported to peers, so AS 1 receives a
/// withdrawal — the event the Quagga-Disappear query investigates.
pub fn disappear_trigger(tb: &mut Deployment, at: SimTime) {
    let j = NodeId(2);
    let provider = NodeId(4);
    let prefix = "198.51.100.0/24";
    tb.insert_at(at, j, prefer(j, prefix, provider));
}

/// Build the BGP *blackhole* scenario for the negative query "why does my
/// BGP table have no route to prefix P?": the origin (AS 3, a customer of
/// the transit AS 2) announces the prefix, and the transit AS — whose
/// export policy says peers *do* get customer routes — silently withholds
/// its advertisement to the victim peer (AS 1) when `suppress` is set.  The
/// victim's table simply has no route; only `why_absent` can show that the
/// transit logged state obliging it to advertise and never delivered.
///
/// Returns the deployment, the victim, the transit AS and the prefix.
pub fn blackhole_scenario(secure: bool, seed: u64, suppress: bool) -> (Deployment, NodeId, NodeId, String) {
    let victim = NodeId(1);
    let transit = NodeId(2);
    let origin = NodeId(3);
    let prefix = "203.0.113.0/24".to_string();
    let mut builder = Deployment::builder().seed(seed).secure(secure);
    for n in [victim, transit, origin] {
        builder = builder.node(n, |id| Box::new(BgpSpeaker::new(id)));
    }
    let at = SimTime::from_millis(5);
    builder = builder
        .insert_at(at, victim, neighbor(victim, transit, Relation::Peer))
        .insert_at(at, transit, neighbor(transit, victim, Relation::Peer))
        .insert_at(at, transit, neighbor(transit, origin, Relation::Customer))
        .insert_at(at, origin, neighbor(origin, transit, Relation::Provider));
    if suppress {
        builder = builder.byzantine(transit, snp_core::ByzantineConfig::suppressing(victim));
    }
    let tb = builder
        .insert_at(SimTime::from_millis(100), origin, originate(origin, &prefix))
        .build();
    (tb, victim, transit, prefix)
}

#[cfg(test)]
mod tests {

    #[test]
    fn declared_program_is_lint_clean_against_the_workload() {
        use snp_core::deploy::WorkloadOp;
        let app = BgpScenario::quagga_like().app(true);
        let rules = snp_datalog::parser::parse_program(BGP_PROGRAM).expect("program parses");
        let facts: Vec<Tuple> = app
            .workload(7)
            .into_iter()
            .map(|e| match e.op {
                WorkloadOp::Insert(t) | WorkloadOp::Delete(t) => t,
            })
            .collect();
        for d in snp_datalog::analyze_with_facts(&rules, &facts) {
            assert!(d.severity < snp_datalog::Severity::Warning, "{}", d.render());
        }
    }

    use super::*;

    #[test]
    fn routes_propagate_through_the_hierarchy() {
        let scenario = BgpScenario {
            ases: 6,
            prefixes: 2,
            updates: 0,
            duration_s: 10,
        };
        let mut tb = scenario.build(true, 1);
        let prefix = "10.0.0.0/16";
        tb.insert_at(SimTime::from_millis(500), NodeId(6), originate(NodeId(6), prefix));
        tb.run_until(SimTime::from_secs(30));
        // Every AS should end up with a route to the prefix (customer routes
        // are exported upward and then back down).
        for asn in scenario.as_ids() {
            if asn == NodeId(6) {
                continue;
            }
            let has_route = tb.handles[&asn]
                .with(|n| n.current_tuples())
                .iter()
                .any(|t| t.relation == "route" && t.str_arg(0) == Some(prefix));
            assert!(has_route, "AS {asn} must have a route to {prefix}");
        }
    }

    #[test]
    fn export_policy_respects_gao_rexford() {
        // origin (customer of 2) announces; 2 exports to everyone; but a route
        // learned from its *peer* 1 must not be exported to its other peer.
        let speaker = BgpSpeaker::new(NodeId(2));
        assert!(speaker.may_export(Relation::Customer, Relation::Peer, false));
        assert!(speaker.may_export(Relation::Customer, Relation::Provider, false));
        assert!(!speaker.may_export(Relation::Peer, Relation::Peer, false));
        assert!(!speaker.may_export(Relation::Provider, Relation::Peer, false));
        assert!(speaker.may_export(Relation::Provider, Relation::Customer, false));
        assert!(
            speaker.may_export(Relation::Peer, Relation::Peer, true),
            "originated routes go everywhere"
        );
    }

    #[test]
    fn withdrawals_remove_routes() {
        let scenario = BgpScenario {
            ases: 4,
            prefixes: 1,
            updates: 0,
            duration_s: 10,
        };
        let mut tb = scenario.build(true, 2);
        let prefix = "10.1.0.0/16";
        tb.insert_at(SimTime::from_millis(500), NodeId(4), originate(NodeId(4), prefix));
        tb.delete_at(SimTime::from_secs(10), NodeId(4), originate(NodeId(4), prefix));
        tb.run_until(SimTime::from_secs(30));
        for asn in scenario.as_ids() {
            let has_route = tb.handles[&asn]
                .with(|n| n.current_tuples())
                .iter()
                .any(|t| t.relation == "route" && t.str_arg(0) == Some(prefix));
            assert!(!has_route, "AS {asn} must have withdrawn the route");
        }
    }

    #[test]
    fn disappear_scenario_explains_the_withdrawal() {
        let (mut tb, i, j, prefix) = disappear_scenario(true, 3);
        tb.run_until(SimTime::from_secs(20));
        // Phase 1: i has the route via j.
        let had_route = tb.handles[&i]
            .with(|n| n.current_tuples())
            .iter()
            .any(|t| t.relation == "route" && t.str_arg(0) == Some(prefix.as_str()));
        assert!(had_route, "AS {i} must first learn the route via {j}");

        disappear_trigger(&mut tb, SimTime::from_secs(25));
        tb.run_until(SimTime::from_secs(60));
        let still_has = tb.handles[&i]
            .with(|n| n.current_tuples())
            .iter()
            .any(|t| t.relation == "route" && t.str_arg(0) == Some(prefix.as_str()));
        assert!(!still_has, "the route at {i} must have disappeared");

        // Dynamic query: why did the advertised route disappear from i?
        let gone = tb.handles[&i]
            .with(|n| n.current_tuples())
            .iter()
            .find(|t| t.relation == "advRoute" && t.str_arg(0) == Some(prefix.as_str()))
            .cloned();
        assert!(gone.is_none());
        // Query the disappearance of the believed advertisement from j.
        let result = tb
            .querier
            .why_disappeared(adv_route(i, &prefix, &[j, NodeId(3), NodeId(5)], j))
            .at(i)
            .run();
        assert!(result.root.is_some(), "the believe-disappear vertex must be found");
        assert!(
            result.implicated_nodes().is_empty(),
            "a policy-driven withdrawal is not a fault"
        );
        // The explanation crosses into AS j.
        let touches_j = result
            .traversal
            .as_ref()
            .unwrap()
            .depths
            .keys()
            .any(|id| result.graph.vertex(id).map(|v| v.host() == j).unwrap_or(false));
        assert!(
            touches_j,
            "the withdrawal must be traced into AS {j}:\n{}",
            result.render()
        );
    }

    #[test]
    fn badgadget_routes_flutter_or_converge_with_provenance() {
        let (mut tb, dest, prefix) = badgadget_scenario(true, 5);
        // Bounded horizon: the gadget never converges, and over FIFO links
        // the flutter sustains itself indefinitely (see badgadget_scenario).
        tb.run_until(SimTime::from_millis(600));
        // Whatever the current flap state, node 1 must have processed
        // announcements, and the provenance of its current route must reach
        // the destination's originate tuple.
        let node1_routes: Vec<Tuple> = tb.handles[&NodeId(1)]
            .with(|n| n.current_tuples())
            .into_iter()
            .filter(|t| t.relation == "route" && t.str_arg(0) == Some(prefix.as_str()))
            .collect();
        assert!(
            !node1_routes.is_empty(),
            "AS 1 must have a route to the BadGadget prefix"
        );
        let result = tb.querier.why_exists(node1_routes[0].clone()).at(NodeId(1)).run();
        assert!(result.root.is_some());
        let reaches_origin = result.traversal.as_ref().unwrap().depths.keys().any(|id| {
            result
                .graph
                .vertex(id)
                .map(|v| v.host() == dest && v.kind.tuple().relation == "originate")
                .unwrap_or(false)
        });
        assert!(
            reaches_origin,
            "route provenance must reach the origin AS:\n{}",
            result.render()
        );
        assert!(
            result.implicated_nodes().is_empty(),
            "BadGadget is a configuration problem, not node misbehavior"
        );
    }

    #[test]
    fn fabricated_route_announcement_is_traced_to_the_hijacker() {
        // Route hijacking: AS 3 advertises a prefix it does not own and has no
        // route to (prefix hijack), by fabricating an advRoute notification.
        let scenario = BgpScenario {
            ases: 4,
            prefixes: 1,
            updates: 0,
            duration_s: 10,
        };
        let mut tb = scenario.build(true, 7);
        let prefix = "192.0.2.0/24";
        let hijacker = NodeId(3);
        let victim_view = NodeId(1); // 3's provider is 1
        tb.set_byzantine(
            hijacker,
            snp_core::ByzantineConfig::fabricating(
                victim_view,
                TupleDelta::plus(adv_route(victim_view, prefix, &[hijacker], hijacker)),
            ),
        )
        .expect("deployed node");
        tb.run_until(SimTime::from_secs(30));
        let bogus_route = tb.handles[&victim_view]
            .with(|n| n.current_tuples())
            .into_iter()
            .find(|t| t.relation == "route" && t.str_arg(0) == Some(prefix));
        let bogus_route = bogus_route.expect("the hijacked route must be installed at AS 1");
        let result = tb.querier.why_exists(bogus_route).at(victim_view).run();
        assert!(
            result.implicated_nodes().contains(&hijacker),
            "the hijacker must be implicated: {:?}",
            result.implicated_nodes()
        );
        assert!(!result.implicated_nodes().contains(&victim_view));
    }

    #[test]
    fn blackhole_why_absent_implicates_the_withholding_transit() {
        let (mut tb, victim, transit, prefix) = blackhole_scenario(true, 21, true);
        tb.run_until(SimTime::from_secs(30));
        let has_route = tb.handles[&victim]
            .with(|n| n.current_tuples())
            .iter()
            .any(|t| t.relation == "route" && t.str_arg(0) == Some(prefix.as_str()));
        assert!(!has_route, "the victim must be blackholed");

        let result = tb.querier.why_absent(route_pattern(victim, &prefix)).at(victim).run();
        assert!(result.root.is_some(), "the absence must be explained");
        assert!(!result.is_legitimate(), "a withheld advertisement is not clean");
        assert!(
            result.implicated_nodes().contains(&transit),
            "the withholding transit must be implicated: {:?}",
            result.implicated_nodes()
        );
        assert!(
            !result.implicated_nodes().contains(&victim) && !result.implicated_nodes().contains(&NodeId(3)),
            "correct ASes must not be implicated"
        );
        // The transit's undelivered advertisement shows up as red evidence.
        let red_send = result.vertices().any(|v| {
            matches!(&v.kind, snp_graph::VertexKind::Send { node, .. } if *node == transit)
                && v.color == snp_graph::Color::Red
        });
        assert!(red_send, "signed evidence of the withheld send:\n{}", result.render());
    }

    #[test]
    fn blackhole_why_absent_is_legitimate_when_nothing_was_announced() {
        // Same topology, no suppression and no origination: the absence is
        // genuine and must be fully explained without implicating anyone.
        let victim = NodeId(1);
        let transit = NodeId(2);
        let origin = NodeId(3);
        let prefix = "203.0.113.0/24";
        let mut builder = Deployment::builder().seed(4).secure(true);
        for n in [victim, transit, origin] {
            builder = builder.node(n, |id| Box::new(BgpSpeaker::new(id)));
        }
        let at = SimTime::from_millis(5);
        let mut tb = builder
            .insert_at(at, victim, neighbor(victim, transit, Relation::Peer))
            .insert_at(at, transit, neighbor(transit, victim, Relation::Peer))
            .insert_at(at, transit, neighbor(transit, origin, Relation::Customer))
            .insert_at(at, origin, neighbor(origin, transit, Relation::Provider))
            .build();
        tb.run_until(SimTime::from_secs(10));
        let result = tb.querier.why_absent(route_pattern(victim, prefix)).at(victim).run();
        assert!(result.root.is_some());
        assert!(
            result.is_legitimate(),
            "a never-announced prefix is a clean absence:\n{}",
            result.render()
        );
        assert!(result.implicated_nodes().is_empty());
        // The recursion walked through the transit to the origin's missing
        // origination.
        assert!(result.audits.contains_key(&transit));
        let reaches_missing_originate = result
            .vertices()
            .any(|v| matches!(&v.kind, snp_graph::VertexKind::Absence { tuple, .. } if tuple.relation == "originate"));
        assert!(
            reaches_missing_originate,
            "the absence must bottom out at a missing origination:\n{}",
            result.render()
        );
    }

    #[test]
    fn quagga_like_trace_generates_traffic() {
        let scenario = BgpScenario {
            ases: 10,
            prefixes: 10,
            updates: 60,
            duration_s: 30,
        };
        let mut tb = scenario.build(true, 11);
        scenario.inject_updates(&mut tb, 11);
        tb.run_until(SimTime::from_secs(60));
        let traffic = tb.total_traffic();
        assert!(
            traffic.data_messages > 50,
            "update churn must generate BGP traffic, got {}",
            traffic.data_messages
        );
        assert!(traffic.proxy_bytes > 0, "proxy overhead must be accounted");
    }
}
