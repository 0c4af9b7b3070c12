//! The seed scenarios: small deployments whose full adversarial state space
//! the checker can exhaust.
//!
//! All three use *lockstep* networks — `min_delay == t_prop`, zero clock
//! skew, zero drop probability — which is what makes replay-based
//! backtracking and RNG-free fingerprints sound: after setup the simulator
//! never consumes randomness, so a choice prefix determines the state
//! exactly.  Adversarial nondeterminism is modelled as *transitions*, not
//! configuration: every node starts honest, and each
//! [`AdversaryAction`] is a pending event the
//! checker can fire at any explored instant or drop entirely, covering every
//! subset and every timing of the misbehaviour set.

use crate::explorer::{Flaw, Scenario};
use snp_apps::{bgp, chord, mincost};
use snp_core::properties::{check_accuracy, check_completeness};
use snp_core::{AdversaryAction, Deployment, NodeId};
use snp_datalog::machine::TupleDelta;
use snp_datalog::{Tuple, Value};
use snp_sim::{NetworkConfig, SimDuration, SimTime};
use std::collections::BTreeSet;

/// A fixed-delay, zero-skew, lossless network: the only network model under
/// which the checker's fingerprints are sound (see [`crate::explorer::fingerprint`]).
pub fn lockstep_network(t_prop: SimDuration) -> NetworkConfig {
    NetworkConfig {
        t_prop,
        min_delay: t_prop,
        clock_skew: SimDuration::ZERO,
        drop_probability: 0.0,
    }
}

/// Look up a scenario by its stable name.
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        "mincost-fabrication" => Some(Box::new(MinCostFabrication::default())),
        "bgp-blackhole" => Some(Box::new(BgpBlackhole)),
        "chord-eclipse" => Some(Box::new(ChordEclipse)),
        _ => None,
    }
}

/// All seed scenarios, in reporting order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(MinCostFabrication::default()),
        Box::new(BgpBlackhole),
        Box::new(ChordEclipse),
    ]
}

fn flaw_with(graph: &snp_graph::ProvenanceGraph, message: String) -> Flaw {
    Flaw {
        message,
        graph: Some(Box::new(graph.clone())),
    }
}

// ---------------------------------------------------------------------------
// MinCost fabrication (§3.3's running example)
// ---------------------------------------------------------------------------

/// Three MinCost routers in a triangle (`A–B` 5, `B–C` 5, `A–C` 20); the
/// adversary may make `B` fabricate `cost(@A, C, B, 1)` — the paper's §3.3
/// lie that gives `A` a phantom one-hop bargain — and/or suppress `B`'s
/// updates towards `C`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinCostFabrication {
    /// Build the routers on the retained naive-scan reference engine
    /// instead of the indexed one.  The explored state space must be
    /// identical either way — the replay regression suite replays the
    /// committed witness schedules under both and asserts byte-identical
    /// fingerprint sequences, pinning the indexed store to the scan
    /// semantics at the model-checker level.
    pub naive_reference: bool,
}

impl MinCostFabrication {
    fn fabricated_cost() -> Tuple {
        Tuple::new(
            "cost",
            mincost::A,
            vec![Value::Node(mincost::C), Value::Node(mincost::B), Value::Int(1)],
        )
    }
}

impl Scenario for MinCostFabrication {
    fn name(&self) -> &'static str {
        "mincost-fabrication"
    }

    fn build(&self) -> Deployment {
        let mut builder = Deployment::builder()
            .seed(7)
            .secure(true)
            .network(lockstep_network(SimDuration::from_millis(10)));
        for n in [mincost::A, mincost::B, mincost::C] {
            builder = if self.naive_reference {
                builder.node(n, mincost::naive_router())
            } else {
                builder.node(n, mincost::router())
            };
        }
        builder
            .insert_at(
                SimTime::from_millis(1),
                mincost::A,
                mincost::link(mincost::A, mincost::B, 5),
            )
            .insert_at(
                SimTime::from_millis(1),
                mincost::B,
                mincost::link(mincost::B, mincost::A, 5),
            )
            .insert_at(
                SimTime::from_millis(2),
                mincost::B,
                mincost::link(mincost::B, mincost::C, 5),
            )
            .insert_at(
                SimTime::from_millis(2),
                mincost::C,
                mincost::link(mincost::C, mincost::B, 5),
            )
            .insert_at(
                SimTime::from_millis(3),
                mincost::A,
                mincost::link(mincost::A, mincost::C, 20),
            )
            .insert_at(
                SimTime::from_millis(3),
                mincost::C,
                mincost::link(mincost::C, mincost::A, 20),
            )
            .build()
    }

    fn adversary(&self) -> Vec<(SimTime, NodeId, AdversaryAction)> {
        vec![
            (
                SimTime::from_millis(5),
                mincost::B,
                AdversaryAction::Fabricate {
                    to: mincost::A,
                    delta: TupleDelta::plus(Self::fabricated_cost()),
                },
            ),
            (
                SimTime::from_millis(5),
                mincost::B,
                AdversaryAction::SuppressSendsTo(mincost::C),
            ),
        ]
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_millis(30)
    }

    fn check_terminal(
        &self,
        deployment: &mut Deployment,
        fired: &[(NodeId, AdversaryAction)],
        byzantine: &BTreeSet<NodeId>,
    ) -> Result<(), Flaw> {
        // Positive probe: if the fabricated bargain took hold at A, its
        // provenance must expose B.
        let phantom = mincost::best_cost(mincost::A, mincost::C, 1);
        let a_has_phantom = deployment.handles[&mincost::A].with(|n| n.current_tuples().contains(&phantom));
        if a_has_phantom {
            let result = deployment.querier.why_exists(phantom).at(mincost::A).run();
            check_accuracy(&result.graph, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("mincost why_exists: {e}")))?;
            check_completeness(&result, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("mincost why_exists: {e}")))?;
        }
        // Negative probe: if B went silent towards C and C is stuck on the
        // expensive direct route, "why is there no cheap route?" must
        // implicate B.
        let suppressed = fired
            .iter()
            .any(|(node, action)| *node == mincost::B && matches!(action, AdversaryAction::SuppressSendsTo(_)));
        let cheap = mincost::best_cost(mincost::C, mincost::A, 10);
        let c_has_cheap = deployment.handles[&mincost::C].with(|n| n.current_tuples().contains(&cheap));
        if suppressed && !c_has_cheap {
            let result = deployment.querier.why_absent(cheap).at(mincost::C).run();
            check_accuracy(&result.graph, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("mincost why_absent: {e}")))?;
            check_completeness(&result, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("mincost why_absent: {e}")))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// BGP blackhole
// ---------------------------------------------------------------------------

/// A three-AS chain (victim — transit — origin); the adversary may make the
/// transit AS silently stop exporting routes to the victim (the §2.1
/// blackhole) and/or stop acknowledging commitment traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct BgpBlackhole;

/// The blackholed prefix.
pub const BLACKHOLE_PREFIX: &str = "203.0.113.0/24";

const VICTIM: NodeId = NodeId(1);
const TRANSIT: NodeId = NodeId(2);
const ORIGIN: NodeId = NodeId(3);

impl Scenario for BgpBlackhole {
    fn name(&self) -> &'static str {
        "bgp-blackhole"
    }

    fn build(&self) -> Deployment {
        let mut builder = Deployment::builder()
            .seed(11)
            .secure(true)
            .network(lockstep_network(SimDuration::from_millis(10)));
        for n in [VICTIM, TRANSIT, ORIGIN] {
            builder = builder.node(n, |id| Box::new(bgp::BgpSpeaker::new(id)));
        }
        builder
            .insert_at(
                SimTime::from_millis(1),
                VICTIM,
                bgp::neighbor(VICTIM, TRANSIT, bgp::Relation::Peer),
            )
            .insert_at(
                SimTime::from_millis(1),
                TRANSIT,
                bgp::neighbor(TRANSIT, VICTIM, bgp::Relation::Peer),
            )
            .insert_at(
                SimTime::from_millis(2),
                TRANSIT,
                bgp::neighbor(TRANSIT, ORIGIN, bgp::Relation::Customer),
            )
            .insert_at(
                SimTime::from_millis(2),
                ORIGIN,
                bgp::neighbor(ORIGIN, TRANSIT, bgp::Relation::Provider),
            )
            .insert_at(
                SimTime::from_millis(10),
                ORIGIN,
                bgp::originate(ORIGIN, BLACKHOLE_PREFIX),
            )
            .build()
    }

    fn adversary(&self) -> Vec<(SimTime, NodeId, AdversaryAction)> {
        vec![
            (
                SimTime::from_millis(5),
                TRANSIT,
                AdversaryAction::SuppressSendsTo(VICTIM),
            ),
            (SimTime::from_millis(5), TRANSIT, AdversaryAction::SuppressAcks),
        ]
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_millis(90)
    }

    fn check_terminal(
        &self,
        deployment: &mut Deployment,
        fired: &[(NodeId, AdversaryAction)],
        byzantine: &BTreeSet<NodeId>,
    ) -> Result<(), Flaw> {
        let routes: Vec<Tuple> = deployment.handles[&VICTIM]
            .with(|n| n.current_tuples())
            .into_iter()
            .filter(|t| t.relation == "route" && t.str_arg(0) == Some(BLACKHOLE_PREFIX))
            .collect();
        if let Some(route) = routes.into_iter().next() {
            // The route made it through (the suppression fired too late or
            // not at all): its provenance must be explainable without
            // accusing anyone clean.
            let result = deployment.querier.why_exists(route).at(VICTIM).run();
            check_accuracy(&result.graph, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("bgp why_exists: {e}")))?;
        } else {
            let suppressed = fired
                .iter()
                .any(|(node, action)| *node == TRANSIT && matches!(action, AdversaryAction::SuppressSendsTo(_)));
            if suppressed {
                // The blackhole held: the negative query must implicate the
                // transit AS.
                let pattern = bgp::route_pattern(VICTIM, BLACKHOLE_PREFIX);
                let result = deployment.querier.why_absent(pattern).at(VICTIM).run();
                check_accuracy(&result.graph, byzantine)
                    .map_err(|e| flaw_with(&result.graph, format!("bgp why_absent: {e}")))?;
                check_completeness(&result, byzantine)
                    .map_err(|e| flaw_with(&result.graph, format!("bgp why_absent: {e}")))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Chord eclipse
// ---------------------------------------------------------------------------

/// A four-member static Chord ring where node 2 runs the Eclipse machine
/// (it answers every routed lookup with itself).  On top of the corrupt
/// machine, the adversary may make node 2 refuse audit retrievals and/or
/// tamper with its own log — exercising the completeness disjunction:
/// red evidence *or* a yellow uncooperative suspect.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChordEclipse;

const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);
const N4: NodeId = NodeId(4);
const REQ: u64 = 1;
const KEY: u64 = 400;

impl ChordEclipse {
    fn correct_result() -> Tuple {
        // Key 400 lies in (300, 400], so node 4 (Chord id 400) owns it.
        chord::lookup_result(N1, REQ, KEY, N4, 400)
    }
}

impl Scenario for ChordEclipse {
    fn name(&self) -> &'static str {
        "chord-eclipse"
    }

    fn build(&self) -> Deployment {
        let ids = [(N1, 100), (N2, 200), (N3, 300), (N4, 400)];
        let mut builder = Deployment::builder()
            .seed(13)
            .secure(true)
            .network(lockstep_network(SimDuration::from_millis(10)));
        for (n, _) in ids {
            if n == N2 {
                builder = builder.node(n, |id| Box::new(chord::ChordMachine::eclipse(id)));
            } else {
                builder = builder.node(n, |id| Box::new(chord::ChordMachine::new(id)));
            }
        }
        let succ = |i: usize| ids[(i + 1) % ids.len()];
        for (i, (n, id)) in ids.into_iter().enumerate() {
            let (succ_node, succ_id) = succ(i);
            builder = builder
                .insert_at(SimTime::from_millis(1), n, chord::me(n, id))
                .insert_at(SimTime::from_millis(2), n, chord::succ(n, succ_id, succ_node));
        }
        builder
            .insert_at(SimTime::from_millis(10), N1, chord::lookup(N1, KEY, N1, REQ))
            .build()
    }

    fn adversary(&self) -> Vec<(SimTime, NodeId, AdversaryAction)> {
        vec![
            (SimTime::from_millis(15), N2, AdversaryAction::RefuseRetrieve),
            (SimTime::from_millis(15), N2, AdversaryAction::TamperLogDropEntry(0)),
        ]
    }

    fn static_byzantine(&self) -> BTreeSet<NodeId> {
        BTreeSet::from([N2])
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_millis(70)
    }

    fn check_terminal(
        &self,
        deployment: &mut Deployment,
        _fired: &[(NodeId, AdversaryAction)],
        byzantine: &BTreeSet<NodeId>,
    ) -> Result<(), Flaw> {
        let correct = Self::correct_result();
        let tuples = deployment.handles[&N1].with(|n| n.current_tuples());
        if tuples.contains(&correct) {
            // Node 1's only route to key 400 goes through the attacker,
            // which never forwards: the true owner cannot have answered.
            return Err(Flaw::new(
                "chord: the correct lookup result appeared despite the eclipse attacker on-path",
            ));
        }
        let eclipsed = tuples.iter().any(|t| t.relation == correct.relation && t != &correct);
        if eclipsed {
            // The attacker answered with itself; asking why the *correct*
            // result is absent must produce evidence against node 2 (red
            // from replay/tamper, or yellow if it refuses retrieval).
            let result = deployment.querier.why_absent(correct).at(N1).run();
            check_accuracy(&result.graph, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("chord why_absent: {e}")))?;
            check_completeness(&result, byzantine)
                .map_err(|e| flaw_with(&result.graph, format!("chord why_absent: {e}")))?;
        }
        // If no result arrived at all (the lookup outraced the ring tuples,
        // or the horizon cut the route short), the machine-wide accuracy
        // sweep in `check_invariants` is all we can assert.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_every_seed_scenario() {
        for scenario in all() {
            let found = by_name(scenario.name()).expect("seed scenario resolves by name");
            assert_eq!(found.name(), scenario.name());
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn scenarios_build_deterministically() {
        for scenario in all() {
            let a = crate::explorer::instantiate(scenario.as_ref());
            let b = crate::explorer::instantiate(scenario.as_ref());
            assert_eq!(
                a.fingerprint().to_hex(),
                b.fingerprint().to_hex(),
                "initial fingerprint of {} must be reproducible",
                scenario.name()
            );
            assert_eq!(a.adversary_seqs, b.adversary_seqs);
            assert!(
                !a.adversary_seqs.is_empty(),
                "{} schedules adversary events",
                scenario.name()
            );
        }
    }
}
