//! `bgp-cold` — the paper's baseline configuration: a path-vector BGP
//! hierarchy under a RouteViews-like update trace, commitment protocol
//! unbatched and **no epochs**, so every cold query fetches and replays
//! whole per-node histories.  Maintenance here is pure commitment protocol
//! (one signature + ack per message, `SecureLog::append`); query time is
//! replay and graph construction.

use super::{Ask, Plan, State, Unscheduled};
use crate::oracle::{Demand, Expect, Plant};
use snp_apps::bgp::{self, BgpScenario, BgpSpeaker};
use snp_core::{Application, ByzantineConfig, Deployment, MacroQuery, NodeId, WorkloadOp};
use snp_datalog::{Tuple, TupleDelta};
use snp_sim::rng::DetRng;
use snp_sim::SimTime;
use std::collections::BTreeMap;

/// Calibrated replica count (see README, calibration record).
pub const REPLICAS: usize = 76;
/// Planted faults rotate through this many kinds.
pub const ROTATION: usize = 3;

const SCENARIO: BgpScenario = BgpScenario {
    ases: 8,
    prefixes: 24,
    updates: 120,
    duration_s: 60,
};
/// Simulated seconds after the last update for routes to settle.
const SETTLE_S: u64 = 10;
/// A prefix only the fabricating node ever announces.
const FABRICATED_PREFIX: &str = "10.250.0.0/16";
/// A prefix nobody ever announces.
const UNANNOUNCED_PREFIX: &str = "10.251.0.0/16";

/// The AS whose table certainly held a route to a prefix `origin`
/// announced: its provider, or for a tier-1 its tier-1 peer.
fn upstream_of(origin: NodeId) -> NodeId {
    match origin.0 {
        1 => NodeId(2),
        2 => NodeId(1),
        i => NodeId(i / 2),
    }
}

pub fn plan(sub_seed: u64, r: usize) -> Plan {
    let app = SCENARIO.app(true);
    let events = app.workload(sub_seed);
    let mut rng = DetRng::new(sub_seed).fork("bgp-plan");
    let node = NodeId(1 + rng.next_below(SCENARIO.ases));
    let neighbors: Vec<NodeId> = SCENARIO
        .topology()
        .into_iter()
        .filter_map(|(a, b, _)| match (a == node, b == node) {
            (true, _) => Some(b),
            (_, true) => Some(a),
            _ => None,
        })
        .collect();
    let victim = *rng.choose(&neighbors).expect("every AS has a neighbor");
    // Checkpoint forgery is inert without epochs, so the rotation here is
    // tamper / refuse / fabricate.
    let plant = match r % ROTATION {
        0 => Plant::tamper(node),
        1 => Plant::refuse(node),
        _ => Plant {
            node,
            config: ByzantineConfig::fabricating(
                victim,
                TupleDelta::plus(bgp::adv_route(victim, FABRICATED_PREFIX, &[node], node)),
            ),
            expect: Expect::Red,
            label: "fabricating",
        },
    };

    // Prefixes announced at some point and withdrawn by everyone since:
    // the upstream of the last origin verifiably had, then lost, a route.
    let mut live: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    let mut last_withdrawn: BTreeMap<String, NodeId> = BTreeMap::new();
    for event in &events {
        match &event.op {
            WorkloadOp::Insert(t) if t.relation == "originate" => {
                live.entry(t.str_arg(0).expect("prefix").to_string())
                    .or_default()
                    .push(event.node);
            }
            WorkloadOp::Delete(t) if t.relation == "originate" => {
                let prefix = t.str_arg(0).expect("prefix").to_string();
                let origins = live.entry(prefix.clone()).or_default();
                if let Some(pos) = origins.iter().position(|o| *o == event.node) {
                    origins.remove(pos);
                }
                last_withdrawn.insert(prefix, event.node);
            }
            _ => {}
        }
    }
    let vanished: Vec<(NodeId, String)> = last_withdrawn
        .into_iter()
        .filter(|(prefix, _)| live.get(prefix).is_some_and(Vec::is_empty))
        .map(|(prefix, origin)| (upstream_of(origin), prefix))
        .collect();

    let (planted, fabricates) = (plant.node, r % ROTATION == 2);
    let asks = move |state: &State| {
        let mut rng = DetRng::new(sub_seed).fork("bgp-asks");
        let routes_at = |at: NodeId| -> Vec<&Tuple> { state[&at].iter().filter(|t| t.relation == "route").collect() };
        let any_route = |rng: &mut DetRng| -> Ask {
            loop {
                let at = NodeId(1 + rng.next_below(SCENARIO.ases));
                if let Some(route) = rng.choose(&routes_at(at)) {
                    return Ask::new(
                        MacroQuery::WhyExists {
                            tuple: (*route).clone(),
                        },
                        at,
                    );
                }
            }
        };
        // 1. Through the planted node: the lie it told, or a route (else a
        //    neighbor entry) it hosts.
        let first = if fabricates {
            let lie = routes_at(victim)
                .into_iter()
                .find(|t| t.str_arg(0) == Some(FABRICATED_PREFIX))
                .expect("the victim installed the fabricated route")
                .clone();
            Ask::new(MacroQuery::WhyExists { tuple: lie }, victim)
        } else {
            let hosted = rng
                .choose(&routes_at(planted))
                .map(|t| (*t).clone())
                .unwrap_or_else(|| state[&planted][0].clone());
            Ask::new(MacroQuery::WhyExists { tuple: hosted }, planted)
        };
        let mut asks = vec![first.targeted(), any_route(&mut rng)];
        // 3. Why did the route to a withdrawn prefix vanish?  `BgpSpeaker`
        //    underives an export without naming the withdrawn `originate`,
        //    so these explanations end, all black, at an `underive` leaf:
        //    anchored and clean is all that can be demanded of them.
        asks.push(match rng.choose(&vanished) {
            Some((at, prefix)) => Ask::new(
                MacroQuery::WhyVanished {
                    tuple: bgp::route_pattern(*at, prefix),
                },
                *at,
            )
            .demanding(Demand::Anchored),
            None => any_route(&mut rng),
        });
        // 4. Why is there no route to a prefix nobody announced?
        let at = NodeId(1 + rng.next_below(SCENARIO.ases));
        asks.push(Ask::new(
            MacroQuery::WhyAbsent {
                tuple: bgp::route_pattern(at, UNANNOUNCED_PREFIX),
            },
            at,
        ));
        asks
    };

    Plan {
        events,
        end: SimTime::from_secs(SCENARIO.duration_s + SETTLE_S),
        plant,
        cold: true,
        deploy: Box::new(|| Deployment::builder().app(Unscheduled(SCENARIO.app(false)))),
        expected: Box::new(|id| Box::new(BgpSpeaker::new(id))),
        asks: Box::new(asks),
    }
}
