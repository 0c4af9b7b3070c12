//! `mincost-ndlog` — the only workload where `snp-datalog` does the work:
//! every router is an `Engine` evaluating `MINCOST_PROGRAM` on a grid whose
//! link costs flap, with 5 s epochs, and every cold audit pays
//! `Engine::restore`; the negative queries pay `datalog::absence`.

use super::{Ask, Plan, State};
use crate::oracle::{Demand, Plant};
use snp_apps::mincost::{self, MINCOST_PROGRAM};
use snp_core::{AppNode, Application, Deployment, MacroQuery, NodeId, WorkloadEvent};
use snp_datalog::{Tuple, Value};
use snp_sim::rng::DetRng;
use snp_sim::{SimDuration, SimTime};

/// Calibrated replica count (see README, calibration record).
pub const REPLICAS: usize = 60;
/// Planted faults rotate through this many kinds.
pub const ROTATION: usize = 2;

pub const SIDE: u64 = 3;
const EPOCH_S: u64 = 5;
const FLAPS: u64 = 7;
const FIRST_FLAP_MS: u64 = 1_000;
const FLAP_EVERY_MS: u64 = 1_000;
/// How long a flapping link stays down; shorter than the flap spacing, so
/// at most one link is ever down and the grid stays connected.
const DOWN_MS: u64 = 300;
/// With every cost 1 or 2 the direct link between grid neighbours strictly
/// beats any detour (three hops at least), so the generator knows `bestCost`
/// between the ends of a link without running the protocol — and no tie
/// lets the `min` aggregate swap its support silently, which the engine
/// does not record and which leaves `why_disappeared` an open leaf.
const MAX_COST: u64 = 2;

/// One link-cost flap: the link goes down at `down_ms` with cost `old` and
/// comes back `DOWN_MS` later with cost `new`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flap {
    pub down_ms: u64,
    pub a: NodeId,
    pub b: NodeId,
    pub old: i64,
    pub new: i64,
}

impl Flap {
    pub fn up_ms(&self) -> u64 {
        self.down_ms + DOWN_MS
    }
}

/// The undirected links of the grid: each cell to its right and lower
/// neighbour.
pub fn grid_links(side: u64) -> Vec<(NodeId, NodeId)> {
    let id = |row: u64, col: u64| NodeId(1 + row * side + col);
    let mut links = Vec::new();
    for row in 0..side {
        for col in 0..side {
            if col + 1 < side {
                links.push((id(row, col), id(row, col + 1)));
            }
            if row + 1 < side {
                links.push((id(row, col), id(row + 1, col)));
            }
        }
    }
    links
}

/// Initial link costs and the flap schedule for one sub-seed.
pub fn schedule(sub_seed: u64) -> (Vec<i64>, Vec<Flap>) {
    let links = grid_links(SIDE);
    let mut rng = DetRng::new(sub_seed).fork("mincost-grid");
    let draw = |rng: &mut DetRng| i64::try_from(1 + rng.next_below(MAX_COST)).expect("small cost");
    let initial: Vec<i64> = links.iter().map(|_| draw(&mut rng)).collect();
    let mut costs = initial.clone();
    let mut flaps = Vec::new();
    for k in 0..FLAPS {
        #[allow(clippy::cast_possible_truncation)] // below `links.len()`
        let which = rng.next_below(links.len() as u64) as usize;
        let old = costs[which];
        let new = loop {
            let c = draw(&mut rng);
            if c != old {
                break c;
            }
        };
        costs[which] = new;
        flaps.push(Flap {
            down_ms: FIRST_FLAP_MS + k * FLAP_EVERY_MS,
            a: links[which].0,
            b: links[which].1,
            old,
            new,
        });
    }
    (initial, flaps)
}

/// The routers of the grid, each an `Engine` on the MinCost program.
struct Grid;

impl Application for Grid {
    fn name(&self) -> String {
        format!("mincost-grid-{SIDE}x{SIDE}")
    }

    fn nodes(&self) -> Vec<NodeId> {
        (1..=SIDE * SIDE).map(NodeId).collect()
    }

    fn node(&self, id: NodeId) -> AppNode {
        AppNode::new(mincost::router()(id))
    }

    fn program(&self) -> Option<String> {
        Some(MINCOST_PROGRAM.into())
    }
}

/// `cost(@at, dest, via, *)`: "a cost to `dest` through `via`, whatever it
/// is" — absent whenever `via` is no neighbour of `at`.
fn cost_pattern(at: NodeId, dest: NodeId, via: NodeId) -> Tuple {
    Tuple::new("cost", at, vec![Value::Node(dest), Value::Node(via), Value::Wild])
}

pub fn plan(sub_seed: u64, r: usize) -> Plan {
    let (initial, flaps) = schedule(sub_seed);
    let mut events = Vec::new();
    for (i, ((a, b), cost)) in grid_links(SIDE).into_iter().zip(&initial).enumerate() {
        let at = SimTime::from_millis(10 + i as u64);
        events.push(WorkloadEvent::insert(at, a, mincost::link(a, b, *cost)));
        events.push(WorkloadEvent::insert(at, b, mincost::link(b, a, *cost)));
    }
    for f in &flaps {
        let (down, up) = (SimTime::from_millis(f.down_ms), SimTime::from_millis(f.up_ms()));
        events.push(WorkloadEvent::delete(down, f.a, mincost::link(f.a, f.b, f.old)));
        events.push(WorkloadEvent::delete(down, f.b, mincost::link(f.b, f.a, f.old)));
        events.push(WorkloadEvent::insert(up, f.a, mincost::link(f.a, f.b, f.new)));
        events.push(WorkloadEvent::insert(up, f.b, mincost::link(f.b, f.a, f.new)));
    }

    // The last flap falls after the last seal, so its ends hold entries in
    // the suffix every audit replays: a tampering node there never serves an
    // empty suffix.  The rotation here is tamper / refuse only: fabrication
    // at start is sealed behind the first checkpoint, and a forged
    // checkpoint snapshot goes unreported whenever a query's anchor lies
    // before the checkpoint — the widening retry then audits from genesis
    // (the full log is retained), where no snapshot is served, and the
    // result carries only that second, clean audit.
    let last = *flaps.last().expect("at least one flap");
    let last_seal_ms = last.down_ms / (EPOCH_S * 1_000) * EPOCH_S * 1_000;
    assert!(last.down_ms > last_seal_ms + 100, "last flap must follow the last seal");
    let plant = match r % ROTATION {
        0 => Plant::tamper(last.a),
        _ => Plant::refuse(last.a),
    };

    let asks = move |state: &State| {
        let mut rng = DetRng::new(sub_seed).fork("mincost-asks");
        // Any cost any router holds.  Between routers that are not
        // neighbours equal-cost paths are common, and a tie lets the `min`
        // aggregate swap its support unrecorded (see `MAX_COST`): these
        // explanations may end at an `exist` leaf, so they are held to
        // "anchored, all black, nobody named".
        let any_best_cost = |rng: &mut DetRng| -> Ask {
            let at = NodeId(1 + rng.next_below(SIDE * SIDE));
            let known: Vec<&Tuple> = state[&at].iter().filter(|t| t.relation == "bestCost").collect();
            let tuple = (*rng.choose(&known).expect("a converged router knows costs")).clone();
            Ask::new(MacroQuery::WhyExists { tuple }, at).demanding(Demand::Anchored)
        };
        let exists = |at: NodeId, to: NodeId, cost: i64| {
            Ask::new(
                MacroQuery::WhyExists {
                    tuple: mincost::best_cost(at, to, cost),
                },
                at,
            )
        };
        // "Why does `at` know no cost to `dest` through `via`?", asked of a
        // `via` that is no neighbour: the engine's absence tracing names the
        // rule that would have shipped it, and the querier audits `via` for
        // the link it never had.  (Asking about a destination off the grid
        // would audit every router: 9 cold audits against the others' 1-2.)
        let links = grid_links(SIDE);
        let no_route_via = |rng: &mut DetRng| {
            let pick = |rng: &mut DetRng| NodeId(1 + rng.next_below(SIDE * SIDE));
            loop {
                let (at, via, dest) = (pick(rng), pick(rng), pick(rng));
                let adjacent = links.contains(&(at, via)) || links.contains(&(via, at));
                if at != via && !adjacent && dest != at && dest != via {
                    let tuple = cost_pattern(at, dest, via);
                    return Ask::new(MacroQuery::WhyAbsent { tuple }, at);
                }
            }
        };
        // Half why_exists (two on tuples derived after the last checkpoint),
        // a quarter on the cost the last flap removed, a quarter negative.
        vec![
            exists(last.a, last.b, last.new).targeted(),
            exists(last.b, last.a, last.new),
            any_best_cost(&mut rng),
            any_best_cost(&mut rng),
            Ask::new(
                MacroQuery::WhyDisappeared {
                    tuple: mincost::best_cost(last.b, last.a, last.old),
                },
                last.b,
            ),
            Ask::new(
                MacroQuery::WhyVanished {
                    tuple: mincost::best_cost(last.b, last.a, last.old),
                },
                last.b,
            ),
            no_route_via(&mut rng),
            no_route_via(&mut rng),
        ]
    };

    Plan {
        events,
        end: SimTime::from_millis(last.up_ms() + 2_200),
        plant,
        cold: true,
        deploy: Box::new(|| {
            Deployment::builder()
                .app(Grid)
                .epoch_length(SimDuration::from_secs(EPOCH_S))
        }),
        expected: Box::new(|id| mincost::router()(id)),
        asks: Box::new(asks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether the grid minus `down` is connected.
    fn connected_without(down: (NodeId, NodeId)) -> bool {
        let links: Vec<(NodeId, NodeId)> = grid_links(SIDE).into_iter().filter(|l| *l != down).collect();
        let mut seen: BTreeSet<NodeId> = [NodeId(1)].into();
        let mut frontier = vec![NodeId(1)];
        while let Some(n) = frontier.pop() {
            for (a, b) in &links {
                for (from, to) in [(a, b), (b, a)] {
                    if *from == n && seen.insert(*to) {
                        frontier.push(*to);
                    }
                }
            }
        }
        seen.len() as u64 == SIDE * SIDE
    }

    #[test]
    fn grid_stays_connected_under_every_flap() {
        for seed in 0..20 {
            let (_, flaps) = schedule(seed);
            for pair in flaps.windows(2) {
                assert!(pair[0].up_ms() < pair[1].down_ms, "one link down at a time");
            }
            for f in &flaps {
                assert!(grid_links(SIDE).contains(&(f.a, f.b)), "flaps hit grid links");
                assert!(connected_without((f.a, f.b)), "seed {seed}: {f:?} partitions the grid");
                assert_ne!(f.old, f.new);
            }
        }
    }

    #[test]
    fn flap_costs_chain_from_the_initial_costs() {
        let (initial, flaps) = schedule(7);
        let links = grid_links(SIDE);
        let mut costs = initial;
        for f in &flaps {
            let which = links.iter().position(|l| *l == (f.a, f.b)).unwrap();
            assert_eq!(costs[which], f.old, "a flap deletes the cost the link has");
            costs[which] = f.new;
        }
    }
}
