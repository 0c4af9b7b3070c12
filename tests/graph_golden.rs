//! Golden fingerprints of replayed provenance graphs.
//!
//! The fingerprints below were captured on the commit *before* the
//! provenance graph gained its `(host, tuple)` index and the GCA its keyed
//! bookkeeping sets.  They cover every node's replayed graph plus the merged
//! `Gν` and rendered explanation of one query per scenario, so any change to
//! a vertex id, colour, interval end, edge or first-match lookup result in
//! graph construction or merge shows up here as a different hash.

// Test code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp::apps::chord::{self, ChordScenario};
use snp::apps::{bgp, mincost};
use snp::core::{ByzantineConfig, Deployment, QueryResult};
use snp::crypto::keys::NodeId;
use snp::datalog::TupleDelta;
use snp::graph::{ProvenanceGraph, VertexKind};
use snp::sim::SimTime;

/// Serialize everything the rewrite must preserve: vertices in id order with
/// their rendered kind (which includes the interval end) and colour, then
/// edges in `(from, to)` order.
fn graph_bytes(graph: &ProvenanceGraph, out: &mut Vec<u8>) {
    for (id, vertex) in graph.vertices() {
        out.extend_from_slice(id.0.as_bytes());
        out.extend_from_slice(vertex.to_string().as_bytes());
        if let VertexKind::Exist { until, .. } | VertexKind::Believe { until, .. } = &vertex.kind {
            out.extend_from_slice(&until.map_or(u64::MAX, |u| u).to_be_bytes());
        }
        out.push(0);
    }
    for (from, to) in graph.edges() {
        out.extend_from_slice(from.0.as_bytes());
        out.extend_from_slice(to.0.as_bytes());
    }
}

/// One hash over the query's merged graph, root, rendered explanation and
/// audit verdicts, followed by every node's own replayed graph.
fn fingerprint(tb: &mut Deployment, result: &QueryResult) -> String {
    let mut bytes = Vec::new();
    graph_bytes(&result.graph, &mut bytes);
    if let Some(root) = result.root {
        bytes.extend_from_slice(root.0.as_bytes());
    }
    bytes.extend_from_slice(result.render().as_bytes());
    for (node, audit) in &result.audits {
        bytes.extend_from_slice(format!("{node}:{}", audit.color).as_bytes());
    }
    let nodes: Vec<NodeId> = tb.handles.keys().copied().collect();
    for node in nodes {
        graph_bytes(&tb.querier.node_graph(node), &mut bytes);
    }
    snp::crypto::hash(&bytes).to_hex()
}

#[test]
fn bgp_disappear_graphs_match_parent_commit() {
    let (mut tb, i, _j, prefix) = bgp::disappear_scenario(true, 3);
    tb.set_epoch_length(30_000_000);
    tb.run_until(SimTime::from_secs(20));
    bgp::disappear_trigger(&mut tb, SimTime::from_secs(25));
    tb.run_until(SimTime::from_secs(60));
    let route = bgp::adv_route(i, &prefix, &[NodeId(2), NodeId(3), NodeId(5)], NodeId(2));
    let result = tb.querier.why_disappeared(route).at(i).run();
    assert!(result.root.is_some());
    assert_eq!(
        fingerprint(&mut tb, &result),
        "ad18ba4821b4f1e16ba9e543f025c9292147ae7b33441a9bfac3428f4f5b64f1"
    );
}

#[test]
fn bgp_blackhole_negative_graphs_match_parent_commit() {
    let (mut tb, victim, transit, prefix) = bgp::blackhole_scenario(true, 21, true);
    tb.run_until(SimTime::from_secs(30));
    let result = tb
        .querier
        .why_absent(bgp::route_pattern(victim, &prefix))
        .at(victim)
        .run();
    assert!(result.implicated_nodes().contains(&transit));
    assert_eq!(
        fingerprint(&mut tb, &result),
        "d793772c21cf346ec2f03eb7d9d6e1041d584d189d73affb5f9c0fb8e7a6c1cc"
    );
}

/// A route hijack under an update trace: the fabricated send, the churned
/// routes' repeated appear/disappear intervals and the unacknowledged-send
/// bookkeeping all leave red, yellow and closed-interval vertices behind.
#[test]
fn bgp_hijack_graphs_match_parent_commit() {
    let scenario = bgp::BgpScenario {
        ases: 6,
        prefixes: 2,
        updates: 40,
        duration_s: 20,
    };
    let mut tb = scenario.build(true, 7);
    let (hijacker, victim, prefix) = (NodeId(3), NodeId(1), "192.0.2.0/24");
    let lie = TupleDelta::plus(bgp::adv_route(victim, prefix, &[hijacker], hijacker));
    tb.set_byzantine(hijacker, ByzantineConfig::fabricating(victim, lie))
        .unwrap();
    tb.run_until(SimTime::from_secs(40));
    let route = tb.handles[&victim]
        .with(|n| n.current_tuples())
        .into_iter()
        .find(|t| t.relation == "route" && t.str_arg(0) == Some(prefix))
        .unwrap();
    let result = tb.querier.why_exists(route).at(victim).run();
    assert!(result.implicated_nodes().contains(&hijacker));
    assert_eq!(
        fingerprint(&mut tb, &result),
        "fa271640f9bc97dca6e1959ff69014aaac6d00e004f842d0559a488c4d7cc696"
    );
}

/// The fig8 Chord lookup: replayed from genesis, or — with `epoch_s` —
/// anchored at the latest checkpoint of an epoch-sealed deployment.
fn chord_lookup(epoch_s: Option<u64>) -> String {
    let scenario = ChordScenario {
        nodes: 12,
        lookups_per_minute: 0,
        ..ChordScenario::small(60)
    };
    let (mut tb, ring) = scenario.build(true, 9, None);
    if let Some(s) = epoch_s {
        tb.set_epoch_length(s * 1_000_000);
    }
    let origin = ring.members[0].1;
    let key = (ring.members[ring.members.len() / 2].0 + 1) % chord::ID_SPACE;
    let (owner_id, owner) = ring.owner_of(key);
    let (inject_s, audit_s) = if epoch_s.is_some() { (86, 89) } else { (1, 90) };
    tb.insert_at(
        SimTime::from_secs(inject_s),
        origin,
        chord::lookup(origin, key, origin, 1),
    );
    tb.run_until(SimTime::from_secs(audit_s));
    let result_tuple = chord::lookup_result(origin, 1, key, owner, owner_id);
    let result = tb.querier.why_exists(result_tuple).at(origin).run();
    assert!(result.root.is_some());
    fingerprint(&mut tb, &result)
}

#[test]
fn chord_lookup_graphs_match_parent_commit() {
    assert_eq!(
        chord_lookup(None),
        "02498fdf4ecffba4ed88f3b0aa37e6e13543ff87acd3e1d9b86a80b3e599b74d"
    );
    assert_eq!(
        chord_lookup(Some(10)),
        "ef4a617e63cd2ed5f1d89c2e2d8de66699b964e50f9bf2aa76b25a7704ac4a99"
    );
}

#[test]
fn mincost_graphs_match_parent_commit() {
    let mut tb = mincost::build_scenario(true, 1);
    tb.run_until(SimTime::from_secs(30));
    let result = tb
        .querier
        .why_exists(mincost::best_cost(mincost::C, mincost::D, 5))
        .at(mincost::C)
        .run();
    assert!(result.root.is_some());
    assert_eq!(
        fingerprint(&mut tb, &result),
        "24034b68a760abb61e27d27ae0153a8453183e9ca939485efb1983ebac7d0db9"
    );
}
