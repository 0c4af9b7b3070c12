//! Property-style integration tests of the SNP theorems on randomly generated
//! workloads (small MinCost-style deployments with randomized link sets and
//! fault injection).
//!
//! The workloads are generated with the repo's own deterministic RNG
//! (proptest is unavailable in the offline build environment), so every case
//! is reproducible from its seed.

// Test code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp::apps::chord::{self, ChordScenario};
use snp::apps::mincost::{link, mincost_rules};
use snp::apps::{bgp, mapreduce};
use snp::core::deploy::Deployment;
use snp::core::properties::{check_accuracy, check_completeness};
use snp::core::query::QueryResult;
use snp::core::ByzantineConfig;
use snp::crypto::keys::NodeId;
use snp::datalog::{Engine, Tuple, Value};
use snp::graph::{Color, VertexKind};
use snp::sim::rng::DetRng;
use snp::sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Build a MinCost deployment over `n` routers with the given undirected
/// links, optionally making one node refuse retrieval or suppress traffic.
fn run_deployment(n: u64, links: &[(u64, u64, i64)], byzantine: Option<(u64, ByzantineConfig)>) -> Deployment {
    let mut builder = Deployment::builder().seed(7).secure(true);
    for i in 1..=n {
        builder = builder.node(NodeId(i), |id| Box::new(Engine::new(id, mincost_rules())));
    }
    if let Some((node, cfg)) = byzantine {
        builder = builder.byzantine(NodeId(node), cfg);
    }
    for (idx, (a, b, cost)) in links.iter().enumerate() {
        let at = SimTime::from_millis(10 + idx as u64);
        builder = builder
            .insert_at(at, NodeId(*a), link(NodeId(*a), NodeId(*b), *cost))
            .insert_at(at, NodeId(*b), link(NodeId(*b), NodeId(*a), *cost));
    }
    let mut deployment = builder.build();
    deployment.run_until(SimTime::from_secs(25));
    deployment
}

/// A random link set over routers `1..=n`: 2–9 links with costs in 1..20,
/// self-loops filtered out.
fn arbitrary_links(rng: &mut DetRng, n: u64) -> Vec<(u64, u64, i64)> {
    let count = 2 + rng.next_below(8) as usize;
    (0..count)
        .map(|_| {
            (
                1 + rng.next_below(n),
                1 + rng.next_below(n),
                1 + rng.next_below(19) as i64,
            )
        })
        .filter(|(a, b, _)| a != b)
        .collect()
}

/// Accuracy (Theorem 5): with no Byzantine nodes, no audit ever comes back
/// red and no red vertex appears anywhere.
#[test]
fn prop_clean_runs_have_no_red_evidence() {
    for case in 0..8u64 {
        let mut rng = DetRng::new(case);
        let links = arbitrary_links(&mut rng, 5);
        let mut tb = run_deployment(5, &links, None);
        for node in 1..=5u64 {
            let audit = tb.querier.audit(NodeId(node));
            assert_eq!(
                audit.color,
                Color::Black,
                "case {case}: audit of correct node {node} was {:?}",
                audit.notes
            );
            let graph = tb.querier.node_graph(NodeId(node));
            assert!(graph.faulty_nodes().is_empty(), "case {case}");
        }
    }
}

/// Completeness (Theorem 6, practical form): querying the state that a
/// suppressing node failed to propagate always leads to red/yellow evidence
/// on that node, and never implicates a correct node.
#[test]
fn prop_explanations_never_implicate_correct_nodes() {
    for case in 0..8u64 {
        let mut rng = DetRng::new(case ^ 0xface);
        let links = arbitrary_links(&mut rng, 4);
        let victim = 1 + rng.next_below(4);
        let mut cfg = ByzantineConfig::honest();
        cfg.refuse_retrieve = true;
        let mut tb = run_deployment(4, &links, Some((victim, cfg)));
        // Query every bestCost tuple that exists anywhere.
        let mut queried = 0;
        for i in 1..=4u64 {
            let tuples = tb.handles[&NodeId(i)].with(|n| n.current_tuples());
            for t in tuples.into_iter().filter(|t| t.relation == "bestCost").take(2) {
                let result = tb.querier.why_exists(t).at(NodeId(i)).run();
                queried += 1;
                let byz: BTreeSet<NodeId> = [NodeId(victim)].into();
                for implicated in result.implicated_nodes() {
                    assert!(
                        byz.contains(&implicated),
                        "case {case}: correct node {implicated} was implicated"
                    );
                }
            }
        }
        assert!(queried > 0 || links.is_empty(), "case {case}");
    }
}

/// The fault injections exercised by the serial/parallel equivalence
/// property: clean runs, Byzantine nodes, and truncated logs must all
/// produce the same answers at every thread count.
#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// One node silently drops a log entry when retrieving (red evidence).
    Tamper(u64),
    /// One node refuses `retrieve` entirely (yellow evidence).
    Refuse(u64),
}

/// Build a MinCost deployment for `case`, run the same macroquery with the
/// given worker count, and return the result.  Everything is derived
/// deterministically from `case`, so two invocations differing only in
/// `threads` observe byte-identical node states.
fn mincost_query(case: u64, fault: Fault, truncate: bool, threads: usize) -> QueryResult {
    let mut rng = DetRng::new(case.wrapping_mul(0x9e37));
    let n = 4;
    let links = arbitrary_links(&mut rng, n);
    let mut builder = Deployment::builder().seed(7).secure(true);
    if truncate {
        builder = builder.epoch_length(SimDuration::from_millis(500)).retain_epochs(2);
    }
    for i in 1..=n {
        builder = builder.node(NodeId(i), |id| Box::new(Engine::new(id, mincost_rules())));
    }
    match fault {
        Fault::None => {}
        Fault::Tamper(node) => {
            builder = builder.byzantine(
                NodeId(node),
                ByzantineConfig {
                    tamper_log_drop_entry: Some(0),
                    ..Default::default()
                },
            );
        }
        Fault::Refuse(node) => {
            builder = builder.byzantine(
                NodeId(node),
                ByzantineConfig {
                    refuse_retrieve: true,
                    ..Default::default()
                },
            );
        }
    }
    for (idx, (a, b, cost)) in links.iter().enumerate() {
        let at = SimTime::from_millis(10 + idx as u64);
        builder = builder
            .insert_at(at, NodeId(*a), link(NodeId(*a), NodeId(*b), *cost))
            .insert_at(at, NodeId(*b), link(NodeId(*b), NodeId(*a), *cost));
    }
    let mut tb = builder.build();
    // Force the thread count past any `SNP_QUERY_THREADS` override: CI runs
    // this suite a second time with the variable set, and the equivalence
    // property is vacuous unless the serial reference really is serial.
    tb.querier.set_query_threads(threads);
    tb.run_until(SimTime::from_secs(25));
    // Query the first bestCost tuple that exists anywhere (deterministic
    // scan order), falling back to a never-derived tuple when the random
    // link set produced nothing.
    let target = (1..=n)
        .flat_map(|i| tb.handles[&NodeId(i)].with(|node| node.current_tuples()))
        .find(|t| t.relation == "bestCost");
    match target {
        Some(t) => {
            let host = t.location;
            tb.querier.why_exists(t).at(host).run()
        }
        None => tb.querier.why_exists(link(NodeId(1), NodeId(2), 1)).at(NodeId(1)).run(),
    }
}

/// An 8-node Chord deployment queried with a forward slice (`effects_of` a
/// hub's `me` tuple) — the fan-out shape the parallel pool accelerates.
fn chord_query(seed: u64, threads: usize) -> QueryResult {
    let scenario = ChordScenario {
        nodes: 8,
        lookups_per_minute: 12,
        ..ChordScenario::small(30)
    };
    let (mut tb, ring) = scenario.build(true, seed, None);
    tb.querier.set_query_threads(threads);
    tb.run_until(SimTime::from_secs(45));
    let (hub_id, hub) = ring.members[0];
    tb.querier.effects_of(chord::me(hub, hub_id)).at(hub).run()
}

/// Everything externally observable about two query results must match.
fn assert_equivalent(context: &str, reference: &QueryResult, other: &QueryResult) {
    assert_eq!(reference.root, other.root, "{context}: root");
    assert_eq!(reference.render(), other.render(), "{context}: render");
    assert_eq!(
        reference.implicated_nodes(),
        other.implicated_nodes(),
        "{context}: implicated"
    );
    assert_eq!(reference.suspect_nodes(), other.suspect_nodes(), "{context}: suspects");
    assert_eq!(reference.hosts(), other.hosts(), "{context}: hosts");
    assert_eq!(reference.len(), other.len(), "{context}: explanation size");
    assert_eq!(
        reference.stats.without_timing(),
        other.stats.without_timing(),
        "{context}: stats modulo timing"
    );
    let colors = |r: &QueryResult| -> Vec<(NodeId, Color)> { r.audits.iter().map(|(n, a)| (*n, a.color)).collect() };
    assert_eq!(colors(reference), colors(other), "{context}: audit colors");
}

/// Determinism across worker counts (the tentpole invariant): for random
/// seeds, apps and thread counts 1/2/8, the rendered explanation, the
/// implicated/suspect sets and the non-timing stats are identical — under
/// clean runs, Byzantine nodes and truncated logs alike.
#[test]
fn prop_parallel_and_serial_queries_are_identical() {
    for case in 0..3u64 {
        let victim = 1 + case % 4;
        let scenarios = [
            ("clean", Fault::None, false),
            ("tampered", Fault::Tamper(victim), false),
            ("refusing+truncated", Fault::Refuse(victim), true),
            ("truncated", Fault::None, true),
        ];
        for (name, fault, truncate) in scenarios {
            let reference = mincost_query(case, fault, truncate, 1);
            for threads in [2usize, 8] {
                let parallel = mincost_query(case, fault, truncate, threads);
                assert_equivalent(&format!("case {case} {name} x{threads}"), &reference, &parallel);
            }
            // Faulty runs must still blame only the victim.
            if let Fault::Tamper(v) | Fault::Refuse(v) = fault {
                for implicated in reference.implicated_nodes() {
                    assert_eq!(implicated, NodeId(v), "case {case} {name}: accuracy");
                }
            }
        }
    }
}

/// Positive/negative duality: after insert→delete, `why_absent(τ)` (now and
/// at a historical instant after the deletion) agrees with
/// `why_disappeared(τ)` — the absence explanation contains the
/// disappearance anchor and, through it, the base-tuple delete; before the
/// insertion the same query explains a never-inserted base tuple instead.
#[test]
fn prop_absence_and_disappearance_are_dual() {
    for case in 0..4u64 {
        let mut rng = DetRng::new(case ^ 0xd0a1);
        let links = arbitrary_links(&mut rng, 4);
        let mut builder = Deployment::builder().seed(7).secure(true);
        for i in 1..=4u64 {
            builder = builder.node(NodeId(i), |id| Box::new(Engine::new(id, mincost_rules())));
        }
        // A guaranteed direct link (so bestCost(@1, 2, 5) exists), plus the
        // random background topology.
        builder = builder.insert_at(SimTime::from_millis(10), NodeId(1), link(NodeId(1), NodeId(2), 5));
        for (idx, (a, b, cost)) in links.iter().enumerate() {
            let at = SimTime::from_millis(20 + idx as u64);
            builder = builder
                .insert_at(at, NodeId(*a), link(NodeId(*a), NodeId(*b), *cost))
                .insert_at(at, NodeId(*b), link(NodeId(*b), NodeId(*a), *cost));
        }
        // Delete every link again so the derived state drains.
        builder = builder.delete_at(SimTime::from_secs(10), NodeId(1), link(NodeId(1), NodeId(2), 5));
        for (idx, (a, b, cost)) in links.iter().enumerate() {
            let at = SimTime::from_millis(11_000 + idx as u64);
            builder = builder
                .delete_at(at, NodeId(*a), link(NodeId(*a), NodeId(*b), *cost))
                .delete_at(at, NodeId(*b), link(NodeId(*b), NodeId(*a), *cost));
        }
        let mut tb = builder.build();
        tb.run_until(SimTime::from_secs(25));

        let vanished = Tuple::new("bestCost", NodeId(1), vec![Value::Node(NodeId(2)), Value::Int(5)]);
        assert!(
            !tb.handles[&NodeId(1)].with(|n| n.has_tuple(&vanished)),
            "case {case}: the tuple must be gone"
        );
        let disappeared = tb.querier.why_disappeared(vanished.clone()).at(NodeId(1)).run();
        let anchor = disappeared.root.expect("disappearance anchor");

        for (label, result) in [
            ("now", tb.querier.why_absent(vanished.clone()).at(NodeId(1)).run()),
            (
                "historical",
                tb.querier
                    .why_absent(vanished.clone())
                    .at(NodeId(1))
                    .when(20_000_000)
                    .run(),
            ),
            (
                "vanished",
                tb.querier.why_vanished(vanished.clone()).at(NodeId(1)).run(),
            ),
        ] {
            assert!(result.root.is_some(), "case {case} {label}: absence root");
            assert!(
                result.traversal.as_ref().unwrap().depths.contains_key(&anchor),
                "case {case} {label}: why_absent must contain the why_disappeared anchor"
            );
            assert!(
                result.vertices().any(|v| matches!(&v.kind, VertexKind::Delete { .. })),
                "case {case} {label}: the delete must explain the absence"
            );
            assert_eq!(
                result.implicated_nodes(),
                disappeared.implicated_nodes(),
                "case {case} {label}: dual queries agree on culprits"
            );
        }

        // Before the insertion the tuple was absent as a never-derivable
        // head over an empty store — no delete involved.
        let before = tb.querier.why_absent(vanished).at(NodeId(1)).when(1).run();
        assert!(before.root.is_some(), "case {case}: pre-insertion absence");
        assert!(
            !before.vertices().any(|v| matches!(&v.kind, VertexKind::Delete { .. })),
            "case {case}: nothing was deleted before the insertion"
        );
    }
}

/// Build a MinCost deployment for `case`, run a `why_absent` macroquery of a
/// never-derivable tuple with the given worker count, and return the result.
/// The wildcarded pattern forces the full negative pipeline: a local missing
/// body atom plus a cross-node never-received fan-out over every peer.
fn mincost_negative_query(case: u64, fault: Fault, threads: usize) -> QueryResult {
    let mut rng = DetRng::new(case.wrapping_mul(0x517c));
    let n = 4;
    let links = arbitrary_links(&mut rng, n);
    let mut builder = Deployment::builder().seed(7).secure(true);
    for i in 1..=n {
        builder = builder.node(NodeId(i), |id| Box::new(Engine::new(id, mincost_rules())));
    }
    match fault {
        Fault::None => {}
        Fault::Tamper(node) => {
            builder = builder.byzantine(
                NodeId(node),
                ByzantineConfig {
                    tamper_log_drop_entry: Some(0),
                    ..Default::default()
                },
            );
        }
        Fault::Refuse(node) => {
            builder = builder.byzantine(
                NodeId(node),
                ByzantineConfig {
                    refuse_retrieve: true,
                    ..Default::default()
                },
            );
        }
    }
    // A ring of guaranteed links so every node logs activity (a refusing
    // node with an empty log is legitimately excused), plus the random
    // background topology.
    for i in 1..=n {
        builder = builder.insert_at(
            SimTime::from_millis(i),
            NodeId(i),
            link(NodeId(i), NodeId(i % n + 1), 10),
        );
    }
    for (idx, (a, b, cost)) in links.iter().enumerate() {
        let at = SimTime::from_millis(10 + idx as u64);
        builder = builder
            .insert_at(at, NodeId(*a), link(NodeId(*a), NodeId(*b), *cost))
            .insert_at(at, NodeId(*b), link(NodeId(*b), NodeId(*a), *cost));
    }
    let mut tb = builder.build();
    tb.querier.set_query_threads(threads);
    tb.run_until(SimTime::from_secs(25));
    let pattern = Tuple::new("bestCost", NodeId(1), vec![Value::Node(NodeId(9)), Value::Wild]);
    tb.querier.why_absent(pattern).at(NodeId(1)).run()
}

/// Serial/parallel identity for the negative query class: for random seeds,
/// thread counts 1/2/8 and clean/tampered/refusing runs, `why_absent`
/// renders byte-identically and reports identical verdicts and non-timing
/// stats.
#[test]
fn prop_why_absent_is_thread_count_invariant() {
    for case in 0..3u64 {
        let victim = 1 + case % 4;
        let scenarios = [
            ("clean", Fault::None),
            ("tampered", Fault::Tamper(victim)),
            ("refusing", Fault::Refuse(victim)),
        ];
        for (name, fault) in scenarios {
            let reference = mincost_negative_query(case, fault, 1);
            assert!(
                reference.root.is_some(),
                "case {case} {name}: the absence must always anchor"
            );
            for threads in [2usize, 8] {
                let parallel = mincost_negative_query(case, fault, threads);
                assert_equivalent(&format!("case {case} neg {name} x{threads}"), &reference, &parallel);
            }
            // Accuracy on the negative path: faults surface, honest nodes
            // stay clean.
            match fault {
                Fault::None => assert!(
                    reference.implicated_nodes().is_empty(),
                    "case {case}: clean runs implicate nobody"
                ),
                Fault::Tamper(v) => {
                    for implicated in reference.implicated_nodes() {
                        assert_eq!(implicated, NodeId(v), "case {case} {name}: accuracy");
                    }
                }
                Fault::Refuse(v) => {
                    assert!(
                        reference.implicated_nodes().is_empty(),
                        "case {case}: refusal alone implicates nobody"
                    );
                    assert!(
                        reference.suspect_nodes().contains(&NodeId(v)),
                        "case {case}: the refusing node must be suspect"
                    );
                }
            }
        }
    }
}

/// The same invariant on the Chord forward slice, whose first expansion wave
/// fans out across many hosts (the shape the pool actually parallelizes).
#[test]
fn prop_chord_forward_slice_is_thread_count_invariant() {
    for seed in [11u64, 29] {
        let reference = chord_query(seed, 1);
        assert!(
            reference.root.is_some(),
            "seed {seed}: the hub's me tuple must have a recorded appearance"
        );
        for threads in [2usize, 8] {
            let parallel = chord_query(seed, threads);
            assert_equivalent(&format!("chord seed {seed} x{threads}"), &reference, &parallel);
        }
    }
}

// ---------------------------------------------------------------------------
// The §4.3 theorems over every Figure-8 scenario row.
//
// Figure 8's harness measures turnaround and bytes; these tests re-run the
// same eight query rows (at smoke sizes) and assert the two formal
// guarantees on each result: accuracy (`check_accuracy` over the returned
// provenance graph — no red vertex on a correct node) and completeness
// (`check_completeness` — every detectable fault leaves a red/yellow suspect
// on a faulty node).  Positive (`why_exists`/`why_disappeared`) and negative
// (`why_absent`) rows alike.
// ---------------------------------------------------------------------------

/// Assert both theorems (and the implication form of accuracy) on a result.
fn assert_theorems(context: &str, result: &QueryResult, byzantine: &BTreeSet<NodeId>) {
    assert!(result.root.is_some(), "{context}: the query must anchor");
    if let Err(e) = check_accuracy(&result.graph, byzantine) {
        panic!("{context}: accuracy violated: {e}");
    }
    if let Err(e) = check_completeness(result, byzantine) {
        panic!("{context}: completeness violated: {e}");
    }
    for implicated in result.implicated_nodes() {
        assert!(
            byzantine.contains(&implicated),
            "{context}: correct node {implicated} was implicated"
        );
    }
}

/// Fig. 8 row 1 — `Quagga-Disappear` (positive, clean run): the historical
/// `why_disappeared` of a withdrawn route satisfies both theorems with an
/// empty fault set.
#[test]
fn fig8_quagga_disappear_upholds_theorems() {
    let (mut tb, i, _j, prefix) = bgp::disappear_scenario(true, 3);
    tb.set_epoch_length(30_000_000);
    tb.run_until(SimTime::from_secs(20));
    bgp::disappear_trigger(&mut tb, SimTime::from_secs(25));
    tb.run_until(SimTime::from_secs(60));
    let result = tb
        .querier
        .why_disappeared(bgp::adv_route(
            i,
            &prefix,
            &[NodeId(2), NodeId(3), NodeId(5)],
            NodeId(2),
        ))
        .at(i)
        .run();
    assert_theorems("Quagga-Disappear", &result, &BTreeSet::new());
}

/// Fig. 8 row 2 — `Quagga-BadGadget` (positive, clean run): mid-flutter
/// `why_exists` of an oscillating route never produces red evidence.
#[test]
fn fig8_quagga_badgadget_upholds_theorems() {
    let (mut tb, _dest, prefix) = bgp::badgadget_scenario(true, 5);
    tb.run_until(SimTime::from_millis(600));
    let route = tb.handles[&NodeId(1)]
        .with(|n| n.current_tuples())
        .into_iter()
        .find(|t| t.relation == "route" && t.str_arg(0) == Some(prefix.as_str()))
        .expect("AS 1 has a route to the gadget prefix");
    let result = tb.querier.why_exists(route).at(NodeId(1)).run();
    assert_theorems("Quagga-BadGadget", &result, &BTreeSet::new());
}

/// Fig. 8 rows 3–5 — the `Chord-Lookup` family (positive, clean runs): the
/// genesis-replay row and the checkpoint-anchored row both satisfy the
/// theorems with an empty fault set.
#[test]
fn fig8_chord_lookup_upholds_theorems() {
    for (label, epoch_s) in [("Chord-Lookup (S)", None), ("Chord-Lookup (S+ckpt)", Some(10u64))] {
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
        let result = tb
            .querier
            .why_exists(chord::lookup_result(origin, 1, key, owner, owner_id))
            .at(origin)
            .run();
        assert_theorems(label, &result, &BTreeSet::new());
    }
}

/// Fig. 8 row 6 — `Hadoop-Squirrel` (positive, corrupt mapper): replaying the
/// inflated count against the honest map function reds only the corrupt
/// mapper, which must surface among the suspects.
#[test]
fn fig8_hadoop_squirrel_upholds_theorems() {
    let scenario = mapreduce::MapReduceScenario {
        mappers: 4,
        reducers: 2,
        splits: 4,
        words_per_split: 50,
    };
    let corrupt = NodeId(3);
    let mut tb = scenario.build(true, 7, Some(corrupt), 93);
    tb.run_until(SimTime::from_secs(60));
    let reducer = mapreduce::reducer_for("squirrel", &scenario.reducer_ids());
    let total = tb.handles[&reducer]
        .with(|n| n.current_tuples())
        .into_iter()
        .find(|t| t.relation == "reduceOut" && t.str_arg(0) == Some("squirrel"))
        .and_then(|t| t.int_arg(1))
        .expect("squirrel count");
    let result = tb
        .querier
        .why_exists(mapreduce::reduce_out(reducer, "squirrel", total))
        .at(reducer)
        .run();
    assert_theorems("Hadoop-Squirrel", &result, &[corrupt].into());
}

/// Fig. 8 row 7 — `BGP-NoRoute` (negative, withholding transit): the
/// `why_absent` of the missing route implicates the transit AS and nobody
/// else.
#[test]
fn fig8_bgp_blackhole_negative_upholds_theorems() {
    let (mut tb, victim, transit, prefix) = bgp::blackhole_scenario(true, 21, true);
    tb.run_until(SimTime::from_secs(30));
    let result = tb
        .querier
        .why_absent(bgp::route_pattern(victim, &prefix))
        .at(victim)
        .run();
    assert_theorems("BGP-NoRoute (neg)", &result, &[transit].into());
}

/// Fig. 8 row 8 — `Chord-Eclipse` (negative, lying resolver): the
/// `why_absent` of the correct lookup result surfaces the eclipse attacker
/// without implicating any honest ring member.
#[test]
fn fig8_chord_eclipse_negative_upholds_theorems() {
    let (mut tb, origin, attacker, correct) = chord::eclipse_scenario(8, 3);
    tb.run_until(SimTime::from_secs(60));
    let result = tb.querier.why_absent(correct).at(origin).run();
    assert_theorems("Chord-Eclipse (neg)", &result, &[attacker].into());
}
