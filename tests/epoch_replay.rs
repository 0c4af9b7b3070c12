//! Integration tests for epoch-segmented logs: checkpoint-anchored suffix
//! replay, seeded determinism of digests/checkpoint roots, tamper evidence
//! across truncation, and the truncated-window forensics (E7) guarantee.

// Test code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp::apps::bgp::{self, BgpSpeaker, Relation};
use snp::apps::chord::{self, ChordMachine, ChordScenario};
use snp::apps::mapreduce::{self, MapperMachine, ReducerMachine};
use snp::apps::mincost::{self, link, MinCost};
use snp::core::deploy::Deployment;
use snp::core::properties;
use snp::core::ByzantineConfig;
use snp::crypto::keys::NodeId;
use snp::datalog::{SmInput, StateMachine, Tuple, TupleDelta};
use snp::graph::Color;
use snp::sim::rng::DetRng;
use snp::sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// A small Chord ring with steady maintenance traffic.
fn chord_scenario(duration_s: u64) -> ChordScenario {
    ChordScenario {
        nodes: 12,
        lookups_per_minute: 0,
        ..ChordScenario::small(duration_s)
    }
}

/// Build the chord deployment, optionally with epoch sealing / truncation.
fn chord_deployment(
    seed: u64,
    duration_s: u64,
    epoch_s: Option<u64>,
    retain: Option<usize>,
    attacker: Option<NodeId>,
) -> (Deployment, chord::ChordRing) {
    let scenario = chord_scenario(duration_s);
    let app = scenario.app(attacker);
    let ring = app.ring.clone();
    let mut builder = Deployment::builder().seed(seed).app(app);
    if let Some(s) = epoch_s {
        builder = builder.epoch_length(SimDuration::from_secs(s));
    }
    if let Some(k) = retain {
        builder = builder.retain_epochs(k);
    }
    (builder.build(), ring)
}

/// Acceptance criterion: a `why_exists` query on a long-running Chord
/// deployment replays only entries from the checkpoint at-or-before the
/// query, visibly fewer than a from-genesis replay of the same history.
#[test]
fn chord_query_replays_only_the_suffix_after_the_checkpoint() {
    let run = |epoch_s: Option<u64>| {
        let (mut tb, ring) = chord_deployment(9, 60, epoch_s, None, None);
        // Inject a lookup late, after several epochs have been sealed (the
        // last seal before the query is at t = 60).
        let origin = ring.members[0].1;
        let key = (ring.members[ring.members.len() / 2].0 + 1) % chord::ID_SPACE;
        let (owner_id, owner) = ring.owner_of(key);
        tb.insert_at(SimTime::from_secs(66), origin, chord::lookup(origin, key, origin, 1));
        tb.run_until(SimTime::from_secs(68));
        let result = tb
            .querier
            .why_exists(chord::lookup_result(origin, 1, key, owner, owner_id))
            .at(origin)
            .run();
        assert!(result.root.is_some(), "lookup result must be explained");
        assert!(result.implicated_nodes().is_empty());
        assert!(result.is_legitimate(), "{}", result.render());
        result
    };

    let genesis = run(None);
    let anchored = run(Some(10));

    assert_eq!(genesis.stats.skipped_entries, 0);
    assert!(genesis.stats.replayed_entries > 0);
    assert!(
        anchored.stats.skipped_entries > 0,
        "anchored audits must skip the sealed prefix"
    );
    assert!(
        anchored.stats.replayed_entries < genesis.stats.replayed_entries / 2,
        "anchored replay ({}) must be visibly cheaper than from-genesis replay ({})",
        anchored.stats.replayed_entries,
        genesis.stats.replayed_entries
    );
    // Every audited node anchored at a checkpoint and reported what it
    // actually replayed.
    for audit in anchored.audits.values() {
        assert!(audit.anchor_epoch.is_some(), "node {} not anchored", audit.node);
    }
    // The per-segment accounting matches the aggregate.
    let per_segment: u64 = anchored.stats.segment_bytes.iter().map(|s| s.bytes).sum();
    assert_eq!(per_segment, anchored.stats.log_bytes);
}

/// Satellite: the same seed produces byte-identical log digests and
/// checkpoint roots across two runs, including across a truncation.
#[test]
fn seeded_runs_produce_identical_digests_across_truncation() {
    let snapshot = || {
        let (mut tb, _) = chord_deployment(7, 60, Some(10), Some(2), None);
        tb.run_until(SimTime::from_secs(61));
        let mut out = Vec::new();
        for (id, handle) in &tb.handles {
            let head = handle.with(|n| n.log_head());
            let roots = handle.with(|n| n.checkpoint_roots());
            let dropped = handle.with(|n| n.log_dropped_entries());
            assert!(
                handle.with(|n| n.log_dropped_entries() == 0 || n.log_len() < n.log_total_appended() as usize),
                "truncation accounting must be consistent"
            );
            out.push((*id, head, roots, dropped));
        }
        // At least one node must actually have truncated history, otherwise
        // this test does not cover the "across a truncation" clause.
        assert!(out.iter().any(|(_, _, _, dropped)| *dropped > 0));
        out
    };
    let a = snapshot();
    let b = snapshot();
    assert_eq!(a, b, "same seed must yield byte-identical digests and roots");
}

/// A MinCost deployment with link churn spread across several epochs, so
/// that anchored audits have non-empty sealed suffix segments to verify.
fn churning_mincost(seed: u64) -> Deployment {
    let mut tb = Deployment::builder()
        .seed(seed)
        .app(MinCost::example())
        .epoch_length(SimDuration::from_secs(5))
        .insert_at(SimTime::from_secs(8), mincost::A, link(mincost::A, mincost::B, 6))
        .delete_at(SimTime::from_secs(12), mincost::A, link(mincost::A, mincost::B, 6))
        .insert_at(SimTime::from_secs(17), mincost::B, link(mincost::B, mincost::D, 3))
        .delete_at(SimTime::from_secs(22), mincost::B, link(mincost::B, mincost::D, 3))
        .build();
    tb.run_until(SimTime::from_secs(30));
    tb
}

/// Satellite: mutating a sealed segment is detected by the suffix audit, and
/// no correct node is implicated.
#[test]
fn tampered_sealed_segment_is_detected_by_suffix_audit() {
    let mut tb = churning_mincost(5);
    // Node B drops the first entry of whatever suffix it serves.
    tb.set_byzantine(
        mincost::B,
        ByzantineConfig {
            tamper_log_drop_entry: Some(0),
            ..Default::default()
        },
    )
    .expect("deployed node");
    // A historical audit anchors at the checkpoint sealed at t = 15 and
    // fetches the sealed segments after it — including the tampered one.
    let at = SimTime::from_secs(16).as_micros();
    let audit = tb.querier.audit_at(mincost::B, Some(at));
    assert_eq!(audit.color, Color::Red, "tampering must be detected: {:?}", audit.notes);
    assert!(audit.anchor_epoch.is_some(), "the audit must have anchored mid-history");

    // Correct nodes still audit clean, and accuracy holds on their graphs.
    let byzantine: BTreeSet<NodeId> = [mincost::B].into();
    for node in [mincost::A, mincost::C, mincost::D, mincost::E] {
        let audit = tb.querier.audit_at(node, Some(at));
        assert_eq!(audit.color, Color::Black, "{node}: {:?}", audit.notes);
        let graph = tb.querier.node_graph(node);
        assert!(properties::check_accuracy(&graph, &byzantine).is_ok());
    }
}

/// Satellite: forging the checkpoint's state snapshot is detected (the
/// snapshot digest is committed in the signed checkpoint), and honest nodes
/// stay clean.
#[test]
fn forged_checkpoint_snapshot_is_detected() {
    let mut tb = churning_mincost(11);
    tb.set_byzantine(
        mincost::C,
        ByzantineConfig {
            forge_checkpoint_snapshot: true,
            ..Default::default()
        },
    )
    .expect("deployed node");
    let audit = tb.querier.audit(mincost::C);
    assert_eq!(
        audit.color,
        Color::Red,
        "forged snapshot must be detected: {:?}",
        audit.notes
    );
    assert!(
        audit.notes.iter().any(|n| n.contains("snapshot")),
        "the note must name the snapshot digest mismatch: {:?}",
        audit.notes
    );
    let byzantine: BTreeSet<NodeId> = [mincost::C].into();
    for node in [mincost::A, mincost::B, mincost::D, mincost::E] {
        let audit = tb.querier.audit(node);
        assert_eq!(audit.color, Color::Black, "{node}: {:?}", audit.notes);
        let graph = tb.querier.node_graph(node);
        assert!(properties::check_accuracy(&graph, &byzantine).is_ok());
    }
}

/// The anchoring checkpoint is not blindly trusted: its committed state must
/// be *reproducible* by replaying the linking epoch's (chain-pinned) entries
/// from the previous checkpoint.  A machine that fabricates state — here an
/// Eclipse attacker answering a lookup with itself, sealed into the last
/// epoch before the anchor — is caught even though the suffix after the
/// anchor replays clean.
#[test]
fn fabricated_checkpoint_state_fails_the_chain_link_check() {
    let ring_preview = chord::ChordRing::new(12);
    let attacker = ring_preview.members[3].1;
    let (mut tb, ring) = chord_deployment(13, 60, Some(10), None, Some(attacker));
    // The lie lands inside the epoch [30 s, 40 s) — the epoch the audit's
    // anchor (sealed at 40 s) closes: the attacker's machine derives a bogus
    // lookupResult that ends up in the sealed state the checkpoint commits.
    let key = (ring.members[7].0 + 1) % chord::ID_SPACE;
    tb.insert_at(
        SimTime::from_secs(35),
        attacker,
        chord::lookup(attacker, key, attacker, 9),
    );
    tb.run_until(SimTime::from_secs(45));
    let audit = tb.querier.audit(attacker);
    assert_eq!(
        audit.color,
        Color::Red,
        "fabricated checkpoint state must fail the chain-link check: {:?}",
        audit.notes
    );
    // Honest nodes pass the same chain check.
    for (_, handle) in tb.handles.iter().take(4) {
        let id = handle.id();
        if id == attacker {
            continue;
        }
        let audit = tb.querier.audit(id);
        assert_eq!(audit.color, Color::Black, "{id}: {:?}", audit.notes);
    }
}

/// Acceptance criterion: with `retain_epochs(k)` per-node log bytes plateau
/// instead of growing linearly, while a forensic query inside the retained
/// window still identifies exactly the injected culprit (E7, Chord Eclipse).
#[test]
fn truncation_plateaus_log_growth_and_keeps_forensics_inside_the_window() {
    // --- storage plateau -------------------------------------------------
    let growth = |retain: Option<usize>| {
        let (mut tb, _) = chord_deployment(3, 120, Some(10), retain, None);
        tb.run_until(SimTime::from_secs(60));
        let at_60 = tb.total_log_bytes();
        tb.run_until(SimTime::from_secs(121));
        let at_120 = tb.total_log_bytes();
        (at_60, at_120)
    };
    let (unbounded_60, unbounded_120) = growth(None);
    let (retained_60, retained_120) = growth(Some(2));
    assert!(
        unbounded_120 as f64 >= unbounded_60 as f64 * 1.5,
        "without truncation the log keeps growing ({unbounded_60} -> {unbounded_120})"
    );
    assert!(
        (retained_120 as f64) < retained_60 as f64 * 1.3,
        "with retain_epochs(2) the log must plateau ({retained_60} -> {retained_120})"
    );
    assert!(retained_120 < unbounded_120 / 2);

    // --- forensics inside the retained window ----------------------------
    let ring_preview = chord::ChordRing::new(12);
    let attacker = ring_preview.members[3].1;
    let (mut tb, ring) = chord_deployment(3, 120, Some(10), Some(2), Some(attacker));
    // The attacker answers a late lookup (inside the retained window) with
    // itself as the owner.
    let key = (ring.members[7].0 + 1) % chord::ID_SPACE;
    tb.insert_at(
        SimTime::from_secs(121),
        attacker,
        chord::lookup(attacker, key, attacker, 5),
    );
    tb.run_until(SimTime::from_secs(124));
    assert!(
        tb.handles.values().any(|h| h.with(|n| n.log_dropped_entries()) > 0),
        "the run must actually have truncated history"
    );
    // An audit anchored at the truncation horizon cannot cross-check its
    // anchoring checkpoint (the linking epoch is gone) and must come back
    // Yellow — suspect, but never implicating an honest node.
    let some_honest = tb
        .handles
        .keys()
        .find(|id| **id != attacker)
        .copied()
        .expect("honest node");
    let horizon_audit = tb.querier.audit_at(some_honest, Some(0));
    assert_eq!(
        horizon_audit.color,
        Color::Yellow,
        "horizon-anchored audits are unverifiable, not clean: {:?}",
        horizon_audit.notes
    );

    let bogus = chord::lookup_result(attacker, 5, key, attacker, chord::chord_id(attacker));
    let result = tb.querier.why_exists(bogus).at(attacker).run();
    let byzantine: BTreeSet<NodeId> = [attacker].into();
    assert!(
        properties::check_completeness(&result, &byzantine).is_ok(),
        "the culprit must be identified: suspects = {:?}",
        result.suspect_nodes()
    );
    for implicated in result.implicated_nodes() {
        assert!(byzantine.contains(&implicated), "correct node {implicated} implicated");
    }
    // Honest nodes' audits stay clean even though their old epochs are gone.
    for (_, handle) in tb.handles.iter().take(4) {
        let id = handle.id();
        if id == attacker {
            continue;
        }
        let audit = tb.querier.audit(id);
        assert_eq!(audit.color, Color::Black, "{id}: {:?}", audit.notes);
    }
}

/// Feed `prefix` to `original`, then feed `suffix` both to it and to the
/// machine restored from its snapshot: outputs, tuples, snapshots and the
/// rule work counted over the suffix must agree at every step.  Anchored
/// audits rely on this: they carry the machine the linking replay built
/// into the suffix instead of restoring the anchor snapshot.
fn assert_restore_resumes(mut original: Box<dyn StateMachine>, prefix: &[SmInput], suffix: &[SmInput]) {
    let name = original.name();
    for input in prefix {
        original.handle(input.clone());
    }
    let snapshot = original.snapshot().expect("shipped machines take snapshots");
    let mut restored = original.restore(&snapshot).expect("own snapshot restores");
    let (original_before, restored_before) = (original.eval_metrics(), restored.eval_metrics());
    for (step, input) in suffix.iter().enumerate() {
        assert_eq!(
            restored.handle(input.clone()),
            original.handle(input.clone()),
            "{name} step {step}: outputs diverge on {input:?}"
        );
        assert_eq!(
            restored.current_tuples(),
            original.current_tuples(),
            "{name} step {step}"
        );
        assert_eq!(restored.snapshot(), original.snapshot(), "{name} step {step}");
    }
    assert_eq!(
        restored.eval_metrics().since(&restored_before),
        original.eval_metrics().since(&original_before),
        "{name}: the suffix's rule work differs"
    );
}

fn receive(from: NodeId, tuple: Tuple) -> SmInput {
    SmInput::Receive {
        from,
        delta: TupleDelta::plus(tuple),
    }
}

/// The application machines keep the restore contract over random input
/// histories (the rule engines are covered by the engine's own test).
#[test]
fn app_machines_resume_identically_after_restore() {
    let n = NodeId(1);
    let peers = [NodeId(2), NodeId(3), NodeId(4)];
    let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16"];
    let corpus = mapreduce::generate_corpus(16, 6, 7);
    let words: Vec<&str> = corpus.iter().flat_map(|text| text.split_whitespace()).collect();
    for seed in 0..4u64 {
        let mut rng = DetRng::new(seed);
        let chord_input = |rng: &mut DetRng| {
            let key = rng.next_below(chord::ID_SPACE);
            let peer = peers[rng.next_below(3) as usize];
            let seq = rng.next_below(50);
            match rng.next_below(6) {
                0 => SmInput::InsertBase(chord::lookup(n, key, n, seq)),
                1 => receive(peer, chord::lookup(n, key, peer, seq)),
                2 => SmInput::InsertBase(chord::tick(
                    ["stabTick", "keepTick", "fixTick"][(seq % 3) as usize],
                    n,
                    seq,
                )),
                3 => SmInput::InsertBase(chord::succ(n, key, peer)),
                4 => SmInput::InsertBase(chord::finger(n, (seq % 8) as u32, key, peer)),
                _ => SmInput::DeleteBase(chord::succ(n, key, peer)),
            }
        };
        let bgp_input = |rng: &mut DetRng| {
            let prefix = prefixes[rng.next_below(3) as usize];
            let from = peers[rng.next_below(3) as usize];
            let relation = [Relation::Customer, Relation::Peer, Relation::Provider][rng.next_below(3) as usize];
            let path: Vec<NodeId> = (0..1 + rng.next_below(3))
                .map(|_| NodeId(5 + rng.next_below(6)))
                .collect();
            match rng.next_below(6) {
                0 => SmInput::InsertBase(bgp::originate(n, prefix)),
                1 => SmInput::InsertBase(bgp::neighbor(n, from, relation)),
                2 => SmInput::DeleteBase(bgp::neighbor(n, from, relation)),
                3 => SmInput::InsertBase(bgp::prefer(n, prefix, from)),
                4 => SmInput::Receive {
                    from,
                    delta: TupleDelta::minus(bgp::adv_route(n, prefix, &path, from)),
                },
                _ => receive(from, bgp::adv_route(n, prefix, &path, from)),
            }
        };
        let mapper_input = |rng: &mut DetRng| {
            let split = rng.next_below(corpus.len() as u64) as usize;
            SmInput::InsertBase(mapreduce::map_input(n, split as i64, &corpus[split]))
        };
        let reducer_input = |rng: &mut DetRng| {
            let word = words[rng.next_below(words.len() as u64) as usize];
            let mapper = peers[rng.next_below(3) as usize];
            let count = 1 + rng.next_below(4) as i64;
            receive(
                mapper,
                mapreduce::shuffle(n, word, count, mapper, rng.next_below(16) as i64),
            )
        };
        let mut check = |machine: Box<dyn StateMachine>, setup: &[SmInput], input: &dyn Fn(&mut DetRng) -> SmInput| {
            let mut prefix = setup.to_vec();
            prefix.extend((0..40).map(|_| input(&mut rng)));
            let suffix: Vec<SmInput> = (0..40).map(|_| input(&mut rng)).collect();
            assert_restore_resumes(machine, &prefix, &suffix);
        };
        // Chord needs its own id before it answers anything.
        let chord_setup = [SmInput::InsertBase(chord::me(n, chord::chord_id(n)))];
        check(Box::new(ChordMachine::new(n)), &chord_setup, &chord_input);
        check(Box::new(BgpSpeaker::new(n)), &[], &bgp_input);
        check(Box::new(MapperMachine::new(n, peers.to_vec())), &[], &mapper_input);
        check(Box::new(ReducerMachine::new(n)), &[], &reducer_input);
    }
}
