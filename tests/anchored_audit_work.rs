//! An anchored audit does each piece of its work once (§5.6): it restores
//! one snapshot (the previous checkpoint's, into the machine that replays the
//! linking epoch and then the suffix) and walks each segment's hash chain
//! once.
//!
//! The crypto counters are process-global, so this file holds a single test:
//! nothing else in the process hashes while it measures.

// Test code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used)]

use snp::apps::chord::{ChordMachine, ChordScenario};
use snp::core::deploy::Deployment;
use snp::core::replay;
use snp::crypto::counters;
use snp::crypto::keys::KeyPair;
use snp::datalog::{AbsenceWitness, EvalMetrics, NodeId, SmInput, SmOutput, StateMachine, Tuple};
use snp::graph::Color;
use snp::log::{verify_suffix, SegmentVerifier};
use snp::sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An expected machine that counts the snapshots restored into it (or into
/// any machine it built).
struct RestoreCounting {
    inner: Box<dyn StateMachine>,
    restores: Arc<AtomicUsize>,
}

impl RestoreCounting {
    fn wrap(&self, inner: Box<dyn StateMachine>) -> Box<dyn StateMachine> {
        Box::new(RestoreCounting {
            inner,
            restores: self.restores.clone(),
        })
    }
}

impl StateMachine for RestoreCounting {
    fn handle(&mut self, input: SmInput) -> Vec<SmOutput> {
        self.inner.handle(input)
    }

    fn fresh(&self) -> Box<dyn StateMachine> {
        self.wrap(self.inner.fresh())
    }

    fn current_tuples(&self) -> Vec<Tuple> {
        self.inner.current_tuples()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn StateMachine>, String> {
        self.restores.fetch_add(1, Ordering::SeqCst);
        Ok(self.wrap(self.inner.restore(snapshot)?))
    }

    fn absence_of(&self, pattern: &Tuple, present: &[Tuple], peers: &[NodeId]) -> Vec<AbsenceWitness> {
        self.inner.absence_of(pattern, present, peers)
    }

    fn eval_metrics(&self) -> EvalMetrics {
        self.inner.eval_metrics()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[test]
fn anchored_audit_restores_once_and_walks_each_segment_once() {
    // 10 s epochs, audited at 45 s: the audit anchors on the checkpoint
    // sealed at 40 s and links it to the one sealed at 30 s.
    let scenario = ChordScenario {
        nodes: 12,
        lookups_per_minute: 0,
        ..ChordScenario::small(60)
    };
    let mut tb = Deployment::builder()
        .seed(13)
        .app(scenario.app(None))
        .epoch_length(SimDuration::from_secs(10))
        .build();
    tb.run_until(SimTime::from_secs(45));
    let (&node, handle) = tb.handles.iter().next().unwrap();
    let handle = handle.clone();
    let restores = Arc::new(AtomicUsize::new(0));
    let expected = RestoreCounting {
        inner: Box::new(ChordMachine::new(node)),
        restores: restores.clone(),
    };
    tb.querier.register(handle.clone(), Box::new(expected));

    let (audit, audit_ops) = counters::with_counting(|| tb.querier.audit(node));
    assert_eq!(audit.color, Color::Black, "{:?}", audit.notes);
    assert_eq!(
        restores.load(Ordering::SeqCst),
        1,
        "one snapshot restored: the previous checkpoint's, carried through the link into the suffix"
    );

    // The work each step does once, measured one step at a time on the
    // same evidence, retrieved again.
    let (response, retrieve_ops) = counters::with_counting(|| handle.retrieve_anchored(None).unwrap());
    let (anchor, anchor_snapshot) = response.anchor.as_ref().unwrap();
    let link = response.anchor_link.as_ref().unwrap();
    let (prev, prev_snapshot) = link.prev.as_ref().unwrap();
    let public = KeyPair::for_node(node).public;
    let verifier = SegmentVerifier::new(node, public);
    let ((), checks) = counters::with_counting(|| {
        verifier.verify_checkpoint(anchor, anchor_snapshot).unwrap();
        verify_suffix(
            &response.segments,
            anchor.at_seq,
            anchor.chain_head,
            &response.auth,
            &public,
        )
        .unwrap();
        verifier.verify_checkpoint(prev, prev_snapshot).unwrap();
        let end = verifier
            .chain_span(
                std::slice::from_ref(&link.segment),
                prev.at_seq,
                prev.chain_head,
                |_, _| {},
            )
            .unwrap();
        assert_eq!(end, (anchor.at_seq, anchor.chain_head));
        let mut machine = ChordMachine::new(node).restore(prev_snapshot).unwrap();
        replay::apply_inputs(machine.as_mut(), &link.segment.entries);
        assert_eq!(snp::crypto::hash(&machine.snapshot().unwrap()), anchor.state_digest);
        replay::replay_suffix(node, Some(anchor), machine, &response.segments, 0);
    });
    assert_eq!(
        audit_ops.hash_bytes,
        retrieve_ops.hash_bytes + checks.hash_bytes,
        "the audit hashes the linking segment and the suffix once each"
    );
    assert_eq!(
        audit_ops.verifications,
        retrieve_ops.verifications + checks.verifications
    );
}
