//! Layer probes: timed calls into each layer's public functions on data
//! harvested from a replica.  A probe measures one layer from outside, so
//! an optimisation shows up against the layer it touched before any
//! in-program tracing exists.

use crate::trace::Tracer;
use crate::workloads::{Harvest, ScratchDir};
use snp_core::fleet::{decode_frame, encode_wire};
use snp_core::{replay, NodeId, SnoopyWire};
use snp_crypto::counters;
use snp_crypto::keys::KeyPair;
use snp_datalog::{SmInput, SnapshotReader, SnapshotWriter, StateMachine};
use snp_log::verifier::SegmentVerifier;
use snp_log::{codec, Checkpoint, CheckpointEntry, EntryKind, FileSegmentStore, LogSegment, SecureLog, SegmentStore};
use snp_sim::event::{EventKind, EventQueue};
use snp_sim::rng::DetRng;
use snp_sim::{SimTime, TimerId};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-operation costs of every layer, as probed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCosts {
    pub sign_us: f64,
    pub verify_us: f64,
    pub hash_us_per_kib: f64,
    pub queue_ns_per_op: f64,
    pub step_us_per_entry: f64,
    pub snapshot_us: f64,
    pub restore_us: f64,
    pub snapshot_bytes: f64,
    pub absence_us: f64,
    pub graph_build_us_per_entry: f64,
    pub append_us: f64,
    /// Bytes one append hashes (so the model can keep hashing in one layer).
    pub append_hash_bytes: f64,
    pub seal_us: f64,
    pub encode_us_per_kib: f64,
    pub decode_us_per_kib: f64,
    pub verify_suffix_us_per_entry: f64,
    pub checkpoint_verify_us: f64,
    pub store_append_us: f64,
    pub reopen_verify_s: f64,
    pub frame_encode_us: f64,
    pub frame_decode_us: f64,
}

/// Mean seconds per call of `timed`, repeated until `budget` has passed
/// (three calls at least).  `prepare` runs untimed before every call.
fn per_call<T, R>(budget: Duration, mut prepare: impl FnMut() -> T, mut timed: impl FnMut(T) -> R) -> f64 {
    let started = Instant::now();
    let (mut busy, mut calls) = (Duration::ZERO, 0u32);
    while calls < 3 || started.elapsed() < budget {
        let input = prepare();
        let t = Instant::now();
        black_box(timed(black_box(input)));
        busy += t.elapsed();
        calls += 1;
    }
    busy.as_secs_f64() / f64::from(calls)
}

/// The stretch of the harvested log the probes replay: a starting state
/// (checkpoint + snapshot, or genesis) and the segments after it.
struct Corpus<'a> {
    anchor: Option<&'a (Checkpoint, Vec<u8>)>,
    segments: &'a [LogSegment],
    entries: usize,
}

impl Corpus<'_> {
    fn machine(&self, expected: &dyn StateMachine) -> Box<dyn StateMachine> {
        match self.anchor {
            Some((_, snapshot)) => expected.restore(snapshot).expect("harvested snapshot restores"),
            None => expected.fresh(),
        }
    }

    fn entry_kinds(&self) -> Vec<(u64, EntryKind)> {
        self.segments
            .iter()
            .flat_map(|s| &s.entries)
            .map(|e| (e.timestamp, e.kind.clone()))
            .collect()
    }
}

/// The suffix an audit replays, or — when the node sat idle since its last
/// seal — the sealed epoch before it, whichever holds more entries.
fn corpus(harvest: &Harvest) -> Corpus<'_> {
    let response = &harvest.response;
    let suffix = Corpus {
        anchor: response.anchor.as_ref(),
        segments: &response.segments,
        entries: response.segments.iter().map(|s| s.entries.len()).sum(),
    };
    match &response.anchor_link {
        Some(link) if link.segment.entries.len() > suffix.entries => Corpus {
            anchor: link.prev.as_ref(),
            segments: std::slice::from_ref(&link.segment),
            entries: link.segment.entries.len(),
        },
        _ => suffix,
    }
}

pub fn run(
    harvest: &Harvest,
    datalog: bool,
    fleet: bool,
    budget: Duration,
    scratch: &Path,
    tracer: &mut Tracer,
) -> LayerCosts {
    let mut c = LayerCosts::default();
    let keys = KeyPair::for_node(harvest.node);
    let digest = snp_crypto::hash(b"snp-benchmark probe");

    c.sign_us = tracer.span("probe.crypto.sign", || per_call(budget, || (), |()| keys.sign(&digest))) * 1e6;
    let signature = keys.sign(&digest);
    c.verify_us = tracer.span("probe.crypto.verify", || {
        per_call(budget, || (), |()| keys.public.verify(&digest, &signature))
    }) * 1e6;
    let block = vec![0xA5u8; 64 * 1024];
    c.hash_us_per_kib = tracer.span("probe.crypto.hash", || {
        per_call(budget, || (), |()| snp_crypto::hash(&block))
    }) * 1e6
        / 64.0;

    if harvest.sim_events > 0 {
        let events = usize::try_from(harvest.sim_events.clamp(1_000, 200_000)).expect("clamped");
        let mut rng = DetRng::new(harvest.sim_events);
        let times: Vec<u64> = (0..events).map(|_| rng.next_below(10_000_000)).collect();
        let seconds = tracer.span("probe.sim.queue", || {
            per_call(budget, EventQueue::<Vec<u8>>::new, |mut queue| {
                for (i, at) in times.iter().enumerate() {
                    let kind = EventKind::Timer {
                        node: NodeId(1),
                        id: TimerId(i as u64),
                    };
                    queue.push(SimTime::from_micros(*at), kind);
                }
                while let Some(event) = queue.pop() {
                    black_box(event);
                }
            })
        });
        c.queue_ns_per_op = seconds * 1e9 / (2 * events) as f64;
    }

    let corpus = corpus(harvest);
    let entries = corpus.entries.max(1) as f64;
    let expected = harvest.expected.as_ref();

    let apply_s = tracer.span("probe.apps.step", || {
        per_call(
            budget,
            || corpus.machine(expected),
            |mut machine| {
                replay::apply_inputs(machine.as_mut(), corpus.segments.iter().flat_map(|s| &s.entries));
                machine
            },
        )
    });
    c.step_us_per_entry = apply_s * 1e6 / entries;
    let replay_s = tracer.span("probe.graph.build", || {
        per_call(
            budget,
            || corpus.machine(expected),
            |machine| {
                replay::replay_suffix(
                    harvest.node,
                    corpus.anchor.map(|(cp, _)| cp),
                    machine,
                    corpus.segments,
                    harvest.replay_bound_us,
                )
            },
        )
    });
    c.graph_build_us_per_entry = (replay_s - apply_s).max(0.0) * 1e6 / entries;

    // The machine in the state the corpus leaves it in: what a seal
    // snapshots and what the next audit restores.
    let mut machine = corpus.machine(expected);
    replay::apply_inputs(machine.as_mut(), corpus.segments.iter().flat_map(|s| &s.entries));
    let snapshot = machine.snapshot();
    if datalog {
        if let Some(snapshot) = &snapshot {
            c.snapshot_bytes = snapshot.len() as f64;
            c.snapshot_us = tracer.span("probe.datalog.snapshot", || {
                per_call(budget, || (), |()| machine.snapshot())
            }) * 1e6;
            c.restore_us = tracer.span("probe.datalog.restore", || {
                per_call(
                    budget,
                    || (),
                    |()| expected.restore(snapshot).expect("own snapshot restores"),
                )
            }) * 1e6;
        }
        if let Some((pattern, present, peers)) = &harvest.absence {
            c.absence_us = tracer.span("probe.datalog.absence", || {
                per_call(budget, || (), |()| expected.absence_of(pattern, present, peers))
            }) * 1e6;
        }
    }

    let kinds = corpus.entry_kinds();
    let fill = |log: &mut SecureLog, kinds: Vec<(u64, EntryKind)>| {
        for (timestamp, kind) in kinds {
            log.append_entry(timestamp, kind);
        }
    };
    let append_s = tracer.span("probe.log.append", || {
        per_call(
            budget,
            || (SecureLog::new(keys.clone()), kinds.clone()),
            |(mut log, kinds)| {
                fill(&mut log, kinds);
                log
            },
        )
    });
    let ((), one_pass) = counters::with_counting(|| fill(&mut SecureLog::new(keys.clone()), kinds.clone()));
    c.append_hash_bytes = one_pass.hash_bytes as f64 / entries;
    c.append_us = append_s * 1e6 / entries;
    let state: Vec<CheckpointEntry> = machine
        .current_tuples()
        .into_iter()
        .map(|tuple| CheckpointEntry { tuple, appeared_at: 0 })
        .collect();
    let sealed_at = kinds.last().map_or(0, |(t, _)| *t);
    c.seal_us = tracer.span("probe.log.seal", || {
        per_call(
            budget,
            || {
                let mut log = SecureLog::new(keys.clone());
                fill(&mut log, kinds.clone());
                (log, state.clone(), snapshot.clone())
            },
            |(mut log, state, snapshot)| {
                log.seal_epoch(sealed_at, state, snapshot);
                log
            },
        )
    }) * 1e6;

    let encoded = {
        let mut w = SnapshotWriter::new();
        for segment in corpus.segments {
            codec::write_segment(&mut w, segment);
        }
        w.finish()
    };
    let kib = (encoded.len() as f64 / 1024.0).max(1.0 / 1024.0);
    c.encode_us_per_kib = tracer.span("probe.log.encode", || {
        per_call(
            budget,
            || (),
            |()| {
                let mut w = SnapshotWriter::new();
                for segment in corpus.segments {
                    codec::write_segment(&mut w, segment);
                }
                w.finish()
            },
        )
    }) * 1e6
        / kib;
    c.decode_us_per_kib = tracer.span("probe.log.decode", || {
        per_call(
            budget,
            || (),
            |()| {
                let mut r = SnapshotReader::new(&encoded);
                for _ in corpus.segments {
                    black_box(codec::read_segment(&mut r).expect("own encoding decodes"));
                }
            },
        )
    }) * 1e6
        / kib;

    // What an audit verifies: the served suffix against its authenticator,
    // and the anchoring checkpoint against its snapshot.
    let response = &harvest.response;
    let verifier = SegmentVerifier::new(harvest.node, keys.public);
    let (anchor_seq, anchor_head) = response
        .anchor
        .as_ref()
        .map_or((0, snp_crypto::Digest::ZERO), |(cp, _)| (cp.at_seq, cp.chain_head));
    let suffix_entries = response.segments.iter().map(|s| s.entries.len()).sum::<usize>().max(1);
    c.verify_suffix_us_per_entry = tracer.span("probe.log.verify_suffix", || {
        per_call(
            budget,
            || (),
            |()| {
                verifier
                    .verify_suffix(&response.segments, anchor_seq, anchor_head, &response.auth)
                    .expect("harvested suffix verifies")
            },
        )
    }) * 1e6
        / suffix_entries as f64;
    if let Some((checkpoint, snapshot)) = &response.anchor {
        c.checkpoint_verify_us = tracer.span("probe.log.checkpoint_verify", || {
            per_call(
                budget,
                || (),
                |()| {
                    verifier
                        .verify_checkpoint(checkpoint, snapshot)
                        .expect("harvested checkpoint verifies")
                },
            )
        }) * 1e6;
    }

    let encoded_entries: Vec<Vec<u8>> = corpus
        .segments
        .iter()
        .flat_map(|s| &s.entries)
        .map(snp_log::LogEntry::encode)
        .collect();
    let dir = ScratchDir::create(scratch.join("probe-store"));
    let open_store = || FileSegmentStore::open(dir.path(), harvest.node).expect("probe store opens");
    c.store_append_us = tracer.span("probe.log.store_append", || {
        per_call(budget, open_store, |mut store| {
            for bytes in &encoded_entries {
                store.append_tail(bytes).expect("probe store appends");
            }
            store
        })
    }) * 1e6
        / entries;
    drop(dir);
    let dir = ScratchDir::create(scratch.join("probe-reopen"));
    {
        let store = FileSegmentStore::open(dir.path(), harvest.node).expect("probe store opens");
        let mut log = SecureLog::with_store(keys.clone(), Box::new(store));
        fill(&mut log, kinds.clone());
        log.seal_epoch(sealed_at, state.clone(), snapshot.clone());
        assert!(log.store_error().is_none(), "probe store write failed");
    }
    c.reopen_verify_s = tracer.span("probe.log.reopen", || {
        per_call(
            budget,
            || Box::new(FileSegmentStore::open(dir.path(), harvest.node).expect("probe store opens")),
            |store| SecureLog::reopen(keys.clone(), store, true).expect("own store verifies"),
        )
    });

    if fleet {
        let wire = SnoopyWire::Operator {
            input: SmInput::InsertBase(snp_apps::mincost::link(NodeId(1), NodeId(77), 42)),
        };
        let frame = encode_wire(&wire).expect("operator frames encode");
        c.frame_encode_us = tracer.span("probe.fleet.frame_encode", || {
            per_call(budget, || (), |()| encode_wire(&wire).expect("operator frames encode"))
        }) * 1e6;
        c.frame_decode_us = tracer.span("probe.fleet.frame_decode", || {
            per_call(budget, || (), |()| decode_frame(&frame).expect("own frame decodes"))
        }) * 1e6;
    }
    c
}
