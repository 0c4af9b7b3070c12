//! `fleet-tcp` — the only run that crosses the frame codec, the TCP
//! transport, the audit RPC and the disk: one `FleetNode` thread on
//! loopback TCP with a `FileSegmentStore` (200 ms wall-clock epochs, four
//! retained), driven by operator frames over the wire and audited cold
//! through `RemotePeer`.  After the timed phases the node is killed and its
//! state compared with a recorder-free engine's; after the last replica's,
//! the latest sealed segment is also tampered with on disk, a verified
//! restart must refuse the store and an unverified restart must audit red.
//!
//! Loopback is not a real link: no propagation delay, no loss, kernel-copy
//! bandwidth.  The numbers bound protocol and codec cost, not network cost.

use super::{disk_usage, peak_rss_mib, Harvest, Replica, ScratchDir};
use crate::oracle::{judge, Demand, Expect, Plant};
use crate::trace::Tracer;
use snp_core::fleet::{encode_wire, tamper_latest_sealed_segment};
use snp_core::{
    AppNode, Application, AuditRequest, AuditResponse, ByzantineConfig, ConfigError, Deployment, DeploymentBuilder,
    FleetNode, NodeId, Querier, RemotePeer, SnoopyWire,
};
use snp_crypto::counters;
use snp_datalog::parser::parse_program;
use snp_datalog::{Engine, RuleSet, SmInput, StateMachine, Tuple};
use snp_sim::rng::DetRng;
use snp_sim::{SimDuration, TcpTransport};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calibrated replica count (see README, calibration record).
pub const REPLICAS: usize = 3;

const PEER: NodeId = NodeId(1);
/// The querier's transport identity (never a deployed node).
const QUERIER: NodeId = NodeId(900);
const INPUTS: usize = 8_000;
const QUERIES: usize = 150;
/// Distinct link destinations; bounds the router's live state.
const DESTS: u64 = 256;
/// Links inserted after the timed phases so the tampered epoch has content.
const TAIL_LINKS: u64 = 8;
/// Operator frames in flight before the driver waits for the node.
const WINDOW: usize = 1_024;
const EPOCH_MS: u64 = 200;
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// MinCost's local rules only.  The full program's R2 ships `cost` tuples
/// to neighbours; with one deployed router those peers do not exist.
const LOCAL_PROGRAM: &str = r#"
    R1 cost(@X, Y, Y, K)       :- link(@X, Y, K).
    R3 bestCost(@X, Y, min<K>) :- cost(@X, Y, Z, K).
"#;

fn local_rules() -> RuleSet {
    RuleSet::new(parse_program(LOCAL_PROGRAM).expect("local program parses")).expect("local rules are valid")
}

struct LocalRouter;

impl Application for LocalRouter {
    fn name(&self) -> String {
        "local-router".into()
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![PEER]
    }

    fn node(&self, id: NodeId) -> AppNode {
        AppNode::new(Box::new(Engine::new(id, local_rules())))
    }

    fn program(&self) -> Option<String> {
        Some(LOCAL_PROGRAM.into())
    }
}

fn link(dest: u64, cost: i64) -> Tuple {
    snp_apps::mincost::link(PEER, NodeId(dest), cost)
}

fn best_cost(dest: u64, cost: i64) -> Tuple {
    snp_apps::mincost::best_cost(PEER, NodeId(dest), cost)
}

/// The operator frames of one replica and what they must leave behind.
#[derive(Debug, PartialEq, Eq)]
pub struct FleetPlan {
    /// Timed inputs: link inserts and deletes, in send order.
    pub inputs: Vec<SmInput>,
    /// Untimed inserts sent just before the kill.
    pub tail: Vec<SmInput>,
    /// `bestCost` tuples the timed inputs leave standing, to query.
    pub asks: Vec<Tuple>,
    /// A `bestCost` tuple of the tail, to query after the tampered restart.
    pub tail_ask: Tuple,
}

pub fn plan(sub_seed: u64) -> FleetPlan {
    let mut rng = DetRng::new(sub_seed).fork("fleet-links");
    let mut live: BTreeMap<u64, i64> = BTreeMap::new();
    let mut inputs = Vec::with_capacity(INPUTS);
    // Half the destinations are linked at any time: fill up to that, then
    // alternate deleting a standing link and inserting an absent one.  The
    // router's state — and with it every snapshot an audit restores — has
    // the same size at every seed; which links, and at what cost, varies.
    while inputs.len() < INPUTS {
        let filling = (live.len() as u64) < DESTS / 2;
        let dest = loop {
            let dest = 2 + rng.next_below(DESTS);
            if live.contains_key(&dest) != filling {
                break dest;
            }
        };
        match live.remove(&dest) {
            Some(cost) => inputs.push(SmInput::DeleteBase(link(dest, cost))),
            None => {
                let cost = i64::try_from(1 + rng.next_below(100)).expect("small cost");
                live.insert(dest, cost);
                inputs.push(SmInput::InsertBase(link(dest, cost)));
            }
        }
    }
    let standing: Vec<(u64, i64)> = live.into_iter().collect();
    let asks = (0..QUERIES)
        .map(|_| {
            let (dest, cost) = *rng.choose(&standing).expect("some links stand");
            best_cost(dest, cost)
        })
        .collect();
    let tail_dest = |i: u64| 2 + DESTS + i;
    FleetPlan {
        inputs,
        tail: (0..TAIL_LINKS)
            .map(|i| SmInput::InsertBase(link(tail_dest(i), 7)))
            .collect(),
        asks,
        tail_ask: best_cost(tail_dest(0), 7),
    }
}

fn builder(dir: &Path) -> DeploymentBuilder {
    Deployment::builder()
        .app(LocalRouter)
        .epoch_length(SimDuration::from_millis(EPOCH_MS))
        .retain_epochs(4)
        .segment_dir(dir)
}

/// The node's thread: pumps the `FleetNode` until told to stop, then hands
/// it back for inspection.
struct NodeThread {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<FleetNode>>,
}

impl NodeThread {
    fn spawn(mut node: FleetNode) -> NodeThread {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            node.start();
            // `Relaxed`: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                node.run_for(Duration::from_millis(5));
            }
            node
        });
        NodeThread {
            stop,
            thread: Some(thread),
        }
    }

    fn kill(mut self) -> FleetNode {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("joined once");
        thread.join().expect("node thread panicked")
    }
}

impl Drop for NodeThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A live node with a connected querier.
struct Fleet {
    node: NodeThread,
    peer: RemotePeer,
    querier: Querier,
}

fn loopback() -> std::net::SocketAddr {
    "127.0.0.1:0".parse().expect("loopback addr")
}

/// Bring up the node (on its own thread) and a querier connected to it.
fn launch(builder: impl Fn() -> DeploymentBuilder, verify: bool) -> Result<Fleet, ConfigError> {
    let mut querier_end =
        TcpTransport::bind(QUERIER, loopback(), BTreeMap::new()).unwrap_or_else(|e| panic!("querier bind: {e}"));
    let node_end = TcpTransport::bind(PEER, loopback(), BTreeMap::from([(QUERIER, querier_end.local_addr())]))
        .unwrap_or_else(|e| panic!("node bind: {e}"));
    querier_end.add_peer(PEER, node_end.local_addr());
    let (node, _) = builder().build_fleet_node(PEER, Box::new(node_end), verify)?;
    let peer = RemotePeer::new(PEER, Box::new(querier_end), RPC_TIMEOUT);
    let querier = builder().build_fleet_querier(vec![peer.clone()])?;
    Ok(Fleet {
        node: NodeThread::spawn(node),
        peer,
        querier,
    })
}

fn appended(peer: &RemotePeer) -> u64 {
    match peer.call(&AuditRequest::LogTotalAppended) {
        Some(AuditResponse::LogTotalAppended(n)) => n,
        other => panic!("LogTotalAppended RPC failed: {other:?}"),
    }
}

fn sealed_epoch(peer: &RemotePeer) -> Option<u64> {
    match peer.call(&AuditRequest::AnchorEpoch { at: None }) {
        Some(AuditResponse::AnchorEpoch(epoch)) => epoch,
        other => panic!("AnchorEpoch RPC failed: {other:?}"),
    }
}

/// Wait (bounded) until the node has sealed `epochs` more epochs.
fn await_seals(peer: &RemotePeer, epochs: u64) {
    let target = sealed_epoch(peer).map_or(epochs - 1, |e| e + epochs);
    let deadline = Instant::now() + Duration::from_secs(10);
    while sealed_epoch(peer).is_none_or(|e| e < target) {
        assert!(Instant::now() < deadline, "the node stopped sealing epochs");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Send operator frames with at most `WINDOW` in flight.  The RPC reply
/// travels the same FIFO stream, so it proves every earlier frame was
/// applied; returns the entries the node has appended.
fn drive(peer: &RemotePeer, inputs: &[SmInput]) -> u64 {
    let mut total = 0;
    for window in inputs.chunks(WINDOW) {
        for input in window {
            peer.send_wire(&SnoopyWire::Operator { input: input.clone() })
                .unwrap_or_else(|e| panic!("operator frame: {e}"));
        }
        total = appended(peer);
    }
    total
}

pub fn run_replica(plan: &FleetPlan, tracer: &mut Tracer, scratch: &Path, probe: bool, fault: bool) -> Replica {
    let mut out = Replica {
        inputs: plan.inputs.len() as u64,
        ..Default::default()
    };
    let store = ScratchDir::create(scratch.join("store"));
    let dir = store.path().to_path_buf();
    // Frame sizes as they cross the socket (4-byte length prefix included),
    // computed outside the timed phase.
    out.wire_bytes = plan
        .inputs
        .iter()
        .map(|input| {
            let frame = encode_wire(&SnoopyWire::Operator { input: input.clone() }).expect("operator frames encode");
            frame.len() as u64 + 4
        })
        .sum();

    let open = tracer.begin("build");
    let started = Instant::now();
    let mut fleet = launch(|| builder(&dir), true).unwrap_or_else(|e| panic!("launch: {e}"));
    out.setups_s.push(started.elapsed().as_secs_f64());
    tracer.end(open);

    let open = tracer.begin("maintain");
    let crypto_before = counters::snapshot();
    let started = Instant::now();
    let applied = drive(&fleet.peer, &plan.inputs);
    out.maint_s = started.elapsed().as_secs_f64();
    out.maint_crypto = counters::snapshot().since(&crypto_before);
    tracer.end(open);

    // Audits are asked of a quiesced node: once two more epochs have sealed,
    // the anchor and the epoch linking it both postdate the load, and every
    // query replays the same short window instead of the first one paying
    // for whatever the load left unsealed.
    await_seals(&fleet.peer, 2);
    let open = tracer.begin("query");
    let crypto_before = counters::snapshot();
    for tuple in &plan.asks {
        fleet.querier.clear_cache();
        let span = tracer.begin("query.run");
        let started = Instant::now();
        let result = fleet.querier.why_exists(tuple.clone()).at(PEER).run();
        let latency = started.elapsed().as_secs_f64();
        tracer.end(span);
        out.query_s += latency;
        out.latencies_ms.push(latency * 1e3);
        out.queries.absorb(&result);
        let verdict = judge(&result, None, Demand::Legitimate, &mut out.ops);
        out.ops.record(|| format!("why_exists({tuple})"), verdict);
    }
    out.query_crypto = counters::snapshot().since(&crypto_before);
    out.peak_rss_mib = peak_rss_mib();
    tracer.end(open);

    if probe {
        out.rpc_roundtrip_us = tracer.span("probe.rpc_roundtrip", || {
            const CALLS: u32 = 2_000;
            let started = Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(appended(&fleet.peer));
            }
            started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
        });
    }

    // Untimed from here on: give the epoch to be tampered with content,
    // wait for it to seal, kill the node.
    let open = tracer.begin("fault");
    let applied_tail = drive(&fleet.peer, &plan.tail);
    await_seals(&fleet.peer, 1);
    let Fleet { node, peer, querier } = fleet;
    let node = node.kill();
    drop((peer, querier));

    out.transport_errors = node.errors().len() as u64;
    let mut state = node.handle().with(|n| {
        out.traffic = n.traffic();
        // The timed entries only; the tail rides along in the retained
        // bytes, which `LogTotals::appended_bytes` scales by entry count.
        out.log.entries = plan.inputs.len() as u64;
        out.log.retained_entries = n.log_len() as u64;
        out.log.retained_bytes = n.log_stats().total();
        out.log.checkpoint_bytes = n.checkpoint_bytes() as u64;
        out.log.epochs_sealed = n.current_epoch();
        n.current_tuples()
    });
    out.log_appended_bytes = out.log.appended_bytes();
    state.sort();
    (out.log.durable_bytes, out.log.segment_files) = disk_usage(&dir);
    if probe {
        out.harvest = node.handle().retrieve_anchored(None).map(|response| Harvest {
            node: PEER,
            response,
            expected: Box::new(Engine::new(PEER, local_rules())),
            replay_bound_us: node.handle().with(|n| n.commitment_bound()),
            sim_events: 0,
            absence: Some((
                Tuple::new(
                    "bestCost",
                    PEER,
                    vec![snp_datalog::Value::Node(NodeId(1)), snp_datalog::Value::Wild],
                ),
                state.clone(),
                vec![PEER],
            )),
        });
    }
    drop(node); // flush and release the store

    // The same inputs through a bare engine: the recorder-free baseline and
    // the state the node must have converged to.
    let mut reference = Engine::new(PEER, local_rules());
    let started = Instant::now();
    for input in &plan.inputs {
        std::hint::black_box(reference.handle(input.clone()));
    }
    out.baseline_s = started.elapsed().as_secs_f64();
    out.baseline_events = plan.inputs.len() as u64;
    for input in &plan.tail {
        reference.handle(input.clone());
    }
    let mut expected = reference.current_tuples();
    expected.sort();
    let wanted = (plan.inputs.len() + plan.tail.len()) as u64;
    out.ops.record(
        || "convergence".into(),
        if applied != plan.inputs.len() as u64 || applied_tail != wanted {
            Err(format!(
                "node appended {applied} then {applied_tail} entries, {wanted} inputs sent"
            ))
        } else if state != expected {
            Err("node state differs from the recorder-free engine's".into())
        } else {
            Ok(())
        },
    );

    if !fault {
        tracer.end(open);
        return out;
    }
    // Flip one bit in the latest sealed segment.  An honest restart must
    // refuse the store; a compromised restart serves it and is convicted.
    let tampered = tamper_latest_sealed_segment(&dir.join(format!("node-{}", PEER.0)));
    out.ops.record(
        || "verified restart over a tampered store".into(),
        match (&tampered, launch(|| builder(&dir), true)) {
            (Err(e), _) => Err(format!("could not tamper: {e}")),
            (Ok(_), Err(ConfigError::Store { .. })) => Ok(()),
            (Ok(_), Err(other)) => Err(format!("refused for the wrong reason: {other}")),
            (Ok(_), Ok(_)) => Err("verified recovery accepted a tampered store".into()),
        },
    );
    // Sealing is frozen on the compromised restart so the audit anchors at
    // the tampered epoch rather than behind fresh empty ones.
    let frozen = || builder(&dir).epoch_length(SimDuration::from_secs(3_600));
    let plant = Plant {
        node: PEER,
        config: ByzantineConfig::honest(),
        expect: Expect::Red,
        label: "tamper_latest_sealed_segment",
    };
    let verdict = match launch(frozen, false) {
        Err(e) => Err(format!("unverified restart failed: {e}")),
        Ok(mut compromised) => {
            let result = compromised.querier.why_exists(plan.tail_ask.clone()).at(PEER).run();
            judge(&result, Some(&plant), Demand::Targeted, &mut out.ops)
        }
    };
    out.ops.record(|| "audit of the tampered restart".into(), verdict);
    tracer.end(open);
    out
}
