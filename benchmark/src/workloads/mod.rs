//! The four workloads and the shape every run shares: `R` back-to-back
//! replicas, each `build → maintain → query`, every replica with one planted
//! Byzantine node and a convergence check against the `secure(false)` run.

pub mod bgp;
pub mod chord;
pub mod fleet;
pub mod mincost;

use crate::oracle::{judge, Demand, Ops, Plant};
use crate::trace::Tracer;
use snp_core::node::NodeTraffic;
use snp_core::{
    AppNode, Application, Deployment, DeploymentBuilder, MacroQuery, NodeId, QueryResult, RetrieveResponse,
    WorkloadEvent,
};
use snp_crypto::counters::{self, CryptoOpCounts};
use snp_datalog::{StateMachine, Tuple};
use snp_sim::rng::DetRng;
use snp_sim::SimTime;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, in the order `check-repeat` runs them.
pub const NAMES: [&str; 4] = ["bgp-cold", "chord-anchored", "mincost-ndlog", "fleet-tcp"];

/// The `--seconds` every replica count below was calibrated for on the
/// 2-core reference box; other values scale the counts linearly.
pub const CALIBRATED_SECONDS: u64 = 15;

/// Replicas of a run: the calibrated count scaled by `--seconds`, never
/// fewer than `floor` (one full rotation of planted faults).
pub fn replicas(calibrated: usize, floor: usize, seconds: u64) -> usize {
    let scaled = (calibrated as u64 * seconds + CALIBRATED_SECONDS / 2) / CALIBRATED_SECONDS;
    usize::try_from(scaled).expect("replica count fits").max(floor)
}

/// The sub-seed of replica `r`: mixed rather than `seed + r`, so that runs
/// at neighbouring seeds share no replica.
pub fn sub_seed(seed: u64, r: usize) -> u64 {
    DetRng::new(seed).fork(&format!("replica-{r}")).next_u64()
}

/// The converged tuples of every node.
pub type State = BTreeMap<NodeId, Vec<Tuple>>;

/// One query the benchmark asks.
#[derive(Clone, Debug)]
pub struct Ask {
    pub query: MacroQuery,
    pub host: NodeId,
    pub demand: Demand,
}

impl Ask {
    pub fn new(query: MacroQuery, host: NodeId) -> Ask {
        Ask {
            query,
            host,
            demand: Demand::Legitimate,
        }
    }

    pub fn demanding(mut self, demand: Demand) -> Ask {
        self.demand = demand;
        self
    }

    pub fn targeted(self) -> Ask {
        self.demanding(Demand::Targeted)
    }
}

/// A simulator workload: the plan of replica `r` at a sub-seed.
pub type PlanFn = fn(u64, usize) -> Plan;

/// The queries to ask of a replica, given the state it converged to.
pub type Asks = Box<dyn Fn(&State) -> Vec<Ask>>;

/// Everything about one simulator replica that `(workload, sub-seed, r)`
/// fixes: the program never sees the seed, only these generated inputs.
pub struct Plan {
    /// Every operator command of the replica — the denominator of the
    /// per-input metrics.
    pub events: Vec<WorkloadEvent>,
    /// Simulated time the maintenance phase runs to.
    pub end: SimTime,
    pub plant: Plant,
    /// Clear the audit cache before each query.
    pub cold: bool,
    /// The deployment minus seed, security mode, store and schedule.
    pub deploy: Box<dyn Fn() -> DeploymentBuilder>,
    /// The honest machine of a node (what the querier replays with).
    pub expected: Box<dyn Fn(NodeId) -> Box<dyn StateMachine>>,
    /// The queries to ask, given the converged state.
    pub asks: Asks,
}

/// An application whose own schedule is withheld: the plan carries every
/// input explicitly, so the input count cannot be moved by the program.
pub struct Unscheduled<A>(pub A);

impl<A: Application> Application for Unscheduled<A> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn nodes(&self) -> Vec<NodeId> {
        self.0.nodes()
    }
    fn node(&self, id: NodeId) -> AppNode {
        self.0.node(id)
    }
    fn program(&self) -> Option<String> {
        self.0.program()
    }
}

/// Sums over the queries of a replica (counts from `QueryStats`).
#[derive(Clone, Debug, Default)]
pub struct QueryTotals {
    pub download_bytes: u64,
    pub audits: u64,
    pub units_planned: u64,
    pub segments_fetched: u64,
    pub replayed_entries: u64,
    pub skipped_entries: u64,
    pub auth_check_s: f64,
    pub replay_s: f64,
    pub audit_wall_s: f64,
    pub graph_vertices: u64,
    pub explanation_vertices: u64,
    pub rule_fires: u64,
    pub rule_probes: u64,
    pub rule_candidates: u64,
}

impl QueryTotals {
    pub fn absorb(&mut self, result: &QueryResult) {
        let s = &result.stats;
        self.download_bytes += s.total_bytes();
        self.audits += s.audits;
        self.units_planned += result.audits.len() as u64;
        self.segments_fetched += s.segments_fetched;
        self.replayed_entries += s.replayed_entries;
        self.skipped_entries += s.skipped_entries;
        self.auth_check_s += s.auth_check_seconds;
        self.replay_s += s.replay_seconds;
        self.audit_wall_s += s.audit_wall_seconds;
        self.graph_vertices += result.graph.vertex_count() as u64;
        self.explanation_vertices += result.len() as u64;
        for eval in s.rule_evals.values() {
            self.rule_fires += eval.fires;
            self.rule_probes += eval.probes;
            self.rule_candidates += eval.candidates;
        }
    }

    pub fn merge(&mut self, o: &QueryTotals) {
        self.download_bytes += o.download_bytes;
        self.audits += o.audits;
        self.units_planned += o.units_planned;
        self.segments_fetched += o.segments_fetched;
        self.replayed_entries += o.replayed_entries;
        self.skipped_entries += o.skipped_entries;
        self.auth_check_s += o.auth_check_s;
        self.replay_s += o.replay_s;
        self.audit_wall_s += o.audit_wall_s;
        self.graph_vertices += o.graph_vertices;
        self.explanation_vertices += o.explanation_vertices;
        self.rule_fires += o.rule_fires;
        self.rule_probes += o.rule_probes;
        self.rule_candidates += o.rule_candidates;
    }
}

/// What the log layer held when maintenance ended.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogTotals {
    pub entries: u64,
    pub retained_entries: u64,
    pub retained_bytes: u64,
    pub checkpoint_bytes: u64,
    pub epochs_sealed: u64,
    pub durable_bytes: u64,
    pub segment_files: u64,
}

impl LogTotals {
    /// Bytes appended to all logs, retained or since truncated: exact while
    /// nothing was truncated, else the retained entries' mean size times the
    /// entries ever appended (nodes expose truncated *entries*, not bytes).
    pub fn appended_bytes(&self) -> f64 {
        if self.retained_entries == 0 {
            return 0.0;
        }
        self.retained_bytes as f64 * (self.entries as f64 / self.retained_entries as f64)
    }

    pub fn merge(&mut self, o: &LogTotals) {
        self.entries += o.entries;
        self.retained_entries += o.retained_entries;
        self.retained_bytes += o.retained_bytes;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.epochs_sealed += o.epochs_sealed;
        self.durable_bytes += o.durable_bytes;
        self.segment_files += o.segment_files;
    }
}

/// Data lifted out of a finished replica for the layer probes.
pub struct Harvest {
    pub node: NodeId,
    pub response: RetrieveResponse,
    pub expected: Box<dyn StateMachine>,
    pub replay_bound_us: u64,
    /// Simulator events of the replica (sizes the queue probe).
    pub sim_events: u64,
    /// An absence question the workload's machine can answer.
    pub absence: Option<(Tuple, Vec<Tuple>, Vec<NodeId>)>,
}

/// Everything one replica measured — and, merged, everything a run did:
/// phase walls and counts add up, latencies and set-up times pool.
#[derive(Default)]
pub struct Replica {
    pub inputs: u64,
    /// One set-up time per replica merged in.
    pub setups_s: Vec<f64>,
    pub maint_s: f64,
    /// Sum of the query latencies: one closed-loop client, back to back.
    pub query_s: f64,
    pub latencies_ms: Vec<f64>,
    /// Bytes the system put on the wire for maintenance.
    pub wire_bytes: u64,
    pub ops: Ops,
    pub traffic: NodeTraffic,
    pub log: LogTotals,
    /// `LogTotals::appended_bytes`, estimated per replica and summed.
    pub log_appended_bytes: f64,
    pub queries: QueryTotals,
    pub maint_crypto: CryptoOpCounts,
    pub query_crypto: CryptoOpCounts,
    pub sim_events: u64,
    pub baseline_s: f64,
    pub baseline_events: u64,
    pub transport_errors: u64,
    /// `VmHWM` when the (last) replica's timed phases ended: the fleet's
    /// restart experiment after them is the oracle's memory, not the
    /// system's.
    pub peak_rss_mib: f64,
    /// `RemotePeer::call(LogTotalAppended)` against the live node (fleet,
    /// traced runs).
    pub rpc_roundtrip_us: f64,
    pub harvest: Option<Harvest>,
}

fn add_counts(into: &mut CryptoOpCounts, other: &CryptoOpCounts) {
    into.signatures += other.signatures;
    into.verifications += other.verifications;
    into.hash_ops += other.hash_ops;
    into.hash_bytes += other.hash_bytes;
}

impl Replica {
    pub fn merge(&mut self, r: Replica) {
        self.inputs += r.inputs;
        self.setups_s.extend(r.setups_s);
        self.maint_s += r.maint_s;
        self.query_s += r.query_s;
        self.latencies_ms.extend(r.latencies_ms);
        self.wire_bytes += r.wire_bytes;
        self.ops.merge(r.ops);
        self.traffic.merge(&r.traffic);
        self.log.merge(&r.log);
        self.log_appended_bytes += r.log_appended_bytes;
        self.queries.merge(&r.queries);
        add_counts(&mut self.maint_crypto, &r.maint_crypto);
        add_counts(&mut self.query_crypto, &r.query_crypto);
        self.sim_events += r.sim_events;
        self.baseline_s += r.baseline_s;
        self.baseline_events += r.baseline_events;
        self.transport_errors += r.transport_errors;
        self.peak_rss_mib = self.peak_rss_mib.max(r.peak_rss_mib);
        self.rpc_roundtrip_us = self.rpc_roundtrip_us.max(r.rpc_roundtrip_us);
    }

    /// Wall time of the two timed phases.
    pub fn phase_wall_s(&self) -> f64 {
        self.maint_s + self.query_s
    }
}

/// A directory that is removed when dropped — also when the oracle fails
/// or a phase panics.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> ScratchDir {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Bytes and `.seg` files under `dir` (recursively).
pub fn disk_usage(dir: &Path) -> (u64, u64) {
    let (mut bytes, mut segments) = (0, 0);
    let Ok(read) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in read.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (b, s) = disk_usage(&path);
            bytes += b;
            segments += s;
        } else if let Ok(meta) = entry.metadata() {
            bytes += meta.len();
            if path.extension().is_some_and(|x| x == "seg") {
                segments += 1;
            }
        }
    }
    (bytes, segments)
}

fn sorted_state(deployment: &Deployment) -> State {
    deployment
        .handles
        .iter()
        .map(|(id, handle)| {
            let mut tuples = handle.with(|n| n.current_tuples());
            tuples.sort();
            (*id, tuples)
        })
        .collect()
}

/// The maintenance phase is driven in this many `run_until` slices, traced
/// or not, so both kinds of run do identical work.
const SLICES: u64 = 8;

fn build(plan: &Plan, sub_seed: u64, secure: bool) -> Deployment {
    let mut builder = (plan.deploy)().seed(sub_seed).secure(secure);
    // A fabricating node lies in either mode; the audit-time faults need the
    // recorder and are inert without it.
    builder = builder.byzantine(plan.plant.node, plan.plant.config.clone());
    for event in &plan.events {
        builder = builder.schedule(event.clone());
    }
    builder.build()
}

/// Run one simulator replica: `build → maintain → (baseline, convergence
/// check) → query`.
pub fn run_sim_replica(plan: &Plan, sub_seed: u64, tracer: &mut Tracer, harvest: bool) -> Replica {
    let mut out = Replica {
        inputs: plan.events.len() as u64,
        ..Default::default()
    };
    let open = tracer.begin("build");
    let started = Instant::now();
    let mut deployment = build(plan, sub_seed, true);
    out.setups_s.push(started.elapsed().as_secs_f64());
    tracer.end(open);

    let open = tracer.begin("maintain");
    let crypto_before = counters::snapshot();
    let started = Instant::now();
    for slice in 1..=SLICES {
        let deadline = SimTime::from_micros(plan.end.as_micros() * slice / SLICES);
        out.sim_events += tracer.span("run_until", || deployment.run_until(deadline));
    }
    out.maint_s = started.elapsed().as_secs_f64();
    out.maint_crypto = counters::snapshot().since(&crypto_before);
    tracer.end(open);

    out.traffic = deployment.total_traffic();
    out.wire_bytes = out.traffic.total();
    for handle in deployment.handles.values() {
        handle.with(|n| {
            out.log.entries += n.log_total_appended();
            out.log.retained_entries += n.log_len() as u64;
            out.log.retained_bytes += n.log_stats().total();
            out.log.checkpoint_bytes += n.checkpoint_bytes() as u64;
            out.log.epochs_sealed += n.current_epoch();
        });
    }
    out.log_appended_bytes = out.log.appended_bytes();

    // The same inputs without the recorder: the denominator of the
    // recorder's cost, and the state the secure run must have converged to.
    let open = tracer.begin("baseline");
    let mut baseline = build(plan, sub_seed, false);
    let started = Instant::now();
    out.baseline_events = baseline.run_until(plan.end);
    out.baseline_s = started.elapsed().as_secs_f64();
    tracer.end(open);
    let state = sorted_state(&deployment);
    let reference = sorted_state(&baseline);
    drop(baseline);
    let diverged: Vec<NodeId> = state
        .iter()
        .filter(|(id, tuples)| **id != plan.plant.node && reference.get(id) != Some(tuples))
        .map(|(id, _)| *id)
        .collect();
    out.ops.record(
        || "convergence".into(),
        if diverged.is_empty() {
            Ok(())
        } else {
            Err(format!("secure and baseline runs disagree on {diverged:?}"))
        },
    );

    let asks = (plan.asks)(&state);
    let open = tracer.begin("query");
    let crypto_before = counters::snapshot();
    for ask in &asks {
        if plan.cold {
            deployment.querier.clear_cache();
        }
        let span = tracer.begin("query.run");
        let started = Instant::now();
        let result = deployment.querier.query(ask.query.clone()).at(ask.host).run();
        let latency = started.elapsed().as_secs_f64();
        tracer.end(span);
        out.query_s += latency;
        out.latencies_ms.push(latency * 1e3);
        out.queries.absorb(&result);
        let verdict = judge(&result, Some(&plan.plant), ask.demand, &mut out.ops);
        out.ops.record(|| format!("{:?} at {}", ask.query, ask.host), verdict);
    }
    out.query_crypto = counters::snapshot().since(&crypto_before);
    out.peak_rss_mib = peak_rss_mib();
    tracer.end(open);

    if harvest {
        out.harvest = harvest_busiest(plan, &deployment, &state, out.sim_events);
    }
    out
}

/// Lift the busiest honest node's evidence out of the deployment, exactly
/// as an audit would retrieve it.
fn harvest_busiest(plan: &Plan, deployment: &Deployment, state: &State, sim_events: u64) -> Option<Harvest> {
    let (node, handle) = deployment
        .handles
        .iter()
        .filter(|(id, _)| **id != plan.plant.node)
        .max_by_key(|(id, h)| (h.with(|n| n.log_total_appended()), std::cmp::Reverse(**id)))?;
    let response = handle.retrieve_anchored(None)?;
    let mut harvest = Harvest {
        node: *node,
        response,
        expected: (plan.expected)(*node),
        replay_bound_us: handle.with(|n| n.commitment_bound()),
        sim_events,
        absence: None,
    };
    harvest.absence = absence_question(&harvest, state, deployment);
    Some(harvest)
}

/// A wildcard absence question on the harvested node's most common derived
/// relation (what `why_absent` hands the machine).
fn absence_question(
    harvest: &Harvest,
    state: &State,
    deployment: &Deployment,
) -> Option<(Tuple, Vec<Tuple>, Vec<NodeId>)> {
    let present = state.get(&harvest.node)?.clone();
    let sample = present.iter().find(|t| t.relation == "bestCost")?;
    let mut pattern = sample.clone();
    pattern.args[0] = snp_datalog::Value::Node(NodeId(u64::MAX - 1));
    if let Some(last) = pattern.args.last_mut() {
        *last = snp_datalog::Value::Wild;
    }
    Some((pattern, present, deployment.handles.keys().copied().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_generators_are_pure_functions_of_workload_and_seed() {
        let plans: [(&str, PlanFn); 3] = [
            ("bgp-cold", bgp::plan),
            ("chord-anchored", chord::plan),
            ("mincost-ndlog", mincost::plan),
        ];
        for (name, plan) in plans {
            let (a, again, other) = (plan(11, 0), plan(11, 0), plan(12, 0));
            assert!(!a.events.is_empty(), "{name}");
            assert_eq!(a.events, again.events, "{name}: same seed, same inputs");
            assert_eq!((a.end, a.plant.node), (again.end, again.plant.node), "{name}");
            assert_ne!(a.events, other.events, "{name}: another seed, other inputs");
            // The replica index only rotates the planted fault.
            assert_eq!(a.events, plan(11, 1).events, "{name}");
            assert_ne!(a.plant.label, plan(11, 1).plant.label, "{name}");
        }
    }

    #[test]
    fn fleet_generator_is_a_pure_function_of_the_seed() {
        let (a, again, other) = (fleet::plan(11), fleet::plan(11), fleet::plan(12));
        assert_eq!(a, again);
        assert_ne!(a.inputs, other.inputs);
        // Every delete removes a link that stands, so no operation can fail.
        let mut standing = std::collections::BTreeSet::new();
        for input in &a.inputs {
            match input {
                snp_datalog::SmInput::InsertBase(t) => assert!(standing.insert(t.clone()), "double insert of {t}"),
                snp_datalog::SmInput::DeleteBase(t) => assert!(standing.remove(t), "delete of absent {t}"),
                other => panic!("unexpected input {other:?}"),
            }
        }
    }

    #[test]
    fn sub_seeds_do_not_overlap_between_neighbouring_seeds() {
        let seeds: std::collections::BTreeSet<u64> = (1..=4)
            .flat_map(|seed| (0..50).map(move |r| sub_seed(seed, r)))
            .collect();
        assert_eq!(seeds.len(), 200);
        assert_eq!(sub_seed(3, 7), sub_seed(3, 7));
    }

    #[test]
    fn replica_counts_scale_with_seconds_and_keep_a_full_rotation() {
        assert_eq!(replicas(76, 3, CALIBRATED_SECONDS), 76);
        assert_eq!(replicas(76, 3, 2 * CALIBRATED_SECONDS), 152);
        assert_eq!(replicas(9, 3, 1), 3);
        assert_eq!(replicas(3, 1, 5), 1);
    }
}
