//! The unified deployment API: [`Application`], [`Deployment`] and
//! [`DeploymentBuilder`].
//!
//! Every SNooPy experiment needs the same pieces wired together: a
//! deterministic simulator, one [`SnoopyNode`] per participant (each wrapping
//! a primary-system state machine), a key registry covering everyone, a
//! [`Querier`] holding the *expected* machine for every node, a base-tuple
//! workload schedule, and per-node fault/proxy configuration.  Historically
//! each application hand-rolled this wiring with paired
//! `(app, expected)` arguments; the [`Application`] trait bundles all of it
//! behind one interface, and the fluent [`DeploymentBuilder`] assembles any
//! mix of applications into a runnable [`Deployment`]:
//!
//! ```
//! use snp_core::{Deployment, NodeId};
//! use snp_datalog::{Engine, RuleSet};
//!
//! let rules = || RuleSet::new(snp_datalog::parser::parse_program(
//!     "R reach(@Y, X) :- link(@X, Y).").unwrap()).unwrap();
//! let mut deployment = Deployment::builder()
//!     .seed(42)
//!     .secure(true)
//!     .node(NodeId(1), move |id| Box::new(Engine::new(id, rules())))
//!     .build();
//! deployment.run_until(snp_sim::SimTime::from_secs(1));
//! ```

use crate::error::ConfigError;
use crate::fleet::{FleetNode, RemotePeer};
use crate::node::{NodeTraffic, SnoopyHandle, SnoopyNode, OPERATOR};
use crate::query::Querier;
use crate::wire::SnoopyWire;
use crate::ByzantineConfig;
use snp_crypto::keys::{KeyRegistry, NodeId};
use snp_datalog::{SmInput, StateMachine, Tuple};
use snp_log::{FileSegmentStore, RecoveryReport};
use snp_sim::transport::Transport;
use snp_sim::{NetworkConfig, SimDuration, SimTime, Simulator};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A scheduled base-tuple operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Insert a base tuple.
    Insert(Tuple),
    /// Delete a base tuple.
    Delete(Tuple),
}

/// One entry of an application's workload schedule: an operator command
/// delivered to `node` at simulated time `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadEvent {
    /// Global simulated delivery time.
    pub at: SimTime,
    /// The node receiving the operator command.
    pub node: NodeId,
    /// The operation to apply.
    pub op: WorkloadOp,
}

impl WorkloadEvent {
    /// Schedule the insertion of a base tuple.
    pub fn insert(at: SimTime, node: NodeId, tuple: Tuple) -> WorkloadEvent {
        WorkloadEvent {
            at,
            node,
            op: WorkloadOp::Insert(tuple),
        }
    }

    /// Schedule the deletion of a base tuple.
    pub fn delete(at: SimTime, node: NodeId, tuple: Tuple) -> WorkloadEvent {
        WorkloadEvent {
            at,
            node,
            op: WorkloadOp::Delete(tuple),
        }
    }
}

/// Everything one node of an application contributes to a deployment: the
/// machine it *runs*, the machine the querier *replays with* (§5.5), and
/// optional fault/proxy configuration.
pub struct AppNode {
    /// The state machine the node actually executes (possibly corrupted).
    pub machine: Box<dyn StateMachine>,
    /// The machine deterministic replay uses; pass the *correct* machine even
    /// when `machine` is corrupted — that divergence is what audits detect.
    pub expected: Box<dyn StateMachine>,
    /// Byzantine behaviour injected at the SNP layer (below the machine).
    pub byzantine: Option<ByzantineConfig>,
    /// Proxy re-encoding overhead charged per outgoing message (§6.3).
    pub proxy_overhead_bytes: usize,
}

// Manual impl: both machines are trait objects without `Debug`.
impl std::fmt::Debug for AppNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppNode")
            .field("byzantine", &self.byzantine)
            .field("proxy_overhead_bytes", &self.proxy_overhead_bytes)
            .finish_non_exhaustive()
    }
}

impl AppNode {
    /// A node running `machine`, replayed with a fresh (correct) copy of it.
    ///
    /// [`StateMachine::fresh`] is specified to return the *honest* machine,
    /// so this is the right default even for corrupted machines.
    pub fn new(machine: Box<dyn StateMachine>) -> AppNode {
        let expected = machine.fresh();
        AppNode {
            machine,
            expected,
            byzantine: None,
            proxy_overhead_bytes: 0,
        }
    }

    /// A node with an explicitly different replay machine.
    pub fn with_expected(machine: Box<dyn StateMachine>, expected: Box<dyn StateMachine>) -> AppNode {
        AppNode {
            machine,
            expected,
            byzantine: None,
            proxy_overhead_bytes: 0,
        }
    }

    /// Inject Byzantine behaviour at the SNP layer of this node.
    pub fn byzantine(mut self, config: ByzantineConfig) -> AppNode {
        self.byzantine = Some(config);
        self
    }

    /// Charge `bytes` of proxy re-encoding overhead per outgoing message.
    pub fn proxy_overhead(mut self, bytes: usize) -> AppNode {
        self.proxy_overhead_bytes = bytes;
        self
    }
}

/// A distributed application that can be dropped into a [`Deployment`].
///
/// An application owns a set of nodes and, for each, produces the machine it
/// runs, the machine the querier replays with, and per-node fault/proxy
/// configuration — plus the base-tuple workload that drives the scenario.
/// Implementations exist for all the example scenarios in `snp-apps`
/// (MinCost, Chord, MapReduce, BGP).
pub trait Application {
    /// Human-readable name, used in diagnostics.
    fn name(&self) -> String;

    /// The node ids this application deploys.
    fn nodes(&self) -> Vec<NodeId>;

    /// Build the bundle for one of the ids returned by [`Application::nodes`].
    fn node(&self, id: NodeId) -> AppNode;

    /// The base-tuple schedule driving the scenario.  `seed` is the
    /// deployment seed, so randomized workloads stay deterministic per
    /// deployment.
    fn workload(&self, seed: u64) -> Vec<WorkloadEvent> {
        let _ = seed;
        Vec::new()
    }

    /// The NDlog rule program this application's machines evaluate, in the
    /// [`snp_datalog::parser`] text syntax, if it has one.
    ///
    /// When present, the builders ([`DeploymentBuilder::try_build`] and the
    /// fleet-mode variants) parse the program and run the
    /// [`snp_datalog::analysis`] passes over it — together with the base
    /// tuples of [`Application::workload`], which contribute signature
    /// evidence, so a program whose relations disagree with the tuples the
    /// workload actually injects is caught at build time.  Error-level
    /// diagnostics refuse the deployment with a typed
    /// [`ConfigError::RuleProgram`].  Defaults to `None` for applications
    /// whose machines are not rule-driven.
    fn program(&self) -> Option<String> {
        None
    }
}

/// Parse and statically analyze an application's declared rule program,
/// cross-checking relation signatures against the base tuples its workload
/// injects.  Error-level diagnostics become [`ConfigError::RuleProgram`].
fn validate_app_program(app: &dyn Application, seed: u64) -> Result<(), ConfigError> {
    let Some(source) = app.program() else {
        return Ok(());
    };
    let rules = snp_datalog::parser::parse_program(&source).map_err(|e| ConfigError::RuleProgram {
        app: app.name(),
        detail: e,
    })?;
    let facts: Vec<Tuple> = app
        .workload(seed)
        .into_iter()
        .map(|event| match event.op {
            WorkloadOp::Insert(tuple) | WorkloadOp::Delete(tuple) => tuple,
        })
        .collect();
    let diagnostics = snp_datalog::analyze_with_facts(&rules, &facts);
    match snp_datalog::ProgramError::from_diagnostics(diagnostics) {
        Some(err) => Err(ConfigError::RuleProgram {
            app: app.name(),
            detail: err.to_string(),
        }),
        None => Ok(()),
    }
}

/// Which substrate carries node-to-node traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportChoice {
    /// The deterministic discrete-event simulator (the default, and the
    /// only substrate [`DeploymentBuilder::try_build`] can host: every node
    /// lives in this process).
    #[default]
    Simulator,
    /// Real TCP sockets — one OS process per node.  A builder configured
    /// for TCP cannot `try_build` a single-process [`Deployment`]; each
    /// process calls [`DeploymentBuilder::build_fleet_node`] for the node
    /// it hosts, and the querier process calls
    /// [`DeploymentBuilder::build_fleet_querier`].
    Tcp,
}

/// Fluent builder for a [`Deployment`]; create one with
/// [`Deployment::builder`].
pub struct DeploymentBuilder {
    network: NetworkConfig,
    seed: u64,
    secure: bool,
    epoch_length: Option<SimDuration>,
    retain_epochs: Option<usize>,
    batch_window: Option<SimDuration>,
    query_threads: Option<usize>,
    sched: Option<snp_sim::SchedImpl>,
    apps: Vec<Box<dyn Application>>,
    byzantine: Vec<(NodeId, ByzantineConfig)>,
    proxy: Vec<(NodeId, usize)>,
    schedule: Vec<WorkloadEvent>,
    segment_dir: Option<PathBuf>,
    transport: TransportChoice,
}

/// A single-node [`Application`] wrapping a machine factory; what
/// [`DeploymentBuilder::node`] creates under the hood.
struct SingleNode<F> {
    id: NodeId,
    factory: F,
}

impl<F: Fn(NodeId) -> Box<dyn StateMachine>> Application for SingleNode<F> {
    fn name(&self) -> String {
        format!("node-{}", self.id)
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.id]
    }

    fn node(&self, id: NodeId) -> AppNode {
        AppNode::new((self.factory)(id))
    }
}

impl Default for DeploymentBuilder {
    fn default() -> DeploymentBuilder {
        DeploymentBuilder {
            network: NetworkConfig::default(),
            seed: 0,
            secure: true,
            epoch_length: None,
            retain_epochs: None,
            batch_window: None,
            query_threads: None,
            sched: None,
            apps: Vec::new(),
            byzantine: Vec::new(),
            proxy: Vec::new(),
            schedule: Vec::new(),
            segment_dir: None,
            transport: TransportChoice::Simulator,
        }
    }
}

// Manual impl: applications are trait objects without `Debug`.
impl std::fmt::Debug for DeploymentBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeploymentBuilder")
            .field("network", &self.network)
            .field("seed", &self.seed)
            .field("secure", &self.secure)
            .field("apps", &self.apps.len())
            .field("byzantine", &self.byzantine)
            .field("schedule", &self.schedule.len())
            .finish_non_exhaustive()
    }
}

impl DeploymentBuilder {
    /// Start from the defaults: `NetworkConfig::default()`, seed 0, SNP
    /// enabled, no checkpoints, no nodes.
    pub fn new() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// Use this network model (latency, jitter, clock skew, loss).
    pub fn network(mut self, config: NetworkConfig) -> DeploymentBuilder {
        self.network = config;
        self
    }

    /// Choose the traffic substrate.  [`TransportChoice::Simulator`] (the
    /// default) builds the usual single-process deployment;
    /// [`TransportChoice::Tcp`] marks this configuration as a real fleet,
    /// which `try_build` refuses (each process builds its own node via
    /// [`DeploymentBuilder::build_fleet_node`]).
    pub fn transport(mut self, choice: TransportChoice) -> DeploymentBuilder {
        self.transport = choice;
        self
    }

    /// Persist every node's sealed segments and signed checkpoints under
    /// `dir/node-<id>/` through a [`FileSegmentStore`].  A node built from
    /// a directory that already holds sealed epochs *resumes* from its last
    /// signed checkpoint instead of starting fresh.
    pub fn segment_dir(mut self, dir: impl Into<PathBuf>) -> DeploymentBuilder {
        self.segment_dir = Some(dir.into());
        self
    }

    /// Seed for the simulator RNG and all application workload generators.
    pub fn seed(mut self, seed: u64) -> DeploymentBuilder {
        self.seed = seed;
        self
    }

    /// Enable (`true`, the default) or disable SNP on every node.
    /// `secure(false)` builds the baseline configuration used as the
    /// denominator in Figures 5 and 9.
    pub fn secure(mut self, secure: bool) -> DeploymentBuilder {
        self.secure = secure;
        self
    }

    /// Shorthand for [`DeploymentBuilder::secure`]`(false)`.
    pub fn baseline(self) -> DeploymentBuilder {
        self.secure(false)
    }

    /// Seal a log epoch (taking a checkpoint) on every node each `interval`
    /// of simulated time (§5.6).  Checkpoint-anchored audits then replay only
    /// the suffix after the relevant checkpoint.
    pub fn epoch_length(mut self, interval: SimDuration) -> DeploymentBuilder {
        self.epoch_length = Some(interval);
        self
    }

    /// Keep the entries of at most `k` sealed epochs per node; older sealed
    /// segments are truncated while their checkpoints are kept, so per-node
    /// log storage plateaus instead of growing with total history (§5.6,
    /// Figure 6's truncation series).  Requires an epoch length.
    pub fn retain_epochs(mut self, k: usize) -> DeploymentBuilder {
        self.retain_epochs = Some(k);
        self
    }

    /// Batch the commitment protocol (§5.6): every node buffers outgoing
    /// tuple notifications per destination for up to `window` and flushes
    /// each window as *one* wire packet carrying a single authenticator;
    /// receivers verify once per batch and piggyback their acks on their own
    /// next flush.  A zero window (the default) keeps the classic
    /// one-signature-per-message protocol.  The environment variable
    /// `SNP_BATCH_WINDOW` (microseconds) overrides whatever the builder
    /// configures, so an experiment can be re-run batched without code
    /// changes.
    ///
    /// For any window, the converged tuple state and every provenance query
    /// verdict are identical to the unbatched run — only signature counts,
    /// packet counts, and wire bytes change.  Sends are logged at *push*
    /// time with their original timestamps, so logs are byte-identical too
    /// on an in-order fixed-delay network; under delivery jitter the
    /// interleavings (and hence intermediate churn) may differ in either
    /// mode, never the outcome.
    pub fn batch_window(mut self, window: SimDuration) -> DeploymentBuilder {
        self.batch_window = Some(window);
        self
    }

    /// Run the simulator on an explicit event-queue implementation (the
    /// timing wheel, or the binary-heap oracle it is differentially tested
    /// against).  Defaults to the wheel.  The environment variable
    /// `SNP_SCHED` (`wheel` / `heap`, strict-parsed) overrides whatever the
    /// builder configures, so the whole suite can be re-run on the oracle
    /// queue without code changes.  Either implementation produces
    /// byte-identical runs — pop order, traffic, fingerprints — only the
    /// scheduling cost differs.
    pub fn sched(mut self, imp: snp_sim::SchedImpl) -> DeploymentBuilder {
        self.sched = Some(imp);
        self
    }

    /// Execute the querier's audit plans on `threads` worker threads
    /// (default: 1 = serial).  The environment variable `SNP_QUERY_THREADS`
    /// overrides whatever the builder configures, so an experiment can be
    /// re-run parallel without code changes.  Parallel and serial queries
    /// produce byte-identical results and stats — only the measured
    /// `*_seconds` timing fields differ.
    pub fn query_threads(mut self, threads: usize) -> DeploymentBuilder {
        self.query_threads = Some(threads);
        self
    }

    /// Deploy a whole application (all its nodes plus its workload).
    pub fn app(mut self, app: impl Application + 'static) -> DeploymentBuilder {
        self.apps.push(Box::new(app));
        self
    }

    /// Deploy a single node whose machine is produced by `factory`; the
    /// querier replays it with a fresh (correct) copy.
    pub fn node(
        mut self,
        id: NodeId,
        factory: impl Fn(NodeId) -> Box<dyn StateMachine> + 'static,
    ) -> DeploymentBuilder {
        self.apps.push(Box::new(SingleNode { id, factory }));
        self
    }

    /// Inject Byzantine behaviour on a node (overrides the application's own
    /// per-node configuration for that node).
    pub fn byzantine(mut self, id: NodeId, config: ByzantineConfig) -> DeploymentBuilder {
        self.byzantine.push((id, config));
        self
    }

    /// Charge `bytes` of proxy re-encoding overhead per outgoing message on a
    /// node (the Quagga proxy of §6.3).
    pub fn proxy_overhead(mut self, id: NodeId, bytes: usize) -> DeploymentBuilder {
        self.proxy.push((id, bytes));
        self
    }

    /// Append one workload event to the schedule.
    pub fn schedule(mut self, event: WorkloadEvent) -> DeploymentBuilder {
        self.schedule.push(event);
        self
    }

    /// Schedule the insertion of a base tuple.
    pub fn insert_at(self, at: SimTime, node: NodeId, tuple: Tuple) -> DeploymentBuilder {
        self.schedule(WorkloadEvent::insert(at, node, tuple))
    }

    /// Schedule the deletion of a base tuple.
    pub fn delete_at(self, at: SimTime, node: NodeId, tuple: Tuple) -> DeploymentBuilder {
        self.schedule(WorkloadEvent::delete(at, node, tuple))
    }

    /// Assemble the deployment (see [`DeploymentBuilder::try_build`]),
    /// panicking on configuration errors with the error's message.
    ///
    /// Panics if two applications claim the same node id, if a `byzantine` /
    /// `proxy_overhead` override names a node no application deploys (a
    /// typo'd id would otherwise silently disable the fault injection an
    /// experiment depends on), or if an environment override
    /// (`SNP_BATCH_WINDOW`, `SNP_QUERY_THREADS`) is malformed.
    pub fn build(self) -> Deployment {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assemble the deployment: derive the key registry from the node ids in
    /// use, install every application's nodes, apply fault/proxy overrides,
    /// and schedule all workloads.
    ///
    /// Unlike historical revisions, the `SNP_BATCH_WINDOW` /
    /// `SNP_QUERY_THREADS` environment overrides are parsed *strictly*: a
    /// malformed value (e.g. `SNP_BATCH_WINDOW=1s`) is a
    /// [`ConfigError::InvalidEnvVar`], never a silent fallback to the
    /// built-in default — an experiment must not quietly run with a
    /// configuration the operator did not ask for.
    pub fn try_build(self) -> Result<Deployment, ConfigError> {
        if self.transport == TransportChoice::Tcp {
            return Err(ConfigError::FleetTransport);
        }
        assert!(
            self.retain_epochs.is_none() || self.epoch_length.is_some(),
            "retain_epochs without epoch_length would never truncate: truncation \
             is applied when an epoch seals, and no epoch ever seals without a cadence"
        );
        let mut max_id = 0;
        for app in &self.apps {
            for id in app.nodes() {
                assert_ne!(
                    id,
                    OPERATOR,
                    "{}: the operator pseudo-node cannot be deployed",
                    app.name()
                );
                max_id = max_id.max(id.0);
            }
        }
        let (_, _, registry) = KeyRegistry::deployment(max_id + 1);
        let t_prop_micros = self.network.t_prop.as_micros();
        // The scheduler selector: `SNP_SCHED` (strict-parsed, so a typo is a
        // typed ConfigError rather than a panic deep inside `Simulator::new`)
        // overrides the builder, which defaults to the wheel.
        let sched = env_override::<snp_sim::SchedImpl>("SNP_SCHED", "\"wheel\" or \"heap\"")?
            .or(self.sched)
            .unwrap_or(snp_sim::SchedImpl::Wheel);
        let batch_window_micros = env_override::<u64>(
            "SNP_BATCH_WINDOW",
            "an integer number of microseconds (e.g. SNP_BATCH_WINDOW=100000 for a 100 ms window; \
             unit suffixes like \"1s\" are not supported)",
        )?
        .or(self.batch_window.map(|w| w.as_micros()))
        .unwrap_or(0);
        // Under batching a message may wait a full window before it is even
        // transmitted and its ack another at the receiver, so the replay
        // bound the querier judges missing acks by is Tprop + Tbatch.
        let mut deployment = Deployment {
            sim: Simulator::with_sched(self.network, self.seed, sched),
            handles: BTreeMap::new(),
            querier: Querier::new(registry.clone(), t_prop_micros + batch_window_micros),
            secure: self.secure,
            registry,
            t_prop_micros,
            batch_window_micros,
            segment_dir: self.segment_dir,
        };

        for app in &self.apps {
            validate_app_program(app.as_ref(), self.seed)?;
            for id in app.nodes() {
                assert!(
                    !deployment.handles.contains_key(&id),
                    "node {id} deployed twice (second claim by application {})",
                    app.name()
                );
                deployment.install(id, app.node(id))?;
            }
            for event in app.workload(self.seed) {
                deployment.schedule(event);
            }
        }
        // The setters reject undeployed ids, covering builder typos too.
        for (id, config) in self.byzantine {
            deployment.set_byzantine(id, config)?;
        }
        for (id, bytes) in self.proxy {
            deployment.set_proxy_overhead(id, bytes)?;
        }
        for event in self.schedule {
            deployment.schedule(event);
        }
        if let Some(interval) = self.epoch_length {
            deployment.set_epoch_length(interval.as_micros());
        }
        if let Some(k) = self.retain_epochs {
            deployment.set_retain_epochs(k);
        }
        let threads = env_override::<usize>(
            "SNP_QUERY_THREADS",
            "an integer worker count (e.g. SNP_QUERY_THREADS=4)",
        )?
        .or(self.query_threads)
        .unwrap_or(1);
        deployment.querier.set_query_threads(threads);
        Ok(deployment)
    }

    /// The derived key registry: one deterministic keypair per node id up
    /// to the highest id any application deploys (assumption 2 of §5.2 —
    /// every process of a fleet derives the *same* registry, so no key
    /// exchange is needed).
    fn fleet_registry(&self) -> KeyRegistry {
        let mut max_id = 0;
        for app in &self.apps {
            for id in app.nodes() {
                max_id = max_id.max(id.0);
            }
        }
        let (_, _, registry) = KeyRegistry::deployment(max_id + 1);
        registry
    }

    /// Build the node this OS process hosts in a real fleet: the fleet-mode
    /// counterpart of [`DeploymentBuilder::try_build`] for a single node.
    ///
    /// Applies the same configuration a simulator install would (secure
    /// mode, batching window with `SNP_BATCH_WINDOW` override, epoch
    /// cadence, retention, fault/proxy overrides) and wraps the node in a
    /// [`FleetNode`] driving `transport`.  With
    /// [`DeploymentBuilder::segment_dir`] configured, the node persists to
    /// `dir/node-<id>/` — and if that directory already holds sealed
    /// epochs, the node *resumes* from its last signed checkpoint
    /// (`verify_store` controls whether recovery authenticates the store
    /// against the node's own key; honest nodes pass `true`).  The second
    /// return value reports what recovery found (`None` without a store).
    pub fn build_fleet_node(
        self,
        id: NodeId,
        transport: Box<dyn Transport>,
        verify_store: bool,
    ) -> Result<(FleetNode, Option<RecoveryReport>), ConfigError> {
        let registry = self.fleet_registry();
        let t_prop_micros = self.network.t_prop.as_micros();
        let batch_window_micros = env_override::<u64>("SNP_BATCH_WINDOW", "an integer number of microseconds")?
            .or(self.batch_window.map(|w| w.as_micros()))
            .unwrap_or(0);
        let app = self
            .apps
            .iter()
            .find(|app| app.nodes().contains(&id))
            .ok_or(ConfigError::UndeployedNode { id, what: "fleet node" })?;
        validate_app_program(app.as_ref(), self.seed)?;
        let spec = app.node(id);
        let mut report = None;
        let mut node = if !self.secure {
            SnoopyNode::baseline(id, spec.machine)
        } else if let Some(dir) = &self.segment_dir {
            let store = FileSegmentStore::open(dir.join(format!("node-{}", id.0)), id)
                .map_err(|e| ConfigError::Store { detail: e.to_string() })?;
            // `resume` on an empty directory is exactly a fresh start
            // (epoch 0, sequence 0, genesis head), so one path serves both.
            let (node, recovered) =
                SnoopyNode::resume(id, spec.machine, registry, t_prop_micros, Box::new(store), verify_store)
                    .map_err(|e| ConfigError::Store { detail: e.to_string() })?;
            report = Some(recovered);
            node
        } else {
            SnoopyNode::new(id, spec.machine, registry, t_prop_micros)
        };
        if self.secure {
            node.set_batch_window(batch_window_micros);
        }
        if let Some(interval) = self.epoch_length {
            node.set_epoch_length(interval.as_micros());
        }
        if let Some(k) = self.retain_epochs {
            node.set_retain_epochs(k);
        }
        for (byz_id, config) in self.byzantine {
            if byz_id == id {
                node.set_byzantine(config);
            }
        }
        for (proxy_id, bytes) in self.proxy {
            if proxy_id == id {
                node.proxy_overhead_per_message = bytes;
            }
        }
        Ok((FleetNode::new(node, transport), report))
    }

    /// Build the querier process of a real fleet: audits reach each node in
    /// `peers` through its [`RemotePeer`] RPC client instead of a shared
    /// in-process handle.  Each peer's *expected* replay machine comes from
    /// the application that deploys it, exactly as in a simulator build;
    /// the replay bound and `SNP_QUERY_THREADS` handling also match.
    pub fn build_fleet_querier(self, peers: Vec<RemotePeer>) -> Result<Querier, ConfigError> {
        let registry = self.fleet_registry();
        let t_prop_micros = self.network.t_prop.as_micros();
        let batch_window_micros = env_override::<u64>("SNP_BATCH_WINDOW", "an integer number of microseconds")?
            .or(self.batch_window.map(|w| w.as_micros()))
            .unwrap_or(0);
        let mut querier = Querier::new(registry, t_prop_micros + batch_window_micros);
        let threads = env_override::<usize>(
            "SNP_QUERY_THREADS",
            "an integer worker count (e.g. SNP_QUERY_THREADS=4)",
        )?
        .or(self.query_threads)
        .unwrap_or(1);
        querier.set_query_threads(threads);
        for peer in peers {
            let id = peer.id();
            let app = self
                .apps
                .iter()
                .find(|app| app.nodes().contains(&id))
                .ok_or(ConfigError::UndeployedNode {
                    id,
                    what: "fleet querier peer",
                })?;
            validate_app_program(app.as_ref(), self.seed)?;
            querier.register_remote(peer, app.node(id).expected);
        }
        Ok(querier)
    }
}

/// Read an environment override, rejecting malformed values with a clear
/// error instead of silently falling back (the historical `.parse().ok()`
/// behaviour turned `SNP_BATCH_WINDOW=1s` into "batching off").
fn env_override<T: std::str::FromStr>(var: &'static str, expected: &'static str) -> Result<Option<T>, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<T>()
            .map(Some)
            .map_err(|_| ConfigError::InvalidEnvVar {
                var,
                value: raw,
                expected,
            }),
    }
}

/// How much of the querier's audit cache a node reconfiguration staled.
enum Staleness {
    /// One node now answers `retrieve` differently (its behaviour or
    /// accounting changed): drop that node's entries — every anchor epoch.
    Node(NodeId),
    /// Every node's anchor-epoch layout changed (epoch cadence or retention
    /// reconfigured): nothing cached can be trusted to be re-keyable.
    All,
}

/// A complete experimental setup: simulator, node handles and a querier.
///
/// Built with [`Deployment::builder`].
pub struct Deployment {
    /// The discrete-event simulator driving the run.
    pub sim: Simulator<SnoopyWire>,
    /// Handles to every node, for inspection and `retrieve`.
    pub handles: BTreeMap<NodeId, SnoopyHandle>,
    /// The querier ("Alice").
    pub querier: Querier,
    /// Whether nodes run with SNP enabled (false = baseline configuration).
    pub secure: bool,
    registry: KeyRegistry,
    t_prop_micros: u64,
    batch_window_micros: u64,
    segment_dir: Option<PathBuf>,
}

// Manual impl: summarizes the testbed without dumping every node's state.
impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("nodes", &self.handles.keys().collect::<Vec<_>>())
            .field("secure", &self.secure)
            .field("now", &self.sim.now())
            .finish_non_exhaustive()
    }
}

impl Deployment {
    /// Start building a deployment.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::new()
    }

    /// Wire one node into the simulator and the querier.
    fn install(&mut self, id: NodeId, spec: AppNode) -> Result<SnoopyHandle, ConfigError> {
        let node = if self.secure {
            let mut node = SnoopyNode::new(id, spec.machine, self.registry.clone(), self.t_prop_micros);
            node.set_batch_window(self.batch_window_micros);
            if let Some(dir) = &self.segment_dir {
                let store = FileSegmentStore::open(dir.join(format!("node-{}", id.0)), id)
                    .map_err(|e| ConfigError::Store { detail: e.to_string() })?;
                node.attach_store(Box::new(store));
            }
            node
        } else {
            SnoopyNode::baseline(id, spec.machine)
        };
        let handle = SnoopyHandle::new(node);
        if let Some(config) = spec.byzantine {
            handle.with(|n| n.set_byzantine(config));
        }
        if spec.proxy_overhead_bytes > 0 {
            handle.with(|n| n.proxy_overhead_per_message = spec.proxy_overhead_bytes);
        }
        self.sim.add_node(id, Box::new(handle.clone()));
        self.querier.register(handle.clone(), spec.expected);
        self.handles.insert(id, handle.clone());
        Ok(handle)
    }

    /// The single eviction funnel every mutating knob goes through: a node
    /// that was reconfigured while the simulation stood still answers
    /// `retrieve` differently than when its cached audit was taken, so the
    /// stale entries must be dropped — *all* of the node's anchor epochs,
    /// not just the genesis one.  Funneling the knobs through one helper
    /// keeps them from drifting apart (historically each hand-rolled its own
    /// eviction, and `set_epoch_length` forgot to).
    fn evict_stale_audits(&mut self, staleness: Staleness) {
        match staleness {
            Staleness::Node(id) => self.querier.invalidate(id),
            Staleness::All => self.querier.clear_cache(),
        }
    }

    /// Configure Byzantine behaviour on a node.
    /// Fails with [`ConfigError::UndeployedNode`] if `id` is not a deployed
    /// node — a typo'd id would otherwise silently disable the fault
    /// injection an experiment depends on.
    pub fn set_byzantine(&mut self, id: NodeId, config: ByzantineConfig) -> Result<(), ConfigError> {
        let handle = self.handles.get(&id).ok_or(ConfigError::UndeployedNode {
            id,
            what: "byzantine config",
        })?;
        handle.with(|n| n.set_byzantine(config));
        self.evict_stale_audits(Staleness::Node(id));
        Ok(())
    }

    /// Charge `bytes` of proxy re-encoding overhead per outgoing message on a
    /// node (the Quagga proxy of §6.3).
    /// Fails with [`ConfigError::UndeployedNode`] if `id` is not a deployed
    /// node.
    pub fn set_proxy_overhead(&mut self, id: NodeId, bytes: usize) -> Result<(), ConfigError> {
        let handle = self.handles.get(&id).ok_or(ConfigError::UndeployedNode {
            id,
            what: "proxy overhead",
        })?;
        handle.with(|n| n.proxy_overhead_per_message = bytes);
        self.evict_stale_audits(Staleness::Node(id));
        Ok(())
    }

    /// Seal a log epoch on every node each `interval_micros` of simulated
    /// time (§5.6's checkpoint cadence).  Changes which epoch future audits
    /// anchor on, so every cached audit is evicted.
    pub fn set_epoch_length(&mut self, interval_micros: u64) {
        for handle in self.handles.values() {
            handle.with(|n| n.set_epoch_length(interval_micros));
        }
        self.evict_stale_audits(Staleness::All);
    }

    /// Keep the entries of at most `k` sealed epochs on every node (§5.6's
    /// truncation; checkpoints are kept so tamper evidence survives).
    /// Changes which windows future audits can anchor on, so every cached
    /// audit is evicted.
    pub fn set_retain_epochs(&mut self, k: usize) {
        for handle in self.handles.values() {
            handle.with(|n| n.set_retain_epochs(k));
        }
        self.evict_stale_audits(Staleness::All);
    }

    /// Reconfigure the §5.6 batching window on every node (`0` = unbatched).
    /// This changes the querier's missing-ack replay bound (a message may
    /// legitimately wait a full window before transmission and its ack
    /// another at the receiver), so every cached audit verdict is stale and
    /// is evicted.  Reconfiguring mid-run drops any queued-but-unflushed
    /// messages on the nodes; prefer configuring before the run starts.
    pub fn set_batch_window(&mut self, micros: u64) {
        for handle in self.handles.values() {
            handle.with(|n| n.set_batch_window(micros));
        }
        self.batch_window_micros = micros;
        self.querier.set_replay_bound(self.t_prop_micros + micros);
        self.evict_stale_audits(Staleness::All);
    }

    /// Apply a workload event to the schedule.
    pub fn schedule(&mut self, event: WorkloadEvent) {
        let input = match event.op {
            WorkloadOp::Insert(tuple) => SmInput::InsertBase(tuple),
            WorkloadOp::Delete(tuple) => SmInput::DeleteBase(tuple),
        };
        self.sim
            .inject_message(event.at, OPERATOR, event.node, SnoopyWire::Operator { input });
    }

    /// Schedule the insertion of a base tuple at `at` on `node`.
    pub fn insert_at(&mut self, at: SimTime, node: NodeId, tuple: Tuple) {
        self.schedule(WorkloadEvent::insert(at, node, tuple));
    }

    /// Schedule the deletion of a base tuple at `at` on `node`.
    pub fn delete_at(&mut self, at: SimTime, node: NodeId, tuple: Tuple) {
        self.schedule(WorkloadEvent::delete(at, node, tuple));
    }

    /// Run the simulation until `deadline`; returns the number of events
    /// processed.  Cached audits are invalidated only when the simulation
    /// actually advanced — repeated no-op calls keep the querier's cache warm
    /// (the Figure-8 cache accounting depends on this).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.sim.run_until(deadline);
        if processed > 0 {
            // Past runs invalidate cached audits.
            self.querier.clear_cache();
        }
        processed
    }

    /// Run the simulation for `duration` past the current simulated time.
    pub fn run_for(&mut self, duration: SimDuration) -> u64 {
        let deadline = SimTime(self.sim.now().as_micros() + duration.as_micros());
        self.run_until(deadline)
    }

    /// Sum of all nodes' SNP-level traffic counters.
    pub fn total_traffic(&self) -> NodeTraffic {
        let mut total = NodeTraffic::default();
        for handle in self.handles.values() {
            total.merge(&handle.traffic());
        }
        total
    }

    /// Sum of all nodes' log sizes in bytes.
    pub fn total_log_bytes(&self) -> u64 {
        self.handles.values().map(|h| h.with(|n| n.log_stats().total())).sum()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.handles.len()
    }

    /// The §5.6 batching window every node was configured with
    /// (microseconds; 0 = unbatched).
    pub fn batch_window_micros(&self) -> u64 {
        self.batch_window_micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_datalog::{Atom, Engine, Rule, RuleSet, Term, Value};

    fn rules() -> RuleSet {
        RuleSet::new(vec![Rule::standard(
            "R",
            Atom::new("reach", Term::var("Y"), vec![Term::var("X")]),
            vec![Atom::new("link", Term::var("X"), vec![Term::var("Y")])],
            vec![],
        )])
        .unwrap()
    }

    fn engine_factory() -> impl Fn(NodeId) -> Box<dyn StateMachine> {
        |id| Box::new(Engine::new(id, rules()))
    }

    fn link(x: u64, y: u64) -> Tuple {
        Tuple::new("link", NodeId(x), vec![Value::node(y)])
    }

    /// A two-node Application used by the builder tests.
    struct Pair;

    impl Application for Pair {
        fn name(&self) -> String {
            "pair".into()
        }

        fn nodes(&self) -> Vec<NodeId> {
            vec![NodeId(1), NodeId(2)]
        }

        fn node(&self, id: NodeId) -> AppNode {
            AppNode::new(Box::new(Engine::new(id, rules())))
        }

        fn workload(&self, _seed: u64) -> Vec<WorkloadEvent> {
            vec![WorkloadEvent::insert(SimTime::from_millis(5), NodeId(1), link(1, 2))]
        }
    }

    /// An application declaring its rule program, used by the static
    /// rule-analysis validation tests.
    struct Declared {
        program: &'static str,
    }

    impl Application for Declared {
        fn name(&self) -> String {
            "declared".into()
        }

        fn nodes(&self) -> Vec<NodeId> {
            vec![NodeId(1)]
        }

        fn node(&self, id: NodeId) -> AppNode {
            AppNode::new(Box::new(Engine::new(id, rules())))
        }

        fn workload(&self, _seed: u64) -> Vec<WorkloadEvent> {
            vec![WorkloadEvent::insert(SimTime::from_millis(5), NodeId(1), link(1, 2))]
        }

        fn program(&self) -> Option<String> {
            Some(self.program.into())
        }
    }

    #[test]
    fn build_refuses_an_application_with_an_unsafe_rule_program() {
        // The head variable Z is bound nowhere in the body: an error-level
        // safety diagnostic, surfaced as a typed ConfigError, not a panic.
        let err = Deployment::builder()
            .app(Declared {
                program: "R1 out(@X, Z) :- link(@X, Y).",
            })
            .try_build()
            .expect_err("an unsafe program must be refused");
        match err {
            ConfigError::RuleProgram { app, detail } => {
                assert_eq!(app, "declared");
                assert!(detail.contains("RC0101"), "{detail}");
            }
            other => panic!("wrong error kind: {other}"),
        }
    }

    #[test]
    fn build_cross_checks_programs_against_workload_facts() {
        // The workload injects link(@1, n2) — a Node payload — while the
        // program does arithmetic on link's column, requiring an Int: a
        // signature conflict between the rules and the actual base tuples.
        let err = Deployment::builder()
            .app(Declared {
                program: "R1 out(@X, K2) :- link(@X, K), K2 := K + 1.",
            })
            .try_build()
            .expect_err("a program contradicting its workload must be refused");
        match err {
            ConfigError::RuleProgram { detail, .. } => {
                assert!(detail.contains("RC0202"), "{detail}");
            }
            other => panic!("wrong error kind: {other}"),
        }
    }

    #[test]
    fn a_clean_declared_program_builds_and_runs() {
        let mut deployment = Deployment::builder()
            .seed(3)
            .app(Declared {
                program: "R reach(@Y, X) :- link(@X, Y).",
            })
            .build();
        deployment.run_until(SimTime::from_secs(1));
        assert_eq!(deployment.node_count(), 1);
    }

    #[test]
    fn builder_defaults_are_secure_seed_zero_default_network() {
        let deployment = Deployment::builder().build();
        assert!(deployment.secure, "SNP must be on by default");
        assert_eq!(deployment.node_count(), 0);
        assert_eq!(deployment.sim.now(), SimTime::ZERO);
    }

    #[test]
    fn application_nodes_and_workload_are_installed() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        assert_eq!(deployment.node_count(), 2);
        assert!(
            deployment.total_traffic().total() > 0,
            "the workload must generate traffic"
        );
        assert!(deployment.total_log_bytes() > 0);
    }

    #[test]
    fn baseline_deployment_keeps_no_log() {
        let mut deployment = Deployment::builder().seed(3).baseline().app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        assert_eq!(deployment.total_log_bytes(), 0);
        assert!(deployment.total_traffic().total() > 0);
    }

    #[test]
    fn single_node_and_schedule_compose_with_apps() {
        let mut deployment = Deployment::builder()
            .seed(7)
            .node(NodeId(5), engine_factory())
            .insert_at(SimTime::from_millis(5), NodeId(5), link(5, 5))
            .build();
        deployment.run_until(SimTime::from_secs(1));
        assert_eq!(deployment.node_count(), 1);
        assert!(deployment.handles[&NodeId(5)].with(|n| n.log_len()) > 0);
    }

    #[test]
    #[should_panic(expected = "deployed twice")]
    fn duplicate_node_ids_panic() {
        let _ = Deployment::builder()
            .app(Pair)
            .node(NodeId(2), engine_factory())
            .build();
    }

    #[test]
    fn epoch_length_applies_to_all_nodes() {
        let mut deployment = Deployment::builder()
            .seed(3)
            .app(Pair)
            .epoch_length(SimDuration::from_millis(100))
            .build();
        deployment.run_until(SimTime::from_secs(2));
        let bytes: usize = deployment
            .handles
            .values()
            .map(|h| h.with(|n| n.checkpoint_bytes()))
            .sum();
        assert!(bytes > 0, "periodic checkpoints must be recorded");
    }

    #[test]
    fn run_until_without_progress_preserves_the_audit_cache() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        deployment.querier.audit(NodeId(1));
        let audits_before = deployment.querier.stats.audits;
        // Re-running up to the same deadline processes nothing and must not
        // clear the cache.
        let processed = deployment.run_until(SimTime::from_secs(2));
        assert_eq!(processed, 0);
        deployment.querier.audit(NodeId(1));
        assert_eq!(
            deployment.querier.stats.audits, audits_before,
            "cached audit must be reused"
        );
        // Advancing the deadline processes events (ack sweeps at least) →
        // progress → cache invalidated.
        deployment.insert_at(SimTime::from_secs(4), NodeId(1), link(1, 2));
        let processed = deployment.run_until(SimTime::from_secs(5));
        assert!(processed > 0);
        deployment.querier.audit(NodeId(1));
        assert!(
            deployment.querier.stats.audits > audits_before,
            "progress must invalidate the cache"
        );
    }

    #[test]
    fn run_for_advances_relative_to_now() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(1));
        assert_eq!(deployment.sim.now(), SimTime::from_secs(1));
        deployment.run_for(SimDuration::from_secs(2));
        assert_eq!(deployment.sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn set_byzantine_invalidates_the_nodes_cached_audit() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        // Warm the cache with a clean audit while the node is still honest.
        assert_eq!(
            deployment.querier.audit(NodeId(1)).color,
            snp_graph::vertex::Color::Black
        );
        // Reconfigure the node without advancing the simulation: the cached
        // Black verdict is stale and must not be served.
        let config = ByzantineConfig {
            tamper_log_drop_entry: Some(0),
            ..Default::default()
        };
        deployment.set_byzantine(NodeId(1), config).expect("node 1 is deployed");
        let audit = deployment.querier.audit(NodeId(1));
        assert_eq!(
            audit.color,
            snp_graph::vertex::Color::Red,
            "stale audit served: {:?}",
            audit.notes
        );
    }

    #[test]
    #[should_panic(expected = "undeployed node")]
    fn byzantine_override_for_unknown_node_panics() {
        let mut config = ByzantineConfig::honest();
        config.refuse_retrieve = true;
        let _ = Deployment::builder().app(Pair).byzantine(NodeId(9), config).build();
    }

    #[test]
    fn setters_reject_undeployed_nodes_with_typed_errors() {
        let mut deployment = Deployment::builder().app(Pair).build();
        let mut config = ByzantineConfig::honest();
        config.refuse_retrieve = true;
        assert_eq!(
            deployment.set_byzantine(NodeId(9), config),
            Err(crate::ConfigError::UndeployedNode {
                id: NodeId(9),
                what: "byzantine config"
            })
        );
        assert_eq!(
            deployment.set_proxy_overhead(NodeId(9), 24),
            Err(crate::ConfigError::UndeployedNode {
                id: NodeId(9),
                what: "proxy overhead"
            })
        );
        // Valid ids still work.
        assert!(deployment.set_proxy_overhead(NodeId(1), 24).is_ok());
    }

    #[test]
    fn try_build_returns_err_for_builder_override_typos() {
        let mut config = ByzantineConfig::honest();
        config.refuse_retrieve = true;
        let result = Deployment::builder().app(Pair).byzantine(NodeId(9), config).try_build();
        assert!(matches!(
            result,
            Err(crate::ConfigError::UndeployedNode { id: NodeId(9), .. })
        ));
    }

    #[test]
    fn malformed_env_overrides_are_rejected_not_ignored() {
        // `env_override` is exercised directly rather than through
        // `std::env::set_var`, which is unsound with the concurrent default
        // test runner.
        std::env::remove_var("SNP_TEST_ABSENT_VAR");
        assert_eq!(env_override::<u64>("SNP_TEST_ABSENT_VAR", "µs").unwrap(), None);
        // `build` wires the real variables through the same helper; a
        // malformed value must produce the clear error, not a silent
        // fallback (the historical `SNP_BATCH_WINDOW=1s` → "batching off").
        std::env::set_var("SNP_TEST_BATCH_WINDOW_COPY", "1s");
        let err = env_override::<u64>("SNP_TEST_BATCH_WINDOW_COPY", "an integer number of microseconds")
            .expect_err("'1s' must be rejected");
        let message = err.to_string();
        assert!(
            message.contains("1s") && message.contains("microseconds"),
            "the error must say what was wrong and what is expected: {message}"
        );
        std::env::set_var("SNP_TEST_BATCH_WINDOW_COPY", " 250000 ");
        assert_eq!(
            env_override::<u64>("SNP_TEST_BATCH_WINDOW_COPY", "µs").unwrap(),
            Some(250_000),
            "surrounding whitespace is tolerated"
        );
        std::env::remove_var("SNP_TEST_BATCH_WINDOW_COPY");
    }

    #[test]
    fn set_batch_window_updates_replay_bound_and_evicts_stale_audits() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        // Warm the cache.
        deployment.querier.audit(NodeId(1));
        let audits_before = deployment.querier.stats.audits;
        // Reconfiguring the batching window widens the missing-ack bound the
        // querier replays with; a cached verdict computed under the old
        // bound must not be served.
        deployment.set_batch_window(250_000);
        assert_eq!(deployment.batch_window_micros(), 250_000);
        for handle in deployment.handles.values() {
            assert_eq!(handle.with(|n| n.batch_window()), 250_000);
        }
        deployment.querier.audit(NodeId(1));
        assert!(
            deployment.querier.stats.audits > audits_before,
            "batch-window change must evict cached audits"
        );
    }

    #[test]
    fn byzantine_and_proxy_overrides_reach_the_nodes() {
        let mut config = ByzantineConfig::honest();
        config.refuse_retrieve = true;
        let deployment = Deployment::builder()
            .app(Pair)
            .byzantine(NodeId(1), config)
            .proxy_overhead(NodeId(2), 24)
            .build();
        assert!(deployment.handles[&NodeId(1)].with(|n| n.byzantine_config().refuse_retrieve));
        assert_eq!(
            deployment.handles[&NodeId(2)].with(|n| n.proxy_overhead_per_message),
            24
        );
    }

    #[test]
    fn proxy_overhead_change_invalidates_the_nodes_cached_audit() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        // Warm the cache.
        deployment.querier.audit(NodeId(1));
        let audits_before = deployment.querier.stats.audits;
        // Reconfiguring the node's proxy overhead changes what a fresh audit
        // observes; the cached audit must not be served.
        deployment
            .set_proxy_overhead(NodeId(1), 24)
            .expect("node 1 is deployed");
        deployment.querier.audit(NodeId(1));
        assert!(
            deployment.querier.stats.audits > audits_before,
            "proxy reconfiguration must evict the cached audit"
        );
    }

    #[test]
    fn query_threads_reach_the_querier() {
        let deployment = Deployment::builder().app(Pair).query_threads(4).build();
        // The environment override takes precedence when set; the test
        // environment does not set it, so the builder value wins.
        if std::env::var("SNP_QUERY_THREADS").is_err() {
            assert_eq!(deployment.querier.query_threads(), 4);
        }
        let default = Deployment::builder().app(Pair).build();
        if std::env::var("SNP_QUERY_THREADS").is_err() {
            assert_eq!(default.querier.query_threads(), 1, "serial by default");
        }
    }

    #[test]
    fn epoch_length_change_invalidates_cached_audits() {
        let mut deployment = Deployment::builder().seed(3).app(Pair).build();
        deployment.run_until(SimTime::from_secs(2));
        // Warm the cache while no epochs are sealed (genesis-anchored).
        deployment.querier.audit(NodeId(1));
        let audits_before = deployment.querier.stats.audits;
        // Reconfiguring the cadence changes which epoch future audits anchor
        // on; serving the stale genesis-keyed entry would be wrong.
        deployment.set_epoch_length(500_000);
        deployment.querier.audit(NodeId(1));
        assert!(
            deployment.querier.stats.audits > audits_before,
            "epoch cadence change must evict cached audits"
        );
    }

    #[test]
    fn retention_change_invalidates_cached_audits() {
        let mut deployment = Deployment::builder()
            .seed(3)
            .app(Pair)
            .epoch_length(SimDuration::from_millis(200))
            .build();
        deployment.run_until(SimTime::from_secs(2));
        deployment.querier.audit(NodeId(1));
        let audits_before = deployment.querier.stats.audits;
        // Changing retention changes which windows an audit can anchor on;
        // the cached verdict must not be served.
        deployment.set_retain_epochs(2);
        deployment.querier.audit(NodeId(1));
        assert!(
            deployment.querier.stats.audits > audits_before,
            "retention change must evict cached audits"
        );
    }

    #[test]
    #[should_panic(expected = "retain_epochs without epoch_length")]
    fn retention_without_a_cadence_panics() {
        let _ = Deployment::builder().app(Pair).retain_epochs(2).build();
    }

    #[test]
    fn epoch_length_and_retention_reach_every_node() {
        let mut deployment = Deployment::builder()
            .seed(3)
            .app(Pair)
            .epoch_length(SimDuration::from_millis(200))
            .retain_epochs(2)
            .build();
        deployment.run_until(SimTime::from_secs(2));
        for handle in deployment.handles.values() {
            let epochs = handle.with(|n| n.current_epoch());
            assert!(epochs >= 3, "epochs must roll on the configured cadence");
            let retained: u64 = handle.with(|n| n.log_len() as u64);
            let appended = handle.with(|n| n.log_total_appended());
            let dropped = handle.with(|n| n.log_dropped_entries());
            assert_eq!(retained + dropped, appended);
        }
    }
}
