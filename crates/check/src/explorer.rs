//! The bounded explicit-state explorer.
//!
//! A deployment under check is a labeled transition system: states are full
//! deployment snapshots (node state + in-flight messages + logs), transitions
//! are [`Choice`]s (fire one enabled event, or drop one pending adversary
//! injection).  The explorer performs a depth-first search over all
//! interleavings the simulator's FIFO/slack/horizon rules allow, deduplicates
//! visited states by [`fingerprint`], and asserts the §4.3 evidence
//! invariants at every terminal state: *accuracy* (no clean node ever gets a
//! red vertex) machine-wide, plus scenario-specific *completeness* probes
//! (every detectable fault yields red evidence or a yellow suspect).
//!
//! Because node state is not clonable (logs hold signing keys, machines are
//! trait objects), backtracking is replay-based: each explored edge rebuilds
//! the scenario and replays the choice prefix.  Replay is cheap — scenarios
//! are 3–4 nodes and tens of events deep — and exact, because every source of
//! nondeterminism is seeded and event sequence numbers are allocated
//! deterministically.

use crate::schedule::{Choice, Schedule};
use snp_core::properties::check_accuracy;
use snp_core::{AdversaryAction, Deployment, NodeId, SnoopyWire};
use snp_crypto::Digest;
use snp_graph::vertex::Color;
use snp_graph::ProvenanceGraph;
use snp_sim::event::EventKind;
use snp_sim::{PendingEvent, PendingKind, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A model-checkable scenario: how to build the deployment, which adversary
/// actions to schedule, and what to assert at terminal states.
pub trait Scenario {
    /// Stable name, used in schedules and reports.
    fn name(&self) -> &'static str;

    /// Build a fresh deployment with the full workload scheduled and every
    /// node honest.  Must be deterministic: the network model must use fixed
    /// delays, zero clock skew and zero drop probability, so that replaying
    /// a choice prefix reproduces the state exactly (see [`fingerprint`]).
    fn build(&self) -> Deployment;

    /// Adversary actions to inject as schedulable transitions:
    /// `(earliest_at, target, action)`.  Each becomes a pending event the
    /// checker may fire at any explored instant — or drop entirely.
    fn adversary(&self) -> Vec<(SimTime, NodeId, AdversaryAction)>;

    /// Nodes that are Byzantine regardless of adversary actions (nodes whose
    /// *machine* is corrupt, e.g. an Eclipse attacker).
    fn static_byzantine(&self) -> BTreeSet<NodeId> {
        BTreeSet::new()
    }

    /// Exploration bound in virtual time; events after this instant are
    /// never fired (periodic timers re-arm forever, so a cutoff is needed).
    fn horizon(&self) -> SimTime;

    /// Scenario-specific completeness probes, run at every terminal state
    /// after the machine-wide accuracy invariant.  `fired` lists the
    /// adversary actions delivered in this execution, `byzantine` the full
    /// Byzantine set (static plus fired targets).
    fn check_terminal(
        &self,
        deployment: &mut Deployment,
        fired: &[(NodeId, AdversaryAction)],
        byzantine: &BTreeSet<NodeId>,
    ) -> Result<(), Flaw>;
}

/// An invariant violation observed at a terminal state.
#[derive(Debug)]
pub struct Flaw {
    /// What went wrong.
    pub message: String,
    /// The provenance graph exhibiting the violation, if one was in hand
    /// (boxed: a flaw travels as the `Err` of every invariant check).
    pub graph: Option<Box<ProvenanceGraph>>,
}

impl Flaw {
    /// A flaw without an attached graph.
    pub fn new(message: impl Into<String>) -> Flaw {
        Flaw {
            message: message.into(),
            graph: None,
        }
    }
}

/// Highest pseudo-sender id for injected adversary events; action `i` is
/// injected from `NodeId(ADVERSARY_BASE - i)`.  Distinct per-action senders
/// give every injection its own FIFO class, so adversary events interleave
/// freely with each other and with operator commands.  `u64::MAX` itself is
/// the operator pseudo-node.
pub const ADVERSARY_BASE: u64 = u64::MAX - 1;

/// A scenario instance mid-exploration: the live deployment plus the map
/// from injected-event sequence numbers to the adversary actions they carry.
pub struct Instance {
    /// The deployment being driven.
    pub deployment: Deployment,
    /// Queue seq → (target, action) for every injected adversary event.
    pub adversary_seqs: BTreeMap<u64, (NodeId, AdversaryAction)>,
    horizon: SimTime,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("adversary_seqs", &self.adversary_seqs)
            .field("horizon", &self.horizon)
            .finish_non_exhaustive()
    }
}

/// Build a fresh instance of a scenario: deployment, injected adversary
/// events, and their recovered sequence numbers.
pub fn instantiate(scenario: &dyn Scenario) -> Instance {
    let mut deployment = scenario.build();
    let actions = scenario.adversary();
    for (index, (at, target, action)) in actions.iter().enumerate() {
        let from = NodeId(ADVERSARY_BASE - index as u64);
        deployment
            .sim
            .inject_message(*at, from, *target, SnoopyWire::Adversary { action: action.clone() });
    }
    // Recover the queue seqs of the injections.  Pseudo-senders are unique
    // per action, so the sender id identifies the action.  This also
    // schedules the start events, so the initial fingerprint is complete.
    let mut adversary_seqs = BTreeMap::new();
    for event in deployment.sim.pending_iter() {
        if let PendingKind::Deliver { from, .. } = event.kind {
            // `try_from` (not `as`) so an out-of-range id can never truncate
            // into a valid index on 32-bit targets.
            if let Some((_, target, action)) = usize::try_from(ADVERSARY_BASE.wrapping_sub(from.0))
                .ok()
                .and_then(|index| actions.get(index))
            {
                adversary_seqs.insert(event.seq, (*target, action.clone()));
            }
        }
    }
    Instance {
        deployment,
        adversary_seqs,
        horizon: scenario.horizon(),
    }
}

impl Instance {
    /// The transitions the checker may take next (empty ⇒ terminal).
    ///
    /// The network model promises delivery within `t_prop`, and the §5.4
    /// detectors (ack deadlines, maintainer notifications) rely on it — an
    /// execution where an honest message arrives late is *outside the
    /// model*, and the auditor rightly produces red evidence on it.  So the
    /// checker must never fire an event in a way that advances the clock
    /// past another pending protocol event's arrival time.  Concretely:
    ///
    /// * protocol events fire in nondecreasing arrival order — only the
    ///   earliest-arriving ones are enabled, and simultaneous arrivals in
    ///   different FIFO classes may fire in any order;
    /// * injected adversary events are not network messages: one may fire
    ///   at *any* explored point at-or-after its earliest time (the knob
    ///   flips at the current clock), or be dropped.  This is what sweeps
    ///   the Byzantine action timing across the execution.
    pub fn enabled(&mut self) -> Vec<PendingEvent> {
        // Stream the queue's ordered cursor and filter while walking it, so
        // each probe touches only the horizon's prefix bookkeeping instead of
        // cloning and sorting the entire queue (the old `events()` cost).
        let horizon = self.horizon;
        let pending: Vec<PendingEvent> = self.deployment.sim.pending_iter().filter(|e| e.at <= horizon).collect();
        let min_protocol = pending
            .iter()
            .filter(|e| !self.adversary_seqs.contains_key(&e.seq))
            .map(|e| e.at)
            .min();
        let mut taken_classes = BTreeSet::new();
        let mut out = Vec::new();
        for event in pending {
            let adversary = self.adversary_seqs.contains_key(&event.seq);
            let enabled = match min_protocol {
                Some(min_at) if adversary => event.at <= min_at,
                Some(min_at) => event.at == min_at,
                None => adversary,
            };
            if enabled && taken_classes.insert(event.class()) {
                out.push(event);
            }
        }
        out
    }

    /// Apply one choice.  Dropping is only legal for adversary injections —
    /// real protocol messages are never lost in the checked network model.
    pub fn apply(&mut self, choice: Choice) -> Result<(), String> {
        match choice {
            Choice::Deliver(seq) => {
                if self.deployment.sim.step(seq) {
                    Ok(())
                } else {
                    Err(format!("no pending event with seq {seq}"))
                }
            }
            Choice::Drop(seq) => {
                if !self.adversary_seqs.contains_key(&seq) {
                    return Err(format!(
                        "seq {seq} is not an adversary event; only those may be dropped"
                    ));
                }
                if self.deployment.sim.drop_event(seq) {
                    Ok(())
                } else {
                    Err(format!("adversary event {seq} is no longer pending"))
                }
            }
        }
    }

    /// The current state fingerprint.
    pub fn fingerprint(&self) -> Digest {
        fingerprint(&self.deployment)
    }

    /// The adversary actions delivered by a choice prefix.
    pub fn fired(&self, prefix: &[Choice]) -> Vec<(NodeId, AdversaryAction)> {
        prefix
            .iter()
            .filter_map(|choice| match choice {
                Choice::Deliver(seq) => self.adversary_seqs.get(seq).cloned(),
                Choice::Drop(_) => None,
            })
            .collect()
    }

    /// The full Byzantine set of an execution: statically corrupt machines
    /// plus every node an adversary action was delivered to.
    pub fn byzantine_set(&self, scenario: &dyn Scenario, fired: &[(NodeId, AdversaryAction)]) -> BTreeSet<NodeId> {
        let mut byz = scenario.static_byzantine();
        byz.extend(fired.iter().map(|(node, _)| *node));
        byz
    }
}

fn event_class(kind: &EventKind<SnoopyWire>) -> (u8, u64, u64) {
    match kind {
        EventKind::Deliver { from, to, .. } => (0, from.0, to.0),
        EventKind::Timer { node, id } => (1, node.0, id.0),
        EventKind::Start { node } => (2, node.0, 0),
    }
}

/// A deterministic digest of the whole deployment state: global clock, every
/// node's [`fingerprint`](snp_core::SnoopyNode::fingerprint), and every
/// in-flight event in canonical per-FIFO-class order.
///
/// Event sequence numbers are deliberately excluded: two executions that
/// reach the same protocol state through different interleavings would hold
/// different seqs for identical pending events, and the whole point of the
/// fingerprint is to merge exactly those states.  Soundness rests on the
/// checked scenarios using fixed-delay, zero-skew, zero-drop networks — the
/// simulator then consumes no RNG after setup, so no hidden RNG state can
/// make two equal-fingerprint states diverge later.
pub fn fingerprint(deployment: &Deployment) -> Digest {
    use std::fmt::Write as _;
    let mut buf = String::new();
    let _ = write!(buf, "now={};", deployment.sim.now().as_micros());
    for (id, handle) in &deployment.handles {
        let _ = write!(buf, "n{}={};", id.0, handle.with(|n| n.fingerprint()).to_hex());
        if deployment.sim.is_halted(*id) {
            buf.push_str("halted;");
        }
    }
    // The cursor already yields (at, seq) order; the stable per-class re-sort
    // over a presorted sequence is near-linear and keeps the digest text
    // byte-identical to the pre-wheel fingerprints.
    let mut events: Vec<_> = deployment.sim.queue_iter().collect();
    events.sort_by_key(|e| (e.at, event_class(&e.kind), e.seq));
    for event in events {
        let _ = write!(buf, "[{}:{:?}]", event.at.as_micros(), event.kind);
    }
    snp_crypto::hash(buf.as_bytes())
}

/// Replay a schedule against a fresh scenario instance, returning the state
/// fingerprint of the initial state and after every applied choice.
pub fn replay_fingerprints(scenario: &dyn Scenario, schedule: &Schedule) -> Result<Vec<Digest>, String> {
    let mut inst = instantiate(scenario);
    let mut out = vec![inst.fingerprint()];
    for choice in &schedule.choices {
        inst.apply(*choice)?;
        out.push(inst.fingerprint());
    }
    Ok(out)
}

/// The deterministic "default completion" from the empty prefix: always fire
/// the first enabled choice until the run is terminal.  Every adversary
/// action fires on this path (never drops), so the result doubles as a
/// maximal-misbehaviour witness schedule.
pub fn witness_schedule(scenario: &dyn Scenario) -> Schedule {
    let mut inst = instantiate(scenario);
    let mut choices = Vec::new();
    // Generous cap: a witness longer than this means a runaway scenario.
    while choices.len() < 4096 {
        let enabled = inst.enabled();
        let Some(first) = enabled.first() else { break };
        let choice = Choice::Deliver(first.seq);
        inst.apply(choice).expect("first enabled choice applies");
        choices.push(choice);
    }
    Schedule {
        scenario: scenario.name().to_string(),
        choices,
    }
}

/// Machine-wide §4.3 invariants at a terminal state: every node is audited
/// (a clean node must not audit red), every node's provenance graph passes
/// `check_accuracy`, then the scenario's own completeness probes run.
pub fn check_invariants(
    scenario: &dyn Scenario,
    inst: &mut Instance,
    fired: &[(NodeId, AdversaryAction)],
    byzantine: &BTreeSet<NodeId>,
) -> Result<(), Flaw> {
    let deployment = &mut inst.deployment;
    let nodes: Vec<NodeId> = deployment.handles.keys().copied().collect();
    for node in nodes {
        let audit = deployment.querier.audit(node);
        if audit.color == Color::Red && !byzantine.contains(&node) {
            return Err(Flaw {
                message: format!("accuracy: clean node {node} audits red ({})", audit.notes.join("; ")),
                graph: Some(Box::new(deployment.querier.node_graph(node))),
            });
        }
        let graph = deployment.querier.node_graph(node);
        if let Err(err) = check_accuracy(&graph, byzantine) {
            return Err(Flaw {
                message: format!("accuracy at node {node}: {err}"),
                graph: Some(Box::new(graph)),
            });
        }
    }
    scenario.check_terminal(deployment, fired, byzantine)
}

/// A minimized, replayable counterexample.
#[derive(Debug)]
pub struct Counterexample {
    /// The violated invariant.
    pub message: String,
    /// The shortest schedule found that still violates it.
    pub schedule: Schedule,
    /// DOT rendering of the offending provenance graph, if one was attached.
    pub dot: Option<String>,
}

/// Exploration statistics and outcome for one scenario.
#[derive(Debug)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Deduplicated states visited (including the initial state).
    pub states: usize,
    /// Terminal states on which the invariants were checked.
    pub terminals: usize,
    /// Transitions examined (explored edges, including duplicates).
    pub transitions: usize,
    /// Edges leading to an already-visited state.
    pub dedup_hits: usize,
    /// Paths cut off by the depth limit before reaching a terminal state.
    pub truncated: usize,
    /// Deepest prefix reached.
    pub max_depth_seen: usize,
    /// The configured depth limit.
    pub depth_limit: usize,
    /// Whether the state cap stopped exploration early.
    pub capped: bool,
    /// The first invariant violation found, minimized — `None` means every
    /// explored terminal state satisfied the invariants.
    pub counterexample: Option<Counterexample>,
}

/// Depth-first model checker for one scenario.
#[derive(Debug)]
pub struct Explorer<'a> {
    scenario: &'a dyn Scenario,
    depth_limit: usize,
    max_states: usize,
    visited: BTreeSet<Digest>,
    report: Report,
}

impl std::fmt::Debug for dyn Scenario + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scenario({})", self.name())
    }
}

impl<'a> Explorer<'a> {
    /// A checker for `scenario` exploring schedules up to `depth_limit`
    /// choices long.
    pub fn new(scenario: &'a dyn Scenario, depth_limit: usize) -> Explorer<'a> {
        Explorer {
            scenario,
            depth_limit,
            max_states: usize::MAX,
            visited: BTreeSet::new(),
            report: Report {
                scenario: scenario.name().to_string(),
                states: 0,
                terminals: 0,
                transitions: 0,
                dedup_hits: 0,
                truncated: 0,
                max_depth_seen: 0,
                depth_limit,
                capped: false,
                counterexample: None,
            },
        }
    }

    /// Stop exploring after this many deduplicated states (safety valve for
    /// smoke runs).
    pub fn max_states(mut self, cap: usize) -> Explorer<'a> {
        self.max_states = cap;
        self
    }

    /// Run the search to completion (or to the caps) and report.
    pub fn run(mut self) -> Report {
        let root = instantiate(self.scenario);
        self.visited.insert(root.fingerprint());
        self.report.states = 1;
        let mut prefix = Vec::new();
        self.report.counterexample = self.dfs(root, &mut prefix);
        self.report
    }

    fn dfs(&mut self, mut inst: Instance, prefix: &mut Vec<Choice>) -> Option<Counterexample> {
        self.report.max_depth_seen = self.report.max_depth_seen.max(prefix.len());
        let enabled = inst.enabled();
        if enabled.is_empty() {
            self.report.terminals += 1;
            let fired = inst.fired(prefix);
            let byzantine = inst.byzantine_set(self.scenario, &fired);
            if let Err(flaw) = check_invariants(self.scenario, &mut inst, &fired, &byzantine) {
                return Some(self.counterexample(prefix.clone(), flaw));
            }
            return None;
        }
        if prefix.len() >= self.depth_limit {
            self.report.truncated += 1;
            return None;
        }
        let mut choices: Vec<Choice> = enabled.iter().map(|e| Choice::Deliver(e.seq)).collect();
        for event in &enabled {
            if inst.adversary_seqs.contains_key(&event.seq) {
                choices.push(Choice::Drop(event.seq));
            }
        }
        drop(inst);
        for choice in choices {
            if self.report.states >= self.max_states {
                self.report.capped = true;
                return None;
            }
            self.report.transitions += 1;
            let mut child = self.replay(prefix);
            child.apply(choice).expect("enabled choice must apply on replay");
            let fp = child.fingerprint();
            if !self.visited.insert(fp) {
                self.report.dedup_hits += 1;
                continue;
            }
            self.report.states += 1;
            prefix.push(choice);
            let hit = self.dfs(child, prefix);
            prefix.pop();
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    fn replay(&self, prefix: &[Choice]) -> Instance {
        let mut inst = instantiate(self.scenario);
        for choice in prefix {
            inst.apply(*choice).expect("replaying a prefix that applied before");
        }
        inst
    }

    /// Shrink a violating schedule: find the shortest prefix whose
    /// deterministic default completion still violates an invariant, and
    /// return that completed schedule.  The violation may legitimately change
    /// during shrinking; whichever flaw the minimal schedule exhibits is the
    /// one reported.
    fn counterexample(&mut self, full: Vec<Choice>, flaw: Flaw) -> Counterexample {
        let mut best = (full, flaw);
        for k in 0..best.0.len() {
            let candidate = self.complete_default(&best.0[..k]);
            if let Some(found) = self.violation_of(&candidate) {
                best = (candidate, found);
                break;
            }
        }
        let (choices, flaw) = best;
        Counterexample {
            message: flaw.message,
            dot: flaw.graph.as_deref().map(crate::dot::render),
            schedule: Schedule {
                scenario: self.scenario.name().to_string(),
                choices,
            },
        }
    }

    fn complete_default(&self, prefix: &[Choice]) -> Vec<Choice> {
        let mut inst = self.replay(prefix);
        let mut out = prefix.to_vec();
        while out.len() < 4096 {
            let enabled = inst.enabled();
            let Some(first) = enabled.first() else { break };
            let choice = Choice::Deliver(first.seq);
            inst.apply(choice).expect("first enabled choice applies");
            out.push(choice);
        }
        out
    }

    fn violation_of(&self, choices: &[Choice]) -> Option<Flaw> {
        let mut inst = self.replay(choices);
        if !inst.enabled().is_empty() {
            // Not terminal (default completion hit its cap): don't judge.
            return None;
        }
        let fired = inst.fired(choices);
        let byzantine = inst.byzantine_set(self.scenario, &fired);
        check_invariants(self.scenario, &mut inst, &fired, &byzantine).err()
    }
}
