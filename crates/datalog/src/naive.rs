//! The retained naive-scan reference engine.
//!
//! This is the pre-index implementation of [`crate::engine::Engine`],
//! preserved verbatim: `join_rest` / `derivations_for` / `refresh_aggregate`
//! walk the entire flat `BTreeMap<Tuple, Support>` store per body atom per
//! trigger, making rule firing O(store × body).
//!
//! It exists for two reasons and must not be "improved":
//!
//! * **Differential oracle** — the indexed engine's outputs, stored tuples
//!   and snapshot bytes are asserted identical to this engine's across
//!   randomized workloads and every benchmark scenario (the index rewrite
//!   must be observationally invisible).
//! * **Benchmark baseline** — `BENCH_datalog.json` reports the indexed
//!   engine's speedup over this implementation, and `bench_gate` enforces a
//!   floor on that ratio.
//!
//! The snapshot codec is shared with the indexed engine byte-for-byte, so a
//! state built on either engine restores into the other.

use crate::analysis::ProgramError;
use crate::engine::RuleSet;
use crate::machine::{Polarity, SmInput, SmOutput, StateMachine, TupleDelta};
use crate::rule::{AggKind, Bindings, Rule};
use crate::snapshot::{SnapshotReader, SnapshotWriter, MIN_TUPLE_LEN};
use crate::tuple::Tuple;
use crate::value::Value;
use snp_crypto::keys::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A recorded derivation: `head` was derived via `rule` from `body`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Derivation {
    rule: String,
    head: Tuple,
    body: Vec<Tuple>,
}

/// Why a tuple is present on the node.
#[derive(Clone, Debug, Default)]
struct Support {
    base_count: u32,
    derivation_count: u32,
    /// Believed copies per sender.
    believed: BTreeMap<NodeId, u32>,
}

impl Support {
    fn total(&self) -> u32 {
        self.base_count + self.derivation_count + self.believed.values().sum::<u32>()
    }
}

/// A change propagated through the work list.
#[derive(Clone, Debug)]
enum Change {
    Appeared(Tuple),
    Disappeared(Tuple),
}

/// The naive-scan incremental evaluation engine for one node (reference
/// implementation; see the module docs).
#[derive(Debug)]
pub struct NaiveEngine {
    node: NodeId,
    ruleset: RuleSet,
    /// Support for every tuple currently present at this node.
    store: BTreeMap<Tuple, Support>,
    /// All recorded derivations made at this node, keyed by head.
    derivations: BTreeMap<Tuple, BTreeSet<Derivation>>,
    /// Reverse index: body tuple → derivations that use it.
    deps: BTreeMap<Tuple, BTreeSet<Derivation>>,
    /// For each aggregation rule id, the currently derived heads and the body
    /// tuple that justifies each.
    agg_current: BTreeMap<String, BTreeMap<Tuple, Tuple>>,
}

impl NaiveEngine {
    /// Create a naive engine for `node` running `ruleset`.
    pub fn new(node: NodeId, ruleset: RuleSet) -> NaiveEngine {
        NaiveEngine {
            node,
            ruleset,
            store: BTreeMap::new(),
            derivations: BTreeMap::new(),
            deps: BTreeMap::new(),
            agg_current: BTreeMap::new(),
        }
    }

    /// The node this engine runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether a tuple is currently present on this node.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.store.get(tuple).map(|s| s.total() > 0).unwrap_or(false)
    }

    /// All present tuples of a relation (full-store scan, by design).
    pub fn tuples_of(&self, relation: &str) -> Vec<Tuple> {
        self.store
            .iter()
            .filter(|(t, s)| t.relation == relation && s.total() > 0)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// Restore a snapshot into a concrete `NaiveEngine` (the trait method
    /// type-erases; benchmarks need the concrete type to time the scan path).
    pub fn restore_concrete(&self, snapshot: &[u8]) -> Result<NaiveEngine, String> {
        let mut r = SnapshotReader::new(snapshot);
        let mut engine = NaiveEngine::new(self.node, self.ruleset.clone());
        (|| {
            let stores = r.read_len()?;
            for _ in 0..stores {
                let tuple = r.tuple()?;
                let mut support = Support {
                    base_count: r.u32()?,
                    derivation_count: r.u32()?,
                    believed: BTreeMap::new(),
                };
                let peers = r.read_len()?;
                for _ in 0..peers {
                    let peer = r.node()?;
                    support.believed.insert(peer, r.u32()?);
                }
                engine.store.insert(tuple, support);
            }
            let derivation_count = r.read_len()?;
            for _ in 0..derivation_count {
                let rule = r.str()?;
                let head = r.tuple()?;
                let body_len = r.read_len()?;
                let mut body = r.vec_for(body_len, MIN_TUPLE_LEN);
                for _ in 0..body_len {
                    body.push(r.tuple()?);
                }
                let derivation = Derivation { rule, head, body };
                for body_tuple in &derivation.body {
                    engine
                        .deps
                        .entry(body_tuple.clone())
                        .or_default()
                        .insert(derivation.clone());
                }
                engine
                    .derivations
                    .entry(derivation.head.clone())
                    .or_default()
                    .insert(derivation);
            }
            let agg_rules = r.read_len()?;
            for _ in 0..agg_rules {
                let rule_id = r.str()?;
                let heads = r.read_len()?;
                let entry = engine.agg_current.entry(rule_id).or_default();
                for _ in 0..heads {
                    let head = r.tuple()?;
                    let witness = r.tuple()?;
                    entry.insert(head, witness);
                }
            }
            r.expect_exhausted()
        })()
        .map_err(|e| e.to_string())?;
        Ok(engine)
    }

    /// Add one rule to the running engine — the naive mirror of
    /// [`crate::engine::Engine::add_rule`], kept in lockstep for the
    /// differential tests: same typed rejection, same seeded derivations
    /// (sorted and deduplicated), same propagation.
    pub fn add_rule(&mut self, rule: Rule) -> Result<Vec<SmOutput>, ProgramError> {
        let localized = self.ruleset.add_rule(rule)?;
        let mut outputs = Vec::new();
        let mut worklist = VecDeque::new();
        if localized.aggregate.is_some() {
            self.refresh_aggregate(&localized, &mut outputs, &mut worklist);
        } else {
            let mut found = Vec::new();
            for (mut complete, matched) in self.join_rest(&localized, localized.body.len(), Bindings::new()) {
                if !localized.constraints.iter().all(|c| c.apply(&mut complete)) {
                    continue;
                }
                let Some(head) = localized.head.instantiate(&complete) else {
                    continue;
                };
                let body: Vec<Tuple> = matched.into_iter().map(|t| t.expect("all positions matched")).collect();
                found.push(Derivation {
                    rule: localized.id.clone(),
                    head,
                    body,
                });
            }
            found.sort();
            found.dedup();
            for derivation in found {
                self.record_derivation(derivation, &mut outputs, &mut worklist);
            }
        }
        outputs.extend(self.process(worklist));
        Ok(outputs)
    }

    // ----- support management -------------------------------------------------

    fn add_support(&mut self, tuple: &Tuple, f: impl FnOnce(&mut Support)) -> bool {
        let entry = self.store.entry(tuple.clone()).or_default();
        let was_absent = entry.total() == 0;
        f(entry);
        was_absent && entry.total() > 0
    }

    fn remove_support(&mut self, tuple: &Tuple, f: impl FnOnce(&mut Support)) -> bool {
        let Some(entry) = self.store.get_mut(tuple) else {
            return false;
        };
        let was_present = entry.total() > 0;
        f(entry);
        let now_absent = entry.total() == 0;
        if now_absent {
            self.store.remove(tuple);
        }
        was_present && now_absent
    }

    // ----- rule evaluation ----------------------------------------------------

    /// Join the remaining body atoms (all except `skip_index`) by scanning
    /// the whole store per atom — the O(store × body) hot loop the indexed
    /// engine replaces.
    fn join_rest(&self, rule: &Rule, skip_index: usize, bindings: Bindings) -> Vec<(Bindings, Vec<Option<Tuple>>)> {
        let mut partials: Vec<(Bindings, Vec<Option<Tuple>>)> = vec![(bindings, vec![None; rule.body.len()])];
        for (i, atom) in rule.body.iter().enumerate() {
            if i == skip_index {
                continue;
            }
            let mut next = Vec::new();
            for (bound, matched) in &partials {
                for (candidate, support) in &self.store {
                    // Rule bodies only see tuples homed at this node (NDlog
                    // localization).
                    if support.total() == 0 || candidate.relation != atom.relation || candidate.location != self.node {
                        continue;
                    }
                    let mut extended = bound.clone();
                    if atom.matches(candidate, &mut extended) {
                        let mut matched = matched.clone();
                        matched[i] = Some(candidate.clone());
                        next.push((extended, matched));
                    }
                }
            }
            partials = next;
            if partials.is_empty() {
                break;
            }
        }
        partials
    }

    /// Find all new derivations triggered by the appearance of `trigger`.
    fn derivations_for(&self, trigger: &Tuple) -> Vec<Derivation> {
        let mut found = Vec::new();
        if trigger.location != self.node {
            return found;
        }
        for rule in self.ruleset.rules() {
            if rule.aggregate.is_some() {
                continue;
            }
            for (i, atom) in rule.body.iter().enumerate() {
                if atom.relation != trigger.relation {
                    continue;
                }
                let mut bindings = Bindings::new();
                if !atom.matches(trigger, &mut bindings) {
                    continue;
                }
                for (mut complete, mut matched) in self.join_rest(rule, i, bindings) {
                    matched[i] = Some(trigger.clone());
                    if !rule.constraints.iter().all(|c| c.apply(&mut complete)) {
                        continue;
                    }
                    let Some(head) = rule.head.instantiate(&complete) else {
                        continue;
                    };
                    let body: Vec<Tuple> = matched.into_iter().map(|t| t.expect("all positions matched")).collect();
                    found.push(Derivation {
                        rule: rule.id.clone(),
                        head,
                        body,
                    });
                }
            }
        }
        found.sort();
        found.dedup();
        found
    }

    fn record_derivation(
        &mut self,
        derivation: Derivation,
        outputs: &mut Vec<SmOutput>,
        worklist: &mut VecDeque<Change>,
    ) {
        let entry = self.derivations.entry(derivation.head.clone()).or_default();
        if !entry.insert(derivation.clone()) {
            return; // already known
        }
        for body_tuple in &derivation.body {
            self.deps
                .entry(body_tuple.clone())
                .or_default()
                .insert(derivation.clone());
        }
        let appeared = self.add_support(&derivation.head, |s| s.derivation_count += 1);
        if appeared {
            outputs.push(SmOutput::Derive {
                tuple: derivation.head.clone(),
                rule: derivation.rule.clone(),
                body: derivation.body.clone(),
            });
            if derivation.head.location != self.node {
                outputs.push(SmOutput::Send {
                    to: derivation.head.location,
                    delta: TupleDelta::plus(derivation.head.clone()),
                });
            }
            worklist.push_back(Change::Appeared(derivation.head.clone()));
        }
    }

    fn retract_derivation(
        &mut self,
        derivation: &Derivation,
        outputs: &mut Vec<SmOutput>,
        worklist: &mut VecDeque<Change>,
    ) {
        let Some(entry) = self.derivations.get_mut(&derivation.head) else {
            return;
        };
        if !entry.remove(derivation) {
            return;
        }
        if entry.is_empty() {
            self.derivations.remove(&derivation.head);
        }
        for body_tuple in &derivation.body {
            if let Some(set) = self.deps.get_mut(body_tuple) {
                set.remove(derivation);
                if set.is_empty() {
                    self.deps.remove(body_tuple);
                }
            }
        }
        let disappeared = self.remove_support(&derivation.head, |s| {
            s.derivation_count = s.derivation_count.saturating_sub(1)
        });
        if disappeared {
            outputs.push(SmOutput::Underive {
                tuple: derivation.head.clone(),
                rule: derivation.rule.clone(),
                body: derivation.body.clone(),
            });
            if derivation.head.location != self.node {
                outputs.push(SmOutput::Send {
                    to: derivation.head.location,
                    delta: TupleDelta::minus(derivation.head.clone()),
                });
            }
            worklist.push_back(Change::Disappeared(derivation.head.clone()));
        }
    }

    /// Recompute an aggregation rule after its body relation changed
    /// (full-store scan, by design).
    fn refresh_aggregate(&mut self, rule: &Rule, outputs: &mut Vec<SmOutput>, worklist: &mut VecDeque<Change>) {
        let (kind, agg_var) = rule.aggregate.clone().expect("aggregate rule");
        let body_atom = &rule.body[0];

        let mut groups: BTreeMap<Tuple, (i64, Tuple, i64)> = BTreeMap::new();
        for (candidate, support) in &self.store {
            if support.total() == 0 || candidate.relation != body_atom.relation || candidate.location != self.node {
                continue;
            }
            let mut bindings = Bindings::new();
            if !body_atom.matches(candidate, &mut bindings) {
                continue;
            }
            if !rule.constraints.iter().all(|c| c.apply(&mut bindings)) {
                continue;
            }
            let Some(agg_value) = bindings.get(&agg_var).and_then(Value::as_int) else {
                continue;
            };
            let mut group_bindings = bindings.clone();
            group_bindings.insert(agg_var.clone(), Value::Int(0));
            let Some(group_key) = rule.head.instantiate(&group_bindings) else {
                continue;
            };
            let entry = groups.entry(group_key).or_insert((agg_value, candidate.clone(), 0));
            entry.2 += 1;
            let better = match kind {
                AggKind::Min => agg_value < entry.0 || (agg_value == entry.0 && *candidate < entry.1),
                AggKind::Max => agg_value > entry.0 || (agg_value == entry.0 && *candidate < entry.1),
                AggKind::Count => false,
            };
            if better {
                entry.0 = agg_value;
                entry.1 = candidate.clone();
            }
        }

        let mut new_heads: BTreeMap<Tuple, Tuple> = BTreeMap::new();
        for (group_key, (value, witness, count)) in groups {
            let mut head = group_key;
            let agg_result = match kind {
                AggKind::Min | AggKind::Max => value,
                AggKind::Count => count,
            };
            if let Some(last) = head.args.last_mut() {
                *last = Value::Int(agg_result);
            }
            new_heads.insert(head, witness);
        }

        let current = self.agg_current.entry(rule.id.clone()).or_default().clone();

        for (head, witness) in &current {
            if !new_heads.contains_key(head) {
                self.agg_current.get_mut(&rule.id).expect("entry exists").remove(head);
                let disappeared =
                    self.remove_support(head, |s| s.derivation_count = s.derivation_count.saturating_sub(1));
                if disappeared {
                    outputs.push(SmOutput::Underive {
                        tuple: head.clone(),
                        rule: rule.id.clone(),
                        body: vec![witness.clone()],
                    });
                    worklist.push_back(Change::Disappeared(head.clone()));
                }
            }
        }
        for (head, witness) in new_heads {
            if !current.contains_key(&head) {
                self.agg_current
                    .get_mut(&rule.id)
                    .expect("entry exists")
                    .insert(head.clone(), witness.clone());
                let appeared = self.add_support(&head, |s| s.derivation_count += 1);
                if appeared {
                    outputs.push(SmOutput::Derive {
                        tuple: head.clone(),
                        rule: rule.id.clone(),
                        body: vec![witness],
                    });
                    worklist.push_back(Change::Appeared(head));
                }
            }
        }
    }

    fn process(&mut self, mut worklist: VecDeque<Change>) -> Vec<SmOutput> {
        let mut outputs = Vec::new();
        let mut steps = 0usize;
        while let Some(change) = worklist.pop_front() {
            steps += 1;
            assert!(
                steps < 100_000,
                "derivation propagation did not terminate; check rules for cycles"
            );
            match change {
                Change::Appeared(tuple) => {
                    for derivation in self.derivations_for(&tuple) {
                        self.record_derivation(derivation, &mut outputs, &mut worklist);
                    }
                    let agg_rules: Vec<Rule> = self
                        .ruleset
                        .rules()
                        .iter()
                        .filter(|r| r.aggregate.is_some() && r.body[0].relation == tuple.relation)
                        .cloned()
                        .collect();
                    for rule in agg_rules {
                        self.refresh_aggregate(&rule, &mut outputs, &mut worklist);
                    }
                }
                Change::Disappeared(tuple) => {
                    let dependent: Vec<Derivation> = self
                        .deps
                        .get(&tuple)
                        .map(|s| s.iter().cloned().collect())
                        .unwrap_or_default();
                    for derivation in dependent {
                        self.retract_derivation(&derivation, &mut outputs, &mut worklist);
                    }
                    let agg_rules: Vec<Rule> = self
                        .ruleset
                        .rules()
                        .iter()
                        .filter(|r| r.aggregate.is_some() && r.body[0].relation == tuple.relation)
                        .cloned()
                        .collect();
                    for rule in agg_rules {
                        self.refresh_aggregate(&rule, &mut outputs, &mut worklist);
                    }
                }
            }
        }
        outputs
    }
}

impl StateMachine for NaiveEngine {
    fn handle(&mut self, input: SmInput) -> Vec<SmOutput> {
        let mut worklist = VecDeque::new();
        match input {
            SmInput::InsertBase(tuple) => {
                if self.add_support(&tuple, |s| s.base_count += 1) {
                    worklist.push_back(Change::Appeared(tuple));
                }
            }
            SmInput::DeleteBase(tuple) => {
                if self.remove_support(&tuple, |s| s.base_count = s.base_count.saturating_sub(1)) {
                    worklist.push_back(Change::Disappeared(tuple));
                }
            }
            SmInput::Receive { from, delta } => match delta.polarity {
                Polarity::Plus => {
                    if self.add_support(&delta.tuple, |s| *s.believed.entry(from).or_default() += 1) {
                        worklist.push_back(Change::Appeared(delta.tuple));
                    }
                }
                Polarity::Minus => {
                    if self.remove_support(&delta.tuple, |s| {
                        if let Some(count) = s.believed.get_mut(&from) {
                            *count = count.saturating_sub(1);
                            if *count == 0 {
                                s.believed.remove(&from);
                            }
                        }
                    }) {
                        worklist.push_back(Change::Disappeared(delta.tuple));
                    }
                }
            },
        }
        self.process(worklist)
    }

    fn fresh(&self) -> Box<dyn StateMachine> {
        Box::new(NaiveEngine::new(self.node, self.ruleset.clone()))
    }

    fn current_tuples(&self) -> Vec<Tuple> {
        self.store
            .iter()
            .filter(|(_, s)| s.total() > 0)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// Byte-identical to the indexed engine's snapshot of the same state.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new();
        w.u64(self.store.len() as u64);
        for (tuple, support) in &self.store {
            w.tuple(tuple);
            w.u32(support.base_count);
            w.u32(support.derivation_count);
            w.u64(support.believed.len() as u64);
            for (peer, count) in &support.believed {
                w.node(*peer);
                w.u32(*count);
            }
        }
        let flat: Vec<&Derivation> = self.derivations.values().flatten().collect();
        w.u64(flat.len() as u64);
        for derivation in flat {
            w.str(&derivation.rule);
            w.tuple(&derivation.head);
            w.u64(derivation.body.len() as u64);
            for body in &derivation.body {
                w.tuple(body);
            }
        }
        w.u64(self.agg_current.len() as u64);
        for (rule_id, heads) in &self.agg_current {
            w.str(rule_id);
            w.u64(heads.len() as u64);
            for (head, witness) in heads {
                w.tuple(head);
                w.tuple(witness);
            }
        }
        Some(w.finish())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn StateMachine>, String> {
        Ok(Box::new(self.restore_concrete(snapshot)?))
    }

    fn absence_of(&self, pattern: &Tuple, present: &[Tuple], peers: &[NodeId]) -> Vec<crate::absence::AbsenceWitness> {
        crate::absence::trace_absence(&self.ruleset, self.node, pattern, present, peers)
    }

    fn name(&self) -> String {
        format!("engine@{}", self.node)
    }
}
