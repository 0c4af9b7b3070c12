//! A mini MapReduce with reported provenance (§6.2) and the corrupt-mapper
//! scenario behind the Hadoop-Squirrel query (Figure 4, §7.3).
//!
//! The framework mirrors Hadoop's WordCount pipeline at tuple granularity:
//!
//! ```text
//! mapInput(@M, split, text)                       (base tuple: the split)
//!   └─ mapOut(@M, split, word, offset)            (one per occurrence)
//!        └─ combineOut(@M, split, word, count)    (per-split combiner)
//!             └─ shuffle(@R, word, count, M, split)   (sent to the reducer)
//!                  └─ reduceOut(@R, word, total)      (running total)
//! ```
//!
//! Each derivation *reports* its input tuples, which is exactly the
//! "reported provenance" method: the UID of every key-value pair is its
//! content plus execution context (§6.2).

use snp_core::deploy::{AppNode, Application, Deployment, WorkloadEvent};
use snp_crypto::keys::NodeId;
use snp_datalog::{Polarity, SmInput, SmOutput, StateMachine, Tuple, TupleDelta, Value};
use snp_sim::rng::DetRng;
use snp_sim::SimTime;
use std::collections::BTreeMap;

/// The declarative companion of the MapReduce job: the dataflow from map
/// output to reduced totals as NDlog rules, statically analyzable and
/// cross-checked against the workload's base tuples by `DeploymentBuilder`.
///
/// The machines report provenance at key-value granularity (§6.2); these
/// rules are the shape those reports follow.  M1 and M3 use `count` over
/// the per-occurrence / per-combiner tuples (the engine's aggregates have
/// no `sum`, so M3 counts contributions rather than totalling them — the
/// hand-written reducer does the summing).  `reducerOf` models the word
/// partitioning function [`reducer_for`]; tokenization of `mapInput` text
/// into `mapOut` occurrences is not expressible in the rule language and
/// lives only in the mapper machine.
pub const MAPREDUCE_PROGRAM: &str = r#"
    # M1: the combiner pre-aggregates each split's word occurrences
    M1 combineOut(@M, S, W, count<O>) :- mapOut(@M, S, W, O).
    # M2: each combined count is shuffled to the reducer owning the word
    M2 shuffle(@R, W, C, M, S) maybe  :- combineOut(@M, S, W, C), reducerOf(@M, W, R).
    # M3: a reducer folds the contributions shuffled to it for each word
    M3 reduceOut(@R, W, count<C>)     :- shuffle(@R, W, C, M, S).
"#;

// ---- tuple constructors -------------------------------------------------------

/// `mapInput(@m, splitId, text)`.
pub fn map_input(mapper: NodeId, split: i64, text: &str) -> Tuple {
    Tuple::new("mapInput", mapper, vec![Value::Int(split), Value::str(text)])
}

/// `mapOut(@m, splitId, word, offset)`.
pub fn map_out(mapper: NodeId, split: i64, word: &str, offset: i64) -> Tuple {
    Tuple::new(
        "mapOut",
        mapper,
        vec![Value::Int(split), Value::str(word), Value::Int(offset)],
    )
}

/// `combineOut(@m, splitId, word, count)`.
pub fn combine_out(mapper: NodeId, split: i64, word: &str, count: i64) -> Tuple {
    Tuple::new(
        "combineOut",
        mapper,
        vec![Value::Int(split), Value::str(word), Value::Int(count)],
    )
}

/// `shuffle(@r, word, count, mapper, splitId)`.
pub fn shuffle(reducer: NodeId, word: &str, count: i64, mapper: NodeId, split: i64) -> Tuple {
    Tuple::new(
        "shuffle",
        reducer,
        vec![
            Value::str(word),
            Value::Int(count),
            Value::Node(mapper),
            Value::Int(split),
        ],
    )
}

/// `reduceOut(@r, word, total)`.
pub fn reduce_out(reducer: NodeId, word: &str, total: i64) -> Tuple {
    Tuple::new("reduceOut", reducer, vec![Value::str(word), Value::Int(total)])
}

/// Which reducer is responsible for a word.
pub fn reducer_for(word: &str, reducers: &[NodeId]) -> NodeId {
    // Lossless: the modulus bounds the index below `reducers.len()`.
    #[allow(clippy::cast_possible_truncation)]
    let idx = (snp_crypto::hash(word.as_bytes()).to_u64() % reducers.len() as u64) as usize;
    reducers[idx]
}

// ---- mapper -------------------------------------------------------------------

/// The mapper state machine (WordCount map + combine + shuffle).
#[derive(Clone, Debug)]
pub struct MapperMachine {
    node: NodeId,
    reducers: Vec<NodeId>,
    /// If set, the mapper is corrupt: it injects `(word, extra_count)` bogus
    /// occurrences into every split it processes (§7.3's misbehaving Map-3).
    pub corrupt: Option<(String, i64)>,
}

impl MapperMachine {
    /// An honest mapper.
    pub fn new(node: NodeId, reducers: Vec<NodeId>) -> MapperMachine {
        MapperMachine {
            node,
            reducers,
            corrupt: None,
        }
    }

    /// A corrupt mapper injecting `extra` bogus occurrences of `word`.
    pub fn corrupt(node: NodeId, reducers: Vec<NodeId>, word: &str, extra: i64) -> MapperMachine {
        MapperMachine {
            node,
            reducers,
            corrupt: Some((word.to_string(), extra)),
        }
    }

    fn process_split(&self, input: &Tuple) -> Vec<SmOutput> {
        let mut out = Vec::new();
        let (Some(split), Some(text)) = (input.int_arg(0), input.str_arg(1)) else {
            return out;
        };
        let text = text.to_string();

        // Map phase: one mapOut per word occurrence, provenance = the split.
        let mut per_word: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for (offset, word) in text.split_whitespace().enumerate() {
            let word = word.to_lowercase();
            let m = map_out(self.node, split, &word, offset as i64);
            out.push(SmOutput::Derive {
                tuple: m.clone(),
                rule: "map".into(),
                body: vec![input.clone()],
            });
            per_word.entry(word).or_default().push(m);
        }
        // A corrupt mapper fabricates additional occurrences.
        if let Some((word, extra)) = &self.corrupt {
            let word = word.to_lowercase();
            let start = per_word.get(&word).map(|v| v.len()).unwrap_or(0) as i64;
            for k in 0..*extra {
                let m = map_out(self.node, split, &word, 1_000_000 + start + k);
                out.push(SmOutput::Derive {
                    tuple: m.clone(),
                    rule: "map".into(),
                    body: vec![input.clone()],
                });
                per_word.entry(word.clone()).or_default().push(m);
            }
        }

        // Combine + shuffle phases.
        for (word, occurrences) in per_word {
            let count = occurrences.len() as i64;
            let c = combine_out(self.node, split, &word, count);
            out.push(SmOutput::Derive {
                tuple: c.clone(),
                rule: "combine".into(),
                body: occurrences,
            });
            let reducer = reducer_for(&word, &self.reducers);
            let s = shuffle(reducer, &word, count, self.node, split);
            out.push(SmOutput::Derive {
                tuple: s.clone(),
                rule: "shuffle".into(),
                body: vec![c],
            });
            out.push(SmOutput::Send {
                to: reducer,
                delta: TupleDelta::plus(s),
            });
        }
        out
    }
}

impl StateMachine for MapperMachine {
    fn handle(&mut self, input: SmInput) -> Vec<SmOutput> {
        match input {
            SmInput::InsertBase(tuple) if tuple.relation == "mapInput" => self.process_split(&tuple),
            _ => Vec::new(),
        }
    }

    fn fresh(&self) -> Box<dyn StateMachine> {
        Box::new(MapperMachine {
            node: self.node,
            reducers: self.reducers.clone(),
            corrupt: None,
        })
    }

    fn current_tuples(&self) -> Vec<Tuple> {
        Vec::new()
    }

    /// Mappers are stateless between splits (`reducers` / `corrupt` are
    /// configuration, not state), so the snapshot is empty.
    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn StateMachine>, String> {
        if !snapshot.is_empty() {
            return Err("mapper snapshots are empty".into());
        }
        Ok(self.fresh())
    }

    fn name(&self) -> String {
        format!("mapper@{}", self.node)
    }
}

// ---- reducer ------------------------------------------------------------------

/// The reducer state machine: sums the shuffled counts per word.
#[derive(Clone, Debug, Default)]
pub struct ReducerMachine {
    node: NodeId,
    /// Shuffled tuples received so far, per word.
    received: BTreeMap<String, Vec<Tuple>>,
    /// Current totals per word.
    totals: BTreeMap<String, i64>,
}

impl ReducerMachine {
    /// Create a reducer.
    pub fn new(node: NodeId) -> ReducerMachine {
        ReducerMachine {
            node,
            received: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }
}

impl StateMachine for ReducerMachine {
    fn handle(&mut self, input: SmInput) -> Vec<SmOutput> {
        let mut out = Vec::new();
        let SmInput::Receive { delta, .. } = input else {
            return out;
        };
        if delta.polarity != Polarity::Plus || delta.tuple.relation != "shuffle" {
            return out;
        }
        let tuple = delta.tuple;
        let (Some(word), Some(count)) = (tuple.str_arg(0).map(|s| s.to_string()), tuple.int_arg(1)) else {
            return out;
        };
        let old_total = self.totals.get(&word).copied().unwrap_or(0);
        if old_total > 0 {
            let old = reduce_out(self.node, &word, old_total);
            out.push(SmOutput::Underive {
                tuple: old,
                rule: "reduce".into(),
                body: self.received.get(&word).cloned().unwrap_or_default(),
            });
        }
        self.received.entry(word.clone()).or_default().push(tuple);
        let new_total = old_total + count;
        self.totals.insert(word.clone(), new_total);
        let new = reduce_out(self.node, &word, new_total);
        out.push(SmOutput::Derive {
            tuple: new,
            rule: "reduce".into(),
            body: self.received.get(&word).cloned().unwrap_or_default(),
        });
        out
    }

    fn fresh(&self) -> Box<dyn StateMachine> {
        Box::new(ReducerMachine::new(self.node))
    }

    fn current_tuples(&self) -> Vec<Tuple> {
        self.totals
            .iter()
            .map(|(word, total)| reduce_out(self.node, word, *total))
            .collect()
    }

    /// The snapshot covers the received shuffle tuples and the running
    /// per-word totals.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = snp_datalog::SnapshotWriter::new();
        w.u64(self.received.len() as u64);
        for (word, tuples) in &self.received {
            w.str(word);
            w.u64(tuples.len() as u64);
            for tuple in tuples {
                w.tuple(tuple);
            }
        }
        w.u64(self.totals.len() as u64);
        for (word, total) in &self.totals {
            w.str(word);
            w.i64(*total);
        }
        Some(w.finish())
    }

    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn StateMachine>, String> {
        let mut r = snp_datalog::SnapshotReader::new(snapshot);
        let mut machine = ReducerMachine::new(self.node);
        (|| {
            let words = r.read_len()?;
            for _ in 0..words {
                let word = r.str()?;
                let count = r.read_len()?;
                let mut tuples = r.vec_for(count, snp_datalog::snapshot::MIN_TUPLE_LEN);
                for _ in 0..count {
                    tuples.push(r.tuple()?);
                }
                machine.received.insert(word, tuples);
            }
            let totals = r.read_len()?;
            for _ in 0..totals {
                let word = r.str()?;
                let total = r.i64()?;
                machine.totals.insert(word, total);
            }
            r.expect_exhausted()
        })()
        .map_err(|e| e.to_string())?;
        Ok(Box::new(machine))
    }

    fn name(&self) -> String {
        format!("reducer@{}", self.node)
    }
}

// ---- corpus + scenario ----------------------------------------------------------

/// Generate a synthetic text corpus: `splits` splits of `words_per_split`
/// words drawn from a small vocabulary, with the word "squirrel" appearing
/// rarely (so that a large count is suspicious, as in §7.3).
pub fn generate_corpus(splits: usize, words_per_split: usize, seed: u64) -> Vec<String> {
    const VOCAB: &[&str] = &[
        "the",
        "quick",
        "brown",
        "fox",
        "jumps",
        "over",
        "lazy",
        "dog",
        "network",
        "provenance",
        "secure",
        "system",
        "node",
        "route",
        "query",
        "log",
        "replay",
        "evidence",
        "graph",
        "tuple",
    ];
    let mut rng = DetRng::new(seed);
    (0..splits)
        .map(|_| {
            let mut words = Vec::with_capacity(words_per_split);
            for _ in 0..words_per_split {
                if rng.chance(0.002) {
                    words.push("squirrel");
                } else {
                    // Lossless: `next_below(len)` is below `len`.
                    #[allow(clippy::cast_possible_truncation)]
                    words.push(VOCAB[rng.next_below(VOCAB.len() as u64) as usize]);
                }
            }
            words.join(" ")
        })
        .collect()
}

/// Parameters of a MapReduce job (Hadoop-Small: 20 mappers / 10 reducers).
#[derive(Clone, Copy, Debug)]
pub struct MapReduceScenario {
    /// Number of mapper nodes.
    pub mappers: u64,
    /// Number of reducer nodes.
    pub reducers: u64,
    /// Number of input splits (one per mapper task in the paper).
    pub splits: usize,
    /// Words per split.
    pub words_per_split: usize,
}

impl MapReduceScenario {
    /// A scaled-down Hadoop-Small (20 mappers, 10 reducers).
    pub fn small() -> MapReduceScenario {
        MapReduceScenario {
            mappers: 20,
            reducers: 10,
            splits: 20,
            words_per_split: 400,
        }
    }

    /// A scaled-down Hadoop-Large (more splits per mapper).
    pub fn large() -> MapReduceScenario {
        MapReduceScenario {
            mappers: 20,
            reducers: 10,
            splits: 60,
            words_per_split: 800,
        }
    }

    /// Mapper node ids (1..=mappers).
    pub fn mapper_ids(&self) -> Vec<NodeId> {
        (1..=self.mappers).map(NodeId).collect()
    }

    /// Reducer node ids (mappers+1 ..= mappers+reducers).
    pub fn reducer_ids(&self) -> Vec<NodeId> {
        (self.mappers + 1..=self.mappers + self.reducers).map(NodeId).collect()
    }

    /// The deployable job.  `corrupt_mapper` optionally makes one mapper
    /// inject `extra_squirrels` bogus occurrences of "squirrel" per split.
    pub fn job(&self, corrupt_mapper: Option<NodeId>, extra_squirrels: i64) -> MapReduceJob {
        MapReduceJob {
            scenario: *self,
            corrupt_mapper,
            extra_squirrels,
        }
    }

    /// Build the job into a ready-to-run deployment.
    pub fn build(&self, secure: bool, seed: u64, corrupt_mapper: Option<NodeId>, extra_squirrels: i64) -> Deployment {
        Deployment::builder()
            .seed(seed)
            .secure(secure)
            .app(self.job(corrupt_mapper, extra_squirrels))
            .build()
    }
}

/// The deployable WordCount job: mapper and reducer machines plus the
/// synthetic-corpus workload of a [`MapReduceScenario`].
#[derive(Debug)]
pub struct MapReduceJob {
    /// The job parameters.
    pub scenario: MapReduceScenario,
    /// If set, this mapper is corrupt.
    pub corrupt_mapper: Option<NodeId>,
    /// Bogus "squirrel" occurrences the corrupt mapper injects per split.
    pub extra_squirrels: i64,
}

impl Application for MapReduceJob {
    fn name(&self) -> String {
        format!("mapreduce-{}x{}", self.scenario.mappers, self.scenario.reducers)
    }

    fn nodes(&self) -> Vec<NodeId> {
        let mut ids = self.scenario.mapper_ids();
        ids.extend(self.scenario.reducer_ids());
        ids
    }

    fn node(&self, id: NodeId) -> AppNode {
        // Reducer ids are the contiguous range above the mappers.
        if id.0 > self.scenario.mappers {
            return AppNode::new(Box::new(ReducerMachine::new(id)));
        }
        let reducers = self.scenario.reducer_ids();
        if self.corrupt_mapper == Some(id) {
            // `MapperMachine::fresh` drops the corruption, so replay uses the
            // honest map function.
            AppNode::new(Box::new(MapperMachine::corrupt(
                id,
                reducers,
                "squirrel",
                self.extra_squirrels,
            )))
        } else {
            AppNode::new(Box::new(MapperMachine::new(id, reducers)))
        }
    }

    fn workload(&self, seed: u64) -> Vec<WorkloadEvent> {
        // Assign splits to mappers round-robin and schedule the inputs.
        let corpus = generate_corpus(self.scenario.splits, self.scenario.words_per_split, seed);
        let mapper_ids = self.scenario.mapper_ids();
        corpus
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let mapper = mapper_ids[i % mapper_ids.len()];
                WorkloadEvent::insert(
                    SimTime::from_millis(10 + i as u64),
                    mapper,
                    map_input(mapper, i as i64, text),
                )
            })
            .collect()
    }

    fn program(&self) -> Option<String> {
        Some(MAPREDUCE_PROGRAM.into())
    }
}

#[cfg(test)]
mod tests {

    #[test]
    fn declared_program_is_lint_clean_against_the_workload() {
        use snp_core::deploy::WorkloadOp;
        let app = tiny().job(None, 0);
        let rules = snp_datalog::parser::parse_program(MAPREDUCE_PROGRAM).expect("program parses");
        let facts: Vec<Tuple> = app
            .workload(7)
            .into_iter()
            .map(|e| match e.op {
                WorkloadOp::Insert(t) | WorkloadOp::Delete(t) => t,
            })
            .collect();
        for d in snp_datalog::analyze_with_facts(&rules, &facts) {
            assert!(d.severity < snp_datalog::Severity::Warning, "{}", d.render());
        }
    }

    use super::*;

    fn tiny() -> MapReduceScenario {
        MapReduceScenario {
            mappers: 4,
            reducers: 2,
            splits: 4,
            words_per_split: 60,
        }
    }

    #[test]
    fn word_counts_are_correct() {
        let scenario = tiny();
        let mut tb = scenario.build(true, 5, None, 0);
        tb.run_until(SimTime::from_secs(20));
        // Recompute the expected counts directly from the corpus.
        let corpus = generate_corpus(scenario.splits, scenario.words_per_split, 5);
        let mut expected: BTreeMap<String, i64> = BTreeMap::new();
        for text in &corpus {
            for w in text.split_whitespace() {
                *expected.entry(w.to_lowercase()).or_default() += 1;
            }
        }
        let reducers = scenario.reducer_ids();
        for (word, count) in expected {
            let reducer = reducer_for(&word, &reducers);
            let expected_tuple = reduce_out(reducer, &word, count);
            assert!(
                tb.handles[&reducer].with(|n| n.has_tuple(&expected_tuple)),
                "reducer {reducer} must hold {expected_tuple}"
            );
        }
    }

    #[test]
    fn corrupt_mapper_inflates_count_and_is_implicated() {
        let scenario = tiny();
        let corrupt = NodeId(3);
        let mut tb = scenario.build(true, 5, Some(corrupt), 50);
        tb.run_until(SimTime::from_secs(20));

        let reducers = scenario.reducer_ids();
        let reducer = reducer_for("squirrel", &reducers);
        // Find the (inflated) squirrel total the reducer currently holds.
        let total = tb.handles[&reducer]
            .with(|n| n.current_tuples())
            .into_iter()
            .find(|t| t.relation == "reduceOut" && t.str_arg(0) == Some("squirrel"))
            .and_then(|t| t.int_arg(1))
            .expect("squirrel total present");
        assert!(total >= 50, "corrupt mapper must inflate the count (got {total})");

        let result = tb
            .querier
            .why_exists(reduce_out(reducer, "squirrel", total))
            .at(reducer)
            .run();
        assert!(result.root.is_some());
        assert!(
            result.implicated_nodes().contains(&corrupt) || result.suspect_nodes().contains(&corrupt),
            "the corrupt mapper must be implicated: implicated={:?} suspects={:?}",
            result.implicated_nodes(),
            result.suspect_nodes()
        );
        // No honest mapper may be implicated (accuracy).
        for m in scenario.mapper_ids() {
            if m != corrupt {
                assert!(!result.implicated_nodes().contains(&m), "honest mapper {m} implicated");
            }
        }
    }

    #[test]
    fn clean_job_explanation_is_legitimate_and_spans_the_pipeline() {
        let scenario = tiny();
        let mut tb = scenario.build(true, 5, None, 0);
        tb.run_until(SimTime::from_secs(20));
        let reducers = scenario.reducer_ids();
        let reducer = reducer_for("provenance", &reducers);
        let total = tb.handles[&reducer]
            .with(|n| n.current_tuples())
            .into_iter()
            .find(|t| t.relation == "reduceOut" && t.str_arg(0) == Some("provenance"))
            .and_then(|t| t.int_arg(1))
            .expect("the word appears somewhere in the corpus");
        let result = tb
            .querier
            .why_exists(reduce_out(reducer, "provenance", total))
            .at(reducer)
            .run();
        assert!(result.implicated_nodes().is_empty());
        // The explanation must include mapInput tuples on mapper nodes.
        let has_map_input = result.traversal.as_ref().unwrap().depths.keys().any(|id| {
            result
                .graph
                .vertex(id)
                .map(|v| v.kind.tuple().relation == "mapInput")
                .unwrap_or(false)
        });
        assert!(has_map_input, "provenance must reach the input splits");
    }

    #[test]
    fn corpus_is_deterministic_and_rarely_mentions_squirrels() {
        let a = generate_corpus(5, 100, 1);
        let b = generate_corpus(5, 100, 1);
        assert_eq!(a, b);
        let squirrels: usize = a.iter().map(|t| t.matches("squirrel").count()).sum();
        assert!(squirrels < 10, "squirrel must be rare (got {squirrels})");
    }

    #[test]
    fn reducer_assignment_is_stable_and_covers_all_reducers() {
        let reducers: Vec<NodeId> = (10..14).map(NodeId).collect();
        let words = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        let used: std::collections::BTreeSet<NodeId> = words.iter().map(|w| reducer_for(w, &reducers)).collect();
        assert!(used.len() > 1, "hash partitioning should spread words");
        assert_eq!(reducer_for("x", &reducers), reducer_for("x", &reducers));
    }
}
