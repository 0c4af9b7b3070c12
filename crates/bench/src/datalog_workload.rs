//! The synthetic single-node Datalog workloads behind the `fig_datalog`
//! harness and the `datalog_eval` micro-benchmark.
//!
//! **Join.**  One rule, chosen to isolate the join hot loop the indexed store
//! accelerates:
//!
//! ```text
//! R1 reach(@N, D) :- edge(@N, S, D), mark(@N, S).
//! ```
//!
//! The base state is `n` `edge` tuples spread over `n / FANOUT` distinct
//! sources, so a `mark(S)` insertion joins against exactly [`FANOUT`]
//! edges.  The scan engine inspects the whole `n`-tuple store per event;
//! the indexed engine probes the `(edge, S)` column index and inspects
//! [`FANOUT`] candidates.  Every quantity is deterministic: the same `n`
//! and `w` produce the same outputs, fires, probes and candidates on every
//! run and on both engines (the counters are what the CI gate pins).
//!
//! **Aggregate.**  One rule, chosen to isolate aggregate maintenance:
//!
//! ```text
//! A1 lo(@N, G, min<V>) :- item(@N, G, V).
//! ```
//!
//! The base state is `n` `item` tuples in `n / GROUP` groups of [`GROUP`];
//! each event of [`aggregate_events`] adds a new minimum to one group or
//! takes it away again, so it changes one tuple and one head.  An engine
//! that recomputes the groups a change touched inspects that group — 9
//! candidates after the insert, 8 after the delete — whatever `n` is; one
//! that recomputes every group inspects all `n` tuples per event.

use snp_crypto::keys::NodeId;
use snp_datalog::parser::parse_program;
use snp_datalog::{Engine, NaiveEngine, RuleSet, SmInput, StateMachine, Tuple, Value};

/// The single node the workload runs on.
pub const NODE: NodeId = NodeId(1);

/// Edges per source: the candidate count of one indexed join probe.
pub const FANOUT: u64 = 4;

/// The one-rule program (see the module docs).
pub fn reach_rules() -> RuleSet {
    let rules = parse_program("R1 reach(@N, D) :- edge(@N, S, D), mark(@N, S).").expect("reach program parses");
    RuleSet::new(rules).expect("reach rules are valid")
}

/// An `edge(@NODE, s, d)` base tuple.
pub fn edge(s: i64, d: i64) -> Tuple {
    Tuple::new("edge", NODE, vec![Value::Int(s), Value::Int(d)])
}

/// A `mark(@NODE, s)` base tuple.
pub fn mark(s: i64) -> Tuple {
    Tuple::new("mark", NODE, vec![Value::Int(s)])
}

/// Build the `n`-edge base state on the indexed engine (the scan engine
/// would take O(n²)) and return its snapshot — the byte-compatible codec
/// both engines restore from.
pub fn build_snapshot(n: u64) -> Vec<u8> {
    let mut engine = Engine::new(NODE, reach_rules());
    let sources = (n / FANOUT).max(1);
    for i in 0..n {
        let outputs = engine.handle(SmInput::InsertBase(edge((i % sources) as i64, i as i64)));
        assert!(outputs.is_empty(), "edge inserts alone derive nothing");
    }
    engine.snapshot().expect("rule engines snapshot")
}

/// The `w`-event maintenance suffix: `mark` insertions over distinct
/// sources.  Each fires exactly [`FANOUT`] `reach` derivations against an
/// `n`-edge state built with [`build_snapshot`], provided `w <= n / FANOUT`.
pub fn events(w: u64) -> Vec<SmInput> {
    (0..w).map(|s| SmInput::InsertBase(mark(s as i64))).collect()
}

/// Tuples per group of the aggregate workload.
pub const GROUP: u64 = 8;

/// The one-rule aggregate program (see the module docs).
pub fn min_rules() -> RuleSet {
    let rules = parse_program("A1 lo(@N, G, min<V>) :- item(@N, G, V).").expect("min program parses");
    RuleSet::new(rules).expect("min rules are valid")
}

/// An `item(@NODE, g, v)` base tuple.
pub fn item(g: i64, v: i64) -> Tuple {
    Tuple::new("item", NODE, vec![Value::Int(g), Value::Int(v)])
}

/// An engine holding `n` items in groups of [`GROUP`], values `10..18`.
pub fn build_aggregate_engine(n: u64) -> Engine {
    let mut engine = Engine::new(NODE, min_rules());
    for i in 0..n {
        engine.handle(SmInput::InsertBase(item((i / GROUP) as i64, 10 + (i % GROUP) as i64)));
    }
    engine
}

/// `w` single-tuple changes against [`build_aggregate_engine`]'s state: a
/// new minimum `item(g, 0)` enters group `g`, then leaves it, for successive
/// groups (`w / 2 <= n / GROUP`).  Every event underives one `lo` head and
/// derives another.
pub fn aggregate_events(w: u64) -> Vec<SmInput> {
    (0..w)
        .map(|k| {
            let tuple = item((k / 2) as i64, 0);
            if k % 2 == 0 {
                SmInput::InsertBase(tuple)
            } else {
                SmInput::DeleteBase(tuple)
            }
        })
        .collect()
}

/// A fresh indexed engine over [`min_rules`] restored from `snapshot`.
pub fn restore_aggregate(snapshot: &[u8]) -> Box<dyn StateMachine> {
    Engine::new(NODE, min_rules())
        .restore(snapshot)
        .expect("indexed engine restores its own snapshot")
}

/// A fresh indexed engine restored from `snapshot`.
pub fn restore_indexed(snapshot: &[u8]) -> Box<dyn StateMachine> {
    Engine::new(NODE, reach_rules())
        .restore(snapshot)
        .expect("indexed engine restores its own snapshot")
}

/// A fresh naive-scan engine restored from `snapshot`.
pub fn restore_scan(snapshot: &[u8]) -> Box<dyn StateMachine> {
    Box::new(
        NaiveEngine::new(NODE, reach_rules())
            .restore_concrete(snapshot)
            .expect("scan engine restores the indexed snapshot"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_engine_agnostic() {
        let snapshot = build_snapshot(256);
        let mut indexed = restore_indexed(&snapshot);
        let mut scan = restore_scan(&snapshot);
        let mut fires = 0u64;
        for event in events(16) {
            let a = indexed.handle(event.clone());
            let b = scan.handle(event);
            assert_eq!(a, b, "engines must agree on every output");
            fires += a.len() as u64;
        }
        assert_eq!(fires, 16 * FANOUT);
        assert_eq!(indexed.snapshot(), scan.snapshot());
        let metrics = indexed.eval_metrics();
        assert_eq!(metrics.total_fires(), 16 * FANOUT);
        assert_eq!(metrics.total_candidates(), 16 * FANOUT);
    }

    #[test]
    fn aggregate_events_touch_one_group_each() {
        let snapshot = build_aggregate_engine(256).snapshot().expect("rule engines snapshot");
        let mut indexed = restore_aggregate(&snapshot);
        let mut scan = NaiveEngine::new(NODE, min_rules())
            .restore_concrete(&snapshot)
            .expect("scan engine restores the indexed snapshot");
        for event in aggregate_events(16) {
            let a = indexed.handle(event.clone());
            assert_eq!(a, scan.handle(event), "engines must agree on every output");
            assert_eq!(a.len(), 2, "one head underived, one derived");
        }
        assert_eq!(indexed.snapshot(), scan.snapshot());
        let metrics = indexed.eval_metrics();
        assert_eq!(metrics.total_fires(), 16);
        // The group with its new minimum, then without it.
        assert_eq!(metrics.total_candidates(), 8 * (GROUP + 1 + GROUP));
    }
}
