//! Graph construction cost per log entry as the log grows.
//!
//! Replays the synthetic single-node log of [`snp_bench::graph_workload`] at
//! `N` and `8N` entries through `replay_segment` (history conversion + the
//! graph construction algorithm + the expected machine) and reports the
//! wall-clock cost per entry at each size.  The replayed graph grows by a
//! constant number of vertices per entry, so a GCA step that scans the graph
//! makes the per-entry cost grow with the log — at least 8x from `N` to `8N`
//! for a linear scan (the pre-index graph measured 29 → 516 µs, 17.6x) —
//! while chained lookups on an arena keep it near constant (5.9 → 6.5 µs).
//!
//! The `merge` section folds the replayed graphs of [`PARTITIONS`] such nodes
//! into one with `union_in_place` — what a macroquery does with every audited
//! node's partition — at the same two sizes, and reports the cost per merged
//! vertex.
//!
//! Emits `BENCH_graph.json`.  `flatness_floor` is the per-entry cost at `N`
//! over the cost at `8N` (in `merge`: per merged vertex); `bench_gate`
//! requires the replay's to stay above 0.5 (the same floor as
//! `BENCH_sched.json`'s per-event flatness) and the merge's above 0.3 (its
//! hash tables outgrow the cache between the two sizes), and pins the
//! deterministic vertex counts of both replays and the vertex and edge
//! counts of both merges two-sided.

// Bench harness code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp_bench::graph_workload::{machine, synthetic_segment, NODE};
use snp_bench::json::{write_json, Json};
use snp_bench::print_row;
use snp_core::replay::replay_segment;
use snp_crypto::keys::NodeId;
use snp_graph::ProvenanceGraph;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the small log; the large one has [`FACTOR`] times as many.
const ENTRIES: usize = 1_500;
const FACTOR: usize = 8;
/// Replays per size; the fastest is reported.
const ROUNDS: usize = 5;
/// One second: every send of the log is acknowledged long before it expires.
const T_PROP: u64 = 1_000_000;
/// Per-node graphs folded by the `merge` section.
const PARTITIONS: u64 = 4;
/// Merges per size; the fastest is reported.  A merge is milliseconds of
/// allocation-heavy work, so it takes more rounds than a replay to settle.
const MERGE_ROUNDS: usize = 15;

/// One measured size: `us_per_unit` is per log entry for a replay and per
/// merged vertex for a merge.
struct Row {
    entries: usize,
    vertices: usize,
    edges: usize,
    us_per_unit: f64,
}

fn measure(entries: usize) -> Row {
    let segment = synthetic_segment(NODE, entries);
    let mut best = f64::INFINITY;
    let mut shape = (0, 0);
    for _ in 0..ROUNDS {
        let expected = machine(NODE);
        let started = Instant::now();
        let graph = replay_segment(black_box(&segment), expected, T_PROP);
        best = best.min(started.elapsed().as_secs_f64());
        assert!(graph.faulty_nodes().is_empty(), "the synthetic log is honest");
        shape = (graph.vertex_count(), graph.edge_count());
    }
    Row {
        entries: segment.entries.len(),
        vertices: shape.0,
        edges: shape.1,
        us_per_unit: best * 1e6 / segment.entries.len() as f64,
    }
}

/// Fold the replayed graphs of [`PARTITIONS`] nodes with `entries` log
/// entries each into one.
fn measure_merge(entries: usize) -> Row {
    let parts: Vec<ProvenanceGraph> = (1..=PARTITIONS)
        .map(|n| replay_segment(&synthetic_segment(NodeId(n), entries), machine(NodeId(n)), T_PROP))
        .collect();
    let mut best = f64::INFINITY;
    let mut shape = (0, 0);
    for _ in 0..MERGE_ROUNDS {
        let started = Instant::now();
        let mut merged = ProvenanceGraph::new();
        for part in &parts {
            merged.union_in_place(black_box(part));
        }
        best = best.min(started.elapsed().as_secs_f64());
        shape = (merged.vertex_count(), merged.edge_count());
    }
    Row {
        entries,
        vertices: shape.0,
        edges: shape.1,
        us_per_unit: best * 1e6 / shape.0 as f64,
    }
}

/// Print one section's table (cost per `unit`) and return its JSON rows —
/// the cost under `cost_key` — and the cost ratio of the large size over the
/// small one.
fn report(rows: &[Row; 2], unit: &str, cost_key: &'static str) -> (Json, f64) {
    let widths = [10, 10, 10, 14];
    let cost = format!("us/{unit}");
    print_row(
        ["entries", "vertices", "edges", &cost].map(String::from).as_ref(),
        &widths,
    );
    for row in rows {
        print_row(
            &[
                format!("{}", row.entries),
                format!("{}", row.vertices),
                format!("{}", row.edges),
                format!("{:.2}", row.us_per_unit),
            ],
            &widths,
        );
    }
    let sizes = rows
        .iter()
        .map(|row| {
            Json::obj([
                ("entries", Json::Int(row.entries as u64)),
                ("vertices", Json::Int(row.vertices as u64)),
                ("edges", Json::Int(row.edges as u64)),
                (cost_key, Json::Num(row.us_per_unit)),
            ])
        })
        .collect();
    (Json::Arr(sizes), rows[1].us_per_unit / rows[0].us_per_unit)
}

fn main() {
    println!("Graph construction — replay cost per log entry vs. log length\n");
    let (sizes, ratio) = report(
        &[measure(ENTRIES), measure(ENTRIES * FACTOR)],
        "entry",
        "build_us_per_entry",
    );
    println!(
        "\nper-entry cost at {FACTOR}x the log: {ratio:.2}x (flatness floor {:.2}; a step that\n\
         scans the graph shows at least {FACTOR}x, i.e. a floor of at most {:.2})",
        1.0 / ratio,
        1.0 / FACTOR as f64
    );
    println!("\nGraph merge — union_in_place of {PARTITIONS} replayed partitions, cost per merged vertex\n");
    let (merge_sizes, merge_ratio) = report(
        &[measure_merge(ENTRIES), measure_merge(ENTRIES * FACTOR)],
        "vertex",
        "merge_us_per_vertex",
    );
    println!(
        "\nper-vertex cost at {FACTOR}x the partitions: {merge_ratio:.2}x (flatness floor {:.2})",
        1.0 / merge_ratio
    );
    write_json(
        "BENCH_graph.json",
        &Json::obj([
            ("figure", Json::str("fig_graph")),
            ("sizes", sizes),
            ("per_entry_ratio", Json::Num(ratio)),
            ("flatness_floor", Json::Num(1.0 / ratio)),
            (
                "merge",
                Json::obj([
                    ("partitions", Json::Int(PARTITIONS)),
                    ("sizes", merge_sizes),
                    ("per_vertex_ratio", Json::Num(merge_ratio)),
                    ("flatness_floor", Json::Num(1.0 / merge_ratio)),
                ]),
            ),
        ]),
    );
}
