//! Graph construction cost per log entry as the log grows.
//!
//! Replays the synthetic single-node log of [`snp_bench::graph_workload`] at
//! `N` and `8N` entries through `replay_segment` (history conversion + the
//! graph construction algorithm + the expected machine) and reports the
//! wall-clock cost per entry at each size.  The replayed graph grows by a
//! constant number of vertices per entry, so a GCA step that scans the graph
//! makes the per-entry cost grow with the log — at least 8x from `N` to `8N`
//! for a linear scan (the pre-index graph measured 29 → 516 µs, 17.6x) —
//! while indexed lookups keep it within a logarithmic factor (12 → 18 µs).
//!
//! Emits `BENCH_graph.json`.  `flatness_floor` is the per-entry cost at `N`
//! over the cost at `8N`; `bench_gate` requires it to stay above 0.5 (the
//! same floor as `BENCH_sched.json`'s per-event flatness), and pins the
//! deterministic vertex counts of both replays two-sided.

// Bench harness code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp_bench::graph_workload::{machine, synthetic_segment};
use snp_bench::json::{write_json, Json};
use snp_bench::print_row;
use snp_core::replay::replay_segment;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the small log; the large one has [`FACTOR`] times as many.
const ENTRIES: usize = 1_500;
const FACTOR: usize = 8;
/// Replays per size; the fastest is reported.
const ROUNDS: usize = 5;
/// One second: every send of the log is acknowledged long before it expires.
const T_PROP: u64 = 1_000_000;

struct Row {
    entries: usize,
    vertices: usize,
    edges: usize,
    us_per_entry: f64,
}

fn measure(entries: usize) -> Row {
    let segment = synthetic_segment(entries);
    let mut best = f64::INFINITY;
    let mut shape = (0, 0);
    for _ in 0..ROUNDS {
        let expected = machine();
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
        us_per_entry: best * 1e6 / segment.entries.len() as f64,
    }
}

fn main() {
    println!("Graph construction — replay cost per log entry vs. log length\n");
    let widths = [10, 10, 10, 14];
    print_row(
        ["entries", "vertices", "edges", "us/entry"].map(String::from).as_ref(),
        &widths,
    );
    let rows = [measure(ENTRIES), measure(ENTRIES * FACTOR)];
    for row in &rows {
        print_row(
            &[
                format!("{}", row.entries),
                format!("{}", row.vertices),
                format!("{}", row.edges),
                format!("{:.2}", row.us_per_entry),
            ],
            &widths,
        );
    }
    let ratio = rows[1].us_per_entry / rows[0].us_per_entry;
    println!(
        "\nper-entry cost at {FACTOR}x the log: {ratio:.2}x (flatness floor {:.2}; a step that\n\
         scans the graph shows at least {FACTOR}x, i.e. a floor of at most {:.2})",
        1.0 / ratio,
        1.0 / FACTOR as f64
    );
    write_json(
        "BENCH_graph.json",
        &Json::obj([
            ("figure", Json::str("fig_graph")),
            (
                "sizes",
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::obj([
                                ("entries", Json::Int(row.entries as u64)),
                                ("vertices", Json::Int(row.vertices as u64)),
                                ("edges", Json::Int(row.edges as u64)),
                                ("build_us_per_entry", Json::Num(row.us_per_entry)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("per_entry_ratio", Json::Num(ratio)),
            ("flatness_floor", Json::Num(1.0 / ratio)),
        ]),
    );
}
