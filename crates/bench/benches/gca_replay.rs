//! Benchmark of the graph construction algorithm over synthetic single-node
//! logs — the dominant cost of a microquery's replay phase (§7.7).

use snp_bench::graph_workload::{machine, synthetic_segment, NODE};
use snp_bench::harness::bench_batched;
use snp_core::replay::replay_segment;
use std::hint::black_box;

fn main() {
    for entries in [100usize, 500, 4_000] {
        let segment = synthetic_segment(NODE, entries);
        bench_batched(
            &format!("gca_replay_{entries}_entries"),
            || machine(NODE),
            |expected| replay_segment(black_box(&segment), expected, 1_000_000),
        );
    }
}
