//! Micro-benchmarks of the Datalog evaluation hot loops: per-event join
//! cost (scan vs. indexed), per-event aggregate maintenance, and snapshot
//! restore (index rebuild included).
//!
//! `fig_datalog` measures end-to-end throughput at large store sizes; this
//! target isolates the per-operation costs at a size small enough for the
//! wall-clock harness to iterate many times.

// Test code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp_bench::datalog_workload::{
    aggregate_events, build_aggregate_engine, build_snapshot, events, restore_aggregate, restore_indexed, restore_scan,
};
use snp_bench::harness::{bench, bench_batched};
use snp_datalog::{SmInput, StateMachine};

const TUPLES: u64 = 2_000;
const EVENTS: u64 = 64;

fn main() {
    let snapshot = build_snapshot(TUPLES);
    let suffix: Vec<SmInput> = events(EVENTS);

    bench("datalog_restore_scan_2k", || restore_scan(&snapshot));
    bench("datalog_restore_indexed_2k", || restore_indexed(&snapshot));

    bench_batched(
        "datalog_maintenance_scan_2k_x64",
        || restore_scan(&snapshot),
        |mut machine| {
            for event in &suffix {
                machine.handle(event.clone());
            }
            machine
        },
    );
    bench_batched(
        "datalog_maintenance_indexed_2k_x64",
        || restore_indexed(&snapshot),
        |mut machine| {
            for event in &suffix {
                machine.handle(event.clone());
            }
            machine
        },
    );

    let aggregate_snapshot = build_aggregate_engine(TUPLES).snapshot().unwrap();
    let aggregate_suffix: Vec<SmInput> = aggregate_events(EVENTS);
    bench_batched(
        "datalog_aggregate_indexed_2k_x64",
        || restore_aggregate(&aggregate_snapshot),
        |mut machine| {
            for event in &aggregate_suffix {
                machine.handle(event.clone());
            }
            machine
        },
    );
}
