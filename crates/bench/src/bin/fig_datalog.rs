//! Datalog evaluation throughput — the maintenance and replay hot loops,
//! naive scan vs. the multi-index copy-on-write tuple store.
//!
//! For each store size `n` the harness builds an `n`-edge base state once
//! (on the indexed engine), snapshots it through the shared byte codec, and
//! then measures two paths on each engine restored from that snapshot:
//!
//! * **maintenance** — `w` base-tuple insertions against the live state
//!   (the per-event join work a running node pays);
//! * **replay** — snapshot restore *plus* the same `w`-event suffix (what
//!   a querier pays per checkpoint-anchored audit, §5.6).
//!
//! Outputs and final snapshots are asserted byte-identical across the two
//! engines before any number is reported, so the speedup column can never
//! come from divergent evaluation.  `SNP_BENCH_SMOKE=1` drops the largest
//! size so the CI regression gate finishes quickly; the deterministic
//! counters (fires, probes, candidates) are identical in both modes.
//!
//! Two further sections hold the engine's cost per input to the size of the
//! change, not of the store:
//!
//! * **aggregate** — the same number of single-tuple changes under a `min`
//!   rule against `N` and `8N` standing tuples in groups of 8: candidates
//!   inspected per event (deterministic; the group, not the relation) and
//!   wall-clock per event, whose `N` / `8N` ratio `bench_gate` holds to the
//!   flatness floor `BENCH_graph.json` uses;
//! * **arena** — tuple-arena slots over live tuples after a churn of
//!   distinct tuples twice the size of the state (1 when freed slots are
//!   reused; 2.8 when every tuple ever stored keeps one).

// Bench harness code may unwrap: a panic is the assertion.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use snp_bench::datalog_workload::{
    aggregate_events, build_aggregate_engine, build_snapshot, events, item, restore_aggregate, restore_indexed,
    restore_scan, FANOUT, GROUP,
};
use snp_bench::json::{write_json, Json};
use snp_bench::{print_row, smoke};
use snp_datalog::{SmInput, SmOutput, StateMachine};
use std::hint::black_box;
use std::time::Instant;

/// Events per measurement (the suffix length of the replay path).
const EVENTS: u64 = 400;
/// Standing tuples of the small aggregate state; the large one has
/// [`AGG_FACTOR`] times as many.
const AGG_TUPLES: u64 = 10_000;
const AGG_FACTOR: u64 = 8;
/// Timed passes per aggregate size; the fastest is reported.
const AGG_ROUNDS: usize = 5;

/// One timed pass: restore from `snapshot`, then feed `suffix`.  Returns
/// the restore seconds, the event-loop seconds, the outputs (for the
/// cross-engine equality assertion) and the final machine.
fn run(
    restore: impl Fn(&[u8]) -> Box<dyn StateMachine>,
    snapshot: &[u8],
    suffix: &[SmInput],
) -> (f64, f64, Vec<SmOutput>, Box<dyn StateMachine>) {
    let restore_started = Instant::now();
    let mut machine = restore(snapshot);
    let restore_seconds = restore_started.elapsed().as_secs_f64();
    let mut outputs = Vec::new();
    let events_started = Instant::now();
    for event in suffix {
        outputs.extend(machine.handle(event.clone()));
    }
    let event_seconds = events_started.elapsed().as_secs_f64();
    (restore_seconds, event_seconds, outputs, machine)
}

fn throughput(events: u64, seconds: f64) -> f64 {
    events as f64 / seconds.max(1e-9)
}

fn measure(n: u64, widths: &[usize]) -> Json {
    let snapshot = build_snapshot(n);
    let suffix = events(EVENTS);

    let (scan_restore, scan_events, scan_outputs, scan_machine) = run(restore_scan, &snapshot, &suffix);
    let (indexed_restore, indexed_events, indexed_outputs, indexed_machine) = run(restore_indexed, &snapshot, &suffix);

    // The speedup must be a property of the evaluation strategy, never of
    // divergent evaluation: identical outputs, identical final state.
    assert_eq!(scan_outputs, indexed_outputs, "engines diverged at n={n}");
    assert_eq!(
        scan_machine.snapshot(),
        indexed_machine.snapshot(),
        "final snapshots diverged at n={n}"
    );

    let metrics = indexed_machine.eval_metrics();
    let fires = metrics.total_fires();
    let probes = metrics.total_probes();
    let candidates = metrics.total_candidates();
    assert_eq!(fires, EVENTS * FANOUT, "workload fire count is fixed by construction");

    // The scan engine has no counters; what it inspected is fixed by
    // construction: every event walks the full store.
    let scan_candidates = EVENTS * n;

    let maintenance_scan = throughput(EVENTS, scan_events);
    let maintenance_indexed = throughput(EVENTS, indexed_events);
    let replay_scan = throughput(EVENTS, scan_restore + scan_events);
    let replay_indexed = throughput(EVENTS, indexed_restore + indexed_events);

    print_row(
        &[
            format!("{n}"),
            format!("{maintenance_scan:.0}"),
            format!("{maintenance_indexed:.0}"),
            format!("{:.1}x", maintenance_indexed / maintenance_scan),
            format!("{replay_scan:.0}"),
            format!("{replay_indexed:.0}"),
            format!("{:.1}x", replay_indexed / replay_scan),
            format!("{candidates}"),
            format!("{scan_candidates}"),
        ],
        widths,
    );

    Json::obj([
        ("tuples", Json::Int(n)),
        ("events", Json::Int(EVENTS)),
        (
            "maintenance",
            Json::obj([
                ("scan_tuples_per_s", Json::Num(maintenance_scan)),
                ("indexed_tuples_per_s", Json::Num(maintenance_indexed)),
                ("speedup", Json::Num(maintenance_indexed / maintenance_scan)),
            ]),
        ),
        (
            "replay",
            Json::obj([
                ("scan_tuples_per_s", Json::Num(replay_scan)),
                ("indexed_tuples_per_s", Json::Num(replay_indexed)),
                ("speedup", Json::Num(replay_indexed / replay_scan)),
            ]),
        ),
        ("fires", Json::Int(fires)),
        ("indexed_probes", Json::Int(probes)),
        ("indexed_candidates", Json::Int(candidates)),
        ("scan_candidates", Json::Int(scan_candidates)),
    ])
}

/// [`EVENTS`] single-tuple changes against `n` standing tuples under the
/// `min` rule: (µs per event, candidates per event).
fn measure_aggregate(n: u64) -> (f64, f64) {
    let snapshot = build_aggregate_engine(n).snapshot().unwrap();
    let suffix = aggregate_events(EVENTS);
    let mut best = f64::INFINITY;
    let mut candidates = 0;
    for _ in 0..AGG_ROUNDS {
        let mut machine = restore_aggregate(&snapshot);
        let started = Instant::now();
        for event in &suffix {
            black_box(machine.handle(event.clone()));
        }
        best = best.min(started.elapsed().as_secs_f64());
        let metrics = machine.eval_metrics();
        assert_eq!(metrics.total_fires(), EVENTS, "every event derives one head");
        candidates = metrics.total_candidates();
    }
    (best * 1e6 / EVENTS as f64, candidates as f64 / EVENTS as f64)
}

fn aggregate_section() -> Json {
    println!("\nAggregate maintenance — {EVENTS} single-tuple changes under a min rule, groups of {GROUP}\n");
    let widths = [10, 12, 16];
    print_row(
        ["tuples", "us/event", "candidates/event"].map(String::from).as_ref(),
        &widths,
    );
    let sizes = [AGG_TUPLES, AGG_TUPLES * AGG_FACTOR];
    let rows = sizes.map(|n| {
        let (us, candidates) = measure_aggregate(n);
        (n, us, candidates)
    });
    for (n, us, candidates) in &rows {
        print_row(
            &[format!("{n}"), format!("{us:.2}"), format!("{candidates:.1}")],
            &widths,
        );
    }
    let ratio = rows[1].1 / rows[0].1;
    println!(
        "\nper-event cost at {AGG_FACTOR}x the tuples: {ratio:.2}x (flatness floor {:.2}; a refresh that\n\
         re-reads the relation inspects n candidates per event and shows {AGG_FACTOR}x)",
        1.0 / ratio
    );
    Json::obj([
        (
            "sizes",
            Json::Arr(
                rows.iter()
                    .map(|(n, us, candidates)| {
                        Json::obj([
                            ("tuples", Json::Int(*n)),
                            ("events", Json::Int(EVENTS)),
                            ("us_per_event", Json::Num(*us)),
                            ("candidates_per_event", Json::Num(*candidates)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("per_event_ratio", Json::Num(ratio)),
        ("flatness_floor", Json::Num(1.0 / ratio)),
    ])
}

/// Churn twice the state's size in distinct tuples through the small
/// aggregate state, one in and out at a time.
fn arena_section() -> Json {
    let mut engine = build_aggregate_engine(AGG_TUPLES);
    let churn = 2 * AGG_TUPLES;
    for k in 0..churn {
        let tuple = item((k % (AGG_TUPLES / GROUP)) as i64, 100 + k as i64);
        engine.handle(SmInput::InsertBase(tuple.clone()));
        engine.handle(SmInput::DeleteBase(tuple));
    }
    let store = engine.reader();
    let (slots, live) = (store.arena_slots(), store.len());
    let ratio = slots as f64 / live as f64;
    println!("\nTuple arena after churning {churn} distinct tuples: {slots} slots for {live} live tuples ({ratio:.3})");
    Json::obj([
        ("churned", Json::Int(churn)),
        ("live", Json::Int(live as u64)),
        ("slots", Json::Int(slots as u64)),
        ("slots_per_live", Json::Num(ratio)),
    ])
}

fn main() {
    println!("Datalog evaluation — maintenance and replay throughput, scan vs. indexed\n");
    let widths = [10, 14, 14, 10, 14, 14, 10, 12, 14];
    print_row(
        [
            "tuples",
            "maint scan/s",
            "maint idx/s",
            "speedup",
            "replay scan/s",
            "replay idx/s",
            "speedup",
            "idx cand",
            "scan cand",
        ]
        .map(String::from)
        .as_ref(),
        &widths,
    );
    let sizes: &[u64] = if smoke() {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let rows: Vec<Json> = sizes.iter().map(|n| measure(*n, &widths)).collect();
    println!(
        "\nExpected shape: the scan engine inspects the whole store per event, so\n\
         its maintenance throughput falls linearly with the store size; the\n\
         indexed engine probes the (edge, source) column index and inspects a\n\
         constant {FANOUT} candidates per event.  Replay includes the snapshot\n\
         restore (index rebuild), which bounds its speedup below maintenance's."
    );
    write_json(
        "BENCH_datalog.json",
        &Json::obj([
            ("figure", Json::str("fig_datalog")),
            ("smoke", Json::Bool(smoke())),
            ("sizes", Json::Arr(rows)),
            ("aggregate", aggregate_section()),
            ("arena", arena_section()),
        ]),
    );
}
