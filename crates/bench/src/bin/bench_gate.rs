//! The CI bench-regression gate.
//!
//! Compares the `BENCH_*.json` files emitted by a smoke run of the figure
//! harnesses against committed baselines (`ci/baselines/`), and fails when a
//! *deterministic* cost metric — signature counts, replay-entry counts,
//! retained log bytes — regresses by more than the tolerance (default 25%,
//! override with `BENCH_GATE_TOLERANCE=0.40`).  Wall-clock metrics are never
//! gated: they depend on the runner; only ratios of two timings taken in one
//! process are, against fixed caps or floors.  The gate also enforces two
//! acceptance floors: the largest batching window must amortize ≥5x of the
//! unbatched signature generations on the BGP workload, and the indexed Datalog
//! engine must sustain ≥10x the naive scan's maintenance and replay
//! throughput at the 10^5-tuple store size.
//!
//! Usage: `bench_gate <baseline_dir> [current_dir]` (current defaults to the
//! working directory, where the harness binaries write their JSON).

use snp_bench::json::Json;
use std::process::ExitCode;

/// What kind of comparison a check performs.
enum Check {
    /// A deterministic cost: fail when `current > baseline * (1 + tol)`.
    /// Drops are reported but do not fail (an improvement, or an intended
    /// workload change that should come with a baseline refresh).
    Cost,
    /// A floor the current value must meet regardless of the baseline.
    Min(f64),
    /// A cap the current value must stay under regardless of the baseline.
    Max(f64),
    /// A two-sided band: fail when the current value leaves
    /// `[baseline * (1 - tol), baseline * (1 + tol)]`.  Used for metrics
    /// where a *drop* is as suspicious as a rise — e.g. the model checker's
    /// explored-state count, where a shrink means the checker silently
    /// stopped covering interleavings it used to cover.
    Band,
}

/// One gated metric: figure file, dotted path (with `#last` for the final
/// element of an array), and the comparison to run.
struct Gate {
    file: &'static str,
    path: &'static str,
    check: Check,
}

const GATES: &[Gate] = &[
    // fig5: commitment signatures are deterministic per seed.
    Gate {
        file: "BENCH_fig5.json",
        path: "batching.series.0.commitment_signatures",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig5.json",
        path: "batching.series.#last.commitment_signatures",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig5.json",
        path: "batching.series.#last.signature_gain_vs_unbatched",
        check: Check::Min(5.0),
    },
    // fig6: retained log bytes of the truncation series plateau
    // deterministically.
    Gate {
        file: "BENCH_fig6.json",
        path: "truncation_series.samples.#last.retained_bytes",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig6.json",
        path: "configs.0.checkpoint_bytes",
        check: Check::Cost,
    },
    // fig7: signature/verification counts are deterministic; the measured
    // per-op costs and CPU percentages are not gated, except one
    // machine-normalised ratio: `verify_blocks`, a verification's cost in
    // hashes of a one-block (55-byte) message, timed in the same process.
    // On a 2-core Xeon, 20 alternating smoke runs each: Mersenne reduction
    // plus the fixed-base table read 2.6–3.4 (mostly 3.1–3.2); the textbook
    // arithmetic (`u128 %`, a library call, and square-and-multiply for
    // `g^s`) read 4.9–6.9 (mostly 6.2–6.3) against the same hash.  The low
    // readings on both sides came from runs on a busy machine, where the
    // hash slowed more than the verification.  The cap of 4.1 sits near the
    // geometric midpoint of 3.4 and 4.9, so a return to the textbook
    // arithmetic fails even on a busy machine.  Other CPUs are not measured.
    Gate {
        file: "BENCH_fig7.json",
        path: "configs.0.signatures",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig7.json",
        path: "batching.series.#last.signatures",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig7.json",
        path: "batching.series.#last.signature_gain_vs_unbatched",
        check: Check::Min(5.0),
    },
    Gate {
        file: "BENCH_fig7.json",
        path: "per_op_cost.verify_blocks",
        check: Check::Max(4.1),
    },
    // fig8: audit and replay-entry counts per query row are deterministic.
    // The negative rows (`why_absent`) are gated so the cost of auditing an
    // omission — one audit per candidate sender — cannot silently regress:
    // row 6 is `BGP-NoRoute (neg)`, the last row is `Chord-Eclipse (neg)`.
    Gate {
        file: "BENCH_fig8.json",
        path: "queries.6.audits",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig8.json",
        path: "queries.6.replayed_entries",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig8.json",
        path: "queries.#last.audits",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig8.json",
        path: "queries.#last.replayed_entries",
        check: Check::Cost,
    },
    // fig9: audit and replay-entry counts of the macroquery grid are
    // deterministic (and identical across thread counts by construction).
    Gate {
        file: "BENCH_fig9.json",
        path: "macroquery.rows.0.audits",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_fig9.json",
        path: "macroquery.rows.0.replayed_entries",
        check: Check::Cost,
    },
    // datalog: the indexed engine must beat the naive scan by the acceptance
    // floor on the 10^5-tuple row (sizes.1 — present in smoke and full mode)
    // for both hot loops.  The evaluation counters are fully deterministic:
    // fires is pinned two-sided (a drop means the workload silently shrank),
    // candidates one-sided (a rise means the index stopped being selective).
    Gate {
        file: "BENCH_datalog.json",
        path: "sizes.1.maintenance.speedup",
        check: Check::Min(10.0),
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "sizes.1.replay.speedup",
        check: Check::Min(10.0),
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "sizes.0.fires",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "sizes.1.fires",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "sizes.1.indexed_candidates",
        check: Check::Cost,
    },
    // datalog, cost per input against the size of the change: a single-tuple
    // change under a `min` rule must cost the same against N and 8N standing
    // tuples.  `flatness_floor` is the per-event cost at N over the cost at
    // 8N (group-local refresh measures ≈ 0.95; one that re-reads the
    // relation, 1/8).  Candidates per event are deterministic — the group of
    // 8 with and without its new minimum, 8.5 — and pinned two-sided at both
    // sizes: a rise means the refresh stopped being local, a drop that the
    // workload shrank.  The arena ratio (slots per live tuple after a churn
    // of distinct tuples) is pinned one-sided at 1: an arena that keeps every
    // tuple ever stored reads 2.8.
    Gate {
        file: "BENCH_datalog.json",
        path: "aggregate.flatness_floor",
        check: Check::Min(0.5),
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "aggregate.sizes.0.candidates_per_event",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "aggregate.sizes.1.candidates_per_event",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_datalog.json",
        path: "arena.slots_per_live",
        check: Check::Cost,
    },
    // model checker: the deduplicated state count per scenario is fully
    // deterministic, so a drift in either direction means the transition
    // system changed — new interleavings (cost) or lost coverage (a checker
    // that silently explores less).  Scenario order matches
    // `snp_check::scenarios::all()`: mincost-fabrication, bgp-blackhole,
    // chord-eclipse.  Violations must be zero, enforced as a floor of 0
    // explored violations via Cost against a 0 baseline.
    Gate {
        file: "BENCH_check.json",
        path: "rows.0.states",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_check.json",
        path: "rows.0.violations",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_check.json",
        path: "rows.1.states",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_check.json",
        path: "rows.1.violations",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_check.json",
        path: "rows.2.states",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_check.json",
        path: "rows.2.violations",
        check: Check::Cost,
    },
    // scheduler: the timing wheel must beat the binary-heap oracle by the
    // acceptance floor on the mixed push/pop/cancel ramp, and the per-event
    // step cost of a churned ring must stay within a 2x spread across
    // deployment sizes (floor = min/max per_node_step_ns >= 0.5).  Event
    // counts per scaling row are fully deterministic: a drift in either
    // direction means the simulated workload itself changed.
    Gate {
        file: "BENCH_sched.json",
        path: "throughput.speedup",
        check: Check::Min(5.0),
    },
    Gate {
        file: "BENCH_sched.json",
        path: "scaling.flatness_floor",
        check: Check::Min(0.5),
    },
    Gate {
        file: "BENCH_sched.json",
        path: "scaling.rows.0.events",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_sched.json",
        path: "scaling.rows.1.events",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_sched.json",
        path: "scaling.rows.2.events",
        check: Check::Band,
    },
    // graph: the per-entry cost of graph construction must not grow with
    // the log.  `flatness_floor` is the per-entry replay cost of the
    // synthetic single-node log at N entries over the cost at 8N: indexed
    // lookups measure ≈ 0.9 (hash-map growth and cache misses), a GCA step
    // that scans the graph measures ≈ 1/8.  The vertex counts of both replays
    // are fully deterministic and pinned two-sided: a drift means the
    // workload or the construction algorithm changed.
    Gate {
        file: "BENCH_graph.json",
        path: "flatness_floor",
        check: Check::Min(0.5),
    },
    Gate {
        file: "BENCH_graph.json",
        path: "sizes.0.vertices",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_graph.json",
        path: "sizes.1.vertices",
        check: Check::Band,
    },
    // graph merge: the same two properties for `union_in_place` folding four
    // replayed partitions — the cost per merged vertex must not grow with
    // the graphs, and the merged graph's deterministic shape is pinned
    // two-sided.  The merged graph outgrows the cache between the two sizes,
    // so the floor measures ≈ 0.65 (0.5–0.7 from run to run); a merge step
    // that scans measures ≤ 1/8, and 0.3 separates the two without flaking.
    Gate {
        file: "BENCH_graph.json",
        path: "merge.flatness_floor",
        check: Check::Min(0.3),
    },
    Gate {
        file: "BENCH_graph.json",
        path: "merge.sizes.0.vertices",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_graph.json",
        path: "merge.sizes.0.edges",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_graph.json",
        path: "merge.sizes.1.vertices",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_graph.json",
        path: "merge.sizes.1.edges",
        check: Check::Band,
    },
    // rulecheck: the static rule analyzer's findings over the shipped app
    // programs are fully deterministic.  Errors and warnings are pinned as
    // one-sided costs against a 0 baseline, so a single new finding fails
    // the gate; the advisory count and the program count are pinned
    // two-sided — a silent drop in either means programs stopped being
    // linted (or an analysis pass stopped firing), which is lost coverage,
    // not an improvement.
    Gate {
        file: "BENCH_rulecheck.json",
        path: "totals.errors",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_rulecheck.json",
        path: "totals.warnings",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_rulecheck.json",
        path: "totals.advice",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_rulecheck.json",
        path: "totals.programs",
        check: Check::Band,
    },
    // store: the durable segment store's deterministic ledger.  Bytes on
    // disk are pinned one-sided (the encodings are stable, so a rise means
    // the store started writing more per entry); the sealed-epoch count and
    // the crash-recovery report are pinned two-sided (a drift means the
    // workload or the recovery semantics changed).  The resident-bytes
    // ratio is the acceptance floor for `retain_epochs` truncation: the
    // unbounded log must hold at least 3x the retained one at the largest
    // size, or truncation has silently stopped bounding RAM.
    Gate {
        file: "BENCH_store.json",
        path: "sizes.0.durable_bytes",
        check: Check::Cost,
    },
    Gate {
        file: "BENCH_store.json",
        path: "sizes.0.sealed_epochs",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_store.json",
        path: "sizes.#last.ram_ratio",
        check: Check::Min(3.0),
    },
    Gate {
        file: "BENCH_store.json",
        path: "recovery.resumed_seq",
        check: Check::Band,
    },
    Gate {
        file: "BENCH_store.json",
        path: "recovery.lost_tail_entries",
        check: Check::Band,
    },
];

/// Resolve a dotted path, expanding `#last` to the final index of the array
/// reached so far.
fn lookup(doc: &Json, path: &str) -> Option<f64> {
    let mut current = doc;
    for part in path.split('.') {
        current = if part == "#last" {
            let items = current.as_arr()?;
            items.last()?
        } else {
            current.get(part)?
        };
    }
    current.as_f64()
}

fn load(dir: &str, file: &str) -> Result<Json, String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(baseline_dir) = args.get(1) else {
        eprintln!("usage: bench_gate <baseline_dir> [current_dir]");
        return ExitCode::FAILURE;
    };
    let current_dir = args.get(2).map(String::as_str).unwrap_or(".");
    let tolerance: f64 = std::env::var("BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    println!(
        "bench gate: baselines from {baseline_dir}, current from {current_dir}, tolerance {:.0}%\n",
        tolerance * 100.0
    );

    let mut failures = 0usize;
    let mut current_cache: Vec<(String, Result<Json, String>)> = Vec::new();
    let mut baseline_cache: Vec<(String, Result<Json, String>)> = Vec::new();
    let fetch = |cache: &mut Vec<(String, Result<Json, String>)>, dir: &str, file: &str| -> Result<Json, String> {
        if let Some((_, cached)) = cache.iter().find(|(f, _)| f == file) {
            return cached.clone();
        }
        let loaded = load(dir, file);
        cache.push((file.to_string(), loaded.clone()));
        loaded
    };

    for gate in GATES {
        let label = format!("{}:{}", gate.file, gate.path);
        let current = match fetch(&mut current_cache, current_dir, gate.file).map(|doc| lookup(&doc, gate.path)) {
            Ok(Some(v)) => v,
            Ok(None) => {
                println!("FAIL {label}: metric missing from current output");
                failures += 1;
                continue;
            }
            Err(e) => {
                println!("FAIL {label}: {e}");
                failures += 1;
                continue;
            }
        };
        match &gate.check {
            Check::Min(floor) => {
                if current >= *floor {
                    println!("ok   {label}: {current:.2} >= floor {floor:.2}");
                } else {
                    println!("FAIL {label}: {current:.2} below the required floor {floor:.2}");
                    failures += 1;
                }
            }
            Check::Max(cap) => {
                if current <= *cap {
                    println!("ok   {label}: {current:.2} <= cap {cap:.2}");
                } else {
                    println!("FAIL {label}: {current:.2} above the allowed cap {cap:.2}");
                    failures += 1;
                }
            }
            Check::Cost | Check::Band => {
                let baseline =
                    match fetch(&mut baseline_cache, baseline_dir, gate.file).map(|doc| lookup(&doc, gate.path)) {
                        Ok(Some(v)) => v,
                        Ok(None) => {
                            println!("FAIL {label}: metric missing from baseline");
                            failures += 1;
                            continue;
                        }
                        Err(e) => {
                            println!("FAIL {label}: baseline unreadable: {e}");
                            failures += 1;
                            continue;
                        }
                    };
                if matches!(gate.check, Check::Band) && current < baseline * (1.0 - tolerance) {
                    println!(
                        "FAIL {label}: {current:.2} fell below {:.2} (baseline {baseline:.2} - {:.0}%) — lost coverage",
                        baseline * (1.0 - tolerance),
                        tolerance * 100.0
                    );
                    failures += 1;
                    continue;
                }
                let limit = baseline * (1.0 + tolerance);
                if current > limit {
                    println!(
                        "FAIL {label}: {current:.2} regressed past {limit:.2} (baseline {baseline:.2} + {:.0}%)",
                        tolerance * 100.0
                    );
                    failures += 1;
                } else if current < baseline * (1.0 - tolerance) {
                    println!(
                        "note {label}: {current:.2} dropped well below baseline {baseline:.2} — refresh ci/baselines if intended"
                    );
                } else {
                    println!("ok   {label}: {current:.2} (baseline {baseline:.2})");
                }
            }
        }
    }

    if failures > 0 {
        println!("\nbench gate: {failures} check(s) failed");
        ExitCode::FAILURE
    } else {
        println!("\nbench gate: all checks passed");
        ExitCode::SUCCESS
    }
}
