//! `snp-benchmark` — one end-to-end + per-layer benchmark for the SNooPy
//! runtime.  See `README.md` for the metric and workload glossary.
//!
//! ```text
//! snp-benchmark run   --workload NAME --seed N [--seconds S] [--trace 0|1]
//! snp-benchmark trace --workload NAME --seed N [--seconds S]
//! snp-benchmark check-repeat [--seed N] [--seconds S]
//! ```
//!
//! `run` prints every end-to-end metric by name with its unit, checks every
//! verdict, and ends with one JSON result line; `trace` (= `run --trace 1`)
//! repeats the run with spans and layer probes and prints the per-layer
//! metrics instead.  The benchmark uses only the crates' public API.

mod json;
mod metrics;
mod oracle;
mod probes;
mod repeat;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;
use workloads::{bgp, chord, fleet, mincost, replicas, sub_seed, Harvest, Replica, ScratchDir, CALIBRATED_SECONDS};

/// Environment overrides that silently change what a deployment does; a
/// benchmark run under any of them measures a different system.
const FORBIDDEN_ENV: [&str; 4] = ["SNP_QUERY_THREADS", "SNP_BATCH_WINDOW", "SNP_SCHED", "SNP_BENCH_SMOKE"];

/// Where traces and scratch stores go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: CALIBRATED_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// One workload as the run loop sees it.
struct Workload {
    name: &'static str,
    replicas: usize,
    /// Fewest replicas worth running: one rotation of planted faults.
    floor: usize,
    datalog: bool,
    /// `None` is the fleet; the others are simulator plans.
    plan: Option<workloads::PlanFn>,
}

impl Workload {
    /// Run replica `r`; `last` marks the final one, after whose timed
    /// phases the fleet's tampered-restart experiment runs.
    fn replica(&self, sub: u64, r: usize, last: bool, tracer: &mut Tracer, scratch: &Path, harvest: bool) -> Replica {
        match self.plan {
            Some(plan) => workloads::run_sim_replica(&plan(sub, r), sub, tracer, harvest),
            None => fleet::run_replica(&fleet::plan(sub), tracer, scratch, harvest, last),
        }
    }
}

fn workload(name: &str) -> Option<Workload> {
    let (name, replicas, floor, datalog, plan): (_, _, _, _, Option<workloads::PlanFn>) = match name {
        "bgp-cold" => ("bgp-cold", bgp::REPLICAS, bgp::ROTATION, false, Some(bgp::plan)),
        "chord-anchored" => (
            "chord-anchored",
            chord::REPLICAS,
            chord::ROTATION,
            false,
            Some(chord::plan),
        ),
        "mincost-ndlog" => (
            "mincost-ndlog",
            mincost::REPLICAS,
            mincost::ROTATION,
            true,
            Some(mincost::plan),
        ),
        "fleet-tcp" => ("fleet-tcp", fleet::REPLICAS, 1, true, None),
        _ => return None,
    };
    Some(Workload {
        name,
        replicas,
        floor,
        datalog,
        plan,
    })
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name:<42} {value:>18.6} {unit}");
}

fn run(args: &Args) -> Result<bool, String> {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it — the benchmark measures the default configuration"
            ));
        }
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workload(name).ok_or_else(|| format!("unknown workload '{name}' (one of {:?})", workloads::NAMES))?;
    let scratch = ScratchDir::create(out_dir().join(format!("tmp-{}", std::process::id())));
    let mut tracer = Tracer::new(false);

    // A traced run spends the same time on half the replicas, each run
    // twice: untraced then traced (order alternating), so the difference of
    // the two phase walls is the tracing overhead on identical work.
    let planned = replicas(w.replicas, w.floor, args.seconds);
    let count = if args.trace {
        planned.div_ceil(2).max(w.floor)
    } else {
        planned
    };
    let (mut plain, mut traced) = (Replica::default(), Replica::default());
    let mut harvest: Option<Harvest> = None;
    for r in 0..count {
        let sub = sub_seed(args.seed, r);
        let modes: &[bool] = match (args.trace, r % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &tracing in modes {
            tracer.set_enabled(tracing);
            tracer.set_request(r as u64);
            let open = tracer.begin("replica");
            let mut replica = w.replica(
                sub,
                r,
                r + 1 == count,
                &mut tracer,
                scratch.path(),
                tracing && harvest.is_none(),
            );
            tracer.end(open);
            if let Some(h) = replica.harvest.take() {
                harvest = Some(h);
            }
            if tracing { &mut traced } else { &mut plain }.merge(replica);
        }
    }

    let totals = if args.trace { &traced } else { &plain };
    let ops = &totals.ops;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "replicas {}  inputs {}  queries {}  (1 closed-loop client, {} core(s) available)",
        totals.setups_s.len(),
        totals.inputs,
        totals.latencies_ms.len(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "phase walls: setup {:.3} s  maintain {:.3} s  query {:.3} s",
        totals.setups_s.iter().sum::<f64>(),
        totals.maint_s,
        totals.query_s
    );

    let values: Vec<(&str, f64, &str)> = if args.trace {
        let harvest = harvest.ok_or("no replica could be harvested for the layer probes")?;
        // ≥ 1 s per probe at 60 s; scaled down with the run.
        let budget = Duration::from_secs_f64(args.seconds as f64 / 60.0);
        tracer.set_enabled(true);
        let costs = probes::run(
            &harvest,
            w.datalog,
            w.plan.is_none(),
            budget,
            scratch.path(),
            &mut tracer,
        );
        let overhead = (traced.phase_wall_s() - plain.phase_wall_s()) / plain.phase_wall_s();
        let path = out_dir().join(format!("{}-{}.trace.json", w.name, args.seed));
        std::fs::write(&path, tracer.to_json(w.name, args.seed).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
        metrics::per_layer(&traced, &costs, w.datalog, overhead)
            .into_iter()
            .zip(PER_LAYER)
            .map(|((name, value), (_, unit, _))| (name, value, unit))
            .collect()
    } else {
        metrics::end_to_end(&plain)?
            .into_iter()
            .zip(&END_TO_END)
            .map(|((name, value), m)| (name, value, m.unit))
            .collect()
    };
    for (name, value, unit) in &values {
        print_metric(name, *value, unit);
    }
    print_metric("ops_attempted", ops.attempted as f64, "count");
    print_metric("ops_failed", ops.failed as f64, "count");
    print_metric("ops_failed_share", ops.failed as f64 / ops.attempted as f64, "share");
    println!(
        "verdicts through the planted node: {} red, {} yellow",
        ops.red_verdicts, ops.yellow_verdicts
    );
    for reason in &ops.reasons {
        println!("FAILED {reason}");
    }
    // A run that met no non-green verdict checked nothing about Byzantine
    // nodes, whatever its failure count says.
    let correct = ops.failed == 0 && ops.red_verdicts + ops.yellow_verdicts > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        (
            "metrics",
            Json::Obj(
                values
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => parse_args(rest).and_then(|mut parsed| {
            parsed.trace |= cmd == "trace";
            run(&parsed)
        }),
        Some((cmd, rest)) if cmd == "check-repeat" => parse_args(rest).and_then(|parsed| repeat::check(&parsed)),
        _ => Err(
            "usage: snp-benchmark (run|trace) --workload NAME --seed N [--seconds S] [--trace 0|1]\n       \
                  snp-benchmark check-repeat [--seed N] [--seconds S]"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("snp-benchmark: {message}");
            std::process::exit(2);
        }
    }
}
