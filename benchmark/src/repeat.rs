//! `check-repeat`: run every workload twice at one seed and once at a
//! second, each in its own OS process, and hold the runs to the benchmark's
//! own bounds — so the bounds in `BENCHMARK.json` are measured, not guessed.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::quartile_spread;
use crate::workloads::NAMES;
use crate::Args;
use std::process::Command;

/// The end-to-end metric values of one `run`, by name.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: run exited with {}\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let result = Json::parse(last)?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: run reports itself incorrect"));
    }
    let metrics = result.get("metrics").ok_or("result line has no metrics")?;
    metrics
        .fields()
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

pub fn check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:<7} {:>14} {:>14} {:>14} {:>9} {:>9} {:>9}  verdict",
        "workload", "metric", "better", "seed a", "seed a again", "seed b", "repeat", "spread", "bound"
    );
    for workload in NAMES {
        let first = run_once(workload, args.seed, args.seconds)?;
        let again = run_once(workload, args.seed, args.seconds)?;
        let other = run_once(workload, args.seed + 1, args.seconds)?;
        for (i, m) in END_TO_END.iter().enumerate() {
            let ((name, a), b, c) = (&first[i], &again[i].1, &other[i].1);
            assert_eq!(m.name, name, "run prints the catalogue in order");
            let repeat = (a - b).abs() / a.min(*b);
            // Wall-clock sealing makes even the byte counts of the fleet vary.
            let exact = m.exact && workload != "fleet-tcp";
            let verdict = if exact && a.to_bits() != b.to_bits() {
                ok = false;
                "FAIL: exact metric differs at one seed"
            } else if repeat > m.bound {
                ok = false;
                "FAIL: repeat differs by more than the bound"
            } else if exact {
                "ok (exact)"
            } else {
                "ok"
            };
            // Quartile distance over all three runs, seeds mixed: what the
            // bound has to absorb when runs differ in seed as well.
            let spread = quartile_spread(&[*a, *b, *c]);
            println!(
                "{workload:<16} {name:<22} {:<7} {a:>14.4} {b:>14.4} {c:>14.4} {:>8.2}% {:>8.2}% {:>8.0}%  {verdict}",
                m.better,
                repeat * 100.0,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("{}", if ok { "check-repeat: PASS" } else { "check-repeat: FAIL" });
    Ok(ok)
}
