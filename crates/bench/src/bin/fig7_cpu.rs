//! Figure 7: additional CPU load for generating/verifying signatures and for
//! hashing, estimated (as in the paper) as operation counts × measured
//! per-operation cost — plus the §5.6 batching ablation: the same BGP
//! workload at increasing `Tbatch` windows, showing the signature and
//! verification *counts* (and therefore the modeled CPU gain) amortizing.
//!
//! Emits `BENCH_fig7.json` with the same data in machine-readable form.
//! Set `SNP_BENCH_SMOKE=1` to run a tiny configuration (used by CI).

use snp_bench::json::{write_json, Json};
use snp_bench::{batching_scenario, print_row, run_batching_point, Config, BATCH_WINDOWS_US};
use snp_crypto::counters;
use snp_crypto::keys::{KeyPair, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Mean wall-clock seconds per call of `op` over `iterations` calls.
fn mean_cost(iterations: u32, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        op();
    }
    start.elapsed().as_secs_f64() / f64::from(iterations)
}

/// Measure the per-operation cost of sign / verify / hash.
fn measure_costs() -> (f64, f64, f64) {
    let keys = KeyPair::for_node(NodeId(0));
    let digest = snp_crypto::hash(b"cost measurement message");
    let sig = keys.secret.sign(&digest);
    let payload = vec![0u8; 1024];
    let sign_cost = mean_cost(2_000, || {
        black_box(keys.secret.sign(black_box(&digest)));
    });
    let verify_cost = mean_cost(2_000, || {
        black_box(keys.public.verify(black_box(&digest), black_box(&sig)));
    });
    let hash_cost_per_kb = mean_cost(2_000, || {
        black_box(snp_crypto::sha256::sha256(black_box(&payload)));
    });
    (sign_cost, verify_cost, hash_cost_per_kb)
}

/// A verification's cost in hashes of a 55-byte message (the most one
/// SHA-256 block holds): a machine-normalised ratio the bench gate caps.
/// The two ops are timed in many short interleaved rounds (≈ 0.5 ms each)
/// and each keeps its fastest round, so a spell of contention on the machine
/// skews neither against the other.
fn measure_verify_blocks() -> f64 {
    let keys = KeyPair::for_node(NodeId(0));
    let digest = snp_crypto::hash(b"cost measurement message");
    let sig = keys.secret.sign(&digest);
    let block = [0u8; 55];
    let (mut verify, mut hash) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..40 {
        verify = verify.min(mean_cost(500, || {
            black_box(keys.public.verify(black_box(&digest), black_box(&sig)));
        }));
        hash = hash.min(mean_cost(2_500, || {
            black_box(snp_crypto::sha256::sha256(black_box(&block)));
        }));
    }
    verify / hash
}

fn main() {
    let smoke = snp_bench::smoke();
    println!("Figure 7 — additional CPU load from cryptography\n");
    let (sign_cost, verify_cost, hash_cost_per_kb) = measure_costs();
    let verify_blocks = measure_verify_blocks();
    println!(
        "measured per-op cost: sign {:.2} µs, verify {:.2} µs ({verify_blocks:.2} one-block hashes), hash {:.2} µs/KiB\n",
        sign_cost * 1e6,
        verify_cost * 1e6,
        hash_cost_per_kb * 1e6
    );
    let widths = [14, 12, 12, 12, 14, 16];
    print_row(
        [
            "config",
            "signs",
            "verifies",
            "hash ops",
            "hashed MiB",
            "CPU load (%core)",
        ]
        .map(String::from)
        .as_ref(),
        &widths,
    );
    let configs: &[Config] = if smoke { &[Config::Quagga] } else { &Config::ALL };
    let mut config_rows = Vec::new();
    for config in configs {
        counters::reset();
        let before = counters::snapshot();
        let metrics = config.run(true, 42);
        let ops = counters::snapshot().since(&before);
        let cpu_seconds = ops.signatures as f64 * sign_cost
            + ops.verifications as f64 * verify_cost
            + (ops.hash_bytes as f64 / 1024.0) * hash_cost_per_kb;
        let load_percent = 100.0 * cpu_seconds / (metrics.duration_s as f64 * metrics.nodes as f64);
        print_row(
            &[
                config.label().to_string(),
                format!("{}", ops.signatures),
                format!("{}", ops.verifications),
                format!("{}", ops.hash_ops),
                format!("{:.2}", ops.hash_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.3}", load_percent),
            ],
            &widths,
        );
        config_rows.push(Json::obj([
            ("config", Json::str(config.label())),
            ("signatures", Json::Int(ops.signatures)),
            ("verifications", Json::Int(ops.verifications)),
            ("hash_ops", Json::Int(ops.hash_ops)),
            ("hash_bytes", Json::Int(ops.hash_bytes)),
            ("cpu_load_percent", Json::Num(load_percent)),
        ]));
    }
    println!(
        "\nExpected shape (paper): signature load dominates for BGP/Chord (many small\n\
         messages, two signatures each); MapReduce is dominated by hashing its data;\n\
         the average additional load stays in the low single-digit percent range."
    );

    // Batching ablation (§5.6): CPU gain = signature/verification counts
    // collapsing to one per (destination, window).
    let scenario = batching_scenario(smoke);
    println!(
        "\nBatching ablation — BGP, {} ASes, {} updates over {} s\n",
        scenario.ases, scenario.updates, scenario.duration_s
    );
    let ab_widths = [12, 10, 12, 14, 16, 10];
    print_row(
        [
            "window",
            "signs",
            "verifies",
            "est CPU ms",
            "CPU load (%core)",
            "CPU gain",
        ]
        .map(String::from)
        .as_ref(),
        &ab_widths,
    );
    let mut series_rows = Vec::new();
    let mut unbatched_cpu = 0.0f64;
    let mut unbatched_sigs = 0u64;
    for window_us in BATCH_WINDOWS_US {
        counters::reset();
        let point = run_batching_point(&scenario, window_us, 42);
        let cpu_seconds = point.crypto.signatures as f64 * sign_cost
            + point.crypto.verifications as f64 * verify_cost
            + (point.crypto.hash_bytes as f64 / 1024.0) * hash_cost_per_kb;
        let load_percent = 100.0 * cpu_seconds / (point.duration_s as f64 * point.nodes as f64);
        if window_us == 0 {
            unbatched_cpu = cpu_seconds;
            unbatched_sigs = point.crypto.signatures;
        }
        let gain = if cpu_seconds > 0.0 {
            unbatched_cpu / cpu_seconds
        } else {
            0.0
        };
        print_row(
            &[
                if window_us == 0 {
                    "off".to_string()
                } else {
                    format!("{} ms", window_us / 1_000)
                },
                format!("{}", point.crypto.signatures),
                format!("{}", point.crypto.verifications),
                format!("{:.2}", cpu_seconds * 1e3),
                format!("{load_percent:.3}"),
                format!("{gain:.2}x"),
            ],
            &ab_widths,
        );
        let sig_gain = if point.crypto.signatures == 0 {
            0.0
        } else {
            unbatched_sigs as f64 / point.crypto.signatures as f64
        };
        series_rows.push(Json::obj([
            ("window_us", Json::Int(window_us)),
            ("signatures", Json::Int(point.crypto.signatures)),
            ("verifications", Json::Int(point.crypto.verifications)),
            ("hash_ops", Json::Int(point.crypto.hash_ops)),
            ("est_cpu_seconds", Json::Num(cpu_seconds)),
            ("cpu_load_percent", Json::Num(load_percent)),
            ("signature_gain_vs_unbatched", Json::Num(sig_gain)),
            ("cpu_gain_vs_unbatched", Json::Num(gain)),
        ]));
    }
    println!(
        "\nExpected shape: the crypto CPU budget is signature-bound on BGP, so the\n\
         batched windows cut the modeled load by roughly the batch occupancy —\n\
         the counts are deterministic even though the per-op costs are measured."
    );

    write_json(
        "BENCH_fig7.json",
        &Json::obj([
            ("figure", Json::str("fig7_cpu")),
            ("smoke", Json::Bool(smoke)),
            (
                "per_op_cost",
                Json::obj([
                    ("sign_us", Json::Num(sign_cost * 1e6)),
                    ("verify_us", Json::Num(verify_cost * 1e6)),
                    ("hash_us_per_kib", Json::Num(hash_cost_per_kb * 1e6)),
                    ("verify_blocks", Json::Num(verify_blocks)),
                ]),
            ),
            ("configs", Json::Arr(config_rows)),
            (
                "batching",
                Json::obj([
                    ("ases", Json::Int(scenario.ases)),
                    ("updates", Json::Int(scenario.updates as u64)),
                    ("duration_s", Json::Int(scenario.duration_s)),
                    ("series", Json::Arr(series_rows)),
                ]),
            ),
        ]),
    );
}
