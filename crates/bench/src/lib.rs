//! # snp-bench — evaluation harnesses reproducing the SNP paper's figures
//!
//! One binary per figure (see DESIGN.md's per-experiment index):
//!
//! | Binary            | Paper artifact | What it prints                                    |
//! |--------------------|---------------|---------------------------------------------------|
//! | `fig4_squirrel`    | Figure 4      | the Hadoop-Squirrel provenance tree               |
//! | `fig5_traffic`     | Figure 5      | traffic overhead vs. baseline, by cause           |
//! | `fig6_log_growth`  | Figure 6      | per-node log growth, by component                 |
//! | `fig7_cpu`         | Figure 7      | crypto operation counts × measured per-op cost    |
//! | `fig8_query`       | Figure 8      | query turnaround time and downloaded bytes        |
//! | `fig9_scalability` | Figure 9      | Chord per-node traffic / log growth vs. N         |
//! | `fig_usability`    | §7.3          | does each forensic query identify the culprit?    |
//! | `fig_graph`        | §7.7          | graph-build cost per log entry at N and 8N        |
//!
//! The library part contains the five workload configurations of §7.1 (scaled
//! down so every harness completes in seconds on a laptop), shared metric
//! collection used both by the binaries and by the micro-benchmarks under
//! `benches/`, and the tiny wall-clock [`harness`] those benchmarks run on.

#![forbid(unsafe_code)]
// Unit tests may unwrap: a panic is the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

pub mod datalog_workload;
pub mod graph_workload;
pub mod harness;
pub mod json;

use snp_apps::bgp::BgpScenario;
use snp_apps::chord::ChordScenario;
use snp_apps::mapreduce::MapReduceScenario;
use snp_core::node::NodeTraffic;
use snp_core::Deployment;
use snp_sim::SimTime;

/// The five experiment configurations of §7.1 (scaled down).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// 10 ASes driven by a synthetic RouteViews-like trace (≈ "Quagga").
    Quagga,
    /// 50-node Chord.
    ChordSmall,
    /// 250-node Chord.
    ChordLarge,
    /// 20 mappers / 10 reducers WordCount.
    HadoopSmall,
    /// Same cluster, 3× the input.
    HadoopLarge,
}

impl Config {
    /// All five configurations in Figure 5/6 order.
    pub const ALL: [Config; 5] = [
        Config::Quagga,
        Config::ChordSmall,
        Config::ChordLarge,
        Config::HadoopSmall,
        Config::HadoopLarge,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Config::Quagga => "Quagga",
            Config::ChordSmall => "Chord-Small",
            Config::ChordLarge => "Chord-Large",
            Config::HadoopSmall => "Hadoop-Small",
            Config::HadoopLarge => "Hadoop-Large",
        }
    }

    /// Simulated duration of the run, in seconds.
    pub fn duration_s(&self) -> u64 {
        match self {
            Config::Quagga => 120,
            Config::ChordSmall | Config::ChordLarge => 120,
            Config::HadoopSmall | Config::HadoopLarge => 60,
        }
    }

    /// Build the testbed with the workload scheduled (but not yet run).
    pub fn build(&self, secure: bool, seed: u64) -> Deployment {
        match self {
            Config::Quagga => {
                let scenario = BgpScenario {
                    duration_s: self.duration_s(),
                    ..BgpScenario::quagga_like()
                };
                Deployment::builder()
                    .seed(seed)
                    .secure(secure)
                    .app(scenario.app(true))
                    .build()
            }
            Config::ChordSmall => ChordScenario::small(self.duration_s()).build(secure, seed, None).0,
            Config::ChordLarge => ChordScenario::large(self.duration_s()).build(secure, seed, None).0,
            Config::HadoopSmall => MapReduceScenario::small().build(secure, seed, None, 0),
            Config::HadoopLarge => MapReduceScenario::large().build(secure, seed, None, 0),
        }
    }

    /// Run the configuration to completion and return the metrics.
    pub fn run(&self, secure: bool, seed: u64) -> RunMetrics {
        let mut tb = self.build(secure, seed);
        if secure {
            // Periodic checkpoints every 30 simulated seconds (§5.6).
            tb.set_epoch_length(30_000_000);
        }
        tb.run_until(SimTime::from_secs(self.duration_s() + 30));
        RunMetrics::collect(&tb, self.duration_s())
    }
}

/// Metrics collected from one simulation run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// SNP-level traffic counters summed over all nodes.
    pub traffic: NodeTraffic,
    /// Total log bytes across nodes.
    pub log_bytes: u64,
    /// Per-node log statistics.
    pub per_node_log: Vec<snp_log::LogStats>,
    /// Total checkpoint bytes across nodes.
    pub checkpoint_bytes: u64,
    /// Number of nodes.
    pub nodes: usize,
    /// Simulated duration in seconds.
    pub duration_s: u64,
}

impl RunMetrics {
    /// Collect metrics from a finished testbed.
    pub fn collect(tb: &Deployment, duration_s: u64) -> RunMetrics {
        RunMetrics {
            traffic: tb.total_traffic(),
            log_bytes: tb.total_log_bytes(),
            per_node_log: tb.handles.values().map(|h| h.with(|n| n.log_stats())).collect(),
            checkpoint_bytes: tb
                .handles
                .values()
                .map(|h| h.with(|n| n.checkpoint_bytes()) as u64)
                .sum(),
            nodes: tb.node_count(),
            duration_s,
        }
    }

    /// Average per-node traffic rate in bytes per simulated second.
    pub fn per_node_bytes_per_s(&self) -> f64 {
        if self.nodes == 0 || self.duration_s == 0 {
            0.0
        } else {
            self.traffic.total() as f64 / self.nodes as f64 / self.duration_s as f64
        }
    }

    /// Average per-node log growth in MB per simulated minute (Figure 6).
    pub fn per_node_log_mb_per_min(&self) -> f64 {
        if self.nodes == 0 || self.duration_s == 0 {
            0.0
        } else {
            let minutes = self.duration_s as f64 / 60.0;
            self.log_bytes as f64 / (1024.0 * 1024.0) / self.nodes as f64 / minutes
        }
    }
}

/// The §5.6 batching-ablation window sweep (µs): unbatched, 10 ms, 100 ms,
/// 1 s.  Figures 5 and 7 run the BGP workload at each window.
pub const BATCH_WINDOWS_US: [u64; 4] = [0, 10_000, 100_000, 1_000_000];

/// The BGP workload driving the batching ablation: a dense Quagga-like
/// update trace, so that several advertisements to the same neighbor fall
/// within one window.
pub fn batching_scenario(smoke: bool) -> BgpScenario {
    if smoke {
        BgpScenario {
            ases: 6,
            prefixes: 10,
            updates: 120,
            duration_s: 10,
        }
    } else {
        BgpScenario {
            ases: 10,
            prefixes: 40,
            updates: 400,
            duration_s: 20,
        }
    }
}

/// One point of the §5.6 batching ablation.
#[derive(Clone, Debug)]
pub struct BatchingPoint {
    /// The batching window in microseconds (0 = unbatched).
    pub window_us: u64,
    /// Node-level traffic counters summed over the deployment.
    pub traffic: snp_core::node::NodeTraffic,
    /// Global crypto operations attributed to the run.
    pub crypto: snp_crypto::counters::CryptoOpCounts,
    /// Number of nodes.
    pub nodes: usize,
    /// Simulated duration in seconds.
    pub duration_s: u64,
}

/// Run the batching-ablation BGP workload at one window and collect both
/// traffic counters and crypto-operation counts.  No checkpoints are taken,
/// so every signature belongs to the commitment path under ablation.
pub fn run_batching_point(scenario: &BgpScenario, window_us: u64, seed: u64) -> BatchingPoint {
    // Build outside the counting window: deployment setup signs one CA
    // certificate per node, which is not commitment-path work.
    let mut tb = Deployment::builder()
        .seed(seed)
        .secure(true)
        .batch_window(snp_sim::SimDuration::from_micros(window_us))
        .app(scenario.app(true))
        .build();
    let (traffic, crypto) = snp_crypto::counters::with_counting(|| {
        tb.run_until(SimTime::from_secs(scenario.duration_s + 10));
        tb.total_traffic()
    });
    BatchingPoint {
        window_us,
        traffic,
        crypto,
        // Experiment sizes are tens of nodes; they fit a usize.
        #[allow(clippy::cast_possible_truncation)]
        nodes: scenario.ases as usize,
        duration_s: scenario.duration_s,
    }
}

/// Format a ratio as the "normalized to baseline" factor used in Figure 5.
pub fn normalized(snp_bytes: u64, baseline_bytes: u64) -> f64 {
    if baseline_bytes == 0 {
        0.0
    } else {
        snp_bytes as f64 / baseline_bytes as f64
    }
}

/// Whether the harness should run in CI-smoke mode (tiny configurations that
/// finish in seconds); set `SNP_BENCH_SMOKE=1`.
pub fn smoke() -> bool {
    std::env::var("SNP_BENCH_SMOKE").map(|v| v != "0").unwrap_or(false)
}

/// Simple fixed-width table row printing used by all harness binaries.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>width$}", c, width = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_durations() {
        for config in Config::ALL {
            assert!(!config.label().is_empty());
            assert!(config.duration_s() > 0);
        }
    }

    #[test]
    fn normalization_helper() {
        assert_eq!(normalized(200, 100), 2.0);
        assert_eq!(normalized(100, 0), 0.0);
    }

    #[test]
    fn batching_ablation_amortizes_signatures() {
        // Only the per-deployment NodeTraffic counters are asserted here:
        // the CryptoOpCounts in a BatchingPoint come from process-global
        // counters, which concurrent tests in this binary also bump (the
        // single-process figure binaries read them race-free).
        let scenario = batching_scenario(true);
        let unbatched = run_batching_point(&scenario, 0, 42);
        let batched = run_batching_point(&scenario, 1_000_000, 42);
        assert_eq!(unbatched.traffic.batch_signatures, 0);
        assert_eq!(batched.traffic.message_signatures, 0);
        let unbatched_sigs = unbatched.traffic.commitment_signatures();
        let batched_sigs = batched.traffic.commitment_signatures();
        assert!(
            unbatched_sigs >= 5 * batched_sigs,
            "expected ≥5x fewer signatures, got {unbatched_sigs} vs {batched_sigs}"
        );
        // Verification work amortizes the same way: the receiver verifies one
        // authenticator per *packet*, and batching collapses the packet count.
        let unbatched_packets = unbatched.traffic.data_messages + unbatched.traffic.ack_messages;
        assert!(unbatched_packets >= 5 * batched.traffic.batch_messages);
    }

    #[test]
    fn quagga_metrics_show_overhead_over_baseline() {
        // A very small sanity run: SNP traffic must exceed baseline traffic
        // and produce a non-empty log.
        let scenario = BgpScenario {
            ases: 5,
            prefixes: 4,
            updates: 30,
            duration_s: 20,
        };
        let build = |secure: bool| {
            let mut tb = scenario.build(secure, 3);
            scenario.inject_updates(&mut tb, 3);
            tb.run_until(SimTime::from_secs(40));
            RunMetrics::collect(&tb, 20)
        };
        let baseline = build(false);
        let snp = build(true);
        assert!(snp.traffic.total() > baseline.traffic.total());
        assert_eq!(baseline.log_bytes, 0);
        assert!(snp.log_bytes > 0);
        assert!(snp.per_node_bytes_per_s() > 0.0);
        assert!(snp.per_node_log_mb_per_min() > 0.0);
    }
}
