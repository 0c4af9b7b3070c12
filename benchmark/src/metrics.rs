//! The metric catalogue (mirrored by `/BENCHMARK.json`, which a test holds
//! to it) and the arithmetic from replica measurements to metric values.

use crate::probes::LayerCosts;
use crate::stats::{median, percentile};
use crate::workloads::Replica;
use snp_crypto::counters::CryptoOpCounts;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Fixed by `(workload, seed, seconds)` on the simulator workloads:
    /// two runs at one seed must agree to the last bit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64, exact: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("maint_inputs_per_s", "1/s", "higher", 0.10, false),
    e2e("wire_bytes_per_input", "bytes", "lower", 0.10, true),
    e2e("log_bytes_per_input", "bytes", "lower", 0.10, true),
    e2e("query_p50_ms", "ms", "lower", 0.20, false),
    e2e("query_p90_ms", "ms", "lower", 0.25, false),
    e2e("queries_per_s", "1/s", "higher", 0.20, false),
    e2e("query_download_bytes", "bytes", "lower", 0.15, true),
    e2e("peak_rss_mib", "MiB", "lower", 0.25, false),
];

/// `(name, unit, better)` of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("crypto.sign_us", "us", "lower"),
    ("crypto.verify_us", "us", "lower"),
    ("crypto.hash_us_per_kib", "us/KiB", "lower"),
    ("crypto.maint_signatures", "count", "lower"),
    ("crypto.maint_verifications", "count", "lower"),
    ("crypto.maint_hash_bytes", "bytes", "lower"),
    ("crypto.query_verifications", "count", "lower"),
    ("crypto.query_hash_bytes", "bytes", "lower"),
    ("crypto.maint_busy_s", "s", "lower"),
    ("crypto.query_busy_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.baseline_us_per_event", "us", "lower"),
    ("sim.queue_ns_per_op", "ns", "lower"),
    ("apps.step_us_per_entry", "us", "lower"),
    ("datalog.step_us_per_input", "us", "lower"),
    ("datalog.fires", "count", "lower"),
    ("datalog.probes", "count", "lower"),
    ("datalog.candidates", "count", "lower"),
    ("datalog.snapshot_us", "us", "lower"),
    ("datalog.restore_us", "us", "lower"),
    ("datalog.snapshot_bytes", "bytes", "lower"),
    ("datalog.absence_us", "us", "lower"),
    ("graph.build_us_per_entry", "us", "lower"),
    ("graph.vertices_per_query", "count", "lower"),
    ("graph.microqueries_per_query", "count", "lower"),
    ("log.append_us", "us", "lower"),
    ("log.seal_us", "us", "lower"),
    ("log.encode_us_per_kib", "us/KiB", "lower"),
    ("log.decode_us_per_kib", "us/KiB", "lower"),
    ("log.verify_suffix_us_per_entry", "us", "lower"),
    ("log.checkpoint_verify_us", "us", "lower"),
    ("log.store_append_us", "us", "lower"),
    ("log.reopen_verify_s", "s", "lower"),
    ("log.entries", "count", "lower"),
    ("log.retained_bytes", "bytes", "lower"),
    ("log.checkpoint_bytes", "bytes", "lower"),
    ("log.durable_bytes", "bytes", "lower"),
    ("log.segment_files", "count", "lower"),
    ("core.node.data_messages", "count", "lower"),
    ("core.node.ack_messages", "count", "lower"),
    ("core.node.batch_messages", "count", "lower"),
    ("core.node.message_signatures", "count", "lower"),
    ("core.node.batch_signatures", "count", "lower"),
    ("core.node.authenticator_bytes", "bytes", "lower"),
    ("core.node.ack_bytes", "bytes", "lower"),
    ("core.node.provenance_bytes", "bytes", "lower"),
    ("core.node.recorder_us_per_event", "us", "lower"),
    ("core.query.audits_per_query", "count", "lower"),
    ("core.query.segments_fetched_per_query", "count", "lower"),
    ("core.query.replayed_entries_per_query", "count", "lower"),
    ("core.query.skipped_entries_per_query", "count", "higher"),
    ("core.query.auth_check_s", "s", "lower"),
    ("core.query.replay_s", "s", "lower"),
    ("core.query.audit_wall_s", "s", "lower"),
    ("core.query.plan_merge_s", "s", "lower"),
    ("core.query.cache_reuse_ratio", "ratio", "higher"),
    ("core.fleet.frame_encode_us", "us", "lower"),
    ("core.fleet.frame_decode_us", "us", "lower"),
    ("core.fleet.rpc_roundtrip_us", "us", "lower"),
    ("core.fleet.transport_errors", "count", "lower"),
    ("maint.unaccounted_share", "share", "lower"),
    ("query.unaccounted_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
];

/// The end-to-end metrics, in catalogue order.  Fails when the pooled
/// latencies cannot support the p90 (fewer than 30 samples beyond it).
pub fn end_to_end(t: &Replica) -> Result<Vec<(&'static str, f64)>, String> {
    let queries = t.latencies_ms.len() as f64;
    let inputs = t.inputs as f64;
    Ok(vec![
        ("setup_s", median(&t.setups_s)),
        ("maint_inputs_per_s", inputs / t.maint_s),
        ("wire_bytes_per_input", t.wire_bytes as f64 / inputs),
        ("log_bytes_per_input", t.log_appended_bytes / inputs),
        ("query_p50_ms", percentile(&t.latencies_ms, 0.5, 30)?),
        ("query_p90_ms", percentile(&t.latencies_ms, 0.9, 30)?),
        ("queries_per_s", queries / t.query_s),
        ("query_download_bytes", t.queries.download_bytes as f64 / queries),
        ("peak_rss_mib", t.peak_rss_mib),
    ])
}

/// The per-layer metrics, in catalogue order.  `t` sums the traced
/// replicas; `overhead_share` compares them with their untraced twins.
pub fn per_layer(t: &Replica, c: &LayerCosts, datalog: bool, overhead_share: f64) -> Vec<(&'static str, f64)> {
    let queries = (t.latencies_ms.len() as f64).max(1.0);
    let q = &t.queries;
    let busy = |ops: &CryptoOpCounts| {
        (ops.signatures as f64 * c.sign_us
            + ops.verifications as f64 * c.verify_us
            + ops.hash_bytes as f64 / 1024.0 * c.hash_us_per_kib)
            / 1e6
    };
    let (maint_busy, query_busy) = (busy(&t.maint_crypto), busy(&t.query_crypto));
    // A fleet node has no simulator: its events are the operator inputs.
    let events = if t.sim_events > 0 { t.sim_events } else { t.inputs } as f64;
    // Appending hashes too; that share is already in the crypto layer.
    let append_beyond_hashing_us = (c.append_us - c.append_hash_bytes / 1024.0 * c.hash_us_per_kib).max(0.0);
    let stored = if t.log.durable_bytes > 0 {
        c.store_append_us
    } else {
        0.0
    };
    let log_busy = t.log.entries as f64 * (append_beyond_hashing_us + stored) / 1e6;
    let step = c.step_us_per_entry;
    vec![
        ("crypto.sign_us", c.sign_us),
        ("crypto.verify_us", c.verify_us),
        ("crypto.hash_us_per_kib", c.hash_us_per_kib),
        ("crypto.maint_signatures", t.maint_crypto.signatures as f64),
        ("crypto.maint_verifications", t.maint_crypto.verifications as f64),
        ("crypto.maint_hash_bytes", t.maint_crypto.hash_bytes as f64),
        ("crypto.query_verifications", t.query_crypto.verifications as f64),
        ("crypto.query_hash_bytes", t.query_crypto.hash_bytes as f64),
        ("crypto.maint_busy_s", maint_busy),
        ("crypto.query_busy_s", query_busy),
        ("sim.events", t.sim_events as f64),
        (
            "sim.baseline_us_per_event",
            t.baseline_s * 1e6 / (t.baseline_events as f64).max(1.0),
        ),
        ("sim.queue_ns_per_op", c.queue_ns_per_op),
        ("apps.step_us_per_entry", step),
        ("datalog.step_us_per_input", if datalog { step } else { 0.0 }),
        ("datalog.fires", q.rule_fires as f64),
        ("datalog.probes", q.rule_probes as f64),
        ("datalog.candidates", q.rule_candidates as f64),
        ("datalog.snapshot_us", c.snapshot_us),
        ("datalog.restore_us", c.restore_us),
        ("datalog.snapshot_bytes", c.snapshot_bytes),
        ("datalog.absence_us", c.absence_us),
        ("graph.build_us_per_entry", c.graph_build_us_per_entry),
        ("graph.vertices_per_query", q.graph_vertices as f64 / queries),
        ("graph.microqueries_per_query", q.explanation_vertices as f64 / queries),
        ("log.append_us", c.append_us),
        ("log.seal_us", c.seal_us),
        ("log.encode_us_per_kib", c.encode_us_per_kib),
        ("log.decode_us_per_kib", c.decode_us_per_kib),
        ("log.verify_suffix_us_per_entry", c.verify_suffix_us_per_entry),
        ("log.checkpoint_verify_us", c.checkpoint_verify_us),
        ("log.store_append_us", c.store_append_us),
        ("log.reopen_verify_s", c.reopen_verify_s),
        ("log.entries", t.log.entries as f64),
        ("log.retained_bytes", t.log.retained_bytes as f64),
        ("log.checkpoint_bytes", t.log.checkpoint_bytes as f64),
        ("log.durable_bytes", t.log.durable_bytes as f64),
        ("log.segment_files", t.log.segment_files as f64),
        ("core.node.data_messages", t.traffic.data_messages as f64),
        ("core.node.ack_messages", t.traffic.ack_messages as f64),
        ("core.node.batch_messages", t.traffic.batch_messages as f64),
        ("core.node.message_signatures", t.traffic.message_signatures as f64),
        ("core.node.batch_signatures", t.traffic.batch_signatures as f64),
        ("core.node.authenticator_bytes", t.traffic.authenticator_bytes as f64),
        ("core.node.ack_bytes", t.traffic.ack_bytes as f64),
        ("core.node.provenance_bytes", t.traffic.provenance_bytes as f64),
        (
            "core.node.recorder_us_per_event",
            (t.maint_s - t.baseline_s) * 1e6 / events,
        ),
        ("core.query.audits_per_query", q.audits as f64 / queries),
        (
            "core.query.segments_fetched_per_query",
            q.segments_fetched as f64 / queries,
        ),
        (
            "core.query.replayed_entries_per_query",
            q.replayed_entries as f64 / queries,
        ),
        (
            "core.query.skipped_entries_per_query",
            q.skipped_entries as f64 / queries,
        ),
        ("core.query.auth_check_s", q.auth_check_s),
        ("core.query.replay_s", q.replay_s),
        ("core.query.audit_wall_s", q.audit_wall_s),
        ("core.query.plan_merge_s", t.query_s - q.audit_wall_s),
        (
            "core.query.cache_reuse_ratio",
            (1.0 - q.audits as f64 / (q.units_planned as f64).max(1.0)).max(0.0),
        ),
        ("core.fleet.frame_encode_us", c.frame_encode_us),
        ("core.fleet.frame_decode_us", c.frame_decode_us),
        ("core.fleet.rpc_roundtrip_us", t.rpc_roundtrip_us),
        ("core.fleet.transport_errors", t.transport_errors as f64),
        (
            "maint.unaccounted_share",
            1.0 - (t.baseline_s + maint_busy + log_busy) / t.maint_s,
        ),
        (
            "query.unaccounted_share",
            1.0 - (q.auth_check_s + q.replay_s) / t.query_s,
        ),
        ("trace.overhead_share", overhead_share),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap()
    }

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn text<'a>(item: &'a Json, key: &str) -> &'a str {
        match item.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = manifest();
        let listed: Vec<(String, String, String, f64)> = list(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    text(m, "name").into(),
                    text(m, "unit").into(),
                    text(m, "better").into(),
                    bound,
                )
            })
            .collect();
        let catalogue: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(listed, catalogue);
        let listed: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
        let workloads: Vec<&str> = list(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES.to_vec());
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::workloads::CALIBRATED_SECONDS as f64)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER)
            .chain(crate::workloads::NAMES.map(|n| (n, "count", "lower")))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(matches!(better, "higher" | "lower"), "{better}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn per_layer_values_line_up_with_the_catalogue() {
        let totals = Replica {
            maint_s: 1.0,
            query_s: 1.0,
            ..Default::default()
        };
        let values = per_layer(&totals, &LayerCosts::default(), false, 0.0);
        let names: Vec<&str> = values.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, PER_LAYER.map(|(name, _, _)| name).to_vec());
        let totals = Replica {
            inputs: 10,
            setups_s: vec![0.1],
            maint_s: 1.0,
            query_s: 1.0,
            latencies_ms: (0..300).map(f64::from).collect(),
            ..Default::default()
        };
        let names: Vec<&str> = end_to_end(&totals).unwrap().iter().map(|(name, _)| *name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    }
}
