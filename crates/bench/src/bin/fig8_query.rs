//! Figure 8: query turnaround time (download + authenticator checks + replay)
//! and downloaded bytes, for the five example queries of §7.2 — plus the
//! replayed-entries accounting before/after checkpoint anchoring: the
//! `Chord-Lookup` query is run once from genesis and once on an epoch-sealed
//! deployment, where the audit restores machine state from the latest
//! checkpoint and replays only the suffix — plus two *negative* query rows
//! (`why_absent`): the BGP blackhole ("why is there no route to prefix P?",
//! where a transit AS withholds its advertisement) and the Chord eclipse
//! ("why does no lookup result name the true owner?", where the resolver
//! answers with itself).  Negative queries audit every candidate sender, so
//! their audit counts bound the cost of auditing an omission.
//!
//! Emits `BENCH_fig8.json` with the same data in machine-readable form.
//! `SNP_BENCH_SMOKE=1` shrinks the configurations so the CI regression gate
//! can run the harness in seconds; the row set is identical in both modes.

use snp_apps::bgp;
use snp_apps::chord::{self, ChordScenario};
use snp_apps::mapreduce::{reduce_out, reducer_for, MapReduceScenario};
use snp_bench::json::{write_json, Json};
use snp_bench::{print_row, smoke};
use snp_core::query::QueryResult;
use snp_crypto::keys::NodeId;
use snp_sim::SimTime;

/// The paper assumes a 10 Mbps download link when estimating turnaround.
const BANDWIDTH_BPS: f64 = 10_000_000.0;

fn report(name: &str, result: &QueryResult, widths: &[usize]) -> Json {
    let s = &result.stats;
    print_row(
        &[
            name.to_string(),
            format!("{:.3}", s.turnaround_seconds(BANDWIDTH_BPS)),
            format!("{:.3}", s.auth_check_seconds),
            format!("{:.3}", s.replay_seconds),
            format!("{}", s.log_bytes),
            format!("{}", s.authenticator_bytes),
            format!("{}", s.checkpoint_bytes + s.snapshot_bytes),
            format!("{}", s.audits),
            format!("{}", s.replayed_entries),
            format!("{}", s.skipped_entries),
        ],
        widths,
    );
    Json::obj([
        ("query", Json::str(name)),
        ("turnaround_s", Json::Num(s.turnaround_seconds(BANDWIDTH_BPS))),
        ("auth_check_s", Json::Num(s.auth_check_seconds)),
        ("replay_s", Json::Num(s.replay_seconds)),
        ("log_bytes", Json::Int(s.log_bytes)),
        ("authenticator_bytes", Json::Int(s.authenticator_bytes)),
        ("checkpoint_bytes", Json::Int(s.checkpoint_bytes)),
        ("snapshot_bytes", Json::Int(s.snapshot_bytes)),
        ("audits", Json::Int(s.audits)),
        ("segments_fetched", Json::Int(s.segments_fetched)),
        ("replayed_entries", Json::Int(s.replayed_entries)),
        ("skipped_entries", Json::Int(s.skipped_entries)),
        (
            "segment_bytes",
            Json::Arr(
                s.segment_bytes
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("node", Json::Int(f.node.0)),
                            ("epoch", Json::Int(f.epoch)),
                            ("bytes", Json::Int(f.bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn quagga_disappear() -> QueryResult {
    let (mut tb, i, _j, prefix) = bgp::disappear_scenario(true, 3);
    tb.set_epoch_length(30_000_000);
    tb.run_until(SimTime::from_secs(20));
    bgp::disappear_trigger(&mut tb, SimTime::from_secs(25));
    tb.run_until(SimTime::from_secs(60));
    tb.querier
        .why_disappeared(bgp::adv_route(
            i,
            &prefix,
            &[NodeId(2), NodeId(3), NodeId(5)],
            NodeId(2),
        ))
        .at(i)
        .run()
}

fn quagga_badgadget() -> QueryResult {
    let (mut tb, _dest, prefix) = bgp::badgadget_scenario(true, 5);
    // Bounded horizon: BadGadget flutters persistently over FIFO links (no
    // MRAI damping in the speakers), so the query is asked mid-flutter.
    tb.run_until(SimTime::from_millis(600));
    let route = tb.handles[&NodeId(1)]
        .with(|n| n.current_tuples())
        .into_iter()
        .find(|t| t.relation == "route" && t.str_arg(0) == Some(prefix.as_str()))
        .expect("AS 1 has a route to the gadget prefix");
    tb.querier.why_exists(route).at(NodeId(1)).run()
}

/// The Chord lookup query.  Without epochs this is the paper-baseline row
/// (lookup at 1 s, audited at 90 s, replayed from genesis — unchanged from
/// earlier revisions so the JSON stays comparable).  With `epoch_s =
/// Some(s)` the deployment seals epochs on that cadence, the lookup is
/// injected late so it lands in the open epoch, and the audit anchors at
/// the latest checkpoint.
fn chord_lookup(nodes: u64, epoch_s: Option<u64>) -> QueryResult {
    let scenario = ChordScenario {
        nodes,
        lookups_per_minute: 0,
        ..ChordScenario::small(60)
    };
    let (mut tb, ring) = scenario.build(true, 9, None);
    if let Some(s) = epoch_s {
        tb.set_epoch_length(s * 1_000_000);
    }
    let origin = ring.members[0].1;
    let key = (ring.members[ring.members.len() / 2].0 + 1) % chord::ID_SPACE;
    let (owner_id, owner) = ring.owner_of(key);
    let (inject_s, audit_s) = if epoch_s.is_some() { (86, 89) } else { (1, 90) };
    tb.insert_at(
        SimTime::from_secs(inject_s),
        origin,
        chord::lookup(origin, key, origin, 1),
    );
    tb.run_until(SimTime::from_secs(audit_s));
    let result_tuple = chord::lookup_result(origin, 1, key, owner, owner_id);
    tb.querier.why_exists(result_tuple).at(origin).run()
}

/// The negative BGP blackhole row: the transit AS withholds its
/// advertisement, the victim's table has no route, and `why_absent` audits
/// the victim plus every candidate advertiser to produce the signed
/// evidence of the withheld send.
fn bgp_blackhole_neg() -> QueryResult {
    let (mut tb, victim, transit, prefix) = bgp::blackhole_scenario(true, 21, true);
    tb.run_until(SimTime::from_secs(30));
    let result = tb
        .querier
        .why_absent(bgp::route_pattern(victim, &prefix))
        .at(victim)
        .run();
    assert!(
        result.implicated_nodes().contains(&transit),
        "the withholding transit must be implicated"
    );
    result
}

/// The negative Chord eclipse row: the key's resolver mounts an Eclipse
/// attack and answers lookups with itself; `why_absent` of the *correct*
/// owner's result audits the routing candidates and surfaces the attacker.
fn chord_eclipse_neg() -> QueryResult {
    let nodes = if smoke() { 8 } else { 10 };
    let (mut tb, origin, attacker, correct) = chord::eclipse_scenario(nodes, 3);
    tb.run_until(SimTime::from_secs(60));
    let result = tb.querier.why_absent(correct).at(origin).run();
    assert!(
        result.implicated_nodes().contains(&attacker) || result.suspect_nodes().contains(&attacker),
        "the eclipse attacker must surface"
    );
    result
}

fn hadoop_squirrel() -> QueryResult {
    let scenario = if smoke() {
        MapReduceScenario {
            mappers: 4,
            reducers: 2,
            splits: 4,
            words_per_split: 50,
        }
    } else {
        MapReduceScenario {
            mappers: 8,
            reducers: 4,
            splits: 8,
            words_per_split: 200,
        }
    };
    let corrupt = NodeId(3);
    let mut tb = scenario.build(true, 7, Some(corrupt), 93);
    tb.run_until(SimTime::from_secs(60));
    let reducer = reducer_for("squirrel", &scenario.reducer_ids());
    let total = tb.handles[&reducer]
        .with(|n| n.current_tuples())
        .into_iter()
        .find(|t| t.relation == "reduceOut" && t.str_arg(0) == Some("squirrel"))
        .and_then(|t| t.int_arg(1))
        .expect("squirrel count");
    tb.querier
        .why_exists(reduce_out(reducer, "squirrel", total))
        .at(reducer)
        .run()
}

fn main() {
    println!("Figure 8 — query turnaround time and downloaded data (10 Mbps assumed)\n");
    let widths = [20, 12, 12, 10, 12, 10, 12, 8, 10, 10];
    print_row(
        [
            "query",
            "turnaround s",
            "auth-chk s",
            "replay s",
            "log B",
            "auth B",
            "chkpt B",
            "audits",
            "replayed",
            "skipped",
        ]
        .map(String::from)
        .as_ref(),
        &widths,
    );
    let (small, large): (u64, u64) = if smoke() { (12, 24) } else { (50, 250) };
    let rows = vec![
        report("Quagga-Disappear", &quagga_disappear(), &widths),
        report("Quagga-BadGadget", &quagga_badgadget(), &widths),
        report("Chord-Lookup (S)", &chord_lookup(small, None), &widths),
        report("Chord-Lookup (S+ckpt)", &chord_lookup(small, Some(10)), &widths),
        report("Chord-Lookup (L)", &chord_lookup(large, None), &widths),
        report("Hadoop-Squirrel", &hadoop_squirrel(), &widths),
        report("BGP-NoRoute (neg)", &bgp_blackhole_neg(), &widths),
        report("Chord-Eclipse (neg)", &chord_eclipse_neg(), &widths),
    ];
    println!(
        "\nExpected shape (paper): queries complete interactively (seconds); the\n\
         MapReduce query downloads and replays the most data; the BGP dynamic query\n\
         additionally pays for checkpoint verification.  The `+ckpt` row anchors at\n\
         the latest checkpoint: `skipped` entries were never downloaded nor\n\
         replayed, which is what makes audit cost proportional to the queried\n\
         window instead of total history.  The `(neg)` rows are negative queries\n\
         (`why_absent`): auditing an omission costs one audit per candidate\n\
         sender, so their audit counts exceed the positive rows' on the same\n\
         topology — the price of proving that nothing was withheld."
    );
    write_json(
        "BENCH_fig8.json",
        &Json::obj([
            ("figure", Json::str("fig8_query")),
            ("bandwidth_bps", Json::Num(BANDWIDTH_BPS)),
            ("queries", Json::Arr(rows)),
        ]),
    );
}
