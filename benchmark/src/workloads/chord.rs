//! `chord-anchored` — the same log/commit/query layers as `bgp-cold`, used
//! the other way: epochs seal every 10 s (Merkle checkpoint + machine
//! snapshot), all but two sealed epochs are truncated, and signatures are
//! batched per 100 ms window.  Audits restore from the latest checkpoint and
//! replay a short suffix, and the audit cache stays warm across queries.
//! Anything that speeds full-history replay must leave this workload flat,
//! and vice versa.
//!
//! Segments are *not* persisted here: 128 nodes sealing to a
//! `FileSegmentStore` issue thousands of fsyncs per replica, and on the
//! reference box the disk then sets `maint_inputs_per_s` (11 % spread
//! between runs).  `fleet-tcp` measures the store at a scale the disk
//! answers steadily.

use super::{Ask, Plan, State, Unscheduled};
use crate::oracle::Plant;
use snp_apps::chord::{self, ChordMachine, ChordRing, ChordScenario};
use snp_core::{Application, Deployment, MacroQuery, WorkloadEvent};
use snp_sim::rng::DetRng;
use snp_sim::{SimDuration, SimTime};

/// Calibrated replica count (see README, calibration record).
pub const REPLICAS: usize = 24;
/// Planted faults rotate through this many kinds.
pub const ROTATION: usize = 3;

const SCENARIO: ChordScenario = ChordScenario {
    nodes: 128,
    stabilize_every_s: 20,
    fix_fingers_every_s: 20,
    keepalive_every_s: 10,
    lookups_per_minute: 240,
    duration_s: 60,
};
const EPOCH_S: u64 = 10;
/// Lookups injected after the last seal; their results are what is queried.
/// Few enough, against 128 nodes, that the median query still audits at
/// least one node the warm cache has not seen.
const LATE_LOOKUPS: u64 = 36;
/// Request ids of the late lookups start here, clear of the scenario's.
const LATE_REQ_BASE: u64 = 1_000_000;

pub fn plan(sub_seed: u64, r: usize) -> Plan {
    let app = SCENARIO.app(None);
    let ring: ChordRing = app.ring.clone();
    let mut events: Vec<WorkloadEvent> = app.workload(sub_seed);

    // The late lookups start half a second after the last seal (clear of
    // clock skew, so every hop lands in every node's open epoch) and end
    // early enough for the slowest batched path to finish before the audit.
    let mut rng = DetRng::new(sub_seed).fork("chord-late");
    let last_seal_ms = SCENARIO.duration_s / EPOCH_S * EPOCH_S * 1_000;
    let mut late = Vec::new();
    for i in 0..LATE_LOOKUPS {
        #[allow(clippy::cast_possible_truncation)] // below `members.len()`
        let origin = ring.members[rng.next_below(ring.members.len() as u64) as usize].1;
        let key = rng.next_below(chord::ID_SPACE);
        let at = SimTime::from_millis(last_seal_ms + 500 + rng.next_below(1_500));
        let req = LATE_REQ_BASE + i;
        events.push(WorkloadEvent::insert(
            at,
            origin,
            chord::lookup(origin, key, origin, req),
        ));
        let (owner_id, owner) = ring.owner_of(key);
        late.push((origin, chord::lookup_result(origin, req, key, owner, owner_id)));
    }

    // The first late lookup's origin hosts the planted fault: its result
    // arrives after the last seal, so the suffix a tampering node serves is
    // never empty.  Fabrication at start is truncated away long before the
    // audit, so the rotation here is forge / refuse / tamper.
    let node = late[0].0;
    let plant = match r % ROTATION {
        0 => Plant::forge(node),
        1 => Plant::refuse(node),
        _ => Plant::tamper(node),
    };

    let asks = move |_: &State| {
        late.iter()
            .enumerate()
            .map(|(i, (origin, result))| {
                let ask = Ask::new(MacroQuery::WhyExists { tuple: result.clone() }, *origin);
                if i == 0 {
                    ask.targeted()
                } else {
                    ask
                }
            })
            .collect()
    };

    Plan {
        events,
        end: SimTime::from_millis(last_seal_ms + 5_000),
        plant,
        cold: false,
        deploy: Box::new(|| {
            Deployment::builder()
                .app(Unscheduled(SCENARIO.app(None)))
                .epoch_length(SimDuration::from_secs(EPOCH_S))
                .retain_epochs(2)
                .batch_window(SimDuration::from_millis(100))
        }),
        expected: Box::new(|id| Box::new(ChordMachine::new(id))),
        asks: Box::new(asks),
    }
}
