//! The verdict oracle: what a query's answer must be, given which node of
//! the replica was made Byzantine.  Because the guarantees are stated
//! against Byzantine nodes, a run that plants none cannot tell a faster
//! audit from one that stopped checking.

use snp_core::{ByzantineConfig, NodeId, QueryResult};
use snp_graph::vertex::Color;
use std::collections::BTreeSet;

/// The colour a planted fault must earn the node that commits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Tampering, forgery, fabrication: provable, so the node is implicated.
    Red,
    /// Refusal to answer: suspicious, never provable.
    Yellow,
}

/// The one Byzantine node of a replica.
#[derive(Clone, Debug)]
pub struct Plant {
    pub node: NodeId,
    pub config: ByzantineConfig,
    pub expect: Expect,
    pub label: &'static str,
}

impl Plant {
    pub fn tamper(node: NodeId) -> Plant {
        Plant {
            node,
            config: ByzantineConfig {
                tamper_log_drop_entry: Some(0),
                ..Default::default()
            },
            expect: Expect::Red,
            label: "tamper_log_drop_entry",
        }
    }

    pub fn refuse(node: NodeId) -> Plant {
        Plant {
            node,
            config: ByzantineConfig {
                refuse_retrieve: true,
                ..Default::default()
            },
            expect: Expect::Yellow,
            label: "refuse_retrieve",
        }
    }

    pub fn forge(node: NodeId) -> Plant {
        Plant {
            node,
            config: ByzantineConfig {
                forge_checkpoint_snapshot: true,
                ..Default::default()
            },
            expect: Expect::Red,
            label: "forge_checkpoint_snapshot",
        }
    }
}

/// Operations attempted and failed; an operation is one query or one
/// per-replica convergence check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failures failed.
    pub reasons: Vec<String>,
    pub red_verdicts: u64,
    pub yellow_verdicts: u64,
}

impl Ops {
    pub fn record(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{}: {reason}", what()));
            }
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.red_verdicts += other.red_verdicts;
        self.yellow_verdicts += other.yellow_verdicts;
        for reason in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

/// Nodes the *explanation* leaves in doubt: hosts of its non-black vertices
/// and nodes whose audit did not come back clean.  (`suspect_nodes()` on the
/// whole merged graph would also count the yellow send stubs every audited
/// partition keeps for senders the query had no reason to audit.)
fn explanation_suspects(result: &QueryResult) -> BTreeSet<NodeId> {
    let doubted = result.vertices().filter(|v| v.color != Color::Black).map(|v| v.host());
    let unclean = result
        .audits
        .values()
        .filter(|a| a.color != Color::Black)
        .map(|a| a.node);
    doubted.chain(unclean).collect()
}

/// What a query's answer is held to, beyond who it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Demand {
    /// Honest-only provenance must be `is_legitimate()`: anchored, all
    /// black, every leaf a base-tuple event.
    Legitimate,
    /// Anchored and all black, leaves unchecked — for explanations the
    /// application itself leaves open-ended (see `workloads::bgp`).
    Anchored,
    /// Chosen to pass through the planted node: not auditing that node is
    /// itself a failure (an audit that was skipped).
    Targeted,
}

/// Judge one query result.  Provenance that touched honest nodes only must
/// be legitimate and name nobody; provenance routed through the planted
/// node must name exactly that node — implicated for a provable fault,
/// merely suspect for a refusal — and no other.
pub fn judge(result: &QueryResult, plant: Option<&Plant>, demand: Demand, ops: &mut Ops) -> Result<(), String> {
    let implicated = result.implicated_nodes();
    let suspects = explanation_suspects(result);
    let through = plant.filter(|p| result.audits.contains_key(&p.node));
    let Some(plant) = through else {
        let sound = match demand {
            Demand::Targeted => return Err("targeted query never audited the planted node".into()),
            Demand::Legitimate => result.is_legitimate(),
            Demand::Anchored => result.root.is_some(),
        };
        if !sound {
            return Err(format!(
                "honest-only provenance is not legitimate (anchored: {}, implicated {implicated:?}, suspects {suspects:?})",
                result.root.is_some()
            ));
        }
        if !implicated.is_empty() || !suspects.is_empty() {
            return Err(format!(
                "honest nodes named: implicated {implicated:?}, suspects {suspects:?}"
            ));
        }
        return Ok(());
    };
    let only: BTreeSet<NodeId> = [plant.node].into();
    let (want_implicated, want_suspects) = match plant.expect {
        Expect::Red => {
            ops.red_verdicts += 1;
            (only.clone(), only)
        }
        Expect::Yellow => {
            ops.yellow_verdicts += 1;
            (BTreeSet::new(), only)
        }
    };
    if implicated != want_implicated || suspects != want_suspects {
        return Err(format!(
            "{} on {}: implicated {implicated:?} (want {want_implicated:?}), suspects {suspects:?} (want {want_suspects:?})",
            plant.label, plant.node
        ));
    }
    Ok(())
}
