//! Differential device testing.
//!
//! The *comparison* use-case, and the engine behind silent-bug detection in
//! the *compiler check* use-case: run identical probe packets through two
//! deployments and diff everything NetDebug can see — the outcome, the
//! output bytes, the egress ports **and the per-stage tap counters**. The
//! stage diff is what external testers cannot do; it turns "these two
//! devices disagree" into "they diverge at `parser:parse_ipv4`".

use crate::probes::Probe;
use netdebug_hw::{Device, Outcome};
use serde::{Deserialize, Serialize};

/// One observed divergence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// Index of the probe that exposed it.
    pub probe_index: usize,
    /// Parser path the probe was steered at.
    pub probe_path: String,
    /// What differed.
    pub detail: String,
    /// Stages reached on device A.
    pub stages_a: Vec<String>,
    /// Stages reached on device B.
    pub stages_b: Vec<String>,
}

/// Result of a differential run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffReport {
    /// Probes whose behaviour matched.
    pub agreements: usize,
    /// Probes that diverged.
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// True when every probe agreed.
    pub fn equivalent(&self) -> bool {
        self.divergences.is_empty()
    }
}

pub(crate) fn stages_reached(dev: &mut Device, port: u16, data: &[u8]) -> (Outcome, Vec<String>) {
    let before: Vec<u64> = dev.stage_counts().to_vec();
    let processed = dev.inject(port, data);
    let after: Vec<u64> = dev.stage_counts().to_vec();
    let stages = dev
        .stage_names()
        .iter()
        .zip(before.iter().zip(&after))
        .filter(|(_, (b, a))| a > b)
        .map(|(n, _)| n.to_string())
        .collect();
    (processed.outcome, stages)
}

/// Describe how two observed behaviours differ, or `None` when they agree.
///
/// `stages_*` carry each device's internal view (full stage sets for
/// probe-at-a-time diffing, or just the last stage reached on the batched
/// fleet path) — what lets a divergence be *localised*, not just detected.
/// Shared by the pairwise [`diff_devices`] and the N-backend
/// [`crate::fleet::DifferentialFleet`].
pub(crate) fn outcome_divergence(
    out_a: &Outcome,
    out_b: &Outcome,
    stages_a: &[String],
    stages_b: &[String],
) -> Option<String> {
    match (out_a, out_b) {
        (Outcome::Dropped { reason: ra }, Outcome::Dropped { reason: rb }) => {
            if ra != rb {
                // Internal visibility: the devices' drop counters name
                // different reasons (e.g. "parser reject" vs
                // "mark_to_drop") even when the packet dies either way.
                Some(format!("drop reasons differ: {ra} vs {rb}"))
            } else if stages_a != stages_b {
                Some(format!("both drop ({ra}) but traverse different stages"))
            } else {
                None
            }
        }
        (Outcome::Dropped { reason }, Outcome::Tx { port, .. }) => {
            Some(format!("A drops ({reason}), B forwards to port {port}"))
        }
        (Outcome::Tx { port, .. }, Outcome::Dropped { reason }) => {
            Some(format!("A forwards to port {port}, B drops ({reason})"))
        }
        (Outcome::Tx { port: pa, data: da }, Outcome::Tx { port: pb, data: db }) => {
            if pa != pb {
                Some(format!("egress ports differ: {pa} vs {pb}"))
            } else if da != db {
                Some(format!(
                    "output bytes differ on port {pa} ({} vs {} bytes)",
                    da.len(),
                    db.len()
                ))
            } else if stages_a != stages_b {
                Some("same output but different internal path".to_string())
            } else {
                None
            }
        }
        (Outcome::Flood { data: da }, Outcome::Flood { data: db }) => {
            if da != db {
                Some(format!(
                    "flooded bytes differ ({} vs {} bytes)",
                    da.len(),
                    db.len()
                ))
            } else if stages_a != stages_b {
                Some("both flood but traverse different stages".to_string())
            } else {
                None
            }
        }
        (x, y) => Some(format!("outcome kinds differ: {x:?} vs {y:?}")),
    }
}

/// Run every probe through both devices and report divergences.
pub fn diff_devices(a: &mut Device, b: &mut Device, probes: &[Probe]) -> DiffReport {
    let mut divergences = Vec::new();
    let mut agreements = 0usize;
    for (i, probe) in probes.iter().enumerate() {
        let (out_a, stages_a) = stages_reached(a, 0, &probe.data);
        let (out_b, stages_b) = stages_reached(b, 0, &probe.data);
        let detail = outcome_divergence(&out_a, &out_b, &stages_a, &stages_b);
        match detail {
            Some(detail) => divergences.push(Divergence {
                probe_index: i,
                probe_path: probe.path.clone(),
                detail,
                stages_a,
                stages_b,
            }),
            None => agreements += 1,
        }
    }
    DiffReport {
        agreements,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::parser_path_probes;
    use netdebug_hw::Backend;
    use netdebug_p4::corpus;

    fn deploy(backend: &Backend, src: &str) -> Device {
        Device::deploy_source(backend, src).unwrap()
    }

    #[test]
    fn reference_vs_fixed_sdnet_equivalent() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let probes = parser_path_probes(&ir);
        let mut a = deploy(&Backend::reference(), corpus::IPV4_FORWARD);
        let mut b = deploy(&Backend::sdnet_fixed(), corpus::IPV4_FORWARD);
        let report = diff_devices(&mut a, &mut b, &probes);
        assert!(report.equivalent(), "{:#?}", report.divergences);
        assert_eq!(report.agreements, probes.len());
    }

    #[test]
    fn reference_vs_sdnet_2018_diverges_on_reject_paths_only() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let probes = parser_path_probes(&ir);
        let mut a = deploy(&Backend::reference(), corpus::IPV4_FORWARD);
        let mut b = deploy(&Backend::sdnet_2018(), corpus::IPV4_FORWARD);
        let report = diff_devices(&mut a, &mut b, &probes);
        assert!(!report.equivalent());
        for d in &report.divergences {
            assert!(
                probes[d.probe_index].hits_reject,
                "only reject-path probes diverge, got {:?}",
                d
            );
            // Either the internal path or the drop reason pinpoints it.
            assert!(
                d.stages_a != d.stages_b || d.detail.contains("reject"),
                "{d:?}"
            );
        }
    }

    #[test]
    fn comparing_a_program_against_itself_is_clean() {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let probes = parser_path_probes(&ir);
        let mut a = deploy(&Backend::reference(), corpus::L2_SWITCH);
        let mut b = deploy(&Backend::reference(), corpus::L2_SWITCH);
        let report = diff_devices(&mut a, &mut b, &probes);
        assert!(report.equivalent());
    }
}
