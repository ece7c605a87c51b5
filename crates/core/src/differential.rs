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

/// What one device showed for one probe: the outcome plus the internal
/// stages used to localise a divergence (the full stage set on the probe
/// path, the last stage reached on the fleet's window path).
pub(crate) type Observation = (Outcome, Vec<String>);

pub(crate) fn stages_reached(dev: &mut Device, port: u16, data: &[u8]) -> Observation {
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

/// Inject every probe into `dev`, one at a time so each probe's tap delta
/// is attributable, and keep what the device showed.
pub(crate) fn observe_probes(dev: &mut Device, probes: &[Probe]) -> Vec<Observation> {
    probes
        .iter()
        .map(|p| stages_reached(dev, 0, &p.data))
        .collect()
}

/// Describe how two observed behaviours differ, or `None` when they agree.
fn outcome_divergence(
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

/// The comparison loop, and the only one: the reference's observations
/// (taken once) against one member's, yielding `(index, detail)` for every
/// probe or packet on which the member diverges. [`diff_devices`], the
/// compiler check and [`crate::fleet::DifferentialFleet`] all diff
/// through here.
pub(crate) fn divergences<'a>(
    reference: &'a [Observation],
    member: &'a [Observation],
) -> impl Iterator<Item = (usize, String)> + 'a {
    reference.iter().zip(member).enumerate().filter_map(
        |(i, ((out_a, stages_a), (out_b, stages_b)))| {
            outcome_divergence(out_a, out_b, stages_a, stages_b).map(|detail| (i, detail))
        },
    )
}

/// [`divergences`] over two probe runs, as a [`DiffReport`].
pub(crate) fn diff_observations(
    a: &[Observation],
    b: &[Observation],
    probes: &[Probe],
) -> DiffReport {
    let divergences: Vec<Divergence> = divergences(a, b)
        .map(|(i, detail)| Divergence {
            probe_index: i,
            probe_path: probes[i].path.clone(),
            detail,
            stages_a: a[i].1.clone(),
            stages_b: b[i].1.clone(),
        })
        .collect();
    DiffReport {
        agreements: probes.len() - divergences.len(),
        divergences,
    }
}

/// Run every probe through both devices and report divergences.
pub fn diff_devices(a: &mut Device, b: &mut Device, probes: &[Probe]) -> DiffReport {
    diff_observations(
        &observe_probes(a, probes),
        &observe_probes(b, probes),
        probes,
    )
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
