//! Comparison use-case (§3, seventh bullet): "comparing alternative
//! specifications of the same program".
//!
//! NetDebug "can perform full comparisons, since it is able to run tests
//! related to all the discussed use-cases". This module compares two
//! deployments — same program on two backends, or two programs claimed to
//! be equivalent — across every observable axis: behaviour on probe
//! packets (with internal stage diffs), latency, and resource cost.

use crate::differential::{diff_devices, DiffReport};
use crate::probes::{parser_path_probes, Probe};
use netdebug_hw::{Backend, DeployError, Device};
use netdebug_p4::ir::Program;
use serde::{Deserialize, Serialize};

/// The full comparison verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Label of side A.
    pub a: String,
    /// Label of side B.
    pub b: String,
    /// Behavioural diff over parser-path probes.
    pub behaviour: DiffReport,
    /// Mean pipeline latency per probe (cycles): A then B.
    pub latency_cycles: (f64, f64),
    /// Resource totals (LUTs, BRAM36): A then B.
    pub resources: ((u64, u64), (u64, u64)),
}

impl ComparisonReport {
    /// True when behaviour is identical on every probe.
    pub fn behaviourally_equivalent(&self) -> bool {
        self.behaviour.equivalent()
    }
}

impl core::fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "comparison: {} vs {}", self.a, self.b)?;
        writeln!(
            f,
            "  behaviour: {} agreements, {} divergences{}",
            self.behaviour.agreements,
            self.behaviour.divergences.len(),
            if self.behaviour.equivalent() {
                " (equivalent)"
            } else {
                ""
            }
        )?;
        for d in self.behaviour.divergences.iter().take(5) {
            writeln!(
                f,
                "    probe[{}] {}: {}",
                d.probe_index, d.probe_path, d.detail
            )?;
        }
        writeln!(
            f,
            "  latency (mean cycles): {:.1} vs {:.1}",
            self.latency_cycles.0, self.latency_cycles.1
        )?;
        writeln!(
            f,
            "  resources (LUT/BRAM): {}/{} vs {}/{}",
            self.resources.0 .0, self.resources.0 .1, self.resources.1 .0, self.resources.1 .1
        )
    }
}

fn mean_probe_latency(dev: &mut Device, probes: &[Probe]) -> f64 {
    let sum: u64 = probes
        .iter()
        .map(|p| dev.inject(0, &p.data).pipeline_cycles)
        .sum();
    match probes.len() {
        0 => 0.0,
        n => sum as f64 / n as f64,
    }
}

/// The shared tail of both comparisons: behavioural diff, then mean probe
/// latency and resource totals, side A then side B.
fn compare(
    (a, mut dev_a): (String, Device),
    (b, mut dev_b): (String, Device),
    probes: &[Probe],
) -> ComparisonReport {
    let behaviour = diff_devices(&mut dev_a, &mut dev_b, probes);
    let latency_cycles = (
        mean_probe_latency(&mut dev_a, probes),
        mean_probe_latency(&mut dev_b, probes),
    );
    let totals = |dev: &Device| {
        let res = &dev.compiled().resources;
        (res.total_luts(), res.total_bram36())
    };
    ComparisonReport {
        a,
        b,
        behaviour,
        latency_cycles,
        resources: (totals(&dev_a), totals(&dev_b)),
    }
}

fn source_error(e: netdebug_p4::Diag) -> DeployError {
    DeployError {
        messages: vec![e.to_string()],
    }
}

/// One side of a comparison: `program` deployed on `backend`, labelled.
fn side(backend: &Backend, program: &Program) -> Result<(String, Device), DeployError> {
    let label = format!("{}@{}", program.name, backend.name());
    Ok((label, Device::deploy(backend, program)?))
}

/// Compare one program deployed on two backends.
pub fn compare_backends(
    source: &str,
    a: &Backend,
    b: &Backend,
) -> Result<ComparisonReport, DeployError> {
    let ir = netdebug_p4::compile(source).map_err(source_error)?;
    let probes = parser_path_probes(&ir);
    Ok(compare(side(a, &ir)?, side(b, &ir)?, &probes))
}

/// Compare two programs (claimed equivalent) on the same backend. Probes
/// are drawn from *both* parsers so either side's paths are exercised.
pub fn compare_programs(
    source_a: &str,
    source_b: &str,
    backend: &Backend,
) -> Result<ComparisonReport, DeployError> {
    let ir_a = netdebug_p4::compile(source_a).map_err(source_error)?;
    let ir_b = netdebug_p4::compile(source_b).map_err(source_error)?;
    let mut probes = parser_path_probes(&ir_a);
    probes.extend(parser_path_probes(&ir_b));
    Ok(compare(
        side(backend, &ir_a)?,
        side(backend, &ir_b)?,
        &probes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;

    #[test]
    fn reference_vs_sdnet_2018_differs_behaviourally() {
        let report = compare_backends(
            corpus::IPV4_FORWARD,
            &Backend::reference(),
            &Backend::sdnet_2018(),
        )
        .unwrap();
        assert!(!report.behaviourally_equivalent());
        let text = report.to_string();
        assert!(text.contains("divergences"));
    }

    #[test]
    fn reference_vs_fixed_sdnet_equivalent_but_latency_comparable() {
        let report = compare_backends(
            corpus::IPV4_FORWARD,
            &Backend::reference(),
            &Backend::sdnet_fixed(),
        )
        .unwrap();
        assert!(report.behaviourally_equivalent());
        assert!((report.latency_cycles.0 - report.latency_cycles.1).abs() < 1e-9);
        assert_eq!(report.resources.0, report.resources.1);
    }

    #[test]
    fn equivalent_reformulation_passes_inequivalent_fails() {
        // Same reflector semantics written with a temporary local instead
        // of metadata.
        let alt_reflector = r#"
            header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
            struct headers_t { ethernet_t ethernet; }
            struct metadata_t { bit<1> u; }
            parser P2(packet_in pkt, out headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
                state start { pkt.extract(hdr.ethernet); transition accept; }
            }
            control I2(inout headers_t hdr, inout metadata_t meta,
                       inout standard_metadata_t standard_metadata) {
                apply {
                    bit<48> tmp = hdr.ethernet.dstAddr;
                    hdr.ethernet.dstAddr = hdr.ethernet.srcAddr;
                    hdr.ethernet.srcAddr = tmp;
                    standard_metadata.egress_spec = standard_metadata.ingress_port;
                }
            }
            control D2(packet_out pkt, in headers_t hdr) {
                apply { pkt.emit(hdr.ethernet); }
            }
            V1Switch(P2(), I2(), D2()) main;
        "#;
        let report =
            compare_programs(corpus::REFLECTOR, alt_reflector, &Backend::reference()).unwrap();
        assert!(
            report.behaviourally_equivalent(),
            "{:#?}",
            report.behaviour.divergences
        );

        // A subtly different program (does not swap MACs) is caught.
        let broken = alt_reflector.replace(
            "hdr.ethernet.dstAddr = hdr.ethernet.srcAddr;",
            "hdr.ethernet.dstAddr = tmp;",
        );
        let report = compare_programs(corpus::REFLECTOR, &broken, &Backend::reference()).unwrap();
        assert!(!report.behaviourally_equivalent());
        assert!(report.behaviour.divergences[0]
            .detail
            .contains("bytes differ"));
    }
}
