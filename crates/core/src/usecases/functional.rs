//! Functional testing use-case (§3, first bullet).
//!
//! Directed test vectors: each names a packet, an impersonated ingress
//! port, and the expected data-plane behaviour. Failures are localised via
//! the stage taps automatically — this is the workflow the paper's §4 case
//! study describes.

use crate::checker::Violation;
use crate::generator::{Expectation, StreamSpec};
use crate::localize::{localize, Localization};
use crate::session::NetDebug;
use serde::{Deserialize, Serialize};

/// One directed functional test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestVector {
    /// Name shown in reports.
    pub name: String,
    /// Ingress port to impersonate.
    pub as_port: u16,
    /// Packet bytes.
    pub packet: Vec<u8>,
    /// Expected behaviour.
    pub expect: Expectation,
}

/// Result of one vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorResult {
    /// Vector name.
    pub name: String,
    /// True if behaviour matched the expectation.
    pub passed: bool,
    /// What went wrong, when it did.
    pub detail: Option<String>,
    /// Localisation of the failure (from a follow-up probe).
    pub localization: Option<Localization>,
}

/// Aggregated functional report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionalReport {
    /// Per-vector results.
    pub results: Vec<VectorResult>,
}

impl FunctionalReport {
    /// Number of passing vectors.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.passed).count()
    }

    /// Number of failing vectors.
    pub fn failed(&self) -> usize {
        self.results.len() - self.passed()
    }

    /// True when everything passed.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }
}

impl core::fmt::Display for FunctionalReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "functional: {}/{} vectors passed",
            self.passed(),
            self.results.len()
        )?;
        for r in &self.results {
            if !r.passed {
                writeln!(
                    f,
                    "  FAIL {}: {}{}",
                    r.name,
                    r.detail.as_deref().unwrap_or("mismatch"),
                    match &r.localization {
                        Some(l) => format!(" [{l}]"),
                        None => String::new(),
                    }
                )?;
            }
        }
        Ok(())
    }
}

/// Run a batch of vectors through NetDebug.
pub fn run(nd: &mut NetDebug, vectors: &[TestVector]) -> FunctionalReport {
    let mut results = Vec::with_capacity(vectors.len());
    for (i, vector) in vectors.iter().enumerate() {
        let stream = 0x4000 + i as u16;
        let violations_before = nd.checker().violations().len();
        nd.run_stream(&StreamSpec {
            stream,
            template: vector.packet.clone(),
            count: 1,
            rate_pps: None,
            as_port: vector.as_port,
            sweeps: Vec::new(),
            expect: vector.expect,
        });
        let new_violations: Vec<Violation> =
            nd.checker().violations()[violations_before..].to_vec();
        let stats = nd.checker().stream(stream).cloned().unwrap_or_default();
        let lost_unexpectedly =
            matches!(vector.expect, Expectation::Forward { .. }) && stats.received == 0;
        let passed = new_violations.is_empty() && !lost_unexpectedly;
        let (detail, localization) = if passed {
            (None, None)
        } else {
            let detail = if let Some(v) = new_violations.first() {
                format!("{v:?}")
            } else {
                "packet lost".to_string()
            };
            // Follow-up probe through the stage taps pinpoints the fault.
            let loc = localize(nd.device_mut(), vector.as_port, &vector.packet);
            (Some(detail), Some(loc))
        };
        results.push(VectorResult {
            name: vector.name.clone(),
            passed,
            detail,
            localization,
        });
    }
    FunctionalReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_dataplane::{TableEntry, Update};
    use netdebug_hw::{Backend, Device};
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn vectors() -> Vec<TestVector> {
        let mk = |version: u8, dst: Ipv4Address| {
            let mut f = PacketBuilder::ethernet(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
            .udp(1, 2)
            .build();
            f[14] = (version << 4) | 5;
            f
        };
        vec![
            TestVector {
                name: "routed packet forwards".into(),
                as_port: 0,
                packet: mk(4, Ipv4Address::new(10, 0, 0, 5)),
                expect: Expectation::Forward { port: Some(1) },
            },
            TestVector {
                name: "unroutable packet drops".into(),
                as_port: 0,
                packet: mk(4, Ipv4Address::new(192, 168, 0, 1)),
                expect: Expectation::Drop,
            },
            TestVector {
                name: "malformed version drops (reject)".into(),
                as_port: 0,
                packet: mk(5, Ipv4Address::new(10, 0, 0, 5)),
                expect: Expectation::Drop,
            },
        ]
    }

    fn device(backend: &Backend) -> Device {
        let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).unwrap();
        let route = TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]);
        dev.write(&[Update::Insert("ipv4_lpm", route)]).unwrap();
        dev
    }

    #[test]
    fn reference_passes_all_vectors() {
        let mut nd = NetDebug::new(device(&Backend::reference()));
        let report = run(&mut nd, &vectors());
        assert!(report.all_passed(), "{report}");
        assert_eq!(report.passed(), 3);
    }

    #[test]
    fn sdnet_fails_reject_vector_with_localisation() {
        let mut nd = NetDebug::new(device(&Backend::sdnet_2018()));
        let report = run(&mut nd, &vectors());
        assert_eq!(report.failed(), 1, "{report}");
        let failure = report.results.iter().find(|r| !r.passed).unwrap();
        assert!(failure.name.contains("malformed"));
        assert!(failure
            .detail
            .as_deref()
            .unwrap()
            .contains("ForwardedButExpectedDrop"));
        // Localisation shows the packet sailing to egress — combined with
        // the expectation this indicts the parser's reject handling.
        let loc = failure.localization.as_ref().unwrap();
        assert!(loc.forwarded);
        assert_eq!(loc.deepest, "egress");
        let text = report.to_string();
        assert!(text.contains("FAIL"));
    }
}
