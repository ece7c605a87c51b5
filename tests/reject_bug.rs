//! E1 — the paper's §4 case study, pinned as an integration test: the
//! SDNet backend silently drops the `reject` parser state; the spec-level
//! verifier cannot see it; the external tester sees it but cannot localise;
//! NetDebug detects it on the first packet and points into the parser.

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::localize::localize;
use netdebug::session::NetDebug;
use netdebug::Violation;
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netdebug_tester::{check_forwarding, ExternalView};
use netdebug_verify::verify;

fn malformed() -> Vec<u8> {
    let mut f = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
    .udp(7, 8)
    .payload(b"must die in the parser")
    .build();
    f[14] = 0x55;
    f
}

fn deploy(backend: &Backend) -> Device {
    let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).unwrap();
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    dev
}

/// Step 1 of the narrative: the program is *correct* — formal verification
/// passes and certifies the reject path.
#[test]
fn spec_level_verification_passes_the_program() {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let report = verify(&ir);
    assert!(report.verified(), "{:#?}", report.findings);
    assert!(report.reject_paths > 0);
    assert!(report.spec_reject_drops);
}

/// Step 2: the same program deployed via SDNet forwards the packet it must
/// drop, while the reference drops it — the defect is in the toolchain,
/// not the program.
#[test]
fn sdnet_forwards_what_reference_drops() {
    let mut reference = deploy(&Backend::reference());
    let mut sdnet = deploy(&Backend::sdnet_2018());
    let pkt = malformed();
    assert!(!reference.inject(0, &pkt).outcome.transmitted());
    assert!(sdnet.inject(0, &pkt).outcome.transmitted());
}

/// Step 3: NetDebug catches the violation on the very first packet — the
/// paper: "Our framework immediately detected this severe bug".
#[test]
fn netdebug_detects_immediately_and_localises() {
    let mut nd = NetDebug::new(deploy(&Backend::sdnet_2018()));
    let report = nd.run_session(&[StreamSpec {
        stream: 1,
        template: malformed(),
        count: 1, // ONE packet suffices
        rate_pps: None,
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Drop,
    }]);
    assert!(!report.passed);
    assert_eq!(report.violations.len(), 1);
    assert!(matches!(
        report.violations[0],
        Violation::ForwardedButExpectedDrop { seq: 0, .. }
    ));

    // Localisation: on the buggy device the probe reaches egress; on the
    // reference it vanishes inside the parser. The contrast indicts the
    // parser's reject handling.
    let buggy_loc = localize(nd.device_mut(), 0, &malformed());
    assert!(buggy_loc.forwarded);
    let mut reference = deploy(&Backend::reference());
    let ref_loc = localize(&mut reference, 0, &malformed());
    assert!(!ref_loc.forwarded);
    assert_eq!(ref_loc.deepest, "parser:parse_ipv4");
    assert_eq!(ref_loc.vanished_before.as_deref(), Some("table:ipv4_lpm"));
}

/// The external tester detects the symptom but its report carries no
/// internal information — "partial" in Figure 2.
#[test]
fn external_tester_detects_but_cannot_localise() {
    let mut dev = deploy(&Backend::sdnet_2018());
    let mut view = ExternalView::attach(&mut dev);
    let err = check_forwarding(&mut view, 0, &malformed(), None).unwrap_err();
    assert!(err.contains("expected the device to drop"));
    assert!(!err.contains("parser"), "no stage info externally: {err}");
}

/// Well-formed traffic is identical on both backends — the bug is silent
/// until a malformed packet arrives, which is why it survived testing.
#[test]
fn bug_is_silent_on_well_formed_traffic() {
    let mut reference = deploy(&Backend::reference());
    let mut sdnet = deploy(&Backend::sdnet_2018());
    let mut good = malformed();
    good[14] = 0x45; // version 4: well-formed
    let a = reference.inject(0, &good);
    let b = sdnet.inject(0, &good);
    match (a.outcome, b.outcome) {
        (
            netdebug_hw::Outcome::Tx { port: pa, data: da },
            netdebug_hw::Outcome::Tx { port: pb, data: db },
        ) => {
            assert_eq!(pa, pb);
            assert_eq!(da, db);
        }
        other => panic!("{other:?}"),
    }
}

/// The "vendor fix" closes the hole: sdnet-fixed behaves like the
/// reference on the malformed corpus.
#[test]
fn fixed_backend_passes_the_same_session() {
    let mut nd = NetDebug::new(deploy(&Backend::sdnet_fixed()));
    let report = nd.run_session(&[StreamSpec {
        stream: 1,
        template: malformed(),
        count: 50,
        rate_pps: None,
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Drop,
    }]);
    assert!(report.passed, "{report}");
}
