//! The paper's §4 case study, reproduced end to end: the Xilinx SDNet
//! toolchain silently failed to implement the P4 `reject` parser state, so
//! "any packet coming into the data plane was sent out to the next hop,
//! even if it was supposed to be dropped". Three tools look at the same
//! deployment:
//!
//! 1. **Spec-level formal verification** (the p4v role) — passes the
//!    program, because the program *is* correct;
//! 2. an **external tester** (the OSNT role) — notices a packet that should
//!    have died, but cannot say where or why;
//! 3. **NetDebug** — catches the violation on the first packet and
//!    localises it inside the parser.
//!
//! Run with: `cargo run --example reject_bug_hunt`

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::localize::localize;
use netdebug::session::NetDebug;
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netdebug_tester::{check_forwarding, ExternalView};
use netdebug_verify::verify;

fn malformed_packet() -> Vec<u8> {
    let mut f = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
    .udp(4000, 4001)
    .payload(b"should never reach the wire")
    .build();
    f[14] = 0x55; // IPv4 version=5: parse_ipv4 must take the reject edge
    f
}

fn main() {
    println!("=== Hunting the SDNet reject bug ===\n");

    // --- Step 1: formal verification of the specification -------------
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let report = verify(&ir);
    println!(
        "[p4v-style verifier] paths explored: {}",
        report.paths_explored
    );
    println!(
        "[p4v-style verifier] findings: {} — the program is {}",
        report.findings.len(),
        if report.verified() {
            "CORRECT"
        } else {
            "buggy"
        }
    );
    println!(
        "[p4v-style verifier] certifies {} parser reject path(s) drop packets\n",
        report.reject_paths
    );
    assert!(report.verified());

    // --- Step 2: deploy on the 2018 SDNet toolchain -------------------
    // The compile SUCCEEDS: the bug is silent.
    let mut device = Device::deploy(&Backend::sdnet_2018(), &ir).unwrap();
    device
        .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    println!(
        "[sdnet-2018] compile ok, {} LUTs, {} BRAM36 — no warnings, no errors\n",
        device.compiled().resources.total_luts(),
        device.compiled().resources.total_bram36()
    );

    // --- Step 3: the external tester's view ---------------------------
    let malformed = malformed_packet();
    {
        let mut view = ExternalView::attach(&mut device);
        match check_forwarding(&mut view, 0, &malformed, None) {
            Ok(()) => println!("[external tester] drop behaviour looks fine"),
            Err(e) => {
                println!("[external tester] FAILURE DETECTED: {e}");
                println!("[external tester] …but that is all it can say.\n");
            }
        }
    }

    // --- Step 4: NetDebug --------------------------------------------
    let mut nd = NetDebug::new(device);
    let session = nd.run_session(&[StreamSpec {
        stream: 1,
        template: malformed.clone(),
        count: 100,
        rate_pps: Some(1e6),
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Drop,
    }]);
    println!(
        "[netdebug] session verdict: {}",
        if session.passed { "PASS" } else { "FAIL" }
    );
    println!(
        "[netdebug] violations: {} (first: {:?})",
        session.violations.len(),
        session.violations.first().unwrap()
    );

    // Localisation: where does the packet actually go?
    let loc = localize(nd.device_mut(), 0, &malformed);
    println!("[netdebug] localisation: {loc}");

    // Contrast with the reference deployment.
    let mut reference = Device::deploy(&Backend::reference(), &ir).unwrap();
    reference
        .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    let ref_loc = localize(&mut reference, 0, &malformed);
    println!("[reference]  localisation: {ref_loc}");

    println!("\nconclusion: the specification is verified correct, yet the");
    println!("deployed data plane forwards packets it must drop. Only a tool");
    println!("inside the device — NetDebug — sees both the violation and the");
    println!("parser stage responsible. This reproduces the paper's §4 finding.");

    assert!(!session.passed);
    assert!(loc.forwarded && !ref_loc.forwarded);
}
