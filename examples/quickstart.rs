//! Quickstart: deploy a P4 router on the simulated board, install routes,
//! and validate it with NetDebug — the end-to-end path of the paper's
//! Figure 1.
//!
//! Run with: `cargo run --example quickstart`

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::session::NetDebug;
use netdebug_dataplane::{TableEntry, Update};
use netdebug_hw::Backend;
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

fn main() {
    // 1. Compile the paper's case-study program (an IPv4 router whose
    //    parser rejects malformed packets) and deploy it on the simulated
    //    NetFPGA SUME with the *reference* (faithful) backend.
    let mut nd = NetDebug::deploy(&Backend::reference(), corpus::IPV4_FORWARD)
        .expect("deploys on the reference backend");

    println!("=== NetDebug quickstart ===");
    println!(
        "device: {} ports @ {:.0} MHz, program `{}` via `{}`",
        nd.device().config().ports,
        nd.device().config().core_clock_hz / 1e6,
        nd.device().compiled().program.name,
        nd.device().compiled().backend_name,
    );

    // The instantiated architecture (Figure 1): every pipeline stage has a
    // tap counter readable over the register bus.
    println!("\npipeline stages (tap points):");
    for name in nd.device().stage_names() {
        println!("  - {name}");
    }
    println!("\nregister map (first entries):");
    for (name, addr) in nd.device().reg_map().into_iter().take(8) {
        println!("  {addr:#06x}  {name}");
    }

    // 2. Install forwarding state through the control plane.
    let routes = [
        TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]),
    ];
    let batch = routes.map(|route| Update::Insert("ipv4_lpm", route));
    nd.device_mut().write(&batch).unwrap();
    println!("\ninstalled routes: 10.0.0.0/8 -> port 1, 10.1.0.0/16 -> port 2");

    // 3. Program two test streams: well-formed packets that must forward,
    //    and malformed packets (IPv4 version 5) that the parser must drop.
    let good = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 1, 2, 3))
    .udp(5000, 5001)
    .payload(b"netdebug quickstart")
    .build();
    let mut bad = good.clone();
    bad[14] = 0x55; // version 5

    let report = nd.run_session(&[
        StreamSpec {
            stream: 1,
            template: good,
            count: 1000,
            rate_pps: Some(5e6),
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Forward { port: Some(2) },
        },
        StreamSpec {
            stream: 2,
            template: bad,
            count: 1000,
            rate_pps: Some(5e6),
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Drop,
        },
    ]);

    // 4. Collect results over the register interface.
    println!("\n{report}");
    println!("per-stage tap counters after the session:");
    for (name, count) in nd
        .device()
        .stage_names()
        .to_vec()
        .iter()
        .zip(nd.device().stage_counts())
    {
        println!("  {name:<24} {count}");
    }

    assert!(report.passed, "reference hardware must pass");
    println!("\nverdict: the data plane behaves as specified. Try the");
    println!("`reject_bug_hunt` example to see what a buggy backend looks like.");
}
