//! Status monitoring use-case: periodic internal status of a running
//! device — per-stage packet counters, port statistics, table occupancy —
//! sampled over the register bus while traffic flows, including detection
//! of idle stages (dead logic or coverage holes).
//!
//! Run with: `cargo run --example status_monitor`

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::session::NetDebug;
use netdebug::usecases::resources::quantify;
use netdebug::usecases::status::monitor;
use netdebug_dataplane::{TableEntry, Update};
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

fn main() {
    println!("=== Status monitoring (IPv4 router under mixed traffic) ===\n");
    let mut dev = Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap();
    let route = TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]);
    dev.write(&[Update::Insert("ipv4_lpm", route)]).unwrap();
    let mut nd = NetDebug::new(dev);

    let routable = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
    .udp(1, 2)
    .payload(b"live traffic")
    .build();

    let traffic = StreamSpec {
        stream: 1,
        template: routable,
        count: 400,
        rate_pps: Some(2e6),
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Forward { port: Some(1) },
    };

    let timeline = monitor(&mut nd, &traffic, 8);
    println!("samples taken: {}", timeline.samples.len());
    println!(
        "\n{:<12} {:>10} {:>14} {:>14} {:>14}",
        "cycle", "injected", "parser:start", "ipv4_lpm", "egress"
    );
    for s in &timeline.samples {
        let stage = |name: &str| {
            s.stages
                .iter()
                .find(|(n, _)| n.contains(name))
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        println!(
            "{:<12} {:>10} {:>14} {:>14} {:>14}",
            s.at_cycle,
            s.injected,
            stage("parser:start"),
            stage("ipv4_lpm"),
            stage("egress"),
        );
    }

    println!("\nstage deltas over the run:");
    for (name, delta) in timeline.stage_deltas() {
        println!("  {name:<24} +{delta}");
    }
    let idle = timeline.idle_stages();
    if idle.is_empty() {
        println!("\nno idle stages — test traffic covered the whole pipeline");
    } else {
        println!("\nidle stages (never saw a packet): {idle:?}");
        println!("=> dead logic, or a hole in the test coverage");
    }

    // Table occupancy and hit/miss ratios from the last sample.
    let last = timeline.samples.last().unwrap();
    println!("\ntable status:");
    for (name, occ, cap, hits, misses) in &last.tables {
        println!("  {name}: {occ}/{cap} entries, {hits} hits, {misses} misses");
    }

    // The resources view of the same program (what the board spends on it).
    println!("\n=== Resources quantification (whole corpus) ===\n");
    let programs: Vec<(&str, &str)> = corpus::corpus()
        .iter()
        .map(|p| (p.name, p.source))
        .collect::<Vec<_>>();
    println!("{}", quantify(programs));
}
