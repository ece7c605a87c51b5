//! Experiment E6 — status-monitoring use-case: periodic internal counters
//! sampled over the register bus while the device forwards traffic.

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::session::NetDebug;
use netdebug::usecases::status::monitor;
use netdebug_bench::{banner, routable_frame, router_device};
use netdebug_hw::Backend;
use netdebug_packet::Ipv4Address;

fn main() {
    banner("E6: status monitoring timeline (IPv4 router, 800 packets)");
    let mut nd = NetDebug::new(router_device(&Backend::reference()));

    let traffic = StreamSpec {
        stream: 1,
        template: routable_frame(Ipv4Address::new(10, 0, 0, 9)),
        count: 800,
        rate_pps: Some(2e6),
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Forward { port: Some(1) },
    };
    let timeline = monitor(&mut nd, &traffic, 8);

    println!(
        "{:<14} {:>9} {:>14} {:>14} {:>10}",
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
            "{:<14} {:>9} {:>14} {:>14} {:>10}",
            s.at_cycle,
            s.injected,
            stage("parser:start"),
            stage("ipv4_lpm"),
            stage("egress")
        );
    }
    println!("\nstage deltas: {:?}", timeline.stage_deltas());
    println!("idle stages:  {:?}", timeline.idle_stages());

    let last = timeline.samples.last().unwrap();
    println!("\ntable status at end of run:");
    for (name, occ, cap, hits, misses) in &last.tables {
        println!("  {name}: {occ}/{cap} entries, {hits} hits, {misses} misses");
    }

    println!("\nshape check: counters advance monotonically with traffic, every");
    println!("pipeline stage is exercised, and the run needs zero host pcap —");
    println!("pure register reads, as the paper's status use-case describes.");
    assert_eq!(timeline.samples.len(), 9);
    assert!(timeline.idle_stages().is_empty());
}
