//! External-tester capture workflow: run a flow against the device and dump
//! everything the tester saw — both directions — to a Wireshark-readable
//! pcap file. Contrast the capture of a healthy deployment with a buggy
//! one: the pcap of the SDNet device contains frames that must not exist.
//!
//! Run with: `cargo run --example pcap_capture`

use netdebug_dataplane::{TableEntry, Update};
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder, PcapWriter};
use netdebug_tester::{run_flow_capturing, ExternalView, FlowSpec};
use std::fs::File;

fn router(backend: &Backend) -> Device {
    let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).unwrap();
    let route = TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]);
    dev.write(&[Update::Insert("ipv4_lpm", route)]).unwrap();
    dev
}

fn malformed() -> Vec<u8> {
    let mut f = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
    .udp(1111, 2222)
    .payload(b"must be dropped")
    .build();
    f[14] = 0x55;
    f
}

fn capture(backend: &Backend, path: &str) -> std::io::Result<u64> {
    let mut dev = router(backend);
    let mut view = ExternalView::attach(&mut dev);
    let mut pcap = PcapWriter::new(File::create(path)?)?;
    let report = run_flow_capturing(
        &mut view,
        &FlowSpec {
            template: malformed(),
            count: 20,
            ingress: 0,
            vary_byte: None,
        },
        &mut pcap,
    )?;
    let frames = pcap.packet_count();
    pcap.finish()?;
    println!(
        "{path}: {} frames captured (sent {}, device emitted {})",
        frames,
        report.sent,
        frames - report.sent as u64
    );
    Ok(frames)
}

fn main() -> std::io::Result<()> {
    println!("=== pcap capture: malformed traffic against two deployments ===\n");
    let reference = capture(&Backend::reference(), "/tmp/netdebug-reference.pcap")?;
    let buggy = capture(&Backend::sdnet_2018(), "/tmp/netdebug-sdnet2018.pcap")?;

    println!("\nreference capture: only the 20 transmitted frames (all dropped");
    println!("by the parser, nothing came back).");
    println!(
        "sdnet-2018 capture: {} frames — every malformed packet came",
        buggy
    );
    println!("back out. Open the files in Wireshark to inspect the evidence.");

    assert_eq!(reference, 20);
    assert_eq!(buggy, 40);
    Ok(())
}
