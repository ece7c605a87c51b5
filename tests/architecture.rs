//! F1 — Figure 1 structural invariants: the NetDebug architecture as
//! instantiated (generator + checker inside the device, parallel to live
//! traffic, host control over a dedicated interface).

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::session::NetDebug;
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, PacketBuilder};

fn reflector() -> Device {
    Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap()
}

fn frame() -> Vec<u8> {
    PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .payload(b"architecture")
    .build()
}

/// The internal injection path bypasses the MACs: port rx counters must not
/// move, yet the pipeline taps and egress MAC must.
#[test]
fn internal_path_bypasses_ingress_macs() {
    let mut dev = reflector();
    let p = dev.inject(3, &frame());
    assert!(p.outcome.transmitted());
    assert_eq!(dev.port_stats(3).rx_packets, 0, "no MAC rx on injection");
    assert_eq!(dev.port_stats(3).tx_packets, 1, "egress MAC used");
    let parser_tap = dev
        .stage_names()
        .iter()
        .position(|n| &**n == "parser:start")
        .unwrap();
    assert_eq!(dev.stage_counts()[parser_tap], 1, "pipeline saw the packet");
}

/// The external path pays both MAC traversals; the internal one does not.
#[test]
fn external_path_latency_includes_macs() {
    let mut dev = reflector();
    let ext = dev.rx(0, &frame());
    let int = dev.inject(0, &frame());
    assert!(ext.total_ns > int.total_ns + 2.0 * netdebug_hw::MAC_FIXED_NS - 1.0);
}

/// Test traffic and live traffic coexist: live packets keep flowing while a
/// NetDebug session runs, and the checker does not confuse the two (live
/// frames carry no test header and are only flagged if they appear where
/// only test traffic is expected — here they exit other ports).
#[test]
fn test_and_live_traffic_in_parallel() {
    let mut nd = NetDebug::new(reflector());
    // Live traffic through port 1 (external path).
    for _ in 0..10 {
        let p = nd.device_mut().rx(1, &frame());
        assert!(p.outcome.transmitted());
    }
    // Test stream through the internal path, impersonating port 2.
    let report = nd.run_session(&[StreamSpec {
        stream: 1,
        template: frame(),
        count: 10,
        rate_pps: None,
        as_port: 2,
        sweeps: vec![],
        expect: Expectation::Forward { port: Some(2) },
    }]);
    assert!(report.passed, "{report}");
    // Both kinds of traffic visible in port stats.
    assert_eq!(nd.device().port_stats(1).rx_packets, 10);
    assert_eq!(nd.device().port_stats(1).tx_packets, 10);
    assert_eq!(nd.device().port_stats(2).tx_packets, 10);
}

/// The "dedicated interface": everything the controller needs — port
/// stats, stage taps, device identity — is readable over the register bus,
/// and clearing works.
#[test]
fn register_bus_is_sufficient_for_collection() {
    let mut dev = reflector();
    dev.inject(0, &frame());
    let map = dev.reg_map();
    // Identity block.
    assert_eq!(dev.read_reg(0x0000), 0x5355_4D45);
    assert_eq!(dev.read_reg(0x0004), 4);
    // Every stage tap appears in the map and reads back.
    for stage in dev.stage_names().to_vec() {
        let (_, addr) = map
            .iter()
            .find(|(n, _)| *n == format!("stage:{stage}"))
            .expect("stage in map")
            .clone();
        assert_eq!(dev.read_reg(addr), 1, "{stage}");
    }
    dev.write_reg(0xFFFC, 0);
    for (_, addr) in map.iter().filter(|(n, _)| n.starts_with("stage:")) {
        assert_eq!(dev.read_reg(*addr), 0);
    }
}

/// The generator can impersonate any ingress port — programs keyed on
/// ingress_port see the impersonated value.
#[test]
fn generator_impersonates_ports() {
    let mut dev = Device::deploy_source(&Backend::reference(), corpus::FLOW_COUNTER).unwrap();
    dev.install_exact("fwd", vec![2], "forward", vec![3])
        .unwrap();
    dev.install_exact("fwd", vec![0], "forward", vec![1])
        .unwrap();
    let p = dev.inject(2, &frame());
    match p.outcome {
        netdebug_hw::Outcome::Tx { port, .. } => assert_eq!(port, 3),
        other => panic!("{other:?}"),
    }
    // Per-port counters attribute the packet to the impersonated port.
    assert_eq!(dev.counter("rx_pkts", 2).unwrap().0, 1);
    assert_eq!(dev.counter("rx_pkts", 0).unwrap().0, 0);
}

/// NetDebug validates data planes written in ANY language, as long as they
/// compile to the device: here, a pipeline built directly in IR (no P4),
/// standing in for "high level synthesis, C/C# and hardware description
/// languages" (§2).
#[test]
fn language_independence_ir_level_deployment() {
    use netdebug_p4::ast::MatchKind;
    use netdebug_p4::ir::*;

    // A hand-built IR program: parse one 2-byte header, forward to port 1.
    let program = Program {
        name: "hand-built".to_string(),
        headers: vec![HeaderLayout {
            name: "tag".into(),
            ty_name: "tag_t".into(),
            fields: vec![
                FieldLayout {
                    name: "kind".into(),
                    offset_bits: 0,
                    width_bits: 8,
                },
                FieldLayout {
                    name: "value".into(),
                    offset_bits: 8,
                    width_bits: 8,
                },
            ],
            bit_width: 16,
        }],
        metadata: vec![],
        locals: vec![],
        parser: ParseGraph {
            states: vec![ParseState {
                name: "start".into(),
                ops: vec![ParserOp::Extract(0)],
                transition: IrTransition::Accept,
            }],
        },
        controls: vec![ControlIr {
            name: "fwd".into(),
            body: vec![IrStmt::Op(Op::Assign(
                LValue::Std(StdField::EgressSpec),
                IrExpr::konst(1, 9),
            ))],
        }],
        deparse: vec![0],
        externs: vec![],
        tables: vec![],
        actions: vec![ActionIr {
            name: "NoAction".into(),
            control: String::new(),
            params: vec![],
            ops: vec![],
        }],
    };
    let _ = MatchKind::Exact; // (imported for symmetry with table-bearing IR)
    let mut dev = Device::deploy(&Backend::reference(), &program).unwrap();
    let p = dev.inject(0, &[0xAB, 0xCD, 1, 2, 3]);
    match p.outcome {
        netdebug_hw::Outcome::Tx { port, data } => {
            assert_eq!(port, 1);
            assert_eq!(data, vec![0xAB, 0xCD, 1, 2, 3]);
        }
        other => panic!("{other:?}"),
    }
}
