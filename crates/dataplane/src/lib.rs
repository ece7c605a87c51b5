//! Reference interpreter for the NetDebug pipeline IR.
//!
//! This crate is the *specification oracle* of the reproduction: it executes
//! compiled P4 programs with P4-16 semantics, faithfully — in particular the
//! `reject` parser transition **drops** packets here, which is the behaviour
//! the paper's SDNet backend got wrong. The hardware device model in
//! `netdebug-hw` embeds this interpreter and then (deliberately) perturbs
//! it; NetDebug's job is to detect the difference.
//!
//! Two engines implement the semantics ([`Engine`]): the default flat
//! bytecode engine compiled at load time ([`compile`]) and the
//! reference engine — `netdebug_p4::walk`'s IR walker over concrete values
//! — it is differentially validated against, bit for bit, by the parity
//! property tests. The lowering's output is checked once at load (one
//! value-stack depth per instruction) and can be inspected with
//! [`Dataplane::disassemble`].
//!
//! ```
//! use netdebug_dataplane::Dataplane;
//! use netdebug_packet::{PacketBuilder, EthernetAddress};
//!
//! let ir = netdebug_p4::compile(netdebug_p4::corpus::REFLECTOR).unwrap();
//! let mut dp = Dataplane::new(ir);
//! let frame = PacketBuilder::ethernet(
//!     EthernetAddress::new(2, 0, 0, 0, 0, 1),
//!     EthernetAddress::new(2, 0, 0, 0, 0, 2),
//! ).payload(b"hi").build();
//! let (verdict, trace) = dp.process(3, &frame, 0);
//! assert!(verdict.is_forwarded());          // reflected…
//! assert_eq!(trace.states_visited(), ["start"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod cache;
pub mod compile;
pub mod control;
pub mod disasm;
pub mod externs;
pub mod interp;
pub mod table;
pub mod trace;

pub use cache::CacheStats;
pub use compile::CompiledProgram;
pub use control::{ControlError, ControlPlane, TableEntry, Update};
pub use disasm::Disassembly;
pub use externs::MeterConfig;
pub use interp::{Dataplane, DataplaneCheckpoint, Engine, FLOOD_PORT};
pub use table::{
    lpm_pattern, EntrySnapshot, LookupIndex, RuntimeEntry, TableError, TableState, TableStats,
};
pub use trace::{
    DropReason, EgressFrame, LazyTrace, NullSink, Stage, Trace, TraceEvent, TraceName, TraceSink,
    Verdict, VerdictSummary,
};

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;
    use netdebug_p4::ir::IrPattern;
    use netdebug_packet::tcp::TcpFlags;
    use netdebug_packet::*;

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
    }

    fn ipv4_frame(dst: Ipv4Address, ttl: u8) -> Vec<u8> {
        let (s, d) = macs();
        PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
            .ttl(ttl)
            .udp(1000, 2000)
            .payload(b"payload")
            .build()
    }

    fn router() -> Dataplane {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let dp = Dataplane::new(ir);
        // 10.0.0.0/8 -> port 1, 10.1.0.0/16 -> port 2.
        dp.control_plane()
            .write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
            )])
            .unwrap();
        dp.control_plane()
            .write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]),
            )])
            .unwrap();
        dp
    }

    #[test]
    fn a_prefix_longer_than_the_key_is_rejected() {
        let dp = router();
        let cp = dp.control_plane();
        let before = cp.epoch("ipv4_lpm").unwrap();
        assert_eq!(
            cp.write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0A01_0203, 33, "ipv4_forward", vec![0xCC, 3])
            )]),
            Err(ControlError::Table(TableError::BadPattern))
        );
        assert_eq!(cp.epoch("ipv4_lpm").unwrap(), before);
        assert_eq!(cp.occupancy("ipv4_lpm").unwrap().0, 2);
        // A /32 is the longest a 32-bit key takes.
        cp.write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A01_0203, 32, "ipv4_forward", vec![0xCC, 3]),
        )])
        .unwrap();
    }

    #[test]
    fn reflector_swaps_and_bounces() {
        let ir = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let mut dp = Dataplane::new(ir);
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d).payload(b"x").build();
        let (verdict, _) = dp.process(2, &frame, 0);
        match verdict {
            Verdict::Forward { port, data } => {
                assert_eq!(port, 2, "must bounce out of the ingress port");
                let eth = EthernetFrame::new_checked(&data[..]).unwrap();
                assert_eq!(eth.dst_addr(), s, "MACs must be swapped");
                assert_eq!(eth.src_addr(), d);
                assert_eq!(eth.payload(), b"x");
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn router_longest_prefix_and_ttl() {
        let mut dp = router();
        let (verdict, trace) = dp.process(0, &ipv4_frame(Ipv4Address::new(10, 1, 2, 3), 64), 0);
        match verdict {
            Verdict::Forward { port, data } => {
                assert_eq!(port, 2, "10.1/16 must win over 10/8");
                let eth = EthernetFrame::new_checked(&data[..]).unwrap();
                let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
                assert_eq!(ip.ttl(), 63, "TTL must be decremented");
                assert_eq!(
                    eth.dst_addr(),
                    EthernetAddress::new(0, 0, 0, 0, 0, 0xBB),
                    "next-hop MAC rewritten from action arg"
                );
            }
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(trace.tables_applied(), ["ipv4_lpm"]);
        assert_eq!(trace.states_visited(), ["start", "parse_ipv4"]);

        let (verdict, _) = dp.process(0, &ipv4_frame(Ipv4Address::new(10, 9, 9, 9), 64), 0);
        assert!(matches!(verdict, Verdict::Forward { port: 1, .. }));
    }

    #[test]
    fn router_drops_on_miss_ttl_zero_and_non_ip() {
        let mut dp = router();
        // Miss -> default drop action.
        let (v, _) = dp.process(0, &ipv4_frame(Ipv4Address::new(192, 168, 0, 1), 64), 0);
        assert_eq!(v, Verdict::Drop(DropReason::ActionDrop));
        // TTL zero dropped before the table.
        let (v, t) = dp.process(0, &ipv4_frame(Ipv4Address::new(10, 0, 0, 5), 0), 0);
        assert_eq!(v, Verdict::Drop(DropReason::ActionDrop));
        assert!(t.tables_applied().is_empty());
        // Non-IP accepted by parser but dropped by the invalid-header branch.
        let (s, d) = macs();
        let arp = PacketBuilder::ethernet(s, d)
            .ethertype(EtherType::Arp)
            .payload(&[0u8; 28])
            .build();
        let (v, _) = dp.process(0, &arp, 0);
        assert_eq!(v, Verdict::Drop(DropReason::ActionDrop));
    }

    #[test]
    fn router_rejects_bad_version() {
        let mut dp = router();
        let mut frame = ipv4_frame(Ipv4Address::new(10, 0, 0, 5), 64);
        frame[14] = 0x55; // version 5
        let (v, t) = dp.process(0, &frame, 0);
        assert_eq!(
            v,
            Verdict::Drop(DropReason::ParserReject),
            "P4-16 semantics: reject drops the packet"
        );
        assert!(t.parser_rejected());
    }

    #[test]
    fn short_packet_rejected() {
        let mut dp = router();
        let frame = ipv4_frame(Ipv4Address::new(10, 0, 0, 5), 64);
        let (v, _) = dp.process(0, &frame[..20], 0); // eth + 6 bytes of ipv4
        assert_eq!(v, Verdict::Drop(DropReason::PacketTooShort));
    }

    #[test]
    fn l2_switch_floods_and_forwards() {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let mut dp = Dataplane::new(ir);
        let (s, d) = macs();
        let mac_as_u128 = |m: &EthernetAddress| {
            m.as_bytes()
                .iter()
                .fold(0u128, |acc, b| (acc << 8) | u128::from(*b))
        };
        dp.install(
            "dmac",
            vec![IrPattern::Value(mac_as_u128(&d))],
            "forward",
            vec![3],
            0,
        )
        .unwrap();
        let frame = PacketBuilder::ethernet(s, d).payload(b"k").build();
        let (v, _) = dp.process(0, &frame, 0);
        assert!(matches!(v, Verdict::Forward { port: 3, .. }));
        // Unknown destination floods.
        let unknown = PacketBuilder::ethernet(s, EthernetAddress::new(9, 9, 9, 9, 9, 9))
            .payload(b"k")
            .build();
        let (v, _) = dp.process(0, &unknown, 0);
        assert!(matches!(v, Verdict::Flood { .. }));
        // Per-port rx counter counted both packets on port 0.
        assert_eq!(dp.counter("port_rx", 0).unwrap().0, 2);
    }

    #[test]
    fn enabling_an_enabled_flow_cache_keeps_entries_and_counters() {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let mut dp = Dataplane::new(ir);
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d).payload(b"k").build();
        for _ in 0..8 {
            dp.process_untraced(0, &frame, 0);
        }
        let before = dp.cache_stats();
        assert!(before.hits > 0 && before.occupancy > 0, "{before:?}");
        dp.set_flow_cache(true);
        assert_eq!(dp.cache_stats(), before, "re-enabling must be a no-op");
        dp.process_untraced(0, &frame, 0);
        assert_eq!(dp.cache_stats().hits, before.hits + 1, "entry survived");
        // Disabling still drops everything; re-enabling then starts cold.
        dp.set_flow_cache(false);
        dp.set_flow_cache(true);
        assert_eq!(dp.cache_stats().hits, 0);
        assert_eq!(dp.cache_stats().occupancy, 0);
    }

    /// A flow-cache hit's trace is read in place from its entry for that
    /// packet only: whatever path the next packet takes — the reference
    /// engine, which skips the cache, or a traced miss after an untraced
    /// hit — its trace is its own.
    #[test]
    fn a_hit_trace_never_outlives_its_packet() {
        let hot = ipv4_frame(Ipv4Address::new(10, 1, 2, 3), 64);
        let mut rejected = hot.clone();
        rejected[14] = 0x55;
        let missed = ipv4_frame(Ipv4Address::new(192, 168, 0, 1), 64);
        let own = |frame: &[u8]| {
            let mut dp = router();
            dp.set_engine(Engine::Reference);
            dp.process(0, frame, 0).1
        };
        let mut dp = router();
        for _ in 0..2 {
            dp.process(0, &hot, 0);
        }
        // 1. A traced hit.
        let hits = dp.cache_stats().hits;
        assert_eq!(dp.process(0, &hot, 0).1, own(&hot));
        assert_eq!(dp.cache_stats().hits, hits + 1);
        // 2-3. The reference engine skips the cache; its trace is its own.
        dp.set_engine(Engine::Reference);
        assert_eq!(dp.process(0, &rejected, 0).1, own(&rejected));
        // 4. An untraced hit has no trace.
        dp.set_engine(Engine::Compiled);
        dp.set_tracing(false);
        assert_eq!(dp.process_batch(&[(0, &hot)], 0)[0].1, None);
        assert_eq!(dp.cache_stats().hits, hits + 2);
        // 5. A traced miss records its own.
        dp.set_tracing(true);
        let misses = dp.cache_stats().misses;
        let traced = dp.process_batch(&[(0, &missed)], 0);
        assert_eq!(traced[0].1, Some(own(&missed)));
        assert_eq!(dp.cache_stats().misses, misses + 1);
    }

    #[test]
    fn acl_firewall_ternary_rules() {
        let ir = netdebug_p4::compile(corpus::ACL_FIREWALL).unwrap();
        let mut dp = Dataplane::new(ir);
        // Allow 10.0.0.0/8 -> anywhere, TCP, port 443.
        dp.install(
            "acl",
            vec![
                netdebug_p4::ir::IrPattern::Mask {
                    value: 0x0A00_0000,
                    mask: 0xFF00_0000,
                },
                netdebug_p4::ir::IrPattern::Any,
                netdebug_p4::ir::IrPattern::Value(6),
                netdebug_p4::ir::IrPattern::Value(443),
            ],
            "allow",
            vec![2],
            10,
        )
        .unwrap();
        let (s, d) = macs();
        let allowed = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Address::new(10, 5, 5, 5), Ipv4Address::new(1, 2, 3, 4))
            .tcp(
                50000,
                443,
                1,
                TcpFlags {
                    syn: true,
                    ..TcpFlags::default()
                },
            )
            .build();
        let (v, _) = dp.process(0, &allowed, 0);
        assert!(matches!(v, Verdict::Forward { port: 2, .. }));

        let blocked = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Address::new(11, 5, 5, 5), Ipv4Address::new(1, 2, 3, 4))
            .tcp(50000, 443, 1, TcpFlags::default())
            .build();
        let (v, _) = dp.process(0, &blocked, 0);
        assert_eq!(v, Verdict::Drop(DropReason::ActionDrop));
        // The drop counter fired once, on ingress port 0.
        assert_eq!(dp.counter("acl_drops", 0).unwrap().0, 1);
    }

    #[test]
    fn flow_counter_accumulates_bytes() {
        let ir = netdebug_p4::compile(corpus::FLOW_COUNTER).unwrap();
        let mut dp = Dataplane::new(ir);
        dp.install("fwd", vec![IrPattern::Value(0)], "forward", vec![1], 0)
            .unwrap();
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d).payload(&[0u8; 50]).build();
        let len = frame.len() as u128;
        for _ in 0..3 {
            let (v, _) = dp.process(0, &frame, 0);
            assert!(v.is_forwarded());
        }
        assert_eq!(dp.register("rx_bytes", 0).unwrap(), 3 * len);
        assert_eq!(dp.counter("rx_pkts", 0).unwrap().0, 3);
    }

    #[test]
    fn rate_limiter_drops_red() {
        let ir = netdebug_p4::compile(corpus::RATE_LIMITER).unwrap();
        let mut dp = Dataplane::new(ir);
        dp.install("fwd", vec![IrPattern::Value(0)], "forward", vec![1], 0)
            .unwrap();
        dp.configure_meter(
            "port_meter",
            0,
            MeterConfig {
                cir_per_mcycle: 1,
                cbs: 2,
                pir_per_mcycle: 1,
                pbs: 2,
            },
        )
        .unwrap();
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d).payload(b"x").build();
        let mut forwarded = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match dp.process(0, &frame, 1).0 {
                Verdict::Forward { .. } => forwarded += 1,
                Verdict::Drop(_) => dropped += 1,
                Verdict::Flood { .. } => unreachable!(),
            }
        }
        assert_eq!(forwarded, 2, "burst size admits exactly two packets");
        assert_eq!(dropped, 8);
    }

    #[test]
    fn tunnel_encap_grows_packet() {
        let ir = netdebug_p4::compile(corpus::TUNNEL_ENCAP).unwrap();
        let mut dp = Dataplane::new(ir);
        dp.control_plane()
            .write(&[Update::Insert(
                "tunnel_fwd",
                TableEntry::lpm(0x0A00_0000, 8, "encap", vec![7, 3]),
            )])
            .unwrap();
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Address::new(1, 1, 1, 1), Ipv4Address::new(10, 0, 0, 9))
            .udp(1, 2)
            .payload(b"data")
            .build();
        let (v, _) = dp.process(0, &frame, 0);
        match v {
            Verdict::Forward { port, data } => {
                assert_eq!(port, 3);
                assert_eq!(data.len(), frame.len() + 4, "tunnel header adds 4 bytes");
                let eth = EthernetFrame::new_checked(&data[..]).unwrap();
                assert_eq!(u16::from(eth.ethertype()), 0x1212);
                // Tunnel header carries the original ethertype.
                assert_eq!(&eth.payload()[0..2], &[0x08, 0x00]);
                assert_eq!(&eth.payload()[2..4], &[0, 7]);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn a_clone_and_its_original_publish_apart() {
        let ir = netdebug_p4::compile(corpus::TUNNEL_ENCAP).unwrap();
        let dp = Dataplane::new(ir);
        dp.control_plane()
            .write(&[Update::Insert(
                "tunnel_fwd",
                TableEntry::lpm(0x0A00_0000, 8, "encap", vec![7, 3]),
            )])
            .unwrap();
        let clone = dp.clone();
        clone
            .control_plane()
            .write(&[Update::Insert(
                "tunnel_fwd",
                TableEntry::lpm(0x0B00_0000, 8, "encap", vec![8, 2]),
            )])
            .unwrap();
        dp.control_plane()
            .write(&[Update::Insert(
                "tunnel_term",
                TableEntry::lpm(0x0C00_0000, 8, "decap", vec![1]),
            )])
            .unwrap();
        assert_eq!(dp.table_stats("tunnel_fwd").unwrap().2, 1);
        assert_eq!(clone.table_stats("tunnel_fwd").unwrap().2, 2);
        assert_eq!(dp.control_plane().epochs(), [1, 1]);
        assert_eq!(clone.control_plane().epochs(), [2, 0]);
    }

    #[test]
    fn exit_stops_pipeline() {
        let ir = netdebug_p4::compile(corpus::FEATURE_EXIT).unwrap();
        let mut dp = Dataplane::new(ir);
        let mut ok = vec![0xAAu8];
        ok.extend_from_slice(b"rest");
        let (v, _) = dp.process(0, &ok, 0);
        assert!(matches!(v, Verdict::Forward { port: 1, .. }));
        let mut bad = vec![0xFFu8];
        bad.extend_from_slice(b"rest");
        let (v, t) = dp.process(0, &bad, 0);
        assert_eq!(v, Verdict::Drop(DropReason::ActionDrop));
        assert!(t.events.iter().any(|e| matches!(e, TraceEvent::Exit)));
    }

    #[test]
    fn slice_and_concat_semantics() {
        let ir = netdebug_p4::compile(corpus::FEATURE_SLICE_CONCAT).unwrap();
        let mut dp = Dataplane::new(ir);
        // Header: a=0x1234, b=0xABCD, c=0.
        let mut frame = Vec::new();
        frame.extend_from_slice(&[0x12, 0x34]);
        frame.extend_from_slice(&[0xAB, 0xCD]);
        frame.extend_from_slice(&[0, 0, 0, 0]);
        let (v, _) = dp.process(0, &frame, 0);
        match v {
            Verdict::Forward { data, .. } => {
                // c = a ++ b = 0x1234ABCD.
                assert_eq!(&data[4..8], &[0x12, 0x34, 0xAB, 0xCD]);
                // a[7:0] = b[15:8] = 0xAB, so a = 0x12AB.
                assert_eq!(&data[0..2], &[0x12, 0xAB]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deep_parser_visits_all_states() {
        let ir = netdebug_p4::compile(corpus::FEATURE_DEEP_PARSER).unwrap();
        let mut dp = Dataplane::new(ir);
        // next=1 seven times, then next=0: all 8 segments extracted.
        let mut data = Vec::new();
        for i in 0..8 {
            data.push(if i < 7 { 1 } else { 0 });
            data.push(i as u8);
        }
        let (v, t) = dp.process(0, &data, 0);
        assert!(v.is_forwarded());
        assert_eq!(t.states_visited().len(), 8);
    }

    #[test]
    fn table_capacity_override() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let dp = Dataplane::with_table_capacities(ir, &[2]);
        dp.control_plane()
            .write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0A000000, 8, "drop", vec![]),
            )])
            .unwrap();
        dp.control_plane()
            .write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0B000000, 8, "drop", vec![]),
            )])
            .unwrap();
        let err = dp
            .control_plane()
            .write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0C000000, 8, "drop", vec![]),
            )])
            .unwrap_err();
        assert!(matches!(
            err,
            ControlError::Table(TableError::Full { capacity: 2 })
        ));
    }

    /// A capacity slice shorter than the table list overrides the leading
    /// tables only: the last of twelve still installs and applies.
    #[test]
    fn short_capacity_slice_keeps_the_tail_tables() {
        for engine in [Engine::Compiled, Engine::Reference] {
            let ir = netdebug_p4::compile(corpus::FEATURE_MANY_TABLES).unwrap();
            let mut dp = Dataplane::with_table_capacities(ir, &[1]);
            dp.set_engine(engine);
            dp.install("t11", vec![IrPattern::Value(7)], "NoAction", vec![], 0)
                .unwrap();
            // Eleven default `bump`s, then t11 hits `NoAction`.
            let (v, _) = dp.process(0, &[7], 0);
            let data = vec![7].into();
            assert_eq!(v, Verdict::Forward { port: 11, data }, "{engine:?}");
            assert_eq!(dp.table_stats("t11").unwrap().0, 1, "{engine:?} hits");
        }
    }

    /// A shift amount of 2^32 + 1 is at least the width, so `1 << s` is 0
    /// and the packet leaves on port 0 on both engines; read as a `u32`
    /// it would act as a shift by 1 and pick port 2.
    #[test]
    fn a_shift_by_2_pow_32_plus_1_shifts_everything_out() {
        const SHIFT: &str = r#"
            header h_t { bit<8> x; bit<40> s; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.h); transition accept; }
            }
            control I(inout headers_t hdr, inout standard_metadata_t std) {
                apply { std.egress_spec = (bit<9>)(hdr.h.x << hdr.h.s); }
            }
            control D(packet_out pkt, in headers_t hdr) {
                apply { pkt.emit(hdr.h); }
            }
            V1Switch(P(), I(), D()) main;
        "#;
        let frame = [1, 0x01, 0, 0, 0, 0x01];
        for engine in [Engine::Compiled, Engine::Reference] {
            let mut dp = Dataplane::new(netdebug_p4::compile(SHIFT).unwrap());
            dp.set_engine(engine);
            let (v, _) = dp.process(3, &frame, 0);
            let data = frame.to_vec().into();
            assert_eq!(v, Verdict::Forward { port: 0, data }, "{engine:?}");
        }
    }

    /// Dropping an egress frame hands its buffer to the next one built on
    /// the thread, whichever path builds it (either deparser, or the flow
    /// cache's hit rebuild), and a shorter frame in a longer frame's
    /// buffer carries exactly its own bytes.
    #[test]
    fn a_dropped_egress_frame_is_the_next_ones_buffer() {
        let reflected = |f: &[u8]| [&f[6..12], &f[..6], &f[12..]].concat();
        let long: Vec<u8> = (0..1518).map(|i| i as u8).collect();
        let short: Vec<u8> = (0..64).map(|i| !(i as u8)).collect();
        for engine in [Engine::Compiled, Engine::Reference] {
            let mut dp = Dataplane::new(netdebug_p4::compile(corpus::REFLECTOR).unwrap());
            dp.set_engine(engine);
            let Verdict::Forward { data, .. } = dp.process_untraced(3, &long, 0) else {
                panic!("{engine:?}: the reflector forwards");
            };
            assert_eq!(data, reflected(&long), "{engine:?}");
            let buffer = data.as_ptr();
            drop(data);
            // Three rounds, so the compiled engine's third one is a hit.
            for round in 0..3 {
                let Verdict::Forward { data, .. } = dp.process_untraced(3, &short, 0) else {
                    panic!("{engine:?}: the reflector forwards");
                };
                assert_eq!(data.as_ptr(), buffer, "{engine:?} round {round}");
                assert_eq!(data.len(), short.len(), "{engine:?} round {round}");
                assert_eq!(data, reflected(&short), "{engine:?} round {round}");
            }
            let hits = u64::from(engine == Engine::Compiled);
            assert_eq!(dp.cache_stats().hits, hits, "{engine:?}");
        }
    }

    #[test]
    fn control_plane_errors() {
        let ir = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let mut dp = Dataplane::new(ir);
        assert!(matches!(
            dp.install("nope", vec![IrPattern::Value(1)], "x", vec![], 0),
            Err(ControlError::NoSuchTable(_))
        ));
        assert!(dp.counter("nope", 0).is_err());
        assert!(dp.register("nope", 0).is_err());
    }
}
