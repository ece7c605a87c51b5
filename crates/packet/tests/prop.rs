//! Property-based tests for wire-format round trips.

use netdebug_packet::tcp::TcpFlags;
use netdebug_packet::testhdr::{TestHeader, TEST_HEADER_LEN};
use netdebug_packet::*;
use proptest::prelude::*;

proptest! {
    /// Any IPv4 header we build verifies its own checksum, and any single-bit
    /// flip in the header breaks it.
    #[test]
    fn ipv4_checksum_sound(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
        payload_len in 0usize..64,
        flip_bit in 0usize..(20 * 8),
    ) {
        let mut buf = vec![0u8; 20 + payload_len];
        {
            let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
            p.set_version_and_len(20);
            p.set_total_len((20 + payload_len) as u16);
            p.set_ident(ident);
            p.set_ttl(ttl);
            p.set_protocol(IpProtocol::Udp);
            p.set_src_addr(Ipv4Address::from_u32(src));
            p.set_dst_addr(Ipv4Address::from_u32(dst));
            p.fill_checksum();
        }
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(p.verify_checksum());
        prop_assert_eq!(p.src_addr().to_u32(), src);
        prop_assert_eq!(p.dst_addr().to_u32(), dst);

        // Flip one bit in the header; checksum must catch it unless the flip
        // hits the checksum field itself AND cancels — which ones-complement
        // arithmetic makes impossible for a single bit.
        let mut corrupted = buf.clone();
        corrupted[flip_bit / 8] ^= 1 << (flip_bit % 8);
        let c = Ipv4Packet::new_unchecked(&corrupted[..]);
        prop_assert!(!c.verify_checksum());
    }

    /// UDP datagrams round-trip ports, length and payload through raw bytes.
    #[test]
    fn udp_round_trip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut buf = vec![0u8; 8 + payload.len()];
        {
            let mut u = UdpDatagram::new_unchecked(&mut buf[..]);
            u.set_src_port(sport);
            u.set_dst_port(dport);
            u.set_length((8 + payload.len()) as u16);
            u.payload_mut().copy_from_slice(&payload);
            u.fill_checksum_v4([10, 0, 0, 1], [10, 0, 0, 2]);
        }
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(u.src_port(), sport);
        prop_assert_eq!(u.dst_port(), dport);
        prop_assert_eq!(u.payload(), &payload[..]);
        prop_assert!(u.verify_checksum_v4([10, 0, 0, 1], [10, 0, 0, 2]));
    }

    /// TCP flags survive a pack/unpack cycle for every 6-bit combination and
    /// header fields round-trip.
    #[test]
    fn tcp_round_trip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        raw_flags in 0u8..0x40,
        window in any::<u16>(),
    ) {
        let mut buf = [0u8; 20];
        {
            let mut t = TcpSegment::new_unchecked(&mut buf[..]);
            t.set_src_port(sport);
            t.set_dst_port(dport);
            t.set_seq_number(seq);
            t.set_ack_number(ack);
            t.set_header_len(20);
            t.set_flags(TcpFlags::from_byte(raw_flags));
            t.set_window(window);
        }
        let t = TcpSegment::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(t.src_port(), sport);
        prop_assert_eq!(t.dst_port(), dport);
        prop_assert_eq!(t.seq_number(), seq);
        prop_assert_eq!(t.ack_number(), ack);
        prop_assert_eq!(t.flags().to_byte(), raw_flags);
        prop_assert_eq!(t.window(), window);
    }

    /// Test headers round-trip every field and CRC-validate their payload;
    /// any payload mutation invalidates the CRC.
    #[test]
    fn test_header_round_trip(
        stream in any::<u16>(),
        flags in any::<u16>(),
        seq in any::<u64>(),
        ts in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        tweak in any::<u8>(),
    ) {
        let mut buf = vec![0u8; TEST_HEADER_LEN + payload.len()];
        {
            let mut h = TestHeader::new_unchecked(&mut buf[..]);
            h.set_magic();
            h.set_stream(stream);
            h.set_flags(flags);
            h.set_seq(seq);
            h.set_ts_cycles(ts);
            h.payload_mut().copy_from_slice(&payload);
            h.fill_payload_crc();
        }
        let h = TestHeader::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(h.stream(), stream);
        prop_assert_eq!(h.flags(), flags);
        prop_assert_eq!(h.seq(), seq);
        prop_assert_eq!(h.ts_cycles(), ts);
        prop_assert!(h.verify_payload());

        if tweak != 0 {
            let idx = TEST_HEADER_LEN + (usize::from(tweak) % payload.len());
            let mut bad = buf.clone();
            bad[idx] ^= tweak;
            let h = TestHeader::new_checked(&bad[..]).unwrap();
            prop_assert!(!h.verify_payload());
        }
    }

    /// The builder always produces parseable frames whose nested lengths are
    /// consistent, for arbitrary payloads and port/address choices.
    #[test]
    fn builder_frames_always_parse(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
            .ipv4(Ipv4Address::from_u32(src), Ipv4Address::from_u32(dst))
            .udp(sport, dport)
            .payload(&payload)
            .build();

        let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        prop_assert!(ip.verify_checksum());
        let u = UdpDatagram::new_checked(ip.payload()).unwrap();
        prop_assert_eq!(u.payload(), &payload[..]);
        prop_assert!(u.verify_checksum_v4(
            *ip.src_addr().as_bytes(),
            *ip.dst_addr().as_bytes()
        ));
    }

    /// Random garbage never panics the checked constructors.
    #[test]
    fn checked_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = EthernetFrame::new_checked(&data[..]);
        let _ = Ipv4Packet::new_checked(&data[..]);
        let _ = UdpDatagram::new_checked(&data[..]);
        let _ = TcpSegment::new_checked(&data[..]);
        let _ = TestHeader::new_checked(&data[..]);
    }
}
