//! Whole-frame construction.
//!
//! [`PacketBuilder`] assembles an Ethernet frame from the outside in,
//! computing every length and checksum once the payload is known. It is used
//! by the test packet generator, the external tester baseline, and dozens of
//! tests, so the API favours clarity over zero-allocation.

use crate::ethernet::{self, EtherType, EthernetAddress, EthernetFrame};
use crate::ipv4::{self, IpProtocol, Ipv4Address, Ipv4Packet};
use crate::tcp::{self, TcpFlags, TcpSegment};
use crate::udp::{self, UdpDatagram};

/// Layer-3 configuration for a built frame.
#[derive(Debug, Clone)]
enum L3 {
    None,
    Ipv4 {
        src: Ipv4Address,
        dst: Ipv4Address,
        ttl: u8,
    },
}

/// Layer-4 configuration for a built frame.
#[derive(Debug, Clone)]
enum L4 {
    None,
    Udp {
        src_port: u16,
        dst_port: u16,
    },
    Tcp {
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        window: u16,
    },
}

/// Builds complete frames layer by layer.
///
/// ```
/// use netdebug_packet::{PacketBuilder, EthernetAddress, Ipv4Address};
///
/// let frame = PacketBuilder::ethernet(
///         EthernetAddress::new(2, 0, 0, 0, 0, 1),
///         EthernetAddress::new(2, 0, 0, 0, 0, 2),
///     )
///     .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
///     .udp(1234, 5678)
///     .payload(b"hello")
///     .build();
/// assert_eq!(frame.len(), 14 + 20 + 8 + 5);
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: EthernetAddress,
    dst_mac: EthernetAddress,
    ethertype_override: Option<EtherType>,
    l3: L3,
    l4: L4,
    payload: Vec<u8>,
}

impl PacketBuilder {
    /// Start a frame with the given source and destination MAC addresses.
    pub fn ethernet(src: EthernetAddress, dst: EthernetAddress) -> Self {
        PacketBuilder {
            src_mac: src,
            dst_mac: dst,
            ethertype_override: None,
            l3: L3::None,
            l4: L4::None,
            payload: Vec::new(),
        }
    }

    /// Force a specific EtherType; only meaningful when no L3 layer
    /// is added (e.g. raw NetDebug-over-Ethernet test frames).
    pub fn ethertype(mut self, ty: EtherType) -> Self {
        self.ethertype_override = Some(ty);
        self
    }

    /// Add an IPv4 header with default TTL 64.
    pub fn ipv4(mut self, src: Ipv4Address, dst: Ipv4Address) -> Self {
        self.l3 = L3::Ipv4 { src, dst, ttl: 64 };
        self
    }

    /// Override the IPv4 TTL (no-op unless `ipv4` was called).
    pub fn ttl(mut self, ttl: u8) -> Self {
        if let L3::Ipv4 { ttl: t, .. } = &mut self.l3 {
            *t = ttl;
        }
        self
    }

    /// Add a UDP header.
    pub fn udp(mut self, src_port: u16, dst_port: u16) -> Self {
        self.l4 = L4::Udp { src_port, dst_port };
        self
    }

    /// Add a TCP header (no options).
    pub fn tcp(mut self, src_port: u16, dst_port: u16, seq: u32, flags: TcpFlags) -> Self {
        self.l4 = L4::Tcp {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags,
            window: 65535,
        };
        self
    }

    /// Set the innermost payload bytes.
    pub fn payload(mut self, data: &[u8]) -> Self {
        self.payload = data.to_vec();
        self
    }

    /// Assemble the frame, computing lengths and checksums.
    pub fn build(self) -> Vec<u8> {
        let mut inner = self.payload;

        // Layer 4.
        let l4_proto;
        match self.l4 {
            L4::None => {
                l4_proto = None;
            }
            L4::Udp { src_port, dst_port } => {
                let mut buf = vec![0u8; udp::HEADER_LEN + inner.len()];
                {
                    let mut u = UdpDatagram::new_unchecked(&mut buf[..]);
                    u.set_src_port(src_port);
                    u.set_dst_port(dst_port);
                    u.set_length((udp::HEADER_LEN + inner.len()) as u16);
                    u.payload_mut().copy_from_slice(&inner);
                }
                inner = buf;
                l4_proto = Some(IpProtocol::Udp);
            }
            L4::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
            } => {
                let mut buf = vec![0u8; tcp::HEADER_LEN + inner.len()];
                {
                    let mut t = TcpSegment::new_unchecked(&mut buf[..]);
                    t.set_src_port(src_port);
                    t.set_dst_port(dst_port);
                    t.set_seq_number(seq);
                    t.set_ack_number(ack);
                    t.set_header_len(tcp::HEADER_LEN);
                    t.set_flags(flags);
                    t.set_window(window);
                    t.payload_mut().copy_from_slice(&inner);
                }
                inner = buf;
                l4_proto = Some(IpProtocol::Tcp);
            }
        }

        // Layer 3.
        let ethertype;
        match self.l3 {
            L3::None => {
                ethertype = self.ethertype_override.unwrap_or(EtherType::NetDebugTest);
            }
            L3::Ipv4 { src, dst, ttl } => {
                let total = ipv4::HEADER_LEN + inner.len();
                let mut buf = vec![0u8; total];
                {
                    let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
                    p.set_version_and_len(ipv4::HEADER_LEN);
                    p.set_total_len(total as u16);
                    p.set_flags_frag(true, false, 0);
                    p.set_ttl(ttl);
                    if let Some(proto) = l4_proto {
                        p.set_protocol(proto);
                    } else {
                        p.set_protocol(IpProtocol::Unknown(0xFD));
                    }
                    p.set_src_addr(src);
                    p.set_dst_addr(dst);
                    p.payload_mut().copy_from_slice(&inner);
                    p.fill_checksum();
                }
                // L4 checksum needs the pseudo-header.
                match self.l4 {
                    L4::Udp { .. } => {
                        let (hdr, body) = buf.split_at_mut(ipv4::HEADER_LEN);
                        let p = Ipv4Packet::new_unchecked(&hdr[..]);
                        let (s, d) = (*p.src_addr().as_bytes(), *p.dst_addr().as_bytes());
                        UdpDatagram::new_unchecked(&mut body[..]).fill_checksum_v4(s, d);
                    }
                    L4::Tcp { .. } => {
                        let (hdr, body) = buf.split_at_mut(ipv4::HEADER_LEN);
                        let p = Ipv4Packet::new_unchecked(&hdr[..]);
                        let (s, d) = (*p.src_addr().as_bytes(), *p.dst_addr().as_bytes());
                        TcpSegment::new_unchecked(&mut body[..]).fill_checksum_v4(s, d);
                    }
                    L4::None => {}
                }
                inner = buf;
                ethertype = EtherType::Ipv4;
            }
        }

        // Ethernet framing.
        let mut frame = vec![0u8; ethernet::HEADER_LEN + inner.len()];
        {
            let mut e = EthernetFrame::new_unchecked(&mut frame[..]);
            e.set_dst_addr(self.dst_mac);
            e.set_src_addr(self.src_mac);
            e.set_ethertype(ethertype);
            e.payload_mut().copy_from_slice(&inner);
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;
    use crate::testhdr::{TestHeader, TEST_HEADER_LEN};

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
    }

    #[test]
    fn udp_frame_is_well_formed() {
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .udp(1111, 2222)
            .payload(b"abc")
            .build();
        let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(IpProtocol::from(eth.payload()[9]), IpProtocol::Udp);
        let u = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(u.src_port(), 1111);
        assert_eq!(u.dst_port(), 2222);
        assert_eq!(u.payload(), b"abc");
        assert!(u.verify_checksum_v4(*ip.src_addr().as_bytes(), *ip.dst_addr().as_bytes()));
    }

    #[test]
    fn tcp_frame_is_well_formed() {
        let (s, d) = macs();
        let frame = PacketBuilder::ethernet(s, d)
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .tcp(
                80,
                1024,
                42,
                TcpFlags {
                    syn: true,
                    ..TcpFlags::default()
                },
            )
            .payload(b"xyz")
            .build();
        let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(IpProtocol::from(eth.payload()[9]), IpProtocol::Tcp);
        let t = TcpSegment::new_checked(ip.payload()).unwrap();
        assert_eq!(t.src_port(), 80);
        assert_eq!(t.seq_number(), 42);
        assert!(t.flags().syn);
        assert_eq!(&ip.payload()[tcp::HEADER_LEN..], b"xyz");
        let (src, dst) = (*ip.src_addr().as_bytes(), *ip.dst_addr().as_bytes());
        let acc = checksum::pseudo_header_v4(src, dst, 6, ip.payload().len() as u16);
        assert_eq!(
            checksum::fold(checksum::ones_complement_sum(acc, ip.payload())),
            0
        );
    }

    #[test]
    fn raw_test_frame_over_ethernet() {
        let (s, d) = macs();
        let mut header = [0u8; TEST_HEADER_LEN + 3];
        {
            let mut h = TestHeader::new_unchecked(&mut header[..]);
            h.set_magic();
            h.set_seq(7);
            h.payload_mut().copy_from_slice(b"raw");
            h.fill_payload_crc();
        }
        let frame = PacketBuilder::ethernet(s, d).payload(&header).build();
        let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::NetDebugTest);
        let th = TestHeader::new_checked(eth.payload()).unwrap();
        assert_eq!(th.seq(), 7);
        assert!(th.verify_payload());
    }
}
