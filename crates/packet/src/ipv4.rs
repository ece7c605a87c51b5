//! IPv4 packet view.

use crate::{checksum, get_u16, set_u16, Error, Result};

/// A four-octet IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// Construct from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address([a, b, c, d])
    }

    /// Parse from a byte slice (panics if shorter than four bytes).
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut b = [0u8; 4];
        b.copy_from_slice(&data[..4]);
        Ipv4Address(b)
    }

    /// Raw octets.
    pub const fn as_bytes(&self) -> &[u8; 4] {
        &self.0
    }

    /// The address as a host-order `u32`.
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Build from a host-order `u32`.
    pub fn from_u32(v: u32) -> Self {
        Ipv4Address(v.to_be_bytes())
    }
}

impl core::fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl From<[u8; 4]> for Ipv4Address {
    fn from(b: [u8; 4]) -> Self {
        Ipv4Address(b)
    }
}

/// IP protocol numbers used by this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number.
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(v: IpProtocol) -> u8 {
        match v {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Unknown(other) => other,
        }
    }
}

/// Minimum IPv4 header length (no options) in bytes.
pub const HEADER_LEN: usize = 20;

/// A view over an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    pub const VER_IHL: usize = 0;
    pub const LENGTH: usize = 2;
    pub const IDENT: usize = 4;
    pub const FLAGS_FRAG: usize = 6;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: usize = 10;
    pub const SRC: core::ops::Range<usize> = 12..16;
    pub const DST: core::ops::Range<usize> = 16..20;
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wrap a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::BadVersion);
        }
        let ihl = self.header_len();
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(Error::BadLength);
        }
        if usize::from(self.total_len()) < ihl || data.len() < usize::from(self.total_len()) {
            return Err(Error::BadLength);
        }
        Ok(())
    }

    /// IP version field (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0F) * 4
    }

    /// Total length field.
    pub fn total_len(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::LENGTH)
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[field::SRC])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[field::DST])
    }

    /// True if the header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        let ihl = self.header_len().min(self.buffer.as_ref().len());
        checksum::verify(&self.buffer.as_ref()[..ihl])
    }

    /// Payload bytes (after the header, bounded by `total_len`).
    pub fn payload(&self) -> &[u8] {
        let ihl = self.header_len();
        let end = usize::from(self.total_len()).min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[ihl..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Set version and IHL from a header length in bytes.
    pub fn set_version_and_len(&mut self, header_len: usize) {
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | ((header_len / 4) as u8 & 0x0F);
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        set_u16(self.buffer.as_mut(), field::LENGTH, len);
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::IDENT, v);
    }

    /// Set flags and fragment offset (offset in 8-byte units).
    pub fn set_flags_frag(&mut self, dont_frag: bool, more_frags: bool, offset: u16) {
        let mut v = offset & 0x1FFF;
        if dont_frag {
            v |= 0x4000;
        }
        if more_frags {
            v |= 0x2000;
        }
        set_u16(self.buffer.as_mut(), field::FLAGS_FRAG, v);
    }

    /// Set the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Set the encapsulated protocol.
    pub fn set_protocol(&mut self, proto: IpProtocol) {
        self.buffer.as_mut()[field::PROTOCOL] = proto.into();
    }

    /// Set the checksum field to an explicit value.
    pub fn set_header_checksum(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::CHECKSUM, v);
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(addr.as_bytes());
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[field::DST].copy_from_slice(addr.as_bytes());
    }

    /// Recompute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        self.set_header_checksum(0);
        let ihl = self.header_len();
        let sum = checksum::checksum(&self.buffer.as_ref()[..ihl]);
        self.set_header_checksum(sum);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let ihl = self.header_len();
        let end = usize::from(self.total_len()).min(self.buffer.as_ref().len());
        &mut self.buffer.as_mut()[ihl..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; 28];
        {
            let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
            p.set_version_and_len(20);
            p.set_total_len(28);
            p.set_ident(0x1234);
            p.set_flags_frag(true, false, 0);
            p.set_ttl(64);
            p.set_protocol(IpProtocol::Udp);
            p.set_src_addr(Ipv4Address::new(192, 168, 1, 1));
            p.set_dst_addr(Ipv4Address::new(10, 0, 0, 1));
            p.fill_checksum();
        }
        buf
    }

    #[test]
    fn build_then_parse() {
        let buf = sample();
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 4);
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 28);
        assert_eq!(&buf[4..8], &[0x12, 0x34, 0x40, 0x00]); // ident, DF, offset 0
        assert_eq!(p.ttl(), 64);
        assert_eq!(IpProtocol::from(buf[9]), IpProtocol::Udp);
        assert_eq!(p.src_addr(), Ipv4Address::new(192, 168, 1, 1));
        assert_eq!(p.dst_addr(), Ipv4Address::new(10, 0, 0, 1));
        assert!(p.verify_checksum());
        assert_eq!(p.payload().len(), 8);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut buf = sample();
        buf[8] = 63; // ttl changed without checksum update
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = sample();
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::BadVersion
        );
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut buf = sample();
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::BadLength
        );

        let mut buf = sample();
        buf[3] = 200; // total_len > buffer
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::BadLength
        );

        assert_eq!(
            Ipv4Packet::new_checked(&sample()[..10]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn address_display() {
        assert_eq!(Ipv4Address::new(1, 2, 3, 4).to_string(), "1.2.3.4");
    }

    #[test]
    fn protocol_round_trip() {
        for raw in [1u8, 6, 17, 42] {
            assert_eq!(u8::from(IpProtocol::from(raw)), raw);
        }
    }
}
