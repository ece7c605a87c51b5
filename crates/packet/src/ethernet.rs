//! Ethernet II frame view.

use crate::{get_u16, set_u16, Error, Result};

/// A six-octet IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// Construct from six octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        EthernetAddress([a, b, c, d, e, f])
    }

    /// Parse from a byte slice (panics if shorter than six bytes).
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut b = [0u8; 6];
        b.copy_from_slice(&data[..6]);
        EthernetAddress(b)
    }

    /// Raw octets.
    pub const fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }
}

impl core::fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl From<[u8; 6]> for EthernetAddress {
    fn from(b: [u8; 6]) -> Self {
        EthernetAddress(b)
    }
}

/// The EtherType field of an Ethernet II frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// IEEE 802.1Q VLAN tag (`0x8100`).
    Vlan,
    /// IPv6 (`0x86DD`).
    Ipv6,
    /// NetDebug test frames when carried directly over Ethernet (`0x88B5`,
    /// the IEEE "local experimental" EtherType).
    NetDebugTest,
    /// Any other value.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            0x86DD => EtherType::Ipv6,
            0x88B5 => EtherType::NetDebugTest,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::Ipv6 => 0x86DD,
            EtherType::NetDebugTest => 0x88B5,
            EtherType::Unknown(other) => other,
        }
    }
}

/// Length of the Ethernet II header in bytes.
pub const HEADER_LEN: usize = 14;

/// A view over an Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    pub const DST: core::ops::Range<usize> = 0..6;
    pub const SRC: core::ops::Range<usize> = 6..12;
    pub const ETHERTYPE: usize = 12;
    pub const PAYLOAD: usize = 14;
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        EthernetFrame { buffer }
    }

    /// Wrap a buffer, ensuring it can hold an Ethernet header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let frame = Self::new_unchecked(buffer);
        frame.check_len()?;
        Ok(frame)
    }

    fn check_len(&self) -> Result<()> {
        if self.buffer.as_ref().len() < HEADER_LEN {
            Err(Error::Truncated)
        } else {
            Ok(())
        }
    }

    /// Destination MAC address.
    pub fn dst_addr(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[field::DST])
    }

    /// Source MAC address.
    pub fn src_addr(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[field::SRC])
    }

    /// EtherType discriminator.
    pub fn ethertype(&self) -> EtherType {
        EtherType::from(get_u16(self.buffer.as_ref(), field::ETHERTYPE))
    }

    /// Bytes following the Ethernet header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[field::PAYLOAD..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC address.
    pub fn set_dst_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[field::DST].copy_from_slice(addr.as_bytes());
    }

    /// Set the source MAC address.
    pub fn set_src_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(addr.as_bytes());
    }

    /// Set the EtherType discriminator.
    pub fn set_ethertype(&mut self, ty: EtherType) {
        set_u16(self.buffer.as_mut(), field::ETHERTYPE, ty.into());
    }

    /// Mutable access to the bytes following the header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[field::PAYLOAD..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static FRAME: [u8; 18] = [
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // dst
        0x02, 0x00, 0x00, 0x00, 0x00, 0x01, // src
        0x08, 0x00, // ethertype ipv4
        0xde, 0xad, 0xbe, 0xef, // payload
    ];

    #[test]
    fn parse_fields() {
        let frame = EthernetFrame::new_checked(&FRAME[..]).unwrap();
        assert_eq!(frame.dst_addr(), EthernetAddress([0xff; 6]));
        assert_eq!(
            frame.src_addr(),
            EthernetAddress::new(0x02, 0, 0, 0, 0, 0x01)
        );
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload(), &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            EthernetFrame::new_checked(&FRAME[..13]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn set_fields() {
        let mut buf = FRAME;
        let mut frame = EthernetFrame::new_unchecked(&mut buf[..]);
        frame.set_ethertype(EtherType::NetDebugTest);
        frame.set_src_addr(EthernetAddress::new(2, 2, 2, 2, 2, 2));
        frame.set_dst_addr(EthernetAddress::new(1, 1, 1, 1, 1, 1));
        frame.payload_mut()[0] = 0x55;
        assert_eq!(frame.ethertype(), EtherType::NetDebugTest);
        assert_eq!(frame.src_addr(), EthernetAddress::new(2, 2, 2, 2, 2, 2));
        assert_eq!(frame.dst_addr(), EthernetAddress::new(1, 1, 1, 1, 1, 1));
        assert_eq!(frame.payload()[0], 0x55);
    }

    #[test]
    fn address_display() {
        assert_eq!(
            EthernetAddress::new(0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff).to_string(),
            "aa:bb:cc:dd:ee:ff"
        );
    }

    #[test]
    fn ethertype_round_trip() {
        for raw in [0x0800u16, 0x0806, 0x8100, 0x86DD, 0x88B5, 0x1234] {
            assert_eq!(u16::from(EtherType::from(raw)), raw);
        }
    }
}
