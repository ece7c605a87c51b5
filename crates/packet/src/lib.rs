//! Wire-format packet handling for the NetDebug reproduction.
//!
//! This crate provides zero-copy *packet views* in the style popularised by
//! [smoltcp]: a thin typed wrapper (`EthernetFrame`, `Ipv4Packet`, …) over any
//! buffer implementing `AsRef<[u8]>` (and `AsMut<[u8]>` for setters). Each
//! view offers:
//!
//! * `new_unchecked(buffer)` — wrap without validation (cheap, may panic on
//!   out-of-range access later);
//! * `new_checked(buffer)` — wrap after verifying the buffer is long enough
//!   and structurally sound, returning [`Error`] otherwise;
//! * typed field accessors (`src_addr()`, `set_dst_port(…)`, …);
//! * a `payload()` / `payload_mut()` pair exposing the encapsulated bytes.
//!
//! On top of the views, [`builder::PacketBuilder`] composes whole frames
//! (Ethernet → IPv4 → UDP/TCP) with
//! correct lengths and checksums, and [`pcap::PcapWriter`] dumps captures for
//! offline inspection.
//!
//! The [`testhdr::TestHeader`] is specific to NetDebug: the in-device test
//! packet generator stamps every generated packet with a magic number, stream
//! id, sequence number, timestamp (in device cycles) and payload CRC so that
//! the output checker can detect loss, reordering, corruption and measure
//! per-packet latency entirely inside the device, at line rate.
//!
//! [smoltcp]: https://github.com/smoltcp-rs/smoltcp

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod ipv4;
pub mod pcap;
pub mod tcp;
pub mod testhdr;
pub mod udp;

pub use builder::PacketBuilder;
pub use ethernet::{EtherType, EthernetAddress, EthernetFrame};
pub use ipv4::{IpProtocol, Ipv4Address, Ipv4Packet};
pub use pcap::PcapWriter;
pub use tcp::TcpSegment;
pub use testhdr::{TestHeader, TEST_HEADER_LEN, TEST_MAGIC};
pub use udp::UdpDatagram;

/// Errors produced when interpreting raw bytes as a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to hold the fixed part of the header.
    Truncated,
    /// A length field describes more data than the buffer holds.
    BadLength,
    /// A version / type discriminator field holds an unsupported value.
    BadVersion,
    /// A checksum failed verification.
    BadChecksum,
    /// A magic / discriminator constant did not match.
    BadMagic,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer too short for header"),
            Error::BadLength => write!(f, "length field exceeds buffer"),
            Error::BadVersion => write!(f, "unsupported version or type"),
            Error::BadChecksum => write!(f, "checksum mismatch"),
            Error::BadMagic => write!(f, "magic constant mismatch"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used by every fallible constructor in this crate.
pub type Result<T> = core::result::Result<T, Error>;

/// Read a big-endian `u16` at `offset` (panics if out of range).
#[inline]
pub(crate) fn get_u16(data: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([data[offset], data[offset + 1]])
}

/// Read a big-endian `u32` at `offset` (panics if out of range).
#[inline]
pub(crate) fn get_u32(data: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([
        data[offset],
        data[offset + 1],
        data[offset + 2],
        data[offset + 3],
    ])
}

/// Read a big-endian `u64` at `offset` (panics if out of range).
#[inline]
pub(crate) fn get_u64(data: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[offset..offset + 8]);
    u64::from_be_bytes(b)
}

/// Write a big-endian `u16` at `offset` (panics if out of range).
#[inline]
pub(crate) fn set_u16(data: &mut [u8], offset: usize, value: u16) {
    data[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u32` at `offset` (panics if out of range).
#[inline]
pub(crate) fn set_u32(data: &mut [u8], offset: usize, value: u32) {
    data[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u64` at `offset` (panics if out of range).
#[inline]
pub(crate) fn set_u64(data: &mut [u8], offset: usize, value: u64) {
    data[offset..offset + 8].copy_from_slice(&value.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endian_helpers_round_trip() {
        let mut buf = [0u8; 16];
        set_u16(&mut buf, 1, 0xBEEF);
        assert_eq!(get_u16(&buf, 1), 0xBEEF);
        set_u32(&mut buf, 3, 0xDEADBEEF);
        assert_eq!(get_u32(&buf, 3), 0xDEADBEEF);
        set_u64(&mut buf, 7, 0x0123_4567_89AB_CDEF);
        assert_eq!(get_u64(&buf, 7), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(Error::Truncated.to_string(), "buffer too short for header");
        assert_eq!(Error::BadChecksum.to_string(), "checksum mismatch");
    }
}
