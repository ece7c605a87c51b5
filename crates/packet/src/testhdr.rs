//! The NetDebug test header.
//!
//! Every packet emitted by the in-device test packet generator carries this
//! header (as the payload of a UDP datagram, or directly over Ethernet with
//! EtherType `0x88B5`). The output packet checker uses it to account for
//! loss, reordering and duplication (via `seq`), to measure per-packet
//! latency in device cycles (via `ts_cycles`), and to detect payload
//! corruption (via `payload_crc`), all without any host involvement — this
//! is what lets NetDebug check at line rate, in real time.
//!
//! Wire layout (big-endian, 28 bytes):
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +---------------------------------------------------------------+
//! |                        magic (0x4E544447)                     |
//! +-------------------------------+-------------------------------+
//! |           stream id           |             flags             |
//! +-------------------------------+-------------------------------+
//! |                      sequence number (hi)                     |
//! |                      sequence number (lo)                     |
//! +---------------------------------------------------------------+
//! |                    timestamp, cycles (hi)                     |
//! |                    timestamp, cycles (lo)                     |
//! +---------------------------------------------------------------+
//! |                          payload CRC32                        |
//! +---------------------------------------------------------------+
//! ```

use crate::{checksum, get_u16, get_u32, get_u64, set_u16, set_u32, set_u64, Error, Result};

/// Magic constant identifying NetDebug test packets: ASCII `NTDG`.
pub const TEST_MAGIC: u32 = 0x4E54_4447;

/// Length of the test header in bytes.
pub const TEST_HEADER_LEN: usize = 28;

/// Flag bit: this packet is the last of its stream.
pub const FLAG_LAST: u16 = 0x0001;
/// Flag bit: this packet is expected to be *dropped* by the program under
/// test; seeing it at an output port is a failure.
pub const FLAG_EXPECT_DROP: u16 = 0x0004;

/// A view over a NetDebug test header and trailing payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestHeader<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    pub const MAGIC: usize = 0;
    pub const STREAM: usize = 4;
    pub const FLAGS: usize = 6;
    pub const SEQ: usize = 8;
    pub const TS: usize = 16;
    pub const CRC: usize = 24;
    pub const PAYLOAD: usize = 28;
}

impl<T: AsRef<[u8]>> TestHeader<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        TestHeader { buffer }
    }

    /// Wrap a buffer, validating length and magic.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let h = Self::new_unchecked(buffer);
        if h.buffer.as_ref().len() < TEST_HEADER_LEN {
            return Err(Error::Truncated);
        }
        if h.magic() != TEST_MAGIC {
            return Err(Error::BadMagic);
        }
        Ok(h)
    }

    /// Magic constant (must equal [`TEST_MAGIC`]).
    pub fn magic(&self) -> u32 {
        get_u32(self.buffer.as_ref(), field::MAGIC)
    }

    /// Stream identifier: which generator stream produced this packet.
    pub fn stream(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::STREAM)
    }

    /// Flag bits (`FLAG_*`).
    pub fn flags(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::FLAGS)
    }

    /// Per-stream sequence number.
    pub fn seq(&self) -> u64 {
        get_u64(self.buffer.as_ref(), field::SEQ)
    }

    /// Generation timestamp in device cycles.
    pub fn ts_cycles(&self) -> u64 {
        get_u64(self.buffer.as_ref(), field::TS)
    }

    /// CRC32 over the trailing payload.
    pub fn payload_crc(&self) -> u32 {
        get_u32(self.buffer.as_ref(), field::CRC)
    }

    /// Trailing payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[field::PAYLOAD..]
    }

    /// True if the stored CRC matches the payload contents.
    pub fn verify_payload(&self) -> bool {
        checksum::crc32(self.payload()) == self.payload_crc()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TestHeader<T> {
    /// Write the magic constant.
    pub fn set_magic(&mut self) {
        set_u32(self.buffer.as_mut(), field::MAGIC, TEST_MAGIC);
    }

    /// Set the stream identifier.
    pub fn set_stream(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::STREAM, v);
    }

    /// Set the flag bits.
    pub fn set_flags(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::FLAGS, v);
    }

    /// Set the sequence number.
    pub fn set_seq(&mut self, v: u64) {
        set_u64(self.buffer.as_mut(), field::SEQ, v);
    }

    /// Set the timestamp in device cycles.
    pub fn set_ts_cycles(&mut self, v: u64) {
        set_u64(self.buffer.as_mut(), field::TS, v);
    }

    /// Compute the payload CRC and store it.
    pub fn fill_payload_crc(&mut self) {
        let crc = checksum::crc32(&self.buffer.as_ref()[field::PAYLOAD..]);
        set_u32(self.buffer.as_mut(), field::CRC, crc);
    }

    /// Mutable trailing payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[field::PAYLOAD..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_crc() {
        let mut buf = [0u8; TEST_HEADER_LEN + 6];
        {
            let mut h = TestHeader::new_unchecked(&mut buf[..]);
            h.set_magic();
            h.set_stream(3);
            h.set_flags(FLAG_LAST | FLAG_EXPECT_DROP);
            h.set_seq(0xDEAD_0000_BEEF);
            h.set_ts_cycles(123_456_789);
            h.payload_mut().copy_from_slice(b"abcdef");
            h.fill_payload_crc();
        }
        let h = TestHeader::new_checked(&buf[..]).unwrap();
        assert_eq!(h.stream(), 3);
        assert_eq!(h.flags(), FLAG_LAST | FLAG_EXPECT_DROP);
        assert_eq!(h.seq(), 0xDEAD_0000_BEEF);
        assert_eq!(h.ts_cycles(), 123_456_789);
        assert!(h.verify_payload());
    }

    #[test]
    fn corruption_detected_by_crc() {
        let mut buf = [0u8; TEST_HEADER_LEN + 4];
        {
            let mut h = TestHeader::new_unchecked(&mut buf[..]);
            h.set_magic();
            h.payload_mut().copy_from_slice(b"good");
            h.fill_payload_crc();
        }
        buf[TEST_HEADER_LEN] ^= 0xFF;
        let h = TestHeader::new_checked(&buf[..]).unwrap();
        assert!(!h.verify_payload());
    }

    #[test]
    fn wrong_magic_rejected() {
        let buf = [0u8; TEST_HEADER_LEN];
        assert_eq!(
            TestHeader::new_checked(&buf[..]).unwrap_err(),
            Error::BadMagic
        );
        assert_eq!(
            TestHeader::new_checked(&buf[..10]).unwrap_err(),
            Error::Truncated
        );
    }
}
