//! TCP segment view.

use crate::{checksum, get_u16, get_u32, set_u16, set_u32, Error, Result};

/// Minimum TCP header length (no options) in bytes.
pub const HEADER_LEN: usize = 20;

/// TCP flag bits, as found in byte 13 of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN: no more data from sender.
    pub fin: bool,
    /// SYN: synchronise sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push buffered data.
    pub psh: bool,
    /// ACK: acknowledgement field is significant.
    pub ack: bool,
    /// URG: urgent pointer is significant.
    pub urg: bool,
}

impl TcpFlags {
    /// Pack into the low six bits of a byte.
    pub fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.urg as u8) << 5
    }

    /// Unpack from the low six bits of a byte.
    pub fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
        }
    }
}

/// A view over a TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    pub const SRC_PORT: usize = 0;
    pub const DST_PORT: usize = 2;
    pub const SEQ: usize = 4;
    pub const ACK: usize = 8;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: usize = 14;
    pub const CHECKSUM: usize = 16;
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        TcpSegment { buffer }
    }

    /// Wrap a buffer, validating header and data offset.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let seg = Self::new_unchecked(buffer);
        let data = seg.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let off = seg.header_len();
        if off < HEADER_LEN || off > data.len() {
            return Err(Error::BadLength);
        }
        Ok(seg)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::SRC_PORT)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::DST_PORT)
    }

    /// Sequence number.
    pub fn seq_number(&self) -> u32 {
        get_u32(self.buffer.as_ref(), field::SEQ)
    }

    /// Acknowledgement number.
    pub fn ack_number(&self) -> u32 {
        get_u32(self.buffer.as_ref(), field::ACK)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::DATA_OFF] >> 4) * 4
    }

    /// Flag bits.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_byte(self.buffer.as_ref()[field::FLAGS])
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::WINDOW)
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::SRC_PORT, v);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::DST_PORT, v);
    }

    /// Set the sequence number.
    pub fn set_seq_number(&mut self, v: u32) {
        set_u32(self.buffer.as_mut(), field::SEQ, v);
    }

    /// Set the acknowledgement number.
    pub fn set_ack_number(&mut self, v: u32) {
        set_u32(self.buffer.as_mut(), field::ACK, v);
    }

    /// Set the header length in bytes (must be a multiple of 4).
    pub fn set_header_len(&mut self, bytes: usize) {
        self.buffer.as_mut()[field::DATA_OFF] = ((bytes / 4) as u8) << 4;
    }

    /// Set the flag bits.
    pub fn set_flags(&mut self, flags: TcpFlags) {
        self.buffer.as_mut()[field::FLAGS] = flags.to_byte();
    }

    /// Set the receive window.
    pub fn set_window(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::WINDOW, v);
    }

    /// Set the checksum field to an explicit value.
    pub fn set_checksum_field(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::CHECKSUM, v);
    }

    /// Compute and fill the checksum given an IPv4 pseudo-header.
    pub fn fill_checksum_v4(&mut self, src: [u8; 4], dst: [u8; 4]) {
        self.set_checksum_field(0);
        let data = self.buffer.as_ref();
        let mut acc = checksum::pseudo_header_v4(src, dst, 6, data.len() as u16);
        acc = checksum::ones_complement_sum(acc, data);
        let sum = checksum::fold(acc);
        self.set_checksum_field(sum);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let off = self.header_len();
        &mut self.buffer.as_mut()[off..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_verify() {
        let src = [10, 0, 0, 1];
        let dst = [10, 0, 0, 2];
        let mut buf = [0u8; 24];
        {
            let mut t = TcpSegment::new_unchecked(&mut buf[..]);
            t.set_src_port(443);
            t.set_dst_port(51000);
            t.set_seq_number(0x11223344);
            t.set_ack_number(0x55667788);
            t.set_header_len(20);
            t.set_flags(TcpFlags {
                syn: true,
                ack: true,
                ..TcpFlags::default()
            });
            t.set_window(8192);
            t.payload_mut().copy_from_slice(b"data");
            t.fill_checksum_v4(src, dst);
        }
        let t = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(t.src_port(), 443);
        assert_eq!(t.dst_port(), 51000);
        assert_eq!(t.seq_number(), 0x11223344);
        assert_eq!(t.ack_number(), 0x55667788);
        assert_eq!(t.header_len(), 20);
        assert!(t.flags().syn && t.flags().ack && !t.flags().fin);
        assert_eq!(t.window(), 8192);
        assert_eq!(&buf[HEADER_LEN..], b"data");
        let acc = checksum::pseudo_header_v4(src, dst, 6, buf.len() as u16);
        assert_eq!(checksum::fold(checksum::ones_complement_sum(acc, &buf)), 0);
    }

    #[test]
    fn flags_round_trip() {
        for b in 0..0x40u8 {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn bad_offset_rejected() {
        let mut buf = [0u8; 20];
        buf[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            Error::BadLength
        );
        buf[12] = 0xF0; // 60 bytes > buffer
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            Error::BadLength
        );
    }
}
