//! UDP datagram view.

use crate::{checksum, get_u16, set_u16, Error, Result};

/// Length of the UDP header in bytes.
pub const HEADER_LEN: usize = 8;

/// A view over a UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram<T: AsRef<[u8]>> {
    buffer: T,
}

mod field {
    pub const SRC_PORT: usize = 0;
    pub const DST_PORT: usize = 2;
    pub const LENGTH: usize = 4;
    pub const CHECKSUM: usize = 6;
    pub const PAYLOAD: usize = 8;
}

impl<T: AsRef<[u8]>> UdpDatagram<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        UdpDatagram { buffer }
    }

    /// Wrap a buffer, validating the header and length field.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let dgram = Self::new_unchecked(buffer);
        let data = dgram.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let len = usize::from(dgram.length());
        if len < HEADER_LEN || len > data.len() {
            return Err(Error::BadLength);
        }
        Ok(dgram)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::SRC_PORT)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::DST_PORT)
    }

    /// Length field (header + payload).
    pub fn length(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::LENGTH)
    }

    /// Checksum field (0 means "not computed" in IPv4).
    pub fn checksum_field(&self) -> u16 {
        get_u16(self.buffer.as_ref(), field::CHECKSUM)
    }

    /// Payload bytes, bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        let end = usize::from(self.length()).min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[field::PAYLOAD..end]
    }

    /// Verify the checksum given an IPv4 pseudo-header.
    pub fn verify_checksum_v4(&self, src: [u8; 4], dst: [u8; 4]) -> bool {
        if self.checksum_field() == 0 {
            return true; // checksum disabled
        }
        let len = usize::from(self.length()).min(self.buffer.as_ref().len());
        let mut acc = checksum::pseudo_header_v4(src, dst, 17, self.length());
        acc = checksum::ones_complement_sum(acc, &self.buffer.as_ref()[..len]);
        checksum::fold(acc) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagram<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::SRC_PORT, v);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::DST_PORT, v);
    }

    /// Set the length field.
    pub fn set_length(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::LENGTH, v);
    }

    /// Set the checksum field to an explicit value.
    pub fn set_checksum_field(&mut self, v: u16) {
        set_u16(self.buffer.as_mut(), field::CHECKSUM, v);
    }

    /// Compute and fill the checksum given an IPv4 pseudo-header.
    ///
    /// Per RFC 768 a computed checksum of zero is transmitted as `0xFFFF`.
    pub fn fill_checksum_v4(&mut self, src: [u8; 4], dst: [u8; 4]) {
        self.set_checksum_field(0);
        let len = usize::from(self.length()).min(self.buffer.as_ref().len());
        let mut acc = checksum::pseudo_header_v4(src, dst, 17, self.length());
        acc = checksum::ones_complement_sum(acc, &self.buffer.as_ref()[..len]);
        let mut sum = checksum::fold(acc);
        if sum == 0 {
            sum = 0xFFFF;
        }
        self.set_checksum_field(sum);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = usize::from(self.length()).min(self.buffer.as_ref().len());
        &mut self.buffer.as_mut()[field::PAYLOAD..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_verify() {
        let src = [192, 168, 0, 1];
        let dst = [10, 0, 0, 9];
        let mut buf = [0u8; 12];
        {
            let mut u = UdpDatagram::new_unchecked(&mut buf[..]);
            u.set_src_port(5353);
            u.set_dst_port(9999);
            u.set_length(12);
            u.payload_mut().copy_from_slice(b"ping");
            u.fill_checksum_v4(src, dst);
        }
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert_eq!(u.src_port(), 5353);
        assert_eq!(u.dst_port(), 9999);
        assert_eq!(u.length(), 12);
        assert_eq!(u.payload(), b"ping");
        assert!(u.verify_checksum_v4(src, dst));
        // A different pseudo-header must break verification.
        assert!(!u.verify_checksum_v4([172, 16, 0, 1], dst));
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut buf = [0u8; 8];
        {
            let mut u = UdpDatagram::new_unchecked(&mut buf[..]);
            u.set_length(8);
        }
        let u = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert!(u.verify_checksum_v4([1, 2, 3, 4], [5, 6, 7, 8]));
    }

    #[test]
    fn bad_lengths_rejected() {
        assert_eq!(
            UdpDatagram::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
        let mut buf = [0u8; 8];
        buf[5] = 4; // length 4 < header
        assert_eq!(
            UdpDatagram::new_checked(&buf[..]).unwrap_err(),
            Error::BadLength
        );
        buf[5] = 200; // length > buffer
        assert_eq!(
            UdpDatagram::new_checked(&buf[..]).unwrap_err(),
            Error::BadLength
        );
    }
}
