//! Internet checksum (RFC 1071) and CRC-32 helpers.
//!
//! The ones-complement checksum is used by IPv4, UDP and TCP; the
//! CRC-32 (IEEE 802.3 polynomial) is used by the NetDebug test header to
//! detect payload corruption inside the device under test.

/// Incremental ones-complement sum over a byte slice.
///
/// `data` may have odd length; the final odd byte is padded with a zero byte
/// on the right, as RFC 1071 specifies.
pub fn ones_complement_sum(mut acc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Fold a 32-bit accumulator into the final 16-bit internet checksum.
pub fn fold(mut acc: u32) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// Compute the internet checksum of `data` in one call.
pub fn checksum(data: &[u8]) -> u16 {
    fold(ones_complement_sum(0, data))
}

/// Verify that `data` (which includes its checksum field) sums to zero.
pub fn verify(data: &[u8]) -> bool {
    fold(ones_complement_sum(0, data)) == 0
}

/// IPv4 pseudo-header contribution for TCP/UDP checksums.
pub fn pseudo_header_v4(src: [u8; 4], dst: [u8; 4], protocol: u8, length: u16) -> u32 {
    let mut acc = 0u32;
    acc = ones_complement_sum(acc, &src);
    acc = ones_complement_sum(acc, &dst);
    acc += u32::from(protocol);
    acc += u32::from(length);
    acc
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
///
/// Implemented as a straightforward table-free bitwise loop: the NetDebug
/// checker only CRCs short test payloads, so simplicity wins over speed here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = ones_complement_sum(0, &data);
        assert_eq!(sum, 0x2ddf0);
        assert_eq!(fold(sum), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_right() {
        assert_eq!(ones_complement_sum(0, &[0xAB]), 0xAB00);
    }

    #[test]
    fn checksum_then_verify_round_trip() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[3] ^= 0x40;
        assert!(!verify(&data));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn pseudo_header_v4_matches_manual_sum() {
        let acc = pseudo_header_v4([192, 168, 0, 1], [10, 0, 0, 2], 17, 20);
        let manual = ones_complement_sum(0, &[192, 168, 0, 1, 10, 0, 0, 2]) + 17 + 20;
        assert_eq!(acc, manual);
    }
}
