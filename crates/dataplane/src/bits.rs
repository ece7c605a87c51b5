//! Packet field access at word width.
//!
//! P4 headers are bit-packed in network order: bit 0 of a header is the most
//! significant bit of its first byte. A field of up to 128 bits at any bit
//! offset touches at most 17 consecutive bytes, so every access is one
//! big-endian load or store of that byte span plus a shift and a mask —
//! never a loop over bits. `FieldPlan` is that span, resolved once:
//! per call by [`read_bits`]/[`write_bits`] (the reference parser and
//! deparser, the probe builder), per header field at compile time by the
//! bytecode engine's extract and deparse plans. There is no separate path
//! for byte-aligned fields; they are the `tail == 0` case of the same code.

use netdebug_p4::ir::all_ones;

/// The bytes one bit range touches, relative to some base: where to load,
/// how far to shift, what to keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FieldPlan {
    /// First byte touched.
    first: u32,
    /// Bytes touched, at most 17 (0 for an empty range on a byte boundary).
    span: u8,
    /// Bits of the last byte that lie below the range, 0..=7.
    tail: u8,
    /// The low `width` bits set.
    mask: u128,
}

impl FieldPlan {
    /// Resolve the range of `width` bits (at most 128) starting `bit_off`
    /// bits into a buffer.
    pub(crate) fn new(bit_off: usize, width: usize) -> FieldPlan {
        debug_assert!(width <= 128);
        let end = bit_off + width;
        let first = bit_off / 8;
        FieldPlan {
            first: first as u32,
            span: (end.div_ceil(8) - first) as u8,
            tail: ((8 - end % 8) % 8) as u8,
            mask: all_ones(width as u16),
        }
    }

    /// Read the range out of `data`, MSB-first. Panics when `data` ends
    /// before the range does.
    #[inline]
    pub(crate) fn load(&self, data: &[u8]) -> u128 {
        let span = &data[self.first as usize..][..self.span as usize];
        let Some((&last, rest)) = span.split_last() else {
            return 0;
        };
        // A 17-byte span overflows the accumulator only by bits above the
        // range, which the shift below pushes out anyway.
        let acc = rest
            .iter()
            .fold(0u128, |acc, &b| (acc << 8) | u128::from(b));
        ((acc << (8 - self.tail)) | u128::from(last >> self.tail)) & self.mask
    }

    /// XOR the low `width` bits of `value` into the range; bits outside it
    /// are untouched. On a zeroed range this stores `value` (fields of a
    /// fresh deparser output, which may share a byte with a neighbour);
    /// XOR-ing `old ^ new` replaces `old` by `new` ([`write_bits`]).
    #[inline]
    pub(crate) fn xor_into(&self, data: &mut [u8], value: u128) {
        let span = &mut data[self.first as usize..][..self.span as usize];
        let Some((last, rest)) = span.split_last_mut() else {
            return;
        };
        let mut v = value & self.mask;
        *last ^= (v << self.tail) as u8;
        v >>= 8 - self.tail;
        for b in rest.iter_mut().rev() {
            *b ^= v as u8;
            v >>= 8;
        }
    }
}

/// Read `width` bits starting `bit_off` bits into `data`, MSB-first.
///
/// Panics if the range exceeds the buffer — callers must length-check first
/// (the parser turns short packets into `reject`, it never panics).
pub fn read_bits(data: &[u8], bit_off: usize, width: usize) -> u128 {
    FieldPlan::new(bit_off, width).load(data)
}

/// Write the low `width` bits of `value` at `bit_off` bits into `data`,
/// MSB-first, leaving every bit outside the range untouched.
pub fn write_bits(data: &mut [u8], bit_off: usize, width: usize, value: u128) {
    let plan = FieldPlan::new(bit_off, width);
    plan.xor_into(data, plan.load(data) ^ value);
}

/// The definition the word-wide code is checked against: one bit at a time,
/// exactly as the P4 wire layout is stated. Test-only.
#[cfg(test)]
pub(crate) mod oracle {
    /// A deterministic stream of scattered bytes for the tests that compare
    /// against this module.
    pub(crate) fn noise(mut state: u64) -> impl FnMut() -> u8 {
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 32) as u8
        }
    }

    /// Bit-loop [`read_bits`](super::read_bits).
    pub(crate) fn read_bits(data: &[u8], bit_off: usize, width: usize) -> u128 {
        let mut value: u128 = 0;
        for i in 0..width {
            let bit = bit_off + i;
            let byte = data[bit / 8];
            let shift = 7 - (bit % 8);
            value = (value << 1) | u128::from((byte >> shift) & 1);
        }
        value
    }

    /// Bit-loop [`write_bits`](super::write_bits).
    pub(crate) fn write_bits(data: &mut [u8], bit_off: usize, width: usize, value: u128) {
        for i in 0..width {
            let bit = bit_off + i;
            let shift = 7 - (bit % 8);
            let v = ((value >> (width - 1 - i)) & 1) as u8;
            let byte = &mut data[bit / 8];
            *byte = (*byte & !(1 << shift)) | (v << shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_byte_reads() {
        let data = [0xAB, 0xCD, 0xEF];
        assert_eq!(read_bits(&data, 0, 8), 0xAB);
        assert_eq!(read_bits(&data, 8, 8), 0xCD);
        assert_eq!(read_bits(&data, 0, 24), 0xABCDEF);
    }

    #[test]
    fn sub_byte_reads() {
        // 0x45 = version 4, ihl 5 — the IPv4 first byte.
        let data = [0x45];
        assert_eq!(read_bits(&data, 0, 4), 4);
        assert_eq!(read_bits(&data, 4, 4), 5);
    }

    #[test]
    fn straddling_reads() {
        // flags(3) + fragOffset(13) across two bytes: 0b010_0000000000101
        let data = [0b0100_0000, 0b0000_0101];
        assert_eq!(read_bits(&data, 0, 3), 0b010);
        assert_eq!(read_bits(&data, 3, 13), 0b0000000000101);
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut data = [0u8; 16];
        write_bits(&mut data, 3, 13, 0x1ABC & 0x1FFF);
        assert_eq!(read_bits(&data, 3, 13), 0x1ABC & 0x1FFF);
        // Neighbouring bits untouched.
        assert_eq!(read_bits(&data, 0, 3), 0);
        write_bits(&mut data, 0, 3, 0b111);
        assert_eq!(read_bits(&data, 0, 3), 0b111);
        assert_eq!(read_bits(&data, 3, 13), 0x1ABC & 0x1FFF);
    }

    #[test]
    fn wide_fields() {
        let mut data = [0u8; 16];
        let v = u128::from_str_radix("0123456789ABCDEF0123456789ABCDEF", 16).unwrap();
        write_bits(&mut data, 0, 128, v);
        assert_eq!(read_bits(&data, 0, 128), v);
    }

    #[test]
    fn write_truncates_to_width() {
        let mut data = [0u8; 2];
        write_bits(&mut data, 0, 4, 0xFF);
        assert_eq!(read_bits(&data, 0, 4), 0xF);
        assert_eq!(read_bits(&data, 4, 4), 0);
    }

    /// An empty range reads as zero and writes nothing, up to and including
    /// the very end of the buffer.
    #[test]
    fn empty_range_touches_nothing() {
        let mut data = [0xA5u8; 2];
        for bit_off in 0..=16 {
            assert_eq!(read_bits(&data, bit_off, 0), 0);
            write_bits(&mut data, bit_off, 0, u128::MAX);
        }
        assert_eq!(data, [0xA5; 2]);
    }

    /// Every shape, not a sample: each `(bit_off, width)` with `bit_off`
    /// in 0..24 and `width` in 0..=128 — including the 17-byte straddle of
    /// a 128-bit field off a byte boundary — against the bit loop, on
    /// random, all-ones, all-zeros and walking-one buffers. A write must
    /// take only the low `width` bits of its value and leave every bit
    /// outside the range as it was.
    #[test]
    fn every_shape_matches_the_bit_loop() {
        const LEN: usize = 20; // (23 + 128) bits fit in 19 bytes.
        let mut next = oracle::noise(0x9E37_79B9_7F4A_7C15);
        let mut buffers = vec![[0xFFu8; LEN], [0u8; LEN]];
        for _ in 0..4 {
            buffers.push(std::array::from_fn(|_| next()));
        }
        for bit in 0..LEN * 8 {
            let mut walking = [0u8; LEN];
            walking[bit / 8] = 0x80 >> (bit % 8);
            buffers.push(walking);
        }
        for bit_off in 0..24 {
            for width in 0..=128usize {
                let ones = all_ones(width as u16);
                let values = [
                    0,
                    u128::MAX,
                    1,
                    1u128 << width.saturating_sub(1).min(127),
                    u128::from_be_bytes(std::array::from_fn(|_| next())),
                ];
                for buf in &buffers {
                    let got = read_bits(buf, bit_off, width);
                    assert_eq!(
                        got,
                        oracle::read_bits(buf, bit_off, width),
                        "read off={bit_off} width={width} buf={buf:02x?}"
                    );
                    assert_eq!(got & !ones, 0, "read off={bit_off} width={width}");
                    for value in values {
                        let (mut fast, mut slow) = (*buf, *buf);
                        write_bits(&mut fast, bit_off, width, value);
                        oracle::write_bits(&mut slow, bit_off, width, value);
                        assert_eq!(
                            fast, slow,
                            "write off={bit_off} width={width} value={value:#x} buf={buf:02x?}"
                        );
                        assert_eq!(read_bits(&fast, bit_off, width), value & ones);
                    }
                }
            }
        }
    }
}
