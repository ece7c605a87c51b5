//! The test packet generator.
//!
//! One of NetDebug's two in-device hardware modules (Figure 1). It is
//! programmable from the host over the register interface: the software
//! controller writes *stream* descriptors — a template frame, a count, a
//! rate, field sweeps — and the generator emits packets **directly into the
//! data plane under test**, bypassing the front-panel MACs, impersonating
//! any ingress port.
//!
//! Every generated frame carries a [`netdebug_packet::TestHeader`] in its
//! payload area: magic, stream id, sequence number, an injection timestamp
//! in device cycles, and a payload CRC. The output checker keys on this
//! header to account for loss, reordering, duplication, corruption and
//! per-packet latency without host involvement.

use netdebug_packet::testhdr::{self, TEST_HEADER_LEN};
use netdebug_packet::TestHeader;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What the stream's packets are expected to do in the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expectation {
    /// Packets must leave the device; if `port` is given, on that port.
    Forward {
        /// Required egress port, when exact.
        port: Option<u16>,
    },
    /// Packets must be dropped by the data plane; any output is a failure.
    Drop,
    /// No expectation (pure load generation).
    Any,
}

/// A byte-offset sweep applied across the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSweep {
    /// Byte offset into the template.
    pub offset: usize,
    /// Added per packet (wrapping).
    pub step: u8,
}

/// A programmable packet stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Stream identifier (appears in every test header).
    pub stream: u16,
    /// Template frame (headers the program under test will parse).
    pub template: Vec<u8>,
    /// Number of packets.
    pub count: u64,
    /// Injection rate in packets per second; `None` = back-to-back.
    pub rate_pps: Option<f64>,
    /// Ingress port to impersonate.
    pub as_port: u16,
    /// Per-packet field sweeps.
    pub sweeps: Vec<FieldSweep>,
    /// Expected data-plane behaviour.
    pub expect: Expectation,
}

impl StreamSpec {
    /// A back-to-back stream with no sweeps.
    pub fn simple(stream: u16, template: Vec<u8>, count: u64, expect: Expectation) -> Self {
        StreamSpec {
            stream,
            template,
            count,
            rate_pps: None,
            as_port: 0,
            sweeps: Vec::new(),
            expect,
        }
    }
}

/// The generator: expands a [`StreamSpec`] into stamped frames.
#[derive(Debug, Clone, Default)]
pub struct Generator {
    emitted: u64,
}

/// One frame's bytes: a cheap handle onto one slot of a buffer shared by
/// every frame stamped in the same call.
///
/// The generator writes a whole window into one allocation, so a frame
/// costs no allocation of its own and cloning one copies no bytes. Reads
/// go through [`Frame::as_slice`] or `Deref<Target = [u8]>`; equality and
/// `Debug` are byte-wise, so two frames compare equal whichever buffers
/// hold them. Hand-built packets come in through `From<Vec<u8>>` (the
/// vector becomes a one-slot buffer; its bytes are not copied).
#[derive(Clone)]
pub struct Frame {
    window: Arc<Window>,
    /// Byte offset of this frame's slot.
    start: usize,
}

/// The frames of one stamping call, back to back: equal-length slots, so a
/// handle is the buffer plus one offset.
struct Window {
    bytes: Vec<u8>,
    frame_len: usize,
}

impl Frame {
    /// The frame's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.window.bytes[self.start..self.start + self.window.frame_len]
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        Frame {
            start: 0,
            window: Arc::new(Window {
                frame_len: bytes.len(),
                bytes,
            }),
        }
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Frame> for Vec<u8> {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// One generated frame, ready for injection.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedPacket {
    /// Frame bytes (template + test header + CRC).
    pub data: Frame,
    /// Stream id.
    pub stream: u16,
    /// Sequence number within the stream.
    pub seq: u64,
    /// Injection timestamp (device cycles) stamped into the header.
    pub ts_cycles: u64,
}

impl Generator {
    /// Create a generator.
    pub fn new() -> Self {
        Generator::default()
    }

    /// Total frames emitted since construction.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Build the `seq`-th frame of a stream, stamped at `now_cycles`.
    ///
    /// The test header (28 bytes) is appended after the template so the
    /// program under test parses the template exactly as it would parse
    /// live traffic, while the header rides in the payload region.
    pub fn build(&mut self, spec: &StreamSpec, seq: u64, now_cycles: u64) -> GeneratedPacket {
        self.stamp(spec, seq, 1, now_cycles, 0)
            .next()
            .expect("a one-frame window holds one frame")
    }

    /// Build a whole window of a stream's frames in one call: sequence
    /// numbers `first_seq .. first_seq + n`, all in one shared buffer
    /// (see [`Frame`]).
    ///
    /// Timestamps follow the injection schedule [`run_stream`] uses: the
    /// device clock advances by one inter-packet gap *before* each
    /// injection, so packet `k` of the window is stamped
    /// `start_cycles + gap_cycles * (k + 1)` (which degenerates to
    /// `start_cycles` for back-to-back streams). A window started at
    /// `origin + gap_cycles * first_seq` is therefore byte-identical to
    /// the same frames cut from the whole stream stamped in one call, or
    /// generated one at a time against a live device clock — which is what
    /// lets [`run_stream`] generate each window just before driving it.
    ///
    /// [`run_stream`]: ../session/struct.NetDebug.html#method.run_stream
    pub fn build_batch(
        &mut self,
        spec: &StreamSpec,
        first_seq: u64,
        n: u64,
        start_cycles: u64,
        gap_cycles: u64,
    ) -> Vec<GeneratedPacket> {
        self.stamp(spec, first_seq, n, start_cycles, gap_cycles)
            .collect()
    }

    /// Stamp frames `first_seq .. first_seq + n` into one buffer —
    /// template copied into its slot, sweeps applied in place, test header
    /// written behind it — and hand out one [`Frame`] per slot. Slot
    /// offsets are `usize`: a window whose bytes do not fit the address
    /// space panics here instead of truncating.
    fn stamp(
        &mut self,
        spec: &StreamSpec,
        first_seq: u64,
        n: u64,
        start_cycles: u64,
        gap_cycles: u64,
    ) -> impl Iterator<Item = GeneratedPacket> {
        let body = spec.template.len();
        let frame_len = body + TEST_HEADER_LEN;
        let total = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(frame_len))
            .expect("the window's bytes fit the address space");
        // Saturating, in step with the due time `FlowRun::due` schedules.
        let ts_of = move |k: u64| start_cycles.saturating_add(gap_cycles.saturating_mul(k + 1));
        let expect_flags = match spec.expect {
            Expectation::Drop => testhdr::FLAG_EXPECT_DROP,
            _ => 0,
        };

        // Appended slot by slot, so no byte of the buffer is written twice.
        let mut bytes = Vec::with_capacity(total);
        for k in 0..n {
            let seq = first_seq + k;
            let at = bytes.len();
            bytes.extend_from_slice(&spec.template);
            for sweep in &spec.sweeps {
                if let Some(byte) = bytes[at..].get_mut(sweep.offset) {
                    *byte = byte.wrapping_add(sweep.step.wrapping_mul(seq as u8));
                }
            }
            let last = if seq + 1 == spec.count {
                testhdr::FLAG_LAST
            } else {
                0
            };
            let mut header = [0u8; TEST_HEADER_LEN];
            let mut h = TestHeader::new_unchecked(&mut header[..]);
            h.set_magic();
            h.set_stream(spec.stream);
            h.set_flags(expect_flags | last);
            h.set_seq(seq);
            h.set_ts_cycles(ts_of(k));
            h.fill_payload_crc();
            bytes.extend_from_slice(&header);
        }
        self.emitted += n;

        let window = Arc::new(Window { bytes, frame_len });
        let stream = spec.stream;
        (0..n).map(move |k| GeneratedPacket {
            data: Frame {
                window: Arc::clone(&window),
                start: k as usize * frame_len,
            },
            stream,
            seq: first_seq + k,
            ts_cycles: ts_of(k),
        })
    }

    /// Inter-packet gap for a stream at a given core clock, in cycles.
    pub fn gap_cycles(spec: &StreamSpec, clock_hz: f64) -> u64 {
        match spec.rate_pps {
            Some(pps) if pps > 0.0 => (clock_hz / pps).round() as u64,
            _ => 0,
        }
    }
}

/// Find a test header inside (possibly rewritten) output bytes.
///
/// The data plane may have added or removed headers in front of the
/// payload, so the checker scans for the magic. The generator appends the
/// header last, so the frame's tail is probed first — one probe for every
/// frame the data plane did not lengthen behind the header, and the probe
/// that tells the real header from a template that happens to contain the
/// magic. Otherwise the scan runs from the front. Returns the byte offset
/// of the header.
pub fn find_test_header(data: &[u8]) -> Option<usize> {
    let tail = data.len().checked_sub(TEST_HEADER_LEN)?;
    let is_header = |&off: &usize| TestHeader::new_checked(&data[off..]).is_ok();
    Some(tail)
        .filter(is_header)
        .or_else(|| (0..tail).find(is_header))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec {
            stream: 7,
            template: vec![0xAA; 20],
            count: 3,
            rate_pps: Some(1_000_000.0),
            as_port: 2,
            sweeps: vec![FieldSweep { offset: 4, step: 1 }],
            expect: Expectation::Drop,
        }
    }

    #[test]
    fn frames_are_stamped_and_swept() {
        let mut g = Generator::new();
        let p0 = g.build(&spec(), 0, 100);
        let p1 = g.build(&spec(), 1, 200);
        let p2 = g.build(&spec(), 2, 300);
        assert_eq!(g.emitted(), 3);
        assert_eq!(p0.data.len(), 20 + TEST_HEADER_LEN);

        // Sweep applied to byte 4.
        assert_eq!(p0.data[4], 0xAA);
        assert_eq!(p1.data[4], 0xAB);
        assert_eq!(p2.data[4], 0xAC);

        // Headers parse and carry the right metadata.
        let off = find_test_header(&p1.data).unwrap();
        assert_eq!(off, 20);
        let h = TestHeader::new_checked(&p1.data[off..]).unwrap();
        assert_eq!(h.stream(), 7);
        assert_eq!(h.seq(), 1);
        assert_eq!(h.ts_cycles(), 200);
        assert_eq!(
            h.flags() & testhdr::FLAG_EXPECT_DROP,
            testhdr::FLAG_EXPECT_DROP
        );
        assert_eq!(h.flags() & testhdr::FLAG_LAST, 0);
        assert!(h.verify_payload());

        // Last frame flagged.
        let off = find_test_header(&p2.data).unwrap();
        let h = TestHeader::new_checked(&p2.data[off..]).unwrap();
        assert_eq!(h.flags() & testhdr::FLAG_LAST, testhdr::FLAG_LAST);
    }

    #[test]
    fn gap_cycles_from_rate() {
        // 200 MHz clock, 1 Mpps -> 200 cycles between packets.
        assert_eq!(Generator::gap_cycles(&spec(), 200e6), 200);
        let mut s = spec();
        s.rate_pps = None;
        assert_eq!(Generator::gap_cycles(&s, 200e6), 0);
    }

    #[test]
    fn header_found_after_prefix_changes() {
        let mut g = Generator::new();
        let p = g.build(&spec(), 0, 0);
        // Simulate encapsulation: 4 bytes prepended.
        let mut shifted = vec![0x11, 0x22, 0x33, 0x44];
        shifted.extend_from_slice(&p.data);
        assert_eq!(find_test_header(&shifted), Some(24));
        // Simulate decapsulation: 6 bytes stripped.
        assert_eq!(find_test_header(&p.data[6..]), Some(14));
        // Absent in unrelated bytes.
        assert_eq!(find_test_header(&[0u8; 64]), None);
        assert_eq!(find_test_header(&[0u8; TEST_HEADER_LEN - 1]), None);
    }

    #[test]
    fn tail_probe_beats_a_magic_in_the_template() {
        // A template that itself carries `NTDG` (here: as its first four
        // bytes, with room for a whole bogus header after it).
        let mut s = spec();
        s.template = vec![0u8; 40];
        s.template[..4].copy_from_slice(&testhdr::TEST_MAGIC.to_be_bytes());
        let p = Generator::new().build(&s, 2, 9);
        let off = find_test_header(&p.data).unwrap();
        assert_eq!(off, 40, "the appended header, not the template's magic");
        let h = TestHeader::new_checked(&p.data[off..]).unwrap();
        assert_eq!((h.stream(), h.seq(), h.ts_cycles()), (7, 2, 9));
        // A trailer behind the header (the data plane padded the frame)
        // defeats the tail probe; the forward scan still finds a header.
        let mut padded = p.data[4..].to_vec();
        padded.extend_from_slice(&[0u8; 3]);
        assert_eq!(find_test_header(&padded), Some(36));
    }
}
