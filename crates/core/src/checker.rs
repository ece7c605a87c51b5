//! The output packet checker.
//!
//! NetDebug's second in-device module (Figure 1): it sits on the data
//! plane's output, in parallel with the egress MACs, and verifies every
//! packet in real time. For each frame it locates the test header,
//! validates the payload CRC, updates per-stream accounting (sequence
//! gaps, reordering, duplication, latency) and enforces the stream's
//! expectation — in particular, a frame flagged `EXPECT_DROP` appearing at
//! an output is an immediate violation, which is exactly how the paper's
//! prototype caught the SDNet reject bug.
//!
//! "Line rate" is a claim about the *modelled hardware* checker: header
//! match, CRC and counter update fit a fixed budget of 2 device cycles a
//! packet, 100 Mpps at 200 MHz against the 14.88 Mpps of 64 B frames on
//! 10G; the `line_rate` bench sets that budget against checking in host
//! software. This software model's own cost is what the repo benchmark's
//! `core.checker.observe_ns_per_pkt` row measures; it is a per-packet
//! constant — one map lookup (Fx-hashed on the stream id: one multiply,
//! no SipHash rounds), one header parse, one CRC and an O(1) duplicate
//! check on in-order arrivals — independent of how many packets the
//! stream has already carried.

use crate::generator::{find_test_header, Expectation};
use netdebug_dataplane::table::FxHasher;
use netdebug_hw::{Outcome, Processed};
use netdebug_packet::testhdr::FLAG_EXPECT_DROP;
use netdebug_packet::TestHeader;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A violation detected by the checker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// A packet that the data plane was required to drop reached an output.
    ForwardedButExpectedDrop {
        /// Stream id.
        stream: u16,
        /// Sequence number.
        seq: u64,
        /// Port it (wrongly) left on.
        port: u16,
    },
    /// A packet expected to be forwarded was dropped inside the device.
    DroppedButExpectedForward {
        /// Stream id.
        stream: u16,
        /// Sequence number.
        seq: u64,
        /// The last pipeline stage the packet reached (from the taps).
        last_stage: String,
    },
    /// A packet left on the wrong port.
    WrongPort {
        /// Stream id.
        stream: u16,
        /// Sequence number.
        seq: u64,
        /// Observed port.
        got: u16,
        /// Required port.
        want: u16,
    },
    /// Payload CRC mismatch: the data plane corrupted the packet.
    Corrupted {
        /// Stream id.
        stream: u16,
        /// Sequence number.
        seq: u64,
    },
    /// An output frame carried no (or an unreadable) test header.
    Unrecognised {
        /// Port it appeared on.
        port: u16,
    },
}

/// Latency histogram with fixed power-of-two cycle buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Bucket upper bounds in cycles: `1<<i`.
    pub buckets: Vec<u64>,
    min: u64,
    max: u64,
    sum: u64,
    n: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; 24],
            min: u64::MAX,
            max: 0,
            sum: 0,
            n: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample (cycles).
    pub fn record(&mut self, cycles: u64) {
        let idx = (64 - cycles.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
        self.sum += cycles;
        self.n += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Minimum, or 0 with no samples.
    pub fn min(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }
}

/// Per-stream accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Packets the generator reported sending.
    pub sent: u64,
    /// Packets seen at outputs with a valid header.
    pub received: u64,
    /// Packets confirmed dropped (for `Expectation::Drop` streams this is
    /// success; for others it feeds `lost`).
    pub dropped: u64,
    /// Out-of-order arrivals (sequence lower than the highest seen).
    pub reordered: u64,
    /// Duplicate sequence numbers.
    pub duplicates: u64,
    /// CRC failures.
    pub corrupted: u64,
    /// Latency distribution in device cycles (injection → output).
    pub latency: LatencyHistogram,
    /// Highest sequence seen.
    pub highest_seq: Option<u64>,
}

impl StreamStats {
    /// Packets that neither arrived nor were accounted as expected drops.
    pub fn lost(&self) -> u64 {
        self.sent.saturating_sub(self.received + self.dropped)
    }
}

/// The exact set of sequence numbers a stream has delivered, as sorted,
/// disjoint, non-adjacent inclusive runs `(first, last)`. An in-order
/// stream is one run however long it gets, so the duplicate check costs
/// O(1) on monotone arrivals and O(log runs) otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
struct SeqRuns {
    runs: Vec<(u64, u64)>,
}

impl SeqRuns {
    /// Record `seq`; false if it was already present (a duplicate).
    fn insert(&mut self, seq: u64) -> bool {
        // Fast path: a sequence above everything seen extends the last run
        // or starts a new one. The second guard runs only when
        // `last < seq`, which rules out `last == u64::MAX`, so `last + 1`
        // cannot overflow.
        match self.runs.last_mut() {
            Some((_, last)) if *last >= seq => {}
            Some((_, last)) if *last + 1 == seq => {
                *last = seq;
                return true;
            }
            _ => {
                self.runs.push((seq, seq));
                return true;
            }
        }
        // First run ending at or after `seq`; one exists, or the fast path
        // would have taken the packet.
        let i = self.runs.partition_point(|&(_, last)| last < seq);
        if self.runs[i].0 <= seq {
            return false;
        }
        // `seq` falls strictly between run `i - 1` and run `i`, so neither
        // neighbour comparison can overflow.
        let joins_prev = i > 0 && self.runs[i - 1].1 + 1 == seq;
        let joins_next = seq + 1 == self.runs[i].0;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs[i - 1].1 = self.runs[i].1;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 = seq,
            (false, true) => self.runs[i].0 = seq,
            (false, false) => self.runs.insert(i, (seq, seq)),
        }
        true
    }
}

/// Everything the checker keeps for one stream, behind one map lookup: the
/// public [`StreamStats`] (which the record derefs to), the expectation
/// registered by [`Checker::open_stream`] and the duplicate tracker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamRecord {
    stats: StreamStats,
    expect: Option<Expectation>,
    seen: SeqRuns,
}

impl std::ops::Deref for StreamRecord {
    type Target = StreamStats;

    fn deref(&self) -> &StreamStats {
        &self.stats
    }
}

/// The checker's streams by id, hashed with the repo's fast Fx hash as
/// the table indexes are: a per-packet lookup costs one multiply, not
/// SipHash rounds. An id is read from a frame the data plane under test
/// emitted, but ids are 16-bit, so even ids a misbehaving data plane
/// chose to collide make at most 65 536 keys.
pub type StreamMap = HashMap<u16, StreamRecord, BuildHasherDefault<FxHasher>>;

/// The checker module.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    streams: StreamMap,
    violations: Vec<Violation>,
}

impl Checker {
    /// Create a checker with no stream open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a stream's expectation and planned packet count.
    pub fn open_stream(&mut self, stream: u16, expect: Expectation, planned: u64) {
        let record = self.streams.entry(stream).or_default();
        record.expect = Some(expect);
        record.stats.sent = planned;
    }

    /// All violations so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Per-stream statistics.
    pub fn stream(&self, stream: u16) -> Option<&StreamStats> {
        self.streams.get(&stream).map(|record| &record.stats)
    }

    /// All streams; each record derefs to its [`StreamStats`].
    pub fn streams(&self) -> &StreamMap {
        &self.streams
    }

    /// Feed one device outcome (the device's output side) to the checker.
    ///
    /// `now_cycles` is the device time when the packet appeared at the
    /// output.
    pub fn observe(&mut self, outcome: &Outcome, now_cycles: u64) {
        match outcome {
            Outcome::Tx { port, data } => self.observe_output(*port, data, now_cycles),
            Outcome::Flood { data } => {
                // Count the flood once (the checker taps the pipeline output
                // before replication).
                self.observe_output(u16::MAX, data, now_cycles);
            }
            // Drops are only attributable via the generator's records;
            // session bookkeeping calls `observe_drop` directly.
            Outcome::Dropped { .. } => {}
        }
    }

    fn observe_output(&mut self, port: u16, data: &[u8], now_cycles: u64) {
        let Some(off) = find_test_header(data) else {
            self.violations.push(Violation::Unrecognised { port });
            return;
        };
        let h = TestHeader::new_unchecked(&data[off..]);
        let stream = h.stream();
        let seq = h.seq();
        let crc_ok = h.verify_payload();
        let ts = h.ts_cycles();
        let expect_drop = h.flags() & FLAG_EXPECT_DROP != 0;

        let record = self.streams.entry(stream).or_default();
        let stats = &mut record.stats;
        stats.received += 1;
        if let Some(high) = stats.highest_seq {
            if seq < high {
                stats.reordered += 1;
            }
        }
        stats.highest_seq = Some(stats.highest_seq.map_or(seq, |h| h.max(seq)));
        if !record.seen.insert(seq) {
            stats.duplicates += 1;
        }
        if !crc_ok {
            stats.corrupted += 1;
            self.violations.push(Violation::Corrupted { stream, seq });
        }
        stats.latency.record(now_cycles.saturating_sub(ts));

        // Expectation enforcement. The EXPECT_DROP flag in the packet
        // itself lets the hardware checker flag violations with no host
        // round trip — this is the paper's detection mechanism.
        if expect_drop {
            self.violations
                .push(Violation::ForwardedButExpectedDrop { stream, seq, port });
            return;
        }
        if let Some(Expectation::Forward { port: Some(want) }) = record.expect {
            if port != u16::MAX && port != want {
                self.violations.push(Violation::WrongPort {
                    stream,
                    seq,
                    got: port,
                    want,
                });
            }
        }
    }

    /// Feed one device outcome for a known generated packet (stream
    /// `stream`, sequence `seq`) to the checker.
    ///
    /// This is the streaming seam [`NetDebug::run_stream`] drives: the
    /// device hands each [`Processed`] outcome to the checker as soon as
    /// it is accounted, so no window of outcomes ever materialises.
    /// Dropped packets are attributed directly (the generator knows what
    /// it injected); surviving packets self-identify via their test
    /// header, as the data plane may have rewritten them.
    ///
    /// [`NetDebug::run_stream`]: ../session/struct.NetDebug.html#method.run_stream
    pub fn observe_processed(&mut self, stream: u16, seq: u64, p: &Processed) {
        match &p.outcome {
            Outcome::Dropped { .. } => self.observe_drop(stream, seq, p.last_stage),
            outcome => self.observe(outcome, p.done_at_cycle),
        }
    }

    /// Record that a generated packet was dropped inside the device.
    pub fn observe_drop(&mut self, stream: u16, seq: u64, last_stage: &str) {
        let record = self.streams.entry(stream).or_default();
        record.stats.dropped += 1;
        if let Some(Expectation::Forward { .. }) = record.expect {
            self.violations.push(Violation::DroppedButExpectedForward {
                stream,
                seq,
                last_stage: last_stage.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, StreamSpec};
    use netdebug_dataplane::EgressFrame;

    fn gen_frame(stream: u16, seq: u64, ts: u64, expect: Expectation) -> EgressFrame {
        let mut g = Generator::new();
        let spec = StreamSpec::simple(stream, vec![0x55; 18], 100, expect);
        g.build(&spec, seq, ts).data.to_vec().into()
    }

    #[test]
    fn accounts_ordering_latency_and_loss() {
        let mut c = Checker::new();
        c.open_stream(1, Expectation::Forward { port: Some(2) }, 5);
        for (seq, ts, now) in [(0u64, 0u64, 50u64), (1, 100, 160), (3, 300, 420)] {
            let f = gen_frame(1, seq, ts, Expectation::Forward { port: Some(2) });
            c.observe(&Outcome::Tx { port: 2, data: f }, now);
        }
        // Out-of-order arrival of seq 2 after 3.
        let f = gen_frame(1, 2, 200, Expectation::Forward { port: Some(2) });
        c.observe(&Outcome::Tx { port: 2, data: f }, 500);
        // Duplicate of seq 3.
        let f = gen_frame(1, 3, 300, Expectation::Forward { port: Some(2) });
        c.observe(&Outcome::Tx { port: 2, data: f }, 520);

        let s = c.stream(1).unwrap();
        assert_eq!(s.received, 5);
        assert_eq!(s.reordered, 1);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.lost(), 0); // sent=5, received=5
        assert_eq!(s.latency.min(), 50);
        assert_eq!(s.latency.max(), 300);
        assert!(s.latency.mean() > 0.0);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn expect_drop_violation_detected() {
        // The reject-bug detection mechanism: EXPECT_DROP packet at output.
        let mut c = Checker::new();
        c.open_stream(9, Expectation::Drop, 1);
        let f = gen_frame(9, 0, 0, Expectation::Drop);
        c.observe(&Outcome::Tx { port: 1, data: f }, 10);
        assert_eq!(
            c.violations(),
            &[Violation::ForwardedButExpectedDrop {
                stream: 9,
                seq: 0,
                port: 1
            }]
        );
    }

    #[test]
    fn expected_drop_counts_clean() {
        let mut c = Checker::new();
        c.open_stream(9, Expectation::Drop, 2);
        c.observe_drop(9, 0, "parser:parse_ipv4");
        c.observe_drop(9, 1, "parser:parse_ipv4");
        let s = c.stream(9).unwrap();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.lost(), 0);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn unexpected_drop_localised() {
        let mut c = Checker::new();
        c.open_stream(4, Expectation::Forward { port: None }, 1);
        c.observe_drop(4, 0, "table:ipv4_lpm");
        assert_eq!(
            c.violations(),
            &[Violation::DroppedButExpectedForward {
                stream: 4,
                seq: 0,
                last_stage: "table:ipv4_lpm".to_string()
            }]
        );
    }

    #[test]
    fn wrong_port_detected() {
        let mut c = Checker::new();
        c.open_stream(2, Expectation::Forward { port: Some(3) }, 1);
        let f = gen_frame(2, 0, 0, Expectation::Forward { port: Some(3) });
        c.observe(&Outcome::Tx { port: 1, data: f }, 5);
        assert!(matches!(
            c.violations()[0],
            Violation::WrongPort {
                got: 1,
                want: 3,
                ..
            }
        ));
    }

    #[test]
    fn corruption_detected() {
        let mut c = Checker::new();
        c.open_stream(5, Expectation::Forward { port: None }, 1);
        let mut f = gen_frame(5, 0, 0, Expectation::Forward { port: None }).into_vec();
        let n = f.len();
        f[n - 1] ^= 0xFF; // corrupt a payload byte after the CRC was stamped
        c.observe(
            &Outcome::Tx {
                port: 0,
                data: f.into(),
            },
            5,
        );
        assert!(matches!(c.violations()[0], Violation::Corrupted { .. }));
    }

    #[test]
    fn unrecognised_frames_flagged() {
        let mut c = Checker::new();
        c.observe(
            &Outcome::Tx {
                port: 0,
                data: vec![0u8; 64].into(),
            },
            5,
        );
        assert!(matches!(
            c.violations()[0],
            Violation::Unrecognised { port: 0 }
        ));
    }

    /// A bare test header carrying an arbitrary sequence number (the
    /// generator cannot stamp `u64::MAX`: it computes `seq + 1`).
    fn stamped(stream: u16, seq: u64) -> EgressFrame {
        let mut data = vec![0u8; netdebug_packet::TEST_HEADER_LEN];
        let mut h = TestHeader::new_unchecked(&mut data[..]);
        h.set_magic();
        h.set_stream(stream);
        h.set_seq(seq);
        h.fill_payload_crc();
        data.into()
    }

    proptest::proptest! {
        /// The run tracker against the `Vec` scan it replaced, through the
        /// checker's own accounting: same `duplicates` (and the untouched
        /// `reordered`/`highest_seq`) on arbitrary arrivals — repeats,
        /// reordering, gaps and the top of the sequence space.
        #[test]
        fn run_tracker_matches_the_vec_scan(
            arrivals in proptest::collection::vec((0u8..4, 0u64..48), 0..160),
        ) {
            let mut c = Checker::new();
            let mut scan: Vec<u64> = Vec::new();
            let (mut duplicates, mut reordered) = (0u64, 0u64);
            for (kind, n) in arrivals {
                let seq = match kind {
                    0 | 1 => n,            // dense: duplicates, reordering, merges
                    2 => n * 1_000,        // gaps: isolated runs
                    _ => u64::MAX - n % 4, // the top, u64::MAX included
                };
                if scan.iter().max().is_some_and(|&high| seq < high) {
                    reordered += 1;
                }
                if scan.contains(&seq) {
                    duplicates += 1;
                } else {
                    scan.push(seq);
                }
                let data = stamped(3, seq);
                c.observe(&Outcome::Tx { port: 0, data }, 0);
            }
            if let Some(s) = c.stream(3) {
                proptest::prop_assert_eq!(s.duplicates, duplicates);
                proptest::prop_assert_eq!(s.reordered, reordered);
                proptest::prop_assert_eq!(s.highest_seq, scan.iter().max().copied());
                proptest::prop_assert_eq!(s.received, scan.len() as u64 + duplicates);
                // Canonical form: sorted, disjoint, non-adjacent runs
                // covering exactly the distinct sequences.
                let runs = &c.streams()[&3].seen.runs;
                proptest::prop_assert!(runs.iter().all(|r| r.0 <= r.1));
                proptest::prop_assert!(runs.windows(2).all(|w| w[0].1 < w[1].0 - 1));
                let covered: u128 = runs.iter().map(|r| u128::from(r.1 - r.0) + 1).sum();
                proptest::prop_assert_eq!(covered, scan.len() as u128);
            } else {
                proptest::prop_assert!(scan.is_empty());
            }
        }
    }

    #[test]
    fn in_order_stream_is_one_run_and_stops_allocating() {
        // Time-free linearity: however long an in-order stream gets, the
        // tracker stays one run in the allocation its first packet made.
        let mut c = Checker::new();
        c.open_stream(1, Expectation::Forward { port: Some(0) }, 1 << 17);
        c.observe(
            &Outcome::Tx {
                port: 0,
                data: stamped(1, 0),
            },
            0,
        );
        let tracker = |c: &Checker| {
            let runs = &c.streams()[&1].seen.runs;
            (runs.as_ptr(), runs.capacity(), runs.clone())
        };
        let (ptr, capacity, _) = tracker(&c);
        for seq in 1..1u64 << 17 {
            let data = stamped(1, seq);
            c.observe(&Outcome::Tx { port: 0, data }, 0);
        }
        assert_eq!(tracker(&c), (ptr, capacity, vec![(0, (1 << 17) - 1)]));
        let s = c.stream(1).unwrap();
        assert_eq!((s.received, s.duplicates, s.reordered), (1 << 17, 0, 0));
        assert!(c.violations().is_empty());
    }

    #[test]
    fn top_of_the_sequence_space_does_not_overflow() {
        let mut seen = SeqRuns::default();
        assert!(seen.insert(u64::MAX));
        assert!(!seen.insert(u64::MAX), "the append path must not wrap");
        assert!(seen.insert(u64::MAX - 2));
        assert!(seen.insert(u64::MAX - 1), "bridges the two runs");
        assert!(seen.insert(0));
        assert_eq!(seen.runs, vec![(0, 0), (u64::MAX - 2, u64::MAX)]);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = LatencyHistogram::default();
        h.record(1);
        h.record(100);
        h.record(100_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }
}
