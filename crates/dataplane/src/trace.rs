//! Per-packet execution traces.
//!
//! The reference interpreter records every semantically meaningful step it
//! takes. Traces serve two purposes in the reproduction:
//!
//! 1. they are the "ground truth" NetDebug's fault localisation compares
//!    hardware behaviour against, and
//! 2. they give the *status monitoring* and *functional testing* use-cases
//!    a machine-readable account of where a packet went and why.
//!
//! Two representations exist. [`Trace`] is the semantic, materialised form
//! — a vector of [`TraceEvent`]s — that tests, checkers and probes pattern
//! match on. On the hot paths, however, both engines record into a
//! `TraceBuf`: a **flat binary event buffer** of `u32`-tagged
//! little-endian records appended to one reused `Vec<u8>` per packet, so
//! recording an event writes a few words instead of constructing an enum
//! (no `Arc` clone, no key-vector clone, no `String`). The buffer has two
//! lanes. The **records** lane holds every event in order. The **stage
//! lane** holds the packet's stage path: one `u32` word per parser state
//! entered or table applied, the id a state or table record would
//! otherwise carry. Each id is stored once, in the lane; a record reads
//! its id back from there. A [`LazyTrace`] borrows both lanes — from the
//! buffer, or from the flow-cache entry a hit replays — plus the program's
//! interned name tables, and decodes to [`TraceEvent`]s **only when a
//! consumer actually inspects it**: a [`TraceSink`] that just counts
//! stages walks the stage lane without touching a record.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An interned name inside a [`TraceEvent`].
///
/// Names of parser states, headers, controls, tables and actions are
/// interned **once at program-compile time** (see `netdebug-dataplane`'s
/// `CompiledProgram`); decoding an event then clones a pointer instead of
/// a heap `String`. `Arc<str>` compares by content (`PartialEq`), converts
/// from `&str` (tests construct events with `"start".into()` as before)
/// and derefs to `&str` for consumers.
pub type TraceName = Arc<str>;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The parser took a `reject` transition.
    ParserReject,
    /// The packet ran out of bytes mid-extract (P4 `PacketTooShort`).
    PacketTooShort,
    /// An action executed `mark_to_drop()` (and no later egress write).
    ActionDrop,
    /// The pipeline finished without choosing an egress port.
    NoEgress,
    /// The chosen egress port does not exist on the device.
    BadEgress,
    /// The frame was the isolated culprit of a device fault and was
    /// skipped by checkpoint/restore recovery instead of being replayed.
    Faulted,
}

impl DropReason {
    /// Stable wire code inside a [`TraceBuf`] `FINAL` record. Code 5 is
    /// retired (it named a drop reason that no longer exists) and is
    /// never reused.
    fn code(self) -> u32 {
        match self {
            DropReason::ParserReject => 0,
            DropReason::PacketTooShort => 1,
            DropReason::ActionDrop => 2,
            DropReason::NoEgress => 3,
            DropReason::BadEgress => 4,
            DropReason::Faulted => 6,
        }
    }

    fn from_code(code: u32) -> DropReason {
        match code {
            0 => DropReason::ParserReject,
            1 => DropReason::PacketTooShort,
            2 => DropReason::ActionDrop,
            3 => DropReason::NoEgress,
            6 => DropReason::Faulted,
            _ => DropReason::BadEgress,
        }
    }

    /// The reason as report text (what `Display` prints), borrowed so
    /// per-packet drop accounting can key on it without allocating.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::ParserReject => "parser reject",
            DropReason::PacketTooShort => "packet too short",
            DropReason::ActionDrop => "mark_to_drop",
            DropReason::NoEgress => "no egress chosen",
            DropReason::BadEgress => "egress port out of range",
            DropReason::Faulted => "culprit frame skipped by recovery",
        }
    }
}

impl core::fmt::Display for DropReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The final fate of a processed packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// Send the (possibly rewritten) bytes out of one port.
    Forward {
        /// Egress port.
        port: u16,
        /// Serialized packet bytes.
        data: Vec<u8>,
    },
    /// Send out of every port except the ingress (egress_spec 511).
    Flood {
        /// Serialized packet bytes.
        data: Vec<u8>,
    },
    /// Discard.
    Drop(DropReason),
}

impl Verdict {
    /// True if the packet survives to some output.
    pub fn is_forwarded(&self) -> bool {
        !matches!(self, Verdict::Drop(_))
    }

    /// The `Copy` summary the trace's [`TraceEvent::Final`] event records:
    /// the verdict kind, egress port and output length — **not** the
    /// output bytes.
    pub fn summary(&self) -> VerdictSummary {
        match self {
            Verdict::Forward { port, data } => VerdictSummary::Forward {
                port: *port,
                len: data.len() as u32,
            },
            Verdict::Flood { data } => VerdictSummary::Flood {
                len: data.len() as u32,
            },
            Verdict::Drop(reason) => VerdictSummary::Drop(*reason),
        }
    }

    /// A short human-readable summary (the [`VerdictSummary`] rendered).
    /// Formatting the full frame into a trace (as `{:?}` would) costs more
    /// than processing the packet, so only kind, port and length appear.
    pub fn label(&self) -> String {
        self.summary().to_string()
    }

    /// The output bytes, if any.
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            Verdict::Forward { data, .. } | Verdict::Flood { data } => Some(data),
            Verdict::Drop(_) => None,
        }
    }
}

/// A [`Verdict`] without the frame bytes: kind, egress port, output
/// length. `Copy`, 8 bytes of payload — what [`TraceEvent::Final`]
/// carries, replacing the per-packet `format!` string the seed allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictSummary {
    /// Forwarded out of one port with `len` output bytes.
    Forward {
        /// Egress port.
        port: u16,
        /// Output frame length, bytes.
        len: u32,
    },
    /// Flooded with `len` output bytes.
    Flood {
        /// Output frame length, bytes.
        len: u32,
    },
    /// Dropped.
    Drop(DropReason),
}

impl core::fmt::Display for VerdictSummary {
    /// Renders exactly what `Verdict::label()` historically produced.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerdictSummary::Forward { port, len } => {
                write!(f, "Forward {{ port: {port}, len: {len} }}")
            }
            VerdictSummary::Flood { len } => write!(f, "Flood {{ len: {len} }}"),
            VerdictSummary::Drop(reason) => write!(f, "Drop({reason:?})"),
        }
    }
}

/// One step of packet processing.
///
/// Name-carrying events hold [`TraceName`]s — interned `Arc<str>`s cloned
/// from the compiled program, so decoding an event never copies a string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Entered a parser state.
    ParserState {
        /// State name.
        name: TraceName,
    },
    /// Extracted a header.
    Extract {
        /// Header instance name.
        header: TraceName,
        /// Bit offset within the packet where extraction started.
        at_bit: usize,
    },
    /// Parser accepted the packet.
    ParserAccept,
    /// Parser rejected the packet.
    ParserReject,
    /// Entered a control block.
    ControlEnter {
        /// Control name.
        name: TraceName,
    },
    /// Applied a table.
    TableApply {
        /// Table name.
        table: TraceName,
        /// Evaluated key values.
        keys: Vec<u128>,
        /// Whether an entry matched.
        hit: bool,
        /// Name of the action that ran (matched or default).
        action: TraceName,
    },
    /// An action (or inline op) dropped the packet.
    MarkToDrop,
    /// `exit` executed.
    Exit,
    /// A header was emitted by the deparser.
    Emit {
        /// Header instance name.
        header: TraceName,
    },
    /// Final verdict summary.
    Final {
        /// Kind, egress port and output length of the verdict.
        verdict: VerdictSummary,
    },
}

/// A full per-packet trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace with room for `capacity` events. The batch paths
    /// size each decoded trace **exactly** from its packet's flat record
    /// buffer ([`LazyTrace::event_count`]), so the event vector is
    /// allocated once at the right size — no predecessor heuristic.
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Append an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Names of tables applied, in order.
    pub fn tables_applied(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TableApply { table, .. } => Some(table.as_ref()),
                _ => None,
            })
            .collect()
    }

    /// Names of parser states visited, in order.
    pub fn states_visited(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ParserState { name } => Some(name.as_ref()),
                _ => None,
            })
            .collect()
    }

    /// True if the parser rejected.
    pub fn parser_rejected(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::ParserReject))
    }
}

// ---------------------------------------------------------------------
// Flat binary trace records
// ---------------------------------------------------------------------

const TAG_STATE: u32 = 0;
const TAG_EXTRACT: u32 = 1;
const TAG_ACCEPT: u32 = 2;
const TAG_REJECT: u32 = 3;
const TAG_CONTROL: u32 = 4;
const TAG_TABLE: u32 = 5;
const TAG_MARK_DROP: u32 = 6;
const TAG_EXIT: u32 = 7;
const TAG_EMIT: u32 = 8;
const TAG_FINAL: u32 = 9;

/// Set in a stage-lane word that names a table; clear for a parser state.
const LANE_TABLE: u32 = 1 << 31;

/// The flat binary event buffer both engines record into on traced paths.
///
/// Two lanes of little-endian words, each one reused `Vec<u8>`:
///
/// * `records` — every event, `u32`-tagged, in execution order; table
///   keys are inlined as 16-byte words. A `TAG_STATE` record is the tag
///   alone, and a `TAG_TABLE` record carries no table id: both ids live
///   in the stage lane.
/// * `lane` — the stage path: one `u32` per state or table record, in
///   the same order. A state word is its IR id; a table word is its IR
///   id with bit 31 ([`LANE_TABLE`]) set.
///
/// Recording an event is a bounds-checked `extend_from_slice` of a few
/// words — no enum construction, no `Arc` clone, no per-event allocation
/// once the lanes have grown to their packet-lifetime high-water marks.
/// Decode to semantic [`TraceEvent`]s through [`LazyTrace`].
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    records: Vec<u8>,
    lane: Vec<u8>,
}

/// Where one packet's trace lives: its records and its stage lane, as
/// [`TraceBuf`] lays them out. Borrowed from the buffer, or from the
/// flow-cache entry a hit replays; the default is the empty trace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TraceBytes<'a> {
    pub(crate) records: &'a [u8],
    pub(crate) lane: &'a [u8],
}

impl TraceBuf {
    /// Forget the previous packet's records, keeping the allocations.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.lane.clear();
    }

    /// The current packet's records and stage lane (the flow cache stores
    /// them verbatim so a cached hit replays the exact event stream).
    #[inline]
    pub(crate) fn bytes(&self) -> TraceBytes<'_> {
        TraceBytes {
            records: &self.records,
            lane: &self.lane,
        }
    }

    #[inline]
    fn word(&mut self, w: u32) {
        self.records.extend_from_slice(&w.to_le_bytes());
    }

    #[inline]
    fn wide(&mut self, v: u128) {
        self.records.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn stage(&mut self, w: u32) {
        self.lane.extend_from_slice(&w.to_le_bytes());
    }

    #[inline]
    pub(crate) fn state(&mut self, sid: u32) {
        debug_assert!(sid < LANE_TABLE, "parser state id {sid} overflows the lane");
        self.word(TAG_STATE);
        self.stage(sid);
    }

    #[inline]
    pub(crate) fn extract(&mut self, hid: u32, at_bit: u32) {
        self.word(TAG_EXTRACT);
        self.word(hid);
        self.word(at_bit);
    }

    #[inline]
    pub(crate) fn accept(&mut self) {
        self.word(TAG_ACCEPT);
    }

    #[inline]
    pub(crate) fn reject(&mut self) {
        self.word(TAG_REJECT);
    }

    #[inline]
    pub(crate) fn control(&mut self, cid: u32) {
        self.word(TAG_CONTROL);
        self.word(cid);
    }

    #[inline]
    pub(crate) fn table(&mut self, tid: u32, aid: u32, hit: bool, keys: &[u128]) {
        debug_assert!(tid < LANE_TABLE, "table id {tid} overflows the lane");
        self.word(TAG_TABLE);
        self.stage(tid | LANE_TABLE);
        self.word(aid);
        self.word(hit as u32);
        self.word(keys.len() as u32);
        for &k in keys {
            self.wide(k);
        }
    }

    #[inline]
    pub(crate) fn mark_drop(&mut self) {
        self.word(TAG_MARK_DROP);
    }

    #[inline]
    pub(crate) fn exit(&mut self) {
        self.word(TAG_EXIT);
    }

    #[inline]
    pub(crate) fn emit(&mut self, hid: u32) {
        self.word(TAG_EMIT);
        self.word(hid);
    }

    #[inline]
    pub(crate) fn final_verdict(&mut self, v: &Verdict) {
        self.word(TAG_FINAL);
        match v.summary() {
            VerdictSummary::Forward { port, len } => {
                self.word(0);
                self.word(u32::from(port));
                self.word(len);
            }
            VerdictSummary::Flood { len } => {
                self.word(1);
                self.word(len);
                self.word(0);
            }
            VerdictSummary::Drop(reason) => {
                self.word(2);
                self.word(reason.code());
                self.word(0);
            }
        }
    }
}

/// The interned name tables a [`LazyTrace`] resolves record ids against:
/// parser states, controls, tables, actions and header instances, indexed
/// by their IR ids. Owned by the compiled program; both engines record the
/// ids, so decoded traces clone identical `Arc` pointers.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceTables {
    pub(crate) states: Vec<TraceName>,
    pub(crate) controls: Vec<TraceName>,
    pub(crate) tables: Vec<TraceName>,
    pub(crate) actions: Vec<TraceName>,
    pub(crate) headers: Vec<TraceName>,
}

#[inline]
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("u32 record word"))
}

#[inline]
fn u128_at(bytes: &[u8], off: usize) -> u128 {
    u128::from_le_bytes(bytes[off..off + 16].try_into().expect("u128 record word"))
}

/// A tapped pipeline stage a packet reached, by its IR id — the index of
/// the parser state in `Program::parser.states` or of the table in
/// `Program::tables` — which is what the engines record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Entered the parser state with this id.
    State(u32),
    /// Applied the table with this id.
    Table(u32),
}

impl Stage {
    /// The stage a [`TraceBuf`] lane word names.
    #[inline]
    fn from_lane(word: u32) -> Stage {
        if word & LANE_TABLE != 0 {
            Stage::Table(word & !LANE_TABLE)
        } else {
            Stage::State(word)
        }
    }
}

/// One parsed record of a [`TraceBuf`]; table keys stay in the buffer
/// (offset + count) so walking records allocates nothing.
#[derive(Clone, Copy)]
enum Rec {
    State(u32),
    Extract(u32, u32),
    Accept,
    Reject,
    Control(u32),
    Table {
        tid: u32,
        aid: u32,
        hit: bool,
        keys_off: usize,
        nkeys: u32,
    },
    MarkDrop,
    Exit,
    Emit(u32),
    Final(VerdictSummary),
}

/// Zero-allocation walker over the records of a [`TraceBuf`]. A state or
/// table record takes its id from the next stage-lane word, so the walk
/// advances both lanes in step.
struct Records<'a> {
    bytes: &'a [u8],
    off: usize,
    lane: &'a [u8],
    lane_off: usize,
}

impl Records<'_> {
    /// The id the next stage-lane word carries.
    #[inline]
    fn lane_id(&mut self) -> u32 {
        let word = u32_at(self.lane, self.lane_off);
        self.lane_off += 4;
        word & !LANE_TABLE
    }
}

impl Iterator for Records<'_> {
    type Item = Rec;

    fn next(&mut self) -> Option<Rec> {
        if self.off >= self.bytes.len() {
            return None;
        }
        let tag = u32_at(self.bytes, self.off);
        self.off += 4;
        let rec = match tag {
            TAG_STATE => Rec::State(self.lane_id()),
            TAG_EXTRACT => {
                let hid = u32_at(self.bytes, self.off);
                let at = u32_at(self.bytes, self.off + 4);
                self.off += 8;
                Rec::Extract(hid, at)
            }
            TAG_ACCEPT => Rec::Accept,
            TAG_REJECT => Rec::Reject,
            TAG_CONTROL => {
                let cid = u32_at(self.bytes, self.off);
                self.off += 4;
                Rec::Control(cid)
            }
            TAG_TABLE => {
                let tid = self.lane_id();
                let aid = u32_at(self.bytes, self.off);
                let hit = u32_at(self.bytes, self.off + 4) != 0;
                let nkeys = u32_at(self.bytes, self.off + 8);
                let keys_off = self.off + 12;
                self.off = keys_off + nkeys as usize * 16;
                Rec::Table {
                    tid,
                    aid,
                    hit,
                    keys_off,
                    nkeys,
                }
            }
            TAG_MARK_DROP => Rec::MarkDrop,
            TAG_EXIT => Rec::Exit,
            TAG_EMIT => {
                let hid = u32_at(self.bytes, self.off);
                self.off += 4;
                Rec::Emit(hid)
            }
            TAG_FINAL => {
                let kind = u32_at(self.bytes, self.off);
                let a = u32_at(self.bytes, self.off + 4);
                let b = u32_at(self.bytes, self.off + 8);
                self.off += 12;
                Rec::Final(match kind {
                    0 => VerdictSummary::Forward {
                        port: a as u16,
                        len: b,
                    },
                    1 => VerdictSummary::Flood { len: a },
                    _ => VerdictSummary::Drop(DropReason::from_code(a)),
                })
            }
            other => unreachable!("corrupt trace record tag {other}"),
        };
        Some(rec)
    }
}

/// A borrowed, undecoded per-packet trace: the flat record lane and stage
/// lane (from the trace buffer, or in place in the flow-cache entry a hit
/// replays) plus the program's interned name tables.
///
/// This is what a [`TraceSink`] observes on the streaming batch path.
/// Consumers that only need the stage path walk the stage lane
/// ([`LazyTrace::stages`]) without reading a record, allocating or
/// touching a name; consumers that keep the trace decode it
/// ([`LazyTrace::decode`]) into a semantic [`Trace`], pre-sized exactly
/// from the record count. Decoding is the only point that clones name
/// `Arc`s or allocates key vectors — the recording engines never do.
pub struct LazyTrace<'a> {
    bytes: TraceBytes<'a>,
    names: &'a TraceTables,
}

impl<'a> LazyTrace<'a> {
    pub(crate) fn over(bytes: TraceBytes<'a>, names: &'a TraceTables) -> LazyTrace<'a> {
        LazyTrace { bytes, names }
    }

    fn records(&self) -> Records<'a> {
        Records {
            bytes: self.bytes.records,
            off: 0,
            lane: self.bytes.lane,
            lane_off: 0,
        }
    }

    /// True when no events were recorded (tracing disabled).
    pub fn is_empty(&self) -> bool {
        self.bytes.records.is_empty()
    }

    /// Number of recorded events (one walk over the records, no decode).
    pub fn event_count(&self) -> usize {
        self.records().count()
    }

    /// True if the parser rejected the packet.
    pub fn parser_rejected(&self) -> bool {
        self.records().any(|r| matches!(r, Rec::Reject))
    }

    /// The final verdict summary, if recorded.
    pub fn final_verdict(&self) -> Option<VerdictSummary> {
        self.records().find_map(|r| match r {
            Rec::Final(s) => Some(s),
            _ => None,
        })
    }

    /// The parser states entered and tables applied, in execution order,
    /// by IR id — one walk over the stage lane, one word per stage; no
    /// record is read, nothing is decoded, no name is looked up.
    pub fn stages(&self) -> impl Iterator<Item = Stage> + 'a {
        self.bytes
            .lane
            .chunks_exact(4)
            .map(|w| Stage::from_lane(u32::from_le_bytes(w.try_into().expect("lane word"))))
    }

    /// Decode into a freshly allocated [`Trace`], sized exactly.
    pub fn decode(&self) -> Trace {
        let mut out = Trace::with_capacity(self.event_count());
        let names = self.names;
        for rec in self.records() {
            out.push(match rec {
                Rec::State(sid) => TraceEvent::ParserState {
                    name: names.states[sid as usize].clone(),
                },
                Rec::Extract(hid, at) => TraceEvent::Extract {
                    header: names.headers[hid as usize].clone(),
                    at_bit: at as usize,
                },
                Rec::Accept => TraceEvent::ParserAccept,
                Rec::Reject => TraceEvent::ParserReject,
                Rec::Control(cid) => TraceEvent::ControlEnter {
                    name: names.controls[cid as usize].clone(),
                },
                Rec::Table {
                    tid,
                    aid,
                    hit,
                    keys_off,
                    nkeys,
                } => TraceEvent::TableApply {
                    table: names.tables[tid as usize].clone(),
                    keys: (0..nkeys as usize)
                        .map(|k| u128_at(self.bytes.records, keys_off + 16 * k))
                        .collect(),
                    hit,
                    action: names.actions[aid as usize].clone(),
                },
                Rec::MarkDrop => TraceEvent::MarkToDrop,
                Rec::Exit => TraceEvent::Exit,
                Rec::Emit(hid) => TraceEvent::Emit {
                    header: names.headers[hid as usize].clone(),
                },
                Rec::Final(summary) => TraceEvent::Final { verdict: summary },
            });
        }
        out
    }
}

/// A streaming consumer of batch-path results.
///
/// `Dataplane::process_batch_with` records each packet's events into **one
/// reused flat buffer** and hands the sink the packet's [`Verdict`] — by
/// value, the moment it is produced: the sink owns it, egress frame
/// included — with its trace as an undecoded [`LazyTrace`]: over that
/// buffer, or, for a flow-cache hit, over the trace stored in the hit
/// entry, read in place. Nothing of a batch outlives its packet unless the
/// sink keeps it, so traced batch runs allocate nothing per packet beyond
/// the output frame: tap accounting walks the stage lane in place,
/// checkers and log writers call [`LazyTrace::decode`] when they need the
/// semantic events.
pub trait TraceSink {
    /// Observe packet `index`'s verdict and (undecoded) trace, before the
    /// next packet of the batch executes.
    ///
    /// The borrow is only valid for the duration of the call — the buffer
    /// is cleared and reused for the next packet, and a cache entry may be
    /// overwritten by it. When tracing is disabled on the data plane the
    /// trace is empty.
    fn observe(&mut self, index: usize, verdict: Verdict, trace: &LazyTrace<'_>);
}

/// A sink that drops everything (pure-throughput runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn observe(&mut self, _index: usize, _verdict: Verdict, _trace: &LazyTrace<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_codes_round_trip_and_five_stays_retired() {
        let all = [
            DropReason::ParserReject,
            DropReason::PacketTooShort,
            DropReason::ActionDrop,
            DropReason::NoEgress,
            DropReason::BadEgress,
            DropReason::Faulted,
        ];
        for reason in all {
            assert_eq!(DropReason::from_code(reason.code()), reason);
            assert_ne!(reason.code(), 5, "{reason:?} reuses retired code 5");
        }
        assert_eq!(DropReason::Faulted.code(), 6);
        // A stale record carrying the retired code decodes through the
        // fallback arm, like any other unknown code.
        assert_eq!(DropReason::from_code(5), DropReason::BadEgress);
    }

    #[test]
    fn trace_queries() {
        let mut t = Trace::default();
        t.push(TraceEvent::ParserState {
            name: "start".into(),
        });
        t.push(TraceEvent::Extract {
            header: "ethernet".into(),
            at_bit: 0,
        });
        t.push(TraceEvent::ParserReject);
        assert_eq!(t.states_visited(), vec!["start"]);
        assert!(t.parser_rejected());
        assert!(t.tables_applied().is_empty());
    }

    #[test]
    fn verdict_helpers() {
        let v = Verdict::Forward {
            port: 2,
            data: vec![1, 2, 3],
        };
        assert!(v.is_forwarded());
        assert_eq!(v.data(), Some(&[1u8, 2, 3][..]));
        let d = Verdict::Drop(DropReason::ParserReject);
        assert!(!d.is_forwarded());
        assert_eq!(d.data(), None);
        assert_eq!(DropReason::ParserReject.to_string(), "parser reject");
    }

    #[test]
    fn verdict_summary_renders_like_the_old_labels() {
        let fwd = Verdict::Forward {
            port: 3,
            data: vec![0; 64],
        };
        assert_eq!(fwd.label(), "Forward { port: 3, len: 64 }");
        let flood = Verdict::Flood { data: vec![0; 60] };
        assert_eq!(flood.label(), "Flood { len: 60 }");
        let drop = Verdict::Drop(DropReason::NoEgress);
        assert_eq!(drop.label(), "Drop(NoEgress)");
    }

    #[test]
    fn flat_buffer_roundtrips_every_record_kind() {
        let names = TraceTables {
            states: vec!["start".into(), "parse_ipv4".into()],
            controls: vec!["ingress".into()],
            tables: vec!["ipv4_lpm".into()],
            actions: vec!["fwd".into()],
            headers: vec!["ethernet".into(), "ipv4".into()],
        };
        let mut buf = TraceBuf::default();
        buf.state(0);
        buf.extract(0, 0);
        buf.state(1);
        buf.extract(1, 112);
        buf.accept();
        buf.control(0);
        buf.table(0, 0, true, &[0xDEAD_BEEF_u128, u128::MAX]);
        buf.mark_drop();
        buf.exit();
        buf.emit(0);
        buf.final_verdict(&Verdict::Forward {
            port: 7,
            data: vec![0; 33],
        });

        // Each of the three stage ids is one lane word instead of one
        // record word: the two lanes together are the size the records
        // would have been with the ids inline.
        assert_eq!((buf.records.len(), buf.lane.len()), (124, 12));

        let lazy = LazyTrace::over(buf.bytes(), &names);
        assert!(!lazy.is_empty());
        assert_eq!(lazy.event_count(), 11);
        assert!(!lazy.parser_rejected());
        assert_eq!(
            lazy.stages().collect::<Vec<_>>(),
            vec![Stage::State(0), Stage::State(1), Stage::Table(0)]
        );
        assert_eq!(
            lazy.final_verdict(),
            Some(VerdictSummary::Forward { port: 7, len: 33 })
        );

        let t = lazy.decode();
        assert_eq!(t.events.len(), 11);
        assert_eq!(t.states_visited(), vec!["start", "parse_ipv4"]);
        assert_eq!(t.tables_applied(), vec!["ipv4_lpm"]);
        assert_eq!(
            t.events[6],
            TraceEvent::TableApply {
                table: "ipv4_lpm".into(),
                keys: vec![0xDEAD_BEEF_u128, u128::MAX],
                hit: true,
                action: "fwd".into(),
            }
        );
        assert_eq!(
            t.events[10],
            TraceEvent::Final {
                verdict: VerdictSummary::Forward { port: 7, len: 33 }
            }
        );

        // The same lanes stored elsewhere (a cache entry keeps records then
        // lane in one vector) read back the identical trace.
        let stored = [buf.records.as_slice(), &buf.lane].concat();
        let (records, lane) = stored.split_at(buf.records.len());
        let moved = LazyTrace::over(TraceBytes { records, lane }, &names);
        assert!(moved.stages().eq(lazy.stages()));
        assert_eq!(moved.decode(), t);

        // A cleared buffer is an empty trace.
        buf.clear();
        let lazy = LazyTrace::over(buf.bytes(), &names);
        assert!(lazy.is_empty());
        assert_eq!(lazy.event_count(), 0);
        assert_eq!(lazy.stages().count(), 0);
        assert_eq!(lazy.decode(), Trace::default());
    }

    #[test]
    fn rejects_surface_through_the_lazy_view() {
        let names = TraceTables {
            states: vec!["start".into()],
            ..TraceTables::default()
        };
        let mut buf = TraceBuf::default();
        buf.state(0);
        buf.reject();
        buf.final_verdict(&Verdict::Drop(DropReason::PacketTooShort));
        let lazy = LazyTrace::over(buf.bytes(), &names);
        assert!(lazy.parser_rejected());
        assert_eq!(
            lazy.final_verdict(),
            Some(VerdictSummary::Drop(DropReason::PacketTooShort))
        );
        let t = lazy.decode();
        assert!(t.parser_rejected());
    }
}
