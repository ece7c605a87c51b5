//! The epoch-keyed flow cache: a memoized fast path for repeated flows.
//!
//! Real traffic is heavily flow-repetitive — the validation streams the
//! fleet runtime replays doubly so — yet the engines re-parse, re-probe
//! every table and re-execute the full bytecode for every packet of a
//! flow. For programs the cacheability analysis admits
//! ([`netdebug_p4::ir::Program::cacheability`]), the entire execution is
//! a pure function of three inputs: the ingress port, the frame length,
//! and the frame bytes the program reads, all inside the prefix the
//! parser can consume (bounded by
//! [`netdebug_p4::ir::Program::parser_longest_path_bits`]) — *given* a
//! fixed table state. The crate-internal `FlowCache` memoizes on
//! exactly that key:
//!
//! * **Key** — `(port, len, live bytes of the parsed prefix)`, hashed
//!   with the same Fx hash the table indexes use, verified by a full
//!   compare on probe. The live bytes (`CacheKey`, computed once per
//!   program by the compiler) are the union, over every parser path, of
//!   the fields the code reads or writes in each header that path
//!   extracts, at that path's offset: they determine the parse path,
//!   every table key, every action choice and every byte the deparse
//!   writes; the length covers `standard_metadata.packet_length`. Every
//!   other byte ahead of the payload passes through at its own offset,
//!   like the payload, so a stream that sweeps a byte the program never
//!   reads (a generator's L4 source-port sweep, say) hits. A program
//!   that can move a header (`setValid()`/`setInvalid()`, a deparse that
//!   drops or reorders an extracted header) keys on the whole parsed
//!   prefix instead.
//! * **Epoch** — entries are valid for exactly one pinned snapshot
//!   generation. A [`ControlPlane`](crate::ControlPlane) install bumps
//!   the shared generation; the next `FlowCache::sync_generation`
//!   observes the move and drops every entry. There is no explicit
//!   flush path — invalidation *is* the PR-3/PR-4 epoch machinery.
//! * **Storage** — 4 096 logical direct-mapped slots, but resident
//!   memory follows resident flows: a slot is one `u16` in an index
//!   (8 KiB) pointing into a dense arena of entries that grows with
//!   occupancy, so an empty cache is the index plus the second-chance
//!   tags (one `u32` a slot, 16 KiB) and a device that sees 64 flows
//!   holds 64 entries. An entry stores the frame's keyed bytes as the
//!   masked 8-byte windows the key reads them in (three words for
//!   `acl_firewall`'s 13 live bytes of 38), and the output bytes ahead of
//!   the payload; a hit rebuilds its frame from those and the live
//!   payload, then copies the bytes no execution writes from its own
//!   packet (none, for a key over the whole prefix). Dropping every
//!   entry zeroes the index and keeps the arena's buffers for the flows
//!   that come back.
//! * **Outcome** — a miss runs the compiled bytecode normally while a
//!   `MissRecord` captures the replayable side effects: the per-apply
//!   hit/miss sequence (table statistics), the counter increments, the
//!   payload split point, plus the verdict and output header bytes
//!   derived from the returned [`Verdict`]. A hit replays those without
//!   entering the interpreter loop. Traced packets store the flat trace
//!   too — record lane then stage lane, in the one vector, split at a
//!   `u32` offset — and a traced hit hands that stored trace to its
//!   `LazyTrace` in place, without copying it into the trace buffer, so
//!   consumers of a cached hit decode the identical event stream and a
//!   tap walks the identical stage path. A packet recorded for a sink
//!   that reads no records stores a **stages-only** entry: the stage
//!   lane with empty records (a full trace always ends in a final-verdict
//!   record, so no full entry has empty records). An entry serves a
//!   lookup only if it was recorded at the level the lookup needs or
//!   above, so a records reader that meets a stages-only entry misses and
//!   re-records it in full, as a traced lookup re-records an untraced one.
//! * **Dormancy** — a cache whose last `DORMANT_AFTER` (256) lookups
//!   brought no hit and no install is dormant: traffic that does not
//!   repeat pays for a hash, a probe and a tag write per packet and gets
//!   nothing back. While dormant, 15 packets in 16 bypass the cache
//!   (counted in [`CacheStats::skipped`]) and every `PROBE_EVERY`th
//!   probes; a probe that hits or installs wakes it. Traffic that repeats
//!   is found again: a flow that repeats every P packets comes round on
//!   the probe stride again within `PROBE_EVERY`·P packets, and its
//!   second probe installs it (a single repeated flow wakes the cache
//!   within 32 packets). A generation bump does not reset the count, or a
//!   cache under steady churn would pay a full 256 probes per publication.
//!
//! Programs whose verdicts read meter/register state or the ingress
//! timestamp, and programs whose parser can loop (so no finite key
//! prefix bounds the parse), classify as `Uncacheable` and bypass the
//! cache entirely. The reference engine also always bypasses: it stays
//! the unmemoized oracle the parity property tests compare against.

use crate::externs::ExternState;
use crate::table::{FxHasher, TableStats};
use crate::trace::{egress_buffer, DropReason, Recording, TraceBytes, Verdict};
use std::hash::Hasher;
use std::ops::Range;

/// Flow-cache observability counters ([`crate::Dataplane::cache_stats`]).
///
/// Hit/miss/skip/invalidation counts are cumulative since construction;
/// occupancy and capacity are instantaneous. Every packet the cached
/// compiled engine runs is exactly one of a hit, a miss or a skip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets replayed from a cached outcome.
    pub hits: u64,
    /// Probes that found no usable entry: the packet ran the full engine
    /// (and, from a key's second miss on, recorded an outcome).
    pub misses: u64,
    /// Packets a dormant cache let through unprobed: they ran the full
    /// engine as with the cache off.
    pub skipped: u64,
    /// Generation bumps that dropped a non-empty cache.
    pub invalidations: u64,
    /// Entries currently resident.
    pub occupancy: usize,
    /// Total slots.
    pub capacity: usize,
}

/// The replayable side effects one miss records while the engine runs.
///
/// Threaded as `Option<&mut MissRecord>` through the compiled engine's
/// dispatch loop; `None` (every non-caching path) costs one branch per
/// touch point.
#[derive(Debug, Default)]
pub(crate) struct MissRecord {
    /// `(table id, hit)` per apply, in execution order.
    pub(crate) applies: Vec<(u32, bool)>,
    /// `(counter id, cell index)` per increment, in execution order.
    pub(crate) counters: Vec<(u32, u64)>,
    /// Byte offset of the unparsed payload (set by parser accept).
    pub(crate) payload_start: usize,
}

impl MissRecord {
    fn clear(&mut self) {
        self.applies.clear();
        self.counters.clear();
        self.payload_start = 0;
    }
}

/// Per-byte flags [`CacheKey::new`] reads: an execution reads the byte.
pub(crate) const READ: u8 = 1;
/// Per-byte flag: an execution may write the byte, or move it.
pub(crate) const WRITTEN: u8 = 2;

/// What a flow-cache entry keys on, and what a hit takes from its own
/// packet rather than from the recorded one; derived once per program
/// from the bytes its executions read and write (`compile.rs`'s
/// `cache_key`).
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    /// The keyed bytes as 8-byte frame windows, each read as one
    /// little-endian word: the window's offset and the mask of the keyed
    /// bytes in it. A hash round and a compare per window, no byte copy.
    words: Vec<(usize, u64)>,
    /// The ascending byte ranges of the parsed prefix that no execution
    /// writes or moves: they leave as they came in, at their own offsets.
    /// Empty for a program that can move a header.
    through: Vec<Range<usize>>,
}

impl CacheKey {
    /// The key over a parsed prefix whose byte `b` carries `flags[b]`
    /// ([`READ`], [`WRITTEN`]): every flagged byte is keyed, and every
    /// unwritten one passes through.
    pub(crate) fn new(flags: &[u8]) -> CacheKey {
        let mut key = CacheKey {
            words: Vec::new(),
            through: Vec::new(),
        };
        for (b, &flag) in flags.iter().enumerate() {
            if flag != 0 {
                match key.words.last_mut() {
                    Some((at, mask)) if b < *at + 8 => *mask |= 0xFF << (8 * (b - *at)),
                    _ => key.words.push((b, 0xFF)),
                }
            }
            if flag & WRITTEN == 0 {
                match key.through.last_mut() {
                    Some(run) if run.end == b => run.end += 1,
                    _ => key.through.push(b..b + 1),
                }
            }
        }
        key
    }

    /// The keyed bytes of `data`'s window `(at, mask)`: bytes past the
    /// frame's end read as zero (the frame's length is keyed too).
    #[inline]
    fn word(data: &[u8], (at, mask): (usize, u64)) -> u64 {
        let word = match data.get(at..at + 8) {
            Some(window) => <[u8; 8]>::try_from(window).expect("an 8-byte window"),
            None => {
                let mut word = [0u8; 8];
                let tail = data.get(at..).unwrap_or_default();
                word[..tail.len()].copy_from_slice(tail);
                word
            }
        };
        u64::from_le_bytes(word) & mask
    }

    /// The keyed words of `data`, window by window.
    #[inline]
    fn of<'d>(&'d self, data: &'d [u8]) -> impl Iterator<Item = u64> + 'd {
        self.words.iter().map(|&window| Self::word(data, window))
    }
}

/// The verdict shape of a cached outcome (the frame bytes are
/// reconstructed per packet from the stored header plus the live
/// payload).
#[derive(Debug, Clone, Copy)]
enum OutcomeKind {
    Forward(u16),
    Flood,
    Drop(DropReason),
}

/// One memoized execution: everything needed to replay a packet with
/// this key without entering the interpreter loop.
#[derive(Debug)]
struct Outcome {
    kind: OutcomeKind,
    /// Output bytes **before** the payload (the deparsed headers).
    header: Vec<u8>,
    /// Where the live packet's payload starts.
    payload_start: usize,
    /// `(table id, hit)` replays into the table statistics.
    applies: Vec<(u32, bool)>,
    /// `(counter id, cell index)` replays into the extern state.
    counters: Vec<(u32, u64)>,
    /// The flat trace, present only when the entry was recorded on a
    /// traced path: the record lane (including the final-verdict record;
    /// empty for a stages-only entry), then the stage lane, in one
    /// allocation.
    trace: Option<Vec<u8>>,
    /// Where the stage lane starts in `trace`. A `u32` sits in the padding
    /// after `kind`, so an entry is no larger than with the records alone.
    trace_split: u32,
}

impl Outcome {
    /// The recording level the stored trace serves: none, the stage lane
    /// alone (empty records), or everything.
    fn level(&self) -> Recording {
        match self.trace {
            None => Recording::Nothing,
            Some(_) if self.trace_split == 0 => Recording::Stages,
            Some(_) => Recording::Everything,
        }
    }
}

/// One resident flow: its key and what to replay for it.
#[derive(Debug)]
struct Entry {
    hash: u64,
    port: u16,
    len: u32,
    /// The frame's keyed words ([`CacheKey`]), compared in full.
    key: Vec<u64>,
    outcome: Outcome,
}

impl Entry {
    /// An entry with empty buffers; [`FlowCache::commit`] fills it in.
    fn new(kind: OutcomeKind) -> Entry {
        Entry {
            hash: 0,
            port: 0,
            len: 0,
            key: Vec::new(),
            outcome: Outcome {
                kind,
                header: Vec::new(),
                payload_start: 0,
                applies: Vec::new(),
                counters: Vec::new(),
                trace: None,
                trace_split: 0,
            },
        }
    }
}

/// Number of direct-mapped slots (power of two; an arena position plus
/// one fits the `u16` index).
const SLOTS: usize = 4096;
const _: () = assert!(SLOTS <= u16::MAX as usize);

/// Lookups without a hit or an install after which the cache goes
/// dormant: one 256-frame session window.
const DORMANT_AFTER: u32 = 256;

/// A dormant cache probes one packet in this many (a power of two).
const PROBE_EVERY: u32 = 16;

/// A per-dataplane direct-mapped flow cache.
///
/// Collisions overwrite — repeated flows keep their slot hot, one-off
/// keys cycle through without evicting more than one entry each. Entry
/// buffers are reused on overwrite and across invalidations, and a hit's
/// output frame is rebuilt in the thread's spare egress buffer, so the
/// steady state of both the all-hit and the all-miss extreme allocates
/// nothing per packet for a consumer that drops each frame.
#[derive(Debug)]
pub(crate) struct FlowCache {
    /// Per slot, the resident entry's arena position plus one (0 = empty).
    /// An empty slot — every slot, when every packet misses — is decided
    /// by this one `u16` in an 8 KiB array without touching an entry; a
    /// resident one is verified by the entry's own hash and key compare.
    /// Each resident entry holds its own slot, so positions stay below
    /// [`SLOTS`].
    index: Vec<u16>,
    /// The entries, dense, in installation order: `arena[..live]` are
    /// resident, anything behind them was dropped by a generation bump
    /// and is kept for its buffers.
    arena: Vec<Entry>,
    live: usize,
    /// Second-chance filter: the low 32 bits of the key hash of each
    /// slot's most recent miss. A full entry is installed only when a key
    /// misses twice, so one-off keys (the uniform-random worst case) cost
    /// one word write here instead of a full entry write — and cannot
    /// evict a hot resident entry on a slot collision. A tag only decides
    /// whether an entry is installed, never what a lookup serves, so two
    /// keys sharing a slot and a tag (one in 2^32) change no verdict.
    tags: Vec<u32>,
    /// Snapshot generation the resident entries are valid for.
    generation: u64,
    /// Reused miss-side recording buffers (see [`MissRecord`]).
    scratch: MissRecord,
    /// Key hash of the last lookup, reused by [`FlowCache::commit`].
    last_hash: u64,
    /// Whether the last miss passed the tag filter (commit installs).
    install: bool,
    /// Packets since the last hit or install: every one a lookup until
    /// [`DORMANT_AFTER`], where the cache goes dormant, and then the
    /// 1-in-[`PROBE_EVERY`] stride. A generation bump leaves it alone.
    /// It wraps after 2^32 packets, which costs one more awake stretch.
    idle: u32,
    hits: u64,
    misses: u64,
    skipped: u64,
    invalidations: u64,
}

impl FlowCache {
    pub(crate) fn new() -> FlowCache {
        FlowCache {
            index: vec![0; SLOTS],
            arena: Vec::new(),
            live: 0,
            tags: vec![0; SLOTS],
            generation: 0,
            scratch: MissRecord::default(),
            last_hash: 0,
            install: false,
            idle: 0,
            hits: 0,
            misses: 0,
            skipped: 0,
            invalidations: 0,
        }
    }

    /// Current counters and occupancy.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            skipped: self.skipped,
            invalidations: self.invalidations,
            occupancy: self.live,
            capacity: self.index.len(),
        }
    }

    /// Align the cache with the pinned snapshot generation: if any table
    /// republished since the resident entries were recorded, drop them
    /// all. This is the *only* invalidation path — a generation compare.
    pub(crate) fn sync_generation(&mut self, generation: u64) {
        if generation == self.generation {
            return;
        }
        if self.live > 0 {
            self.index.fill(0);
            self.live = 0;
            self.invalidations += 1;
        }
        self.tags.fill(0);
        self.generation = generation;
    }

    /// Whether the next packet probes the cache: always while the cache
    /// is awake; one packet in [`PROBE_EVERY`] while it is dormant. A
    /// packet that does not probe is counted as skipped and must take the
    /// cache-off path.
    #[inline]
    pub(crate) fn probes(&mut self) -> bool {
        if self.idle < DORMANT_AFTER || self.idle.is_multiple_of(PROBE_EVERY) {
            return true;
        }
        self.idle = self.idle.wrapping_add(1);
        self.skipped += 1;
        false
    }

    /// The direct-mapped slot of a key hash: its top bits. The hash ends
    /// in a multiplication, whose low bits never see the high bytes of a
    /// word, so keys one byte apart there would share a few slots.
    #[inline]
    fn slot_of(hash: u64) -> usize {
        (hash >> (u64::BITS - SLOTS.trailing_zeros())) as usize
    }

    /// The key hash of `(port, data)`, read window by window from the
    /// frame.
    #[inline]
    fn hash_key(key: &CacheKey, port: u16, data: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64((u64::from(port) << 48) ^ data.len() as u64);
        for word in key.of(data) {
            h.write_u64(word);
        }
        h.finish()
    }

    /// Probe for `(port, frame)`. A hit replays the memoized outcome
    /// into the mutable runtime state and returns the verdict plus the hit
    /// entry's arena position (its trace is [`FlowCache::trace`] of it);
    /// `None` is a miss (the caller runs the engine with `self.scratch`
    /// recording and then calls [`FlowCache::commit`]). A lookup at a
    /// recording `level` above the entry's is a miss — the re-run
    /// re-records the entry at the level asked for, so a consumer never
    /// observes a degraded event stream. A hit or an install wakes a
    /// dormant cache; any other lookup counts towards dormancy.
    pub(crate) fn lookup(
        &mut self,
        key: &CacheKey,
        port: u16,
        data: &[u8],
        level: Recording,
        table_stats: &mut [TableStats],
        externs: &mut ExternState,
    ) -> Option<(Verdict, usize)> {
        let hash = Self::hash_key(key, port, data);
        let slot = Self::slot_of(hash);
        self.last_hash = hash;
        let resident = (self.index[slot] as usize)
            .checked_sub(1)
            .map(|at| (at, &self.arena[at]))
            .filter(|(_, e)| {
                e.hash == hash
                    && e.port == port
                    && e.len as usize == data.len()
                    && e.key.iter().copied().eq(key.of(data))
            });
        // A traced hit needs the trace bytes too: an entry recorded at a
        // lower level is resident but not a hit (re-record at this one).
        let Some((at, outcome)) = resident
            .map(|(at, e)| (at, &e.outcome))
            .filter(|(_, o)| o.level() >= level)
        else {
            self.misses += 1;
            self.install = resident.is_some() || self.tags[slot] == hash as u32;
            self.idle = if self.install {
                0
            } else {
                self.idle.wrapping_add(1)
            };
            self.tags[slot] = hash as u32;
            self.scratch.clear();
            return None;
        };
        self.hits += 1;
        self.idle = 0;
        for &(tid, was_hit) in &outcome.applies {
            table_stats[tid as usize].record(was_hit);
        }
        for &(id, idx) in &outcome.counters {
            externs.counter_inc(id as usize, idx as usize, data.len());
        }
        // The recorded header bytes, then the live payload; then, from
        // this packet, the bytes ahead of the payload that no execution
        // writes: they include the unkeyed ones, which can differ from the
        // recorded packet's (the keyed ones among them cannot). A program
        // that can move a header passes nothing through.
        let rebuild = |header: &[u8], payload_start: usize| {
            let payload = &data[payload_start..];
            let mut out = egress_buffer(header.len() + payload.len());
            out.extend_from_slice(header);
            out.extend_from_slice(payload);
            for run in &key.through {
                let end = run.end.min(payload_start);
                if run.start >= end {
                    break;
                }
                out[run.start..end].copy_from_slice(&data[run.start..end]);
            }
            out.into()
        };
        let verdict = match outcome.kind {
            OutcomeKind::Drop(reason) => Verdict::Drop(reason),
            OutcomeKind::Forward(p) => Verdict::Forward {
                port: p,
                data: rebuild(&outcome.header, outcome.payload_start),
            },
            OutcomeKind::Flood => Verdict::Flood {
                data: rebuild(&outcome.header, outcome.payload_start),
            },
        };
        Some((verdict, at))
    }

    /// The trace stored in the entry at arena position `at` (as a
    /// [`FlowCache::lookup`] hit returns it), read in place; empty for an
    /// entry recorded untraced, and records-empty for a stages-only one.
    pub(crate) fn trace(&self, at: usize) -> TraceBytes<'_> {
        let outcome = &self.arena[at].outcome;
        match &outcome.trace {
            Some(stored) => {
                let (records, lane) = stored.split_at(outcome.trace_split as usize);
                TraceBytes { records, lane }
            }
            None => TraceBytes::default(),
        }
    }

    /// The recording buffers for the engine run that follows a miss.
    pub(crate) fn record(&mut self) -> &mut MissRecord {
        &mut self.scratch
    }

    /// Whether the miss the last [`FlowCache::lookup`] reported passed
    /// the tag filter, i.e. [`FlowCache::commit`] will install an entry
    /// (callers may skip recording otherwise).
    pub(crate) fn will_install(&self) -> bool {
        self.install
    }

    /// Memoize the outcome of the engine run a miss triggered; must
    /// directly follow the [`FlowCache::lookup`] that missed (the key
    /// hash is carried over). First-time misses are filtered
    /// to a tag write in `lookup` and return without installing; a key's
    /// second miss overwrites the slot's entry (direct-mapped), reusing
    /// its buffers. `trace` carries the packet's flat trace (records and
    /// stage lane, or the stage lane alone) when the run was traced.
    pub(crate) fn commit<'v>(
        &mut self,
        key: &CacheKey,
        port: u16,
        data: &[u8],
        verdict: &'v Verdict,
        trace: Option<TraceBytes<'_>>,
    ) {
        if !self.install {
            return;
        }
        let rec = &self.scratch;
        // The output bytes ahead of the payload the parser left unread.
        let header = |frame: &'v [u8]| &frame[..frame.len() - (data.len() - rec.payload_start)];
        let (kind, header): (OutcomeKind, &[u8]) = match verdict {
            Verdict::Drop(reason) => (OutcomeKind::Drop(*reason), &[]),
            Verdict::Forward { port, data: frame } => (OutcomeKind::Forward(*port), header(frame)),
            Verdict::Flood { data: frame } => (OutcomeKind::Flood, header(frame)),
        };
        // A resident slot is overwritten where it is; an empty one takes
        // the next arena position, buffers and all if a dropped entry is
        // parked there.
        let slot = Self::slot_of(self.last_hash);
        let at = match self.index[slot] {
            0 => {
                if self.live == self.arena.len() {
                    self.arena.push(Entry::new(kind));
                }
                self.live += 1;
                self.index[slot] = self.live as u16;
                self.live - 1
            }
            at => at as usize - 1,
        };
        let e = &mut self.arena[at];
        e.hash = self.last_hash;
        e.port = port;
        e.len = data.len() as u32;
        e.key.clear();
        e.key.extend(key.of(data));
        let out = &mut e.outcome;
        out.kind = kind;
        out.header.clear();
        out.header.extend_from_slice(header);
        out.payload_start = rec.payload_start;
        out.applies.clear();
        out.applies.extend_from_slice(&rec.applies);
        out.counters.clear();
        out.counters.extend_from_slice(&rec.counters);
        match trace {
            Some(t) => {
                let stored = out.trace.get_or_insert_with(Vec::new);
                stored.clear();
                stored.reserve_exact(t.records.len() + t.lane.len());
                stored.extend_from_slice(t.records);
                stored.extend_from_slice(t.lane);
                out.trace_split = t.records.len() as u32;
            }
            None => out.trace = None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledProgram;
    use Recording::{Everything, Nothing, Stages};

    /// The key of a program that can move a header and parses `cap`
    /// bytes: all of them.
    fn whole(cap: usize) -> CacheKey {
        CacheKey::new(&vec![READ | WRITTEN; cap])
    }

    /// The bytes `key` keys on, as ascending runs.
    fn runs(key: &CacheKey) -> Vec<Range<usize>> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for &(at, mask) in &key.words {
            for b in (0..8).filter(|b| mask >> (8 * b) & 0xFF != 0) {
                match runs.last_mut() {
                    Some(run) if run.end == at + b => run.end += 1,
                    _ => runs.push(at + b..at + b + 1),
                }
            }
        }
        runs
    }

    /// The bytes a flow-cache entry keys on, pinned on the benchmark
    /// programs: the live fields of each header at every offset a parser
    /// path extracts it at. A program that can move a header keys on the
    /// whole prefix: `tunnel_encap` (`setValid()`), and `liveness_shapes.p4`
    /// (encap, decap, reorder). An uncacheable program has no key.
    #[test]
    fn cache_keys_are_pinned() {
        let key = |source: &str| {
            let cp = CompiledProgram::compile(&netdebug_p4::compile(source).unwrap());
            let runs = |key: CacheKey| runs(&key).iter().map(|r| (r.start, r.end)).collect();
            cp.cache_key.map(runs)
        };
        let whole = |source: &str| {
            let ir = netdebug_p4::compile(source).unwrap();
            let cap = ir.parser_longest_path_bits().unwrap().div_ceil(8) as usize;
            Some(vec![(0, cap)])
        };
        assert_eq!(key(netdebug_p4::corpus::L2_SWITCH), Some(vec![(0, 6)]));
        assert_eq!(
            key(netdebug_p4::corpus::IPV4_FORWARD),
            Some(vec![(0, 15), (22, 23), (30, 34)])
        );
        assert_eq!(
            key(netdebug_p4::corpus::ACL_FIREWALL),
            Some(vec![(12, 14), (23, 24), (26, 34), (36, 38)])
        );
        assert_eq!(
            key(netdebug_p4::corpus::TUNNEL_ENCAP),
            whole(netdebug_p4::corpus::TUNNEL_ENCAP)
        );
        let shapes = include_str!("../tests/liveness_shapes.p4");
        assert_eq!(key(shapes), whole(shapes));
        assert_eq!(key(netdebug_p4::corpus::FEATURE_STATEFUL), None);
    }

    #[test]
    fn generation_sync_drops_entries_once() {
        let (mut c, key) = (FlowCache::new(), whole(14));
        c.sync_generation(1);
        assert_eq!(c.stats().invalidations, 0, "empty cache: nothing dropped");
        // Fake an occupied slot through the public surface: a miss + commit.
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let frame = [0u8; 32];
        // First miss only arms the tag filter; the second installs.
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 0, &frame, Nothing, &mut stats, &mut ext)
                .is_none());
            c.commit(&key, 0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        c.sync_generation(2);
        assert_eq!(c.stats().occupancy, 0);
        assert_eq!(c.stats().invalidations, 1);
        // Same generation again: no further invalidation.
        c.sync_generation(2);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn hit_replays_verdict_with_live_payload() {
        let (mut c, key) = (FlowCache::new(), whole(4));
        let mut stats: Vec<TableStats> = vec![TableStats::default()];
        let mut ext = ExternState::new(&[]);
        let a = [1u8, 2, 3, 4, 0xAA, 0xBB];
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 7, &a, Nothing, &mut stats, &mut ext)
                .is_none());
            c.record().payload_start = 4;
            c.record().applies.push((0, true));
            c.commit(
                &key,
                7,
                &a,
                &Verdict::Forward {
                    port: 3,
                    data: vec![9, 9, 0xAA, 0xBB].into(),
                },
                None,
            );
        }
        // Same key, different payload: the hit splices the live bytes.
        let b = [1u8, 2, 3, 4, 0xCC, 0xDD];
        let (v, _) = c
            .lookup(&key, 7, &b, Nothing, &mut stats, &mut ext)
            .expect("hit");
        assert_eq!(
            v,
            Verdict::Forward {
                port: 3,
                data: vec![9, 9, 0xCC, 0xDD].into(),
            }
        );
        assert_eq!(stats[0].hits, 1, "apply replayed into table stats");
        assert_eq!(c.stats().hits, 1);
        // Different port or length: miss.
        assert!(c
            .lookup(&key, 8, &b, Nothing, &mut stats, &mut ext)
            .is_none());
        assert!(c
            .lookup(&key, 7, &b[..5], Nothing, &mut stats, &mut ext)
            .is_none());
    }

    #[test]
    fn traced_lookup_of_untraced_entry_misses() {
        let (mut c, key) = (FlowCache::new(), whole(2));
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let frame = [5u8, 6, 7];
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 0, &frame, Nothing, &mut stats, &mut ext)
                .is_none());
            c.commit(&key, 0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        // Untraced hit works…
        assert!(c
            .lookup(&key, 0, &frame, Nothing, &mut stats, &mut ext)
            .is_some());
        // …but a traced probe must re-run to capture the event stream.
        assert!(c
            .lookup(&key, 0, &frame, Everything, &mut stats, &mut ext)
            .is_none());
        let trace = TraceBytes {
            records: &[1, 2, 3, 4],
            lane: &[5, 6, 7, 8],
        };
        c.commit(
            &key,
            0,
            &frame,
            &Verdict::Drop(DropReason::NoEgress),
            Some(trace),
        );
        let (_, at) = c
            .lookup(&key, 0, &frame, Everything, &mut stats, &mut ext)
            .expect("traced hit");
        // The hit's trace is read where the entry stores it, split back
        // into its two lanes.
        let stored = c.trace(at);
        assert_eq!((stored.records, stored.lane), (trace.records, trace.lane));
        // An untraced re-record drops the stored trace.
        c.install = true;
        c.commit(&key, 0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        assert!(c.trace(at).records.is_empty() && c.trace(at).lane.is_empty());
    }

    #[test]
    fn a_records_reader_re_records_a_stages_only_entry() {
        let (mut c, key) = (FlowCache::new(), whole(2));
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let frame = [5u8, 6, 7];
        let drop = Verdict::Drop(DropReason::NoEgress);
        let lane_only = TraceBytes {
            records: &[],
            lane: &[1, 0, 0, 0],
        };
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 0, &frame, Stages, &mut stats, &mut ext)
                .is_none());
            c.commit(&key, 0, &frame, &drop, Some(lane_only));
        }
        // A stages-only entry serves the stage lane, and untraced lookups…
        let (_, at) = c
            .lookup(&key, 0, &frame, Stages, &mut stats, &mut ext)
            .expect("stages hit");
        assert_eq!(
            (c.trace(at).records, c.trace(at).lane),
            (lane_only.records, lane_only.lane)
        );
        assert!(c
            .lookup(&key, 0, &frame, Nothing, &mut stats, &mut ext)
            .is_some());
        // …but a records reader misses and re-records it in full.
        assert!(c
            .lookup(&key, 0, &frame, Everything, &mut stats, &mut ext)
            .is_none());
        assert!(c.will_install());
        let full = TraceBytes {
            records: &[9, 0, 0, 0],
            lane: &[1, 0, 0, 0],
        };
        c.commit(&key, 0, &frame, &drop, Some(full));
        let (_, at) = c
            .lookup(&key, 0, &frame, Everything, &mut stats, &mut ext)
            .expect("full hit");
        assert_eq!(
            (c.trace(at).records, c.trace(at).lane),
            (full.records, full.lane)
        );
        // The full entry now serves every level, in the same slot.
        assert!(c
            .lookup(&key, 0, &frame, Stages, &mut stats, &mut ext)
            .is_some());
        assert_eq!(c.stats().occupancy, 1);
        assert_eq!((c.stats().hits, c.stats().misses), (4, 3));
    }

    /// One packet through the cache as `run_one` drives it: the dormancy
    /// gate, a lookup, and a commit on a miss. `None` if the packet was
    /// let through unprobed, else whether it hit.
    fn drive(c: &mut FlowCache, frame: &[u8]) -> Option<bool> {
        if !c.probes() {
            return None;
        }
        let (key, mut stats, mut ext) = (whole(4), vec![], ExternState::new(&[]));
        let hit = c
            .lookup(&key, 0, frame, Nothing, &mut stats, &mut ext)
            .is_some();
        if !hit {
            c.commit(&key, 0, frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        Some(hit)
    }

    /// A cache that has seen `DORMANT_AFTER` one-off keys, each probed.
    fn dormant_cache() -> FlowCache {
        let mut c = FlowCache::new();
        for k in 0..DORMANT_AFTER {
            assert_eq!(drive(&mut c, &k.to_be_bytes()), Some(false), "key {k}");
        }
        c
    }

    #[test]
    fn one_off_traffic_puts_the_cache_to_sleep() {
        let mut c = dormant_cache();
        assert_eq!(c.stats().skipped, 0, "awake for the first 256 lookups");
        let strides = 8;
        let seen: Vec<Option<bool>> = (0..strides * PROBE_EVERY)
            .map(|k| drive(&mut c, &(1 << 20 | k).to_be_bytes()))
            .collect();
        for stride in seen.chunks(PROBE_EVERY as usize) {
            assert_eq!(
                stride.iter().filter(|o| o.is_none()).count(),
                15,
                "{stride:?}"
            );
            assert_eq!(stride[0], Some(false), "one packet in 16 probes");
        }
        let stats = c.stats();
        assert_eq!(stats.skipped, u64::from(strides * (PROBE_EVERY - 1)));
        assert_eq!(
            stats.hits + stats.misses + stats.skipped,
            u64::from(DORMANT_AFTER + strides * PROBE_EVERY)
        );
        // A publication drops the entries but not the count.
        c.sync_generation(7);
        let skipped = (0..PROBE_EVERY)
            .filter(|k| drive(&mut c, &(2 << 20 | k).to_be_bytes()).is_none())
            .count();
        assert_eq!(skipped, 15, "still dormant after a generation bump");
    }

    #[test]
    fn a_repeated_flow_wakes_a_dormant_cache() {
        let mut c = dormant_cache();
        let flow = [0xEEu8; 4];
        // The stride's first probe arms the tag, its second installs.
        let woke = (1..=32).find(|_| {
            drive(&mut c, &flow);
            c.stats().occupancy == 1
        });
        assert!(woke.is_some(), "{:?}", c.stats());
        let skipped = c.stats().skipped;
        for _ in 0..3 * DORMANT_AFTER {
            assert_eq!(drive(&mut c, &flow), Some(true));
        }
        assert_eq!(
            c.stats().skipped,
            skipped,
            "an awake cache probes every packet"
        );
    }

    #[test]
    fn every_packet_is_a_hit_a_miss_or_a_skip() {
        let ir = netdebug_p4::compile(netdebug_p4::corpus::L2_SWITCH).unwrap();
        let mut dp = crate::Dataplane::new(ir);
        let frame = |k: u32| {
            let mut f = vec![0u8; 64];
            f[2..6].copy_from_slice(&k.to_be_bytes());
            f
        };
        // Each one-off key is sent once, so the cache goes dormant; the
        // windows alternate between the two batch paths.
        let one_off: Vec<Vec<u8>> = (0..2000).map(frame).collect();
        let repeated = vec![frame(u32::MAX); 300];
        for frames in [&one_off, &repeated] {
            for (i, window) in frames.chunks(100).enumerate() {
                let pkts: Vec<(u16, &[u8])> = window.iter().map(|f| (1, f.as_slice())).collect();
                if i % 2 == 0 {
                    dp.process_batch(&pkts, 0);
                } else {
                    dp.process_batch_with(&pkts, 0, &mut crate::NullSink);
                }
            }
        }
        let s = dp.cache_stats();
        assert!(s.skipped > 0 && s.hits > 0, "{s:?}");
        assert_eq!(s.hits + s.misses + s.skipped, dp.packets_processed());
    }

    /// A stored trace costs its entry no size: the lane split point lives
    /// in `Outcome`'s padding, and the lanes share one allocation.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_lane_split_does_not_grow_an_entry() {
        assert_eq!(std::mem::size_of::<Outcome>(), 112);
        assert_eq!(std::mem::size_of::<Entry>(), 152);
    }

    #[test]
    fn one_off_keys_never_evict_a_resident_entry() {
        let (mut c, key) = (FlowCache::new(), whole(1));
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let hot = [0xA0u8, 0, 0];
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 0, &hot, Nothing, &mut stats, &mut ext)
                .is_none());
            c.commit(&key, 0, &hot, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        // A stream of one-off keys: each misses once, arms (and re-arms)
        // tags, but never passes the filter — occupancy stays put and the
        // hot key keeps hitting even if a one-off collides with its slot.
        for b in 0u8..32 {
            let frame = [b, 1, 2];
            assert!(c
                .lookup(&key, 0, &frame, Nothing, &mut stats, &mut ext)
                .is_none());
            assert!(!c.will_install());
            c.commit(&key, 0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        assert!(c
            .lookup(&key, 0, &hot, Nothing, &mut stats, &mut ext)
            .is_some());
    }

    /// Miss on `frame` with a `Forward` verdict to `out_port` until the
    /// tag filter lets it in.
    fn install(c: &mut FlowCache, frame: &[u8], out_port: u16) {
        let (key, mut stats, mut ext) = (whole(4), vec![], ExternState::new(&[]));
        while c
            .lookup(&key, 0, frame, Nothing, &mut stats, &mut ext)
            .is_none()
        {
            c.commit(
                &key,
                0,
                frame,
                &Verdict::Forward {
                    port: out_port,
                    data: frame.to_vec().into(),
                },
                None,
            );
        }
    }

    fn probe(c: &mut FlowCache, frame: &[u8]) -> Option<Verdict> {
        let (key, mut stats, mut ext) = (whole(4), vec![], ExternState::new(&[]));
        c.lookup(&key, 0, frame, Nothing, &mut stats, &mut ext)
            .map(|(v, _)| v)
    }

    #[test]
    fn one_byte_sweeps_spread_over_the_slots() {
        // A 64 B frame keyed as each program keys it, and the live byte a
        // session sweeps in it: the low byte of the destination MAC
        // (`l2_switch`), of the IPv4 destination (`ipv4_forward`), of the
        // L4 destination port (`acl_firewall`), each in the last run of
        // its key. Taken from the hash's low bits, each sweep's 256 keys
        // shared at most 32 slots.
        let key = |source| {
            let ir = netdebug_p4::compile(source).unwrap();
            CompiledProgram::compile(&ir).cache_key.unwrap()
        };
        let sweeps = [
            (5, key(netdebug_p4::corpus::L2_SWITCH)),
            (33, key(netdebug_p4::corpus::IPV4_FORWARD)),
            (37, key(netdebug_p4::corpus::ACL_FIREWALL)),
        ];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..8 {
            let mut frame = [0u8; 64];
            for byte in &mut frame {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                *byte = rng as u8;
            }
            for (at, key) in &sweeps {
                let last = runs(key).pop().unwrap();
                assert!(last.contains(at), "byte {at} is in the key's last run");
                let slots: std::collections::HashSet<usize> = (0..=255u8)
                    .map(|b| {
                        frame[*at] = b;
                        FlowCache::slot_of(FlowCache::hash_key(key, 0, &frame))
                    })
                    .collect();
                assert!(slots.len() >= 160, "byte {at}: {} slots", slots.len());
            }
        }
    }

    #[test]
    fn a_hit_takes_the_unkeyed_bytes_from_its_own_packet() {
        // Bytes 1 and 3..5 key the entry, and 3 may be written; 0, 2
        // and 5 ahead of the payload (which starts at 6) pass through
        // unread.
        let key = CacheKey::new(&[0, READ, 0, READ | WRITTEN, READ, 0]);
        let mut c = FlowCache::new();
        let (mut stats, mut ext) = (vec![], ExternState::new(&[]));
        let a = [0xA0, 1, 0xA2, 3, 4, 0xA5, 0xA6, 0xA7];
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 0, &a, Nothing, &mut stats, &mut ext)
                .is_none());
            c.record().payload_start = 6;
            let mut out = a;
            out[3] = 0x33; // a written field
            c.commit(
                &key,
                0,
                &a,
                &Verdict::Forward {
                    port: 1,
                    data: out.to_vec().into(),
                },
                None,
            );
        }
        assert_eq!(
            c.arena[0].key,
            [u64::from_le_bytes([1, 0, 3, 4, 0, 0, 0, 0])],
            "only the keyed bytes are stored"
        );
        let b = [0xB0, 1, 0xB2, 3, 4, 0xB5, 0xB6, 0xB7];
        let (v, _) = c
            .lookup(&key, 0, &b, Nothing, &mut stats, &mut ext)
            .expect("hit");
        assert_eq!(
            v,
            Verdict::Forward {
                port: 1,
                data: vec![0xB0, 1, 0xB2, 0x33, 4, 0xB5, 0xB6, 0xB7].into(),
            }
        );
        // A keyed byte still tells flows apart.
        let mut d = b;
        d[4] = 0x44;
        assert!(c
            .lookup(&key, 0, &d, Nothing, &mut stats, &mut ext)
            .is_none());
    }

    /// Four programs that move a header, one way each: encap by
    /// `setValid()`, a deparse that leaves an extracted header out, one
    /// that emits the headers out of extraction order, and one whose
    /// if/else emits flatten to a deparse that lists `a` twice, so every
    /// path leaves with two copies of it. Each one's key is the whole
    /// prefix: an unkeyed byte would leave at another offset than it
    /// came in at, or at two.
    fn moving_programs() -> [String; 4] {
        let program = |apply: &str, emit: &str| {
            format!(
                "header a_t {{ bit<4> kind; bit<4> n; bit<8> x; bit<16> y; }}
                header b_t {{ bit<8> tag; bit<8> v; bit<16> w; }}
                header o_t {{ bit<8> o; bit<8> z; }}
                struct headers_t {{ o_t outer; a_t a; b_t b; }}
                struct metadata_t {{ bit<8> m; }}
                parser P(packet_in pkt, out headers_t hdr, inout metadata_t meta,
                         inout standard_metadata_t standard_metadata) {{
                    state start {{
                        pkt.extract(hdr.a);
                        transition select(hdr.a.kind) {{ 1: parse_b; default: accept; }}
                    }}
                    state parse_b {{ pkt.extract(hdr.b); transition accept; }}
                }}
                control I(inout headers_t hdr, inout metadata_t meta,
                          inout standard_metadata_t standard_metadata) {{
                    apply {{ standard_metadata.egress_spec = 1; {apply} }}
                }}
                control D(packet_out pkt, in headers_t hdr) {{ apply {{ {emit} }} }}
                V1Switch(P(), I(), D()) main;"
            )
        };
        [
            program(
                "if (hdr.a.n == 3) { hdr.outer.setValid(); }",
                "pkt.emit(hdr.outer); pkt.emit(hdr.a); pkt.emit(hdr.b);",
            ),
            program("", "pkt.emit(hdr.outer); pkt.emit(hdr.b);"),
            program("", "pkt.emit(hdr.b); pkt.emit(hdr.a);"),
            program(
                "",
                "if (hdr.b.isValid()) { pkt.emit(hdr.a); pkt.emit(hdr.b); } \
                 else { pkt.emit(hdr.a); }",
            ),
        ]
    }

    #[test]
    fn a_program_that_moves_a_header_keys_the_whole_prefix() {
        for source in moving_programs() {
            let ir = netdebug_p4::compile(&source).unwrap();
            let key = CompiledProgram::compile(&ir).cache_key.unwrap();
            assert_eq!(runs(&key).first(), Some(&(0..8)), "{source}");
            assert_eq!(runs(&key).len(), 1, "{source}");
            assert!(key.through.is_empty(), "{source}");
        }
    }

    /// The key walk enters a state once per offset and last deparse
    /// position, not once per path: 32 parser diamonds in a row are 2^32
    /// paths, and their key is every selected-on byte, passed through.
    #[test]
    fn a_parser_of_many_diamonds_keys_in_one_walk() {
        const N: usize = 32;
        let fields: String = (0..N).map(|i| format!("k_t h{i}; ")).collect();
        let states: String = (0..N)
            .map(|i| {
                let next = if i + 1 == N {
                    "accept".to_string()
                } else {
                    format!("s{}", i + 1)
                };
                format!(
                    "state s{i} {{ pkt.extract(hdr.h{i});
                         transition select(hdr.h{i}.k) {{ 1: l{i}; default: r{i}; }} }}
                     state l{i} {{ transition {next}; }}
                     state r{i} {{ transition {next}; }}"
                )
            })
            .collect();
        let emits: String = (0..N).map(|i| format!("pkt.emit(hdr.h{i}); ")).collect();
        let source = format!(
            "header k_t {{ bit<8> k; }}
            struct headers_t {{ {fields} }}
            struct metadata_t {{ bit<8> m; }}
            parser P(packet_in pkt, out headers_t hdr, inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {{
                state start {{ transition s0; }}
                {states}
            }}
            control I(inout headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {{
                apply {{ standard_metadata.egress_spec = 1; }}
            }}
            control D(packet_out pkt, in headers_t hdr) {{ apply {{ {emits} }} }}
            V1Switch(P(), I(), D()) main;"
        );
        let key = CompiledProgram::compile(&netdebug_p4::compile(&source).unwrap())
            .cache_key
            .unwrap();
        let ends =
            |runs: &[Range<usize>]| runs.iter().map(|r| (r.start, r.end)).collect::<Vec<_>>();
        assert_eq!(ends(&runs(&key)), [(0, N)]);
        assert_eq!(ends(&key.through), [(0, N)]);
    }

    /// A frame on `shape`'s parse path: raw bytes, TCP or UDP in IPv4
    /// over Ethernet, IPv4 under a VLAN tag, or the chained headers of
    /// the feature programs.
    fn shaped(shape: u8, mut frame: Vec<u8>) -> Vec<u8> {
        let mut set = |at: usize, bytes: &[u8]| {
            if let Some(dst) = frame.get_mut(at..at + bytes.len()) {
                dst.copy_from_slice(bytes);
            }
        };
        match shape {
            1 | 2 => {
                set(12, &[0x08, 0x00, 0x45]);
                set(23, &[if shape == 1 { 6 } else { 17 }]);
            }
            3 => set(12, &[0x81, 0x00, 0x00, 0x07, 0x08, 0x00, 0x45]),
            4 => {
                for at in (0..16).step_by(2) {
                    set(at, &[1]);
                }
            }
            _ => {}
        }
        frame
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// What the key leaves out, the program cannot tell apart: on
        /// every cacheable corpus program and on the four that move a
        /// header ([`moving_programs`]), run on the reference engine
        /// with the cache off, flipping a byte of the parsed prefix that
        /// the key does not cover leaves the verdict kind, the egress
        /// port, the decoded trace, the table statistics and the counters
        /// as they were, and changes the egress frame in that byte only —
        /// to the flipped value, at the same offset. That is what a hit
        /// serving a packet with other unkeyed bytes rebuilds.
        #[test]
        fn unkeyed_bytes_pass_through_unread(
            prog_idx in 0usize..netdebug_p4::corpus::corpus().len() + moving_programs().len(),
            shape in 0u8..5,
            soup in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            port in 0u16..4,
            pick in proptest::prelude::any::<u16>(),
            flip in 1u8..=255,
        ) {
            use proptest::prelude::*;
            let corpus = netdebug_p4::corpus::corpus();
            let moving = moving_programs();
            let (name, source) = match corpus.get(prog_idx) {
                Some(prog) => (prog.name, prog.source),
                None => ("moving", moving[prog_idx - corpus.len()].as_str()),
            };
            let ir = netdebug_p4::compile(source).unwrap();
            let Some(key) = CompiledProgram::compile(&ir).cache_key else {
                return Ok(());
            };
            let frame = shaped(shape, soup);
            let cap = ir.parser_longest_path_bits().unwrap().div_ceil(8) as usize;
            let runs = runs(&key);
            let unkeyed: Vec<usize> = (0..cap.min(frame.len()))
                .filter(|b| !runs.iter().any(|run| run.contains(b)))
                .collect();
            if unkeyed.is_empty() {
                return Ok(());
            }
            let at = unkeyed[usize::from(pick) % unkeyed.len()];
            let mut flipped = frame.clone();
            flipped[at] ^= flip;
            let run = |data: &[u8]| {
                let mut dp = crate::Dataplane::new(ir.clone());
                dp.set_engine(crate::Engine::Reference);
                dp.set_flow_cache(false);
                let (verdict, trace) = dp.process(port, data, 0);
                let tables: Vec<_> =
                    ir.tables.iter().map(|t| dp.table_stats(&t.name).unwrap()).collect();
                let counters: Vec<_> = ir
                    .externs
                    .iter()
                    .filter(|e| e.kind == netdebug_p4::ir::ExternKindIr::Counter)
                    .flat_map(|e| (0..e.size.min(64) as usize).map(|i| dp.counter(&e.name, i)))
                    .collect();
                (verdict, trace, tables, counters)
            };
            let (verdict, trace, tables, counters) = run(&frame);
            let moved = run(&flipped);
            // The frame the flipped packet must leave as: the same bytes,
            // but the flipped one, which left untouched at its offset.
            let expected = match &verdict {
                Verdict::Drop(reason) => Verdict::Drop(*reason),
                Verdict::Forward { data, .. } | Verdict::Flood { data } => {
                    prop_assert_eq!(data.get(at), Some(&frame[at]), "{}: byte {}", name, at);
                    let mut out = data.to_vec();
                    out[at] = flipped[at];
                    match verdict {
                        Verdict::Forward { port, .. } => Verdict::Forward { port, data: out.into() },
                        _ => Verdict::Flood { data: out.into() },
                    }
                }
            };
            prop_assert_eq!(moved.0, expected, "{}: byte {}", name, at);
            prop_assert_eq!(moved.1, trace, "{}: byte {}", name, at);
            prop_assert_eq!(moved.2, tables, "{}: byte {}", name, at);
            prop_assert_eq!(moved.3, counters, "{}: byte {}", name, at);
        }
    }

    #[test]
    fn colliding_key_overwrites_its_arena_entry_in_place() {
        let slot_of = |f: &[u8; 4]| FlowCache::slot_of(FlowCache::hash_key(&whole(4), 0, f));
        let a = 0u32.to_be_bytes();
        let b = (1u32..)
            .map(u32::to_be_bytes)
            .find(|f| slot_of(f) == slot_of(&a))
            .expect("some key shares a slot with key 0");
        let other = (1u32..)
            .map(u32::to_be_bytes)
            .find(|f| slot_of(f) != slot_of(&a))
            .expect("some key does not");
        let mut c = FlowCache::new();
        install(&mut c, &a, 1);
        install(&mut c, &other, 2);
        assert_eq!((c.stats().occupancy, c.arena.len()), (2, 2));
        // `b` evicts `a` from the slot they share: same arena position,
        // nothing grows, and `other` is untouched.
        let at = c.index[slot_of(&a)];
        install(&mut c, &b, 3);
        assert_eq!(c.index[slot_of(&a)], at);
        assert_eq!((c.stats().occupancy, c.arena.len()), (2, 2));
        assert!(probe(&mut c, &a).is_none());
        assert!(matches!(
            probe(&mut c, &b),
            Some(Verdict::Forward { port: 3, .. })
        ));
        assert!(matches!(
            probe(&mut c, &other),
            Some(Verdict::Forward { port: 2, .. })
        ));
    }

    #[test]
    fn dropped_entries_never_resurface_from_reused_buffers() {
        // 64 keys in 64 different slots, so none evicts another.
        let mut slots = std::collections::HashSet::new();
        let frames: Vec<[u8; 4]> = (0u32..)
            .map(u32::to_be_bytes)
            .filter(|f| slots.insert(FlowCache::slot_of(FlowCache::hash_key(&whole(4), 0, f))))
            .take(64)
            .collect();
        let mut c = FlowCache::new();
        c.sync_generation(1);
        for f in &frames {
            install(&mut c, f, 1);
        }
        assert_eq!((c.stats().occupancy, c.arena.len()), (64, 64));
        c.sync_generation(2);
        assert_eq!((c.stats().occupancy, c.arena.len()), (0, 64));
        // Every old key misses — twice, so it is not the tag filter
        // talking — although its entry still sits in the arena.
        for f in &frames {
            assert!(probe(&mut c, f).is_none());
            assert!(probe(&mut c, f).is_none());
        }
        // New entries move into the parked ones, first come first served,
        // and replay their own verdicts, not the previous tenant's.
        for f in frames.iter().rev() {
            install(&mut c, f, 2);
        }
        assert_eq!((c.stats().occupancy, c.arena.len()), (64, 64));
        for f in &frames {
            assert_eq!(
                probe(&mut c, f),
                Some(Verdict::Forward {
                    port: 2,
                    data: f.to_vec().into()
                })
            );
        }
    }
}
