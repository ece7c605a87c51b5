//! The epoch-keyed flow cache: a memoized fast path for repeated flows.
//!
//! Real traffic is heavily flow-repetitive — the validation streams the
//! fleet runtime replays doubly so — yet the engines re-parse, re-probe
//! every table and re-execute the full bytecode for every packet of a
//! flow. For programs the cacheability analysis admits
//! ([`netdebug_p4::ir::Program::cacheability`]), the entire execution is
//! a pure function of three inputs: the ingress port, the frame length,
//! and the frame bytes the parser can possibly consume (bounded by
//! [`netdebug_p4::ir::Program::parser_longest_path_bits`]) — *given* a
//! fixed table state. The crate-internal `FlowCache` memoizes on
//! exactly that key:
//!
//! * **Key** — `(port, len, frame[..key_cap])`, hashed with the same
//!   Fx hash the table indexes use, verified by full byte compare on
//!   probe. The parsed prefix determines the parse path, every table
//!   key, every action choice and the output header bytes; the length
//!   covers `standard_metadata.packet_length`; the payload beyond the
//!   prefix passes through untouched and is spliced in per packet.
//! * **Epoch** — entries are valid for exactly one pinned snapshot
//!   generation. A [`ControlPlane`](crate::ControlPlane) install bumps
//!   the shared generation; the next `FlowCache::sync_generation`
//!   observes the move and drops every entry. There is no explicit
//!   flush path — invalidation *is* the PR-3/PR-4 epoch machinery.
//! * **Storage** — 4 096 logical direct-mapped slots, but resident
//!   memory follows resident flows: a slot is one `u32` in an index
//!   (16 KiB) pointing into a dense arena of entries that grows with
//!   occupancy, so an empty cache is the index plus the second-chance
//!   tags (32 KiB) and a device that sees 64 flows holds 64 entries.
//!   Dropping every entry zeroes the index and keeps the arena's buffers
//!   for the flows that come back.
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
    /// The keyed frame prefix (`frame[..key_cap]`), compared in full.
    key: Vec<u8>,
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

/// Number of direct-mapped slots (power of two).
const SLOTS: usize = 4096;

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
    /// by this one word in a 16 KiB array without touching an entry; a
    /// resident one is verified by the entry's own hash and byte-exact
    /// key compare.
    index: Vec<u32>,
    /// The entries, dense, in installation order: `arena[..live]` are
    /// resident, anything behind them was dropped by a generation bump
    /// and is kept for its buffers.
    arena: Vec<Entry>,
    live: usize,
    /// Second-chance filter: the key hash of each slot's most recent
    /// miss. A full entry is installed only when a key misses twice, so
    /// one-off keys (the uniform-random worst case) cost one word write
    /// here instead of a full entry write — and cannot evict a hot
    /// resident entry on a slot collision.
    tags: Vec<u64>,
    /// Bytes of frame prefix that key an entry (covers the longest
    /// possible parse).
    key_cap: usize,
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
    pub(crate) fn new(key_cap: u32) -> FlowCache {
        FlowCache {
            index: vec![0; SLOTS],
            arena: Vec::new(),
            live: 0,
            tags: vec![0; SLOTS],
            key_cap: key_cap as usize,
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

    /// The direct-mapped slot of a key hash.
    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        (hash as usize) & (self.index.len() - 1)
    }

    #[inline]
    fn key_of<'d>(&self, data: &'d [u8]) -> &'d [u8] {
        &data[..self.key_cap.min(data.len())]
    }

    #[inline]
    fn hash_key(port: u16, len: usize, key: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64((u64::from(port) << 48) ^ len as u64);
        h.write(key);
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
        port: u16,
        data: &[u8],
        level: Recording,
        table_stats: &mut [TableStats],
        externs: &mut ExternState,
    ) -> Option<(Verdict, usize)> {
        let key = self.key_of(data);
        let hash = Self::hash_key(port, data.len(), key);
        let slot = self.slot_of(hash);
        self.last_hash = hash;
        let resident = (self.index[slot] as usize)
            .checked_sub(1)
            .map(|at| (at, &self.arena[at]))
            .filter(|(_, e)| {
                e.hash == hash
                    && e.port == port
                    && e.len as usize == data.len()
                    && e.key.as_slice() == key
            });
        // A traced hit needs the trace bytes too: an entry recorded at a
        // lower level is resident but not a hit (re-record at this one).
        let Some((at, outcome)) = resident
            .map(|(at, e)| (at, &e.outcome))
            .filter(|(_, o)| o.level() >= level)
        else {
            self.misses += 1;
            self.install = resident.is_some() || self.tags[slot] == hash;
            self.idle = if self.install {
                0
            } else {
                self.idle.wrapping_add(1)
            };
            self.tags[slot] = hash;
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
        let rebuild = |header: &[u8], payload_start: usize| {
            let payload = &data[payload_start..];
            let mut out = egress_buffer(header.len() + payload.len());
            out.extend_from_slice(header);
            out.extend_from_slice(payload);
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
        port: u16,
        data: &[u8],
        verdict: &'v Verdict,
        trace: Option<TraceBytes<'_>>,
    ) {
        if !self.install {
            return;
        }
        let key = self.key_of(data);
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
        let slot = self.slot_of(self.last_hash);
        let at = match self.index[slot] {
            0 => {
                if self.live == self.arena.len() {
                    self.arena.push(Entry::new(kind));
                }
                self.live += 1;
                self.index[slot] = self.live as u32;
                self.live - 1
            }
            at => at as usize - 1,
        };
        let e = &mut self.arena[at];
        e.hash = self.last_hash;
        e.port = port;
        e.len = data.len() as u32;
        e.key.clear();
        e.key.extend_from_slice(key);
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
    use Recording::{Everything, Nothing, Stages};

    #[test]
    fn generation_sync_drops_entries_once() {
        let mut c = FlowCache::new(14);
        c.sync_generation(1);
        assert_eq!(c.stats().invalidations, 0, "empty cache: nothing dropped");
        // Fake an occupied slot through the public surface: a miss + commit.
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let frame = [0u8; 32];
        // First miss only arms the tag filter; the second installs.
        for _ in 0..2 {
            assert!(c.lookup(0, &frame, Nothing, &mut stats, &mut ext).is_none());
            c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
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
        let mut c = FlowCache::new(4);
        let mut stats: Vec<TableStats> = vec![TableStats::default()];
        let mut ext = ExternState::new(&[]);
        let a = [1u8, 2, 3, 4, 0xAA, 0xBB];
        for _ in 0..2 {
            assert!(c.lookup(7, &a, Nothing, &mut stats, &mut ext).is_none());
            c.record().payload_start = 4;
            c.record().applies.push((0, true));
            c.commit(
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
        let (v, _) = c.lookup(7, &b, Nothing, &mut stats, &mut ext).expect("hit");
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
        assert!(c.lookup(8, &b, Nothing, &mut stats, &mut ext).is_none());
        assert!(c
            .lookup(7, &b[..5], Nothing, &mut stats, &mut ext)
            .is_none());
    }

    #[test]
    fn traced_lookup_of_untraced_entry_misses() {
        let mut c = FlowCache::new(2);
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let frame = [5u8, 6, 7];
        for _ in 0..2 {
            assert!(c.lookup(0, &frame, Nothing, &mut stats, &mut ext).is_none());
            c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        // Untraced hit works…
        assert!(c.lookup(0, &frame, Nothing, &mut stats, &mut ext).is_some());
        // …but a traced probe must re-run to capture the event stream.
        assert!(c
            .lookup(0, &frame, Everything, &mut stats, &mut ext)
            .is_none());
        let trace = TraceBytes {
            records: &[1, 2, 3, 4],
            lane: &[5, 6, 7, 8],
        };
        c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), Some(trace));
        let (_, at) = c
            .lookup(0, &frame, Everything, &mut stats, &mut ext)
            .expect("traced hit");
        // The hit's trace is read where the entry stores it, split back
        // into its two lanes.
        let stored = c.trace(at);
        assert_eq!((stored.records, stored.lane), (trace.records, trace.lane));
        // An untraced re-record drops the stored trace.
        c.install = true;
        c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        assert!(c.trace(at).records.is_empty() && c.trace(at).lane.is_empty());
    }

    #[test]
    fn a_records_reader_re_records_a_stages_only_entry() {
        let mut c = FlowCache::new(2);
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let frame = [5u8, 6, 7];
        let drop = Verdict::Drop(DropReason::NoEgress);
        let lane_only = TraceBytes {
            records: &[],
            lane: &[1, 0, 0, 0],
        };
        for _ in 0..2 {
            assert!(c.lookup(0, &frame, Stages, &mut stats, &mut ext).is_none());
            c.commit(0, &frame, &drop, Some(lane_only));
        }
        // A stages-only entry serves the stage lane, and untraced lookups…
        let (_, at) = c
            .lookup(0, &frame, Stages, &mut stats, &mut ext)
            .expect("stages hit");
        assert_eq!(
            (c.trace(at).records, c.trace(at).lane),
            (lane_only.records, lane_only.lane)
        );
        assert!(c.lookup(0, &frame, Nothing, &mut stats, &mut ext).is_some());
        // …but a records reader misses and re-records it in full.
        assert!(c
            .lookup(0, &frame, Everything, &mut stats, &mut ext)
            .is_none());
        assert!(c.will_install());
        let full = TraceBytes {
            records: &[9, 0, 0, 0],
            lane: &[1, 0, 0, 0],
        };
        c.commit(0, &frame, &drop, Some(full));
        let (_, at) = c
            .lookup(0, &frame, Everything, &mut stats, &mut ext)
            .expect("full hit");
        assert_eq!(
            (c.trace(at).records, c.trace(at).lane),
            (full.records, full.lane)
        );
        // The full entry now serves every level, in the same slot.
        assert!(c.lookup(0, &frame, Stages, &mut stats, &mut ext).is_some());
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
        let (mut stats, mut ext) = (vec![], ExternState::new(&[]));
        let hit = c.lookup(0, frame, Nothing, &mut stats, &mut ext).is_some();
        if !hit {
            c.commit(0, frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        Some(hit)
    }

    /// A cache that has seen `DORMANT_AFTER` one-off keys, each probed.
    fn dormant_cache() -> FlowCache {
        let mut c = FlowCache::new(4);
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
        let one_off: Vec<Vec<u8>> = (0..1000).map(frame).collect();
        let repeated = vec![frame(u32::MAX); 300];
        for frames in [&one_off, &repeated] {
            for window in frames.chunks(100) {
                let pkts: Vec<(u16, &[u8])> = window.iter().map(|f| (1, f.as_slice())).collect();
                dp.process_batch(&pkts, 0);
                dp.process_batch_with(&pkts, 0, &mut crate::NullSink);
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
        let mut c = FlowCache::new(1);
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let hot = [0xA0u8, 0, 0];
        for _ in 0..2 {
            assert!(c.lookup(0, &hot, Nothing, &mut stats, &mut ext).is_none());
            c.commit(0, &hot, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        // A stream of one-off keys: each misses once, arms (and re-arms)
        // tags, but never passes the filter — occupancy stays put and the
        // hot key keeps hitting even if a one-off collides with its slot.
        for b in 0u8..32 {
            let frame = [b, 1, 2];
            assert!(c.lookup(0, &frame, Nothing, &mut stats, &mut ext).is_none());
            assert!(!c.will_install());
            c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        assert!(c.lookup(0, &hot, Nothing, &mut stats, &mut ext).is_some());
    }

    /// Miss on `frame` with a `Forward` verdict to `out_port` until the
    /// tag filter lets it in.
    fn install(c: &mut FlowCache, frame: &[u8], out_port: u16) {
        let (mut stats, mut ext) = (vec![], ExternState::new(&[]));
        while c.lookup(0, frame, Nothing, &mut stats, &mut ext).is_none() {
            c.commit(
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
        let (mut stats, mut ext) = (vec![], ExternState::new(&[]));
        c.lookup(0, frame, Nothing, &mut stats, &mut ext)
            .map(|(v, _)| v)
    }

    #[test]
    fn colliding_key_overwrites_its_arena_entry_in_place() {
        let slot_of = |f: &[u8; 4]| FlowCache::hash_key(0, 4, f) as usize & (SLOTS - 1);
        let a = 0u32.to_be_bytes();
        let b = (1u32..)
            .map(u32::to_be_bytes)
            .find(|f| slot_of(f) == slot_of(&a))
            .expect("some key shares a slot with key 0");
        let other = (1u32..)
            .map(u32::to_be_bytes)
            .find(|f| slot_of(f) != slot_of(&a))
            .expect("some key does not");
        let mut c = FlowCache::new(4);
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
            .filter(|f| slots.insert(FlowCache::hash_key(0, 4, f) as usize & (SLOTS - 1)))
            .take(64)
            .collect();
        let mut c = FlowCache::new(4);
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
