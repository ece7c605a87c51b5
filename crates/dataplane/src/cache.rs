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
//! * **Outcome** — a miss runs the compiled bytecode normally while a
//!   `MissRecord` captures the replayable side effects: the per-apply
//!   hit/miss sequence (table statistics), the counter increments, the
//!   payload split point, plus the verdict and output header bytes
//!   derived from the returned [`Verdict`]. A hit replays those without
//!   entering the interpreter loop. Traced packets store the flat trace
//!   record bytes too, so `LazyTrace` consumers of a cached hit decode
//!   the identical event stream.
//!
//! Programs whose verdicts read meter/register state or the ingress
//! timestamp, and programs whose parser can loop (so no finite key
//! prefix bounds the parse), classify as `Uncacheable` and bypass the
//! cache entirely. The reference engine also always bypasses: it stays
//! the unmemoized oracle the parity property tests compare against.

use crate::externs::ExternState;
use crate::table::{FxHasher, TableStats};
use crate::trace::{DropReason, TraceBuf, Verdict};
use std::hash::Hasher;

/// Flow-cache observability counters ([`crate::Dataplane::cache_stats`]).
///
/// Hit/miss/invalidation counts are cumulative since construction;
/// occupancy and capacity are instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets replayed from a cached outcome.
    pub hits: u64,
    /// Packets that ran the full engine (and recorded an outcome).
    pub misses: u64,
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
#[derive(Debug, Default)]
struct Outcome {
    kind: Option<OutcomeKind>,
    /// Output bytes **before** the payload (the deparsed headers).
    header: Vec<u8>,
    /// Where the live packet's payload starts.
    payload_start: usize,
    /// `(table id, hit)` replays into the table statistics.
    applies: Vec<(u32, bool)>,
    /// `(counter id, cell index)` replays into the extern state.
    counters: Vec<(u32, u64)>,
    /// Flat trace record bytes (including the final-verdict record),
    /// present only when the entry was recorded on a traced path.
    trace: Option<Vec<u8>>,
}

/// One direct-mapped slot.
#[derive(Debug, Default)]
struct Entry {
    hash: u64,
    port: u16,
    len: u32,
    /// The keyed frame prefix (`frame[..key_cap]`), compared in full.
    key: Vec<u8>,
    outcome: Outcome,
}

/// Number of direct-mapped slots (power of two).
const SLOTS: usize = 4096;

/// A per-dataplane direct-mapped flow cache.
///
/// Collisions overwrite — repeated flows keep their slot hot, one-off
/// keys cycle through without evicting more than one entry each. Slot
/// buffers are reused on overwrite, so the steady state of both the
/// all-hit and the all-miss extreme allocates nothing per packet beyond
/// the output frame.
#[derive(Debug)]
pub(crate) struct FlowCache {
    slots: Vec<Option<Entry>>,
    /// Dense mirror of each resident entry's key hash (0 when empty).
    /// Misses are decided here — one word read in a 32 KiB array —
    /// without ever touching the ~10× larger [`Entry`] slab; only a
    /// mirror match pays the full probe. Hash collisions are resolved by
    /// the entry's own byte-exact key compare.
    entry_hash: Vec<u64>,
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
    /// Key hash/slot of the last lookup, reused by [`FlowCache::commit`].
    last_hash: u64,
    last_slot: usize,
    /// Whether the last miss passed the tag filter (commit installs).
    install: bool,
    hits: u64,
    misses: u64,
    invalidations: u64,
    occupied: usize,
}

impl FlowCache {
    pub(crate) fn new(key_cap: usize) -> FlowCache {
        let mut slots = Vec::new();
        slots.resize_with(SLOTS, || None);
        FlowCache {
            slots,
            entry_hash: vec![0; SLOTS],
            tags: vec![0; SLOTS],
            key_cap,
            generation: 0,
            scratch: MissRecord::default(),
            last_hash: 0,
            last_slot: 0,
            install: false,
            hits: 0,
            misses: 0,
            invalidations: 0,
            occupied: 0,
        }
    }

    /// Current counters and occupancy.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            occupancy: self.occupied,
            capacity: self.slots.len(),
        }
    }

    /// Align the cache with the pinned snapshot generation: if any table
    /// republished since the resident entries were recorded, drop them
    /// all. This is the *only* invalidation path — a generation compare,
    /// exactly like the packet paths' own re-pin check.
    pub(crate) fn sync_generation(&mut self, generation: u64) {
        if generation == self.generation {
            return;
        }
        if self.occupied > 0 {
            for slot in &mut self.slots {
                *slot = None;
            }
            self.occupied = 0;
            self.invalidations += 1;
            self.entry_hash.fill(0);
        }
        self.tags.fill(0);
        self.generation = generation;
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
    /// into the mutable runtime state and returns the verdict; `None` is
    /// a miss (the caller runs the engine with `self.scratch` recording
    /// and then calls [`FlowCache::commit`]). A traced lookup of an
    /// entry recorded untraced is a miss — the re-run re-records the
    /// entry with its trace bytes, so tracing consumers never observe a
    /// degraded event stream.
    pub(crate) fn lookup(
        &mut self,
        port: u16,
        data: &[u8],
        tracing: bool,
        table_stats: &mut [TableStats],
        externs: &mut ExternState,
        buf: &mut TraceBuf,
    ) -> Option<Verdict> {
        let key = self.key_of(data);
        let hash = Self::hash_key(port, data.len(), key);
        let slot = (hash as usize) & (self.slots.len() - 1);
        self.last_hash = hash;
        self.last_slot = slot;
        // 0 = no resident entry for this key, 1 = key resident but
        // recorded untraced (re-record with trace), 2 = hit. The mirror
        // check keeps the all-miss path out of the entry slab entirely.
        let matched = if self.entry_hash[slot] != hash {
            0
        } else {
            match self.slots[slot].as_ref() {
                Some(e)
                    if e.hash == hash
                        && e.port == port
                        && e.len as usize == data.len()
                        && e.key.as_slice() == key =>
                {
                    if !tracing || e.outcome.trace.is_some() {
                        2
                    } else {
                        1
                    }
                }
                _ => 0,
            }
        };
        if matched != 2 {
            self.misses += 1;
            self.install = matched == 1 || self.tags[slot] == hash;
            self.tags[slot] = hash;
            self.scratch.clear();
            return None;
        }
        self.hits += 1;
        let outcome = &self.slots[slot].as_ref().expect("probed entry").outcome;
        for &(tid, was_hit) in &outcome.applies {
            table_stats[tid as usize].record(was_hit);
        }
        for &(id, idx) in &outcome.counters {
            externs.counter_inc(id as usize, idx as usize, data.len());
        }
        if tracing {
            buf.load(outcome.trace.as_deref().expect("traced entry"));
        } else {
            buf.clear();
        }
        let rebuild = |header: &[u8], payload_start: usize| {
            let payload = &data[payload_start..];
            let mut out = Vec::with_capacity(header.len() + payload.len());
            out.extend_from_slice(header);
            out.extend_from_slice(payload);
            out
        };
        Some(match outcome.kind.expect("committed entry has a verdict") {
            OutcomeKind::Drop(reason) => Verdict::Drop(reason),
            OutcomeKind::Forward(p) => Verdict::Forward {
                port: p,
                data: rebuild(&outcome.header, outcome.payload_start),
            },
            OutcomeKind::Flood => Verdict::Flood {
                data: rebuild(&outcome.header, outcome.payload_start),
            },
        })
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
    /// hash and slot are carried over). First-time misses are filtered
    /// to a tag write in `lookup` and return without installing; a key's
    /// second miss overwrites the slot (direct-mapped), reusing its
    /// buffers. `trace` carries the packet's flat trace record bytes
    /// when the run was traced.
    pub(crate) fn commit(
        &mut self,
        port: u16,
        data: &[u8],
        verdict: &Verdict,
        trace: Option<&[u8]>,
    ) {
        if !self.install {
            return;
        }
        let key = self.key_of(data);
        let hash = self.last_hash;
        let slot = self.last_slot;
        self.entry_hash[slot] = hash;
        if self.slots[slot].is_none() {
            self.slots[slot] = Some(Entry::default());
            self.occupied += 1;
        }
        let e = self.slots[slot].as_mut().expect("just ensured");
        e.hash = hash;
        e.port = port;
        e.len = data.len() as u32;
        e.key.clear();
        e.key.extend_from_slice(key);
        let rec = &mut self.scratch;
        let out = &mut e.outcome;
        out.payload_start = rec.payload_start;
        out.applies.clear();
        out.applies.extend_from_slice(&rec.applies);
        out.counters.clear();
        out.counters.extend_from_slice(&rec.counters);
        out.header.clear();
        out.kind = Some(match verdict {
            Verdict::Drop(reason) => OutcomeKind::Drop(*reason),
            Verdict::Forward { port, data: frame } => {
                let payload_len = data.len() - rec.payload_start;
                out.header
                    .extend_from_slice(&frame[..frame.len() - payload_len]);
                OutcomeKind::Forward(*port)
            }
            Verdict::Flood { data: frame } => {
                let payload_len = data.len() - rec.payload_start;
                out.header
                    .extend_from_slice(&frame[..frame.len() - payload_len]);
                OutcomeKind::Flood
            }
        });
        match (trace, &mut out.trace) {
            (Some(bytes), Some(stored)) => {
                stored.clear();
                stored.extend_from_slice(bytes);
            }
            (Some(bytes), stored @ None) => *stored = Some(bytes.to_vec()),
            (None, stored) => *stored = None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_sync_drops_entries_once() {
        let mut c = FlowCache::new(14);
        c.sync_generation(1);
        assert_eq!(c.stats().invalidations, 0, "empty cache: nothing dropped");
        // Fake an occupied slot through the public surface: a miss + commit.
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let mut buf = TraceBuf::default();
        let frame = [0u8; 32];
        // First miss only arms the tag filter; the second installs.
        for _ in 0..2 {
            assert!(c
                .lookup(0, &frame, false, &mut stats, &mut ext, &mut buf)
                .is_none());
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
        let mut buf = TraceBuf::default();
        let a = [1u8, 2, 3, 4, 0xAA, 0xBB];
        for _ in 0..2 {
            assert!(c
                .lookup(7, &a, false, &mut stats, &mut ext, &mut buf)
                .is_none());
            c.record().payload_start = 4;
            c.record().applies.push((0, true));
            c.commit(
                7,
                &a,
                &Verdict::Forward {
                    port: 3,
                    data: vec![9, 9, 0xAA, 0xBB],
                },
                None,
            );
        }
        // Same key, different payload: the hit splices the live bytes.
        let b = [1u8, 2, 3, 4, 0xCC, 0xDD];
        let v = c
            .lookup(7, &b, false, &mut stats, &mut ext, &mut buf)
            .expect("hit");
        assert_eq!(
            v,
            Verdict::Forward {
                port: 3,
                data: vec![9, 9, 0xCC, 0xDD],
            }
        );
        assert_eq!(stats[0].hits, 1, "apply replayed into table stats");
        assert_eq!(c.stats().hits, 1);
        // Different port or length: miss.
        assert!(c
            .lookup(8, &b, false, &mut stats, &mut ext, &mut buf)
            .is_none());
        assert!(c
            .lookup(7, &b[..5], false, &mut stats, &mut ext, &mut buf)
            .is_none());
    }

    #[test]
    fn traced_lookup_of_untraced_entry_misses() {
        let mut c = FlowCache::new(2);
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let mut buf = TraceBuf::default();
        let frame = [5u8, 6, 7];
        for _ in 0..2 {
            assert!(c
                .lookup(0, &frame, false, &mut stats, &mut ext, &mut buf)
                .is_none());
            c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        // Untraced hit works…
        assert!(c
            .lookup(0, &frame, false, &mut stats, &mut ext, &mut buf)
            .is_some());
        // …but a traced probe must re-run to capture the event stream.
        assert!(c
            .lookup(0, &frame, true, &mut stats, &mut ext, &mut buf)
            .is_none());
        c.commit(
            0,
            &frame,
            &Verdict::Drop(DropReason::NoEgress),
            Some(&[1, 2, 3, 4]),
        );
        assert!(c
            .lookup(0, &frame, true, &mut stats, &mut ext, &mut buf)
            .is_some());
    }

    #[test]
    fn one_off_keys_never_evict_a_resident_entry() {
        let mut c = FlowCache::new(1);
        let mut stats: Vec<TableStats> = vec![];
        let mut ext = ExternState::new(&[]);
        let mut buf = TraceBuf::default();
        let hot = [0xA0u8, 0, 0];
        for _ in 0..2 {
            assert!(c
                .lookup(0, &hot, false, &mut stats, &mut ext, &mut buf)
                .is_none());
            c.commit(0, &hot, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        // A stream of one-off keys: each misses once, arms (and re-arms)
        // tags, but never passes the filter — occupancy stays put and the
        // hot key keeps hitting even if a one-off collides with its slot.
        for b in 0u8..32 {
            let frame = [b, 1, 2];
            assert!(c
                .lookup(0, &frame, false, &mut stats, &mut ext, &mut buf)
                .is_none());
            assert!(!c.will_install());
            c.commit(0, &frame, &Verdict::Drop(DropReason::NoEgress), None);
        }
        assert_eq!(c.stats().occupancy, 1);
        assert!(c
            .lookup(0, &hot, false, &mut stats, &mut ext, &mut buf)
            .is_some());
    }
}
