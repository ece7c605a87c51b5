//! The flow cache: a memoized fast path for repeated flows.
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
//! * **Key** — `(port, len, live bytes of the parsed prefix)` under the
//!   entry's key mask, hashed with the same Fx hash the table indexes
//!   use, verified by a full compare on probe. The live bytes
//!   (`CacheKey`, computed once per program by the compiler) are the
//!   union, over every parser path, of the fields the code reads or
//!   writes in each header that path extracts, at that path's offset:
//!   they determine the parse path, every table key, every action choice
//!   and every byte the deparse writes; the length covers
//!   `standard_metadata.packet_length`. Every other byte ahead of the
//!   payload passes through at its own offset, like the payload, so a
//!   stream that sweeps a byte the program never reads (a generator's L4
//!   source-port sweep, say) hits. A program that can move a header
//!   (`setValid()`/`setInvalid()`, a deparse that drops or reorders an
//!   extracted header) keys on the whole parsed prefix instead.
//! * **Wildcards** — a field the code reads only as the key of one-field
//!   table applies and never writes (a router's IPv4 destination, an
//!   `l2_switch` destination MAC) is keyed only on the bytes its lookups
//!   examined, the way Open vSwitch's megaflows are (Pfaff et al., NSDI
//!   2015). A miss asks each such lookup which bits decided it
//!   (`EntrySnapshot::examined`: an LPM index's bucket octet and its
//!   longest prefix length there, a ternary table's union of tuple masks,
//!   every bit of an exact or scanned table, none of an empty one), and
//!   the entry's mask leaves out every byte of the field that carries no
//!   examined bit and passes through — all of it, on a path that applies
//!   no table to it. So a stream that sweeps a destination inside one
//!   route hits: the entry stands for every address that takes the same
//!   lookups. An apply whose key a mask left partly out depends on its
//!   whole table (`FlowCache::sync`). The cache keeps the short list of
//!   masks its resident entries use (at most 8; one, keying every byte,
//!   for a program with no wildcard field or lookups that examine every
//!   bit) and probes under each, most recently hit first. A flow that
//!   repeats one packet is keyed on every byte (a wildcard would only add
//!   a mask for every lookup to probe); a wildcarded entry is installed
//!   once two packets that differ in its unkeyed bytes have missed. An entry that
//!   stores every trace record is keyed on every byte, because its table
//!   records carry its own packet's keys, so a records reader is never
//!   served from a wildcarded entry; a stage-lane reader, such as a
//!   device tap, and an untraced lookup are.
//! * **Invalidation by dependency** — an entry records, per table apply,
//!   the hash of the key tuple it looked up. Each
//!   [`ControlPlane`](crate::ControlPlane) publication appends a
//!   `(table, dependency)` record per changed table to the write log in
//!   the data plane's publication cell: the key tuple of an exact entry,
//!   or the whole table for a masked, range or LPM entry and a clear.
//!   The next batch hands the log to `FlowCache::sync`, under the lock it
//!   pins the tables with, and the sync drops exactly the entries with an
//!   apply that a record names (see its soundness argument); the others
//!   stay valid for the new tables and keep hitting. A gap in the log (it
//!   overflowed, or a checkpoint was restored) drops every entry. The
//!   sync is the only invalidation path.
//! * **Storage** — 4 096 logical direct-mapped slots, but resident
//!   memory follows resident flows: a slot is one `u16` in an index
//!   (8 KiB) pointing into a dense arena of entries that grows with
//!   occupancy, so an empty cache is the index plus the second-chance
//!   tags (one `u32` a slot, 16 KiB) and a device that sees 64 flows
//!   holds 64 entries. An entry is a 72-byte record of offsets around one
//!   buffer, sized exactly: the frame's keyed bytes as the masked 8-byte
//!   windows the key reads them in (three words for `acl_firewall`'s 13
//!   live bytes of 38), under its mask, the replay lists, the output
//!   bytes ahead of the
//!   payload, the dependencies and the stored trace; an `l2_switch`
//!   entry is about 120 bytes in all. A hit rebuilds its frame from the
//!   stored header and the live payload, then copies the bytes no
//!   execution writes from its own packet, the wildcarded ones among
//!   them (none, for a key over the whole prefix). A dropped entry
//!   parks behind the resident ones and keeps its buffer for the flows
//!   that come back.
//! * **Outcome** — a miss runs the compiled bytecode normally while a
//!   `MissRecord` captures the replayable side effects: the per-apply
//!   hit/miss sequence (table statistics), the counter increments, the
//!   payload split point and what the wildcard fields' lookups examined,
//!   plus the verdict and output header bytes derived from the returned
//!   [`Verdict`]. A key is installed only on its second miss (a
//!   second-chance tag per slot): a packet that missed before is
//!   installed keyed on every byte, and a packet seen for the first time
//!   is installed wildcarded when another packet with its masked key
//!   missed before, which only the commit can tell, once the run has said
//!   what its lookups examined. While no table can leave a key bit
//!   unexamined, a first miss is not recorded at all; while the cache is
//!   quiet (its last 16 wildcard admissions installed nothing: flows that
//!   each repeat one packet, one-off probes), one first miss in 16 is,
//!   which still finds a sweep that starts. A hit replays the recorded
//!   effects without entering the interpreter loop. Traced packets store
//!   the flat trace too — record lane then stage lane, in the one
//!   vector, split at a `u32` offset — and a traced hit hands that stored
//!   trace to its `LazyTrace` in place, without copying it into the
//!   trace buffer, so consumers of a cached hit decode the identical
//!   event stream and a tap walks the identical stage path. A packet recorded for a sink
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
//!   within 32 packets). A sync does not reset the count, or a cache
//!   under steady churn would pay a full 256 probes per publication.
//!
//! Programs whose verdicts read meter/register state or the ingress
//! timestamp, and programs whose parser can loop (so no finite key
//! prefix bounds the parse), classify as `Uncacheable` and bypass the
//! cache entirely. The reference engine also always bypasses: it stays
//! the unmemoized oracle the parity property tests compare against.

use crate::externs::ExternState;
use crate::table::{FxHasher, TableStats, WHOLE_TABLE};
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
    /// Publications, seen at the next batch, that dropped at least one
    /// resident entry.
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
    /// `(table id, hit, dependency, field)` per apply, in execution
    /// order; the dependency is the apply's key tuple as the write log
    /// names it (`table::key_dependency`), and the field is the wildcard
    /// field the apply was keyed on ([`NOT_WILD`]: none).
    pub(crate) applies: Vec<(u32, bool, u64, u8)>,
    /// `(counter id, cell index)` per increment, in execution order.
    pub(crate) counters: Vec<(u32, u64)>,
    /// Byte offset of the unparsed payload (set by parser accept).
    pub(crate) payload_start: usize,
    /// Per wildcard field of the key ([`CacheKey`]'s `wild`): where its
    /// header sat on the packet's path (`None`: not extracted; set once
    /// the run is over), and the bits of its value the path's lookups
    /// examined. Empty unless the commit decides how the outcome is keyed
    /// ([`FlowCache::admit`]): an outcome installed keyed on every byte
    /// needs neither.
    pub(crate) fields: Vec<(Option<usize>, u128)>,
}

/// The field of an apply keyed on no wildcard field ([`MissRecord`]).
pub(crate) const NOT_WILD: u8 = u8::MAX;

impl MissRecord {
    fn clear(&mut self) {
        self.applies.clear();
        self.counters.clear();
        self.payload_start = 0;
        self.fields.clear();
    }

    /// The apply just recorded was keyed on header `h`'s field `f` and
    /// examined `bits` of it (asked only when that is a wildcard field
    /// and the run notes its fields).
    pub(crate) fn examined(&mut self, key: &CacheKey, h: u32, f: u32, bits: impl FnOnce() -> u128) {
        let Some(w) = key
            .wild
            .iter()
            .position(|w| (w.header, w.field) == (h as usize, f as usize))
        else {
            return;
        };
        let Some(field) = self.fields.get_mut(w) else {
            return;
        };
        field.1 |= bits();
        if let Some(apply) = self.applies.last_mut() {
            apply.3 = w as u8;
        }
    }

    /// The run is over, and header `h` sat at `offset(h)` on the packet's
    /// path, whether the parser accepted it or not.
    pub(crate) fn located(&mut self, key: &CacheKey, offset: impl Fn(usize) -> Option<usize>) {
        for (field, w) in self.fields.iter_mut().zip(&key.wild) {
            field.0 = offset(w.header);
        }
    }
}

/// A wildcard field: a header field the code reads only as the key of
/// one-field table applies and never writes. A cache entry keys on the
/// bytes of it that its lookups examined, and a hit takes the others
/// from its own packet, like any unwritten byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wild {
    /// Header and field ids.
    pub(crate) header: usize,
    pub(crate) field: usize,
    /// The field's first byte in its header, and how many bytes it spans
    /// (at most 16).
    pub(crate) first: usize,
    pub(crate) span: u32,
    /// The bits below the field's last bit in its last byte: the value
    /// shifted left by `pad` lines its bytes up with the wire's.
    pub(crate) pad: u32,
    /// Every bit of the field's value: what a lookup that examined all
    /// of it reports.
    pub(crate) value: u128,
    /// Bit `i`: the field's `i`th byte holds no other live field of the
    /// header.
    pub(crate) own: u32,
}

impl Wild {
    /// The bytes of the field that carry no bit of `examined` and that
    /// no other live field shares, as bits of [`Wild::own`].
    fn unexamined(&self, examined: u128) -> u32 {
        let wire = ((examined & self.value) << self.pad).to_be_bytes();
        let bytes = wire[16 - self.span as usize..].iter().enumerate();
        bytes.fold(0, |cut, (i, &b)| cut | u32::from(b == 0) << i) & self.own
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
    /// The wildcard fields, at most 64 (none for a program that can move
    /// a header).
    pub(crate) wild: Vec<Wild>,
}

impl CacheKey {
    /// The key over a parsed prefix whose byte `b` carries `flags[b]`
    /// ([`READ`], [`WRITTEN`]): every flagged byte is keyed, and every
    /// unwritten one passes through; `wild` are its wildcard fields.
    pub(crate) fn new(flags: &[u8], wild: Vec<Wild>) -> CacheKey {
        let mut key = CacheKey {
            words: Vec::new(),
            through: Vec::new(),
            wild,
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

    /// The words of `data` under `mask` (one mask per window), window by
    /// window.
    #[inline]
    fn of<'d>(&'d self, data: &'d [u8], mask: &'d [u64]) -> impl Iterator<Item = u64> + 'd {
        let windows = self.words.iter().zip(mask);
        windows.map(|(&(at, _), &mask)| Self::word(data, (at, mask)))
    }

    /// Take frame byte `b` out of `mask`, if it passes through (no
    /// execution writes it, so a hit takes it from its own packet) and
    /// `mask` keys it; whether it did.
    fn unkey(&self, mask: &mut [u64], b: usize) -> bool {
        if !self.through.iter().any(|run| run.contains(&b)) {
            return false;
        }
        let Some(w) = self
            .words
            .partition_point(|&(at, _)| at <= b)
            .checked_sub(1)
        else {
            return false;
        };
        let at = self.words[w].0;
        if b >= at + 8 || mask[w] >> (8 * (b - at)) & 0xFF == 0 {
            return false;
        }
        mask[w] &= !(0xFF << (8 * (b - at)));
        true
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

/// The little-endian `u32` at the front of `bytes`.
#[inline]
fn u32_at(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"))
}

/// The little-endian `u64` at the front of `bytes`.
#[inline]
fn u64_at(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// One resident flow: its key and everything needed to replay a packet
/// with that key without entering the interpreter loop.
///
/// What varies in size lives in one buffer, sized exactly when it is
/// first filled and reused after a drop. Back to back, each section
/// starting where the entry's offset says:
///
/// * the frame's keyed words ([`CacheKey`]), 8 bytes each, compared in
///   full on probe;
/// * the applies, 4 bytes each: table id and hit bit, replayed into the
///   table statistics;
/// * the counter increments, 12 bytes each: counter id and cell index,
///   replayed into the extern state;
/// * the output bytes **before** the payload (the deparsed headers);
/// * the applies' dependencies, 8 bytes each, in apply order: read only
///   by [`FlowCache::sync`];
/// * the flat trace, when the entry was recorded on a traced path: the
///   record lane (including the final-verdict record; empty for a
///   stages-only entry), then the stage lane.
#[derive(Debug)]
struct Entry {
    buf: Vec<u8>,
    hash: u64,
    /// The frame length.
    len: u32,
    /// Where the live packet's payload starts.
    payload_start: u32,
    applies_at: u32,
    counters_at: u32,
    header_at: u32,
    deps_at: u32,
    records_at: u32,
    lane_at: u32,
    port: u16,
    kind: OutcomeKind,
    /// The recording level the stored trace serves: none, the stage lane
    /// alone (empty records), or everything.
    level: Recording,
    /// The id of the key mask the entry's words are stored under.
    mask: u8,
}

impl Entry {
    /// An entry with an empty buffer; [`FlowCache::commit`] fills it in.
    fn new(kind: OutcomeKind) -> Entry {
        Entry {
            buf: Vec::new(),
            hash: 0,
            len: 0,
            payload_start: 0,
            applies_at: 0,
            counters_at: 0,
            header_at: 0,
            deps_at: 0,
            records_at: 0,
            lane_at: 0,
            port: 0,
            kind,
            level: Recording::Nothing,
            mask: 0,
        }
    }

    fn section(&self, from: u32, to: u32) -> &[u8] {
        &self.buf[from as usize..to as usize]
    }

    /// The keyed words.
    #[inline]
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.section(0, self.applies_at).chunks_exact(8).map(u64_at)
    }

    /// Whether the entry holds the key of `(port, data)` whose hash and
    /// words under the entry's mask are `hash` and `words`, recorded at
    /// `level` or above. Every entry stores one word per window of the
    /// one key, so a zip compares them all (`Iterator::eq`, which also
    /// compares the lengths, cost an all-hit `l2_switch` stream about
    /// 3 ns a packet on a 2-core x86-64 host).
    #[inline]
    fn holds(
        &self,
        hash: u64,
        port: u16,
        data: &[u8],
        level: Recording,
        words: impl Iterator<Item = u64>,
    ) -> bool {
        self.hash == hash
            && self.port == port
            && self.len as usize == data.len()
            && self.level >= level
            && self.words().zip(words).all(|(a, b)| a == b)
    }

    /// `(table id, hit)` per apply.
    #[inline]
    fn applies(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let applies = self.section(self.applies_at, self.counters_at);
        applies.chunks_exact(4).map(|a| {
            let a = u32_at(a);
            ((a >> 1) as usize, a & 1 != 0)
        })
    }

    /// `(counter id, cell index)` per increment.
    #[inline]
    fn counters(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let counters = self.section(self.counters_at, self.header_at);
        counters
            .chunks_exact(12)
            .map(|c| (u32_at(c) as usize, u64_at(&c[4..]) as usize))
    }

    /// The output bytes ahead of the payload.
    #[inline]
    fn header(&self) -> &[u8] {
        self.section(self.header_at, self.deps_at)
    }

    /// The stored trace: empty for an entry recorded untraced, and
    /// records-empty for a stages-only one.
    fn trace(&self) -> TraceBytes<'_> {
        TraceBytes {
            records: self.section(self.records_at, self.lane_at),
            lane: &self.buf[self.lane_at as usize..],
        }
    }

    /// Whether one of `writes` (sorted `(table id, dependency)` records)
    /// can change what one of the entry's applies looked up: it names the
    /// apply's key tuple on the apply's table, or that whole table, or the
    /// apply's key was wildcarded (its dependency is the whole table) and
    /// the record is any write to that table.
    fn touched(&self, writes: &[(u32, u64)]) -> bool {
        let deps = self.section(self.deps_at, self.records_at).chunks_exact(8);
        self.applies().zip(deps).any(|((tid, _), dep)| {
            let tid = tid as u32;
            let logged = |dep| writes.binary_search(&(tid, dep)).is_ok();
            match u64_at(dep) {
                WHOLE_TABLE => writes
                    .get(writes.partition_point(|&(t, _)| t < tid))
                    .is_some_and(|&(t, _)| t == tid),
                dep => logged(dep) || logged(WHOLE_TABLE),
            }
        })
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

/// Wildcard admissions in a row that found no other packet with their
/// masked key, after which a cache records only one first miss in
/// [`PROBE_EVERY`] ([`FlowCache::record`]).
const QUIET_AFTER: u32 = 16;

/// Most key masks a cache keeps (ids fit an entry's `u8`): an entry whose
/// wildcards would need one more is keyed on every byte.
const MASKS: usize = 8;

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
    /// The entries, dense: `arena[..live]` are resident, anything behind
    /// them was dropped and is kept for its buffer.
    arena: Vec<Entry>,
    live: usize,
    /// Second-chance filter: the low 32 bits of the key hash of each
    /// slot's most recent miss, whole or masked. A full entry is installed
    /// only when a key misses twice, so one-off keys (the uniform-random
    /// worst case) cost one word write here instead of a full entry
    /// write — and cannot evict a hot resident entry on a slot collision.
    /// A tag only decides whether an entry is installed, never what a
    /// lookup serves, so two keys sharing a slot and a tag (one in 2^32)
    /// change no verdict.
    tags: Vec<u32>,
    /// The key masks entries are stored under, a row of one mask per
    /// window of the key each, by id: id 0 keys every byte of the key (set
    /// up by the first miss), the others leave out the bytes of wildcard
    /// fields some entry's lookups did not examine. A mask no resident
    /// entry uses is kept for the next one that needs it.
    masks: Vec<u64>,
    /// Per mask id, how many resident entries are stored under it.
    users: [u32; MASKS],
    /// The ids of the masks resident entries use, most recently hit
    /// first (`order[..probed]`): the masks a lookup probes under, in
    /// order. Inline, so a lookup under one mask reads no more memory than
    /// the key and that mask.
    order: [u8; MASKS],
    probed: usize,
    /// Snapshot generation the resident entries are valid for (0: none
    /// yet).
    generation: u64,
    /// Reused miss-side recording buffers (see [`MissRecord`]).
    scratch: MissRecord,
    /// Reused buffer in which a commit builds its entry's mask.
    unkeyed: Vec<u64>,
    /// The whole-key hash of the last lookup's packet, if it probed
    /// under mask 0 or missed: its commit does not hash the key again.
    whole: Option<u64>,
    /// The second-chance filter's verdict on the last miss when the lookup
    /// or [`FlowCache::record`] could take it: install keyed on every
    /// byte, or only tag. `None`: the commit decides ([`FlowCache::admit`]).
    filtered: Option<bool>,
    /// Packets since the last hit or install: every one a lookup until
    /// [`DORMANT_AFTER`], where the cache goes dormant, and then the
    /// 1-in-[`PROBE_EVERY`] stride. A sync leaves it alone. It wraps
    /// after 2^32 packets, which costs one more awake stretch.
    idle: u32,
    /// Wildcard admissions in a row ([`FlowCache::admit`]) that installed
    /// nothing; from [`QUIET_AFTER`] on the cache is quiet.
    futile: u32,
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
            masks: Vec::new(),
            users: [0; MASKS],
            order: [0; MASKS],
            probed: 0,
            generation: 0,
            scratch: MissRecord::default(),
            unkeyed: Vec::new(),
            whole: None,
            filtered: None,
            idle: 0,
            futile: 0,
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

    /// Align the cache with the tables of publication `generation`, given
    /// the sorted `(table id, dependency)` records of every write
    /// published since the last sync (`None`: some went unlogged).
    ///
    /// An entry is a function of its packet's keyed bytes and of the
    /// lookups its applies made; a lookup of key tuple `k` in table `T`
    /// returns the first of `T`'s entries that matches `k`, so only a
    /// write of an entry matching `k` can change it: one with exactly
    /// `k`'s values, or one with a masked, range or LPM pattern (logged
    /// as the whole table), or a clear. An apply whose key a wildcard
    /// mask left partly unkeyed stands for every key that agrees with it
    /// on the examined bits, and those bits were chosen for the table as
    /// it was (the longest prefix in a bucket, the tuple masks), so it
    /// depends on the whole table and any write to that table drops it.
    ///
    /// An entry none of whose applies such a write names makes the same
    /// lookups in the new tables as its packet did, and so does every
    /// packet it serves — by induction along its applies: a packet that
    /// agrees with the recorded one on the entry's masked bytes takes the
    /// same parser path (its select keys are keyed bytes), and if it made
    /// the same lookups up to an apply, that apply's key is the same
    /// tuple, or (a wildcard field's) one that agrees on every bit the
    /// table examined, so the lookup returns the same entry. Such entries
    /// stay. The others are dropped, and keep their slot's tag, so a flow
    /// that comes back is installed on its first miss. With a gap, or
    /// nothing recorded yet, everything goes, tags included.
    pub(crate) fn sync(&mut self, generation: u64, writes: Option<&[(u32, u64)]>) {
        if generation == self.generation {
            return;
        }
        let dropped = self.live;
        match writes {
            Some(writes) if self.generation != 0 => self.drop_touched(writes),
            _ => {
                self.index.fill(0);
                self.live = 0;
                self.tags.fill(0);
                self.users = [0; MASKS];
                self.probed = 0;
            }
        }
        if self.live < dropped {
            self.invalidations += 1;
        }
        self.generation = generation;
    }

    /// Drop the resident entries that `writes` touch
    /// ([`Entry::touched`]): each swaps places with the last resident
    /// entry, whose slot follows it, and parks behind the live ones.
    fn drop_touched(&mut self, writes: &[(u32, u64)]) {
        if writes.is_empty() {
            return;
        }
        let mut at = 0;
        while at < self.live {
            if !self.arena[at].touched(writes) {
                at += 1;
                continue;
            }
            self.index[Self::slot_of(self.arena[at].hash)] = 0;
            self.release(self.arena[at].mask);
            self.live -= 1;
            self.arena.swap(at, self.live);
            if at < self.live {
                self.index[Self::slot_of(self.arena[at].hash)] = at as u16 + 1;
            }
        }
    }

    /// One more resident entry is stored under mask `id`: a mask that
    /// gains its first goes to the front of the probe order.
    fn hold(&mut self, id: u8) {
        let users = &mut self.users[usize::from(id)];
        *users += 1;
        if *users == 1 {
            self.order.copy_within(..self.probed, 1);
            self.order[0] = id;
            self.probed += 1;
        }
    }

    /// One fewer resident entry is stored under mask `id`: a mask that
    /// loses its last is probed no more.
    fn release(&mut self, id: u8) {
        let users = &mut self.users[usize::from(id)];
        *users -= 1;
        if *users == 0 {
            let probed = &self.order[..self.probed];
            let at = probed
                .iter()
                .position(|&o| o == id)
                .expect("a held mask is probed");
            self.order.copy_within(at + 1..self.probed, at);
            self.probed -= 1;
        }
    }

    /// The row of mask `id`, for a key of `n` windows.
    fn mask(&self, id: u8, n: usize) -> &[u64] {
        &self.masks[usize::from(id) * n..][..n]
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

    /// The key hash of `(port, data)` under `mask`, read window by
    /// window from the frame. It depends on the masked bytes alone, not
    /// on the mask's id (a mask no entry uses may take another id by the
    /// next miss, and the tag of a first miss must still match).
    #[inline]
    fn hash_key(key: &CacheKey, mask: &[u64], port: u16, data: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64((u64::from(port) << 48) ^ data.len() as u64);
        for word in key.of(data, mask) {
            h.write_u64(word);
        }
        h.finish()
    }

    /// Probe for `(port, frame)` under each mask in use, most recently
    /// hit first. A hit replays the memoized outcome into the mutable
    /// runtime state and returns the verdict plus the hit entry's arena
    /// position (its trace is [`FlowCache::trace`] of it); `None` is a
    /// miss (the caller runs the engine with `self.scratch` recording and
    /// then calls [`FlowCache::commit`]). An entry recorded at a lower
    /// recording `level` than the lookup's is no hit — the re-run
    /// re-records it at the level asked for, so a consumer never observes
    /// a degraded event stream; and since an entry that stores every
    /// record is keyed exactly (see [`FlowCache::commit`]), a records
    /// reader is never served from a wildcarded one. A hit wakes a
    /// dormant cache; a miss counts towards dormancy.
    pub(crate) fn lookup(
        &mut self,
        key: &CacheKey,
        port: u16,
        data: &[u8],
        level: Recording,
        table_stats: &mut [TableStats],
        externs: &mut ExternState,
    ) -> Option<(Verdict, usize)> {
        // One mask in use, as for every program without wildcard fields:
        // every resident entry is stored under it, so one probe serves,
        // straight line and with no check of the entry's mask (a loop over
        // the one mask cost an all-hit `l2_switch` stream about 1.5 ns a
        // packet on a 2-core x86-64 host, as did the probe behind a
        // closure).
        let n = key.words.len();
        let (mut found, mut whole) = (None, None);
        if self.probed == 1 {
            let id = self.order[0];
            let mask = self.mask(id, n);
            let hash = Self::hash_key(key, mask, port, data);
            whole = (id == 0).then_some(hash);
            if let Some(at) = (self.index[Self::slot_of(hash)] as usize).checked_sub(1) {
                if self.arena[at].holds(hash, port, data, level, key.of(data, mask)) {
                    found = Some((0, at));
                }
            }
        } else {
            for (i, &id) in self.order[..self.probed].iter().enumerate() {
                let mask = self.mask(id, n);
                let hash = Self::hash_key(key, mask, port, data);
                if id == 0 {
                    whole = Some(hash);
                }
                let Some(at) = (self.index[Self::slot_of(hash)] as usize).checked_sub(1) else {
                    continue;
                };
                // An entry stored under another mask can hold the same
                // words (its unkeyed bytes read as zero): only one stored
                // under `id` stands for this key.
                let e = &self.arena[at];
                if e.mask == id && e.holds(hash, port, data, level, key.of(data, mask)) {
                    found = Some((i, at));
                    break;
                }
            }
        }
        let Some((i, at)) = found else {
            self.missed(key, port, data, whole);
            return None;
        };
        if i != 0 {
            self.order[..=i].rotate_right(1);
        }
        self.hits += 1;
        self.idle = 0;
        let e = &self.arena[at];
        for (tid, was_hit) in e.applies() {
            table_stats[tid].record(was_hit);
        }
        for (id, idx) in e.counters() {
            externs.counter_inc(id, idx, data.len());
        }
        // The recorded header bytes, then the live payload; then, from
        // this packet, the bytes ahead of the payload that no execution
        // writes: they include the unkeyed and the wildcarded ones, which
        // can differ from the recorded packet's (the keyed ones among them
        // cannot). A program that can move a header passes nothing
        // through.
        let rebuild = || {
            let (header, payload_start) = (e.header(), e.payload_start as usize);
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
        let verdict = match e.kind {
            OutcomeKind::Drop(reason) => Verdict::Drop(reason),
            OutcomeKind::Forward(p) => Verdict::Forward {
                port: p,
                data: rebuild(),
            },
            OutcomeKind::Flood => Verdict::Flood { data: rebuild() },
        };
        Some((verdict, at))
    }

    /// Count a miss, and run the second-chance filter on the whole key
    /// (`whole`: its hash, if the lookup computed it): the whole key's
    /// slot keeps the low 32 bits of the hash of its last miss, and a key
    /// that missed before, or is resident at a lower recording level, is
    /// installed keyed on every byte — a flow that repeats gains nothing
    /// from a wildcard but the probes it would add to lookups. A first
    /// miss of a key without wildcard fields only tags the slot; for one
    /// with them, [`FlowCache::record`] decides.
    ///
    /// Measured: one masked-key filter at commit instead, with no exact
    /// install on a repeat (a scratch build of ca2f956), read `fleet_paced`
    /// `session_pps` 5.44M → 4.46M (6/6 pairs lower), hit ratio 0.8750 →
    /// 0.8613, and `flow_cache`'s `swept_route` occupancy 1 410 → 477.
    #[cold]
    fn missed(&mut self, key: &CacheKey, port: u16, data: &[u8], whole: Option<u64>) {
        self.misses += 1;
        self.idle = self.idle.wrapping_add(1);
        self.scratch.clear();
        self.whole = whole;
        let whole = self.whole_hash(key, port, data);
        let tag = whole as u32;
        let seen = std::mem::replace(&mut self.tags[Self::slot_of(whole)], tag);
        let again = seen == tag || self.resident(whole);
        self.filtered = (again || key.wild.is_empty()).then_some(again);
    }

    /// The trace stored in the entry at arena position `at` (as a
    /// [`FlowCache::lookup`] hit returns it), read in place; empty for an
    /// entry recorded untraced, and records-empty for a stages-only one.
    pub(crate) fn trace(&self, at: usize) -> TraceBytes<'_> {
        self.arena[at].trace()
    }

    /// The recording buffers for the engine run that follows a miss, or
    /// `None` if the miss will only tag its slot. A first miss of a key
    /// with wildcard fields is recorded only if `wildcards()`: some pinned
    /// table may leave key bits unexamined (an LPM or one-key ternary
    /// index, or an empty table). Otherwise every entry keys every byte,
    /// and the miss only tags its slot, as for a key without them.
    ///
    /// A quiet cache (the last [`QUIET_AFTER`] wildcard admissions
    /// installed nothing: flows that repeat one packet, or one-off
    /// packets) records one first miss in [`PROBE_EVERY`], picked by the
    /// key's hash, so traffic that gains nothing from wildcards stops
    /// paying for them, and a sweep that starts is still found: two of
    /// its packets that are recorded install it, and wake the cache.
    ///
    /// Measured: recording every first miss instead (a scratch build of
    /// ca2f956) read `fleet_paced` −3 % (inside its IQR) and `flow_cache`'s
    /// `l2_switch` all-miss no-collapse gate 0.83-0.86x → 0.76-0.82x, over
    /// its 0.75x floor.
    pub(crate) fn record(
        &mut self,
        key: &CacheKey,
        wildcards: impl FnOnce() -> bool,
    ) -> Option<&mut MissRecord> {
        if self.filtered.is_none() {
            if self.quiet() || !wildcards() {
                self.filtered = Some(false);
            } else {
                self.scratch.fields.resize(key.wild.len(), (None, 0));
            }
        }
        (self.filtered != Some(false)).then_some(&mut self.scratch)
    }

    /// Whether a quiet cache skips the last lookup's first miss.
    fn quiet(&self) -> bool {
        let pick = self.whole.unwrap_or_default() >> 32;
        self.futile >= QUIET_AFTER && !pick.is_multiple_of(u64::from(PROBE_EVERY))
    }

    /// The whole-key hash of the last lookup's packet (mask 0 keys every
    /// byte; the first miss sets it up).
    fn whole_hash(&mut self, key: &CacheKey, port: u16, data: &[u8]) -> u64 {
        if self.masks.is_empty() {
            self.masks.reserve_exact(key.words.len());
            self.masks.extend(key.words.iter().map(|&(_, mask)| mask));
        }
        let whole = match self.whole {
            Some(whole) => whole,
            None => Self::hash_key(key, self.mask(0, key.words.len()), port, data),
        };
        self.whole = Some(whole);
        whole
    }

    /// Build in `self.unkeyed` the mask of an entry recorded at `level`,
    /// and return which wildcard fields it leaves bytes of unkeyed (bit
    /// `w` for field `w`; 0: none, and the mask is not built). Every byte
    /// of a wildcard field that no lookup on the packet's path examined a
    /// bit of is left out, if it passes through. An entry that stores
    /// every record keys every byte, because its table records carry its
    /// own packet's keys.
    fn wildcard_mask(&mut self, key: &CacheKey, level: Recording) -> u64 {
        if level == Recording::Everything {
            return 0;
        }
        let (mut wild, mut fresh) = (0, true);
        for (w, (field, &(at, examined))) in key.wild.iter().zip(&self.scratch.fields).enumerate() {
            let (Some(at), cut) = (at, field.unexamined(examined)) else {
                continue;
            };
            for i in (0..field.span).filter(|i| cut >> i & 1 != 0) {
                if std::mem::take(&mut fresh) {
                    self.unkeyed.clear();
                    self.unkeyed
                        .extend_from_slice(&self.masks[..key.words.len()]);
                }
                if key.unkey(&mut self.unkeyed, at + field.first + i as usize) {
                    wild |= 1 << w;
                }
            }
        }
        wild
    }

    /// The id of the mask in `self.unkeyed`: one that holds it already,
    /// or one no resident entry uses, or a new one; `None` with
    /// [`MASKS`] in use.
    fn mask_id(&mut self) -> Option<u8> {
        let n = self.unkeyed.len();
        let rows = self.masks.len() / n;
        let id = match self
            .masks
            .chunks_exact(n)
            .position(|row| row == self.unkeyed)
        {
            Some(id) => id,
            None => match (1..rows).find(|&id| self.users[id] == 0) {
                Some(id) => {
                    self.masks[id * n..][..n].copy_from_slice(&self.unkeyed);
                    id
                }
                None if rows < MASKS => {
                    self.masks.extend_from_slice(&self.unkeyed);
                    rows
                }
                None => return None,
            },
        };
        Some(id as u8)
    }

    /// Whether the slot of `hash` holds an entry with that hash (at a
    /// lower recording level, for a miss).
    fn resident(&self, hash: u64) -> bool {
        let at = (self.index[Self::slot_of(hash)] as usize).checked_sub(1);
        at.is_some_and(|at| self.arena[at].hash == hash)
    }

    /// The second-chance filter's second half, at commit, for a miss the
    /// lookup could not decide ([`FlowCache::missed`]: a packet not seen
    /// before, while wildcards are possible): whether its outcome is
    /// installed wildcarded, under which mask id, with which key hash,
    /// leaving which wildcard fields' bytes out ([`FlowCache::wildcard_mask`]).
    /// The masked key's slot keeps a tag of its last miss, and the entry
    /// is installed when the tag matches (another packet with the same
    /// masked key missed before), or when the masked key is resident at a
    /// lower recording level. A key with nothing to leave out was tagged
    /// at lookup and is not installed. An admission that installs nothing
    /// counts towards a quiet cache ([`FlowCache::record`]).
    fn admit(
        &mut self,
        key: &CacheKey,
        port: u16,
        data: &[u8],
        level: Recording,
    ) -> Option<(u8, u64, u64)> {
        self.futile = self.futile.saturating_add(1);
        let wild = self.wildcard_mask(key, level);
        if wild == 0 {
            return None;
        }
        let hash = Self::hash_key(key, &self.unkeyed, port, data);
        let tag = hash as u32;
        let seen = std::mem::replace(&mut self.tags[Self::slot_of(hash)], tag);
        if seen != tag && !self.resident(hash) {
            return None;
        }
        self.futile = 0;
        Some((self.mask_id()?, hash, wild))
    }

    /// Memoize the outcome of the engine run a miss triggered; must
    /// directly follow the [`FlowCache::lookup`] that missed (the run
    /// recorded into [`FlowCache::record`]). A key the second-chance
    /// filter ([`FlowCache::admit`]) does not install only tags its slot
    /// and returns `false`. Otherwise the entry overwrites its slot's
    /// (direct-mapped), reusing its buffer, and `true` is returned. `trace` carries the packet's flat
    /// trace (records and stage lane, or the stage lane alone) when the
    /// run was traced.
    pub(crate) fn commit<'v>(
        &mut self,
        key: &CacheKey,
        port: u16,
        data: &[u8],
        verdict: &'v Verdict,
        trace: Option<TraceBytes<'_>>,
    ) -> bool {
        let level = match trace {
            None => Recording::Nothing,
            Some(t) if t.records.is_empty() => Recording::Stages,
            Some(_) => Recording::Everything,
        };
        let admitted = match self.filtered {
            Some(install) => install.then(|| (0, self.whole_hash(key, port, data), 0)),
            None => self.admit(key, port, data, level),
        };
        let Some((id, hash, wild)) = admitted else {
            return false;
        };
        let slot = Self::slot_of(hash);
        self.idle = 0;
        let rec = &self.scratch;
        // The output bytes ahead of the payload the parser left unread.
        let header = |frame: &'v [u8]| &frame[..frame.len() - (data.len() - rec.payload_start)];
        let (kind, header): (OutcomeKind, &[u8]) = match verdict {
            Verdict::Drop(reason) => (OutcomeKind::Drop(*reason), &[]),
            Verdict::Forward { port, data: frame } => (OutcomeKind::Forward(*port), header(frame)),
            Verdict::Flood { data: frame } => (OutcomeKind::Flood, header(frame)),
        };
        // A resident slot is overwritten where it is; an empty one takes
        // the next arena position, buffer and all if a dropped entry is
        // parked there.
        let at = match self.index[slot] {
            0 => {
                if self.live == self.arena.len() {
                    self.arena.push(Entry::new(kind));
                }
                self.live += 1;
                self.index[slot] = self.live as u16;
                self.live - 1
            }
            at => {
                let at = at as usize - 1;
                let old = self.arena[at].mask;
                self.release(old);
                at
            }
        };
        self.hold(id);
        let n = key.words.len();
        let (rec, mask) = (&self.scratch, &self.masks[usize::from(id) * n..][..n]);
        let e = &mut self.arena[at];
        e.hash = hash;
        e.mask = id;
        e.port = port;
        e.len = data.len() as u32;
        e.kind = kind;
        e.level = level;
        e.payload_start = rec.payload_start as u32;
        let t = trace.unwrap_or_default();
        let buf = &mut e.buf;
        buf.clear();
        buf.reserve_exact(
            8 * mask.len()
                + 12 * rec.applies.len()
                + 12 * rec.counters.len()
                + header.len()
                + t.records.len()
                + t.lane.len(),
        );
        let at = |buf: &Vec<u8>| buf.len() as u32;
        key.of(data, mask)
            .for_each(|w| buf.extend_from_slice(&w.to_le_bytes()));
        e.applies_at = at(buf);
        for &(tid, hit, ..) in &rec.applies {
            buf.extend_from_slice(&(tid << 1 | u32::from(hit)).to_le_bytes());
        }
        e.counters_at = at(buf);
        for &(id, idx) in &rec.counters {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&idx.to_le_bytes());
        }
        e.header_at = at(buf);
        buf.extend_from_slice(header);
        e.deps_at = at(buf);
        // An apply keyed on a wildcard field the mask left bytes of out
        // depends on its whole table (see `sync`).
        for &(_, _, dep, w) in &rec.applies {
            let wildcarded = w != NOT_WILD && wild >> w & 1 != 0;
            let dep = if wildcarded { WHOLE_TABLE } else { dep };
            buf.extend_from_slice(&dep.to_le_bytes());
        }
        e.records_at = at(buf);
        buf.extend_from_slice(t.records);
        e.lane_at = at(buf);
        buf.extend_from_slice(t.lane);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledProgram;
    use netdebug_p4::ir::IrPattern;
    use Recording::{Everything, Nothing, Stages};

    /// The key of a program that can move a header and parses `cap`
    /// bytes: all of them.
    fn whole(cap: usize) -> CacheKey {
        CacheKey::new(&vec![READ | WRITTEN; cap], Vec::new())
    }

    /// The key hash of a port-0 `frame` with every byte of `key` keyed.
    fn hash(key: &CacheKey, frame: &[u8]) -> u64 {
        let mask: Vec<u64> = key.words.iter().map(|&(_, mask)| mask).collect();
        FlowCache::hash_key(key, &mask, 0, frame)
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
    fn a_gap_drops_every_entry_once() {
        let (mut c, key) = (FlowCache::new(), whole(14));
        c.sync(1, None);
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
        c.sync(2, None);
        assert_eq!(c.stats().occupancy, 0);
        assert_eq!(c.stats().invalidations, 1);
        // Same generation again: no further invalidation.
        c.sync(2, None);
        assert_eq!(c.stats().invalidations, 1);
        // The tags went with the entries: the flow's next miss only arms.
        assert!(c
            .lookup(&key, 0, &frame, Nothing, &mut stats, &mut ext)
            .is_none());
        assert!(!c.commit(&key, 0, &frame, &Verdict::Drop(DropReason::NoEgress), None));
    }

    /// The first `dmac` key of the publication tests.
    const MAC: u128 = 0x0200_0000_0000;

    /// A 64 B frame to `dmac` key `mac`.
    fn frame_to(mac: u128) -> Vec<u8> {
        let mut f = vec![0u8; 64];
        f[..6].copy_from_slice(&mac.to_be_bytes()[10..]);
        f[12..14].copy_from_slice(&[0x08, 0x00]);
        f
    }

    /// `l2_switch` forwarding `MAC + i` to port `i % 4` for `i < 16`, and
    /// one frame to each of those keys: each flow resident after two
    /// batches, in a slot of its own.
    fn switch() -> (crate::Dataplane, Vec<Vec<u8>>) {
        let ir = netdebug_p4::compile(netdebug_p4::corpus::L2_SWITCH).unwrap();
        let mut dp = crate::Dataplane::new(ir);
        let mut frames = Vec::new();
        for i in 0..16 {
            dp.install(
                "dmac",
                vec![IrPattern::Value(MAC + i)],
                "forward",
                vec![i % 4],
                0,
            )
            .unwrap();
            frames.push(frame_to(MAC + i));
        }
        for _ in 0..2 {
            batch(&mut dp, &frames);
        }
        assert_eq!(dp.cache_stats().occupancy, 16);
        (dp, frames)
    }

    /// One batch of `frames`: its verdicts, and the hits and misses it
    /// added.
    fn batch(dp: &mut crate::Dataplane, frames: &[Vec<u8>]) -> (Vec<Verdict>, u64, u64) {
        let before = dp.cache_stats();
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|f| (1, f.as_slice())).collect();
        let verdicts = dp.process_batch(&pkts, 0).into_iter().map(|(v, _)| v);
        let verdicts = verdicts.collect();
        let after = dp.cache_stats();
        (
            verdicts,
            after.hits - before.hits,
            after.misses - before.misses,
        )
    }

    /// The exact `dmac` entry `MAC + i → port`.
    fn route(i: u128, port: u128) -> crate::Update<'static> {
        crate::Update::Insert(
            "dmac",
            crate::TableEntry::exact([MAC + i], "forward", vec![port]),
        )
    }

    /// The delete of `dmac` entry `MAC + i`.
    fn unroute(i: u128) -> crate::Update<'static> {
        crate::Update::Delete("dmac", crate::TableEntry::exact([MAC + i], "", vec![]))
    }

    #[test]
    fn an_unrelated_exact_publication_keeps_every_flow() {
        let (mut dp, frames) = switch();
        let invalidations = dp.cache_stats().invalidations;
        let cp = dp.control_plane();
        cp.write(&[route(100, 1), route(101, 2), unroute(102)])
            .unwrap();
        cp.write(&[unroute(100)]).unwrap();
        let (_, hits, misses) = batch(&mut dp, &frames);
        assert_eq!((hits, misses), (16, 0));
        assert_eq!(dp.cache_stats().invalidations, invalidations);
        assert_eq!(dp.cache_stats().occupancy, 16);
    }

    #[test]
    fn a_touching_publication_drops_exactly_the_flows_it_names() {
        let (mut dp, frames) = switch();
        let invalidations = dp.cache_stats().invalidations;
        dp.control_plane()
            .write(&[unroute(3), unroute(5), route(5, 3), route(200, 1)])
            .unwrap();
        // Each touched flow misses once and is installed again at once:
        // its slot kept its tag.
        let (verdicts, hits, misses) = batch(&mut dp, &frames);
        assert_eq!((hits, misses), (14, 2));
        assert_eq!(dp.cache_stats().invalidations, invalidations + 1);
        assert!(matches!(verdicts[3], Verdict::Flood { .. }));
        assert!(matches!(verdicts[5], Verdict::Forward { port: 3, .. }));
        let (again, hits, misses) = batch(&mut dp, &frames);
        assert_eq!((hits, misses), (16, 0));
        assert_eq!(again, verdicts);
    }

    #[test]
    fn a_gap_a_restore_and_a_clone_each_flush() {
        // Every flow misses, and only arms its tag: nothing was kept.
        let flushed = |dp: &mut crate::Dataplane, frames: &[Vec<u8>]| {
            let (_, hits, misses) = batch(dp, frames);
            assert_eq!((hits, misses, dp.cache_stats().occupancy), (0, 16, 0));
        };
        // A log past its bound: unrelated writes, one publication each.
        let (mut dp, frames) = switch();
        let cp = dp.control_plane();
        for i in 0..=crate::table::LOG_LIMIT as u128 {
            cp.write(&[route(1000 + i, 1)]).unwrap();
        }
        flushed(&mut dp, &frames);
        // A restore, even of the tables the cache holds flows for.
        let (mut dp, frames) = switch();
        let checkpoint = dp.checkpoint();
        dp.restore(&checkpoint);
        flushed(&mut dp, &frames);
        // A clone starts cold; the original keeps its flows.
        let (mut dp, frames) = switch();
        flushed(&mut dp.clone(), &frames);
        assert_eq!(batch(&mut dp, &frames).1, 16);
    }

    /// A sink that, at the batch's first packet, has another thread
    /// publish `update`.
    struct Publisher(crate::ControlPlane, crate::Update<'static>);

    impl crate::TraceSink for Publisher {
        fn observe(&mut self, index: usize, _: Verdict, _: &crate::LazyTrace<'_>) {
            if index == 0 {
                let (cp, update) = (&self.0, &self.1);
                std::thread::scope(|s| {
                    s.spawn(|| cp.write(std::slice::from_ref(update)).unwrap());
                });
            }
        }
    }

    #[test]
    fn a_publication_during_a_batch_drops_its_flows_at_the_next() {
        let (mut dp, frames) = switch();
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|f| (1, f.as_slice())).collect();
        let hits = dp.cache_stats().hits;
        let mut sink = Publisher(dp.control_plane(), unroute(7));
        dp.process_batch_with(&pkts, 0, &mut sink);
        // The batch keeps the tables and the flows it started with.
        assert_eq!(dp.cache_stats().hits, hits + 16);
        let (verdicts, hits, misses) = batch(&mut dp, &frames);
        assert_eq!((hits, misses), (15, 1));
        assert!(matches!(verdicts[7], Verdict::Flood { .. }));
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
            c.scratch.payload_start = 4;
            c.scratch.applies.push((0, true, 0, NOT_WILD));
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
        let full = TraceBytes {
            records: &[9, 0, 0, 0],
            lane: &[1, 0, 0, 0],
        };
        assert!(c.commit(&key, 0, &frame, &drop, Some(full)));
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
        c.sync(7, None);
        let skipped = (0..PROBE_EVERY)
            .filter(|k| drive(&mut c, &(2 << 20 | k).to_be_bytes()).is_none())
            .count();
        assert_eq!(skipped, 15, "still dormant after a sync");
    }

    /// An `ipv4_forward` frame to `dst` (no options, UDP, 64 bytes).
    fn frame_to_ip(dst: u32) -> Vec<u8> {
        let mut f = vec![0u8; 64];
        f[..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
        f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        f[14] = 0x45;
        f[22] = 64;
        f[23] = 17;
        f[30..34].copy_from_slice(&dst.to_be_bytes());
        f
    }

    #[test]
    fn a_quiet_cache_still_finds_a_sweep() {
        let router = || {
            let ir = netdebug_p4::compile(netdebug_p4::corpus::IPV4_FORWARD).unwrap();
            let mut dp = crate::Dataplane::new(ir);
            dp.set_tracing(false);
            let route = crate::TableEntry::lpm(0x0A01_0200, 24, "ipv4_forward", vec![0xAA, 1]);
            dp.control_plane()
                .write(&[crate::Update::Insert("ipv4_lpm", route)])
                .unwrap();
            dp
        };
        // Low bytes from 1: a packet whose unkeyed bytes are all zero has
        // its masked key's hash on its own whole-key tag.
        let sweep: Vec<_> = (1..256).map(|low| frame_to_ip(0x0A01_0200 | low)).collect();
        // Awake, the sweep's second packet installs the route.
        let (_, hits, misses) = batch(&mut router(), &sweep);
        assert_eq!((hits, misses), (253, 2));
        // One-off packets to as many top octets as there are admissions to
        // spend: no two share a masked key, so none installs, and the
        // cache goes quiet.
        let mut dp = router();
        let one_offs: Vec<_> = (0..2 * QUIET_AFTER)
            .map(|o| frame_to_ip((64 + o) << 24 | 0x01_0101))
            .collect();
        let (_, hits, misses) = batch(&mut dp, &one_offs);
        assert_eq!((hits, misses), (0, u64::from(2 * QUIET_AFTER)));
        // Quiet, it records one first miss in 16, and the second recorded
        // one installs the route.
        let (_, hits, misses) = batch(&mut dp, &sweep);
        assert!(misses > 2 && hits >= 128, "{hits} hits, {misses} misses");
        // The install woke it: the next sweep installs on its second packet.
        let next: Vec<_> = (1..256).map(|low| frame_to_ip(0x0A01_0300 | low)).collect();
        let (_, hits, misses) = batch(&mut dp, &next);
        assert_eq!((hits, misses), (253, 2));
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
        // A `dmac` entry, so the lookups examine every destination bit (an
        // empty table examines none, and one-off keys would share a flow).
        dp.install("dmac", vec![IrPattern::Value(MAC)], "forward", vec![1], 0)
            .unwrap();
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

    /// An entry is its offsets around one buffer: a stored trace, its
    /// lane split and the applies' dependencies are sections of that
    /// buffer, not fields or buffers of their own.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_lane_split_does_not_grow_an_entry() {
        assert_eq!(std::mem::size_of::<Entry>(), 72);
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
            assert!(!c.commit(&key, 0, &frame, &Verdict::Drop(DropReason::NoEgress), None));
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
                        FlowCache::slot_of(hash(key, &frame))
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
        let key = CacheKey::new(&[0, READ, 0, READ | WRITTEN, READ, 0], Vec::new());
        let mut c = FlowCache::new();
        let (mut stats, mut ext) = (vec![], ExternState::new(&[]));
        let a = [0xA0, 1, 0xA2, 3, 4, 0xA5, 0xA6, 0xA7];
        for _ in 0..2 {
            assert!(c
                .lookup(&key, 0, &a, Nothing, &mut stats, &mut ext)
                .is_none());
            c.scratch.payload_start = 6;
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
            c.arena[0].words().collect::<Vec<_>>(),
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
        let slot_of = |f: &[u8; 4]| FlowCache::slot_of(hash(&whole(4), f));
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
            .filter(|f| slots.insert(FlowCache::slot_of(hash(&whole(4), f))))
            .take(64)
            .collect();
        let mut c = FlowCache::new();
        c.sync(1, None);
        for f in &frames {
            install(&mut c, f, 1);
        }
        assert_eq!((c.stats().occupancy, c.arena.len()), (64, 64));
        c.sync(2, None);
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
