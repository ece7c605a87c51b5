//! Runtime match-action table state, published as **epoch snapshots**
//! that carry an **incrementally maintained lookup index**.
//!
//! Tables hold [`RuntimeEntry`]s installed either at compile time (const
//! entries) or through the control-plane API. Lookup is match-kind aware:
//! exact tables need full equality, LPM prefers the longest prefix, and
//! ternary/range tables resolve by explicit priority. A single sorted
//! entry list *defines* all three — the seed semantics is "scan the
//! priority-sorted list, first full match wins" — but scanning is O(n)
//! per apply, so each snapshot also carries a [`LookupIndex`] shaped by
//! the table's [`netdebug_p4::ir::KeySignature`], the way real targets
//! compile match kinds into hardware memories (exact → hash unit, LPM →
//! per-prefix-length levels, ternary → TCAM, here tuple-space search).
//! The index answers exactly what the scan would — bit-identical by
//! construction (and pinned by property tests), falling back to the scan
//! for anything it cannot prove equivalent.
//!
//! **Ternary, mixed-kind and multi-key exact tables: tuple-space
//! search.** Every maskable pattern is `key & mask == value` (`Value` →
//! all ones, `Any` → zero), so the entries of a table fall into groups by
//! their tuple of masks (a multi-key exact table is one all-ones group),
//! and within a group a lookup is an exact match on the masked key: one
//! hash probe per [`TupleGroup`] instead of one comparison per rule. The
//! groups' answers are merged by priority — a group whose best priority
//! is below the best hit so far is not probed at all — and where two
//! groups answer with *equal* priority the list's equal-priority run
//! decides, because install order lives there and nowhere else. A rule
//! set's lookup cost scales with its distinct mask tuples (a handful to
//! a few dozen for an ACL), not with its rules. What the groups cannot
//! express exactly — a `Range` pattern, a pattern list of the wrong
//! arity, more than eight declared keys, a probe with fewer keys
//! than the table declares — takes the scan.
//!
//! **A publication costs what changed, not what is resident.** A
//! [`TableState`] holds an [`Arc`]`<`[`EntrySnapshot`]`>` behind a mutex
//! and `install`/`remove` edit it through [`Arc::make_mut`]:
//!
//! * nobody holds a pin → the snapshot is edited **in place**: one slot
//!   inserted into (or removed from) the sorted list, one key inserted
//!   into (or removed from) the index, the epoch bumped;
//! * somebody holds a pin (an in-flight batch, a checkpoint, a device
//!   clone) → the snapshot is **copied exactly once** — refcount bumps, the
//!   list holds `Arc<RuntimeEntry>` — the copy is edited, and the pin
//!   keeps reading its epoch bit for bit. Publications that follow edit
//!   the copy in place until someone pins again.
//!
//! The uniqueness check is race-free because every pin is handed out by
//! [`TableState::snapshot`] **under the same mutex** the mutation holds:
//! a reference count of one, observed with the lock held, means no other
//! thread has the snapshot and none can get it before the edit is done.
//! (A pin dropped concurrently can only make the check pessimistic — one
//! copy that was not strictly needed.) The index is position-free —
//! hash values are the winning entry itself, LPM levels are keyed by
//! priority, tuple groups by their masks — so editing the list never
//! invalidates it, and the from-scratch build (const entries, `clear`)
//! is the fold of the same one-entry insert. What stays O(n) per
//! publication is the sorted list's `memmove` (16 bytes per resident
//! entry behind the edit point) and, for `remove`, the pointer walk over
//! the victim's equal-priority run.
//!
//! Readers pin a snapshot once (per packet on the single-packet path,
//! per batch on the batch paths), keep reading it no matter what the
//! control plane does concurrently — which is what lets installs land
//! *mid-batch* without pausing or locking against the packet path — and
//! drop the pin when the batch returns, so the publications between
//! batches find the snapshot unpinned and edit it in place. The
//! batch paths flatten the pins further into [`TableView`]s — direct
//! borrows of the index and entry list — so a table apply costs one
//! slice index, not an `Arc` dereference.

use netdebug_p4::ast::MatchKind;
use netdebug_p4::ir::{self, ActionCall, IrPattern, KeySignature};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

/// A multiply-rotate hasher in the fxhash family: a few cycles per key
/// word instead of SipHash's DoS-resistant but ~20 ns setup. Table keys
/// here are attacker-independent (they come from the program's own key
/// expressions over already-parsed packets), so the fast
/// non-cryptographic hash is the right trade-off — it is what keeps a
/// hash probe competitive with scanning even a one-entry table.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }

    /// One round for a whole key value: the high half, zero for every
    /// key narrower than 65 bits, is folded into the low one off the
    /// dependency chain. (A tuple-space lookup hashes every key once per
    /// group; the round is most of what a probe costs.)
    #[inline]
    fn add_folded(&mut self, value: u128) {
        self.add(value as u64 ^ ((value >> 64) as u64).wrapping_mul(Self::SEED));
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// One hash slot of a [`LookupIndex`]: the entry the scan would return
/// for the slot's key, and how many more resident entries carry the same
/// key behind it in priority order. The count is what keeps removal
/// O(1) in the common case: a departing winner with nothing shadowed
/// just vacates its key, no rescan.
#[derive(Debug, Clone, PartialEq)]
pub struct Winner {
    entry: Arc<RuntimeEntry>,
    shadowed: usize,
}

impl Winner {
    /// The first entry on a key.
    fn new(entry: &Arc<RuntimeEntry>) -> Winner {
        Winner {
            entry: Arc::clone(entry),
            shadowed: 0,
        }
    }

    /// One more resident entry carries the key. An insert lands behind
    /// every resident entry of equal or higher priority, so it wins the
    /// key only from a strictly lower-priority winner — exactly how the
    /// scan resolves duplicate keys, decided without knowing anyone's
    /// list position.
    fn join(&mut self, entry: &Arc<RuntimeEntry>) {
        self.shadowed += 1;
        if entry.priority > self.entry.priority {
            self.entry = Arc::clone(entry);
        }
    }

    /// `entry` leaves the key. Returns `false` when it was the only one
    /// on it (the caller vacates the slot). `successor` names the first
    /// remaining resident entry with the key; it runs only when the
    /// winner itself leaves while a duplicate is shadowed.
    fn leave<'a>(
        &mut self,
        entry: &Arc<RuntimeEntry>,
        successor: impl FnOnce() -> Option<&'a Slot>,
    ) -> bool {
        if self.shadowed == 0 {
            return false;
        }
        self.shadowed -= 1;
        if Arc::ptr_eq(&self.entry, entry) {
            let next = successor().expect("a shadowed duplicate is resident");
            self.entry = Arc::clone(&next.entry);
        }
        true
    }
}

/// The hash map flavour the exact and LPM arms of [`LookupIndex`] use.
type FxMap<K> = HashMap<K, Winner, BuildHasherDefault<FxHasher>>;

/// Index `entry` under `key`.
fn claim<K: Hash + Eq>(map: &mut FxMap<K>, key: K, entry: &Arc<RuntimeEntry>) {
    match map.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(Winner::new(entry));
        }
        Entry::Occupied(slot) => slot.into_mut().join(entry),
    }
}

/// Take `entry` out from under `key` (see [`Winner::leave`] for
/// `successor`).
fn release<'a, K: Hash + Eq>(
    map: &mut FxMap<K>,
    key: &K,
    entry: &Arc<RuntimeEntry>,
    successor: impl FnOnce() -> Option<&'a Slot>,
) {
    let winner = map.get_mut(key).expect("every resident entry is indexed");
    if !winner.leave(entry, successor) {
        map.remove(key);
    }
}

/// The one canonical match predicate of the seed scan: patterns zipped
/// against keys, missing keys matching vacuously. The scan and the index
/// maintenance's equivalence contract refer to this single function, so
/// the semantics cannot drift between copies.
#[inline]
fn entry_matches(e: &RuntimeEntry, keys: &[u128]) -> bool {
    e.patterns.iter().zip(keys).all(|(p, k)| p.matches(*k))
}

/// The maskable form of a single-key pattern: `key & mask == value`.
fn maskable(p: &IrPattern) -> Option<(u128, u128)> {
    match *p {
        IrPattern::Value(v) => Some((u128::MAX, v)),
        IrPattern::Mask { value, mask } => Some((mask, value & mask)),
        IrPattern::Any => Some((0, 0)),
        IrPattern::Range { .. } => None,
    }
}

/// Errors from control-plane table manipulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableError {
    /// The table is at its declared capacity.
    Full {
        /// Declared capacity.
        capacity: u64,
    },
    /// Entry pattern count does not match the table's key count.
    KeyCountMismatch {
        /// Patterns supplied.
        got: usize,
        /// Keys declared.
        want: usize,
    },
    /// The action is not in the table's action list.
    ActionNotPermitted,
    /// Wrong number of action arguments.
    BadActionArgs {
        /// Arguments supplied.
        got: usize,
        /// Parameters declared.
        want: usize,
    },
    /// Pattern kind is incompatible with the key's match kind (e.g. a range
    /// pattern on an exact key).
    BadPattern,
}

impl core::fmt::Display for TableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TableError::Full { capacity } => write!(f, "table full (capacity {capacity})"),
            TableError::KeyCountMismatch { got, want } => {
                write!(f, "entry has {got} patterns, table has {want} keys")
            }
            TableError::ActionNotPermitted => write!(f, "action not permitted by table"),
            TableError::BadActionArgs { got, want } => {
                write!(f, "action takes {want} args, {got} given")
            }
            TableError::BadPattern => write!(f, "pattern incompatible with match kind"),
        }
    }
}

impl std::error::Error for TableError {}

/// An installed entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeEntry {
    /// Patterns, one per key.
    pub patterns: Vec<IrPattern>,
    /// Bound action and arguments.
    pub action: ActionCall,
    /// Priority (higher wins). For LPM entries this is the prefix length.
    pub priority: i32,
}

/// Hit/miss statistics for one table.
///
/// Kept separate from [`TableState`] so the packet path borrows the
/// entry list shared and the statistics exclusively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Lookup hit counter.
    pub hits: u64,
    /// Lookup miss counter.
    pub misses: u64,
}

impl TableStats {
    /// Record one lookup outcome.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// One element of a snapshot's priority-sorted list: the shared entry
/// plus an inline copy of its priority, so the binary searches that place
/// an entry or find its equal-priority run walk sixteen contiguous bytes
/// per element and follow no pointer. (Entries are immutable once
/// installed; the copy cannot go stale.) The matching itself is the
/// index's business: only the scan — the oracle, and the fallback for
/// shapes no structure holds — follows the `Arc` of every rule it passes.
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    /// `entry.priority`.
    priority: i32,
    entry: Arc<RuntimeEntry>,
}

impl Slot {
    fn new(entry: Arc<RuntimeEntry>) -> Slot {
        Slot {
            priority: entry.priority,
            entry,
        }
    }

    /// Does this slot hold exactly these patterns? (Callers have already
    /// narrowed to one priority.)
    fn holds(&self, patterns: &[IrPattern]) -> bool {
        self.entry.patterns == patterns
    }
}

/// The contiguous run of the sorted list at `priority`, and where it
/// starts.
fn priority_run(entries: &[Slot], priority: i32) -> (usize, &[Slot]) {
    let start = entries.partition_point(|s| s.priority > priority);
    let run = &entries[start..];
    (
        start,
        &run[..run.partition_point(|s| s.priority == priority)],
    )
}

/// One priority level of an LPM index, optionally accelerated by a
/// uniform-mask hash.
///
/// `install_lpm`-shaped entries give every entry of a priority level the
/// same mask (the prefix length *is* the priority), so the whole level
/// resolves with one `key & mask` hash probe. Levels whose entries carry
/// mixed masks (possible through the raw `install` API) scan their run
/// of the sorted list — the index never guesses.
#[derive(Debug, Clone, PartialEq)]
pub struct LpmLevel {
    priority: i32,
    /// `(mask, masked value → winner)` while every entry of the level
    /// shares `mask`; `None` keeps the per-level scan.
    hash: Option<(u128, FxMap<u128>)>,
}

impl LpmLevel {
    /// An empty level at `priority`, hashed on `first`'s mask if it has
    /// one.
    fn new(priority: i32, first: &IrPattern) -> LpmLevel {
        LpmLevel {
            priority,
            hash: maskable(first).map(|(mask, _)| (mask, FxMap::default())),
        }
    }

    /// Add one single-pattern entry; a mask that differs from the
    /// level's demotes the level to its scan.
    fn insert(&mut self, entry: &Arc<RuntimeEntry>) {
        match (&mut self.hash, maskable(&entry.patterns[0])) {
            (Some((mask, map)), Some((m, value))) if *mask == m => claim(map, value, entry),
            _ => self.hash = None,
        }
    }
}

/// Most keys a table may declare and still get a tuple-space index;
/// wider tables keep the scan. Sized so a group's masks sit inline.
const MAX_TUPLE_KEYS: usize = 8;

/// Fewest buckets a [`TupleGroup`] allocates.
const MIN_BUCKETS: usize = 8;

/// How many times its buckets a full [`TupleGroup`] (half of them
/// occupied) grows to. Four, not two: a rule set's set-up is mostly
/// installs, and halving the number of rehashes — each an allocation of
/// a new size — is worth more there than the slack (a group runs between
/// an eighth and a half full) costs in bytes next to the entries.
const GROWTH: usize = 4;

/// The hash of a tuple of masked key values.
#[inline]
fn tuple_hash(values: impl Iterator<Item = u128>) -> u64 {
    let mut hasher = FxHasher::default();
    values.for_each(|v| hasher.add_folded(v));
    hasher.finish()
}

/// The hash of the key a pattern list is in its tuple-space group — its
/// masked values — or `None` for a list no group can hold: one maskable
/// pattern per declared key is the shape. One pass, nothing allocated.
fn tuple_key(patterns: &[IrPattern], key_count: usize) -> Option<u64> {
    if patterns.len() != key_count {
        return None;
    }
    let mut hasher = FxHasher::default();
    for p in patterns {
        hasher.add_folded(maskable(p)?.1);
    }
    Some(hasher.finish())
}

/// Do two pattern lists spell the same masks and masked values? (`a` is
/// tuple-shaped; a range pattern in `b` then never compares equal.)
fn same_tuple(a: &[IrPattern], b: &[IrPattern]) -> bool {
    a.iter().zip(b).all(|(a, b)| maskable(a) == maskable(b))
}

/// One occupied slot of a [`TupleGroup`]: the key's winner and the hash
/// of the key, cached so that a probe compares eight bytes before it
/// follows a pointer and growth never re-derives a hash.
#[derive(Debug, Clone)]
struct Bucket {
    hash: u64,
    winner: Winner,
}

/// One group of a tuple-space index: every resident entry whose patterns
/// carry this tuple of masks, hashed on its masked values.
///
/// **The entry is its own key.** An entry of the group matches a key
/// tuple iff the tuple's masked values equal the entry's, so the table —
/// open addressing, linear probing, backward-shift delete, at most half
/// full — stores no key copy: a probe compares the cached hash and then
/// asks the winner itself (the scan's match predicate for a packet's keys, the
/// masked values of the two pattern lists for an install or a removal).
/// Nothing is allocated per entry and no masked key is materialised per
/// probe.
#[derive(Debug, Clone)]
pub struct TupleGroup {
    /// One mask per declared key; the tail past the key count is zero.
    masks: [u128; MAX_TUPLE_KEYS],
    /// The highest priority among the group's resident entries, exactly:
    /// a lookup skips the group once it holds a better hit.
    max_priority: i32,
    /// Occupied buckets (distinct keys).
    len: usize,
    /// A power of two of slots.
    buckets: Vec<Option<Bucket>>,
}

/// Groups are equal when they hold the same keys with the same winners;
/// where a key sits in its table is history (growth, probe collisions,
/// deletions), not state, exactly as for the hash maps of the other arms.
impl PartialEq for TupleGroup {
    fn eq(&self, other: &TupleGroup) -> bool {
        let within = |a: &TupleGroup, b: &TupleGroup| {
            a.buckets.iter().flatten().all(|bucket| {
                let patterns = &bucket.winner.entry.patterns;
                b.winner(bucket.hash, patterns) == Some(&bucket.winner)
            })
        };
        self.masks == other.masks
            && self.max_priority == other.max_priority
            && self.len == other.len
            && within(self, other)
            && within(other, self)
    }
}

impl TupleGroup {
    /// An empty group for entries masked like the tuple-shaped
    /// `patterns`.
    fn new(patterns: &[IrPattern]) -> TupleGroup {
        let mut masks = [0; MAX_TUPLE_KEYS];
        for (mask, p) in masks.iter_mut().zip(patterns) {
            *mask = maskable(p).map_or(0, |(m, _)| m);
        }
        TupleGroup {
            masks,
            max_priority: i32::MIN,
            len: 0,
            buckets: vec![None; MIN_BUCKETS],
        }
    }

    /// This group's masks against those of a tuple-shaped pattern list,
    /// compared in place: the canonical group order.
    fn cmp_masks(&self, patterns: &[IrPattern]) -> Ordering {
        for (mask, p) in self.masks.iter().zip(patterns) {
            let order = mask.cmp(&maskable(p).map_or(0, |(m, _)| m));
            if order.is_ne() {
                return order;
            }
        }
        Ordering::Equal
    }

    /// Where a key's probe sequence starts. The top bits: the hash ends
    /// in a multiplication, whose low bits see only the low bits of the
    /// last word.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.buckets.len().trailing_zeros())) as usize
    }

    /// The slot holding the key with this hash that `same` recognises
    /// its winner by, or the empty slot that ends the key's probe
    /// sequence (the table is never more than half full).
    #[inline]
    fn slot_of(&self, hash: u64, same: impl Fn(&RuntimeEntry) -> bool) -> usize {
        let wrap = self.buckets.len() - 1;
        let mut at = self.home(hash);
        while let Some(bucket) = &self.buckets[at] {
            if bucket.hash == hash && same(&bucket.winner.entry) {
                break;
            }
            at = (at + 1) & wrap;
        }
        at
    }

    /// The winner for a packet's keys (exactly as many as the table
    /// declares).
    #[inline]
    fn get(&self, keys: &[u128]) -> Option<&Winner> {
        let hash = tuple_hash(keys.iter().zip(&self.masks).map(|(k, m)| k & m));
        let at = self.slot_of(hash, |e| entry_matches(e, keys));
        self.buckets[at].as_ref().map(|b| &b.winner)
    }

    /// The slot of the key `patterns` (of this group, hashing to
    /// `hash`) are.
    fn slot_of_patterns(&self, hash: u64, patterns: &[IrPattern]) -> usize {
        self.slot_of(hash, |e| same_tuple(patterns, &e.patterns))
    }

    /// The winner on the key `patterns` are.
    fn winner(&self, hash: u64, patterns: &[IrPattern]) -> Option<&Winner> {
        self.buckets[self.slot_of_patterns(hash, patterns)]
            .as_ref()
            .map(|b| &b.winner)
    }

    /// Index `entry`, whose key hashes to `hash`.
    fn claim(&mut self, hash: u64, entry: &Arc<RuntimeEntry>) {
        self.max_priority = self.max_priority.max(entry.priority);
        let at = self.slot_of_patterns(hash, &entry.patterns);
        if let Some(bucket) = &mut self.buckets[at] {
            bucket.winner.join(entry);
            return;
        }
        self.buckets[at] = Some(Bucket {
            hash,
            winner: Winner::new(entry),
        });
        self.len += 1;
        if self.len * 2 > self.buckets.len() {
            let grown = vec![None; self.buckets.len() * GROWTH];
            let old = std::mem::replace(&mut self.buckets, grown);
            for bucket in old.into_iter().flatten() {
                // Distinct keys all: the first empty slot is the place.
                let at = self.slot_of(bucket.hash, |_| false);
                self.buckets[at] = Some(bucket);
            }
        }
    }

    /// Take `entry`, whose key hashes to `hash`, out of the group (see
    /// [`Winner::leave`] for `successor`).
    fn release<'a>(
        &mut self,
        hash: u64,
        entry: &Arc<RuntimeEntry>,
        successor: impl FnOnce() -> Option<&'a Slot>,
    ) {
        let mut hole = self.slot_of_patterns(hash, &entry.patterns);
        let bucket = self.buckets[hole]
            .as_mut()
            .expect("every resident entry is indexed");
        if bucket.winner.leave(entry, successor) {
            return;
        }
        // Backward-shift delete: pull every later bucket of the cluster
        // that may legally sit in the hole — its home is not past it —
        // one step closer to its home, so no probe sequence is cut.
        let wrap = self.buckets.len() - 1;
        let mut next = (hole + 1) & wrap;
        while let Some(bucket) = &self.buckets[next] {
            let from_home = next.wrapping_sub(self.home(bucket.hash)) & wrap;
            if from_home >= (next.wrapping_sub(hole) & wrap) {
                self.buckets.swap(hole, next);
                hole = next;
            }
            next = (next + 1) & wrap;
        }
        self.buckets[hole] = None;
        self.len -= 1;
    }
}

/// The lookup structure an [`EntrySnapshot`] carries, maintained one
/// entry at a time.
///
/// Chosen per table from the [`KeySignature`] of its declared keys, then
/// *verified* against each entry as it arrives — an entry shape the
/// structure cannot represent exactly (a range pattern in a ternary
/// table, a masked const entry in an exact one) demotes the snapshot to
/// [`LookupIndex::Scan`] for as long as that entry is resident, so every
/// variant answers bit-identically to the seed priority-ordered linear
/// scan. No variant stores a list position: inserting into or removing
/// from the sorted list never invalidates the index.
#[derive(Debug, Clone, PartialEq)]
pub enum LookupIndex {
    /// Single exact key: one hash probe on the key value.
    ExactOne(FxMap<u128>),
    /// Single-key LPM table: levels in descending priority, probed
    /// longest-prefix-first.
    Lpm(Vec<LpmLevel>),
    /// Ternary, mixed-kind and multi-key exact tables: tuple-space search.
    /// One [`TupleGroup`] per distinct tuple of masks among the resident
    /// entries, one hash probe per group; the best-priority answer wins
    /// and the list's equal-priority run settles a tie between groups.
    Tuples {
        /// Declared key count (every group masks this many keys).
        key_count: usize,
        /// Groups sorted by mask tuple: a canonical order, so a
        /// maintained index equals the from-scratch one.
        groups: Vec<TupleGroup>,
    },
    /// General fallback: the seed priority-ordered scan over the entries.
    Scan,
}

impl LookupIndex {
    /// The index of an empty table with this signature.
    fn empty(signature: KeySignature, key_count: usize) -> LookupIndex {
        match signature {
            KeySignature::AllExact if key_count == 1 => LookupIndex::ExactOne(FxMap::default()),
            KeySignature::SingleLpm => LookupIndex::Lpm(Vec::new()),
            // A multi-key exact table is one group with every mask all ones.
            KeySignature::AllExact | KeySignature::Generic
                if (1..=MAX_TUPLE_KEYS).contains(&key_count) =>
            {
                LookupIndex::Tuples {
                    key_count,
                    groups: Vec::new(),
                }
            }
            KeySignature::AllExact | KeySignature::Generic => LookupIndex::Scan,
        }
    }

    /// Account for one entry joining the sorted list (behind every
    /// resident entry of equal or higher priority). An entry the
    /// structure cannot represent — a range pattern in a tuple-space
    /// table; for the other arms only unvalidated const entries —
    /// demotes the index to the scan.
    fn insert(&mut self, entry: &Arc<RuntimeEntry>) {
        match self {
            LookupIndex::ExactOne(map) => match entry.patterns[..] {
                [IrPattern::Value(v)] => claim(map, v, entry),
                _ => *self = LookupIndex::Scan,
            },
            LookupIndex::Lpm(levels) => {
                if entry.patterns.len() != 1 {
                    *self = LookupIndex::Scan;
                    return;
                }
                let at = levels.partition_point(|l| l.priority > entry.priority);
                if levels.get(at).is_none_or(|l| l.priority != entry.priority) {
                    levels.insert(at, LpmLevel::new(entry.priority, &entry.patterns[0]));
                }
                levels[at].insert(entry);
            }
            LookupIndex::Tuples { key_count, groups } => {
                let patterns = &entry.patterns[..];
                let Some(hash) = tuple_key(patterns, *key_count) else {
                    *self = LookupIndex::Scan;
                    return;
                };
                let at = match groups.binary_search_by(|g| g.cmp_masks(patterns)) {
                    Ok(at) => at,
                    Err(at) => {
                        groups.insert(at, TupleGroup::new(patterns));
                        at
                    }
                };
                groups[at].claim(hash, entry);
            }
            LookupIndex::Scan => {}
        }
    }

    /// Account for `gone` having left position `pos` of the sorted list
    /// (`entries` is the list without it). Returns `false` when the
    /// index is the scan: the caller decides whether the remaining
    /// entries deserve a structure again.
    fn remove(&mut self, gone: &Slot, entries: &[Slot], pos: usize) -> bool {
        match self {
            LookupIndex::ExactOne(map) => {
                let [IrPattern::Value(key)] = gone.entry.patterns[..] else {
                    unreachable!("an exact index holds value patterns only")
                };
                // The first entry behind the edit point that carries the
                // same key takes over a departing winner's slot.
                release(map, &key, &gone.entry, || {
                    entries[pos..]
                        .iter()
                        .find(|s| s.holds(&gone.entry.patterns))
                });
            }
            LookupIndex::Lpm(levels) => {
                let at = levels.partition_point(|l| l.priority > gone.priority);
                let (_, run) = priority_run(entries, gone.priority);
                if run.is_empty() {
                    levels.remove(at);
                } else if let Some((_, map)) = &mut levels[at].hash {
                    let key =
                        maskable(&gone.entry.patterns[0]).expect("a hashed level is maskable");
                    // One mask per hashed level: equal masked values are
                    // equal keys, and a shadowed duplicate sits in the
                    // level's own run, ahead of any lower level.
                    release(map, &key.1, &gone.entry, || {
                        entries[pos..]
                            .iter()
                            .find(|s| maskable(&s.entry.patterns[0]) == Some(key))
                    });
                } else {
                    // The departed entry may have been the odd mask out:
                    // refold the level over what is left of its run.
                    let mut level = LpmLevel::new(gone.priority, &run[0].entry.patterns[0]);
                    run.iter().for_each(|s| level.insert(&s.entry));
                    levels[at] = level;
                }
            }
            LookupIndex::Tuples { key_count, groups } => {
                let patterns = &gone.entry.patterns[..];
                let hash = tuple_key(patterns, *key_count)
                    .expect("a tuple index holds tuple-shaped entries only");
                let at = groups
                    .binary_search_by(|g| g.cmp_masks(patterns))
                    .expect("every resident entry has its group");
                let group = &mut groups[at];
                // Same masks, same masked values: the duplicate need not
                // spell its patterns the way the winner did.
                group.release(hash, &gone.entry, || {
                    entries[pos..]
                        .iter()
                        .find(|s| same_tuple(patterns, &s.entry.patterns))
                });
                if group.len == 0 {
                    groups.remove(at);
                } else if gone.priority == group.max_priority {
                    // The list is sorted: the group's first entry at or
                    // behind the start of the departed one's run holds
                    // the group's new maximum.
                    let (start, _) = priority_run(entries, gone.priority);
                    group.max_priority = entries[start..]
                        .iter()
                        .find(|s| group.cmp_masks(&s.entry.patterns).is_eq())
                        .expect("a group with a bucket has a resident entry")
                        .priority;
                }
            }
            LookupIndex::Scan => return false,
        }
        true
    }

    /// What the index knows about resident entries holding exactly
    /// `patterns` at `priority`: `None` — it cannot say (scan, mixed
    /// level); `Some(None)` — there is none; `Some(Some(w))` — they
    /// share `w`'s key, and `w` is the first of them in list order if it
    /// is one of them.
    fn probe(&self, patterns: &[IrPattern], priority: i32) -> Option<Option<&Winner>> {
        match self {
            LookupIndex::ExactOne(map) => Some(match patterns {
                [IrPattern::Value(v)] => map.get(v),
                _ => None,
            }),
            LookupIndex::Lpm(levels) => {
                let at = levels.partition_point(|l| l.priority > priority);
                let Some(level) = levels.get(at).filter(|l| l.priority == priority) else {
                    return Some(None);
                };
                let (mask, map) = level.hash.as_ref()?;
                Some(match patterns {
                    [p] => maskable(p)
                        .filter(|(m, _)| m == mask)
                        .and_then(|(_, value)| map.get(&value)),
                    _ => None,
                })
            }
            LookupIndex::Tuples { key_count, groups } => {
                Some(tuple_key(patterns, *key_count).and_then(|hash| {
                    let at = groups.binary_search_by(|g| g.cmp_masks(patterns));
                    groups[at.ok()?].winner(hash, patterns)
                }))
            }
            LookupIndex::Scan => None,
        }
    }
}

/// One epoch-stamped published entry list plus its [`LookupIndex`].
///
/// A snapshot someone has pinned is never mutated: the packet path pins
/// one with an [`Arc`] clone and reads it lock-free for as long as it
/// likes, while the control plane publishes successors through
/// [`TableState::install`]/[`TableState::remove`]/[`TableState::clear`]
/// — editing the snapshot in place only while nobody but the table
/// holds it (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySnapshot {
    /// Publication sequence number: 0 for the const-entry snapshot, +1 per
    /// control-plane mutation.
    epoch: u64,
    /// Lookup structure over the entries, maintained by
    /// [`EntrySnapshot::insert`]/[`EntrySnapshot::remove`]. Declared —
    /// so dropped — ahead of the list: the index lets go of its shares
    /// and the list then frees the entries in the order they were
    /// allocated, not in hash order.
    index: LookupIndex,
    /// Entries sorted by descending priority, earlier install first
    /// among equals.
    entries: Vec<Slot>,
}

impl EntrySnapshot {
    /// Build a snapshot from scratch as the fold of
    /// [`EntrySnapshot::insert`] over `entries` in install order: the
    /// same code path that maintains every index builds every index.
    fn publish(
        epoch: u64,
        entries: impl IntoIterator<Item = Arc<RuntimeEntry>>,
        signature: KeySignature,
        key_count: usize,
    ) -> Self {
        let mut snapshot = EntrySnapshot {
            epoch,
            entries: Vec::new(),
            index: LookupIndex::empty(signature, key_count),
        };
        entries.into_iter().for_each(|e| snapshot.insert(e));
        snapshot
    }

    /// Place one entry behind every entry of equal or higher priority
    /// and index it.
    fn insert(&mut self, entry: Arc<RuntimeEntry>) {
        let pos = self
            .entries
            .partition_point(|s| s.priority >= entry.priority);
        self.index.insert(&entry);
        self.entries.insert(pos, Slot::new(entry));
    }

    /// Take out the entry at `pos`. A table whose index is the scan
    /// although its signature has a structure holds an entry the
    /// structure cannot (a range pattern, an unvalidated const shape),
    /// so only such an entry's departure can bring the structure back:
    /// when `gone` alone would demote a fresh index, the index is
    /// refolded over the list — which is the install-order fold, since
    /// an insert only ever wins a key from a lower priority — up to the
    /// first entry that demotes it again.
    fn remove(&mut self, pos: usize, signature: KeySignature, key_count: usize) {
        let gone = self.entries.remove(pos);
        if self.index.remove(&gone, &self.entries, pos) {
            return;
        }
        let is_scan = |index: &LookupIndex| matches!(index, LookupIndex::Scan);
        let mut alone = LookupIndex::empty(signature, key_count);
        if is_scan(&alone) {
            return;
        }
        alone.insert(&gone.entry);
        if is_scan(&alone) {
            let mut index = LookupIndex::empty(signature, key_count);
            for slot in &self.entries {
                index.insert(&slot.entry);
                if is_scan(&index) {
                    break;
                }
            }
            self.index = index;
        }
    }

    /// Position of the first entry holding exactly `patterns` at
    /// `priority`. The search never leaves the equal-priority run, and
    /// where the index knows the key it decides first: no such key — no
    /// walk at all; the key's winner is the victim — a pointer walk to
    /// its slot; only a shadowed duplicate compares patterns.
    fn position_of(&self, patterns: &[IrPattern], priority: i32) -> Option<usize> {
        let victim = match self.index.probe(patterns, priority) {
            Some(None) => return None,
            Some(Some(w)) if w.entry.priority == priority && w.entry.patterns == patterns => {
                Some(&w.entry)
            }
            Some(Some(w)) if w.shadowed == 0 => return None,
            _ => None,
        };
        let (start, run) = priority_run(&self.entries, priority);
        let at = match victim {
            Some(victim) => run.iter().position(|s| Arc::ptr_eq(&s.entry, victim)),
            None => run.iter().position(|s| s.holds(patterns)),
        };
        at.map(|i| start + i)
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the given key values through the index; returns the
    /// matched entry.
    ///
    /// Pure read — callers record the outcome in their own [`TableStats`].
    pub fn lookup(&self, keys: &[u128]) -> Option<&RuntimeEntry> {
        self.view().lookup(keys)
    }

    /// The seed linear scan: first full match over the priority-sorted
    /// entry list. This *is* the semantics the index must reproduce;
    /// benches measure it as the pre-index baseline and property tests
    /// pin `lookup == lookup_scan` for arbitrary entry sets.
    pub fn lookup_scan(&self, keys: &[u128]) -> Option<&RuntimeEntry> {
        self.view().scan(keys).map(|e| &**e)
    }

    /// Flatten this snapshot into a [`TableView`]: direct borrows of the
    /// index and entry list, resolved once per batch so the per-apply cost
    /// is a slice index instead of an `Arc` dereference.
    pub fn view(&self) -> TableView<'_> {
        TableView {
            index: &self.index,
            entries: &self.entries,
        }
    }

    /// Iterate installed entries in priority order.
    pub fn entries(&self) -> impl Iterator<Item = &RuntimeEntry> {
        self.entries.iter().map(|s| &*s.entry)
    }
}

/// A per-batch resolved view of one pinned table: the snapshot's
/// [`LookupIndex`] and entry list, borrowed directly.
///
/// The batch paths resolve every pinned `Arc<EntrySnapshot>` into a
/// `TableView` **once at batch entry**; each table apply then costs one
/// slice index plus the index probe. Views are `Copy` and stay
/// epoch-atomic by construction: they borrow the pinned snapshot, which
/// mid-batch control-plane publications never touch.
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    index: &'a LookupIndex,
    entries: &'a [Slot],
}

impl<'a> TableView<'a> {
    /// Look up the given key values; returns the matched entry.
    ///
    /// Bit-identical to [`EntrySnapshot::lookup_scan`] on every path: the
    /// hash structures store the first matching entry in priority order,
    /// and any key or entry shape outside a structure's contract (short
    /// key slices, unvalidated const-entry patterns) falls back to the
    /// scan itself.
    #[inline]
    pub fn lookup(&self, keys: &[u128]) -> Option<&'a RuntimeEntry> {
        self.find(keys).map(|e| &**e)
    }

    fn find(&self, keys: &[u128]) -> Option<&'a Arc<RuntimeEntry>> {
        let entries: &'a [Slot] = self.entries;
        match self.index {
            // The scan zips patterns against keys and a shorter key slice
            // vacuously matches the leftover patterns, so the hash paths
            // only engage once every stored pattern has a key to check.
            LookupIndex::ExactOne(map) => match keys.first() {
                Some(k) => map.get(k).map(|w| &w.entry),
                None => self.scan(keys),
            },
            LookupIndex::Lpm(levels) => match keys.first() {
                Some(k) => levels.iter().find_map(|level| match &level.hash {
                    Some((mask, map)) => map.get(&(k & mask)).map(|w| &w.entry),
                    None => priority_run(entries, level.priority)
                        .1
                        .iter()
                        .find(|s| s.entry.patterns[0].matches(*k))
                        .map(|s| &s.entry),
                }),
                None => self.scan(keys),
            },
            LookupIndex::Tuples { key_count, groups } => {
                let Some(keys) = keys.get(..*key_count) else {
                    return self.scan(keys);
                };
                let mut best: Option<&'a Winner> = None;
                let mut tied = false;
                for group in groups {
                    if best.is_some_and(|b| group.max_priority < b.entry.priority) {
                        continue;
                    }
                    let Some(w) = group.get(keys) else { continue };
                    match best.map(|b| w.entry.priority.cmp(&b.entry.priority)) {
                        None | Some(Ordering::Greater) => {
                            best = Some(w);
                            tied = false;
                        }
                        Some(Ordering::Equal) => tied = true,
                        Some(Ordering::Less) => {}
                    }
                }
                match best {
                    // Equal priorities in two groups: install order
                    // decides, and only the list knows it.
                    Some(w) if tied => first_match(priority_run(entries, w.entry.priority).1, keys),
                    best => best.map(|w| &w.entry),
                }
            }
            LookupIndex::Scan => self.scan(keys),
        }
    }

    /// The seed scan: the first entry of the whole list that matches.
    fn scan(&self, keys: &[u128]) -> Option<&'a Arc<RuntimeEntry>> {
        first_match(self.entries, keys)
    }
}

/// The first of `slots` whose entry matches `keys`.
fn first_match<'a>(slots: &'a [Slot], keys: &[u128]) -> Option<&'a Arc<RuntimeEntry>> {
    slots
        .iter()
        .map(|s| &s.entry)
        .find(|e| entry_matches(e, keys))
}

/// Runtime state of one table: the current [`EntrySnapshot`] plus the
/// configured capacity.
///
/// All mutation goes through `&self` (the snapshot pointer sits behind a
/// mutex that only the control plane ever contends on): the packet path
/// never locks per lookup, it pins the current snapshot once via
/// [`TableState::snapshot`] and works off that. `snapshot` is the only
/// thing that hands out pins — the scalar readers (`epoch`, `len`,
/// `is_empty`) read under the lock instead, because a pin that outlives
/// the lock, however briefly, makes a concurrent publication copy the
/// table. Lookup statistics live in [`TableStats`], owned by the caller.
/// `Clone` pins the current snapshot for the clone (a later mutation on
/// either copy takes its own copy first) and gives the clone its own
/// publication cell.
#[derive(Debug)]
pub struct TableState {
    /// Currently published snapshot; edited in place while unpinned,
    /// copied once before the edit otherwise.
    snapshot: Mutex<Arc<EntrySnapshot>>,
    /// Capacity from the IR (may be further limited by a backend).
    capacity: u64,
    /// Declared key signature: picks the [`LookupIndex`] structure.
    signature: KeySignature,
    /// Declared key count (the tuple length of a tuple-space index).
    key_count: usize,
}

impl Clone for TableState {
    fn clone(&self) -> Self {
        TableState {
            snapshot: Mutex::new(self.snapshot()),
            capacity: self.capacity,
            signature: self.signature,
            key_count: self.key_count,
        }
    }
}

impl TableState {
    /// Build the initial state for a table: const entries pre-installed.
    pub fn new(table: &ir::TableIr) -> Self {
        Self::with_capacity(table, table.size)
    }

    /// Build with an explicit capacity override (backends quantize/truncate).
    pub fn with_capacity(table: &ir::TableIr, capacity: u64) -> Self {
        let entries = table.const_entries.iter().map(|e| {
            Arc::new(RuntimeEntry {
                patterns: e.patterns.clone(),
                action: e.action.clone(),
                priority: e.priority,
            })
        });
        let signature = table.key_signature();
        let key_count = table.keys.len();
        TableState {
            snapshot: Mutex::new(Arc::new(EntrySnapshot::publish(
                0, entries, signature, key_count,
            ))),
            capacity,
            signature,
            key_count,
        }
    }

    fn current(&self) -> MutexGuard<'_, Arc<EntrySnapshot>> {
        self.snapshot.lock().expect("table snapshot poisoned")
    }

    /// Pin the currently published snapshot. The returned `Arc` stays
    /// valid (and unchanged) however many epochs the control plane
    /// publishes afterwards; the first of those publications made while
    /// the pin is held pays for one copy of the snapshot. The packet path
    /// holds its pins for one batch; a checkpoint or a device clone holds
    /// its pins until it is dropped.
    pub fn snapshot(&self) -> Arc<EntrySnapshot> {
        self.current().clone()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Number of installed entries (in the current snapshot).
    pub fn len(&self) -> usize {
        self.current().len()
    }

    /// True if no entries are installed (in the current snapshot).
    pub fn is_empty(&self) -> bool {
        self.current().is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Install an entry, validating against the table's IR declaration,
    /// and publish the successor snapshot. Returns the new epoch.
    pub fn install(
        &self,
        table: &ir::TableIr,
        actions: &[ir::ActionIr],
        entry: RuntimeEntry,
    ) -> Result<u64, TableError> {
        if entry.patterns.len() != table.keys.len() {
            return Err(TableError::KeyCountMismatch {
                got: entry.patterns.len(),
                want: table.keys.len(),
            });
        }
        if !table.actions.contains(&entry.action.action) {
            return Err(TableError::ActionNotPermitted);
        }
        let action = &actions[entry.action.action];
        if entry.action.args.len() != action.params.len() {
            return Err(TableError::BadActionArgs {
                got: entry.action.args.len(),
                want: action.params.len(),
            });
        }
        for (pattern, key) in entry.patterns.iter().zip(&table.keys) {
            let ok = match key.kind {
                MatchKind::Exact => matches!(pattern, IrPattern::Value(_)),
                MatchKind::Lpm => matches!(
                    pattern,
                    IrPattern::Value(_) | IrPattern::Mask { .. } | IrPattern::Any
                ),
                MatchKind::Ternary => true,
                MatchKind::Range => !matches!(pattern, IrPattern::Mask { .. }),
            };
            if !ok {
                return Err(TableError::BadPattern);
            }
        }
        let mut current = self.current();
        if current.entries.len() as u64 >= self.capacity {
            return Err(TableError::Full {
                capacity: self.capacity,
            });
        }
        // In place unless pinned; pins are only handed out under the
        // lock held here, so "unpinned" cannot change under the edit.
        let successor = Arc::make_mut(&mut current);
        successor.insert(Arc::new(entry));
        successor.epoch += 1;
        Ok(successor.epoch)
    }

    /// Remove the first installed entry with exactly these patterns and
    /// priority; publishes a successor snapshot and returns its epoch, or
    /// `None` if no such entry exists (no epoch is spent, no copy made).
    pub fn remove(&self, patterns: &[IrPattern], priority: i32) -> Option<u64> {
        let mut current = self.current();
        let pos = current.position_of(patterns, priority)?;
        let successor = Arc::make_mut(&mut current);
        successor.remove(pos, self.signature, self.key_count);
        successor.epoch += 1;
        Some(successor.epoch)
    }

    /// Remove all installed entries (const entries included) and publish
    /// the empty successor snapshot. Returns the new epoch.
    pub fn clear(&self) -> u64 {
        let mut current = self.current();
        let epoch = current.epoch + 1;
        *current = Arc::new(EntrySnapshot::publish(
            epoch,
            [],
            self.signature,
            self.key_count,
        ));
        epoch
    }

    /// Reinstate a previously pinned snapshot as the published state.
    ///
    /// Checkpoint/restore recovery rewinds a table to the exact epoch a
    /// checkpoint pinned: the `Arc` swap is O(1) and later publications
    /// resume counting from the restored epoch — copying first, the
    /// checkpoint still pins it — so a replayed churn schedule
    /// republishes the same epoch sequence it produced the first time.
    pub fn restore(&self, snapshot: Arc<EntrySnapshot>) {
        *self.current() = snapshot;
    }

    /// Look up against the *current* snapshot, through its index; the
    /// matched entry is returned **shared** (an [`EntryRef`] guard), not
    /// cloned.
    ///
    /// Convenience for control-plane introspection and tests; the packet
    /// path pins a snapshot once per batch instead and resolves it into a
    /// [`TableView`].
    pub fn lookup(&self, keys: &[u128]) -> Option<EntryRef> {
        let current = self.current();
        let entry = Arc::clone(current.view().find(keys)?);
        Some(EntryRef { entry })
    }
}

/// A matched table entry, shared with the snapshot it was found in — no
/// [`RuntimeEntry`] clone, and no pin on the snapshot either: the guard
/// keeps the one entry alive, not the table.
///
/// Dereferences to the entry, which stays as it was matched however many
/// publications the control plane lands afterwards.
#[derive(Debug, Clone)]
pub struct EntryRef {
    entry: Arc<RuntimeEntry>,
}

impl core::ops::Deref for EntryRef {
    type Target = RuntimeEntry;

    fn deref(&self) -> &RuntimeEntry {
        &self.entry
    }
}

/// Build an LPM pattern from a prefix value and length.
pub fn lpm_pattern(prefix: u128, prefix_len: u16, key_width: u16) -> IrPattern {
    if prefix_len == 0 {
        return IrPattern::Any;
    }
    let mask = ir::all_ones(key_width) & !(ir::all_ones(key_width) >> prefix_len.min(key_width));
    IrPattern::Mask {
        value: prefix & mask,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::ast::MatchKind;
    use netdebug_p4::ir::{ActionIr, IrExpr, TableIr, TableKey};

    fn table_ir(kind: MatchKind, size: u64) -> (TableIr, Vec<ActionIr>) {
        let actions = vec![
            ActionIr {
                name: "NoAction".into(),
                control: String::new(),
                params: vec![],
                ops: vec![],
            },
            ActionIr {
                name: "fwd".into(),
                control: "I".into(),
                params: vec![("port".into(), 9)],
                ops: vec![],
            },
        ];
        let table = TableIr {
            name: "t".into(),
            control: "I".into(),
            keys: vec![TableKey {
                expr: IrExpr::konst(0, 32),
                kind,
                width: 32,
            }],
            actions: vec![0, 1],
            default_action: ActionCall {
                action: 0,
                args: vec![],
            },
            size,
            const_entries: vec![],
        };
        (table, actions)
    }

    fn fwd_entry(patterns: Vec<IrPattern>, priority: i32) -> RuntimeEntry {
        RuntimeEntry {
            patterns,
            action: ActionCall {
                action: 1,
                args: vec![3],
            },
            priority,
        }
    }

    #[test]
    fn exact_lookup() {
        let (t, a) = table_ir(MatchKind::Exact, 4);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(42)], 0))
            .unwrap();
        let mut stats = TableStats::default();
        stats.record(s.lookup(&[42]).is_some());
        stats.record(s.lookup(&[43]).is_some());
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let (t, a) = table_ir(MatchKind::Lpm, 8);
        let s = TableState::new(&t);
        // 10.0.0.0/8 -> priority 8, 10.1.0.0/16 -> priority 16.
        let p8 = lpm_pattern(0x0A00_0000, 8, 32);
        let p16 = lpm_pattern(0x0A01_0000, 16, 32);
        s.install(
            &t,
            &a,
            RuntimeEntry {
                patterns: vec![p8],
                action: ActionCall {
                    action: 1,
                    args: vec![1],
                },
                priority: 8,
            },
        )
        .unwrap();
        s.install(
            &t,
            &a,
            RuntimeEntry {
                patterns: vec![p16],
                action: ActionCall {
                    action: 1,
                    args: vec![2],
                },
                priority: 16,
            },
        )
        .unwrap();
        // 10.1.2.3 matches both; /16 must win.
        let hit = s.lookup(&[0x0A01_0203]).unwrap();
        assert_eq!(hit.action.args, vec![2]);
        // 10.9.0.1 only matches /8.
        let hit = s.lookup(&[0x0A09_0001]).unwrap();
        assert_eq!(hit.action.args, vec![1]);
        // 11.0.0.1 matches nothing.
        assert!(s.lookup(&[0x0B00_0001]).is_none());
    }

    #[test]
    fn ternary_priority_order() {
        let (t, a) = table_ir(MatchKind::Ternary, 8);
        let s = TableState::new(&t);
        s.install(
            &t,
            &a,
            RuntimeEntry {
                patterns: vec![IrPattern::Any],
                action: ActionCall {
                    action: 1,
                    args: vec![9],
                },
                priority: 1,
            },
        )
        .unwrap();
        s.install(
            &t,
            &a,
            RuntimeEntry {
                patterns: vec![IrPattern::Mask {
                    value: 0x0800,
                    mask: 0xFF00,
                }],
                action: ActionCall {
                    action: 1,
                    args: vec![1],
                },
                priority: 10,
            },
        )
        .unwrap();
        assert_eq!(s.lookup(&[0x08AA]).unwrap().action.args, vec![1]);
        assert_eq!(s.lookup(&[0x1234]).unwrap().action.args, vec![9]);
    }

    #[test]
    fn capacity_enforced() {
        let (t, a) = table_ir(MatchKind::Exact, 2);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(1)], 0))
            .unwrap();
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(2)], 0))
            .unwrap();
        let err = s
            .install(&t, &a, fwd_entry(vec![IrPattern::Value(3)], 0))
            .unwrap_err();
        assert_eq!(err, TableError::Full { capacity: 2 });
    }

    #[test]
    fn validation_errors() {
        let (t, a) = table_ir(MatchKind::Exact, 8);
        let s = TableState::new(&t);
        // Wrong pattern count.
        assert!(matches!(
            s.install(
                &t,
                &a,
                fwd_entry(vec![IrPattern::Value(1), IrPattern::Value(2)], 0)
            ),
            Err(TableError::KeyCountMismatch { .. })
        ));
        // Range pattern on exact key.
        assert_eq!(
            s.install(
                &t,
                &a,
                fwd_entry(vec![IrPattern::Range { lo: 0, hi: 9 }], 0)
            ),
            Err(TableError::BadPattern)
        );
        // Wrong arg count.
        let bad = RuntimeEntry {
            patterns: vec![IrPattern::Value(5)],
            action: ActionCall {
                action: 1,
                args: vec![],
            },
            priority: 0,
        };
        assert!(matches!(
            s.install(&t, &a, bad),
            Err(TableError::BadActionArgs { got: 0, want: 1 })
        ));
    }

    #[test]
    fn lpm_pattern_builder() {
        match lpm_pattern(0x0A000000, 8, 32) {
            IrPattern::Mask { value, mask } => {
                assert_eq!(mask, 0xFF00_0000);
                assert_eq!(value, 0x0A00_0000);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(lpm_pattern(0, 0, 32), IrPattern::Any));
        match lpm_pattern(0xFFFF_FFFF, 32, 32) {
            IrPattern::Mask { mask, .. } => assert_eq!(mask, 0xFFFF_FFFF),
            other => panic!("{other:?}"),
        }
    }

    fn table_ir_keys(kinds: &[MatchKind], size: u64) -> (TableIr, Vec<ActionIr>) {
        let (mut table, actions) = table_ir(MatchKind::Exact, size);
        table.keys = kinds
            .iter()
            .map(|&kind| TableKey {
                expr: IrExpr::konst(0, 32),
                kind,
                width: 32,
            })
            .collect();
        (table, actions)
    }

    #[test]
    fn index_kind_follows_signature() {
        let (t, a) = table_ir(MatchKind::Exact, 8);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(1)], 0))
            .unwrap();
        assert!(matches!(&s.snapshot().index, LookupIndex::ExactOne(_)));

        let (t, a) = table_ir_keys(&[MatchKind::Exact, MatchKind::Exact], 8);
        let s = TableState::new(&t);
        s.install(
            &t,
            &a,
            fwd_entry(vec![IrPattern::Value(1), IrPattern::Value(2)], 0),
        )
        .unwrap();
        s.install(
            &t,
            &a,
            fwd_entry(vec![IrPattern::Value(3), IrPattern::Value(4)], 0),
        )
        .unwrap();
        // A multi-key exact table is one tuple group, every mask all ones.
        match &s.snapshot().index {
            LookupIndex::Tuples { key_count, groups } => {
                assert_eq!((*key_count, groups.len()), (2, 1));
                assert_eq!(groups[0].masks[..2], [u128::MAX; 2]);
                assert_eq!(groups[0].len, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(s.lookup(&[1, 2]).is_some());
        assert!(s.lookup(&[3, 4]).is_some());
        assert!(s.lookup(&[2, 1]).is_none());

        let (t, a) = table_ir(MatchKind::Lpm, 8);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![lpm_pattern(0x0A00_0000, 8, 32)], 8))
            .unwrap();
        assert!(matches!(&s.snapshot().index, LookupIndex::Lpm(_)));

        // Ternary and mixed-kind tables: tuple-space groups, one per
        // mask tuple, for as long as every entry is maskable. A range
        // pattern demotes the table to the scan; its departure refolds.
        let (t, a) = table_ir_keys(&[MatchKind::Ternary, MatchKind::Exact, MatchKind::Lpm], 8);
        let s = TableState::new(&t);
        let groups = |s: &TableState| match &s.snapshot().index {
            LookupIndex::Tuples { key_count, groups } => {
                assert_eq!(*key_count, 3);
                Some(groups.len())
            }
            LookupIndex::Scan => None,
            other => panic!("{other:?}"),
        };
        assert_eq!(groups(&s), Some(0));
        let masked = IrPattern::Mask {
            value: 0x0800,
            mask: 0xFF00,
        };
        for (first, third) in [
            (masked, IrPattern::Any),
            (IrPattern::Any, lpm_pattern(0x0A00_0000, 8, 32)),
            (IrPattern::Value(7), IrPattern::Any),
            (IrPattern::Value(8), IrPattern::Any),
        ] {
            s.install(
                &t,
                &a,
                fwd_entry(vec![first, IrPattern::Value(1), third], 0),
            )
            .unwrap();
        }
        assert_eq!(groups(&s), Some(3), "two value entries share a group");
        let range = vec![
            IrPattern::Range { lo: 1, hi: 9 },
            IrPattern::Value(1),
            IrPattern::Any,
        ];
        s.install(&t, &a, fwd_entry(range.clone(), 4)).unwrap();
        assert_eq!(groups(&s), None, "a range pattern has no mask");
        assert_eq!(s.lookup(&[5, 1, 0]).unwrap().priority, 4);
        s.remove(&range, 4).unwrap();
        assert_eq!(groups(&s), Some(3));
        s.remove(&[masked, IrPattern::Value(1), IrPattern::Any], 0)
            .unwrap();
        assert_eq!(groups(&s), Some(2), "an emptied group is dropped");

        // More keys than a group's inline masks hold: the scan, whatever
        // the match kinds.
        for kind in [MatchKind::Ternary, MatchKind::Exact] {
            let (t, _) = table_ir_keys(&[kind; MAX_TUPLE_KEYS + 1], 8);
            let s = TableState::new(&t);
            assert!(matches!(&s.snapshot().index, LookupIndex::Scan));
        }
    }

    /// A two-key ternary table with these `(patterns, priority)` entries;
    /// entry `i` forwards to port `i`.
    fn ternary_pairs(entries: &[([IrPattern; 2], i32)]) -> TableState {
        let (t, a) = table_ir_keys(&[MatchKind::Ternary, MatchKind::Ternary], 64);
        let s = TableState::new(&t);
        for (i, (patterns, priority)) in entries.iter().enumerate() {
            let mut entry = fwd_entry(patterns.to_vec(), *priority);
            entry.action.args = vec![i as u128];
            s.install(&t, &a, entry).unwrap();
        }
        s
    }

    #[test]
    fn equal_priority_across_two_groups_earlier_install_wins() {
        let low = IrPattern::Mask {
            value: 0x12,
            mask: 0xFF,
        };
        let high = IrPattern::Mask {
            value: 0x3400,
            mask: 0xFF00,
        };
        // Entries 0 and 1 sit in different groups, match the same keys
        // and tie on priority: the list's run decides, whichever group is
        // probed first. Entry 2 outranks both where it matches.
        for flip in [false, true] {
            let (first, second) = if flip { (high, low) } else { (low, high) };
            let s = ternary_pairs(&[
                ([first, IrPattern::Any], 5),
                ([second, IrPattern::Any], 5),
                ([IrPattern::Any, IrPattern::Value(9)], 6),
            ]);
            let snap = s.snapshot();
            assert!(matches!(&snap.index, LookupIndex::Tuples { groups, .. } if groups.len() == 3));
            assert_eq!(snap.lookup(&[0x3412, 0]).unwrap().action.args, vec![0]);
            assert_eq!(snap.lookup(&[0x3412, 9]).unwrap().action.args, vec![2]);
            assert_eq!(
                snap.lookup(&[0x3400, 0]).unwrap().action.args,
                [u128::from(!flip)]
            );
            for keys in [[0x3412, 0], [0x3412, 9], [0x3400, 0], [0x12, 9], [0, 0]] {
                assert_eq!(snap.lookup(&keys), snap.lookup_scan(&keys), "keys {keys:?}");
            }
            // The earlier one gone, the later one answers.
            s.remove(&[first, IrPattern::Any], 5).unwrap();
            assert_eq!(s.lookup(&[0x3412, 0]).unwrap().action.args, vec![1]);
        }
    }

    #[test]
    fn stray_value_bits_outside_the_mask_land_on_the_masked_twin() {
        let stray = IrPattern::Mask {
            value: 0xAB12,
            mask: 0x00FF,
        };
        let clean = IrPattern::Mask {
            value: 0x0012,
            mask: 0x00FF,
        };
        let s = ternary_pairs(&[
            ([stray, IrPattern::Value(1)], 3),
            ([clean, IrPattern::Value(1)], 3),
            ([clean, IrPattern::Value(1)], 7),
        ]);
        let keys_in_one_group = |s: &TableState| match &s.snapshot().index {
            LookupIndex::Tuples { groups, .. } => {
                assert_eq!(groups.len(), 1);
                groups[0].len
            }
            other => panic!("{other:?}"),
        };
        // One key, one winner, two shadowed behind it.
        assert_eq!(keys_in_one_group(&s), 1);
        assert_eq!(s.lookup(&[0xFF12, 1]).unwrap().action.args, vec![2]);
        // Each spelling is removable as itself, and the key passes on in
        // list order: the stray-bit entry was installed first.
        s.remove(&[clean, IrPattern::Value(1)], 7).unwrap();
        assert_eq!(s.lookup(&[0x12, 1]).unwrap().action.args, vec![0]);
        assert_eq!(s.remove(&[stray, IrPattern::Value(2)], 3), None);
        s.remove(&[stray, IrPattern::Value(1)], 3).unwrap();
        assert_eq!(s.lookup(&[0x12, 1]).unwrap().action.args, vec![1]);
        assert_eq!(keys_in_one_group(&s), 1);
        s.remove(&[clean, IrPattern::Value(1)], 3).unwrap();
        assert!(s.lookup(&[0x12, 1]).is_none());
        assert!(
            matches!(&s.snapshot().index, LookupIndex::Tuples { groups, .. } if groups.is_empty())
        );
    }

    #[test]
    fn short_key_slice_falls_back_to_the_scan() {
        // The zip lets a missing key match vacuously, which no group's
        // hash can express: fewer keys than the table declares scan.
        let s = ternary_pairs(&[
            ([IrPattern::Value(1), IrPattern::Value(2)], 1),
            ([IrPattern::Value(3), IrPattern::Any], 9),
        ]);
        let snap = s.snapshot();
        assert!(matches!(&snap.index, LookupIndex::Tuples { .. }));
        assert_eq!(snap.lookup(&[1]).unwrap().action.args, vec![0]);
        assert_eq!(snap.lookup(&[]).unwrap().action.args, vec![1]);
        assert!(snap.lookup(&[1, 3]).is_none());
        for keys in [&[][..], &[1], &[3], &[1, 2], &[1, 3], &[1, 2, 99]] {
            assert_eq!(snap.lookup(keys), snap.lookup_scan(keys), "keys {keys:?}");
        }
    }

    #[test]
    fn tie_break_is_earlier_install_wins() {
        // Pinned semantics: among equal priorities the earlier-installed
        // entry sits earlier in the sorted list and the scan takes the
        // first match — the compiled index must reproduce that. True for
        // every match kind; exercised here on exact (hash) and ternary
        // (scan) with two entries that both match the probed key.
        let (t, a) = table_ir(MatchKind::Exact, 8);
        let s = TableState::new(&t);
        s.install(
            &t,
            &a,
            RuntimeEntry {
                patterns: vec![IrPattern::Value(7)],
                action: ActionCall {
                    action: 1,
                    args: vec![111],
                },
                priority: 0,
            },
        )
        .unwrap();
        s.install(
            &t,
            &a,
            RuntimeEntry {
                patterns: vec![IrPattern::Value(7)],
                action: ActionCall {
                    action: 1,
                    args: vec![222],
                },
                priority: 0,
            },
        )
        .unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.lookup(&[7]).unwrap().action.args, vec![111]);
        assert_eq!(snap.lookup(&[7]), snap.lookup_scan(&[7]));
        // Removing the winner promotes the later duplicate.
        s.remove(&[IrPattern::Value(7)], 0).unwrap();
        assert_eq!(s.lookup(&[7]).unwrap().action.args, vec![222]);

        let (t, a) = table_ir(MatchKind::Ternary, 8);
        let s = TableState::new(&t);
        for args in [vec![1], vec![2]] {
            s.install(
                &t,
                &a,
                RuntimeEntry {
                    patterns: vec![IrPattern::Any],
                    action: ActionCall { action: 1, args },
                    priority: 5,
                },
            )
            .unwrap();
        }
        assert_eq!(s.lookup(&[42]).unwrap().action.args, vec![1]);
    }

    #[test]
    fn lpm_mixed_mask_level_falls_back_to_scan_semantics() {
        // Through the raw install API one priority level can carry mixed
        // masks; the bucket then keeps the scan and stays bit-identical.
        let (t, a) = table_ir(MatchKind::Lpm, 8);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![lpm_pattern(0x0A00_0000, 8, 32)], 3))
            .unwrap();
        s.install(&t, &a, fwd_entry(vec![lpm_pattern(0x0B0B_0000, 16, 32)], 3))
            .unwrap();
        s.install(&t, &a, fwd_entry(vec![IrPattern::Any], 1))
            .unwrap();
        let snap = s.snapshot();
        for key in [0x0A01_0203u128, 0x0B0B_0001, 0x0C00_0000, 0] {
            assert_eq!(
                snap.lookup(&[key]),
                snap.lookup_scan(&[key]),
                "key {key:#x}"
            );
        }
    }

    #[test]
    fn entry_ref_pins_its_snapshot() {
        let (t, a) = table_ir(MatchKind::Exact, 4);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(9)], 0))
            .unwrap();
        let hit = s.lookup(&[9]).expect("installed");
        assert_eq!(s.epoch(), 1);
        // Mutations underneath the guard never move the matched entry.
        s.clear();
        assert_eq!(hit.action.args, vec![3]);
        assert_eq!(hit.patterns, vec![IrPattern::Value(9)]);
        assert!(s.lookup(&[9]).is_none());
    }

    #[test]
    fn short_and_long_key_slices_match_scan() {
        // The scan zips patterns against keys (vacuous match on missing
        // keys); the indexed paths must agree even for malformed probes.
        let (t, a) = table_ir_keys(&[MatchKind::Exact, MatchKind::Exact], 8);
        let s = TableState::new(&t);
        s.install(
            &t,
            &a,
            fwd_entry(vec![IrPattern::Value(1), IrPattern::Value(2)], 0),
        )
        .unwrap();
        let snap = s.snapshot();
        for keys in [&[][..], &[1][..], &[1, 2][..], &[1, 2, 99][..], &[3, 2][..]] {
            assert_eq!(snap.lookup(keys), snap.lookup_scan(keys), "keys {keys:?}");
        }
    }

    #[test]
    fn epochs_advance_per_mutation() {
        let (t, a) = table_ir(MatchKind::Exact, 4);
        let s = TableState::new(&t);
        assert_eq!(s.epoch(), 0);
        let e1 = s
            .install(&t, &a, fwd_entry(vec![IrPattern::Value(1)], 0))
            .unwrap();
        assert_eq!(e1, 1);
        let e2 = s
            .install(&t, &a, fwd_entry(vec![IrPattern::Value(2)], 0))
            .unwrap();
        assert_eq!(e2, 2);
        // Removing a non-existent entry spends no epoch.
        assert_eq!(s.remove(&[IrPattern::Value(9)], 0), None);
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.remove(&[IrPattern::Value(1)], 0), Some(3));
        assert!(s.lookup(&[1]).is_none());
        assert!(s.lookup(&[2]).is_some());
        assert_eq!(s.clear(), 4);
        assert!(s.is_empty());
    }

    #[test]
    fn pinned_snapshot_survives_later_epochs() {
        let (t, a) = table_ir(MatchKind::Exact, 4);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(1)], 0))
            .unwrap();
        let pinned = s.snapshot();
        // Mutate underneath the pin: install, remove, clear.
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(2)], 0))
            .unwrap();
        s.clear();
        // The pin still reads the epoch-1 world, bit for bit.
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.len(), 1);
        assert!(pinned.lookup(&[1]).is_some());
        assert!(pinned.lookup(&[2]).is_none());
        // The live table reads the epoch-3 world.
        assert_eq!(s.epoch(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn clone_shares_snapshot_but_not_publications() {
        let (t, a) = table_ir(MatchKind::Exact, 4);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(1)], 0))
            .unwrap();
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.snapshot(), &c.snapshot()));
        // Publishing on the clone leaves the original untouched.
        c.install(&t, &a, fwd_entry(vec![IrPattern::Value(2)], 0))
            .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_table_rejects_atomically() {
        let (t, a) = table_ir(MatchKind::Exact, 1);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![IrPattern::Value(1)], 0))
            .unwrap();
        let before = s.epoch();
        let err = s
            .install(&t, &a, fwd_entry(vec![IrPattern::Value(2)], 0))
            .unwrap_err();
        assert_eq!(err, TableError::Full { capacity: 1 });
        // A rejected install publishes nothing.
        assert_eq!(s.epoch(), before);
    }

    /// Key kinds of the mixed-kind, multi-key shapes (6..): tuple-space
    /// tables of two to four keys.
    const MIXED: [&[MatchKind]; 3] = [
        &[MatchKind::Lpm, MatchKind::Ternary],
        &[MatchKind::Ternary, MatchKind::Exact, MatchKind::Lpm],
        &[
            MatchKind::Ternary,
            MatchKind::Ternary,
            MatchKind::Lpm,
            MatchKind::Exact,
        ],
    ];
    const SHAPES: u8 = 6 + MIXED.len() as u8;

    /// A table of one of [`SHAPES`] shapes, with the const entries that
    /// make shapes 4 and 5 start life demoted: (4) a masked entry in an
    /// exact table, (5) a range entry (mixed level) and a two-pattern
    /// entry (whole index on the scan) in an LPM table.
    fn shaped_table(shape: u8) -> (TableIr, Vec<ActionIr>) {
        let odd = |patterns: Vec<IrPattern>, priority: i32| ir::IrEntry {
            patterns,
            action: ActionCall {
                action: 1,
                args: vec![77],
            },
            priority,
        };
        let (kinds, consts): (&[MatchKind], _) = match shape {
            0 => (&[MatchKind::Exact], vec![]),
            1 => (&[MatchKind::Exact, MatchKind::Exact], vec![]),
            2 => (&[MatchKind::Lpm], vec![]),
            3 => (&[MatchKind::Ternary], vec![]),
            4 => {
                let masked = IrPattern::Mask {
                    value: 3,
                    mask: 0xF,
                };
                (&[MatchKind::Exact], vec![odd(vec![masked], 1)])
            }
            6.. => (MIXED[usize::from(shape) - 6], vec![]),
            _ => (
                &[MatchKind::Lpm],
                vec![
                    odd(vec![IrPattern::Range { lo: 5, hi: 9 }], 16),
                    odd(vec![IrPattern::Any, IrPattern::Any], 2),
                ],
            ),
        };
        let (mut table, actions) = table_ir_keys(kinds, 4096);
        table.const_entries = consts;
        (table, actions)
    }

    /// One installable entry for `shape`, from small domains so that
    /// duplicate keys meet at equal and at higher priority — for the
    /// mixed shapes inside one mask tuple's group and across groups.
    fn shaped_entry(shape: u8, sel: u8, x: u32, y: u32, p: u8) -> RuntimeEntry {
        let small = IrPattern::Value(u128::from(x % 12));
        let (patterns, priority) = match shape {
            6.. => {
                // Per key: two bits of `y` pick the mask, two of `x` the
                // value (stray bits outside the mask included). Now and
                // then a ternary key takes a range, which demotes the
                // table until that entry is removed again.
                const MASKS: [u128; 4] = [0, 0x1, 0x6, u128::MAX];
                let kinds = MIXED[usize::from(shape) - 6];
                let patterns = kinds.iter().enumerate().map(|(i, kind)| {
                    let value = u128::from(x >> (2 * i) & 3);
                    match (kind, MASKS[(y >> (2 * i) & 3) as usize]) {
                        (MatchKind::Exact, _) => IrPattern::Value(value % 2),
                        (MatchKind::Ternary, _) if sel == 8 && p >= 4 => IrPattern::Range {
                            lo: value,
                            hi: value + 1,
                        },
                        (_, 0) if x & 0x100 == 0 => IrPattern::Any,
                        (_, u128::MAX) if x & 0x200 == 0 => IrPattern::Value(value),
                        (_, mask) => IrPattern::Mask { value, mask },
                    }
                });
                (patterns.collect(), i32::from(p % 3))
            }
            0 | 4 => (vec![small], i32::from(p % 3)),
            1 => (
                vec![small, IrPattern::Value(u128::from(y % 3))],
                i32::from(p % 3),
            ),
            2 | 5 => {
                let len = (y % 5) as u16 * 8;
                let pattern =
                    lpm_pattern(u128::from(x % 4) << 28 | u128::from(x % 3) << 8, len, 32);
                // Mostly the `install_lpm` convention; sometimes a raw
                // priority, which mixes masks within one level.
                let priority = if sel.is_multiple_of(3) {
                    i32::from(p % 3) * 8
                } else {
                    i32::from(len)
                };
                (vec![pattern], priority)
            }
            _ => {
                let pattern = match sel % 3 {
                    0 => small,
                    1 => IrPattern::Mask {
                        value: u128::from(x % 12),
                        mask: u128::from(y % 4) * 5,
                    },
                    _ => IrPattern::Any,
                };
                (vec![pattern], i32::from(p % 3))
            }
        };
        RuntimeEntry {
            patterns,
            action: ActionCall {
                action: 1,
                args: vec![u128::from(x)],
            },
            priority,
        }
    }

    proptest::proptest! {
        // 256 cases per table shape.
        #![proptest_config(proptest::ProptestConfig::with_cases(256 * SHAPES as u32))]

        /// The incrementally maintained snapshot equals the from-scratch
        /// fold over the same entries after every step of a random
        /// `install`/`remove`/`clear` sequence — list, index and epoch,
        /// whether the step edited in place or copied under a pin — and
        /// every pin taken along the way keeps equalling a value copy
        /// built when it was taken. Lookups are checked against a scan
        /// written over the test's own model.
        #[test]
        fn incremental_snapshot_equals_the_from_scratch_fold(
            shape in 0u8..SHAPES,
            ops in proptest::collection::vec(
                (0u8..16, proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>(), 0u8..6),
                1..64,
            ),
            probes in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..12),
        ) {
            use proptest::prelude::*;
            let (t, a) = shaped_table(shape);
            let s = TableState::new(&t);
            // The model: entries in install order. List order is its
            // stable sort by descending priority.
            let mut installed: Vec<RuntimeEntry> = t
                .const_entries
                .iter()
                .map(|e| RuntimeEntry {
                    patterns: e.patterns.clone(),
                    action: e.action.clone(),
                    priority: e.priority,
                })
                .collect();
            let mut epoch = 0;
            let mut pins: Vec<(Arc<EntrySnapshot>, EntrySnapshot)> = Vec::new();
            for &(sel, x, y, p) in &ops {
                match sel {
                    0..=8 => {
                        let entry = shaped_entry(shape, sel, x, y, p);
                        epoch += 1;
                        prop_assert_eq!(s.install(&t, &a, entry.clone()), Ok(epoch));
                        installed.push(entry);
                    }
                    9..=12 if !installed.is_empty() => {
                        // Mostly a resident entry (const ones included),
                        // sometimes one that is absent.
                        let mut victim = installed[x as usize % installed.len()].clone();
                        if sel == 12 {
                            victim.priority += 1;
                        }
                        let at = installed.iter().position(|e| {
                            e.priority == victim.priority && e.patterns == victim.patterns
                        });
                        let removed = s.remove(&victim.patterns, victim.priority);
                        match at {
                            Some(at) => {
                                epoch += 1;
                                prop_assert_eq!(removed, Some(epoch));
                                installed.remove(at);
                            }
                            None => prop_assert_eq!(removed, None),
                        }
                    }
                    13 if x % 4 == 0 => {
                        epoch += 1;
                        prop_assert_eq!(s.clear(), epoch);
                        installed.clear();
                    }
                    14 if !pins.is_empty() => {
                        pins.remove(x as usize % pins.len());
                    }
                    _ => {}
                }
                let oracle = EntrySnapshot::publish(
                    epoch,
                    installed.iter().cloned().map(Arc::new),
                    s.signature,
                    s.key_count,
                );
                prop_assert_eq!(&**s.current(), &oracle, "after {:?}", (sel, x, y, p));
                if sel == 15 || y % 7 == 0 {
                    pins.push((s.snapshot(), oracle));
                }
                for (pin, copy) in &pins {
                    prop_assert_eq!(&**pin, copy, "a pin moved");
                }

                let mut sorted: Vec<&RuntimeEntry> = installed.iter().collect();
                sorted.sort_by_key(|e| core::cmp::Reverse(e.priority));
                let current = s.snapshot();
                prop_assert_eq!(current.entries().collect::<Vec<_>>(), sorted.clone());
                let keys = probes.iter().map(|k| u128::from(*k)).chain(0..12);
                for k in keys {
                    // Every prefix of a four-key probe: the declared
                    // count, more, and fewer (the zip's vacuous match).
                    let full = [k % 8, 1, k >> 3 & 3, k >> 5 & 1];
                    for keys in [&[k, 1][..], &[k], &[], &full, &full[..3], &full[..2]] {
                        let want = sorted
                            .iter()
                            .find(|e| e.patterns.iter().zip(keys).all(|(p, k)| p.matches(*k)));
                        prop_assert_eq!(current.lookup(keys), want.copied(), "keys {:?}", keys);
                        prop_assert_eq!(current.lookup_scan(keys), want.copied());
                        let live = s.lookup(keys);
                        prop_assert_eq!(live.as_deref(), want.copied());
                    }
                }
            }
        }
    }
}
