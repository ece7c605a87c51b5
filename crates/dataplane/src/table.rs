//! Runtime match-action table state, published as **epoch snapshots**
//! that carry a **compiled lookup index**.
//!
//! Tables hold [`RuntimeEntry`]s installed either at compile time (const
//! entries) or through the control-plane API. Lookup is match-kind aware:
//! exact tables need full equality, LPM prefers the longest prefix, and
//! ternary/range tables resolve by explicit priority. A single sorted
//! entry list *defines* all three — the seed semantics is "scan the
//! priority-sorted list, first full match wins" — but scanning is O(n)
//! per apply, so publication is also the compile point: each snapshot
//! carries a [`LookupIndex`] shaped by the table's
//! [`netdebug_p4::ir::KeySignature`], the way real targets compile match
//! kinds into hardware memories (exact → hash unit, LPM → per-prefix-length
//! buckets, ternary → priority TCAM order). The index is built once per
//! publication and answers exactly what the scan would — bit-identical by
//! construction (and pinned by property tests), falling back to the scan
//! for anything it cannot prove equivalent.
//!
//! The entry list itself is **immutable once published**: a [`TableState`]
//! holds an [`Arc`]`<`[`EntrySnapshot`]`>` and every control-plane
//! mutation (`install`/`remove`/`clear`) builds a fresh entry list plus
//! its index and swaps the `Arc` atomically, bumping the snapshot's
//! epoch. Readers pin a snapshot once (per packet on the single-packet
//! path, per batch on the batch paths) and keep reading it no matter what
//! the control plane does concurrently — which is what lets installs land
//! *mid-batch* without pausing or locking against the packet path. The
//! batch paths flatten the pins further into [`TableView`]s — direct
//! borrows of the index and entry list — so a
//! table apply costs one slice index, not an `Arc` dereference.

use netdebug_p4::ast::MatchKind;
use netdebug_p4::ir::{self, ActionCall, IrPattern, KeySignature};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

/// A multiply-rotate hasher in the fxhash family: a few cycles per key
/// word instead of SipHash's DoS-resistant but ~20 ns setup. Table keys
/// here are attacker-independent (they come from the program's own key
/// expressions over already-parsed packets, and the index is rebuilt per
/// publication), so the fast non-cryptographic hash is the right
/// trade-off — it is what keeps a hash probe competitive with scanning
/// even a one-entry table.
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

/// The hash map flavour every [`LookupIndex`] uses.
type FxMap<K> = HashMap<K, usize, BuildHasherDefault<FxHasher>>;

/// The one canonical match predicate of the seed scan: patterns zipped
/// against keys, missing keys matching vacuously. Every scan flavour —
/// [`EntrySnapshot::lookup_scan`], [`TableView`]'s fallbacks — and the
/// index compiler's equivalence contract refer to this single function,
/// so the semantics cannot drift between copies.
#[inline]
fn entry_matches(e: &RuntimeEntry, keys: &[u128]) -> bool {
    e.patterns.iter().zip(keys).all(|(p, k)| p.matches(*k))
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

/// One priority level of a compiled LPM index: a contiguous run of the
/// sorted entry list, optionally accelerated by a uniform-mask hash.
///
/// `install_lpm`-shaped entries give every entry of a priority level the
/// same mask (the prefix length *is* the priority), so the whole level
/// resolves with one `key & mask` hash probe. Levels whose entries carry
/// mixed masks (possible through the raw `install` API) keep the scan —
/// the index never guesses.
#[derive(Debug, Clone, PartialEq)]
pub struct LpmBucket {
    /// Start of the level's run in the sorted entry list.
    start: usize,
    /// One past the end of the run.
    end: usize,
    /// `(mask, masked value → first matching entry)` when every entry in
    /// the run shares `mask`; `None` keeps the per-level scan.
    hash: Option<(u128, FxMap<u128>)>,
}

/// The lookup structure compiled into an [`EntrySnapshot`] at publication.
///
/// Chosen per table from the [`KeySignature`] of its declared keys, then
/// *verified* against the actual entries — an entry shape the structure
/// cannot represent exactly (e.g. a masked const entry in an exact table)
/// demotes the snapshot to [`LookupIndex::Scan`], so every variant answers
/// bit-identically to the seed priority-ordered linear scan.
#[derive(Debug, Clone, PartialEq)]
pub enum LookupIndex {
    /// Single exact key: one hash probe on the key value.
    ExactOne(FxMap<u128>),
    /// Multi-key all-exact table: one hash probe on the packed key tuple.
    ExactTuple {
        /// Declared key count (every stored tuple has this length).
        tuple_len: usize,
        /// Packed key tuple → first matching entry in priority order.
        map: FxMap<Vec<u128>>,
    },
    /// Single-key LPM table: priority-descending buckets, probed
    /// longest-prefix-first.
    Lpm(Vec<LpmBucket>),
    /// General fallback: the seed priority-ordered scan over the entries.
    Scan,
}

impl LookupIndex {
    /// Compile the index for a freshly published entry list (sorted by
    /// descending priority). Falls back to [`LookupIndex::Scan`] whenever
    /// the entries do not fit the signature's structure exactly.
    fn build(signature: KeySignature, key_count: usize, entries: &[RuntimeEntry]) -> LookupIndex {
        match signature {
            KeySignature::AllExact => Self::build_exact(key_count, entries),
            KeySignature::SingleLpm => Self::build_lpm(entries),
            KeySignature::Generic => LookupIndex::Scan,
        }
    }

    fn build_exact(key_count: usize, entries: &[RuntimeEntry]) -> LookupIndex {
        let all_values = entries.iter().all(|e| {
            e.patterns.len() == key_count
                && e.patterns.iter().all(|p| matches!(p, IrPattern::Value(_)))
        });
        if !all_values {
            // Entry shapes the hash cannot represent (only reachable via
            // unvalidated const entries): keep the scan, stay exact.
            return LookupIndex::Scan;
        }
        let value = |p: &IrPattern| match *p {
            IrPattern::Value(v) => v,
            _ => unreachable!("checked all-values above"),
        };
        if key_count == 1 {
            let mut map = FxMap::with_capacity_and_hasher(entries.len(), Default::default());
            for (i, e) in entries.iter().enumerate() {
                // First entry in priority order wins, exactly as the scan
                // resolves duplicate key tuples.
                map.entry(value(&e.patterns[0])).or_insert(i);
            }
            LookupIndex::ExactOne(map)
        } else {
            let mut map = FxMap::with_capacity_and_hasher(entries.len(), Default::default());
            for (i, e) in entries.iter().enumerate() {
                let tuple: Vec<u128> = e.patterns.iter().map(value).collect();
                map.entry(tuple).or_insert(i);
            }
            LookupIndex::ExactTuple {
                tuple_len: key_count,
                map,
            }
        }
    }

    fn build_lpm(entries: &[RuntimeEntry]) -> LookupIndex {
        if entries.iter().any(|e| e.patterns.len() != 1) {
            return LookupIndex::Scan;
        }
        // The maskable form of a single-key pattern: `key & mask == value`.
        let maskable = |p: &IrPattern| match *p {
            IrPattern::Value(v) => Some((u128::MAX, v)),
            IrPattern::Mask { value, mask } => Some((mask, value & mask)),
            IrPattern::Any => Some((0, 0)),
            IrPattern::Range { .. } => None,
        };
        let mut buckets: Vec<LpmBucket> = Vec::new();
        let mut start = 0;
        while start < entries.len() {
            let priority = entries[start].priority;
            let mut end = start + 1;
            while end < entries.len() && entries[end].priority == priority {
                end += 1;
            }
            // One hash per level if (and only if) every entry of the level
            // shares one mask; a mixed level keeps its scan run.
            let level = &entries[start..end];
            let hash = maskable(&level[0].patterns[0])
                .filter(|&(mask, _)| {
                    level
                        .iter()
                        .all(|e| matches!(maskable(&e.patterns[0]), Some((m, _)) if m == mask))
                })
                .map(|(mask, _)| {
                    let mut map = FxMap::with_capacity_and_hasher(level.len(), Default::default());
                    for (i, e) in level.iter().enumerate() {
                        let (_, v) = maskable(&e.patterns[0]).expect("filtered maskable");
                        map.entry(v).or_insert(start + i);
                    }
                    (mask, map)
                });
            buckets.push(LpmBucket { start, end, hash });
            start = end;
        }
        LookupIndex::Lpm(buckets)
    }
}

/// One immutable, epoch-stamped published entry list plus its compiled
/// [`LookupIndex`].
///
/// Snapshots are never mutated after publication: the packet path pins one
/// with an [`Arc`] clone and reads it lock-free for as long as it likes,
/// while the control plane publishes successors through
/// [`TableState::install`]/[`TableState::remove`]/[`TableState::clear`].
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySnapshot {
    /// Publication sequence number: 0 for the const-entry snapshot, +1 per
    /// control-plane mutation.
    epoch: u64,
    /// Entries sorted by descending priority.
    entries: Vec<RuntimeEntry>,
    /// Lookup structure compiled from the entries at publication.
    index: LookupIndex,
}

impl EntrySnapshot {
    /// Build a published snapshot: sort invariant already established by
    /// the caller, index compiled here (the single compile point).
    fn publish(epoch: u64, entries: Vec<RuntimeEntry>, sig: KeySignature, keys: usize) -> Self {
        let index = LookupIndex::build(sig, keys, &entries);
        EntrySnapshot {
            epoch,
            entries,
            index,
        }
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

    /// Look up the given key values through the compiled index; returns
    /// the matched entry.
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
        self.entries.iter().find(|e| entry_matches(e, keys))
    }

    /// The compiled lookup structure.
    pub fn index(&self) -> &LookupIndex {
        &self.index
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
        self.entries.iter()
    }
}

/// A per-batch resolved view of one pinned table: the snapshot's compiled
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
    entries: &'a [RuntimeEntry],
}

impl<'a> TableView<'a> {
    /// Look up the given key values; returns the matched entry.
    ///
    /// Bit-identical to [`EntrySnapshot::lookup_scan`] on every path: the
    /// hash/bucket structures store the first matching entry in priority
    /// order, and any key or entry shape outside a structure's contract
    /// (short key slices, unvalidated const-entry patterns) falls back to
    /// the scan itself.
    pub fn lookup(&self, keys: &[u128]) -> Option<&'a RuntimeEntry> {
        let entries: &'a [RuntimeEntry] = self.entries;
        match self.index {
            // The scan zips patterns against keys and a shorter key slice
            // vacuously matches the leftover patterns, so the hash paths
            // only engage once every stored pattern has a key to check.
            LookupIndex::ExactOne(map) => match keys.first() {
                Some(k) => map.get(k).map(|&i| &entries[i]),
                None => self.scan(keys),
            },
            LookupIndex::ExactTuple { tuple_len, map } => {
                if keys.len() >= *tuple_len {
                    map.get(&keys[..*tuple_len]).map(|&i| &entries[i])
                } else {
                    self.scan(keys)
                }
            }
            LookupIndex::Lpm(buckets) => match keys.first() {
                Some(k) => buckets.iter().find_map(|b| match &b.hash {
                    Some((mask, map)) => map.get(&(k & mask)).map(|&i| &entries[i]),
                    None => entries[b.start..b.end]
                        .iter()
                        .find(|e| e.patterns[0].matches(*k)),
                }),
                None => self.scan(keys),
            },
            LookupIndex::Scan => self.scan(keys),
        }
    }

    /// Position of the matched entry in the priority-sorted list —
    /// cold-path variant of [`TableView::lookup`] used by [`EntryRef`].
    /// The plain position scan is correct because the index answers
    /// exactly what the scan answers (the first match in priority order).
    fn lookup_at(&self, keys: &[u128]) -> Option<usize> {
        self.entries.iter().position(|e| entry_matches(e, keys))
    }

    /// The seed scan, returning the matched entry directly.
    fn scan(&self, keys: &[u128]) -> Option<&'a RuntimeEntry> {
        self.entries.iter().find(|e| entry_matches(e, keys))
    }
}

/// Runtime state of one table: the current [`EntrySnapshot`] plus the
/// configured capacity.
///
/// All mutation goes through `&self` (the snapshot pointer sits behind a
/// mutex that only the control plane ever contends on): the packet path
/// never locks per lookup, it pins the current snapshot once via
/// [`TableState::snapshot`] and works off that. Lookup statistics live in
/// [`TableStats`], owned by the caller. `Clone` shares the current
/// snapshot (snapshots are immutable — a later mutation on either copy
/// publishes a fresh one) but gives the clone its own publication cell.
#[derive(Debug)]
pub struct TableState {
    /// Currently published snapshot; swapped whole on every mutation.
    snapshot: Mutex<Arc<EntrySnapshot>>,
    /// Capacity from the IR (may be further limited by a backend).
    capacity: u64,
    /// Declared key signature: picks the [`LookupIndex`] structure every
    /// publication compiles.
    signature: KeySignature,
    /// Declared key count (tuple length of the exact-hash index).
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
        let mut entries: Vec<RuntimeEntry> = table
            .const_entries
            .iter()
            .map(|e| RuntimeEntry {
                patterns: e.patterns.clone(),
                action: e.action.clone(),
                priority: e.priority,
            })
            .collect();
        entries.sort_by_key(|e| core::cmp::Reverse(e.priority));
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

    /// The key signature the table's lookup indexes compile from.
    pub fn key_signature(&self) -> KeySignature {
        self.signature
    }

    /// Pin the currently published snapshot. The returned `Arc` stays
    /// valid (and unchanged) however many epochs the control plane
    /// publishes afterwards.
    pub fn snapshot(&self) -> Arc<EntrySnapshot> {
        self.snapshot
            .lock()
            .expect("table snapshot poisoned")
            .clone()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Number of installed entries (in the current snapshot).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True if no entries are installed (in the current snapshot).
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
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
        let mut current = self.snapshot.lock().expect("table snapshot poisoned");
        if current.entries.len() as u64 >= self.capacity {
            return Err(TableError::Full {
                capacity: self.capacity,
            });
        }
        let mut entries = current.entries.clone();
        let pos = entries.partition_point(|e| e.priority >= entry.priority);
        entries.insert(pos, entry);
        let epoch = current.epoch + 1;
        *current = Arc::new(EntrySnapshot::publish(
            epoch,
            entries,
            self.signature,
            self.key_count,
        ));
        Ok(epoch)
    }

    /// Remove the first installed entry with exactly these patterns and
    /// priority; publishes a successor snapshot and returns its epoch, or
    /// `None` if no such entry exists (no epoch is spent).
    pub fn remove(&self, patterns: &[IrPattern], priority: i32) -> Option<u64> {
        let mut current = self.snapshot.lock().expect("table snapshot poisoned");
        let pos = current
            .entries
            .iter()
            .position(|e| e.priority == priority && e.patterns == patterns)?;
        let mut entries = current.entries.clone();
        entries.remove(pos);
        let epoch = current.epoch + 1;
        *current = Arc::new(EntrySnapshot::publish(
            epoch,
            entries,
            self.signature,
            self.key_count,
        ));
        Some(epoch)
    }

    /// Remove all installed entries (const entries included) and publish
    /// the empty successor snapshot. Returns the new epoch.
    pub fn clear(&self) -> u64 {
        let mut current = self.snapshot.lock().expect("table snapshot poisoned");
        let epoch = current.epoch + 1;
        *current = Arc::new(EntrySnapshot::publish(
            epoch,
            Vec::new(),
            self.signature,
            self.key_count,
        ));
        epoch
    }

    /// Reinstate a previously pinned snapshot as the published state.
    ///
    /// Checkpoint/restore recovery rewinds a table to the exact epoch a
    /// checkpoint pinned: the `Arc` swap is O(1) and later publications
    /// resume counting from the restored epoch, so a replayed churn
    /// schedule republishes the same epoch sequence it produced the
    /// first time.
    pub fn restore(&self, snapshot: Arc<EntrySnapshot>) {
        let mut current = self.snapshot.lock().expect("table snapshot poisoned");
        *current = snapshot;
    }

    /// Look up against the *current* snapshot; the matched entry is
    /// returned **by reference through the pinned snapshot** (an
    /// [`EntryRef`] guard), not cloned.
    ///
    /// Convenience for control-plane introspection and tests; the packet
    /// path pins a snapshot once per batch instead and resolves it into a
    /// [`TableView`].
    pub fn lookup(&self, keys: &[u128]) -> Option<EntryRef> {
        let snapshot = self.snapshot();
        let index = snapshot.view().lookup_at(keys)?;
        Some(EntryRef { snapshot, index })
    }
}

/// A matched table entry, held alive through the pinned [`EntrySnapshot`]
/// it lives in — no [`RuntimeEntry`] clone.
///
/// Dereferences to the entry; the pin keeps reading the same epoch however
/// many publications the control plane lands afterwards.
#[derive(Debug, Clone)]
pub struct EntryRef {
    snapshot: Arc<EntrySnapshot>,
    index: usize,
}

impl EntryRef {
    /// The epoch of the snapshot the match came from.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }
}

impl core::ops::Deref for EntryRef {
    type Target = RuntimeEntry;

    fn deref(&self) -> &RuntimeEntry {
        &self.snapshot.entries[self.index]
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
        assert!(matches!(s.snapshot().index(), LookupIndex::ExactOne(_)));

        let (t, a) = table_ir_keys(&[MatchKind::Exact, MatchKind::Exact], 8);
        let s = TableState::new(&t);
        s.install(
            &t,
            &a,
            fwd_entry(vec![IrPattern::Value(1), IrPattern::Value(2)], 0),
        )
        .unwrap();
        assert!(matches!(
            s.snapshot().index(),
            LookupIndex::ExactTuple { tuple_len: 2, .. }
        ));
        assert!(s.lookup(&[1, 2]).is_some());
        assert!(s.lookup(&[2, 1]).is_none());

        let (t, a) = table_ir(MatchKind::Lpm, 8);
        let s = TableState::new(&t);
        s.install(&t, &a, fwd_entry(vec![lpm_pattern(0x0A00_0000, 8, 32)], 8))
            .unwrap();
        assert!(matches!(s.snapshot().index(), LookupIndex::Lpm(_)));

        let (t, _) = table_ir(MatchKind::Ternary, 8);
        let s = TableState::new(&t);
        assert!(matches!(s.snapshot().index(), LookupIndex::Scan));
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
        assert_eq!(hit.epoch(), 1);
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
}
