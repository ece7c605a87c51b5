//! The control-plane handle: table writes that are safe to make **while
//! batches are in flight**.
//!
//! A [`ControlPlane`] is a cheap clone of two `Arc`s: the compiled program
//! and the data plane's one publication cell. Every table edit is an
//! [`Update`] — insert, delete or clear, P4Runtime's write shape — and
//! [`ControlPlane::write`] publishes a batch of them as one epoch under
//! one lock of the cell; every other edit method in the workspace is a
//! one-update view of it. Each update maintains its table's
//! [`crate::LookupIndex`] by one entry, in place unless a pin (an
//! in-flight batch, a checkpoint, a device clone) holds the table, which
//! is then copied once (see [`crate::table`]).
//!
//! Each update that changes a table also appends one record to the
//! cell's write log: the table and the one key tuple the update can
//! change the lookup of (an exact entry's), or the whole table (a masked,
//! range or LPM entry, a clear). The next batch hands the log to the
//! flow cache, which drops only the flows whose table lookups a record
//! names. A rejected batch logs nothing.

use crate::table::WHOLE_TABLE;
use crate::table::{dependency, lpm_pattern, Cell, RuntimeEntry, Table, TableError, Tables};
use netdebug_p4::ir::{self, IrPattern};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// Errors from the control-plane API.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// No such table.
    NoSuchTable(String),
    /// No such action.
    NoSuchAction(String),
    /// No such extern instance.
    NoSuchExtern(String),
    /// Entry rejected.
    Table(TableError),
}

impl core::fmt::Display for ControlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ControlError::NoSuchTable(n) => write!(f, "no such table `{n}`"),
            ControlError::NoSuchAction(n) => write!(f, "no such action `{n}`"),
            ControlError::NoSuchExtern(n) => write!(f, "no such extern `{n}`"),
            ControlError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<TableError> for ControlError {
    fn from(e: TableError) -> Self {
        ControlError::Table(e)
    }
}

/// One table entry as a controller writes it: its match, priority and
/// action (by name). Owned patterns and arguments move into the table
/// uncopied.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry<'a> {
    key: Key<'a>,
    action: &'a str,
    args: Cow<'a, [u128]>,
    /// Higher wins. Public so a driver model can transform it.
    pub priority: i32,
}

/// What an entry matches: one pattern per key, or an LPM prefix, masked
/// once the table's key width is known.
#[derive(Debug, Clone, PartialEq)]
enum Key<'a> {
    Patterns(Cow<'a, [IrPattern]>),
    Prefix(u128, u16),
}

impl<'a> TableEntry<'a> {
    /// An entry with one pattern per key.
    pub fn new(
        patterns: impl Into<Cow<'a, [IrPattern]>>,
        action: &'a str,
        args: impl Into<Cow<'a, [u128]>>,
        priority: i32,
    ) -> Self {
        let (key, args) = (Key::Patterns(patterns.into()), args.into());
        TableEntry {
            key,
            action,
            args,
            priority,
        }
    }

    /// An exact-match entry: one value per key, priority 0.
    pub fn exact(
        keys: impl IntoIterator<Item = u128>,
        action: &'a str,
        args: impl Into<Cow<'a, [u128]>>,
    ) -> Self {
        let patterns: Vec<IrPattern> = keys.into_iter().map(IrPattern::Value).collect();
        Self::new(patterns, action, args, 0)
    }

    /// An entry on a single-key LPM table, at priority `prefix_len` so
    /// the longest prefix wins. A prefix longer than the key is
    /// [`TableError::BadPattern`] when the entry is written.
    pub fn lpm(
        prefix: u128,
        prefix_len: u16,
        action: &'a str,
        args: impl Into<Cow<'a, [u128]>>,
    ) -> Self {
        let key = Key::Prefix(prefix, prefix_len);
        TableEntry {
            key,
            ..Self::new(Vec::new(), action, args, prefix_len.into())
        }
    }

    /// The entry's patterns on `table` (the one place a prefix meets the
    /// key width); `take` moves an owned list out.
    fn patterns(
        &mut self,
        table: &ir::TableIr,
        take: bool,
    ) -> Result<Cow<'_, [IrPattern]>, TableError> {
        let width = table.keys.first().map_or(32, |k| k.width);
        Ok(match &mut self.key {
            Key::Patterns(patterns) if take => std::mem::take(patterns),
            Key::Patterns(patterns) => Cow::Borrowed(patterns),
            Key::Prefix(_, len) if *len > width => return Err(TableError::BadPattern),
            Key::Prefix(prefix, len) => Cow::Owned(vec![lpm_pattern(*prefix, *len, width)]),
        })
    }
}

/// One edit of a [`ControlPlane::write`] batch, on the named table. The
/// name is borrowed: building an update allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Update<'a> {
    /// Install the entry.
    Insert(&'a str, TableEntry<'a>),
    /// Remove the first installed entry with the entry's patterns and
    /// priority (its action is not read). Deleting an entry that is not
    /// installed changes nothing and is no error.
    Delete(&'a str, TableEntry<'a>),
    /// Remove every entry, const entries included.
    Clear(&'a str),
}

impl Update<'_> {
    /// The table the update edits.
    pub fn table(&self) -> &str {
        match self {
            Update::Insert(table, _) | Update::Delete(table, _) | Update::Clear(table) => table,
        }
    }
}

/// A detached, clonable handle onto a data plane's tables, from
/// [`crate::Dataplane::control_plane`] (or `Device::control_plane` in
/// `netdebug-hw`). It can live on another thread and write while packets
/// are processed: each write lands as one atomic publication, never as an
/// edit to a snapshot a reader has pinned.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    pub(crate) program: Arc<ir::Program>,
    /// The data plane's publication cell, shared with it and every other
    /// handle.
    pub(crate) tables: Arc<Mutex<Cell>>,
}

impl ControlPlane {
    fn table_id(&self, name: &str) -> Result<usize, ControlError> {
        self.program
            .table_by_name(name)
            .ok_or_else(|| ControlError::NoSuchTable(name.to_string()))
    }

    fn action_id(&self, name: &str) -> Result<usize, ControlError> {
        self.program
            .action_by_name(name)
            .ok_or_else(|| ControlError::NoSuchAction(name.to_string()))
    }

    /// Publish a batch of updates as one epoch and return the data
    /// plane's generation after it. A batch that changes anything bumps
    /// the generation once, and each table it changes advances one
    /// epoch. On error nothing is applied, and the error is the one
    /// applying the updates one at a time would have met first (a table
    /// that fills up part-way through the batch included).
    pub fn write(&self, updates: &[Update<'_>]) -> Result<u64, ControlError> {
        Ok(self.commit(&mut updates.to_vec())?.0)
    }

    /// Remove the entry with exactly these patterns and priority: the
    /// one-delete view of [`ControlPlane::write`]. Returns the table's new
    /// epoch, or `None` if no such entry was installed.
    pub fn remove(
        &self,
        table: &str,
        patterns: &[IrPattern],
        priority: i32,
    ) -> Result<Option<u64>, ControlError> {
        let entry = TableEntry::new(patterns, "", Vec::new(), priority);
        Ok(self.commit(&mut [Update::Delete(table, entry)])?.1)
    }

    /// [`ControlPlane::write`], moving owned patterns and arguments out
    /// of `updates`. Returns the generation after the batch and the epoch
    /// of the last table it changed (`None`: it changed nothing).
    #[inline]
    pub(crate) fn commit(
        &self,
        updates: &mut [Update<'_>],
    ) -> Result<(u64, Option<u64>), ControlError> {
        let mut guard = Cell::lock(&self.tables);
        let cell = &mut *guard;
        // A lone update is checked before it edits; a batch is checked
        // whole first. Only a full table depends on earlier updates: a
        // batch with room for all its inserts is applied in place, any
        // other rehearsed on a copy, kept only if every update lands
        // (and logged only then).
        let inserts = updates
            .iter()
            .filter(|u| matches!(u, Update::Insert(..)))
            .count();
        let mut crowded = false;
        if updates.len() > 1 {
            for update in updates.iter_mut() {
                let t = &cell.tables.tables[self.check(update)?.0];
                crowded = matches!(update, Update::Insert(..))
                    && (t.snapshot.len() + inserts) as u64 > t.capacity;
                if crowded {
                    break;
                }
            }
        }
        let published = if crowded {
            self.rehearse(cell, updates)
        } else {
            let log = (!cell.gap).then_some(&mut cell.log);
            self.apply(Arc::make_mut(&mut cell.tables), log, updates)
        };
        cell.bound();
        published
    }

    /// Apply `updates` to a copy of `cell`'s tables and publish the copy,
    /// and what it logged, only if every update lands.
    #[cold]
    fn rehearse(
        &self,
        cell: &mut Cell,
        updates: &mut [Update<'_>],
    ) -> Result<(u64, Option<u64>), ControlError> {
        let logged = cell.log.len();
        let mut rehearsal = Tables::clone(&cell.tables);
        let log = (!cell.gap).then_some(&mut cell.log);
        let published = self.apply(&mut rehearsal, log, updates);
        match published {
            Ok(_) => cell.tables = Arc::new(rehearsal),
            Err(_) => cell.log.truncate(logged),
        }
        published
    }

    /// The checks an update passes whatever the tables hold: its table
    /// and action exist and an inserted entry fits the table's
    /// declaration. Returns the table's id and, for an insert, the
    /// action's.
    #[inline]
    fn check(&self, update: &mut Update<'_>) -> Result<(usize, ir::ActionId), ControlError> {
        let tid = self.table_id(update.table())?;
        let table = &self.program.tables[tid];
        let action = match update {
            Update::Insert(_, entry) => {
                let action = self.action_id(entry.action)?;
                let args = entry.args.len();
                let patterns = entry.patterns(table, false)?;
                Table::admit(table, &self.program.actions, &patterns, action, args)?;
                action
            }
            Update::Delete(_, entry) => entry.patterns(table, false).map(|_| 0)?,
            Update::Clear(_) => 0,
        };
        Ok((tid, action))
    }

    /// Check and apply `updates` in order as the next publication of
    /// `tables`, appending a record of each change to `log`; the first
    /// error stops it part-way. Returns what [`ControlPlane::commit`]
    /// does.
    #[inline]
    fn apply(
        &self,
        tables: &mut Tables,
        mut log: Option<&mut Vec<(u32, u64)>>,
        updates: &mut [Update<'_>],
    ) -> Result<(u64, Option<u64>), ControlError> {
        let (generation, logging) = (tables.generation + 1, log.is_some());
        let mut last = None;
        for update in updates.iter_mut() {
            let (tid, action) = self.check(update)?;
            let (ir, table) = (&self.program.tables[tid], &mut tables.tables[tid]);
            let changed = match update {
                Update::Insert(_, entry) => {
                    let args = std::mem::take(&mut entry.args).into_owned();
                    let action = ir::ActionCall { action, args };
                    let priority = entry.priority;
                    let patterns = entry.patterns(ir, true)?.into_owned();
                    let dep = logging.then(|| dependency(&patterns));
                    let entry = RuntimeEntry {
                        patterns,
                        action,
                        priority,
                    };
                    table.insert(entry, generation)?;
                    Some(dep)
                }
                Update::Delete(_, entry) => {
                    let (priority, patterns) = (entry.priority, entry.patterns(ir, false)?);
                    let deleted = table.delete(&patterns, priority, generation);
                    deleted.then(|| logging.then(|| dependency(&patterns)))
                }
                Update::Clear(_) => {
                    table.clear(generation);
                    Some(Some(WHOLE_TABLE))
                }
            };
            // What changed, and, while the log is kept, what it can change.
            let Some(dep) = changed else {
                continue;
            };
            last = Some(table.snapshot.epoch());
            if let Some((log, dep)) = log.as_deref_mut().zip(dep) {
                log.push((tid as u32, dep));
            }
        }
        if last.is_some() {
            tables.generation = generation;
        }
        Ok((tables.generation, last))
    }

    /// The current epoch of a table.
    pub fn epoch(&self, table: &str) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        Ok(Cell::lock(&self.tables).tables.tables[tid].snapshot.epoch())
    }

    /// Current epochs of every table, in program table order.
    pub fn epochs(&self) -> Vec<u64> {
        let cell = Cell::lock(&self.tables);
        cell.tables
            .tables
            .iter()
            .map(|t| t.snapshot.epoch())
            .collect()
    }

    /// Occupancy and capacity of a table: (installed entries, capacity).
    pub fn occupancy(&self, table: &str) -> Result<(usize, u64), ControlError> {
        let tid = self.table_id(table)?;
        let cell = Cell::lock(&self.tables);
        let t = &cell.tables.tables[tid];
        Ok((t.snapshot.len(), t.capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::EntrySnapshot;
    use crate::Dataplane;
    use netdebug_p4::corpus;
    use proptest::prelude::*;

    /// `tunnel_encap`'s two LPM tables, `tunnel_fwd` and `tunnel_term`,
    /// each cut to `capacity` entries.
    fn tunnels(capacity: u64) -> Dataplane {
        let ir = netdebug_p4::compile(corpus::TUNNEL_ENCAP).unwrap();
        Dataplane::with_table_capacities(ir, &[capacity, capacity])
    }

    /// The generation and every table's snapshot, as one cut.
    fn state(cp: &ControlPlane) -> (u64, Vec<Arc<EntrySnapshot>>) {
        let cell = Cell::lock(&cp.tables);
        let snapshots = cell.tables.tables.iter().map(|t| Arc::clone(&t.snapshot));
        (cell.tables.generation, snapshots.collect())
    }

    fn entries(snapshot: &EntrySnapshot) -> Vec<RuntimeEntry> {
        snapshot.entries().cloned().collect()
    }

    /// Route `/len` number `i` of table `table` (0 = `tunnel_fwd`,
    /// 1 = `tunnel_term`) to `port`.
    fn route(table: u8, i: u8, len: u16, port: u8) -> Update<'static> {
        let prefix = u128::from(i % 4) << 28 | u128::from(i % 3) << 16;
        match table {
            0 => Update::Insert(
                "tunnel_fwd",
                TableEntry::lpm(prefix, len, "encap", vec![7, port.into()]),
            ),
            _ => Update::Insert(
                "tunnel_term",
                TableEntry::lpm(prefix, len, "decap", vec![port.into()]),
            ),
        }
    }

    /// The delete of what [`route`] inserts.
    fn unroute(table: u8, i: u8, len: u16) -> Update<'static> {
        match route(table, i, len, 0) {
            Update::Insert(table, entry) => Update::Delete(table, entry),
            _ => unreachable!(),
        }
    }

    /// One random update: mostly inserts and deletes over a small prefix
    /// domain (duplicates, absent victims), now and then a clear or an
    /// update that is rejected whatever the tables hold.
    fn update((sel, table, i, len, port): (u8, u8, u8, u16, u8)) -> Update<'static> {
        let len = [0, 4, 8, 16, 24, 32][usize::from(len % 6)];
        match sel {
            0..=4 => route(table, i, len, port),
            5..=7 => unroute(table, i, len),
            8 => Update::Clear(["tunnel_fwd", "tunnel_term"][usize::from(table % 2)]),
            9 => Update::Insert("no_table", TableEntry::exact([1], "encap", vec![7, 1])),
            10 => route(table, i, 33, port),
            _ => Update::Insert(
                "tunnel_term",
                TableEntry::lpm(u128::from(i), 8, "encap", vec![7, 1]),
            ),
        }
    }

    /// Apply `updates` one publication each, stopping at the first
    /// error, which is returned.
    fn one_at_a_time(cp: &ControlPlane, updates: &[Update<'_>]) -> Result<(), ControlError> {
        updates
            .iter()
            .try_for_each(|u| cp.write(std::slice::from_ref(u)).map(drop))
    }

    proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// A batch equals its updates applied one at a time: the same
        /// entries in the same order, the same lookups on random keys,
        /// and the same first error. An accepted batch that changes
        /// anything bumps the generation once and advances each table it
        /// changed by one epoch; a rejected one changes nothing.
        #[test]
        fn a_batch_equals_its_updates_one_at_a_time(
            setup in proptest::collection::vec((0u8..8, 0u8..2, 0u8..8, 0u16..6, 0u8..4), 0..8),
            batch in proptest::collection::vec((0u8..12, 0u8..2, 0u8..8, 0u16..6, 0u8..4), 0..10),
            keys in proptest::collection::vec(any::<u32>(), 1..16),
        ) {
            let dp = tunnels(6);
            let cp = dp.control_plane();
            for &u in &setup {
                let _ = cp.write(&[update(u)]);
            }
            let twin = dp.clone();
            let twin_cp = twin.control_plane();
            let updates: Vec<Update<'static>> = batch.into_iter().map(update).collect();
            let (generation, before) = state(&cp);

            let batched = cp.write(&updates);
            let single = one_at_a_time(&twin_cp, &updates);
            let (after_generation, after) = state(&cp);
            match (&batched, &single) {
                (Ok(g), Ok(())) => {
                    let (_, stepped) = state(&twin_cp);
                    let mut changed = false;
                    for (t, ((b, a), s)) in before.iter().zip(&after).zip(&stepped).enumerate() {
                        prop_assert_eq!(entries(a), entries(s), "table {}", t);
                        for &key in &keys {
                            let key = [u128::from(key)];
                            prop_assert_eq!(a.lookup(&key), s.lookup(&key), "table {} key {:#x}", t, key[0]);
                        }
                        let touched = s.epoch() > b.epoch();
                        prop_assert_eq!(a.epoch(), b.epoch() + u64::from(touched), "table {}", t);
                        changed |= touched;
                    }
                    prop_assert_eq!(*g, after_generation);
                    prop_assert_eq!(after_generation, generation + u64::from(changed));
                }
                (Err(e), Err(first)) => {
                    prop_assert_eq!(e, first);
                    prop_assert_eq!(after_generation, generation);
                    for (b, a) in before.iter().zip(&after) {
                        prop_assert!(Arc::ptr_eq(b, a), "a rejected batch published");
                    }
                }
                _ => prop_assert!(false, "batch {:?}, one at a time {:?}", batched, single),
            }
        }
    }

    #[test]
    fn a_rejected_batch_changes_nothing() {
        let dp = tunnels(3);
        let cp = dp.control_plane();
        let fill = [route(0, 0, 8, 1), route(0, 1, 16, 1), route(0, 2, 24, 1)];
        cp.write(&fill).unwrap();
        let full = ControlError::Table(TableError::Full { capacity: 3 });
        let range = vec![IrPattern::Range { lo: 1, hi: 9 }];
        let cases: [(Vec<Update<'_>>, ControlError); 4] = [
            (
                vec![route(1, 0, 8, 1), Update::Clear("no_table")],
                ControlError::NoSuchTable("no_table".into()),
            ),
            (
                vec![
                    unroute(0, 0, 8),
                    Update::Insert("tunnel_fwd", TableEntry::new(range, "encap", vec![7, 1], 0)),
                ],
                ControlError::Table(TableError::BadPattern),
            ),
            (
                vec![
                    Update::Clear("tunnel_term"),
                    route(1, 3, 8, 2),
                    route(0, 3, 33, 2),
                ],
                ControlError::Table(TableError::BadPattern),
            ),
            // Two deletes make room for two of the three inserts; the
            // third meets a full table, before the bad name after it.
            (
                vec![
                    unroute(0, 0, 8),
                    unroute(0, 1, 16),
                    route(0, 4, 8, 2),
                    route(0, 5, 8, 2),
                    route(0, 6, 8, 2),
                    Update::Clear("no_table"),
                ],
                full,
            ),
        ];
        for (batch, error) in cases {
            let (generation, before) = state(&cp);
            assert_eq!(cp.write(&batch), Err(error.clone()), "{batch:?}");
            let (after_generation, after) = state(&cp);
            assert_eq!(after_generation, generation);
            for (b, a) in before.iter().zip(&after) {
                assert!(Arc::ptr_eq(b, a), "{batch:?} published");
            }
            let twin = dp.clone().control_plane();
            assert_eq!(one_at_a_time(&twin, &batch), Err(error));
        }
        // The last batch without its bad update lands, as one epoch.
        let (generation, before) = state(&cp);
        cp.write(&[
            unroute(0, 0, 8),
            unroute(0, 1, 16),
            route(0, 4, 8, 2),
            route(0, 5, 8, 2),
        ])
        .unwrap();
        let (after_generation, after) = state(&cp);
        assert_eq!(after_generation, generation + 1);
        assert_eq!(after[0].epoch(), before[0].epoch() + 1);
        assert_eq!(after[0].len(), 3);
        assert!(Arc::ptr_eq(&before[1], &after[1]), "tunnel_term untouched");
    }
}
