//! The control-plane handle: epoch-publishing table mutation that is safe
//! to use **while batches are in flight**.
//!
//! A [`ControlPlane`] is a cheap clone of a few `Arc`s — the compiled
//! program (for validation and name resolution), the shared table cells,
//! and the publication generation/lock. It can be handed to another
//! thread and used to `install`/`remove`/`clear` entries while the owning
//! [`crate::Dataplane`] is mid-`process_batch`: each mutation publishes
//! the table's next epoch atomically, the in-flight batch keeps reading
//! the [`crate::EntrySnapshot`]s it pinned at batch start, and the next
//! batch (or the next single packet) observes the new epochs.
//!
//! A publication costs **what changed**: the snapshot's
//! [`crate::LookupIndex`] (exact → hash, LPM → prefix-length levels,
//! ternary and mixed kinds → one hash per mask tuple, picked by the
//! table's declared [`netdebug_p4::ir::KeySignature`]; a `Range` pattern
//! puts its table on the priority scan while it is resident) is
//! maintained by inserting or removing the one entry, in place while
//! nobody has the snapshot pinned. A batch pins every table only while it
//! runs, so a publication between batches edits in place. The first
//! publication while a pin is held — by an in-flight batch, a checkpoint
//! or a device clone — copies the snapshot once (refcount bumps, not
//! entry copies) and leaves the pin on its epoch; see [`crate::table`]
//! for why that is race-free. Either way the packet path never pays for
//! index maintenance, and the only synchronisation between the two sides
//! is the brief publication lock each pin point takes once per batch.

use crate::table::{RuntimeEntry, TableError, TableState};
use netdebug_p4::ir::{self, IrPattern};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A detached, clonable handle onto a data plane's tables.
///
/// Obtained from [`crate::Dataplane::control_plane`] (or
/// `Device::control_plane` in `netdebug-hw`). All methods take `&self`:
/// the handle can live on a control-plane thread and mutate tables
/// concurrently with packet processing — mutations land as atomic epoch
/// publications, never as edits to a snapshot a reader has pinned.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    program: Arc<ir::Program>,
    tables: Arc<Vec<TableState>>,
    /// Bumped (release) after every successful publication: the flow
    /// cache's invalidation signal (a batch that pins at a new generation
    /// drops the cache's entries).
    generation: Arc<AtomicU64>,
    /// Held across every publication *and* across a batch's multi-table
    /// pin:
    /// serialising the two is what makes a pinned snapshot *set* a
    /// publication-order prefix — a window can never observe mutation K+1
    /// without mutation K, even when they touch different tables.
    publish_lock: Arc<std::sync::Mutex<()>>,
}

impl ControlPlane {
    pub(crate) fn new(
        program: Arc<ir::Program>,
        tables: Arc<Vec<TableState>>,
        generation: Arc<AtomicU64>,
        publish_lock: Arc<std::sync::Mutex<()>>,
    ) -> Self {
        ControlPlane {
            program,
            tables,
            generation,
            publish_lock,
        }
    }

    /// Run `publish` under the publication lock and bump the generation
    /// if `published` says a snapshot went out (a rejected install or the
    /// removal of an absent entry publishes nothing), so a reader
    /// observing the new generation always sees the new snapshot and no
    /// reader can pin a snapshot set that interleaves two publications.
    fn publishing<T>(&self, publish: impl FnOnce() -> T, published: impl FnOnce(&T) -> bool) -> T {
        let _guard = self.publish_lock.lock().expect("publish lock poisoned");
        let out = publish();
        if published(&out) {
            self.generation.fetch_add(1, Ordering::Release);
        }
        out
    }

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

    /// Install an arbitrary entry; returns the table's new epoch.
    pub fn install(
        &self,
        table: &str,
        patterns: Vec<IrPattern>,
        action: &str,
        args: Vec<u128>,
        priority: i32,
    ) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        let aid = self.action_id(action)?;
        let entry = RuntimeEntry {
            patterns,
            action: ir::ActionCall { action: aid, args },
            priority,
        };
        let epoch = self.publishing(
            || self.tables[tid].install(&self.program.tables[tid], &self.program.actions, entry),
            Result::is_ok,
        )?;
        Ok(epoch)
    }

    /// Install an exact-match entry (one value per key); returns the new
    /// epoch.
    pub fn install_exact(
        &self,
        table: &str,
        keys: Vec<u128>,
        action: &str,
        args: Vec<u128>,
    ) -> Result<u64, ControlError> {
        let patterns = keys.into_iter().map(IrPattern::Value).collect();
        self.install(table, patterns, action, args, 0)
    }

    /// Install an LPM entry on a single-key LPM table (priority = prefix
    /// length, so longest prefix wins); returns the new epoch.
    pub fn install_lpm(
        &self,
        table: &str,
        prefix: u128,
        prefix_len: u16,
        action: &str,
        args: Vec<u128>,
    ) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        let width = self.program.tables[tid]
            .keys
            .first()
            .map(|k| k.width)
            .unwrap_or(32);
        let pattern = crate::table::lpm_pattern(prefix, prefix_len, width);
        self.install(table, vec![pattern], action, args, i32::from(prefix_len))
    }

    /// Remove the entry with exactly these patterns and priority. Returns
    /// the new epoch, or `None` if no such entry was installed.
    pub fn remove(
        &self,
        table: &str,
        patterns: &[IrPattern],
        priority: i32,
    ) -> Result<Option<u64>, ControlError> {
        let tid = self.table_id(table)?;
        Ok(self.publishing(
            || self.tables[tid].remove(patterns, priority),
            Option::is_some,
        ))
    }

    /// Remove all entries from a table; returns the new epoch.
    pub fn clear(&self, table: &str) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        Ok(self.publishing(|| self.tables[tid].clear(), |_| true))
    }

    /// The current epoch of a table.
    pub fn epoch(&self, table: &str) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        Ok(self.tables[tid].epoch())
    }

    /// Current epochs of every table, in program table order.
    pub fn epochs(&self) -> Vec<u64> {
        self.tables.iter().map(|t| t.epoch()).collect()
    }

    /// Occupancy and capacity of a table: (installed entries, capacity).
    pub fn occupancy(&self, table: &str) -> Result<(usize, u64), ControlError> {
        let tid = self.table_id(table)?;
        let t = &self.tables[tid];
        Ok((t.len(), t.capacity()))
    }
}
