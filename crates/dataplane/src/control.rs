//! The control-plane handle: epoch-publishing table mutation that is safe
//! to use **while batches are in flight**.
//!
//! A [`ControlPlane`] is a cheap clone of two `Arc`s: the compiled program
//! (for validation and name resolution) and the data plane's one
//! publication cell, which holds every table as one value. It can be
//! handed to another thread and used to `install`/`remove`/`clear`
//! entries while the owning [`crate::Dataplane`] is mid-`process_batch`:
//! each mutation locks the cell and publishes the table's next epoch, the
//! in-flight batch keeps reading the tables it pinned at batch start, and
//! the next batch (or the next single packet) observes the new epochs.
//!
//! A publication costs **what changed**: the snapshot's
//! [`crate::LookupIndex`] (exact → hash, LPM → one hash per prefix
//! length behind a top-octet length filter, ternary and mixed kinds →
//! one hash per mask tuple, picked by the table's declared
//! [`netdebug_p4::ir::KeySignature`]; a pattern the structure cannot
//! hold, such as a `Range`, puts its table on the priority scan while it
//! is resident) is maintained by inserting or removing the one entry, in
//! place while nobody holds the tables. A batch pins them only while it
//! runs, so a publication between batches edits in place. The first
//! publication while a pin is held — by an in-flight batch, a checkpoint
//! or a device clone — copies the vector of tables (refcount bumps) and
//! the one snapshot it edits, and leaves the pin on its cut; see
//! [`crate::table`].
//! Either way the packet path never pays for index maintenance.

use crate::table::{RuntimeEntry, Table, TableError, Tables};
use netdebug_p4::ir::{self, IrPattern};
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
    /// The data plane's publication cell, shared with it and every other
    /// handle.
    tables: Arc<Mutex<Arc<Tables>>>,
}

impl ControlPlane {
    pub(crate) fn new(program: Arc<ir::Program>, tables: Arc<Mutex<Arc<Tables>>>) -> Self {
        ControlPlane { program, tables }
    }

    /// Apply `edit` to table `tid` under the cell's lock and bump the
    /// generation if `published` says a snapshot went out (a rejected
    /// install or the removal of an absent entry publishes nothing).
    fn publishing<T>(
        &self,
        tid: usize,
        edit: impl FnOnce(&mut Table) -> T,
        published: impl FnOnce(&T) -> bool,
    ) -> T {
        let mut cell = Tables::lock(&self.tables);
        let tables = Arc::make_mut(&mut cell);
        let out = edit(&mut tables.tables[tid]);
        if published(&out) {
            tables.generation += 1;
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
            tid,
            |t| t.install(&self.program.tables[tid], &self.program.actions, entry),
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
    /// length, so longest prefix wins); returns the new epoch. A prefix
    /// longer than the key is [`TableError::BadPattern`].
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
        if prefix_len > width {
            return Err(TableError::BadPattern.into());
        }
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
        Ok(self.publishing(tid, |t| t.remove(patterns, priority), Option::is_some))
    }

    /// Remove all entries from a table; returns the new epoch.
    pub fn clear(&self, table: &str) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        Ok(self.publishing(tid, Table::clear, |_| true))
    }

    /// The current epoch of a table.
    pub fn epoch(&self, table: &str) -> Result<u64, ControlError> {
        let tid = self.table_id(table)?;
        Ok(Tables::lock(&self.tables).tables[tid].snapshot.epoch())
    }

    /// Current epochs of every table, in program table order.
    pub fn epochs(&self) -> Vec<u64> {
        Tables::lock(&self.tables).epochs()
    }

    /// Occupancy and capacity of a table: (installed entries, capacity).
    pub fn occupancy(&self, table: &str) -> Result<(usize, u64), ControlError> {
        let tid = self.table_id(table)?;
        let cell = Tables::lock(&self.tables);
        let t = &cell.tables[tid];
        Ok((t.snapshot.len(), t.capacity))
    }
}
