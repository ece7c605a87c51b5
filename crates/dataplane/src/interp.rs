//! The execution engines: P4-16 semantics for the pipeline IR.
//!
//! [`Dataplane`] owns a compiled program plus its runtime state (tables,
//! registers, counters, meters) and processes packets one at a time
//! ([`Dataplane::process`]) or in batches ([`Dataplane::process_batch`]):
//!
//! 1. **Parse**: run the FSM from `start`; `extract` consumes bytes and
//!    marks headers valid; a `reject` transition — or running out of bytes —
//!    **drops the packet**, as P4-16 requires (this is the exact semantics
//!    the paper's SDNet backend violated);
//! 2. **Pipeline**: execute each control in order: table applies, ifs and
//!    primitive ops, with v1model-style drop semantics (`mark_to_drop` sets
//!    a flag that a later `egress_spec` write clears);
//! 3. **Deparse**: emit valid headers in deparse order, append the unparsed
//!    payload.
//!
//! Two engines implement these semantics and are **bit-identical** by
//! property test ([`Engine`], switched with [`Dataplane::set_engine`]):
//!
//! * [`Engine::Compiled`] (the default) — at load time the program is
//!   lowered to a flat instruction array ([`crate::compile`]) executed by
//!   a tight non-recursive loop: pre-resolved jumps instead of recursive
//!   statement walks, a value stack instead of expression-tree recursion,
//!   header fields moved from byte spans, shifts and masks resolved at
//!   load time. This is the fast path every batch and fleet driver takes.
//! * [`Engine::Reference`] — the executable specification: the IR walker
//!   (`netdebug_p4::walk`, the one tree-walker in the workspace) over
//!   `u128` values in this module's `Concrete` domain, which records the
//!   trace and updates tables and externs, followed by a field-by-field
//!   deparse. It is the differential oracle the parity property tests run
//!   the compiled engine against (same verdicts, traces, statistics and
//!   extern state on every packet), the same role the paper gives its
//!   reference model against hardware. The verifier runs the same walker
//!   over symbolic values, so oracle and verifier share one semantics.
//!
//! Execution is split into `ExecCtx`-style borrows internally: the
//! read-mostly state (program IR, compiled code, table entry lists) is
//! borrowed shared, the mutable state (table statistics, extern cells)
//! is borrowed exclusively, so the hot path runs with **zero per-packet
//! clones** of parser ops, control bodies, table keys or action bodies,
//! and the unparsed payload is carried as a borrowed slice until the
//! deparser copies it into the output frame. All packet paths reuse one
//! per-dataplane scratch `Env`; tracing is opt-out on the batch paths
//! (see [`Dataplane::set_tracing`]) so throughput runs skip event
//! allocation entirely, and [`Dataplane::process_batch_with`] streams
//! each packet's verdict and trace through a [`TraceSink`] without
//! materialising either. A batch runs on the calling thread; parallelism
//! lives one level up, across devices (`netdebug-core`'s `FleetRuntime`).
//!
//! Egress conventions (documented device-model behaviour):
//! * `egress_spec` 0..510 — forward out of that port;
//! * `egress_spec` 511 — flood (all ports except ingress);
//! * no write to `egress_spec` — drop (`NoEgress`).

use crate::bits::{read_bits, write_bits};
use crate::cache::{CacheStats, FlowCache};
use crate::compile::{self, CompiledProgram};
use crate::control::{ControlError, ControlPlane};
use crate::externs::{ExternState, MeterConfig};
use crate::table::{EntrySnapshot, RuntimeEntry, TableState, TableStats, TableView};
use crate::trace::{DropReason, LazyTrace, Trace, TraceBuf, TraceBytes, TraceSink, Verdict};
use netdebug_p4::ir::{self, truncate, Cacheability, StdField, TransTarget};
use netdebug_p4::walk::{self, Domain, End, Event, Place};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The flood "port" value in `egress_spec`.
pub const FLOOD_PORT: u128 = 511;

/// Which execution engine runs the packet paths.
///
/// Both engines implement identical semantics — the parity property
/// tests in `tests/prop.rs` pin verdicts, traces, statistics and extern
/// state bit-for-bit over the program corpus — so the switch trades
/// nothing but speed for auditability:
///
/// * [`Engine::Compiled`]: the flat bytecode engine compiled at load
///   time ([`crate::compile`]); the default everywhere.
/// * [`Engine::Reference`]: the IR walker over concrete values, retained
///   as the executable specification and differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Tree-walking reference interpreter (the specification oracle).
    Reference,
    /// Flat load-time-compiled bytecode engine (the fast default).
    Compiled,
}

/// Runtime value of one header instance.
///
/// Under the compiled engine `fields` holds only what the code touches:
/// extract loads the header plan's live fields, and every other slot stays
/// 0, as no code reads it.
#[derive(Debug, Clone)]
pub(crate) struct HeaderVal {
    pub(crate) valid: bool,
    pub(crate) fields: Vec<u128>,
    /// Byte offset of the compiled engine's extract in the ingress frame;
    /// deparse copies the header from there. `None` before extract and
    /// after `setInvalid()`, and always under the reference engine.
    pub(crate) offset: Option<usize>,
}

/// Per-packet execution environment, shared by both engines.
///
/// All vectors are sized once per program and reset (not reallocated)
/// between packets, so a batch touches the allocator only for output
/// frames and traces.
#[derive(Debug)]
pub(crate) struct Env {
    pub(crate) headers: Vec<HeaderVal>,
    pub(crate) meta: Vec<u128>,
    pub(crate) locals: Vec<u128>,
    pub(crate) ingress_port: u128,
    pub(crate) egress_spec: u128,
    pub(crate) egress_written: bool,
    pub(crate) packet_length: u128,
    pub(crate) ts_cycles: u128,
    pub(crate) drop_flag: bool,
    /// Arguments of the action currently executing (reused buffer; table
    /// applies cannot nest inside actions, so a flat buffer suffices).
    pub(crate) action_args: Vec<u128>,
    /// Scratch for evaluated table/select keys (reused buffer).
    pub(crate) key_scratch: Vec<u128>,
    /// The compiled engine's value stack (reused buffer).
    pub(crate) stack: Vec<u128>,
}

impl Env {
    /// Allocate an environment shaped for `program`.
    pub(crate) fn new(program: &ir::Program) -> Self {
        Env {
            headers: program
                .headers
                .iter()
                .map(|h| HeaderVal {
                    valid: false,
                    fields: vec![0; h.fields.len()],
                    offset: None,
                })
                .collect(),
            meta: vec![0; program.metadata.len()],
            locals: vec![0; program.locals.len()],
            ingress_port: 0,
            egress_spec: 0,
            egress_written: false,
            packet_length: 0,
            ts_cycles: 0,
            drop_flag: false,
            action_args: Vec::new(),
            key_scratch: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Reset for the next packet without releasing any allocation.
    pub(crate) fn reset(&mut self, port: u16, packet_len: usize, now_cycles: u64) {
        for h in &mut self.headers {
            h.valid = false;
            h.offset = None;
            for f in &mut h.fields {
                *f = 0;
            }
        }
        for m in &mut self.meta {
            *m = 0;
        }
        for l in &mut self.locals {
            *l = 0;
        }
        self.ingress_port = u128::from(port);
        self.egress_spec = 0;
        self.egress_written = false;
        self.packet_length = packet_len as u128;
        self.ts_cycles = u128::from(now_cycles);
        self.drop_flag = false;
        self.action_args.clear();
        self.key_scratch.clear();
    }
}

/// A program plus its runtime state — one simulated data plane.
///
/// The state is deliberately split along the read/write axis:
///
/// * **read-mostly** — the program (immutable, behind an `Arc`), its
///   load-time-compiled bytecode ([`CompiledProgram`], also `Arc`-shared
///   with clones) and the table entry lists: each table publishes
///   [`EntrySnapshot`]s that the packet path pins per batch, while the
///   control plane — possibly from another thread, through a detached
///   [`ControlPlane`] handle — publishes successor epochs atomically;
///   a pinned snapshot is never edited (a mid-batch install copies it
///   first, see [`crate::table`]).
/// * **mutable** — table hit/miss statistics (`table_stats`) and extern
///   state (`externs`), owned by the one thread running the batch.
#[derive(Debug)]
pub struct Dataplane {
    program: Arc<ir::Program>,
    /// The flat bytecode the default engine executes (compiled once at
    /// construction, shared with clones).
    compiled: Arc<CompiledProgram>,
    /// Which engine the packet paths run ([`Engine::Compiled`] default).
    engine: Engine,
    tables: Arc<Vec<TableState>>,
    table_stats: Vec<TableStats>,
    externs: ExternState,
    packets_processed: u64,
    tracing: bool,
    /// Publication generation shared with every [`ControlPlane`] handle:
    /// bumped after each snapshot publication. The packet path re-pins
    /// `pin_cache` only when it moves, so steady-state processing pays
    /// one atomic load per pin point instead of a lock per table.
    generation: Arc<AtomicU64>,
    /// The pinned snapshots as of `pin_gen` (lazily refreshed).
    pin_cache: Vec<Arc<EntrySnapshot>>,
    /// Generation `pin_cache` was pinned at (0 = never pinned).
    pin_gen: u64,
    /// Shared with every [`ControlPlane`] handle: held across each
    /// publication and across a multi-table re-pin, so a pinned snapshot
    /// *set* always corresponds to a prefix of the publication order —
    /// never an interleaving that mixes a later mutation without an
    /// earlier one.
    publish_lock: Arc<std::sync::Mutex<()>>,
    /// The per-packet execution environment, allocated once and reused
    /// by every packet path (single-packet and batch alike).
    env_scratch: Env,
    /// The flat per-packet trace record buffer, allocated once and
    /// reused by every traced path; it grows to the batch's high-water
    /// event volume and stays there (see [`crate::trace::TraceBuf`]).
    trace_buf: TraceBuf,
    /// The epoch-keyed flow cache ([`crate::cache`]): present when the
    /// program is cacheable and caching is enabled.
    flow_cache: Option<FlowCache>,
    /// Key-prefix bytes for this program's cache (None = program
    /// classified [`Cacheability::Uncacheable`], cache impossible).
    cache_key_cap: Option<usize>,
}

impl Clone for Dataplane {
    /// Deep-copies the runtime state: the clone gets its own table cells
    /// and publication counter (sharing the current snapshots is safe —
    /// a mutation on either side copies a shared snapshot before editing
    /// it) so control-plane handles and installs on one copy never leak
    /// into the other. The compiled program and bytecode are shared. The
    /// table snapshots are
    /// captured under the publication lock, so even a clone taken during
    /// concurrent multi-table churn observes a publication-order prefix,
    /// never a torn cross-table cut.
    fn clone(&self) -> Self {
        let (tables, generation) = {
            let _guard = self.publish_lock.lock().expect("publish lock poisoned");
            (
                Arc::new(
                    self.tables
                        .iter()
                        .map(TableState::clone)
                        .collect::<Vec<_>>(),
                ),
                Arc::new(AtomicU64::new(self.generation.load(Ordering::Acquire))),
            )
        };
        Dataplane {
            program: Arc::clone(&self.program),
            compiled: Arc::clone(&self.compiled),
            engine: self.engine,
            tables,
            table_stats: self.table_stats.clone(),
            externs: self.externs.clone(),
            packets_processed: self.packets_processed,
            tracing: self.tracing,
            generation,
            pin_cache: self.pin_cache.clone(),
            pin_gen: self.pin_gen,
            publish_lock: Arc::new(std::sync::Mutex::new(())),
            env_scratch: Env::new(&self.program),
            trace_buf: TraceBuf::default(),
            // The clone caches independently (its table state may diverge
            // immediately); it starts cold with its own counters.
            flow_cache: if self.flow_cache.is_some() {
                self.cache_key_cap.map(FlowCache::new)
            } else {
                None
            },
            cache_key_cap: self.cache_key_cap,
        }
    }
}

/// A consistent capture of a [`Dataplane`]'s runtime state, produced by
/// [`Dataplane::checkpoint`] and reinstated by [`Dataplane::restore`].
///
/// Table entry state is held as pinned `Arc<EntrySnapshot>`s — the same
/// epochs the packet path pins — so a checkpoint costs one `Arc` clone
/// per table plus the extern/statistics copies, not a deep copy of the
/// entry lists (the first publication after it pays for one shallow
/// copy of the table it touches). Checkpoints are the substrate of the
/// fault-recovery path: quarantined devices rewind to their last
/// checkpoint and replay forward past the culprit frame.
#[derive(Debug, Clone)]
pub struct DataplaneCheckpoint {
    snapshots: Vec<Arc<EntrySnapshot>>,
    externs: ExternState,
    table_stats: Vec<TableStats>,
    packets_processed: u64,
}

impl DataplaneCheckpoint {
    /// The table epochs this checkpoint pinned, in table-declaration
    /// order.
    pub fn epochs(&self) -> Vec<u64> {
        self.snapshots.iter().map(|s| s.epoch()).collect()
    }
}

/// Split borrows for the execution hot path: the immutable program (IR
/// and compiled bytecode) and flattened table views on one side, the
/// mutable runtime state on the other. Holding the program through plain
/// shared references is what lets both engines walk parser states,
/// control bodies and action bodies without cloning them per packet, and
/// holding the pinned entry state through `&[TableView]` — resolved
/// **once per batch** from the pinned `Arc<EntrySnapshot>`s — is what
/// makes a table apply one slice index plus an index probe, no per-apply
/// `Arc` dereference, while the control plane publishes new epochs
/// mid-batch without perturbing in-flight packets.
pub(crate) struct ExecCtx<'p> {
    pub(crate) program: &'p ir::Program,
    pub(crate) compiled: &'p CompiledProgram,
    pub(crate) engine: Engine,
    pub(crate) tables: TablesRef<'p>,
    pub(crate) table_stats: &'p mut [TableStats],
    pub(crate) externs: &'p mut ExternState,
}

/// How an execution context reaches the pinned table state.
///
/// The batch paths resolve the pins into a flat [`TableView`] array once
/// per batch (amortised over hundreds of packets); the single-packet
/// paths keep the pinned `Arc` slice directly — a one-packet call has
/// nothing to amortise a view array against, and the seed's per-apply
/// cost there was exactly one `Arc` dereference anyway.
#[derive(Clone, Copy)]
pub(crate) enum TablesRef<'p> {
    /// Per-batch flattened views: one slice index per apply.
    Views(&'p [TableView<'p>]),
    /// Pinned snapshots: one `Arc` dereference per apply.
    Pinned(&'p [Arc<EntrySnapshot>]),
}

impl<'p> TablesRef<'p> {
    #[inline]
    pub(crate) fn lookup(&self, tid: usize, keys: &[u128]) -> Option<&'p RuntimeEntry> {
        match self {
            TablesRef::Views(views) => views[tid].lookup(keys),
            TablesRef::Pinned(pinned) => pinned[tid].lookup(keys),
        }
    }
}

/// Resolve pinned snapshots into the per-batch flat [`TableView`] array.
/// Free function (not a method) so callers can keep disjoint borrows of
/// the other `Dataplane` fields while the views live.
fn resolve_views(pinned: &[Arc<EntrySnapshot>]) -> Vec<TableView<'_>> {
    pinned.iter().map(|s| s.view()).collect()
}

impl Dataplane {
    /// Instantiate a data plane for a compiled program (const entries
    /// installed, externs zeroed).
    pub fn new(program: ir::Program) -> Self {
        let tables = program.tables.iter().map(TableState::new).collect();
        Self::assemble(program, tables)
    }

    /// Instantiate with per-table capacity overrides (used by hardware
    /// backends that quantize or truncate table memories). Tables past
    /// the end of `capacities` keep their declared size.
    pub fn with_table_capacities(program: ir::Program, capacities: &[u64]) -> Self {
        let tables = program
            .tables
            .iter()
            .enumerate()
            .map(|(tid, t)| match capacities.get(tid) {
                Some(&cap) => TableState::with_capacity(t, cap),
                None => TableState::new(t),
            })
            .collect();
        Self::assemble(program, tables)
    }

    fn assemble(program: ir::Program, tables: Vec<TableState>) -> Self {
        let externs = ExternState::new(&program.externs);
        let table_stats = vec![TableStats::default(); program.tables.len()];
        let compiled = Arc::new(CompiledProgram::compile(&program));
        let env_scratch = Env::new(&program);
        let cache_key_cap = match program.cacheability() {
            Cacheability::Cacheable => program
                .parser_longest_path_bits()
                .map(|bits| (bits as usize).div_ceil(8)),
            Cacheability::Uncacheable => None,
        };
        Dataplane {
            program: Arc::new(program),
            compiled,
            engine: Engine::Compiled,
            tables: Arc::new(tables),
            table_stats,
            externs,
            packets_processed: 0,
            tracing: true,
            generation: Arc::new(AtomicU64::new(1)),
            pin_cache: Vec::new(),
            pin_gen: 0,
            publish_lock: Arc::new(std::sync::Mutex::new(())),
            env_scratch,
            trace_buf: TraceBuf::default(),
            flow_cache: cache_key_cap.map(FlowCache::new),
            cache_key_cap,
        }
    }

    /// Which engine the packet paths execute ([`Engine::Compiled`] unless
    /// switched).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Switch the execution engine.
    ///
    /// [`Engine::Compiled`] is the default on every path (single-packet,
    /// batch, streaming). [`Engine::Reference`] selects the
    /// tree-walking oracle — differential self-validation runs the same
    /// traffic through both and asserts bit-identical verdicts, traces,
    /// statistics and extern state (see the parity property tests).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// A detached control-plane handle: clone it onto any thread and
    /// install/remove/clear entries **while batches run**; every mutation
    /// publishes a new table epoch atomically, and the in-flight batch
    /// keeps the snapshots it pinned. Priority semantics are the data plane's
    /// own (hardware-bug transforms such as priority inversion live in
    /// `netdebug-hw`'s `Device::install`, not here).
    pub fn control_plane(&self) -> ControlPlane {
        ControlPlane::new(
            Arc::clone(&self.program),
            Arc::clone(&self.tables),
            Arc::clone(&self.generation),
            Arc::clone(&self.publish_lock),
        )
    }

    /// Capture a checkpoint of the runtime state: the published table
    /// snapshots (pinned `Arc`s — O(tables), no entry copies), extern
    /// counters/registers/meters, table statistics and the processing
    /// counters. The snapshot set is captured under the publication lock,
    /// so even a checkpoint taken during concurrent multi-table churn
    /// observes a publication-order prefix, never a torn cross-table cut.
    pub fn checkpoint(&self) -> DataplaneCheckpoint {
        let snapshots = {
            let _guard = self.publish_lock.lock().expect("publish lock poisoned");
            self.tables.iter().map(TableState::snapshot).collect()
        };
        DataplaneCheckpoint {
            snapshots,
            externs: self.externs.clone(),
            table_stats: self.table_stats.clone(),
            packets_processed: self.packets_processed,
        }
    }

    /// Reinstate a [`DataplaneCheckpoint`] taken from this data plane (or
    /// a clone sharing its program): table snapshots swap back to the
    /// checkpointed epochs, externs and statistics are overwritten, and
    /// the publication generation is *bumped* (not rewound) so pinned
    /// snapshot caches and the epoch-keyed flow cache re-pin on the next
    /// batch instead of serving post-checkpoint state.
    pub fn restore(&mut self, checkpoint: &DataplaneCheckpoint) {
        {
            let _guard = self.publish_lock.lock().expect("publish lock poisoned");
            for (table, snapshot) in self.tables.iter().zip(&checkpoint.snapshots) {
                table.restore(Arc::clone(snapshot));
            }
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        self.externs = checkpoint.externs.clone();
        self.table_stats = checkpoint.table_stats.clone();
        self.packets_processed = checkpoint.packets_processed;
    }

    /// The compiled program.
    pub fn program(&self) -> &ir::Program {
        &self.program
    }

    /// A printable disassembly of the bytecode — one line per
    /// instruction with mnemonic, resolved names and jump targets.
    pub fn disassemble(&self) -> crate::disasm::Disassembly<'_> {
        self.compiled.disassemble()
    }

    /// Packets processed since construction.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Flow-cache counters: hits, misses, invalidations, occupancy and
    /// capacity. All-zero when the program is uncacheable or the cache
    /// is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        self.flow_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Whether the flow cache is active (the program classified
    /// [`Cacheability::Cacheable`] and caching has not been switched
    /// off).
    pub fn flow_cache_enabled(&self) -> bool {
        self.flow_cache.is_some()
    }

    /// Enable or disable the flow cache. Enabling is a no-op for
    /// programs the cacheability analysis rejects **and for a cache that
    /// is already enabled** (resident entries and the cumulative
    /// [`Dataplane::cache_stats`] counters are kept, so `hits` never
    /// runs backwards); disabling drops the resident entries and the
    /// counters with them (re-enabling starts cold).
    pub fn set_flow_cache(&mut self, enabled: bool) {
        if !enabled {
            self.flow_cache = None;
        } else if self.flow_cache.is_none() {
            self.flow_cache = self.cache_key_cap.map(FlowCache::new);
        }
    }

    /// Turn batch-path tracing on or off.
    ///
    /// Tracing defaults to **on** (every packet gets a full [`Trace`], as
    /// the single-packet [`Dataplane::process`] always has). Turning it off
    /// is the fast path for throughput work: `process_batch` then returns
    /// `None` traces and allocates nothing per packet beyond the output
    /// frame.
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    // ------------------------------------------------------------------
    // Control-plane API
    // ------------------------------------------------------------------

    fn extern_id(&self, name: &str) -> Result<usize, ControlError> {
        self.program
            .extern_by_name(name)
            .ok_or_else(|| ControlError::NoSuchExtern(name.to_string()))
    }

    /// Install an arbitrary entry (publishes a new table epoch; see
    /// [`Dataplane::control_plane`] for the detached, mid-batch-capable
    /// handle these methods delegate to).
    pub fn install(
        &mut self,
        table: &str,
        patterns: Vec<ir::IrPattern>,
        action: &str,
        args: Vec<u128>,
        priority: i32,
    ) -> Result<(), ControlError> {
        self.control_plane()
            .install(table, patterns, action, args, priority)?;
        Ok(())
    }

    /// Install an exact-match entry (one value per key).
    pub fn install_exact(
        &mut self,
        table: &str,
        keys: Vec<u128>,
        action: &str,
        args: Vec<u128>,
    ) -> Result<(), ControlError> {
        self.control_plane()
            .install_exact(table, keys, action, args)?;
        Ok(())
    }

    /// Install an LPM entry on a single-key LPM table (priority = prefix
    /// length, so longest prefix wins).
    pub fn install_lpm(
        &mut self,
        table: &str,
        prefix: u128,
        prefix_len: u16,
        action: &str,
        args: Vec<u128>,
    ) -> Result<(), ControlError> {
        self.control_plane()
            .install_lpm(table, prefix, prefix_len, action, args)?;
        Ok(())
    }

    /// Read a counter cell: (packets, bytes).
    pub fn counter(&self, name: &str, index: usize) -> Result<(u64, u64), ControlError> {
        Ok(self.externs.counter_read(self.extern_id(name)?, index))
    }

    /// Read a register cell.
    pub fn register(&self, name: &str, index: usize) -> Result<u128, ControlError> {
        Ok(self.externs.register_read(self.extern_id(name)?, index))
    }

    /// Write a register cell from the control plane.
    pub fn set_register(
        &mut self,
        name: &str,
        index: usize,
        value: u128,
    ) -> Result<(), ControlError> {
        let id = self.extern_id(name)?;
        self.externs.register_write(id, index, value);
        Ok(())
    }

    /// Configure a meter cell.
    pub fn configure_meter(
        &mut self,
        name: &str,
        index: usize,
        config: MeterConfig,
    ) -> Result<(), ControlError> {
        let id = self.extern_id(name)?;
        self.externs.meter_configure(id, index, config);
        Ok(())
    }

    /// Hit/miss/occupancy statistics for a table.
    pub fn table_stats(&self, name: &str) -> Result<(u64, u64, usize, u64), ControlError> {
        let tid = self
            .program
            .table_by_name(name)
            .ok_or_else(|| ControlError::NoSuchTable(name.to_string()))?;
        let t = &self.tables[tid];
        let s = &self.table_stats[tid];
        Ok((s.hits, s.misses, t.len(), t.capacity()))
    }

    /// Refresh the pinned snapshots in `pin_cache` if any publication
    /// happened since they were last pinned. This is the single
    /// epoch-pinning point of every packet path: consulted once per batch
    /// on the batch paths (one coherent table state per window) and once
    /// per packet on the single-packet paths (each packet observes the
    /// epochs current at its injection instant). Steady state — no churn
    /// in flight — costs one atomic load; only an actual publication pays
    /// the per-table lock-and-clone re-pin. The generation is bumped
    /// *after* the snapshot swap, so observing a new generation always
    /// means the new snapshots are visible (re-pinning at a stale
    /// generation merely re-pins once more on the next call).
    fn refresh_pins(&mut self) {
        if self.generation.load(Ordering::Acquire) == self.pin_gen {
            return;
        }
        // Re-pin under the publication lock: no mutation can land between
        // the first and the last table's pin, so the pinned set is always
        // a publication-order prefix — even for multi-table churn.
        let _guard = self.publish_lock.lock().expect("publish lock poisoned");
        self.pin_cache.clear();
        self.pin_cache
            .extend(self.tables.iter().map(|t| t.snapshot()));
        self.pin_gen = self.generation.load(Ordering::Acquire);
    }

    /// Align the flow cache with the pinned generation (must follow
    /// [`Dataplane::refresh_pins`] on every cached packet path): a
    /// publication since the entries were recorded drops them all.
    fn sync_cache(&mut self) {
        if let Some(c) = self.flow_cache.as_mut() {
            c.sync_generation(self.pin_gen);
        }
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    /// The one prologue under every `process*` entry point: count the
    /// `n` packets, pin the current epochs ([`Dataplane::refresh_pins`]),
    /// align the flow cache, build the execution context, then hand
    /// `body` the context plus the flow cache, scratch environment and
    /// trace buffer every [`ExecCtx::run_one`] call takes. The entry
    /// points differ only in what `body` does with each packet's
    /// verdict and trace records.
    fn with_pins<R>(
        &mut self,
        n: usize,
        body: impl FnOnce(&mut ExecCtx<'_>, Option<&mut FlowCache>, &mut Env, &mut TraceBuf) -> R,
    ) -> R {
        self.packets_processed += n as u64;
        self.refresh_pins();
        self.sync_cache();
        // A batch amortises one flat view array over its packets; a lone
        // packet has nothing to amortise it against and reads through
        // the pinned `Arc`s instead (no allocation).
        let views;
        let tables = if n > 1 {
            views = resolve_views(&self.pin_cache);
            TablesRef::Views(&views)
        } else {
            TablesRef::Pinned(&self.pin_cache)
        };
        let mut ctx = ExecCtx {
            program: &self.program,
            compiled: &self.compiled,
            engine: self.engine,
            tables,
            table_stats: &mut self.table_stats,
            externs: &mut self.externs,
        };
        body(
            &mut ctx,
            self.flow_cache.as_mut(),
            &mut self.env_scratch,
            &mut self.trace_buf,
        )
    }

    /// Process a packet arriving on `port` at device time `now_cycles`,
    /// recording a full trace.
    pub fn process(&mut self, port: u16, data: &[u8], now_cycles: u64) -> (Verdict, Trace) {
        self.with_pins(1, |ctx, cache, env, buf| {
            let (verdict, trace) = ctx.run_one(cache, port, data, now_cycles, env, buf, true);
            (verdict, ctx.trace(trace).decode())
        })
    }

    /// Process without tracing (fast path for throughput benchmarks).
    pub fn process_untraced(&mut self, port: u16, data: &[u8], now_cycles: u64) -> Verdict {
        self.with_pins(1, |ctx, cache, env, buf| {
            ctx.run_one(cache, port, data, now_cycles, env, buf, false)
                .0
        })
    }

    /// Process a whole batch of `(ingress port, frame)` pairs arriving at
    /// device time `now_cycles`.
    ///
    /// Semantically identical to calling [`Dataplane::process`] once per
    /// packet in order (table/extern state threads through the batch), but
    /// the epochs are pinned once for the whole batch, and when tracing
    /// is disabled ([`Dataplane::set_tracing`]) no trace events are
    /// recorded at all. Each element of the result is the packet's
    /// verdict plus its trace (`None` when tracing is off).
    pub fn process_batch(
        &mut self,
        pkts: &[(u16, &[u8])],
        now_cycles: u64,
    ) -> Vec<(Verdict, Option<Trace>)> {
        let tracing = self.tracing;
        self.with_pins(pkts.len(), |ctx, mut cache, env, buf| {
            // Each packet records into the one reused flat buffer (or
            // replays a cache entry's stored trace); the returned owned
            // trace is decoded from there, pre-sized exactly from the
            // record count.
            pkts.iter()
                .map(|&(port, data)| {
                    let cache = cache.as_deref_mut();
                    let (verdict, trace) =
                        ctx.run_one(cache, port, data, now_cycles, env, buf, tracing);
                    (verdict, tracing.then(|| ctx.trace(trace).decode()))
                })
                .collect()
        })
    }

    /// Process a batch, streaming each packet's verdict and trace into
    /// `sink` instead of materialising them.
    ///
    /// One flat record buffer is reused for the whole batch; the sink is
    /// handed each packet's verdict by value, with its events as an
    /// undecoded [`LazyTrace`] borrowing that buffer, or the stored trace
    /// of the flow-cache entry the packet hit ([`LazyTrace::decode`] to
    /// keep), before the next packet executes —
    /// so at most one egress frame of the batch is alive unless the sink
    /// keeps them. When tracing is disabled ([`Dataplane::set_tracing`])
    /// the sink still sees every packet, with an empty trace.
    /// Semantically identical to [`Dataplane::process_batch`] — this is
    /// the zero-allocation spine under traced device batching: a sink
    /// that only counts or inspects names never allocates per packet at
    /// all.
    pub fn process_batch_with(
        &mut self,
        pkts: &[(u16, &[u8])],
        now_cycles: u64,
        sink: &mut dyn TraceSink,
    ) {
        let tracing = self.tracing;
        self.with_pins(pkts.len(), |ctx, mut cache, env, buf| {
            for (i, &(port, data)) in pkts.iter().enumerate() {
                let cache = cache.as_deref_mut();
                let (verdict, trace) =
                    ctx.run_one(cache, port, data, now_cycles, env, buf, tracing);
                sink.observe(i, verdict, &ctx.trace(trace));
            }
        })
    }
}

impl ExecCtx<'_> {
    /// The undecoded view of the trace an [`ExecCtx::run_one`] call
    /// returned.
    fn trace<'b>(&'b self, trace: TraceBytes<'b>) -> LazyTrace<'b> {
        LazyTrace::over(trace, self.compiled.names())
    }

    /// Run one packet with full tracing: clears the flat record buffer,
    /// records every event and appends the final verdict summary. The
    /// single finalisation point shared by every traced path —
    /// single-packet, batch and streaming, under either engine — which
    /// is what keeps their traces bit-identical (the
    /// equivalence the proptests pin down).
    fn run_traced(
        &mut self,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        trace: &mut TraceBuf,
    ) -> Verdict {
        trace.clear();
        let verdict = self.run(port, data, now_cycles, env, Some(trace), None);
        trace.final_verdict(&verdict);
        verdict
    }

    /// Run one packet through the flow cache when one is active: a hit
    /// replays the memoized outcome (table statistics, counter bumps,
    /// verdict) without entering either engine; a miss runs the compiled
    /// engine with outcome recording and commits the entry. With no cache
    /// — uncacheable program, cache disabled, or the reference engine
    /// (which stays the unmemoized oracle) — this is exactly the pre-cache
    /// traced/untraced path.
    ///
    /// Returns the verdict and where the packet's trace is: `buf`, or, for
    /// a traced hit, the hit entry's stored trace, read in place. The
    /// trace holds every record (final verdict included) when `tracing`
    /// and is empty otherwise, so streaming consumers see identical event
    /// streams either way. Each call names its own packet's trace, so a
    /// later packet never reads an earlier hit's.
    ///
    /// Always inlined into the entry points, with the miss half out of
    /// line. Called out of line, the returned view went through the stack
    /// (written as 8-byte words, reloaded as 16-byte ones) and an all-hit
    /// stream read ≈ 9 ns/packet slower, untraced included.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn run_one<'t>(
        &mut self,
        cache: Option<&'t mut FlowCache>,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        buf: &'t mut TraceBuf,
        tracing: bool,
    ) -> (Verdict, TraceBytes<'t>) {
        let cache = match cache {
            Some(c) if self.engine == Engine::Compiled => c,
            _ => {
                let verdict = if tracing {
                    self.run_traced(port, data, now_cycles, env, buf)
                } else {
                    buf.clear();
                    self.run(port, data, now_cycles, env, None, None)
                };
                return (verdict, buf.bytes());
            }
        };
        if let Some((verdict, at)) =
            cache.lookup(port, data, tracing, self.table_stats, self.externs)
        {
            let trace = if tracing {
                cache.trace(at)
            } else {
                TraceBytes::default()
            };
            return (verdict, trace);
        }
        let verdict = self.run_miss(cache, port, data, now_cycles, env, buf, tracing);
        (verdict, buf.bytes())
    }

    /// The flow-cache miss half of [`ExecCtx::run_one`]: run the compiled
    /// engine, recording the outcome when the cache will install it, and
    /// leave the packet's trace in `buf`.
    #[allow(clippy::too_many_arguments)]
    fn run_miss(
        &mut self,
        cache: &mut FlowCache,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        buf: &mut TraceBuf,
        tracing: bool,
    ) -> Verdict {
        // First-time misses fail the cache's tag filter and will not be
        // installed — skip the side-effect recording entirely for those.
        let install = cache.will_install();
        buf.clear();
        let verdict = if tracing {
            let rec = install.then(|| cache.record());
            let v = self.run(port, data, now_cycles, env, Some(buf), rec);
            buf.final_verdict(&v);
            v
        } else {
            let rec = install.then(|| cache.record());
            self.run(port, data, now_cycles, env, None, rec)
        };
        if install {
            cache.commit(port, data, &verdict, tracing.then(|| buf.bytes()));
        }
        verdict
    }

    /// Run one packet on the configured [`Engine`]. `rec` captures the
    /// replayable outcome on a flow-cache miss (compiled engine only —
    /// the reference engine never records, and never needs to: the cache
    /// is gated to [`Engine::Compiled`]).
    fn run(
        &mut self,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        trace: Option<&mut TraceBuf>,
        rec: Option<&mut crate::cache::MissRecord>,
    ) -> Verdict {
        match self.engine {
            Engine::Compiled => compile::exec(
                self.compiled,
                self.tables,
                self.table_stats,
                self.externs,
                env,
                port,
                data,
                now_cycles,
                trace,
                rec,
            ),
            Engine::Reference => self.run_reference(port, data, now_cycles, env, trace),
        }
    }

    /// The reference engine: the IR walker ([`walk::walk`]) over `u128`
    /// values, then the verdict and deparse. The executable specification
    /// the compiled engine is differentially validated against.
    fn run_reference(
        &mut self,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        trace: Option<&mut TraceBuf>,
    ) -> Verdict {
        env.reset(port, data.len(), now_cycles);
        let mut d = Concrete {
            prog: self.program,
            tables: self.tables,
            table_stats: self.table_stats,
            externs: self.externs,
            env,
            trace,
            data,
            cursor_bits: 0,
            now: now_cycles,
        };
        match walk::walk(self.program, &mut d) {
            End::Rejected => Verdict::Drop(DropReason::ParserReject),
            End::TooShort => Verdict::Drop(DropReason::PacketTooShort),
            End::Done { dropped: true, .. } => Verdict::Drop(DropReason::ActionDrop),
            End::Done {
                egress_written: false,
                ..
            } => Verdict::Drop(DropReason::NoEgress),
            End::Done { .. } => {
                // The unparsed payload stays a borrowed slice; the deparser
                // copies it straight into the output frame.
                let payload = &data[(d.cursor_bits / 8).min(data.len())..];
                let out = deparse(self.program, d.env, payload, &mut d.trace);
                let egress = d.env.egress_spec;
                if egress == FLOOD_PORT {
                    Verdict::Flood { data: out }
                } else if egress > FLOOD_PORT {
                    Verdict::Drop(DropReason::BadEgress)
                } else {
                    Verdict::Forward {
                        port: egress as u16,
                        data: out,
                    }
                }
            }
        }
    }
}

/// Emit the valid headers in deparse order from their field values, then
/// the payload.
fn deparse(
    prog: &ir::Program,
    env: &Env,
    payload: &[u8],
    trace: &mut Option<&mut TraceBuf>,
) -> Vec<u8> {
    let mut out_bits = 0usize;
    for &hid in &prog.deparse {
        if env.headers[hid].valid {
            out_bits += prog.headers[hid].bit_width as usize;
        }
    }
    // Zero the header bytes only; the payload is written once, by the copy.
    let mut out = Vec::with_capacity(out_bits / 8 + payload.len());
    out.resize(out_bits / 8, 0);
    let mut cursor = 0usize;
    for &hid in &prog.deparse {
        if !env.headers[hid].valid {
            continue;
        }
        let layout = &prog.headers[hid];
        if let Some(t) = trace.as_deref_mut() {
            t.emit(hid as u32);
        }
        for (f, value) in layout.fields.iter().zip(&env.headers[hid].fields) {
            write_bits(
                &mut out,
                cursor + f.offset_bits as usize,
                f.width_bits as usize,
                *value,
            );
        }
        cursor += layout.bit_width as usize;
    }
    out.extend_from_slice(payload);
    out
}

/// The reference engine's value domain: `u128` bit-vectors in the packet's
/// [`Env`]. It decides every branch by evaluating it, and as it goes it
/// records the trace (raw state, header and table ids, named lazily on
/// decode, as the compiled engine records them), updates table statistics
/// and runs the externs.
struct Concrete<'a, 'p> {
    prog: &'p ir::Program,
    tables: TablesRef<'p>,
    table_stats: &'a mut [TableStats],
    externs: &'a mut ExternState,
    env: &'a mut Env,
    trace: Option<&'a mut TraceBuf>,
    data: &'a [u8],
    /// The parser's position in `data`.
    cursor_bits: usize,
    now: u64,
}

impl Concrete<'_, '_> {
    /// Where `place` lives in the environment.
    #[inline]
    fn slot(&mut self, place: Place) -> &mut u128 {
        let env = &mut *self.env;
        match place {
            Place::Field(h, f) => &mut env.headers[h].fields[f],
            Place::Meta(m) => &mut env.meta[m],
            Place::Std(StdField::IngressPort) => &mut env.ingress_port,
            Place::Std(StdField::EgressSpec | StdField::EgressPort) => &mut env.egress_spec,
            Place::Std(StdField::PacketLength) => &mut env.packet_length,
            Place::Std(StdField::IngressTimestamp) => &mut env.ts_cycles,
            Place::Local(l) => &mut env.locals[l],
        }
    }
}

// Every method is `#[inline]`: the walker's instance for this domain may
// land in another codegen unit, and called out of line these one-field
// accesses made the reference engine about 10 % slower per `l2_switch`
// packet (2-core x86-64 host).
impl Domain for Concrete<'_, '_> {
    type Val = u128;

    #[inline]
    fn valid(&self, h: usize) -> bool {
        self.env.headers[h].valid
    }

    #[inline]
    fn set_valid(&mut self, h: usize, valid: bool) {
        let hv = &mut self.env.headers[h];
        hv.valid = valid;
        if !valid {
            hv.fields.fill(0);
        }
    }

    #[inline]
    fn load(&mut self, place: Place) -> u128 {
        *self.slot(place)
    }

    #[inline]
    fn store(&mut self, place: Place, v: u128) {
        *self.slot(place) = truncate(v, place.width(self.prog));
    }

    #[inline]
    fn param(&mut self, index: usize, width: u16) -> u128 {
        truncate(self.env.action_args.get(index).copied().unwrap_or(0), width)
    }

    #[inline]
    fn key_buf(&mut self) -> &mut Vec<u128> {
        &mut self.env.key_scratch
    }

    #[inline]
    fn event(&mut self, event: Event) {
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        match event {
            Event::State(s) => t.state(s as u32),
            Event::Accept => t.accept(),
            Event::Reject => t.reject(),
            Event::Control(c) => t.control(c as u32),
            Event::Exit => t.exit(),
            Event::MarkDrop => t.mark_drop(),
            Event::Goto(_) => {}
        }
    }

    #[inline]
    fn extract(&mut self, h: usize) -> bool {
        let layout = &self.prog.headers[h];
        let at = self.cursor_bits;
        if at + layout.bit_width as usize > self.data.len() * 8 {
            return false;
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.extract(h as u32, at as u32);
        }
        let hv = &mut self.env.headers[h];
        hv.valid = true;
        for (slot, f) in hv.fields.iter_mut().zip(&layout.fields) {
            *slot = read_bits(
                self.data,
                at + f.offset_bits as usize,
                f.width_bits as usize,
            );
        }
        self.cursor_bits += layout.bit_width as usize;
        true
    }

    #[inline]
    fn select(
        &mut self,
        keys: &[u128],
        arms: &[ir::SelectArm],
        default: TransTarget,
    ) -> TransTarget {
        arms.iter()
            .find(|arm| arm.patterns.iter().zip(keys).all(|(p, k)| p.matches(*k)))
            .map_or(default, |arm| arm.target)
    }

    #[inline]
    fn branch(&mut self, cond: u128) -> bool {
        cond != 0
    }

    #[inline]
    fn apply(&mut self, tid: usize, keys: &[u128]) -> (usize, bool) {
        let args = &mut self.env.action_args;
        args.clear();
        let (aid, hit) = match self.tables.lookup(tid, keys) {
            Some(entry) => {
                args.extend_from_slice(&entry.action.args);
                (entry.action.action, true)
            }
            None => {
                let default = &self.prog.tables[tid].default_action;
                args.extend_from_slice(&default.args);
                (default.action, false)
            }
        };
        self.table_stats[tid].record(hit);
        if let Some(t) = self.trace.as_deref_mut() {
            t.table(tid as u32, aid as u32, hit, keys);
        }
        (aid, hit)
    }

    #[inline]
    fn count(&mut self, id: usize, index: u128) {
        self.externs
            .counter_inc(id, index as usize, self.data.len());
    }

    #[inline]
    fn register_read(&mut self, id: usize, index: u128) -> u128 {
        self.externs.register_read(id, index as usize)
    }

    #[inline]
    fn register_write(&mut self, id: usize, index: u128, value: u128) {
        self.externs.register_write(id, index as usize, value);
    }

    #[inline]
    fn meter(&mut self, id: usize, index: u128) -> u128 {
        self.externs.meter_execute(id, index as usize, self.now)
    }
}
