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
use crate::cache::{CacheKey, CacheStats, FlowCache};
use crate::compile::{self, CompiledProgram};
use crate::control::{ControlError, ControlPlane, TableEntry, Update};
use crate::externs::{ExternState, MeterConfig};
use crate::table::{Cell, Table, TableStats, Tables};
use crate::trace::{
    egress_buffer, DropReason, EgressFrame, LazyTrace, Recording, Trace, TraceBuf, TraceBytes,
    TraceSink, Verdict,
};
use netdebug_p4::ir::{self, truncate, StdField, TransTarget};
use netdebug_p4::walk::{self, Domain, End, Event, Place};
use std::sync::{Arc, Mutex};

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
    /// The reference engine's scratch for evaluated table/select keys
    /// (reused buffer; the compiled engine reads keys on its stack).
    pub(crate) key_scratch: Vec<u128>,
    /// The compiled engine's value stack, sized to the compiled program's
    /// checked maximum depth.
    pub(crate) stack: Vec<u128>,
}

impl Env {
    /// Allocate an environment shaped for `program`, whose compiled code
    /// runs at stack depths up to `depth`.
    pub(crate) fn new(program: &ir::Program, depth: usize) -> Self {
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
            stack: vec![0; depth],
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
///   with clones) and the tables: one publication cell holds every
///   table's [`crate::EntrySnapshot`] as one value, which the packet path
///   pins with one `Arc` clone for the length of each batch, while the
///   control plane — possibly from another thread, through a detached
///   [`ControlPlane`] handle — publishes successor epochs under the
///   cell's lock; a pinned cut is never edited (a mid-batch install
///   copies what it touches first, see [`crate::table`]).
/// * **mutable** — table hit/miss statistics (`table_stats`) and extern
///   state (`externs`), owned by the one thread running the batch, less
///   the flow-cache hits not folded into them yet ([`crate::cache`]):
///   every read and copy of them counts those in.
#[derive(Debug)]
pub struct Dataplane {
    /// The program and the publication cell (the current tables, their
    /// generation and the write log), held as the one control-plane
    /// handle every other [`ControlPlane`] clones. An install commits
    /// through it in place: building a handle per install cloned and
    /// dropped its two `Arc`s, ≈ 25 ns of a ≈ 175 ns `dmac` install
    /// (best of 2 048-install loops on a 2-core x86-64 host).
    control: ControlPlane,
    /// The flat bytecode the default engine executes (compiled once at
    /// construction, shared with clones).
    compiled: Arc<CompiledProgram>,
    /// Which engine the packet paths run ([`Engine::Compiled`] default).
    engine: Engine,
    table_stats: Vec<TableStats>,
    externs: ExternState,
    packets_processed: u64,
    tracing: bool,
    /// The per-packet execution environment, allocated once and reused
    /// by every packet path (single-packet and batch alike).
    env_scratch: Env,
    /// The flat per-packet trace record buffer, allocated once and
    /// reused by every traced path; it grows to the batch's high-water
    /// event volume and stays there (see [`crate::trace::TraceBuf`]).
    trace_buf: TraceBuf,
    /// The flow cache ([`crate::cache`]): present when the
    /// program is cacheable and caching is enabled.
    flow_cache: Option<FlowCache>,
}

impl Clone for Dataplane {
    /// Deep-copies the runtime state: the clone gets its own publication
    /// cell around the same tables (sharing them is safe — a publication
    /// on either side copies what it edits first), with an empty write
    /// log, so control-plane handles and installs on one copy never leak
    /// into the other. The compiled program and bytecode are shared, and
    /// the statistics and counters are copied with the flow cache's
    /// unfolded hits counted in.
    fn clone(&self) -> Self {
        let tables = Arc::clone(&Cell::lock(&self.control.tables).tables);
        let (table_stats, externs) = self.totals();
        Dataplane {
            control: ControlPlane {
                program: Arc::clone(&self.control.program),
                tables: Arc::new(Mutex::new(Cell::new(tables))),
            },
            compiled: Arc::clone(&self.compiled),
            engine: self.engine,
            table_stats,
            externs,
            packets_processed: self.packets_processed,
            tracing: self.tracing,
            env_scratch: Env::new(&self.control.program, self.compiled.max_depth),
            trace_buf: TraceBuf::default(),
            // The clone caches independently (its table state may diverge
            // immediately); it starts cold with its own counters.
            flow_cache: if self.flow_cache.is_some() {
                self.compiled.cache_key.is_some().then(FlowCache::new)
            } else {
                None
            },
        }
    }
}

/// A consistent capture of a [`Dataplane`]'s runtime state, produced by
/// [`Dataplane::checkpoint`] and reinstated by [`Dataplane::restore`].
///
/// Table entry state is held as one pinned cut of every table — the same
/// value a batch pins — so a checkpoint costs one `Arc` clone plus the
/// extern/statistics copies (with the flow cache's unfolded hits folded
/// into them), not a copy of the entry lists (the first
/// publication after it copies the vector of tables and the one snapshot
/// it edits). Checkpoints are the substrate of the fault-recovery path:
/// quarantined devices rewind to their last checkpoint and replay
/// forward past the culprit frame.
#[derive(Debug, Clone)]
pub struct DataplaneCheckpoint {
    tables: Arc<Tables>,
    externs: ExternState,
    table_stats: Vec<TableStats>,
    packets_processed: u64,
}

impl DataplaneCheckpoint {
    /// The table epochs this checkpoint pinned, in table-declaration
    /// order.
    pub fn epochs(&self) -> Vec<u64> {
        self.tables
            .tables
            .iter()
            .map(|t| t.snapshot.epoch())
            .collect()
    }
}

/// Split borrows for the execution hot path: the immutable program (IR
/// and compiled bytecode) and the batch's pinned tables on one side, the
/// mutable runtime state on the other. Holding the program through plain
/// shared references is what lets both engines walk parser states,
/// control bodies and action bodies without cloning them per packet, and
/// holding the tables through the batch's pin (`&[Table]`, borrowed from
/// the one `Arc<Tables>` the batch cloned) is what lets the control plane
/// publish new epochs mid-batch without perturbing in-flight packets: a
/// table apply reads `tables[tid].snapshot`, which such a publication
/// copies rather than edits.
pub(crate) struct ExecCtx<'p> {
    pub(crate) program: &'p ir::Program,
    pub(crate) compiled: &'p CompiledProgram,
    pub(crate) engine: Engine,
    pub(crate) tables: &'p [Table],
    pub(crate) table_stats: &'p mut [TableStats],
    pub(crate) externs: &'p mut ExternState,
}

impl Dataplane {
    /// Instantiate a data plane for a compiled program (const entries
    /// installed, externs zeroed).
    pub fn new(program: ir::Program) -> Self {
        Self::with_table_capacities(program, &[])
    }

    /// Instantiate with per-table capacity overrides (used by hardware
    /// backends that quantize or truncate table memories). Tables past
    /// the end of `capacities` keep their declared size.
    pub fn with_table_capacities(program: ir::Program, capacities: &[u64]) -> Self {
        let tables = program
            .tables
            .iter()
            .enumerate()
            .map(|(tid, t)| Table::new(t, capacities.get(tid).copied().unwrap_or(t.size)))
            .collect();
        let externs = ExternState::new(&program.externs);
        let table_stats = vec![TableStats::default(); program.tables.len()];
        let compiled = Arc::new(CompiledProgram::compile(&program));
        let env_scratch = Env::new(&program, compiled.max_depth);
        Dataplane {
            control: ControlPlane {
                program: Arc::new(program),
                tables: Arc::new(Mutex::new(Cell::new(Arc::new(Tables {
                    generation: 1,
                    tables,
                })))),
            },
            engine: Engine::Compiled,
            table_stats,
            externs,
            packets_processed: 0,
            tracing: true,
            env_scratch,
            trace_buf: TraceBuf::default(),
            flow_cache: compiled.cache_key.is_some().then(FlowCache::new),
            compiled,
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
    /// write entries **while batches run**, each write one epoch; the
    /// in-flight batch keeps the tables it pinned. Hardware-bug transforms
    /// live in `netdebug-hw`'s driver, `Device::write`, not here.
    pub fn control_plane(&self) -> ControlPlane {
        self.control.clone()
    }

    /// Capture a checkpoint of the runtime state: the published tables
    /// (one pinned `Arc`, no entry copies), extern counters/registers/meters,
    /// table statistics and the processing counters. The tables are one
    /// published value, so even a checkpoint taken during concurrent
    /// multi-table churn holds a cut some publication order produced.
    pub fn checkpoint(&self) -> DataplaneCheckpoint {
        let (table_stats, externs) = self.totals();
        DataplaneCheckpoint {
            tables: Arc::clone(&Cell::lock(&self.control.tables).tables),
            externs,
            table_stats,
            packets_processed: self.packets_processed,
        }
    }

    /// Copies of the table statistics and the extern state, with the hits
    /// the flow cache has not folded yet counted in.
    fn totals(&self) -> (Vec<TableStats>, ExternState) {
        let (mut table_stats, mut externs) = (self.table_stats.clone(), self.externs.clone());
        if let Some(c) = &self.flow_cache {
            c.folded(&mut table_stats, &mut externs);
        }
        (table_stats, externs)
    }

    /// Reinstate a [`DataplaneCheckpoint`] taken from this data plane (or
    /// a clone sharing its program): table snapshots swap back to the
    /// checkpointed epochs, externs and statistics are overwritten, and
    /// the publication generation is *bumped* (not rewound) with a gap in
    /// the write log, so the flow cache drops every entry on the next
    /// batch instead of serving post-checkpoint state. The hits its
    /// entries have not folded are forgotten: the checkpoint counts those
    /// from before it.
    ///
    /// Later publications resume counting each table's epoch from the
    /// restored one (copying first: the checkpoint still pins it), so a
    /// replayed churn schedule republishes the epoch sequence it produced
    /// the first time.
    pub fn restore(&mut self, checkpoint: &DataplaneCheckpoint) {
        {
            let mut cell = Cell::lock(&self.control.tables);
            cell.tables = Arc::new(Tables {
                generation: cell.tables.generation + 1,
                tables: checkpoint.tables.tables.clone(),
            });
            cell.lose();
        }
        if let Some(c) = self.flow_cache.as_mut() {
            c.discard();
        }
        self.externs = checkpoint.externs.clone();
        self.table_stats = checkpoint.table_stats.clone();
        self.packets_processed = checkpoint.packets_processed;
    }

    /// The compiled program.
    pub fn program(&self) -> &ir::Program {
        &self.control.program
    }

    /// A printable disassembly of the bytecode — one line per
    /// instruction with mnemonic, resolved names and jump targets.
    pub fn disassemble(&self) -> crate::disasm::Disassembly<'_> {
        self.compiled.disassemble(&self.control.program)
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
    /// [`ir::Cacheability::Cacheable`] and caching has not been switched
    /// off).
    pub fn flow_cache_enabled(&self) -> bool {
        self.flow_cache.is_some()
    }

    /// Enable or disable the flow cache. Enabling is a no-op for
    /// programs the cacheability analysis rejects **and for a cache that
    /// is already enabled** (resident entries and the cumulative
    /// [`Dataplane::cache_stats`] counters are kept, so `hits` never
    /// runs backwards); disabling folds the resident entries' hits into
    /// the statistics and counters, then drops the entries and the cache
    /// counters with them (re-enabling starts cold).
    pub fn set_flow_cache(&mut self, enabled: bool) {
        if !enabled {
            if let Some(mut c) = self.flow_cache.take() {
                c.fold(&mut self.table_stats, &mut self.externs);
            }
        } else if self.flow_cache.is_none() {
            self.flow_cache = self.compiled.cache_key.is_some().then(FlowCache::new);
        }
    }

    /// Turn batch-path tracing on or off.
    ///
    /// Tracing defaults to **on** (every packet gets a full [`Trace`], as
    /// the single-packet [`Dataplane::process`] always has). Turning it off
    /// is the fast path for throughput work: `process_batch` then returns
    /// `None` traces and allocates nothing per packet beyond the output
    /// frame it keeps.
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    /// What the batch paths record: everything, or nothing with tracing
    /// off.
    fn batch_level(&self) -> Recording {
        if self.tracing {
            Recording::Everything
        } else {
            Recording::Nothing
        }
    }

    // ------------------------------------------------------------------
    // Control-plane API
    // ------------------------------------------------------------------

    fn extern_id(&self, name: &str) -> Result<usize, ControlError> {
        self.control
            .program
            .extern_by_name(name)
            .ok_or_else(|| ControlError::NoSuchExtern(name.to_string()))
    }

    /// Install an entry: the one-insert view of [`ControlPlane::write`],
    /// moving the pattern and argument lists into the table uncopied.
    pub fn install(
        &mut self,
        table: &str,
        patterns: Vec<ir::IrPattern>,
        action: &str,
        args: Vec<u128>,
        priority: i32,
    ) -> Result<(), ControlError> {
        let entry = TableEntry::new(patterns, action, args, priority);
        self.control.commit(&mut [Update::Insert(table, entry)])?;
        Ok(())
    }

    /// Read a counter cell: (packets, bytes).
    pub fn counter(&self, name: &str, index: usize) -> Result<(u64, u64), ControlError> {
        let id = self.extern_id(name)?;
        let (packets, bytes) = self.externs.counter_read(id, index);
        let (p, b) = self
            .flow_cache
            .as_ref()
            .map_or((0, 0), |c| c.unfolded_count(id, index));
        Ok((packets + p, bytes + b))
    }

    /// Read a register cell.
    pub fn register(&self, name: &str, index: usize) -> Result<u128, ControlError> {
        Ok(self.externs.register_read(self.extern_id(name)?, index))
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
            .control
            .program
            .table_by_name(name)
            .ok_or_else(|| ControlError::NoSuchTable(name.to_string()))?;
        let cell = Cell::lock(&self.control.tables);
        let t = &cell.tables.tables[tid];
        let (s, c) = (self.table_stats[tid], self.flow_cache.as_ref());
        let unfolded = c.map(|c| c.unfolded_lookups(tid)).unwrap_or_default();
        let (hits, misses) = (s.hits + unfolded.hits, s.misses + unfolded.misses);
        Ok((hits, misses, t.snapshot.len(), t.capacity))
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    /// The one prologue around every `process*` entry point: count the
    /// `n` packets; under one lock of the publication cell, pin the
    /// current tables (one `Arc` clone, held in a local), hand the write
    /// log to the flow cache, which drops the entries whose lookups a
    /// logged write can change (all of them after a gap), and empty the
    /// log; then build the execution context, and hand `body` the
    /// context plus the flow cache, scratch environment and trace buffer
    /// every [`ExecCtx::run_one`] call takes. The pin drops when `body`
    /// returns or unwinds. A publication during `body` copies what it
    /// edits and leaves the batch on its cut; one between batches finds
    /// no pin and edits in place. The entry points differ only in what
    /// `body` does with each packet's verdict and trace records.
    fn with_pins<R>(
        &mut self,
        n: usize,
        body: impl FnOnce(&mut ExecCtx<'_>, Option<&mut FlowCache>, &mut Env, &mut TraceBuf) -> R,
    ) -> R {
        self.packets_processed += n as u64;
        let pin = {
            let mut cell = Cell::lock(&self.control.tables);
            if let Some(c) = self.flow_cache.as_mut() {
                let (stats, externs) = (&mut self.table_stats, &mut self.externs);
                c.sync(cell.tables.generation, cell.writes(), stats, externs);
            }
            cell.consumed(self.flow_cache.is_some());
            Arc::clone(&cell.tables)
        };
        let mut ctx = ExecCtx {
            program: &self.control.program,
            compiled: &self.compiled,
            engine: self.engine,
            tables: &pin.tables,
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
            let (verdict, trace) = ctx.run_one(
                cache,
                port,
                data,
                now_cycles,
                env,
                buf,
                Recording::Everything,
            );
            (verdict, ctx.trace(trace).decode())
        })
    }

    /// Process without tracing (fast path for throughput benchmarks).
    pub fn process_untraced(&mut self, port: u16, data: &[u8], now_cycles: u64) -> Verdict {
        self.with_pins(1, |ctx, cache, env, buf| {
            ctx.run_one(cache, port, data, now_cycles, env, buf, Recording::Nothing)
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
        let (tracing, level) = (self.tracing, self.batch_level());
        self.with_pins(pkts.len(), |ctx, mut cache, env, buf| {
            // Each traced packet records into the one reused flat buffer
            // (a records reader bypasses the flow cache); the returned
            // owned trace is decoded from there, pre-sized exactly from
            // the record count.
            pkts.iter()
                .map(|&(port, data)| {
                    let cache = cache.as_deref_mut();
                    let (verdict, trace) =
                        ctx.run_one(cache, port, data, now_cycles, env, buf, level);
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
    /// undecoded [`LazyTrace`] borrowing that buffer, or for a sink that
    /// reads no records the stage lane stored in the flow-cache entry the
    /// packet hit ([`LazyTrace::decode`] to keep), before the next packet
    /// executes —
    /// so at most one egress frame of the batch is alive unless the sink
    /// keeps them. When tracing is disabled ([`Dataplane::set_tracing`])
    /// the sink still sees every packet, with an empty trace; when the
    /// sink reads no records ([`TraceSink::reads_records`], asked once per
    /// call) each trace holds the stage lane alone.
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
        let level = match self.batch_level() {
            Recording::Everything if !sink.reads_records() => Recording::Stages,
            level => level,
        };
        self.with_pins(pkts.len(), |ctx, mut cache, env, buf| {
            for (i, &(port, data)) in pkts.iter().enumerate() {
                let cache = cache.as_deref_mut();
                let (verdict, trace) = ctx.run_one(cache, port, data, now_cycles, env, buf, level);
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

    /// Run one packet, recording its trace into `buf` at `level`: clears
    /// the flat record buffer, records the events and appends the final
    /// verdict summary (the stage lane alone at [`Recording::Stages`],
    /// nothing at [`Recording::Nothing`]). `rec` captures a flow-cache
    /// miss's outcome. The single finalisation point shared by every
    /// path — single-packet, batch and streaming, cached or not, under
    /// either engine — which is what keeps their traces bit-identical
    /// (the equivalence the proptests pin down).
    #[allow(clippy::too_many_arguments)]
    fn run_recorded(
        &mut self,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        buf: &mut TraceBuf,
        level: Recording,
        rec: Option<&mut crate::cache::MissRecord>,
    ) -> Verdict {
        buf.start(level);
        if level == Recording::Nothing {
            return self.run(port, data, now_cycles, env, None, rec);
        }
        let verdict = self.run(port, data, now_cycles, env, Some(buf), rec);
        buf.final_verdict(&verdict);
        verdict
    }

    /// Run one packet through the flow cache when one is active: a hit
    /// replays the memoized verdict, and counts itself on its entry for
    /// the table statistics and counters, without entering either
    /// engine; a miss runs the compiled engine with outcome recording
    /// and commits the entry. With no cache
    /// — uncacheable program, cache disabled, the reference engine
    /// (which stays the unmemoized oracle), a records reader
    /// ([`Recording::Everything`]), or a dormant cache letting the packet
    /// through unprobed — this is exactly the pre-cache path.
    ///
    /// Returns the verdict and where the packet's trace is: `buf`, or, for
    /// a hit read at [`Recording::Stages`], the hit entry's stored stage
    /// lane, read in place. The trace holds what `level` asks for (every
    /// record, final verdict included; the stage lane alone; or nothing),
    /// so streaming consumers see identical event streams either way. Each
    /// call names its own packet's trace, so a later packet never reads an
    /// earlier hit's.
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
        level: Recording,
    ) -> (Verdict, TraceBytes<'t>) {
        let cache =
            cache.filter(|_| self.engine == Engine::Compiled && level != Recording::Everything);
        let Some((cache, key)) = cache
            .and_then(|c| c.probes().then_some(c))
            .zip(self.compiled.cache_key.as_ref())
        else {
            let verdict = self.run_recorded(port, data, now_cycles, env, buf, level, None);
            return (verdict, buf.bytes());
        };
        let untraced = level == Recording::Nothing;
        if let Some(at) = cache.probe(key, port, data) {
            let verdict = cache.replay(key, at, data);
            let trace = if untraced {
                TraceBytes::default()
            } else {
                cache.trace(at)
            };
            return (verdict, trace);
        }
        let verdict = self.run_miss(cache, key, port, data, now_cycles, env, buf, level);
        let trace = if untraced {
            TraceBytes::default()
        } else {
            buf.bytes()
        };
        (verdict, trace)
    }

    /// The flow-cache miss half of [`ExecCtx::run_one`]: run the compiled
    /// engine, recording the outcome, and leave the packet's trace in
    /// `buf`. A miss the cache records runs at [`Recording::Stages`] for an
    /// untraced caller too, so every entry stores its stage lane. Whether
    /// the cache installs the outcome is decided by the commit, once the
    /// run knows which key bytes its lookups examined.
    #[allow(clippy::too_many_arguments)]
    fn run_miss(
        &mut self,
        cache: &mut FlowCache,
        key: &CacheKey,
        port: u16,
        data: &[u8],
        now_cycles: u64,
        env: &mut Env,
        buf: &mut TraceBuf,
        level: Recording,
    ) -> Verdict {
        let tables = self.tables;
        let mut rec = cache.record(key, || {
            tables.iter().any(|t| !t.snapshot.examines_every_bit())
        });
        let level = match level {
            Recording::Nothing if rec.is_some() => Recording::Stages,
            level => level,
        };
        let verdict =
            self.run_recorded(port, data, now_cycles, env, buf, level, rec.as_deref_mut());
        if let Some(rec) = rec {
            rec.located(key, |h| env.headers[h].offset);
            let lane = buf.bytes().lane;
            cache.commit(
                key,
                port,
                data,
                &verdict,
                lane,
                self.table_stats,
                self.externs,
            );
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
            Engine::Compiled => compile::exec(self, env, port, data, now_cycles, trace, rec),
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
) -> EgressFrame {
    let mut out_bits = 0usize;
    for &hid in &prog.deparse {
        if env.headers[hid].valid {
            out_bits += prog.headers[hid].bit_width as usize;
        }
    }
    // Zero the header bytes only; the payload is written once, by the copy.
    let mut out = egress_buffer(out_bits / 8 + payload.len());
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
    out.into()
}

/// The reference engine's value domain: `u128` bit-vectors in the packet's
/// [`Env`]. It decides every branch by evaluating it, and as it goes it
/// records the trace (raw state, header and table ids, named lazily on
/// decode, as the compiled engine records them), updates table statistics
/// and runs the externs.
struct Concrete<'a, 'p> {
    prog: &'p ir::Program,
    tables: &'p [Table],
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
        let (aid, hit) = match self.tables[tid].snapshot.lookup(keys) {
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
