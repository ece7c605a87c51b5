//! Load-time bytecode compilation of the pipeline IR.
//!
//! The IR walker (`netdebug_p4::walk`, run by [`crate::interp`]'s
//! reference engine) *defines* the semantics of this reproduction, but it
//! pays for that clarity on every
//! packet: recursive [`IrExpr`] evaluation, enum dispatch per statement,
//! and a pointer chase per parser state. [`CompiledProgram::compile`]
//! lowers an [`ir::Program`] **once at load time** into a single flat
//! instruction array ([`OpCode`]) executed by `exec`, a tight
//! non-recursive loop over a program counter:
//!
//! * expressions become stack-machine opcodes (operand widths, concat
//!   shifts and slice masks pre-resolved);
//! * control flow — `if`/`else`, parser `select`, `exit` — becomes jumps
//!   with absolute, pre-patched targets;
//! * table applies become one [`OpCode::Apply`] that evaluates nothing:
//!   keys are already on the stack, the matched action's body is entered
//!   by jumping to its pre-compiled address (actions cannot apply tables,
//!   so a single link register replaces a call stack);
//! * a table keyed on one header field applies through the one fused
//!   opcode, [`OpCode::FieldApply`] (the flow cache's wildcard analysis
//!   is defined on it); every other shape is the generic stack sequence;
//! * the finished code is **checked once** (`check`): every reachable pc
//!   gets one value-stack depth, so no pop finds the stack empty and the
//!   executor's stack is a buffer sized to the deepest pc;
//! * header extraction and deparsing run from per-header
//!   `HeaderPlan`s: a header always starts on a byte, so each field's
//!   byte span, shift and mask relative to the header start are resolved
//!   here, once — Ethernet's whole bytes, IPv4's nibbles and its
//!   3+13-bit pair alike are one word-wide load or store. A scan of the
//!   finished code marks which fields it reads or writes: extract loads
//!   only those, and deparse copies an extracted header's ingress bytes
//!   and stores only the fields the code wrote over them, so an
//!   unreordered frame leaves as one copy plus the written fields;
//! * every trace-visible name (parser states, headers, controls, tables,
//!   actions) is interned as an `Arc<str>` at compile time, so traced
//!   execution clones pointers, never strings.
//!
//! The opcodes compute with the walker's own operator semantics
//! (`eval_un`, `eval_bin`) and parser state budget.
//!
//! The compiled engine is **bit-identical** to the tree-walker by
//! construction and by property test (see `tests/prop.rs`): same
//! verdicts, same traces, same statistics and extern state, packet by
//! packet. The tree-walker stays on as the reference oracle —
//! [`crate::Engine::Reference`] — mirroring the
//! reference-interpreter-as-ground-truth methodology the paper applies
//! to hardware: the fast data plane is itself a validated data plane.

use crate::bits::FieldPlan;
use crate::cache::{CacheKey, MissRecord, Wild, NOT_WILD, READ, WRITTEN};
use crate::interp::{Env, ExecCtx, FLOOD_PORT};
use crate::table::key_dependency;
use crate::trace::{
    egress_buffer, DropReason, EgressFrame, TraceBuf, TraceName, TraceTables, Verdict,
};
use netdebug_p4::ast::{BinOp, UnOp};
use netdebug_p4::ir::{
    self, all_ones, truncate, Cacheability, IrExpr, IrPattern, IrStmt, IrTransition, LValue, Op,
    ParserOp, StateId, StdField, TransTarget,
};
use netdebug_p4::walk::{eval_bin, eval_un, PARSER_STATE_BUDGET};
use std::mem::{replace, take};

/// Sentinel for "no hit-capture local" in [`OpCode::Apply`].
pub(crate) const NO_HIT_LOCAL: u32 = u32::MAX;

/// One instruction of the flat engine.
///
/// Operand-free where possible; all ids, widths, shifts and jump targets
/// are resolved at compile time. Expression opcodes operate on the
/// per-packet value stack (`Env::stack`); statement opcodes mutate the
/// packet environment, tables and externs exactly as the tree-walker's
/// corresponding match arms do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpCode {
    // -------- expression stack --------
    /// Push a constant.
    Const(u128),
    /// Push a header field (0 when the header is invalid, as the
    /// walker defines reads of invalid headers).
    LoadField(u32, u32),
    /// Push a header field without the validity check (the
    /// read-modify-write half of a slice assignment, mirroring the
    /// walker's `read_lvalue`).
    LoadFieldRaw(u32, u32),
    /// Push a user-metadata field.
    LoadMeta(u32),
    /// Push a standard-metadata field.
    LoadStd(StdField),
    /// Push an action runtime parameter, truncated to its width.
    LoadParam(u32, u16),
    /// Push a local.
    LoadLocal(u32),
    /// Push a header's validity bit.
    LoadIsValid(u32),
    /// Unary operation on the top of stack.
    Un(UnOp, u16),
    /// Binary operation (top = rhs); `Concat` compiles to [`OpCode::Concat`].
    Bin(BinOp, u16),
    /// `a ++ b` with the rhs width pre-resolved to a shift.
    Concat(u16, u16),
    /// Bit slice `[hi:lo]` of the top of stack.
    SliceE(u16, u16),
    /// Truncate/zero-extend the top of stack to a width.
    CastE(u16),
    /// Slice read-modify-write merge: pops the current value, then the
    /// new slice value, pushes the merged word.
    SliceMerge(u16, u16),

    // -------- stores --------
    /// Pop into a header field (truncated to the field width).
    StoreField(u32, u32, u16),
    /// Pop into a metadata field.
    StoreMeta(u32, u16),
    /// Pop into a local.
    StoreLocal(u32, u16),
    /// Pop into `egress_spec`: truncate to 9 bits, mark egress written,
    /// clear the drop flag (v1model revive semantics).
    StoreEgressSpec,
    /// Pop into `packet_length` (32 bits).
    StorePacketLength,
    /// Pop into the ingress timestamp (48 bits).
    StoreTimestamp,
    /// Pop and discard (writes to read-only standard fields).
    Pop,

    // -------- control flow --------
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when zero.
    BranchIfZero(u32),
    /// Return from an action body to the link register.
    Return,
    /// `exit`: record the trace event and jump to the pipeline epilogue.
    Exit(u32),

    // -------- tables / externs / primitives --------
    /// Apply table `tid`: pops `nkeys` evaluated keys, looks up through
    /// the pinned table state, records statistics and the optional
    /// hit-capture local, traces, then jumps into the matched (or
    /// default) action body with the link register set.
    Apply {
        /// Table id.
        tid: u32,
        /// Number of keys on the stack.
        nkeys: u16,
        /// Local receiving hit=1/miss=0, or `u32::MAX` for none.
        hit_into: u32,
    },
    /// `mark_to_drop()`.
    MarkDrop,
    /// `setValid()` / `setInvalid()` (invalidation zeroes the fields).
    SetValidHdr(u32, bool),
    /// `counter.count(idx)`: pops the cell index.
    CounterInc(u32),
    /// `register.read(dst, idx)`: pops the index, pushes the cell value
    /// (a store opcode follows).
    RegisterRead(u32),
    /// `register.write(idx, value)`: pops the value, then the index.
    RegisterWrite(u32),
    /// `meter.execute(idx, dst)`: pops the index, pushes the colour.
    MeterExecute(u32),

    // -------- parser --------
    /// Enter parser state: budget check plus trace.
    StateEnter(u32),
    /// Extract a header at the cursor (bounds-checked; short packets
    /// drop with `PacketTooShort`, exactly as P4-16 requires).
    Extract(u32),
    /// Multi-way select: pops the keys, matches the arm patterns in
    /// order, jumps to the winning target (default on no match).
    Select(u32),
    /// Parser accept: record the payload offset, fall through to the
    /// pipeline.
    Accept,
    /// Parser reject: drop the packet.
    Reject,
    /// Enter a control block (trace only).
    ControlEnter(u32),
    /// Pipeline epilogue: drop checks, deparse, verdict. Terminal.
    Finish,
    /// `load-field + apply`, selected for a table whose single key is a
    /// header field: evaluates the key (0 when the header is invalid, as
    /// [`OpCode::LoadField`] defines) and applies the table without the
    /// value stack. The flow cache's wildcard fields are defined on it: a
    /// field every opcode touching it reads as this key is one whose
    /// unexamined bits a cache entry may ignore (`wild_fields`).
    FieldApply {
        /// Header id of the key field.
        h: u32,
        /// Field index of the key field.
        f: u32,
        /// Table id.
        tid: u32,
        /// Local receiving hit=1/miss=0, or `u32::MAX` for none.
        hit_into: u32,
    },
}

/// One compiled `select` dispatch table.
#[derive(Debug, Clone)]
pub(crate) struct CompiledSelect {
    /// Keys popped from the stack.
    pub(crate) nkeys: usize,
    /// `(patterns, target pc)` tried in order; first full match wins.
    pub(crate) arms: Vec<(Vec<IrPattern>, u32)>,
    /// Target pc when no arm matches.
    pub(crate) default: u32,
}

/// Extraction/emission plan for one header instance.
#[derive(Debug, Clone)]
pub(crate) struct HeaderPlan {
    /// Total width in bytes (the front end rejects headers that are not
    /// whole bytes, so extraction and emission always start on one).
    byte_width: usize,
    /// Field moves in declaration order, relative to the header start.
    fields: Vec<FieldPlan>,
    /// Fields the code reads or writes, ascending: all extract loads. A
    /// field outside this set is never read, so its slot needs no value.
    pub(crate) live: Vec<usize>,
    /// Fields the code writes (a subset of `live`): all deparse stores over
    /// a copied header. Every other field still holds its wire bytes, and
    /// one of these that a path left alone holds what extract loaded.
    pub(crate) written: Vec<usize>,
}

impl HeaderPlan {
    /// Load the live fields of the header at the start of `bytes`.
    fn load_live(&self, bytes: &[u8], slots: &mut [u128]) {
        for &f in &self.live {
            slots[f] = self.fields[f].load(bytes);
        }
    }

    /// Store the written fields of `slots` over the header's wire bytes.
    fn store_written(&self, bytes: &mut [u8], slots: &[u128]) {
        for &f in &self.written {
            let field = &self.fields[f];
            field.xor_into(bytes, field.load(bytes) ^ slots[f]);
        }
    }
}

/// The flow-cache key of a [`Cacheability::Cacheable`] program.
///
/// An execution reads only the live fields of the headers it extracts,
/// so the key is the union, over every parser path, of each extracted
/// header's live fields at that path's offset, a byte at a time. The
/// written fields are live too, and must be: a field one path writes and
/// another passes through decides the egress bytes. Every byte no path
/// writes leaves as it came in, at the same offset, as long as the
/// deparse re-emits exactly the extracted headers, once each, in
/// extraction order. A program that can move a header (any `setValid()`
/// or `setInvalid()`, a header the deparse lists twice, a path whose
/// deparse drops or reorders what it extracted) keys on the whole prefix
/// the parser can consume instead, and passes nothing through.
///
/// The walk enters a state once per byte offset and deparse position of
/// the header extracted last, whatever path led there, so its cost is
/// bounded by states x prefix bytes x deparse entries, not by paths.
fn cache_key(prog: &ir::Program, headers: &[HeaderPlan], code: &[OpCode]) -> Option<CacheKey> {
    struct Walk<'a> {
        prog: &'a ir::Program,
        headers: &'a [HeaderPlan],
        /// [`READ`] and [`WRITTEN`] per byte of the longest path.
        flags: Vec<u8>,
        whole: bool,
        /// Whether `(state, at, last)` was entered, at
        /// [`Walk::seen_at`]: what follows depends on nothing else.
        seen: Vec<bool>,
    }
    impl Walk<'_> {
        fn seen_at(&self, s: StateId, at: usize, last: Option<usize>) -> usize {
            let lasts = self.prog.deparse.len() + 1;
            (s * (self.flags.len() + 1) + at) * lasts + last.map_or(0, |p| p + 1)
        }

        /// Enter state `s` at byte `at`, the header extracted last sitting
        /// at deparse position `last`.
        fn enter(&mut self, s: StateId, mut at: usize, mut last: Option<usize>) {
            // A dangling id (or an empty parser's start) rejects at runtime.
            let Some(state) = self.prog.parser.states.get(s) else {
                return;
            };
            let seen = self.seen_at(s, at, last);
            if self.whole || replace(&mut self.seen[seen], true) {
                return;
            }
            for op in &state.ops {
                let ParserOp::Extract(h) = *op else { continue };
                match self.prog.deparse.iter().position(|&d| d == h) {
                    Some(p) if last < Some(p) => last = Some(p),
                    _ => self.whole = true,
                }
                let (plan, fields) = (&self.headers[h], &self.prog.headers[h].fields);
                for &f in &plan.live {
                    let flag = if plan.written.contains(&f) {
                        READ | WRITTEN
                    } else {
                        READ
                    };
                    let (off, width) = (fields[f].offset_bits as usize, fields[f].width_bits);
                    let bytes = off / 8..(off + usize::from(width)).div_ceil(8);
                    for byte in &mut self.flags[at + bytes.start..at + bytes.end] {
                        *byte |= flag;
                    }
                }
                at += plan.byte_width;
            }
            match &state.transition {
                IrTransition::Accept | IrTransition::Reject => {}
                IrTransition::Goto(t) => self.enter(*t, at, last),
                IrTransition::Select { arms, default, .. } => {
                    for target in arms.iter().map(|arm| &arm.target).chain([default]) {
                        if let TransTarget::State(t) = *target {
                            self.enter(t, at, last);
                        }
                    }
                }
            }
        }
    }
    if prog.cacheability() != Cacheability::Cacheable {
        return None;
    }
    let cap = usize::try_from(prog.parser_longest_path_bits()?.div_ceil(8)).ok()?;
    let emitted_twice =
        (0..prog.deparse.len()).any(|i| prog.deparse[..i].contains(&prog.deparse[i]));
    let mut walk = Walk {
        prog,
        headers,
        flags: vec![0; cap],
        whole: emitted_twice || code.iter().any(|op| matches!(op, OpCode::SetValidHdr(..))),
        seen: vec![false; prog.parser.states.len() * (cap + 1) * (prog.deparse.len() + 1)],
    };
    walk.enter(0, 0, None);
    if walk.whole {
        walk.flags.fill(READ | WRITTEN);
        return Some(CacheKey::new(&walk.flags, Vec::new()));
    }
    Some(CacheKey::new(&walk.flags, wild_fields(prog, headers, code)))
}

/// The wildcard fields of a program that moves no header ([`Wild`]):
/// the header fields of at most 16 bytes that every opcode touching them
/// reads as the key of a one-field table apply, and none writes. At most
/// 64: a commit notes the fields it leaves bytes of unkeyed in one word.
fn wild_fields(prog: &ir::Program, headers: &[HeaderPlan], code: &[OpCode]) -> Vec<Wild> {
    let span = |field: &ir::FieldLayout| {
        let off = field.offset_bits as usize;
        off / 8..(off + usize::from(field.width_bits)).div_ceil(8)
    };
    let only_keyed = |h: u32, f: u32| {
        span(&prog.headers[h as usize].fields[f as usize]).len() <= 16
            && code.iter().all(|op| {
                matches!(op, OpCode::FieldApply { .. })
                    || field_access(op).is_none_or(|(h2, f2, _)| (h2, f2) != (h, f))
            })
    };
    // Each wildcard field once, at its first apply.
    let fields = || {
        code.iter().enumerate().filter_map(|(at, op)| match *op {
            OpCode::FieldApply { h, f, .. }
                if only_keyed(h, f)
                    && !code[..at]
                        .iter()
                        .any(|op| matches!(*op, OpCode::FieldApply { h: h2, f: f2, .. } if (h2, f2) == (h, f))) =>
            {
                Some((h as usize, f as usize))
            }
            _ => None,
        })
    };
    let wild = fields().take(64).map(|(h, f)| {
        let fields = &prog.headers[h].fields;
        let others = || headers[h].live.iter().filter(|&&g| g != f);
        let bytes = span(&fields[f]);
        let own = bytes
            .clone()
            .enumerate()
            .filter(|&(_, b)| !others().any(|&g| span(&fields[g]).contains(&b)))
            .fold(0, |own, (i, _)| own | 1 << i);
        let end = fields[f].offset_bits as usize + usize::from(fields[f].width_bits);
        Wild {
            header: h,
            field: f,
            first: bytes.start,
            span: bytes.len() as u32,
            pad: (8 * bytes.end - end) as u32,
            value: all_ones(fields[f].width_bits),
            own,
        }
    });
    // Sized exactly: every data plane of the program holds the list.
    let mut list = Vec::with_capacity(fields().take(64).count());
    list.extend(wild);
    list
}

/// An [`ir::Program`] lowered to the flat instruction array, plus the
/// side tables the executor indexes: select dispatch, header plans,
/// per-table default actions, action entry points and interned names.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) code: Vec<OpCode>,
    /// Entry pc of each action body (`Return`-terminated).
    pub(crate) action_pcs: Vec<u32>,
    pub(crate) selects: Vec<CompiledSelect>,
    pub(crate) headers: Vec<HeaderPlan>,
    /// Deparse order (header ids).
    pub(crate) deparse: Vec<u32>,
    /// Per-table default action id + bound args + declared key count.
    pub(crate) table_defaults: Vec<(u32, Vec<u128>)>,
    /// What a flow-cache entry keys on ([`cache_key`]); `None` for an
    /// [`Cacheability::Uncacheable`] program.
    pub(crate) cache_key: Option<CacheKey>,
    /// Interned names (states, controls, tables, actions, headers),
    /// indexed by the corresponding IR id — the tables a `LazyTrace`
    /// resolves flat record ids against.
    pub(crate) names: TraceTables,
    /// The deepest value stack any reachable pc runs at, from [`check`]:
    /// what `exec`'s stack buffer holds.
    pub(crate) max_depth: usize,
}

impl CompiledProgram {
    /// Lower `prog` into the flat engine and `check` the result. Called
    /// once per [`crate::Dataplane`] construction; the result is immutable
    /// and shared (`Arc`) across clones.
    ///
    /// # Panics
    ///
    /// When the check refuses the lowered code: a lowering bug, reported
    /// once here with the pc and the rule it breaks, instead of on every
    /// packet that reaches it.
    pub fn compile(prog: &ir::Program) -> CompiledProgram {
        let mut cp = Compiler::new(prog).run();
        cp.max_depth = check(&cp).unwrap_or_else(|e| panic!("bytecode check: {e}"));
        cp
    }

    /// Number of flat instructions (observability for tests/benches).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// A [`Display`](core::fmt::Display)able disassembly of the flat
    /// code lowered from `prog`: one line per instruction with index,
    /// mnemonic, resolved operand names and jump targets.
    pub fn disassemble<'a>(&'a self, prog: &'a ir::Program) -> crate::disasm::Disassembly<'a> {
        crate::disasm::Disassembly::new(self, prog)
    }

    /// The interned name tables (shared with the reference engine so both
    /// engines' decoded traces clone the same pointers).
    pub(crate) fn names(&self) -> &TraceTables {
        &self.names
    }
}

/// How many opcodes [`Compiler::run`] emits for `prog`, so that its code
/// vector is allocated once: one per expression node, plus what each
/// emitter pushes around its operands (`every_program_passes_the_check`
/// holds the two equal).
fn code_len(prog: &ir::Program) -> usize {
    fn expr(e: &IrExpr) -> usize {
        let mut n = 0;
        e.visit(&mut |_| n += 1);
        n
    }
    fn read(lv: &LValue) -> usize {
        match lv {
            LValue::Slice(inner, ..) => read(inner) + 1,
            _ => 1,
        }
    }
    fn store(lv: &LValue) -> usize {
        match lv {
            LValue::Slice(inner, ..) => read(inner) + 1 + store(inner),
            _ => 1,
        }
    }
    fn op(op: &Op) -> usize {
        match op {
            Op::Assign(lv, e) => expr(e) + store(lv),
            Op::SetValid(..) | Op::Drop => 1,
            Op::CounterInc(_, idx) => expr(idx) + 1,
            Op::RegisterRead(lv, _, idx) | Op::MeterExecute(_, idx, lv) => {
                expr(idx) + 1 + store(lv)
            }
            Op::RegisterWrite(_, idx, val) => expr(idx) + expr(val) + 1,
            Op::NoOp => 0,
        }
    }
    fn block(prog: &ir::Program, body: &[IrStmt]) -> usize {
        let stmt = |stmt: &IrStmt| match stmt {
            IrStmt::ApplyTable { table, .. } => match prog.tables[*table].keys.as_slice() {
                [ir::TableKey {
                    expr: IrExpr::Field(..),
                    ..
                }] => 1,
                keys => keys.iter().map(|k| expr(&k.expr)).sum::<usize>() + 1,
            },
            IrStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let orelse = if else_branch.is_empty() {
                    0
                } else {
                    1 + block(prog, else_branch)
                };
                expr(cond) + 1 + block(prog, then_branch) + orelse
            }
            IrStmt::Op(o) => op(o),
            IrStmt::Exit => 1,
        };
        body.iter().map(stmt).sum()
    }
    let state = |st: &ir::ParseState| {
        let ops = st.ops.iter().map(|o| match o {
            ir::ParserOp::Extract(_) => 1,
            ir::ParserOp::Assign(lv, e) => expr(e) + store(lv),
        });
        let transition = match &st.transition {
            IrTransition::Select { keys, .. } => keys.iter().map(expr).sum::<usize>() + 1,
            _ => 1,
        };
        1 + ops.sum::<usize>() + transition
    };
    let states: usize = prog.parser.states.iter().map(state).sum();
    let controls: usize = prog.controls.iter().map(|c| 1 + block(prog, &c.body)).sum();
    let actions: usize = prog
        .actions
        .iter()
        .map(|a| a.ops.iter().map(op).sum::<usize>() + 1)
        .sum();
    // The shared reject and accept, and `finish`.
    states + 2 + controls + 1 + actions
}

/// Where a pending jump patch lands.
enum FixLoc {
    /// `code[i]`'s jump target.
    Code(usize),
    /// `selects[s].arms[a]`'s target.
    Arm(usize, usize),
    /// `selects[s].default`.
    Default(usize),
}

struct Compiler<'p> {
    prog: &'p ir::Program,
    code: Vec<OpCode>,
    selects: Vec<CompiledSelect>,
    /// Parser-transition patches resolved once all state pcs are known.
    fixups: Vec<(FixLoc, TransTarget)>,
    /// `Exit` opcodes patched to the epilogue pc.
    exit_fixups: Vec<usize>,
}

impl<'p> Compiler<'p> {
    fn new(prog: &'p ir::Program) -> Self {
        Compiler {
            prog,
            code: Vec::with_capacity(code_len(prog)),
            selects: Vec::new(),
            fixups: Vec::new(),
            exit_fixups: Vec::new(),
        }
    }

    fn run(mut self) -> CompiledProgram {
        let prog = self.prog;

        // ---- Parser states (state 0 = `start` = pc 0). ----
        let mut state_pcs = vec![0u32; prog.parser.states.len()];
        for (sid, st) in prog.parser.states.iter().enumerate() {
            state_pcs[sid] = self.code.len() as u32;
            self.code.push(OpCode::StateEnter(sid as u32));
            for op in &st.ops {
                match op {
                    ir::ParserOp::Extract(hid) => self.code.push(OpCode::Extract(*hid as u32)),
                    ir::ParserOp::Assign(lv, e) => {
                        self.emit_expr(e);
                        self.emit_store(lv);
                    }
                }
            }
            match &st.transition {
                IrTransition::Accept => self.emit_jump(TransTarget::Accept),
                IrTransition::Reject => self.emit_jump(TransTarget::Reject),
                IrTransition::Goto(s) => self.emit_jump(TransTarget::State(*s)),
                IrTransition::Select {
                    keys,
                    arms,
                    default,
                } => {
                    for k in keys {
                        self.emit_expr(k);
                    }
                    let sel = self.selects.len();
                    self.selects.push(CompiledSelect {
                        nkeys: keys.len(),
                        arms: arms
                            .iter()
                            .map(|arm| (arm.patterns.clone(), u32::MAX))
                            .collect(),
                        default: u32::MAX,
                    });
                    for (a, arm) in arms.iter().enumerate() {
                        self.fixups.push((FixLoc::Arm(sel, a), arm.target));
                    }
                    self.fixups.push((FixLoc::Default(sel), *default));
                    self.code.push(OpCode::Select(sel as u32));
                }
            }
        }

        // ---- Shared parser exits. ----
        let reject_pc = self.code.len() as u32;
        self.code.push(OpCode::Reject);
        let accept_pc = self.code.len() as u32;
        self.code.push(OpCode::Accept);
        // `Accept` falls through into the first control.

        // ---- Pipeline controls, in execution order. ----
        for (cid, control) in prog.controls.iter().enumerate() {
            self.code.push(OpCode::ControlEnter(cid as u32));
            self.emit_block(&control.body);
        }
        let finish_pc = self.code.len() as u32;
        self.code.push(OpCode::Finish);

        // ---- Action bodies (shared across tables; entered via Apply). ----
        let mut action_pcs = vec![0u32; prog.actions.len()];
        for (aid, action) in prog.actions.iter().enumerate() {
            action_pcs[aid] = self.code.len() as u32;
            for op in &action.ops {
                self.emit_op(op);
            }
            self.code.push(OpCode::Return);
        }

        // ---- Patch parser transitions and exits. ----
        let resolve = |t: TransTarget| -> u32 {
            match t {
                TransTarget::Accept => accept_pc,
                TransTarget::Reject => reject_pc,
                TransTarget::State(s) => state_pcs[s],
            }
        };
        for (loc, target) in std::mem::take(&mut self.fixups) {
            let pc = resolve(target);
            match loc {
                FixLoc::Code(i) => self.patch_jump(i, pc),
                FixLoc::Arm(s, a) => self.selects[s].arms[a].1 = pc,
                FixLoc::Default(s) => self.selects[s].default = pc,
            }
        }
        for i in std::mem::take(&mut self.exit_fixups) {
            self.patch_jump(i, finish_pc);
        }

        // ---- Side tables. ----
        let mut headers = prog
            .headers
            .iter()
            .map(|h| {
                // Load-time invariant: the front end refuses such headers.
                assert!(
                    h.bit_width.is_multiple_of(8),
                    "header `{}` is {} bits — headers must be whole bytes",
                    h.name,
                    h.bit_width
                );
                HeaderPlan {
                    byte_width: h.byte_width(),
                    fields: h
                        .fields
                        .iter()
                        .map(|f| FieldPlan::new(f.offset_bits as usize, f.width_bits as usize))
                        .collect(),
                    live: Vec::new(),
                    written: Vec::new(),
                }
            })
            .collect::<Vec<_>>();
        // ---- Field liveness, from the finished code, kept ascending. ----
        for (h, f, writes) in self.code.iter().filter_map(field_access) {
            let HeaderPlan { live, written, .. } = &mut headers[h as usize];
            for set in [Some(live), writes.then_some(written)]
                .into_iter()
                .flatten()
            {
                if let Err(at) = set.binary_search(&(f as usize)) {
                    set.insert(at, f as usize);
                }
            }
        }
        let cache_key = cache_key(prog, &headers, &self.code);
        let intern = |s: &str| -> TraceName { s.into() };
        CompiledProgram {
            cache_key,
            code: self.code,
            action_pcs,
            selects: self.selects,
            headers,
            deparse: prog.deparse.iter().map(|&h| h as u32).collect(),
            table_defaults: prog
                .tables
                .iter()
                .map(|t| {
                    (
                        t.default_action.action as u32,
                        t.default_action.args.clone(),
                    )
                })
                .collect(),
            names: TraceTables {
                states: prog.parser.states.iter().map(|s| intern(&s.name)).collect(),
                controls: prog.controls.iter().map(|c| intern(&c.name)).collect(),
                tables: prog.tables.iter().map(|t| intern(&t.name)).collect(),
                actions: prog.actions.iter().map(|a| intern(&a.name)).collect(),
                headers: prog.headers.iter().map(|h| intern(&h.name)).collect(),
            },
            max_depth: 0,
        }
    }

    /// Emit a jump whose target is a parser transition (patched later).
    fn emit_jump(&mut self, target: TransTarget) {
        self.fixups.push((FixLoc::Code(self.code.len()), target));
        self.code.push(OpCode::Jump(u32::MAX));
    }

    fn emit_block(&mut self, body: &[IrStmt]) {
        for stmt in body {
            match stmt {
                IrStmt::ApplyTable { table, hit_into } => {
                    let keys = &self.prog.tables[*table].keys;
                    let tid = *table as u32;
                    let hit_into = hit_into.map_or(NO_HIT_LOCAL, |l| l as u32);
                    match keys.as_slice() {
                        [ir::TableKey {
                            expr: IrExpr::Field(h, f),
                            ..
                        }] => self.code.push(OpCode::FieldApply {
                            h: *h as u32,
                            f: *f as u32,
                            tid,
                            hit_into,
                        }),
                        _ => {
                            for k in keys {
                                self.emit_expr(&k.expr);
                            }
                            self.code.push(OpCode::Apply {
                                tid,
                                nkeys: keys.len() as u16,
                                hit_into,
                            });
                        }
                    }
                }
                IrStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.emit_expr(cond);
                    let br = self.code.len();
                    self.code.push(OpCode::BranchIfZero(u32::MAX));
                    self.emit_block(then_branch);
                    if else_branch.is_empty() {
                        let end = self.code.len() as u32;
                        self.patch_jump(br, end);
                    } else {
                        let jmp = self.code.len();
                        self.code.push(OpCode::Jump(u32::MAX));
                        let else_pc = self.code.len() as u32;
                        self.patch_jump(br, else_pc);
                        self.emit_block(else_branch);
                        let end = self.code.len() as u32;
                        self.patch_jump(jmp, end);
                    }
                }
                IrStmt::Op(op) => self.emit_op(op),
                IrStmt::Exit => {
                    self.exit_fixups.push(self.code.len());
                    self.code.push(OpCode::Exit(u32::MAX));
                }
            }
        }
    }

    /// Point the jump at `code[at]` to `target`. A patch that misses its
    /// jump leaves the target unpatched, which [`check`] refuses.
    fn patch_jump(&mut self, at: usize, target: u32) {
        if let OpCode::Jump(t) | OpCode::BranchIfZero(t) | OpCode::Exit(t) = &mut self.code[at] {
            *t = target;
        }
    }

    fn emit_op(&mut self, op: &Op) {
        match op {
            Op::Assign(lv, e) => {
                self.emit_expr(e);
                self.emit_store(lv);
            }
            Op::SetValid(hid, valid) => self.code.push(OpCode::SetValidHdr(*hid as u32, *valid)),
            Op::Drop => self.code.push(OpCode::MarkDrop),
            Op::CounterInc(id, idx) => {
                self.emit_expr(idx);
                self.code.push(OpCode::CounterInc(*id as u32));
            }
            Op::RegisterRead(lv, id, idx) => {
                self.emit_expr(idx);
                self.code.push(OpCode::RegisterRead(*id as u32));
                self.emit_store(lv);
            }
            Op::RegisterWrite(id, idx, val) => {
                self.emit_expr(idx);
                self.emit_expr(val);
                self.code.push(OpCode::RegisterWrite(*id as u32));
            }
            Op::MeterExecute(id, idx, lv) => {
                self.emit_expr(idx);
                self.code.push(OpCode::MeterExecute(*id as u32));
                self.emit_store(lv);
            }
            Op::NoOp => {}
        }
    }

    fn emit_expr(&mut self, e: &IrExpr) {
        match e {
            IrExpr::Const { value, .. } => self.code.push(OpCode::Const(*value)),
            IrExpr::Field(h, f) => self.code.push(OpCode::LoadField(*h as u32, *f as u32)),
            IrExpr::Meta(m) => self.code.push(OpCode::LoadMeta(*m as u32)),
            IrExpr::Std(s) => self.code.push(OpCode::LoadStd(*s)),
            IrExpr::Param { index, width } => {
                self.code.push(OpCode::LoadParam(*index as u32, *width))
            }
            IrExpr::Local(l) => self.code.push(OpCode::LoadLocal(*l as u32)),
            IrExpr::IsValid(h) => self.code.push(OpCode::LoadIsValid(*h as u32)),
            IrExpr::Un { op, a, width } => {
                self.emit_expr(a);
                self.code.push(OpCode::Un(*op, *width));
            }
            IrExpr::Bin {
                op: BinOp::Concat,
                a,
                b,
                width,
            } => {
                self.emit_expr(a);
                self.emit_expr(b);
                self.code.push(OpCode::Concat(b.width(self.prog), *width));
            }
            IrExpr::Bin { op, a, b, width } => {
                self.emit_expr(a);
                self.emit_expr(b);
                self.code.push(OpCode::Bin(*op, *width));
            }
            IrExpr::Slice { base, hi, lo } => {
                self.emit_expr(base);
                self.code.push(OpCode::SliceE(*hi, *lo));
            }
            IrExpr::Cast { expr, width } => {
                self.emit_expr(expr);
                self.code.push(OpCode::CastE(*width));
            }
        }
    }

    /// Pop the top of stack into `lv`, replicating the walker's
    /// `assign` — including the read-modify-write recursion for slices.
    fn emit_store(&mut self, lv: &LValue) {
        match lv {
            LValue::Field(h, f) => {
                let width = self.prog.headers[*h].fields[*f].width_bits;
                self.code
                    .push(OpCode::StoreField(*h as u32, *f as u32, width));
            }
            LValue::Meta(m) => {
                let width = self.prog.metadata[*m].width;
                self.code.push(OpCode::StoreMeta(*m as u32, width));
            }
            LValue::Std(s) => match s {
                StdField::EgressSpec => self.code.push(OpCode::StoreEgressSpec),
                StdField::EgressPort | StdField::IngressPort => self.code.push(OpCode::Pop),
                StdField::PacketLength => self.code.push(OpCode::StorePacketLength),
                StdField::IngressTimestamp => self.code.push(OpCode::StoreTimestamp),
            },
            LValue::Local(l) => {
                let width = self.prog.locals[*l].width;
                self.code.push(OpCode::StoreLocal(*l as u32, width));
            }
            LValue::Slice(inner, hi, lo) => {
                self.emit_read_lvalue(inner);
                self.code.push(OpCode::SliceMerge(*hi, *lo));
                self.emit_store(inner);
            }
        }
    }

    /// Push the current value of `lv` (the walker's `read_lvalue`: **no**
    /// validity check on header fields).
    fn emit_read_lvalue(&mut self, lv: &LValue) {
        match lv {
            LValue::Field(h, f) => self.code.push(OpCode::LoadFieldRaw(*h as u32, *f as u32)),
            LValue::Meta(m) => self.code.push(OpCode::LoadMeta(*m as u32)),
            LValue::Std(s) => self.code.push(OpCode::LoadStd(*s)),
            LValue::Local(l) => self.code.push(OpCode::LoadLocal(*l as u32)),
            LValue::Slice(inner, hi, lo) => {
                self.emit_read_lvalue(inner);
                self.code.push(OpCode::SliceE(*hi, *lo));
            }
        }
    }
}

/// The bytecode check: works out the one value-stack depth each reachable
/// pc runs at, following every jump, branch, `exit`, `select` arm and
/// default, and every action body a table apply can enter, and returns
/// the deepest. It refuses, naming the pc and the rule,
///
/// * an opcode that pops more than the stack holds,
/// * a pc reached at two depths,
/// * a target past the end of the code or never patched (`u32::MAX`),
/// * an action body that returns at another depth than it entered, a
///   `return` outside one and a table apply inside one (one link
///   register holds the return pc),
/// * a `finish` at a non-zero depth.
///
/// So every pop `exec` makes has an operand and every push fits its
/// buffer, on every packet.
pub(crate) fn check(cp: &CompiledProgram) -> Result<usize, String> {
    // Per pc, once reached: its depth, and the depth its action body was
    // entered at (`None` outside action bodies).
    let mut reached: Vec<Option<(usize, Option<usize>)>> = vec![None; cp.code.len()];
    // Reach `to` from `pc` at `at`: whether `to` is newly reached.
    let reach = |reached: &mut [_], pc: usize, to: u32, at| match reached.get_mut(to as usize) {
        _ if to == u32::MAX => Err(format!("pc {pc:04} jumps to a target never patched")),
        None => Err(format!("pc {pc:04} jumps past the end of the code")),
        Some(Some(depth)) if *depth != at => Err(format!("pc {to:04} is reached at two depths")),
        Some(slot) => Ok(slot.replace(at).is_none()),
    };
    reach(&mut reached, 0, 0, (0, None))?;
    // Follow the reached pcs in order: a pc an edge newly reaches forward
    // is followed later in the same sweep, so only an edge back to a pc
    // not yet reached (a parser state going to an earlier one) costs
    // another sweep, and no worklist is needed beside `reached`.
    let (mut max, mut grew) = (0, true);
    while grew {
        grew = false;
        for pc in 0..cp.code.len() {
            let Some((depth, body)) = reached[pc] else {
                continue;
            };
            let refuse = |rule| Err(format!("pc {pc:04} {rule}"));
            let op = cp.code[pc];
            let (pops, pushes) = stack_effect(op, &cp.selects);
            if depth < pops {
                return refuse("pops below depth 0");
            }
            let at = (depth - pops + pushes, body);
            max = max.max(at.0);
            let next = pc as u32 + 1;
            let mut go = |to: u32, at| {
                reach(&mut reached, pc, to, at).map(|new| grew |= new && to as usize <= pc)
            };
            match op {
                OpCode::Jump(t) | OpCode::Exit(t) => go(t, at)?,
                OpCode::BranchIfZero(t) => {
                    go(t, at)?;
                    go(next, at)?;
                }
                OpCode::Select(s) => {
                    let sel = &cp.selects[s as usize];
                    for t in sel.arms.iter().map(|&(_, t)| t).chain([sel.default]) {
                        go(t, at)?;
                    }
                }
                OpCode::Apply { .. } | OpCode::FieldApply { .. } if body.is_some() => {
                    return refuse("applies a table inside an action body");
                }
                OpCode::Apply { .. } | OpCode::FieldApply { .. } => {
                    // The lookup may pick any action; each returns here.
                    for &entry in &cp.action_pcs {
                        go(entry, (at.0, Some(at.0)))?;
                    }
                    go(next, at)?;
                }
                OpCode::Return if body.is_none() => {
                    return refuse("returns outside an action body")
                }
                OpCode::Return if body != Some(depth) => {
                    return refuse("returns at another depth than its action body entered");
                }
                OpCode::Finish if depth != 0 => return refuse("finishes at a non-zero depth"),
                OpCode::Return | OpCode::Finish | OpCode::Reject => {}
                _ => go(next, at)?,
            }
        }
    }
    Ok(max)
}

/// What `op` takes off the value stack and puts on it: `(pops, pushes)`.
fn stack_effect(op: OpCode, selects: &[CompiledSelect]) -> (usize, usize) {
    use OpCode::*;
    match op {
        Const(_) | LoadField(..) | LoadFieldRaw(..) | LoadMeta(_) | LoadStd(_) => (0, 1),
        LoadParam(..) | LoadLocal(_) | LoadIsValid(_) => (0, 1),
        Un(..) | SliceE(..) | CastE(_) | RegisterRead(_) | MeterExecute(_) => (1, 1),
        Bin(..) | Concat(..) | SliceMerge(..) => (2, 1),
        StoreField(..) | StoreMeta(..) | StoreLocal(..) | StoreEgressSpec => (1, 0),
        StorePacketLength | StoreTimestamp | Pop | BranchIfZero(_) | CounterInc(_) => (1, 0),
        RegisterWrite(_) => (2, 0),
        Apply { nkeys, .. } => (usize::from(nkeys), 0),
        Select(s) => (selects[s as usize].nkeys, 0),
        Jump(_) | Return | Exit(_) | FieldApply { .. } | MarkDrop | SetValidHdr(..) => (0, 0),
        StateEnter(_) | Extract(_) | Accept | Reject | ControlEnter(_) | Finish => (0, 0),
    }
}

/// The header field `op` reads or writes, as `(header, field, written)`.
/// No wildcard arm: an opcode that touches a field must be classified
/// here, or extract would not load the field and deparse would not store it.
fn field_access(op: &OpCode) -> Option<(u32, u32, bool)> {
    use OpCode::*;
    match *op {
        LoadField(h, f) | LoadFieldRaw(h, f) | FieldApply { h, f, .. } => Some((h, f, false)),
        StoreField(h, f, _) => Some((h, f, true)),
        // Extract defines the fields it loads; `setInvalid()` zeroes them
        // all and drops the header's ingress bytes, so neither needs one.
        Extract(_) | SetValidHdr(..) => None,
        Const(_) | LoadMeta(_) | LoadStd(_) | LoadParam(..) | LoadLocal(_) | LoadIsValid(_) => None,
        Un(..) | Bin(..) | Concat(..) | SliceE(..) | CastE(_) | SliceMerge(..) => None,
        StoreMeta(..) | StoreLocal(..) | StoreEgressSpec | StorePacketLength => None,
        StoreTimestamp | Pop | Jump(_) | BranchIfZero(_) | Return | Exit(_) | Apply { .. } => None,
        MarkDrop | CounterInc(_) | RegisterRead(_) | RegisterWrite(_) | MeterExecute(_) => None,
        StateEnter(_) | Select(_) | Accept | Reject | ControlEnter(_) | Finish => None,
    }
}

/// Run one packet through the flat engine.
///
/// The single non-recursive dispatch loop behind every compiled-engine
/// path (single packet, batch, streaming). Semantics —
/// including trace event order, drop reasons, statistics updates and
/// extern effects — replicate the tree-walker arm for arm; the parity
/// property tests in `tests/prop.rs` pin the equivalence over the whole
/// program corpus.
///
/// The value stack is `env.stack`, sized to the program's checked
/// `max_depth`, with `sp` the number of live values: [`check`] proved at
/// load time that every pop below has an operand and every push fits.
pub(crate) fn exec(
    ctx: &mut ExecCtx<'_>,
    env: &mut Env,
    port: u16,
    data: &[u8],
    now_cycles: u64,
    mut trace: Option<&mut TraceBuf>,
    mut rec: Option<&mut MissRecord>,
) -> Verdict {
    env.reset(port, data.len(), now_cycles);
    let (cp, tables) = (ctx.compiled, ctx.tables);
    let code = &cp.code[..];
    let (stack, mut sp) = (&mut env.stack[..], 0usize);
    macro_rules! push {
        ($v:expr) => {{
            stack[sp] = $v;
            sp += 1;
        }};
    }
    macro_rules! pop {
        () => {{
            sp -= 1;
            stack[sp]
        }};
    }
    let mut pc = 0usize;
    let mut link = 0usize;
    // Parser cursor in bytes: headers are whole bytes (see `HeaderPlan`).
    let mut cursor = 0usize;
    let mut payload_start = 0usize;
    let mut visited = 0usize;
    loop {
        match code[pc] {
            // -------- expression stack --------
            OpCode::Const(v) => push!(v),
            OpCode::LoadField(h, f) => {
                let hv = &env.headers[h as usize];
                push!(if hv.valid { hv.fields[f as usize] } else { 0 })
            }
            OpCode::LoadFieldRaw(h, f) => push!(env.headers[h as usize].fields[f as usize]),
            OpCode::LoadMeta(m) => push!(env.meta[m as usize]),
            OpCode::LoadStd(s) => push!(match s {
                StdField::IngressPort => env.ingress_port,
                StdField::EgressSpec | StdField::EgressPort => env.egress_spec,
                StdField::PacketLength => env.packet_length,
                StdField::IngressTimestamp => env.ts_cycles,
            }),
            OpCode::LoadParam(i, width) => {
                let v = env.action_args.get(i as usize).copied().unwrap_or(0);
                push!(truncate(v, width))
            }
            OpCode::LoadLocal(l) => push!(env.locals[l as usize]),
            OpCode::LoadIsValid(h) => push!(env.headers[h as usize].valid as u128),
            OpCode::Un(op, width) => stack[sp - 1] = eval_un(op, stack[sp - 1], width),
            OpCode::Bin(op, w) => {
                let y = pop!();
                stack[sp - 1] = eval_bin(op, stack[sp - 1], y, w, 0);
            }
            OpCode::Concat(shift, width) => {
                let y = pop!();
                stack[sp - 1] = eval_bin(BinOp::Concat, stack[sp - 1], y, width, shift);
            }
            OpCode::SliceE(hi, lo) => stack[sp - 1] = truncate(stack[sp - 1] >> lo, hi - lo + 1),
            OpCode::CastE(width) => stack[sp - 1] = truncate(stack[sp - 1], width),
            OpCode::SliceMerge(hi, lo) => {
                let current = pop!();
                let w = hi - lo + 1;
                let mask = all_ones(w) << lo;
                stack[sp - 1] = (current & !mask) | (truncate(stack[sp - 1], w) << lo);
            }

            // -------- stores --------
            OpCode::StoreField(h, f, width) => {
                env.headers[h as usize].fields[f as usize] = truncate(pop!(), width);
            }
            OpCode::StoreMeta(m, width) => env.meta[m as usize] = truncate(pop!(), width),
            OpCode::StoreLocal(l, width) => env.locals[l as usize] = truncate(pop!(), width),
            OpCode::StoreEgressSpec => {
                env.egress_spec = truncate(pop!(), 9);
                env.egress_written = true;
                // v1model: a later egress write revives the packet.
                env.drop_flag = false;
            }
            OpCode::StorePacketLength => env.packet_length = truncate(pop!(), 32),
            OpCode::StoreTimestamp => env.ts_cycles = truncate(pop!(), 48),
            OpCode::Pop => sp -= 1,

            // -------- control flow --------
            OpCode::Jump(t) => {
                pc = t as usize;
                continue;
            }
            OpCode::BranchIfZero(t) => {
                if pop!() == 0 {
                    pc = t as usize;
                    continue;
                }
            }
            OpCode::Return => {
                pc = link;
                continue;
            }
            OpCode::Exit(t) => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.exit();
                }
                pc = t as usize;
                continue;
            }

            // -------- tables / externs --------
            OpCode::Apply {
                tid,
                nkeys,
                hit_into,
            } => {
                sp -= nkeys as usize;
                let keys = &stack[sp..sp + nkeys as usize];
                let (args, locals) = (&mut env.action_args, &mut env.locals[..]);
                let aid = apply_keys(ctx, keys, args, locals, &mut trace, &mut rec, tid, hit_into);
                link = pc + 1;
                pc = cp.action_pcs[aid] as usize;
                continue;
            }
            OpCode::FieldApply {
                h,
                f,
                tid,
                hit_into,
            } => {
                let hv = &env.headers[h as usize];
                let key = if hv.valid { hv.fields[f as usize] } else { 0 };
                let (args, locals) = (&mut env.action_args, &mut env.locals[..]);
                let aid = apply_keys(
                    ctx,
                    &[key],
                    args,
                    locals,
                    &mut trace,
                    &mut rec,
                    tid,
                    hit_into,
                );
                if let (Some(r), Some(cache_key)) = (rec.as_deref_mut(), &cp.cache_key) {
                    r.examined(cache_key, h, f, || {
                        tables[tid as usize].snapshot.examined(key)
                    });
                }
                link = pc + 1;
                pc = cp.action_pcs[aid] as usize;
                continue;
            }
            OpCode::MarkDrop => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.mark_drop();
                }
                env.drop_flag = true;
            }
            OpCode::SetValidHdr(h, valid) => {
                let hv = &mut env.headers[h as usize];
                hv.valid = valid;
                if !valid {
                    hv.offset = None;
                    for f in &mut hv.fields {
                        *f = 0;
                    }
                }
            }
            OpCode::CounterInc(id) => {
                let i = pop!() as usize;
                ctx.externs.counter_inc(id as usize, i, data.len());
                if let Some(r) = rec.as_deref_mut() {
                    r.counters.push((id, i as u64));
                }
            }
            OpCode::RegisterRead(id) => {
                stack[sp - 1] = ctx
                    .externs
                    .register_read(id as usize, stack[sp - 1] as usize);
            }
            OpCode::RegisterWrite(id) => {
                let v = pop!();
                ctx.externs.register_write(id as usize, pop!() as usize, v);
            }
            OpCode::MeterExecute(id) => {
                let i = stack[sp - 1] as usize;
                stack[sp - 1] = ctx.externs.meter_execute(id as usize, i, now_cycles);
            }

            // -------- parser --------
            OpCode::StateEnter(sid) => {
                visited += 1;
                if visited > PARSER_STATE_BUDGET {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.reject();
                    }
                    return Verdict::Drop(DropReason::ParserReject);
                }
                if let Some(tr) = trace.as_deref_mut() {
                    tr.state(sid);
                }
            }
            OpCode::Extract(hid) => {
                let hid = hid as usize;
                let plan = &cp.headers[hid];
                let Some(bytes) = data.get(cursor..cursor + plan.byte_width) else {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.reject();
                    }
                    return Verdict::Drop(DropReason::PacketTooShort);
                };
                if let Some(tr) = trace.as_deref_mut() {
                    tr.extract(hid as u32, (cursor * 8) as u32);
                }
                let hv = &mut env.headers[hid];
                hv.valid = true;
                hv.offset = Some(cursor);
                plan.load_live(bytes, &mut hv.fields);
                cursor += plan.byte_width;
            }
            OpCode::Select(sel) => {
                let s = &cp.selects[sel as usize];
                sp -= s.nkeys;
                let keys = &stack[sp..sp + s.nkeys];
                let target = s
                    .arms
                    .iter()
                    .find(|(patterns, _)| patterns.iter().zip(keys).all(|(p, k)| p.matches(*k)))
                    .map(|&(_, t)| t)
                    .unwrap_or(s.default);
                pc = target as usize;
                continue;
            }
            OpCode::Accept => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.accept();
                }
                payload_start = cursor;
                if let Some(r) = rec.as_deref_mut() {
                    r.payload_start = payload_start;
                }
            }
            OpCode::Reject => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.reject();
                }
                return Verdict::Drop(DropReason::ParserReject);
            }
            OpCode::ControlEnter(cid) => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.control(cid);
                }
            }
            OpCode::Finish => {
                if env.drop_flag {
                    return Verdict::Drop(DropReason::ActionDrop);
                }
                if !env.egress_written {
                    return Verdict::Drop(DropReason::NoEgress);
                }
                let out = deparse(cp, env, data, payload_start, &mut trace);
                return if env.egress_spec == FLOOD_PORT {
                    Verdict::Flood { data: out }
                } else if env.egress_spec > FLOOD_PORT {
                    Verdict::Drop(DropReason::BadEgress)
                } else {
                    Verdict::Forward {
                        port: env.egress_spec as u16,
                        data: out,
                    }
                };
            }
        }
        pc += 1;
    }
}

/// The shared tail of [`OpCode::Apply`] and [`OpCode::FieldApply`]:
/// lookup on `keys` (read where they sit), binding the action's
/// arguments into `args`, statistics, the flow-cache record (with the
/// lookup's dependency, which decides which publications drop the
/// entry), the hit-capture local, trace record. Returns the action id to
/// enter.
#[inline]
#[allow(clippy::too_many_arguments)]
fn apply_keys(
    ctx: &mut ExecCtx<'_>,
    keys: &[u128],
    args: &mut Vec<u128>,
    locals: &mut [u128],
    trace: &mut Option<&mut TraceBuf>,
    rec: &mut Option<&mut MissRecord>,
    tid: u32,
    hit_into: u32,
) -> usize {
    let tid = tid as usize;
    let (aid, hit) = match ctx.tables[tid].snapshot.lookup(keys) {
        Some(entry) => {
            args.clear();
            args.extend_from_slice(&entry.action.args);
            (entry.action.action, true)
        }
        None => {
            let (aid, default_args) = &ctx.compiled.table_defaults[tid];
            args.clear();
            args.extend_from_slice(default_args);
            (*aid as usize, false)
        }
    };
    ctx.table_stats[tid].record(hit);
    if let Some(r) = rec.as_deref_mut() {
        r.applies
            .push((tid as u32, hit, key_dependency(keys), NOT_WILD));
    }
    if hit_into != NO_HIT_LOCAL {
        locals[hit_into as usize] = hit as u128;
    }
    if let Some(tr) = trace.as_deref_mut() {
        tr.table(tid as u32, aid as u32, hit, keys);
    }
    aid
}

/// Emit valid headers in deparse order, then the payload of `data` from
/// `payload_start`; byte-identical to the reference deparser.
///
/// An extracted header is its ingress bytes. Headers that lie back to back
/// in `data` are copied as one run, and the payload continues the last run
/// when it starts where that run ends, so an unreordered frame is one copy.
/// The `written` fields of every copied header are then stored over the
/// copy. A header with no ingress bytes (added by `setValid()`, or
/// invalidated since extract) is built from its fields: zeroed, then each
/// field XORed in, so sub-byte neighbours merge.
fn deparse(
    cp: &CompiledProgram,
    env: &Env,
    data: &[u8],
    payload_start: usize,
    trace: &mut Option<&mut TraceBuf>,
) -> EgressFrame {
    let valid = || {
        let header = |&h: &u32| (h, &env.headers[h as usize], &cp.headers[h as usize]);
        cp.deparse.iter().map(header).filter(|(_, hv, _)| hv.valid)
    };
    let header_bytes: usize = valid().map(|(_, _, plan)| plan.byte_width).sum();
    let mut out = egress_buffer(header_bytes + data.len() - payload_start);
    // Ingress bytes that come next in the output, not yet copied.
    let mut run = 0..0;
    for (hid, hv, plan) in valid() {
        if let Some(t) = trace.as_deref_mut() {
            t.emit(hid);
        }
        match hv.offset {
            Some(at) if at == run.end => run.end += plan.byte_width,
            Some(at) => out.extend_from_slice(&data[replace(&mut run, at..at + plan.byte_width)]),
            None => {
                out.extend_from_slice(&data[take(&mut run)]);
                let at = out.len();
                out.resize(at + plan.byte_width, 0);
                for (f, value) in plan.fields.iter().zip(&hv.fields) {
                    f.xor_into(&mut out[at..], *value);
                }
            }
        }
    }
    if run.end != payload_start {
        out.extend_from_slice(&data[replace(&mut run, payload_start..payload_start)]);
    }
    out.extend_from_slice(&data[run.start..]);
    let mut at = 0;
    for (_, hv, plan) in valid() {
        if hv.offset.is_some() {
            plan.store_written(&mut out[at..], &hv.fields);
        }
        at += plan.byte_width;
    }
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;

    /// Every corpus program and both shape programs pass the bytecode
    /// check, which `compile` ran, and lower to a flat program whose
    /// action and name tables line up with the IR, into a code vector
    /// allocated once at its final size.
    #[test]
    fn every_program_passes_the_check() {
        let shapes = [
            (
                "liveness_shapes",
                include_str!("../tests/liveness_shapes.p4"),
            ),
            (
                "selection_shapes",
                include_str!("../tests/selection_shapes.p4"),
            ),
        ];
        let corpus = corpus::corpus().into_iter().map(|p| (p.name, p.source));
        for (name, source) in corpus.chain(shapes) {
            let ir = netdebug_p4::compile(source).unwrap();
            let cp = CompiledProgram::compile(&ir);
            assert_eq!(check(&cp), Ok(cp.max_depth), "{name}");
            assert!(cp.max_depth > 0, "{name}: every program pushes");
            assert_eq!(cp.action_pcs.len(), ir.actions.len(), "{name}");
            assert_eq!(cp.names.tables.len(), ir.tables.len(), "{name}");
            assert_eq!(cp.names.states.len(), ir.parser.states.len(), "{name}");
            let sized = (cp.code.len(), cp.code.capacity());
            assert_eq!(sized, (code_len(&ir), code_len(&ir)), "{name}");
        }
    }

    /// A parser state reached first through an edge back from a later one
    /// is checked too: `deep` is declared before `start`'s target `hop`,
    /// and its three-deep assignment is the program's deepest pc.
    #[test]
    fn a_state_reached_backwards_is_checked() {
        let source = r#"
            header h_t { bit<8> a; bit<8> b; }
            struct headers_t { h_t h; }
            struct metadata_t { bit<8> m; }
            parser P(packet_in pkt, out headers_t hdr, inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {
                state start { pkt.extract(hdr.h); transition hop; }
                state deep { meta.m = hdr.h.a + (hdr.h.b + (hdr.h.a + 1)); transition accept; }
                state hop { transition deep; }
            }
            control I(inout headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
                apply { standard_metadata.egress_spec = 1; }
            }
            control D(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
            V1Switch(P(), I(), D()) main;
        "#;
        let cp = CompiledProgram::compile(&netdebug_p4::compile(source).unwrap());
        assert_eq!((check(&cp), cp.max_depth), (Ok(4), 4));
    }

    /// The check refuses each hand-made break of a compiled program, at
    /// the pc that breaks the rule (pcs as the pinned listings in
    /// `disasm.rs` print them).
    #[test]
    fn the_check_refuses_broken_code_at_its_pc() {
        let compiled = |source| CompiledProgram::compile(&netdebug_p4::compile(source).unwrap());
        let refused = |source, at: usize, op: OpCode| {
            let mut cp = compiled(source);
            cp.code[at] = op;
            check(&cp).unwrap_err()
        };
        let (reflector, l2) = (corpus::REFLECTOR, corpus::L2_SWITCH);
        // The reflector's first control statement pops instead of loading.
        assert_eq!(
            refused(reflector, 6, OpCode::Pop),
            "pc 0006 pops below depth 0"
        );
        // Its `start` state's jump to accept.
        let end = compiled(reflector).code_len() as u32;
        assert_eq!(
            refused(reflector, 2, OpCode::Jump(end)),
            "pc 0002 jumps past the end of the code"
        );
        assert_eq!(
            refused(reflector, 2, OpCode::Jump(u32::MAX)),
            "pc 0002 jumps to a target never patched"
        );
        // `flood` pushes its port and then a constant where it stored.
        assert_eq!(
            refused(l2, 15, OpCode::Const(0)),
            "pc 0016 returns at another depth than its action body entered"
        );
        // The counter index stays on the stack to the end.
        assert_eq!(
            refused(l2, 7, OpCode::MarkDrop),
            "pc 0009 finishes at a non-zero depth"
        );
        // A parser loop that pushes on every lap.
        let mut cp = compiled(reflector);
        cp.code[1] = OpCode::Const(0);
        cp.code[2] = OpCode::Jump(0);
        assert_eq!(check(&cp).unwrap_err(), "pc 0000 is reached at two depths");
        // An action body that applies a table, and a stray `return`.
        let apply = OpCode::FieldApply {
            h: 0,
            f: 0,
            tid: 0,
            hit_into: NO_HIT_LOCAL,
        };
        assert_eq!(
            refused(l2, 12, apply),
            "pc 0012 applies a table inside an action body"
        );
        assert_eq!(
            refused(l2, 9, OpCode::Return),
            "pc 0009 returns outside an action body"
        );
    }

    /// Which opcode each IR shape selects, pinned on a program with one
    /// statement per shape (pcs as `disassemble` prints them): the generic
    /// stack sequence everywhere but a table keyed on one header field.
    #[test]
    fn selection_is_pinned() {
        use BinOp::{Add, Eq, Lt, Sub};
        use OpCode::*;
        let ir = netdebug_p4::compile(include_str!("../tests/selection_shapes.p4")).unwrap();
        let cp = CompiledProgram::compile(&ir);
        let code = &cp.code;
        let (a, b, x) = (LoadField(0, 0), LoadField(0, 1), LoadField(0, 2));
        // `if (a == b)`, `if (a < 5)` and `if (5 < b)`: compare, then branch.
        assert_eq!(code[8..12], [a, b, Bin(Eq, 1), BranchIfZero(14)]);
        assert_eq!(code[14..18], [a, Const(5), Bin(Lt, 1), BranchIfZero(22)]);
        assert_eq!(code[22..26], [Const(5), b, Bin(Lt, 1), BranchIfZero(30)]);
        // `x = 1 - x` and `x = x - 1`.
        assert_eq!(code[30..33], [Const(1), x, Bin(Sub, 8)]);
        assert_eq!(code[34..37], [x, Const(1), Bin(Sub, 8)]);
        // Metadata-keyed and two-key tables apply from the stack; the
        // header-field key fuses and keeps its hit capture, and the
        // captured local takes the plain branch.
        let apply = |tid, nkeys| Apply {
            tid,
            nkeys,
            hit_into: NO_HIT_LOCAL,
        };
        let by_field = FieldApply {
            h: 0,
            f: 0,
            tid: 0,
            hit_into: 0,
        };
        assert_eq!(
            code[40..48],
            [
                LoadMeta(0),
                apply(1, 1),
                a,
                b,
                apply(2, 2),
                by_field,
                LoadLocal(0),
                BranchIfZero(52),
            ]
        );
        assert_eq!(code[48..51], [LoadField(0, 3), Const(8), Bin(Add, 8)]);
        // Two operands at most are ever live: `by_pair`'s keys, `a == b`.
        assert_eq!(cp.max_depth, 2);
    }

    /// Which fields each header's extract loads and its deparse stores
    /// over the copy, pinned on the benchmark programs and on a program
    /// with one statement per shape liveness must handle.
    #[test]
    fn live_sets_are_pinned() {
        let sets = |source: &str| -> Vec<String> {
            let ir = netdebug_p4::compile(source).unwrap();
            let cp = CompiledProgram::compile(&ir);
            (ir.headers.iter().zip(&cp.headers))
                .map(|(h, plan)| {
                    let names = |which: &[usize]| {
                        let names: Vec<&str> = which.iter().map(|&f| &*h.fields[f].name).collect();
                        names.join(" ")
                    };
                    let (live, written) = (names(&plan.live), names(&plan.written));
                    format!(
                        "{} {}/{} [{live}] [{written}]",
                        h.name,
                        plan.live.len(),
                        plan.fields.len()
                    )
                })
                .collect()
        };
        assert_eq!(sets(corpus::L2_SWITCH), ["ethernet 1/3 [dstAddr] []"]);
        assert_eq!(
            sets(corpus::IPV4_FORWARD),
            [
                "ethernet 3/3 [dstAddr srcAddr etherType] [dstAddr srcAddr]",
                "ipv4 3/12 [version ttl dstAddr] [ttl]",
            ]
        );
        assert_eq!(
            sets(corpus::ACL_FIREWALL),
            [
                "ethernet 1/3 [etherType] []",
                "ipv4 3/12 [protocol srcAddr dstAddr] []",
                "ports 1/2 [dstPort] []",
            ]
        );
        assert_eq!(
            sets(include_str!("../tests/liveness_shapes.p4")),
            [
                "outer 1/2 [o] [o]",
                "a 4/4 [kind n x y] [x y]",
                "b 3/3 [tag v w] [v w]",
                "c 1/2 [q] [q]",
            ]
        );
    }

    /// For every header of every corpus program, extracting through the
    /// compiled field plans reads what the bit loop reads, and emitting
    /// the extracted values into a zeroed buffer writes what the bit loop
    /// writes — on random header bytes. What the engine runs, extract of
    /// the live fields and the written fields stored over a copy of the
    /// wire bytes, equals a full extract and a full emit of the same
    /// writes: for the plan's own written set and with every field live
    /// and written, each written field taking a new value or keeping its own.
    #[test]
    fn header_plans_match_the_bit_loop() {
        use crate::bits::oracle;
        let mut next = oracle::noise(0x2545_F491_4F6C_DD1D);
        for prog in corpus::corpus() {
            let ir = netdebug_p4::compile(prog.source).unwrap();
            let cp = CompiledProgram::compile(&ir);
            for (layout, plan) in ir.headers.iter().zip(&cp.headers) {
                let what = format!("{}: header {}", prog.name, layout.name);
                assert_eq!(plan.byte_width * 8, layout.bit_width as usize, "{what}");
                assert_eq!(plan.fields.len(), layout.fields.len(), "{what}");
                let every: Vec<usize> = (0..plan.fields.len()).collect();
                let all_written = HeaderPlan {
                    live: every.clone(),
                    written: every,
                    ..plan.clone()
                };
                for _ in 0..32 {
                    let wire: Vec<u8> = (0..plan.byte_width).map(|_| next()).collect();
                    let (mut fast, mut slow) = (vec![0u8; wire.len()], vec![0u8; wire.len()]);
                    let mut full = Vec::new();
                    for (f, field) in plan.fields.iter().zip(&layout.fields) {
                        let (off, width) = (field.offset_bits as usize, field.width_bits as usize);
                        let value = f.load(&wire);
                        assert_eq!(
                            value,
                            oracle::read_bits(&wire, off, width),
                            "{what}.{}",
                            field.name
                        );
                        f.xor_into(&mut fast, value);
                        oracle::write_bits(&mut slow, off, width, value);
                        full.push(value);
                    }
                    assert_eq!(fast, slow, "{what}: emit");
                    // Fields tile the header, so emission reproduces it.
                    assert_eq!(fast, wire, "{what}: round trip");

                    for plan in [plan, &all_written] {
                        let mut slots = vec![0u128; full.len()];
                        plan.load_live(&wire, &mut slots);
                        let mut written = full.clone();
                        for (f, (slot, value)) in slots.iter().zip(&full).enumerate() {
                            let live = plan.live.contains(&f);
                            assert_eq!(*slot, if live { *value } else { 0 }, "{what}: live load");
                        }
                        for &f in &plan.written {
                            if next() & 1 == 1 {
                                let new = u128::from_be_bytes(std::array::from_fn(|_| next()));
                                slots[f] = truncate(new, layout.fields[f].width_bits);
                            }
                            written[f] = slots[f];
                        }
                        let mut copied = wire.clone();
                        plan.store_written(&mut copied, &slots);
                        let mut emitted = vec![0u8; wire.len()];
                        for (field, value) in layout.fields.iter().zip(&written) {
                            let (off, width) =
                                (field.offset_bits as usize, field.width_bits as usize);
                            oracle::write_bits(&mut emitted, off, width, *value);
                        }
                        assert_eq!(copied, emitted, "{what}: copy and patch");
                    }
                }
            }
        }
    }
}
