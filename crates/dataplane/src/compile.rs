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
//! * where the IR shape in hand has a fused form — a constant right
//!   operand, a comparison under an `if`, a one-header-field table key —
//!   that superinstruction is emitted in place of the generic sequence
//!   (nothing rewrites the code afterwards);
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
use crate::cache::MissRecord;
use crate::externs::ExternState;
use crate::interp::{Env, TablesRef, FLOOD_PORT};
use crate::table::TableStats;
use crate::trace::{DropReason, TraceBuf, TraceName, TraceTables, Verdict};
use netdebug_p4::ast::{BinOp, UnOp};
use netdebug_p4::ir::{
    self, all_ones, truncate, IrExpr, IrPattern, IrStmt, IrTransition, LValue, Op, StdField,
    TransTarget,
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

    // -------- superinstructions (selected by the lowering) --------
    /// Superinstruction `push-const + binop`, selected for a binary
    /// expression whose right operand is a constant: replaces the top of
    /// stack `x` with `op(x, k)` at the given width — one dispatch
    /// instead of a push and a pop.
    ConstBin(BinOp, u16, u128),
    /// Superinstruction `compare + branch`, selected for an `if` whose
    /// condition is a binary expression: pops rhs then lhs, jumps to the
    /// target when `op(lhs, rhs)` is zero; nothing is pushed.
    CmpBranch(BinOp, u16, u32),
    /// Superinstruction `compare-with-constant + branch`, selected when
    /// that condition's right operand is a constant: pops the lhs, jumps
    /// to the target when `op(lhs, k)` is zero.
    ConstCmpBranch(BinOp, u16, u128, u32),
    /// Superinstruction `load-field + apply`, selected for a table whose
    /// single key is a header field: evaluates the key (0 when the header
    /// is invalid, as [`OpCode::LoadField`] defines) straight into the
    /// key scratch and applies the table — the l2_switch/corpus hot
    /// pair, skipping the value stack entirely.
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
    /// Field names, for the disassembly.
    pub(crate) names: Vec<Box<str>>,
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
    /// Interned names (states, controls, tables, actions, headers),
    /// indexed by the corresponding IR id — the tables a `LazyTrace`
    /// resolves flat record ids against.
    pub(crate) names: TraceTables,
}

impl CompiledProgram {
    /// Lower `prog` into the flat engine. Called once per
    /// [`crate::Dataplane`] construction; the result is immutable and
    /// shared (`Arc`) across clones.
    pub fn compile(prog: &ir::Program) -> CompiledProgram {
        Compiler::new(prog).run()
    }

    /// Number of flat instructions (observability for tests/benches).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// A [`Display`](core::fmt::Display)able disassembly of the flat
    /// code: one line per instruction with index, mnemonic, resolved
    /// operand names and jump targets.
    pub fn disassemble(&self) -> crate::disasm::Disassembly<'_> {
        crate::disasm::Disassembly::new(self)
    }

    /// The interned name tables (shared with the reference engine so both
    /// engines' decoded traces clone the same pointers).
    pub(crate) fn names(&self) -> &TraceTables {
        &self.names
    }
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
            code: Vec::new(),
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
                FixLoc::Code(i) => match &mut self.code[i] {
                    OpCode::Jump(t) => *t = pc,
                    other => unreachable!("fixup on non-jump {other:?}"),
                },
                FixLoc::Arm(s, a) => self.selects[s].arms[a].1 = pc,
                FixLoc::Default(s) => self.selects[s].default = pc,
            }
        }
        for i in std::mem::take(&mut self.exit_fixups) {
            match &mut self.code[i] {
                OpCode::Exit(t) => *t = finish_pc,
                other => unreachable!("exit fixup on {other:?}"),
            }
        }

        // ---- Field liveness, from the finished code: one flag byte per
        // field of every header, flat (bit 0 touched, bit 1 written). ----
        let mut first = Vec::with_capacity(prog.headers.len());
        let mut touched = Vec::new();
        for h in &prog.headers {
            first.push(touched.len());
            touched.resize(touched.len() + h.fields.len(), 0u8);
        }
        for (h, f, written) in self.code.iter().filter_map(field_access) {
            touched[first[h as usize] + f as usize] |= 1 | u8::from(written) << 1;
        }

        // ---- Side tables. ----
        let headers = prog
            .headers
            .iter()
            .zip(first)
            .map(|(h, first)| {
                assert!(
                    h.bit_width.is_multiple_of(8),
                    "header `{}` is {} bits — headers must be whole bytes",
                    h.name,
                    h.bit_width
                );
                let flags = &touched[first..first + h.fields.len()];
                let with = |bit: u8| (0..flags.len()).filter(|&f| flags[f] & bit != 0).collect();
                HeaderPlan {
                    byte_width: h.byte_width(),
                    fields: h
                        .fields
                        .iter()
                        .map(|f| FieldPlan::new(f.offset_bits as usize, f.width_bits as usize))
                        .collect(),
                    names: h.fields.iter().map(|f| f.name.as_str().into()).collect(),
                    live: with(1),
                    written: with(2),
                }
            })
            .collect();
        let intern = |s: &str| -> TraceName { s.into() };
        CompiledProgram {
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
                    let br = self.emit_branch(cond);
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

    /// Emit `cond` and the branch taken when it is zero, comparing in the
    /// branch itself when the condition is a binary expression. Returns
    /// the branch's index for [`Self::patch_jump`].
    fn emit_branch(&mut self, cond: &IrExpr) -> usize {
        let branch = match cond {
            IrExpr::Bin { op, a, b, width } if *op != BinOp::Concat => {
                self.emit_expr(a);
                match self.emit_rhs(b) {
                    Some(k) => OpCode::ConstCmpBranch(*op, *width, k, u32::MAX),
                    None => OpCode::CmpBranch(*op, *width, u32::MAX),
                }
            }
            _ => {
                self.emit_expr(cond);
                OpCode::BranchIfZero(u32::MAX)
            }
        };
        self.code.push(branch);
        self.code.len() - 1
    }

    /// A constant right operand rides in the instruction: returns it, or
    /// emits `b` and returns `None`.
    fn emit_rhs(&mut self, b: &IrExpr) -> Option<u128> {
        match *b {
            IrExpr::Const { value, .. } => Some(value),
            _ => {
                self.emit_expr(b);
                None
            }
        }
    }

    fn patch_jump(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            OpCode::Jump(t)
            | OpCode::BranchIfZero(t)
            | OpCode::CmpBranch(_, _, t)
            | OpCode::ConstCmpBranch(_, _, _, t) => *t = target,
            other => unreachable!("patch on non-jump {other:?}"),
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
                let bin = match self.emit_rhs(b) {
                    Some(k) => OpCode::ConstBin(*op, *width, k),
                    None => OpCode::Bin(*op, *width),
                };
                self.code.push(bin);
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
        ConstBin(..) | CmpBranch(..) | ConstCmpBranch(..) => None,
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
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec(
    cp: &CompiledProgram,
    tables: TablesRef<'_>,
    table_stats: &mut [TableStats],
    externs: &mut ExternState,
    env: &mut Env,
    port: u16,
    data: &[u8],
    now_cycles: u64,
    mut trace: Option<&mut TraceBuf>,
    mut rec: Option<&mut MissRecord>,
) -> Verdict {
    env.reset(port, data.len(), now_cycles);
    env.stack.clear();
    let code = &cp.code[..];
    let mut pc = 0usize;
    let mut link = 0usize;
    // Parser cursor in bytes: headers are whole bytes (see `HeaderPlan`).
    let mut cursor = 0usize;
    let mut payload_start = 0usize;
    let mut visited = 0usize;
    loop {
        match code[pc] {
            // -------- expression stack --------
            OpCode::Const(v) => env.stack.push(v),
            OpCode::LoadField(h, f) => {
                let hv = &env.headers[h as usize];
                env.stack
                    .push(if hv.valid { hv.fields[f as usize] } else { 0 });
            }
            OpCode::LoadFieldRaw(h, f) => {
                env.stack.push(env.headers[h as usize].fields[f as usize]);
            }
            OpCode::LoadMeta(m) => env.stack.push(env.meta[m as usize]),
            OpCode::LoadStd(s) => env.stack.push(match s {
                StdField::IngressPort => env.ingress_port,
                StdField::EgressSpec | StdField::EgressPort => env.egress_spec,
                StdField::PacketLength => env.packet_length,
                StdField::IngressTimestamp => env.ts_cycles,
            }),
            OpCode::LoadParam(i, width) => {
                let v = env.action_args.get(i as usize).copied().unwrap_or(0);
                env.stack.push(truncate(v, width));
            }
            OpCode::LoadLocal(l) => env.stack.push(env.locals[l as usize]),
            OpCode::LoadIsValid(h) => env.stack.push(env.headers[h as usize].valid as u128),
            OpCode::Un(op, width) => {
                let v = env.stack.last_mut().expect("un operand");
                *v = eval_un(op, *v, width);
            }
            OpCode::Bin(op, w) => {
                let y = env.stack.pop().expect("bin rhs");
                let x = env.stack.last_mut().expect("bin lhs");
                *x = eval_bin(op, *x, y, w, 0);
            }
            OpCode::Concat(shift, width) => {
                let y = env.stack.pop().expect("concat rhs");
                let x = env.stack.last_mut().expect("concat lhs");
                *x = eval_bin(BinOp::Concat, *x, y, width, shift);
            }
            OpCode::SliceE(hi, lo) => {
                let v = env.stack.last_mut().expect("slice base");
                *v = truncate(*v >> lo, hi - lo + 1);
            }
            OpCode::CastE(width) => {
                let v = env.stack.last_mut().expect("cast operand");
                *v = truncate(*v, width);
            }
            OpCode::SliceMerge(hi, lo) => {
                let current = env.stack.pop().expect("slice current");
                let v = env.stack.last_mut().expect("slice value");
                let w = hi - lo + 1;
                let mask = all_ones(w) << lo;
                *v = (current & !mask) | (truncate(*v, w) << lo);
            }

            // -------- stores --------
            OpCode::StoreField(h, f, width) => {
                let v = env.stack.pop().expect("store value");
                env.headers[h as usize].fields[f as usize] = truncate(v, width);
            }
            OpCode::StoreMeta(m, width) => {
                let v = env.stack.pop().expect("store value");
                env.meta[m as usize] = truncate(v, width);
            }
            OpCode::StoreLocal(l, width) => {
                let v = env.stack.pop().expect("store value");
                env.locals[l as usize] = truncate(v, width);
            }
            OpCode::StoreEgressSpec => {
                let v = env.stack.pop().expect("store value");
                env.egress_spec = truncate(v, 9);
                env.egress_written = true;
                // v1model: a later egress write revives the packet.
                env.drop_flag = false;
            }
            OpCode::StorePacketLength => {
                let v = env.stack.pop().expect("store value");
                env.packet_length = truncate(v, 32);
            }
            OpCode::StoreTimestamp => {
                let v = env.stack.pop().expect("store value");
                env.ts_cycles = truncate(v, 48);
            }
            OpCode::Pop => {
                env.stack.pop();
            }

            // -------- superinstructions --------
            OpCode::ConstBin(op, w, k) => {
                let x = env.stack.last_mut().expect("const-bin lhs");
                *x = eval_bin(op, *x, k, w, 0);
            }
            OpCode::CmpBranch(op, w, t) => {
                let y = env.stack.pop().expect("cmp-branch rhs");
                let x = env.stack.pop().expect("cmp-branch lhs");
                if eval_bin(op, x, y, w, 0) == 0 {
                    pc = t as usize;
                    continue;
                }
            }
            OpCode::ConstCmpBranch(op, w, k, t) => {
                let x = env.stack.pop().expect("const-cmp-branch lhs");
                if eval_bin(op, x, k, w, 0) == 0 {
                    pc = t as usize;
                    continue;
                }
            }

            // -------- control flow --------
            OpCode::Jump(t) => {
                pc = t as usize;
                continue;
            }
            OpCode::BranchIfZero(t) => {
                if env.stack.pop().expect("branch cond") == 0 {
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
                let base = env.stack.len() - nkeys as usize;
                env.key_scratch.clear();
                for i in base..env.stack.len() {
                    let v = env.stack[i];
                    env.key_scratch.push(v);
                }
                env.stack.truncate(base);
                let aid = apply_keys(
                    cp,
                    tables,
                    table_stats,
                    env,
                    &mut trace,
                    &mut rec,
                    tid,
                    hit_into,
                );
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
                env.key_scratch.clear();
                env.key_scratch.push(key);
                let aid = apply_keys(
                    cp,
                    tables,
                    table_stats,
                    env,
                    &mut trace,
                    &mut rec,
                    tid,
                    hit_into,
                );
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
                let i = env.stack.pop().expect("counter index") as usize;
                externs.counter_inc(id as usize, i, data.len());
                if let Some(r) = rec.as_deref_mut() {
                    r.counters.push((id, i as u64));
                }
            }
            OpCode::RegisterRead(id) => {
                let i = env.stack.pop().expect("register index") as usize;
                let v = externs.register_read(id as usize, i);
                env.stack.push(v);
            }
            OpCode::RegisterWrite(id) => {
                let v = env.stack.pop().expect("register value");
                let i = env.stack.pop().expect("register index") as usize;
                externs.register_write(id as usize, i, v);
            }
            OpCode::MeterExecute(id) => {
                let i = env.stack.pop().expect("meter index") as usize;
                let colour = externs.meter_execute(id as usize, i, now_cycles);
                env.stack.push(colour);
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
                let base = env.stack.len() - s.nkeys;
                let keys = &env.stack[base..];
                let target = s
                    .arms
                    .iter()
                    .find(|(patterns, _)| patterns.iter().zip(keys).all(|(p, k)| p.matches(*k)))
                    .map(|&(_, t)| t)
                    .unwrap_or(s.default);
                env.stack.truncate(base);
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
/// lookup on `env.key_scratch`, action-argument binding, statistics,
/// hit-capture local, trace record. Returns the action id to enter.
#[inline]
#[allow(clippy::too_many_arguments)]
fn apply_keys(
    cp: &CompiledProgram,
    tables: TablesRef<'_>,
    table_stats: &mut [TableStats],
    env: &mut Env,
    trace: &mut Option<&mut TraceBuf>,
    rec: &mut Option<&mut MissRecord>,
    tid: u32,
    hit_into: u32,
) -> usize {
    let tid = tid as usize;
    let (aid, hit) = match tables.lookup(tid, &env.key_scratch) {
        Some(entry) => {
            env.action_args.clear();
            env.action_args.extend_from_slice(&entry.action.args);
            (entry.action.action, true)
        }
        None => {
            let (aid, args) = &cp.table_defaults[tid];
            env.action_args.clear();
            env.action_args.extend_from_slice(args);
            (*aid as usize, false)
        }
    };
    table_stats[tid].record(hit);
    if let Some(r) = rec.as_deref_mut() {
        r.applies.push((tid as u32, hit));
    }
    if hit_into != NO_HIT_LOCAL {
        env.locals[hit_into as usize] = hit as u128;
    }
    if let Some(tr) = trace.as_deref_mut() {
        tr.table(tid as u32, aid as u32, hit, &env.key_scratch);
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
) -> Vec<u8> {
    let valid = || {
        let header = |&h: &u32| (h, &env.headers[h as usize], &cp.headers[h as usize]);
        cp.deparse.iter().map(header).filter(|(_, hv, _)| hv.valid)
    };
    let header_bytes: usize = valid().map(|(_, _, plan)| plan.byte_width).sum();
    let mut out = Vec::with_capacity(header_bytes + data.len() - payload_start);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;

    /// Every corpus program lowers to a flat program whose action table
    /// and name tables line up with the IR, with all targets in range.
    #[test]
    fn corpus_compiles_flat() {
        for prog in corpus::corpus() {
            let ir = netdebug_p4::compile(prog.source).unwrap();
            let cp = CompiledProgram::compile(&ir);
            assert!(cp.code_len() > 0, "{}: empty code", prog.name);
            assert_eq!(cp.action_pcs.len(), ir.actions.len(), "{}", prog.name);
            assert_eq!(cp.names.tables.len(), ir.tables.len(), "{}", prog.name);
            assert_eq!(
                cp.names.states.len(),
                ir.parser.states.len(),
                "{}",
                prog.name
            );
            // Every jump/branch/action target lands inside the code.
            let len = cp.code_len() as u32;
            for op in &cp.code {
                match *op {
                    OpCode::Jump(t)
                    | OpCode::BranchIfZero(t)
                    | OpCode::Exit(t)
                    | OpCode::CmpBranch(_, _, t)
                    | OpCode::ConstCmpBranch(_, _, _, t) => {
                        assert!(t < len, "{}: target {t} out of range", prog.name)
                    }
                    _ => {}
                }
            }
            for sel in &cp.selects {
                assert!(sel.default < len, "{}: select default", prog.name);
                for (_, t) in &sel.arms {
                    assert!(*t < len, "{}: select arm", prog.name);
                }
            }
            for &a in &cp.action_pcs {
                assert!(a < len, "{}: action pc", prog.name);
            }
        }
    }

    /// Which opcode each IR shape selects, pinned on a program with one
    /// statement per shape (pcs as `disassemble` prints them).
    #[test]
    fn selection_is_pinned() {
        use BinOp::{Add, Eq, Lt, Sub};
        use OpCode::*;
        let ir = netdebug_p4::compile(include_str!("../tests/selection_shapes.p4")).unwrap();
        let code = CompiledProgram::compile(&ir).code;
        let (a, b, x) = (LoadField(0, 0), LoadField(0, 1), LoadField(0, 2));
        // `if (a == b)`: the comparison is the branch.
        assert_eq!(code[8..11], [a, b, CmpBranch(Eq, 1, 13)]);
        // `if (a < 5)`: so is the constant.
        assert_eq!(code[13..15], [a, ConstCmpBranch(Lt, 1, 5, 18)]);
        // `if (5 < b)`: a constant on the left stays a push.
        assert_eq!(code[18..21], [Const(5), b, CmpBranch(Lt, 1, 24)]);
        // `x = 1 - x` against `x = x - 1`.
        assert_eq!(code[24..27], [Const(1), x, Bin(Sub, 8)]);
        assert_eq!(code[28..30], [x, ConstBin(Sub, 8, 1)]);
        // Metadata-keyed and two-key tables apply from the stack; the
        // header-field key fuses and keeps its hit capture, and the
        // captured local — not a comparison — takes the plain branch.
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
            code[33..41],
            [
                LoadMeta(0),
                apply(1, 1),
                a,
                b,
                apply(2, 2),
                by_field,
                LoadLocal(0),
                BranchIfZero(44),
            ]
        );
        assert_eq!(code[42], ConstBin(Add, 8, 8));
    }

    /// Which fields each header's extract loads and its deparse stores
    /// over the copy, pinned on the benchmark programs and on a program
    /// with one statement per shape liveness must handle.
    #[test]
    fn live_sets_are_pinned() {
        let sets = |source: &str| -> Vec<String> {
            let cp = CompiledProgram::compile(&netdebug_p4::compile(source).unwrap());
            let names = |plan: &HeaderPlan, which: &[usize]| {
                which
                    .iter()
                    .map(|&f| &*plan.names[f])
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            (cp.names.headers.iter().zip(&cp.headers))
                .map(|(h, plan)| {
                    let (live, written) = (names(plan, &plan.live), names(plan, &plan.written));
                    format!(
                        "{h} {}/{} [{live}] [{written}]",
                        plan.live.len(),
                        plan.names.len()
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
