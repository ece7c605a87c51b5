//! The pipeline intermediate representation.
//!
//! Lowering flattens a parsed P4 program into this IR:
//!
//! * a [`ParseGraph`] — finite state machine with extract operations and
//!   select edges, terminating in `accept` or `reject`;
//! * one or more [`ControlIr`] blocks — straight-line statements with `if`
//!   branching, table applies and primitive ops;
//! * a deparse sequence — ordered header emission;
//! * symbol tables for headers, tables, actions, externs and locals.
//!
//! Every consumer of a P4 program in this reproduction — the reference
//! interpreter (`netdebug-dataplane`), the SDNet-sim hardware backend
//! (`netdebug-hw`), the symbolic verifier (`netdebug-verify`) and NetDebug's
//! checker-program compiler (`netdebug` core) — works from this one IR, which
//! is what makes cross-checking them against each other meaningful.

use crate::ast::{BinOp, MatchKind, UnOp};
use serde::{Deserialize, Serialize};

/// Index of a header instance in [`Program::headers`].
pub type HeaderId = usize;
/// Index of a field within a header layout.
pub type FieldId = usize;
/// Index of a table in [`Program::tables`].
pub type TableId = usize;
/// Index of an action in [`Program::actions`].
pub type ActionId = usize;
/// Index of a parser state in [`ParseGraph::states`].
pub type StateId = usize;
/// Index of an extern instance in [`Program::externs`].
pub type ExternId = usize;
/// Index of a metadata field in [`Program::metadata`].
pub type MetaId = usize;
/// Index of a local variable in [`Program::locals`].
pub type LocalId = usize;

/// A complete lowered program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Program name (from the package instantiation, or `"program"`).
    pub name: String,
    /// Header instances, in declaration order of the headers struct.
    pub headers: Vec<HeaderLayout>,
    /// Flattened user metadata fields.
    pub metadata: Vec<MetaField>,
    /// Local variables (control/action temporaries).
    pub locals: Vec<LocalVar>,
    /// The parser FSM.
    pub parser: ParseGraph,
    /// Match-action controls in execution order (ingress first).
    pub controls: Vec<ControlIr>,
    /// Deparser: headers emitted in order (each only if valid).
    pub deparse: Vec<HeaderId>,
    /// Extern instances (registers, counters, meters).
    pub externs: Vec<ExternIr>,
    /// All tables, across all controls.
    pub tables: Vec<TableIr>,
    /// All actions, across all controls.
    pub actions: Vec<ActionIr>,
}

impl Program {
    /// Find a header instance by name.
    pub fn header_by_name(&self, name: &str) -> Option<HeaderId> {
        self.headers.iter().position(|h| h.name == name)
    }

    /// Find a table by name (qualified or bare).
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// Find an action by bare name.
    pub fn action_by_name(&self, name: &str) -> Option<ActionId> {
        self.actions.iter().position(|a| a.name == name)
    }

    /// Find an extern by name.
    pub fn extern_by_name(&self, name: &str) -> Option<ExternId> {
        self.externs.iter().position(|e| e.name == name)
    }

    /// Classify whether per-packet outcomes of this program may be
    /// **memoized** by a flow cache keyed on the ingress port, the frame
    /// bytes the parser can observe, and the pinned snapshot generation
    /// (see `netdebug-dataplane`'s flow cache):
    ///
    /// * [`Cacheability::Cacheable`] — the packet's verdict, output frame
    ///   and per-apply table resolutions are a pure function of the
    ///   (port, frame, pinned-tables) triple; counter bumps are the only
    ///   extern effect and they replay commutatively. Two packets with the
    ///   same key under the same generation behave identically.
    /// * [`Cacheability::Uncacheable`] — something breaks that purity:
    ///   the pipeline reads or writes mutable extern state (registers,
    ///   meters — their cells evolve between packets of one flow), any
    ///   expression reads the ingress timestamp (differs per packet even
    ///   within a flow), or the parser FSM has a cycle, in which case the
    ///   bytes that steer parsing are not bounded by any static prefix and
    ///   the parsed key **under-determines the execution path**. Such
    ///   programs bypass the cache entirely.
    ///
    /// The analysis is flow-insensitive: a disqualifying read anywhere —
    /// reachable or not — classifies the whole program `Uncacheable`.
    /// Conservative, but sound, and cheap
    /// enough to run once at load.
    pub fn cacheability(&self) -> Cacheability {
        let mut stateful = false;
        self.visit_ops(|op| {
            if matches!(
                op,
                Op::RegisterRead(..) | Op::RegisterWrite(..) | Op::MeterExecute(..)
            ) {
                stateful = true;
            }
        });
        if stateful {
            return Cacheability::Uncacheable;
        }
        let mut reads_timestamp = false;
        self.visit_exprs(|e| {
            if matches!(e, IrExpr::Std(StdField::IngressTimestamp)) {
                reads_timestamp = true;
            }
        });
        if reads_timestamp {
            return Cacheability::Uncacheable;
        }
        if self.parser_longest_path_bits().is_none() {
            return Cacheability::Uncacheable;
        }
        Cacheability::Cacheable
    }

    /// Maximum bits any single packet's parse can consume, computed as the
    /// longest path through the parser FSM (each state charges the widths
    /// of the headers it extracts). Returns `None` when the FSM has a
    /// cycle — consumption is then bounded only by the runtime parse
    /// budget, not by the graph. For acyclic parsers this bounds the frame
    /// prefix that can influence parsing, and with it the whole pipeline
    /// of a [`Cacheability::Cacheable`] program: it is the flow cache's
    /// key-prefix length.
    pub fn parser_longest_path_bits(&self) -> Option<u64> {
        // Memoized DFS with an explicit on-stack color for cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            OnStack,
            Done,
        }
        fn cost(prog: &Program, s: StateId, colors: &mut [Color], memo: &mut [u64]) -> Option<u64> {
            match colors.get(s).copied() {
                None => return Some(0), // dangling id: parser rejects at runtime
                Some(Color::OnStack) => return None,
                Some(Color::Done) => return Some(memo[s]),
                Some(Color::White) => {}
            }
            colors[s] = Color::OnStack;
            let state = &prog.parser.states[s];
            let here: u64 = state
                .ops
                .iter()
                .map(|op| match op {
                    ParserOp::Extract(h) => u64::from(prog.headers[*h].bit_width),
                    ParserOp::Assign(..) => 0,
                })
                .sum();
            let mut onward = 0u64;
            let mut targets: Vec<StateId> = Vec::new();
            match &state.transition {
                IrTransition::Accept | IrTransition::Reject => {}
                IrTransition::Goto(t) => targets.push(*t),
                IrTransition::Select { arms, default, .. } => {
                    for arm in arms {
                        if let TransTarget::State(t) = arm.target {
                            targets.push(t);
                        }
                    }
                    if let TransTarget::State(t) = default {
                        targets.push(*t);
                    }
                }
            }
            for t in targets {
                onward = onward.max(cost(prog, t, colors, memo)?);
            }
            colors[s] = Color::Done;
            memo[s] = here + onward;
            Some(memo[s])
        }
        if self.parser.states.is_empty() {
            return Some(0);
        }
        let mut colors = vec![Color::White; self.parser.states.len()];
        let mut memo = vec![0u64; self.parser.states.len()];
        cost(self, 0, &mut colors, &mut memo)
    }

    /// Walk every expression in the program — parser assignments and
    /// select keys, control conditions and inline ops, table keys, action
    /// bodies — invoking `f` on every node.
    fn visit_exprs(&self, mut f: impl FnMut(&IrExpr)) {
        for st in &self.parser.states {
            for op in &st.ops {
                if let ParserOp::Assign(_, e) = op {
                    e.visit(&mut f);
                }
            }
            if let IrTransition::Select { keys, .. } = &st.transition {
                for k in keys {
                    k.visit(&mut f);
                }
            }
        }
        fn walk(body: &[IrStmt], f: &mut impl FnMut(&IrExpr)) {
            for stmt in body {
                match stmt {
                    IrStmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        cond.visit(f);
                        walk(then_branch, f);
                        walk(else_branch, f);
                    }
                    IrStmt::Op(op) => visit_op_exprs(op, f),
                    IrStmt::ApplyTable { .. } | IrStmt::Exit => {}
                }
            }
        }
        fn visit_op_exprs(op: &Op, f: &mut impl FnMut(&IrExpr)) {
            match op {
                Op::Assign(_, e) | Op::CounterInc(_, e) | Op::RegisterRead(_, _, e) => e.visit(f),
                Op::RegisterWrite(_, idx, val) => {
                    idx.visit(f);
                    val.visit(f);
                }
                Op::MeterExecute(_, idx, _) => idx.visit(f),
                Op::SetValid(..) | Op::Drop | Op::NoOp => {}
            }
        }
        for c in &self.controls {
            walk(&c.body, &mut f);
        }
        for t in &self.tables {
            for k in &t.keys {
                k.expr.visit(&mut f);
            }
        }
        for a in &self.actions {
            for op in &a.ops {
                visit_op_exprs(op, &mut f);
            }
        }
    }

    /// Walk every primitive op in the match-action pipeline (control
    /// bodies in execution order, then action bodies), depth-first.
    fn visit_ops(&self, mut f: impl FnMut(&Op)) {
        fn walk(body: &[IrStmt], f: &mut impl FnMut(&Op)) {
            for stmt in body {
                match stmt {
                    IrStmt::Op(op) => f(op),
                    IrStmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, f);
                        walk(else_branch, f);
                    }
                    IrStmt::ApplyTable { .. } | IrStmt::Exit => {}
                }
            }
        }
        for c in &self.controls {
            walk(&c.body, &mut f);
        }
        for a in &self.actions {
            for op in &a.ops {
                f(op);
            }
        }
    }
}

/// Whether a program's per-packet outcomes may be memoized by a flow
/// cache. See [`Program::cacheability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cacheability {
    /// Outcomes are a pure function of (port, observable frame prefix,
    /// frame length, pinned table generation): memoize freely.
    Cacheable,
    /// Mutable extern state, timestamp reads, or an unbounded parser make
    /// identical keys behave differently: bypass the cache.
    Uncacheable,
}

/// Wire layout of one header instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeaderLayout {
    /// Instance name within the headers struct (e.g. `ipv4`).
    pub name: String,
    /// Declared header type name (e.g. `ipv4_t`).
    pub ty_name: String,
    /// Fields in wire order with precomputed offsets.
    pub fields: Vec<FieldLayout>,
    /// Total width in bits (sum of field widths).
    pub bit_width: u32,
}

impl HeaderLayout {
    /// Find a field by name.
    pub fn field_by_name(&self, name: &str) -> Option<FieldId> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Width in whole bytes (headers in the subset must be byte-aligned).
    pub fn byte_width(&self) -> usize {
        (self.bit_width as usize) / 8
    }
}

/// One field of a header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Offset from the start of the header, in bits.
    pub offset_bits: u32,
    /// Width in bits.
    pub width_bits: u16,
}

/// One flattened user-metadata field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaField {
    /// Flattened name (e.g. `port` for `meta.port`).
    pub name: String,
    /// Width in bits.
    pub width: u16,
}

/// A local temporary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalVar {
    /// Name (unique within the program after lowering).
    pub name: String,
    /// Width in bits (bool lowers to width 1).
    pub width: u16,
}

/// Built-in standard metadata fields (v1model-flavoured, which is what the
/// SDNet-era toolchains exposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StdField {
    /// Port the packet arrived on (9 bits).
    IngressPort,
    /// Port chosen by the pipeline (9 bits); writing this forwards the packet.
    EgressSpec,
    /// Final egress port, set by the traffic manager (9 bits).
    EgressPort,
    /// Packet length in bytes (32 bits).
    PacketLength,
    /// Ingress timestamp in device cycles (48 bits).
    IngressTimestamp,
}

impl StdField {
    /// Width of the field in bits.
    pub fn width(self) -> u16 {
        match self {
            StdField::IngressPort | StdField::EgressSpec | StdField::EgressPort => 9,
            StdField::PacketLength => 32,
            StdField::IngressTimestamp => 48,
        }
    }

    /// Resolve a v1model-style field name.
    pub fn by_name(name: &str) -> Option<StdField> {
        Some(match name {
            "ingress_port" => StdField::IngressPort,
            "egress_spec" => StdField::EgressSpec,
            "egress_port" => StdField::EgressPort,
            "packet_length" => StdField::PacketLength,
            "ingress_global_timestamp" => StdField::IngressTimestamp,
            _ => return None,
        })
    }
}

/// The parser finite-state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParseGraph {
    /// States; index 0 is `start`.
    pub states: Vec<ParseState>,
}

/// One parser state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParseState {
    /// Source-level state name.
    pub name: String,
    /// Operations executed on entry, in order.
    pub ops: Vec<ParserOp>,
    /// The outgoing transition.
    pub transition: IrTransition,
}

/// Operations available inside parser states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParserOp {
    /// `pkt.extract(hdr.X)`: consume the header's bytes and mark it valid.
    Extract(HeaderId),
    /// Metadata assignment.
    Assign(LValue, IrExpr),
}

/// A transition out of a parser state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IrTransition {
    /// Unconditional accept.
    Accept,
    /// Unconditional reject (packet must be dropped, per P4-16 §12.8 —
    /// this is exactly the semantics the paper found SDNet to violate).
    Reject,
    /// Unconditional jump.
    Goto(StateId),
    /// Multi-way branch on key expressions.
    Select {
        /// Key expressions, evaluated left to right.
        keys: Vec<IrExpr>,
        /// Arms tried in order; first match wins.
        arms: Vec<SelectArm>,
        /// Where to go when nothing matches (P4 default: reject).
        default: TransTarget,
    },
}

/// One arm of a select transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectArm {
    /// Patterns, one per key expression.
    pub patterns: Vec<IrPattern>,
    /// Target when all patterns match.
    pub target: TransTarget,
}

/// A match pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IrPattern {
    /// Exact value.
    Value(u128),
    /// Masked match: `key & mask == value & mask`.
    Mask {
        /// Value to compare against.
        value: u128,
        /// Bits that participate.
        mask: u128,
    },
    /// Inclusive range.
    Range {
        /// Low bound.
        lo: u128,
        /// High bound.
        hi: u128,
    },
    /// Matches anything.
    Any,
}

impl IrPattern {
    /// Does `key` match this pattern?
    pub fn matches(&self, key: u128) -> bool {
        match *self {
            IrPattern::Value(v) => key == v,
            IrPattern::Mask { value, mask } => key & mask == value & mask,
            IrPattern::Range { lo, hi } => key >= lo && key <= hi,
            IrPattern::Any => true,
        }
    }
}

/// Target of a parser transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransTarget {
    /// Parsing succeeded.
    Accept,
    /// Packet is malformed; must be dropped.
    Reject,
    /// Continue at a state.
    State(StateId),
}

/// One match-action control block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlIr {
    /// Control name from the source.
    pub name: String,
    /// Body statements.
    pub body: Vec<IrStmt>,
}

/// Statements inside a control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IrStmt {
    /// Apply a table; optionally capture whether it hit into a local.
    ApplyTable {
        /// Which table.
        table: TableId,
        /// Local that receives 1 on hit, 0 on miss.
        hit_into: Option<LocalId>,
    },
    /// Conditional execution.
    If {
        /// Condition (width-1 expression).
        cond: IrExpr,
        /// Taken when the condition is non-zero.
        then_branch: Vec<IrStmt>,
        /// Taken otherwise.
        else_branch: Vec<IrStmt>,
    },
    /// An inline primitive operation.
    Op(Op),
    /// Abort pipeline processing for this packet (`exit`).
    Exit,
}

/// A table in the IR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableIr {
    /// Bare table name.
    pub name: String,
    /// Name of the control that declared it.
    pub control: String,
    /// Match keys.
    pub keys: Vec<TableKey>,
    /// Permitted actions.
    pub actions: Vec<ActionId>,
    /// Default action, invoked on miss.
    pub default_action: ActionCall,
    /// Declared capacity (entries); 1024 when unspecified.
    pub size: u64,
    /// Entries installed at compile time.
    pub const_entries: Vec<IrEntry>,
}

/// A table key: expression, kind and width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableKey {
    /// Key expression.
    pub expr: IrExpr,
    /// Match kind.
    pub kind: MatchKind,
    /// Key width in bits.
    pub width: u16,
}

/// How a table's declared key signature compiles into a lookup structure.
///
/// Real targets compile match kinds into hardware-shaped memories — exact
/// keys into hash units, LPM keys into prefix tries/TCAM slices, ternary
/// keys into priority TCAMs. The reference data plane mirrors that at
/// snapshot-publication time (see `netdebug-dataplane`'s `LookupIndex`):
/// the signature, known statically from the key declarations, picks the
/// structure once per table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KeySignature {
    /// Every key is `exact`: entries are point tuples, lookup can hash.
    AllExact,
    /// Exactly one key and it is `lpm`: entries are prefixes, lookup
    /// probes descending prefix lengths (longest prefix first).
    SingleLpm,
    /// Anything else — ternary or range keys, or mixed kinds: resolved by
    /// priority, through one hash per mask tuple while every entry is
    /// maskable and by the priority-ordered scan otherwise.
    Generic,
}

impl TableIr {
    /// Classify this table's key signature for lookup-index compilation.
    pub fn key_signature(&self) -> KeySignature {
        if self.keys.iter().all(|k| k.kind == MatchKind::Exact) {
            KeySignature::AllExact
        } else if self.keys.len() == 1 && self.keys[0].kind == MatchKind::Lpm {
            KeySignature::SingleLpm
        } else {
            KeySignature::Generic
        }
    }
}

/// An action invocation with bound arguments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionCall {
    /// Which action.
    pub action: ActionId,
    /// Argument values, one per action parameter.
    pub args: Vec<u128>,
}

/// One table entry (constant or runtime-installed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrEntry {
    /// Patterns, one per key.
    pub patterns: Vec<IrPattern>,
    /// Bound action.
    pub action: ActionCall,
    /// Priority; higher wins for ternary/range tables.
    pub priority: i32,
}

/// An action in the IR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionIr {
    /// Bare action name.
    pub name: String,
    /// Name of the control that declared it (empty for implicit `NoAction`).
    pub control: String,
    /// Runtime parameters: name and width.
    pub params: Vec<(String, u16)>,
    /// Operations executed in order.
    pub ops: Vec<Op>,
}

/// Extern kinds in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExternKindIr {
    /// Stateful register array.
    Register,
    /// Packet/byte counter array.
    Counter,
    /// Two-rate three-color meter array (simplified to packet-rate).
    Meter,
}

/// One extern instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExternIr {
    /// Which extern.
    pub kind: ExternKindIr,
    /// Instance name.
    pub name: String,
    /// Cell width in bits.
    pub width: u16,
    /// Number of cells.
    pub size: u64,
}

/// Primitive operations inside actions (and inline in controls).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// `lhs = rhs`.
    Assign(LValue, IrExpr),
    /// `hdr.X.setValid()` / `setInvalid()`.
    SetValid(HeaderId, bool),
    /// `mark_to_drop()`: set the drop flag (cleared by a later egress_spec
    /// write, matching v1model).
    Drop,
    /// `c.count(idx)`.
    CounterInc(ExternId, IrExpr),
    /// `r.read(dst, idx)`.
    RegisterRead(LValue, ExternId, IrExpr),
    /// `r.write(idx, value)`.
    RegisterWrite(ExternId, IrExpr, IrExpr),
    /// `m.execute(idx, dst_color)`: dst gets 0=green, 1=yellow, 2=red.
    MeterExecute(ExternId, IrExpr, LValue),
    /// Does nothing (NoAction).
    NoOp,
}

/// Assignable locations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LValue {
    /// A header field.
    Field(HeaderId, FieldId),
    /// A user metadata field.
    Meta(MetaId),
    /// A standard metadata field.
    Std(StdField),
    /// A local temporary.
    Local(LocalId),
    /// A bit slice of another lvalue.
    Slice(Box<LValue>, u16, u16),
}

/// Expressions. Every node knows its width in bits; comparison and logical
/// operators produce width 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IrExpr {
    /// Constant.
    Const {
        /// Value (already truncated to `width`).
        value: u128,
        /// Width in bits.
        width: u16,
    },
    /// Header field read.
    Field(HeaderId, FieldId),
    /// User metadata read.
    Meta(MetaId),
    /// Standard metadata read.
    Std(StdField),
    /// Action runtime parameter.
    Param {
        /// Parameter index within the action.
        index: usize,
        /// Parameter width in bits.
        width: u16,
    },
    /// Local temporary read.
    Local(LocalId),
    /// `hdr.X.isValid()`.
    IsValid(HeaderId),
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Box<IrExpr>,
        /// Result width.
        width: u16,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Box<IrExpr>,
        /// Right operand.
        b: Box<IrExpr>,
        /// Result width.
        width: u16,
    },
    /// Bit slice `[hi:lo]` (inclusive).
    Slice {
        /// Base expression.
        base: Box<IrExpr>,
        /// High bit.
        hi: u16,
        /// Low bit.
        lo: u16,
    },
    /// Width cast (truncate or zero-extend).
    Cast {
        /// Source expression.
        expr: Box<IrExpr>,
        /// Target width.
        width: u16,
    },
}

impl IrExpr {
    /// Result width in bits.
    pub fn width(&self, prog: &Program) -> u16 {
        match self {
            IrExpr::Const { width, .. } => *width,
            IrExpr::Field(h, f) => prog.headers[*h].fields[*f].width_bits,
            IrExpr::Meta(m) => prog.metadata[*m].width,
            IrExpr::Std(s) => s.width(),
            IrExpr::Param { width, .. } => *width,
            IrExpr::Local(l) => prog.locals[*l].width,
            IrExpr::IsValid(_) => 1,
            IrExpr::Un { width, .. } => *width,
            IrExpr::Bin { width, .. } => *width,
            IrExpr::Slice { hi, lo, .. } => hi - lo + 1,
            IrExpr::Cast { width, .. } => *width,
        }
    }

    /// Shorthand constant constructor (value truncated to width).
    pub fn konst(value: u128, width: u16) -> IrExpr {
        IrExpr::Const {
            value: truncate(value, width),
            width,
        }
    }

    /// Walk this expression tree, invoking `f` on every node.
    pub fn visit(&self, f: &mut impl FnMut(&IrExpr)) {
        f(self);
        match self {
            IrExpr::Un { a, .. } => a.visit(f),
            IrExpr::Bin { a, b, .. } => {
                a.visit(f);
                b.visit(f);
            }
            IrExpr::Slice { base, .. } => base.visit(f),
            IrExpr::Cast { expr, .. } => expr.visit(f),
            _ => {}
        }
    }
}

/// Mask a value to `width` bits.
pub fn truncate(value: u128, width: u16) -> u128 {
    if width >= 128 {
        value
    } else {
        value & ((1u128 << width) - 1)
    }
}

/// The all-ones value of a given width.
pub fn all_ones(width: u16) -> u128 {
    truncate(u128::MAX, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_masks_correctly() {
        assert_eq!(truncate(0x1FF, 8), 0xFF);
        assert_eq!(truncate(0xFFFF, 16), 0xFFFF);
        assert_eq!(truncate(u128::MAX, 128), u128::MAX);
        assert_eq!(all_ones(4), 0xF);
        assert_eq!(all_ones(128), u128::MAX);
    }

    #[test]
    fn patterns_match() {
        assert!(IrPattern::Value(5).matches(5));
        assert!(!IrPattern::Value(5).matches(6));
        assert!(IrPattern::Mask {
            value: 0x0800,
            mask: 0xFF00
        }
        .matches(0x08AB));
        assert!(!IrPattern::Mask {
            value: 0x0800,
            mask: 0xFF00
        }
        .matches(0x11AB));
        assert!(IrPattern::Range { lo: 3, hi: 9 }.matches(9));
        assert!(!IrPattern::Range { lo: 3, hi: 9 }.matches(10));
        assert!(IrPattern::Any.matches(u128::MAX));
    }

    #[test]
    fn key_signatures_classify() {
        let key = |kind| TableKey {
            expr: IrExpr::konst(0, 32),
            kind,
            width: 32,
        };
        let table = |keys| TableIr {
            name: "t".into(),
            control: "I".into(),
            keys,
            actions: vec![0],
            default_action: ActionCall {
                action: 0,
                args: vec![],
            },
            size: 16,
            const_entries: vec![],
        };
        use crate::ast::MatchKind::*;
        assert_eq!(
            table(vec![key(Exact)]).key_signature(),
            KeySignature::AllExact
        );
        assert_eq!(
            table(vec![key(Exact), key(Exact)]).key_signature(),
            KeySignature::AllExact
        );
        assert_eq!(
            table(vec![key(Lpm)]).key_signature(),
            KeySignature::SingleLpm
        );
        // LPM only compiles to the prefix structure when it is the sole key.
        assert_eq!(
            table(vec![key(Exact), key(Lpm)]).key_signature(),
            KeySignature::Generic
        );
        assert_eq!(
            table(vec![key(Ternary)]).key_signature(),
            KeySignature::Generic
        );
        assert_eq!(
            table(vec![key(Range)]).key_signature(),
            KeySignature::Generic
        );
        // A keyless table is vacuously all-exact (first entry always wins).
        assert_eq!(table(vec![]).key_signature(), KeySignature::AllExact);
    }

    #[test]
    fn std_fields_resolve() {
        assert_eq!(StdField::by_name("egress_spec"), Some(StdField::EgressSpec));
        assert_eq!(StdField::by_name("nope"), None);
        assert_eq!(StdField::EgressSpec.width(), 9);
        assert_eq!(StdField::PacketLength.width(), 32);
    }

    #[test]
    fn konst_truncates() {
        match IrExpr::konst(0x1FF, 8) {
            IrExpr::Const { value, width } => {
                assert_eq!(value, 0xFF);
                assert_eq!(width, 8);
            }
            _ => unreachable!(),
        }
    }

    /// A minimal meter program parameterised over a second action's body
    /// and the ingress `apply` block, for probing the cacheability
    /// analysis.
    fn meter_program(other_action_body: &str, apply_body: &str) -> Program {
        let src = format!(
            r#"
            header ethernet_t {{
                bit<48> dstAddr;
                bit<48> srcAddr;
                bit<16> etherType;
            }}
            struct headers_t {{ ethernet_t ethernet; }}
            struct metadata_t {{ bit<2> color; bit<32> idx; }}
            parser P(packet_in pkt, out headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {{
                state start {{
                    pkt.extract(hdr.ethernet);
                    transition accept;
                }}
            }}
            control I(inout headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {{
                meter(64) m;
                action fwd() {{ standard_metadata.egress_spec = 1; }}
                action other() {{
                    {other_action_body}
                }}
                table t {{
                    key = {{ standard_metadata.ingress_port: exact; }}
                    actions = {{ fwd; other; }}
                    size = 4;
                    default_action = fwd();
                }}
                apply {{
                    {apply_body}
                }}
            }}
            control D(packet_out pkt, in headers_t hdr) {{
                apply {{ pkt.emit(hdr.ethernet); }}
            }}
            V1Switch(P(), I(), D()) main;
            "#
        );
        crate::compile(&src).expect("meter probe program must compile")
    }

    const BENIGN_ACTION: &str = "standard_metadata.egress_spec = 2;";

    #[test]
    fn stateless_pipeline_is_cacheable() {
        let p = meter_program(BENIGN_ACTION, "t.apply();");
        assert_eq!(p.cacheability(), Cacheability::Cacheable);
        // One ethernet extract: the key prefix is exactly the header.
        assert_eq!(p.parser_longest_path_bits(), Some(112));
    }

    #[test]
    fn extern_state_reads_are_uncacheable() {
        // A meter's token bucket evolves between packets of one flow: the
        // second packet of a flow may see a different color.
        let p = meter_program(
            BENIGN_ACTION,
            "m.execute((bit<32>) standard_metadata.ingress_port, meta.color); t.apply();",
        );
        assert_eq!(p.cacheability(), Cacheability::Uncacheable);
    }

    #[test]
    fn timestamp_reads_are_uncacheable() {
        // The timestamp differs per packet even within a flow, so a verdict
        // derived from it cannot be replayed.
        let p = meter_program(
            "meta.idx = (bit<32>) standard_metadata.ingress_global_timestamp;",
            "t.apply();",
        );
        assert_eq!(p.cacheability(), Cacheability::Uncacheable);
        // But the same program without the read is cacheable (control).
        let p = meter_program("meta.idx = 32w7;", "t.apply();");
        assert_eq!(p.cacheability(), Cacheability::Cacheable);
    }

    #[test]
    fn cyclic_parsers_are_uncacheable() {
        // A parser loop makes consumed bytes budget-bounded, not
        // graph-bounded: no static frame prefix determines the parse.
        let src = r#"
            header tag_t { bit<8> kind; }
            struct headers_t { tag_t tag; }
            struct metadata_t { bit<8> depth; }
            parser P(packet_in pkt, out headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t standard_metadata) {
                state start {
                    pkt.extract(hdr.tag);
                    transition select(hdr.tag.kind) {
                        8w0: accept;
                        default: start;
                    }
                }
            }
            control I(inout headers_t hdr, inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
                apply { standard_metadata.egress_spec = 1; }
            }
            control D(packet_out pkt, in headers_t hdr) {
                apply { pkt.emit(hdr.tag); }
            }
            V1Switch(P(), I(), D()) main;
        "#;
        let p = crate::compile(src).expect("looping parser must compile");
        assert_eq!(p.parser_longest_path_bits(), None);
        assert_eq!(p.cacheability(), Cacheability::Uncacheable);
    }
}
