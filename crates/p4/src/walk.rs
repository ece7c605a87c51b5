//! The IR's execution semantics, written once.
//!
//! [`walk`] runs one packet through a [`Program`]: the parser FSM from
//! `start` (states, `extract`, parser assignments, `select`, the state
//! budget), then every control in order (`if`, table applies, `exit`,
//! action bodies, every [`Op`]), evaluating [`IrExpr`]s and assigning
//! [`LValue`]s on the way. It is generic over a value [`Domain`]: the walker
//! owns the rules (evaluation order, invalid header reads yield 0, a slice
//! write is a read-modify-write, `mark_to_drop` is revived by a later
//! `egress_spec` write, `exit` ends the pipeline), and the domain owns the
//! values, the packet state and every branch point.
//!
//! Two domains exist. `netdebug-dataplane`'s reference engine is `u128`
//! bit-vectors over its packet environment: it decides each branch by
//! evaluating it, and it records the trace and updates tables and externs
//! as it goes. `netdebug-verify`'s explorer is symbolic expressions under a
//! path condition: it decides each branch by replaying a decision prefix,
//! and past the prefix by taking the first feasible alternative and
//! queueing the others for later walks.
//!
//! The operator semantics ([`eval_un`], [`eval_bin`]) live here too, so the
//! bytecode engine and the symbolic simplifier compute exactly what the
//! walker does.

use crate::ast::{BinOp, UnOp};
use crate::ir::{
    all_ones, truncate, ActionId, ExternId, FieldId, HeaderId, IrExpr, IrStmt, IrTransition,
    LValue, LocalId, MetaId, Op, ParserOp, Program, SelectArm, StateId, StdField, TableId,
    TransTarget,
};

/// Parser states a packet may visit before the parser counts as looping.
/// Every engine takes the reject edge when the budget runs out.
pub const PARSER_STATE_BUDGET: usize = 256;

/// A unary operator on a `width`-bit value.
#[inline]
pub fn eval_un(op: UnOp, v: u128, width: u16) -> u128 {
    match op {
        UnOp::Not => truncate(!v, width),
        UnOp::Neg => truncate(v.wrapping_neg(), width),
        UnOp::LNot => (v == 0) as u128,
    }
}

/// A binary operator with a `width`-bit result. `rhs_width` is the width of
/// `y`, which only concatenation reads.
#[inline]
pub fn eval_bin(op: BinOp, x: u128, y: u128, width: u16, rhs_width: u16) -> u128 {
    let w = width;
    match op {
        BinOp::Add => truncate(x.wrapping_add(y), w),
        BinOp::Sub => truncate(x.wrapping_sub(y), w),
        BinOp::Mul => truncate(x.wrapping_mul(y), w),
        BinOp::Div => truncate(x.checked_div(y).unwrap_or(0), w),
        BinOp::Mod => truncate(x.checked_rem(y).unwrap_or(0), w),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => truncate(x.checked_shl(y as u32).unwrap_or(0), w),
        BinOp::Shr => x.checked_shr(y as u32).unwrap_or(0),
        BinOp::Eq => (x == y) as u128,
        BinOp::Ne => (x != y) as u128,
        BinOp::Lt => (x < y) as u128,
        BinOp::Le => (x <= y) as u128,
        BinOp::Gt => (x > y) as u128,
        BinOp::Ge => (x >= y) as u128,
        BinOp::LAnd => (x != 0 && y != 0) as u128,
        BinOp::LOr => (x != 0 || y != 0) as u128,
        BinOp::Concat => truncate((x << rhs_width) | y, w),
    }
}

/// A value of some domain: constants and the operators over them.
pub trait Value: Clone {
    /// A constant, truncated to `width`.
    fn konst(value: u128, width: u16) -> Self;
    /// A unary operation.
    fn un(op: UnOp, a: Self, width: u16) -> Self;
    /// A binary operation (`rhs_width` is `b`'s width for a
    /// concatenation, and 0 otherwise).
    fn bin(op: BinOp, a: Self, b: Self, width: u16, rhs_width: u16) -> Self;
    /// Bits `hi..=lo` of `a`.
    fn slice(a: Self, hi: u16, lo: u16) -> Self;
    /// `a` truncated or zero-extended to `width`.
    fn cast(a: Self, width: u16) -> Self;
}

/// Concrete bit-vectors.
impl Value for u128 {
    #[inline]
    fn konst(value: u128, width: u16) -> u128 {
        truncate(value, width)
    }

    #[inline]
    fn un(op: UnOp, a: u128, width: u16) -> u128 {
        eval_un(op, a, width)
    }

    #[inline]
    fn bin(op: BinOp, a: u128, b: u128, width: u16, rhs_width: u16) -> u128 {
        eval_bin(op, a, b, width, rhs_width)
    }

    #[inline]
    fn slice(a: u128, hi: u16, lo: u16) -> u128 {
        truncate(a >> lo, hi - lo + 1)
    }

    #[inline]
    fn cast(a: u128, width: u16) -> u128 {
        truncate(a, width)
    }
}

/// A storage location a domain reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Place {
    /// A header field, regardless of the header's validity.
    Field(HeaderId, FieldId),
    /// A user metadata field.
    Meta(MetaId),
    /// A standard metadata field (`EgressPort` reads as `EgressSpec`, and
    /// the walker never writes `IngressPort` or `EgressPort`).
    Std(StdField),
    /// A local temporary.
    Local(LocalId),
}

impl Place {
    /// Width in bits.
    #[inline]
    pub fn width(self, prog: &Program) -> u16 {
        match self {
            Place::Field(h, f) => prog.headers[h].fields[f].width_bits,
            Place::Meta(m) => prog.metadata[m].width,
            Place::Std(s) => s.width(),
            Place::Local(l) => prog.locals[l].width,
        }
    }
}

/// What happened, for domains that record it. None of these is a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The parser enters a state (also the first, `start`).
    State(StateId),
    /// An unconditional transition to a state.
    Goto(StateId),
    /// The parser accepts.
    Accept,
    /// The parser rejects: a `reject` edge, a too-short `extract` or the
    /// state budget.
    Reject,
    /// A control block starts.
    Control(usize),
    /// `exit` ends the pipeline.
    Exit,
    /// `mark_to_drop()`.
    MarkDrop,
}

/// How a walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The parser rejected the packet (a `reject` edge or the state budget).
    Rejected,
    /// An `extract` ran past the end of the packet.
    TooShort,
    /// The pipeline ran to its end or to an `exit`.
    Done {
        /// `mark_to_drop()` ran with no later `egress_spec` write.
        dropped: bool,
        /// `egress_spec` was written.
        egress_written: bool,
    },
}

/// A value domain: where the packet state lives and how each branch point
/// is decided.
pub trait Domain {
    /// One value.
    type Val: Value;

    /// Whether header `h` is valid.
    fn valid(&self, h: HeaderId) -> bool;
    /// `setValid()` / `setInvalid()`.
    fn set_valid(&mut self, h: HeaderId, valid: bool);
    /// Read a place.
    fn load(&mut self, place: Place) -> Self::Val;
    /// Write a place.
    fn store(&mut self, place: Place, v: Self::Val);
    /// Action parameter `index` of the running action.
    fn param(&mut self, index: usize, width: u16) -> Self::Val;
    /// A field of invalid header `h` is about to be read (which yields 0)
    /// or written.
    fn invalid_access(&mut self, _h: HeaderId, _f: FieldId, _write: bool) {}
    /// A reusable buffer the walker evaluates key tuples into.
    fn key_buf(&mut self) -> &mut Vec<Self::Val>;
    /// Something happened.
    fn event(&mut self, _event: Event) {}

    /// `extract(h)`: false when the packet is too short.
    fn extract(&mut self, h: HeaderId) -> bool;
    /// Which target a `select` on `keys` takes.
    fn select(
        &mut self,
        keys: &[Self::Val],
        arms: &[SelectArm],
        default: TransTarget,
    ) -> TransTarget;
    /// Whether an `if` on `cond` takes its then-branch.
    fn branch(&mut self, cond: Self::Val) -> bool;
    /// Apply table `t` to `keys`: the action to run and whether it hit. The
    /// action's arguments are bound for [`Domain::param`].
    fn apply(&mut self, t: TableId, keys: &[Self::Val]) -> (ActionId, bool);

    /// `counter.count(index)`.
    fn count(&mut self, id: ExternId, index: Self::Val);
    /// `register.read(_, index)`.
    fn register_read(&mut self, id: ExternId, index: Self::Val) -> Self::Val;
    /// `register.write(index, value)`.
    fn register_write(&mut self, id: ExternId, index: Self::Val, value: Self::Val);
    /// `meter.execute(index, _)`: the colour.
    fn meter(&mut self, id: ExternId, index: Self::Val) -> Self::Val;
}

/// Run one packet through `prog` in domain `d`.
pub fn walk<D: Domain>(prog: &Program, d: &mut D) -> End {
    let mut w = Walker {
        prog,
        d,
        dropped: false,
        egress_written: false,
        exited: false,
    };
    if let Err(end) = w.parse() {
        return end;
    }
    for (cid, control) in prog.controls.iter().enumerate() {
        if w.exited {
            break;
        }
        w.d.event(Event::Control(cid));
        w.block(&control.body);
    }
    End::Done {
        dropped: w.dropped,
        egress_written: w.egress_written,
    }
}

struct Walker<'a, D: Domain> {
    prog: &'a Program,
    d: &'a mut D,
    dropped: bool,
    egress_written: bool,
    exited: bool,
}

impl<D: Domain> Walker<'_, D> {
    fn parse(&mut self) -> Result<(), End> {
        let prog = self.prog;
        let mut state = 0;
        for _ in 0..PARSER_STATE_BUDGET {
            self.d.event(Event::State(state));
            let st = &prog.parser.states[state];
            for op in &st.ops {
                match op {
                    ParserOp::Extract(h) => {
                        if !self.d.extract(*h) {
                            self.d.event(Event::Reject);
                            return Err(End::TooShort);
                        }
                    }
                    ParserOp::Assign(lv, e) => {
                        let v = self.eval(e);
                        self.assign(lv, v);
                    }
                }
            }
            let target = match &st.transition {
                IrTransition::Accept => TransTarget::Accept,
                IrTransition::Reject => TransTarget::Reject,
                IrTransition::Goto(s) => {
                    self.d.event(Event::Goto(*s));
                    TransTarget::State(*s)
                }
                IrTransition::Select {
                    keys,
                    arms,
                    default,
                } => {
                    let k = self.eval_keys(keys.iter());
                    let target = self.d.select(&k, arms, *default);
                    *self.d.key_buf() = k;
                    target
                }
            };
            match target {
                TransTarget::Accept => {
                    self.d.event(Event::Accept);
                    return Ok(());
                }
                TransTarget::Reject => break,
                TransTarget::State(s) => state = s,
            }
        }
        self.d.event(Event::Reject);
        Err(End::Rejected)
    }

    fn block(&mut self, body: &[IrStmt]) {
        let prog = self.prog;
        for stmt in body {
            if self.exited {
                return;
            }
            match stmt {
                IrStmt::Op(op) => self.op(op),
                IrStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = self.eval(cond);
                    if self.d.branch(c) {
                        self.block(then_branch);
                    } else {
                        self.block(else_branch);
                    }
                }
                IrStmt::ApplyTable { table, hit_into } => {
                    let keys = self.eval_keys(prog.tables[*table].keys.iter().map(|k| &k.expr));
                    let (aid, hit) = self.d.apply(*table, &keys);
                    *self.d.key_buf() = keys;
                    if let Some(l) = hit_into {
                        self.d
                            .store(Place::Local(*l), D::Val::konst(hit as u128, 1));
                    }
                    for op in &prog.actions[aid].ops {
                        self.op(op);
                    }
                }
                IrStmt::Exit => {
                    self.d.event(Event::Exit);
                    self.exited = true;
                }
            }
        }
    }

    fn op(&mut self, op: &Op) {
        match op {
            Op::Assign(lv, e) => {
                let v = self.eval(e);
                self.assign(lv, v);
            }
            Op::SetValid(h, valid) => self.d.set_valid(*h, *valid),
            Op::Drop => {
                self.d.event(Event::MarkDrop);
                self.dropped = true;
            }
            Op::CounterInc(id, idx) => {
                let i = self.eval(idx);
                self.d.count(*id, i);
            }
            Op::RegisterRead(lv, id, idx) => {
                let i = self.eval(idx);
                let v = self.d.register_read(*id, i);
                self.assign(lv, v);
            }
            Op::RegisterWrite(id, idx, val) => {
                let i = self.eval(idx);
                let v = self.eval(val);
                self.d.register_write(*id, i, v);
            }
            Op::MeterExecute(id, idx, lv) => {
                let i = self.eval(idx);
                let colour = self.d.meter(*id, i);
                self.assign(lv, colour);
            }
            Op::NoOp => {}
        }
    }

    /// Evaluate key expressions into the domain's key buffer, taken out of
    /// the domain for the duration (the caller puts it back).
    fn eval_keys<'e>(&mut self, exprs: impl Iterator<Item = &'e IrExpr>) -> Vec<D::Val> {
        let mut keys = std::mem::take(self.d.key_buf());
        keys.clear();
        for e in exprs {
            let v = self.eval(e);
            keys.push(v);
        }
        keys
    }

    fn eval(&mut self, e: &IrExpr) -> D::Val {
        match e {
            IrExpr::Const { value, width } => D::Val::konst(*value, *width),
            IrExpr::Field(h, f) => {
                if self.d.valid(*h) {
                    self.d.load(Place::Field(*h, *f))
                } else {
                    self.d.invalid_access(*h, *f, false);
                    D::Val::konst(0, Place::Field(*h, *f).width(self.prog))
                }
            }
            IrExpr::Meta(m) => self.d.load(Place::Meta(*m)),
            IrExpr::Std(s) => self.load_std(*s),
            IrExpr::Param { index, width } => self.d.param(*index, *width),
            IrExpr::Local(l) => self.d.load(Place::Local(*l)),
            IrExpr::IsValid(h) => D::Val::konst(self.d.valid(*h) as u128, 1),
            IrExpr::Un { op, a, width } => {
                let a = self.eval(a);
                D::Val::un(*op, a, *width)
            }
            IrExpr::Bin { op, a, b, width } => {
                let x = self.eval(a);
                let y = self.eval(b);
                let rhs_width = match op {
                    BinOp::Concat => b.width(self.prog),
                    _ => 0,
                };
                D::Val::bin(*op, x, y, *width, rhs_width)
            }
            IrExpr::Slice { base, hi, lo } => {
                let v = self.eval(base);
                D::Val::slice(v, *hi, *lo)
            }
            IrExpr::Cast { expr, width } => {
                let v = self.eval(expr);
                D::Val::cast(v, *width)
            }
        }
    }

    fn load_std(&mut self, s: StdField) -> D::Val {
        let s = match s {
            StdField::EgressPort => StdField::EgressSpec,
            s => s,
        };
        self.d.load(Place::Std(s))
    }

    /// The current value of `lv`. Header fields are read whatever their
    /// header's validity: this is the read half of a slice write.
    fn read_lvalue(&mut self, lv: &LValue) -> D::Val {
        match lv {
            LValue::Field(h, f) => self.d.load(Place::Field(*h, *f)),
            LValue::Meta(m) => self.d.load(Place::Meta(*m)),
            LValue::Std(s) => self.load_std(*s),
            LValue::Local(l) => self.d.load(Place::Local(*l)),
            LValue::Slice(inner, hi, lo) => {
                let v = self.read_lvalue(inner);
                D::Val::slice(v, *hi, *lo)
            }
        }
    }

    fn assign(&mut self, lv: &LValue, v: D::Val) {
        match lv {
            LValue::Field(h, f) => {
                if !self.d.valid(*h) {
                    self.d.invalid_access(*h, *f, true);
                }
                self.d.store(Place::Field(*h, *f), v);
            }
            LValue::Meta(m) => self.d.store(Place::Meta(*m), v),
            LValue::Std(StdField::EgressSpec) => {
                self.egress_written = true;
                // v1model: a later egress write revives the packet.
                self.dropped = false;
                self.d.store(Place::Std(StdField::EgressSpec), v);
            }
            // Read-only from the data plane; writes are ignored.
            LValue::Std(StdField::EgressPort | StdField::IngressPort) => {}
            LValue::Std(s) => self.d.store(Place::Std(*s), v),
            LValue::Local(l) => self.d.store(Place::Local(*l), v),
            LValue::Slice(inner, hi, lo) => {
                // (current & !mask) | (v[hi-lo:0] << lo), at the inner width.
                let (w, part_w) = (self.lvalue_width(inner), hi - lo + 1);
                let current = self.read_lvalue(inner);
                let mask = D::Val::konst(!(all_ones(part_w) << lo), w);
                let cleared = D::Val::bin(BinOp::And, current, mask, w, w);
                let part = D::Val::cast(D::Val::cast(v, part_w), w);
                let shift = D::Val::konst(u128::from(*lo), 16);
                let placed = D::Val::bin(BinOp::Shl, part, shift, w, 16);
                let merged = D::Val::bin(BinOp::Or, cleared, placed, w, w);
                self.assign(inner, merged);
            }
        }
    }

    fn lvalue_width(&self, lv: &LValue) -> u16 {
        match lv {
            LValue::Field(h, f) => Place::Field(*h, *f).width(self.prog),
            LValue::Meta(m) => Place::Meta(*m).width(self.prog),
            LValue::Std(s) => s.width(),
            LValue::Local(l) => Place::Local(*l).width(self.prog),
            LValue::Slice(_, hi, lo) => hi - lo + 1,
        }
    }
}
