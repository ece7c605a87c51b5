//! Symbolic values and the constraint store.
//!
//! A [`Sym`] is a bit-vector expression over *atoms* — the symbolic inputs
//! of a packet (header fields as extracted, metadata initial values, the
//! ingress port). Path conditions are conjunctions of boolean (`width == 1`)
//! symbolic expressions.

use crate::solver::AtomWidths;
use netdebug_p4::ast::{BinOp, UnOp};
use netdebug_p4::ir::{truncate, IrPattern};
use netdebug_p4::walk::{eval_bin, eval_un, Value};
use std::collections::BTreeSet;
use std::rc::Rc;

/// A symbolic bit-vector expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Sym {
    /// A symbolic input atom.
    Atom {
        /// Atom index (into the executor's atom table).
        id: usize,
        /// Width in bits.
        width: u16,
    },
    /// A concrete constant.
    Const {
        /// Value.
        value: u128,
        /// Width in bits.
        width: u16,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Rc<Sym>,
        /// Result width.
        width: u16,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Rc<Sym>,
        /// Right operand.
        b: Rc<Sym>,
        /// Result width.
        width: u16,
    },
    /// Bit slice (inclusive bounds).
    Slice {
        /// Base expression.
        base: Rc<Sym>,
        /// High bit.
        hi: u16,
        /// Low bit.
        lo: u16,
    },
    /// Width cast.
    Cast {
        /// Source.
        a: Rc<Sym>,
        /// Target width.
        width: u16,
    },
}

impl Sym {
    /// Constant constructor.
    pub fn konst(value: u128, width: u16) -> Sym {
        Sym::Const {
            value: truncate(value, width),
            width,
        }
    }

    /// Result width.
    pub fn width(&self) -> u16 {
        match self {
            Sym::Atom { width, .. }
            | Sym::Const { width, .. }
            | Sym::Un { width, .. }
            | Sym::Bin { width, .. }
            | Sym::Cast { width, .. } => *width,
            Sym::Slice { hi, lo, .. } => hi - lo + 1,
        }
    }

    /// If concrete, its value.
    pub fn as_const(&self) -> Option<u128> {
        match self {
            Sym::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// All atom ids appearing in this expression.
    pub fn atoms(&self, out: &mut BTreeSet<usize>) {
        match self {
            Sym::Atom { id, .. } => {
                out.insert(*id);
            }
            Sym::Const { .. } => {}
            Sym::Un { a, .. } | Sym::Cast { a, .. } => a.atoms(out),
            Sym::Bin { a, b, .. } => {
                a.atoms(out);
                b.atoms(out);
            }
            Sym::Slice { base, .. } => base.atoms(out),
        }
    }

    /// Evaluate under a full assignment (atom id → value).
    pub fn eval(&self, assignment: &dyn Fn(usize) -> u128) -> u128 {
        match self {
            Sym::Atom { id, width } => truncate(assignment(*id), *width),
            Sym::Const { value, .. } => *value,
            Sym::Un { op, a, width } => eval_un(*op, a.eval(assignment), *width),
            Sym::Bin { op, a, b, width } => eval_bin(
                *op,
                a.eval(assignment),
                b.eval(assignment),
                *width,
                b.width(),
            ),
            Sym::Slice { base, hi, lo } => u128::slice(base.eval(assignment), *hi, *lo),
            Sym::Cast { a, width } => u128::cast(a.eval(assignment), *width),
        }
    }

    /// Constant-fold the outermost layer where possible.
    pub fn simplify(self) -> Sym {
        match &self {
            Sym::Un { op, a, width } => {
                if let Some(v) = a.as_const() {
                    return Sym::konst(eval_un(*op, v, *width), *width);
                }
                self
            }
            Sym::Bin { a, b, .. } => {
                if a.as_const().is_some() && b.as_const().is_some() {
                    let v = self.eval(&|_| 0);
                    return Sym::konst(v, self.width());
                }
                self
            }
            Sym::Slice { base, hi, lo } => {
                if let Some(v) = base.as_const() {
                    return Sym::konst(v >> lo, hi - lo + 1);
                }
                self
            }
            Sym::Cast { a, width } => {
                if let Some(v) = a.as_const() {
                    return Sym::konst(v, *width);
                }
                self
            }
            _ => self,
        }
    }
}

/// Symbolic values for the IR walker: an operator on constants folds to a
/// constant (as [`Sym::simplify`] would), anything else builds its node.
impl Value for Sym {
    fn konst(value: u128, width: u16) -> Sym {
        Sym::konst(value, width)
    }

    fn un(op: UnOp, a: Sym, width: u16) -> Sym {
        match a.as_const() {
            Some(v) => Sym::konst(u128::un(op, v, width), width),
            None => Sym::Un {
                op,
                a: Rc::new(a),
                width,
            },
        }
    }

    fn bin(op: BinOp, a: Sym, b: Sym, width: u16, _rhs_width: u16) -> Sym {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => Sym::konst(u128::bin(op, x, y, width, b.width()), width),
            _ => Sym::Bin {
                op,
                a: Rc::new(a),
                b: Rc::new(b),
                width,
            },
        }
    }

    fn slice(base: Sym, hi: u16, lo: u16) -> Sym {
        match base.as_const() {
            Some(v) => Sym::konst(u128::slice(v, hi, lo), hi - lo + 1),
            None => Sym::Slice {
                base: Rc::new(base),
                hi,
                lo,
            },
        }
    }

    fn cast(a: Sym, width: u16) -> Sym {
        match a.as_const() {
            Some(v) => Sym::konst(v, width),
            None => Sym::Cast {
                a: Rc::new(a),
                width,
            },
        }
    }
}

impl Sym {
    /// Logical not of a boolean, folded.
    pub fn negate(self) -> Sym {
        let a = Rc::new(self);
        Sym::Un {
            op: UnOp::LNot,
            a,
            width: 1,
        }
        .simplify()
    }

    /// `self != 0` as a boolean (a width-1 value already is one).
    pub fn truthy(self) -> Sym {
        match self.width() {
            1 => self,
            w => Sym::Bin {
                op: BinOp::Ne,
                a: Rc::new(self),
                b: Rc::new(Sym::konst(0, w)),
                width: 1,
            },
        }
    }
}

/// `keys` match `patterns`, as a symbolic boolean: the one place a select
/// pattern becomes a [`Sym`].
pub fn arms_condition(keys: &[Sym], patterns: &[IrPattern]) -> Sym {
    let bin = |op, a, b: Sym, width| Sym::Bin {
        op,
        a: Rc::new(a),
        b: Rc::new(b),
        width,
    };
    let conds = keys.iter().zip(patterns).map(|(key, pat)| {
        let (key, w) = (key.clone(), key.width());
        match *pat {
            IrPattern::Value(v) => bin(BinOp::Eq, key, Sym::konst(v, w), 1),
            IrPattern::Mask { value, mask } => {
                let masked = bin(BinOp::And, key, Sym::konst(mask, w), w);
                bin(BinOp::Eq, masked, Sym::konst(value & mask, w), 1)
            }
            IrPattern::Range { lo, hi } => {
                let ge = bin(BinOp::Ge, key.clone(), Sym::konst(lo, w), 1);
                let le = bin(BinOp::Le, key, Sym::konst(hi, w), 1);
                bin(BinOp::LAnd, ge, le, 1)
            }
            IrPattern::Any => Sym::konst(1, 1),
        }
    });
    conds
        .reduce(|a, b| bin(BinOp::LAnd, a, b, 1))
        .unwrap_or_else(|| Sym::konst(1, 1))
        .simplify()
}

/// Named description of one symbolic atom (for reporting counterexamples).
#[derive(Debug, Clone, PartialEq)]
pub struct AtomInfo {
    /// Human-readable origin (e.g. `ethernet.etherType`).
    pub name: String,
    /// Width in bits.
    pub width: u16,
}

impl AtomWidths for Vec<AtomInfo> {
    fn atom_width(&self, id: usize) -> u16 {
        self[id].width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn eval_and_width() {
        let a = Sym::Atom { id: 0, width: 8 };
        let e = Sym::Bin {
            op: BinOp::Add,
            a: Rc::new(a),
            b: Rc::new(Sym::konst(200, 8)),
            width: 8,
        };
        assert_eq!(e.width(), 8);
        assert_eq!(e.eval(&|_| 100), 44); // 300 wraps at 8 bits
        let mut atoms = BTreeSet::new();
        e.atoms(&mut atoms);
        assert_eq!(atoms.into_iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn simplify_folds_constants() {
        let e = Sym::Bin {
            op: BinOp::Mul,
            a: Rc::new(Sym::konst(6, 16)),
            b: Rc::new(Sym::konst(7, 16)),
            width: 16,
        };
        assert_eq!(e.simplify().as_const(), Some(42));
        let s = Sym::Slice {
            base: Rc::new(Sym::konst(0xAB, 8)),
            hi: 7,
            lo: 4,
        };
        assert_eq!(s.simplify().as_const(), Some(0xA));
    }

    #[test]
    fn comparison_results_are_boolean() {
        let e = Sym::Bin {
            op: BinOp::Lt,
            a: Rc::new(Sym::konst(3, 8)),
            b: Rc::new(Sym::konst(5, 8)),
            width: 1,
        };
        assert_eq!(e.eval(&|_| 0), 1);
    }
}
