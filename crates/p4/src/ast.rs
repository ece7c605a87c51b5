//! Abstract syntax tree for the P4-16 subset.
//!
//! The shape follows the P4-16 grammar closely enough that real SDNet-era
//! programs (headers, parsers with `accept`/`reject`, match-action controls
//! and deparsers) parse unchanged; exotic features (generics beyond
//! `bit<N>`, header stacks, varbit) are intentionally out of scope and
//! produce positioned errors instead of silent acceptance.

use crate::span::Span;
use serde::{Deserialize, Serialize};

/// A parsed compilation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level declarations in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// All parser declarations.
    pub fn parsers(&self) -> impl Iterator<Item = &ParserDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Parser(p) => Some(p),
            _ => None,
        })
    }

    /// All control declarations.
    pub fn controls(&self) -> impl Iterator<Item = &ControlDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Control(c) => Some(c),
            _ => None,
        })
    }
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `typedef bit<48> macAddr_t;`
    Typedef(TypedefDecl),
    /// `const bit<16> TYPE_IPV4 = 0x800;`
    Const(ConstDecl),
    /// `header ethernet_t { ... }`
    Header(HeaderDecl),
    /// `struct headers_t { ... }`
    Struct(StructDecl),
    /// `parser MyParser(...) { ... }`
    Parser(ParserDecl),
    /// `control MyIngress(...) { ... }`
    Control(ControlDecl),
    /// `register<bit<32>>(1024) name;` and friends.
    Extern(ExternDecl),
    /// `V1Switch(MyParser(), ...) main;` — recorded but not interpreted.
    Package(PackageDecl),
}

/// `typedef <type> <name>;`
#[derive(Debug, Clone, PartialEq)]
pub struct TypedefDecl {
    /// New type name.
    pub name: String,
    /// Aliased type.
    pub ty: TypeRef,
    /// Source location.
    pub span: Span,
}

/// `const <type> <name> = <expr>;`
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDecl {
    /// Constant name.
    pub name: String,
    /// Declared type.
    pub ty: TypeRef,
    /// Initialiser expression (must be compile-time evaluable).
    pub value: Expr,
    /// Source location.
    pub span: Span,
}

/// A reference to a type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeRef {
    /// Which type.
    pub kind: TypeKind,
    /// Source location.
    pub span: Span,
}

/// Type constructors in the subset.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeKind {
    /// `bit<N>`
    Bit(u16),
    /// `bool`
    Bool,
    /// A named type (header, struct or typedef).
    Named(String),
}

/// `header <name> { <fields> }`
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderDecl {
    /// Header type name.
    pub name: String,
    /// Fields in wire order.
    pub fields: Vec<FieldDecl>,
    /// Source location.
    pub span: Span,
}

/// A single field inside a header or struct.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeRef,
    /// Source location.
    pub span: Span,
}

/// `struct <name> { <fields> }`
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    /// Struct type name.
    pub name: String,
    /// Member declarations.
    pub fields: Vec<FieldDecl>,
    /// Source location.
    pub span: Span,
}

/// Parameter direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `in`
    In,
    /// `out`
    Out,
    /// `inout`
    Inout,
    /// No direction keyword (e.g. `packet_in pkt`).
    None,
}

/// A parser/control parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Direction keyword, if any.
    pub dir: Direction,
    /// Parameter type (by name: `packet_in`, `headers_t`, …).
    pub ty: TypeRef,
    /// Parameter name.
    pub name: String,
    /// Source location.
    pub span: Span,
}

/// `parser <name>(<params>) { <states> }`
#[derive(Debug, Clone, PartialEq)]
pub struct ParserDecl {
    /// Parser name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Declared states. The entry state must be named `start`.
    pub states: Vec<StateDecl>,
    /// Source location.
    pub span: Span,
}

/// One parser state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDecl {
    /// State name.
    pub name: String,
    /// Straight-line statements executed on entry.
    pub stmts: Vec<Stmt>,
    /// Transition out of the state.
    pub transition: Transition,
    /// Source location.
    pub span: Span,
}

/// A parser transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// `transition accept;` / `transition reject;` / `transition next_state;`
    Direct {
        /// Target state (`accept` and `reject` are reserved).
        target: String,
        /// Source location.
        span: Span,
    },
    /// `transition select(<exprs>) { <cases> }`
    Select {
        /// Selector expressions (a tuple).
        exprs: Vec<Expr>,
        /// Match arms in order.
        cases: Vec<SelectCase>,
        /// Source location.
        span: Span,
    },
}

/// One arm of a `select`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCase {
    /// Key sets, one per selector expression (or a single `default`).
    pub keysets: Vec<KeySet>,
    /// Target state name (`accept`/`reject` allowed).
    pub target: String,
    /// Source location.
    pub span: Span,
}

/// A key set pattern in a `select` arm.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySet {
    /// A literal or constant expression.
    Value(Expr),
    /// `value &&& mask`
    Mask(Expr, Expr),
    /// `lo .. hi` (inclusive)
    Range(Expr, Expr),
    /// `default` or `_`
    Default,
}

/// `control <name>(<params>) { <locals> apply { ... } }`
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecl {
    /// Control name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Actions, tables, extern instantiations and local variables.
    pub locals: Vec<ControlLocal>,
    /// The `apply { ... }` block.
    pub apply: Block,
    /// Source location.
    pub span: Span,
}

impl ControlDecl {
    /// True if this control takes a `packet_out` parameter, i.e. is a
    /// deparser.
    pub fn is_deparser(&self) -> bool {
        self.params
            .iter()
            .any(|p| matches!(&p.ty.kind, TypeKind::Named(n) if n == "packet_out"))
    }
}

/// A declaration local to a control.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlLocal {
    /// An action definition.
    Action(ActionDecl),
    /// A table definition.
    Table(TableDecl),
    /// An extern instantiation (register/counter/meter).
    Extern(ExternDecl),
    /// A local variable declaration.
    Var(VarDecl),
}

/// `action <name>(<params>) { <body> }`
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDecl {
    /// Action name.
    pub name: String,
    /// Runtime parameters supplied by the control plane.
    pub params: Vec<ActionParam>,
    /// Body statements.
    pub body: Block,
    /// Source location.
    pub span: Span,
}

/// A single action parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionParam {
    /// Parameter name.
    pub name: String,
    /// Parameter type (must be `bit<N>` in this subset).
    pub ty: TypeRef,
    /// Source location.
    pub span: Span,
}

/// Table key match kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchKind {
    /// Exact match.
    Exact,
    /// Longest-prefix match.
    Lpm,
    /// Ternary (value & mask) match with priorities.
    Ternary,
    /// Range match.
    Range,
}

impl core::fmt::Display for MatchKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            MatchKind::Exact => "exact",
            MatchKind::Lpm => "lpm",
            MatchKind::Ternary => "ternary",
            MatchKind::Range => "range",
        };
        write!(f, "{s}")
    }
}

/// `table <name> { key = {...} actions = {...} ... }`
#[derive(Debug, Clone, PartialEq)]
pub struct TableDecl {
    /// Table name.
    pub name: String,
    /// Match keys: expression plus match kind.
    pub keys: Vec<(Expr, MatchKind)>,
    /// Names of permitted actions.
    pub actions: Vec<String>,
    /// The default action invocation, if declared.
    pub default_action: Option<(String, Vec<Expr>)>,
    /// Declared size, if any.
    pub size: Option<u64>,
    /// Compile-time constant entries.
    pub entries: Vec<ConstEntry>,
    /// Source location.
    pub span: Span,
}

/// One `entries = { ... }` row.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstEntry {
    /// Key patterns, one per table key.
    pub keysets: Vec<KeySet>,
    /// Invoked action name.
    pub action: String,
    /// Action arguments.
    pub args: Vec<Expr>,
    /// Source location.
    pub span: Span,
}

/// Extern kinds supported by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternKind {
    /// `register<bit<W>>(size) name;`
    Register,
    /// `counter(size) name;`
    Counter,
    /// `meter(size) name;`
    Meter,
}

/// An extern instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    /// Which extern.
    pub kind: ExternKind,
    /// Cell width for registers (bits); counters/meters use 64.
    pub width: u16,
    /// Number of cells.
    pub size: u64,
    /// Instance name.
    pub name: String,
    /// Source location.
    pub span: Span,
}

/// `V1Switch(MyParser(), ...) main;`
#[derive(Debug, Clone, PartialEq)]
pub struct PackageDecl {
    /// Package type name (e.g. `V1Switch`).
    pub package: String,
    /// Names of the instantiated blocks, in order.
    pub blocks: Vec<String>,
    /// Source location.
    pub span: Span,
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: TypeRef,
    /// Optional initialiser.
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs;`
    Assign {
        /// Assignment target (a path or slice expression).
        lhs: Expr,
        /// Value.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// A call used as a statement: `table.apply()`, `hdr.ipv4.setValid()`,
    /// `mark_to_drop(std_meta)`, `pkt.extract(hdr.eth)`, `pkt.emit(...)`,
    /// `reg.read(x, i)`, `reg.write(i, v)`, `c.count(i)`, …
    Call {
        /// The called path (e.g. `["ipv4_lpm", "apply"]`).
        callee: Expr,
        /// Arguments.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// `if (cond) { ... } else { ... }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Else branch (empty if absent).
        else_block: Block,
        /// Source location.
        span: Span,
    },
    /// `exit;` — abort the pipeline for this packet.
    Exit {
        /// Source location.
        span: Span,
    },
    /// `return;` — leave the current block.
    Return {
        /// Source location.
        span: Span,
    },
    /// A local variable declaration inside a block.
    Var(VarDecl),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// Bitwise complement `~`.
    Not,
    /// Logical negation `!`.
    LNot,
    /// Arithmetic negation `-`.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+` (wrapping, as P4 modular arithmetic).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (flagged by some backends)
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
    /// `++` bit concatenation
    Concat,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal, optionally width-annotated.
    Int {
        /// Value.
        value: u128,
        /// Explicit width, if written as `8w…`.
        width: Option<u16>,
        /// Source location.
        span: Span,
    },
    /// `true` / `false`.
    Bool {
        /// Value.
        value: bool,
        /// Source location.
        span: Span,
    },
    /// Dotted path: `hdr.ipv4.ttl`, `meta.x`, `standard_metadata.egress_spec`.
    Path {
        /// Segments.
        segments: Vec<String>,
        /// Source location.
        span: Span,
    },
    /// Method or function call in expression position: `hdr.ipv4.isValid()`,
    /// `t.apply().hit`.
    Call {
        /// Called path.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// Member access on a call result: `t.apply().hit`.
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Member name.
        member: String,
        /// Source location.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Bit slice `expr[hi:lo]`.
    Slice {
        /// Sliced expression.
        base: Box<Expr>,
        /// High bit (inclusive).
        hi: u16,
        /// Low bit (inclusive).
        lo: u16,
        /// Source location.
        span: Span,
    },
    /// Cast `(bit<16>) expr`.
    Cast {
        /// Target type.
        ty: TypeRef,
        /// Castee.
        expr: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int { span, .. }
            | Expr::Bool { span, .. }
            | Expr::Path { span, .. }
            | Expr::Call { span, .. }
            | Expr::Member { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Slice { span, .. }
            | Expr::Cast { span, .. } => *span,
        }
    }

    /// If this is a plain path, return its segments.
    pub fn as_path(&self) -> Option<&[String]> {
        match self {
            Expr::Path { segments, .. } => Some(segments),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deparser_detection() {
        let c = ControlDecl {
            name: "D".into(),
            params: vec![Param {
                dir: Direction::None,
                ty: TypeRef {
                    kind: TypeKind::Named("packet_out".into()),
                    span: Span::NONE,
                },
                name: "pkt".into(),
                span: Span::NONE,
            }],
            locals: vec![],
            apply: Block::default(),
            span: Span::NONE,
        };
        assert!(c.is_deparser());
    }

    #[test]
    fn expr_path_helpers() {
        let e = Expr::Path {
            segments: vec!["hdr".into(), "ipv4".into(), "ttl".into()],
            span: Span::NONE,
        };
        assert_eq!(
            e.as_path().unwrap(),
            &["hdr".to_string(), "ipv4".into(), "ttl".into()][..]
        );
        assert_eq!(e.span(), Span::NONE);
    }

    #[test]
    fn match_kind_display() {
        assert_eq!(MatchKind::Lpm.to_string(), "lpm");
        assert_eq!(MatchKind::Ternary.to_string(), "ternary");
    }
}
