//! Hand-rolled P4-16 front end for the NetDebug reproduction.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → [`lower`] → [`ir`]. The
//! [`corpus`] module ships the data-plane programs used by the
//! experiments, and [`walk`] defines what the IR means: one tree-walker over
//! it, generic over the value domain (concrete in the reference engine,
//! symbolic in the verifier).
//!
//! The supported subset is the SDNet-era core of P4-16:
//!
//! * `header` / `struct` / `typedef` / `const` declarations, `bit<N>` up to
//!   128 bits and `bool`;
//! * one `parser` with `extract`, metadata assignments, and
//!   `select` transitions supporting values, masks (`&&&`), ranges (`..`)
//!   and `default`, terminating in `accept` or **`reject`** — the latter
//!   being the feature whose mis-compilation the paper's evaluation found;
//! * `control` blocks with actions, tables (exact/lpm/ternary/range keys,
//!   const entries, default actions), `if`/`else`, `exit`, direct action
//!   calls, registers, counters and meters;
//! * one deparser control emitting headers in order;
//! * expressions with P4 precedence, casts, bit slices and `++`.
//!
//! Unsupported constructs fail with positioned diagnostics, never silently —
//! the *compiler check* use-case depends on that contract.
//!
//! ```
//! let ir = netdebug_p4::compile(netdebug_p4::corpus::IPV4_FORWARD).unwrap();
//! assert_eq!(ir.headers.len(), 2);
//! assert_eq!(ir.parser.states.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod corpus;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod span;
pub mod token;
pub mod walk;

pub use span::{Diag, Severity, Span};

/// Compile P4 source all the way to IR.
pub fn compile(source: &str) -> Result<ir::Program, Diag> {
    let ast = parser::parse(source)?;
    lower::lower(&ast)
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_is_parse_plus_lower() {
        let ir = crate::compile(crate::corpus::REFLECTOR).unwrap();
        assert_eq!(ir.headers.len(), 1);
        assert_eq!(ir.controls.len(), 1);
    }

    #[test]
    fn compile_reports_lex_errors() {
        assert!(crate::compile("header # {}").is_err());
    }
}
