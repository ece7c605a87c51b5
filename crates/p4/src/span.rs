//! Source positions and diagnostics.
//!
//! Every token and AST node carries a [`Span`] so that semantic errors and
//! backend limitations can be reported against the original P4 source — the
//! *compiler check* use-case of the paper depends on positioned diagnostics.

use serde::{Deserialize, Serialize};

/// A half-open byte range into the source text, plus line information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
    /// 1-based column number of `start`.
    pub col: u32,
}

impl Span {
    /// A span covering nothing, used for synthesised nodes.
    pub const NONE: Span = Span {
        start: 0,
        end: 0,
        line: 0,
        col: 0,
    };

    /// Create a span.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        if self == Span::NONE {
            return other;
        }
        if other == Span::NONE {
            return self;
        }
        let (first, last) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        Span {
            start: first.start,
            end: last.end.max(first.end),
            line: first.line,
            col: first.col,
        }
    }
}

impl core::fmt::Display for Span {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Fatal: compilation cannot proceed.
    Error,
    /// Suspicious but not fatal.
    Warning,
    /// Informational note attached to another diagnostic.
    Note,
}

/// A positioned diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diag {
    /// Severity class.
    pub severity: Severity,
    /// Where in the source the problem is.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diag {
    /// Construct an error diagnostic.
    pub fn error(span: Span, message: impl Into<String>) -> Self {
        Diag {
            severity: Severity::Error,
            span,
            message: message.into(),
        }
    }
}

impl core::fmt::Display for Diag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        write!(f, "{}: {} at {}", sev, self.message, self.span)
    }
}

impl std::error::Error for Diag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(4, 10, 1, 5);
        let b = Span::new(12, 20, 2, 1);
        let m = a.merge(b);
        assert_eq!((m.start, m.end), (4, 20));
        assert_eq!((m.line, m.col), (1, 5));
        // Order independent.
        assert_eq!(b.merge(a), m);
        // NONE is the identity.
        assert_eq!(Span::NONE.merge(a), a);
        assert_eq!(a.merge(Span::NONE), a);
    }

    #[test]
    fn display_formats() {
        let d = Diag::error(Span::new(0, 1, 3, 7), "unexpected token");
        assert_eq!(d.to_string(), "error: unexpected token at 3:7");
    }
}
