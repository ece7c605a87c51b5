//! Property-based tests for the P4 front end.

use netdebug_p4::lexer;
use proptest::prelude::*;

proptest! {
    /// The lexer never panics, whatever bytes it is fed.
    #[test]
    fn lexer_never_panics(src in "\\PC*") {
        let _ = lexer::lex(&src);
    }

    /// The full compile pipeline never panics on arbitrary ASCII soup.
    #[test]
    fn compile_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = netdebug_p4::compile(&src);
    }

    /// Integer literals of every radix survive lexing with exact values.
    #[test]
    fn literals_round_trip(v in any::<u64>()) {
        let decimal = format!("{v}");
        let hex = format!("0x{v:x}");
        let binary = format!("0b{v:b}");
        for src in [decimal, hex, binary] {
            let toks = lexer::lex(&src).unwrap();
            match &toks[0].kind {
                netdebug_p4::token::TokenKind::Int { value, .. } => {
                    prop_assert_eq!(*value, u128::from(v));
                }
                other => prop_assert!(false, "expected int, got {:?}", other),
            }
        }
    }

    /// Width-prefixed literals carry their widths.
    #[test]
    fn width_prefixed_literals(w in 1u16..128, v in any::<u32>()) {
        let src = format!("{w}w{v}");
        let toks = lexer::lex(&src).unwrap();
        match &toks[0].kind {
            netdebug_p4::token::TokenKind::Int { value, width } => {
                prop_assert_eq!(*value, u128::from(v));
                prop_assert_eq!(*width, Some(w));
            }
            other => prop_assert!(false, "expected int, got {:?}", other),
        }
    }
}
