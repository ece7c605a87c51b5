//! Recursive-descent parser for the P4-16 subset.
//!
//! The parser is deliberately strict: anything outside the supported subset
//! produces a positioned [`Diag`] rather than being skipped, because the
//! *compiler check* use-case compares front ends by the exact set of
//! constructs they accept.

use crate::ast::*;
use crate::lexer::lex;
use crate::span::{Diag, Span};
use crate::token::{Token, TokenKind};

/// Parse a complete program from source text.
pub fn parse(source: &str) -> Result<Program, Diag> {
    let tokens = lex(source)?;
    Parser::new(tokens).program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diag> {
        // Split `>>` into two `>` so `register<bit<32>>(…)` parses.
        if kind == TokenKind::Gt && self.peek() == &TokenKind::Shr {
            let span = self.tokens[self.pos].span;
            self.tokens[self.pos].kind = TokenKind::Gt;
            return Ok(Token {
                kind: TokenKind::Gt,
                span,
            });
        }
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(Diag::error(
                self.span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diag> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.span();
                self.bump();
                Ok((name, span))
            }
            other => Err(Diag::error(
                self.span(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    fn expect_int(&mut self) -> Result<(u128, Span), Diag> {
        match *self.peek() {
            TokenKind::Int { value, .. } => {
                let span = self.span();
                self.bump();
                Ok((value, span))
            }
            ref other => Err(Diag::error(
                self.span(),
                format!("expected integer, found {}", other.describe()),
            )),
        }
    }

    /// Skip `@name("...")`-style annotations; they carry no semantics here.
    fn skip_annotations(&mut self) -> Result<(), Diag> {
        while self.peek() == &TokenKind::At {
            self.bump();
            self.expect_ident()?;
            if self.eat(&TokenKind::LParen) {
                let mut depth = 1usize;
                while depth > 0 {
                    match self.peek() {
                        TokenKind::LParen => {
                            depth += 1;
                            self.bump();
                        }
                        TokenKind::RParen => {
                            depth -= 1;
                            self.bump();
                        }
                        TokenKind::Eof => {
                            return Err(Diag::error(self.span(), "unterminated annotation"))
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program, Diag> {
        let mut items = Vec::new();
        loop {
            self.skip_annotations()?;
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Typedef => items.push(Item::Typedef(self.typedef()?)),
                TokenKind::Const => items.push(Item::Const(self.const_decl()?)),
                TokenKind::Header => items.push(Item::Header(self.header()?)),
                TokenKind::Struct => items.push(Item::Struct(self.struct_decl()?)),
                TokenKind::Parser => items.push(Item::Parser(self.parser_decl()?)),
                TokenKind::Control => items.push(Item::Control(self.control_decl()?)),
                TokenKind::Register | TokenKind::Counter | TokenKind::Meter => {
                    items.push(Item::Extern(self.extern_decl()?))
                }
                TokenKind::Ident(_) => items.push(Item::Package(self.package_decl()?)),
                other => {
                    return Err(Diag::error(
                        self.span(),
                        format!("unexpected {} at top level", other.describe()),
                    ))
                }
            }
        }
        Ok(Program { items })
    }

    fn typedef(&mut self) -> Result<TypedefDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Typedef)?;
        let ty = self.type_ref()?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Semi)?;
        Ok(TypedefDecl {
            name,
            ty,
            span: start.merge(self.prev_span()),
        })
    }

    fn const_decl(&mut self) -> Result<ConstDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Const)?;
        let ty = self.type_ref()?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Eq)?;
        let value = self.expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(ConstDecl {
            name,
            ty,
            value,
            span: start.merge(self.prev_span()),
        })
    }

    fn type_ref(&mut self) -> Result<TypeRef, Diag> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Bit => {
                self.bump();
                self.expect(TokenKind::Lt)?;
                let (width, wspan) = self.expect_int()?;
                if width == 0 || width > 128 {
                    return Err(Diag::error(
                        wspan,
                        format!("bit width must be 1..=128, got {width}"),
                    ));
                }
                self.expect(TokenKind::Gt)?;
                Ok(TypeRef {
                    kind: TypeKind::Bit(width as u16),
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Bool => {
                self.bump();
                Ok(TypeRef {
                    kind: TypeKind::Bool,
                    span: start,
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(TypeRef {
                    kind: TypeKind::Named(name),
                    span: start,
                })
            }
            other => Err(Diag::error(
                start,
                format!("expected type, found {}", other.describe()),
            )),
        }
    }

    fn field_list(&mut self) -> Result<Vec<FieldDecl>, Diag> {
        let mut fields = Vec::new();
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            self.skip_annotations()?;
            let start = self.span();
            let ty = self.type_ref()?;
            let (name, _) = self.expect_ident()?;
            self.expect(TokenKind::Semi)?;
            fields.push(FieldDecl {
                name,
                ty,
                span: start.merge(self.prev_span()),
            });
        }
        Ok(fields)
    }

    fn header(&mut self) -> Result<HeaderDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Header)?;
        let (name, _) = self.expect_ident()?;
        let fields = self.field_list()?;
        Ok(HeaderDecl {
            name,
            fields,
            span: start.merge(self.prev_span()),
        })
    }

    fn struct_decl(&mut self) -> Result<StructDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Struct)?;
        let (name, _) = self.expect_ident()?;
        let fields = self.field_list()?;
        Ok(StructDecl {
            name,
            fields,
            span: start.merge(self.prev_span()),
        })
    }

    fn params(&mut self) -> Result<Vec<Param>, Diag> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok(params);
        }
        loop {
            let start = self.span();
            let dir = match self.peek() {
                TokenKind::In => {
                    self.bump();
                    Direction::In
                }
                TokenKind::Out => {
                    self.bump();
                    Direction::Out
                }
                TokenKind::Inout => {
                    self.bump();
                    Direction::Inout
                }
                _ => Direction::None,
            };
            let ty = self.type_ref()?;
            let (name, _) = self.expect_ident()?;
            params.push(Param {
                dir,
                ty,
                name,
                span: start.merge(self.prev_span()),
            });
            if self.eat(&TokenKind::RParen) {
                break;
            }
            self.expect(TokenKind::Comma)?;
        }
        Ok(params)
    }

    // ------------------------------------------------------------------
    // Parsers
    // ------------------------------------------------------------------

    fn parser_decl(&mut self) -> Result<ParserDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Parser)?;
        let (name, _) = self.expect_ident()?;
        let params = self.params()?;
        self.expect(TokenKind::LBrace)?;
        let mut states = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            self.skip_annotations()?;
            states.push(self.state_decl()?);
        }
        Ok(ParserDecl {
            name,
            params,
            states,
            span: start.merge(self.prev_span()),
        })
    }

    fn state_decl(&mut self) -> Result<StateDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::State)?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        let transition;
        loop {
            if self.peek() == &TokenKind::Transition {
                transition = self.transition()?;
                self.expect(TokenKind::RBrace)?;
                break;
            }
            if self.peek() == &TokenKind::RBrace {
                return Err(Diag::error(
                    self.span(),
                    format!("state `{name}` has no transition"),
                ));
            }
            stmts.push(self.statement()?);
        }
        Ok(StateDecl {
            name,
            stmts,
            transition,
            span: start.merge(self.prev_span()),
        })
    }

    fn transition_target(&mut self) -> Result<String, Diag> {
        match self.peek().clone() {
            TokenKind::Accept => {
                self.bump();
                Ok("accept".to_string())
            }
            TokenKind::Reject => {
                self.bump();
                Ok("reject".to_string())
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(Diag::error(
                self.span(),
                format!("expected state name, found {}", other.describe()),
            )),
        }
    }

    fn transition(&mut self) -> Result<Transition, Diag> {
        let start = self.span();
        self.expect(TokenKind::Transition)?;
        if self.peek() == &TokenKind::Select {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let mut exprs = vec![self.expr()?];
            while self.eat(&TokenKind::Comma) {
                exprs.push(self.expr()?);
            }
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::LBrace)?;
            let mut cases = Vec::new();
            while !self.eat(&TokenKind::RBrace) {
                let cstart = self.span();
                let keysets = self.keyset_list()?;
                self.expect(TokenKind::Colon)?;
                let target = self.transition_target()?;
                self.expect(TokenKind::Semi)?;
                cases.push(SelectCase {
                    keysets,
                    target,
                    span: cstart.merge(self.prev_span()),
                });
            }
            Ok(Transition::Select {
                exprs,
                cases,
                span: start.merge(self.prev_span()),
            })
        } else {
            let target = self.transition_target()?;
            self.expect(TokenKind::Semi)?;
            Ok(Transition::Direct {
                target,
                span: start.merge(self.prev_span()),
            })
        }
    }

    fn keyset_list(&mut self) -> Result<Vec<KeySet>, Diag> {
        if self.eat(&TokenKind::LParen) {
            let mut sets = vec![self.keyset()?];
            while self.eat(&TokenKind::Comma) {
                sets.push(self.keyset()?);
            }
            self.expect(TokenKind::RParen)?;
            Ok(sets)
        } else {
            Ok(vec![self.keyset()?])
        }
    }

    fn keyset(&mut self) -> Result<KeySet, Diag> {
        match self.peek() {
            TokenKind::Default => {
                self.bump();
                Ok(KeySet::Default)
            }
            TokenKind::Underscore => {
                self.bump();
                Ok(KeySet::Default)
            }
            _ => {
                let value = self.expr()?;
                if self.eat(&TokenKind::MaskOp) {
                    let mask = self.expr()?;
                    Ok(KeySet::Mask(value, mask))
                } else if self.eat(&TokenKind::DotDot) {
                    let hi = self.expr()?;
                    Ok(KeySet::Range(value, hi))
                } else {
                    Ok(KeySet::Value(value))
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Controls
    // ------------------------------------------------------------------

    fn control_decl(&mut self) -> Result<ControlDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Control)?;
        let (name, _) = self.expect_ident()?;
        let params = self.params()?;
        self.expect(TokenKind::LBrace)?;
        let mut locals = Vec::new();
        let mut apply = None;
        while !self.eat(&TokenKind::RBrace) {
            self.skip_annotations()?;
            match self.peek() {
                TokenKind::Action => locals.push(ControlLocal::Action(self.action_decl()?)),
                TokenKind::Table => locals.push(ControlLocal::Table(self.table_decl()?)),
                TokenKind::Register | TokenKind::Counter | TokenKind::Meter => {
                    locals.push(ControlLocal::Extern(self.extern_decl()?))
                }
                TokenKind::Apply => {
                    self.bump();
                    apply = Some(self.block()?);
                }
                TokenKind::Bit | TokenKind::Bool => {
                    locals.push(ControlLocal::Var(self.var_decl()?))
                }
                other => {
                    return Err(Diag::error(
                        self.span(),
                        format!("unexpected {} in control body", other.describe()),
                    ))
                }
            }
        }
        let apply = apply.ok_or_else(|| {
            Diag::error(start, format!("control `{name}` is missing an apply block"))
        })?;
        Ok(ControlDecl {
            name,
            params,
            locals,
            apply,
            span: start.merge(self.prev_span()),
        })
    }

    fn var_decl(&mut self) -> Result<VarDecl, Diag> {
        let start = self.span();
        let ty = self.type_ref()?;
        let (name, _) = self.expect_ident()?;
        let init = if self.eat(&TokenKind::Eq) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(VarDecl {
            name,
            ty,
            init,
            span: start.merge(self.prev_span()),
        })
    }

    fn action_decl(&mut self) -> Result<ActionDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Action)?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pstart = self.span();
                // Action parameters may carry an (ignored) direction.
                if matches!(
                    self.peek(),
                    TokenKind::In | TokenKind::Out | TokenKind::Inout
                ) {
                    self.bump();
                }
                let ty = self.type_ref()?;
                let (pname, _) = self.expect_ident()?;
                params.push(ActionParam {
                    name: pname,
                    ty,
                    span: pstart.merge(self.prev_span()),
                });
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        let body = self.block()?;
        Ok(ActionDecl {
            name,
            params,
            body,
            span: start.merge(self.prev_span()),
        })
    }

    fn table_decl(&mut self) -> Result<TableDecl, Diag> {
        let start = self.span();
        self.expect(TokenKind::Table)?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut keys = Vec::new();
        let mut actions = Vec::new();
        let mut default_action = None;
        let mut size = None;
        let mut entries = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            self.skip_annotations()?;
            match self.peek().clone() {
                TokenKind::Key => {
                    self.bump();
                    self.expect(TokenKind::Eq)?;
                    self.expect(TokenKind::LBrace)?;
                    while !self.eat(&TokenKind::RBrace) {
                        let expr = self.expr()?;
                        self.expect(TokenKind::Colon)?;
                        let (kind_name, kspan) = self.expect_ident()?;
                        let kind = match kind_name.as_str() {
                            "exact" => MatchKind::Exact,
                            "lpm" => MatchKind::Lpm,
                            "ternary" => MatchKind::Ternary,
                            "range" => MatchKind::Range,
                            other => {
                                return Err(Diag::error(
                                    kspan,
                                    format!("unknown match kind `{other}`"),
                                ))
                            }
                        };
                        self.skip_annotations()?;
                        self.expect(TokenKind::Semi)?;
                        keys.push((expr, kind));
                    }
                }
                TokenKind::Actions => {
                    self.bump();
                    self.expect(TokenKind::Eq)?;
                    self.expect(TokenKind::LBrace)?;
                    while !self.eat(&TokenKind::RBrace) {
                        self.skip_annotations()?;
                        let (aname, _) = self.expect_ident()?;
                        // Allow `NoAction;` and `a();` forms.
                        if self.eat(&TokenKind::LParen) {
                            self.expect(TokenKind::RParen)?;
                        }
                        self.expect(TokenKind::Semi)?;
                        actions.push(aname);
                    }
                }
                TokenKind::Size => {
                    self.bump();
                    self.expect(TokenKind::Eq)?;
                    let (v, _) = self.expect_int()?;
                    self.expect(TokenKind::Semi)?;
                    size = Some(v as u64);
                }
                TokenKind::DefaultAction => {
                    self.bump();
                    self.expect(TokenKind::Eq)?;
                    let (aname, _) = self.expect_ident()?;
                    let mut args = Vec::new();
                    if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma)?;
                        }
                    }
                    self.expect(TokenKind::Semi)?;
                    default_action = Some((aname, args));
                }
                TokenKind::Entries => {
                    self.bump();
                    self.expect(TokenKind::Eq)?;
                    self.expect(TokenKind::LBrace)?;
                    while !self.eat(&TokenKind::RBrace) {
                        let estart = self.span();
                        let keysets = self.keyset_list()?;
                        self.expect(TokenKind::Colon)?;
                        let (aname, _) = self.expect_ident()?;
                        let mut args = Vec::new();
                        if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if self.eat(&TokenKind::RParen) {
                                    break;
                                }
                                self.expect(TokenKind::Comma)?;
                            }
                        }
                        self.expect(TokenKind::Semi)?;
                        entries.push(ConstEntry {
                            keysets,
                            action: aname,
                            args,
                            span: estart.merge(self.prev_span()),
                        });
                    }
                }
                other => {
                    return Err(Diag::error(
                        self.span(),
                        format!("unexpected {} in table body", other.describe()),
                    ))
                }
            }
        }
        Ok(TableDecl {
            name,
            keys,
            actions,
            default_action,
            size,
            entries,
            span: start.merge(self.prev_span()),
        })
    }

    fn extern_decl(&mut self) -> Result<ExternDecl, Diag> {
        let start = self.span();
        let kind = match self.bump().kind {
            TokenKind::Register => ExternKind::Register,
            TokenKind::Counter => ExternKind::Counter,
            TokenKind::Meter => ExternKind::Meter,
            other => {
                return Err(Diag::error(
                    start,
                    format!("expected extern keyword, found {}", other.describe()),
                ))
            }
        };
        let mut width = 64u16;
        if kind == ExternKind::Register {
            self.expect(TokenKind::Lt)?;
            let ty = self.type_ref()?;
            match ty.kind {
                TypeKind::Bit(w) => width = w,
                _ => return Err(Diag::error(ty.span, "register element type must be bit<N>")),
            }
            self.expect(TokenKind::Gt)?;
        }
        self.expect(TokenKind::LParen)?;
        let (size, _) = self.expect_int()?;
        self.expect(TokenKind::RParen)?;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::Semi)?;
        Ok(ExternDecl {
            kind,
            width,
            size: size as u64,
            name,
            span: start.merge(self.prev_span()),
        })
    }

    fn package_decl(&mut self) -> Result<PackageDecl, Diag> {
        let start = self.span();
        let (package, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut blocks = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let (bname, _) = self.expect_ident()?;
                if self.eat(&TokenKind::LParen) {
                    self.expect(TokenKind::RParen)?;
                }
                blocks.push(bname);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        let (main, mspan) = self.expect_ident()?;
        if main != "main" {
            return Err(Diag::error(
                mspan,
                format!("expected `main` in package instantiation, found `{main}`"),
            ));
        }
        self.expect(TokenKind::Semi)?;
        Ok(PackageDecl {
            package,
            blocks,
            span: start.merge(self.prev_span()),
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> Result<Block, Diag> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.statement()?);
        }
        Ok(Block { stmts })
    }

    fn statement(&mut self) -> Result<Stmt, Diag> {
        self.skip_annotations()?;
        match self.peek().clone() {
            TokenKind::If => self.if_stmt(),
            TokenKind::Exit => {
                let span = self.span();
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Exit { span })
            }
            TokenKind::Return => {
                let span = self.span();
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return { span })
            }
            TokenKind::Bit | TokenKind::Bool => Ok(Stmt::Var(self.var_decl()?)),
            TokenKind::Ident(_) => {
                // Could be: a var decl with a named type (`macAddr_t tmp = …;`),
                // an assignment (`hdr.x.y = …;`), or a call (`t.apply();`).
                if matches!(self.peek_at(1), TokenKind::Ident(_)) {
                    return Ok(Stmt::Var(self.var_decl()?));
                }
                self.assign_or_call()
            }
            other => Err(Diag::error(
                self.span(),
                format!("expected statement, found {}", other.describe()),
            )),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diag> {
        let start = self.span();
        self.expect(TokenKind::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_block = self.block()?;
        let else_block = if self.eat(&TokenKind::Else) {
            if self.peek() == &TokenKind::If {
                Block {
                    stmts: vec![self.if_stmt()?],
                }
            } else {
                self.block()?
            }
        } else {
            Block::default()
        };
        Ok(Stmt::If {
            cond,
            then_block,
            else_block,
            span: start.merge(self.prev_span()),
        })
    }

    fn assign_or_call(&mut self) -> Result<Stmt, Diag> {
        let start = self.span();
        let expr = self.postfix_expr()?;
        match self.peek() {
            TokenKind::Eq => {
                self.bump();
                let rhs = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assign {
                    lhs: expr,
                    rhs,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Semi => {
                self.bump();
                match expr {
                    Expr::Call { callee, args, span } => Ok(Stmt::Call {
                        callee: *callee,
                        args,
                        span,
                    }),
                    other => Err(Diag::error(
                        other.span(),
                        "expression statement must be a call",
                    )),
                }
            }
            other => Err(Diag::error(
                self.span(),
                format!("expected `=` or `;`, found {}", other.describe()),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, Diag> {
        self.binary_expr(0)
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Mod, 10),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::PlusPlus => (BinOp::Concat, 9),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::NotEq => (BinOp::Ne, 6),
            TokenKind::Amp => (BinOp::And, 5),
            TokenKind::Caret => (BinOp::Xor, 4),
            TokenKind::Pipe => (BinOp::Or, 3),
            TokenKind::AndAnd => (BinOp::LAnd, 2),
            TokenKind::OrOr => (BinOp::LOr, 1),
            _ => return None,
        })
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, Diag> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, Diag> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Tilde => Some(UnOp::Not),
            TokenKind::Bang => Some(UnOp::LNot),
            TokenKind::Minus => Some(UnOp::Neg),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary_expr()?;
            let span = start.merge(expr.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, Diag> {
        let mut expr = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    // `apply` and `isValid` etc. are plain identifiers here,
                    // but keywords like `apply` arrive as keyword tokens.
                    let member = match self.peek().clone() {
                        TokenKind::Ident(name) => {
                            self.bump();
                            name
                        }
                        TokenKind::Apply => {
                            self.bump();
                            "apply".to_string()
                        }
                        other => {
                            return Err(Diag::error(
                                self.span(),
                                format!("expected member name, found {}", other.describe()),
                            ))
                        }
                    };
                    let span = expr.span().merge(self.prev_span());
                    // Fold member access on paths back into the path, so
                    // `hdr.ipv4.ttl` is a single Path expression.
                    expr = match expr {
                        Expr::Path { mut segments, .. } => {
                            segments.push(member);
                            Expr::Path { segments, span }
                        }
                        other => Expr::Member {
                            base: Box::new(other),
                            member,
                            span,
                        },
                    };
                }
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma)?;
                        }
                    }
                    let span = expr.span().merge(self.prev_span());
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        span,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let (hi, _) = self.expect_int()?;
                    self.expect(TokenKind::Colon)?;
                    let (lo, _) = self.expect_int()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = expr.span().merge(self.prev_span());
                    if hi > u128::from(u16::MAX) || lo > hi {
                        return Err(Diag::error(span, "invalid bit slice bounds"));
                    }
                    expr = Expr::Slice {
                        base: Box::new(expr),
                        hi: hi as u16,
                        lo: lo as u16,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn primary_expr(&mut self) -> Result<Expr, Diag> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Int { value, width } => {
                self.bump();
                Ok(Expr::Int {
                    value,
                    width,
                    span: start,
                })
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool {
                    value: true,
                    span: start,
                })
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool {
                    value: false,
                    span: start,
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::Path {
                    segments: vec![name],
                    span: start,
                })
            }
            TokenKind::LParen => {
                self.bump();
                // Cast `(bit<16>) e` vs parenthesised expression.
                if matches!(self.peek(), TokenKind::Bit | TokenKind::Bool) {
                    let ty = self.type_ref()?;
                    self.expect(TokenKind::RParen)?;
                    let expr = self.unary_expr()?;
                    let span = start.merge(expr.span());
                    return Ok(Expr::Cast {
                        ty,
                        expr: Box::new(expr),
                        span,
                    });
                }
                let expr = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(expr)
            }
            other => Err(Diag::error(
                start,
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
        // A small but representative program.
        typedef bit<48> macAddr_t;
        const bit<16> TYPE_IPV4 = 0x800;

        header ethernet_t {
            macAddr_t dstAddr;
            macAddr_t srcAddr;
            bit<16>   etherType;
        }

        header ipv4_t {
            bit<4>  version;
            bit<4>  ihl;
            bit<8>  diffserv;
            bit<16> totalLen;
            bit<16> identification;
            bit<3>  flags;
            bit<13> fragOffset;
            bit<8>  ttl;
            bit<8>  protocol;
            bit<16> hdrChecksum;
            bit<32> srcAddr;
            bit<32> dstAddr;
        }

        struct headers_t {
            ethernet_t ethernet;
            ipv4_t     ipv4;
        }

        struct metadata_t { bit<9> port; }

        parser MyParser(packet_in pkt, out headers_t hdr,
                        inout metadata_t meta,
                        inout standard_metadata_t standard_metadata) {
            state start {
                pkt.extract(hdr.ethernet);
                transition select(hdr.ethernet.etherType) {
                    TYPE_IPV4: parse_ipv4;
                    default: accept;
                }
            }
            state parse_ipv4 {
                pkt.extract(hdr.ipv4);
                transition select(hdr.ipv4.version) {
                    4: accept;
                    default: reject;
                }
            }
        }

        control MyIngress(inout headers_t hdr, inout metadata_t meta,
                          inout standard_metadata_t standard_metadata) {
            counter(512) port_pkts;

            action drop() { mark_to_drop(standard_metadata); }
            action ipv4_forward(macAddr_t dstAddr, bit<9> port) {
                standard_metadata.egress_spec = port;
                hdr.ethernet.srcAddr = hdr.ethernet.dstAddr;
                hdr.ethernet.dstAddr = dstAddr;
                hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
            }
            table ipv4_lpm {
                key = { hdr.ipv4.dstAddr: lpm; }
                actions = { ipv4_forward; drop; NoAction; }
                size = 1024;
                default_action = drop();
            }
            apply {
                if (hdr.ipv4.isValid()) {
                    ipv4_lpm.apply();
                    port_pkts.count(standard_metadata.egress_spec);
                }
            }
        }

        control MyDeparser(packet_out pkt, in headers_t hdr) {
            apply {
                pkt.emit(hdr.ethernet);
                pkt.emit(hdr.ipv4);
            }
        }

        V1Switch(MyParser(), MyIngress(), MyDeparser()) main;
    "#;

    #[test]
    fn parses_representative_program() {
        let prog = parse(SMALL).unwrap();
        assert_eq!(prog.headers().count(), 2);
        assert_eq!(prog.structs().count(), 2);
        assert_eq!(prog.parsers().count(), 1);
        assert_eq!(prog.controls().count(), 2);

        let parser = prog.parsers().next().unwrap();
        assert_eq!(parser.states.len(), 2);
        match &parser.states[1].transition {
            Transition::Select { cases, .. } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[0].target, "accept");
                assert_eq!(cases[1].target, "reject");
            }
            _ => panic!("expected select"),
        }

        let ingress = prog.controls().next().unwrap();
        assert!(!ingress.is_deparser());
        let table = ingress
            .locals
            .iter()
            .find_map(|l| match l {
                ControlLocal::Table(t) => Some(t),
                _ => None,
            })
            .unwrap();
        assert_eq!(table.name, "ipv4_lpm");
        assert_eq!(table.keys.len(), 1);
        assert_eq!(table.keys[0].1, MatchKind::Lpm);
        assert_eq!(table.actions, vec!["ipv4_forward", "drop", "NoAction"]);
        assert_eq!(table.size, Some(1024));
        assert_eq!(table.default_action.as_ref().unwrap().0, "drop".to_string());

        let deparser = prog.controls().nth(1).unwrap();
        assert!(deparser.is_deparser());
    }

    #[test]
    fn dotted_paths_fold() {
        let prog = parse("control C(inout headers_t h) { apply { h.a.b = h.c.d + 1; } }").unwrap();
        let c = prog.controls().next().unwrap();
        match &c.apply.stmts[0] {
            Stmt::Assign { lhs, rhs, .. } => {
                assert_eq!(lhs.as_path().unwrap(), &["h", "a", "b"]);
                match rhs {
                    Expr::Binary {
                        op: BinOp::Add,
                        lhs,
                        ..
                    } => {
                        assert_eq!(lhs.as_path().unwrap(), &["h", "c", "d"]);
                    }
                    other => panic!("expected add, got {other:?}"),
                }
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn precedence_is_sane() {
        let prog = parse("control C(inout h_t h) { apply { h.x = 1 + 2 * 3; } }").unwrap();
        let c = prog.controls().next().unwrap();
        match &c.apply.stmts[0] {
            Stmt::Assign { rhs, .. } => match rhs {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs: inner,
                    ..
                } => {
                    assert!(matches!(**inner, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected + at top, got {other:?}"),
            },
            _ => panic!("expected assign"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let prog = parse("control C(inout h_t h) { apply { h.x = (h.a + h.b) * h.c; } }").unwrap();
        let c = prog.controls().next().unwrap();
        match &c.apply.stmts[0] {
            Stmt::Assign { rhs, .. } => match rhs {
                Expr::Binary {
                    op: BinOp::Mul,
                    lhs: inner,
                    ..
                } => {
                    assert!(matches!(**inner, Expr::Binary { op: BinOp::Add, .. }));
                }
                other => panic!("expected * at top, got {other:?}"),
            },
            _ => panic!("expected assign"),
        }
    }

    #[test]
    fn masks_and_ranges_in_select() {
        let src = r#"
            parser P(packet_in pkt, out h_t hdr) {
                state start {
                    transition select(hdr.e.t, hdr.e.u) {
                        (0x800 &&& 0xF00, 1 .. 5): a;
                        (default, _): accept;
                    }
                }
                state a { transition accept; }
            }
        "#;
        let prog = parse(src).unwrap();
        let p = prog.parsers().next().unwrap();
        match &p.states[0].transition {
            Transition::Select { exprs, cases, .. } => {
                assert_eq!(exprs.len(), 2);
                assert!(matches!(cases[0].keysets[0], KeySet::Mask(..)));
                assert!(matches!(cases[0].keysets[1], KeySet::Range(..)));
                assert!(matches!(cases[1].keysets[0], KeySet::Default));
                assert!(matches!(cases[1].keysets[1], KeySet::Default));
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn casts_and_slices() {
        let prog =
            parse("control C(inout h_t h) { apply { h.x = (bit<16>) h.y[11:4]; } }").unwrap();
        let c = prog.controls().next().unwrap();
        match &c.apply.stmts[0] {
            Stmt::Assign { rhs, .. } => match rhs {
                Expr::Cast { ty, expr, .. } => {
                    assert_eq!(ty.kind, TypeKind::Bit(16));
                    assert!(matches!(**expr, Expr::Slice { hi: 11, lo: 4, .. }));
                }
                other => panic!("expected cast, got {other:?}"),
            },
            _ => panic!("expected assign"),
        }
    }

    #[test]
    fn missing_transition_is_an_error() {
        let err = parse("parser P(packet_in p) { state start { } }").unwrap_err();
        assert!(err.message.contains("no transition"), "{err}");
    }

    #[test]
    fn missing_apply_is_an_error() {
        let err = parse("control C(inout h_t h) { }").unwrap_err();
        assert!(err.message.contains("missing an apply block"), "{err}");
    }

    #[test]
    fn annotations_are_skipped() {
        let prog = parse(r#"@name("x") @pragma(a, b(c)) header h_t { bit<8> f; }"#).unwrap();
        assert_eq!(prog.headers().count(), 1);
    }

    #[test]
    fn extern_declarations() {
        let prog = parse(
            "control C(inout h_t h) { register<bit<32>>(128) r; counter(64) c; meter(16) m; apply { } }",
        )
        .unwrap();
        let c = prog.controls().next().unwrap();
        let externs: Vec<_> = c
            .locals
            .iter()
            .filter_map(|l| match l {
                ControlLocal::Extern(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(externs.len(), 3);
        assert_eq!(externs[0].kind, ExternKind::Register);
        assert_eq!(externs[0].width, 32);
        assert_eq!(externs[0].size, 128);
        assert_eq!(externs[1].kind, ExternKind::Counter);
        assert_eq!(externs[2].kind, ExternKind::Meter);
    }

    #[test]
    fn const_entries_parse() {
        let src = r#"
            control C(inout h_t h) {
                action fwd(bit<9> p) { }
                table t {
                    key = { h.e.t: exact; }
                    actions = { fwd; }
                    entries = {
                        0x800: fwd(1);
                        0x86dd: fwd(2);
                    }
                }
                apply { t.apply(); }
            }
        "#;
        let prog = parse(src).unwrap();
        let c = prog.controls().next().unwrap();
        let t = c
            .locals
            .iter()
            .find_map(|l| match l {
                ControlLocal::Table(t) => Some(t),
                _ => None,
            })
            .unwrap();
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0].action, "fwd");
        assert_eq!(t.entries[0].args.len(), 1);
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            control C(inout h_t h) {
                apply {
                    if (h.a.x == 1) { h.a.y = 1; }
                    else if (h.a.x == 2) { h.a.y = 2; }
                    else { h.a.y = 3; }
                }
            }
        "#;
        let prog = parse(src).unwrap();
        let c = prog.controls().next().unwrap();
        match &c.apply.stmts[0] {
            Stmt::If { else_block, .. } => {
                assert!(matches!(else_block.stmts[0], Stmt::If { .. }));
            }
            _ => panic!("expected if"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("header h_t { bit<8 f; }").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("expected"));
    }
}
