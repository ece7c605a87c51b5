//! Lowering from AST to pipeline IR.
//!
//! This pass performs all semantic analysis: name resolution, width
//! inference and checking, constant folding, header layout computation,
//! parser-graph construction and inlining of directly-invoked actions.
//! Every error is a positioned [`Diag`], which the compiler-check use-case
//! surfaces to users.

use crate::ast::{self, BinOp, Expr, KeySet, Stmt, TypeKind, UnOp};
use crate::ir::{self, truncate, IrExpr, IrPattern, IrStmt, IrTransition, LValue, Op, TransTarget};
use crate::span::{Diag, Span};
use crate::walk;
use std::collections::HashMap;

/// Lower a parsed program to IR.
pub fn lower(prog: &ast::Program) -> Result<ir::Program, Diag> {
    Lowerer::new(prog)?.run()
}

/// Width and value of a folded constant.
#[derive(Debug, Clone, Copy)]
struct ConstVal {
    value: u128,
    width: Option<u16>,
}

struct Lowerer<'a> {
    ast: &'a ast::Program,
    typedefs: HashMap<String, ast::TypeKind>,
    consts: HashMap<String, ConstVal>,
    header_decls: HashMap<String, &'a ast::HeaderDecl>,
    struct_decls: HashMap<String, &'a ast::StructDecl>,

    // Output program being built.
    out: ir::Program,
    header_ids: HashMap<String, ir::HeaderId>,
    meta_ids: HashMap<String, ir::MetaId>,
    extern_ids: HashMap<String, ir::ExternId>,
    action_ids: HashMap<String, ir::ActionId>,
    table_ids: HashMap<String, ir::TableId>,
    local_ids: HashMap<String, ir::LocalId>,
}

/// Per-block lowering context: the roles played by parser/control parameters.
#[derive(Debug, Clone, Default)]
struct Ctx {
    /// Name of the `packet_in` / `packet_out` parameter.
    pkt: Option<String>,
    /// Name of the headers-struct parameter.
    hdr: Option<String>,
    /// Name of the user-metadata parameter.
    meta: Option<String>,
    /// Name of the standard-metadata parameter.
    std: Option<String>,
    /// Action parameter name → (index, width).
    action_params: HashMap<String, (usize, u16)>,
}

impl<'a> Lowerer<'a> {
    fn new(prog: &'a ast::Program) -> Result<Self, Diag> {
        let mut typedefs = HashMap::new();
        let mut header_decls = HashMap::new();
        let mut struct_decls = HashMap::new();
        for item in &prog.items {
            match item {
                ast::Item::Typedef(t) => {
                    typedefs.insert(t.name.clone(), t.ty.kind.clone());
                }
                ast::Item::Header(h) if header_decls.insert(h.name.clone(), h).is_some() => {
                    return Err(Diag::error(
                        h.span,
                        format!("duplicate header type `{}`", h.name),
                    ));
                }
                ast::Item::Struct(s) if struct_decls.insert(s.name.clone(), s).is_some() => {
                    return Err(Diag::error(
                        s.span,
                        format!("duplicate struct type `{}`", s.name),
                    ));
                }
                _ => {}
            }
        }
        Ok(Lowerer {
            ast: prog,
            typedefs,
            consts: HashMap::new(),
            header_decls,
            struct_decls,
            out: ir::Program {
                name: "program".to_string(),
                headers: Vec::new(),
                metadata: Vec::new(),
                locals: Vec::new(),
                parser: ir::ParseGraph { states: Vec::new() },
                controls: Vec::new(),
                deparse: Vec::new(),
                externs: Vec::new(),
                tables: Vec::new(),
                actions: Vec::new(),
            },
            header_ids: HashMap::new(),
            meta_ids: HashMap::new(),
            extern_ids: HashMap::new(),
            action_ids: HashMap::new(),
            table_ids: HashMap::new(),
            local_ids: HashMap::new(),
        })
    }

    /// Resolve a type reference to a bit width (following typedefs).
    fn width_of(&self, ty: &ast::TypeRef) -> Result<u16, Diag> {
        match &ty.kind {
            TypeKind::Bit(w) => Ok(*w),
            TypeKind::Bool => Ok(1),
            TypeKind::Named(name) => match self.typedefs.get(name) {
                Some(TypeKind::Bit(w)) => Ok(*w),
                Some(TypeKind::Bool) => Ok(1),
                Some(TypeKind::Named(inner)) => self.width_of(&ast::TypeRef {
                    kind: TypeKind::Named(inner.clone()),
                    span: ty.span,
                }),
                None => Err(Diag::error(
                    ty.span,
                    format!("`{name}` is not a scalar type here"),
                )),
            },
        }
    }

    /// Fold a compile-time constant expression.
    fn const_eval(&self, e: &Expr) -> Result<ConstVal, Diag> {
        match e {
            Expr::Int { value, width, .. } => Ok(ConstVal {
                value: *value,
                width: *width,
            }),
            Expr::Bool { value, .. } => Ok(ConstVal {
                value: *value as u128,
                width: Some(1),
            }),
            Expr::Path { segments, span } if segments.len() == 1 => {
                self.consts.get(&segments[0]).copied().ok_or_else(|| {
                    Diag::error(*span, format!("`{}` is not a known constant", segments[0]))
                })
            }
            // The operators fold through the walker's own semantics.
            Expr::Unary { op, expr, .. } => {
                let v = self.const_eval(expr)?;
                Ok(ConstVal {
                    value: walk::eval_un(*op, v.value, v.width.unwrap_or(128)),
                    width: v.width,
                })
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let a = self.const_eval(lhs)?;
                let mut b = self.const_eval(rhs)?;
                let (width, rhs_width) = match op {
                    BinOp::Div if b.value == 0 => {
                        return Err(Diag::error(*span, "constant division by zero"))
                    }
                    BinOp::Mod if b.value == 0 => {
                        return Err(Diag::error(*span, "constant modulo by zero"))
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        (Some(1), 0)
                    }
                    BinOp::Concat => {
                        let explicit =
                            || Diag::error(*span, "concat operands need explicit widths");
                        let bw = b.width.ok_or_else(explicit)?;
                        let aw = a.width.ok_or_else(explicit)?;
                        b.value = truncate(b.value, bw);
                        (Some(aw + bw), bw)
                    }
                    _ => (a.width.or(b.width), 0),
                };
                let w = width.unwrap_or(128);
                Ok(ConstVal {
                    value: truncate(walk::eval_bin(*op, a.value, b.value, w, rhs_width), w),
                    width,
                })
            }
            Expr::Cast { ty, expr, .. } => {
                let v = self.const_eval(expr)?;
                let w = self.width_of(ty)?;
                Ok(ConstVal {
                    value: truncate(v.value, w),
                    width: Some(w),
                })
            }
            Expr::Slice { base, hi, lo, .. } => {
                let v = self.const_eval(base)?;
                Ok(ConstVal {
                    value: truncate(v.value >> lo, hi - lo + 1),
                    width: Some(hi - lo + 1),
                })
            }
            other => Err(Diag::error(
                other.span(),
                "expression is not a compile-time constant",
            )),
        }
    }

    // ------------------------------------------------------------------
    // Top-level driver
    // ------------------------------------------------------------------

    fn run(mut self) -> Result<ir::Program, Diag> {
        // 1. Constants.
        for item in &self.ast.items {
            if let ast::Item::Const(c) = item {
                let mut v = self.const_eval(&c.value)?;
                let w = self.width_of(&c.ty)?;
                v = ConstVal {
                    value: truncate(v.value, w),
                    width: Some(w),
                };
                self.consts.insert(c.name.clone(), v);
            }
        }

        // 2. Find the single parser; it defines the headers/meta structs.
        let parser = self
            .ast
            .parsers()
            .next()
            .ok_or_else(|| Diag::error(Span::NONE, "program has no parser"))?;
        if self.ast.parsers().count() > 1 {
            return Err(Diag::error(
                self.ast.parsers().nth(1).unwrap().span,
                "multiple parsers are not supported",
            ));
        }

        let parser_ctx = self.block_ctx(&parser.params)?;
        let hdr_struct_name = {
            let hdr_param = parser
                .params
                .iter()
                .find(|p| {
                    matches!(&p.ty.kind, TypeKind::Named(n)
                        if self.struct_decls.contains_key(n)
                        && self.struct_is_headers(n))
                })
                .ok_or_else(|| {
                    Diag::error(parser.span, "parser has no headers-struct parameter")
                })?;
            match &hdr_param.ty.kind {
                TypeKind::Named(n) => n.clone(),
                _ => unreachable!(),
            }
        };

        // 3. Header layouts from the headers struct.
        let hdr_struct = self.struct_decls[&hdr_struct_name];
        for field in &hdr_struct.fields {
            let ty_name = match &field.ty.kind {
                TypeKind::Named(n) => n.clone(),
                _ => {
                    return Err(Diag::error(
                        field.span,
                        "headers struct members must be header types",
                    ))
                }
            };
            let decl = *self.header_decls.get(&ty_name).ok_or_else(|| {
                Diag::error(field.span, format!("unknown header type `{ty_name}`"))
            })?;
            let mut fields = Vec::new();
            let mut offset = 0u32;
            for f in &decl.fields {
                let w = self.width_of(&f.ty)?;
                fields.push(ir::FieldLayout {
                    name: f.name.clone(),
                    offset_bits: offset,
                    width_bits: w,
                });
                offset += u32::from(w);
            }
            if !offset.is_multiple_of(8) {
                return Err(Diag::error(
                    decl.span,
                    format!(
                        "header `{}` is {} bits — headers must be byte-aligned",
                        decl.name, offset
                    ),
                ));
            }
            let id = self.out.headers.len();
            self.header_ids.insert(field.name.clone(), id);
            self.out.headers.push(ir::HeaderLayout {
                name: field.name.clone(),
                ty_name,
                fields,
                bit_width: offset,
            });
        }

        // 4. User metadata struct (scalar struct param of the parser).
        if let Some(meta_name) = &parser_ctx.meta {
            let meta_param = parser
                .params
                .iter()
                .find(|p| &p.name == meta_name)
                .expect("ctx built from these params");
            if let TypeKind::Named(sname) = &meta_param.ty.kind {
                let sdecl = self.struct_decls[sname];
                for f in &sdecl.fields {
                    let w = self.width_of(&f.ty)?;
                    let id = self.out.metadata.len();
                    self.meta_ids.insert(f.name.clone(), id);
                    self.out.metadata.push(ir::MetaField {
                        name: f.name.clone(),
                        width: w,
                    });
                }
            }
        }

        // 5. Externs: top level first, then per control.
        for item in &self.ast.items {
            if let ast::Item::Extern(e) = item {
                self.add_extern(e)?;
            }
        }
        for control in self.ast.controls() {
            for local in &control.locals {
                if let ast::ControlLocal::Extern(e) = local {
                    self.add_extern(e)?;
                }
            }
        }

        // 6. Implicit NoAction.
        self.action_ids.insert("NoAction".to_string(), 0);
        self.out.actions.push(ir::ActionIr {
            name: "NoAction".to_string(),
            control: String::new(),
            params: Vec::new(),
            ops: Vec::new(),
        });

        // 7. Actions and tables, per non-deparser control.
        let pipeline_controls: Vec<&ast::ControlDecl> =
            self.ast.controls().filter(|c| !c.is_deparser()).collect();
        let deparser_controls: Vec<&ast::ControlDecl> =
            self.ast.controls().filter(|c| c.is_deparser()).collect();

        for control in &pipeline_controls {
            let ctx = self.block_ctx(&control.params)?;
            // Control-level variable declarations become locals.
            for local in &control.locals {
                if let ast::ControlLocal::Var(v) = local {
                    let w = self.width_of(&v.ty)?;
                    self.alloc_local(&format!("{}::{}", control.name, v.name), &v.name, w);
                }
            }
            for local in &control.locals {
                if let ast::ControlLocal::Action(a) = local {
                    self.lower_action(control, a, &ctx)?;
                }
            }
            for local in &control.locals {
                if let ast::ControlLocal::Table(t) = local {
                    self.lower_table(control, t, &ctx)?;
                }
            }
        }

        // 8. Control bodies.
        for control in &pipeline_controls {
            let ctx = self.block_ctx(&control.params)?;
            let body = self.lower_block(&control.apply, &ctx, BlockKind::Control)?;
            self.out.controls.push(ir::ControlIr {
                name: control.name.clone(),
                body,
            });
        }

        // 9. Parser graph.
        self.lower_parser(parser, &parser_ctx)?;

        // 10. Deparser emit order.
        match deparser_controls.len() {
            0 => {
                // No deparser: emit every header in declaration order.
                self.out.deparse = (0..self.out.headers.len()).collect();
            }
            1 => {
                let dep = deparser_controls[0];
                let ctx = self.block_ctx(&dep.params)?;
                self.collect_emits(&dep.apply, &ctx)?;
            }
            _ => {
                return Err(Diag::error(
                    deparser_controls[1].span,
                    "multiple deparsers are not supported",
                ))
            }
        }

        // 11. Program name.
        if let Some(ast::Item::Package(p)) = self
            .ast
            .items
            .iter()
            .find(|i| matches!(i, ast::Item::Package(_)))
        {
            self.out.name = p.package.clone();
        } else {
            self.out.name = parser.name.clone();
        }

        Ok(self.out)
    }

    /// Is the named struct composed entirely of header-typed fields?
    fn struct_is_headers(&self, name: &str) -> bool {
        let Some(s) = self.struct_decls.get(name) else {
            return false;
        };
        !s.fields.is_empty()
            && s.fields.iter().all(
                |f| matches!(&f.ty.kind, TypeKind::Named(n) if self.header_decls.contains_key(n)),
            )
    }

    fn add_extern(&mut self, e: &ast::ExternDecl) -> Result<(), Diag> {
        if self.extern_ids.contains_key(&e.name) {
            return Err(Diag::error(
                e.span,
                format!("duplicate extern instance `{}`", e.name),
            ));
        }
        let kind = match e.kind {
            ast::ExternKind::Register => ir::ExternKindIr::Register,
            ast::ExternKind::Counter => ir::ExternKindIr::Counter,
            ast::ExternKind::Meter => ir::ExternKindIr::Meter,
        };
        let id = self.out.externs.len();
        self.extern_ids.insert(e.name.clone(), id);
        self.out.externs.push(ir::ExternIr {
            kind,
            name: e.name.clone(),
            width: e.width,
            size: e.size,
        });
        Ok(())
    }

    /// Identify the role of each parameter.
    fn block_ctx(&self, params: &[ast::Param]) -> Result<Ctx, Diag> {
        let mut ctx = Ctx::default();
        for p in params {
            match &p.ty.kind {
                TypeKind::Named(n) if n == "packet_in" || n == "packet_out" => {
                    ctx.pkt = Some(p.name.clone());
                }
                TypeKind::Named(n) if n == "standard_metadata_t" => {
                    ctx.std = Some(p.name.clone());
                }
                TypeKind::Named(n) if self.struct_is_headers(n) => {
                    ctx.hdr = Some(p.name.clone());
                }
                TypeKind::Named(n) if self.struct_decls.contains_key(n) => {
                    ctx.meta = Some(p.name.clone());
                }
                _ => {
                    // Scalar-typed parameters are not used by the subset's
                    // top-level blocks; tolerate and ignore.
                }
            }
        }
        Ok(ctx)
    }

    fn alloc_local(&mut self, unique: &str, visible: &str, width: u16) -> ir::LocalId {
        let id = self.out.locals.len();
        self.out.locals.push(ir::LocalVar {
            name: unique.to_string(),
            width,
        });
        self.local_ids.insert(visible.to_string(), id);
        id
    }

    fn fresh_local(&mut self, hint: &str, width: u16) -> ir::LocalId {
        let id = self.out.locals.len();
        self.out.locals.push(ir::LocalVar {
            name: format!("%{hint}{id}"),
            width,
        });
        id
    }

    // ------------------------------------------------------------------
    // Actions and tables
    // ------------------------------------------------------------------

    fn lower_action(
        &mut self,
        control: &ast::ControlDecl,
        a: &ast::ActionDecl,
        ctx: &Ctx,
    ) -> Result<(), Diag> {
        if self.action_ids.contains_key(&a.name) && a.name != "NoAction" {
            return Err(Diag::error(
                a.span,
                format!("duplicate action `{}`", a.name),
            ));
        }
        let mut params = Vec::new();
        let mut actx = ctx.clone();
        for (i, p) in a.params.iter().enumerate() {
            let w = self.width_of(&p.ty)?;
            params.push((p.name.clone(), w));
            actx.action_params.insert(p.name.clone(), (i, w));
        }
        let mut ops = Vec::new();
        for stmt in &a.body.stmts {
            self.lower_action_stmt(stmt, &actx, &mut ops)?;
        }
        let id = self.out.actions.len();
        self.action_ids.insert(a.name.clone(), id);
        self.out.actions.push(ir::ActionIr {
            name: a.name.clone(),
            control: control.name.clone(),
            params,
            ops,
        });
        Ok(())
    }

    fn lower_action_stmt(&mut self, stmt: &Stmt, ctx: &Ctx, ops: &mut Vec<Op>) -> Result<(), Diag> {
        match stmt {
            Stmt::Assign { lhs, rhs, .. } => {
                let lv = self.lower_lvalue(lhs, ctx)?;
                let w = self.lvalue_width(&lv);
                let rv = self.lower_expr(rhs, ctx, Some(w))?;
                ops.push(Op::Assign(lv, rv));
                Ok(())
            }
            Stmt::Call { callee, args, span } => {
                let op = self.lower_call_to_op(callee, args, ctx, *span)?;
                ops.push(op);
                Ok(())
            }
            Stmt::Var(v) => {
                let w = self.width_of(&v.ty)?;
                let id = self.fresh_local(&v.name, w);
                self.local_ids.insert(v.name.clone(), id);
                if let Some(init) = &v.init {
                    let rv = self.lower_expr(init, ctx, Some(w))?;
                    ops.push(Op::Assign(LValue::Local(id), rv));
                }
                Ok(())
            }
            Stmt::If { span, .. } => Err(Diag::error(
                *span,
                "conditionals inside actions are not supported by this subset (match on a table instead)",
            )),
            Stmt::Exit { span } | Stmt::Return { span } => Err(Diag::error(
                *span,
                "exit/return inside actions is not supported by this subset",
            )),
        }
    }

    /// Lower a call statement to a primitive op.
    fn lower_call_to_op(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        ctx: &Ctx,
        span: Span,
    ) -> Result<Op, Diag> {
        let segs = callee
            .as_path()
            .ok_or_else(|| Diag::error(span, "call target must be a dotted path"))?;

        // mark_to_drop() / mark_to_drop(std_meta)
        if segs.len() == 1 && segs[0] == "mark_to_drop" {
            return Ok(Op::Drop);
        }
        // NoAction()
        if segs.len() == 1 && segs[0] == "NoAction" {
            return Ok(Op::NoOp);
        }

        // hdr.X.setValid() / hdr.X.setInvalid()
        if segs.len() >= 2 {
            let method = segs.last().unwrap().as_str();
            match method {
                "setValid" | "setInvalid" => {
                    let hid = self.resolve_header(&segs[..segs.len() - 1], ctx, span)?;
                    return Ok(Op::SetValid(hid, method == "setValid"));
                }
                "count" => {
                    let eid = self.resolve_extern(&segs[..segs.len() - 1], span)?;
                    let idx = if args.is_empty() {
                        IrExpr::konst(0, 32)
                    } else {
                        self.lower_expr(&args[0], ctx, None)?
                    };
                    return Ok(Op::CounterInc(eid, idx));
                }
                "read" => {
                    let eid = self.resolve_extern(&segs[..segs.len() - 1], span)?;
                    if args.len() != 2 {
                        return Err(Diag::error(span, "register read takes (dst, index)"));
                    }
                    let dst = self.lower_lvalue(&args[0], ctx)?;
                    let idx = self.lower_expr(&args[1], ctx, None)?;
                    return Ok(Op::RegisterRead(dst, eid, idx));
                }
                "write" => {
                    let eid = self.resolve_extern(&segs[..segs.len() - 1], span)?;
                    if args.len() != 2 {
                        return Err(Diag::error(span, "register write takes (index, value)"));
                    }
                    let idx = self.lower_expr(&args[0], ctx, None)?;
                    let width = self.out.externs[eid].width;
                    let val = self.lower_expr(&args[1], ctx, Some(width))?;
                    return Ok(Op::RegisterWrite(eid, idx, val));
                }
                "execute" | "execute_meter" => {
                    let eid = self.resolve_extern(&segs[..segs.len() - 1], span)?;
                    if args.len() != 2 {
                        return Err(Diag::error(span, "meter execute takes (index, dst)"));
                    }
                    let idx = self.lower_expr(&args[0], ctx, None)?;
                    let dst = self.lower_lvalue(&args[1], ctx)?;
                    return Ok(Op::MeterExecute(eid, idx, dst));
                }
                _ => {}
            }
        }

        // Unsupported v1model externs that real programs mention — give a
        // precise diagnostic (compiler-check relies on this).
        if segs.len() == 1 {
            let name = segs[0].as_str();
            if matches!(
                name,
                "verify_checksum"
                    | "update_checksum"
                    | "hash"
                    | "random"
                    | "clone"
                    | "resubmit"
                    | "recirculate"
                    | "truncate"
                    | "digest"
                    | "clone3"
            ) {
                return Err(Diag::error(
                    span,
                    format!("extern `{name}` is not supported by this subset"),
                ));
            }
        }

        Err(Diag::error(
            span,
            format!("unknown call target `{}`", segs.join(".")),
        ))
    }

    fn lower_table(
        &mut self,
        control: &ast::ControlDecl,
        t: &ast::TableDecl,
        ctx: &Ctx,
    ) -> Result<(), Diag> {
        if self.table_ids.contains_key(&t.name) {
            return Err(Diag::error(t.span, format!("duplicate table `{}`", t.name)));
        }
        let mut keys = Vec::new();
        for (expr, kind) in &t.keys {
            let e = self.lower_expr(expr, ctx, None)?;
            let width = e.width(&self.out);
            keys.push(ir::TableKey {
                expr: e,
                kind: *kind,
                width,
            });
        }
        let mut action_ids = Vec::new();
        for aname in &t.actions {
            let aid = *self.action_ids.get(aname).ok_or_else(|| {
                Diag::error(
                    t.span,
                    format!("table `{}` lists unknown action `{aname}`", t.name),
                )
            })?;
            action_ids.push(aid);
        }
        let default_action = match &t.default_action {
            Some((aname, args)) => {
                let aid = *self.action_ids.get(aname).ok_or_else(|| {
                    Diag::error(t.span, format!("unknown default action `{aname}`"))
                })?;
                let action = &self.out.actions[aid];
                if args.len() != action.params.len() {
                    return Err(Diag::error(
                        t.span,
                        format!(
                            "default action `{aname}` takes {} arguments, {} given",
                            action.params.len(),
                            args.len()
                        ),
                    ));
                }
                let widths: Vec<u16> = action.params.iter().map(|(_, w)| *w).collect();
                let mut vals = Vec::new();
                for (arg, w) in args.iter().zip(widths) {
                    let v = self.const_eval(arg)?;
                    vals.push(truncate(v.value, w));
                }
                ir::ActionCall {
                    action: aid,
                    args: vals,
                }
            }
            None => ir::ActionCall {
                action: 0, // NoAction
                args: Vec::new(),
            },
        };

        let mut const_entries = Vec::new();
        for (i, entry) in t.entries.iter().enumerate() {
            if entry.keysets.len() != keys.len() {
                return Err(Diag::error(
                    entry.span,
                    format!(
                        "entry has {} key patterns, table has {} keys",
                        entry.keysets.len(),
                        keys.len()
                    ),
                ));
            }
            let mut patterns = Vec::new();
            for (ks, key) in entry.keysets.iter().zip(&keys) {
                patterns.push(self.lower_keyset(ks, key.width)?);
            }
            let aid = *self.action_ids.get(&entry.action).ok_or_else(|| {
                Diag::error(
                    entry.span,
                    format!("unknown action `{}` in entry", entry.action),
                )
            })?;
            let action = &self.out.actions[aid];
            if entry.args.len() != action.params.len() {
                return Err(Diag::error(
                    entry.span,
                    format!(
                        "action `{}` takes {} arguments, {} given",
                        entry.action,
                        action.params.len(),
                        entry.args.len()
                    ),
                ));
            }
            let widths: Vec<u16> = action.params.iter().map(|(_, w)| *w).collect();
            let mut vals = Vec::new();
            for (arg, w) in entry.args.iter().zip(widths) {
                let v = self.const_eval(arg)?;
                vals.push(truncate(v.value, w));
            }
            const_entries.push(ir::IrEntry {
                patterns,
                action: ir::ActionCall {
                    action: aid,
                    args: vals,
                },
                // Earlier const entries win, per P4-16.
                priority: i32::MAX - i as i32,
            });
        }

        let id = self.out.tables.len();
        self.table_ids.insert(t.name.clone(), id);
        self.out.tables.push(ir::TableIr {
            name: t.name.clone(),
            control: control.name.clone(),
            keys,
            actions: action_ids,
            default_action,
            size: t.size.unwrap_or(1024),
            const_entries,
        });
        Ok(())
    }

    fn lower_keyset(&self, ks: &KeySet, width: u16) -> Result<IrPattern, Diag> {
        Ok(match ks {
            KeySet::Default => IrPattern::Any,
            KeySet::Value(e) => IrPattern::Value(truncate(self.const_eval(e)?.value, width)),
            KeySet::Mask(v, m) => IrPattern::Mask {
                value: truncate(self.const_eval(v)?.value, width),
                mask: truncate(self.const_eval(m)?.value, width),
            },
            KeySet::Range(lo, hi) => IrPattern::Range {
                lo: truncate(self.const_eval(lo)?.value, width),
                hi: truncate(self.const_eval(hi)?.value, width),
            },
        })
    }

    // ------------------------------------------------------------------
    // Control bodies
    // ------------------------------------------------------------------

    fn lower_block(
        &mut self,
        block: &ast::Block,
        ctx: &Ctx,
        kind: BlockKind,
    ) -> Result<Vec<IrStmt>, Diag> {
        let mut out = Vec::new();
        for stmt in &block.stmts {
            self.lower_stmt(stmt, ctx, kind, &mut out)?;
        }
        Ok(out)
    }

    fn lower_stmt(
        &mut self,
        stmt: &Stmt,
        ctx: &Ctx,
        kind: BlockKind,
        out: &mut Vec<IrStmt>,
    ) -> Result<(), Diag> {
        match stmt {
            Stmt::Assign { lhs, rhs, .. } => {
                let lv = self.lower_lvalue(lhs, ctx)?;
                let w = self.lvalue_width(&lv);
                let rv = self.lower_expr(rhs, ctx, Some(w))?;
                out.push(IrStmt::Op(Op::Assign(lv, rv)));
                Ok(())
            }
            Stmt::Var(v) => {
                let w = self.width_of(&v.ty)?;
                let id = self.fresh_local(&v.name, w);
                self.local_ids.insert(v.name.clone(), id);
                if let Some(init) = &v.init {
                    let rv = self.lower_expr(init, ctx, Some(w))?;
                    out.push(IrStmt::Op(Op::Assign(LValue::Local(id), rv)));
                }
                Ok(())
            }
            Stmt::Exit { .. } => {
                out.push(IrStmt::Exit);
                Ok(())
            }
            Stmt::Return { span } => Err(Diag::error(
                *span,
                "return statements are not supported by this subset",
            )),
            Stmt::Call { callee, args, span } => {
                // table.apply()
                if let Some(segs) = callee.as_path() {
                    if segs.len() == 2 && segs[1] == "apply" {
                        if let Some(&table) = self.table_ids.get(&segs[0]) {
                            out.push(IrStmt::ApplyTable {
                                table,
                                hit_into: None,
                            });
                            return Ok(());
                        }
                    }
                    // Direct action invocation: inline with substituted args.
                    if segs.len() == 1 {
                        if let Some(&aid) = self.action_ids.get(&segs[0]) {
                            let action = self.out.actions[aid].clone();
                            if args.len() != action.params.len() {
                                return Err(Diag::error(
                                    *span,
                                    format!(
                                        "action `{}` takes {} arguments, {} given",
                                        action.name,
                                        action.params.len(),
                                        args.len()
                                    ),
                                ));
                            }
                            let mut lowered_args = Vec::new();
                            for (arg, (_, w)) in args.iter().zip(&action.params) {
                                lowered_args.push(self.lower_expr(arg, ctx, Some(*w))?);
                            }
                            for op in &action.ops {
                                out.push(IrStmt::Op(substitute_op(op, &lowered_args)));
                            }
                            return Ok(());
                        }
                    }
                }
                let op = self.lower_call_to_op(callee, args, ctx, *span)?;
                if kind == BlockKind::Parser {
                    return Err(Diag::error(
                        *span,
                        "this call is not valid inside a parser state",
                    ));
                }
                out.push(IrStmt::Op(op));
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                // Special-case `if (t.apply().hit)` and its negation.
                if let Some((table, want_hit, rest)) = self.match_apply_hit(cond) {
                    let local = self.fresh_local("hit", 1);
                    out.push(IrStmt::ApplyTable {
                        table,
                        hit_into: Some(local),
                    });
                    let mut cond_ir = IrExpr::Local(local);
                    if !want_hit {
                        cond_ir = IrExpr::Bin {
                            op: BinOp::Eq,
                            a: Box::new(cond_ir),
                            b: Box::new(IrExpr::konst(0, 1)),
                            width: 1,
                        };
                    }
                    debug_assert!(rest.is_none());
                    let then_ir = self.lower_block(then_block, ctx, kind)?;
                    let else_ir = self.lower_block(else_block, ctx, kind)?;
                    out.push(IrStmt::If {
                        cond: cond_ir,
                        then_branch: then_ir,
                        else_branch: else_ir,
                    });
                    return Ok(());
                }
                let cond_ir = self.lower_expr(cond, ctx, Some(1))?;
                let then_ir = self.lower_block(then_block, ctx, kind)?;
                let else_ir = self.lower_block(else_block, ctx, kind)?;
                out.push(IrStmt::If {
                    cond: cond_ir,
                    then_branch: then_ir,
                    else_branch: else_ir,
                });
                Ok(())
            }
        }
    }

    /// Recognise `t.apply().hit` / `t.apply().miss` / `!(...)` conditions.
    /// Returns (table, whether-then-branch-is-hit, unused).
    fn match_apply_hit(&self, cond: &Expr) -> Option<(ir::TableId, bool, Option<()>)> {
        match cond {
            Expr::Member { base, member, .. } => {
                if let Expr::Call { callee, .. } = base.as_ref() {
                    let segs = callee.as_path()?;
                    if segs.len() == 2 && segs[1] == "apply" {
                        let table = *self.table_ids.get(&segs[0])?;
                        return match member.as_str() {
                            "hit" => Some((table, true, None)),
                            "miss" => Some((table, false, None)),
                            _ => None,
                        };
                    }
                }
                None
            }
            Expr::Unary {
                op: UnOp::LNot,
                expr,
                ..
            } => {
                let (t, hit, r) = self.match_apply_hit(expr)?;
                Some((t, !hit, r))
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Parser
    // ------------------------------------------------------------------

    fn lower_parser(&mut self, parser: &ast::ParserDecl, ctx: &Ctx) -> Result<(), Diag> {
        // Map state names to ids; `start` must be state 0.
        let mut state_ids = HashMap::new();
        let start_idx = parser
            .states
            .iter()
            .position(|s| s.name == "start")
            .ok_or_else(|| Diag::error(parser.span, "parser has no `start` state"))?;
        let mut order: Vec<usize> = Vec::with_capacity(parser.states.len());
        order.push(start_idx);
        for i in 0..parser.states.len() {
            if i != start_idx {
                order.push(i);
            }
        }
        for (new_id, &ast_idx) in order.iter().enumerate() {
            let s = &parser.states[ast_idx];
            if state_ids.insert(s.name.clone(), new_id).is_some() {
                return Err(Diag::error(
                    s.span,
                    format!("duplicate parser state `{}`", s.name),
                ));
            }
        }

        for &ast_idx in &order {
            let s = &parser.states[ast_idx];
            let mut ops = Vec::new();
            for stmt in &s.stmts {
                match stmt {
                    Stmt::Call { callee, args, span } => {
                        let segs = callee.as_path().ok_or_else(|| {
                            Diag::error(*span, "parser calls must be dotted paths")
                        })?;
                        let is_extract = segs.len() == 2
                            && Some(&segs[0]) == ctx.pkt.as_ref()
                            && segs[1] == "extract";
                        if is_extract {
                            if args.len() != 1 {
                                return Err(Diag::error(*span, "extract takes one argument"));
                            }
                            let hsegs = args[0].as_path().ok_or_else(|| {
                                Diag::error(*span, "extract argument must be a header path")
                            })?;
                            let hid = self.resolve_header(hsegs, ctx, *span)?;
                            ops.push(ir::ParserOp::Extract(hid));
                        } else if segs.len() == 2 && segs[1] == "advance" {
                            return Err(Diag::error(
                                *span,
                                "packet_in.advance is not supported by this subset",
                            ));
                        } else {
                            return Err(Diag::error(
                                *span,
                                format!("unsupported parser call `{}`", segs.join(".")),
                            ));
                        }
                    }
                    Stmt::Assign { lhs, rhs, .. } => {
                        let lv = self.lower_lvalue(lhs, ctx)?;
                        let w = self.lvalue_width(&lv);
                        let rv = self.lower_expr(rhs, ctx, Some(w))?;
                        ops.push(ir::ParserOp::Assign(lv, rv));
                    }
                    other => {
                        return Err(Diag::error(
                            stmt_span(other),
                            "only extract and assignments are allowed in parser states",
                        ))
                    }
                }
            }

            let transition = match &s.transition {
                ast::Transition::Direct { target, span } => match target.as_str() {
                    "accept" => IrTransition::Accept,
                    "reject" => IrTransition::Reject,
                    name => IrTransition::Goto(*state_ids.get(name).ok_or_else(|| {
                        Diag::error(*span, format!("unknown parser state `{name}`"))
                    })?),
                },
                ast::Transition::Select { exprs, cases, span } => {
                    let mut keys = Vec::new();
                    for e in exprs {
                        keys.push(self.lower_expr(e, ctx, None)?);
                    }
                    let widths: Vec<u16> = keys.iter().map(|k| k.width(&self.out)).collect();
                    let mut arms = Vec::new();
                    for case in cases {
                        let patterns: Vec<IrPattern> = if case.keysets.len() == 1
                            && matches!(case.keysets[0], KeySet::Default)
                        {
                            vec![IrPattern::Any; keys.len()]
                        } else {
                            if case.keysets.len() != keys.len() {
                                return Err(Diag::error(
                                    case.span,
                                    format!(
                                        "select arm has {} patterns, selector has {} keys",
                                        case.keysets.len(),
                                        keys.len()
                                    ),
                                ));
                            }
                            case.keysets
                                .iter()
                                .zip(&widths)
                                .map(|(ks, w)| self.lower_keyset(ks, *w))
                                .collect::<Result<_, _>>()?
                        };
                        let target = match case.target.as_str() {
                            "accept" => TransTarget::Accept,
                            "reject" => TransTarget::Reject,
                            name => TransTarget::State(*state_ids.get(name).ok_or_else(|| {
                                Diag::error(case.span, format!("unknown parser state `{name}`"))
                            })?),
                        };
                        arms.push(ir::SelectArm { patterns, target });
                    }
                    let _ = span;
                    IrTransition::Select {
                        keys,
                        arms,
                        // P4-16: select with no matching arm rejects.
                        default: TransTarget::Reject,
                    }
                }
            };

            self.out.parser.states.push(ir::ParseState {
                name: s.name.clone(),
                ops,
                transition,
            });
        }
        Ok(())
    }

    fn collect_emits(&mut self, block: &ast::Block, ctx: &Ctx) -> Result<(), Diag> {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Call { callee, args, span } => {
                    let segs = callee.as_path().ok_or_else(|| {
                        Diag::error(*span, "deparser statements must be emit calls")
                    })?;
                    let is_emit =
                        segs.len() == 2 && Some(&segs[0]) == ctx.pkt.as_ref() && segs[1] == "emit";
                    if !is_emit {
                        return Err(Diag::error(
                            *span,
                            format!("unsupported deparser call `{}`", segs.join(".")),
                        ));
                    }
                    if args.len() != 1 {
                        return Err(Diag::error(*span, "emit takes one argument"));
                    }
                    let hsegs = args[0]
                        .as_path()
                        .ok_or_else(|| Diag::error(*span, "emit argument must be a header path"))?;
                    let hid = self.resolve_header(hsegs, ctx, *span)?;
                    self.out.deparse.push(hid);
                }
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    // Emit order is preserved; validity is checked at emit
                    // time anyway, so conditional emits flatten.
                    self.collect_emits(then_block, ctx)?;
                    self.collect_emits(else_block, ctx)?;
                }
                other => {
                    return Err(Diag::error(
                        stmt_span(other),
                        "only emit calls are allowed in the deparser",
                    ))
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Names, lvalues and expressions
    // ------------------------------------------------------------------

    /// Resolve `hdr.X` to a header id.
    fn resolve_header(&self, segs: &[String], ctx: &Ctx, span: Span) -> Result<ir::HeaderId, Diag> {
        if segs.len() == 2 && Some(&segs[0]) == ctx.hdr.as_ref() {
            self.header_ids
                .get(&segs[1])
                .copied()
                .ok_or_else(|| Diag::error(span, format!("unknown header instance `{}`", segs[1])))
        } else {
            Err(Diag::error(
                span,
                format!("`{}` is not a header reference", segs.join(".")),
            ))
        }
    }

    fn resolve_extern(&self, segs: &[String], span: Span) -> Result<ir::ExternId, Diag> {
        if segs.len() == 1 {
            self.extern_ids
                .get(&segs[0])
                .copied()
                .ok_or_else(|| Diag::error(span, format!("unknown extern instance `{}`", segs[0])))
        } else {
            Err(Diag::error(
                span,
                format!("`{}` is not an extern instance", segs.join(".")),
            ))
        }
    }

    fn lower_lvalue(&mut self, e: &Expr, ctx: &Ctx) -> Result<LValue, Diag> {
        match e {
            Expr::Path { segments, span } => self.lower_path_lvalue(segments, ctx, *span),
            Expr::Slice { base, hi, lo, span } => {
                let inner = self.lower_lvalue(base, ctx)?;
                let w = self.lvalue_width(&inner);
                if *hi >= w {
                    return Err(Diag::error(
                        *span,
                        format!("slice [{hi}:{lo}] exceeds width {w}"),
                    ));
                }
                Ok(LValue::Slice(Box::new(inner), *hi, *lo))
            }
            other => Err(Diag::error(other.span(), "expression is not assignable")),
        }
    }

    fn lower_path_lvalue(
        &mut self,
        segs: &[String],
        ctx: &Ctx,
        span: Span,
    ) -> Result<LValue, Diag> {
        if segs.len() == 3 && Some(&segs[0]) == ctx.hdr.as_ref() {
            let hid = *self.header_ids.get(&segs[1]).ok_or_else(|| {
                Diag::error(span, format!("unknown header instance `{}`", segs[1]))
            })?;
            let fid = self.out.headers[hid]
                .field_by_name(&segs[2])
                .ok_or_else(|| {
                    Diag::error(
                        span,
                        format!("header `{}` has no field `{}`", segs[1], segs[2]),
                    )
                })?;
            return Ok(LValue::Field(hid, fid));
        }
        if segs.len() == 2 && Some(&segs[0]) == ctx.meta.as_ref() {
            let mid = *self.meta_ids.get(&segs[1]).ok_or_else(|| {
                Diag::error(span, format!("unknown metadata field `{}`", segs[1]))
            })?;
            return Ok(LValue::Meta(mid));
        }
        if segs.len() == 2 && Some(&segs[0]) == ctx.std.as_ref() {
            let f = ir::StdField::by_name(&segs[1]).ok_or_else(|| {
                Diag::error(
                    span,
                    format!("standard_metadata field `{}` is not supported", segs[1]),
                )
            })?;
            return Ok(LValue::Std(f));
        }
        if segs.len() == 1 {
            if let Some(&lid) = self.local_ids.get(&segs[0]) {
                return Ok(LValue::Local(lid));
            }
        }
        Err(Diag::error(
            span,
            format!("`{}` is not an assignable location", segs.join(".")),
        ))
    }

    fn lvalue_width(&self, lv: &LValue) -> u16 {
        match lv {
            LValue::Field(h, f) => self.out.headers[*h].fields[*f].width_bits,
            LValue::Meta(m) => self.out.metadata[*m].width,
            LValue::Std(s) => s.width(),
            LValue::Local(l) => self.out.locals[*l].width,
            LValue::Slice(_, hi, lo) => hi - lo + 1,
        }
    }

    /// Lower an expression. `expected` is the width imposed by context
    /// (assignment target, action parameter, cast); unsized literals adopt
    /// it, and mismatched sized operands are errors.
    fn lower_expr(&mut self, e: &Expr, ctx: &Ctx, expected: Option<u16>) -> Result<IrExpr, Diag> {
        let ir = self.lower_expr_inner(e, ctx, expected)?;
        if let Some(w) = expected {
            let actual = ir.width(&self.out);
            if actual != w {
                return Err(Diag::error(
                    e.span(),
                    format!("width mismatch: expected {w} bits, found {actual}"),
                ));
            }
        }
        Ok(ir)
    }

    fn lower_expr_inner(
        &mut self,
        e: &Expr,
        ctx: &Ctx,
        expected: Option<u16>,
    ) -> Result<IrExpr, Diag> {
        match e {
            Expr::Int { value, width, span } => {
                let w = width.or(expected).unwrap_or_else(|| min_width(*value));
                if width.is_none() && expected.is_none() {
                    // Unsized literal in unsized context: use minimal width.
                }
                if truncate(*value, w) != *value {
                    return Err(Diag::error(
                        *span,
                        format!("literal {value} does not fit in {w} bits"),
                    ));
                }
                Ok(IrExpr::konst(*value, w))
            }
            Expr::Bool { value, .. } => Ok(IrExpr::konst(*value as u128, 1)),
            Expr::Path { segments, span } => self.lower_path_expr(segments, ctx, *span, expected),
            Expr::Call { callee, args, span } => {
                // hdr.X.isValid()
                if let Some(segs) = callee.as_path() {
                    if segs.len() >= 2 && segs.last().unwrap() == "isValid" && args.is_empty() {
                        let hid = self.resolve_header(&segs[..segs.len() - 1], ctx, *span)?;
                        return Ok(IrExpr::IsValid(hid));
                    }
                }
                Err(Diag::error(
                    *span,
                    "only isValid() calls are allowed in expressions",
                ))
            }
            Expr::Member { span, .. } => Err(Diag::error(
                *span,
                "t.apply().hit is only allowed directly as an if condition",
            )),
            Expr::Unary { op, expr, span } => {
                let a = self.lower_expr_inner(expr, ctx, expected)?;
                let w = a.width(&self.out);
                match op {
                    UnOp::LNot => {
                        if w != 1 {
                            return Err(Diag::error(*span, "`!` needs a boolean operand"));
                        }
                        Ok(IrExpr::Un {
                            op: UnOp::LNot,
                            a: Box::new(a),
                            width: 1,
                        })
                    }
                    UnOp::Not | UnOp::Neg => Ok(IrExpr::Un {
                        op: *op,
                        a: Box::new(a),
                        width: w,
                    }),
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                use BinOp::*;
                match op {
                    LAnd | LOr => {
                        let a = self.lower_expr(lhs, ctx, Some(1))?;
                        let b = self.lower_expr(rhs, ctx, Some(1))?;
                        Ok(IrExpr::Bin {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: 1,
                        })
                    }
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        let (a, b) = self.lower_same_width(lhs, rhs, ctx, *span)?;
                        Ok(IrExpr::Bin {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: 1,
                        })
                    }
                    Shl | Shr => {
                        let a = self.lower_expr_inner(lhs, ctx, expected)?;
                        let w = a.width(&self.out);
                        let b = self.lower_expr_inner(rhs, ctx, None)?;
                        Ok(IrExpr::Bin {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: w,
                        })
                    }
                    Concat => {
                        let a = self.lower_expr_inner(lhs, ctx, None)?;
                        let b = self.lower_expr_inner(rhs, ctx, None)?;
                        let w = a.width(&self.out) + b.width(&self.out);
                        Ok(IrExpr::Bin {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: w,
                        })
                    }
                    _ => {
                        let (a, b) = self.lower_same_width_hint(lhs, rhs, ctx, *span, expected)?;
                        let w = a.width(&self.out);
                        Ok(IrExpr::Bin {
                            op: *op,
                            a: Box::new(a),
                            b: Box::new(b),
                            width: w,
                        })
                    }
                }
            }
            Expr::Slice { base, hi, lo, span } => {
                let b = self.lower_expr_inner(base, ctx, None)?;
                let w = b.width(&self.out);
                if *hi >= w {
                    return Err(Diag::error(
                        *span,
                        format!("slice [{hi}:{lo}] exceeds width {w}"),
                    ));
                }
                Ok(IrExpr::Slice {
                    base: Box::new(b),
                    hi: *hi,
                    lo: *lo,
                })
            }
            Expr::Cast { ty, expr, .. } => {
                let w = self.width_of(ty)?;
                let inner = self.lower_expr_inner(expr, ctx, None)?;
                Ok(IrExpr::Cast {
                    expr: Box::new(inner),
                    width: w,
                })
            }
        }
    }

    /// Lower two operands that must agree on width (unsized literals adapt).
    fn lower_same_width(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        ctx: &Ctx,
        span: Span,
    ) -> Result<(IrExpr, IrExpr), Diag> {
        self.lower_same_width_hint(lhs, rhs, ctx, span, None)
    }

    fn lower_same_width_hint(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        ctx: &Ctx,
        span: Span,
        hint: Option<u16>,
    ) -> Result<(IrExpr, IrExpr), Diag> {
        let lhs_unsized = matches!(lhs, Expr::Int { width: None, .. });
        let rhs_unsized = matches!(rhs, Expr::Int { width: None, .. });
        match (lhs_unsized, rhs_unsized) {
            (false, false) => {
                let a = self.lower_expr_inner(lhs, ctx, hint)?;
                let b = self.lower_expr_inner(rhs, ctx, hint)?;
                let (wa, wb) = (a.width(&self.out), b.width(&self.out));
                if wa != wb {
                    return Err(Diag::error(
                        span,
                        format!("operand widths differ: {wa} vs {wb} bits"),
                    ));
                }
                Ok((a, b))
            }
            (true, false) => {
                let b = self.lower_expr_inner(rhs, ctx, hint)?;
                let w = b.width(&self.out);
                let a = self.lower_expr(lhs, ctx, Some(w))?;
                Ok((a, b))
            }
            (false, true) => {
                let a = self.lower_expr_inner(lhs, ctx, hint)?;
                let w = a.width(&self.out);
                let b = self.lower_expr(rhs, ctx, Some(w))?;
                Ok((a, b))
            }
            (true, true) => {
                let a = self.lower_expr_inner(lhs, ctx, hint)?;
                let w = a.width(&self.out);
                let b = self.lower_expr(rhs, ctx, Some(w))?;
                Ok((a, b))
            }
        }
    }

    fn lower_path_expr(
        &mut self,
        segs: &[String],
        ctx: &Ctx,
        span: Span,
        expected: Option<u16>,
    ) -> Result<IrExpr, Diag> {
        // Header field.
        if segs.len() == 3 && Some(&segs[0]) == ctx.hdr.as_ref() {
            let hid = *self.header_ids.get(&segs[1]).ok_or_else(|| {
                Diag::error(span, format!("unknown header instance `{}`", segs[1]))
            })?;
            let fid = self.out.headers[hid]
                .field_by_name(&segs[2])
                .ok_or_else(|| {
                    Diag::error(
                        span,
                        format!("header `{}` has no field `{}`", segs[1], segs[2]),
                    )
                })?;
            return Ok(IrExpr::Field(hid, fid));
        }
        // User metadata.
        if segs.len() == 2 && Some(&segs[0]) == ctx.meta.as_ref() {
            let mid = *self.meta_ids.get(&segs[1]).ok_or_else(|| {
                Diag::error(span, format!("unknown metadata field `{}`", segs[1]))
            })?;
            return Ok(IrExpr::Meta(mid));
        }
        // Standard metadata.
        if segs.len() == 2 && Some(&segs[0]) == ctx.std.as_ref() {
            let f = ir::StdField::by_name(&segs[1]).ok_or_else(|| {
                Diag::error(
                    span,
                    format!("standard_metadata field `{}` is not supported", segs[1]),
                )
            })?;
            return Ok(IrExpr::Std(f));
        }
        if segs.len() == 1 {
            // Action parameter.
            if let Some(&(idx, w)) = ctx.action_params.get(&segs[0]) {
                return Ok(IrExpr::Param {
                    index: idx,
                    width: w,
                });
            }
            // Local variable.
            if let Some(&lid) = self.local_ids.get(&segs[0]) {
                return Ok(IrExpr::Local(lid));
            }
            // Constant.
            if let Some(c) = self.consts.get(&segs[0]) {
                let w = c.width.or(expected).unwrap_or_else(|| min_width(c.value));
                return Ok(IrExpr::konst(c.value, w));
            }
        }
        Err(Diag::error(
            span,
            format!("unknown name `{}`", segs.join(".")),
        ))
    }
}

/// Block kinds, used to restrict which statements are allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Control,
    Parser,
}

/// Smallest width that can hold `value` (at least 1).
fn min_width(value: u128) -> u16 {
    (128 - value.leading_zeros()).max(1) as u16
}

fn stmt_span(s: &Stmt) -> Span {
    match s {
        Stmt::Assign { span, .. }
        | Stmt::Call { span, .. }
        | Stmt::If { span, .. }
        | Stmt::Exit { span }
        | Stmt::Return { span } => *span,
        Stmt::Var(v) => v.span,
    }
}

/// Replace `Param(i)` references with bound argument expressions (used when
/// inlining direct action invocations).
fn substitute_op(op: &Op, args: &[IrExpr]) -> Op {
    match op {
        Op::Assign(lv, e) => Op::Assign(lv.clone(), substitute_expr(e, args)),
        Op::SetValid(h, v) => Op::SetValid(*h, *v),
        Op::Drop => Op::Drop,
        Op::CounterInc(c, idx) => Op::CounterInc(*c, substitute_expr(idx, args)),
        Op::RegisterRead(lv, r, idx) => {
            Op::RegisterRead(lv.clone(), *r, substitute_expr(idx, args))
        }
        Op::RegisterWrite(r, idx, v) => {
            Op::RegisterWrite(*r, substitute_expr(idx, args), substitute_expr(v, args))
        }
        Op::MeterExecute(m, idx, lv) => {
            Op::MeterExecute(*m, substitute_expr(idx, args), lv.clone())
        }
        Op::NoOp => Op::NoOp,
    }
}

fn substitute_expr(e: &IrExpr, args: &[IrExpr]) -> IrExpr {
    match e {
        IrExpr::Param { index, .. } => args[*index].clone(),
        IrExpr::Un { op, a, width } => IrExpr::Un {
            op: *op,
            a: Box::new(substitute_expr(a, args)),
            width: *width,
        },
        IrExpr::Bin { op, a, b, width } => IrExpr::Bin {
            op: *op,
            a: Box::new(substitute_expr(a, args)),
            b: Box::new(substitute_expr(b, args)),
            width: *width,
        },
        IrExpr::Slice { base, hi, lo } => IrExpr::Slice {
            base: Box::new(substitute_expr(base, args)),
            hi: *hi,
            lo: *lo,
        },
        IrExpr::Cast { expr, width } => IrExpr::Cast {
            expr: Box::new(substitute_expr(expr, args)),
            width: *width,
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> ir::Program {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn compile_err(src: &str) -> Diag {
        let ast = parse(src).unwrap();
        lower(&ast).unwrap_err()
    }

    const BASIC: &str = r#"
        const bit<16> TYPE_IPV4 = 0x800;
        header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
        header ipv4_t {
            bit<4> version; bit<4> ihl; bit<8> tos; bit<16> len;
            bit<16> id; bit<3> flags; bit<13> frag; bit<8> ttl;
            bit<8> proto; bit<16> csum; bit<32> src; bit<32> dst;
        }
        struct headers_t { ethernet_t ethernet; ipv4_t ipv4; }
        struct meta_t { bit<9> out_port; }
        parser P(packet_in pkt, out headers_t hdr, inout meta_t meta,
                 inout standard_metadata_t std) {
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
        control I(inout headers_t hdr, inout meta_t meta,
                  inout standard_metadata_t std) {
            action drop() { mark_to_drop(); }
            action fwd(bit<9> port) {
                std.egress_spec = port;
                hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
            }
            table lpm {
                key = { hdr.ipv4.dst: lpm; }
                actions = { fwd; drop; NoAction; }
                size = 64;
                default_action = drop();
            }
            apply {
                if (hdr.ipv4.isValid()) { lpm.apply(); }
            }
        }
        control D(packet_out pkt, in headers_t hdr) {
            apply { pkt.emit(hdr.ethernet); pkt.emit(hdr.ipv4); }
        }
        V1Switch(P(), I(), D()) main;
    "#;

    #[test]
    fn lowers_basic_program() {
        let p = compile(BASIC);
        assert_eq!(p.name, "V1Switch");
        assert_eq!(p.headers.len(), 2);
        assert_eq!(p.headers[0].name, "ethernet");
        assert_eq!(p.headers[0].bit_width, 112);
        assert_eq!(p.headers[1].bit_width, 160);
        assert_eq!(p.metadata.len(), 1);
        assert_eq!(p.parser.states.len(), 2);
        assert_eq!(p.controls.len(), 1);
        assert_eq!(p.deparse, vec![0, 1]);
        assert_eq!(p.tables.len(), 1);
        // NoAction + drop + fwd.
        assert_eq!(p.actions.len(), 3);

        // Field offsets computed in wire order.
        let ipv4 = &p.headers[1];
        let ttl = &ipv4.fields[ipv4.field_by_name("ttl").unwrap()];
        assert_eq!(ttl.offset_bits, 64);
        assert_eq!(ttl.width_bits, 8);

        // Table default action is `drop`.
        let t = &p.tables[0];
        assert_eq!(p.actions[t.default_action.action].name, "drop");
        assert_eq!(t.size, 64);
        assert_eq!(t.keys[0].width, 32);
        assert_eq!(t.keys[0].kind, ast::MatchKind::Lpm);
    }

    #[test]
    fn parser_select_lowered_with_reject() {
        let p = compile(BASIC);
        let s1 = &p.parser.states[1];
        match &s1.transition {
            IrTransition::Select { arms, default, .. } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].patterns[0], IrPattern::Value(4));
                assert!(matches!(arms[0].target, TransTarget::Accept));
                assert!(matches!(arms[1].patterns[0], IrPattern::Any));
                assert!(matches!(arms[1].target, TransTarget::Reject));
                assert!(matches!(default, TransTarget::Reject));
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn constants_fold_into_patterns() {
        let p = compile(BASIC);
        match &p.parser.states[0].transition {
            IrTransition::Select { arms, .. } => {
                assert_eq!(arms[0].patterns[0], IrPattern::Value(0x800));
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn action_ops_reference_params() {
        let p = compile(BASIC);
        let fwd = &p.actions[p.action_by_name("fwd").unwrap()];
        assert_eq!(fwd.params, vec![("port".to_string(), 9)]);
        match &fwd.ops[0] {
            Op::Assign(
                LValue::Std(ir::StdField::EgressSpec),
                IrExpr::Param { index: 0, width: 9 },
            ) => {}
            other => panic!("unexpected op {other:?}"),
        }
        // ttl = ttl - 1 lowered with width 8.
        match &fwd.ops[1] {
            Op::Assign(
                LValue::Field(1, _),
                IrExpr::Bin {
                    op: BinOp::Sub,
                    width: 8,
                    ..
                },
            ) => {}
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn misaligned_header_rejected() {
        let err = compile_err(
            r#"
            header odd_t { bit<7> x; }
            struct headers_t { odd_t odd; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.odd); transition accept; }
            }
            control I(inout headers_t hdr) { apply { } }
            "#,
        );
        assert!(err.message.contains("byte-aligned"), "{err}");
    }

    #[test]
    fn width_mismatch_rejected() {
        let err = compile_err(
            r#"
            header h_t { bit<8> a; bit<16> b; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.h); transition accept; }
            }
            control I(inout headers_t hdr) {
                apply { hdr.h.a = hdr.h.b; }
            }
            "#,
        );
        assert!(err.message.contains("width mismatch"), "{err}");
    }

    #[test]
    fn unknown_state_rejected() {
        let err = compile_err(
            r#"
            header h_t { bit<8> a; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { transition nowhere; }
            }
            control I(inout headers_t hdr) { apply { } }
            "#,
        );
        assert!(err.message.contains("unknown parser state"), "{err}");
    }

    #[test]
    fn unsupported_extern_flagged() {
        let err = compile_err(
            r#"
            header h_t { bit<8> a; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { transition accept; }
            }
            control I(inout headers_t hdr) {
                apply { hash(); }
            }
            "#,
        );
        assert!(err.message.contains("not supported"), "{err}");
    }

    #[test]
    fn direct_action_call_inlines_args() {
        let p = compile(
            r#"
            header h_t { bit<8> a; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.h); transition accept; }
            }
            control I(inout headers_t hdr) {
                action set_a(bit<8> v) { hdr.h.a = v; }
                apply { set_a(42); }
            }
            "#,
        );
        let body = &p.controls[0].body;
        match &body[0] {
            IrStmt::Op(Op::Assign(
                LValue::Field(0, 0),
                IrExpr::Const {
                    value: 42,
                    width: 8,
                },
            )) => {}
            other => panic!("expected inlined assign, got {other:?}"),
        }
    }

    #[test]
    fn apply_hit_capture() {
        let p = compile(
            r#"
            header h_t { bit<8> a; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.h); transition accept; }
            }
            control I(inout headers_t hdr) {
                action nop() { }
                table t { key = { hdr.h.a: exact; } actions = { nop; } }
                apply {
                    if (t.apply().hit) { hdr.h.a = 1; } else { hdr.h.a = 2; }
                }
            }
            "#,
        );
        let body = &p.controls[0].body;
        assert!(matches!(
            body[0],
            IrStmt::ApplyTable {
                hit_into: Some(_),
                ..
            }
        ));
        assert!(matches!(body[1], IrStmt::If { .. }));
    }

    #[test]
    fn register_ops_lowered() {
        let p = compile(
            r#"
            header h_t { bit<32> a; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.h); transition accept; }
            }
            control I(inout headers_t hdr) {
                register<bit<32>>(256) r;
                counter(16) c;
                apply {
                    r.read(hdr.h.a, 3);
                    r.write(3, hdr.h.a);
                    c.count(1);
                }
            }
            "#,
        );
        assert_eq!(p.externs.len(), 2);
        let body = &p.controls[0].body;
        assert!(matches!(body[0], IrStmt::Op(Op::RegisterRead(..))));
        assert!(matches!(body[1], IrStmt::Op(Op::RegisterWrite(..))));
        assert!(matches!(body[2], IrStmt::Op(Op::CounterInc(..))));
    }

    #[test]
    fn const_entries_get_descending_priority() {
        let p = compile(
            r#"
            header h_t { bit<16> t; }
            struct headers_t { h_t h; }
            parser P(packet_in pkt, out headers_t hdr) {
                state start { pkt.extract(hdr.h); transition accept; }
            }
            control I(inout headers_t hdr) {
                action a() { }
                action b() { }
                table t {
                    key = { hdr.h.t: ternary; }
                    actions = { a; b; }
                    entries = {
                        0x800 &&& 0xFF00: a();
                        _: b();
                    }
                }
                apply { t.apply(); }
            }
            "#,
        );
        let t = &p.tables[0];
        assert_eq!(t.const_entries.len(), 2);
        assert!(t.const_entries[0].priority > t.const_entries[1].priority);
        assert!(matches!(
            t.const_entries[0].patterns[0],
            IrPattern::Mask { .. }
        ));
        assert!(matches!(t.const_entries[1].patterns[0], IrPattern::Any));
    }

    /// A `const` folds through the walker's operators: every operator over
    /// a few widths lowers to what `eval_un`/`eval_bin` return, truncated
    /// to the declared width, with comparisons 1 bit wide. A shift by at
    /// least the width leaves 0, also by 2^32 + 1 and by 2^64, and a zero
    /// divisor is a diagnostic, not a value.
    #[test]
    fn const_folding_matches_the_walker_operators() {
        use crate::ir::all_ones;
        use BinOp::*;
        let lowered = |rw: u16, expr: &str| -> Result<u128, Diag> {
            let pad = (8 - rw % 8) % 8;
            let pad = if pad == 0 {
                String::new()
            } else {
                format!("bit<{pad}> pad;")
            };
            let src = format!(
                "const bit<{rw}> C = {expr};
                header h_t {{ bit<{rw}> a; {pad} }}
                struct headers_t {{ h_t h; }}
                parser P(packet_in pkt, out headers_t hdr) {{
                    state start {{ pkt.extract(hdr.h); transition accept; }}
                }}
                control I(inout headers_t hdr) {{ apply {{ hdr.h.a = C; }} }}"
            );
            let p = lower(&parse(&src).unwrap())?;
            match &p.controls[0].body[0] {
                IrStmt::Op(Op::Assign(_, IrExpr::Const { value, width })) => {
                    assert_eq!(*width, rw, "{expr}");
                    Ok(*value)
                }
                other => panic!("{expr}: expected a constant assign, got {other:?}"),
            }
        };
        let ops = [
            (Add, "+"),
            (Sub, "-"),
            (Mul, "*"),
            (Div, "/"),
            (Mod, "%"),
            (And, "&"),
            (Or, "|"),
            (Xor, "^"),
            (Shl, "<<"),
            (Shr, ">>"),
            (Eq, "=="),
            (Ne, "!="),
            (Lt, "<"),
            (Le, "<="),
            (Gt, ">"),
            (Ge, ">="),
            (LAnd, "&&"),
            (LOr, "||"),
            (Concat, "++"),
        ];
        for (w, wide) in [(8u16, 9u128), (16, 16), (40, (1 << 32) + 1), (72, 1 << 64)] {
            let ones = all_ones(w);
            for (x, y) in [(ones - 2, 3), (6, 6), (0x5A, 0), (1, wide), (ones, wide)] {
                for (op, sym) in ops {
                    let rw = match op {
                        Eq | Ne | Lt | Le | Gt | Ge => 1,
                        Concat if w > 64 => continue,
                        Concat => 2 * w,
                        _ => w,
                    };
                    let expr = format!("{w}w{x} {sym} {w}w{y}");
                    match lowered(rw, &expr) {
                        Err(e) => {
                            assert!(matches!(op, Div | Mod) && y == 0, "{expr}: {e}");
                            assert!(e.message.contains("by zero"), "{expr}: {e}");
                        }
                        Ok(v) => {
                            assert_eq!(v, truncate(walk::eval_bin(op, x, y, rw, w), rw), "{expr}");
                            if matches!(op, Shl | Shr) && y >= u128::from(w) {
                                assert_eq!(v, 0, "{expr}");
                            }
                        }
                    }
                }
            }
            for (op, sym) in [(UnOp::Not, "~"), (UnOp::Neg, "-"), (UnOp::LNot, "!")] {
                for x in [0, 1, ones - 2] {
                    let expr = format!("{sym}{w}w{x}");
                    assert_eq!(
                        lowered(w, &expr).unwrap(),
                        walk::eval_un(op, x, w),
                        "{expr}"
                    );
                }
            }
        }
        let err = lowered(16, "8w1 ++ 8").unwrap_err();
        assert!(err.message.contains("explicit widths"), "{err}");
    }
}
