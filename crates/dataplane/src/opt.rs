//! Peephole optimization passes over the flat bytecode.
//!
//! `optimize` runs a pipeline of independent, individually toggleable
//! ([`PassConfig`]) rewrites over a [`CompiledProgram`]'s instruction
//! array:
//!
//! * **dead-store elimination** — `StoreLocal`/`StoreMeta` into slots no
//!   opcode ever loads become `Pop`; table-apply hit-capture locals that
//!   are never read are dropped. Locals and user metadata are zeroed
//!   per packet and invisible to verdicts, traces, statistics and
//!   externs, so eliding an unread store is unobservable.
//! * **constant folding** — expressions resolvable at compile time
//!   (`Const;Const;Bin`, `Const;Un`, `Const;Slice`, `Const;Cast`,
//!   constant concats) collapse into one `Const`, and a pure push
//!   followed by `Pop` (a write to a read-only standard field)
//!   disappears.
//! * **superinstruction fusion** — the hot adjacent pairs dispatch as
//!   one opcode: `Bin;BranchIfZero` → [`OpCode::CmpBranch`],
//!   `Const;Bin` → [`OpCode::ConstBin`] (and then
//!   `ConstBin;BranchIfZero` → [`OpCode::ConstCmpBranch`]), and the
//!   l2_switch-profile pair `LoadField;Apply` (single-key table) →
//!   [`OpCode::FieldApply`].
//! * **jump threading** — jumps to jumps (and branch/select/action
//!   entries targeting jumps) retarget to the final destination; a jump
//!   to the next instruction vanishes, a branch to the next instruction
//!   becomes the `Pop` it is.
//!
//! Every pass matches **strictly adjacent** instructions and only
//! rewrites a window when no interior instruction is a jump target (the
//! target set includes select arms, action entry points and the implicit
//! return address after every table apply), then the code is compacted —
//! `Nop`s removed and every target remapped — so the next pass sees
//! adjacency restored. The pipeline loops to a fixpoint; soundness is
//! pinned by the parity property tests, which compare verdicts, traces,
//! statistics and extern state against the tree-walking reference oracle
//! under every pass combination.

use crate::compile::{bin_op, CompiledProgram, OpCode, NO_HIT_LOCAL};
use netdebug_p4::ast::UnOp;
use netdebug_p4::ir::truncate;
use std::collections::HashSet;

/// Which optimization passes `optimize` runs. Every field defaults to
/// **on**; construct with struct-update syntax to toggle passes
/// individually:
///
/// ```
/// use netdebug_dataplane::PassConfig;
/// let no_fusion = PassConfig { fuse: false, ..PassConfig::default() };
/// let only_fold = PassConfig { const_fold: true, ..PassConfig::none() };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Constant folding (incl. pure-push/`Pop` elimination).
    pub const_fold: bool,
    /// Dead-store elimination for never-read locals and metadata.
    pub dead_store: bool,
    /// Superinstruction fusion.
    pub fuse: bool,
    /// Jump threading.
    pub jump_thread: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            const_fold: true,
            dead_store: true,
            fuse: true,
            jump_thread: true,
        }
    }
}

impl PassConfig {
    /// All passes disabled: the raw lowering, unchanged.
    pub fn none() -> Self {
        PassConfig {
            const_fold: false,
            dead_store: false,
            fuse: false,
            jump_thread: false,
        }
    }
}

impl core::fmt::Display for PassConfig {
    /// Enabled passes joined with `+` (`"none"` when all are off), e.g.
    /// `const_fold+fuse`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let enabled = [
            (self.const_fold, "const_fold"),
            (self.dead_store, "dead_store"),
            (self.fuse, "fuse"),
            (self.jump_thread, "jump_thread"),
        ];
        let mut any = false;
        for (on, name) in enabled {
            if on {
                if any {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// Pipeline iteration cap: folding/fusion cascades (each iteration can
/// expose the next window) converge far earlier in practice; the cap
/// only bounds pathological hand-written chains.
const MAX_PIPELINE_ITERS: usize = 16;

/// Run the enabled passes over `cp` to a fixpoint.
pub(crate) fn optimize(cp: &mut CompiledProgram, passes: PassConfig) {
    if passes == PassConfig::none() {
        return;
    }
    for _ in 0..MAX_PIPELINE_ITERS {
        let mut changed = false;
        if passes.dead_store {
            changed |= dead_store(cp);
        }
        if passes.const_fold {
            changed |= const_fold(cp);
        }
        if passes.fuse {
            changed |= fuse(cp);
        }
        if passes.jump_thread {
            changed |= jump_thread(cp);
        }
        if !changed {
            break;
        }
    }
}

/// Mark every pc some control transfer can land on: explicit jump/branch
/// targets, select arms and defaults, action entry points, the implicit
/// return address after each table apply, and the program entry. A
/// rewrite window may *start* at a target (the replacement instruction is
/// written there) but must not *swallow* one.
fn jump_targets(cp: &CompiledProgram) -> Vec<bool> {
    let len = cp.code.len();
    let mut t = vec![false; len];
    if len > 0 {
        t[0] = true;
    }
    for (pc, op) in cp.code.iter().enumerate() {
        match *op {
            OpCode::Jump(x)
            | OpCode::BranchIfZero(x)
            | OpCode::Exit(x)
            | OpCode::CmpBranch(_, _, x)
            | OpCode::ConstCmpBranch(_, _, _, x) => t[x as usize] = true,
            OpCode::Apply { .. } | OpCode::FieldApply { .. } if pc + 1 < len => {
                t[pc + 1] = true;
            }
            _ => {}
        }
    }
    for sel in &cp.selects {
        t[sel.default as usize] = true;
        for &(_, arm) in &sel.arms {
            t[arm as usize] = true;
        }
    }
    for &a in &cp.action_pcs {
        t[a as usize] = true;
    }
    t
}

/// Remove `Nop`s and remap every stored pc (jump operands, select arms
/// and defaults, action entries) onto the compacted indices. A target
/// that pointed *at* a removed `Nop` lands on the first following real
/// instruction — exactly where falling through the `Nop` would have led.
fn compact(cp: &mut CompiledProgram) {
    let len = cp.code.len();
    let mut new_index = vec![0u32; len + 1];
    let mut kept = 0u32;
    for (i, op) in cp.code.iter().enumerate() {
        new_index[i] = kept;
        if !matches!(op, OpCode::Nop) {
            kept += 1;
        }
    }
    new_index[len] = kept;
    if kept as usize == len {
        return;
    }
    cp.code.retain(|op| !matches!(op, OpCode::Nop));
    let map = |t: &mut u32| {
        let n = new_index[*t as usize];
        debug_assert!(n < kept, "target {t} maps past the end");
        *t = n;
    };
    for op in cp.code.iter_mut() {
        match op {
            OpCode::Jump(t)
            | OpCode::BranchIfZero(t)
            | OpCode::Exit(t)
            | OpCode::CmpBranch(_, _, t)
            | OpCode::ConstCmpBranch(_, _, _, t) => map(t),
            _ => {}
        }
    }
    for sel in &mut cp.selects {
        map(&mut sel.default);
        for arm in &mut sel.arms {
            map(&mut arm.1);
        }
    }
    for a in &mut cp.action_pcs {
        map(a);
    }
}

/// A push with no side effects, cancellable against an immediate `Pop`.
fn is_pure_push(op: OpCode) -> bool {
    matches!(
        op,
        OpCode::Const(_)
            | OpCode::LoadField(_, _)
            | OpCode::LoadFieldRaw(_, _)
            | OpCode::LoadMeta(_)
            | OpCode::LoadStd(_)
            | OpCode::LoadParam(_, _)
            | OpCode::LoadLocal(_)
            | OpCode::LoadIsValid(_)
    )
}

/// Fold constant expressions. Returns true if anything changed.
fn const_fold(cp: &mut CompiledProgram) -> bool {
    let targets = jump_targets(cp);
    let code = &mut cp.code;
    let n = code.len();
    let mut changed = false;
    for i in 0..n {
        // Three-opcode windows first (they subsume a pair at the same
        // spot): Const;Const;{Bin,Concat}.
        if i + 2 < n && !targets[i + 1] && !targets[i + 2] {
            if let (OpCode::Const(a), OpCode::Const(b)) = (code[i], code[i + 1]) {
                match code[i + 2] {
                    OpCode::Bin(op, w) => {
                        code[i] = OpCode::Const(bin_op(op, a, b, w));
                        code[i + 1] = OpCode::Nop;
                        code[i + 2] = OpCode::Nop;
                        changed = true;
                        continue;
                    }
                    OpCode::Concat(shift, w) => {
                        code[i] = OpCode::Const(truncate((a << shift) | b, w));
                        code[i + 1] = OpCode::Nop;
                        code[i + 2] = OpCode::Nop;
                        changed = true;
                        continue;
                    }
                    _ => {}
                }
            }
        }
        if i + 1 >= n || targets[i + 1] {
            continue;
        }
        match (code[i], code[i + 1]) {
            (OpCode::Const(x), OpCode::Un(op, w)) => {
                let v = match op {
                    UnOp::Not => truncate(!x, w),
                    UnOp::Neg => truncate(x.wrapping_neg(), w),
                    UnOp::LNot => (x == 0) as u128,
                };
                code[i] = OpCode::Const(v);
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (OpCode::Const(x), OpCode::SliceE(hi, lo)) => {
                code[i] = OpCode::Const(truncate(x >> lo, hi - lo + 1));
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (OpCode::Const(x), OpCode::CastE(w)) => {
                code[i] = OpCode::Const(truncate(x, w));
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (OpCode::Const(x), OpCode::ConstBin(op, w, k)) => {
                code[i] = OpCode::Const(bin_op(op, x, k, w));
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (push, OpCode::Pop) if is_pure_push(push) => {
                code[i] = OpCode::Nop;
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            _ => {}
        }
    }
    if changed {
        compact(cp);
    }
    changed
}

/// Eliminate stores into locals/metadata no opcode ever loads. Locals
/// and user metadata are per-packet scratch zeroed by `Env::reset` and
/// invisible to every observable (verdict, trace, stats, externs), so a
/// store nothing reads is dead by construction. The meter-partitioning
/// pre-pass evaluates IR expressions through the reference `eval`, never
/// bytecode, so it cannot observe the elision either.
fn dead_store(cp: &mut CompiledProgram) -> bool {
    let mut read_locals: HashSet<u32> = HashSet::new();
    let mut read_metas: HashSet<u32> = HashSet::new();
    for op in &cp.code {
        match *op {
            OpCode::LoadLocal(l) => {
                read_locals.insert(l);
            }
            OpCode::LoadMeta(m) => {
                read_metas.insert(m);
            }
            _ => {}
        }
    }
    let mut changed = false;
    for op in &mut cp.code {
        match op {
            OpCode::StoreLocal(l, _) if !read_locals.contains(l) => {
                *op = OpCode::Pop;
                changed = true;
            }
            OpCode::StoreMeta(m, _) if !read_metas.contains(m) => {
                *op = OpCode::Pop;
                changed = true;
            }
            OpCode::Apply { hit_into, .. } | OpCode::FieldApply { hit_into, .. }
                if *hit_into != NO_HIT_LOCAL && !read_locals.contains(hit_into) =>
            {
                *hit_into = NO_HIT_LOCAL;
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// Fuse hot adjacent pairs into superinstructions.
fn fuse(cp: &mut CompiledProgram) -> bool {
    let targets = jump_targets(cp);
    let code = &mut cp.code;
    let n = code.len();
    let mut changed = false;
    for i in 0..n.saturating_sub(1) {
        if targets[i + 1] {
            continue;
        }
        match (code[i], code[i + 1]) {
            (OpCode::Bin(op, w), OpCode::BranchIfZero(t)) => {
                code[i] = OpCode::CmpBranch(op, w, t);
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (OpCode::Const(k), OpCode::Bin(op, w)) => {
                code[i] = OpCode::ConstBin(op, w, k);
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (OpCode::ConstBin(op, w, k), OpCode::BranchIfZero(t)) => {
                code[i] = OpCode::ConstCmpBranch(op, w, k, t);
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            (
                OpCode::LoadField(h, f),
                OpCode::Apply {
                    tid,
                    nkeys: 1,
                    hit_into,
                },
            ) => {
                code[i] = OpCode::FieldApply {
                    h,
                    f,
                    tid,
                    hit_into,
                };
                code[i + 1] = OpCode::Nop;
                changed = true;
            }
            _ => {}
        }
    }
    if changed {
        compact(cp);
    }
    changed
}

/// Chain-resolution hop cap (cycle guard for jump-to-jump loops).
const MAX_THREAD_HOPS: usize = 64;

/// Follow `Jump` chains (and `Nop` fall-throughs, defensively) from `t`
/// to the final destination. Every hop is itself a semantics-preserving
/// transfer, so stopping early at the hop cap is still correct.
fn resolve_target(code: &[OpCode], mut t: u32) -> u32 {
    for _ in 0..MAX_THREAD_HOPS {
        match code[t as usize] {
            OpCode::Nop => t += 1,
            OpCode::Jump(u) if u != t => t = u,
            _ => break,
        }
    }
    t
}

/// Retarget every stored pc through `Jump` chains; drop jumps and
/// branches that land on the next instruction.
fn jump_thread(cp: &mut CompiledProgram) -> bool {
    let mut changed = false;
    let n = cp.code.len();
    for i in 0..n {
        let resolved = match cp.code[i] {
            OpCode::Jump(t)
            | OpCode::BranchIfZero(t)
            | OpCode::Exit(t)
            | OpCode::CmpBranch(_, _, t)
            | OpCode::ConstCmpBranch(_, _, _, t) => resolve_target(&cp.code, t),
            _ => continue,
        };
        match &mut cp.code[i] {
            OpCode::Jump(t) => {
                if resolved as usize == i + 1 {
                    cp.code[i] = OpCode::Nop;
                    changed = true;
                } else if *t != resolved {
                    *t = resolved;
                    changed = true;
                }
            }
            OpCode::BranchIfZero(t) => {
                if resolved as usize == i + 1 {
                    cp.code[i] = OpCode::Pop;
                    changed = true;
                } else if *t != resolved {
                    *t = resolved;
                    changed = true;
                }
            }
            OpCode::Exit(t) | OpCode::CmpBranch(_, _, t) | OpCode::ConstCmpBranch(_, _, _, t) => {
                if *t != resolved {
                    *t = resolved;
                    changed = true;
                }
            }
            _ => unreachable!(),
        }
    }
    let mut select_changed = false;
    for sid in 0..cp.selects.len() {
        let resolved = resolve_target(&cp.code, cp.selects[sid].default);
        if cp.selects[sid].default != resolved {
            cp.selects[sid].default = resolved;
            select_changed = true;
        }
        for a in 0..cp.selects[sid].arms.len() {
            let resolved = resolve_target(&cp.code, cp.selects[sid].arms[a].1);
            if cp.selects[sid].arms[a].1 != resolved {
                cp.selects[sid].arms[a].1 = resolved;
                select_changed = true;
            }
        }
    }
    for a in 0..cp.action_pcs.len() {
        let resolved = resolve_target(&cp.code, cp.action_pcs[a]);
        if cp.action_pcs[a] != resolved {
            cp.action_pcs[a] = resolved;
            select_changed = true;
        }
    }
    if changed {
        compact(cp);
    }
    changed || select_changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceTables;
    use netdebug_p4::ast::BinOp;

    /// A minimal synthetic program around a hand-written code array.
    fn prog(code: Vec<OpCode>) -> CompiledProgram {
        CompiledProgram {
            code,
            action_pcs: Vec::new(),
            selects: Vec::new(),
            headers: Vec::new(),
            deparse: Vec::new(),
            table_defaults: Vec::new(),
            names: TraceTables::default(),
            passes: PassConfig::none(),
        }
    }

    #[test]
    fn const_fold_collapses_to_nothing() {
        // 2 + 3 computed and discarded: the whole expression vanishes.
        let mut cp = prog(vec![
            OpCode::Const(2),
            OpCode::Const(3),
            OpCode::Bin(BinOp::Add, 8),
            OpCode::Pop,
            OpCode::Finish,
        ]);
        optimize(
            &mut cp,
            PassConfig {
                const_fold: true,
                ..PassConfig::none()
            },
        );
        assert_eq!(cp.code, vec![OpCode::Finish]);
    }

    #[test]
    fn const_fold_respects_jump_targets() {
        // pc 2 is a branch target: folding Const;Const;Bin would skip
        // the Bin a jump can land on. Must stay untouched.
        let mut cp = prog(vec![
            OpCode::Const(2),
            OpCode::Const(3),
            OpCode::Bin(BinOp::Add, 8),
            OpCode::StoreMeta(0, 8),
            OpCode::LoadMeta(0),
            OpCode::BranchIfZero(2),
            OpCode::Finish,
        ]);
        let before = cp.code.clone();
        optimize(
            &mut cp,
            PassConfig {
                const_fold: true,
                ..PassConfig::none()
            },
        );
        assert_eq!(cp.code, before);
    }

    #[test]
    fn fusion_builds_const_cmp_branch() {
        let mut cp = prog(vec![
            OpCode::LoadMeta(0),
            OpCode::Const(5),
            OpCode::Bin(BinOp::Eq, 8),
            OpCode::BranchIfZero(5),
            OpCode::MarkDrop,
            OpCode::Finish,
        ]);
        optimize(
            &mut cp,
            PassConfig {
                fuse: true,
                ..PassConfig::none()
            },
        );
        assert_eq!(
            cp.code,
            vec![
                OpCode::LoadMeta(0),
                OpCode::ConstCmpBranch(BinOp::Eq, 8, 5, 3),
                OpCode::MarkDrop,
                OpCode::Finish,
            ]
        );
    }

    #[test]
    fn dead_store_rewrites_unread_slots() {
        // local 0 is stored but never loaded; local 1 is loaded.
        let mut cp = prog(vec![
            OpCode::Const(7),
            OpCode::StoreLocal(0, 8),
            OpCode::Const(9),
            OpCode::StoreLocal(1, 8),
            OpCode::LoadLocal(1),
            OpCode::Pop,
            OpCode::Finish,
        ]);
        optimize(
            &mut cp,
            PassConfig {
                dead_store: true,
                ..PassConfig::none()
            },
        );
        assert_eq!(
            cp.code,
            vec![
                OpCode::Const(7),
                OpCode::Pop,
                OpCode::Const(9),
                OpCode::StoreLocal(1, 8),
                OpCode::LoadLocal(1),
                OpCode::Pop,
                OpCode::Finish,
            ]
        );
    }

    #[test]
    fn dead_store_drops_unread_hit_capture() {
        let mut cp = prog(vec![
            OpCode::Apply {
                tid: 0,
                nkeys: 0,
                hit_into: 3,
            },
            OpCode::Finish,
        ]);
        optimize(
            &mut cp,
            PassConfig {
                dead_store: true,
                ..PassConfig::none()
            },
        );
        assert_eq!(
            cp.code[0],
            OpCode::Apply {
                tid: 0,
                nkeys: 0,
                hit_into: NO_HIT_LOCAL,
            }
        );
    }

    #[test]
    fn jump_threading_flattens_chains() {
        // Branch to a jump to a jump: everything lands directly on the
        // final destination and both intermediate jumps — now jumps to
        // the next instruction — vanish.
        let mut cp = prog(vec![
            OpCode::LoadMeta(0),
            OpCode::BranchIfZero(3),
            OpCode::MarkDrop,
            OpCode::Jump(4),
            OpCode::Jump(5),
            OpCode::Finish,
        ]);
        optimize(
            &mut cp,
            PassConfig {
                jump_thread: true,
                ..PassConfig::none()
            },
        );
        assert_eq!(
            cp.code,
            vec![
                OpCode::LoadMeta(0),
                OpCode::BranchIfZero(3),
                OpCode::MarkDrop,
                OpCode::Finish,
            ]
        );
    }
}
