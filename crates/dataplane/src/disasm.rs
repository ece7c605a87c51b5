//! A human-readable disassembler for the flat bytecode.
//!
//! [`Disassembly`] wraps a [`CompiledProgram`] and renders one line per
//! instruction through [`core::fmt::Display`]: a four-digit instruction
//! index, a mnemonic, operands with every interned name resolved (tables,
//! actions, headers, parser states, controls) and `-> NNNN` arrows on
//! jump targets. Action bodies are labelled at their entry points. This
//! is the introspection surface for the lowering's instruction selection
//! — a fused table apply on a header-field key reads:
//!
//! ```text
//! 0011  field_apply      ethernet[0] dmac -> a0 smac_learn
//! ```
//!
//! Each `extract` lists the fields it loads (every other field stays 0 in
//! the packet environment), and `finish` the fields deparse stores over
//! copied headers: `extract ipv4 [version ttl dstAddr]`, `finish writes
//! ethernet [dstAddr srcAddr] ipv4 [ttl]`.

use crate::compile::{CompiledProgram, OpCode, NO_HIT_LOCAL};
use core::fmt;

/// Lazily rendered disassembly of a [`CompiledProgram`]; obtain via
/// `CompiledProgram::disassemble()` or `Dataplane::disassemble()` and
/// print with `{}`.
pub struct Disassembly<'a> {
    cp: &'a CompiledProgram,
}

impl<'a> Disassembly<'a> {
    pub(crate) fn new(cp: &'a CompiledProgram) -> Disassembly<'a> {
        Disassembly { cp }
    }
}

impl fmt::Display for Disassembly<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cp = self.cp;
        let names = cp.names();
        let hdr = |h: u32| names.headers[h as usize].as_ref();
        // `ipv4 [version ttl]`: a header's live or its written fields.
        let fields = |h: usize, written: bool| {
            let plan = &cp.headers[h];
            let which = if written { &plan.written } else { &plan.live };
            let names: Vec<&str> = which.iter().map(|&x| &*plan.names[x]).collect();
            format!("{} [{}]", hdr(h as u32), names.join(" "))
        };
        for (pc, op) in cp.code.iter().enumerate() {
            for (aid, &entry) in cp.action_pcs.iter().enumerate() {
                if entry as usize == pc {
                    writeln!(f, "{}:", names.actions[aid])?;
                }
            }
            write!(f, "{pc:04}  ")?;
            match *op {
                OpCode::Const(v) => writeln!(f, "{:<17}{v:#x}", "const")?,
                OpCode::LoadField(h, x) => writeln!(f, "{:<17}{}[{x}]", "load_field", hdr(h))?,
                OpCode::LoadFieldRaw(h, x) => {
                    writeln!(f, "{:<17}{}[{x}]", "load_field_raw", hdr(h))?
                }
                OpCode::LoadMeta(m) => writeln!(f, "{:<17}m{m}", "load_meta")?,
                OpCode::LoadStd(s) => writeln!(f, "{:<17}{s:?}", "load_std")?,
                OpCode::LoadParam(i, w) => writeln!(f, "{:<17}p{i} w{w}", "load_param")?,
                OpCode::LoadLocal(l) => writeln!(f, "{:<17}l{l}", "load_local")?,
                OpCode::LoadIsValid(h) => writeln!(f, "{:<17}{}", "load_is_valid", hdr(h))?,
                OpCode::Un(op, w) => writeln!(f, "{:<17}{op:?} w{w}", "un")?,
                OpCode::Bin(op, w) => writeln!(f, "{:<17}{op:?} w{w}", "bin")?,
                OpCode::Concat(s, w) => writeln!(f, "{:<17}shift={s} w{w}", "concat")?,
                OpCode::SliceE(hi, lo) => writeln!(f, "{:<17}[{hi}:{lo}]", "slice")?,
                OpCode::CastE(w) => writeln!(f, "{:<17}w{w}", "cast")?,
                OpCode::SliceMerge(hi, lo) => writeln!(f, "{:<17}[{hi}:{lo}]", "slice_merge")?,
                OpCode::StoreField(h, x, w) => {
                    writeln!(f, "{:<17}{}[{x}] w{w}", "store_field", hdr(h))?
                }
                OpCode::StoreMeta(m, w) => writeln!(f, "{:<17}m{m} w{w}", "store_meta")?,
                OpCode::StoreLocal(l, w) => writeln!(f, "{:<17}l{l} w{w}", "store_local")?,
                OpCode::StoreEgressSpec => writeln!(f, "store_egress_spec")?,
                OpCode::StorePacketLength => writeln!(f, "store_packet_length")?,
                OpCode::StoreTimestamp => writeln!(f, "store_timestamp")?,
                OpCode::Pop => writeln!(f, "pop")?,
                OpCode::Jump(t) => writeln!(f, "{:<17}-> {t:04}", "jump")?,
                OpCode::BranchIfZero(t) => writeln!(f, "{:<17}-> {t:04}", "branch_if_zero")?,
                OpCode::Return => writeln!(f, "return")?,
                OpCode::Exit(t) => writeln!(f, "{:<17}-> {t:04}", "exit")?,
                OpCode::Apply {
                    tid,
                    nkeys,
                    hit_into,
                } => {
                    write!(
                        f,
                        "{:<17}{} nkeys={nkeys}",
                        "apply", names.tables[tid as usize]
                    )?;
                    if hit_into != NO_HIT_LOCAL {
                        write!(f, " hit->l{hit_into}")?;
                    }
                    writeln!(f)?
                }
                OpCode::FieldApply {
                    h,
                    f: x,
                    tid,
                    hit_into,
                } => {
                    write!(
                        f,
                        "{:<17}{}[{x}] {}",
                        "field_apply",
                        hdr(h),
                        names.tables[tid as usize]
                    )?;
                    if hit_into != NO_HIT_LOCAL {
                        write!(f, " hit->l{hit_into}")?;
                    }
                    writeln!(f)?
                }
                OpCode::MarkDrop => writeln!(f, "mark_drop")?,
                OpCode::SetValidHdr(h, v) => writeln!(f, "{:<17}{} {v}", "set_valid", hdr(h))?,
                OpCode::CounterInc(id) => writeln!(f, "{:<17}c{id}", "counter_inc")?,
                OpCode::RegisterRead(id) => writeln!(f, "{:<17}r{id}", "register_read")?,
                OpCode::RegisterWrite(id) => writeln!(f, "{:<17}r{id}", "register_write")?,
                OpCode::MeterExecute(id) => writeln!(f, "{:<17}mt{id}", "meter_execute")?,
                OpCode::StateEnter(sid) => {
                    writeln!(f, "{:<17}{}", "state_enter", names.states[sid as usize])?
                }
                OpCode::Extract(h) => {
                    writeln!(f, "{:<17}{}", "extract", fields(h as usize, false))?
                }
                OpCode::Select(sid) => {
                    let sel = &cp.selects[sid as usize];
                    write!(f, "{:<17}nkeys={}", "select", sel.nkeys)?;
                    for (pats, t) in &sel.arms {
                        write!(f, " {pats:?} -> {t:04}")?;
                    }
                    writeln!(f, " default -> {:04}", sel.default)?
                }
                OpCode::Accept => writeln!(f, "accept")?,
                OpCode::Reject => writeln!(f, "reject")?,
                OpCode::ControlEnter(cid) => {
                    writeln!(f, "{:<17}{}", "control_enter", names.controls[cid as usize])?
                }
                OpCode::Finish => {
                    let writes =
                        (0..cp.headers.len()).filter(|&h| !cp.headers[h].written.is_empty());
                    let writes: Vec<String> = writes.map(|h| fields(h, true)).collect();
                    if writes.is_empty() {
                        writeln!(f, "finish")?
                    } else {
                        writeln!(f, "{:<17}writes {}", "finish", writes.join(" "))?
                    }
                }
                OpCode::ConstBin(op, w, k) => {
                    writeln!(f, "{:<17}{op:?} w{w} k={k:#x}", "const_bin")?
                }
                OpCode::CmpBranch(op, w, t) => {
                    writeln!(f, "{:<17}{op:?} w{w} -> {t:04}", "cmp_branch")?
                }
                OpCode::ConstCmpBranch(op, w, k, t) => writeln!(
                    f,
                    "{:<17}{op:?} w{w} k={k:#x} -> {t:04}",
                    "const_cmp_branch"
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::CompiledProgram;
    use netdebug_p4::corpus;

    fn assert_listing(source: &str, expected: &str) {
        let ir = netdebug_p4::compile(source).unwrap();
        let text = CompiledProgram::compile(&ir).disassemble().to_string();
        assert_eq!(text, expected, "actual:\n{text}");
    }

    /// Pins the exact disassembly of the reflector — the smallest corpus
    /// program — so any change to lowering or rendering is a conscious
    /// one.
    #[test]
    fn reflector_disassembly_is_pinned() {
        let expected = "\
0000  state_enter      start
0001  extract          ethernet [dstAddr srcAddr]
0002  jump             -> 0004
0003  reject
0004  accept
0005  control_enter    RefIngress
0006  load_field       ethernet[0]
0007  store_meta       m0 w48
0008  load_field       ethernet[1]
0009  store_field      ethernet[0] w48
0010  load_meta        m0
0011  store_field      ethernet[1] w48
0012  load_std         IngressPort
0013  store_egress_spec
0014  finish           writes ethernet [dstAddr srcAddr]
NoAction:
0015  return
";
        assert_listing(corpus::REFLECTOR, expected);
    }

    /// The two benchmark-path programs, pinned whole: which
    /// superinstruction sits at which pc is part of what the benchmark
    /// measures, so a lowering change shows here first.
    #[test]
    fn l2_switch_disassembly_is_pinned() {
        let expected = "\
0000  state_enter      start
0001  extract          ethernet [dstAddr]
0002  jump             -> 0004
0003  reject
0004  accept
0005  control_enter    L2Ingress
0006  load_std         IngressPort
0007  counter_inc      c0
0008  field_apply      ethernet[0] dmac
0009  finish
NoAction:
0010  return
forward:
0011  load_param       p0 w9
0012  store_egress_spec
0013  return
flood:
0014  const            0x1ff
0015  store_egress_spec
0016  return
";
        assert_listing(corpus::L2_SWITCH, expected);
    }

    #[test]
    fn ipv4_forward_disassembly_is_pinned() {
        let expected = "\
0000  state_enter      start
0001  extract          ethernet [dstAddr srcAddr etherType]
0002  load_field       ethernet[2]
0003  select           nkeys=1 [Value(2048)] -> 0004 [Any] -> 0009 default -> 0008
0004  state_enter      parse_ipv4
0005  extract          ipv4 [version ttl dstAddr]
0006  load_field       ipv4[0]
0007  select           nkeys=1 [Value(4)] -> 0009 [Any] -> 0008 default -> 0008
0008  reject
0009  accept
0010  control_enter    IPv4Ingress
0011  load_is_valid    ipv4
0012  branch_if_zero   -> 0019
0013  load_field       ipv4[7]
0014  const_cmp_branch Eq w1 k=0x0 -> 0017
0015  mark_drop
0016  jump             -> 0018
0017  field_apply      ipv4[11] ipv4_lpm
0018  jump             -> 0020
0019  mark_drop
0020  finish           writes ethernet [dstAddr srcAddr] ipv4 [ttl]
NoAction:
0021  return
drop:
0022  mark_drop
0023  return
ipv4_forward:
0024  load_param       p1 w9
0025  store_egress_spec
0026  load_field       ethernet[0]
0027  store_field      ethernet[1] w48
0028  load_param       p0 w48
0029  store_field      ethernet[0] w48
0030  load_field       ipv4[7]
0031  const_bin        Sub w8 k=0x1
0032  store_field      ipv4[7] w8
0033  return
";
        assert_listing(corpus::IPV4_FORWARD, expected);
    }
}
