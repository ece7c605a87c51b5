//! The backend bug library.
//!
//! Each [`BugSpec`] models a class of silent compiler/hardware defect that
//! SDNet-era toolchains exhibited. Bugs are *silent by construction*: the
//! backend emits no diagnostic, the spec-level verifier cannot see them
//! (it analyses the IR the programmer wrote, not the transformed one), and
//! only behavioural testing — NetDebug — can catch them.
//!
//! `RejectStateIgnored` is the bug the paper's evaluation reports verbatim:
//! *"the reject parser state, an essential feature of P4 language, is not
//! implemented by SDNet. This meant that any packet coming into the data
//! plane was sent out to the next hop, even if it was supposed to be
//! dropped."*
//!
//! Most bugs are IR-to-IR transforms applied at compile time; a few are
//! runtime behaviours (counter wrap, latency jitter, priority inversion)
//! that the device model implements when the corresponding flag is set in
//! [`BugRuntime`].

use netdebug_p4::ir::{self, IrExpr, IrStmt, IrTransition, Op, TransTarget};
use serde::{Deserialize, Serialize};

/// One injectable backend defect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BugSpec {
    /// The paper's bug: `reject` compiles as `accept`, so packets that must
    /// be dropped continue through the pipeline and are forwarded.
    RejectStateIgnored,
    /// `mark_to_drop()` compiles to a no-op; "dropped" packets leave anyway.
    DropPrimitiveIgnored,
    /// Select patterns are truncated to `width` bits before matching,
    /// so e.g. EtherType `0x0800` collides with `0x1800`.
    SelectPatternTruncated {
        /// Bits retained.
        width: u16,
    },
    /// Table entries match in *lowest*-priority-first order: shadowed ACL
    /// rules win.
    PriorityInverted,
    /// Table memories are cut to `1/factor` of the declared size; installs
    /// beyond that fail at runtime even though the compile succeeded.
    TableCapacityTruncated {
        /// Denominator applied to every declared table size.
        factor: u64,
    },
    /// Counter values wrap at 2^bits when read over the register bus.
    CounterWidthWrapped {
        /// Readable width.
        bits: u8,
    },
    /// Parser select arms that match `from` are rewritten to match `to`
    /// (models a code-generation bug in the parser compiler).
    SelectValueRewritten {
        /// Original literal.
        from: u64,
        /// Mis-generated literal.
        to: u64,
    },
    /// Only the first `max_stages` table applies are compiled in; later
    /// applies silently disappear.
    StageBudgetSilentTruncation {
        /// Stages actually wired.
        max_stages: usize,
    },
    /// Meters always return green: policing silently disabled.
    MeterAlwaysGreen,
    /// Every packet takes `cycles` extra pipeline latency (a timing bug
    /// invisible to functional tests, caught by performance testing).
    ExtraLatency {
        /// Added cycles.
        cycles: u64,
    },
}

/// Runtime-behaviour flags derived from the active bug set; consumed by the
/// device model.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BugRuntime {
    /// Negate entry priorities at install time.
    pub invert_priorities: bool,
    /// Wrap counter reads at 2^bits.
    pub counter_wrap_bits: Option<u8>,
    /// Extra pipeline cycles per packet.
    pub extra_latency_cycles: u64,
    /// Divide declared table capacities by this factor (min 1 entry).
    pub capacity_factor: u64,
}

impl BugRuntime {
    /// Collect runtime flags from a bug list.
    pub fn from_bugs(bugs: &[BugSpec]) -> Self {
        let mut rt = BugRuntime {
            capacity_factor: 1,
            ..Default::default()
        };
        for bug in bugs {
            match bug {
                BugSpec::PriorityInverted => rt.invert_priorities = true,
                BugSpec::CounterWidthWrapped { bits } => rt.counter_wrap_bits = Some(*bits),
                BugSpec::ExtraLatency { cycles } => rt.extra_latency_cycles += cycles,
                BugSpec::TableCapacityTruncated { factor } => {
                    rt.capacity_factor = rt.capacity_factor.max(*factor)
                }
                _ => {}
            }
        }
        rt
    }
}

/// Apply all IR-transform bugs to a compiled program, in order.
pub fn apply_ir_bugs(program: &mut ir::Program, bugs: &[BugSpec]) {
    for bug in bugs {
        match bug {
            BugSpec::RejectStateIgnored => {
                for state in &mut program.parser.states {
                    match &mut state.transition {
                        IrTransition::Reject => state.transition = IrTransition::Accept,
                        IrTransition::Select { arms, default, .. } => {
                            for arm in arms {
                                if matches!(arm.target, TransTarget::Reject) {
                                    arm.target = TransTarget::Accept;
                                }
                            }
                            if matches!(default, TransTarget::Reject) {
                                *default = TransTarget::Accept;
                            }
                        }
                        _ => {}
                    }
                }
            }
            BugSpec::DropPrimitiveIgnored => {
                for action in &mut program.actions {
                    for op in &mut action.ops {
                        if matches!(op, Op::Drop) {
                            *op = Op::NoOp;
                        }
                    }
                }
                for control in &mut program.controls {
                    strip_drop(&mut control.body);
                }
            }
            BugSpec::SelectPatternTruncated { width } => {
                for state in &mut program.parser.states {
                    if let IrTransition::Select { arms, .. } = &mut state.transition {
                        for arm in arms {
                            for p in &mut arm.patterns {
                                *p = truncate_pattern(*p, *width);
                            }
                        }
                    }
                }
            }
            BugSpec::SelectValueRewritten { from, to } => {
                for state in &mut program.parser.states {
                    if let IrTransition::Select { arms, .. } = &mut state.transition {
                        for arm in arms {
                            for p in &mut arm.patterns {
                                if let ir::IrPattern::Value(v) = p {
                                    if *v == u128::from(*from) {
                                        *p = ir::IrPattern::Value(u128::from(*to));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            BugSpec::StageBudgetSilentTruncation { max_stages } => {
                let mut budget = *max_stages;
                for control in &mut program.controls {
                    truncate_stages(&mut control.body, &mut budget);
                }
            }
            BugSpec::MeterAlwaysGreen => {
                for action in &mut program.actions {
                    for op in &mut action.ops {
                        if let Op::MeterExecute(_, _, lv) = op {
                            *op = Op::Assign(lv.clone(), IrExpr::konst(0, 2));
                        }
                    }
                }
                for control in &mut program.controls {
                    green_meters(&mut control.body);
                }
            }
            _ => {}
        }
    }
}

fn strip_drop(body: &mut [IrStmt]) {
    for stmt in body {
        match stmt {
            IrStmt::Op(op) if matches!(op, Op::Drop) => *op = Op::NoOp,
            IrStmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                strip_drop(then_branch);
                strip_drop(else_branch);
            }
            _ => {}
        }
    }
}

fn green_meters(body: &mut [IrStmt]) {
    for stmt in body {
        match stmt {
            IrStmt::Op(op) => {
                if let Op::MeterExecute(_, _, lv) = op {
                    *op = Op::Assign(lv.clone(), IrExpr::konst(0, 2));
                }
            }
            IrStmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                green_meters(then_branch);
                green_meters(else_branch);
            }
            _ => {}
        }
    }
}

/// Remove table applies once the stage budget is exhausted.
fn truncate_stages(body: &mut Vec<IrStmt>, budget: &mut usize) {
    body.retain_mut(|stmt| match stmt {
        IrStmt::ApplyTable { .. } => {
            if *budget == 0 {
                false
            } else {
                *budget -= 1;
                true
            }
        }
        IrStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            truncate_stages(then_branch, budget);
            truncate_stages(else_branch, budget);
            true
        }
        _ => true,
    });
}

fn truncate_pattern(p: ir::IrPattern, width: u16) -> ir::IrPattern {
    let t = |v: u128| ir::truncate(v, width);
    match p {
        ir::IrPattern::Value(v) => ir::IrPattern::Value(t(v)),
        ir::IrPattern::Mask { value, mask } => ir::IrPattern::Mask {
            value: t(value),
            mask: t(mask),
        },
        ir::IrPattern::Range { lo, hi } => ir::IrPattern::Range {
            lo: t(lo),
            hi: t(hi),
        },
        ir::IrPattern::Any => ir::IrPattern::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_dataplane::{Dataplane, DropReason, Verdict};
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn frame(version_byte: Option<u8>) -> Vec<u8> {
        let mut f = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
        .udp(1, 2)
        .payload(b"x")
        .build();
        if let Some(v) = version_byte {
            f[14] = v;
        }
        f
    }

    /// The paper's experiment in miniature: same program, same packet; the
    /// reference drops (parser reject), the bugged IR forwards.
    #[test]
    fn reject_state_ignored_forwards_malformed_packets() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();

        let mut reference = Dataplane::new(ir.clone());
        reference
            .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
            .unwrap();

        let mut bugged_ir = ir;
        apply_ir_bugs(&mut bugged_ir, &[BugSpec::RejectStateIgnored]);
        let mut bugged = Dataplane::new(bugged_ir);
        bugged
            .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
            .unwrap();

        let malformed = frame(Some(0x55)); // IPv4 version 5
        let (ref_verdict, _) = reference.process(0, &malformed, 0);
        assert_eq!(ref_verdict, Verdict::Drop(DropReason::ParserReject));
        let (bug_verdict, _) = bugged.process(0, &malformed, 0);
        assert!(
            matches!(bug_verdict, Verdict::Forward { .. }),
            "bugged backend forwards the packet that must be dropped: {bug_verdict:?}"
        );

        // Well-formed packets behave identically — the bug is silent.
        let ok = frame(None);
        assert_eq!(reference.process(0, &ok, 0).0, bugged.process(0, &ok, 0).0);
    }

    #[test]
    fn drop_primitive_ignored() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut bugged_ir = ir;
        apply_ir_bugs(&mut bugged_ir, &[BugSpec::DropPrimitiveIgnored]);
        let mut dp = Dataplane::new(bugged_ir);
        // No routes: default action drop — but drop is a no-op, and since
        // egress_spec is never written the packet still dies as NoEgress.
        // The observable deviation needs a prior egress write; TTL==0 path:
        dp.install_lpm("ipv4_lpm", 0, 0, "ipv4_forward", vec![0xAA, 1])
            .unwrap();
        let mut f = frame(None);
        // Set TTL to 0: reference drops before the table.
        f[14 + 8] = 0;
        let (v, _) = dp.process(0, &f, 0);
        // With the bug the ttl==0 branch does nothing, falls to ... the else
        // branch is not taken; packet has no egress -> still dropped, but
        // with NoEgress instead of ActionDrop: the *reason* differs, which
        // stage-level taps can see.
        assert_eq!(v, Verdict::Drop(DropReason::NoEgress));
    }

    #[test]
    fn select_value_rewritten_misparses() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut bugged_ir = ir;
        apply_ir_bugs(
            &mut bugged_ir,
            &[BugSpec::SelectValueRewritten {
                from: 0x0800,
                to: 0x0801,
            }],
        );
        let mut dp = Dataplane::new(bugged_ir);
        dp.install_lpm("ipv4_lpm", 0, 0, "ipv4_forward", vec![0xAA, 1])
            .unwrap();
        // A normal IPv4 packet no longer matches parse_ipv4: ethernet-only
        // parse, ipv4 invalid, pipeline drops it as non-IP.
        let (v, t) = dp.process(0, &frame(None), 0);
        assert_eq!(v, Verdict::Drop(DropReason::ActionDrop));
        assert_eq!(t.states_visited(), vec!["start"]);
    }

    #[test]
    fn meter_always_green_disables_policing() {
        let ir = netdebug_p4::compile(corpus::RATE_LIMITER).unwrap();
        let mut bugged_ir = ir;
        apply_ir_bugs(&mut bugged_ir, &[BugSpec::MeterAlwaysGreen]);
        let mut dp = Dataplane::new(bugged_ir);
        dp.install_exact("fwd", vec![0], "forward", vec![1])
            .unwrap();
        dp.configure_meter(
            "port_meter",
            0,
            netdebug_dataplane::MeterConfig {
                cir_per_mcycle: 1,
                cbs: 1,
                pir_per_mcycle: 1,
                pbs: 1,
            },
        )
        .unwrap();
        let f = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(b"x")
        .build();
        for _ in 0..20 {
            assert!(dp.process_untraced(0, &f, 1).is_forwarded());
        }
    }

    #[test]
    fn stage_budget_truncation_drops_later_tables() {
        let ir = netdebug_p4::compile(corpus::FEATURE_MANY_TABLES).unwrap();
        let mut bugged_ir = ir;
        apply_ir_bugs(
            &mut bugged_ir,
            &[BugSpec::StageBudgetSilentTruncation { max_stages: 4 }],
        );
        let mut dp = Dataplane::new(bugged_ir);
        let (v, t) = dp.process(0, &[7u8, 0, 0, 0], 0);
        assert_eq!(t.tables_applied().len(), 4, "only 4 of 12 stages wired");
        // acc reaches 4 instead of 12, and the egress port exposes it.
        assert!(matches!(v, Verdict::Forward { port: 4, .. }));
    }

    #[test]
    fn select_pattern_truncation_collides() {
        // Truncated to 8 bits, 0x0800 becomes 0x00 — so key 0x1800 (also
        // 0x00 after truncation) suddenly matches while the original
        // pattern correctly excluded it.
        let p = ir::IrPattern::Value(0x0800);
        let truncated = truncate_pattern(p, 8);
        assert!(!p.matches(0x1800) && truncated.matches(ir::truncate(0x1800, 8)));
        // And keys that truly match keep matching (no false negatives here).
        assert!(p.matches(0x0800) && truncated.matches(ir::truncate(0x0800, 8)));
    }

    #[test]
    fn bug_runtime_flags_collect() {
        let rt = BugRuntime::from_bugs(&[
            BugSpec::PriorityInverted,
            BugSpec::CounterWidthWrapped { bits: 16 },
            BugSpec::ExtraLatency { cycles: 40 },
            BugSpec::TableCapacityTruncated { factor: 4 },
        ]);
        assert!(rt.invert_priorities);
        assert_eq!(rt.counter_wrap_bits, Some(16));
        assert_eq!(rt.extra_latency_cycles, 40);
        assert_eq!(rt.capacity_factor, 4);
    }
}
