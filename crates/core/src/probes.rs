//! Probe packet generation from the parse graph.
//!
//! NetDebug users "generate custom test packets" steered at specific parser
//! paths. This module automates that: it walks a program's parse graph and
//! emits one byte template per reachable parser path, writing each select
//! arm's constant into the bytes of the field the selector reads. The
//! result is a small packet corpus that exercises every accept *and reject*
//! edge of the parser — the inputs that exposed the SDNet bug.

use netdebug_p4::ir::{self, IrExpr, IrPattern, IrTransition, ParserOp, TransTarget};

/// Maximum probe templates generated per program.
const MAX_PROBES: usize = 64;

/// Extra payload bytes appended after the parsed headers.
const PAYLOAD_PAD: usize = 16;

/// One generated probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Packet bytes.
    pub data: Vec<u8>,
    /// Human-readable path description (state names and chosen arms).
    pub path: String,
    /// True if this probe is built to reach a `reject`.
    pub hits_reject: bool,
}

/// Generate probe packets covering the parser paths of `program`.
pub fn parser_path_probes(program: &ir::Program) -> Vec<Probe> {
    let mut probes = Vec::new();
    walk(
        program,
        0,
        Vec::new(),
        Vec::new(),
        String::new(),
        &mut probes,
        0,
    );
    probes
}

/// Byte layout bookkeeping: which packet bit range holds each header.
#[derive(Debug, Clone)]
struct Placed {
    header: usize,
    at_bit: usize,
}

fn walk(
    program: &ir::Program,
    state_id: usize,
    mut bytes: Vec<u8>,
    mut placed: Vec<Placed>,
    mut path: String,
    probes: &mut Vec<Probe>,
    depth: usize,
) {
    if probes.len() >= MAX_PROBES || depth > 16 {
        return;
    }
    let state = &program.parser.states[state_id];
    if !path.is_empty() {
        path.push_str(" -> ");
    }
    path.push_str(&state.name);

    for op in &state.ops {
        if let ParserOp::Extract(h) = op {
            let at_bit = bytes.len() * 8;
            // Fill unconstrained header bytes with a distinctive non-zero
            // pattern so that field rewrites (MAC swaps, TTL decrements)
            // are visible in the output, and accidental zeros (TTL 0!)
            // don't steer pipeline conditionals. Select-key bytes are
            // overwritten below when an arm is steered.
            let w = program.headers[*h].byte_width();
            let base = bytes.len();
            for i in 0..w {
                bytes.push(0x20 | (((base + i) as u8) & 0x0F));
            }
            placed.push(Placed { header: *h, at_bit });
        }
    }

    match &state.transition {
        IrTransition::Accept => finish(bytes, path, false, probes),
        IrTransition::Reject => finish(bytes, path, true, probes),
        IrTransition::Goto(next) => walk(program, *next, bytes, placed, path, probes, depth + 1),
        IrTransition::Select {
            keys,
            arms,
            default,
        } => {
            for (i, arm) in arms.iter().enumerate() {
                let mut b = bytes.clone();
                let mut ok = true;
                let mut chosen: Vec<u128> = Vec::with_capacity(keys.len());
                for (key, pattern) in keys.iter().zip(&arm.patterns) {
                    match pattern {
                        IrPattern::Any => {
                            // Leave the bytes as they are; record the value
                            // actually present for shadowing checks.
                            chosen.push(read_key(program, &placed, key, &b).unwrap_or(0));
                        }
                        _ => {
                            if !write_pattern(program, &placed, key, pattern, &mut b) {
                                ok = false;
                                break;
                            }
                            chosen.push(match pattern {
                                IrPattern::Value(v) => *v,
                                IrPattern::Mask { value, mask } => value & mask,
                                IrPattern::Range { lo, .. } => *lo,
                                IrPattern::Any => unreachable!(),
                            });
                        }
                    }
                }
                if !ok {
                    continue;
                }
                // Skip if an earlier arm shadows the value we steered at.
                if arms[..i].iter().any(|earlier| {
                    earlier
                        .patterns
                        .iter()
                        .zip(&chosen)
                        .all(|(p, v)| p.matches(*v))
                }) {
                    continue;
                }
                let arm_desc = format!("{}[{}]", path, describe_target(program, &arm.target));
                match arm.target {
                    TransTarget::Accept => finish(b, arm_desc, false, probes),
                    TransTarget::Reject => finish(b, arm_desc, true, probes),
                    TransTarget::State(next) => walk(
                        program,
                        next,
                        b,
                        placed.clone(),
                        arm_desc,
                        probes,
                        depth + 1,
                    ),
                }
                if probes.len() >= MAX_PROBES {
                    return;
                }
            }
            // Default edge (P4: no matching arm). Only reachable when some
            // key value misses every arm — skip entirely when an arm is a
            // catch-all or the key cannot be steered.
            let mut b = bytes;
            let steerable = if arms.is_empty() {
                true
            } else if let Some(first_key) = keys.first() {
                let taken: Vec<&IrPattern> = arms.iter().map(|a| &a.patterns[0]).collect();
                match unmatched_value(first_key, &taken, program) {
                    Some(v) => write_value(program, &placed, first_key, v, &mut b),
                    None => false,
                }
            } else {
                false
            };
            if steerable {
                let desc = format!("{}[{}]", path, describe_target(program, default));
                match default {
                    TransTarget::Accept => finish(b, desc, false, probes),
                    TransTarget::Reject => finish(b, desc, true, probes),
                    TransTarget::State(next) => {
                        walk(program, *next, b, placed, desc, probes, depth + 1)
                    }
                }
            }
        }
    }
}

fn finish(mut bytes: Vec<u8>, path: String, hits_reject: bool, probes: &mut Vec<Probe>) {
    bytes.extend(std::iter::repeat_n(0xA5, PAYLOAD_PAD));
    probes.push(Probe {
        data: bytes,
        path,
        hits_reject,
    });
}

fn describe_target(program: &ir::Program, t: &TransTarget) -> String {
    match t {
        TransTarget::Accept => "accept".to_string(),
        TransTarget::Reject => "reject".to_string(),
        TransTarget::State(s) => program.parser.states[*s].name.clone(),
    }
}

/// Write a concrete value satisfying `pattern` into the packet bytes that
/// back `key`. Returns false if the key is not a plain field reference.
fn write_pattern(
    program: &ir::Program,
    placed: &[Placed],
    key: &IrExpr,
    pattern: &IrPattern,
    bytes: &mut [u8],
) -> bool {
    let value = match pattern {
        IrPattern::Value(v) => *v,
        IrPattern::Mask { value, mask } => value & mask,
        IrPattern::Range { lo, .. } => *lo,
        IrPattern::Any => return true,
    };
    write_value(program, placed, key, value, bytes)
}

fn write_value(
    program: &ir::Program,
    placed: &[Placed],
    key: &IrExpr,
    value: u128,
    bytes: &mut [u8],
) -> bool {
    let IrExpr::Field(h, f) = key else {
        return false;
    };
    let Some(p) = placed.iter().rev().find(|p| p.header == *h) else {
        return false;
    };
    let field = &program.headers[*h].fields[*f];
    let bit = p.at_bit + field.offset_bits as usize;
    netdebug_dataplane::bits::write_bits(bytes, bit, field.width_bits as usize, value);
    true
}

/// Read the current value of a field-backed key from the packet bytes.
fn read_key(program: &ir::Program, placed: &[Placed], key: &IrExpr, bytes: &[u8]) -> Option<u128> {
    let IrExpr::Field(h, f) = key else {
        return None;
    };
    let p = placed.iter().rev().find(|p| p.header == *h)?;
    let field = &program.headers[*h].fields[*f];
    let bit = p.at_bit + field.offset_bits as usize;
    Some(netdebug_dataplane::bits::read_bits(
        bytes,
        bit,
        field.width_bits as usize,
    ))
}

/// A value of the key's width matching none of the given patterns (used to
/// steer the select's default edge).
fn unmatched_value(key: &IrExpr, patterns: &[&IrPattern], program: &ir::Program) -> Option<u128> {
    let width = key.width(program);
    let max = ir::all_ones(width);
    // A pattern that matches both 0 and `max` matches every value of the
    // width (`Any`, a mask with no bit inside it, a range over [0, max]):
    // that arm is a catch-all, and no value reaches the default edge.
    if patterns.iter().any(|p| p.matches(0) && p.matches(max)) {
        return None;
    }
    // Try a few candidates; packet fields are wide enough that one of these
    // almost always misses every arm.
    for candidate in [max, max - 1, 0x5A, 1, 0].iter().copied() {
        let v = candidate & max;
        if patterns.iter().all(|p| !p.matches(v)) {
            return Some(v);
        }
    }
    (0..=max.min(1 << 16)).find(|v| patterns.iter().all(|p| !p.matches(*v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_dataplane::{Dataplane, DropReason, Verdict};
    use netdebug_p4::corpus;
    use proptest::prelude::*;

    /// `unmatched_value` without its catch-all check: the five candidates,
    /// then a scan of the first 65 537 values.
    fn unmatched_value_by_scan(width: u16, patterns: &[&IrPattern]) -> Option<u128> {
        let max = ir::all_ones(width);
        let candidates = [max, max - 1, 0x5A, 1, 0].into_iter().map(|v| v & max);
        (candidates.chain(0..=max.min(1 << 16))).find(|v| patterns.iter().all(|p| !p.matches(*v)))
    }

    proptest! {
        /// The catch-all check only ever answers what the scan answers:
        /// random sets of values, masks (some with no bit inside the
        /// width), ranges (some covering it) and `Any`, on widths 1..=12.
        #[test]
        fn unmatched_value_equals_the_scan(
            width in 1u16..=12,
            raw in proptest::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 0..6),
        ) {
            let program = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
            let max = ir::all_ones(width);
            let patterns: Vec<IrPattern> = raw
                .iter()
                .map(|&(sel, a, b)| {
                    let (a, b) = (u128::from(a), u128::from(b));
                    match sel {
                        0 => IrPattern::Value(a & max),
                        1 => IrPattern::Mask { value: a, mask: b },
                        2 => IrPattern::Mask { value: a & 1, mask: b << width },
                        3 => IrPattern::Range { lo: a % 4, hi: (max + a % 2).saturating_sub(b % 4) },
                        _ => IrPattern::Any,
                    }
                })
                .collect();
            let patterns: Vec<&IrPattern> = patterns.iter().collect();
            prop_assert_eq!(
                unmatched_value(&IrExpr::konst(0, width), &patterns, &program),
                unmatched_value_by_scan(width, &patterns)
            );
        }
    }

    #[test]
    fn probes_cover_reject_and_accept_paths() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let probes = parser_path_probes(&ir);
        assert!(probes.iter().any(|p| p.hits_reject), "reject probe present");
        assert!(probes.iter().any(|p| !p.hits_reject));
        // At least: eth-only accept, ipv4 accept, ipv4 reject.
        assert!(probes.len() >= 3, "{}", probes.len());
    }

    #[test]
    fn probes_actually_take_their_paths() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let probes = parser_path_probes(&ir);
        let mut dp = Dataplane::new(ir);
        for probe in &probes {
            let (verdict, trace) = dp.process(0, &probe.data, 0);
            if probe.hits_reject {
                assert_eq!(
                    verdict,
                    Verdict::Drop(DropReason::ParserReject),
                    "probe {} must reject",
                    probe.path
                );
            } else {
                assert!(
                    !trace.parser_rejected(),
                    "probe {} must not reject: {:?}",
                    probe.path,
                    trace
                );
            }
        }
    }

    #[test]
    fn vlan_router_probes_reach_deep_states() {
        let ir = netdebug_p4::compile(corpus::VLAN_ROUTER).unwrap();
        let probes = parser_path_probes(&ir);
        // Paths: eth-only, vlan-only, vlan+ipv4 (accept+reject), ipv4
        // (accept+reject) …
        assert!(probes.len() >= 5, "{}", probes.len());
        assert!(probes
            .iter()
            .any(|p| p.path.contains("parse_vlan") && p.path.contains("parse_ipv4")));
    }

    #[test]
    fn deep_parser_probe_chain() {
        let ir = netdebug_p4::compile(corpus::FEATURE_DEEP_PARSER).unwrap();
        let probes = parser_path_probes(&ir);
        let longest = probes
            .iter()
            .map(|p| p.path.matches("->").count())
            .max()
            .unwrap();
        assert!(longest >= 7, "deepest chain explored: {longest}");
    }
}
