//! Property-based tests for the reference interpreter.

use netdebug_dataplane::{
    lpm_pattern, ControlError, Dataplane, Engine, EntrySnapshot, LazyTrace, MeterConfig,
    RuntimeEntry, Stage, TableError, TableState, Trace, TraceEvent, TraceSink, Verdict,
};
use netdebug_dataplane::{TableEntry, Update};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::corpus;
use netdebug_p4::ir::{ActionCall, ActionIr, IrExpr, IrPattern, TableIr, TableKey};
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use proptest::prelude::*;

/// A routable IPv4/UDP frame for the `ipv4_forward` program.
fn routed_frame(dst: Ipv4Address, ttl: u8) -> Vec<u8> {
    PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
    .ttl(ttl)
    .udp(1000, 2000)
    .payload(b"payload")
    .build()
}

/// A deployed router with two LPM routes, used by the batch equivalence
/// properties (stateful: tables, counters and hit statistics all thread
/// through packet processing).
fn router() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let dp = Dataplane::new(ir);
    dp.control_plane()
        .write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        )])
        .unwrap();
    dp.control_plane()
        .write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]),
        )])
        .unwrap();
    dp
}

proptest! {
    /// `process_batch` is byte-identical to N sequential `process` calls:
    /// same verdicts (including rewritten output frames), same traces, and
    /// the same runtime state (counters, table hit/miss statistics)
    /// afterwards — for arbitrary interleavings of routable, unroutable,
    /// malformed and garbage frames across ports and timestamps.
    #[test]
    fn batch_matches_sequential(
        frames in proptest::collection::vec(
            (0u16..4, 0u8..4, proptest::collection::vec(any::<u8>(), 0..96)), 1..24),
        now in any::<u32>(),
    ) {
        // Decode each case into a frame: kind 0 = routable 10/8, kind 1 =
        // routable 10.1/16, kind 2 = malformed version, kind 3 = raw soup.
        let built: Vec<(u16, Vec<u8>)> = frames
            .iter()
            .map(|(port, kind, soup)| {
                let frame = match kind {
                    0 => {
                        let dst = Ipv4Address::new(10, 0, 0, soup.first().copied().unwrap_or(9));
                        routed_frame(dst, 64)
                    }
                    1 => routed_frame(Ipv4Address::new(10, 1, 2, 3), 64),
                    2 => {
                        let mut f = routed_frame(Ipv4Address::new(10, 0, 0, 5), 64);
                        f[14] = 0x55; // version 5: parser must reject
                        f
                    }
                    _ => soup.clone(),
                };
                (*port, frame)
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        let now = u64::from(now);

        let mut batch_dp = router();
        let mut seq_dp = router();
        let batch = batch_dp.process_batch(&pkts, now);
        for (i, &(port, data)) in pkts.iter().enumerate() {
            let (verdict, trace) = seq_dp.process(port, data, now);
            prop_assert_eq!(&batch[i].0, &verdict, "verdict diverged at packet {}", i);
            prop_assert_eq!(batch[i].1.as_ref(), Some(&trace), "trace diverged at packet {}", i);
        }
        prop_assert_eq!(batch_dp.packets_processed(), seq_dp.packets_processed());
        prop_assert_eq!(
            batch_dp.table_stats("ipv4_lpm").unwrap(),
            seq_dp.table_stats("ipv4_lpm").unwrap()
        );
    }

    /// With tracing opted out, the batch fast path returns `None` traces
    /// but still produces exactly the sequential verdicts.
    #[test]
    fn untraced_batch_matches_sequential_verdicts(
        dsts in proptest::collection::vec(any::<u32>(), 1..32),
        port in 0u16..4,
    ) {
        let mut batch_dp = router();
        batch_dp.set_tracing(false);
        let mut seq_dp = router();
        let built: Vec<Vec<u8>> = dsts
            .iter()
            .map(|d| routed_frame(Ipv4Address::from_u32(*d), 64))
            .collect();
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|f| (port, f.as_slice())).collect();
        let batch = batch_dp.process_batch(&pkts, 0);
        for (i, &(port, data)) in pkts.iter().enumerate() {
            prop_assert!(batch[i].1.is_none(), "fast path must not trace");
            prop_assert_eq!(&batch[i].0, &seq_dp.process_untraced(port, data, 0));
        }
    }

    /// Rule churn between windows is epoch-atomic: installing through the
    /// data plane's own API produces bit-identical results to publishing
    /// the same epoch through the detached `ControlPlane` handle.
    #[test]
    fn install_between_windows_matches_epoch_publication(
        frames in proptest::collection::vec(
            (0u16..4, 0u8..4, proptest::collection::vec(any::<u8>(), 0..64)), 2..32),
        split in 1usize..31,
        now in any::<u32>(),
    ) {
        let built: Vec<(u16, Vec<u8>)> = frames
            .iter()
            .map(|(port, kind, soup)| {
                let frame = match kind {
                    0 => {
                        let dst = Ipv4Address::new(10, 0, 0, soup.first().copied().unwrap_or(9));
                        routed_frame(dst, 64)
                    }
                    1 => routed_frame(Ipv4Address::new(10, 1, 2, 3), 64),
                    2 => {
                        let mut f = routed_frame(Ipv4Address::new(10, 0, 0, 5), 64);
                        f[14] = 0x55;
                        f
                    }
                    _ => soup.clone(),
                };
                (*port, frame)
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        let split = split.min(pkts.len() - 1).max(1);
        let (w1, w2) = pkts.split_at(split);
        let now = u64::from(now);

        // Both sides start with only the /8 route; the /16 route lands
        // between the windows.
        let deploy = || {
            let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
            let dp = Dataplane::new(ir);
            dp.control_plane().write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]))])
                .unwrap();
            dp
        };
        let mut seq_dp = deploy();
        let seq1 = seq_dp.process_batch(w1, now);
        seq_dp.control_plane().write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]))])
            .unwrap();
        let seq2 = seq_dp.process_batch(w2, now);

        let mut cp_dp = deploy();
        let cp = cp_dp.control_plane();
        prop_assert_eq!(cp.epoch("ipv4_lpm").unwrap(), 1, "deploy-time install = epoch 1");
        let cp1 = cp_dp.process_batch(w1, now);
        let route = TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]);
        cp.write(&[Update::Insert("ipv4_lpm", route)]).unwrap();
        prop_assert_eq!(cp.epoch("ipv4_lpm").unwrap(), 2, "handle publication bumps the epoch");
        let cp2 = cp_dp.process_batch(w2, now);

        prop_assert_eq!(&cp1, &seq1, "pre-install window diverged");
        prop_assert_eq!(&cp2, &seq2, "post-install window diverged");
        prop_assert_eq!(
            cp_dp.table_stats("ipv4_lpm").unwrap(),
            seq_dp.table_stats("ipv4_lpm").unwrap()
        );
    }

    /// No corpus program panics on arbitrary input bytes, whatever port or
    /// timestamp they arrive with.
    #[test]
    fn interpreter_never_panics(
        prog_idx in 0usize..corpus::corpus().len(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        port in 0u16..4,
        now in any::<u64>(),
    ) {
        let programs = corpus::corpus();
        let prog = &programs[prog_idx % programs.len()];
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let mut dp = Dataplane::new(ir);
        let _ = dp.process(port, &data, now);
    }

    /// The reflector is byte-preserving apart from the swapped MACs: for any
    /// payload, output length equals input length and payload bytes survive.
    #[test]
    fn reflector_preserves_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        port in 0u16..4,
    ) {
        let ir = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let mut dp = Dataplane::new(ir);
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(&payload)
        .build();
        match dp.process_untraced(port, &frame, 0) {
            Verdict::Forward { port: out_port, data } => {
                prop_assert_eq!(out_port, port);
                prop_assert_eq!(data.len(), frame.len());
                prop_assert_eq!(&data[14..], &payload[..]);
                // MACs swapped.
                prop_assert_eq!(&data[0..6], &frame[6..12]);
                prop_assert_eq!(&data[6..12], &frame[0..6]);
                // Ethertype preserved.
                prop_assert_eq!(&data[12..14], &frame[12..14]);
            }
            other => prop_assert!(false, "expected forward, got {:?}", other),
        }
    }

    /// LPM table lookup agrees with a naive "scan all prefixes, pick the
    /// longest match" oracle for arbitrary prefix sets and keys.
    #[test]
    fn lpm_matches_naive_oracle(
        prefixes in proptest::collection::vec((any::<u32>(), 0u16..=32), 1..12),
        keys in proptest::collection::vec(any::<u32>(), 1..16),
    ) {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dp = Dataplane::new(ir);
        for (i, (prefix, len)) in prefixes.iter().enumerate() {
            // Port arg encodes the entry index so we can identify the winner.
            dp.control_plane().write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(u128::from(*prefix), *len, "ipv4_forward", vec![0, (i as u128) % 512]))])
            .unwrap();
        }
        for key in keys {
            // Naive oracle: longest prefix whose masked bits match. Earlier
            // install wins ties (same behaviour as the sorted entry list,
            // which is stable).
            let mut best: Option<(u16, usize)> = None;
            for (i, (prefix, len)) in prefixes.iter().enumerate() {
                let mask = if *len == 0 { 0u32 } else { u32::MAX << (32 - len) };
                if key & mask == prefix & mask {
                    let better = match best {
                        None => true,
                        Some((blen, _)) => *len > blen,
                    };
                    if better {
                        best = Some((*len, i));
                    }
                }
            }
            let frame = PacketBuilder::ethernet(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .ipv4(Ipv4Address::new(1, 1, 1, 1), Ipv4Address::from_u32(key))
            .udp(1, 2)
            .build();
            let verdict = dp.process_untraced(0, &frame, 0);
            match best {
                Some((_, idx)) => match verdict {
                    Verdict::Forward { port, .. } => {
                        prop_assert_eq!(u128::from(port), (idx as u128) % 512);
                    }
                    other => prop_assert!(false, "oracle hit, dataplane {:?}", other),
                },
                None => {
                    prop_assert!(matches!(verdict, Verdict::Drop(_)),
                        "oracle miss must drop");
                }
            }
        }
    }

    /// Ternary lookup respects priorities: highest priority matching entry
    /// always wins, verified against a scan oracle.
    #[test]
    fn ternary_priority_oracle(
        entries in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), 0i32..1000), 1..10),
        keys in proptest::collection::vec(any::<u16>(), 1..8),
    ) {
        let ir = netdebug_p4::compile(corpus::FEATURE_WIDE_KEY).unwrap();
        let mut dp = Dataplane::new(ir);
        // Distinct priorities so the winner is unambiguous.
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<_> = entries
            .into_iter()
            .filter(|(_, _, p)| seen.insert(*p))
            .collect();
        for (i, (value, mask, prio)) in entries.iter().enumerate() {
            dp.install(
                "wide",
                vec![IrPattern::Mask {
                    value: u128::from(*value),
                    mask: u128::from(*mask),
                }],
                "fwd",
                vec![(i as u128) % 511],
                *prio,
            )
            .unwrap();
        }
        for key in keys {
            let mut frame = vec![0u8; 16];
            frame[14] = (key >> 8) as u8;
            frame[15] = key as u8;
            let verdict = dp.process_untraced(0, &frame, 0);
            let winner = entries
                .iter()
                .enumerate()
                .filter(|(_, (v, m, _))| u128::from(key) & u128::from(*m)
                    == u128::from(*v) & u128::from(*m))
                .max_by_key(|(_, (_, _, p))| *p)
                .map(|(i, _)| i);
            match winner {
                Some(idx) => match verdict {
                    Verdict::Forward { port, .. } => {
                        prop_assert_eq!(u128::from(port), (idx as u128) % 511);
                    }
                    other => prop_assert!(false, "oracle hit, dataplane {:?}", other),
                },
                None => prop_assert!(matches!(verdict, Verdict::Drop(_))),
            }
        }
    }

    /// lpm_pattern always produces a pattern that matches the prefix itself.
    #[test]
    fn lpm_pattern_matches_own_prefix(prefix in any::<u32>(), len in 0u16..=32) {
        let p = lpm_pattern(u128::from(prefix), len, 32);
        let mask = if len == 0 { 0u128 } else {
            (u128::from(u32::MAX) << (32 - len)) & u128::from(u32::MAX)
        };
        prop_assert!(p.matches(u128::from(prefix) & mask));
    }
}

/// A standalone table of the given key kinds with room for every
/// generated entry, for the index-vs-scan equivalence properties.
fn standalone_table(kinds: &[MatchKind]) -> (TableIr, Vec<ActionIr>) {
    let actions = vec![ActionIr {
        name: "fwd".into(),
        control: "I".into(),
        params: vec![("port".into(), 9)],
        ops: vec![],
    }];
    let table = TableIr {
        name: "t".into(),
        control: "I".into(),
        keys: kinds
            .iter()
            .map(|&kind| TableKey {
                expr: IrExpr::konst(0, 32),
                kind,
                width: 32,
            })
            .collect(),
        actions: vec![0],
        default_action: ActionCall {
            action: 0,
            args: vec![0],
        },
        size: 4096,
        const_entries: vec![],
    };
    (table, actions)
}

/// The seed semantics, written independently of the library: first full
/// match over the priority-sorted entry list.
fn scan_oracle<'a>(snap: &'a EntrySnapshot, keys: &[u128]) -> Option<&'a RuntimeEntry> {
    snap.entries()
        .find(|e| e.patterns.iter().zip(keys).all(|(p, k)| p.matches(*k)))
}

/// Check the compiled index against the oracle for a stream of key
/// probes, including the degenerate empty probe.
fn assert_index_matches_oracle(
    snap: &EntrySnapshot,
    probes: &[Vec<u128>],
) -> Result<(), TestCaseError> {
    for keys in probes {
        prop_assert_eq!(
            snap.lookup(keys),
            scan_oracle(snap, keys),
            "index diverged from scan at keys {:?} (epoch {})",
            keys,
            snap.epoch()
        );
    }
    prop_assert_eq!(snap.lookup(&[]), scan_oracle(snap, &[]));
    Ok(())
}

proptest! {
    // 256 cases per table shape of `index_matches_scan_for_arbitrary_entries`.
    #![proptest_config(ProptestConfig::with_cases(6 * 256))]

    /// The compiled lookup index is bit-identical to the seed linear scan
    /// for arbitrary entry sets of every match kind — single-key exact,
    /// LPM and ternary tables, and two- to four-key tables mixing the
    /// three (the tuple-space index, with the occasional range pattern
    /// that demotes it) — with duplicate keys, priority ties (earlier
    /// install wins, pinned in `table.rs` unit tests), unconventional LPM
    /// priorities, and for arbitrary key streams, across
    /// install/remove/clear republications (each of which maintains the
    /// index).
    #[test]
    fn index_matches_scan_for_arbitrary_entries(
        kind_sel in 0usize..6,
        raw in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>(), 0u8..4), 1..48),
        raw_keys in proptest::collection::vec(any::<u32>(), 1..24),
        removals in 0usize..8,
    ) {
        const KINDS: [&[MatchKind]; 6] = [
            &[MatchKind::Exact],
            &[MatchKind::Lpm],
            &[MatchKind::Ternary],
            &[MatchKind::Lpm, MatchKind::Ternary],
            &[MatchKind::Ternary, MatchKind::Exact, MatchKind::Lpm],
            &[MatchKind::Ternary, MatchKind::Ternary, MatchKind::Lpm, MatchKind::Exact],
        ];
        let kinds = KINDS[kind_sel];
        let kind = kinds[0];
        let (t, a) = standalone_table(kinds);
        let s = TableState::new(&t);
        let mut installed: Vec<(Vec<IrPattern>, i32)> = Vec::new();
        for &(sel, x, y, p) in &raw {
            // Small domains force duplicate keys and priority ties.
            let (patterns, priority) = if kinds.len() > 1 {
                // Per key: a mask from a four-value alphabet (two bits of
                // `y`) and a two-bit value, stray bits included; one
                // install in 24 puts a range on a ternary key.
                const MASKS: [u128; 4] = [0, 0x1, 0x6, u128::MAX];
                let patterns = kinds.iter().enumerate().map(|(i, kind)| {
                    let value = u128::from(x >> (2 * i) & 3);
                    match (kind, MASKS[(y >> (2 * i) & 3) as usize]) {
                        (MatchKind::Exact, _) => IrPattern::Value(value % 2),
                        (MatchKind::Ternary, _) if sel == 5 && p == 3 => {
                            IrPattern::Range { lo: value, hi: value + 1 }
                        }
                        (_, 0) if x & 0x100 == 0 => IrPattern::Any,
                        (_, u128::MAX) if x & 0x200 == 0 => IrPattern::Value(value),
                        (_, mask) => IrPattern::Mask { value, mask },
                    }
                });
                (patterns.collect(), i32::from(p))
            } else {
                let (pattern, priority) = match kind {
                MatchKind::Exact => (IrPattern::Value(u128::from(x % 24)), i32::from(p)),
                MatchKind::Lpm => {
                    let len = (y % 33) as u16;
                    let pattern = lpm_pattern(u128::from(x), len, 32);
                    // Mostly the `TableEntry::lpm` convention (priority = prefix
                    // length); sometimes an arbitrary priority, which must
                    // demote the table to the scan while it is resident.
                    let priority = if sel % 3 == 0 { i32::from(p) } else { i32::from(len) };
                    (pattern, priority)
                }
                _ => {
                    let pattern = match sel % 3 {
                        0 => IrPattern::Value(u128::from(x % 24)),
                        1 => IrPattern::Mask {
                            value: u128::from(x),
                            mask: u128::from(y % 16) * 0x0101,
                        },
                        _ => IrPattern::Any,
                    };
                    (pattern, i32::from(p))
                }
                };
                (vec![pattern], priority)
            };
            s.install(
                &t,
                &a,
                RuntimeEntry {
                    patterns: patterns.clone(),
                    action: ActionCall { action: 0, args: vec![u128::from(x)] },
                    priority,
                },
            )
            .unwrap();
            installed.push((patterns, priority));
        }
        // Probe with the raw keys plus the small exact domain (hits); the
        // further keys of a multi-key table come from the key's own bits
        // (a single-key table ignores them, as the scan's zip does), and
        // every other probe is cut short of the declared key count.
        let probes: Vec<Vec<u128>> = raw_keys
            .iter()
            .map(|k| u128::from(*k))
            .chain(0..24)
            .enumerate()
            .map(|(i, k)| {
                let tuple = [k & 7, k >> 3 & 3, k >> 5 & 3, k >> 7 & 1];
                let full = if kinds.len() > 1 { tuple.to_vec() } else { vec![k] };
                let cut = if i % 2 == 1 { i % full.len() } else { full.len() };
                full[..cut.max(1)].to_vec()
            })
            .collect();
        assert_index_matches_oracle(&s.snapshot(), &probes)?;

        // Republication: removals maintain the index; equivalence holds
        // at every epoch.
        for (patterns, priority) in installed.iter().take(removals) {
            s.remove(patterns, *priority);
            assert_index_matches_oracle(&s.snapshot(), &probes)?;
        }
        // Then down to empty.
        for (patterns, priority) in installed.iter().skip(removals) {
            s.remove(patterns, *priority);
        }
        prop_assert!(s.snapshot().is_empty());
        assert_index_matches_oracle(&s.snapshot(), &probes)?;
    }

    /// The same oracle on a four-key ternary table (`acl_firewall`) whose
    /// entries spread over many mask tuples: per key a mask from a small
    /// alphabet, values and priorities from small domains, so equal keys
    /// meet inside one tuple's group and across groups, at equal priority
    /// (earlier install wins) and at higher. End to end through parse,
    /// the tuple-space index and the action.
    #[test]
    fn ternary_priority_oracle_multi_key(
        entries in proptest::collection::vec(
            (any::<u16>(), any::<u8>(), 0i32..4), 1..24),
        keys in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        const MASKS: [u32; 4] = [0, 0x0000_00FF, 0xFFFF_FF00, 0xFFFF_FFFF];
        let pattern = |value: u32, mask: u32| match mask {
            0 => IrPattern::Any,
            mask => IrPattern::Mask { value: u128::from(value), mask: u128::from(mask) },
        };
        // Key bytes come from {0, 1, 2, 3}: src = dst = 10.0.b.b.
        let addr = |b: u16| 0x0A00_0000 | u32::from(b & 3) << 8 | u32::from(b & 3);
        let ir = netdebug_p4::compile(corpus::ACL_FIREWALL).unwrap();
        let mut dp = Dataplane::new(ir);
        let mut rules = Vec::new();
        for (i, &(bits, masks, priority)) in entries.iter().enumerate() {
            let masks = usize::from(masks);
            let patterns = vec![
                pattern(addr(bits), MASKS[masks & 3]),
                pattern(addr(bits >> 2), MASKS[masks >> 2 & 3]),
                if masks & 16 == 0 { IrPattern::Value(17) } else { IrPattern::Any },
                pattern(u32::from(bits >> 4 & 3), [0, 0xFFFF][masks >> 5 & 1]),
            ];
            dp.install("acl", patterns.clone(), "allow", vec![(i % 8) as u128], priority)
                .unwrap();
            rules.push((patterns, priority, i % 8));
        }
        // List order: priority descending, install order among equals.
        let mut sorted: Vec<_> = rules.iter().collect();
        sorted.sort_by_key(|(_, priority, _)| core::cmp::Reverse(*priority));
        for key in keys {
            let (src, dst, dport) = (addr(u16::from(key)), addr(u16::from(key >> 2)), key >> 4 & 3);
            let frame = PacketBuilder::ethernet(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .ipv4(Ipv4Address::from_u32(src), Ipv4Address::from_u32(dst))
            .udp(999, u16::from(dport))
            .build();
            let tuple = [u128::from(src), u128::from(dst), 17, u128::from(dport)];
            let winner = sorted
                .iter()
                .find(|(patterns, _, _)| patterns.iter().zip(tuple).all(|(p, k)| p.matches(k)));
            match (winner, dp.process_untraced(0, &frame, 0)) {
                (Some((_, _, port)), Verdict::Forward { port: got, .. }) => {
                    prop_assert_eq!(usize::from(got), *port);
                }
                (None, Verdict::Drop(_)) => {}
                (want, got) => prop_assert!(false, "oracle {:?}, dataplane {:?}", want, got),
            }
        }
    }
}

proptest! {
    /// Multi-key all-exact tables (the packed-tuple hash) agree with the
    /// scan for arbitrary tuples, duplicates and ties.
    #[test]
    fn multi_key_exact_index_matches_scan(
        raw in proptest::collection::vec((0u32..6, 0u32..6, 0u8..3), 1..32),
        raw_keys in proptest::collection::vec((0u32..8, 0u32..8), 1..24),
    ) {
        let (t, a) = standalone_table(&[MatchKind::Exact, MatchKind::Exact]);
        let s = TableState::new(&t);
        for &(x, y, p) in &raw {
            s.install(
                &t,
                &a,
                RuntimeEntry {
                    patterns: vec![
                        IrPattern::Value(u128::from(x)),
                        IrPattern::Value(u128::from(y)),
                    ],
                    action: ActionCall { action: 0, args: vec![u128::from(x * 8 + y)] },
                    priority: i32::from(p),
                },
            )
            .unwrap();
        }
        let probes: Vec<Vec<u128>> = raw_keys
            .iter()
            .map(|&(x, y)| vec![u128::from(x), u128::from(y)])
            // Short probes fall back to the scan's zip semantics.
            .chain(raw_keys.iter().map(|&(x, _)| vec![u128::from(x)]))
            .collect();
        assert_index_matches_oracle(&s.snapshot(), &probes)?;
    }

    /// The flattened per-batch views stay equivalent end to end: an
    /// exact-indexed program (`l2_switch`) processed as one batch matches
    /// the packet-at-a-time path (which reads through the pinned
    /// snapshots, no views) bit for bit, before and after an epoch
    /// republication lands between the windows.
    #[test]
    fn exact_index_batch_and_republication_equivalence(
        macs in proptest::collection::vec(0u8..32, 1..24),
        stream in proptest::collection::vec((0u8..48, 0u16..4), 1..48),
    ) {
        let deploy = |macs: &[u8]| {
            let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
            let mut dp = Dataplane::new(ir);
            for m in macs {
                // Duplicate installs are fine: first in priority order wins
                // on both paths.
                dp.install("dmac", vec![IrPattern::Value(0x0200_0000_0000 + u128::from(*m))], "forward", vec![u128::from(*m % 4)], 0).unwrap();
            }
            dp
        };
        let built: Vec<(u16, Vec<u8>)> = stream
            .iter()
            .map(|&(m, port)| {
                let f = PacketBuilder::ethernet(
                    EthernetAddress::new(2, 0, 0, 0, 0, 1),
                    EthernetAddress::new(2, 0, 0, 0, 0, m),
                )
                .payload(b"x")
                .build();
                (port, f)
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|(p, f)| (*p, f.as_slice())).collect();

        let mut batch_dp = deploy(&macs);
        let mut seq_dp = deploy(&macs);
        let one_by_one = |dp: &mut Dataplane, now: u64| -> Vec<_> {
            pkts.iter()
                .map(|&(port, data)| {
                    let (verdict, trace) = dp.process(port, data, now);
                    (verdict, Some(trace))
                })
                .collect()
        };
        prop_assert_eq!(batch_dp.process_batch(&pkts, 0), one_by_one(&mut seq_dp, 0));

        // Republication between the windows: remove one entry, add one.
        for dp in [&mut batch_dp, &mut seq_dp] {
            let cp = dp.control_plane();
            cp.remove("dmac",
                &[IrPattern::Value(0x0200_0000_0000 + u128::from(macs[0]))], 0).unwrap();
            cp.write(&[Update::Insert("dmac", TableEntry::exact([0x0200_0000_0000 + 40], "forward", vec![1]))]).unwrap();
        }
        prop_assert_eq!(batch_dp.process_batch(&pkts, 1), one_by_one(&mut seq_dp, 1));
        prop_assert_eq!(
            batch_dp.table_stats("dmac").unwrap(),
            seq_dp.table_stats("dmac").unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Engine parity: the flat compiled engine against the tree-walking
// reference oracle. The compiled engine is the default on every path, so
// these properties are the proof obligation behind that default: same
// verdicts, same traces, same statistics and extern state, bit for bit.
// ---------------------------------------------------------------------

/// Compare every engine-visible piece of runtime state: per-table
/// hit/miss statistics plus counter and register cells. Meter cells are
/// not directly readable; callers replay extra traffic instead (any
/// divergent token-bucket state shows up in the replayed verdicts).
fn assert_runtime_state_matches(a: &Dataplane, b: &Dataplane) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.packets_processed(), b.packets_processed());
    for t in &a.program().tables {
        prop_assert_eq!(
            a.table_stats(&t.name).unwrap(),
            b.table_stats(&t.name).unwrap(),
            "table stats diverged on {}",
            &t.name
        );
    }
    for e in &a.program().externs.clone() {
        let cells = e.size.min(64) as usize;
        for i in 0..cells {
            match e.kind {
                netdebug_p4::ir::ExternKindIr::Counter => prop_assert_eq!(
                    a.counter(&e.name, i).unwrap(),
                    b.counter(&e.name, i).unwrap(),
                    "counter {}[{}] diverged",
                    &e.name,
                    i
                ),
                netdebug_p4::ir::ExternKindIr::Register => prop_assert_eq!(
                    a.register(&e.name, i).unwrap(),
                    b.register(&e.name, i).unwrap(),
                    "register {}[{}] diverged",
                    &e.name,
                    i
                ),
                netdebug_p4::ir::ExternKindIr::Meter => {}
            }
        }
    }
    Ok(())
}

/// Frames that stress every packet-path branch: routable (two prefixes),
/// malformed (parser reject), truncated mid-header (PacketTooShort at
/// arbitrary cut points) and raw byte soup.
fn mixed_frame(kind: u8, soup: &[u8]) -> Vec<u8> {
    match kind {
        0 => routed_frame(
            Ipv4Address::new(10, 0, 0, soup.first().copied().unwrap_or(9)),
            64,
        ),
        1 => routed_frame(Ipv4Address::new(10, 1, 2, 3), 64),
        2 => {
            let mut f = routed_frame(Ipv4Address::new(10, 0, 0, 5), 64);
            f[14] = 0x55; // version 5: parser must reject
            f
        }
        3 => {
            // Truncate a valid frame at an arbitrary byte: short-extract
            // paths at every possible cut.
            let f = routed_frame(Ipv4Address::new(10, 1, 0, 7), 64);
            let cut = soup.first().copied().unwrap_or(0) as usize % (f.len() + 1);
            f[..cut].to_vec()
        }
        _ => soup.to_vec(),
    }
}

proptest! {
    /// Single-packet parity over the whole program corpus: for arbitrary
    /// input bytes, ports and timestamps, the compiled engine produces
    /// exactly the reference's verdict *and trace* on every corpus
    /// program (const entries only — misses exercise default actions),
    /// and the runtime state (statistics, counters, registers) matches
    /// after the stream.
    #[test]
    fn engines_agree_across_corpus(
        // Bound tracks the corpus, so newly added programs are always
        // generated and never silently escape the parity obligation.
        prog_idx in 0usize..corpus::corpus().len(),
        frames in proptest::collection::vec(
            (0u16..4, proptest::collection::vec(any::<u8>(), 0..96)), 1..16),
        now in any::<u32>(),
    ) {
        let programs = corpus::corpus();
        let prog = &programs[prog_idx % programs.len()];
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let mut compiled_dp = Dataplane::new(ir.clone());
        let mut reference_dp = Dataplane::new(ir);
        reference_dp.set_engine(Engine::Reference);
        prop_assert_eq!(compiled_dp.engine(), Engine::Compiled, "compiled is the default");
        for (port, data) in &frames {
            let (cv, ct) = compiled_dp.process(*port, data, u64::from(now));
            let (rv, rt) = reference_dp.process(*port, data, u64::from(now));
            prop_assert_eq!(&cv, &rv, "verdict diverged on {}", prog.name);
            prop_assert_eq!(&ct, &rt, "trace diverged on {}", prog.name);
        }
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }

    /// Batched parity on a deployed router (installed LPM entries, every
    /// drop path, truncations at arbitrary cuts): `process_batch` on the
    /// compiled engine equals the reference engine's batch bit for bit —
    /// verdicts, traces, statistics.
    #[test]
    fn engines_agree_on_batches(
        frames in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..64)), 1..48),
        now in any::<u32>(),
        tracing in any::<bool>(),
    ) {
        let built: Vec<(u16, Vec<u8>)> = frames
            .iter()
            .map(|(port, kind, soup)| (*port, mixed_frame(*kind, soup)))
            .collect();
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        let now = u64::from(now);

        let mut compiled_dp = router();
        let mut reference_dp = router();
        reference_dp.set_engine(Engine::Reference);
        compiled_dp.set_tracing(tracing);
        reference_dp.set_tracing(tracing);
        let compiled = compiled_dp.process_batch(&pkts, now);
        let reference = reference_dp.process_batch(&pkts, now);
        prop_assert_eq!(compiled.len(), reference.len());
        for (i, (c, r)) in compiled.iter().zip(&reference).enumerate() {
            prop_assert_eq!(c, r, "packet {} diverged between engines", i);
        }
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }

    /// Meter parity: a token-bucket program (per-cell order dependence is
    /// the hardest state to reproduce) gives identical verdicts, traces
    /// and post-batch meter behaviour under both engines — including a
    /// replay batch that would expose any divergent bucket state.
    #[test]
    fn engines_agree_on_meter_programs(
        pkt_ports in proptest::collection::vec(0u16..4, 2..48),
        cir in 1u64..400,
        cbs in 1u64..6,
        now in 0u64..1_000_000,
    ) {
        let deploy = |engine: Engine| {
            let ir = netdebug_p4::compile(corpus::RATE_LIMITER).unwrap();
            let mut dp = Dataplane::new(ir);
            dp.set_engine(engine);
            for port in 0..4u128 {
                dp.install("fwd", vec![IrPattern::Value(port)], "forward", vec![(port + 1) % 4], 0)
                    .unwrap();
                dp.configure_meter("port_meter", port as usize, MeterConfig {
                    cir_per_mcycle: cir,
                    cbs,
                    pir_per_mcycle: cir * 2,
                    pbs: cbs * 2,
                }).unwrap();
            }
            dp
        };
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(b"meterme")
        .build();
        let pkts: Vec<(u16, &[u8])> =
            pkt_ports.iter().map(|p| (*p, frame.as_slice())).collect();

        let mut compiled_dp = deploy(Engine::Compiled);
        let mut reference_dp = deploy(Engine::Reference);
        prop_assert_eq!(
            compiled_dp.process_batch(&pkts, now),
            reference_dp.process_batch(&pkts, now),
            "meter batch diverged between engines"
        );
        // Replay: any divergent token-bucket state shows.
        let replay: Vec<(u16, &[u8])> = (0..8u16).map(|i| (i % 4, frame.as_slice())).collect();
        prop_assert_eq!(
            compiled_dp.process_batch(&replay, now + 10),
            reference_dp.process_batch(&replay, now + 10),
            "post-batch meter state diverged between engines"
        );
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }

    /// Mid-batch epoch republication parity: installs landing between
    /// windows through the detached `ControlPlane` handle produce
    /// identical windows under both engines.
    #[test]
    fn engines_agree_under_republication(
        frames in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..64)), 2..32),
        split in 1usize..31,
        now in any::<u32>(),
    ) {
        let built: Vec<(u16, Vec<u8>)> = frames
            .iter()
            .map(|(port, kind, soup)| (*port, mixed_frame(*kind, soup)))
            .collect();
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        let split = split.min(pkts.len() - 1).max(1);
        let (w1, w2) = pkts.split_at(split);
        let now = u64::from(now);

        let deploy = |engine: Engine| {
            let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
            let mut dp = Dataplane::new(ir);
            dp.set_engine(engine);
            dp.control_plane().write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]))])
                .unwrap();
            dp
        };
        let run = |engine: Engine| {
            let mut dp = deploy(engine);
            let cp = dp.control_plane();
            let win1 = dp.process_batch(w1, now);
            cp.write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]))])
                .unwrap();
            let win2 = dp.process_batch(w2, now);
            (win1, win2, dp)
        };
        let (c1, c2, compiled_dp) = run(Engine::Compiled);
        let (r1, r2, reference_dp) = run(Engine::Reference);
        prop_assert_eq!(&c1, &r1, "pre-install window diverged");
        prop_assert_eq!(&c2, &r2, "post-install window diverged");
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }
}

proptest! {
    /// Engine parity on the IR shapes the lowering's instruction
    /// selection looks at, one statement each: comparisons under an `if`,
    /// constants on either side of a binary operator, and the one fused
    /// apply (a one-header-field key) beside stack-keyed ones. Keys and
    /// installed entries share a small domain, so the fused and the
    /// stack-keyed applies both hit and miss; a short `tail` cuts some
    /// frames inside the header.
    #[test]
    fn engines_agree_on_selection_shapes(
        frames in proptest::collection::vec(
            (0u16..4, 0u8..8, 0u8..8, proptest::collection::vec(any::<u8>(), 0..4)), 1..16),
        installed in proptest::collection::vec((0u8..8, 0u8..8), 0..4),
    ) {
        let ir = netdebug_p4::compile(include_str!("selection_shapes.p4")).unwrap();
        let mut compiled_dp = Dataplane::new(ir.clone());
        let mut reference_dp = Dataplane::new(ir);
        reference_dp.set_engine(Engine::Reference);
        for dp in [&mut compiled_dp, &mut reference_dp] {
            for &(a, b) in &installed {
                let (a, b) = (u128::from(a), u128::from(b));
                // A duplicate key is refused by both engines alike.
                let _ = dp.install("by_field", vec![IrPattern::Value(a)], "mark", vec![0x10], 0);
                let _ = dp.install("by_meta", vec![IrPattern::Value(b)], "mark", vec![0x20], 0);
                let _ = dp.install("by_pair", vec![IrPattern::Value(a), IrPattern::Value(b)], "mark", vec![0x40], 0);
            }
        }
        for (port, a, b, tail) in &frames {
            let data = [&[*a, *b][..], tail].concat();
            let (cv, ct) = compiled_dp.process(*port, &data, 0);
            let (rv, rt) = reference_dp.process(*port, &data, 0);
            prop_assert_eq!(&cv, &rv, "verdict diverged");
            prop_assert_eq!(&ct, &rt, "trace diverged");
        }
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }
}

/// A parser whose `grab` state loops on itself while the segment marker
/// keeps reading 1: enough marked segments exhaust the interpreter's
/// parser-state budget, which must drop the packet with `ParserReject`
/// on **both** engines (the compiled engine carries the budget check in
/// its `StateEnter` opcode).
const LOOPING_PARSER: &str = r#"
    header seg_t { bit<8> next; bit<8> v; }
    struct headers_t { seg_t seg; }
    struct metadata_t { bit<1> unused; }
    parser LoopParser(packet_in pkt, out headers_t hdr,
                      inout metadata_t meta,
                      inout standard_metadata_t standard_metadata) {
        state start {
            transition grab;
        }
        state grab {
            pkt.extract(hdr.seg);
            transition select(hdr.seg.next) {
                1: grab;
                default: accept;
            }
        }
    }
    control LoopIngress(inout headers_t hdr, inout metadata_t meta,
                        inout standard_metadata_t standard_metadata) {
        apply { standard_metadata.egress_spec = 1; }
    }
    control LoopDeparser(packet_out pkt, in headers_t hdr) {
        apply { pkt.emit(hdr.seg); }
    }
    V1Switch(LoopParser(), LoopIngress(), LoopDeparser()) main;
"#;

/// Parser-loop budget exhaustion: the looping parser visits one state
/// per 2-byte segment; a packet with more than the state budget's worth
/// of `next == 1` segments must exhaust the budget and drop, one with a
/// terminator must accept, and one that runs out of bytes mid-loop must
/// drop `PacketTooShort` — identically on both engines, traces included.
#[test]
fn parser_budget_exhaustion_identical_across_engines() {
    let ir = netdebug_p4::compile(LOOPING_PARSER).unwrap();
    let mut compiled_dp = Dataplane::new(ir.clone());
    let mut reference_dp = Dataplane::new(ir);
    reference_dp.set_engine(Engine::Reference);

    // 300 segments of next=1: exceeds the 256-state budget.
    let looping: Vec<u8> = (0..300).flat_map(|i| [1u8, i as u8]).collect();
    // 100 segments then a terminator: accepted.
    let mut terminated: Vec<u8> = (0..100).flat_map(|i| [1u8, i as u8]).collect();
    terminated.extend_from_slice(&[0, 0xEE]);
    // 50 full segments then a lone marker byte: PacketTooShort mid-loop.
    let mut truncated: Vec<u8> = (0..50).flat_map(|i| [1u8, i as u8]).collect();
    truncated.push(1);

    for (name, frame) in [
        ("looping", &looping),
        ("terminated", &terminated),
        ("truncated", &truncated),
    ] {
        let (cv, ct) = compiled_dp.process(0, frame, 0);
        let (rv, rt) = reference_dp.process(0, frame, 0);
        assert_eq!(cv, rv, "{name}: verdict diverged");
        assert_eq!(ct, rt, "{name}: trace diverged");
    }
    let (v, t) = compiled_dp.process(0, &looping, 0);
    assert_eq!(
        v,
        Verdict::Drop(netdebug_dataplane::DropReason::ParserReject)
    );
    assert!(
        t.states_visited().len() <= 256,
        "budget must bound the walk"
    );
    let (v, _) = compiled_dp.process(0, &terminated, 0);
    assert!(v.is_forwarded(), "terminated chain must accept");
    let (v, _) = compiled_dp.process(0, &truncated, 0);
    assert_eq!(
        v,
        Verdict::Drop(netdebug_dataplane::DropReason::PacketTooShort)
    );
}

/// A layout the corpus lacks: widths 1, 3, 4, 7, 9, 13, 33, 64 and 65, a
/// 128-bit field starting at bit 4 (a 17-byte span), and a second header
/// that starts 41 bytes in. Ingress rewrites one sub-byte field (`c`),
/// one field that straddles byte boundaries on both sides (`g`) and one
/// field of the trailing header, and keys a table on a 13-bit field.
const PACKED_FIELDS: &str = r#"
    header packed_t {
        bit<1>   a;
        bit<3>   b;
        bit<128> wide;
        bit<4>   c;
        bit<7>   d;
        bit<9>   e;
        bit<13>  f;
        bit<33>  g;
        bit<64>  h;
        bit<65>  i;
        bit<1>   j;
    }
    header trail_t {
        bit<3>  x;
        bit<13> y;
        bit<16> z;
    }
    struct headers_t { packed_t packed; trail_t trail; }
    struct metadata_t { bit<1> unused; }
    parser PackedParser(packet_in pkt, out headers_t hdr,
                        inout metadata_t meta,
                        inout standard_metadata_t standard_metadata) {
        state start {
            pkt.extract(hdr.packed);
            transition select(hdr.packed.a) {
                1: parse_trail;
                default: accept;
            }
        }
        state parse_trail {
            pkt.extract(hdr.trail);
            transition accept;
        }
    }
    control PackedIngress(inout headers_t hdr, inout metadata_t meta,
                          inout standard_metadata_t standard_metadata) {
        action bump() { hdr.packed.g = hdr.packed.g + 1; }
        table by_f {
            key = { hdr.packed.f: exact; }
            actions = { bump; NoAction; }
            size = 16;
            default_action = bump();
        }
        apply {
            standard_metadata.egress_spec = 1;
            hdr.packed.c = hdr.packed.c + 1;
            by_f.apply();
            if (hdr.trail.isValid()) {
                hdr.trail.y = hdr.trail.y + 1;
            }
        }
    }
    control PackedDeparser(packet_out pkt, in headers_t hdr) {
        apply {
            pkt.emit(hdr.packed);
            pkt.emit(hdr.trail);
        }
    }
    V1Switch(PackedParser(), PackedIngress(), PackedDeparser()) main;
"#;

/// `field = field + 1` at `width` bits, `bit_off` bits into `data`, one
/// bit at a time — the test's own statement of the wire layout, sharing
/// nothing with `netdebug_dataplane::bits`.
fn bump_bits(data: &mut [u8], bit_off: usize, width: usize) {
    // Ripple-carry increment from the field's least significant bit.
    for bit in (bit_off..bit_off + width).rev() {
        let mask = 0x80u8 >> (bit % 8);
        data[bit / 8] ^= mask;
        if data[bit / 8] & mask != 0 {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Engine parity on the packed layout, over arbitrary bytes of
    /// arbitrary length (so every truncation point of both headers):
    /// verdict bytes, traces and statistics are identical, single-packet
    /// and batched.
    #[test]
    fn engines_agree_on_packed_fields(
        frames in proptest::collection::vec(
            (0u16..4, proptest::collection::vec(any::<u8>(), 0..80)), 1..16),
        installed in proptest::collection::vec(0u16..(1 << 13), 0..4),
        tracing in any::<bool>(),
    ) {
        let ir = netdebug_p4::compile(PACKED_FIELDS).unwrap();
        let mut compiled_dp = Dataplane::new(ir.clone());
        let mut reference_dp = Dataplane::new(ir);
        reference_dp.set_engine(Engine::Reference);
        for dp in [&mut compiled_dp, &mut reference_dp] {
            for f in &installed {
                // A duplicate key is refused by both engines alike.
                let _ = dp.install("by_f", vec![IrPattern::Value(u128::from(*f))], "NoAction", vec![], 0);
            }
        }
        for (port, data) in &frames {
            let (cv, ct) = compiled_dp.process(*port, data, 0);
            let (rv, rt) = reference_dp.process(*port, data, 0);
            prop_assert_eq!(&cv, &rv, "verdict diverged");
            prop_assert_eq!(&ct, &rt, "trace diverged");
        }
        compiled_dp.set_tracing(tracing);
        reference_dp.set_tracing(tracing);
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        prop_assert_eq!(
            compiled_dp.process_batch(&pkts, 0),
            reference_dp.process_batch(&pkts, 0)
        );
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }

    /// A rewritten field changes and nothing else does: the compiled
    /// engine's output equals the input with `c`, `g` and (when the
    /// trailing header parses) `y` incremented by the test's own bit loop
    /// — every neighbouring field, the 17-byte `wide` and the payload
    /// come out bit for bit as they went in.
    #[test]
    fn packed_rewrites_leave_neighbours_unchanged(
        bytes in proptest::collection::vec(any::<u8>(), 45..80),
        with_trail in any::<bool>(),
    ) {
        let mut frame = bytes;
        frame[0] = (frame[0] & 0x7F) | (u8::from(with_trail) << 7); // field `a`
        let ir = netdebug_p4::compile(PACKED_FIELDS).unwrap();
        let packed = &ir.headers[ir.header_by_name("packed").unwrap()];
        let trail = &ir.headers[ir.header_by_name("trail").unwrap()];
        let mut expected = frame.clone();
        for name in ["c", "g"] {
            let f = &packed.fields[packed.field_by_name(name).unwrap()];
            bump_bits(&mut expected, f.offset_bits as usize, f.width_bits as usize);
        }
        if with_trail {
            let y = &trail.fields[trail.field_by_name("y").unwrap()];
            let off = packed.bit_width as usize + y.offset_bits as usize;
            bump_bits(&mut expected, off, y.width_bits as usize);
        }
        let mut dp = Dataplane::new(ir);
        let (verdict, _) = dp.process(0, &frame, 0);
        prop_assert_eq!(verdict, Verdict::Forward { port: 1, data: expected.into() });
    }
}

/// One generated frame for `liveness_shapes.p4`: `(a.kind, a.n, b.tag,
/// soup, cut)`. The steering byte comes first and `b.tag` (byte 4) comes
/// from the installed entries' domain; the frame is then cut to an
/// arbitrary length, so short, odd-length and mid-header frames all occur.
type LivenessCase = (u8, u8, u8, Vec<u8>, usize);

fn liveness_case() -> impl Strategy<Value = LivenessCase> {
    (
        0u8..4,
        0u8..8,
        0u8..4,
        proptest::collection::vec(any::<u8>(), 0..24),
        0usize..32,
    )
}

fn liveness_frame((kind, n, tag, soup, cut): &LivenessCase) -> Vec<u8> {
    let mut frame = [&[kind << 4 | n][..], soup].concat();
    if let Some(b_tag) = frame.get_mut(4) {
        *b_tag = *tag;
    }
    frame.truncate(*cut);
    frame
}

/// `liveness_shapes.p4` deployed with `by_tag` entries for `tags`.
fn liveness_dataplane(tags: &[u8], engine: Engine) -> Dataplane {
    let ir = netdebug_p4::compile(include_str!("liveness_shapes.p4")).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.set_engine(engine);
    for &tag in tags {
        // A duplicate key is refused by both engines alike.
        let _ = dp.install(
            "by_tag",
            vec![IrPattern::Value(u128::from(tag))],
            "mark",
            vec![0x10 | u128::from(tag)],
            0,
        );
    }
    dp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Engine parity where extract loads only the live fields and deparse
    /// copies ingress bytes: a field written on one branch, a header
    /// invalidated and re-validated, encap in front, decap, a deparse
    /// order unlike the parse order, a slice store and a select key no
    /// control reads — verdict bytes, traces, table statistics and
    /// counters identical, single-packet and batched.
    #[test]
    fn engines_agree_on_liveness_shapes(
        frames in proptest::collection::vec((0u16..4, liveness_case()), 1..16),
        tags in proptest::collection::vec(0u8..4, 0..4),
        tracing in any::<bool>(),
    ) {
        let mut compiled_dp = liveness_dataplane(&tags, Engine::Compiled);
        let mut reference_dp = liveness_dataplane(&tags, Engine::Reference);
        let built: Vec<(u16, Vec<u8>)> =
            frames.iter().map(|(port, case)| (*port, liveness_frame(case))).collect();
        for (port, data) in &built {
            let (cv, ct) = compiled_dp.process(*port, data, 0);
            let (rv, rt) = reference_dp.process(*port, data, 0);
            prop_assert_eq!(&cv, &rv, "verdict diverged on {:02x?}", data);
            prop_assert_eq!(&ct, &rt, "trace diverged on {:02x?}", data);
        }
        compiled_dp.set_tracing(tracing);
        reference_dp.set_tracing(tracing);
        let pkts: Vec<(u16, &[u8])> = built.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        prop_assert_eq!(
            compiled_dp.process_batch(&pkts, 0),
            reference_dp.process_batch(&pkts, 0)
        );
        assert_runtime_state_matches(&compiled_dp, &reference_dp)?;
    }
}

/// A control-plane thread hammering installs *while* a batch is in
/// flight: memory-safe, every packet gets a verdict consistent with
/// *some* published epoch (the pinned one), and the batch after the join
/// observes the final epoch.
#[test]
fn concurrent_installs_mid_batch_are_epoch_atomic() {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.control_plane()
        .write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        )])
        .unwrap();
    let cp = dp.control_plane();

    let frames: Vec<Vec<u8>> = (0..512)
        .map(|i| routed_frame(Ipv4Address::new(10, 1, 0, (i % 250) as u8), 64))
        .collect();
    let pkts: Vec<(u16, &[u8])> = frames.iter().map(|f| (0u16, f.as_slice())).collect();

    // 10.1/16 packets match the /8 route (port 1) before the churn thread
    // publishes the /16 route (port 2). Whatever interleaving the OS
    // picks, the *batch* pinned one snapshot: all packets of one batch
    // must agree on the epoch they saw.
    let results = std::thread::scope(|scope| {
        let churn = scope.spawn(move || {
            for i in 0..64u128 {
                cp.write(&[Update::Insert(
                    "ipv4_lpm",
                    TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]),
                )])
                .unwrap();
                cp.remove("ipv4_lpm", &[lpm_pattern(0x0A01_0000, 16, 32)], 16)
                    .unwrap()
                    .unwrap();
                std::hint::black_box(i);
            }
            // Leave the /16 route installed.
            cp.write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]),
            )])
            .unwrap();
            cp.epoch("ipv4_lpm").unwrap()
        });
        let results = dp.process_batch(&pkts, 0);
        let final_epoch = churn.join().expect("churn thread panicked");
        assert_eq!(final_epoch, 1 + 64 * 2 + 1);
        results
    });

    // Every packet forwarded (both routes forward), to port 1 or 2
    // depending on which snapshot the batch pinned — but uniformly, since
    // the whole batch pinned exactly once.
    let ports: Vec<u16> = results
        .iter()
        .map(|(v, _)| match v {
            Verdict::Forward { port, .. } => *port,
            other => panic!("expected forward, got {other:?}"),
        })
        .collect();
    assert!(
        ports.iter().all(|&p| p == ports[0]),
        "one batch, one pinned epoch: mixed egress ports {ports:?}"
    );
    // The next batch observes the final epoch: /16 wins, port 2.
    let after = dp.process_batch(&pkts[..4], 0);
    for (v, _) in &after {
        assert!(
            matches!(v, Verdict::Forward { port: 2, .. }),
            "post-churn batch must see the /16 route: {v:?}"
        );
    }
}

/// The eight leaves of a binary tree of IPv4 addresses that branches at
/// bits 2, 5 and 19 from the top (twice inside the first octet, once
/// below it): a leaf's prefixes at lengths 0..=32 nest.
fn tree_leaf(i: u8) -> u32 {
    0xA5C3_5A3C ^ u32::from(i & 1) << 29 ^ u32::from(i >> 1 & 1) << 26 ^ u32::from(i >> 2 & 1) << 12
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Nested routes on the router — every length /0../32, the default
    /// route and the lengths under eight bits among them — installed and
    /// removed through the control plane in random order, and now and
    /// then a /33, which is rejected and publishes nothing: after every
    /// step, a packet to each leaf of the tree and to addresses one bit
    /// beside it leaves by the port of the longest installed prefix that
    /// covers it (the earliest installed of equal ones), or is dropped
    /// where none does.
    #[test]
    fn nested_prefixes_route_by_the_longest_match(
        ops in proptest::collection::vec((0u8..6, 0u8..8, 0u16..=33, 0u8..4), 1..32),
        flips in proptest::collection::vec(0u32..32, 1..4),
    ) {
        let mut dp = Dataplane::new(netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap());
        let cp = dp.control_plane();
        // Installed routes in install order: (prefix, length, port).
        let mut routes: Vec<(u32, u16, u8)> = Vec::new();
        for &(sel, leaf, len, port) in &ops {
            let prefix = u128::from(tree_leaf(leaf));
            if len == 33 {
                let epoch = cp.epoch("ipv4_lpm").unwrap();
                let args = vec![1, port.into()];
                prop_assert_eq!(
                    cp.write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(prefix, len, "ipv4_forward", args))]),
                    Err(ControlError::Table(TableError::BadPattern))
                );
                prop_assert_eq!(cp.epoch("ipv4_lpm").unwrap(), epoch);
            } else if sel < 4 {
                cp.write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(prefix, len, "ipv4_forward", vec![1, port.into()]))])
                    .unwrap();
                routes.push((tree_leaf(leaf), len, port));
            } else {
                let removed = cp.remove("ipv4_lpm", &[lpm_pattern(prefix, len, 32)], len.into());
                let mask = |len: u16| u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0);
                let at = routes
                    .iter()
                    .position(|&(p, l, _)| l == len && (p ^ tree_leaf(leaf)) & mask(len) == 0);
                prop_assert_eq!(removed.unwrap().is_some(), at.is_some());
                if let Some(at) = at {
                    routes.remove(at);
                }
            }
            let mut longest_first = routes.clone();
            longest_first.sort_by_key(|&(_, len, _)| core::cmp::Reverse(len));
            for leaf in 0..8 {
                let inside = tree_leaf(leaf);
                for dst in flips.iter().map(|bit| inside ^ 1 << bit).chain([inside]) {
                    let want = longest_first.iter().find(|&&(p, len, _)| {
                        u64::from(p ^ dst) >> (32 - len) == 0
                    });
                    let (verdict, _) = dp.process(0, &routed_frame(dst.to_be_bytes().into(), 64), 0);
                    match (want, verdict) {
                        (Some(&(.., port)), Verdict::Forward { port: out, .. }) => {
                            prop_assert_eq!(out, u16::from(port), "dst {:#x}", dst)
                        }
                        (None, Verdict::Drop(_)) => {}
                        (want, got) => prop_assert!(false, "dst {:#x}: {:?}, got {:?}", dst, want, got),
                    }
                }
            }
        }
    }
}

/// One step of a random control/packet interleaving on the router:
/// installs and removals over a small prefix domain (duplicates, absent
/// victims), a batch (which pins the packet path's snapshots while it
/// runs), a rare
/// `clear`.
fn churn_step(dp: &mut Dataplane, (sel, x, len): (u8, u8, u8), probes: &[(u16, &[u8])]) {
    let prefix = 0x0A00_0000 | u128::from(x % 4) << 16 | u128::from(x % 3) << 8;
    let len = [8u16, 16, 24, 32][usize::from(len % 4)];
    let cp = dp.control_plane();
    match sel {
        0..=3 => {
            let args = vec![u128::from(x), u128::from(x % 4)];
            cp.write(&[Update::Insert(
                "ipv4_lpm",
                TableEntry::lpm(prefix, len, "ipv4_forward", args),
            )])
            .unwrap();
        }
        4 | 5 => {
            cp.remove("ipv4_lpm", &[lpm_pattern(prefix, len, 32)], i32::from(len))
                .unwrap();
        }
        6 => {
            dp.process_batch(probes, 0);
        }
        _ if x % 8 == 0 => {
            cp.write(&[Update::Clear("ipv4_lpm")]).unwrap();
        }
        _ => {}
    }
}

proptest! {
    /// Copy-on-write publication never reaches a pin. Checkpoints and
    /// clones taken at random steps of a random churn sequence — with
    /// publications before and after them landing in place or on a copy
    /// as the pins dictate — still read, at the end, the epochs and the
    /// verdicts recorded when they were taken; and restoring a checkpoint
    /// then replaying the steps since republishes the same epochs and
    /// ends in the same state.
    #[test]
    fn pins_survive_churn_and_restore_replays_the_same_epochs(
        steps in proptest::collection::vec((0u8..8, any::<u8>(), 0u8..4), 1..48),
        pin_at in proptest::collection::vec(0usize..48, 0..6),
    ) {
        let frames: Vec<Vec<u8>> = (0..4u8)
            .flat_map(|b| (0..3u8).map(move |c| routed_frame(Ipv4Address::new(10, b, c, 1), 64)))
            .collect();
        let probes: Vec<(u16, &[u8])> = frames.iter().map(|f| (0u16, f.as_slice())).collect();
        // Epochs and probe verdicts, read off a throwaway clone so that
        // observing leaves no trace (and no lasting pin) on `dp`.
        let observe = |dp: &Dataplane| {
            let mut probe = dp.clone();
            (probe.control_plane().epochs(), probe.process_batch(&probes, 0))
        };

        let mut dp = router();
        let mut checkpoints = Vec::new();
        let mut clones = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            if pin_at.contains(&i) {
                if i % 2 == 0 {
                    checkpoints.push((i, dp.checkpoint(), observe(&dp)));
                } else {
                    clones.push((dp.clone(), observe(&dp)));
                }
            }
            churn_step(&mut dp, *step, &probes);
        }
        let end = observe(&dp);

        for (clone, seen) in &clones {
            prop_assert_eq!(&observe(clone), seen, "a clone moved");
        }
        for (i, checkpoint, seen) in &checkpoints {
            prop_assert_eq!(&checkpoint.epochs(), &seen.0);
            dp.restore(checkpoint);
            prop_assert_eq!(&observe(&dp), seen, "the checkpoint taken at step {} moved", i);
            for step in &steps[*i..] {
                churn_step(&mut dp, *step, &probes);
            }
            prop_assert_eq!(&observe(&dp), &end, "replay from step {} diverged", i);
        }
    }
}

// ---------------------------------------------------------------------
// Flow-cache parity: the memoized fast path against the uncached
// compiled engine and the tree-walking reference oracle. The cache is on
// by default for every cacheable program, so these properties are the
// proof obligation behind that default: a replayed hit must be
// observationally identical to a fresh execution — verdicts, traces,
// statistics, counters — including across epoch republications, which
// must invalidate rather than replay stale outcomes.
// ---------------------------------------------------------------------

/// More lookups than a flow cache makes before it goes dormant when none
/// hits or installs.
const DORMANT_PREFIX: usize = 300;

/// `DORMANT_PREFIX` frames no two of which share a flow-cache key: `base`
/// padded with 0..`DORMANT_PREFIX` trailing bytes, so every length differs.
/// A cache that sees them first goes dormant, and the stream after them
/// runs the skip path and its 1-in-16 probes.
fn one_off_frames(base: &[u8]) -> Vec<Vec<u8>> {
    (0..DORMANT_PREFIX)
        .map(|pad| [base, &vec![0xD0; pad]].concat())
        .collect()
}

fn as_batch(frames: &[Vec<u8>], port: u16) -> Vec<(u16, &[u8])> {
    frames.iter().map(|f| (port, f.as_slice())).collect()
}

proptest! {
    /// Three-way parity over the whole program corpus: a repetitive
    /// stream (draws from a small frame pool, processed twice so the
    /// second round replays cache hits) produces bit-identical verdicts,
    /// traces and runtime state on the cached default, the cache-off
    /// compiled engine and the reference oracle — for every corpus
    /// program, arbitrary (including malformed) frame bytes, ports,
    /// timestamps and both tracing modes. Traced, the cached side reads
    /// the stage lane alone, as a device tap does (a records reader
    /// bypasses the cache), and its verdicts and lanes equal the
    /// reference's; the cache-off side and the reference compare whole
    /// traces. Uncacheable programs pass trivially (the cache never
    /// engages); on cacheable ones every packet of the cached side is a
    /// hit, a miss or a skip. With `dormant`, one-off frames go first, so
    /// the stream meets a dormant cache that skips 15 packets in 16. With
    /// `sweep`, the stream's packets differ in one byte, as a generator's
    /// sweep makes them: where the program never reads that byte, its
    /// packets share a key, so hits serve packets whose unkeyed bytes
    /// differ from the recorded packet's.
    #[test]
    fn flow_cache_parity_across_corpus(
        prog_idx in 0usize..corpus::corpus().len(),
        pool in proptest::collection::vec(
            (0u16..4, proptest::collection::vec(any::<u8>(), 0..96)), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 1..40),
        now in any::<u32>(),
        tracing in any::<bool>(),
        dormant in any::<bool>(),
        sweep in proptest::option::of(0usize..64),
    ) {
        let programs = corpus::corpus();
        let prog = &programs[prog_idx % programs.len()];
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let mut cached_dp = Dataplane::new(ir.clone());
        let mut uncached_dp = Dataplane::new(ir.clone());
        uncached_dp.set_flow_cache(false);
        let mut reference_dp = Dataplane::new(ir);
        reference_dp.set_engine(Engine::Reference);
        for dp in [&mut cached_dp, &mut uncached_dp, &mut reference_dp] {
            dp.set_tracing(tracing);
        }
        prop_assert!(!uncached_dp.flow_cache_enabled());
        let frames: Vec<(u16, Vec<u8>)> = picks
            .iter()
            .enumerate()
            .map(|(i, ix)| {
                let (port, frame) = &pool[usize::from(*ix) % pool.len()];
                let mut frame = frame.clone();
                if let Some(byte) = sweep.and_then(|at| frame.get_mut(at)) {
                    *byte ^= i as u8;
                }
                (*port, frame)
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|(port, f)| (*port, f.as_slice())).collect();
        if dormant {
            let prefix = one_off_frames(&pool[0].1);
            let prefix = as_batch(&prefix, pool[0].0);
            let c = cached_lanes(&mut cached_dp, &prefix, u64::from(now), tracing);
            let r = reference_dp.process_batch(&prefix, u64::from(now));
            prop_assert_eq!(&uncached_dp.process_batch(&prefix, u64::from(now)), &r);
            prop_assert_eq!(&c, &lanes_of(&reference_dp, &r));
        }
        // Two rounds of the same stream: round 0 populates the cache,
        // round 1 replays it (the timestamp moves between rounds, which
        // must not matter — timestamp readers classify Uncacheable).
        for round in 0..2u64 {
            let t = u64::from(now) + round;
            let c = cached_lanes(&mut cached_dp, &pkts, t, tracing);
            let u = uncached_dp.process_batch(&pkts, t);
            let r = reference_dp.process_batch(&pkts, t);
            let lanes = lanes_of(&reference_dp, &r);
            for (i, (((c, u), r), lane)) in c.iter().zip(&u).zip(&r).zip(&lanes).enumerate() {
                prop_assert_eq!(u, r,
                    "cache-off vs reference diverged on {} (round {}, packet {})",
                    prog.name, round, i);
                prop_assert_eq!(c, lane,
                    "cache-on vs reference diverged on {} (round {}, packet {})",
                    prog.name, round, i);
            }
        }
        assert_runtime_state_matches(&cached_dp, &uncached_dp)?;
        assert_runtime_state_matches(&cached_dp, &reference_dp)?;
        prop_assert_eq!(uncached_dp.cache_stats().hits, 0, "disabled cache must not hit");
        all_through_cache(&cached_dp)?;
    }

    /// Cache parity under batches and mid-stream republication on a
    /// deployed router: the cached compiled engine, the cache-off
    /// compiled engine and the reference produce identical windows when
    /// an LPM route publishes
    /// between them through the detached `ControlPlane` handle — the
    /// epoch bump must invalidate resident entries, never replay a
    /// pre-install outcome. Streams repeat frames from a small pool
    /// (routable, unroutable, malformed, truncated, soup) so the cache
    /// genuinely replays within and across windows. With `dormant`, a
    /// window of one-off frames goes first, so the windows after it meet
    /// a dormant cache, across the republication too. The cached side runs
    /// untraced, or traced into a `StageSink` as a device tap reads (a
    /// records reader bypasses the cache), and every packet of it is a
    /// hit, a miss or a skip; its verdicts and lanes equal the
    /// reference's, and the cache-off side and the reference compare
    /// whole traces.
    #[test]
    fn flow_cache_parity_on_batches_and_republication(
        pool in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..64)), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 2..48),
        now in any::<u32>(),
        dormant in any::<bool>(),
        tracing in any::<bool>(),
    ) {
        let built: Vec<(u16, Vec<u8>)> = pool
            .iter()
            .map(|(port, kind, soup)| (*port, mixed_frame(*kind, soup)))
            .collect();
        let stream: Vec<(u16, &[u8])> = picks
            .iter()
            .map(|ix| {
                let (port, frame) = &built[usize::from(*ix) % built.len()];
                (*port, frame.as_slice())
            })
            .collect();
        let split = stream.len() / 2;
        let (w1, w2) = stream.split_at(split.max(1));
        let now = u64::from(now);
        let prefix_frames = if dormant { one_off_frames(&built[0].1) } else { Vec::new() };
        let prefix = as_batch(&prefix_frames, built[0].0);

        let deploy = |engine: Engine, cache: bool| {
            let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
            let mut dp = Dataplane::new(ir);
            dp.set_engine(engine);
            dp.set_flow_cache(cache);
            dp.set_tracing(tracing);
            dp.control_plane().write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]))])
                .unwrap();
            dp
        };
        /// The windows through `dp`, each read by `batch`: the prefix and
        /// `w1` before the republication, `w2` after it.
        fn run<T>(
            mut dp: Dataplane,
            [prefix, w1, w2]: [&[(u16, &[u8])]; 3],
            batch: impl Fn(&mut Dataplane, &[(u16, &[u8])]) -> Vec<T>,
        ) -> (Vec<T>, Vec<T>, Dataplane) {
            let cp = dp.control_plane();
            let mut win1 = batch(&mut dp, prefix);
            win1.extend(batch(&mut dp, w1));
            cp.write(&[Update::Insert("ipv4_lpm", TableEntry::lpm(0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2]))])
                .unwrap();
            let win2 = batch(&mut dp, w2);
            (win1, win2, dp)
        }
        let windows = [prefix.as_slice(), w1, w2];
        let (c1, c2, cached_dp) =
            run(deploy(Engine::Compiled, true), windows, |dp, pkts| cached_lanes(dp, pkts, now, tracing));
        prop_assert!(cached_dp.flow_cache_enabled(), "ipv4_forward is cacheable");
        let whole = |dp: &mut Dataplane, pkts: &[(u16, &[u8])]| dp.process_batch(pkts, now);
        let (u1, u2, uncached_dp) = run(deploy(Engine::Compiled, false), windows, whole);
        let (r1, r2, reference_dp) = run(deploy(Engine::Reference, false), windows, whole);
        prop_assert_eq!(&u1, &r1, "pre-install window: cache-off vs reference");
        prop_assert_eq!(&u2, &r2, "post-install window: cache-off vs reference");
        prop_assert_eq!(&c1, &lanes_of(&reference_dp, &r1), "pre-install window: cache-on vs reference");
        prop_assert_eq!(&c2, &lanes_of(&reference_dp, &r2), "post-install window: cache-on vs reference");
        assert_runtime_state_matches(&cached_dp, &uncached_dp)?;
        assert_runtime_state_matches(&cached_dp, &reference_dp)?;
        all_through_cache(&cached_dp)?;
    }
}

/// Every `(table, key tuple)` a traced reference run of a fresh `ir`
/// data plane applies on `pkts`: what a write must name to touch the
/// stream's cached flows.
fn applied_keys(ir: &netdebug_p4::ir::Program, pkts: &[(u16, &[u8])]) -> Vec<(String, Vec<u128>)> {
    let mut dp = Dataplane::new(ir.clone());
    dp.set_engine(Engine::Reference);
    let mut applied = Vec::new();
    for (_, trace) in dp.process_batch(pkts, 0) {
        for event in trace.expect("tracing is on").events {
            if let TraceEvent::TableApply { table, keys, .. } = event {
                applied.push((table.to_string(), keys));
            }
        }
    }
    applied
}

/// One churn write on `ir`'s table `table`, drawn by `sel` over the key
/// tuples the stream applies (`applied`, which may not name the table):
/// an exact insert or delete of a tuple the stream looks up, an exact
/// insert of a tuple next to it (it touches no flow), a masked or LPM
/// insert over it (on an exact table the write is rejected), or a clear.
fn churn_update<'a>(
    ir: &'a netdebug_p4::ir::Program,
    applied: &[(String, Vec<u128>)],
    (sel, table, pick, arg, priority): (u8, usize, usize, u8, u8),
) -> Update<'a> {
    let t = &ir.tables[table % ir.tables.len()];
    let looked_up: Vec<&Vec<u128>> = applied
        .iter()
        .filter(|(name, keys)| *name == t.name && keys.len() == t.keys.len())
        .map(|(_, keys)| keys)
        .collect();
    let mut keys: Vec<u128> = match looked_up.len() {
        0 => vec![u128::from(arg); t.keys.len()],
        n => looked_up[pick % n].clone(),
    };
    let action = &ir.actions[t.actions[usize::from(arg) % t.actions.len()]];
    let args: Vec<u128> = (0..action.params.len() as u128)
        .map(|i| (u128::from(arg) + i) % 4)
        .collect();
    let priority = i32::from(priority % 4);
    let exact = |keys: Vec<u128>| keys.into_iter().map(IrPattern::Value).collect::<Vec<_>>();
    match sel % 8 {
        0..=2 => Update::Insert(
            &t.name,
            TableEntry::new(exact(keys), &action.name, args, priority),
        ),
        3 => Update::Delete(&t.name, TableEntry::new(exact(keys), "", vec![], priority)),
        4 => {
            if let Some(k) = keys.first_mut() {
                *k ^= 1;
            }
            Update::Insert(
                &t.name,
                TableEntry::new(exact(keys), &action.name, args, priority),
            )
        }
        5 if t.keys.len() == 1 => {
            let len = [0, 8, 16, 24][usize::from(arg) % 4].min(t.keys[0].width);
            Update::Insert(&t.name, TableEntry::lpm(keys[0], len, &action.name, args))
        }
        5 | 6 => {
            let masked = keys
                .iter()
                .map(|&value| IrPattern::Mask {
                    value,
                    mask: 0xF0F0,
                })
                .collect::<Vec<_>>();
            Update::Insert(
                &t.name,
                TableEntry::new(masked, &action.name, args, priority),
            )
        }
        _ => Update::Clear(&t.name),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Cache parity under churn, over the whole program corpus: a
    /// repetitive stream runs three rounds, with random batches of writes
    /// published between them through the detached `ControlPlane` — exact
    /// inserts and deletes that name the key tuples the stream looks up
    /// and ones that miss them, masked and LPM inserts, clears, and
    /// batches some table rejects. The cached default, the cache-off
    /// compiled engine and the reference agree on every write's result,
    /// every verdict, the table statistics and the counters, and the
    /// cache-off side and the reference on every trace; traced, the
    /// cached side reads the stage lane alone, as a device tap does (a
    /// records reader bypasses the cache), and its lanes equal the
    /// reference's. A publication drops exactly the cached flows whose
    /// lookups it can change, and a flow it leaves resident replays what
    /// the new tables would compute.
    #[test]
    fn flow_cache_parity_under_churn(
        prog_idx in 0usize..corpus::corpus().len(),
        pool in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..64)), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 1..32),
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>(), any::<u8>()), 0..4),
            2),
        tracing in any::<bool>(),
    ) {
        let programs = corpus::corpus();
        let prog = &programs[prog_idx % programs.len()];
        let ir = netdebug_p4::compile(prog.source).unwrap();
        if ir.tables.is_empty() {
            return Ok(());
        }
        let frames: Vec<(u16, Vec<u8>)> = picks
            .iter()
            .map(|ix| {
                let (port, kind, soup) = &pool[usize::from(*ix) % pool.len()];
                (*port, mixed_frame(*kind, soup))
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|(port, f)| (*port, f.as_slice())).collect();
        let applied = applied_keys(&ir, &pkts);
        let mut cached_dp = Dataplane::new(ir.clone());
        let mut uncached_dp = Dataplane::new(ir.clone());
        uncached_dp.set_flow_cache(false);
        let mut reference_dp = Dataplane::new(ir.clone());
        reference_dp.set_engine(Engine::Reference);
        for dp in [&mut cached_dp, &mut uncached_dp, &mut reference_dp] {
            dp.set_tracing(tracing);
        }
        let cps = [&cached_dp, &uncached_dp, &reference_dp].map(|dp| dp.control_plane());
        for round in 0..3usize {
            if let Some(batch) = round.checked_sub(1).map(|b| &batches[b]) {
                let updates: Vec<Update<'_>> =
                    batch.iter().map(|&u| churn_update(&ir, &applied, u)).collect();
                let [c, u, r] = cps.each_ref().map(|cp| cp.write(&updates));
                prop_assert_eq!(&c, &u, "{}: write results diverged", prog.name);
                prop_assert_eq!(&c, &r, "{}: write results diverged", prog.name);
            }
            let c = cached_lanes(&mut cached_dp, &pkts, 0, tracing);
            let u = uncached_dp.process_batch(&pkts, 0);
            let r = reference_dp.process_batch(&pkts, 0);
            let lanes = lanes_of(&reference_dp, &r);
            for (i, (((c, u), r), lane)) in c.iter().zip(&u).zip(&r).zip(&lanes).enumerate() {
                prop_assert_eq!(u, r,
                    "cache-off vs reference diverged on {} (round {}, packet {})", prog.name, round, i);
                prop_assert_eq!(c, lane,
                    "cache-on vs reference diverged on {} (round {}, packet {})", prog.name, round, i);
            }
        }
        assert_runtime_state_matches(&cached_dp, &uncached_dp)?;
        assert_runtime_state_matches(&cached_dp, &reference_dp)?;
        all_through_cache(&cached_dp)?;
    }
}

/// `pkts` through `on` as the flow cache serves them and through `off`
/// as one batch each: the same verdicts and, with `tracing`, stage lanes.
fn both(
    on: &mut Dataplane,
    off: &mut Dataplane,
    pkts: &[(u16, &[u8])],
    tracing: bool,
) -> Result<(), TestCaseError> {
    let a = cached_lanes(on, pkts, 0, tracing);
    let b = off.process_batch(pkts, 0);
    prop_assert_eq!(
        a,
        lanes_of(off, &b),
        "cache-on vs cache-off verdicts diverged"
    );
    Ok(())
}

proptest! {
    /// A flow-cache hit counts itself on its entry, and the entry's
    /// applies and counter increments reach the totals by that count when
    /// they are folded: at a read, a checkpoint or a clone, before a sync
    /// or a commit drops or overwrites the entry, and when the cache is
    /// switched off. Over the corpus, every table's hits and misses and
    /// every counter cell read with the cache on equal cache-off at each
    /// of those points:
    /// between batches; after a publication, before and after the batch
    /// whose sync drops the flows it touches; after slot collisions evict
    /// entries that hit (a sweep over 512 flows, three packets each: each
    /// flow misses twice, installs, and hits once); after a
    /// checkpoint, more hits and a restore; on a clone, and after it runs;
    /// and after the cache is switched off. Traced, the cached side reads
    /// the stage lane alone, as a device tap does (a records reader
    /// bypasses the cache, and would fold nothing).
    #[test]
    fn flow_cache_counts_fold_at_every_read(
        prog_idx in 0usize..corpus::corpus().len(),
        pool in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..64)), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 1..32),
        batch in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>(), any::<u8>()), 1..4),
        tracing in any::<bool>(),
    ) {
        let programs = corpus::corpus();
        let prog = &programs[prog_idx % programs.len()];
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let frames: Vec<(u16, Vec<u8>)> = picks
            .iter()
            .map(|ix| {
                let (port, kind, soup) = &pool[usize::from(*ix) % pool.len()];
                (*port, mixed_frame(*kind, soup))
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|(port, f)| (*port, f.as_slice())).collect();
        // Flow `i` is `i` scrambled bytes long: distinct keys whose hashes
        // land in the 4 096 slots at random, so about 32 of the 512 share
        // a slot (a plain length sweep spreads too evenly to collide).
        let lengths: Vec<Vec<u8>> = (0..512u32)
            .map(|i| {
                let mut x = 0x9E37_79B9 ^ i.wrapping_mul(0x85EB_CA6B);
                (0..i).map(|_| { x ^= x << 13; x ^= x >> 17; x ^= x << 5; x as u8 }).collect()
            })
            .collect();
        let port = frames[0].0;
        let sweep: Vec<(u16, &[u8])> = lengths.iter().flat_map(|f| [(port, f.as_slice()); 3]).collect();
        let mut on = Dataplane::new(ir.clone());
        let mut off = Dataplane::new(ir.clone());
        off.set_flow_cache(false);
        for dp in [&mut on, &mut off] {
            dp.set_tracing(tracing);
        }
        for _ in 0..2 {
            both(&mut on, &mut off, &pkts, tracing)?;
            assert_runtime_state_matches(&on, &off)?;
        }
        if !ir.tables.is_empty() {
            let applied = applied_keys(&ir, &pkts);
            let updates: Vec<Update<'_>> = batch.iter().map(|&u| churn_update(&ir, &applied, u)).collect();
            let results = [&on, &off].map(|dp| dp.control_plane().write(&updates));
            prop_assert_eq!(&results[0], &results[1], "{}: write results diverged", prog.name);
            assert_runtime_state_matches(&on, &off)?;
            both(&mut on, &mut off, &pkts, tracing)?;
            assert_runtime_state_matches(&on, &off)?;
        }
        both(&mut on, &mut off, &sweep, tracing)?;
        if on.flow_cache_enabled() {
            prop_assert!(on.cache_stats().occupancy < lengths.len(), "{}: no slot collision", prog.name);
            prop_assert!(on.cache_stats().hits > 0, "{}: the sweep replays", prog.name);
        }
        all_through_cache(&on)?;
        assert_runtime_state_matches(&on, &off)?;
        let checkpoints = (on.checkpoint(), off.checkpoint());
        both(&mut on, &mut off, &pkts, tracing)?;
        on.restore(&checkpoints.0);
        off.restore(&checkpoints.1);
        assert_runtime_state_matches(&on, &off)?;
        both(&mut on, &mut off, &pkts, tracing)?;
        assert_runtime_state_matches(&on, &off)?;
        let (mut on_clone, mut off_clone) = (on.clone(), off.clone());
        assert_runtime_state_matches(&on_clone, &off_clone)?;
        both(&mut on_clone, &mut off_clone, &pkts, tracing)?;
        assert_runtime_state_matches(&on_clone, &off_clone)?;
        assert_runtime_state_matches(&on, &off)?;
        on.set_flow_cache(false);
        assert_runtime_state_matches(&on, &off)?;
    }
}

proptest! {
    /// Cache parity on `liveness_shapes.p4`: a hit replays the header bytes
    /// a miss emitted from copied ingress bytes and built headers alike, so
    /// the cached default, the cache-off compiled engine and the reference
    /// agree on a repetitive stream (a small pool, processed three times),
    /// after a prefix of one-off frames that puts the cache to sleep with
    /// `dormant`. Traced, the cached side reads the stage lane alone, as a
    /// device tap does (a records reader bypasses the cache), and its
    /// verdicts and lanes equal the reference's; the cache-off side and
    /// the reference compare whole decoded traces.
    #[test]
    fn flow_cache_parity_on_liveness_shapes(
        pool in proptest::collection::vec((0u16..4, liveness_case()), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 1..40),
        tags in proptest::collection::vec(0u8..4, 0..4),
        tracing in any::<bool>(),
        dormant in any::<bool>(),
    ) {
        let mut cached_dp = liveness_dataplane(&tags, Engine::Compiled);
        let mut uncached_dp = liveness_dataplane(&tags, Engine::Compiled);
        uncached_dp.set_flow_cache(false);
        let mut reference_dp = liveness_dataplane(&tags, Engine::Reference);
        prop_assert!(cached_dp.flow_cache_enabled(), "liveness_shapes is cacheable");
        for dp in [&mut cached_dp, &mut uncached_dp, &mut reference_dp] {
            dp.set_tracing(tracing);
        }
        let built: Vec<(u16, Vec<u8>)> =
            pool.iter().map(|(port, case)| (*port, liveness_frame(case))).collect();
        let pkts: Vec<(u16, &[u8])> = picks
            .iter()
            .map(|ix| {
                let (port, frame) = &built[usize::from(*ix) % built.len()];
                (*port, frame.as_slice())
            })
            .collect();
        let prefix_frames = if dormant { one_off_frames(&built[0].1) } else { Vec::new() };
        let prefix = as_batch(&prefix_frames, built[0].0);
        // A key installs on its second miss, so the third pass hits.
        for (round, pkts) in [&prefix, &pkts, &pkts, &pkts].into_iter().enumerate() {
            let round = round as u64;
            let u = uncached_dp.process_batch(pkts, round);
            let r = reference_dp.process_batch(pkts, round);
            prop_assert_eq!(&u, &r, "cache-off vs reference");
            let c = cached_lanes(&mut cached_dp, pkts, round, tracing);
            prop_assert_eq!(&c, &lanes_of(&reference_dp, &r), "cache-on vs reference");
        }
        assert_runtime_state_matches(&cached_dp, &uncached_dp)?;
        assert_runtime_state_matches(&cached_dp, &reference_dp)?;
        let stats = cached_dp.cache_stats();
        if dormant {
            prop_assert!(stats.skipped > 0, "the stream meets a dormant cache: {:?}", stats);
        } else {
            prop_assert!(stats.hits > 0, "the third pass replays");
        }
        all_through_cache(&cached_dp)?;
    }
}

// ---------------------------------------------------------------------
// The stage lane: what a device tap reads
// ---------------------------------------------------------------------

/// What a tap-like sink keeps per packet: the verdict, the stage path
/// `stages()` walks and the decoded trace.
#[derive(Default)]
struct LaneSink(Vec<(Verdict, Vec<Stage>, Trace)>);

impl TraceSink for LaneSink {
    fn observe(&mut self, _index: usize, verdict: Verdict, trace: &LazyTrace<'_>) {
        self.0
            .push((verdict, trace.stages().collect(), trace.decode()));
    }
}

/// The stage path a decoded trace's `ParserState`/`TableApply` events
/// name, as IR ids.
fn decoded_stages(dp: &Dataplane, trace: &Trace) -> Vec<Stage> {
    let program = dp.program();
    let states = &program.parser.states;
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ParserState { name } => {
                let sid = states.iter().position(|s| *s.name == **name);
                Some(Stage::State(sid.expect("a traced state exists") as u32))
            }
            TraceEvent::TableApply { table, .. } => {
                let tid = program.table_by_name(table);
                Some(Stage::Table(tid.expect("a traced table exists") as u32))
            }
            _ => None,
        })
        .collect()
}

/// Program `idx` of the corpus (the router with its two routes for
/// `ipv4_forward`), or `liveness_shapes.p4` with every tag installed one
/// past the corpus.
fn lane_dataplane(idx: usize, engine: Engine) -> Dataplane {
    let mut dp = match corpus::corpus().get(idx) {
        Some(p) if p.source == corpus::IPV4_FORWARD => router(),
        Some(p) => Dataplane::new(netdebug_p4::compile(p.source).unwrap()),
        None => liveness_dataplane(&[0, 1, 2, 3], engine),
    };
    dp.set_engine(engine);
    dp
}

proptest! {
    /// The stage lane on the path a device tap runs: `process_batch_with`
    /// plus a sink that walks `stages()`. Over every corpus program and
    /// `liveness_shapes.p4`, with routable, malformed, truncated and
    /// arbitrary frames, `stages()` is exactly the `ParserState` /
    /// `TableApply` events of `decode()` in order on the cache-off compiled
    /// engine and the reference, which agree on verdict, lane and trace.
    /// The cached compiled engine is read as a tap reads it (a records
    /// reader bypasses the cache), and its verdicts and lanes equal the
    /// reference's. Three rounds of one stream: a key is installed on its
    /// second miss, so the third round reads every cacheable packet's lane
    /// in place from its entry.
    #[test]
    fn stage_lane_matches_records(
        prog_idx in 0usize..=corpus::corpus().len(),
        pool in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..96)), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 1..40),
        tracing in any::<bool>(),
    ) {
        let mut cached_dp = lane_dataplane(prog_idx, Engine::Compiled);
        let mut uncached_dp = lane_dataplane(prog_idx, Engine::Compiled);
        uncached_dp.set_flow_cache(false);
        let mut reference_dp = lane_dataplane(prog_idx, Engine::Reference);
        for dp in [&mut cached_dp, &mut uncached_dp, &mut reference_dp] {
            dp.set_tracing(tracing);
        }
        let built: Vec<(u16, Vec<u8>)> = pool
            .iter()
            .map(|(port, kind, soup)| (*port, mixed_frame(*kind, soup)))
            .collect();
        let pkts: Vec<(u16, &[u8])> = picks
            .iter()
            .map(|ix| {
                let (port, frame) = &built[usize::from(*ix) % built.len()];
                (*port, frame.as_slice())
            })
            .collect();
        for round in 0..3 {
            let mut runs = [LaneSink::default(), LaneSink::default()];
            for (dp, sink) in [&mut uncached_dp, &mut reference_dp].into_iter().zip(&mut runs) {
                dp.process_batch_with(&pkts, 0, sink);
                prop_assert_eq!(sink.0.len(), pkts.len());
                for (i, (_, stages, trace)) in sink.0.iter().enumerate() {
                    prop_assert_eq!(stages, &decoded_stages(dp, trace),
                        "lane vs records, {:?} (round {}, packet {})", dp.engine(), round, i);
                    prop_assert_eq!(trace.events.is_empty(), !tracing);
                }
            }
            let [uncached, reference] = &runs;
            let mut cached = StageSink::default();
            cached_dp.process_batch_with(&pkts, 0, &mut cached);
            prop_assert_eq!(cached.0.len(), pkts.len());
            for (i, ((c, u), r)) in cached.0.iter().zip(&uncached.0).zip(&reference.0).enumerate() {
                prop_assert_eq!(u, r, "cache-off vs reference (round {}, packet {})", round, i);
                prop_assert_eq!((&c.0, &c.1), (&r.0, &r.1),
                    "cache-on vs reference (round {}, packet {})", round, i);
            }
        }
        if cached_dp.flow_cache_enabled() {
            prop_assert!(cached_dp.cache_stats().hits >= pkts.len() as u64,
                "the third round replays every packet: {:?}", cached_dp.cache_stats());
        }
        assert_runtime_state_matches(&cached_dp, &uncached_dp)?;
        assert_runtime_state_matches(&cached_dp, &reference_dp)?;
    }
}

/// What a device tap keeps per packet: the verdict and the stage path.
/// It reads no records, so its batches record the stage lane alone.
#[derive(Default)]
struct StageSink(Vec<(Verdict, Vec<Stage>)>);

impl TraceSink for StageSink {
    fn observe(&mut self, _index: usize, verdict: Verdict, trace: &LazyTrace<'_>) {
        self.0.push((verdict, trace.stages().collect()));
    }

    fn reads_records(&self) -> bool {
        false
    }
}

/// `pkts` through a cached data plane the way the flow cache serves
/// them (a records reader bypasses it): untraced `process_batch`, or
/// with `tracing` a `StageSink`, as a device tap reads. Each packet's
/// verdict and stage lane (empty untraced).
fn cached_lanes(
    dp: &mut Dataplane,
    pkts: &[(u16, &[u8])],
    now: u64,
    tracing: bool,
) -> Vec<(Verdict, Vec<Stage>)> {
    if !tracing {
        return dp
            .process_batch(pkts, now)
            .into_iter()
            .map(|(v, _)| (v, Vec::new()))
            .collect();
    }
    let mut sink = StageSink::default();
    dp.process_batch_with(pkts, now, &mut sink);
    sink.0
}

/// A `process_batch` result as `cached_lanes` reads it: each verdict and
/// the stage path of its decoded trace (empty untraced).
fn lanes_of(dp: &Dataplane, out: &[(Verdict, Option<Trace>)]) -> Vec<(Verdict, Vec<Stage>)> {
    out.iter()
        .map(|(v, t)| {
            (
                v.clone(),
                t.as_ref().map_or_else(Vec::new, |t| decoded_stages(dp, t)),
            )
        })
        .collect()
}

/// Every packet `dp` processed went through its flow cache as a hit, a
/// miss or a skip: none bypassed it as a records reader. Holds trivially
/// where the cache is off.
fn all_through_cache(dp: &Dataplane) -> Result<(), TestCaseError> {
    if dp.flow_cache_enabled() {
        let s = dp.cache_stats();
        prop_assert_eq!(
            s.hits + s.misses + s.skipped,
            dp.packets_processed(),
            "every packet is a hit, a miss or a skip: {:?}",
            s
        );
    }
    Ok(())
}

proptest! {
    /// One cached data plane fed by sinks that want different amounts of
    /// trace: each round of one stream goes to a records reader (a
    /// `LaneSink`, which bypasses the cache) or to a stages-only
    /// `StageSink`, so records readers run between stage walkers that the
    /// cache serves, and must neither read nor disturb its entries.
    /// Over every corpus program and `liveness_shapes.p4`, its verdicts and
    /// stage lanes equal those of a cache-off compiled data plane and of the
    /// reference (both reading every record), every trace the records sink
    /// decodes equals the reference's, and the runtime state agrees.
    #[test]
    fn mixed_recording_levels_keep_cache_parity(
        prog_idx in 0usize..=corpus::corpus().len(),
        pool in proptest::collection::vec(
            (0u16..4, 0u8..5, proptest::collection::vec(any::<u8>(), 0..96)), 1..6),
        picks in proptest::collection::vec(any::<u16>(), 1..40),
        reads_records in proptest::collection::vec(any::<bool>(), 2..6),
    ) {
        let mut cached_dp = lane_dataplane(prog_idx, Engine::Compiled);
        let mut uncached_dp = lane_dataplane(prog_idx, Engine::Compiled);
        uncached_dp.set_flow_cache(false);
        let mut reference_dp = lane_dataplane(prog_idx, Engine::Reference);
        let built: Vec<(u16, Vec<u8>)> = pool
            .iter()
            .map(|(port, kind, soup)| (*port, mixed_frame(*kind, soup)))
            .collect();
        let pkts: Vec<(u16, &[u8])> = picks
            .iter()
            .map(|ix| {
                let (port, frame) = &built[usize::from(*ix) % built.len()];
                (*port, frame.as_slice())
            })
            .collect();
        for (round, &records) in reads_records.iter().enumerate() {
            let (mut uncached, mut reference) = (LaneSink::default(), LaneSink::default());
            uncached_dp.process_batch_with(&pkts, 0, &mut uncached);
            reference_dp.process_batch_with(&pkts, 0, &mut reference);
            prop_assert_eq!(&uncached.0, &reference.0, "cache-off vs reference (round {})", round);
            let cached: Vec<(Verdict, Vec<Stage>)> = if records {
                let mut sink = LaneSink::default();
                cached_dp.process_batch_with(&pkts, 0, &mut sink);
                for (i, (c, r)) in sink.0.iter().zip(&reference.0).enumerate() {
                    prop_assert_eq!(&c.2, &r.2, "decoded trace (round {}, packet {})", round, i);
                }
                sink.0.into_iter().map(|(v, stages, _)| (v, stages)).collect()
            } else {
                let mut sink = StageSink::default();
                cached_dp.process_batch_with(&pkts, 0, &mut sink);
                sink.0
            };
            prop_assert_eq!(cached.len(), pkts.len());
            for (i, (c, r)) in cached.iter().zip(&reference.0).enumerate() {
                prop_assert_eq!(&c.0, &r.0, "verdict (round {}, packet {})", round, i);
                prop_assert_eq!(&c.1, &r.1, "stage lane (round {}, packet {})", round, i);
            }
        }
        assert_runtime_state_matches(&cached_dp, &uncached_dp)?;
        assert_runtime_state_matches(&cached_dp, &reference_dp)?;
    }
}

// ---------------------------------------------------------------------
// Wildcarded flow-cache keys: streams that sweep a table key's low byte
// ---------------------------------------------------------------------

/// A flow's base key: its stream sweeps the key's low byte from here.
type Base = u128;

/// Program `ternary` (`feature_wide_key`: one 128-bit ternary key, the
/// whole header) or `ipv4_forward`, as a three-way parity set: the
/// cached compiled engine, the cache-off one and the reference.
fn swept_dataplanes(ternary: bool) -> [Dataplane; 3] {
    let source = if ternary {
        corpus::FEATURE_WIDE_KEY
    } else {
        corpus::IPV4_FORWARD
    };
    let ir = netdebug_p4::compile(source).unwrap();
    let cached = Dataplane::new(ir.clone());
    let mut uncached = Dataplane::new(ir.clone());
    uncached.set_flow_cache(false);
    let mut reference = Dataplane::new(ir);
    reference.set_engine(Engine::Reference);
    [cached, uncached, reference]
}

/// The low key byte of packet `i` of a stream that sweeps it in strides
/// of `step` (made odd, so a stream of up to 256 packets never repeats
/// a byte, and reaches both halves of it early).
fn swept_low(i: u8, step: u8) -> u8 {
    i.wrapping_mul(step | 1)
}

/// Packet `i` of a stream from `base`: the key's low byte is `i`. On the
/// router, `kind` 1 has TTL 0 (dropped before the lookup) and `kind` 2 is
/// IPv4 version 5 (rejected by the parser); the frame is `size` bytes of
/// UDP payload longer for `size` 1.
fn swept_frame(ternary: bool, base: Base, i: u8, kind: u8, size: u8) -> Vec<u8> {
    let key = base & !0xFF | u128::from(i);
    let payload = vec![0x5A; 8 + 200 * usize::from(size)];
    if ternary {
        return [&key.to_be_bytes()[..], &payload].concat();
    }
    let dst = Ipv4Address::from_u32(key as u32);
    let mut f = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
    .ttl(if kind == 1 { 0 } else { 64 })
    .udp(1000, 2000)
    .payload(&payload)
    .build();
    if kind == 2 {
        f[14] = 0x55;
    }
    f
}

/// A table entry for the swept-key parity test, near base `near` when
/// it is `Some` (its value agrees with the base above the low byte): on
/// the router a route of `len` bits (`/0` to `/32`), or a `Value` entry
/// for `len` 33; on the ternary program a rule whose mask keeps the top
/// `len` bytes of the key (all sixteen: a `Value` entry for `len` 16).
fn swept_entry(ternary: bool, len: u8, value: u128, port: u8, priority: u8) -> TableEntry<'static> {
    let port = u128::from(port % 4);
    if ternary {
        let len = u32::from(len % 17);
        let pattern = match len {
            16 => IrPattern::Value(value),
            len => {
                let mask = u128::MAX.checked_shl(8 * (16 - len)).unwrap_or(0);
                IrPattern::Mask {
                    value: value & mask,
                    mask,
                }
            }
        };
        return TableEntry::new(vec![pattern], "fwd", vec![port], i32::from(priority % 4));
    }
    match len % 34 {
        33 => TableEntry::new(
            vec![IrPattern::Value(value & 0xFFFF_FFFF)],
            "ipv4_forward",
            vec![0xAA, port],
            32,
        ),
        len => TableEntry::lpm(
            value & 0xFFFF_FFFF,
            len.into(),
            "ipv4_forward",
            vec![0xBB, port],
        ),
    }
}

/// The key value of a swept-parity draw: next to base `bases[pick]` (its
/// low byte replaced by `low`) when `near`, else `far` itself.
fn swept_value(bases: &[Base], (near, pick, low, far): (bool, usize, u8, u128)) -> u128 {
    if near {
        bases[pick % bases.len()] & !0xFF | u128::from(low)
    } else {
        far
    }
}

/// What a round of the swept-key parity test reads: each packet's
/// verdict, and the stage lane or the whole decoded trace where the
/// round records them.
type Round = Vec<(Verdict, Vec<Stage>, Option<Trace>)>;

/// One round of `pkts` through `dp` at recording level `level`: untraced
/// (0), every record (1) or the stage lane alone, as a device tap reads
/// it (2).
fn swept_round(dp: &mut Dataplane, pkts: &[(u16, &[u8])], level: u8) -> Round {
    match level {
        0 | 1 => {
            dp.set_tracing(level == 1);
            let out = dp.process_batch(pkts, 0);
            out.into_iter().map(|(v, t)| (v, Vec::new(), t)).collect()
        }
        _ => {
            let mut sink = StageSink::default();
            dp.process_batch_with(pkts, 0, &mut sink);
            sink.0.into_iter().map(|(v, s)| (v, s, None)).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cache parity where entries are wildcarded: on `ipv4_forward` (an
    /// LPM key) and `feature_wide_key` (a ternary one), streams sweep the
    /// low byte of the key field over random entry sets near and far from
    /// the streams — routes of every length, `/0`-`/7` and `/25`-`/32`
    /// included, rules masking off any number of low bytes, and `Value`
    /// entries — so a flow's entry keys on only the bytes its lookup
    /// examined and serves packets with other low bytes. Between rounds,
    /// random write batches insert `/32`s, `Value` entries and routes
    /// inside the streams' prefixes, delete entries and clear the table.
    /// Rounds run untraced, with every record or with the stage lane
    /// alone, and the cached default, the cache-off compiled engine and
    /// the reference agree on every write's result, every verdict, stage
    /// lane and trace, the table statistics and the counters.
    #[test]
    fn flow_cache_parity_on_swept_keys(
        ternary in any::<bool>(),
        bases in proptest::collection::vec(any::<u128>(), 1..4),
        entries in proptest::collection::vec(
            (0u8..34, (any::<bool>(), any::<usize>(), any::<u8>(), any::<u128>()), any::<u8>(), any::<u8>()),
            0..10),
        streams in proptest::collection::vec((any::<usize>(), 0u16..4, 0u8..3, 0u8..2), 1..4),
        sweep in 1u8..48,
        step in any::<u8>(),
        churn in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..8, 0u8..34, (any::<bool>(), any::<usize>(), any::<u8>(), any::<u128>()), any::<u8>()),
                0..4),
            2),
        levels in proptest::collection::vec(0u8..3, 3),
    ) {
        let table = if ternary { "wide" } else { "ipv4_lpm" };
        let bases: Vec<Base> = bases
            .iter()
            .map(|&b| if ternary { b } else { b & 0xFFFF_FFFF })
            .collect();
        let mut dps = swept_dataplanes(ternary);
        let cps = dps.each_ref().map(|dp| dp.control_plane());
        let initial: Vec<Update<'_>> = entries
            .iter()
            .map(|&(len, at, port, priority)| {
                Update::Insert(table, swept_entry(ternary, len, swept_value(&bases, at), port, priority))
            })
            .collect();
        for cp in &cps {
            // A batch that overfills no table lands whole.
            cp.write(&initial).unwrap();
        }
        let frames: Vec<(u16, Vec<u8>)> = streams
            .iter()
            .flat_map(|&(pick, port, kind, size)| {
                let base = bases[pick % bases.len()];
                (0..sweep).map(move |i| {
                    (port, swept_frame(ternary, base, swept_low(i, step), kind, size))
                })
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|(port, f)| (*port, f.as_slice())).collect();
        for (round, &level) in levels.iter().enumerate() {
            if let Some(batch) = round.checked_sub(1).map(|b| &churn[b]) {
                let updates: Vec<Update<'_>> = batch
                    .iter()
                    .map(|&(sel, len, (near, pick, low, far), port)| {
                        let value = swept_value(&bases, (near, pick, low, far));
                        match sel {
                            // On a packet of a stream: a host route, or a
                            // `Value` entry (on the router, an exact match
                            // in an LPM table).
                            0 | 1 => {
                                let low = swept_low(low % sweep, step);
                                let value = swept_value(&bases, (true, pick, low, far));
                                Update::Insert(
                                table,
                                    swept_entry(ternary, if ternary { 16 } else { 32 + sel }, value, port, 3),
                                )
                            }
                            2..=4 => Update::Insert(table, swept_entry(ternary, len, value, port, port)),
                            5 | 6 => {
                                let entry = &entries[usize::from(len) % entries.len().max(1)..];
                                match entry.first() {
                                    Some(&(len, at, port, priority)) => Update::Delete(
                                        table,
                                        swept_entry(ternary, len, swept_value(&bases, at), port, priority),
                                    ),
                                    None => Update::Clear(table),
                                }
                            }
                            _ => Update::Clear(table),
                        }
                    })
                    .collect();
                let [c, u, r] = cps.each_ref().map(|cp| cp.write(&updates));
                prop_assert_eq!(&c, &u, "write results diverged");
                prop_assert_eq!(&c, &r, "write results diverged");
            }
            let [c, u, r] = dps.each_mut().map(|dp| swept_round(dp, &pkts, level));
            for (i, ((c, u), r)) in c.iter().zip(&u).zip(&r).enumerate() {
                prop_assert_eq!(c, u, "cache-on vs cache-off (round {}, level {}, packet {})", round, level, i);
                prop_assert_eq!(c, r, "cache-on vs reference (round {}, level {}, packet {})", round, level, i);
            }
        }
        let [cached, uncached, reference] = &dps;
        assert_runtime_state_matches(cached, uncached)?;
        assert_runtime_state_matches(cached, reference)?;
    }
}
