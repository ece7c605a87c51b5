//! Experiment E12 — compiled lookup indexes vs the seed linear scan.
//!
//! Every published `EntrySnapshot` carries a `LookupIndex` shaped by the
//! table's key signature: single-key exact tables hash the key,
//! single-key LPM tables hash each prefix length and probe only the
//! lengths a filter on the key's top octet names, and ternary and
//! multi-key exact tables group their entries by mask tuple and probe
//! one hash per group (tuple-space search); the priority-ordered scan
//! that *defines* the semantics stays as the oracle. This bench sweeps
//! entry counts {1, 16, 256, 4096} × {exact, lpm, ternary, ternary8}
//! and measures ns/lookup through the index (`EntrySnapshot::lookup`)
//! against the seed scan (`EntrySnapshot::lookup_scan`), plus
//! end-to-end `process_batch` throughput on an exact-table program as
//! the table fills. `lpm` cycles seven prefix lengths; `ternary` holds
//! full-mask entries only — one mask tuple, one probe; `ternary8` deals
//! its entries over eight mask tuples, which is what a rule set looks
//! like and what a lookup's cost actually scales with. One more row,
//! `lpm25`, is a router's table: 1 000 routes, 40 at each length
//! /8../32 under random first octets laid out as the repo benchmark's
//! `router_many_flows` lays them out, probed with hits spread over the
//! lengths and 20 % misses under octets no route uses.
//!
//! Numbers land in `BENCH_lookup.json`. The smoke assertions guard the
//! index itself: exact-match and single-tuple ternary lookup cost must
//! stay flat across 1 → 4096 entries (losing the index would reintroduce
//! O(n) applies silently), the eight-tuple table must stay within a
//! small factor of its own 256-entry cost and far ahead of its scan,
//! the exact and LPM cells must sit where they sat before the ternary
//! index arrived, the 25-length router table must cost less than twice
//! the seven-length cell (a walk over every length costs about three
//! times), while the measured scan must grow with the entry count.

use netdebug_bench::{banner, dec, host_cores, row, switch_dataplane, time_ops, Report};
use netdebug_dataplane::{lpm_pattern, EntrySnapshot, RuntimeEntry, TableState};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::ir::{ActionCall, ActionIr, IrExpr, IrPattern, TableIr, TableKey};
use netdebug_packet::{EthernetAddress, PacketBuilder};
use std::hint::black_box;
use std::process::ExitCode;

const SIZES: [usize; 4] = [1, 16, 256, 4096];
/// Probe keys per measurement pass (mix of hits and misses).
const PROBES: usize = 1024;
/// Prefix lengths the LPM sweep cycles through — shared by entry
/// installation and probe-key construction so the hit probes always
/// target installed prefixes.
const LENS: [u16; 7] = [8, 12, 16, 20, 24, 28, 32];
/// Minimum wall time per measured cell, seconds.
const MIN_MEASURE_S: f64 = 0.05;
/// Routes per prefix length of the `lpm25` row, at each of /8../32.
const LPM25_PER_LEN: usize = 40;

/// One row family of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sweep {
    Exact,
    Lpm,
    /// Full-mask ternary entries: one mask tuple.
    Ternary,
    /// Ternary entries dealt round-robin over [`MASKS8`].
    Ternary8,
}

impl Sweep {
    fn name(self) -> &'static str {
        match self {
            Sweep::Exact => "exact",
            Sweep::Lpm => "lpm",
            Sweep::Ternary => "ternary",
            Sweep::Ternary8 => "ternary8",
        }
    }

    fn match_kind(self) -> MatchKind {
        match self {
            Sweep::Exact => MatchKind::Exact,
            Sweep::Lpm => MatchKind::Lpm,
            Sweep::Ternary | Sweep::Ternary8 => MatchKind::Ternary,
        }
    }
}

/// The eight masks of the `ternary8` sweep: each hides a different
/// nibble (or none).
const MASKS8: [u128; 8] = [
    0xFFFF_FFFF,
    0xFFFF_FFF0,
    0xFFFF_FF0F,
    0xFFFF_F0FF,
    0xFFFF_0FFF,
    0xFFF0_FFFF,
    0xFF0F_FFFF,
    0xF0FF_FFFF,
];

/// The value of `ternary8` entry `i`: two copies of `i` (12 bits at the
/// sweep's largest), so whichever nibble the entry's mask hides, the
/// other copy keeps the masked values of a group distinct. The top
/// nibble stays clear, which is what keeps the miss probes misses.
fn value8(i: usize) -> u128 {
    (i | i << 16) as u128
}

fn standalone_table(kind: MatchKind) -> (TableIr, Vec<ActionIr>) {
    let actions = vec![ActionIr {
        name: "fwd".into(),
        control: "I".into(),
        params: vec![("port".into(), 9)],
        ops: vec![],
    }];
    let table = TableIr {
        name: "t".into(),
        control: "I".into(),
        keys: vec![TableKey {
            expr: IrExpr::konst(0, 32),
            kind,
            width: 32,
        }],
        actions: vec![0],
        default_action: ActionCall {
            action: 0,
            args: vec![0],
        },
        size: 8192,
        const_entries: vec![],
    };
    (table, actions)
}

/// Install `n` sweep-shaped entries and return the filled state.
fn filled_state(sweep: Sweep, n: usize) -> TableState {
    let (table, actions) = standalone_table(sweep.match_kind());
    let state = TableState::new(&table);
    for i in 0..n {
        let (pattern, priority) = match sweep {
            Sweep::Exact => (IrPattern::Value(i as u128), 0),
            Sweep::Lpm => {
                let len = LENS[i % LENS.len()];
                // Keep the prefix's leading bit clear so the 0xFE... miss
                // probes stay outside every level, whatever the sweep size
                // (an unbounded index would wrap the /8 level's first
                // octet across the whole space and swallow the misses).
                let j = (i / LENS.len()) as u128 % (1u128 << (len - 1));
                (lpm_pattern(j << (32 - len), len, 32), i32::from(len))
            }
            // Full-mask ternary entries with distinct priorities: the
            // worst case for the scan, and exactly what a priority TCAM
            // would hold.
            Sweep::Ternary => (
                IrPattern::Mask {
                    value: i as u128,
                    mask: 0xFFFF_FFFF,
                },
                i as i32,
            ),
            // Eight mask tuples dealt round-robin, distinct priorities.
            Sweep::Ternary8 => (
                IrPattern::Mask {
                    value: value8(i),
                    mask: MASKS8[i % 8],
                },
                i as i32,
            ),
        };
        state
            .install(
                &table,
                &actions,
                RuntimeEntry {
                    patterns: vec![pattern],
                    action: ActionCall {
                        action: 0,
                        args: vec![(i % 511) as u128],
                    },
                    priority,
                },
            )
            .expect("capacity 8192 covers every sweep size");
    }
    state
}

/// Probe keys for a filled table: alternating hits (installed values /
/// prefixes) and misses (values past the installed range). The
/// `ternary8` hits are stratified over the whole priority order, so the
/// scan's mean depth is half the table whatever its size.
fn probe_keys(sweep: Sweep, n: usize) -> Vec<u128> {
    (0..PROBES)
        .map(|p| {
            let i = p % n.max(1);
            if p % 2 == 0 {
                match sweep {
                    Sweep::Ternary8 => value8(p * n / PROBES),
                    Sweep::Lpm => {
                        let len = LENS[i % LENS.len()];
                        let j = (i / LENS.len()) as u128 % (1u128 << (len - 1));
                        // A key inside the prefix; /32 entries only match
                        // their exact value, so no low bit is set there.
                        (j << (32 - len)) | u128::from(len < 32)
                    }
                    _ => i as u128,
                }
            } else {
                // Miss: above every installed exact/ternary value and
                // outside the LPM prefixes' first octets.
                0xFE00_0000 + p as u128
            }
        })
        .collect()
}

/// A deterministic xorshift64 stream.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The `lpm25` table and its probe keys, laid out as the repo
/// benchmark's `router_many_flows` lays out its routes: /8../24 under
/// random first octets 1..=99, /25../32 under 100..=119. Every fifth
/// probe is a miss under 128..=255, the others hit a route, the lengths
/// taken in turn, at random low bits.
fn router_table() -> (TableState, Vec<u128>) {
    let (table, actions) = standalone_table(MatchKind::Lpm);
    let state = TableState::new(&table);
    let mut next = xorshift(0x2545_F491_4F6C_DD1D);
    let mut routes: Vec<(u128, u16)> = Vec::new();
    for len in 8..=32u16 {
        while routes.iter().filter(|r| r.1 == len).count() < LPM25_PER_LEN {
            let mask = u128::from(u32::MAX << (32 - len));
            let octets = if len <= 24 { 1..100 } else { 100..120 };
            let octet = octets.start + next() % (octets.end - octets.start);
            let prefix = u128::from(octet << 24 | next() & 0x00FF_FFFF) & mask;
            if routes.contains(&(prefix, len)) {
                continue;
            }
            routes.push((prefix, len));
            let entry = RuntimeEntry {
                patterns: vec![lpm_pattern(prefix, len, 32)],
                action: ActionCall {
                    action: 0,
                    args: vec![routes.len() as u128],
                },
                priority: i32::from(len),
            };
            state
                .install(&table, &actions, entry)
                .expect("capacity 8192 covers the routes");
        }
    }
    let keys = (0..PROBES)
        .map(|p| {
            let low = u128::from(next() as u32);
            if p % 5 == 4 {
                return 0x8000_0000 | low;
            }
            // The p-th hit takes length 8 + (its rank mod 25).
            let (prefix, len) = routes[(p - p / 5) % 25 * LPM25_PER_LEN + p % LPM25_PER_LEN];
            prefix | low & u128::from(u32::MAX.checked_shr(u32::from(len)).unwrap_or(0))
        })
        .collect();
    (state, keys)
}

/// ns/lookup of `lookup` over one probe set, timed for at least
/// [`MIN_MEASURE_S`].
fn ns_per_lookup<R>(keys: &[u128], lookup: impl Fn(&[u128]) -> R) -> f64 {
    let pass = || {
        for k in keys {
            black_box(lookup(std::slice::from_ref(k)));
        }
        keys.len()
    };
    time_ops(1, MIN_MEASURE_S, pass).best_ns
}

fn main() -> ExitCode {
    banner("E12: table snapshot lookup indexes (exact/lpm/ternary sweep)");
    let mut report = Report::new("table_scale", "BENCH_lookup.json", PROBES);
    report.set("probes", PROBES);
    report.set("cores", host_cores());

    // (indexed, scan) ns of one filled table, and its row.
    let mut measure = |kind: &str, state: &TableState, keys: &[u128]| {
        let snap: &EntrySnapshot = &state.snapshot();
        let indexed = ns_per_lookup(keys, |k| snap.lookup(k));
        let scan = ns_per_lookup(keys, |k| snap.lookup_scan(k));
        // The index must agree with the scan on every probe — a cheap
        // end-of-run sanity net under the proptests.
        for k in keys {
            assert_eq!(
                snap.lookup(std::slice::from_ref(k)),
                snap.lookup_scan(std::slice::from_ref(k)),
                "index/scan divergence at key {k:#x} ({kind}, {} entries)",
                snap.len()
            );
        }
        report.row(row!["kind" => kind, "entries" => snap.len(),
            "indexed_ns" => dec(indexed, 1), "scan_ns" => dec(scan, 1)]);
        (indexed, scan)
    };
    // (indexed, scan) ns per (sweep, size), for the gates below.
    let mut measured: Vec<(Sweep, usize, f64, f64)> = Vec::new();
    for sweep in [Sweep::Exact, Sweep::Lpm, Sweep::Ternary, Sweep::Ternary8] {
        for &n in &SIZES {
            let (indexed, scan) =
                measure(sweep.name(), &filled_state(sweep, n), &probe_keys(sweep, n));
            measured.push((sweep, n, indexed, scan));
        }
    }
    let (router, router_keys) = router_table();
    let (lpm25_idx, lpm25_scan) = measure("lpm25", &router, &router_keys);
    // The gate below sets lpm25 against the 7-length cell at 4096
    // entries. Time the two again in alternation, best of five each, so
    // that a busy moment of the host lands on both or on neither.
    let (lpm_4k, lpm_4k_keys) = (filled_state(Sweep::Lpm, 4096), probe_keys(Sweep::Lpm, 4096));
    let indexed = |state: &TableState, keys: &[u128]| {
        let snap: &EntrySnapshot = &state.snapshot();
        ns_per_lookup(keys, |k| snap.lookup(k))
    };
    let (mut lpm_paired, mut lpm25_paired) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        lpm_paired = lpm_paired.min(indexed(&lpm_4k, &lpm_4k_keys));
        lpm25_paired = lpm25_paired.min(indexed(&router, &router_keys));
    }

    // End to end: an exact-table program's untraced batch throughput as
    // the table fills. The compiled hash keeps pps flat; the seed scan
    // degraded linearly with occupancy.
    let mut batch_pps = Vec::new();
    for &n in &SIZES {
        let mut dp = switch_dataplane(0x0200_0000_0000, n);
        dp.set_tracing(false);
        let frames: Vec<Vec<u8>> = (0..2048)
            .map(|i| {
                PacketBuilder::ethernet(
                    EthernetAddress::new(2, 0, 0, 0, 0, 1),
                    // Every frame hits an installed entry, whatever the
                    // sweep size — the workload stays uniform as n grows.
                    EthernetAddress::new(2, 0, 0, 0, 0, (i % n.min(256)) as u8),
                )
                .payload(b"table-scale")
                .build()
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| ((i % 4) as u16, f.as_slice()))
            .collect();
        let pps = time_ops(1, 2.0 * MIN_MEASURE_S, || {
            black_box(dp.process_batch(&pkts, 0));
            pkts.len()
        })
        .rate();
        report.row(row!["workload" => "batch_exact", "entries" => n, "pps" => dec(pps, 0)]);
        batch_pps.push(pps);
    }

    // ---- Gates (run in CI): losing the index must fail loudly ----
    let cell = |sweep: Sweep, n: usize| {
        let hit = measured.iter().find(|(k, m, ..)| *k == sweep && *m == n);
        hit.map(|&(_, _, i, s)| (i, s)).expect("measured above")
    };
    let (exact_idx_1, exact_scan_1) = cell(Sweep::Exact, 1);
    let (exact_idx_4k, exact_scan_4k) = cell(Sweep::Exact, 4096);
    // Both ends of the sweep are one hash probe. The 8x slack absorbs
    // timer noise on shared single-core CI hosts, not a linear factor (the
    // scan's 1 -> 4096 ratio is ~three orders of magnitude).
    report.gate(
        "exact indexed lookup stays flat 1 -> 4096 entries (< 8x): the hash index is there",
        exact_idx_4k < exact_idx_1 * 8.0,
        format!("{exact_idx_1:.1} ns at 1 entry vs {exact_idx_4k:.1} ns at 4096"),
    );
    report.gate(
        "the seed scan grows with entry count (> 8x): the baseline is really the scan",
        exact_scan_4k > exact_scan_1 * 8.0,
        format!("{exact_scan_1:.1} -> {exact_scan_4k:.1} ns"),
    );
    report.gate(
        "indexed exact lookup beats the scan 4x at 4096 entries",
        exact_idx_4k * 4.0 < exact_scan_4k,
        format!("{exact_idx_4k:.1} ns vs {exact_scan_4k:.1} ns"),
    );
    // The exact and LPM cells did not move when ternary tables got their
    // index: ≈ 5.5 ns and ≈ 17-24 ns on the 2-core box it arrived on.
    // The ceilings leave a shared CI host a factor of four.
    let lpm_idx_4k = cell(Sweep::Lpm, 4096).0;
    report.gate(
        "indexed exact < 22 ns and LPM < 96 ns at 4096 entries (bands ≈ 5.5 / ≈ 24 ns)",
        exact_idx_4k < 22.0 && lpm_idx_4k < 96.0,
        format!("exact {exact_idx_4k:.1} ns, LPM {lpm_idx_4k:.1} ns"),
    );
    // The router's table probes the few lengths its first octets hold,
    // not all 25: a walk over every length probed ≈ 15 maps a lookup
    // against the 7-length cell's ≈ 5, and read about 3x its cost.
    report.gate(
        "25-length LPM (router shape) beats its scan 8x",
        lpm25_idx * 8.0 < lpm25_scan,
        format!("{lpm25_idx:.1} ns vs {lpm25_scan:.1} ns"),
    );
    report.gate(
        "25-length LPM costs < 2x the 7-length LPM cell at 4096 entries: the length filter is there",
        lpm25_paired < lpm_paired * 2.0,
        format!("{lpm25_paired:.1} ns vs {lpm_paired:.1} ns, timed in alternation"),
    );
    // One mask tuple is one hash probe, however many entries share it.
    let (ternary_idx_1, ternary_idx_4k) = (cell(Sweep::Ternary, 1).0, cell(Sweep::Ternary, 4096).0);
    report.gate(
        "single-tuple ternary lookup stays flat 1 -> 4096 entries (< 8x): the tuple-space index is there",
        ternary_idx_4k < ternary_idx_1 * 8.0,
        format!("{ternary_idx_1:.1} ns at 1 entry vs {ternary_idx_4k:.1} ns at 4096"),
    );
    // Eight tuples are eight probes at 256 entries and at 4096 (colder
    // buckets aside), and nowhere near the scan of half the table.
    let ternary8_idx_256 = cell(Sweep::Ternary8, 256).0;
    let (ternary8_idx_4k, ternary8_scan_4k) = cell(Sweep::Ternary8, 4096);
    report.gate(
        "eight-tuple ternary lookup stays within 4x from 256 to 4096 entries",
        ternary8_idx_4k < ternary8_idx_256 * 4.0,
        format!("{ternary8_idx_256:.1} ns at 256 entries vs {ternary8_idx_4k:.1} ns at 4096"),
    );
    report.gate(
        "eight-tuple ternary lookup beats its scan 8x at 4096 entries",
        ternary8_idx_4k * 8.0 < ternary8_scan_4k,
        format!("{ternary8_idx_4k:.1} ns vs {ternary8_scan_4k:.1} ns"),
    );
    let (pps_1, pps_4k) = (batch_pps[0], batch_pps[SIZES.len() - 1]);
    report.gate(
        "batch throughput holds (> 0.5x) while the exact table fills 1 -> 4096",
        pps_4k > pps_1 * 0.5,
        format!("{pps_1:.0} pps at 1 entry vs {pps_4k:.0} pps at 4096"),
    );
    report.finish()
}
