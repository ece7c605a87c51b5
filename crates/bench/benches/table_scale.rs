//! Experiment E12 — compiled lookup indexes vs the seed linear scan.
//!
//! Every published `EntrySnapshot` carries a `LookupIndex` shaped by the
//! table's key signature: exact tables hash the packed key tuple,
//! single-key LPM tables bucket by priority (prefix length) with a
//! uniform-mask hash per level, and ternary tables group their entries
//! by mask tuple and probe one hash per group (tuple-space search); the
//! priority-ordered scan that *defines* the semantics stays as the
//! oracle. This bench sweeps entry counts {1, 16, 256, 4096} × {exact,
//! lpm, ternary, ternary8} and measures ns/lookup through the index
//! (`EntrySnapshot::lookup`) against the seed scan
//! (`EntrySnapshot::lookup_scan`), plus end-to-end `process_batch`
//! throughput on an exact-table program as the table fills. `ternary`
//! holds full-mask entries only — one mask tuple, one probe; `ternary8`
//! deals its entries over eight mask tuples, which is what a rule set
//! looks like and what a lookup's cost actually scales with.
//!
//! Numbers land in `BENCH_lookup.json`. The smoke assertions guard the
//! index itself: exact-match and single-tuple ternary lookup cost must
//! stay flat across 1 → 4096 entries (losing the index would reintroduce
//! O(n) applies silently), the eight-tuple table must stay within a
//! small factor of its own 256-entry cost and far ahead of its scan,
//! the exact and LPM cells must sit where they sat before the ternary
//! index arrived, while the measured scan must grow with the entry
//! count.

use netdebug_bench::banner;
use netdebug_dataplane::{lpm_pattern, Dataplane, RuntimeEntry, TableState};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::corpus;
use netdebug_p4::ir::{ActionCall, ActionIr, IrExpr, IrPattern, TableIr, TableKey};
use netdebug_packet::{EthernetAddress, PacketBuilder};
use std::time::Instant;

const SIZES: [usize; 4] = [1, 16, 256, 4096];
/// Probe keys per measurement pass (mix of hits and misses).
const PROBES: usize = 1024;
/// Prefix lengths the LPM sweep cycles through — shared by entry
/// installation and probe-key construction so the hit probes always
/// target installed prefixes.
const LENS: [u16; 7] = [8, 12, 16, 20, 24, 28, 32];
/// Minimum wall time per measured cell, seconds.
const MIN_MEASURE_S: f64 = 0.05;

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

/// ns/lookup of `f` (which runs one full probe pass), measured over at
/// least [`MIN_MEASURE_S`] of wall time.
fn measure_ns_per_lookup(mut pass: impl FnMut() -> usize) -> f64 {
    // Warm-up pass (hash tables touch their buckets, caches warm).
    std::hint::black_box(pass());
    let t0 = Instant::now();
    let mut lookups = 0usize;
    while t0.elapsed().as_secs_f64() < MIN_MEASURE_S {
        lookups += pass();
    }
    t0.elapsed().as_secs_f64() * 1e9 / lookups as f64
}

fn main() {
    banner("E12: table snapshot lookup indexes (exact/lpm/ternary sweep)");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json_rows: Vec<String> = Vec::new();

    println!(
        "\n{:<10} {:>8} {:>14} {:>14} {:>10}",
        "kind", "entries", "indexed ns/op", "scan ns/op", "speedup"
    );
    // indexed/scan ns per (sweep, size), for the smoke assertions below.
    let mut measured: Vec<(Sweep, usize, f64, f64)> = Vec::new();
    for sweep in [Sweep::Exact, Sweep::Lpm, Sweep::Ternary, Sweep::Ternary8] {
        for &n in &SIZES {
            let state = filled_state(sweep, n);
            let keys = probe_keys(sweep, n);
            let snap = state.snapshot();
            let indexed = measure_ns_per_lookup(|| {
                for k in &keys {
                    std::hint::black_box(snap.lookup(std::slice::from_ref(k)));
                }
                keys.len()
            });
            let scan = measure_ns_per_lookup(|| {
                for k in &keys {
                    std::hint::black_box(snap.lookup_scan(std::slice::from_ref(k)));
                }
                keys.len()
            });
            // The index must agree with the scan on every probe — a cheap
            // end-of-run sanity net under the proptests.
            for k in &keys {
                assert_eq!(
                    snap.lookup(std::slice::from_ref(k)),
                    snap.lookup_scan(std::slice::from_ref(k)),
                    "index/scan divergence at key {k:#x} ({sweep:?}, {n} entries)"
                );
            }
            let kind_name = sweep.name();
            println!(
                "{:<10} {:>8} {:>14.1} {:>14.1} {:>9.1}x",
                kind_name,
                n,
                indexed,
                scan,
                scan / indexed
            );
            json_rows.push(format!(
                "    {{\"kind\": \"{kind_name}\", \"entries\": {n}, \"indexed_ns\": {indexed:.1}, \"scan_ns\": {scan:.1}}}"
            ));
            measured.push((sweep, n, indexed, scan));
        }
    }

    // End to end: an exact-table program's batch throughput as the table
    // fills. The compiled hash keeps pps flat; the seed scan degraded
    // linearly with occupancy.
    println!("\nprocess_batch on l2_switch (exact dmac hash), untraced:");
    println!("{:<10} {:>14}", "entries", "pkts/sec");
    let mut batch_pps: Vec<(usize, f64)> = Vec::new();
    for &n in &SIZES {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let caps = vec![8192u64; ir.tables.len()];
        let mut dp = Dataplane::with_table_capacities(ir, &caps);
        dp.set_tracing(false);
        for i in 0..n {
            dp.install_exact(
                "dmac",
                vec![0x0200_0000_0000 + i as u128],
                "forward",
                vec![(i % 4) as u128],
            )
            .unwrap();
        }
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
        // Warm-up window before the timer (allocator + caches).
        std::hint::black_box(dp.process_batch(&pkts, 0));
        let t0 = Instant::now();
        let mut done = 0usize;
        while t0.elapsed().as_secs_f64() < 2.0 * MIN_MEASURE_S {
            std::hint::black_box(dp.process_batch(&pkts, 0));
            done += pkts.len();
        }
        let pps = done as f64 / t0.elapsed().as_secs_f64();
        println!("{n:<10} {pps:>14.0}");
        json_rows.push(format!(
            "    {{\"workload\": \"batch_exact\", \"entries\": {n}, \"pps\": {pps:.0}}}"
        ));
        batch_pps.push((n, pps));
    }

    let json = format!(
        "{{\n  \"experiment\": \"table_scale\",\n  \"meta\": {},\n  \"probes\": {PROBES},\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(PROBES),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lookup.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // ---- Smoke assertions (run in CI): losing the index must fail loudly ----
    let cell = |sweep: Sweep, n: usize| {
        measured
            .iter()
            .find(|(k, m, _, _)| *k == sweep && *m == n)
            .map(|(_, _, i, s)| (*i, *s))
            .expect("measured above")
    };
    let (exact_idx_1, exact_scan_1) = cell(Sweep::Exact, 1);
    let (exact_idx_4k, exact_scan_4k) = cell(Sweep::Exact, 4096);
    // Exact-match lookup cost must not grow with entry count: both ends
    // of the sweep are one hash probe. The 8x slack absorbs timer noise
    // on shared single-core CI hosts, not a linear factor (the scan's
    // 1 -> 4096 ratio is ~three orders of magnitude).
    assert!(
        exact_idx_4k < exact_idx_1 * 8.0,
        "exact-match indexed lookup grew with entry count: {exact_idx_1:.1} ns at 1 entry vs {exact_idx_4k:.1} ns at 4096 — the hash index is gone"
    );
    // And the measured baseline really is the linear scan the index
    // replaced: it must grow markedly across the same sweep.
    assert!(
        exact_scan_4k > exact_scan_1 * 8.0,
        "seed scan did not grow with entry count ({exact_scan_1:.1} -> {exact_scan_4k:.1} ns): the baseline measurement is broken"
    );
    // At 4096 entries the index must beat the scan outright.
    assert!(
        exact_idx_4k * 4.0 < exact_scan_4k,
        "indexed exact lookup ({exact_idx_4k:.1} ns) must clearly beat the {exact_scan_4k:.1} ns scan at 4096 entries"
    );
    // The exact and LPM cells did not move when ternary tables got their
    // index: ≈ 5.5 ns and ≈ 17-24 ns on the 2-core box it arrived on.
    // The ceilings leave a shared CI host a factor of four.
    let lpm_idx_4k = cell(Sweep::Lpm, 4096).0;
    assert!(
        exact_idx_4k < 22.0 && lpm_idx_4k < 96.0,
        "indexed exact ({exact_idx_4k:.1} ns) or LPM ({lpm_idx_4k:.1} ns) lookup at 4096 entries left its band (≈ 5.5 / ≈ 24 ns)"
    );
    // One mask tuple is one hash probe, however many entries share it.
    let ternary_idx_1 = cell(Sweep::Ternary, 1).0;
    let ternary_idx_4k = cell(Sweep::Ternary, 4096).0;
    assert!(
        ternary_idx_4k < ternary_idx_1 * 8.0,
        "single-tuple ternary lookup grew with entry count: {ternary_idx_1:.1} ns at 1 entry vs {ternary_idx_4k:.1} ns at 4096 — the tuple-space index is gone"
    );
    // Eight tuples are eight probes at 256 entries and at 4096 (colder
    // buckets aside), and nowhere near the scan of half the table.
    let ternary8_idx_256 = cell(Sweep::Ternary8, 256).0;
    let (ternary8_idx_4k, ternary8_scan_4k) = cell(Sweep::Ternary8, 4096);
    assert!(
        ternary8_idx_4k < ternary8_idx_256 * 4.0,
        "eight-tuple ternary lookup grew with entry count: {ternary8_idx_256:.1} ns at 256 entries vs {ternary8_idx_4k:.1} ns at 4096"
    );
    assert!(
        ternary8_idx_4k * 8.0 < ternary8_scan_4k,
        "eight-tuple ternary lookup ({ternary8_idx_4k:.1} ns) must clearly beat the {ternary8_scan_4k:.1} ns scan at 4096 entries"
    );
    // End-to-end batch throughput stays flat (within generous noise)
    // while the table fills 1 -> 4096.
    let pps_1 = batch_pps.first().expect("sweep ran").1;
    let pps_4k = batch_pps.last().expect("sweep ran").1;
    assert!(
        pps_4k > pps_1 * 0.5,
        "batch throughput collapsed as the exact table filled: {pps_1:.0} pps at 1 entry vs {pps_4k:.0} pps at 4096"
    );
}
