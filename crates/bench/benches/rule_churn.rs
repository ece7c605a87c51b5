//! Experiment E11 — rule churn under load.
//!
//! The epoch-snapshot tables let the control plane install/remove entries
//! between (or during) batches: each mutation edits the table's snapshot
//! in place unless someone has it pinned (then it copies it once, and the
//! in-flight batch keeps its pin). A batch pins its tables only while it
//! runs, so a publication between batches finds no pin; a checkpoint or
//! a device clone pins until it is dropped. This bench measures that
//! seam four ways:
//!
//! 1. **Churned routing** (`ipv4_forward`): windows of traffic
//!    interleaved with bursts of LPM install/remove publications —
//!    sustained packets/sec *and* publications/sec, at ~9 resident
//!    routes.
//! 2. **Publication cost against occupancy**: ns per `install` and per
//!    `remove` at 16 / 2 048 / 32 768 resident entries, exact
//!    (`l2_switch.dmac`), LPM (`ipv4_forward.ipv4_lpm`) and ternary
//!    (`acl_firewall.acl`, eight mask tuples dealt round-robin), unpinned
//!    and with a checkpoint pinning the table before every publication.
//! 3. **The window seam** (`l2_switch.dmac` held at 2 048 entries): 4
//!    installs and 4 removes before each 256-frame window, the shape of
//!    the repo benchmark's `l2_churn_steady` on the raw data plane —
//!    packets/sec, publications/sec and ns per publication.
//! 4. **Metered policing** (`rate_limiter`): the order-dependent
//!    token-bucket workload on the batch path.
//!
//! Numbers land in `BENCH_churn.json` at the repo root. The shape checks
//! are that every scheduled publication really landed as its own epoch
//! while the batches ran, and that an unpinned exact install costs the
//! same at 32 768 resident entries as at 16 (a publication that clones or
//! re-indexes the table fails it) while a pinned one pays for its copy —
//! and so do a ternary install and a ternary removal, whose tuple-space
//! group is touched at one bucket (a removal that walks the list, or that
//! rescans its group to keep the group's highest priority, fails it).
//! A publication at the window seam costs what an unpinned one does at
//! the same occupancy (a batch whose pin outlives it fails that).

use netdebug_bench::{
    banner, dec, host_cores, routable_frame, router_dataplane, row, switch_dataplane, time_ops,
    Report,
};
use netdebug_dataplane::{lpm_pattern, ControlPlane, Dataplane};
use netdebug_p4::corpus;
use netdebug_p4::ir::IrPattern;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const BATCH: usize = 2048;
const ROUNDS: usize = 60;
/// LPM publications per round: 8 installs before the window, 8 removes
/// after it.
const INSTALLS_PER_ROUND: usize = 8;

/// Resident entry counts of the publication-cost sweep.
const OCCUPANCIES: [usize; 3] = [16, 2048, 32_768];
/// Fresh entries installed, then withdrawn, per sweep round.
const FRESH: usize = 32;
/// Prefix lengths the resident LPM routes cycle through (the fresh
/// routes are /24s, so they land mid-list).
const LENS: [u16; 5] = [16, 20, 24, 28, 32];
/// Minimum summed publication time per sweep cell, seconds.
const MIN_MEASURE_S: f64 = 0.05;

/// One table shape of the publication-cost sweep: how to install and
/// withdraw its `i`-th entry. Residents are `0..n`; the fresh entries
/// churned on top of them start at [`FRESH_BASE`].
struct SweepTable {
    kind: &'static str,
    program: &'static str,
    table: &'static str,
    install: fn(&ControlPlane, usize),
    remove: fn(&ControlPlane, usize),
}

const FRESH_BASE: usize = 1 << 20;

/// Frames per window of the window seam.
const SEAM_WINDOW: usize = 256;
/// Installs (and as many removes) before each window of the seam.
const SEAM_CHURN: usize = 4;
/// Windows per timed pass of the seam.
const SEAM_WINDOWS: usize = 200;

fn mac(i: usize) -> u128 {
    0x0200_0000_0000 + i as u128
}

/// Resident route `i`: a distinct prefix at `LENS[i % 5]` with a clear
/// top bit; fresh routes are /24s with it set.
fn route(i: usize) -> (u128, u16) {
    if i >= FRESH_BASE {
        return (0x8000_0000 | ((i - FRESH_BASE) as u128) << 8, 24);
    }
    let len = LENS[i % LENS.len()];
    (((i / LENS.len()) as u128) << (32 - len), len)
}

/// Ternary rule `i` of `acl_firewall.acl` and its priority: one of eight
/// mask tuples, dealt round-robin, every rule its own key. Residents
/// take distinct priorities above the fresh rules', so a fresh rule
/// joins and leaves at the list's tail: what the sweep times is the
/// index, not the list's `memmove`.
fn acl_rule(i: usize) -> (Vec<IrPattern>, i32) {
    const TUPLES: [(u32, u32, bool, bool); 8] = [
        (0xFFFF_FFFF, 0xFFFF_FFFF, true, true),
        (0xFFFF_FF00, 0xFFFF_FFFF, true, true),
        (0xFFFF_FFFF, 0xFFFF_FF00, true, true),
        (0xFFFF_FF00, 0xFFFF_FF00, true, true),
        (0xFFFF_0000, 0, true, true),
        (0, 0xFFFF_0000, true, true),
        (0xFFFF_FF00, 0xFFFF_FF00, false, true),
        (0xFFFF_FFFF, 0xFFFF_FFFF, true, false),
    ];
    let (src_mask, dst_mask, proto, dport) = TUPLES[i % 8];
    let masked = |seed: u32, mask: u32| match mask {
        0 => IrPattern::Any,
        mask => IrPattern::Mask {
            value: u128::from((i as u32).wrapping_mul(seed) & mask),
            mask: u128::from(mask),
        },
    };
    let exact = |on: bool, value: usize| match on {
        true => IrPattern::Value(value as u128),
        false => IrPattern::Any,
    };
    let patterns = vec![
        masked(0x9E37_79B1, src_mask),
        masked(0x85EB_CA6B, dst_mask),
        exact(proto, 6 + 11 * (i / 8 % 2)),
        exact(dport, i / 8 % (1 << 16)),
    ];
    let priority = match i.checked_sub(FRESH_BASE) {
        Some(fresh) => fresh,
        None => FRESH + i,
    };
    (patterns, priority as i32)
}

const SWEEP_TABLES: [SweepTable; 3] = [
    SweepTable {
        kind: "exact",
        program: corpus::L2_SWITCH,
        table: "dmac",
        install: |cp, i| {
            cp.install_exact("dmac", vec![mac(i)], "forward", vec![(i % 4) as u128])
                .unwrap();
        },
        remove: |cp, i| {
            cp.remove("dmac", &[IrPattern::Value(mac(i))], 0)
                .unwrap()
                .expect("resident");
        },
    },
    SweepTable {
        kind: "lpm",
        program: corpus::IPV4_FORWARD,
        table: "ipv4_lpm",
        install: |cp, i| {
            let (prefix, len) = route(i);
            cp.install_lpm("ipv4_lpm", prefix, len, "ipv4_forward", vec![0xCC, 2])
                .unwrap();
        },
        remove: |cp, i| {
            let (prefix, len) = route(i);
            cp.remove("ipv4_lpm", &[lpm_pattern(prefix, len, 32)], i32::from(len))
                .unwrap()
                .expect("resident");
        },
    },
    SweepTable {
        kind: "ternary",
        program: corpus::ACL_FIREWALL,
        table: "acl",
        install: |cp, i| {
            let (patterns, priority) = acl_rule(i);
            cp.install("acl", patterns, "allow", vec![(i % 4) as u128], priority)
                .unwrap();
        },
        remove: |cp, i| {
            let (patterns, priority) = acl_rule(i);
            cp.remove("acl", &patterns, priority)
                .unwrap()
                .expect("resident");
        },
    },
];

/// ns per `install` and per `remove` on `shape`'s table held at
/// `resident` entries. With `pinned`, a checkpoint pins the table before
/// every publication (outside the timed region), so each one copies it.
fn publication_ns(shape: &SweepTable, resident: usize, pinned: bool) -> (f64, f64) {
    let ir = netdebug_p4::compile(shape.program).unwrap();
    let caps = vec![1u64 << 16; ir.tables.len()];
    let dp = Dataplane::with_table_capacities(ir, &caps);
    let cp = dp.control_plane();
    (0..resident).for_each(|i| (shape.install)(&cp, i));
    let epoch_before = cp.epoch(shape.table).unwrap();

    let mut pin = None;
    let (mut install_s, mut remove_s, mut rounds) = (0.0f64, 0.0f64, 0u64);
    let mut timed = |op: fn(&ControlPlane, usize), spent: &mut f64| {
        for i in FRESH_BASE..FRESH_BASE + FRESH {
            if pinned {
                pin = Some(dp.checkpoint());
            }
            let t0 = Instant::now();
            op(&cp, i);
            *spent += t0.elapsed().as_secs_f64();
        }
    };
    // One untimed round first: the list and the hash table grow to their
    // steady capacity.
    timed(shape.install, &mut 0.0);
    timed(shape.remove, &mut 0.0);
    while install_s + remove_s < MIN_MEASURE_S {
        timed(shape.install, &mut install_s);
        timed(shape.remove, &mut remove_s);
        rounds += 1;
    }
    assert_eq!(
        cp.epoch(shape.table).unwrap(),
        epoch_before + 2 * (rounds + 1) * FRESH as u64,
        "every sweep publication must land as its own epoch"
    );
    assert_eq!(cp.occupancy(shape.table).unwrap().0, resident);
    let per_op = 1e9 / (rounds * FRESH as u64) as f64;
    (install_s * per_op, remove_s * per_op)
}

/// The window seam: `l2_switch` held at `resident` `dmac` entries,
/// [`SEAM_CHURN`] installs and as many removes before each
/// [`SEAM_WINDOW`]-frame untraced `process_batch`. The frames go to the
/// first [`SEAM_WINDOW`] entries; the churn slides over the rest (window
/// `w` installs `resident + 4w + k` and removes `256 + 4w + k`), so
/// occupancy holds and the traffic keeps hitting. Returns packets/sec
/// and ns per publication.
fn window_seam(resident: usize) -> (f64, f64) {
    let mut dp = switch_dataplane(mac(0), resident);
    dp.set_tracing(false);
    let cp = dp.control_plane();
    let frames: Vec<Vec<u8>> = (0..SEAM_WINDOW)
        .map(|i| {
            PacketBuilder::ethernet(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, i as u8),
            )
            .payload(b"window-seam")
            .build()
        })
        .collect();
    let pkts: Vec<(u16, &[u8])> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| ((i % 4) as u16, f.as_slice()))
        .collect();
    let epoch_before = cp.epoch("dmac").unwrap();
    let (mut window, mut publish_s) = (0usize, 0.0f64);
    let seam = time_ops(1, 0.0, || {
        for _ in 0..SEAM_WINDOWS {
            let slide = SEAM_CHURN * window;
            let t0 = Instant::now();
            for k in 0..SEAM_CHURN {
                let fresh = resident + slide + k;
                cp.install_exact(
                    "dmac",
                    vec![mac(fresh)],
                    "forward",
                    vec![(fresh % 4) as u128],
                )
                .unwrap();
                cp.remove("dmac", &[IrPattern::Value(mac(SEAM_WINDOW + slide + k))], 0)
                    .unwrap()
                    .expect("resident");
            }
            publish_s += t0.elapsed().as_secs_f64();
            black_box(dp.process_batch(&pkts, window as u64));
            window += 1;
        }
        SEAM_WINDOWS * SEAM_WINDOW
    });
    let publications = (2 * SEAM_CHURN * window) as u64;
    assert_eq!(
        cp.epoch("dmac").unwrap(),
        epoch_before + publications,
        "every seam publication must land as its own epoch"
    );
    assert_eq!(cp.occupancy("dmac").unwrap().0, resident);
    (seam.rate(), publish_s * 1e9 / publications as f64)
}

fn limiter_dataplane() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::RATE_LIMITER).unwrap();
    let mut dp = Dataplane::new(ir);
    for port in 0..4u128 {
        dp.install_exact("fwd", vec![port], "forward", vec![(port + 1) % 4])
            .unwrap();
        dp.configure_meter(
            "port_meter",
            port as usize,
            netdebug_dataplane::MeterConfig {
                cir_per_mcycle: 2_000,
                cbs: 64,
                pir_per_mcycle: 4_000,
                pbs: 128,
            },
        )
        .unwrap();
    }
    dp.set_tracing(false);
    dp
}

fn main() -> ExitCode {
    banner("E11: rule churn + metered batches");
    let mut report = Report::new("rule_churn", "BENCH_churn.json", BATCH);
    report.set("batch", BATCH);
    report.set("rounds", ROUNDS);
    report.set("installs_per_round", INSTALLS_PER_ROUND);
    report.set("cores", host_cores());
    let frame = routable_frame(Ipv4Address::new(10, 7, 0, 9));
    let pkts: Vec<(u16, &[u8])> = (0..BATCH)
        .map(|i| ((i % 4) as u16, frame.as_slice()))
        .collect();

    // ---- Part 1: churned routing — a burst of fresh /24 routes lands
    // before each window and is withdrawn after it, so occupancy stays
    // bounded ----
    let mut dp = router_dataplane();
    dp.set_tracing(false);
    let cp = dp.control_plane();
    let epoch_before = cp.epoch("ipv4_lpm").unwrap();
    let (mut publications, mut round) = (0u64, 0usize);
    let route = |round: usize, k: usize| {
        let third = ((round * INSTALLS_PER_ROUND + k) % 200) as u128;
        0x0A07_0000 | (third << 8)
    };
    let churned = time_ops(1, 0.0, || {
        for _ in 0..ROUNDS {
            for k in 0..INSTALLS_PER_ROUND {
                cp.install_lpm(
                    "ipv4_lpm",
                    route(round, k),
                    24,
                    "ipv4_forward",
                    vec![0xCC, 2],
                )
                .unwrap();
            }
            black_box(dp.process_batch(&pkts, round as u64));
            for k in 0..INSTALLS_PER_ROUND {
                cp.remove("ipv4_lpm", &[lpm_pattern(route(round, k), 24, 32)], 24)
                    .unwrap();
            }
            publications += 2 * INSTALLS_PER_ROUND as u64;
            round += 1;
        }
        ROUNDS * BATCH
    });
    let per_packet = (2 * INSTALLS_PER_ROUND) as f64 / BATCH as f64;
    report.row(
        row!["workload" => "churned_routing", "pps" => dec(churned.rate(), 0),
        "publications_per_sec" => dec(churned.rate() * per_packet, 0)],
    );
    assert_eq!(
        cp.epoch("ipv4_lpm").unwrap(),
        epoch_before + publications,
        "every install/remove must land as its own epoch while batches run"
    );

    // ---- Part 2: publication cost against occupancy (`FRESH` fresh
    // entries installed, then withdrawn, per round) ----
    // (kind, resident, pinned, install ns, remove ns), for the gates.
    let mut cost: Vec<(&str, usize, bool, f64, f64)> = Vec::new();
    for shape in &SWEEP_TABLES {
        for resident in OCCUPANCIES {
            for pinned in [false, true] {
                let (install_ns, remove_ns) = publication_ns(shape, resident, pinned);
                report.row(row!["workload" => "publication_cost", "kind" => shape.kind,
                    "resident" => resident, "pinned" => pinned,
                    "install_ns" => dec(install_ns, 0), "remove_ns" => dec(remove_ns, 0)]);
                cost.push((shape.kind, resident, pinned, install_ns, remove_ns));
            }
        }
    }

    // ---- Part 3: the window seam at the sweep's middle occupancy ----
    let seam_resident = OCCUPANCIES[1];
    let (seam_pps, seam_ns) = window_seam(seam_resident);
    let seam_per_packet = (2 * SEAM_CHURN) as f64 / SEAM_WINDOW as f64;
    report.row(
        row!["workload" => "window_seam", "resident" => seam_resident,
        "window" => SEAM_WINDOW, "pps" => dec(seam_pps, 0),
        "publications_per_sec" => dec(seam_pps * seam_per_packet, 0),
        "publication_ns" => dec(seam_ns, 0)],
    );

    // ---- Part 4: metered policing (rate_limiter) ----
    let mut dp = limiter_dataplane();
    let mut clock = 0u64;
    let metered = time_ops(1, 0.0, || {
        for _ in 0..ROUNDS {
            black_box(dp.process_batch(&pkts, clock));
            clock += 1000;
        }
        ROUNDS * BATCH
    });
    report.row(row!["workload" => "metered", "pps" => dec(metered.rate(), 0)]);

    // ---- Gates (run in CI): publication stays O(delta) ----
    let cost_ns = |(kind, resident, pinned)| {
        let cell = cost
            .iter()
            .find(|c| (c.0, c.1, c.2) == (kind, resident, pinned));
        let &(.., install_ns, remove_ns) = cell.expect("measured above");
        (install_ns, remove_ns)
    };
    let (small, large) = (OCCUPANCIES[0], OCCUPANCIES[2]);
    let (flat_small, flat_large) = (
        cost_ns(("exact", small, false)).0,
        cost_ns(("exact", large, false)).0,
    );
    // An unpinned exact install appends one slot and inserts one hash key
    // however many entries are resident. The 4x slack is timer noise and
    // colder cache lines, not a linear factor (the sweep spans 2048x).
    report.gate(
        "unpinned exact install stays flat with occupancy (< 4x): no table copy or re-index",
        flat_large < flat_small * 4.0,
        format!("{flat_small:.0} ns at {small} entries vs {flat_large:.0} ns at {large}"),
    );
    // A ternary install finds its mask tuple's group and claims one
    // bucket there; a removal vacates one and, at most, reads the group's
    // next priority off the list. Neither may see the other 32 752 rules.
    let (ternary_small, ternary_large) = (
        cost_ns(("ternary", small, false)),
        cost_ns(("ternary", large, false)),
    );
    report.gate(
        "unpinned ternary install stays flat (< 4x): the tuple-space index is maintained, not rebuilt",
        ternary_large.0 < ternary_small.0 * 4.0,
        format!("{:.0} ns at {small} entries vs {:.0} ns at {large}", ternary_small.0, ternary_large.0),
    );
    report.gate(
        "unpinned ternary remove stays flat (< 4x): no list walk, no group rescan",
        ternary_large.1 < ternary_small.1 * 4.0,
        format!(
            "{:.0} ns at {small} entries vs {:.0} ns at {large}",
            ternary_small.1, ternary_large.1
        ),
    );
    // And the pinned column really measures the copy-on-write path.
    let copied = cost_ns(("exact", large, true)).0;
    report.gate(
        "a pinned install pays for its copy (> 8x unpinned): the pinned column measures copy-on-write",
        copied > flat_large * 8.0,
        format!("{copied:.0} ns pinned vs {flat_large:.0} ns unpinned at {large} entries"),
    );
    // A batch releases its pins when it returns, so the seam's
    // publications find nobody holding the table and edit it in place:
    // the same cost as the sweep's unpinned cell at that occupancy. A
    // pin that outlives its batch copies the table once per window
    // (~40 us at 2 048 entries, shared by the window's 8 publications):
    // ~5 us each, ~8x the unpinned mean.
    let unpinned = cost_ns(("exact", seam_resident, false));
    let unpinned_ns = (unpinned.0 + unpinned.1) / 2.0;
    report.gate(
        "a publication between batches of a live data plane costs < 4x an unpinned one at the same occupancy",
        seam_ns < unpinned_ns * 4.0,
        format!("{seam_ns:.0} ns at the seam vs {unpinned_ns:.0} ns unpinned at {seam_resident} entries"),
    );
    report.finish()
}
