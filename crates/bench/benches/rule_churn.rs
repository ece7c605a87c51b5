//! Experiment E11 — rule churn under load.
//!
//! The epoch-snapshot tables let the control plane install/remove entries
//! between (or during) batches: each mutation edits the table's snapshot
//! in place unless someone has it pinned (then it copies it once, and the
//! in-flight batch keeps its pin). This bench measures that seam three
//! ways:
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
//! 3. **Metered policing** (`rate_limiter`): the order-dependent
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

use netdebug_bench::banner;
use netdebug_dataplane::{lpm_pattern, ControlPlane, Dataplane};
use netdebug_p4::corpus;
use netdebug_p4::ir::IrPattern;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::time::Instant;

const BATCH: usize = 2048;
const ROUNDS: usize = 60;
/// LPM publications per round: 8 installs before the window, 8 removes
/// after it.
const INSTALLS_PER_ROUND: usize = 8;

fn router_dataplane() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    dp.set_tracing(false);
    dp
}

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

fn main() {
    banner("E11: rule churn + metered batches");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let frame = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 7, 0, 9))
    .udp(1000, 2000)
    .payload(b"churn")
    .build();
    let pkts: Vec<(u16, &[u8])> = (0..BATCH)
        .map(|i| ((i % 4) as u16, frame.as_slice()))
        .collect();

    let mut json_rows: Vec<String> = Vec::new();

    // ---- Part 1: churned routing ----
    println!("\nchurned routing (ipv4_forward): {INSTALLS_PER_ROUND} installs + {INSTALLS_PER_ROUND} removes per {BATCH}-pkt window");
    println!(
        "{:<28} {:>14} {:>16}",
        "configuration", "pkts/sec", "publications/sec"
    );
    let mut dp = router_dataplane();
    let cp = dp.control_plane();
    let epoch_before = cp.epoch("ipv4_lpm").unwrap();
    let mut publications = 0usize;
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        // Churn in: a burst of fresh /24 routes lands before the window.
        for k in 0..INSTALLS_PER_ROUND {
            let third = ((round * INSTALLS_PER_ROUND + k) % 200) as u128;
            cp.install_lpm(
                "ipv4_lpm",
                0x0A07_0000 | (third << 8),
                24,
                "ipv4_forward",
                vec![0xCC, 2],
            )
            .unwrap();
            publications += 1;
        }
        std::hint::black_box(dp.process_batch(&pkts, round as u64));
        // Churn out: withdraw the burst so occupancy stays bounded.
        for k in 0..INSTALLS_PER_ROUND {
            let third = ((round * INSTALLS_PER_ROUND + k) % 200) as u128;
            cp.remove(
                "ipv4_lpm",
                &[netdebug_dataplane::lpm_pattern(
                    0x0A07_0000 | (third << 8),
                    24,
                    32,
                )],
                24,
            )
            .unwrap();
            publications += 1;
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    let pps = (ROUNDS * BATCH) as f64 / dt;
    let ips = publications as f64 / dt;
    println!("{:<28} {:>14.0} {:>16.0}", "churn", pps, ips);
    json_rows.push(format!(
        "    {{\"workload\": \"churned_routing\", \"pps\": {pps:.0}, \"publications_per_sec\": {ips:.0}}}"
    ));
    assert_eq!(
        cp.epoch("ipv4_lpm").unwrap(),
        epoch_before + publications as u64,
        "every install/remove must land as its own epoch while batches run"
    );

    // ---- Part 2: publication cost against occupancy ----
    println!("\npublication cost vs resident entries ({FRESH} fresh entries installed, then withdrawn, per round)");
    println!(
        "{:<8} {:>9} {:>9} {:>14} {:>14}",
        "kind", "resident", "pinned", "install ns", "remove ns"
    );
    // (kind, resident, pinned, install ns, remove ns), for the smoke
    // assertions.
    let mut cost: Vec<(&str, usize, bool, f64, f64)> = Vec::new();
    for shape in &SWEEP_TABLES {
        for resident in OCCUPANCIES {
            for pinned in [false, true] {
                let (install_ns, remove_ns) = publication_ns(shape, resident, pinned);
                println!(
                    "{:<8} {:>9} {:>9} {:>14.0} {:>14.0}",
                    shape.kind, resident, pinned, install_ns, remove_ns
                );
                json_rows.push(format!(
                    "    {{\"workload\": \"publication_cost\", \"kind\": \"{}\", \"resident\": {resident}, \"pinned\": {pinned}, \"install_ns\": {install_ns:.0}, \"remove_ns\": {remove_ns:.0}}}",
                    shape.kind
                ));
                cost.push((shape.kind, resident, pinned, install_ns, remove_ns));
            }
        }
    }

    // ---- Part 3: metered policing ----
    println!("\nmetered policing (rate_limiter)");
    println!("{:<28} {:>14}", "configuration", "pkts/sec");
    let mut dp = limiter_dataplane();
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        std::hint::black_box(dp.process_batch(&pkts, (round * 1000) as u64));
    }
    let meter_pps = (ROUNDS * BATCH) as f64 / t0.elapsed().as_secs_f64();
    println!("{:<28} {:>14.0}", "process_batch", meter_pps);
    json_rows.push(format!(
        "    {{\"workload\": \"metered\", \"pps\": {meter_pps:.0}}}"
    ));

    let json = format!(
        "{{\n  \"experiment\": \"rule_churn\",\n  \"meta\": {},\n  \"batch\": {BATCH},\n  \"rounds\": {ROUNDS},\n  \"installs_per_round\": {INSTALLS_PER_ROUND},\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(BATCH),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_churn.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // ---- Smoke assertions (run in CI): publication stays O(delta) ----
    let cost_ns = |(kind, resident, pinned)| {
        let cell = cost
            .iter()
            .find(|c| (c.0, c.1, c.2) == (kind, resident, pinned));
        let &(.., install_ns, remove_ns) = cell.expect("measured above");
        (install_ns, remove_ns)
    };
    let install_ns = |cell| cost_ns(cell).0;
    let (small, large) = (OCCUPANCIES[0], OCCUPANCIES[2]);
    let (flat_small, flat_large) = (
        install_ns(("exact", small, false)),
        install_ns(("exact", large, false)),
    );
    // An unpinned exact install appends one slot and inserts one hash key
    // however many entries are resident. The 4x slack is timer noise and
    // colder cache lines, not a linear factor (the sweep spans 2048x).
    assert!(
        flat_large < flat_small * 4.0,
        "unpinned exact install grew with occupancy: {flat_small:.0} ns at {small} entries vs {flat_large:.0} ns at {large} — publication copies or re-indexes the table again"
    );
    // A ternary install finds its mask tuple's group and claims one
    // bucket there; a removal vacates one and, at most, reads the group's
    // next priority off the list. Neither may see the other 32 752 rules.
    let (ternary_small, ternary_large) = (
        cost_ns(("ternary", small, false)),
        cost_ns(("ternary", large, false)),
    );
    assert!(
        ternary_large.0 < ternary_small.0 * 4.0,
        "unpinned ternary install grew with occupancy: {:.0} ns at {small} entries vs {:.0} ns at {large} — the tuple-space index is rebuilt, not maintained",
        ternary_small.0,
        ternary_large.0
    );
    assert!(
        ternary_large.1 < ternary_small.1 * 4.0,
        "unpinned ternary remove grew with occupancy: {:.0} ns at {small} entries vs {:.0} ns at {large} — the removal walks the list or rescans its group",
        ternary_small.1,
        ternary_large.1
    );
    // And the pinned column really measures the copy-on-write path.
    let copied = install_ns(("exact", large, true));
    assert!(
        copied > flat_large * 8.0,
        "a pinned install at {large} entries ({copied:.0} ns) costs like an unpinned one ({flat_large:.0} ns): the pin did not force a copy, the measurement is broken"
    );
}
