//! Experiment E11 — rule churn under load.
//!
//! The epoch-snapshot tables let the control plane install/remove entries
//! between (or during) batches: each mutation clones the entry list,
//! publishes a fresh `Arc`-swapped snapshot, and the in-flight batch keeps
//! its pins. This bench measures that seam two ways:
//!
//! 1. **Churned routing** (`ipv4_forward`): windows of traffic
//!    interleaved with bursts of LPM install/remove publications —
//!    sustained packets/sec *and* publications/sec.
//! 2. **Metered policing** (`rate_limiter`): the order-dependent
//!    token-bucket workload on the batch path.
//!
//! Numbers land in `BENCH_churn.json` at the repo root. The shape check
//! is that every scheduled publication really landed as its own epoch
//! while the batches ran.

use netdebug_bench::banner;
use netdebug_dataplane::Dataplane;
use netdebug_p4::corpus;
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

    // ---- Part 2: metered policing ----
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
        netdebug_bench::meta_json(BATCH, &netdebug_dataplane::PassConfig::default().to_string()),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_churn.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
