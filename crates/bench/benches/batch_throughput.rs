//! Experiment E9 — batch vs. single-packet execution throughput.
//!
//! The ROADMAP's line-rate goal needs the software oracle and device model
//! to process millions of packets per second. This bench drives the same
//! routable traffic through four configurations of the reference
//! interpreter and two of the device model, and reports the sustained
//! packet rate of each:
//!
//! * `process` — the historical packet-at-a-time path, full tracing;
//! * `process_untraced` — packet-at-a-time, no tracing;
//! * `process_batch` (traced) — batched execution, per-packet traces;
//! * `process_batch` (fast) — batched execution, tracing opted out;
//! * `Device::inject` vs `Device::inject_batch` — the same comparison one
//!   layer up, with stage taps and port accounting included.
//!
//! Shape check: the batch fast path must beat the traced single-packet
//! path (it skips both per-packet environment setup and trace/event
//! allocation), and batch must never lose to its single-packet
//! equivalent.

use netdebug_bench::{banner, routable_frame};
use netdebug_dataplane::Dataplane;
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_packet::Ipv4Address;
use std::time::Instant;

const BATCH: usize = 256;
const TOTAL: usize = 200_000;

fn router_dataplane() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    dp
}

fn router_device() -> Device {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    dev
}

fn pps(n: usize, t: Instant) -> f64 {
    n as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    banner("E9: batch vs single-packet execution throughput");
    let frame = routable_frame(Ipv4Address::new(10, 0, 0, 9));
    let pkts: Vec<(u16, &[u8])> = (0..BATCH).map(|_| (0u16, frame.as_slice())).collect();
    let frames: Vec<&[u8]> = (0..BATCH).map(|_| frame.as_slice()).collect();
    let rounds = TOTAL / BATCH;

    // -- Interpreter layer ------------------------------------------------
    let mut dp = router_dataplane();
    let t0 = Instant::now();
    for _ in 0..TOTAL {
        std::hint::black_box(dp.process(0, &frame, 0));
    }
    let single_traced = pps(TOTAL, t0);

    let mut dp = router_dataplane();
    let t0 = Instant::now();
    for _ in 0..TOTAL {
        std::hint::black_box(dp.process_untraced(0, &frame, 0));
    }
    let single_fast = pps(TOTAL, t0);

    let mut dp = router_dataplane();
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dp.process_batch(&pkts, 0));
    }
    let batch_traced = pps(rounds * BATCH, t0);

    let mut dp = router_dataplane();
    dp.set_tracing(false);
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dp.process_batch(&pkts, 0));
    }
    let batch_fast = pps(rounds * BATCH, t0);

    // -- Device layer ------------------------------------------------------
    let mut dev = router_device();
    let t0 = Instant::now();
    for _ in 0..TOTAL {
        std::hint::black_box(dev.inject(0, &frame));
    }
    let dev_single = pps(TOTAL, t0);

    let mut dev = router_device();
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dev.inject_batch(0, &frames, 0));
    }
    let dev_batch = pps(rounds * BATCH, t0);

    let mut dev = router_device();
    dev.set_batch_tracing(false);
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dev.inject_batch(0, &frames, 0));
    }
    let dev_batch_fast = pps(rounds * BATCH, t0);

    println!(
        "{:<44} {:>14} {:>10}",
        "configuration", "sustained pps", "vs single"
    );
    let row = |name: &str, v: f64, base: f64| {
        println!("{name:<44} {v:>14.0} {:>9.2}x", v / base);
    };
    row("dataplane: process (traced)", single_traced, single_traced);
    row("dataplane: process_untraced", single_fast, single_traced);
    row(
        "dataplane: process_batch (traced)",
        batch_traced,
        single_traced,
    );
    row(
        "dataplane: process_batch (fast path)",
        batch_fast,
        single_traced,
    );
    row("device: inject", dev_single, dev_single);
    row("device: inject_batch", dev_batch, dev_single);
    row(
        "device: inject_batch (fast path)",
        dev_batch_fast,
        dev_single,
    );

    println!("\nshape check: the batch fast path amortises per-packet");
    println!("environment setup and skips trace allocation, so it must");
    println!("sustain the highest rate of the four interpreter modes.");
    assert!(
        batch_fast > single_traced,
        "batch fast path ({batch_fast:.0} pps) must beat traced single-packet ({single_traced:.0} pps)"
    );
}
