//! Experiment E8 — the paper's "line rate, real time" claim (§2).
//!
//! NetDebug's checker is a hardware module with a fixed per-packet cycle
//! budget. The alternative the paper argues against — checking on the host
//! — is bounded by software speed. This bench measures our *actual* Rust
//! checker and reference interpreter as stand-ins for host-based checking,
//! and compares the sustainable packet rates against the 10G line rate and
//! the modelled hardware budget.

use criterion::{criterion_group, criterion_main, Criterion};
use netdebug::checker::Checker;
use netdebug::generator::{Expectation, Generator, StreamSpec};
use netdebug_bench::{banner, routable_frame};
use netdebug_dataplane::Dataplane;
use netdebug_hw::Outcome;
use netdebug_p4::corpus;
use netdebug_packet::Ipv4Address;
use std::time::Instant;

fn make_outcome() -> Outcome {
    let mut g = Generator::new();
    let spec = StreamSpec::simple(
        1,
        routable_frame(Ipv4Address::new(10, 0, 0, 9)),
        1_000_000,
        Expectation::Forward { port: Some(1) },
    );
    let pkt = g.build(&spec, 0, 0);
    Outcome::Tx {
        port: 1,
        data: pkt.data.to_vec(),
    }
}

fn bench_software_checker(c: &mut Criterion) {
    let outcome = make_outcome();
    let mut checker = Checker::new();
    checker.open_stream(1, Expectation::Forward { port: Some(1) }, u64::MAX);
    c.bench_function("software_checker_per_packet", |b| {
        b.iter(|| checker.observe(std::hint::black_box(&outcome), 100, "egress"))
    });
}

fn bench_software_dataplane(c: &mut Criterion) {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    let frame = routable_frame(Ipv4Address::new(10, 0, 0, 9));
    c.bench_function("software_dataplane_per_packet", |b| {
        b.iter(|| dp.process_untraced(0, std::hint::black_box(&frame), 0))
    });
}

fn line_rate_summary(_c: &mut Criterion) {
    banner("E8: who can check at line rate?");
    const LINE_RATE_64B: f64 = 14_880_952.0; // 10G, 64B frames
    const CLOCK_HZ: f64 = 200e6;

    // Measure the software checker directly.
    let outcome = make_outcome();
    let mut checker = Checker::new();
    checker.open_stream(1, Expectation::Forward { port: Some(1) }, u64::MAX);
    let n = 200_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        checker.observe(&outcome, i, "egress");
    }
    let sw_checker_pps = n as f64 / t0.elapsed().as_secs_f64();

    // Measure the software data plane (host-based replay checking needs
    // both: re-run the spec AND compare).
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    let frame = routable_frame(Ipv4Address::new(10, 0, 0, 9));
    let n = 100_000u64;
    let t0 = Instant::now();
    for _ in 0..n {
        dp.process_untraced(0, &frame, 0);
    }
    let sw_dataplane_pps = n as f64 / t0.elapsed().as_secs_f64();

    // The hardware checker's modelled budget.
    let hw_checker = Checker::new();
    let hw_pps = CLOCK_HZ / hw_checker.check_cycles_per_packet as f64;

    println!(
        "{:<38} {:>14} {:>12}",
        "checking strategy", "sustained pps", "line rate?"
    );
    let row = |name: &str, pps: f64| {
        println!(
            "{:<38} {:>14.0} {:>12}",
            name,
            pps,
            if pps >= LINE_RATE_64B { "YES" } else { "no" }
        );
    };
    row("in-device checker (2 cyc @ 200 MHz)", hw_pps);
    row("host software: checker only", sw_checker_pps);
    row(
        "host software: spec replay + check",
        1.0 / (1.0 / sw_checker_pps + 1.0 / sw_dataplane_pps),
    );
    println!(
        "{:<38} {:>14.0}",
        "10G line rate, 64B frames", LINE_RATE_64B
    );

    println!("\nshape check (paper): only the in-device hardware checker has");
    println!("headroom over the 64B line rate on every lane; host-based");
    println!("checking cannot keep up with a single 10G port, which is why");
    println!("NetDebug places the checker inside the device.");
    assert!(
        hw_pps > LINE_RATE_64B,
        "hardware budget must exceed line rate"
    );
}

criterion_group!(
    benches,
    bench_software_checker,
    bench_software_dataplane,
    line_rate_summary
);
criterion_main!(benches);
