//! Experiment E8 — the paper's "line rate, real time" claim (§2).
//!
//! NetDebug's checker is a hardware module with a fixed per-packet cycle
//! budget. The alternative the paper argues against — checking on the host
//! — is bounded by software speed. This bench measures our *actual* Rust
//! checker and interpreter as stand-ins for host-based checking, and
//! compares the sustainable packet rates against the 10G line rate and
//! the modelled hardware budget.

use netdebug::checker::Checker;
use netdebug::generator::{Expectation, Generator, StreamSpec};
use netdebug_bench::{banner, routable_frame, router_dataplane, time_ops};
use netdebug_hw::Outcome;
use netdebug_packet::Ipv4Address;
use std::hint::black_box;

const LINE_RATE_64B: f64 = 14_880_952.0; // 10G, 64B frames
const CLOCK_HZ: f64 = 200e6;
/// The modelled hardware checker's budget: header match, CRC and counter
/// update fit in 2 device cycles a packet.
const HW_CHECK_CYCLES: f64 = 2.0;
const TRIALS: usize = 5;
const MIN_MEASURE_S: f64 = 0.05;

fn main() {
    banner("E8: who can check at line rate?");
    let frame = routable_frame(Ipv4Address::new(10, 0, 0, 9));

    // The software checker, fed one forwarded test frame over and over.
    let forward = Expectation::Forward { port: Some(1) };
    let spec = StreamSpec::simple(1, frame.clone(), 1_000_000, forward);
    let outcome = Outcome::Tx {
        port: 1,
        data: Generator::new().build(&spec, 0, 0).data.to_vec().into(),
    };
    let mut checker = Checker::new();
    checker.open_stream(1, forward, u64::MAX);
    let sw_checker = time_ops(TRIALS, MIN_MEASURE_S, || {
        for now in 0..1024 {
            checker.observe(black_box(&outcome), now);
        }
        1024
    });

    // The software data plane (host-based replay checking needs both:
    // re-run the spec AND compare).
    let mut dp = router_dataplane();
    let sw_dataplane = time_ops(TRIALS, MIN_MEASURE_S, || {
        for _ in 0..1024 {
            black_box(dp.process_untraced(0, black_box(&frame), 0));
        }
        1024
    });

    // The hardware checker's modelled budget.
    let hw_pps = CLOCK_HZ / HW_CHECK_CYCLES;

    println!(
        "{:<38} {:>14} {:>12} {:>12}",
        "checking strategy", "sustained pps", "median ns", "line rate?"
    );
    let row = |name: &str, ns: f64| {
        let verdict = if 1e9 / ns >= LINE_RATE_64B {
            "YES"
        } else {
            "no"
        };
        println!("{name:<38} {:>14.0} {ns:>12.1} {verdict:>12}", 1e9 / ns);
    };
    row("in-device checker (2 cyc @ 200 MHz)", 1e9 / hw_pps);
    row("host software: checker only", sw_checker.median_ns);
    row(
        "host software: spec replay + check",
        sw_checker.median_ns + sw_dataplane.median_ns,
    );
    println!("{:<38} {LINE_RATE_64B:>14.0}", "10G line rate, 64B frames");

    println!("\nshape check (paper): only the in-device hardware checker has");
    println!("headroom over the 64B line rate on every lane; host-based");
    println!("checking cannot keep up with a single 10G port, which is why");
    println!("NetDebug places the checker inside the device.");
    assert!(
        hw_pps > LINE_RATE_64B,
        "hardware budget must exceed line rate"
    );
}
