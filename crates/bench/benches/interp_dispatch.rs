//! Experiment E13 — flat bytecode dispatch vs the tree-walking oracle.
//!
//! The pipeline IR is compiled to a flat instruction array at load time
//! (`netdebug-dataplane`'s `compile` module, which checks one value-stack
//! depth per instruction before anything runs), and every traced path
//! records into the flat binary trace buffer. This bench measures the
//! dispatch seam itself on `l2_switch` — parse, exact-hash table apply,
//! counter and deparse per packet — and on `ipv4_forward` — two parser
//! states, an LPM apply and a four-field rewrite — sweeping {reference,
//! compiled} × {traced, untraced} `process_batch`, the single-packet
//! `process_untraced` path and the streaming traced path
//! (`process_batch_with` + a sink that walks each trace's stage lane,
//! i.e. what a device tap actually runs). The bed's one frame repeats, so
//! those compiled rows are flow-cache hits, and a streamed hit's stage
//! lane is read in place from its cache entry. The `batch_nocache` rows
//! run compiled untraced `process_batch` with the flow cache off, so every
//! packet runs the bytecode: they are the rows that time the interpreter
//! (`speedup_untraced_nocache` sets them against the reference engine,
//! which never caches). Numbers land in `BENCH_dispatch.json`.
//!
//! Smoke assertions:
//! * on `ipv4_forward` (the engines are far enough apart there that a
//!   noisy hour cannot close the gap), compiled must sustain **≥ 1.3×**
//!   the reference engine's untraced batch throughput, and **≥ 1.5×** its
//!   streamed traced one (the flat trace buffer is what buys the traced
//!   edge);
//! * on both programs, the compiled streamed traced path — the tap path —
//!   must sustain **≥ 1.0×** compiled untraced `process_batch`: a tap
//!   that reads only the stage lane costs less than materialising the
//!   batch's result vector, so a tap that walks the records again fails.
//!   It is the median ratio of interleaved paired sweeps, so host drift
//!   between two separately timed passes does not land in it;
//! * on `l2_switch`, absolute floors — untraced ≥ 7 Mpps, streamed traced
//!   ≥ 3.4 Mpps — pin the regression budget in packets, not ratios.

use netdebug_bench::{
    banner, dec, host_cores, routable_frame, router_dataplane, row, switch_dataplane, time_ops,
    Report, Value,
};
use netdebug_dataplane::{Dataplane, Engine, LazyTrace, TraceSink, Verdict};
use netdebug_packet::{Ipv4Address, PacketBuilder};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const BATCH: usize = 1024;
/// Minimum wall time per measured cell, seconds (three trials, best-of).
const MIN_MEASURE_S: f64 = 0.25;
const TRIALS: usize = 3;
/// Interleaved pairs the tap gate takes its median over, and the batches
/// each side of a pair sweeps.
const TAP_PAIRS: usize = 21;
const TAP_ROUNDS: usize = 16;

/// A program under test: its name, a deployed data plane whose one entry
/// makes `frame` hit, and the frame.
struct Bed {
    name: &'static str,
    dataplane: fn() -> Dataplane,
    frame: Vec<u8>,
}

fn beds() -> [Bed; 2] {
    [
        Bed {
            name: "l2_switch",
            dataplane: || switch_dataplane(0x0200_0000_0002, 1),
            frame: PacketBuilder::ethernet(netdebug_bench::src_mac(), netdebug_bench::dst_mac())
                .payload(b"dispatch-bench")
                .build(),
        },
        Bed {
            name: "ipv4_forward",
            dataplane: router_dataplane,
            frame: routable_frame(Ipv4Address::new(10, 1, 2, 3)),
        },
    ]
}

/// What a device tap does per packet: walk the lazy trace's stage lane
/// without ever decoding it, and say so, so only the lane is recorded.
/// Keeps the consumer honest
/// — the streamed row measures trace *production and inspection*, not a
/// discarded buffer.
struct StageCountSink {
    stages: u64,
}

impl TraceSink for StageCountSink {
    fn observe(&mut self, _index: usize, _verdict: Verdict, trace: &LazyTrace<'_>) {
        self.stages += trace.stages().count() as u64;
    }

    /// Like a device tap, it reads the stage lane alone, so the data
    /// plane records nothing else.
    fn reads_records(&self) -> bool {
        false
    }
}

/// The measured cells of one engine on one program: `(mode, traced)`.
const CELLS: [(&str, bool); 4] = [
    ("batch", false),
    ("batch", true),
    ("single", false),
    ("streamed", true),
];
const UNTRACED: usize = 0;
const TRACED: usize = 1;
const STREAMED: usize = 3;

/// One engine's best-of-`TRIALS` sustained rates on one program, in
/// `CELLS` order.
fn sweep(bed: &Bed, engine: Engine, pkts: &[(u16, &[u8])]) -> [f64; 4] {
    CELLS.map(|(mode, traced)| {
        let mut dp = (bed.dataplane)();
        dp.set_engine(engine);
        dp.set_tracing(traced);
        let mut sink = StageCountSink { stages: 0 };
        let timing = time_ops(TRIALS, MIN_MEASURE_S, || match mode {
            "batch" => {
                black_box(dp.process_batch(pkts, 0));
                pkts.len()
            }
            "single" => {
                for _ in 0..256 {
                    black_box(dp.process_untraced(0, &bed.frame, 0));
                }
                256
            }
            // The device tap spine: `process_batch_with` + a lazy
            // stage-walking sink.
            "streamed" => {
                dp.process_batch_with(pkts, 0, &mut sink);
                pkts.len()
            }
            other => unreachable!("no such cell: {other}"),
        });
        assert!(
            mode != "streamed" || sink.stages > 0,
            "streamed sink must see real events"
        );
        timing.rate()
    })
}

/// Compiled untraced `process_batch` with the flow cache off: every
/// packet runs the bytecode.
fn nocache_rate(bed: &Bed, pkts: &[(u16, &[u8])]) -> f64 {
    let mut dp = (bed.dataplane)();
    dp.set_tracing(false);
    dp.set_flow_cache(false);
    let timing = time_ops(TRIALS, MIN_MEASURE_S, || {
        black_box(dp.process_batch(pkts, 0));
        pkts.len()
    });
    timing.rate()
}

/// The compiled tap path's rate over compiled untraced `process_batch`'s
/// on one bed: the median over [`TAP_PAIRS`] pairs of sweeps run back to
/// back, in alternating order, so host drift between pairs cancels out
/// of each ratio instead of landing in it.
fn paired_tap_ratio(bed: &Bed, pkts: &[(u16, &[u8])]) -> f64 {
    let [mut tap, mut untraced] = [true, false].map(|traced| {
        let mut dp = (bed.dataplane)();
        dp.set_tracing(traced);
        dp
    });
    let mut sink = StageCountSink { stages: 0 };
    let mut sweep = |tap_side: bool| {
        let t0 = Instant::now();
        for _ in 0..TAP_ROUNDS {
            if tap_side {
                tap.process_batch_with(pkts, 0, &mut sink);
            } else {
                black_box(untraced.process_batch(pkts, 0));
            }
        }
        t0.elapsed().as_secs_f64()
    };
    sweep(true); // warm-up: both sides' flow caches fill
    sweep(false);
    let mut ratios: Vec<f64> = (0..TAP_PAIRS)
        .map(|pair| {
            let first = pair % 2 == 0;
            let (a, b) = (sweep(first), sweep(!first));
            let (tap_s, untraced_s) = if first { (a, b) } else { (b, a) };
            untraced_s / tap_s
        })
        .collect();
    assert!(sink.stages > 0, "the paired tap sink must see real events");
    ratios.sort_by(f64::total_cmp);
    ratios[TAP_PAIRS / 2]
}

fn main() -> ExitCode {
    banner("E13: bytecode dispatch vs the tree-walker (l2_switch, ipv4_forward)");
    let mut report = Report::new("interp_dispatch", "BENCH_dispatch.json", BATCH);
    report.set("batch", BATCH);
    report.set("cores", host_cores());

    let mut speedups = Vec::new();
    let mut taps = Vec::new();
    let [(_, l2_compiled), (reference, compiled)] = beds().map(|bed| {
        let pkts: Vec<(u16, &[u8])> = (0..BATCH)
            .map(|i| ((i % 4) as u16, bed.frame.as_slice()))
            .collect();
        let reference = sweep(&bed, Engine::Reference, &pkts);
        let compiled = sweep(&bed, Engine::Compiled, &pkts);
        let nocache = nocache_rate(&bed, &pkts);
        for (engine, rates) in [("reference", reference), ("compiled", compiled)] {
            for ((mode, traced), pps) in CELLS.into_iter().zip(rates) {
                report.row(
                    row!["program" => bed.name, "engine" => engine, "mode" => mode,
                    "traced" => traced, "pps" => dec(pps, 0)],
                );
            }
        }
        report.row(
            row!["program" => bed.name, "engine" => "compiled", "mode" => "batch_nocache",
            "traced" => false, "pps" => dec(nocache, 0), "ns_per_pkt" => dec(1e9 / nocache, 1)],
        );
        let tap = paired_tap_ratio(&bed, &pkts);
        taps.push((bed.name, tap));
        speedups.push(Value::Obj(row!["program" => bed.name,
            "speedup_untraced" => dec(compiled[UNTRACED] / reference[UNTRACED], 3),
            "speedup_untraced_nocache" => dec(nocache / reference[UNTRACED], 3),
            "speedup_streamed_traced" => dec(compiled[STREAMED] / reference[STREAMED], 3),
            "tap_vs_untraced_paired" => dec(tap, 3)]));
        (reference, compiled)
    });
    println!("\nspeedups: {}", Value::List(speedups.clone()).json());
    report.set("speedups", Value::List(speedups));

    // Gates: losing the compiled engine's edge (or silently routing the
    // default path back through the tree-walker) fails CI loudly. Ratios
    // are gated on ipv4_forward (on one-header l2_switch both engines sit
    // near the API floor and a noisy run read 1.18x); the absolute floors
    // stay on l2_switch, where they were calibrated.
    let vs = |cell: usize| {
        let (c, r) = (compiled[cell], reference[cell]);
        (c / r, format!("{c:.0} vs {r:.0} pps ({:.2}x)", c / r))
    };
    let (speedup, measured) = vs(UNTRACED);
    report.gate(
        "compiled sustains >= 1.3x the reference on untraced process_batch (ipv4_forward)",
        speedup >= 1.3,
        measured,
    );
    // The representative traced path is the streaming one: both engines
    // record into the flat buffer, both consumers walk it lazily, and
    // nothing allocates per packet. (The materialized `process_batch`
    // rows decode every trace into owned events — that decode dominates
    // and is identical work for both engines.)
    let (traced_speedup, measured) = vs(STREAMED);
    report.gate(
        "compiled sustains >= 1.5x the reference on the streamed traced path (the flat trace buffer owns this edge)",
        traced_speedup >= 1.5,
        measured,
    );
    let (materialized, measured) = vs(TRACED);
    report.gate(
        "the materialized traced path does not lose to the reference (>= 0.95x)",
        materialized >= 0.95,
        measured,
    );
    // The tap path against the untraced batch, compiled, on both beds.
    for (name, ratio) in taps {
        report.gate(
            &format!(
                "compiled streamed traced (a device tap) >= 1.0x compiled untraced process_batch ({name})"
            ),
            ratio >= 1.0,
            format!("{ratio:.2}x, median of {TAP_PAIRS} paired sweeps"),
        );
    }
    report.gate(
        "l2_switch untraced floor: >= 7 Mpps",
        l2_compiled[UNTRACED] >= 7_000_000.0,
        format!("{:.0} pps", l2_compiled[UNTRACED]),
    );
    report.gate(
        "l2_switch streamed traced floor: >= 3.4 Mpps (2x the PR-5 materialized-trace baseline)",
        l2_compiled[STREAMED] >= 3_400_000.0,
        format!("{:.0} pps", l2_compiled[STREAMED]),
    );
    report.finish()
}
