//! Experiment E13 — flat bytecode dispatch vs the tree-walking oracle.
//!
//! PR 5 compiled the pipeline IR to a flat instruction array at load time
//! (`netdebug-dataplane`'s `compile` module); PR 6 adds the optimization
//! pipeline over it (peephole passes, superinstructions) and the flat
//! binary trace buffer behind every traced path. This bench measures the
//! dispatch seam itself on `l2_switch` — parse + exact-hash table apply +
//! counter + deparse per packet — sweeping {reference, compiled
//! unoptimized, compiled optimized} × {traced, untraced} `process_batch`,
//! the single-packet `process_untraced` path, the streaming traced path
//! (`process_batch_with` + a stage-walking sink, i.e. what a device tap
//! actually runs), and a per-pass leave-one-out sweep attributing the
//! optimizer's margin. Numbers land in `BENCH_dispatch.json`.
//!
//! Smoke assertions (the headline of this PR sequence):
//! * compiled optimized must sustain **≥ 1.3×** the reference engine's
//!   untraced batch throughput, and **≥ 1.5×** its streamed
//!   traced one (the flat trace buffer is what buys the traced edge);
//! * the optimizer must never lose to the raw lowering (small tolerance
//!   for timer noise);
//! * absolute floors — untraced ≥ 7 Mpps, streamed traced ≥ 3.4 Mpps —
//!   pin the regression budget in packets, not ratios.

use netdebug_bench::banner;
use netdebug_dataplane::{Dataplane, Engine, LazyTrace, PassConfig, TraceSink, Verdict};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, PacketBuilder};
use std::time::Instant;

const BATCH: usize = 1024;
/// Minimum wall time per measured cell, seconds (three passes, best-of).
const MIN_MEASURE_S: f64 = 0.25;
const PASSES: usize = 3;

/// One engine/pass-config variant of the l2 switch under test.
#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    engine: Engine,
    passes: PassConfig,
}

fn switch_dataplane(v: Variant) -> Dataplane {
    let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
    let mut dp = Dataplane::with_passes(ir, v.passes);
    dp.set_engine(v.engine);
    dp.install_exact("dmac", vec![0x0200_0000_0002], "forward", vec![3])
        .unwrap();
    dp
}

/// Best-of-`PASSES` sustained packet rate for one configuration.
fn measure(v: Variant, traced: bool, pkts: &[(u16, &[u8])]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let mut dp = switch_dataplane(v);
        dp.set_tracing(traced);
        // Warm up: pin snapshots, fill the flow cache.
        std::hint::black_box(dp.process_batch(pkts, 0));
        let mut n = 0usize;
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < MIN_MEASURE_S {
            std::hint::black_box(dp.process_batch(pkts, 0));
            n += pkts.len();
        }
        best = best.max(n as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`PASSES` single-packet `process_untraced` rate.
fn measure_single(v: Variant, frame: &[u8]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let mut dp = switch_dataplane(v);
        dp.set_tracing(false);
        std::hint::black_box(dp.process_untraced(0, frame, 0));
        let mut n = 0usize;
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < MIN_MEASURE_S {
            for _ in 0..256 {
                std::hint::black_box(dp.process_untraced(0, frame, 0));
            }
            n += 256;
        }
        best = best.max(n as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// What a device tap does per packet: walk the lazy trace's state/table
/// stage ids without ever decoding it. Keeps the consumer honest
/// — the streamed row measures trace *production and inspection*, not a
/// discarded buffer.
struct StageCountSink {
    stages: u64,
}

impl TraceSink for StageCountSink {
    fn observe(&mut self, _index: usize, _verdict: &Verdict, trace: &LazyTrace<'_>) {
        self.stages += trace.stages().count() as u64;
    }
}

/// Best-of-`PASSES` rate for the streaming traced path
/// (`process_batch_with` + lazy stage-walking sink — the device tap spine).
fn measure_streamed(v: Variant, pkts: &[(u16, &[u8])]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let mut dp = switch_dataplane(v);
        dp.set_tracing(true);
        let mut sink = StageCountSink { stages: 0 };
        std::hint::black_box(dp.process_batch_with(pkts, 0, &mut sink));
        let mut n = 0usize;
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < MIN_MEASURE_S {
            std::hint::black_box(dp.process_batch_with(pkts, 0, &mut sink));
            n += pkts.len();
        }
        assert!(sink.stages > 0, "streamed sink must see real events");
        best = best.max(n as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    banner("E13: bytecode dispatch + optimization pipeline (l2_switch)");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let frame = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .payload(b"dispatch-bench")
    .build();
    let pkts: Vec<(u16, &[u8])> = (0..BATCH)
        .map(|i| ((i % 4) as u16, frame.as_slice()))
        .collect();

    let variants = [
        Variant {
            name: "reference",
            engine: Engine::Reference,
            passes: PassConfig::default(),
        },
        Variant {
            name: "compiled-unopt",
            engine: Engine::Compiled,
            passes: PassConfig::none(),
        },
        Variant {
            name: "compiled-opt",
            engine: Engine::Compiled,
            passes: PassConfig::default(),
        },
    ];

    let mut json_rows: Vec<String> = Vec::new();
    let mut rates = std::collections::BTreeMap::new();
    println!(
        "{:<46} {:>14} {:>12}",
        "configuration", "sustained pps", "vs ref"
    );
    for v in variants {
        for traced in [false, true] {
            let mode = if traced { "traced" } else { "untraced" };
            let rate = measure(v, traced, &pkts);
            rates.insert((v.name, mode), rate);
            let vs = rate / rates.get(&("reference", mode)).copied().unwrap_or(rate);
            println!(
                "{:<46} {rate:>14.0} {vs:>11.2}x",
                format!("{} process_batch ({mode})", v.name)
            );
            json_rows.push(format!(
                "    {{\"engine\": \"{}\", \"mode\": \"batch\", \"traced\": {traced}, \"pps\": {rate:.0}}}",
                v.name
            ));
        }
        let single = measure_single(v, &frame);
        println!(
            "{:<46} {single:>14.0}",
            format!("{} process_untraced (single packet)", v.name)
        );
        json_rows.push(format!(
            "    {{\"engine\": \"{}\", \"mode\": \"single\", \"traced\": false, \"pps\": {single:.0}}}",
            v.name
        ));
        let streamed = measure_streamed(v, &pkts);
        rates.insert((v.name, "streamed"), streamed);
        let vs = streamed
            / rates
                .get(&("reference", "streamed"))
                .copied()
                .unwrap_or(streamed);
        println!(
            "{:<46} {streamed:>14.0} {vs:>11.2}x",
            format!("{} process_batch_with (streamed traced)", v.name)
        );
        json_rows.push(format!(
            "    {{\"engine\": \"{}\", \"mode\": \"streamed\", \"traced\": true, \"pps\": {streamed:.0}}}",
            v.name
        ));
    }

    // Per-pass attribution: disable one pass at a time and report the
    // untraced batch delta against the full pipeline.
    let opt_fast = rates[&("compiled-opt", "untraced")];
    println!("\nper-pass leave-one-out (untraced):");
    let all = PassConfig::default();
    let leave_one_out = [
        (
            "const_fold",
            PassConfig {
                const_fold: false,
                ..all
            },
        ),
        (
            "dead_store",
            PassConfig {
                dead_store: false,
                ..all
            },
        ),
        ("fuse", PassConfig { fuse: false, ..all }),
        (
            "jump_thread",
            PassConfig {
                jump_thread: false,
                ..all
            },
        ),
    ];
    for (pass, passes) in leave_one_out {
        let v = Variant {
            name: "compiled-loo",
            engine: Engine::Compiled,
            passes,
        };
        let rate = measure(v, false, &pkts);
        let delta = (opt_fast - rate) / opt_fast * 100.0;
        println!("  without {pass:<12} {rate:>14.0} pps  ({delta:>+6.2}% attributed)");
        json_rows.push(format!(
            "    {{\"engine\": \"compiled-without-{pass}\", \"mode\": \"batch\", \"traced\": false, \"pps\": {rate:.0}}}"
        ));
    }

    let ref_fast = rates[&("reference", "untraced")];
    let unopt_fast = rates[&("compiled-unopt", "untraced")];
    let ref_traced = rates[&("reference", "traced")];
    let unopt_traced = rates[&("compiled-unopt", "traced")];
    let opt_traced = rates[&("compiled-opt", "traced")];
    let ref_streamed = rates[&("reference", "streamed")];
    let opt_streamed = rates[&("compiled-opt", "streamed")];
    let speedup = opt_fast / ref_fast;
    // The representative traced path is the streaming one: both engines
    // record into the flat buffer, both consumers walk it lazily, and
    // nothing allocates per packet. (The materialized `process_batch`
    // rows above decode every trace into owned events — that decode
    // dominates and is identical work for both engines.)
    let traced_speedup = opt_streamed / ref_streamed;
    println!("\ncompiled-opt/reference speedup (untraced batch):    {speedup:.2}x");
    println!("compiled-opt/reference speedup (streamed traced):   {traced_speedup:.2}x");
    println!(
        "optimizer margin (untraced): {:.2}x; (traced): {:.2}x; streamed traced: {opt_streamed:.0} pps",
        opt_fast / unopt_fast,
        opt_traced / unopt_traced
    );

    let json = format!(
        "{{\n  \"experiment\": \"interp_dispatch\",\n  \"meta\": {},\n  \"program\": \"l2_switch\",\n  \"batch\": {BATCH},\n  \"cores\": {cores},\n  \"speedup_untraced\": {speedup:.3},\n  \"speedup_streamed_traced\": {traced_speedup:.3},\n  \"streamed_traced_pps\": {opt_streamed:.0},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(BATCH, &netdebug_dataplane::PassConfig::default().to_string()),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // Smoke checks: losing the compiled engine's edge (or silently routing
    // the default path back through the tree-walker) fails CI loudly.
    assert!(
        speedup >= 1.3,
        "compiled-opt must sustain >= 1.3x the reference on untraced \
         process_batch: {opt_fast:.0} vs {ref_fast:.0} pps ({speedup:.2}x)"
    );
    assert!(
        traced_speedup >= 1.5,
        "compiled-opt must sustain >= 1.5x the reference on the streamed \
         traced path (the flat trace buffer owns this edge): \
         {opt_streamed:.0} vs {ref_streamed:.0} pps ({traced_speedup:.2}x)"
    );
    assert!(
        opt_traced >= ref_traced * 0.95,
        "materialized traced path must not lose to the reference: \
         {opt_traced:.0} vs {ref_traced:.0} pps"
    );
    // Optimizer-vs-raw is within timer noise of the measurement matrix
    // above (the passes buy ~10% on this program, the host drifts by
    // about as much between distant cells), so gate it on an interleaved
    // head-to-head: alternating best-of passes cancel thermal drift.
    let unopt_v = variants[1];
    let opt_v = variants[2];
    let (mut best_unopt, mut best_opt) = (0.0f64, 0.0f64);
    for _ in 0..PASSES {
        best_unopt = best_unopt.max(measure(unopt_v, false, &pkts));
        best_opt = best_opt.max(measure(opt_v, false, &pkts));
    }
    println!(
        "head-to-head (untraced, interleaved): opt {best_opt:.0} vs unopt {best_unopt:.0} \
         ({:.2}x)",
        best_opt / best_unopt
    );
    assert!(
        best_opt >= best_unopt * 0.95,
        "the optimizer must not lose to the raw lowering (untraced, \
         interleaved): {best_opt:.0} vs {best_unopt:.0} pps"
    );
    let opt_best_fast = opt_fast.max(best_opt);
    assert!(
        opt_best_fast >= 7_000_000.0,
        "untraced floor: {opt_best_fast:.0} pps < 7 Mpps"
    );
    assert!(
        opt_streamed >= 3_400_000.0,
        "streamed traced floor: {opt_streamed:.0} pps < 3.4 Mpps \
         (2x the PR-5 materialized-trace baseline)"
    );
}
