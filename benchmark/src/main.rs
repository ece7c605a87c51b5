//! The repo benchmark: six session-rate workloads measured from outside,
//! through the public session API, one workload per invocation.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that times the public call into
//! each layer on the same inputs (the per-layer ledger). The last line of
//! stdout is the machine-readable result; everything for people goes to
//! stderr. See `README.md` for the load model and how to read the output.

mod alloc;
mod calibrate;
mod layers;
mod measure;
mod workloads;

use calibrate::{cpu_seconds, Calibrated};
use layers::{Bench, Outcome};
use measure::{result_json, Tracer};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics, as `BENCHMARK.json` lists them: (name, unit).
const END_TO_END: [(&str, &str); 3] = [
    ("session_pps", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: (name, unit). A
/// layer a workload does not exercise reports 0 (see the README table).
const PER_LAYER: [(&str, &str); 30] = [
    ("core.generator.build_ns_per_pkt", "ns"),
    ("core.generator.allocs_per_pkt", "count"),
    ("dataplane.interp.ns_per_pkt", "ns"),
    ("dataplane.interp.allocs_per_pkt", "count"),
    ("dataplane.trace.ns_per_pkt", "ns"),
    ("dataplane.cache.hit_ratio", "ratio"),
    ("dataplane.cache.saved_ns_per_pkt", "ns"),
    ("dataplane.table.lookup_ns", "ns"),
    ("dataplane.control.publish_us_p50", "us"),
    ("dataplane.control.publish_us_p99", "us"),
    ("dataplane.control.ns_per_pkt", "ns"),
    ("hw.device.inject_ns_per_pkt", "ns"),
    ("hw.device.self_ns_per_pkt", "ns"),
    ("hw.device.allocs_per_pkt", "count"),
    ("core.runtime.drive_ns_per_pkt", "ns"),
    ("core.runtime.self_ns_per_pkt", "ns"),
    ("core.runtime.instants", "count"),
    ("core.runtime.dispatches", "count"),
    ("core.runtime.mean_batch", "count"),
    ("core.runtime.wheel_cascades", "count"),
    ("core.runtime.worker_speedup", "ratio"),
    ("core.checker.observe_ns_per_pkt", "ns"),
    ("core.checker.allocs_per_pkt", "count"),
    ("core.session.ns_per_pkt", "ns"),
    ("core.session.unattributed_pct", "%"),
    ("core.session.unit_ms_p50", "ms"),
    ("p4.compile_us", "us"),
    ("hw.backend.compile_us", "us"),
    ("dataplane.compile_us", "us"),
    ("tracing.overhead_pct", "%"),
];

/// Fresh set-ups timed for `setup_s`: sections of about `SETUPS.0` seconds
/// (a 40 us set-up is timed many to a section), at least `SETUPS.1` sections,
/// then more while `SETUPS.2` seconds of wall time have not passed.
const SETUPS: (f64, usize, f64) = (2e-3, 9, 1.0);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or(bad(&format!("one of {known:?}")))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("within (0, 60]"));
                }
            }
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one invocation measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Run {
    /// Count one verified unit: the packets its checker disagrees with the
    /// workload's expectation on, or all of them when its digest is not
    /// the reference digest.
    fn count(&mut self, outcome: &Outcome, reference_digest: u64, per_unit: u64) {
        self.attempted += per_unit;
        self.failed += outcome.mismatched;
        if outcome.digest != reference_digest {
            self.failed += per_unit;
        }
    }
}

/// Deploy, then check one unit against both oracles, untimed: the
/// workload's own expectation, and the `Engine::Reference`, cache-off
/// digest of the same frames.
fn deploy_and_check(args: &Args, run: &mut Run) -> (Bench, u64) {
    let input = workloads::generate(args.workload, args.seed);
    let plan = layers::plan(args.workload, &input);
    let deployed = layers::deploy(&plan);
    let bench = Bench::new(plan, deployed);
    let per_unit = bench.plan().packets_per_unit();
    let reference = bench.run_unit(true);
    let measured = bench.run_unit(false);
    run.count(&reference, reference.digest, per_unit);
    run.count(&measured, reference.digest, per_unit);
    eprintln!(
        "{}: {per_unit} packets/unit, flow-cache hit ratio {:.4}, {} table entries, digest {:016x}",
        args.workload.name(),
        measured.cache_hit_ratio,
        measured.table_entries,
        measured.digest
    );
    (bench, reference.digest)
}

fn end_to_end(args: &Args) -> Run {
    let mut run = Run::default();
    let (bench, digest) = deploy_and_check(args, &mut run);
    let per_unit = bench.plan().packets_per_unit();

    // Peak live heap of one unit (the warm-up), while the allocator still
    // counts; the timed phase then runs with counting off.
    alloc::reset_peak();
    let mut unit = bench.prepare(false);
    let start = cpu_seconds();
    bench.execute(&mut unit);
    let unit_cpu_s = cpu_seconds() - start;
    let warm = bench.verify(unit);
    let peak_heap_mb = alloc::peak_bytes() as f64 / (1024.0 * 1024.0);
    run.count(&warm, digest, per_unit);
    alloc::set_counting(false);

    let start = cpu_seconds();
    std::hint::black_box(layers::deploy(bench.plan()));
    let setup_cpu_s = (cpu_seconds() - start).max(1e-6);
    let per_section = ((SETUPS.0 / setup_cpu_s).ceil() as usize).max(1);
    let mut setups = Calibrated::new(setup_cpu_s * per_section as f64);
    let begin = Instant::now();
    while setups.sections() < SETUPS.1 || begin.elapsed().as_secs_f64() < SETUPS.2 {
        setups.time(|| {
            for _ in 0..per_section {
                std::hint::black_box(layers::deploy(bench.plan()));
            }
        });
    }

    // Closed loop, one generator thread: the next unit starts when the
    // previous one has been checked (and its calibration block has run).
    let mut units = Calibrated::new(unit_cpu_s);
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < args.seconds {
        let mut unit = bench.prepare(false);
        units.time(|| bench.execute(&mut unit));
        run.count(&bench.verify(unit), digest, per_unit);
    }
    let (unit, setup) = (units.seconds(), setups.seconds());
    eprintln!("unit_s   {unit} (calibrated; first unit {unit_cpu_s:.6} s of CPU)");
    eprintln!("setup_s  {setup} per {per_section} set-ups (calibrated)");
    eprintln!(
        "kernel_s {} (nominal {})",
        units.kernel_seconds(),
        calibrate::NOMINAL_S
    );
    let values = [
        per_unit as f64 / unit.median,
        setup.median / per_section as f64,
        peak_heap_mb,
    ];
    run.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();
    run
}

fn per_layer(args: &Args) -> Run {
    let mut run = Run::default();
    let (bench, _) = deploy_and_check(args, &mut run);
    let mut tracer = Tracer::new();
    let measured = bench.ledger(args.seconds, &mut tracer);
    run.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, unit, value)
        })
        .collect();
    assert!(
        measured
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|(p, _)| p == n)),
        "the ledger reports only listed metrics"
    );
    write_out(
        &format!("trace-{}.json", args.workload.name()),
        &tracer.to_json(args.workload.name(), args.seed),
    );
    run
}

/// Files for people land in `benchmark/out/` under the working directory
/// (the checkout root); failing to write one does not fail the run.
fn write_out(name: &str, contents: &str) {
    let path = format!("benchmark/out/{name}");
    if let Err(e) =
        std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(&path, contents))
    {
        eprintln!("could not write {path}: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for (name, unit, value) in &run.metrics {
        eprintln!("{name:<40} {value:>16.4} {unit}");
    }
    let correct = run.failed == 0 && run.metrics.iter().all(|(_, _, v)| v.is_finite());
    let result = result_json(correct, run.attempted, run.failed, &run.metrics);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    write_out(
        &format!("results-{}-trace{}.json", args.workload.name(), u8::from(args.trace)),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"cores\": {cores}, \"result\": {result}}}\n",
            args.workload.name(),
            args.seed,
            args.seconds
        ),
    );
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: {} of {} packets disagree with the oracle",
            run.failed, run.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
