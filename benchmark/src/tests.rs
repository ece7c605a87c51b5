//! Whole-benchmark tests: the contract with `BENCHMARK.json`, workload
//! validity, exact-count repeatability and (ignored by default, because
//! it times) the ledger closing on the session figure.
//!
//! Run with `cargo test --release`: the units are tens of thousands of
//! packets each.

use crate::layers::{self, Bench};
use crate::measure::Tracer;
use crate::workloads::{self, Workload, CHURN_OCCUPANCY};
use crate::{alloc, END_TO_END, PER_LAYER};
use std::sync::{Mutex, MutexGuard};

/// The allocator's counters are process-wide, so tests that read them
/// must not overlap each other — nor tests that merely allocate a lot.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bench(workload: Workload, seed: u64) -> Bench {
    let plan = layers::plan(workload, &workloads::generate(workload, seed));
    let deployed = layers::deploy(&plan);
    Bench::new(plan, deployed)
}

/// Exact counts must repeat; a sample polluted by an allocation of the
/// test harness's own threads is retried rather than trusted.
fn repeats<T: PartialEq + std::fmt::Debug>(mut measure: impl FnMut() -> T) -> T {
    let mut previous = measure();
    for _ in 0..3 {
        let next = measure();
        if next == previous {
            return next;
        }
        previous = next;
    }
    panic!("never measured the same counts twice in a row; last: {previous:?}");
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    // No name, unit or reason relies on its spaces, so compare without any.
    let json: String = json.split_whitespace().collect();
    for (section, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let from = json.find(&format!("\"{section}\"")).expect(section);
        let listed = json[from..].split(']').next().expect("a list");
        assert_eq!(
            listed.matches("\"name\"").count(),
            metrics.len(),
            "{section}"
        );
        for (name, unit) in metrics {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(listed.contains(&entry), "{section} lacks {name} [{unit}]");
        }
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\":\"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_workload_agrees_with_both_oracles() {
    let _serial = serial();
    for w in Workload::ALL {
        let bench = bench(w, 3);
        let (reference, measured) = (bench.run_unit(true), bench.run_unit(false));
        assert_eq!(reference.mismatched, 0, "{}", w.name());
        assert_eq!(measured.mismatched, 0, "{}", w.name());
        assert_eq!(measured.digest, reference.digest, "{}", w.name());
        assert_eq!(
            bench.run_unit(false),
            measured,
            "{}: units repeat exactly",
            w.name()
        );
        match w {
            Workload::L2LongStream => assert!(measured.cache_hit_ratio > 0.99),
            Workload::RouterManyFlows | Workload::AclTernary512 => {
                assert!(measured.cache_hit_ratio < 0.05)
            }
            Workload::L2ChurnSteady => {
                assert!(measured.table_entries.abs_diff(CHURN_OCCUPANCY) <= 8)
            }
            Workload::FleetPaced | Workload::CorpusConformance => {}
        }
    }
}

#[test]
fn a_broken_expectation_is_counted_as_failed() {
    let _serial = serial();
    let workloads::Input::Traffic(mut traffic) = workloads::generate(Workload::L2LongStream, 3)
    else {
        unreachable!()
    };
    traffic.streams[0].expect = workloads::Expect::Drop;
    let plan = layers::plan(Workload::L2LongStream, &workloads::Input::Traffic(traffic));
    let deployed = layers::deploy(&plan);
    let outcome = Bench::new(plan, deployed).run_unit(false);
    assert!(outcome.mismatched >= 32_768, "{outcome:?}");
}

#[test]
fn exact_counts_repeat_across_in_process_runs() {
    let _serial = serial();
    alloc::set_counting(true);
    for w in [
        Workload::RouterManyFlows,
        Workload::L2ChurnSteady,
        Workload::FleetPaced,
    ] {
        const LOOP_COUNTS: [&str; 4] = ["instants", "dispatches", "mean_batch", "wheel_cascades"];
        let exact = |name: &str| {
            name.ends_with("allocs_per_pkt")
                || name
                    .strip_prefix("core.runtime.")
                    .is_some_and(|n| LOOP_COUNTS.contains(&n))
        };
        let counts = repeats(|| {
            // A budget of zero still runs one warm-up and one recorded round.
            let mut ledger = bench(w, 3).ledger(0.0, &mut Tracer::new());
            ledger.retain(|(name, _)| exact(name));
            ledger
                .iter()
                .map(|(name, v)| (*name, v.to_bits()))
                .collect::<Vec<_>>()
        });
        assert_eq!(counts.len(), 8, "{}: {counts:?}", w.name());
    }
    // Peak live heap of a unit, above the heap it started from.
    for w in [Workload::RouterManyFlows, Workload::L2ChurnSteady] {
        let bench = bench(w, 3);
        bench.run_unit(false);
        repeats(|| {
            let before = alloc::live_bytes();
            alloc::reset_peak();
            bench.run_unit(false);
            alloc::peak_bytes() - before
        });
    }
}

/// Timing-sensitive, so not part of the default run:
/// `cargo test --release -- --ignored --test-threads=1`.
#[test]
#[ignore = "times the layers; run alone on a quiet machine"]
fn the_peeled_layers_sum_to_the_session_figure() {
    let _serial = serial();
    alloc::set_counting(true);
    for w in [
        Workload::L2LongStream,
        Workload::RouterManyFlows,
        Workload::AclTernary512,
        Workload::L2ChurnSteady,
    ] {
        let ledger = bench(w, 3).ledger(6.0, &mut Tracer::new());
        let (_, unattributed) = ledger
            .iter()
            .find(|(name, _)| *name == "core.session.unattributed_pct")
            .expect("reported");
        assert!(
            unattributed.abs() <= 10.0,
            "{}: {unattributed:.1}% unattributed",
            w.name()
        );
    }
}
