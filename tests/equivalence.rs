//! Cross-crate equivalence properties:
//!
//! * a bug-free backend (sdnet-fixed) is behaviourally identical to the
//!   reference on every corpus program it accepts, over the full
//!   parser-path probe set AND random packets;
//! * the device model agrees packet-for-packet with the bare reference
//!   interpreter (the device adds MACs, clocks and taps — never semantics).

use netdebug::differential::diff_devices;
use netdebug::probes::parser_path_probes;
use netdebug_dataplane::{Dataplane, DropReason, Engine, Verdict};
use netdebug_hw::{Backend, Device, Outcome};
use netdebug_p4::corpus;
use proptest::prelude::*;

#[test]
fn fixed_sdnet_equivalent_to_reference_on_accepted_corpus() {
    for prog in corpus::corpus() {
        let ir = netdebug_p4::compile(prog.source).unwrap();
        if Backend::sdnet_fixed().compile(&ir).is_err() {
            continue; // diagnosed architecture limits; nothing to compare
        }
        let mut a = Device::deploy(&Backend::reference(), &ir).unwrap();
        let mut b = Device::deploy(&Backend::sdnet_fixed(), &ir).unwrap();
        let probes = parser_path_probes(&ir);
        let report = diff_devices(&mut a, &mut b, &probes);
        assert!(
            report.equivalent(),
            "{}: {:#?}",
            prog.name,
            report.divergences
        );
    }
}

#[test]
fn device_agrees_with_bare_interpreter() {
    for prog in corpus::corpus() {
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let mut dp = Dataplane::new(ir.clone());
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        for probe in parser_path_probes(&ir) {
            let verdict = dp.process_untraced(0, &probe.data, 0);
            let outcome = dev.inject(0, &probe.data).outcome;
            match (&verdict, &outcome) {
                (Verdict::Forward { port: vp, data: vd }, Outcome::Tx { port: op, data: od }) => {
                    assert_eq!(vp, op, "{}", prog.name);
                    assert_eq!(vd, od, "{}", prog.name);
                }
                (Verdict::Flood { data: vd }, Outcome::Flood { data: od }) => {
                    assert_eq!(vd, od, "{}", prog.name)
                }
                (Verdict::Drop(_), Outcome::Dropped { .. }) => {}
                // Device may demote a Forward to BadEgress when the chosen
                // port exceeds the 4-port board — the interpreter has no
                // port count.
                (Verdict::Forward { port, .. }, Outcome::Dropped { .. }) if *port >= 4 => {}
                other => panic!("{}: {:?}", prog.name, other),
            }
        }
    }
}

/// The device accounts taps and latency by the IR ids trace records carry.
/// Recompute both **by name** from the decoded trace of a twin data plane
/// — `LatencyModel::packet_cycles` over `parser:`/`table:` tap names — and
/// require every `Processed` field and the tap counters to agree, on every
/// corpus program, every parser-path probe and both engines.
#[test]
fn id_indexed_taps_agree_with_the_by_name_model() {
    for prog in corpus::corpus() {
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let probes = parser_path_probes(&ir);
        for engine in [Engine::Compiled, Engine::Reference] {
            let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
            dev.set_engine(engine);
            let compiled = dev.compiled().clone();
            let mut twin =
                Dataplane::with_table_capacities(compiled.program.clone(), &compiled.capacities);
            twin.set_engine(engine);
            let names = dev.stage_names().to_vec();
            let tap = |name: String| names.iter().position(|n| **n == *name).expect("a tap");
            let ports = usize::from(dev.config().ports);
            let mut counts = vec![0u64; names.len()];
            let mut pipe_next_start = 0u64;
            // Twice over the probes, ports rotating: stateful programs and
            // the flow cache see repeats, the pipeline sees back-pressure.
            for (i, probe) in probes.iter().chain(&probes).enumerate() {
                let port = (i % ports) as u16;
                let now = dev.now();
                let (verdict, trace) = twin.process(port, &probe.data, now);
                let (states, tables) = (trace.states_visited(), trace.tables_applied());
                let mut last = None;
                for s in &states {
                    last = Some(tap(format!("parser:{s}")));
                    counts[last.unwrap()] += 1;
                }
                for t in &tables {
                    last = Some(tap(format!("table:{t}")));
                    counts[last.unwrap()] += 1;
                }
                let (deparser, egress) = (names.len() - 2, names.len() - 1);
                let outcome = match verdict {
                    Verdict::Forward { port: out, .. } if usize::from(out) >= ports => {
                        counts[deparser] += 1;
                        last = Some(deparser);
                        Outcome::Dropped {
                            reason: DropReason::BadEgress,
                        }
                    }
                    Verdict::Forward { port, data } => {
                        counts[deparser] += 1;
                        counts[egress] += 1;
                        last = Some(egress);
                        Outcome::Tx { port, data }
                    }
                    Verdict::Flood { data } => {
                        counts[deparser] += 1;
                        counts[egress] += 1;
                        last = Some(egress);
                        Outcome::Flood { data }
                    }
                    Verdict::Drop(reason) => Outcome::Dropped { reason },
                };
                let pipeline_cycles = compiled.latency.packet_cycles(&states, &tables);
                let start = now.max(pipe_next_start);
                pipe_next_start = start + compiled.latency.initiation_interval;

                let p = dev.inject(port, &probe.data);
                let ctx = format!("{} {engine:?} probe {i} ({})", prog.name, probe.path);
                assert_eq!(p.outcome, outcome, "{ctx}");
                assert_eq!(p.pipeline_cycles, pipeline_cycles, "{ctx}");
                assert_eq!(p.done_at_cycle, start + pipeline_cycles, "{ctx}");
                assert_eq!(
                    &*p.last_stage,
                    last.map_or("parser:start", |i| &*names[i]),
                    "{ctx}"
                );
                assert_eq!(dev.stage_counts(), counts, "{ctx}");
                // Idle now and then, so both arms of `max(now, next start)` run.
                if i % 3 == 0 {
                    dev.advance(7);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random packets: reference and fixed-SDNet devices agree everywhere.
    #[test]
    fn random_packets_agree_on_fixed_backend(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        port in 0u16..4,
    ) {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut a = Device::deploy(&Backend::reference(), &ir).unwrap();
        let mut b = Device::deploy(&Backend::sdnet_fixed(), &ir).unwrap();
        let oa = a.inject(port, &data).outcome;
        let ob = b.inject(port, &data).outcome;
        match (&oa, &ob) {
            (Outcome::Tx { port: pa, data: da }, Outcome::Tx { port: pb, data: db }) => {
                prop_assert_eq!(pa, pb);
                prop_assert_eq!(da, db);
            }
            (Outcome::Dropped { reason: ra }, Outcome::Dropped { reason: rb }) => {
                prop_assert_eq!(ra, rb);
            }
            (Outcome::Flood { data: da }, Outcome::Flood { data: db }) => {
                prop_assert_eq!(da, db);
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Random packets: the buggy backend NEVER drops a packet the reference
    /// forwards (the reject bug only ever forwards too much, never too
    /// little) — a directional property of this bug class.
    #[test]
    fn reject_bug_is_one_directional(
        data in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut reference = Device::deploy(&Backend::reference(), &ir).unwrap();
        let mut buggy = Device::deploy(&Backend::sdnet_2018(), &ir).unwrap();
        let r = reference.inject(0, &data).outcome.transmitted();
        let b = buggy.inject(0, &data).outcome.transmitted();
        // forwarded-by-reference implies forwarded-by-buggy.
        prop_assert!(!r || b, "reference forwards but buggy drops");
    }
}
