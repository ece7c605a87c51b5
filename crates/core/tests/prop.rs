//! Property-based tests for the NetDebug core: accounting invariants of
//! the generator/checker pair and robustness of the probe machinery.

use netdebug::generator::{find_test_header, Expectation, FieldSweep, StreamSpec};
use netdebug::session::NetDebug;
use netdebug_dataplane::{lpm_pattern, TableEntry, Update};
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use netdebug_p4::ir::IrPattern;
use netdebug_packet::{EthernetAddress, PacketBuilder, TestHeader, TEST_HEADER_LEN};
use proptest::prelude::*;

fn reflector() -> NetDebug {
    NetDebug::new(Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation of packets: for every stream on every backend,
    /// sent == received + dropped + lost, and on the reflector (which never
    /// drops) the checker sees every packet exactly once, in order.
    #[test]
    fn accounting_invariant(
        count in 1u64..80,
        rate in proptest::option::of(1e5f64..1e7),
        payload_len in 0usize..64,
        port in 0u16..4,
    ) {
        let mut nd = reflector();
        let template = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(&vec![0xC3u8; payload_len])
        .build();
        let report = nd.run_session(&[StreamSpec {
            stream: 1,
            template,
            count,
            rate_pps: rate,
            as_port: port,
            sweeps: vec![],
            expect: Expectation::Forward { port: Some(port) },
        }]);
        let (_, stats) = &report.streams[0];
        prop_assert_eq!(stats.sent, count);
        prop_assert_eq!(stats.received + stats.dropped + stats.lost(), count);
        prop_assert_eq!(stats.received, count);
        prop_assert_eq!(stats.reordered, 0);
        prop_assert_eq!(stats.duplicates, 0);
        prop_assert_eq!(stats.corrupted, 0);
        prop_assert!(report.passed, "{}", report);
    }

    /// Sweeping arbitrary template bytes never breaks the test-header
    /// machinery: the checker still finds and validates every packet.
    #[test]
    fn sweeps_never_confuse_the_checker(
        count in 1u64..40,
        offset in 0usize..14,
        step in any::<u8>(),
    ) {
        let mut nd = reflector();
        let template = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .payload(b"prop")
        .build();
        let report = nd.run_session(&[StreamSpec {
            stream: 1,
            template,
            count,
            rate_pps: None,
            as_port: 0,
            sweeps: vec![FieldSweep { offset, step }],
            expect: Expectation::Any,
        }]);
        let (_, stats) = &report.streams[0];
        prop_assert_eq!(stats.received, count);
        prop_assert_eq!(stats.corrupted, 0);
    }

    /// find_test_header never panics and never misses a real header: when a
    /// valid header is embedded at `offset`, the scan returns some offset
    /// no later than it.
    #[test]
    fn find_test_header_finds_embedded(
        prefix in proptest::collection::vec(any::<u8>(), 0..48),
        payload in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = prefix.clone();
        let hdr_at = buf.len();
        buf.resize(hdr_at + TEST_HEADER_LEN + payload.len(), 0);
        {
            let mut h = TestHeader::new_unchecked(&mut buf[hdr_at..]);
            h.set_magic();
            h.set_stream(3);
            h.set_seq(42);
            h.payload_mut().copy_from_slice(&payload);
            h.fill_payload_crc();
        }
        let found = find_test_header(&buf);
        prop_assert!(found.is_some());
        prop_assert!(found.unwrap() <= hdr_at);
    }

    /// Random garbage never panics the scanner.
    #[test]
    fn find_test_header_never_panics(data in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = find_test_header(&data);
    }

    /// Frames are what they were: a window stamped into one shared buffer
    /// equals, frame for frame, the one-frame `build` on the injection
    /// schedule, and both equal the frame built the long way — template
    /// cloned, swept, header appended. Windows start before, straddle and
    /// pass `count`, so `FLAG_LAST` lands mid-window, on its last frame or
    /// nowhere; sweep offsets reach past the template; an empty window is
    /// an empty vector.
    #[test]
    fn windows_are_the_frames_they_were(
        template in proptest::collection::vec(any::<u8>(), 0..=1600),
        sweeps in proptest::collection::vec((0usize..1700, any::<u8>()), 0..=3),
        expect_drop in any::<bool>(),
        count in 0u64..40,
        first in 0u64..40,
        n in 0u64..24,
        start in 0u64..1_000_000,
        gap in proptest::option::of(1u64..5000),
    ) {
        use netdebug::generator::Generator;
        use netdebug_packet::testhdr::{FLAG_EXPECT_DROP, FLAG_LAST};
        let gap = gap.unwrap_or(0);
        let spec = StreamSpec {
            stream: 9,
            template,
            count,
            rate_pps: None,
            as_port: 0,
            sweeps: sweeps.into_iter().map(|(offset, step)| FieldSweep { offset, step }).collect(),
            expect: if expect_drop { Expectation::Drop } else { Expectation::Any },
        };
        let the_long_way = |seq: u64, ts: u64| {
            let mut data = spec.template.clone();
            for s in &spec.sweeps {
                if s.offset < data.len() {
                    data[s.offset] = data[s.offset].wrapping_add(s.step.wrapping_mul(seq as u8));
                }
            }
            let at = data.len();
            data.resize(at + TEST_HEADER_LEN, 0);
            let mut h = TestHeader::new_unchecked(&mut data[at..]);
            h.set_magic();
            h.set_stream(spec.stream);
            h.set_flags(
                if expect_drop { FLAG_EXPECT_DROP } else { 0 }
                    | if seq + 1 == count { FLAG_LAST } else { 0 },
            );
            h.set_seq(seq);
            h.set_ts_cycles(ts);
            h.fill_payload_crc();
            data
        };

        let mut batched = Generator::new();
        let window = batched.build_batch(&spec, first, n, start, gap);
        prop_assert_eq!(window.len() as u64, n);
        prop_assert_eq!(batched.emitted(), n);
        let mut single = Generator::new();
        for (k, got) in window.iter().enumerate() {
            let (seq, ts) = (first + k as u64, start + gap * (k as u64 + 1));
            let one = single.build(&spec, seq, ts);
            prop_assert_eq!(got, &one);
            prop_assert_eq!((got.stream, got.seq, got.ts_cycles), (9, seq, ts));
            prop_assert_eq!(the_long_way(seq, ts), got.data, "frame {}", k);
        }
    }

    /// Parser-path probes are deterministic and never panic, for every
    /// corpus program.
    #[test]
    fn probes_deterministic(idx in 0usize..17) {
        let programs = corpus::corpus();
        let prog = &programs[idx % programs.len()];
        let ir = netdebug_p4::compile(prog.source).unwrap();
        let a = netdebug::probes::parser_path_probes(&ir);
        let b = netdebug::probes::parser_path_probes(&ir);
        prop_assert_eq!(a, b);
    }

    /// Engine parity end to end: a whole NetDebug session — generator,
    /// device taps, checker — driven over an arbitrary `ChurnSchedule`
    /// produces identical checker statistics whether the device's data
    /// plane runs the flat compiled engine (the default) or the
    /// tree-walking reference oracle. Every scheduled publication
    /// recompiles the exact-hash index of `l2_switch`'s dmac table between
    /// windows. This is the fleet/churn-driver face of the parity
    /// obligation the dataplane proptests pin packet by packet.
    #[test]
    fn churned_streams_identical_across_engines(
        raw_ops in proptest::collection::vec((0u64..3, 0u8..2, 0u8..4), 0..10),
        dst in 0u8..4,
    ) {
        use netdebug::churn::{ChurnOp, ChurnSchedule};
        use netdebug_dataplane::Engine;
        let mut schedule = ChurnSchedule::new();
        for &(window, op_sel, mac) in &raw_ops {
            let key = 0x0200_0000_0000u128 + u128::from(mac);
            let op = match op_sel {
                0 => ChurnOp::Install { table: "dmac".into(), patterns: vec![IrPattern::Value(key)], action: "forward".into(), args: vec![u128::from(mac % 4)], priority: 0 },
                _ => ChurnOp::Remove {
                    table: "dmac".into(),
                    patterns: vec![netdebug_p4::ir::IrPattern::Value(key)],
                    priority: 0,
                },
            };
            schedule = schedule.before_window(window, op);
        }
        let template = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, dst),
        )
        .payload(b"engine-parity")
        .build();
        let run = |engine: Engine| {
            let mut nd = NetDebug::deploy(&Backend::reference(), corpus::L2_SWITCH).unwrap();
            nd.device_mut().set_engine(engine);
            let spec = StreamSpec::simple(
                1,
                template.clone(),
                3 * NetDebug::STREAM_WINDOW,
                Expectation::Any,
            );
            nd.run_stream_churn(&spec, &schedule).unwrap();
            nd.checker().streams()[&1].clone()
        };
        prop_assert_eq!(
            &run(Engine::Compiled),
            &run(Engine::Reference),
            "churned stream diverged between engines"
        );
    }

    /// Flow-cache parity under churn: the same session driven over an
    /// arbitrary `ChurnSchedule` — whose publications land *between*
    /// traffic windows and must invalidate the resident cache entries by
    /// generation, never flush-by-hand — produces identical checker
    /// statistics with the memoized fast path on (the default), off, and
    /// on the tree-walking reference oracle. The template repeats every
    /// window, so the cached run genuinely replays hits across every
    /// republication boundary.
    #[test]
    fn churned_streams_identical_with_flow_cache(
        raw_ops in proptest::collection::vec((0u64..3, 0u8..2, 0u8..4), 0..10),
        dst in 0u8..4,
    ) {
        use netdebug::churn::{ChurnOp, ChurnSchedule};
        use netdebug_dataplane::Engine;
        let mut schedule = ChurnSchedule::new();
        for &(window, op_sel, mac) in &raw_ops {
            let key = 0x0200_0000_0000u128 + u128::from(mac);
            let op = match op_sel {
                0 => ChurnOp::Install { table: "dmac".into(), patterns: vec![IrPattern::Value(key)], action: "forward".into(), args: vec![u128::from(mac % 4)], priority: 0 },
                _ => ChurnOp::Remove {
                    table: "dmac".into(),
                    patterns: vec![netdebug_p4::ir::IrPattern::Value(key)],
                    priority: 0,
                },
            };
            schedule = schedule.before_window(window, op);
        }
        let template = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, dst),
        )
        .payload(b"cache-parity")
        .build();
        // `cache`: Some(on/off) runs the compiled engine with the flow
        // cache toggled; None runs the unmemoized reference oracle.
        let run = |cache: Option<bool>| {
            let mut nd = NetDebug::deploy(&Backend::reference(), corpus::L2_SWITCH).unwrap();
            match cache {
                Some(on) => nd.device_mut().set_flow_cache(on),
                None => nd.device_mut().set_engine(Engine::Reference),
            }
            let spec = StreamSpec::simple(
                1,
                template.clone(),
                3 * NetDebug::STREAM_WINDOW,
                Expectation::Any,
            );
            nd.run_stream_churn(&spec, &schedule).unwrap();
            nd.checker().streams()[&1].clone()
        };
        let cached = run(Some(true));
        prop_assert_eq!(
            &cached,
            &run(Some(false)),
            "churned stream diverged cache-on vs cache-off"
        );
        prop_assert_eq!(
            &cached,
            &run(None),
            "churned stream diverged cache-on vs reference"
        );
    }
}

fn router(backend: &Backend) -> Device {
    let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).unwrap();
    dev.write(&[Update::Insert(
        "ipv4_lpm",
        TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
    )])
    .unwrap();
    dev
}

fn router_frame(version: u8) -> Vec<u8> {
    use netdebug_packet::Ipv4Address;
    let mut f = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
    .udp(1, 2)
    .build();
    f[14] = (version << 4) | 5;
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The event-loop fleet runtime is bit-identical to the sequential
    /// one-device-at-a-time reference: for arbitrary pacing gaps,
    /// generated `ChurnSchedule`s and worker counts 1..=4, every member's
    /// clock, taps, drop counters and port stats after `run_churn` match a
    /// per-packet advance-then-inject loop over the same windows, and the
    /// fleet report is byte-identical to the single-worker run.
    #[test]
    fn event_loop_fleet_matches_sequential_reference(
        raw_ops in proptest::collection::vec((0u64..6, 0u8..3, 0u8..4), 0..8),
        count in 1u64..48,
        rate in proptest::option::of(1e5f64..1e7),
        window in 1u64..12,
        workers in 2usize..=4,
    ) {
        use netdebug::churn::{ChurnOp, ChurnSchedule};
        use netdebug::generator::Generator;
        use netdebug::DifferentialFleet;

        let windows_total = count.div_ceil(window);
        let mut schedule = ChurnSchedule::new();
        for &(w, op_sel, octet) in &raw_ops {
            let op = match op_sel {
                0 => ChurnOp::Install { table: "ipv4_lpm".into(), patterns: vec![lpm_pattern(0x0A00_0000 + (u128::from(octet) << 8), 24, 32)], action: "ipv4_forward".into(), args: vec![0xBB, u128::from(octet % 4)], priority: 24 },
                1 => ChurnOp::Remove {
                    table: "ipv4_lpm".into(),
                    patterns: vec![lpm_pattern(0x0A00_0000, 8, 32)],
                    priority: 8,
                },
                _ => ChurnOp::Install { table: "ipv4_lpm".into(), patterns: vec![lpm_pattern(0x0A00_0000, 8, 32)], action: "ipv4_forward".into(), args: vec![0xAA, 1], priority: 8 },
            };
            schedule = schedule.before_window(w % windows_total, op);
        }
        let spec = StreamSpec {
            stream: 7,
            template: router_frame(4),
            count,
            rate_pps: rate,
            as_port: 1,
            sweeps: vec![],
            expect: Expectation::Any,
        };
        let labels = ["reference", "sdnet-fixed", "sdnet-2018"];
        let backends = [Backend::reference(), Backend::sdnet_fixed(), Backend::sdnet_2018()];

        let build_fleet = || {
            let mut fleet = DifferentialFleet::new();
            for (label, backend) in labels.iter().zip(&backends) {
                fleet.add(*label, router(backend));
            }
            fleet
        };
        let mut fleet = build_fleet();
        fleet.set_runtime_workers(workers);
        let report = fleet.run_churn(&spec, &schedule, window).unwrap();

        let mut solo = build_fleet();
        solo.set_runtime_workers(1);
        let baseline = solo.run_churn(&spec, &schedule, window).unwrap();
        prop_assert_eq!(&report, &baseline, "report diverged at {} workers", workers);

        // Sequential reference: one device at a time, one packet at a time,
        // the pre-runtime execution order.
        let gap = Generator::gap_cycles(&spec, router(&backends[0]).config().core_clock_hz);
        for (label, backend) in labels.iter().zip(&backends) {
            let mut dev = router(backend);
            let mut generator = Generator::new();
            let (mut seq, mut w) = (0u64, 0u64);
            while seq < count {
                let n = window.min(count - seq);
                let win = generator.build_batch(&spec, seq, n, 0, gap);
                schedule.apply_for_window(w, &mut dev).unwrap();
                for p in &win {
                    if gap > 0 {
                        dev.advance(gap);
                    }
                    dev.inject(spec.as_port, &p.data);
                }
                seq += n;
                w += 1;
            }
            let fleet_dev = fleet.device_mut(label).unwrap();
            prop_assert_eq!(fleet_dev.now(), dev.now(), "{}: clock diverged", label);
            prop_assert_eq!(fleet_dev.stage_counts(), dev.stage_counts(), "{}: taps diverged", label);
            prop_assert_eq!(fleet_dev.drop_counts(), dev.drop_counts(), "{}: drops diverged", label);
            for port in 0..4u16 {
                prop_assert_eq!(
                    fleet_dev.port_stats(port),
                    dev.port_stats(port),
                    "{}: port {} stats diverged",
                    label,
                    port
                );
            }
        }
    }

    /// `drive_device` with many interleaved flows is bit-identical to the
    /// flat sorted schedule: inject every frame singly in
    /// (virtual time, flow id, seq) order on a twin device and the
    /// per-packet verdicts, clock and taps must match exactly, for any
    /// `max_batch` and any mix of back-to-back flows and paced ones whose
    /// gaps sit on either side of 2^8, 2^16 and 2^32 cycles. The device
    /// clock starts ahead of some origins: a frame already due fires at
    /// once.
    #[test]
    fn multi_flow_drive_matches_sorted_reference(
        flows_raw in proptest::collection::vec((0u64..40, 0u64..5, 0u64..357, 1u64..16), 1..=64),
        max_batch in 1usize..32,
        ahead in 0u64..40,
    ) {
        use netdebug::generator::Generator;
        use netdebug::runtime::{drive_device, DeviceSink, FlowRun};
        use netdebug_hw::{Outcome, Processed};
        use std::sync::Arc;

        struct Rec(Vec<(u32, u64, Outcome, &'static str)>);
        impl DeviceSink for Rec {
            fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
                self.0.push((flow, seq, p.outcome, p.last_stage));
            }
        }

        let mut generator = Generator::new();
        let flows: Vec<FlowRun> = flows_raw
            .iter()
            .enumerate()
            .map(|(i, &(origin, gap_class, gap_raw, n))| {
                let gap = match gap_class {
                    0 => 0,
                    1 => 1 + gap_raw % 119,
                    2 => 255 + gap_raw % 3,
                    3 => 65_535 + gap_raw % 3,
                    _ => (1 << 32) - 1 + gap_raw % 3,
                };
                let spec = StreamSpec {
                    stream: i as u16,
                    template: router_frame(if i % 3 == 2 { 5 } else { 4 }),
                    count: n,
                    rate_pps: None,
                    as_port: (i % 4) as u16,
                    sweeps: vec![],
                    expect: Expectation::Any,
                };
                FlowRun {
                    id: i as u32,
                    as_port: spec.as_port,
                    frames: Arc::new(generator.build_batch(&spec, 0, n, 0, gap)),
                    origin,
                    gap,
                    triggers: vec![],
                }
            })
            .collect();

        let mut driven = router(&Backend::reference());
        driven.advance(ahead);
        let mut sink = Rec(Vec::new());
        let (stats, result) = drive_device(&mut driven, &flows, max_batch, &mut sink);
        prop_assert!(result.is_ok());
        let total: usize = flows.iter().map(|f| f.frames.len()).sum();
        prop_assert_eq!(stats.packets as usize, total);

        // Twin device: flat (due, flow, seq)-sorted schedule, one inject
        // per event, clock advanced to each due instant.
        let mut events: Vec<(u64, u32, u64)> = flows
            .iter()
            .flat_map(|f| (0..f.frames.len() as u64).map(|k| (f.due(k).max(ahead), f.id, k)))
            .collect();
        events.sort_unstable();
        let mut twin = router(&Backend::reference());
        twin.advance(ahead);
        let mut expected = Vec::with_capacity(total);
        for &(due, id, k) in &events {
            if due > twin.now() {
                let delta = due - twin.now();
                twin.advance(delta);
            }
            let f = &flows[id as usize];
            let p = twin.inject(f.as_port, &f.frames[k as usize].data);
            expected.push((id, k, p.outcome, p.last_stage));
        }
        prop_assert_eq!(sink.0, expected);
        prop_assert_eq!(driven.now(), twin.now());
        prop_assert_eq!(driven.stage_counts(), twin.stage_counts());
        prop_assert_eq!(driven.drop_counts(), twin.drop_counts());
        for port in 0..4u16 {
            prop_assert_eq!(driven.port_stats(port), twin.port_stats(port));
        }
    }

    /// Quarantine-rejoin invariant: a member that crashes (or silently
    /// stalls) mid-run and is recovered through checkpoint/restore ends
    /// with a per-frame observation stream **bit-identical** to its own
    /// fault-free run — same outcomes, stages and completion cycles —
    /// except the skipped culprit frame, which surfaces as a `Faulted`
    /// drop. Holds for every worker count 1..=4 and every checkpoint
    /// interval 1..=64, and healthy members are never perturbed. A second
    /// needle past a budget of one recovery ends the member permanently,
    /// and the fault record names that second frame exactly.
    #[test]
    fn recovered_member_matches_fault_free_except_culprit(
        culprit_raw in 0u64..48,
        stall in any::<bool>(),
        count in 8u64..48,
        workers in 1usize..=4,
        interval in 1u64..=64,
    ) {
        use netdebug::generator::Generator;
        use netdebug::{DeviceSink, DeviceTask, FleetRuntime, FlowRun, RecoveryPolicy};
        use netdebug_hw::{FaultSpec, Processed};
        use std::sync::Arc;

        struct Rec(Vec<(u32, u64, String, &'static str, u64)>);
        impl DeviceSink for Rec {
            fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
                self.0.push((
                    flow,
                    seq,
                    format!("{:?}", p.outcome),
                    p.last_stage,
                    p.done_at_cycle,
                ));
            }
        }

        let culprit_at = culprit_raw % count;
        let spec = StreamSpec {
            stream: 7,
            template: router_frame(4),
            count,
            rate_pps: None,
            as_port: 1,
            sweeps: vec![],
            expect: Expectation::Any,
        };
        let frames = Arc::new(Generator::new().build_batch(&spec, 0, count, 0, 0));
        let fault_at = |at: u64| {
            if stall {
                FaultSpec::Stall { after: at }
            } else {
                FaultSpec::PanicAfterN { n: at }
            }
        };
        let build_tasks_with = |faults: &[FaultSpec]| -> Vec<DeviceTask<Rec>> {
            (0..4usize)
                .map(|i| {
                    let mut dev = router(&Backend::reference());
                    if i == 2 {
                        for &f in faults {
                            dev.arm_fault(f);
                        }
                    }
                    DeviceTask {
                        device: dev,
                        flows: vec![FlowRun::new(7, 1, Arc::clone(&frames))],
                        sink: Rec(Vec::new()),
                    }
                })
                .collect()
        };
        let needle = [fault_at(culprit_at)];
        let build_tasks = |armed: bool| build_tasks_with(if armed { &needle } else { &[] });
        let policy = RecoveryPolicy {
            checkpoint_interval: interval,
            ..RecoveryPolicy::default()
        };
        let mut rt = FleetRuntime::new(workers);
        rt.set_recovery(Some(policy));
        let seeded = rt.run(build_tasks(true));
        let mut rt_clean = FleetRuntime::new(workers);
        rt_clean.set_recovery(Some(policy));
        let clean = rt_clean.run(build_tasks(false));
        for (i, (s, c)) in seeded.iter().zip(&clean).enumerate() {
            prop_assert!(s.fault.is_none(), "device {} quarantined: {:?}", i, s.fault);
            prop_assert_eq!(s.sink.0.len(), count as usize, "device {} short", i);
            if i == 2 {
                prop_assert_eq!(s.recoveries.len(), 1);
                let r = &s.recoveries[0];
                prop_assert_eq!(r.trip.culprit.as_ref().unwrap().seq, culprit_at);
                prop_assert!(
                    r.frames_replayed <= interval,
                    "bounded replay: {} frames for interval {}",
                    r.frames_replayed,
                    interval
                );
                for (k, (a, b)) in s.sink.0.iter().zip(&c.sink.0).enumerate() {
                    if k as u64 == culprit_at {
                        prop_assert_eq!(a.1, b.1, "culprit keeps its seq");
                        prop_assert!(
                            a.2.contains("Faulted"),
                            "culprit must surface as a Faulted drop, got {}",
                            a.2
                        );
                    } else {
                        prop_assert_eq!(a, b, "recovered member diverged at frame {}", k);
                    }
                }
            } else {
                prop_assert!(s.recoveries.is_empty(), "healthy device {} recovered", i);
                prop_assert_eq!(&s.sink.0, &c.sink.0, "healthy device {} perturbed", i);
            }
        }

        // Budget exhaustion: two needles, one recovery allowed.
        let first = culprit_at.min(count - 2);
        let second = first + 1 + culprit_raw % (count - 1 - first);
        let mut rt_short = FleetRuntime::new(workers);
        rt_short.set_recovery(Some(RecoveryPolicy { max_recoveries: 1, ..policy }));
        let exhausted = rt_short.run(build_tasks_with(&[fault_at(first), fault_at(second)]));
        for (i, (s, c)) in exhausted.iter().zip(&clean).enumerate() {
            if i != 2 {
                prop_assert!(s.fault.is_none() && s.recoveries.is_empty());
                prop_assert_eq!(&s.sink.0, &c.sink.0, "healthy device {} perturbed", i);
                continue;
            }
            prop_assert_eq!(s.recoveries.len(), 1);
            prop_assert_eq!(s.recoveries[0].trip.culprit.as_ref().unwrap().seq, first);
            let f = s.fault.as_ref().expect("the second needle is permanent");
            prop_assert!(f.detail.contains("budget exhausted"), "{}", f.detail);
            prop_assert_eq!(f.packets_delivered, second);
            let culprit = f.culprit.as_ref().expect("budget exhaustion still names the frame");
            prop_assert_eq!(culprit.seq, second);
            prop_assert_eq!(&culprit.bytes, &frames[second as usize].data);
            prop_assert_eq!(s.sink.0.len() as u64, second, "frames before the second needle");
        }
    }

    /// Fault isolation invariant: seed `k` devices of an 8-member fleet
    /// with crash-class faults and every **healthy** device's observation
    /// digest (FNV over flow, seq, outcome, last stage, completion cycle)
    /// is bit-identical to the same fleet run entirely fault-free — for
    /// every worker count 1..=4 and every fault kind. The faulted devices
    /// are quarantined with a `DeviceFault` record, never by unwinding
    /// the caller — and the same records and digests come out whether the
    /// runtime has no recovery policy or one with a zero budget.
    #[test]
    fn faulty_members_never_perturb_healthy_digests(
        faulty_raw in proptest::collection::vec(0usize..8, 1..=3),
        fault_sel in 0u8..4,
        seed in any::<u64>(),
        count in 8u64..48,
        workers in 1usize..=4,
    ) {
        use netdebug::generator::Generator;
        use netdebug::{DeviceSink, DeviceTask, FleetRuntime, FlowRun, RecoveryPolicy};
        use netdebug_hw::{FaultSpec, Processed};
        use std::collections::BTreeSet;
        use std::sync::Arc;

        let faulty_positions: BTreeSet<usize> = faulty_raw.iter().copied().collect();

        #[derive(Default)]
        struct DigestSink(u64);
        impl DigestSink {
            fn mix(&mut self, bytes: &[u8]) {
                let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
                for &b in bytes {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                self.0 = h;
            }
        }
        impl DeviceSink for DigestSink {
            fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
                self.mix(&flow.to_le_bytes());
                self.mix(&seq.to_le_bytes());
                self.mix(format!("{:?}", p.outcome).as_bytes());
                self.mix(p.last_stage.as_bytes());
                self.mix(&p.done_at_cycle.to_le_bytes());
            }
        }

        let spec = StreamSpec {
            stream: 7,
            template: router_frame(4),
            count,
            rate_pps: None,
            as_port: 1,
            sweeps: vec![],
            expect: Expectation::Any,
        };
        let frames = Arc::new(Generator::new().build_batch(&spec, 0, count, 0, 0));
        let fault = match fault_sel {
            0 => FaultSpec::PanicAfterN { n: seed % count },
            1 => FaultSpec::PanicOnPort { port: 1 },
            2 => FaultSpec::WedgeParser { after: seed % count, budget_cycles: 10_000 },
            _ => FaultSpec::SeededFlaky { seed, rate_ppm: 250_000 },
        };
        let backends = [Backend::reference(), Backend::sdnet_fixed(), Backend::sdnet_2018()];
        let build_tasks = |armed: bool| -> Vec<DeviceTask<DigestSink>> {
            (0..8usize)
                .map(|i| {
                    let mut dev = router(&backends[i % 3]);
                    if armed && faulty_positions.contains(&i) {
                        dev.arm_fault(fault);
                    }
                    DeviceTask {
                        device: dev,
                        flows: vec![FlowRun::new(7, 1, Arc::clone(&frames))],
                        sink: DigestSink::default(),
                    }
                })
                .collect()
        };

        let rt = FleetRuntime::new(workers);
        let seeded = rt.run(build_tasks(true));
        let rt_clean = FleetRuntime::new(workers);
        let clean = rt_clean.run(build_tasks(false));
        let mut rt_zero = FleetRuntime::new(workers);
        rt_zero.set_recovery(Some(RecoveryPolicy {
            max_recoveries: 0,
            ..RecoveryPolicy::default()
        }));
        let zero = rt_zero.run(build_tasks(true));
        prop_assert_eq!(seeded.len(), 8);
        for (i, (s, z)) in seeded.iter().zip(&zero).enumerate() {
            prop_assert_eq!(&s.fault, &z.fault, "device {}: None vs zero budget", i);
            prop_assert!(z.recoveries.is_empty());
            prop_assert_eq!(s.sink.0, z.sink.0, "device {}: None vs zero budget digest", i);
        }
        for (i, (s, c)) in seeded.iter().zip(&clean).enumerate() {
            prop_assert!(c.fault.is_none(), "fault-free run faulted at {}", i);
            if faulty_positions.contains(&i) {
                // SeededFlaky may legitimately never trip at this rate;
                // every other kind is deterministic and must.
                if fault_sel < 3 {
                    prop_assert!(s.fault.is_some(), "device {} should have tripped", i);
                }
                if let Some(f) = &s.fault {
                    let expected = format!("device-{i}");
                    prop_assert_eq!(f.member.as_str(), expected.as_str());
                }
            } else {
                prop_assert!(s.fault.is_none(), "healthy device {} faulted", i);
                prop_assert_eq!(
                    s.sink.0, c.sink.0,
                    "healthy device {} digest perturbed by faulty peers", i
                );
            }
        }
    }
}

/// A template `l2_switch` forwards out of port 1 once its dmac entry is in.
fn l2_frame() -> Vec<u8> {
    PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .payload(b"windowed")
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A session stream lives one window at a time, and a caller cannot
    /// tell: `run_stream_churn` over 0-5 windows (a partial last one
    /// included), back-to-back or paced, with churn keyed to random
    /// windows (sometimes an op the control plane rejects), crash and
    /// stall faults at random seqs and every recovery policy shape,
    /// equals `drive_device_with` over the whole stream pre-built — the
    /// checker's statistics and violations, the device's clock and taps,
    /// the churn error, the fault record and every recovery's fault,
    /// culprit and rejoin cycle, and the event-loop counters (bar the
    /// flow cache's, which count the replays). A recovery replays no more
    /// frames than the pre-built drive's: a window start only adds a
    /// checkpoint.
    #[test]
    fn windowed_session_equals_one_prebuilt_drive(
        count in 0u64..=1100,
        paced in any::<bool>(),
        raw_ops in proptest::collection::vec((0u64..5, 0u8..2), 0..4),
        reject in proptest::option::of(0u64..5),
        raw_faults in proptest::collection::vec((any::<bool>(), 0u64..1100), 0..3),
        policy_sel in 0u8..5,
    ) {
        use netdebug::checker::Checker;
        use netdebug::churn::{ChurnError, ChurnOp, ChurnSchedule};
        use netdebug::generator::Generator;
        use netdebug::runtime::DEFAULT_MAX_BATCH;
        use netdebug::{drive_device_with, DeviceSink, FlowRun, RecoveryPolicy, RuntimeStats};
        use netdebug_hw::{FaultSpec, Processed};
        use std::sync::Arc;

        let windows = count.div_ceil(NetDebug::STREAM_WINDOW);
        let key = 0x0200_0000_0002u128;
        let mut schedule = ChurnSchedule::new();
        if windows > 0 {
            for &(w, op) in &raw_ops {
                let op = match op {
                    0 => ChurnOp::Install { table: "dmac".into(), patterns: vec![IrPattern::Value(key)], action: "forward".into(), args: vec![u128::from(w % 4)], priority: 0 },
                    _ => ChurnOp::Remove {
                        table: "dmac".into(),
                        patterns: vec![netdebug_p4::ir::IrPattern::Value(key)],
                        priority: 0,
                    },
                };
                schedule = schedule.before_window(w % windows, op);
            }
            if let Some(w) = reject {
                let op = ChurnOp::Remove {
                    table: "no_such_table".into(),
                    patterns: vec![netdebug_p4::ir::IrPattern::Value(key)],
                    priority: 0,
                };
                schedule = schedule.before_window(w % windows, op);
            }
        }
        let policy = match policy_sel {
            0 => None,
            1 => Some(RecoveryPolicy::default()),
            2 => Some(RecoveryPolicy { checkpoint_interval: 8, ..RecoveryPolicy::default() }),
            3 => Some(RecoveryPolicy { checkpoint_interval: 100, ..RecoveryPolicy::default() }),
            _ => Some(RecoveryPolicy { max_recoveries: 1, checkpoint_interval: 300 }),
        };
        let device = || {
            let mut dev = Device::deploy_source(&Backend::reference(), corpus::L2_SWITCH).unwrap();
            dev.install("dmac", vec![IrPattern::Value(key)], "forward", vec![1], 0).unwrap();
            for &(stall, at) in &raw_faults {
                let at = at % count.max(1);
                dev.arm_fault(if stall {
                    FaultSpec::Stall { after: at }
                } else {
                    FaultSpec::PanicAfterN { n: at }
                });
            }
            dev
        };
        let clock_hz = device().config().core_clock_hz;
        let spec = StreamSpec {
            stream: 1,
            template: l2_frame(),
            count,
            rate_pps: paced.then(|| clock_hz / 37.0),
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Forward { port: Some(1) },
        };
        let gap = Generator::gap_cycles(&spec, clock_hz);
        prop_assert_eq!(gap, if paced { 37 } else { 0 });

        let mut nd = NetDebug::new(device());
        nd.set_recovery(policy);
        let windowed = nd.run_stream_churn(&spec, &schedule);

        struct CheckerSink(Checker);
        impl DeviceSink for CheckerSink {
            fn on_packet(&mut self, _flow: u32, seq: u64, p: Processed) {
                self.0.observe_processed(1, seq, &p);
            }
        }
        let mut dev = device();
        let flow = FlowRun {
            id: 1,
            as_port: 0,
            frames: Arc::new(Generator::new().build_batch(&spec, 0, count, 0, gap)),
            origin: 0,
            gap,
            triggers: schedule.triggers(NetDebug::STREAM_WINDOW),
        };
        let mut sink = CheckerSink(Checker::new());
        sink.0.open_stream(1, spec.expect, count);
        let mut prebuilt =
            drive_device_with(&mut dev, &[flow], DEFAULT_MAX_BATCH, &mut sink, policy);
        prebuilt.label("stream-1");

        prop_assert_eq!(windowed, prebuilt.result.clone().map_err(ChurnError::Control));
        prop_assert_eq!(nd.checker().streams().get(&1), sink.0.streams().get(&1));
        prop_assert_eq!(nd.checker().violations(), sink.0.violations());
        let taps = |d: &Device| {
            let ports: Vec<_> = (0..d.config().ports).map(|p| d.port_stats(p)).collect();
            (d.now(), d.stage_counts().to_vec(), d.drop_counts().clone(), format!("{ports:?}"))
        };
        prop_assert_eq!(taps(nd.device()), taps(&dev));
        let report = nd.report();
        prop_assert_eq!(report.faults.as_slice(), prebuilt.fault.as_slice());
        let recoveries = &report.recoveries;
        prop_assert_eq!(recoveries.len(), prebuilt.recoveries.len());
        for (w, p) in recoveries.iter().zip(&prebuilt.recoveries) {
            prop_assert_eq!((&w.trip.fault, &w.trip.culprit), (&p.trip.fault, &p.trip.culprit));
            prop_assert_eq!(w.recovered_at_cycle, p.recovered_at_cycle);
            prop_assert!(
                w.frames_replayed <= p.frames_replayed,
                "windowed replay {} > pre-built {}",
                w.frames_replayed,
                p.frames_replayed
            );
        }
        let loop_counts = |s: RuntimeStats| RuntimeStats {
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
            ..s
        };
        prop_assert_eq!(loop_counts(report.runtime), loop_counts(prebuilt.stats));
    }
}

/// Five needles in a four-window stream under the default policy: four
/// recoveries at the stream's own seqs, each replaying from the
/// checkpoint the whole pre-built stream would have used, then a
/// quarantine once the budget of four is spent — the budget, culprit seqs
/// and delivered count are per stream, not per window.
#[test]
fn five_faults_across_four_windows_recover_then_quarantine() {
    use netdebug::RecoveryPolicy;
    use netdebug_hw::FaultSpec;
    let mut nd = reflector();
    for n in [100, 300, 500, 700, 900] {
        nd.device_mut().arm_fault(FaultSpec::PanicAfterN { n });
    }
    nd.set_recovery(Some(RecoveryPolicy::default()));
    nd.run_stream(&StreamSpec::simple(
        1,
        l2_frame(),
        4 * NetDebug::STREAM_WINDOW,
        Expectation::Any,
    ));
    let report = nd.report();
    let recoveries: Vec<(u64, u64)> = report
        .recoveries
        .iter()
        .map(|r| (r.trip.culprit.as_ref().unwrap().seq, r.frames_replayed))
        .collect();
    assert_eq!(recoveries, [(100, 36), (300, 7), (500, 7), (700, 7)]);
    let [fault] = report.faults.as_slice() else {
        panic!("the fifth needle quarantines: {:?}", report.faults)
    };
    assert_eq!(fault.member, "stream-1");
    assert!(
        fault.detail.ends_with("(recovery budget exhausted)"),
        "{}",
        fault.detail
    );
    assert_eq!(fault.culprit.as_ref().unwrap().seq, 900);
    assert_eq!(fault.packets_delivered, 900);
    let s = &nd.checker().streams()[&1];
    assert_eq!(
        (s.sent, s.received, s.dropped, s.lost()),
        (1024, 896, 4, 124)
    );
    assert_eq!(report.runtime.max_ready_depth, 1);

    // Budget 0 keeps only the start-of-stream checkpoint, which a later
    // window cannot replay from: the needle in window 2 is still located.
    let mut nd = reflector();
    nd.device_mut().arm_fault(FaultSpec::PanicAfterN { n: 700 });
    nd.run_stream(&StreamSpec::simple(1, l2_frame(), 1024, Expectation::Any));
    let report = nd.report();
    let [fault] = report.faults.as_slice() else {
        panic!("budget 0 quarantines: {:?}", report.faults)
    };
    assert_eq!(fault.culprit.as_ref().unwrap().seq, 700);
    assert_eq!(fault.packets_delivered, 700);
}
