//! The host-side controller and test sessions.
//!
//! The paper's software tool "uses a dedicated interface to configure the
//! generation of test packets and to collect test results". [`NetDebug`]
//! plays that role: it owns a deployed [`Device`], programs the in-device
//! generator and checker, runs streams, and assembles a [`SessionReport`]
//! of everything every stream recorded, in stream order.

use crate::checker::{Checker, StreamStats, Violation};
use crate::generator::{Generator, StreamSpec};
use crate::runtime::{
    ContainedDrive, DeviceFault, DeviceRecovery, DeviceSink, FlowRun, RecoveryPolicy, RuntimeStats,
    Window, DEFAULT_MAX_BATCH,
};
use netdebug_hw::{Backend, DeployError, Device, Processed};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

// A window holds at least one full dispatch, so a window the drive stops
// short of still moves the stream on.
const _: () = assert!(DEFAULT_MAX_BATCH as u64 <= NetDebug::STREAM_WINDOW);

/// A NetDebug instance attached to one device. It keeps every record its
/// streams make, and [`NetDebug::report`] returns them.
#[derive(Debug)]
pub struct NetDebug {
    device: Device,
    generator: Generator,
    checker: Checker,
    /// Per-stream (first injection cycle, last completion cycle) — the
    /// wall-clock window performance measurements are computed over.
    windows: std::collections::HashMap<u16, (u64, u64)>,
    /// Device clock when the session's first stream started.
    started: Option<u64>,
    /// Event-loop counters summed over every stream run.
    runtime: RuntimeStats,
    /// Recovery policy for stream runs (`None` is budget 0: the first
    /// trip quarantines).
    recovery: Option<RecoveryPolicy>,
    /// Every stream's quarantine record, in stream order.
    faults: Vec<DeviceFault>,
    /// Every stream's recoveries, in stream order.
    recoveries: Vec<DeviceRecovery>,
}

impl NetDebug {
    /// Attach to an already deployed device.
    pub fn new(device: Device) -> Self {
        NetDebug {
            device,
            generator: Generator::new(),
            checker: Checker::new(),
            windows: std::collections::HashMap::new(),
            started: None,
            runtime: RuntimeStats::default(),
            recovery: None,
            faults: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// Compile `source` with `backend`, deploy, and attach.
    pub fn deploy(backend: &Backend, source: &str) -> Result<Self, DeployError> {
        Ok(Self::new(Device::deploy_source(backend, source)?))
    }

    /// The device under test.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access (control-plane configuration).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// The checker's current state.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The window a stream is generated and driven in (the most frames of
    /// it alive at once), and the unit churn schedules key their ops to,
    /// in [`NetDebug::run_stream`] and [`NetDebug::run_stream_churn`].
    pub const STREAM_WINDOW: u64 = 256;

    /// Run one stream to completion.
    ///
    /// The stream is generated and driven one [`NetDebug::STREAM_WINDOW`]
    /// at a time ([`Generator::build_batch`]), so its live frames are one
    /// window whatever its length. Each frame is stamped at the device
    /// clock the whole stream's schedule gives it, and the windows run as
    /// one flow through one contained drive (the loop behind
    /// [`crate::runtime::drive_device_with`]), which hands the device
    /// coalesced dispatches of at most [`DEFAULT_MAX_BATCH`] frames
    /// ([`netdebug_hw::Device::inject_batch_at`]). Each outcome is handed
    /// to the checker ([`Checker::observe_processed`]) the moment the
    /// device accounts it — no window of outcomes is ever materialised.
    /// Verdicts, statistics, violations, fault and recovery records are
    /// those of the same stream pre-built and driven as one flow; they
    /// join the session's [`NetDebug::report`].
    pub fn run_stream(&mut self, spec: &StreamSpec) {
        self.run_stream_churn(spec, &crate::churn::ChurnSchedule::new())
            .expect("an empty churn schedule cannot fail");
    }

    /// Run one stream with **rule churn**: the stream becomes one
    /// [`FlowRun`] on the virtual-time event loop, generated and driven
    /// window by window as in [`NetDebug::run_stream`], and every
    /// [`crate::churn::ChurnOp`] the schedule keys to a window index
    /// becomes a trigger at that window's first sequence number — it
    /// publishes through the device's epoch-snapshot control plane at the
    /// scheduled virtual time, after the preceding frames flush and
    /// before the window's first frame dispatches. The traffic keeps
    /// flowing through the batched path throughout — installs land as
    /// atomic epoch publications between dispatches.
    ///
    /// A schedule keying an op to a window this stream will never run is
    /// rejected up front ([`crate::churn::ChurnError::UnreachableWindow`])
    /// — otherwise the op would silently never publish and the run would
    /// report plain traffic as a churn scenario. Control-plane rejections
    /// propagate from the first failing op (traffic injected up to that
    /// point has already been checked, and the run's fault and recovery
    /// records are kept all the same).
    pub fn run_stream_churn(
        &mut self,
        spec: &StreamSpec,
        schedule: &crate::churn::ChurnSchedule,
    ) -> Result<(), crate::churn::ChurnError> {
        schedule.validate(spec.count.div_ceil(Self::STREAM_WINDOW))?;
        self.checker
            .open_stream(spec.stream, spec.expect, spec.count);
        let gap = Generator::gap_cycles(spec, self.device.config().core_clock_hz);
        let origin = self.device.now();
        self.started.get_or_insert(origin);
        let mut flow = FlowRun {
            id: u32::from(spec.stream),
            as_port: spec.as_port,
            frames: Default::default(),
            origin,
            gap,
            triggers: schedule.triggers(Self::STREAM_WINDOW),
        };
        let mut sink = StreamSink {
            checker: &mut self.checker,
            stream: spec.stream,
            last_done: 0,
        };
        let mut drive = ContainedDrive::new(&self.device, 1, DEFAULT_MAX_BATCH, self.recovery);
        let (mut first_ts, mut next) = (None, Some(0));
        // Each window starts where the drive stopped: where the last one
        // ended or, mid-stream, up to one dispatch before it.
        while let Some(seq) = next.filter(|&seq| seq < spec.count) {
            let n = Self::STREAM_WINDOW.min(spec.count - seq);
            let start = origin.saturating_add(gap.saturating_mul(seq));
            drop(std::mem::take(&mut flow.frames)); // before its successor is built
            flow.frames = Arc::new(self.generator.build_batch(spec, seq, n, start, gap));
            first_ts = first_ts.or(flow.frames.first().map(|p| p.ts_cycles));
            let more = seq + n < spec.count;
            let window = Window {
                first_seq: seq,
                more,
            };
            next = drive.run(
                &mut self.device,
                std::slice::from_ref(&flow),
                window,
                &mut sink,
            );
        }
        let last_done = sink.last_done;
        let mut run = drive.finish(&self.device);
        run.label(&format!("stream-{}", spec.stream));
        self.runtime.absorb(&run.stats);
        self.recoveries.append(&mut run.recoveries);
        self.faults.extend(run.fault);
        run.result.map_err(crate::churn::ChurnError::Control)?;
        if let Some(first) = first_ts {
            self.windows.insert(spec.stream, (first, last_done));
        }
        Ok(())
    }

    /// Enable (or disable with `None`) checkpoint/restore recovery for
    /// stream runs: a device that crashes or stalls mid-stream is
    /// restored from its last checkpoint, replayed, the culprit frame
    /// skipped (checked as a [`netdebug_dataplane::DropReason::Faulted`]
    /// drop) and the stream finishes. Off by default: a trip quarantines
    /// the rest of its stream and lands in [`SessionReport::faults`].
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// The wall-clock window a completed stream spanned, in device cycles.
    pub fn stream_window(&self, stream: u16) -> Option<(u64, u64)> {
        self.windows.get(&stream).copied()
    }

    /// Run several streams, then [`NetDebug::report`].
    pub fn run_session(&mut self, specs: &[StreamSpec]) -> SessionReport {
        for spec in specs {
            self.run_stream(spec);
        }
        self.report()
    }

    /// The report of every stream this session has run, whichever way it
    /// ran them ([`NetDebug::run_session`], [`NetDebug::run_stream`],
    /// [`NetDebug::run_stream_churn`]).
    pub fn report(&self) -> SessionReport {
        let mut streams: Vec<(u16, StreamStats)> = self
            .checker
            .streams()
            .iter()
            .map(|(k, v)| (*k, StreamStats::clone(v)))
            .collect();
        streams.sort_by_key(|(k, _)| *k);
        let violations = self.checker.violations().to_vec();
        SessionReport {
            program: self.device.compiled().program.name.clone(),
            backend: self.device.compiled().backend_name.clone(),
            passed: violations.is_empty() && streams.iter().all(|(_, s)| s.lost() == 0),
            streams,
            violations,
            duration_cycles: self
                .started
                .map_or(0, |start| self.device.now().saturating_sub(start)),
            faults: self.faults.clone(),
            recoveries: self.recoveries.clone(),
            runtime: self.runtime,
        }
    }
}

/// The checker-facing sink of [`NetDebug::run_stream_churn`]'s event
/// loop: packets arrive in the runtime's deterministic order and go
/// straight to [`Checker::observe_processed`].
struct StreamSink<'a> {
    checker: &'a mut Checker,
    stream: u16,
    last_done: u64,
}

impl DeviceSink for StreamSink<'_> {
    fn on_packet(&mut self, _flow: u32, seq: u64, p: Processed) {
        self.last_done = self.last_done.max(p.done_at_cycle);
        self.checker.observe_processed(self.stream, seq, &p);
    }
}

/// Results of a test session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Program under test.
    pub program: String,
    /// Backend it was compiled with.
    pub backend: String,
    /// Per-stream statistics, ordered by stream id.
    pub streams: Vec<(u16, StreamStats)>,
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
    /// Device cycles from the start of the session's first stream to
    /// the report (0 before any stream ran): traffic the device carried
    /// in between, such as live frames, counts too.
    pub duration_cycles: u64,
    /// True when no violations and no unexplained loss. A recovered
    /// culprit is checked as a drop, so only a quarantine, which loses
    /// the rest of its stream, fails the session.
    pub passed: bool,
    /// Every stream's quarantine record, in stream order; `member` is
    /// `stream-<id>`.
    pub faults: Vec<DeviceFault>,
    /// Every stream's recoveries, in stream order.
    pub recoveries: Vec<DeviceRecovery>,
    /// Event-loop counters summed over every stream.
    pub runtime: RuntimeStats,
}

impl core::fmt::Display for SessionReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "NetDebug session: program={} backend={} -> {}",
            self.program,
            self.backend,
            if self.passed { "PASS" } else { "FAIL" }
        )?;
        for (id, s) in &self.streams {
            writeln!(
                f,
                "  stream {id}: sent={} rx={} dropped={} lost={} ooo={} dup={} corrupt={} latency(min/avg/max cyc)={}/{:.1}/{}",
                s.sent,
                s.received,
                s.dropped,
                s.lost(),
                s.reordered,
                s.duplicates,
                s.corrupted,
                s.latency.min(),
                s.latency.mean(),
                s.latency.max(),
            )?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v:?}")?;
        }
        let faults = self.faults.iter().map(|t| ("fault", t));
        for (kind, t) in faults.chain(self.recoveries.iter().map(|r| ("recovered", &r.trip))) {
            let at = t.culprit.as_ref().map(|c| format!(" at seq {}", c.seq));
            let (who, at) = (&t.member, at.unwrap_or_default());
            writeln!(
                f,
                "  {kind}: {who} {}@{}{at}: {}",
                t.fault, t.stage, t.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Expectation, FieldSweep};
    use netdebug_dataplane::{TableEntry, Update};
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn router_device(backend: &Backend) -> Device {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(backend, &ir).unwrap();
        dev.write(&[Update::Insert(
            "ipv4_lpm",
            TableEntry::lpm(0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1]),
        )])
        .unwrap();
        dev
    }

    fn frame(version: u8) -> Vec<u8> {
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

    #[test]
    fn passing_session_on_reference() {
        let mut nd = NetDebug::new(router_device(&Backend::reference()));
        let report = nd.run_session(&[
            StreamSpec {
                stream: 1,
                template: frame(4),
                count: 50,
                rate_pps: Some(5e6),
                as_port: 0,
                sweeps: vec![],
                expect: Expectation::Forward { port: Some(1) },
            },
            StreamSpec {
                stream: 2,
                template: frame(5), // malformed: must be dropped
                count: 50,
                rate_pps: None,
                as_port: 0,
                sweeps: vec![],
                expect: Expectation::Drop,
            },
        ]);
        assert!(report.passed, "{report}");
        assert_eq!(report.streams[0].1.received, 50);
        assert_eq!(report.streams[1].1.dropped, 50);
        assert!(report.duration_cycles > 0);
        let text = report.to_string();
        assert!(text.contains("PASS"));
    }

    #[test]
    fn sdnet_session_catches_the_reject_bug() {
        // The paper's experiment end-to-end: deploy on buggy SDNet,
        // inject malformed packets flagged EXPECT_DROP, watch the checker
        // light up on the very first packet.
        let mut nd = NetDebug::new(router_device(&Backend::sdnet_2018()));
        let report = nd.run_session(&[StreamSpec {
            stream: 7,
            template: frame(5),
            count: 10,
            rate_pps: None,
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Drop,
        }]);
        assert!(!report.passed);
        assert!(
            matches!(
                report.violations[0],
                Violation::ForwardedButExpectedDrop {
                    stream: 7,
                    seq: 0,
                    ..
                }
            ),
            "detected on the first packet: {:?}",
            report.violations[0]
        );
        assert_eq!(
            report.violations.len(),
            10,
            "every malformed packet flagged"
        );
    }

    #[test]
    fn latency_measured_in_device_cycles() {
        let mut nd = NetDebug::new(router_device(&Backend::reference()));
        // Paced well below capacity so no queueing noise appears.
        let report = nd.run_session(&[StreamSpec {
            stream: 1,
            template: frame(4),
            count: 20,
            rate_pps: Some(1e6),
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Forward { port: Some(1) },
        }]);
        let (_, stats) = &report.streams[0];
        // Pipeline-only latency: no MAC contribution on the internal path.
        // The latency model gives parse(3+4) + table(5) + deparse + fixed.
        assert!(stats.latency.min() > 0);
        assert!(stats.latency.min() < 100, "{}", stats.latency.min());
        assert_eq!(
            stats.latency.min(),
            stats.latency.max(),
            "deterministic pipeline at low load"
        );
    }

    #[test]
    fn sweeps_generate_distinct_packets() {
        let mut nd = NetDebug::new(router_device(&Backend::reference()));
        // Sweep the last dst octet: 10.0.0.9, .10, .11 ... all inside 10/8.
        let report = nd.run_session(&[StreamSpec {
            stream: 3,
            template: frame(4),
            count: 20,
            rate_pps: None,
            as_port: 0,
            sweeps: vec![FieldSweep {
                offset: 14 + 19,
                step: 1,
            }],
            expect: Expectation::Forward { port: Some(1) },
        }]);
        assert!(report.passed, "{report}");
    }

    #[test]
    fn a_slow_stream_saturates_the_clock_instead_of_overflowing() {
        // 1e-12 pps at 200 MHz is a gap of `u64::MAX` cycles: every stamp,
        // window start and due time past the first saturates at the end of
        // virtual time, in step with `FlowRun::due`.
        let dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        let spec = StreamSpec {
            rate_pps: Some(1e-12),
            ..StreamSpec::simple(9, frame(4), 4, Expectation::Any)
        };
        let gap = Generator::gap_cycles(&spec, dev.config().core_clock_hz);
        assert_eq!(gap, u64::MAX);
        let report = NetDebug::new(dev).run_session(std::slice::from_ref(&spec));
        let (_, stats) = &report.streams[0];
        assert_eq!((stats.sent, stats.received, stats.lost()), (4, 4, 0));
        let stamps: Vec<u64> = Generator::new()
            .build_batch(&spec, 0, 4, 0, gap)
            .iter()
            .map(|p| p.ts_cycles)
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn stream_recovers_from_a_mid_stream_crash() {
        use netdebug_hw::FaultSpec;
        let mut dev = router_device(&Backend::reference());
        dev.arm_fault(FaultSpec::PanicAfterN { n: 12 });
        let mut nd = NetDebug::new(dev);
        nd.set_recovery(Some(RecoveryPolicy {
            checkpoint_interval: 8,
            ..RecoveryPolicy::default()
        }));
        let spec = StreamSpec {
            stream: 4,
            template: frame(4),
            count: 30,
            rate_pps: None,
            as_port: 0,
            sweeps: vec![],
            expect: Expectation::Any,
        };
        nd.run_stream(&spec);
        let report = nd.report();
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        let recs = &report.recoveries;
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].trip.member, "stream-4");
        assert_eq!(recs[0].trip.fault, "panic-after-n");
        assert_eq!(recs[0].trip.culprit.as_ref().unwrap().seq, 12);
        let stats = nd.checker().streams().get(&4).unwrap();
        assert_eq!(stats.sent, 30, "every frame of the stream was checked");
        assert_eq!(stats.received, 29, "all but the skipped culprit forward");
        assert_eq!(stats.dropped, 1, "the culprit is checked as a drop");
        assert_eq!(stats.lost(), 0, "recovery loses nothing");
    }
    #[test]
    fn a_session_reports_every_streams_recoveries() {
        use netdebug_hw::FaultSpec;
        // Frames 10 and 60 of the device's life fall in streams 1 and 2,
        // each at its own seq 10; stream 3 runs clean after them.
        let mut dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        dev.arm_fault(FaultSpec::PanicAfterN { n: 10 });
        dev.arm_fault(FaultSpec::PanicAfterN { n: 60 });
        let mut nd = NetDebug::new(dev);
        nd.set_recovery(Some(RecoveryPolicy::default()));
        let specs: Vec<StreamSpec> = (1..=3)
            .map(|id| StreamSpec::simple(id, frame(4), 50, Expectation::Any))
            .collect();
        let report = nd.run_session(&specs);
        assert!(report.passed, "{report}");
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        let culprits: Vec<(&str, u64)> = report
            .recoveries
            .iter()
            .map(|r| (r.trip.member.as_str(), r.trip.culprit.as_ref().unwrap().seq))
            .collect();
        assert_eq!(culprits, [("stream-1", 10), ("stream-2", 10)]);
        assert_eq!((report.runtime.faults, report.runtime.recoveries), (2, 2));
        // Each frame counts once: the culprits as their skips, the frames
        // a trip cut off as their re-drive.
        assert_eq!(report.runtime.packets, 150);
        let counts: Vec<(u64, u64, u64)> = report
            .streams
            .iter()
            .map(|(_, s)| (s.sent, s.received, s.dropped))
            .collect();
        assert_eq!(counts, [(50, 49, 1), (50, 49, 1), (50, 50, 0)]);
        let text = report.to_string();
        assert!(
            text.contains("recovered: stream-1 panic-after-n@ingress"),
            "{text}"
        );
        assert!(
            text.contains("recovered: stream-2 panic-after-n@ingress"),
            "{text}"
        );
        assert_eq!(nd.report(), report, "the report reads, it does not drain");
    }

    #[test]
    fn a_quarantined_stream_stays_in_the_report_after_a_clean_one() {
        use netdebug_hw::FaultSpec;
        // Budget 0: stream 1 trips on its port-2 frames and loses the
        // rest of its run; stream 2 rides port 0 and runs clean.
        let mut dev = Device::deploy_source(&Backend::reference(), corpus::REFLECTOR).unwrap();
        dev.arm_fault(FaultSpec::PanicOnPort { port: 2 });
        let mut nd = NetDebug::new(dev);
        nd.run_stream(&StreamSpec {
            as_port: 2,
            ..StreamSpec::simple(1, frame(4), 20, Expectation::Any)
        });
        nd.run_stream(&StreamSpec::simple(2, frame(4), 20, Expectation::Any));
        let report = nd.report();
        assert_eq!(report.faults.len(), 1, "{:?}", report.faults);
        let fault = &report.faults[0];
        assert_eq!(
            (fault.member.as_str(), fault.fault.as_str()),
            ("stream-1", "panic-on-port")
        );
        assert_eq!(fault.culprit.as_ref().unwrap().seq, 0);
        assert!(report.recoveries.is_empty());
        assert_eq!((report.runtime.faults, report.runtime.recoveries), (1, 0));
        let lost: Vec<u64> = report.streams.iter().map(|(_, s)| s.lost()).collect();
        assert_eq!(lost, [20, 0], "the quarantine loses stream 1's frames only");
        assert!(!report.passed, "{report}");
        assert!(report
            .to_string()
            .contains("fault: stream-1 panic-on-port@ingress"));
    }
}
