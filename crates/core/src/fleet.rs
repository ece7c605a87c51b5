//! Multi-device differential fleets.
//!
//! The N-backend generalisation of [`crate::differential`]: one generated
//! window of test packets is fed — **concurrently, fanned out by the
//! fleet's [`FleetRuntime`]** — to every deployment in the fleet, and
//! the observed verdicts are diffed against the fleet's reference member
//! (the first one added). This is the scenario the paper's comparison
//! use-case gestures at and Parasol-style parameter sweeps need: the same
//! stimulus against a reference build, a vendor toolchain, a patched
//! toolchain and any number of fault-injected variants, in one run.
//!
//! Each device is an independent simulated board, so fleet execution is
//! embarrassingly parallel; the runtime drives each member as a
//! virtual-time flow (churn ops become seq-keyed triggers, paced frames
//! coalesce per due instant) and results are joined and diffed in member
//! order, making reports deterministic regardless of worker count. Each
//! member's tables carry their own lookup indexes (see
//! `netdebug_dataplane::LookupIndex`), so churned fleet runs
//! ([`DifferentialFleet::run_churn`]) maintain them per member — one
//! key per publication, whatever the occupancy — and divergence between
//! members is always a semantic difference, never a shared-index
//! artefact.

use crate::churn::{ChurnError, ChurnSchedule};
use crate::differential::{divergences, Observation};
use crate::generator::{Generator, StreamSpec};
use crate::runtime::{
    drive_device_with, DeviceFault, DeviceRecovery, DeviceSink, FleetRuntime, FlowRun,
    RecoveryPolicy, DEFAULT_MAX_BATCH,
};
use netdebug_dataplane::DropReason;
use netdebug_hw::{Device, Outcome, Processed};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Errors a fleet-level API can surface.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A churn run failed (rejected op or unreachable window).
    Churn(ChurnError),
    /// The operation needs at least one fleet member.
    EmptyFleet,
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Churn(e) => write!(f, "{e}"),
            FleetError::EmptyFleet => write!(f, "the fleet has no members"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ChurnError> for FleetError {
    fn from(e: ChurnError) -> Self {
        FleetError::Churn(e)
    }
}

/// One divergence between a fleet member and the reference device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDivergence {
    /// Index of the packet that exposed it.
    pub index: usize,
    /// Label of the diverging member.
    pub member: String,
    /// What differed, reference vs member.
    pub detail: String,
    /// Internal stages the reference traversed: the last stage its
    /// pipeline reached.
    pub stages_reference: Vec<String>,
    /// Internal stages the diverging member traversed.
    pub stages_member: Vec<String>,
}

/// Result of running one stimulus across a whole fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Label of the reference member all others were diffed against.
    pub reference: String,
    /// All member labels, in fleet order.
    pub members: Vec<String>,
    /// Packets in the stimulus.
    pub packets: usize,
    /// Packets on which **every** member agreed with the reference.
    pub agreements: usize,
    /// All divergences, ordered by packet index then member order.
    pub divergences: Vec<FleetDivergence>,
    /// Members that crashed mid-run (crash-class faults). Each record
    /// carries the isolated culprit frame or publication; the member was
    /// quarantined from diffing, and every healthy member's observations
    /// are unaffected.
    pub faults: Vec<DeviceFault>,
    /// Members that crashed or stalled but were **recovered**: restored
    /// from their last checkpoint, replayed, the culprit frame skipped
    /// (booked as a [`netdebug_dataplane::DropReason::Faulted`] drop) and
    /// re-admitted to the diff. A recovered member appears in the final
    /// report like any healthy member — the skipped culprit is excluded
    /// from outcome comparison — and recoveries do **not** break
    /// [`FleetReport::equivalent`].
    pub recoveries: Vec<DeviceRecovery>,
}

impl FleetReport {
    /// True when every member behaved identically to the reference and no
    /// member crashed.
    pub fn equivalent(&self) -> bool {
        self.divergences.is_empty() && self.faults.is_empty()
    }

    /// Labels of members that diverged at least once.
    pub fn diverging_members(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for d in &self.divergences {
            if !out.contains(&d.member.as_str()) {
                out.push(&d.member);
            }
        }
        out
    }

    /// Labels of members that crashed (were quarantined) during the run.
    pub fn faulted_members(&self) -> Vec<&str> {
        self.faults.iter().map(|f| f.member.as_str()).collect()
    }

    /// Labels of members that were recovered (checkpoint-restored,
    /// culprit skipped, re-admitted to the diff) during the run.
    pub fn recovered_members(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.recoveries {
            if !out.contains(&r.member.as_str()) {
                out.push(&r.member);
            }
        }
        out
    }
}

/// Result of [`DifferentialFleet::bisect_churn`]: which churn epoch first
/// makes the fleet diverge (or crash), found by binary search over the
/// schedule's epoch axis instead of one run per epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnBisection {
    /// Window index of the first churn epoch whose publication makes the
    /// fleet fail. `None` when the full schedule passes, or when the
    /// fleet fails with no churn at all (see `fails_without_churn`).
    pub first_epoch: Option<u64>,
    /// True when the fleet already fails with every churn op removed —
    /// the failure is in the traffic, not the churn.
    pub fails_without_churn: bool,
    /// Fleet runs the bisection spent (`<= 2 + ceil(log2(epochs))`,
    /// versus `epochs + 1` for a linear scan).
    pub probes: u64,
    /// Distinct churn epochs in the schedule.
    pub epochs_total: u64,
    /// The report that pinned the verdict: the first failing prefix's
    /// report, or the full clean run's when nothing fails.
    pub report: FleetReport,
}

struct FleetMember {
    label: String,
    device: Device,
}

/// One member's per-packet observations.
type MemberObservations = Vec<Observation>;

/// [`DeviceSink`] that records the window-path observation per packet:
/// the outcome and the last stage the member's pipeline reached.
struct FleetSink {
    obs: MemberObservations,
}

impl DeviceSink for FleetSink {
    fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
        self.obs.push((p.outcome, vec![p.last_stage.to_string()]));
    }
}

/// A set of deployed devices that receive identical stimuli.
///
/// The first member added is the **reference** (conventionally the
/// [`netdebug_hw::Backend::reference`] build); every other member is
/// diffed against it. Each run drives the members in place, fanned out
/// by the fleet's [`FleetRuntime`] over at most the threads set by
/// [`DifferentialFleet::set_runtime_workers`].
#[derive(Default)]
pub struct DifferentialFleet {
    members: Vec<FleetMember>,
    runtime: FleetRuntime,
}

impl DifferentialFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a deployed device under a report label. The first member added
    /// becomes the reference.
    pub fn add(&mut self, label: impl Into<String>, device: Device) -> &mut Self {
        self.members.push(FleetMember {
            label: label.into(),
            device,
        });
        self
    }

    /// Builder-style [`DifferentialFleet::add`].
    pub fn with(mut self, label: impl Into<String>, device: Device) -> Self {
        self.add(label, device);
        self
    }

    /// Mutable access to a member's device (control-plane configuration —
    /// e.g. installing the same routes on every member).
    pub fn device_mut(&mut self, label: &str) -> Option<&mut Device> {
        self.members
            .iter_mut()
            .find(|m| m.label == label)
            .map(|m| &mut m.device)
    }

    /// Spread later runs over at most `workers` OS threads, the caller's
    /// included (clamped to at least 1). Threads live for one run only;
    /// outputs are bit-identical at any setting.
    pub fn set_runtime_workers(&mut self, workers: usize) {
        let recovery = self.runtime.recovery();
        self.runtime = FleetRuntime::new(workers);
        self.runtime.set_recovery(recovery);
    }

    /// Set the recovery policy of the fleet's window path. With a budget,
    /// a member that crashes or stalls mid-run is restored from its last
    /// checkpoint, replayed, its culprit frame skipped and the member
    /// re-admitted to the diff; the recovery records land in
    /// [`FleetReport::recoveries`]. `None` (the default) is budget 0: the
    /// first trip quarantines the member. The setting survives
    /// [`DifferentialFleet::set_runtime_workers`].
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.runtime.set_recovery(policy);
    }

    /// The fleet's current recovery policy (`None` when recovery is off).
    pub fn recovery(&self) -> Option<RecoveryPolicy> {
        self.runtime.recovery()
    }

    /// Run a churned stream across the fleet: the stimulus is cut into
    /// `window`-packet windows and, before window `w`, every member
    /// applies the identical [`crate::churn::ChurnSchedule`] ops keyed to
    /// `w` through its epoch-snapshot control plane — so rule churn lands
    /// at the same stream offset on every member and their verdicts stay
    /// comparable packet by packet. Members run concurrently on the
    /// fleet's [`FleetRuntime`]: each member becomes one
    /// virtual-time flow whose churn ops are seq-keyed triggers, so churn
    /// epochs land at the same scheduled virtual instant on every device
    /// regardless of worker count. A schedule keying an op to a window
    /// the stream never runs is rejected up front
    /// ([`crate::churn::ChurnError::UnreachableWindow`]); the first
    /// rejected control-plane op (in member order) aborts the run.
    pub fn run_churn(
        &mut self,
        spec: &StreamSpec,
        schedule: &crate::churn::ChurnSchedule,
        window: u64,
    ) -> Result<FleetReport, crate::churn::ChurnError> {
        let window = window.max(1);
        schedule.validate(spec.count.div_ceil(window))?;
        let gap = self
            .members
            .first()
            .map(|m| Generator::gap_cycles(spec, m.device.config().core_clock_hz))
            .unwrap_or(0);
        // One generator builds every window: all members see identical
        // frames at identical stream offsets. Windows are stamped from
        // cycle 0, exactly as the per-window loop always built them.
        let mut generator = Generator::new();
        let mut frames = Vec::with_capacity(spec.count as usize);
        let mut seq = 0u64;
        while seq < spec.count {
            let n = window.min(spec.count - seq);
            frames.extend(generator.build_batch(spec, seq, n, 0, gap));
            seq += n;
        }
        let frames = Arc::new(frames);
        let triggers = schedule.triggers(window);

        // Every member is driven in place, one job per member on the
        // fleet's runtime. A member that crashed mid-run is quarantined:
        // its fault record (culprit frame attached) joins the report and
        // its observations are excluded from diffing; healthy members are
        // diffed as usual.
        let recovery = self.runtime.recovery();
        let jobs: Vec<_> = self
            .members
            .iter_mut()
            .map(|m| {
                let flow = FlowRun {
                    id: u32::from(spec.stream),
                    as_port: spec.as_port,
                    frames: Arc::clone(&frames),
                    origin: m.device.now(),
                    gap,
                    triggers: triggers.clone(),
                };
                move || {
                    let mut sink = FleetSink {
                        obs: Vec::with_capacity(spec.count as usize),
                    };
                    let run = drive_device_with(
                        &mut m.device,
                        std::slice::from_ref(&flow),
                        DEFAULT_MAX_BATCH,
                        &mut sink,
                        recovery,
                    );
                    (run, sink.obs)
                }
            })
            .collect();
        let runs = self.runtime.execute(jobs);

        let mut per_member: Vec<Option<MemberObservations>> = Vec::with_capacity(runs.len());
        let mut faults: Vec<DeviceFault> = Vec::new();
        let mut recoveries: Vec<DeviceRecovery> = Vec::new();
        let mut first_err: Option<netdebug_dataplane::ControlError> = None;
        for (m, run) in self.members.iter().zip(runs) {
            // `drive_device_with` contains device panics itself; one that
            // escapes came from the harness — propagate it.
            let (mut run, obs) = run.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            run.label(&m.label);
            recoveries.extend(run.recoveries);
            if let Some(f) = run.fault {
                faults.push(f);
                per_member.push(None);
            } else {
                match run.result {
                    Ok(()) => per_member.push(Some(obs)),
                    Err(e) => {
                        per_member.push(None);
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e.into());
        }
        let packets = per_member
            .iter()
            .find_map(|r| r.as_ref().map(|r| r.len()))
            .unwrap_or(0);
        Ok(self.diff(per_member, packets, faults, recoveries))
    }

    /// Diff joined per-member observations against the reference, in
    /// member order (deterministic by construction). `None` observations
    /// belong to quarantined (crashed) members and are skipped; when the
    /// reference itself crashed no diffing is possible and only the fault
    /// records speak. A recovered member's skipped culprit frame (booked
    /// as a [`DropReason::Faulted`] drop by the recovery path) is excluded
    /// from outcome comparison — the recovery record already accounts for
    /// it — so a recovered member whose post-skip verdicts match the
    /// reference diffs clean.
    fn diff(
        &self,
        per_member: Vec<Option<MemberObservations>>,
        packets: usize,
        faults: Vec<DeviceFault>,
        recoveries: Vec<DeviceRecovery>,
    ) -> FleetReport {
        let members: Vec<String> = self.members.iter().map(|m| m.label.clone()).collect();
        let reference = members.first().cloned().unwrap_or_default();
        // What the recovery path books for a skipped culprit frame.
        const SKIPPED: Outcome = Outcome::Dropped {
            reason: DropReason::Faulted,
        };
        let mut found = Vec::new();
        let mut agreements = 0usize;
        if let Some((Some(ref_results), rest)) = per_member.split_first() {
            for (m, results) in rest.iter().enumerate() {
                let Some(results) = results else { continue };
                for (i, detail) in divergences(ref_results, results) {
                    if results[i].0 != SKIPPED {
                        found.push(FleetDivergence {
                            index: i,
                            member: members[m + 1].clone(),
                            detail,
                            stages_reference: ref_results[i].1.clone(),
                            stages_member: results[i].1.clone(),
                        });
                    }
                }
            }
            // Diffed member by member, reported packet by packet (the
            // sort is stable: member order holds within a packet).
            found.sort_by_key(|d| d.index);
            let mut diverging: Vec<usize> = found.iter().map(|d| d.index).collect();
            diverging.dedup();
            agreements = packets - diverging.len();
        }
        FleetReport {
            reference,
            members,
            packets,
            agreements,
            divergences: found,
            faults,
            recoveries,
        }
    }

    /// Binary-search the churn-epoch axis for the first epoch whose
    /// publication makes the fleet fail (diverge from the reference or
    /// crash a member) — ROADMAP hook (e).
    ///
    /// Every probe replays the identical stimulus against clones of the
    /// current members with the schedule truncated to its first `k`
    /// distinct epochs, so the verdict is a pure function of the epoch
    /// prefix. The fleet's devices are restored to their pre-call state
    /// afterwards on every path, success or error. Probe cost is
    /// `2 + ceil(log2(epochs))` runs against `epochs + 1` for the linear
    /// scan it replaces.
    pub fn bisect_churn(
        &mut self,
        spec: &StreamSpec,
        schedule: &ChurnSchedule,
        window: u64,
    ) -> Result<ChurnBisection, FleetError> {
        if self.members.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        let originals: Vec<FleetMember> = self
            .members
            .iter()
            .map(|m| FleetMember {
                label: m.label.clone(),
                device: m.device.clone(),
            })
            .collect();
        let out = self.bisect_churn_inner(spec, schedule, window, &originals);
        // Probes leave the members churned by whatever prefix ran last;
        // hand back the devices the caller gave us.
        self.members = originals;
        out
    }

    /// One bisection probe: reset the members to `originals` and run the
    /// schedule truncated to its first `k` distinct epochs.
    fn probe_prefix(
        &mut self,
        originals: &[FleetMember],
        spec: &StreamSpec,
        schedule: &ChurnSchedule,
        epochs: &[u64],
        k: usize,
        window: u64,
    ) -> Result<FleetReport, ChurnError> {
        let allowed: std::collections::BTreeSet<u64> = epochs[..k].iter().copied().collect();
        let prefix = ChurnSchedule {
            ops: schedule
                .ops
                .iter()
                .filter(|(w, _)| allowed.contains(w))
                .cloned()
                .collect(),
        };
        self.members = originals
            .iter()
            .map(|m| FleetMember {
                label: m.label.clone(),
                device: m.device.clone(),
            })
            .collect();
        self.run_churn(spec, &prefix, window)
    }

    fn bisect_churn_inner(
        &mut self,
        spec: &StreamSpec,
        schedule: &ChurnSchedule,
        window: u64,
        originals: &[FleetMember],
    ) -> Result<ChurnBisection, FleetError> {
        let epochs: Vec<u64> = {
            let set: std::collections::BTreeSet<u64> =
                schedule.ops.iter().map(|(w, _)| *w).collect();
            set.into_iter().collect()
        };
        let n = epochs.len();
        let mut probes = 0u64;
        // Full schedule first: a clean fleet needs exactly one probe.
        probes += 1;
        let full = self.probe_prefix(originals, spec, schedule, &epochs, n, window)?;
        if full.equivalent() {
            return Ok(ChurnBisection {
                first_epoch: None,
                fails_without_churn: false,
                probes,
                epochs_total: n as u64,
                report: full,
            });
        }
        // No churn at all: if the fleet still fails, no epoch is to blame.
        probes += 1;
        let bare = self.probe_prefix(originals, spec, schedule, &epochs, 0, window)?;
        if !bare.equivalent() {
            return Ok(ChurnBisection {
                first_epoch: None,
                fails_without_churn: true,
                probes,
                epochs_total: n as u64,
                report: bare,
            });
        }
        // Invariant: prefix(lo - 1) passes, prefix(hi) fails. Find the
        // smallest failing prefix length.
        let mut lo = 1usize;
        let mut hi = n;
        let mut failing = full;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            let report = self.probe_prefix(originals, spec, schedule, &epochs, mid, window)?;
            if report.equivalent() {
                lo = mid + 1;
            } else {
                failing = report;
                hi = mid;
            }
        }
        Ok(ChurnBisection {
            first_epoch: Some(epochs[lo - 1]),
            fails_without_churn: false,
            probes,
            epochs_total: n as u64,
            report: failing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Expectation;
    use netdebug_hw::Backend;
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn router(backend: &Backend) -> Device {
        let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).unwrap();
        dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
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

    /// One window of `spec` across the fleet: a churn run with nothing
    /// scheduled.
    fn run_window(fleet: &mut DifferentialFleet, spec: &StreamSpec) -> FleetReport {
        fleet
            .run_churn(spec, &crate::churn::ChurnSchedule::new(), spec.count.max(1))
            .expect("an empty churn schedule cannot fail")
    }

    fn three_member_fleet() -> DifferentialFleet {
        DifferentialFleet::new()
            .with("reference", router(&Backend::reference()))
            .with("sdnet-fixed", router(&Backend::sdnet_fixed()))
            .with("sdnet-2018", router(&Backend::sdnet_2018()))
    }

    #[test]
    fn fleet_catches_the_reject_bug_and_exonerates_the_fix() {
        let mut fleet = three_member_fleet();
        // Malformed version-5 packets: the reference and the fixed SDNet
        // drop them, the 2018 SDNet silently forwards them.
        let report = run_window(
            &mut fleet,
            &StreamSpec::simple(1, frame(5), 12, Expectation::Any),
        );
        assert_eq!(report.members, ["reference", "sdnet-fixed", "sdnet-2018"]);
        assert_eq!(report.packets, 12);
        assert_eq!(report.reference, "reference");
        assert!(!report.equivalent());
        assert_eq!(report.agreements, 0, "every packet exposes the bug");
        assert_eq!(report.diverging_members(), vec!["sdnet-2018"]);
        for d in &report.divergences {
            assert_eq!(d.member, "sdnet-2018");
            assert!(d.detail.contains("forwards"), "{}", d.detail);
        }
    }

    #[test]
    fn fleet_agrees_on_well_formed_traffic() {
        let mut fleet = three_member_fleet();
        let report = run_window(
            &mut fleet,
            &StreamSpec::simple(2, frame(4), 20, Expectation::Forward { port: Some(1) }),
        );
        assert!(report.equivalent(), "{:#?}", report.divergences);
        assert_eq!(report.agreements, 20);
    }

    #[test]
    fn worker_counts_do_not_change_fleet_reports() {
        // The determinism contract: identical fleets, worker counts 1..=4,
        // byte-identical reports (verdicts, stages, divergence order).
        let spec = StreamSpec::simple(3, frame(5), 24, Expectation::Any);
        let schedule = crate::churn::ChurnSchedule::new().before_window(
            1,
            crate::churn::ChurnOp::Clear {
                table: "ipv4_lpm".into(),
            },
        );
        let mut reference: Option<FleetReport> = None;
        for workers in 1..=4 {
            let mut fleet = three_member_fleet();
            fleet.set_runtime_workers(workers);
            let report = fleet.run_churn(&spec, &schedule, 8).unwrap();
            match &reference {
                None => reference = Some(report),
                Some(r) => assert_eq!(r, &report, "workers={workers} diverged"),
            }
        }
    }

    #[test]
    fn empty_and_single_member_fleets_are_trivially_equivalent() {
        let mut empty = DifferentialFleet::new();
        let spec = StreamSpec::simple(1, frame(4), 4, Expectation::Any);
        let report = run_window(&mut empty, &spec);
        assert!(report.members.is_empty());
        assert!(report.equivalent());
        let mut solo = DifferentialFleet::new().with("only", router(&Backend::reference()));
        let report = run_window(&mut solo, &spec);
        assert!(report.equivalent());
        assert_eq!(report.agreements, 4);
    }

    #[test]
    fn faulty_member_is_quarantined_with_exact_culprit() {
        use netdebug_hw::FaultSpec;
        // 16 devices, one armed to panic on its 6th frame (seq 5). The
        // crash must be isolated to exactly that frame while the other 15
        // members stay healthy and agree on every packet.
        let mut fleet = DifferentialFleet::new();
        fleet.add("reference", router(&Backend::reference()));
        for i in 0..15 {
            let mut dev = router(&Backend::sdnet_fixed());
            if i == 6 {
                dev.arm_fault(FaultSpec::PanicAfterN { n: 5 });
            }
            fleet.add(format!("member-{i}"), dev);
        }
        let report = run_window(
            &mut fleet,
            &StreamSpec::simple(1, frame(4), 12, Expectation::Forward { port: Some(1) }),
        );
        assert!(!report.equivalent(), "a crashed member is not equivalence");
        assert_eq!(report.faulted_members(), vec!["member-6"]);
        let f = &report.faults[0];
        assert_eq!(f.fault, "panic-after-n");
        assert_eq!(f.stage, "ingress");
        assert_eq!(f.packets_delivered, 5, "five frames delivered cleanly");
        let culprit = f.culprit.as_ref().expect("culprit frame isolated");
        assert_eq!(culprit.seq, 5, "the 6th frame is the culprit");
        assert!(!culprit.bytes.is_empty(), "culprit carries its bytes");
        // The quarantine is surgical: all 15 healthy members agree with
        // the reference on all 12 packets, exactly as in a fault-free run.
        assert!(report.divergences.is_empty(), "{:#?}", report.divergences);
        assert_eq!(report.agreements, 12);
        assert_eq!(
            report.members.len(),
            16,
            "the crashed device returns to the fleet"
        );
    }

    #[test]
    fn publication_fault_is_attributed_to_its_trigger() {
        use netdebug_hw::FaultSpec;
        let mut faulty = router(&Backend::sdnet_fixed());
        faulty.arm_fault(FaultSpec::FailPublication);
        let mut fleet = DifferentialFleet::new()
            .with("reference", router(&Backend::reference()))
            .with("flaky-driver", faulty);
        // Traffic alone is fine; the window-1 churn op goes through the
        // modeled vendor driver and crashes the armed member.
        let spec = StreamSpec::simple(1, frame(4), 16, Expectation::Any);
        let schedule = crate::churn::ChurnSchedule::new().before_window(
            1,
            crate::churn::ChurnOp::Lpm {
                table: "ipv4_lpm".into(),
                prefix: 0x1400_0000,
                prefix_len: 8,
                action: "ipv4_forward".into(),
                args: vec![0xCC, 3],
            },
        );
        let report = fleet.run_churn(&spec, &schedule, 8).unwrap();
        assert_eq!(report.faulted_members(), vec!["flaky-driver"]);
        let f = &report.faults[0];
        assert_eq!(f.fault, "fail-publication");
        assert_eq!(f.stage, "driver");
        let trigger = f.trigger.as_ref().expect("publication names its trigger");
        assert!(
            trigger.contains("seq 8"),
            "window 1 starts at seq 8: {trigger}"
        );
        assert!(trigger.contains("Lpm"), "{trigger}");
    }

    #[test]
    fn recovery_storm_readmits_every_member() {
        use netdebug_hw::FaultSpec;
        // The acceptance storm: 16 members, one armed to panic, one to
        // stall and one with a transient publication fault. With recovery
        // enabled every member must appear in the final diff — three
        // recoveries, zero permanent quarantines — and the healthy
        // members' verdicts must be untouched.
        let spec = StreamSpec::simple(1, frame(4), 48, Expectation::Forward { port: Some(1) });
        let schedule = crate::churn::ChurnSchedule::new().before_window(
            1,
            crate::churn::ChurnOp::Lpm {
                table: "ipv4_lpm".into(),
                prefix: 0x1400_0000,
                prefix_len: 8,
                action: "ipv4_forward".into(),
                args: vec![0xCC, 3],
            },
        );
        let mut fleet = DifferentialFleet::new();
        fleet.add("reference", router(&Backend::reference()));
        for i in 0..15 {
            let mut dev = router(&Backend::sdnet_fixed());
            match i {
                3 => dev.arm_fault(FaultSpec::PanicAfterN { n: 17 }),
                7 => dev.arm_fault(FaultSpec::Stall { after: 29 }),
                11 => dev.arm_fault(FaultSpec::TransientPublication { fail_first: 2 }),
                _ => {}
            }
            fleet.add(format!("member-{i}"), dev);
        }
        fleet.set_recovery(Some(RecoveryPolicy::default()));
        assert_eq!(fleet.recovery(), Some(RecoveryPolicy::default()));
        let report = fleet.run_churn(&spec, &schedule, 16).unwrap();
        assert!(report.faults.is_empty(), "{:#?}", report.faults);
        assert!(report.divergences.is_empty(), "{:#?}", report.divergences);
        assert!(report.equivalent(), "recoveries do not break equivalence");
        assert_eq!(report.packets, 48);
        assert_eq!(report.agreements, 48, "healthy verdicts are untouched");
        assert_eq!(
            report.recovered_members(),
            vec!["member-3", "member-7", "member-11"]
        );
        assert_eq!(report.recoveries.len(), 3);
        let by_member = |label: &str| {
            report
                .recoveries
                .iter()
                .find(|r| r.member == label)
                .unwrap()
        };
        let panic_rec = by_member("member-3");
        assert_eq!(panic_rec.fault, "panic-after-n");
        assert_eq!(panic_rec.stage, "ingress");
        assert_eq!(panic_rec.culprit.as_ref().unwrap().seq, 17);
        let stall_rec = by_member("member-7");
        assert_eq!(stall_rec.fault, "stall");
        assert_eq!(stall_rec.stage, "watchdog");
        assert_eq!(stall_rec.culprit.as_ref().unwrap().seq, 29);
        let pub_rec = by_member("member-11");
        assert_eq!(pub_rec.fault, "transient-publication");
        assert_eq!(pub_rec.stage, "driver");
        assert!(pub_rec.culprit.is_none(), "absorbed before any frame died");
        assert_eq!(
            report.members.len(),
            16,
            "every member returns to the fleet"
        );
    }

    #[test]
    fn recovered_member_matches_fault_free_run_except_culprit() {
        use netdebug_hw::FaultSpec;
        // Digest-level check of the rejoin contract: a recovered member's
        // packet-by-packet outcomes are bit-identical to its own
        // fault-free run except the skipped culprit, which is booked as a
        // Faulted drop.
        let spec = StreamSpec::simple(2, frame(4), 24, Expectation::Any);
        let mut clean = DifferentialFleet::new()
            .with("reference", router(&Backend::reference()))
            .with("subject", router(&Backend::sdnet_fixed()));
        let clean_report = run_window(&mut clean, &spec);
        assert!(clean_report.equivalent());
        let mut faulty_dev = router(&Backend::sdnet_fixed());
        faulty_dev.arm_fault(FaultSpec::PanicAfterN { n: 9 });
        let mut faulty = DifferentialFleet::new()
            .with("reference", router(&Backend::reference()))
            .with("subject", faulty_dev);
        faulty.set_recovery(Some(RecoveryPolicy {
            checkpoint_interval: 4,
            ..RecoveryPolicy::default()
        }));
        let report = run_window(&mut faulty, &spec);
        assert!(report.faults.is_empty(), "{:#?}", report.faults);
        assert!(report.divergences.is_empty(), "{:#?}", report.divergences);
        assert_eq!(report.recoveries.len(), 1);
        let rec = &report.recoveries[0];
        assert_eq!(rec.member, "subject");
        assert_eq!(rec.culprit.as_ref().unwrap().seq, 9);
        assert!(
            rec.frames_replayed <= 4,
            "bounded replay: at most one checkpoint interval, got {}",
            rec.frames_replayed
        );
        // Workers must not change the story.
        let mut wide_dev = router(&Backend::sdnet_fixed());
        wide_dev.arm_fault(FaultSpec::PanicAfterN { n: 9 });
        let mut wide = DifferentialFleet::new()
            .with("reference", router(&Backend::reference()))
            .with("subject", wide_dev);
        wide.set_recovery(Some(RecoveryPolicy {
            checkpoint_interval: 4,
            ..RecoveryPolicy::default()
        }));
        wide.set_runtime_workers(4);
        assert_eq!(
            wide.recovery().map(|p| p.checkpoint_interval),
            Some(4),
            "recovery survives a worker retarget"
        );
        assert_eq!(run_window(&mut wide, &spec), report);
    }

    /// Two-member fleet for the bisection tests: a reference and a
    /// priority-inverting build, both deployed with **empty** tables so
    /// the behaviour is a pure function of the churn prefix.
    fn bisect_fleet() -> DifferentialFleet {
        use netdebug_hw::{ArchLimits, SdnetProfile};
        let inverted = Backend::SdnetSim(SdnetProfile {
            name: "prio-inverted".into(),
            bugs: vec![netdebug_hw::BugSpec::PriorityInverted],
            limits: ArchLimits::UNLIMITED,
            faults: vec![],
        });
        DifferentialFleet::new()
            .with(
                "reference",
                Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
            )
            .with(
                "prio-inverted",
                Device::deploy_source(&inverted, corpus::IPV4_FORWARD).unwrap(),
            )
    }

    /// A churn schedule over windows `0..epochs`: window 0 installs the
    /// broad /8 (port 1), window `bad` adds the overlapping /16 (port 2)
    /// that a priority-inverting member shadows, every other window
    /// installs a route the traffic never matches.
    fn bisect_schedule(epochs: u64, bad: u64) -> crate::churn::ChurnSchedule {
        let mut schedule = crate::churn::ChurnSchedule::new();
        for w in 0..epochs {
            let op = if w == 0 {
                crate::churn::ChurnOp::Lpm {
                    table: "ipv4_lpm".into(),
                    prefix: 0x0A00_0000,
                    prefix_len: 8,
                    action: "ipv4_forward".into(),
                    args: vec![0xAA, 1],
                }
            } else if w == bad {
                crate::churn::ChurnOp::Lpm {
                    table: "ipv4_lpm".into(),
                    prefix: 0x0A00_0000,
                    prefix_len: 16,
                    action: "ipv4_forward".into(),
                    args: vec![0xBB, 2],
                }
            } else {
                // 20.<w>.0.0/16: never matches the 10.0.0.9 traffic.
                crate::churn::ChurnOp::Lpm {
                    table: "ipv4_lpm".into(),
                    prefix: 0x1400_0000 | (w as u128) << 16,
                    prefix_len: 16,
                    action: "ipv4_forward".into(),
                    args: vec![0xCC, 3],
                }
            };
            schedule = schedule.before_window(w, op);
        }
        schedule
    }

    #[test]
    fn bisect_churn_finds_the_first_failing_epoch() {
        let mut fleet = bisect_fleet();
        // 8 epochs over 32 packets (window = 4); epoch 5 introduces the
        // shadowed /16. Linear scanning would take 9 runs.
        let spec = StreamSpec::simple(7, frame(4), 32, Expectation::Any);
        let bisection = fleet
            .bisect_churn(&spec, &bisect_schedule(8, 5), 4)
            .unwrap();
        assert_eq!(bisection.first_epoch, Some(5));
        assert!(!bisection.fails_without_churn);
        assert_eq!(bisection.epochs_total, 8);
        assert!(
            bisection.probes <= 5,
            "2 + log2(8) = 5 probes max, took {}",
            bisection.probes
        );
        assert_eq!(bisection.report.diverging_members(), vec!["prio-inverted"]);
        // The fleet hands back its pre-bisection devices: tables are
        // empty again, so a plain window agrees (both members drop).
        let after = run_window(&mut fleet, &spec);
        assert!(after.equivalent(), "{:#?}", after.divergences);
        assert_eq!(after.agreements, 32);
    }

    #[test]
    fn bisect_churn_clean_schedule_costs_one_probe() {
        let mut fleet = bisect_fleet();
        let spec = StreamSpec::simple(7, frame(4), 32, Expectation::Any);
        // No overlapping /16 anywhere (bad epoch out of range): the full
        // schedule passes and the bisection stops after the first probe.
        let bisection = fleet
            .bisect_churn(&spec, &bisect_schedule(8, 99), 4)
            .unwrap();
        assert_eq!(bisection.first_epoch, None);
        assert!(!bisection.fails_without_churn);
        assert_eq!(bisection.probes, 1);
        assert!(bisection.report.equivalent());
    }

    #[test]
    fn bisect_churn_blames_traffic_when_no_epoch_is_at_fault() {
        // A fleet that diverges on the bare traffic (the 2018 reject bug):
        // no churn epoch is to blame and the bisection says so in exactly
        // two probes.
        let mut fleet = DifferentialFleet::new()
            .with("reference", router(&Backend::reference()))
            .with("sdnet-2018", router(&Backend::sdnet_2018()));
        let spec = StreamSpec::simple(7, frame(5), 32, Expectation::Any);
        let bisection = fleet
            .bisect_churn(&spec, &bisect_schedule(8, 99), 4)
            .unwrap();
        assert_eq!(bisection.first_epoch, None);
        assert!(bisection.fails_without_churn);
        assert_eq!(bisection.probes, 2);
        assert!(!bisection.report.equivalent());
    }

    #[test]
    fn bisect_churn_rejects_an_empty_fleet() {
        let mut fleet = DifferentialFleet::new();
        let spec = StreamSpec::simple(7, frame(4), 8, Expectation::Any);
        let err = fleet
            .bisect_churn(&spec, &crate::churn::ChurnSchedule::new(), 4)
            .unwrap_err();
        assert_eq!(err, FleetError::EmptyFleet);
        assert!(err.to_string().contains("no members"));
    }
}
