//! Rule churn under load: control-plane mutation interleaved with traffic.
//!
//! The paper's central scenario is a tester exercising a deployed data
//! plane *while the control plane keeps installing rules* — routes
//! arriving as traffic flows, policies swapping mid-test. With the
//! epoch-snapshot tables each publication lands atomically between
//! batch windows (or even mid-window, through a detached
//! `netdebug_hw::Device::control_plane` handle on another thread), so a
//! churn-heavy workload stays on the batched path the whole way.
//!
//! A [`ChurnSchedule`] scripts the mutations against window indices;
//! [`crate::session::NetDebug::run_stream_churn`] drives a single device
//! and [`crate::fleet::DifferentialFleet::run_churn`] drives a whole
//! fleet, applying the identical schedule to every member so their
//! verdicts stay comparable window by window.
//!
//! A window's ops publish as **one batch** through the device's driver,
//! `netdebug_hw::Device::write`: installs and removals alike take the
//! driver's bug transforms and publication faults, and each churned
//! table advances one epoch per window. Each update maintains the
//! table's lookup index by the one entry it changes, in place between
//! windows (a window's packets pin their tables only while they run).
//! The in-flight window reads the one cut it pinned, whatever lands
//! meanwhile — engine and flow-cache parity under churn are
//! property-tested against exactly this republication path.

use netdebug_dataplane::{ControlError, TableEntry, Update};
use netdebug_hw::Device;
use netdebug_p4::ir::IrPattern;
use serde::{Deserialize, Serialize};

/// Errors from running a churn schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnError {
    /// A scheduled op was rejected by the control plane.
    Control(ControlError),
    /// The schedule keys an op to a window the stream never runs, so the
    /// op would silently never publish. Caught up front: a churn scenario
    /// that cannot execute as scripted is a misconfiguration, not plain
    /// traffic.
    UnreachableWindow {
        /// The window index the op was keyed to.
        window: u64,
        /// How many windows the stream actually runs.
        windows: u64,
    },
}

impl core::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChurnError::Control(e) => write!(f, "{e}"),
            ChurnError::UnreachableWindow { window, windows } => write!(
                f,
                "churn op scheduled before window {window}, but the stream only runs {windows} window(s)"
            ),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<ControlError> for ChurnError {
    fn from(e: ControlError) -> Self {
        ChurnError::Control(e)
    }
}

/// One scripted control-plane mutation: one [`Update`] of the batch its
/// window publishes (an LPM route is an `Install` of an `lpm_pattern`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnOp {
    /// Install an entry.
    Install {
        /// Table name.
        table: String,
        /// One pattern per key.
        patterns: Vec<IrPattern>,
        /// Bound action.
        action: String,
        /// Action arguments.
        args: Vec<u128>,
        /// Priority (higher wins).
        priority: i32,
    },
    /// Remove the entry with exactly these patterns and priority, if any.
    Remove {
        /// Table name.
        table: String,
        /// Patterns of the entry to remove.
        patterns: Vec<IrPattern>,
        /// Priority of the entry to remove.
        priority: i32,
    },
}

impl ChurnOp {
    /// The op as a [`Device::write`] update that borrows its fields.
    pub(crate) fn update(&self) -> Update<'_> {
        match self {
            ChurnOp::Install {
                table,
                patterns,
                action,
                args,
                priority,
            } => Update::Insert(
                table,
                TableEntry::new(&patterns[..], action, &args[..], *priority),
            ),
            ChurnOp::Remove {
                table,
                patterns,
                priority,
            } => Update::Delete(
                table,
                TableEntry::new(&patterns[..], "", Vec::new(), *priority),
            ),
        }
    }

    /// Apply this op on its own: a one-update [`Device::write`] through
    /// the modelled vendor *driver*, whose bug transforms and publication
    /// faults apply to churned installs and removals alike.
    pub fn apply(&self, device: &mut Device) -> Result<(), ControlError> {
        device.write(&[self.update()])?;
        Ok(())
    }
}

/// A scripted sequence of control-plane mutations keyed to traffic
/// windows: every op scheduled for window `w` publishes its epoch
/// immediately **before** window `w` is injected.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    /// `(window index, mutation)` pairs; order within a window is
    /// preserved.
    pub ops: Vec<(u64, ChurnOp)>,
}

impl ChurnSchedule {
    /// An empty schedule (plain traffic).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `op` before window `window`.
    pub fn before_window(mut self, window: u64, op: ChurnOp) -> Self {
        self.ops.push((window, op));
        self
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Publish every op scheduled for `window` as one [`Device::write`]
    /// batch, in schedule order — the batch the runtime publishes before
    /// that window. Returns how many ops it held.
    pub fn apply_for_window(
        &self,
        window: u64,
        device: &mut Device,
    ) -> Result<usize, ControlError> {
        let batch: Vec<Update<'_>> = self
            .ops
            .iter()
            .filter(|(w, _)| *w == window)
            .map(|(_, op)| op.update())
            .collect();
        if !batch.is_empty() {
            device.write(&batch)?;
        }
        Ok(batch.len())
    }

    /// The schedule as seq-keyed [`crate::runtime::FlowRun::triggers`]
    /// for a stream cut into `window`-packet windows: an op keyed to
    /// window `w` fires at seq `w * window`. Sorted by seq; the sort is
    /// stable, so schedule order holds within a window.
    pub fn triggers(&self, window: u64) -> Vec<(u64, ChurnOp)> {
        let mut triggers: Vec<(u64, ChurnOp)> = self
            .ops
            .iter()
            .map(|(w, op)| (w * window, op.clone()))
            .collect();
        triggers.sort_by_key(|(s, _)| *s);
        triggers
    }

    /// Check that every scheduled op is keyed to a window a stream of
    /// `windows` windows will actually run — a schedule referencing a
    /// later window would otherwise silently never publish.
    pub fn validate(&self, windows: u64) -> Result<(), ChurnError> {
        for (w, _) in &self.ops {
            if *w >= windows {
                return Err(ChurnError::UnreachableWindow {
                    window: *w,
                    windows,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DifferentialFleet;
    use crate::generator::{Expectation, StreamSpec};
    use crate::session::NetDebug;
    use netdebug_dataplane::lpm_pattern;
    use netdebug_hw::Backend;
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn frame(dst: Ipv4Address) -> Vec<u8> {
        PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
        .udp(1, 2)
        .build()
    }

    /// Install the route `prefix/len` to `args` on `ipv4_lpm`.
    fn route(prefix: u128, len: u16, args: [u128; 2]) -> ChurnOp {
        ChurnOp::Install {
            table: "ipv4_lpm".into(),
            patterns: vec![lpm_pattern(prefix, len, 32)],
            action: "ipv4_forward".into(),
            args: args.into(),
            priority: len.into(),
        }
    }

    /// Withdraw the route `prefix/len` from `ipv4_lpm`.
    fn withdraw(prefix: u128, len: u16) -> ChurnOp {
        ChurnOp::Remove {
            table: "ipv4_lpm".into(),
            patterns: vec![lpm_pattern(prefix, len, 32)],
            priority: len.into(),
        }
    }

    fn route_op() -> ChurnOp {
        route(0x0A00_0000, 8, [0xAA, 1])
    }

    #[test]
    fn route_arrives_mid_stream() {
        // Three windows of traffic to 10.0.0.9; the covering route is
        // installed before window 1. Window 0 must drop (no route),
        // windows 1 and 2 must forward — the checker sees both phases.
        let mut nd = NetDebug::deploy(&Backend::reference(), corpus::IPV4_FORWARD).unwrap();
        let spec = StreamSpec::simple(
            1,
            frame(Ipv4Address::new(10, 0, 0, 9)),
            3 * NetDebug::STREAM_WINDOW,
            Expectation::Any,
        );
        let schedule = ChurnSchedule::new().before_window(1, route_op());
        nd.run_stream_churn(&spec, &schedule).unwrap();
        let stats = &nd.checker().streams()[&1];
        assert_eq!(stats.sent, 3 * NetDebug::STREAM_WINDOW);
        assert_eq!(
            stats.dropped,
            NetDebug::STREAM_WINDOW,
            "window 0 has no route"
        );
        assert_eq!(
            stats.received,
            2 * NetDebug::STREAM_WINDOW,
            "windows 1-2 forward"
        );
    }

    #[test]
    fn churn_phases_follow_the_schedule() {
        // Install, overlapping install, withdraw both: each window's
        // batch lands before it and the run repeats exactly.
        let run = || {
            let mut nd = NetDebug::deploy(&Backend::reference(), corpus::IPV4_FORWARD).unwrap();
            let spec = StreamSpec::simple(
                1,
                frame(Ipv4Address::new(10, 1, 2, 3)),
                4 * NetDebug::STREAM_WINDOW,
                Expectation::Any,
            );
            let schedule = ChurnSchedule::new()
                .before_window(1, route_op())
                .before_window(2, route(0x0A01_0000, 16, [0xBB, 2]))
                .before_window(3, withdraw(0x0A00_0000, 8))
                .before_window(3, withdraw(0x0A01_0000, 16));
            nd.run_stream_churn(&spec, &schedule).unwrap();
            nd.checker().streams()[&1].clone()
        };
        let one = run();
        assert_eq!(one, run(), "churned stream must be deterministic");
        // The phases: dropped in windows 0 and 3, forwarded in 1 and 2.
        assert_eq!(one.dropped, 2 * NetDebug::STREAM_WINDOW);
        assert_eq!(one.received, 2 * NetDebug::STREAM_WINDOW);
    }

    #[test]
    fn fleet_churn_diffs_reference_against_buggy_backend() {
        // Churn across a fleet: both members receive the identical
        // schedule; the malformed-frame stream exposes the SDNet reject
        // bug in the churned setting exactly as in the static one.
        let mut fleet = DifferentialFleet::new()
            .with(
                "reference",
                Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
            )
            .with(
                "sdnet-2018",
                Device::deploy_source(&Backend::sdnet_2018(), corpus::IPV4_FORWARD).unwrap(),
            );
        let mut bad = frame(Ipv4Address::new(10, 0, 0, 9));
        bad[14] = 0x55; // version 5: must be rejected
        let spec = StreamSpec::simple(7, bad, 24, Expectation::Any);
        let schedule = ChurnSchedule::new().before_window(1, route_op());
        let report = fleet.run_churn(&spec, &schedule, 8).unwrap();
        assert_eq!(report.packets, 24);
        assert!(!report.equivalent(), "the reject bug must survive churn");
        assert_eq!(report.diverging_members(), vec!["sdnet-2018"]);
    }

    /// A backend whose vendor driver inverts every priority it writes.
    fn inverted_backend() -> Backend {
        use netdebug_hw::{ArchLimits, BugSpec, SdnetProfile};
        Backend::SdnetSim(SdnetProfile {
            name: "prio-inverted".into(),
            bugs: vec![BugSpec::PriorityInverted],
            limits: ArchLimits::UNLIMITED,
            faults: vec![],
        })
    }

    #[test]
    fn churned_updates_go_through_the_modeled_driver() {
        // Churned installs and removals arrive through the vendor driver
        // stack, so its bug transforms apply to both: a priority-inverting
        // backend diverges from the reference exactly while churn leaves
        // overlapping routes resident (the broad /8 shadows the /16 on
        // the buggy member), and agrees again once the /8 is withdrawn.
        let mut fleet = DifferentialFleet::new()
            .with(
                "reference",
                Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
            )
            .with(
                "prio-inverted",
                Device::deploy_source(&inverted_backend(), corpus::IPV4_FORWARD).unwrap(),
            );
        // Traffic to 10.1.2.3: window 0 installs the /8 (port 1), window 1
        // the more-specific /16 (port 2), window 2 withdraws the /8. The
        // reference switches to port 2 in window 1; the inverted member
        // keeps preferring the /8 until its driver removes it.
        let spec = StreamSpec::simple(
            9,
            frame(Ipv4Address::new(10, 1, 2, 3)),
            48,
            Expectation::Any,
        );
        let schedule = ChurnSchedule::new()
            .before_window(0, route_op())
            .before_window(1, route(0x0A01_0000, 16, [0xBB, 2]))
            .before_window(2, withdraw(0x0A00_0000, 8));
        let report = fleet.run_churn(&spec, &schedule, 16).unwrap();
        assert_eq!(
            report.diverging_members(),
            vec!["prio-inverted"],
            "driver-level priority inversion must stay detectable under churn"
        );
        // Windows 0 and 2 (one route resident) agree; every window-1
        // packet diverges.
        assert_eq!(report.agreements, 32);
        assert_eq!(report.divergences.len(), 16);
        assert!(report
            .divergences
            .iter()
            .all(|d| (16..32).contains(&d.index)));
    }

    #[test]
    fn an_inverted_driver_removes_the_route_it_installed() {
        // The driver inverts a removal's priority as it inverted the
        // install's, so the removal finds the entry: both backends go
        // from one resident route to none.
        for backend in [Backend::reference(), inverted_backend()] {
            let mut dev = Device::deploy_source(&backend, corpus::IPV4_FORWARD).unwrap();
            let cp = dev.control_plane();
            route_op().apply(&mut dev).unwrap();
            assert_eq!(cp.occupancy("ipv4_lpm").unwrap().0, 1);
            withdraw(0x0A00_0000, 8).apply(&mut dev).unwrap();
            assert_eq!(cp.occupancy("ipv4_lpm").unwrap().0, 0, "{backend:?}");
        }
    }

    #[test]
    fn a_window_publishes_as_one_batch() {
        // Three ops before window 1 land as one generation bump, and the
        // table they share advances one epoch.
        let mut dev = Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap();
        let cp = dev.control_plane();
        let schedule = ChurnSchedule::new()
            .before_window(1, route_op())
            .before_window(1, route(0x0A01_0000, 16, [0xBB, 2]))
            .before_window(1, withdraw(0x0A00_0000, 8));
        let before = cp.epoch("ipv4_lpm").unwrap();
        assert_eq!(schedule.apply_for_window(0, &mut dev), Ok(0));
        assert_eq!(schedule.apply_for_window(1, &mut dev), Ok(3));
        assert_eq!(cp.epoch("ipv4_lpm").unwrap(), before + 1);
        assert_eq!(cp.occupancy("ipv4_lpm").unwrap().0, 1);
    }

    #[test]
    fn unreachable_window_is_rejected_up_front() {
        // An op keyed past the last window would silently never publish;
        // both drivers must refuse to start instead of reporting plain
        // traffic as a churn scenario.
        let mut nd = NetDebug::deploy(&Backend::reference(), corpus::IPV4_FORWARD).unwrap();
        let spec = StreamSpec::simple(
            1,
            frame(Ipv4Address::new(10, 0, 0, 9)),
            2 * NetDebug::STREAM_WINDOW, // 2 windows: indices 0 and 1
            Expectation::Any,
        );
        let schedule = ChurnSchedule::new().before_window(2, route_op());
        assert_eq!(
            nd.run_stream_churn(&spec, &schedule),
            Err(ChurnError::UnreachableWindow {
                window: 2,
                windows: 2
            })
        );
        // Nothing ran: the stream was never even opened for injection.
        assert!(!nd.checker().streams().contains_key(&1));

        let mut fleet = DifferentialFleet::new().with(
            "only",
            Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
        );
        let err = fleet.run_churn(&spec, &schedule, NetDebug::STREAM_WINDOW);
        assert!(matches!(err, Err(ChurnError::UnreachableWindow { .. })));
    }
}
