//! Rule churn under load: control-plane mutation interleaved with traffic.
//!
//! The paper's central scenario is a tester exercising a deployed data
//! plane *while the control plane keeps installing rules* — routes
//! arriving as traffic flows, policies swapping mid-test. With the
//! epoch-snapshot tables each mutation publishes atomically between
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
//! Every scheduled publication also **updates the target table's lookup
//! index** (exact hash / LPM levels / tuple groups — see
//! `netdebug_dataplane::LookupIndex`) by the one entry that changed: the
//! cost is the change's, not the table's, and it lands on the
//! control-plane side of the epoch. A window's batch pins its tables only
//! while it runs, so the burst between two windows edits the snapshot in
//! place; only a publication that lands mid-window, or on a table a
//! checkpoint or a device clone pins, copies it once. Churned tables keep
//! their O(1)/per-level/per-group applies on the packet path, and the
//! in-flight window's flattened `TableView`s still read the epoch they
//! pinned —
//! engine and flow-cache parity under churn are property-tested against
//! exactly this republication path.

use netdebug_dataplane::ControlError;
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

/// One scripted control-plane mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnOp {
    /// Install an exact-match entry.
    Exact {
        /// Table name.
        table: String,
        /// One value per key.
        keys: Vec<u128>,
        /// Bound action.
        action: String,
        /// Action arguments.
        args: Vec<u128>,
    },
    /// Install an LPM entry (priority = prefix length).
    Lpm {
        /// Table name.
        table: String,
        /// Prefix value.
        prefix: u128,
        /// Prefix length in bits.
        prefix_len: u16,
        /// Bound action.
        action: String,
        /// Action arguments.
        args: Vec<u128>,
    },
    /// Install an arbitrary entry with an explicit priority.
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
    /// Remove the entry with exactly these patterns and priority.
    Remove {
        /// Table name.
        table: String,
        /// Patterns of the entry to remove.
        patterns: Vec<IrPattern>,
        /// Priority of the entry to remove.
        priority: i32,
    },
    /// Remove every entry from a table.
    Clear {
        /// Table name.
        table: String,
    },
}

impl ChurnOp {
    /// Apply this mutation to a device. Installs go through
    /// [`Device::install`] and friends — the modeled vendor *driver*
    /// path, so backend bug transforms such as priority inversion apply
    /// to churned rules exactly as they would to pre-deployed ones, and
    /// differential churn scenarios keep their bug-detection power.
    /// Removals go through the raw epoch-publishing handle (no driver
    /// bug is modeled for entry removal); a [`ChurnOp::Remove`] of an
    /// absent entry is a no-op, matching idempotent re-play of a
    /// schedule. Either way the mutation lands as an atomic epoch
    /// publication.
    pub fn apply(&self, device: &mut Device) -> Result<(), ControlError> {
        match self {
            ChurnOp::Exact {
                table,
                keys,
                action,
                args,
            } => {
                device.install_exact(table, keys.clone(), action, args.clone())?;
            }
            ChurnOp::Lpm {
                table,
                prefix,
                prefix_len,
                action,
                args,
            } => {
                device.install_lpm(table, *prefix, *prefix_len, action, args.clone())?;
            }
            ChurnOp::Install {
                table,
                patterns,
                action,
                args,
                priority,
            } => {
                device.install(table, patterns.clone(), action, args.clone(), *priority)?;
            }
            ChurnOp::Remove {
                table,
                patterns,
                priority,
            } => {
                device.control_plane().remove(table, patterns, *priority)?;
            }
            ChurnOp::Clear { table } => {
                device.control_plane().clear(table)?;
            }
        }
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

    /// Apply every op scheduled for `window`, in schedule order.
    pub fn apply_for_window(
        &self,
        window: u64,
        device: &mut Device,
    ) -> Result<usize, ControlError> {
        let mut applied = 0;
        for (w, op) in &self.ops {
            if *w == window {
                op.apply(device)?;
                applied += 1;
            }
        }
        Ok(applied)
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

    fn route_op() -> ChurnOp {
        ChurnOp::Lpm {
            table: "ipv4_lpm".into(),
            prefix: 0x0A00_0000,
            prefix_len: 8,
            action: "ipv4_forward".into(),
            args: vec![0xAA, 1],
        }
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
        // Install, overlapping install, clear: each publication lands
        // before its window and the run repeats exactly.
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
                .before_window(
                    2,
                    ChurnOp::Lpm {
                        table: "ipv4_lpm".into(),
                        prefix: 0x0A01_0000,
                        prefix_len: 16,
                        action: "ipv4_forward".into(),
                        args: vec![0xBB, 2],
                    },
                )
                .before_window(
                    3,
                    ChurnOp::Clear {
                        table: "ipv4_lpm".into(),
                    },
                );
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

    #[test]
    fn churned_installs_go_through_the_modeled_driver() {
        // Churned rules arrive through the vendor driver stack, so driver
        // bug transforms must apply to them: a priority-inverting backend
        // diverges from the reference once churn installs overlapping
        // routes (the broad /8 shadows the /16 on the buggy member).
        use netdebug_hw::{ArchLimits, BugSpec, SdnetProfile};
        let inverted = Backend::SdnetSim(SdnetProfile {
            name: "prio-inverted".into(),
            bugs: vec![BugSpec::PriorityInverted],
            limits: ArchLimits::UNLIMITED,
            faults: vec![],
        });
        let mut fleet = DifferentialFleet::new()
            .with(
                "reference",
                Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
            )
            .with(
                "prio-inverted",
                Device::deploy_source(&inverted, corpus::IPV4_FORWARD).unwrap(),
            );
        // Traffic to 10.1.2.3: window 0 installs the /8 (port 1), window 1
        // the more-specific /16 (port 2). The reference switches to port 2
        // in window 1; the inverted member keeps preferring the /8.
        let spec = StreamSpec::simple(
            9,
            frame(Ipv4Address::new(10, 1, 2, 3)),
            32,
            Expectation::Any,
        );
        let schedule = ChurnSchedule::new()
            .before_window(0, route_op())
            .before_window(
                1,
                ChurnOp::Lpm {
                    table: "ipv4_lpm".into(),
                    prefix: 0x0A01_0000,
                    prefix_len: 16,
                    action: "ipv4_forward".into(),
                    args: vec![0xBB, 2],
                },
            );
        let report = fleet.run_churn(&spec, &schedule, 16).unwrap();
        assert_eq!(
            report.diverging_members(),
            vec!["prio-inverted"],
            "driver-level priority inversion must stay detectable under churn"
        );
        // Window 0 (single route) agrees; every window-1 packet diverges.
        assert_eq!(report.agreements, 16);
        assert_eq!(report.divergences.len(), 16);
        assert!(report.divergences.iter().all(|d| d.index >= 16));
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
