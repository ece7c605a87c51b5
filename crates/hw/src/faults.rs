//! The crash-class fault library.
//!
//! [`crate::bugs::BugSpec`] models *silent-wrong-answer* defects: the
//! device keeps running and quietly forwards (or drops) the wrong thing.
//! Real deployed data planes also fail *loudly* — a driver thread
//! panics, a parser wedges in a loop until a watchdog kills it, a table
//! publication takes the control channel down with it. [`FaultSpec`]
//! models that second class. Faults are deterministic and seeded: two
//! devices armed with the same specs trip on exactly the same frame, so
//! fault runs replay bit-identically — which is what lets the fleet
//! runtime *bisect* an offending batch down to the single culprit frame
//! (`netdebug::runtime::drive_device_with`).
//!
//! Faults compose freely with bug transforms: a `SdnetSim` profile can
//! carry both, because a mis-compiled pipeline and a crashing driver are
//! independent failure axes.
//!
//! Mechanically, a trip raises a typed panic payload ([`FaultPanic`])
//! via `std::panic::panic_any`; the containing driver in `netdebug`
//! catches it with `catch_unwind`, quarantines the device and attaches the
//! payload to a structured `DeviceFault` record. The first call to
//! [`Device::arm_fault`](crate::Device::arm_fault) installs a panic-hook
//! filter so these *expected* panics do not spray backtraces over test
//! and bench output; genuine panics still print.

use serde::{Deserialize, Serialize};

/// One injectable crash-class fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Panic the instant a frame is admitted on `port` (models a
    /// port-specific DMA/driver bug).
    PanicOnPort {
        /// Ingress port that triggers the crash.
        port: u16,
    },
    /// Panic when the `n`-th frame (0-based over the device's lifetime)
    /// is admitted — the classic "falls over after a while" failure.
    PanicAfterN {
        /// Frame index that triggers the crash.
        n: u64,
    },
    /// Parser wedge: frame `after` hangs the parser in a loop; the
    /// cycle-budget watchdog kills the device once `budget_cycles` have
    /// burned. The burned budget is charged to the device clock before
    /// the trip, so time-to-detection is observable.
    WedgeParser {
        /// Frame index (0-based) whose parse never terminates.
        after: u64,
        /// Watchdog budget the wedged parser exhausts, in core cycles.
        budget_cycles: u64,
    },
    /// Every driver-path table publication crashes the driver
    /// (`Device::install` and everything funnelling through it).
    FailPublication,
    /// Seeded flaky crash: each admitted frame independently trips with
    /// probability `rate_ppm`/1e6, drawn from splitmix64 over
    /// `seed ^ frame_index` — deterministic, so a flaky run replays
    /// exactly.
    SeededFlaky {
        /// Stream seed.
        seed: u64,
        /// Trip probability in parts-per-million.
        rate_ppm: u32,
    },
    /// Transient publication failure: the first `fail_first` driver-path
    /// publication *attempts* (over the device's lifetime, retries
    /// included) crash the driver; every attempt after that succeeds.
    /// Models a control channel that flaps and comes back — with a
    /// retrying driver the publication lands late but epoch-atomically.
    TransientPublication {
        /// How many publication attempts fail before the channel heals.
        fail_first: u32,
    },
    /// Silent liveness failure: frame `after` (0-based over the device's
    /// lifetime) wedges the device — that frame and every one after it
    /// are swallowed without an outcome and **without a panic**, so only
    /// a deadline watchdog can detect it. Deterministic: a replay wedges
    /// on exactly the same frame.
    Stall {
        /// Frame index at which the device stops responding.
        after: u64,
    },
}

impl FaultSpec {
    /// Short stable identifier for reports.
    pub fn id(&self) -> &'static str {
        match self {
            FaultSpec::PanicOnPort { .. } => "panic-on-port",
            FaultSpec::PanicAfterN { .. } => "panic-after-n",
            FaultSpec::WedgeParser { .. } => "wedge-parser",
            FaultSpec::FailPublication => "fail-publication",
            FaultSpec::SeededFlaky { .. } => "seeded-flaky",
            FaultSpec::TransientPublication { .. } => "transient-publication",
            FaultSpec::Stall { .. } => "stall",
        }
    }
}

/// Typed panic payload raised by a tripped fault.
///
/// Carried through `std::panic::panic_any`, downcast by the containing
/// driver to recover *which* fault fired and *where* without parsing
/// panic strings.
#[derive(Debug, Clone)]
pub struct FaultPanic {
    /// Stable fault id ([`FaultSpec::id`]).
    pub fault: &'static str,
    /// Pipeline position the fault fired at: `"ingress"`, `"parser"`
    /// or `"driver"`.
    pub stage: &'static str,
    /// Human-readable detail (port, frame index, …).
    pub detail: String,
}

impl std::fmt::Display for FaultPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}@{}] {}", self.fault, self.stage, self.detail)
    }
}

/// A fault decision for one admitted frame.
#[derive(Debug)]
pub struct FaultTrip {
    /// The panic payload to raise.
    pub panic: FaultPanic,
    /// Cycles the wedged parser burned before the watchdog fired
    /// (non-zero only for [`FaultSpec::WedgeParser`]); the device
    /// charges them to its clock before raising.
    pub wedge_cycles: u64,
}

/// Errors returned (instead of panics) by the hardened edges of the
/// [`crate::Device`] public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// `inject_batch_at` was handed frame and due-time lists of
    /// different lengths.
    MismatchedBatch {
        /// Frames in the batch.
        pkts: usize,
        /// Due times supplied.
        dues: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::MismatchedBatch { pkts, dues } => {
                write!(f, "batch of {pkts} frames given {dues} due times")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Per-device armed-fault state: the specs plus the deterministic
/// admission counters they key on.
///
/// The packet counter advances **only for cleanly admitted frames** — a
/// tripping frame leaves it untouched — so replaying the same frame
/// sequence on a clone of the pre-run device re-trips on exactly the
/// same frame. That invariant is what the culprit-isolation replay in
/// `netdebug` relies on.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    specs: Vec<FaultSpec>,
    packets: u64,
    publications: u64,
    /// Publication *attempts* (retries included), the counter
    /// [`FaultSpec::TransientPublication`] keys on. Advances on every
    /// attempt, failed or not, so a retrying driver makes progress
    /// toward the healed channel.
    attempts: u64,
    /// Set once [`FaultSpec::Stall`] wedges the device; cleared only by
    /// [`FaultState::skip_faulted`] (recovery) or a state restore.
    wedged: bool,
}

impl FaultState {
    /// Arm an additional fault.
    pub fn arm(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// The armed fault specs.
    pub fn armed(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True when no fault is armed — the hot-path check, so admission
    /// costs one branch on healthy devices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Admission check for one frame arriving on `port`. Returns the
    /// trip to raise (counter untouched), or `None` after advancing the
    /// clean-admission counter.
    pub fn check_packet(&mut self, port: u16) -> Option<FaultTrip> {
        let idx = self.packets;
        for spec in &self.specs {
            let trip = match *spec {
                FaultSpec::PanicOnPort { port: p } if p == port => Some(FaultTrip {
                    panic: FaultPanic {
                        fault: spec.id(),
                        stage: "ingress",
                        detail: format!("frame #{idx} admitted on port {port}"),
                    },
                    wedge_cycles: 0,
                }),
                FaultSpec::PanicAfterN { n } if idx == n => Some(FaultTrip {
                    panic: FaultPanic {
                        fault: spec.id(),
                        stage: "ingress",
                        detail: format!("frame #{idx} reached the panic threshold"),
                    },
                    wedge_cycles: 0,
                }),
                FaultSpec::WedgeParser {
                    after,
                    budget_cycles,
                } if idx == after => Some(FaultTrip {
                    panic: FaultPanic {
                        fault: spec.id(),
                        stage: "parser",
                        detail: format!(
                            "parser wedged on frame #{idx}; watchdog fired after \
                             {budget_cycles} cycles"
                        ),
                    },
                    wedge_cycles: budget_cycles,
                }),
                FaultSpec::SeededFlaky { seed, rate_ppm }
                    if splitmix64(seed ^ idx) % 1_000_000 < u64::from(rate_ppm) =>
                {
                    Some(FaultTrip {
                        panic: FaultPanic {
                            fault: spec.id(),
                            stage: "ingress",
                            detail: format!("flaky trip on frame #{idx} (seed {seed:#x})"),
                        },
                        wedge_cycles: 0,
                    })
                }
                _ => None,
            };
            if trip.is_some() {
                return trip;
            }
        }
        self.packets += 1;
        None
    }

    /// Stall check for one frame about to be admitted. Returns `true`
    /// when the device is (or just became) wedged: the caller must
    /// swallow the frame — no outcome, no panic, and the clean-admission
    /// counter stays put, so the wedging frame replays as the culprit.
    pub fn check_stall(&mut self) -> bool {
        if self.wedged {
            return true;
        }
        let idx = self.packets;
        for spec in &self.specs {
            if let FaultSpec::Stall { after } = *spec {
                if idx == after {
                    self.wedged = true;
                    return true;
                }
            }
        }
        false
    }

    /// True once a [`FaultSpec::Stall`] has wedged the device.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Recovery bookkeeping after a culprit frame is skipped: model the
    /// tripping frame as consumed (the clean-admission counter moves
    /// past it, so frame-indexed faults do not re-trip on the next
    /// frame) and un-wedge a stalled device.
    pub fn skip_faulted(&mut self) {
        self.packets += 1;
        self.wedged = false;
    }

    /// Admission check for one driver-path table publication. Returns
    /// the panic to raise, or `None` after advancing the publication
    /// counter. The attempt counter advances only on a **failed**
    /// attempt, so [`FaultSpec::TransientPublication`] dies on exactly
    /// its first `fail_first` trips — no matter how many publications
    /// succeeded before the fault was armed — and then heals under
    /// retries.
    pub fn check_publication(&mut self) -> Option<FaultPanic> {
        let idx = self.publications;
        let attempt = self.attempts;
        for spec in &self.specs {
            match *spec {
                FaultSpec::FailPublication => {
                    self.attempts += 1;
                    return Some(FaultPanic {
                        fault: spec.id(),
                        stage: "driver",
                        detail: format!("driver crashed publishing table update #{idx}"),
                    });
                }
                FaultSpec::TransientPublication { fail_first }
                    if attempt < u64::from(fail_first) =>
                {
                    self.attempts += 1;
                    return Some(FaultPanic {
                        fault: spec.id(),
                        stage: "driver",
                        detail: format!(
                            "transient driver crash on publication attempt #{attempt} \
                             (update #{idx})"
                        ),
                    });
                }
                _ => {}
            }
        }
        self.publications += 1;
        None
    }
}

/// splitmix64: the same tiny deterministic generator the runtime's
/// test harness uses, keyed here by `seed ^ frame_index` so every frame
/// has an independent, replayable draw.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Install (once, process-wide) a panic-hook filter that suppresses the
/// default "thread panicked" report for [`FaultPanic`] payloads only.
/// Injected faults are *expected* panics — the containing driver catches
/// them — and printing a backtrace per trip would bury real failures in
/// noise. Any other payload goes to the previous hook unchanged.
pub(crate) fn silence_fault_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let faults = [
            FaultSpec::PanicOnPort { port: 1 },
            FaultSpec::PanicAfterN { n: 3 },
            FaultSpec::WedgeParser {
                after: 2,
                budget_cycles: 1000,
            },
            FaultSpec::FailPublication,
            FaultSpec::SeededFlaky {
                seed: 7,
                rate_ppm: 100,
            },
            FaultSpec::TransientPublication { fail_first: 2 },
            FaultSpec::Stall { after: 4 },
        ];
        let mut ids: Vec<_> = faults.iter().map(|f| f.id()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn panic_after_n_trips_on_exactly_the_nth_frame() {
        let mut st = FaultState::default();
        st.arm(FaultSpec::PanicAfterN { n: 2 });
        assert!(st.check_packet(0).is_none());
        assert!(st.check_packet(0).is_none());
        let trip = st.check_packet(0).expect("frame #2 trips");
        assert_eq!(trip.panic.fault, "panic-after-n");
        // The tripping frame does not advance the counter: a replay
        // re-trips on the same frame.
        assert_eq!(st.packets, 2);
        assert!(st.check_packet(0).is_some());
    }

    #[test]
    fn panic_on_port_is_port_selective() {
        let mut st = FaultState::default();
        st.arm(FaultSpec::PanicOnPort { port: 3 });
        for _ in 0..10 {
            assert!(st.check_packet(1).is_none());
        }
        let trip = st.check_packet(3).expect("port 3 trips");
        assert_eq!(trip.panic.stage, "ingress");
    }

    #[test]
    fn wedge_parser_charges_the_watchdog_budget() {
        let mut st = FaultState::default();
        st.arm(FaultSpec::WedgeParser {
            after: 0,
            budget_cycles: 5_000,
        });
        let trip = st.check_packet(0).expect("first frame wedges");
        assert_eq!(trip.wedge_cycles, 5_000);
        assert_eq!(trip.panic.stage, "parser");
    }

    #[test]
    fn seeded_flaky_is_deterministic_and_rate_bounded() {
        let spec = FaultSpec::SeededFlaky {
            seed: 0xDEAD_BEEF,
            rate_ppm: 50_000, // 5%
        };
        let run = |spec| {
            let mut st = FaultState::default();
            st.arm(spec);
            let mut trips = Vec::new();
            for i in 0..2_000u64 {
                if st.check_packet(0).is_some() {
                    trips.push(i);
                    // Skip past the trip as the guarded replay would:
                    // model the frame as consumed by re-arming a fresh
                    // state is overkill; just note determinism of the
                    // first trip and stop.
                    break;
                }
            }
            (trips, st.packets)
        };
        let (a, admitted_a) = run(spec);
        let (b, admitted_b) = run(spec);
        assert_eq!(a, b, "same seed, same trip frame");
        assert_eq!(admitted_a, admitted_b);
        assert!(!a.is_empty(), "5% over 2000 frames trips at least once");
    }

    #[test]
    fn fail_publication_trips_every_publication() {
        let mut st = FaultState::default();
        st.arm(FaultSpec::FailPublication);
        assert!(st.check_publication().is_some());
        assert!(st.check_publication().is_some());
        // Packet admission is unaffected.
        assert!(st.check_packet(0).is_none());
    }

    #[test]
    fn stall_wedges_deterministically_and_without_panicking() {
        let run = || {
            let mut st = FaultState::default();
            st.arm(FaultSpec::Stall { after: 3 });
            let mut wedged_at = None;
            for i in 0..10u64 {
                if st.check_stall() {
                    wedged_at.get_or_insert(i);
                    continue;
                }
                assert!(st.check_packet(0).is_none(), "stall never raises a trip");
            }
            (wedged_at, st.packets)
        };
        let (a, admitted_a) = run();
        let (b, admitted_b) = run();
        assert_eq!(a, Some(3), "wedges on exactly frame #3");
        assert_eq!(a, b, "replay wedges on the same frame");
        assert_eq!(admitted_a, 3, "the wedging frame is not admitted");
        assert_eq!(admitted_a, admitted_b);
    }

    #[test]
    fn skip_faulted_unwedges_and_moves_past_the_culprit() {
        let mut st = FaultState::default();
        st.arm(FaultSpec::Stall { after: 1 });
        assert!(!st.check_stall());
        assert!(st.check_packet(0).is_none());
        assert!(st.check_stall(), "frame #1 wedges");
        assert!(st.is_wedged());
        st.skip_faulted();
        assert!(!st.is_wedged());
        for _ in 0..8 {
            assert!(!st.check_stall(), "a skipped stall does not re-wedge");
            assert!(st.check_packet(0).is_none());
        }
    }

    #[test]
    fn transient_publication_heals_after_fail_first_attempts() {
        let mut st = FaultState::default();
        st.arm(FaultSpec::TransientPublication { fail_first: 3 });
        for attempt in 0..3 {
            let panic = st.check_publication().expect("early attempt fails");
            assert_eq!(panic.fault, "transient-publication");
            assert_eq!(panic.stage, "driver");
            assert!(panic.detail.contains(&format!("attempt #{attempt}")));
        }
        assert!(st.check_publication().is_none(), "channel healed");
        assert!(st.check_publication().is_none(), "and stays healed");
        // Packet admission was never affected.
        assert!(st.check_packet(0).is_none());
    }

    #[test]
    fn clean_state_admits_everything() {
        let mut st = FaultState::default();
        assert!(st.is_empty());
        for i in 0..100 {
            assert!(st.check_packet(i as u16).is_none());
        }
        assert!(st.check_publication().is_none());
        assert_eq!(st.packets, 100);
    }
}
