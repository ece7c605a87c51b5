//! # NetDebug — a programmable framework for validating data planes
//!
//! Reproduction of Bressana, Zilberman and Soulé, *"A Programmable
//! Framework for Validating Data Planes"* (SIGCOMM 2018 posters/demos),
//! built on the simulated NetFPGA-SUME/SDNet substrate of `netdebug-hw`.
//!
//! The architecture follows the paper's Figure 1:
//!
//! ```text
//!           ┌──────────────────────── Device ───────────────────────┐
//!   host ───┤ register bus                                          │
//!   tool    │   ┌───────────┐    ┌──────────────────┐   ┌─────────┐ │
//!  (this    │   │ test pkt  │───▶│  data plane      │──▶│ output  │ │
//!   crate)  │   │ generator │    │  under test      │   │ checker │ │
//!           │   └───────────┘    │ (P4, any source) │   └─────────┘ │
//!           │        MACs ──────▶│                  │──────▶ MACs   │
//!           │                    └──────────────────┘               │
//!           └───────────────────────────────────────────────────────┘
//! ```
//!
//! * [`generator`] — programmable stream generation, injected *inside* the
//!   device, stamping every packet with a sequence number, timestamp and
//!   CRC;
//! * [`checker`] — line-rate output validation: loss, reordering,
//!   duplication, corruption, latency, and expectation enforcement
//!   (a packet flagged *expect-drop* appearing at an output is how the
//!   SDNet `reject` bug is caught);
//! * [`session`] — the host-side controller tying them together;
//! * [`localize`](mod@localize) — stage-level fault localisation from tap
//!   counters;
//! * [`probes`] / [`differential`] — parser-path packet synthesis and
//!   device-vs-device diffing;
//! * [`fleet`] — N-backend differential fleets: one generated window fed
//!   to every deployment concurrently, verdicts diffed against the
//!   reference member;
//! * [`churn`] — rule churn under load: scripted control-plane mutations
//!   interleaved with traffic windows (epoch-snapshot tables keep the
//!   traffic on the parallel path throughout);
//! * [`runtime`] — the virtual-time event-loop fleet runtime: a
//!   scheduler over device cycles, same-instant injection coalescing, and a
//!   scoped fan-out that splits hundreds of devices over a few threads
//!   (the caller's first) with bit-reproducible ordering;
//! * [`usecases`] — one measurable driver per §3 use-case, plus the
//!   Figure 2 coverage matrix.
//!
//! ## Quickstart
//!
//! ```
//! use netdebug::generator::{Expectation, StreamSpec};
//! use netdebug::session::NetDebug;
//! use netdebug_hw::Backend;
//! use netdebug_p4::corpus;
//! use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
//!
//! // Deploy the paper's case-study router on the buggy SDNet model.
//! let mut nd = NetDebug::deploy(&Backend::sdnet_2018(), corpus::IPV4_FORWARD).unwrap();
//! nd.device_mut()
//!     .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
//!     .unwrap();
//!
//! // Inject malformed packets that the P4 program must reject…
//! let mut malformed = PacketBuilder::ethernet(
//!         EthernetAddress::new(2, 0, 0, 0, 0, 1),
//!         EthernetAddress::new(2, 0, 0, 0, 0, 2),
//!     )
//!     .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 9))
//!     .udp(1, 2)
//!     .build();
//! malformed[14] = 0x55; // IPv4 "version 5" — the parser must reject
//! let report = nd.run_session(&[StreamSpec::simple(1, malformed, 10, Expectation::Drop)]);
//!
//! // …and the checker catches the forwarded-but-should-drop violation.
//! assert!(!report.passed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod churn;
pub mod differential;
pub mod fleet;
pub mod generator;
pub mod localize;
pub mod probes;
pub mod runtime;
pub mod session;
pub mod usecases;

pub use checker::{Checker, StreamStats, Violation};
pub use churn::{ChurnError, ChurnOp, ChurnSchedule};
pub use fleet::{ChurnBisection, DifferentialFleet, FleetDivergence, FleetError, FleetReport};
pub use generator::{Expectation, FieldSweep, Generator, StreamSpec};
pub use localize::{localize, Localization};
pub use runtime::{
    drive_device_with, CulpritFrame, DeviceFault, DeviceRecovery, DeviceSink, DeviceTask,
    DriveReport, FleetRuntime, FlowRun, RecoveryPolicy, RuntimeStats, DEFAULT_WATCHDOG_CYCLES,
};
pub use session::{NetDebug, SessionReport};
