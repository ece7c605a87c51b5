//! Simulated programmable network hardware for the NetDebug reproduction.
//!
//! The paper prototypes NetDebug on a NetFPGA SUME programmed through Xilinx
//! SDNet. Neither is available here, so this crate builds the closest
//! faithful substitute:
//!
//! * [`device::Device`] — a 4×10G board model with MACs, a 200 MHz core
//!   clock, per-port statistics, per-stage tap counters and a register bus
//!   (the paper's "dedicated interface");
//! * [`backend::Backend`] — compilers from pipeline IR to the device. The
//!   `Reference` backend is faithful; `SdnetSim` reproduces the 2018 SDNet
//!   toolchain: *diagnosed* architecture limits (no meters, 64-bit keys, no
//!   range selects, bounded stages) plus a library of **silent bugs**
//!   ([`bugs::BugSpec`]) headlined by `RejectStateIgnored` — the exact
//!   defect the paper's evaluation reports finding with NetDebug;
//! * [`resources`] — deterministic FPGA cost model (LUT/FF/BRAM) against the
//!   SUME's Virtex-7 budget, backing the *resources quantification*
//!   use-case.
//!
//! The substitution argument (DESIGN.md §1): every NetDebug claim is about
//! observing a *deployed artifact* that differs from the *specification*.
//! A simulated device whose backend can silently diverge from the IR
//! preserves exactly that relationship, so detection experiments against it
//! are meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bugs;
pub mod device;
pub mod faults;
pub mod resources;

pub use backend::{ArchLimits, Backend, Compiled, LatencyModel, SdnetProfile};
pub use bugs::{BugRuntime, BugSpec};
pub use device::{
    DeployError, Device, DeviceCheckpoint, DeviceConfig, Outcome, PortStats, Processed,
    MAC_FIXED_NS,
};
pub use faults::{FaultError, FaultPanic, FaultSpec, FaultState, FaultTrip};
pub use resources::{ResourceBudget, ResourceReport, SUME_BUDGET};
