//! Drivers for the seven use-cases of the paper's §3.
//!
//! Each submodule operationalises one bullet of the use-case list — the
//! paper names them but does not define procedures, so each driver here
//! turns the claim into a measurable experiment with a typed report:
//!
//! | §3 bullet | module | report |
//! |---|---|---|
//! | functional testing | [`functional`] | pass/fail per vector + localisation |
//! | performance testing | [`performance`] | throughput/pps/latency sweep |
//! | compiler check | [`compiler_check`] | conformance matrix incl. silent bugs |
//! | architecture check | [`architecture`] | per-dimension limits |
//! | resources quantification | [`resources`] | LUT/FF/BRAM per program |
//! | status monitoring | [`status`] | timeline of internal counters |
//! | comparison | [`comparison`] | full cross-deployment diff |
//!
//! [`coverage`] aggregates them into the paper's Figure 2 matrix by probing
//! what each tool (verifier, external tester, NetDebug) can actually do.
//! Where a probe is a use case's own procedure, the matrix calls its
//! driver: NetDebug's hardware-bug probe in the functional row is one
//! [`functional::run`] vector.

pub mod architecture;
pub mod comparison;
pub mod compiler_check;
pub mod coverage;
pub mod functional;
pub mod performance;
pub mod resources;
pub mod status;
