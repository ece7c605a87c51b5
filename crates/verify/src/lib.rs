//! Spec-level formal verification of P4 programs (the p4v baseline).
//!
//! This crate reproduces the role played by software formal verification
//! tools — p4v [Cascaval et al., SIGCOMM 2018] — in the paper's Figure 2 and
//! §4 case study. It symbolically executes the *pipeline IR as written by
//! the programmer*, exploring every parser path, branch and table action
//! (for all possible control planes), and checks:
//!
//! * reads/writes of invalid headers,
//! * paths that end with neither a drop nor an egress decision,
//! * and it *certifies* that every `reject` path drops the packet.
//!
//! The semantics it explores are not a transcription: [`exec`] runs the same
//! IR walker (`netdebug_p4::walk`) as the data plane's reference engine,
//! over [`Sym`] values instead of bit-vectors, so the spec it verifies is the
//! spec the reference engine executes.
//!
//! **What it cannot do — by design, and this is the paper's point:** its
//! input is the program, never the device. A backend that silently
//! mis-compiles `reject` (see `RejectStateIgnored` in `netdebug-hw`)
//! produces hardware whose behaviour diverges from the verified spec, and no
//! amount of spec-level analysis will notice. The integration tests of the
//! workspace demonstrate exactly this blind spot.
//!
//! ```
//! use netdebug_verify::verify;
//!
//! let ir = netdebug_p4::compile(netdebug_p4::corpus::IPV4_FORWARD).unwrap();
//! let report = verify(&ir);
//! assert!(report.verified());            // the spec is clean…
//! assert!(report.reject_paths > 0);      // …and promises drop paths,
//! assert!(report.spec_reject_drops);     // which the verifier certifies.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod solver;
pub mod sym;

pub use exec::verify;
pub use solver::{solve, Sat};
pub use sym::Sym;

use serde::{Deserialize, Serialize};

/// Kinds of findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FindingKind {
    /// An expression reads a field of a header not valid on this path.
    ReadInvalidHeader,
    /// An assignment writes a field of a header not valid on this path.
    WriteInvalidHeader,
    /// A path terminates with neither a drop nor an egress assignment.
    NoVerdict,
    /// Path budget exhausted; verification is incomplete.
    PathBudgetExhausted,
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Category.
    pub kind: FindingKind,
    /// Human-readable description.
    pub detail: String,
    /// The path on which it occurred.
    pub path: String,
    /// A witness assignment (atom name → value), when the solver found one.
    pub witness: Vec<(String, u128)>,
}

/// The verification report for one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Program name.
    pub program: String,
    /// Feasible paths explored.
    pub paths_explored: usize,
    /// Findings (deduplicated by kind+detail).
    pub findings: Vec<Finding>,
    /// Number of feasible parser paths ending in `reject`.
    pub reject_paths: usize,
    /// True: on every explored reject path the packet is dropped. This is
    /// a property of the *specification*; hardware may still violate it.
    pub spec_reject_drops: bool,
}

impl VerifyReport {
    /// True if no findings of the given kind exist.
    pub fn clean_of(&self, kind: FindingKind) -> bool {
        !self.findings.iter().any(|f| f.kind == kind)
    }

    /// True if the program verified with no findings at all.
    pub fn verified(&self) -> bool {
        self.findings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;

    fn run(source: &str) -> VerifyReport {
        let ir = netdebug_p4::compile(source).unwrap();
        verify(&ir)
    }

    #[test]
    fn corpus_apps_verify_clean() {
        for prog in corpus::corpus() {
            let report = run(prog.source);
            // Enumerative exploration saturates on feature_many_tables
            // (12 tables × 3 outcomes each ≈ 500k paths); p4v avoids this
            // with monolithic SMT encodings. Saturation is reported, not
            // hidden — any *semantic* finding is still a failure here.
            let semantic: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.kind != FindingKind::PathBudgetExhausted)
                .collect();
            assert!(
                semantic.is_empty(),
                "{} expected clean, got {:#?}",
                prog.name,
                semantic
            );
            if prog.name != "feature_many_tables" {
                assert!(
                    report.verified(),
                    "{} unexpectedly saturated the path budget",
                    prog.name
                );
            }
            assert!(report.paths_explored > 0, "{}", prog.name);
        }
    }

    #[test]
    fn ipv4_forward_certified_with_reject_paths() {
        let report = run(corpus::IPV4_FORWARD);
        assert!(report.verified());
        assert!(report.reject_paths >= 1, "{}", report.reject_paths);
        assert!(report.spec_reject_drops);
    }

    #[test]
    fn detects_read_of_invalid_header() {
        // hdr.ipv4 is read without a validity guard on the non-IPv4 path.
        let report = run(include_str!("../tests/programs/read_invalid_header.p4"));
        assert!(!report.verified());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::ReadInvalidHeader && f.detail.contains("ipv4.ttl")),
            "{:#?}",
            report.findings
        );
    }

    #[test]
    fn guarded_read_is_clean() {
        let report = run(include_str!("../tests/programs/guarded_read.p4"));
        assert!(report.verified(), "{:#?}", report.findings);
    }

    #[test]
    fn detects_missing_verdict() {
        let report = run(include_str!("../tests/programs/missing_verdict.p4"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::NoVerdict));
        // The witness pins a concrete packet that exhibits the problem.
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::NoVerdict)
            .unwrap();
        assert!(
            f.witness.iter().any(|(name, v)| name == "h.x" && *v >= 128),
            "{:?}",
            f.witness
        );
    }

    #[test]
    fn infeasible_branches_are_pruned() {
        let report = run(include_str!("../tests/programs/infeasible_branch.p4"));
        // The x==1 && x==2 path is infeasible; without pruning it would be
        // reported as NoVerdict.
        assert!(
            report.verified(),
            "infeasible path not pruned: {:#?}",
            report.findings
        );
    }

    #[test]
    fn table_actions_all_explored() {
        // An action that writes an invalid header is only reachable through
        // a table hit — the "for all control planes" model must find it.
        let report = run(include_str!("../tests/programs/invalid_write_in_action.p4"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::WriteInvalidHeader));
    }

    #[test]
    fn table_keys_are_checked() {
        // The key read of `hdr.ipv4.dst` is a header read like any other.
        let report = run(include_str!("../tests/programs/unguarded_table_key.p4"));
        let f = &report.findings;
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].kind, FindingKind::ReadInvalidHeader);
        assert_eq!(f[0].detail, "read of ipv4.dst while `ipv4` is not valid");
        assert_eq!(f[0].path, "start -> select[accept]");
    }

    #[test]
    fn egress_spec_reads_back_what_was_written() {
        // The then-branch is infeasible, so its invalid read is not a
        // finding.
        let report = run(include_str!("../tests/programs/egress_spec_readback.p4"));
        assert!(report.verified(), "{:#?}", report.findings);
        assert_eq!(report.paths_explored, 1);
    }

    #[test]
    fn findings_name_the_first_path_in_program_order() {
        // Paths run in program order: hit(NoAction), hit(b), then the miss.
        // The read is reported once, on the first path that makes it.
        let report = run(include_str!("../tests/programs/two_paths_one_finding.p4"));
        let f = &report.findings;
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].path, "start -> t:hit(b)");
        assert_eq!(report.paths_explored, 3);
    }
}
