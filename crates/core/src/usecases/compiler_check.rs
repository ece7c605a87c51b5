//! Compiler check use-case (§3, third bullet): "finding limitations in the
//! compiler".
//!
//! Two failure classes exist and NetDebug distinguishes them:
//!
//! * **Diagnosed limitations** — the backend refuses the program with an
//!   error (no meters, key too wide, …). Any toolchain user sees these.
//! * **Silent mis-compilations** — the compile succeeds but the deployed
//!   pipeline diverges from the spec. These are found by *differential
//!   testing*: compile the same program for the reference and the target,
//!   steer probe packets down every parser path, and diff behaviour and
//!   stage coverage. The SDNet reject bug is exactly such a finding.

use crate::differential::{diff_observations, observe_probes, Observation};
use crate::probes::{parser_path_probes, Probe};
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus::CorpusProgram;
use netdebug_p4::ir::Program;
use serde::{Deserialize, Serialize};

/// Conformance verdict for one (program, backend) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Conformance {
    /// Compiles and behaves identically to the reference on all probes.
    Pass,
    /// The backend refused the program, with diagnostics.
    Diagnosed(Vec<String>),
    /// Compiles, but behaviour diverges from the reference — a silent
    /// compiler bug, with the first divergence as evidence.
    SilentDivergence {
        /// Number of diverging probes.
        diverging_probes: usize,
        /// Description of the first divergence.
        first: String,
    },
    /// The program itself failed to compile on the *reference* (spec-level
    /// error; not a backend issue).
    Invalid(String),
}

impl Conformance {
    /// Short cell text for matrix rendering.
    pub fn cell(&self) -> String {
        match self {
            Conformance::Pass => "pass".to_string(),
            Conformance::Diagnosed(es) => format!("diagnosed({})", es.len()),
            Conformance::SilentDivergence {
                diverging_probes, ..
            } => format!("SILENT-BUG({diverging_probes})"),
            Conformance::Invalid(_) => "invalid".to_string(),
        }
    }
}

/// One row of the conformance matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformanceRow {
    /// Program name.
    pub program: String,
    /// Backend name.
    pub backend: String,
    /// Verdict.
    pub conformance: Conformance,
}

/// The full compiler-check report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilerCheckReport {
    /// One row per (program, backend).
    pub rows: Vec<ConformanceRow>,
}

impl CompilerCheckReport {
    /// All rows with silent divergences.
    pub fn silent_bugs(&self) -> Vec<&ConformanceRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.conformance, Conformance::SilentDivergence { .. }))
            .collect()
    }
}

impl core::fmt::Display for CompilerCheckReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{:<24} {:<14} verdict", "program", "backend")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<24} {:<14} {}",
                row.program,
                row.backend,
                row.conformance.cell()
            )?;
        }
        Ok(())
    }
}

/// A program ready for checking: compiled, probed, and the reference
/// deployed and observed — once, however many backends follow. The outer
/// `Err` is a source that does not compile, the inner one a reference that
/// does not deploy.
type Reference = Result<(Program, Vec<Probe>, Result<Vec<Observation>, String>), String>;

fn observe_reference(source: &str) -> Reference {
    let ir = netdebug_p4::compile(source).map_err(|e| e.to_string())?;
    let probes = parser_path_probes(&ir);
    let observed = Device::deploy(&Backend::reference(), &ir)
        .map(|mut dev| observe_probes(&mut dev, &probes))
        .map_err(|e| e.to_string());
    Ok((ir, probes, observed))
}

/// One deployment (its diagnostics are the `Diagnosed` verdict) and one
/// diff against the reference's observations.
fn check_against(reference: &Reference, name: &str, backend: &Backend) -> ConformanceRow {
    let conformance = match reference {
        Err(e) => Conformance::Invalid(e.clone()),
        Ok((ir, probes, observed)) => match (Device::deploy(backend, ir), observed) {
            (Err(e), _) => Conformance::Diagnosed(e.messages),
            (Ok(_), Err(e)) => Conformance::Invalid(e.clone()),
            (Ok(mut target), Ok(observed)) => {
                let seen = observe_probes(&mut target, probes);
                let diff = diff_observations(observed, &seen, probes);
                match diff.divergences.first() {
                    None => Conformance::Pass,
                    Some(first) => Conformance::SilentDivergence {
                        diverging_probes: diff.divergences.len(),
                        first: format!("{} (probe path: {})", first.detail, first.probe_path),
                    },
                }
            }
        },
    };
    ConformanceRow {
        program: name.to_string(),
        backend: backend.name().to_string(),
        conformance,
    }
}

/// Check one program against one backend.
pub fn check_program(source: &str, name: &str, backend: &Backend) -> ConformanceRow {
    check_against(&observe_reference(source), name, backend)
}

/// Check a corpus of programs against several backends.
pub fn check_corpus(programs: &[CorpusProgram], backends: &[Backend]) -> CompilerCheckReport {
    let mut rows = Vec::new();
    for program in programs {
        let reference = observe_reference(program.source);
        rows.extend(
            backends
                .iter()
                .map(|b| check_against(&reference, program.name, b)),
        );
    }
    CompilerCheckReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;

    #[test]
    fn reference_passes_everything() {
        let report = check_corpus(&corpus::corpus(), &[Backend::reference()]);
        for row in &report.rows {
            assert_eq!(row.conformance, Conformance::Pass, "{}", row.program);
        }
    }

    #[test]
    fn sdnet_2018_matrix_matches_the_paper() {
        let report = check_corpus(&corpus::corpus(), &[Backend::sdnet_2018()]);
        let get = |name: &str| {
            &report
                .rows
                .iter()
                .find(|r| r.program == name)
                .unwrap()
                .conformance
        };
        // Silent mis-compilation of reject — the paper's finding.
        assert!(
            matches!(get("feature_reject"), Conformance::SilentDivergence { .. }),
            "{:?}",
            get("feature_reject")
        );
        assert!(matches!(
            get("ipv4_forward"),
            Conformance::SilentDivergence { .. }
        ));
        // Diagnosed limitations.
        assert!(matches!(get("rate_limiter"), Conformance::Diagnosed(_)));
        assert!(matches!(get("feature_wide_key"), Conformance::Diagnosed(_)));
        assert!(matches!(
            get("feature_range_select"),
            Conformance::Diagnosed(_)
        ));
        // Programs with no reject path and no unsupported features pass.
        assert_eq!(*get("l2_switch"), Conformance::Pass);
        assert_eq!(*get("reflector"), Conformance::Pass);

        assert!(!report.silent_bugs().is_empty());
        let text = report.to_string();
        assert!(text.contains("SILENT-BUG"));
    }

    #[test]
    fn fixed_sdnet_clears_the_silent_bugs() {
        let report = check_corpus(&corpus::corpus(), &[Backend::sdnet_fixed()]);
        assert!(
            report.silent_bugs().is_empty(),
            "{:#?}",
            report.silent_bugs()
        );
        // Architecture limits remain diagnosed.
        assert!(report
            .rows
            .iter()
            .any(|r| matches!(r.conformance, Conformance::Diagnosed(_))));
    }

    #[test]
    fn observing_the_reference_once_changes_no_row() {
        // The whole matrix against the 51-call loop that deploys a fresh
        // reference per (program, backend) — the stateful programs
        // (flow_counter, rate_limiter, feature_stateful) included, where a
        // probe that left state behind would make the two differ.
        let backends = [
            Backend::reference(),
            Backend::sdnet_2018(),
            Backend::sdnet_fixed(),
        ];
        let programs = corpus::corpus();
        let report = check_corpus(&programs, &backends);
        let looped: Vec<ConformanceRow> = programs
            .iter()
            .flat_map(|p| backends.iter().map(|b| check_program(p.source, p.name, b)))
            .collect();
        assert_eq!(looped.len(), 51);
        assert_eq!(report.rows, looped);
        assert_eq!(report.silent_bugs().len(), 4);
    }

    #[test]
    fn first_divergence_names_the_reject_path() {
        let row = check_program(
            corpus::FEATURE_REJECT,
            "feature_reject",
            &Backend::sdnet_2018(),
        );
        match row.conformance {
            Conformance::SilentDivergence { first, .. } => {
                assert!(first.contains("reject"), "{first}");
            }
            other => panic!("{other:?}"),
        }
    }
}
