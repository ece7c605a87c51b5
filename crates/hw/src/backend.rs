//! Backend compilers: IR → deployable pipeline.
//!
//! Two backends exist, mirroring the paper's setup:
//!
//! * [`Backend::Reference`] — compiles faithfully, no limits beyond the
//!   FPGA resource budget. This is "what the spec says".
//! * [`Backend::SdnetSim`] — models the Xilinx SDNet toolchain of 2018:
//!   architecture limits produce *diagnosed* compile errors (the honest
//!   kind), while the profile's [`BugSpec`] list is applied **silently** —
//!   the compile succeeds and the deployed pipeline simply misbehaves.
//!   The default profile ships the paper's `RejectStateIgnored` bug.
//!
//! The distinction between *diagnosed limits* and *silent bugs* is the crux
//! of the paper's Figure 2: spec-level tools catch neither; an external
//! tester can stumble on some; NetDebug, testing from inside the device,
//! catches both and localises them.

use crate::bugs::{apply_ir_bugs, BugRuntime, BugSpec};
use crate::faults::FaultSpec;
use crate::resources::{self, ResourceReport, SUME_BUDGET};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::ir;
use serde::{Deserialize, Serialize};

/// Architecture limits enforced (with diagnostics) at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchLimits {
    /// Maximum parser states.
    pub max_parser_states: usize,
    /// Maximum table applies across all controls.
    pub max_stages: usize,
    /// Maximum total key width per table, bits.
    pub max_key_width: u16,
    /// Maximum entries per table (declared sizes are clamped).
    pub max_table_entries: u64,
    /// Whether the meter extern is available.
    pub supports_meters: bool,
    /// Whether the register extern is available.
    pub supports_registers: bool,
    /// Whether range patterns in parser selects are supported.
    pub supports_range_select: bool,
}

impl ArchLimits {
    /// No limits (reference backend).
    pub const UNLIMITED: ArchLimits = ArchLimits {
        max_parser_states: usize::MAX,
        max_stages: usize::MAX,
        max_key_width: u16::MAX,
        max_table_entries: u64::MAX,
        supports_meters: true,
        supports_registers: true,
        supports_range_select: true,
    };

    /// The SDNet-era limits used by the default simulated profile.
    pub const SDNET_2018: ArchLimits = ArchLimits {
        max_parser_states: 32,
        max_stages: 16,
        max_key_width: 64,
        max_table_entries: 65_536,
        supports_meters: false,
        supports_registers: true,
        supports_range_select: false,
    };
}

/// A named SDNet-sim configuration: limits plus silent bugs plus
/// crash-class faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdnetProfile {
    /// Profile name (appears in reports).
    pub name: String,
    /// Silent defects applied after a successful compile.
    pub bugs: Vec<BugSpec>,
    /// Diagnosed limits.
    pub limits: ArchLimits,
    /// Crash-class faults armed on every device deployed from this
    /// profile (composable with `bugs`: independent failure axes).
    pub faults: Vec<FaultSpec>,
}

/// A backend that can compile IR for the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Backend {
    /// Faithful reference compilation.
    Reference,
    /// The simulated SDNet toolchain.
    SdnetSim(SdnetProfile),
}

impl Backend {
    /// The reference backend.
    pub fn reference() -> Backend {
        Backend::Reference
    }

    /// The paper-era SDNet profile: 2018 limits **and the reject bug**.
    pub fn sdnet_2018() -> Backend {
        Backend::SdnetSim(SdnetProfile {
            name: "sdnet-2018".to_string(),
            bugs: vec![BugSpec::RejectStateIgnored],
            limits: ArchLimits::SDNET_2018,
            faults: vec![],
        })
    }

    /// A hypothetical fixed SDNet: same limits, no bugs (used by the
    /// comparison use-case as the "after the vendor patch" target).
    pub fn sdnet_fixed() -> Backend {
        Backend::SdnetSim(SdnetProfile {
            name: "sdnet-fixed".to_string(),
            bugs: vec![],
            limits: ArchLimits::SDNET_2018,
            faults: vec![],
        })
    }

    /// An SDNet profile with a custom bug list (fault-injection campaigns).
    pub fn sdnet_with_bugs(name: &str, bugs: Vec<BugSpec>) -> Backend {
        Backend::SdnetSim(SdnetProfile {
            name: name.to_string(),
            bugs,
            limits: ArchLimits::SDNET_2018,
            faults: vec![],
        })
    }

    /// An SDNet profile carrying both silent bugs and crash-class
    /// faults (robustness campaigns against a hostile device).
    pub fn sdnet_with_faults(name: &str, bugs: Vec<BugSpec>, faults: Vec<FaultSpec>) -> Backend {
        Backend::SdnetSim(SdnetProfile {
            name: name.to_string(),
            bugs,
            limits: ArchLimits::SDNET_2018,
            faults,
        })
    }

    /// Backend name for reports.
    pub fn name(&self) -> &str {
        match self {
            Backend::Reference => "reference",
            Backend::SdnetSim(p) => &p.name,
        }
    }

    /// The active limits.
    pub fn limits(&self) -> ArchLimits {
        match self {
            Backend::Reference => ArchLimits::UNLIMITED,
            Backend::SdnetSim(p) => p.limits,
        }
    }

    /// The silent bug list (empty for the reference).
    pub fn bugs(&self) -> &[BugSpec] {
        match self {
            Backend::Reference => &[],
            Backend::SdnetSim(p) => &p.bugs,
        }
    }

    /// The crash-class fault list (empty for the reference).
    pub fn faults(&self) -> &[FaultSpec] {
        match self {
            Backend::Reference => &[],
            Backend::SdnetSim(p) => &p.faults,
        }
    }

    /// Compile a program for this backend.
    ///
    /// Architecture violations return `Err` with one message per violation —
    /// these are the *diagnosed* failures the compiler-check use-case
    /// tabulates. Bugs are applied silently on success.
    pub fn compile(&self, program: &ir::Program) -> Result<Compiled, Vec<String>> {
        let limits = self.limits();
        let mut errors = Vec::new();

        if program.parser.states.len() > limits.max_parser_states {
            errors.push(format!(
                "parser has {} states, target supports {}",
                program.parser.states.len(),
                limits.max_parser_states
            ));
        }
        let stage_count = count_stages(program);
        if stage_count > limits.max_stages {
            errors.push(format!(
                "pipeline applies {} tables, target supports {} stages",
                stage_count, limits.max_stages
            ));
        }
        for table in &program.tables {
            let key_width: u32 = table.keys.iter().map(|k| u32::from(k.width)).sum();
            if key_width > u32::from(limits.max_key_width) {
                errors.push(format!(
                    "table `{}` key is {} bits wide, target supports {}",
                    table.name, key_width, limits.max_key_width
                ));
            }
        }
        for e in &program.externs {
            match e.kind {
                ir::ExternKindIr::Meter if !limits.supports_meters => {
                    errors.push(format!(
                        "meter `{}`: the meter extern is not supported by this target",
                        e.name
                    ));
                }
                ir::ExternKindIr::Register if !limits.supports_registers => {
                    errors.push(format!(
                        "register `{}`: the register extern is not supported by this target",
                        e.name
                    ));
                }
                _ => {}
            }
        }
        if !limits.supports_range_select {
            for state in &program.parser.states {
                if let ir::IrTransition::Select { arms, .. } = &state.transition {
                    if arms.iter().any(|a| {
                        a.patterns
                            .iter()
                            .any(|p| matches!(p, ir::IrPattern::Range { .. }))
                    }) {
                        errors.push(format!(
                            "parser state `{}` uses range select patterns, not supported by this target",
                            state.name
                        ));
                    }
                }
            }
        }

        // Resource budget check (both backends target the same board).
        let resources = resources::estimate(program);
        if !resources.fits(SUME_BUDGET) {
            errors.push(format!(
                "design does not fit the target: {} LUTs (budget {}), {} BRAM36 (budget {})",
                resources.total_luts(),
                SUME_BUDGET.luts,
                resources.total_bram36(),
                SUME_BUDGET.bram36
            ));
        }

        if !errors.is_empty() {
            return Err(errors);
        }

        // Silent bug application.
        let mut transformed = program.clone();
        apply_ir_bugs(&mut transformed, self.bugs());
        let runtime = BugRuntime::from_bugs(self.bugs());

        // Per-table capacities: declared size clamped by target and cut by
        // the capacity bug if active.
        let capacities: Vec<u64> = program
            .tables
            .iter()
            .map(|t| (t.size.min(limits.max_table_entries) / runtime.capacity_factor).max(1))
            .collect();

        let latency = LatencyModel::for_program(&transformed, runtime.extra_latency_cycles);

        Ok(Compiled {
            program: transformed,
            source_program: program.clone(),
            capacities,
            runtime,
            resources,
            latency,
            backend_name: self.name().to_string(),
            faults: self.faults().to_vec(),
        })
    }
}

fn count_stages(program: &ir::Program) -> usize {
    fn walk(body: &[ir::IrStmt]) -> usize {
        body.iter()
            .map(|s| match s {
                ir::IrStmt::ApplyTable { .. } => 1,
                ir::IrStmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => walk(then_branch) + walk(else_branch),
                _ => 0,
            })
            .sum()
    }
    program.controls.iter().map(|c| walk(&c.body)).sum()
}

/// A successfully compiled pipeline, ready to load into a device.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The (possibly bug-transformed) program the hardware will execute.
    pub program: ir::Program,
    /// The program as written — kept for reports; the device never runs it.
    pub source_program: ir::Program,
    /// Effective per-table capacities.
    pub capacities: Vec<u64>,
    /// Runtime bug behaviour flags.
    pub runtime: BugRuntime,
    /// Resource estimate (of the source design).
    pub resources: ResourceReport,
    /// Latency model for the deployed pipeline.
    pub latency: LatencyModel,
    /// Which backend produced this.
    pub backend_name: String,
    /// Crash-class faults to arm on the deployed device.
    pub faults: Vec<FaultSpec>,
}

/// Cycle-level latency model (200 MHz core clock, 64-bit datapath).
///
/// Costs: 1 cycle per parser state plus `ceil(extracted_bits/64)`;
/// exact table 2 cycles, LPM 4, ternary/range 3; 1 cycle per action;
/// deparse `ceil(emitted_bits/64)`; plus any bug-injected extra.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// `(name, cost)` of each parser state, indexed by IR state id — the
    /// id trace records carry, so the device charges a packet by index.
    pub state_cycles: Vec<(String, u64)>,
    /// `(name, cost)` of each table, indexed by IR table id.
    pub table_cycles: Vec<(String, u64)>,
    /// Deparser cost (worst case: all headers valid).
    pub deparse_cycles: u64,
    /// Fixed per-packet overhead (ingress arbitration + egress queue).
    pub fixed_cycles: u64,
    /// Bug-injected extra cycles.
    pub extra_cycles: u64,
    /// Pipeline initiation interval: cycles between packet starts.
    pub initiation_interval: u64,
}

impl LatencyModel {
    /// Derive the model from a program.
    pub fn for_program(program: &ir::Program, extra_cycles: u64) -> Self {
        let mut state_cycles = Vec::with_capacity(program.parser.states.len());
        let mut max_state_cost = 1u64;
        for state in &program.parser.states {
            let extracted: u64 = state
                .ops
                .iter()
                .map(|op| match op {
                    ir::ParserOp::Extract(h) => u64::from(program.headers[*h].bit_width),
                    _ => 0,
                })
                .sum();
            let cost = 1 + extracted.div_ceil(64);
            max_state_cost = max_state_cost.max(cost);
            state_cycles.push((state.name.clone(), cost));
        }
        let mut table_cycles = Vec::with_capacity(program.tables.len());
        for table in &program.tables {
            let is_tcam = table
                .keys
                .iter()
                .any(|k| matches!(k.kind, MatchKind::Ternary | MatchKind::Range));
            let is_lpm = table.keys.iter().any(|k| matches!(k.kind, MatchKind::Lpm));
            let cost = if is_lpm {
                4
            } else if is_tcam {
                3
            } else {
                2
            } + 1; // +1 for the action
            table_cycles.push((table.name.clone(), cost));
        }
        let emitted_bits: u64 = program
            .deparse
            .iter()
            .map(|&h| u64::from(program.headers[h].bit_width))
            .sum();
        let deparse_cycles = emitted_bits.div_ceil(64).max(1);

        LatencyModel {
            state_cycles,
            table_cycles,
            deparse_cycles,
            fixed_cycles: 6,
            extra_cycles,
            initiation_interval: max_state_cost,
        }
    }

    /// Latency of a packet that visited no parser state and no table:
    /// what every packet pays before its per-stage costs.
    pub fn base_cycles(&self) -> u64 {
        self.fixed_cycles + self.deparse_cycles + self.extra_cycles
    }

    /// Latency of a packet that visited the given states and tables, by
    /// name (unknown names cost 1 and 2 cycles). The device charges by id
    /// as it walks the trace; this is the by-name statement of the same
    /// model that its parity test recomputes from decoded traces.
    pub fn packet_cycles(&self, states: &[&str], tables: &[&str]) -> u64 {
        let cost = |costs: &[(String, u64)], name: &str, unknown: u64| {
            let known = costs.iter().find(|(n, _)| n == name);
            known.map_or(unknown, |&(_, cycles)| cycles)
        };
        let parse: u64 = states.iter().map(|s| cost(&self.state_cycles, s, 1)).sum();
        let match_action: u64 = tables.iter().map(|t| cost(&self.table_cycles, t, 2)).sum();
        self.base_cycles() + parse + match_action
    }

    /// Peak packets per second the pipeline sustains at `clock_hz`.
    pub fn peak_pps(&self, clock_hz: f64) -> f64 {
        clock_hz / self.initiation_interval as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;

    #[test]
    fn reference_compiles_everything() {
        for prog in corpus::corpus() {
            let ir = netdebug_p4::compile(prog.source).unwrap();
            let compiled = Backend::reference().compile(&ir);
            assert!(compiled.is_ok(), "{}: {:?}", prog.name, compiled.err());
        }
    }

    #[test]
    fn sdnet_rejects_meters_ranges_and_wide_keys() {
        let backend = Backend::sdnet_2018();
        let outcomes: Vec<(&str, bool, String)> = corpus::corpus()
            .iter()
            .map(|p| {
                let ir = netdebug_p4::compile(p.source).unwrap();
                match backend.compile(&ir) {
                    Ok(_) => (p.name, true, String::new()),
                    Err(es) => (p.name, false, es.join("; ")),
                }
            })
            .collect();
        let get = |name: &str| outcomes.iter().find(|(n, _, _)| *n == name).unwrap();
        // Diagnosed limitations.
        assert!(!get("rate_limiter").1, "meters unsupported");
        assert!(get("rate_limiter").2.contains("meter"));
        assert!(!get("feature_stateful").1);
        assert!(!get("feature_wide_key").1, "128-bit ternary key too wide");
        assert!(get("feature_wide_key").2.contains("bits wide"));
        assert!(!get("feature_range_select").1, "range select unsupported");
        // The reject program COMPILES FINE — the bug is silent. That is the
        // paper's whole point.
        assert!(get("feature_reject").1);
        assert!(get("ipv4_forward").1);
        assert!(get("l2_switch").1);
    }

    #[test]
    fn sdnet_compile_applies_reject_bug_silently() {
        let ir = netdebug_p4::compile(corpus::FEATURE_REJECT).unwrap();
        let compiled = Backend::sdnet_2018().compile(&ir).unwrap();
        // Transformed program has no reject edges left…
        let any_reject = compiled.program.parser.states.iter().any(|s| {
            matches!(s.transition, ir::IrTransition::Reject)
                || matches!(&s.transition, ir::IrTransition::Select { arms, default, .. }
                    if arms.iter().any(|a| matches!(a.target, ir::TransTarget::Reject))
                        || matches!(default, ir::TransTarget::Reject))
        });
        assert!(!any_reject, "bug must remove reject edges");
        // …while the source program still shows them (what the user wrote).
        let source_reject = compiled.source_program.parser.states.iter().any(|s| {
            matches!(&s.transition, ir::IrTransition::Select { arms, .. }
                if arms.iter().any(|a| matches!(a.target, ir::TransTarget::Reject)))
        });
        assert!(source_reject);
    }

    #[test]
    fn capacity_clamping() {
        let src = corpus::IPV4_FORWARD.replace("size = 1024;", "size = 100000;");
        let ir = netdebug_p4::compile(&src).unwrap();
        let compiled = Backend::sdnet_2018().compile(&ir).unwrap();
        assert_eq!(compiled.capacities[0], 65_536, "clamped to target max");

        let bugged =
            Backend::sdnet_with_bugs("trunc", vec![BugSpec::TableCapacityTruncated { factor: 4 }]);
        let compiled = bugged.compile(&ir).unwrap();
        assert_eq!(compiled.capacities[0], 65_536 / 4);
    }

    #[test]
    fn latency_model_costs() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let compiled = Backend::reference().compile(&ir).unwrap();
        let m = &compiled.latency;
        // start extracts ethernet (112 bits -> 2 flits): 1 + 2 = 3 cycles.
        assert_eq!(m.state_cycles[0], ("start".to_string(), 3));
        // parse_ipv4 extracts 160 bits -> 3 flits: 4 cycles.
        assert_eq!(m.state_cycles[1], ("parse_ipv4".to_string(), 4));
        // LPM table: 4 + 1 action.
        assert_eq!(m.table_cycles[0], ("ipv4_lpm".to_string(), 5));
        let lat = m.packet_cycles(&["start", "parse_ipv4"], &["ipv4_lpm"]);
        assert_eq!(lat, 6 + 3 + 4 + 5 + m.deparse_cycles);
        // 200 MHz, II = 4 (parse_ipv4 dominates) -> 50 Mpps.
        assert!((m.peak_pps(200e6) - 50e6).abs() < 1.0);
    }

    #[test]
    fn extra_latency_bug_reflected() {
        let ir = netdebug_p4::compile(corpus::REFLECTOR).unwrap();
        let plain = Backend::reference().compile(&ir).unwrap();
        let slow = Backend::sdnet_with_bugs("slow", vec![BugSpec::ExtraLatency { cycles: 100 }])
            .compile(&ir)
            .unwrap();
        let a = plain.latency.packet_cycles(&["start"], &[]);
        let b = slow.latency.packet_cycles(&["start"], &[]);
        assert_eq!(b, a + 100);
    }

    #[test]
    fn oversized_design_diagnosed() {
        // A ternary table with 65k entries × 96-bit key ≈ 50M LUTs: way over.
        let src = corpus::ACL_FIREWALL.replace("size = 512;", "size = 65536;");
        let ir = netdebug_p4::compile(&src).unwrap();
        let err = Backend::reference().compile(&ir).unwrap_err();
        assert!(err.iter().any(|e| e.contains("does not fit")), "{err:?}");
    }
}
