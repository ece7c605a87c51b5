//! Architecture check use-case (§3, fourth bullet): "finding limitations in
//! the architecture".
//!
//! Sweeps generated P4 programs along one architectural dimension at a time
//! (parser depth, pipeline stages, key width) until the target refuses
//! them, and probes *runtime* limits the compiler never mentions: a table
//! whose declared size exceeds what the hardware actually holds is found by
//! installing entries until the device says "full" — which is how NetDebug
//! exposes the silent `TableCapacityTruncated` defect.

use netdebug_dataplane::{TableEntry, Update};
use netdebug_hw::{Backend, Device};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One probed architectural dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchFinding {
    /// Dimension name.
    pub dimension: String,
    /// Largest value that worked.
    pub supported: u64,
    /// First value that failed (None if everything probed worked).
    pub first_failure: Option<u64>,
    /// Diagnostic the backend gave at the failure, if any. A failure
    /// *without* a diagnostic is a silent limitation.
    pub diagnostic: Option<String>,
}

/// The architecture report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchReport {
    /// Backend probed.
    pub backend: String,
    /// Findings per dimension.
    pub findings: Vec<ArchFinding>,
}

impl core::fmt::Display for ArchReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "architecture limits of `{}`:", self.backend)?;
        for finding in &self.findings {
            writeln!(
                f,
                "  {:<22} supported={:<8} first-failure={}",
                finding.dimension,
                finding.supported,
                match finding.first_failure {
                    Some(v) => v.to_string(),
                    None => "-".to_string(),
                }
            )?;
        }
        Ok(())
    }
}

/// Generate a program with an `n`-state parser chain.
pub fn program_with_parser_depth(n: usize) -> String {
    let mut src = String::from("header seg_t { bit<8> next; bit<8> val; }\n");
    src.push_str("struct headers_t {");
    for i in 0..n {
        let _ = write!(src, " seg_t s{i};");
    }
    src.push_str(" }\nstruct meta_t { bit<1> u; }\n");
    src.push_str(
        "parser P(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t std) {\n",
    );
    for i in 0..n {
        let state = if i == 0 {
            "start".to_string()
        } else {
            format!("p{i}")
        };
        let _ = write!(src, "state {state} {{ pkt.extract(hdr.s{i}); ");
        if i + 1 < n {
            let _ = writeln!(
                src,
                "transition select(hdr.s{i}.next) {{ 1: p{}; default: accept; }} }}",
                i + 1
            );
        } else {
            src.push_str("transition accept; }\n");
        }
    }
    src.push_str("}\n");
    src.push_str(
        "control I(inout headers_t hdr, inout meta_t m, inout standard_metadata_t std) { apply { std.egress_spec = 1; } }\n",
    );
    src.push_str("control D(packet_out pkt, in headers_t hdr) { apply {");
    for i in 0..n {
        let _ = write!(src, " pkt.emit(hdr.s{i});");
    }
    src.push_str(" } }\n");
    src
}

/// Generate a program applying `n` tables in sequence.
pub fn program_with_stages(n: usize) -> String {
    let mut src = String::from(
        "header byte_t { bit<8> v; }\nstruct headers_t { byte_t b; }\nstruct meta_t { bit<8> acc; }\n",
    );
    src.push_str(
        "parser P(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t std) { state start { pkt.extract(hdr.b); transition accept; } }\n",
    );
    src.push_str(
        "control I(inout headers_t hdr, inout meta_t m, inout standard_metadata_t std) {\n",
    );
    src.push_str("action bump() { m.acc = m.acc + 1; }\n");
    for i in 0..n {
        let _ = writeln!(
            src,
            "table t{i} {{ key = {{ hdr.b.v: exact; }} actions = {{ bump; }} default_action = bump(); }}"
        );
    }
    src.push_str("apply {");
    for i in 0..n {
        let _ = write!(src, " t{i}.apply();");
    }
    src.push_str(" std.egress_spec = 1; } }\n");
    src.push_str("control D(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.b); } }\n");
    src
}

/// Generate a program with one `w`-bit ternary key.
pub fn program_with_key_width(w: u16) -> String {
    format!(
        r#"
        header wide_t {{ bit<{w}> big; }}
        struct headers_t {{ wide_t w; }}
        struct meta_t {{ bit<1> u; }}
        parser P(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t std) {{
            state start {{ pkt.extract(hdr.w); transition accept; }}
        }}
        control I(inout headers_t hdr, inout meta_t m, inout standard_metadata_t std) {{
            action drop() {{ mark_to_drop(); }}
            action fwd(bit<9> p) {{ std.egress_spec = p; }}
            table t {{ key = {{ hdr.w.big: ternary; }} actions = {{ fwd; drop; }} size = 16; default_action = drop(); }}
            apply {{ t.apply(); }}
        }}
        control D(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.w); }} }}
        "#
    )
}

fn sweep_dimension(
    backend: &Backend,
    name: &str,
    values: &[u64],
    source_for: impl Fn(u64) -> String,
) -> ArchFinding {
    let mut supported = 0u64;
    for &v in values {
        let src = source_for(v);
        let ir = netdebug_p4::compile(&src).expect("generated programs are valid");
        match backend.compile(&ir) {
            Ok(_) => supported = v,
            Err(diags) => {
                return ArchFinding {
                    dimension: name.to_string(),
                    supported,
                    first_failure: Some(v),
                    diagnostic: diags.first().cloned(),
                }
            }
        }
    }
    ArchFinding {
        dimension: name.to_string(),
        supported,
        first_failure: None,
        diagnostic: None,
    }
}

/// Probe the *effective* capacity of a deployed table by installing entries
/// until the device refuses. Declared vs effective mismatch = silent limit.
pub fn probe_table_capacity(backend: &Backend, declared: u64) -> (u64, u64) {
    let src = format!(
        r#"
        header byte_t {{ bit<8> v; }}
        struct headers_t {{ byte_t b; }}
        struct meta_t {{ bit<1> u; }}
        parser P(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t std) {{
            state start {{ pkt.extract(hdr.b); transition accept; }}
        }}
        control I(inout headers_t hdr, inout meta_t m, inout standard_metadata_t std) {{
            action drop() {{ mark_to_drop(); }}
            action fwd(bit<9> p) {{ std.egress_spec = p; }}
            table cap {{ key = {{ hdr.b.v: exact; }} actions = {{ fwd; drop; }} size = {declared}; default_action = drop(); }}
            apply {{ cap.apply(); }}
        }}
        control D(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.b); }} }}
        "#
    );
    let mut dev = Device::deploy_source(backend, &src).expect("capacity program compiles");
    let mut installed = 0u64;
    for key in 0..declared {
        let entry = TableEntry::exact([key as u128], "fwd", vec![1]);
        match dev.write(&[Update::Insert("cap", entry)]) {
            Ok(_) => installed += 1,
            Err(_) => break,
        }
    }
    (declared, installed)
}

/// Probe all dimensions of a backend.
pub fn probe_limits(backend: &Backend) -> ArchReport {
    let findings = vec![
        sweep_dimension(backend, "parser-states", &[2, 4, 8, 16, 32, 48, 64], |n| {
            program_with_parser_depth(n as usize)
        }),
        sweep_dimension(backend, "pipeline-stages", &[2, 4, 8, 16, 24, 32], |n| {
            program_with_stages(n as usize)
        }),
        sweep_dimension(backend, "key-width-bits", &[16, 32, 64, 96, 128], |w| {
            program_with_key_width(w as u16)
        }),
    ];
    ArchReport {
        backend: backend.name().to_string(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_hw::BugSpec;

    #[test]
    fn reference_has_no_probed_limits() {
        let report = probe_limits(&Backend::reference());
        for f in &report.findings {
            assert!(f.first_failure.is_none(), "{f:?}");
        }
    }

    #[test]
    fn sdnet_limits_located_with_diagnostics() {
        let report = probe_limits(&Backend::sdnet_2018());
        let get = |name: &str| {
            report
                .findings
                .iter()
                .find(|f| f.dimension == name)
                .unwrap()
        };
        // 32 parser states supported; 48 fails.
        let ps = get("parser-states");
        assert_eq!(ps.supported, 32);
        assert_eq!(ps.first_failure, Some(48));
        assert!(ps.diagnostic.as_deref().unwrap().contains("parser"));
        // 16 stages; 24 fails.
        let st = get("pipeline-stages");
        assert_eq!(st.supported, 16);
        assert_eq!(st.first_failure, Some(24));
        // 64-bit keys; 96 fails.
        let kw = get("key-width-bits");
        assert_eq!(kw.supported, 64);
        assert_eq!(kw.first_failure, Some(96));
        let text = report.to_string();
        assert!(text.contains("parser-states"));
    }

    #[test]
    fn declared_capacity_honoured_on_reference() {
        let (declared, effective) = probe_table_capacity(&Backend::reference(), 128);
        assert_eq!(declared, effective);
    }

    #[test]
    fn capacity_truncation_bug_found_at_runtime() {
        // The compile is silent; only installing entries reveals that the
        // table holds a quarter of what was declared.
        let backend = Backend::sdnet_with_bugs(
            "cap-bug",
            vec![BugSpec::TableCapacityTruncated { factor: 4 }],
        );
        let (declared, effective) = probe_table_capacity(&backend, 128);
        assert_eq!(declared, 128);
        assert_eq!(effective, 32, "silent truncation exposed by probing");
    }

    #[test]
    fn generated_programs_compile() {
        for n in [1usize, 3, 10] {
            assert!(netdebug_p4::compile(&program_with_parser_depth(n)).is_ok());
            assert!(netdebug_p4::compile(&program_with_stages(n)).is_ok());
        }
        for w in [8u16, 64, 128] {
            assert!(netdebug_p4::compile(&program_with_key_width(w)).is_ok());
        }
    }
}
