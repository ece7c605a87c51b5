//! Pins the verifier's whole report — findings, witnesses, paths, reject
//! paths, saturation — on the 17 corpus programs and the five programs
//! under `tests/programs/`, byte for byte against `tests/golden.txt`.
//!
//! Any change to path order, atom numbering, feasibility checks or finding
//! text shows up here. The file was written by the verifier's own symbolic
//! executor, before the explorer ran on the shared IR walker, so it pins
//! that the walker changed no report. After an intended change to a
//! report, write `dump()`'s output to it.

use netdebug_verify::verify;

const PROGRAMS: [(&str, &str); 5] = [
    (
        "read_invalid_header",
        include_str!("programs/read_invalid_header.p4"),
    ),
    ("guarded_read", include_str!("programs/guarded_read.p4")),
    (
        "missing_verdict",
        include_str!("programs/missing_verdict.p4"),
    ),
    (
        "infeasible_branch",
        include_str!("programs/infeasible_branch.p4"),
    ),
    (
        "invalid_write_in_action",
        include_str!("programs/invalid_write_in_action.p4"),
    ),
];

fn dump() -> String {
    let corpus = netdebug_p4::corpus::corpus();
    let all = corpus.iter().map(|p| (p.name, p.source)).chain(PROGRAMS);
    let mut out = String::new();
    for (name, source) in all {
        let ir = netdebug_p4::compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = verify(&ir);
        out.push_str(&format!("=== {name} ===\n{report:#?}\n"));
    }
    out
}

#[test]
fn reports_match_golden() {
    let golden = include_str!("golden.txt");
    let actual = dump();
    // Program by program first, so a failure shows the report that moved.
    for (want, got) in golden.split("=== ").zip(actual.split("=== ")) {
        assert_eq!(want, got, "report differs from tests/golden.txt");
    }
    assert_eq!(golden, actual, "program list differs from tests/golden.txt");
}
