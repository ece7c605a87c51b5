//! Experiment E1 — the §4 case study: detection of the SDNet reject-state
//! bug. Reports, for each tool, whether the bug is found, after how many
//! packets, and with what localisation — plus detection wall-time.

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::localize::localize;
use netdebug::session::NetDebug;
use netdebug_bench::{banner, malformed_frame, router_device};
use netdebug_hw::Backend;
use netdebug_p4::corpus;
use netdebug_tester::{check_forwarding, ExternalView};
use netdebug_verify::verify;

fn main() {
    banner("E1: the SDNet reject-state bug (paper §4)");
    let malformed = malformed_frame();

    // Tool 1: spec-level formal verification.
    let t0 = std::time::Instant::now();
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let vreport = verify(&ir);
    let verifier_time = t0.elapsed();
    println!(
        "{:<18} detected={:<5} packets=-    localisation=-            ({} paths, {:.2?})",
        "formal-verif",
        !vreport.verified(), // false: the spec is correct
        vreport.paths_explored,
        verifier_time,
    );

    // Tool 2: external tester.
    let t0 = std::time::Instant::now();
    let mut dev = router_device(&Backend::sdnet_2018());
    let detected_ext = {
        let mut view = ExternalView::attach(&mut dev);
        check_forwarding(&mut view, 0, &malformed, None).is_err()
    };
    let ext_time = t0.elapsed();
    println!(
        "{:<18} detected={:<5} packets=1    localisation=none         ({:.2?})",
        "external-tester", detected_ext, ext_time
    );

    // Tool 3: NetDebug.
    let t0 = std::time::Instant::now();
    let mut nd = NetDebug::new(router_device(&Backend::sdnet_2018()));
    let report = nd.run_session(&[StreamSpec {
        stream: 1,
        template: malformed.clone(),
        count: 1,
        rate_pps: None,
        as_port: 0,
        sweeps: vec![],
        expect: Expectation::Drop,
    }]);
    let loc = localize(nd.device_mut(), 0, &malformed);
    let nd_time = t0.elapsed();
    println!(
        "{:<18} detected={:<5} packets=1    localisation={:<12} ({:.2?})",
        "netdebug",
        !report.passed,
        if loc.forwarded { "egress(!)" } else { "parser" },
        nd_time
    );

    // Ground truth contrast.
    let mut reference = router_device(&Backend::reference());
    let ref_loc = localize(&mut reference, 0, &malformed);
    println!("\nreference localisation of the same packet: {ref_loc}");
    println!("buggy     localisation of the same packet: {loc}");

    println!("\nshape check (paper): the verifier PASSES the program (bug is in");
    println!("the toolchain); both testers see it; only NetDebug places it.");
    assert!(vreport.verified());
    assert!(detected_ext);
    assert!(!report.passed);
}
