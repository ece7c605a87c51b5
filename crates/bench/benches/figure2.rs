//! Experiment F2 — regenerates the paper's Figure 2 (use-case coverage by
//! tool). Every cell is measured by capability probes; see
//! `netdebug::usecases::coverage`.

use netdebug::usecases::coverage::figure2;
use netdebug_bench::banner;

fn main() {
    banner("F2: Figure 2 — use-case coverage matrix (measured)");
    let start = std::time::Instant::now();
    let matrix = figure2();
    println!("{matrix}");
    println!("probes per row:");
    for row in &matrix.rows {
        println!("  {:<26} {}", row.use_case, row.probes.join(" | "));
    }
    println!("\nmatrix measured in {:.2?}", start.elapsed());
    println!("expected shape: netdebug full everywhere; verifier partial on");
    println!("functional+comparison; external tester partial on behavioural");
    println!("rows, none on resources/status — matches the paper.");
}
