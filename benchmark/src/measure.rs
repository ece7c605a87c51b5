//! Estimators, the span recorder and the result printer.

use crate::alloc;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// `p`-th quantile (0..=1) of a sorted sample, linearly interpolated.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a quantile needs a sample");
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} [q1 {:.6}, q3 {:.6}] n={}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// One benchmark-side span around a call into a layer. `parent` is the
/// layer the call is peeled out of; spans of one round share `unit`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The part of the span spent inside the timed call itself.
    pub busy_ns: u64,
}

/// Spans are kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// What the passes over one layer measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Median timed nanoseconds of a pass.
    pub ns: f64,
    /// Allocations inside the timed sections of one pass (exact; the last
    /// pass).
    pub allocs: u64,
}

/// One layer's pass: the layer it is peeled out of (`parent`) and the
/// code that runs it once.
pub struct Pass<'a> {
    pub name: &'static str,
    pub parent: &'static str,
    pub run: Box<dyn FnMut(&mut Stopwatch) + 'a>,
}

/// Accumulates the timed sections of one pass; whatever a pass does
/// outside `time` (building inputs, cloning devices, dropping results)
/// is not the layer's.
#[derive(Debug, Default)]
pub struct Stopwatch {
    ns: f64,
    allocs: u64,
}

impl Stopwatch {
    pub fn time<R>(&mut self, section: impl FnOnce() -> R) -> R {
        let allocs_before = alloc::allocs();
        let start = Instant::now();
        let out = section();
        self.ns += start.elapsed().as_nanos() as f64;
        self.allocs += alloc::allocs() - allocs_before;
        out
    }

    /// What the sections timed so far add up to.
    pub fn layer(&self) -> Layer {
        Layer {
            ns: self.ns,
            allocs: self.allocs,
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run the passes round-robin — one pass of each per round — until
    /// `budget` is spent or `MAX_ROUNDS` are in (at least one, after one
    /// unrecorded warm-up round), a span around each pass. Interleaving
    /// makes machine drift hit every layer alike, so layers measured in
    /// one call can be subtracted from and summed against each other.
    pub fn interleaved(&mut self, budget: Duration, passes: &mut [Pass<'_>]) -> Vec<Layer> {
        /// Bounds the span file when a round is only milliseconds long.
        const MAX_ROUNDS: usize = 2000;
        for pass in passes.iter_mut() {
            (pass.run)(&mut Stopwatch::default());
        }
        let deadline = Instant::now() + budget;
        let mut ns = vec![Vec::new(); passes.len()];
        let mut last = vec![Layer::default(); passes.len()];
        for round in 0..MAX_ROUNDS {
            for (i, pass) in passes.iter_mut().enumerate() {
                let mut watch = Stopwatch::default();
                let start = Instant::now();
                (pass.run)(&mut watch);
                let end = Instant::now();
                self.spans.push(Span {
                    name: pass.name,
                    parent: pass.parent,
                    unit: round as u32,
                    start_ns: (start - self.origin).as_nanos() as u64,
                    end_ns: (end - self.origin).as_nanos() as u64,
                    busy_ns: watch.ns as u64,
                });
                ns[i].push(watch.ns);
                last[i] = watch.layer();
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        ns.iter()
            .zip(last)
            .map(|(ns, last)| Layer {
                ns: summarize(ns).median,
                allocs: last.allocs,
            })
            .collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"parent\": \"{}\", \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}}}{comma}",
                s.name, s.parent, s.unit, s.start_ns, s.end_ns, s.busy_ns
            )
            .expect("writing to a String");
        }
        out.push_str("]}\n");
        out
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[1.0, 2.0]).median, 1.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("a_b", "ms", 1.25), ("c", "1/s", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 3, \"unit\": \"1/s\"}}}"
        );
    }
}
