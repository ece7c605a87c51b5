//! The one harness behind every NetDebug bench target: traffic and
//! deployed-device fixtures, one timing helper, and a [`Report`] whose
//! rows are described once and rendered both to the console table and to
//! the `BENCH_<x>.json` artifact CI smoke-gates — with gates that are
//! recorded, printed and *all* evaluated before the process exits.
//!
//! Every bench target regenerates one artifact of the paper (a figure, the
//! case study, or a quantitative experiment implied by a §3 use-case);
//! each target's module doc says what it measures and what it gates.

use netdebug::generator::{Expectation, Generator, StreamSpec};
use netdebug::runtime::{DeviceSink, FlowRun};
use netdebug_dataplane::Dataplane;
use netdebug_hw::{Backend, Device, Outcome, Processed};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Source MAC used by all bench traffic.
pub fn src_mac() -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, 1)
}

/// Destination MAC used by all bench traffic.
pub fn dst_mac() -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, 2)
}

/// A routable IPv4/UDP frame for the `ipv4_forward` program.
pub fn routable_frame(dst: Ipv4Address) -> Vec<u8> {
    PacketBuilder::ethernet(src_mac(), dst_mac())
        .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
        .udp(4000, 4001)
        .payload(b"bench")
        .build()
}

/// The malformed (version 5) variant the parser must reject.
pub fn malformed_frame() -> Vec<u8> {
    let mut f = routable_frame(Ipv4Address::new(10, 0, 0, 9));
    f[14] = 0x55;
    f
}

/// An Ethernet template of exactly `size - 28` bytes (so that the generated
/// wire frame, template + 28-byte test header, is `size` bytes).
pub fn template_for(size: usize) -> Vec<u8> {
    PacketBuilder::ethernet(src_mac(), dst_mac())
        .payload(&vec![0x5Au8; size - 28 - 14])
        .build()
}

/// `ipv4_forward` with the one route every bench forwards on: 10/8 → port 1.
pub fn router_dataplane() -> Dataplane {
    let mut dp = Dataplane::new(netdebug_p4::compile(corpus::IPV4_FORWARD).expect("corpus"));
    dp.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .expect("install default route");
    dp
}

/// [`router_dataplane`] deployed on a board through `backend`.
pub fn router_device(backend: &Backend) -> Device {
    let mut dev = Device::deploy_source(backend, corpus::IPV4_FORWARD).expect("deploy router");
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .expect("install default route");
    dev
}

/// `l2_switch` with `entries` dmac entries `first_mac + i → port i % 4`
/// (table capacity 8 192, so every sweep size fits).
pub fn switch_dataplane(first_mac: u128, entries: usize) -> Dataplane {
    let ir = netdebug_p4::compile(corpus::L2_SWITCH).expect("corpus");
    let caps = vec![8192u64; ir.tables.len()];
    let mut dp = Dataplane::with_table_capacities(ir, &caps);
    for i in 0..entries {
        let port = (i % 4) as u128;
        dp.install_exact("dmac", vec![first_mac + i as u128], "forward", vec![port])
            .expect("capacity covers the sweep");
    }
    dp
}

/// `flows` flows of `frames` frames for one [`router_device`]: flow `j`
/// sends to `dst(j)` from port `j % 4`, paced at `gap(j)` virtual cycles.
pub fn router_flows(
    flows: usize,
    frames: u64,
    dst: impl Fn(usize) -> Ipv4Address,
    gap: impl Fn(usize) -> u64,
) -> Vec<FlowRun> {
    let mut generator = Generator::new();
    (0..flows)
        .map(|j| {
            let mut spec =
                StreamSpec::simple(j as u16, routable_frame(dst(j)), frames, Expectation::Any);
            spec.as_port = (j % 4) as u16;
            FlowRun {
                id: j as u32,
                as_port: spec.as_port,
                frames: Arc::new(generator.build_batch(&spec, 0, frames, 0, gap(j))),
                origin: 0,
                gap: gap(j),
                triggers: vec![],
            }
        })
        .collect()
}

/// Print a section header in the bench output.
pub fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Host core count (1 when undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Short git revision of the checkout the numbers were taken at, or
/// `"unknown"` outside a git work tree (tarball builds, sandboxes).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a offset basis — the seed for [`fnv`] digests.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a digest. Benches use this to compare
/// observable outcomes (verdicts, clocks, counters) across configurations
/// without storing them: identical behaviour ⇒ identical digest.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// [`DeviceSink`] that folds every outcome into an FNV-1a digest —
/// flow, seq, wire behaviour, last stage, completion cycle — and counts
/// packets, without storing anything.
pub struct DigestSink {
    /// Digest so far.
    pub digest: u64,
    /// Packets observed.
    pub packets: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink {
            digest: FNV_OFFSET,
            packets: 0,
        }
    }
}

impl DeviceSink for DigestSink {
    fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
        self.packets += 1;
        let mut h = fnv(self.digest, &flow.to_le_bytes());
        h = fnv(h, &seq.to_le_bytes());
        // An outcome tag, the egress port and the transmitted bytes (drop
        // reasons show up in the device's drop counters).
        h = match &p.outcome {
            Outcome::Tx { port, data } => fnv(fnv(fnv(h, &[1]), &port.to_le_bytes()), data),
            Outcome::Flood { data } => fnv(fnv(h, &[2]), data),
            Outcome::Dropped { .. } => fnv(h, &[3]),
        };
        h = fnv(h, p.last_stage.as_bytes());
        self.digest = fnv(h, &p.done_at_cycle.to_le_bytes());
    }
}

/// Nanoseconds per operation over a set of timed trials.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// The fastest trial — what the rate rows and gates read (scheduler
    /// noise only ever adds time).
    pub best_ns: f64,
    /// The median trial.
    pub median_ns: f64,
}

impl Timing {
    /// Operations per second at the best trial.
    pub fn rate(&self) -> f64 {
        1e9 / self.best_ns
    }
}

/// The one timing loop: `pass` performs some operations and returns how
/// many. After one untimed warm-up pass (caches, allocator, flow cache),
/// each of `trials` trials repeats `pass` until `min_secs` have elapsed
/// (at least once) and reads its ns per operation.
pub fn time_ops(trials: usize, min_secs: f64, mut pass: impl FnMut() -> usize) -> Timing {
    std::hint::black_box(pass());
    let mut ns: Vec<f64> = (0..trials.max(1))
        .map(|_| {
            let (t0, mut ops) = (Instant::now(), 0usize);
            loop {
                ops += pass();
                if t0.elapsed().as_secs_f64() >= min_secs {
                    break t0.elapsed().as_secs_f64() * 1e9 / ops as f64;
                }
            }
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    Timing {
        best_ns: ns[0],
        median_ns: ns[ns.len() / 2],
    }
}

/// One cell of a report row (or top-level member of the artifact).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (escaped on the way out).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A measurement, printed with this many decimals.
    Dec(f64, usize),
    /// A nested object.
    Obj(Row),
    /// A list.
    List(Vec<Value>),
}

/// A described row: `(key, value)` pairs in column order.
pub type Row = Vec<(&'static str, Value)>;

/// A measurement cell printed with `places` decimals.
pub fn dec(v: f64, places: usize) -> Value {
    Value::Dec(v, places)
}

macro_rules! value_from {
    ($($from:ty => $make:expr),*) => {$(
        impl From<$from> for Value {
            fn from(v: $from) -> Self {
                $make(v)
            }
        }
    )*};
}
value_from!(&str => |s: &str| Value::Str(s.into()), String => Value::Str, bool => Value::Bool,
    u64 => Value::Int, usize => |n| Value::Int(n as u64));

/// Build a [`Row`]: `row!["kind" => "exact", "entries" => n, "ns" => dec(ns, 1)]`.
#[macro_export]
macro_rules! row {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, $crate::Value::from($value))),*]
    };
}

/// A row as a one-line JSON object.
fn object_json(row: &Row) -> String {
    let members: Vec<String> = row
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", v.json()))
        .collect();
    format!("{{{}}}", members.join(", "))
}

impl Value {
    /// The value as JSON text (a row renders on one line).
    pub fn json(&self) -> String {
        match self {
            Value::Str(s) => {
                let mut out = String::from('"');
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out + "\""
            }
            Value::Bool(b) => b.to_string(),
            Value::Int(n) => n.to_string(),
            Value::Dec(v, places) => format!("{v:.places$}"),
            Value::Obj(row) => object_json(row),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::json).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }

    /// The value as a console cell: strings bare and left-aligned,
    /// everything else as in the artifact, right-aligned.
    fn cell(&self, width: usize) -> String {
        match self {
            Value::Str(s) => format!("{s:<width$}"),
            other => format!("{:>width$}", other.json()),
        }
    }
}

/// One bench's report: rows go to the console as they are measured and to
/// `BENCH_<x>.json` at [`Report::finish`]; gates are recorded and printed
/// as they are evaluated and decide the exit code together, at the end.
pub struct Report {
    experiment: &'static str,
    file: &'static str,
    /// Top-level members after `experiment`: `meta` first, then
    /// whatever the bench [`Report::set`]s.
    head: Row,
    results: Vec<Row>,
    /// `(claim, held, measured)`.
    gates: Vec<(String, bool, String)>,
}

impl Report {
    /// A report for `experiment`, written to `file` at the repo root,
    /// stamped with the host's cores, the bench's `batch` (or equivalent
    /// work unit) and the git revision — enough to judge whether two
    /// artifacts are comparable.
    pub fn new(experiment: &'static str, file: &'static str, batch: usize) -> Self {
        let meta = row!["cores" => host_cores(), "batch" => batch, "git_rev" => git_rev()];
        Report {
            experiment,
            file,
            head: vec![("meta", Value::Obj(meta))],
            results: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Add a top-level member (the bench's parameters, a summary object).
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        self.head.push((key, value.into()));
    }

    /// Record one result row and print it, under a fresh column header
    /// whenever its keys differ from the previous row's.
    pub fn row(&mut self, row: Row) {
        let width = |key: &str| key.len().max(14);
        let same_keys = self
            .results
            .last()
            .is_some_and(|last| last.iter().map(|(k, _)| k).eq(row.iter().map(|(k, _)| k)));
        if !same_keys {
            let header: Vec<String> = row
                .iter()
                .map(|(k, _)| format!("{k:>w$}", w = width(k)))
                .collect();
            println!("\n{}", header.join("  "));
        }
        let cells: Vec<String> = row.iter().map(|(k, v)| v.cell(width(k))).collect();
        println!("{}", cells.join("  "));
        self.results.push(row);
    }

    /// Record and print one gate: `claim` is what must hold, `measured`
    /// the numbers it was judged on. A failed gate does not stop the run —
    /// every later gate is still evaluated — but fails [`Report::finish`].
    pub fn gate(&mut self, claim: &str, held: bool, measured: String) {
        println!(
            "gate {} {claim} — {measured}",
            if held { "ok  " } else { "FAIL" }
        );
        self.gates.push((claim.to_string(), held, measured));
    }

    /// The claims of the gates that did not hold.
    pub fn failed_gates(&self) -> Vec<&str> {
        self.gates
            .iter()
            .filter(|(_, held, _)| !held)
            .map(|(claim, ..)| claim.as_str())
            .collect()
    }

    /// The artifact: `experiment`, `meta`, the set members, `results`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"experiment\": \"{}\",\n", self.experiment);
        for (key, value) in &self.head {
            out += &format!("  \"{key}\": {},\n", value.json());
        }
        let rows: Vec<String> = self
            .results
            .iter()
            .map(|row| format!("    {}", object_json(row)))
            .collect();
        out + &format!("  \"results\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }

    /// Write the artifact, list the failed gates, and turn them into the
    /// process's exit code.
    pub fn finish(self) -> ExitCode {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), self.file);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => println!("\ncould not write {path}: {e}"),
        }
        let failed = self.failed_gates();
        println!("{} gate(s), {} failed", self.gates.len(), failed.len());
        failed
            .iter()
            .for_each(|claim| println!("  FAILED: {claim}"));
        if failed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eat<'a>(s: &mut &'a str, n: usize) -> &'a str {
        let (head, rest) = s.split_at(n);
        *s = rest.trim_start();
        head
    }

    /// A reader for exactly what [`Report::to_json`] writes.
    fn parse(s: &mut &str) -> Value {
        match s.as_bytes()[0] {
            open @ (b'{' | b'[') => {
                eat(s, 1);
                let mut items = Vec::new();
                while !s.starts_with(['}', ']']) {
                    let item = parse(s);
                    items.push(match (open, item) {
                        (b'{', Value::Str(key)) => {
                            assert_eq!(eat(s, 1), ":");
                            Value::Obj(vec![(key.leak(), parse(s))])
                        }
                        (_, item) => item,
                    });
                    *s = s.trim_start_matches(',').trim_start();
                }
                eat(s, 1);
                match open {
                    b'[' => Value::List(items),
                    _ => Value::Obj(
                        items
                            .into_iter()
                            .flat_map(|m| match m {
                                Value::Obj(member) => member,
                                other => panic!("object member: {other:?}"),
                            })
                            .collect(),
                    ),
                }
            }
            b'"' => {
                let (mut out, mut chars) = (String::new(), s[1..].char_indices());
                let end = loop {
                    match chars.next().expect("closing quote") {
                        (i, '"') => break i,
                        (_, '\\') => out.push(chars.next().expect("escaped").1),
                        (_, c) => out.push(c),
                    }
                };
                eat(s, end + 2);
                Value::Str(out)
            }
            b't' | b'f' => Value::Bool(eat(s, if s.starts_with('t') { 4 } else { 5 }) == "true"),
            _ => {
                let text = eat(s, s.find([',', '}', ']']).expect("delimiter"));
                match text.split_once('.') {
                    None => Value::Int(text.parse().expect("integer")),
                    Some((_, frac)) => Value::Dec(text.parse().expect("float"), frac.len()),
                }
            }
        }
    }

    fn sample() -> Report {
        let mut report = Report::new("sample", "BENCH_sample.json", 7);
        report.set("probes", 1024usize);
        report.row(row!["label" => "a \"quoted\" back\\slash", "on" => true,
            "n" => 42usize, "ns" => dec(12.5, 1)]);
        report.row(row!["label" => "plain", "on" => false,
            "n" => 0usize, "ns" => dec(3.25, 2)]);
        report
    }

    #[test]
    fn the_artifact_reads_back_to_the_rows_described() {
        let report = sample();
        let json = report.to_json();
        let Value::Obj(top) = parse(&mut json.trim_start()) else {
            panic!("top level is an object: {json}")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["experiment", "meta", "probes", "results"]);
        assert_eq!(top[0].1, Value::from("sample"));
        let Value::Obj(meta) = &top[1].1 else {
            panic!("meta")
        };
        assert_eq!(meta[0], ("cores", Value::from(host_cores())));
        assert_eq!(meta[1], ("batch", Value::Int(7)));
        assert_eq!(meta[2].0, "git_rev");
        let rows: Vec<Value> = report.results.iter().cloned().map(Value::Obj).collect();
        assert_eq!(top[3].1, Value::List(rows), "{json}");
    }

    #[test]
    fn every_gate_is_evaluated_and_any_failure_fails_the_report() {
        let mut report = sample();
        report.gate("holds", true, "1 < 2".into());
        assert!(
            report.failed_gates().is_empty(),
            "a passing report exits zero"
        );
        report.gate("first broken", false, "3 > 2".into());
        report.gate("still evaluated", true, "1 < 2".into());
        report.gate("second broken", false, "5 > 4".into());
        assert_eq!(report.failed_gates(), ["first broken", "second broken"]);
    }
}
