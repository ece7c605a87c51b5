//! Every call into the repo's crates, in one file.
//!
//! This is the public surface the benchmark freezes: a later change that
//! renames or removes one of these functions has to come back here, and
//! the API-collapse work can read off exactly what an outside user of the
//! session API needs:
//!
//! `p4::compile`, `Backend::{reference, sdnet_2018, sdnet_fixed, compile}`,
//! `Device::{deploy_source, install, control_plane, inject_batch_with,
//! set_engine, set_flow_cache, cache_stats, table_stats, clone}` (+ the
//! read-only taps the digest folds), `ControlPlane::remove`,
//! `Dataplane::{new, install, process_batch, process_batch_with,
//! set_tracing, set_flow_cache, cache_stats, clone}`,
//! `TableState::{new, install, snapshot}` + `EntrySnapshot::lookup`,
//! `Generator::build_batch`, `Checker::{new, open_stream,
//! observe_processed}`, `NetDebug::{new, run_session, run_stream_churn}`,
//! `ChurnOp::apply`, `drive_device`, `FleetRuntime::{new, run}`,
//! `probes::parser_path_probes` and `compiler_check::check_corpus`.

use crate::alloc;
use crate::measure::{quantile, Layer, Pass, Stopwatch, Tracer};
use crate::workloads::{ChurnStep, Expect, Input, Pat, Program, Rule, Traffic, Workload, WINDOW};
use netdebug::checker::Checker;
use netdebug::churn::{ChurnOp, ChurnSchedule};
use netdebug::generator::{Expectation, FieldSweep, Generator, StreamSpec};
use netdebug::probes::parser_path_probes;
use netdebug::runtime::{
    drive_device, DeviceDone, DeviceSink, DeviceTask, FleetRuntime, FlowRun, RuntimeStats,
    DEFAULT_MAX_BATCH,
};
use netdebug::session::NetDebug;
use netdebug::usecases::compiler_check::{check_corpus, CompilerCheckReport, Conformance};
use netdebug_dataplane::{Dataplane, Engine, EntrySnapshot, NullSink, RuntimeEntry, TableState};
use netdebug_hw::{Backend, Device, Processed};
use netdebug_p4::corpus::{self, CorpusProgram};
use netdebug_p4::ir::{self, IrPattern};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime workers `fleet_paced` adds to the one generator thread.
pub const FLEET_WORKERS: usize = 2;

// ---------------------------------------------------------------------
// Plans: the generated data in the repo's types (built once, untimed)
// ---------------------------------------------------------------------

struct TrafficPlan {
    traffic: Traffic,
    source: &'static str,
    specs: Vec<StreamSpec>,
    /// Churn published around stream 0 (only `l2_churn_steady` has any).
    schedule: ChurnSchedule,
}

struct CorpusPlan {
    programs: Vec<CorpusProgram>,
    backends: Vec<Backend>,
    /// Probes one pass diffs: per program, its parser-path probes once
    /// for every backend that accepts it.
    probes: u64,
}

enum Kind {
    Traffic(TrafficPlan),
    Corpus(CorpusPlan),
}

pub struct Plan {
    workload: Workload,
    kind: Kind,
}

fn pattern(p: &Pat) -> IrPattern {
    match *p {
        Pat::Value(v) => IrPattern::Value(v),
        Pat::Mask { value, mask } => IrPattern::Mask { value, mask },
        Pat::Any => IrPattern::Any,
    }
}

fn patterns(rule: &Rule) -> Vec<IrPattern> {
    rule.patterns.iter().map(pattern).collect()
}

fn churn_op(table: &str, step: &ChurnStep) -> ChurnOp {
    match step {
        ChurnStep::Install(r) => ChurnOp::Install {
            table: table.to_string(),
            patterns: patterns(r),
            action: r.action.to_string(),
            args: r.args.clone(),
            priority: r.priority,
        },
        ChurnStep::Remove(r) => ChurnOp::Remove {
            table: table.to_string(),
            patterns: patterns(r),
            priority: r.priority,
        },
    }
}

pub fn plan(workload: Workload, input: &Input) -> Plan {
    assert_eq!(NetDebug::STREAM_WINDOW, WINDOW);
    assert_eq!(DEFAULT_MAX_BATCH as u64, WINDOW);
    let kind = match input {
        Input::Traffic(traffic) => {
            let specs = traffic
                .streams
                .iter()
                .map(|s| StreamSpec {
                    stream: s.id,
                    template: s.template.clone(),
                    count: s.count,
                    rate_pps: None,
                    as_port: s.as_port,
                    sweeps: s
                        .sweep
                        .map(|offset| FieldSweep { offset, step: 1 })
                        .into_iter()
                        .collect(),
                    expect: match s.expect {
                        Expect::Forward(port) => Expectation::Forward { port: Some(port) },
                        Expect::Drop => Expectation::Drop,
                    },
                })
                .collect();
            let schedule = traffic
                .churn
                .iter()
                .fold(ChurnSchedule::new(), |sched, (window, step)| {
                    sched.before_window(*window, churn_op(traffic.table, step))
                });
            assert!(schedule.is_empty() || traffic.streams.len() == 1);
            Kind::Traffic(TrafficPlan {
                source: match traffic.program {
                    Program::L2Switch => corpus::L2_SWITCH,
                    Program::Ipv4Forward => corpus::IPV4_FORWARD,
                    Program::AclFirewall => corpus::ACL_FIREWALL,
                },
                traffic: traffic.clone(),
                specs,
                schedule,
            })
        }
        Input::Corpus { rotation } => {
            let mut programs = corpus::corpus();
            let by = rotation % programs.len();
            programs.rotate_left(by);
            let backends = vec![
                Backend::reference(),
                Backend::sdnet_2018(),
                Backend::sdnet_fixed(),
            ];
            let probes = programs
                .iter()
                .map(|p| {
                    let ir = netdebug_p4::compile(p.source).expect("corpus programs compile");
                    let accepted = backends.iter().filter(|b| b.compile(&ir).is_ok()).count();
                    (parser_path_probes(&ir).len() * accepted) as u64
                })
                .sum();
            Kind::Corpus(CorpusPlan {
                programs,
                backends,
                probes,
            })
        }
    };
    Plan { workload, kind }
}

impl Plan {
    /// Packets one timed unit generates, injects and checks (for the
    /// conformance pass: probes diffed).
    pub fn packets_per_unit(&self) -> u64 {
        match &self.kind {
            Kind::Traffic(t) => t.traffic.packets_per_unit(),
            Kind::Corpus(c) => c.probes,
        }
    }
}

// ---------------------------------------------------------------------
// Set-up: P4 source -> deployed, table-populated device(s)
// ---------------------------------------------------------------------

/// What `setup_s` times. A fleet deploys and populates one device and
/// clones it for the other members, as a user of `Device: Clone` would.
pub fn deploy(plan: &Plan) -> Vec<Device> {
    let reference = Backend::reference();
    match &plan.kind {
        Kind::Traffic(t) => {
            let mut device = Device::deploy_source(&reference, t.source).expect("deploy");
            for r in &t.traffic.rules {
                device
                    .install(
                        t.traffic.table,
                        patterns(r),
                        r.action,
                        r.args.clone(),
                        r.priority,
                    )
                    .expect("install");
            }
            let mut devices: Vec<Device> = (1..t.traffic.devices).map(|_| device.clone()).collect();
            devices.push(device);
            devices
        }
        Kind::Corpus(c) => c
            .programs
            .iter()
            .map(|p| Device::deploy_source(&reference, p.source).expect("deploy"))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Units: one timed call through the public session API
// ---------------------------------------------------------------------

/// A fleet member's checker: every packet the runtime hands back goes
/// straight to `Checker::observe_processed`, as a session's sink does.
pub struct FleetSink {
    checker: Checker,
}

impl DeviceSink for FleetSink {
    fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
        self.checker.observe_processed(flow as u16, seq, &p);
    }
}

fn open_checker(specs: &[StreamSpec]) -> Checker {
    let mut checker = Checker::new();
    for spec in specs {
        checker.open_stream(spec.stream, spec.expect, spec.count);
    }
    checker
}

pub enum Unit {
    Session(Box<NetDebug>),
    Fleet {
        devices: Vec<Device>,
        done: Vec<DeviceDone<FleetSink>>,
    },
    Corpus(Option<CompilerCheckReport>),
}

/// What a finished unit looked like, judged from outside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Packets whose checker result disagrees with the workload's own
    /// expectation (violations + per-stream forwarded/dropped deltas).
    pub mismatched: u64,
    /// Verdicts, egress ports, completion cycles and checker statistics,
    /// folded; equal digests mean equal observable behaviour.
    pub digest: u64,
    pub cache_hit_ratio: f64,
    /// Entries in the workload's table when the unit ended.
    pub table_entries: usize,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: u64, words: &[u64]) -> u64 {
    words.iter().flat_map(|w| w.to_le_bytes()).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn fold_device(mut h: u64, device: &Device, checker: &Checker) -> u64 {
    h = fnv(h, &[device.now()]);
    h = fnv(h, device.stage_counts());
    for (reason, n) in device.drop_counts() {
        h = fnv(h, &[reason.len() as u64, *n]);
    }
    for port in 0..device.config().ports {
        let s = device.port_stats(port);
        h = fnv(h, &[s.rx_packets, s.rx_bytes, s.tx_packets, s.tx_bytes]);
    }
    let mut ids: Vec<u16> = checker.streams().keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let s = &checker.streams()[&id];
        let l = &s.latency;
        h = fnv(
            h,
            &[
                u64::from(id),
                s.sent,
                s.received,
                s.dropped,
                s.reordered,
                s.duplicates,
                s.corrupted,
                s.highest_seq.map_or(u64::MAX, |q| q),
                l.count(),
                l.min(),
                l.max(),
                l.mean().to_bits(),
            ],
        );
        h = fnv(h, &l.buckets);
    }
    fnv(h, &[checker.violations().len() as u64])
}

fn mismatches(traffic: &Traffic, checker: &Checker) -> u64 {
    let per_stream: u64 = traffic
        .streams
        .iter()
        .map(|s| {
            let (forwarded, dropped) = match s.expect {
                Expect::Forward(_) => (s.count, 0),
                Expect::Drop => (0, s.count),
            };
            checker.stream(s.id).map_or(s.count, |got| {
                got.received.abs_diff(forwarded) + got.dropped.abs_diff(dropped)
            })
        })
        .sum();
    per_stream + checker.violations().len() as u64
}

fn judge<'a>(t: &TrafficPlan, members: impl Iterator<Item = (&'a Device, &'a Checker)>) -> Outcome {
    let mut out = Outcome {
        mismatched: 0,
        digest: FNV_OFFSET,
        cache_hit_ratio: 0.0,
        table_entries: 0,
    };
    let (mut hits, mut lookups) = (0, 0);
    for (device, checker) in members {
        out.mismatched += mismatches(&t.traffic, checker);
        out.digest = fold_device(out.digest, device, checker);
        let cache = device.cache_stats();
        hits += cache.hits;
        lookups += cache.hits + cache.misses;
        out.table_entries = device.table_stats(t.traffic.table).expect("table").2;
    }
    if lookups > 0 {
        out.cache_hit_ratio = hits as f64 / lookups as f64;
    }
    out
}

/// The conformance oracle: the reference backend passes every program,
/// `sdnet_2018` shows the four silent mis-compilations the `reject` bug
/// causes, and ten (program, backend) pairs are refused with diagnostics.
fn corpus_agrees(report: &CompilerCheckReport, programs: usize, backends: usize) -> bool {
    let count =
        |f: &dyn Fn(&Conformance) -> bool| report.rows.iter().filter(|r| f(&r.conformance)).count();
    report.rows.len() == programs * backends
        && report
            .rows
            .iter()
            .filter(|r| r.backend == Backend::reference().name())
            .all(|r| r.conformance == Conformance::Pass)
        && count(&|c| matches!(c, Conformance::SilentDivergence { .. })) == 4
        && count(&|c| matches!(c, Conformance::Diagnosed(_))) == 10
        && count(&|c| matches!(c, Conformance::Invalid(_))) == 0
}

/// The streams driven together: a session runs its streams one after
/// another, the fleet's paced flows share one timer wheel per device.
fn rounds(t: &TrafficPlan, fleet: bool) -> Vec<std::ops::Range<usize>> {
    if fleet {
        std::iter::once(0..t.specs.len()).collect()
    } else {
        (0..t.specs.len()).map(|i| i..i + 1).collect()
    }
}

/// Generate the frames of one round and wrap them as the runtime's flows
/// (window-keyed churn becomes seq-keyed triggers, as the session does).
fn flows(
    t: &TrafficPlan,
    generator: &mut Generator,
    round: std::ops::Range<usize>,
    origin: u64,
) -> Vec<FlowRun> {
    round
        .map(|i| {
            let (spec, gap) = (&t.specs[i], t.traffic.streams[i].gap);
            FlowRun {
                id: u32::from(spec.stream),
                as_port: spec.as_port,
                frames: Arc::new(generator.build_batch(spec, 0, spec.count, 0, gap)),
                origin,
                gap,
                triggers: if i == 0 {
                    t.schedule
                        .ops
                        .iter()
                        .map(|(w, op)| (w * WINDOW, op.clone()))
                        .collect()
                } else {
                    Vec::new()
                },
            }
        })
        .collect()
}

/// Fresh state for one unit: clones of the deployed devices (cold flow
/// cache, own table cells), optionally switched to the reference engine
/// with the flow cache off.
fn prepare(plan: &Plan, deployed: &[Device], reference: bool) -> Unit {
    let clones = || -> Vec<Device> {
        deployed
            .iter()
            .map(|d| {
                let mut d = d.clone();
                if reference {
                    d.set_engine(Engine::Reference);
                    d.set_flow_cache(false);
                }
                d
            })
            .collect()
    };
    match (&plan.kind, plan.workload) {
        (Kind::Corpus(_), _) => Unit::Corpus(None),
        (Kind::Traffic(_), Workload::FleetPaced) => Unit::Fleet {
            devices: clones(),
            done: Vec::new(),
        },
        (Kind::Traffic(_), _) => {
            let device = clones().pop().expect("one deployed device");
            Unit::Session(Box::new(NetDebug::new(device)))
        }
    }
}

/// The timed call.
fn execute(plan: &Plan, runtime: &mut FleetRuntime, unit: &mut Unit) {
    match (&plan.kind, unit) {
        (Kind::Traffic(t), Unit::Session(nd)) => {
            if t.schedule.is_empty() {
                black_box(nd.run_session(&t.specs));
            } else {
                nd.run_stream_churn(&t.specs[0], &t.schedule)
                    .expect("scheduled churn applies");
            }
        }
        (Kind::Traffic(t), Unit::Fleet { devices, done }) => {
            let flows = flows(t, &mut Generator::new(), 0..t.specs.len(), 0);
            let tasks = devices
                .drain(..)
                .map(|device| DeviceTask {
                    device,
                    flows: flows.clone(),
                    sink: FleetSink {
                        checker: open_checker(&t.specs),
                    },
                })
                .collect();
            *done = runtime.run(tasks);
        }
        (Kind::Corpus(c), Unit::Corpus(report)) => {
            *report = Some(check_corpus(&c.programs, &c.backends));
        }
        _ => unreachable!("units are prepared from their own plan"),
    }
}

fn verify(plan: &Plan, unit: Unit) -> Outcome {
    match (&plan.kind, unit) {
        (Kind::Traffic(t), Unit::Session(nd)) => {
            judge(t, [(nd.device(), nd.checker())].into_iter())
        }
        (Kind::Traffic(t), Unit::Fleet { done, .. }) => {
            let mut out = judge(t, done.iter().map(|d| (&d.device, &d.sink.checker)));
            let broken = done
                .iter()
                .filter(|d| d.result.is_err() || d.fault.is_some())
                .count()
                + t.traffic.devices.abs_diff(done.len());
            out.mismatched +=
                broken as u64 * t.traffic.packets_per_unit() / t.traffic.devices as u64;
            out
        }
        (Kind::Corpus(c), Unit::Corpus(report)) => {
            let report = report.expect("the unit ran");
            let digest = report.rows.iter().fold(FNV_OFFSET, |h, r| {
                let cell = format!("{}/{}/{}", r.program, r.backend, r.conformance.cell());
                cell.bytes().fold(h, |h, b| fnv(h, &[u64::from(b)]))
            });
            Outcome {
                mismatched: if corpus_agrees(&report, c.programs.len(), c.backends.len()) {
                    0
                } else {
                    c.probes
                },
                digest,
                cache_hit_ratio: 0.0,
                table_entries: 0,
            }
        }
        _ => unreachable!("units are prepared from their own plan"),
    }
}

/// A planned workload on its deployed devices.
pub struct Bench {
    plan: Plan,
    deployed: Vec<Device>,
    runtime: RefCell<FleetRuntime>,
}

impl Bench {
    pub fn new(plan: Plan, deployed: Vec<Device>) -> Self {
        Bench {
            plan,
            deployed,
            runtime: RefCell::new(FleetRuntime::new(FLEET_WORKERS)),
        }
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    pub fn prepare(&self, reference: bool) -> Unit {
        prepare(&self.plan, &self.deployed, reference)
    }

    pub fn execute(&self, unit: &mut Unit) {
        execute(&self.plan, &mut self.runtime.borrow_mut(), unit);
    }

    pub fn verify(&self, unit: Unit) -> Outcome {
        verify(&self.plan, unit)
    }

    /// One whole unit, untimed.
    pub fn run_unit(&self, reference: bool) -> Outcome {
        let mut unit = self.prepare(reference);
        self.execute(&mut unit);
        self.verify(unit)
    }
}

// ---------------------------------------------------------------------
// The traced run: one pass per layer, peeled
// ---------------------------------------------------------------------

/// The session call itself, on `runtime`, with the counting allocator on
/// (traced) or off (untraced).
fn session_pass<'a>(
    name: &'static str,
    bench: &'a Bench,
    runtime: &'a RefCell<FleetRuntime>,
    counting: bool,
) -> Pass<'a> {
    Pass {
        name,
        parent: "",
        run: Box::new(move |watch| {
            let mut unit = bench.prepare(false);
            alloc::set_counting(counting);
            watch.time(|| execute(&bench.plan, &mut runtime.borrow_mut(), &mut unit));
            alloc::set_counting(true);
        }),
    }
}

/// Compiles per pass, so a pass is long enough to time.
const COMPILES: usize = 8;

/// The three compile layers over `irs` (compiled from `sources`).
fn compile_passes<'a>(
    sources: &'a [&'static str],
    irs: &'a [ir::Program],
    reference: &'a Backend,
) -> [Pass<'a>; 3] {
    let pass = |name, run| Pass {
        name,
        parent: "setup",
        run,
    };
    [
        pass(
            "p4",
            Box::new(move |watch| {
                watch.time(|| {
                    for s in sources.iter().cycle().take(COMPILES * sources.len()) {
                        black_box(netdebug_p4::compile(s).expect("compiles"));
                    }
                });
            }),
        ),
        pass(
            "hw.backend",
            Box::new(move |watch| {
                watch.time(|| {
                    for ir in irs.iter().cycle().take(COMPILES * irs.len()) {
                        black_box(
                            reference
                                .compile(ir)
                                .expect("the reference accepts everything"),
                        );
                    }
                });
            }),
        ),
        pass(
            "dataplane.compile",
            Box::new(move |watch| {
                let owned: Vec<ir::Program> = irs
                    .iter()
                    .cycle()
                    .take(COMPILES * irs.len())
                    .cloned()
                    .collect();
                watch.time(|| {
                    for ir in owned {
                        black_box(Dataplane::new(ir));
                    }
                });
            }),
        ),
    ]
}

struct DiscardSink;

impl DeviceSink for DiscardSink {
    fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
        black_box(&p);
    }
}

struct CaptureSink(Vec<(u32, u64, Processed)>);

impl DeviceSink for CaptureSink {
    fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
        self.0.push((flow, seq, p));
    }
}

/// A traffic workload taken apart: the same frames go through
/// `build_batch`, `process_batch`, `process_batch_with`,
/// `inject_batch_with`, `drive_device` and `observe_processed` in turn,
/// each on fresh clones, so nesting comes from peeling. As in the
/// session, a round's frames are generated (untimed) right before the
/// layer call that consumes them, so every layer reads them as warm as
/// the session does.
struct Peel<'a> {
    t: &'a TrafficPlan,
    template: &'a Device,
    fleet: bool,
    rounds: Vec<std::ops::Range<usize>>,
    /// A stand-alone data plane holding the workload's entries.
    populated: Dataplane,
    /// The workload's table, published stand-alone, and its key stream.
    snapshot: Arc<EntrySnapshot>,
    keys: Vec<Vec<u128>>,
    // What the passes leave behind for the report.
    hit_ratio: Cell<f64>,
    control: Cell<Layer>,
    loop_stats: Cell<RuntimeStats>,
}

impl<'a> Peel<'a> {
    fn new(t: &'a TrafficPlan, template: &'a Device, ir: &ir::Program, fleet: bool) -> Self {
        let table = t.traffic.table;
        let mut populated = Dataplane::new(ir.clone());
        let tid = ir.table_by_name(table).expect("table");
        let state = TableState::new(&ir.tables[tid]);
        for r in &t.traffic.rules {
            populated
                .install(table, patterns(r), r.action, r.args.clone(), r.priority)
                .expect("install");
            let entry = RuntimeEntry {
                patterns: patterns(r),
                action: ir::ActionCall {
                    action: ir.action_by_name(r.action).expect("action"),
                    args: r.args.clone(),
                },
                priority: r.priority,
            };
            state
                .install(&ir.tables[tid], &ir.actions, entry)
                .expect("install");
        }
        Peel {
            t,
            template,
            fleet,
            rounds: rounds(t, fleet),
            populated,
            snapshot: state.snapshot(),
            keys: t
                .traffic
                .streams
                .iter()
                .flat_map(|s| (0..s.count).map(|seq| s.key_at(seq)))
                .collect(),
            hit_ratio: Cell::new(0.0),
            control: Cell::new(Layer::default()),
            loop_stats: Cell::new(RuntimeStats::default()),
        }
    }

    /// Fresh member devices, each with every round's freshly generated
    /// flows, handed to `each` one round at a time.
    fn for_each_round(&self, mut each: impl FnMut(&mut Device, Vec<FlowRun>)) {
        let mut generator = Generator::new();
        for _ in 0..self.t.traffic.devices {
            let mut dev = self.template.clone();
            for round in &self.rounds {
                let origin = if self.fleet { 0 } else { dev.now() };
                let flows = flows(self.t, &mut generator, round.clone(), origin);
                each(&mut dev, flows);
            }
        }
    }

    fn generator(&self) -> Pass<'_> {
        Pass {
            name: "core.generator",
            parent: "core.session",
            run: Box::new(move |watch| {
                let mut generator = Generator::new();
                for (spec, s) in self.t.specs.iter().zip(&self.t.traffic.streams) {
                    for first in (0..spec.count).step_by(WINDOW as usize) {
                        let n = WINDOW.min(spec.count - first);
                        watch.time(|| black_box(generator.build_batch(spec, first, n, 0, s.gap)));
                    }
                }
            }),
        }
    }

    /// The interpreter alone, in the session's 256-frame dispatches.
    fn dataplane(
        &self,
        name: &'static str,
        parent: &'static str,
        tracing: bool,
        cache: bool,
    ) -> Pass<'_> {
        Pass {
            name,
            parent,
            run: Box::new(move |watch| {
                let mut generator = Generator::new();
                for _ in 0..self.t.traffic.devices {
                    let mut dp = self.populated.clone();
                    dp.set_tracing(tracing);
                    if !cache {
                        dp.set_flow_cache(false);
                    }
                    for round in &self.rounds {
                        for flow in flows(self.t, &mut generator, round.clone(), 0) {
                            for chunk in flow.frames.chunks(WINDOW as usize) {
                                let pkts: Vec<(u16, &[u8])> = chunk
                                    .iter()
                                    .map(|p| (flow.as_port, p.data.as_slice()))
                                    .collect();
                                watch.time(|| {
                                    if tracing {
                                        black_box(dp.process_batch_with(&pkts, 0, &mut NullSink));
                                    } else {
                                        black_box(dp.process_batch(&pkts, 0));
                                    }
                                });
                            }
                        }
                    }
                    if cache {
                        let stats = dp.cache_stats();
                        self.hit_ratio
                            .set(stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64);
                    }
                }
            }),
        }
    }

    /// The published index alone, over the key stream.
    fn table(&self) -> Pass<'_> {
        Pass {
            name: "dataplane.table",
            parent: "dataplane.interp",
            run: Box::new(move |watch| {
                watch.time(|| {
                    for key in &self.keys {
                        black_box(self.snapshot.lookup(key));
                    }
                });
            }),
        }
    }

    /// Publications at the workload's occupancy, in microseconds, sorted
    /// (a fixed count of remove/install pairs, so not an interleaved pass).
    fn publish_us(&self) -> Vec<f64> {
        let (table, rules) = (self.t.traffic.table, &self.t.traffic.rules);
        let mut churned = self.template.clone();
        let handle = churned.control_plane();
        let mut us = Vec::new();
        for r in rules.iter().cycle().take(600) {
            let start = Instant::now();
            let removed = handle
                .remove(table, &patterns(r), r.priority)
                .expect("table");
            us.push(start.elapsed().as_secs_f64() * 1e6);
            assert!(removed.is_some(), "installed rules can be removed");
            let start = Instant::now();
            churned
                .install(table, patterns(r), r.action, r.args.clone(), r.priority)
                .expect("install");
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        us.sort_by(f64::total_cmp);
        us
    }

    /// Tap and latency accounting around the data plane. Scheduled churn
    /// is applied between windows on its own stopwatch, so it lands in
    /// `dataplane.control`, not here.
    fn device(&self) -> Pass<'_> {
        Pass {
            name: "hw.device",
            parent: "core.runtime",
            run: Box::new(move |watch| {
                let mut churn = Stopwatch::default();
                self.for_each_round(|dev, flows| {
                    for flow in flows {
                        for (w, chunk) in flow.frames.chunks(WINDOW as usize).enumerate() {
                            let due = |(seq, _): &&(u64, ChurnOp)| *seq == w as u64 * WINDOW;
                            for (_, op) in flow.triggers.iter().filter(due) {
                                churn
                                    .time(|| op.apply(dev))
                                    .expect("scheduled churn applies");
                            }
                            let refs: Vec<&[u8]> =
                                chunk.iter().map(|p| p.data.as_slice()).collect();
                            watch.time(|| {
                                dev.inject_batch_with(flow.as_port, &refs, 0, |_, p| {
                                    black_box(&p);
                                });
                            });
                        }
                    }
                });
                self.control.set(churn.layer());
            }),
        }
    }

    /// The event loop around the device.
    fn runtime(&self) -> Pass<'_> {
        Pass {
            name: "core.runtime",
            parent: "core.session",
            run: Box::new(move |watch| {
                let mut total = RuntimeStats::default();
                self.for_each_round(|dev, flows| {
                    let (stats, result) = watch
                        .time(|| drive_device(dev, &flows, DEFAULT_MAX_BATCH, &mut DiscardSink));
                    result.expect("scheduled churn applies");
                    total.absorb(&stats);
                });
                self.loop_stats.set(total);
            }),
        }
    }

    /// One member's outcomes, captured round by round and replayed into
    /// each member's checker in the runtime's emission order.
    fn checker(&self) -> Pass<'_> {
        Pass {
            name: "core.checker",
            parent: "core.session",
            run: Box::new(move |watch| {
                let mut generator = Generator::new();
                let mut dev = self.template.clone();
                let mut checkers: Vec<Checker> = (0..self.t.traffic.devices)
                    .map(|_| open_checker(&self.t.specs))
                    .collect();
                for round in &self.rounds {
                    let origin = if self.fleet { 0 } else { dev.now() };
                    let flows = flows(self.t, &mut generator, round.clone(), origin);
                    let mut captured = CaptureSink(Vec::new());
                    let (_, result) =
                        drive_device(&mut dev, &flows, DEFAULT_MAX_BATCH, &mut captured);
                    result.expect("scheduled churn applies");
                    for checker in &mut checkers {
                        watch.time(|| {
                            for (flow, seq, p) in &captured.0 {
                                checker.observe_processed(*flow as u16, *seq, p);
                            }
                        });
                    }
                }
            }),
        }
    }
}

impl Bench {
    /// The traced run: for `seconds`, one pass per layer per round, then
    /// every per-layer metric this workload has (the caller reports the
    /// rest as 0).
    pub fn ledger(&self, seconds: f64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
        let plan = &self.plan;
        let pkts = plan.packets_per_unit() as f64;
        let fleet = plan.workload == Workload::FleetPaced;
        let sources: Vec<&'static str> = match &plan.kind {
            Kind::Traffic(t) => vec![t.source],
            Kind::Corpus(c) => c.programs.iter().map(|p| p.source).collect(),
        };
        let irs: Vec<ir::Program> = sources
            .iter()
            .map(|s| netdebug_p4::compile(s).expect("compiles"))
            .collect();
        let reference = Backend::reference();
        let inline = RefCell::new(FleetRuntime::new(1));
        let peel = match &plan.kind {
            Kind::Traffic(t) => Some(Peel::new(t, &self.deployed[0], &irs[0], fleet)),
            Kind::Corpus(_) => None,
        };
        let publish_us = peel.as_ref().map_or(Vec::new(), Peel::publish_us);

        // The closing row first: the session, traced (spans + counting
        // allocator) and untraced (neither).
        let mut passes = vec![
            session_pass("core.session", self, &self.runtime, true),
            session_pass("core.session.untraced", self, &self.runtime, false),
        ];
        if fleet {
            // The fleet's layers are timed on one thread, so its ledger
            // closes against the 1-worker run.
            passes.push(session_pass("core.session.1worker", self, &inline, true));
            passes.push(session_pass(
                "core.session.1worker.untraced",
                self,
                &inline,
                false,
            ));
        }
        passes.extend(compile_passes(&sources, &irs, &reference));
        if let Some(peel) = &peel {
            passes.extend([
                peel.generator(),
                peel.dataplane("dataplane.interp", "dataplane.trace", false, true),
                peel.dataplane("dataplane.interp.nocache", "dataplane.trace", false, false),
                peel.dataplane("dataplane.trace", "hw.device", true, true),
                peel.table(),
                peel.device(),
                peel.runtime(),
                peel.checker(),
            ]);
        }
        let names: Vec<&'static str> = passes.iter().map(|p| p.name).collect();
        let measured = tracer.interleaved(Duration::from_secs_f64(seconds), &mut passes);
        drop(passes);

        let layer = |name: &str| {
            let at = names.iter().position(|n| *n == name);
            at.map_or(Layer::default(), |i| measured[i])
        };
        let ns = |name: &str| layer(name).ns;
        let allocs_per_pkt = |name: &str| layer(name).allocs as f64 / pkts;
        let compile_us = |name: &str| ns(name) / 1e3 / (COMPILES * sources.len()) as f64;

        // The sum of the peeled layers, and the session figure it has to
        // add up to.
        let (layers, whole) = match &plan.kind {
            Kind::Traffic(_) => (
                ns("core.generator") + ns("core.runtime") + ns("core.checker"),
                ns(if fleet {
                    "core.session.1worker"
                } else {
                    "core.session"
                }),
            ),
            // From outside, one compile of each kind per (program,
            // backend) pair is attributable; the rest of the pass is
            // probe synthesis, diffing and repeated deploys.
            Kind::Corpus(c) => (
                (ns("p4") + ns("hw.backend") + ns("dataplane.compile")) / COMPILES as f64
                    * c.backends.len() as f64,
                ns("core.session"),
            ),
        };
        let mut out = vec![
            ("core.session.ns_per_pkt", ns("core.session") / pkts),
            ("core.session.unit_ms_p50", ns("core.session") / 1e6),
            (
                "core.session.unattributed_pct",
                100.0 * (1.0 - layers / whole),
            ),
            (
                "tracing.overhead_pct",
                100.0 * (ns("core.session") / ns("core.session.untraced") - 1.0),
            ),
            ("p4.compile_us", compile_us("p4")),
            ("hw.backend.compile_us", compile_us("hw.backend")),
            ("dataplane.compile_us", compile_us("dataplane.compile")),
        ];
        let Some(peel) = &peel else {
            return out;
        };
        let (control, loop_stats) = (peel.control.get(), peel.loop_stats.get());
        out.extend([
            (
                "core.generator.build_ns_per_pkt",
                ns("core.generator") / pkts,
            ),
            (
                "core.generator.allocs_per_pkt",
                allocs_per_pkt("core.generator"),
            ),
            ("dataplane.interp.ns_per_pkt", ns("dataplane.interp") / pkts),
            (
                "dataplane.interp.allocs_per_pkt",
                allocs_per_pkt("dataplane.interp"),
            ),
            (
                "dataplane.trace.ns_per_pkt",
                (ns("dataplane.trace") - ns("dataplane.interp")) / pkts,
            ),
            ("dataplane.cache.hit_ratio", peel.hit_ratio.get()),
            (
                "dataplane.cache.saved_ns_per_pkt",
                (ns("dataplane.interp.nocache") - ns("dataplane.interp")) / pkts,
            ),
            (
                "dataplane.table.lookup_ns",
                ns("dataplane.table") / peel.keys.len() as f64,
            ),
            (
                "dataplane.control.publish_us_p50",
                quantile(&publish_us, 0.5),
            ),
            (
                "dataplane.control.publish_us_p99",
                quantile(&publish_us, 0.99),
            ),
            ("dataplane.control.ns_per_pkt", control.ns / pkts),
            ("hw.device.inject_ns_per_pkt", ns("hw.device") / pkts),
            (
                "hw.device.self_ns_per_pkt",
                (ns("hw.device") - ns("dataplane.trace")) / pkts,
            ),
            ("hw.device.allocs_per_pkt", allocs_per_pkt("hw.device")),
            ("core.runtime.drive_ns_per_pkt", ns("core.runtime") / pkts),
            (
                "core.runtime.self_ns_per_pkt",
                (ns("core.runtime") - ns("hw.device") - control.ns) / pkts,
            ),
            ("core.runtime.instants", loop_stats.instants as f64),
            ("core.runtime.dispatches", loop_stats.dispatches as f64),
            ("core.runtime.mean_batch", loop_stats.mean_batch()),
            (
                "core.runtime.wheel_cascades",
                loop_stats.wheel_cascades as f64,
            ),
            ("core.checker.observe_ns_per_pkt", ns("core.checker") / pkts),
            (
                "core.checker.allocs_per_pkt",
                allocs_per_pkt("core.checker"),
            ),
        ]);
        if fleet {
            out.push((
                "core.runtime.worker_speedup",
                ns("core.session.1worker.untraced") / ns("core.session.untraced"),
            ));
        }
        out
    }
}
