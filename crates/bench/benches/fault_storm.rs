//! fault_storm — cost, precision and exactness of fault containment.
//!
//! Five experiments around `netdebug::runtime::drive_device_with` (the
//! one containing driver behind `FleetRuntime::run`, `DifferentialFleet`
//! and `NetDebug`):
//!
//! 1. **Fault-free overhead** — one unarmed workload through the raw
//!    event loop (`drive_device`), the containing driver at budget 0
//!    (one `armed_faults` check and one `catch_unwind` frame) and at the
//!    default `RecoveryPolicy` (periodic `Device::checkpoint`s, which pin
//!    `Arc` snapshot chains instead of cloning tables), best-of-N with
//!    the three interleaved. Gates: ≤ 5% raw → budget 0 and ≤ 5% budget
//!    0 → default policy — containment is paid for when a device trips.
//! 2. **Time-to-culprit** — 16 devices, no recovery budget, one armed
//!    with `PanicAfterN{2048}` under 4096-frame streams: exactly that
//!    member is quarantined with frame #2048 as culprit, and the other 15
//!    digests are bit-identical to a fault-free run.
//! 3. **Recovery storm** — 16 devices under the default policy, seeded
//!    with one `PanicAfterN`, one `Stall` (silent wedge,
//!    watchdog-detected) and one `TransientPublication` member under
//!    paced 2048-frame streams with a mid-stream churn publication:
//!    **zero permanent quarantines and exactly three recoveries**, every
//!    member delivers all frames, the 13 untouched digests match a
//!    fault-free run. Reported: recovery latency in **virtual cycles**
//!    (checkpoint to rejoin — no wall clocks in the detection path).
//! 4. **Churn bisection** — a priority-inverting member diverging from
//!    epoch 17 of 24: `DifferentialFleet::bisect_churn` finds it in
//!    ≤ 2 + ceil(log2(24)) fleet runs, against 25 for a linear scan.
//! 5. **Publication-retry convergence** — a driver that dies on its
//!    first k publication attempts, k = 1..3: `Device::install`'s bounded
//!    backoff (charged to the virtual clock) converges every time, to an
//!    unfaulted twin's table epoch.
//!
//! Numbers land in `BENCH_fault.json` at the repo root; the gates above
//! run as smoke assertions in CI.

use netdebug::churn::{ChurnOp, ChurnSchedule};
use netdebug::generator::{Expectation, Generator, StreamSpec};
use netdebug::runtime::{
    drive_device, drive_device_with, DeviceDone, DeviceSink, DeviceTask, FleetRuntime, FlowRun,
    RecoveryPolicy,
};
use netdebug::DifferentialFleet;
use netdebug_bench::{banner, fnv, routable_frame, FNV_OFFSET};
use netdebug_hw::{ArchLimits, Backend, BugSpec, Device, FaultSpec, Processed, SdnetProfile};
use netdebug_p4::corpus;
use netdebug_packet::Ipv4Address;
use std::sync::Arc;
use std::time::Instant;

/// Overhead workload: one device, this many back-to-back flows x frames.
const OVERHEAD_FLOWS: usize = 16;
const OVERHEAD_FRAMES: u64 = 512;
const OVERHEAD_REPS: usize = 7;
const OVERHEAD_GATE_PCT: f64 = 5.0;

/// Both storms: 16 devices.
const STORM_DEVICES: usize = 16;

/// Needle scenario: one device armed to die on frame 2048 of 4096.
const NEEDLE_FRAMES: u64 = 4096;
const NEEDLE_AT: u64 = 2048;
const FAULTY_DEVICE: usize = 11;

/// Recovery scenario: three devices armed, 2048 paced frames each.
const RECOVERY_FRAMES: u64 = 2048;
const PANIC_DEVICE: usize = 3;
const PANIC_AT: u64 = 517;
const STALL_DEVICE: usize = 7;
const STALL_AT: u64 = 1300;
const PUB_DEVICE: usize = 11;
const PUB_FAIL_FIRST: u32 = 2;
const PUB_TRIGGER_AT: u64 = 1024;
/// Recovery-storm pacing: virtual cycles between frames, so recovery
/// latency is measured on a clock that actually moves.
const RECOVERY_GAP_CYCLES: u64 = 40;

/// Bisection scenario: 24 churn epochs, divergence starts at epoch 17.
const EPOCHS: u64 = 24;
const BAD_EPOCH: u64 = 17;

fn router() -> Device {
    let mut dev = Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD)
        .expect("deploy ipv4_forward");
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .expect("install default route");
    dev
}

/// `gap` paces the flows in virtual cycles per frame (0 = back-to-back).
fn build_flows(flows: usize, frames: u64, gap: u64) -> Vec<FlowRun> {
    let mut generator = Generator::new();
    (0..flows)
        .map(|j| {
            let spec = StreamSpec {
                stream: j as u16,
                template: routable_frame(Ipv4Address::new(10, 0, 1, (j % 250) as u8)),
                count: frames,
                rate_pps: None,
                as_port: (j % 4) as u16,
                sweeps: vec![],
                expect: Expectation::Any,
            };
            FlowRun {
                id: j as u32,
                as_port: spec.as_port,
                frames: Arc::new(generator.build_batch(&spec, 0, frames, 0, gap)),
                origin: 0,
                gap,
                triggers: vec![],
            }
        })
        .collect()
}

/// Sink folding every verdict into an FNV-1a digest.
struct DigestSink {
    digest: u64,
    packets: u64,
}

impl DigestSink {
    fn new() -> Self {
        Self {
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
        match &p.outcome {
            netdebug_hw::Outcome::Tx { port, data } => {
                h = fnv(h, &[1]);
                h = fnv(h, &port.to_le_bytes());
                h = fnv(h, data);
            }
            netdebug_hw::Outcome::Flood { data } => {
                h = fnv(h, &[2]);
                h = fnv(h, data);
            }
            netdebug_hw::Outcome::Dropped { .. } => h = fnv(h, &[3]),
        }
        h = fnv(h, p.last_stage.as_bytes());
        h = fnv(h, &p.done_at_cycle.to_le_bytes());
        self.digest = h;
    }
}

/// One 16-device storm: every device drives `flow` under `policy`; `arm`
/// plants each device's faults.
fn run_storm(
    flow: &FlowRun,
    policy: Option<RecoveryPolicy>,
    arm: impl Fn(usize, &mut Device),
) -> (Vec<DeviceDone<DigestSink>>, f64) {
    let tasks: Vec<DeviceTask<DigestSink>> = (0..STORM_DEVICES)
        .map(|i| {
            let mut dev = router();
            arm(i, &mut dev);
            DeviceTask {
                device: dev,
                flows: vec![flow.clone()],
                sink: DigestSink::new(),
            }
        })
        .collect();
    let mut runtime = FleetRuntime::new(4);
    runtime.set_recovery(policy);
    let start = Instant::now();
    let done = runtime.run(tasks);
    (done, start.elapsed().as_secs_f64())
}

/// Assert every device outside `armed` ended digest-identical to `clean`.
fn assert_healthy_untouched(
    storm: &[DeviceDone<DigestSink>],
    clean: &[DeviceDone<DigestSink>],
    armed: &[usize],
) {
    for (i, (s, c)) in storm.iter().zip(clean).enumerate() {
        if !armed.contains(&i) {
            assert_eq!(
                s.sink.digest, c.sink.digest,
                "healthy device {i} perturbed by its faulty peers"
            );
        }
    }
}

/// The bisection fleet: reference vs priority-inverted, empty tables so
/// behaviour is a pure function of the churn prefix.
fn bisect_fleet() -> DifferentialFleet {
    let inverted = Backend::SdnetSim(SdnetProfile {
        name: "prio-inverted".into(),
        bugs: vec![BugSpec::PriorityInverted],
        limits: ArchLimits::UNLIMITED,
        faults: vec![],
    });
    DifferentialFleet::new()
        .with(
            "reference",
            Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
        )
        .with(
            "prio-inverted",
            Device::deploy_source(&inverted, corpus::IPV4_FORWARD).unwrap(),
        )
}

/// Windows `0..EPOCHS`: window 0 installs the broad /8, `BAD_EPOCH` the
/// overlapping /16 a priority-inverting member shadows, the rest install
/// routes the traffic never matches.
fn bisect_schedule() -> ChurnSchedule {
    let mut schedule = ChurnSchedule::new();
    for w in 0..EPOCHS {
        let (prefix, prefix_len, args) = match w {
            0 => (0x0A00_0000, 8, vec![0xAA, 1]),
            BAD_EPOCH => (0x0A00_0000, 16, vec![0xBB, 2]),
            _ => (0x1400_0000 | (u128::from(w) << 16), 16, vec![0xCC, 3]),
        };
        let op = ChurnOp::Lpm {
            table: "ipv4_lpm".into(),
            prefix,
            prefix_len,
            action: "ipv4_forward".into(),
            args,
        };
        schedule = schedule.before_window(w, op);
    }
    schedule
}

fn main() {
    let mut json_rows: Vec<String> = Vec::new();

    banner("fault_storm: fault-free overhead of the containing driver");
    let flows = build_flows(OVERHEAD_FLOWS, OVERHEAD_FRAMES, 0);
    let packets = OVERHEAD_FLOWS as u64 * OVERHEAD_FRAMES;
    let contained = |policy: Option<RecoveryPolicy>| {
        let mut dev = router();
        let mut sink = DigestSink::new();
        let start = Instant::now();
        let run = drive_device_with(&mut dev, &flows, 256, &mut sink, policy);
        assert!(run.result.is_ok() && run.fault.is_none() && run.recoveries.is_empty());
        assert_eq!(run.stats.packets, packets);
        start.elapsed().as_secs_f64()
    };
    // Interleaved, so host drift hits the three configurations alike.
    let [mut raw_secs, mut budget0_secs, mut default_secs] = [f64::INFINITY; 3];
    for _ in 0..OVERHEAD_REPS {
        raw_secs = raw_secs.min({
            let mut dev = router();
            let mut sink = DigestSink::new();
            let start = Instant::now();
            let (stats, result) = drive_device(&mut dev, &flows, 256, &mut sink);
            assert!(result.is_ok());
            assert_eq!(stats.packets, packets);
            start.elapsed().as_secs_f64()
        });
        budget0_secs = budget0_secs.min(contained(None));
        default_secs = default_secs.min(contained(Some(RecoveryPolicy::default())));
    }
    let quarantine_pct = (budget0_secs / raw_secs - 1.0) * 100.0;
    let checkpoint_pct = (default_secs / budget0_secs - 1.0) * 100.0;
    println!(
        "{packets} pkts best-of-{OVERHEAD_REPS}: raw {:.3}ms, budget 0 {:.3}ms ({quarantine_pct:+.2}%), \
         default policy {:.3}ms ({checkpoint_pct:+.2}% over budget 0)",
        raw_secs * 1e3,
        budget0_secs * 1e3,
        default_secs * 1e3
    );
    json_rows.push(format!(
        "    {{\"config\": \"fault_free_overhead\", \"packets\": {packets}, \"raw_ms\": {:.3}, \"budget0_ms\": {:.3}, \"default_policy_ms\": {:.3}, \"quarantine_overhead_pct\": {quarantine_pct:.2}, \"checkpoint_overhead_pct\": {checkpoint_pct:.2}}}",
        raw_secs * 1e3,
        budget0_secs * 1e3,
        default_secs * 1e3
    ));

    banner("fault_storm: time-to-culprit in a 16-device storm");
    let needle_flow = build_flows(1, NEEDLE_FRAMES, 0).remove(0);
    let (needle_clean, needle_clean_secs) = run_storm(&needle_flow, None, |_, _| {});
    assert!(needle_clean.iter().all(|d| d.fault.is_none()));
    let (needle, needle_secs) = run_storm(&needle_flow, None, |i, dev| {
        if i == FAULTY_DEVICE {
            dev.arm_fault(FaultSpec::PanicAfterN { n: NEEDLE_AT });
        }
    });
    let fault = needle[FAULTY_DEVICE]
        .fault
        .as_ref()
        .expect("the armed device must be quarantined");
    let culprit = fault.culprit.as_ref().expect("culprit frame isolated");
    println!(
        "armed run: {needle_secs:.3}s (clean {needle_clean_secs:.3}s); device-{FAULTY_DEVICE} \
         quarantined: [{}@{}] culprit seq {} after {} clean frames",
        fault.fault, fault.stage, culprit.seq, fault.packets_delivered
    );
    json_rows.push(format!(
        "    {{\"config\": \"time_to_culprit\", \"devices\": {STORM_DEVICES}, \"frames\": {NEEDLE_FRAMES}, \"needle_at\": {NEEDLE_AT}, \"run_ms\": {:.3}, \"clean_run_ms\": {:.3}, \"culprit_seq\": {}}}",
        needle_secs * 1e3,
        needle_clean_secs * 1e3,
        culprit.seq
    ));

    banner("fault_storm: 16-device recovery storm, three faults, zero quarantines");
    // Every device carries the same mid-stream churn publication so the
    // `TransientPublication` member exercises its driver retry.
    let mut recovery_flow = build_flows(1, RECOVERY_FRAMES, RECOVERY_GAP_CYCLES).remove(0);
    recovery_flow.triggers = vec![(
        PUB_TRIGGER_AT,
        ChurnOp::Lpm {
            table: "ipv4_lpm".into(),
            prefix: 0x1400_0000,
            prefix_len: 8,
            action: "ipv4_forward".into(),
            args: vec![0xCC, 3],
        },
    )];
    let policy = Some(RecoveryPolicy::default());
    let (recovery_clean, recovery_clean_secs) = run_storm(&recovery_flow, policy, |_, _| {});
    assert!(recovery_clean
        .iter()
        .all(|d| d.fault.is_none() && d.recoveries.is_empty()));
    let (recovered, recovered_secs) = run_storm(&recovery_flow, policy, |i, dev| match i {
        PANIC_DEVICE => dev.arm_fault(FaultSpec::PanicAfterN { n: PANIC_AT }),
        STALL_DEVICE => dev.arm_fault(FaultSpec::Stall { after: STALL_AT }),
        PUB_DEVICE => dev.arm_fault(FaultSpec::TransientPublication {
            fail_first: PUB_FAIL_FIRST,
        }),
        _ => {}
    });
    let rec_of = |i: usize| &recovered[i].recoveries[0];
    let latency = |i: usize| {
        let r = rec_of(i);
        r.recovered_at_cycle.saturating_sub(r.checkpoint_cycle)
    };
    let recoveries_total: usize = recovered.iter().map(|d| d.recoveries.len()).sum();
    let permanent_total = recovered.iter().filter(|d| d.fault.is_some()).count();
    println!(
        "armed run: {recovered_secs:.3}s (clean {recovery_clean_secs:.3}s); device-{PANIC_DEVICE} [{}] \
         rejoined in {} virtual cycles, device-{STALL_DEVICE} [{}] in {}, \
         device-{PUB_DEVICE} [{}] converged in-place",
        rec_of(PANIC_DEVICE).fault,
        latency(PANIC_DEVICE),
        rec_of(STALL_DEVICE).fault,
        latency(STALL_DEVICE),
        rec_of(PUB_DEVICE).fault,
    );
    json_rows.push(format!(
        "    {{\"config\": \"recovery_storm\", \"devices\": {STORM_DEVICES}, \"frames\": {RECOVERY_FRAMES}, \"recoveries\": {recoveries_total}, \"permanent_quarantines\": {permanent_total}, \"panic_latency_cycles\": {}, \"stall_latency_cycles\": {}, \"run_ms\": {:.3}, \"clean_run_ms\": {:.3}}}",
        latency(PANIC_DEVICE),
        latency(STALL_DEVICE),
        recovered_secs * 1e3,
        recovery_clean_secs * 1e3
    ));

    banner("fault_storm: churn bisection vs linear scan");
    let mut fleet = bisect_fleet();
    let spec = StreamSpec {
        stream: 9,
        template: routable_frame(Ipv4Address::new(10, 0, 0, 9)),
        count: EPOCHS * 4,
        rate_pps: None,
        as_port: 1,
        sweeps: vec![],
        expect: Expectation::Any,
    };
    let start = Instant::now();
    let bisection = fleet
        .bisect_churn(&spec, &bisect_schedule(), 4)
        .expect("bisection runs");
    let bisect_secs = start.elapsed().as_secs_f64();
    let linear_probes = EPOCHS + 1;
    println!(
        "first failing epoch {:?} in {} probes ({} epochs; linear scan = {linear_probes} runs), {bisect_secs:.3}s",
        bisection.first_epoch, bisection.probes, bisection.epochs_total
    );
    json_rows.push(format!(
        "    {{\"config\": \"bisect_churn\", \"epochs\": {EPOCHS}, \"bad_epoch\": {BAD_EPOCH}, \"probes\": {}, \"linear_probes\": {linear_probes}, \"secs\": {bisect_secs:.3}}}",
        bisection.probes
    ));

    banner("fault_storm: publication-retry convergence");
    let mut retry_rows = Vec::new();
    for fail_first in 1..=3u32 {
        let mut twin = router();
        let mut dev = router();
        dev.arm_fault(FaultSpec::TransientPublication { fail_first });
        let clock_before = dev.now();
        for k in 0..4u8 {
            for d in [&mut twin, &mut dev] {
                d.install_lpm(
                    "ipv4_lpm",
                    0x1500_0000 + (u128::from(k) << 16),
                    16,
                    "ipv4_forward",
                    vec![0xDD, u128::from(k % 4)],
                )
                .expect("twin installs cleanly, the armed device's retry must converge");
            }
        }
        let backoff = dev.now() - clock_before;
        let epoch = dev.control_plane().epoch("ipv4_lpm").expect("table exists");
        let twin_epoch = twin
            .control_plane()
            .epoch("ipv4_lpm")
            .expect("table exists");
        assert_eq!(
            epoch, twin_epoch,
            "retried publications must reconcile to the unfaulted epoch"
        );
        assert_eq!(dev.retried_publications(), 1, "one publication retried");
        assert_eq!(dev.last_retried_epoch(), Some(epoch - 3));
        println!(
            "fail_first={fail_first}: converged on attempt {}, {backoff} backoff cycles, epoch {epoch} == twin",
            fail_first + 1
        );
        retry_rows.push(format!(
            "{{\"fail_first\": {fail_first}, \"attempts\": {}, \"backoff_cycles\": {backoff}, \"epoch\": {epoch}, \"converged\": true}}",
            fail_first + 1
        ));
    }
    json_rows.push(format!(
        "    {{\"config\": \"publication_retry\", \"sweep\": [{}]}}",
        retry_rows.join(", ")
    ));

    let json = format!(
        "{{\n  \"experiment\": \"fault_storm\",\n  \"meta\": {},\n  \"overhead_gate_pct\": {OVERHEAD_GATE_PCT},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(packets as usize),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // ---- Smoke assertions (run in CI) ----
    // 1. Containment must be free until a device trips, and keeping a
    //    recovery budget must stay cheap on fault-free traffic.
    assert!(
        quarantine_pct <= OVERHEAD_GATE_PCT,
        "budget-0 overhead {quarantine_pct:.2}% exceeds the {OVERHEAD_GATE_PCT}% gate \
         ({budget0_secs:.4}s vs {raw_secs:.4}s)"
    );
    assert!(
        checkpoint_pct <= OVERHEAD_GATE_PCT,
        "checkpoint overhead {checkpoint_pct:.2}% exceeds the {OVERHEAD_GATE_PCT}% gate \
         ({default_secs:.4}s vs {budget0_secs:.4}s)"
    );
    // 2. Needle: exactly one member quarantined, with the exact culprit
    //    frame, and the other 15 bit-identical to the fault-free run.
    assert_eq!(
        needle.iter().filter(|d| d.fault.is_some()).count(),
        1,
        "exactly the armed device is quarantined"
    );
    assert_eq!(fault.fault, "panic-after-n");
    assert_eq!(culprit.seq, NEEDLE_AT, "culprit must be the exact frame");
    assert_eq!(fault.packets_delivered, NEEDLE_AT);
    assert_healthy_untouched(&needle, &needle_clean, &[FAULTY_DEVICE]);
    // 3. Recovery storm: zero permanent quarantines — all 16 members
    //    finish the run — and exactly three recoveries, each naming its
    //    fault and culprit.
    assert_eq!(
        permanent_total, 0,
        "no member may be permanently quarantined"
    );
    assert_eq!(
        recoveries_total, 3,
        "exactly the three armed members recover"
    );
    assert_eq!(rec_of(PANIC_DEVICE).fault, "panic-after-n");
    assert_eq!(rec_of(PANIC_DEVICE).culprit.as_ref().unwrap().seq, PANIC_AT);
    assert_eq!(rec_of(STALL_DEVICE).fault, "stall");
    assert_eq!(rec_of(STALL_DEVICE).stage, "watchdog");
    assert_eq!(rec_of(STALL_DEVICE).culprit.as_ref().unwrap().seq, STALL_AT);
    assert_eq!(rec_of(PUB_DEVICE).fault, "transient-publication");
    assert!(rec_of(PUB_DEVICE).culprit.is_none());
    // 4. Recovery is bounded: at most one checkpoint interval replayed,
    //    and the rejoin happened at a real virtual instant.
    for i in [PANIC_DEVICE, STALL_DEVICE] {
        assert!(
            rec_of(i).frames_replayed <= RecoveryPolicy::default().checkpoint_interval,
            "device {i} replayed {} frames",
            rec_of(i).frames_replayed
        );
        assert!(latency(i) > 0, "device {i} rejoin must advance the clock");
    }
    // 5. Every member — recovered ones included — delivered every frame,
    //    and the 13 untouched members match the clean run.
    for (i, d) in recovered.iter().enumerate() {
        assert_eq!(d.sink.packets, RECOVERY_FRAMES, "device {i} fell short");
    }
    assert_healthy_untouched(
        &recovered,
        &recovery_clean,
        &[PANIC_DEVICE, STALL_DEVICE, PUB_DEVICE],
    );
    // 6. Bisection beats the linear scan and lands on the right epoch.
    assert_eq!(bisection.first_epoch, Some(BAD_EPOCH));
    assert!(!bisection.fails_without_churn);
    assert!(
        bisection.probes < linear_probes,
        "bisection ({} probes) must beat the linear scan ({linear_probes})",
        bisection.probes
    );
    assert!(
        bisection.probes <= 2 + (EPOCHS as f64).log2().ceil() as u64,
        "bisection must stay logarithmic: {} probes over {EPOCHS} epochs",
        bisection.probes
    );
}
