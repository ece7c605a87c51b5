//! fault_storm — cost, precision and exactness of fault containment.
//!
//! Five experiments around `netdebug::runtime::drive_device_with` (the
//! one containing driver behind `FleetRuntime::run`, `DifferentialFleet`
//! and `NetDebug`):
//!
//! 1. **Fault-free overhead** — one unarmed workload through the raw
//!    event loop (`drive_device`), the containing driver at budget 0
//!    (one armed-fault check and one `catch_unwind` frame) and at the
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
//!    first k publication attempts, k = 1..3: `Device::write`'s bounded
//!    backoff (charged to the virtual clock) converges every time, to an
//!    unfaulted twin's table epoch.
//!
//! Numbers land in `BENCH_fault.json` at the repo root; the gates above
//! run as smoke assertions in CI.

use netdebug::churn::{ChurnOp, ChurnSchedule};
use netdebug::generator::{Expectation, StreamSpec};
use netdebug::runtime::{
    drive_device, drive_device_with, DeviceDone, DeviceTask, FleetRuntime, FlowRun, RecoveryPolicy,
};
use netdebug::DifferentialFleet;
use netdebug_bench::{
    banner, dec, routable_frame, router_device, router_flows, row, DigestSink, Report, Value,
};
use netdebug_dataplane::{lpm_pattern, TableEntry, Update};
use netdebug_hw::{ArchLimits, Backend, BugSpec, Device, FaultSpec, SdnetProfile};
use netdebug_p4::corpus;
use netdebug_packet::Ipv4Address;
use std::process::ExitCode;
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
    router_device(&Backend::reference())
}

/// `gap` paces the flows in virtual cycles per frame (0 = back-to-back).
fn build_flows(flows: usize, frames: u64, gap: u64) -> Vec<FlowRun> {
    let dst = |j: usize| Ipv4Address::new(10, 0, 1, (j % 250) as u8);
    router_flows(flows, frames, dst, |_| gap)
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
                sink: DigestSink::default(),
            }
        })
        .collect();
    let mut runtime = FleetRuntime::new(4);
    runtime.set_recovery(policy);
    let start = Instant::now();
    let done = runtime.run(tasks);
    (done, start.elapsed().as_secs_f64())
}

/// Whether every device outside `armed` ended digest-identical to `clean`.
fn healthy_untouched(
    storm: &[DeviceDone<DigestSink>],
    clean: &[DeviceDone<DigestSink>],
    armed: &[usize],
) -> bool {
    let mut pairs = storm.iter().zip(clean).enumerate();
    pairs.all(|(i, (s, c))| armed.contains(&i) || s.sink.digest == c.sink.digest)
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
        let op = ChurnOp::Install {
            table: "ipv4_lpm".into(),
            patterns: vec![lpm_pattern(prefix, prefix_len, 32)],
            action: "ipv4_forward".into(),
            args,
            priority: i32::from(prefix_len),
        };
        schedule = schedule.before_window(w, op);
    }
    schedule
}

fn main() -> ExitCode {
    let packets = OVERHEAD_FLOWS as u64 * OVERHEAD_FRAMES;
    let mut report = Report::new("fault_storm", "BENCH_fault.json", packets as usize);
    report.set("overhead_gate_pct", Value::Dec(OVERHEAD_GATE_PCT, 0));

    banner("fault_storm: fault-free overhead of the containing driver");
    let flows = build_flows(OVERHEAD_FLOWS, OVERHEAD_FRAMES, 0);
    let contained = |policy: Option<RecoveryPolicy>| {
        let mut dev = router();
        let mut sink = DigestSink::default();
        let start = Instant::now();
        let run = drive_device_with(&mut dev, &flows, 256, &mut sink, policy);
        assert!(run.result.is_ok() && run.fault.is_none() && run.recoveries.is_empty());
        assert_eq!(run.stats.packets, packets);
        start.elapsed().as_secs_f64()
    };
    // Best-of-N, interleaved, so host drift hits the three configurations
    // alike.
    let [mut raw_secs, mut budget0_secs, mut default_secs] = [f64::INFINITY; 3];
    for _ in 0..OVERHEAD_REPS {
        raw_secs = raw_secs.min({
            let mut dev = router();
            let mut sink = DigestSink::default();
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
    let ms = |secs: f64| dec(secs * 1e3, 3);
    report.row(
        row!["config" => "fault_free_overhead", "packets" => packets,
        "raw_ms" => ms(raw_secs), "budget0_ms" => ms(budget0_secs),
        "default_policy_ms" => ms(default_secs),
        "quarantine_overhead_pct" => dec(quarantine_pct, 2),
        "checkpoint_overhead_pct" => dec(checkpoint_pct, 2)],
    );

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
    report.row(
        row!["config" => "time_to_culprit", "devices" => STORM_DEVICES,
        "frames" => NEEDLE_FRAMES, "needle_at" => NEEDLE_AT, "run_ms" => ms(needle_secs),
        "clean_run_ms" => ms(needle_clean_secs), "culprit_seq" => culprit.seq],
    );

    banner("fault_storm: 16-device recovery storm, three faults, zero quarantines");
    // Every device carries the same mid-stream churn publication so the
    // `TransientPublication` member exercises its driver retry.
    let mut recovery_flow = build_flows(1, RECOVERY_FRAMES, RECOVERY_GAP_CYCLES).remove(0);
    recovery_flow.triggers = vec![(
        PUB_TRIGGER_AT,
        ChurnOp::Install {
            table: "ipv4_lpm".into(),
            patterns: vec![lpm_pattern(0x1400_0000, 8, 32)],
            action: "ipv4_forward".into(),
            args: vec![0xCC, 3],
            priority: 8,
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
    // Recovery latency in virtual cycles, checkpoint to rejoin.
    let latency = |i: usize| {
        let r = rec_of(i);
        r.recovered_at_cycle.saturating_sub(r.checkpoint_cycle)
    };
    let recoveries_total: usize = recovered.iter().map(|d| d.recoveries.len()).sum();
    let permanent_total = recovered.iter().filter(|d| d.fault.is_some()).count();
    report.row(
        row!["config" => "recovery_storm", "devices" => STORM_DEVICES,
        "frames" => RECOVERY_FRAMES, "recoveries" => recoveries_total,
        "permanent_quarantines" => permanent_total,
        "panic_latency_cycles" => latency(PANIC_DEVICE),
        "stall_latency_cycles" => latency(STALL_DEVICE), "run_ms" => ms(recovered_secs),
        "clean_run_ms" => ms(recovery_clean_secs)],
    );

    banner("fault_storm: churn bisection vs linear scan");
    let mut fleet = bisect_fleet();
    let spec = StreamSpec {
        as_port: 1,
        ..StreamSpec::simple(
            9,
            routable_frame(Ipv4Address::new(10, 0, 0, 9)),
            EPOCHS * 4,
            Expectation::Any,
        )
    };
    let start = Instant::now();
    let bisection = fleet
        .bisect_churn(&spec, &bisect_schedule(), 4)
        .expect("bisection runs");
    let bisect_secs = start.elapsed().as_secs_f64();
    let linear_probes = EPOCHS + 1;
    report.row(
        row!["config" => "bisect_churn", "epochs" => EPOCHS, "bad_epoch" => BAD_EPOCH,
        "probes" => bisection.probes, "linear_probes" => linear_probes,
        "secs" => dec(bisect_secs, 3)],
    );

    banner("fault_storm: publication-retry convergence");
    let mut retry_rows = Vec::new();
    let mut retries_converged = true;
    for fail_first in 1..=3u32 {
        let mut twin = router();
        let mut dev = router();
        dev.arm_fault(FaultSpec::TransientPublication { fail_first });
        let clock_before = dev.now();
        for k in 0..4u8 {
            for d in [&mut twin, &mut dev] {
                d.write(&[Update::Insert(
                    "ipv4_lpm",
                    TableEntry::lpm(
                        0x1500_0000 + (u128::from(k) << 16),
                        16,
                        "ipv4_forward",
                        vec![0xDD, u128::from(k % 4)],
                    ),
                )])
                .expect("twin installs cleanly, the armed device's retry must converge");
            }
        }
        let backoff = dev.now() - clock_before;
        let epoch = dev.control_plane().epoch("ipv4_lpm").expect("table exists");
        let twin_epoch = twin
            .control_plane()
            .epoch("ipv4_lpm")
            .expect("table exists");
        // Retried publications reconcile to the unfaulted epoch, and
        // exactly one publication (the first) was retried.
        let converged = epoch == twin_epoch
            && dev.faults().retried_publications == 1
            && dev.faults().last_retried_epoch == Some(epoch - 3);
        retries_converged &= converged;
        retry_rows.push(Value::Obj(row!["fail_first" => u64::from(fail_first),
            "attempts" => u64::from(fail_first + 1), "backoff_cycles" => backoff,
            "epoch" => epoch, "converged" => converged]));
    }
    report.row(row!["config" => "publication_retry", "sweep" => Value::List(retry_rows)]);

    // ---- Gates (run in CI) ----
    // 1. Containment must be free until a device trips, and keeping a
    //    recovery budget must stay cheap on fault-free traffic.
    report.gate(
        &format!("budget-0 containment costs <= {OVERHEAD_GATE_PCT}% over the raw event loop"),
        quarantine_pct <= OVERHEAD_GATE_PCT,
        format!("{quarantine_pct:+.2}% ({budget0_secs:.4}s vs {raw_secs:.4}s)"),
    );
    report.gate(
        &format!("the default recovery policy costs <= {OVERHEAD_GATE_PCT}% over budget 0"),
        checkpoint_pct <= OVERHEAD_GATE_PCT,
        format!("{checkpoint_pct:+.2}% ({default_secs:.4}s vs {budget0_secs:.4}s)"),
    );
    // 2. Needle: exactly one member quarantined, with the exact culprit
    //    frame, and the other 15 bit-identical to the fault-free run.
    let quarantined = needle.iter().filter(|d| d.fault.is_some()).count();
    report.gate(
        "needle: exactly the armed device is quarantined, with frame #2048 as culprit",
        quarantined == 1
            && fault.fault == "panic-after-n"
            && culprit.seq == NEEDLE_AT
            && fault.packets_delivered == NEEDLE_AT,
        format!(
            "{quarantined} quarantined; device-{FAULTY_DEVICE} [{}@{}] culprit seq {} after {} clean frames",
            fault.fault, fault.stage, culprit.seq, fault.packets_delivered
        ),
    );
    report.gate(
        "needle: the 15 healthy digests match the fault-free run",
        healthy_untouched(&needle, &needle_clean, &[FAULTY_DEVICE]),
        "digest comparison".into(),
    );
    // 3. Recovery storm: zero permanent quarantines — all 16 members
    //    finish the run — and exactly three recoveries, each naming its
    //    fault and culprit.
    let names_culprit = |i: usize, fault: &str, seq: Option<u64>| {
        let trip = &rec_of(i).trip;
        trip.fault == fault && trip.culprit.as_ref().map(|c| c.seq) == seq
    };
    report.gate(
        "storm: zero permanent quarantines, exactly three recoveries, each naming its fault and culprit",
        permanent_total == 0
            && recoveries_total == 3
            && names_culprit(PANIC_DEVICE, "panic-after-n", Some(PANIC_AT))
            && names_culprit(STALL_DEVICE, "stall", Some(STALL_AT))
            && rec_of(STALL_DEVICE).trip.stage == "watchdog"
            && names_culprit(PUB_DEVICE, "transient-publication", None),
        format!(
            "{permanent_total} quarantined, {recoveries_total} recoveries: [{}] [{}] [{}]",
            rec_of(PANIC_DEVICE).trip.fault,
            rec_of(STALL_DEVICE).trip.fault,
            rec_of(PUB_DEVICE).trip.fault
        ),
    );
    // 4. Recovery is bounded: at most one checkpoint interval replayed,
    //    and the rejoin happened at a real virtual instant.
    let interval = RecoveryPolicy::default().checkpoint_interval;
    report.gate(
        "storm: each recovery replays at most one checkpoint interval and rejoins at a later virtual instant",
        [PANIC_DEVICE, STALL_DEVICE]
            .iter()
            .all(|&i| rec_of(i).frames_replayed <= interval && latency(i) > 0),
        format!(
            "replayed {} / {} frames, rejoined in {} / {} virtual cycles",
            rec_of(PANIC_DEVICE).frames_replayed,
            rec_of(STALL_DEVICE).frames_replayed,
            latency(PANIC_DEVICE),
            latency(STALL_DEVICE)
        ),
    );
    // 5. Every member — recovered ones included — delivered every frame,
    //    and the 13 untouched members match the clean run.
    report.gate(
        "storm: all 16 members deliver every frame and the 13 untouched digests match the clean run",
        recovered.iter().all(|d| d.sink.packets == RECOVERY_FRAMES)
            && healthy_untouched(
                &recovered,
                &recovery_clean,
                &[PANIC_DEVICE, STALL_DEVICE, PUB_DEVICE],
            ),
        "packet counts and digest comparison".into(),
    );
    // 6. Bisection beats the linear scan and lands on the right epoch.
    report.gate(
        "bisection lands on the bad epoch in <= 2 + ceil(log2(epochs)) fleet runs, under the linear scan",
        bisection.first_epoch == Some(BAD_EPOCH)
            && !bisection.fails_without_churn
            && bisection.probes < linear_probes
            && bisection.probes <= 2 + (EPOCHS as f64).log2().ceil() as u64,
        format!(
            "first failing epoch {:?} in {} probes over {} epochs (linear scan = {linear_probes})",
            bisection.first_epoch, bisection.probes, bisection.epochs_total
        ),
    );
    // 7. The driver's bounded backoff converges for k = 1..3.
    report.gate(
        "every transient publication converges to its unfaulted twin's epoch with one retried publication",
        retries_converged,
        "fail_first 1..=3".into(),
    );
    report.finish()
}
