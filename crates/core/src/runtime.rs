//! The virtual-time event-loop fleet runtime.
//!
//! Every [`netdebug_hw::Device`] keeps its own virtual clock, and before
//! this module each paced stream serialised packet-at-a-time on that
//! clock while `DifferentialFleet` burned one OS thread per device per
//! window. The runtime replaces both with an **event loop over virtual
//! device cycles**: each device's drive keeps one scheduler entry per
//! active flow in a binary heap, the loop pops the earliest pending virtual
//! instant, coalesces *every* injection due at that instant into one
//! batch-engine dispatch ([`netdebug_hw::Device::inject_batch_at`]), and
//! a small fixed pool of persistent workers ([`FleetRuntime`]) multiplexes
//! hundreds of devices — tens of thousands of paced flows — onto a few OS
//! threads.
//!
//! ## Determinism contract
//!
//! Runs are **bit-reproducible regardless of worker count**. Devices are
//! independent, so cross-device parallelism cannot reorder anything a
//! device observes; within a device the loop fixes a total order:
//! virtual time first, then flow (declaration order), then sequence
//! number. Results are joined in task (device) order, so verdicts, taps,
//! stats and drop counters from a 4-worker run are byte-identical to the
//! 1-worker (fully inline) run — property-tested against the sequential
//! one-device-at-a-time reference in `tests/prop.rs`.
//!
//! ## Churn epochs in virtual time
//!
//! A [`FlowRun`] carries churn triggers keyed to sequence numbers: when
//! the loop reaches trigger seq `s` it flushes every frame already
//! emitted, applies the scheduled [`ChurnOp`]s (atomic epoch
//! publications), and only then dispatches `s` — so churn epochs land at
//! scheduled virtual times across the whole fleet, identically on every
//! member and at every worker count.

use crate::churn::ChurnOp;
use crate::generator::GeneratedPacket;
use netdebug_dataplane::ControlError;
use netdebug_hw::{Device, FaultPanic, Processed};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default coalesced-dispatch cap: the event loop flushes its pending
/// frames to the device at least this often, matching the historical
/// 256-packet stream window so batch-engine arena sizes stay bounded.
pub const DEFAULT_MAX_BATCH: usize = 256;

/// One paced (or back-to-back) stream of pre-built frames aimed at a
/// device, plus the churn triggers scheduled against it.
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// Caller-chosen flow label, handed back to the [`DeviceSink`] with
    /// every packet (it does not affect scheduling order — flows fire in
    /// declaration order within an instant).
    pub id: u32,
    /// Ingress port every frame of this flow impersonates.
    pub as_port: u16,
    /// The frames, in sequence order. Shared so a fleet can aim one
    /// generated stimulus at hundreds of devices without copying it.
    pub frames: Arc<Vec<GeneratedPacket>>,
    /// Virtual-cycle origin: with `gap > 0`, frame `k` is due at
    /// `origin + gap * (k + 1)` — exactly the clock the historical
    /// advance-then-inject loop produced; with `gap == 0` every frame is
    /// due at `origin` (back-to-back).
    pub origin: u64,
    /// Inter-packet gap in device cycles (0 = back-to-back).
    pub gap: u64,
    /// Churn triggers: `(seq, op)` pairs, sorted by seq. Ops for seq `s`
    /// publish after frame `s - 1` is dispatched and before frame `s` is.
    pub triggers: Vec<(u64, ChurnOp)>,
}

impl FlowRun {
    /// A plain flow: no pacing gap means every frame is due at `origin`.
    pub fn new(id: u32, as_port: u16, frames: Arc<Vec<GeneratedPacket>>) -> Self {
        FlowRun {
            id,
            as_port,
            frames,
            origin: 0,
            gap: 0,
            triggers: Vec::new(),
        }
    }

    /// The virtual cycle frame `seq` is due at, saturating at the end of
    /// virtual time rather than wrapping back to its start.
    pub fn due(&self, seq: u64) -> u64 {
        self.origin
            .saturating_add(self.gap.saturating_mul(seq.saturating_add(1)))
    }
}

/// Consumer of a device's processed packets, called in the runtime's
/// deterministic order (virtual time, then flow, then seq).
pub trait DeviceSink {
    /// One packet of `flow` (the [`FlowRun::id`]) finished processing.
    fn on_packet(&mut self, flow: u32, seq: u64, p: Processed);
}

/// Observability counters for one event-loop run (or, via
/// [`FleetRuntime::stats`], accumulated across a whole fleet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Distinct virtual instants the loop dispatched at.
    pub instants: u64,
    /// Packets emitted through the event loop.
    pub packets: u64,
    /// Coalesced dispatches into the device (each one batch-engine call
    /// chain via `inject_batch_at`).
    pub dispatches: u64,
    /// Largest number of flows ready at one virtual instant (ready-queue
    /// depth).
    pub max_ready_depth: u64,
    /// Largest coalesced dispatch, in frames.
    pub max_batch: u64,
    /// Always 0; kept because serialized reports and the repo benchmark
    /// read it.
    pub wheel_cascades: u64,
    /// Device flow-cache hits over the run (memoized fast-path replays —
    /// see `netdebug_dataplane::Dataplane::cache_stats`).
    pub cache_hits: u64,
    /// Device flow-cache misses over the run.
    pub cache_misses: u64,
    /// Device flow-cache invalidations (epoch bumps that dropped a
    /// non-empty cache) over the run — churn triggers show up here.
    pub cache_invalidations: u64,
    /// Trips [`drive_device_with`] contained (a crash-class fault, a
    /// genuine panic or a silent stall caught mid-run), recovered or not;
    /// see [`DeviceFault`].
    pub faults: u64,
    /// Successful checkpoint/restore rejoins (see [`DeviceRecovery`]):
    /// each one is a trip that did **not** cost the run a device.
    pub recoveries: u64,
}

impl RuntimeStats {
    /// Fold another run's counters into this one (sums, maxima for the
    /// depth/batch watermarks).
    pub fn absorb(&mut self, other: &RuntimeStats) {
        self.instants += other.instants;
        self.packets += other.packets;
        self.dispatches += other.dispatches;
        self.max_ready_depth = self.max_ready_depth.max(other.max_ready_depth);
        self.max_batch = self.max_batch.max(other.max_batch);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.faults += other.faults;
        self.recoveries += other.recoveries;
    }

    /// Mean frames per coalesced dispatch.
    pub fn mean_batch(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.packets as f64 / self.dispatches as f64
        }
    }
}

// ---------------------------------------------------------------------
// The per-device scheduler
// ---------------------------------------------------------------------

/// The flows of one drive that still have frames to emit, keyed by the
/// virtual instant each one's next frame is due at. A device carries at
/// most a few dozen flows, so a binary heap is all the structure the
/// determinism contract needs: it yields (due, flow) in exactly that
/// order.
struct Scheduler {
    pending: BinaryHeap<Reverse<(u64, u32)>>,
    now: u64,
}

impl Scheduler {
    fn new(now: u64) -> Self {
        Scheduler {
            pending: BinaryHeap::new(),
            now,
        }
    }

    /// File `flow` to fire at `due` (clamped to `now`: virtual time never
    /// runs backwards).
    fn schedule(&mut self, due: u64, flow: u32) {
        self.pending.push(Reverse((due.max(self.now), flow)));
    }

    /// Pop every flow due at the earliest pending instant into `out`
    /// (sorted by flow), advancing `now` to that instant. Returns the
    /// instant, or `None` when nothing is pending.
    fn pop_next(&mut self, out: &mut Vec<u32>) -> Option<u64> {
        out.clear();
        let Reverse((instant, first)) = self.pending.pop()?;
        self.now = instant;
        out.push(first);
        while let Some(&Reverse((due, flow))) = self.pending.peek() {
            if due != instant {
                break;
            }
            self.pending.pop();
            out.push(flow);
        }
        Some(instant)
    }
}

// ---------------------------------------------------------------------
// Per-device event loop
// ---------------------------------------------------------------------

/// Where one flow's emission stands: the next frame and the next churn
/// trigger. A drive starts every flow at the default, zero.
#[derive(Debug, Clone, Default)]
struct FlowCursor {
    next_seq: u64,
    trigger: usize,
}

/// Virtual-cycle deadline [`drive_device_with`] charges to a device that
/// went silent before declaring it dead: models the liveness watchdog's
/// time-to-detection, exactly as `WedgeParser` charges its burned budget.
/// A rejoin restores the pre-wedge clock, so the burn is observable only
/// on permanently quarantined members.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 4096;

/// How [`drive_device_with`] (and a [`FleetRuntime`] through
/// [`FleetRuntime::set_recovery`]) contains a tripped device. Quarantine
/// is the `max_recoveries == 0` case: the first trip is located and
/// reported, never rejoined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Recoveries allowed per device per run before the device is
    /// permanently quarantined (a device that keeps dying is reported,
    /// not retried forever). With 0 the driver keeps only a start-of-run
    /// checkpoint, and only for devices with armed faults.
    pub max_recoveries: u32,
    /// Checkpoint cadence in **delivered frames**: a bounded-replay knob
    /// — after a trip, at most this many frames (plus the failed batch)
    /// replay silently from the last checkpoint. Unused with a zero
    /// budget.
    pub checkpoint_interval: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_recoveries: 4,
            checkpoint_interval: 64,
        }
    }
}

/// One successful quarantine-rejoin: the device tripped (or went
/// silent), was restored from its last checkpoint, silently replayed the
/// frames it had already delivered, skipped the isolated culprit (booked
/// as [`netdebug_dataplane::DropReason::Faulted`]) and rejoined the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecovery {
    /// Which device: the fleet member label, or `device-<task index>`
    /// for bare [`FleetRuntime::run`] tasks.
    pub member: String,
    /// Stable fault id (as in [`DeviceFault::fault`]; `"stall"` for a
    /// watchdog-detected silent wedge).
    pub fault: String,
    /// Pipeline position (`"ingress"`, `"parser"`, `"driver"`, or
    /// `"watchdog"` for stalls).
    pub stage: String,
    /// Human-readable payload detail.
    pub detail: String,
    /// Virtual cycle the restored checkpoint was taken at.
    pub checkpoint_cycle: u64,
    /// Frames silently replayed between the checkpoint and the culprit.
    pub frames_replayed: u64,
    /// The skipped culprit frame.
    pub culprit: Option<CulpritFrame>,
    /// Virtual cycle the device rejoined the run at.
    pub recovered_at_cycle: u64,
}

/// A resumable drive position: the device's full state plus the per-flow
/// emission cursors, both captured at a flush boundary (so the cursors
/// exactly match the frames the device has consumed).
struct DriveCheckpoint {
    device: netdebug_hw::DeviceCheckpoint,
    cursors: Vec<FlowCursor>,
    delivered: u64,
}

/// The checkpoint state of one [`drive_device_with`] call: the last
/// checkpoint, plus the delivered-frame cadence that schedules the next
/// one while a recovery budget remains.
struct Checkpoints {
    interval: u64,
    delivered: u64,
    next_at: u64,
    last: Option<DriveCheckpoint>,
}

impl Checkpoints {
    /// Capture a checkpoint at the current drive position.
    fn take(&mut self, device: &Device, cursors: &[FlowCursor]) {
        self.last = Some(DriveCheckpoint {
            device: device.checkpoint(),
            cursors: cursors.to_vec(),
            delivered: self.delivered,
        });
        self.next_at = self.delivered + self.interval;
    }
}

/// How one [`Drive::run`] ended (short of a control error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriveEnd {
    /// Every frame of every flow was dispatched.
    Completed,
    /// The locating replay caught a trip; its [`Caught`] holds the
    /// evidence.
    Interrupted,
    /// The device went silent mid-run (a [`netdebug_hw::FaultSpec::Stall`]
    /// wedge): frames were dispatched but swallowed without outcomes.
    Stalled,
}

/// The single culprit frame a fault was bisected down to: replayed solo
/// under `catch_unwind`, with its bytes attached so the failure is
/// reproducible outside the run that found it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CulpritFrame {
    /// The [`FlowRun::id`] the frame belongs to.
    pub flow: u32,
    /// Sequence number within the flow.
    pub seq: u64,
    /// Ingress port the frame was injected on.
    pub port: u16,
    /// The frame bytes.
    pub bytes: Vec<u8>,
    /// Last pipeline stage reached by the final packet delivered before
    /// the culprit (from the locating replay's trace taps), when any
    /// packet was delivered at all.
    pub prior_stage: Option<String>,
}

/// Structured record of a quarantined device: what fired, where, and the
/// culprit the solo replay isolated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFault {
    /// Which device: the fleet member label, or `device-<task index>`
    /// for bare [`FleetRuntime::run`] tasks.
    pub member: String,
    /// Stable fault id (a [`netdebug_hw::FaultSpec`] id via the typed
    /// panic payload, `"stall"` for a silent wedge, or `"panic"` for an
    /// untyped panic).
    pub fault: String,
    /// Pipeline position the fault fired at (`"ingress"`, `"parser"`,
    /// `"driver"`, `"watchdog"` for stalls, or `"unknown"` for untyped
    /// panics).
    pub stage: String,
    /// Human-readable payload detail.
    pub detail: String,
    /// Packets the device delivered before the trip (exact when the
    /// locating replay ran; the dispatched count otherwise).
    pub packets_delivered: u64,
    /// The single culprit frame, when the fault keyed on a frame.
    pub culprit: Option<CulpritFrame>,
    /// The churn trigger that fired the fault (publication faults),
    /// rendered as `flow <id> seq <s>: <op>`.
    pub trigger: Option<String>,
}

type PanicPayload = Box<dyn std::any::Any + Send>;

/// What the locating replay caught: the culprit (frame or trigger) and
/// the panic payload it raised (none for a silent stall).
#[derive(Default)]
struct Caught {
    culprit: Option<CulpritFrame>,
    trigger: Option<String>,
    payload: Option<PanicPayload>,
}

/// What a [`Drive`] does around each dispatch.
enum Mode<'a> {
    /// Whole-batch dispatch and nothing else: the hot path.
    Plain,
    /// Whole-batch dispatch; clean flushes feed the checkpoint cadence.
    Checkpointing(&'a mut Checkpoints),
    /// The locating replay: every frame and every churn trigger runs
    /// solo under `catch_unwind`, and the first to die — by panic or by
    /// silent swallow — is recorded instead of unwinding.
    Locating(&'a mut Caught),
}

/// How a drive ends before its last frame: the [`DriveEnd`], or the
/// control error of a rejected churn op.
type DriveExit = Result<DriveEnd, ControlError>;

/// The state one drive threads through its emission and flush sites:
/// where frames go (device, sink, stats), what happens around each
/// dispatch, and the frames emitted but not yet dispatched.
struct Drive<'a, 'f, S: ?Sized> {
    device: &'a mut Device,
    sink: &'a mut S,
    stats: &'a mut RuntimeStats,
    mode: Mode<'a>,
    pkts: Vec<(u16, &'f [u8])>,
    dues: Vec<u64>,
    meta: Vec<(u32, u64)>,
}

impl<'a, 'f, S: DeviceSink + ?Sized> Drive<'a, 'f, S> {
    fn new(
        device: &'a mut Device,
        sink: &'a mut S,
        stats: &'a mut RuntimeStats,
        mode: Mode<'a>,
    ) -> Self {
        Drive {
            device,
            sink,
            stats,
            mode,
            pkts: Vec::new(),
            dues: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Emit every frame of `flows` from `cursors` on, in the determinism
    /// contract's order, in dispatches of at most `max_batch` frames.
    fn run(
        mut self,
        flows: &'f [FlowRun],
        cursors: &mut [FlowCursor],
        max_batch: usize,
    ) -> DriveExit {
        debug_assert_eq!(cursors.len(), flows.len());
        let max_batch = max_batch.max(1);
        let exit = match flows {
            [flow] => self.run_single(flow, cursors, max_batch),
            _ => self.run_scheduled(flows, cursors, max_batch),
        };
        match exit {
            ControlFlow::Continue(()) => Ok(DriveEnd::Completed),
            ControlFlow::Break(exit) => exit,
        }
    }

    /// Queue frame `seq` of `flow`, due at `due`.
    fn push(&mut self, flow: &'f FlowRun, seq: u64, due: u64) {
        self.pkts
            .push((flow.as_port, flow.frames[seq as usize].data.as_slice()));
        self.dues.push(due);
        self.meta.push((flow.id, seq));
    }

    /// Dispatch the pending frames; `Some` ends the drive. Outside the
    /// locating replay this is one batch-engine call chain, with a
    /// delivered-count acting as the **liveness watchdog** — a device
    /// that returns fewer outcomes than frames has silently wedged, and
    /// the dispatch reports [`DriveEnd::Stalled`] instead of pretending
    /// the frames were processed. The locating replay **bisects** the
    /// batch: every frame dispatches solo under `catch_unwind`, and the
    /// first one to die is recorded as the culprit, bytes attached.
    fn dispatch(&mut self) -> Option<DriveEnd> {
        let Drive {
            device,
            sink,
            stats,
            mode,
            pkts,
            dues,
            meta,
        } = self;
        if pkts.is_empty() {
            return None;
        }
        stats.dispatches += 1;
        stats.packets += pkts.len() as u64;
        stats.max_batch = stats.max_batch.max(pkts.len() as u64);
        let mut end = None;
        if let Mode::Locating(caught) = mode {
            for i in 0..pkts.len() {
                let (flow, seq) = meta[i];
                let mut seen = false;
                let solo = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    device
                        .inject_batch_at(&pkts[i..=i], &dues[i..=i], |_, p| {
                            seen = true;
                            sink.on_packet(flow, seq, p);
                        })
                        .expect("one frame, one due time");
                }));
                end = match solo {
                    Err(payload) => {
                        caught.payload = Some(payload);
                        Some(DriveEnd::Interrupted)
                    }
                    // A solo frame that came back without an outcome was
                    // swallowed by a stall wedge: same culprit treatment,
                    // no payload.
                    Ok(()) if !seen => Some(DriveEnd::Stalled),
                    Ok(()) => continue,
                };
                caught.culprit = Some(CulpritFrame {
                    flow,
                    seq,
                    port: pkts[i].0,
                    bytes: pkts[i].1.to_vec(),
                    prior_stage: None,
                });
                break;
            }
        } else {
            let labels: &[(u32, u64)] = meta;
            let mut seen = 0usize;
            device
                .inject_batch_at(pkts, dues, |i, p| {
                    seen += 1;
                    let (flow, seq) = labels[i];
                    sink.on_packet(flow, seq, p);
                })
                .expect("frame and due lists are built in lockstep");
            if seen < pkts.len() {
                end = Some(DriveEnd::Stalled);
            }
        }
        pkts.clear();
        dues.clear();
        meta.clear();
        end
    }

    /// One flush step: dispatch the pending frames and either continue
    /// or end the drive. A clean flush folds its frame count into the
    /// checkpoint cadence and, when `checkpoint_at` is given, takes a
    /// fresh checkpoint once one is due. Pass the cursors only at flush
    /// sites where they exactly describe the device's consumed frames —
    /// NOT at trigger-drain flushes: there the trigger index has advanced
    /// past an op that has not been applied yet, so a checkpoint would
    /// replay without it.
    fn flush(&mut self, checkpoint_at: Option<&[FlowCursor]>) -> ControlFlow<DriveExit> {
        let n = self.pkts.len() as u64;
        if let Some(end) = self.dispatch() {
            return ControlFlow::Break(Ok(end));
        }
        if let Mode::Checkpointing(ckpts) = &mut self.mode {
            ckpts.delivered += n;
            if let Some(cursors) = checkpoint_at {
                if ckpts.delivered >= ckpts.next_at {
                    ckpts.take(self.device, cursors);
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Publish the triggers of `flow` due at or before seq `s`, each
    /// after flushing the frames emitted ahead of it. The locating replay
    /// catches a device panic inside the op (e.g. a `FailPublication`
    /// fault) so the publication that tripped can be named in the
    /// [`DeviceFault`] record.
    fn drain_triggers(
        &mut self,
        flow: &FlowRun,
        cursor: &mut FlowCursor,
        s: u64,
    ) -> ControlFlow<DriveExit> {
        while cursor.trigger < flow.triggers.len() && flow.triggers[cursor.trigger].0 <= s {
            let op = &flow.triggers[cursor.trigger].1;
            cursor.trigger += 1;
            self.flush(None)?;
            let applied = match &mut self.mode {
                Mode::Locating(caught) => {
                    let device = &mut *self.device;
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        op.apply(device)
                    })) {
                        Ok(applied) => applied,
                        Err(payload) => {
                            caught.trigger = Some(format!("flow {} seq {s}: {op:?}", flow.id));
                            caught.payload = Some(payload);
                            return ControlFlow::Break(Ok(DriveEnd::Interrupted));
                        }
                    }
                }
                _ => op.apply(self.device),
            };
            if let Err(e) = applied {
                return ControlFlow::Break(Err(e));
            }
        }
        ControlFlow::Continue(())
    }

    /// Single-flow fast path: the scheduler degenerates to "next seq" —
    /// skip it entirely so paced single-stream drivers (NetDebug sessions,
    /// fleet members) pay no scheduling overhead per packet. Emission
    /// order is identical by construction.
    fn run_single(
        &mut self,
        flow: &'f FlowRun,
        cursors: &mut [FlowCursor],
        max_batch: usize,
    ) -> ControlFlow<DriveExit> {
        let count = flow.frames.len() as u64;
        let mut last_due: Option<u64> = None;
        while cursors[0].next_seq < count {
            let s = cursors[0].next_seq;
            self.drain_triggers(flow, &mut cursors[0], s)?;
            let due = flow.due(s);
            if last_due != Some(due) {
                self.stats.instants += 1;
                last_due = Some(due);
            }
            self.push(flow, s, due);
            cursors[0].next_seq += 1;
            if self.pkts.len() >= max_batch {
                self.flush(Some(cursors))?;
            }
        }
        self.flush(None)?;
        self.stats.max_ready_depth = self.stats.max_ready_depth.max(1);
        ControlFlow::Continue(())
    }

    /// The general path: pop each virtual instant off the scheduler and
    /// coalesce every frame due at it, flow by flow in declaration order.
    fn run_scheduled(
        &mut self,
        flows: &'f [FlowRun],
        cursors: &mut [FlowCursor],
        max_batch: usize,
    ) -> ControlFlow<DriveExit> {
        let mut scheduler = Scheduler::new(self.device.now());
        for (i, flow) in flows.iter().enumerate() {
            if cursors[i].next_seq < flow.frames.len() as u64 {
                scheduler.schedule(flow.due(cursors[i].next_seq), i as u32);
            }
        }
        let mut ready: Vec<u32> = Vec::new();
        while let Some(instant) = scheduler.pop_next(&mut ready) {
            self.stats.instants += 1;
            self.stats.max_ready_depth = self.stats.max_ready_depth.max(ready.len() as u64);
            for &ready_flow in &ready {
                let fi = ready_flow as usize;
                let flow = &flows[fi];
                let count = flow.frames.len() as u64;
                loop {
                    let s = cursors[fi].next_seq;
                    self.drain_triggers(flow, &mut cursors[fi], s)?;
                    // A frame whose due instant the device clock had
                    // already passed when it was filed fires now.
                    if s >= count || flow.due(s) > instant {
                        break;
                    }
                    self.push(flow, s, instant);
                    cursors[fi].next_seq += 1;
                    if self.pkts.len() >= max_batch {
                        self.flush(Some(cursors))?;
                    }
                }
                if cursors[fi].next_seq < count {
                    scheduler.schedule(flow.due(cursors[fi].next_seq), ready_flow);
                }
            }
            // Flush at the instant boundary: dispatches never span a clock
            // step, so `inject_batch_at` groups stay whole-instant batches.
            self.flush(Some(cursors))?;
        }
        ControlFlow::Continue(())
    }
}

/// Drive one device's flows to completion on the **caller's thread**,
/// with no fault containment: a device panic unwinds the caller and a
/// silent stall wedge just ends the drive early (every later frame would
/// be swallowed anyway). Emission order is the determinism contract —
/// virtual time, then flow declaration order, then seq — and every run of
/// frames due at one instant coalesces into batch-engine dispatches of at
/// most `max_batch` frames. Churn triggers flush pending frames, publish
/// their epochs, then emission resumes; the first rejected op aborts the
/// run (frames dispatched before it have already been accounted and
/// delivered to `sink`).
pub fn drive_device<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    max_batch: usize,
    sink: &mut S,
) -> (RuntimeStats, Result<(), ControlError>) {
    // The device's flow-cache counters are cumulative; fold this run's
    // deltas into the returned stats whichever way the loop exits.
    let cache_before = device.cache_stats();
    let mut stats = RuntimeStats::default();
    let mut cursors = vec![FlowCursor::default(); flows.len()];
    let result = Drive::new(device, sink, &mut stats, Mode::Plain)
        .run(flows, &mut cursors, max_batch)
        .map(|_| ());
    fold_cache_delta(&mut stats, device, cache_before);
    (stats, result)
}

fn fold_cache_delta(
    stats: &mut RuntimeStats,
    device: &Device,
    before: netdebug_dataplane::CacheStats,
) {
    let after = device.cache_stats();
    stats.cache_hits = after.hits.saturating_sub(before.hits);
    stats.cache_misses = after.misses.saturating_sub(before.misses);
    stats.cache_invalidations = after.invalidations.saturating_sub(before.invalidations);
}

/// What one [`drive_device_with`] call produced.
#[derive(Debug)]
pub struct DriveReport {
    /// Event-loop counters for the run; `faults` counts trips, recovered
    /// or not.
    pub stats: RuntimeStats,
    /// `Err` if a churn trigger was rejected mid-run. Stays `Ok` on a
    /// device fault — the fault record *is* the outcome.
    pub result: Result<(), ControlError>,
    /// Quarantine rejoins (always empty with a zero recovery budget).
    pub recoveries: Vec<DeviceRecovery>,
    /// The permanent quarantine record, if the device was lost.
    pub fault: Option<DeviceFault>,
}

impl DriveReport {
    /// Name `member` as the device in the fault and recovery records.
    pub fn label(&mut self, member: &str) {
        if let Some(f) = &mut self.fault {
            f.member = member.to_string();
        }
        for r in &mut self.recoveries {
            r.member = member.to_string();
        }
    }
}

/// [`drive_device`] with **fault containment**: the drive runs under
/// `catch_unwind`, so a crash-class fault ([`netdebug_hw::FaultSpec`]),
/// a genuine engine panic, or a silent [`netdebug_hw::FaultSpec::Stall`]
/// wedge caught by the virtual-time liveness watchdog costs the run a
/// record instead of unwinding the caller. One loop serves quarantine and
/// recovery; `policy` only sets the budget (`None` is budget 0). A
/// tripped device is:
///
/// 1. **Located** — restored from the last checkpoint (tables, externs,
///    taps, clock, fault counters all rewind) and silently replayed with
///    every frame and churn trigger solo under `catch_unwind`.
///    Determinism of the armed counters (see
///    [`netdebug_hw::FaultState`]) re-trips on the same [`CulpritFrame`].
/// 2. **Rejoined**, if the culprit is a frame and budget remains: the
///    frame is skipped — booked as a
///    [`netdebug_dataplane::DropReason::Faulted`] drop that occupies the
///    pipeline slot a normal frame would have, so every later frame's
///    timing matches the fault-free run — the sink gets its record, the
///    device is re-checkpointed, and the drive resumes with a
///    [`DeviceRecovery`] logged.
/// 3. **Quarantined** otherwise — out of budget, tripped *inside a churn
///    publication* (the retry in [`netdebug_hw::Device::install`] is the
///    recovery path for those; skipping a publication would fork the
///    table state from the schedule), or not reproducible on replay (the
///    panic came from the caller's sink): the run ends with the
///    [`DeviceFault`] the replay located, a stall first charging
///    [`DEFAULT_WATCHDOG_CYCLES`] to the device clock. The device is left
///    where the replay stopped, just short of the culprit; fleets exclude
///    it from diffing rather than reusing it.
///
/// With a budget, checkpoints are taken every `checkpoint_interval`
/// delivered frames (cheap: table state pins the published `Arc` snapshot
/// chain). With budget 0 only the start of the run is checkpointed, and
/// only when faults are armed — a healthy device pays one `armed_faults`
/// check and one `catch_unwind` frame, and an engine panic on it is
/// reported without a culprit. Both overheads are gated ≤ 5% in
/// `BENCH_fault.json`.
pub fn drive_device_with<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    max_batch: usize,
    sink: &mut S,
    policy: Option<RecoveryPolicy>,
) -> DriveReport {
    let policy = policy.unwrap_or(RecoveryPolicy {
        max_recoveries: 0,
        ..RecoveryPolicy::default()
    });
    let recovering = policy.max_recoveries > 0;
    let cache_before = device.cache_stats();
    let retried_before = device.retried_publications();
    let mut stats = RuntimeStats::default();
    let mut cursors = vec![FlowCursor::default(); flows.len()];
    let mut ckpts = Checkpoints {
        interval: policy.checkpoint_interval.max(1),
        delivered: 0,
        next_at: 0,
        last: None,
    };
    if recovering || !device.armed_faults().is_empty() {
        ckpts.take(device, &cursors);
    }
    // Checkpoints are only taken at flush boundaries, so the cadence
    // clamps the batch to the checkpoint interval — otherwise a short run
    // inside one big batch would never re-checkpoint and every recovery
    // would replay from the start. Batch size never changes device
    // outcomes (the locating replay depends on that), so the clamp only
    // affects dispatch accounting.
    let max_batch = if recovering {
        max_batch.min(usize::try_from(ckpts.interval).unwrap_or(usize::MAX))
    } else {
        max_batch
    };
    let mut recoveries: Vec<DeviceRecovery> = Vec::new();
    let mut fault = None;
    let result = loop {
        let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mode = if recovering {
                Mode::Checkpointing(&mut ckpts)
            } else {
                Mode::Plain
            };
            Drive::new(&mut *device, &mut *sink, &mut stats, mode).run(
                flows,
                &mut cursors,
                max_batch,
            )
        }));
        let payload = match end {
            Ok(Err(e)) => break Err(e),
            Ok(Ok(DriveEnd::Stalled)) => None,
            // `Interrupted` is the locating replay's exit only.
            Ok(Ok(DriveEnd::Completed | DriveEnd::Interrupted)) => break Ok(()),
            Err(payload) => Some(payload),
        };
        stats.faults += 1;
        let stalled = payload.is_none();
        let ckpt = ckpts.last.as_ref();
        let trip = locate(device, flows, &mut cursors, ckpt, payload, stats.packets);
        let mut record = trip.fault;
        let budget_left = recoveries.len() < policy.max_recoveries as usize;
        if budget_left && record.trigger.is_none() {
            if let Some(culprit) = record.culprit.take() {
                let fi = flows
                    .iter()
                    .position(|f| f.id == culprit.flow)
                    .expect("culprit flow comes from this drive's flow list");
                // Skip the culprit: account it as a Faulted drop at its
                // due instant and move the emission cursor past it.
                let p = device.skip_faulted(culprit.port, flows[fi].due(culprit.seq));
                stats.packets += 1;
                sink.on_packet(culprit.flow, culprit.seq, p);
                cursors[fi].next_seq = culprit.seq + 1;
                ckpts.delivered = record.packets_delivered + 1;
                ckpts.take(device, &cursors);
                stats.recoveries += 1;
                recoveries.push(DeviceRecovery {
                    member: record.member,
                    fault: record.fault,
                    stage: record.stage,
                    detail: record.detail,
                    checkpoint_cycle: trip.checkpoint_cycle,
                    frames_replayed: trip.frames_replayed,
                    culprit: Some(culprit),
                    recovered_at_cycle: device.now(),
                });
                continue;
            }
        }
        if stalled {
            device.advance(DEFAULT_WATCHDOG_CYCLES);
        }
        if recovering && !budget_left {
            record.detail.push_str(" (recovery budget exhausted)");
        }
        fault = Some(record);
        break Ok(());
    };
    // Publication retries are the device-level arm of the same recovery
    // machinery: a transient driver crash absorbed by
    // [`netdebug_hw::Device::install`]'s bounded backoff converged to a
    // consistent snapshot instead of quarantining the device. Surface the
    // convergence as a recovery record so fleet reports account for it.
    let retried = device.retried_publications() - retried_before;
    if recovering && retried > 0 && fault.is_none() {
        let detail = match device.last_retried_epoch() {
            Some(e) => format!(
                "{retried} publication(s) converged after transient driver crashes (last reconciled at table epoch {e})"
            ),
            None => format!("{retried} publication(s) converged after transient driver crashes"),
        };
        stats.recoveries += 1;
        recoveries.push(DeviceRecovery {
            member: String::new(),
            fault: "transient-publication".into(),
            stage: "driver".into(),
            detail,
            checkpoint_cycle: 0,
            frames_replayed: 0,
            culprit: None,
            recovered_at_cycle: device.now(),
        });
    }
    fold_cache_delta(&mut stats, device, cache_before);
    DriveReport {
        stats,
        result,
        recoveries,
        fault,
    }
}

/// A trip as [`locate`] pinned it down: the quarantine record as it
/// would stand, plus the replay figures a [`DeviceRecovery`] adds when
/// the device rejoins instead.
struct Located {
    fault: DeviceFault,
    /// Virtual cycle the restored checkpoint was taken at.
    checkpoint_cycle: u64,
    /// Frames the replay delivered between the checkpoint and the trip.
    frames_replayed: u64,
}

/// The one containment step: restore `ckpt`, then replay silently from
/// it at `max_batch = 1` in [`Mode::Locating`] until the trip recurs. The
/// sink already holds every pre-culprit outcome from the original attempt
/// (batching does not change device results), so the replay counts frames
/// instead of re-delivering them; the solo dispatch leaves `cursors`
/// exactly one past a culprit frame. `payload` is what the original
/// attempt raised (`None` for a watchdog-detected stall) and speaks only
/// when the replay catches nothing itself: without a checkpoint (a
/// genuine engine panic on an unarmed device; `dispatched` then stands in
/// for the delivered count), or when the replay runs clean because the
/// panic came from the caller's sink, not the device.
fn locate(
    device: &mut Device,
    flows: &[FlowRun],
    cursors: &mut Vec<FlowCursor>,
    ckpt: Option<&DriveCheckpoint>,
    payload: Option<PanicPayload>,
    dispatched: u64,
) -> Located {
    let mut caught = Caught::default();
    let mut counter = LastStageSink::default();
    let mut reproduced = true;
    let (checkpoint_cycle, delivered_before) = match ckpt {
        Some(ckpt) => {
            device.restore(&ckpt.device);
            cursors.clone_from(&ckpt.cursors);
            let mut scratch = RuntimeStats::default();
            // Frames and triggers trip solo inside the replay, so this
            // outer catch is defensive only (a panic escaping it would be
            // a harness bug, not a device fault).
            let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mode = Mode::Locating(&mut caught);
                Drive::new(&mut *device, &mut counter, &mut scratch, mode).run(flows, cursors, 1)
            }));
            reproduced = !matches!(end, Ok(Ok(DriveEnd::Completed)));
            (ckpt.device.at_cycle(), ckpt.delivered)
        }
        None => (0, dispatched),
    };
    if let Some(c) = &mut caught.culprit {
        c.prior_stage = counter.last_stage.take().map(|s| s.to_string());
    }
    let mut fault = DeviceFault::from_trip(
        caught.payload.or(payload).as_deref(),
        caught.culprit,
        caught.trigger,
        delivered_before + counter.delivered,
    );
    if !reproduced {
        fault
            .detail
            .push_str(" (did not reproduce on device replay)");
    }
    Located {
        fault,
        checkpoint_cycle,
        frames_replayed: counter.delivered,
    }
}

impl DeviceFault {
    /// The record of one trip: fault id, stage and detail decoded from
    /// the caught panic `payload`, or — with none — the watchdog's verdict
    /// on a silent wedge, naming the wedging frame when `culprit` is
    /// known. `member` is left for [`DriveReport::label`].
    pub(crate) fn from_trip(
        payload: Option<&(dyn std::any::Any + Send)>,
        culprit: Option<CulpritFrame>,
        trigger: Option<String>,
        packets_delivered: u64,
    ) -> Self {
        let (fault, stage, detail) = if let Some(payload) = payload {
            if let Some(fp) = payload.downcast_ref::<FaultPanic>() {
                (fp.fault, fp.stage, fp.detail.clone())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                ("panic", "unknown", s.clone())
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                ("panic", "unknown", (*s).to_string())
            } else {
                ("panic", "unknown", "non-string panic payload".into())
            }
        } else {
            let at = match &culprit {
                Some(c) => format!(" at flow {} seq {}", c.flow, c.seq),
                None => String::new(),
            };
            let detail = format!(
                "device went silent{at}; virtual watchdog fired after {DEFAULT_WATCHDOG_CYCLES} cycles"
            );
            ("stall", "watchdog", detail)
        };
        DeviceFault {
            member: String::new(),
            fault: fault.into(),
            stage: stage.into(),
            detail,
            packets_delivered,
            culprit,
            trigger,
        }
    }
}

/// Counting sink for the locating replay: remembers how many packets
/// were delivered before the trip and the last stage the final one
/// reached (the "last trace record" attached to the culprit).
#[derive(Default)]
struct LastStageSink {
    delivered: u64,
    last_stage: Option<Arc<str>>,
}

impl DeviceSink for LastStageSink {
    fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
        self.delivered += 1;
        self.last_stage = Some(p.last_stage);
    }
}

// ---------------------------------------------------------------------
// The persistent worker fleet
// ---------------------------------------------------------------------

/// One device's work order for [`FleetRuntime::run`]: the device (moved
/// in, always handed back), its flows, and the sink its packets stream
/// into.
pub struct DeviceTask<S> {
    /// The device under test.
    pub device: Device,
    /// Flows aimed at it.
    pub flows: Vec<FlowRun>,
    /// Packet consumer.
    pub sink: S,
}

/// What one [`DeviceTask`] came back as: the device and sink (returned
/// even when a churn op failed, so fleets can restore their members), the
/// run's counters, and the run outcome.
pub struct DeviceDone<S> {
    /// The device, clock advanced past its last dispatched instant.
    pub device: Device,
    /// The sink, holding whatever it accumulated.
    pub sink: S,
    /// Event-loop counters for this device.
    pub stats: RuntimeStats,
    /// `Err` if a churn trigger was rejected mid-run.
    pub result: Result<(), ControlError>,
    /// `Some` if the device panicked mid-run (a crash-class fault): the
    /// device was quarantined and the panic isolated to a culprit frame
    /// or publication. Healthy devices of the same run are unaffected.
    pub fault: Option<DeviceFault>,
    /// Checkpoint/restore rejoins this device went through (non-empty
    /// only when the runtime has a [`RecoveryPolicy`] set and the device
    /// tripped but recovered; such a device finished its run and is
    /// **not** quarantined).
    pub recoveries: Vec<DeviceRecovery>,
}

type PoolJob = Box<dyn FnOnce() + Send>;

struct PoolWorker {
    handle: Option<JoinHandle<()>>,
}

/// A persistent, lazily-spawned worker set that multiplexes any number of
/// [`DeviceTask`]s onto at most `workers` OS threads (untyped, so one
/// pool serves every task shape). Workers survive across runs — a fleet
/// no longer spawns fresh threads every window — and are joined on drop. With
/// `workers <= 1` (or a single task) everything runs inline on the
/// caller's thread: no threads, identical results, which is what makes
/// the 1-worker run the reference for the determinism contract.
pub struct FleetRuntime {
    target: usize,
    recovery: Option<RecoveryPolicy>,
    job_tx: Sender<PoolJob>,
    job_rx: Arc<Mutex<Receiver<PoolJob>>>,
    workers: Vec<PoolWorker>,
    stats: RuntimeStats,
}

impl std::fmt::Debug for FleetRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRuntime")
            .field("target", &self.target)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Default for FleetRuntime {
    /// A runtime sized for this host: `min(4, available cores)` workers.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(cores.min(4))
    }
}

impl FleetRuntime {
    /// A runtime targeting exactly `workers` OS threads (min 1; 1 = fully
    /// inline).
    pub fn new(workers: usize) -> Self {
        let (job_tx, job_rx) = channel::<PoolJob>();
        FleetRuntime {
            target: workers.max(1),
            recovery: None,
            job_tx,
            job_rx: Arc::new(Mutex::new(job_rx)),
            workers: Vec::new(),
            stats: RuntimeStats::default(),
        }
    }

    /// The worker-count target.
    pub fn target_workers(&self) -> usize {
        self.target
    }

    /// OS threads currently alive (0 until the first multi-task run;
    /// observability for the reuse regression tests).
    pub fn pool_workers(&self) -> usize {
        self.workers.len()
    }

    /// The [`RecoveryPolicy`] every [`FleetRuntime::run`] device is
    /// driven under ([`drive_device_with`]): with a budget, a crash-class
    /// fault costs one skipped frame and a [`DeviceRecovery`] record
    /// instead of the device. `None` (the default) is budget 0 — the
    /// first trip quarantines, and no periodic checkpoint is taken.
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// The active recovery policy, if any.
    pub fn recovery(&self) -> Option<RecoveryPolicy> {
        self.recovery
    }

    /// Counters accumulated across every task of every run.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    fn ensure(&mut self, workers: usize) {
        while self.workers.len() < workers {
            let rx = Arc::clone(&self.job_rx);
            let idx = self.workers.len();
            let handle = std::thread::Builder::new()
                .name(format!("netdebug-fleet-{idx}"))
                .spawn(move || loop {
                    // Hold the lock only while receiving; execution happens
                    // unlocked so idle workers can pick up the next job.
                    let job = {
                        // A worker that panicked while holding the lock
                        // poisons it; the queue itself is still coherent
                        // (recv is atomic), so recover instead of taking
                        // the whole pool down.
                        let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        guard.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                })
                .expect("spawn fleet runtime worker");
            self.workers.push(PoolWorker {
                handle: Some(handle),
            });
        }
    }

    /// Run arbitrary per-device jobs on the persistent worker set and
    /// collect their outcomes **in job order**. Jobs run inline when a
    /// single worker is targeted (or there is only one job); otherwise
    /// they are dealt to the workers and collected by index. A panicking
    /// job no longer unwinds the caller (or wedges the pool): its panic
    /// payload comes back as the `Err` arm of its slot, and the worker
    /// that ran it survives for later jobs.
    ///
    /// [`FleetRuntime::run`] is built on this; it is also the untyped
    /// escape hatch for device-shaped work that is not flow-driven
    /// (e.g. probe diffing).
    pub fn execute<R, F>(&mut self, jobs: Vec<F>) -> Vec<std::thread::Result<R>>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = jobs.len();
        if self.target <= 1 || n <= 1 {
            return jobs
                .into_iter()
                .map(|job| std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)))
                .collect();
        }
        self.ensure(self.target.min(n));
        let (result_tx, result_rx) = channel::<(usize, std::thread::Result<R>)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = result_tx.clone();
            let boxed: PoolJob = Box::new(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                let _ = tx.send((i, out));
            });
            self.job_tx.send(boxed).expect("fleet worker queue closed");
        }
        drop(result_tx);
        let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
        slots.resize_with(n, || None);
        for _ in 0..n {
            let (i, res) = result_rx
                .recv()
                .expect("fleet runtime result channel closed");
            slots[i] = Some(res);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reports exactly once"))
            .collect()
    }

    /// Run every task and hand the devices back **in task order** — the
    /// deterministic cross-device ordering (task index is the device id).
    pub fn run<S>(&mut self, tasks: Vec<DeviceTask<S>>) -> Vec<DeviceDone<S>>
    where
        S: DeviceSink + Send + 'static,
    {
        let recovery = self.recovery;
        let jobs: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, mut task)| {
                move || {
                    let mut run = drive_device_with(
                        &mut task.device,
                        &task.flows,
                        DEFAULT_MAX_BATCH,
                        &mut task.sink,
                        recovery,
                    );
                    run.label(&format!("device-{i}"));
                    DeviceDone {
                        device: task.device,
                        sink: task.sink,
                        stats: run.stats,
                        result: run.result,
                        fault: run.fault,
                        recoveries: run.recoveries,
                    }
                }
            })
            .collect();
        let done: Vec<DeviceDone<S>> = self
            .execute(jobs)
            .into_iter()
            .map(|res| match res {
                Ok(d) => d,
                // `drive_device_with` catches device panics itself, so
                // a panic escaping the job means the sink (or harness)
                // itself blew up — that is a caller bug, not a device
                // fault, and hiding it would mask broken tests.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect();
        for d in &done {
            self.stats.absorb(&d.stats);
        }
        done
    }
}

impl Drop for FleetRuntime {
    fn drop(&mut self) {
        // Closing the job channel ends each worker's recv loop; join so no
        // detached thread outlives the runtime.
        drop(std::mem::replace(&mut self.job_tx, channel().0));
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 for model comparison inputs.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The scheduler must pop entries in exactly (due, flow) order, instant
    /// by instant — compared against a plain sorted `Vec` over schedules
    /// whose dues sit past 2^8, 2^16 and 2^32 cycles from `now`, in the
    /// past (clamped to `now`) and at `u64::MAX`, including re-schedules
    /// after pops (the event loop's steady state).
    #[test]
    fn scheduler_matches_sorted_vec_model() {
        for seed in 0..16u64 {
            let mut rng = Rng(seed.wrapping_mul(0x5DEECE66D).wrapping_add(11));
            let start = rng.next() % (1 << 20);
            let mut scheduler = Scheduler::new(start);
            // The model: every pending (clamped due, flow), kept sorted.
            let mut model: Vec<(u64, u32)> = Vec::new();
            let mut now = start;
            for flow in 0..56u32 {
                let due = match flow % 7 {
                    0 => start + rng.next() % 16,
                    1 => start + (1 << 8) + rng.next() % 3,
                    2 => start + (1 << 16) + rng.next() % 3,
                    3 => start + (1 << 32) + rng.next() % 3,
                    4 => rng.next() % (start + 1), // past: fires at `start`
                    5 => u64::MAX,
                    _ => start + rng.next() % (1 << 34),
                };
                scheduler.schedule(due, flow);
                model.push((due.max(now), flow));
            }
            let mut ready = Vec::new();
            let mut reschedules = 112usize;
            while let Some(t) = scheduler.pop_next(&mut ready) {
                model.sort_unstable();
                assert!(t >= now, "seed {seed}: virtual time ran backwards");
                now = t;
                let at_t = model.iter().take_while(|&&(due, _)| due == t).count();
                let expected: Vec<u32> = model.drain(..at_t).map(|(_, flow)| flow).collect();
                assert!(!expected.is_empty(), "seed {seed}: popped an empty instant");
                assert_eq!(ready, expected, "seed {seed} at {t}");
                // Steady state: fired flows re-file, some behind `now`.
                for &flow in &ready {
                    if reschedules == 0 {
                        break;
                    }
                    reschedules -= 1;
                    let due = match flow % 3 {
                        0 => t.saturating_add(1 + rng.next() % 255),
                        1 => t.saturating_add(1 + rng.next() % (1 << 33)),
                        _ => t / 2,
                    };
                    scheduler.schedule(due, flow);
                    model.push((due.max(now), flow));
                }
            }
            assert!(model.is_empty(), "seed {seed}: scheduler lost entries");
        }
    }

    /// Pacing classes 80 and 320 from origin 0: at cycle 320 both flows
    /// are due and must come out of ONE pop in flow order, and an entry
    /// filed later never jumps one filed earlier for a sooner instant.
    #[test]
    fn scheduler_merges_entries_due_at_one_instant() {
        let mut scheduler = Scheduler::new(0);
        scheduler.schedule(80, 0);
        scheduler.schedule(320, 1);
        let mut ready = Vec::new();
        for k in 1..=3u64 {
            assert_eq!(scheduler.pop_next(&mut ready), Some(80 * k));
            assert_eq!(ready, vec![0]);
            scheduler.schedule(80 * (k + 1), 0);
        }
        assert_eq!(scheduler.pop_next(&mut ready), Some(320));
        assert_eq!(ready, vec![0, 1]);
        assert_eq!(scheduler.pop_next(&mut ready), None);

        let mut scheduler = Scheduler::new(0);
        scheduler.schedule(300, 1);
        scheduler.schedule(260, 0);
        assert_eq!(scheduler.pop_next(&mut ready), Some(260));
        scheduler.schedule(290, 0);
        assert_eq!(scheduler.pop_next(&mut ready), Some(290));
        assert_eq!(scheduler.pop_next(&mut ready), Some(300));
        assert_eq!(ready, vec![1]);
    }

    /// A gap large enough to overflow `origin + gap * (seq + 1)` saturates
    /// at the end of virtual time: the drive completes, in (due, flow,
    /// seq) order, instead of wrapping a late frame round to an early due.
    #[test]
    fn due_saturates_instead_of_wrapping() {
        use netdebug_hw::Backend;
        const GAP: u64 = u64::MAX / 2;
        let frames: Arc<Vec<GeneratedPacket>> = Arc::new(
            (0..4)
                .map(|seq| GeneratedPacket {
                    data: vec![seq as u8; 64].into(),
                    stream: 1,
                    seq,
                    ts_cycles: 0,
                })
                .collect(),
        );
        let flows: Vec<FlowRun> = (0..2u32)
            .map(|id| FlowRun {
                origin: u64::from(id),
                gap: GAP,
                ..FlowRun::new(id, 0, Arc::clone(&frames))
            })
            .collect();
        assert_eq!(flows[0].due(1), u64::MAX - 1);
        assert_eq!(flows[1].due(1), u64::MAX);
        assert_eq!(flows[0].due(2), u64::MAX, "saturated, not wrapped");

        struct Order(Vec<(u32, u64)>);
        impl DeviceSink for Order {
            fn on_packet(&mut self, flow: u32, seq: u64, _p: Processed) {
                self.0.push((flow, seq));
            }
        }
        let mut dev =
            Device::deploy_source(&Backend::reference(), netdebug_p4::corpus::L2_SWITCH).unwrap();
        let mut sink = Order(Vec::new());
        let (stats, result) = drive_device(&mut dev, &flows, 8, &mut sink);
        assert!(result.is_ok());
        let mut expected: Vec<(u64, u32, u64)> = flows
            .iter()
            .flat_map(|f| (0..4).map(|seq| (f.due(seq), f.id, seq)))
            .collect();
        expected.sort_unstable();
        let expected: Vec<(u32, u64)> = expected.into_iter().map(|(_, f, s)| (f, s)).collect();
        assert_eq!(sink.0, expected);
        // GAP, GAP + 1, MAX - 1, then everything left at MAX.
        assert_eq!((stats.packets, stats.instants), (8, 4));
        assert_eq!(dev.now(), u64::MAX);
    }

    /// A worker that dies while holding the pool's job-queue lock leaves
    /// it poisoned; `ensure()`'s receive loop must shrug the poison off
    /// (the queue itself is still coherent) so the **next** run executes
    /// normally instead of panicking every worker on lock acquisition.
    #[test]
    fn pool_survives_a_poisoned_job_lock() {
        let mut rt = FleetRuntime::new(3);
        let rx = Arc::clone(&rt.job_rx);
        let _ = std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = rx.lock().unwrap();
                panic!("die holding the fleet pool lock");
            })
            .expect("spawn poisoner")
            .join();
        assert!(
            rt.job_rx.is_poisoned(),
            "the lock must actually be poisoned"
        );
        let jobs: Vec<_> = (0..8).map(|i: u64| move || i * 2).collect();
        let out: Vec<u64> = rt
            .execute(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| panic!("job panicked")))
            .collect();
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert!(rt.pool_workers() > 0, "jobs ran on the pooled workers");
    }

    /// A stall that ends permanent charges the watchdog deadline to the
    /// device clock whether the budget was zero from the start or ran out
    /// on the way, and the record names the frame that wedged it.
    #[test]
    fn permanent_stall_charges_the_watchdog_under_any_budget() {
        use netdebug_hw::{Backend, FaultSpec};
        let frames: Vec<GeneratedPacket> = (0..16)
            .map(|seq| GeneratedPacket {
                data: vec![seq as u8; 64].into(),
                stream: 1,
                seq,
                ts_cycles: 0,
            })
            .collect();
        let flows = [FlowRun::new(1, 0, Arc::new(frames))];
        for (budget, stalls, last) in [(0u32, &[5u64][..], 5u64), (1, &[5, 9][..], 9)] {
            let mut dev =
                Device::deploy_source(&Backend::reference(), netdebug_p4::corpus::L2_SWITCH)
                    .unwrap();
            for &after in stalls {
                dev.arm_fault(FaultSpec::Stall { after });
            }
            let policy = RecoveryPolicy {
                max_recoveries: budget,
                ..RecoveryPolicy::default()
            };
            let mut sink = LastStageSink::default();
            let run = drive_device_with(&mut dev, &flows, 8, &mut sink, Some(policy));
            assert_eq!(run.recoveries.len(), budget as usize);
            let fault = run.fault.expect("the last stall is permanent");
            assert_eq!((&*fault.fault, &*fault.stage), ("stall", "watchdog"));
            assert_eq!(fault.culprit.expect("culprit named").seq, last);
            assert_eq!(fault.packets_delivered, last);
            assert_eq!(dev.now(), DEFAULT_WATCHDOG_CYCLES, "budget {budget}");
        }
    }

    #[test]
    fn scheduler_coalesces_same_instant_entries_sorted_by_flow() {
        let mut scheduler = Scheduler::new(100);
        scheduler.schedule(500, 7);
        scheduler.schedule(500, 3);
        scheduler.schedule(500, 5);
        scheduler.schedule(90, 9); // past: clamped to now
        let mut ready = Vec::new();
        assert_eq!(scheduler.pop_next(&mut ready), Some(100));
        assert_eq!(ready, vec![9]);
        assert_eq!(scheduler.pop_next(&mut ready), Some(500));
        assert_eq!(ready, vec![3, 5, 7]);
        assert_eq!(scheduler.pop_next(&mut ready), None);
    }
}
