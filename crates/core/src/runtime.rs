//! The virtual-time event-loop fleet runtime.
//!
//! Every [`netdebug_hw::Device`] keeps its own virtual clock, and before
//! this module each paced stream serialised packet-at-a-time on that
//! clock while `DifferentialFleet` burned one OS thread per device per
//! window. The runtime replaces both with an **event loop over virtual
//! device cycles**: each device's drive keeps one scheduler entry per
//! active flow in a binary heap, the loop pops the earliest pending virtual
//! instant and queues every injection due at it, one flow or many, and a
//! batch-engine dispatch ([`netdebug_hw::Device::inject_batch_at`]) goes
//! out whenever `max_batch` frames are queued — so a dispatch may span
//! instants, and the device runs each equal-due group of it at its own
//! instant. [`FleetRuntime`] fans hundreds of devices — tens of thousands
//! of paced flows — out over a few OS threads. It keeps no pool: each
//! call splits its devices into contiguous lanes, runs the first on the
//! caller's thread and the rest on scoped threads that end with the call.
//!
//! ## Determinism contract
//!
//! Runs are **bit-reproducible regardless of worker count**. Devices are
//! independent, so cross-device parallelism cannot reorder anything a
//! device observes; within a device the loop fixes a total order:
//! virtual time first, then flow (declaration order), then sequence
//! number. Where a dispatch ends never changes what a device observes,
//! only how many calls it takes. Each lane writes its results into its
//! own block of one task-ordered result list, so verdicts, taps, stats
//! and drop counters from a 4-worker run are byte-identical to the
//! 1-worker (fully inline) run — property-tested against the sequential
//! one-device-at-a-time reference in `tests/prop.rs`.
//!
//! ## Churn epochs in virtual time
//!
//! A [`FlowRun`] carries churn triggers keyed to sequence numbers: when
//! the loop reaches trigger seq `s` it flushes every frame already
//! emitted, publishes the [`ChurnOp`]s scheduled at `s` as one batch
//! through the device's driver (one atomic epoch), and only then
//! dispatches `s` — so churn epochs land at
//! scheduled virtual times across the whole fleet, identically on every
//! member and at every worker count.

use crate::churn::ChurnOp;
use crate::generator::GeneratedPacket;
use netdebug_dataplane::{ControlError, Update};
use netdebug_hw::{Device, FaultPanic, Processed};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Default coalesced-dispatch cap: the event loop flushes its pending
/// frames to the device at least this often, matching the historical
/// 256-packet stream window so batch-engine arena sizes stay bounded.
pub const DEFAULT_MAX_BATCH: usize = 256;

/// One paced (or back-to-back) stream of frames aimed at a device, plus
/// the churn triggers scheduled against it. [`drive_device`],
/// [`drive_device_with`] and [`FleetRuntime::run`] take every frame of
/// the stream up front; a session drive
/// ([`crate::session::NetDebug::run_stream`]) swaps in one window of them
/// at a time, seqs and triggers staying absolute.
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

/// Observability counters for one event-loop run. Every run returns its
/// own ([`DriveReport::stats`], [`DeviceDone::stats`]);
/// [`RuntimeStats::absorb`] sums several, as a session's report does
/// over its streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Distinct virtual instants the loop emitted frames at. An instant
    /// a stream window boundary or a recovery splits counts once.
    pub instants: u64,
    /// Packets the event loop delivered to the sink, each once: a frame
    /// a trip cut off before the device returned it counts when a
    /// recovery re-drives it, not before.
    pub packets: u64,
    /// Coalesced dispatches into the device (each one batch-engine call
    /// chain via `inject_batch_at`). A dispatch closes when it holds
    /// `max_batch` frames, before a churn trigger, or when the drive
    /// ends — not at an instant boundary.
    pub dispatches: u64,
    /// Largest number of flows ready at one virtual instant (ready-queue
    /// depth).
    pub max_ready_depth: u64,
    /// Largest coalesced dispatch, in frames: at most the drive's
    /// `max_batch`, whatever instants its frames are due at.
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

    /// Mean delivered frames per coalesced dispatch.
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
    /// budget. A stream driven window by window
    /// ([`crate::session::NetDebug::run_stream`]) is also checkpointed at
    /// each window start, off the cadence, since a replay needs its
    /// checkpoint's frames; that only shortens replays.
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
/// The trip itself is the [`DeviceFault`] the replay located — the record
/// the device would have been quarantined with — so one trip makes one
/// record, recovered or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecovery {
    /// What tripped, where, and the skipped culprit frame. A
    /// `"transient-publication"` recovery (publications
    /// [`netdebug_hw::Device::write`] retried to convergence) names no
    /// culprit, and its `packets_delivered` is the run's whole count,
    /// since retries are tallied when the run ends.
    pub trip: DeviceFault,
    /// Virtual cycle the restored checkpoint was taken at.
    pub checkpoint_cycle: u64,
    /// Frames silently replayed between the checkpoint and the culprit.
    pub frames_replayed: u64,
    /// Virtual cycle the device rejoined the run at.
    pub recovered_at_cycle: u64,
}

/// A resumable drive position: the device's full state plus the per-flow
/// emission cursors, both captured at a flush boundary (so the cursors
/// exactly match the frames the device has consumed).
struct DriveCheckpoint {
    device: netdebug_hw::DeviceCheckpoint,
    cursors: Vec<FlowCursor>,
}

/// Frames a device has consumed when `cursors` stand at a flush boundary:
/// every frame below a cursor was delivered, or skipped as a culprit,
/// exactly once.
fn consumed(cursors: &[FlowCursor]) -> u64 {
    cursors.iter().map(|c| c.next_seq).sum()
}

/// The checkpoint state of one contained drive: the last checkpoint, plus
/// the delivered-frame cadence that schedules the next one while a
/// recovery budget remains.
struct Checkpoints {
    interval: u64,
    next_at: u64,
    last: Option<DriveCheckpoint>,
}

impl Checkpoints {
    /// Capture a checkpoint at the current drive position and restart the
    /// cadence from it.
    fn take(&mut self, device: &Device, cursors: &[FlowCursor]) {
        self.last = Some(DriveCheckpoint {
            device: device.checkpoint(),
            cursors: cursors.to_vec(),
        });
        self.next_at = consumed(cursors).saturating_add(self.interval);
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

/// Structured record of one trip: what fired, where, and the culprit the
/// solo replay isolated. A quarantined device ends its run with one; a
/// recovered trip carries its own in [`DeviceRecovery::trip`].
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
    /// Packets the device delivered before the trip (replayed from the
    /// checkpoint when the locating replay ran; the run's delivered count
    /// otherwise).
    pub packets_delivered: u64,
    /// The single culprit frame, when the fault keyed on a frame.
    pub culprit: Option<CulpritFrame>,
    /// The churn trigger that fired the fault (publication faults),
    /// rendered as `flow <id> seq <s>: <op>`.
    pub trigger: Option<String>,
}

type PanicPayload = Box<dyn std::any::Any + Send>;

/// What the locating replay caught: the culprit (frame or trigger, and a
/// frame's flow as a position), and the panic payload (none for a stall).
#[derive(Default)]
struct Caught {
    culprit: Option<CulpritFrame>,
    flow: usize,
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

/// Which frames a drive's flows hold: seqs `first_seq ..` of each flow,
/// with `more` of the stream to come in later windows (the drive then
/// stops short of a dispatch the window cannot fill). The default window
/// is a whole stream.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Window {
    pub(crate) first_seq: u64,
    pub(crate) more: bool,
}

/// The state one drive threads through its emission and flush sites:
/// where frames go (device, sink, stats), what happens around each
/// dispatch, which window of seqs the flows hold, and the frames emitted
/// but not yet dispatched. `meta` is (flow id, flow position, seq) per
/// frame: ids are labels and may repeat.
struct Drive<'a, 'f, S: ?Sized> {
    device: &'a mut Device,
    sink: &'a mut S,
    stats: &'a mut RuntimeStats,
    mode: Mode<'a>,
    window: Window,
    pkts: Vec<(u16, &'f [u8])>,
    dues: Vec<u64>,
    meta: Vec<(u32, u32, u64)>,
}

impl<'a, 'f, S: DeviceSink + ?Sized> Drive<'a, 'f, S> {
    fn new(
        device: &'a mut Device,
        sink: &'a mut S,
        stats: &'a mut RuntimeStats,
        mode: Mode<'a>,
        window: Window,
    ) -> Self {
        Drive {
            device,
            sink,
            stats,
            mode,
            window,
            pkts: Vec::new(),
            dues: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// One past the last seq of `flow` this drive holds.
    fn end(&self, flow: &FlowRun) -> u64 {
        self.window.first_seq + flow.frames.len() as u64
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
        match self.emit(flows, cursors, max_batch.max(1)) {
            ControlFlow::Continue(()) => Ok(DriveEnd::Completed),
            ControlFlow::Break(exit) => exit,
        }
    }

    /// Queue frame `seq` of `flow`, the drive's flow number `fi`, due at
    /// `due`.
    fn push(&mut self, flow: &'f FlowRun, fi: u32, seq: u64, due: u64) {
        let frame = &flow.frames[(seq - self.window.first_seq) as usize];
        self.pkts.push((flow.as_port, frame.data.as_slice()));
        self.dues.push(due);
        self.meta.push((flow.id, fi, seq));
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
            ..
        } = self;
        if pkts.is_empty() {
            return None;
        }
        stats.dispatches += 1;
        stats.max_batch = stats.max_batch.max(pkts.len() as u64);
        let mut end = None;
        if let Mode::Locating(caught) = mode {
            for i in 0..pkts.len() {
                let (flow, fi, seq) = meta[i];
                let mut seen = false;
                let solo = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    device
                        .inject_batch_at(&pkts[i..=i], &dues[i..=i], |_, p| {
                            seen = true;
                            stats.packets += 1;
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
                caught.flow = fi as usize;
                break;
            }
        } else {
            let labels: &[(u32, u32, u64)] = meta;
            let mut seen = 0usize;
            device
                .inject_batch_at(pkts, dues, |i, p| {
                    seen += 1;
                    stats.packets += 1;
                    let (flow, _, seq) = labels[i];
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
        if let Some(end) = self.dispatch() {
            return ControlFlow::Break(Ok(end));
        }
        if let (Mode::Checkpointing(ckpts), Some(cursors)) = (&mut self.mode, checkpoint_at) {
            if consumed(cursors) >= ckpts.next_at {
                ckpts.take(self.device, cursors);
            }
        }
        ControlFlow::Continue(())
    }

    /// Publish the triggers of `flow` due at or before seq `s`, the ops of
    /// one seq as one [`Device::write`] after flushing the frames ahead of
    /// it. The locating replay catches a device panic inside the write
    /// (e.g. a `FailPublication` fault) so the batch that tripped can be
    /// named in the [`DeviceFault`] record.
    fn drain_triggers(
        &mut self,
        flow: &FlowRun,
        cursor: &mut FlowCursor,
        s: u64,
    ) -> ControlFlow<DriveExit> {
        while let Some(&(due, _)) = flow.triggers.get(cursor.trigger).filter(|t| t.0 <= s) {
            let ops = flow.triggers[cursor.trigger..]
                .iter()
                .take_while(|t| t.0 == due);
            let batch: Vec<Update<'_>> = ops.map(|(_, op)| op.update()).collect();
            cursor.trigger += batch.len();
            self.flush(None)?;
            let applied = match &mut self.mode {
                Mode::Locating(caught) => {
                    let device = &mut *self.device;
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        device.write(&batch)
                    })) {
                        Ok(applied) => applied,
                        Err(payload) => {
                            caught.trigger = Some(format!("flow {} seq {s}: {batch:?}", flow.id));
                            caught.payload = Some(payload);
                            return ControlFlow::Break(Ok(DriveEnd::Interrupted));
                        }
                    }
                }
                _ => self.device.write(&batch),
            };
            if let Err(e) = applied {
                return ControlFlow::Break(Err(e));
            }
        }
        ControlFlow::Continue(())
    }

    /// The one emission loop, for one flow or many: pop each virtual
    /// instant off the scheduler and queue every frame due at it, flow by
    /// flow in declaration order. A dispatch goes out once `max_batch`
    /// frames are queued and may span instants: `inject_batch_at` runs
    /// each equal-due group at its own instant, so where a dispatch ends
    /// never changes an outcome. With `more` to come, a dispatch the
    /// window cannot hold whole is left to the next window, so dispatches
    /// and the checkpoints taken on them fall where they would over the
    /// whole stream.
    fn emit(
        &mut self,
        flows: &'f [FlowRun],
        cursors: &mut [FlowCursor],
        max_batch: usize,
    ) -> ControlFlow<DriveExit> {
        let mut scheduler = Scheduler::new(self.device.now());
        // The frames the window still holds, and the instant the frame
        // before each cursor went out at: an instant a window boundary
        // or a rejoin splits is counted once.
        let mut left = 0u64;
        let mut last_instant = None;
        for (i, flow) in flows.iter().enumerate() {
            let (next, end) = (cursors[i].next_seq, self.end(flow));
            if next < end {
                left += end - next;
                scheduler.schedule(flow.due(next), i as u32);
            }
            last_instant = last_instant.max(next.checked_sub(1).map(|s| flow.due(s)));
        }
        // Sized once, not grown again window after window.
        let room = usize::try_from(left).map_or(max_batch, |left| left.min(max_batch));
        self.pkts.reserve(room);
        self.dues.reserve(room);
        self.meta.reserve(room);
        let mut ready: Vec<u32> = Vec::new();
        while let Some(instant) = scheduler.pop_next(&mut ready) {
            self.stats.max_ready_depth = self.stats.max_ready_depth.max(ready.len() as u64);
            for &ready_flow in &ready {
                let fi = ready_flow as usize;
                let flow = &flows[fi];
                let end = self.end(flow);
                loop {
                    let s = cursors[fi].next_seq;
                    self.drain_triggers(flow, &mut cursors[fi], s)?;
                    // A frame whose due instant the device clock had
                    // already passed when it was filed fires now.
                    if s >= end || flow.due(s) > instant {
                        break;
                    }
                    // With nothing queued a dispatch starts here.
                    if self.window.more && self.pkts.is_empty() && left < max_batch as u64 {
                        return ControlFlow::Continue(());
                    }
                    if last_instant != Some(instant) {
                        self.stats.instants += 1;
                        last_instant = Some(instant);
                    }
                    self.push(flow, ready_flow, s, instant);
                    cursors[fi].next_seq += 1;
                    left -= 1;
                    if self.pkts.len() >= max_batch {
                        self.flush(Some(cursors))?;
                    }
                }
                if cursors[fi].next_seq < end {
                    scheduler.schedule(flow.due(cursors[fi].next_seq), ready_flow);
                }
            }
        }
        self.flush(None)
    }
}

/// Drive one device's flows to completion on the **caller's thread**,
/// with no fault containment: a device panic unwinds the caller and a
/// silent stall wedge just ends the drive early (every later frame would
/// be swallowed anyway). Emission order is the determinism contract —
/// virtual time, then flow declaration order, then seq — and the frames
/// coalesce in that order into batch-engine dispatches of at most
/// `max_batch` frames, across instants. Churn triggers flush pending
/// frames, publish their epochs, then emission resumes; the first
/// rejected op aborts the run (frames dispatched before it have already
/// been accounted and delivered to `sink`).
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
    let result = Drive::new(device, sink, &mut stats, Mode::Plain, Window::default())
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

/// What one [`drive_device_with`] call produced: its counters and one
/// record per trip, in the order they happened.
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
    /// Name `member` as the device in every trip record.
    pub fn label(&mut self, member: &str) {
        let recovered = self.recoveries.iter_mut().map(|r| &mut r.trip);
        for trip in recovered.chain(&mut self.fault) {
            trip.member = member.to_string();
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
///    publication* (the retry in [`netdebug_hw::Device::write`] is the
///    recovery path for those; skipping a publication would fork the
///    table state from the schedule), or not reproducible on replay (the
///    panic came from the caller's sink): the run ends with the
///    [`DeviceFault`] the replay located, a stall first charging
///    [`DEFAULT_WATCHDOG_CYCLES`] to the device clock. The device is left
///    where the replay stopped, just short of the culprit; fleets exclude
///    it from diffing rather than reusing it.
///
/// Each trip leaves exactly one record in the returned [`DriveReport`]:
/// a [`DeviceRecovery`] holding the located [`DeviceFault`] as its
/// `trip`, or the quarantine's [`DeviceFault`] itself.
///
/// With a budget, checkpoints are taken every `checkpoint_interval`
/// delivered frames (cheap: table state pins the published `Arc` snapshot
/// chain). With budget 0 only the start of the run is checkpointed, and
/// only when faults are armed — a healthy device pays one armed-fault
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
    let mut drive = ContainedDrive::new(device, flows.len(), max_batch, policy);
    drive.run(device, flows, Window::default(), sink);
    drive.finish(device)
}

/// Everything a contained drive carries from one window of its flows to
/// the next: cursors at **absolute** seqs, checkpoints, the report so far
/// (counters, recoveries against the budget, the fault) and the baselines
/// its deltas start from. [`drive_device_with`] runs it over one window
/// that holds every frame; a session runs it window after window, so
/// culprit seqs, trigger text, the budget and `packets_delivered` stay per
/// stream.
pub(crate) struct ContainedDrive {
    budget: usize,
    max_batch: usize,
    cache_before: netdebug_dataplane::CacheStats,
    retried_before: u64,
    cursors: Vec<FlowCursor>,
    ckpts: Checkpoints,
    report: DriveReport,
}

impl ContainedDrive {
    pub(crate) fn new(
        device: &Device,
        flows: usize,
        max_batch: usize,
        policy: Option<RecoveryPolicy>,
    ) -> Self {
        let budget = policy.map_or(0, |p| p.max_recoveries as usize);
        let recovering = budget > 0;
        let interval = policy.unwrap_or_default().checkpoint_interval.max(1);
        let mut drive = ContainedDrive {
            budget,
            // Checkpoints are only taken at flush boundaries, so the
            // cadence clamps the batch to the checkpoint interval —
            // otherwise a short run inside one big batch would never
            // re-checkpoint and every recovery would replay from the
            // start. Batch size never changes device outcomes (the
            // locating replay depends on that), so the clamp only affects
            // dispatch accounting.
            max_batch: match usize::try_from(interval) {
                Ok(interval) if recovering => max_batch.min(interval),
                _ => max_batch,
            },
            cache_before: device.cache_stats(),
            retried_before: device.faults().retried_publications,
            cursors: vec![FlowCursor::default(); flows],
            ckpts: Checkpoints {
                interval,
                next_at: 0,
                last: None,
            },
            report: DriveReport {
                stats: RuntimeStats::default(),
                result: Ok(()),
                recoveries: Vec::new(),
                fault: None,
            },
        };
        if recovering || !device.faults().armed().is_empty() {
            drive.ckpts.take(device, &drive.cursors);
        }
        drive
    }

    /// Drive the frames `flows` hold (`window` says which seqs those are)
    /// from the cursors on, containing every trip. Returns the seq the
    /// next window of the first flow starts at, or `None` once the device
    /// was quarantined or a churn op was rejected.
    pub(crate) fn run<S: DeviceSink + ?Sized>(
        &mut self,
        device: &mut Device,
        flows: &[FlowRun],
        window: Window,
        sink: &mut S,
    ) -> Option<u64> {
        // A replay needs its checkpoint's frames: one taken in an earlier
        // window is taken again here, cadence unchanged.
        let stale = |c: &DriveCheckpoint| c.cursors.iter().any(|c| c.next_seq < window.first_seq);
        if self.ckpts.last.as_ref().is_some_and(stale) {
            let next_at = self.ckpts.next_at;
            self.ckpts.take(device, &self.cursors);
            self.ckpts.next_at = next_at;
        }
        let recovering = self.budget > 0;
        loop {
            let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mode = if recovering {
                    Mode::Checkpointing(&mut self.ckpts)
                } else {
                    Mode::Plain
                };
                let stats = &mut self.report.stats;
                Drive::new(&mut *device, &mut *sink, stats, mode, window).run(
                    flows,
                    &mut self.cursors,
                    self.max_batch,
                )
            }));
            let payload = match end {
                Ok(Err(e)) => {
                    self.report.result = Err(e);
                    return None;
                }
                Ok(Ok(DriveEnd::Stalled)) => None,
                // `Interrupted` is the locating replay's exit only.
                Ok(Ok(DriveEnd::Completed | DriveEnd::Interrupted)) => {
                    return Some(self.cursors.first().map_or(0, |c| c.next_seq))
                }
                Err(payload) => Some(payload),
            };
            self.report.stats.faults += 1;
            let stalled = payload.is_none();
            let trip = self.locate(device, flows, window, payload);
            let mut record = trip.fault;
            let budget_left = self.report.recoveries.len() < self.budget;
            if budget_left && record.trigger.is_none() {
                if let Some(culprit) = &record.culprit {
                    let fi = trip.flow;
                    // Skip the culprit: account it as a Faulted drop at
                    // its due instant and move the emission cursor past it.
                    let (flow, seq) = (culprit.flow, culprit.seq);
                    let p = device.skip_faulted(culprit.port, flows[fi].due(seq));
                    self.report.stats.packets += 1;
                    sink.on_packet(flow, seq, p);
                    self.cursors[fi].next_seq = seq + 1;
                    self.ckpts.take(device, &self.cursors);
                    self.report.stats.recoveries += 1;
                    self.report.recoveries.push(DeviceRecovery {
                        trip: record,
                        checkpoint_cycle: trip.checkpoint_cycle,
                        frames_replayed: trip.frames_replayed,
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
            self.report.fault = Some(record);
            return None;
        }
    }

    /// The report of the whole drive, every window of it.
    pub(crate) fn finish(mut self, device: &Device) -> DriveReport {
        // Publication retries are the device-level arm of the same
        // recovery machinery: a transient driver crash absorbed by
        // [`netdebug_hw::Device::write`]'s bounded backoff converged to a
        // consistent snapshot instead of quarantining the device. Surface
        // the convergence as a recovery record so fleet reports account
        // for it.
        let retried = device.faults().retried_publications - self.retried_before;
        let report = &mut self.report;
        if self.budget > 0 && retried > 0 && report.fault.is_none() {
            let epoch = device.faults().last_retried_epoch;
            let at = epoch.map(|e| format!(" (last reconciled at table epoch {e})"));
            report.stats.recoveries += 1;
            report.recoveries.push(DeviceRecovery {
                trip: DeviceFault {
                    member: String::new(),
                    fault: "transient-publication".into(),
                    stage: "driver".into(),
                    detail: format!(
                        "{retried} publication(s) converged after transient driver crashes{}",
                        at.unwrap_or_default()
                    ),
                    packets_delivered: report.stats.packets,
                    culprit: None,
                    trigger: None,
                },
                checkpoint_cycle: 0,
                frames_replayed: 0,
                recovered_at_cycle: device.now(),
            });
        }
        fold_cache_delta(&mut report.stats, device, self.cache_before);
        self.report
    }

    /// The one containment step: restore the last checkpoint, then replay
    /// silently from it through `window`'s frames at `max_batch = 1` in
    /// [`Mode::Locating`] until the trip recurs. The sink already holds
    /// every pre-culprit outcome from the original attempt (batching does
    /// not change device results), so the replay counts frames instead of
    /// re-delivering them; the solo dispatch leaves the cursors exactly
    /// one past a culprit frame. `payload` is what the original attempt
    /// raised (`None` for a watchdog-detected stall) and speaks only when
    /// the replay catches nothing itself: without a checkpoint (a genuine
    /// engine panic on an unarmed device; the run's delivered count then
    /// says how far it got), or when the replay runs clean because
    /// the panic came from the caller's sink, not the device.
    fn locate(
        &mut self,
        device: &mut Device,
        flows: &[FlowRun],
        window: Window,
        payload: Option<PanicPayload>,
    ) -> Located {
        let mut caught = Caught::default();
        let mut counter = LastStageSink::default();
        let mut reproduced = true;
        let (checkpoint_cycle, delivered_before) = match &self.ckpts.last {
            Some(ckpt) => {
                device.restore(&ckpt.device);
                self.cursors.clone_from(&ckpt.cursors);
                let mut scratch = RuntimeStats::default();
                // Frames and triggers trip solo inside the replay, so this
                // outer catch is defensive only (a panic escaping it would
                // be a harness bug, not a device fault).
                let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mode = Mode::Locating(&mut caught);
                    Drive::new(&mut *device, &mut counter, &mut scratch, mode, window).run(
                        flows,
                        &mut self.cursors,
                        1,
                    )
                }));
                reproduced = !matches!(end, Ok(Ok(DriveEnd::Completed)));
                (ckpt.device.at_cycle(), consumed(&ckpt.cursors))
            }
            None => (0, self.report.stats.packets),
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
            flow: caught.flow,
            checkpoint_cycle,
            frames_replayed: counter.delivered,
        }
    }
}

/// A trip as [`ContainedDrive::locate`] pinned it down: the quarantine
/// record as it would stand, plus the replay figures a [`DeviceRecovery`]
/// adds when the device rejoins instead.
struct Located {
    fault: DeviceFault,
    /// The culprit frame's flow, as a position in the drive's flow list.
    flow: usize,
    /// Virtual cycle the restored checkpoint was taken at.
    checkpoint_cycle: u64,
    /// Frames the replay delivered between the checkpoint and the trip.
    frames_replayed: u64,
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
    last_stage: Option<&'static str>,
}

impl DeviceSink for LastStageSink {
    fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
        self.delivered += 1;
        self.last_stage = Some(p.last_stage);
    }
}

// ---------------------------------------------------------------------
// The fleet fan-out
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
/// even when a churn op failed), the run's counters, and the run outcome.
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

/// Fans per-device jobs out over at most `workers` OS threads and keeps
/// none between calls: each call splits its jobs into contiguous lanes,
/// runs the first on the caller's thread and the rest on scoped threads —
/// a static device→thread partition with no shared queue. It keeps no
/// counters either: each [`DeviceDone`] carries its own run's. With
/// `workers <= 1` (or one job) nothing is spawned: the 1-worker run is
/// the determinism contract's reference.
#[derive(Debug)]
pub struct FleetRuntime {
    workers: usize,
    recovery: Option<RecoveryPolicy>,
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
    /// A runtime that fans out over at most `workers` OS threads, the
    /// caller's included (min 1; 1 = fully inline).
    pub fn new(workers: usize) -> Self {
        FleetRuntime {
            workers: workers.max(1),
            recovery: None,
        }
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

    /// Run per-device jobs and return their outcomes **in job order**. Each
    /// lane replaces its jobs with their outcomes in its own block of one
    /// job-ordered list, so nothing a job owns outlives its run; jobs may
    /// borrow from the caller. A panicking job costs only its own slot: its
    /// payload comes back as that slot's `Err` and the rest of its lane
    /// still runs. [`FleetRuntime::run`] is built on this; fleets call it
    /// directly to drive their members in place.
    pub fn execute<R, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<R>>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        /// A job, then (once its lane has run it) its outcome, in place.
        enum Slot<F, R> {
            Job(F),
            Running,
            Done(std::thread::Result<R>),
        }
        fn run_lane<R, F: FnOnce() -> R>(lane: &mut [Slot<F, R>]) {
            for slot in lane {
                if let Slot::Job(job) = std::mem::replace(slot, Slot::Running) {
                    *slot = Slot::Done(std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)));
                }
            }
        }
        let lane = jobs.len().div_ceil(self.workers).max(1);
        let mut slots: Vec<Slot<F, R>> = jobs.into_iter().map(Slot::Job).collect();
        std::thread::scope(|scope| {
            let mut lanes = slots.chunks_mut(lane);
            let first = lanes.next();
            for rest in lanes {
                scope.spawn(move || run_lane(rest));
            }
            if let Some(first) = first {
                run_lane(first);
            }
        });
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(outcome) => outcome,
                // Every lane ran all its jobs under `catch_unwind` by the join.
                Slot::Job(_) | Slot::Running => unreachable!("every job ran"),
            })
            .collect()
    }

    /// Run every task and hand the devices back **in task order** — the
    /// deterministic cross-device ordering (task index is the device id).
    /// Each [`DeviceDone`] carries its own run's counters and trip
    /// records; the runtime keeps nothing between calls.
    pub fn run<S>(&self, tasks: Vec<DeviceTask<S>>) -> Vec<DeviceDone<S>>
    where
        S: DeviceSink + Send,
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
        self.execute(jobs)
            .into_iter()
            // `drive_device_with` contains device panics, so one escaping a
            // job is a sink or harness bug: re-raise it, never hide it.
            .map(|done| done.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
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

    /// Two paced flows with different gaps share a dispatch whenever
    /// `max_batch` frames are queued, whatever instants those frames are
    /// due at: 128 frames over 112 instants go out in 128 / 16 = 8
    /// dispatches, and every outcome, completion cycle and device counter
    /// equals the per-frame advance-then-inject reference.
    #[test]
    fn paced_flows_dispatch_across_instants() {
        use netdebug_hw::{Backend, Outcome};
        struct Record(Vec<(u32, u64, Outcome, u64, &'static str)>);
        impl DeviceSink for Record {
            fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
                self.0
                    .push((flow, seq, p.outcome, p.done_at_cycle, p.last_stage));
            }
        }
        let frames: Arc<Vec<GeneratedPacket>> = Arc::new(
            (0..64)
                .map(|seq| GeneratedPacket {
                    data: vec![seq as u8; 64].into(),
                    stream: 1,
                    seq,
                    ts_cycles: 0,
                })
                .collect(),
        );
        let flows: Vec<FlowRun> = [(80, 1), (320, 2)]
            .into_iter()
            .enumerate()
            .map(|(id, (gap, port))| FlowRun {
                gap,
                ..FlowRun::new(id as u32, port, Arc::clone(&frames))
            })
            .collect();
        let deploy = || {
            Device::deploy_source(&Backend::reference(), netdebug_p4::corpus::REFLECTOR).unwrap()
        };
        let mut dev = deploy();
        let mut sink = Record(Vec::new());
        let (stats, result) = drive_device(&mut dev, &flows, 16, &mut sink);
        assert!(result.is_ok());
        assert_eq!(
            (stats.packets, stats.dispatches, stats.max_batch),
            (128, 8, 16)
        );
        // Flow 0 is due at 80, 160, ..., 5120; flow 1 at 320, ..., 20480,
        // 16 of them on flow 0's instants.
        assert_eq!((stats.instants, stats.max_ready_depth), (112, 2));

        let mut events: Vec<(u64, u32, u64)> = flows
            .iter()
            .flat_map(|f| (0..64).map(|seq| (f.due(seq), f.id, seq)))
            .collect();
        events.sort_unstable();
        let mut twin = deploy();
        let mut expected = Vec::new();
        for (due, id, seq) in events {
            twin.advance(due - twin.now());
            let flow = &flows[id as usize];
            let p = twin.inject(flow.as_port, &flow.frames[seq as usize].data);
            expected.push((id, seq, p.outcome, p.done_at_cycle, p.last_stage));
        }
        assert_eq!(sink.0, expected);
        assert_eq!(dev.now(), twin.now());
        assert_eq!(dev.stage_counts(), twin.stage_counts());
        assert_eq!(dev.drop_counts(), twin.drop_counts());
        for port in 0..4 {
            assert_eq!(dev.port_stats(port), twin.port_stats(port));
        }
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

    /// The fan-out over every small job count and worker count: outcomes
    /// come back in job order, jobs write through borrows of a local
    /// (which needs no `'static`), job 0 runs on the caller's thread, no
    /// more than `min(workers, n)` threads run jobs, and a panicking job
    /// costs only its own slot.
    #[test]
    fn execute_fans_out_in_job_order_on_at_most_workers_threads() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        let caller = thread::current().id();
        for n in [0usize, 1, 2, 3, 5, 64] {
            for workers in [1usize, 2, 3, 4, 8] {
                let rt = FleetRuntime::new(workers);
                let mut cells = vec![0usize; n];
                let jobs: Vec<_> = cells
                    .iter_mut()
                    .enumerate()
                    .map(|(i, cell)| {
                        move || {
                            *cell = i * 3 + 1;
                            (i, thread::current().id())
                        }
                    })
                    .collect();
                let out: Vec<(usize, ThreadId)> = rt
                    .execute(jobs)
                    .into_iter()
                    .map(|r| r.unwrap_or_else(|_| panic!("no job panics here")))
                    .collect();
                let case = format!("n {n}, workers {workers}");
                let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "{case}");
                assert_eq!(
                    cells,
                    (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                    "{case}"
                );
                if let Some(&(_, first)) = out.first() {
                    assert_eq!(first, caller, "{case}: lane 0 runs on the caller");
                }
                let threads: HashSet<ThreadId> = out.iter().map(|&(_, t)| t).collect();
                assert!(threads.len() <= workers.min(n), "{case}: {threads:?}");

                if n == 0 {
                    continue;
                }
                let bad = n / 2;
                let jobs: Vec<_> = (0..n)
                    .map(|i| {
                        move || {
                            if i == bad {
                                panic!("job {i} panics");
                            }
                            i
                        }
                    })
                    .collect();
                for (i, r) in rt.execute(jobs).into_iter().enumerate() {
                    match r {
                        Ok(v) => assert_eq!(v, i, "{case}"),
                        Err(_) => assert_eq!(i, bad, "{case}: only the panicking slot"),
                    }
                }
            }
        }
    }

    /// A panic that escapes [`drive_device_with`] — here the sink blows
    /// up on the Faulted drop that recovery hands it, outside the drive's
    /// own containment — is a harness bug: `run` re-raises it on the
    /// caller whichever lane it ran on.
    #[test]
    fn run_reraises_a_panicking_sink() {
        use netdebug_hw::{Backend, FaultSpec};
        struct Fragile;
        impl DeviceSink for Fragile {
            fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
                assert!(p.outcome.transmitted(), "sink cannot take a drop");
            }
        }
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
        for faulty in 0..2 {
            let tasks: Vec<DeviceTask<Fragile>> = (0..2)
                .map(|i| {
                    let mut device = Device::deploy_source(
                        &Backend::reference(),
                        netdebug_p4::corpus::REFLECTOR,
                    )
                    .unwrap();
                    if i == faulty {
                        device.arm_fault(FaultSpec::PanicAfterN { n: 1 });
                    }
                    DeviceTask {
                        device,
                        flows: vec![FlowRun::new(1, 0, Arc::clone(&frames))],
                        sink: Fragile,
                    }
                })
                .collect();
            let mut rt = FleetRuntime::new(2);
            rt.set_recovery(Some(RecoveryPolicy::default()));
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run(tasks)));
            let payload = out.err().expect("the sink's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"sink cannot take a drop")
            );
        }
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

    /// A single-flow drive that a fault ends early still records the flow
    /// it had ready, and one with no frame to emit records none.
    #[test]
    fn an_early_exit_still_records_the_ready_depth() {
        use netdebug_hw::{Backend, FaultSpec};
        let frames: Vec<GeneratedPacket> = (0..16)
            .map(|seq| GeneratedPacket {
                data: vec![seq as u8; 64].into(),
                stream: 1,
                seq,
                ts_cycles: 0,
            })
            .collect();
        let deploy = || {
            Device::deploy_source(&Backend::reference(), netdebug_p4::corpus::REFLECTOR).unwrap()
        };
        let mut dev = deploy();
        dev.arm_fault(FaultSpec::PanicAfterN { n: 5 });
        let flows = [FlowRun::new(1, 0, Arc::new(frames))];
        let mut sink = LastStageSink::default();
        let run = drive_device_with(&mut dev, &flows, 8, &mut sink, None);
        assert_eq!(
            run.fault.expect("budget 0 quarantines").packets_delivered,
            5
        );
        assert_eq!(run.stats.max_ready_depth, 1);
        let empty = [FlowRun::new(1, 0, Arc::default())];
        let (stats, _) = drive_device(&mut deploy(), &empty, 8, &mut sink);
        assert_eq!(stats.max_ready_depth, 0);
    }

    /// A flow id is a caller label, so two flows may share one. Recovery
    /// must skip the culprit in the flow it came from — here the second
    /// of two flows labelled 7 — not rewind the first flow with that id.
    #[test]
    fn recovery_skips_the_culprit_of_the_right_flow_when_ids_repeat() {
        use netdebug_hw::{Backend, FaultSpec};
        struct Delivered(Vec<(u32, u64, netdebug_hw::Outcome)>);
        impl DeviceSink for Delivered {
            fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
                self.0.push((flow, seq, p.outcome));
            }
        }
        let frames: Arc<Vec<GeneratedPacket>> = Arc::new(
            (0..8)
                .map(|seq| GeneratedPacket {
                    data: vec![seq as u8; 64].into(),
                    stream: 1,
                    seq,
                    ts_cycles: 0,
                })
                .collect(),
        );
        let run = |ids: [u32; 2]| {
            let flows: Vec<FlowRun> = ids
                .iter()
                .zip([0, 15])
                .map(|(&id, origin)| FlowRun {
                    origin,
                    gap: 10,
                    ..FlowRun::new(id, 0, Arc::clone(&frames))
                })
                .collect();
            let mut dev =
                Device::deploy_source(&Backend::reference(), netdebug_p4::corpus::REFLECTOR)
                    .unwrap();
            dev.arm_fault(FaultSpec::PanicAfterN { n: 6 });
            let mut sink = Delivered(Vec::new());
            let report = drive_device_with(
                &mut dev,
                &flows,
                8,
                &mut sink,
                Some(RecoveryPolicy::default()),
            );
            assert!(report.fault.is_none(), "{:?}", report.fault);
            assert_eq!(report.recoveries.len(), 1);
            let culprit = report.recoveries[0].trip.culprit.clone().unwrap();
            (sink.0, (culprit.flow, culprit.seq))
        };
        let (distinct, culprit) = run([7, 8]);
        assert_eq!(culprit, (8, 2), "the second flow's third frame trips");
        let mut seen: Vec<(u32, u64)> = distinct.iter().map(|&(f, s, _)| (f, s)).collect();
        seen.sort_unstable();
        let every: Vec<(u32, u64)> = [7, 8]
            .into_iter()
            .flat_map(|f| (0..8).map(move |s| (f, s)))
            .collect();
        assert_eq!(seen, every, "every frame delivered exactly once");
        let skipped = netdebug_hw::Outcome::Dropped {
            reason: netdebug_dataplane::DropReason::Faulted,
        };
        let faulted: Vec<(u32, u64)> = distinct
            .iter()
            .filter(|d| d.2 == skipped)
            .map(|&(f, s, _)| (f, s))
            .collect();
        assert_eq!(faulted, vec![(8, 2)], "the culprit is the one Faulted drop");

        let (shared, culprit) = run([7, 7]);
        assert_eq!(culprit, (7, 2));
        assert_eq!(shared.len(), 16, "no frame delivered twice");
        let unlabelled =
            |d: &[(u32, u64, netdebug_hw::Outcome)]| -> Vec<(u64, netdebug_hw::Outcome)> {
                d.iter().map(|(_, s, o)| (*s, o.clone())).collect()
            };
        assert_eq!(unlabelled(&shared), unlabelled(&distinct));
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
