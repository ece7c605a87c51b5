//! The virtual-time event-loop fleet runtime.
//!
//! Every [`netdebug_hw::Device`] keeps its own virtual clock, and before
//! this module each paced stream serialised packet-at-a-time on that
//! clock while `DifferentialFleet` burned one OS thread per device per
//! window. The runtime replaces both with an **event loop over virtual
//! device cycles**: each device owns a hierarchical timer wheel holding
//! one entry per active flow, the loop pops the earliest pending virtual
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

    /// The virtual cycle frame `seq` is due at.
    pub fn due(&self, seq: u64) -> u64 {
        if self.gap == 0 {
            self.origin
        } else {
            self.origin + self.gap * (seq + 1)
        }
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
    /// Timer-wheel cascades (an upper-level slot drained and re-filed).
    pub wheel_cascades: u64,
    /// Device flow-cache hits over the run (memoized fast-path replays —
    /// see `netdebug_dataplane::Dataplane::cache_stats`).
    pub cache_hits: u64,
    /// Device flow-cache misses over the run.
    pub cache_misses: u64,
    /// Device flow-cache invalidations (epoch bumps that dropped a
    /// non-empty cache) over the run — churn triggers show up here.
    pub cache_invalidations: u64,
    /// Devices quarantined by the guarded driver (a crash-class fault or
    /// genuine panic caught mid-run; see [`DeviceFault`]). With recovery
    /// enabled this counts trips, recovered or not.
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
        self.wheel_cascades += other.wheel_cascades;
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
// Hierarchical timer wheel
// ---------------------------------------------------------------------

const WHEEL_BITS: u32 = 8;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_LEVELS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerEntry {
    due: u64,
    flow: u32,
}

/// A 4-level × 256-slot hierarchical timer wheel over virtual device
/// cycles. Level 0 is cycle-granular; each level up covers 256× the span
/// below it; anything further than `2^32` cycles out waits in an overflow
/// list. `pop_next` returns all entries due at the earliest pending
/// instant, cascading upper-level slots down only when the near wheel is
/// empty — entries never sit more than one cascade away from exact
/// placement because the clock jumps straight to the next due instant.
struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    overflow: Vec<TimerEntry>,
    now: u64,
    pending: usize,
    cascades: u64,
}

impl TimerWheel {
    fn new(now: u64) -> Self {
        TimerWheel {
            slots: (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect(),
            overflow: Vec::new(),
            now,
            pending: 0,
            cascades: 0,
        }
    }

    /// File `flow` to fire at `due` (clamped to `now`: virtual time never
    /// runs backwards).
    fn schedule(&mut self, due: u64, flow: u32) {
        let due = due.max(self.now);
        self.pending += 1;
        let delta = due - self.now;
        let entry = TimerEntry { due, flow };
        for level in 0..WHEEL_LEVELS {
            let span_bits = WHEEL_BITS * (level as u32 + 1);
            if delta < (1u64 << span_bits) {
                let slot =
                    ((due >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
                self.slots[level * WHEEL_SLOTS + slot].push(entry);
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Pop every entry due at the earliest pending instant into `out`
    /// (sorted by flow), advancing `now` to that instant. Returns the
    /// instant, or `None` when nothing is pending.
    fn pop_next(&mut self, out: &mut Vec<TimerEntry>) -> Option<u64> {
        out.clear();
        if self.pending == 0 {
            return None;
        }
        loop {
            // Near wheel: level 0 holds at most the next 256 cycles, and
            // every entry in slot (now + i) & 255 is due exactly at
            // now + i — the first non-empty slot in time order is the
            // near minimum. (It is NOT necessarily the global minimum:
            // an upper-level entry filed long ago can be due sooner.)
            let mut near: Option<u64> = None;
            for i in 0..WHEEL_SLOTS as u64 {
                let t = self.now + i;
                let slot = (t & (WHEEL_SLOTS as u64 - 1)) as usize;
                if !self.slots[slot].is_empty() {
                    near = Some(t);
                    break;
                }
            }
            // Far wheels: find the earliest pending due across the upper
            // levels and the overflow list. Within a level, buckets in
            // time order from `now` hold the level's earliest entries, so
            // the first non-empty *absolute* bucket (slot index alone can
            // alias near and far entries) bounds that level's minimum.
            let mut far: Option<(u64, usize, u64)> = None; // (due, level, bucket)
            for level in 1..WHEEL_LEVELS {
                let shift = WHEEL_BITS * level as u32;
                let base = self.now >> shift;
                for j in 0..=WHEEL_SLOTS as u64 {
                    let bucket = base + j;
                    let slot = (bucket & (WHEEL_SLOTS as u64 - 1)) as usize;
                    let min = self.slots[level * WHEEL_SLOTS + slot]
                        .iter()
                        .filter(|e| (e.due >> shift) == bucket)
                        .map(|e| e.due)
                        .min();
                    if let Some(due) = min {
                        if far.is_none_or(|(d, _, _)| due < d) {
                            far = Some((due, level, bucket));
                        }
                        break;
                    }
                }
            }
            if let Some(due) = self.overflow.iter().map(|e| e.due).min() {
                if far.is_none_or(|(d, _, _)| due < d) {
                    far = Some((due, WHEEL_LEVELS, 0));
                }
            }
            // Drain level 0 only when it is *strictly* earliest —
            // otherwise a far entry due at (or before) the near minimum
            // must cascade down first, so every entry at one instant
            // coalesces into one pop and `now` never overshoots a
            // pending due.
            if let Some(t) = near {
                if far.is_none_or(|(d, _, _)| t < d) {
                    self.now = t;
                    let slot = (t & (WHEEL_SLOTS as u64 - 1)) as usize;
                    out.append(&mut self.slots[slot]);
                    self.pending -= out.len();
                    out.sort_unstable_by_key(|e| e.flow);
                    return Some(t);
                }
            }
            let (due, level, bucket) =
                far.expect("pending entries must be filed somewhere in the wheel");
            // Jump to the far minimum (nothing is pending earlier) and
            // cascade the winning slot down; its minimum lands in level 0
            // and the next lap drains it together with anything already
            // there at the same instant.
            self.now = due;
            self.cascades += 1;
            let drained: Vec<TimerEntry> = if level == WHEEL_LEVELS {
                std::mem::take(&mut self.overflow)
            } else {
                let shift = WHEEL_BITS * level as u32;
                let slot = (bucket & (WHEEL_SLOTS as u64 - 1)) as usize;
                let vec = &mut self.slots[level * WHEEL_SLOTS + slot];
                let mut matching = Vec::with_capacity(vec.len());
                let mut rest = Vec::new();
                for e in vec.drain(..) {
                    if (e.due >> shift) == bucket {
                        matching.push(e);
                    } else {
                        rest.push(e);
                    }
                }
                *vec = rest;
                matching
            };
            self.pending -= drained.len();
            for e in drained {
                self.schedule(e.due, e.flow);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-device event loop
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FlowCursor {
    next_seq: u64,
    trigger: usize,
}

/// Fresh per-flow cursors at the start of a drive (or a replay from the
/// beginning).
fn fresh_cursors(flows: &[FlowRun]) -> Vec<FlowCursor> {
    flows
        .iter()
        .map(|_| FlowCursor {
            next_seq: 0,
            trigger: 0,
        })
        .collect()
}

/// Virtual-cycle deadline the guarded drivers charge to a device that
/// went silent before declaring it dead: models the liveness watchdog's
/// time-to-detection, exactly as `WedgeParser` charges its burned budget.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 4096;

/// How checkpoint/restore recovery behaves under
/// [`drive_device_recovering`] (and a [`FleetRuntime`] with
/// [`FleetRuntime::set_recovery`] enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Recoveries allowed per device per run before the device is
    /// permanently quarantined (a device that keeps dying is reported,
    /// not retried forever).
    pub max_recoveries: u32,
    /// Checkpoint cadence in **delivered frames**: a bounded-replay knob
    /// — after a trip, at most this many frames (plus the failed batch)
    /// replay silently from the last checkpoint.
    pub checkpoint_interval: u64,
    /// Virtual-cycle liveness deadline: the watchdog burn charged to a
    /// wedged device's clock before it is declared dead. Recovery
    /// restores the pre-wedge clock, so the burn is observable only on
    /// permanently quarantined members.
    pub watchdog_cycles: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_recoveries: 4,
            checkpoint_interval: 64,
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
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

/// Checkpoint cadence state threaded through [`drive_device_inner`] when
/// recovery is enabled.
struct RecoverCtl {
    interval: u64,
    delivered: u64,
    next_at: u64,
    ckpt: Option<DriveCheckpoint>,
}

impl RecoverCtl {
    fn new(interval: u64) -> Self {
        RecoverCtl {
            interval: interval.max(1),
            delivered: 0,
            next_at: 0,
            ckpt: None,
        }
    }

    /// Capture a checkpoint at the current drive position.
    fn take(&mut self, device: &Device, cursors: &[FlowCursor]) {
        self.ckpt = Some(DriveCheckpoint {
            device: device.checkpoint(),
            cursors: cursors.to_vec(),
            delivered: self.delivered,
        });
        self.next_at = self.delivered + self.interval;
    }
}

/// How one [`drive_device_inner`] call ended (short of a control error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriveEnd {
    /// Every frame of every flow was dispatched.
    Completed,
    /// The isolation guard caught a panic; the guard holds the evidence.
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
    /// the culprit (from the isolation replay's trace taps), when any
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
    /// panic payload, or `"panic"` for an untyped panic).
    pub fault: String,
    /// Pipeline position the fault fired at (`"ingress"`, `"parser"`,
    /// `"driver"`, or `"unknown"` for untyped panics).
    pub stage: String,
    /// Human-readable payload detail.
    pub detail: String,
    /// Packets the device delivered before the trip (exact when the
    /// isolation replay ran; the dispatched count otherwise).
    pub packets_delivered: u64,
    /// The single culprit frame, when the fault keyed on a frame.
    pub culprit: Option<CulpritFrame>,
    /// The churn trigger that fired the fault (publication faults),
    /// rendered as `flow <id> seq <s>: <op>`.
    pub trigger: Option<String>,
}

/// What the guarded replay caught while bisecting: the culprit (frame or
/// trigger) and the panic payload it raised.
#[derive(Default)]
struct GuardState {
    culprit: Option<CulpritFrame>,
    trigger: Option<String>,
    payload: Option<Box<dyn std::any::Any + Send>>,
}

/// How one coalesced dispatch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushOutcome {
    /// Every frame delivered an outcome.
    Clean,
    /// The guard caught a panic; the guard holds the evidence.
    Caught,
    /// The device swallowed at least one frame without an outcome (a
    /// silent stall wedge). With a guard armed, the first swallowed frame
    /// is recorded as the culprit.
    Stalled,
}

/// How a drive ends before its last frame: the [`DriveEnd`], or the
/// control error of a rejected churn op.
type DriveExit = Result<DriveEnd, ControlError>;

/// The state one [`drive_device_inner`] call threads through its emission
/// and flush sites: where frames go (device, sink, stats), the fault
/// hooks, and the frames emitted but not yet dispatched.
struct Drive<'a, 'f, S: ?Sized> {
    device: &'a mut Device,
    sink: &'a mut S,
    stats: &'a mut RuntimeStats,
    guard: Option<&'a mut GuardState>,
    recover: Option<&'a mut RecoverCtl>,
    pkts: Vec<(u16, &'f [u8])>,
    dues: Vec<u64>,
    meta: Vec<(u32, u64)>,
}

impl<'f, S: DeviceSink + ?Sized> Drive<'_, 'f, S> {
    /// Queue frame `seq` of `flow`, due at `due`.
    fn push(&mut self, flow: &'f FlowRun, seq: u64, due: u64) {
        self.pkts
            .push((flow.as_port, flow.frames[seq as usize].data.as_slice()));
        self.dues.push(due);
        self.meta.push((flow.id, seq));
    }

    /// Dispatch the pending frames. Without a guard this is the plain hot
    /// path: one batch-engine call chain, with a delivered-count acting as
    /// the **liveness watchdog** — a device that returns fewer outcomes
    /// than frames has silently wedged, and the dispatch reports
    /// [`FlushOutcome::Stalled`] instead of pretending the frames were
    /// processed. With a guard (isolation replay only) the batch is
    /// **bisected under `catch_unwind`**: every frame dispatches solo, and
    /// the first one to die — by panic or by silent swallow — is recorded
    /// as the culprit, bytes attached, instead of unwinding.
    fn dispatch(&mut self) -> FlushOutcome {
        let Drive {
            device,
            sink,
            stats,
            guard,
            pkts,
            dues,
            meta,
            ..
        } = self;
        if pkts.is_empty() {
            return FlushOutcome::Clean;
        }
        stats.dispatches += 1;
        stats.packets += pkts.len() as u64;
        stats.max_batch = stats.max_batch.max(pkts.len() as u64);
        let mut outcome = FlushOutcome::Clean;
        match guard.as_deref_mut() {
            None => {
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
                    outcome = FlushOutcome::Stalled;
                }
            }
            Some(g) => {
                for i in 0..pkts.len() {
                    let one_pkt = [pkts[i]];
                    let one_due = [dues[i]];
                    let (flow, seq) = meta[i];
                    let mut seen = 0usize;
                    let solo = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        device
                            .inject_batch_at(&one_pkt, &one_due, |_, p| {
                                seen += 1;
                                sink.on_packet(flow, seq, p);
                            })
                            .expect("one frame, one due time");
                    }));
                    let caught = match solo {
                        Err(payload) => {
                            g.payload = Some(payload);
                            FlushOutcome::Caught
                        }
                        // A solo frame that came back without an outcome
                        // was swallowed by a stall wedge: same culprit
                        // treatment, no payload.
                        Ok(()) if seen == 0 => FlushOutcome::Stalled,
                        Ok(()) => continue,
                    };
                    g.culprit = Some(CulpritFrame {
                        flow,
                        seq,
                        port: one_pkt[0].0,
                        bytes: one_pkt[0].1.to_vec(),
                        prior_stage: None,
                    });
                    outcome = caught;
                    break;
                }
            }
        }
        pkts.clear();
        dues.clear();
        meta.clear();
        outcome
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
        match self.dispatch() {
            FlushOutcome::Clean => {
                if let Some(ctl) = self.recover.as_deref_mut() {
                    ctl.delivered += n;
                    if let Some(cursors) = checkpoint_at {
                        if ctl.delivered >= ctl.next_at {
                            ctl.take(self.device, cursors);
                        }
                    }
                }
                ControlFlow::Continue(())
            }
            FlushOutcome::Caught => ControlFlow::Break(Ok(DriveEnd::Interrupted)),
            FlushOutcome::Stalled => ControlFlow::Break(Ok(DriveEnd::Stalled)),
        }
    }

    /// Publish the triggers of `flow` due at or before seq `s`, each
    /// after flushing the frames emitted ahead of it.
    fn drain_triggers(
        &mut self,
        flow: &FlowRun,
        cursor: &mut FlowCursor,
        s: u64,
    ) -> ControlFlow<DriveExit> {
        while cursor.trigger < flow.triggers.len() && flow.triggers[cursor.trigger].0 <= s {
            let t = cursor.trigger;
            cursor.trigger += 1;
            self.flush(None)?;
            match apply_trigger(self.device, flow, t, s, self.guard.as_deref_mut()) {
                TriggerOutcome::Applied => {}
                TriggerOutcome::Rejected(e) => return ControlFlow::Break(Err(e)),
                TriggerOutcome::Caught => return ControlFlow::Break(Ok(DriveEnd::Interrupted)),
            }
        }
        ControlFlow::Continue(())
    }

    /// Single-flow fast path: the wheel degenerates to "next seq" — skip
    /// it entirely so paced single-stream drivers (NetDebug sessions,
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

    /// The general path: pop each virtual instant off the wheel and
    /// coalesce every frame due at it, flow by flow in declaration order.
    fn run_wheel(
        &mut self,
        flows: &'f [FlowRun],
        cursors: &mut [FlowCursor],
        max_batch: usize,
        wheel: &mut TimerWheel,
    ) -> ControlFlow<DriveExit> {
        for (i, flow) in flows.iter().enumerate() {
            if cursors[i].next_seq < flow.frames.len() as u64 {
                wheel.schedule(flow.due(cursors[i].next_seq), i as u32);
            }
        }
        let mut ready: Vec<TimerEntry> = Vec::new();
        while let Some(instant) = wheel.pop_next(&mut ready) {
            self.stats.instants += 1;
            self.stats.max_ready_depth = self.stats.max_ready_depth.max(ready.len() as u64);
            for entry in &ready {
                let fi = entry.flow as usize;
                let flow = &flows[fi];
                let count = flow.frames.len() as u64;
                loop {
                    let s = cursors[fi].next_seq;
                    self.drain_triggers(flow, &mut cursors[fi], s)?;
                    if s >= count || flow.due(s) != instant {
                        break;
                    }
                    self.push(flow, s, instant);
                    cursors[fi].next_seq += 1;
                    if self.pkts.len() >= max_batch {
                        self.flush(Some(cursors))?;
                    }
                }
                if cursors[fi].next_seq < count {
                    wheel.schedule(flow.due(cursors[fi].next_seq), entry.flow);
                }
            }
            // Flush at the instant boundary: dispatches never span a clock
            // step, so `inject_batch_at` groups stay whole-instant batches.
            self.flush(Some(cursors))?;
        }
        ControlFlow::Continue(())
    }
}

/// Drive one device's flows to completion on the **caller's thread**: the
/// single-device core of the runtime (a [`FleetRuntime`] runs one of
/// these per device task). Emission order is the determinism contract —
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
    let mut cursors = fresh_cursors(flows);
    // A silent stall wedge ends the drive early — every later frame
    // would be swallowed anyway; the unguarded driver just stops.
    let result = drive_device_inner(
        device,
        flows,
        max_batch,
        sink,
        &mut stats,
        None,
        None,
        &mut cursors,
    )
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

/// [`drive_device`] hardened against hostile devices: the whole drive
/// runs under `catch_unwind`, so a crash-class fault
/// ([`netdebug_hw::FaultSpec`]) — or a genuine engine panic — quarantines
/// the device instead of unwinding the caller.
///
/// On a trip, the offending run is re-driven on a **pre-run clone** of
/// the device (taken only when faults are armed; healthy devices never
/// pay the clone) with `max_batch = 1` and the bisection guard engaged:
/// every frame of the offending batch replays **solo under
/// `catch_unwind`**, and the first to die is reported as the
/// [`CulpritFrame`] — frame bytes and the last trace stage attached —
/// inside a structured [`DeviceFault`]. Determinism of the armed
/// counters (see [`netdebug_hw::FaultState`]) guarantees the replay
/// trips on the same frame the original run did.
///
/// The returned `Result` stays `Ok` on a fault (the fault record *is*
/// the outcome); `stats.faults` counts 1. The device is left in its
/// post-panic state — quarantine it (fleets exclude faulted members from
/// diffing) rather than reusing it.
///
/// Fault-free runs take exactly the [`drive_device`] path plus one
/// `catch_unwind` frame and one `armed_faults` check — the measured
/// overhead is gated ≤ 5% in `BENCH_fault.json`.
pub fn drive_device_guarded<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    max_batch: usize,
    sink: &mut S,
) -> (RuntimeStats, Result<(), ControlError>, Option<DeviceFault>) {
    let snapshot = if device.armed_faults().is_empty() {
        None
    } else {
        Some(device.clone())
    };
    let cache_before = device.cache_stats();
    let mut stats = RuntimeStats::default();
    let mut cursors = fresh_cursors(flows);
    let outcome = {
        let device = &mut *device;
        let sink = &mut *sink;
        let stats = &mut stats;
        let cursors = &mut cursors;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            drive_device_inner(device, flows, max_batch, sink, stats, None, None, cursors)
        }))
    };
    fold_cache_delta(&mut stats, device, cache_before);
    match outcome {
        Ok(Ok(DriveEnd::Stalled)) => {
            // The liveness watchdog: the device missed its instant (a
            // frame went in, no outcome came out). Charge the virtual
            // deadline the watchdog waited before declaring it dead,
            // then quarantine exactly like a panic — the snapshot replay
            // bisects the wedging frame.
            stats.faults += 1;
            device.advance(DEFAULT_WATCHDOG_CYCLES);
            let fault = isolate_fault(snapshot, flows, None, stats.packets);
            (stats, Ok(()), Some(fault))
        }
        Ok(result) => (stats, result.map(|_| ()), None),
        Err(payload) => {
            stats.faults += 1;
            let fault = isolate_fault(snapshot, flows, Some(payload), stats.packets);
            (stats, Ok(()), Some(fault))
        }
    }
}

/// [`drive_device_guarded`] upgraded from quarantine to **recovery**:
/// instead of losing a faulted device for the rest of the run, the
/// driver checkpoints the device at `policy.checkpoint_interval`
/// delivered frames (cheap: table state pins the published `Arc`
/// snapshot chain) and, when a crash-class fault trips — or the
/// virtual-time liveness watchdog catches a silent
/// [`netdebug_hw::FaultSpec::Stall`] wedge — it:
///
/// 1. restores the device from the last checkpoint (tables, externs,
///    taps, clock, fault counters all rewind);
/// 2. silently replays the frames the sink already received, which
///    re-trips deterministically on the same culprit and leaves the
///    emission cursors exactly past it;
/// 3. skips the culprit — booked as a
///    [`netdebug_dataplane::DropReason::Faulted`] drop that occupies the
///    pipeline slot a normal frame would have, so every later frame's
///    timing matches the fault-free run — and hands the sink its record;
/// 4. re-checkpoints and resumes the drive where it left off.
///
/// Each rejoin is recorded as a [`DeviceRecovery`]. Devices that exceed
/// `policy.max_recoveries`, trip *inside a churn publication* (the
/// device-level retry in [`netdebug_hw::Device::install`] is the
/// recovery path for those; a panic surviving it is permanent), or whose
/// fault does not reproduce on replay are permanently quarantined with a
/// [`DeviceFault`], exactly like [`drive_device_guarded`].
pub fn drive_device_recovering<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    max_batch: usize,
    sink: &mut S,
    policy: RecoveryPolicy,
) -> (
    RuntimeStats,
    Result<(), ControlError>,
    Vec<DeviceRecovery>,
    Option<DeviceFault>,
) {
    let cache_before = device.cache_stats();
    let retried_before = device.retried_publications();
    let mut stats = RuntimeStats::default();
    let mut cursors = fresh_cursors(flows);
    let mut ctl = RecoverCtl::new(policy.checkpoint_interval);
    ctl.take(device, &cursors);
    let mut recoveries: Vec<DeviceRecovery> = Vec::new();
    let mut fault = None;
    let result = loop {
        let outcome = {
            let device = &mut *device;
            let sink = &mut *sink;
            let stats = &mut stats;
            let cursors = &mut cursors;
            let ctl = &mut ctl;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                drive_device_inner(
                    device,
                    flows,
                    max_batch,
                    sink,
                    stats,
                    None,
                    Some(ctl),
                    cursors,
                )
            }))
        };
        let payload = match outcome {
            Ok(Err(e)) => break Err(e),
            // `Interrupted` cannot happen without a guard; treat it as
            // completion rather than looping.
            Ok(Ok(DriveEnd::Completed)) | Ok(Ok(DriveEnd::Interrupted)) => break Ok(()),
            Ok(Ok(DriveEnd::Stalled)) => None,
            Err(payload) => Some(payload),
        };
        stats.faults += 1;
        if recoveries.len() >= policy.max_recoveries as usize {
            let mut f = permanent_fault(&ctl, payload);
            f.detail.push_str(" (recovery budget exhausted)");
            fault = Some(f);
            break Ok(());
        }
        match try_recover(
            device,
            flows,
            &mut cursors,
            &mut ctl,
            policy,
            sink,
            &mut stats,
            payload,
        ) {
            Ok(rec) => {
                stats.recoveries += 1;
                recoveries.push(rec);
            }
            Err(f) => {
                fault = Some(f);
                break Ok(());
            }
        }
    };
    // Publication retries are the device-level arm of the same recovery
    // machinery: a transient driver crash absorbed by
    // [`netdebug_hw::Device::install`]'s bounded backoff converged to a
    // consistent snapshot instead of quarantining the device. Surface the
    // convergence as a recovery record so fleet reports account for it.
    let retried = device.retried_publications() - retried_before;
    if retried > 0 && fault.is_none() {
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
    (stats, result, recoveries, fault)
}

/// What one [`drive_device_with`] call produced.
pub(crate) struct DriveReport {
    pub(crate) stats: RuntimeStats,
    pub(crate) result: Result<(), ControlError>,
    /// Quarantine rejoins (always empty without a recovery policy).
    pub(crate) recoveries: Vec<DeviceRecovery>,
    /// The permanent quarantine record, if the device was lost.
    pub(crate) fault: Option<DeviceFault>,
}

/// Drive one device under the fault policy `recovery` selects:
/// [`drive_device_recovering`] with a policy, [`drive_device_guarded`]
/// (quarantine on the first trip) without one. The single policy
/// dispatch behind [`FleetRuntime::run`] and `NetDebug` stream runs.
pub(crate) fn drive_device_with<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    max_batch: usize,
    sink: &mut S,
    recovery: Option<RecoveryPolicy>,
) -> DriveReport {
    let (stats, result, recoveries, fault) = match recovery {
        Some(policy) => drive_device_recovering(device, flows, max_batch, sink, policy),
        None => {
            let (stats, result, fault) = drive_device_guarded(device, flows, max_batch, sink);
            (stats, result, Vec::new(), fault)
        }
    };
    DriveReport {
        stats,
        result,
        recoveries,
        fault,
    }
}

/// A fault record for a device that cannot (or may no longer) be
/// recovered, built without a fresh isolation replay.
fn permanent_fault(
    ctl: &RecoverCtl,
    payload: Option<Box<dyn std::any::Any + Send>>,
) -> DeviceFault {
    let (fault, stage, detail) = match payload {
        Some(p) => describe_panic(p.as_ref()),
        None => describe_stall(None),
    };
    DeviceFault {
        member: String::new(),
        fault,
        stage,
        detail,
        packets_delivered: ctl.delivered,
        culprit: None,
        trigger: None,
    }
}

/// One quarantine-rejoin attempt: restore from the last checkpoint,
/// silently replay up to the deterministic re-trip, skip the culprit,
/// re-checkpoint. Returns the recovery record, or the permanent
/// [`DeviceFault`] when the trip is unrecoverable (a publication fault,
/// a fault that does not reproduce, or no checkpoint to rewind to).
// The Err arm carries the full quarantine evidence (fault id, stage,
// detail, culprit frame) by design; it is built once per permanent
// quarantine, never on the hot path, so the size lint does not apply.
#[allow(clippy::too_many_arguments, clippy::result_large_err)]
fn try_recover<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    cursors: &mut Vec<FlowCursor>,
    ctl: &mut RecoverCtl,
    policy: RecoveryPolicy,
    sink: &mut S,
    stats: &mut RuntimeStats,
    payload: Option<Box<dyn std::any::Any + Send>>,
) -> Result<DeviceRecovery, DeviceFault> {
    let Some(ckpt) = ctl.ckpt.take() else {
        return Err(permanent_fault(ctl, payload));
    };
    device.restore(&ckpt.device);
    *cursors = ckpt.cursors.clone();
    // Silent replay at max_batch = 1 with the bisection guard engaged:
    // the sink already holds every pre-culprit outcome from the original
    // attempt (batching does not change device results), so the replay
    // counts frames instead of re-delivering them. Determinism of the
    // restored fault counters re-trips on the same culprit, and the solo
    // dispatch leaves `cursors` exactly one past it.
    let mut guard = GuardState::default();
    let mut counter = LastStageSink::default();
    let mut replay_stats = RuntimeStats::default();
    let replayed = {
        let device = &mut *device;
        let counter = &mut counter;
        let replay_stats = &mut replay_stats;
        let guard = &mut guard;
        let cursors = &mut *cursors;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            drive_device_inner(
                device,
                flows,
                1,
                counter,
                replay_stats,
                Some(guard),
                None,
                cursors,
            )
        }))
    };
    if let Some(t) = guard.trigger {
        // The fault fired inside a churn publication. The device-level
        // retry policy already had its chance inside `Device::install`;
        // a panic that survived it is permanent, and skipping a
        // *publication* (unlike a frame) would silently fork the table
        // state away from the schedule.
        let (fault, stage, detail) = match &guard.payload {
            Some(p) => describe_panic(p.as_ref()),
            None => describe_stall(None),
        };
        return Err(DeviceFault {
            member: String::new(),
            fault,
            stage,
            detail,
            packets_delivered: ckpt.delivered + counter.delivered,
            culprit: None,
            trigger: Some(t),
        });
    }
    let Some(mut culprit) = guard.culprit else {
        // The replay ran clean (or ended some other way): the original
        // panic did not come from the device — e.g. the caller's sink —
        // so there is nothing to skip. Quarantine with the original
        // evidence.
        let mut f = permanent_fault(ctl, payload);
        if matches!(replayed, Ok(Ok(DriveEnd::Completed))) {
            f.detail.push_str(" (did not reproduce on device replay)");
        }
        return Err(f);
    };
    culprit.prior_stage = counter.last_stage.clone();
    let (fault, stage, detail) = match &guard.payload {
        Some(p) => describe_panic(p.as_ref()),
        None => {
            let (f, s, _) = describe_stall(Some(&culprit));
            let d = format!(
                "device went silent at flow {} seq {}; virtual watchdog fired after {} cycles",
                culprit.flow, culprit.seq, policy.watchdog_cycles
            );
            (f, s, d)
        }
    };
    let fi = flows
        .iter()
        .position(|f| f.id == culprit.flow)
        .expect("culprit flow comes from this drive's flow list");
    // Skip the culprit: account it as a Faulted drop at its due instant
    // (occupying the pipeline slot a clean frame would have) and move
    // the emission cursor past it.
    let p = device.skip_faulted(culprit.port, flows[fi].due(culprit.seq));
    stats.packets += 1;
    sink.on_packet(culprit.flow, culprit.seq, p);
    cursors[fi].next_seq = culprit.seq + 1;
    ctl.delivered = ckpt.delivered + counter.delivered + 1;
    ctl.take(device, cursors);
    Ok(DeviceRecovery {
        member: String::new(),
        fault,
        stage,
        detail,
        checkpoint_cycle: ckpt.device.at_cycle(),
        frames_replayed: counter.delivered,
        culprit: Some(culprit),
        recovered_at_cycle: device.now(),
    })
}

/// Decode a caught panic payload into `(fault id, stage, detail)`.
pub(crate) fn describe_panic(payload: &(dyn std::any::Any + Send)) -> (String, String, String) {
    if let Some(fp) = payload.downcast_ref::<FaultPanic>() {
        (
            fp.fault.to_string(),
            fp.stage.to_string(),
            fp.detail.clone(),
        )
    } else if let Some(s) = payload.downcast_ref::<String>() {
        ("panic".into(), "unknown".into(), s.clone())
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        ("panic".into(), "unknown".into(), (*s).to_string())
    } else {
        (
            "panic".into(),
            "unknown".into(),
            "non-string panic payload".into(),
        )
    }
}

/// Counting sink for the isolation replay: remembers how many packets
/// were delivered before the trip and the last stage the final one
/// reached (the "last trace record" attached to the culprit).
#[derive(Default)]
struct LastStageSink {
    delivered: u64,
    last_stage: Option<String>,
}

impl DeviceSink for LastStageSink {
    fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
        self.delivered += 1;
        self.last_stage = Some(p.last_stage);
    }
}

/// Render the watchdog's verdict on a silent wedge as `(fault id,
/// stage, detail)`, naming the wedging frame when the replay found it.
fn describe_stall(culprit: Option<&CulpritFrame>) -> (String, String, String) {
    let detail = match culprit {
        Some(c) => format!(
            "device went silent at flow {} seq {}; virtual watchdog fired after {} cycles",
            c.flow, c.seq, DEFAULT_WATCHDOG_CYCLES
        ),
        None => format!(
            "device went silent; virtual watchdog fired after {DEFAULT_WATCHDOG_CYCLES} cycles"
        ),
    };
    ("stall".into(), "watchdog".into(), detail)
}

/// Bisect a caught device fault down to its culprit by re-driving a
/// pre-run snapshot with the guard engaged (frame-at-a-time dispatch,
/// every frame solo under `catch_unwind`). `payload` is the caught panic
/// payload, or `None` when the liveness watchdog caught a silent stall
/// (no panic to decode — the culprit alone names the wedge). Without a
/// snapshot (no armed faults — a genuine engine panic) the record
/// carries the payload but no culprit.
fn isolate_fault(
    snapshot: Option<Device>,
    flows: &[FlowRun],
    payload: Option<Box<dyn std::any::Any + Send>>,
    packets_dispatched: u64,
) -> DeviceFault {
    let (mut fault, mut stage, mut detail) = match payload {
        Some(p) => describe_panic(p.as_ref()),
        None => describe_stall(None),
    };
    let mut culprit = None;
    let mut trigger = None;
    let mut delivered = packets_dispatched;
    if let Some(mut replay) = snapshot {
        let mut guard = GuardState::default();
        let mut counter = LastStageSink::default();
        let mut replay_stats = RuntimeStats::default();
        let mut replay_cursors = fresh_cursors(flows);
        // The guard catches every frame and trigger trip solo, so this
        // outer catch is defensive only (a panic escaping it would be a
        // harness bug, not a device fault).
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive_device_inner(
                &mut replay,
                flows,
                1,
                &mut counter,
                &mut replay_stats,
                Some(&mut guard),
                None,
                &mut replay_cursors,
            )
        }));
        if let Some(p) = guard.payload {
            let (f, s, d) = describe_panic(p.as_ref());
            fault = f;
            stage = s;
            detail = d;
        }
        if let Some(mut c) = guard.culprit {
            c.prior_stage = counter.last_stage.clone();
            if fault == "stall" {
                let (f, s, d) = describe_stall(Some(&c));
                fault = f;
                stage = s;
                detail = d;
            }
            culprit = Some(c);
        }
        trigger = guard.trigger;
        delivered = counter.delivered;
    }
    DeviceFault {
        member: String::new(),
        fault,
        stage,
        detail,
        packets_delivered: delivered,
        culprit,
        trigger,
    }
}

#[allow(clippy::too_many_arguments)]
fn drive_device_inner<S: DeviceSink + ?Sized>(
    device: &mut Device,
    flows: &[FlowRun],
    max_batch: usize,
    sink: &mut S,
    stats: &mut RuntimeStats,
    guard: Option<&mut GuardState>,
    recover: Option<&mut RecoverCtl>,
    cursors: &mut [FlowCursor],
) -> Result<DriveEnd, ControlError> {
    // Checkpoints are only taken at flush boundaries, so with recovery
    // enabled the batch is clamped to the checkpoint interval — otherwise
    // a short run inside one big batch would never re-checkpoint and
    // every recovery would replay from the start. Batch size never
    // changes device outcomes (the isolation replay depends on that), so
    // the clamp only affects dispatch accounting.
    let max_batch = match recover.as_ref() {
        Some(ctl) => max_batch.clamp(1, ctl.interval.max(1) as usize),
        None => max_batch.max(1),
    };
    debug_assert_eq!(cursors.len(), flows.len());
    let mut drive = Drive {
        device,
        sink,
        stats,
        guard,
        recover,
        pkts: Vec::new(),
        dues: Vec::new(),
        meta: Vec::new(),
    };
    let exit = match flows {
        [flow] => drive.run_single(flow, cursors, max_batch),
        _ => {
            let mut wheel = TimerWheel::new(drive.device.now());
            let exit = drive.run_wheel(flows, cursors, max_batch, &mut wheel);
            drive.stats.wheel_cascades += wheel.cascades;
            exit
        }
    };
    match exit {
        ControlFlow::Continue(()) => Ok(DriveEnd::Completed),
        ControlFlow::Break(exit) => exit,
    }
}

/// How one control-plane trigger application ended.
enum TriggerOutcome {
    /// Applied cleanly (or rejected cleanly — see `Rejected`).
    Applied,
    /// The control plane refused the op; surfaced to the caller as usual.
    Rejected(ControlError),
    /// The device panicked inside the op (e.g. a `FailPublication` fault)
    /// and a guard was armed: the panic was caught and recorded, and the
    /// drive loop should stop replaying this device.
    Caught,
}

/// Apply `flow.triggers[t]` to the device, catching a device panic when a
/// fault-isolation guard is armed so the publication that tripped the
/// fault can be named in the [`DeviceFault`] record.
fn apply_trigger(
    device: &mut Device,
    flow: &FlowRun,
    t: usize,
    s: u64,
    guard: Option<&mut GuardState>,
) -> TriggerOutcome {
    match guard {
        None => match flow.triggers[t].1.apply(device) {
            Ok(()) => TriggerOutcome::Applied,
            Err(e) => TriggerOutcome::Rejected(e),
        },
        Some(g) => {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                flow.triggers[t].1.apply(device)
            }));
            match outcome {
                Ok(Ok(())) => TriggerOutcome::Applied,
                Ok(Err(e)) => TriggerOutcome::Rejected(e),
                Err(payload) => {
                    g.trigger = Some(format!(
                        "flow {} seq {}: {:?}",
                        flow.id, s, flow.triggers[t].1
                    ));
                    g.payload = Some(payload);
                    TriggerOutcome::Caught
                }
            }
        }
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
    max_batch: usize,
    recovery: Option<RecoveryPolicy>,
    job_tx: Sender<PoolJob>,
    job_rx: Arc<Mutex<Receiver<PoolJob>>>,
    workers: Vec<PoolWorker>,
    stats: RuntimeStats,
    runs: u64,
}

impl std::fmt::Debug for FleetRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRuntime")
            .field("target", &self.target)
            .field("workers", &self.workers.len())
            .field("runs", &self.runs)
            .finish()
    }
}

impl Default for FleetRuntime {
    fn default() -> Self {
        Self::with_default_workers()
    }
}

impl FleetRuntime {
    /// A runtime targeting exactly `workers` OS threads (min 1; 1 = fully
    /// inline).
    pub fn new(workers: usize) -> Self {
        let (job_tx, job_rx) = channel::<PoolJob>();
        FleetRuntime {
            target: workers.max(1),
            max_batch: DEFAULT_MAX_BATCH,
            recovery: None,
            job_tx,
            job_rx: Arc::new(Mutex::new(job_rx)),
            workers: Vec::new(),
            stats: RuntimeStats::default(),
            runs: 0,
        }
    }

    /// A runtime sized for this host: `min(4, available cores)` workers.
    pub fn with_default_workers() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(cores.min(4))
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

    /// Coalesced-dispatch cap handed to every device loop.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.max_batch = max_batch.max(1);
    }

    /// Enable (or disable, with `None`) checkpoint/restore recovery:
    /// every [`FleetRuntime::run`] device is driven through
    /// [`drive_device_recovering`], so a crash-class fault costs one
    /// skipped frame and a [`DeviceRecovery`] record instead of the
    /// device. Off by default — quarantine-only runs keep the exact
    /// pre-recovery semantics (and pay zero checkpoint overhead).
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// The active recovery policy, if any.
    pub fn recovery(&self) -> Option<RecoveryPolicy> {
        self.recovery
    }

    /// Runs completed.
    pub fn runs(&self) -> u64 {
        self.runs
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
        self.runs += 1;
        let max_batch = self.max_batch;
        let recovery = self.recovery;
        let jobs: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, mut task)| {
                move || {
                    let mut run = drive_device_with(
                        &mut task.device,
                        &task.flows,
                        max_batch,
                        &mut task.sink,
                        recovery,
                    );
                    if let Some(f) = run.fault.as_mut() {
                        f.member = format!("device-{i}");
                    }
                    for r in run.recoveries.iter_mut() {
                        r.member = format!("device-{i}");
                    }
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
                // `drive_device_guarded` catches device panics itself, so
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
    use std::collections::BinaryHeap;

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

    /// The wheel must pop entries in exactly (due, flow) order, instant by
    /// instant — compared against a BinaryHeap model over schedules that
    /// exercise every level and the overflow list, including re-schedules
    /// after pops (the event loop's steady state).
    #[test]
    fn wheel_matches_heap_model() {
        for seed in 0..16u64 {
            let mut rng = Rng(seed.wrapping_mul(0x5DEECE66D).wrapping_add(11));
            let mut wheel = TimerWheel::new(0);
            let mut model: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut pendings: Vec<(u64, u32)> = Vec::new();
            for flow in 0..48u32 {
                // Deltas spanning level 0 (tiny), mid levels, and overflow.
                let due = match flow % 5 {
                    0 => rng.next() % 16,
                    1 => rng.next() % (1 << 8),
                    2 => rng.next() % (1 << 17),
                    3 => rng.next() % (1 << 30),
                    _ => (1u64 << 33) + rng.next() % (1 << 34),
                };
                wheel.schedule(due, flow);
                model.push(std::cmp::Reverse((due, flow)));
                pendings.push((due, flow));
            }
            let mut ready = Vec::new();
            let mut popped = 0usize;
            let mut reschedules = 96usize;
            while let Some(t) = wheel.pop_next(&mut ready) {
                for e in &ready {
                    let std::cmp::Reverse((due, flow)) =
                        model.pop().expect("wheel popped more than scheduled");
                    assert_eq!((t, e.flow), (due, flow), "seed {seed}");
                    assert_eq!(e.due, due);
                    popped += 1;
                }
                // Steady state: fired flows re-file at a later instant.
                // Half the deltas are sub-256 so freshly-filed level-0
                // entries routinely land *behind* older upper-level ones —
                // the pop must still take the global minimum.
                if reschedules > 0 {
                    reschedules -= ready.len().min(reschedules);
                    for e in &ready {
                        let delta = if e.flow % 2 == 0 {
                            1 + rng.next() % 255
                        } else {
                            1 + rng.next() % (1 << 20)
                        };
                        let due = t + delta;
                        wheel.schedule(due, e.flow);
                        model.push(std::cmp::Reverse((due, e.flow)));
                    }
                }
            }
            assert!(model.is_empty(), "seed {seed}: wheel lost entries");
            assert!(popped >= pendings.len());
        }
    }

    /// Regression: pacing classes 80 and 320 from origin 0 put the
    /// gap-320 flow at level 1 while the gap-80 flow laps level 0; at
    /// cycle 320 both are due and must come out of ONE pop in flow
    /// order — and the near wheel must never overshoot the far entry
    /// (which used to strand it behind the bucket scan and panic).
    #[test]
    fn wheel_merges_near_and_far_entries_due_at_one_instant() {
        let mut wheel = TimerWheel::new(0);
        wheel.schedule(80, 0); // paced at 80, will lap
        wheel.schedule(320, 1); // files at level 1
        let mut ready = Vec::new();
        for k in 1..=3u64 {
            assert_eq!(wheel.pop_next(&mut ready), Some(80 * k));
            assert_eq!(ready.iter().map(|e| e.flow).collect::<Vec<_>>(), vec![0]);
            wheel.schedule(80 * (k + 1), 0);
        }
        // Cycle 320: the lapped level-0 entry and the cascaded level-1
        // entry fire together, sorted by flow.
        assert_eq!(wheel.pop_next(&mut ready), Some(320));
        assert_eq!(ready.iter().map(|e| e.flow).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(wheel.pop_next(&mut ready), None);

        // And a near entry filed *later* than a far one must not be
        // popped first: 350 sits in level 0, 320 still at level 1.
        let mut wheel = TimerWheel::new(0);
        wheel.schedule(320, 1);
        let mut ready = Vec::new();
        assert_eq!(wheel.pop_next(&mut ready), Some(320));
        let mut wheel = TimerWheel::new(0);
        wheel.schedule(300, 1); // level 1 relative to 0
        wheel.schedule(260, 0);
        assert_eq!(wheel.pop_next(&mut ready), Some(260));
        wheel.schedule(290, 0); // level 0 now, later than the far 300
        assert_eq!(wheel.pop_next(&mut ready), Some(290));
        assert_eq!(wheel.pop_next(&mut ready), Some(300));
        assert_eq!(ready.iter().map(|e| e.flow).collect::<Vec<_>>(), vec![1]);
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

    #[test]
    fn wheel_coalesces_same_instant_entries_sorted_by_flow() {
        let mut wheel = TimerWheel::new(100);
        wheel.schedule(500, 7);
        wheel.schedule(500, 3);
        wheel.schedule(500, 5);
        wheel.schedule(90, 9); // past: clamped to now
        let mut ready = Vec::new();
        assert_eq!(wheel.pop_next(&mut ready), Some(100));
        assert_eq!(ready.iter().map(|e| e.flow).collect::<Vec<_>>(), vec![9]);
        assert_eq!(wheel.pop_next(&mut ready), Some(500));
        assert_eq!(
            ready.iter().map(|e| e.flow).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
        assert_eq!(wheel.pop_next(&mut ready), None);
    }
}
