//! The simulated NetFPGA-SUME-class device.
//!
//! A [`Device`] is a 4×10G board model: MAC-attached ports around a deployed
//! pipeline, a core clock, per-port statistics, per-stage tap counters and a
//! register bus. Two datapaths exist, matching the paper's Figure 1:
//!
//! * [`Device::rx`] — the **external** path a real packet (or an external
//!   tester) takes: MAC serialisation delay in, pipeline, MAC delay out.
//! * [`Device::inject`] — the **internal** path NetDebug's test packet
//!   generator uses: straight into the data plane under test, bypassing the
//!   surrounding hardware, able to impersonate any ingress port.
//!
//! Per-stage tap counters give the "internal view" that external testers
//! lack: every parser state, table, the deparser and egress keep a packet
//! count readable over the register bus, which is what lets NetDebug say
//! *where* a packet disappeared.

use crate::backend::{Backend, Compiled, LatencyModel};
use crate::faults::{silence_fault_panics, FaultError, FaultSpec, FaultState};
use netdebug_dataplane::{
    Dataplane, DropReason, EgressFrame, Engine, LazyTrace, MeterConfig, Stage, TraceSink, Verdict,
};
use netdebug_p4::ir::IrPattern;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Physical configuration of the board.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Number of front-panel ports.
    pub ports: u16,
    /// Core clock in Hz.
    pub core_clock_hz: f64,
    /// Per-port line rate in Gbit/s.
    pub link_gbps: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        // NetFPGA SUME: 4×10G, 200 MHz datapath clock.
        DeviceConfig {
            ports: 4,
            core_clock_hz: 200e6,
            link_gbps: 10.0,
        }
    }
}

impl DeviceConfig {
    /// Serialisation time of `bytes` on the link, in nanoseconds (includes
    /// Ethernet preamble + IFG overhead of 20 bytes).
    pub fn wire_ns(&self, bytes: usize) -> f64 {
        ((bytes + 20) * 8) as f64 / self.link_gbps
    }

    /// Convert nanoseconds to core cycles.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.core_clock_hz / 1e9).ceil() as u64
    }

    /// Line rate in packets per second for a given frame size.
    pub fn line_rate_pps(&self, frame_bytes: usize) -> f64 {
        self.link_gbps * 1e9 / (((frame_bytes + 20) * 8) as f64)
    }
}

/// Fixed one-way MAC + PHY latency, nanoseconds.
pub const MAC_FIXED_NS: f64 = 250.0;

/// Per-port statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PortStats {
    /// Packets received.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// What happened to a processed packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Transmitted out of one port.
    Tx {
        /// Egress port.
        port: u16,
        /// Wire bytes.
        data: EgressFrame,
    },
    /// Flooded to all ports except the ingress.
    Flood {
        /// Wire bytes (sent on each port).
        data: EgressFrame,
    },
    /// Dropped inside the device.
    Dropped {
        /// Why.
        reason: DropReason,
    },
}

impl Outcome {
    /// True if the packet left the device.
    pub fn transmitted(&self) -> bool {
        !matches!(self, Outcome::Dropped { .. })
    }
}

/// Full record of one packet's journey through the device.
#[derive(Debug, Clone, PartialEq)]
pub struct Processed {
    /// Final fate.
    pub outcome: Outcome,
    /// Cycles spent in the pipeline (parser → deparser), bug-inflated if an
    /// `ExtraLatency` bug is active.
    pub pipeline_cycles: u64,
    /// End-to-end latency in nanoseconds (MAC delays included on the
    /// external path, zero MAC on the internal path).
    pub total_ns: f64,
    /// Device time (cycles) when processing finished.
    pub done_at_cycle: u64,
    /// Name of the last pipeline stage the packet reached. Stage names
    /// are interned process-wide when a program is deployed, so recording
    /// one copies two words: no string, no reference count.
    pub last_stage: &'static str,
}

/// Errors when deploying onto the device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployError {
    /// One message per compile diagnostic.
    pub messages: Vec<String>,
}

impl core::fmt::Display for DeployError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "deployment failed: {}", self.messages.join("; "))
    }
}

impl std::error::Error for DeployError {}

/// The simulated board with a deployed pipeline.
///
/// Internally split along the same read/write axis as the data plane: the
/// configuration and compiled pipeline are read-mostly, while all
/// clock/statistics mutation lives in an internal `TapState` — a separate field so
/// the batch path can borrow the embedded [`Dataplane`] and the tap
/// accounting state independently (the streaming trace sink mutates taps
/// while the interpreter runs).
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    compiled: Compiled,
    dataplane: Dataplane,
    taps: TapState,
    /// Armed crash-class faults plus their deterministic admission
    /// counters. Cloning the device clones the counters, which is what
    /// lets a pre-run snapshot replay to the same trip point.
    faults: FaultState,
    /// Publications that landed only after the retry loop outlasted a
    /// transient driver failure.
    retried_publications: u64,
    /// Reconciled epoch of the most recent retried publication.
    last_retried_epoch: Option<u64>,
}

/// A consistent capture of a device's full runtime state, produced by
/// [`Device::checkpoint`] and reinstated by [`Device::restore`]: the
/// embedded data plane's pinned table snapshots + extern state (mostly
/// `Arc` clones — see [`netdebug_dataplane::DataplaneCheckpoint`]), the
/// tap accounting (clock, pipeline occupancy, port/stage/drop counters)
/// and the armed-fault admission counters. Checkpoints are what let the
/// fleet runtime rewind a quarantined member and replay it past a culprit
/// frame instead of losing it for the rest of the run.
#[derive(Debug, Clone)]
pub struct DeviceCheckpoint {
    dataplane: netdebug_dataplane::DataplaneCheckpoint,
    taps: TapState,
    faults: FaultState,
    retried_publications: u64,
    last_retried_epoch: Option<u64>,
}

impl DeviceCheckpoint {
    /// The virtual device clock (cycles) at capture time.
    pub fn at_cycle(&self) -> u64 {
        self.taps.now_cycles
    }
}

/// The device's mutable bookkeeping: clock, pipeline occupancy, per-port
/// statistics, per-stage tap counters and drop counters.
#[derive(Debug, Clone)]
struct TapState {
    now_cycles: u64,
    /// Earliest cycle the pipeline can accept the next packet (the pipeline
    /// is pipelined: packets start `initiation_interval` apart and overlap).
    pipe_next_start: u64,
    port_stats: Vec<PortStats>,
    /// Tap names in IR order — parser states, tables, deparser, egress —
    /// so the tap of parser state `sid` is `sid` and the tap of table
    /// `tid` is `first_table_tap + tid`: the trace's stage lane carries
    /// those ids and per-packet accounting never sees a name.
    stage_names: Arc<[&'static str]>,
    first_table_tap: usize,
    stage_counts: Vec<u64>,
    /// Drops by reason. Ordered map so iteration (reports, serialisation)
    /// is deterministic run to run regardless of insertion order.
    drop_counts: BTreeMap<String, u64>,
    deparser_tap: usize,
    egress_tap: usize,
}

/// `last_stage` of a packet that recorded no tap (a skipped frame).
const UNTAPPED_STAGE: &str = "parser:start";

/// The process-wide stage-name interner: each distinct name is leaked
/// once, the first time any deployment uses it, and every later
/// deployment gets the same `&'static str` back. Memory is bounded by the
/// distinct names the process has seen, so redeploying a program
/// allocates nothing, and a packet's `last_stage` is a plain copy.
fn intern_stage(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    // Each update is one insert of a complete name, so the set is valid
    // even if a thread panicked while holding the lock.
    let mut names = NAMES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match names.get(name) {
        Some(&interned) => interned,
        None => {
            let interned: &'static str = Box::leak(name.into());
            names.insert(interned);
            interned
        }
    }
}

/// Trace-derived per-packet accounting, produced from the packet's stage
/// lane ([`TapState::tap_packet_lazy`]) and consumed with the verdict
/// ([`TapState::finish`]).
#[derive(Debug, Clone, Copy)]
struct TapSummary {
    /// Tap index of the last parser/table stage the packet reached.
    last_stage_tap: Option<usize>,
    /// Latency-model cycles for the stages actually visited.
    pipeline_cycles: u64,
}

impl Device {
    /// Compile `program` with `backend` and load it onto a default board.
    pub fn deploy(
        backend: &Backend,
        program: &netdebug_p4::ir::Program,
    ) -> Result<Device, DeployError> {
        Self::deploy_with_config(backend, program, DeviceConfig::default())
    }

    /// Compile and load P4 source directly.
    pub fn deploy_source(backend: &Backend, source: &str) -> Result<Device, DeployError> {
        let ir = netdebug_p4::compile(source).map_err(|d| DeployError {
            messages: vec![d.to_string()],
        })?;
        Self::deploy(backend, &ir)
    }

    /// Compile and load with an explicit board configuration.
    pub fn deploy_with_config(
        backend: &Backend,
        program: &netdebug_p4::ir::Program,
        config: DeviceConfig,
    ) -> Result<Device, DeployError> {
        let compiled = backend
            .compile(program)
            .map_err(|messages| DeployError { messages })?;
        let dataplane =
            Dataplane::with_table_capacities(compiled.program.clone(), &compiled.capacities);

        // Stage map: parser states, tables (IR order), deparser, egress.
        let (states, tables) = (&compiled.program.parser.states, &compiled.program.tables);
        let stage_names: Arc<[&'static str]> = states
            .iter()
            .map(|s| format!("parser:{}", s.name))
            .chain(tables.iter().map(|t| format!("table:{}", t.name)))
            .map(|name| intern_stage(&name))
            .chain(["deparser", "egress"])
            .collect();
        let deparser_tap = states.len() + tables.len();

        let mut device = Device {
            taps: TapState {
                now_cycles: 0,
                pipe_next_start: 0,
                port_stats: vec![PortStats::default(); config.ports as usize],
                first_table_tap: states.len(),
                stage_counts: vec![0; stage_names.len()],
                stage_names,
                drop_counts: BTreeMap::new(),
                deparser_tap,
                egress_tap: deparser_tap + 1,
            },
            config,
            compiled,
            dataplane,
            faults: FaultState::default(),
            retried_publications: 0,
            last_retried_epoch: None,
        };
        for spec in device.compiled.faults.clone() {
            device.arm_fault(spec);
        }
        Ok(device)
    }

    /// Arm a crash-class fault on this device. Faults raise a typed
    /// panic ([`crate::faults::FaultPanic`]) when they trip; drive the
    /// device through `netdebug::runtime::drive_device_with` (or your own
    /// `catch_unwind`) to survive them. Arming the first fault installs
    /// a process-wide panic-hook filter so the *expected* trips do not
    /// print backtraces.
    pub fn arm_fault(&mut self, spec: FaultSpec) {
        silence_fault_panics();
        self.faults.arm(spec);
    }

    /// The crash-class faults armed on this device.
    pub fn armed_faults(&self) -> &[FaultSpec] {
        self.faults.armed()
    }

    /// Board configuration.
    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// The compiled pipeline (including the bug-transformed program).
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// Current device time, cycles.
    pub fn now(&self) -> u64 {
        self.taps.now_cycles
    }

    /// Let the device idle for `cycles`.
    pub fn advance(&mut self, cycles: u64) {
        // Saturating, like every virtual-clock site: a caller may schedule
        // arrivals up to `u64::MAX`.
        self.taps.now_cycles = self.taps.now_cycles.saturating_add(cycles);
    }

    /// Capture the device's full runtime state. Cheap: table state pins
    /// the published `Arc<EntrySnapshot>` chain (no entry copies), and the
    /// rest is counters. The capture is consistent — tables are pinned
    /// under the data plane's publish lock, so a checkpoint never splits
    /// an epoch-atomic churn window.
    pub fn checkpoint(&self) -> DeviceCheckpoint {
        DeviceCheckpoint {
            dataplane: self.dataplane.checkpoint(),
            taps: self.taps.clone(),
            faults: self.faults.clone(),
            retried_publications: self.retried_publications,
            last_retried_epoch: self.last_retried_epoch,
        }
    }

    /// Reinstate a [`DeviceCheckpoint`]: table epochs rewind to the pinned
    /// snapshots, extern state, tap accounting (clock, pipeline occupancy,
    /// port/stage/drop counters) and fault admission counters all return
    /// to capture time. The data plane's publication generation is bumped
    /// (never rewound), so flow caches drop their entries instead of
    /// serving post-checkpoint state.
    pub fn restore(&mut self, checkpoint: &DeviceCheckpoint) {
        self.dataplane.restore(&checkpoint.dataplane);
        self.taps = checkpoint.taps.clone();
        self.faults = checkpoint.faults.clone();
        self.retried_publications = checkpoint.retried_publications;
        self.last_retried_epoch = checkpoint.last_retried_epoch;
    }

    /// Whether a [`FaultSpec::Stall`] has wedged this device: it swallows
    /// injected frames silently instead of processing (or panicking).
    pub fn is_wedged(&self) -> bool {
        self.faults.is_wedged()
    }

    /// Recovery hook: account the isolated culprit frame as **skipped**
    /// instead of replaying it. Clears a stall wedge, moves the fault
    /// admission counters past the culprit, advances the clock to the
    /// frame's due instant and books a [`DropReason::Faulted`] drop that
    /// occupies the pipeline slot a normal frame would have — so every
    /// subsequent frame's timing is bit-identical to the fault-free run.
    pub fn skip_faulted(&mut self, port: u16, due_cycles: u64) -> Processed {
        self.faults.skip_faulted();
        if due_cycles > self.taps.now_cycles {
            self.taps.now_cycles = due_cycles;
        }
        let latency = &self.compiled.latency;
        let summary = TapSummary {
            last_stage_tap: None,
            pipeline_cycles: latency.base_cycles(),
        };
        self.taps.finish(
            &self.config,
            latency,
            port,
            Verdict::Drop(DropReason::Faulted),
            summary,
            None,
        )
    }

    /// Publications that landed only after retrying past a transient
    /// driver failure.
    pub fn retried_publications(&self) -> u64 {
        self.retried_publications
    }

    /// Reconciled table epoch of the most recent retried publication —
    /// `None` until a retry has succeeded.
    pub fn last_retried_epoch(&self) -> Option<u64> {
        self.last_retried_epoch
    }

    /// Per-port statistics.
    pub fn port_stats(&self, port: u16) -> PortStats {
        self.taps
            .port_stats
            .get(port as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Names of all tap stages, in pipeline order, interned process-wide
    /// (a redeployed program gets the same `&'static str`s back).
    pub fn stage_names(&self) -> &[&'static str] {
        &self.taps.stage_names
    }

    /// Packet count seen at each tap stage.
    pub fn stage_counts(&self) -> &[u64] {
        &self.taps.stage_counts
    }

    /// Packets dropped, by reason (ordered by reason name, so iteration is
    /// deterministic).
    pub fn drop_counts(&self) -> &BTreeMap<String, u64> {
        &self.taps.drop_counts
    }

    /// Switch the embedded data plane's execution engine (the flat
    /// compiled engine by default; [`Engine::Reference`] selects the
    /// tree-walking oracle for differential self-validation). Hardware
    /// bug transforms perturb the *program*, so they bite under either
    /// engine identically.
    pub fn set_engine(&mut self, engine: Engine) {
        self.dataplane.set_engine(engine);
    }

    /// Flow-cache counters of the embedded data plane (hits, misses,
    /// invalidations, occupancy, capacity) — see
    /// [`netdebug_dataplane::Dataplane::cache_stats`]. All-zero when the
    /// program is uncacheable or caching is off.
    pub fn cache_stats(&self) -> netdebug_dataplane::CacheStats {
        self.dataplane.cache_stats()
    }

    /// Enable or disable the embedded data plane's flow cache (enabling
    /// an already-enabled cache is a no-op: entries and counters stay) —
    /// see [`netdebug_dataplane::Dataplane::set_flow_cache`].
    pub fn set_flow_cache(&mut self, enabled: bool) {
        self.dataplane.set_flow_cache(enabled);
    }

    // ------------------------------------------------------------------
    // Datapaths
    // ------------------------------------------------------------------

    /// External path: a packet arrives on a front-panel port.
    pub fn rx(&mut self, port: u16, data: &[u8]) -> Processed {
        if usize::from(port) >= self.taps.port_stats.len() {
            return Processed {
                outcome: Outcome::Dropped {
                    reason: DropReason::BadEgress,
                },
                pipeline_cycles: 0,
                total_ns: 0.0,
                done_at_cycle: self.taps.now_cycles,
                last_stage: "mac",
            };
        }
        self.taps.port_stats[port as usize].rx_packets += 1;
        self.taps.port_stats[port as usize].rx_bytes += data.len() as u64;
        let mac_in_ns = MAC_FIXED_NS + self.config.wire_ns(data.len());
        self.advance(self.config.ns_to_cycles(self.config.wire_ns(data.len())));
        self.inject_one(port, data, Some(mac_in_ns))
    }

    /// Internal path: NetDebug's generator injects directly into the data
    /// plane under test, impersonating `as_port`. Back-to-back injections
    /// queue at the pipeline's initiation interval.
    ///
    /// A device wedged by a [`FaultSpec::Stall`] swallows the frame: no
    /// tap, counter or pipeline slot is booked, and the returned record is
    /// a placeholder [`DropReason::Faulted`] drop — check
    /// [`Device::is_wedged`] to tell it from a processed frame.
    pub fn inject(&mut self, as_port: u16, data: &[u8]) -> Processed {
        self.inject_one(as_port, data, None)
    }

    /// [`Device::rx`] and [`Device::inject`] are one-frame groups on the
    /// batch path, so armed faults behave identically on every path.
    fn inject_one(&mut self, port: u16, data: &[u8], mac_in_ns: Option<f64>) -> Processed {
        let mut out = None;
        self.inject_group(&[(port, data)], 0, mac_in_ns, &mut |_, p| out = Some(p));
        out.unwrap_or_else(|| Processed {
            outcome: Outcome::Dropped {
                reason: DropReason::Faulted,
            },
            pipeline_cycles: 0,
            total_ns: 0.0,
            done_at_cycle: self.taps.now_cycles,
            last_stage: "ingress",
        })
    }

    /// Internal path, batched: inject every frame as `as_port`, advancing
    /// the device clock by `gap_cycles` before each injection (0 =
    /// back-to-back), with results identical to calling [`Device::inject`]
    /// in a loop. Each [`Processed`] outcome is handed to `visit` (with
    /// its window index) as soon as it is accounted — before the next
    /// frame of the window executes — so callers consume the window
    /// without a `Vec<Processed>` ever materialising and one egress frame
    /// is alive at a time.
    ///
    /// Back-to-back windows (`gap_cycles == 0`) run through the data
    /// plane's batch engine as one group, streamed through one reused
    /// trace buffer ([`Dataplane::process_batch_with`]), so tap
    /// accounting allocates nothing per packet. Paced windows
    /// (`gap_cycles > 0`) schedule
    /// frame `i` at `now + gap_cycles * (i + 1)` and go through
    /// [`Device::inject_batch_at`], which coalesces every run of equal
    /// due-cycles into one batch-engine dispatch — the historical
    /// per-packet `process` fallback is gone, but results are still
    /// bit-identical to the packet-at-a-time loop. Accounting always
    /// happens in window order, so stage taps, port statistics and drop
    /// counters are deterministic on every path.
    pub fn inject_batch_with(
        &mut self,
        as_port: u16,
        frames: &[&[u8]],
        gap_cycles: u64,
        mut visit: impl FnMut(usize, Processed),
    ) {
        let pkts: Vec<(u16, &[u8])> = frames.iter().map(|f| (as_port, *f)).collect();
        if gap_cycles > 0 {
            let now = self.taps.now_cycles;
            let due: Vec<u64> = (1..=frames.len() as u64)
                .map(|i| now.saturating_add(gap_cycles.saturating_mul(i)))
                .collect();
            self.inject_batch_at(&pkts, &due, visit)
                .expect("due list built in lockstep with the frame list");
            return;
        }
        self.inject_group(&pkts, 0, None, &mut visit);
    }

    /// Internal batched path with **explicit per-frame due times**: frame
    /// `i` of `pkts` (an `(ingress port, frame)` pair — ports may differ
    /// per frame) is injected once the device clock reaches
    /// `due_cycles[i]`. This is the scheduling hook the virtual-time fleet
    /// runtime drives: `due_cycles` must be non-decreasing (window order
    /// is virtual-time order), the clock jumps forward to each due instant
    /// (it never moves backwards), and every **run of equal due-cycles is
    /// coalesced into a single batch-engine dispatch**. Results and
    /// statistics are bit-identical to advancing the clock to each due
    /// time and calling
    /// [`Device::inject`] per frame.
    ///
    /// Mismatched `pkts`/`due_cycles` lengths return
    /// [`FaultError::MismatchedBatch`] instead of panicking.
    pub fn inject_batch_at(
        &mut self,
        pkts: &[(u16, &[u8])],
        due_cycles: &[u64],
        mut visit: impl FnMut(usize, Processed),
    ) -> Result<(), FaultError> {
        if pkts.len() != due_cycles.len() {
            return Err(FaultError::MismatchedBatch {
                pkts: pkts.len(),
                dues: due_cycles.len(),
            });
        }
        let mut start = 0usize;
        while start < pkts.len() {
            let due = due_cycles[start];
            let mut end = start + 1;
            while end < pkts.len() && due_cycles[end] == due {
                end += 1;
            }
            if due > self.taps.now_cycles {
                self.taps.now_cycles = due;
            }
            self.inject_group(&pkts[start..end], start, None, &mut visit);
            start = end;
        }
        Ok(())
    }

    /// One same-instant group through the batch engine. `base` offsets the
    /// window indices handed to `visit` so grouped dispatches still report
    /// positions in the caller's frame order; `mac_in_ns` is the ingress
    /// MAC latency on the external path, `None` on the internal one.
    ///
    /// Armed faults are checked at admission, frame by frame, before the
    /// group dispatches: the clean prefix ahead of a tripping frame is
    /// processed normally, then the trip raises its typed panic — so a
    /// guarded caller observes every outcome the device produced before
    /// it died, and the admission counters (advanced only for clean
    /// frames) replay deterministically. A stalled device wedges
    /// *silently*: the clean prefix is processed, then every later frame
    /// is swallowed without a panic — only a liveness watchdog can tell a
    /// wedged member from a slow one.
    fn inject_group(
        &mut self,
        pkts: &[(u16, &[u8])],
        base: usize,
        mac_in_ns: Option<f64>,
        visit: &mut impl FnMut(usize, Processed),
    ) {
        let mut admitted = pkts.len();
        let mut trip = None;
        if !self.faults.is_empty() {
            for (i, &(port, _)) in pkts.iter().enumerate() {
                if !self.faults.check_stall() {
                    trip = self.faults.check_packet(port);
                    if trip.is_none() {
                        continue;
                    }
                }
                admitted = i;
                break;
            }
        }
        if admitted > 0 {
            let pkts = &pkts[..admitted];
            let now = self.taps.now_cycles;
            let mut sink = TapSink {
                taps: &mut self.taps,
                config: &self.config,
                latency: &self.compiled.latency,
                pkts,
                base,
                mac_in_ns,
                visit,
            };
            self.dataplane.process_batch_with(pkts, now, &mut sink);
        }
        if let Some(trip) = trip {
            self.advance(trip.wedge_cycles);
            std::panic::panic_any(trip.panic);
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// A detached control-plane handle onto the deployed data plane:
    /// clonable, thread-safe, and usable **while batches are in flight**
    /// on another thread. Mutations through the
    /// handle speak to the true data plane — backend bug transforms such
    /// as [`crate::bugs::BugSpec::PriorityInverted`] model the vendor
    /// *driver* stack and therefore apply only to [`Device::install`].
    pub fn control_plane(&self) -> netdebug_dataplane::ControlPlane {
        self.dataplane.control_plane()
    }

    fn effective_priority(&self, priority: i32) -> i32 {
        if self.compiled.runtime.invert_priorities {
            -priority
        } else {
            priority
        }
    }

    /// Install a table entry (applies the priority-inversion bug if active).
    ///
    /// This is the modeled vendor-driver path, so armed publication
    /// faults trip here (and in everything that funnels through:
    /// [`Device::install_exact`], [`Device::install_lpm`], churn
    /// triggers). The driver tries up to four times: each failed attempt
    /// charges an exponentially growing **virtual-cycle** backoff (64
    /// cycles, doubling — deterministic, no wall clocks) to the device
    /// clock and tries again, so a
    /// [`FaultSpec::TransientPublication`] degrades to a publication that
    /// lands late (stale-but-consistent reads in between) instead of a
    /// crash, while a permanent [`FaultSpec::FailPublication`] exhausts
    /// the attempts and raises the final typed panic exactly as before.
    /// A retried success reconciles the table's epoch — readable via
    /// [`Device::last_retried_epoch`] — confirming the snapshot chain
    /// advanced exactly once despite the repeated driver calls. The
    /// detached [`Device::control_plane`] handle bypasses the driver and
    /// is unaffected, like the bug transforms.
    pub fn install(
        &mut self,
        table: &str,
        patterns: Vec<IrPattern>,
        action: &str,
        args: Vec<u128>,
        priority: i32,
    ) -> Result<(), netdebug_dataplane::ControlError> {
        /// Publication attempts before the panic propagates.
        const MAX_ATTEMPTS: u32 = 4;
        /// Virtual-cycle backoff before the first retry; doubles per attempt.
        const BACKOFF_CYCLES: u64 = 64;
        let mut attempt: u32 = 0;
        while let Some(panic) = self.faults.check_publication() {
            attempt += 1;
            if attempt >= MAX_ATTEMPTS {
                std::panic::panic_any(panic);
            }
            self.advance(BACKOFF_CYCLES << (attempt - 1));
        }
        let p = self.effective_priority(priority);
        self.dataplane.install(table, patterns, action, args, p)?;
        if attempt > 0 {
            self.retried_publications += 1;
            self.last_retried_epoch = self.dataplane.control_plane().epoch(table).ok();
        }
        Ok(())
    }

    /// Install an exact entry.
    pub fn install_exact(
        &mut self,
        table: &str,
        keys: Vec<u128>,
        action: &str,
        args: Vec<u128>,
    ) -> Result<(), netdebug_dataplane::ControlError> {
        self.install(
            table,
            keys.into_iter().map(IrPattern::Value).collect(),
            action,
            args,
            0,
        )
    }

    /// Install an LPM entry.
    pub fn install_lpm(
        &mut self,
        table: &str,
        prefix: u128,
        prefix_len: u16,
        action: &str,
        args: Vec<u128>,
    ) -> Result<(), netdebug_dataplane::ControlError> {
        let tid = self
            .compiled
            .program
            .table_by_name(table)
            .ok_or_else(|| netdebug_dataplane::ControlError::NoSuchTable(table.to_string()))?;
        let width = self.compiled.program.tables[tid]
            .keys
            .first()
            .map(|k| k.width)
            .unwrap_or(32);
        self.install(
            table,
            vec![netdebug_dataplane::lpm_pattern(prefix, prefix_len, width)],
            action,
            args,
            i32::from(prefix_len),
        )
    }

    /// Read a counter (the `CounterWidthWrapped` bug applies here, as the
    /// register bus is how counters leave the chip).
    pub fn counter(
        &self,
        name: &str,
        index: usize,
    ) -> Result<(u64, u64), netdebug_dataplane::ControlError> {
        let (pkts, bytes) = self.dataplane.counter(name, index)?;
        Ok(match self.compiled.runtime.counter_wrap_bits {
            Some(bits) if bits < 64 => {
                let mask = (1u64 << bits) - 1;
                (pkts & mask, bytes & mask)
            }
            _ => (pkts, bytes),
        })
    }

    /// Configure a meter cell.
    pub fn configure_meter(
        &mut self,
        name: &str,
        index: usize,
        config: MeterConfig,
    ) -> Result<(), netdebug_dataplane::ControlError> {
        self.dataplane.configure_meter(name, index, config)
    }

    /// Table statistics: (hits, misses, occupancy, capacity).
    pub fn table_stats(
        &self,
        name: &str,
    ) -> Result<(u64, u64, usize, u64), netdebug_dataplane::ControlError> {
        self.dataplane.table_stats(name)
    }

    // ------------------------------------------------------------------
    // Register bus
    // ------------------------------------------------------------------

    /// Address map of the register bus: (name, address) pairs.
    ///
    /// Layout: `0x0000` device id, `0x0004` port count, `0x0008` clock MHz;
    /// `0x0100 + 0x20·p` port blocks (rx_pkts/rx_bytes/tx_pkts/tx_bytes);
    /// `0x1000 + 8·s` stage tap counters.
    pub fn reg_map(&self) -> Vec<(String, u32)> {
        let mut map = vec![
            ("device_id".to_string(), 0x0000),
            ("port_count".to_string(), 0x0004),
            ("clock_mhz".to_string(), 0x0008),
        ];
        for p in 0..self.taps.port_stats.len() as u32 {
            let base = 0x0100 + 0x20 * p;
            map.push((format!("port{p}_rx_pkts"), base));
            map.push((format!("port{p}_rx_bytes"), base + 0x8));
            map.push((format!("port{p}_tx_pkts"), base + 0x10));
            map.push((format!("port{p}_tx_bytes"), base + 0x18));
        }
        for (i, name) in self.taps.stage_names.iter().enumerate() {
            map.push((format!("stage:{name}"), 0x1000 + 8 * i as u32));
        }
        map
    }

    /// Read a bus register.
    pub fn read_reg(&self, addr: u32) -> u64 {
        match addr {
            0x0000 => 0x5355_4D45, // "SUME"
            0x0004 => self.taps.port_stats.len() as u64,
            0x0008 => (self.config.core_clock_hz / 1e6) as u64,
            a if (0x0100..0x1000).contains(&a) => {
                let p = ((a - 0x0100) / 0x20) as usize;
                let field = (a - 0x0100) % 0x20;
                let Some(stats) = self.taps.port_stats.get(p) else {
                    return 0;
                };
                match field {
                    0x0 => stats.rx_packets,
                    0x8 => stats.rx_bytes,
                    0x10 => stats.tx_packets,
                    0x18 => stats.tx_bytes,
                    _ => 0,
                }
            }
            a if a >= 0x1000 => {
                let i = ((a - 0x1000) / 8) as usize;
                let v = self.taps.stage_counts.get(i).copied().unwrap_or(0);
                match self.compiled.runtime.counter_wrap_bits {
                    Some(bits) if bits < 64 => v & ((1u64 << bits) - 1),
                    _ => v,
                }
            }
            _ => 0,
        }
    }

    /// Write a bus register. `0xFFFC` clears all statistics.
    pub fn write_reg(&mut self, addr: u32, _value: u64) {
        if addr == 0xFFFC {
            self.taps
                .port_stats
                .iter_mut()
                .for_each(|s| *s = PortStats::default());
            self.taps.stage_counts.iter_mut().for_each(|c| *c = 0);
            self.taps.drop_counts.clear();
        }
    }
}

/// The device's half of the streaming batch path: a [`TraceSink`] that
/// turns each packet — its (borrowed) stage path folded into the stage tap
/// counters, its verdict into the post-verdict accounting — into a
/// [`Processed`] and hands that to the caller's visitor before the next
/// packet of the group executes. The stage path is the trace's stage lane,
/// one word per parser state or table, so a tap reads no record, and a
/// flow-cache hit's lane is read where its entry stores it. The sink says
/// it reads no record ([`TraceSink::reads_records`]), so the data plane
/// writes none: it records the stage lane alone. Nothing of a
/// packet stays behind: one egress frame is alive at a time, and a
/// visitor that drops it before the next packet hands its buffer to the
/// next frame, so a group allocates nothing per packet.
struct TapSink<'a, V> {
    taps: &'a mut TapState,
    config: &'a DeviceConfig,
    latency: &'a LatencyModel,
    /// The group, for each packet's ingress port.
    pkts: &'a [(u16, &'a [u8])],
    /// Window index of the group's first packet.
    base: usize,
    mac_in_ns: Option<f64>,
    visit: &'a mut V,
}

impl<V: FnMut(usize, Processed)> TraceSink for TapSink<'_, V> {
    fn observe(&mut self, index: usize, verdict: Verdict, trace: &LazyTrace<'_>) {
        let summary = self.taps.tap_packet_lazy(trace, self.latency);
        let port = self.pkts[index].0;
        let p = self.taps.finish(
            self.config,
            self.latency,
            port,
            verdict,
            summary,
            self.mac_in_ns,
        );
        (self.visit)(self.base + index, p);
    }

    /// Taps walk the stage lane alone, so the data plane records nothing
    /// else for the device.
    fn reads_records(&self) -> bool {
        false
    }
}

impl TapState {
    /// Count the stages a trace visited and derive the packet's
    /// [`TapSummary`] in one walk over the stage lane of a [`LazyTrace`]
    /// ([`LazyTrace::stages`]: one word per stage, no record read),
    /// without decoding it into
    /// [`TraceEvent`](netdebug_dataplane::TraceEvent)s or resolving a
    /// name: an id is both the tap index and the index of the stage's
    /// cost in the latency model.
    fn tap_packet_lazy(&mut self, trace: &LazyTrace<'_>, latency: &LatencyModel) -> TapSummary {
        let (mut last_state, mut last_table) = (None, None);
        let mut pipeline_cycles = latency.base_cycles();
        for stage in trace.stages() {
            let tap = match stage {
                Stage::State(sid) => {
                    pipeline_cycles += latency.state_cycles[sid as usize].1;
                    *last_state.insert(sid as usize)
                }
                Stage::Table(tid) => {
                    pipeline_cycles += latency.table_cycles[tid as usize].1;
                    *last_table.insert(self.first_table_tap + tid as usize)
                }
            };
            self.stage_counts[tap] += 1;
        }
        TapSummary {
            // The last table applied, else the last parser state entered.
            last_stage_tap: last_table.or(last_state),
            pipeline_cycles,
        }
    }

    /// Post-verdict bookkeeping: pipeline timing, deparser/egress taps,
    /// port statistics and drop counters. Runs in packet order on every
    /// path, so the resulting statistics are deterministic. `mac_in_ns`
    /// is the ingress MAC latency of an external-path packet (which also
    /// pays the egress MAC); `None` on the internal path.
    fn finish(
        &mut self,
        config: &DeviceConfig,
        latency: &LatencyModel,
        port: u16,
        verdict: Verdict,
        summary: TapSummary,
        mac_in_ns: Option<f64>,
    ) -> Processed {
        let pipeline_cycles = summary.pipeline_cycles;
        // Pipelined execution: this packet starts once the pipeline frees
        // up, and completes `pipeline_cycles` later. Wall-clock time (the
        // device clock) does not stall — the caller controls arrivals.
        let start = self.now_cycles.max(self.pipe_next_start);
        // Saturating: a caller may schedule arrivals up to `u64::MAX`.
        self.pipe_next_start = start.saturating_add(latency.initiation_interval);
        let done_at = start.saturating_add(pipeline_cycles);
        let wait_cycles = done_at - self.now_cycles;

        // The last tap the packet reached, alongside its fate.
        let (outcome, last_tap) = match verdict {
            Verdict::Forward { port: out, data } => {
                self.stage_counts[self.deparser_tap] += 1;
                if usize::from(out) >= self.port_stats.len() {
                    let reason = DropReason::BadEgress;
                    self.count_drop(reason);
                    (Outcome::Dropped { reason }, Some(self.deparser_tap))
                } else {
                    self.stage_counts[self.egress_tap] += 1;
                    self.port_stats[out as usize].tx_packets += 1;
                    self.port_stats[out as usize].tx_bytes += data.len() as u64;
                    (Outcome::Tx { port: out, data }, Some(self.egress_tap))
                }
            }
            Verdict::Flood { data } => {
                self.stage_counts[self.deparser_tap] += 1;
                self.stage_counts[self.egress_tap] += 1;
                for p in 0..self.port_stats.len() {
                    if p != usize::from(port) {
                        self.port_stats[p].tx_packets += 1;
                        self.port_stats[p].tx_bytes += data.len() as u64;
                    }
                }
                (Outcome::Flood { data }, Some(self.egress_tap))
            }
            Verdict::Drop(reason) => {
                self.count_drop(reason);
                (Outcome::Dropped { reason }, summary.last_stage_tap)
            }
        };
        let last_stage = match last_tap {
            Some(i) => self.stage_names[i],
            None => UNTAPPED_STAGE,
        };

        let mac_out_ns = if mac_in_ns.is_some() && outcome.transmitted() {
            MAC_FIXED_NS
                + config.wire_ns(match &outcome {
                    Outcome::Tx { data, .. } | Outcome::Flood { data } => data.len(),
                    Outcome::Dropped { .. } => 0,
                })
        } else {
            0.0
        };
        let pipeline_ns = wait_cycles as f64 * 1e9 / config.core_clock_hz;

        Processed {
            outcome,
            pipeline_cycles,
            total_ns: mac_in_ns.unwrap_or(0.0) + pipeline_ns + mac_out_ns,
            done_at_cycle: done_at,
            last_stage,
        }
    }

    /// Bump a drop counter; only a reason's first drop allocates its key.
    fn count_drop(&mut self, reason: DropReason) {
        match self.drop_counts.get_mut(reason.as_str()) {
            Some(n) => *n += 1,
            None => {
                self.drop_counts.insert(reason.as_str().to_string(), 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdebug_p4::corpus;
    use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};

    fn ipv4(dst: Ipv4Address, version: u8) -> Vec<u8> {
        let mut f = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 1), dst)
        .udp(5, 5)
        .payload(b"data")
        .build();
        f[14] = (version << 4) | 5;
        // Fix the checksum? The corpus programs don't verify it; skip.
        f
    }

    /// One `inject_batch_with` window as `port 0`, its outcomes collected
    /// in window order.
    fn inject_window(dev: &mut Device, frames: &[&[u8]], gap_cycles: u64) -> Vec<Processed> {
        let mut out = Vec::with_capacity(frames.len());
        dev.inject_batch_with(0, frames, gap_cycles, |_, p| out.push(p));
        out
    }

    fn deploy(backend: &Backend) -> Device {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(backend, &ir).unwrap();
        dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
            .unwrap();
        dev
    }

    #[test]
    fn reference_device_forwards_and_counts() {
        let mut dev = deploy(&Backend::reference());
        let p = dev.rx(0, &ipv4(Ipv4Address::new(10, 0, 0, 9), 4));
        assert!(matches!(p.outcome, Outcome::Tx { port: 1, .. }));
        assert_eq!(p.last_stage, "egress");
        assert!(p.pipeline_cycles > 0);
        assert!(p.total_ns > 500.0, "MAC latency must show: {}", p.total_ns);
        assert_eq!(dev.port_stats(0).rx_packets, 1);
        assert_eq!(dev.port_stats(1).tx_packets, 1);
        // Stage taps saw the packet everywhere.
        let names = dev.stage_names().to_vec();
        for (name, count) in names.iter().zip(dev.stage_counts()) {
            assert_eq!(*count, 1, "stage {name} must count 1");
        }
    }

    #[test]
    fn reference_device_drops_malformed() {
        let mut dev = deploy(&Backend::reference());
        let p = dev.rx(0, &ipv4(Ipv4Address::new(10, 0, 0, 9), 5));
        assert!(matches!(
            p.outcome,
            Outcome::Dropped {
                reason: DropReason::ParserReject
            }
        ));
        // The packet reached parse_ipv4 and vanished there — the tap
        // counters localise the drop.
        assert_eq!(p.last_stage, "parser:parse_ipv4");
        let idx = dev
            .stage_names()
            .iter()
            .position(|n| *n == "deparser")
            .unwrap();
        assert_eq!(dev.stage_counts()[idx], 0);
    }

    #[test]
    fn panic_after_n_fault_trips_with_typed_payload() {
        let mut dev = deploy(&Backend::reference());
        dev.arm_fault(FaultSpec::PanicAfterN { n: 2 });
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        dev.inject(0, &frame);
        dev.inject(0, &frame);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.inject(0, &frame);
        }))
        .expect_err("frame #2 must trip");
        let payload = err
            .downcast_ref::<crate::faults::FaultPanic>()
            .expect("typed payload");
        assert_eq!(payload.fault, "panic-after-n");
        assert_eq!(payload.stage, "ingress");
    }

    #[test]
    fn batch_fault_processes_clean_prefix_then_trips() {
        let mut dev = deploy(&Backend::reference());
        dev.arm_fault(FaultSpec::PanicAfterN { n: 3 });
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        let frames: Vec<&[u8]> = (0..8).map(|_| frame.as_slice()).collect();
        let mut seen = Vec::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.inject_batch_with(0, &frames, 0, |i, _| seen.push(i));
        }))
        .expect_err("frame #3 of the batch must trip");
        assert!(err.downcast_ref::<crate::faults::FaultPanic>().is_some());
        assert_eq!(seen, vec![0, 1, 2], "clean prefix delivered before trip");
        // Replaying a clone of a pre-run device one frame at a time trips
        // on the same frame index — the isolation invariant.
        let mut replay = deploy(&Backend::reference());
        replay.arm_fault(FaultSpec::PanicAfterN { n: 3 });
        for _ in 0..3 {
            replay.inject(0, &frame);
        }
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay.inject(0, &frame);
        }))
        .is_err());
    }

    #[test]
    fn stalled_device_swallows_single_injections_too() {
        let mut dev = deploy(&Backend::reference());
        dev.arm_fault(FaultSpec::Stall { after: 1 });
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        assert!(matches!(dev.inject(0, &frame).outcome, Outcome::Tx { .. }));
        assert!(!dev.is_wedged());
        let taps = dev.stage_counts().to_vec();
        for p in [dev.inject(0, &frame), dev.rx(0, &frame)] {
            assert_eq!(
                p.outcome,
                Outcome::Dropped {
                    reason: DropReason::Faulted
                }
            );
        }
        assert!(dev.is_wedged(), "frame #1 wedges the one-frame path");
        assert_eq!(dev.stage_counts(), taps, "a swallowed frame books nothing");
        assert!(dev.drop_counts().is_empty());
        assert_eq!(dev.port_stats(1).tx_packets, 1);
    }

    #[test]
    fn wedge_parser_charges_watchdog_budget_to_clock() {
        let mut dev = deploy(&Backend::reference());
        dev.arm_fault(FaultSpec::WedgeParser {
            after: 0,
            budget_cycles: 123_456,
        });
        let before = dev.now();
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.inject(0, &frame);
        }));
        assert_eq!(
            dev.now() - before,
            123_456,
            "watchdog budget burned before the trip"
        );
    }

    #[test]
    fn fail_publication_trips_driver_installs_only() {
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        dev.arm_fault(FaultSpec::FailPublication);
        let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        }))
        .expect_err("driver publication must trip");
        assert_eq!(
            trip.downcast_ref::<crate::faults::FaultPanic>()
                .expect("typed payload")
                .stage,
            "driver"
        );
        // The detached control-plane handle bypasses the modeled driver.
        dev.control_plane()
            .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
            .unwrap();
        // Packets still flow: the fault is publication-selective.
        let p = dev.inject(0, &ipv4(Ipv4Address::new(10, 0, 0, 9), 4));
        assert!(matches!(p.outcome, Outcome::Tx { port: 1, .. }));
    }

    #[test]
    fn faulty_backend_profile_arms_deployed_devices() {
        let backend = Backend::SdnetSim(crate::backend::SdnetProfile {
            name: "crashy".into(),
            bugs: vec![],
            limits: crate::backend::ArchLimits::SDNET_2018,
            faults: vec![FaultSpec::PanicOnPort { port: 2 }],
        });
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let mut dev = Device::deploy(&backend, &ir).unwrap();
        assert_eq!(dev.armed_faults(), backend.faults());
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        dev.inject(0, &frame); // port 0 is clean
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.inject(2, &frame);
        }))
        .is_err());
    }

    #[test]
    fn mismatched_batch_is_an_error_not_a_panic() {
        let mut dev = deploy(&Backend::reference());
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        let pkts: Vec<(u16, &[u8])> = vec![(0, frame.as_slice()), (0, frame.as_slice())];
        let err = dev
            .inject_batch_at(&pkts, &[10], |_, _| {})
            .expect_err("length mismatch");
        assert_eq!(err, FaultError::MismatchedBatch { pkts: 2, dues: 1 });
    }

    #[test]
    fn sdnet_device_forwards_malformed_packets() {
        // The paper's §4 observation, now at device level.
        let mut dev = deploy(&Backend::sdnet_2018());
        let p = dev.rx(0, &ipv4(Ipv4Address::new(10, 0, 0, 9), 5));
        assert!(
            matches!(p.outcome, Outcome::Tx { .. }),
            "SDNet-sim forwards the packet that P4 semantics requires dropping: {:?}",
            p.outcome
        );
    }

    #[test]
    fn inject_bypasses_mac() {
        let mut dev = deploy(&Backend::reference());
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        let rx = dev.rx(0, &frame);
        let inj = dev.inject(0, &frame);
        assert!(inj.total_ns < rx.total_ns, "internal path skips the MACs");
        // Injection does not touch port RX counters.
        assert_eq!(dev.port_stats(0).rx_packets, 1);
        // But the egress MAC still transmits.
        assert_eq!(dev.port_stats(1).tx_packets, 2);
    }

    #[test]
    fn flood_goes_everywhere_but_ingress() {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(9, 9, 9, 9, 9, 9),
        )
        .payload(b"x")
        .build();
        let p = dev.rx(2, &frame);
        assert!(matches!(p.outcome, Outcome::Flood { .. }));
        for port in 0..4u16 {
            let tx = dev.port_stats(port).tx_packets;
            assert_eq!(tx, u64::from(port != 2), "port {port}");
        }
    }

    #[test]
    fn register_bus_exposes_stats_and_taps() {
        let mut dev = deploy(&Backend::reference());
        dev.rx(0, &ipv4(Ipv4Address::new(10, 0, 0, 9), 4));
        assert_eq!(dev.read_reg(0x0000), 0x5355_4D45);
        assert_eq!(dev.read_reg(0x0004), 4);
        assert_eq!(dev.read_reg(0x0008), 200);
        // port0 rx_pkts.
        assert_eq!(dev.read_reg(0x0100), 1);
        // port1 tx_pkts.
        assert_eq!(dev.read_reg(0x0100 + 0x20 + 0x10), 1);
        // Stage taps via the map.
        let map = dev.reg_map();
        let (_, addr) = map
            .iter()
            .find(|(n, _)| n == "stage:table:ipv4_lpm")
            .unwrap();
        assert_eq!(dev.read_reg(*addr), 1);
        // Clear.
        dev.write_reg(0xFFFC, 1);
        assert_eq!(dev.read_reg(0x0100), 0);
        assert_eq!(dev.read_reg(*addr), 0);
    }

    #[test]
    fn counter_wrap_bug_on_bus_reads() {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let backend = Backend::sdnet_with_bugs(
            "wrap",
            vec![crate::bugs::BugSpec::CounterWidthWrapped { bits: 2 }],
        );
        let mut dev = Device::deploy(&backend, &ir).unwrap();
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(9, 9, 9, 9, 9, 9),
        )
        .payload(b"x")
        .build();
        for _ in 0..5 {
            dev.rx(0, &frame);
        }
        // True count 5, wrapped at 2 bits -> 1.
        assert_eq!(dev.counter("port_rx", 0).unwrap().0, 1);
    }

    #[test]
    fn priority_inversion_bug_at_install() {
        let ir = netdebug_p4::compile(corpus::ACL_FIREWALL).unwrap();
        let good = Device::deploy(&Backend::reference(), &ir).unwrap();
        // The ACL key is 88 bits, over the SDNet limit — use an unlimited
        // profile so the only divergence is the injected bug.
        let backend = Backend::SdnetSim(crate::backend::SdnetProfile {
            name: "prio".to_string(),
            bugs: vec![crate::bugs::BugSpec::PriorityInverted],
            limits: crate::backend::ArchLimits::UNLIMITED,
            faults: vec![],
        });
        let mut bad = Device::deploy(&backend, &ir).unwrap();
        let mut good = good;
        for dev in [&mut good, &mut bad] {
            // Specific allow rule (high priority), broad drop rule (low).
            dev.install(
                "acl",
                vec![
                    IrPattern::Value(0x0A00_0001),
                    IrPattern::Any,
                    IrPattern::Any,
                    IrPattern::Any,
                ],
                "allow",
                vec![2],
                100,
            )
            .unwrap();
            dev.install(
                "acl",
                vec![
                    IrPattern::Any,
                    IrPattern::Any,
                    IrPattern::Any,
                    IrPattern::Any,
                ],
                "drop",
                vec![],
                1,
            )
            .unwrap();
        }
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(1, 1, 1, 1))
        .tcp(1, 443, 0, netdebug_packet::tcp::TcpFlags::default())
        .build();
        let g = good.rx(0, &frame);
        let b = bad.rx(0, &frame);
        assert!(matches!(g.outcome, Outcome::Tx { port: 2, .. }));
        assert!(
            matches!(b.outcome, Outcome::Dropped { .. }),
            "inverted priorities let the broad drop rule shadow the allow"
        );
    }

    #[test]
    fn concurrent_install_lands_mid_batch() {
        let mut dev = deploy(&Backend::reference());
        let frame = ipv4(Ipv4Address::new(10, 1, 0, 7), 4);
        let frames: Vec<&[u8]> = (0..256).map(|_| frame.as_slice()).collect();
        // Before churn: 10.1.0.7 matches only the /8 route (port 1).
        let cp = dev.control_plane();
        let (outcomes, epoch) = std::thread::scope(|scope| {
            let mutator = scope.spawn(move || {
                cp.install_lpm("ipv4_lpm", 0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2])
                    .unwrap()
            });
            let outcomes = inject_window(&mut dev, &frames, 0);
            (outcomes, mutator.join().expect("mutator thread"))
        });
        assert_eq!(epoch, 2, "deploy install was epoch 1, churn is epoch 2");
        assert_eq!(outcomes.len(), 256);
        // The window pinned one snapshot: uniform egress, port 1 or 2.
        let first = match &outcomes[0].outcome {
            Outcome::Tx { port, .. } => *port,
            other => panic!("expected Tx, got {other:?}"),
        };
        assert!(first == 1 || first == 2);
        for p in &outcomes {
            assert!(
                matches!(&p.outcome, Outcome::Tx { port, .. } if *port == first),
                "mixed epochs within one window: {:?}",
                p.outcome
            );
        }
        // The next window observes the published /16 route.
        let after = inject_window(&mut dev, &frames[..4], 0);
        for p in &after {
            assert!(matches!(&p.outcome, Outcome::Tx { port: 2, .. }));
        }
    }

    #[test]
    fn exact_index_stays_epoch_atomic_mid_batch() {
        // The batch path flattens its pinned snapshots into per-batch
        // table views; a concurrent install into a hash-indexed exact
        // table (l2_switch's dmac) publishes a recompiled index mid-batch
        // and must never tear the window: every packet of the window
        // resolves against one index generation.
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let mut dev = Device::deploy(&Backend::reference(), &ir).unwrap();
        let dst = 0x0200_0000_0007u128;
        let frame = PacketBuilder::ethernet(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 7),
        )
        .payload(b"epoch")
        .build();
        let frames: Vec<&[u8]> = (0..256).map(|_| frame.as_slice()).collect();
        // Before the install the destination is unknown (flood); after,
        // the dmac hash forwards to port 3.
        let cp = dev.control_plane();
        let outcomes = std::thread::scope(|scope| {
            scope.spawn(move || {
                cp.install_exact("dmac", vec![dst], "forward", vec![3])
                    .unwrap()
            });
            inject_window(&mut dev, &frames, 0)
        });
        let forwarded = matches!(outcomes[0].outcome, Outcome::Tx { port: 3, .. });
        for p in &outcomes {
            match (&p.outcome, forwarded) {
                (Outcome::Tx { port: 3, .. }, true) | (Outcome::Flood { .. }, false) => {}
                other => panic!("mixed index generations within one window: {other:?}"),
            }
        }
        // The next window observes the republished hash index.
        let after = inject_window(&mut dev, &frames[..4], 0);
        for p in &after {
            assert!(matches!(&p.outcome, Outcome::Tx { port: 3, .. }));
        }
    }

    #[test]
    fn control_plane_handle_bypasses_driver_bugs() {
        // The priority-inversion bug models the vendor driver stack:
        // Device::install applies it, the raw handle speaks to the silicon.
        let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
        let backend = Backend::SdnetSim(crate::backend::SdnetProfile {
            name: "prio".to_string(),
            bugs: vec![crate::bugs::BugSpec::PriorityInverted],
            limits: crate::backend::ArchLimits::UNLIMITED,
            faults: vec![],
        });
        let mut dev = Device::deploy(&backend, &ir).unwrap();
        dev.control_plane()
            .install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
            .unwrap();
        dev.control_plane()
            .install_lpm("ipv4_lpm", 0x0A01_0000, 16, "ipv4_forward", vec![0xBB, 2])
            .unwrap();
        // Handle-installed priorities are un-inverted: /16 still wins.
        let p = dev.inject(0, &ipv4(Ipv4Address::new(10, 1, 0, 9), 4));
        assert!(
            matches!(p.outcome, Outcome::Tx { port: 2, .. }),
            "handle installs must not be priority-inverted: {:?}",
            p.outcome
        );
    }

    #[test]
    fn paced_batch_matches_per_packet_loop() {
        // The paced arm of inject_batch_with now coalesces through the
        // batch engine; it must stay bit-identical to the historical
        // advance-then-inject loop — outcomes, clock, taps, port stats
        // and drop counters.
        let mixed = mixed_frames(37);
        let frames: Vec<&[u8]> = mixed.iter().map(|f| f.as_slice()).collect();
        for gap in [1u64, 7, 1000] {
            let mut batched = deploy(&Backend::reference());
            let mut looped = deploy(&Backend::reference());
            let a = inject_window(&mut batched, &frames, gap);
            let mut b = Vec::new();
            for f in &frames {
                looped.advance(gap);
                b.push(looped.inject(0, f));
            }
            assert_eq!(a, b, "paced outcomes diverged at gap {gap}");
            assert_eq!(batched.now(), looped.now());
            assert_eq!(batched.stage_counts(), looped.stage_counts());
            assert_eq!(batched.drop_counts(), looped.drop_counts());
            for p in 0..4 {
                assert_eq!(batched.port_stats(p), looped.port_stats(p));
            }
        }
    }

    #[test]
    fn a_paced_batch_saturates_like_the_advance_loop() {
        // A gap that overflows `now + gap * i` by the third frame: both
        // paths park the clock at the end of virtual time.
        const GAP: u64 = u64::MAX / 2;
        let mixed = mixed_frames(4);
        let frames: Vec<&[u8]> = mixed.iter().map(|f| f.as_slice()).collect();
        let mut batched = deploy(&Backend::reference());
        let mut looped = batched.clone();
        let mut a = Vec::new();
        batched.inject_batch_with(0, &frames, GAP, |_, p| a.push(p));
        let b: Vec<Processed> = frames
            .iter()
            .map(|f| {
                looped.advance(GAP);
                looped.inject(0, f)
            })
            .collect();
        assert_eq!(a, b);
        assert_eq!((batched.now(), looped.now()), (u64::MAX, u64::MAX));
        assert_eq!(batched.stage_counts(), looped.stage_counts());
    }

    #[test]
    fn inject_batch_at_coalesces_equal_dues() {
        // Mixed ports, duplicate due instants, and a due in the past (the
        // clock never moves backwards): the explicit-schedule hook must
        // match the reference order — advance to each due, inject each
        // frame singly.
        let f0 = ipv4(Ipv4Address::new(10, 0, 0, 1), 4);
        let f1 = ipv4(Ipv4Address::new(10, 0, 0, 9), 5); // malformed
        let f2 = ipv4(Ipv4Address::new(192, 168, 0, 1), 4); // miss
        let pkts: Vec<(u16, &[u8])> = vec![
            (0, f0.as_slice()),
            (2, f1.as_slice()),
            (2, f0.as_slice()),
            (1, f2.as_slice()),
            (3, f0.as_slice()),
        ];
        let dues = [10u64, 10, 10, 25, 25];
        let mut grouped = deploy(&Backend::reference());
        grouped.advance(12); // dues 10 are already in the past
        let mut a = Vec::new();
        let mut order = Vec::new();
        grouped
            .inject_batch_at(&pkts, &dues, |i, p| {
                order.push(i);
                a.push(p);
            })
            .unwrap();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "visit order is window order");

        let mut reference = deploy(&Backend::reference());
        reference.advance(12);
        let mut b = Vec::new();
        for (&(port, frame), &due) in pkts.iter().zip(&dues) {
            let now = reference.now();
            if due > now {
                reference.advance(due - now);
            }
            b.push(reference.inject(port, frame));
        }
        assert_eq!(a, b);
        assert_eq!(grouped.now(), reference.now());
        assert_eq!(grouped.stage_counts(), reference.stage_counts());
        assert_eq!(grouped.drop_counts(), reference.drop_counts());
        for p in 0..4 {
            assert_eq!(grouped.port_stats(p), reference.port_stats(p));
        }
    }

    #[test]
    fn streaming_visit_order_is_window_order() {
        let mut dev = deploy(&Backend::reference());
        let frame = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        let frames: Vec<&[u8]> = (0..8).map(|_| frame.as_slice()).collect();
        let mut seen = Vec::new();
        dev.inject_batch_with(0, &frames, 0, |i, p| {
            seen.push((i, p.outcome.transmitted()));
        });
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().enumerate().all(|(k, (i, tx))| k == *i && *tx));
    }

    /// Frames that forward, miss and get rejected, so every tap, drop
    /// counter and latency term differs along the window.
    fn mixed_frames(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| match i % 3 {
                0 => ipv4(Ipv4Address::new(10, 0, 0, (i % 250) as u8), 4),
                1 => ipv4(Ipv4Address::new(192, 168, 0, 1), 4), // miss -> drop
                _ => ipv4(Ipv4Address::new(10, 0, 0, 9), 5),    // malformed -> reject
            })
            .collect()
    }

    #[test]
    fn each_outcome_is_delivered_before_the_next_frame_executes() {
        let mixed = mixed_frames(8);
        let frames: Vec<&[u8]> = mixed.iter().map(|f| f.as_slice()).collect();
        for engine in [Engine::Compiled, Engine::Reference] {
            // A visitor that unwinds at outcome 4 stops the group there:
            // frames 5.. never reached the parser.
            let mut dev = deploy(&Backend::reference());
            dev.set_engine(engine);
            let mut seen = Vec::new();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.inject_batch_with(0, &frames, 0, |i, _| {
                    seen.push(i);
                    if i == 4 {
                        std::panic::resume_unwind(Box::new("visitor stops"));
                    }
                });
            }))
            .expect_err("the visitor unwound");
            assert_eq!(seen, vec![0, 1, 2, 3, 4]);
            assert_eq!(dev.stage_counts()[0], 5, "{engine:?}: parser:start tap");

            // The streamed window equals one-at-a-time injection on a
            // twin: cycles, latency, last stage, bytes, and every counter.
            let mut batched = deploy(&Backend::reference());
            batched.set_engine(engine);
            let mut looped = batched.clone();
            let a = inject_window(&mut batched, &frames, 0);
            let b: Vec<Processed> = frames.iter().map(|f| looped.inject(0, f)).collect();
            assert_eq!(a, b, "{engine:?}");
            assert_eq!(batched.now(), looped.now());
            assert_eq!(batched.stage_counts(), looped.stage_counts());
            assert_eq!(batched.drop_counts(), looped.drop_counts());
            for p in 0..4 {
                assert_eq!(batched.port_stats(p), looped.port_stats(p));
            }

            // A fault armed mid-group: exactly the clean prefix, then the
            // typed panic.
            for n in [0u64, 3, 7] {
                let mut dev = deploy(&Backend::reference());
                dev.set_engine(engine);
                dev.arm_fault(FaultSpec::PanicAfterN { n });
                let mut delivered = Vec::new();
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    dev.inject_batch_with(0, &frames, 0, |_, p| delivered.push(p));
                }))
                .expect_err("the fault trips inside the group");
                assert!(err.downcast_ref::<crate::faults::FaultPanic>().is_some());
                assert_eq!(delivered, b[..n as usize], "{engine:?}: prefix of {n}");
            }
        }
    }

    /// On a device clone (whose data plane caches on its own, starting
    /// cold), a flow-cache hit taps the hit's own stage path, and the next
    /// packet — on the reference engine, which skips the cache — taps its
    /// own.
    #[test]
    fn a_clone_taps_each_packet_on_its_own_stage_path() {
        let hot = ipv4(Ipv4Address::new(10, 0, 0, 9), 4);
        let rejected = ipv4(Ipv4Address::new(10, 0, 0, 9), 5);
        let mut dev = deploy(&Backend::reference());
        dev.inject(0, &hot);
        let mut twin = dev.clone();
        for _ in 0..2 {
            twin.inject(0, &hot);
        }
        let (counts, hits) = (twin.stage_counts().to_vec(), twin.cache_stats().hits);
        // 1. A traced hit: the whole path, deparser and egress included.
        let p = twin.inject(0, &hot);
        assert_eq!(twin.cache_stats().hits, hits + 1);
        assert_eq!(p.last_stage, "egress");
        let tapped: Vec<u64> = twin
            .stage_counts()
            .iter()
            .zip(&counts)
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(
            tapped, [1; 5],
            "start, parse_ipv4, ipv4_lpm, deparser, egress"
        );
        // 2-3. On the reference engine a rejected frame taps only the
        // parser states it entered, exactly as on a fresh device.
        twin.set_engine(Engine::Reference);
        let counts = twin.stage_counts().to_vec();
        let p = twin.inject(0, &rejected);
        let mut fresh = deploy(&Backend::reference());
        fresh.set_engine(Engine::Reference);
        let want = fresh.inject(0, &rejected);
        assert_eq!(p.last_stage, "parser:parse_ipv4");
        assert_eq!(
            (&p.outcome, p.pipeline_cycles),
            (&want.outcome, want.pipeline_cycles)
        );
        let tapped: Vec<u64> = twin
            .stage_counts()
            .iter()
            .zip(&counts)
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(tapped, fresh.stage_counts());
    }

    /// Egress frames reuse one buffer per thread, and nothing shows it: a
    /// 1 518 / 64 / 256 B mix whose every outcome is dropped before the
    /// next frame runs equals, byte for byte, what a fresh reference-engine
    /// device produces, on both engines with the flow cache on and off.
    #[test]
    fn egress_buffer_reuse_is_invisible() {
        let sized = |len: usize, host: u8| {
            PacketBuilder::ethernet(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .ipv4(
                Ipv4Address::new(10, 0, 0, 1),
                Ipv4Address::new(10, 0, 0, host),
            )
            .udp(5, 5)
            .payload(&vec![host; len - 42])
            .build()
        };
        // Twelve flows, four times each: the cache installs a flow on its
        // second miss and hits from the third.
        let mix: Vec<Vec<u8>> = (0..48)
            .map(|i| sized([1518, 64, 256][i % 3], (i % 4) as u8))
            .collect();
        let frames: Vec<&[u8]> = mix.iter().map(|f| f.as_slice()).collect();
        let mut reference = deploy(&Backend::reference());
        reference.set_engine(Engine::Reference);
        let want: Vec<Processed> = frames.iter().map(|f| reference.inject(0, f)).collect();
        assert!(want.iter().all(|p| matches!(p.outcome, Outcome::Tx { .. })));
        for engine in [Engine::Compiled, Engine::Reference] {
            for cache in [true, false] {
                let mut dev = deploy(&Backend::reference());
                dev.set_engine(engine);
                dev.set_flow_cache(cache);
                let mut done = 0;
                for window in frames.chunks(16) {
                    dev.inject_batch_with(0, window, 0, |i, p| {
                        let i = done + i;
                        assert_eq!(p, want[i], "{engine:?}, cache {cache}, frame {i}");
                    });
                    done += window.len();
                }
                let hits = dev.cache_stats().hits;
                assert_eq!(hits > 0, cache && engine == Engine::Compiled, "{engine:?}");
            }
        }
    }

    /// Stage names are interned once per process: a redeployed program
    /// gets the very same `&'static str`s, and another program shares the
    /// names it has in common, so repeated deploys add nothing.
    #[test]
    fn redeploys_share_interned_stage_names() {
        let (first, again) = (deploy(&Backend::reference()), deploy(&Backend::reference()));
        let ir = netdebug_p4::compile(corpus::VLAN_ROUTER).unwrap();
        let other = Device::deploy(&Backend::reference(), &ir).unwrap();
        assert_eq!(first.stage_names(), again.stage_names());
        for (a, b) in first.stage_names().iter().zip(again.stage_names()) {
            assert!(std::ptr::eq(*a, *b), "{a} interned twice");
        }
        let mut shared = 0;
        for name in other.stage_names() {
            if let Some(seen) = first.stage_names().iter().find(|n| *n == name) {
                assert!(std::ptr::eq(*seen, *name), "{name} interned twice");
                shared += 1;
            }
        }
        assert!(other.stage_names().contains(&"parser:start") && shared >= 3);
    }

    #[test]
    fn untapped_packets_share_one_last_stage() {
        let mut dev = deploy(&Backend::reference());
        let skipped = [dev.skip_faulted(0, 0), dev.skip_faulted(1, 0)];
        for p in &skipped {
            assert!(matches!(p.outcome, Outcome::Dropped { .. }));
            assert_eq!(p.last_stage, "parser:start");
            assert!(
                std::ptr::eq(p.last_stage, skipped[0].last_stage),
                "interned once, not built per packet"
            );
        }
    }

    #[test]
    fn line_rate_math() {
        let cfg = DeviceConfig::default();
        // 64B frame + 20B overhead = 672 bits at 10G = 67.2ns -> ~14.88Mpps.
        assert!((cfg.line_rate_pps(64) - 14_880_952.0).abs() < 1000.0);
        assert!((cfg.wire_ns(64) - 67.2).abs() < 0.01);
        assert_eq!(cfg.ns_to_cycles(67.2), 14); // ceil(13.44)
    }
}
