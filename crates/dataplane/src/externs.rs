//! Stateful externs: registers, counters and meters.
//!
//! All three are arrays of cells indexed by a runtime expression. Counters
//! count packets and bytes; registers hold `bit<W>` values readable and
//! writable from the data plane and the control plane; meters are simplified
//! srTCM-style token buckets measured in packets, returning a colour
//! (0 green / 1 yellow / 2 red).

use netdebug_p4::ir::{self, ExternKindIr};
use serde::{Deserialize, Serialize};

/// Meter colour constants.
pub const COLOR_GREEN: u128 = 0;
/// Yellow: above committed rate, below peak rate.
pub const COLOR_YELLOW: u128 = 1;
/// Red: above peak rate.
pub const COLOR_RED: u128 = 2;

/// Configuration of one meter cell.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MeterConfig {
    /// Committed rate in packets per 1M cycles.
    pub cir_per_mcycle: u64,
    /// Committed burst size in packets.
    pub cbs: u64,
    /// Peak rate in packets per 1M cycles.
    pub pir_per_mcycle: u64,
    /// Peak burst size in packets.
    pub pbs: u64,
}

impl Default for MeterConfig {
    fn default() -> Self {
        // Permissive default: everything green until configured.
        MeterConfig {
            cir_per_mcycle: u64::MAX,
            cbs: u64::MAX,
            pir_per_mcycle: u64::MAX,
            pbs: u64::MAX,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct MeterCell {
    config: MeterConfig,
    committed_tokens: f64,
    peak_tokens: f64,
    last_cycle: u64,
}

impl MeterCell {
    fn new() -> Self {
        let config = MeterConfig::default();
        MeterCell {
            config,
            // Buckets start full so an unconfigured meter is permissive.
            committed_tokens: config.cbs as f64,
            peak_tokens: config.pbs as f64,
            last_cycle: 0,
        }
    }

    fn execute(&mut self, now_cycle: u64) -> u128 {
        let dt = now_cycle.saturating_sub(self.last_cycle) as f64;
        self.last_cycle = now_cycle;
        let cir = self.config.cir_per_mcycle as f64 / 1_000_000.0;
        let pir = self.config.pir_per_mcycle as f64 / 1_000_000.0;
        self.committed_tokens = (self.committed_tokens + dt * cir).min(self.config.cbs as f64);
        self.peak_tokens = (self.peak_tokens + dt * pir).min(self.config.pbs as f64);
        if self.peak_tokens < 1.0 {
            COLOR_RED
        } else if self.committed_tokens < 1.0 {
            self.peak_tokens -= 1.0;
            COLOR_YELLOW
        } else {
            self.committed_tokens -= 1.0;
            self.peak_tokens -= 1.0;
            COLOR_GREEN
        }
    }
}

/// One extern instance's runtime state.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum ExternCells {
    Register { width: u16, cells: Vec<u128> },
    Counter { packets: Vec<u64>, bytes: Vec<u64> },
    Meter { cells: Vec<MeterCell> },
}

/// Runtime state for all externs of a program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExternState {
    instances: Vec<ExternCells>,
}

impl ExternState {
    /// Allocate state matching the program's extern declarations.
    pub fn new(externs: &[ir::ExternIr]) -> Self {
        let instances = externs
            .iter()
            .map(|e| match e.kind {
                ExternKindIr::Register => ExternCells::Register {
                    width: e.width,
                    cells: vec![0; e.size as usize],
                },
                ExternKindIr::Counter => ExternCells::Counter {
                    packets: vec![0; e.size as usize],
                    bytes: vec![0; e.size as usize],
                },
                ExternKindIr::Meter => ExternCells::Meter {
                    cells: (0..e.size).map(|_| MeterCell::new()).collect(),
                },
            })
            .collect();
        ExternState { instances }
    }

    /// Data-plane register read (out-of-range index reads 0, as hardware
    /// register files typically alias or return garbage — zero is the
    /// documented choice here).
    pub fn register_read(&self, id: usize, index: usize) -> u128 {
        match &self.instances[id] {
            ExternCells::Register { cells, .. } => cells.get(index).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Data-plane register write (out-of-range index is a no-op).
    pub fn register_write(&mut self, id: usize, index: usize, value: u128) {
        if let ExternCells::Register { cells, width } = &mut self.instances[id] {
            if let Some(cell) = cells.get_mut(index) {
                *cell = ir::truncate(value, *width);
            }
        }
    }

    /// Count a packet of `bytes` length against a counter cell.
    pub fn counter_inc(&mut self, id: usize, index: usize, byte_len: usize) {
        if let ExternCells::Counter { packets, bytes } = &mut self.instances[id] {
            if let Some(c) = packets.get_mut(index) {
                *c += 1;
            }
            if let Some(b) = bytes.get_mut(index) {
                *b += byte_len as u64;
            }
        }
    }

    /// Control-plane counter read: (packets, bytes).
    pub fn counter_read(&self, id: usize, index: usize) -> (u64, u64) {
        match &self.instances[id] {
            ExternCells::Counter { packets, bytes } => (
                packets.get(index).copied().unwrap_or(0),
                bytes.get(index).copied().unwrap_or(0),
            ),
            _ => (0, 0),
        }
    }

    /// Execute a meter cell at the given device time; returns a colour.
    pub fn meter_execute(&mut self, id: usize, index: usize, now_cycle: u64) -> u128 {
        match &mut self.instances[id] {
            ExternCells::Meter { cells } => cells
                .get_mut(index)
                .map(|c| c.execute(now_cycle))
                .unwrap_or(COLOR_RED),
            _ => COLOR_RED,
        }
    }

    /// Control-plane meter configuration.
    pub fn meter_configure(&mut self, id: usize, index: usize, config: MeterConfig) {
        if let ExternCells::Meter { cells } = &mut self.instances[id] {
            if let Some(c) = cells.get_mut(index) {
                c.config = config;
                c.committed_tokens = config.cbs as f64;
                c.peak_tokens = config.pbs as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn externs() -> Vec<ir::ExternIr> {
        vec![
            ir::ExternIr {
                kind: ExternKindIr::Register,
                name: "r".into(),
                width: 8,
                size: 4,
            },
            ir::ExternIr {
                kind: ExternKindIr::Counter,
                name: "c".into(),
                width: 64,
                size: 2,
            },
            ir::ExternIr {
                kind: ExternKindIr::Meter,
                name: "m".into(),
                width: 64,
                size: 1,
            },
        ]
    }

    #[test]
    fn register_read_write_truncates() {
        let mut s = ExternState::new(&externs());
        s.register_write(0, 1, 0x1FF);
        assert_eq!(s.register_read(0, 1), 0xFF); // truncated to 8 bits
        assert_eq!(s.register_read(0, 3), 0);
        // Out of range: silently ignored / zero.
        s.register_write(0, 99, 7);
        assert_eq!(s.register_read(0, 99), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = ExternState::new(&externs());
        s.counter_inc(1, 0, 64);
        s.counter_inc(1, 0, 128);
        s.counter_inc(1, 1, 1500);
        assert_eq!(s.counter_read(1, 0), (2, 192));
        assert_eq!(s.counter_read(1, 1), (1, 1500));
    }

    #[test]
    fn meter_colours_progress_with_load() {
        let mut s = ExternState::new(&externs());
        // 1 packet per 10k cycles committed, 2 per 10k peak; tiny bursts.
        s.meter_configure(
            2,
            0,
            MeterConfig {
                cir_per_mcycle: 100, // 100 pkts / 1M cycles = 1 / 10k cycles
                cbs: 2,
                pir_per_mcycle: 200,
                pbs: 4,
            },
        );
        // Burst of packets at the same instant: first ones green (burst),
        // then yellow (peak burst), then red.
        let mut colours = Vec::new();
        for _ in 0..8 {
            colours.push(s.meter_execute(2, 0, 1));
        }
        assert_eq!(&colours[0..2], &[COLOR_GREEN, COLOR_GREEN]);
        assert!(colours[2..].contains(&COLOR_YELLOW));
        assert_eq!(colours[7], COLOR_RED);

        // After a long quiet period tokens refill: green again.
        assert_eq!(s.meter_execute(2, 0, 50_000), COLOR_GREEN);
    }

    #[test]
    fn unconfigured_meter_is_green() {
        let mut s = ExternState::new(&externs());
        for t in 0..100 {
            assert_eq!(s.meter_execute(2, 0, t), COLOR_GREEN);
        }
    }
}
