//! Processor time, and the calibration kernel that end-to-end timings are
//! read against.
//!
//! The box this runs on is a few virtual cores of a shared host. It is
//! stolen from (a unit's wall time was up to 3x its processor time), and it
//! moves between speed states 10-25 % apart that last from seconds to
//! minutes, so neither the median nor a low quantile of a run's raw unit
//! times repeats from one run to the next (README, "Estimator"). Two things
//! take the machine out of the figure:
//!
//! * timed sections are read on the **process CPU clock**, which does not
//!   advance while the host runs somebody else;
//! * every timed section is followed by a block of a fixed **calibration
//!   kernel**, and what is reported is the section's time as a multiple of
//!   the kernel's time next to it, scaled by `NOMINAL_S`. A slow state
//!   stretches both alike and cancels.
//!
//! The kernel calls nothing in the repo's crates, so a change to the program
//! under test cannot move it.

use crate::measure::{summarize, Summary};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
}

/// Seconds of processor time this process (all its threads) has used.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut at = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `at` is a live, writable `struct timespec` — two 64-bit fields
    // on every 64-bit Linux target, the only ones this benchmark builds for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut at) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    at.sec as f64 + at.nsec as f64 * 1e-9
}

/// One pass of the kernel on the box this was written on, in its fast
/// state. Reported times are multiples of the kernel's time scaled by this,
/// i.e. seconds on a host on which the kernel takes exactly this long.
pub const NOMINAL_S: f64 = 380e-6;

/// A calibration block is about as long as the section it follows, within
/// these bounds: long enough to time, short enough to leave the run to the
/// workload.
const BLOCK_S: (f64, f64) = (2e-3, 50e-3);

/// Zero-keyed SipHash: the same probe sequence in every process.
type FixedHash = BuildHasherDefault<DefaultHasher>;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A fixed piece of work of the kinds the workloads do: building, hashing
/// and copying frames; scanning a vector that fills the L2 cache; a
/// first-match scan over heap-held ternary rules; rebuilding a hash index.
/// Of the seven candidates tried, these four tracked all six workloads'
/// unit times best through the machine's speed states; a dependent-load
/// chase over 4 MiB and a 1 MiB copy wandered on their own and were dropped.
struct Kernel {
    seqs: Vec<u64>,
    slots: HashMap<u64, u64, FixedHash>,
    rules: Vec<(Vec<u8>, Vec<u8>, u32)>,
}

impl Kernel {
    fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let rules = (0..512)
            .map(|i| {
                let key = (0..16).map(|_| xorshift(&mut state) as u8).collect();
                let mask = (0..16)
                    .map(|j| if (i + j) % 3 == 0 { 0xff } else { 0xf0 })
                    .collect();
                (key, mask, i as u32)
            })
            .collect();
        let odd = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        Kernel {
            seqs: (0..32_768).map(odd).collect(),
            slots: (0..4096).map(|i| (odd(i), i)).collect(),
            rules,
        }
    }

    fn frames(&self) -> u64 {
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0u64;
        for round in 0..256 {
            let len = 64 + (xorshift(&mut state) % 1455) as usize;
            let mut frame = vec![0u8; len];
            for chunk in frame.chunks_mut(8) {
                let word = xorshift(&mut state).to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for &byte in &frame[..64] {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
            let copy = frame.clone();
            acc ^= hash ^ u64::from(copy[len - 1]);
            acc ^= self.slots.get(&self.seqs[round]).copied().unwrap_or(0);
            let node = Box::new((hash, acc));
            acc = acc.wrapping_add(node.0 ^ node.1);
        }
        acc
    }

    fn scan(&self) -> u64 {
        // Every element is odd, so an even needle reads all 256 KiB.
        (0..32u64)
            .filter(|i| std::hint::black_box(&self.seqs).contains(&(i * 2)))
            .count() as u64
    }

    fn first_match(&self) -> u64 {
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0u64;
        for _ in 0..48 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&xorshift(&mut state).to_le_bytes());
            key[8..].copy_from_slice(&xorshift(&mut state).to_le_bytes());
            let hit = self.rules.iter().find(|(value, mask, _)| {
                value
                    .iter()
                    .zip(mask)
                    .zip(&key)
                    .all(|((v, m), k)| (v ^ k) & m == 0)
            });
            acc += hit.map_or(1, |rule| u64::from(rule.2));
        }
        acc
    }

    fn index(&self) -> u64 {
        let built: HashMap<u64, u64, FixedHash> =
            self.seqs[..2048].iter().map(|&s| (s, s >> 3)).collect();
        built.len() as u64
    }

    fn pass(&self) -> u64 {
        std::hint::black_box(self.frames() ^ self.scan() ^ self.first_match() ^ self.index())
    }
}

/// Times sections in calibrated seconds: each section's processor time over
/// the kernel's processor time in the blocks on either side of it.
pub struct Calibrated {
    kernel: Kernel,
    passes: usize,
    /// Kernel seconds per pass in the block that ended last.
    before: f64,
    ratios: Vec<f64>,
    /// Kernel seconds per pass of every block, for the reader of stderr.
    blocks: Vec<f64>,
}

impl Calibrated {
    /// For sections of about `section_s` processor seconds each.
    pub fn new(section_s: f64) -> Self {
        let kernel = Kernel::new();
        kernel.pass();
        let start = cpu_seconds();
        kernel.pass();
        let pass_s = (cpu_seconds() - start).max(1e-6);
        let block_s = section_s.clamp(BLOCK_S.0, BLOCK_S.1);
        let mut timer = Calibrated {
            kernel,
            passes: ((block_s / pass_s).round() as usize).max(1),
            before: 0.0,
            ratios: Vec::new(),
            blocks: Vec::new(),
        };
        timer.before = timer.block();
        timer
    }

    fn block(&mut self) -> f64 {
        let start = cpu_seconds();
        for _ in 0..self.passes {
            self.kernel.pass();
        }
        let pass_s = (cpu_seconds() - start) / self.passes as f64;
        self.blocks.push(pass_s);
        pass_s
    }

    /// Run `section`, then a calibration block, and record the section.
    pub fn time<R>(&mut self, section: impl FnOnce() -> R) -> R {
        let start = cpu_seconds();
        let out = section();
        let section_s = cpu_seconds() - start;
        let after = self.block();
        self.ratios.push(section_s / (0.5 * (self.before + after)));
        self.before = after;
        out
    }

    pub fn sections(&self) -> usize {
        self.ratios.len()
    }

    /// What a kernel pass took, block by block: the machine's own speed.
    pub fn kernel_seconds(&self) -> Summary {
        summarize(&self.blocks)
    }

    /// The sections' calibrated seconds: median and quartiles.
    pub fn seconds(&self) -> Summary {
        let seconds: Vec<f64> = self.ratios.iter().map(|r| r * NOMINAL_S).collect();
        summarize(&seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_the_same_work_every_pass() {
        let (first, second) = (Kernel::new(), Kernel::new());
        assert_eq!(first.pass(), first.pass());
        assert_eq!(first.pass(), second.pass());
    }

    #[test]
    fn the_cpu_clock_advances_with_work_and_sections_are_recorded() {
        let mut timer = Calibrated::new(0.004);
        let start = cpu_seconds();
        for _ in 0..3 {
            timer.time(|| Kernel::new().pass());
        }
        assert!(cpu_seconds() > start);
        assert_eq!(timer.sections(), 3);
        let summary = timer.seconds();
        assert!(summary.q1 > 0.0 && summary.q1 <= summary.median && summary.median <= summary.q3);
    }
}
