//! What a session stream costs in memory, counted instead of timed: the
//! session generates and drives one `NetDebug::STREAM_WINDOW` of frames at
//! a time, so a stream's peak live heap is one window whatever its length.
//! A stream built whole before its first frame is injected holds 104 bytes
//! a frame (a 40-byte handle and a 64-byte slot): 26 MiB here.
//!
//! Its own test binary because it installs a byte-counting global
//! allocator; one `#[test]` so nothing else allocates while it counts.

use netdebug::generator::{Expectation, StreamSpec};
use netdebug::session::NetDebug;
use netdebug_hw::Backend;
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, PacketBuilder, TEST_HEADER_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested and released, cumulative, and the most ever live.
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static RELEASED: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn grow(bytes: usize) {
    let requested = REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(
        requested - RELEASED.load(Ordering::Relaxed),
        Ordering::Relaxed,
    );
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        RELEASED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `p` came from `System.alloc` with this layout.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        RELEASED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: u64 = 1024 * 1024;

fn live() -> u64 {
    REQUESTED.load(Ordering::Relaxed) - RELEASED.load(Ordering::Relaxed)
}

#[test]
fn a_stream_holds_one_window_whatever_its_length() {
    let mut nd = NetDebug::deploy(&Backend::reference(), corpus::REFLECTOR).unwrap();
    // 64-byte frames once the test header is appended.
    let template = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .payload(&[0xC3; 64 - 14 - TEST_HEADER_LEN])
    .build();
    assert_eq!(template.len() + TEST_HEADER_LEN, 64);
    let count = 1024 * NetDebug::STREAM_WINDOW;
    let spec = StreamSpec::simple(1, template, count, Expectation::Any);

    let before = live();
    PEAK.store(before, Ordering::Relaxed);
    nd.run_stream(&spec);
    let added = PEAK.load(Ordering::Relaxed) - before;

    let stats = &nd.checker().streams()[&1];
    assert_eq!(
        (stats.sent, stats.received, stats.lost()),
        (count, count, 0)
    );
    assert!(
        added <= MIB,
        "a {count}-frame stream added {added} bytes of peak live heap"
    );
}
