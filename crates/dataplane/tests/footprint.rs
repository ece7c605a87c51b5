//! What a data plane's flow cache costs in memory, counted instead of
//! timed: an empty cache is an index and a tag array (24 KiB), resident
//! bytes follow resident flows rather than the 4 096 logical slots, and a
//! generation bump hands the dropped entries' buffers to the flows that
//! come back. What deploying a router costs before its first route: no
//! more than before LPM tables had a length filter. And what a batch
//! costs with the cache and tracing off: no allocation at all, however
//! many tables it reads through its pin.
//!
//! Its own test binary because it installs a byte-counting global
//! allocator; one `#[test]` so nothing else allocates while it counts.

use netdebug_dataplane::{Dataplane, NullSink, Verdict};
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls, bytes requested and bytes released, all cumulative.
static CALLS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static RELEASED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        RELEASED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `p` came from `System.alloc` with this layout.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        RELEASED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KIB: u64 = 1024;

fn live() -> u64 {
    REQUESTED.load(Ordering::Relaxed) - RELEASED.load(Ordering::Relaxed)
}

/// `(allocation calls, bytes requested)` made by `body`.
fn cost_of(body: impl FnOnce()) -> (u64, u64) {
    let before = (
        CALLS.load(Ordering::Relaxed),
        REQUESTED.load(Ordering::Relaxed),
    );
    body();
    (
        CALLS.load(Ordering::Relaxed) - before.0,
        REQUESTED.load(Ordering::Relaxed) - before.1,
    )
}

/// A routable frame of flow `i` (10.0.x.y falls under the 10/8 route).
fn frame(i: u32) -> Vec<u8> {
    PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(
        Ipv4Address::new(10, 0, 0, 1),
        Ipv4Address::new(10, 0, (i >> 8) as u8, i as u8),
    )
    .ttl(64)
    .udp(1000, 2000)
    .payload(b"payload")
    .build()
}

fn router() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    for i in 0..64u32 {
        dp.install_lpm(
            "ipv4_lpm",
            0x0A00_0000 | u128::from(i) << 16,
            16,
            "ipv4_forward",
            vec![0xAA, u128::from(i % 4)],
        )
        .unwrap();
    }
    dp
}

/// Send every frame twice — the first miss arms the tag filter, the
/// second installs — and check both were routed.
fn install_flows(dp: &mut Dataplane, frames: &[Vec<u8>]) {
    for f in frames {
        for _ in 0..2 {
            let v = dp.process_untraced(0, f, 0);
            assert!(matches!(v, Verdict::Forward { .. }));
        }
    }
}

#[test]
fn resident_memory_follows_resident_flows() {
    // An empty cache: what switching it off gives back, and what a clone
    // pays for its own.
    let mut dp = router();
    assert!(dp.flow_cache_enabled());
    assert_eq!(dp.cache_stats().capacity, 4096);
    let (_, clone_with) = cost_of(|| drop(dp.clone()));
    let with = live();
    dp.set_flow_cache(false);
    let empty_cache = with - live();
    let (_, clone_without) = cost_of(|| drop(dp.clone()));
    assert!(
        empty_cache <= 64 * KIB,
        "an empty flow cache holds {empty_cache} bytes"
    );
    assert!(
        clone_with - clone_without <= 64 * KIB,
        "a clone allocates {} bytes for its empty flow cache",
        clone_with - clone_without
    );
    dp.set_flow_cache(true);
    assert_eq!(dp.cache_stats().capacity, 4096);

    // Resident bytes grow with the flows installed, not with the slots:
    // under 1 KiB a flow (entry, key, header, replay lists, and the
    // arena's doubling) at 64 flows and at 512.
    install_flows(&mut dp, &[frame(0xFFFF)]);
    for (first, n) in [(0u32, 64u32), (1000, 512)] {
        let frames: Vec<Vec<u8>> = (first..first + n).map(frame).collect();
        let before = (live(), dp.cache_stats().occupancy);
        install_flows(&mut dp, &frames);
        let grew = live() - before.0;
        let installed = (dp.cache_stats().occupancy - before.1) as u64;
        // (Direct-mapped: flows that share a slot evict each other.)
        assert!(installed >= u64::from(n) / 2, "{installed} of {n} resident");
        assert!(
            grew <= u64::from(n) * KIB,
            "{n} flows grew the heap by {grew} bytes"
        );
    }

    // Invalidation keeps the buffers: sixteen rounds of {generation bump,
    // the same 64 flows again}, and only the first round allocates. No
    // round allocates an output frame: each is dropped before the next
    // packet runs, and the next one reuses its buffer.
    let mut dp = router();
    let frames: Vec<Vec<u8>> = (0..64).map(frame).collect();
    let warm_up = frame(0xFFFF);
    let mut rounds = Vec::new();
    for round in 0..16u32 {
        dp.install_lpm(
            "ipv4_lpm",
            0x0B00_0000 | u128::from(round),
            32,
            "ipv4_forward",
            vec![0xBB, 1],
        )
        .unwrap();
        // The first packet after a publication drops the cache's entries.
        dp.process_untraced(0, &warm_up, 0);
        let invalidations = dp.cache_stats().invalidations;
        let (calls, _) = cost_of(|| install_flows(&mut dp, &frames));
        assert_eq!(dp.cache_stats().invalidations, invalidations);
        assert_eq!(dp.cache_stats().occupancy, 64);
        rounds.push(calls);
    }
    assert_eq!(dp.cache_stats().invalidations, 15);
    assert!(
        rounds[0] >= frames.len() as u64,
        "round 0 builds the entries"
    );
    assert_eq!(
        rounds[1..],
        [0; 15],
        "a refill after a generation bump allocated"
    );

    // Deploying the router, its LPM table still empty, allocates no more
    // than before LPM tables had a length filter (56 938 bytes in 78
    // calls on a 64-bit target): an empty LPM index holds no maps, no
    // filter and no counts, and stays two words inside its snapshot. A
    // filter allocated up front would add 4 KiB per LPM table.
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let (calls, bytes) = cost_of(|| drop(Dataplane::new(ir)));
    if cfg!(target_pointer_width = "64") {
        assert!(
            calls <= 78 && bytes <= 56_938,
            "deploying ipv4_forward: {calls} calls, {bytes} bytes"
        );
    }

    // A batch over twelve tables, tracing and the flow cache off, into a
    // sink that drops every frame: after a warm-up batch (the egress
    // buffer, the scratch environment), a batch allocates nothing.
    let ir = netdebug_p4::compile(corpus::FEATURE_MANY_TABLES).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_exact("t3", vec![7], "NoAction", vec![]).unwrap();
    dp.set_tracing(false);
    dp.set_flow_cache(false);
    let frames: Vec<[u8; 1]> = (0..64u8).map(|i| [i]).collect();
    let batch: Vec<(u16, &[u8])> = frames.iter().map(|f| (0, &f[..])).collect();
    dp.process_batch_with(&batch, 0, &mut NullSink);
    let (calls, _) = cost_of(|| {
        for _ in 0..8 {
            dp.process_batch_with(&batch, 0, &mut NullSink);
        }
    });
    assert_eq!(calls, 0, "eight batches over twelve tables allocated");
}
