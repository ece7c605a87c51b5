//! What a publication costs, counted instead of timed: an unpinned
//! snapshot is edited in place (same `Arc`, a constant number of
//! allocations per install however many entries are resident), a pinned
//! one is copied exactly once, by reference count rather than by value —
//! on an exact table (one hash map) and on a four-key ternary one (a
//! tuple-space group per mask tuple, which stores no key). On a live data
//! plane a batch holds its pins only while it runs: a publication between
//! batches edits in place, one from inside a batch copies once and leaves
//! the rest of the batch on its epoch.
//!
//! Its own test binary because it installs a counting global allocator;
//! one `#[test]` so nothing else allocates while it counts.

use netdebug_dataplane::{
    ControlPlane, Dataplane, LazyTrace, RuntimeEntry, TableState, TraceSink, Verdict,
};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::corpus;
use netdebug_p4::ir::{ActionCall, ActionIr, IrExpr, IrPattern, TableIr, TableKey};
use netdebug_packet::{EthernetAddress, PacketBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System.alloc` with this layout.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn exact_table(size: u64) -> (TableIr, Vec<ActionIr>) {
    table(&[MatchKind::Exact], size)
}

fn table(kinds: &[MatchKind], size: u64) -> (TableIr, Vec<ActionIr>) {
    let actions = vec![ActionIr {
        name: "fwd".into(),
        control: "I".into(),
        params: vec![("port".into(), 9)],
        ops: vec![],
    }];
    let table = TableIr {
        name: "t".into(),
        control: "I".into(),
        keys: kinds
            .iter()
            .map(|&kind| TableKey {
                expr: IrExpr::konst(0, 48),
                kind,
                width: 48,
            })
            .collect(),
        actions: vec![0],
        default_action: ActionCall {
            action: 0,
            args: vec![0],
        },
        size,
        const_entries: vec![],
    };
    (table, actions)
}

fn entry(key: u128) -> RuntimeEntry {
    RuntimeEntry {
        patterns: vec![IrPattern::Value(key)],
        action: ActionCall {
            action: 0,
            args: vec![key % 8],
        },
        priority: 0,
    }
}

/// Ternary rule `i` of a four-key table: one of eight mask tuples, dealt
/// round-robin, at its own priority.
fn rule(i: u128) -> RuntimeEntry {
    let masked = |value: u128, wild: bool| match wild {
        true => IrPattern::Any,
        false => IrPattern::Mask {
            value,
            mask: 0xFFFF_FF00,
        },
    };
    RuntimeEntry {
        patterns: vec![
            masked(i << 8, i & 1 != 0),
            masked(i << 12, i & 2 != 0),
            IrPattern::Value(i % 3),
            masked(i << 9, i & 4 != 0),
        ],
        action: ActionCall {
            action: 0,
            args: vec![i % 8],
        },
        priority: i as i32,
    }
}

/// Allocations of `fresh` unpinned installs into, then removals from, a
/// ternary table of `resident` rules over eight mask tuples — taken
/// after one untimed round of the same installs and removals, so the
/// list and the groups sit at their steady capacity.
fn ternary_churn_allocs(resident: u128, fresh: u128) -> (u64, u64) {
    let (t, a) = table(&[MatchKind::Ternary; 4], 1 << 16);
    let s = TableState::new(&t);
    (0..resident).for_each(|i| {
        s.install(&t, &a, rule(i)).unwrap();
    });
    let home = Arc::as_ptr(&s.snapshot());
    let churn = || {
        // The rules are built outside the count: what remains is what
        // the table itself allocates.
        let rules: Vec<RuntimeEntry> = (resident..resident + fresh).map(rule).collect();
        let installs = allocs_in(|| {
            for rule in rules.clone() {
                s.install(&t, &a, rule).unwrap();
            }
        });
        // Cloning `fresh` rules: the list, and a pattern and an
        // argument list each.
        let installs = installs - (1 + 2 * fresh as u64);
        let removes = allocs_in(|| {
            for rule in &rules {
                s.remove(&rule.patterns, rule.priority).unwrap();
            }
        });
        (installs, removes)
    };
    churn();
    let counted = churn();
    assert_eq!(Arc::as_ptr(&s.snapshot()), home, "edited in place");
    assert_eq!(s.len() as u128, resident);
    counted
}

/// Allocations made by `body`.
fn allocs_in(body: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    body();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The first `dmac` key of the data-plane cases.
const MAC: u128 = 0x0200_0000_0000;
/// Resident `dmac` entries in the data-plane cases.
const SWITCHED: u128 = 2048;

/// `l2_switch` with [`SWITCHED`] resident `dmac` entries `MAC + i → port
/// i % 4`.
fn switch() -> Dataplane {
    let mut dp = Dataplane::new(netdebug_p4::compile(corpus::L2_SWITCH).unwrap());
    for i in 0..SWITCHED {
        dp.install_exact("dmac", vec![MAC + i], "forward", vec![i % 4])
            .unwrap();
    }
    dp
}

/// A frame to `dmac` key `mac`.
fn frame_to(mac: u128) -> Vec<u8> {
    let b = mac.to_be_bytes();
    PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(b[10], b[11], b[12], b[13], b[14], b[15]),
    )
    .payload(b"x")
    .build()
}

/// Allocations of one churn window's publications through `cp`: four
/// installs of keys past the resident ones, then their four removals.
fn window_churn_allocs(cp: &ControlPlane) -> u64 {
    allocs_in(|| {
        for key in MAC + SWITCHED..MAC + SWITCHED + 4 {
            cp.install_exact("dmac", vec![key], "forward", vec![1])
                .unwrap();
        }
        for key in MAC + SWITCHED..MAC + SWITCHED + 4 {
            cp.remove("dmac", &[IrPattern::Value(key)], 0)
                .unwrap()
                .unwrap();
        }
    })
}

/// A batch's sink that, after packet `at`, installs `MAC + SWITCHED →
/// port 3` and then `MAC + SWITCHED + 1 → port 3` through a detached
/// handle, counting each publication's allocations, and keeps every
/// verdict.
struct PublishingSink {
    cp: ControlPlane,
    at: usize,
    allocs: Vec<u64>,
    verdicts: Vec<Verdict>,
}

impl TraceSink for PublishingSink {
    fn observe(&mut self, index: usize, verdict: Verdict, _: &LazyTrace<'_>) {
        self.verdicts.push(verdict);
        if index == self.at {
            for key in [MAC + SWITCHED, MAC + SWITCHED + 1] {
                let cp = &self.cp;
                let allocs = allocs_in(|| {
                    cp.install_exact("dmac", vec![key], "forward", vec![3])
                        .unwrap();
                });
                self.allocs.push(allocs);
            }
        }
    }
}

/// Between batches a live data plane pins nothing: a window's
/// publications through a detached handle allocate what they do on a
/// data plane that never ran a batch, whose tables nobody ever pinned.
fn between_batch_publications_edit_in_place() {
    let frames: Vec<Vec<u8>> = (0..8).map(|i| frame_to(MAC + i)).collect();
    let pkts: Vec<(u16, &[u8])> = frames.iter().map(|f| (0, f.as_slice())).collect();
    let mut live = switch();
    live.process_batch(&pkts, 0);
    let idle = switch();
    let (live_cp, idle_cp) = (live.control_plane(), idle.control_plane());
    let unpinned = window_churn_allocs(&idle_cp);
    let between = window_churn_allocs(&live_cp);
    assert!(
        between <= unpinned,
        "a window's publications after a batch allocated {between}, unpinned {unpinned}: \
         the batch still pins its snapshot"
    );
    assert_eq!(live_cp.epochs(), idle_cp.epochs());
}

/// A publication from inside a batch copies the pinned snapshot once;
/// the rest of the batch reads its pinned epoch, and the next batch sees
/// the new entry.
fn a_mid_batch_publication_copies_once() {
    const AT: usize = 2;
    let frames: Vec<Vec<u8>> = (0..8).map(|i| frame_to(MAC + SWITCHED + i % 2)).collect();
    let pkts: Vec<(u16, &[u8])> = frames.iter().map(|f| (0, f.as_slice())).collect();
    let mut dp = switch();
    let mut sink = PublishingSink {
        cp: dp.control_plane(),
        at: AT,
        allocs: vec![],
        verdicts: vec![],
    };
    dp.process_batch_with(&pkts, 0, &mut sink);

    // The same two installs on a table nobody pins.
    let idle = switch().control_plane();
    let unpinned: Vec<u64> = [MAC + SWITCHED, MAC + SWITCHED + 1]
        .map(|key| {
            allocs_in(|| {
                idle.install_exact("dmac", vec![key], "forward", vec![3])
                    .unwrap();
            })
        })
        .into();
    assert!(
        sink.allocs[0] > unpinned[0],
        "the first mid-batch publication allocated {} against {} unpinned: \
         it edited the batch's pinned snapshot",
        sink.allocs[0],
        unpinned[0]
    );
    assert!(
        sink.allocs[1] <= unpinned[1],
        "the second mid-batch publication allocated {} against {} unpinned: \
         it copied again",
        sink.allocs[1],
        unpinned[1]
    );

    // Every packet of the batch, before and after the publications, on
    // the pinned epoch: verdicts equal to a run without them.
    let unpublished = switch().process_batch(&pkts, 0);
    assert_eq!(sink.verdicts.len(), pkts.len());
    for (i, (published, (alone, _))) in sink.verdicts.iter().zip(&unpublished).enumerate() {
        assert_eq!(published, alone, "packet {i} left its batch's epoch");
        assert!(matches!(published, Verdict::Flood { .. }));
    }
    // The next batch reads the new entries.
    for (verdict, _) in dp.process_batch(&pkts, 1) {
        assert!(matches!(verdict, Verdict::Forward { port: 3, .. }));
    }
}

#[test]
fn publication_costs_the_change_not_the_table() {
    const RESIDENT: u128 = 4096;
    const INSTALLS: u128 = 1000;
    let (t, a) = exact_table(1 << 16);
    let s = TableState::new(&t);
    for key in 0..RESIDENT {
        s.install(&t, &a, entry(key)).unwrap();
    }
    // `snapshot()` pins, but only for the length of the statement.
    let at = |s: &TableState| Arc::as_ptr(&s.snapshot());

    // Unpinned: in place. Each install allocates its own entry (pattern
    // list, argument list, the shared cell) and nothing that scales with
    // the 4 096 resident ones; the slack covers the list and the hash
    // table doubling once each on the way to 5 096.
    let home = at(&s);
    let unpinned = allocs_in(|| {
        for key in RESIDENT..RESIDENT + INSTALLS {
            s.install(&t, &a, entry(key)).unwrap();
        }
    });
    assert_eq!(at(&s), home, "an unpinned publication moved the snapshot");
    assert_eq!(s.epoch(), (RESIDENT + INSTALLS) as u64);
    assert!(
        unpinned <= 3 * INSTALLS as u64 + 8,
        "{unpinned} allocations for {INSTALLS} unpinned installs"
    );
    // Removal, unpinned: also in place, and allocation-free.
    let removing = allocs_in(|| {
        for key in RESIDENT..RESIDENT + 8 {
            s.remove(&[IrPattern::Value(key)], 0).unwrap();
        }
    });
    assert_eq!(at(&s), home);
    assert_eq!(removing, 0, "an unpinned removal allocated");

    // Pinned: the first publication copies — the list and the hash
    // table, two allocations, not two per resident entry — and the ones
    // after it are in place again, on the copy.
    let pin = s.snapshot();
    let resident = pin.len();
    let first = allocs_in(|| {
        s.install(&t, &a, entry(1 << 20)).unwrap();
    });
    let copy = at(&s);
    assert_eq!(Arc::as_ptr(&pin), home, "the pin keeps the original");
    assert_ne!(copy, home, "a pinned publication edited the pin");
    assert!(
        first <= 3 + 4,
        "{first} allocations to copy {resident} entries"
    );
    let rest = allocs_in(|| {
        for key in 1..10 {
            s.install(&t, &a, entry((1 << 20) + key)).unwrap();
        }
    });
    assert_eq!(at(&s), copy, "exactly one copy per pin");
    assert!(
        rest <= 3 * 9 + 4,
        "{rest} allocations for 9 installs after the copy"
    );
    // The pin reads its epoch, bit for bit; the copy shares its entries.
    assert_eq!(pin.len(), resident);
    assert_eq!(pin.epoch() + 10, s.epoch());
    assert!(pin.lookup(&[1 << 20]).is_none());
    assert!(std::ptr::eq(
        pin.lookup(&[7]).unwrap(),
        s.snapshot().lookup(&[7]).unwrap()
    ));

    // A ternary table: the same constant at 4 096 resident rules as at
    // 16, and that constant is the entry's own shared cell — a group
    // stores no key, an install or a removal builds none to find its
    // group or its bucket, and a removal allocates nothing at all.
    const FRESH: u128 = 64;
    for resident in [16, 4096] {
        let (installs, removes) = ternary_churn_allocs(resident, FRESH);
        assert_eq!(
            installs, FRESH as u64,
            "{FRESH} ternary installs into {resident} resident rules"
        );
        assert_eq!(
            removes, 0,
            "a ternary removal from {resident} resident rules allocated"
        );
    }

    // Pinned: one copy — the snapshot's cell, the list (which then grows
    // for the new rule), the group list and one bucket array per group —
    // and in place again after it.
    let (t, a) = table(&[MatchKind::Ternary; 4], 1 << 16);
    let s = TableState::new(&t);
    (0..4096).for_each(|i| {
        s.install(&t, &a, rule(i)).unwrap();
    });
    let pin = s.snapshot();
    let first = allocs_in(|| {
        s.install(&t, &a, rule(5000)).unwrap();
    });
    assert!(
        first <= 3 + 4 + 8,
        "{first} allocations to copy 4096 rules in 8 groups"
    );
    let rest = allocs_in(|| {
        for i in 5001..5010 {
            s.install(&t, &a, rule(i)).unwrap();
        }
    });
    assert_eq!(rest, 3 * 9, "9 installs after the copy");
    assert_eq!(pin.len(), 4096);
    let keys = [5000 << 8, 5000 << 12, 5000 % 3, 5000 << 9];
    assert!(pin.lookup(&keys).unwrap().priority < 4096);
    assert_eq!(s.lookup(&keys).unwrap().priority, 5000);

    between_batch_publications_edit_in_place();
    a_mid_batch_publication_copies_once();
}
