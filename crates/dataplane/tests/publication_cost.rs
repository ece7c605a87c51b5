//! What a publication costs, counted instead of timed: an unpinned
//! snapshot is edited in place (same `Arc`, a constant number of
//! allocations per install however many entries are resident), a pinned
//! one is copied exactly once, by reference count rather than by value —
//! on an exact table (one hash map) and on a four-key ternary one (a
//! tuple-space group per mask tuple, which stores no key).
//!
//! Its own test binary because it installs a counting global allocator;
//! one `#[test]` so nothing else allocates while it counts.

use netdebug_dataplane::{RuntimeEntry, TableState};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::ir::{ActionCall, ActionIr, IrExpr, IrPattern, TableIr, TableKey};
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
}
