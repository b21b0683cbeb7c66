//! Heap allocations of the lazy scans, bounded or not: a list with no
//! materialized ladder run (fewer than 16 tail entries) iterates with
//! none, and any other list allocates at most once per iterator. Counted by a global
//! allocator that counts only on threads that asked it to.

use snb_core::time::SimTime;
use snb_core::update::UpdateOp;
use snb_core::PersonId;
use snb_store::{PinnedSnapshot, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;

struct Counting;

thread_local! {
    /// `Some(n)`: this thread is counting, `n` allocations so far.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(Some(0)));
    f();
    ALLOCS.with(|a| a.replace(None)).unwrap()
}

/// Allocations of each of the four scans of `p`, each drained to the end;
/// the bounded one keeps the forums joined after `after`.
fn scan_allocs(snap: &PinnedSnapshot<'_>, p: PersonId, after: SimTime) -> [u64; 4] {
    [
        allocs_in(|| {
            black_box(snap.friends_iter(p).count());
        }),
        allocs_in(|| {
            black_box(snap.messages_of_iter(p).count());
        }),
        allocs_in(|| {
            black_box(snap.recent_messages_walk(p, SimTime(i64::MAX)).count());
        }),
        allocs_in(|| {
            black_box(snap.forums_of_after_iter(p, after).count());
        }),
    ]
}

fn dataset() -> snb_datagen::Dataset {
    snb_datagen::generate(snb_datagen::GeneratorConfig::with_persons(200).activity(0.5)).unwrap()
}

/// A bound inside the bulk span, so the bounded scan seeks into it.
fn mid_bulk(ds: &snb_datagen::Dataset) -> SimTime {
    SimTime(SimTime::SIM_START.0 + (ds.config.update_split.0 - SimTime::SIM_START.0) / 2)
}

#[test]
fn scans_of_a_bulk_only_store_never_allocate() {
    let ds = dataset();
    let store = Store::new();
    store.bulk_load(&ds);
    let snap = store.pinned();
    for i in 0..snap.person_slots() as u64 {
        assert_eq!(scan_allocs(&snap, PersonId(i), mid_bulk(&ds)), [0; 4], "person {i}");
    }
}

#[test]
fn scans_allocate_only_for_a_ladder_run_and_then_once() {
    let ds = dataset();
    let store = Store::new();
    store.bulk_load(&ds);
    // Tail lengths of each person's friends, messages and forums lists.
    let (mut knows, mut messages, mut forums) =
        (HashMap::<u64, usize>::new(), HashMap::<u64, usize>::new(), HashMap::<u64, usize>::new());
    for u in ds.update_stream() {
        store.apply(&u.op).unwrap();
        match &u.op {
            UpdateOp::AddFriendship(k) => {
                *knows.entry(k.a.raw()).or_default() += 1;
                *knows.entry(k.b.raw()).or_default() += 1;
            }
            UpdateOp::AddPost(p) => *messages.entry(p.author.raw()).or_default() += 1,
            UpdateOp::AddComment(c) => *messages.entry(c.author.raw()).or_default() += 1,
            UpdateOp::AddMembership(m) => *forums.entry(m.person.raw()).or_default() += 1,
            _ => {}
        }
    }
    let snap = store.pinned();
    let (mut short_tails, mut long_tails) = (0, 0);
    for i in 0..snap.person_slots() as u64 {
        let allocs = scan_allocs(&snap, PersonId(i), mid_bulk(&ds));
        let tails = [&knows, &messages, &messages, &forums].map(|t| *t.get(&i).unwrap_or(&0));
        for (allocs, tail) in allocs.into_iter().zip(tails) {
            if tail < 16 {
                assert_eq!(allocs, 0, "person {i}: a tail of {tail} has no ladder run");
                short_tails += usize::from(tail > 0);
            } else {
                assert!(allocs <= 1, "person {i}: {allocs} allocations for a tail of {tail}");
                long_tails += 1;
            }
        }
    }
    assert!(short_tails > 0 && long_tails > 0, "{short_tails} short tails, {long_tails} long");
}
