//! Pins "no allocation per node" with a counting global allocator.
//!
//! The counters are thread-local, so the test harness's other threads
//! never leak into a measurement. Three properties:
//!
//! - `propagate` makes the same number of heap allocations on a 256-
//!   and a 4,096-node case (every buffer is sized up front; the kernel
//!   itself allocates nothing);
//! - one warm `Incremental::set_confidence` allocates the same count
//!   and bytes at both sizes (the dirty spine costs O(spine), with no
//!   O(n) visited array);
//! - `birnbaum_importance` makes at most one allocation per leaf (its
//!   output name) plus a constant.

use depcase_assurance::{birnbaum_importance, propagation, Case, Combination, Incremental, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested by this thread so far.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    let _ = TALLY.try_with(|t| {
        let (n, b) = t.get();
        t.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards unchanged to `System`; counting only
// touches a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` made by `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (n0, b0) = TALLY.with(Cell::get);
    let out = f();
    let (n1, b1) = TALLY.with(Cell::get);
    ((n1 - n0, b1 - b0), out)
}

/// A case of about `nodes` nodes: a fan-out-4 tree in heap layout
/// (node `i` supports `4i + 1 ..= 4i + 4`) whose interior alternates
/// AnyOf strategies and goals and whose bottom level is evidence, plus
/// an assumption on every interior node — so the conjoin runs at every
/// level — and a context node per sixteen interior nodes. Returns the
/// case and its last tree leaf, which sits at the deepest level.
fn tree(nodes: usize) -> (Case, NodeId) {
    let size = nodes * 4 / 5;
    let mut case = Case::new("tree");
    let mut ids = Vec::with_capacity(size);
    for i in 0..size {
        let name = format!("N{i}");
        let id = if 4 * i + 1 < size {
            if i % 2 == 1 {
                case.add_strategy(name, "legs", Combination::AnyOf)
            } else {
                case.add_goal(name, "claim")
            }
        } else {
            case.add_evidence(name, "evidence", 0.5 + (i % 50) as f64 / 100.0)
        };
        ids.push(id.unwrap());
        if i > 0 {
            case.support(ids[(i - 1) / 4], ids[i]).unwrap();
        }
    }
    for i in (0..size).filter(|i| 4 * i + 1 < size) {
        let a = case.add_assumption(format!("A{i}"), "assumed", 0.99).unwrap();
        case.support(ids[i], a).unwrap();
        if i % 16 == 0 {
            case.add_context(format!("C{i}"), "context").unwrap();
        }
    }
    assert!(case.validate().is_ok());
    (case, ids[size - 1])
}

#[test]
fn propagate_allocates_the_same_at_every_size() {
    let (small, _) = tree(256);
    let (large, _) = tree(4096);
    let (a, _) = counted(|| propagation::propagate(&small).unwrap());
    let (b, _) = counted(|| propagation::propagate(&large).unwrap());
    assert_eq!(a.0, b.0, "allocations: 256-node {a:?} vs 4096-node {b:?}");
}

#[test]
fn a_warm_point_edit_allocates_the_same_at_every_size() {
    let edit = |nodes: usize| {
        let (case, leaf) = tree(nodes);
        let mut session = Incremental::new(case).unwrap();
        // The first edit sizes the session's spine scratch.
        session.set_confidence(leaf, 0.25).unwrap();
        let (tally, stats) = counted(|| session.set_confidence(leaf, 0.375).unwrap());
        assert!(stats.nodes_recomputed > 0, "the measured edit runs the kernel");
        tally
    };
    let (a, b) = (edit(256), edit(4096));
    assert_eq!(a, b, "(allocations, bytes): 256-node {a:?} vs 4096-node {b:?}");
}

#[test]
fn importance_allocates_one_name_per_leaf_plus_a_constant() {
    for nodes in [256, 4096] {
        let (case, _) = tree(nodes);
        let ((allocs, _), ranking) = counted(|| birnbaum_importance(&case).unwrap());
        let leaves = ranking.len() as u64;
        assert!(allocs <= leaves + 32, "{nodes} nodes: {allocs} allocations for {leaves} leaves");
    }
}
