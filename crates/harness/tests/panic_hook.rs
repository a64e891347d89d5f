//! Regression test: the silent panic hook the cell isolation layer
//! installs must be *removed* when the cell group finishes, restoring
//! whatever hook was there before.
//!
//! The original implementation installed the hook through a
//! `std::sync::Once` and never took it back out. That leaked the swap
//! past the group — and worse: if embedding code replaced the process
//! hook between two groups, the silencer was gone for good (the `Once`
//! had already fired), so in-cell panics in every later group sprayed
//! backtraces through the embedder's hook.
//!
//! Lives in its own integration-test binary on purpose: the process
//! panic hook is global, and unit tests running concurrently with other
//! cell groups would race the swap.

use std::panic;
use std::sync::atomic::{AtomicU32, Ordering};

use isf_harness::runner::{cell, CellResult, Harness};

static HOOK_A: AtomicU32 = AtomicU32::new(0);
static HOOK_B: AtomicU32 = AtomicU32::new(0);

fn probe_panic() {
    let _ = panic::catch_unwind(|| panic!("probe"));
}

#[test]
fn the_cell_hook_is_restored_and_reinstalled_per_group() {
    let original = panic::take_hook();
    panic::set_hook(Box::new(|_| {
        HOOK_A.fetch_add(1, Ordering::SeqCst);
    }));

    // Group 1: an in-cell panic is silenced — caught, classified, and
    // never delegated to the installed hook.
    let h = Harness::default();
    let results = h.par_cells_isolated(vec![
        cell("hook/panics", || -> u64 { panic!("in-cell") }),
        cell("hook/ok", || 7u64),
    ]);
    assert!(matches!(results[0], CellResult::Panicked(_)));
    assert!(matches!(results[1], CellResult::Ok(7)));
    assert_eq!(
        HOOK_A.load(Ordering::SeqCst),
        0,
        "in-cell panics must be silenced, not delegated"
    );

    // The group is over: hook A is the process hook again, so an
    // out-of-cell panic rings it.
    probe_panic();
    assert_eq!(
        HOOK_A.load(Ordering::SeqCst),
        1,
        "the pre-group hook was not restored"
    );

    // Replace the hook between groups — the regression scenario. The
    // next group must still silence its in-cell panics (the silencer is
    // installed per group, not once per process) and must restore hook B
    // afterwards.
    panic::set_hook(Box::new(|_| {
        HOOK_B.fetch_add(1, Ordering::SeqCst);
    }));
    let results = h.par_cells_isolated(vec![cell("hook/panics-again", || -> u64 {
        panic!("in-cell, second group")
    })]);
    assert!(matches!(results[0], CellResult::Panicked(_)));
    assert_eq!(
        HOOK_B.load(Ordering::SeqCst),
        0,
        "a group after a hook swap must still silence in-cell panics"
    );
    probe_panic();
    assert_eq!(HOOK_B.load(Ordering::SeqCst), 1);
    assert_eq!(HOOK_A.load(Ordering::SeqCst), 1, "hook A is long gone");

    panic::set_hook(original);
}
