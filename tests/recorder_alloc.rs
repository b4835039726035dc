//! Allocation guard for the flight recorder's hot path.
//!
//! A counting global allocator tallies the heap allocations made on the
//! test thread. Once the recorder is warm (span paths interned, buffers
//! grown), opening and closing nested spans, capturing a span handle and
//! reopening it with `span_under`, and recording fewer than
//! `FLUSH_EVERY` fixed-size events must not allocate; neither may the
//! flush that encodes them into the ring. Under `metrics-off` every one of
//! these is a no-op and the guard holds trivially.
//!
//! One test per binary: the journal and the allocator count are process
//! state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gist_obs::journal::FLUSH_EVERY;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without a
    /// destructor, so reading it from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `System`'s guarantees carry over; counting touches only a
// `const` thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Repeats of [`work`] per measured window.
const REPEATS: u64 = 4;
/// Events one [`work`] call records: three spans (two events each) and
/// ten fixed-size events.
const EVENTS_PER_WORK: u64 = 3 * 2 + 10;

/// Nested spans, a handle reopened by `span_under` on an empty local
/// stack (the fleet-worker case), and fixed-size events.
fn work() {
    let handle = {
        let _outer = gist_obs::span("alloc_guard.outer");
        let _inner = gist_obs::span("alloc_guard.inner");
        gist_obs::event!(RunStarted { run: 1, seed: 2 });
        gist_obs::current_span_handle()
    };
    let _worker = gist_obs::span_under(&handle, "alloc_guard.worker");
    gist_obs::event!(WatchArmed {
        addr: 0x10,
        slot: 1
    });
    for run in 0..8 {
        gist_obs::event!(RunFinished {
            run,
            failing: false,
            retired: 100,
            hits: 0,
        });
    }
}

fn window() -> u64 {
    let before = allocations();
    for _ in 0..REPEATS {
        work();
    }
    allocations() - before
}

#[test]
fn warm_recorder_records_spans_and_fixed_size_events_without_allocating() {
    assert!(2 * REPEATS * EVENTS_PER_WORK < FLUSH_EVERY as u64);
    // Warm-up: intern the span paths, grow the thread's buffers and the
    // ring past one window's size (two windows in one flush: later seqs
    // encode to longer varints), then empty the ring.
    window();
    window();
    gist_obs::journal::flush_local();
    let _ = gist_obs::journal::drain_binary();

    assert_eq!(window(), 0, "spans and fixed-size events allocated");
    let before = allocations();
    gist_obs::journal::flush_local();
    assert_eq!(allocations() - before, 0, "a warm flush allocated");

    let events = gist_obs::journal::drain();
    let timers = gist_obs::snapshot().timers;
    if cfg!(feature = "metrics-off") {
        assert!(events.is_empty() && timers.is_empty());
        return;
    }
    assert_eq!(events.len() as u64, REPEATS * EVENTS_PER_WORK);
    for path in [
        "alloc_guard.outer",
        "alloc_guard.outer/alloc_guard.inner",
        "alloc_guard.outer/alloc_guard.inner/alloc_guard.worker",
    ] {
        assert_eq!(timers[path].count, 3 * REPEATS, "{path}");
    }
}
