//! Steady-state allocation profile of a built SPI system: a 2-actor
//! `src → sink` graph on two PEs, lowered by `SpiSystemBuilder` and run
//! on `ThreadedRunner`. The lowered message path (framing, edge
//! queues, staged sends, UBS acks, runner receives) reuses per-PE
//! buffers, so what is left per iteration is the source actor's own
//! output `Vec` (1 allocation; the bound leaves room for park-path
//! noise under contention).
//!
//! Allocations per iteration are the slope between a short and a long
//! run, which cancels the fixed cost of building channels and spawning
//! PE threads.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spi::{Firing, SpiSystemBuilder};
use spi_dataflow::SdfGraph;
use spi_platform::{ThreadedRunner, TransportKind};
use spi_sched::ProcId;

/// Counts allocation calls; frees are uncounted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Upper bound on allocations per steady-state iteration.
const MAX_ALLOCS_PER_ITER: f64 = 6.0;

const SHORT: u64 = 2_000;
const LONG: u64 = 22_000;

/// Builds the system (uncounted), then counts the allocations of one
/// threaded run of `iterations` and checks every token arrived in order.
fn allocations(kind: TransportKind, token_bytes: usize, iterations: u64) -> u64 {
    let mut g = SdfGraph::new();
    let src = g.add_actor("src", 10);
    let sink = g.add_actor("sink", 10);
    let e = g
        .add_edge(src, sink, 1, 1, 0, token_bytes as u32)
        .expect("edge");
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(src, move |f: &mut Firing| {
        let mut token = vec![0u8; token_bytes];
        token[..8].copy_from_slice(&f.iter.to_le_bytes());
        f.set_output(e, token);
        10
    });
    let received = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&received);
    builder.actor(sink, move |f: &mut Firing| {
        let token = f.input(e);
        assert_eq!(token.len(), token_bytes);
        assert_eq!(token[..8], f.iter.to_le_bytes(), "token out of order");
        seen.fetch_add(1, Ordering::Relaxed);
        10
    });
    builder.iterations(iterations);
    let system = builder.build(2, |a| ProcId(a.0)).expect("system builds");
    let runner = ThreadedRunner::new().transport(kind);

    let before = ALLOCS.load(Ordering::SeqCst);
    system.run_threaded_with(&runner).expect("run completes");
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(received.load(Ordering::Relaxed), iterations);
    delta
}

#[test]
fn lowered_message_path_allocations_per_iteration() {
    let cases = [
        (TransportKind::Ring, 8),
        (TransportKind::Pointer, 2048),
        (TransportKind::Ring, 2048),
    ];
    for (kind, bytes) in cases {
        let short = allocations(kind, bytes, SHORT);
        let long = allocations(kind, bytes, LONG);
        let per_iter = long.saturating_sub(short) as f64 / (LONG - SHORT) as f64;
        assert!(
            per_iter <= MAX_ALLOCS_PER_ITER,
            "{kind:?} with {bytes} B tokens: {per_iter:.2} allocations per iteration \
             (bound {MAX_ALLOCS_PER_ITER}; {short} over {SHORT} iterations, \
             {long} over {LONG})"
        );
        println!("{kind:?} {bytes} B: {per_iter:.2} allocations per iteration");
    }
}
