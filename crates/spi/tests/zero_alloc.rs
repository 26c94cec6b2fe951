//! Steady-state allocation profile of the pointer-exchange path
//! (§5.2): once the pool and rings exist, moving a message end-to-end —
//! frame in place, exchange the slot descriptor, decode borrowed —
//! must touch the global allocator exactly zero times per message.
//!
//! The counting allocator counts only the allocations of a thread that
//! has armed it, so the test harness's own threads (libtest's main
//! thread allocates while it starts waiting on the test) cannot pollute
//! the measurement window. The file still holds a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use spi::{decode_static_borrowed, encode_static_into, static_frame_bytes, STATIC_HEADER_BYTES};
use spi_dataflow::EdgeId;
use spi_platform::{PointerTransport, RingTransport, Token, Transport};

/// Counts allocation calls made on armed threads; frees are uncounted
/// (a steady state that allocates nothing frees nothing).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread is inside a measuring window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts allocations on the calling thread from now on.
fn arm() {
    ARMED.with(|a| a.set(true));
}

// The platform crate denies unsafe except in its two vetted modules;
// this test binary needs it only to delegate to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAYLOAD: usize = 1024;
const EDGE: EdgeId = EdgeId(0);
const T: Duration = Duration::from_secs(5);

/// One message over the `send_in_place` path: frame straight into the
/// pool slot, receive the lease, decode a borrowed view, drop (= slot
/// release).
fn roundtrip_in_place(t: &PointerTransport, payload: &[u8]) {
    t.send_in_place(
        static_frame_bytes(PAYLOAD),
        &mut |buf| encode_static_into(EDGE, payload, buf).expect("frame fits slot"),
        T,
    )
    .expect("send");
    let token = t.recv_token(T).expect("recv");
    assert!(token.is_pooled());
    let view = decode_static_borrowed(&token, EDGE, PAYLOAD).expect("decode");
    assert_eq!(view[0], payload[0]);
    assert_eq!(view.len(), PAYLOAD);
}

/// One message over the explicit-lease path: acquire a slot, frame into
/// it, hand ownership to the ring.
fn roundtrip_lease(t: &PointerTransport, payload: &[u8]) {
    let mut lease = t.buffer_pool().try_acquire().expect("pool has free slots");
    let n = encode_static_into(EDGE, payload, &mut lease).expect("frame fits slot");
    lease.truncate(n);
    t.send_token(Token::from(lease), T).expect("send");
    let token = t.recv_token(T).expect("recv");
    let view = decode_static_borrowed(&token, EDGE, PAYLOAD).expect("decode");
    assert_eq!(view.len(), PAYLOAD);
}

#[test]
fn pointer_path_steady_state_allocates_nothing() {
    let frame = static_frame_bytes(PAYLOAD);
    let t = PointerTransport::new(8 * frame, frame);
    let payload = vec![0xA5u8; PAYLOAD];

    // Warm up: first touches may fault in lazy state (the pool itself
    // is eagerly allocated, but the test harness is not).
    for _ in 0..32 {
        roundtrip_in_place(&t, &payload);
        roundtrip_lease(&t, &payload);
    }

    arm();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..4096 {
        roundtrip_in_place(&t, &payload);
        roundtrip_lease(&t, &payload);
    }
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "pointer exchange must be allocation-free in steady state \
         (observed {delta} allocations over 8192 messages)"
    );

    // Canary: the counter is live. The copying ring allocates a fresh
    // heap buffer per received message, so the same traffic over a
    // RingTransport must register.
    let ring = RingTransport::new(8 * frame, frame);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..32 {
        ring.send(&payload[..STATIC_HEADER_BYTES], T).expect("send");
        let msg = ring.recv(T).expect("recv");
        assert_eq!(msg.len(), STATIC_HEADER_BYTES);
    }
    assert!(
        ALLOCS.load(Ordering::SeqCst) > before,
        "counting allocator failed to observe the copying path"
    );
}
