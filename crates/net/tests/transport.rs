//! Socket transport semantics: the `NetSender`/`NetReceiver` pair must
//! behave like the in-memory transports — eq. (2)-sized capacity
//! enforced at the sender, `RingTransport`-shaped errors, nonblocking
//! try-ops — and the framing codec must survive arbitrarily fragmented
//! socket I/O.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use spi_net::wire::{read_record, write_record};
use spi_net::{loopback, loopback_with, socket_path, BatchParams, NetReceiver, NetSender};
use spi_platform::{
    decode_frame, encode_frame_into, ChannelSpec, FrameError, Token, Transport, TransportError,
    FRAME_HEADER_BYTES,
};

fn spec(capacity: usize, max_msg: usize) -> ChannelSpec {
    ChannelSpec {
        capacity_bytes: capacity,
        max_message_bytes: max_msg,
        ..ChannelSpec::default()
    }
}

#[test]
fn payloads_cross_the_socket_byte_accurately() {
    let (tx, rx) = loopback(&spec(4096, 512)).expect("loopback");
    for i in 0..64u32 {
        let msg: Vec<u8> = (0..((i % 37) + 1)).map(|b| (b ^ i) as u8).collect();
        tx.send(&msg, Duration::from_secs(5)).expect("send");
        let got = rx.recv(Duration::from_secs(5)).expect("recv");
        assert_eq!(got, msg, "message {i} mangled in transit");
    }
}

#[test]
fn sender_side_credit_window_enforces_declared_capacity() {
    // Two 8-byte messages fill the 16-byte window; the third must see
    // Full without the receiver ever draining.
    let (tx, _rx) = loopback(&spec(16, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("first fits");
    tx.try_send(&[2u8; 8]).expect("second fits");
    assert_eq!(tx.try_send(&[3u8; 8]), Err(TransportError::Full));
    assert_eq!(tx.len_bytes(), 16);
    assert_eq!(tx.occupancy(), 2);
}

#[test]
fn credits_return_when_the_receiver_consumes() {
    let (tx, rx) = loopback(&spec(16, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("first fits");
    tx.try_send(&[2u8; 8]).expect("second fits");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [1u8; 8]);
    // The credit ack travels back asynchronously; a blocking send must
    // absorb that latency.
    tx.send(&[3u8; 8], Duration::from_secs(5))
        .expect("send after drain");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [2u8; 8]);
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [3u8; 8]);
}

#[test]
fn oversize_messages_are_rejected_without_consuming_credits() {
    let (tx, _rx) = loopback(&spec(64, 8)).expect("loopback");
    assert_eq!(
        tx.try_send(&[0u8; 9]),
        Err(TransportError::TooLarge { bytes: 9, max: 8 })
    );
    assert_eq!(tx.len_bytes(), 0);
}

#[test]
fn blocked_send_times_out_with_ring_shaped_error() {
    let (tx, _rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("fills the window");
    let timeout = Duration::from_millis(50);
    match tx.send(&[2u8; 8], timeout) {
        Err(TransportError::Timeout { after, idle }) => {
            assert_eq!(after, timeout);
            assert!(idle <= after, "idle {idle:?} cannot exceed after {after:?}");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn empty_receiver_reports_empty_then_times_out() {
    let (_tx, rx) = loopback(&spec(64, 8)).expect("loopback");
    assert_eq!(rx.try_recv().map(|_| ()), Err(TransportError::Empty));
    let timeout = Duration::from_millis(50);
    match rx.recv(timeout) {
        Err(TransportError::Timeout { after, .. }) => assert_eq!(after, timeout),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn an_empty_window_always_admits_one_message() {
    // Mirrors the in-memory transports: a message as large as the whole
    // capacity must pass when the channel is idle.
    let (tx, rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.send(&[7u8; 8], Duration::from_secs(5)).expect("send");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [7u8; 8]);
}

#[test]
fn peer_disconnect_surfaces_as_timeout_not_hang() {
    let (tx, rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("fills the window");
    drop(rx);
    let start = std::time::Instant::now();
    let res = tx.send(&[2u8; 8], Duration::from_secs(30));
    assert!(
        matches!(res, Err(TransportError::Timeout { .. })),
        "expected fast-fail Timeout, got {res:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "closed peer must fail fast, waited {:?}",
        start.elapsed()
    );
}

#[test]
fn wrong_direction_calls_fail_like_a_closed_channel() {
    // Each half answers the other half's calls with the errors a torn
    // socket returns — typed and immediate, never a panic.
    let (tx, rx) = loopback(&spec(64, 8)).expect("loopback");
    let timeout = Duration::from_secs(30);
    let closed = |res: Result<(), TransportError>| {
        assert!(
            matches!(res, Err(TransportError::Timeout { after, idle }) if after == timeout && idle <= after),
            "expected the closed-channel Timeout, got {res:?}"
        );
    };
    let start = Instant::now();
    assert_eq!(tx.try_recv().map(|_| ()), Err(TransportError::Empty));
    assert_eq!(tx.try_recv_token().map(|_| ()), Err(TransportError::Empty));
    closed(tx.recv(timeout).map(|_| ()));
    closed(tx.recv_token(timeout).map(|_| ()));
    closed(tx.recv_with(&mut |_| {}, timeout));
    assert_eq!(rx.try_send(&[1]), Err(TransportError::Full));
    assert_eq!(
        rx.try_send_token(Token::Owned(vec![1])),
        Err(TransportError::Full)
    );
    closed(rx.send(&[1], timeout));
    closed(rx.send_with(1, &mut |buf| buf[0] = 1, timeout));
    closed(rx.send_in_place(1, &mut |_| 1, timeout));
    closed(rx.send_token(Token::Owned(vec![1]), timeout));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "wrong-direction calls must fail fast, took {:?}",
        start.elapsed()
    );
    // Neither half was disturbed: the channel still works forwards.
    tx.send(&[9], timeout).expect("send");
    assert_eq!(rx.recv(timeout).expect("recv"), [9]);
}

#[test]
fn bind_and_connect_establish_across_a_filesystem_socket() {
    let dir = std::env::temp_dir().join(format!("spi-net-t-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = socket_path(&dir, 0);
    let s = spec(1024, 128);
    let rx = NetReceiver::bind(&path, &s).expect("bind");
    let tx = NetSender::connect(&path, &s).expect("connect");
    tx.send(b"over the wall", Duration::from_secs(5))
        .expect("send");
    assert_eq!(
        rx.recv(Duration::from_secs(5)).expect("recv"),
        b"over the wall"
    );
    drop(rx);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Batched path: sender-side coalescing with vectored writes and the
// receiver's cumulative credit acks must preserve every semantic the
// unbatched tests above pin down.
// ---------------------------------------------------------------------

fn batch(max_msgs: usize, flush_after: Duration) -> BatchParams {
    BatchParams {
        max_msgs,
        flush_after,
    }
}

#[test]
fn batched_payloads_arrive_byte_accurate_and_in_order() {
    let (tx, rx) = loopback_with(&spec(4096, 512), batch(8, Duration::from_millis(50)))
        .expect("batched loopback");
    let msgs: Vec<Vec<u8>> = (0..64u32)
        .map(|i| (0..((i % 37) + 1)).map(|b| (b ^ i) as u8).collect())
        .collect();
    for m in &msgs {
        tx.send(m, Duration::from_secs(5)).expect("send");
    }
    for (i, m) in msgs.iter().enumerate() {
        let got = rx.recv(Duration::from_secs(5)).expect("recv");
        assert_eq!(&got, m, "message {i} mangled or reordered by batching");
    }
}

#[test]
fn batched_sender_still_enforces_the_credit_window() {
    // Window holds 8 messages; the batch bound (4) is half the window.
    // Pending-but-unflushed records count against the window, so the
    // ninth send must see Full with no receiver involvement.
    let (tx, _rx) =
        loopback_with(&spec(64, 8), batch(4, Duration::from_secs(5))).expect("batched loopback");
    for i in 0..8u8 {
        tx.try_send(&[i; 8]).expect("window admits eight");
    }
    assert_eq!(tx.try_send(&[9u8; 8]), Err(TransportError::Full));
    assert_eq!(tx.len_bytes(), 64);
    assert_eq!(tx.occupancy(), 8);
}

#[test]
fn deadline_flush_delivers_a_lone_record_without_a_full_batch() {
    // One record in a batch of 8: only the flush deadline (or the
    // receiver's hungry signal) can put it on the wire. try_recv polls
    // without parking, so a prompt arrival proves a sender-side flush.
    let (tx, rx) = loopback_with(&spec(4096, 64), batch(8, Duration::from_millis(20)))
        .expect("batched loopback");
    tx.try_send(b"lone").expect("send");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match rx.try_recv() {
            Ok(got) => {
                assert_eq!(got, b"lone");
                break;
            }
            Err(TransportError::Empty) => {
                assert!(Instant::now() < deadline, "deadline flush never fired");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn hungry_receiver_forces_an_early_flush() {
    // The flush deadline is far beyond the assertion window, so a
    // blocked receiver getting the record quickly proves the HUNGRY
    // ack path: recv parks, signals hunger, the sender drains.
    let (tx, rx) = loopback_with(&spec(4096, 64), batch(8, Duration::from_secs(30)))
        .expect("batched loopback");
    let waiter = std::thread::spawn(move || rx.recv(Duration::from_secs(10)));
    // Let the receiver park (and its hungry signal land) before the
    // send, exercising the sticky-flag path too.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    tx.send(b"eager", Duration::from_secs(5)).expect("send");
    let got = waiter.join().expect("join").expect("recv");
    assert_eq!(got, b"eager");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "delivery waited on the 30s deadline instead of the hungry flush"
    );
}

#[test]
fn explicit_and_final_flushes_drain_pending_records() {
    let (tx, rx) = loopback_with(&spec(4096, 64), batch(8, Duration::from_secs(30)))
        .expect("batched loopback");
    tx.try_send(b"one").expect("send");
    tx.try_send(b"two").expect("send");
    tx.flush_pending().expect("explicit flush");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"one");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"two");
    tx.try_send(b"three").expect("send");
    drop(tx); // Drop's Final flush must not strand the record.
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"three");
}

#[test]
fn coalesced_acks_return_credit_for_sustained_traffic() {
    // Window = 4 messages, batch = 2: the receiver acks cumulatively
    // (every 2 consumptions or at the half-window low-water mark), so
    // several window-refills' worth of blocking sends must all clear.
    let (tx, rx) =
        loopback_with(&spec(32, 8), batch(2, Duration::from_millis(10))).expect("batched loopback");
    let consumer = std::thread::spawn(move || {
        let mut got = Vec::new();
        for _ in 0..24 {
            got.push(rx.recv(Duration::from_secs(10)).expect("recv"));
        }
        (got, rx) // keep the endpoint alive for the drain check below
    });
    for i in 0..24u8 {
        tx.send(&[i; 8], Duration::from_secs(10)).expect("send");
    }
    let (got, rx) = consumer.join().expect("join");
    for (i, m) in got.iter().enumerate() {
        assert_eq!(m, &[i as u8; 8], "message {i}");
    }
    // Every credit returns once the receiver settles on its empty poll
    // (sub-threshold residue rides the hungry ack).
    assert_eq!(rx.try_recv().map(|_| ()), Err(TransportError::Empty));
    let deadline = Instant::now() + Duration::from_secs(5);
    while tx.len_bytes() != 0 {
        assert!(Instant::now() < deadline, "final cumulative ack missing");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tx.occupancy(), 0);
}

#[test]
fn batched_endpoints_interoperate_across_a_filesystem_socket() {
    let dir = std::env::temp_dir().join(format!("spi-net-b-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = socket_path(&dir, 1);
    let s = spec(1024, 128);
    let b = batch(4, Duration::from_millis(10));
    let rx = NetReceiver::bind_with(&path, &s, spi_net::AckPolicy::for_batch(&s, b)).expect("bind");
    let tx = NetSender::connect_with(&path, &s, b).expect("connect");
    for i in 0..16u8 {
        tx.send(&[i; 16], Duration::from_secs(5)).expect("send");
    }
    for i in 0..16u8 {
        assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [i; 16]);
    }
    drop(rx);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Framing resilience: the seq+crc32 supervision frames must survive
// partial reads and short writes on the wire codec.
// ---------------------------------------------------------------------

/// Writer that accepts at most `chunk` bytes per call — models a socket
/// under backpressure returning short writes.
struct ShortWriter {
    out: Vec<u8>,
    chunk: usize,
}

impl Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reader that yields at most `chunk` bytes per call — models a socket
/// delivering a record in fragments.
struct ShortReader<'a> {
    buf: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for ShortReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = out.len().min(self.chunk).min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn supervision_frames_survive_fragmented_wire_io() {
    let payload: Vec<u8> = (0..1500u32).map(|i| (i * 7) as u8).collect();
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, 42, &payload);

    for chunk in [1, 2, 3, 7, 8, 9, 64, 4096] {
        let mut w = ShortWriter {
            out: Vec::new(),
            chunk,
        };
        write_record(&mut w, &frame).expect("write through short writes");
        let mut r = ShortReader {
            buf: &w.out,
            pos: 0,
            chunk,
        };
        let got = read_record(&mut r)
            .expect("read through partial reads")
            .expect("one record");
        let (seq, body) = decode_frame(&got).expect("frame intact");
        assert_eq!(seq, 42, "chunk size {chunk}");
        assert_eq!(body, &payload[..], "chunk size {chunk}");
    }
}

#[test]
fn truncated_frame_prefixes_never_decode() {
    let payload = b"signal processing interface";
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, 3, payload);
    // Every proper prefix must fail loudly: header-short prefixes as
    // Truncated, longer ones by CRC (the crc covers the whole payload).
    for n in 0..frame.len() {
        match decode_frame(&frame[..n]) {
            Err(FrameError::Truncated) => assert!(n < FRAME_HEADER_BYTES),
            Err(FrameError::BadCrc) => assert!(n >= FRAME_HEADER_BYTES),
            Ok(_) => panic!("prefix of {n} bytes decoded as a valid frame"),
        }
    }
    let (seq, body) = decode_frame(&frame).expect("full frame decodes");
    assert_eq!((seq, body), (3, &payload[..]));
}

#[test]
fn a_record_split_mid_length_prefix_is_an_unexpected_eof() {
    let mut full = Vec::new();
    write_record(&mut full, b"abcdef").expect("encode");
    for cut in 1..4 {
        let mut r = ShortReader {
            buf: &full[..cut],
            pos: 0,
            chunk: 1,
        };
        let err = read_record(&mut r).expect_err("mid-prefix EOF must error");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
    }
}
