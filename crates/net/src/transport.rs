//! [`Transport`] over Unix-domain sockets with an eq. (2) credit window.
//!
//! A cross-process SPI channel is one socket carrying length-prefixed
//! data records sender→receiver and credit acknowledgements
//! receiver→sender. Capacity is enforced **sender-side**: the sender
//! starts with a credit balance equal to the channel's
//! [`ChannelSpec::capacity_bytes`] (the eq. (2) allocation, inflated by
//! [`spi_platform::framed_spec`] under supervision), debits every send
//! by its payload size, and blocks when the balance cannot cover the
//! next message. The receiver returns credits only when the application
//! actually **consumes** a message — not on socket arrival — so the
//! bytes in flight across socket buffers, pending batches and the
//! receive queue together never exceed the eq. (2) bound, exactly like
//! the in-memory ring.
//!
//! # Batched fast path
//!
//! The paper's resynchronization pass (§4) removes redundant UBS
//! acknowledgements at compile time; this transport applies the same
//! idea at runtime, in both directions:
//!
//! * **Record coalescing** ([`BatchParams`]): a sender may accumulate
//!   up to `max_msgs` framed records — always debiting credits at
//!   append, so the eq. (2) accounting is untouched — and flush them
//!   with one vectored write. The Nagle-style flush policy is adaptive:
//!   flush on a full batch, on a credit window that cannot cover the
//!   next message (unsent records can never earn credits back), on the
//!   peer reporting itself blocked in `recv` (a HUNGRY ack), on a
//!   µs deadline derived from the schedule's predicted period, and on
//!   endpoint teardown. Every flush is observable as a
//!   [`ProbeKind::BatchFlush`] event when a probe is attached.
//! * **Coalesced credit acks** ([`AckPolicy`]): the receiver replaces
//!   the per-message acknowledgement with a cumulative
//!   `[freed_bytes][freed_msgs][flags]` record emitted every
//!   `every_msgs` consumptions or at a byte low-water mark, keeping the
//!   sender's balance byte-accurate to B(e) while cutting the ack
//!   traffic by the coalescing factor. A receiver that runs dry parks
//!   only after settling its accumulated credits and raising the
//!   HUNGRY flag, so coalescing can never starve a blocked sender or
//!   deadlock a request/response loop.
//!
//! Supervision frames (`[seq][crc32]`, PR 4) ride opaquely inside the
//! data records; corruption injected by a [`spi_fault`] decorator on
//! the sender's side hits real frame bytes and is caught by the
//! receiver's CRC check in the supervised runner, unchanged.
//!
//! Error semantics mirror [`spi_platform::RingTransport`]:
//! [`TransportError::Timeout`] carries the configured deadline and the
//! time since the channel last made progress; non-blocking ops return
//! [`TransportError::Full`] / [`TransportError::Empty`]; oversized
//! payloads return [`TransportError::TooLarge`] without consuming
//! credits. A torn connection (peer exit, socket error) parks the
//! channel in a closed state where blocking ops fail fast with a
//! `Timeout` — the supervised runner's retry/degrade machinery treats
//! that like any other unresponsive peer.

use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use spi_platform::shim::{self, AtomicBool, Condvar, Mutex};
use spi_platform::{
    ChannelId, ChannelSpec, FlushReason, PeId, ProbeKind, Token, Tracer, Transport, TransportError,
};

use crate::stream::NetStream;
use crate::wire::{frame_with, read_record, write_framed_vectored, write_record};

/// How long [`NetSender::connect`] keeps retrying a missing socket path
/// before giving up — covers the window between the launcher's PROCEED
/// and a peer node finishing its binds under load.
pub const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(10);

const CONNECT_RETRY_STEP: Duration = Duration::from_millis(5);

/// Wire size of a credit acknowledgement record:
/// `[freed_bytes: u32][freed_msgs: u32][flags: u32]`, all LE.
const ACK_BYTES: usize = 12;

/// Ack flag: the receiver is parked in a blocking `recv` on an empty
/// queue — the sender should flush any pending batch immediately.
const ACK_FLAG_HUNGRY: u32 = 1;

fn effective_capacity(spec: &ChannelSpec) -> usize {
    // Like the in-memory transports, a channel always admits at least
    // one maximum-size message so progress can never wedge on a spec
    // whose capacity under-runs its own message bound.
    spec.capacity_bytes.max(spec.max_message_bytes.max(1))
}

fn closed_err(timeout: Duration, since: Instant) -> TransportError {
    // `idle` never exceeds the configured deadline (scheduling jitter
    // can overshoot it); RingTransport reports the same shape. Read the
    // clock through the shim so the figure is virtual under `spi-sim`.
    TransportError::Timeout {
        after: timeout,
        idle: shim::now().saturating_duration_since(since).min(timeout),
    }
}

// ---------------------------------------------------------------------
// Batching configuration
// ---------------------------------------------------------------------

/// Sender-side record-coalescing parameters. Lowered per edge from the
/// schedule (`spi_sched::BatchPlan`) for distributed runs; the default
/// is the unbatched legacy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchParams {
    /// Most records coalesced into one vectored write; `1` writes every
    /// record immediately. Must stay within the edge's credit window in
    /// messages (the SPI046 analyzer lint enforces the declared form).
    pub max_msgs: usize,
    /// Nagle deadline: a pending batch older than this is flushed even
    /// if partial. Ignored when `max_msgs == 1`.
    pub flush_after: Duration,
}

impl BatchParams {
    /// The unbatched legacy path: one record per write, no deadline.
    pub fn disabled() -> BatchParams {
        BatchParams {
            max_msgs: 1,
            flush_after: Duration::ZERO,
        }
    }

    /// Whether this configuration coalesces records at all.
    pub fn is_batched(&self) -> bool {
        self.max_msgs > 1
    }
}

impl Default for BatchParams {
    fn default() -> Self {
        BatchParams::disabled()
    }
}

/// Receiver-side credit-acknowledgement coalescing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckPolicy {
    /// Emit a cumulative ack after this many consumptions.
    pub every_msgs: usize,
    /// ... or as soon as the accumulated un-acked bytes reach this
    /// low-water mark, whichever comes first. Half the credit window
    /// keeps the sender from ever draining completely while the
    /// receiver is making progress.
    pub low_water_bytes: usize,
}

impl AckPolicy {
    /// The legacy policy: one ack per consumed message.
    pub fn immediate() -> AckPolicy {
        AckPolicy {
            every_msgs: 1,
            low_water_bytes: 0,
        }
    }

    /// The policy matched to a sender batching under `batch`: ack every
    /// `batch.max_msgs` consumptions or at the half-window byte mark.
    pub fn for_batch(spec: &ChannelSpec, batch: BatchParams) -> AckPolicy {
        if !batch.is_batched() {
            return AckPolicy::immediate();
        }
        AckPolicy {
            every_msgs: batch.max_msgs,
            low_water_bytes: effective_capacity(spec) / 2,
        }
    }
}

impl Default for AckPolicy {
    fn default() -> Self {
        AckPolicy::immediate()
    }
}

/// Where a sender's [`ProbeKind::BatchFlush`] events go: a tracer plus
/// the identity they are recorded under.
struct ProbePoint {
    tracer: Arc<dyn Tracer>,
    pe: PeId,
    channel: ChannelId,
}

// ---------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------

struct SenderState {
    /// Unspent credit bytes; `capacity - credits` is the in-flight load.
    credits: usize,
    /// Messages sent but not yet consumed by the peer.
    in_flight_msgs: usize,
    /// Monotonic count of credit grants, for idle tracking.
    grants: u64,
}

/// Records appended but not yet written to the socket. Credits are
/// debited at append time, so pending bytes already count against the
/// eq. (2) window.
struct PendingBatch {
    /// Framed `[len][payload]` buffers, send order.
    records: Vec<Vec<u8>>,
    /// Total payload bytes across `records`.
    bytes: usize,
    /// When the oldest pending record was appended (deadline anchor).
    first_at: Option<Instant>,
}

struct SenderShared<S: NetStream> {
    capacity: usize,
    max_msg: usize,
    batch: BatchParams,
    state: Mutex<SenderState>,
    credit_back: Condvar,
    closed: AtomicBool,
    /// Lock order: `state` → `pending` → `stream`. Flushing holds
    /// `pending` across the socket write so batches land whole and in
    /// order — and so [`ProbeKind::BatchFlush`] records made under it
    /// are release/acquire-ordered with the endpoint's final flush,
    /// which the trace collector runs after.
    pending: Mutex<PendingBatch>,
    /// Wakes the deadline-flusher thread when a batch starts or the
    /// endpoint closes. Paired with `pending`.
    flush_wake: Condvar,
    stream: Mutex<S>,
    /// Sticky peer-is-blocked hint from a HUNGRY ack; cleared by the
    /// next successful flush (whose records will unpark the peer).
    hungry: AtomicBool,
    probe: OnceLock<ProbePoint>,
}

impl<S: NetStream> SenderShared<S> {
    /// Drains the pending batch with one vectored write. No-op when
    /// nothing is pending; on a socket error the channel closes.
    fn flush(&self, reason: FlushReason) -> std::io::Result<()> {
        let mut p = self.pending.lock();
        self.flush_locked(&mut p, reason)
    }

    fn flush_locked(&self, p: &mut PendingBatch, reason: FlushReason) -> std::io::Result<()> {
        if p.records.is_empty() {
            return Ok(());
        }
        let records = std::mem::take(&mut p.records);
        let bytes = std::mem::take(&mut p.bytes);
        p.first_at = None;
        let res = {
            let mut tx = self.stream.lock();
            write_framed_vectored(&mut *tx as &mut dyn Write, &records)
        };
        match res {
            Ok(()) => {
                // Data on the wire will unpark a hungry peer.
                self.hungry.store(false, Ordering::Release);
                if let Some(pr) = self.probe.get() {
                    pr.tracer.record(
                        pr.pe,
                        pr.tracer.now(),
                        ProbeKind::BatchFlush {
                            channel: pr.channel,
                            msgs: records.len() as u32,
                            bytes: bytes as u32,
                            reason,
                        },
                    );
                }
                Ok(())
            }
            Err(e) => {
                self.closed.store(true, Ordering::Release);
                self.credit_back.notify_all();
                self.flush_wake.notify_all();
                Err(e)
            }
        }
    }
}

/// The sending endpoint of a cross-process channel.
///
/// Owns the socket's write half, a background thread draining credit
/// acknowledgements from the read half, and — when batching is on — a
/// deadline-flusher thread enforcing the Nagle timer.
///
/// Generic over the underlying byte stream ([`NetStream`]): real
/// deployments use the `UnixStream` default, `spi-sim` substitutes a
/// deterministic in-memory pair.
pub struct NetSender<S: NetStream = UnixStream> {
    shared: Arc<SenderShared<S>>,
}

impl NetSender {
    /// Connects to the receiving endpoint at `path`, retrying for up to
    /// [`CONNECT_RETRY_WINDOW`] while the peer is still binding. The
    /// unbatched legacy path; see [`NetSender::connect_with`].
    ///
    /// # Errors
    ///
    /// The final connect error if the window elapses.
    pub fn connect(path: &Path, spec: &ChannelSpec) -> std::io::Result<NetSender> {
        NetSender::connect_with(path, spec, BatchParams::disabled())
    }

    /// [`NetSender::connect`] with record coalescing configured.
    ///
    /// # Errors
    ///
    /// The final connect error if the retry window elapses.
    pub fn connect_with(
        path: &Path,
        spec: &ChannelSpec,
        batch: BatchParams,
    ) -> std::io::Result<NetSender> {
        let deadline = Instant::now() + CONNECT_RETRY_WINDOW;
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(CONNECT_RETRY_STEP);
                }
                Err(e) => return Err(e),
            }
        };
        Ok(NetSender::from_stream_with(stream, spec, batch))
    }
}

impl<S: NetStream> NetSender<S> {
    /// Wraps an already-connected stream (socketpair loopback, tests),
    /// unbatched.
    pub fn from_stream(stream: S, spec: &ChannelSpec) -> NetSender<S> {
        NetSender::from_stream_with(stream, spec, BatchParams::disabled())
    }

    /// Wraps an already-connected stream with record coalescing
    /// configured.
    pub fn from_stream_with(stream: S, spec: &ChannelSpec, batch: BatchParams) -> NetSender<S> {
        let capacity = effective_capacity(spec);
        let batch = BatchParams {
            max_msgs: batch.max_msgs.max(1),
            ..batch
        };
        let shared = Arc::new(SenderShared {
            capacity,
            max_msg: spec.max_message_bytes.max(1),
            batch,
            state: Mutex::labeled(
                SenderState {
                    credits: capacity,
                    in_flight_msgs: 0,
                    grants: 0,
                },
                "net_sender_state",
            ),
            credit_back: Condvar::labeled("net_credit_back"),
            closed: AtomicBool::labeled(false, "net_sender_closed"),
            pending: Mutex::labeled(
                PendingBatch {
                    records: Vec::new(),
                    bytes: 0,
                    first_at: None,
                },
                "net_pending_batch",
            ),
            flush_wake: Condvar::labeled("net_flush_wake"),
            stream: Mutex::labeled(
                stream.try_clone().expect("clone socket"),
                "net_sender_stream",
            ),
            hungry: AtomicBool::labeled(false, "net_hungry"),
            probe: OnceLock::new(),
        });
        let reader = Arc::clone(&shared);
        // Detached on purpose: the thread holds only the Arc and exits
        // as soon as the socket EOFs or errors (Drop shuts it down).
        shim::spawn("net-ack", move || {
            let mut rx = stream;
            loop {
                match read_record(&mut rx) {
                    Ok(Some(ack)) if ack.len() == ACK_BYTES => {
                        let word =
                            |i: usize| u32::from_le_bytes(ack[i..i + 4].try_into().expect("word"));
                        let freed = word(0) as usize;
                        let msgs = word(4) as usize;
                        let flags = word(8);
                        if freed > 0 || msgs > 0 {
                            let mut st = reader.state.lock();
                            st.credits = (st.credits + freed).min(reader.capacity);
                            st.in_flight_msgs = st.in_flight_msgs.saturating_sub(msgs);
                            st.grants += 1;
                            drop(st);
                            reader.credit_back.notify_all();
                        }
                        if flags & ACK_FLAG_HUNGRY != 0 {
                            // The peer is parked in recv: latency beats
                            // amortization, push whatever is pending.
                            // The sticky hint also fast-flushes the
                            // next appended record if nothing is
                            // pending right now.
                            reader.hungry.store(true, Ordering::Release);
                            let _ = reader.flush(FlushReason::Hungry);
                        }
                    }
                    // Malformed ack, clean EOF, or socket error: the
                    // channel is unusable either way.
                    _ => break,
                }
            }
            reader.closed.store(true, Ordering::Release);
            reader.credit_back.notify_all();
            reader.flush_wake.notify_all();
        });
        if shared.batch.is_batched() {
            let fl = Arc::clone(&shared);
            // Deadline flusher: parks on `flush_wake` until a batch
            // starts, then sleeps out the Nagle deadline and drains
            // whatever is still pending.
            shim::spawn("net-flush", move || {
                let mut p = fl.pending.lock();
                while !fl.closed.load(Ordering::Acquire) {
                    let Some(first_at) = p.first_at else {
                        let (guard, _) = fl.flush_wake.wait_timeout(p, Duration::from_millis(50));
                        p = guard;
                        continue;
                    };
                    let age = shim::now().saturating_duration_since(first_at);
                    if age >= fl.batch.flush_after {
                        let _ = fl.flush_locked(&mut p, FlushReason::Deadline);
                        continue;
                    }
                    let (guard, _) = fl.flush_wake.wait_timeout(p, fl.batch.flush_after - age);
                    p = guard;
                }
            });
        }
        NetSender { shared }
    }

    /// Attaches a tracer: every batch flush records a
    /// [`ProbeKind::BatchFlush`] under `pe`/`channel`. May be set once,
    /// before the endpoint is shared; later calls are ignored.
    pub fn set_probe(&self, tracer: Arc<dyn Tracer>, pe: PeId, channel: ChannelId) {
        if tracer.enabled() {
            let _ = self.shared.probe.set(ProbePoint {
                tracer,
                pe,
                channel,
            });
        }
    }

    /// Forces any pending batch onto the wire now (reason `Final`).
    /// Useful at iteration boundaries and in tests; the adaptive policy
    /// makes routine calls unnecessary.
    ///
    /// # Errors
    ///
    /// A closed-channel timeout shape if the socket write fails.
    pub fn flush_pending(&self) -> Result<(), TransportError> {
        self.shared
            .flush(FlushReason::Final)
            .map_err(|_| closed_err(Duration::ZERO, shim::now()))
    }

    fn closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

impl<S: NetStream> Drop for NetSender<S> {
    fn drop(&mut self) {
        // Drain any coalesced records first: peers distinguish a clean
        // EOF from a truncated stream, and credits for unsent bytes are
        // unrecoverable either way.
        let _ = self.shared.flush(FlushReason::Final);
        self.shared.closed.store(true, Ordering::Release);
        {
            let s = self.shared.stream.lock();
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.shared.credit_back.notify_all();
        self.shared.flush_wake.notify_all();
    }
}

impl<S: NetStream> Transport for NetSender<S> {
    fn capacity_bytes(&self) -> usize {
        self.shared.capacity
    }

    fn max_message_bytes(&self) -> usize {
        self.shared.max_msg
    }

    fn snapshot(&self) -> (usize, usize) {
        let st = self.shared.state.lock();
        (self.shared.capacity - st.credits, st.in_flight_msgs)
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.send_with(
            data.len(),
            &mut |buf| buf.copy_from_slice(data),
            Duration::ZERO,
        )
        .map_err(|e| match e {
            TransportError::Timeout { .. } => TransportError::Full,
            other => other,
        })
    }

    /// The sending endpoint has nothing to receive: always empty.
    fn try_recv_token(&self) -> Result<Token, TransportError> {
        Err(TransportError::Empty)
    }

    /// The sending endpoint has nothing to receive: fails fast with
    /// the closed-channel error.
    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        Err(closed_err(timeout, shim::now()))
    }

    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        if len > self.shared.max_msg {
            return Err(TransportError::TooLarge {
                bytes: len,
                max: self.shared.max_msg,
            });
        }
        let start = shim::now();
        let deadline = start + timeout;
        let credits_after;
        {
            let mut st = self.shared.state.lock();
            let mut seen_grants = st.grants;
            let mut progress_at = start;
            // An idle channel always admits one message (credits start
            // at full capacity ≥ max_msg), so this loop cannot wedge on
            // a degenerate spec.
            while st.credits < len {
                if self.closed() {
                    return Err(closed_err(timeout, start));
                }
                if self.shared.batch.is_batched() {
                    // Credits can only return for records the peer has
                    // seen — drain the pending batch before waiting.
                    let unsent = {
                        let p = self.shared.pending.lock();
                        !p.records.is_empty()
                    };
                    if unsent {
                        drop(st);
                        if self.shared.flush(FlushReason::Window).is_err() {
                            return Err(closed_err(timeout, start));
                        }
                        st = self.shared.state.lock();
                        continue;
                    }
                }
                let now = shim::now();
                if st.grants != seen_grants {
                    seen_grants = st.grants;
                    progress_at = now;
                }
                if now >= deadline {
                    return Err(TransportError::Timeout {
                        after: timeout,
                        idle: now.duration_since(progress_at).min(timeout),
                    });
                }
                let (guard, _) = self.shared.credit_back.wait_timeout(st, deadline - now);
                st = guard;
            }
            st.credits -= len;
            st.in_flight_msgs += 1;
            credits_after = st.credits;
        }
        let rec = frame_with(len, fill);
        let flush_reason = {
            let mut p = self.shared.pending.lock();
            if p.records.is_empty() {
                p.first_at = Some(shim::now());
                // Arm the deadline flusher for this batch.
                self.shared.flush_wake.notify_all();
            }
            p.records.push(rec);
            p.bytes += len;
            if p.records.len() >= self.shared.batch.max_msgs {
                Some(FlushReason::Full)
            } else if credits_after < self.shared.max_msg {
                // The window cannot cover another message; the peer
                // must see these records to return credits.
                Some(FlushReason::Window)
            } else if self.shared.hungry.load(Ordering::Acquire) {
                Some(FlushReason::Hungry)
            } else {
                None
            }
        };
        if let Some(reason) = flush_reason {
            if self.shared.flush(reason).is_err() {
                return Err(closed_err(timeout, start));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

struct ReceiverState {
    queue: VecDeque<Vec<u8>>,
    queued_bytes: usize,
    /// Monotonic count of arrivals, for idle tracking.
    arrivals: u64,
    /// Consumed-but-not-yet-acknowledged credit, per [`AckPolicy`].
    unacked_bytes: usize,
    unacked_msgs: usize,
    /// A HUNGRY ack was sent for the current empty-queue episode;
    /// cleared by the pump on the next arrival so each episode raises
    /// the flag at most once.
    hungry_sent: bool,
}

/// The credit-ack write half plus the drop flag, under one lock so the
/// endpoint's `Drop` and the pump thread cannot race past each other:
/// whichever runs second sees the other's effect and performs the
/// socket shutdown exactly once.
struct AckSlot<S> {
    /// Populated by the pump once the connection exists (immediately
    /// for socketpair construction, after accept when bound).
    stream: Option<S>,
    /// Set by the endpoint's `Drop`.
    dropped: bool,
}

impl<S> Default for AckSlot<S> {
    fn default() -> Self {
        AckSlot {
            stream: None,
            dropped: false,
        }
    }
}

struct ReceiverShared<S: NetStream> {
    capacity: usize,
    max_msg: usize,
    ack_policy: AckPolicy,
    state: Mutex<ReceiverState>,
    arrived: Condvar,
    closed: AtomicBool,
    ack_tx: Mutex<AckSlot<S>>,
}

/// The receiving endpoint of a cross-process channel.
///
/// A background thread (accepting first, when bound to a listener)
/// drains data records into a bounded-by-protocol queue; consuming a
/// message accumulates credit that is returned to the sender per the
/// endpoint's [`AckPolicy`].
/// Generic over the underlying byte stream ([`NetStream`]): real
/// deployments use the `UnixStream` default, `spi-sim` substitutes a
/// deterministic in-memory pair.
pub struct NetReceiver<S: NetStream = UnixStream> {
    shared: Arc<ReceiverShared<S>>,
    /// Socket path to poke on Drop so a never-connected accept thread
    /// unblocks and exits.
    listener_path: Option<std::path::PathBuf>,
}

impl NetReceiver {
    /// Binds a listener at `path` and accepts the sender's connection
    /// in the background, acking every message (legacy policy). The
    /// path must not exist yet.
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn bind(path: &Path, spec: &ChannelSpec) -> std::io::Result<NetReceiver> {
        NetReceiver::bind_with(path, spec, AckPolicy::immediate())
    }

    /// [`NetReceiver::bind`] with a coalesced ack policy.
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn bind_with(
        path: &Path,
        spec: &ChannelSpec,
        ack: AckPolicy,
    ) -> std::io::Result<NetReceiver> {
        let listener = UnixListener::bind(path)?;
        let shared = Self::shared_for(spec, ack);
        let reader = Arc::clone(&shared);
        shim::spawn("net-accept", move || {
            let Ok((stream, _)) = listener.accept() else {
                reader.closed.store(true, Ordering::Release);
                reader.arrived.notify_all();
                return;
            };
            Self::pump(&reader, stream);
        });
        Ok(NetReceiver {
            shared,
            listener_path: Some(path.to_path_buf()),
        })
    }
}

impl<S: NetStream> NetReceiver<S> {
    /// Wraps an already-connected stream (socketpair loopback, tests),
    /// acking every message.
    pub fn from_stream(stream: S, spec: &ChannelSpec) -> NetReceiver<S> {
        NetReceiver::from_stream_with(stream, spec, AckPolicy::immediate())
    }

    /// Wraps an already-connected stream with a coalesced ack policy.
    pub fn from_stream_with(stream: S, spec: &ChannelSpec, ack: AckPolicy) -> NetReceiver<S> {
        let shared = Self::shared_for(spec, ack);
        let reader = Arc::clone(&shared);
        shim::spawn("net-pump", move || Self::pump(&reader, stream));
        NetReceiver {
            shared,
            listener_path: None,
        }
    }

    fn shared_for(spec: &ChannelSpec, ack: AckPolicy) -> Arc<ReceiverShared<S>> {
        Arc::new(ReceiverShared {
            capacity: effective_capacity(spec),
            max_msg: spec.max_message_bytes.max(1),
            ack_policy: AckPolicy {
                every_msgs: ack.every_msgs.max(1),
                ..ack
            },
            state: Mutex::labeled(
                ReceiverState {
                    queue: VecDeque::new(),
                    queued_bytes: 0,
                    arrivals: 0,
                    unacked_bytes: 0,
                    unacked_msgs: 0,
                    hungry_sent: false,
                },
                "net_receiver_state",
            ),
            arrived: Condvar::labeled("net_arrived"),
            closed: AtomicBool::labeled(false, "net_receiver_closed"),
            ack_tx: Mutex::labeled(AckSlot::default(), "net_ack_tx"),
        })
    }

    /// Reads data records off `stream` into the queue until EOF/error.
    fn pump(shared: &Arc<ReceiverShared<S>>, stream: S) {
        {
            let mut slot = shared.ack_tx.lock();
            if slot.dropped {
                // The endpoint was dropped before the connection came
                // up; tear it down here — Drop could not, it never saw
                // a stream.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            slot.stream = stream.try_clone().ok();
        }
        let mut rx = stream;
        while let Ok(Some(msg)) = read_record(&mut rx) {
            let mut st = shared.state.lock();
            st.queued_bytes += msg.len();
            st.arrivals += 1;
            st.hungry_sent = false;
            st.queue.push_back(msg);
            drop(st);
            shared.arrived.notify_all();
        }
        shared.closed.store(true, Ordering::Release);
        shared.arrived.notify_all();
    }

    fn closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Writes one cumulative credit-ack record.
    fn ack(&self, freed_bytes: usize, freed_msgs: usize, flags: u32) {
        let mut slot = self.shared.ack_tx.lock();
        if let Some(tx) = slot.stream.as_mut() {
            let mut rec = [0u8; ACK_BYTES];
            rec[..4].copy_from_slice(&(freed_bytes as u32).to_le_bytes());
            rec[4..8].copy_from_slice(&(freed_msgs as u32).to_le_bytes());
            rec[8..].copy_from_slice(&flags.to_le_bytes());
            if write_record(tx as &mut dyn Write, &rec).is_err() {
                self.shared.closed.store(true, Ordering::Release);
            }
        }
    }

    /// Accumulates credit for one consumed message under `st` and
    /// decides whether the policy requires emitting an ack now. The
    /// caller emits after dropping the state lock (acks write to a
    /// socket and must not hold it).
    fn accrue(&self, st: &mut ReceiverState, len: usize) -> Option<(usize, usize)> {
        st.unacked_bytes += len;
        st.unacked_msgs += 1;
        let due = st.unacked_msgs >= self.shared.ack_policy.every_msgs
            || st.unacked_bytes >= self.shared.ack_policy.low_water_bytes.max(1);
        due.then(|| {
            (
                std::mem::take(&mut st.unacked_bytes),
                std::mem::take(&mut st.unacked_msgs),
            )
        })
    }

    /// Settles all accumulated credit with the HUNGRY flag raised —
    /// called when the consumer finds the queue empty, so a coalescing
    /// receiver can never sit on credits while its sender blocks, and
    /// the sender learns to flush any pending batch. At most one per
    /// empty-queue episode.
    fn settle_hungry(&self, st: &mut ReceiverState) -> Option<(usize, usize)> {
        if st.hungry_sent {
            return None;
        }
        st.hungry_sent = true;
        Some((
            std::mem::take(&mut st.unacked_bytes),
            std::mem::take(&mut st.unacked_msgs),
        ))
    }
}

impl<S: NetStream> Drop for NetReceiver<S> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        let connected = {
            let mut slot = self.shared.ack_tx.lock();
            slot.dropped = true;
            if let Some(tx) = slot.stream.as_ref() {
                let _ = tx.shutdown(std::net::Shutdown::Both);
                true
            } else {
                false
            }
        };
        // No connection yet: either the pump will see `dropped` and
        // shut the socket itself, or the accept is still parked — poke
        // it with a throwaway connection so the thread exits.
        if !connected {
            if let Some(path) = &self.listener_path {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(path) = &self.listener_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.arrived.notify_all();
    }
}

impl<S: NetStream> Transport for NetReceiver<S> {
    fn capacity_bytes(&self) -> usize {
        self.shared.capacity
    }

    fn max_message_bytes(&self) -> usize {
        self.shared.max_msg
    }

    fn snapshot(&self) -> (usize, usize) {
        let st = self.shared.state.lock();
        (st.queued_bytes, st.queue.len())
    }

    /// The receiving endpoint has no room to send into: always full.
    fn try_send(&self, _data: &[u8]) -> Result<(), TransportError> {
        Err(TransportError::Full)
    }

    fn try_recv_token(&self) -> Result<Token, TransportError> {
        let (msg, due) = {
            let mut st = self.shared.state.lock();
            match st.queue.pop_front() {
                Some(m) => {
                    st.queued_bytes -= m.len();
                    let due = self.accrue(&mut st, m.len());
                    (m, due)
                }
                None => {
                    // A polling consumer never parks, so the park-time
                    // settlement below can't run — settle here instead.
                    let hungry = self.settle_hungry(&mut st);
                    drop(st);
                    if let Some((b, n)) = hungry {
                        self.ack(b, n, ACK_FLAG_HUNGRY);
                    }
                    return Err(TransportError::Empty);
                }
            }
        };
        if let Some((b, n)) = due {
            self.ack(b, n, 0);
        }
        Ok(Token::Owned(msg))
    }

    /// The receiving endpoint cannot send: fails fast with the
    /// closed-channel error.
    fn send_with(
        &self,
        _len: usize,
        _fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        Err(closed_err(timeout, shim::now()))
    }

    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        let start = shim::now();
        let deadline = start + timeout;
        let mut seen_arrivals: Option<u64> = None;
        let mut progress_at = start;
        let mut st = self.shared.state.lock();
        let (msg, due) = loop {
            if let Some(m) = st.queue.pop_front() {
                st.queued_bytes -= m.len();
                let due = self.accrue(&mut st, m.len());
                break (m, due);
            }
            if self.closed() {
                return Err(closed_err(timeout, start));
            }
            // About to park: settle accumulated credit and tell the
            // sender we are starving so it flushes any pending batch.
            if let Some((b, n)) = self.settle_hungry(&mut st) {
                drop(st);
                self.ack(b, n, ACK_FLAG_HUNGRY);
                st = self.shared.state.lock();
                continue;
            }
            let now = shim::now();
            if seen_arrivals != Some(st.arrivals) {
                if seen_arrivals.is_some() {
                    progress_at = now;
                }
                seen_arrivals = Some(st.arrivals);
            }
            if now >= deadline {
                return Err(TransportError::Timeout {
                    after: timeout,
                    idle: now.duration_since(progress_at).min(timeout),
                });
            }
            let (guard, _) = self.shared.arrived.wait_timeout(st, deadline - now);
            st = guard;
        };
        drop(st);
        if let Some((b, n)) = due {
            self.ack(b, n, 0);
        }
        Ok(Token::Owned(msg))
    }
}

/// A connected loopback channel over `socketpair(2)` — both endpoints
/// in one process, the full wire protocol in between, no coalescing.
/// The workhorse of the transport tests.
pub fn loopback(spec: &ChannelSpec) -> std::io::Result<(NetSender, NetReceiver)> {
    loopback_with(spec, BatchParams::disabled())
}

/// [`loopback`] with the batched fast path: the sender coalesces under
/// `batch` and the receiver acks under the matched
/// [`AckPolicy::for_batch`] policy. The `fir_3pe_net_loopback`
/// benchmark's configuration.
pub fn loopback_with(
    spec: &ChannelSpec,
    batch: BatchParams,
) -> std::io::Result<(NetSender, NetReceiver)> {
    let (a, b) = UnixStream::pair()?;
    Ok((
        NetSender::from_stream_with(a, spec, batch),
        NetReceiver::from_stream_with(b, spec, AckPolicy::for_batch(spec, batch)),
    ))
}
