//! Supervised execution: framed channels, bounded retry, degradation
//! and checkpoint/restart for the OS-thread runner.
//!
//! The DATE 2008 resynchronization result assumes IPC messages arrive
//! intact and on time. This module is what the threaded runner adds on
//! top of the PRUNE-style discipline of *declared and bounded*
//! deviations so that assumption can be dropped without giving up the
//! static guarantees:
//!
//! * **Framing** — every supervised message is wrapped in an 8-byte
//!   header (`[seq: u32 LE][crc32: u32 LE]`) so the receiver can detect
//!   corruption (CRC mismatch), loss and reordering (sequence gap) and
//!   duplication (stale sequence). The channel's eq. (1)/(2) numbers
//!   are inflated by exactly one header per packed-token slot
//!   ([`framed_spec`]), and all probe events report *logical* payload
//!   sizes and occupancies, so the traced invariants stay the ones the
//!   analyzer derived.
//! * **Retry** — transient failures (injected faults, per-op deadline
//!   misses) are retried up to [`SupervisionPolicy::max_retries`] times
//!   with exponential backoff. A dropped or corrupted frame is simply
//!   retransmitted under the *same* sequence number; the receiver
//!   discards CRC-failed frames and stale duplicates, which makes the
//!   retransmission protocol idempotent without a reverse channel.
//! * **Degradation** — when a token cannot be recovered inside the
//!   retry budget, [`DegradePolicy`] picks the UBS-style fallback:
//!   substitute a neutral (zero) token of the last observed size, skip
//!   it, or fail the run with an error naming the edge.
//! * **Checkpoint / restart** — each PE snapshots its functional state
//!   (store, indexed buffers and inbox) at every iteration boundary. A
//!   panicking compute closure rolls the iteration back and replays it:
//!   receives are replayed from a local log (the transport is not
//!   touched again) and already-transmitted sends are not re-sent, so a
//!   restart can never push channel occupancy past the eq. (2) bound.
//!   Replay assumes compute and payload closures are deterministic
//!   functions of [`PeLocal`].
//!
//! Every fault-handling decision is emitted through the [`Tracer`] as a
//! `FaultRetry` / `FaultCorrupt` / `FaultDegraded` / `FaultRestart`
//! probe event; the `spi-trace` conformance checker holds those events
//! against the declared budgets (diagnostics SPI090–SPI095).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::{BlockKind, PlatformError, Result};
use crate::pool::Token;
use crate::runner::{intern_labels, ThreadedPeResult};
use crate::sim::{ChannelId, ChannelSpec, Op, PeId, PeLocal, Program};
use crate::trace::{payload_digest, ProbeKind, Tracer};
use crate::transport::{Transport, TransportError};

/// Bytes of supervision header prepended to every framed message:
/// `[seq: u32 LE][crc32: u32 LE]`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Longest single exponential-backoff sleep between retries.
const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// What a supervised receiver does with a token it cannot recover
/// within the retry budget (and with the hole left by a lost token).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Abort the run with an error naming the faulted edge. The
    /// strictest policy — used when byte-identical output is required.
    #[default]
    Fail,
    /// Skip the missing token (UBS skip semantics): the receive
    /// delivers the next token that actually arrived, or an empty
    /// payload when the stream ran dry.
    Skip,
    /// Substitute a neutral token: zero-filled, sized like the last
    /// token seen on the channel (tokens have a fixed packed size
    /// c(e), so the substitute is shape-correct).
    Substitute,
}

/// Bounded-recovery configuration for [`crate::ThreadedRunner`].
///
/// All bounds are *declared*: the trace-conformance checker verifies
/// the observed fault handling stayed inside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// Deadline for one blocking channel-operation attempt. Derive it
    /// from the predicted makespan (`sched::predicted`) when one is
    /// available: no single token should take longer than the whole
    /// schedule was predicted to.
    pub op_deadline: Duration,
    /// Retries after the first failed attempt before degrading.
    pub max_retries: u32,
    /// Base of the exponential backoff between retries
    /// (`base · 2^(attempt−1)`, capped at 100 ms). Deadline-miss
    /// retries skip the backoff — the deadline already waited.
    pub backoff_base: Duration,
    /// What to do with a token the retry budget could not recover.
    pub degrade: DegradePolicy,
    /// Checkpoint restarts allowed per PE before a panic is fatal.
    pub max_restarts: u32,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            op_deadline: Duration::from_secs(2),
            max_retries: 3,
            backoff_base: Duration::from_micros(500),
            degrade: DegradePolicy::Fail,
            max_restarts: 1,
        }
    }
}

impl SupervisionPolicy {
    /// The "retry" policy: `retries` attempts beyond the first, strict
    /// [`DegradePolicy::Fail`] degradation — recover exactly or stop.
    pub fn retry(retries: u32) -> Self {
        SupervisionPolicy {
            max_retries: retries,
            ..SupervisionPolicy::default()
        }
    }

    /// Overrides the per-attempt deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = deadline;
        self
    }

    /// Overrides the degradation policy.
    #[must_use]
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }

    /// Overrides the restart budget.
    #[must_use]
    pub fn with_restarts(mut self, restarts: u32) -> Self {
        self.max_restarts = restarts;
        self
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Slice-by-16 lookup tables: `t[k][b]` is the CRC contribution of
/// byte `b` positioned `k` bytes from the end of a 16-byte block.
fn crc_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 16]>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for i in 0..256 {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..16 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// The supervision-frame checksum.
///
/// Fault-free supervision overhead is capped at 5%, and for the
/// 512-byte frames of a typical audio pipeline a naive byte-at-a-time
/// CRC (serial ~5-cycle-per-byte dependency chain) puts the checksum —
/// not the signal processing — on the critical path. Two fast paths
/// keep it off:
///
/// * x86-64 with SSE4.2: the hardware `crc32` instruction (CRC-32C,
///   Castagnoli polynomial) at ~0.07 ns/byte with **no** lookup-table
///   cache footprint next to the application's working set;
/// * elsewhere: slice-by-16 software CRC-32 (IEEE 802.3, reflected) at
///   ~0.5 ns/byte.
///
/// The polynomial choice is invisible outside the process: frames are
/// produced and verified by PEs of the same run, never persisted or
/// exchanged across machines, so both ends always use the same path.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: gated on runtime SSE4.2 detection.
        #[allow(unsafe_code)]
        return unsafe { crc32c_hw(bytes) };
    }
    crc32_sw(bytes)
}

/// Hardware CRC-32C: 8 bytes per 3-cycle `crc32` instruction.
///
/// Safety: callers must ensure SSE4.2 is available (runtime-detected
/// in [`crc32`]); the body itself touches only the `bytes` slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
#[allow(unsafe_code)]
unsafe fn crc32c_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c: u64 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("8 bytes")));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Software CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16.
fn crc32_sw(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let w0 = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")) ^ c;
        let w1 = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
        let w2 = u32::from_le_bytes(b[8..12].try_into().expect("4 bytes"));
        let w3 = u32::from_le_bytes(b[12..16].try_into().expect("4 bytes"));
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why a received frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the 8-byte header.
    Truncated,
    /// Payload CRC did not match the header.
    BadCrc,
}

/// Wraps `payload` in a supervision frame.
#[cfg(test)]
pub(crate) fn encode_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, seq, payload);
    frame
}

/// [`encode_frame`] into a reused buffer: the hot send path frames one
/// message per iteration per channel, so after the first message the
/// per-channel scratch buffer makes framing allocation-free.
pub fn encode_frame_into(frame: &mut Vec<u8>, seq: u32, payload: &[u8]) {
    frame.clear();
    frame.reserve(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
}

/// Splits and verifies a supervision frame, returning `(seq, payload)`.
pub fn decode_frame(frame: &[u8]) -> std::result::Result<(u32, &[u8]), FrameError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    let seq = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    let payload = &frame[FRAME_HEADER_BYTES..];
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((seq, payload))
}

/// The physical channel spec backing a supervised logical spec: one
/// frame header per packed-token slot is added to both the per-message
/// bound and the capacity, so the slot *count* — the eq. (2) token
/// bound `Γ + delay(e)` — is unchanged and a supervised run can never
/// hold more tokens in flight than the unsupervised bound allows.
///
/// Public because external endpoint builders — `spi-net` sizing a
/// socket channel's credit window for a supervised distributed run —
/// must apply the same inflation before handing endpoints to
/// [`crate::ThreadedRunner::run_with_endpoints`].
pub fn framed_spec(spec: &ChannelSpec) -> ChannelSpec {
    let mut s = *spec;
    if let Some(slots) = spec.capacity_bytes.checked_div(spec.max_message_bytes) {
        let slots = slots.max(1);
        s.max_message_bytes = spec.max_message_bytes + FRAME_HEADER_BYTES;
        s.capacity_bytes = spec.capacity_bytes + slots * FRAME_HEADER_BYTES;
    } else {
        // No declared per-message bound: treat the whole channel as one
        // message (the ring serializes to a single slot; the locked
        // queue keeps byte-accurate admission).
        s.max_message_bytes = spec.capacity_bytes + FRAME_HEADER_BYTES;
        s.capacity_bytes = spec.capacity_bytes + FRAME_HEADER_BYTES;
    }
    s
}

/// `(occ_bytes, occ_msgs)` of a framed endpoint with the header bytes
/// stripped — the logical numbers probe events carry.
fn logical_snapshot(ep: &dyn Transport) -> (u32, u32) {
    let (b, m) = ep.snapshot();
    (b.saturating_sub(m * FRAME_HEADER_BYTES) as u32, m as u32)
}

// ---------------------------------------------------------------------
// Supervised executor
// ---------------------------------------------------------------------

/// Receiver/sender-side sequencing state for one channel, owned by the
/// single PE thread that uses that side (edges are SPSC).
#[derive(Default, Clone)]
struct ChanState {
    /// Next sequence number to transmit.
    send_seq: u32,
    /// Next sequence number expected by the receiver.
    recv_seq: u32,
    /// An out-of-order frame held back for the next receive.
    pending: Option<(u32, Vec<u8>)>,
    /// Payload size of the last delivered token (substitute sizing).
    last_len: usize,
    /// When the channel last completed an operation for this PE.
    last_ok: Option<Instant>,
    /// Reused send-side framing buffer (capacity persists per channel).
    frame_buf: Vec<u8>,
}

/// Per-PE supervision context (one per thread).
struct PeCtx<'a> {
    pe: PeId,
    policy: SupervisionPolicy,
    specs: &'a [ChannelSpec],
    endpoints: &'a [Box<dyn Transport>],
    probe: Option<&'a dyn Tracer>,
    fault: &'a Mutex<Option<PlatformError>>,
    started: Instant,
    chans: Vec<ChanState>,
    restarts: u32,
}

impl PeCtx<'_> {
    fn record(&self, err: PlatformError) {
        let mut slot = self.fault.lock().expect("fault lock");
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    fn emit(&self, kind: ProbeKind) {
        if let Some(t) = self.probe {
            t.record(self.pe, t.now(), kind);
        }
    }

    fn idle_since(&self, ch: usize) -> Duration {
        let anchor = self.chans[ch].last_ok.unwrap_or(self.started);
        crate::shim::now().duration_since(anchor)
    }

    fn backoff(&self, attempt: u32) {
        let base = self.policy.backoff_base;
        if base.is_zero() {
            return;
        }
        let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        crate::shim::sleep(exp.min(MAX_BACKOFF));
    }

    /// Transmits one logical token; returns `false` when the PE must
    /// abort (a terminal fault was recorded).
    fn sup_send(&mut self, ch: ChannelId, data: &[u8]) -> bool {
        let seq = self.chans[ch.0].send_seq;
        let mut frame = std::mem::take(&mut self.chans[ch.0].frame_buf);
        encode_frame_into(&mut frame, seq, data);
        let ok = self.send_framed(ch, seq, &frame, data);
        self.chans[ch.0].frame_buf = frame;
        ok
    }

    /// The retry loop behind [`Self::sup_send`], over an already-framed
    /// message.
    fn send_framed(&mut self, ch: ChannelId, seq: u32, frame: &[u8], data: &[u8]) -> bool {
        let ep = &self.endpoints[ch.0];
        let mut attempt: u32 = 0;
        loop {
            match ep.send(frame, self.policy.op_deadline) {
                Ok(()) => {
                    let c = &mut self.chans[ch.0];
                    c.send_seq = seq.wrapping_add(1);
                    c.last_ok = Some(crate::shim::now());
                    if self.probe.is_some() {
                        let (occ_b, occ_m) = logical_snapshot(ep.as_ref());
                        self.emit(ProbeKind::Send {
                            channel: ch,
                            bytes: data.len() as u32,
                            digest: payload_digest(data),
                            occ_bytes: occ_b,
                            occ_msgs: occ_m,
                        });
                    }
                    return true;
                }
                // Declared injections and deadline misses are
                // transient: the frame is retransmitted under the same
                // sequence number (receivers deduplicate), so recovery
                // is idempotent.
                Err(e @ (TransportError::Injected { .. } | TransportError::Timeout { .. })) => {
                    attempt += 1;
                    if attempt > self.policy.max_retries {
                        match self.policy.degrade {
                            DegradePolicy::Fail => {
                                self.record(PlatformError::RetryBudgetExhausted {
                                    pe: self.pe,
                                    channel: ch,
                                    attempts: attempt,
                                    kind: BlockKind::Send,
                                    idle: self.idle_since(ch.0),
                                });
                                return false;
                            }
                            // Skip the token on the sender side: the
                            // receiver sees the sequence gap and
                            // degrades under its own policy.
                            DegradePolicy::Skip | DegradePolicy::Substitute => {
                                self.chans[ch.0].send_seq = seq.wrapping_add(1);
                                return true;
                            }
                        }
                    }
                    self.emit(ProbeKind::FaultRetry {
                        channel: ch,
                        attempt,
                    });
                    // A deadline miss already waited out the op
                    // deadline; only immediate failures back off.
                    if matches!(e, TransportError::Injected { .. }) {
                        self.backoff(attempt);
                    }
                }
                Err(e) => {
                    self.record(map_terminal(ch, data.len(), &e, self.specs));
                    return false;
                }
            }
        }
    }

    /// Receives one logical token, or `None` when the PE must abort.
    /// Pooled leases flow through unchanged: the CRC check reads the
    /// frame in place over the pool slot, and the verified header is
    /// stripped by a pointer bump, not a copy.
    fn sup_recv(&mut self, ch: ChannelId) -> Option<Token> {
        // An out-of-order frame buffered by an earlier gap is consumed
        // before the transport is touched again.
        if let Some((seq, payload)) = self.chans[ch.0].pending.take() {
            let expected = self.chans[ch.0].recv_seq;
            if seq == expected {
                return Some(self.deliver(ch, Token::Owned(payload)));
            }
            if seq > expected {
                return self.handle_gap(ch, seq, Token::Owned(payload));
            }
            // Stale duplicate: drop it and read the transport.
        }
        let mut attempt: u32 = 0;
        loop {
            let got = self.endpoints[ch.0].recv_token(self.policy.op_deadline);
            match got {
                Ok(mut frame) => match decode_frame(&frame).map(|(seq, _)| seq) {
                    Ok(seq) => {
                        let expected = self.chans[ch.0].recv_seq;
                        if seq < expected {
                            // Duplicate of an already-delivered token
                            // (injected duplication or a replayed
                            // retransmission): discard, no attempt
                            // consumed.
                            continue;
                        }
                        // Strip the verified header in place — a
                        // pointer bump on pooled leases, a front drain
                        // on owned frames; never a second allocation.
                        frame.trim_front(FRAME_HEADER_BYTES);
                        if seq == expected {
                            return Some(self.deliver(ch, frame));
                        }
                        return self.handle_gap(ch, seq, frame);
                    }
                    Err(_) => {
                        // CRC failure: a declared corruption. The
                        // sender was told (typed error) and
                        // retransmits; wait for the clean copy.
                        self.emit(ProbeKind::FaultCorrupt { channel: ch });
                        attempt += 1;
                        if attempt > self.policy.max_retries {
                            return self.degrade_missing(ch, attempt);
                        }
                    }
                },
                Err(TransportError::Timeout { .. }) => {
                    attempt += 1;
                    if attempt > self.policy.max_retries {
                        return self.degrade_missing(ch, attempt);
                    }
                    self.emit(ProbeKind::FaultRetry {
                        channel: ch,
                        attempt,
                    });
                }
                Err(e) => {
                    self.record(map_terminal(ch, 0, &e, self.specs));
                    return None;
                }
            }
        }
    }

    fn deliver(&mut self, ch: ChannelId, payload: Token) -> Token {
        let c = &mut self.chans[ch.0];
        c.recv_seq = c.recv_seq.wrapping_add(1);
        c.last_len = payload.len();
        c.last_ok = Some(crate::shim::now());
        if self.probe.is_some() {
            let (occ_b, occ_m) = logical_snapshot(self.endpoints[ch.0].as_ref());
            self.emit(ProbeKind::Recv {
                channel: ch,
                bytes: payload.len() as u32,
                digest: payload_digest(&payload),
                occ_bytes: occ_b,
                occ_msgs: occ_m,
            });
        }
        payload
    }

    /// A frame from the future arrived: tokens in `recv_seq..seq` are
    /// lost (dropped upstream past its retry budget). Degrade per
    /// policy; the arrived frame is either delivered now (skip) or
    /// parked for the next receive (substitute).
    fn handle_gap(&mut self, ch: ChannelId, seq: u32, payload: Token) -> Option<Token> {
        let expected = self.chans[ch.0].recv_seq;
        let missing = seq.wrapping_sub(expected);
        match self.policy.degrade {
            DegradePolicy::Fail => {
                self.record(PlatformError::TokensLost {
                    pe: self.pe,
                    channel: ch,
                    missing,
                });
                None
            }
            DegradePolicy::Skip => {
                for _ in 0..missing {
                    self.emit(ProbeKind::FaultDegraded {
                        channel: ch,
                        substituted: false,
                    });
                }
                self.chans[ch.0].recv_seq = seq;
                Some(self.deliver(ch, payload))
            }
            DegradePolicy::Substitute => {
                // One substitution per receive op keeps the one-token-
                // per-op contract; the real frame waits in `pending`
                // (and later gaps re-derive from it).
                self.emit(ProbeKind::FaultDegraded {
                    channel: ch,
                    substituted: true,
                });
                // Parking the frame releases its pool slot (cold path:
                // tokens were already lost on this channel).
                let payload = payload.into_vec();
                let c = &mut self.chans[ch.0];
                c.recv_seq = c.recv_seq.wrapping_add(1);
                c.pending = Some((seq, payload));
                Some(Token::Owned(vec![0u8; c.last_len]))
            }
        }
    }

    /// The retry budget ran dry with nothing delivered.
    fn degrade_missing(&mut self, ch: ChannelId, attempts: u32) -> Option<Token> {
        match self.policy.degrade {
            DegradePolicy::Fail => {
                self.record(PlatformError::RetryBudgetExhausted {
                    pe: self.pe,
                    channel: ch,
                    attempts,
                    kind: BlockKind::Recv,
                    idle: self.idle_since(ch.0),
                });
                None
            }
            DegradePolicy::Skip => {
                self.emit(ProbeKind::FaultDegraded {
                    channel: ch,
                    substituted: false,
                });
                self.chans[ch.0].recv_seq = self.chans[ch.0].recv_seq.wrapping_add(1);
                Some(Token::Owned(Vec::new()))
            }
            DegradePolicy::Substitute => {
                self.emit(ProbeKind::FaultDegraded {
                    channel: ch,
                    substituted: true,
                });
                let c = &mut self.chans[ch.0];
                c.recv_seq = c.recv_seq.wrapping_add(1);
                Some(Token::Owned(vec![0u8; c.last_len]))
            }
        }
    }
}

/// Maps a non-transient transport failure to the platform error space
/// using the *logical* channel numbers.
fn map_terminal(
    ch: ChannelId,
    logical_bytes: usize,
    err: &TransportError,
    specs: &[ChannelSpec],
) -> PlatformError {
    match err {
        TransportError::TooLarge { bytes, .. } => PlatformError::MessageExceedsCapacity {
            channel: ch,
            bytes: bytes.saturating_sub(FRAME_HEADER_BYTES).max(logical_bytes),
            capacity: specs[ch.0].capacity_bytes,
        },
        other => PlatformError::ChannelFault {
            channel: ch,
            detail: other.to_string(),
        },
    }
}

/// Executes `programs` under supervision over already-instantiated
/// (framed, possibly fault-decorated) `endpoints`.
pub(crate) fn run_supervised(
    policy: SupervisionPolicy,
    specs: &[ChannelSpec],
    endpoints: &[Box<dyn Transport>],
    programs: Vec<Program>,
    probe: Option<&dyn Tracer>,
) -> Result<Vec<ThreadedPeResult>> {
    let fault: Mutex<Option<PlatformError>> = Mutex::new(None);
    let results: Mutex<Vec<Option<ThreadedPeResult>>> =
        Mutex::new((0..programs.len()).map(|_| None).collect());
    let n_chans = specs.len();

    crate::shim::scope(|scope| {
        for (idx, mut program) in programs.into_iter().enumerate() {
            let fault = &fault;
            let results = &results;
            let labels = intern_labels(probe, &program);
            let mut ctx = PeCtx {
                pe: PeId(idx),
                policy,
                specs,
                endpoints,
                probe,
                fault,
                started: crate::shim::now(),
                chans: vec![ChanState::default(); n_chans],
                restarts: 0,
            };
            scope.spawn_named(format!("pe{idx}"), move || {
                ctx.started = crate::shim::now();
                let mut local = PeLocal::default();
                let mut prologue = std::mem::take(&mut program.prologue);
                let mut aborted = false;
                // Prologue ops are supervised but outside the
                // checkpoint/restart loop: a panic here is fatal.
                for (i, op) in prologue.iter_mut().enumerate() {
                    let label = labels.prologue.get(i).copied().unwrap_or(0);
                    match sup_op(&mut ctx, op, label, &mut local) {
                        OpOutcome::Ok => {}
                        OpOutcome::Abort => {
                            aborted = true;
                            break;
                        }
                        OpOutcome::Panicked => {
                            // No checkpoint exists before the first
                            // iteration boundary, so a prologue panic
                            // cannot be replayed.
                            ctx.record(PlatformError::RestartBudgetExhausted {
                                pe: ctx.pe,
                                restarts: 0,
                                iter: 0,
                            });
                            aborted = true;
                            break;
                        }
                    }
                }
                if !aborted {
                    // Checkpoint and replay buffers live outside the
                    // iteration loop so `clone_from`/`clear` reuse
                    // their allocations on the fault-free hot path.
                    let mut ckpt_store = local.store.clone();
                    let mut ckpt_bufs = local.bufs.clone();
                    let mut ckpt_inbox = local.inbox.clone();
                    // Replay entries are deep copies (`Token::clone`),
                    // so a pooled lease delivered to the inbox never
                    // has its slot pinned by the log.
                    let mut replay: Vec<(ChannelId, Token)> = Vec::new();
                    'iters: for iter in 0..program.iterations {
                        local.iter = iter;
                        // Iteration-boundary checkpoint: the functional
                        // state a restart rolls back to.
                        ckpt_store.clone_from(&local.store);
                        ckpt_bufs.clone_from(&local.bufs);
                        ckpt_inbox.clone_from(&local.inbox);
                        replay.clear();
                        let mut sends_done: usize = 0;
                        'attempt: loop {
                            let mut send_skip = sends_done;
                            let mut replay_cursor = 0usize;
                            for (i, op) in program.ops.iter_mut().enumerate() {
                                let label = labels.ops.get(i).copied().unwrap_or(0);
                                let outcome = match op {
                                    Op::Send { channel, payload } => {
                                        let ch = *channel;
                                        let data = payload(&mut local);
                                        let outcome = if send_skip > 0 {
                                            // Already transmitted before
                                            // the rollback; the payload
                                            // closure re-ran (determinism)
                                            // but nothing is re-sent, so
                                            // occupancy stays bounded.
                                            send_skip -= 1;
                                            OpOutcome::Ok
                                        } else if ctx.sup_send(ch, &data) {
                                            sends_done += 1;
                                            OpOutcome::Ok
                                        } else {
                                            OpOutcome::Abort
                                        };
                                        local.recycle(data);
                                        outcome
                                    }
                                    Op::Recv { channel } => {
                                        let ch = *channel;
                                        if replay_cursor < replay.len() {
                                            let (rch, data) = replay[replay_cursor].clone();
                                            replay_cursor += 1;
                                            local.inbox.push_back((rch, data));
                                            OpOutcome::Ok
                                        } else {
                                            match ctx.sup_recv(ch) {
                                                Some(data) => {
                                                    replay.push((ch, data.clone()));
                                                    replay_cursor += 1;
                                                    local.inbox.push_back((ch, data));
                                                    OpOutcome::Ok
                                                }
                                                None => OpOutcome::Abort,
                                            }
                                        }
                                    }
                                    _ => sup_op(&mut ctx, op, label, &mut local),
                                };
                                match outcome {
                                    OpOutcome::Ok => {}
                                    OpOutcome::Abort => break 'iters,
                                    OpOutcome::Panicked => {
                                        if ctx.restarts < ctx.policy.max_restarts {
                                            ctx.restarts += 1;
                                            ctx.emit(ProbeKind::FaultRestart { iter });
                                            local.store.clone_from(&ckpt_store);
                                            local.bufs.clone_from(&ckpt_bufs);
                                            local.inbox.clone_from(&ckpt_inbox);
                                            continue 'attempt;
                                        }
                                        ctx.record(PlatformError::RestartBudgetExhausted {
                                            pe: ctx.pe,
                                            restarts: ctx.restarts,
                                            iter,
                                        });
                                        break 'iters;
                                    }
                                }
                            }
                            break 'attempt;
                        }
                    }
                }
                results.lock().expect("results lock")[idx] = Some(ThreadedPeResult {
                    store: std::mem::take(&mut local.store),
                    leftover_inbox: local.inbox.len(),
                });
            });
        }
    });

    if let Some(err) = fault.into_inner().expect("fault lock") {
        return Err(err);
    }
    Ok(results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every PE thread stores a result"))
        .collect())
}

/// Outcome of one supervised op.
enum OpOutcome {
    Ok,
    /// A terminal fault was recorded; the PE stops.
    Abort,
    /// A compute closure panicked; the caller decides restart vs fail.
    Panicked,
}

/// Executes compute/wait ops (and prologue sends/receives) with panic
/// capture. Channel ops inside the iteration loop are handled inline by
/// the caller, which owns the replay bookkeeping.
fn sup_op(ctx: &mut PeCtx<'_>, op: &mut Op, label: u32, local: &mut PeLocal) -> OpOutcome {
    match op {
        Op::Compute { work, .. } => {
            ctx.emit(ProbeKind::FiringBegin { label });
            let result = catch_unwind(AssertUnwindSafe(|| work(local)));
            match result {
                Ok(_cycles) => {
                    ctx.emit(ProbeKind::FiringEnd { label });
                    OpOutcome::Ok
                }
                Err(_) => OpOutcome::Panicked,
            }
        }
        Op::Send { channel, payload } => {
            let ch = *channel;
            let data = payload(local);
            let sent = ctx.sup_send(ch, &data);
            local.recycle(data);
            if sent {
                OpOutcome::Ok
            } else {
                OpOutcome::Abort
            }
        }
        Op::Recv { channel } => match ctx.sup_recv(*channel) {
            Some(data) => {
                local.inbox.push_back((*channel, data));
                OpOutcome::Ok
            }
            None => OpOutcome::Abort,
        },
        Op::WaitUntil { .. } => OpOutcome::Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_software_matches_ieee_vectors() {
        // Standard IEEE CRC-32 check values for the portable path.
        assert_eq!(crc32_sw(b""), 0);
        assert_eq!(crc32_sw(b"123456789"), 0xCBF4_3926);
        // The 9-byte vector exercises only the bytewise tail; check a
        // long input against a independently computed reference too.
        let buf: Vec<u8> = (0..512u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut want = !0u32;
        for &b in &buf {
            want ^= u32::from(b);
            for _ in 0..8 {
                want = if want & 1 != 0 {
                    0xEDB8_8320 ^ (want >> 1)
                } else {
                    want >> 1
                };
            }
        }
        assert_eq!(crc32_sw(&buf), !want);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_hardware_matches_crc32c_vectors() {
        if !std::is_x86_feature_detected!("sse4.2") {
            return;
        }
        // Standard CRC-32C (Castagnoli) check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let frame = encode_frame(7, b"payload");
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + 7);
        let (seq, payload) = decode_frame(&frame).unwrap();
        assert_eq!((seq, payload), (7, b"payload".as_slice()));

        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x5A;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadCrc));

        assert_eq!(decode_frame(&frame[..4]), Err(FrameError::Truncated));

        // Zero-length payloads frame cleanly.
        let empty = encode_frame(0, b"");
        assert_eq!(decode_frame(&empty).unwrap(), (0, b"".as_slice()));
    }

    #[test]
    fn framed_spec_preserves_slot_count() {
        let spec = ChannelSpec {
            capacity_bytes: 64,
            max_message_bytes: 16,
            ..ChannelSpec::default()
        };
        let framed = framed_spec(&spec);
        assert_eq!(framed.max_message_bytes, 24);
        assert_eq!(framed.capacity_bytes, 64 + 4 * 8);
        assert_eq!(
            framed.capacity_bytes / framed.max_message_bytes,
            spec.capacity_bytes / spec.max_message_bytes,
            "token bound Γ + delay(e) must be unchanged"
        );

        // Undeclared bound: whole channel treated as one message.
        let raw = ChannelSpec {
            capacity_bytes: 32,
            ..ChannelSpec::default()
        };
        let framed = framed_spec(&raw);
        assert_eq!(framed.capacity_bytes, 40);
        assert_eq!(framed.max_message_bytes, 40);
    }

    #[test]
    fn policy_defaults_are_strict() {
        let p = SupervisionPolicy::default();
        assert_eq!(p.degrade, DegradePolicy::Fail);
        assert_eq!(p.max_retries, 3);
        let p = SupervisionPolicy::retry(5)
            .with_deadline(Duration::from_millis(50))
            .with_degrade(DegradePolicy::Substitute)
            .with_restarts(2);
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.op_deadline, Duration::from_millis(50));
        assert_eq!(p.degrade, DegradePolicy::Substitute);
        assert_eq!(p.max_restarts, 2);
    }
}
