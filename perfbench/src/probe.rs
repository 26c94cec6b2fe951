//! Spans taken from outside the library, through its public seams only:
//!
//! 1. [`TimedTransport`], a [`Transport`] decorator wrapped around every
//!    endpoint handed to `ThreadedRunner::run_with_endpoints`;
//! 2. wrapped `Op::Compute` and `Op::Send` payload closures in the
//!    lowered [`Program`]s ([`instrument_programs`]);
//! 3. benchmark-side [`Tracer`]s: [`TimedTracer`] times
//!    `RingTracer::record`, [`FlushTracer`] counts `BatchFlush` probes
//!    from `NetSender::set_probe`.
//!
//! [`CountingStream`] additionally counts the credit-ack records a
//! `NetReceiver` writes back over its socket.

use std::io::{IoSlice, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spi_net::NetStream;
use spi_platform::{
    BufferPool, FlushReason, Op, PeId, ProbeKind, Program, Token, Tracer, Transport, TransportError,
};
use spi_trace::RingTracer;

use crate::stats::Hist;

/// Layer-budget rows. Spans of different rows never nest, so their
/// sums plus the residual add up to PE wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// `Op::Send` payload closures and the lowering's `spi:*` ops.
    Spi,
    /// Actor firings (`fire:*` compute closures): the kernels plus the
    /// SPI header decode/encode the lowering runs inside them.
    Dsp,
    /// In-process endpoint calls (ring/pointer hop, pool lease, waits).
    Transport,
    /// Socket endpoint calls (`spi_net` sender/receiver, waits).
    Net,
    /// `Tracer::record` calls.
    Trace,
}

impl Row {
    /// All rows, in budget-table order.
    pub const ALL: [Row; 5] = [Row::Spi, Row::Dsp, Row::Transport, Row::Net, Row::Trace];

    /// The layer name the row reports under.
    pub fn name(self) -> &'static str {
        match self {
            Row::Spi => "spi",
            Row::Dsp => "dsp",
            Row::Transport => "platform.transport",
            Row::Net => "net",
            Row::Trace => "trace",
        }
    }
}

/// Call count, summed duration and duration histogram of one span site.
/// Cache-line aligned (two lines, for the adjacent-line prefetcher):
/// span sites of different PEs are registered back to back, and a
/// shared line would bounce between the PEs on every call.
#[derive(Default)]
#[repr(align(128))]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
    hist: Hist,
}

impl Span {
    /// Records one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.hist.record(ns);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Duration histogram.
    pub fn hist(&self) -> &Hist {
        &self.hist
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

struct Entry {
    pe: usize,
    row: Row,
    key: String,
    span: Arc<Span>,
}

/// Wall time and op count of one PE, accumulated over traced rounds.
#[derive(Default)]
pub struct PeWall {
    start_ns: AtomicU64,
    wall_ns: AtomicU64,
    ops: AtomicU64,
}

impl PeWall {
    /// Nanoseconds from the PE's first prologue op to the end of its
    /// last iteration, summed over rounds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns.load(Ordering::Relaxed)
    }

    /// Program ops executed (prologue plus loop body, markers excluded).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

/// Messages and bytes sent on one channel, with the PEs at its ends.
/// Written only by the sending PE; aligned like [`Span`].
#[repr(align(128))]
pub struct ChannelTap {
    /// Global PE that sends on the channel.
    pub sender: usize,
    /// Global PE that receives from it.
    pub receiver: usize,
    /// Whether this is a data edge (not an acknowledgement channel).
    pub data: bool,
    msgs: AtomicU64,
    bytes: AtomicU64,
    occupancy_sum: AtomicU64,
}

impl ChannelTap {
    /// Messages successfully sent.
    pub fn msgs(&self) -> u64 {
        self.msgs.load(Ordering::Relaxed)
    }

    /// Mean message size in bytes (as the endpoint saw it).
    pub fn mean_bytes(&self) -> f64 {
        self.bytes.load(Ordering::Relaxed) as f64 / self.msgs().max(1) as f64
    }
}

/// Pooled leases seen by a receiving PE.
#[derive(Default)]
pub struct PoolTap {
    /// `recv_token` calls that returned a pooled lease.
    pub lease: Span,
    available_min: AtomicU64,
}

/// `BatchFlush` tallies from [`FlushTracer`].
#[derive(Default)]
pub struct FlushStats {
    /// Flushes observed.
    pub count: AtomicU64,
    /// Records carried by all flushes.
    pub msgs: AtomicU64,
    /// Flushes per [`FlushReason`] code (full, window, deadline,
    /// hungry, final).
    pub reasons: [AtomicU64; 5],
}

/// Everything the traced rounds of one run record.
pub struct Probe {
    epoch: Instant,
    entries: Mutex<Vec<Entry>>,
    /// Per global PE.
    pub pes: Vec<PeWall>,
    taps: Mutex<Vec<Arc<ChannelTap>>>,
    /// Pooled leases (pointer transport).
    pub pool: PoolTap,
    /// `BatchFlush` probes from batched socket senders.
    pub flush: Arc<FlushStats>,
    /// Credit-ack records written by socket receivers.
    pub ack_records: Arc<AtomicU64>,
    retries: AtomicU64,
}

impl Probe {
    /// A probe for `pes` global PEs.
    pub fn new(pes: usize) -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            entries: Mutex::new(Vec::new()),
            pes: (0..pes).map(|_| PeWall::default()).collect(),
            taps: Mutex::new(Vec::new()),
            pool: PoolTap {
                lease: Span::default(),
                available_min: AtomicU64::new(u64::MAX),
            },
            flush: Arc::new(FlushStats::default()),
            ack_records: Arc::new(AtomicU64::new(0)),
            retries: AtomicU64::new(0),
        })
    }

    /// Registers a new span site for `pe` under `row` and metric `key`.
    pub fn span(&self, pe: usize, row: Row, key: &str) -> Arc<Span> {
        let span = Arc::new(Span::default());
        self.entries.lock().expect("entries").push(Entry {
            pe,
            row,
            key: key.to_string(),
            span: Arc::clone(&span),
        });
        span
    }

    fn now_ns(&self) -> u64 {
        elapsed_ns(self.epoch)
    }

    /// `(calls, ns)` summed over every span site registered under `key`,
    /// plus a histogram merging all of them.
    pub fn by_key(&self, key: &str) -> (u64, u64, Hist) {
        let hist = Hist::default();
        let (mut calls, mut ns) = (0, 0);
        for e in self.entries.lock().expect("entries").iter() {
            if e.key == key {
                calls += e.span.calls();
                ns += e.span.ns();
                hist.merge(e.span.hist());
            }
        }
        (calls, ns, hist)
    }

    /// Span nanoseconds of `row` on `pe`.
    pub fn row_ns(&self, pe: usize, row: Row) -> u64 {
        self.entries
            .lock()
            .expect("entries")
            .iter()
            .filter(|e| e.pe == pe && e.row == row)
            .map(|e| e.span.ns())
            .sum()
    }

    /// Channel taps of every instrumented endpoint so far.
    pub fn taps(&self) -> Vec<Arc<ChannelTap>> {
        self.taps.lock().expect("taps").clone()
    }

    /// Mean data-edge occupancy (messages) sampled after each send.
    pub fn occupancy_mean(&self) -> f64 {
        let taps = self.taps();
        let data = taps.iter().filter(|t| t.data);
        let (sum, n) = data.fold((0, 0), |(s, n), t| {
            (s + t.occupancy_sum.load(Ordering::Relaxed), n + t.msgs())
        });
        sum as f64 / n.max(1) as f64
    }

    /// Fewest free pool slots seen at a lease; `None` without a pool.
    pub fn pool_available_min(&self) -> Option<u64> {
        match self.pool.available_min.load(Ordering::Relaxed) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// `FaultRetry` probes seen by [`TimedTracer`].
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Seam 1: the timing Transport decorator
// ---------------------------------------------------------------------

/// Forwards every [`Transport`] method to the wrapped endpoint, timing
/// the send-side and receive-side calls. Token and pool methods are
/// forwarded too, so a pointer transport keeps handing out pooled
/// leases instead of falling back to the trait's copying defaults.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    send: Arc<Span>,
    recv: Arc<Span>,
    tap: Arc<ChannelTap>,
    probe: Arc<Probe>,
    data: bool,
}

impl TimedTransport {
    /// Wraps channel endpoint `inner`, whose sends run on global PE
    /// `sender` and receives on `receiver`. `data` marks a data edge
    /// (occupancy is sampled there, not on ack channels).
    pub fn wrap(
        inner: Box<dyn Transport>,
        probe: &Arc<Probe>,
        row: Row,
        (sender, receiver): (usize, usize),
        data: bool,
    ) -> Box<dyn Transport> {
        let layer = row.name();
        let tap = Arc::new(ChannelTap {
            sender,
            receiver,
            data,
            msgs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            occupancy_sum: AtomicU64::new(0),
        });
        probe.taps.lock().expect("taps").push(Arc::clone(&tap));
        Box::new(TimedTransport {
            inner,
            send: probe.span(sender, row, &format!("{layer}.send")),
            recv: probe.span(receiver, row, &format!("{layer}.recv")),
            tap,
            probe: Arc::clone(probe),
            data,
        })
    }

    fn sent(
        &self,
        res: Result<(), TransportError>,
        bytes: usize,
        t: Instant,
    ) -> Result<(), TransportError> {
        self.send.add(elapsed_ns(t));
        if res.is_ok() {
            self.tap.msgs.fetch_add(1, Ordering::Relaxed);
            self.tap.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            if self.data {
                let occupancy = self.inner.snapshot().1 as u64;
                self.tap
                    .occupancy_sum
                    .fetch_add(occupancy, Ordering::Relaxed);
            }
        }
        res
    }

    fn received<T>(&self, res: Result<T, TransportError>, t: Instant) -> Result<T, TransportError> {
        self.recv.add(elapsed_ns(t));
        res
    }

    fn received_token(
        &self,
        res: Result<Token, TransportError>,
        t: Instant,
    ) -> Result<Token, TransportError> {
        let ns = elapsed_ns(t);
        self.recv.add(ns);
        if let (Ok(token), Some(pool)) = (&res, self.inner.pool()) {
            if token.is_pooled() {
                let tap = &self.probe.pool;
                tap.lease.add(ns);
                tap.available_min
                    .fetch_min(pool.available() as u64, Ordering::Relaxed);
            }
        }
        res
    }
}

impl Transport for TimedTransport {
    fn capacity_bytes(&self) -> usize {
        self.inner.capacity_bytes()
    }
    fn max_message_bytes(&self) -> usize {
        self.inner.max_message_bytes()
    }
    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn snapshot(&self) -> (usize, usize) {
        self.inner.snapshot()
    }
    fn send(&self, data: &[u8], timeout: Duration) -> Result<(), TransportError> {
        let t = Instant::now();
        self.sent(self.inner.send(data, timeout), data.len(), t)
    }
    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        let t = Instant::now();
        self.sent(self.inner.try_send(data), data.len(), t)
    }
    fn recv(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let t = Instant::now();
        self.received(self.inner.recv(timeout), t)
    }
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        let t = Instant::now();
        self.received(self.inner.try_recv(), t)
    }
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let t = Instant::now();
        self.sent(self.inner.send_with(len, fill, timeout), len, t)
    }
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let t = Instant::now();
        self.received(self.inner.recv_with(consume, timeout), t)
    }
    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let mut len = 0;
        let mut counted = |buf: &mut [u8]| {
            len = frame(buf);
            len
        };
        let t = Instant::now();
        let res = self.inner.send_in_place(max_len, &mut counted, timeout);
        self.sent(res, len, t)
    }
    fn send_token(&self, token: Token, timeout: Duration) -> Result<(), TransportError> {
        let len = token.len();
        let t = Instant::now();
        self.sent(self.inner.send_token(token, timeout), len, t)
    }
    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        let t = Instant::now();
        self.received_token(self.inner.recv_token(timeout), t)
    }
    fn try_send_token(&self, token: Token) -> Result<(), TransportError> {
        let len = token.len();
        let t = Instant::now();
        self.sent(self.inner.try_send_token(token), len, t)
    }
    fn try_recv_token(&self) -> Result<Token, TransportError> {
        let t = Instant::now();
        self.received_token(self.inner.try_recv_token(), t)
    }
    fn pool(&self) -> Option<&BufferPool> {
        self.inner.pool()
    }
}

/// The global PEs at the two ends of every channel, read off the
/// programs: the one whose program sends on it and the one receiving.
pub fn channel_ends(nodes: &[(usize, &[Program])], channels: usize) -> Vec<(usize, usize)> {
    let mut ends = vec![(usize::MAX, usize::MAX); channels];
    for &(first_pe, programs) in nodes {
        for (i, p) in programs.iter().enumerate() {
            for op in p.prologue.iter().chain(&p.ops) {
                match op {
                    Op::Send { channel, .. } => ends[channel.0].0 = first_pe + i,
                    Op::Recv { channel } => ends[channel.0].1 = first_pe + i,
                    _ => {}
                }
            }
        }
    }
    ends
}

// ---------------------------------------------------------------------
// Seam 2: wrapped Op closures
// ---------------------------------------------------------------------

/// The metric suffix of a firing label `fire:<actor>#<k>`: the actor
/// name after its last `:` (`fire:B:fft#0` → `fft`, `fire:D0:error#0`
/// → `error`).
pub fn actor_key(label: &str) -> Option<&str> {
    let actor = label.strip_prefix("fire:")?.split('#').next()?;
    actor.rsplit(':').next()
}

fn wrap_compute(op: &mut Op, span: Arc<Span>) {
    if let Op::Compute { work, .. } = op {
        let mut inner = std::mem::replace(work, Box::new(|_| 0));
        *work = Box::new(move |l| {
            let t = Instant::now();
            let cycles = inner(l);
            span.add(elapsed_ns(t));
            cycles
        });
    }
}

fn wrap_ops(ops: &mut [Op], pe: usize, probe: &Probe) {
    for op in ops {
        match op {
            Op::Compute { label, .. } => {
                let (row, key) = match actor_key(label) {
                    Some(actor) => (Row::Dsp, format!("dsp.compute_ns.{actor}")),
                    None => (Row::Spi, "spi.compute".to_string()),
                };
                let span = probe.span(pe, row, &key);
                wrap_compute(op, span);
            }
            Op::Send { payload, .. } => {
                let span = probe.span(pe, Row::Spi, "spi.payload");
                let mut inner = std::mem::replace(payload, Box::new(|_| Vec::new()));
                *payload = Box::new(move |l| {
                    let t = Instant::now();
                    let bytes = inner(l);
                    span.add(elapsed_ns(t));
                    bytes
                });
            }
            Op::Recv { .. } | Op::WaitUntil { .. } => {}
        }
    }
}

/// Wraps every compute and payload closure of `programs` (global PEs
/// `first_pe..`) in spans, and brackets each program with wall-clock
/// marks: one op before the prologue, one after the loop body that
/// closes the PE's wall time on the last iteration.
pub fn instrument_programs(programs: &mut [Program], first_pe: usize, probe: &Arc<Probe>) {
    for (i, program) in programs.iter_mut().enumerate() {
        let pe = first_pe + i;
        wrap_ops(&mut program.prologue, pe, probe);
        wrap_ops(&mut program.ops, pe, probe);
        let ops = program.prologue.len() as u64 + program.ops.len() as u64 * program.iterations;
        probe.pes[pe].ops.fetch_add(ops, Ordering::Relaxed);

        let start_probe = Arc::clone(probe);
        program.prologue.insert(
            0,
            Op::Compute {
                label: "bench:start".into(),
                work: Box::new(move |_| {
                    let now = start_probe.now_ns();
                    start_probe.pes[pe].start_ns.store(now, Ordering::Relaxed);
                    0
                }),
            },
        );
        let end_probe = Arc::clone(probe);
        let last = program.iterations.saturating_sub(1);
        program.ops.push(Op::Compute {
            label: "bench:end".into(),
            work: Box::new(move |l| {
                if l.iter == last {
                    let w = &end_probe.pes[pe];
                    let wall = end_probe.now_ns() - w.start_ns.load(Ordering::Relaxed);
                    w.wall_ns.fetch_add(wall, Ordering::Relaxed);
                }
                0
            }),
        });
    }
}

// ---------------------------------------------------------------------
// Seam 3: benchmark-side tracers
// ---------------------------------------------------------------------

/// A [`RingTracer`] whose `record` calls are timed per PE.
pub struct TimedTracer {
    inner: RingTracer,
    probe: Arc<Probe>,
    spans: Vec<Arc<Span>>,
}

impl TimedTracer {
    /// A capture for the runner PEs `first_pe..first_pe + pes`, with
    /// room for `events_per_pe` events each.
    pub fn new(probe: &Arc<Probe>, first_pe: usize, pes: usize, events_per_pe: usize) -> Self {
        TimedTracer {
            inner: RingTracer::new(pes, events_per_pe),
            probe: Arc::clone(probe),
            spans: (0..pes)
                .map(|i| probe.span(first_pe + i, Row::Trace, "trace.record"))
                .collect(),
        }
    }

    /// Clears the capture for the next round.
    pub fn reset(&self) {
        self.inner.reset();
    }
}

impl Tracer for TimedTracer {
    fn enabled(&self) -> bool {
        true
    }
    fn intern(&self, label: &str) -> u32 {
        self.inner.intern(label)
    }
    fn record(&self, pe: PeId, ts: u64, kind: ProbeKind) {
        if matches!(kind, ProbeKind::FaultRetry { .. }) {
            self.probe.retries.fetch_add(1, Ordering::Relaxed);
        }
        let t = Instant::now();
        self.inner.record(pe, ts, kind);
        if let Some(span) = self.spans.get(pe.0) {
            span.add(elapsed_ns(t));
        }
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
}

/// Counts the `BatchFlush` probes a batched `NetSender` emits. Flushes
/// also run on the sender's helper thread, so they are tallied, not
/// timed into any PE's budget.
pub struct FlushTracer(pub Arc<FlushStats>);

impl Tracer for FlushTracer {
    fn enabled(&self) -> bool {
        true
    }
    fn intern(&self, _label: &str) -> u32 {
        0
    }
    fn record(&self, _pe: PeId, _ts: u64, kind: ProbeKind) {
        if let ProbeKind::BatchFlush { msgs, reason, .. } = kind {
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.msgs.fetch_add(u64::from(msgs), Ordering::Relaxed);
            let code = (reason.code() as usize).min(4);
            self.0.reasons[code].fetch_add(1, Ordering::Relaxed);
        }
    }
    fn now(&self) -> u64 {
        0
    }
}

/// Flush reasons in [`FlushStats::reasons`] order.
pub const FLUSH_REASONS: [FlushReason; 5] = [
    FlushReason::Full,
    FlushReason::Window,
    FlushReason::Deadline,
    FlushReason::Hungry,
    FlushReason::Final,
];

/// A socket stream that counts `flush` calls. A `NetReceiver` flushes
/// once per credit-ack record it writes back, so wrapping the receiver's
/// end of a socketpair counts acks without touching the wire format.
pub struct CountingStream {
    inner: UnixStream,
    flushes: Arc<AtomicU64>,
}

impl CountingStream {
    /// Wraps `inner`, counting flushes into `flushes`.
    pub fn new(inner: UnixStream, flushes: Arc<AtomicU64>) -> Self {
        CountingStream { inner, flushes }
    }
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.inner.write_vectored(bufs)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

impl NetStream for CountingStream {
    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(CountingStream {
            inner: self.inner.try_clone()?,
            flushes: Arc::clone(&self.flushes),
        })
    }
    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        self.inner.shutdown(how)
    }
}

/// Median cost of one empty span (a pair of clock reads), which every
/// per-call figure above includes once.
pub fn clock_pair_ns() -> f64 {
    let h = Hist::default();
    for _ in 0..20_000 {
        let t = Instant::now();
        h.record(elapsed_ns(t));
    }
    h.quantile(0.5)
}
