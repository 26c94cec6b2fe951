//! Threaded functional runner — a concurrency cross-check for the DES.
//!
//! The discrete-event engine in [`crate::sim`] is deterministic; this
//! runner executes the *same* PE programs on real OS threads connected by
//! pluggable [`Transport`] channels. It carries no notion of simulated
//! time — its purpose is to validate that protocol logic (blocking sends
//! and receives, message ordering per channel) is correct under genuine
//! parallel, racy execution, not just under the event queue's
//! serialization. Integration tests run both engines on the same
//! programs and compare the functional outputs.
//!
//! Channel capacity is accounted in **bytes**, matching the DES and the
//! paper's eq. (2) buffer bounds. The transport implementation is chosen
//! per run via [`ThreadedRunner::transport`]: the `Mutex`+`Condvar`
//! reference queue, or the lock-free ring sized to the static bound.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::{BlockKind, BlockedOp, PlatformError, Result};
use crate::pool::Token;
use crate::sim::{ChannelId, ChannelSpec, Op, PeId, PeLocal, Program};
use crate::supervise::{framed_spec, run_supervised, SupervisionPolicy};
use crate::trace::{payload_digest, ProbeKind, Tracer};
use crate::transport::{Transport, TransportError, TransportKind};

/// A hook wrapping each channel's [`Transport`] after instantiation —
/// the seam fault injectors (`spi-fault`) and other instrumenting
/// decorators plug into. Called once per channel with the channel id
/// and the transport the runner built (the framed transport when
/// supervision is on, so injected corruption hits real frame bytes).
pub type TransportDecorator =
    dyn Fn(ChannelId, Box<dyn Transport>) -> Box<dyn Transport> + Send + Sync;

/// Default bound on every blocking channel operation before the runner
/// declares a deadlock. Generous: real systems block for microseconds,
/// so half a minute of no progress is unambiguous even on a loaded CI
/// machine.
pub const DEFAULT_DEADLOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared log of blocking channel ops that hit their deadline:
/// `(pe, channel, direction, idle time since last progress)`.
type TimedOutLog = Mutex<Vec<(PeId, ChannelId, BlockKind, Option<Duration>)>>;

/// Functional result of one PE's threaded execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadedPeResult {
    /// Final keyed store of the PE.
    pub store: HashMap<String, Vec<u8>>,
    /// Messages left unconsumed in the PE's inbox.
    pub leftover_inbox: usize,
}

/// Builder-style configuration for threaded execution.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use spi_platform::{ChannelSpec, ChannelId, Op, Program, ThreadedRunner, TransportKind};
///
/// let channels = vec![ChannelSpec::default()];
/// let producer = Program::new(vec![Op::Send {
///     channel: ChannelId(0),
///     payload: Box::new(|_| vec![42u8; 4]),
/// }], 3);
/// let consumer = Program::new(vec![Op::Recv { channel: ChannelId(0) }], 3);
/// let results = ThreadedRunner::new()
///     .transport(TransportKind::Ring)
///     .timeout(Duration::from_secs(5))
///     .run(&channels, vec![producer, consumer])?;
/// assert_eq!(results[1].leftover_inbox, 3);
/// # Ok::<(), spi_platform::PlatformError>(())
/// ```
#[derive(Clone)]
pub struct ThreadedRunner {
    kind: TransportKind,
    timeout: Duration,
    tracer: Option<Arc<dyn Tracer>>,
    supervision: Option<SupervisionPolicy>,
    decorator: Option<Arc<TransportDecorator>>,
}

impl fmt::Debug for ThreadedRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedRunner")
            .field("kind", &self.kind)
            .field("timeout", &self.timeout)
            .field("tracer", &self.tracer.is_some())
            .field("supervision", &self.supervision)
            .field("decorator", &self.decorator.is_some())
            .finish()
    }
}

impl Default for ThreadedRunner {
    fn default() -> Self {
        ThreadedRunner {
            kind: TransportKind::default(),
            timeout: DEFAULT_DEADLOCK_TIMEOUT,
            tracer: None,
            supervision: None,
            decorator: None,
        }
    }
}

impl ThreadedRunner {
    /// A runner with the default transport ([`TransportKind::Ring`])
    /// and deadlock timeout ([`DEFAULT_DEADLOCK_TIMEOUT`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the transport implementation used for every channel.
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the deadlock timeout bounding each blocking channel
    /// operation.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attaches a [`Tracer`] probe sink: every PE thread emits firing
    /// begin/end, send/receive (with payload digest and post-op channel
    /// occupancy) and block/unblock events through it, timestamped with
    /// [`Tracer::now`] (monotonic nanoseconds). Blocking detection works
    /// by attempting the non-blocking variant first, so a tracer whose
    /// [`Tracer::enabled`] is `false` keeps the untraced fast path.
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables supervised execution: every message travels in a
    /// CRC-checked, sequence-numbered frame; transient channel failures
    /// (injected faults, per-op deadline misses) are retried with
    /// exponential backoff inside the policy's budgets; unrecoverable
    /// tokens are degraded per [`crate::DegradePolicy`]; and a compute
    /// closure that panics rolls its PE back to the iteration-boundary
    /// checkpoint and replays (receives from a local log, transmitted
    /// sends not re-sent), up to the restart budget. All fault handling
    /// is emitted through the attached [`Tracer`] as `Fault*` events.
    ///
    /// Under supervision, the policy's `op_deadline` replaces the
    /// runner [`ThreadedRunner::timeout`] for channel operations, and
    /// block/unblock probe events are not emitted (retry events take
    /// their place).
    #[must_use]
    pub fn supervise(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Installs a [`TransportDecorator`] wrapping each channel's
    /// transport after instantiation — the hook `spi-fault` uses to
    /// inject deterministic faults on selected edges.
    #[must_use]
    pub fn decorate_transports(mut self, decorator: Arc<TransportDecorator>) -> Self {
        self.decorator = Some(decorator);
        self
    }

    /// The configured transport kind.
    pub fn transport_kind(&self) -> TransportKind {
        self.kind
    }

    /// The configured deadlock timeout.
    pub fn deadlock_timeout(&self) -> Duration {
        self.timeout
    }

    /// Executes `programs` on OS threads over `channels`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Deadlock`] once any thread's blocking operation
    /// times out; [`PlatformError::MessageExceedsCapacity`] when a
    /// payload exceeds the channel's per-message bound;
    /// [`PlatformError::ZeroCapacity`] for unusable channels.
    pub fn run(
        &self,
        channels: &[ChannelSpec],
        programs: Vec<Program>,
    ) -> Result<Vec<ThreadedPeResult>> {
        for (i, c) in channels.iter().enumerate() {
            if c.capacity_bytes == 0 {
                return Err(PlatformError::ZeroCapacity {
                    channel: ChannelId(i),
                });
            }
        }
        let endpoints: Vec<Box<dyn Transport>> = channels
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Supervision inflates the physical spec by one frame
                // header per slot; the decorator wraps the result so
                // injected corruption hits real frame bytes.
                let transport = match self.supervision {
                    Some(_) => self.kind.instantiate(&framed_spec(c)),
                    None => self.kind.instantiate(c),
                };
                match &self.decorator {
                    Some(d) => d(ChannelId(i), transport),
                    None => transport,
                }
            })
            .collect();
        self.run_with_endpoints(channels, endpoints, programs)
    }

    /// As [`ThreadedRunner::run`], over **pre-built** channel endpoints
    /// instead of transports instantiated from the configured
    /// [`TransportKind`] — the seam a distributed deployment (`spi-net`)
    /// uses to mix in-memory rings for intra-node channels with socket
    /// endpoints for cross-node channels. `endpoints[i]` serves
    /// `ChannelId(i)`; `channels` still describes the logical specs (for
    /// supervision bookkeeping and the zero-capacity guard). Under
    /// supervision the caller must size each endpoint with
    /// [`crate::framed_spec`]; the configured transport decorator is
    /// *not* applied here — callers wrap endpoints themselves.
    ///
    /// # Errors
    ///
    /// As [`ThreadedRunner::run`].
    pub fn run_with_endpoints(
        &self,
        channels: &[ChannelSpec],
        endpoints: Vec<Box<dyn Transport>>,
        programs: Vec<Program>,
    ) -> Result<Vec<ThreadedPeResult>> {
        for (i, c) in channels.iter().enumerate() {
            if c.capacity_bytes == 0 {
                return Err(PlatformError::ZeroCapacity {
                    channel: ChannelId(i),
                });
            }
        }
        assert_eq!(
            channels.len(),
            endpoints.len(),
            "one endpoint per channel spec"
        );
        let timeout = self.timeout;
        // Resolve the tracer once: a disabled tracer takes the untraced
        // code path everywhere (emitters check a plain Option).
        let probe: Option<&dyn Tracer> = self.tracer.as_deref().filter(|t| t.enabled());

        if let Some(policy) = self.supervision {
            return run_supervised(policy, channels, &endpoints, programs, probe);
        }

        let timed_out: TimedOutLog = Mutex::new(Vec::new());
        let fault: Mutex<Option<PlatformError>> = Mutex::new(None);
        let results: Mutex<Vec<Option<ThreadedPeResult>>> =
            Mutex::new((0..programs.len()).map(|_| None).collect());

        crate::shim::scope(|scope| {
            for (idx, mut program) in programs.into_iter().enumerate() {
                let endpoints = &endpoints;
                let timed_out = &timed_out;
                let fault = &fault;
                let results = &results;
                // Firing labels are static across iterations; intern
                // them up front so the hot loop never touches the
                // tracer's (locking) intern table.
                let labels = intern_labels(probe, &program);
                scope.spawn_named(format!("pe{idx}"), move || {
                    let mut local = PeLocal::default();
                    let mut prologue = std::mem::take(&mut program.prologue);
                    let mut aborted = false;
                    for (i, op) in prologue.iter_mut().enumerate() {
                        let label = labels.prologue.get(i).copied().unwrap_or(0);
                        if !step(
                            op, label, &mut local, endpoints, timeout, idx, probe, timed_out, fault,
                        ) {
                            aborted = true;
                            break;
                        }
                    }
                    if !aborted {
                        'outer: for iter in 0..program.iterations {
                            local.iter = iter;
                            for (i, op) in program.ops.iter_mut().enumerate() {
                                let label = labels.ops.get(i).copied().unwrap_or(0);
                                if !step(
                                    op, label, &mut local, endpoints, timeout, idx, probe,
                                    timed_out, fault,
                                ) {
                                    break 'outer;
                                }
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
        let timed = timed_out.into_inner().expect("timed_out lock");
        if !timed.is_empty() {
            let blocked: Vec<PeId> = timed.iter().map(|&(pe, _, _, _)| pe).collect();
            let detail = timed
                .into_iter()
                .map(|(pe, channel, kind, idle)| BlockedOp {
                    pe,
                    channel,
                    kind,
                    occupied_bytes: endpoints[channel.0].len_bytes(),
                    occupied_messages: endpoints[channel.0].occupancy(),
                    capacity_bytes: endpoints[channel.0].capacity_bytes(),
                    idle,
                })
                .collect();
            return Err(PlatformError::Deadlock { blocked, detail });
        }
        Ok(results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every PE thread stores a result"))
            .collect())
    }
}

/// Interned firing-label ids for a program's prologue and loop ops,
/// parallel to the op lists (non-compute ops hold id 0).
pub(crate) struct ProgramLabels {
    pub(crate) prologue: Vec<u32>,
    pub(crate) ops: Vec<u32>,
}

pub(crate) fn intern_labels(probe: Option<&dyn Tracer>, program: &Program) -> ProgramLabels {
    let intern_list = |ops: &[Op]| -> Vec<u32> {
        match probe {
            Some(t) => ops
                .iter()
                .map(|op| match op {
                    Op::Compute { label, .. } => t.intern(label),
                    _ => 0,
                })
                .collect(),
            None => Vec::new(),
        }
    };
    ProgramLabels {
        prologue: intern_list(&program.prologue),
        ops: intern_list(&program.ops),
    }
}

/// Shortest wait worth recording as a Block/Unblock event pair, in
/// nanoseconds. A failed non-blocking attempt that the blocking retry
/// resolves within this window is a claim race, not a stall — recording
/// every such blip on a fast pipeline doubles the event volume (and its
/// cost) without telling the trace reader anything. Genuine
/// backpressure parks the thread for multiple microseconds and is
/// always captured.
const STALL_RECORD_NS: u64 = 1_000;

/// Executes one op; returns `false` when the PE must abort (timeout or
/// transport fault), recording the cause.
///
/// With a probe attached, blocking channel ops attempt the non-blocking
/// variant first: a `Full`/`Empty` result marks the block edge, and the
/// Block/Unblock pair is emitted retroactively once the blocking call
/// resolves — but only when the wait exceeded [`STALL_RECORD_NS`].
/// Without a probe the original single blocking call is used, so
/// tracing costs nothing when disabled.
#[allow(clippy::too_many_arguments)]
fn step(
    op: &mut Op,
    label: u32,
    local: &mut PeLocal,
    endpoints: &[Box<dyn Transport>],
    timeout: Duration,
    idx: usize,
    probe: Option<&dyn Tracer>,
    timed_out: &TimedOutLog,
    fault: &Mutex<Option<PlatformError>>,
) -> bool {
    let pe = PeId(idx);
    match op {
        Op::Compute { work, .. } => {
            if let Some(t) = probe {
                t.record(pe, t.now(), ProbeKind::FiringBegin { label });
                let _cycles = work(local);
                t.record(pe, t.now(), ProbeKind::FiringEnd { label });
            } else {
                let _cycles = work(local);
            }
            true
        }
        Op::Send { channel, payload } => {
            let ch = *channel;
            let data = payload(local);
            let ep = &endpoints[ch.0];
            let sent = match probe {
                Some(t) => match ep.try_send(&data) {
                    Ok(()) => Ok(()),
                    Err(TransportError::Full) => {
                        let blocked_at = t.now();
                        let res = ep.send(&data, timeout);
                        if res.is_ok() {
                            let resumed_at = t.now();
                            if resumed_at.saturating_sub(blocked_at) >= STALL_RECORD_NS {
                                t.record(pe, blocked_at, ProbeKind::BlockSend { channel: ch });
                                t.record(pe, resumed_at, ProbeKind::UnblockSend { channel: ch });
                            }
                        } else {
                            // Never resumed: keep the block edge so the
                            // trace shows where the PE was stuck.
                            t.record(pe, blocked_at, ProbeKind::BlockSend { channel: ch });
                        }
                        res
                    }
                    Err(e) => Err(e),
                },
                None => ep.send(&data, timeout),
            };
            match sent {
                Ok(()) => {
                    if let Some(t) = probe {
                        let (occ_b, occ_m) = ep.snapshot();
                        t.record(
                            pe,
                            t.now(),
                            ProbeKind::Send {
                                channel: ch,
                                bytes: data.len() as u32,
                                digest: payload_digest(&data),
                                occ_bytes: occ_b as u32,
                                occ_msgs: occ_m as u32,
                            },
                        );
                    }
                    local.recycle(data);
                    true
                }
                Err(TransportError::Timeout { idle, .. }) => {
                    timed_out.lock().expect("timed_out lock").push((
                        pe,
                        ch,
                        BlockKind::Send,
                        Some(idle),
                    ));
                    false
                }
                Err(e) => {
                    record_fault(fault, ch, &data, &e, endpoints);
                    false
                }
            }
        }
        Op::Recv { channel } => {
            let ch = *channel;
            let ep = &endpoints[ch.0];
            let got = match probe {
                Some(t) => match ep.try_recv_token() {
                    Ok(d) => Ok(d),
                    Err(TransportError::Empty) => {
                        let blocked_at = t.now();
                        let res = recv_into_spare(ep.as_ref(), local, timeout);
                        if res.is_ok() {
                            let resumed_at = t.now();
                            if resumed_at.saturating_sub(blocked_at) >= STALL_RECORD_NS {
                                t.record(pe, blocked_at, ProbeKind::BlockRecv { channel: ch });
                                t.record(pe, resumed_at, ProbeKind::UnblockRecv { channel: ch });
                            }
                        } else {
                            t.record(pe, blocked_at, ProbeKind::BlockRecv { channel: ch });
                        }
                        res
                    }
                    Err(e) => Err(e),
                },
                None => recv_into_spare(ep.as_ref(), local, timeout),
            };
            match got {
                Ok(data) => {
                    if let Some(t) = probe {
                        let (occ_b, occ_m) = ep.snapshot();
                        t.record(
                            pe,
                            t.now(),
                            ProbeKind::Recv {
                                channel: ch,
                                bytes: data.len() as u32,
                                digest: payload_digest(&data),
                                occ_bytes: occ_b as u32,
                                occ_msgs: occ_m as u32,
                            },
                        );
                    }
                    local.inbox.push_back((ch, data));
                    true
                }
                Err(TransportError::Timeout { idle, .. }) => {
                    timed_out.lock().expect("timed_out lock").push((
                        pe,
                        ch,
                        BlockKind::Recv,
                        Some(idle),
                    ));
                    false
                }
                Err(e) => {
                    record_fault(fault, ch, &[], &e, endpoints);
                    false
                }
            }
        }
        // The functional runner has no simulated clock.
        Op::WaitUntil { .. } => true,
    }
}

/// Blocking receive of one message. Pooled endpoints hand over their
/// zero-copy lease; copying endpoints fill a recycled buffer from the
/// PE's free list instead of allocating a fresh one per message.
fn recv_into_spare(
    ep: &dyn Transport,
    local: &mut PeLocal,
    timeout: Duration,
) -> std::result::Result<Token, TransportError> {
    if ep.pool().is_some() {
        return ep.recv_token(timeout);
    }
    let mut buf = local.spare();
    ep.recv_with(&mut |bytes| buf.extend_from_slice(bytes), timeout)?;
    Ok(Token::Owned(buf))
}

/// Maps a non-timeout transport failure to the platform error space.
fn record_fault(
    fault: &Mutex<Option<PlatformError>>,
    channel: ChannelId,
    data: &[u8],
    err: &TransportError,
    endpoints: &[Box<dyn Transport>],
) {
    // Blocking ops fail with Timeout (handled by the caller), TooLarge,
    // or — under a fault-injecting decorator — a declared injection.
    // Without supervision nothing retries an injected fault, so it
    // surfaces as an unrecovered channel fault naming the edge.
    let mapped = match err {
        TransportError::Injected { fault } => PlatformError::ChannelFault {
            channel,
            detail: fault.to_string(),
        },
        TransportError::TooLarge { bytes, .. } => PlatformError::MessageExceedsCapacity {
            channel,
            bytes: *bytes,
            capacity: endpoints[channel.0].capacity_bytes(),
        },
        _ => PlatformError::MessageExceedsCapacity {
            channel,
            bytes: data.len(),
            capacity: endpoints[channel.0].capacity_bytes(),
        },
    };
    let mut slot = fault.lock().expect("fault lock");
    if slot.is_none() {
        *slot = Some(mapped);
    }
}

/// Executes programs with the default (ring) transport; see
/// [`ThreadedRunner`] for transport selection and the module docs for
/// semantics.
///
/// `timeout` bounds every blocking channel operation; a deadlocked
/// program surfaces as [`PlatformError::Deadlock`] once any thread times
/// out.
///
/// # Errors
///
/// As [`ThreadedRunner::run`].
pub fn run_threaded(
    channels: &[ChannelSpec],
    programs: Vec<Program>,
    timeout: Duration,
) -> Result<Vec<ThreadedPeResult>> {
    ThreadedRunner::new()
        .timeout(timeout)
        .run(channels, programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ChannelId, ChannelSpec};

    /// Every runner test runs under all three transports — the executor
    /// must be implementation-agnostic.
    fn kinds() -> [TransportKind; 3] {
        [
            TransportKind::Locked,
            TransportKind::Ring,
            TransportKind::Pointer,
        ]
    }

    #[test]
    fn threaded_pipeline_matches_expectations() {
        for kind in kinds() {
            let channels = vec![ChannelSpec::default()];
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|l| vec![l.iter as u8 * 3]),
                }],
                4,
            );
            let consumer = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(0),
                    },
                    Op::Compute {
                        label: "fold".into(),
                        work: Box::new(|l| {
                            let v = l.take_from(ChannelId(0)).expect("data");
                            let mut acc = l.store.remove("acc").unwrap_or_default();
                            acc.push(v[0]);
                            l.store.insert("acc".into(), acc);
                            0
                        }),
                    },
                ],
                4,
            );
            let results = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_secs(5))
                .run(&channels, vec![producer, consumer])
                .unwrap();
            assert_eq!(results[1].store["acc"], vec![0, 3, 6, 9], "{kind:?}");
            assert_eq!(results[1].leftover_inbox, 0);
        }
    }

    #[test]
    fn threaded_deadlock_times_out() {
        for kind in kinds() {
            let channels = vec![ChannelSpec::default(), ChannelSpec::default()];
            let a = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(1),
                    },
                    Op::Send {
                        channel: ChannelId(0),
                        payload: Box::new(|_| vec![0]),
                    },
                ],
                1,
            );
            let b = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(0),
                    },
                    Op::Send {
                        channel: ChannelId(1),
                        payload: Box::new(|_| vec![0]),
                    },
                ],
                1,
            );
            let err = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_millis(100))
                .run(&channels, vec![a, b]);
            match err {
                Err(e @ PlatformError::Deadlock { .. }) => {
                    // The report must name the starved channels and
                    // their observed fill, not just count PEs.
                    let msg = e.to_string();
                    assert!(
                        msg.contains("ch0") && msg.contains("ch1"),
                        "{kind:?}: {msg}"
                    );
                    assert!(msg.contains("recv from"), "{kind:?}: {msg}");
                    assert!(
                        msg.contains("0/"),
                        "empty-channel fill shown: {kind:?}: {msg}"
                    );
                }
                other => panic!("expected deadlock under {kind:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn deadlock_detail_reports_send_side_occupancy() {
        // Producer fills a 1-slot channel nobody drains: the report
        // must show the channel as full on the send side.
        let channels = vec![ChannelSpec {
            capacity_bytes: 4,
            max_message_bytes: 4,
            ..ChannelSpec::default()
        }];
        for kind in kinds() {
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|_| vec![7; 4]),
                }],
                3,
            );
            let err = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_millis(100))
                .run(&channels, vec![Program::new(vec![], 0), producer]);
            match err {
                Err(PlatformError::Deadlock { blocked, detail }) => {
                    assert_eq!(blocked, vec![PeId(1)]);
                    assert_eq!(detail.len(), 1);
                    assert_eq!(detail[0].channel, ChannelId(0));
                    assert_eq!(detail[0].kind, BlockKind::Send);
                    assert_eq!(detail[0].occupied_bytes, 4, "{kind:?}");
                    assert_eq!(detail[0].occupied_messages, 1);
                    assert_eq!(detail[0].capacity_bytes, 4);
                }
                other => panic!("expected deadlock under {kind:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_capacity_rejected_up_front() {
        let channels = vec![ChannelSpec {
            capacity_bytes: 0,
            ..ChannelSpec::default()
        }];
        let err = run_threaded(&channels, vec![], Duration::from_secs(1));
        assert!(matches!(err, Err(PlatformError::ZeroCapacity { .. })));
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        // One-slot channel: producer cannot run more than one message
        // ahead; with a slow consumer the run still completes.
        for kind in kinds() {
            let channels = vec![ChannelSpec {
                capacity_bytes: 4,
                word_bytes: 4,
                ..ChannelSpec::default()
            }];
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|_| vec![1, 2, 3, 4]),
                }],
                16,
            );
            let consumer = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(0),
                    },
                    Op::Compute {
                        label: "drop".into(),
                        work: Box::new(|l| {
                            let _ = l.take_from(ChannelId(0));
                            std::thread::sleep(Duration::from_millis(1));
                            0
                        }),
                    },
                ],
                16,
            );
            let results = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_secs(10))
                .run(&channels, vec![producer, consumer])
                .unwrap();
            assert_eq!(results[1].leftover_inbox, 0, "{kind:?}");
        }
    }

    #[test]
    fn oversized_message_surfaces_as_capacity_error() {
        // Ring slots are the declared max message size; a payload larger
        // than the slot is a programming error, not a deadlock.
        let channels = vec![ChannelSpec {
            capacity_bytes: 16,
            max_message_bytes: 4,
            ..ChannelSpec::default()
        }];
        let producer = Program::new(
            vec![Op::Send {
                channel: ChannelId(0),
                payload: Box::new(|_| vec![0u8; 9]),
            }],
            1,
        );
        let consumer = Program::new(
            vec![Op::Recv {
                channel: ChannelId(0),
            }],
            1,
        );
        let err = ThreadedRunner::new()
            .transport(TransportKind::Ring)
            .timeout(Duration::from_millis(200))
            .run(&channels, vec![producer, consumer]);
        assert!(matches!(
            err,
            Err(PlatformError::MessageExceedsCapacity { bytes: 9, .. })
        ));
    }

    #[test]
    fn default_runner_uses_ring_transport_and_default_timeout() {
        let r = ThreadedRunner::new();
        assert_eq!(r.transport_kind(), TransportKind::Ring);
        assert_eq!(r.deadlock_timeout(), DEFAULT_DEADLOCK_TIMEOUT);
    }
}
