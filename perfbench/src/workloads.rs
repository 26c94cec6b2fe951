//! The four workloads, each built the way a user builds a system:
//! graph → `SpiSystemBuilder::build` → endpoints → `ThreadedRunner`,
//! with the transport always named explicitly.

use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_apps::speech::{autocorr_via_fft, solve_normal_equations, synth_frame};
use spi_apps::{CompressedFrame, SpeechApp, SpeechConfig};
use spi_dataflow::SdfGraph;
use spi_dsp::huffman::HuffmanCode;
use spi_dsp::lpc::{prediction_error_range, Quantizer};
use spi_net::{loopback_with, AckPolicy, NetReceiver, NetSender};
use spi_platform::{
    framed_spec, BufferPool, ChannelId, ChannelSpec, PeId, Program, SupervisionPolicy,
    ThreadedRunner, Token, Tracer, Transport, TransportError, TransportKind,
};
use spi_sched::{Partition, ProcId};

use crate::probe::{CountingStream, FlushTracer, Probe, Row, TimedTransport};

/// Bound on any single blocking channel op before the runner reports a
/// deadlock; far above any healthy wait, far below the run budget.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Consecutive iterations per latency window: the p99 of a window has
/// ten samples beyond it.
pub const LAT_WINDOW: u64 = 1000;

/// Iterations at the start of each paced round whose latency is not
/// sampled, while threads start and caches fill.
pub const PACED_WARMUP: u64 = 100;

/// Frame size of the frame workloads.
const FRAME_BYTES: usize = 2048;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper application 1 (LPC speech compression), compute-bound.
    /// Runnable by name, but not among `BENCHMARK.json`'s workloads:
    /// its throughput tracks the host's CPU speed, which on a shared
    /// two-vCPU VM moved its run-to-run spread to 0.16–0.22.
    SpeechLpc,
    /// 8-byte tokens, zero compute: runner, SPI framing, ring hop, acks.
    Relay8B,
    /// 2 KiB frames on the pointer transport: pool lease, large hop.
    Frames2KiB,
    /// 2 KiB frames across two nodes over supervised sockets.
    Frames2KiBNet,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SpeechLpc,
        Workload::Relay8B,
        Workload::Frames2KiB,
        Workload::Frames2KiBNet,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpeechLpc => "speech_lpc",
            Workload::Relay8B => "relay_8B",
            Workload::Frames2KiB => "frames_2KiB",
            Workload::Frames2KiBNet => "frames_2KiB_net",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The open-loop phase's fixed rate in iterations per second, set
    /// once at about a third of the seed's saturated rate. Never derived
    /// from a run.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::SpeechLpc => 4_000.0,
            Workload::Relay8B => 200_000.0,
            Workload::Frames2KiB => 120_000.0,
            Workload::Frames2KiBNet => 20_000.0,
        }
    }

    /// Iterations of one saturated round (about 0.15 s).
    pub fn round_iterations(self) -> u64 {
        match self {
            Workload::SpeechLpc => 1_500,
            Workload::Relay8B => 100_000,
            Workload::Frames2KiB => 60_000,
            Workload::Frames2KiBNet => 10_000,
        }
    }

    /// Iterations of one paced round: [`PACED_WARMUP`] iterations, then
    /// whole latency windows filling about half a second at the fixed
    /// rate.
    pub fn paced_iterations(self) -> u64 {
        let windows = ((self.paced_rate() / 2.0) as u64 / LAT_WINDOW).max(1);
        PACED_WARMUP + windows * LAT_WINDOW
    }

    /// Whether the workload's channels are sockets between two nodes.
    pub fn over_sockets(self) -> bool {
        self == Workload::Frames2KiBNet
    }

    /// The transport in-process channels are built on.
    pub fn transport(self) -> TransportKind {
        match self {
            Workload::Frames2KiB => TransportKind::Pointer,
            _ => TransportKind::Ring,
        }
    }

    /// Firing labels of the paced source and of the sink whose
    /// completion ends an iteration.
    pub fn source_sink(self) -> (&'static str, &'static str) {
        match self {
            Workload::SpeechLpc => ("fire:A:read#0", "fire:E:huffman#0"),
            Workload::Relay8B => ("fire:src#0", "fire:check#0"),
            Workload::Frames2KiB | Workload::Frames2KiBNet => ("fire:src#0", "fire:fir#0"),
        }
    }

    fn frame_bytes(self) -> Option<usize> {
        match self {
            Workload::Frames2KiB | Workload::Frames2KiBNet => Some(FRAME_BYTES),
            _ => None,
        }
    }
}

/// Seed-derived inputs and references shared by every round of a run.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Flip one bit at the sink of every round (self-test of the check).
    pub corrupt: bool,
    /// Transport of in-process channels: the workload's own unless
    /// overridden for an ad-hoc comparison.
    pub transport: TransportKind,
    /// Run supervised (always on for the socket workload; opt-in for
    /// the in-process ones, for ad-hoc comparison).
    pub supervise: bool,
    key: u64,
    template: Vec<u8>,
    speech_reference: Vec<CompressedFrame>,
    digests: Mutex<HashMap<u64, u64>>,
}

/// SplitMix64 step.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Ctx {
    /// Derives the inputs from `seed`. For `speech_lpc` this runs the
    /// reference: the same system on the discrete-event simulator
    /// (`SpiSystem::run`) for the longest round.
    pub fn new(workload: Workload, seed: u64, corrupt: bool) -> Result<Ctx, String> {
        let key = splitmix(seed);
        let template = match workload.frame_bytes() {
            Some(n) => {
                let mut s = key;
                (0..n)
                    .map(|_| {
                        s = splitmix(s);
                        // Small lanes keep the FIR's i64 sums far from overflow.
                        (s >> 56) as u8 & 0x3F
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let mut ctx = Ctx {
            workload,
            seed,
            corrupt,
            transport: workload.transport(),
            supervise: workload.over_sockets(),
            key,
            template,
            speech_reference: Vec::new(),
            digests: Mutex::new(HashMap::new()),
        };
        if workload == Workload::SpeechLpc {
            let n = workload.round_iterations().max(workload.paced_iterations());
            let (app, sys, _) = speech_system(seed, n)?;
            sys.run().map_err(|e| format!("DES reference run: {e}"))?;
            ctx.speech_reference = std::mem::take(&mut *app.output.lock().expect("output"));
            if ctx.speech_reference.len() as u64 != n {
                return Err("DES reference run produced too few frames".into());
            }
        }
        Ok(ctx)
    }

    fn frame(&self, iter: u64) -> Vec<u8> {
        let mut v = self.template.clone();
        v[..8].copy_from_slice(&(iter ^ self.key).to_le_bytes());
        v
    }

    /// Single-thread reference digest of the frame workloads' sink
    /// output over iterations `0..n`.
    pub fn stream_digest(&self, n: u64) -> u64 {
        if let Some(&d) = self.digests.lock().expect("digests").get(&n) {
            return d;
        }
        let mut digest = 0;
        for i in 0..n {
            let mut v = self.frame(i);
            digest = fold(digest, fir_in_place(&mut v));
        }
        self.digests.lock().expect("digests").insert(n, digest);
        digest
    }
}

/// First-order FIR `y[n] = (x[n] + x[n-1]) / 2` over the frame's i64
/// lanes, in place; returns a digest of the output lanes.
fn fir_in_place(frame: &mut [u8]) -> u64 {
    let mut prev = 0i64;
    let mut acc = 0u64;
    for chunk in frame.chunks_exact_mut(8) {
        let x = i64::from_le_bytes(chunk.try_into().expect("8-byte lane"));
        let y = (x + prev) / 2;
        chunk.copy_from_slice(&y.to_le_bytes());
        acc = acc.rotate_left(5) ^ y as u64;
        prev = x;
    }
    acc
}

fn fold(digest: u64, frame: u64) -> u64 {
    (digest ^ frame).wrapping_mul(0x0000_0100_0000_01B3)
}

/// What a round's sink observed, for the output check.
#[derive(Default)]
struct StreamSink {
    received: AtomicU64,
    seq_errors: AtomicU64,
    digest: AtomicU64,
}

enum Sink {
    Stream(Arc<StreamSink>),
    Speech(Arc<Mutex<Vec<CompressedFrame>>>),
}

/// One node's share of a round: programs and their channel endpoints.
pub struct Node {
    /// Programs, local PE order.
    pub programs: Vec<Program>,
    /// One endpoint per channel.
    pub endpoints: Vec<Box<dyn Transport>>,
    /// Global PE of the node's first program.
    pub first_pe: usize,
}

/// A socket endpoint the round keeps a second handle on, so it stays
/// open until every node has finished, as a real cohort's sockets do
/// until the run's shutdown barrier. The producer's node ends first, and
/// the consumer's last UBS acknowledgements would otherwise hit a
/// closed socket.
struct KeepOpen(Arc<dyn Transport>);

impl Transport for KeepOpen {
    fn capacity_bytes(&self) -> usize {
        self.0.capacity_bytes()
    }
    fn max_message_bytes(&self) -> usize {
        self.0.max_message_bytes()
    }
    fn len_bytes(&self) -> usize {
        self.0.len_bytes()
    }
    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }
    fn snapshot(&self) -> (usize, usize) {
        self.0.snapshot()
    }
    fn send(&self, data: &[u8], timeout: Duration) -> Result<(), TransportError> {
        self.0.send(data, timeout)
    }
    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.0.try_send(data)
    }
    fn recv(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.0.recv(timeout)
    }
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.0.try_recv()
    }
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.0.send_with(len, fill, timeout)
    }
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.0.recv_with(consume, timeout)
    }
    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.0.send_in_place(max_len, frame, timeout)
    }
    fn send_token(&self, token: Token, timeout: Duration) -> Result<(), TransportError> {
        self.0.send_token(token, timeout)
    }
    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        self.0.recv_token(timeout)
    }
    fn try_send_token(&self, token: Token) -> Result<(), TransportError> {
        self.0.try_send_token(token)
    }
    fn try_recv_token(&self) -> Result<Token, TransportError> {
        self.0.try_recv_token()
    }
    fn pool(&self) -> Option<&BufferPool> {
        self.0.pool()
    }
}

/// A built round, ready to run.
pub struct Round {
    /// Per-node programs and endpoints (one node in-process, two for
    /// the socket workload).
    pub nodes: Vec<Node>,
    /// Logical channel specs.
    pub specs: Vec<ChannelSpec>,
    /// Supervision policy, when the run is supervised.
    pub policy: Option<SupervisionPolicy>,
    /// Graph iterations the programs run.
    pub iterations: u64,
    /// Graph construction through endpoints ready, in seconds.
    pub setup_s: f64,
    /// `SpiSystemBuilder::build` alone, in seconds.
    pub build_s: f64,
    /// Data channels (ack channels excluded).
    pub data_channels: Vec<usize>,
    sink: Sink,
    keep_open: Vec<Arc<dyn Transport>>,
}

/// How a round ended.
pub struct Outcome {
    /// Run wall time in seconds, set-up excluded.
    pub elapsed_s: f64,
    /// Iterations that failed: lost to an error, or wrong at the sink.
    pub failed: u64,
    /// Why, when anything failed.
    pub errors: Vec<String>,
}

fn speech_system(seed: u64, iterations: u64) -> Result<(SpeechApp, SpiSystem, f64), String> {
    let app = SpeechApp::new(SpeechConfig {
        n_pes: 1,
        vary_rates: true,
        seed,
        ..SpeechConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut builder = SpiSystemBuilder::new(app.graph.clone());
    app.configure(&mut builder);
    builder.iterations(iterations);
    let d = app.d_error.clone();
    let t = Instant::now();
    let sys = builder
        .build(2, move |a| ProcId(usize::from(d.contains(&a))))
        .map_err(|e| e.to_string())?;
    Ok((app, sys, t.elapsed().as_secs_f64()))
}

fn stream_system(
    ctx: &Ctx,
    iterations: u64,
    partition: Option<Partition>,
) -> Result<(SpiSystem, Arc<StreamSink>, f64), String> {
    let bytes = ctx.workload.frame_bytes().unwrap_or(8);
    let mut g = SdfGraph::new();
    let src = g.add_actor("src", 10);
    let snk = g.add_actor(if bytes == 8 { "check" } else { "fir" }, 10);
    let e = g
        .add_edge(src, snk, 1, 1, 0, bytes as u32)
        .map_err(|e| e.to_string())?;
    let mut builder = SpiSystemBuilder::new(g);
    let sink = Arc::new(StreamSink::default());
    let key = ctx.key;
    if bytes == 8 {
        builder.actor(src, move |f: &mut Firing| {
            f.set_output(e, (f.iter ^ key).to_le_bytes().to_vec());
            10
        });
        let s = Arc::clone(&sink);
        let corrupt = ctx.corrupt;
        builder.actor(snk, move |f: &mut Firing| {
            let v = f.input(e);
            let mut seq = u64::from_le_bytes(v.try_into().unwrap_or([0; 8]));
            if corrupt && f.iter == 0 {
                seq ^= 1;
            }
            if seq != f.iter ^ key {
                s.seq_errors.fetch_add(1, Ordering::Relaxed);
            }
            s.received.fetch_add(1, Ordering::Relaxed);
            10
        });
    } else {
        let template = ctx.template.clone();
        builder.actor(src, move |f: &mut Firing| {
            let mut v = template.clone();
            v[..8].copy_from_slice(&(f.iter ^ key).to_le_bytes());
            f.set_output(e, v);
            10
        });
        let s = Arc::clone(&sink);
        let corrupt = ctx.corrupt;
        let mut digest = 0u64;
        builder.actor(snk, move |f: &mut Firing| {
            let mut v = f.take_input(e);
            if v.len() != FRAME_BYTES || v[..8] != (f.iter ^ key).to_le_bytes() {
                s.seq_errors.fetch_add(1, Ordering::Relaxed);
            } else {
                if corrupt && f.iter == 0 {
                    v[8] ^= 1;
                }
                digest = fold(digest, fir_in_place(&mut v));
                s.digest.store(digest, Ordering::Relaxed);
            }
            s.received.fetch_add(1, Ordering::Relaxed);
            10
        });
    }
    builder.iterations(iterations);
    if let Some(p) = partition {
        builder.partition(p);
    }
    let t = Instant::now();
    let sys = builder
        .build(2, |a| ProcId(a.0))
        .map_err(|e| e.to_string())?;
    Ok((sys, sink, t.elapsed().as_secs_f64()))
}

/// The distributed launcher's policy: retry three times, with the
/// schedule-derived deadline clamped up for socket latency.
fn supervision_policy(sys: &SpiSystem) -> SupervisionPolicy {
    let deadline = sys
        .supervision_deadline(50.0)
        .unwrap_or(Duration::from_secs(2))
        .max(Duration::from_millis(250));
    SupervisionPolicy::retry(3).with_deadline(deadline)
}

fn data_channels(sys: &SpiSystem) -> Vec<usize> {
    let mut v: Vec<usize> = sys.edge_plans().values().map(|p| p.data_ch.0).collect();
    v.sort_unstable();
    v
}

/// Builds one round of `iterations`. `setup_s` covers everything a user
/// pays before the first message: graph/app construction, the build
/// (analysis, scheduling, resynchronization, lowering) and the channel
/// endpoints. With a `probe`, the socket workload's endpoints are
/// built with ack counting and flush probes (traced rounds only).
pub fn setup(ctx: &Ctx, iterations: u64, probe: Option<&Arc<Probe>>) -> Result<Round, String> {
    let t = Instant::now();
    let w = ctx.workload;
    let mut keep_open: Vec<Arc<dyn Transport>> = Vec::new();
    let (nodes, specs, policy, build_s, data, sink) = match w {
        Workload::SpeechLpc | Workload::Relay8B | Workload::Frames2KiB => {
            let (sys, sink, build_s) = match w {
                Workload::SpeechLpc => {
                    let (app, sys, build_s) = speech_system(ctx.seed, iterations)?;
                    (sys, Sink::Speech(Arc::clone(&app.output)), build_s)
                }
                _ => {
                    let (sys, sink, build_s) = stream_system(ctx, iterations, None)?;
                    (sys, Sink::Stream(sink), build_s)
                }
            };
            let data = data_channels(&sys);
            let policy = ctx.supervise.then(|| supervision_policy(&sys));
            let (specs, programs) = sys.into_parts();
            let endpoints = specs
                .iter()
                .map(|s| match policy {
                    Some(_) => ctx.transport.instantiate(&framed_spec(s)),
                    None => ctx.transport.instantiate(s),
                })
                .collect();
            let node = Node {
                programs,
                endpoints,
                first_pe: 0,
            };
            (vec![node], specs, policy, build_s, data, sink)
        }
        Workload::Frames2KiBNet => {
            let partition = || Partition::blocks(2, 2).map_err(|e| e.to_string());
            // `take_local_programs` moves every program out, so each
            // node deploys its own build, as separate processes would.
            let (sys0, _, build_s) = stream_system(ctx, iterations, Some(partition()?))?;
            let (sys1, sink, _) = stream_system(ctx, iterations, Some(partition()?))?;
            let data = data_channels(&sys0);
            let policy = supervision_policy(&sys0);
            let mut d0 = spi_net::deploy(sys0).map_err(|e| e.to_string())?;
            let mut d1 = spi_net::deploy(sys1).map_err(|e| e.to_string())?;
            let mut eps: [Vec<Option<Box<dyn Transport>>>; 2] = [Vec::new(), Vec::new()];
            for ch in 0..d0.specs.len() {
                let spec = framed_spec(&d0.specs[ch]);
                let batch = d0.batches[ch];
                let role = d0.roles[ch];
                let tx_node = d0
                    .partition
                    .node_of(role.sender)
                    .map_err(|e| e.to_string())?;
                let (tx, rx): (Arc<dyn Transport>, Arc<dyn Transport>) = match probe {
                    None => {
                        let (tx, rx) = loopback_with(&spec, batch).map_err(|e| e.to_string())?;
                        (Arc::new(tx), Arc::new(rx))
                    }
                    Some(p) => {
                        let (a, b) = UnixStream::pair().map_err(|e| e.to_string())?;
                        let tx = NetSender::from_stream_with(a, &spec, batch);
                        if batch.is_batched() {
                            let tracer: Arc<dyn Tracer> =
                                Arc::new(FlushTracer(Arc::clone(&p.flush)));
                            tx.set_probe(tracer, PeId(0), ChannelId(ch));
                        }
                        let b = CountingStream::new(b, Arc::clone(&p.ack_records));
                        let rx = NetReceiver::from_stream_with(
                            b,
                            &spec,
                            AckPolicy::for_batch(&spec, batch),
                        );
                        (Arc::new(tx), Arc::new(rx))
                    }
                };
                eps[tx_node].push(Some(Box::new(KeepOpen(Arc::clone(&tx)))));
                eps[1 - tx_node].push(Some(Box::new(KeepOpen(Arc::clone(&rx)))));
                keep_open.extend([tx, rx]);
            }
            let specs = d0.specs.clone();
            let programs = [d0.take_local_programs(0), d1.take_local_programs(1)];
            let nodes = programs
                .into_iter()
                .zip(eps)
                .enumerate()
                .map(|(n, (programs, eps))| Node {
                    programs,
                    endpoints: eps.into_iter().map(|e| e.expect("endpoint")).collect(),
                    first_pe: d0.procs_on(n)[0],
                })
                .collect();
            (
                nodes,
                specs,
                Some(policy),
                build_s,
                data,
                Sink::Stream(sink),
            )
        }
    };
    Ok(Round {
        nodes,
        specs,
        policy,
        iterations,
        setup_s: t.elapsed().as_secs_f64(),
        build_s,
        data_channels: data,
        sink,
        keep_open,
    })
}

impl Round {
    /// Wraps every endpoint in a [`TimedTransport`] (traced rounds).
    pub fn decorate(&mut self, probe: &Arc<Probe>, socket: bool) {
        let views: Vec<(usize, &[Program])> = self
            .nodes
            .iter()
            .map(|n| (n.first_pe, n.programs.as_slice()))
            .collect();
        let ends = crate::probe::channel_ends(&views, self.specs.len());
        let row = if socket { Row::Net } else { Row::Transport };
        for node in &mut self.nodes {
            let eps = std::mem::take(&mut node.endpoints);
            node.endpoints = eps
                .into_iter()
                .enumerate()
                .map(|(ch, ep)| {
                    let data = self.data_channels.contains(&ch);
                    TimedTransport::wrap(ep, probe, row, ends[ch], data)
                })
                .collect();
        }
    }

    /// Runs the round to completion on one `ThreadedRunner` per node
    /// (each node on its own thread, as separate processes would) and
    /// checks the sink's output against the reference.
    pub fn run(self, ctx: &Ctx, tracers: Option<Vec<Arc<dyn Tracer>>>) -> Outcome {
        let Round {
            nodes,
            specs,
            policy,
            iterations,
            sink,
            keep_open,
            ..
        } = self;
        let mut runner = ThreadedRunner::new()
            .transport(ctx.transport)
            .timeout(DEADLOCK_TIMEOUT);
        if let Some(p) = policy {
            runner = runner.supervise(p);
        }
        let runners: Vec<ThreadedRunner> = (0..nodes.len())
            .map(|i| match &tracers {
                Some(t) => runner.clone().tracer(Arc::clone(&t[i])),
                None => runner.clone(),
            })
            .collect();
        let mut errors = Vec::new();
        let start = Instant::now();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = nodes
                .into_iter()
                .zip(&runners)
                .map(|(node, runner)| {
                    let specs = &specs;
                    s.spawn(move || runner.run_with_endpoints(specs, node.endpoints, node.programs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "runner thread panicked".to_string()))
                .collect::<Vec<_>>()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        drop(keep_open);
        for r in results {
            match r {
                Err(e) => errors.push(e),
                Ok(Err(e)) => errors.push(e.to_string()),
                Ok(Ok(pes)) => {
                    for pe in pes {
                        if let Some(msg) = pe.store.get("__spi_error") {
                            errors.push(format!("actor failed: {}", String::from_utf8_lossy(msg)));
                        }
                    }
                }
            }
        }
        let mut failed = if errors.is_empty() { 0 } else { iterations };
        match sink {
            Sink::Stream(s) => {
                let received = s.received.load(Ordering::Relaxed);
                let mut bad =
                    iterations.saturating_sub(received) + s.seq_errors.load(Ordering::Relaxed);
                if bad > 0 {
                    errors.push(format!(
                        "{bad} iterations missing or out of sequence at the sink"
                    ));
                }
                if ctx.workload.frame_bytes().is_some()
                    && s.digest.load(Ordering::Relaxed) != ctx.stream_digest(iterations)
                {
                    errors.push("sink digest differs from the single-thread reference".into());
                    bad = iterations;
                }
                failed = failed.max(bad.min(iterations));
            }
            Sink::Speech(out) => {
                let mut frames = out.lock().expect("output");
                if ctx.corrupt {
                    if let Some(f) = frames.first_mut() {
                        f.bitlen ^= 1;
                    }
                }
                let reference = &ctx.speech_reference[..iterations as usize];
                let matching = frames.iter().zip(reference).filter(|(a, b)| a == b).count();
                let bad = iterations - matching as u64;
                if bad > 0 {
                    errors.push(format!("{bad} frames differ from the DES reference"));
                }
                failed = failed.max(bad);
            }
        }
        Outcome {
            elapsed_s,
            failed,
            errors,
        }
    }
}

/// The same work as one iteration of `speech_lpc`, in one thread with
/// no SPI: actors A–E of `SpeechApp` (one error PE) called back to back.
/// Frame length and model order follow `SpeechConfig`'s per-iteration
/// variation for the default 256-sample, order-8 configuration.
pub fn speech_frame(seed: u64, iter: u64) -> CompressedFrame {
    let (max_frame, max_order) = (256usize, 8usize);
    let span = max_frame / 2;
    let offset = ((iter.wrapping_mul(2_654_435_761) >> 7) as usize) % (span + 1);
    let frame_len = (max_frame - offset).max(max_order * 2 + 1);
    let order = 2 + ((iter.wrapping_mul(40_503) >> 3) as usize) % (max_order - 1);
    let frame = synth_frame(seed, iter, frame_len);
    let r = autocorr_via_fft(&frame, order);
    let coeffs = solve_normal_equations(&r, order);
    let residual = prediction_error_range(&frame, &coeffs, 0, frame.len());
    let energy: f64 = residual.iter().map(|e| e * e).sum();
    let q = Quantizer::new(4.0, 8);
    let symbols: Vec<u16> = residual.iter().map(|&e| q.quantize(e)).collect();
    let (code, bits, bitlen) = match HuffmanCode::from_symbols(&symbols) {
        Ok(code) => {
            let (bits, bitlen) = code.encode(&symbols).unwrap_or((Vec::new(), 0));
            (Some(code), bits, bitlen)
        }
        Err(_) => (None, Vec::new(), 0),
    };
    CompressedFrame {
        iter,
        frame_len: residual.len(),
        order,
        bits,
        bitlen,
        residual_energy: energy,
        code,
        quantizer: q,
        coeffs,
    }
}

/// Single-thread baseline: the workload's per-iteration work back to
/// back with no SPI, for about `budget`. Returns the median block rate
/// in iterations per second and, for `speech_lpc`, whether the frames
/// equal the DES reference (the other workloads' baseline *is* their
/// reference computation).
pub fn baseline(ctx: &Ctx, budget: Duration) -> (f64, bool) {
    let mut rates = Vec::new();
    let mut ok = true;
    let start = Instant::now();
    while start.elapsed() < budget || rates.len() < 3 {
        let t = Instant::now();
        let n = match ctx.workload {
            Workload::SpeechLpc => {
                let n = 300;
                for i in 0..n {
                    ok &= speech_frame(ctx.seed, i) == ctx.speech_reference[i as usize];
                }
                n
            }
            Workload::Relay8B => {
                let n = 1_000_000;
                let mut good = 0u64;
                for i in 0..n {
                    let token = std::hint::black_box((i ^ ctx.key).to_le_bytes());
                    good += u64::from(u64::from_le_bytes(token) == i ^ ctx.key);
                }
                std::hint::black_box(good);
                n
            }
            Workload::Frames2KiB | Workload::Frames2KiBNet => {
                let n = 20_000;
                let mut digest = 0;
                for i in 0..n {
                    let mut v = ctx.frame(i);
                    digest = fold(digest, fir_in_place(&mut v));
                }
                std::hint::black_box(digest);
                n
            }
        };
        rates.push(n as f64 / t.elapsed().as_secs_f64());
    }
    (crate::stats::median(&mut rates), ok)
}
