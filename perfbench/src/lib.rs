//! The SPI reproduction's benchmark: workloads built through the
//! public user path (`SpiSystemBuilder` → `ThreadedRunner`), an
//! end-to-end run with tracing off, and a traced run that attributes PE
//! wall time to layers from spans taken around public seams. See
//! `README.md` in this directory for the metrics and how to run it.

pub mod loadgen;
pub mod probe;
pub mod stats;
pub mod workloads;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_platform::{decode_frame, encode_frame_into, Tracer, FRAME_HEADER_BYTES};

use crate::loadgen::Pacer;
use crate::probe::{Probe, Row, TimedTracer, FLUSH_REASONS};
use crate::stats::{median, quantile};
use crate::workloads::{Ctx, Outcome, Round, Workload, LAT_WINDOW, PACED_WARMUP};

/// Global PEs of every workload (two threads; `nproc` on the reference
/// host).
pub const PES: usize = 2;

/// Most iterations in one traced round: bounds the trace capture
/// buffers to a few tens of MiB.
const TRACED_ROUND_MAX: u64 = 30_000;

/// Actors reported under `dsp.compute_ns.<actor>`: the speech
/// application's A–E kernels and the stream workloads' source and sinks.
pub const DSP_ACTORS: [&str; 8] = [
    "read", "fft", "lu", "error", "huffman", "src", "check", "fir",
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The layer budget of a traced run: per-row nanoseconds summed over
/// PEs, and the PE wall time they partition.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// `(layer, ns)` rows; the last row is the residual.
    pub rows: Vec<(String, f64)>,
    /// Summed PE wall time in nanoseconds.
    pub wall_ns: f64,
    /// Per PE: `(wall ns, spanned ns)`.
    pub pes: Vec<(f64, f64)>,
    /// Iterations the traced rounds ran.
    pub iterations: u64,
}

/// Result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that failed (error, timeout, or wrong output).
    pub failed: u64,
    /// First error messages, for the log.
    pub errors: Vec<String>,
    /// Layer budget (traced runs only).
    pub budget: Option<Budget>,
    /// Human-readable notes for the log.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn tally(&mut self, iterations: u64, out: &Outcome) {
        self.attempted += iterations;
        self.failed += out.failed;
        for e in &out.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Rounds a phase runs at least, however short its budget.
const MIN_ROUNDS: usize = 3;

fn phase(budget: Duration, mut round: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed() < budget || rounds < MIN_ROUNDS {
        round()?;
        rounds += 1;
    }
    Ok(())
}

/// Per-window quantile `q` of `samples` (in iteration order), one
/// value per whole window of [`LAT_WINDOW`] consecutive iterations.
fn window_quantiles(samples: &[f64], q: f64) -> Vec<f64> {
    samples
        .chunks_exact(LAT_WINDOW as usize)
        .map(|w| quantile(&mut w.to_vec(), q))
        .collect()
}

/// Runs one untimed round first, so thread start-up, allocator arenas
/// and lazily built tables are warm before anything is timed. Its
/// output is still checked.
fn warm_up(ctx: &Ctx, n: u64, report: &mut Report) -> Result<(), String> {
    let out = workloads::setup(ctx, n, None)?.run(ctx, None);
    report.tally(n, &out);
    Ok(())
}

/// One paced round; returns `(latency µs, lateness µs)` samples in
/// iteration order.
fn paced_round(ctx: &Ctx, report: &mut Report) -> Result<(Vec<f64>, Vec<f64>), String> {
    let w = ctx.workload;
    let n = w.paced_iterations();
    let mut round = workloads::setup(ctx, n, None)?;
    let pacer = Pacer::new(w.paced_rate(), n);
    let (source, sink) = w.source_sink();
    for node in &mut round.nodes {
        pacer.install(&mut node.programs, source, sink);
    }
    let out = round.run(ctx, None);
    report.tally(n, &out);
    Ok(pacer.samples(PACED_WARMUP))
}

/// The end-to-end run, tracing off: saturated closed-loop rounds
/// (`iter_per_s`, median over rounds), the set-up time of every round
/// (`setup_s`, median) and peak memory.
pub fn end_to_end(ctx: &Ctx, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let n = ctx.workload.round_iterations();
    warm_up(ctx, n, &mut report)?;
    phase(Duration::from_secs_f64(seconds), || {
        let round = workloads::setup(ctx, n, None)?;
        setup_s.push(round.setup_s);
        let out = round.run(ctx, None);
        report.tally(n, &out);
        rates.push(n as f64 / out.elapsed_s);
        Ok(())
    })?;
    let mut sorted = rates.clone();
    report.notes.push(format!(
        "{} saturated rounds of {n} iterations: {:.0} / {:.0} / {:.0} iter/s (p10 / median / p90)",
        rates.len(),
        quantile(&mut sorted, 0.1),
        quantile(&mut sorted, 0.5),
        quantile(&mut sorted, 0.9),
    ));
    report.push("iter_per_s", median(&mut rates), "1/s");
    report.push("setup_s", median(&mut setup_s), "s");
    report.push("rss_peak_mib", rss_peak_mib(), "MiB");
    Ok(report)
}

/// Calibrated cost of supervision framing for `payload` bytes:
/// `(encode ns, decode ns)` of `encode_frame_into` / `decode_frame`.
fn frame_costs(payload: usize) -> (f64, f64) {
    const BATCH: u32 = 256;
    let data: Vec<u8> = (0..payload).map(|i| i as u8).collect();
    let mut buf = Vec::new();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let t = Instant::now();
        for seq in 0..BATCH {
            encode_frame_into(&mut buf, seq, std::hint::black_box(&data));
        }
        enc.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
        let t = Instant::now();
        for _ in 0..BATCH {
            let ok = decode_frame(std::hint::black_box(&buf)).is_ok();
            std::hint::black_box(ok);
        }
        dec.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    (median(&mut enc), median(&mut dec))
}

/// Builds an instrumented round. The capture tracers (one per node)
/// are created on the first call, sized so no event is dropped, and
/// reset and reused afterwards, so their buffers are not re-faulted
/// inside later timed runs.
fn traced_round(
    ctx: &Ctx,
    n: u64,
    probe: &Arc<Probe>,
    tracers: &mut Vec<Arc<TimedTracer>>,
) -> Result<(Round, Vec<Arc<dyn Tracer>>), String> {
    let mut round = workloads::setup(ctx, n, Some(probe))?;
    for node in &mut round.nodes {
        probe::instrument_programs(&mut node.programs, node.first_pe, probe);
    }
    round.decorate(probe, ctx.workload.over_sockets());
    if tracers.is_empty() {
        for node in &round.nodes {
            // Every op emits at most three events (block, unblock, the
            // op's own).
            let per_pe = node
                .programs
                .iter()
                .map(|p| 3 * (p.prologue.len() + p.ops.len() * p.iterations as usize))
                .max()
                .unwrap_or(1);
            let pes = node.programs.len();
            tracers.push(Arc::new(TimedTracer::new(
                probe,
                node.first_pe,
                pes,
                per_pe,
            )));
        }
    }
    let handles = tracers
        .iter()
        .map(|t| {
            t.reset();
            Arc::clone(t) as Arc<dyn Tracer>
        })
        .collect();
    Ok((round, handles))
}

/// The traced run: untraced and traced saturated rounds alternate (the
/// difference is `trace.overhead_frac`); traced rounds carry every
/// span. Then paced rounds for the load generator's lateness, the
/// single-thread baseline and the framing calibration.
pub fn traced(ctx: &Ctx, seconds: f64) -> Result<Report, String> {
    let w = ctx.workload;
    let socket = w.over_sockets();
    let mut report = Report::default();
    let probe = Probe::new(PES);
    let n = w.round_iterations().min(TRACED_ROUND_MAX);
    let (mut untraced, mut traced, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_iters = 0;
    let mut tracers = Vec::new();
    warm_up(ctx, n, &mut report)?;
    phase(Duration::from_secs_f64(seconds * 0.5), || {
        let round = workloads::setup(ctx, n, None)?;
        build_s.push(round.build_s);
        let out = round.run(ctx, None);
        report.tally(n, &out);
        untraced.push(n as f64 / out.elapsed_s);

        let (round, handles) = traced_round(ctx, n, &probe, &mut tracers)?;
        build_s.push(round.build_s);
        let out = round.run(ctx, Some(handles));
        report.tally(n, &out);
        traced.push(n as f64 / out.elapsed_s);
        traced_iters += n;
        Ok(())
    })?;
    let (mut lat_p50, mut lat_p99, mut late) = (Vec::new(), Vec::new(), Vec::new());
    phase(Duration::from_secs_f64(seconds * 0.3), || {
        let (lat, lateness) = paced_round(ctx, &mut report)?;
        lat_p50.extend(window_quantiles(&lat, 0.5));
        lat_p99.extend(window_quantiles(&lat, 0.99));
        late.extend(window_quantiles(&lateness, 0.99));
        Ok(())
    })?;
    report.notes.push(format!(
        "open loop at {}/s: {} latency windows of {LAT_WINDOW} iterations",
        w.paced_rate(),
        lat_p99.len()
    ));
    let (base, base_ok) = workloads::baseline(ctx, Duration::from_secs_f64(seconds * 0.1));
    if !base_ok {
        report.failed += 1;
        report
            .errors
            .push("single-thread baseline differs from the DES reference".into());
    }
    let untraced_rate = median(&mut untraced);
    let traced_rate = median(&mut traced);
    let iters = traced_iters as f64;

    // Supervision framing runs inside the supervised runner, outside
    // every span; its cost is calibrated at each channel's observed
    // message size and charged to the PEs that frame and check.
    let mut supervise_ns = [0.0; PES];
    let (mut framed_msgs, mut framing_ns) = (0.0, 0.0);
    if socket {
        for tap in probe.taps() {
            let msgs = tap.msgs() as f64;
            if msgs == 0.0 {
                continue;
            }
            let payload = (tap.mean_bytes() as usize).saturating_sub(FRAME_HEADER_BYTES);
            let (enc, dec) = frame_costs(payload);
            supervise_ns[tap.sender] += msgs * enc;
            supervise_ns[tap.receiver] += msgs * dec;
            framed_msgs += msgs;
            framing_ns += msgs * (enc + dec);
        }
    }

    // Layer budget: span rows plus the calibrated framing, per PE; the
    // residual is what no span covers (runner dispatch, probe emission,
    // thread wake-ups).
    let mut budget = Budget {
        iterations: traced_iters,
        ..Budget::default()
    };
    let mut residual = 0.0;
    let mut ops = 0.0;
    let mut row_totals = [0.0; Row::ALL.len()];
    let mut pe_fracs = Vec::new();
    for (pe, (clock, framing)) in probe.pes.iter().zip(supervise_ns).enumerate() {
        let wall = clock.wall_ns() as f64;
        let rows: Vec<f64> = Row::ALL
            .iter()
            .map(|&r| probe.row_ns(pe, r) as f64)
            .collect();
        let spanned = rows.iter().sum::<f64>() + framing;
        for (t, r) in row_totals.iter_mut().zip(&rows) {
            *t += r;
        }
        residual += wall - spanned;
        ops += clock.ops() as f64;
        budget.wall_ns += wall;
        budget.pes.push((wall, spanned));
        let busy = rows[0] + rows[1];
        let blocked = rows[2] + rows[3];
        pe_fracs.push((busy / wall, blocked / wall));
    }
    for (r, ns) in Row::ALL.iter().zip(row_totals) {
        budget.rows.push((r.name().to_string(), ns));
    }
    budget.rows.push((
        "platform.supervise (calibrated)".into(),
        supervise_ns.iter().sum(),
    ));
    budget
        .rows
        .push(("residual (runner dispatch, unspanned)".into(), residual));
    let residual_frac = residual / budget.wall_ns;
    if matches!(w, Workload::Relay8B | Workload::Frames2KiB) {
        report.notes.push(format!(
            "ROADMAP item 1 target (residual <= 20% of PE wall time): {} at {:.1}%",
            if residual_frac <= 0.2 {
                "MET"
            } else {
                "NOT MET"
            },
            residual_frac * 100.0
        ));
    }

    let per_call = |key: &str| {
        let (calls, ns, _) = probe.by_key(key);
        ns as f64 / calls.max(1) as f64
    };
    let p50 = |key: &str| probe.by_key(key).2.quantile(0.5);
    let taps = probe.taps();
    let msgs: u64 = taps.iter().map(|t| t.msgs()).sum();
    let data_msgs: u64 = taps.iter().filter(|t| t.data).map(|t| t.msgs()).sum();

    report.push("spi.build_s", median(&mut build_s), "s");
    report.push("spi.payload_ns", per_call("spi.payload"), "ns");
    report.push("platform.runner.residual_ns_per_op", residual / ops, "ns");
    for dir in ["send", "recv"] {
        let key = format!("platform.transport.{dir}");
        let (calls, ns, hist) = probe.by_key(&key);
        report.push(format!("{key}.calls"), calls as f64 / iters, "calls/iter");
        report.push(format!("{key}.ns_p50"), hist.quantile(0.5), "ns");
        report.push(
            format!("{key}.ns_per_msg"),
            ns as f64 / msgs.max(1) as f64,
            "ns",
        );
    }
    for dir in ["send", "recv"] {
        report.push(
            format!("net.{dir}.ns_p50"),
            p50(&format!("net.{dir}")),
            "ns",
        );
    }
    report.push(
        "platform.transport.occupancy_mean",
        probe.occupancy_mean(),
        "msgs",
    );
    report.push(
        "platform.pool.lease_ns_p50",
        probe.pool.lease.hist().quantile(0.5),
        "ns",
    );
    report.push(
        "platform.pool.available_min",
        probe.pool_available_min().unwrap_or(0) as f64,
        "slots",
    );
    report.push(
        "platform.supervise.frame_ns_per_msg",
        framing_ns / framed_msgs.max(1.0),
        "ns",
    );
    report.push(
        "platform.supervise.retries",
        probe.retries() as f64,
        "count",
    );
    let flushes = probe.flush.count.load(Ordering::Relaxed) as f64;
    report.push("net.flush.count", flushes / iters, "1/iter");
    report.push(
        "net.flush.msgs_mean",
        probe.flush.msgs.load(Ordering::Relaxed) as f64 / flushes.max(1.0),
        "msgs",
    );
    for (reason, count) in FLUSH_REASONS.iter().zip(&probe.flush.reasons) {
        let name = format!("{reason:?}").to_lowercase();
        let share = count.load(Ordering::Relaxed) as f64 / flushes.max(1.0);
        report.push(format!("net.flush.reason.{name}"), share, "fraction");
    }
    // Everything crossing the sockets against the data direction: the
    // receivers' credit-ack records plus the UBS ack channel's messages.
    let acks = probe.ack_records.load(Ordering::Relaxed) + msgs - data_msgs;
    report.push(
        "net.ack_msgs_per_data_msg",
        if socket {
            acks as f64 / data_msgs.max(1) as f64
        } else {
            0.0
        },
        "ratio",
    );
    for actor in DSP_ACTORS {
        report.push(
            format!("dsp.compute_ns.{actor}"),
            per_call(&format!("dsp.compute_ns.{actor}")),
            "ns",
        );
    }
    report.push("trace.record_ns_p50", p50("trace.record"), "ns");
    report.push(
        "trace.events_per_iter",
        probe.by_key("trace.record").0 as f64 / iters,
        "1/iter",
    );
    report.push(
        "trace.overhead_frac",
        untraced_rate / traced_rate - 1.0,
        "fraction",
    );
    for (pe, (busy, blocked)) in pe_fracs.iter().enumerate() {
        report.push(format!("pe.{pe}.busy_frac"), *busy, "fraction");
        report.push(format!("pe.{pe}.blocked_frac"), *blocked, "fraction");
    }
    report.push("budget.residual_frac", residual_frac, "fraction");
    report.push("loadgen.lat_p50_us", median(&mut lat_p50), "us");
    report.push("loadgen.lat_p99_us", median(&mut lat_p99), "us");
    report.push("loadgen.late_p99_us", median(&mut late), "us");
    report.push("baseline.single_thread_iter_per_s", base, "1/s");
    report.push("baseline.speedup", untraced_rate / base, "ratio");
    report.push("bench.clock_pair_ns", probe::clock_pair_ns(), "ns");
    report.notes.push(format!(
        "{} untraced / {} traced rounds of {n} iterations: {untraced_rate:.0} vs {traced_rate:.0} iter/s",
        untraced.len(),
        traced.len()
    ));
    report.budget = Some(budget);
    Ok(report)
}
