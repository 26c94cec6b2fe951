//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable log on stderr and, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Exits 1 when an output check failed, 2 on bad usage.
//!
//! `--transport` and `--supervise` change an in-process workload's
//! transport or turn supervision on, for ad-hoc comparisons (pointer
//! vs ring, supervision overhead); the benchmark's own runs never pass
//! them.

use std::process::ExitCode;

use perfbench::workloads::{Ctx, Workload};
use perfbench::Report;
use spi_platform::TransportKind;

const USAGE: &str =
    "usage: perfbench --workload <speech_lpc|relay_8B|frames_2KiB|frames_2KiB_net> \
--seed <n> --seconds <s> --trace <0|1> [--corrupt-sink] [--transport <locked|ring|pointer>] \
[--supervise]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    transport: Option<TransportKind>,
    supervise: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut corrupt, mut transport, mut supervise) = (false, None, false);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--corrupt-sink" => {
                corrupt = true;
                continue;
            }
            "--supervise" => {
                supervise = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            "--transport" => {
                transport = Some(match value.as_str() {
                    "locked" => TransportKind::Locked,
                    "ring" => TransportKind::Ring,
                    "pointer" => TransportKind::Pointer,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
        corrupt,
        transport,
        supervise,
    })
}

fn log(workload: Workload, report: &Report) {
    for n in &report.notes {
        eprintln!("{}: {n}", workload.name());
    }
    for e in &report.errors {
        eprintln!("{}: CHECK FAILED: {e}", workload.name());
    }
    for m in &report.metrics {
        eprintln!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(b) = &report.budget {
        eprintln!(
            "  layer budget over {} traced iterations ({:.1} ms summed PE wall time):",
            b.iterations,
            b.wall_ns / 1e6
        );
        for (row, ns) in &b.rows {
            eprintln!(
                "    {:<40} {:>10.1} ns/iter {:>7.1}%",
                row,
                ns / b.iterations.max(1) as f64,
                100.0 * ns / b.wall_ns
            );
        }
        eprintln!(
            "    {:<40} {:>10.1} ns/iter {:>7.1}%",
            "total = PE wall time",
            b.wall_ns / b.iterations.max(1) as f64,
            100.0
        );
    }
    eprintln!(
        "{}: {} of {} iterations failed",
        workload.name(),
        report.failed,
        report.attempted
    );
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = Ctx::new(args.workload, args.seed, args.corrupt).and_then(|mut ctx| {
        ctx.transport = args.transport.unwrap_or(ctx.transport);
        ctx.supervise |= args.supervise;
        if args.trace {
            perfbench::traced(&ctx, args.seconds)
        } else {
            perfbench::end_to_end(&ctx, args.seconds)
        }
    });
    match result {
        Ok(report) => {
            log(args.workload, &report);
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}
