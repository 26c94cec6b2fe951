//! Self-tests of the benchmark's own machinery: the timing decorator
//! must not change what the transport does, a wrong sink output must
//! fail the run, the layer budget must partition PE wall time, and the
//! metrics printed must be the ones `BENCHMARK.json` names.

use std::process::Command;
use std::time::Duration;

use perfbench::probe::{Probe, Row, TimedTransport};
use perfbench::workloads::{Ctx, Workload};
use spi_platform::{PointerTransport, Token};

const T: Duration = Duration::from_secs(1);

#[test]
fn timed_transport_forwards_token_and_pool_methods() {
    let probe = Probe::new(2);
    let ep = TimedTransport::wrap(
        Box::new(PointerTransport::new(8 * 64, 64)),
        &probe,
        Row::Transport,
        (0, 1),
        true,
    );
    assert!(ep.pool().is_some(), "pool() reaches the pointer transport");

    ep.send(&[1; 16], T).unwrap();
    ep.try_send(&[2; 16]).unwrap();
    ep.send_in_place(
        64,
        &mut |buf| {
            buf[..4].copy_from_slice(&[3; 4]);
            4
        },
        T,
    )
    .unwrap();
    let lease = ep.pool().unwrap().acquire(T).unwrap();
    ep.send_token(Token::Pooled(lease), T).unwrap();

    for first in [1u8, 2, 3] {
        let token = ep.recv_token(T).unwrap();
        assert!(
            token.is_pooled(),
            "recv_token must hand out the pooled lease"
        );
        assert_eq!(token[0], first);
    }
    let token = ep.try_recv_token().unwrap();
    assert!(token.is_pooled());
    drop(token);

    let (sends, _, _) = probe.by_key("platform.transport.send");
    let (recvs, _, _) = probe.by_key("platform.transport.recv");
    assert_eq!((sends, recvs), (4, 4));
    assert_eq!(
        probe.pool.lease.calls(),
        4,
        "every receive was a pooled lease"
    );
    assert_eq!(probe.taps()[0].msgs(), 4);
}

#[test]
fn pointer_workload_still_receives_pooled_tokens_when_traced() {
    let ctx = Ctx::new(Workload::Frames2KiB, 3, false).unwrap();
    let report = perfbench::traced(&ctx, 0.2).unwrap();
    assert!(report.correct(), "{:?}", report.errors);
    let recv_calls = report.get("platform.transport.recv.calls").unwrap();
    assert!(recv_calls > 0.0);
    assert!(
        report.get("platform.pool.lease_ns_p50").unwrap() > 0.0,
        "frames_2KiB receives pooled leases through the decorator"
    );
    assert!(report.get("platform.pool.available_min").unwrap() > 0.0);
}

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

fn failed_count(json: &str) -> u64 {
    let tail = json.split("\"failed\": ").nth(1).expect("failed field");
    tail.split(',').next().unwrap().trim().parse().unwrap()
}

#[test]
fn corrupted_sink_output_fails_the_run() {
    for w in Workload::ALL {
        let (code, json) = bench(&[
            "--workload",
            w.name(),
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--corrupt-sink",
        ]);
        assert_eq!(code, 1, "{}: a corrupted sink must exit non-zero", w.name());
        assert!(json.contains("\"correct\": false"), "{}: {json}", w.name());
        assert!(failed_count(&json) > 0, "{}: failed_ratio > 0", w.name());
    }
    let (code, json) = bench(&[
        "--workload",
        "frames_2KiB",
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 0, "{json}");
    assert_eq!(failed_count(&json), 0);
}

#[test]
fn comparison_overrides_keep_outputs_correct() {
    for kind in ["ring", "locked"] {
        let (code, json) = bench(&[
            "--workload",
            "frames_2KiB",
            "--seed",
            "6",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--transport",
            kind,
            "--supervise",
        ]);
        assert_eq!(code, 0, "{kind}: {json}");
        assert_eq!(failed_count(&json), 0);
    }
}

#[test]
fn layer_rows_and_residual_sum_to_pe_wall_time() {
    for w in [Workload::Relay8B, Workload::Frames2KiBNet] {
        let ctx = Ctx::new(w, 2, false).unwrap();
        let report = perfbench::traced(&ctx, 0.2).unwrap();
        assert!(report.correct(), "{}: {:?}", w.name(), report.errors);
        let budget = report.budget.clone().expect("traced runs carry a budget");
        assert!(budget.wall_ns > 0.0);
        let sum: f64 = budget.rows.iter().map(|(_, ns)| ns).sum();
        assert!(
            (sum - budget.wall_ns).abs() <= 1e-6 * budget.wall_ns,
            "{}: rows sum to {sum}, PE wall is {}",
            w.name(),
            budget.wall_ns
        );
        assert!(budget.rows.last().unwrap().0.starts_with("residual"));
        for (wall, spanned) in &budget.pes {
            assert!(*spanned > 0.0, "{}: every PE has spans", w.name());
            if w == Workload::Relay8B {
                // Measured spans never overlap, so they fit in the wall
                // time (the socket workload's calibrated framing row is
                // an estimate and may not).
                assert!(spanned <= wall, "{}: spans exceed PE wall time", w.name());
            }
        }
        let frac = report.get("budget.residual_frac").unwrap();
        let residual = budget.rows.last().unwrap().1 / budget.wall_ns;
        assert!((frac - residual).abs() < 1e-9);
    }
}

/// Metric names listed in `BENCHMARK.json` under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!("\"{section}\""))
        .nth(1)
        .expect("section present");
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let ctx = Ctx::new(Workload::Relay8B, 4, false).unwrap();
    let e2e = perfbench::end_to_end(&ctx, 0.2).unwrap();
    let names: Vec<String> = e2e.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, declared("end_to_end"));
    let traced = perfbench::traced(&ctx, 0.2).unwrap();
    let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, declared("per_layer"));
    for name in declared("workloads") {
        assert!(Workload::parse(&name).is_some(), "{name} is a workload");
    }
}
