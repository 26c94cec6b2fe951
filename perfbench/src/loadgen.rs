//! Open-loop pacing: the source firing of iteration `i` is released at
//! its due time `t0 + i / rate`, and the sink records how long after
//! that due time iteration `i` completed — so a stall is charged to
//! every iteration queued behind it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use spi_platform::{Op, Program};

/// Lead time between arming the generator (first source firing) and
/// the first due time, so iteration 0 is not late by construction.
const LEAD: Duration = Duration::from_micros(500);

/// Marks a sample slot no firing wrote.
const MISSING: u64 = u64::MAX;

/// One paced round's generator and samples. Sample slots are
/// preallocated and touched up front, one per iteration, so recording
/// never allocates or page-faults inside the measured run.
pub struct Pacer {
    period: Duration,
    t0: OnceLock<Instant>,
    /// µs (as `f64` bits) the source of iteration `i` fired after its
    /// due time.
    late: Box<[AtomicU64]>,
    /// µs (as `f64` bits) from iteration `i`'s due time to its
    /// completion at the sink.
    latency: Box<[AtomicU64]>,
}

impl Pacer {
    /// A generator releasing `rate` iterations per second, with sample
    /// slots for `iterations`.
    pub fn new(rate: f64, iterations: u64) -> Arc<Pacer> {
        let slots = || (0..iterations).map(|_| AtomicU64::new(MISSING)).collect();
        Arc::new(Pacer {
            period: Duration::from_secs_f64(1.0 / rate),
            t0: OnceLock::new(),
            late: slots(),
            latency: slots(),
        })
    }

    fn due(&self, iter: u64) -> Instant {
        let t0 = *self.t0.get_or_init(|| Instant::now() + LEAD);
        t0 + self.period.mul_f64(iter as f64)
    }

    /// Wraps the compute op labelled `source` to wait for its due time
    /// and the one labelled `sink` to record completion latency.
    pub fn install(self: &Arc<Self>, programs: &mut [Program], source: &str, sink: &str) {
        for op in programs.iter_mut().flat_map(|p| p.ops.iter_mut()) {
            let Op::Compute { label, work } = op else {
                continue;
            };
            let mut inner = std::mem::replace(work, Box::new(|_| 0));
            let pacer = Arc::clone(self);
            if label.as_str() == source {
                *work = Box::new(move |l| {
                    let due = pacer.due(l.iter);
                    wait_until(due);
                    let late = Instant::now().saturating_duration_since(due);
                    record(&pacer.late, l.iter, late);
                    inner(l)
                });
            } else if label.as_str() == sink {
                *work = Box::new(move |l| {
                    let cycles = inner(l);
                    let took = Instant::now().saturating_duration_since(pacer.due(l.iter));
                    record(&pacer.latency, l.iter, took);
                    cycles
                });
            } else {
                *work = inner;
            }
        }
    }

    /// Latency and lateness samples (µs) of iterations at or past
    /// `warmup`.
    pub fn samples(&self, warmup: u64) -> (Vec<f64>, Vec<f64>) {
        let keep = |v: &[AtomicU64]| -> Vec<f64> {
            v.iter()
                .skip(warmup as usize)
                .map(|s| s.load(Ordering::Relaxed))
                .filter(|&bits| bits != MISSING)
                .map(f64::from_bits)
                .collect()
        };
        (keep(&self.latency), keep(&self.late))
    }
}

fn record(slots: &[AtomicU64], iter: u64, d: Duration) {
    if let Some(slot) = slots.get(iter as usize) {
        slot.store((d.as_secs_f64() * 1e6).to_bits(), Ordering::Relaxed);
    }
}

/// Sleeps while the due time is far (a sleep overshoots by the timer
/// slack, ~50 µs), then spins. Yielding instead would hand the core to
/// any runnable thread for a whole scheduler slice.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}
