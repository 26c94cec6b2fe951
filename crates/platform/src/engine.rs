//! The controlled-scheduler engine behind `spi-verify` and `spi-sim`.
//!
//! Every operation a thread performs through [`crate::shim`] — atomic
//! accesses, lock acquire/release, condvar wait/notify, park/unpark,
//! sleep, join — is a *schedule point* once the thread is enrolled in
//! a session: the thread declares the operation it is about to perform
//! and blocks until the controller grants it. Real OS threads run the
//! real code, but only one runs at a time, and the controller always
//! knows the complete frontier: which threads can run and exactly what
//! each would do next.
//!
//! One execution loop serves every use; a *strategy* picks the next
//! thread and the clock rule:
//!
//! | strategy | thread set | choice | clock | entry points |
//! |---|---|---|---|---|
//! | exhaustive | fixed [`Scenario`] | DFS + sleep sets | frozen | [`explore`] |
//! | seeded | grows from one root closure | SplitMix64 on the seed | virtual | [`run`] |
//! | replay | either | forced prefix, then stay on thread | that of the replayed run | [`replay`], [`replay_scenario`], [`shrink`] |
//!
//! Every failure is a [`Failure`] carrying its `schedule`, so any of
//! them — a model-checker witness as much as a failing seed — replays
//! exactly through the replay strategy.
//!
//! * **Exhaustive.** Depth-first search over decision points (states
//!   with two or more runnable threads) replays the common prefix from
//!   the decision stack on each run. *Sleep sets* (Godefroid) prune
//!   interleavings that only reorder independent operations: once the
//!   subtree rooted at choice `t` is exhausted, `t` sleeps for the
//!   sibling choices until an operation dependent with its own wakes
//!   it. Every Mazurkiewicz trace keeps a representative, so the search
//!   stays exhaustive at the bound for safety and deadlock.
//! * **Frozen clock.** [`crate::shim::now`] returns the session epoch
//!   and no deadline ever fires: a lost wakeup the real runtime would
//!   mask within one bounded park slice is a hard deadlock here.
//! * **Virtual clock.** Time advances only when no thread can run, and
//!   then jumps to the earliest pending deadline (park slice, condvar
//!   timeout, sleep). With `strict_park` park deadlines never fire.
//!
//! A run fails on a **deadlock** (nothing runnable, no deadline that
//! can fire, some thread unfinished), a **panic** in any thread, or a
//! **step limit** (a livelock). Failures are greedily minimized by
//! deferring context switches ([`shrink`]).
//!
//! The memory model is sequential consistency — one thread runs at a
//! time and every effect is globally visible before the next grant.
//! Weak-memory bugs are out of scope; DESIGN.md §12 discusses the
//! consequences.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

/// Live sessions, process-wide. The shim fast path loads this with
/// relaxed ordering and skips all engine logic when it is zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

#[derive(Clone)]
struct Ctx {
    sess: SessionHandle,
    /// Engine thread index. `None` for the explorer while it builds a
    /// scenario: it allocates object ids but never schedules.
    tid: Option<usize>,
}

/// Shared handle to a running session (used by [`crate::shim::spawn`]
/// and [`crate::shim::scope`] to enroll children).
pub(crate) type SessionHandle = Arc<Session>;

/// Step budget under the frozen clock, where a long run is a livelock.
const FROZEN_MAX_STEPS: usize = 20_000;
/// Step budget under the virtual clock (whole-system runs).
const VIRTUAL_MAX_STEPS: usize = 2_000_000;
/// Replay attempts the witness minimizer may spend.
const MINIMIZE_BUDGET: usize = 200;

/// Sentinel panic payload that unwinds the threads of an abandoned run
/// (pruned, failed or finished). Swallowed by the panic hook.
struct ModelAbort;

fn install_abort_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ModelAbort>() {
                prev(info);
            }
        }));
    });
}

/// Unwinds the calling thread out of an abandoned run — unless it is
/// already unwinding (a `Drop` issuing shim ops), in which case the
/// operation is simply skipped.
fn abort_unwind() {
    if !std::thread::panicking() {
        panic::panic_any(ModelAbort);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Operations and the dependency relation
// ---------------------------------------------------------------------------

/// A visible operation a thread is about to perform. Timeouts are
/// declared relative to the calling instant; the session anchors them
/// on its clock ([`Op::anchored`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Thread startup marker (independent of everything).
    Start,
    Load(usize),
    Store(usize),
    /// Read-modify-write (CAS, swap).
    Rmw(usize),
    Lock(usize),
    Unlock(usize),
    /// Consume a park token; enabled once one is available or the
    /// deadline fires.
    Park {
        deadline: Option<Duration>,
    },
    /// Make a park token available to thread `.0`.
    Unpark(usize),
    /// Release `cv`'s mutex and wait for a notify or the deadline.
    CvWait {
        cv: usize,
        deadline: Option<Duration>,
    },
    CvNotify {
        cv: usize,
        all: bool,
    },
    Sleep {
        until: Duration,
    },
    /// Wait for thread `.0` to finish.
    Join(usize),
}

impl Op {
    fn obj(self) -> Option<usize> {
        match self {
            Op::Load(o) | Op::Store(o) | Op::Rmw(o) | Op::Lock(o) | Op::Unlock(o) => Some(o),
            _ => None,
        }
    }

    fn is_write(self) -> bool {
        matches!(
            self,
            Op::Store(_) | Op::Rmw(_) | Op::Lock(_) | Op::Unlock(_)
        )
    }

    /// Turns relative timeouts into offsets from the session epoch.
    fn anchored(self, now: Duration) -> Op {
        match self {
            Op::Park { deadline } => Op::Park {
                deadline: deadline.map(|d| now + d),
            },
            Op::CvWait { cv, deadline } => Op::CvWait {
                cv,
                deadline: deadline.map(|d| now + d),
            },
            Op::Sleep { until } => Op::Sleep { until: now + until },
            op => op,
        }
    }
}

/// Conservative dependency relation between operations of two
/// *different* threads. Sleep-set wakeups and the soundness of pruning
/// rest on this being a superset of true dependence, so condvar, sleep
/// and join operations count as dependent with everything.
fn dependent(a_tid: usize, a: Op, b_tid: usize, b: Op) -> bool {
    use Op::*;
    match (a, b) {
        (Start, _) | (_, Start) => false,
        (CvWait { .. } | CvNotify { .. } | Sleep { .. } | Join(_), _)
        | (_, CvWait { .. } | CvNotify { .. } | Sleep { .. } | Join(_)) => true,
        (Park { .. }, Unpark(t)) => t == a_tid,
        (Unpark(t), Park { .. }) => t == b_tid,
        (Unpark(x), Unpark(y)) => x == y,
        (Park { .. } | Unpark(_), _) | (_, Park { .. } | Unpark(_)) => false,
        _ => match (a.obj(), b.obj()) {
            (Some(x), Some(y)) => x == y && (a.is_write() || b.is_write()),
            _ => false,
        },
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// How session time moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    /// Stuck at the epoch: no deadline ever fires.
    Frozen,
    /// Jumps to the earliest deadline when nothing can run; with
    /// `strict_park` park deadlines never fire.
    Virtual { strict_park: bool },
}

impl Clock {
    /// The instant a blocked `op` becomes enabled by time alone, if it
    /// ever does under this clock.
    fn deadline(self, op: Option<Op>) -> Option<Duration> {
        match (self, op?) {
            (Clock::Frozen, _) => None,
            (Clock::Virtual { strict_park }, Op::Park { deadline }) => {
                deadline.filter(|_| !strict_park)
            }
            (_, Op::CvWait { deadline, .. }) => deadline,
            (_, Op::Sleep { until }) => Some(until),
            _ => None,
        }
    }

    fn max_steps(self) -> usize {
        match self {
            Clock::Frozen => FROZEN_MAX_STEPS,
            Clock::Virtual { .. } => VIRTUAL_MAX_STEPS,
        }
    }
}

/// Chooses the next thread at every schedule point.
enum Strategy<'a> {
    /// Depth-first search over the decision stack; frozen clock.
    Exhaustive(&'a mut Vec<Node>),
    /// SplitMix64 choice among the enabled threads; virtual clock.
    Seeded { seed: u64, strict_park: bool },
    /// Forced prefix, then stay on the last thread while it can run.
    Replay { schedule: &'a [usize], clock: Clock },
}

impl Strategy<'_> {
    fn clock(&self) -> Clock {
        match *self {
            Strategy::Exhaustive(_) => Clock::Frozen,
            Strategy::Seeded { strict_park, .. } => Clock::Virtual { strict_park },
            Strategy::Replay { clock, .. } => clock,
        }
    }
}

/// A decision point in the DFS stack.
struct Node {
    enabled: Vec<usize>,
    sleep: Vec<(usize, Op)>,
    chosen: usize,
    chosen_op: Op,
}

/// Default choice: stay on the previously running thread when possible
/// (keeps schedules low-preemption), else the lowest awake thread id.
fn prefer(last: Option<usize>, enabled: &[usize], sleep: &[(usize, Op)]) -> usize {
    let asleep = |t: usize| sleep.iter().any(|(s, _)| *s == t);
    match last {
        Some(l) if enabled.contains(&l) && !asleep(l) => l,
        _ => *enabled.iter().find(|&&t| !asleep(t)).unwrap_or(&enabled[0]),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

struct ThreadSt {
    name: String,
    /// Declared-but-not-yet-granted operation.
    pending: Option<Op>,
    finished: bool,
    /// Park token (std semantics: at most one).
    token: bool,
    /// Condvar wakeup flag, set by a granted `CvNotify`.
    notified: bool,
    /// Result slot read back by the waiter after a `CvWait` grant.
    timed_out: bool,
    /// This thread's own wakeup. Grants are *targeted*: each handshake
    /// wakes exactly the one thread that can make progress. A broadcast
    /// condvar would stampede every blocked thread through the OS
    /// scheduler on each of the 10⁵–10⁶ steps of an exploration, and
    /// spinning is worse still on a single core, where the spinner
    /// burns the timeslice the granted thread needs.
    cv: Arc<Condvar>,
}

struct St {
    /// Grows as threads register.
    threads: Vec<ThreadSt>,
    /// Thread currently granted (running between schedule points).
    current: Option<usize>,
    /// Mutex object id -> owning thread.
    lock_owner: HashMap<usize, usize>,
    labels: HashMap<usize, &'static str>,
    panicked: Option<(usize, String)>,
    abort: bool,
    /// Session time since the epoch.
    vnow: Duration,
    next_obj: usize,
}

impl St {
    fn enabled(&self, t: usize, clock: Clock) -> bool {
        let th = &self.threads[t];
        let due = || clock.deadline(th.pending).is_some_and(|d| self.vnow >= d);
        !th.finished
            && match th.pending {
                Some(Op::Park { .. }) => th.token || due(),
                Some(Op::Lock(m)) => !self.lock_owner.contains_key(&m),
                Some(Op::CvWait { .. }) => th.notified || due(),
                Some(Op::Sleep { .. }) => due(),
                Some(Op::Join(c)) => self.threads[c].finished,
                Some(_) => true,
                None => false,
            }
    }

    /// Earliest deadline among blocked threads that can fire.
    fn next_deadline(&self, clock: Clock) -> Option<Duration> {
        self.threads
            .iter()
            .filter(|t| !t.finished)
            .filter_map(|t| clock.deadline(t.pending))
            .min()
    }

    /// Applies the model effects of granting `op` to thread `t`.
    fn grant(&mut self, t: usize, op: Op) {
        match op {
            Op::Park { .. } => self.threads[t].token = false,
            Op::Unpark(u) if u < self.threads.len() => self.threads[u].token = true,
            Op::Lock(m) => {
                self.lock_owner.insert(m, t);
            }
            Op::Unlock(m) => {
                self.lock_owner.remove(&m);
            }
            Op::CvWait { .. } => {
                let th = &mut self.threads[t];
                th.timed_out = !th.notified;
                th.notified = false;
            }
            Op::CvNotify { cv, all } => {
                // Deterministic wake order: lowest thread id first.
                for th in &mut self.threads {
                    if matches!(th.pending, Some(Op::CvWait { cv: c, .. }) if c == cv)
                        && !th.notified
                    {
                        th.notified = true;
                        if !all {
                            break;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn obj(&self, id: usize) -> String {
        format!("{}#{id}", self.labels.get(&id).unwrap_or(&"obj"))
    }

    /// The one operation formatter: event logs, witnesses and blocked
    /// descriptions all name objects by label and threads by name.
    fn op_text(&self, op: Op) -> String {
        let name = |t: usize| match self.threads.get(t) {
            Some(th) => format!("[{}]", th.name),
            None => format!("[t{t}]"),
        };
        match op {
            Op::Start => "start".to_string(),
            Op::Load(o) => format!("load {}", self.obj(o)),
            Op::Store(o) => format!("store {}", self.obj(o)),
            Op::Rmw(o) => format!("cas {}", self.obj(o)),
            Op::Lock(o) => format!("lock {}", self.obj(o)),
            Op::Unlock(o) => format!("unlock {}", self.obj(o)),
            Op::Park { deadline: Some(d) } => format!("park (deadline {}ns)", d.as_nanos()),
            Op::Park { deadline: None } => "park".to_string(),
            Op::Unpark(t) => format!("unpark {}", name(t)),
            Op::CvWait { cv, deadline } => match deadline {
                Some(d) => format!("cv-wait {} (deadline {}ns)", self.obj(cv), d.as_nanos()),
                None => format!("cv-wait {}", self.obj(cv)),
            },
            Op::CvNotify { cv, all: false } => format!("cv-notify-one {}", self.obj(cv)),
            Op::CvNotify { cv, all: true } => format!("cv-notify-all {}", self.obj(cv)),
            Op::Sleep { until } => format!("sleep (until {}ns)", until.as_nanos()),
            Op::Join(t) => format!("join {}", name(t)),
        }
    }

    fn describe_blocked(&self, t: usize) -> String {
        let what = match self.threads[t].pending {
            Some(Op::Park { .. }) => "parked with no pending unpark (lost wakeup)".to_string(),
            Some(Op::Lock(m)) => format!("waiting for lock {}", self.obj(m)),
            Some(Op::CvWait { cv, .. }) => format!("waiting on {} with no notifier", self.obj(cv)),
            Some(op) => format!("blocked before {}", self.op_text(op)),
            None => "not yet started".to_string(),
        };
        format!("{}: {what}", self.threads[t].name)
    }
}

pub(crate) struct Session {
    st: Mutex<St>,
    ctrl_cv: Condvar,
    epoch: Instant,
}

impl Session {
    fn new() -> SessionHandle {
        install_abort_hook();
        Arc::new(Session {
            st: Mutex::new(St {
                threads: Vec::new(),
                current: None,
                lock_owner: HashMap::new(),
                labels: HashMap::new(),
                panicked: None,
                abort: false,
                vnow: Duration::ZERO,
                next_obj: 1,
            }),
            ctrl_cv: Condvar::new(),
            epoch: Instant::now(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, St> {
        self.st.lock().expect("engine session state")
    }

    /// Adds a thread to the table. A parent registers a child *before*
    /// spawning the real thread, so the controller waits for its
    /// `Start`.
    pub(crate) fn register(&self, name: String) -> usize {
        let mut st = self.lock();
        st.threads.push(ThreadSt {
            name,
            pending: None,
            finished: false,
            token: false,
            notified: false,
            timed_out: false,
            cv: Arc::new(Condvar::new()),
        });
        st.threads.len() - 1
    }

    /// Declares `op` for `tid` and blocks until the controller grants
    /// it, returning the state guard (so callers can read result
    /// slots), or `None` when the run was abandoned and the thread is
    /// already unwinding.
    fn declare_and_wait<'a>(
        &self,
        mut st: MutexGuard<'a, St>,
        tid: usize,
        op: Op,
    ) -> Option<MutexGuard<'a, St>> {
        let cv = Arc::clone(&st.threads[tid].cv);
        st.threads[tid].pending = Some(op.anchored(st.vnow));
        // Only clear `current` when the declarer held it: a freshly
        // spawned child declares Start while its parent still runs.
        if st.current == Some(tid) {
            st.current = None;
        }
        self.ctrl_cv.notify_one();
        loop {
            if st.abort {
                drop(st);
                abort_unwind();
                return None;
            }
            if st.current == Some(tid) {
                return Some(st);
            }
            st = cv.wait(st).expect("engine session state");
        }
    }

    fn thread_done(&self, tid: usize, result: std::thread::Result<()>) {
        let mut st = self.lock();
        st.threads[tid].finished = true;
        if let Err(payload) = result {
            if !payload.is::<ModelAbort>() && st.panicked.is_none() {
                st.panicked = Some((tid, panic_message(payload.as_ref())));
            }
        }
        if st.current == Some(tid) {
            st.current = None;
        }
        self.ctrl_cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Shim entry points
// ---------------------------------------------------------------------------

fn ctx() -> Option<Ctx> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// The calling thread's session and engine thread index, if it is a
/// scheduled thread of a live session.
fn worker() -> Option<(SessionHandle, usize)> {
    ctx().and_then(|c| Some((c.sess, c.tid?)))
}

/// Makes `op` a schedule point of the calling thread. Returns `false`
/// (and does nothing) outside a session; the caller then performs the
/// real operation. A granted `Park` has consumed its token; a granted
/// `Unpark`, `CvNotify` or `Sleep` has had its whole effect.
pub(crate) fn schedule(op: Op) -> bool {
    match worker() {
        Some((sess, tid)) => {
            drop(sess.declare_and_wait(sess.lock(), tid, op));
            true
        }
        None => false,
    }
}

/// Modeled condvar wait: atomically (in the model's view, at this
/// declaration) release `mutex` and enqueue on `cv`; the grant arrives
/// once notified or the deadline fires. Returns whether the wait timed
/// out. The caller re-acquires the mutex through a separate `Lock`
/// schedule point. Only call when [`in_session`] is true.
pub(crate) fn cv_wait(cv: usize, mutex: usize, dur: Option<Duration>) -> bool {
    let Some((sess, tid)) = worker() else {
        return false;
    };
    let mut st = sess.lock();
    if !st.abort {
        debug_assert_eq!(st.lock_owner.get(&mutex).copied(), Some(tid));
        st.lock_owner.remove(&mutex);
        st.threads[tid].notified = false;
    }
    let op = Op::CvWait { cv, deadline: dur };
    let timed_out = sess
        .declare_and_wait(st, tid, op)
        .is_none_or(|st| st.threads[tid].timed_out);
    timed_out
}

/// Engine thread index of the calling thread, if it is scheduled.
pub(crate) fn worker_tid() -> Option<usize> {
    worker().map(|(_, tid)| tid)
}

/// Whether the calling thread is a scheduled thread of a live session.
pub(crate) fn in_session() -> bool {
    worker().is_some()
}

/// The session clock, if the calling thread is in a session: the epoch
/// plus the current (frozen or virtual) offset.
pub(crate) fn now() -> Option<Instant> {
    ctx().map(|c| c.sess.epoch + c.sess.lock().vnow)
}

/// Allocates a deterministic per-run object id (creation order is
/// serialized by the scheduler), or 0 outside any session.
pub(crate) fn next_object_id(label: &'static str) -> usize {
    ctx().map_or(0, |c| {
        let mut st = c.sess.lock();
        let id = st.next_obj;
        st.next_obj += 1;
        st.labels.insert(id, label);
        id
    })
}

/// The calling thread's session handle, for enrolling spawned children.
pub(crate) fn session_handle() -> Option<SessionHandle> {
    ctx().map(|c| c.sess)
}

/// Body wrapper for every scheduled thread: installs the session
/// context, declares `Start`, runs `f`, and reports completion. Panics
/// (including `ModelAbort` unwinds) are recorded in the session rather
/// than propagated — the controller reports a failure, not a poisoned
/// join.
pub(crate) fn child_main(sess: SessionHandle, tid: usize, f: impl FnOnce()) {
    set_ctx(Some(Ctx {
        sess: Arc::clone(&sess),
        tid: Some(tid),
    }));
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        schedule(Op::Start);
        f();
    }));
    set_ctx(None);
    sess.thread_done(tid, r);
}

// ---------------------------------------------------------------------------
// The controller loop
// ---------------------------------------------------------------------------

/// Waits for quiescence, lets the strategy pick an enabled thread,
/// applies the grant's model effects, and advances the clock when
/// nothing can run. Returns the run and whether sleep-set pruning
/// abandoned it.
fn drive(sess: &Session, mut strategy: Strategy<'_>) -> (SimRun, bool) {
    let clock = strategy.clock();
    let seed = match strategy {
        Strategy::Seeded { seed, .. } => seed,
        _ => 0,
    };
    let mut rng = seed ^ 0xD6E8_FEB8_6659_FD93;
    // Exhaustive runs number in the tens of thousands; only the others
    // keep an event log.
    let logging = !matches!(strategy, Strategy::Exhaustive(_));
    let mut log = String::new();
    let mut granted: Vec<(usize, Op)> = Vec::new();
    let mut cur_sleep: Vec<(usize, Op)> = Vec::new();
    let mut depth = 0usize; // decision points passed this run
    let mut last: Option<usize> = None;

    enum End {
        Complete,
        Pruned,
        Diverged,
        Failed(FailureKind),
    }

    let mut st = sess.lock();
    let end = loop {
        // Quiescence: nobody running, every live thread has declared.
        while !(st.current.is_none()
            && st.threads.iter().all(|t| t.finished || t.pending.is_some()))
        {
            st = sess.ctrl_cv.wait(st).expect("engine session state");
        }
        if let Some((tid, message)) = st.panicked.clone() {
            let thread = st.threads[tid].name.clone();
            break End::Failed(FailureKind::Panic { thread, message });
        }
        if st.threads.iter().all(|t| t.finished) {
            break End::Complete;
        }
        if granted.len() >= clock.max_steps() {
            break End::Failed(FailureKind::StepLimit);
        }
        let n = st.threads.len();
        let enabled: Vec<usize> = (0..n).filter(|&t| st.enabled(t, clock)).collect();
        if enabled.is_empty() {
            if let Some(d) = st.next_deadline(clock) {
                debug_assert!(d > st.vnow, "deadline in the past yet thread not enabled");
                st.vnow = d;
                if logging {
                    let line = format!("........ {:>12} -- clock advance\n", d.as_nanos());
                    log.push_str(&line);
                }
                continue;
            }
            let blocked = (0..n)
                .filter(|&t| !st.threads[t].finished)
                .map(|t| st.describe_blocked(t))
                .collect();
            break End::Failed(FailureKind::Deadlock { blocked });
        }

        let asleep = |sleep: &[(usize, Op)], t: usize| sleep.iter().any(|(s, _)| *s == t);
        let choice = match &mut strategy {
            Strategy::Replay { schedule, .. } => match schedule.get(granted.len()) {
                Some(&t) if enabled.contains(&t) => t,
                Some(_) => break End::Diverged,
                None => prefer(last, &enabled, &[]),
            },
            Strategy::Seeded { .. } if enabled.len() == 1 => enabled[0],
            Strategy::Seeded { .. } => {
                enabled[(splitmix(&mut rng) % enabled.len() as u64) as usize]
            }
            Strategy::Exhaustive(_) if enabled.len() == 1 => {
                if asleep(&cur_sleep, enabled[0]) {
                    break End::Pruned;
                }
                enabled[0]
            }
            Strategy::Exhaustive(stack) => {
                let c = if depth < stack.len() {
                    let node = &mut stack[depth];
                    assert_eq!(
                        node.enabled, enabled,
                        "non-deterministic scenario: replay diverged"
                    );
                    cur_sleep = node.sleep.clone();
                    node.chosen_op = st.threads[node.chosen].pending.expect("pending op");
                    node.chosen
                } else {
                    let c = prefer(last, &enabled, &cur_sleep);
                    if asleep(&cur_sleep, c) {
                        // Every enabled thread is asleep: this prefix
                        // only reorders independent ops of an
                        // already-explored trace.
                        break End::Pruned;
                    }
                    stack.push(Node {
                        enabled: enabled.clone(),
                        sleep: cur_sleep.clone(),
                        chosen: c,
                        chosen_op: st.threads[c].pending.expect("pending op"),
                    });
                    c
                };
                depth += 1;
                c
            }
        };

        let op = st.threads[choice].pending.take().expect("pending op");
        // Wake sleepers whose next op depends on the one about to run.
        cur_sleep.retain(|&(s, s_op)| s != choice && !dependent(s, s_op, choice, op));
        st.grant(choice, op);
        if logging {
            let line = format!(
                "{:08} {:>12} [{}] {}\n",
                granted.len(),
                st.vnow.as_nanos(),
                st.threads[choice].name,
                st.op_text(op)
            );
            log.push_str(&line);
        }
        granted.push((choice, op));
        last = Some(choice);
        st.current = Some(choice);
        st.threads[choice].cv.notify_one();
    };

    // Conclude the run: blocked threads observe `abort` and unwind via
    // `ModelAbort` — pool workers drain back to idle, scoped roots are
    // joined, detached shim threads exit on their own.
    st.abort = true;
    st.current = None;
    for th in &st.threads {
        th.cv.notify_one();
    }
    let schedule: Vec<usize> = granted.iter().map(|&(t, _)| t).collect();
    let pruned = matches!(end, End::Pruned);
    let failure = match end {
        End::Failed(kind) => Some(Failure {
            kind,
            trace: granted
                .iter()
                .filter(|(_, op)| *op != Op::Start)
                .map(|&(t, op)| Step {
                    thread: st.threads[t].name.clone(),
                    op: st.op_text(op),
                })
                .collect(),
            raw_steps: schedule.len(),
            context_switches: switches(&schedule),
            schedule: schedule.clone(),
        }),
        _ => None,
    };
    let run = SimRun {
        seed,
        steps: schedule.len(),
        vtime: st.vnow,
        log,
        schedule,
        failure,
    };
    (run, pruned)
}

fn switches(schedule: &[usize]) -> usize {
    schedule.windows(2).filter(|w| w[0] != w[1]).count()
}

fn same_kind(a: &FailureKind, b: &FailureKind) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Greedy context-switch deferral: repeatedly force the schedule prefix
/// plus one more step of the previous thread, let the replay strategy
/// finish the run, and adopt any reproduction of the same failure kind
/// with strictly fewer switches. Returns the best reproduction found
/// (the original if no variant reproduced it).
fn minimize(failure: &Failure, mut replay: impl FnMut(&[usize]) -> SimRun) -> Failure {
    let mut reproduce = |schedule: &[usize]| {
        replay(schedule)
            .failure
            .filter(|f| same_kind(&f.kind, &failure.kind))
    };
    let mut best = failure.schedule.clone();
    let mut budget = MINIMIZE_BUDGET;
    let mut improved = true;
    while improved && budget > 0 {
        improved = false;
        let mut i = 1;
        while i < best.len() && budget > 0 {
            if best[i] != best[i - 1] {
                budget -= 1;
                let mut forced = best[..i].to_vec();
                forced.push(best[i - 1]);
                if let Some(f) = reproduce(&forced) {
                    if switches(&f.schedule) < switches(&best) {
                        best = f.schedule;
                        improved = true;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    match reproduce(&best) {
        Some(f) => Failure {
            raw_steps: failure.raw_steps,
            ..f
        },
        None => failure.clone(),
    }
}

// ---------------------------------------------------------------------------
// Launching runs
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send>;

/// One long-lived OS thread per scenario thread, reused across every
/// run of an exploration. Spawning and joining real threads costs ~1 ms
/// per run — two orders of magnitude more than the run's schedule — so
/// the pool is what makes tens of thousands of runs tractable.
struct WorkerPool {
    jobs: Vec<mpsc::Sender<Job>>,
    done: mpsc::Receiver<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(n: usize) -> Self {
        let (done_tx, done) = mpsc::channel();
        let (jobs, handles) = (0..n)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Job>();
                let done_tx = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("spi-verify-worker-{i}"))
                    .spawn(move || {
                        for job in rx {
                            job();
                            let _ = done_tx.send(());
                        }
                    })
                    .expect("spawn pool worker");
                (tx, handle)
            })
            .unzip();
        WorkerPool {
            jobs,
            done,
            handles,
        }
    }

    /// The pool equivalent of joining: blocks until every worker has
    /// finished its job of the current run.
    fn wait_idle(&self) {
        for _ in &self.jobs {
            self.done.recv().expect("pool worker died");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One run of a fixed-thread scenario on the worker pool. The scenario
/// is built under the session (with no thread index) so its shim
/// objects receive deterministic per-run ids.
fn run_scenario(
    scenario: &impl Fn(&mut Scenario),
    strategy: Strategy<'_>,
    pool: &mut Option<WorkerPool>,
) -> (SimRun, bool) {
    let sess = Session::new();
    let mut sc = Scenario::default();
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    set_ctx(Some(Ctx {
        sess: Arc::clone(&sess),
        tid: None,
    }));
    scenario(&mut sc);
    set_ctx(None);
    let n = sc.threads.len();
    assert!(n > 0, "scenario registered no threads");
    let pool = pool.get_or_insert_with(|| WorkerPool::new(n));
    assert_eq!(
        pool.jobs.len(),
        n,
        "non-deterministic scenario: thread count changed between runs"
    );
    for ((name, f), jobs) in sc.threads.into_iter().zip(&pool.jobs) {
        let tid = sess.register(name);
        let sess = Arc::clone(&sess);
        jobs.send(Box::new(move || child_main(sess, tid, f)))
            .expect("pool worker died");
    }
    let out = drive(&sess, strategy);
    pool.wait_idle();
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    out
}

/// One run of a root closure; its `shim::spawn`/`shim::scope` children
/// join the schedule as they appear.
fn run_root(strategy: Strategy<'_>, scenario: &(impl Fn() + Send + Sync)) -> SimRun {
    let sess = Session::new();
    sess.register("main".to_string());
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let (run, _) = std::thread::scope(|s| {
        let root = Arc::clone(&sess);
        std::thread::Builder::new()
            .name("spi-sim-main".into())
            .spawn_scoped(s, move || child_main(root, 0, scenario))
            .expect("spawn sim root thread");
        drive(&sess, strategy)
    });
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    run
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Tunables for a bounded exploration.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Stop (reporting `capped = true`) after this many runs.
    pub max_schedules: u64,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            max_schedules: 1_000_000,
        }
    }
}

/// Collects the threads of one scenario run.
#[derive(Default)]
pub struct Scenario {
    threads: Vec<(String, Job)>,
}

impl Scenario {
    /// Registers a named scenario thread. Thread registration order
    /// fixes engine thread indices (and so must be deterministic, which
    /// it is for any straight-line builder closure).
    pub fn thread(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        self.threads.push((name.to_string(), Box::new(f)));
    }
}

/// One step of a failing interleaving.
#[derive(Debug, Clone)]
pub struct Step {
    /// Thread name.
    pub thread: String,
    /// Human-readable operation (`"store seq#4"`, `"unpark [consumer-1]"`, ...).
    pub op: String,
}

/// Why a schedule failed.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// No thread runnable, not all finished: a lost wakeup or circular
    /// wait. `blocked` describes each stuck thread.
    Deadlock {
        /// One description per unfinished thread.
        blocked: Vec<String>,
    },
    /// A thread panicked.
    Panic {
        /// Thread name.
        thread: String,
        /// Panic payload rendered as text.
        message: String,
    },
    /// The per-run step budget was exceeded (a livelock).
    StepLimit,
}

/// A failing schedule.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The reported interleaving (thread start markers omitted).
    pub trace: Vec<Step>,
    /// Steps in the originally discovered failing schedule.
    pub raw_steps: usize,
    /// Context switches in the reported interleaving.
    pub context_switches: usize,
    /// Thread choice per step — feed to [`replay`] or
    /// [`replay_scenario`] to re-execute, or to [`shrink`] to minimize.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Deadlock { blocked } => {
                writeln!(f, "deadlock: no runnable thread")?;
                for b in blocked {
                    writeln!(f, "  blocked: {b}")?;
                }
            }
            FailureKind::Panic { thread, message } => {
                writeln!(f, "panic in thread `{thread}`: {message}")?;
            }
            FailureKind::StepLimit => writeln!(f, "step budget exceeded (livelock?)")?,
        }
        writeln!(
            f,
            "interleaving ({} steps, {} context switches; discovered at {} steps):",
            self.trace.len(),
            self.context_switches,
            self.raw_steps
        )?;
        let mut prev: Option<&str> = None;
        for s in &self.trace {
            let switched = prev.is_some_and(|p| p != s.thread);
            let marker = if switched { "->" } else { "  " };
            writeln!(f, "  {marker} [{}] {}", s.thread, s.op)?;
            prev = Some(&s.thread);
        }
        Ok(())
    }
}

/// Result of a bounded exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Complete schedules executed (including the failing one).
    pub schedules: u64,
    /// Prefixes abandoned by sleep-set pruning.
    pub pruned: u64,
    /// Whether `max_schedules` stopped the search before exhaustion.
    pub capped: bool,
    /// First failure found (minimized), if any.
    pub failure: Option<Failure>,
}

/// Exhaustively explores the interleavings of `scenario` (up to
/// happens-before equivalence) at the configured bounds. The scenario
/// closure is re-invoked for every run and must build a fresh world
/// each time: shared state is created inside the closure, moved into
/// [`Scenario::thread`] closures, and discarded when the run ends.
pub fn explore(opts: &ModelOptions, scenario: impl Fn(&mut Scenario)) -> Exploration {
    let mut stack: Vec<Node> = Vec::new();
    let (mut schedules, mut pruned) = (0u64, 0u64);
    let mut pool = None;
    let capped = loop {
        if schedules + pruned >= opts.max_schedules {
            break true;
        }
        let (run, was_pruned) =
            run_scenario(&scenario, Strategy::Exhaustive(&mut stack), &mut pool);
        if was_pruned {
            pruned += 1;
        } else {
            schedules += 1;
        }
        if let Some(raw) = run.failure {
            let failure = minimize(&raw, |schedule| {
                let replay = Strategy::Replay {
                    schedule,
                    clock: Clock::Frozen,
                };
                run_scenario(&scenario, replay, &mut pool).0
            });
            return Exploration {
                schedules,
                pruned,
                capped: false,
                failure: Some(failure),
            };
        }
        // Backtrack: exhaust siblings right-to-left, extending each
        // node's sleep set with the subtree just completed.
        let mut advanced = false;
        while let Some(mut node) = stack.pop() {
            node.sleep.push((node.chosen, node.chosen_op));
            if let Some(&next) = node
                .enabled
                .iter()
                .find(|t| !node.sleep.iter().any(|(s, _)| s == *t))
            {
                // `chosen_op` is refreshed by the replay that revisits
                // this node (the pending op of `next` there).
                node.chosen = next;
                stack.push(node);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break false;
        }
    };
    Exploration {
        schedules,
        pruned,
        capped,
        failure: None,
    }
}

/// Re-executes a fixed-thread schedule — typically an exploration
/// witness's [`Failure::schedule`] — under the explorer's frozen clock.
/// After the forced prefix the run completes on the stay-on-thread
/// policy; a divergence ends it with `failure: None`.
pub fn replay_scenario(schedule: &[usize], scenario: impl Fn(&mut Scenario)) -> SimRun {
    let replay = Strategy::Replay {
        schedule,
        clock: Clock::Frozen,
    };
    run_scenario(&scenario, replay, &mut None).0
}

/// Tunables for one simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// PRNG seed driving every scheduling decision.
    pub seed: u64,
    /// When set, park deadlines never fire: the bounded park slices
    /// production code uses to ride out scheduler pathology cannot mask
    /// a lost wakeup, which then surfaces as a deadlock. Condvar
    /// timeouts and sleeps still fire (supervision deadlines keep
    /// working). Off by default.
    pub strict_park: bool,
}

impl SimOptions {
    /// Options for `seed` with everything else default.
    pub fn seeded(seed: u64) -> Self {
        SimOptions {
            seed,
            ..SimOptions::default()
        }
    }

    fn clock(&self) -> Clock {
        Clock::Virtual {
            strict_park: self.strict_park,
        }
    }
}

/// Result of one controlled run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The seed that produced this run (0 for replays).
    pub seed: u64,
    /// Schedule points granted.
    pub steps: usize,
    /// Final session time.
    pub vtime: Duration,
    /// Canonical event log: byte-identical for the same seed across
    /// runs and platforms (no wall-clock values, no addresses, no
    /// hash-order iteration).
    pub log: String,
    /// Thread choice per step.
    pub schedule: Vec<usize>,
    /// The failure, if the run did not complete. `None` for successful
    /// runs *and* for replays that diverged from their schedule.
    pub failure: Option<Failure>,
}

/// Runs `scenario` once under the seeded scheduler.
pub fn run(opts: &SimOptions, scenario: impl Fn() + Send + Sync) -> SimRun {
    let seeded = Strategy::Seeded {
        seed: opts.seed,
        strict_park: opts.strict_park,
    };
    run_root(seeded, &scenario)
}

/// Re-executes an exact schedule (e.g. a shrunk one) under `opts`'
/// virtual clock. After the forced prefix is exhausted the run
/// completes on the deterministic stay-on-thread policy. A divergence
/// (the schedule names a thread that is not enabled) ends the run with
/// `failure: None`.
pub fn replay(opts: &SimOptions, schedule: &[usize], scenario: impl Fn() + Send + Sync) -> SimRun {
    let clock = opts.clock();
    run_root(Strategy::Replay { schedule, clock }, &scenario)
}

/// Greedily minimizes a failing schedule by deferring context switches
/// — the same minimizer [`explore`] applies to its witnesses. Returns
/// the best reproduction found (the original failure if no variant
/// reproduced it).
pub fn shrink(opts: &SimOptions, failure: &Failure, scenario: impl Fn() + Send + Sync) -> Failure {
    minimize(failure, |schedule| replay(opts, schedule, &scenario))
}
