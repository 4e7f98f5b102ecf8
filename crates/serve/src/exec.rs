//! The executor: a supervised worker pool draining a priority queue of
//! compile jobs.
//!
//! Each admitted entry becomes one job, so a request's entries fan out
//! across workers and stream back as they finish. Jobs order by (priority
//! desc, submission seq asc) — higher-priority requests overtake, ties are
//! FIFO. Deadlines are enforced at *dequeue*: work whose request deadline
//! passed while it sat in the queue is rejected with the measured wait, not
//! compiled. Queue capacity is enforced at *enqueue*: when a request would
//! overflow the queue, strictly-lower-priority queued entries are **shed**
//! (rejected with [`RejectReason::Shed`]) to make room; if that cannot free
//! enough slots the newcomer is rejected whole with
//! [`RejectReason::QueueFull`] — equal-priority work is never displaced.
//!
//! The compile path is [`CompileCache::get_or_compile`] — the same call the
//! bench harness makes — against one [`CompileCache`] shared by every
//! worker. The serving layer never touches compilation semantics — that is
//! the bit-identity guarantee, locked by `tests/serve.rs` at the workspace
//! root.
//!
//! # Resilience (PR 9)
//!
//! The invariant everything below serves: **every submitted entry receives
//! exactly one terminal response**, whatever faults fire.
//!
//! * **Panic isolation.** Each worker thread runs its dequeue loop under
//!   `catch_unwind`; a panicking compile surfaces as
//!   [`EntryError::Panicked`] on the entry's own response stream, the
//!   worker is respawned in place (counted in `serve.worker.respawns`),
//!   and the queue keeps draining.
//! * **Compile deadlines.** A watchdog thread scans each worker's
//!   current-job slot and fires that job's
//!   [`CancelToken`](zac_telemetry::CancelToken) when its deadline passes
//!   (the stricter of the service-wide compile deadline and the request's
//!   remaining budget). The SA anneal and the scheduler emit loop poll the
//!   token and unwind as [`EntryError::Cancelled`].
//! * **Circuit breaker.** Per-compiler (by fingerprint): consecutive
//!   panics/cancellations open the breaker, work is rejected with
//!   [`RejectReason::BreakerOpen`] during the cooldown, then a single
//!   half-open probe decides between closing and re-opening.

use crate::plan::{PlannedEntry, PlannedRequest};
use crate::protocol::{Done, EntryError, EntryOutcome, PhaseTotals, Response};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zac_cache::CompileCache;
use zac_circuit::StagedCircuit;
use zac_core::admission::RejectReason;
use zac_core::{CompileError, Compiler};
use zac_telemetry::metrics::{
    SERVE_BREAKER_HALF_OPEN_PROBES, SERVE_BREAKER_OPENED, SERVE_BREAKER_REJECTED,
    SERVE_ENTRIES_FAILED, SERVE_ENTRIES_OK, SERVE_ENTRIES_REJECTED, SERVE_QUEUE_DEPTH,
    SERVE_QUEUE_SHED, SERVE_REQUESTS_COMPLETED, SERVE_REQUESTS_REJECTED, SERVE_REQUEST_LATENCY_MS,
    SERVE_WORKER_RESPAWNS,
};
use zac_telemetry::{redact, span, CancelToken, MetricsSnapshot};

/// Resilience knobs threaded down from `ServiceConfig`.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Per-entry compile budget in milliseconds, enforced by the watchdog
    /// through cooperative cancellation. `None` disables the service-wide
    /// budget (request deadlines still cancel running compiles).
    pub compile_deadline_ms: Option<u64>,
    /// Consecutive panics/cancellations that open a compiler's breaker;
    /// `0` disables the breaker entirely.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before a half-open probe.
    pub breaker_cooldown_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self { compile_deadline_ms: None, breaker_threshold: 3, breaker_cooldown_ms: 250 }
    }
}

/// Shared state of one in-flight request.
struct RequestRun {
    id: String,
    compiler: Arc<dyn Compiler>,
    tx: Sender<Response>,
    start: Instant,
    deadline_ms: Option<u64>,
    trace: bool,
    /// Entries not yet reported; the worker that drops this to zero sends
    /// the `Done`.
    remaining: AtomicUsize,
    ok: AtomicUsize,
    rejected: AtomicUsize,
    failed: AtomicUsize,
    place_ns: AtomicU64,
    schedule_ns: AtomicU64,
    /// Registry snapshot at submission, for the `Done` metrics delta
    /// (captured only while telemetry is enabled).
    base: Option<MetricsSnapshot>,
}

/// One queued unit of work: one admitted entry of one request.
struct Job {
    priority: i64,
    seq: u64,
    run: Arc<RequestRun>,
    index: usize,
    staged: StagedCircuit,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    // Max-heap: higher priority first, then earlier submission.
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority.cmp(&other.priority).then(other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    heap: BinaryHeap<Job>,
    next_seq: u64,
    closed: bool,
}

// --- circuit breaker --------------------------------------------------------

enum BreakerPhase {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

struct BreakerState {
    consecutive: u32,
    phase: BreakerPhase,
}

/// Per-compiler (fingerprint-keyed) circuit breaker. Only *availability*
/// failures — panics and deadline cancellations — count; deterministic
/// compile errors and capacity rejections say nothing about whether the
/// next entry will also hang or crash the worker.
struct Breaker {
    threshold: u32,
    cooldown: Duration,
    states: Mutex<HashMap<u64, BreakerState>>,
}

enum Admission {
    Allow,
    Reject { failures: u32, cooldown_ms: u64 },
}

impl Breaker {
    fn new(config: &ResilienceConfig) -> Self {
        Self {
            threshold: config.breaker_threshold,
            cooldown: Duration::from_millis(config.breaker_cooldown_ms),
            states: Mutex::new(HashMap::new()),
        }
    }

    fn cooldown_ms(&self) -> u64 {
        u64::try_from(self.cooldown.as_millis()).unwrap_or(u64::MAX)
    }

    /// Decides at dequeue whether `fingerprint`'s compiler may run. An
    /// expired open breaker admits exactly one half-open probe; everything
    /// else queued behind it keeps rejecting until the probe reports.
    fn admit(&self, fingerprint: u64) -> Admission {
        if self.threshold == 0 {
            return Admission::Allow;
        }
        let mut states = self.states.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(state) = states.get_mut(&fingerprint) else {
            return Admission::Allow;
        };
        match state.phase {
            BreakerPhase::Closed => Admission::Allow,
            BreakerPhase::Open { until } if Instant::now() >= until => {
                state.phase = BreakerPhase::HalfOpen;
                SERVE_BREAKER_HALF_OPEN_PROBES.incr();
                Admission::Allow
            }
            BreakerPhase::Open { .. } | BreakerPhase::HalfOpen => {
                SERVE_BREAKER_REJECTED.incr();
                Admission::Reject { failures: state.consecutive, cooldown_ms: self.cooldown_ms() }
            }
        }
    }

    /// A compile finished normally (any deterministic outcome): the
    /// compiler is alive, close its breaker.
    fn record_success(&self, fingerprint: u64) {
        if self.threshold == 0 {
            return;
        }
        let mut states = self.states.lock().unwrap_or_else(PoisonError::into_inner);
        states.remove(&fingerprint);
    }

    /// A compile ended without saying anything about the compiler's
    /// health — cancelled by the request's own deadline, not the
    /// watchdog budget. A half-open probe reverts to `Open` so a fresh
    /// probe runs after the cooldown instead of wedging in `HalfOpen`;
    /// the failure count is untouched either way.
    fn record_inconclusive(&self, fingerprint: u64) {
        if self.threshold == 0 {
            return;
        }
        let mut states = self.states.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = states.get_mut(&fingerprint) {
            if matches!(state.phase, BreakerPhase::HalfOpen) {
                state.phase = BreakerPhase::Open { until: Instant::now() + self.cooldown };
            }
        }
    }

    /// A panic or cancellation: count it, and open the breaker at the
    /// threshold (or immediately when a half-open probe fails).
    fn record_failure(&self, fingerprint: u64) {
        if self.threshold == 0 {
            return;
        }
        let mut states = self.states.lock().unwrap_or_else(PoisonError::into_inner);
        let state = states
            .entry(fingerprint)
            .or_insert(BreakerState { consecutive: 0, phase: BreakerPhase::Closed });
        state.consecutive += 1;
        let failed_probe = matches!(state.phase, BreakerPhase::HalfOpen);
        if failed_probe || state.consecutive >= self.threshold {
            state.phase = BreakerPhase::Open { until: Instant::now() + self.cooldown };
            SERVE_BREAKER_OPENED.incr();
        }
    }
}

// --- worker slots -----------------------------------------------------------

/// What a worker is compiling right now — everything the watchdog needs to
/// enforce the deadline, and everything the supervisor needs to report the
/// entry if the compile panics.
struct CurrentJob {
    run: Arc<RequestRun>,
    index: usize,
    name: String,
    fingerprint: u64,
    token: CancelToken,
    deadline: Option<Instant>,
}

type Slot = Mutex<Option<CurrentJob>>;

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: CompileCache,
    capacity: usize,
    resilience: ResilienceConfig,
    breaker: Breaker,
    /// One current-job slot per worker, scanned by the watchdog.
    slots: Vec<Arc<Slot>>,
    /// Worker panics recovered (always counted; the telemetry counter
    /// `serve.worker.respawns` mirrors it when the recorder is on).
    respawns: AtomicU64,
    /// Mirror of `QueueState::closed` the watchdog can poll without the
    /// queue lock.
    closed: AtomicBool,
}

/// The worker pool. Dropping it drains nothing: queued jobs are abandoned,
/// workers exit after their current job (in-flight receivers see their
/// channels close). Services are expected to outlive their requests.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Executor {
    /// Spawns `workers` supervised threads sharing `cache` (queue capacity
    /// `capacity` jobs), plus the deadline watchdog.
    pub fn new(
        workers: usize,
        capacity: usize,
        cache: CompileCache,
        resilience: ResilienceConfig,
    ) -> Self {
        let workers = workers.max(1);
        let slots: Vec<Arc<Slot>> = (0..workers).map(|_| Arc::new(Mutex::new(None))).collect();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { heap: BinaryHeap::new(), next_seq: 0, closed: false }),
            available: Condvar::new(),
            cache,
            capacity,
            breaker: Breaker::new(&resilience),
            resilience,
            slots,
            respawns: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let slot = Arc::clone(&shared.slots[i]);
                std::thread::Builder::new()
                    .name(format!("zac-serve-{i}"))
                    .spawn(move || supervise(&shared, &slot))
                    .expect("spawn worker")
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("zac-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog")
        };
        Self { shared, workers, watchdog: Some(watchdog) }
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &CompileCache {
        &self.shared.cache
    }

    /// Worker panics recovered by the supervisor so far (always counted,
    /// independent of the telemetry recorder).
    pub fn worker_respawns(&self) -> u64 {
        self.shared.respawns.load(AtomicOrdering::Relaxed)
    }

    /// Enqueues an admitted request; every response (per-entry results and
    /// the terminal line) goes to `tx`. Pre-judged rejections are reported
    /// immediately. A queue that cannot fit the admitted entries first
    /// sheds strictly-lower-priority queued work; only when that cannot
    /// free enough room is the request rejected whole.
    pub fn submit(
        &self,
        planned: PlannedRequest,
        tx: Sender<Response>,
        base: Option<MetricsSnapshot>,
    ) {
        let total = planned.entries.len();
        let run = Arc::new(RequestRun {
            id: planned.id,
            compiler: planned.compiler,
            tx,
            start: Instant::now(),
            deadline_ms: planned.deadline_ms,
            trace: planned.trace,
            remaining: AtomicUsize::new(total),
            ok: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            place_ns: AtomicU64::new(0),
            schedule_ns: AtomicU64::new(0),
            base,
        });
        if total == 0 {
            finalize(&run);
            return;
        }

        let mut runnable = Vec::new();
        let mut prejudged = Vec::new();
        for entry in planned.entries {
            match entry {
                PlannedEntry::Run { index, staged } => runnable.push((index, staged)),
                PlannedEntry::Reject { index, name, reason } => {
                    prejudged.push((index, name, reason));
                }
            }
        }

        // Capacity check and enqueue under one lock, so two racing submits
        // cannot both squeeze past the cap. Shed responses are sent after
        // the lock drops — senders may block, and the victims' channels
        // must never hold the queue hostage.
        let mut shed: Vec<Job> = Vec::new();
        // Queue depth at the moment the shed decision was made, reported
        // in the victims' `Shed` reasons.
        let mut shed_depth = 0;
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let depth = queue.heap.len();
            if depth + runnable.len() > self.shared.capacity {
                shed_depth = depth;
                let needed = depth + runnable.len() - self.shared.capacity;
                if !shed_lower_priority(&mut queue, planned.priority, needed, &mut shed) {
                    drop(queue);
                    SERVE_REQUESTS_REJECTED.incr();
                    let reason = RejectReason::QueueFull { depth, cap: self.shared.capacity };
                    run.tx.send(Response::Rejected { id: run.id.clone(), reason }).ok();
                    return;
                }
            }
            for (index, staged) in runnable {
                let seq = queue.next_seq;
                queue.next_seq += 1;
                queue.heap.push(Job {
                    priority: planned.priority,
                    seq,
                    run: Arc::clone(&run),
                    index,
                    staged,
                });
                SERVE_QUEUE_DEPTH.add(1);
            }
        }
        self.shared.available.notify_all();

        let cap = self.shared.capacity;
        for job in shed {
            SERVE_QUEUE_DEPTH.add(-1);
            SERVE_QUEUE_SHED.incr();
            report(
                &job.run,
                job.index,
                job.staged.name.clone(),
                EntryOutcome::Rejected(RejectReason::Shed { depth: shed_depth, cap }),
            );
        }

        // Report the pre-judged rejections after the runnable entries are
        // queued; each one counts toward the request's completion.
        for (index, name, reason) in prejudged {
            report(&run, index, name, EntryOutcome::Rejected(reason));
        }
    }
}

/// Removes up to `needed` strictly-lower-priority jobs from the queue
/// (lowest priority first, youngest first within a priority), appending
/// them to `shed`. Returns whether enough room was freed; on `false` the
/// queue is left untouched.
fn shed_lower_priority(
    queue: &mut QueueState,
    priority: i64,
    needed: usize,
    shed: &mut Vec<Job>,
) -> bool {
    let candidates = queue.heap.iter().filter(|job| job.priority < priority).count();
    if candidates < needed {
        return false;
    }
    let mut jobs: Vec<Job> = std::mem::take(&mut queue.heap).into_vec();
    // Victim order: lowest priority first; among equals the youngest
    // (largest seq) goes first — it has waited the least.
    jobs.sort_by(|a, b| a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq)));
    let mut kept = Vec::with_capacity(jobs.len() - needed);
    for job in jobs {
        if shed.len() < needed && job.priority < priority {
            shed.push(job);
        } else {
            kept.push(job);
        }
    }
    queue.heap = BinaryHeap::from(kept);
    true
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.closed = true;
            let abandoned = queue.heap.len();
            queue.heap.clear();
            SERVE_QUEUE_DEPTH.add(-(abandoned as i64));
        }
        self.shared.closed.store(true, AtomicOrdering::Relaxed);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
        if let Some(watchdog) = self.watchdog.take() {
            watchdog.join().ok();
        }
    }
}

/// The deadline watchdog: scans every worker's current-job slot and fires
/// the cancel token of any compile past its deadline. Cancellation is
/// cooperative — the worker unwinds through the normal error path and
/// reports [`EntryError::Cancelled`] itself.
fn watchdog_loop(shared: &Shared) {
    while !shared.closed.load(AtomicOrdering::Relaxed) {
        std::thread::sleep(Duration::from_millis(1));
        let now = Instant::now();
        for slot in &shared.slots {
            let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(current) = guard.as_ref() {
                if current.deadline.is_some_and(|deadline| now >= deadline) {
                    current.token.cancel();
                }
            }
        }
    }
}

/// The worker supervisor: runs the dequeue loop under `catch_unwind`. On a
/// panic, the entry in the worker's slot (the one being compiled when the
/// stack unwound) gets its terminal [`EntryError::Panicked`] response, the
/// breaker records the failure, and the loop restarts — the worker is
/// respawned in place, and the queue keeps draining.
fn supervise(shared: &Shared, slot: &Arc<Slot>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, slot))) {
            // Clean exit: the queue closed.
            Ok(()) => return,
            Err(payload) => {
                shared.respawns.fetch_add(1, AtomicOrdering::Relaxed);
                SERVE_WORKER_RESPAWNS.incr();
                let current = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some(current) = current {
                    shared.breaker.record_failure(current.fingerprint);
                    report(
                        &current.run,
                        current.index,
                        current.name,
                        EntryOutcome::Failed(EntryError::Panicked {
                            message: panic_message(payload.as_ref()),
                        }),
                    );
                }
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// format string yields `String`, with a literal `&'static str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: &Shared, slot: &Arc<Slot>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.heap.pop() {
                    break job;
                }
                if queue.closed {
                    return;
                }
                queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        SERVE_QUEUE_DEPTH.add(-1);
        process(shared, slot, job);
    }
}

/// Runs one job: deadline check, breaker admission, then the bench
/// harness's exact cache get → compile → put sequence under a registered
/// current-job slot (so the watchdog can cancel it and the supervisor can
/// report it if it panics).
fn process(shared: &Shared, slot: &Slot, job: Job) {
    let run = Arc::clone(&job.run);
    let waited_ms = u64::try_from(run.start.elapsed().as_millis()).unwrap_or(u64::MAX);
    if let Some(deadline_ms) = run.deadline_ms {
        if waited_ms > deadline_ms {
            let reason = RejectReason::DeadlineExpired { deadline_ms, waited_ms };
            report(&run, job.index, job.staged.name.clone(), EntryOutcome::Rejected(reason));
            return;
        }
    }
    let fingerprint = run.compiler.fingerprint();
    if let Admission::Reject { failures, cooldown_ms } = shared.breaker.admit(fingerprint) {
        let reason = RejectReason::BreakerOpen { failures, cooldown_ms };
        report(&run, job.index, job.staged.name.clone(), EntryOutcome::Rejected(reason));
        return;
    }

    // The effective compile budget: the stricter of the service-wide
    // per-entry deadline and what is left of the request's own budget.
    let service_ms = shared.resilience.compile_deadline_ms;
    let remaining_ms = run.deadline_ms.map(|d| d.saturating_sub(waited_ms));
    let budget_ms = match (service_ms, remaining_ms) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    };
    // Whether a deadline cancellation would be attributable to the
    // service-wide watchdog budget: only then does it say the *compiler*
    // hangs. A cancel bound by the request's own tighter deadline must
    // not open the breaker for unrelated clients of the same compiler.
    let watchdog_bound = service_ms.is_some_and(|a| remaining_ms.is_none_or(|b| a <= b));
    let token = CancelToken::new();
    let started = Instant::now();
    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(CurrentJob {
        run: Arc::clone(&run),
        index: job.index,
        name: job.staged.name.clone(),
        fingerprint,
        token: token.clone(),
        deadline: budget_ms.map(|ms| started + Duration::from_millis(ms)),
    });

    let outcome = compile_entry(shared, &job, &token, started);

    // Deregister before reporting: once the response is out the watchdog
    // must not cancel (and the supervisor must not re-report) this entry.
    slot.lock().unwrap_or_else(PoisonError::into_inner).take();

    match &outcome {
        // Only availability failures count against the breaker; compile
        // errors and capacity rejections are deterministic properties of
        // the circuit, not signs the compiler will hang or crash again.
        // A cancel bound by the request's own deadline is inconclusive:
        // it neither counts as a failure nor closes a half-open breaker
        // (the probe slot reverts to open so a fresh probe can run).
        EntryOutcome::Failed(EntryError::Cancelled { .. }) => {
            if watchdog_bound {
                shared.breaker.record_failure(fingerprint);
            } else {
                shared.breaker.record_inconclusive(fingerprint);
            }
        }
        // Panics never reach here — they unwind into the supervisor,
        // which records the failure off the worker's slot.
        EntryOutcome::Failed(EntryError::Panicked { .. }) => {}
        // Every other completion — success, deterministic compile error,
        // capacity rejection — proves the compiler is alive and closes
        // the breaker. A half-open probe in particular must always end in
        // success/failure/inconclusive, or the breaker wedges half-open.
        _ => shared.breaker.record_success(fingerprint),
    }
    report(&run, job.index, job.staged.name.clone(), outcome);
}

/// The compile path proper: fault point, then the cached compile under the
/// installed cancel scope.
fn compile_entry(
    shared: &Shared,
    job: &Job,
    token: &CancelToken,
    started: Instant,
) -> EntryOutcome {
    let run = &job.run;
    // Span labels go through redaction: with `ZAC_REDACT=1` a trace
    // shows `[redacted:xxxxxxxx]`, not the customer's circuit name.
    let _span = span!("serve.exec.compile", &redact(&job.staged.name));
    // The executor's own fault point: `io` surfaces as a compile failure,
    // `panic` unwinds into the supervisor, `delay` stretches the compile
    // into the watchdog's jurisdiction.
    if let Some(e) = zac_telemetry::fault_point!("serve.exec.compile") {
        return EntryOutcome::Failed(EntryError::Compile(e.to_string()));
    }
    let _scope = token.install();
    match shared.cache.get_or_compile(&*run.compiler, &job.staged) {
        Ok(out) => EntryOutcome::Ok(Box::new(out)),
        Err(CompileError::CircuitTooLarge { needed, available }) => {
            EntryOutcome::Rejected(RejectReason::TooLarge { needed, available })
        }
        Err(CompileError::Failed(reason)) => EntryOutcome::Failed(EntryError::Compile(reason)),
        Err(CompileError::Cancelled) => EntryOutcome::Failed(EntryError::Cancelled {
            after_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        }),
    }
}

/// Sends one entry's terminal response, updates the request tallies, and
/// retires the entry (the last one triggers the `Done`). Every entry path
/// — compiled, rejected, shed, panicked, cancelled — funnels through here
/// exactly once: that is the exactly-one-terminal-response invariant.
fn report(run: &Arc<RequestRun>, index: usize, name: String, outcome: EntryOutcome) {
    match &outcome {
        EntryOutcome::Ok(out) => {
            run.ok.fetch_add(1, AtomicOrdering::Relaxed);
            SERVE_ENTRIES_OK.incr();
            if let Some(phases) = out.phases {
                let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                run.place_ns.fetch_add(ns(phases.place), AtomicOrdering::Relaxed);
                run.schedule_ns.fetch_add(ns(phases.schedule), AtomicOrdering::Relaxed);
            }
        }
        EntryOutcome::Rejected(_) => {
            run.rejected.fetch_add(1, AtomicOrdering::Relaxed);
            SERVE_ENTRIES_REJECTED.incr();
        }
        EntryOutcome::Failed(_) => {
            run.failed.fetch_add(1, AtomicOrdering::Relaxed);
            SERVE_ENTRIES_FAILED.incr();
        }
    }
    run.tx.send(Response::Result { id: run.id.clone(), entry: index, name, outcome }).ok();
    complete_entry(run);
}

/// Marks one entry reported; the caller that retires the last one sends
/// the terminal `Done`.
fn complete_entry(run: &Arc<RequestRun>) {
    if run.remaining.fetch_sub(1, AtomicOrdering::AcqRel) == 1 {
        finalize(run);
    }
}

fn finalize(run: &RequestRun) {
    let latency_ms = u64::try_from(run.start.elapsed().as_millis()).unwrap_or(u64::MAX);
    // The metrics delta and trace are process-global: under concurrent
    // requests they include overlapping activity, exactly like
    // `BatchRunner::run_with_metrics` (see DESIGN.md §9). Serialization
    // failures drop the attachment, never the terminal response.
    let metrics = run.base.as_ref().and_then(|base| {
        let delta = MetricsSnapshot::capture().delta_since(base);
        serde_json::from_str(&delta.to_json()).ok()
    });
    let trace = (run.trace && zac_telemetry::enabled())
        .then(|| {
            let spans = zac_telemetry::take_spans();
            serde_json::from_str(&zac_telemetry::chrome_trace_json(&spans)).ok()
        })
        .flatten();
    SERVE_REQUESTS_COMPLETED.incr();
    SERVE_REQUEST_LATENCY_MS.observe(latency_ms);
    run.tx
        .send(Response::Done(Done {
            id: run.id.clone(),
            ok: run.ok.load(AtomicOrdering::Relaxed),
            rejected: run.rejected.load(AtomicOrdering::Relaxed),
            failed: run.failed.load(AtomicOrdering::Relaxed),
            latency_ms,
            phase_totals: PhaseTotals {
                place_ns: run.place_ns.load(AtomicOrdering::Relaxed),
                schedule_ns: run.schedule_ns.load(AtomicOrdering::Relaxed),
            },
            metrics,
            trace,
        }))
        .ok();
}
