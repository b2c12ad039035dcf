//! The discrete-event scheduler.
//!
//! Every simulated process is backed by an OS thread, but **exactly one
//! thread runs at any instant**: an event-loop thread pops events in
//! `(time, seq)` order and hands control to the corresponding process
//! thread, then waits for it to block again. This gives straight-line
//! imperative process code (no hand-written state machines) while keeping
//! execution fully deterministic.
//!
//! Service-class packets are dispatched to a per-process handler *at their
//! arrival time*, even while the destination's application thread is in the
//! middle of a `compute` span — modelling the interrupt-driven request
//! handlers (SIGIO) of real page-based DSM systems such as TreadMarks.
//!
//! ## Direct handoff
//!
//! The naive schedule costs two OS-thread handoffs per event: blocking
//! process → controller → next process. Instead, the blocking thread drains
//! the event queue itself — advancing virtual time, delivering packets, and
//! running service handlers in exactly the order the controller would — and
//! hands control straight to the next runnable process while the controller
//! stays parked. The controller pops events itself only at startup and when
//! the queue empties (termination / deadlock detection). Both paths execute
//! events through the same [`Shared::execute`], so event pop order, trace
//! order and every clock advance are identical either way; only the
//! OS-thread ping-pong is elided. Savings (wake-ups that skipped the
//! controller) are counted in [`HandoffStats`] (per run) and in
//! process-wide totals ([`handoff_totals`]) for wall-clock reporting.
//!
//! ## Waking a thread after the lock is released
//!
//! Every scheduling decision — which process runs next, every clock
//! advance — is made under the scheduler mutex, but the OS-level wake of
//! the chosen thread happens only after that mutex is released. Waking
//! first would start a lock convoy: on a single CPU the woken thread
//! preempts the waker, immediately blocks on the mutex the waker still
//! holds, and the waker must be scheduled again just to release it — up to
//! three context switches per handoff instead of one. Process threads are
//! woken through a per-process park/unpark baton (the chosen process
//! re-checks `Sched::running` under the lock, so a stale or spurious unpark
//! costs one loop iteration); the controller through `ctl_cv`, also
//! notified only after unlocking. A drain that wakes the very process doing
//! the draining (a *self-resume*) switches no thread at all.

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use vopp_trace::{CausalProfiler, CtxKind, EventKind, Tracer, NO_CTX};

use crate::ctx::{AppCtx, SvcCtx};
use crate::net::{NetModel, RouteRequest};
use crate::packet::{DeliveryClass, Packet};
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// A service-request handler: invoked by the kernel when a [`DeliveryClass::Svc`]
/// packet arrives at the process it is registered for.
pub type Handler = Box<dyn FnMut(&mut SvcCtx<'_>, Packet) + Send + 'static>;

/// A caught panic payload (a service handler's), re-raised by the run.
type PanicPayload = Box<dyn Any + Send>;

/// How process wake-ups were scheduled during a run. Wall-clock bookkeeping
/// only — never part of the virtual-time results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Wake-ups transferred process→process without running the controller.
    pub direct: u64,
    /// Wake-ups that went through the controller thread.
    pub via_controller: u64,
    /// The subset of `direct` wake-ups where the draining process resumed
    /// itself: no OS thread switch at all.
    pub self_resumes: u64,
}

impl HandoffStats {
    /// Total wake-ups.
    pub fn total(&self) -> u64 {
        self.direct + self.via_controller
    }
}

/// Process-wide handoff totals, accumulated across every finished run.
static TOTAL_DIRECT: AtomicU64 = AtomicU64::new(0);
static TOTAL_VIA_CTL: AtomicU64 = AtomicU64::new(0);
static TOTAL_SELF_RESUMES: AtomicU64 = AtomicU64::new(0);

/// Handoff totals accumulated by every run finished in this process so far.
pub fn handoff_totals() -> HandoffStats {
    HandoffStats {
        direct: TOTAL_DIRECT.load(Ordering::Relaxed),
        via_controller: TOTAL_VIA_CTL.load(Ordering::Relaxed),
        self_resumes: TOTAL_SELF_RESUMES.load(Ordering::Relaxed),
    }
}

/// Compatibility shim for callers written against the removed intra-run
/// parallel kernel. Every run is sequential; the sequential widths 0 and 1
/// are accepted and do nothing.
///
/// # Panics
///
/// For any other width.
pub fn set_sim_workers_default(workers: usize) {
    assert!(
        workers <= 1,
        "sim workers = {workers}: the parallel kernel was removed; every run is sequential"
    );
}

pub(crate) enum Event {
    Resume(ProcId),
    Deliver { dst: ProcId, pkt: Packet },
    Timer { dst: ProcId, token: u64 },
}

struct QEntry {
    at: SimTime,
    seq: u64,
    ev: Event,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    // Reversed: BinaryHeap is a max-heap and we want the earliest event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Thread spawned, waiting for its first resume.
    Startup,
    /// This process's thread is the one running.
    Running,
    /// Blocked until its scheduled `Resume` event fires (compute/sleep).
    BlockedResume,
    /// Blocked in `recv`; `deadline` is the live timeout token, if any.
    WaitRecv { deadline: Option<u64> },
    /// Process body returned.
    Finished,
}

pub(crate) struct ProcInfo {
    pub(crate) phase: Phase,
    pub(crate) clock: SimTime,
    pub(crate) mailbox: VecDeque<Packet>,
    pub(crate) next_token: u64,
    pub(crate) timed_out: bool,
    pub(crate) times: ProcTimes,
}

impl ProcInfo {
    fn new() -> ProcInfo {
        ProcInfo {
            phase: Phase::Startup,
            clock: SimTime::ZERO,
            mailbox: VecDeque::new(),
            next_token: 0,
            timed_out: false,
            times: ProcTimes::default(),
        }
    }
}

/// Kernel-level classification of one process's virtual time: every clock
/// advance happens in `Shared::wake_now`, and the phase the process was
/// blocked in says which kind of time just elapsed. `compute_ns + blocked_ns`
/// equals the process's final clock, by construction — higher layers (DSM,
/// MPI) check their finer-grained phase breakdowns against these two totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcTimes {
    /// Time spent advancing through `compute`/`sleep` spans (CPU time).
    pub compute_ns: u64,
    /// Time spent blocked in `recv` waiting for a packet or timeout.
    pub blocked_ns: u64,
}

/// The scheduler: one `(time, seq)` event heap plus every process's state,
/// the network model, and the per-destination delivery backlog the model
/// reads for overflow decisions.
pub(crate) struct Sched {
    now: SimTime,
    queue: BinaryHeap<QEntry>,
    /// Next event sequence number (ties at equal times pop in push order).
    seq: u64,
    procs: Vec<ProcInfo>,
    running: Option<ProcId>,
    live: usize,
    shutdown: bool,
    panicked: bool,
    /// A process thread is inside `try_handoff` — possibly with the lock
    /// released while it runs a service handler. The controller must stay
    /// parked until the drain finishes, even on a spurious condvar wake.
    draining: bool,
    handoff: HandoffStats,
    /// Wire bytes scheduled for delivery to each process but not yet
    /// delivered (one-sided writes excluded).
    pending_bytes: Vec<usize>,
    net: Box<dyn NetModel>,
    tracer: Option<Arc<Tracer>>,
    /// Causal-edge recorder for the critical-path profiler; pure
    /// observation — `None` costs one pointer test per wake/send.
    pub(crate) profiler: Option<Arc<CausalProfiler>>,
}

impl Sched {
    #[inline]
    pub(crate) fn pi(&self, p: ProcId) -> &ProcInfo {
        &self.procs[p]
    }

    #[inline]
    pub(crate) fn pi_mut(&mut self, p: ProcId) -> &mut ProcInfo {
        &mut self.procs[p]
    }

    pub(crate) fn push_event(&mut self, at: SimTime, ev: Event) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QEntry { at, seq, ev });
    }

    /// Route a packet through the network model and schedule its delivery.
    pub(crate) fn submit_send(&mut self, now: SimTime, dst: ProcId, pkt: Packet) {
        if let Some(tr) = &self.tracer {
            tr.record(
                now.0,
                pkt.src,
                EventKind::NetSend {
                    dst,
                    wire_bytes: pkt.wire_bytes as u64,
                    tag: pkt.tag,
                    svc: pkt.class == DeliveryClass::Svc,
                },
            );
        }
        let one_sided = pkt.class == DeliveryClass::OneSided;
        let req = RouteRequest {
            now,
            src: pkt.src,
            dst,
            wire_bytes: pkt.wire_bytes,
            pending_bytes_at_dst: self.pending_bytes[dst],
            reliable: one_sided,
        };
        if let Some(at) = self.net.route(req) {
            // One-sided writes land in preposted buffers, not the receive
            // queue, so they add no overflow occupancy.
            if !one_sided {
                self.pending_bytes[dst] += pkt.wire_bytes;
            }
            self.push_event(at.max(now), Event::Deliver { dst, pkt });
        }
    }
}

/// Shared kernel state: the scheduler plus the thread handles used for the
/// controller/process handoffs.
pub(crate) struct Shared {
    sched: Mutex<Sched>,
    /// The controller parks here while process threads run and drain.
    ctl_cv: Condvar,
    /// Each process's OS thread, unparked (after the scheduler lock is
    /// released) when the process is handed control. Set by the spawner
    /// before any event runs.
    threads: Vec<OnceLock<Thread>>,
    pub(crate) nprocs: usize,
    /// Service handlers, shared so whichever thread pops a `Svc` delivery —
    /// the controller or a draining process thread — can run it. A handler
    /// is taken out of its slot for the duration of the call; event
    /// execution is serialized (`running`/`draining`), so the slot is never
    /// contended.
    handlers: Mutex<Vec<Option<Handler>>>,
    /// Same tracer as `Sched::tracer`, duplicated outside the mutex so the
    /// disabled path is a pointer test without taking the scheduler lock.
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl Shared {
    /// Lock the scheduler.
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock()
    }

    /// Called from a process thread: yield control and wait until it is
    /// handed back. The caller must already have set its own phase to the
    /// blocked state it wants. If a queued event wakes a process, control
    /// transfers directly; the controller is only notified when the drain
    /// cannot continue (empty queue or shutdown). Either wake is issued
    /// after the scheduler lock is released.
    pub(crate) fn yield_and_wait<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) {
        debug_assert_eq!(s.running, Some(me));
        s.running = None;
        match self.try_handoff(me, s) {
            // Self-resume: this thread keeps the CPU.
            Some(p) if p == me => {}
            Some(p) => self.sched.unlocked(s, || self.unpark(p)),
            None => self.sched.unlocked(s, || self.ctl_cv.notify_one()),
        }
        if !self.await_turn(me, s) {
            // Unblock so the run can report the real error.
            panic!("simulation shut down while proc {me} was blocked");
        }
        debug_assert_eq!(s.pi(me).phase, Phase::Running);
    }

    /// Park process `me`'s thread, with the scheduler lock released, until
    /// the scheduler hands it control. Returns `false` if the run shut down
    /// first.
    fn await_turn<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) -> bool {
        while s.running != Some(me) {
            if s.shutdown {
                return false;
            }
            self.sched.unlocked(s, std::thread::park);
        }
        true
    }

    /// Wake process `p`'s thread. Call only with the scheduler unlocked:
    /// the thread's first act is to take that lock.
    fn unpark(&self, p: ProcId) {
        self.threads[p]
            .get()
            .expect("process threads are registered before any event runs")
            .unpark();
    }

    /// Drain the event queue — in exactly the order the controller would —
    /// until an event wakes a process. Returns the woken process (the
    /// controller stays parked; the caller wakes its thread), or `None` if
    /// the controller must take over: the queue is empty or the run is
    /// shutting down.
    ///
    /// Advancing `now` and running handlers from a process thread is safe:
    /// event execution is serialized by `Sched::draining` (set here,
    /// checked by the controller's parking loop), and the controller only
    /// reads scheduler state after reacquiring the lock.
    fn try_handoff<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) -> Option<ProcId> {
        if s.panicked || s.shutdown {
            return None;
        }
        s.draining = true;
        let woke = self.drain(s);
        s.draining = false;
        if let Some(p) = woke {
            s.handoff.direct += 1;
            if p == me {
                s.handoff.self_resumes += 1;
            }
        }
        woke
    }

    /// The loop body of [`Shared::try_handoff`]; `Sched::draining` is set.
    fn drain<'a>(&'a self, s: &mut MutexGuard<'a, Sched>) -> Option<ProcId> {
        loop {
            let entry = s.queue.pop()?;
            match self.execute(s, entry) {
                Ok(Some(p)) => return Some(p),
                // A handler released the lock; the run may have ended.
                Ok(None) if s.panicked || s.shutdown => return None,
                Ok(None) => {}
                // Propagate on this thread: the process-exit path records
                // it as the first panic and the run shuts down.
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    }

    /// Execute one popped event: advance virtual time to it, then resume a
    /// process, deliver a packet (running its service handler), or fire a
    /// timer. Returns the process the event woke — already marked running;
    /// the caller wakes its thread — or a service handler's panic payload.
    /// The one event-execution path of both the controller and the drain.
    fn execute<'a>(
        &'a self,
        s: &mut MutexGuard<'a, Sched>,
        entry: QEntry,
    ) -> Result<Option<ProcId>, PanicPayload> {
        debug_assert!(entry.at >= s.now, "event queue went backwards");
        s.now = entry.at;
        match entry.ev {
            Event::Resume(p) => match s.pi(p).phase {
                Phase::Startup | Phase::BlockedResume => {
                    self.wake_now(s, p, entry.at, NO_CTX);
                    return Ok(Some(p));
                }
                Phase::Finished => {}
                ref ph => unreachable!("resume for proc {p} in phase {ph:?}"),
            },
            Event::Deliver { dst, mut pkt } => {
                if pkt.class != DeliveryClass::OneSided {
                    s.pending_bytes[dst] -= pkt.wire_bytes;
                }
                pkt.arrived = entry.at;
                if let Some(tr) = &s.tracer {
                    tr.record(
                        entry.at.0,
                        dst,
                        EventKind::NetRecv {
                            src: pkt.src,
                            wire_bytes: pkt.wire_bytes as u64,
                            tag: pkt.tag,
                        },
                    );
                }
                match pkt.class {
                    DeliveryClass::Svc => self.dispatch_svc(s, dst, pkt, entry.at)?,
                    DeliveryClass::App => {
                        let cause = pkt.cause;
                        s.pi_mut(dst).mailbox.push_back(pkt);
                        if matches!(s.pi(dst).phase, Phase::WaitRecv { .. }) {
                            self.wake_now(s, dst, entry.at, cause);
                            return Ok(Some(dst));
                        }
                    }
                    // One-sided write: lands in the preposted buffer with no
                    // remote CPU involvement — no handler dispatch, no wake
                    // of a blocked receiver.
                    DeliveryClass::OneSided => s.pi_mut(dst).mailbox.push_back(pkt),
                }
            }
            Event::Timer { dst, token } => {
                if s.pi(dst).phase
                    == (Phase::WaitRecv {
                        deadline: Some(token),
                    })
                {
                    s.pi_mut(dst).timed_out = true;
                    self.wake_now(s, dst, entry.at, NO_CTX);
                    return Ok(Some(dst));
                }
                // Otherwise the timer is stale (the wait already ended).
            }
        }
        Ok(None)
    }

    /// Run the `Svc` handler for `dst`, releasing the scheduler lock for the
    /// duration of the call (handlers re-enter the scheduler through
    /// [`SvcCtx`]) and re-acquiring it before returning. Returns the
    /// handler's panic payload, if any.
    fn dispatch_svc<'a>(
        &'a self,
        s: &mut MutexGuard<'a, Sched>,
        dst: ProcId,
        pkt: Packet,
        at: SimTime,
    ) -> Result<(), PanicPayload> {
        if let Some(prof) = &s.profiler {
            prof.record_svc(dst, at.0, pkt.cause);
        }
        let mut h = self.handlers.lock()[dst]
            .take()
            .unwrap_or_else(|| panic!("no Svc handler on proc {dst}"));
        let r = self.sched.unlocked(s, || {
            let mut ctx = SvcCtx::new(self, dst, at);
            catch_unwind(AssertUnwindSafe(|| h(&mut ctx, pkt)))
        });
        if r.is_ok() {
            // On panic the slot stays empty; the run is shutting down.
            self.handlers.lock()[dst] = Some(h);
        }
        r
    }

    /// Mark process `p` running at virtual time `t`. Every clock advance
    /// and its compute/blocked classification happens here. The caller
    /// wakes `p`'s thread once it has released the scheduler lock.
    /// `pkt_cause` is the delivered packet's causal stamp on receive wakes
    /// ([`NO_CTX`] for self-caused resumes and timer expiries).
    fn wake_now(&self, s: &mut MutexGuard<'_, Sched>, p: ProcId, t: SimTime, pkt_cause: u64) {
        debug_assert!(s.running.is_none());
        if s.pi(p).phase == Phase::Startup {
            if let Some(tr) = &s.tracer {
                tr.record(t.0, p, EventKind::ProcStart);
            }
        }
        if let Some(prof) = &s.profiler {
            let pi = s.pi(p);
            let kind = match pi.phase {
                Phase::Startup => Some(CtxKind::Start),
                Phase::BlockedResume => Some(CtxKind::Compute),
                Phase::WaitRecv { .. } => Some(if pi.timed_out {
                    CtxKind::Timeout
                } else {
                    CtxKind::Wait
                }),
                Phase::Running | Phase::Finished => None,
            };
            if let Some(kind) = kind {
                prof.record_wake(p, pi.clock.0, pi.clock.max(t).0, kind, pkt_cause);
            }
        }
        let pi = s.pi_mut(p);
        let adv = t.0.saturating_sub(pi.clock.0);
        match pi.phase {
            Phase::BlockedResume => pi.times.compute_ns += adv,
            Phase::WaitRecv { .. } => pi.times.blocked_ns += adv,
            Phase::Startup | Phase::Running | Phase::Finished => {}
        }
        pi.clock = pi.clock.max(t);
        pi.phase = Phase::Running;
        s.running = Some(p);
    }

    /// Hand control to process `p`, which [`Shared::execute`] just marked
    /// running (waking its thread with the lock released), and park the
    /// controller until it is needed again. While parked, blocking
    /// processes drain the event queue and chain wake-ups among themselves
    /// (direct handoff); the `draining` check keeps this loop parked even if
    /// the condvar wakes spuriously while a drain has the lock released for
    /// a service handler.
    fn resume_and_park<'a>(&'a self, s: &mut MutexGuard<'a, Sched>, p: ProcId) {
        s.handoff.via_controller += 1;
        self.sched.unlocked(s, || self.unpark(p));
        while (s.running.is_some() || s.draining) && !s.panicked {
            self.ctl_cv.wait(s);
        }
    }

    /// Release every blocked process thread so the scope can join them.
    fn shutdown_all(&self) {
        self.lock().shutdown = true;
        self.ctl_cv.notify_all();
        for p in 0..self.nprocs {
            self.unpark(p);
        }
    }

    /// The event loop: runs on the caller's thread until every process
    /// finished, a process panicked, or a deadlock is detected. Returns a
    /// panic payload if a service handler panicked on this thread. Process
    /// threads drain the queue themselves, so this loop mostly stays parked
    /// in `resume_and_park` — it only pops events itself at startup and to
    /// detect termination or deadlock.
    fn controller(&self) -> Option<PanicPayload> {
        loop {
            let mut s = self.lock();
            if s.panicked {
                drop(s);
                self.shutdown_all();
                return None;
            }
            if s.live == 0 {
                return None;
            }
            let Some(entry) = s.queue.pop() else {
                drop(s);
                self.shutdown_all();
                return None;
            };
            match self.execute(&mut s, entry) {
                Ok(Some(p)) => self.resume_and_park(&mut s, p),
                Ok(None) => {}
                // A handler panic must not strand the blocked process
                // threads: release them, then re-panic.
                Err(e) => {
                    drop(s);
                    self.shutdown_all();
                    return Some(e);
                }
            }
        }
    }
}

/// One complete simulated run.
pub struct RunOutcome<R> {
    /// Per-process return values of the body closure, indexed by `ProcId`.
    pub results: Vec<R>,
    /// Virtual time at which the last process finished.
    pub end_time: SimTime,
    /// Virtual finish time of each process.
    pub proc_end: Vec<SimTime>,
    /// Kernel compute/blocked time classification of each process.
    pub proc_times: Vec<ProcTimes>,
    /// Direct vs controller-mediated wake-up counts (wall-clock bookkeeping;
    /// not part of the virtual-time results).
    pub handoff: HandoffStats,
    /// The network model, returned so callers can read its statistics.
    pub net: Box<dyn NetModel>,
}

/// A configured simulation, ready to run.
///
/// ```
/// use std::sync::Arc;
/// use vopp_sim::{Sim, PerfectNet, SimDuration, DeliveryClass};
///
/// let sim = Sim::new(2, Box::new(PerfectNet::default()));
/// let out = sim.run(|ctx| {
///     if ctx.me() == 0 {
///         ctx.send(1, 100, DeliveryClass::App, 0, Arc::new(123u32));
///         0
///     } else {
///         ctx.recv().expect::<u32>()
///     }
/// });
/// assert_eq!(out.results, vec![0, 123]);
/// ```
pub struct Sim {
    nprocs: usize,
    net: Box<dyn NetModel>,
    handlers: Vec<Option<Handler>>,
    tracer: Option<Arc<Tracer>>,
    profiler: Option<Arc<CausalProfiler>>,
}

impl Sim {
    /// A simulation with `nprocs` processes over the given network model.
    pub fn new(nprocs: usize, net: Box<dyn NetModel>) -> Sim {
        assert!(nprocs > 0, "need at least one process");
        Sim {
            nprocs,
            net,
            handlers: (0..nprocs).map(|_| None).collect(),
            tracer: None,
            profiler: None,
        }
    }

    /// Compatibility shim for callers written against the removed intra-run
    /// parallel kernel. Every run is sequential; the sequential widths 0
    /// and 1 are accepted and do nothing.
    ///
    /// # Panics
    ///
    /// For any other width.
    pub fn set_workers(&mut self, workers: usize) {
        set_sim_workers_default(workers);
    }

    /// Install an event tracer. Kernel-level send/receive and process
    /// lifecycle events are recorded into it; the same tracer is exposed to
    /// process bodies and service handlers via [`AppCtx::trace`] /
    /// [`SvcCtx::trace`] so higher layers share one event stream.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Install a causal-edge recorder for the critical-path profiler.
    /// Wakes, service dispatches and packet sends are tagged with their
    /// immediate causal predecessor; recording is pure observation and
    /// never influences scheduling, clocks, or any virtual-time result.
    pub fn set_profiler(&mut self, profiler: Arc<CausalProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Register the service handler for process `p` (at most one each).
    pub fn set_handler(&mut self, p: ProcId, h: Handler) {
        assert!(self.handlers[p].is_none(), "handler already set for {p}");
        self.handlers[p] = Some(h);
    }

    /// Execute the simulation to completion. `body` is invoked once per
    /// process on its own thread; the return values are collected in
    /// [`RunOutcome::results`].
    ///
    /// Panics if the simulation deadlocks (all processes blocked with no
    /// pending events) or if any process panics.
    pub fn run<R, F>(self, body: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(AppCtx<'_>) -> R + Send + Sync,
    {
        let nprocs = self.nprocs;
        let mut sched = Sched {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            procs: (0..nprocs).map(|_| ProcInfo::new()).collect(),
            running: None,
            live: nprocs,
            shutdown: false,
            panicked: false,
            draining: false,
            handoff: HandoffStats::default(),
            pending_bytes: vec![0; nprocs],
            net: self.net,
            tracer: self.tracer.clone(),
            profiler: self.profiler,
        };
        for p in 0..nprocs {
            sched.push_event(SimTime::ZERO, Event::Resume(p));
        }
        let shared = Shared {
            sched: Mutex::new(sched),
            ctl_cv: Condvar::new(),
            threads: (0..nprocs).map(|_| OnceLock::new()).collect(),
            nprocs,
            handlers: Mutex::new(self.handlers),
            tracer: self.tracer,
        };

        let body = &body;
        let mut results: Vec<Option<R>> = std::thread::scope(|scope| {
            let shared = &shared;
            let joins: Vec<_> = (0..nprocs)
                .map(|p| {
                    let join = scope.spawn(move || {
                        // Wait for the first resume.
                        if !shared.await_turn(p, &mut shared.lock()) {
                            return None;
                        }
                        let r =
                            catch_unwind(AssertUnwindSafe(|| body(AppCtx::new(shared, p, nprocs))));
                        let mut s = shared.lock();
                        // Only the *first* panic is the real error; panics
                        // raised to unblock threads during shutdown are noise.
                        let first_panic = r.is_err() && !s.shutdown && !s.panicked;
                        if first_panic {
                            s.panicked = true;
                        }
                        if let Some(tr) = &s.tracer {
                            tr.record(s.pi(p).clock.0, p, EventKind::ProcExit);
                        }
                        s.pi_mut(p).phase = Phase::Finished;
                        s.live -= 1;
                        if s.running == Some(p) {
                            s.running = None;
                        }
                        drop(s);
                        shared.ctl_cv.notify_all();
                        match r {
                            Ok(v) => Some(v),
                            Err(e) if first_panic => std::panic::resume_unwind(e),
                            Err(_) => None,
                        }
                    });
                    shared.threads[p]
                        .set(join.thread().clone())
                        .expect("one thread per process");
                    join
                })
                .collect();

            let handler_panic = shared.controller();

            let results: Vec<Option<R>> = joins
                .into_iter()
                .map(|j| match j.join() {
                    Ok(v) => v,
                    // Re-panic on the main thread with the process's payload.
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect();
            if let Some(e) = handler_panic {
                std::panic::resume_unwind(e);
            }
            results
        });

        let s = shared.sched.into_inner();
        if s.shutdown {
            panic!("simulation deadlocked: all processes blocked with no pending events");
        }
        let proc_end: Vec<SimTime> = s.procs.iter().map(|pi| pi.clock).collect();
        let proc_times = s.procs.iter().map(|pi| pi.times).collect();
        let end_time = proc_end.iter().copied().max().unwrap_or(SimTime::ZERO);
        let handoff = s.handoff;
        TOTAL_DIRECT.fetch_add(handoff.direct, Ordering::Relaxed);
        TOTAL_VIA_CTL.fetch_add(handoff.via_controller, Ordering::Relaxed);
        TOTAL_SELF_RESUMES.fetch_add(handoff.self_resumes, Ordering::Relaxed);
        RunOutcome {
            results: results
                .iter_mut()
                .map(|r| r.take().expect("result"))
                .collect(),
            end_time,
            proc_end,
            proc_times,
            handoff,
            net: s.net,
        }
    }
}

/// Convenience wrapper: run `nprocs` copies of `body` on a perfect network
/// with the given latency. Used heavily by unit tests.
pub fn run_simple<R, F>(nprocs: usize, latency: SimDuration, body: F) -> RunOutcome<R>
where
    R: Send,
    F: Fn(AppCtx<'_>) -> R + Send + Sync,
{
    Sim::new(nprocs, Box::new(crate::net::PerfectNet::new(latency))).run(body)
}
