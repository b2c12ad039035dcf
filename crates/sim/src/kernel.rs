//! The discrete-event scheduler: a sequential core plus an optional
//! conservative-lookahead parallel kernel.
//!
//! Every simulated process is backed by an OS thread, but **within one node
//! group exactly one thread runs at any instant**: an event-loop thread pops
//! events in `(time, seq)` order and hands control to the corresponding
//! process thread, then waits for it to block again. This gives
//! straight-line imperative process code (no hand-written state machines)
//! while keeping execution fully deterministic.
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
//! stays parked. The controller pops events itself only at startup, when
//! handoff is disabled, and when the queue empties (termination / deadlock
//! detection). Event pop order, trace order and every clock advance are
//! identical either way; only the OS-thread ping-pong is elided. Savings
//! (wake-ups that skipped the controller) are counted in
//! [`HandoffStats`] (per run) and in process-wide totals ([`handoff_totals`])
//! for wall-clock reporting.
//!
//! ## Waking a thread after the lock is released
//!
//! Every scheduling decision — which process runs next, every clock
//! advance — is made under the group's scheduler mutex, but the OS-level
//! wake of the chosen thread happens only after that mutex is released.
//! Waking first would start a lock convoy: on a single CPU the woken thread
//! preempts the waker, immediately blocks on the mutex the waker still
//! holds, and the waker must be scheduled again just to release it — up to
//! three context switches per handoff instead of one. Process threads are
//! woken through a per-process park/unpark baton (the chosen process
//! re-checks `Sched::running` under the lock, so a stale or spurious unpark
//! costs one loop iteration); event-loop threads through the group's
//! `ctl_cv`, also notified only after unlocking. A drain that wakes the very
//! process doing the draining (a *self-resume*) switches no thread at all.
//!
//! ## The parallel kernel
//!
//! With [`Sim::set_workers`]` > 1` and a network model that exports a
//! [`NetModel::lookahead`] bound, the run is partitioned into node groups
//! executed window-by-window in the Chandy–Misra–Bryant style: all events in
//! `[T, T + lookahead)` are causally independent across groups (any packet
//! sent inside the window arrives at or after its end), so each group can
//! execute its slice of the window concurrently. Groups record side effects
//! into per-group logs which a serial *commit* replays in exact global
//! `(time, seq)` order — routing every send through the shared network
//! model, appending to the trace ring, and growing the causal log precisely
//! as the sequential kernel would have. Every artifact (traces, causal
//! records, network statistics, RNG-driven drops) is therefore byte-identical
//! at any worker count; see `window.rs` for the mechanism.

use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use vopp_trace::{CausalProfiler, CtxKind, EventKind, Tracer, NO_CTX};

use crate::ctx::{AppCtx, SvcCtx};
use crate::net::{NetModel, RouteRequest};
use crate::packet::{DeliveryClass, Packet};
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::time::{SimDuration, SimTime};
use crate::window::{self, Action, Doorbell, GroupCell, PushedEv};
use crate::ProcId;

/// A service-request handler: invoked by the kernel when a [`DeliveryClass::Svc`]
/// packet arrives at the process it is registered for.
pub type Handler = Box<dyn FnMut(&mut SvcCtx<'_>, Packet) + Send + 'static>;

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
/// Process-wide default for [`Sim::set_direct_handoff`].
static DIRECT_HANDOFF_DEFAULT: AtomicBool = AtomicBool::new(true);
/// Process-wide default for [`Sim::set_workers`].
static SIM_WORKERS_DEFAULT: AtomicUsize = AtomicUsize::new(1);

/// Sentinel worker count selecting the event-density-adaptive kernel
/// (`--sim-workers auto`): the group count is resolved from the host's
/// available parallelism and the coordinator engages the worker pool only
/// for windows dense enough to amortize dispatch, tracked by a rolling
/// events-per-window estimate against [`auto_engage_threshold`]. Sparse
/// stretches run on the coordinator thread alone, so auto never pays
/// worker wake-ups where parallelism cannot win.
pub const SIM_WORKERS_AUTO: usize = usize::MAX;

/// Default events-per-window engage threshold for `auto` mode. Deliberately
/// conservative: the `parkernel_density` sweep in
/// `crates/bench/benches/substrate.rs` measures the host's actual crossover
/// (the lowest density where a 4-worker pool beats sequential) and prints it
/// next to this default — on hosts where no crossover exists (a single
/// hardware thread resolves `auto` to sequential before the threshold is
/// ever consulted) the sweep says so instead. Misjudging high only costs the
/// parallel win on moderately dense windows; misjudging low pays dispatch
/// overhead on every sparse window, so the default errs high.
pub const AUTO_ENGAGE_DEFAULT: u64 = 96;

/// Process-wide engage threshold for `auto` mode, in events per window.
static AUTO_ENGAGE_THRESHOLD: AtomicU64 = AtomicU64::new(AUTO_ENGAGE_DEFAULT);

/// Set the events-per-window threshold above which `auto` mode dispatches
/// windows to the worker pool (clamped to at least 1). Exposed for tests
/// and calibration; the default is [`AUTO_ENGAGE_DEFAULT`].
pub fn set_auto_engage_threshold(events_per_window: u64) {
    AUTO_ENGAGE_THRESHOLD.store(events_per_window.max(1), Ordering::Relaxed);
}

/// The current `auto`-mode engage threshold (events per window).
pub fn auto_engage_threshold() -> u64 {
    AUTO_ENGAGE_THRESHOLD.load(Ordering::Relaxed).max(1)
}

/// Process-wide override for the group count `auto` resolves to
/// (0 = derive from the host's available parallelism).
static AUTO_WORKERS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the group count [`SIM_WORKERS_AUTO`] resolves to instead of deriving
/// it from the host's available parallelism (0 restores host-derived sizing;
/// larger values are clamped to the same cap as host-derived widths). Any
/// value yields byte-identical results — this only exists so tests and
/// calibration runs can exercise the adaptive kernel's engage/disengage
/// machinery on hosts whose parallelism would resolve `auto` to sequential.
pub fn set_auto_workers_override(workers: usize) {
    AUTO_WORKERS_OVERRIDE.store(workers, Ordering::Relaxed);
}

/// The current `auto`-width override (0 = host-derived).
pub fn auto_workers_override() -> usize {
    AUTO_WORKERS_OVERRIDE.load(Ordering::Relaxed)
}

/// Handoff totals accumulated by every run finished in this process so far.
pub fn handoff_totals() -> HandoffStats {
    HandoffStats {
        direct: TOTAL_DIRECT.load(Ordering::Relaxed),
        via_controller: TOTAL_VIA_CTL.load(Ordering::Relaxed),
        self_resumes: TOTAL_SELF_RESUMES.load(Ordering::Relaxed),
    }
}

/// Set the process-wide default for direct handoff scheduling (normally on;
/// turning it off forces every wake-up through the controller thread, which
/// is only useful for comparative benchmarks and scheduling tests).
pub fn set_direct_handoff_default(on: bool) {
    DIRECT_HANDOFF_DEFAULT.store(on, Ordering::Relaxed);
}

/// The current process-wide direct-handoff default.
pub fn direct_handoff_default() -> bool {
    DIRECT_HANDOFF_DEFAULT.load(Ordering::Relaxed)
}

/// Set the process-wide default worker count for new [`Sim`]s (clamped to at
/// least 1; [`SIM_WORKERS_AUTO`] selects the adaptive kernel). Runs built
/// afterwards use it unless overridden per run with [`Sim::set_workers`].
/// Wired to `--sim-workers` / `VOPP_SIM_WORKERS` by the bench CLI.
pub fn set_sim_workers_default(workers: usize) {
    let w = if workers == SIM_WORKERS_AUTO {
        workers
    } else {
        workers.max(1)
    };
    SIM_WORKERS_DEFAULT.store(w, Ordering::Relaxed);
}

/// The current process-wide simulation worker-count default
/// ([`SIM_WORKERS_AUTO`] when the adaptive kernel is selected).
pub fn sim_workers_default() -> usize {
    SIM_WORKERS_DEFAULT.load(Ordering::Relaxed).max(1)
}

/// Number of events-per-window histogram buckets in [`WindowStats::density`]:
/// bucket `i < 7` counts windows holding `2^i ..= 2^(i+1)-1` events, the
/// last bucket counts windows of 128 events or more.
pub const DENSITY_BUCKETS: usize = 8;

/// Intra-run parallel-kernel counters for one run. Wall-clock bookkeeping
/// only — never part of the virtual-time results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Conservative-lookahead windows executed (0 on sequential runs).
    pub windows: u64,
    /// Windows whose events all targeted one group, executed inline on the
    /// coordinator without logging (the sequential fast path).
    pub inline_windows: u64,
    /// Windows executed by two or more groups concurrently.
    pub parallel_windows: u64,
    /// Multi-group windows the adaptive kernel ran serially on the
    /// coordinator thread because the rolling density estimate sat below
    /// the engage threshold (still deferred + committed; no dispatch).
    pub serial_windows: u64,
    /// Events drained into windows.
    pub window_events: u64,
    /// Wall time spent executing windows, including coordinator idle while
    /// the slowest group finishes (the barrier cost).
    pub exec_ns: u64,
    /// Wall time spent in the serial commit replay that merges group logs.
    pub merge_ns: u64,
    /// Share of `merge_ns` replaying order-sensitive effects (network
    /// routing, seq assignment, backlog bookkeeping).
    pub commit_route_ns: u64,
    /// Share of `merge_ns` bulk-appending trace/causal records from the
    /// per-group record logs.
    pub commit_append_ns: u64,
    /// Window dispatches a worker observed while still spinning (cheap).
    pub spin_hits: u64,
    /// Window dispatches a worker observed only after parking (an OS wake).
    pub park_wakes: u64,
    /// Events-per-window histogram; see [`DENSITY_BUCKETS`].
    pub density: [u64; DENSITY_BUCKETS],
    /// Runs that requested workers but fell back to sequential (no lookahead
    /// bound, or one below the floor).
    pub fallback_runs: u64,
}

impl WindowStats {
    /// The histogram bucket a window with `events` events lands in.
    pub fn density_bucket(events: u64) -> usize {
        (63 - (events.max(1).leading_zeros() as usize).min(63)).min(DENSITY_BUCKETS - 1)
    }
}

static TOTAL_WINDOWS: AtomicU64 = AtomicU64::new(0);
static TOTAL_INLINE_WINDOWS: AtomicU64 = AtomicU64::new(0);
static TOTAL_PAR_WINDOWS: AtomicU64 = AtomicU64::new(0);
static TOTAL_SERIAL_WINDOWS: AtomicU64 = AtomicU64::new(0);
static TOTAL_WINDOW_EVENTS: AtomicU64 = AtomicU64::new(0);
static TOTAL_EXEC_NS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MERGE_NS: AtomicU64 = AtomicU64::new(0);
static TOTAL_ROUTE_NS: AtomicU64 = AtomicU64::new(0);
static TOTAL_APPEND_NS: AtomicU64 = AtomicU64::new(0);
static TOTAL_SPIN_HITS: AtomicU64 = AtomicU64::new(0);
static TOTAL_PARK_WAKES: AtomicU64 = AtomicU64::new(0);
static TOTAL_DENSITY: [AtomicU64; DENSITY_BUCKETS] = [const { AtomicU64::new(0) }; DENSITY_BUCKETS];
static TOTAL_FALLBACK_RUNS: AtomicU64 = AtomicU64::new(0);

/// Parallel-kernel totals accumulated by every run finished in this process.
pub fn window_totals() -> WindowStats {
    WindowStats {
        windows: TOTAL_WINDOWS.load(Ordering::Relaxed),
        inline_windows: TOTAL_INLINE_WINDOWS.load(Ordering::Relaxed),
        parallel_windows: TOTAL_PAR_WINDOWS.load(Ordering::Relaxed),
        serial_windows: TOTAL_SERIAL_WINDOWS.load(Ordering::Relaxed),
        window_events: TOTAL_WINDOW_EVENTS.load(Ordering::Relaxed),
        exec_ns: TOTAL_EXEC_NS.load(Ordering::Relaxed),
        merge_ns: TOTAL_MERGE_NS.load(Ordering::Relaxed),
        commit_route_ns: TOTAL_ROUTE_NS.load(Ordering::Relaxed),
        commit_append_ns: TOTAL_APPEND_NS.load(Ordering::Relaxed),
        spin_hits: TOTAL_SPIN_HITS.load(Ordering::Relaxed),
        park_wakes: TOTAL_PARK_WAKES.load(Ordering::Relaxed),
        density: std::array::from_fn(|i| TOTAL_DENSITY[i].load(Ordering::Relaxed)),
        fallback_runs: TOTAL_FALLBACK_RUNS.load(Ordering::Relaxed),
    }
}

fn add_window_totals(w: &WindowStats) {
    TOTAL_WINDOWS.fetch_add(w.windows, Ordering::Relaxed);
    TOTAL_INLINE_WINDOWS.fetch_add(w.inline_windows, Ordering::Relaxed);
    TOTAL_PAR_WINDOWS.fetch_add(w.parallel_windows, Ordering::Relaxed);
    TOTAL_SERIAL_WINDOWS.fetch_add(w.serial_windows, Ordering::Relaxed);
    TOTAL_WINDOW_EVENTS.fetch_add(w.window_events, Ordering::Relaxed);
    TOTAL_EXEC_NS.fetch_add(w.exec_ns, Ordering::Relaxed);
    TOTAL_MERGE_NS.fetch_add(w.merge_ns, Ordering::Relaxed);
    TOTAL_ROUTE_NS.fetch_add(w.commit_route_ns, Ordering::Relaxed);
    TOTAL_APPEND_NS.fetch_add(w.commit_append_ns, Ordering::Relaxed);
    TOTAL_SPIN_HITS.fetch_add(w.spin_hits, Ordering::Relaxed);
    TOTAL_PARK_WAKES.fetch_add(w.park_wakes, Ordering::Relaxed);
    for (total, n) in TOTAL_DENSITY.iter().zip(w.density) {
        total.fetch_add(n, Ordering::Relaxed);
    }
    TOTAL_FALLBACK_RUNS.fetch_add(w.fallback_runs, Ordering::Relaxed);
}

pub(crate) enum Event {
    Resume(ProcId),
    Deliver { dst: ProcId, pkt: Packet },
    Timer { dst: ProcId, token: u64 },
}

impl Event {
    /// The process an event is executed on behalf of (used to bucket events
    /// into node groups).
    pub(crate) fn target(&self) -> ProcId {
        match self {
            Event::Resume(p) => *p,
            Event::Deliver { dst, .. } => *dst,
            Event::Timer { dst, .. } => *dst,
        }
    }
}

pub(crate) struct QEntry {
    pub(crate) at: SimTime,
    /// Orders global-seq entries (tier 0) before window-local provisional
    /// entries (tier 1) at equal times. Always 0 on the sequential path, so
    /// ordering degenerates to the classic `(time, seq)`.
    pub(crate) tier: u8,
    pub(crate) seq: u64,
    pub(crate) ev: Event,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tier == other.tier && self.seq == other.seq
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
        (other.at, other.tier, other.seq).cmp(&(self.at, self.tier, self.seq))
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

/// How a group's scheduler treats side effects right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The group owns the shared [`GlobalState`]: sends route immediately,
    /// traces and causal records go to the shared sinks, event seqs are
    /// global. The sequential run and single-active-group windows.
    Inline,
    /// Two or more groups execute concurrently: side effects append to the
    /// group's [`Action`] log for the serial commit; in-window events get
    /// window-local provisional seqs (tier 1).
    Deferred,
}

/// State that must be touched in exact global event order: the event-seq
/// counter, the cross-window future event heap, the network model (RNG and
/// link occupancy), and the per-destination delivery backlog the model reads
/// for overflow decisions. On sequential runs it lives inside the single
/// group's scheduler; on parallel runs the coordinator holds it between
/// windows and lends it to the group of a single-active-group window.
pub(crate) struct GlobalState {
    pub(crate) seq: u64,
    pub(crate) future: BinaryHeap<QEntry>,
    pub(crate) pending_bytes: Vec<usize>,
    pub(crate) net: Box<dyn NetModel>,
}

impl GlobalState {
    /// Push with the next global seq (tier 0).
    pub(crate) fn push_future(&mut self, at: SimTime, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.future.push(QEntry {
            at,
            tier: 0,
            seq,
            ev,
        });
    }
}

/// One node group's scheduler. A sequential run is exactly one group with no
/// window bound and the [`GlobalState`] permanently resident.
pub(crate) struct Sched {
    pub(crate) now: SimTime,
    queue: BinaryHeap<QEntry>,
    /// This group's processes, indexed by `proc - lo`.
    pub(crate) procs: Vec<ProcInfo>,
    pub(crate) lo: ProcId,
    pub(crate) running: Option<ProcId>,
    pub(crate) live: usize,
    pub(crate) shutdown: bool,
    pub(crate) panicked: bool,
    direct_handoff: bool,
    /// A process thread is inside `try_handoff` — possibly with the lock
    /// released while it runs a service handler. The event-loop thread must
    /// stay parked until the drain finishes, even on a spurious condvar wake.
    draining: bool,
    pub(crate) handoff: HandoffStats,
    pub(crate) mode: Mode,
    /// Exclusive upper bound of the current window; `None` = unbounded
    /// (sequential run).
    pub(crate) t_end: Option<SimTime>,
    /// Window-local seq counter for tier-1 entries (deferred mode).
    local_seq: u64,
    /// The model's exact self-delivery latency (deferred-mode loopbacks are
    /// predicted locally and re-verified at commit). Unused sequentially.
    loopback: SimDuration,
    pub(crate) global: Option<GlobalState>,
    /// The group's side-effect log + provisional causal-id state; the same
    /// `Arc` is installed as the thread-local sink on the group's threads.
    pub(crate) cell: Arc<GroupCell>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    /// Causal-edge recorder for the critical-path profiler; pure
    /// observation — `None` costs one pointer test per wake/send.
    pub(crate) profiler: Option<Arc<CausalProfiler>>,
}

impl Sched {
    #[inline]
    pub(crate) fn pi(&self, p: ProcId) -> &ProcInfo {
        &self.procs[p - self.lo]
    }

    #[inline]
    pub(crate) fn pi_mut(&mut self, p: ProcId) -> &mut ProcInfo {
        &mut self.procs[p - self.lo]
    }

    #[inline]
    fn owns(&self, p: ProcId) -> bool {
        p >= self.lo && p < self.lo + self.procs.len()
    }

    #[inline]
    fn in_window(&self, at: SimTime) -> bool {
        self.t_end.is_none_or(|te| at < te)
    }

    /// Coordinator-side: arm a window on this group, seeding its queue with
    /// the bucketed events (already carrying their global seqs).
    pub(crate) fn open_window(&mut self, mode: Mode, t_end: SimTime, bucket: &mut Vec<QEntry>) {
        debug_assert!(self.queue.is_empty(), "window opened over a live queue");
        self.mode = mode;
        self.t_end = Some(t_end);
        self.local_seq = 0;
        for e in bucket.drain(..) {
            self.queue.push(e);
        }
    }

    /// Coordinator-side: drop the window bounds once the group has parked.
    pub(crate) fn close_window(&mut self) {
        self.mode = Mode::Inline;
        self.t_end = None;
    }

    /// Whether the group's queue is exhausted (window complete).
    pub(crate) fn window_drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pop the earliest event if it falls inside the current window.
    pub(crate) fn pop_due(&mut self) -> Option<QEntry> {
        if let (Some(te), Some(head)) = (self.t_end, self.queue.peek()) {
            if head.at >= te {
                return None;
            }
        }
        self.queue.pop()
    }

    /// Log the start of an event execution so the commit replay can align
    /// the group's action log with the global event order.
    pub(crate) fn note_begin(&self, entry: &QEntry) {
        if self.mode == Mode::Deferred {
            self.cell.begin_event(entry.at);
        }
    }

    /// Deliver-event bookkeeping: the destination's backlog shrinks.
    /// One-sided deliveries never enter the backlog (preposted buffers, not
    /// the receive queue), so callers skip this for them.
    pub(crate) fn note_deliver_pop(&mut self, dst: ProcId, wire_bytes: usize) {
        match self.mode {
            Mode::Inline => {
                let g = self
                    .global
                    .as_mut()
                    .expect("inline group owns global state");
                g.pending_bytes[dst] -= wire_bytes;
            }
            Mode::Deferred => self.cell.push(Action::DeliverPop { dst, wire_bytes }),
        }
    }

    pub(crate) fn push_event(&mut self, at: SimTime, ev: Event) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        match self.mode {
            Mode::Inline => {
                let in_win = self.in_window(at);
                debug_assert!(
                    !in_win || self.owns(ev.target()),
                    "in-window event targets a foreign group"
                );
                let g = self
                    .global
                    .as_mut()
                    .expect("inline group owns global state");
                let seq = g.seq;
                g.seq += 1;
                let e = QEntry {
                    at,
                    tier: 0,
                    seq,
                    ev,
                };
                if in_win {
                    self.queue.push(e);
                } else {
                    g.future.push(e);
                }
            }
            Mode::Deferred => {
                match &ev {
                    Event::Resume(p) => self.cell.push(Action::Push {
                        at,
                        ev: PushedEv::Resume(*p),
                    }),
                    Event::Timer { dst, token } => self.cell.push(Action::Push {
                        at,
                        ev: PushedEv::Timer {
                            dst: *dst,
                            token: *token,
                        },
                    }),
                    // In-window loopback deliveries: `submit_send` already
                    // logged the send; the commit re-routes it.
                    Event::Deliver { .. } => {}
                }
                if self.in_window(at) {
                    debug_assert!(self.owns(ev.target()));
                    let seq = self.local_seq;
                    self.local_seq += 1;
                    self.queue.push(QEntry {
                        at,
                        tier: 1,
                        seq,
                        ev,
                    });
                }
                // Out-of-window events exist only in the log; the commit
                // assigns their global seq and pushes them to the future.
            }
        }
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
        match self.mode {
            Mode::Inline => {
                let g = self
                    .global
                    .as_mut()
                    .expect("inline group owns global state");
                let one_sided = pkt.class == DeliveryClass::OneSided;
                let req = RouteRequest {
                    now,
                    src: pkt.src,
                    dst,
                    wire_bytes: pkt.wire_bytes,
                    pending_bytes_at_dst: g.pending_bytes[dst],
                    reliable: one_sided,
                };
                if let Some(at) = g.net.route(req) {
                    // One-sided writes land in preposted buffers, not the
                    // receive queue, so they add no overflow occupancy.
                    if !one_sided {
                        g.pending_bytes[dst] += pkt.wire_bytes;
                    }
                    self.push_event(at.max(now), Event::Deliver { dst, pkt });
                }
            }
            Mode::Deferred => {
                // Routing reads global state (RNG, link occupancy, backlog)
                // and must run in exact global send order: defer it to the
                // commit. Only a loopback is predictable locally — it is
                // exact, lossless, and touches no shared routing state
                // (the `loopback_latency` contract) — and only a loopback
                // can land inside the window (cross-node deliveries are
                // bounded below by the lookahead, the window length).
                let loopback = pkt.src == dst;
                self.cell.log_send(now, dst, pkt.clone());
                if loopback {
                    let at = now + self.loopback;
                    if self.in_window(at) {
                        self.push_event(at, Event::Deliver { dst, pkt });
                    }
                }
            }
        }
    }
}

/// One node group: its scheduler, the condvar its event-loop thread (the
/// controller sequentially, the group runner in parallel mode) parks on
/// *during* a window, the lock-free dispatch slot its runner watches
/// *between* windows, and the side-effect cell shared with the thread-local
/// sinks.
pub(crate) struct Group {
    pub(crate) sched: Mutex<Sched>,
    pub(crate) ctl_cv: Condvar,
    pub(crate) cell: Arc<GroupCell>,
    pub(crate) bell: Doorbell,
}

/// Parallel-window completion barrier: dispatched-but-unfinished group
/// count, decremented lock-free by finishing runners; the last one unparks
/// the coordinator.
pub(crate) struct WinSync {
    pub(crate) pending: AtomicUsize,
    /// First service-handler panic raised on a runner thread; rethrown by
    /// the coordinator once every window participant has parked.
    pub(crate) svc_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Shared kernel state: the per-group schedulers plus the thread handles
/// used for the event-loop/process handoffs.
pub(crate) struct Shared {
    pub(crate) groups: Vec<Group>,
    /// Group index of each process.
    pub(crate) group_of: Vec<usize>,
    /// Each process's OS thread, unparked (after the scheduler lock is
    /// released) when the process is handed control. Set by the spawner
    /// before any event runs.
    threads: Vec<OnceLock<Thread>>,
    pub(crate) nprocs: usize,
    pub(crate) win: WinSync,
    /// Service handlers, shared so whichever thread pops a `Svc` delivery —
    /// the event loop or a draining process thread — can run it. A handler is
    /// taken out of its slot for the duration of the call; event execution is
    /// serialized per group (`running`/`draining`) and a process belongs to
    /// exactly one group, so the slot is never contended.
    handlers: Mutex<Vec<Option<Handler>>>,
    /// Same tracer as `Sched::tracer`, duplicated outside the mutex so the
    /// disabled path is a pointer test without taking a scheduler lock.
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl Shared {
    #[inline]
    pub(crate) fn group_ix(&self, p: ProcId) -> usize {
        self.group_of[p]
    }

    #[inline]
    pub(crate) fn group(&self, p: ProcId) -> &Group {
        &self.groups[self.group_of[p]]
    }

    /// Lock the scheduler of the group owning process `p`.
    #[inline]
    pub(crate) fn lock_proc(&self, p: ProcId) -> MutexGuard<'_, Sched> {
        self.group(p).sched.lock()
    }

    /// Called from a process thread: yield control and wait until it is
    /// handed back. The caller must already have set its own phase to the
    /// blocked state it wants. If a queued event wakes a process, control
    /// transfers directly; the group's event loop is only notified when the
    /// drain cannot continue (empty window, shutdown, or handoff disabled).
    /// Either wake is issued after the scheduler lock is released.
    pub(crate) fn yield_and_wait<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) {
        debug_assert_eq!(s.running, Some(me));
        s.running = None;
        let grp = self.group(me);
        match self.try_handoff(me, s) {
            // Self-resume: this thread keeps the CPU.
            Some(p) if p == me => {}
            Some(p) => grp.sched.unlocked(s, || self.unpark(p)),
            None => grp.sched.unlocked(s, || grp.ctl_cv.notify_one()),
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
            self.group(me).sched.unlocked(s, std::thread::park);
        }
        true
    }

    /// Wake process `p`'s thread. Call only with `p`'s scheduler unlocked:
    /// the thread's first act is to take that lock.
    fn unpark(&self, p: ProcId) {
        self.threads[p]
            .get()
            .expect("process threads are registered before any event runs")
            .unpark();
    }

    /// Drain the group's event queue — in exactly the order the event loop
    /// would, advancing virtual time and running service handlers the same
    /// way — until an event wakes a process. Returns the woken process (the
    /// event loop stays parked; the caller wakes its thread), or `None` if
    /// the event loop must take over: the window is exhausted, handoff is
    /// disabled, or the run is shutting down.
    ///
    /// Advancing `now` and running handlers from a process thread is safe:
    /// event execution is serialized per group by `Sched::draining` (set
    /// here, checked by the event loop's parking loop), and the event loop
    /// only reads scheduler state after reacquiring the lock.
    fn try_handoff<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) -> Option<ProcId> {
        if !s.direct_handoff || s.panicked || s.shutdown {
            return None;
        }
        s.draining = true;
        let woke = self.drain(me, s);
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
    fn drain<'a>(&'a self, me: ProcId, s: &mut MutexGuard<'a, Sched>) -> Option<ProcId> {
        loop {
            let entry = s.pop_due()?;
            debug_assert!(entry.at >= s.now, "event queue went backwards");
            s.now = entry.at;
            s.note_begin(&entry);
            match entry.ev {
                Event::Resume(p) => match s.pi(p).phase {
                    Phase::Startup | Phase::BlockedResume => {
                        self.wake_now(s, p, entry.at, NO_CTX);
                        return Some(p);
                    }
                    Phase::Finished => {}
                    ref ph => unreachable!("resume for proc {p} in phase {ph:?}"),
                },
                Event::Deliver { dst, mut pkt } => {
                    if pkt.class != DeliveryClass::OneSided {
                        s.note_deliver_pop(dst, pkt.wire_bytes);
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
                        DeliveryClass::Svc => {
                            if let Err(e) = self.dispatch_svc(me, s, dst, pkt, entry.at) {
                                // Propagate on this thread: the process-exit
                                // path records it as the first panic and the
                                // run shuts down.
                                std::panic::resume_unwind(e);
                            }
                            if s.panicked || s.shutdown {
                                return None;
                            }
                        }
                        DeliveryClass::App => {
                            let cause = pkt.cause;
                            s.pi_mut(dst).mailbox.push_back(pkt);
                            if matches!(s.pi(dst).phase, Phase::WaitRecv { .. }) {
                                self.wake_now(s, dst, entry.at, cause);
                                return Some(dst);
                            }
                        }
                        // One-sided write: lands in the preposted buffer with
                        // no remote CPU involvement — no handler dispatch, no
                        // wake of a blocked receiver.
                        DeliveryClass::OneSided => {
                            s.pi_mut(dst).mailbox.push_back(pkt);
                        }
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
                        return Some(dst);
                    }
                    // Otherwise the timer is stale (the wait already ended).
                }
            }
        }
    }

    /// Run the `Svc` handler for `dst`, releasing the scheduler lock for the
    /// duration of the call (handlers re-enter the scheduler through
    /// [`SvcCtx`]) and re-acquiring it before returning. Returns the
    /// handler's panic payload, if any. `locked` is any process of the group
    /// whose scheduler `s` guards (the handler's own group).
    pub(crate) fn dispatch_svc<'a>(
        &'a self,
        locked: ProcId,
        s: &mut MutexGuard<'a, Sched>,
        dst: ProcId,
        pkt: Packet,
        at: SimTime,
    ) -> Result<(), Box<dyn std::any::Any + Send>> {
        debug_assert_eq!(self.group_ix(locked), self.group_ix(dst));
        if let Some(prof) = &s.profiler {
            prof.record_svc(dst, at.0, pkt.cause);
        }
        let mut h = self.handlers.lock()[dst]
            .take()
            .unwrap_or_else(|| panic!("no Svc handler on proc {dst}"));
        let r = self.group(dst).sched.unlocked(s, || {
            let mut ctx = SvcCtx::new(self, dst, at);
            catch_unwind(AssertUnwindSafe(|| h(&mut ctx, pkt)))
        });
        if r.is_ok() {
            // On panic the slot stays empty; the run is shutting down.
            self.handlers.lock()[dst] = Some(h);
        }
        r
    }

    /// Mark process `p` running at virtual time `t`. Shared by the event
    /// loops and the direct-handoff path; every clock advance and its
    /// compute/blocked classification happens here. The caller wakes `p`'s
    /// thread once it has released the scheduler lock.
    /// `pkt_cause` is the delivered packet's causal stamp on receive wakes
    /// ([`NO_CTX`] for self-caused resumes and timer expiries).
    pub(crate) fn wake_now(
        &self,
        s: &mut MutexGuard<'_, Sched>,
        p: ProcId,
        t: SimTime,
        pkt_cause: u64,
    ) {
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

    /// Hand control to process `p` at virtual time `t` (waking its thread
    /// with the lock released) and park this event-loop thread until it is
    /// needed again. Must be called with the group's scheduler locked. While parked, blocking processes drain the
    /// event queue and chain wake-ups among themselves (direct handoff); the
    /// `draining` check keeps this loop parked even if the condvar wakes
    /// spuriously while a drain has the lock released for a service handler.
    pub(crate) fn wake_and_park<'a>(
        &'a self,
        gi: usize,
        s: &mut MutexGuard<'a, Sched>,
        p: ProcId,
        t: SimTime,
        pkt_cause: u64,
    ) {
        self.wake_now(s, p, t, pkt_cause);
        s.handoff.via_controller += 1;
        self.groups[gi].sched.unlocked(s, || self.unpark(p));
        while (s.running.is_some() || s.draining) && !s.panicked {
            self.groups[gi].ctl_cv.wait(s);
        }
    }

    /// Release every blocked process thread in every group so the scope can
    /// join them. (Parallel-mode group runners are halted separately through
    /// their dispatch slots; see [`Doorbell::halt`].)
    pub(crate) fn shutdown_all(&self) {
        for grp in &self.groups {
            let mut s = grp.sched.lock();
            s.shutdown = true;
            drop(s);
            grp.ctl_cv.notify_all();
        }
        for p in 0..self.nprocs {
            self.unpark(p);
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
    /// Parallel-kernel window counters (zero on sequential runs).
    pub windows: WindowStats,
    /// Node groups the run actually executed with (1 = sequential).
    pub sim_workers: usize,
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
    direct_handoff: bool,
    workers: usize,
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
            direct_handoff: direct_handoff_default(),
            workers: sim_workers_default(),
        }
    }

    /// Enable or disable direct process→process handoff for this run
    /// (defaults to the process-wide setting, normally on). Virtual-time
    /// results are identical either way; only wall-clock differs.
    pub fn set_direct_handoff(&mut self, on: bool) {
        self.direct_handoff = on;
    }

    /// Set the number of node groups executed concurrently by the
    /// conservative-lookahead parallel kernel (defaults to the process-wide
    /// setting, normally 1 = sequential; [`SIM_WORKERS_AUTO`] selects the
    /// event-density-adaptive kernel). Requires a network model with a
    /// [`NetModel::lookahead`] bound at or above
    /// [`crate::MIN_PARALLEL_LOOKAHEAD`] and an exact
    /// [`NetModel::loopback_latency`]; otherwise the run falls back to
    /// sequential execution with a one-time notice. Every artifact — traces,
    /// causal logs, network statistics, results — is byte-identical at any
    /// worker count, in auto mode included.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = if workers == SIM_WORKERS_AUTO {
            workers
        } else {
            workers.max(1)
        };
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
        let plan = window::decide_plan(self.workers, nprocs, self.net.as_ref());
        let mut win_stats = WindowStats::default();
        // A run counts as a fallback only when parallelism was genuinely
        // requested and denied (no lookahead bound, floor, ...). Auto mode
        // resolving to one worker on a single-core host is a choice, not a
        // fallback.
        if plan.is_none() && window::resolve_workers(self.workers) > 1 {
            win_stats.fallback_runs = 1;
        }
        let ngroups = plan.as_ref().map_or(1, |p| p.groups);
        let loopback = plan.as_ref().map_or(SimDuration::ZERO, |p| p.loopback);

        // Contiguous, near-even node ranges per group.
        let mut group_of = vec![0usize; nprocs];
        let mut bounds = Vec::with_capacity(ngroups + 1);
        bounds.push(0usize);
        for gi in 0..ngroups {
            let hi = (nprocs * (gi + 1)).div_ceil(ngroups);
            group_of[bounds[gi]..hi].fill(gi);
            bounds.push(hi);
        }

        let mut global = GlobalState {
            seq: 0,
            future: BinaryHeap::new(),
            pending_bytes: vec![0; nprocs],
            net: self.net,
        };

        let groups: Vec<Group> = (0..ngroups)
            .map(|gi| {
                let cell = Arc::new(GroupCell::new());
                Group {
                    sched: Mutex::new(Sched {
                        now: SimTime::ZERO,
                        queue: BinaryHeap::new(),
                        procs: (bounds[gi]..bounds[gi + 1])
                            .map(|_| ProcInfo::new())
                            .collect(),
                        lo: bounds[gi],
                        running: None,
                        live: bounds[gi + 1] - bounds[gi],
                        shutdown: false,
                        panicked: false,
                        direct_handoff: self.direct_handoff,
                        draining: false,
                        handoff: HandoffStats::default(),
                        mode: Mode::Inline,
                        t_end: None,
                        local_seq: 0,
                        loopback,
                        global: None,
                        cell: cell.clone(),
                        tracer: self.tracer.clone(),
                        profiler: self.profiler.clone(),
                    }),
                    ctl_cv: Condvar::new(),
                    cell,
                    bell: Doorbell::new(),
                }
            })
            .collect();

        let shared = Shared {
            groups,
            group_of,
            threads: (0..nprocs).map(|_| OnceLock::new()).collect(),
            nprocs,
            win: WinSync {
                pending: AtomicUsize::new(0),
                svc_panic: Mutex::new(None),
            },
            handlers: Mutex::new(self.handlers),
            tracer: self.tracer,
        };

        if plan.is_none() {
            // Sequential: the single group owns the global state for the
            // whole run and its queue is unbounded — exactly the classic
            // one-heap scheduler.
            let mut s = shared.groups[0].sched.lock();
            s.global = Some(global);
            for p in 0..nprocs {
                s.push_event(SimTime::ZERO, Event::Resume(p));
            }
        } else {
            for p in 0..nprocs {
                global.push_future(SimTime::ZERO, Event::Resume(p));
            }
            // Parked in group 0 until the coordinator takes over; keeps the
            // borrow checker happy about the conditional move above.
            shared.groups[0].sched.lock().global = Some(global);
        }

        let par = plan.is_some();
        let shared = &shared;
        let body = &body;
        let mut results: Vec<Option<R>> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..nprocs)
                .map(|p| {
                    let join = scope.spawn(move || {
                        if par {
                            // Side effects produced while this thread runs a
                            // deferred window are captured into the group log.
                            let cell = shared.group(p).cell.clone();
                            vopp_trace::set_thread_record_sink(Some(cell.clone()));
                            vopp_trace::set_thread_causal_sink(Some(cell));
                        }
                        // Wait for the first resume.
                        if !shared.await_turn(p, &mut shared.lock_proc(p)) {
                            return None;
                        }
                        let r =
                            catch_unwind(AssertUnwindSafe(|| body(AppCtx::new(shared, p, nprocs))));
                        let mut s = shared.lock_proc(p);
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
                        shared.group(p).ctl_cv.notify_all();
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

            let handler_panic = match &plan {
                None => Self::controller(shared),
                Some(plan) => window::coordinate(shared, scope, plan, &mut win_stats),
            };

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

        let mut proc_end: Vec<SimTime> = Vec::with_capacity(nprocs);
        let mut proc_times: Vec<ProcTimes> = Vec::with_capacity(nprocs);
        let mut handoff = HandoffStats::default();
        let mut was_shutdown = false;
        let mut net = None;
        for grp in &shared.groups {
            let mut s = grp.sched.lock();
            was_shutdown |= s.shutdown;
            proc_end.extend(s.procs.iter().map(|pi| pi.clock));
            proc_times.extend(s.procs.iter().map(|pi| pi.times));
            handoff.direct += s.handoff.direct;
            handoff.via_controller += s.handoff.via_controller;
            handoff.self_resumes += s.handoff.self_resumes;
            if let Some(g) = s.global.take() {
                net = Some(g.net);
            }
        }
        if was_shutdown {
            panic!("simulation deadlocked: all processes blocked with no pending events");
        }
        let end_time = proc_end.iter().copied().max().unwrap_or(SimTime::ZERO);
        TOTAL_DIRECT.fetch_add(handoff.direct, Ordering::Relaxed);
        TOTAL_VIA_CTL.fetch_add(handoff.via_controller, Ordering::Relaxed);
        TOTAL_SELF_RESUMES.fetch_add(handoff.self_resumes, Ordering::Relaxed);
        add_window_totals(&win_stats);
        RunOutcome {
            results: results
                .iter_mut()
                .map(|r| r.take().expect("result"))
                .collect(),
            end_time,
            proc_end,
            proc_times,
            handoff,
            windows: win_stats,
            sim_workers: ngroups,
            net: net.expect("global state survives the run"),
        }
    }

    /// Sequential event loop: runs on the caller's thread over the single
    /// unbounded group until every process finished, a process panicked, or
    /// a deadlock is detected. Returns a panic payload if a service handler
    /// panicked on this thread. With direct handoff on, process threads
    /// drain the queue themselves and this loop mostly stays parked in
    /// `wake_and_park` — it only pops events itself at startup, when handoff
    /// is disabled, and to detect termination or deadlock.
    fn controller(shared: &Shared) -> Option<Box<dyn std::any::Any + Send>> {
        let grp = &shared.groups[0];
        loop {
            let mut s = grp.sched.lock();
            if s.panicked {
                drop(s);
                shared.shutdown_all();
                return None;
            }
            if s.live == 0 {
                return None;
            }
            let Some(entry) = s.pop_due() else {
                drop(s);
                shared.shutdown_all();
                return None;
            };
            debug_assert!(entry.at >= s.now, "event queue went backwards");
            s.now = entry.at;
            match entry.ev {
                Event::Resume(p) => match s.pi(p).phase {
                    Phase::Startup | Phase::BlockedResume => {
                        shared.wake_and_park(0, &mut s, p, entry.at, NO_CTX);
                    }
                    Phase::Finished => {}
                    ref ph => unreachable!("resume for proc {p} in phase {ph:?}"),
                },
                Event::Deliver { dst, mut pkt } => {
                    if pkt.class != DeliveryClass::OneSided {
                        s.note_deliver_pop(dst, pkt.wire_bytes);
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
                        DeliveryClass::Svc => {
                            // A handler panic must not strand the blocked
                            // process threads: release them, then re-panic.
                            if let Err(e) = shared.dispatch_svc(dst, &mut s, dst, pkt, entry.at) {
                                drop(s);
                                shared.shutdown_all();
                                return Some(e);
                            }
                        }
                        DeliveryClass::App => {
                            let cause = pkt.cause;
                            s.pi_mut(dst).mailbox.push_back(pkt);
                            if matches!(s.pi(dst).phase, Phase::WaitRecv { .. }) {
                                shared.wake_and_park(0, &mut s, dst, entry.at, cause);
                            }
                        }
                        // One-sided write: no handler dispatch, no wake.
                        DeliveryClass::OneSided => {
                            s.pi_mut(dst).mailbox.push_back(pkt);
                        }
                    }
                }
                Event::Timer { dst, token } => {
                    if s.pi(dst).phase
                        == (Phase::WaitRecv {
                            deadline: Some(token),
                        })
                    {
                        s.pi_mut(dst).timed_out = true;
                        shared.wake_and_park(0, &mut s, dst, entry.at, NO_CTX);
                    }
                    // Otherwise the timer is stale (the wait already ended).
                }
            }
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
