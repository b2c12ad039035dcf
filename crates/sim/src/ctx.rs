//! Process-side and handler-side views of the kernel.

use std::collections::VecDeque;

use crate::kernel::{Event, Phase, Shared};
use crate::packet::{DeliveryClass, Packet, Payload};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Mailbox capacity retained after a drain. A barrier fan-in can spike a
/// manager's mailbox to `nprocs` packets; once drained, capacity beyond this
/// is released so the spike doesn't pin memory for the rest of the run.
const MAILBOX_IDLE_CAP: usize = 64;

/// Release excess mailbox capacity once the queue is empty.
fn shrink_if_drained(mb: &mut VecDeque<Packet>) {
    if mb.is_empty() && mb.capacity() > MAILBOX_IDLE_CAP {
        mb.shrink_to(MAILBOX_IDLE_CAP);
    }
}

/// The kernel interface available to a process body (application thread).
///
/// All methods are blocking in *virtual* time only; the underlying OS thread
/// parks while other processes are scheduled.
#[derive(Clone, Copy)]
pub struct AppCtx<'a> {
    shared: &'a Shared,
    me: ProcId,
    nprocs: usize,
}

impl<'a> AppCtx<'a> {
    pub(crate) fn new(shared: &'a Shared, me: ProcId, nprocs: usize) -> AppCtx<'a> {
        AppCtx { shared, me, nprocs }
    }

    /// This process's id.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Number of processes in the simulation.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time on this process's clock.
    pub fn now(&self) -> SimTime {
        self.shared.lock().pi(self.me).clock
    }

    /// Spend `d` of virtual CPU time. Service packets arriving during the
    /// span are handled at their arrival times (interrupt semantics).
    pub fn compute(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let mut s = self.shared.lock();
        let at = s.pi(self.me).clock + d;
        s.push_event(at, Event::Resume(self.me));
        s.pi_mut(self.me).phase = Phase::BlockedResume;
        self.shared.yield_and_wait(self.me, &mut s);
    }

    /// Alias of [`AppCtx::compute`] for idle waits.
    pub fn sleep(&self, d: SimDuration) {
        self.compute(d);
    }

    /// Send a datagram. Non-blocking; delivery time and loss are decided by
    /// the network model. `wire_bytes` must include protocol headers. The
    /// payload is shared: sending the same `Arc` to many destinations (a
    /// broadcast, a retransmission) costs one allocation total.
    pub fn send(
        &self,
        dst: ProcId,
        wire_bytes: usize,
        class: DeliveryClass,
        tag: u64,
        payload: Payload,
    ) {
        let mut s = self.shared.lock();
        let now = s.pi(self.me).clock;
        let mut pkt = Packet::new(self.me, wire_bytes, class, tag, payload);
        if let Some(p) = &s.profiler {
            pkt.cause = p.cur_ctx();
        }
        s.submit_send(now, dst, pkt);
    }

    /// Receive the next mailbox packet, blocking until one arrives.
    pub fn recv(&self) -> Packet {
        self.recv_filter(|_| true)
    }

    /// Receive the first mailbox packet satisfying `want`, blocking until one
    /// arrives. Non-matching packets stay queued in arrival order. One-sided
    /// writes ([`DeliveryClass::OneSided`]) are invisible here — they landed
    /// without CPU involvement and are only observed by an explicit
    /// [`AppCtx::poll_one_sided`].
    pub fn recv_filter(&self, want: impl Fn(&Packet) -> bool) -> Packet {
        let mut s = self.shared.lock();
        loop {
            if let Some(pos) = s
                .pi(self.me)
                .mailbox
                .iter()
                .position(|p| p.class != DeliveryClass::OneSided && want(p))
            {
                let pkt = s.pi_mut(self.me).mailbox.remove(pos).unwrap();
                shrink_if_drained(&mut s.pi_mut(self.me).mailbox);
                return pkt;
            }
            s.pi_mut(self.me).phase = Phase::WaitRecv { deadline: None };
            self.shared.yield_and_wait(self.me, &mut s);
        }
    }

    /// Like [`AppCtx::recv_filter`] with a timeout. Returns `None` if the
    /// deadline passes first.
    pub fn recv_filter_timeout(
        &self,
        d: SimDuration,
        want: impl Fn(&Packet) -> bool,
    ) -> Option<Packet> {
        let mut s = self.shared.lock();
        let deadline = s.pi(self.me).clock + d;
        let token = s.pi(self.me).next_token;
        s.pi_mut(self.me).next_token += 1;
        let mut timer_armed = false;
        loop {
            if let Some(pos) = s
                .pi(self.me)
                .mailbox
                .iter()
                .position(|p| p.class != DeliveryClass::OneSided && want(p))
            {
                let pkt = s.pi_mut(self.me).mailbox.remove(pos).unwrap();
                shrink_if_drained(&mut s.pi_mut(self.me).mailbox);
                return Some(pkt);
            }
            if !timer_armed {
                s.push_event(
                    deadline,
                    Event::Timer {
                        dst: self.me,
                        token,
                    },
                );
                timer_armed = true;
            }
            s.pi_mut(self.me).timed_out = false;
            s.pi_mut(self.me).phase = Phase::WaitRecv {
                deadline: Some(token),
            };
            self.shared.yield_and_wait(self.me, &mut s);
            if s.pi(self.me).timed_out {
                return None;
            }
        }
    }

    /// Receive any packet with a timeout.
    pub fn recv_timeout(&self, d: SimDuration) -> Option<Packet> {
        self.recv_filter_timeout(d, |_| true)
    }

    /// Number of packets currently queued in this process's mailbox.
    pub fn mailbox_len(&self) -> usize {
        self.shared.lock().pi(self.me).mailbox.len()
    }

    /// Take the earliest one-sided write from `src` with tag `tag` out of
    /// this process's preposted buffer, if one has landed. Non-blocking: a
    /// one-sided write involves no remote CPU, so there is no wake to wait
    /// for — callers know data is present from protocol ordering (a
    /// same-link control message sent after the write arrives after it).
    pub fn poll_one_sided(&self, src: ProcId, tag: u64) -> Option<Packet> {
        let mut s = self.shared.lock();
        let pos = s
            .pi(self.me)
            .mailbox
            .iter()
            .position(|p| p.class == DeliveryClass::OneSided && p.src == src && p.tag == tag)?;
        let pkt = s.pi_mut(self.me).mailbox.remove(pos).unwrap();
        shrink_if_drained(&mut s.pi_mut(self.me).mailbox);
        Some(pkt)
    }

    /// Remove every queued packet matching `unwanted`, returning how many
    /// were discarded. Used to drop stale duplicate replies after a
    /// retransmitted request was answered twice.
    pub fn purge_filter(&self, unwanted: impl Fn(&Packet) -> bool) -> usize {
        let mut s = self.shared.lock();
        let mb = &mut s.pi_mut(self.me).mailbox;
        let before = mb.len();
        mb.retain(|p| !unwanted(p));
        let purged = before - mb.len();
        shrink_if_drained(mb);
        purged
    }

    /// The causal profiler installed on this run, if any. Upper layers
    /// (the DSM runtime) use it to annotate the timeline with protocol
    /// operations; `None` means critical-path recording is off.
    pub fn causal_profiler(&self) -> Option<std::sync::Arc<vopp_trace::CausalProfiler>> {
        self.shared.lock().profiler.clone()
    }

    /// Whether an enabled tracer is installed. Layers that need to compute
    /// anything to build an event should gate on this first.
    #[inline]
    pub fn tracing(&self) -> bool {
        matches!(&self.shared.tracer, Some(t) if t.is_enabled())
    }

    /// Record a trace event at this process's current virtual time.
    /// A no-op (one pointer test) when no tracer is installed.
    pub fn trace(&self, kind: vopp_trace::EventKind) {
        if let Some(tr) = &self.shared.tracer {
            if tr.is_enabled() {
                let now = self.shared.lock().pi(self.me).clock;
                tr.record(now.0, self.me, kind);
            }
        }
    }
}

/// The kernel interface available to a service handler.
///
/// Handlers run logically instantaneously at the packet arrival time; any
/// processing cost should be modelled in the network configuration's
/// service overhead.
pub struct SvcCtx<'a> {
    shared: &'a Shared,
    me: ProcId,
    now: SimTime,
}

impl<'a> SvcCtx<'a> {
    pub(crate) fn new(shared: &'a Shared, me: ProcId, now: SimTime) -> SvcCtx<'a> {
        SvcCtx { shared, me, now }
    }

    /// The process this handler serves.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Number of processes in the simulation.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.shared.nprocs
    }

    /// Arrival time of the packet being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send a datagram from this process at the current handler time.
    pub fn send(
        &mut self,
        dst: ProcId,
        wire_bytes: usize,
        class: DeliveryClass,
        tag: u64,
        payload: Payload,
    ) {
        let mut s = self.shared.lock();
        let mut pkt = Packet::new(self.me, wire_bytes, class, tag, payload);
        if let Some(p) = &s.profiler {
            pkt.cause = p.cur_ctx();
        }
        s.submit_send(self.now, dst, pkt);
    }

    /// Take the earliest one-sided write from `src` with tag `tag` out of
    /// this process's preposted buffer, if one has landed. The handler-side
    /// twin of [`AppCtx::poll_one_sided`]: a service handler for a control
    /// message sent *after* a same-link one-sided write finds the write
    /// already present (FIFO link ordering).
    pub fn take_one_sided(&mut self, src: ProcId, tag: u64) -> Option<Packet> {
        let mut s = self.shared.lock();
        let pos = s
            .pi(self.me)
            .mailbox
            .iter()
            .position(|p| p.class == DeliveryClass::OneSided && p.src == src && p.tag == tag)?;
        s.pi_mut(self.me).mailbox.remove(pos)
    }

    /// Record a trace event at the handled packet's arrival time.
    /// A no-op (one pointer test) when no tracer is installed.
    pub fn trace(&self, kind: vopp_trace::EventKind) {
        if let Some(tr) = &self.shared.tracer {
            tr.record(self.now.0, self.me, kind);
        }
    }
}
