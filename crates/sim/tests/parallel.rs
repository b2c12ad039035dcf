//! The conservative-lookahead parallel kernel must be *invisible*: every
//! artifact — results, clocks, time classification, network statistics,
//! trace stream, causal log — byte-identical at any worker count, including
//! with direct handoff disabled. Plus fallback and failure-path parity.

use std::sync::Arc;

use vopp_sim::{
    CausalProfiler, DeliveryClass, NetModel, PerfectNet, RouteRequest, Sim, SimDuration, SimTime,
    Tracer, MIN_PARALLEL_LOOKAHEAD,
};

mod common;
use common::{ring_ends_in_diagnosed_panic, Fault};

/// A deterministic model whose delivery times depend on *route call order*
/// (`sent` feeds a jitter term) and on the destination's delivery backlog —
/// so the identity assertions below also prove the commit replays sends in
/// exactly the sequential order with exactly the sequential backlog counts.
/// Loopback (5 us) is far below the lookahead (50 us), exercising in-window
/// self-deliveries.
struct JitterNet {
    sent: u64,
    bytes: u64,
}

impl NetModel for JitterNet {
    fn route(&mut self, req: RouteRequest) -> Option<SimTime> {
        if req.src == req.dst {
            return Some(req.now + SimDuration::from_micros(5));
        }
        self.sent += 1;
        self.bytes += req.wire_bytes as u64;
        let jitter = (self.sent * 1_771 + req.pending_bytes_at_dst as u64 * 13) % 7_000;
        Some(req.now + SimDuration::from_micros(50) + SimDuration::from_nanos(jitter))
    }

    fn lookahead(&self) -> Option<SimDuration> {
        Some(SimDuration::from_micros(50))
    }

    fn loopback_latency(&self) -> Option<SimDuration> {
        Some(SimDuration::from_micros(5))
    }

    fn sent_count(&self) -> u64 {
        self.sent
    }

    fn sent_bytes(&self) -> u64 {
        self.bytes
    }
}

const N: usize = 8;
const ITERS: u64 = 40;

/// Request/reply over service handlers with loopback self-sends, futile
/// timeouts (live + stale timers), and order-sensitive network timing.
fn build(workers: usize, direct_handoff: bool) -> Sim {
    let mut sim = Sim::new(N, Box::new(JitterNet { sent: 0, bytes: 0 }));
    sim.set_workers(workers);
    sim.set_direct_handoff(direct_handoff);
    for p in 0..N {
        sim.set_handler(
            p,
            Box::new(|ctx, pkt| {
                let (_, i): (usize, u64) = pkt.peek::<(usize, u64)>().copied().unwrap();
                ctx.send(
                    pkt.src,
                    128,
                    DeliveryClass::App,
                    500_000 + i,
                    Arc::new(i * 2),
                );
            }),
        );
    }
    sim
}

fn workload(ctx: vopp_sim::AppCtx<'_>) -> u64 {
    let p = ctx.me();
    let mut sum = 0u64;
    for i in 0..ITERS {
        ctx.compute(SimDuration::from_nanos(
            (p as u64 * 7_919 + i * 104_729) % 50_000,
        ));
        if i % 4 == 0 {
            // Loopback: delivered 5 us out, usually inside the same window.
            ctx.send(p, 64, DeliveryClass::App, 1_000_000 + i, Arc::new(i));
        }
        let dst = (p + 1 + (i as usize % 5)) % N;
        ctx.send(
            dst,
            256 + i as usize * 3,
            DeliveryClass::Svc,
            i,
            Arc::new((p, i)),
        );
        if i % 7 == 0 {
            // Futile wait: the timer always wins (and earlier armed timers
            // go stale), covering timer events in both kernels.
            assert!(ctx
                .recv_filter_timeout(SimDuration::from_micros(5), |pk| pk.tag == u64::MAX)
                .is_none());
        }
        let reply = ctx
            .recv_filter_timeout(SimDuration::from_secs(1), |pk| {
                pk.tag == 500_000 + i && pk.src == dst
            })
            .expect("svc reply");
        sum = sum
            .wrapping_mul(31)
            .wrapping_add(reply.arrived.nanos() ^ reply.expect::<u64>());
        if i % 4 == 0 {
            let lb = ctx.recv_filter(|pk| pk.tag == 1_000_000 + i);
            sum = sum.wrapping_mul(31).wrapping_add(lb.arrived.nanos());
        }
    }
    sum
}

/// Everything the parallel kernel must reproduce bit-for-bit.
struct Artifacts {
    results: Vec<u64>,
    end_time: SimTime,
    proc_end: Vec<SimTime>,
    proc_times: String,
    net_sent: u64,
    net_bytes: u64,
    trace_json: String,
    causal: String,
    wakeups: u64,
}

fn run(workers: usize, direct_handoff: bool) -> (Artifacts, vopp_sim::WindowStats, usize) {
    let mut sim = build(workers, direct_handoff);
    let tracer = Arc::new(Tracer::new(1 << 20));
    let profiler = Arc::new(CausalProfiler::new(N));
    sim.set_tracer(tracer.clone());
    sim.set_profiler(profiler.clone());
    let out = sim.run(workload);
    let log = profiler.take();
    (
        Artifacts {
            results: out.results,
            end_time: out.end_time,
            proc_end: out.proc_end,
            proc_times: format!("{:?}", out.proc_times),
            net_sent: out.net.sent_count(),
            net_bytes: out.net.sent_bytes(),
            trace_json: tracer.take().to_json(),
            causal: format!("{:?}|{:?}|{:?}", log.records, log.last_wake, log.spans),
            wakeups: out.handoff.total(),
        },
        out.windows,
        out.sim_workers,
    )
}

#[test]
fn artifacts_identical_at_any_worker_count() {
    let (base, base_win, base_groups) = run(1, true);
    assert_eq!(base_win.windows, 0, "sequential runs carve no windows");
    assert_eq!(base_groups, 1);
    assert!(!base.trace_json.is_empty());
    for (workers, handoff) in [(2, true), (4, true), (8, true), (4, false)] {
        let (par, win, groups) = run(workers, handoff);
        assert_eq!(groups, workers);
        assert!(
            win.parallel_windows > 0,
            "expected deferred windows at {workers} workers"
        );
        assert_eq!(par.results, base.results, "results @ {workers}w");
        assert_eq!(par.end_time, base.end_time, "end_time @ {workers}w");
        assert_eq!(par.proc_end, base.proc_end, "proc_end @ {workers}w");
        assert_eq!(par.proc_times, base.proc_times, "proc_times @ {workers}w");
        assert_eq!(par.net_sent, base.net_sent, "net msgs @ {workers}w");
        assert_eq!(par.net_bytes, base.net_bytes, "net bytes @ {workers}w");
        assert_eq!(par.trace_json, base.trace_json, "trace @ {workers}w");
        assert_eq!(par.causal, base.causal, "causal log @ {workers}w");
        // Same schedule => same number of wake-ups, however they were routed.
        assert_eq!(par.wakeups, base.wakeups, "wakeups @ {workers}w");
    }
}

/// Spin/park boundary stress: each round, every process joins a dense
/// all-to-all burst, then process 0 ping-pongs loopback messages alone while
/// the rest sleep through many windows. The dispatch doorbells swing from
/// steady-state re-arming (burst) to parked runners (lone-group stretch) and
/// back every round, and windows cover all three shapes — fully parallel,
/// partially idle groups, and single-active-group inline. Artifacts must
/// stay byte-identical through every transition.
#[test]
fn spin_park_boundary_stress_is_byte_identical() {
    fn run_bursty(workers: usize) -> (Vec<u64>, String, vopp_sim::WindowStats) {
        let mut sim = Sim::new(N, Box::new(JitterNet { sent: 0, bytes: 0 }));
        sim.set_workers(workers);
        for p in 0..N {
            sim.set_handler(
                p,
                Box::new(|ctx, pkt| {
                    let k: u64 = *pkt.peek().unwrap();
                    ctx.send(pkt.src, 64, DeliveryClass::App, 900_000 + k, Arc::new(k));
                }),
            );
        }
        let tracer = Arc::new(Tracer::new(1 << 20));
        sim.set_tracer(tracer.clone());
        let out = sim.run(|ctx| {
            let p = ctx.me();
            let mut sum = 0u64;
            for round in 0..12u64 {
                // Dense phase: all processes exchange request/replies at
                // once, so every group is active in the same windows.
                for i in 0..6u64 {
                    let k = round * 100 + i;
                    let dst = (p + 1 + (round as usize % (N - 1))) % N;
                    ctx.send(dst, 96, DeliveryClass::Svc, k, Arc::new(k));
                    let reply = ctx
                        .recv_filter_timeout(SimDuration::from_secs(1), |pk| {
                            pk.tag == 900_000 + k && pk.src == dst
                        })
                        .expect("burst reply");
                    sum = sum.wrapping_mul(31).wrapping_add(reply.arrived.nanos());
                }
                // Lone-group phase: process 0 ping-pongs loopback messages
                // (5 us each, well under the 50 us lookahead) while everyone
                // else sleeps through the stretch — its group's windows run
                // inline and the parked runners must re-wake cleanly for the
                // next burst.
                if p == 0 {
                    for i in 0..8u64 {
                        let k = round * 100 + 50 + i;
                        ctx.send(p, 32, DeliveryClass::App, 2_000_000 + k, Arc::new(k));
                        let lb = ctx.recv_filter(|pk| pk.tag == 2_000_000 + k);
                        sum = sum.wrapping_mul(31).wrapping_add(lb.arrived.nanos());
                    }
                } else {
                    ctx.compute(SimDuration::from_millis(1));
                }
            }
            sum
        });
        (out.results, tracer.take().to_json(), out.windows)
    }

    let (seq, seq_trace, seq_win) = run_bursty(1);
    assert_eq!(seq_win.windows, 0, "sequential runs carve no windows");
    let (par, par_trace, par_win) = run_bursty(4);
    assert!(
        par_win.parallel_windows > 0,
        "stress never ran a multi-group window"
    );
    assert!(
        par_win.inline_windows > 0,
        "stress never took the single-active-group inline path"
    );
    assert!(
        par_win.spin_hits + par_win.park_wakes > 0,
        "multi-group windows dispatched without touching a doorbell"
    );
    assert_eq!(seq, par, "results differ under bursty dispatch");
    assert_eq!(seq_trace, par_trace, "traces differ under bursty dispatch");
}

#[test]
fn falls_back_without_a_lookahead_bound() {
    struct Opaque;
    impl NetModel for Opaque {
        fn route(&mut self, req: RouteRequest) -> Option<SimTime> {
            Some(req.now + SimDuration::from_micros(10))
        }
    }
    let mut sim = Sim::new(4, Box::new(Opaque));
    sim.set_workers(4);
    let out = sim.run(|ctx| {
        ctx.compute(SimDuration::from_micros(3));
        ctx.me()
    });
    assert_eq!(out.sim_workers, 1, "no lookahead => sequential");
    assert_eq!(out.windows.windows, 0);
    assert_eq!(out.windows.fallback_runs, 1);
    assert_eq!(out.results, vec![0, 1, 2, 3]);
}

#[test]
fn falls_back_below_the_lookahead_floor() {
    // The 1 ns zero-latency what-if: a legal model, but windows would be
    // empty; the kernel must run it sequentially.
    assert!(SimDuration::from_nanos(1) < MIN_PARALLEL_LOOKAHEAD);
    let mut sim = Sim::new(4, Box::new(PerfectNet::new(SimDuration::from_nanos(1))));
    sim.set_workers(4);
    let out = sim.run(|ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 10, DeliveryClass::App, 0, Arc::new(7u32));
            0
        } else if ctx.me() == 1 {
            ctx.recv().expect::<u32>()
        } else {
            9
        }
    });
    assert_eq!(out.sim_workers, 1);
    assert_eq!(out.windows.fallback_runs, 1);
    assert_eq!(out.results, vec![0, 7, 9, 9]);
}

#[test]
#[should_panic(expected = "simulation deadlocked")]
fn deadlock_detected_under_parallel_kernel() {
    let mut sim = Sim::new(4, Box::new(PerfectNet::new(SimDuration::from_micros(20))));
    sim.set_workers(4);
    let _ = sim.run(|ctx| {
        let _ = ctx.recv();
    });
}

#[test]
#[should_panic(expected = "proc body boom")]
fn process_panic_propagates_from_a_window() {
    let mut sim = Sim::new(8, Box::new(PerfectNet::new(SimDuration::from_micros(20))));
    sim.set_workers(4);
    let _ = sim.run(|ctx| {
        ctx.compute(SimDuration::from_micros(5));
        if ctx.me() == 3 {
            panic!("proc body boom");
        }
        // Everyone else blocks; the shutdown must release them.
        let _ = ctx.recv();
    });
}

#[test]
#[should_panic(expected = "svc handler boom")]
fn svc_handler_panic_propagates_from_a_window() {
    let mut sim = Sim::new(8, Box::new(PerfectNet::new(SimDuration::from_micros(20))));
    sim.set_workers(4);
    for p in 0..8 {
        sim.set_handler(p, Box::new(|_, _| panic!("svc handler boom")));
    }
    let _ = sim.run(|ctx| {
        if ctx.me() == 0 {
            ctx.send(5, 100, DeliveryClass::Svc, 0, Arc::new(()));
        }
        let _ = ctx.recv_timeout(SimDuration::from_millis(1));
    });
}

#[test]
fn long_chain_proc_panic_ends_two_workers() {
    for n in [64, 128] {
        ring_ends_in_diagnosed_panic(n, 2, Fault::ProcPanic);
    }
}

#[test]
fn long_chain_svc_panic_ends_two_workers() {
    for n in [64, 128] {
        ring_ends_in_diagnosed_panic(n, 2, Fault::SvcPanic);
    }
}

#[test]
fn long_chain_deadlock_ends_two_workers() {
    for n in [64, 128] {
        ring_ends_in_diagnosed_panic(n, 2, Fault::Deadlock);
    }
}
