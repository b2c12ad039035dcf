//! End-to-end tests of the simulation kernel: scheduling order, virtual
//! time accounting, message delivery, timeouts, handlers, determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vopp_sim::{
    run_simple, set_sim_workers_default, DeliveryClass, PerfectNet, Sim, SimDuration, SimTime,
};

mod common;
use common::{ring_ends_in_diagnosed_panic, Fault};

const LAT: SimDuration = SimDuration(50_000); // 50us

#[test]
fn compute_advances_virtual_clock() {
    let out = run_simple(1, LAT, |ctx| {
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.compute(SimDuration::from_micros(100));
        assert_eq!(ctx.now(), SimTime(100_000));
        ctx.compute(SimDuration::from_micros(1));
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime(101_000));
    assert_eq!(out.end_time, SimTime(101_000));
}

#[test]
fn zero_compute_is_noop() {
    let out = run_simple(1, LAT, |ctx| {
        ctx.compute(SimDuration::ZERO);
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime::ZERO);
}

#[test]
fn message_roundtrip_with_latency() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 64, DeliveryClass::App, 1, Arc::new(7u64));
            let pkt = ctx.recv();
            assert_eq!(pkt.src, 1);
            pkt.expect::<u64>()
        } else {
            let pkt = ctx.recv();
            // One-way latency.
            assert_eq!(pkt.arrived, SimTime(50_000));
            let v = pkt.expect::<u64>();
            ctx.send(0, 64, DeliveryClass::App, 2, Arc::new(v * 2));
            v
        }
    });
    assert_eq!(out.results, vec![14, 7]);
    // Round trip = 2x latency.
    assert_eq!(out.proc_end[0], SimTime(100_000));
}

#[test]
fn recv_while_sender_computes() {
    // Receiver blocks first; sender computes, then sends.
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.compute(SimDuration::from_millis(3));
            ctx.send(1, 10, DeliveryClass::App, 0, Arc::new(()));
            ctx.now()
        } else {
            let pkt = ctx.recv();
            assert_eq!(pkt.arrived, SimTime(3_050_000));
            ctx.now()
        }
    });
    assert_eq!(out.results[1], SimTime(3_050_000));
}

#[test]
fn messages_delivered_in_order_per_link() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            for i in 0..10u32 {
                ctx.send(1, 16, DeliveryClass::App, i as u64, Arc::new(i));
            }
            0
        } else {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(ctx.recv().expect::<u32>());
            }
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            1
        }
    });
    assert_eq!(out.results, vec![0, 1]);
}

#[test]
fn recv_filter_skips_non_matching() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::App, 5, Arc::new(5u32));
            ctx.send(1, 8, DeliveryClass::App, 9, Arc::new(9u32));
            0
        } else {
            // Ask for tag 9 first even though tag 5 arrives first.
            let nine = ctx.recv_filter(|p| p.tag == 9).expect::<u32>();
            let five = ctx.recv().expect::<u32>();
            assert_eq!((nine, five), (9, 5));
            1
        }
    });
    assert_eq!(out.results, vec![0, 1]);
}

#[test]
fn recv_timeout_expires() {
    let out = run_simple(1, LAT, |ctx| {
        let r = ctx.recv_timeout(SimDuration::from_millis(2));
        assert!(r.is_none());
        ctx.now()
    });
    assert_eq!(out.results[0], SimTime(2_000_000));
}

#[test]
fn recv_timeout_beaten_by_message() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(1u8));
            true
        } else {
            let r = ctx.recv_timeout(SimDuration::from_secs(100));
            assert_eq!(ctx.now(), SimTime(50_000));
            r.is_some()
        }
    });
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn stale_timer_does_not_fire_later_wait() {
    // First wait is satisfied by a message well before its long timeout;
    // the stale timer must not break a later recv.
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(1u8));
            ctx.compute(SimDuration::from_secs(2));
            ctx.send(1, 8, DeliveryClass::App, 0, Arc::new(2u8));
            0u8
        } else {
            let a = ctx
                .recv_timeout(SimDuration::from_secs(1))
                .expect("first message")
                .expect::<u8>();
            let b = ctx.recv().expect::<u8>();
            a + b
        }
    });
    assert_eq!(out.results[1], 3);
}

#[test]
fn self_send_works() {
    let out = run_simple(1, LAT, |ctx| {
        ctx.send(0, 8, DeliveryClass::App, 0, Arc::new(99u32));
        ctx.recv().expect::<u32>()
    });
    assert_eq!(out.results[0], 99);
}

#[test]
fn svc_handler_runs_during_compute() {
    // Proc 1 computes for 10ms. Proc 0 sends a Svc request at ~0; the handler
    // must run at arrival (50us), not when proc 1 finishes computing.
    let handled_at = Arc::new(AtomicU64::new(0));
    let ha = handled_at.clone();
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    sim.set_handler(
        1,
        Box::new(move |svc, pkt| {
            ha.store(svc.now().nanos(), Ordering::SeqCst);
            let v = pkt.expect::<u32>();
            svc.send(pkt_src(), 8, DeliveryClass::App, 0, Arc::new(v + 1));
            fn pkt_src() -> usize {
                0
            }
        }),
    );
    let out = sim.run(|ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::Svc, 0, Arc::new(41u32));
            ctx.recv().expect::<u32>()
        } else {
            ctx.compute(SimDuration::from_millis(10));
            0
        }
    });
    assert_eq!(out.results[0], 42);
    assert_eq!(handled_at.load(Ordering::SeqCst), 50_000);
    // Proc 0 got the reply at 100us, long before proc 1 finished at 10ms.
    assert_eq!(out.proc_end[0], SimTime(100_000));
    assert_eq!(out.proc_end[1], SimTime(10_000_000));
}

#[test]
fn handler_state_shared_with_app_thread() {
    // A counter service: Svc requests increment shared state; the app thread
    // on the same node reads it after a sync message.
    let state = Arc::new(Mutex::new(0u32));
    let st = state.clone();
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    sim.set_handler(
        0,
        Box::new(move |svc, pkt| {
            let mut g = st.lock().unwrap();
            *g += pkt.expect::<u32>();
            let v = *g;
            drop(g);
            svc.send(1, 8, DeliveryClass::App, 0, Arc::new(v));
        }),
    );
    let state2 = state.clone();
    let out = sim.run(move |ctx| {
        if ctx.me() == 1 {
            let mut last = 0;
            for _ in 0..5 {
                ctx.send(0, 8, DeliveryClass::Svc, 0, Arc::new(10u32));
                last = ctx.recv().expect::<u32>();
            }
            last
        } else {
            // Node 0's app thread just idles past the handler activity.
            ctx.compute(SimDuration::from_secs(1));
            *state2.lock().unwrap()
        }
    });
    assert_eq!(out.results, vec![50, 50]);
}

#[test]
fn deterministic_timestamps_across_runs() {
    let run = || {
        run_simple(4, LAT, |ctx| {
            let me = ctx.me();
            let n = ctx.nprocs();
            // All-to-all chatter with staggered compute.
            ctx.compute(SimDuration::from_micros(me as u64 * 13 + 1));
            for d in 0..n {
                if d != me {
                    ctx.send(d, 100 + me, DeliveryClass::App, me as u64, Arc::new(me));
                }
            }
            let mut sum = 0usize;
            for _ in 0..n - 1 {
                sum += ctx.recv().expect::<usize>();
            }
            (sum, ctx.now())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.proc_end, b.proc_end);
}

#[test]
fn net_stats_exposed_after_run() {
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 1000, DeliveryClass::App, 0, Arc::new(()));
        } else {
            ctx.recv();
        }
    });
    assert_eq!(out.net.sent_count(), 1);
    assert_eq!(out.net.sent_bytes(), 1000);
}

#[test]
#[should_panic(expected = "deadlocked")]
fn deadlock_detected() {
    run_simple(2, LAT, |ctx| {
        // Both procs wait forever.
        ctx.recv();
    });
}

#[test]
#[should_panic(expected = "handler boom")]
fn handler_panic_propagates_without_hanging() {
    let mut sim = Sim::new(2, Box::new(PerfectNet::new(LAT)));
    sim.set_handler(1, Box::new(|_, _| panic!("handler boom")));
    sim.run(|ctx| {
        if ctx.me() == 0 {
            ctx.send(1, 8, DeliveryClass::Svc, 0, Arc::new(()));
            ctx.recv(); // would wait forever; the panic must end the run
        } else {
            ctx.recv();
        }
    });
}

#[test]
#[should_panic(expected = "boom")]
fn process_panic_propagates() {
    run_simple(2, LAT, |ctx| {
        if ctx.me() == 1 {
            panic!("boom");
        }
        ctx.recv();
    });
}

#[test]
fn many_procs_ring() {
    // Token ring across 32 procs, 3 laps.
    let n = 32usize;
    let last_hop = (3 * n) as u32;
    let out = run_simple(n, LAT, move |ctx| {
        let me = ctx.me();
        let next = (me + 1) % ctx.nprocs();
        let mut seen = 0u32;
        if me == 0 {
            // Seed hop 1 towards proc 1.
            ctx.send(next, 8, DeliveryClass::App, 0, Arc::new(1u32));
        }
        for _ in 0..3 {
            let h = ctx.recv().expect::<u32>();
            seen = h;
            if h < last_hop {
                ctx.send(next, 8, DeliveryClass::App, 0, Arc::new(h + 1));
            }
        }
        seen
    });
    // Proc 0's final receive is hop 3n, completing the third lap.
    assert_eq!(out.results[0], last_hop);
    // 3 laps * 32 hops * 50us each.
    assert_eq!(out.end_time, SimTime(3 * 32 * 50_000));
}

#[test]
fn proc_times_classify_every_nanosecond() {
    // Proc 0 computes then waits for a late message; proc 1 only computes
    // before sending. For both, compute + blocked must equal the final clock.
    let out = run_simple(2, LAT, |ctx| {
        if ctx.me() == 0 {
            ctx.compute(SimDuration::from_micros(100));
            ctx.recv().expect::<u8>()
        } else {
            ctx.compute(SimDuration::from_millis(2));
            ctx.send(0, 16, DeliveryClass::App, 0, Arc::new(9u8));
            0
        }
    });
    for (p, (end, pt)) in out.proc_end.iter().zip(out.proc_times.iter()).enumerate() {
        assert_eq!(
            pt.compute_ns + pt.blocked_ns,
            end.0,
            "proc {p}: kernel time classification must cover the clock"
        );
    }
    // Proc 0: 100us compute, then blocked from 100us until arrival at 2ms+50us.
    assert_eq!(out.proc_times[0].compute_ns, 100_000);
    assert_eq!(out.proc_times[0].blocked_ns, 2_050_000 - 100_000);
    // Proc 1 never blocks.
    assert_eq!(out.proc_times[1].compute_ns, 2_000_000);
    assert_eq!(out.proc_times[1].blocked_ns, 0);
}

#[test]
fn long_chain_proc_panic_ends_sequential() {
    for n in [64, 128] {
        ring_ends_in_diagnosed_panic(n, Fault::ProcPanic);
    }
}

#[test]
fn long_chain_svc_panic_ends_sequential() {
    for n in [64, 128] {
        ring_ends_in_diagnosed_panic(n, Fault::SvcPanic);
    }
}

#[test]
fn long_chain_deadlock_ends_sequential() {
    for n in [64, 128] {
        ring_ends_in_diagnosed_panic(n, Fault::Deadlock);
    }
}

#[test]
fn sequential_worker_widths_are_accepted() {
    set_sim_workers_default(0);
    set_sim_workers_default(1);
}

#[test]
#[should_panic(expected = "the parallel kernel was removed")]
fn parallel_worker_width_is_rejected() {
    set_sim_workers_default(4);
}
