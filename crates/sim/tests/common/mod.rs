//! Failure paths at the end of a long chain of direct handoffs. Every
//! process of a token ring blocks in `recv` while one hop after
//! another wakes the next thread; a fault mid-chain (or a deadlock once the
//! chain ends) must end the run in its diagnosed panic. A watchdog turns a
//! hang into a test failure instead of a stuck suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use vopp_sim::{DeliveryClass, PerfectNet, Sim, SimDuration};

/// Laps of the token around the ring.
const LAPS: u32 = 3;

/// How long a run may take to reach its panic before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(60);

/// What interrupts the ring.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// The process receiving the middle hop panics.
    ProcPanic,
    /// The middle hop is sent as a service packet whose handler panics.
    SvcPanic,
    /// The ring completes, then every process waits for one more message.
    Deadlock,
}

impl Fault {
    /// The panic message the run must end with.
    pub fn expected(self) -> &'static str {
        match self {
            Fault::ProcPanic => "proc body boom",
            Fault::SvcPanic => "svc handler boom",
            Fault::Deadlock => "simulation deadlocked",
        }
    }
}

/// Run an `n`-process token ring with `fault` injected, and assert it ends in the fault's diagnosed panic within the
/// watchdog limit.
pub fn ring_ends_in_diagnosed_panic(n: usize, fault: Fault) {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(|| ring(n, fault)));
        let _ = tx.send(r.err().map(|e| panic_message(&*e)));
    });
    // A hung run cannot be joined; its thread is left behind and the test
    // fails instead.
    let Ok(outcome) = rx.recv_timeout(WATCHDOG) else {
        panic!("{n} procs, {fault:?}: run hung for {WATCHDOG:?}");
    };
    run.join().expect("the run's panic was caught");
    match outcome {
        Some(msg) => assert!(
            msg.contains(fault.expected()),
            "{n} procs, {fault:?}: wrong panic: {msg}"
        ),
        None => panic!("{n} procs, {fault:?}: run did not panic"),
    }
}

fn ring(n: usize, fault: Fault) {
    let mut sim = Sim::new(n, Box::new(PerfectNet::new(SimDuration::from_micros(20))));
    for p in 0..n {
        sim.set_handler(p, Box::new(|_, _| panic!("svc handler boom")));
    }
    // Proc 0 seeds hop 1; hop `h` is received by proc `h % n`, so each
    // process receives exactly `LAPS` hops and proc 0 receives the last.
    let last = LAPS * n as u32;
    let mid = last / 2;
    sim.run(move |ctx| {
        let next = (ctx.me() + 1) % n;
        if ctx.me() == 0 {
            ctx.send(next, 8, DeliveryClass::App, 0, Arc::new(1u32));
        }
        for _ in 0..LAPS {
            let h = ctx.recv().expect::<u32>();
            match fault {
                Fault::ProcPanic if h == mid => panic!("proc body boom"),
                Fault::SvcPanic if h == mid => {
                    ctx.send(next, 8, DeliveryClass::Svc, 0, Arc::new(()));
                }
                _ if h < last => ctx.send(next, 8, DeliveryClass::App, 0, Arc::new(h + 1)),
                _ => {}
            }
        }
        if let Fault::Deadlock = fault {
            let _ = ctx.recv();
        }
    });
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}
