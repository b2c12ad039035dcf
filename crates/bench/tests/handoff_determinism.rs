//! Direct thread handoff is a wall-clock optimization only: with the
//! fast path enabled or disabled, every protocol must produce the exact
//! same event stream — same events, same virtual timestamps, same global
//! order. This is the strongest determinism statement the simulator can
//! make, because the trace records every scheduling-visible action
//! (process starts, network sends/receives, protocol operations) in the
//! order they were committed.
//!
//! The serve cells extend the statement to the paths that run on timers
//! (retransmits under loss, crash downtime and idle waits until each
//! request's arrival): everything the cell reports must match too.
//!
//! This file holds a single `#[test]` on purpose: it flips the
//! process-wide handoff default, so it must not share a process with
//! other tests (each integration-test file is its own binary).

use std::sync::Arc;

use vopp_core::prelude::*;
use vopp_core::{FaultPlan, VoppExt};
use vopp_metrics::Histogram;
use vopp_serve::{build_schedule, run_serve, serve_reference, ServeParams, ServeVariant};
use vopp_sim::{set_direct_handoff_default, SimDuration, SimTime};
use vopp_trace::Tracer;

const NPROCS: usize = 8;
const ROUNDS: u32 = 4;

/// Run a protocol-appropriate workload under `proto` with a tracer
/// attached; return the serialized trace. Uses the default (lossy)
/// network so timer events and retransmissions are exercised too.
fn traced_trace(proto: Protocol) -> String {
    let mut cfg = ClusterConfig::new(NPROCS, proto);
    let tracer = Arc::new(Tracer::default());
    cfg.tracer = Some(tracer.clone());
    match proto {
        // Lock + barrier workload on the traditional API.
        Protocol::LrcD | Protocol::Hlrc | Protocol::ScC => {
            let mut w = WorldBuilder::new();
            let arr = w.alloc_u32(1024);
            run_cluster(&cfg, w.build(), move |ctx| {
                for round in 0..ROUNDS {
                    ctx.lock_acquire(0);
                    arr.update(ctx, round as usize, |x| x + 1);
                    ctx.lock_release(0);
                    ctx.barrier();
                    let _ = arr.get(ctx, round as usize);
                    ctx.barrier();
                }
            });
        }
        // View bracket + barrier workload on the VOPP API.
        Protocol::VcD | Protocol::VcSd | Protocol::VcRdma => {
            let mut w = WorldBuilder::new();
            let v = w.view_u32(64);
            run_cluster(&cfg, w.build(), move |ctx| {
                for round in 0..ROUNDS {
                    ctx.with_view(&v, |r| r.update(ctx, (round as usize) % 64, |x| x + 1));
                    ctx.barrier();
                    let first = ctx.with_rview(&v, |r| r.get(ctx, (round as usize) % 64));
                    assert!(first > 0);
                    ctx.barrier();
                }
            });
        }
    }
    let trace = tracer.take();
    assert_eq!(trace.evicted, 0, "{proto}: ring must not wrap at this size");
    assert!(!trace.events.is_empty(), "{proto}: empty trace");
    trace.to_json()
}

/// What one serve cell reports, plus its trace. `RunStats` has no
/// `PartialEq`; its `Debug` rendering covers every field.
struct ServeReport {
    stats: String,
    latency: Histogram,
    get_digest: u64,
    checksum: u64,
    trace: String,
}

/// A quick serve cell on 4 nodes under `faults`, traced.
fn serve_cell(proto: Protocol, variant: ServeVariant, faults: FaultPlan) -> ServeReport {
    let p = ServeParams::quick();
    let mut cfg = ClusterConfig::new(4, proto);
    cfg.faults = faults;
    let tracer = Arc::new(Tracer::default());
    cfg.tracer = Some(tracer.clone());
    let out = run_serve(&cfg, &p, variant);
    assert_eq!(out.checksum, serve_reference(&p), "{proto} {variant:?}");
    assert_eq!(out.served, p.requests as u64, "{proto} {variant:?}");
    let trace = tracer.take();
    assert_eq!(trace.evicted, 0, "{proto}: ring must not wrap at this size");
    ServeReport {
        stats: format!("{:?}", out.stats),
        latency: out.latency,
        get_digest: out.get_digest,
        checksum: out.checksum,
        trace: trace.to_json(),
    }
}

/// The serve table's loss cell (retransmit timers) and crash cell (a node
/// down for a quarter of the schedule horizon).
fn serve_cells() -> Vec<(&'static str, Protocol, ServeVariant, FaultPlan)> {
    let horizon = build_schedule(&ServeParams::quick())
        .last()
        .expect("nonempty schedule")
        .arrival;
    let crash = FaultPlan::none().with_crash(
        1,
        SimTime(horizon / 4),
        SimDuration::from_nanos(horizon / 4),
    );
    vec![
        (
            "LRC_d loss",
            Protocol::LrcD,
            ServeVariant::Traditional,
            FaultPlan::none().with_loss(0.02, 7),
        ),
        ("VC_sd crash", Protocol::VcSd, ServeVariant::Vopp, crash),
    ]
}

#[test]
fn handoff_on_and_off_produce_identical_traces() {
    for proto in [
        Protocol::LrcD,
        Protocol::VcD,
        Protocol::VcSd,
        Protocol::VcRdma,
        Protocol::Hlrc,
        Protocol::ScC,
    ] {
        set_direct_handoff_default(true);
        let on = traced_trace(proto);
        set_direct_handoff_default(false);
        let off = traced_trace(proto);
        set_direct_handoff_default(true);
        assert_eq!(on, off, "{proto}: direct handoff changed the event stream");
    }
    for (cell, proto, variant, faults) in serve_cells() {
        set_direct_handoff_default(true);
        let on = serve_cell(proto, variant, faults.clone());
        set_direct_handoff_default(false);
        let off = serve_cell(proto, variant, faults);
        set_direct_handoff_default(true);
        assert_eq!(on.stats, off.stats, "serve {cell}: RunStats differ");
        assert_eq!(on.latency, off.latency, "serve {cell}: latency differs");
        assert_eq!(on.get_digest, off.get_digest, "serve {cell}: GET digest");
        assert_eq!(on.checksum, off.checksum, "serve {cell}: final store");
        assert!(on.trace == off.trace, "serve {cell}: trace differs");
    }
}
