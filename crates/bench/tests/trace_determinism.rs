//! Determinism guard: the simulator is seeded and virtual-time ordered, so
//! two identical runs must record byte-identical traces. Any divergence
//! means wall-clock state leaked into the simulation.
//!
//! Beyond the traced paper table, the guard covers a lock/view workload on
//! every protocol and the serve cells that run on timers (retransmits under
//! loss, crash downtime and idle waits until each request's arrival):
//! everything those cells report must match too.

use std::path::Path;
use std::sync::Arc;

use vopp_bench::{sweep_table, Scale};
use vopp_core::prelude::*;
use vopp_core::{FaultPlan, VoppExt};
use vopp_metrics::Histogram;
use vopp_serve::{build_schedule, run_serve, serve_reference, ServeParams, ServeVariant};
use vopp_sim::{SimDuration, SimTime};
use vopp_trace::Tracer;

fn run_table1_traced(dir: &Path) {
    let scale = Scale {
        quick: true,
        trace_dir: Some(dir.to_path_buf()),
        ..Scale::default()
    };
    let t = sweep_table("table1", &scale);
    assert!(t.title.starts_with("Table 1"));
}

#[test]
fn same_seed_table1_traces_are_byte_identical() {
    let base = std::env::temp_dir().join(format!("vopp-trace-det-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    run_table1_traced(&a);
    run_table1_traced(&b);

    let mut compared = 0;
    for entry in std::fs::read_dir(&a).expect("first run produced no trace dir") {
        let name = entry.unwrap().file_name();
        let lhs = std::fs::read(a.join(&name)).unwrap();
        let rhs = std::fs::read(b.join(&name))
            .unwrap_or_else(|e| panic!("second run missing {}: {e}", name.to_string_lossy()));
        assert_eq!(
            lhs,
            rhs,
            "trace artifact {} differs between identical runs",
            name.to_string_lossy()
        );
        compared += 1;
    }
    // Table 1 is three runs x three artifacts.
    assert_eq!(compared, 9, "expected 9 artifacts to compare");
    std::fs::remove_dir_all(&base).ok();
}

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
fn same_seed_protocol_workload_traces_are_byte_identical() {
    for proto in [
        Protocol::LrcD,
        Protocol::VcD,
        Protocol::VcSd,
        Protocol::VcRdma,
        Protocol::Hlrc,
        Protocol::ScC,
    ] {
        assert!(
            traced_trace(proto) == traced_trace(proto),
            "{proto}: trace differs between identical runs"
        );
    }
}

#[test]
fn same_seed_serve_fault_cells_are_identical() {
    for (cell, proto, variant, faults) in serve_cells() {
        let a = serve_cell(proto, variant, faults.clone());
        let b = serve_cell(proto, variant, faults);
        assert_eq!(a.stats, b.stats, "serve {cell}: RunStats differ");
        assert_eq!(a.latency, b.latency, "serve {cell}: latency differs");
        assert_eq!(a.get_digest, b.get_digest, "serve {cell}: GET digest");
        assert_eq!(a.checksum, b.checksum, "serve {cell}: final store");
        assert!(a.trace == b.trace, "serve {cell}: trace differs");
    }
}
