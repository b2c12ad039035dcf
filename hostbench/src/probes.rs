//! Per-call probes of each layer's public API, timed from outside the
//! program. Each returns host nanoseconds per counted operation, so a
//! workload's count of that operation times the probe cost estimates the
//! host time the layer took.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vopp_core::{run_cluster, ClusterConfig, Protocol, RunStats, VoppExt, WorldBuilder};
use vopp_page::{Diff, PageBuf, PAGE_WORDS};
use vopp_sim::{handoff_totals, DeliveryClass, NetModel, RouteRequest, Sim, SimTime};
use vopp_simnet::{EthernetModel, NetConfig};

/// Median of `xs` (0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median over five batches of the host ns per call of `f`, each batch
/// calling it until 10 ms have passed.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let batches = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < Duration::from_millis(10) {
                for _ in 0..32 {
                    f();
                }
                calls += 32;
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(batches)
}

/// `sim.wake_ns`: a token passed round-robin among `n` processes on the
/// bare kernel; host ns per kernel wake (direct or via the controller).
pub fn wake_ns(n: usize) -> f64 {
    let hops = 40_000 / n;
    median(
        (0..3)
            .map(|_| {
                let mut sim = Sim::new(n, Box::new(EthernetModel::new(n, NetConfig::lossless())));
                sim.set_workers(1);
                let t0 = Instant::now();
                let out = sim.run(move |ctx| {
                    let (me, n) = (ctx.me(), ctx.nprocs());
                    for _ in 0..hops {
                        if me != 0 {
                            let _ = ctx.recv();
                        }
                        ctx.send((me + 1) % n, 64, DeliveryClass::App, 0, Arc::new(0u8));
                        if me == 0 {
                            let _ = ctx.recv();
                        }
                    }
                });
                let wall = t0.elapsed().as_nanos() as f64;
                wall / out.handoff.total().max(1) as f64
            })
            .collect(),
    )
}

/// `simnet.route_ns`: host ns per `EthernetModel::route` call at `n` nodes
/// for datagrams of `wire_bytes`.
pub fn route_ns(n: usize, wire_bytes: usize) -> f64 {
    let mut model = EthernetModel::new(n, NetConfig::default());
    let mut i = 0usize;
    per_call_ns(|| {
        i += 1;
        let src = i % n;
        black_box(model.route(RouteRequest {
            now: SimTime(i as u64 * 20_000),
            src,
            dst: (src + 1 + i % (n - 1).max(1)) % n,
            wire_bytes,
            pending_bytes_at_dst: 0,
            reliable: false,
        }));
    })
}

/// One probe cluster run: host ns, operations counted, kernel wakes and
/// datagrams.
struct ProbeRun {
    wall_ns: f64,
    ops: u64,
    wakes: u64,
    msgs: u64,
}

/// A DSM probe's marginal cost per counted operation: the full host ns,
/// and the part left after taking out the kernel wakes and route calls the
/// operation made (its DSM self cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCost {
    /// Host ns per operation, everything included.
    pub total_ns: f64,
    /// Host ns per operation outside the kernel and the network model.
    pub self_ns: f64,
}

/// Median over three tries of the cost of `rounds` operations per node
/// beyond an otherwise identical run with none, so cluster start-up and
/// teardown are not charged to the operation.
fn marginal_cost(
    n: usize,
    proto: Protocol,
    rounds: usize,
    ops: fn(&RunStats) -> u64,
    body: impl Fn(&ClusterConfig, usize) -> RunStats,
    wake: f64,
    route: f64,
) -> OpCost {
    let mut cfg = ClusterConfig::new(n, proto);
    cfg.sim_workers = 1;
    let run = |rounds: usize| {
        let wakes0 = handoff_totals().total();
        let t0 = Instant::now();
        let stats = body(&cfg, rounds);
        ProbeRun {
            wall_ns: t0.elapsed().as_nanos() as f64,
            ops: ops(&stats),
            wakes: handoff_totals().total() - wakes0,
            msgs: stats.num_msgs(),
        }
    };
    let tries: Vec<(ProbeRun, ProbeRun)> = (0..3).map(|_| (run(rounds), run(0))).collect();
    let per_op = |f: &dyn Fn(&ProbeRun, &ProbeRun) -> f64| {
        median(
            tries
                .iter()
                .map(|(full, empty)| {
                    f(full, empty).max(0.0) / full.ops.saturating_sub(empty.ops).max(1) as f64
                })
                .collect(),
        )
    };
    OpCost {
        total_ns: per_op(&|full, empty| full.wall_ns - empty.wall_ns),
        self_ns: per_op(&|full, empty| {
            let wakes = full.wakes.saturating_sub(empty.wakes) as f64;
            let msgs = full.msgs.saturating_sub(empty.msgs) as f64;
            full.wall_ns - empty.wall_ns - wakes * wake - msgs * route
        }),
    }
}

/// `dsm.acquire_release_ns`: every node brackets an update of its own
/// view (VC protocols) or lock (LRC family); cost per acquire.
pub fn acquire_release(n: usize, proto: Protocol, wake: f64, route: f64) -> OpCost {
    let body = |cfg: &ClusterConfig, rounds: usize| {
        let mut world = WorldBuilder::new();
        if proto.is_vc() {
            let views = world.views_u32(n, 16);
            run_cluster(cfg, world.build(), move |ctx| {
                for _ in 0..rounds {
                    ctx.with_view(&views[ctx.me()], |r| r.update(ctx, 0, |x| x + 1));
                }
            })
            .stats
        } else {
            // One page per node, so nodes never share a page.
            let store = world.alloc_u32(n * PAGE_WORDS);
            run_cluster(cfg, world.build(), move |ctx| {
                let me = ctx.me();
                for _ in 0..rounds {
                    ctx.lock_acquire(me as u32);
                    store.update(ctx, me * PAGE_WORDS, |x| x + 1);
                    ctx.lock_release(me as u32);
                }
            })
            .stats
        }
    };
    marginal_cost(n, proto, 16, RunStats::acquires, body, wake, route)
}

/// `dsm.barrier_ns`: back-to-back cluster barriers; cost per barrier.
pub fn barrier(n: usize, proto: Protocol, wake: f64, route: f64) -> OpCost {
    let body = |cfg: &ClusterConfig, rounds: usize| {
        run_cluster(cfg, WorldBuilder::new().build(), move |ctx| {
            for _ in 0..rounds {
                ctx.barrier();
            }
        })
        .stats
    };
    marginal_cost(n, proto, 16, RunStats::barriers, body, wake, route)
}

/// The canonical dirtiness patterns of a page against a zero twin: sparse
/// (one 8-word run), dense (every 8th word) and full (every word).
fn patterns(bias: u32) -> [Box<PageBuf>; 3] {
    let fill = |step: usize, range: std::ops::Range<usize>| {
        let mut page = PageBuf::zeroed();
        for w in range.step_by(step) {
            page.set_word(w, w as u32 + bias);
        }
        page
    };
    [
        fill(1, 256..264),
        fill(8, 0..PAGE_WORDS),
        fill(1, 0..PAGE_WORDS),
    ]
}

/// Host ns per diff create, apply and merge, each the mean over the
/// sparse, dense and full patterns.
pub fn diff_ns() -> (f64, f64, f64) {
    let twin = PageBuf::zeroed();
    let older = patterns(1);
    let newer = patterns(2);
    let (mut create, mut apply, mut merge) = (0.0, 0.0, 0.0);
    for (old, new) in older.iter().zip(&newer) {
        create += per_call_ns(|| {
            black_box(Diff::create(black_box(&twin), black_box(old)));
        });
        let d_old = Diff::create(&twin, old);
        let d_new = Diff::create(&twin, new);
        let mut page = PageBuf::zeroed();
        apply += per_call_ns(|| d_old.apply(black_box(&mut page)));
        merge += per_call_ns(|| {
            black_box(black_box(&d_old).merge(black_box(&d_new)));
        });
    }
    (create / 3.0, apply / 3.0, merge / 3.0)
}

/// `core.access_ns`: host ns per `Region` get or set of one word on a
/// page the node already holds valid, timed inside a one-node cluster.
pub fn access_ns() -> f64 {
    const REPS: usize = 200;
    let mut world = WorldBuilder::new();
    let region = world.alloc_u32(PAGE_WORDS);
    let mut cfg = ClusterConfig::new(1, Protocol::LrcD);
    cfg.sim_workers = 1;
    let out = run_cluster(&cfg, world.build(), move |ctx| {
        for i in 0..PAGE_WORDS {
            region.set(ctx, i, i as u32);
        }
        let t0 = Instant::now();
        for rep in 0..REPS {
            for i in 0..PAGE_WORDS {
                let v = region.get(ctx, i);
                region.set(ctx, i, black_box(v.wrapping_add(rep as u32)));
            }
        }
        t0.elapsed().as_nanos() as f64 / (REPS * PAGE_WORDS * 2) as f64
    });
    out.results[0]
}
