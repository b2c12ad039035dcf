//! Micro-benchmarks of the memory and network substrates.

use std::any::Any;
use std::sync::Arc;

use vopp_bench::harness::{black_box, Runner};
use vopp_page::{Diff, DiffRun, PageBuf, PagePool, SharedHeap, VTime, PAGE_WORDS};
use vopp_sim::{NetModel, Payload, RouteRequest, Sim, SimDuration, SimTime};
use vopp_simnet::{EthernetModel, NetConfig};

/// The pre-chunking `Diff::create`, replicated verbatim from the seed: a
/// word-by-word scan growing each run's vector by push. Kept as the
/// measured reference the chunked kernel is compared against (run-for-run
/// equivalence itself is asserted by the randomized suite in `vopp-page`).
fn scalar_create_runs(twin: &PageBuf, current: &PageBuf) -> Vec<DiffRun> {
    let mut runs = Vec::new();
    let mut w = 0;
    while w < PAGE_WORDS {
        if twin.word(w) != current.word(w) {
            let start = w;
            let mut words = Vec::new();
            while w < PAGE_WORDS && twin.word(w) != current.word(w) {
                words.push(current.word(w));
                w += 1;
            }
            runs.push(DiffRun {
                word_off: start as u32,
                words,
            });
        } else {
            w += 1;
        }
    }
    runs
}

/// Diff kernels on the canonical dirtiness patterns: sparse (one small
/// contiguous write — the common DSM case of a node touching a few adjacent
/// array elements in a page), scattered (eight isolated stores across the
/// page), dense (every 8th word), and full-page (every word modified).
fn bench_diff(r: &mut Runner) {
    let twin = PageBuf::zeroed();
    let mut pages = Vec::new();
    let mut sparse = PageBuf::zeroed();
    for w in 256..264 {
        sparse.set_word(w, w as u32 + 1);
    }
    pages.push(("sparse", sparse));
    for (label, step) in [("scattered", 128), ("dense", 8), ("full", 1)] {
        let mut cur = PageBuf::zeroed();
        for w in (0..PAGE_WORDS).step_by(step) {
            cur.set_word(w, w as u32 + 1);
        }
        pages.push((label, cur));
    }
    for (label, cur) in &pages {
        let chunked = r.bench(&format!("diff_create_{label}"), || {
            Diff::create(black_box(&twin), black_box(cur))
        });
        let scalar = r.bench(&format!("diff_create_{label}_scalar_ref"), || {
            scalar_create_runs(black_box(&twin), black_box(cur))
        });
        if let (Some(c), Some(s)) = (chunked, scalar) {
            println!(
                "    -> chunked create is {:.1}x the scalar reference ({label})",
                s.as_nanos() as f64 / c.as_nanos().max(1) as f64
            );
        }
    }
    for (label, cur) in &pages {
        let d = Diff::create(&twin, cur);
        let mut page = PageBuf::zeroed();
        r.bench(&format!("diff_apply_{label}"), || {
            d.apply(black_box(&mut page))
        });
    }
    // Merge (diff integration): newer overlapping runs shadow older ones.
    let d_sparse = Diff::create(&twin, &pages[1].1); // scattered
    let d_dense = Diff::create(&twin, &pages[2].1);
    let d_full = Diff::create(&twin, &pages[3].1);
    r.bench("diff_merge_sparse_into_dense", || {
        black_box(&d_dense).merge(black_box(&d_sparse))
    });
    r.bench("diff_merge_integration", || {
        black_box(&d_sparse).merge(black_box(&d_dense))
    });
    r.bench("diff_merge_full_page", || {
        black_box(&d_dense).merge(black_box(&d_full))
    });
}

/// Page recycling vs. fresh heap allocation per twin.
fn bench_pool(r: &mut Runner) {
    let src = {
        let mut p = PageBuf::zeroed();
        for w in (0..PAGE_WORDS).step_by(8) {
            p.set_word(w, w as u32 + 1);
        }
        p
    };
    let mut pool = PagePool::default();
    r.bench("pool_acquire_release_zeroed", || {
        let b = pool.acquire_zeroed();
        pool.release(black_box(b));
    });
    r.bench("pool_acquire_release_copy", || {
        let b = pool.acquire_copy(black_box(&src));
        pool.release(black_box(b));
    });
    r.bench("pool_miss_fresh_alloc", || {
        // The un-pooled baseline: allocate and drop a page per twin.
        black_box(Box::new(src.clone()))
    });
}

fn bench_vtime(r: &mut Runner) {
    let mut a = VTime::zero(32);
    let mut bvt = VTime::zero(32);
    for i in 0..32 {
        a.set(i, (i * 7 % 13) as u32);
        bvt.set(i, (i * 5 % 11) as u32);
    }
    r.bench("vtime_join_32", || black_box(&a).join(black_box(&bvt)));
    r.bench("vtime_dominates_32", || {
        black_box(&a).dominates(black_box(&bvt))
    });
}

fn bench_heap(r: &mut Runner) {
    r.bench("heap_alloc_1000", || {
        let mut h = SharedHeap::new();
        for i in 0..1000 {
            black_box(h.alloc(64 + (i % 100), 8));
        }
        h.pages_needed()
    });
}

fn bench_net(r: &mut Runner) {
    let mut m = EthernetModel::new(32, NetConfig::default());
    let mut t = 0u64;
    r.bench("ethernet_route", || {
        t += 1000;
        m.route(RouteRequest {
            now: SimTime(t),
            src: (t % 31) as usize,
            dst: ((t + 7) % 32) as usize,
            wire_bytes: 512,
            pending_bytes_at_dst: 1024,
            reliable: false,
        })
    });
}

/// One lockstep cluster run: 8 processes each advancing their clocks in
/// identical compute slices, so after the first round every wake-up is a
/// same-instant `Resume` for the next process — the direct-handoff fast
/// path's best case (and the shape of every barrier release in the DSM
/// protocols). Returns the kernel's handoff counters.
fn lockstep_run() -> (u64, u64) {
    let sim = Sim::new(8, Box::new(EthernetModel::new(8, NetConfig::lossless())));
    let out = sim.run(|ctx| {
        for _ in 0..64 {
            ctx.compute(SimDuration::from_micros(10));
        }
        0u64
    });
    (out.handoff.direct, out.handoff.via_controller)
}

/// Kernel wake-up path: the 8-process lockstep workload, pure scheduling
/// overhead.
fn bench_kernel(r: &mut Runner) {
    let (direct, via_ctl) = lockstep_run();
    println!("    -> lockstep handoff counters: {direct} direct, {via_ctl} via controller");
    r.bench("kernel_lockstep_handoff", || black_box(lockstep_run()));
}

/// Payload fan-out: sharing one `Arc` allocation across 32 destinations
/// (what the transport does for broadcasts and retransmissions) vs the
/// seed's per-destination deep clone of a 4 KiB message.
fn bench_payload(r: &mut Runner) {
    let msg = vec![0xABu8; 4096];
    let arc: Payload = Arc::new(msg.clone());
    let shared = r.bench("payload_fanout32_arc_share", || {
        let mut v: Vec<Payload> = Vec::with_capacity(32);
        for _ in 0..32 {
            v.push(black_box(&arc).clone());
        }
        v
    });
    let cloned = r.bench("payload_fanout32_deep_clone_ref", || {
        let mut v: Vec<Box<dyn Any + Send + Sync>> = Vec::with_capacity(32);
        for _ in 0..32 {
            v.push(Box::new(black_box(&msg).clone()));
        }
        v
    });
    if let (Some(s), Some(c)) = (shared, cloned) {
        println!(
            "    -> Arc sharing is {:.1}x the deep-clone reference (32-way fan-out, 4 KiB)",
            c.as_nanos() as f64 / s.as_nanos().max(1) as f64
        );
    }
}

fn main() {
    let mut r = Runner::from_args();
    bench_diff(&mut r);
    bench_pool(&mut r);
    bench_vtime(&mut r);
    bench_heap(&mut r);
    bench_net(&mut r);
    bench_kernel(&mut r);
    bench_payload(&mut r);
}
