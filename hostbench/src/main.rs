//! hostbench — how long the simulator takes to produce the paper's
//! numbers: host time end to end, and split by layer.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload scaleout|paper16|serve16|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, pinned to one CPU, runs one workload's cells one at a time
//! (`--jobs 1` semantics, one simulation worker, no tracing, critical-path
//! profiling, race checking or persistent cache), checks every cell's
//! output, runs the whole set once as a warm-up and then repeats it until
//! `--seconds` have passed. Human-readable lines come first; the last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics (medians over passes; host
//! time in units of a reference loop, which divides out the host's drifting
//! speed; see README.md).
//! `--trace 1` is a separate run that reports the per-layer metrics,
//! gathered from outside the program: spans around the benchmark's own
//! calls into each crate, the public work counters, and per-call probes of
//! each layer's public API. README.md maps every layer metric to the
//! end-to-end metric and workload it should move.

mod host;
mod probes;
mod workload;

use std::collections::BTreeSet;
use std::time::Instant;

use vopp_bench::hostprof::{alloc_totals, CountingAlloc};
use vopp_core::{Phase, RunStats};
use vopp_metrics::Histogram;
use vopp_sim::handoff_totals;
use vopp_trace::json::Value;

use probes::median;
use workload::{Cell, Workload, DEFAULT_SEED};

/// Counted exactly as the `tables` binary counts: every allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A run repeats its set-up at least this many times, and on until this
/// much time has passed, so a cheap set-up still gives a steady median;
/// `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.25;

const USAGE: &str = "usage: hostbench --workload scaleout|paper16|serve16|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 36.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => parsed.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Work counters summed over one pass's cells.
#[derive(Debug, Default, Clone)]
struct Totals {
    virtual_ns: u64,
    datagrams: u64,
    bytes: u64,
    dropped: u64,
    acquires: u64,
    barriers: u64,
    diff_requests: u64,
    page_faults: u64,
    rexmits: u64,
    twins: u64,
    diffs_created: u64,
    diffs_applied: u64,
    phase_ns: [u64; 5],
    latency: Histogram,
}

/// The virtual-time phases the per-layer report splits out.
const PHASES: [Phase; 5] = [
    Phase::Compute,
    Phase::ProtoCpu,
    Phase::BarrierWait,
    Phase::AcquireWait,
    Phase::DataWait,
];

impl Totals {
    fn add(&mut self, s: &RunStats, latency: Option<&Histogram>) {
        self.virtual_ns += s.time.nanos();
        self.datagrams += s.net.msgs;
        self.bytes += s.net.bytes;
        self.dropped += s.net.drops;
        self.acquires += s.acquires();
        self.barriers += s.barriers();
        self.diff_requests += s.diff_requests();
        self.page_faults += s.nodes.page_faults;
        self.rexmits += s.rexmits();
        self.twins += s.nodes.twins;
        self.diffs_created += s.nodes.diffs_created;
        self.diffs_applied += s.nodes.diffs_applied;
        for (acc, phase) in self.phase_ns.iter_mut().zip(PHASES) {
            *acc += s.breakdown().get(phase);
        }
        if let Some(h) = latency {
            self.latency.absorb(h);
        }
    }
}

/// Host cost of one cell in a traced pass.
struct CellSpan {
    key: String,
    run_s: f64,
    allocs: u64,
    wakes: u64,
}

/// One pass over every cell of a workload.
struct Pass {
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    wakes_direct: u64,
    wakes_ctl: u64,
    /// Host seconds inside the `run_*` calls.
    run_s: f64,
    attempted: u64,
    failed: u64,
    totals: Totals,
    spans: Vec<CellSpan>,
}

/// Virtual-time fingerprint of a cell, compared pass to pass: a
/// deterministic simulator must repeat it exactly.
type Fingerprint = (u64, u64, u64, Option<u64>);

/// Run every cell once, checking each. A cell fails on a panic, a wrong
/// answer, a virtual-time fingerprint that differs from an earlier pass,
/// or (with `baseline`) a mismatch with the committed baseline; the pass
/// goes on to the next cell either way.
fn run_pass(
    cells: &[Cell],
    baseline: Option<&Value>,
    fingerprints: &mut [Option<Fingerprint>],
    traced: bool,
) -> Pass {
    let (user0, sys0) = host::cpu_times();
    let (allocs0, bytes0) = alloc_totals();
    let wakes0 = handoff_totals();
    let t0 = Instant::now();
    let mut pass_totals = Totals::default();
    let (mut run_s, mut failed) = (0.0, 0u64);
    let mut spans = Vec::new();
    for (cell, seen) in cells.iter().zip(fingerprints.iter_mut()) {
        let cell_allocs0 = if traced { alloc_totals().0 } else { 0 };
        let cell_wakes0 = if traced { handoff_totals().total() } else { 0 };
        let checked = workload::run(cell).and_then(|out| {
            let s = &out.stats;
            let fp = (s.time.nanos(), s.num_msgs(), s.net.bytes, out.get_digest);
            if seen.is_some_and(|prev| prev != fp) {
                return Err(format!(
                    "{}: virtual stats changed between passes",
                    cell.spec.key()
                ));
            }
            *seen = Some(fp);
            match baseline.and_then(|b| workload::baseline_mismatch(b, &cell.spec, s)) {
                Some(e) => Err(e),
                None => Ok(out),
            }
        });
        match checked {
            Ok(out) => {
                run_s += out.run_s;
                pass_totals.add(&out.stats, out.latency.as_ref());
                if traced {
                    spans.push(CellSpan {
                        key: cell.spec.key(),
                        run_s: out.run_s,
                        allocs: alloc_totals().0 - cell_allocs0,
                        wakes: handoff_totals().total() - cell_wakes0,
                    });
                }
            }
            Err(e) => {
                eprintln!("FAILED {e}");
                failed += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (user1, sys1) = host::cpu_times();
    let (allocs1, bytes1) = alloc_totals();
    let wakes1 = handoff_totals();
    Pass {
        wall_s,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        wakes_direct: wakes1.direct - wakes0.direct,
        wakes_ctl: wakes1.via_controller - wakes0.via_controller,
        run_s,
        attempted: cells.len() as u64,
        failed,
        totals: pass_totals,
        spans,
    }
}

/// A metric as reported: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// One workload's finished run.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

/// Per-call probe costs at the workload's node counts and protocols.
struct Probes {
    wake_ns: f64,
    route_ns: f64,
    acquire: probes::OpCost,
    barrier: probes::OpCost,
    diff: (f64, f64, f64),
    access_ns: f64,
}

impl Probes {
    /// Each probe runs at every node count (and protocol) the workload
    /// uses; the reported cost is the mean over them.
    fn measure(cells: &[Cell], totals: &Totals) -> Probes {
        let nodes: BTreeSet<usize> = cells.iter().map(|c| c.spec.np).collect();
        let mut protos = Vec::new();
        for c in cells {
            if !protos.contains(&c.spec.proto) {
                protos.push(c.spec.proto);
            }
        }
        let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let wire_bytes = (totals.bytes / totals.datagrams.max(1)).max(1) as usize;
        let wake_ns = mean(nodes.iter().map(|&n| probes::wake_ns(n)).collect());
        let route_ns = mean(
            nodes
                .iter()
                .map(|&n| probes::route_ns(n, wire_bytes))
                .collect(),
        );
        let mut acquire = Vec::new();
        let mut barrier = Vec::new();
        for &n in &nodes {
            for &p in &protos {
                acquire.push(probes::acquire_release(n, p, wake_ns, route_ns));
                barrier.push(probes::barrier(n, p, wake_ns, route_ns));
            }
        }
        let mean_cost = |xs: &[probes::OpCost]| probes::OpCost {
            total_ns: mean(xs.iter().map(|c| c.total_ns).collect()),
            self_ns: mean(xs.iter().map(|c| c.self_ns).collect()),
        };
        Probes {
            wake_ns,
            route_ns,
            acquire: mean_cost(&acquire),
            barrier: mean_cost(&barrier),
            diff: probes::diff_ns(),
            access_ns: probes::access_ns(),
        }
    }
}

/// Set up (repeatedly) and run one workload until `seconds` have passed.
/// The first set-up is timed from `start`.
fn bench(w: Workload, args: &Args, start: Instant) -> Report {
    let mut t0 = start;
    let mut setup_s = Vec::new();
    let setup = loop {
        let setup = workload::setup(w, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() >= SETUP_MIN_REPEATS && setup_s.iter().sum::<f64>() >= SETUP_MIN_SECONDS {
            break setup;
        }
        t0 = Instant::now();
    };
    let cells = &setup.cells;
    let baseline = (w == Workload::Scaleout && args.seed == DEFAULT_SEED)
        .then(|| Value::parse(workload::SCALING_BASELINE).expect("BENCH_scaling.json parses"));
    let mut fingerprints = vec![None; cells.len()];
    let t_measure = Instant::now();
    // The first pass fills the heap and the caches: its answers are
    // checked like any other pass's, but its times stay out of the medians.
    let warmup = run_pass(cells, baseline.as_ref(), &mut fingerprints, false);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut ref_table = vec![0u64; host::REF_TABLE_WORDS];
    let mut ref_s = Vec::new();
    let mut probe_costs = None;
    loop {
        // A traced run alternates which kind of pass goes first, so
        // neither kind always inherits the other's warm heap.
        let traced_first = args.trace && untraced.len() % 2 == 1;
        if traced_first {
            traced.push(run_pass(cells, baseline.as_ref(), &mut fingerprints, true));
        }
        ref_s.push(host::reference_loop_s(&mut ref_table));
        untraced.push(run_pass(cells, baseline.as_ref(), &mut fingerprints, false));
        if args.trace && !traced_first {
            if probe_costs.is_none() {
                probe_costs = Some(Probes::measure(cells, &untraced[0].totals));
            }
            traced.push(run_pass(cells, baseline.as_ref(), &mut fingerprints, true));
        }
        if t_measure.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let all: Vec<&Pass> = std::iter::once(&warmup)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let attempted = all.iter().map(|p| p.attempted).sum();
    let failed = all.iter().map(|p| p.failed).sum();
    let wall_s = med(&untraced, |p| p.wall_s);
    let ref_s = median(ref_s);
    let first = &untraced[0].totals;
    println!(
        "workload {} seed {}: {} cells x (1 warm-up + {} passes{})",
        w.name(),
        args.seed,
        cells.len(),
        untraced.len(),
        if args.trace {
            format!(" untraced + {} traced", traced.len())
        } else {
            String::new()
        }
    );
    let metrics = match probe_costs {
        None => {
            let metrics = vec![
                ("wall_ref", wall_s / ref_s, "refs"),
                ("setup_s", median(setup_s), "s"),
            ];
            for (name, value, unit) in &metrics {
                println!("  {name:<14} {value:>14.6} {unit}");
            }
            // Seconds as measured stay out of the JSON metrics: the host's
            // speed drifted by a quarter from minute to minute, more than
            // any bound allows, and `wall_ref` is the same time with that
            // drift divided out. Pinned to one CPU, `cpu_s` follows
            // `wall_s`.
            println!("  {:<14} {wall_s:>14.6} s", "wall_s");
            let cpu_s = med(&untraced, |p| p.user_s + p.sys_s);
            println!("  {:<14} {cpu_s:>14.6} s", "cpu_s");
            println!("  {:<14} {ref_s:>14.6} s", "ref_s");
            let walls: Vec<String> = untraced
                .iter()
                .map(|p| format!("{:.3}", p.wall_s))
                .collect();
            println!("  pass wall_s: {}", walls.join(" "));
            // Four more end-to-end metrics stay out of the JSON metrics,
            // which hold the steady host measurements every workload has:
            // peak RSS swings by a fifth run to run on serve16 (glibc's
            // per-thread arenas), virtual time is exact per seed (and on
            // paper16 the same for every seed), the request tail exists on
            // serve16 only, and the failure share is the JSON line's
            // `failed / attempted`.
            println!(
                "  {:<14} {:>14.6} MiB",
                "peak_rss_mib",
                host::peak_rss_mib()
            );
            let virtual_s = first.virtual_ns as f64 / 1e9;
            println!("  {:<14} {virtual_s:>14.6} s", "virtual_s");
            if w == Workload::Serve16 {
                let p99_us = first.latency.p99() as f64 / 1e3;
                println!("  {:<14} {p99_us:>14.6} us", "serve_p99_us");
            }
            let share = failed as f64 / (attempted as f64).max(1.0);
            println!(
                "  {:<14} {share:>14.6} ({failed} of {attempted} cells)",
                "fail_share"
            );
            metrics
        }
        Some(pr) => layer_metrics(&untraced, &traced, &pr, setup.reference_s, ref_s),
    };
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer metrics of a traced run (see README.md for the map).
fn layer_metrics(
    untraced: &[Pass],
    traced: &[Pass],
    pr: &Probes,
    reference_s: f64,
    ref_s: f64,
) -> Vec<Metric> {
    let t = &traced[0].totals;
    let wakes_direct = traced[0].wakes_direct;
    let wakes_ctl = traced[0].wakes_ctl;
    let user_s = med(traced, |p| p.user_s);
    let sys_s = med(traced, |p| p.sys_s);
    let wall_s = med(traced, |p| p.wall_s);
    let run_s = med(traced, |p| p.run_s);
    let phase_s = |i: usize| t.phase_ns[i] as f64 / 1e9;
    let (create_ns, apply_ns, merge_ns) = pr.diff;
    let est_sim = (wakes_direct + wakes_ctl) as f64 * pr.wake_ns / 1e9;
    let est_simnet = t.datagrams as f64 * pr.route_ns / 1e9;
    let est_dsm =
        (t.acquires as f64 * pr.acquire.self_ns + t.barriers as f64 * pr.barrier.self_ns) / 1e9;
    let est_page = (t.diffs_created as f64 * create_ns + t.diffs_applied as f64 * apply_ns) / 1e9;
    let est_sum = est_sim + est_simnet + est_dsm + est_page;
    let metrics = vec![
        ("sim.handoffs_direct", wakes_direct as f64, "count"),
        ("sim.handoffs_ctl", wakes_ctl as f64, "count"),
        ("sim.wake_ns", pr.wake_ns, "ns"),
        ("host.user_s", user_s, "s"),
        ("host.sys_s", sys_s, "s"),
        ("host.sched_wait_s", wall_s - user_s - sys_s, "s"),
        ("host.ref_s", ref_s, "s"),
        ("simnet.datagrams", t.datagrams as f64, "count"),
        ("simnet.mbytes", t.bytes as f64 / 1e6, "MB"),
        ("simnet.dropped", t.dropped as f64, "count"),
        ("simnet.route_ns", pr.route_ns, "ns"),
        ("dsm.acquires", t.acquires as f64, "count"),
        ("dsm.barriers", t.barriers as f64, "count"),
        ("dsm.diff_requests", t.diff_requests as f64, "count"),
        ("dsm.page_faults", t.page_faults as f64, "count"),
        ("dsm.rexmits", t.rexmits as f64, "count"),
        ("dsm.acquire_release_ns", pr.acquire.total_ns, "ns"),
        ("dsm.barrier_ns", pr.barrier.total_ns, "ns"),
        ("vt.compute_s", phase_s(0), "s"),
        ("vt.proto_cpu_s", phase_s(1), "s"),
        ("vt.barrier_wait_s", phase_s(2), "s"),
        ("vt.acquire_wait_s", phase_s(3), "s"),
        ("vt.data_wait_s", phase_s(4), "s"),
        ("page.twins", t.twins as f64, "count"),
        ("page.diffs_created", t.diffs_created as f64, "count"),
        ("page.diffs_applied", t.diffs_applied as f64, "count"),
        ("page.diff_create_ns", create_ns, "ns"),
        ("page.diff_apply_ns", apply_ns, "ns"),
        ("page.diff_merge_ns", merge_ns, "ns"),
        ("core.access_ns", pr.access_ns, "ns"),
        ("apps.run_s", run_s, "s"),
        ("apps.reference_s", reference_s, "s"),
        ("host.allocs", traced[0].allocs as f64, "count"),
        (
            "host.alloc_mib",
            traced[0].alloc_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        ("est.sim_s", est_sim, "s"),
        ("est.simnet_s", est_simnet, "s"),
        ("est.dsm_s", est_dsm, "s"),
        ("est.page_s", est_page, "s"),
        (
            "est.unattributed_share",
            1.0 - est_sum / run_s.max(f64::MIN_POSITIVE),
            "share",
        ),
        (
            "trace.overhead_share",
            wall_s / med(untraced, |p| p.wall_s) - 1.0,
            "share",
        ),
    ];
    for (name, value, unit) in &metrics {
        let computed = if name.starts_with("est.") {
            "  (computed)"
        } else {
            ""
        };
        println!("  {name:<24} {value:>16.6} {unit}{computed}");
    }
    println!("  per cell (last traced pass): run_s allocs wakes");
    for s in &traced[traced.len() - 1].spans {
        println!(
            "    {:<36} {:>9.4} {:>10} {:>9}",
            s.key, s.run_s, s.allocs, s.wakes
        );
    }
    metrics
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stamp = host::stamp();
    // Before any thread starts, so every simulated node inherits the pin.
    let pinned = host::pin_to_current_cpu();
    vopp_sim::set_sim_workers_default(1);
    let cpu = pinned.map_or_else(|| "none".to_string(), |c| c.to_string());
    println!("{stamp} pinned_cpu={cpu}");
    // Only the first workload's set-up counts from process start.
    let reports: Vec<(Workload, Report)> = args
        .workloads
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let t0 = if i == 0 { start } else { Instant::now() };
            (w, bench(w, &args, t0))
        })
        .collect();
    let prefix = reports.len() > 1;
    let attempted = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed = reports.iter().map(|(_, r)| r.failed).sum();
    let metrics: Vec<(String, f64, &str)> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |&(name, value, unit)| {
                let name = if prefix {
                    format!("{}.{name}", w.name())
                } else {
                    name.to_string()
                };
                (name, value, unit)
            })
        })
        .collect();
    println!("{}", result_json(attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Expect;

    /// A deliberately wrong expected answer fails its cell and only its
    /// cell: the pass goes on to the next cell and `fail_share` is nonzero.
    #[test]
    fn wrong_expectation_makes_fail_share_nonzero() {
        let setup = workload::setup(Workload::Scaleout, DEFAULT_SEED);
        let mut cells: Vec<Cell> = setup
            .cells
            .into_iter()
            .filter(|c| c.spec.np == 64 && c.spec.app != vopp_bench::sweep::CellApp::Is)
            .take(2)
            .collect();
        let Expect::Value(v) = cells[0].expect else {
            panic!("Gauss and SOR cells expect a value");
        };
        cells[0].expect = Expect::Value(v + 1.0);
        let mut fingerprints = vec![None; cells.len()];
        let pass = run_pass(&cells, None, &mut fingerprints, false);
        assert_eq!((pass.attempted, pass.failed), (2, 1));
        assert!(pass.failed as f64 / pass.attempted as f64 > 0.0);
        assert!(pass.totals.virtual_ns > 0, "the second cell still ran");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(3, 0, &[("wall_s".to_string(), 1.5, "s")]);
        let v = Value::parse(&line).expect("valid JSON");
        let Value::Obj(fields) = &v else {
            panic!("an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}
