//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! cargo run -p vopp-bench --release --bin tables -- all
//! cargo run -p vopp-bench --release --bin tables -- table1 table3
//! cargo run -p vopp-bench --release --bin tables -- all --quick
//! cargo run -p vopp-bench --release --bin tables -- all --json > tables.json
//! cargo run -p vopp-bench --release --bin tables -- table1 --trace /tmp/t
//! cargo run -p vopp-bench --release --bin tables -- all --quick --metrics out/
//! cargo run -p vopp-bench --release --bin tables -- all --jobs 4
//! ```
//!
//! `--trace <dir>` records a structured event trace of every cluster run,
//! writes `<app>_<variant>_<protocol>_<N>p.{events.json,perfetto.json,report.txt}`
//! into `<dir>` (the Perfetto file loads in <https://ui.perfetto.dev>), and
//! asserts the protocol conformance invariants on each trace.
//!
//! `--metrics <dir>` records every verified run and writes one
//! `BENCH_<app>.json` per application into `<dir>` — the machine-readable
//! artifacts consumed by the `metrics_diff` regression gate — plus
//! `BENCH_wallclock.json` (real time per cell; reported, never gated).
//!
//! `--jobs N` (default: available parallelism) sizes the worker pool that
//! precomputes the sweep's cells. Every artifact is byte-identical for any
//! worker count — cells are independent deterministic simulations, and
//! each table renders and records its cells in its layout's order.
//!
//! Every simulation runs on the sequential discrete-event kernel: one
//! event heap, one running process at a time.
//!
//! Table names come from the family registry (`vopp_bench::FAMILIES`).
//! `all` selects the paper's nine tables; `ext`, `serve` (the open-loop
//! service workload, see `docs/SERVING.md`), `scaling` (64/128-node
//! scale-out cells) and `netgen` (IS/Gauss/SOR/NN across network
//! generations under LRC_d, VC_sd and VC_rdma, see `docs/NETWORK.md`) are
//! opt-in: request them by name.
//!
//! `--cache <dir>` keeps a persistent content-addressed store of finished
//! cells (`sweep-cache.json`) across invocations: a warm rerun simulates
//! nothing and replays the identical tables/metrics from disk. The cache is
//! addressed by a build fingerprint plus a scale/cost-model hash, so any
//! rebuild or configuration change invalidates it wholesale. With
//! `--trace` or `--critpath` every cell is simulated anyway (a warm replay
//! writes no trace and carries no causal log to walk), and the results are
//! still written back to the cache.
//!
//! `--faults <plan>` applies a global fault plan to every cell (e.g.
//! `loss=0.02@7,slow=0x1.5`): message loss and slowdowns reshape the
//! timing of all runs, while crash entries are acted on only by the
//! `serve` table (batch apps ignore them). The plan is folded into the
//! sweep-cache context hash, so cached cells never mix fault regimes.
//!
//! `--critpath` attaches the causal profiler to every run: each table
//! gains `CP ...` rows decomposing the virtual-time critical path (plus
//! what-if speedup ceilings), `--metrics` additionally writes
//! `BENCH_critpath.json`, and `--trace` additionally writes a
//! `<stem>.critpath.perfetto.json` track per run. Profiling is pure
//! observation: every other table, metric and trace stream stays
//! byte-identical.
//!
//! `--racecheck` additionally runs the dynamic-checker suite (see
//! `docs/CORRECTNESS.md`): clean applications across all five
//! protocol×style cells must report zero violations, and the seeded-racy
//! variants must report their exact known-answer counts. Exits nonzero on
//! any mismatch. May be used alone (`tables --racecheck`) without
//! generating tables. Checking never perturbs the table sweep: all other
//! artifacts stay byte-identical with or without this flag.
//!
//! An unknown `--flag`, a missing flag operand, or an unknown table name
//! prints the usage text and exits with status 2.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vopp_bench::hostprof::{peak_rss_bytes, CountingAlloc, StageStats, StageTimer};
use vopp_bench::sweep::{context_hash, dedup_cells, run_sweep_cached, write_wallclock, DiskCache};
use vopp_bench::{family, Family, MetricsSink, Scale, Table, FAMILIES};
use vopp_core::FaultPlan;
use vopp_trace::json::Value;

/// Count every allocation the table run makes; the per-stage deltas land
/// in `BENCH_wallclock.json`. Library users and tests don't pay for this —
/// only this binary installs the counting allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: tables [--quick] [--json] [--jobs N] [--trace DIR] \
     [--metrics DIR] [--cache DIR] [--faults PLAN] [--critpath] [--racecheck] \
     (all | table1 .. table9 | ext | serve | scaling | netgen)*";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    json: bool,
    racecheck: bool,
    critpath: bool,
    /// `--jobs N`; `None` uses the host's available parallelism.
    jobs: Option<usize>,
    trace_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    faults: FaultPlan,
    /// Requested table names (`all` included), in command-line order.
    wanted: Vec<String>,
}

fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs must be a positive integer, got {s:?}")),
    }
}

/// Parse the arguments after the program name. Any unknown flag, missing
/// operand or unknown table name is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut operand = |what: &str| match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{arg} requires {what} argument")),
        };
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--json" => out.json = true,
            "--racecheck" => out.racecheck = true,
            "--critpath" => out.critpath = true,
            "--jobs" => out.jobs = Some(parse_jobs(&operand("a positive integer")?)?),
            "--trace" => out.trace_dir = Some(operand("a directory")?.into()),
            "--metrics" => out.metrics_dir = Some(operand("a directory")?.into()),
            "--cache" => out.cache_dir = Some(operand("a directory")?.into()),
            "--faults" => {
                let spec = operand("a fault-plan")?;
                out.faults = FaultPlan::parse(&spec).map_err(|e| format!("--faults: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            name if name == "all" || family(name).is_some() => out.wanted.push(name.to_string()),
            name => return Err(format!("unknown table {name:?}")),
        }
    }
    if out.wanted.is_empty() && !out.racecheck {
        return Err("nothing to run: name a table or pass --racecheck".to_string());
    }
    Ok(out)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let jobs = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    let Args {
        quick,
        json,
        racecheck,
        critpath,
        trace_dir,
        metrics_dir,
        cache_dir,
        faults,
        wanted,
        ..
    } = args;
    if racecheck && wanted.is_empty() {
        run_racecheck_suite();
        return;
    }
    let sink = metrics_dir.as_ref().map(|_| Arc::new(MetricsSink::new()));
    let scale = Scale {
        quick,
        trace_dir,
        metrics: sink.clone(),
        net_override: None,
        faults,
        critpath,
    };
    let run_all = wanted.iter().any(|w| w == "all");
    let selected: Vec<&Family> = FAMILIES
        .iter()
        .filter(|f| (run_all && f.in_all) || wanted.iter().any(|w| w == f.name))
        .collect();

    // Precompute every selected cell on the worker pool; each table below
    // renders and records its cells in layout order, so all artifacts stay
    // byte-identical for any --jobs value.
    // Each stage's wall-clock and allocation delta lands in
    // `BENCH_wallclock.json`.
    let mut stages: Vec<StageStats> = Vec::new();
    let stage = StageTimer::start("enumerate");
    let specs = dedup_cells(
        &selected
            .iter()
            .flat_map(|f| f.cells(&scale))
            .collect::<Vec<_>>(),
    );
    stages.push(stage.finish());
    let stage = StageTimer::start("simulate");
    let mut disk = cache_dir
        .as_ref()
        .map(|dir| DiskCache::open(dir, context_hash(&scale)));
    let cache = run_sweep_cached(&scale, &specs, jobs, disk.as_mut());
    stages.push(stage.finish());
    eprintln!(
        "[sweep: {} cells on {} worker(s) in {:.1?}]",
        cache.len(),
        cache.jobs,
        std::time::Duration::from_nanos(cache.total_wall_ns)
    );
    if disk.is_some() {
        eprintln!(
            "[cache: {} warm, {} simulated]",
            cache.warm_cells, cache.simulated_cells
        );
    }

    let stage = StageTimer::start("render");
    let mut produced = Vec::new();
    for f in &selected {
        let t0 = Instant::now();
        let table = f.render(&scale, &cache);
        eprintln!("[{} generated in {:.1?}]", f.name, t0.elapsed());
        if json {
            produced.push(table);
        } else {
            println!("{table}");
        }
    }
    if json {
        let v = Value::Arr(produced.iter().map(Table::to_value).collect());
        println!("{}", v.to_json_pretty());
    }
    if let (Some(sink), Some(dir)) = (&sink, &metrics_dir) {
        match sink.write_all(dir) {
            Ok(files) => eprintln!(
                "[metrics: {} cells -> {} in {}]",
                sink.len(),
                files.join(", "),
                dir.display()
            ),
            Err(e) => {
                eprintln!("failed to write metrics into {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    stages.push(stage.finish());
    // Written last so the artifact covers every stage of the run.
    if let Some(dir) = &metrics_dir {
        if let Err(e) = write_wallclock(&cache, &stages, dir) {
            eprintln!("failed to write BENCH_wallclock.json: {e}");
            std::process::exit(1);
        }
    }
    if let Some(rss) = peak_rss_bytes() {
        eprintln!("[host: peak RSS {:.1} MiB]", rss as f64 / (1024.0 * 1024.0));
    }
    if racecheck {
        run_racecheck_suite();
    }
}

/// Run the dynamic-checker suite and exit nonzero on any count mismatch.
fn run_racecheck_suite() {
    let t0 = Instant::now();
    let outcome = vopp_bench::run_racecheck();
    print!("{}", outcome.render());
    eprintln!("[racecheck suite in {:.1?}]", t0.elapsed());
    if !outcome.ok() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_flag_and_operand_parses() {
        let args = parse(&[
            "--quick",
            "--json",
            "--jobs",
            "3",
            "--trace",
            "t",
            "--metrics",
            "m",
            "--cache",
            "c",
            "--faults",
            "loss=0.02@7",
            "--critpath",
            "--racecheck",
            "all",
            "serve",
        ])
        .expect("valid command line");
        assert_eq!(
            args,
            Args {
                quick: true,
                json: true,
                racecheck: true,
                critpath: true,
                jobs: Some(3),
                trace_dir: Some("t".into()),
                metrics_dir: Some("m".into()),
                cache_dir: Some("c".into()),
                faults: FaultPlan::parse("loss=0.02@7").unwrap(),
                wanted: vec!["all".to_string(), "serve".to_string()],
            }
        );
        for f in &FAMILIES {
            assert_eq!(parse(&[f.name]).unwrap().wanted, vec![f.name.to_string()]);
        }
        assert!(parse(&["--racecheck"]).unwrap().wanted.is_empty());
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            &["--quikc", "table1"][..],
            &["tableX", "--quick"],
            &["--sim-workers", "4", "table1"],
            &["table1", "--jobs"],
            &["table1", "--jobs", "0"],
            &["table1", "--trace", "--quick"],
            &["table1", "--faults", "bogus"],
            &["--quick"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
        assert!(parse(&["--sim-workers", "4", "table1"])
            .unwrap_err()
            .contains("--sim-workers"));
    }
}
