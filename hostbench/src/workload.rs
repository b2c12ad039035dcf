//! The workloads: which cells each runs, the inputs a seed gives every cell,
//! the sequential answers each cell is checked against, and one checked run
//! of a cell.
//!
//! Cells come from the `tables` families' own enumeration (`cells_for`), so
//! a workload runs exactly the cells its family runs. The instance sizes
//! mirror the `tables` harness; at [`DEFAULT_SEED`] every input equals the
//! one `tables` uses, which the `scaleout` cross-check against the
//! committed `BENCH_scaling.json` proves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vopp_apps::gauss::{gauss_reference, run_gauss, GaussParams, GaussVariant};
use vopp_apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_apps::sor::{run_sor, sor_reference, SorParams, SorVariant};
use vopp_apps::workload::mix64;
use vopp_bench::sweep::{cells_for, CellApp, CellSpec, CellVariant, ServeFault, ServeLoad};
use vopp_bench::Scale;
use vopp_core::{ClusterConfig, FaultPlan, RunStats};
use vopp_metrics::Histogram;
use vopp_serve::{build_schedule, run_serve, serve_reference, ServeParams, ServeVariant};
use vopp_sim::{SimDuration, SimTime};
use vopp_trace::json::Value;

/// The seed at which every cell is exactly the cell `tables` runs.
pub const DEFAULT_SEED: u64 = 0;

/// A named set of cells, run one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `scaling` family at quick instances: IS/Gauss/SOR x {64, 128}
    /// nodes x {LRC_d, HLRC, VC_sd}. Bound by kernel handoff and context
    /// switches (128 cooperative OS threads); little app compute or diff
    /// volume.
    Scaleout,
    /// Full-scale Gauss and SOR at 16 nodes under LRC_d, VC_d and VC_sd
    /// (tables 4 and 6). Bound by app compute, `Region` accessors, twins
    /// and diffs; few wakes.
    Paper16,
    /// The full-scale `serve` family at 16 nodes: many small view/lock
    /// acquires, GETs beside PUTs, retransmits under loss, crash recovery.
    Serve16,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Scaleout, Workload::Paper16, Workload::Serve16];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scaleout => "scaleout",
            Workload::Paper16 => "paper16",
            Workload::Serve16 => "serve16",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells, in the order their `tables` family runs them.
    pub fn specs(self) -> Vec<CellSpec> {
        match self {
            Workload::Scaleout => cells_for("scaling", &Scale::quick()),
            Workload::Paper16 => {
                let full = Scale::full();
                let mut cells = cells_for("table4", &full);
                cells.extend(cells_for("table6", &full));
                cells
            }
            Workload::Serve16 => cells_for("serve", &Scale::full()),
        }
    }

    /// Whether the workload runs the quick instances.
    fn quick(self) -> bool {
        self == Workload::Scaleout
    }
}

/// A per-app seed for the benchmark seed: the app's own default at
/// [`DEFAULT_SEED`], a scrambled one otherwise.
fn seeded(default: u64, seed: u64) -> u64 {
    default ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one cell runs.
#[derive(Debug, Clone)]
enum Input {
    Is(IsParams, IsVariant),
    Gauss(GaussParams, GaussVariant),
    Sor(SorParams, SorVariant),
    Serve(ServeParams, ServeVariant, FaultPlan),
}

/// The answer a cell's run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// IS: the key-histogram checksum.
    Checksum(u64),
    /// Gauss/SOR: the solution checksum, bit for bit.
    Value(f64),
    /// Serve: final-store checksum, GET digest and requests served.
    Serve {
        /// [`serve_reference`].
        checksum: u64,
        /// [`get_digest_reference`]; `None` on crash cells, whose digest
        /// has no sequential reference and is instead required to repeat
        /// exactly from pass to pass.
        get_digest: Option<u64>,
        /// The whole schedule, exactly once.
        served: u64,
    },
}

/// One cell with its inputs and expected answer.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The `tables` cell this is.
    pub spec: CellSpec,
    input: Input,
    /// What its run must produce.
    pub expect: Expect,
}

/// A workload's cells and the host time their sequential references took.
pub struct Setup {
    /// Cells in run order.
    pub cells: Vec<Cell>,
    /// Host seconds spent inside the `*_reference` calls.
    pub reference_s: f64,
}

/// Generate every cell's inputs for `seed` and compute the sequential
/// answers the cells are checked against.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let mut reference_s = 0.0;
    let cells = workload
        .specs()
        .into_iter()
        .map(|spec| {
            let input = input_for(workload.quick(), &spec, seed);
            let t0 = Instant::now();
            let expect = match &input {
                Input::Is(p, v) => {
                    Expect::Checksum(is_reference(p, spec.np, *v == IsVariant::VoppLb))
                }
                Input::Gauss(p, _) => Expect::Value(gauss_reference(p, spec.np)),
                Input::Sor(p, _) => Expect::Value(sor_reference(p)),
                Input::Serve(p, _, plan) => Expect::Serve {
                    checksum: serve_reference(p),
                    get_digest: plan.crashes.is_empty().then(|| get_digest_reference(p)),
                    served: p.requests as u64,
                },
            };
            reference_s += t0.elapsed().as_secs_f64();
            Cell {
                spec,
                input,
                expect,
            }
        })
        .collect();
    Setup { cells, reference_s }
}

/// The instance a cell runs, mirroring the `tables` harness: the paper
/// instances, and at quick scale from 64 nodes up the scale-out instances
/// sized so every rank still holds work at 128 nodes.
fn input_for(quick: bool, spec: &CellSpec, seed: u64) -> Input {
    let scale_out = quick && spec.np >= 64;
    match spec.app {
        CellApp::Is => {
            let mut p = if quick {
                IsParams::quick()
            } else {
                IsParams::bench()
            };
            if scale_out {
                p.n_keys = 1 << 15;
                p.reps = 2;
            }
            p.seed = seeded(p.seed, seed);
            let v = match spec.variant {
                CellVariant::Traditional => IsVariant::Traditional,
                CellVariant::Vopp => IsVariant::Vopp,
                CellVariant::VoppLb => IsVariant::VoppLb,
                CellVariant::Mpi => unreachable!("IS has no MPI variant"),
            };
            Input::Is(p, v)
        }
        CellApp::Gauss => {
            let mut p = if quick {
                GaussParams::quick()
            } else {
                GaussParams::bench()
            };
            if scale_out {
                p.rows = 384;
                p.iters = 3;
            }
            p.seed = seeded(p.seed, seed);
            let v = match spec.variant {
                CellVariant::Traditional => GaussVariant::Traditional,
                _ => GaussVariant::Vopp,
            };
            Input::Gauss(p, v)
        }
        CellApp::Sor => {
            let mut p = if quick {
                SorParams::quick()
            } else {
                SorParams::bench()
            };
            if scale_out {
                p.rows = 512;
                p.iters = 3;
            }
            p.seed = seeded(p.seed, seed);
            let v = match spec.variant {
                CellVariant::Traditional => SorVariant::Traditional,
                _ => SorVariant::Vopp,
            };
            Input::Sor(p, v)
        }
        CellApp::Serve => {
            let sc = spec.serve.expect("serve cells carry load/fault dims");
            let mut p = if quick {
                ServeParams::quick()
            } else {
                ServeParams::bench()
            };
            if sc.load == ServeLoad::High {
                p.mean_gap_ns /= 2.0;
            }
            p.seed = seeded(p.seed, seed);
            let plan = match sc.fault {
                ServeFault::Clean => FaultPlan::none(),
                ServeFault::Loss => FaultPlan::none().with_loss(0.02, seeded(7, seed)),
                ServeFault::Slow => FaultPlan::none().with_slowdown(0, 2.0),
                ServeFault::Crash => {
                    // Node 1 down for the second quarter of the schedule.
                    let horizon = build_schedule(&p)
                        .last()
                        .expect("nonempty schedule")
                        .arrival;
                    FaultPlan::none().with_crash(
                        1,
                        SimTime(horizon / 4),
                        SimDuration::from_nanos(horizon / 4),
                    )
                }
            };
            let v = if spec.proto.is_vc() {
                ServeVariant::Vopp
            } else {
                ServeVariant::Traditional
            };
            Input::Serve(p, v, plan)
        }
        CellApp::Nn => unreachable!("no workload runs NN"),
    }
}

/// The digest a serve run's GETs must fold to. Without crashes each shard
/// is served by one node, in schedule order, so every GET observes exactly
/// the PUTs scheduled before it. A crash fails a shard over to a second
/// node while the crashed node's queue may still hold earlier PUTs, so
/// GETs in that window may read older values and no sequential answer
/// exists.
pub fn get_digest_reference(p: &ServeParams) -> u64 {
    let mut store = vec![0u32; p.shards * p.slots_per_shard];
    let mut digest = 0u64;
    for (i, rq) in build_schedule(p).iter().enumerate() {
        let slot = &mut store[rq.shard * p.slots_per_shard + rq.slot];
        if rq.write {
            *slot = slot.wrapping_add(rq.delta);
        } else {
            digest = digest.wrapping_add(mix64(i as u64, *slot as u64));
        }
    }
    digest
}

/// A verified run of one cell.
pub struct Outcome {
    /// The run's statistics.
    pub stats: RunStats,
    /// Serve cells: per-request virtual latency, merged across nodes.
    pub latency: Option<Histogram>,
    /// Serve cells: the digest of every GET's observed value.
    pub get_digest: Option<u64>,
    /// Host seconds inside the `run_*` call.
    pub run_s: f64,
}

/// Run one cell with one simulation worker and check its output. A panic
/// (including a diagnosed deadlock) or a wrong answer is an `Err` naming
/// the cell; the caller goes on to the next cell.
pub fn run(cell: &Cell) -> Result<Outcome, String> {
    let key = cell.spec.key();
    let mut cfg = ClusterConfig::new(cell.spec.np, cell.spec.proto);
    cfg.sim_workers = 1;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let (got, stats, serve) = match &cell.input {
            Input::Is(p, v) => {
                let out = run_is(&cfg, p, *v);
                (Expect::Checksum(out.value), out.stats, None)
            }
            Input::Gauss(p, v) => {
                let out = run_gauss(&cfg, p, *v);
                (Expect::Value(out.value), out.stats, None)
            }
            Input::Sor(p, v) => {
                let out = run_sor(&cfg, p, *v);
                (Expect::Value(out.value), out.stats, None)
            }
            Input::Serve(p, v, plan) => {
                cfg.faults = plan.clone();
                let out = run_serve(&cfg, p, *v);
                let got = Expect::Serve {
                    checksum: out.checksum,
                    get_digest: plan.crashes.is_empty().then_some(out.get_digest),
                    served: out.served,
                };
                (got, out.stats, Some((out.latency, out.get_digest)))
            }
        };
        let run_s = t0.elapsed().as_secs_f64();
        let (latency, get_digest) = serve.unzip();
        (
            got,
            Outcome {
                stats,
                latency,
                get_digest,
                run_s,
            },
        )
    }));
    match ran {
        Ok((got, outcome)) if got == cell.expect => Ok(outcome),
        Ok((got, _)) => Err(format!("{key}: got {got:?}, expected {:?}", cell.expect)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            Err(format!("{key}: panicked: {msg}"))
        }
    }
}

/// The committed scale-out baseline, read at build time and never written.
pub const SCALING_BASELINE: &str = include_str!("../../crates/bench/baselines/BENCH_scaling.json");

/// Compare a default-seed `scaleout` cell's virtual statistics with the
/// committed `BENCH_scaling.json` entry for the same cell: time, messages,
/// bytes, barriers, diff requests and retransmits must all be equal.
pub fn baseline_mismatch(doc: &Value, spec: &CellSpec, stats: &RunStats) -> Option<String> {
    let variant = format!("{}_{}", spec.app.label(), spec.variant.label());
    let proto = spec.proto.label().to_lowercase();
    let cells = doc.get("cells").and_then(Value::as_arr).unwrap_or(&[]);
    let entry = cells.iter().find(|c| {
        c.get("variant").and_then(Value::as_str) == Some(variant.as_str())
            && c.get("protocol").and_then(Value::as_str) == Some(proto.as_str())
            && c.get("nprocs").and_then(Value::as_u64) == Some(spec.np as u64)
    });
    let Some(entry) = entry else {
        return Some(format!("{}: no baseline entry", spec.key()));
    };
    let fields = [
        ("time_ns", stats.time.nanos()),
        ("msgs", stats.num_msgs()),
        ("bytes", stats.net.bytes),
        ("barriers", stats.nodes.barriers),
        ("diff_requests", stats.diff_requests()),
        ("rexmits", stats.rexmits()),
    ];
    let wrong: Vec<String> = fields
        .iter()
        .filter(|(name, got)| entry.get(name).and_then(Value::as_u64) != Some(*got))
        .map(|(name, got)| format!("{name} {got}"))
        .collect();
    (!wrong.is_empty()).then(|| {
        format!(
            "{}: differs from BENCH_scaling.json: {}",
            spec.key(),
            wrong.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell that panics is reported as failed, not propagated.
    #[test]
    fn panicking_cell_is_an_error() {
        let spec = cells_for("serve", &Scale::quick())[0];
        assert!(!spec.proto.is_vc());
        let cell = Cell {
            spec,
            // The view-backed store refuses to run on an LRC protocol.
            input: Input::Serve(ServeParams::quick(), ServeVariant::Vopp, FaultPlan::none()),
            expect: Expect::Checksum(0),
        };
        let err = run(&cell).err().expect("the run panics");
        assert!(err.contains("panicked"), "{err}");
    }

    /// Every scale-out cell has a baseline entry, and statistics that
    /// differ from it are reported.
    #[test]
    fn baseline_cross_check_catches_a_difference() {
        let doc = Value::parse(SCALING_BASELINE).expect("BENCH_scaling.json parses");
        for spec in Workload::Scaleout.specs() {
            let err = baseline_mismatch(&doc, &spec, &RunStats::default()).expect("differs");
            assert!(err.contains("time_ns"), "{err}");
        }
    }

    /// The default seed gives every cell the `tables` inputs.
    #[test]
    fn default_seed_keeps_the_table_inputs() {
        assert_eq!(seeded(0x6A, DEFAULT_SEED), 0x6A);
        assert_ne!(seeded(0x6A, 1), 0x6A);
    }
}
