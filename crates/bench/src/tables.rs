//! The table families: the paper's nine evaluation tables plus the `ext`,
//! `serve`, `scaling` and `netgen` families, each described once in
//! [`FAMILIES`].
//!
//! A family's [`Layout`] is its labelled columns and series of
//! [`CellSpec`]s plus the renderer of its rows. The sweep runs the cells
//! ([`crate::sweep::cells_for`] flattens the layout), and [`Family::render`]
//! reads the same cells back from the swept [`RunCache`]. Every cell runs
//! through [`execute_cell`], which validates the application result
//! against the sequential reference — a table is only produced from
//! verified executions.

use std::path::PathBuf;
use std::sync::Arc;

use vopp_apps::gauss::{gauss_reference, run_gauss, GaussParams, GaussVariant};
use vopp_apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_apps::nn::{nn_reference, run_nn, NnParams, NnVariant};
use vopp_apps::sor::{run_sor, sor_reference, SorParams, SorVariant};
use vopp_core::{ClusterConfig, FaultPlan, NetConfig, Phase, Protocol, RunStats};
use vopp_serve::{build_schedule, run_serve, serve_reference, ServeParams, ServeVariant};
use vopp_sim::{SimDuration, SimTime};
use vopp_simnet::NetGen;
use vopp_trace::{check, report, to_chrome_json, CheckConfig, Tracer};

use crate::metrics::MetricsSink;
use crate::sweep::{
    cell, dedup_cells, run_sweep, CachedRun, CellApp, CellSpec, CellVariant, RunCache, ServeCell,
    ServeFault, ServeLoad, ServePayload,
};
use crate::table::Table;
use CellApp::{Gauss, Is, Nn, Sor};
use CellVariant::{Mpi, Traditional, Vopp, VoppLb};
use Protocol::{Hlrc, LrcD, ScC, VcD, VcRdma, VcSd};

/// Problem scaling: `quick` shrinks every instance for smoke tests; the
/// full scale is the calibrated reproduction reported in EXPERIMENTS.md.
/// When `trace_dir` is set, every cluster run records a structured event
/// trace, exports it (raw JSON, Chrome/Perfetto JSON, text report) into
/// that directory and asserts the protocol conformance invariants.
/// When `metrics` is set, [`Family::render`] records every run of the
/// rendered family as a cell for the `BENCH_<app>.json` artifacts and the
/// regression gate, in layout order.
#[derive(Debug, Clone, Default)]
pub struct Scale {
    /// Use miniature problem instances and fewer processor counts.
    pub quick: bool,
    /// Where per-run trace artifacts go; `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
    /// Sink for machine-readable per-run metrics; `None` disables.
    pub metrics: Option<Arc<MetricsSink>>,
    /// Replace the default network parameters of every run (used by the
    /// regression-gate tests to demonstrate that perturbing the cost model
    /// fails the gate). A cell's own [`CellSpec::netgen`] takes precedence.
    pub net_override: Option<NetConfig>,
    /// Global fault plan applied to every run (the `tables --faults SPEC`
    /// flag): datagram loss and node slowdowns reshape all cells; crash
    /// windows are acted on by the serving workload only. Folded into the
    /// sweep cache's context hash. The serve table's fault *dimension*
    /// stacks its scenario on top of this plan.
    pub faults: FaultPlan,
    /// Attach a causal profiler to every cluster run (the `tables
    /// --critpath` flag): tables gain critical-path breakdown rows, the
    /// metrics sink gains the `BENCH_critpath.json` artifact, and (with
    /// `trace_dir`) each run writes a `<key>.critpath.perfetto.json`
    /// track. Profiling is pure observation — every other artifact stays
    /// byte-identical.
    pub critpath: bool,
}

impl Scale {
    /// Quick (smoke-test) scale without tracing.
    pub fn quick() -> Scale {
        Scale {
            quick: true,
            ..Scale::default()
        }
    }

    /// Full paper scale without tracing.
    pub fn full() -> Scale {
        Scale::default()
    }

    /// Cluster configuration for one cell: the network override (or the
    /// cell's generation), the global fault plan and, with `critpath`, a
    /// fresh profiler (causal logs are per-run state).
    fn cfg(&self, spec: &CellSpec) -> ClusterConfig {
        let mut config = ClusterConfig::new(spec.np, spec.proto);
        if let Some(net) = &self.net_override {
            config.net = net.clone();
        }
        if let Some(gen) = spec.netgen {
            config.net = gen.config();
        }
        config.faults = self.faults.clone();
        if self.critpath {
            config.profiler = Some(Arc::new(vopp_sim::CausalProfiler::new(spec.np)));
        }
        config
    }

    /// Install a fresh tracer on `config` when tracing is requested.
    fn attach_tracer(&self, config: &mut ClusterConfig) -> Option<Arc<Tracer>> {
        let dir = self.trace_dir.as_ref()?;
        std::fs::create_dir_all(dir).expect("failed to create trace directory");
        let tracer = Arc::new(Tracer::default());
        config.tracer = Some(tracer.clone());
        Some(tracer)
    }

    /// Drain a run's tracer: write the raw event stream, the Chrome-trace
    /// JSON and the wait report under `trace_dir` as `<stem>.*`, then run
    /// the protocol conformance checker and panic on any violation (a
    /// complete, non-truncated trace of a correct run must be
    /// violation-free).
    fn finish_trace(&self, tracer: Option<Arc<Tracer>>, stem: &str, proto: Protocol) {
        let Some(tr) = tracer else { return };
        let dir = self.trace_dir.as_ref().expect("tracer implies trace_dir");
        let trace = tr.take();
        let w = |suffix: &str, content: String| {
            let path = dir.join(format!("{stem}.{suffix}"));
            std::fs::write(&path, content)
                .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        };
        w("events.json", trace.to_json());
        w("perfetto.json", to_chrome_json(&trace));
        w("report.txt", report(&trace, 10));
        if trace.evicted == 0 {
            let violations = check(&trace, &check_config_for(proto));
            assert!(
                violations.is_empty(),
                "{stem}: {} conformance violation(s):\n{}",
                violations.len(),
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        } else {
            // A wrapped ring lost its prefix; interval-pairing invariants
            // cannot be judged on a truncated stream.
            eprintln!(
                "[trace] {stem}: ring evicted {} events, checker skipped",
                trace.evicted
            );
        }
    }

    /// When both tracing and profiling are on, export the run's critical
    /// path as its own Perfetto track (`<stem>.critpath.perfetto.json`).
    /// A separate file keeps the existing `perfetto.json` stream
    /// byte-identical with the profiler on or off.
    fn finish_critpath(&self, stats: &RunStats, stem: &str) {
        if let (Some(dir), Some(cp)) = (self.trace_dir.as_ref(), stats.crit.as_deref()) {
            std::fs::create_dir_all(dir).expect("failed to create trace directory");
            let path = dir.join(format!("{stem}.critpath.perfetto.json"));
            std::fs::write(&path, vopp_metrics::critpath_to_chrome_json(cp))
                .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        }
    }

    /// Processor count of the statistics tables (paper: 16).
    pub fn stats_procs(&self) -> usize {
        if self.quick {
            4
        } else {
            16
        }
    }

    /// Processor counts of the speedup tables (paper: 2..32).
    pub fn speedup_procs(&self) -> Vec<usize> {
        if self.quick {
            vec![2, 4]
        } else {
            vec![2, 4, 8, 16, 24, 32]
        }
    }

    /// Node counts of the scale-out family (`tables scaling`), well past
    /// the paper's 32-processor ceiling. Identical at both scales —
    /// `quick` shrinks the instances, not the cluster.
    pub fn scaling_procs(&self) -> Vec<usize> {
        vec![64, 128]
    }

    /// IS instance for an `np`-node run. The paper tables (np <= 32) use
    /// the calibrated instances; the scale-out cells keep the full bench
    /// instance at full scale and, at quick scale, an instance sized so
    /// every rank still holds keys at 128 nodes.
    fn is_at(&self, np: usize) -> IsParams {
        if !self.quick {
            return IsParams::bench();
        }
        let mut p = IsParams::quick();
        if np >= SCALING_MIN_PROCS {
            p.n_keys = 1 << 15;
            p.reps = 2;
        }
        p
    }

    /// Gauss instance for an `np`-node run (see [`Scale::is_at`]).
    fn gauss_at(&self, np: usize) -> GaussParams {
        if !self.quick {
            return GaussParams::bench();
        }
        let mut p = GaussParams::quick();
        if np >= SCALING_MIN_PROCS {
            // 3 rows per rank at 128 nodes; short sweeps keep it smoke-test
            // sized.
            p.rows = 384;
            p.iters = 3;
        }
        p
    }

    /// SOR instance for an `np`-node run (see [`Scale::is_at`]).
    fn sor_at(&self, np: usize) -> SorParams {
        if !self.quick {
            return SorParams::bench();
        }
        let mut p = SorParams::quick();
        if np >= SCALING_MIN_PROCS {
            // 4 rows per rank at 128 nodes.
            p.rows = 512;
            p.iters = 3;
        }
        p
    }

    fn nn(&self) -> NnParams {
        if self.quick {
            NnParams::quick()
        } else {
            NnParams::bench()
        }
    }

    fn serve(&self, load: ServeLoad) -> ServeParams {
        let mut p = if self.quick {
            ServeParams::quick()
        } else {
            ServeParams::bench()
        };
        if load == ServeLoad::High {
            // Double the offered load: half the mean interarrival gap.
            p.mean_gap_ns /= 2.0;
        }
        p
    }
}

/// Node counts at or above this use the scale-out instances (see
/// [`Scale::is_at`]); below it, the paper instances. The paper's largest
/// cluster is 32 processors, so the two regimes never overlap.
const SCALING_MIN_PROCS: usize = 64;

/// The conformance-invariant set a protocol's traces must satisfy.
///
/// * `VC_sd` ships integrated diffs on grants, so its runs must emit zero
///   diff requests (the paper's headline protocol property). `VC_rdma`
///   ships the same integrated diffs as one-sided writes, so it inherits
///   the invariant.
/// * Both VC protocols scope consistency to views, so their barrier
///   releases must carry no write notices (paper §3.2).
/// * All protocols run over the reliable transport whose retransmission
///   timeout is derived from the network generation (the historical 1 s on
///   the paper testbed), far above that network's round trip, so every
///   retransmission outside a synchronization wait must be covered by a
///   preceding datagram drop (queue overflow under bursts, or a background
///   bit error); during barrier/lock/view waits the reply is legitimately
///   deferred past the timeout.
pub fn check_config_for(proto: Protocol) -> CheckConfig {
    CheckConfig {
        expect_zero_diff_requests: matches!(proto, VcSd | VcRdma),
        expect_no_barrier_notices: proto.is_vc(),
        check_rexmit_overflow: true,
        check_non_nested: true,
    }
}

/// Simulate one cell: build its cluster configuration, run the
/// application, check the result against the sequential reference, and
/// (when tracing) write its trace and critical-path artifacts under the
/// stem [`CellSpec::key`] and assert conformance. Returns the statistics,
/// plus the serve payload on serve cells. The only place a cell runs;
/// called by the sweep workers. Metrics are recorded later, by
/// [`Family::render`], so their order never depends on scheduling.
pub(crate) fn execute_cell(scale: &Scale, spec: &CellSpec) -> (RunStats, Option<ServePayload>) {
    let np = spec.np;
    let mut config = scale.cfg(spec);
    let tracer = scale.attach_tracer(&mut config);
    let (stats, serve) = match spec.app {
        Is => {
            let v = match spec.variant {
                Traditional => IsVariant::Traditional,
                Vopp => IsVariant::Vopp,
                VoppLb => IsVariant::VoppLb,
                Mpi => panic!("IS has no MPI variant"),
            };
            let p = scale.is_at(np);
            let out = run_is(&config, &p, v);
            let lb = v == IsVariant::VoppLb;
            assert_eq!(out.value, is_reference(&p, np, lb), "IS result mismatch");
            (out.stats, None)
        }
        Gauss => {
            let v = match spec.variant {
                Traditional => GaussVariant::Traditional,
                Vopp => GaussVariant::Vopp,
                other => panic!("Gauss has no {other:?} variant"),
            };
            let p = scale.gauss_at(np);
            let out = run_gauss(&config, &p, v);
            assert_eq!(out.value, gauss_reference(&p, np), "Gauss result mismatch");
            (out.stats, None)
        }
        Sor => {
            let v = match spec.variant {
                Traditional => SorVariant::Traditional,
                Vopp => SorVariant::Vopp,
                other => panic!("SOR has no {other:?} variant"),
            };
            let p = scale.sor_at(np);
            let out = run_sor(&config, &p, v);
            assert_eq!(out.value, sor_reference(&p), "SOR result mismatch");
            (out.stats, None)
        }
        Nn => {
            let v = match spec.variant {
                Traditional => NnVariant::Traditional,
                Vopp => NnVariant::Vopp,
                Mpi => NnVariant::Mpi,
                VoppLb => panic!("NN has no VoppLb variant"),
            };
            let p = scale.nn();
            let out = run_nn(&config, &p, v);
            assert_eq!(out.value, nn_reference(&p, np), "NN result mismatch");
            (out.stats, None)
        }
        CellApp::Serve => {
            let sc = spec.serve.expect("serve cells carry load/fault dims");
            // Views on the VC family, a lock-per-shard store on the rest.
            let style = match spec.variant {
                Traditional => ServeVariant::Traditional,
                Vopp => ServeVariant::Vopp,
                other => panic!("serve has no {other:?} variant"),
            };
            let p = scale.serve(sc.load);
            config.faults = serve_fault_plan(&p, config.faults.clone(), sc.fault);
            let out = run_serve(&config, &p, style);
            assert_eq!(
                out.checksum,
                serve_reference(&p),
                "serve store diverged from the sequential reference"
            );
            let payload = ServePayload {
                latency: out.latency,
                checksum: out.checksum,
                get_digest: out.get_digest,
                served: out.served,
                recovered_pages: out.recovered_pages,
            };
            (out.stats, Some(payload))
        }
    };
    let stem = spec.key();
    scale.finish_trace(tracer, &stem, spec.proto);
    scale.finish_critpath(&stats, &stem);
    (stats, serve)
}

/// Promote a serve cell's fault dimension into the run's fault plan,
/// stacked on top of the global `--faults` plan.
fn serve_fault_plan(p: &ServeParams, base: FaultPlan, fault: ServeFault) -> FaultPlan {
    match fault {
        ServeFault::Clean => base,
        ServeFault::Loss => base.with_loss(0.02, 7),
        ServeFault::Slow => base.with_slowdown(0, 2.0),
        ServeFault::Crash => {
            // Crash node 1 at a quarter of the schedule horizon, down for
            // another quarter: recovery happens mid-stream with plenty of
            // post-recovery traffic left to measure.
            let horizon = build_schedule(p).last().expect("nonempty schedule").arrival;
            base.with_crash(
                1,
                SimTime(horizon / 4),
                SimDuration::from_nanos(horizon / 4),
            )
        }
    }
}

// -------------------------------------------------------------------
// The registry
// -------------------------------------------------------------------

/// One table family: its name, whether `tables all` includes it, where
/// its runs record their metrics, and its cell layout.
pub struct Family {
    /// The name `tables` takes (`table1` .. `table9`, `ext`, `serve`,
    /// `scaling`, `netgen`); also the metrics `table` label.
    pub name: &'static str,
    /// Whether `tables all` renders it (the paper tables); the others are
    /// opt-in by name.
    pub in_all: bool,
    /// Record under the family's own `BENCH_<name>.json` instead of each
    /// application's `BENCH_<app>.json`.
    own_artifact: bool,
    layout: fn(&Scale) -> Layout,
}

/// Every table family, in render order.
pub const FAMILIES: [Family; 13] = [
    Family::paper("table1", |s| {
        stats(s, "Table 1: Statistics of IS", Is, &PAPER_COLUMNS, false)
    }),
    Family::paper("table2", |s| {
        let columns = [("VC_d", VoppLb, VcD), ("VC_sd", VoppLb, VcSd)];
        let title = "Table 2: Statistics of IS with fewer barriers";
        stats(s, title, Is, &columns, false)
    }),
    Family::paper("table3", |s| {
        let title = "Table 3: Speedup of IS on LRC_d and VC_sd";
        // The hoisted-barrier VOPP variant is the paper's `VC_sd lb` row.
        let rows = [LRC_D_ROW, VC_SD_ROW, ("VC_sd lb", VoppLb, VcSd)];
        speedup(s, title, Is, &rows)
    }),
    Family::paper("table4", |s| {
        let title = "Table 4: Statistics of Gauss";
        stats(s, title, Gauss, &PAPER_COLUMNS, false)
    }),
    Family::paper("table5", |s| {
        let title = "Table 5: Speedup of Gauss on LRC_d and VC_sd";
        speedup(s, title, Gauss, &[LRC_D_ROW, VC_SD_ROW])
    }),
    Family::paper("table6", |s| {
        stats(s, "Table 6: Statistics of SOR", Sor, &PAPER_COLUMNS, false)
    }),
    Family::paper("table7", |s| {
        let title = "Table 7: Speedup of SOR on LRC_d and VC_sd";
        speedup(s, title, Sor, &[LRC_D_ROW, VC_SD_ROW])
    }),
    // NN additionally reports the Acquire Time row.
    Family::paper("table8", |s| {
        stats(s, "Table 8: Statistics of NN", Nn, &PAPER_COLUMNS, true)
    }),
    Family::paper("table9", |s| {
        let title = "Table 9: Speedup of NN on LRC_d, VC_sd and MPI";
        // The MPI runs carry VC_sd only for their cell key.
        speedup(s, title, Nn, &[LRC_D_ROW, VC_SD_ROW, ("MPI", Mpi, VcSd)])
    }),
    Family::opt_in("ext", false, ext),
    Family::opt_in("serve", false, serve),
    Family::opt_in("scaling", true, scaling),
    Family::opt_in("netgen", true, netgen),
];

/// The family called `name`, if any.
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// Sweep one family's cells on one worker and render it — the whole
/// `tables NAME --jobs 1` pipeline for a single table.
pub fn sweep_table(name: &str, scale: &Scale) -> Table {
    let cells = dedup_cells(&crate::sweep::cells_for(name, scale));
    let cache = run_sweep(scale, &cells, 1);
    family(name)
        .expect("cells_for accepted the name")
        .render(scale, &cache)
}

impl Family {
    const fn paper(name: &'static str, layout: fn(&Scale) -> Layout) -> Family {
        Family {
            name,
            in_all: true,
            own_artifact: false,
            layout,
        }
    }

    const fn opt_in(
        name: &'static str,
        own_artifact: bool,
        layout: fn(&Scale) -> Layout,
    ) -> Family {
        Family {
            name,
            in_all: false,
            own_artifact,
            layout,
        }
    }

    /// The family's cells at `scale`, in sweep order.
    pub fn cells(&self, scale: &Scale) -> Vec<CellSpec> {
        (self.layout)(scale).cells()
    }

    /// Render the family from a swept cache. With a metrics sink attached,
    /// every run is first recorded under this family's labels, in sweep
    /// order. Panics if a cell is missing from `cache`.
    pub fn render(&self, scale: &Scale, cache: &RunCache) -> Table {
        let layout = (self.layout)(scale);
        let run = |spec: &CellSpec| {
            cache
                .get(&spec.key())
                .unwrap_or_else(|| panic!("cell {} was not swept", spec.key()))
        };
        if let Some(sink) = &scale.metrics {
            sink.begin_table(self.name);
            for spec in layout.cells() {
                let (app, variant, proto) = self.metric_labels(&spec);
                let r = run(&spec);
                match &r.serve {
                    Some(p) => sink.record_serve(&variant, &proto, spec.np, &r.stats, p),
                    None => sink.record(app, &variant, &proto, spec.np, &r.stats),
                }
            }
        }
        layout.render(&run)
    }

    /// The `(app, variant, protocol)` metrics labels of one of this
    /// family's cells. The variant carries the serve load/fault and the
    /// network generation (`vopp_base_crash`, `trad_10g`); a family with
    /// an artifact of its own records under its name and prefixes the
    /// application (`is_trad`, `is_vopp_rdma`). NN's MPI runs record
    /// protocol `mpi`: they run message passing, not a DSM protocol.
    fn metric_labels(&self, spec: &CellSpec) -> (&'static str, String, String) {
        let (app, variant) = if self.own_artifact {
            let variant = format!("{}_{}", spec.app.label(), spec.variant_label());
            (self.name, variant)
        } else {
            (spec.app.label(), spec.variant_label())
        };
        let proto = match spec.variant {
            Mpi => "mpi".to_string(),
            _ => spec.proto.label().to_lowercase(),
        };
        (app, variant, proto)
    }
}

/// A family's cell layout: labelled columns, labelled series of cells
/// (one per column), an optional base run, and the renderer of its rows,
/// which reads the runs of these same cells.
struct Layout {
    title: String,
    columns: Vec<String>,
    /// A speedup table's one-processor base run, swept first.
    base: Option<CellSpec>,
    series: Vec<(String, Vec<CellSpec>)>,
    /// Sweep column by column, series innermost, instead of series by
    /// series.
    by_column: bool,
    rows: Box<RowsFn>,
}

/// Renders a layout's rows from its runs.
type RowsFn = dyn Fn(&mut Table, &Grid<'_>);

/// A layout's runs, in the layout's own shape.
struct Grid<'a> {
    base: Option<&'a CachedRun>,
    series: Vec<Series<'a>>,
}

/// One labelled series: its cells and their runs, one per column.
struct Series<'a> {
    label: &'a str,
    cells: &'a [CellSpec],
    runs: Vec<&'a CachedRun>,
}

impl Layout {
    /// A single unlabelled series with one labelled cell per column.
    fn columns(
        title: String,
        columns: Vec<(String, CellSpec)>,
        rows: impl Fn(&mut Table, &[&CachedRun], &[CellSpec]) + 'static,
    ) -> Layout {
        let (labels, cells) = columns.into_iter().unzip();
        Layout {
            title,
            columns: labels,
            base: None,
            series: vec![(String::new(), cells)],
            by_column: false,
            rows: Box::new(move |t, g| rows(t, &g.series[0].runs, g.series[0].cells)),
        }
    }

    /// Every cell, in sweep order.
    fn cells(&self) -> Vec<CellSpec> {
        let mut out: Vec<CellSpec> = self.base.into_iter().collect();
        if self.by_column {
            for c in 0..self.columns.len() {
                out.extend(self.series.iter().map(|(_, cells)| cells[c]));
            }
        } else {
            out.extend(
                self.series
                    .iter()
                    .flat_map(|(_, cells)| cells.iter().copied()),
            );
        }
        out
    }

    /// Render the table, reading each cell's run through `run`.
    fn render<'a>(&'a self, run: &dyn Fn(&CellSpec) -> &'a CachedRun) -> Table {
        let grid = Grid {
            base: self.base.as_ref().map(run),
            series: self
                .series
                .iter()
                .map(|(label, cells)| Series {
                    label,
                    cells,
                    runs: cells.iter().map(run).collect(),
                })
                .collect(),
        };
        let mut t = Table::new(self.title.clone(), self.columns.clone());
        (self.rows)(&mut t, &grid);
        t
    }
}

/// The statistics tables' columns: the paper's baseline, VOPP on the
/// diff-based VC protocol, and VOPP on the headline protocol.
const PAPER_COLUMNS: [(&str, CellVariant, Protocol); 3] = [
    ("LRC_d", Traditional, LrcD),
    ("VC_d", Vopp, VcD),
    ("VC_sd", Vopp, VcSd),
];

/// The speedup tables' shared rows.
const LRC_D_ROW: (&str, CellVariant, Protocol) = ("LRC_d", Traditional, LrcD);
const VC_SD_ROW: (&str, CellVariant, Protocol) = ("VC_sd", Vopp, VcSd);

/// The applications with their table labels.
const APPS: [(CellApp, &str); 4] = [(Is, "IS"), (Gauss, "Gauss"), (Sor, "SOR"), (Nn, "NN")];

/// A statistics table (1, 2, 4, 6, 8): one column per `(variant, proto)`
/// at the stats processor count.
fn stats(
    s: &Scale,
    title: &str,
    app: CellApp,
    columns: &[(&str, CellVariant, Protocol)],
    acquire_time: bool,
) -> Layout {
    let np = s.stats_procs();
    Layout::columns(
        format!("{title} on {np} processors"),
        columns
            .iter()
            .map(|&(label, v, p)| (label.to_string(), cell(app, v, p, np)))
            .collect(),
        move |t, runs, _| stats_rows(t, runs, acquire_time),
    )
}

/// A speedup table (3, 5, 7, 9): the traditional program on one processor
/// is the base; each labelled `(variant, proto)` row runs at every
/// speedup processor count.
fn speedup(s: &Scale, title: &str, app: CellApp, rows: &[(&str, CellVariant, Protocol)]) -> Layout {
    let procs = s.speedup_procs();
    Layout {
        title: title.to_string(),
        columns: procs.iter().map(|p| format!("{p}-p")).collect(),
        base: Some(cell(app, Traditional, LrcD, 1)),
        series: rows
            .iter()
            .map(|&(label, v, p)| {
                let cells = procs.iter().map(|&n| cell(app, v, p, n)).collect();
                (label.to_string(), cells)
            })
            .collect(),
        by_column: false,
        rows: Box::new(|t, g| {
            let base = g.base.expect("speedup tables have a base run");
            let base = base.stats.time.as_secs_f64();
            for s in &g.series {
                row(t, s.label, &s.runs, |r| Table::f(base / r.time_secs(), 2));
            }
        }),
    }
}

/// Extension table (not in the paper): the four traditional applications
/// on homeless vs. home-based LRC at the stats processor count — the
/// trade-off studied in the authors' companion work.
fn ext(s: &Scale) -> Layout {
    let np = s.stats_procs();
    let columns = APPS
        .iter()
        .flat_map(|&(app, name)| {
            [("LRC_d", LrcD), ("HLRC", Hlrc)]
                .map(|(pl, p)| (format!("{name} {pl}"), cell(app, Traditional, p, np)))
        })
        .collect();
    Layout::columns(
        format!("Extension: traditional applications on LRC_d vs HLRC_d, {np} processors"),
        columns,
        |t, runs, _| {
            row(t, "Time (Sec.)", runs, |s| Table::f(s.time_secs(), 2));
            row(t, "Data (MByte)", runs, |s| Table::f(s.data_mbytes(), 2));
            row(t, "Num. Msg", runs, |s| Table::i(s.num_msgs()));
            row(t, "Diff/Page Requests", runs, |s| {
                Table::i(s.diff_requests())
            });
            critpath_rows(t, runs);
        },
    )
}

/// The serving table (not in the paper): the open-loop sharded KV store
/// across the full protocol matrix at base load, then the paper's baseline
/// vs the headline VOPP protocol at doubled load and under loss and
/// slowdown, and crash/recovery (modelled for the view-backed store only).
/// Latency columns report per-request service time; the `x clean` rows
/// divide each column's tail by the same protocol's fault-free base-load
/// cell, so crash/recovery degradation is visible directly in the table.
fn serve(s: &Scale) -> Layout {
    use ServeFault::{Clean, Crash, Loss, Slow};
    use ServeLoad::{Base, High};
    const MATRIX: [(&str, Protocol, ServeLoad, ServeFault); 13] = [
        ("LRC_d", LrcD, Base, Clean),
        ("HLRC", Hlrc, Base, Clean),
        ("ScC_d", ScC, Base, Clean),
        ("VC_d", VcD, Base, Clean),
        ("VC_sd", VcSd, Base, Clean),
        ("LRC_d hi", LrcD, High, Clean),
        ("VC_sd hi", VcSd, High, Clean),
        ("LRC_d loss", LrcD, Base, Loss),
        ("VC_sd loss", VcSd, Base, Loss),
        ("LRC_d slow", LrcD, Base, Slow),
        ("VC_sd slow", VcSd, Base, Slow),
        ("VC_d crash", VcD, Base, Crash),
        ("VC_sd crash", VcSd, Base, Crash),
    ];
    let np = s.stats_procs();
    let columns = MATRIX
        .iter()
        .map(|&(label, proto, load, fault)| {
            // Views on the VC family, a lock-per-shard store on the rest.
            let variant = if proto.is_vc() { Vopp } else { Traditional };
            let spec = CellSpec {
                serve: Some(ServeCell { load, fault }),
                ..cell(CellApp::Serve, variant, proto, np)
            };
            (label.to_string(), spec)
        })
        .collect();
    Layout::columns(
        format!("Serve: open-loop KV store on {np} processors (protocol x load x faults)"),
        columns,
        serve_rows,
    )
}

fn serve_rows(t: &mut Table, runs: &[&CachedRun], cells: &[CellSpec]) {
    fn payload(r: &CachedRun) -> &ServePayload {
        r.serve.as_ref().expect("serve cells carry a serve payload")
    }
    let clean = ServeCell {
        load: ServeLoad::Base,
        fault: ServeFault::Clean,
    };
    // Fault-free base-load tail per protocol: the degradation denominator.
    let clean_of = |proto: Protocol| -> &ServePayload {
        let i = cells
            .iter()
            .position(|c| c.proto == proto && c.serve == Some(clean))
            .expect("every protocol has a clean base cell");
        payload(runs[i])
    };
    let usec = |ns: u64| Table::f(ns as f64 / 1000.0, 1);
    row(t, "Time (Sec.)", runs, |s| Table::f(s.time_secs(), 2));
    let mut prow = |label: &str, f: &dyn Fn(&CellSpec, &ServePayload) -> String| {
        let values = cells.iter().zip(runs).map(|(c, r)| f(c, payload(r)));
        t.row(label, values.collect());
    };
    prow("Latency p50 (usec.)", &|_, p| usec(p.latency.quantile(0.5)));
    prow("Latency p99 (usec.)", &|_, p| usec(p.latency.p99()));
    prow("Latency p99.9 (usec.)", &|_, p| usec(p.latency.p999()));
    prow("Latency max (usec.)", &|_, p| usec(p.latency.max_ns()));
    prow("p99 x clean", &|c, p| {
        let base = clean_of(c.proto).latency.p99().max(1);
        Table::f(p.latency.p99() as f64 / base as f64, 2)
    });
    prow("p99.9 x clean", &|c, p| {
        let base = clean_of(c.proto).latency.p999().max(1);
        Table::f(p.latency.p999() as f64 / base as f64, 2)
    });
    row(t, "Num. Msg", runs, |s| Table::i(s.num_msgs()));
    row(t, "Rexmit", runs, |s| Table::i(s.rexmits()));
    t.row(
        "Recovered Pages",
        runs.iter()
            .map(|r| Table::i(payload(r).recovered_pages))
            .collect(),
    );
    critpath_rows(t, runs);
}

/// Scale-out table (not in the paper): IS, Gauss and SOR at 64 and 128
/// nodes on the paper's baseline (LRC_d), home-based LRC and the headline
/// VOPP protocol (VC_sd): the event-dense regime where host-side
/// scheduling cost dominates the wall clock (docs/PERFORMANCE.md §4).
/// Swept column by column, protocols innermost.
fn scaling(s: &Scale) -> Layout {
    let procs = s.scaling_procs();
    let columns: Vec<(CellApp, &str, usize)> = APPS[..3]
        .iter()
        .flat_map(|&(app, name)| procs.iter().map(move |&np| (app, name, np)))
        .collect();
    Layout {
        title: "Scale-out: IS/Gauss/SOR at 64 and 128 nodes".to_string(),
        columns: columns
            .iter()
            .map(|(_, name, np)| format!("{name} {np}p"))
            .collect(),
        base: None,
        series: [(LrcD, Traditional), (Hlrc, Traditional), (VcSd, Vopp)]
            .iter()
            .map(|&(proto, v)| {
                let cells = columns.iter().map(|&(app, _, np)| cell(app, v, proto, np));
                (proto.label().to_string(), cells.collect())
            })
            .collect(),
        by_column: true,
        rows: Box::new(|t, g| {
            for s in &g.series {
                let label = format!("{} Time (Sec.)", s.label);
                row(t, label, &s.runs, |r| Table::f(r.time_secs(), 2));
            }
            // The headline protocol's communication profile at scale.
            let vc = g.series.last().expect("scaling has series");
            let data = format!("{} Data (MByte)", vc.label);
            row(t, data, &vc.runs, |r| Table::f(r.data_mbytes(), 2));
            let msgs = format!("{} Num. Msg", vc.label);
            row(t, msgs, &vc.runs, |r| Table::i(r.num_msgs()));
            critpath_rows(t, &vc.runs);
        }),
    }
}

/// The generations the `netgen` family sweeps: the paper's testbed, a
/// modern Ethernet, and the RDMA-class interconnect. The in-between
/// presets exist ([`NetGen::ALL`]) but three points tell the story.
pub const NETGEN_GENS: [NetGen; 3] = [NetGen::Eth100m, NetGen::Eth10g, NetGen::Rdma];

/// The protocol columns of the `netgen` family: the paper's baseline, its
/// headline protocol, and the RDMA-native variant.
pub const NETGEN_PROTOS: [(Protocol, CellVariant); 3] =
    [(LrcD, Traditional), (VcSd, Vopp), (VcRdma, Vopp)];

/// Network-generation table (not in the paper): the four applications
/// under LRC_d, VC_sd and VC_rdma as the interconnect advances from the
/// paper's 100 Mbps testbed through 10 GbE to an RDMA-class fabric. The
/// phase-accounting rows make the bottleneck shift directly visible: the
/// wait shares that dominate at 100 Mbps collapse with the network, the
/// compute share rises toward 100%, and on the RDMA fabric VC_rdma sheds
/// the residual acquire wait and protocol CPU that VC_sd still pays for
/// inline diff application. Every cell (including eth100m, which equals
/// the default config bit-for-bit) carries its generation in the key, so
/// the family never aliases the paper tables' cells.
fn netgen(s: &Scale) -> Layout {
    let np = s.stats_procs();
    let columns: Vec<_> = NETGEN_GENS
        .iter()
        .flat_map(|&gen| NETGEN_PROTOS.map(|(proto, v)| (gen, proto, v)))
        .collect();
    Layout {
        title: format!("Netgen: network generations on {np} processors (LRC_d / VC_sd / VC_rdma)"),
        columns: columns
            .iter()
            .map(|(gen, proto, _)| format!("{} {}", gen.label(), proto.label()))
            .collect(),
        base: None,
        series: APPS
            .iter()
            .map(|&(app, name)| {
                let cells = columns.iter().map(|&(gen, proto, v)| CellSpec {
                    netgen: Some(gen),
                    ..cell(app, v, proto, np)
                });
                (name.to_string(), cells.collect())
            })
            .collect(),
        by_column: false,
        rows: Box::new(|t, g| {
            for s in &g.series {
                let (l, runs) = (s.label, &s.runs);
                row(t, format!("{l} Time (Sec.)"), runs, |r| {
                    Table::f(r.time_secs(), 2)
                });
                row(t, format!("{l} Data (MByte)"), runs, |r| {
                    Table::f(r.data_mbytes(), 2)
                });
                row(t, format!("{l} Rexmit"), runs, |r| Table::i(r.rexmits()));
                let phases = [
                    ("Compute (%)", Phase::Compute),
                    ("Proto CPU (%)", Phase::ProtoCpu),
                    ("Barrier Wait (%)", Phase::BarrierWait),
                    ("Acquire Wait (%)", Phase::AcquireWait),
                    ("Diff Wait (%)", Phase::DataWait),
                ];
                for (phase_label, phase) in phases {
                    row(t, format!("{l} {phase_label}"), runs, |r| {
                        Table::f(r.phase_pct(phase), 1)
                    });
                }
                row(t, format!("{l} Send Overhead (%)"), runs, |r| {
                    Table::f(r.send_overhead_pct(), 1)
                });
            }
        }),
    }
}

// -------------------------------------------------------------------
// Row renderers
// -------------------------------------------------------------------

/// One row with a value per run.
fn row(
    t: &mut Table,
    label: impl Into<String>,
    runs: &[&CachedRun],
    f: impl Fn(&RunStats) -> String,
) {
    t.row(label, runs.iter().map(|r| f(&r.stats)).collect());
}

/// The statistics rows shared by Tables 1, 2, 4, 6 and 8.
fn stats_rows(t: &mut Table, runs: &[&CachedRun], with_acquire_time: bool) {
    row(t, "Time (Sec.)", runs, |s| Table::f(s.time_secs(), 2));
    row(t, "Barriers", runs, |s| Table::i(s.barriers()));
    row(t, "Acquires", runs, |s| Table::i(s.acquires()));
    row(t, "Data (MByte)", runs, |s| Table::f(s.data_mbytes(), 2));
    row(t, "Num. Msg", runs, |s| Table::i(s.num_msgs()));
    row(t, "Diff Requests", runs, |s| Table::i(s.diff_requests()));
    row(t, "Barrier Time (usec.)", runs, |s| {
        Table::f(s.barrier_time_usec(), 0)
    });
    if with_acquire_time {
        row(t, "Acquire Time (usec.)", runs, |s| {
            Table::f(s.acquire_time_usec(), 0)
        });
    }
    row(t, "Rexmit", runs, |s| Table::i(s.rexmits()));
    // Execution-time breakdown (§5 discussion): where did each protocol's
    // time go? Percentages of summed per-node virtual time; the four phase
    // rows plus send overhead cover every nanosecond except protocol CPU
    // counted inside "Send Overhead".
    for (label, phase) in [
        ("Compute (%)", Phase::Compute),
        ("Barrier Wait (%)", Phase::BarrierWait),
        ("Acquire Wait (%)", Phase::AcquireWait),
        ("Diff Wait (%)", Phase::DataWait),
    ] {
        row(t, label, runs, |s| Table::f(s.phase_pct(phase), 1));
    }
    row(t, "Send Overhead (%)", runs, |s| {
        Table::f(s.send_overhead_pct(), 1)
    });
    critpath_rows(t, runs);
}

/// Critical-path breakdown rows, appended to a table when any of its runs
/// was profiled (`--critpath`). Every percentage is of the *makespan*:
/// unlike the summed-per-node breakdown above, these rows decompose the
/// single chain of events that determined the finish time. Unprofiled
/// columns (e.g. the NN MPI variant, which bypasses the cluster runtime)
/// render `-`.
fn critpath_rows(t: &mut Table, runs: &[&CachedRun]) {
    use vopp_metrics::{CritPath, OpKind};
    let crits: Vec<Option<&CritPath>> = runs.iter().map(|r| r.stats.crit.as_deref()).collect();
    if crits.iter().all(Option::is_none) {
        return;
    }
    let ceiling = |x: f64| {
        if x.is_finite() {
            format!("{x:.2}x")
        } else {
            "inf".to_string()
        }
    };
    let mut row = |label: &str, f: &dyn Fn(&CritPath) -> String| {
        t.row(
            label,
            crits
                .iter()
                .map(|c| c.map_or_else(|| "-".to_string(), f))
                .collect(),
        );
    };
    row("CP Compute (%)", &|c| Table::f(c.pct(c.cpu_app_ns()), 1));
    row("CP Overhead (%)", &|c| {
        Table::f(c.pct(c.cpu_overhead_ns()), 1)
    });
    row("CP Diff CPU (%)", &|c| Table::f(c.pct(c.diff_cpu_ns()), 1));
    row("CP Idle (%)", &|c| {
        Table::f(c.pct(c.cpu_op_ns(OpKind::Idle)), 1)
    });
    row("CP Net Barrier (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Barrier)), 1)
    });
    row("CP Net Acquire (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Acquire)), 1)
    });
    row("CP Net Data (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Data)), 1)
    });
    row("CP Net Flush (%)", &|c| {
        Table::f(c.pct(c.wait_ns(OpKind::Flush)), 1)
    });
    row("CP Timeout (%)", &|c| Table::f(c.pct(c.timeout_ns()), 1));
    row("Ceil. net free", &|c| {
        ceiling(c.ceiling(c.whatif_net_free_ns()))
    });
    row("Ceil. diff free", &|c| {
        ceiling(c.ceiling(c.whatif_diff_free_ns()))
    });
    row("Ceil. barrier free", &|c| {
        ceiling(c.ceiling(c.whatif_barrier_free_ns()))
    });
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use super::*;
    use crate::sweep::cells_for;

    /// A stand-in run: enough for every renderer, serve payload included.
    fn fake_run(spec: &CellSpec) -> CachedRun {
        let stats = RunStats {
            nprocs: spec.np,
            time: SimTime(1_000_000),
            ..RunStats::default()
        };
        let serve = spec.serve.map(|_| {
            let mut latency = vopp_metrics::Histogram::default();
            latency.record(5_000);
            ServePayload {
                latency,
                checksum: 0,
                get_digest: 0,
                served: 1,
                recovered_pages: 0,
            }
        });
        CachedRun {
            stats,
            serve,
            wall_ns: 0,
        }
    }

    /// Each family's renderer reads exactly the runs its sweep produces,
    /// and every row of the rendered table has one value per column.
    #[test]
    fn every_family_renders_exactly_its_swept_cells() {
        for scale in [Scale::quick(), Scale::full()] {
            for f in &FAMILIES {
                let cells = cells_for(f.name, &scale);
                let runs: BTreeMap<String, CachedRun> =
                    cells.iter().map(|c| (c.key(), fake_run(c))).collect();
                let reads = Cell::new(0);
                let layout = (f.layout)(&scale);
                let table = layout.render(&|spec| {
                    reads.set(reads.get() + 1);
                    &runs[&spec.key()]
                });
                assert_eq!(reads.get(), cells.len(), "{} run count", f.name);
                assert!(!table.rows.is_empty(), "{} has no rows", f.name);
                for (label, values) in &table.rows {
                    assert_eq!(values.len(), table.columns.len(), "{}: {label}", f.name);
                }
            }
        }
    }
}
