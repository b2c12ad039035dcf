//! Regeneration of the paper's nine evaluation tables.
//!
//! Every run validates its application result against the sequential
//! reference before reporting statistics — a table is only produced from
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
use vopp_trace::{check, report, to_chrome_json, CheckConfig, Tracer};

use vopp_simnet::NetGen;

use crate::metrics::MetricsSink;
use crate::sweep::{
    CellApp, CellSpec, CellVariant, RunCache, ServeCell, ServeFault, ServeLoad, ServePayload,
    NETGEN_GENS, NETGEN_PROTOS,
};
use crate::table::Table;

/// Problem scaling: `quick` shrinks every instance for smoke tests; the
/// full scale is the calibrated reproduction reported in EXPERIMENTS.md.
/// When `trace_dir` is set, every cluster run records a structured event
/// trace, exports it (raw JSON, Chrome/Perfetto JSON, text report) into
/// that directory and asserts the protocol conformance invariants.
/// When `metrics` is set, every verified run is recorded as a cell for the
/// `BENCH_<app>.json` artifacts and the regression gate.
/// When `cache` is set (a [`RunCache`] populated by
/// [`crate::sweep::run_sweep`]), the run helpers consume precomputed
/// results instead of simulating inline — trace artifacts were already
/// written by the sweep workers, while metrics are still recorded here, at
/// consumption time, so cell order matches the sequential run exactly.
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
    /// fails the gate).
    pub net_override: Option<NetConfig>,
    /// Run on a named network generation instead of the default (the
    /// paper's 100 Mbps testbed). Set per-cell by [`execute_cell`] from
    /// [`CellSpec::netgen`]; takes precedence over `net_override` and
    /// folds its label into trace/critpath file stems so netgen artifacts
    /// never collide with the paper tables'.
    pub netgen: Option<NetGen>,
    /// Global fault plan applied to every run (the `tables --faults SPEC`
    /// flag): datagram loss and node slowdowns reshape all cells; crash
    /// windows are acted on by the serving workload only. Folded into the
    /// sweep cache's context hash. The serve table's fault *dimension*
    /// stacks its scenario on top of this plan.
    pub faults: FaultPlan,
    /// Precomputed sweep results; `None` simulates every cell inline.
    pub cache: Option<Arc<RunCache>>,
    /// Attach a causal profiler to every cluster run (the `tables
    /// --critpath` flag): tables gain critical-path breakdown rows, the
    /// metrics sink gains the `BENCH_critpath.json` artifact, and (with
    /// `trace_dir`) each run writes a `<stem>.critpath.perfetto.json`
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

    /// Cluster configuration for one run, honoring the network override.
    fn cfg(&self, np: usize, proto: Protocol) -> ClusterConfig {
        let mut config = ClusterConfig::new(np, proto);
        if let Some(net) = &self.net_override {
            config.net = net.clone();
        }
        if let Some(gen) = self.netgen {
            config.net = gen.config();
        }
        config.faults = self.faults.clone();
        if self.critpath {
            // One fresh profiler per run: causal logs are per-run state.
            config.profiler = Some(Arc::new(vopp_sim::CausalProfiler::new(np)));
        }
        config
    }

    /// Label the table whose runs are recorded next (metrics sink only).
    fn begin_table(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.begin_table(name);
        }
    }

    /// Record one verified run in the metrics sink, if attached.
    fn record(&self, app: &str, variant: &str, protocol: &str, np: usize, stats: &RunStats) {
        if let Some(m) = &self.metrics {
            m.record(app, variant, protocol, np, stats);
        }
    }

    /// Precomputed statistics for a cell, when a sweep cache is attached.
    fn cached(
        &self,
        app: CellApp,
        variant: CellVariant,
        proto: Protocol,
        np: usize,
    ) -> Option<RunStats> {
        let spec = CellSpec {
            app,
            variant,
            proto,
            np,
            serve: None,
            netgen: self.netgen,
        };
        self.cache
            .as_ref()
            .and_then(|c| c.get(&spec.key()))
            .map(|r| r.stats.clone())
    }

    /// Precomputed serve cell, when a sweep cache is attached. A cached
    /// entry without its serve payload (impossible outside a corrupted
    /// store) falls back to simulating inline.
    fn cached_serve(
        &self,
        variant: CellVariant,
        proto: Protocol,
        np: usize,
        sc: ServeCell,
    ) -> Option<(RunStats, ServePayload)> {
        let spec = CellSpec {
            app: CellApp::Serve,
            variant,
            proto,
            np,
            serve: Some(sc),
            netgen: None,
        };
        self.cache
            .as_ref()
            .and_then(|c| c.get(&spec.key()))
            .and_then(|r| Some((r.stats.clone(), r.serve.clone()?)))
    }

    /// Trace/critpath file stem of one run, matching [`CellSpec::key`]:
    /// the generation label rides after the variant on netgen runs, so
    /// their artifacts never overwrite the default-network ones.
    fn stem(&self, app: &str, variant: &str, proto: Protocol, np: usize) -> String {
        let gen = self
            .netgen
            .map_or_else(String::new, |g| format!("{}_", g.label()));
        format!(
            "{app}_{variant}_{gen}{}_{np}p",
            proto.label().to_lowercase()
        )
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
    /// JSON and the wait report under `trace_dir`, then run the protocol
    /// conformance checker and panic on any violation (a complete,
    /// non-truncated trace of a correct run must be violation-free).
    fn finish_trace(
        &self,
        tracer: Option<Arc<Tracer>>,
        app: &str,
        variant: &str,
        proto: Protocol,
        np: usize,
    ) {
        let Some(tr) = tracer else { return };
        let dir = self.trace_dir.as_ref().expect("tracer implies trace_dir");
        let trace = tr.take();
        let stem = self.stem(app, variant, proto, np);
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
    fn finish_critpath(
        &self,
        stats: &RunStats,
        app: &str,
        variant: &str,
        proto: Protocol,
        np: usize,
    ) {
        if let (Some(dir), Some(cp)) = (self.trace_dir.as_ref(), stats.crit.as_deref()) {
            std::fs::create_dir_all(dir).expect("failed to create trace directory");
            let stem = self.stem(app, variant, proto, np);
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

    /// Node counts of the scale-out family (`tables scaling`): the regime
    /// ROADMAP item 2 targets, well past the paper's 32-processor ceiling.
    /// Identical at both scales — `quick` shrinks the instances, not the
    /// cluster.
    pub fn scaling_procs(&self) -> Vec<usize> {
        vec![64, 128]
    }

    fn is(&self) -> IsParams {
        if self.quick {
            IsParams::quick()
        } else {
            IsParams::bench()
        }
    }

    fn gauss(&self) -> GaussParams {
        if self.quick {
            GaussParams::quick()
        } else {
            GaussParams::bench()
        }
    }

    fn sor(&self) -> SorParams {
        if self.quick {
            SorParams::quick()
        } else {
            SorParams::bench()
        }
    }

    fn nn(&self) -> NnParams {
        if self.quick {
            NnParams::quick()
        } else {
            NnParams::bench()
        }
    }

    /// IS instance for an `np`-node run. The paper tables (np <= 32) use
    /// the calibrated instances; the scale-out cells keep the full bench
    /// instance at full scale and, at quick scale, an instance sized so
    /// every rank still holds keys at 128 nodes.
    fn is_at(&self, np: usize) -> IsParams {
        let mut p = self.is();
        if self.quick && np >= SCALING_MIN_PROCS {
            p.n_keys = 1 << 15;
            p.reps = 2;
        }
        p
    }

    /// Gauss instance for an `np`-node run (see [`Scale::is_at`]).
    fn gauss_at(&self, np: usize) -> GaussParams {
        let mut p = self.gauss();
        if self.quick && np >= SCALING_MIN_PROCS {
            // 3 rows per rank at 128 nodes; short sweeps keep it smoke-test
            // sized.
            p.rows = 384;
            p.iters = 3;
        }
        p
    }

    /// SOR instance for an `np`-node run (see [`Scale::is_at`]).
    fn sor_at(&self, np: usize) -> SorParams {
        let mut p = self.sor();
        if self.quick && np >= SCALING_MIN_PROCS {
            // 4 rows per rank at 128 nodes.
            p.rows = 512;
            p.iters = 3;
        }
        p
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
        expect_zero_diff_requests: matches!(proto, Protocol::VcSd | Protocol::VcRdma),
        expect_no_barrier_notices: proto.is_vc(),
        check_rexmit_overflow: true,
        check_non_nested: true,
    }
}

/// The statistics rows shared by Tables 1, 2, 4, 6 and 8.
fn stats_rows(t: &mut Table, runs: &[RunStats], with_acquire_time: bool) {
    t.row(
        "Time (Sec.)",
        runs.iter().map(|s| Table::f(s.time_secs(), 2)).collect(),
    );
    t.row(
        "Barriers",
        runs.iter().map(|s| Table::i(s.barriers())).collect(),
    );
    t.row(
        "Acquires",
        runs.iter().map(|s| Table::i(s.acquires())).collect(),
    );
    t.row(
        "Data (MByte)",
        runs.iter().map(|s| Table::f(s.data_mbytes(), 2)).collect(),
    );
    t.row(
        "Num. Msg",
        runs.iter().map(|s| Table::i(s.num_msgs())).collect(),
    );
    t.row(
        "Diff Requests",
        runs.iter().map(|s| Table::i(s.diff_requests())).collect(),
    );
    t.row(
        "Barrier Time (usec.)",
        runs.iter()
            .map(|s| Table::f(s.barrier_time_usec(), 0))
            .collect(),
    );
    if with_acquire_time {
        t.row(
            "Acquire Time (usec.)",
            runs.iter()
                .map(|s| Table::f(s.acquire_time_usec(), 0))
                .collect(),
        );
    }
    t.row(
        "Rexmit",
        runs.iter().map(|s| Table::i(s.rexmits())).collect(),
    );
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
        t.row(
            label,
            runs.iter()
                .map(|s| Table::f(s.phase_pct(phase), 1))
                .collect(),
        );
    }
    t.row(
        "Send Overhead (%)",
        runs.iter()
            .map(|s| Table::f(s.send_overhead_pct(), 1))
            .collect(),
    );
    critpath_rows(
        t,
        &runs.iter().map(|s| s.crit.as_deref()).collect::<Vec<_>>(),
    );
}

/// Critical-path breakdown rows, appended to a statistics table when any
/// of its runs was profiled (`--critpath`). Every percentage is of the
/// *makespan*: unlike the summed-per-node breakdown above, these rows
/// decompose the single chain of events that determined the finish time.
/// Unprofiled columns (e.g. the NN MPI variant, which bypasses the cluster
/// runtime) render `-`.
fn critpath_rows(t: &mut Table, crits: &[Option<&vopp_metrics::CritPath>]) {
    use vopp_metrics::{CritPath, OpKind};
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

// -------------------------------------------------------------------
// IS (Tables 1-3)
// -------------------------------------------------------------------

fn is_exec(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    p: &IsParams,
    variant: IsVariant,
) -> RunStats {
    let mut config = scale.cfg(np, proto);
    let tracer = scale.attach_tracer(&mut config);
    let out = run_is(&config, p, variant);
    let lb = variant == IsVariant::VoppLb;
    assert_eq!(out.value, is_reference(p, np, lb), "IS result mismatch");
    scale.finish_trace(tracer, "is", variant_label(variant), proto, np);
    scale.finish_critpath(&out.stats, "is", variant_label(variant), proto, np);
    out.stats
}

fn is_run(scale: &Scale, np: usize, proto: Protocol, p: &IsParams, variant: IsVariant) -> RunStats {
    let stats = scale
        .cached(CellApp::Is, variant.into(), proto, np)
        .unwrap_or_else(|| is_exec(scale, np, proto, p, variant));
    scale.record(
        "is",
        variant_label(variant),
        &proto_label(proto),
        np,
        &stats,
    );
    stats
}

fn proto_label(proto: Protocol) -> String {
    proto.label().to_lowercase()
}

impl From<IsVariant> for CellVariant {
    fn from(v: IsVariant) -> CellVariant {
        match v {
            IsVariant::Traditional => CellVariant::Traditional,
            IsVariant::Vopp => CellVariant::Vopp,
            IsVariant::VoppLb => CellVariant::VoppLb,
        }
    }
}

impl From<GaussVariant> for CellVariant {
    fn from(v: GaussVariant) -> CellVariant {
        match v {
            GaussVariant::Traditional => CellVariant::Traditional,
            GaussVariant::Vopp => CellVariant::Vopp,
        }
    }
}

impl From<SorVariant> for CellVariant {
    fn from(v: SorVariant) -> CellVariant {
        match v {
            SorVariant::Traditional => CellVariant::Traditional,
            SorVariant::Vopp => CellVariant::Vopp,
        }
    }
}

impl From<NnVariant> for CellVariant {
    fn from(v: NnVariant) -> CellVariant {
        match v {
            NnVariant::Traditional => CellVariant::Traditional,
            NnVariant::Vopp => CellVariant::Vopp,
            NnVariant::Mpi => CellVariant::Mpi,
        }
    }
}

/// Simulate one sweep cell through the same verified path the tables use
/// (reference check, trace artifacts, conformance assertions) and return
/// its statistics, plus the serve payload on serve cells. Called by the
/// sweep workers; does *not* record metrics — that happens at consumption
/// time so cell order stays sequential.
pub(crate) fn execute_cell(scale: &Scale, spec: &CellSpec) -> (RunStats, Option<ServePayload>) {
    // Netgen cells run on their named generation; everything else on the
    // scale's defaults. The derived scale also routes the generation label
    // into trace stems and cache lookups.
    let scale = &Scale {
        netgen: spec.netgen,
        ..scale.clone()
    };
    let (np, proto) = (spec.np, spec.proto);
    let stats = match spec.app {
        CellApp::Is => {
            let v = match spec.variant {
                CellVariant::Traditional => IsVariant::Traditional,
                CellVariant::Vopp => IsVariant::Vopp,
                CellVariant::VoppLb => IsVariant::VoppLb,
                CellVariant::Mpi => panic!("IS has no MPI variant"),
            };
            is_exec(scale, np, proto, &scale.is_at(np), v)
        }
        CellApp::Gauss => {
            let v = match spec.variant {
                CellVariant::Traditional => GaussVariant::Traditional,
                CellVariant::Vopp => GaussVariant::Vopp,
                other => panic!("Gauss has no {other:?} variant"),
            };
            gauss_exec(scale, np, proto, &scale.gauss_at(np), v)
        }
        CellApp::Sor => {
            let v = match spec.variant {
                CellVariant::Traditional => SorVariant::Traditional,
                CellVariant::Vopp => SorVariant::Vopp,
                other => panic!("SOR has no {other:?} variant"),
            };
            sor_exec(scale, np, proto, &scale.sor_at(np), v)
        }
        CellApp::Nn => {
            let v = match spec.variant {
                CellVariant::Traditional => NnVariant::Traditional,
                CellVariant::Vopp => NnVariant::Vopp,
                CellVariant::Mpi => NnVariant::Mpi,
                CellVariant::VoppLb => panic!("NN has no VoppLb variant"),
            };
            nn_exec(scale, np, proto, &scale.nn(), v)
        }
        CellApp::Serve => {
            let sc = spec.serve.expect("serve cells carry load/fault dims");
            let (stats, payload) = serve_exec(scale, np, proto, sc);
            return (stats, Some(payload));
        }
    };
    (stats, None)
}

fn variant_label<V: std::fmt::Debug>(v: V) -> &'static str {
    // The three app-variant enums share the same labels; Mpi only on NN.
    match format!("{v:?}").as_str() {
        "Traditional" => "trad",
        "Vopp" => "vopp",
        "VoppLb" => "vopp_lb",
        "Mpi" => "mpi",
        other => panic!("unlabelled variant {other}"),
    }
}

/// Table 1: Statistics of IS on the stats processor count.
pub fn table1(scale: &Scale) -> Table {
    scale.begin_table("table1");
    let p = scale.is();
    let np = scale.stats_procs();
    let runs = vec![
        is_run(scale, np, Protocol::LrcD, &p, IsVariant::Traditional),
        is_run(scale, np, Protocol::VcD, &p, IsVariant::Vopp),
        is_run(scale, np, Protocol::VcSd, &p, IsVariant::Vopp),
    ];
    let mut t = Table::new(
        format!("Table 1: Statistics of IS on {np} processors"),
        vec!["LRC_d".into(), "VC_d".into(), "VC_sd".into()],
    );
    stats_rows(&mut t, &runs, false);
    t
}

/// Table 2: Statistics of IS with fewer barriers (barrier hoisted, §3.2).
pub fn table2(scale: &Scale) -> Table {
    scale.begin_table("table2");
    let p = scale.is();
    let np = scale.stats_procs();
    let runs = vec![
        is_run(scale, np, Protocol::VcD, &p, IsVariant::VoppLb),
        is_run(scale, np, Protocol::VcSd, &p, IsVariant::VoppLb),
    ];
    let mut t = Table::new(
        format!("Table 2: Statistics of IS with fewer barriers on {np} processors"),
        vec!["VC_d".into(), "VC_sd".into()],
    );
    stats_rows(&mut t, &runs, false);
    t
}

/// Table 3: Speedup of IS on LRC_d and VC_sd (plus the hoisted-barrier
/// VOPP variant, the paper's `VC_sd lb` row).
pub fn table3(scale: &Scale) -> Table {
    scale.begin_table("table3");
    let p = scale.is();
    let procs = scale.speedup_procs();
    // Base: the traditional program on one processor.
    let base = is_run(scale, 1, Protocol::LrcD, &p, IsVariant::Traditional)
        .time
        .as_secs_f64();
    let speedup = |np: usize, proto: Protocol, variant: IsVariant| {
        let s = is_run(scale, np, proto, &p, variant);
        Table::f(base / s.time_secs(), 2)
    };
    let mut t = Table::new(
        "Table 3: Speedup of IS on LRC_d and VC_sd",
        procs.iter().map(|p| format!("{p}-p")).collect(),
    );
    t.row(
        "LRC_d",
        procs
            .iter()
            .map(|&np| speedup(np, Protocol::LrcD, IsVariant::Traditional))
            .collect(),
    );
    t.row(
        "VC_sd",
        procs
            .iter()
            .map(|&np| speedup(np, Protocol::VcSd, IsVariant::Vopp))
            .collect(),
    );
    t.row(
        "VC_sd lb",
        procs
            .iter()
            .map(|&np| speedup(np, Protocol::VcSd, IsVariant::VoppLb))
            .collect(),
    );
    t
}

// -------------------------------------------------------------------
// Gauss (Tables 4-5)
// -------------------------------------------------------------------

fn gauss_exec(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    p: &GaussParams,
    variant: GaussVariant,
) -> RunStats {
    let mut config = scale.cfg(np, proto);
    let tracer = scale.attach_tracer(&mut config);
    let out = run_gauss(&config, p, variant);
    assert_eq!(out.value, gauss_reference(p, np), "Gauss result mismatch");
    scale.finish_trace(tracer, "gauss", variant_label(variant), proto, np);
    scale.finish_critpath(&out.stats, "gauss", variant_label(variant), proto, np);
    out.stats
}

fn gauss_run(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    p: &GaussParams,
    variant: GaussVariant,
) -> RunStats {
    let stats = scale
        .cached(CellApp::Gauss, variant.into(), proto, np)
        .unwrap_or_else(|| gauss_exec(scale, np, proto, p, variant));
    scale.record(
        "gauss",
        variant_label(variant),
        &proto_label(proto),
        np,
        &stats,
    );
    stats
}

/// Table 4: Statistics of Gauss.
pub fn table4(scale: &Scale) -> Table {
    scale.begin_table("table4");
    let p = scale.gauss();
    let np = scale.stats_procs();
    let runs = vec![
        gauss_run(scale, np, Protocol::LrcD, &p, GaussVariant::Traditional),
        gauss_run(scale, np, Protocol::VcD, &p, GaussVariant::Vopp),
        gauss_run(scale, np, Protocol::VcSd, &p, GaussVariant::Vopp),
    ];
    let mut t = Table::new(
        format!("Table 4: Statistics of Gauss on {np} processors"),
        vec!["LRC_d".into(), "VC_d".into(), "VC_sd".into()],
    );
    stats_rows(&mut t, &runs, false);
    t
}

/// Table 5: Speedup of Gauss on LRC_d and VC_sd.
pub fn table5(scale: &Scale) -> Table {
    scale.begin_table("table5");
    let p = scale.gauss();
    let procs = scale.speedup_procs();
    let base = gauss_run(scale, 1, Protocol::LrcD, &p, GaussVariant::Traditional)
        .time
        .as_secs_f64();
    let mut t = Table::new(
        "Table 5: Speedup of Gauss on LRC_d and VC_sd",
        procs.iter().map(|p| format!("{p}-p")).collect(),
    );
    t.row(
        "LRC_d",
        procs
            .iter()
            .map(|&np| {
                let s = gauss_run(scale, np, Protocol::LrcD, &p, GaussVariant::Traditional);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t.row(
        "VC_sd",
        procs
            .iter()
            .map(|&np| {
                let s = gauss_run(scale, np, Protocol::VcSd, &p, GaussVariant::Vopp);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t
}

// -------------------------------------------------------------------
// SOR (Tables 6-7)
// -------------------------------------------------------------------

fn sor_exec(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    p: &SorParams,
    variant: SorVariant,
) -> RunStats {
    let mut config = scale.cfg(np, proto);
    let tracer = scale.attach_tracer(&mut config);
    let out = run_sor(&config, p, variant);
    assert_eq!(out.value, sor_reference(p), "SOR result mismatch");
    scale.finish_trace(tracer, "sor", variant_label(variant), proto, np);
    scale.finish_critpath(&out.stats, "sor", variant_label(variant), proto, np);
    out.stats
}

fn sor_run(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    p: &SorParams,
    variant: SorVariant,
) -> RunStats {
    let stats = scale
        .cached(CellApp::Sor, variant.into(), proto, np)
        .unwrap_or_else(|| sor_exec(scale, np, proto, p, variant));
    scale.record(
        "sor",
        variant_label(variant),
        &proto_label(proto),
        np,
        &stats,
    );
    stats
}

/// Table 6: Statistics of SOR.
pub fn table6(scale: &Scale) -> Table {
    scale.begin_table("table6");
    let p = scale.sor();
    let np = scale.stats_procs();
    let runs = vec![
        sor_run(scale, np, Protocol::LrcD, &p, SorVariant::Traditional),
        sor_run(scale, np, Protocol::VcD, &p, SorVariant::Vopp),
        sor_run(scale, np, Protocol::VcSd, &p, SorVariant::Vopp),
    ];
    let mut t = Table::new(
        format!("Table 6: Statistics of SOR on {np} processors"),
        vec!["LRC_d".into(), "VC_d".into(), "VC_sd".into()],
    );
    stats_rows(&mut t, &runs, false);
    t
}

/// Table 7: Speedup of SOR on LRC_d and VC_sd.
pub fn table7(scale: &Scale) -> Table {
    scale.begin_table("table7");
    let p = scale.sor();
    let procs = scale.speedup_procs();
    let base = sor_run(scale, 1, Protocol::LrcD, &p, SorVariant::Traditional)
        .time
        .as_secs_f64();
    let mut t = Table::new(
        "Table 7: Speedup of SOR on LRC_d and VC_sd",
        procs.iter().map(|p| format!("{p}-p")).collect(),
    );
    t.row(
        "LRC_d",
        procs
            .iter()
            .map(|&np| {
                let s = sor_run(scale, np, Protocol::LrcD, &p, SorVariant::Traditional);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t.row(
        "VC_sd",
        procs
            .iter()
            .map(|&np| {
                let s = sor_run(scale, np, Protocol::VcSd, &p, SorVariant::Vopp);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t
}

// -------------------------------------------------------------------
// NN (Tables 8-9)
// -------------------------------------------------------------------

fn nn_exec(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    p: &NnParams,
    variant: NnVariant,
) -> RunStats {
    let mut config = scale.cfg(np, proto);
    let tracer = scale.attach_tracer(&mut config);
    let out = run_nn(&config, p, variant);
    assert_eq!(out.value, nn_reference(p, np), "NN result mismatch");
    scale.finish_trace(tracer, "nn", variant_label(variant), proto, np);
    scale.finish_critpath(&out.stats, "nn", variant_label(variant), proto, np);
    out.stats
}

fn nn_run(scale: &Scale, np: usize, proto: Protocol, p: &NnParams, variant: NnVariant) -> RunStats {
    let stats = scale
        .cached(CellApp::Nn, variant.into(), proto, np)
        .unwrap_or_else(|| nn_exec(scale, np, proto, p, variant));
    // The MPI variant runs message passing, not a DSM protocol.
    let plabel = if variant == NnVariant::Mpi {
        "mpi".to_string()
    } else {
        proto_label(proto)
    };
    scale.record("nn", variant_label(variant), &plabel, np, &stats);
    stats
}

/// Table 8: Statistics of NN (includes the Acquire Time row).
pub fn table8(scale: &Scale) -> Table {
    scale.begin_table("table8");
    let p = scale.nn();
    let np = scale.stats_procs();
    let runs = vec![
        nn_run(scale, np, Protocol::LrcD, &p, NnVariant::Traditional),
        nn_run(scale, np, Protocol::VcD, &p, NnVariant::Vopp),
        nn_run(scale, np, Protocol::VcSd, &p, NnVariant::Vopp),
    ];
    let mut t = Table::new(
        format!("Table 8: Statistics of NN on {np} processors"),
        vec!["LRC_d".into(), "VC_d".into(), "VC_sd".into()],
    );
    stats_rows(&mut t, &runs, true);
    t
}

/// Table 9: Speedup of NN on LRC_d, VC_sd and MPI.
pub fn table9(scale: &Scale) -> Table {
    scale.begin_table("table9");
    let p = scale.nn();
    let procs = scale.speedup_procs();
    let base = nn_run(scale, 1, Protocol::LrcD, &p, NnVariant::Traditional)
        .time
        .as_secs_f64();
    let mut t = Table::new(
        "Table 9: Speedup of NN on LRC_d, VC_sd and MPI",
        procs.iter().map(|p| format!("{p}-p")).collect(),
    );
    t.row(
        "LRC_d",
        procs
            .iter()
            .map(|&np| {
                let s = nn_run(scale, np, Protocol::LrcD, &p, NnVariant::Traditional);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t.row(
        "VC_sd",
        procs
            .iter()
            .map(|&np| {
                let s = nn_run(scale, np, Protocol::VcSd, &p, NnVariant::Vopp);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t.row(
        "MPI",
        procs
            .iter()
            .map(|&np| {
                let s = nn_run(scale, np, Protocol::VcSd, &p, NnVariant::Mpi);
                Table::f(base / s.time_secs(), 2)
            })
            .collect(),
    );
    t
}

/// Extension table (not in the paper): the four traditional applications
/// on homeless vs. home-based LRC at the stats processor count — the
/// trade-off studied in the authors' companion work.
pub fn table_ext(scale: &Scale) -> Table {
    scale.begin_table("ext");
    let np = scale.stats_procs();
    let is = scale.is();
    let gauss = scale.gauss();
    let sor = scale.sor();
    let nn = scale.nn();
    let mut t = Table::new(
        format!("Extension: traditional applications on LRC_d vs HLRC_d, {np} processors"),
        vec![
            "IS LRC_d".into(),
            "IS HLRC".into(),
            "Gauss LRC_d".into(),
            "Gauss HLRC".into(),
            "SOR LRC_d".into(),
            "SOR HLRC".into(),
            "NN LRC_d".into(),
            "NN HLRC".into(),
        ],
    );
    let runs = [
        is_run(scale, np, Protocol::LrcD, &is, IsVariant::Traditional),
        is_run(scale, np, Protocol::Hlrc, &is, IsVariant::Traditional),
        gauss_run(scale, np, Protocol::LrcD, &gauss, GaussVariant::Traditional),
        gauss_run(scale, np, Protocol::Hlrc, &gauss, GaussVariant::Traditional),
        sor_run(scale, np, Protocol::LrcD, &sor, SorVariant::Traditional),
        sor_run(scale, np, Protocol::Hlrc, &sor, SorVariant::Traditional),
        nn_run(scale, np, Protocol::LrcD, &nn, NnVariant::Traditional),
        nn_run(scale, np, Protocol::Hlrc, &nn, NnVariant::Traditional),
    ];
    t.row(
        "Time (Sec.)",
        runs.iter().map(|s| Table::f(s.time_secs(), 2)).collect(),
    );
    t.row(
        "Data (MByte)",
        runs.iter().map(|s| Table::f(s.data_mbytes(), 2)).collect(),
    );
    t.row(
        "Num. Msg",
        runs.iter().map(|s| Table::i(s.num_msgs())).collect(),
    );
    t.row(
        "Diff/Page Requests",
        runs.iter().map(|s| Table::i(s.diff_requests())).collect(),
    );
    critpath_rows(
        &mut t,
        &runs.iter().map(|s| s.crit.as_deref()).collect::<Vec<_>>(),
    );
    t
}

// -------------------------------------------------------------------
// Serving (the `serve` cell family; not in the paper)
// -------------------------------------------------------------------

/// The store style a protocol serves with: views on the VC family, a
/// lock-per-shard store on the LRC family.
fn serve_style(proto: Protocol) -> (ServeVariant, CellVariant) {
    if proto.is_vc() {
        (ServeVariant::Vopp, CellVariant::Vopp)
    } else {
        (ServeVariant::Traditional, CellVariant::Traditional)
    }
}

/// Metrics/trace variant label of a serve cell, e.g. `vopp_base_crash`.
fn serve_variant_label(variant: CellVariant, sc: ServeCell) -> String {
    format!("{}_{}", variant.label(), sc.label())
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

fn serve_exec(
    scale: &Scale,
    np: usize,
    proto: Protocol,
    sc: ServeCell,
) -> (RunStats, ServePayload) {
    let p = scale.serve(sc.load);
    let (style, variant) = serve_style(proto);
    let mut config = scale.cfg(np, proto);
    config.faults = serve_fault_plan(&p, config.faults.clone(), sc.fault);
    let tracer = scale.attach_tracer(&mut config);
    let out = run_serve(&config, &p, style);
    assert_eq!(
        out.checksum,
        serve_reference(&p),
        "serve store diverged from the sequential reference"
    );
    scale.finish_trace(
        tracer,
        "serve",
        &serve_variant_label(variant, sc),
        proto,
        np,
    );
    scale.finish_critpath(
        &out.stats,
        "serve",
        &serve_variant_label(variant, sc),
        proto,
        np,
    );
    (
        out.stats,
        ServePayload {
            latency: out.latency,
            checksum: out.checksum,
            get_digest: out.get_digest,
            served: out.served,
            recovered_pages: out.recovered_pages,
        },
    )
}

fn serve_run(scale: &Scale, np: usize, proto: Protocol, sc: ServeCell) -> (RunStats, ServePayload) {
    let (_, variant) = serve_style(proto);
    let (stats, payload) = scale
        .cached_serve(variant, proto, np, sc)
        .unwrap_or_else(|| serve_exec(scale, np, proto, sc));
    if let Some(m) = &scale.metrics {
        m.record_serve(
            &serve_variant_label(variant, sc),
            &proto_label(proto),
            np,
            &stats,
            &payload.latency,
            payload.served,
            payload.checksum,
            payload.recovered_pages,
        );
    }
    (stats, payload)
}

/// The serving table (not in the paper): the open-loop sharded KV store
/// across the full protocol matrix, at two offered loads and under the
/// fault scenarios of [`ServeFault`]. Latency columns report per-request
/// service time; the `x clean` rows divide each column's tail by the same
/// protocol's fault-free base-load cell, so crash/recovery degradation is
/// visible directly in the table.
pub fn table_serve(scale: &Scale) -> Table {
    scale.begin_table("serve");
    let np = scale.stats_procs();
    use Protocol::{Hlrc, LrcD, ScC, VcD, VcSd};
    use ServeFault::{Clean, Crash, Loss, Slow};
    use ServeLoad::{Base, High};
    let matrix: Vec<(String, Protocol, ServeLoad, ServeFault)> = vec![
        ("LRC_d".into(), LrcD, Base, Clean),
        ("HLRC".into(), Hlrc, Base, Clean),
        ("ScC_d".into(), ScC, Base, Clean),
        ("VC_d".into(), VcD, Base, Clean),
        ("VC_sd".into(), VcSd, Base, Clean),
        ("LRC_d hi".into(), LrcD, High, Clean),
        ("VC_sd hi".into(), VcSd, High, Clean),
        ("LRC_d loss".into(), LrcD, Base, Loss),
        ("VC_sd loss".into(), VcSd, Base, Loss),
        ("LRC_d slow".into(), LrcD, Base, Slow),
        ("VC_sd slow".into(), VcSd, Base, Slow),
        ("VC_d crash".into(), VcD, Base, Crash),
        ("VC_sd crash".into(), VcSd, Base, Crash),
    ];
    let runs: Vec<(Protocol, RunStats, ServePayload)> = matrix
        .iter()
        .map(|&(_, proto, load, fault)| {
            let (stats, payload) = serve_run(scale, np, proto, ServeCell { load, fault });
            (proto, stats, payload)
        })
        .collect();
    // Fault-free base-load tail per protocol: the degradation denominator.
    let clean_of = |proto: Protocol| -> &ServePayload {
        matrix
            .iter()
            .zip(&runs)
            .find(|((_, p, load, fault), _)| *p == proto && *load == Base && *fault == Clean)
            .map(|(_, (_, _, payload))| payload)
            .expect("every protocol has a clean base cell")
    };
    let mut t = Table::new(
        format!("Serve: open-loop KV store on {np} processors (protocol x load x faults)"),
        matrix.iter().map(|(name, ..)| name.clone()).collect(),
    );
    let usec = |ns: u64| Table::f(ns as f64 / 1000.0, 1);
    t.row(
        "Time (Sec.)",
        runs.iter()
            .map(|(_, s, _)| Table::f(s.time_secs(), 2))
            .collect(),
    );
    t.row(
        "Latency p50 (usec.)",
        runs.iter()
            .map(|(_, _, p)| usec(p.latency.quantile(0.5)))
            .collect(),
    );
    t.row(
        "Latency p99 (usec.)",
        runs.iter().map(|(_, _, p)| usec(p.latency.p99())).collect(),
    );
    t.row(
        "Latency p99.9 (usec.)",
        runs.iter()
            .map(|(_, _, p)| usec(p.latency.p999()))
            .collect(),
    );
    t.row(
        "Latency max (usec.)",
        runs.iter()
            .map(|(_, _, p)| usec(p.latency.max_ns()))
            .collect(),
    );
    t.row(
        "p99 x clean",
        runs.iter()
            .map(|(proto, _, p)| {
                Table::f(
                    p.latency.p99() as f64 / clean_of(*proto).latency.p99().max(1) as f64,
                    2,
                )
            })
            .collect(),
    );
    t.row(
        "p99.9 x clean",
        runs.iter()
            .map(|(proto, _, p)| {
                Table::f(
                    p.latency.p999() as f64 / clean_of(*proto).latency.p999().max(1) as f64,
                    2,
                )
            })
            .collect(),
    );
    t.row(
        "Num. Msg",
        runs.iter()
            .map(|(_, s, _)| Table::i(s.num_msgs()))
            .collect(),
    );
    t.row(
        "Rexmit",
        runs.iter().map(|(_, s, _)| Table::i(s.rexmits())).collect(),
    );
    t.row(
        "Recovered Pages",
        runs.iter()
            .map(|(_, _, p)| Table::i(p.recovered_pages))
            .collect(),
    );
    critpath_rows(
        &mut t,
        &runs
            .iter()
            .map(|(_, s, _)| s.crit.as_deref())
            .collect::<Vec<_>>(),
    );
    t
}

// -------------------------------------------------------------------
// Scale-out (the `scaling` cell family; not in the paper)
// -------------------------------------------------------------------

/// One scale-out run, recorded under the `scaling` app so the family ships
/// its own gated `BENCH_scaling.json`. The variant label carries the
/// application (`is_trad`, `sor_vopp`, ...) to keep cell keys unique
/// within the table.
fn scaling_run(
    scale: &Scale,
    app: CellApp,
    variant: CellVariant,
    proto: Protocol,
    np: usize,
) -> RunStats {
    let stats = scale.cached(app, variant, proto, np).unwrap_or_else(|| {
        let spec = CellSpec {
            app,
            variant,
            proto,
            np,
            serve: None,
            netgen: None,
        };
        execute_cell(scale, &spec).0
    });
    scale.record(
        "scaling",
        &format!("{}_{}", app.label(), variant.label()),
        &proto_label(proto),
        np,
        &stats,
    );
    stats
}

/// Scale-out table (not in the paper): IS, Gauss and SOR at 64 and 128
/// nodes on the paper's baseline (LRC_d), home-based LRC and the headline
/// VOPP protocol (VC_sd): the event-dense regime where host-side
/// scheduling cost dominates the wall clock (docs/PERFORMANCE.md §4).
pub fn table_scaling(scale: &Scale) -> Table {
    scale.begin_table("scaling");
    let procs = scale.scaling_procs();
    let apps = [
        (CellApp::Is, "IS"),
        (CellApp::Gauss, "Gauss"),
        (CellApp::Sor, "SOR"),
    ];
    let protos = [
        (Protocol::LrcD, CellVariant::Traditional),
        (Protocol::Hlrc, CellVariant::Traditional),
        (Protocol::VcSd, CellVariant::Vopp),
    ];
    let mut headers = Vec::new();
    // runs[proto][column]: column-major over app x nodes, matching
    // `cells_for("scaling")` cell order exactly.
    let mut runs: Vec<Vec<RunStats>> = protos.iter().map(|_| Vec::new()).collect();
    for (app, label) in apps {
        for &np in &procs {
            headers.push(format!("{label} {np}p"));
            for (i, &(proto, variant)) in protos.iter().enumerate() {
                runs[i].push(scaling_run(scale, app, variant, proto, np));
            }
        }
    }
    let mut t = Table::new(
        "Scale-out: IS/Gauss/SOR at 64 and 128 nodes".to_string(),
        headers,
    );
    for (i, &(proto, _)) in protos.iter().enumerate() {
        t.row(
            format!("{} Time (Sec.)", proto.label()),
            runs[i].iter().map(|s| Table::f(s.time_secs(), 2)).collect(),
        );
    }
    // The headline protocol's communication profile at scale.
    let vc = &runs[2];
    t.row(
        "VC_sd Data (MByte)",
        vc.iter().map(|s| Table::f(s.data_mbytes(), 2)).collect(),
    );
    t.row(
        "VC_sd Num. Msg",
        vc.iter().map(|s| Table::i(s.num_msgs())).collect(),
    );
    critpath_rows(
        &mut t,
        &vc.iter().map(|s| s.crit.as_deref()).collect::<Vec<_>>(),
    );
    t
}

// -------------------------------------------------------------------
// Network generations (the `netgen` cell family; not in the paper)
// -------------------------------------------------------------------

/// One netgen run, recorded under the `netgen` app so the family ships its
/// own gated `BENCH_netgen.json`. The variant label carries the
/// application and generation (`is_vopp_rdma`, ...) to keep cell keys
/// unique within the table.
fn netgen_run(
    scale: &Scale,
    app: CellApp,
    variant: CellVariant,
    gen: NetGen,
    proto: Protocol,
    np: usize,
) -> RunStats {
    let spec = CellSpec {
        app,
        variant,
        proto,
        np,
        serve: None,
        netgen: Some(gen),
    };
    let stats = scale
        .cache
        .as_ref()
        .and_then(|c| c.get(&spec.key()))
        .map(|r| r.stats.clone())
        .unwrap_or_else(|| execute_cell(scale, &spec).0);
    scale.record(
        "netgen",
        &format!("{}_{}_{}", app.label(), variant.label(), gen.label()),
        &proto_label(proto),
        np,
        &stats,
    );
    stats
}

/// Network-generation table (not in the paper): the four applications
/// under LRC_d, VC_sd and VC_rdma as the interconnect advances from the
/// paper's 100 Mbps testbed through 10 GbE to an RDMA-class fabric. The
/// phase-accounting rows make the bottleneck shift directly visible: the
/// wait shares that dominate at 100 Mbps collapse with the network, the
/// compute share rises toward 100%, and on the RDMA fabric VC_rdma sheds
/// the residual acquire wait and protocol CPU that VC_sd still pays for
/// inline diff application.
pub fn table_netgen(scale: &Scale) -> Table {
    scale.begin_table("netgen");
    let np = scale.stats_procs();
    let apps = [
        (CellApp::Is, "IS"),
        (CellApp::Gauss, "Gauss"),
        (CellApp::Sor, "SOR"),
        (CellApp::Nn, "NN"),
    ];
    let mut headers = Vec::new();
    for gen in NETGEN_GENS {
        for (proto, _) in NETGEN_PROTOS {
            headers.push(format!("{} {}", gen.label(), proto.label()));
        }
    }
    // runs[app][column]: generation-major columns, matching
    // `cells_for("netgen")` cell order exactly.
    let runs: Vec<Vec<RunStats>> = apps
        .iter()
        .map(|&(app, _)| {
            let mut row = Vec::new();
            for gen in NETGEN_GENS {
                for (proto, variant) in NETGEN_PROTOS {
                    row.push(netgen_run(scale, app, variant, gen, proto, np));
                }
            }
            row
        })
        .collect();
    let mut t = Table::new(
        format!("Netgen: network generations on {np} processors (LRC_d / VC_sd / VC_rdma)"),
        headers,
    );
    for ((_, label), runs) in apps.iter().zip(&runs) {
        t.row(
            format!("{label} Time (Sec.)"),
            runs.iter().map(|s| Table::f(s.time_secs(), 2)).collect(),
        );
        t.row(
            format!("{label} Data (MByte)"),
            runs.iter().map(|s| Table::f(s.data_mbytes(), 2)).collect(),
        );
        t.row(
            format!("{label} Rexmit"),
            runs.iter().map(|s| Table::i(s.rexmits())).collect(),
        );
        for (phase_label, phase) in [
            ("Compute (%)", Phase::Compute),
            ("Proto CPU (%)", Phase::ProtoCpu),
            ("Barrier Wait (%)", Phase::BarrierWait),
            ("Acquire Wait (%)", Phase::AcquireWait),
            ("Diff Wait (%)", Phase::DataWait),
        ] {
            t.row(
                format!("{label} {phase_label}"),
                runs.iter()
                    .map(|s| Table::f(s.phase_pct(phase), 1))
                    .collect(),
            );
        }
        t.row(
            format!("{label} Send Overhead (%)"),
            runs.iter()
                .map(|s| Table::f(s.send_overhead_pct(), 1))
                .collect(),
        );
    }
    t
}

/// All tables in paper order.
pub fn all_tables(scale: &Scale) -> Vec<Table> {
    vec![
        table1(scale),
        table2(scale),
        table3(scale),
        table4(scale),
        table5(scale),
        table6(scale),
        table7(scale),
        table8(scale),
        table9(scale),
    ]
}
