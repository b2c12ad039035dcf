//! Machine-readable benchmark artifacts and the perf-regression gate.
//!
//! When table generation runs with a [`MetricsSink`] attached (the `tables`
//! binary's `--metrics DIR` flag), every verified cluster run is recorded as
//! a *cell* and the sink writes one `BENCH_<app>.json` per application.
//! Each cell carries the exact integers the gate compares (virtual
//! `time_ns`, message/byte totals, diff-request and retransmission counts)
//! plus derived values for humans (seconds, MB, speedup, the phase
//! breakdown, and latency summaries). The simulator is fully deterministic,
//! so committed baselines compare exactly across machines.
//!
//! [`compare`]/[`compare_dirs`] implement the gate: a candidate fails on a
//! missing cell, on more than [`TIME_DRIFT_PCT`] percent of virtual-time
//! drift, or on *any* drift of the exact counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use vopp_core::RunStats;
use vopp_trace::json::{num, obj, str, Value};

use crate::sweep::ServePayload;

/// Schema tag written into every artifact, bumped on breaking changes.
pub const SCHEMA: &str = "vopp-bench-metrics/1";

/// Schema tag of the serving artifact (`BENCH_serve.json`), whose cells
/// additionally carry per-request latency percentiles and the convergence
/// evidence of the sharded store.
pub const SERVE_SCHEMA: &str = "vopp-bench-serve/1";

/// Schema tag of the critical-path artifact (`BENCH_critpath.json`): one
/// cell per profiled run with the path's blame decomposition and the
/// what-if speedup ceilings. Deterministic and byte-stable across `--jobs`
/// values; gated by its own baselines (`baselines-critpath/`).
pub const CRITPATH_SCHEMA: &str = "vopp-bench-critpath/1";

/// Schema tag of the network-generation artifact (`BENCH_netgen.json`):
/// the `tables netgen` family, whose cells carry the generation in the
/// variant label (`is_vopp_rdma`). Structurally identical to [`SCHEMA`]
/// cells but tagged separately so the baseline's sweep dimensions are
/// explicit; gated exactly like every other artifact.
pub const NETGEN_SCHEMA: &str = "vopp-bench-netgen/1";

/// Maximum tolerated relative drift of a cell's `time_ns`, in percent.
pub const TIME_DRIFT_PCT: f64 = 2.0;

/// Counters that must not drift at all between baseline and candidate.
const EXACT_KEYS: [&str; 5] = ["msgs", "bytes", "barriers", "diff_requests", "rexmits"];

/// One recorded table cell: a verified cluster run and where it came from.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Table that produced the run (`table1` .. `table9`, `ext`).
    pub table: String,
    /// Application (`is`, `gauss`, `sor`, `nn`).
    pub app: String,
    /// Program variant (`trad`, `vopp`, `vopp_lb`, `mpi`).
    pub variant: String,
    /// Protocol label, lowercased (`lrc_d`, `vc_sd`, ...).
    pub protocol: String,
    /// Processor count.
    pub nprocs: usize,
    /// The run's statistics.
    pub stats: RunStats,
    /// Serving-workload extras (`BENCH_serve.json` cells only).
    pub serve: Option<ServePayload>,
}

fn cell_key(table: &str, variant: &str, protocol: &str, nprocs: usize) -> String {
    format!("{table}/{variant}/{protocol}/{nprocs}p")
}

/// Collects cells across a table-generation run and writes the
/// `BENCH_<app>.json` artifacts. Shared behind `Arc` by [`crate::Scale`].
#[derive(Debug, Default)]
pub struct MetricsSink {
    cells: Mutex<Vec<Cell>>,
    crit_cells: Mutex<Vec<CritCell>>,
    current_table: Mutex<String>,
}

/// One critical-path cell: the blame decomposition of a profiled run.
#[derive(Debug, Clone)]
struct CritCell {
    table: String,
    app: String,
    variant: String,
    protocol: String,
    nprocs: usize,
    crit: std::sync::Arc<vopp_metrics::CritPath>,
}

impl MetricsSink {
    /// A fresh, empty sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Label the table whose runs are recorded next.
    pub fn begin_table(&self, name: &str) {
        name.clone_into(&mut self.current_table.lock().expect("sink lock"));
    }

    /// Record one verified run under the current table label.
    pub fn record(
        &self,
        app: &str,
        variant: &str,
        protocol: &str,
        nprocs: usize,
        stats: &RunStats,
    ) {
        let table = self.current_table.lock().expect("sink lock").clone();
        self.record_crit(&table, app, variant, protocol, nprocs, stats);
        self.cells.lock().expect("sink lock").push(Cell {
            table,
            app: app.to_string(),
            variant: variant.to_string(),
            protocol: protocol.to_string(),
            nprocs,
            stats: stats.clone(),
            serve: None,
        });
    }

    /// When the run carried a critical path, also record a critpath cell
    /// (destined for `BENCH_critpath.json`). Zero cost when unprofiled.
    fn record_crit(
        &self,
        table: &str,
        app: &str,
        variant: &str,
        protocol: &str,
        nprocs: usize,
        stats: &RunStats,
    ) {
        if let Some(crit) = &stats.crit {
            self.crit_cells.lock().expect("sink lock").push(CritCell {
                table: table.to_string(),
                app: app.to_string(),
                variant: variant.to_string(),
                protocol: protocol.to_string(),
                nprocs,
                crit: crit.clone(),
            });
        }
    }

    /// Record one verified serving run under the current table label. The
    /// cell lands in `BENCH_serve.json` (schema [`SERVE_SCHEMA`]) with the
    /// request-latency percentiles and convergence evidence attached; its
    /// exact counters are gated like every other cell's.
    pub fn record_serve(
        &self,
        variant: &str,
        protocol: &str,
        nprocs: usize,
        stats: &RunStats,
        serve: &ServePayload,
    ) {
        let table = self.current_table.lock().expect("sink lock").clone();
        self.record_crit(&table, "serve", variant, protocol, nprocs, stats);
        self.cells.lock().expect("sink lock").push(Cell {
            table,
            app: "serve".to_string(),
            variant: variant.to_string(),
            protocol: protocol.to_string(),
            nprocs,
            stats: stats.clone(),
            serve: Some(serve.clone()),
        });
    }

    /// Number of cells recorded so far.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("sink lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group the recorded cells into one JSON document per application,
    /// plus a `critpath` document when any run was profiled.
    pub fn to_documents(&self) -> BTreeMap<String, Value> {
        let cells = self.cells.lock().expect("sink lock");
        let mut by_app: BTreeMap<String, Vec<&Cell>> = BTreeMap::new();
        for c in cells.iter() {
            by_app.entry(c.app.clone()).or_default().push(c);
        }
        let mut docs: BTreeMap<String, Value> = {
            let crit = self.crit_cells.lock().expect("sink lock");
            if crit.is_empty() {
                BTreeMap::new()
            } else {
                let doc = obj(vec![
                    ("schema", str(CRITPATH_SCHEMA)),
                    (
                        "cells",
                        Value::Arr(crit.iter().map(crit_cell_value).collect()),
                    ),
                ]);
                [("critpath".to_string(), doc)].into_iter().collect()
            }
        };
        docs.extend(by_app.into_iter().map(|(app, cells)| {
            // Speedup base: the application's single-processor run (the
            // speedup tables' sequential baseline). Cells recorded
            // before any 1p run still resolve — the base is looked up
            // across the whole app, not positionally.
            let base_ns = cells
                .iter()
                .find(|c| c.nprocs == 1)
                .map(|c| c.stats.time.nanos());
            let doc = obj(vec![
                (
                    "schema",
                    str(match app.as_str() {
                        "serve" => SERVE_SCHEMA,
                        "netgen" => NETGEN_SCHEMA,
                        _ => SCHEMA,
                    }),
                ),
                ("app", str(&app)),
                (
                    "cells",
                    Value::Arr(cells.iter().map(|c| cell_value(c, base_ns)).collect()),
                ),
            ]);
            (app, doc)
        }));
        docs
    }

    /// Write `BENCH_<app>.json` for every recorded application into `dir`
    /// (created if needed). Returns the written file names.
    pub fn write_all(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (app, doc) in self.to_documents() {
            let name = format!("BENCH_{app}.json");
            std::fs::write(dir.join(&name), doc.to_json_pretty())?;
            written.push(name);
        }
        Ok(written)
    }
}

fn cell_value(c: &Cell, base_ns: Option<u64>) -> Value {
    let s = &c.stats;
    let speedup = match base_ns {
        Some(base) if s.time.nanos() > 0 => Value::Num(base as f64 / s.time.nanos() as f64),
        _ => Value::Null,
    };
    let mut fields = vec![
        ("table", str(&c.table)),
        ("app", str(&c.app)),
        ("variant", str(&c.variant)),
        ("protocol", str(&c.protocol)),
        ("nprocs", num(c.nprocs as u64)),
        // Exact integers: the gate's comparison surface.
        ("time_ns", num(s.time.nanos())),
        ("msgs", num(s.num_msgs())),
        ("bytes", num(s.net.bytes)),
        ("barriers", num(s.nodes.barriers)),
        ("acquires", num(s.acquires())),
        ("diff_requests", num(s.diff_requests())),
        ("rexmits", num(s.rexmits())),
        // Derived values for humans.
        ("time_secs", Value::Num(s.time_secs())),
        ("data_mb", Value::Num(s.data_mbytes())),
        ("speedup", speedup),
        ("breakdown", s.breakdown().to_value()),
        (
            "latency",
            obj(vec![
                ("acquire_rtt", s.acquire_latency().to_value()),
                ("barrier_rtt", s.barrier_latency().to_value()),
                ("diff_rtt", s.diff_latency().to_value()),
                ("rpc_rtt", s.nodes.metrics.rpc_rtt.summary().to_value()),
            ]),
        ),
    ];
    if let Some(sm) = &c.serve {
        // Serving extras: the open-loop request-latency summary (p50/p95/
        // p99/p99.9/max) plus the store's convergence evidence.
        fields.push(("request_latency", sm.latency.to_value()));
        fields.push(("request_latency_mean_ns", Value::Num(sm.latency.mean_ns())));
        fields.push(("served", num(sm.served)));
        fields.push(("checksum", str(&format!("{:016x}", sm.checksum))));
        fields.push(("recovered_pages", num(sm.recovered_pages)));
    }
    obj(fields)
}

fn crit_cell_value(c: &CritCell) -> Value {
    let cp = c.crit.as_ref();
    let whatif = |removed_ns: u64| {
        obj(vec![
            ("removed_ns", num(removed_ns)),
            ("speedup_ceiling", Value::Num(cp.ceiling(removed_ns))),
        ])
    };
    obj(vec![
        ("table", str(&c.table)),
        ("app", str(&c.app)),
        ("variant", str(&c.variant)),
        ("protocol", str(&c.protocol)),
        ("nprocs", num(c.nprocs as u64)),
        // The gate's comparison surface: segment count exactly, the ns
        // decomposition within the makespan drift budget.
        ("cp_segments", num(cp.segs.len() as u64)),
        ("makespan_ns", num(cp.makespan_ns)),
        ("end_node", num(cp.end_node as u64)),
        ("cpu_ns", num(cp.cpu_ns())),
        ("cpu_app_ns", num(cp.cpu_app_ns())),
        ("cpu_overhead_ns", num(cp.cpu_overhead_ns())),
        ("diff_cpu_ns", num(cp.diff_cpu_ns())),
        ("idle_ns", num(cp.cpu_op_ns(vopp_metrics::OpKind::Idle))),
        ("net_ns", num(cp.net_ns())),
        ("timeout_ns", num(cp.timeout_ns())),
        (
            "barrier_wait_ns",
            num(cp.wait_ns(vopp_metrics::OpKind::Barrier)),
        ),
        (
            "acquire_wait_ns",
            num(cp.wait_ns(vopp_metrics::OpKind::Acquire)),
        ),
        ("data_wait_ns", num(cp.wait_ns(vopp_metrics::OpKind::Data))),
        (
            "flush_wait_ns",
            num(cp.wait_ns(vopp_metrics::OpKind::Flush)),
        ),
        (
            "whatif",
            obj(vec![
                ("net_free", whatif(cp.whatif_net_free_ns())),
                ("diff_free", whatif(cp.whatif_diff_free_ns())),
                ("barrier_free", whatif(cp.whatif_barrier_free_ns())),
            ]),
        ),
    ])
}

/// Compare one candidate document against its baseline; returns one message
/// per violation (empty = pass). Candidate cells absent from the baseline
/// are allowed (new tables extend coverage without invalidating old
/// baselines); baseline cells absent from the candidate fail.
///
/// `BENCH_critpath.json` documents (schema [`CRITPATH_SCHEMA`]) use their
/// own rules: exact `cp_segments`, and every `*_ns` field within
/// [`TIME_DRIFT_PCT`] percent of the baseline *makespan* (so zero-valued
/// components have a well-defined budget too).
pub fn compare(app: &str, baseline: &Value, candidate: &Value) -> Vec<String> {
    if baseline.get("schema").and_then(Value::as_str) == Some(CRITPATH_SCHEMA) {
        return compare_critpath(app, baseline, candidate);
    }
    let mut errors = Vec::new();
    let cells_of = |v: &Value| -> BTreeMap<String, Value> {
        v.get("cells")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| {
                let key = cell_key(
                    c.get("table")?.as_str()?,
                    c.get("variant")?.as_str()?,
                    c.get("protocol")?.as_str()?,
                    c.get("nprocs")?.as_usize()?,
                );
                Some((key, c.clone()))
            })
            .collect()
    };
    let base = cells_of(baseline);
    let cand = cells_of(candidate);
    if base.is_empty() {
        errors.push(format!("{app}: baseline has no readable cells"));
    }
    for (key, b) in &base {
        let Some(c) = cand.get(key) else {
            errors.push(format!("{app}/{key}: cell missing from candidate"));
            continue;
        };
        let int_of = |v: &Value, field: &str| v.get(field).and_then(Value::as_u64);
        match (int_of(b, "time_ns"), int_of(c, "time_ns")) {
            (Some(bt), Some(ct)) if bt > 0 => {
                let drift = (ct as f64 - bt as f64).abs() * 100.0 / bt as f64;
                if drift > TIME_DRIFT_PCT {
                    errors.push(format!(
                        "{app}/{key}: time_ns drifted {drift:.2}% \
                         (baseline {bt}, candidate {ct}, limit {TIME_DRIFT_PCT}%)"
                    ));
                }
            }
            _ => errors.push(format!("{app}/{key}: unreadable time_ns")),
        }
        for field in EXACT_KEYS {
            match (int_of(b, field), int_of(c, field)) {
                (Some(bv), Some(cv)) if bv == cv => {}
                (Some(bv), Some(cv)) => errors.push(format!(
                    "{app}/{key}: {field} changed from {bv} to {cv} (must match exactly)"
                )),
                _ => errors.push(format!("{app}/{key}: unreadable {field}")),
            }
        }
    }
    errors
}

/// The `*_ns` decomposition fields of a critpath cell. Each is allowed to
/// drift by [`TIME_DRIFT_PCT`] percent *of the baseline makespan* — an
/// absolute budget, so components that are zero in the baseline (say,
/// `timeout_ns` on a lossless run) still have a meaningful tolerance.
const CRITPATH_NS_KEYS: [&str; 12] = [
    "makespan_ns",
    "cpu_ns",
    "cpu_app_ns",
    "cpu_overhead_ns",
    "diff_cpu_ns",
    "idle_ns",
    "net_ns",
    "timeout_ns",
    "barrier_wait_ns",
    "acquire_wait_ns",
    "data_wait_ns",
    "flush_wait_ns",
];

fn compare_critpath(app: &str, baseline: &Value, candidate: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    // Critpath cells span every application in one document, so the key
    // carries the cell's own `app` field (the document-level `app` is the
    // artifact name, "critpath").
    let cells_of = |v: &Value| -> BTreeMap<String, Value> {
        v.get("cells")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| {
                let key = format!(
                    "{}/{}",
                    c.get("app")?.as_str()?,
                    cell_key(
                        c.get("table")?.as_str()?,
                        c.get("variant")?.as_str()?,
                        c.get("protocol")?.as_str()?,
                        c.get("nprocs")?.as_usize()?,
                    )
                );
                Some((key, c.clone()))
            })
            .collect()
    };
    let base = cells_of(baseline);
    let cand = cells_of(candidate);
    if base.is_empty() {
        errors.push(format!("{app}: baseline has no readable cells"));
    }
    for (key, b) in &base {
        let Some(c) = cand.get(key) else {
            errors.push(format!("{app}/{key}: cell missing from candidate"));
            continue;
        };
        let int_of = |v: &Value, field: &str| v.get(field).and_then(Value::as_u64);
        let Some(makespan) = int_of(b, "makespan_ns") else {
            errors.push(format!("{app}/{key}: unreadable makespan_ns"));
            continue;
        };
        let budget_ns = makespan as f64 * TIME_DRIFT_PCT / 100.0;
        match (int_of(b, "cp_segments"), int_of(c, "cp_segments")) {
            (Some(bv), Some(cv)) if bv == cv => {}
            (Some(bv), Some(cv)) => errors.push(format!(
                "{app}/{key}: cp_segments changed from {bv} to {cv} (must match exactly)"
            )),
            _ => errors.push(format!("{app}/{key}: unreadable cp_segments")),
        }
        for field in CRITPATH_NS_KEYS {
            match (int_of(b, field), int_of(c, field)) {
                (Some(bv), Some(cv)) => {
                    let drift = (cv as f64 - bv as f64).abs();
                    if drift > budget_ns {
                        errors.push(format!(
                            "{app}/{key}: {field} drifted {drift:.0}ns \
                             (baseline {bv}, candidate {cv}, \
                             budget {budget_ns:.0}ns = {TIME_DRIFT_PCT}% of makespan)"
                        ));
                    }
                }
                _ => errors.push(format!("{app}/{key}: unreadable {field}")),
            }
        }
    }
    errors
}

/// Compare every `BENCH_*.json` in `baseline_dir` against the same-named
/// file in `candidate_dir`. Returns `(cells compared, violations)`.
pub fn compare_dirs(baseline_dir: &Path, candidate_dir: &Path) -> (usize, Vec<String>) {
    let mut errors = Vec::new();
    let mut compared = 0;
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            // BENCH_wallclock.json reports machine-dependent real time;
            // it is never byte-gated.
            .filter(|n| {
                n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_wallclock.json"
            })
            .collect(),
        Err(e) => {
            return (
                0,
                vec![format!(
                    "cannot read baseline dir {}: {e}",
                    baseline_dir.display()
                )],
            )
        }
    };
    names.sort();
    if names.is_empty() {
        errors.push(format!(
            "no BENCH_*.json baselines in {}",
            baseline_dir.display()
        ));
    }
    for name in names {
        let app = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let read = |dir: &Path| -> Result<Value, String> {
            let path = dir.join(&name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{app}: cannot read {}: {e}", path.display()))?;
            Value::parse(&text).map_err(|e| format!("{app}: {} is not JSON: {e}", path.display()))
        };
        match (read(baseline_dir), read(candidate_dir)) {
            (Ok(b), Ok(c)) => {
                compared += b.get("cells").and_then(Value::as_arr).map_or(0, <[_]>::len);
                errors.extend(compare(&app, &b, &c));
            }
            (b, c) => errors.extend([b.err(), c.err()].into_iter().flatten()),
        }
    }
    (compared, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopp_core::{NodeStats, RunStats};
    use vopp_sim::SimTime;

    fn stats(time_ns: u64, msgs: u64, diff_requests: u64) -> RunStats {
        RunStats {
            time: SimTime(time_ns),
            nprocs: 4,
            nodes: NodeStats {
                diff_requests,
                barriers: 8,
                ..Default::default()
            },
            net: vopp_simnet::NetStats {
                msgs,
                bytes: msgs * 100,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn sink_with(cells: &[(&str, &str, &str, &str, usize, RunStats)]) -> MetricsSink {
        let sink = MetricsSink::new();
        for (table, app, variant, proto, np, s) in cells {
            sink.begin_table(table);
            sink.record(app, variant, proto, *np, s);
        }
        sink
    }

    #[test]
    fn documents_group_by_app_and_compute_speedup() {
        let sink = sink_with(&[
            ("table3", "is", "trad", "lrc_d", 1, stats(4_000_000, 10, 0)),
            ("table3", "is", "trad", "lrc_d", 2, stats(2_000_000, 30, 5)),
            ("table6", "sor", "vopp", "vc_sd", 4, stats(1_000_000, 40, 0)),
        ]);
        let docs = sink.to_documents();
        assert_eq!(
            docs.keys().collect::<Vec<_>>(),
            ["is", "sor"],
            "one document per app"
        );
        let is = &docs["is"];
        assert_eq!(is.get("schema").unwrap().as_str(), Some(SCHEMA));
        let cells = is.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("speedup").unwrap().as_f64(), Some(1.0));
        assert_eq!(cells[1].get("speedup").unwrap().as_f64(), Some(2.0));
        // No 1p run for sor: speedup is null.
        let sor_cells = docs["sor"].get("cells").unwrap().as_arr().unwrap();
        assert_eq!(sor_cells[0].get("speedup"), Some(&Value::Null));
        assert_eq!(
            sor_cells[0].get("time_ns").unwrap().as_u64(),
            Some(1_000_000)
        );
    }

    #[test]
    fn netgen_cells_carry_their_own_schema_and_gate_exactly() {
        let sink = sink_with(&[
            (
                "netgen",
                "netgen",
                "is_vopp_rdma",
                "vc_rdma",
                4,
                stats(500_000, 20, 0),
            ),
            (
                "netgen",
                "netgen",
                "is_vopp_eth100m",
                "vc_sd",
                4,
                stats(4_000_000, 20, 0),
            ),
        ]);
        let doc = &sink.to_documents()["netgen"];
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(NETGEN_SCHEMA));
        assert_eq!(compare("netgen", doc, doc), Vec::<String>::new());
        // The generation lives in the variant label, so the same
        // app/protocol/np under another generation is a distinct gated cell.
        let drifted = sink_with(&[
            (
                "netgen",
                "netgen",
                "is_vopp_rdma",
                "vc_rdma",
                4,
                stats(500_000, 21, 0),
            ),
            (
                "netgen",
                "netgen",
                "is_vopp_eth100m",
                "vc_sd",
                4,
                stats(4_000_000, 20, 0),
            ),
        ]);
        // The fixture derives bytes from msgs, so one msgs bump drifts both
        // exact counters — and only in the rdma cell.
        let errs = compare("netgen", doc, &drifted.to_documents()["netgen"]);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().all(|e| e.contains("is_vopp_rdma")), "{errs:?}");
    }

    #[test]
    fn identical_documents_pass_the_gate() {
        let sink = sink_with(&[("table1", "is", "trad", "lrc_d", 4, stats(1_000_000, 50, 3))]);
        let doc = &sink.to_documents()["is"];
        assert_eq!(compare("is", doc, doc), Vec::<String>::new());
    }

    #[test]
    fn gate_fails_on_time_drift_and_count_drift() {
        let base = sink_with(&[("table1", "is", "trad", "lrc_d", 4, stats(1_000_000, 50, 3))]);
        let base_doc = &base.to_documents()["is"];

        // 1% time drift passes; counts identical.
        let near = sink_with(&[("table1", "is", "trad", "lrc_d", 4, stats(1_010_000, 50, 3))]);
        assert!(compare("is", base_doc, &near.to_documents()["is"]).is_empty());

        // 5% time drift fails.
        let slow = sink_with(&[("table1", "is", "trad", "lrc_d", 4, stats(1_050_000, 50, 3))]);
        let errs = compare("is", base_doc, &slow.to_documents()["is"]);
        assert!(
            errs.iter().any(|e| e.contains("time_ns drifted")),
            "{errs:?}"
        );

        // Any message-count drift fails even with identical time.
        let chatty = sink_with(&[("table1", "is", "trad", "lrc_d", 4, stats(1_000_000, 51, 3))]);
        let errs = compare("is", base_doc, &chatty.to_documents()["is"]);
        assert!(errs.iter().any(|e| e.contains("msgs changed")), "{errs:?}");

        // A vanished cell fails.
        let empty = sink_with(&[("table9", "is", "mpi", "vc_sd", 2, stats(1_000_000, 5, 0))]);
        let errs = compare("is", base_doc, &empty.to_documents()["is"]);
        assert!(
            errs.iter().any(|e| e.contains("missing from candidate")),
            "{errs:?}"
        );
    }

    fn crit_stats(makespan_ns: u64, net_ns: u64) -> RunStats {
        use vopp_metrics::{CritPath, CritSeg, OpKind, SegCat};
        let cpu = makespan_ns - net_ns;
        let mut s = stats(makespan_ns, 10, 0);
        s.crit = Some(std::sync::Arc::new(CritPath {
            makespan_ns,
            end_node: 0,
            segs: vec![
                CritSeg {
                    node: 0,
                    lo_ns: 0,
                    hi_ns: cpu,
                    cat: SegCat::Cpu,
                    op: OpKind::App,
                    obj: 0,
                    app_ns: cpu,
                    overhead_ns: 0,
                    diff_ns: 0,
                },
                CritSeg {
                    node: 0,
                    lo_ns: cpu,
                    hi_ns: makespan_ns,
                    cat: SegCat::Net,
                    op: OpKind::Barrier,
                    obj: 0,
                    app_ns: 0,
                    overhead_ns: 0,
                    diff_ns: 0,
                },
            ],
        }));
        s
    }

    #[test]
    fn profiled_runs_produce_a_critpath_document() {
        let sink = MetricsSink::new();
        sink.begin_table("table3");
        sink.record("is", "vopp", "vc_sd", 4, &crit_stats(1_000_000, 250_000));
        sink.record("is", "trad", "lrc_d", 4, &stats(900_000, 10, 0)); // unprofiled
        let docs = sink.to_documents();
        assert_eq!(docs.keys().collect::<Vec<_>>(), ["critpath", "is"]);
        let doc = &docs["critpath"];
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(CRITPATH_SCHEMA));
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 1, "only the profiled run gets a cell");
        let c = &cells[0];
        assert_eq!(c.get("makespan_ns").unwrap().as_u64(), Some(1_000_000));
        assert_eq!(c.get("cpu_ns").unwrap().as_u64(), Some(750_000));
        assert_eq!(c.get("net_ns").unwrap().as_u64(), Some(250_000));
        assert_eq!(c.get("barrier_wait_ns").unwrap().as_u64(), Some(250_000));
        assert_eq!(c.get("cp_segments").unwrap().as_u64(), Some(2));
        // Ceilings: removing 250k of 1M caps speedup at 4/3.
        let net_free = c.get("whatif").unwrap().get("net_free").unwrap();
        assert_eq!(net_free.get("removed_ns").unwrap().as_u64(), Some(250_000));
        let ceiling = net_free.get("speedup_ceiling").unwrap().as_f64().unwrap();
        assert!((ceiling - 4.0 / 3.0).abs() < 1e-9, "{ceiling}");
    }

    #[test]
    fn critpath_gate_budgets_drift_against_the_makespan() {
        let doc_of = |makespan, net| {
            let sink = MetricsSink::new();
            sink.begin_table("table3");
            sink.record("is", "vopp", "vc_sd", 4, &crit_stats(makespan, net));
            sink.to_documents().remove("critpath").unwrap()
        };
        let base = doc_of(1_000_000, 250_000);
        // Identical passes.
        assert_eq!(compare("critpath", &base, &base), Vec::<String>::new());
        // net_ns moves by 1% of makespan: within the 2% budget even though
        // it is a 4% relative change of the field itself.
        let near = doc_of(1_000_000, 260_000);
        assert_eq!(compare("critpath", &base, &near), Vec::<String>::new());
        // net_ns moves by 5% of makespan: fails.
        let far = doc_of(1_000_000, 300_000);
        let errs = compare("critpath", &base, &far);
        assert!(
            errs.iter().any(|e| e.contains("net_ns drifted")),
            "{errs:?}"
        );
        // A vanished cell fails.
        let other = doc_of(2_000_000, 250_000);
        let sink = MetricsSink::new();
        sink.begin_table("table9");
        sink.record("sor", "vopp", "vc_d", 2, &crit_stats(500_000, 100_000));
        let missing = sink.to_documents().remove("critpath").unwrap();
        let errs = compare("critpath", &other, &missing);
        assert!(
            errs.iter().any(|e| e.contains("missing from candidate")),
            "{errs:?}"
        );
    }

    #[test]
    fn compare_dirs_round_trips_written_artifacts() {
        let base = std::env::temp_dir().join(format!("vopp-metrics-cmp-{}", std::process::id()));
        let (a, b) = (base.join("a"), base.join("b"));
        let sink = sink_with(&[
            ("table1", "is", "trad", "lrc_d", 4, stats(1_000_000, 50, 3)),
            (
                "table4",
                "gauss",
                "vopp",
                "vc_d",
                4,
                stats(2_000_000, 80, 7),
            ),
        ]);
        sink.write_all(&a).unwrap();
        sink.write_all(&b).unwrap();
        let (compared, errors) = compare_dirs(&a, &b);
        assert_eq!((compared, errors), (2, Vec::new()));

        // A missing candidate file is a violation, not a silent pass.
        std::fs::remove_file(b.join("BENCH_gauss.json")).unwrap();
        let (_, errors) = compare_dirs(&a, &b);
        assert!(!errors.is_empty());
        std::fs::remove_dir_all(&base).ok();
    }
}
