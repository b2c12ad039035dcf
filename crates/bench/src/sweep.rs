//! Parallel deterministic sweep runner.
//!
//! Every (application, variant, protocol, node-count) table cell is an
//! independent deterministic simulation, so the full sweep parallelizes
//! trivially: [`cells_for`] flattens a family's layout from the registry
//! ([`crate::tables::FAMILIES`]) into its cells, [`run_sweep`] executes the
//! de-duplicated cell list on a std-only scoped-thread worker pool, and
//! each family renders from the resulting [`RunCache`], recording its
//! metrics in layout order. Tables, `BENCH_<app>.json` metrics and trace
//! artifacts therefore come out byte-identical for any worker count —
//! only wall-clock changes.
//!
//! Wall-clock itself is reported (never gated): each cell is timed with
//! [`std::time::Instant`] outside the virtual-time world and
//! [`write_wallclock`] emits a `BENCH_wallclock.json` artifact
//! (schema [`WALLCLOCK_SCHEMA`]) with per-cell and total wall-clock plus the
//! estimated speedup over a sequential (`--jobs 1`) run.
//!
//! ## Persistent sweep cache
//!
//! Because every cell is a pure function of (cell key, problem scale, cost
//! model, simulator build), its result can be cached *across processes*:
//! [`DiskCache`] stores each cell's full-fidelity [`RunStats`] (see
//! [`crate::persist`]) in a single JSON file, content-addressed by a build
//! fingerprint (FNV-1a of the running executable) plus a [`context_hash`]
//! of the scale and cost models. `tables --cache DIR` opens the cache and
//! [`run_sweep_cached`] skips every warm cell — a warm rerun simulates
//! nothing and replays byte-identical tables and metrics artifacts. Any
//! rebuild or configuration change flips the fingerprint/context and
//! invalidates the file wholesale; writes are atomic (temp file + rename)
//! so a crashed sweep can never leave a torn cache behind.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vopp_core::{Protocol, RunStats};
use vopp_dsm::CostModel;
use vopp_sim::handoff_totals;
use vopp_simnet::NetGen;
use vopp_trace::json::{num, obj, str, Value};

use crate::persist;
use crate::tables::{self, Scale};

/// Schema tag of the `BENCH_wallclock.json` artifact. `/2` adds the
/// `host` section (peak RSS, allocation counters) and the per-stage
/// (`enumerate`/`simulate`/`render`) timing array. `/3` and `/4` carried a
/// `sim` section of intra-run parallel-kernel counters; `/5` drops it with
/// that kernel (every run is sequential).
pub const WALLCLOCK_SCHEMA: &str = "vopp-bench-wallclock/5";

/// Application of a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellApp {
    /// Integer Sort.
    Is,
    /// Gaussian elimination.
    Gauss,
    /// Successive over-relaxation.
    Sor,
    /// Neural network training.
    Nn,
    /// Open-loop serving workload (`vopp-serve`).
    Serve,
}

impl CellApp {
    /// Artifact label (`is`, `gauss`, `sor`, `nn`, `serve`).
    pub fn label(self) -> &'static str {
        match self {
            CellApp::Is => "is",
            CellApp::Gauss => "gauss",
            CellApp::Sor => "sor",
            CellApp::Nn => "nn",
            CellApp::Serve => "serve",
        }
    }
}

/// Offered load of a serve cell: the base open-loop rate or double it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeLoad {
    /// The calibrated mean arrival rate.
    Base,
    /// Twice the base arrival rate (half the mean interarrival gap).
    High,
}

impl ServeLoad {
    /// Artifact label (`base`, `hi`).
    pub fn label(self) -> &'static str {
        match self {
            ServeLoad::Base => "base",
            ServeLoad::High => "hi",
        }
    }
}

/// Fault scenario of a serve cell, promoted into the run's
/// [`vopp_core::FaultPlan`] by the table runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// No injected faults.
    Clean,
    /// 2% datagram loss.
    Loss,
    /// Node 0 slowed 2x.
    Slow,
    /// Node 1 crashes mid-stream for a quarter of the schedule horizon and
    /// reconstructs its shard/view state from the home nodes (view-backed
    /// store only).
    Crash,
}

impl ServeFault {
    /// Artifact label (`clean`, `loss`, `slow`, `crash`).
    pub fn label(self) -> &'static str {
        match self {
            ServeFault::Clean => "clean",
            ServeFault::Loss => "loss",
            ServeFault::Slow => "slow",
            ServeFault::Crash => "crash",
        }
    }
}

/// The serve-specific dimensions of a cell (`None` on batch cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCell {
    /// Offered load.
    pub load: ServeLoad,
    /// Injected fault scenario.
    pub fault: ServeFault,
}

impl ServeCell {
    /// Key/label fragment, e.g. `base_crash`.
    pub fn label(self) -> String {
        format!("{}_{}", self.load.label(), self.fault.label())
    }
}

/// Program variant of a sweep cell (union of the per-app variant enums).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVariant {
    /// Lock/barrier program on a traditional DSM API.
    Traditional,
    /// View-oriented program.
    Vopp,
    /// View-oriented program with hoisted barriers (load-balanced).
    VoppLb,
    /// Message-passing reference (NN only).
    Mpi,
}

impl CellVariant {
    /// Artifact label (`trad`, `vopp`, `vopp_lb`, `mpi`).
    pub fn label(self) -> &'static str {
        match self {
            CellVariant::Traditional => "trad",
            CellVariant::Vopp => "vopp",
            CellVariant::VoppLb => "vopp_lb",
            CellVariant::Mpi => "mpi",
        }
    }
}

/// One sweep cell: a single deterministic cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Application to run.
    pub app: CellApp,
    /// Program variant.
    pub variant: CellVariant,
    /// DSM protocol (the NN MPI variant still carries the protocol its
    /// table passes, matching the trace-file naming convention).
    pub proto: Protocol,
    /// Processor count.
    pub np: usize,
    /// Serve-only dimensions: offered load and fault scenario. Always
    /// `Some` on [`CellApp::Serve`] cells, `None` otherwise.
    pub serve: Option<ServeCell>,
    /// Network generation the cell runs on (`tables netgen` cells only).
    /// `None` means the default configuration — the paper's 100 Mbps
    /// testbed — so every pre-existing cell key is unchanged.
    pub netgen: Option<NetGen>,
}

impl CellSpec {
    /// Cache/artifact key, matching the trace-file stem convention:
    /// `{app}_{variant}_{proto}_{np}p`, with the load/fault fragment after
    /// the variant on serve cells (`serve_vopp_base_crash_vc_sd_4p`) and
    /// the generation label after the variant on netgen cells
    /// (`is_vopp_rdma_vc_rdma_16p`).
    pub fn key(&self) -> String {
        format!(
            "{}_{}_{}_{}p",
            self.app.label(),
            self.variant_label(),
            self.proto.label().to_lowercase(),
            self.np
        )
    }

    /// The variant with the cell's other dimensions folded in: the
    /// load/fault fragment on serve cells (`vopp_base_crash`), the
    /// generation on netgen cells (`vopp_rdma`).
    pub fn variant_label(&self) -> String {
        let mut label = self.variant.label().to_string();
        if let Some(sc) = self.serve {
            label.push('_');
            label.push_str(&sc.label());
        }
        if let Some(gen) = self.netgen {
            label.push('_');
            label.push_str(gen.label());
        }
        label
    }
}

/// The serve-specific results of one cell, cached alongside its
/// [`RunStats`]: the merged per-request latency histogram and the
/// convergence evidence (checksum, GET digest, pages reconstructed after
/// crashes). `None` on batch cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePayload {
    /// Per-request service latency, merged across all serving nodes.
    pub latency: vopp_metrics::Histogram,
    /// Final-store checksum (equal to the sequential reference).
    pub checksum: u64,
    /// Order-independent digest of every GET's observed value.
    pub get_digest: u64,
    /// Requests served (the whole schedule, exactly once).
    pub served: u64,
    /// Pages shed by crash windows and rebuilt from the home nodes.
    pub recovered_pages: u64,
}

impl ServePayload {
    /// Lossless JSON encoding for the persistent sweep cache.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("latency", persist::hist_to_value(&self.latency)),
            ("checksum", str(&format!("{:016x}", self.checksum))),
            ("get_digest", str(&format!("{:016x}", self.get_digest))),
            ("served", num(self.served)),
            ("recovered_pages", num(self.recovered_pages)),
        ])
    }

    /// Inverse of [`ServePayload::to_value`]; `None` on any mismatch
    /// (treated by the cache as a miss).
    pub fn from_value(v: &Value) -> Option<ServePayload> {
        let hex = |field: &str| {
            v.get(field)
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        Some(ServePayload {
            latency: persist::hist_from_value(v.get("latency")?)?,
            checksum: hex("checksum")?,
            get_digest: hex("get_digest")?,
            served: v.get("served")?.as_u64()?,
            recovered_pages: v.get("recovered_pages")?.as_u64()?,
        })
    }
}

/// One precomputed run: verified statistics plus the real time it took.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The run's verified statistics (virtual time, counters).
    pub stats: RunStats,
    /// Serve-only results (latency histogram, convergence evidence);
    /// `None` on batch cells.
    pub serve: Option<ServePayload>,
    /// Real wall-clock spent simulating the cell, in nanoseconds.
    pub wall_ns: u64,
}

/// Precomputed sweep results, keyed by [`CellSpec::key`]. Every family
/// renders from one (see [`crate::tables::Family::render`]).
#[derive(Debug, Default)]
pub struct RunCache {
    runs: BTreeMap<String, CachedRun>,
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Real wall-clock of the whole sweep, in nanoseconds.
    pub total_wall_ns: u64,
    /// Cells replayed from the persistent [`DiskCache`] without simulating.
    pub warm_cells: usize,
    /// Cells actually simulated this run.
    pub simulated_cells: usize,
}

impl RunCache {
    /// Look up a precomputed run.
    pub fn get(&self, key: &str) -> Option<&CachedRun> {
        self.runs.get(key)
    }

    /// Number of precomputed cells.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when the sweep produced no cells.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Sum of per-cell wall-clock — the estimated `--jobs 1` sweep time.
    pub fn cells_wall_ns(&self) -> u64 {
        self.runs.values().map(|r| r.wall_ns).sum()
    }
}

/// A cell on the default network, outside the serve family.
pub(crate) fn cell(app: CellApp, variant: CellVariant, proto: Protocol, np: usize) -> CellSpec {
    CellSpec {
        app,
        variant,
        proto,
        np,
        serve: None,
        netgen: None,
    }
}

/// The cells of the family called `table`, in sweep order: its layout
/// in [`crate::tables::FAMILIES`], flattened. Panics on an unknown name.
pub fn cells_for(table: &str, scale: &Scale) -> Vec<CellSpec> {
    tables::family(table)
        .unwrap_or_else(|| panic!("unknown table {table:?}"))
        .cells(scale)
}

/// De-duplicate a cell list by key, keeping first-occurrence order (the
/// same cell can appear in several tables; one simulation serves all).
pub fn dedup_cells(specs: &[CellSpec]) -> Vec<CellSpec> {
    let mut seen = std::collections::BTreeSet::new();
    specs
        .iter()
        .filter(|s| seen.insert(s.key()))
        .copied()
        .collect()
}

/// Schema tag of the persistent sweep-cache file. `/3` adds the one-sided
/// datagram counter to the persisted network statistics.
pub const CACHE_SCHEMA: &str = "vopp-sweep-cache/3";

/// File name of the persistent sweep cache inside `--cache DIR`.
pub const CACHE_FILE: &str = "sweep-cache.json";

/// Hash of everything *besides* the cell key that determines a run's
/// result: problem scale (quick vs full), the network/CPU cost models and
/// the global fault plan. Folded into the cache address so e.g. a
/// `--quick` cache can never serve a full-scale sweep, nor a faulted sweep
/// a fault-free one. The cost models hash via their `Debug` form, which
/// covers every field.
pub fn context_hash(scale: &Scale) -> u64 {
    let net = scale.net_override.clone().unwrap_or_default();
    let cost = CostModel::default();
    let text = format!(
        "quick={} net={net:?} cost={cost:?} faults={}",
        scale.quick,
        scale.faults.label()
    );
    persist::fnv1a(text.as_bytes())
}

/// On-disk, content-addressed store of finished sweep cells.
///
/// The whole cache lives in one JSON file ([`CACHE_FILE`]) whose header
/// carries the build fingerprint and [`context_hash`]; a mismatch on either
/// invalidates every entry at once (the stale file is simply overwritten by
/// the next [`DiskCache::save`]). Cell entries store the lossless
/// [`crate::persist`] encoding of [`RunStats`] plus the original simulate
/// wall-clock, so replayed cells report how much real time they saved.
#[derive(Debug)]
pub struct DiskCache {
    path: PathBuf,
    fingerprint: u64,
    context: u64,
    cells: BTreeMap<String, CachedRun>,
}

impl DiskCache {
    /// Open (or initialize empty) the cache in `dir` for the current build.
    pub fn open(dir: &Path, context: u64) -> DiskCache {
        DiskCache::open_with_fingerprint(dir, context, persist::exe_fingerprint())
    }

    /// [`DiskCache::open`] with an explicit build fingerprint (tests use
    /// this to exercise invalidation without rebuilding the executable).
    pub fn open_with_fingerprint(dir: &Path, context: u64, fingerprint: u64) -> DiskCache {
        let path = dir.join(CACHE_FILE);
        let mut cells = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(doc) = Value::parse(&text) {
                let fp_hex = format!("{fingerprint:016x}");
                let ctx_hex = format!("{context:016x}");
                let matches = doc.get("schema").and_then(Value::as_str) == Some(CACHE_SCHEMA)
                    && doc.get("fingerprint").and_then(Value::as_str) == Some(fp_hex.as_str())
                    && doc.get("context").and_then(Value::as_str) == Some(ctx_hex.as_str());
                if matches {
                    if let Some(Value::Obj(entries)) = doc.get("cells") {
                        for (key, entry) in entries {
                            let wall = entry.get("wall_ns").and_then(Value::as_u64);
                            let stats = entry.get("stats").and_then(persist::stats_from_value);
                            // A serve entry must decode its payload too; a
                            // malformed one falls back to a cache miss.
                            let serve = match entry.get("serve") {
                                None => None,
                                Some(v) => match ServePayload::from_value(v) {
                                    Some(p) => Some(p),
                                    None => continue,
                                },
                            };
                            if let (Some(wall_ns), Some(stats)) = (wall, stats) {
                                cells.insert(
                                    key.clone(),
                                    CachedRun {
                                        stats,
                                        serve,
                                        wall_ns,
                                    },
                                );
                            }
                        }
                    }
                }
                // On mismatch: start empty — wholesale invalidation. The
                // stale file stays until the next save overwrites it.
            }
        }
        DiskCache {
            path,
            fingerprint,
            context,
            cells,
        }
    }

    /// Look up a finished cell.
    pub fn get(&self, key: &str) -> Option<&CachedRun> {
        self.cells.get(key)
    }

    /// Record a finished cell (persisted on the next [`DiskCache::save`]).
    pub fn insert(&mut self, key: String, run: CachedRun) {
        self.cells.insert(key, run);
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are cached.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomically persist the cache: write a sibling temp file, then rename
    /// over [`CACHE_FILE`], so readers never observe a torn document.
    pub fn save(&self) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let doc = obj(vec![
            ("schema", str(CACHE_SCHEMA)),
            ("fingerprint", str(&format!("{:016x}", self.fingerprint))),
            ("context", str(&format!("{:016x}", self.context))),
            (
                "cells",
                Value::Obj(
                    self.cells
                        .iter()
                        .map(|(key, run)| {
                            let mut fields = vec![
                                ("wall_ns", num(run.wall_ns)),
                                ("stats", persist::stats_to_value(&run.stats)),
                            ];
                            if let Some(p) = &run.serve {
                                fields.push(("serve", p.to_value()));
                            }
                            (key.clone(), obj(fields))
                        })
                        .collect(),
                ),
            ),
        ]);
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, doc.to_json_pretty())?;
        std::fs::rename(&tmp, &self.path)
    }
}

/// Run every cell on a scoped-thread worker pool with `jobs` workers and
/// return the populated [`RunCache`]. Each worker claims the next
/// unclaimed cell (atomic work index), simulates it through
/// [`tables::execute_cell`] (including trace artifacts and conformance
/// checks when `scale.trace_dir` is set), and times it with a real
/// [`Instant`]. Results land keyed by cell, so worker scheduling cannot
/// influence any downstream artifact.
pub fn run_sweep(scale: &Scale, specs: &[CellSpec], jobs: usize) -> RunCache {
    run_sweep_cached(scale, specs, jobs, None)
}

/// [`run_sweep`] backed by a persistent [`DiskCache`]: warm cells are
/// replayed from disk without simulating (their stored `wall_ns` still
/// reports the original simulate cost), cold cells go through the worker
/// pool as usual and are written back. The cache is saved once at the end
/// of the sweep (atomic rename), and only when something new was simulated.
/// Which cells were warm cannot influence any downstream artifact: both
/// paths produce the identical [`RunStats`] keyed by cell.
pub fn run_sweep_cached(
    scale: &Scale,
    specs: &[CellSpec],
    jobs: usize,
    mut disk: Option<&mut DiskCache>,
) -> RunCache {
    let t0 = Instant::now();
    let mut runs: BTreeMap<String, CachedRun> = BTreeMap::new();
    let mut cold: Vec<CellSpec> = Vec::new();
    // Trace artifacts and critical paths only exist for cells that are
    // actually simulated — a warm replay would silently produce neither.
    // With tracing or profiling requested, every cell runs cold (results
    // are still written back, so the cache warms up for ordinary sweeps).
    let replay_warm = scale.trace_dir.is_none() && !scale.critpath;
    for spec in specs {
        let key = spec.key();
        match disk
            .as_ref()
            .filter(|_| replay_warm)
            .and_then(|d| d.get(&key))
        {
            Some(run) => {
                runs.insert(key, run.clone());
            }
            None => cold.push(*spec),
        }
    }
    let warm_cells = runs.len();
    let jobs = jobs.clamp(1, cold.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CachedRun>>> = cold.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = cold.get(i) else { break };
                let c0 = Instant::now();
                let (stats, serve) = tables::execute_cell(scale, spec);
                let wall_ns = c0.elapsed().as_nanos() as u64;
                *slots[i].lock().expect("sweep slot lock") = Some(CachedRun {
                    stats,
                    serve,
                    wall_ns,
                });
            });
        }
    });
    for (spec, slot) in cold.iter().zip(slots) {
        let run = slot
            .into_inner()
            .expect("sweep slot lock")
            .expect("worker pool completed every cell");
        if let Some(d) = disk.as_deref_mut() {
            d.insert(spec.key(), run.clone());
        }
        runs.insert(spec.key(), run);
    }
    if let Some(d) = disk {
        if !cold.is_empty() {
            if let Err(e) = d.save() {
                eprintln!("warning: could not persist sweep cache: {e}");
            }
        }
    }
    RunCache {
        runs,
        jobs,
        total_wall_ns: t0.elapsed().as_nanos() as u64,
        warm_cells,
        simulated_cells: cold.len(),
    }
}

/// The `BENCH_wallclock.json` document for a finished sweep, including
/// host-side self-profiling: peak RSS, cumulative allocation counters
/// (live only when the binary installs [`crate::hostprof::CountingAlloc`])
/// and per-stage wall-clock/allocation deltas. Wall-clock and memory are
/// machine-dependent by nature: this artifact is reported and uploaded,
/// never byte-compared by the regression gate (which `metrics_diff`
/// enforces by skipping it).
pub fn wallclock_document(cache: &RunCache, stages: &[crate::hostprof::StageStats]) -> Value {
    let cells_ns = cache.cells_wall_ns();
    let (allocs, alloc_bytes) = crate::hostprof::alloc_totals();
    let peak_rss = crate::hostprof::peak_rss_bytes().map_or(Value::Null, num);
    let speedup = if cache.total_wall_ns > 0 {
        Value::Num(cells_ns as f64 / cache.total_wall_ns as f64)
    } else {
        Value::Null
    };
    let handoff = handoff_totals();
    obj(vec![
        ("schema", str(WALLCLOCK_SCHEMA)),
        ("jobs", num(cache.jobs as u64)),
        // Host-side resource accounting (never gated): the process's
        // high-water RSS (`null` off Linux) and cumulative allocation
        // counters, zero unless the binary installed the counting
        // allocator.
        (
            "host",
            obj(vec![
                ("peak_rss_bytes", peak_rss),
                ("allocs", num(allocs)),
                ("alloc_bytes", num(alloc_bytes)),
            ]),
        ),
        // Per-stage cost of the whole table run (enumerate cells, simulate
        // the sweep, render tables/artifacts). Empty when the caller did
        // not time stages.
        (
            "stages",
            Value::Arr(
                stages
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("name", str(s.name)),
                            ("wall_ns", num(s.wall_ns)),
                            ("wall_ms", Value::Num(s.wall_ns as f64 / 1e6)),
                            ("allocs", num(s.allocs)),
                            ("alloc_bytes", num(s.alloc_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        // Process-wide kernel scheduling counters: how many same-instant
        // wake-ups the direct-handoff path served without a controller
        // round-trip, and how many of those resumed the draining process
        // itself (no thread switch). Machine/schedule-independent for a
        // given sweep, but reported here (not in the gated artifacts)
        // alongside wall-clock.
        (
            "handoff",
            obj(vec![
                ("direct", num(handoff.direct)),
                ("via_controller", num(handoff.via_controller)),
                ("self_resumes", num(handoff.self_resumes)),
                (
                    "direct_share",
                    if handoff.total() > 0 {
                        Value::Num(handoff.direct as f64 / handoff.total() as f64)
                    } else {
                        Value::Null
                    },
                ),
            ]),
        ),
        // Persistent-cache effect on this sweep: cells replayed from disk
        // vs. actually simulated.
        (
            "cache",
            obj(vec![
                ("warm_cells", num(cache.warm_cells as u64)),
                ("simulated_cells", num(cache.simulated_cells as u64)),
            ]),
        ),
        (
            "cells",
            Value::Arr(
                cache
                    .runs
                    .iter()
                    .map(|(key, run)| {
                        obj(vec![
                            ("cell", str(key)),
                            ("wall_ns", num(run.wall_ns)),
                            ("wall_ms", Value::Num(run.wall_ns as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total",
            obj(vec![
                ("wall_ns", num(cache.total_wall_ns)),
                ("wall_secs", Value::Num(cache.total_wall_ns as f64 / 1e9)),
                // Estimated sequential sweep time: the sum of per-cell
                // wall-clock (what `--jobs 1` would spend simulating).
                ("cells_wall_ns", num(cells_ns)),
                ("speedup_vs_jobs1", speedup),
            ]),
        ),
    ])
}

/// Write `BENCH_wallclock.json` into `dir` (created if needed).
pub fn write_wallclock(
    cache: &RunCache,
    stages: &[crate::hostprof::StageStats],
    dir: &Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("BENCH_wallclock.json"),
        wallclock_document(cache, stages).to_json_pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_cell(
        variant: CellVariant,
        proto: Protocol,
        np: usize,
        load: ServeLoad,
        fault: ServeFault,
    ) -> CellSpec {
        CellSpec {
            serve: Some(ServeCell { load, fault }),
            ..cell(CellApp::Serve, variant, proto, np)
        }
    }

    fn netgen_cell(
        app: CellApp,
        variant: CellVariant,
        gen: NetGen,
        proto: Protocol,
        np: usize,
    ) -> CellSpec {
        CellSpec {
            netgen: Some(gen),
            ..cell(app, variant, proto, np)
        }
    }

    #[test]
    fn keys_match_trace_stems() {
        let spec = cell(CellApp::Nn, CellVariant::Mpi, Protocol::VcSd, 4);
        assert_eq!(spec.key(), "nn_mpi_vc_sd_4p");
        let spec = cell(CellApp::Is, CellVariant::Traditional, Protocol::LrcD, 16);
        assert_eq!(spec.key(), "is_trad_lrc_d_16p");
        let spec = serve_cell(
            CellVariant::Vopp,
            Protocol::VcSd,
            4,
            ServeLoad::Base,
            ServeFault::Crash,
        );
        assert_eq!(spec.key(), "serve_vopp_base_crash_vc_sd_4p");
        let spec = serve_cell(
            CellVariant::Traditional,
            Protocol::ScC,
            16,
            ServeLoad::High,
            ServeFault::Clean,
        );
        assert_eq!(spec.key(), "serve_trad_hi_clean_scc_d_16p");
        // Netgen cells carry the generation after the variant; the default
        // (None) keys are untouched, so pre-existing caches and artifacts
        // keep their addressing.
        let spec = netgen_cell(
            CellApp::Is,
            CellVariant::Vopp,
            NetGen::Rdma,
            Protocol::VcRdma,
            16,
        );
        assert_eq!(spec.key(), "is_vopp_rdma_vc_rdma_16p");
        let spec = netgen_cell(
            CellApp::Sor,
            CellVariant::Traditional,
            NetGen::Eth100m,
            Protocol::LrcD,
            4,
        );
        assert_eq!(spec.key(), "sor_trad_eth100m_lrc_d_4p");
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let a = cell(CellApp::Is, CellVariant::Traditional, Protocol::LrcD, 4);
        let b = cell(CellApp::Is, CellVariant::Vopp, Protocol::VcSd, 4);
        let out = dedup_cells(&[a, b, a, b, a]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].key(), a.key());
        assert_eq!(out[1].key(), b.key());
    }

    #[test]
    fn quick_table_enumeration_covers_every_run() {
        // table1 at quick scale: 3 stats cells.
        let scale = Scale::quick();
        assert_eq!(cells_for("table1", &scale).len(), 3);
        // table3: 1p base + 3 rows x 2 speedup counts.
        assert_eq!(cells_for("table3", &scale).len(), 7);
        // table9: 1p base + 3 rows x 2 speedup counts.
        assert_eq!(cells_for("table9", &scale).len(), 7);
        assert_eq!(cells_for("ext", &scale).len(), 8);
        // serve: 5 clean protocols + 2 hi-load + 2x2 loss/slow + 2 crash.
        let serve = cells_for("serve", &scale);
        assert_eq!(serve.len(), 13);
        assert_eq!(dedup_cells(&serve).len(), 13, "serve cells are distinct");
        assert!(serve.iter().all(|c| c.serve.is_some()));
        // scaling: 3 apps x 2 node counts x 3 protocols, all distinct.
        let scaling = cells_for("scaling", &scale);
        assert_eq!(scaling.len(), 18);
        assert_eq!(dedup_cells(&scaling).len(), 18);
        assert!(scaling.iter().all(|c| c.np >= 64));
        // netgen: 4 apps x 3 generations x 3 protocols, all distinct, every
        // cell tagged with its generation (no aliasing the paper cells).
        let netgen = cells_for("netgen", &scale);
        assert_eq!(netgen.len(), 36);
        assert_eq!(dedup_cells(&netgen).len(), 36);
        assert!(netgen.iter().all(|c| c.netgen.is_some()));
    }

    /// The sweep cache can never serve a cell across network generations:
    /// the generation is part of the cell key, and the scale-level override
    /// is part of the context hash.
    #[test]
    fn cache_addressing_covers_the_network_dimension() {
        // Same (app, variant, proto, np) under different generations are
        // different cache keys.
        let keys: std::collections::BTreeSet<String> = tables::NETGEN_GENS
            .iter()
            .map(|&g| netgen_cell(CellApp::Is, CellVariant::Vopp, g, Protocol::VcSd, 4).key())
            .collect();
        assert_eq!(keys.len(), tables::NETGEN_GENS.len());
        // A scale-wide net override flips the context hash, so a cache
        // populated under one network can never warm another.
        let base = Scale::quick();
        let mut overridden = Scale::quick();
        overridden.net_override = Some(NetGen::Rdma.config());
        assert_ne!(context_hash(&base), context_hash(&overridden));
        // eth100m is bit-for-bit the default config, so its override hashes
        // like no override at all — the byte-identity invariant in hash form.
        let mut eth = Scale::quick();
        eth.net_override = Some(NetGen::Eth100m.config());
        assert_eq!(context_hash(&base), context_hash(&eth));
    }

    #[test]
    fn sweep_runs_cells_and_times_them() {
        let scale = Scale::quick();
        let specs = dedup_cells(&cells_for("table1", &scale));
        let cache = run_sweep(&scale, &specs, 2);
        assert_eq!(cache.len(), 3);
        assert!(cache.total_wall_ns > 0);
        for spec in &specs {
            let run = cache.get(&spec.key()).expect("cell precomputed");
            assert!(run.stats.time.nanos() > 0);
        }
        let stages = [crate::hostprof::StageStats {
            name: "simulate",
            wall_ns: 123,
            allocs: 0,
            alloc_bytes: 0,
        }];
        let doc = wallclock_document(&cache, &stages);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(WALLCLOCK_SCHEMA)
        );
        assert_eq!(
            doc.get("cells").and_then(Value::as_arr).map(<[_]>::len),
            Some(3)
        );
        // Host accounting is always present; counters may be zero (no
        // counting allocator in tests), RSS may be null off Linux.
        let host = doc.get("host").expect("host section");
        assert!(host.get("allocs").and_then(Value::as_u64).is_some());
        assert!(host.get("alloc_bytes").and_then(Value::as_u64).is_some());
        assert!(host.get("peak_rss_bytes").is_some());
        let staged = doc.get("stages").and_then(Value::as_arr).expect("stages");
        assert_eq!(staged.len(), 1);
        assert_eq!(
            staged[0].get("name").and_then(Value::as_str),
            Some("simulate")
        );
        assert_eq!(staged[0].get("wall_ns").and_then(Value::as_u64), Some(123));
        // No disk cache: every cell simulated.
        let cache_doc = doc.get("cache").expect("cache section");
        assert_eq!(cache_doc.get("warm_cells").and_then(Value::as_u64), Some(0));
        assert_eq!(
            cache_doc.get("simulated_cells").and_then(Value::as_u64),
            Some(3)
        );
        assert!(doc.get("handoff").is_some());
        // `/5`: the parallel-kernel section is gone with the kernel.
        assert!(doc.get("sim").is_none());
    }

    /// Fresh scratch directory under the target-adjacent temp dir; unique
    /// per test name so parallel tests never collide.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("vopp-sweep-cache-tests")
            .join(format!("{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample_run(seed: u64) -> CachedRun {
        let mut stats = RunStats {
            nprocs: 4,
            ..RunStats::default()
        };
        stats.time = vopp_sim::SimTime(1_000 + seed);
        stats.nodes.barriers = seed;
        stats.net.msgs = 10 * seed;
        CachedRun {
            stats,
            serve: None,
            wall_ns: 5_000 + seed,
        }
    }

    fn sample_kv_run(seed: u64) -> CachedRun {
        let mut run = sample_run(seed);
        let mut latency = vopp_metrics::Histogram::default();
        latency.record(1_000 + seed);
        latency.record(90_000_000);
        run.serve = Some(ServePayload {
            latency,
            checksum: 0xdead_beef ^ seed,
            get_digest: 0x5eed ^ seed,
            served: 400,
            recovered_pages: seed,
        });
        run
    }

    #[test]
    fn serve_payload_survives_the_disk_cache() {
        let dir = scratch("serve-payload");
        let mut cache = DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF0);
        cache.insert("serve_vopp_base_crash_vc_sd_4p".into(), sample_kv_run(3));
        cache.save().expect("save cache");

        let warm = DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF0);
        let run = warm.get("serve_vopp_base_crash_vc_sd_4p").expect("warm");
        let original = sample_kv_run(3);
        assert_eq!(run.serve, original.serve);
        let p = run.serve.as_ref().unwrap();
        assert_eq!(p.latency.count(), 2);
        assert_eq!(p.latency.max_ns(), 90_000_000);

        // A corrupted serve payload turns the entry into a miss instead of
        // replaying a half-decoded cell.
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).expect("read cache");
        std::fs::write(
            dir.join(CACHE_FILE),
            text.replace("recovered_pages", "recovered"),
        )
        .expect("corrupt");
        assert!(DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF0).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_round_trips_and_invalidates() {
        let dir = scratch("round-trip");
        let mut cache = DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF0);
        assert!(cache.is_empty());
        cache.insert("is_vopp_vc_d_4p".into(), sample_run(7));
        cache.save().expect("save cache");
        assert!(dir.join(CACHE_FILE).exists());

        // Same fingerprint + context: the cell is warm and byte-identical.
        let warm = DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF0);
        assert_eq!(warm.len(), 1);
        let run = warm.get("is_vopp_vc_d_4p").expect("warm cell");
        assert_eq!(run.wall_ns, 5_007);
        assert_eq!(
            persist::stats_to_value(&run.stats).to_json(),
            persist::stats_to_value(&sample_run(7).stats).to_json()
        );

        // Different build fingerprint or context: wholesale invalidation.
        assert!(DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF1).is_empty());
        assert!(DiskCache::open_with_fingerprint(&dir, 0xC1, 0xF0).is_empty());
        // Corrupt file: treated as empty, not an error.
        std::fs::write(dir.join(CACHE_FILE), "{ torn").expect("corrupt");
        assert!(DiskCache::open_with_fingerprint(&dir, 0xC0, 0xF0).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_sweep_replays_without_simulating() {
        let dir = scratch("warm-sweep");
        let scale = Scale::quick();
        let ctx = context_hash(&scale);
        let specs = dedup_cells(&cells_for("table1", &scale));

        let mut disk = DiskCache::open(&dir, ctx);
        let cold = run_sweep_cached(&scale, &specs, 2, Some(&mut disk));
        assert_eq!((cold.warm_cells, cold.simulated_cells), (0, 3));

        let mut disk = DiskCache::open(&dir, ctx);
        assert_eq!(disk.len(), 3);
        let warm = run_sweep_cached(&scale, &specs, 2, Some(&mut disk));
        assert_eq!((warm.warm_cells, warm.simulated_cells), (3, 0));
        for spec in &specs {
            let a = cold.get(&spec.key()).expect("cold cell");
            let b = warm.get(&spec.key()).expect("warm cell");
            assert_eq!(
                persist::stats_to_value(&a.stats).to_json(),
                persist::stats_to_value(&b.stats).to_json(),
                "replayed stats must be byte-identical for {}",
                spec.key()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression test: a warm cache used to make `--trace` (and would make
    /// `--critpath`) silently no-ops — zero cells simulated means zero
    /// trace files and zero critical paths. Both flags must force every
    /// cell cold.
    #[test]
    fn traced_or_profiled_sweeps_resimulate_warm_cells() {
        let dir = scratch("trace-vs-cache");
        let scale = Scale::quick();
        let ctx = context_hash(&scale);
        let specs = dedup_cells(&cells_for("table1", &scale));
        let mut disk = DiskCache::open(&dir, ctx);
        run_sweep_cached(&scale, &specs, 2, Some(&mut disk));

        // A traced sweep over the now-warm cache still simulates every
        // cell and writes its trace artifacts.
        let trace_dir = dir.join("traces");
        let mut traced_scale = scale.clone();
        traced_scale.trace_dir = Some(trace_dir.clone());
        let mut disk = DiskCache::open(&dir, ctx);
        assert_eq!(disk.len(), 3, "cache is warm");
        let traced = run_sweep_cached(&traced_scale, &specs, 2, Some(&mut disk));
        assert_eq!((traced.warm_cells, traced.simulated_cells), (0, 3));
        for spec in &specs {
            let f = trace_dir.join(format!("{}.perfetto.json", spec.key()));
            assert!(f.exists(), "trace missing for {}", spec.key());
        }

        // Same for a profiled sweep: a warm replay would carry no path.
        let mut prof_scale = scale.clone();
        prof_scale.critpath = true;
        let mut disk = DiskCache::open(&dir, ctx);
        let prof = run_sweep_cached(&prof_scale, &specs, 2, Some(&mut disk));
        assert_eq!((prof.warm_cells, prof.simulated_cells), (0, 3));
        for spec in &specs {
            let run = prof.get(&spec.key()).expect("profiled cell");
            assert!(run.stats.crit.is_some(), "{} lost its path", spec.key());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
