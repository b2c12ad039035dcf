# Convenience targets; everything is plain cargo underneath.

TRACE_DIR ?= target/trace-demo
METRICS_DIR ?= target/bench-metrics
BASELINE_DIR ?= crates/bench/baselines
CRITPATH_DIR ?= target/bench-critpath
CRITPATH_BASELINE_DIR ?= crates/bench/baselines-critpath
GOLDEN_DIR ?= crates/bench/golden

.PHONY: all check fmt clippy test tables tables-quick serve scaling netgen \
        bench bench-micro bench-wallclock baseline critpath baseline-critpath \
        golden metrics-demo trace-demo racecheck clean

all: check test

check: fmt clippy

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets

test:
	cargo build --release
	cargo test -q --workspace

tables:
	cargo run -p vopp-bench --release --bin tables -- all

tables-quick:
	cargo run -p vopp-bench --release --bin tables -- all --quick

# The serving workload (docs/SERVING.md): open-loop sharded KV store
# across the protocol matrix, two offered loads, and loss/slowdown/crash
# fault scenarios. Opt-in like `ext`; not part of `all`.
serve:
	cargo run -p vopp-bench --release --bin tables -- serve --quick

# The 64/128-node scaling family: IS/Gauss/SOR at 64 and 128 nodes under
# LRC_d, HLRC, and VC_sd, the event-dense regime where kernel scheduling
# dominates host time (docs/PERFORMANCE.md §4). Opt-in like `ext`; not
# part of `all`.
scaling:
	cargo run -p vopp-bench --release --bin tables -- scaling --quick --metrics target/scaling-metrics

# Modern network generations (docs/NETWORK.md): IS/Gauss/SOR/NN across
# 100 Mbps / 10 GbE / RDMA under LRC_d, VC_sd, and the RDMA-native VC_rdma,
# with phase-accounting breakdown rows. Runs the byte-identity test suite
# first; the BENCH_netgen.json regression gate runs inside `bench`, which
# sweeps netgen alongside the paper tables. Opt-in like `ext`; not part of
# `all`.
netgen:
	cargo test --release -p vopp-bench --test netgen
	cargo run -p vopp-bench --release --bin tables -- netgen --quick --metrics target/netgen-metrics

# Quick tables with machine-readable metrics, then the perf-regression
# gate against the committed baselines (>2% time drift or any count drift
# fails the build).
bench:
	cargo run -p vopp-bench --release --bin tables -- all serve scaling netgen --quick --metrics $(METRICS_DIR)
	cargo run -p vopp-bench --release --bin metrics_diff -- $(BASELINE_DIR) $(METRICS_DIR)

# Full quick sweep on every core, reporting real time per cell. Wall-clock
# is machine-dependent and never gated; see docs/PERFORMANCE.md.
bench-wallclock:
	cargo run -p vopp-bench --release --bin tables -- all serve scaling netgen --quick --metrics $(METRICS_DIR)
	@echo "Wall-clock artifact:"
	@cat $(METRICS_DIR)/BENCH_wallclock.json

# Refresh the committed baselines after an intentional perf change. The
# machine-dependent wall-clock artifact is never committed as a baseline.
baseline:
	cargo run -p vopp-bench --release --bin tables -- all serve scaling netgen --quick --metrics $(BASELINE_DIR)
	rm -f $(BASELINE_DIR)/BENCH_wallclock.json

# Critical-path profile of the full quick sweep (docs/OBSERVABILITY.md):
# every table gains CP blame rows and what-if ceilings, the sweep writes
# BENCH_critpath.json, and the critpath regression gate runs against the
# committed baselines. Covers all five protocols (stats tables + ext +
# serve).
critpath:
	cargo run -p vopp-bench --release --bin tables -- all ext serve --quick --critpath --metrics $(CRITPATH_DIR)
	cargo run -p vopp-bench --release --bin metrics_diff -- $(CRITPATH_BASELINE_DIR) $(CRITPATH_DIR)

# Refresh the committed critpath baselines after an intentional change to
# the protocols or the cost model. Only BENCH_critpath.json is committed;
# the per-app artifacts stay gated by `make baseline`.
baseline-critpath:
	cargo run -p vopp-bench --release --bin tables -- all ext serve --quick --critpath --metrics $(CRITPATH_DIR)
	cp $(CRITPATH_DIR)/BENCH_critpath.json $(CRITPATH_BASELINE_DIR)/BENCH_critpath.json

# Refresh the committed golden table text after an intentional change to
# a table's rows or values. CI diffs its quick sweeps against these files.
golden:
	cargo run -p vopp-bench --release --bin tables -- all ext serve scaling netgen --quick --jobs 1 > $(GOLDEN_DIR)/quick_tables.txt
	cargo run -p vopp-bench --release --bin tables -- all ext serve --quick --jobs 1 --critpath > $(GOLDEN_DIR)/quick_tables_critpath.txt

# One metered table, artifacts left in target/metrics-demo for inspection.
metrics-demo:
	cargo run -p vopp-bench --release --bin tables -- table1 --quick --metrics target/metrics-demo
	@echo "Metrics artifacts in target/metrics-demo:"
	@ls target/metrics-demo

bench-micro:
	cargo bench --workspace

# A Perfetto-ready trace of IS on 4 nodes (quick scale): load the
# *.perfetto.json files from $(TRACE_DIR) in https://ui.perfetto.dev
trace-demo:
	cargo run -p vopp-bench --release --bin tables -- table1 --quick --trace $(TRACE_DIR)
	@echo "Perfetto files in $(TRACE_DIR):"
	@ls $(TRACE_DIR)

# The dynamic-checker suite (docs/CORRECTNESS.md): clean applications
# across all five protocol×style cells must report zero violations, the
# seeded-racy variants their exact known-answer counts.
racecheck:
	cargo run -p vopp-bench --release --bin tables -- --racecheck

clean:
	cargo clean
