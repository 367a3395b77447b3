# Development pipeline. `make ci` is the gate: format check, clippy with
# warnings denied, a release build, a release build of the end-to-end
# benchmark, every workspace crate's tests except the bench crate's, the
# WAL fault-injection suite, the ldml-lint self-check over the example
# scripts, the bench smoke run (which validates the BENCH_*.json
# shapes), and the server smoke run (a scripted client session against
# an in-process winslett-serve instance). It also builds the API docs
# with rustdoc warnings denied (`make doc`).

CARGO ?= cargo

.PHONY: ci fmt fmt-check clippy doc build perfbench-build test faults lint lint-conflicts bench-smoke serve-smoke compaction-smoke replication-smoke connections-smoke txn-smoke

ci: fmt-check clippy doc build perfbench-build test faults lint lint-conflicts bench-smoke compaction-smoke replication-smoke connections-smoke txn-smoke serve-smoke
	@echo "ci: all checks passed"

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings
	# unwrap/expect gate: crates/analyze and crates/server carry
	# `#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]`,
	# so this lib/bin pass (no cfg(test)) promotes any hit to an error.
	$(CARGO) clippy -p winslett-analyze -p winslett-serve --lib --bins -- -D warnings

# Rustdoc with warnings denied: deleting or privatizing a public item
# must not leave a broken intra-doc link behind.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

build:
	$(CARGO) build --release

# The end-to-end benchmark (BENCHMARK.json) is a package of its own,
# outside the workspace, built from the core and server crates' source:
# building it here makes an API change that breaks it fail CI.
perfbench-build:
	$(CARGO) build --release --offline --manifest-path perfbench/Cargo.toml

# `cargo test` alone runs only the root package; this runs the unit,
# integration and doc tests of every workspace crate and vendor shim.
# The bench crate stays out: its txn_bench round-trip test asserts a
# throughput ratio that is flaky on 2-vCPU hosts.
test:
	$(CARGO) test -q --workspace --exclude winslett-bench

# Exhaustive crash sweep: kills WAL writes at every byte boundary and
# checks recovery lands on a legal prefix state. Release mode — the
# sweep runs thousands of open/replay cycles.
faults:
	$(CARGO) test --release -q -p winslett --test wal_recovery

lint:
	$(CARGO) run --release -q -p winslett-analyze --bin ldml-lint -- --self-check examples/*.ldml

# The footprint/commutativity pass (W007–W010) over the same scripts:
# emitted conflict codes must match each script's `-- expect-conflicts:`
# annotations exactly.
lint-conflicts:
	$(CARGO) run --release -q -p winslett-analyze --bin ldml-lint -- --conflicts --self-check examples/*.ldml

# Small E7-style workload through the parallel worlds engine, the WAL
# commit-latency run, the query-session run, and the server load run;
# the harness writes the BENCH_*.json files and fails if any shape does
# not validate.
bench-smoke:
	$(CARGO) run --release -q -p winslett-bench --bin harness -- worlds wal query server conflicts --quick --out target/bench-smoke

# Short compaction-on vs compaction-off run of the sustained-update
# stream; the harness writes BENCH_compaction.json and fails unless the
# compacted run plateaus, the uncompacted one grows, and every sampled
# probe verdict matches between the two.
compaction-smoke:
	$(CARGO) run --release -q -p winslett-bench --bin harness -- compaction --quick --out target/bench-smoke

# Boots a primary plus two in-process WAL-shipping replicas, runs the
# pinned-read sweep under a live writer, and re-runs the kill-byte
# catch-up sweep; the harness writes BENCH_replication.json and fails
# unless every sampled replica verdict matches the serial prefix and
# every kill point recovered consistently.
replication-smoke:
	$(CARGO) run --release -q -p winslett-bench --bin harness -- replication --quick --out target/bench-smoke

# Short concurrent-socket run (small tiers) of the epoll reactor; the
# harness writes BENCH_connections.json and fails unless the shape
# validates — in particular, unless every tier actually held every
# socket it asked for.
connections-smoke:
	$(CARGO) run --release -q -p winslett-bench --bin harness -- connections --quick --out target/bench-smoke

# Short three-shape transaction run (plain vs disjoint vs contended);
# the harness writes BENCH_txn.json and fails unless the shape
# validates — in particular, unless disjoint-footprint transactions
# sustained the plain batched baseline, no disjoint transaction ever
# hit the lock table, and every side's reopened storage replayed to
# the server's final verdicts.
txn-smoke:
	$(CARGO) run --release -q -p winslett-bench --bin harness -- txn --quick --out target/bench-smoke

# Boots a winslett-serve instance on an ephemeral port and drives a full
# scripted client session against it: schema declares, an LDML update, a
# pinned snapshot query racing a later write, stats, checkpoint, graceful
# shutdown, and a reopen of the flushed storage. Asserts every response.
serve-smoke:
	$(CARGO) run --release -q -p winslett-serve --bin winslett-serve -- smoke
