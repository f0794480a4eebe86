# Local verify == CI verify: each target below is exactly one CI job
# (.github/workflows/ci.yml). Run `make ci` before pushing.

CARGO ?= cargo

.PHONY: ci build test test-matrix fmt lint bench doc docs examples bench-track bench-scaling service-smoke ingest-smoke benchmark-check clean

ci: build test test-matrix fmt lint bench docs examples bench-track bench-scaling service-smoke ingest-smoke benchmark-check

build:
	$(CARGO) build --release --workspace --all-targets

test:
	$(CARGO) test --workspace -q

# The property-test matrix: the regression corpus (tests/corpus/) replays
# in every leg, then random sampling runs at two extra case budgets and
# stream seeds on top of the default `make test` leg. PROPTEST_CASES
# overrides the default per-property budget; FMIG_PROPTEST_SEED re-derives
# every property's RNG stream (corpus replay ignores both by design).
test-matrix:
	PROPTEST_CASES=128 FMIG_PROPTEST_SEED=20260729 $(CARGO) test --workspace -q
	PROPTEST_CASES=32 FMIG_PROPTEST_SEED=424242 $(CARGO) test --workspace -q

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

bench:
	$(CARGO) bench --no-run --workspace

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

# doc plus the prose: every relative link in README.md and docs/*.md
# must resolve (ci/check_links.py).
docs: doc
	python3 ci/check_links.py README.md docs

examples:
	set -e; for ex in examples/*.rs; do \
		name=$$(basename $$ex .rs); \
		echo "== example $$name =="; \
		$(CARGO) run --release --example $$name >/dev/null; \
	done

bench-track:
	$(CARGO) run --release -p fmig-bench --bin repro -- sweep --preset tiny --latency --out BENCH_sweep.json
	python3 ci/check_bench.py ci/bench_baseline.json BENCH_sweep.json

# The dense-identity scaling gate: the tiny sweep plus the refs/sec
# curve across preset sizes (--scaling adds the tiny/large scaling_curve
# array and scaling_large_refs_per_sec to the artifact). check_bench.py
# gates scaling_speedup_vs_hashed — the dense-id replay's throughput
# over the frozen hashed baseline — plus the large preset's absolute
# refs/sec floor; --require-scaling makes a missing large-preset key a
# failure so that coverage cannot silently vanish.
bench-scaling:
	$(CARGO) run --release -p fmig-bench --bin repro -- sweep --preset tiny --latency --scaling --out BENCH_scaling.json
	python3 ci/check_bench.py --require-scaling ci/bench_baseline.json BENCH_scaling.json

# The live-service oracle gate: boots the real fmig-origin/fmig-served/
# fmig-loadgen binaries over loopback, replays the tiny-preset cell
# healthy and degraded-peak, and fails unless the live miss counters
# and the p99 read wait exactly equal the hierarchy simulator's
# (daemon and simulator host the same disk half, fmig_sim::disk, so no
# tolerance is needed). The healthy run's throughput is
# recorded as service_refs_per_sec in the artifact (report-only — not
# gated; absolute socket throughput shifts with runner generations).
service-smoke:
	$(CARGO) build --release -p fmig-serve -p fmig-bench
	$(CARGO) run --release -p fmig-bench --bin repro -- service-smoke --bench BENCH_sweep.json

# The trace-ingestion gate: imports the pinned fixture of every external
# format (tests/fixtures/ingest/), holds each import to its pinned
# manifest/census stats, replays one imported sweep cell at two worker
# counts (byte-identical or fail), and records the import throughput as
# ingest_refs_per_sec in the artifact (report-only — not gated; parsing
# throughput shifts with runner generations).
ingest-smoke:
	$(CARGO) run --release -p fmig-bench --bin repro -- ingest-smoke --bench BENCH_sweep.json

# The benchmark package (benchmark/, see BENCHMARK.json) is a workspace
# of its own, so no other target compiles it: build it, run its tests,
# and drive one short run per pinned engine (closed-mixed pins
# HierarchySimulator, svc-loopback the live service, open-small and
# open-large MssSimulator — its disk path is the shared
# fmig_sim::disk::DiskPath, held at both scales). Each run prints one
# JSON line last; `"failed": 0` there means every output matched its
# pin. svc-loopback and closed-mixed run at the held-out seed 2024 as
# well: a change to the daemon↔origin protocol, or to the closed-loop
# engine (event queue, fault schedule, kinetic ranking, either device
# half), must hold on the pin it was not developed against.
BENCHMARK = $(CARGO) run --release --quiet --offline --manifest-path benchmark/Cargo.toml --
benchmark-check:
	$(CARGO) build --release --offline --manifest-path benchmark/Cargo.toml
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml
	set -e; for ws in closed-mixed:1993 closed-mixed:2024 svc-loopback:1993 svc-loopback:2024 open-small:1993 open-large:1993; do \
		w=$${ws%:*}; seed=$${ws#*:}; \
		echo "== benchmark $$w seed $$seed =="; \
		$(BENCHMARK) --workload $$w --seed $$seed --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed": *0[,}]'; \
	done

clean:
	$(CARGO) clean
