# Local verify == CI verify: each target below is exactly one CI job
# (.github/workflows/ci.yml). Run `make ci` before pushing.

CARGO ?= cargo

.PHONY: ci build test test-matrix fmt lint doc docs examples service-smoke paper-scale benchmark-check benchmark clean

ci: build test test-matrix fmt lint docs examples service-smoke paper-scale benchmark-check

build:
	$(CARGO) build --release --workspace --all-targets

test:
	$(CARGO) test --workspace -q

# The property-test matrix: the regression corpus (tests/corpus/) replays
# in every leg, then random sampling runs at two extra case budgets and
# stream seeds on top of the default `make test` leg. PROPTEST_CASES
# overrides the default per-property budget; FMIG_PROPTEST_SEED re-derives
# every property's RNG stream (corpus replay ignores both by design).
# Properties on the default budget ride both legs — among them
# tests/cache_spec.rs's random_streams_agree_with_the_spec, which holds
# DiskCache in both eviction modes and the MRC point to the naive cache
# specification (tests/spec/mod.rs) for every shipped policy.
test-matrix:
	PROPTEST_CASES=128 FMIG_PROPTEST_SEED=20260729 $(CARGO) test --workspace -q
	PROPTEST_CASES=32 FMIG_PROPTEST_SEED=424242 $(CARGO) test --workspace -q

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

# doc plus the prose: every relative link in README.md, docs/*.md and
# the verify skill's checklists must resolve, and every code name they
# cite must exist in a tracked *.rs file (ci/check_links.py).
docs: doc
	python3 ci/check_links.py README.md docs .claude/skills/verify/SKILL.md

examples:
	set -e; for ex in examples/*.rs; do \
		name=$$(basename $$ex .rs); \
		echo "== example $$name =="; \
		$(CARGO) run --release --example $$name >/dev/null; \
	done

# The live-service oracle gate: boots the real fmig-origin/fmig-served/
# fmig-loadgen binaries over loopback, replays the tiny-preset cell
# healthy and degraded-peak, and fails unless the live miss counters
# and the p99 read wait exactly equal the hierarchy simulator's
# (daemon and simulator host the same disk half, fmig_sim::disk, so no
# tolerance is needed).
service-smoke:
	$(CARGO) build --release -p fmig-serve -p fmig-bench
	$(CARGO) run --release -p fmig-bench --bin repro -- service-smoke

# The paper-scale guard: the whole report at scale 1 on two CPUs must
# peak at most 800 MiB resident (VmHWM via getrusage, ci/peak_rss.py)
# and print exactly the report whose SHA-256 ci/paper-scale.sha256
# holds. The study holds each trace once and every fan-out runs on the
# bounded pool, whose width taskset fixes, so the bound does not depend
# on the host's CPU count. A change that means to move the report
# re-bases the digest file.
paper-scale:
	$(CARGO) build --release -p fmig-bench --bin repro
	taskset -c 0,1 python3 ci/peak_rss.py 800 target/release/repro --scale 1 all \
		> target/paper-scale.txt; status=$$?; cat target/paper-scale.txt; exit $$status
	grep -qx "stdout sha256 $$(cat ci/paper-scale.sha256)" target/paper-scale.txt || \
		{ echo "the scale-1 report's digest differs from ci/paper-scale.sha256" >&2; exit 1; }

# The benchmark package (benchmark/, see BENCHMARK.json) is a workspace
# of its own, so no other target compiles it: build it, run its tests,
# and drive one short run per pinned engine (closed-mixed pins
# HierarchySimulator, svc-loopback the live service, open-small and
# open-large MssSimulator — its disk path is the shared
# fmig_sim::disk::DiskPath, held at both scales — and ingest-msr the
# import-then-sweep path). Each run prints one JSON line last;
# `"failed": 0` there means every output matched its pin. Every
# workload runs at the held-out seed 2024 as well: a change to the
# daemon↔origin protocol, to the closed-loop engine (event queue,
# fault schedule, victim ranking, either device half), to the
# open-loop front half (generator stream, sim::sim, file census, prep —
# the path-free id route run_sweep takes since PR 19), or to the MRC
# stacks on the store-streaming path (ingest-msr runs them under
# affine policies) must hold on the pin it was not developed against.
BENCHMARK = $(CARGO) run --release --quiet --offline --manifest-path benchmark/Cargo.toml --
benchmark-check:
	$(CARGO) build --release --offline --manifest-path benchmark/Cargo.toml
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml
	set -e; for ws in closed-mixed:1993 closed-mixed:2024 svc-loopback:1993 svc-loopback:2024 open-small:1993 open-small:2024 open-large:1993 open-large:2024 ingest-msr:1993 ingest-msr:2024; do \
		w=$${ws%:*}; seed=$${ws#*:}; \
		echo "== benchmark $$w seed $$seed =="; \
		$(BENCHMARK) --workload $$w --seed $$seed --seconds 2 --trace 0 | tail -n 1 | grep -q '"failed": *0[,}]'; \
	done

# The one target that measures: every workload's end-to-end metrics,
# then the traced run that fills the per-layer ledger (names, units and
# bounds in BENCHMARK.json; method in benchmark/README.md). Not part of
# `make ci`; output lands in the ignored benchmark/out/.
benchmark:
	$(BENCHMARK) all
	$(BENCHMARK) trace

clean:
	$(CARGO) clean
