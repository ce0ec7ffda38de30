# Biscuit repo entry points. `make check` is what CI runs.

GO ?= go
VETTOOL := bin/biscuitvet

# Tier-1 packages: the deterministic kernel the rest of the repo
# depends on (see ROADMAP.md), the two packages sitting directly on its
# coroutine handoff (fibers, core), plus the scan path from a NAND sense
# to a host RowBatch. `make race` runs them under the race detector;
# sim's cooperative scheduler makes races here the most dangerous kind.
TIER1 := ./internal/ports/... ./internal/hostif/... ./internal/sim/... \
	./internal/fibers/... ./internal/core/... \
	./internal/nand/... ./internal/ftl/... ./internal/isfs/... \
	./internal/db/... ./internal/match/...

.PHONY: all build test race racefault vet vet-fix fmt check faulttest fuzzsmoke faultbench healtest benchsmoke benchgate bless-bench ledgersmoke tracesmoke lines clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(TIER1)

# Race detector over the failure paths + trace determinism: the fault
# suite exercises the retry/reconstruction/fallback schedules where a
# data race would silently break determinism, and
# TestTraceDeterministic is the end-to-end witness that the whole span
# pipeline stays schedule-independent.
racefault:
	$(GO) test -race -count=2 ./internal/fault/...
	$(GO) test -race $(FAULTPKGS)
	$(GO) test -race -run TestTraceDeterministic .

# Failure-path suite (DESIGN.md "Fault model"): the fault engine's own
# tests plus every package with a fault/corruption/retry/degradation
# path, run twice to catch schedule nondeterminism. Selection is by
# package, not by test name: a new fault test cannot miss the suite by
# how it is called.
FAULTPKGS := ./internal/ftl/... ./internal/hostif/... ./internal/isfs/... \
	./internal/db ./internal/tpch/... ./internal/weblog/... ./internal/bench

faulttest:
	$(GO) test -count=2 ./internal/fault/... $(FAULTPKGS)

# Fuzz smoke: 10 s each of the fault-plan parser, the two matcher
# oracles and the page decoder under a column mask (go test -fuzz takes
# one target and one package per run).
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault
	$(GO) test -run '^$$' -fuzz=FuzzStreamEqualsWholeScan -fuzztime=10s ./internal/match
	$(GO) test -run '^$$' -fuzz=FuzzMultiKeyEqualsNaive -fuzztime=10s ./internal/match
	$(GO) test -run '^$$' -fuzz=FuzzDecodePage -fuzztime=10s ./internal/db

# Self-healing suite (DESIGN.md "Self-healing"): the health monitor's
# unit tests plus every package with a rebuild/migration/replica/health
# path, run twice to catch schedule nondeterminism — the transition
# log, rebuild page order and migration cutover points are all part of
# the deterministic surface. Selected by package, like faulttest.
HEALPKGS := ./internal/ftl/... ./internal/serve/... ./internal/tpch/... \
	./internal/weblog/...

healtest:
	$(GO) test -count=2 ./internal/health/... $(HEALPKGS)

# Fault bench: the availability/latency-under-fault curve at reduced
# size (3 sweep points, BENCH_faultcurve.json), traced; tracestat then
# checks every swept platform's export — async spans must balance even
# on the reconstruction/scrub/fallback paths. Its output has a
# directory of its own, so the quick-size JSON never overwrites the
# full-size bench-out/BENCH_faultcurve.json that benchgate compared.
FAULTOUT := bench-out/faultbench

faultbench:
	mkdir -p $(FAULTOUT)
	$(GO) run ./cmd/biscuitbench -exp faultcurve -quick -json $(FAULTOUT) -trace $(FAULTOUT)/faultcurve.trace.json
	$(GO) run ./cmd/tracestat $(FAULTOUT)/faultcurve.trace.json* > /dev/null

# Benchmark smoke: run the executor, join-probe, Q7-shaped join-chain,
# row-decode, DES-core, proc-wake, and fiber-switch benchmarks once
# (-benchtime=1x) so CI catches bit-rot in the benchmark harness without
# paying for a real measurement run.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkExecBatch|BenchmarkBNLJoin|BenchmarkHashJoinChain|BenchmarkDecodeRow|BenchmarkSimCore|BenchmarkProcWake|BenchmarkFiberSwitch' \
		-benchtime=1x ./internal/db ./internal/sim ./internal/fibers

# Bench gate (DESIGN.md "The bench gate"): regenerate every experiment
# biscuitbench knows (-exp all: Tables II-V, Figs. 7-10, the fault,
# serving and self-healing curves and the eight ablations of DESIGN.md
# §5) in one run, and compare them against the twelve baselines
# committed under baselines/ with cmd/benchgate. `all` rather than a
# list, so a new experiment cannot be left ungated; the biscuitbench
# test requires a baseline per experiment. Every field is
# simulated-time deterministic, so the comparison is exact. One traced
# serving window rides along: rerun with the same seed, compared
# byte-for-byte, checked by tracestat. Wall clock is not gated here;
# that is `go run ./benchmark`.
SERVETRACE := -devices 2 -tenants 2 -sf 0.002 -rate 150 -window 200 -seed 7

benchgate: benchsmoke
	mkdir -p bench-out
	$(GO) run ./cmd/biscuitbench -exp all -json bench-out
	$(GO) run ./cmd/sqlssd $(SERVETRACE) -trace bench-out/serve.trace.json > /dev/null
	$(GO) run ./cmd/sqlssd $(SERVETRACE) -trace bench-out/serve.rerun.trace.json > /dev/null
	cmp bench-out/serve.trace.json bench-out/serve.rerun.trace.json
	$(GO) run ./cmd/tracestat bench-out/serve.trace.json > /dev/null
	$(GO) run ./cmd/benchgate baselines bench-out

# bless-bench: accept the current bench-out results as the new
# committed baselines (after an intended model or schema change). Run
# `make benchgate` first so bench-out is fresh. EXPERIMENTS.md is the
# rendering of these baselines: after a bless, run
# `go test ./cmd/biscuitbench` and paste every block it names into
# EXPERIMENTS.md, then commit baselines/ and the doc together.
bless-bench:
	$(GO) run ./cmd/benchgate -bless baselines bench-out

# Ledger smoke: the benchmark driver's own one-flow form of
# `go run ./benchmark`, at full scale, one second per workload (≈ 1 min).
# benchmark/smoke_test.go runs tinyScale, where the seed-1 pins of
# benchmark/expected_seed1.json are never consulted, so this is the
# step that sees a moved answer or a full-scale crash before the
# pipeline does: every run must exit 0 and end in a result line
# carrying "correct":true. The names are BENCHMARK.json's workloads.
LEDGERWORKLOADS := tpch_suite weblog_grep serve_window heal_window ingest

ledgersmoke:
	mkdir -p bench-out/ledger
	for w in $(LEDGERWORKLOADS); do \
		out=bench-out/ledger/$$w.txt; \
		$(GO) run ./benchmark -workload $$w -seconds 1 -trace 0 -out bench-out/ledger > $$out \
			&& tail -n 1 $$out | grep -q '"correct":true' \
			|| { cat $$out; echo "ledgersmoke: $$w FAILED"; exit 1; }; \
		echo "ledgersmoke: $$w ok"; \
	done

# Trace smoke (DESIGN.md "Observability"): TPC-H Q6 end to end with
# tracing and gauge sampling on (-sample 100µs), rerun with the same
# seed and byte-compared — spans and counter tracks ride one
# deterministic pipeline, so any divergence is a determinism bug, not
# noise. tracestat then checks the export (tracestat.Parse's rules:
# named tracks, balanced async spans, well-formed monotonic counters),
# its header line must count at least one counter series, and -crit
# attributes the Biscuit query window's critical path. The first run
# prints -stats and -explain into the CI log.
TRACEQ6 := SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
	WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
	AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24

tracesmoke:
	mkdir -p trace-out
	$(GO) run ./cmd/sqlssd -sf 0.002 -seed 7 -q "$(TRACEQ6)" -sample 100 -trace trace-out/q6.json -stats -explain
	$(GO) run ./cmd/sqlssd -sf 0.002 -seed 7 -q "$(TRACEQ6)" -sample 100 -trace trace-out/q6.rerun.json > /dev/null
	cmp trace-out/q6.json trace-out/q6.rerun.json
	$(GO) run ./cmd/tracestat trace-out/q6.json > trace-out/q6.stat.txt
	grep -q ' [1-9][0-9]* counter series' trace-out/q6.stat.txt || { echo "tracesmoke: no counter series"; exit 1; }
	$(GO) run ./cmd/tracestat -crit -nth -1 trace-out/q6.json

# vet = stock go vet + the biscuitvet analyzer suite (arenaescape,
# detrand, eventpurity, fiberyield, healthstate, ndpframing,
# nogoroutine, portcheck, simtimemix, spanbalance, statnames,
# walltime — see DESIGN.md "Invariants").
# biscuitvet runs
# through the standard vettool protocol; waivers are either the legacy
# //biscuitvet:<name>-ok directive or //biscuitvet:ignore <name>: <reason>
# (a reasonless ignore is itself a finding, so `make vet` fails on it).
vet: $(VETTOOL)
	$(GO) vet ./...
	$(GO) vet -vettool=$(VETTOOL) ./...

# vet-fix applies each diagnostic's first suggested fix in place
# (arenaescape's Clone/append-copy rewrites), then reports whatever
# could not be fixed mechanically. The BISCUITVET_FIX toggle is folded
# into the tool's build ID, so fix runs never share go vet's result
# cache with plain vet runs.
vet-fix: $(VETTOOL)
	BISCUITVET_FIX=1 $(GO) vet -vettool=$(VETTOOL) ./...

# Rebuild only when the tool's sources change, so CI can cache the
# binary (keyed on the same file set) and skip the build entirely.
VETSRC := $(shell find cmd/biscuitvet internal/analysis -name '*.go' -not -path '*/testdata/*') go.mod

$(VETTOOL): $(VETSRC)
	$(GO) build -o $(VETTOOL) ./cmd/biscuitvet

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lines: non-test .go source lines per internal/* package and in total
# (the repo root, cmd/, examples/ and benchmark/ count toward the total;
# analyzer testdata fixtures do not) — the "Lines:" row of a CHANGES.md
# entry and the design-diet tracker.
SRCLINES = find $(1) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l

lines:
	@for d in internal/*/; do printf '%7d  %s\n' $$($(call SRCLINES,$$d)) $$d; done
	@printf '%7d  total\n' $$($(call SRCLINES,.))

check: build fmt vet test race

clean:
	rm -rf bin
