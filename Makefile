# Biscuit repo entry points. `make check` is what CI runs.

GO ?= go
VETTOOL := bin/biscuitvet

.PHONY: all build test race vet fmt check faulttest fuzzsmoke faultbench healtest benchsmoke benchgate bless-bench ledgersmoke tracesmoke lines clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over every package: the sim kernel's cooperative
# scheduler makes a race anywhere in the stack a silent determinism
# bug, and the fault, serving and trace-determinism tests are where the
# retry/reconstruction/migration schedules run.
race:
	$(GO) test -race ./...

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
# oracles, the page decoder under a column mask, the date cell parse
# against its digit-loop oracle, the device scan's row filter, the row
# codec's round trip (the canonical encoding that lets the device ship
# stored rows verbatim), the SQL parser, the SQL decimal/date literal
# round trip, the device heap's lazy ≡ eager law (an arena grown on
# demand against one materialized at birth), the DES event queue's
# pop order against its container/heap reference, and the FTL's maps
# made on demand against maps made at birth (go test -fuzz takes one
# target and one package per run). The last three cap the time spent
# minimizing each input (new coverage or a crash) at 1 s: their inputs
# are costly to run, and the default 60 s budget had FuzzArenaOps and
# FuzzEventOrder minimize for most of their 10 s instead of fuzzing.
FUZZMIN := -fuzzminimizetime=1s

fuzzsmoke:
	$(GO) test -run '^$$' -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault
	$(GO) test -run '^$$' -fuzz=FuzzStreamEqualsWholeScan -fuzztime=10s ./internal/match
	$(GO) test -run '^$$' -fuzz=FuzzMultiKeyEqualsNaive -fuzztime=10s ./internal/match
	$(GO) test -run '^$$' -fuzz=FuzzDecodePage -fuzztime=10s ./internal/db
	$(GO) test -run '^$$' -fuzz=FuzzParseDate -fuzztime=10s ./internal/db
	$(GO) test -run '^$$' -fuzz=FuzzDeviceFilter -fuzztime=10s ./internal/db
	$(GO) test -run '^$$' -fuzz=FuzzRowCodecRoundTrip -fuzztime=10s ./internal/db
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/sql
	$(GO) test -run '^$$' -fuzz=FuzzLiteralRoundTrip -fuzztime=10s ./internal/sql
	$(GO) test -run '^$$' -fuzz=FuzzArenaOps -fuzztime=10s $(FUZZMIN) ./internal/mem
	$(GO) test -run '^$$' -fuzz=FuzzEventOrder -fuzztime=10s $(FUZZMIN) ./internal/sim
	$(GO) test -run '^$$' -fuzz=FuzzFTLMaps -fuzztime=10s $(FUZZMIN) ./internal/ftl

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

# Benchmark smoke: run the executor, repeated-query (a serving shard
# query on one Database, reusing its scratch), join-probe, Q7-shaped
# join-chain, warm TPC-H suite (its 22 queries on one Database),
# row-decode, device-filter, DES-core, proc-wake, fiber-switch,
# matcher-scan, weblog corpus-generator and device-heap benchmarks once
# (-benchtime=1x) so CI catches bit-rot in the benchmark harness
# without paying for a real measurement run.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkExecBatch|BenchmarkRepeatedQuery|BenchmarkBNLJoin|BenchmarkHashJoinChain|BenchmarkHashJoinBuild|BenchmarkSuiteWarm|BenchmarkDecodeRow|BenchmarkDeviceFilter|BenchmarkSimCore|BenchmarkProcWake|BenchmarkFiberSwitch|BenchmarkScan|BenchmarkGenerate|BenchmarkNewDeviceMemory' \
		-benchtime=1x ./internal/db ./internal/sim ./internal/fibers ./internal/match ./internal/weblog ./internal/mem

# Bench gate (DESIGN.md "The bench gate"): regenerate every experiment
# biscuitbench knows (-exp all: Tables II-V, Figs. 7-10, the fault,
# serving and self-healing curves and the eight ablations of DESIGN.md
# §5) in one run, and `cmp` each against its baseline committed under
# baselines/. `all` rather than a list, so a new experiment cannot be
# left ungated; the biscuitbench test requires a baseline per
# experiment. Every field is simulated-time deterministic and both
# files come from one writer (json.MarshalIndent of a typed struct), so
# the comparison is byte equality: a file that differs or is missing
# fails the gate, with its `diff -u` capped at 200 lines. Two traced
# serving windows ride along, each rerun with the same seed, compared
# byte-for-byte and checked by tracestat: the default wfq window, and
# an edf window under -heal with RAIN stripes of 3 data pages and a
# -fault campaign, so every sqlssd flag runs in a gated target. Wall
# clock is not gated here; that is `go run ./benchmark`.
SERVETRACE := -devices 2 -tenants 2 -sf 0.002 -rate 150 -window 200 -seed 7
HEALTRACE := $(SERVETRACE) -policy edf -heal -rainW 3 -fault "seed=7 correctable=0.01 timeout=0.001"

benchgate: benchsmoke
	mkdir -p bench-out
	$(GO) run ./cmd/biscuitbench -exp all -json bench-out
	$(GO) run ./cmd/sqlssd $(SERVETRACE) -trace bench-out/serve.trace.json > /dev/null
	$(GO) run ./cmd/sqlssd $(SERVETRACE) -trace bench-out/serve.rerun.trace.json > /dev/null
	cmp bench-out/serve.trace.json bench-out/serve.rerun.trace.json
	$(GO) run ./cmd/tracestat bench-out/serve.trace.json > /dev/null
	$(GO) run ./cmd/sqlssd $(HEALTRACE) -trace bench-out/serveheal.trace.json > /dev/null
	$(GO) run ./cmd/sqlssd $(HEALTRACE) -trace bench-out/serveheal.rerun.trace.json > /dev/null
	cmp bench-out/serveheal.trace.json bench-out/serveheal.rerun.trace.json
	$(GO) run ./cmd/tracestat bench-out/serveheal.trace.json > /dev/null
	@n=0; bad=0; \
	for base in baselines/BENCH_*.json; do \
		fresh=bench-out/$${base#baselines/}; n=$$((n+1)); \
		cmp $$base $$fresh && continue; \
		bad=$$((bad+1)); \
		[ -f $$fresh ] && diff -u $$base $$fresh | head -n 200; \
	done; \
	if [ $$bad -ne 0 ]; then echo "benchgate: $$bad of $$n baseline file(s) differ or are missing"; exit 1; fi; \
	echo "$$n baseline file(s) OK (exact)"

# bless-bench: accept the current bench-out results as the new
# committed baselines (after an intended model or schema change). Run
# `make benchgate` first so bench-out is fresh. EXPERIMENTS.md is the
# rendering of these baselines: after a bless, run
# `go test ./cmd/biscuitbench` and paste every block it names into
# EXPERIMENTS.md, then commit baselines/ and the doc together.
bless-bench:
	cp bench-out/BENCH_*.json baselines/

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

# vet = stock go vet + the biscuitvet analyzer suite (DESIGN.md
# "Invariants" lists it). biscuitvet runs through the standard vettool
# protocol; a waiver is //biscuitvet:ignore <name>: <reason> (a
# reasonless ignore is itself a finding, so `make vet` fails on it).
# The legacy //biscuitvet:<name>-ok form is still honoured for the two
# benchmark/ files that carry it.
vet: $(VETTOOL)
	$(GO) vet ./...
	$(GO) vet -vettool=$(VETTOOL) ./...

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
