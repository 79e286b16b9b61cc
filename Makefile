# offchip build helpers. `make check` is the gate CI runs; keep it green.

GO ?= go

.PHONY: check vet fmt build test test-race stress determinism validate bench-smoke profile-smoke fuzz-smoke bench clean

## check: everything CI enforces — vet (the root module and the separate
## bench/ module, which `./...` does not reach), formatting, build, every
## test once under -race (which includes the sequential-vs-parallel
## determinism gate, the invariant/metamorphic validation battery and the
## profiler conservation gate), the concurrency stress, and the hot-path
## allocation gates.
check: vet fmt build test-race stress bench-smoke

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

## fmt: fails if any file needs gofmt; prints the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## test-race: every test once under the race detector. -count=1 defeats
## test caching, so the gate always runs the tests.
test-race:
	$(GO) test -race -count=1 ./...

## stress: the state core's goroutines share (a compare job's three
## concurrent runs and two concurrent trace generations, and the fork-join
## helper's panic hand-off), ten times over under the race detector.
stress:
	$(GO) test -run 'ConcurrentCompare|ComparePanic|ForkJoin' -race -count=10 ./internal/core

## determinism: differential gate — every parallel run must be bit-identical
## to sequential. -count=2 defeats test caching so both runs actually execute.
## test-race runs these tests once; this target repeats them on their own.
determinism:
	$(GO) test -run Determinism -race -count=2 ./...

## validate: the simulator-wide validation battery — every runtime invariant
## probe (causality, conservation, XY routing, zero-load oracles, the
## FR-FCFS starvation bound, address-map bijection) over every bundled
## workload, both L2 organizations, and the optimal scheme, plus the
## metamorphic relations (faster DRAM / ideal NoC / optimal scheme never
## slower; seeds never change totals). test-race runs it too; this target
## runs it alone.
validate:
	$(GO) test -race ./internal/check
	$(GO) test -run Conservation -race -count=2 ./internal/sim

## bench-smoke: the allocation-regression gates on the hot paths, each
## pinned at 0 allocs/op: the engine's steady-state dispatch of events that
## embed their own queue node (the simulator's path), of plain Handlers
## through the engine's Event pool, and the pool's enqueue alone; the
## on-disk trace cache's decoder (a reused Decoder over one delta-encoded
## blob), so a disk hit stays allocation-free however the encoding evolves
## (an in-process hit shares the generated workload and decodes nothing);
## a NoC transit, which walks its XY route in place; one
## reference of trace generation (compiled subscripts, then the layout's
## Offset and DesiredMC over apsi's optimized layouts); the per-access
## tables: a cache Access (an L2-shaped random string and an L1-shaped
## strided one), a directory Owner+Add+Remove, a page-interleaved
## Translate, and a migration-engine Touch; and a DRAM controller's SubmitTo
## plus completions, whose per-bank FR-FCFS queues reuse their capacity.
## Whole-trace generation of apsi and of fma3d (boot nests and indexed
## gathers) is pinned near its measured allocs/op instead, which is what
## its returned streams and per-nest plans take: scratch that grows per
## run or per thread would push it over. Each GC cycle during the run adds
## about four runtime allocations (with the collector off the counts are
## 557 and 602, and runs read 559-562 and 606-610), so the ceilings leave
## room for two or three cycles per op.
bench-smoke:
	$(GO) test -run='^$$' -bench='SteadyStateDispatch|ScheduleOnly' -benchtime=100x -benchmem ./internal/engine \
		| $(GO) run ./cmd/benchgate -bench 'SteadyStateDispatch(Embedded|Typed)$$|ScheduleOnly$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='DecodeCacheHit' -benchtime=1000x -benchmem ./internal/tracecache \
		| $(GO) run ./cmd/benchgate -bench 'DecodeCacheHit$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='Transit' -benchtime=10000x -benchmem ./internal/noc \
		| $(GO) run ./cmd/benchgate -bench 'Transit$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='RefEval' -benchtime=10000x -benchmem ./internal/trace \
		| $(GO) run ./cmd/benchgate -bench 'RefEval$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='^BenchmarkGenerate$$/^apsi$$' -benchtime=3x -benchmem ./internal/trace \
		| $(GO) run ./cmd/benchgate -bench 'Generate/apsi$$' -max-allocs 565
	$(GO) test -run='^$$' -bench='^BenchmarkGenerate$$/^fma3d$$' -benchtime=3x -benchmem ./internal/trace \
		| $(GO) run ./cmd/benchgate -bench 'Generate/fma3d$$' -max-allocs 614
	$(GO) test -run='^$$' -bench='^Benchmark(Access|AccessL1|Directory)$$' -benchtime=10000x -benchmem ./internal/cache \
		| $(GO) run ./cmd/benchgate -bench 'Access$$|AccessL1$$|Directory$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='^Benchmark(Translate|MigratorTouch)$$' -benchtime=10000x -benchmem ./internal/mem \
		| $(GO) run ./cmd/benchgate -bench 'Translate$$|MigratorTouch$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='^BenchmarkSubmit$$' -benchtime=10000x -benchmem ./internal/dram \
		| $(GO) run ./cmd/benchgate -bench 'Submit$$' -max-allocs 0

## profile-smoke: the latency-attribution conservation gate — a small
## three-way comparison with the profiler attached must attribute every
## access's latency exactly (components sum to the probe-observed end-to-end
## latency, no violations) and the live plane's Prometheus exposition must
## re-parse. -count=1 defeats caching so the simulation actually runs.
profile-smoke:
	$(GO) test -run TestProfileSmoke -count=1 ./internal/plane

## fuzz-smoke: a short fuzz of every Fuzz target (also run nightly in CI).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseProgram -fuzztime=$(FUZZTIME) ./internal/ir
	$(GO) test -run=^$$ -fuzz=FuzzParseJobID -fuzztime=$(FUZZTIME) ./internal/runner
	$(GO) test -run=^$$ -fuzz=FuzzDecodeOTC1 -fuzztime=$(FUZZTIME) ./internal/tracecache
	$(GO) test -run=^$$ -fuzz=FuzzParseMigrationSpec -fuzztime=$(FUZZTIME) ./internal/mem
	$(GO) test -run=^$$ -fuzz=FuzzParseMixSpec -fuzztime=$(FUZZTIME) ./internal/workloads

## bench: the Go benchmarks of every package (one sub-benchmark per
## experiment, engine and obs registry micro-benchmarks). The repo's end-to-end benchmark is
## `bash bench/run.sh`, declared in BENCHMARK.json (see bench/README.md).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
