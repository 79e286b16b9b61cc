# offchip build helpers. `make check` is the gate CI runs; keep it green.

GO ?= go

.PHONY: check vet fmt build test test-race determinism validate bench-smoke profile-smoke service-smoke fuzz-smoke bench clean

## check: everything CI enforces — vet (the root module and the separate
## bench/ module, which `./...` does not reach), formatting, build, tests under -race,
## the sequential-vs-parallel determinism gate, the invariant/metamorphic
## validation battery, the hot-path allocation gates, the profiler
## conservation gate, and the sweep-service smoke.
check: vet fmt build test-race determinism validate bench-smoke profile-smoke service-smoke

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

test-race:
	$(GO) test -race ./...

## determinism: differential gate — every parallel run must be bit-identical
## to sequential. -count=2 defeats test caching so both runs actually execute.
## The second line stresses the state core's goroutines share (a compare
## job's three concurrent runs and two concurrent trace generations, and the
## fork-join helper's panic hand-off) ten times over under the race detector.
determinism:
	$(GO) test -run Determinism -race -count=2 ./...
	$(GO) test -run 'ConcurrentCompare|ComparePanic|ForkJoin' -race -count=10 ./internal/core

## validate: the simulator-wide validation battery — every runtime invariant
## probe (causality, conservation, XY routing, zero-load oracles, the
## FR-FCFS starvation bound, address-map bijection) over every bundled
## workload, both L2 organizations, and the optimal scheme, plus the
## metamorphic relations (faster DRAM / ideal NoC / optimal scheme never
## slower; seeds never change totals).
validate:
	$(GO) test -race ./internal/check
	$(GO) test -run Conservation -race -count=2 ./internal/sim

## bench-smoke: the allocation-regression gates on the hot paths, each
## pinned at 0 allocs/op: the engine's steady-state dispatch path; the
## trace-cache hit path (decoding a memoized workload from its delta-encoded
## blob), so cache hits stay allocation-free no matter how the encoding
## evolves; a NoC transit, which walks its XY route in place; one
## reference of trace generation (compiled subscripts, then the layout's
## Offset and DesiredMC over apsi's optimized layouts); the per-access
## tables: a cache Access, a directory Owner+Add+Remove, a page-interleaved
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
		| $(GO) run ./cmd/benchgate -bench 'SteadyStateDispatchTyped$$|ScheduleOnly$$' -max-allocs 0
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
	$(GO) test -run='^$$' -bench='^Benchmark(Access|Directory)$$' -benchtime=10000x -benchmem ./internal/cache \
		| $(GO) run ./cmd/benchgate -bench 'Access$$|Directory$$' -max-allocs 0
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
	$(GO) test -run TestProfileSmoke -count=1 ./internal/prof

## service-smoke: boot the sweep service with a real worker-process fleet,
## submit a sweep over HTTP, and check the results against the golden
## snapshot. -count=1 defeats caching so the fleet actually spawns.
service-smoke:
	$(GO) test -run TestServiceSmoke -count=1 ./cmd/sweepd

## fuzz-smoke: a short fuzz of every Fuzz target (also run nightly in CI).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseProgram -fuzztime=$(FUZZTIME) ./internal/ir
	$(GO) test -run=^$$ -fuzz=FuzzParseJobID -fuzztime=$(FUZZTIME) ./internal/runner
	$(GO) test -run=^$$ -fuzz=FuzzDecodeOTC1 -fuzztime=$(FUZZTIME) ./internal/tracecache
	$(GO) test -run=^$$ -fuzz=FuzzParseMigrationSpec -fuzztime=$(FUZZTIME) ./internal/mem
	$(GO) test -run=^$$ -fuzz=FuzzParseMixSpec -fuzztime=$(FUZZTIME) ./internal/workloads

## bench: the Go benchmarks of every package (per-figure benches, engine
## and obs registry micro-benchmarks). The repo's end-to-end benchmark is
## `bash bench/run.sh`, declared in BENCHMARK.json (see bench/README.md).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
