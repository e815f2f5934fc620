GO ?= go

.PHONY: all build test race vet lint bench bench-compare bench-smoke wapd serve fuzz-smoke chaos chaos-backend weapons-gate golden wapbench

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Build the scan-service binary.
wapd:
	$(GO) build -o bin/wapd ./cmd/wapd

# Run the scan service with development-friendly settings.
serve: wapd
	./bin/wapd -addr :8387 -workers 2 -queue-depth 16 -drain-timeout 30s

# Durability suite under the race detector: the fault-injection harness, the
# job journal, result-store self-healing, and the crash-resume determinism
# tests (kill at every journal record boundary, corrupt every record kind),
# and the warm-equals-cold report pins. Mirrors the CI chaos job.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/... ./internal/journal/... ./internal/resultstore/...
	$(GO) test -race -count=1 ./internal/core/ -run 'TestCheckpoint|TestIncremental'
	$(GO) test -race -count=1 ./internal/report/ -run 'TestIncrementalByteIdentical|TestWeaponSwapIncrementalByteIdentical'
	$(GO) test -race -count=1 ./internal/server/ -run 'TestCrashResume|TestCorruptRecord|TestCleanDrain|TestForcedDrain|TestAsync'

# Backend fault suite under the race detector: the network chaos seam, the
# shared circuit breaker and retry backoff, the result-store fault envelope
# (retries, budget, breaker), write-behind shedding, the HTTP blob
# protocol, and the degrade-to-cacheless determinism bar (scans over a
# down/flaky/lying tier must produce byte-identical findings at sequential
# and parallel schedules). The closing one-iteration
# bench confirms the local-disk store path still runs — measure real cost
# with `bash cmd/wapbench/run.sh` and compare runs with its `-compare`.
# Mirrors the CI chaos job's backend steps.
chaos-backend:
	$(GO) test -race -count=1 ./internal/chaos/ -run 'TestRoundTripper'
	$(GO) test -race -count=1 ./internal/breaker/
	$(GO) test -race -count=1 ./internal/resultstore/...
	$(GO) test -race -count=1 ./internal/core/ -run 'TestScanOver|TestBackendBreaker|TestScanStatsBackend'
	$(GO) test -race -count=1 ./internal/server/ -run 'TestCacheServe|TestHealthz|TestListener'
	$(GO) test -run '^$$' -bench 'BenchmarkAnalyzeAppIncremental' -benchtime=1x .

# Validation-ladder gate over the builtin weapon specs and every spec file
# in weapons/: parse, collision check, and a dry-run scan of each weapon's
# generated proof app — the same ladder wapd applies to a hot POST /weapons
# upload. Mirrors the CI weapons-gate job.
weapons-gate:
	$(GO) run ./cmd/weaponsmith -gate weapons/*.weapon

# Mirror of the CI fuzz smoke: 30s over each parser fuzz target, over the
# line table's position resolution (matches a byte walk for every token),
# over the AST-to-IR lowering (never panics, deterministic, accounts for
# every node), over the result-store snapshot decoder (never panics,
# round-trips through the store's encoder) and over the job journal's replay
# (keeps a prefix that re-encodes byte for byte, truncates the rest).
fuzz-smoke:
	$(GO) test ./internal/php/lexer -run '^$$' -fuzz=FuzzPositions -fuzztime=30s
	$(GO) test ./internal/php/parser -run '^$$' -fuzz=FuzzParse -fuzztime=30s
	$(GO) test ./internal/php/parser -run '^$$' -fuzz=FuzzPrintRoundtrip -fuzztime=30s
	$(GO) test ./internal/ir -run '^$$' -fuzz=FuzzLower -fuzztime=30s
	$(GO) test ./internal/resultstore -run '^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=30s
	$(GO) test ./internal/journal -run '^$$' -fuzz=FuzzJournalReplay -fuzztime=30s

# gofmt (fails listing any unformatted file) + go vet. CI additionally runs
# staticcheck; run it here too if it is on PATH.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipped (CI runs it)"; fi

# Run the analysis + front-end benchmarks and append one entry to the bench
# trajectory (BENCH_analyze.json, JSON lines — appended, never overwritten).
# -benchmem makes benchtrend record B/op and allocs/op alongside ns/op;
# -count=3 runs each benchmark three times and benchtrend keeps the minimum,
# so the trajectory gates on signal instead of scheduler jitter.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkAnalyzeApp|BenchmarkLoadDir|BenchmarkLexFile|BenchmarkParseFile|BenchmarkLowerFile' -benchmem -count=3 . | $(GO) run ./cmd/benchtrend -file BENCH_analyze.json

# Diff the last two trajectory entries; fails on a >10% regression of any
# benchmark in any recorded dimension (ns/op, B/op, allocs/op) and prints the
# incremental cold/warm speedup ratio.
bench-compare:
	$(GO) run ./cmd/benchtrend -compare -file BENCH_analyze.json

# One-iteration smoke over every benchmark: catches benchmark code rot
# without holding the pipeline (mirrored in CI).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# The engine's output contract under the race detector: every corpus app's
# report must match its golden file in internal/core/testdata/golden byte for
# byte at parallelism 1 and 3 (TestGoldenReports), plus the taint-level
# golden listings, the budget-degrade oracle and the lane-independence
# sweep, and the report layer's contract: text and HTML print the same scan
# account, and warm rescans render byte-identical reports. Regenerate after
# an intentional change with GOLDEN_UPDATE=1 go test ./internal/core
# ./internal/taint and review the diff. Mirrors the CI golden job.
golden:
	$(GO) test -race -count=1 ./internal/core/ -run 'TestGolden|TestFinishedScan'
	$(GO) test -race -count=1 ./internal/taint/ -run 'TestIR|TestBudgetOracle|TestFused'
	$(GO) test -race -count=1 ./internal/report/ -run 'TestStatsRenderersAgree|TestStatsInRenderers|TestIncrementalByteIdentical'

# The benchmark's own module: vet and test cmd/wapbench, which guards the
# engine API it calls. Mirrors the CI wapbench job.
wapbench:
	cd cmd/wapbench && $(GO) vet ./... && $(GO) test ./...
