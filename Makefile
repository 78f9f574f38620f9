GO ?= go

.PHONY: all build test tier1 vet race bench perf perfbench sweep cover lines lint check smoke fuzz stress clean

all: tier1

build:
	$(GO) build ./...

# -shuffle=on randomizes test and subtest execution order so hidden
# inter-test state dependencies fail loudly instead of lurking.
test:
	$(GO) test -shuffle=on ./...

# tier1 is the gate every PR must keep green.
tier1: build test

vet:
	$(GO) vet ./...

# lint runs go vet, a gofmt gate (fails if any tracked Go file is not
# gofmt-clean, and names the files), and the repo's own analyzer suite
# (cmd/dirccvet: simdet, maprange, probeguard, laneguard, msgown, plus
# the allocguard escape gate over //dirccvet:hotpath functions).
# staticcheck and govulncheck also run when installed — CI installs
# them; offline dev boxes may not have them, so their absence is not an
# error here.
lint: vet
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))" || exit 1; \
	if [ -n "$$unformatted" ]; then echo "lint: not gofmt-clean (run gofmt -w):"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/dirccvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "lint: govulncheck not installed, skipping"; fi

# check runs the exhaustive model checker over every protocol engine
# (internal/check: all interleavings of the tiny-config grid, the
# random walks that pin the canonical state text and compare a reset
# machine against a fresh one, plus the mutation self-tests that prove
# the checker catches a seeded protocol bug and the lane-partition
# audit catches a wrong-lane mutation), the time-boxed differential
# fuzz smoke tier, TestShardedLargeP (P=256 on a machine built with 8
# shards of the parallel kernel, byte-identical to sequential), and the
# paper's 108-experiment grid (4 apps x 9 schemes x P = 8, 16, 32) at
# paper scale on checked machines, each of which ends by asserting the
# machine's quiescence contract (directory coverage, tree shape, SWMR,
# staleness) over every allocated block: about 42 s of wall time and
# 80 s of CPU on a 2-vCPU box.
check: smoke
	$(GO) test ./internal/check -v -run 'TestExhaustive|TestCanonWalks|TestMutationCaught|TestLaneMutantCaught'
	$(GO) test . -v -run 'TestShardedLargeP'
	$(GO) run ./cmd/sweep -full -check > /dev/null

# smoke is the differential fuzzer's CI tier: 200 seed-derived
# workloads through the six differential schemes (full-map oracle,
# Dir2B, LimitLESS4, SCI, STP, Dir4Tree2; five engines, Dir2B and
# LimitLESS4 sharing the limited engine, STP and Dir4Tree2 sharing
# internal/core's wave and teardown), the mutant sensitivity test
# proving the harness catches a seeded replacement bug, the
# parallel kernel's determinism oracle (fuzz.RunWorkloadSharded: the
# same 200 seeds, all eight scheme families sequential vs 4 shards,
# bit-exact cycles/memory/read digests), and the chain-surgery
# adversarial sweep (200 seeds of concurrent mid-chain
# eviction/re-attach/invalidation races over the list and tree
# schemes). Budgeted at under a minute.
smoke:
	$(GO) test ./internal/fuzz -run 'TestSmokeDifferential|TestRegressionSeeds|TestFuzzCatchesMutant|TestShardedFuzzSmoke|TestChainSurgerySmoke'

# fuzz explores fresh seeds with the native fuzzing engine. Override
# FUZZTIME for longer hunts; crashers land in testdata/fuzz/ as new
# corpus entries.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/fuzz -fuzz FuzzDifferential -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/fuzz -fuzz FuzzDirTree -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/fuzz -fuzz FuzzChainSurgery -fuzztime $(FUZZTIME) -run '^$$'

# stress soaks the differential harness from a wall-clock budget,
# minimizing and persisting witnesses for anything it finds.
stress:
	$(GO) run ./cmd/stress -duration 60s -minimize -witness-dir .

# race runs the whole suite — including the parallel-vs-sequential
# determinism regression TestRunExperimentsDeterministic — under the
# race detector. The root package alone takes about 20 minutes under
# -race on a 2-CPU box, past go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# bench runs the hot-path micro-benchmarks. Save the output before and
# after a change and compare with cmd/benchdiff (or benchstat).
BENCH_RE = EngineScheduleRun|EngineTinyDrain|NetworkSend|ShardedScheduleRun|CacheLookup|EnvRoundTrip|MissRoundTrip|CheckRun
BENCH_PKGS = sim network cache proc protocol check
bench:
	$(GO) test -bench '$(BENCH_RE)' -benchmem -run '^$$' $(addprefix ./internal/,$(BENCH_PKGS))

# perf gates the micro-benchmarks at a 25% ns/op regression against
# BASE=<rev> (CI passes the PR's base commit, or the push's previous
# head). It builds <rev> in a temporary git worktree, compiles each
# benchmark package once per side, and runs base and head alternately
# on this host, five times each, so both sides see the same machine;
# benchdiff compares the medians (base.out, head.out). A benchmark
# present on one side only is reported, not gated.
perf:
ifndef BASE
	$(error make perf needs BASE=<rev>, the commit to gate against: make perf BASE=main)
endif
	@set -e; tmp=$$(mktemp -d); wt=$$tmp/base; \
	trap 'git worktree remove --force "$$wt" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach --quiet "$$wt" "$(BASE)"; \
	for p in $(BENCH_PKGS); do \
		(cd "$$wt" && $(GO) test -c -o "$$tmp/base-$$p.test" ./internal/$$p); \
		$(GO) test -c -o "$$tmp/head-$$p.test" ./internal/$$p; \
	done; \
	: > base.out; : > head.out; \
	run() { [ -x "$$tmp/$$1-$$2.test" ] || return 0; \
		(cd "$$3/internal/$$2" && "$$tmp/$$1-$$2.test" -test.run '^$$' -test.bench '$(BENCH_RE)' -test.benchmem -test.timeout 10m) >> $$1.out; }; \
	for i in 1 2 3 4 5; do \
		for p in $(BENCH_PKGS); do \
			if [ $$((i % 2)) -eq 1 ]; then run base $$p "$$wt"; run head $$p "$(CURDIR)"; \
			else run head $$p "$(CURDIR)"; run base $$p "$$wt"; fi; \
		done; \
	done
	$(GO) run ./cmd/benchdiff -gate -threshold 0.25 base.out head.out

# perfbench runs the self-tests of the benchmark in perfbench/, a
# separate module that `go test ./...` at the root never reaches: the
# engine decorator must be transparent on all eight families, and
# mp3d-s2's runs on the parallel kernel must match the sequential
# digests.
perfbench:
	cd perfbench && $(GO) test ./...

# sweep times the default experiment grid end to end.
sweep:
	$(GO) run ./cmd/sweep > /dev/null

# cover writes a merged coverage profile and prints the per-function
# summary followed by the total.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 25
	@echo "full per-function report: go tool cover -func=coverage.out"
	@echo "HTML report:              go tool cover -html=coverage.out"

# lines prints the size a simplicity change reports: tracked non-test Go
# lines outside testdata/ and perfbench/, then the same lines without
# blank and comment-only ones. Stage new files first (git ls-files).
GOSRC = git ls-files '*.go' | grep -v '_test\.go$$' | grep -v /testdata/ | grep -v '^perfbench/' | xargs cat
lines:
	@printf 'non-test Go lines: %s\n' "$$($(GOSRC) | wc -l)"
	@printf 'without blank and comment-only lines: %s\n' "$$($(GOSRC) | grep -cvE '^[[:space:]]*(//.*)?$$')"

# clean removes generated artifacts.
clean:
	rm -f coverage.out base.out head.out dirccvet.sarif
