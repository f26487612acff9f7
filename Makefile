GO ?= go

.PHONY: all build vet test race check lint lint-vet bench bench-json $(BENCH_JSON) chaos

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: the eight custom cloudfoglint analyzers (DESIGN.md
# §11 and §16) over the whole module with module-wide facts, checked
# against the committed shrink-only baseline and emitting lint.sarif for
# code-scanning UIs; plus gofmt. govulncheck runs when installed and is
# skipped otherwise (the container has no network to fetch it).
lint:
	$(GO) run ./cmd/cloudfoglint -sarif lint.sarif -baseline lint-baseline.json ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi

# Same analyzers driven through the go command's vet-tool protocol, which
# caches per-package results in the build cache. The binary in bin/ is
# itself cached: it rebuilds only when the linter's sources change.
LINT_SRC := $(wildcard cmd/cloudfoglint/*.go internal/analysis/*.go internal/analysis/*/*.go) go.mod

bin/cloudfoglint: $(LINT_SRC)
	$(GO) build -o $@ ./cmd/cloudfoglint

lint-vet: bin/cloudfoglint
	$(GO) vet -vettool=$(CURDIR)/bin/cloudfoglint ./...

test:
	$(GO) test ./...

# The fognet chaos tests exercise heartbeats, eviction, reconnects, and
# player migration under injected faults; they must stay race-clean. The
# timeout is raised above go test's 10m default because the (singly-
# threaded) experiments figure suite runs several times slower under the
# race detector.
race:
	$(GO) test -race -timeout 60m ./...

check: build vet lint test race

# Micro-benchmarks for the shared §3.2 selection engine and its consumers
# (one iteration each: a smoke check, not a measurement run). The root
# package is excluded — its benchmarks are the figure-generation harness.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/...

# Benchmark regression files, one table row per committed
# BENCH_<name>.json: the -bench filter, the -benchtime and the packages.
# One rule runs a row's benchmarks with -benchmem and converts the output
# with cmd/benchjson. The files are committed so reviewers can diff
# allocs/op across PRs, and CI regenerates and uploads them as artifacts.
# Absolute ns/op varies by machine; allocs/op, B/op and the custom metrics
# are the stable regression signal. `make bench-<name>-json` regenerates
# one file, `make bench-json` all four (the sim row includes the
# 1M-player deployment). A filter can be narrowed on the command line,
# e.g. CI's 10k/100k-only simulator run:
#   make bench-sim-json BENCH_SIM='BenchmarkSimPlayers10k|BenchmarkSimPlayers100k'
#
# wirepath: the zero-allocation encoders and readers, the tick fan-out
#   and frame-stream loops, and the §3.2 selection paths they feed.
# transport: the UDP video hot paths (header append/parse, tracker
#   classification, per-frame datagram send and receive); the bar is
#   0 allocs/op in steady state.
# tick: the cloud's tick. The Step rows are the authoritative world step
#   (200 moving avatars; 20k NPCs with two moving avatars, which should
#   cost what the two changes cost) and WorldSnapshot the 20k-entity
#   welcome snapshot. The AoITickFanout rows are the one tick fan-out
#   (per-cell batches) to AoI subscribers and, in the visible=all rows,
#   to subscribe-all ones (no interest set). Each fan-out row carries a
#   custom fanoutB/tick metric, the tick's wire egress: for AoI
#   subscribers flat in world size and linear in visible entities, for
#   subscribe-all ones linear in world size (DESIGN.md §14).
# sim: full seeded deployments at 10k (the paper's PeerSim profile),
#   100k and 1M players, one worker (Seq) vs GOMAXPROCS (Par). Each row reports
#   playerticks/s and heapMB/run; the Par/Seq ratio at one scale is the
#   worker-pool speedup (on one core it measures phasing overhead).
BENCH_FILES = wirepath transport tick sim

BENCH_WIREPATH = BenchmarkUpdateBatch|BenchmarkAppendFrame|BenchmarkFrameReader|BenchmarkTickFanout|BenchmarkFrameStream|BenchmarkEncode|BenchmarkDecode|BenchmarkRender|BenchmarkSelectorSelect|BenchmarkCandidateLadder|BenchmarkRank|BenchmarkCheckpoint
wirepath_time = 2000x
wirepath_pkgs = ./internal/protocol ./internal/fognet ./internal/videocodec \
	./internal/render ./internal/fog ./internal/selection ./internal/checkpoint

BENCH_TRANSPORT = BenchmarkDatagramHeader|BenchmarkTrackerTrack|BenchmarkDatagramSendFrame|BenchmarkDatagramRecvFrame
transport_time = 2000x
transport_pkgs = ./internal/transport ./internal/fognet

BENCH_TICK = BenchmarkAoITickFanout|BenchmarkStep|BenchmarkWorldSnapshot
tick_time = 2000x
tick_pkgs = ./internal/fognet ./internal/virtualworld

BENCH_SIM = BenchmarkSimPlayers
sim_time = 1x
sim_pkgs = ./internal/core

wirepath_filter = $(BENCH_WIREPATH)
transport_filter = $(BENCH_TRANSPORT)
tick_filter = $(BENCH_TICK)
sim_filter = $(BENCH_SIM)

BENCH_JSON = $(BENCH_FILES:%=bench-%-json)

bench-json: $(BENCH_JSON)

$(BENCH_JSON): bench-%-json:
	$(GO) test -bench='$($*_filter)' -benchmem -benchtime=$($*_time) -timeout 60m -run='^$$' \
		$($*_pkgs) | $(GO) run ./cmd/benchjson -o BENCH_$*.json

chaos:
	$(GO) run ./examples/chaos
