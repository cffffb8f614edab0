# Developer entry points. `make ci` is the full gate: formatting, vet,
# build, the test suite under the race detector, the golden-output check
# of the experiments' printed results, the benchmark module's own tests,
# the end-to-end smoke run of the CLI tools, and a zero-tolerance drift
# check of two experiments' benchmark snapshots against committed
# baselines.
# `make bench` regenerates the local snapshot at full scale.

GO ?= go

.PHONY: ci fmt vet build test race golden perfbench-test smoke racesmoke bench benchcheck

ci: fmt vet build race golden perfbench-test smoke racesmoke benchcheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# golden compares the printed output of the quarter-scale experiments with
# cmd/mifbench/testdata byte for byte. The race leg skips this test (it is
# slow under -race), so it runs here on a normal build.
golden:
	$(GO) test -count=1 -run TestGoldenOutput ./cmd/mifbench

# perfbench-test runs the benchmark module's tests. perfbench/ is its own
# Go module, so `go test ./...` at the root skips it; this leg catches an
# API change that breaks the benchmark build.
perfbench-test:
	cd perfbench && $(GO) test ./...

# smoke exercises the built binaries end to end on a small deterministic
# config: the defrag recovery benchmark, the client-cache benchmark (cache
# off vs on over the same request sequence), an offline check of a
# crash-consistent metadata image saved after a defrag-style rewrite
# (exit 2: journal replay repaired it), an offline check of an image
# populated through a client-cached mount (the flush barriers wrote all
# of its metadata; exit 0: clean), an fsck determinism pair on a
# defrag-aged image (serial vs -fsck-workers 8 reports cmp'd
# byte-identical), a small crash-point sweep run twice to
# guard report determinism, a trace replay under injected message loss
# proving every op completes through the rpc retry path, and the failover
# benchmark (an OST blackholed mid-write under 3-way replication: zero
# client errors, redundancy re-replicated onto the survivors). The
# duplicated mifbench telemetry runs guard determinism: two identical
# cache-off invocations must produce byte-identical snapshots.
smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir" ./cmd/mifbench ./cmd/miffsck ./cmd/miftrace && \
	"$$dir/mifbench" -scale 0.25 defrag && \
	"$$dir/mifbench" -scale 0.25 cache && \
	"$$dir/mifbench" -scale 0.25 failover && \
	"$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t1.json" fig6a > /dev/null && \
	"$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t2.json" fig6a > /dev/null && \
	cmp "$$dir/t1.json" "$$dir/t2.json" && \
	"$$dir/miffsck" gen -defrag -journal-only "$$dir/fs.img" && \
	{ "$$dir/miffsck" check "$$dir/fs.img"; test $$? -eq 2; } && \
	"$$dir/miffsck" gen -cache -dirs 2 -files 48 "$$dir/cfs.img" && \
	"$$dir/miffsck" check "$$dir/cfs.img" && \
	"$$dir/miffsck" gen -defrag "$$dir/aged.img" && \
	"$$dir/miffsck" check -fsck-workers 1 "$$dir/aged.img" > "$$dir/fsck1.txt" && \
	"$$dir/miffsck" check -fsck-workers 8 "$$dir/aged.img" > "$$dir/fsck8.txt" && \
	cmp "$$dir/fsck1.txt" "$$dir/fsck8.txt" && \
	"$$dir/miffsck" sweep -points journal.append.commit,mdfs.checkpoint.home,ost.flush.media,ost.migrate.free,repair.copy.media,cache.sync.flush > "$$dir/sw1.txt" && \
	"$$dir/miffsck" sweep -points journal.append.commit,mdfs.checkpoint.home,ost.flush.media,ost.migrate.free,repair.copy.media,cache.sync.flush > "$$dir/sw2.txt" && \
	cmp "$$dir/sw1.txt" "$$dir/sw2.txt" && \
	"$$dir/miftrace" gen -streams 4 -region 128 > "$$dir/t.trace" && \
	"$$dir/miftrace" replay -drop-rate 0.05 "$$dir/t.trace" && \
	"$$dir/mifbench" -scale 0.25 -spans "$$dir/s.json" fig6a > /dev/null && \
	"$$dir/miftrace" critpath "$$dir/s.json"

# racesmoke reruns the determinism-sensitive smoke legs on race-built
# binaries with GORACE=halt_on_error=1: the telemetry-identity pair (two
# identical runs must produce byte-identical snapshots), the full
# crash-point sweep (every registered point crashed, recovered — journal
# replay, remount, scrub, repair drain — and verified, with the recovery
# path under the race detector), the parallel fsck walker on a
# defrag-aged image (8 scan goroutines under the race detector), and a
# critical-path walk over a span log. A data race aborts the run instead
# of scrolling past.
racesmoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -race -o "$$dir" ./cmd/mifbench ./cmd/miftrace ./cmd/miffsck && \
	GORACE=halt_on_error=1 "$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t1.json" fig6a > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t2.json" fig6a > /dev/null && \
	cmp "$$dir/t1.json" "$$dir/t2.json" && \
	GORACE=halt_on_error=1 "$$dir/miffsck" sweep > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/miffsck" gen -defrag "$$dir/aged.img" > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/miffsck" check -fsck-workers 8 "$$dir/aged.img" > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/mifbench" -scale 0.25 -spans "$$dir/s.json" fig6a > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/miftrace" critpath "$$dir/s.json" > /dev/null && \
	echo "racesmoke: ok"

# bench regenerates the full-scale performance snapshot as BENCH_pr8.json,
# the committed record of the zero-alloc work. Run it on a quiet machine
# (simulated metrics are deterministic; only wall_ns varies run to run).
bench:
	$(GO) run ./cmd/mifbench -bench-json BENCH_pr8.json all

# benchcheck replays the fig6a and failover experiments at quarter scale
# and compares each benchmark snapshot with its committed baseline in
# cmd/mifbench/testdata at zero tolerance. The simulator is deterministic,
# so every simulated metric (counters, percentiles, curves, events) must
# match exactly; only wall-clock time is reported, never gated. A change
# that moves a simulated result on purpose regenerates the baseline with
#   go run ./cmd/mifbench -scale 0.25 -bench-json cmd/mifbench/testdata/<exp>.bench.json <exp>
benchcheck:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir" ./cmd/mifbench && \
	for exp in fig6a failover; do \
		"$$dir/mifbench" -scale 0.25 -bench-json "$$dir/$$exp.json" $$exp > /dev/null && \
		"$$dir/mifbench" compare -tolerance 0 cmd/mifbench/testdata/$$exp.bench.json "$$dir/$$exp.json" || exit 1; \
	done
