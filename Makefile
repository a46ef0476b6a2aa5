# Build and verification targets. `make test` is the tier-1 gate;
# `make race` is the same suite under the race detector and should be run
# before merging anything that touches the TM stack.

GO ?= go
FUZZTIME ?= 10s
CHAOS_RUNS ?= 5
CHAOS_SEED ?= 1

.PHONY: all build test lint race race-tm fuzz-short chaos chaos-teeth bench serve-smoke serve-bench serve-ab crash-smoke crash-chaos repl-smoke repl-chaos clean

CRASH_SEED ?= 1

# The TM stack proper: the packages `make race-tm` sweeps before merging
# engine changes.
TM_PKGS = ./internal/stm/... ./internal/htm/... ./internal/epoch/... \
	./internal/tm/... ./internal/tle/... ./internal/condvar/...

# Perf trajectory settings: fixed so BENCH_<date>.json files are comparable
# across PRs and feedable to benchstat via the raw .txt artifacts.
BENCHTIME ?= 300ms
BENCHCOUNT ?= 3
BENCHDATE ?= $(shell date +%Y-%m-%d)
BENCHDIR ?= bench-out

all: build test

build:
	$(GO) build ./...

# Tier-1: the full unit/property suite.
test:
	$(GO) test ./...

# Static analysis: standard go vet plus the transaction-safety suite
# (cmd/tmvet; see DESIGN.md "Static analysis"). tmvet exits non-zero on
# any diagnostic not in the tmvet.base snapshot, so this target is a
# gate, not a report. The whole recipe also carries a wall-clock budget:
# the interprocedural passes (effect summaries + the four serving-path
# analyzers) must stay fast enough to run on every push, so the target
# fails if the full sweep exceeds LINT_BUDGET seconds.
LINT_BUDGET ?= 90

lint:
	@start=$$(date +%s); \
	$(GO) vet ./... || exit 1; \
	$(GO) run ./cmd/tmvet -baseline tmvet.base ./... || exit 1; \
	took=$$(( $$(date +%s) - start )); \
	echo "lint: clean in $${took}s (budget $(LINT_BUDGET)s)"; \
	if [ $$took -gt $(LINT_BUDGET) ]; then \
		echo "lint: exceeded the $(LINT_BUDGET)s wall-clock budget — profile the analyzers or raise LINT_BUDGET deliberately" >&2; \
		exit 1; \
	fi

# Tier-1 under the race detector.
race:
	$(GO) test -race ./...

# Race detector over just the TM engine packages: the fast sweep to run
# before merging anything that touches the TM stack.
race-tm:
	$(GO) test -race $(TM_PKGS)

# Short bursts of the native fuzz targets (long-form: go test -fuzz=X -fuzztime=10m).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzPackUnpack -fuzztime $(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/bzlike
	$(GO) test -run '^$$' -fuzz FuzzCompressRoundTrip -fuzztime $(FUZZTIME) ./internal/bzlike
	$(GO) test -run '^$$' -fuzz FuzzParseCommand -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzReplFrame -fuzztime $(FUZZTIME) ./internal/repl

# Chaos sweep: every policy x fault mix under seeded fault injection, with
# linearizability checking. A failure prints the seed to replay.
chaos:
	$(GO) test . -run TestChaos -v
	$(GO) run ./cmd/chaosbench -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)

# Paper-figure + commit-pipeline benchmarks with pinned -benchtime/-count,
# plus the simulated HTM's per-access cost (an uncontended read-modify-write
# and the read-line/LRU-bump shape of a kvstore get).
# Raw text goes to $(BENCHDIR)/current.txt (benchstat-compatible); the JSON
# summary lands in BENCH_$(BENCHDATE).json. To also fold in a pre-change
# capture, add baseline=<file> via BENCH_BASELINE, e.g.
#   make bench BENCH_BASELINE=/tmp/bench_baseline.txt
bench:
	mkdir -p $(BENCHDIR)
	$(GO) test -run '^$$' \
		-bench 'BenchmarkFig2Compress|BenchmarkFig2Decompress|BenchmarkFig3X265|BenchmarkFig5Sets|BenchmarkQuiescenceCost' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) . | tee $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSharedGrace' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/epoch | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkUncontendedRMW|BenchmarkGetShape' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/htm | tee -a $(BENCHDIR)/current.txt
	$(GO) run ./cmd/benchjson -out BENCH_$(BENCHDATE).json \
		$(if $(BENCH_BASELINE),baseline=$(BENCH_BASELINE)) current=$(BENCHDIR)/current.txt

# The network server's zero-to-OK gate: the allocation gate (the serving
# hot path must do exactly 0 allocs/op — see TestZeroAllocHotPath), then
# start tleserved (hybrid runtime + adaptive controller), run the
# loopback protocol self-test, exit — once WAL-off and once WAL-on, so
# "the binary actually serves, durably too" can never regress silently.
serve-smoke:
	$(GO) test -run TestZeroAllocHotPath -count 1 ./internal/server
	$(GO) run ./cmd/tleserved -smoke
	rm -rf $(BENCHDIR)/smoke-wal
	$(GO) run ./cmd/tleserved -smoke -wal $(BENCHDIR)/smoke-wal
	rm -rf $(BENCHDIR)/smoke-wal

# Closed-loop network benchmark: tleserved under a capacity-heavy pipelined
# mix (16 conns x depth 8, mixed 64/2048-byte values, -htm-write-lines 24
# = a 1.5 KiB write budget, so the 2 KiB sets overflow HTM capacity and
# drive the adaptive ladder off htm-cv), checked for per-key
# linearizability, folded into the same BENCH_$(BENCHDATE).json trajectory
# as `make bench`. A second pass reruns the identical mix with the redo
# WAL enabled (`serve-wal` label) so the JSON carries the durability tax:
# ops/sec and p99 WAL-on vs WAL-off, plus the group-commit fsyncs/sec.
SERVE_ADDR ?= 127.0.0.1:19333
SERVE_OPS ?= 100000
serve-bench:
	mkdir -p $(BENCHDIR)
	$(GO) build -o $(BENCHDIR)/tleserved ./cmd/tleserved
	$(GO) build -o $(BENCHDIR)/loadgen ./cmd/loadgen
	$(BENCHDIR)/tleserved -addr $(SERVE_ADDR) -htm-write-lines 24 \
		& echo $$! > $(BENCHDIR)/tleserved.pid; sleep 1; \
	$(BENCHDIR)/loadgen -addr $(SERVE_ADDR) -conns 16 -depth 8 -ops $(SERVE_OPS) \
		-set 30 -del 5 -valsize 64,2048 -check > $(BENCHDIR)/serve.txt 2>&1; \
	rc=$$?; cat $(BENCHDIR)/serve.txt; \
	kill `cat $(BENCHDIR)/tleserved.pid`; rm -f $(BENCHDIR)/tleserved.pid; \
	test $$rc -eq 0
	rm -rf $(BENCHDIR)/wal
	$(BENCHDIR)/tleserved -addr $(SERVE_ADDR) -htm-write-lines 24 \
		-wal $(BENCHDIR)/wal \
		& echo $$! > $(BENCHDIR)/tleserved.pid; sleep 1; \
	$(BENCHDIR)/loadgen -addr $(SERVE_ADDR) -conns 16 -depth 8 -ops $(SERVE_OPS) \
		-set 30 -del 5 -valsize 64,2048 -check -label ServeWAL \
		> $(BENCHDIR)/serve-wal.txt 2>&1; \
	rc=$$?; cat $(BENCHDIR)/serve-wal.txt; \
	kill `cat $(BENCHDIR)/tleserved.pid`; rm -f $(BENCHDIR)/tleserved.pid; \
	test $$rc -eq 0
	$(GO) run ./cmd/benchjson -out BENCH_$(BENCHDATE).json \
		$(if $(wildcard $(BENCHDIR)/current.txt),current=$(BENCHDIR)/current.txt) \
		serve=$(BENCHDIR)/serve.txt serve-wal=$(BENCHDIR)/serve-wal.txt

# Paired A/B of the serving benchmark (cmd/serveab): checks BASE out as a
# git worktree under .bench_build, runs servebench/run.sh of BASE and of
# this checkout in alternating order, PAIRS pairs on every workload of
# BENCHMARK.json, each side with its own build directory, and prints each
# metric's medians and quartiles, the pair wins and a verdict per carried
# metric. `go run ./cmd/serveab -h` lists the rest (traced runs, seeds).
BASE ?= HEAD~1
PAIRS ?= 10
serve-ab:
	$(GO) run ./cmd/serveab -base $(BASE) -pairs $(PAIRS)

# Prove the chaos checker still bites: a sabotaged engine must be caught.
chaos-teeth:
	$(GO) run ./cmd/chaosbench -break-undo -policy stm-cv -faults none -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)

# Kill-9 crash consistency (cmd/crashtest): tleserved with -wal under live
# load, SIGKILLed at a seeded random point, restarted from the log; the
# merged pre/post-crash history must linearize per key (acked writes
# survive, unacked may go either way). crash-smoke is the CI gate; crash-
# chaos sweeps more seeds over a wider kill window.
crash-smoke:
	$(GO) run ./cmd/crashtest -runs 3 -seed $(CRASH_SEED)

crash-chaos:
	$(GO) run ./cmd/crashtest -runs 12 -seed $(CRASH_SEED) \
		-kill-min 150ms -kill-max 1500ms -conns 12 -depth 8

# Replication convergence (cmd/repltest): one primary streams its
# per-shard commit log to two followers through seeded faulty links
# (delay/sever/corrupt); loadgen mutates the primary and stale-reads the
# followers; the round passes only if every node's shard dumps are
# byte-identical after quiesce AND the combined primary+follower history
# satisfies the stale-read linearizability model. repl-smoke is the CI
# gate and folds follower apply throughput + worst steady-state lag into
# the BENCH json trajectory; repl-chaos sweeps more seeds and adds the
# kill-9 follower restart (resume from the follower's own WAL cursor).
REPL_SEED ?= 1
repl-smoke:
	mkdir -p $(BENCHDIR)
	$(GO) run ./cmd/repltest -runs 1 -followers 2 -ops 20000 -seed $(REPL_SEED) \
		> $(BENCHDIR)/repl.txt 2>&1; rc=$$?; cat $(BENCHDIR)/repl.txt; test $$rc -eq 0
	$(GO) run ./cmd/benchjson -out BENCH_$(BENCHDATE).json repl=$(BENCHDIR)/repl.txt

repl-chaos:
	$(GO) run ./cmd/repltest -runs 6 -followers 2 -ops 20000 -seed $(REPL_SEED) \
		-kill-follower

clean:
	$(GO) clean ./...
