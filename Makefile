# Verify tiers for the Green BSP reproduction.
#
#   make verify       tier-1: build + go vet + full test suite + the
#                     cross-transport conformance suite under -race
#   make verify-race  tier-2: go vet + full test suite under -race (the
#                     allocation gates skip themselves there, as
#                     sync.Pool drops items at random under -race;
#                     verify-alloc runs them)
#   make verify-alloc allocation gates: the batched exchange engine must
#                     keep an 8-process all-to-all superstep allocation-
#                     free (see internal/core/alloc_test.go and
#                     BENCH_exchange.json), every transport's exchange
#                     engine (shm, xchg, tcp, sim, cluster) must recycle
#                     batches at exactly 0 allocs per superstep (shm
#                     also when its barrier waiters park),
#                     and the tcp and cluster links must stand up,
#                     run three supersteps and close within 8 KiB per
#                     ordered pair at p = 4, 8, 16 (internal/transport), a
#                     checkpoint capture must allocate the same bytes
#                     for a 1 MiB inbox or kept slice as for a 64 KiB
#                     one (both are streamed into the record,
#                     internal/core), and
#                     the sample sort's alloc count must stay flat in n,
#                     its bytes stay at <= 32 per element and its merge
#                     tree allocate nothing when the destination and
#                     the scratch have room (internal/psort)
#   make flake-check  the tests of two fixed flakes, repeated: the
#                     host (g, L) sweep-and-fit tests (internal/harness)
#                     and the flight ring's lapped-writer property
#                     test under -race (internal/trace); the shm
#                     barrier's parked-wake and parked-alloc tests
#                     under -race (internal/transport); plus the
#                     checkpoint capture, flusher and recovery tests
#                     under -race (internal/ckpt, internal/core; the
#                     capture alloc gate is left to verify-alloc, as
#                     sync.Pool drops items under -race)
#   make cross        cross-build: go build ./... for windows/amd64,
#                     darwin/arm64 and linux/arm64, so that an
#                     OS-specific file cannot break another host's build
#   make examples-smoke  run both examples (quickstart; ocean at 18²,
#                     p = 2, one step); each exits non-zero when its
#                     own sum, broadcast or bit-identity check fails
#   make conformance  cross-transport contract suite under -race
#                     (shortened fault plans),
#                     plus the cluster control plane twice over (the
#                     coordinator's state-machine table and seeded
#                     fence-property schedules, its socket shell, the
#                     telemetry plane, and all of internal/wire
#                     including the control-message codec), the
#                     checkpoint/recovery conformance suite,
#                     the launcher's supervision-loop and child-
#                     contract tests (internal/launch), and the
#                     application registry suite (internal/apps, run
#                     twice): every registered application on shm,
#                     xchg, tcp and cluster bit-identical to sim with
#                     equal (H, S), and recovering from one seeded
#                     crash to the same result, and all of
#                     internal/trace (metrics = fold(events), the row
#                     field table). With an empty test cache and a
#                     warm build cache the target took 1 min 35 s on
#                     a 2-vCPU Xeon (the transport suite 7 s, the
#                     control plane 68 s, the registry suite 2.3 s)
#   make trace-smoke  end-to-end observability smoke: a chaos-crashed,
#                     checkpointed bsprun must leave a Chrome trace with
#                     a superstep span per rank per superstep plus the
#                     crash and rollback markers (validated by
#                     bspobs check), and an untraced run's
#                     -cost-report must print the residual table
#   make cluster-smoke  end-to-end multi-process smoke: psort and ocean
#                     run as real OS processes (one per rank, loopback
#                     TCP) via bsprun -cluster; a clean run must leave a
#                     merged per-rank trace with every h-relation pair
#                     reconciled, and a chaos-crashed checkpointed run
#                     must recover through the launcher's supervision
#                     loop (internal/launch: the crashed rank is
#                     replaced, the survivors roll back in place) with
#                     the crash marker and exactly one rollback marker
#                     in the merged trace
#   make soak         chaos soak: TestSoak (internal/ckpt) cycles
#                     seeded fault rounds (in-process chaos crashes of
#                     psort and ocean, warm single-rank cluster
#                     recovery, control-plane partitions through the
#                     TCP chaos proxy) for SOAK_DURATION, asserting
#                     byte-identical results vs fault-free runs,
#                     surgical recovery counts, telemetry, postmortem
#                     and merged-trace consistency and zero goroutine
#                     leaks; round N draws its faults from seed N, and a
#                     failed round prints the go test line that replays
#                     it alone. -timeout is 1h: a longer SOAK_DURATION
#                     needs a longer one
#   make soak-smoke   the same under -race, bounded for CI by
#                     SOAK_SMOKE_DURATION
#   make postmortem-smoke  end-to-end crash-forensics smoke: a chaos-
#                     crashed p=4 cluster psort WITHOUT -trace must
#                     leave a complete postmortem bundle (the always-on
#                     flight recorder): bspobs post must validate it
#                     and its report must name the injected crash rank
#                     and superstep
#   make top-smoke    end-to-end live-telemetry smoke: a p=4 cluster
#                     ocean runs with -status-addr; while it runs,
#                     bspobs top must see every rank advance past its
#                     first superstep and the aggregated /metrics must carry
#                     the rank-labeled families; after it finishes, the
#                     launcher's live-vs-post-hoc (g, L) agreement line
#                     must read ok, the final status dump must render a
#                     row per rank, and bspobs check -status must
#                     reconcile the dump against the merged trace;
#                     then a p=2 run with no -status-addr, -trace,
#                     -metrics-addr or postmortem bundle must still
#                     dump a status where every rank passed superstep 1
#   make golden       rewrite every -update golden in one go — the
#                     Chrome trace export, the Prometheus /metrics
#                     exposition, ocean's (S, H, V-cycles) cost table
#                     and field hashes, and the registry's
#                     per-application (S, H) table
#                     — so a deliberate schema or schedule change is
#                     refreshed and reviewed as one diff; the tests that
#                     hold the goldens run in plain `go test ./...`
#   make fuzz         brief wire encode/decode, control-message and
#                     snapshot codec fuzz pass
#   make bench        transport latency/throughput microbenchmarks
#   make bench-gate   benchmark-regression gate: run the exchange and
#                     checkpoint benchmarks BENCH_N times, gate the best
#                     run against the checked-in BENCH_exchange.json /
#                     BENCH_ckpt.json baselines (+BENCH_TOL ns/op band,
#                     tight allocs/op band), append to BENCH_run.json

GO ?= go
TRACE_DIR ?= /tmp/bsp-trace-smoke
CLUSTER_DIR ?= /tmp/bsp-cluster-smoke
POST_DIR ?= /tmp/bsp-postmortem-smoke
TOP_DIR ?= /tmp/bsp-top-smoke
TOP_PORT ?= 8338
SOAK_DURATION ?= 60s
SOAK_SMOKE_DURATION ?= 15s
# ns/op is host-dependent (the checkpoint benchmark is disk-bound); the
# band is wide on purpose — the gate catches order-of-magnitude
# regressions and alloc creep, not scheduler noise.
BENCH_N ?= 3
BENCH_TOL ?= 2.0
COMMIT := $(shell git rev-parse --short HEAD 2>/dev/null)

.PHONY: build test vet race verify verify-race verify-alloc cross examples-smoke flake-check golden conformance trace-smoke cluster-smoke postmortem-smoke top-smoke soak soak-smoke fuzz bench bench-alloc bench-gate

build:
	$(GO) build ./...

cross:
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

verify: build vet test conformance

verify-race: vet race

verify-alloc:
	$(GO) test -count=1 ./internal/core/ -run 'TestExchangeAllocGate|TestCheckpointCaptureAllocGate' -v
	$(GO) test -count=1 ./internal/transport/ -run 'TestEngineAllocGate|TestShmParkAllocFree|TestLinkOpenBytes' -v
	$(GO) test -count=1 ./internal/psort/ -run 'TestSortAllocBound|TestSortBytesPerElement|TestMergeAllocFree' -v

examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ocean -size 18 -p 2 -steps 1

flake-check:
	$(GO) test -count=20 -run 'TestMeasureParams|TestFit' ./internal/harness/
	$(GO) test -race -count=20 -run TestTraceFlightRing ./internal/trace/
	$(GO) test -race -count=20 -run 'ShmPark' ./internal/transport/
	$(GO) test -race -count=20 -run 'Recovery|Crash|Recoverable|LoadComplete|^TestCapture|^TestKeep' ./internal/ckpt/ ./internal/core/

golden:
	$(GO) test -count=1 ./internal/trace/ ./internal/ocean/ ./internal/apps/ -run 'Golden' -update

conformance:
	$(GO) test -race -timeout 120s ./internal/transport/ -run 'Conformance|PerPairBatchHandoff' -v
	$(GO) test -race -count=2 -timeout 300s ./internal/transport/ -run 'Cluster|Coordinator|Ctrl|Telemetry'
	$(GO) test -race -count=2 -timeout 120s ./internal/wire/
	$(GO) test -race -timeout 120s ./internal/ckpt/ -run 'Recovery|Crash|Recoverable' -v
	$(GO) test -race -timeout 120s ./internal/launch/ -v
	$(GO) test -race -count=2 -timeout 120s ./internal/apps/ -v
	$(GO) test -race -timeout 120s ./internal/trace/

trace-smoke:
	rm -rf $(TRACE_DIR) && mkdir -p $(TRACE_DIR)
	$(GO) build -o $(TRACE_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(TRACE_DIR)/bspobs ./cmd/bspobs
	$(TRACE_DIR)/bsprun -app psort -size 4000 -p 4 -transport tcp \
		-chaos "seed=1,delay=0,stall=0,crash=1:3" \
		-checkpoint-dir $(TRACE_DIR)/ckpt -trace $(TRACE_DIR)/trace.json -cost-report
	$(TRACE_DIR)/bspobs check -ranks 4 -require-crash -require-rollback $(TRACE_DIR)/trace.json
	$(TRACE_DIR)/bsprun -app psort -size 4000 -p 4 -transport shm \
		-trace $(TRACE_DIR)/clean.json
	$(TRACE_DIR)/bspobs check -ranks 4 -check-pairs $(TRACE_DIR)/clean.json
	$(TRACE_DIR)/bsprun -app psort -size 4000 -p 4 -transport shm \
		-cost-report | grep -q "cost-model residuals"

cluster-smoke:
	rm -rf $(CLUSTER_DIR) && mkdir -p $(CLUSTER_DIR)
	$(GO) build -o $(CLUSTER_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(CLUSTER_DIR)/bspobs ./cmd/bspobs
	$(CLUSTER_DIR)/bsprun -app psort -size 4000 -p 4 -cluster \
		-trace $(CLUSTER_DIR)/clean.json
	$(CLUSTER_DIR)/bspobs check -ranks 4 -check-pairs $(CLUSTER_DIR)/clean.json
	$(CLUSTER_DIR)/bsprun -app ocean -size 34 -p 4 -cluster \
		-trace $(CLUSTER_DIR)/ocean.json
	$(CLUSTER_DIR)/bspobs check -ranks 4 $(CLUSTER_DIR)/ocean.json
	$(CLUSTER_DIR)/bsprun -app psort -size 4000 -p 4 -cluster \
		-chaos "seed=1,delay=0,stall=0,crash=1:3" \
		-checkpoint-dir $(CLUSTER_DIR)/ckpt -trace $(CLUSTER_DIR)/crash.json \
		-sync-timeout 30s
	$(CLUSTER_DIR)/bspobs check -ranks 4 -require-crash -require-rollback $(CLUSTER_DIR)/crash.json \
		> $(CLUSTER_DIR)/crash-check.txt || { cat $(CLUSTER_DIR)/crash-check.txt; false; }
	cat $(CLUSTER_DIR)/crash-check.txt
	grep -q " 1 crash(es), 1 rollback(s)" $(CLUSTER_DIR)/crash-check.txt

# The crash forensics must work with tracing OFF — that is the whole
# point of the always-on flight recorder — so the run deliberately has
# no -trace and no -checkpoint-dir: the supervision loop takes its cold
# branch — the failed generation drains (every survivor finishes its
# dump), then the gang relaunches fault-free (exit 0) — and the dead
# epoch-0 generation's bundle is what we audit.
# The chaos plan crashes rank 1 in its 3rd superstep, which the trace
# axis records as 0-based superstep 2 — the line bspobs post must
# print. bspobs post exits 1 on any bundle problem (a rank that left no
# dump, a missing manifest); the report is written to a file first so
# that exit status fails the target.
postmortem-smoke:
	rm -rf $(POST_DIR) && mkdir -p $(POST_DIR)
	$(GO) build -o $(POST_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(POST_DIR)/bspobs ./cmd/bspobs
	$(POST_DIR)/bsprun -app psort -size 4000 -p 4 -cluster \
		-chaos "seed=1,delay=0,stall=0,crash=1:3" \
		-postmortem-dir $(POST_DIR)/bundle -sync-timeout 30s
	$(POST_DIR)/bspobs post $(POST_DIR)/bundle > $(POST_DIR)/report.txt || { \
		cat $(POST_DIR)/report.txt; false; }
	cat $(POST_DIR)/report.txt
	grep -q "injected crash: rank 1 at superstep 2" $(POST_DIR)/report.txt

# The live window is long by construction: ocean at 4098 spreads 105
# supersteps evenly over the whole run (about two seconds of it at p=4).
# A psort of similar length would not do: it does all its work in
# superstep 0 and leaves ~0.1 s between "every rank is past superstep 1"
# and the status server going away. The probes poll in a tight 0.1s
# loop from t=0 instead of sleeping first: bspobs top
# -min-step 1 succeeds only once every rank has advanced past its first
# superstep, and the aggregated /metrics scrape is taken in that same
# live window. The post-run checks then validate the launcher's
# live-vs-post-hoc (g, L) agreement line, the final status dump (one
# bspobs top row per rank), the golden metric families, and the
# status-vs-trace reconciliation.
top-smoke:
	rm -rf $(TOP_DIR) && mkdir -p $(TOP_DIR)
	$(GO) build -o $(TOP_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(TOP_DIR)/bspobs ./cmd/bspobs
	set -e; \
	$(TOP_DIR)/bsprun -app ocean -size 4098 -p 4 -cluster \
		-status-addr 127.0.0.1:$(TOP_PORT) -heartbeat-interval 25ms \
		-metrics-addr 127.0.0.1:0 -trace $(TOP_DIR)/trace.json \
		-status-dump $(TOP_DIR)/status.json -postmortem-dir none \
		> $(TOP_DIR)/run.log 2>&1 & \
	run=$$!; ok=0; \
	for i in $$(seq 1 100); do \
		if $(TOP_DIR)/bspobs top -once -min-step 1 \
			http://127.0.0.1:$(TOP_PORT) > $(TOP_DIR)/top.txt 2>/dev/null; then \
			curl -s http://127.0.0.1:$(TOP_PORT)/metrics > $(TOP_DIR)/metrics.txt; \
			ok=1; break; \
		fi; \
		sleep 0.1; \
	done; \
	wait $$run; \
	test $$ok -eq 1 || { \
		echo "top-smoke: never caught a live /status with every rank past superstep 1"; \
		cat $(TOP_DIR)/run.log; exit 1; }
	cat $(TOP_DIR)/top.txt
	grep -q "agreement ok" $(TOP_DIR)/run.log
	$(TOP_DIR)/bspobs top -once $(TOP_DIR)/status.json | tee $(TOP_DIR)/top_final.txt
	test "$$(grep -c '^r[0-3] ' $(TOP_DIR)/top_final.txt)" = 4
	grep -q 'bsp_supersteps_total{rank="3"}' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_last_superstep{rank="0"}' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_sent_bytes_total{rank="1"}' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_telemetry_rejects_total{rank="2"} 0' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_sync_wait_seconds_bucket' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_calib_g_us_per_packet' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_calib_l_us' $(TOP_DIR)/metrics.txt
	$(TOP_DIR)/bspobs check -ranks 4 -status $(TOP_DIR)/status.json $(TOP_DIR)/trace.json
	$(TOP_DIR)/bsprun -app ocean -size 1026 -p 2 -cluster -postmortem-dir none \
		-status-dump $(TOP_DIR)/status_bare.json > $(TOP_DIR)/run_bare.log 2>&1 || { \
		cat $(TOP_DIR)/run_bare.log; exit 1; }
	$(TOP_DIR)/bspobs top -once -min-step 1 $(TOP_DIR)/status_bare.json
	! grep -q '"last_step": -1' $(TOP_DIR)/status_bare.json

soak:
	$(GO) test -count=1 -timeout 1h -run 'TestSoak$$' ./internal/ckpt/ -v -soak $(SOAK_DURATION)

soak-smoke:
	$(GO) test -race -count=1 -timeout 10m -run 'TestSoak$$' ./internal/ckpt/ -v -soak $(SOAK_SMOKE_DURATION)

fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzRoundTrip -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzReaderShortMessage -fuzztime 5s
	$(GO) test ./internal/wire/ -fuzz FuzzFrameBatch -fuzztime 5s
	$(GO) test ./internal/wire/ -fuzz FuzzCtrl -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzTelemetryFrame -fuzztime 10s
	$(GO) test ./internal/ckpt/ -fuzz FuzzSnapshotRecord -fuzztime 10s
	$(GO) test ./internal/psort/ -fuzz FuzzSampleSort -fuzztime 10s -fuzzminimizetime 3s

bench:
	$(GO) test ./internal/transport/ -run xxx -bench . -benchtime 100x

bench-alloc:
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkExchangeAllocs -benchmem

bench-gate:
	$(GO) run ./cmd/benchgate -count $(BENCH_N) -tolerance $(BENCH_TOL) \
		-commit "$(COMMIT)" -date "$(shell date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-out BENCH_run.json
