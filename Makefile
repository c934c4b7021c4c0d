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
#                     its bytes stay at <= 40 per element and its merge
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
#   make examples-smoke  run both examples (quickstart; ocean at 18²,
#                     p = 2, one step); each exits non-zero when its
#                     own sum, broadcast or bit-identity check fails
#   make conformance  cross-transport contract suite under -race
#                     (shortened fault plans; stays well under 60s),
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
#                     field table)
#   make trace-smoke  end-to-end observability smoke: a chaos-crashed,
#                     checkpointed bsprun must leave a Chrome trace with
#                     a superstep span per rank per superstep plus the
#                     crash and rollback markers (validated by
#                     cmd/tracecheck), and an untraced run's
#                     -cost-report must print the residual table
#   make cluster-smoke  end-to-end multi-process smoke: psort and ocean
#                     run as real OS processes (one per rank, loopback
#                     TCP) via bsprun -cluster; a clean run must leave a
#                     merged per-rank trace with every h-relation pair
#                     reconciled, and a chaos-crashed checkpointed run
#                     must recover through the launcher's supervision
#                     loop (internal/launch: the crashed rank is
#                     replaced, the survivors roll back in place) with
#                     the crash and rollback markers in the merged trace
#   make soak         chaos soak: cmd/bspsoak cycles seeded fault
#                     scenarios (in-process chaos crashes, warm
#                     single-rank cluster recovery, control-plane
#                     partitions through the TCP chaos proxy) for
#                     SOAK_DURATION, asserting byte-identical results
#                     vs fault-free runs, surgical recovery counts and
#                     zero goroutine leaks; the merged trace of the
#                     last warm round is validated by tracecheck
#   make soak-smoke   the same, bounded for CI: a short seeded soak
#                     with the soak binary built under -race
#   make postmortem-smoke  end-to-end crash-forensics smoke: a chaos-
#                     crashed p=4 cluster psort WITHOUT -trace must
#                     leave a complete postmortem bundle (the always-on
#                     flight recorder), validated by tracecheck
#                     -postmortem, and bsppost's report must name the
#                     injected crash rank and superstep
#   make top-smoke    end-to-end live-telemetry smoke: a p=4 cluster
#                     ocean runs with -status-addr; while it runs,
#                     bsptop must see every rank advance past its first
#                     superstep and the aggregated /metrics must carry
#                     the rank-labeled families; after it finishes, the
#                     launcher's live-vs-post-hoc (g, L) agreement line
#                     must read ok, the final status dump must render a
#                     row per rank, and tracecheck -status must
#                     reconcile the dump against the merged trace;
#                     then a p=2 run with no -status-addr, -trace,
#                     -metrics-addr or postmortem bundle must still
#                     dump a status where every rank passed superstep 1
#   make golden       rewrite every -update golden in one go — the
#                     Chrome trace export, the Prometheus /metrics
#                     exposition, ocean's (S, H, V-cycles) cost table
#                     and the registry's per-application (S, H) table
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
SOAK_DIR ?= /tmp/bsp-soak
SOAK_DURATION ?= 60s
SOAK_SMOKE_DURATION ?= 15s
SOAK_SEED ?= 1
# ns/op is host-dependent (the checkpoint benchmark is disk-bound); the
# band is wide on purpose — the gate catches order-of-magnitude
# regressions and alloc creep, not scheduler noise.
BENCH_N ?= 3
BENCH_TOL ?= 2.0
COMMIT := $(shell git rev-parse --short HEAD 2>/dev/null)

.PHONY: build test vet race verify verify-race verify-alloc examples-smoke flake-check golden conformance trace-smoke cluster-smoke postmortem-smoke top-smoke soak soak-smoke fuzz bench bench-alloc bench-gate

build:
	$(GO) build ./...

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
	$(GO) build -o $(TRACE_DIR)/tracecheck ./cmd/tracecheck
	$(TRACE_DIR)/bsprun -app psort -size 4000 -p 4 -transport tcp \
		-chaos "seed=1,delay=0,stall=0,crash=1:3" \
		-checkpoint-dir $(TRACE_DIR)/ckpt -trace $(TRACE_DIR)/trace.json -cost-report
	$(TRACE_DIR)/tracecheck -ranks 4 -require-crash -require-rollback $(TRACE_DIR)/trace.json
	$(TRACE_DIR)/bsprun -app psort -size 4000 -p 4 -transport shm \
		-trace $(TRACE_DIR)/clean.json
	$(TRACE_DIR)/tracecheck -ranks 4 -check-pairs $(TRACE_DIR)/clean.json
	$(TRACE_DIR)/bsprun -app psort -size 4000 -p 4 -transport shm \
		-cost-report | grep -q "cost-model residuals"

cluster-smoke:
	rm -rf $(CLUSTER_DIR) && mkdir -p $(CLUSTER_DIR)
	$(GO) build -o $(CLUSTER_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(CLUSTER_DIR)/tracecheck ./cmd/tracecheck
	$(CLUSTER_DIR)/bsprun -app psort -size 4000 -p 4 -cluster \
		-trace $(CLUSTER_DIR)/clean.json
	$(CLUSTER_DIR)/tracecheck -ranks 4 -check-pairs $(CLUSTER_DIR)/clean.json
	$(CLUSTER_DIR)/bsprun -app ocean -size 34 -p 4 -cluster \
		-trace $(CLUSTER_DIR)/ocean.json
	$(CLUSTER_DIR)/tracecheck -ranks 4 $(CLUSTER_DIR)/ocean.json
	$(CLUSTER_DIR)/bsprun -app psort -size 4000 -p 4 -cluster \
		-chaos "seed=1,delay=0,stall=0,crash=1:3" \
		-checkpoint-dir $(CLUSTER_DIR)/ckpt -trace $(CLUSTER_DIR)/crash.json \
		-sync-timeout 30s
	$(CLUSTER_DIR)/tracecheck -ranks 4 -require-crash -require-rollback $(CLUSTER_DIR)/crash.json

# The crash forensics must work with tracing OFF — that is the whole
# point of the always-on flight recorder — so the run deliberately has
# no -trace and no -checkpoint-dir: the supervision loop takes its cold
# branch — the failed generation drains (every survivor finishes its
# dump), then the gang relaunches fault-free (exit 0) — and the dead
# epoch-0 generation's bundle is what we audit.
# The chaos plan crashes rank 1 in its 3rd superstep, which the trace
# axis records as 0-based superstep 2 — the line bsppost must print.
postmortem-smoke:
	rm -rf $(POST_DIR) && mkdir -p $(POST_DIR)
	$(GO) build -o $(POST_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(POST_DIR)/bsppost ./cmd/bsppost
	$(GO) build -o $(POST_DIR)/tracecheck ./cmd/tracecheck
	$(POST_DIR)/bsprun -app psort -size 4000 -p 4 -cluster \
		-chaos "seed=1,delay=0,stall=0,crash=1:3" \
		-postmortem-dir $(POST_DIR)/bundle -sync-timeout 30s
	$(POST_DIR)/tracecheck -postmortem -ranks 4 $(POST_DIR)/bundle
	$(POST_DIR)/bsppost $(POST_DIR)/bundle | tee $(POST_DIR)/report.txt
	grep -q "injected crash: rank 1 at superstep 2" $(POST_DIR)/report.txt

# The live window is long by construction: ocean at 4098 spreads ~230
# supersteps evenly over the whole run (about two seconds of it at p=4).
# A psort of similar length would not do: it does all its work in
# superstep 0 and leaves ~0.1 s between "every rank is past superstep 1"
# and the status server going away. The probes poll in a tight 0.1s
# loop from t=0 instead of sleeping first: bsptop
# -min-step 1 succeeds only once every rank has advanced past its first
# superstep, and the aggregated /metrics scrape is taken in that same
# live window. The post-run checks then validate the launcher's
# live-vs-post-hoc (g, L) agreement line, the final status dump (one
# bsptop row per rank), the golden metric families, and the
# status-vs-trace reconciliation.
top-smoke:
	rm -rf $(TOP_DIR) && mkdir -p $(TOP_DIR)
	$(GO) build -o $(TOP_DIR)/bsprun ./cmd/bsprun
	$(GO) build -o $(TOP_DIR)/bsptop ./cmd/bsptop
	$(GO) build -o $(TOP_DIR)/tracecheck ./cmd/tracecheck
	set -e; \
	$(TOP_DIR)/bsprun -app ocean -size 4098 -p 4 -cluster \
		-status-addr 127.0.0.1:$(TOP_PORT) -heartbeat-interval 25ms \
		-metrics-addr 127.0.0.1:0 -trace $(TOP_DIR)/trace.json \
		-status-dump $(TOP_DIR)/status.json -postmortem-dir none \
		> $(TOP_DIR)/run.log 2>&1 & \
	run=$$!; ok=0; \
	for i in $$(seq 1 100); do \
		if $(TOP_DIR)/bsptop -status http://127.0.0.1:$(TOP_PORT) \
			-once -min-step 1 > $(TOP_DIR)/top.txt 2>/dev/null; then \
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
	$(TOP_DIR)/bsptop -status $(TOP_DIR)/status.json -once | tee $(TOP_DIR)/top_final.txt
	test "$$(grep -c '^r[0-3] ' $(TOP_DIR)/top_final.txt)" = 4
	grep -q 'bsp_supersteps_total{rank="3"}' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_last_superstep{rank="0"}' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_sent_bytes_total{rank="1"}' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_telemetry_rejects_total{rank="2"} 0' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_sync_wait_seconds_bucket' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_calib_g_us_per_packet' $(TOP_DIR)/metrics.txt
	grep -q 'bsp_calib_l_us' $(TOP_DIR)/metrics.txt
	$(TOP_DIR)/tracecheck -ranks 4 -status $(TOP_DIR)/status.json $(TOP_DIR)/trace.json
	$(TOP_DIR)/bsprun -app ocean -size 1026 -p 2 -cluster -postmortem-dir none \
		-status-dump $(TOP_DIR)/status_bare.json > $(TOP_DIR)/run_bare.log 2>&1 || { \
		cat $(TOP_DIR)/run_bare.log; exit 1; }
	$(TOP_DIR)/bsptop -status $(TOP_DIR)/status_bare.json -once -min-step 1
	! grep -q '"last_step": -1' $(TOP_DIR)/status_bare.json

soak:
	rm -rf $(SOAK_DIR) && mkdir -p $(SOAK_DIR)
	$(GO) build -o $(SOAK_DIR)/bspsoak ./cmd/bspsoak
	$(GO) build -o $(SOAK_DIR)/tracecheck ./cmd/tracecheck
	$(SOAK_DIR)/bspsoak -duration $(SOAK_DURATION) -seed $(SOAK_SEED) \
		-dir $(SOAK_DIR)/work -trace $(SOAK_DIR)/soak-trace.json
	$(SOAK_DIR)/tracecheck -ranks 4 -require-crash -require-rollback $(SOAK_DIR)/soak-trace.json

soak-smoke:
	rm -rf $(SOAK_DIR) && mkdir -p $(SOAK_DIR)
	$(GO) build -race -o $(SOAK_DIR)/bspsoak ./cmd/bspsoak
	$(GO) build -o $(SOAK_DIR)/tracecheck ./cmd/tracecheck
	$(SOAK_DIR)/bspsoak -duration $(SOAK_SMOKE_DURATION) -seed $(SOAK_SEED) \
		-dir $(SOAK_DIR)/work -trace $(SOAK_DIR)/soak-trace.json
	$(SOAK_DIR)/tracecheck -ranks 4 -require-crash -require-rollback $(SOAK_DIR)/soak-trace.json

fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzRoundTrip -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzReaderShortMessage -fuzztime 5s
	$(GO) test ./internal/wire/ -fuzz FuzzFrameBatch -fuzztime 5s
	$(GO) test ./internal/wire/ -fuzz FuzzCtrl -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzTelemetryFrame -fuzztime 10s
	$(GO) test ./internal/ckpt/ -fuzz FuzzSnapshotRecord -fuzztime 10s
	$(GO) test ./internal/psort/ -fuzz FuzzSampleSort -fuzztime 10s

bench:
	$(GO) test ./internal/transport/ -run xxx -bench . -benchtime 100x

bench-alloc:
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkExchangeAllocs -benchmem

bench-gate:
	$(GO) run ./cmd/benchgate -count $(BENCH_N) -tolerance $(BENCH_TOL) \
		-commit "$(COMMIT)" -date "$(shell date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-out BENCH_run.json
