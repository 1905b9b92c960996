# Development entry points for the Citrus reproduction.

GO ?= go

.PHONY: all ci build test test-short race bench figures figures-paper bench-forest bench-scan bench-wal bench-kvserver loadtest torture torture-smoke torture-stall torture-forest torture-scan torture-ebr torture-crash fuzz vet fmt clean

all: build vet test

# What CI runs (see .github/workflows/ci.yml): build, vet, full test
# suite, the race detector over the packages with the most
# concurrency-sensitive invariants (including the citrustrace rings and
# the public tracing toggles), 100 race iterations of the forest stats
# fold (the test that deadlocked when forest shards reused retired
# nodes), a GOMAXPROCS=4 race pass over the forest
# and kvserver sharding paths, a short citrusbench smoke run that
# exercises the -json report plus the a4 tracing-overhead and a5
# grace-period-combining A/Bs, the committed BENCH_PR4.json combining
# ablation, the BENCH_PR6.json procs×shards sweep, an end-to-end
# kvserver+citrusload load smoke with Prometheus-payload validation,
# and fixed-seed torture smoke runs (correct build, the stalledreader robustness
# scenario, the forest subject with its shard-isolation control, the
# scanstorm/scanhog scan pair with the s1 scan-figure bench smoke, and
# the epoch-flavor pair: a 10-seed ebr race sweep plus the inverted
# ebrearly negative control, and the crash-torture sweep: kill–recover–verify
# against the WAL-backed kvserver with the inverted nofsync control
# and the WAL recovery fuzzer). The benchmark module under perfbench/
# is a nested module outside ./..., so it is vetted on its own: vet
# type-checks it and its tests against the library without leaving a
# binary behind.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) test -timeout 300s ./...
	$(GO) test -race ./rcu/... ./internal/core/... ./citrustrace/... ./internal/schedpoint/... ./internal/torture/...
	$(GO) test -race -run 'Trace|Tracing' .
	$(GO) test -race -run '^TestForestStatsFold$$' -count=100 -timeout 120s .
	GOMAXPROCS=4 $(GO) test -race -run 'Forest|Sharded|Partition|Router' . ./internal/partition/... ./internal/impls/... ./examples/kvserver/...
	$(GO) run ./cmd/citrusbench -figure 10c,a4,a5 -quick -impl Citrus -json bench_smoke.json -note "CI smoke"
	$(GO) run ./cmd/citrusbench -figure 10c,a5 -threads 1,2,4,8,16 -impl Citrus -json BENCH_PR4.json -note "CI combining ablation"
	$(MAKE) bench-forest
	$(MAKE) loadtest
	$(MAKE) torture-smoke
	$(MAKE) torture-stall
	$(MAKE) torture-forest
	$(MAKE) torture-scan
	$(MAKE) torture-ebr
	$(MAKE) torture-crash
	$(MAKE) bench-scan

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test -timeout 300s ./...

# The developer loop: the conformance battery and the torture seed
# sweeps run fewer subjects and seeds, every negative control still
# runs. Tier-1, `make test`, `make ci` and CI run without -short.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# One testing.B benchmark per paper figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate every figure's table (scaled-down defaults; ~15 min on one core).
figures:
	$(GO) run ./cmd/citrusbench -figure all -duration 1s -csv bench_results.csv

# The paper's parameters: 5s per cell, 5 repetitions. Slow.
figures-paper:
	$(GO) run ./cmd/citrusbench -figure all -paper -csv bench_results.csv

# The procs × shards sweep behind BENCH_PR6.json: figure 10c with
# GOMAXPROCS 1 and 4, unsharded Citrus vs an 8-shard forest, effective
# procs recorded on every data point. On a 1-CPU box -procs 4 measures
# timesharing, and the tool warns exactly so.
bench-forest:
	$(GO) run ./cmd/citrusbench -figure 10c -threads 1,4,8 -procs 1,4 -shards 1,8 -impl Citrus -json BENCH_PR6.json -note "forest sweep"

# End-to-end load smoke: boot a sharded kvserver, sweep it with the
# open-loop generator (docs/OBSERVABILITY.md "citrusload"), validate
# the Prometheus exposition on every point, write the latency report.
loadtest:
	$(GO) build -o /tmp/kvserver-loadtest ./examples/kvserver
	$(GO) build -o /tmp/citrusload-loadtest ./cmd/citrusload
	/tmp/kvserver-loadtest -serve -shards 8 -addr 127.0.0.1:7170 -http 127.0.0.1:7171 & \
	KV_PID=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:7171/healthz >/dev/null && break; sleep 0.2; done; \
	/tmp/citrusload-loadtest -proto tcp -target 127.0.0.1:7170 \
	    -rates 500,1000 -duration 3s -warmup 1s \
	    -scrape http://127.0.0.1:7171 -out BENCH_load_smoke.json -note "make loadtest"; \
	RC=$$?; kill $$KV_PID; exit $$RC

# Seeded fault-injection torture (docs/VERIFICATION.md "Torture").
# Long sweep: five seeds, 30s each, across both Citrus flavors.
# Failures print their reproduction seed.
torture:
	$(GO) run ./cmd/citrustorture -seed 1 -seeds 5 -duration 30s -json citrustorture.json
	$(GO) run ./cmd/citrustorture -flavor classic -seed 1 -seeds 5 -duration 30s -json citrustorture-classic.json

# CI-sized fixed-seed smoke: one correct-build run that must pass.
# The negative controls (nosync, snapearly, ebrearly) run as tests in
# internal/torture, and the line-38 tag's (ignoretags) as internal/core's
# TestTagDefeatsABA, so `go test ./...` already proves the checks bite.
torture-smoke:
	$(GO) run ./cmd/citrustorture -seed 1 -duration 2s -json citrustorture-smoke.json

# The robustness scenario (docs/RCU.md "Robustness"): a reader parked in
# its critical section while churn keeps needing grace periods. The run
# fails unless the stall detector fired, the parked reader saw its
# domain's oldest grace period at or past the stall threshold, and the
# tree stayed correct — positive controls for the whole degradation
# machinery on a fixed seed.
torture-stall:
	$(GO) run ./cmd/citrustorture -flavor stalledreader -seed 1 -duration 4s -json citrustorture-stall.json

# The sharded subject: per-shard reclamation oracles, misroute checks,
# and — under stalledreader — the isolation positive control: shard 0
# stalls, and the run fails unless the sibling shards' grace periods
# kept completing.
torture-forest:
	$(GO) run ./cmd/citrustorture -impl forest -seed 1 -duration 2s -json citrustorture-forest.json
	$(GO) run ./cmd/citrustorture -impl forest -flavor stalledreader -seed 1 -duration 4s -json citrustorture-forest-stall.json

# Scan torture (docs/VERIFICATION.md "Scans"). scanstorm is the
# robustness scenario: half the workers run batched range scans against
# churn, and the run fails if scan-side critical sections held the
# median grace period at or past the 5 ms stall threshold, or if no
# scans completed. scanhog is the matching negative control — an
# unbatched full-range scan dwelling in its critical section — judged by
# the SAME grace-period rule, so it MUST fail on its fixed seed; the
# leading `!` inverts it.
torture-scan:
	$(GO) run ./cmd/citrustorture -flavor scanstorm -seed 1 -duration 4s -json citrustorture-scan.json
	$(GO) run ./cmd/citrustorture -impl forest -flavor scanstorm -seed 1 -duration 4s -json citrustorture-scan-forest.json
	! $(GO) run ./cmd/citrustorture -flavor scanhog -seed 11 -duration 2s -json citrustorture-scanhog.json

# The epoch-based flavor (docs/RCU.md "Choosing a flavor"). The correct
# build must pass a 10-seed sweep under the race detector — EBR's reader
# fast path is a single unfenced-looking store and the race pass is what
# certifies the happens-before edges behind it — and the ebrearly mutant
# (advance threshold computed one epoch early, so pinned readers are
# never waited for) MUST fail on its pinned seed; the leading `!`
# inverts it.
torture-ebr:
	$(GO) run -race ./cmd/citrustorture -flavor ebr -seed 1 -seeds 10 -duration 2s -json citrustorture-ebr.json
	$(GO) run ./cmd/citrustorture -impl forest -flavor ebr -seed 1 -duration 2s -json citrustorture-ebr-forest.json
	! $(GO) run ./cmd/citrustorture -flavor ebrearly -seed 1 -duration 2s -json citrustorture-ebrearly.json

# Crash torture (docs/DURABILITY.md, docs/VERIFICATION.md "Crash
# torture"): kill–recover–verify against the WAL-backed kvserver. The
# kvserver binary is built once and shared across the sweep. Ten seeds
# of the durable default (group commit) must pass — every acknowledged
# write survives SIGKILL — and the nofsync negative control, whose acks
# come from a user-space buffer, MUST lose acknowledged writes on its
# fixed seed; the leading `!` inverts it.
torture-crash:
	$(GO) build -o /tmp/kvserver-crash ./examples/kvserver
	$(GO) run ./cmd/citrustorture -crash -crash-bin /tmp/kvserver-crash -seed 1 -seeds 10 -json citrustorture-crash.json
	$(GO) run ./cmd/citrustorture -crash -crash-bin /tmp/kvserver-crash -crash-shards 4 -seed 1 -json citrustorture-crash-forest.json
	! $(GO) run ./cmd/citrustorture -crash -crash-bin /tmp/kvserver-crash -crash-fsync nofsync -seed 1 -json citrustorture-crash-nofsync.json

# WAL append throughput and fsync behavior across the three policies
# (docs/DURABILITY.md "fsync policies"): the group-commit knee is the
# figure — fsyncs/append collapses as writers stack while always pays
# one fsync per record. Then snapshot recovery: 30 000 ascending keys
# loaded into a tree, with the height the load built.
bench-wal:
	$(GO) test -bench 'BenchmarkWAL' -benchmem ./internal/wal
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshotRecover' -benchmem ./internal/snapshot

# One TCP request through kvserver's protocol handler on a one-shard
# server holding 1e5 keys: a GET hit and miss, a SET of an existing key
# and a 100-pair SCAN page, each with its allocations.
bench-kvserver:
	$(GO) test -run '^$$' -bench 'BenchmarkExecTCP' -benchmem -benchtime 20000x ./examples/kvserver

# The scan figure behind BENCH_PR8.json: range scans as first-class ops
# racing structural churn (s1: 30% scans / 70% updates; s2: 90% scans),
# Citrus vs Bonsai's path-copied snapshots vs the baselines. Effective
# GOMAXPROCS is recorded per cell — on a 1-CPU box the thread axis
# measures timesharing, and the report says so.
bench-scan:
	$(GO) run ./cmd/citrusbench -figure s -quick -json BENCH_scan_smoke.json -note "scan figure smoke"

# Coverage-guided exploration of the core tree against the map oracle,
# and of the inputs kvserver reads from the disk and the TCP face: WAL
# recovery over torn and garbage segments, snapshot loading over
# arbitrary file bytes, WAL record decoding, and the TCP line protocol
# and the HTTP /kv face against a sequential model. Minimizing a new
# input is capped at 2s, so the run's time goes to executing inputs;
# FuzzSnapshotLoad keeps the default, under which it ran about twice as
# many inputs in 20s (8 runs each way).
fuzz:
	$(GO) test -fuzz=FuzzOpsAgainstOracle -fuzztime 60s -fuzzminimizetime 2s ./internal/core
	$(GO) test -run FuzzWALRecover -fuzz=FuzzWALRecover -fuzztime 20s -fuzzminimizetime 2s ./internal/wal
	$(GO) test -run FuzzSnapshotLoad -fuzz=FuzzSnapshotLoad -fuzztime 20s ./internal/snapshot
	$(GO) test -run FuzzDecodeRecord -fuzz=FuzzDecodeRecord -fuzztime 20s -fuzzminimizetime 2s ./examples/kvserver
	$(GO) test -run FuzzExecVerb -fuzz=FuzzExecVerb -fuzztime 20s -fuzzminimizetime 2s ./examples/kvserver
	$(GO) test -run FuzzHTTPKV -fuzz=FuzzHTTPKV -fuzztime 20s -fuzzminimizetime 2s ./examples/kvserver

clean:
	rm -f bench_results.csv bench_smoke.json BENCH_scan_smoke.json test_output.txt bench_output.txt citrustorture*.json /tmp/kvserver-crash
