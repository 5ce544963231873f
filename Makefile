# Tier-1 gate: everything a PR must keep green. `make ci` is what the
# README documents and what reviewers run.

GO ?= go

.PHONY: ci vet fmt-check build client-deps bench-vet bench-test test race race-handoff bench bench-durable bench-tcpnet bench-all bench-scale bench-churn bench-wal fuzz-store fuzz-store-smoke fuzz-smoke chaos chaos-restart-smoke chaos-replica-smoke churn-smoke gateway-smoke

ci: fmt-check vet build client-deps bench-vet bench-test race race-handoff chaos-restart-smoke chaos-replica-smoke churn-smoke gateway-smoke fuzz-store-smoke fuzz-smoke

vet:
	$(GO) vet ./...

# gofmt -l prints unformatted files; grep inverts that into a pass/fail.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# rbayctl is an HTTP client of a daemon's gateway, not a member of the
# overlay: it may import the standard library and nothing of rbay.
client-deps:
	@bad=$$($(GO) list -deps ./cmd/rbayctl | grep -E '^rbay(/|$$)' | grep -vx 'rbay/cmd/rbayctl'); \
	if [ -n "$$bad" ]; then echo "rbayctl depends on rbay packages:"; echo "$$bad"; exit 1; fi

# bench/ is its own module, so `go build ./...` here cannot see a store,
# ops or core API change that breaks it. This can.
bench-vet:
	cd bench && GOFLAGS=-buildvcs=false GOPROXY=off $(GO) vet ./...

# The benchmark module's own smoke test (a short run of every workload and
# the metric-name check against BENCHMARK.json, a few seconds): vet proves
# it compiles against the root packages, this proves it still runs on them.
bench-test:
	cd bench && GOFLAGS=-buildvcs=false GOPROXY=off $(GO) test -count=1 ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test order (seed printed on failure) so hidden
# inter-test state dependencies surface in CI instead of on laptops.
race:
	$(GO) test -race -shuffle=on ./...

# The durable-write pipeline's tests hand work between the event context,
# the flusher, HTTP goroutines and the flush leader, and the TCP node's
# Close comes from outside its event loop, and tcpnet's senders, heartbeat
# loop and Close all hand work to one writer goroutine per connection; one
# pass under -race proves little about a hand-off, so they get three more.
race-handoff:
	$(GO) test -race -count=3 -run 'TestSyncCoalesces|TestCrashOnFlushBoundary|TestCompactionRidesSync|TestNoDurabilityClaimAfterDeviceFault|TestNoAckWithoutDurableFrame|TestFailedVisitIsNotForwarded|TestOutputsWaitForSync|TestDeviceCallsStayOffTheEventContext|TestTerminalStateWaitsForItsRecord|TestSubmitRejectsUnrecordedOp|TestTCPNodeCloseWhileReceiving|TestPerSenderFIFO|TestBatchCoalescing|TestBatchSizeCapFlush|TestBackPressure|TestCloseFlushesPending|TestCloseReturnsWithBlockedPeer|TestSendRedialsStaleConn|TestSendFailureStartsReconnect|TestIdleSendIsNotTimed' \
		./internal/store ./internal/core ./internal/ops ./internal/tcpnet .

# Seeded fault-injection campaign against the simulated federation; see
# docs/TESTING.md. Override with e.g. `make chaos CHAOS_SEED=7`. Add
# CHAOS_FLAGS='-durable' to back nodes with crash-consistent disks and arm
# the durability invariant (docs/RECOVERY.md).
CHAOS_SEED ?= 1
CHAOS_STEPS ?= 100
CHAOS_FLAGS ?=
chaos:
	$(GO) run ./cmd/rbaysim chaos -seed $(CHAOS_SEED) -steps $(CHAOS_STEPS) $(CHAOS_FLAGS)

# Fast deterministic crash/restart-with-disk gate: disk-backed nodes must
# recover by WAL replay and re-federation under every fsync policy,
# including a torn commit record and a corrupt WAL tail.
chaos-restart-smoke:
	$(GO) test -short -count=1 \
		-run 'TestDurableRestartSmoke|TestCrashMidCommitLeaseReArmed|TestCorruptWALTailRestartRecovers' \
		./internal/chaos/

# Seeded root-replication/view gate: crashing a Scribe tree root must
# promote a leaf-set replica without a subtree re-join storm, and
# materialized views must converge to the tree-walk answer afterwards
# (docs/VIEWS.md).
chaos-replica-smoke:
	$(GO) test -short -count=1 \
		-run 'TestRootCrashReplicaPromotes|TestRootCrashCampaign|TestViewPropertyIncrementalMatchesScratch' \
		./internal/chaos/ ./internal/core/

# Churn-ingestion gate (part of `make ci`): bounded queue depth with sheds
# counted under a burst, zero WAL frames for unchanged re-posts, and
# batched ingest beating the per-Set path on frames per update
# (docs/INGEST.md).
churn-smoke:
	$(GO) test -short -count=1 -run 'TestChurnSmoke' .

# Async-gateway gate (part of `make ci`): a 50-seed crash campaign must
# leave zero orphaned reservations (every committed lease maps to a done
# commit op), a burst at 4x the per-tenant rate limit must shed with 429s
# while accepted-op latency stays bounded, and idempotency keys must
# dedupe concurrent and replayed submissions (docs/GATEWAY.md).
gateway-smoke:
	$(GO) test -short -count=1 \
		-run 'TestGatewayCrashSmoke|TestGatewayCrashCampaign' ./internal/chaos/
	$(GO) test -short -count=1 \
		-run 'TestGatewayBurstShed|TestGatewayQueueFullSheds|TestGatewayIdempotencyKey' ./internal/httpgw/
	$(GO) test -short -count=1 \
		-run 'TestIdempotencyKeyDedupesConcurrentSubmits|TestRestoreReplaysIncompleteOps' ./internal/ops/

# Churn pipeline benchmarks: apply throughput with frames/update and
# coalescing ratios, the per-Set baseline they're measured against, and
# staleness/backpressure behavior at 10x churn (docs/INGEST.md).
bench-churn:
	$(GO) test -bench 'BenchmarkChurn' -benchtime 1x -benchmem -run '^$$' .

# WAL codec and Sync-coalescing benchmarks: frame encoding, and fsyncs
# shared by 1/8/64 concurrent append+Sync callers (docs/RECOVERY.md).
bench-wal:
	$(GO) test -bench 'BenchmarkWAL' -benchtime 1000x -benchmem -run '^$$' .

# WAL frame decoder fuzzing: torn tails, bit flips, truncated length
# prefixes, and intact-but-undecodable frames must error — never panic or
# over-allocate. Override FUZZ_TIME for longer runs. fuzz-store-smoke is
# the short `make ci` leg; the tight minimize budget keeps
# interesting-input shrinking from eating the wall clock.
FUZZ_TIME ?= 30s
fuzz-store:
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime $(FUZZ_TIME) \
		-test.fuzzminimizetime=2s ./internal/store/

fuzz-store-smoke:
	$(MAKE) fuzz-store FUZZ_TIME=5s

# The other interpreters of untrusted input, 5 s each in `make ci`: query
# text (parse never panics and round-trips its canonical form), AA policy
# scripts (compile and run never panic or overrun the step budget), wire
# frames and values, and every registered Pastry, Scribe and core message
# (decode never panics; what decodes re-encodes to an equal value). A
# crasher goes under the package's testdata/fuzz/ with its fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s -test.fuzzminimizetime=2s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzCompileRun$$' -fuzztime 5s -test.fuzzminimizetime=2s ./internal/aal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s -test.fuzzminimizetime=2s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 5s -test.fuzzminimizetime=2s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzWireMessage$$' -fuzztime 5s -test.fuzzminimizetime=2s ./internal/core/

# The durable-write seam, layer by layer: what the event context pays per
# record (BenchmarkAppend: no device call, no allocation), the barrier
# (BenchmarkAppendSync, fsyncs/op) and the node's record → Sync → release
# round trip on a zero-delay disk (BenchmarkDurableAck).
bench-durable:
	$(GO) test -bench 'BenchmarkAppend|BenchmarkDurableAck' -benchtime 20000x -benchmem -run '^$$' ./internal/store ./internal/core

# The transport's rungs: an idle loopback round trip (what a message pays
# when nothing else is in flight) and saturating senders into one peer
# (writes/msg and msg/s: what batching under load buys).
bench-tcpnet:
	$(GO) test -bench 'BenchmarkLoopbackRTT|BenchmarkCoalescerThroughput' -benchtime 200000x -run '^$$' ./internal/tcpnet

# Hot-path benchmarks (probe, anycast, cross-site, parser, WAL append,
# churn apply, ops-engine submit), one cold iteration each. These rungs
# print; nothing gates on them — a perf claim is judged on `bench/`
# (BENCHMARK.json). BenchmarkOpsSubmit lives in ./internal/ops, so the
# target runs both packages.
BENCH_PATTERN ?= 'Query|Probe|Parse|Bootstrap|Replica|WALAppend|ChurnApply|OpsSubmit'
bench:
	$(GO) test -bench $(BENCH_PATTERN) -benchtime 1x -benchmem -run '^$$' . ./internal/ops/

bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Target-scale wire-codec scenario: 10k nodes / 1M resources with every
# simulated message round-tripped through the binary codec (scale_test.go).
bench-scale:
	RBAY_SCALE=1 $(GO) test -run TestScaleFederation10k -v -timeout 30m .
