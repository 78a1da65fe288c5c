GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build vet lint test race loc bench distserve-smoke fault-smoke corpus-smoke coord-smoke obs-smoke fuzz

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Install the pinned tool with:
#   go install honnef.co/go/tools/cmd/staticcheck@2024.1.1
lint:
	$(STATICCHECK) ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-critical packages: the walk-while-ingest
# engine, the core sampler it wraps, the live service, the wire fabric
# (batched senders + multi-session listener), and the lock-free metrics
# core every one of them records into.
race:
	$(GO) test -race -timeout 20m ./internal/concurrent/ ./internal/core/ ./internal/walk/ ./internal/fabric/tcpgob/ ./internal/obs/

# Non-test Go lines outside the repository benchmark — the one number
# simplicity PRs quote before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Multi-process serving smoke: spawns shard daemons (real bingowalk
# -shard-serve processes) on loopback, drives queries plus a
# growth-inducing feed through the ServeRemote coordinator, and checks a
# ≥1e5-draw chi-square over the served distribution plus edge-for-edge
# equality against a sequential replay.
distserve-smoke:
	$(GO) test -run TestDistServeLoopbackDifferential -count 1 -v .

# Fault-injection smoke: the failover differentials — the in-process
# chaos-fabric kill/restart (race-detected), the credit-window bound
# against a slow shard, the transport's dial/accept hardening
# regressions, and the real kill -9 of a shard daemon mid-tape with
# chi-square + edge-for-edge validation after the rejoin.
fault-smoke:
	$(GO) test -race -count 1 -run 'TestFailoverKillRestartDifferential|TestCreditWindowBoundsSlowShard' ./internal/walk/
	$(GO) test -race -count 1 -run 'TestDialFindsLateDaemon|TestAcceptLoopSurvivesGarbageClients' ./internal/fabric/tcpgob/
	$(GO) test -race -count 1 -timeout 20m -run TestFaultKillDaemonMidTape -v .

# Standing-corpus smoke: the chi-square differential of the maintained
# corpus against fresh walks on the final graph after an 8k hub-churn
# tape (in-process fabric AND loopback tcpgob), the inverted-index
# brute-force property, and the touch-queue coalescing/credit regression
# — all race-detected.
corpus-smoke:
	$(GO) test -race -count 1 -timeout 20m -run 'TestCorpusDifferential|TestCorpusIndexMatchesBruteForce|TestCorpusCoalescingCredit' -v ./internal/walk/

# Multi-coordinator smoke: the reader-tier differentials — two read-
# coordinators querying while concurrent writers feed a hub-skewed tape
# (in-process fabric AND loopback tcpgob, chi-square + edge-for-edge),
# reader crash isolation, plan-epoch broadcast invalidation on a
# replicated session's dead-mask flip — plus the real-process variant:
# bingowalk -shard-serve daemons, a ServeRemote write session, and
# bingo.AttachReader readers over loopback.
coord-smoke:
	$(GO) test -race -count 1 -timeout 20m -run 'TestMultiCoord|TestReaderCrash|TestPlanEpochBroadcast' -v ./internal/walk/
	$(GO) test -race -count 1 -timeout 20m -run TestCoordScaleRealProcess -v .

# Observability smoke: real -shard-serve daemons each serving a
# -debug-addr plane, a ServeRemote write session with its own, one
# feed-and-query pass — then scrape /metrics, /statusz, and /eventz on
# every plane and assert the promised metric families, including the
# shard-labeled node tallies the coordinator aggregates over the fabric.
# The kernel overhead budget and failover journal-ordering tests ride
# along.
obs-smoke:
	$(GO) test -count 1 -run TestObsSmoke -v .
	$(GO) test -count 1 -run 'TestKernelObsOverheadBudget|TestJournalFailoverOrdering|TestMetricsScrapeUnderLoad' -v ./internal/walk/

# Short local fuzz sessions: the sampler's structural invariants, the
# batch reorder against a stable reference sort, then the wire codec's
# decoder (no panic, bounded allocation, canonical form).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSamplerMutate -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSortUpdatesBySrc -fuzztime 30s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/fabric/tcpgob/
