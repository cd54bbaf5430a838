GO ?= go

.PHONY: build test race lint check bench faults-stress differential chaos server-stress ingest-chaos cover fuzz-smoke alloc pool-safety scrub evict loc unsafe-confined baselines

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the project-specific static-analysis suite (exhaustive
# switches over sealed types, guarded-by locking, panic-free query
# path, error discipline). See DESIGN.md "Static analysis & invariants".
lint:
	$(GO) run ./cmd/evalint ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# faults-stress exercises the resilience machinery: the 24-seed fault
# sweep, the statement-level kill-point sweep over every view-log write
# up to and including the aggregated-predicate snapshots (a failed or
# killed statement promises nothing: the rerun stores what the
# uninterrupted run stores and the run after it evaluates nothing) and
# the storage crash-recovery kill-point matrix under the race
# detector, then short fuzz smokes over the view-log replay and datum
# decoders. See DESIGN.md "Failure model & resilience" and "Durable
# aggregated predicates".
faults-stress:
	$(GO) test -race -run 'TestFaultSweep|TestQueryDeadlineConfig|TestFailedStatementDoesNotPoisonReuse|TestLimitDoesNotCommit|TestPredicateKillPoints' .
	$(GO) test -race -run 'TestViewCrashRecovery|TestViewAppendRollback|TestViewChecksum|TestPredicate' ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzViewReplay -fuzztime=5s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeDatum -fuzztime=5s ./internal/types/

# differential runs the serial-vs-parallel harness under the race
# detector: every testdata script at Workers ∈ {1,2,8} × BatchSize ∈
# {1,7,256} must produce byte-identical results, reports and virtual
# time, and the pooled-batch lifecycle must byte-match unpooled
# execution at every worker count; and a restart must be invisible —
# every script with a Close + Open between every pair of statements
# matches the uninterrupted run statement by statement in rows,
# optimizer report, evaluations and virtual time. See DESIGN.md
# "Parallel execution", "Pooled batch lifecycle" and "Durable
# aggregated predicates".
differential:
	$(GO) test -race -run 'TestDifferentialMatrix|TestPoolingDifferential|TestReopenDifferential' .

# chaos runs the fault-injected differential matrix under the race
# detector: every testdata script × 24 seeded fault schedules (four
# regimes) × Workers ∈ {1,2,8} must produce byte-identical digests —
# results, error texts, reports, views, fault event logs and virtual
# time — plus the FunCache parallel differential and fault smoke.
# See DESIGN.md "Failure model & resilience".
chaos:
	$(GO) test -race -run 'TestChaosDifferentialMatrix|TestFunCacheParallelDifferential|TestFunCacheFaultSmoke|TestChaosPoolingDifferential|TestFunCachePoolingDifferential' .

# server-stress runs the serving layer's verification under the race
# detector: the multi-session chaos matrix (every testdata script ×
# seeded fault regimes × Workers ∈ {1,2,8}, N concurrent sessions each
# byte-matching its solo run), the shared-view singleflight race (with
# aligned and with misaligned scan batches), the typed admission/budget
# error paths, EXPLAIN ANALYZE in a session, draining Close, and
# cross-session reuse determinism (every testdata script: System.Exec ≡
# a lone Session). See DESIGN.md "Multi-session serving layer".
server-stress:
	$(GO) test -race -run 'TestMultiSessionChaosMatrix|TestSharedViewSingleflight|TestMisalignedSessionsSharedView|TestAdmissionOverloadTyped|TestAdmissionQueueTimeoutTyped|TestSessionExplainAnalyze|TestMemoryBudgetTyped|TestCloseDrainsInFlight|TestCrossSessionReuseDeterminism' .
	$(GO) test -race ./internal/server/

# ingest-chaos runs the streaming-ingestion kill-point matrix under
# the race detector: every standing-query script under
# testdata/standing × 18 seeded kill-points (a crash at the k-th live
# append, checkpoint write or alert notification) × Workers ∈ {1,2,8};
# every killed-and-resumed run must byte-match the uninterrupted
# baseline's standing-query state (exactly-once replay from the
# checkpoint), and each cell's fault schedule must be identical across
# worker counts. Also runs the ingest unit suite (checkpoint log fuzz,
# backpressure ordering, goroutine-leak) under the race detector.
# See DESIGN.md "Streaming ingestion".
ingest-chaos:
	$(GO) test -race -run TestIngestChaos .
	$(GO) test -race ./internal/ingest/

# cover enforces a coverage floor on the packages at the heart of the
# correctness argument: the executor (parallel merge, pipelining,
# view maintenance), the symbolic algebra (Algorithm 1), and the
# static-analysis suite that machine-checks the engine's invariants.
COVER_FLOOR ?= 85
cover:
	@for pkg in ./internal/exec ./internal/symbolic ./internal/lint; do \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage for $$pkg: $$out"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "coverage $$pct% of $$pkg below floor $(COVER_FLOOR)%"; exit 1; fi; \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
	done

# fuzz-smoke gives the property-based targets a short budget: the
# Algorithm 1 reducer against its truth-table oracle, the bound
# column-at-a-time expression programs against the row-at-a-time
# reference evaluator (rows, values, error and call sequence), the
# fault injector's site matcher against an independent reference, the
# batch-pool lifecycle against a non-pooled oracle (with poisoning
# on, so use-after-Put aliasing trips immediately), the fixed-point
# bbox formatter against fmt's %.4f on arbitrary bit patterns, the
# memoising frame decoder against the one-shot decoder on truncated
# and bit-flipped payloads, and the two halves of a durable aggregated
# predicate: its codec (decode∘encode is the identity, arbitrary bytes
# cost bounded memory and at worst an error) and the view-log replay
# that carries it (torn, flipped, repeated or misplaced snapshot
# records cost the snapshot, never the open); and the two
# last-record-wins replays behind streaming ingest, the watermark log
# and the standing-query checkpoint log (valid prefix in range, replay
# of the accepted prefix is a fixed point, a regressing watermark is an
# error).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReduce -fuzztime=5s ./internal/symbolic/
	$(GO) test -run=^$$ -fuzz=FuzzDNFCodec -fuzztime=5s ./internal/symbolic/
	$(GO) test -run=^$$ -fuzz=FuzzViewReplay -fuzztime=5s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzWatermarkReplay -fuzztime=5s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointReplay -fuzztime=5s ./internal/ingest/
	$(GO) test -run=^$$ -fuzz=FuzzProgramMatchesEval -fuzztime=5s ./internal/expr/
	$(GO) test -run=^$$ -fuzz=FuzzSiteMatch -fuzztime=5s ./internal/faults/
	$(GO) test -run=^$$ -fuzz=FuzzBatchPoolLifecycle -fuzztime=5s ./internal/types/
	$(GO) test -run=^$$ -fuzz=FuzzFormatBBox -fuzztime=5s ./internal/vision/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/vision/

# alloc is the allocation-regression gate on the pooled hot path
# (DESIGN.md "Pooled batch lifecycle", "Batch UDF evaluation"): the
# warm view-served scan→filter→apply pipeline must stay at ~0
# allocs/row and the evaluate path (no reuse, a detector and a
# classifier on every row) at one per detector output row — its bbox
# string — each measured as a marginal between two scan lengths, and
# the committed BENCH_alloc.json baseline must satisfy the same gates
# with all pooled/unpooled matrix digests identical; and the datum every
# one of those rows is made of must stay three words (DESIGN.md
# "Resident view layout"). Runs without -race: the race detector
# perturbs allocation counts (the tests skip themselves).
alloc:
	$(GO) test -run 'TestWarmPathAllocsPerRow|TestEvalPathAllocsPerRow|TestAllocBaselineCommitted' .
	$(GO) test -run TestDatumLayout ./internal/types/

# scrub runs the self-healing view storage matrix under the race
# detector: every view-building testdata script × corruption sites
# (header, mid-record, tail, clean-sidecar) × Workers ∈ {1,2,8} must
# scrub, symbolically repair and re-converge to the byte-identical
# uncorrupted digests; crash kill-points during repair, re-append and
# compaction commit must leave the view recoverable; a view reopened
# with a salvaged hole must shrink the aggregated predicate persisted
# beside it before it is first served; Session-only statements must
# drive the background scrubber; plus the storage layer's
# Verify/Scrubber/salvage/compaction unit suite. See DESIGN.md
# "Self-healing view storage".
scrub:
	$(GO) test -race -run 'TestScrubCorruptionMatrix|TestRepairCrashKillPoints|TestRepairRecomputesInteriorHole|TestBackgroundScrubberHeals|TestSessionStatementsDriveScrubber|TestQuarantineMeetsLoadedPredicate' .
	$(GO) test -race -run 'TestVerify|TestScrubber|TestSalvage|TestCompact' ./internal/storage/

# evict runs the disk-pressure survival matrix under the race
# detector: view-building testdata scripts × storage-budget levels ×
# injected ENOSPC schedules × Workers ∈ {1,2,8} must answer
# baseline-identical rows with no surviving tombstones; Session-only
# statements must drive the background evictor; plus the
# storage layer's budget/eviction/log-retention unit suite (kill-point
# sweep, evict-retry, tail-log truncation, the TailLog write-protocol
# matrix, scratch-file cleanup at open) and the checkpoint
# retention tests. See DESIGN.md "Disk-pressure survival".
evict:
	$(GO) test -race -run 'TestEvictChaosMatrix|TestSessionStatementsDriveEvictor' .
	$(GO) test -race -run 'TestEvict|TestDiskBudget|TestDiskFull|TestReclaim|TestBudgetDenial|TestWatermarkLogRetention|TestOpenTailLog|TestTailLog|TestOpenRemovesScratch' ./internal/storage/
	$(GO) test -race -run TestCheckpoint ./internal/ingest/

# pool-safety runs the BatchPool's ownership test suite with poison
# mode compiled in (-tags evadebug): typed double-Put panics, poisoned
# use-after-Put reads, the 8-goroutine stress under the race detector,
# and the whole engine suite with every recycled batch poisoned.
pool-safety:
	$(GO) test -race ./internal/types/
	$(GO) test -tags evadebug ./internal/types/ ./internal/exec/ .

# unsafe-confined fails if any non-test file other than
# internal/types/datum.go (the 24-byte Datum; DESIGN.md "Resident view
# layout") or bench/ imports unsafe. That one file is covered by the
# checkers that exist for it: go vet's unsafeptr pass and, in every
# -race run of check, the compiler's checkptr instrumentation.
unsafe-confined:
	@found=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' \
		! -path './internal/types/datum.go' | xargs grep -lE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"unsafe"[[:space:]]*$$'); \
	if [ -n "$$found" ]; then echo "unsafe imported outside internal/types/datum.go:"; echo "$$found"; exit 1; fi

# baselines regenerates the committed BENCH_*.json files that run
# entirely on the virtual clock — chaos, evict, scrub: the same bytes on
# any machine — through `vbench -exp NAME -json PATH` and fails unless
# each is byte-identical to the committed one. The other four (alloc,
# server, ingest, parallel) carry wall-clock or allocation-count cells;
# TestAllocBaselineCommitted gates BENCH_alloc.json.
baselines:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/vbench" ./cmd/vbench && \
	for x in chaos evict scrub; do \
		"$$tmp/vbench" -exp $$x -json "$$tmp/$$x.json" >/dev/null && \
		cmp "$$tmp/$$x.json" BENCH_$$x.json || exit 1; \
	done; echo "baselines: BENCH_chaos.json BENCH_evict.json BENCH_scrub.json regenerate byte-identical"

# loc prints the "least code" needle (ROADMAP north star): Go lines
# outside tests, bench/ and the lint fixtures, per package and in
# total. "code" leaves out blank lines and // comment lines, so a PR
# that only deletes comments does not move it.
loc:
	@printf '%-28s %7s %7s\n' package lines code
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path './internal/lint/testdata/*' ! -path './.git/*' | sort | \
	awk '{ pkg = $$0; sub(/^\.\//, "", pkg); \
		if (!sub(/\/[^\/]*$$/, "", pkg)) pkg = "."; \
		while ((getline line < $$0) > 0) { \
			lines[pkg]++; \
			if (line !~ /^[ \t]*($$|\/\/)/) code[pkg]++ } \
		close($$0) } \
	END { for (p in lines) { printf "%-28s %7d %7d\n", p, lines[p], code[p] | "sort"; \
			tl += lines[p]; tc += code[p] } \
		close("sort"); printf "%-28s %7d %7d\n", "total", tl, tc }'

# check is the full verification gate: formatting, vet, the evalint
# suite, unsafe confined to one file, a clean build, the test suite under the race detector, the
# serial-vs-parallel differential matrix, the chaos differential
# matrix, the multi-session serving-layer stress, the streaming
# ingest kill-point matrix, the self-healing scrub matrix, the
# disk-pressure evict matrix, the coverage floor, the
# fault-injection stress pass, the allocation
# gate, the deterministic JSON baselines, the pool-safety suite and the
# fuzz smokes.
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/evalint ./...
	$(MAKE) unsafe-confined
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) differential
	$(MAKE) chaos
	$(MAKE) server-stress
	$(MAKE) ingest-chaos
	$(MAKE) scrub
	$(MAKE) evict
	$(MAKE) cover
	$(MAKE) faults-stress
	$(MAKE) alloc
	$(MAKE) baselines
	$(MAKE) pool-safety
	$(MAKE) fuzz-smoke
