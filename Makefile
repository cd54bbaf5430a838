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
# aggregated predicates". The fuzz smokes bound input minimisation as
# fuzz-smoke does.
faults-stress:
	$(GO) test -race -run 'TestFaultSweep|TestQueryDeadlineConfig|TestFailedStatementDoesNotPoisonReuse|TestLimitDoesNotCommit|TestPredicateKillPoints' .
	$(GO) test -race -run 'TestViewCrashRecovery|TestViewAppendRollback|TestViewChecksum|TestPredicate' ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzViewReplay -fuzztime=5s -fuzzminimizetime=3s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeDatum -fuzztime=5s -fuzzminimizetime=3s ./internal/types/

# differential runs the serial-vs-parallel harness under the race
# detector: every testdata script at Workers ∈ {0,1,2,8} (0 is the
# default, GOMAXPROCS workers) × BatchSize ∈ {1,7,256} must produce
# byte-identical results, reports and virtual
# time, and the pooled-batch lifecycle must byte-match unpooled
# execution at every worker count; and a restart must be invisible —
# every script with a Close + Open between every pair of statements
# matches the uninterrupted run statement by statement in rows,
# optimizer report, evaluations and virtual time. See DESIGN.md
# "Parallel execution", "Pooled batch lifecycle" and "Durable
# aggregated predicates". The generated sessions (eleven seeded
# exploratory sessions of 8 queries, one of 30) must be worker-invariant, answer the same
# in EVA, FunCache and no-reuse mode and in reverse order, and match
# through a lone Session. A NoREC oracle checks where selections are
# placed: each generated query without aggregate or LIMIT, its id
# window written in every comparison shape, keeps as many rows as the
# unfiltered form has rows on which its predicate is TRUE. Every root
# matrix shares one harness, matrix_test.go (DESIGN.md "Invariance
# matrices").
differential:
	$(GO) test -race -run 'TestDifferentialMatrix|TestPoolingDifferential|TestReopenDifferential|TestGeneratedSessions|TestSelectionPlacementNoREC' .

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
# a lone Session). A reopened system's first touches: sessions and the
# root statement reaching the same views at once replay each view log
# once and answer as their solo runs, Close waits for a view being
# opened, a query over open views does not wait for another statement's
# replay, the UDF manager and the storage engine open outside their
# locks, and a loss of rows before or after a first sight's install cuts
# the predicate once. See DESIGN.md "Multi-session serving layer" and "Durable
# aggregated predicates".
server-stress:
	$(GO) test -race -run 'TestMultiSessionChaosMatrix|TestSharedViewSingleflight|TestMisalignedSessionsSharedView|TestAdmissionOverloadTyped|TestAdmissionQueueTimeoutTyped|TestSessionExplainAnalyze|TestMemoryBudgetTyped|TestCloseDrainsInFlight|TestCrossSessionReuseDeterminism|TestConcurrentFirstTouchReplaysOnce|TestPlanningDoesNotWaitForAReplay' .
	$(GO) test -race ./internal/server/
	$(GO) test -race -run 'TestConcurrentOpensShareOneReplay|TestCloseWaitsForOpenInFlight' ./internal/storage/
	$(GO) test -race -run 'TestLoadRunsOutsideTheLock|TestLossOfRowsMeetsFirstSight|TestManagerConcurrent' ./internal/udf/

# ingest-chaos runs the streaming-ingestion kill-point matrix under
# the race detector: every standing-query script under
# testdata/standing × 18 seeded kill-points (a crash at the k-th live
# append, checkpoint write or alert notification) × Workers ∈ {1,2,8};
# every killed-and-resumed run must byte-match the uninterrupted
# baseline's standing-query state (exactly-once replay from the
# checkpoint), and each cell's fault schedule must be identical across
# worker counts. Also runs, under the race detector, the checks that a
# standing query's delta is a session statement (Close drains it, it
# takes an admission token, it is merged into the global clock, its
# boundary runs the scrub pass its virtual time makes due, it is
# planned in the System's mode), that a watermark append's retry
# backoff goes to the stream's clock, not the System's, and the
# ingest unit suite (checkpoint log fuzz, backpressure ordering,
# goroutine-leak). See DESIGN.md "Streaming ingestion".
ingest-chaos:
	$(GO) test -race -run 'TestIngestChaos|TestStreamSession|TestRetryCharges' .
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
# Algorithm 1 reducer against its truth-table oracle, the symbolic
# algebra's merge walks against the definitions they replaced (interval
# intersection ≡ the normalized pairwise intersections, complement ≡ the
# normalized gaps, every categorical set operation ≡ a map model, on
# points, touching open and closed endpoints, ±Inf, and empty, full and
# negated sets), the bound
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
# records cost the snapshot, never the open); and the frame scanner
# under every durable log (no panic, holes ascending and disjoint inside
# the valid prefix, every record re-seals to its own bytes, the accepted
# prefix is a fixed point); and the table record beside a video's
# segments (no panic; the dataset descriptor and the optimizer
# statistics it holds are accepted only as their encoders write them);
# and the view probe against a naive oracle, a
# map from encoded key to processed flag and row ids (exactly its hits,
# (chunk, row) pairs and hashes after appends from interleaved writers
# past the fold bound, zero-row keys of (id) and (bbox, id) views,
# replay, eviction, compaction and salvage, on chunks of a few rows; and
# dense batches of the (id) view, through the covered step when it holds
# every id — folded runs and zero-row keys among them — and the merge
# when one is missing); and the key index a clean close writes beside a
# view log (arbitrary bodies, sealed, never panic or fail the open, and
# one that installs leaves the rows, predicate and quarantine of a staged
# replay, runs and keys that tile the rows, and every row's key found);
# and the one set of frame ids, types.IDSet, against a map oracle over
# ids 0..63 (its count, its ranges sorted, disjoint and non-adjacent,
# and Covers on every range).
#
# Every -fuzz line bounds input minimisation with -fuzzminimizetime: by
# default the engine may spend up to a minute shrinking each new
# interesting input, and while it does the exec count stands still, which
# reads as a hung target (FuzzMergeMatchesProbe's stood still from 9 s
# on in a 40 s run). Three seconds keeps a smoke run fuzzing.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReduce -fuzztime=5s -fuzzminimizetime=3s ./internal/symbolic/
	$(GO) test -run=^$$ -fuzz=FuzzDNFCodec -fuzztime=5s -fuzzminimizetime=3s ./internal/symbolic/
	$(GO) test -run=^$$ -fuzz=FuzzMergeWalks -fuzztime=5s -fuzzminimizetime=3s ./internal/symbolic/
	$(GO) test -run=^$$ -fuzz=FuzzViewReplay -fuzztime=5s -fuzzminimizetime=3s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzFrameScan -fuzztime=5s -fuzzminimizetime=3s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzTableRecord -fuzztime=5s -fuzzminimizetime=3s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeStats -fuzztime=5s -fuzzminimizetime=3s ./internal/catalog/
	$(GO) test -run=^$$ -fuzz=FuzzMergeMatchesProbe -fuzztime=5s -fuzzminimizetime=3s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzKeyIndex -fuzztime=5s -fuzzminimizetime=3s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzProgramMatchesEval -fuzztime=5s -fuzzminimizetime=3s ./internal/expr/
	$(GO) test -run=^$$ -fuzz=FuzzSiteMatch -fuzztime=5s -fuzzminimizetime=3s ./internal/faults/
	$(GO) test -run=^$$ -fuzz=FuzzBatchPoolLifecycle -fuzztime=5s -fuzzminimizetime=3s ./internal/types/
	$(GO) test -run=^$$ -fuzz=FuzzIDSet -fuzztime=5s -fuzzminimizetime=3s ./internal/types/
	$(GO) test -run=^$$ -fuzz=FuzzFormatBBox -fuzztime=5s -fuzzminimizetime=3s ./internal/vision/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFrame -fuzztime=5s -fuzzminimizetime=3s ./internal/vision/

# alloc is the allocation-regression gate on the pooled hot path
# (DESIGN.md "Pooled batch lifecycle", "Batch UDF evaluation"): the
# warm view-served scan→filter→apply pipeline must stay at ~0
# allocs/row and the evaluate path (no reuse, a detector and a
# classifier on every row) at one per detector output row — its bbox
# string — each measured as a marginal between two scan lengths, and
# the committed BENCH_alloc.json baseline must satisfy the same gates
# with all pooled/unpooled matrix digests identical; and the datum every
# one of those rows is made of must stay three words (DESIGN.md
# "Resident view layout"); and planning any VBENCH-HIGH query on a warm
# system (EXPLAIN: parse, symbolic analysis, costing) must stay under
# its allocation bound; and the covered probe step of a detector's view
# plus the id-interval demand record of the batch it serves must
# allocate nothing per batch; and running a VBENCH-HIGH query again on a
# warm system must stay under its byte bound, its operators' scratch
# drawn from the statements before it (DESIGN.md "Pooled batch
# lifecycle"); and loading a table on a directory that holds it must
# read its statistics back, not sample the dataset (DESIGN.md §20
# "Table record"). Runs without -race: the race detector perturbs
# allocation counts (the tests skip themselves).
alloc:
	$(GO) test -run 'TestWarmPathAllocsPerRow|TestEvalPathAllocsPerRow|TestAllocBaselineCommitted|TestPlanningAllocs|TestCoveredProbeAllocs|TestWarmStatementScratch|TestLoadDatasetReadsStatsBack' .
	$(GO) test -run TestDatumLayout ./internal/types/

# scrub runs the self-healing view storage matrix under the race
# detector: every view-building testdata script × corruption sites
# (header, mid-record, tail, and garbage where older versions kept side
# files beside a log, which must produce no finding and be gone after
# the reopen) × Workers ∈ {1,2,8} must scrub, symbolically repair and
# re-converge to the byte-identical uncorrupted digests; crash
# kill-points during repair, re-append and
# compaction commit must leave the view recoverable; a view reopened
# with a salvaged hole must shrink the aggregated predicate persisted
# in its log before it is first served; Session-only statements must
# run the scrub passes their virtual time makes due, and a boundary
# that would wait for a running statement degrades the pass instead;
# plus the storage layer's Verify/cadence/salvage/compaction unit
# suite. See DESIGN.md "Self-healing view storage".
scrub:
	$(GO) test -race -run 'TestScrubCorruptionMatrix|TestRepairCrashKillPoints|TestRepairRecomputesInteriorHole|TestBackgroundScrubberHeals|TestSessionStatementsDriveScrubber|TestScrubDegradesAtBoundary|TestQuarantineMeetsLoadedPredicate' .
	$(GO) test -race -run 'TestVerify|TestScrubber|TestSalvage|TestCompact' ./internal/storage/

# evict runs the disk-pressure survival matrix under the race
# detector: view-building testdata scripts × storage-budget levels ×
# injected ENOSPC schedules × Workers ∈ {1,2,8} must answer
# baseline-identical rows and leave each view one file; Session-only
# statements must run the eviction passes their virtual time makes due;
# the one retry loop must charge a disk-full backoff to the clock of the
# write's caller — a client Session statement's, a stream's — and
# nowhere else; plus the storage layer's budget/eviction/log-retention unit suite (an
# eviction's two kill-points and failed commit rename, evict-retry,
# tail-log truncation, the TailLog write-protocol matrix, scratch-file
# cleanup at open) and the checkpoint retention tests. See DESIGN.md
# "Disk-pressure survival".
evict:
	$(GO) test -race -run 'TestEvictChaosMatrix|TestSessionStatementsDriveEvictor|TestRetryCharges' .
	$(GO) test -race -run 'TestEvict|TestDiskBudget|TestDiskFull|TestReclaim|TestBudgetDenial|TestWatermarkLogRetention|TestOpenTailLog|TestTailLog|TestOpenRemovesScratch' ./internal/storage/
	$(GO) test -race -run TestCheckpoint ./internal/ingest/

# pool-safety runs the BatchPool's ownership test suite with poison
# mode compiled in (-tags evadebug): typed double-Put panics, poisoned
# use-after-Put reads, the 8-goroutine stress under the race detector,
# and the whole engine suite with every recycled batch poisoned; and the
# statement-scratch hand-off between two sessions and the root — failed
# and LIMIT-cut statements among them — under the race detector with
# poisoning on (DESIGN.md "Pooled batch lifecycle").
pool-safety:
	$(GO) test -race ./internal/types/
	$(GO) test -tags evadebug ./internal/types/ ./internal/exec/ .
	$(GO) test -race -tags evadebug -run 'TestStatementScratchAcrossSessions|TestRunHandsBackClearedScratch' . ./internal/exec/

# unsafe-confined fails if any non-test file other than
# internal/types/datum.go (the 24-byte Datum; DESIGN.md "Resident view
# layout") or bench/ imports unsafe. That one file is covered by the
# checkers that exist for it: go vet's unsafeptr pass and, in every
# -race run of check, the compiler's checkptr instrumentation.
unsafe-confined:
	@found=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' \
		! -path './internal/types/datum.go' | xargs grep -lE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"unsafe"[[:space:]]*$$'); \
	if [ -n "$$found" ]; then echo "unsafe imported outside internal/types/datum.go:"; echo "$$found"; exit 1; fi

# baselines checks the committed BENCH_*.json files that run entirely
# on the virtual clock — chaos, evict, scrub: the same bytes on any
# machine. The root package's TestCommittedBaselines rebuilds each from
# its matrix (workloads in testdata/baselines) and fails on the first
# line that differs from the committed file; after an intended change,
# `go test -run TestCommittedBaselines . -update` rewrites them. The
# other four (alloc, server, ingest, parallel) carry wall-clock or
# allocation-count cells and are written by `vbench -exp NAME -json
# PATH`; TestAllocBaselineCommitted gates BENCH_alloc.json.
baselines:
	$(GO) test -run TestCommittedBaselines .

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
# suite, unsafe confined to one file, a clean build, the whole test
# suite under the race detector once, the coverage floor, the
# allocation gate (without -race), the pool-safety suite (-tags
# evadebug) and the fuzz smokes, plus the datum decoder's fuzz smoke.
# The race run already runs every test the focused targets name
# (differential, chaos, server-stress, ingest-chaos, scrub, evict,
# baselines, faults-stress): calling them here would run those matrices
# a second time, for a different -run misses the test cache. They stay
# for focused runs and for the CI jobs that call them.
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/evalint ./...
	$(MAKE) unsafe-confined
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) cover
	$(MAKE) alloc
	$(MAKE) pool-safety
	$(MAKE) fuzz-smoke
	$(GO) test -run=^$$ -fuzz=FuzzDecodeDatum -fuzztime=5s -fuzzminimizetime=3s ./internal/types/
