#!/bin/sh
# ci.sh — the full gate, cheapest checks first so the common failures
# surface in seconds, not after the race-enabled test pass.
#
# The race-enabled test run covers the parallel sweep pool (cells fan out
# across goroutines; TestLoadSweepParallelDeterminism byte-compares serial
# against parallel tables, TestGoldenTablesAndCharts pins every table and
# chart of all six experiments at 1 and 8 workers); every figure
# reproduction is smoked by the sweep_paper golden-digest leg below, and
# the paper-scale output is pinned byte for byte by results_full.txt.
set -eux

# Formatting and static analysis: gofmt must be clean, vet runs under both
# tag sets (the debug-only assert files are code too), and simlint
# enforces the repo's determinism and scheduling contracts (five rules, R1,
# R2 and R5–R7, each matched at the call site; see ARCHITECTURE.md §6)
# before anything slower runs — under both tag sets too, since the
# debug-only files are sim-pure code like any other. The untagged run is
# the -json one: it exits 1 on an active finding (naming it on stderr) and
# 2 if its own output does not re-parse, and leaves the findings
# inventory behind as a build artifact for run-to-run diffing.
test -z "$(gofmt -l .)"
go vet ./...
go vet -tags debug ./...
go build ./...
go run ./cmd/simlint -json ./... > /tmp/ci_simlint.json
go run ./cmd/simlint -tags debug ./...

# Every example program runs to a zero exit, so one that a change to an API
# it uses (a live.Config literal, a coupled.DomainConfig) breaks at run time
# fails here, not in a reader's terminal. About seven seconds, most of it
# liveprotocol's five virtual minutes at 60x.
for example in examples/*/; do
    go run "./$example" > /dev/null
done

# The lint package's own suite (golden rule fixtures, repo self-check with
# the rule-admission check, JSON round-trip, and the written-once guards
# TestPeerVocabularyWrittenOnce, TestPeerCallsOnlyInExchange,
# TestObserverFanOutWrittenOnce, TestAcceptLoopWrittenOnce and
# TestDomainBuiltOnce) under -race: the engine type-checks and runs rules
# across GOMAXPROCS workers.
go test -race -count=1 ./internal/lint

go test -race ./...

# Scheduler-core gate: the reference and incremental cores must stay
# byte-identical. The differential sweep tests (both cores at 1 and 8
# workers, fail on any table mismatch) rerun under -race with full
# invariant auditing, and the bench pass drives one Iterate per cell of
# BenchmarkIterate / BenchmarkIterateChurn, and one op of the job-index
# families BenchmarkProbeMate / BenchmarkExpect, so they keep running.
go test -race -run 'SchedCoreDifferential' ./internal/experiments ./internal/coupled
go test -run=NONE -bench='Iterate|ProbeMate|Expect' -benchtime=1x ./internal/resmgr

# Protocol-resilience gate: the peer-link breaker and retry machinery, the
# proto client/server/fault-injector, and the live chaos harness are the
# repo's most concurrency-heavy code (links are hammered from scheduler,
# probe, and status threads at once). -count=2 reruns them uncached so
# goroutine-interleaving flakes can't hide behind a cached pass. The live
# suite includes the deterministic daemon-pair tests: two daemons on one
# stepped clock whose peer requests park in a gate until the test delivers
# or fails them (TestLiveSymmetricDecisionStall, TestLiveLateTryIsRefused).
go test -race -count=2 ./internal/proto ./internal/peerlink ./internal/live

# Wake-up stress: a driver's run loop is nudged only when a call leaves an
# event before the instant the loop planned to wake at, or one already due
# (TestDriverWakesOnlyForEarlierEvents), and an idle loop sleeps until such a
# nudge, with no poll (TestIdleLoopSleeps). An admin submit or cancel fires
# its own due work before it answers, on its caller's goroutine
# (TestAdminSubmitDecidesBeforeReply, TestAdminCancelStartsFreedWork), and
# waits for the exchanges that work makes (TestAdminSubmitWaitsForItsExchanges).
# A lost wake-up shows as a stalled daemon, so these run twenty times under
# -race beside the stepped-clock pair tests, which park requests while both
# run loops sleep.
go test -race -count=20 -run 'DriverWakes|IdleLoop|DecidesBeforeReply|CancelStartsFreed|WaitsForItsExchanges|Stall|LateTry' ./internal/live

# Wire-equals-direct smoke: three seconds of the benchmark's sweep_wire
# workload at seed 1. Its output checks gate, on every CI run rather than
# only when someone benchmarks, that each cell simulated over proto frames
# digests equal to its direct-mode twin and that the seed-1 digest still
# equals bench/golden.json (a failed check exits 1). Throughput is printed,
# not gated.
sh bench/run.sh --workload sweep_wire --seed 1 --seconds 3 --trace 0

# Figure 3–10 digest smoke: three seconds of sweep_paper at seed 1 — the
# load and proportion sweeps through their public entry points, every table
# rendered. A scheduler change that moves any Figure 3–10 number changes the
# digest, stops it equalling bench/golden.json, and exits 1 here.
sh bench/run.sh --workload sweep_paper --seed 1 --seconds 3 --trace 0

# Paper-scale pin: every table of all six experiments at -factor 1.0,
# three reps, seed 1, cells fanned across every core, must equal
# results_full.txt byte for byte. Timings and file paths go to stderr, so
# stdout is the same bytes on every run at any -parallel; a change that
# moves a paper-scale number exits 1 here and shows the moved cells in its
# diff of results_full.txt (TestGoldenTablesAndCharts pins -factor 0.05
# only). About three seconds.
go run ./cmd/experiments -exp all -factor 1.0 -reps 3 -seed 1 -parallel 0 2>/dev/null |
    cmp - results_full.txt

# Journal-verification smoke: the paper-scale Intrepid/Eureka configuration
# journaled one directory per domain, then verified from those journals
# alone — the §V-B check a live pair gets from its daemons' journals, here
# on a simulated run. Under a second. The compaction rule those journals
# follow (a snapshot once the WAL since the last one outgrows it) is pinned
# in the race pass above by TestSnapshotBytesPerEntryDoNotGrowWithTheTable:
# snapshot bytes per appended entry with 1,000 and 100,000 jobs in the
# table stay within a factor of 2.
rm -rf /tmp/ci_journal
go run ./cmd/cosim -config configs/intrepid-eureka.json -journal /tmp/ci_journal > /dev/null
go run ./cmd/cosim -verify /tmp/ci_journal/*

# Problem-size digest smoke: three seconds (at least three rounds) of
# mega_cell at seed 1, so the third sweep golden digest — one HH cell at
# half a million Intrepid jobs — is gated on every run too. Its output
# checks fail on any stuck job or co-start violation, which makes it the
# memory architecture's (snapshot/arena/free-list) end-to-end smoke; peak
# RSS is a gated benchmark metric rather than a budget asserted here.
sh bench/run.sh --workload mega_cell --seed 1 --seconds 3 --trace 0

# Live-path smoke: three seconds of live_pairs at seed 1 — two daemons
# wired as coschedd wires them, pairs co-started over loopback TCP by an
# admin client, journals written. Its output checks fail on a pair whose
# halves start at different instants or after a failed peer call, and after
# every epoch reopen both journals cold → Replay → Restore →
# invariant.VerifyRecovery, which puts the admin and journal codecs (the
# bytes one run writes are the bytes the next reads) behind a gate on every
# CI run.
sh bench/run.sh --workload live_pairs --seed 1 --seconds 3 --trace 0

# Crash-recovery gate: the acceptance test SIGKILLs a live daemon
# mid-run, restarts it on the same journal, and verifies co-starts from
# the journals; the drain test checks the SIGTERM peer notification.
# Real processes and real sockets make these the most timing-sensitive
# tests in the repo, so -count=2 under -race reruns them uncached.
go test -race -count=2 -run 'Crash|Drain|Flag' ./cmd/coschedd

# Journal fuzz smoke: ten seconds of coverage-guided torn-tail inputs
# against the WAL decoder, seeded from testdata/fuzz. The decoder must
# never panic and never return a record that fails its checksum or
# sequence check, whatever bytes a crash left behind.
go test -run '^$' -fuzz 'FuzzDecodeEntries' -fuzztime 10s ./internal/journal

# Job-index fuzz smoke: ten seconds of put/get programmes against the
# manager's ID index (dense slice plus map) and a plain map as oracle, after
# adopting a trace numbered 1..n as SubmitTrace does, IDs inside that trace,
# near the dense window and anywhere in int64. Every answer must match the
# map's, the dense part must stay within 2n+1024 slots for n jobs, and the
# adopted trace must come out unchanged.
go test -run '^$' -fuzz 'FuzzJobIndex' -fuzztime 10s ./internal/resmgr

# Ordering fuzz smoke: ten seconds of shuffled, nearly sorted, rotated and
# reversed queues through the Orderer's restoring pass, under WFP,
# fair-share and FCFS, with demotion, escalation and yield boosts, a random
# fit and a random skip set (the jobs that yielded at the instant). The
# reduced order must equal a plain sort's minus the skipped and the
# unplannable jobs, and the queue it leaves the sort's permutation of every
# job, skipped ones included.
go test -run '^$' -fuzz 'FuzzOrderFitting' -fuzztime 10s ./internal/policy

# Scheduling-core fuzz smoke: ten seconds of small coupled cells drawn from
# the input bytes (any of the five policies, backfill mode, estimator, both
# schemes, release interval, held-fraction and max-yield thresholds, yield
# boost; at most 16 jobs a domain, numbered 1..n or not, so SubmitTrace's
# adopting and job-by-job paths both run), seeded from the eight
# schedCoreScenarios. The reference and incremental cores must render the
# same schedule, audited, and no instant may see a livelock's worth of
# holds, yields and releases. Each new input is minimized for at most 100
# runs: at the default (60 s) the first minimization of a 200-byte cell ate
# the whole ten seconds, leaving about a dozen runs, where 100 runs leave
# about 8 000.
go test -run '^$' -fuzz 'FuzzSchedCoreDifferential' -fuzztime 10s -fuzzminimizetime 100x ./internal/coupled

# Frame-codec fuzz smoke: ten seconds of the differential target for the
# hand-written Request/Response codec. encoding/json defines the wire, so
# every payload must decode to what json.Unmarshal alone gives (same value,
# same error-ness) and every value must encode to json.Marshal's bytes.
go test -run '^$' -fuzz 'FuzzFrameCodec' -fuzztime 10s ./internal/proto

# Frame-reader fuzz smoke: ten seconds of streams cut into fuzzer-sized
# frames (some past the reader's 4 KiB buffer) and served in fuzzer-sized
# reads. FrameReader.Next, which hands out a frame in place when it lies
# whole in its buffer, must return what a copy of every frame returns.
go test -run '^$' -fuzz 'FuzzFrameReader' -fuzztime 10s ./internal/proto

# The same differential contract for the other codecs built from
# internal/wirejson: the admin frames, the write-ahead entries and the
# snapshot file, ten seconds each, seeded from testdata/fuzz.
go test -run '^$' -fuzz 'FuzzAdminCodec' -fuzztime 10s ./internal/live
go test -run '^$' -fuzz 'FuzzEntryCodec' -fuzztime 10s ./internal/journal
go test -run '^$' -fuzz 'FuzzSnapshotCodec' -fuzztime 10s ./internal/journal

# Event-order fuzz smoke: ten seconds of the differential target for the
# engine's same-instant lane. Every programme of schedules (at now below, at
# and above what is pending; later), cancels, Every series, Step/RunUntil
# calls and NextTime/Pending probes must read the same on the engine as on
# the scan-for-the-minimum oracle kept in the test file.
go test -run '^$' -fuzz 'FuzzEngineOrder' -fuzztime 10s ./internal/sim

# Debug-build hardening: the backfill sortedness asserts and the
# invariant package's fail-fast deadlock monitor only compile under
# -tags debug; run their suites together with the asserts live. resmgr,
# coupled and experiments ride along because the planner's two production
# call sites are in resmgr.Manager: with the tag, assertReleasesSorted
# checks the release timeline of every plan those suites' sweeps make.
go test -tags debug ./internal/invariant ./internal/backfill \
    ./internal/resmgr ./internal/coupled ./internal/experiments

# Memory-architecture gate: the steady-state zero-alloc assertions (engine
# event churn, the EASY planner, the pool's slot table, the resource
# manager's submit → start → complete spine, a probe_mate round trip over
# ServeConn and one over the simulator's in-process conn, a start_mate
# carrying its co-start instant over both when the instant is already on
# the heap (TestStartMateAtRoundTripAllocatesNothing; through proto.Caller,
# the way resmgr calls, each TryStartMateAt/StartMateAt allocates once for
# its &at, pinned by TestCallerStartMateAtAllocatesOnce until ROADMAP item 0
# passes Request.At by value), a journaled transition, an
# admin response through its codec, a submit with mates decoded into its
# connection's scratch (TestAdminRequestCodecWithoutAllocating) and a driver
# wake-up must report 0 allocs/op; a daemon's /metrics collection and
# status snapshot allocate the same bytes beside 1 k and 100 k ended jobs
# (TestStatusReadWithoutAllocatingPerEndedJob); building a trace allocates
# per slab of jobs, not per job (TestGenerateWithoutAllocatingPerJob), and pairing per
# call, not per pair (TestPairNearestWithoutAllocatingPerPair,
# TestPairByWindowAndPairCountWithoutAllocatingPerPair); a domain registers
# a trace numbered 1..n, and a simulation counts its co-start violations,
# in the same bytes at 1 k and 100 k jobs
# (TestSubmitTraceWithoutAllocatingPerJob,
# TestCoStartCheckWithoutAllocatingPerJob)). Throughput is NOT
# gated here: shared CI machines make wall-clock assertions flaky;
# bench/run.sh measures it.
go test -run 'ZeroAlloc|WithoutAllocating|AllocatesNothing|AllocatesOnce' -count=1 \
    ./internal/sim ./internal/arena ./internal/backfill ./internal/workload \
    ./internal/resmgr ./internal/cluster ./internal/coupled \
    ./internal/journal ./internal/live ./internal/proto

# Peer-call benchmarks, one iteration each, so they keep compiling and
# running: a probe_mate round trip through the in-process conn against a
# resmgr.Manager, and the request and response parses inside it. Their
# timings are EXPERIMENTS.md's "What a wire call costs"; none is gated.
go test -run '^$' -bench . -benchtime 1x ./internal/proto

# Chaos-campaign gate: 25 deterministic fault-injection campaigns, seeds
# 1–25 as subtests, under -race and uncached, across both seams (journal VFS
# faults, asymmetric peer-link faults). Every campaign must pass its
# invariant gates — no stuck jobs, co-start violations within the calls
# the injectors failed, every surviving journal replayable, the
# clean-filesystem journal whole — and a failing seed prints the one-line
# `go test -run` repro. The last subtest flips one byte of that journal on
# purpose and passes only if the gate trips, proving a campaign can fail.
# The run is verbose into a log so the totals line, the faults the 25 seeds
# performed per seam and per kind, is echoed; on failure the whole log is.
go test -race -count=1 -v -run TestRunCampaign ./internal/faultplan > /tmp/ci_campaign.log ||
    { cat /tmp/ci_campaign.log; exit 1; }
grep 'injected fault totals' /tmp/ci_campaign.log
