#!/bin/sh
# ci.sh — the full gate, cheapest checks first so the common failures
# surface in seconds, not after the race-enabled test pass.
#
# The race-enabled test run covers the parallel sweep pool (cells fan out
# across goroutines; TestLoadSweepParallelDeterminism byte-compares serial
# against parallel tables, TestGoldenTablesAndCharts pins every table and
# chart of all six experiments at 1 and 8 workers) and the SWF streaming
# differentials (AnalyzeStream vs Analyze, traceinfo render-twice); every
# figure reproduction is smoked by the sweep_paper golden-digest leg below.
set -eux

# Formatting and static analysis: gofmt must be clean, vet runs under both
# tag sets (the debug-only assert files are code too), and simlint
# enforces the repo's determinism and scheduling contracts (six rules, R1,
# R2 and R4–R7, each matched at the call site; see ARCHITECTURE.md §6)
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

# The lint package's own suite (golden rule fixtures, repo self-check with
# the rule-admission check, JSON round-trip) under -race: the engine
# type-checks and runs rules across GOMAXPROCS workers.
go test -race -count=1 ./internal/lint

go test -race ./...

# Scheduler-core gate: the reference and incremental cores must stay
# byte-identical. The differential sweep tests (both cores at 1 and 8
# workers, fail on any table mismatch) rerun under -race with full
# invariant auditing, and the bench pass drives one Iterate per cell of
# BenchmarkIterate / BenchmarkIterateChurn.
go test -race -run 'SchedCoreDifferential' ./internal/experiments ./internal/coupled
go test -run=NONE -bench=Iterate -benchtime=1x ./internal/resmgr

# Protocol-resilience gate: the peer-link breaker/backoff machinery, the
# proto client/server/fault-injector, and the live chaos harness are the
# repo's most concurrency-heavy code (links are hammered from scheduler,
# probe, and status threads at once). -count=2 reruns them uncached so
# goroutine-interleaving flakes can't hide behind a cached pass.
go test -race -count=2 ./internal/proto ./internal/peerlink ./internal/live

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

# Paper-scale digest smoke: every table of all six experiments at -factor
# 1.0, one rep, seed 1, cells fanned across every core. Timings and file
# paths go to stderr, so stdout is the same bytes on every run and its
# SHA-256 is pinned; a change that moves any paper-scale number exits 1
# here (TestGoldenTablesAndCharts pins -factor 0.05 only). About a second.
test "$(go run ./cmd/experiments -exp all -factor 1.0 -reps 1 -seed 1 -parallel 0 2>/dev/null | sha256sum)" = \
    "d536ea11ead1607d4f11beb8b7f2851ee22a5d90ad6e83de17023e5a80e03464  -"

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
# the event logs; the drain test checks the SIGTERM peer notification.
# Real processes and real sockets make these the most timing-sensitive
# tests in the repo, so -count=2 under -race reruns them uncached.
go test -race -count=2 -run 'Crash|Drain|Flag' ./cmd/coschedd

# Journal fuzz smoke: ten seconds of coverage-guided torn-tail inputs
# against the WAL decoder, seeded from testdata/fuzz. The decoder must
# never panic and never return a record that fails its checksum or
# sequence check, whatever bytes a crash left behind.
go test -run '^$' -fuzz 'FuzzDecodeEntries' -fuzztime 10s ./internal/journal

# Frame-codec fuzz smoke: ten seconds of the differential target for the
# hand-written Request/Response codec. encoding/json defines the wire, so
# every payload must decode to what json.Unmarshal alone gives (same value,
# same error-ness) and every value must encode to json.Marshal's bytes.
go test -run '^$' -fuzz 'FuzzFrameCodec' -fuzztime 10s ./internal/proto

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
# ServeConn and one over the simulator's in-process conn, a
# journaled transition, an admin response through its codec and a driver
# wake-up must report 0 allocs/op). Throughput is NOT gated here: shared CI
# machines make wall-clock assertions flaky; bench/run.sh measures it.
go test -run 'ZeroAlloc|WithoutAllocating|AllocatesNothing' -count=1 \
    ./internal/sim ./internal/arena ./internal/backfill ./internal/workload \
    ./internal/resmgr ./internal/cluster \
    ./internal/journal ./internal/live ./internal/proto

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
