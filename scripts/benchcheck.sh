#!/bin/sh
# benchcheck: gate the data plane, then record its perf trajectory.
#
# Order matters: blobvet, vet, the -race suites, and the WAL fuzz battery
# must pass before the numbers are worth recording — a racy dispatcher or
# a log format that breaks crash replay produces fast garbage. blobvet
# runs FIRST: it enforces the dispatch.go concurrency contract, the
# single WAL append path, virtual-time determinism, errors.Is sentinel
# discipline, and stripe-lock pairing (see internal/lint/README.md), and
# numbers measured on a tree that violates those contracts are worthless
# however fast. The race scope covers the packages the goroutine fan-out
# touches — the blob data plane, the sharded WAL lanes it appends to, the
# virtual-time substrate it folds costs into, plus the remaining
# concurrent packages (core, storage, kvstore) so the analyzers' static
# guarantees and the dynamic race detector cover the same tree, plus
# every front-end the conformance matrix registers (fstest, blobfs,
# posixfs, relaxedfs, mpiio, h5, adios, s3gw, sparksim) so the converged
# surface runs under the detector too;
# -shuffle=on randomizes test order so accidental
# inter-test state dependencies cannot hide a regression. Each wal,
# blob, and fstest fuzz target then runs for a short fixed budget —
# FuzzReplayMerged covers lane interleavings, per-lane torn tails, and
# checkpoint-then-append resets on top of the single-stream battery, the
# blob-side FuzzRecoverParallel pits the parallel lane-decode recovery
# pipeline against the serial oracle on fuzzed workloads and tears, and
# fstest's FuzzFSOps replays randomized op scripts differentially against
# the posixfs reference over every registered backend — so framing,
# merge, replay, recovery-equivalence, or front-end-semantics regressions
# are caught here, not in a later crash.
#
# The -race suite includes the full seeded chaos battery (TestChaosBattery:
# 200 fault schedules of crash/tear/flap/transient-error under concurrent
# 2PC load) plus the SetDown flap race test, and the fuzz loop picks up the
# wal FaultMedium schedule fuzzer (FuzzFaultSchedule) alongside the replay
# batteries, so failure-domain regressions fail here before any number is
# recorded.
#
# Between the -race suite and the fuzz loop, the checkpoint tests, the
# crash-point and recovery-equivalence sweeps, the migration checkpoint
# test and the sim clock's concurrent-merge test run 20 times at each of
# 1, 2 and 4 CPUs: their bugs depend on how goroutines are scheduled
# (checkpoint lane jobs, concurrent clock joins), and a single run on one
# CPU count can hide them.
#
# The hot-path, recovery, and faults micro-benchmarks then run under
# `go test -bench` with allocation accounting, and scripts/examples.sh
# smoke-runs every example program so the documented entry points cannot
# rot unnoticed. Last, every benchsuite experiment runs: the paper's tables
# and figures, each gated on the paper's claim, and the benchmark
# experiments that record BENCH_<name>.json. `go run ./cmd/benchsuite
# -list` names them and prints every gate with its bound; each gate must
# pass before its file is overwritten, so a regression never replaces the
# committed numbers it is checked against.
#
# Usage: scripts/benchcheck.sh
set -e
cd "$(dirname "$0")/.."
go run ./cmd/blobvet ./...
go vet ./...
go test -race -shuffle=on ./internal/blob/... ./internal/sim/... ./internal/cluster/... ./internal/wal/... ./internal/core/... ./internal/storage/... ./internal/kvstore/... \
	./internal/fstest/... ./internal/blobfs/... ./internal/fs/... ./internal/mpiio/... ./internal/h5/... ./internal/adios/... ./internal/s3gw/... ./internal/sparksim/...
go test -run '^(TestCheckpoint.*|TestCrashPointSweep|TestRecoveryEquivalenceRandomized|TestMigrationCheckpointCarriesIntent)$' -cpu 1,2,4 -count=20 ./internal/blob
go test -run '^TestClockConcurrentMerge$' -cpu 1,2,4 -count=20 ./internal/sim
for pkg in ./internal/wal ./internal/blob ./internal/fstest; do
	for fz in $(go test -run '^$' -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		go test -run '^$' -fuzz "^${fz}\$" -fuzztime 10s "$pkg"
	done
done
scripts/examples.sh
go test -run '^$' -bench 'HotPath|Recover|Fault' -benchmem -benchtime=1s .
for exp in $(go run ./cmd/benchsuite -list | awk '/^[^\t]/ {print $1}'); do
	go run ./cmd/benchsuite -exp "$exp"
done
