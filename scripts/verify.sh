#!/bin/sh
# Tier-1 verification: build + vet everything, gate the tree on the
# project's own static analyzers (selvet), run the full test suite, then
# re-run every internal package under the race detector (the serve
# package's whole contract is race-freedom, the parallel engine and the
# sweep fan-out are the other concurrent subsystems, and keeping the rest
# race-clean is cheap insurance).
set -eux

go build ./...
go vet ./...

# Static-analysis gate: the determinism, concurrency, numeric, and
# serving-path contracts (detrand, maprange, floateq, lockheld,
# errdiscard, poolcapture, zeroalloc, poolpair, atomicmix, cowshare,
# obslabel) must hold on every package — findings fail the build.
# -strict-suppressions additionally fails on any //selvet:ignore line
# that no longer suppresses a finding, so the exemption surface cannot
# grow stale as code changes underneath it.
go run ./cmd/selvet -strict-suppressions ./...

# The serving hot path is the contract that matters most in production:
# re-sweep it explicitly so a selvet scope regression (e.g. a package
# accidentally dropped from the walk) cannot silently skip the wire path
# (zeroalloc: no allocating construct; poolpair: every pooled scratch
# goes back) or the batched fan-out (poolcapture: index-owned writes
# only). The obs layer
# rides along: its exposition must stay deterministic (detrand, maprange)
# since /metrics pages are diffed byte-for-byte in tests. internal/online
# is in the sweep because its whole contract is deterministic pure-compute
# updates (detrand: no clocks — latency timing lives in the serve layer).
# internal/hist holds the one box-histogram model every box learner
# returns (QUADHIST, QUICKSEL, ISOMER), so every box family serves through it.
go run ./cmd/selvet ./internal/serve ./internal/parallel ./internal/core ./internal/bvh ./internal/obs ./internal/online ./internal/gmm ./internal/wirebin ./internal/modelio ./internal/load ./internal/hist

# Prove the gate can fail: the seeded-violation fixture must be flagged.
# If selvet ever exits 0 here, the analyzers have gone blind and the
# clean run above means nothing.
if go run ./cmd/selvet ./internal/analysis/testdata/src/detrand >/dev/null 2>&1; then
    echo "verify.sh: selvet failed to flag the seeded violation fixture" >&2
    exit 1
fi

# Per-analyzer seeded-violation self-checks for the CFG/dataflow
# analyzers: each one, run alone over its own fixture, must still flag
# it. A shared fixture hit by a *different* analyzer would mask one
# analyzer going blind, so the subset runs are the real proof.
for a in zeroalloc poolpair atomicmix cowshare obslabel; do
    if go run ./cmd/selvet -run "$a" "./internal/analysis/testdata/src/$a" >/dev/null 2>&1; then
        echo "verify.sh: selvet -run $a missed its seeded violations" >&2
        exit 1
    fi
done

go test ./...
# ./... skips the benchmark module (its directory name starts with _ and
# it is a module of its own), yet it imports the serve, obs, load, wirebin
# and modelio APIs: vet and test it here so a change to any of them breaks
# this script, not the next benchmark run.
(cd _e2ebench && go vet ./... && go test ./...)
go test -race ./internal/...
# The metrics registry and span tracer are read by exposition handlers
# while every request and trainer writes to them; their race test is the
# gate for that contract, run explicitly so it cannot fall out of the
# ./internal/... sweep unnoticed.
go test -race ./internal/obs/...
# Online-learning contract gates, run explicitly for the same reason:
# the copy-on-write publish path must stay torn-state-free under
# concurrent estimates + online updates + retrain hot-swaps, and the
# seeded determinism self-check must keep holding — the same feedback
# stream yields byte-identical final weights regardless of estimate
# concurrency.
go test -race -run 'TestOnlineCOWRace|TestOnlineDeterminism' ./internal/serve
go test -race ./internal/online
go test -run 'TestOnlineDeterminism|TestDeterministicFold' ./internal/serve ./internal/online
# Training same-bits gates: the threshold search from one best-first
# quadtree pass must return the probe-build bisection's τ bit for bit, and
# the sparse kernels that store exact 1s as bare indices must match the
# pair-per-entry kernels bit for bit, so no trained model changes.
go test -count=1 -run 'TestSearchTauMatchesProbeBuilds|TestMinTauIsExactThreshold|TestOrderIndependence|TestSparseMatchesReferenceBits|TestSparseMatchesDense' ./internal/hist ./internal/quadtree ./internal/linalg
go test -run '^$' -bench 'BenchmarkSearchTau$|BenchmarkSparseMatVec/' -benchtime 1x .
# Benchmark smoke: one iteration of the fig9 sweep under the Quick preset
# plus one pass over the estimate-path kernels and the batched serving
# endpoint, so a perf regression that breaks either harness is caught here
# rather than in scripts/bench.sh.
go test -run '^$' -bench 'BenchmarkFig09$' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkEstimatePath/|BenchmarkIndexCrossover/|BenchmarkServeEstimateBatch/|BenchmarkServeEstimateStream/' -benchtime 1x .
# Wire-path zero-allocation gate: the steady-state single-estimate and
# 16-query batch paths through the full mux (pooled codecs, arena parse,
# hand-rolled encode) of a server on the default Options{} must measure
# exactly 0 allocs/op — this is the contract DESIGN.md §13 documents, and
# any new per-request allocation fails the test.
go test -run 'TestEstimateHandlerZeroAlloc' -count=1 ./internal/serve
# Stream endpoint concurrency gate: per-connection pooled state and the
# registry's COW publication must stay tear-free under concurrent streams
# and model hot-swaps; the BVH Reweight path gets the same treatment since
# streaming estimates read trees that online learning republishes. The 2-D
# prefix-mass table must answer within 1e-9 of the flat kernel on built,
# loaded and reweighted trees, with the same bits from each, and a tree
# rebuilt from Build's leaf order (the snapshot load path) must equal
# Build's array for array.
go test -race -run 'TestEstimateStreamConcurrentWithSwaps' -count=1 ./internal/serve
go test -race -run 'TestReweightConcurrentNoTear|TestPropertyTableMatchesFlat|TestPropertyFromOrderMatchesBuild' -count=1 ./internal/bvh
# Observability zero-cost gate: the disabled span path must stay at
# 0 allocs/op (TestObsDisabledAllocs fails the suite otherwise; the
# benchmark arm here keeps the ns/op number visible in verify output).
go test -run 'TestObsDisabledAllocs' -bench 'BenchmarkObsDisabled/' -benchtime 1000x .
# Binary wire protocol gates (DESIGN.md §15): the frame codec must stay
# race-clean, the decoder must survive its fuzz corpus and decode only
# finite ranges, binary estimates must be bit-identical to the JSON path,
# the per-frame server path must measure exactly 0 allocs/op on the
# default Options{}, and pooled
# per-connection state must stay tear-free under concurrent connections +
# model hot-swaps. TestBinJSONEquivalence also holds the shared fault
# table (every estimate transport answers a fault with the same class and
# message) and the stream-after-swap case; TestRetrainSurvivesDimensionFaults
# runs the retrain loop against wrong-dimension feedback and a
# dimension-changing upload.
go test -race -count=1 ./internal/wirebin
go test -run 'FuzzDecodeRequest' -count=1 ./internal/wirebin
# The model loaders' seed corpus (both formats, truncations and a
# checksum-valid snapshot with a forged tree): typed errors only, and a
# model that loads answers in [0,1] and as its own buckets and weights say.
go test -run 'FuzzLoadAnyBytes' -count=1 ./internal/modelio
go test -race -run 'TestBinJSONEquivalence|TestBinConcurrentSwaps|TestRetrainSurvivesDimensionFaults' -count=1 ./internal/serve
go test -run 'TestBinFrameZeroAlloc' -count=1 ./internal/serve
# Binary snapshot gates: load must seed the BVH (no rebuild on
# Accelerate) and corrupted/truncated snapshots must fail typed, including
# a checksum-valid leaf order that is no permutation of the bucket ids and
# a checksum-valid model holding a NaN or infinite value or a bucket the
# estimator cannot evaluate; snapshots that stored the tree's arrays still
# load, with the answers their buckets and weights give.
go test -run 'TestBinaryRoundTripEstimates|TestBinaryLoadSeedsIndex|TestBinaryCorruption|TestBinaryRejectsBadOrder|TestBinaryRejectsNonFinite|TestLoadsTreeArraySnapshots|TestLoadRejectsCorruption' -count=1 ./internal/modelio
# Load-harness gates (DESIGN.md §16). First the library contracts: the
# open-loop schedule must be byte-identical across worker counts and the
# shared latency reporter must render the same bytes at any fill
# concurrency — the determinism that makes one run's artifact comparable
# to the next.
go test -race -run 'TestScheduleDeterministicAcrossWorkers|TestReporterByteIdentity|TestOpenLoopSmoke' -count=1 ./internal/load
# Then the harness end-to-end with the SLO gate ACTIVE: a short mixed
# open-loop run against the in-process server must satisfy the committed
# smoke manifest (zero errors, zero feedback loss, sane tails) — selload
# exits nonzero on violation, which fails this script.
SELLOAD_REPORT=$(mktemp)
go run ./cmd/selload -self -rate 300 -duration 2s -seed 1 -workers 4 \
    -slo cmd/selload/testdata/slo_smoke.json -o "$SELLOAD_REPORT"
rm -f "$SELLOAD_REPORT"
# Prove the SLO gate can fail: the seeded-violation manifest (an
# impossible p99 bound) must exit nonzero. If it ever passes, the gate
# has gone blind and the clean run above certifies nothing.
if go run ./cmd/selload -self -rate 200 -duration 1s -seed 1 \
    -slo cmd/selload/testdata/slo_violate.json -o /dev/null >/dev/null 2>&1; then
    echo "verify.sh: selload SLO gate passed the seeded-violation manifest" >&2
    exit 1
fi
# One pass over the open-loop latency arms so a harness break surfaces
# here rather than in scripts/bench.sh.
go test -run '^$' -bench 'BenchmarkSelLoad/' -benchtime 1x .
