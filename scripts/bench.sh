#!/bin/sh
# scripts/bench.sh — run the repository-root benchmark suite and record
# ns/op per experiment id in BENCH_<n>.json (first free index, or -o FILE).
#
# Usage:
#   scripts/bench.sh                                   # default pattern, 1 iteration
#   scripts/bench.sh -p 'Fig10to12|AblationSolverNNLS' -c 3x
#   scripts/bench.sh -baseline BENCH_1.json            # adds speedup_vs_baseline
#
# The JSON maps experiment ids (fig9, fig10_12, table1, …) — or, for the
# micro/ablation benchmarks, the benchmark name itself — to ns/op. With
# -baseline pointing at a previous BENCH_<n>.json, each entry also reports
# its speedup relative to that file, so a before/after pair measured on the
# same machine documents a perf change.
#
# With -baseline, the script is also a regression gate: any benchmark more
# than 10% slower than its baseline entry (speedup < 0.90) fails the run
# with a nonzero exit after the JSON is written, listing the regressions on
# stderr — so CI or a pre-merge check can call
# `scripts/bench.sh -baseline BENCH_1.json` and trust the exit code.
set -eu

PATTERN='BenchmarkFig|BenchmarkTable|BenchmarkAblationSolver|BenchmarkObs|BenchmarkSelLoad'
COUNT=1x
BASELINE=
OUT=
while [ $# -gt 0 ]; do
    case "$1" in
    -p) PATTERN=$2; shift 2 ;;
    -c) COUNT=$2; shift 2 ;;
    -baseline) BASELINE=$2; shift 2 ;;
    -o) OUT=$2; shift 2 ;;
    *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."
if [ -z "$OUT" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    OUT="BENCH_${n}.json"
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchtime "$COUNT" -timeout 3600s . | tee "$RAW"

awk -v baseline="$BASELINE" -v pattern="$PATTERN" -v benchtime="$COUNT" '
BEGIN {
    # benchExperiment benchmarks keyed by the experiment id they run;
    # everything else keeps its benchmark name.
    id["BenchmarkFig09"] = "fig9"
    id["BenchmarkFig10to12"] = "fig10_12"
    id["BenchmarkFig13"] = "fig13"
    id["BenchmarkFig14"] = "fig14"
    id["BenchmarkFig15"] = "fig15"
    id["BenchmarkFig16"] = "fig16"
    id["BenchmarkFig17"] = "fig17"
    id["BenchmarkFig18to19"] = "fig18_19"
    id["BenchmarkFig20to21"] = "fig20_21"
    id["BenchmarkFig22to23"] = "fig22_23"
    id["BenchmarkFig24to29"] = "fig24_29"
    id["BenchmarkTable1"] = "table1"
    id["BenchmarkTable3"] = "table3"
    id["BenchmarkTable4"] = "table4"
    id["BenchmarkTable5"] = "table5"
    id["BenchmarkFigAppendixForest"] = "figB_forest_dd"
    id["BenchmarkFigAppendixDMV"] = "figB_dmv"
    id["BenchmarkFigAppendixCensus"] = "figB_census"
    id["BenchmarkExtDisc"] = "ext_disc"
    id["BenchmarkExtGMM"] = "ext_gmm"
    id["BenchmarkExtSemiAlg"] = "ext_semialg"
    id["BenchmarkExtOptimizer"] = "ext_optimizer"
    id["BenchmarkExtNoise"] = "ext_noise"
    id["BenchmarkExtPredTime"] = "ext_predtime"
    id["BenchmarkExtCrossing"] = "ext_crossing"
    id["BenchmarkExtTheory"] = "ext_theory"
    id["BenchmarkExtOnline"] = "ext_online"
    nbase = 0
    if (baseline != "") {
        while ((getline line < baseline) > 0) {
            if (match(line, /"[A-Za-z0-9_]+": \{"bench"/)) {
                key = substr(line, RSTART + 1)
                sub(/".*/, "", key)
                if (match(line, /"ns_per_op": [0-9]+/)) {
                    v = substr(line, RSTART, RLENGTH)
                    sub(/.*: /, "", v)
                    base[key] = v + 0
                }
            }
        }
        close(baseline)
    }
}
/^Benchmark/ {
    isbench = 0
    for (i = 3; i <= NF; i++) if ($i == "ns/op") { isbench = 1; nsfield = i - 1 }
    if (!isbench) next
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
    if (name ~ /^BenchmarkEstimatePath\//) {
        # BenchmarkEstimatePath/flat/m=4096 -> estpath_flat_m4096
        key = name
        sub(/^BenchmarkEstimatePath\//, "estpath_", key)
        sub(/\/m=/, "_m", key)
    } else if (name ~ /^BenchmarkIndexCrossover\//) {
        # BenchmarkIndexCrossover/bvh/m=64 -> crossover_bvh_m64
        key = name
        sub(/^BenchmarkIndexCrossover\//, "crossover_", key)
        sub(/\/m=/, "_m", key)
    } else if (name == "BenchmarkServeEstimateBatch") {
        # The server evaluates a batch on one goroutine, as the
        # workers=1 arm of earlier BENCH files did: keep that key so
        # -baseline still compares against them.
        key = "serve_batch_w1"
    } else if (name == "BenchmarkServeEstimateStream") {
        key = "serve_stream_w1"
    } else if (name ~ /^BenchmarkServeEstimateAlloc\//) {
        # BenchmarkServeEstimateAlloc/single -> serve_alloc_single
        key = name
        sub(/^BenchmarkServeEstimateAlloc\//, "serve_alloc_", key)
    } else if (name ~ /^BenchmarkServeBin\//) {
        # BenchmarkServeBin/single -> serve_bin_single
        key = name
        sub(/^BenchmarkServeBin\//, "serve_bin_", key)
    } else if (name ~ /^BenchmarkSnapshotLoad\//) {
        # BenchmarkSnapshotLoad/binary_m16384 -> snapshot_load_binary_m16384
        key = name
        sub(/^BenchmarkSnapshotLoad\//, "snapshot_load_", key)
    } else if (name ~ /^BenchmarkObsDisabled\//) {
        # BenchmarkObsDisabled/span -> obs_disabled_span
        key = name
        sub(/^BenchmarkObsDisabled\//, "obs_disabled_", key)
    } else if (name ~ /^BenchmarkSelLoad\//) {
        # BenchmarkSelLoad/single_p99 -> selload_single_p99 (the recorded
        # ns/op is that arm+class open-loop intended-start p99, not throughput)
        key = name
        sub(/^BenchmarkSelLoad\//, "selload_", key)
    } else {
        key = (name in id) ? id[name] : name
    }
    bench[key] = name
    ns[key] = $nsfield + 0
    order[n++] = key
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"pattern\": \"%s\",\n", pattern
    printf "  \"benchtime\": \"%s\",\n", benchtime
    if (baseline != "")
        printf "  \"baseline\": \"%s\",\n", baseline
    printf "  \"benchmarks\": {\n"
    nregress = 0
    for (i = 0; i < n; i++) {
        key = order[i]
        printf "    \"%s\": {\"bench\": \"%s\", \"ns_per_op\": %.0f", key, bench[key], ns[key]
        if (key in base && ns[key] > 0) {
            speedup = base[key] / ns[key]
            printf ", \"baseline_ns_per_op\": %.0f, \"speedup_vs_baseline\": %.2f", base[key], speedup
            # The regression gate only judges cross-file comparisons (the
            # whole point of -baseline); intra-run reference arms below
            # measure a designed gap, not a regression.
            if (speedup < 0.90)
                regress[nregress++] = sprintf("%s: %.0f -> %.0f ns/op (%.2fx)", key, base[key], ns[key], speedup)
        } else {
            # Intra-run baselines for benchmarks that carry their own
            # reference arm: the flat kernel at the same bucket count for
            # the estimate-path and crossover arms, the dense tree for the
            # sparse arm, the JSON path for the binary frames, the JSON
            # snapshot for the binary one.
            ref = ""
            if (key ~ /^estpath_bvh_m/) {
                ref = key
                sub(/^estpath_bvh_/, "estpath_flat_", ref)
            } else if (key ~ /^estpath_sparse_m/) {
                ref = key
                sub(/^estpath_sparse_/, "estpath_bvh_", ref)
            } else if (key ~ /^crossover_bvh_m/) {
                ref = key
                sub(/^crossover_bvh_/, "crossover_flat_", ref)
            } else if (key == "serve_bin_single") {
                ref = "serve_bin_http_single"
            } else if (key == "serve_bin_batch") {
                ref = "serve_bin_http_batch"
            } else if (key ~ /^snapshot_load_binary_/) {
                ref = key
                sub(/^snapshot_load_binary_/, "snapshot_load_json_", ref)
            }
            if (ref != "" && ref in ns && ns[key] > 0)
                printf ", \"baseline\": \"%s\", \"baseline_ns_per_op\": %.0f, \"speedup_vs_baseline\": %.2f", ref, ns[ref], ns[ref] / ns[key]
        }
        printf "}%s\n", (i < n - 1) ? "," : ""
    }
    printf "  }\n}\n"
    if (nregress > 0) {
        printf "bench.sh: %d benchmark(s) regressed more than 10%% vs %s:\n", nregress, baseline > "/dev/stderr"
        for (i = 0; i < nregress; i++)
            printf "  %s\n", regress[i] > "/dev/stderr"
        exit 1
    }
}
' "$RAW" > "$OUT" || { echo "wrote $OUT (REGRESSION GATE FAILED)" >&2; exit 1; }

echo "wrote $OUT"
