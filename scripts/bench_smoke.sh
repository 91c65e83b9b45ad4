#!/usr/bin/env bash
# bench_smoke.sh — allocation-regression gate for the zero-copy collective
# path. Runs the 8-rank/256Ki-element ring allreduce benchmark a handful of
# iterations and fails if allocs/op rises above a small fixed budget.
#
# allocs/op is the one benchmark number that is deterministic on any shared
# CI runner (wall-clock and MB/s are not), which is why the gate pins it and
# nothing else. The pipelined ring currently costs 8 allocs/op at 8 ranks —
# one goroutine spawn per rank per op from the harness — against 729 for the
# pre-pooling implementation, so a budget of 16 catches any reintroduced
# per-segment or per-round allocation while tolerating harness noise.
#
# A second gate pins the conv backward kernel's allocations (see below).
#
# Usage: scripts/bench_smoke.sh [max_allocs_per_op]   (default 16)
set -euo pipefail

cd "$(dirname "$0")/.."
MAX_ALLOCS="${1:-16}"
BENCH='^BenchmarkRingAllreduce$/ranks=8/elems=262144'

OUT="$(go test ./internal/mpi/ -run '^$' -bench "$BENCH" -benchmem -benchtime 10x)"
echo "$OUT"

LINE="$(echo "$OUT" | grep '^BenchmarkRingAllreduce' | head -1)"
if [ -z "$LINE" ]; then
    echo "bench_smoke: benchmark $BENCH produced no result line" >&2
    exit 1
fi

ALLOCS="$(echo "$LINE" | awk '{for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}')"
if [ -z "$ALLOCS" ]; then
    echo "bench_smoke: no allocs/op field in: $LINE" >&2
    exit 1
fi

if [ "$ALLOCS" -gt "$MAX_ALLOCS" ]; then
    echo "bench_smoke: FAIL — ring allreduce at 8 ranks costs $ALLOCS allocs/op (budget $MAX_ALLOCS)" >&2
    exit 1
fi
echo "bench_smoke: OK — ring allreduce at 8 ranks costs $ALLOCS allocs/op (budget $MAX_ALLOCS)"

# Second gate: Conv2DBackward at 2 threads allocates its two result
# tensors and one pool launch (8 allocs/op; 9 before the kernel moved onto
# the shared GEMM loop). The ordered kernel-gradient reduction and B
# packing take their buffers from the scratch arena, so the budget of 9
# catches any per-call allocation either would add.
CONV_MAX_ALLOCS=9
CONV_BENCH='^BenchmarkConv2DBackward$/threads=2$'

COUT="$(go test ./internal/tensor/ -run '^$' -bench "$CONV_BENCH" -benchmem -benchtime 10x)"
echo "$COUT"

CLINE="$(echo "$COUT" | grep '^BenchmarkConv2DBackward' | head -1)"
CALLOCS="$(echo "$CLINE" | awk '{for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}')"
if [ -z "$CALLOCS" ]; then
    echo "bench_smoke: no allocs/op for $CONV_BENCH in: $CLINE" >&2
    exit 1
fi
if [ "$CALLOCS" -gt "$CONV_MAX_ALLOCS" ]; then
    echo "bench_smoke: FAIL — Conv2DBackward at 2 threads costs $CALLOCS allocs/op (budget $CONV_MAX_ALLOCS)" >&2
    exit 1
fi
echo "bench_smoke: OK — Conv2DBackward at 2 threads costs $CALLOCS allocs/op (budget $CONV_MAX_ALLOCS)"

# Third gate: the causal-tracing tax on the engine's fused gradient
# exchange. mpirun workers now always run a ring-only tracer feeding a
# flight recorder, so the hot path must not pay for it: trace=on is pinned
# to at most TRACE_OVERHEAD_PCT percent over trace=off (default 2).
#
# Wall-clock comparisons flake on shared runners, so the gate compares the
# MINIMUM ns/op over several -count repetitions — the min is the least
# noisy estimator of the true cost — and the threshold is env-overridable
# for loaded machines.
TRACE_OVERHEAD_PCT="${TRACE_OVERHEAD_PCT:-2}"
TRACE_BENCH='^BenchmarkEngineStepTraced$'

TOUT="$(go test ./internal/horovod/ -run '^$' -bench "$TRACE_BENCH" -benchtime 20x -count 5)"
echo "$TOUT"

min_nsop() {
    echo "$TOUT" | grep "trace=$1" | awk '{print $3}' | sort -n | head -1
}
OFF="$(min_nsop off)"
ON="$(min_nsop on)"
if [ -z "$OFF" ] || [ -z "$ON" ]; then
    echo "bench_smoke: traced benchmark produced no result lines" >&2
    exit 1
fi

# Integer arithmetic: on <= off * (100 + pct) / 100.
BOUND=$(( OFF * (100 + TRACE_OVERHEAD_PCT) / 100 ))
if [ "$ON" -gt "$BOUND" ]; then
    echo "bench_smoke: FAIL — tracing overhead: trace=on min $ON ns/op vs trace=off min $OFF ns/op (bound $BOUND, ${TRACE_OVERHEAD_PCT}%)" >&2
    exit 1
fi
echo "bench_smoke: OK — tracing overhead: trace=on min $ON ns/op vs trace=off min $OFF ns/op (<= ${TRACE_OVERHEAD_PCT}%)"
