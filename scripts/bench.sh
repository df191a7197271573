#!/usr/bin/env sh
# Reproducible benchmark harness, two parts:
#
# 1. Vertex-order ablation: runs cmd/bench with the committed report's
#    exact configuration (R-MAT scale 16, seed 1, 32 sampled sources,
#    GOMAXPROCS=4, k=1, best-of-3 reps) and refreshes BENCH_PR7.json at
#    the repo root, printing the ablation table — baseline /
#    reorder (default). Pass cmd/bench flags to
#    override, e.g.:
#
#      scripts/bench.sh                    # full acceptance run
#      scripts/bench.sh -scale 14 -out -   # quicker, print JSON to stdout
#      scripts/bench.sh -k 0               # skip the slow k-betweenness rows
#
# 2. Mixed-workload SLO ablation: runs cmd/loadgen self-hosted at a
#    pinned small scale — QoS lanes off vs on under the same blend of
#    cheap reads, k-betweenness requests and streaming ingest — and
#    refreshes BENCH_LOAD.json, then schema-checks it so a harness
#    regression fails the run instead of committing a malformed report.
#
# 3. Approximate-BC ablation: one measured full exact run against the
#    adaptive (eps,delta)-guaranteed estimator at the committed
#    configuration (R-MAT scale 18, eps=0.01, delta=0.1), refreshing
#    BENCH_PR10.json and schema-checking it. The exact row is a single
#    full Brandes sweep — the better part of an hour at scale 18 on one
#    core — so part 3 runs last; drop the scale for a quick check:
#
#      scripts/bench.sh -approx-scale 12   # minutes instead of an hour
#
# Explicit flags repeat each tool's defaults so the pinned configurations
# are visible here and stay fixed even if the tools' defaults move.
set -eu
cd "$(dirname "$0")/.."

# -approx-scale N is this script's own flag (everything else passes
# through to part 1's cmd/bench invocation).
approx_scale=18
if [ "${1-}" = "-approx-scale" ]; then
	approx_scale="$2"
	shift 2
fi

go run ./cmd/bench \
	-scale 16 -samples 32 -seed 1 -procs 4 -k 1 -reps 3 \
	-out BENCH_PR7.json "$@"

go run ./cmd/loadgen \
	-scale 12 -seed 1 -duration 8s -warmup 2s -lanes ablate \
	-max-concurrent 2 -max-queued 32 -cheap-reserved 1 \
	-stats-qps 100 -bfs-qps 40 -components-qps 10 -closed-workers 2 \
	-bc-qps 4 -bc-k 1 -bc-samples 128 -ingest-qps 8 -ingest-batch 256 \
	-out BENCH_LOAD.json
go run ./cmd/loadgen -check BENCH_LOAD.json

go run ./cmd/bench \
	-approx -scale "$approx_scale" -eps 0.01 -delta 0.1 -seed 1 \
	-procs 4 -reps 3 -out BENCH_PR10.json
go run ./cmd/bench -check BENCH_PR10.json
