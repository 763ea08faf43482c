#!/bin/sh
# bench.sh — run the end-to-end simulation and live-broker benchmarks and
# snapshot the numbers as JSON.
#
# Usage:
#   scripts/bench.sh [out.json]     # snapshot a run to out.json
#   scripts/bench.sh -check         # diff a fresh run against the baseline
#
# Runs five suites with -benchmem, 5 counts each:
#   - Approach*, Figure2 and Rebuild (root package): full-simulation cost;
#     Rebuild is one monitoring-epoch table refresh, cold (per-pair
#     snapshot oracle) vs driver (one shared snapshot)
#   - BenchmarkWire* (internal/wire): codec encode/decode cost and allocs
#   - BenchmarkBroker*, BenchmarkEdge* and BenchmarkRelayChain
#     (internal/broker): live-broker forwarding and fan-out throughput
#     (msgs/sec, deliveries/sec) over localhost, the edge-tier aggregation
#     benchmark (bytes/delivery, frames/delivery for 100 subscribers over 4
#     sessions), and the relay-plane aggregation benchmark (bytes/packet,
#     frames/packet across a 3-broker chain in DATA_BATCH/ACK_BATCH framing)
#   - BenchmarkControlPlaneEpoch (internal/algo1): one Driver.Rebuild as the
#     live broker's LinkStateInterval tick calls it — quiet (estimate
#     version unchanged, a pointer-identity no-op) and dirty (a sparse
#     gossip delta moved the version, every pair rebuilds)
#   - BenchmarkWalAppend (internal/wal): one group-committed custody append
#     to the crash-durable WAL (ns per durable record, appends/fsync
#     amortization); the broker suite's BenchmarkBrokerForwardDurable
#     measures the same cost end to end (forwarding with the
#     ACK-after-durable invariant on, DESIGN.md §16)
# saves the raw `go test` output next to the JSON (for benchstat), and writes
# the per-benchmark mean ns/op, B/op, allocs/op and custom metrics
# (qos_ratio, msgs/sec, ...) to out.json (default: BENCH_current.json).
#
# With -check, no snapshot is written: the raw run is piped through
# `benchjson -check BENCH_baseline.json`, which exits non-zero if any
# benchmark's mean ns/op rose — or any "/sec" throughput metric fell, or
# any latency percentile (p50_ms, p99_ms, ...) rose — by more than 20%
# against the baseline's "current" section. The sharded scaling curve's
# 8-core point, the edge aggregation benchmark, the relay-chain batch
# benchmark, the shared-snapshot rebuild, the control-plane epoch paths and
# the WAL benchmarks (BenchmarkWalAppend, BenchmarkBrokerForwardDurable) are
# additionally pinned with -require, so renaming or dropping any of them
# cannot silently un-gate it.
# (BenchmarkBrokerSharded sets GOMAXPROCS inside its cpus=N sub-runs rather
# than via -cpu: benchjson strips go's -N name suffix when merging counts,
# so -cpu variants would collapse into one entry.)
#
# To compare snapshots by hand:
#   scripts/bench.sh BENCH_current.json
#   diff BENCH_baseline.json BENCH_current.json
#
# For statistically rigorous before/after comparisons, keep two raw outputs
# and use benchstat (golang.org/x/perf/cmd/benchstat):
#   benchstat BENCH_baseline.raw.txt BENCH_current.raw.txt
set -eu

cd "$(dirname "$0")/.."

run_all() {
	go test -run '^$' -bench 'Approach|Figure2|Rebuild' -benchmem -count 5 -benchtime 2x .
	go test -run '^$' -bench 'Wire' -benchmem -count 5 ./internal/wire
	go test -run '^$' -bench 'Broker' -benchmem -count 5 -benchtime 2x ./internal/broker
	# Edge fan-out and the relay chain are one publish per op — at 2x the
	# numbers are all setup noise, so they get a long fixed iteration count.
	go test -run '^$' -bench 'Edge|RelayChain' -benchmem -count 5 -benchtime 1000x ./internal/broker
	go test -run '^$' -bench 'ControlPlaneEpoch' -benchmem -count 5 ./internal/algo1
	go test -run '^$' -bench 'Wal' -benchmem -count 5 ./internal/wal
}

if [ "${1:-}" = "-check" ]; then
	run_all | go run ./cmd/benchjson -check BENCH_baseline.json \
		-require 'BenchmarkBrokerSharded/cpus=8,BenchmarkEdgeFanout/mux,BenchmarkRelayChain/batch,BenchmarkRebuild/driver/n=160,BenchmarkControlPlaneEpoch/quiet,BenchmarkControlPlaneEpoch/dirty,BenchmarkWalAppend,BenchmarkBrokerForwardDurable'
	exit
fi

out="${1:-BENCH_current.json}"
raw="${out%.json}.raw.txt"

run_all | tee "$raw"
go run ./cmd/benchjson < "$raw" > "$out"
echo "wrote $out (raw output in $raw)" >&2
