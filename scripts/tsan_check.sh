#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs them.
#
# The Hogwild SGD loops (sgns.cc, line.cc) intentionally race on embedding
# rows; those update functions carry HYBRIDGNN_NO_SANITIZE_THREAD, so any
# report from this script is an unintended data race and must be fixed.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DHYBRIDGNN_TSAN=ON \
  -DHYBRIDGNN_BUILD_BENCHMARKS=OFF \
  -DHYBRIDGNN_BUILD_EXAMPLES=OFF

# Only the tests exercising the parallel pipeline — full suite under TSan is
# slow and the rest is single-threaded. determinism_test runs the shared
# MinibatchTrainer's sharded epochs for both HybridGNN and GATNE at four
# workers (per-worker gradient sinks, one reduction per Adam step), plus
# Hogwild SGNS pretraining (each worker drawing pairs from its own stream)
# and the embedding cache; sampling_test trains Hogwild SGNS directly.
# serve_test covers the concurrent RecommendService (multi-client Submit +
# dispatcher + scoring pool);
# service_stress_test hammers the same service with producer threads while
# cross-checking every response against a direct recommender call.
# autograd_test backpropagates from concurrent workers over shared
# parameters under per-worker gradient sinks (Backward's visit marks);
# sparse_aggregate_test adds the frontier gather/segment-reduce backward
# under the same multi-worker grad-sink pattern. live_store_test drives
# concurrent ingest-publish against reader threads pinning snapshots
# (the RCU-style swap in LiveEmbeddingStore); stream_test rides along for
# the refresher's single-writer contract. batched_tower_test backpropagates
# HybridGNN's and GATNE's batched towers from concurrent workers under
# per-worker gradient sinks, and builds their tower-path cache on four
# workers. ann_test's ConcurrentSearchDuringPublish races
# reader threads traversing a published HNSW index against the writer
# patching/rebuilding its successor.
TESTS=(threadpool_test sampling_test determinism_test serve_test obs_test
       service_stress_test autograd_test sparse_aggregate_test
       stream_test live_store_test ann_test batched_tower_test)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

status=0
for t in "${TESTS[@]}"; do
  echo "=== TSan: $t ==="
  TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/$t" || status=$?
done
exit "$status"
