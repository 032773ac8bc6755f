#!/usr/bin/env bash
# One-shot CI gate: configure + build + full ctest suite, then the
# ThreadSanitizer and AddressSanitizer sweeps, then the micro-bench gates
# (streaming refresh, quantized serving, ANN retrieval), then the end-to-end
# benchmark's smoke suite (e2e_bench/test_run.py, about a minute; it builds
# its own Release tree in .bench_build/), and last prints the line counts
# (scripts/loc.sh). Exits non-zero on the first failing stage,
# so `scripts/ci_check.sh && git push` is a safe habit.
#
# Usage: scripts/ci_check.sh [build-dir]   (default: build)
# The sanitizer stages use their own build trees (build-tsan, build-asan);
# all three trees are incremental across runs.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "=== ci_check: configure + build ($BUILD_DIR) ==="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "=== ci_check: ctest ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "=== ci_check: ThreadSanitizer sweep ==="
scripts/tsan_check.sh

echo "=== ci_check: AddressSanitizer sweep ==="
scripts/asan_check.sh

echo "=== ci_check: streaming refresh gate (speedup + freshness) ==="
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_stream
"$BUILD_DIR/bench/micro_stream" --gate

echo "=== ci_check: quantized serving gate (int8 speedup + recall, overload p99) ==="
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_serve_qps
"$BUILD_DIR/bench/micro_serve_qps" --gate

echo "=== ci_check: ANN retrieval gate (single-query speedup + recall@10) ==="
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_ann
"$BUILD_DIR/bench/micro_ann" --gate

echo "=== ci_check: end-to-end benchmark smoke suite (output contract) ==="
python3 e2e_bench/test_run.py

echo "=== ci_check: line counts ==="
scripts/loc.sh

echo "=== ci_check: all stages passed ==="
