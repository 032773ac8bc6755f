#!/usr/bin/env bash
# Builds the full tier-1 test suite under AddressSanitizer + UBSan and runs
# it through ctest. Any report (heap overflow, use-after-free, UB) fails the
# script; a clean exit means the suite is ASan/UBSan-clean.
#
# Usage: scripts/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DHYBRIDGNN_ASAN=ON \
  -DHYBRIDGNN_BUILD_BENCHMARKS=OFF \
  -DHYBRIDGNN_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j "$(nproc)"

ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
