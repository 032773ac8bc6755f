#!/usr/bin/env bash
# Prints the line counts of the C++ sources (.cc, .h) and CMakeLists.txt
# files under src/, tests/ and bench/, one directory per line, then their
# sum. These are the counts ROADMAP.md and CHANGES.md quote.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in src tests bench; do
  lines=$(find "$dir" -type f \( -name '*.cc' -o -name '*.h' \
            -o -name CMakeLists.txt \) -print0 | xargs -0 cat | wc -l)
  printf '%-7s %7d\n' "$dir/" "$lines"
  total=$((total + lines))
done
printf '%-7s %7d\n' total "$total"
