#!/usr/bin/env bash
# Builds the whole test suite under UndefinedBehaviorSanitizer and runs it
# through ctest.  The always-on metrics path converts observed doubles to
# log2 bucket indexes (a clamped float-to-int conversion and a bit-width
# shift), the stats endpoint decodes length-prefixed frames from the wire,
# and the GA, simulator and persistence layers do their own bit-level
# arithmetic and parsing — exactly what UBSan is good at catching (shift
# overflow, float-to-int conversion out of range, misaligned loads).
# Usage: tools/check_ubsan.sh [extra ctest args].
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-ubsan"

cmake -B "${BUILD}" -S "${ROOT}" \
  -DSWAPP_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)"

ctest --test-dir "${BUILD}" --output-on-failure "$@"
