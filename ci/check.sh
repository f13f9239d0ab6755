#!/usr/bin/env bash
# The repo's verification gate, runnable locally or in CI. Six stages:
#
#   1. tier-1: full configure + build + ctest (the acceptance bar every
#      change must keep green),
#   2. lint: one exea_lint scan of src/ tools/ bench/ with the default
#      rule set, which is every rule in the registry (exea_lint
#      --list-rules): layering vs tools/layers.txt, lock discipline, the
#      cross-TU concurrency families, Status discards, header hygiene, the
#      obs-no-adhoc-metrics telemetry rule and the untrusted-input taint
#      family (sources in tools/lint_taint.txt) among them; then the
#      exea_header_check target (every src/ header compiles standalone),
#      and clang-tidy (bugprone/performance/concurrency, see .clang-tidy)
#      when a clang-tidy binary is on PATH,
#   3. bench-load smoke: generate a tiny dataset, freeze a snapshot, and
#      drive the async serving core with 8 concurrent clients, once in
#      lockstep and once with 8 requests in flight per connection, then
#      three more times while a second bundle is swapped in and out
#      (mixed ops — align, explain, neighbors, repair_status and stats —
#      aligns alone, and aligns alone 8 in flight per connection) — the
#      run fails on any malformed or dropped response or failed swap
#      (exea_cli bench-load exits non-zero),
#   4. e2ebench: build the end-to-end benchmark from source and run its
#      self-tests in reduced mode (python3 e2ebench/test_e2ebench.py) —
#      the benchmark compiles against the serving API, so an edit there
#      that breaks it fails here, not in a later benchmark run,
#   5. tsan: a ThreadSanitizer pass over the concurrency-sensitive suites
#      — the worker-pool kernels (parallel_test), the obs metrics registry
#      (obs_test), the event loop / bounded queue (net_test), the
#      explainer's path memo shared by concurrent explains (explain_test,
#      ConcurrentColdExplainsMatchSerial), the serving engine's shared
#      LRU cache / async request path / snapshot hot-swap churn
#      (serve_test, incl. SwapChurnWhileAlignsStayInFlight,
#      ConcurrentAlignsMatchHandleLine,
#      HotSwapUnderConcurrentLoadDropsNothing and the align memo's racing
#      cold fills, ConcurrentColdAlignsMatchSerial), memo-hit aligns
#      answered on the event loops beside worker answers and swaps
#      (serve_test, MemoHitAlignsAnswerOnTheLoopAndCountOnce,
#      MissesBatchesAndExplainsStillReachWorkers and
#      SwapBetweenAlignsAnswersFromTheNewVersion), each line decoded once
#      on its loop and the typed request carried to a worker, undecodable
#      lines answered on the loop and deadlines counted from admission
#      (serve_test, UndecodableLinesAnswerOnTheLoopLikeHandleLine,
#      DeadlineMsCountsFromAdmission and
#      ExpiredRequestIsShedAfterDequeueBeforeEngineWork), the align-memo
#      filler racing lazy misses, swaps and shutdown, and the lookups
#      answered on the loops (serve_test,
#      IndexPolicies/FilledMemoTest.EverySingleAlignAnswersOnTheLoop,
#      SwapMidFillDropsTheOldVersionAndFillsTheNew,
#      ShutdownMidFillReturnsPromptlyAndAnswersAdmitted,
#      LookupsAnswerOnTheLoopLikeHandleLine and
#      UncachedExplainReachesAWorkerAndCountsOneMiss), the event loop's
#      fairness and backpressure under a flooding or non-reading peer
#      (net_test, BlankLineFloodDoesNotStarveOtherConnections,
#      PeerThatNeverReadsStopsBeingRead and
#      SpotAnswersHeldBehindASlowLineStopReads), the loop group's
#      cross-thread handoff, shared connection cap, reorder buffer and
#      drain (net_test, ConnectionsLandOnDifferentLoops,
#      ConnectionCapHoldsAcrossLoops,
#      SpotAnswerWaitsBehindEarlierHandedOffLine and
#      DrainAndStopAnswerEveryLoopsAdmittedLines), the SIMD kernels under
#      the parallel similarity scans (simd_test), the exact and IVF
#      indexes queried from pool workers (index_test), and the snapshot
#      loader's error paths on pool threads (hostile_input_test: every
#      corruption recipe exits early while other payloads still parse,
#      and every recipe is replayed as a hot-swap target),
#   6. asan+ubsan: the full ctest suite under AddressSanitizer +
#      UndefinedBehaviorSanitizer with EXEA_DCHECKS=ON, so the contract
#      layer (src/util/check.h) is exercised together with the
#      instrumentation.
#
# Usage: ci/check.sh [--fast]   (--fast runs stages 1-4 only)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "=== tier 1: build + tests ==="
cmake -B build -S .
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "=== lint: exea_lint (every rule family, taint included) ==="
# Any finding fails the build; fix it or waive the line with a justified
# "exea-lint: allow(rule)" comment.
./build/tools/exea_lint --root .

echo "=== lint: header self-sufficiency ==="
cmake --build build -j"${JOBS}" --target exea_header_check

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== lint: clang-tidy ==="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cc' | xargs -P "${JOBS}" -n 8 \
    clang-tidy -p build --quiet
else
  echo "=== lint: clang-tidy not found, skipping ==="
fi

echo "=== smoke: bench-load (8 concurrent clients, zero malformed) ==="
SMOKE_DIR="build/bench_load_smoke"
rm -rf "${SMOKE_DIR}"
mkdir -p "${SMOKE_DIR}/data"
./build/tools/exea_cli generate --benchmark ZH-EN --scale tiny \
  --out "${SMOKE_DIR}/data"
./build/tools/exea_cli snapshot --dir "${SMOKE_DIR}/data" --model MTransE \
  --epochs 30 --out "${SMOKE_DIR}/bundle"
# bench-load exits non-zero on any malformed or dropped response, so this
# line is the assertion, not just a report.
./build/tools/exea_cli bench-load --bundle "${SMOKE_DIR}/bundle" \
  --clients 8 --requests 25 --op mixed
# Pipelined: up to 8 requests in flight per connection, the traffic shape
# where Nagle's algorithm held small responses until the peer's next
# request carried the ACK.
./build/tools/exea_cli bench-load --bundle "${SMOKE_DIR}/bundle" \
  --clients 8 --requests 25 --pipeline 8 --op mixed
# Hot-swap churn under the same load: a second bundle frozen from a
# different training run is swapped in and out 5 times mid-traffic. Any
# failed swap, malformed response, or dropped response fails the run.
./build/tools/exea_cli snapshot --dir "${SMOKE_DIR}/data" --model MTransE \
  --epochs 12 --out "${SMOKE_DIR}/bundle_alt"
./build/tools/exea_cli bench-load --bundle "${SMOKE_DIR}/bundle" \
  --clients 8 --requests 25 --op mixed \
  --swap-bundle "${SMOKE_DIR}/bundle_alt" --swaps 5
# Align-only churn: every client repeats entities, so most aligns are
# answered from the serving version's align memo, and the swaps land
# between fills and hits of the same entity.
./build/tools/exea_cli bench-load --bundle "${SMOKE_DIR}/bundle" \
  --clients 8 --requests 1000 --op align \
  --swap-bundle "${SMOKE_DIR}/bundle_alt" --swaps 5
# Pipelined align-only churn: on one connection, hits answered on the
# event loop queue behind misses a worker answers, while versions change.
./build/tools/exea_cli bench-load --bundle "${SMOKE_DIR}/bundle" \
  --clients 8 --requests 1000 --pipeline 8 --op align \
  --swap-bundle "${SMOKE_DIR}/bundle_alt" --swaps 5

echo "=== e2ebench: build + self-test (reduced mode) ==="
# Builds the benchmark (Release, into the ignored .bench_build/) and runs
# every workload at reduced size: each declared metric printed with its
# unit, the byte-compare gate failing on one corrupted response, and the
# refusal to run without the sources.
python3 e2ebench/test_e2ebench.py

if [[ "${FAST}" == 1 ]]; then
  echo "=== fast mode: skipping sanitizer matrix ==="
  exit 0
fi

echo "=== tsan: parallel_test + obs_test + net_test + explain_test + serve_test + simd_test + index_test + hostile_input_test ==="
cmake -B build-tsan -S . -DEXEA_SANITIZE=thread -DEXEA_DCHECKS=ON
cmake --build build-tsan -j"${JOBS}" --target \
  parallel_test obs_test net_test explain_test serve_test simd_test \
  index_test hostile_input_test
./build-tsan/tests/parallel_test
./build-tsan/tests/obs_test
./build-tsan/tests/net_test
./build-tsan/tests/explain_test
./build-tsan/tests/serve_test
./build-tsan/tests/simd_test
./build-tsan/tests/index_test
./build-tsan/tests/hostile_input_test

echo "=== asan+ubsan: full ctest ==="
cmake -B build-asan -S . -DEXEA_SANITIZE=address,undefined -DEXEA_DCHECKS=ON
cmake --build build-asan -j"${JOBS}"
(cd build-asan && ctest --output-on-failure -j"${JOBS}")

echo "=== asan+ubsan: EXEA_SIMD=scalar leg (simd_test + index_test + determinism_test + SimilarityTest) ==="
# The forced-scalar leg proves the dispatch override path and the scalar
# kernels themselves are sanitizer-clean, and that the bit-identity tests
# (including the streaming top-k against its full-sort reference) hold
# when the process STARTS at the scalar level (not just when a test
# switches to it mid-run).
(cd build-asan && EXEA_SIMD=scalar ctest --output-on-failure -j"${JOBS}" \
  -R 'SimdTest|IndexTest|IndexEdgeTest|DeterminismTest|SimilarityTest')

echo "=== all checks passed ==="
