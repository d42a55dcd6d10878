#!/usr/bin/env bash
# CI entry point: build + test the full configuration matrix.
#
#   tools/ci/run_matrix.sh            # every configuration
#   tools/ci/run_matrix.sh default    # one configuration by name
#   tools/ci/run_matrix.sh lint asan  # any subset
#
# Configurations:
#   lint     tapo_lint self-test + full-tree lint, plus clang-tidy when
#            available (with CI=1 a missing clang-tidy fails the build —
#            see the tidy target in CMakeLists.txt)
#   default  plain RelWithDebInfo build, full ctest
#   asan     -fsanitize=address, full ctest
#   ubsan    -fsanitize=undefined, full ctest
#   tsan     -fsanitize=thread, full ctest (includes the runner_parallel_tsan
#            and telemetry_tsan race-check entries), then an explicit
#            `concurrency`-labeled pass: the annotated-mutex API tests and
#            the Registry/FleetAggregator lock-contention stress suites
#            race-checked under TSan
#   thread-safety  Clang-only static gate: builds with clang++ and
#            -DTAPO_THREAD_SAFETY=ON (-Wthread-safety -Werror=thread-safety
#            over the TAPO_* capability annotations, plus the configure-time
#            positive/negative try_compile probes), then runs the
#            `concurrency` label. Skipped loudly when clang++ is not
#            installed — unless CI is set, where missing clang++ is a hard
#            failure instead of a silent skip
#   robustness  -fsanitize=address, `robustness`-labeled tests only: the
#            capture-channel/degradation suites plus the differential
#            stability harness (bench/robustness_stability.cc), so fault
#            injection runs under ASan without repeating the full sweep
#   fleet    -fsanitize=address, `fleet`-labeled tests only: the fleet
#            record/sketch/window suites (corruption property tests under
#            ASan), the fleet_scale merge-determinism harness, and the
#            tapo_agg emit -> merge -> prometheus-validate smoke chain
#   streaming  -fsanitize=address, `streaming`-labeled tests only: the
#            chunked-vs-batch bit-equivalence suites, the streaming_scale
#            peak-residency gate and the pcap_analyze --demo golden check,
#            so the chunk-lifetime and budget-eviction paths run under ASan
#   chaos    `chaos`-labeled tests under BOTH -fsanitize=address and
#            -fsanitize=undefined: the chaos-engine gate suites
#            (tests/chaos_test.cc) and the differential storm harness
#            (bench/chaos_storm.cc) — hostile-network paths are exactly
#            where latent memory and UB bugs hide, so the storm runs
#            instrumented both ways without repeating the full sweep
#

# Each configuration gets its own build tree under build-ci/ so sanitizer
# flags never bleed between them.
set -euo pipefail

cd "$(dirname "$0")/../.."

JOBS="${JOBS:-$(nproc)}"
CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(lint default asan ubsan tsan thread-safety robustness fleet streaming chaos)
fi

build_and_test() {
  local name="$1" sanitize="$2" label="${3:-}"
  local dir="build-ci/${name}"
  echo "=== [${name}] configure (TAPO_SANITIZE='${sanitize}') ==="
  cmake -B "${dir}" -S . -DTAPO_SANITIZE="${sanitize}" -DTAPO_WERROR=ON
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  if [ -n "${label}" ]; then
    echo "=== [${name}] ctest -L ${label} ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L "${label}"
  else
    echo "=== [${name}] ctest ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  fi
}

for cfg in "${CONFIGS[@]}"; do
  case "${cfg}" in
    lint)
      dir="build-ci/lint"
      cmake -B "${dir}" -S . -DTAPO_WERROR=ON
      cmake --build "${dir}" -j "${JOBS}" --target tapo_lint
      "${dir}"/tools/tapo_lint/tapo_lint --self-test tools/tapo_lint/fixtures
      cmake --build "${dir}" --target lint
      # tidy is part of the lint job: clang-tidy runs when installed; under
      # CI=1 a missing binary is a hard failure instead of a silent skip.
      cmake --build "${dir}" --target tidy
      ;;
    default) build_and_test default "" ;;
    asan)    build_and_test asan address ;;
    ubsan)   build_and_test ubsan undefined ;;
    tsan)
      build_and_test tsan thread
      # The full sweep above already ran every test instrumented; this
      # labeled pass gives CI one stable race-check gate to point at.
      echo "=== [tsan] ctest -L concurrency ==="
      ctest --test-dir build-ci/tsan --output-on-failure -j "${JOBS}" \
        -L concurrency
      ;;
    thread-safety)
      dir="build-ci/thread-safety"
      if command -v clang++ >/dev/null 2>&1; then
        echo "=== [thread-safety] configure (clang++, -Werror=thread-safety) ==="
        cmake -B "${dir}" -S . -DCMAKE_CXX_COMPILER=clang++ \
          -DTAPO_THREAD_SAFETY=ON -DTAPO_WERROR=ON
        echo "=== [thread-safety] build ==="
        cmake --build "${dir}" -j "${JOBS}"
        echo "=== [thread-safety] ctest -L concurrency ==="
        ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
          -L concurrency
      elif [ -n "${CI:-}" ]; then
        echo "FATAL: thread-safety config needs clang++ but it is not" \
          "installed and CI is set; the static gate cannot run" >&2
        exit 1
      else
        echo "=== [thread-safety] SKIPPED: clang++ not found (the" \
          "-Wthread-safety analysis is Clang-only; install clang to run" \
          "this configuration locally) ==="
      fi
      ;;
    robustness) build_and_test robustness address robustness ;;
    fleet)   build_and_test fleet address fleet ;;
    streaming) build_and_test streaming address streaming ;;
    chaos)
      # The storm harness reuses the asan/ubsan build trees' flags but gets
      # its own directories so the label runs stay independently cacheable.
      build_and_test chaos-asan address chaos
      build_and_test chaos-ubsan undefined chaos
      ;;
    *)
      echo "unknown configuration: ${cfg}" >&2
      exit 2
      ;;
  esac
done

echo "=== matrix OK: ${CONFIGS[*]} ==="
