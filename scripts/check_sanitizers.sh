#!/usr/bin/env bash
# Unified sanitizer-matrix driver.
#
# Builds the tree under each requested sanitizer configuration and runs
# the full ctest suite in it. Debug builds are used so the WARP_DCHECK
# invariant-oracle hooks in the core kernels are live under the
# sanitizers.
#
# Usage:
#   scripts/check_sanitizers.sh [entry ...] [-- ctest-args...]
#
# Entries (default: the full matrix, in this order):
#   address             ASan: out-of-bounds, use-after-free, leaks
#   undefined           UBSan: overflow, bad shifts, misaligned access,
#                       plus float-cast-overflow (which GCC's
#                       -fsanitize=undefined leaves out)
#   address,undefined   the combined ASan+UBSan build
#   thread              TSan: races in the parallel execution layer
#
# Environment:
#   WARP_THREADS   worker-pool override forwarded to the tests
#                  (default 4, so "auto" code paths take 4 workers even on
#                  a single-core host)
#   CTEST_EXCLUDE  extra ctest -E regex (e.g. to skip wall-clock-ratio
#                  tests that sanitizer slowdowns would distort)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

CXX_BIN="${CXX:-c++}"

DEFAULT_MATRIX=("address" "undefined" "address,undefined" "thread")
MATRIX=()
CTEST_EXTRA=()
parsing_ctest=0
for arg in "$@"; do
  if [ "$arg" = "--" ]; then
    parsing_ctest=1
  elif [ "$parsing_ctest" = 1 ]; then
    CTEST_EXTRA+=("$arg")
  else
    MATRIX+=("$arg")
  fi
done
[ ${#MATRIX[@]} -eq 0 ] && MATRIX=("${DEFAULT_MATRIX[@]}")

# Fail loudly — not silently skip — when the toolchain cannot build and
# run a binary under the requested sanitizer.
probe_sanitizer() {
  local flag="$1"
  local probe_dir
  probe_dir="$(mktemp -d)" || return 1
  local status=0
  if ! echo 'int main() { return 0; }' | \
      "$CXX_BIN" -fsanitize="$flag" -x c++ - -o "$probe_dir/probe" \
      > "$probe_dir/log" 2>&1; then
    status=1
  elif ! "$probe_dir/probe" > "$probe_dir/log" 2>&1; then
    status=1
  fi
  if [ $status -ne 0 ]; then
    echo "FATAL: compiler '$CXX_BIN' cannot build/run with -fsanitize=$flag:" >&2
    cat "$probe_dir/log" >&2
  fi
  rm -rf "$probe_dir"
  return $status
}

run_entry() {
  local entry="$1"
  local slug="${entry//,/-}"
  local build_dir="build-san-$slug"

  echo "=== sanitizer matrix: $entry (build dir: $build_dir) ==="
  # CMakeLists.txt adds float-cast-overflow to every undefined entry; the
  # probe checks the toolchain can build and run exactly that.
  probe_sanitizer "${entry/undefined/undefined,float-cast-overflow}" || return 2

  cmake -B "$build_dir" -S . \
        -DWARP_SANITIZE="$entry" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DWARP_BUILD_BENCHMARKS=OFF -DWARP_BUILD_EXAMPLES=OFF \
        > /dev/null || return 1
  cmake --build "$build_dir" -j || return 1

  # halt_on_error makes every sanitizer report a test failure instead of
  # a log line; leaks stay on for ASan unless the kernel blocks ptrace.
  local -a ctest_cmd=(ctest --test-dir "$build_dir" --output-on-failure)
  [ -n "${CTEST_EXCLUDE:-}" ] && ctest_cmd+=(-E "$CTEST_EXCLUDE")
  [ ${#CTEST_EXTRA[@]} -gt 0 ] && ctest_cmd+=("${CTEST_EXTRA[@]}")
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  WARP_THREADS="${WARP_THREADS:-4}" \
      "${ctest_cmd[@]}"
}

overall=0
failed_entries=()
for entry in "${MATRIX[@]}"; do
  if ! run_entry "$entry"; then
    overall=1
    failed_entries+=("$entry")
    echo "--- sanitizer matrix entry FAILED: $entry ---" >&2
  fi
done

if [ $overall -eq 0 ]; then
  echo "Sanitizer matrix passed: ${MATRIX[*]}"
else
  echo "Sanitizer matrix FAILED for: ${failed_entries[*]}" >&2
fi
exit $overall
