#!/usr/bin/env bash
# Builds and runs the tier-1 test suite under AddressSanitizer,
# ThreadSanitizer and UBSan (see the SIAS_SANITIZE option in CMakeLists.txt).
# Every sanitizer build also compiles in the latch-order validator (CMake
# defines SIAS_LATCH_CHECK whenever SIAS_SANITIZE is set), so the suite runs
# under the deadlock checker in every leg.
#
# Usage: scripts/sanitize.sh [address|thread|undefined]...
#   no args = all three. Each sanitizer gets its own build tree
#   (build-asan/ / build-tsan/ / build-ubsan/) so normal builds stay
#   untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address thread undefined)
fi

for san in "${sanitizers[@]}"; do
  case "$san" in
    address) dir=build-asan ;;
    thread) dir=build-tsan ;;
    undefined) dir=build-ubsan ;;
    *)
      echo "unknown sanitizer '$san' (want address|thread|undefined)" >&2
      exit 2
      ;;
  esac
  echo "=== $san sanitizer: configuring $dir ==="
  cmake -B "$dir" -S . -DSIAS_SANITIZE="$san" >/dev/null
  cmake --build "$dir" -j "$(nproc)"
  echo "=== $san sanitizer: running tests ==="
  # halt_on_error makes a sanitizer report fail the test run instead of
  # only printing; second_deadlock_stack improves TSan lock-order reports.
  # scripts/tsan.supp documents the known-benign reports it suppresses.
  case "$san" in
    thread)
      export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=$PWD/scripts/tsan.supp"
      ;;
    address)
      export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
      ;;
    undefined)
      # -fno-sanitize-recover=all already turns any UB report into an
      # abort; print_stacktrace makes the report actionable.
      export UBSAN_OPTIONS="print_stacktrace=1"
      ;;
  esac
  (cd "$dir" && ctest --output-on-failure)
  echo "=== $san sanitizer: PASS ==="
done
