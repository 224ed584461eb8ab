#!/usr/bin/env bash
# Static-analysis gate, three legs (docs/STATIC_ANALYSIS.md):
#
#   1. clang-tidy over every first-party translation unit (src/, tests/,
#      bench/), using the check set in .clang-tidy.
#   2. sias-tidy: the project's own checks (sias-epoch-escape,
#      sias-latch-rank, sias-virtual-time, sias-metric-literal,
#      sias-rank-table, sias-dead-api) via tools/sias-tidy/sias_tidy_lite.py,
#      plus a grep that keeps heap WAL records inside src/mvcc/heap_pages.*.
#   3. Python: ruff + mypy --strict over the scripts listed in
#      pyproject.toml, when those tools are installed.
#
# Usage: scripts/lint.sh [path...]
#   no args = all first-party .cc files. Pass file paths to lint a subset
#   (e.g. the files touched by a change).
#
# Legs whose toolchain is absent are skipped with a notice telling you what
# to install, so the script is safe to call from a GCC-only environment;
# the CI lint job runs on an image that has the tools and treats any
# finding as a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

# ---------------------------------------------------------------------------
# Leg 1: stock clang-tidy checks (.clang-tidy, WarningsAsErrors: '*')
# ---------------------------------------------------------------------------
TIDY="${CLANG_TIDY:-clang-tidy}"
BUILD_DIR=build-lint
if command -v "$TIDY" >/dev/null 2>&1; then
  # clang-tidy needs a compilation database. Configure a dedicated build
  # tree so lint never dirties the main build/ directory.
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi

  files=("$@")
  if [ ${#files[@]} -eq 0 ]; then
    mapfile -t files < <(find src tests bench -name '*.cc' | sort)
  fi

  echo "lint: checking ${#files[@]} files with $TIDY"
  for f in "${files[@]}"; do
    "$TIDY" -p "$BUILD_DIR" --quiet "$f" || status=1
  done
else
  echo "lint: $TIDY not found; skipping stock checks" \
       "(Debian/Ubuntu: apt install clang-tidy)"
fi

# ---------------------------------------------------------------------------
# Leg 2: sias-tidy domain checks
# ---------------------------------------------------------------------------
echo "lint: sias-tidy via tools/sias-tidy/sias_tidy_lite.py"
python3 tools/sias-tidy/sias_tidy_lite.py src tests bench examples \
  || status=1

# Heap WAL records are built and applied in one place, HeapPages
# (src/mvcc/heap_pages.*); the redo dispatch in src/engine/database.cc is
# the only other code that names them.
heap_records=$(grep -rn 'WalRecordType::kHeap' src \
  | grep -v -e '^src/mvcc/heap_pages\.' -e '^src/engine/database\.cc:' \
  || true)
if [ -n "$heap_records" ]; then
  echo "$heap_records"
  echo "lint: heap WAL records named outside src/mvcc/heap_pages.*" >&2
  status=1
fi

# ---------------------------------------------------------------------------
# Leg 3: Python scripts (ruff + mypy --strict, configured in pyproject.toml)
# ---------------------------------------------------------------------------
PY_FILES=(scripts/bench_report.py tests/bench_report_test.py
          tests/rank_table_test.py tools/sias-tidy/sias_tidy_lite.py)
if command -v ruff >/dev/null 2>&1; then
  echo "lint: ruff over ${#PY_FILES[@]} python files"
  ruff check "${PY_FILES[@]}" || status=1
else
  echo "lint: ruff not found; skipping (pip install ruff)"
fi
if command -v mypy >/dev/null 2>&1; then
  echo "lint: mypy --strict over ${#PY_FILES[@]} python files"
  mypy "${PY_FILES[@]}" || status=1
else
  echo "lint: mypy not found; skipping (pip install mypy)"
fi

if [ "$status" -ne 0 ]; then
  echo "lint: FAIL (findings above)" >&2
else
  echo "lint: PASS"
fi
exit "$status"
