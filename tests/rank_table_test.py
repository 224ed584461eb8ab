#!/usr/bin/env python3
"""Tests for the sias-rank-table rule in tools/sias-tidy/sias_tidy_lite.py.

The rule cross-checks the three copies of the latch-rank table: the
`LatchRank` enum in src/check/latch_order.h, the `LatchRankName` switch in
src/check/latch_order.cc and the rank table in docs/CONCURRENCY.md. Each
test copies those three files to a temporary root, edits one of them, and
runs the rule through the command line there: the untouched copy must give
zero findings, and every single-side edit at least one, in the edited file.

Run directly (python3 tests/rank_table_test.py) or via ctest.
"""

from __future__ import annotations

import importlib.util
import io
import pathlib
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

_REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "sias_tidy_lite", _REPO / "tools" / "sias-tidy" / "sias_tidy_lite.py")
assert _spec is not None and _spec.loader is not None
lite = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = lite  # its dataclasses resolve through it
_spec.loader.exec_module(lite)

HEADER = pathlib.Path("src/check/latch_order.h")
SOURCE = pathlib.Path("src/check/latch_order.cc")
DOC = pathlib.Path("docs/CONCURRENCY.md")


class RankTableTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        for rel in (HEADER, SOURCE, DOC):
            (self.root / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(_REPO / rel, self.root / rel)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def edit(self, rel: pathlib.Path, old: str, new: str) -> None:
        path = self.root / rel
        text = path.read_text(encoding="utf-8")
        self.assertEqual(text.count(old), 1, f"{old!r} not unique in {rel}")
        path.write_text(text.replace(old, new), encoding="utf-8")

    def run_rule(self) -> tuple[int, list[str]]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = lite.main(["--root", str(self.root),
                            "--checks", "sias-rank-table"])
        return rc, out.getvalue().splitlines()

    def assert_flags(self, rel: pathlib.Path, text: str) -> None:
        rc, lines = self.run_rule()
        self.assertEqual(rc, 1)
        self.assertTrue(
            any(str(self.root / rel) in ln and text in ln
                and ln.endswith("[sias-rank-table]") for ln in lines),
            f"no finding in {rel} mentioning {text!r}: {lines}")

    def test_untouched_copy_is_clean(self) -> None:
        self.assertEqual(self.run_rule(), (0, []))

    def test_added_enumerator(self) -> None:
        self.edit(HEADER, "  kWal = 65,", "  kWal = 65,\n  kTamper = 66,")
        self.assert_flags(HEADER, "kTamper (= 66) has no case")
        self.assert_flags(HEADER, "kTamper (= 66) has no row")

    def test_changed_enumerator_value(self) -> None:
        self.edit(HEADER, "  kWal = 65,", "  kWal = 64,")
        self.assert_flags(DOC, "kWal documented as 65")

    def test_dropped_switch_case(self) -> None:
        self.edit(SOURCE, '    case LatchRank::kWal: return "wal";\n', "")
        self.assert_flags(HEADER, "kWal (= 65) has no case")

    def test_switch_case_without_enumerator(self) -> None:
        self.edit(SOURCE, "case LatchRank::kWal:", "case LatchRank::kWall:")
        self.assert_flags(SOURCE, "case kWall")

    def test_changed_documented_value(self) -> None:
        self.edit(DOC, "| `kWal` | 65 |", "| `kWal` | 66 |")
        self.assert_flags(DOC, "kWal documented as 66")

    def test_dropped_documented_row(self) -> None:
        path = self.root / DOC
        original = path.read_text(encoding="utf-8")
        for name, value in (("kWal", 65), ("kWalFlush", 62)):
            with self.subTest(rank=name):
                lines = original.splitlines(keepends=True)
                kept = [ln for ln in lines
                        if not ln.startswith(f"| `{name}` |")]
                self.assertEqual(len(kept), len(lines) - 1)
                path.write_text("".join(kept), encoding="utf-8")
                self.assert_flags(HEADER, f"{name} (= {value}) has no row")
                path.write_text(original, encoding="utf-8")

    def test_missing_file(self) -> None:
        (self.root / DOC).unlink()
        self.assert_flags(DOC, "missing")


if __name__ == "__main__":
    unittest.main()
