#!/usr/bin/env python3
"""sias-tidy-lite: the sias-tidy checks for the SIAS domain protocols.

A dependency-free lexical engine: every C++ file is scanned with comments
and literal contents blanked, and the rules below run over that text. The
tables the rules consult (rank table, epoch-protected functions, metric
catalogue) are parsed from their sources of truth in the tree, so the
checks run the same everywhere, GCC-only builds and ctest included
(docs/STATIC_ANALYSIS.md).

Checks:

  sias-epoch-escape    pointers obtained from SIAS_EPOCH_PROTECTED
                       functions must not be stored to fields, globals or
                       statics, or returned from non-annotated functions
  sias-latch-rank      lexically nested latch guard acquisitions must
                       respect the rank table in src/check/latch_order.h;
                       bare std:: mutexes/guards are banned in src/
  sias-virtual-time    wall-clock / nondeterminism sources are banned
                       outside the allowlist; SIAS_WALLCLOCK_OK waives one
                       call site with a non-empty justification
  sias-metric-literal  metric names passed to the obs registry must be
                       string literals catalogued in docs/OBSERVABILITY.md
  sias-rank-table      the LatchRank enum, the LatchRankName switch and the
                       docs/CONCURRENCY.md rank table agree exactly (a
                       whole-tree rule: it reads those three files under
                       --root, whatever PATHs are given)
  sias-dead-api        every function declared in a src/ header is called
                       from src/, bench/, perfbench/, examples/ or tools/
                       (tests do not count); SIAS_DEAD_API_OK waives one
                       test hook with a non-empty justification (a
                       whole-tree rule, like sias-rank-table)

Usage:
  sias_tidy_lite.py [--root DIR] [--checks a,b] [PATH...]   # lint (default src/)
  sias_tidy_lite.py --fixtures DIR                          # fixture battery
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass, field

ALL_CHECKS = (
    "sias-epoch-escape",
    "sias-latch-rank",
    "sias-virtual-time",
    "sias-metric-literal",
    "sias-rank-table",
    "sias-dead-api",
)

# Paths (relative to the repo root, '/'-separated) where wall-clock use is
# legitimate: test / bench / example mains measure wall throughput.
VIRTUAL_TIME_ALLOWED_PREFIXES = (
    "bench/",
    "tests/",
    "examples/",
)

# src/common/latch.h implements the capability wrappers over the standard
# primitives, and src/check/ implements the latch-order validator itself
# (its internal graph mutex cannot be a ranked Mutex without recursing into
# the checker). Only these may name bare std:: lock types.
BARE_MUTEX_ALLOWED_PREFIXES = (
    "src/common/latch.h",
    "src/check/",
)

WAIVER_WINDOW_LINES = 5


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: warning: {self.message} [{self.check}]"


@dataclass
class StringLit:
    line: int
    col: int
    value: str


@dataclass
class ScannedFile:
    """A C++ source file with comments and literal *contents* blanked.

    `code` keeps the original line structure (and the quote characters of
    string literals) so regexes see real code shape; `strings` records each
    literal's location and contents for the checks that need values.
    """

    path: str
    rel: str
    code: list[str] = field(default_factory=list)
    strings: list[StringLit] = field(default_factory=list)


def scan_cpp(path: pathlib.Path, rel: str) -> ScannedFile:
    text = path.read_text(encoding="utf-8", errors="replace")
    out = ScannedFile(path=str(path), rel=rel)
    code: list[str] = []
    cur: list[str] = []
    strings: list[StringLit] = []
    line = 1
    col = 0
    i = 0
    n = len(text)
    state = "normal"  # normal | line_comment | block_comment | string | char
    lit: list[str] = []
    lit_line = 1
    lit_col = 0

    def put(ch: str) -> None:
        cur.append(ch)

    def newline() -> None:
        nonlocal line, col
        code.append("".join(cur))
        cur.clear()
        line += 1
        col = 0

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            if state == "line_comment":
                state = "normal"
            newline()
            i += 1
            continue
        col += 1
        if state == "normal":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                put(" ")
                put(" ")
                i += 2
                col += 1
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                put(" ")
                put(" ")
                i += 2
                col += 1
                continue
            if ch == '"':
                state = "string"
                lit = []
                lit_line, lit_col = line, col
                put('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                put("'")
                i += 1
                continue
            put(ch)
            i += 1
            continue
        if state == "line_comment":
            put(" ")
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "normal"
                put(" ")
                put(" ")
                i += 2
                col += 1
                continue
            put(" ")
            i += 1
            continue
        if state == "string":
            if ch == "\\" and nxt:
                lit.append(ch + nxt)
                put(" ")
                put(" ")
                i += 2
                col += 1
                continue
            if ch == '"':
                state = "normal"
                strings.append(StringLit(lit_line, lit_col, "".join(lit)))
                put('"')
                i += 1
                continue
            lit.append(ch)
            put(" ")
            i += 1
            continue
        # state == "char"
        if ch == "\\" and nxt:
            put(" ")
            put(" ")
            i += 2
            col += 1
            continue
        if ch == "'":
            state = "normal"
            put("'")
            i += 1
            continue
        put(" ")
        i += 1
    code.append("".join(cur))
    out.code = code
    out.strings = strings
    return out


# ---------------------------------------------------------------------------
# Global tables (pass 1)
# ---------------------------------------------------------------------------

RANK_ENUM_RE = re.compile(r"\b(k\w+)\s*=\s*(\d+)")
# Any latch brace-initialised with a rank, whatever its type is spelled as
# (Mutex, SharedMutex, SpinLatch, the RwLatch alias, ...).
LATCH_DECL_RE = re.compile(r"\b(\w+)\s*\{\s*(?:\w+::)*LatchRank::(k\w+)\b")
EPOCH_ANNOT = "SIAS_EPOCH_PROTECTED"
# Function name = last identifier before the first '(' of the declarator
# that follows the annotation (skips return types, *, &, templates).
FUNC_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


@dataclass
class Tables:
    """Cross-file facts the per-file checks consult."""

    ranks: dict[str, int] = field(default_factory=dict)  # kName -> value
    # "Class::member" and bare "member" -> set of declared ranks. Bare-name
    # entries are the fallback for guards on another object's latch
    # (`&pool_->mu_`), usable only when the name is globally unambiguous.
    member_ranks: dict[str, set[int]] = field(default_factory=dict)
    epoch_fns: set[str] = field(default_factory=set)
    # Data members annotated SIAS_EPOCH_PROTECTED — members of an object that
    # lives inside its owner's pin (a resumable read task), which may hold
    # protected pointers and are themselves protected — by the stem of the
    # declaring file (`src/core/sias_table`): they apply to its .h/.cc pair.
    epoch_fields: dict[str, set[str]] = field(default_factory=dict)
    clock_aliases: set[str] = field(default_factory=set)  # Clock in Clock::now()
    catalogue: set[str] = field(default_factory=set)
    catalogue_prefixes: list[str] = field(default_factory=list)


def parse_rank_table(latch_order_h: pathlib.Path) -> dict[str, tuple[int, int]]:
    """`enum class LatchRank` -> {kName: (value, line)}."""
    ranks: dict[str, tuple[int, int]] = {}
    in_enum = False
    for i, ln in enumerate(scan_cpp(latch_order_h, latch_order_h.name).code):
        in_enum = in_enum or "enum class LatchRank" in ln
        if in_enum:
            for m in RANK_ENUM_RE.finditer(ln):
                ranks[m.group(1)] = (int(m.group(2)), i + 1)
            if "};" in ln and ranks:
                break
    return ranks


CATALOGUE_NAME_RE = re.compile(r"`([a-z][a-z0-9_.*]*)`")


def parse_catalogue(obs_md: pathlib.Path) -> tuple[set[str], list[str]]:
    """Backticked metric names inside the markdown tables of the metric
    catalogue section(s) of docs/OBSERVABILITY.md."""
    names: set[str] = set()
    prefixes: list[str] = []
    for ln in obs_md.read_text(encoding="utf-8").splitlines():
        if not ln.lstrip().startswith("|"):
            continue
        for m in CATALOGUE_NAME_RE.finditer(ln):
            name = m.group(1)
            if "." not in name:
                continue  # prose like `fetch_add`, never a metric name
            if name.endswith(".*"):
                prefixes.append(name[:-1])  # keep the trailing '.'
            else:
                names.add(name)
    return names, prefixes


CLASS_HEADER_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?![\w;,)>*&])")


class ClassTracker:
    """Tracks the innermost enclosing class/struct name, line by line.

    Purely lexical: a class header arms a pending name which binds to the
    next '{'; every other '{' pushes an anonymous scope. A `Class::Method(`
    definition at file scope (the .cc idiom) also sets the context until its
    body closes.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.stack: list[tuple[int, str | None]] = []
        self.pending: str | None = None
        self.method_class: str | None = None

    def current(self) -> str | None:
        if self.method_class is not None:
            return self.method_class
        for _, name in reversed(self.stack):
            if name is not None:
                return name
        return None

    def feed(self, ln: str) -> None:
        hm = CLASS_HEADER_RE.search(ln)
        if hm and not re.search(
            re.escape(hm.group(0)) + r"[^{;]*;", ln
        ):  # skip forward declarations
            self.pending = hm.group(1)
        if self.depth == 0 and self.method_class is None:
            dm = re.search(r"\b(\w+)::~?\w+\s*\(", ln)
            if dm:
                self.method_class = dm.group(1)
        for ch in ln:
            if ch == "{":
                self.depth += 1
                self.stack.append((self.depth, self.pending))
                self.pending = None
            elif ch == "}":
                while self.stack and self.stack[-1][0] >= self.depth:
                    self.stack.pop()
                self.depth -= 1
                if self.depth <= 0:
                    self.depth = max(self.depth, 0)
                    self.method_class = None
        if self.depth == 0 and ";" in ln:
            self.pending = None
            self.method_class = None


def collect_decl_facts(sf: ScannedFile, tables: Tables) -> None:
    """Pass 1 over one file: latch member ranks, wall-clock aliases and
    epoch-annotated names."""
    tracker = ClassTracker()
    for ln in sf.code:
        cls = tracker.current()
        for m in CLOCK_ALIAS_RE.finditer(ln):
            tables.clock_aliases.add(m.group(1) or m.group(2))
        for m in LATCH_DECL_RE.finditer(ln):
            member, rank_name = m.group(1), m.group(2)
            if rank_name in tables.ranks:
                rank = tables.ranks[rank_name]
                tables.member_ranks.setdefault(member, set()).add(rank)
                if cls is not None:
                    tables.member_ranks.setdefault(
                        f"{cls}::{member}", set()
                    ).add(rank)
        tracker.feed(ln)
    text = "\n".join(sf.code)
    for m in re.finditer(re.escape(EPOCH_ANNOT), text):
        if text[m.end() : m.end() + 1].isalnum():  # a longer identifier
            continue
        if text[text.rfind("\n", 0, m.start()) + 1 :].lstrip().startswith("#"):
            continue  # the macro's own #define
        tail = text[m.end() : m.end() + 240]
        depth = 0
        best: str | None = None
        for fm in FUNC_NAME_RE.finditer(tail):
            prefix = tail[: fm.start(1)]
            depth = prefix.count("<") - prefix.count(">")
            if depth > 0:
                continue
            if "{" in prefix or ";" in prefix:
                break
            best = fm.group(1)
            break
        if best is not None and best != "static_assert":
            tables.epoch_fns.add(best)
            continue
        decl = tail.split(";", 1)[0]
        if ";" in tail and "(" not in decl and "{" not in decl.split("=")[0]:
            fm = re.search(r"([A-Za-z_]\w*)\s*(?:=[^=]|\{|$)", decl.strip())
            if fm is not None:  # an annotated data member
                stem = sf.rel.rsplit(".", 1)[0]
                tables.epoch_fields.setdefault(stem, set()).add(fm.group(1))


# ---------------------------------------------------------------------------
# sias-virtual-time
# ---------------------------------------------------------------------------

WALL_CLOCK = r"\b(?:system|steady|high_resolution)_clock"
# A free function called bare, as std::f or as ::f (not x.f, p->f, X::f).
FREE_FN = r"(?:\bstd::|(?<![\w.:>])(?:::)?)"
BANNED_TIME_RES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(WALL_CLOCK + r"::now\s*\("), "wall-clock chrono ::now()"),
    (re.compile(FREE_FN + r"time\s*\(\s*(?:nullptr|0|NULL|&)"), "time()"),
    (re.compile(FREE_FN + r"s?rand\s*\(\s*[)\w]"), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (
        re.compile(r"\b__?rdtscp?\b|__builtin_(?:ia32_rdtscp?|readcyclecounter)"),
        "raw TSC read",
    ),
]
# `using Clock = std::chrono::steady_clock;` / `typedef ... Clock;`
CLOCK_ALIAS_RE = re.compile(
    rf"\busing\s+(\w+)\s*=\s*[\w:]*{WALL_CLOCK}\s*;"
    rf"|\btypedef\s+[\w:]*{WALL_CLOCK}\s+(\w+)\s*;"
)
WAIVER_TOKEN = "SIAS_WALLCLOCK_OK"


def justified(sf: ScannedFile, idx: int, col: int) -> bool:
    """Does the waiver macro at 0-based line `idx`, column `col` carry a
    non-empty string, on its own line or the next?"""
    just = next(
        (
            s
            for s in sf.strings
            if (s.line == idx + 1 and s.col > col) or s.line == idx + 2
        ),
        None,
    )
    return just is not None and len(just.value) > 0


def waiver_at(sf: ScannedFile, line_no: int) -> tuple[bool, bool]:
    """(waived, has_justification) for a banned call at `line_no` (1-based):
    a SIAS_WALLCLOCK_OK token on the same or the preceding five lines."""
    lo = max(0, line_no - 1 - WAIVER_WINDOW_LINES)
    for idx in range(lo, line_no):
        col = sf.code[idx].find(WAIVER_TOKEN)
        if col >= 0:
            return True, justified(sf, idx, col)
    return False, False


def check_virtual_time(sf: ScannedFile, tables: Tables) -> list[Finding]:
    if sf.rel.startswith(VIRTUAL_TIME_ALLOWED_PREFIXES):
        return []
    banned = BANNED_TIME_RES + [
        (re.compile(rf"\b{alias}::now\s*\("), f"wall-clock {alias}::now()")
        for alias in sorted(tables.clock_aliases)
    ]
    findings: list[Finding] = []
    waiver_lines_used: set[int] = set()
    for i, ln in enumerate(sf.code):
        for pat, what in banned:
            if not pat.search(ln):
                continue
            waived, justified = waiver_at(sf, i + 1)
            if waived:
                lo = max(0, i - WAIVER_WINDOW_LINES)
                for idx in range(lo, i + 1):
                    if WAIVER_TOKEN in sf.code[idx]:
                        waiver_lines_used.add(idx + 1)
                if not justified:
                    findings.append(
                        Finding(
                            sf.path,
                            i + 1,
                            "sias-virtual-time",
                            f"{what} waived without a non-empty "
                            "justification string",
                        )
                    )
                continue
            findings.append(
                Finding(
                    sf.path,
                    i + 1,
                    "sias-virtual-time",
                    f"{what} breaks virtual-time determinism "
                    "(SIAS_CRASH_SEED replays, device simulation); use "
                    "VirtualClock, sias::Random, or waive with "
                    "SIAS_WALLCLOCK_OK(\"why\")",
                )
            )
    for i, ln in enumerate(sf.code):
        if WAIVER_TOKEN in ln and (i + 1) not in waiver_lines_used:
            if "#define" in ln or "define " in sf.code[max(0, i - 1)]:
                continue
            findings.append(
                Finding(
                    sf.path,
                    i + 1,
                    "sias-virtual-time",
                    "SIAS_WALLCLOCK_OK waiver with no banned call in the "
                    f"next {WAIVER_WINDOW_LINES} lines (stale waiver?)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# sias-latch-rank
# ---------------------------------------------------------------------------

GUARD_DECL_RE = re.compile(
    r"\b(MutexLock|ReadLock|WriteLock|SpinLatchGuard)\s+\w+\s*[({]\s*&?"
    r"([\w.>-]+?)\s*[)}]"
)
BARE_MUTEX_RE = re.compile(
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock|mutex|"
    r"shared_mutex|recursive_mutex|timed_mutex)\b"
)


def member_of(expr: str) -> str:
    """`pool_->mu_` -> `mu_`, `s.mu` -> `mu`, `mu_` -> `mu_`."""
    return re.split(r"->|\.", expr)[-1]


def check_latch_rank(sf: ScannedFile, tables: Tables) -> list[Finding]:
    findings: list[Finding] = []
    if not sf.rel.startswith(BARE_MUTEX_ALLOWED_PREFIXES) and sf.rel.startswith(
        "src/"
    ):
        for i, ln in enumerate(sf.code):
            m = BARE_MUTEX_RE.search(ln)
            if m:
                findings.append(
                    Finding(
                        sf.path,
                        i + 1,
                        "sias-latch-rank",
                        f"bare {m.group(0)} is invisible to the rank "
                        "discipline and the latch-order validator; use the "
                        "capability types in common/latch.h",
                    )
                )
    # Lexical nesting of guards: a stack of (brace_depth, rank|None, text).
    depth = 0
    stack: list[tuple[int, int | None, str]] = []
    tracker = ClassTracker()
    for i, ln in enumerate(sf.code):
        cls = tracker.current()
        tracker.feed(ln)
        for m in GUARD_DECL_RE.finditer(ln):
            expr = m.group(2)
            member = member_of(expr)
            ranks: set[int] = set()
            if member == expr and cls is not None:
                # Bare member name: resolve through the enclosing class.
                ranks = tables.member_ranks.get(f"{cls}::{member}", set())
            if not ranks:
                ranks = tables.member_ranks.get(member, set())
            rank = next(iter(ranks)) if len(ranks) == 1 else None
            for _, outer_rank, outer_txt in stack:
                if outer_rank is None or rank is None:
                    continue
                if rank <= outer_rank:
                    rel = "equal to" if rank == outer_rank else "below"
                    findings.append(
                        Finding(
                            sf.path,
                            i + 1,
                            "sias-latch-rank",
                            f"acquiring '{m.group(2)}' (rank {rank}) "
                            f"{rel} held '{outer_txt}' (rank {outer_rank}) "
                            "violates the latch-rank order "
                            "(docs/CONCURRENCY.md)",
                        )
                    )
            stack.append((depth + ln[: m.start()].count("{"), rank, m.group(2)))
        for ch in ln:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while stack and stack[-1][0] >= depth + 1:
                    stack.pop()
        if depth <= 0:
            stack.clear()
    return findings


# ---------------------------------------------------------------------------
# sias-epoch-escape
# ---------------------------------------------------------------------------

ASSIGN_RE = re.compile(r"([\w.\[\]>-]+)\s*=\s*([^=;][^;]*);")
RETURN_RE = re.compile(r"\breturn\s+([^;]+);")
GUARD_VAR_RE = re.compile(r"\bPageGuard\s+(\w+)\b")
CAST_RE = re.compile(
    r"^(?:\(\s*[\w:<>\s*&]+\)|(?:reinterpret|static|const)_cast\s*<[^>]*>\s*\(|"
    r"[&*(\s]+)+"
)
# Methods whose name alone is too common to taint globally (.data() exists
# on std::string, std::vector, Slice, ...). They taint only through a
# receiver the engine knows is a PageGuard local.
RECEIVER_ONLY_METHODS = ("data", "page")
# Method calls on an already-tainted receiver that hand back the protected
# storage itself (atomic slot load, frame surface accessors). Every other
# method call on a tainted receiver is treated as a value copy out of the
# pointee — the sanctioned idiom.
TAINT_PROPAGATING_METHODS = ("load", "data", "page")
# The method called at the end of an access path: `.SlotFor(`, `->a.f(`,
# `::f(`.
RECEIVER_CALL_RE = re.compile(
    r"(?:(?:\.|->|::)\s*\w+\s*)*?(?:\.|->|::)\s*(\w+)\s*\("
)
# A variable declaration; group 1 is set when it has static storage.
STORAGE_DECL_RE = re.compile(
    r"^\s*(static\s+|thread_local\s+)?(?:(?:const|constexpr|inline)\s+)*"
    r"[\w:]+(?:<[^;=]*>)?[\s*&]+(?:const\s+)?[\s*&]*(\w+)\s*(?:=[^=]|;)"
)


def rhs_taints(
    rhs: str,
    epoch_fns: set[str],
    tainted: set[str],
    guard_vars: set[str],
) -> bool:
    """Does this right-hand side yield an epoch-protected pointer?

    Lexical rule: taint flows only from the *root* of the expression — a
    tainted variable, a call to an annotated function (bare or through a
    receiver), or a `.data()/.page()` access on a known PageGuard local. A
    tainted name appearing merely as an argument to some other call
    (`DecodeFixed64(p)`, `memcpy(dst, p, n)`, `std::string(p, n)`) is the
    sanctioned copy-out idiom and stays clean.
    """
    expr = rhs.strip()
    m = CAST_RE.match(expr)
    if m:
        expr = expr[m.end() :].lstrip()
    rm = re.match(r"([A-Za-z_]\w*)", expr)
    if not rm:
        return False
    root = rm.group(1)
    after = expr[rm.end() :].lstrip()
    meth = re.match(r"(?:\.|->)\s*(\w+)\s*\(", after)
    if root in tainted:
        if meth is not None:
            return meth.group(1) in TAINT_PROPAGATING_METHODS
        if re.match(r"==|!=|<|>|\?|\[|\.|->", after):
            return False  # comparison / pointee field or element access
        return True  # bare pointer, pointer arithmetic, or trailing ')'
    if root in epoch_fns and root not in RECEIVER_ONLY_METHODS and after.startswith("("):
        return True
    call = RECEIVER_CALL_RE.match(after)
    method = call.group(1) if call else ""
    if method in epoch_fns and method not in RECEIVER_ONLY_METHODS:
        return True
    if root in guard_vars:
        if meth and meth.group(1) in RECEIVER_ONLY_METHODS:
            return True
    return False


def is_nonlocal_lvalue(lhs: str) -> bool:
    """Members (trailing '_' by project convention, or an access path) and
    globals (g_ prefix) count as escaping stores."""
    leaf = member_of(lhs)
    base = lhs.split("[")[0]
    if "->" in base or "." in base:
        return True
    return leaf.endswith("_") or leaf.startswith("g_")


def check_epoch_escape(sf: ScannedFile, tables: Tables) -> list[Finding]:
    findings: list[Finding] = []
    if not tables.epoch_fns:
        return findings
    fields = tables.epoch_fields.get(sf.rel.rsplit(".", 1)[0], set())
    tainted: set[str] = set()
    guard_vars: set[str] = set()
    statics: set[str] = set()  # globals and statics declared in this file
    depth = 0
    ns_depth = 0
    fn_annotated_stack: list[bool] = []
    pending_annot = False
    for i, ln in enumerate(sf.code):
        if EPOCH_ANNOT in ln and "#define" not in ln:
            pending_annot = True
        opens = ln.count("{")
        ns_opens = (
            1
            if re.match(r"\s*(?:inline\s+)?namespace\b", ln) and opens
            else 0
        )
        ns_depth += ns_opens
        # Function-body entry approximation: a non-namespace '{' at
        # namespace level starts a top-level body; remember whether it was
        # annotated.
        if opens - ns_opens > 0 and depth == ns_depth - ns_opens:
            fn_annotated_stack = [pending_annot]
            pending_annot = False
            tainted = set(fields)
            guard_vars = set()
        for gm in GUARD_VAR_RE.finditer(ln):
            guard_vars.add(gm.group(1))
        dm = STORAGE_DECL_RE.match(ln)
        static_decl = False
        if dm and (dm.group(1) or depth <= ns_depth):
            static_decl = True
            statics.add(dm.group(2))
        # Declarations / assignments (ASSIGN_RE's lhs group ends on the
        # variable name for both `x = rhs;` and `Type x = rhs;`).
        for m in ASSIGN_RE.finditer(ln):
            lhs, rhs = m.group(1), m.group(2)
            if not rhs_taints(rhs, tables.epoch_fns, tainted, guard_vars):
                continue
            decl = re.search(
                r"\b(?:auto|Slice|SlottedPage|const)\b[\w:<>\s*&]*"
                + re.escape(lhs)
                + r"\s*=",
                ln,
            )
            if decl is not None:
                escapes = static_decl
            elif member_of(lhs) in fields:
                escapes = False  # an annotated member: pinned with its owner
            else:
                escapes = lhs in statics or is_nonlocal_lvalue(lhs)
            if not escapes:
                tainted.add(member_of(lhs.lstrip("*&")))
            else:
                findings.append(
                    Finding(
                        sf.path,
                        i + 1,
                        "sias-epoch-escape",
                        f"storing epoch-protected pointer into '{lhs}' "
                        "escapes the epoch/pin scope; copy the pointee or "
                        "keep the owning guard instead",
                    )
                )
        rm = RETURN_RE.search(ln)
        if rm and rhs_taints(rm.group(1), tables.epoch_fns, tainted, guard_vars):
            annotated = bool(fn_annotated_stack and fn_annotated_stack[0])
            if not annotated:
                findings.append(
                    Finding(
                        sf.path,
                        i + 1,
                        "sias-epoch-escape",
                        "returning an epoch-protected pointer from a "
                        "function not marked SIAS_EPOCH_PROTECTED "
                        "re-publishes it past the guard scope",
                    )
                )
        depth += opens - ln.count("}")
        if depth < 0:
            depth = 0
        if depth < ns_depth:
            ns_depth = depth  # a namespace closed
        if opens == 0 and ";" in ln:
            # A statement ended without opening a body: any armed annotation
            # belonged to a prototype, not a definition.
            pending_annot = False
        if depth <= ns_depth and "}" in ln:
            tainted = set(fields)
            fn_annotated_stack = []
    return findings


# ---------------------------------------------------------------------------
# sias-metric-literal
# ---------------------------------------------------------------------------

# Requiring a member-access receiver distinguishes real call sites
# (`reg.GetCounter(...)`, `registry->GetGauge(...)`) from declarations and
# the registry's own out-of-line definitions.
REGISTRY_CALL_RE = re.compile(r"(?:\.|->)\s*Get(?:Counter|Gauge|Histogram)\s*\(")


def catalogued(name: str, tables: Tables) -> bool:
    if name in tables.catalogue:
        return True
    return any(name.startswith(p) for p in tables.catalogue_prefixes)


def check_metric_literal(sf: ScannedFile, tables: Tables) -> list[Finding]:
    findings: list[Finding] = []
    if sf.rel.startswith("src/obs/metrics"):
        return findings  # the registry's own definition
    if "/" in sf.rel and not sf.rel.startswith("src/"):
        # The catalogue governs production telemetry. Unit tests (obs_test)
        # register scratch names to exercise the registry itself;
        # bare-filename fixtures stay covered.
        return findings
    for i, ln in enumerate(sf.code):
        for m in REGISTRY_CALL_RE.finditer(ln):
            after = ln[m.end() :].lstrip()
            lit: StringLit | None = None
            if after.startswith('"'):
                col = m.end() + (len(ln[m.end() :]) - len(after)) + 1
                lit = next(
                    (
                        s
                        for s in sf.strings
                        if s.line == i + 1 and s.col == col
                    ),
                    None,
                )
            elif after == "" and i + 1 < len(sf.code):
                lit = next(
                    (s for s in sf.strings if s.line == i + 2), None
                )
            if lit is None:
                if after.startswith(")"):
                    continue  # zero-arg overload / unrelated Get*()
                findings.append(
                    Finding(
                        sf.path,
                        i + 1,
                        "sias-metric-literal",
                        "metric name must be a string literal so the "
                        "catalogue check (and grep) can see it",
                    )
                )
                continue
            if tables.catalogue and not catalogued(lit.value, tables):
                findings.append(
                    Finding(
                        sf.path,
                        i + 1,
                        "sias-metric-literal",
                        f"metric '{lit.value}' is not in the "
                        "docs/OBSERVABILITY.md catalogue; add it to the "
                        "table (or fix the typo)",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# sias-rank-table
# ---------------------------------------------------------------------------

CASE_RE = re.compile(r"\bcase\s+LatchRank::(k\w+)\s*:")
DOC_ROW_RE = re.compile(r"^\s*\|\s*`(k\w+)`\s*\|\s*(\d+)\s*\|")
# Documented in prose under the table rather than as a row: rank 0 marks
# ad-hoc mutexes outside the engine proper.
PROSE_ONLY_RANKS = frozenset({"kUnranked"})


def check_latch_rank_table(root: pathlib.Path) -> list[Finding]:
    """The LatchRank enum is the source of truth; the LatchRankName switch
    needs one case per enumerator and the docs/CONCURRENCY.md table one row
    per enumerator (with its value) except the prose-only ones."""
    header = root / "src" / "check" / "latch_order.h"
    source = root / "src" / "check" / "latch_order.cc"
    doc = root / "docs" / "CONCURRENCY.md"
    findings: list[Finding] = []

    def add(path: pathlib.Path, line: int, message: str) -> None:
        findings.append(Finding(str(path), line, "sias-rank-table", message))

    for f in (header, source, doc):
        if not f.exists():
            add(f, 1, "rank-table source file is missing")
    if findings:
        return findings
    enum = parse_rank_table(header)
    cases = {
        m.group(1): i + 1
        for i, ln in enumerate(scan_cpp(source, source.name).code)
        for m in CASE_RE.finditer(ln)
    }
    rows = {
        m.group(1): (int(m.group(2)), i + 1)
        for i, ln in enumerate(doc.read_text(encoding="utf-8").splitlines())
        if (m := DOC_ROW_RE.match(ln))
    }
    if not enum:
        add(header, 1, "no LatchRank enumerators parsed")
    for name, (value, line) in sorted(enum.items()):
        if name not in cases:
            add(header, line, f"{name} (= {value}) has no case in LatchRankName")
        if name not in rows and name not in PROSE_ONLY_RANKS:
            add(header, line, f"{name} (= {value}) has no row in {doc.name}")
    for name, line in sorted(cases.items()):
        if name not in enum:
            add(source, line, f"LatchRankName case {name} is not an enumerator")
    for name, (value, line) in sorted(rows.items()):
        if name not in enum or name in PROSE_ONLY_RANKS:
            add(doc, line, f"rank table row {name} is not a ranked enumerator")
        elif value != enum[name][0]:
            add(doc, line, f"{name} documented as {value}, enum says {enum[name][0]}")
    return findings


# ---------------------------------------------------------------------------
# sias-dead-api
# ---------------------------------------------------------------------------

# Where a call makes a src/ function live. tests/ is not a consumer: code
# that only its own unit test calls is dead. The lint fixtures are not
# either: their self-contained stubs reuse engine names.
DEAD_API_CONSUMER_DIRS = ("src", "bench", "perfbench", "examples", "tools")
DEAD_API_IGNORED_PREFIXES = ("tools/sias-tidy/test/",)
DEAD_API_WAIVER = "SIAS_DEAD_API_OK"
API_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|\S")
# Identifiers followed by '(' that never name a declared function.
NOT_FUNCTION_NAMES = frozenset(
    {
        "alignas", "alignof", "auto", "bool", "char", "decltype", "double",
        "float", "int", "long", "noexcept", "operator", "requires", "short",
        "signed", "sizeof", "static_assert", "typeid", "unsigned", "void",
        "__attribute__",
    }
)
# A declaration with one of these tokens is exempt: overrides are called
# through their base, the rest are not callable by name.
DEAD_API_EXEMPT_TOKENS = frozenset(
    {"virtual", "override", "final", "friend", "operator", "delete", "default"}
)
# `class Name`, `struct alignas(64) Name`, `class SIAS_CAPABILITY("mutex") Name`.
OWNER_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:(?:alignas|[A-Z_]+)\s*\([^)]*\)\s*)?(\w+)"
)


@dataclass
class ApiDecl:
    name: str
    owner: str | None
    path: str
    line: int


@dataclass
class ApiScan:
    """One file's function declarations (the declarator names at namespace
    or class scope) and every name it calls (followed by '(' or template
    arguments and '(', or address-taken with '&')."""

    decls: list[ApiDecl] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)


def scan_api(sf: ScannedFile) -> ApiScan:
    out = ApiScan()
    toks: list[tuple[int, str, bool]] = []  # (line, token, in a directive)
    continued = False
    for i, ln in enumerate(sf.code):
        directive = continued or ln.lstrip().startswith("#")
        continued = directive and ln.rstrip().endswith("\\")
        toks += [(i + 1, m.group(0), directive) for m in API_TOKEN_RE.finditer(ln)]

    def tok(k: int) -> str:
        return toks[k][1] if 0 <= k < len(toks) else ""

    def is_ident(k: int) -> bool:
        return tok(k)[:1].isalpha() or tok(k)[:1] == "_"

    def is_call(k: int) -> bool:
        nxt = tok(k + 1)
        if nxt == "(":
            return True
        if nxt == "<":  # Name<Args>(
            depth = 0
            for j in range(k + 1, min(k + 40, len(toks))):
                t = tok(j)
                depth += (t == "<") - (t == ">")
                if t in (";", "{", "}"):
                    return False
                if depth == 0:
                    return tok(j + 1) == "("
            return False
        j = k - 1
        while tok(j) == "::" and is_ident(j - 1):
            j -= 2
        return tok(j) == "&"  # &Fn, &Class::Fn

    # Open braces as (kind, class name): "ns" is a namespace or the file,
    # "class" a class, struct, union or enum body, "fn" a function body or a
    # braced initialiser, where every name is a use and none a declaration.
    scopes: list[tuple[str, str | None]] = [("ns", None)]
    stmt: list[str] = []
    parens = 0
    angles = 0
    initialized = False
    declarator: tuple[str, int, bool] | None = None  # name, line, qualified

    def reset() -> None:
        nonlocal stmt, parens, angles, initialized, declarator
        stmt, parens, angles, initialized, declarator = [], 0, 0, False, None

    def finish() -> None:
        if declarator is not None:
            name, line, qualified = declarator
            owner = scopes[-1][1]
            if not (
                qualified
                or name in (owner, "main")  # constructors; the runtime's entry
                or DEAD_API_EXEMPT_TOKENS.intersection(stmt)
                or stmt[0] in (",", ":")  # a constructor's member initialisers
            ):
                out.decls.append(ApiDecl(name, owner, sf.path, line))
        reset()

    for k, (line, t, directive) in enumerate(toks):
        if directive:
            if is_ident(k) and tok(k + 1) == "(":
                out.calls.add(t)
            continue
        kind = scopes[-1][0]
        if kind == "fn":
            if t == "{":
                scopes.append(("fn", None))
            elif t == "}":
                scopes.pop()
                if scopes[-1][0] != "fn":
                    reset()
            elif is_ident(k) and is_call(k):
                out.calls.add(t)
            continue
        if t == "{":
            words = set(stmt)
            owner_m = OWNER_RE.search(" ".join(stmt))
            if "namespace" in words or "extern" in words:
                scope: tuple[str, str | None] = ("ns", None)
            elif declarator is None and owner_m is not None:
                scope = ("class", owner_m.group(1))
            elif declarator is None and "enum" in words:
                scope = ("class", None)
            else:
                scope = ("fn", None)  # a body or a braced initialiser
            finish()
            scopes.append(scope)
            continue
        if t == "}":
            if len(scopes) > 1:
                scopes.pop()
            reset()
            continue
        if t == ";":
            finish()
            continue
        if t == ":" and stmt in (["public"], ["private"], ["protected"]):
            reset()
            continue
        stmt.append(t)
        if t == "(":
            parens += 1
        elif t == ")":
            parens -= 1
        elif parens == 0 and t in ("<", ">"):
            angles += 1 if t == "<" else -1
        elif parens == 0 and t == "=":
            initialized = True
        if not is_ident(k) or not is_call(k):
            continue
        if (
            declarator is None
            and tok(k + 1) == "("
            and parens == 0
            and angles == 0
            and not initialized
            and tok(k - 1) not in (".", "->", "~")
            and t not in NOT_FUNCTION_NAMES
            and not t.isupper()
            and not t.endswith("_")
        ):
            declarator = (t, line, tok(k - 1) == "::")
        else:
            out.calls.add(t)
    return out


def check_dead_api(
    headers: list[ScannedFile], consumers: list[ScannedFile]
) -> list[Finding]:
    """Flags each function declared in `headers` that no file in
    `consumers` calls: only its own declaration and definition name it.
    SIAS_DEAD_API_OK("why") on the declaration line or up to five lines
    above waives one declaration (a deliberate test hook); a waiver whose
    declaration is called after all, or that has no declaration below it,
    is stale."""
    calls: set[str] = set()
    for sf in consumers:
        calls |= scan_api(sf).calls
    findings: list[Finding] = []

    where = ", ".join(DEAD_API_CONSUMER_DIRS)

    def add(path: str, line: int, message: str) -> None:
        findings.append(Finding(path, line, "sias-dead-api", message))

    for sf in headers:
        decls = scan_api(sf).decls
        waived: set[int] = set()
        for idx, ln in enumerate(sf.code):
            col = ln.find(DEAD_API_WAIVER)
            if col < 0 or ln.lstrip().startswith("#"):
                continue
            line = idx + 1
            target = next(
                (
                    d
                    for d in decls
                    if line <= d.line <= line + WAIVER_WINDOW_LINES
                    and d.line not in waived
                ),
                None,
            )
            stale = f"stale {DEAD_API_WAIVER} waiver: "
            if target is None:
                add(sf.path, line, stale + "no function declared in the next "
                    f"{WAIVER_WINDOW_LINES} lines")
            elif target.name in calls:
                add(sf.path, line, stale + f"{target.name} is called outside tests")
            else:
                waived.add(target.line)
                if not justified(sf, idx, col):
                    add(sf.path, line, f"{DEAD_API_WAIVER} needs a justification")
        reported: set[tuple[str | None, str]] = set()
        for d in decls:
            key = (d.owner, d.name)
            if d.name in calls or d.line in waived or key in reported:
                continue
            reported.add(key)  # once per name: overloads, declare-then-define
            qual = f"{d.owner}::{d.name}" if d.owner else d.name
            add(d.path, d.line, f"{qual} is called nowhere in {where} (tests do "
                "not count): delete it with the tests that only exercise it, or "
                f'waive a deliberate test hook with {DEAD_API_WAIVER}("why")')
    return findings


def check_dead_api_tree(root: pathlib.Path) -> list[Finding]:
    """sias-dead-api over the tree: src/ headers against every consumer."""
    consumers: list[ScannedFile] = []
    for d in DEAD_API_CONSUMER_DIRS:
        for f in sorted((root / d).rglob("*")):
            rel = rel_of(f, root)
            if f.suffix in (".cc", ".cpp", ".h") and not rel.startswith(
                DEAD_API_IGNORED_PREFIXES
            ):
                consumers.append(scan_cpp(f, rel))
    headers = [
        sf for sf in consumers if sf.rel.startswith("src/") and sf.rel.endswith(".h")
    ]
    return check_dead_api(headers, consumers)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def root_tables(root: pathlib.Path) -> Tables:
    """The tables read from fixed files under the repository root."""
    tables = Tables()
    latch_order = root / "src" / "check" / "latch_order.h"
    if latch_order.exists():
        ranks = parse_rank_table(latch_order)
        tables.ranks = {name: value for name, (value, _) in ranks.items()}
    obs_md = root / "docs" / "OBSERVABILITY.md"
    if obs_md.exists():
        tables.catalogue, tables.catalogue_prefixes = parse_catalogue(obs_md)
    return tables


def rel_of(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_checks(
    sf: ScannedFile, tables: Tables, checks: tuple[str, ...]
) -> list[Finding]:
    findings: list[Finding] = []
    if "sias-virtual-time" in checks:
        findings += check_virtual_time(sf, tables)
    if "sias-latch-rank" in checks:
        findings += check_latch_rank(sf, tables)
    if "sias-epoch-escape" in checks:
        findings += check_epoch_escape(sf, tables)
    if "sias-metric-literal" in checks:
        findings += check_metric_literal(sf, tables)
    return findings


def cpp_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            files += sorted(p.rglob("*.cc")) + sorted(p.rglob("*.h"))
        else:
            files.append(p)
    return files


# Whole-tree rules: they read fixed files under --root, whatever PATHs are
# given.
TREE_CHECKS = ("sias-rank-table", "sias-dead-api")


def lint(root: pathlib.Path, paths: list[pathlib.Path], checks: tuple[str, ...]) -> int:
    findings: list[Finding] = []
    if "sias-rank-table" in checks:
        findings += check_latch_rank_table(root)
    if "sias-dead-api" in checks:
        findings += check_dead_api_tree(root)
    file_checks = tuple(c for c in checks if c not in TREE_CHECKS)
    if file_checks:
        tables = root_tables(root)
        for f in cpp_files([root / "src"]):
            collect_decl_facts(scan_cpp(f, rel_of(f, root)), tables)
        for f in cpp_files(paths):
            sf = scan_cpp(f, rel_of(f, root))
            findings += run_checks(sf, tables, file_checks)
    for fd in findings:
        print(fd.render())
    if findings:
        print(f"sias-tidy-lite: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


# A code line ending in a `// BAD` comment: the check must flag that line.
BAD_MARK_RE = re.compile(r"^\s*[^\s/].*//\s*BAD\b")


def run_fixtures(root: pathlib.Path, fixture_dir: pathlib.Path) -> int:
    """Each fixture is <check>_{pos,neg}[_<case>].cc, e.g. latch_rank_pos.cc
    for sias-latch-rank. Its check must flag exactly the lines marked BAD:
    a neg fixture has none, a pos fixture at least one. The fixture file
    itself is the only declaration source (self-contained stubs)."""
    failures = 0
    ran = 0
    for f in sorted(fixture_dir.glob("*.cc")):
        m = re.match(r"([a-z]+_[a-z]+)_(pos|neg)(?:_\w+)?\.cc$", f.name)
        if not m:
            continue
        check = "sias-" + m.group(1).replace("_", "-")
        if check not in ALL_CHECKS:
            print(f"  SKIP {f.name}: unknown check '{check}'")
            continue
        ran += 1
        sf = scan_cpp(f, f.name)
        if check == "sias-dead-api":
            found = check_dead_api([sf], [sf])
        else:
            tables = root_tables(root)
            collect_decl_facts(sf, tables)
            found = run_checks(sf, tables, (check,))
        lines = f.read_text(encoding="utf-8").splitlines()
        bad = {i + 1 for i, ln in enumerate(lines) if BAD_MARK_RE.search(ln)}
        ok = {fd.line for fd in found} == bad
        ok = ok and bool(bad) == (m.group(2) == "pos")
        print(f"  {'PASS' if ok else 'FAIL'} {f.name}: {len(found)} finding(s) "
              f"from {check}, {len(bad)} BAD line(s)")
        if not ok:
            failures += 1
            for fd in found:
                print(f"    {fd.render()}")
    if ran == 0:
        print(f"no fixtures found in {fixture_dir}", file=sys.stderr)
        return 2
    print(f"fixtures: {ran - failures}/{ran} PASS")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or dirs (default: src/)")
    ap.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parents[2]),
        help="repository root (rank table, catalogue, allowlists)",
    )
    ap.add_argument("--checks", default=",".join(ALL_CHECKS))
    ap.add_argument(
        "--fixtures", metavar="DIR", help="run the fixture battery in DIR"
    )
    args = ap.parse_args(argv)
    root = pathlib.Path(args.root)
    if args.fixtures:
        return run_fixtures(root, pathlib.Path(args.fixtures))
    checks = tuple(c for c in str(args.checks).split(",") if c)
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    paths = [pathlib.Path(p) for p in args.paths] or [root / "src"]
    return lint(root, paths, checks)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
