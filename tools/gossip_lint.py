#!/usr/bin/env python3
"""gossip-lint: project-specific determinism/safety static analyzer.

Every result in this repository rests on bit-identical determinism
across engines, shards, threads and processes. The invariants that
guarantee it are cheap to state and expensive to rediscover from a
corrupted golden, so this analyzer machine-checks them on every commit:

  banned-rng            no nondeterministic randomness sources
  banned-clock          no wall-clock reads (steady_clock-only timing)
  unordered-iteration   no iteration over unordered containers that
                        could feed a recorded statistic or an RNG draw
  raw-accumulate        float reductions go through stats::merge_tree
  raw-assert            decode/protocol paths use GOSSIP_REQUIRE
  unchecked-wire-read   every raw read in wire decode is bounds-guarded
  raw-stream-salt       RNG salts/multipliers come from the registry
                        (src/common/stream_salt.hpp), never raw hex
  atomic-memory-order   every atomic load/store/fetch_*/compare_exchange
                        spells its memory_order explicitly
  thread-detach         no detached threads (join or std::jthread)
  bare-mutex-lock       no manual mutex .lock()/.unlock() — RAII guards
                        (lock_guard/scoped_lock/unique_lock) only
  volatile-sync         volatile is not a synchronization primitive
  banned-env            no environment reads or writes: a run is a
                        function of its command line

Dependency-free (python3 stdlib only). A lightweight tokenizer strips
comments and string literals first, so prose mentioning rand() never
trips a rule, and suppressions are read from the *comment* channel:

  // gossip-lint: allow(rule-name): why this occurrence is safe

A suppression covers its own line and the next line that contains code
(intervening comment-only lines — e.g. the rest of the justification —
are skipped), must name a real rule, and must carry a justification
(>= 10 characters); a suppression that fires nothing is itself reported
(unused-suppression), so stale allows cannot accumulate.

Usage:
  tools/gossip_lint.py                   # lint src/ bench/ tests/ examples/
  tools/gossip_lint.py src/proto         # lint specific paths
  tools/gossip_lint.py --self-test       # run the fixture suite
  tools/gossip_lint.py --list-rules      # print the rule table
  tools/gossip_lint.py --format=github   # findings as ::error annotations

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCAN = ["src", "bench", "tests", "examples"]
FIXTURE_DIR = REPO_ROOT / "tests" / "lint" / "fixtures"
EXPECTED_FILE = REPO_ROOT / "tests" / "lint" / "expected.txt"
EXPECTED_GITHUB_FILE = REPO_ROOT / "tests" / "lint" / "expected_github.txt"
CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h", ".cxx"}
MIN_JUSTIFICATION = 10

# --------------------------------------------------------------- tokenizer


def split_code_comments(text: str) -> tuple[list[str], list[str]]:
    """Returns (code_lines, comment_lines): the source with comments and
    string/char literals blanked out, and the comment text per line.
    Handles //, /* */, "...", '...', raw strings and digit separators."""
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    code_lines = [""]
    comment_lines = [""]

    def emit(ch: str, channel: str) -> None:
        nonlocal code_lines, comment_lines
        if ch == "\n":
            code_lines.append("")
            comment_lines.append("")
        elif channel == "code":
            code_lines[-1] += ch
        else:
            comment_lines[-1] += ch

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                # raw string literal R"delim( ... )delim"
                m = re.match(r'R"([^ ()\\\t\n]*)\(', text[i - 1 : i + 18])
                if i > 0 and text[i - 1] == "R" and m:
                    raw_delim = ")" + m.group(1) + '"'
                    end = text.find(raw_delim, i)
                    if end == -1:
                        end = n
                    for j in range(i, min(end + len(raw_delim), n)):
                        if text[j] == "\n":
                            emit("\n", "code")
                    i = end + len(raw_delim)
                    continue
                state = "string"
                i += 1
                continue
            if ch == "'":
                prev = text[i - 1] if i > 0 else ""
                if prev.isalnum() and nxt.isalnum():
                    i += 1  # digit separator: 500'000
                    continue
                state = "char"
                i += 1
                continue
            emit(ch, "code")
            i += 1
        elif state == "line_comment":
            if ch == "\n":
                emit("\n", "code")
                state = "code"
            else:
                emit(ch, "comment")
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                emit(ch, "comment" if ch != "\n" else "code")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                state = "code"
            elif ch == "\n":  # unterminated; resync
                emit("\n", "code")
                state = "code"
            i += 1

    return code_lines, comment_lines


# ------------------------------------------------------------------- rules


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str,
                 hint: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.hint = hint

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    hint: {self.hint}")

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation: shows the finding
        inline on the PR diff. Data after :: must be one line, with the
        characters %, CR and LF percent-escaped (in that order)."""
        msg = f"[{self.rule}] {self.message} (hint: {self.hint})"
        msg = (msg.replace("%", "%25").replace("\r", "%0D")
                  .replace("\n", "%0A"))
        return f"::error file={self.path},line={self.line}::{msg}"


class FileCtx:
    """One analyzed file: scoping path + comment-stripped code lines."""

    def __init__(self, report_path: str, scope_path: str,
                 code: list[str], comments: list[str]):
        self.report_path = report_path
        self.scope_path = scope_path.replace("\\", "/")
        self.code = code
        self.comments = comments

    def in_dir(self, *prefixes: str) -> bool:
        return any(self.scope_path.startswith(p) for p in prefixes)


RULES: dict[str, dict] = {}


def rule(name: str, summary: str, hint: str):
    def wrap(fn):
        RULES[name] = {"fn": fn, "summary": summary, "hint": hint}
        return fn

    return wrap


def _matches(ctx: FileCtx, pattern: re.Pattern) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(ctx.code, start=1):
        m = pattern.search(line)
        if m:
            out.append((lineno, m.group(0).strip()))
    return out


BANNED_RNG = re.compile(
    r"std::random_device|(?<![\w.:])s?rand\s*\(|(?<![\w.:])random\s*\(|"
    r"[dlm]rand48|random_shuffle")


@rule("banned-rng",
      "nondeterministic or unseeded randomness source",
      "draw from a gossip::Rng seeded via the stream-salt registry "
      "(src/common/stream_salt.hpp); results must replay bit-identically "
      "from the ScenarioSpec seed")
def check_banned_rng(ctx: FileCtx) -> list[tuple[int, str]]:
    return _matches(ctx, BANNED_RNG)


BANNED_CLOCK = re.compile(
    r"std::chrono::system_clock|high_resolution_clock|gettimeofday|"
    r"(?<![\w.])time\s*\(|(?<![\w.])clock\s*\(|(?<![\w.])localtime|"
    r"(?<![\w.])gmtime|(?<![\w.])ctime\s*\(")


@rule("banned-clock",
      "wall-clock read (nondeterministic across runs/hosts)",
      "wall time must never influence a result; for timing-report "
      "durations use std::chrono::steady_clock, which is allowed")
def check_banned_clock(ctx: FileCtx) -> list[tuple[int, str]]:
    return _matches(ctx, BANNED_CLOCK)


UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*(\w+)\s*"
    r"[;={(,)]")


@rule("unordered-iteration",
      "iteration over an unordered container (implementation-defined "
      "order can feed a recorded statistic or an RNG draw)",
      "iterate in id order (sort a copy / use an ordered index) before "
      "anything recorded or random consumes the sequence, or suppress "
      "with a justification that the loop is order-independent")
def check_unordered_iteration(ctx: FileCtx) -> list[tuple[int, str]]:
    names = set()
    for line in ctx.code:
        for m in UNORDERED_DECL.finditer(line):
            names.add(m.group(1))
    if not names:
        return []
    alt = "|".join(sorted(re.escape(n) for n in names))
    iter_pat = re.compile(
        rf"for\s*\([^;)]*:\s*(?:this->)?({alt})\s*\)|"
        rf"\b({alt})\s*\.\s*c?begin\s*\(")
    return _matches(ctx, iter_pat)


RAW_ACCUMULATE = re.compile(r"std::(?:accumulate|reduce)\s*\(")


@rule("raw-accumulate",
      "raw float reduction (shape follows the call site, not the data)",
      "per-node double reductions must be fixed-shape so results are "
      "invariant over shard/thread geometry: use stats::merge_tree "
      "(src/stats/reduction.hpp)")
def check_raw_accumulate(ctx: FileCtx) -> list[tuple[int, str]]:
    if ctx.scope_path.startswith("src/stats/reduction"):
        return []
    return _matches(ctx, RAW_ACCUMULATE)


RAW_ASSERT = re.compile(r"(?<!static_)\bassert\s*\(|#\s*include\s*<(?:cassert|assert\.h)>")


@rule("raw-assert",
      "raw assert in a protocol/decode path (vanishes in release builds)",
      "malformed input must fail loudly in every build type: use "
      "GOSSIP_REQUIRE (src/common/require.hpp)")
def check_raw_assert(ctx: FileCtx) -> list[tuple[int, str]]:
    if not ctx.in_dir("src/proto/", "src/failure/", "src/runtime/"):
        return []
    return _matches(ctx, RAW_ASSERT)


WIRE_READ = re.compile(r"get_u(?:8|16|32|64)\s*\(|\bbytes_\[|\bbuffer\[|"
                       r"buffer\.data\(\)\s*\+")
WIRE_GUARD = re.compile(r"GOSSIP_REQUIRE|while\s*\(.*(?:size\(\)|len|remaining"
                        r"|kHeaderSize)|if\s*\(.*(?:size\(\)|len|remaining"
                        r"|kHeaderSize)")
WIRE_GUARD_WINDOW = 8


@rule("unchecked-wire-read",
      "raw buffer read in a decode path with no bounds guard in sight",
      "every read from received bytes must be preceded by a bounds check "
      "(GOSSIP_REQUIRE / an if-while guard on the remaining length) "
      f"within {WIRE_GUARD_WINDOW} lines — truncated or hostile frames "
      "must reject, not overread")
def check_unchecked_wire_read(ctx: FileCtx) -> list[tuple[int, str]]:
    if not ctx.in_dir("src/proto/", "src/runtime/"):
        return []
    out = []
    for lineno, line in enumerate(ctx.code, start=1):
        m = WIRE_READ.search(line)
        if not m:
            continue
        lo = max(0, lineno - 1 - WIRE_GUARD_WINDOW)
        window = ctx.code[lo:lineno]  # includes the read's own line
        if any(WIRE_GUARD.search(w) for w in window):
            continue
        out.append((lineno, m.group(0).strip()))
    return out


SALT_XOR = re.compile(r"\^=?\s*0x[0-9a-fA-F]{4,}")
SALT_MUL = re.compile(r"\*=?\s*0x[0-9a-fA-F]{9,}")


@rule("raw-stream-salt",
      "raw hex constant XOR'd/multiplied into a stream key outside the "
      "salt registry",
      "RNG stream salts and keying multipliers must be named constexpr "
      "entries in src/common/stream_salt.hpp — the registry's "
      "static_assert makes a colliding pair a compile error instead of "
      "a silently aliased stream")
def check_raw_stream_salt(ctx: FileCtx) -> list[tuple[int, str]]:
    if not ctx.in_dir("src/", "bench/"):
        return []
    if ctx.scope_path in ("src/common/stream_salt.hpp", "src/common/rng.hpp"):
        # The registry itself, and the splitmix64/xoshiro mixing
        # constants that are the *algorithm*, not a stream selection.
        return []
    return _matches(ctx, SALT_XOR) + _matches(ctx, SALT_MUL)


ATOMIC_OP = re.compile(
    r"\.\s*(load|store|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\(")
MEMORY_ORDER = re.compile(r"\bmemory_order\b|\bstd::memory_order_\w+")


def _call_args(ctx: FileCtx, lineno: int, col: int) -> str:
    """The argument text of a call whose opening '(' sits at (lineno, col),
    joined across continuation lines until the parentheses balance."""
    out, depth = [], 0
    line_idx, i = lineno - 1, col
    while line_idx < len(ctx.code):
        line = ctx.code[line_idx]
        while i < len(line):
            ch = line[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    out.append(line[:i])
                    return " ".join(out)[col:]
            i += 1
        out.append(line)
        line_idx, i = line_idx + 1, 0
    return " ".join(out)[col:]


@rule("atomic-memory-order",
      "atomic operation with an implicit (seq_cst) memory order",
      "spell the ordering: memory_order_relaxed for monotonic counters, "
      "acquire/release (or acq_rel RMW) where the operation publishes or "
      "consumes data — implicit seq_cst hides which orderings are "
      "load-bearing and costs a full fence on weak architectures")
def check_atomic_memory_order(ctx: FileCtx) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(ctx.code, start=1):
        for m in ATOMIC_OP.finditer(line):
            args = _call_args(ctx, lineno, m.end() - 1)
            if not MEMORY_ORDER.search(args):
                out.append((lineno, m.group(0).strip()))
    return out


THREAD_DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")


@rule("thread-detach",
      "detached thread (outlives scope, races teardown, hides failures)",
      "join explicitly or use std::jthread so every worker's lifetime is "
      "bounded by an owner — a detached thread can touch freed executor "
      "state during shutdown")
def check_thread_detach(ctx: FileCtx) -> list[tuple[int, str]]:
    return _matches(ctx, THREAD_DETACH)


MUTEX_MANUAL = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?\.\s*(?:try_lock|lock|unlock)"
    r"\s*\(\s*\)")
# Receivers that are themselves RAII lock objects (std::unique_lock
# et al.), whose .lock()/.unlock() keep the owning-guard invariant.
LOCK_WRAPPER_NAME = re.compile(r"^(?:lock|lk|guard|ul|sl|locker)\d*_?$")


@rule("bare-mutex-lock",
      "manual mutex lock/unlock (leaks the lock on any early return or "
      "exception)",
      "hold mutexes through std::lock_guard/std::scoped_lock/"
      "std::unique_lock; calling .lock()/.unlock() on a std::unique_lock "
      "variable is fine and not flagged")
def check_bare_mutex_lock(ctx: FileCtx) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(ctx.code, start=1):
        for m in MUTEX_MANUAL.finditer(line):
            if LOCK_WRAPPER_NAME.match(m.group(1)):
                continue
            out.append((lineno, m.group(0).strip()))
    return out


VOLATILE = re.compile(r"\bvolatile\b")


@rule("volatile-sync",
      "volatile used where a synchronization primitive belongs",
      "volatile neither orders memory nor makes access atomic; "
      "cross-thread flags and counters must be std::atomic<> with an "
      "explicit memory_order")
def check_volatile_sync(ctx: FileCtx) -> list[tuple[int, str]]:
    return _matches(ctx, VOLATILE)


BANNED_ENV = re.compile(
    r"(?:std::)?\b(?:secure_getenv|getenv|setenv|unsetenv|putenv)\s*\(|"
    r"\benviron\b")


@rule("banned-env",
      "environment variable access (a hidden input the command line "
      "does not show)",
      "take the value from the ScenarioSpec or a gossip_run --set key; "
      "a result must be a pure function of the command line")
def check_banned_env(ctx: FileCtx) -> list[tuple[int, str]]:
    return _matches(ctx, BANNED_ENV)


# ------------------------------------------------------------ suppressions

ALLOW = re.compile(r"gossip-lint:\s*allow\(([\w-]+)\)\s*[:—–-]*\s*(.*)")
FIXTURE_PATH = re.compile(r"lint-fixture-path:\s*(\S+)")


def analyze_file(report_path: str, scope_path: str, text: str) -> list[Finding]:
    code, comments = split_code_comments(text)
    ctx = FileCtx(report_path, scope_path, code, comments)

    findings: list[Finding] = []
    # allow line -> (rule, justification_ok, used)
    allows: dict[int, dict] = {}
    for lineno, comment in enumerate(comments, start=1):
        m = ALLOW.search(comment)
        if not m:
            continue
        name, why = m.group(1), m.group(2).strip()
        if name not in RULES:
            findings.append(Finding(
                report_path, lineno, "bad-suppression",
                f"allow({name}) names no such rule",
                "valid rules: " + ", ".join(sorted(RULES))))
            continue
        if len(why) < MIN_JUSTIFICATION:
            findings.append(Finding(
                report_path, lineno, "bad-suppression",
                f"allow({name}) has no justification",
                "a suppression must say WHY this occurrence is safe: "
                "// gossip-lint: allow(rule): reason"))
            continue
        allows[lineno] = {"rule": name, "used": False}

    # An allow covers its own line plus the next line carrying code —
    # comment-only continuation lines of the justification are skipped.
    covered: dict[int, list[dict]] = {}
    for lineno, a in allows.items():
        covered.setdefault(lineno, []).append(a)
        for nxt in range(lineno + 1, min(lineno + 50, len(code) + 1)):
            if code[nxt - 1].strip():
                covered.setdefault(nxt, []).append(a)
                break

    for name, spec in RULES.items():
        for lineno, token in spec["fn"](ctx):
            suppressed = False
            for a in covered.get(lineno, []):
                if a["rule"] == name:
                    a["used"] = True
                    suppressed = True
                    break
            if not suppressed:
                findings.append(Finding(
                    report_path, lineno, name,
                    f"{spec['summary']}: `{token}`", spec["hint"]))

    for lineno, a in allows.items():
        if not a["used"]:
            findings.append(Finding(
                report_path, lineno, "unused-suppression",
                f"allow({a['rule']}) suppresses nothing on this or the "
                "next line",
                "remove the stale suppression (or move it to the "
                "offending line) so allows stay auditable"))

    return findings


# -------------------------------------------------------------------- scan


def iter_files(paths: list[Path]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        if p.is_file() and p.suffix in CPP_SUFFIXES:
            out.append(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CPP_SUFFIXES and f.is_file():
                    # The fixture corpus contains deliberate violations.
                    if FIXTURE_DIR in f.parents:
                        continue
                    out.append(f)
    return out


def run_scan(paths: list[Path], fmt: str = "text") -> int:
    files = iter_files(paths)
    if not files:
        print("gossip-lint: no C++ sources found under given paths",
              file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for f in files:
        rel = f.resolve().relative_to(REPO_ROOT).as_posix() \
            if f.resolve().is_relative_to(REPO_ROOT) else f.as_posix()
        findings.extend(analyze_file(rel, rel, f.read_text(encoding="utf-8")))
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    for fd in findings:
        print(fd.render_github() if fmt == "github" else fd.render())
    if findings:
        print(f"gossip-lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)")
        return 1
    print(f"gossip-lint: clean ({len(files)} files, {len(RULES)} rules)")
    return 0


# --------------------------------------------------------------- self-test


def run_self_test() -> int:
    fixtures = sorted(FIXTURE_DIR.glob("*.cpp"))
    if not fixtures:
        print(f"gossip-lint self-test: no fixtures in {FIXTURE_DIR}",
              file=sys.stderr)
        return 2
    findings: list[Finding] = []
    for f in fixtures:
        text = f.read_text(encoding="utf-8")
        m = FIXTURE_PATH.search(text)
        scope = m.group(1) if m else f"src/fixture/{f.name}"
        findings.extend(
            analyze_file(f"fixtures/{f.name}", scope, text))
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    got = "\n".join(fd.render() for fd in findings) + "\n"

    expected = EXPECTED_FILE.read_text(encoding="utf-8")
    ok = True
    if got.strip() != expected.strip():
        ok = False
        print("gossip-lint self-test: FINDINGS DIFFER FROM GOLDEN")
        import difflib
        for line in difflib.unified_diff(
                expected.splitlines(), got.splitlines(),
                fromfile="tests/lint/expected.txt", tofile="observed",
                lineterm=""):
            print(line)

    # The GitHub annotation rendering is part of the CI contract: pin it
    # against its own golden so the ::error format cannot drift.
    got_gh = "\n".join(fd.render_github() for fd in findings) + "\n"
    expected_gh = EXPECTED_GITHUB_FILE.read_text(encoding="utf-8")
    if got_gh.strip() != expected_gh.strip():
        ok = False
        print("gossip-lint self-test: GITHUB FORMAT DIFFERS FROM GOLDEN")
        import difflib
        for line in difflib.unified_diff(
                expected_gh.splitlines(), got_gh.splitlines(),
                fromfile="tests/lint/expected_github.txt",
                tofile="observed", lineterm=""):
            print(line)

    # Every rule must have fired at least once across the seeded
    # fixtures — a rule that detects nothing is a rule that rotted.
    fired = {fd.rule for fd in findings}
    missing = (set(RULES) | {"bad-suppression", "unused-suppression"}) - fired
    if missing:
        ok = False
        print("gossip-lint self-test: rules with no fixture coverage: "
              + ", ".join(sorted(missing)))

    # The clean fixture and the correctly-suppressed fixture must be
    # silent: zero findings attributed to either file.
    for silent in ("clean.cpp", "suppressed_ok.cpp", "concurrency_ok.cpp",
                   "concurrency_suppressed.cpp"):
        noisy = [fd for fd in findings if fd.path.endswith(silent)]
        if noisy:
            ok = False
            print(f"gossip-lint self-test: {silent} must be clean but got "
                  f"{len(noisy)} finding(s)")

    if ok:
        print(f"gossip-lint self-test OK: {len(findings)} golden findings, "
              f"{len(RULES)} rules all detected, clean fixtures silent")
        return 0
    return 1


def print_rules() -> None:
    width = max(len(n) for n in RULES)
    for name in sorted(RULES):
        print(f"{name:<{width}}  {RULES[name]['summary']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: src bench tests "
                         "examples)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite against the golden output")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--format", choices=("text", "github"), default="text",
                    help="finding output format (github = ::error "
                         "annotations for GitHub Actions)")
    args = ap.parse_args()

    if args.list_rules:
        print_rules()
        return 0
    if args.self_test:
        return run_self_test()
    paths = ([Path(p) for p in args.paths] if args.paths
             else [REPO_ROOT / d for d in DEFAULT_SCAN])
    return run_scan(paths, args.format)


if __name__ == "__main__":
    sys.exit(main())
