#!/usr/bin/env python3
"""scm_lint — repo-specific static checks for the scm codebase.

Six rules, all about invariants the C++ type system cannot state:

RULE 1: explicit memory orders (src/**).
  Every std::atomic load/store/RMW must name its std::memory_order.
  A defaulted order is seq_cst — correct but unreviewable: the reader
  cannot tell a deliberate fence from an accident, and the codebase's
  convention is that every order is an explicit, commented decision
  (acquire/release protocol edges, relaxed telemetry).
  compare_exchange calls must name BOTH orders (success and failure);
  the one-order overload picks the failure order silently.

  Skipped: calls whose first argument is a context (`ctx`, `c`) —
  those are the repo's own platform primitives (NativeCounter::
  fetch_add(ctx), NativeRegister::read(ctx)...), not std::atomic.
  Escape hatch: `// scm-lint: default-order-ok` on the call's first
  line.

RULE 2: address-free segment code (src/shm/**, src/core/slot_protocol.hpp).
  The shared segment maps at a different virtual address in every
  process, so segment-resident types must carry no process-local
  addresses. The slot protocol's payload, record and array types live
  in every ShmCombining's segment although they are defined under
  src/core/, so that file is in scope too. Every struct/class defined
  in scope must contain no pointer/reference/virtual/owning-container
  members AND be covered by an SCM_ASSERT_ADDRESS_FREE(<name>...)
  somewhere under src/ (the macro pins what the traits can check; this
  rule pins the rest and that the macro is actually applied). There is
  no escape: a type that never enters a segment does not belong in
  scope.

RULE 3: cross-process futex words (same scope as rule 2).
  futex(2) compares exactly 4 bytes at the given address, and a
  process-private futex keys on the mapping's virtual address — both
  mistakes compile silently and fail only under contention. So every
  member whose name starts with `futex` in a segment-resident type
  must be either:
    * a WaitPoint<FutexScope::kShared> (support/parking.hpp),
    * a WaitPoint whose scope is a template parameter of the enclosing
      type (CombiningCore<Extra, kSlots, kScope>, which also runs
      in-process), or
    * a bare 4-byte-aligned std::atomic<std::uint32_t>,
  and its enclosing type must be covered by SCM_ASSERT_ADDRESS_FREE.
  A scope-templated type is checked where it
  is used instead: every instantiation of it in segment-resident code
  must pass FutexScope::kShared at the scope parameter's position.

RULE 4: relaxed-only hot-path reads (src/core/adaptive.hpp).
  Adaptive<Obj>::maybe_tick sits on EVERY operation's fast path; its
  whole design contract is that the per-op cost is one count in the
  calling thread's tally cell (a relaxed load and a relaxed store) —
  no RMW, no acquire fences, no seq_cst. A stray acquire on x86 is
  free and invisible in benchmarks, then becomes a real barrier on
  ARM. So every std::atomic `.load(` in core/adaptive.hpp must name
  memory_order_relaxed. The one intentional exception (the tick-lock
  exchange is acquire, but it is an RMW, not a load) needs no escape;
  a genuinely-needed non-relaxed load takes
  `// scm-lint: non-relaxed-ok` on its first line.

RULE 5: no relaxed counting RMWs (src/core/**).
  A relaxed fetch_add/fetch_sub is a telemetry count (protocol RMWs
  name the order their protocol needs), and on x86 it is a locked
  instruction on the path it counts. In-process telemetry goes through
  a Tally (support/tally.hpp: per-thread cells, load+store), and
  counters with one writer at a time (a lock holder) use a plain
  load+store. So src/core/** may not call .fetch_add/.fetch_sub with
  memory_order_relaxed. A counter that must stay a shared RMW takes
  `// scm-lint: relaxed-rmw-ok` on the call's first line or on a
  comment line right above it, with the reason next to it.

RULE 6: every header ships (src/**/*.hpp, only when the root is src/).
  A header that only a test includes is code the library carries for
  no user: it drifts from the shipped twin it duplicates, and its
  checks cover nothing that runs. So the quoted includes are followed
  transitively from every C++ file under ../bench, ../examples and
  ../perfbench and from every src/**/*.cpp, and each src/**/*.hpp
  they never reach is reported. The only exemptions are the checkers
  in SHIPPED_CHECKERS, which tests run against shipped code; each is
  listed with that reason.

Usage:
  tools/scm_lint.py [--root DIR] [--self-test]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import posixpath
import re
import sys
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# shared plumbing


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Replaces comments and string/char literals with spaces, preserving
    every newline so line numbers survive."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if ch == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif mode == "line":
            if ch == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if ch == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        else:  # str | chr
            quote = '"' if mode == "str" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                mode = "code"
                out.append(" ")
            else:
                out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def balanced_args(text: str, open_paren: int,
                  brackets: str = "()") -> tuple[str, int] | None:
    """Returns (argument text, end index) for the bracketed list
    starting at text[open_paren] == brackets[0], or None if
    unbalanced."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == brackets[0]:
            depth += 1
        elif text[i] == brackets[1]:
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : i], i
    return None


def split_toplevel(args: str) -> list[str]:
    """Splits an argument list at its top-level commas."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(args):
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(args[start:i])
            start = i + 1
    parts.append(args[start:])
    return [p.strip() for p in parts]


# ---------------------------------------------------------------------------
# RULE 1: explicit memory orders

ATOMIC_OPS = (
    "load store exchange fetch_add fetch_sub fetch_or fetch_and fetch_xor "
    "compare_exchange_strong compare_exchange_weak"
).split()
ATOMIC_CALL_RE = re.compile(r"\.(" + "|".join(ATOMIC_OPS) + r")\s*\(")
# Contexts, not atomics: the repo's platform primitives take the
# execution context as their first argument.
CTX_FIRST_ARG_RE = re.compile(r"^\s*(ctx|c)\b")
ORDER_TOKEN_RE = re.compile(r"\bmemory_order_\w+")
IGNORE_MARK = "scm-lint: default-order-ok"


def check_memory_orders(path: str, raw: str) -> list[Finding]:
    text = strip_comments(raw)
    raw_lines = raw.splitlines()
    findings = []
    for m in ATOMIC_CALL_RE.finditer(text):
        op = m.group(1)
        extracted = balanced_args(text, m.end() - 1)
        if extracted is None:
            continue  # unbalanced — macro soup; other tooling will choke too
        args, _ = extracted
        line = line_of(text, m.start())
        if IGNORE_MARK in raw_lines[line - 1]:
            continue
        if CTX_FIRST_ARG_RE.match(split_toplevel(args)[0]):
            continue  # platform primitive, not std::atomic
        orders = len(ORDER_TOKEN_RE.findall(args))
        needed = 2 if op.startswith("compare_exchange") else 1
        if orders < needed:
            what = (
                "both success and failure std::memory_order"
                if needed == 2
                else "an explicit std::memory_order"
            )
            findings.append(
                Finding(path, line, "memory-order",
                        f".{op}() must name {what} "
                        f"(found {orders}); defaulted seq_cst hides the "
                        "protocol decision")
            )
    return findings


# ---------------------------------------------------------------------------
# RULE 4: relaxed-only hot-path reads (core/adaptive.hpp)

ATOMIC_LOAD_RE = re.compile(r"\.load\s*\(")
RELAXED_TOKEN_RE = re.compile(r"\bmemory_order_relaxed\b")
NON_RELAXED_MARK = "scm-lint: non-relaxed-ok"


def check_adaptive_hot_reads(path: str, raw: str) -> list[Finding]:
    """Every std::atomic .load() in the adaptive hot path must be
    memory_order_relaxed: maybe_tick runs on every operation, and the
    combinator's zero-overhead claim dies the day someone sneaks an
    acquire in (silently free on x86, a real fence on ARM)."""
    text = strip_comments(raw)
    raw_lines = raw.splitlines()
    findings = []
    for m in ATOMIC_LOAD_RE.finditer(text):
        extracted = balanced_args(text, m.end() - 1)
        if extracted is None:
            continue
        args, _ = extracted
        line = line_of(text, m.start())
        if NON_RELAXED_MARK in raw_lines[line - 1]:
            continue
        if CTX_FIRST_ARG_RE.match(split_toplevel(args)[0]):
            continue  # platform primitive, not std::atomic
        if not RELAXED_TOKEN_RE.search(args):
            findings.append(
                Finding(path, line, "adaptive-relaxed",
                        ".load() in the adaptive hot path must be "
                        "memory_order_relaxed (maybe_tick runs on every "
                        "operation; acquire here is a per-op fence on "
                        "weakly-ordered targets) — or annotate "
                        f"'// {NON_RELAXED_MARK}'"))
    return findings


# ---------------------------------------------------------------------------
# RULE 5: no relaxed counting RMWs (core/**)

COUNT_RMW_RE = re.compile(r"\.(fetch_add|fetch_sub)\s*\(")
RELAXED_RMW_MARK = "scm-lint: relaxed-rmw-ok"


def check_relaxed_rmws(path: str, raw: str) -> list[Finding]:
    """A relaxed fetch_add/fetch_sub under src/core/ is a locked count on
    a hot path: it belongs in a Tally (or a lock holder's load+store)."""
    text = strip_comments(raw)
    raw_lines = raw.splitlines()
    findings = []
    for m in COUNT_RMW_RE.finditer(text):
        extracted = balanced_args(text, m.end() - 1)
        if extracted is None:
            continue
        args, _ = extracted
        line = line_of(text, m.start())
        above = raw_lines[line - 2].strip() if line >= 2 else ""
        if RELAXED_RMW_MARK in raw_lines[line - 1] or (
                above.startswith("//") and RELAXED_RMW_MARK in above):
            continue
        if CTX_FIRST_ARG_RE.match(split_toplevel(args)[0]):
            continue  # platform primitive, not std::atomic
        if RELAXED_TOKEN_RE.search(args):
            findings.append(
                Finding(path, line, "relaxed-rmw",
                        f".{m.group(1)}() with memory_order_relaxed is a "
                        "locked telemetry count: use a Tally "
                        "(support/tally.hpp) or a single writer's "
                        "load+store — or annotate "
                        f"'// {RELAXED_RMW_MARK}' with the reason"))
    return findings


# ---------------------------------------------------------------------------
# RULE 2: address-free shm layer

# `enum class` declares no members, so it is not a struct here.
STRUCT_RE = re.compile(
    r"(?<!\benum\s)\b(struct|class)\s+(?:alignas\s*\([^)]*\)\s*)?([A-Za-z_]\w*)"
    r"(?:\s+final)?\s*(?::[^{;]*)?\{"
)
MACRO_NAME = "SCM_ASSERT_ADDRESS_FREE"
# Member declarations that smuggle process-local addresses into the
# segment. Scanned only on paren-free lines ending in ';' (plain member
# declarations) — member function signatures contain '(' and are the
# business of the type traits, not this scan.
BAD_MEMBER_PATTERNS = [
    (re.compile(r"\*\s*\w+\s*(=|;|\{)"), "pointer member"),
    (re.compile(r"&\s*\w+\s*(=|;|\{)"), "reference member"),
    (re.compile(r"\bstd::(string|vector|deque|map|unordered_map|function|"
                r"unique_ptr|shared_ptr|weak_ptr|optional|any|variant)\b"),
     "owning/handle std:: member"),
]
VIRTUAL_RE = re.compile(r"\bvirtual\b")


def body_end(text: str, open_brace: int) -> int:
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def check_shm_layout(path: str, raw: str, macro_corpus: str) -> list[Finding]:
    text = strip_comments(raw)
    findings = []
    for m in STRUCT_RE.finditer(text):
        name = m.group(2)
        open_brace = text.index("{", m.start())
        end = body_end(text, open_brace)
        body = text[open_brace + 1 : end]
        base_line = line_of(text, open_brace)
        # Member scan: direct member declaration lines only. Brace depth
        # keeps us out of member-function bodies (local `Slot& s = ...`
        # references are fine — they live on this process's stack) and
        # paren depth skips multi-line signature continuations.
        brace_depth = 0
        paren_depth = 0
        for off, body_ln in enumerate(body.split("\n")):
            stripped = body_ln.strip()
            lineno = base_line + off
            at_member_level = brace_depth == 0 and paren_depth == 0
            brace_depth += body_ln.count("{") - body_ln.count("}")
            paren_depth += body_ln.count("(") - body_ln.count(")")
            if not at_member_level:
                continue
            if VIRTUAL_RE.search(stripped):
                findings.append(
                    Finding(path, lineno, "address-free",
                            f"'{name}': virtual member in a segment-resident "
                            "type (vtable pointers are process-local)"))
                continue
            if "(" in stripped or not stripped.endswith((";", "{", "}")):
                continue
            for pat, what in BAD_MEMBER_PATTERNS:
                if pat.search(stripped):
                    findings.append(
                        Finding(path, lineno, "address-free",
                                f"'{name}': {what} in a segment-resident type"))
        # Macro coverage: the type (or an instantiation of it) must be
        # asserted address-free somewhere in the scanned tree.
        if not macro_covers(name, macro_corpus):
            findings.append(
                Finding(path, line_of(text, m.start()), "address-free",
                        f"'{name}' is defined in segment-resident code but "
                        f"never covered by {MACRO_NAME}"))
    return findings


def macro_covers(name: str, macro_corpus: str) -> bool:
    return bool(
        re.search(MACRO_NAME + r"\s*\(\s*(?:[\w:]+::)?" + re.escape(name)
                  + r"\b", macro_corpus)
        or re.search(MACRO_NAME + r"\s*\([^)]*\b" + re.escape(name) + r"\s*<",
                     macro_corpus))


# ---------------------------------------------------------------------------
# RULE 3: cross-process futex words

FUTEX_DECL_RE = re.compile(r"\bfutex\w*\s*(=|;|\{)")
FUTEX_WAITPOINT_RE = re.compile(r"\bWaitPoint\s*<\s*([\w:]+)")
SHARED_SCOPE_RE = re.compile(r"(?:scm::)?FutexScope::kShared")
FUTEX_ATOMIC32_RE = re.compile(r"\bstd::atomic\s*<\s*(?:std::)?uint32_t\s*>")
ALIGNAS_RE = re.compile(r"\balignas\s*\([^)]*\)")


def template_params(text: str, def_start: int) -> list[str]:
    """Names of the template parameters declared right before the
    struct/class definition at def_start; [] for a non-template."""
    head = text[:def_start].rstrip()
    if not head.endswith(">"):
        return []
    depth = 0
    for i in range(len(head) - 1, -1, -1):
        if head[i] == ">":
            depth += 1
        elif head[i] == "<":
            depth -= 1
            if depth == 0:
                break
    else:
        return []
    if not re.search(r"\btemplate\s*$", head[:i]):
        return []
    names = []
    for param in split_toplevel(head[i + 1 : -1]):
        m = re.search(r"(\w+)\s*$", param.split("=")[0])
        names.append(m.group(1) if m else "")
    return names


def futex_members(raw: str):
    """Yields (type name, definition offset, template parameter names,
    futex member declarations as (line, text)) for every type in `raw`.
    `text` is the comment-stripped file, so offsets index it."""
    text = strip_comments(raw)
    for m in STRUCT_RE.finditer(text):
        open_brace = text.index("{", m.start())
        body = text[open_brace + 1 : body_end(text, open_brace)]
        base_line = line_of(text, open_brace)
        brace_depth = 0
        paren_depth = 0
        members = []
        for off, body_ln in enumerate(body.split("\n")):
            at_member_level = brace_depth == 0 and paren_depth == 0
            brace_depth += body_ln.count("{") - body_ln.count("}")
            paren_depth += body_ln.count("(") - body_ln.count(")")
            if not at_member_level:
                continue
            # alignas(...) is the one paren a member declaration may
            # legitimately carry; anything else with parens is a
            # signature or a call, not a member.
            decl = ALIGNAS_RE.sub("", body_ln.strip())
            if "(" not in decl and FUTEX_DECL_RE.search(decl):
                members.append((base_line + off, decl))
        yield (m.group(2), m.start(), template_params(text, m.start()),
               members)


def check_shm_futex(path: str, raw: str, macro_corpus: str) -> list[Finding]:
    """Flags segment-resident futex-word members that the kernel (or a
    second process) would silently misread: wrong width, private scope,
    or a containing type nobody asserted address-free."""
    text = strip_comments(raw)
    findings = []
    for name, start, params, members in futex_members(raw):
        for lineno, decl in members:
            wp = FUTEX_WAITPOINT_RE.search(decl)
            if wp:
                scope = wp.group(1)
                if not SHARED_SCOPE_RE.fullmatch(scope) and scope not in params:
                    findings.append(
                        Finding(path, lineno, "futex-word",
                                f"'{name}': segment-resident WaitPoint must "
                                "use FutexScope::kShared — a private futex "
                                "keys on this process's mapping address and "
                                "never wakes another process"))
            elif not FUTEX_ATOMIC32_RE.search(decl):
                findings.append(
                    Finding(path, lineno, "futex-word",
                            f"'{name}': futex word must be a 4-byte-aligned "
                            "std::atomic<std::uint32_t> (futex(2) compares "
                            "exactly 4 bytes) or a kShared WaitPoint"))
        if members and not macro_covers(name, macro_corpus):
            findings.append(
                Finding(path, line_of(text, start), "futex-word",
                        f"'{name}' holds a futex word but is never covered "
                        f"by {MACRO_NAME} — futex words live in the segment "
                        "and must be address-free"))
    return findings


def scope_templated_types(raw: str) -> dict[str, int]:
    """Segment-resident types whose WaitPoint scope is one of their own
    template parameters: type name -> that parameter's position."""
    scoped = {}
    for name, _start, params, members in futex_members(raw):
        for _lineno, decl in members:
            wp = FUTEX_WAITPOINT_RE.search(decl)
            if wp and wp.group(1) in params:
                scoped[name] = params.index(wp.group(1))
    return scoped


def check_scope_instantiations(path: str, raw: str,
                               scoped: dict[str, int]) -> list[Finding]:
    """Flags every instantiation, in segment-resident code, of a
    scope-templated type that does not pass FutexScope::kShared as its
    wait point's scope."""
    text = strip_comments(raw)
    findings = []
    for name, index in scoped.items():
        for m in re.finditer(r"\b" + re.escape(name) + r"\s*<", text):
            extracted = balanced_args(text, m.end() - 1, "<>")
            if extracted is None:
                continue
            args = extracted[0]
            parts = split_toplevel(args)
            scope = parts[index] if index < len(parts) else ""
            if not SHARED_SCOPE_RE.fullmatch(scope):
                findings.append(
                    Finding(path, line_of(text, m.start()), "futex-word",
                            f"'{name}<{args.strip()}>' in segment-resident "
                            "code must pass FutexScope::kShared as its wait "
                            "point's scope — a private futex never wakes "
                            "another process"))
    return findings


# ---------------------------------------------------------------------------
# RULE 6: every header ships

QUOTED_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.M)
# Directories, next to src/, whose C++ files are shipped entry points.
SHIPPED_DIRS = ("bench", "examples", "perfbench")
# Headers no shipped file includes that stay anyway: each is a checker
# the tests run against shipped code.
SHIPPED_CHECKERS = {
    "sim/explorer.hpp":
        "exhaustive schedule explorer the tests run over the shipped "
        "modules and the slot protocol",
    "core/interpretation.hpp":
        "Definition-2 (safe composability) oracle the tests run over "
        "traces of the shipped modules",
}


def find_orphans(src_files: dict[str, str],
                 seeds: dict[str, str]) -> list[Finding]:
    """Flags every header in `src_files` (paths relative to the source
    root, '/'-separated) that no quoted include chain reaches from
    `seeds` or from a .cpp in `src_files`. Includes resolve against the
    including file's directory first, then the source root (-Isrc)."""
    def resolve(includer_dir: str, target: str) -> str | None:
        for cand in (posixpath.join(includer_dir, target), target):
            cand = posixpath.normpath(cand)
            if cand in src_files:
                return cand
        return None

    # (directory to resolve against, text); seeds resolve from the root.
    pending = [("", raw) for raw in seeds.values()]
    pending += [(posixpath.dirname(rel), raw)
                for rel, raw in src_files.items() if rel.endswith(".cpp")]
    reached: set[str] = set()
    while pending:
        where, raw = pending.pop()
        for target in QUOTED_INCLUDE_RE.findall(raw):
            rel = resolve(where, target)
            if rel is not None and rel not in reached:
                reached.add(rel)
                pending.append((posixpath.dirname(rel), src_files[rel]))
    return [Finding(rel, 1, "orphan-header",
                    "no file under bench/, examples/, perfbench/ or a "
                    "src/**/*.cpp includes this header, directly or "
                    "through another: delete it with its test, or ship it")
            for rel in sorted(src_files)
            if rel.endswith(".hpp") and rel not in reached
            and rel not in SHIPPED_CHECKERS]


# ---------------------------------------------------------------------------
# driver

CPP_EXTS = (".hpp", ".cpp", ".h", ".cc")


def collect(root: str) -> list[str]:
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in sorted(filenames):
            if fn.endswith(CPP_EXTS):
                paths.append(os.path.join(dirpath, fn))
    return sorted(paths)


# Files outside src/shm/ that define segment-resident types.
SEGMENT_FILES = (os.path.join("core", "slot_protocol.hpp"),)


def in_segment_scope(rel: str) -> bool:
    return rel.startswith("shm" + os.sep) or rel in SEGMENT_FILES


def lint_file(rel: str, raw: str, macro_corpus: str,
              scoped: dict[str, int]) -> list[Finding]:
    """Runs every rule whose scope covers `rel`, a path relative to the
    scanned source root. `scoped` holds the scope-templated types
    defined anywhere in segment-resident code."""
    findings = check_memory_orders(rel, raw)
    if in_segment_scope(rel):
        findings.extend(check_shm_layout(rel, raw, macro_corpus))
        findings.extend(check_shm_futex(rel, raw, macro_corpus))
        findings.extend(check_scope_instantiations(rel, raw, scoped))
    if rel == os.path.join("core", "adaptive.hpp"):
        findings.extend(check_adaptive_hot_reads(rel, raw))
    if rel.startswith("core" + os.sep):
        findings.extend(check_relaxed_rmws(rel, raw))
    return findings


def run_lint(src_root: str) -> list[Finding]:
    paths = collect(src_root)
    if not paths:
        print(f"scm_lint: no C++ sources under {src_root}", file=sys.stderr)
        sys.exit(2)
    # The macro may be applied in a different file than the definition;
    # coverage is checked against the whole scanned tree.
    sources = {p: open(p, encoding="utf-8").read() for p in paths}
    macro_corpus = "\n".join(strip_comments(raw) for raw in sources.values())
    scoped: dict[str, int] = {}
    for p, raw in sources.items():
        if in_segment_scope(os.path.relpath(p, src_root)):
            scoped.update(scope_templated_types(raw))
    findings: list[Finding] = []
    for p, raw in sources.items():
        for f in lint_file(os.path.relpath(p, src_root), raw, macro_corpus,
                           scoped):
            f.path = p
            findings.append(f)
    if os.path.basename(os.path.abspath(src_root)) == "src":
        findings.extend(check_shipped_headers(src_root, sources))
    return findings


def check_shipped_headers(src_root: str,
                          sources: dict[str, str]) -> list[Finding]:
    """RULE 6 over a src/ tree: seeds are the C++ files of the shipped
    directories next to it."""
    parent = os.path.dirname(os.path.abspath(src_root))
    seeds = {}
    for d in SHIPPED_DIRS:
        for p in collect(os.path.join(parent, d)):
            seeds[p] = open(p, encoding="utf-8").read()
    src_files = {os.path.relpath(p, src_root).replace(os.sep, "/"): raw
                 for p, raw in sources.items()}
    findings = find_orphans(src_files, seeds)
    for f in findings:
        f.path = os.path.join(src_root, f.path)
    return findings


# ---------------------------------------------------------------------------
# self-test: prove the rules have teeth before trusting a clean run

SELF_TESTS = [
    # (name, rule (or "file:<path under src/>"), snippet, expected
    # finding count)
    ("defaulted load flagged",
     "order", "void f() { x.load(); }", 1),
    ("defaulted multi-line store flagged",
     "order", "void f() {\n  x.store(\n      42);\n}", 1),
    ("explicit order passes",
     "order", "void f() { x.load(std::memory_order_acquire); }", 0),
    ("multi-line explicit order passes",
     "order", "void f() {\n  x.store(v,\n      std::memory_order_release);\n}",
     0),
    ("cas with one order flagged",
     "order",
     "void f() { x.compare_exchange_strong(e, d,"
     " std::memory_order_acq_rel); }", 1),
    ("cas with both orders passes",
     "order",
     "void f() { x.compare_exchange_strong(e, d,\n"
     "    std::memory_order_acq_rel, std::memory_order_relaxed); }", 0),
    ("platform primitive (ctx first arg) skipped",
     "order", "void f() { counter_.fetch_add(ctx, 1); }", 0),
    ("order token inside comment does not count",
     "order", "void f() { x.load(/* std::memory_order_acquire */); }", 1),
    ("escape hatch honored",
     "order", "void f() { x.load(); }  // scm-lint: default-order-ok", 0),
    ("pointer member in shm struct flagged",
     "shm", "struct S { void* base_ = nullptr; };\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("virtual member flagged",
     "shm", "struct S { virtual void f(); };\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("std::string member flagged",
     "shm", "struct S { std::string path_; };\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("missing macro coverage flagged",
     "shm", "struct S { std::uint64_t off = 0; };", 1),
    ("clean struct with macro passes",
     "shm", "struct S { std::uint64_t off = 0; };\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("template instantiation counts as coverage",
     "shm", "template <class T> struct S { std::uint64_t off = 0; };\n"
            "SCM_ASSERT_ADDRESS_FREE(S<int>);", 0),
    ("a comment above a segment type exempts nothing",
     "shm", "// the handle, lives on this process's stack\n"
            "class S { void* base_ = nullptr; };\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("method signatures are not members",
     "shm", "struct S { std::uint64_t off = 0;\n"
            "  int* get(Arena& a) const; };\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("local reference inside a method body is not a member",
     "shm", "struct S {\n"
            "  std::uint64_t off = 0;\n"
            "  void f() {\n"
            "    Slot& s = slots_[0];\n"
            "  }\n"
            "};\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("signature continuation line is not a member",
     "shm", "struct S {\n"
            "  void f(int a,\n"
            "         std::optional<int> b = std::nullopt) {}\n"
            "  std::uint64_t off = 0;\n"
            "};\n"
            "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("namespace-qualified macro arg counts as coverage",
     "shm", "struct S { std::uint64_t off = 0; };\n"
            "SCM_ASSERT_ADDRESS_FREE(detail::S);", 0),
    ("64-bit futex word flagged",
     "futex", "struct S { std::atomic<std::uint64_t> futex_word_{0}; };\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("private-scope WaitPoint in the segment flagged",
     "futex", "struct S { WaitPoint<FutexScope::kPrivate> futex_waiters_{}; "
              "};\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("shared-scope WaitPoint passes",
     "futex", "struct S { WaitPoint<FutexScope::kShared> futex_waiters_{}; "
              "};\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("aligned 32-bit atomic futex word passes",
     "futex", "struct S { alignas(4) std::atomic<std::uint32_t> "
              "futex_word_{0}; };\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("aligned shared WaitPoint member passes",
     "futex", "struct S {\n"
              "  alignas(64) WaitPoint<FutexScope::kShared> "
              "futex_waiters_{};\n"
              "};\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("futex word without address-free coverage flagged",
     "futex", "struct S { std::atomic<std::uint32_t> futex_word_{0}; };", 1),
    ("futex call in a method body is not a member",
     "futex", "struct S {\n"
              "  std::uint64_t off = 0;\n"
              "  void f() { futex_waiters_.wake_all(); }\n"
              "};\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("enum class is not a struct",
     "shm", "enum class E : std::uint32_t { kA = 0, kB = 1 };", 0),
    ("pointer member in the slot protocol flagged",
     "file:core/slot_protocol.hpp",
     "struct S { void* base_ = nullptr; };\n"
     "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("private-scope WaitPoint in the slot protocol flagged",
     "file:core/slot_protocol.hpp",
     "struct S { WaitPoint<FutexScope::kPrivate> futex_waiters_{}; };\n"
     "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("scope-templated WaitPoint instantiated shared passes",
     "futex", "template <class E, FutexScope kScope>\n"
              "struct Core { WaitPoint<kScope> futex_waiters_{}; };\n"
              "SCM_ASSERT_ADDRESS_FREE(Core<int, FutexScope::kShared>);\n"
              "struct S { Core<int, FutexScope::kShared> core_; };\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 0),
    ("scope-templated WaitPoint instantiated private flagged",
     "futex", "template <class E, FutexScope kScope>\n"
              "struct Core { WaitPoint<kScope> futex_waiters_{}; };\n"
              "SCM_ASSERT_ADDRESS_FREE(Core<int, FutexScope::kShared>);\n"
              "struct S { Core<int, FutexScope::kPrivate> core_; };\n"
              "SCM_ASSERT_ADDRESS_FREE(S);", 1),
    ("scope-templated type missing its scope argument flagged",
     "futex", "template <class E, FutexScope kScope>\n"
              "struct Core { WaitPoint<kScope> futex_waiters_{}; };\n"
              "SCM_ASSERT_ADDRESS_FREE(Core<int>);", 1),
    ("WaitPoint scope named after no template parameter flagged",
     "futex", "template <class E>\n"
              "struct Core { WaitPoint<kScope> futex_waiters_{}; };\n"
              "SCM_ASSERT_ADDRESS_FREE(Core<int>);", 1),
    ("private scope reaching ShmCombining's core flagged",
     "file:shm/shm_combining.hpp",
     "template <class Extra, std::size_t kSlots, FutexScope kScope>\n"
     "class CombiningCore {\n"
     "  alignas(64) WaitPoint<kScope> futex_waiters_{};\n"
     "};\n"
     "SCM_ASSERT_ADDRESS_FREE(CombiningCore<SlotNoExtra, 2,\n"
     "                                      FutexScope::kShared>);\n"
     "template <class Obj, std::size_t kSlots>\n"
     "class ShmCombining {\n"
     "  using Core = CombiningCore<SlotNoExtra, kSlots,\n"
     "                             FutexScope::kPrivate>;\n"
     "  Core core_;\n"
     "};\n"
     "SCM_ASSERT_ADDRESS_FREE(ShmCombining<Probe, 2>);", 1),
    ("shared scope reaching ShmCombining's core passes",
     "file:shm/shm_combining.hpp",
     "template <class Extra, std::size_t kSlots, FutexScope kScope>\n"
     "class CombiningCore {\n"
     "  alignas(64) WaitPoint<kScope> futex_waiters_{};\n"
     "};\n"
     "SCM_ASSERT_ADDRESS_FREE(CombiningCore<SlotNoExtra, 2,\n"
     "                                      FutexScope::kShared>);\n"
     "template <class Obj, std::size_t kSlots>\n"
     "class ShmCombining {\n"
     "  using Core = CombiningCore<SlotNoExtra, kSlots,\n"
     "                             FutexScope::kShared>;\n"
     "  Core core_;\n"
     "};\n"
     "SCM_ASSERT_ADDRESS_FREE(ShmCombining<Probe, 2>);", 0),
    ("private scope in an in-process executor passes",
     "file:core/combining.hpp",
     "template <class Extra, std::size_t kSlots, FutexScope kScope>\n"
     "class CombiningCore { WaitPoint<kScope> futex_waiters_{}; };\n"
     "template <class Obj, std::size_t kSlots>\n"
     "class Combining {\n"
     "  using Core = CombiningCore<SlotCompletion, kSlots,\n"
     "                             FutexScope::kPrivate>;\n"
     "  Core core_;\n"
     "};", 0),
    ("in-process core files stay out of the segment rules",
     "file:core/combining.hpp",
     "struct S { void* user = nullptr; };", 0),
    ("acquire load in adaptive hot path flagged",
     "adaptive",
     "void f() { n_ = op_count_.load(std::memory_order_acquire); }", 1),
    ("defaulted (seq_cst) load in adaptive hot path flagged",
     "adaptive", "void f() { n_ = op_count_.load(); }", 1),
    ("relaxed load in adaptive hot path passes",
     "adaptive",
     "void f() { n_ = op_count_.load(std::memory_order_relaxed); }", 0),
    ("multi-line relaxed load in adaptive hot path passes",
     "adaptive",
     "void f() {\n  n_ = op_count_.load(\n"
     "      std::memory_order_relaxed);\n}", 0),
    ("adaptive escape hatch honored",
     "adaptive",
     "void f() { n_ = epoch_.load(std::memory_order_acquire); }"
     "  // scm-lint: non-relaxed-ok", 0),
    ("relaxed token in comment does not satisfy adaptive rule",
     "adaptive",
     "void f() { n_ = op_count_.load(/* std::memory_order_relaxed */); }",
     1),
    ("platform primitive load (ctx first arg) skipped by adaptive rule",
     "adaptive", "void f() { v = reg_.load(ctx); }", 0),
    ("acquire exchange is an RMW, not a load — adaptive rule ignores it",
     "adaptive",
     "void f() { taken = lock_.exchange(true, std::memory_order_acquire); }",
     0),
    ("relaxed fetch_add in core flagged",
     "file:core/caching.hpp",
     "void f() { hits.fetch_add(1, std::memory_order_relaxed); }", 1),
    ("multi-line relaxed fetch_sub in core flagged",
     "file:core/combining.hpp",
     "void f() {\n  n.fetch_sub(\n      1, std::memory_order_relaxed);\n}", 1),
    ("protocol fetch_add naming seq_cst passes",
     "file:core/caching.hpp",
     "void f() { g = gen.fetch_add(1, std::memory_order_seq_cst) + 1; }", 0),
    ("single-writer load+store count passes",
     "file:core/adaptive.hpp",
     "void f() { n.store(n.load(std::memory_order_relaxed) + 1,\n"
     "                   std::memory_order_relaxed); }", 0),
    ("relaxed fetch_add outside core passes",
     "file:support/parking.hpp",
     "void f() { parks_.fetch_add(1, std::memory_order_relaxed); }", 0),
    ("relaxed-rmw escape on the call's line honored",
     "file:core/pipeline.hpp",
     "void f() { n.fetch_add(1, std::memory_order_relaxed); }"
     "  // scm-lint: relaxed-rmw-ok", 0),
    ("relaxed-rmw escape on the comment line above honored",
     "file:core/pipeline.hpp",
     "void f() {\n  // scm-lint: relaxed-rmw-ok (shared stage count)\n"
     "  n.fetch_add(1, std::memory_order_relaxed);\n}", 0),
    ("relaxed-rmw escape two lines above does not count",
     "file:core/pipeline.hpp",
     "void f() {\n  // scm-lint: relaxed-rmw-ok\n  int k = 0;\n"
     "  n.fetch_add(1, std::memory_order_relaxed);\n}", 1),
    # RULE 6 snippets are (src files, shipped seed files).
    ("orphan header flagged",
     "orphan", ({"core/a.hpp": "", "core/orphan.hpp": ""},
                {"main.cpp": '#include "core/a.hpp"\n'}), 1),
    ("header reached through another header passes",
     "orphan", ({"core/a.hpp": '#include "support/b.hpp"\n',
                 "support/b.hpp": '#include "c.hpp"\n',
                 "support/c.hpp": ""},
                {"main.cpp": '#include "core/a.hpp"  // entry\n'}), 0),
    ("header reached from a src .cpp passes",
     "orphan", ({"sim/sim.cpp": '#include "sim/sim.hpp"\n',
                 "sim/sim.hpp": ""}, {}), 0),
    ("commented-out include does not ship a header",
     "orphan", ({"core/a.hpp": ""},
                {"main.cpp": '// #include "core/a.hpp"\n'}), 1),
    ("shipped checker is exempt",
     "orphan", ({"sim/explorer.hpp": "", "core/interpretation.hpp": ""},
                {}), 0),
]


def self_test() -> int:
    failures = 0
    for name, rule, snippet, expected in SELF_TESTS:
        if rule.startswith("file:"):
            got = lint_file(rule[len("file:"):].replace("/", os.sep), snippet,
                            strip_comments(snippet),
                            scope_templated_types(snippet))
        elif rule == "order":
            got = check_memory_orders("<self-test>", snippet)
        elif rule == "adaptive":
            got = check_adaptive_hot_reads("<self-test>", snippet)
        elif rule == "orphan":
            got = find_orphans(*snippet)
        elif rule == "futex":
            got = check_shm_futex("<self-test>", snippet,
                                  strip_comments(snippet))
            got += check_scope_instantiations(
                "<self-test>", snippet, scope_templated_types(snippet))
        else:
            got = check_shm_layout("<self-test>", snippet,
                                   strip_comments(snippet))
        if len(got) != expected:
            failures += 1
            print(f"SELF-TEST FAIL: {name}: expected {expected} finding(s), "
                  f"got {len(got)}:", file=sys.stderr)
            for f in got:
                print(f"    {f}", file=sys.stderr)
    if failures:
        print(f"scm_lint self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"scm_lint self-test: all {len(SELF_TESTS)} checks behave")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="source root to scan (default: <repo>/src)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the rules flag known-bad snippets")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = args.root
    if root is None:
        root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
    findings = run_lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"scm_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("scm_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
