#!/usr/bin/env python3
"""codediff — per-function machine-code diff of two binaries.

Disassembles both binaries with `objdump -d --no-show-raw-insn -C`,
splits each listing by symbol and compares the functions by name after
masking what moves when unrelated code moves:

  * instruction addresses (the `  4a3b0:` prefix);
  * branch and call target addresses (`je 4a3f2 <f+0x42>` keeps only
    `<f+0x42>`);
  * rip-relative displacements and the `# addr <sym+off>` comment that
    resolves them (`0x3ffcd(%rip)` and `# 42fd8 <g+0x8>` keep only the
    symbol `<g>`).

What is left is the instruction stream itself, so a change that only
moves code or data reports every function identical, and any change to
what a function executes names that function.

Output: "N functions identical", then each changed function with its
instruction counts on both sides, then the functions found on one side
only. Exit status 0 when every function is identical, 1 otherwise, 2 on
a usage or objdump error.

Typical use, on the end-to-end benchmark binary of two checkouts:
  tools/codediff.py parent/.bench_build/perfbench/scm_e2e \\
      .bench_build/perfbench/scm_e2e

Usage:
  tools/codediff.py OLD_BINARY NEW_BINARY
  tools/codediff.py --self-test
"""

import argparse
import re
import subprocess
import sys

HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\t(.*)$")
# A branch/call target: a bare hex address followed by its symbol.
TARGET = re.compile(r"\b[0-9a-f]+ (<[^>]*>)")
RIP_DISP = re.compile(r"-?0x[0-9a-f]+\(%rip\)")
# The comment closes the line; the symbol may itself contain '<', '>'
# and '+' (templates, operator+), so only a trailing +0x.. is an offset.
RIP_COMMENT = re.compile(r"#\s*[0-9a-f]+\s*<(.*?)(?:\+0x[0-9a-f]+)?>\s*$")


def mask(insn):
    """The instruction text with every layout-dependent number removed."""
    insn = RIP_COMMENT.sub(r"# <\1>", insn)
    insn = RIP_DISP.sub("X(%rip)", insn)
    insn = TARGET.sub(r"\1", insn)
    return " ".join(insn.split())


def split_functions(listing):
    """Maps each symbol of an objdump listing to its masked instructions.
    A name that occurs twice (local symbols of two translation units)
    gets a ` [2]` suffix, and so on, in listing order."""
    funcs = {}
    current = None
    for line in listing.splitlines():
        m = HEADER.match(line)
        if m:
            name = m.group(1)
            key, n = name, 1
            while key in funcs:
                n += 1
                key = f"{name} [{n}]"
            current = funcs[key] = []
            continue
        m = INSN.match(line)
        if m and current is not None:
            current.append(mask(m.group(1)))
    return funcs


def compare(old, new):
    """Returns (identical names, [(changed, old count, new count)],
    old-only names, new-only names)."""
    identical, changed = [], []
    for name in sorted(old.keys() & new.keys()):
        if old[name] == new[name]:
            identical.append(name)
        else:
            changed.append((name, len(old[name]), len(new[name])))
    return (identical, changed, sorted(old.keys() - new.keys()),
            sorted(new.keys() - old.keys()))


def report(old, new):
    identical, changed, old_only, new_only = compare(old, new)
    print(f"{len(identical)} functions identical")
    for name, a, b in changed:
        print(f"changed: {name} ({a} -> {b} instructions)")
    for name in old_only:
        print(f"only in old: {name} ({len(old[name])} instructions)")
    for name in new_only:
        print(f"only in new: {name} ({len(new[name])} instructions)")
    return 0 if not (changed or old_only or new_only) else 1


def disassemble(path):
    try:
        return subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn", "-C", path],
            check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        detail = (getattr(e, "stderr", "") or str(e)).strip()
        print(f"codediff: cannot disassemble {path}: {detail}",
              file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# self-test: synthetic listings prove the masking neither hides a real
# change nor reports a pure move

BASE = """\
0000000000001000 <f>:
    1000:\tmov    0x2ff0(%rip),%rax        # 3ff8 <counter>
    1007:\tlock xadd %rax,(%rdi)
    100c:\tje     1012 <f+0x12>
    100e:\tcall   1100 <g>
    1012:\tret
0000000000001100 <g>:
    1100:\tlea    0xef8(%rip),%rdi        # 2000 <_IO_stdin_used+0x4>
    1107:\tret
"""

# Every function moved by 0x40 and every data reference by 0x10.
MOVED = """\
0000000000001040 <f>:
    1040:\tmov    0x2fc0(%rip),%rax        # 4008 <counter>
    1047:\tlock xadd %rax,(%rdi)
    104c:\tje     1052 <f+0x12>
    104e:\tcall   1140 <g>
    1052:\tret
0000000000001140 <g>:
    1140:\tlea    0xed8(%rip),%rdi        # 2020 <_IO_stdin_used+0x24>
    1147:\tret
"""

SELF_TESTS = [
    # (description, old listing, new listing, expected compare() shape)
    ("identical listings", BASE, BASE, (2, [], [], [])),
    ("addresses and displacements moved", BASE, MOVED, (2, [], [], [])),
    ("an instruction changed", BASE,
     BASE.replace("lock xadd", "xadd     "), (1, [("f", 5, 5)], [], [])),
    ("an instruction added", BASE,
     BASE.replace("    1107:\tret\n", "    1107:\tnop\n    1108:\tret\n"),
     (1, [("g", 2, 3)], [], [])),
    ("a call retargeted", BASE,
     BASE.replace("call   1100 <g>", "call   1200 <h>"),
     (1, [("f", 5, 5)], [], [])),
    ("a templated symbol moved", BASE.replace(
        "# 3ff8 <counter>", "# 3ff8 <std::atomic<long>::v+0x8>"),
     MOVED.replace("# 4008 <counter>", "# 4010 <std::atomic<long>::v+0x10>"),
     (2, [], [], [])),
    ("a different global loaded", BASE,
     BASE.replace("# 3ff8 <counter>", "# 3ff8 <other>"),
     (1, [("f", 5, 5)], [], [])),
    ("a function on one side only", BASE,
     BASE + "0000000000001200 <h>:\n    1200:\tret\n", (2, [], [], ["h"])),
    ("a duplicate local symbol", BASE + "0000000000001200 <g>:\n"
     "    1200:\tret\n", BASE, (2, [], ["g [2]"], [])),
]


def self_test():
    failures = 0
    for desc, old, new, want in SELF_TESTS:
        identical, changed, old_only, new_only = compare(
            split_functions(old), split_functions(new))
        got = (len(identical), changed, old_only, new_only)
        if got != want:
            failures += 1
            print(f"FAIL {desc}: got {got}, want {want}", file=sys.stderr)
    if failures:
        print(f"codediff self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"codediff self-test: all {len(SELF_TESTS)} checks behave")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?", help="the reference binary")
    ap.add_argument("new", nargs="?", help="the binary to compare")
    ap.add_argument("--self-test", action="store_true",
                    help="check the masking on synthetic listings")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.old and args.new):
        ap.print_usage(sys.stderr)
        return 2
    return report(split_functions(disassemble(args.old)),
                  split_functions(disassemble(args.new)))


if __name__ == "__main__":
    sys.exit(main())
