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
    symbol `<g>`);
  * the source line an SCM_CHECK or SCM_CHECK_MSG passes to
    scm::detail::assert_fail: the `mov $0x126,%edx` that loads it
    before the call reads `mov $LINE,%edx`, so lines added or removed
    above a check do not change the function that holds it;
  * the offset of a local-exec thread-local access: `%fs:0x..e0` reads
    `%fs:<scm::detail::tally_cell>`. The executable's TLS block ends
    at the thread pointer, so a symbol with TLS value v sits at
    %fs:-(size - v), where size is the PT_TLS segment's memsz rounded
    up to its alignment (both read with `readelf`). An offset that
    names no symbol, such as the stack guard's %fs:0x28, stays as
    written;
  * the alignment padding after a function's last `ret` or `jmp`
    (`nop` in any width, `xchg %ax,%ax`, `int3`), which objdump lists
    as part of the function. A `nop` before that last `ret` or `jmp`
    is code and is compared.

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
# After mask(): the call to the check-failure handler, and the load of
# its third argument, the line number.
ASSERT_CALL = re.compile(r"^call <scm::detail::assert_fail\(")
LINE_ARG = re.compile(r"^mov \$0x[0-9a-f]+,%edx$")
# How far back from that call the line load is looked for.
LINE_ARG_WINDOW = 6
# A thread-pointer-relative operand, its offset as objdump prints it
# (a negative offset is a 64-bit two's complement).
FS_OFFSET = re.compile(r"%fs:(0x[0-9a-f]+)")
# After mask(): a padding instruction, and a function's last real one.
PADDING = re.compile(
    r"^(?:(?:data16|cs|ds) )*(?:nop[wl]?(?: .*)?|xchg %ax,%ax|int3)$")
LAST = re.compile(r"^(?:(?:repz?|bnd|notrack) )*(?:ret|jmp)\b")


def parse_tls(program_headers, symbols):
    """Maps the %fs: offset of each defined TLS symbol to its name, from
    `readelf -lW` and `readelf -sW -C` listings. Empty when the binary
    has no PT_TLS segment."""
    size = None
    for line in program_headers.splitlines():
        fields = line.split()
        if fields and fields[0] == "TLS":
            memsz, align = int(fields[5], 16), int(fields[-1], 16)
            size = (memsz + align - 1) // align * align if align else memsz
    if size is None:
        return {}
    names = {}
    for line in symbols.splitlines():
        fields = line.split(None, 7)
        if len(fields) == 8 and fields[3] == "TLS" and fields[6] != "UND":
            offset = (int(fields[1], 16) - size) % (1 << 64)
            names.setdefault(offset, set()).add(fields[7])
    # An offset two symbols share names neither for sure.
    return {off: n.pop() for off, n in names.items() if len(n) == 1}


def mask(insn, tls=None):
    """The instruction text with every layout-dependent number removed;
    `tls` is parse_tls()'s map of the binary the text came from."""
    insn = RIP_COMMENT.sub(r"# <\1>", insn)
    insn = RIP_DISP.sub("X(%rip)", insn)
    insn = TARGET.sub(r"\1", insn)
    if tls:
        def resolve(m):
            name = tls.get(int(m.group(1), 16))
            return f"%fs:<{name}>" if name else m.group(0)
        insn = FS_OFFSET.sub(resolve, insn)
    return " ".join(insn.split())


def mask_check_line(insns):
    """Masks the line-number load before a trailing assert_fail call,
    searching back no further than the previous call, jump or return."""
    for i in range(len(insns) - 2, max(len(insns) - 2 - LINE_ARG_WINDOW, -1),
                   -1):
        if LINE_ARG.match(insns[i]):
            insns[i] = "mov $LINE,%edx"
            return
        if insns[i].startswith(("call", "jmp", "ret")):
            return


def strip_padding(insns):
    """Drops the padding that follows a function's last ret or jmp."""
    end = len(insns)
    while end > 0 and PADDING.match(insns[end - 1]):
        end -= 1
    if 0 < end < len(insns) and LAST.match(insns[end - 1]):
        del insns[end:]


def split_functions(listing, tls=None):
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
            current.append(mask(m.group(1), tls))
            if ASSERT_CALL.match(current[-1]):
                mask_check_line(current)
    for insns in funcs.values():
        strip_padding(insns)
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


def run_tool(cmd, path):
    try:
        return subprocess.run(cmd + [path], check=True, capture_output=True,
                              text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        detail = (getattr(e, "stderr", "") or str(e)).strip()
        print(f"codediff: {cmd[0]} failed on {path}: {detail}",
              file=sys.stderr)
        raise SystemExit(2)


def functions_of(path):
    """The masked functions of one binary."""
    tls = parse_tls(run_tool(["readelf", "-lW"], path),
                    run_tool(["readelf", "-sW", "-C"], path))
    return split_functions(
        run_tool(["objdump", "-d", "--no-show-raw-insn", "-C"], path), tls)


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

# A bounds check: the failure branch loads __LINE__ (0x126) into %edx
# and calls the check-failure handler.
CHECKED = """\
0000000000001000 <f>:
    1000:\tcmp    $0x3f,%eax
    1003:\tja     1008 <f+0x8>
    1005:\tmov    $0x1,%eax
    1007:\tret
    1008:\tmov    $0x126,%edx
    100d:\tlea    0x2f1(%rip),%rsi        # 1300 <_IO_stdin_used+0x6b8>
    1014:\tlea    0x2ea(%rip),%rdi        # 1300 <_IO_stdin_used+0x568>
    101b:\tcall   1100 <scm::detail::assert_fail(char const*, char const*, int, char const*)>
"""


# g padded to the next 16-byte boundary two ways, as two builds of the
# same code can be.
PADDED = BASE.replace("    1107:\tret\n", "    1107:\tret\n"
                      "    1108:\tnopl   0x0(%rax,%rax,1)\n")
REPADDED = BASE.replace("    1107:\tret\n", "    1107:\tret\n"
                        "    1108:\tnop\n    1109:\txchg   %ax,%ax\n"
                        "    110b:\tcs nopw 0x0(%rax,%rax,1)\n"
                        "    1116:\tint3\n")


def tls_layout(cell, trace):
    """parse_tls() of a 0x19-byte, 8-aligned TLS block (0x20 rounded)
    holding two thread-locals at the given values."""
    headers = ("  TLS            0x043aa8 0x0000000000043aa8 "
               "0x0000000000043aa8 0x000004 0x000019 R   0x8\n")
    symbols = (
        f"   418: {cell:016x}     4 TLS     UNIQUE DEFAULT   21 "
        "scm::detail::tally_cell\n"
        f"   424: {trace:016x}     8 TLS     UNIQUE DEFAULT   22 "
        "perfbench::t_trace\n"
        "    12: 0000000000000000     0 TLS     GLOBAL DEFAULT  UND errno\n")
    return parse_tls(headers, symbols)


def tls_read(offset):
    return ("0000000000001000 <f>:\n"
            f"    1000:\tmov    %fs:{offset},%eax\n"
            "    1008:\tret\n")


# tally_cell first: it is at %fs:-0x20, t_trace at %fs:-0x18. Swapped,
# tally_cell moves to %fs:-0x18.
CELL_FIRST = tls_layout(0x0, 0x8)
TRACE_FIRST = tls_layout(0x8, 0x0)

SELF_TESTS = [
    # (description, old listing, new listing, expected compare() shape);
    # a listing given as (text, tls map) resolves %fs: offsets by the map
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
    ("an SCM_CHECK's line moved", CHECKED,
     CHECKED.replace("$0x126,%edx", "$0x119,%edx"), (1, [], [], [])),
    ("another immediate changed beside a check", CHECKED,
     CHECKED.replace("$0x1,%eax", "$0x2,%eax"), (0, [("f", 8, 8)], [], [])),
    ("a checked bound changed", CHECKED,
     CHECKED.replace("$0x3f,%eax", "$0x7f,%eax"), (0, [("f", 8, 8)], [], [])),
    ("a %edx immediate before another call changed",
     CHECKED.replace("scm::detail::assert_fail", "report"),
     CHECKED.replace("scm::detail::assert_fail", "report")
     .replace("$0x126,%edx", "$0x119,%edx"), (0, [("f", 8, 8)], [], [])),
    ("only the padding after the last ret differs", PADDED, REPADDED,
     (2, [], [], [])),
    ("padding added after the last ret", BASE, REPADDED, (2, [], [], [])),
    ("a nop inside the body, before the padded ret", PADDED,
     PADDED.replace("    1107:\tret\n", "    1106:\tnop\n    1107:\tret\n"),
     (1, [("g", 2, 3)], [], [])),
    ("a nop after a call is not padding",
     BASE.replace("    1107:\tret\n", "    1107:\tcall   1000 <f>\n"),
     BASE.replace("    1107:\tret\n", "    1107:\tcall   1000 <f>\n"
                  "    110c:\tnop\n"), (1, [("g", 2, 3)], [], [])),
    ("a moved thread_local",
     (tls_read("0xffffffffffffffe0"), CELL_FIRST),
     (tls_read("0xffffffffffffffe8"), TRACE_FIRST), (1, [], [], [])),
    ("a different thread_local read",
     (tls_read("0xffffffffffffffe0"), CELL_FIRST),
     (tls_read("0xffffffffffffffe8"), CELL_FIRST), (0, [("f", 2, 2)], [], [])),
    ("an offset that names no thread_local moved",
     (tls_read("0xffffffffffffffd8"), CELL_FIRST),
     (tls_read("0xffffffffffffffd0"), TRACE_FIRST),
     (0, [("f", 2, 2)], [], [])),
    ("the stack guard's offset read on both sides",
     (tls_read("0x28"), CELL_FIRST), (tls_read("0x28"), TRACE_FIRST),
     (1, [], [], [])),
]


def self_test():
    failures = 0
    def functions(listing):
        return (split_functions(*listing) if isinstance(listing, tuple)
                else split_functions(listing))

    for desc, old, new, want in SELF_TESTS:
        identical, changed, old_only, new_only = compare(
            functions(old), functions(new))
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
    return report(functions_of(args.old), functions_of(args.new))


if __name__ == "__main__":
    sys.exit(main())
