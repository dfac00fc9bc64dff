#!/usr/bin/env python3
"""stepdiff — compare the simulator's step counts in two scm_bench reports.

Reads two scm-bench/v1 JSON reports (scm_bench --json=FILE) and, for
every scenario whose backend is "sim", compares what the simulator
measured: the scenario's claim (text and verdict), its steps_per_op
and rmws_per_op, and for each phase its ops, steps_per_op,
rmws_per_op and extra counters. Simulated runs are deterministic for a
given seed, so two commits that count the same steps produce equal
reports, and a refactor of how steps are taken can state "sim counts
unchanged" by running this. Native-backend scenarios measure wall
time and are skipped.

Output: each differing field as `scenario / phase: field: old -> new`,
then the scenarios found in one report only, then a summary line. Exit
status 0 when every sim scenario agrees, 1 otherwise, 2 on a usage or
read error.

Typical use, on the same command run at two commits:
  scm_bench --filter='*' --threads=3 --ops=64 --reps=1 --warmup=0 \\
      --seed=7 --json=new.json
  tools/stepdiff.py old.json new.json

Usage:
  tools/stepdiff.py OLD_REPORT NEW_REPORT
  tools/stepdiff.py --self-test
"""

import argparse
import json
import sys

SCENARIO_FIELDS = ("claim", "steps_per_op", "rmws_per_op")
PHASE_FIELDS = ("ops", "steps_per_op", "rmws_per_op", "extra")


def sim_scenarios(report):
    """The report's sim-backend scenarios by name."""
    return {s["scenario"]: s for s in report["scenarios"]
            if s.get("backend") == "sim"}


def compare(old, new):
    """Returns (differences, old-only names, new-only names, scenarios
    compared) for two parsed reports."""
    a, b = sim_scenarios(old), sim_scenarios(new)
    diffs = []
    for name in sorted(set(a) & set(b)):
        sa, sb = a[name], b[name]
        for field in SCENARIO_FIELDS:
            if sa.get(field) != sb.get(field):
                diffs.append((name, None, field, sa.get(field),
                              sb.get(field)))
        pa = {p["phase"]: p for p in sa.get("phases", [])}
        pb = {p["phase"]: p for p in sb.get("phases", [])}
        for phase in sorted(set(pa) | set(pb)):
            if phase not in pa or phase not in pb:
                diffs.append((name, phase, "phase", phase in pa,
                              phase in pb))
                continue
            for field in PHASE_FIELDS:
                if pa[phase].get(field) != pb[phase].get(field):
                    diffs.append((name, phase, field, pa[phase].get(field),
                                  pb[phase].get(field)))
    return (diffs, sorted(set(a) - set(b)), sorted(set(b) - set(a)),
            len(set(a) & set(b)))


def report(old, new):
    diffs, old_only, new_only, compared = compare(old, new)
    for name, phase, field, va, vb in diffs:
        where = name if phase is None else f"{name} / {phase}"
        print(f"{where}: {field}: {json.dumps(va)} -> {json.dumps(vb)}")
    for name in old_only:
        print(f"only in old: {name}")
    for name in new_only:
        print(f"only in new: {name}")
    print(f"{compared} sim scenarios compared, {len(diffs)} difference(s)")
    return 0 if not (diffs or old_only or new_only) else 1


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# self-test

def scenario(name, backend="sim", steps=2.0, ops=8, extra=None,
             holds=True):
    stats = {"min": steps, "median": steps, "p99": steps, "mean": steps}
    return {"scenario": name, "backend": backend,
            "claim": {"text": "c", "holds": holds},
            "steps_per_op": stats, "rmws_per_op": stats,
            "phases": [{"phase": "p", "ops": ops, "steps_per_op": stats,
                        "rmws_per_op": stats, "extra": extra or {}}]}


def reports(*scenarios):
    return {"schema": "scm-bench/v1", "scenarios": list(scenarios)}


SELF_TESTS = [
    # (description, old, new, (differences, old-only, new-only))
    ("equal reports agree",
     reports(scenario("a")), reports(scenario("a")), (0, 0, 0)),
    ("a phase's ops differ",
     reports(scenario("a")), reports(scenario("a", ops=9)), (1, 0, 0)),
    ("steps per op differ in the scenario and its phase",
     reports(scenario("a")), reports(scenario("a", steps=3.0)), (4, 0, 0)),
    ("an extra counter differs",
     reports(scenario("a", extra={"k": 1})),
     reports(scenario("a", extra={"k": 2})), (1, 0, 0)),
    ("a claim verdict differs",
     reports(scenario("a")), reports(scenario("a", holds=False)), (1, 0, 0)),
    ("native scenarios are skipped",
     reports(scenario("n", backend="native")),
     reports(scenario("n", backend="native", ops=9)), (0, 0, 0)),
    ("one-sided scenarios are named",
     reports(scenario("a"), scenario("b")), reports(scenario("a"),
                                                    scenario("c")),
     (0, 1, 1)),
]


def self_test():
    failures = 0
    for desc, old, new, want in SELF_TESTS:
        diffs, old_only, new_only, _ = compare(old, new)
        got = (len(diffs), len(old_only), len(new_only))
        if got != want:
            failures += 1
            print(f"FAIL {desc}: got {got}, want {want}", file=sys.stderr)
    if failures:
        print(f"stepdiff self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"stepdiff self-test: all {len(SELF_TESTS)} checks behave")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?", help="the reference report")
    ap.add_argument("new", nargs="?", help="the report to compare")
    ap.add_argument("--self-test", action="store_true",
                    help="check the comparison on synthetic reports")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.old and args.new):
        ap.print_usage(sys.stderr)
        return 2
    try:
        return report(load(args.old), load(args.new))
    except (OSError, ValueError, KeyError) as e:
        print(f"stepdiff: cannot read the reports: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
