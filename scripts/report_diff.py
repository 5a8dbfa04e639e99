"""Compare the verify report of this checkout with that of another checkout.

For each of the two trees the script runs

    python -m modzeta.cli verify --suite all --format json --jobs 2 --digits D

with that tree's ``src`` first on PYTHONPATH, at D = 15, 50, 100 and 250.
It prints each record whose lhs, rhs, abs_residual, pass or error differs,
as ``field: other -> this``, and each record that only one report holds.
Timings and the summary are not compared.  The exit status is 1 if any
record differs at any level, and 0 otherwise.

    python3 scripts/report_diff.py PARENT    # PARENT: the root of another checkout

It needs only the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

DIGITS = (15, 50, 100, 250)
FIELDS = ("lhs", "rhs", "abs_residual", "pass", "error")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(tree: str, digits: int) -> dict:
    """{id: row} of a full verify run of the checkout at tree."""
    path = [os.path.join(tree, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run(
        [sys.executable, "-m", "modzeta.cli", "verify", "--suite", "all", "--format", "json",
         "--jobs", "2", "--digits", str(digits)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), cwd=tree,
        capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: the report holds a failing record
        sys.exit("verify failed in %s at %d digits:\n%s" % (tree, digits, done.stderr))
    return {row["id"]: row for row in json.loads(done.stdout)["identities"]}


def _differences(other: dict, this: dict) -> dict:
    """{id: lines naming each field that differs} of every record that differs."""
    diff = {}
    for rid in sorted(other.keys() | this.keys()):
        if rid not in this or rid not in other:
            diff[rid] = ["only in %s" % ("this tree" if rid in this else "the other")]
            continue
        fields = [f for f in FIELDS if other[rid].get(f) != this[rid].get(f)]
        if fields:
            diff[rid] = ["%s: %s -> %s" % (f, other[rid].get(f), this[rid].get(f))
                         for f in fields]
    return diff


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit("usage: report_diff.py PARENT")
    other_tree = os.path.abspath(argv[0])
    differ = False
    for digits in DIGITS:
        this = _report(ROOT, digits)
        diff = _differences(_report(other_tree, digits), this)
        print("%d digits: %d records, %d differ" % (digits, len(this), len(diff)))
        for rid, lines in diff.items():
            print("  %s\n%s" % (rid, "\n".join("    " + line for line in lines)))
        differ = differ or bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
