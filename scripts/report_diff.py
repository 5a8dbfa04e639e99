"""Compare the verify report of this checkout with that of another checkout.

For each of the two trees the script runs

    python -m modzeta.cli verify --suite all --format json --jobs 2 --digits D

with that tree's ``src`` first on PYTHONPATH, at D = 15, 50, 100 and 250.
Then, in the same way, it evaluates the four theorem evaluators at the 102
points of ``perfbench.workloads.theorem_points(1)`` (imported from this
checkout, read-only), each point at its own digits: a row per identity holds
both sides printed to working precision and their abs_residual.
For each level it prints each record whose lhs, rhs, abs_residual, pass or
error differs, as ``field: other -> this``, and each record that only one
report holds; then how many abs_residuals rose and fell, and the largest
rise.  Timings and the summary are not compared.  The exit status is 1 if
any record differs at any level, and 0 otherwise.

    python3 scripts/report_diff.py PARENT    # PARENT: the root of another checkout

It needs only the standard library.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from decimal import Decimal

DIGITS = (15, 50, 100, 250)
FIELDS = ("lhs", "rhs", "abs_residual", "pass", "error")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run in a child process with a tree's src on its path: print the point rows
POINTS_CHILD = "import sys; sys.path.insert(0, %r); import report_diff; report_diff._print_points()"


def _run(tree: str, argv: list) -> subprocess.CompletedProcess:
    path = [os.path.join(tree, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run([sys.executable] + argv,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), cwd=tree,
                          capture_output=True, text=True)


def _report(tree: str, digits: int) -> dict:
    """{id: row} of a full verify run of the checkout at tree."""
    done = _run(tree, ["-m", "modzeta.cli", "verify", "--suite", "all", "--format", "json",
                       "--jobs", "2", "--digits", str(digits)])
    if done.returncode not in (0, 1):  # 1: the report holds a failing record
        sys.exit("verify failed in %s at %d digits:\n%s" % (tree, digits, done.stderr))
    return {row["id"]: row for row in json.loads(done.stdout)["identities"]}


def _points(tree: str) -> dict:
    """{id: row} of the theorem evaluators of the checkout at tree at the theorem points."""
    done = _run(tree, ["-c", POINTS_CHILD % os.path.dirname(os.path.abspath(__file__))])
    if done.returncode != 0:
        sys.exit("theorem points failed in %s:\n%s" % (tree, done.stderr))
    return json.loads(done.stdout)


def _print_points() -> None:
    """Print {id: row} of the theorem points as JSON, with the modzeta on sys.path."""
    import mpmath as mp
    from modzeta import PrecisionCtx, verify
    sys.path.insert(0, ROOT)
    from perfbench.workloads import theorem_points
    rows = {}
    for p in theorem_points(1)["points"]:
        ctx = PrecisionCtx(p["digits"])
        with ctx.working():
            z = mp.mpc(mp.mpf(p["re"]), mp.mpf(p["im"]))
            for fname in ("q_ratios", "r_linear", "h3_ratios", "h3_linear"):
                sides = getattr(verify, fname)(z, ctx)
                for lk in (k for k in sides if "lhs" in k):
                    rk = lk.replace("lhs", "rhs")
                    rid = "%s+%si@%d %s.%s" % (p["re"], p["im"], p["digits"], fname, lk)
                    rows[rid] = {"lhs": mp.nstr(sides[lk], ctx.workdps),
                                 "rhs": mp.nstr(sides[rk], ctx.workdps),
                                 "abs_residual": mp.nstr(abs(sides[lk] - sides[rk]), 8)}
    json.dump(rows, sys.stdout)


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


def _residual_moves(other: dict, this: dict) -> str:
    """How many abs_residuals rose and fell from other to this, and the largest rise."""
    rises, fell = [], 0
    for rid in sorted(other.keys() & this.keys()):
        old, new = (Decimal(r[rid]["abs_residual"]) for r in (other, this))
        if new > old:
            rises.append((new - old, rid, old, new))
        fell += new < old
    line = "  abs_residual: %d rose, %d fell" % (len(rises), fell)
    if rises:
        line += "; largest rise %s %s -> %s" % max(rises)[1:]
    return line


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit("usage: report_diff.py PARENT")
    other_tree = os.path.abspath(argv[0])
    differ = False
    levels = [("%d digits" % d, functools.partial(_report, digits=d)) for d in DIGITS]
    for name, rows in levels + [("theorem points", _points)]:
        this, other = rows(ROOT), rows(other_tree)
        diff = _differences(other, this)
        print("%s: %d records, %d differ" % (name, len(this), len(diff)))
        for rid, lines in diff.items():
            print("  %s\n%s" % (rid, "\n".join("    " + line for line in lines)))
        print(_residual_moves(other, this))
        differ = differ or bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
