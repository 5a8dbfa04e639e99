"""Suite runner and report generation.

Identities are independent pure computations; with ``jobs > 1`` they fan out
across worker processes that evaluate by record id (a forked worker inherits
the registry built before the pool starts; a spawned one rebuilds it from the
shared seed), and the report is assembled in id order regardless of
completion order.  All high-precision values serialize as decimal strings,
never binary floats.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import mpmath as mp
from mpmath import mpc, mpf

from ..mpcore import DomainError, PrecisionCtx
from .registry import DEFAULT_SEED, SUITES, IdentityRecord, build_registry

__all__ = ["Report", "all_suites", "get_records", "run_suite"]


def all_suites() -> list:
    return list(SUITES) + ["all"]


@functools.cache
def _registry(seed: int):
    return build_registry(seed)


def get_records(suite: str, seed: int = DEFAULT_SEED) -> list:
    if suite == "all":
        recs = list(_registry(seed))
    else:
        if suite not in SUITES:
            raise DomainError("unknown suite %r; known: %s"
                              % (suite, ", ".join(all_suites())))
        recs = [r for r in _registry(seed) if r.suite == suite]
    return sorted(recs, key=lambda r: r.id)


def _num_str(x, digits: int) -> str:
    return mp.nstr(x, digits, strip_zeros=False)


def _evaluate(rec: IdentityRecord, ctx: PrecisionCtx) -> dict:
    t0 = time.perf_counter()
    with ctx.working():
        try:
            lhs = rec.lhs(ctx)
            rhs = rec.rhs(ctx)
        except DomainError as exc:
            # a side computed outside its contract, such as a quadrature that
            # did not converge, fails this record and not the whole suite
            sides, resid, ok, error = ("", ""), "inf", False, str(exc)
        else:
            r = abs(mpc(lhs) - mpc(rhs))
            sides = (_num_str(lhs, ctx.digits), _num_str(rhs, ctx.digits))
            resid, ok, error = _num_str(r, 8), bool(r < ctx.tolerance()), None
        row = {
            "id": rec.id,
            "suite": rec.suite,
            "description": rec.description,
            "lhs": sides[0],
            "rhs": sides[1],
            "abs_residual": resid,
            "tol_exponent": ctx.digits - 5,
            "pass": ok,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        if error is not None:
            row["error"] = error
    return row


def _worker(args) -> dict:
    suite, rec_id, digits, guard, seed = args
    ctx = PrecisionCtx(digits, guard)
    rec = next(r for r in get_records(suite, seed) if r.id == rec_id)
    return _evaluate(rec, ctx)


@dataclass
class Report:
    suite: str
    digits: int
    seed: int
    rows: list

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.rows)

    @property
    def summary(self) -> dict:
        worst = max(self.rows, key=lambda r: mpf(r["abs_residual"])) if self.rows else None
        return {
            "suite": self.suite,
            "digits": self.digits,
            "seed": self.seed,
            "total": len(self.rows),
            "passed": sum(1 for r in self.rows if r["pass"]),
            "failed": sum(1 for r in self.rows if not r["pass"]),
            "max_residual": worst["abs_residual"] if worst else "0",
            "max_residual_id": worst["id"] if worst else "",
            "elapsed_ms": round(sum(r["elapsed_ms"] for r in self.rows), 3),
        }

    def to_json(self) -> str:
        return json.dumps({"identities": self.rows, "summary": self.summary},
                          indent=2)

    def to_text(self) -> str:
        idw = max([len(r["id"]) for r in self.rows] + [8])
        lines = ["%-*s  %-6s  %-13s  %9s  %s"
                 % (idw, "id", "status", "residual", "ms", "description")]
        for r in self.rows:
            lines.append("%-*s  %-6s  %-13s  %9.1f  %s"
                         % (idw, r["id"], "pass" if r["pass"] else "FAIL",
                            r["abs_residual"], r["elapsed_ms"],
                            r.get("error", r["description"])[:68]))
        s = self.summary
        lines.append("%d/%d passed at digits=%d (max residual %s at %s)"
                     % (s["passed"], s["total"], self.digits,
                        s["max_residual"], s["max_residual_id"]))
        return "\n".join(lines)


def run_suite(suite: str, ctx: PrecisionCtx, jobs: int = 1,
              seed: int = DEFAULT_SEED) -> Report:
    """Evaluate every identity in ``suite``; deterministic id-ordered report."""
    recs = get_records(suite, seed)
    if jobs and jobs > 1 and len(recs) > 1:
        # imported here: a serial run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        args = [(suite, r.id, ctx.digits, ctx.guard, seed) for r in recs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_worker, args))
    else:
        rows = [_evaluate(r, ctx) for r in recs]
    rows.sort(key=lambda r: r["id"])
    return Report(suite=suite, digits=ctx.digits, seed=seed, rows=rows)
