"""Command-line front end: `modzeta verify|eval|table`.

Exit codes: 0 all-pass, 1 any identity failed, 2 usage/configuration error.
High-precision values are printed as decimal strings only.  The default digit
count comes from --digits, then the MODZETA_DIGITS environment variable, then
an optional flat key=value config file (flags override the file).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import mpmath as mp
from mpmath import mpc, mpf

from . import verify
from .arith import dirichlet_l, epstein2, epstein3
from .eichler import eichler4, eichler6
from .modular import eisenstein, eta, lambda_fn
from .mpcore import DomainError, PrecisionCtx, const_catalan, const_zeta
from .series import LinearFactor, W_ONE, binom2_series, binom3_series, ell_k
from .verify import run_suite, s_r, t_r, u_check

__all__ = ["main"]


class UsageError(Exception):
    pass


def _parse_number(text: str):
    """Exact rational ('3', '-1/64') or decimal complex ('0.5+0.75i', '2i')."""
    text = text.strip()
    try:
        fr = Fraction(text)
        return mpf(fr.numerator) / fr.denominator
    except (ValueError, ZeroDivisionError):
        pass
    s = text.replace(" ", "")
    if s.endswith(("i", "j")):
        body = s[:-1]
        # split into real and imaginary pieces at the last +/- sign
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                re_part, im_part = body[:k], body[k:]
                break
        else:
            re_part, im_part = "0", body or "1"
        if im_part in ("+", "-"):
            im_part += "1"
        try:
            return mpc(mpf(re_part), mpf(im_part))
        except ValueError as exc:
            raise UsageError("cannot parse complex number %r" % (text,)) from exc
    try:
        return mpf(s)
    except ValueError as exc:
        raise UsageError("cannot parse number %r" % (text,)) from exc


def _load_config(path: str | None) -> dict:
    cfg = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise UsageError("cannot read config file %s: %s" % (path, exc.strerror)) from exc
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError("bad config line (want key=value): %r" % line)
            k, v = line.split("=", 1)
            if k.strip() not in ("digits", "suite", "jobs", "format", "out", "seed"):
                raise UsageError("unknown config key %r" % k.strip())
            cfg[k.strip()] = v.strip()
    return cfg


def _int_setting(name: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (name, value)) from None


def _resolve_digits(args, cfg) -> int:
    if args.digits is not None:
        digits = args.digits
    elif os.environ.get("MODZETA_DIGITS"):
        digits = _int_setting("MODZETA_DIGITS", os.environ["MODZETA_DIGITS"])
    elif "digits" in cfg:
        digits = _int_setting("digits", cfg["digits"])
    else:
        digits = 50
    if not 10 <= digits <= 1000:
        raise UsageError("digits must lie in [10, 1000], got %d" % digits)
    return digits


def _resolve_jobs_format(args, cfg) -> tuple:
    """Worker count (at least 1) and report format ("text" or "json")."""
    jobs = (args.jobs if args.jobs is not None
            else _int_setting("jobs", cfg.get("jobs", os.cpu_count() or 1)))
    if jobs < 1:
        raise UsageError("jobs must be at least 1, got %d" % jobs)
    fmt = args.format or cfg.get("format", "text")
    if fmt not in ("text", "json"):
        raise UsageError("format must be text or json, got %r" % (fmt,))
    return jobs, fmt


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out, exc.strerror)) from exc
    else:
        print(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    digits = _resolve_digits(args, cfg)
    suite = args.suite or cfg.get("suite", "all")
    if suite not in verify.all_suites():
        raise UsageError("unknown suite %r; choose from: %s"
                         % (suite, ", ".join(verify.all_suites())))
    jobs, fmt = _resolve_jobs_format(args, cfg)
    seed = (args.seed if args.seed is not None
            else _int_setting("seed", cfg.get("seed", verify.DEFAULT_SEED)))
    ctx = PrecisionCtx(digits)
    report = run_suite(suite, ctx, jobs=jobs, seed=seed)
    _emit(report.to_json() if fmt == "json" else report.to_text(),
          args.out or cfg.get("out"))
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _epstein(z, s: int, ctx: PrecisionCtx):
    if s == 2:
        return epstein2(z, ctx)
    if s == 3:
        return epstein3(z, ctx)
    raise UsageError("E supports s in {2, 3}")


# name -> (one parser per argument, evaluator of the parsed arguments and ctx)
_EVAL = {
    "L": ((int, int), dirichlet_l),
    "zeta": ((int,), const_zeta),
    "G": ((), const_catalan),
    "E": ((_parse_number, int), _epstein),
    "eichler4": ((_parse_number, int), eichler4),
    "eichler6": ((_parse_number, int), eichler6),
    "lambda": ((_parse_number,), lambda_fn),
    "eta": ((_parse_number,), eta),
    "E2": ((_parse_number,), lambda z, ctx: eisenstein(z, 2, ctx)),
    "E4": ((_parse_number,), lambda z, ctx: eisenstein(z, 4, ctx)),
    "E6": ((_parse_number,), lambda z, ctx: eisenstein(z, 6, ctx)),
    "K": ((_parse_number,), ell_k),
    "binom3": ((_parse_number,) * 3,
               lambda x, a, b, ctx: binom3_series(x, LinearFactor(a, b), W_ONE, ctx)),
    "binom2": ((_parse_number,), lambda x, ctx: binom2_series(x, W_ONE, ctx)),
    "Srz": ((_parse_number, Fraction), s_r),
    "Trz": ((_parse_number, Fraction), t_r),
    "Urz": ((_parse_number, Fraction), u_check),
}


def _eval_dispatch(name: str, argv: list, ctx: PrecisionCtx):
    parsers, evaluator = _EVAL[name]
    if len(argv) != len(parsers):
        raise UsageError("%s expects %d argument(s), got %d"
                         % (name, len(parsers), len(argv)))
    with ctx.working():
        return evaluator(*[parse(a) for parse, a in zip(parsers, argv)], ctx)


def _format_value(v, digits: int) -> str:
    if isinstance(v, mpc) and v.imag == 0:
        v = v.real
    return mp.nstr(v, digits, strip_zeros=False)


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    digits = _resolve_digits(args, cfg)
    if args.function not in _EVAL:
        raise UsageError("unknown function %r; choose from: %s"
                         % (args.function, ", ".join(_EVAL)))
    ctx = PrecisionCtx(digits)
    try:
        value = _eval_dispatch(args.function, args.args, ctx)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc
    with ctx.working():
        _emit(_format_value(value, digits), args.out or cfg.get("out"))
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    cfg = _load_config(args.config)
    digits = _resolve_digits(args, cfg)
    jobs, fmt = _resolve_jobs_format(args, cfg)
    suite = "table-h2" if args.which == "h2" else "table-h3"
    ctx = PrecisionCtx(digits)
    report = run_suite(suite, ctx, jobs=jobs)
    if fmt == "json":
        _emit(report.to_json(), args.out or cfg.get("out"))
    else:
        lines = ["%s: every cell recomputed from first principles vs closed form"
                 % suite]
        for r in report.rows:
            lines.append("%-14s %-6s  computed=%s" % (
                r["id"], "pass" if r["pass"] else "FAIL", r["lhs"]))
            lines.append("%-14s %-6s    closed=%s  (residual %s)" % (
                "", "", r["rhs"], r["abs_residual"]))
        s = report.summary
        lines.append("%d/%d cells matched at digits=%d" % (s["passed"], s["total"], digits))
        _emit("\n".join(lines), args.out or cfg.get("out"))
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Takes '-1/64' and '-0.5+2i' for values: argparse alone reads any
    '-'-prefixed token other than a plain negative decimal as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="modzeta",
        description="verify modular / zeta / L-function series identities "
                    "to arbitrary precision")
    sub = ap.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--digits", type=int, default=None,
                       help="decimal digits (default 50; env MODZETA_DIGITS)")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="write output to a file")

    pv = sub.add_parser("verify", help="run an identity suite")
    common(pv)
    pv.add_argument("--suite", default=None,
                    help="suite name (default all); see --list-suites")
    pv.add_argument("--jobs", type=int, default=None,
                    help="parallel workers (default: cpu count)")
    pv.add_argument("--seed", type=int, default=None,
                    help="seed for the random-z suites")
    pv.add_argument("--format", choices=("text", "json"), default=None)
    pv.add_argument("--list-suites", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("eval", help="evaluate a single quantity")
    common(pe)
    pe.add_argument("function", help="one of: %s" % ", ".join(_EVAL))
    pe.add_argument("args", nargs="*",
                    help="arguments (exact rationals or decimal complexes like 0.5+0.75i)")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="recompute a special-value table")
    common(pt)
    pt.add_argument("which", choices=("h2", "h3"))
    pt.add_argument("--jobs", type=int, default=None)
    pt.add_argument("--format", choices=("text", "json"), default=None)
    pt.set_defaults(func=cmd_table)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return 2
    if getattr(args, "list_suites", False):
        print("\n".join(verify.all_suites()))
        return 0
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
