"""Command-line front end: `modzeta verify|eval|table`.

Exit codes: 0 all-pass, 1 any identity failed, 2 usage/configuration error.
High-precision values are printed as decimal strings only.

Each setting is one argparse argument whose type checks it (``_setting``).
``main`` makes the values of the flat key=value --config file, then
MODZETA_DIGITS, the chosen command's string defaults and parses again, so a
flag beats the environment, which beats the file, which beats the built-in
default, and a bad value gets the same message from any source.
"""

from __future__ import annotations

import argparse
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
    """Exact rational ('3', '-1/64') or finite decimal complex ('0.5+0.75i',
    '2i', '-i'), at the current precision."""
    text = text.strip()
    try:
        fr = Fraction(text)
        return mpf(fr.numerator) / fr.denominator
    except (ValueError, ZeroDivisionError):
        pass
    # mpmath reads '0.5-1j': write i as j, and a bare imaginary unit as 1j
    s = re.sub(r"(^|(?<![eE])[+-])j$", r"\g<1>1j", re.sub(r"i$", "j", text.replace(" ", "")))
    try:
        value = mp.mpmathify(s)
    except (AttributeError, TypeError, ValueError):  # 'ii' raises AttributeError
        value = mp.nan
    if not mp.isfinite(value):
        raise UsageError("cannot parse number %r" % (text,))
    return value


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


def _setting(name: str, low=None, high=None, choices=()):
    """The argparse ``type`` of one setting: an integer, at least ``low`` (and
    at most ``high``), or one of ``choices``; main passes config and
    MODZETA_DIGITS values through it too, as string defaults."""
    def check(text: str):
        if choices:
            if text in choices:
                return text
            raise UsageError("%s must be %s, got %r" % (name, " or ".join(choices), text))
        try:
            value = int(text)
        except ValueError:
            raise UsageError("%s must be an integer, got %r" % (name, text)) from None
        if high is not None and not low <= value <= high:
            raise UsageError("%s must lie in [%d, %d], got %d" % (name, low, high, value))
        if low is not None and value < low:
            raise UsageError("%s must be at least %d, got %d" % (name, low, value))
        return value
    return check


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out, exc.strerror)) from exc
    else:
        print(text)


def cmd_verify(args) -> int:
    if args.suite not in verify.all_suites():
        raise UsageError("unknown suite %r; choose from: %s"
                         % (args.suite, ", ".join(verify.all_suites())))
    report = run_suite(args.suite, PrecisionCtx(args.digits), jobs=args.jobs, seed=args.seed)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    return 0 if report.all_pass else 1


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


def _format_value(v, digits: int) -> str:
    if isinstance(v, mpc) and v.imag == 0:
        v = v.real
    return mp.nstr(v, digits, strip_zeros=False)


def cmd_eval(args) -> int:
    if args.function not in _EVAL:
        raise UsageError("unknown function %r; choose from: %s"
                         % (args.function, ", ".join(_EVAL)))
    parsers, evaluator = _EVAL[args.function]
    if len(args.args) != len(parsers):
        raise UsageError("%s expects %d argument(s), got %d"
                         % (args.function, len(parsers), len(args.args)))
    ctx = PrecisionCtx(args.digits)
    with ctx.working():
        try:
            values = [parse(a) for parse, a in zip(parsers, args.args)]
        except (ValueError, ZeroDivisionError) as exc:  # int('1.5'), Fraction('1/0')
            raise UsageError(str(exc)) from exc
        # a DomainError of the evaluation reaches main as itself
        _emit(_format_value(evaluator(*values, ctx), args.digits), args.out)
    return 0


def cmd_table(args) -> int:
    suite = "table-h2" if args.which == "h2" else "table-h3"
    report = run_suite(suite, PrecisionCtx(args.digits), jobs=args.jobs)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        lines = ["%s: every cell recomputed from first principles vs closed form"
                 % suite]
        for r in report.rows:
            lines.append("%-14s %-6s  computed=%s" % (
                r["id"], "pass" if r["pass"] else "FAIL", r["lhs"]))
            lines.append("%-14s %-6s    closed=%s  (residual %s)" % (
                "", "", r["rhs"], r["abs_residual"]))
        s = report.summary
        lines.append("%d/%d cells matched at digits=%d" % (s["passed"], s["total"], args.digits))
        _emit("\n".join(lines), args.out)
    return 0 if report.all_pass else 1


class _Parser(argparse.ArgumentParser):
    """Takes '-1/64', '-0.5+2i' and '-i' for values: argparse alone reads any
    '-'-prefixed token other than a plain negative decimal as an option.
    An argparse error prints the usage line and raises UsageError, which
    ``main`` reports as any other usage error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|i$)")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> tuple:
    """The top-level parser and its subcommand parsers by name."""
    ap = _Parser(
        prog="modzeta",
        description="verify modular / zeta / L-function series identities "
                    "to arbitrary precision")
    sub = ap.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--digits", type=_setting("digits", 10, 1000), default=50,
                       help="decimal digits (default 50; env MODZETA_DIGITS)")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="write output to a file")

    def report(p):
        p.add_argument("--jobs", type=_setting("jobs", 1), default=os.cpu_count() or 1,
                       help="parallel workers (default: cpu count)")
        p.add_argument("--format", type=_setting("format", choices=("text", "json")),
                       default="text", help="text or json (default text)")

    pv = sub.add_parser("verify", help="run an identity suite")
    common(pv)
    report(pv)
    pv.add_argument("--suite", default="all",
                    help="suite name (default all); see --list-suites")
    pv.add_argument("--seed", type=_setting("seed"), default=verify.DEFAULT_SEED,
                    help="seed for the random-z suites")
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
    report(pt)
    pt.add_argument("which", choices=("h2", "h3"))
    pt.set_defaults(func=cmd_table)

    return ap, sub.choices


def main(argv=None) -> int:
    ap, commands = _build_parser()
    try:
        try:
            args = ap.parse_args(argv)
            if args.command is None:
                ap.print_help()
                return 2
            if getattr(args, "list_suites", False):
                print("\n".join(verify.all_suites()))
                return 0
            # config values, then MODZETA_DIGITS, become the command's defaults, which
            # argparse runs through each type; a key the command does not take is unread
            command = commands[args.command]
            command.set_defaults(**_load_config(args.config))
            if os.environ.get("MODZETA_DIGITS"):
                command.set_defaults(digits=os.environ["MODZETA_DIGITS"])
            args = ap.parse_args(argv)
            return args.func(args)
        except (UsageError, DomainError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        finally:
            sys.stdout.flush()  # a reader of stdout that has gone raises here, not at exit
    except BrokenPipeError:
        # what is left goes to devnull, so the interpreter's flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
