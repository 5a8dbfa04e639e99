"""scripts/report_diff.py: the per-level comparison of two reports."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "report_diff.py")
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _row(resid, **fields):
    return dict({"lhs": "1.0", "rhs": "1.0", "abs_residual": resid}, **fields)


def test_residual_moves_count_rises_and_falls():
    other = {"a": _row("1.0e-40"), "b": _row("3.0e-300"), "c": _row("2.0e-35"),
             "d": _row("inf"), "e": _row("0.0"), "only": _row("1.0")}
    this = {"a": _row("4.0e-40"), "b": _row("1.0e-300"), "c": _row("2.5e-35"),
            "d": _row("inf"), "e": _row("0.0")}
    assert report_diff._residual_moves(other, this) == (
        "  abs_residual: 2 rose, 1 fell; largest rise c 2.0E-35 -> 2.5E-35")
    assert report_diff._residual_moves(this, this) == "  abs_residual: 0 rose, 0 fell"


def test_differences_name_each_field_and_lone_record():
    other = {"a": _row("1.0e-40"), "b": _row("1.0e-40", rhs="2.0"), "gone": _row("0.0")}
    this = {"a": _row("1.0e-40"), "b": _row("1.0e-40"), "new": _row("0.0")}
    assert report_diff._differences(other, this) == {
        "b": ["rhs: 2.0 -> 1.0"], "gone": ["only in the other"], "new": ["only in this tree"]}
