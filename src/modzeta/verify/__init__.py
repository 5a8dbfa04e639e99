"""Identity registry, theorem-level evaluators, suite runner, and reports."""

from .registry import DEFAULT_SEED, SUITES, build_registry
from .runner import Report, all_suites, get_records, run_suite
from .theorems import (h3_linear, h3_ratios, q_ratios, r_linear, s_r, t_r,
                       u_check)

__all__ = [
    "DEFAULT_SEED", "Report", "SUITES", "all_suites",
    "build_registry", "get_records", "h3_linear", "h3_ratios", "q_ratios",
    "r_linear", "run_suite", "s_r", "t_r", "u_check",
]
