"""The three benchmark workloads, each built from a seed.

Every workload is a closed loop with one client: the next request starts when
the previous one has returned.  ``BENCHMARK.json`` records why each was chosen;
the comments below say which layers each one exercises or bypasses.
verify-all runs by name but is not listed there: its wall time is one
35-45 s record, so a run holds one sample and its spread is too wide.
``pass_s`` is the nominal time of one pass on a two-core 2.1 GHz host; it
sets how many passes fit in a run of ``--seconds``.
"""

from __future__ import annotations

import random

VERIFY_DIGITS = 50
CORE_DIGITS = 100
JOBS = 2  # worker processes for verify-all: one per core on a two-core host

ALL_SUITES = (
    "ramanujan-classical", "h2-variants", "sun-h2", "h3",
    "table-h2", "table-h3", "eichler-special", "sum-rules",
    "epstein-gz", "lemma-oracles", "sec4", "theorems-random",
)
# every suite except lemma-oracles, the quadrature suite
CORE_SUITES = tuple(s for s in ALL_SUITES if s != "lemma-oracles")

# theorem-points: admissible lines and Im z ranges, and the digit levels.
# Points nearer the boundary of admissibility cost seconds each at 100
# digits, so one of them would dominate a run.
POINT_LINES = (("0", 0.65, 1.8), ("0.5", 0.75, 1.5))
POINT_DIGITS = (30, 50, 100)
POINT_BANDS = 17  # per line and digit level: 2 * 3 * 17 = 102 points


def verify_all(seed: int) -> dict:
    """The README's whole-registry command at 50 digits on two processes.

    Its wall time is the critical path through the pool: the quadrature
    record lem.h3mix2 today.  Quadrature and pool scheduling show here;
    series or memo work off the critical path should not move it.
    """
    return {
        "kind": "cli", "seed": seed, "digits": VERIFY_DIGITS, "jobs": JOBS,
        "records": 246, "pass_s": 40,
        "argv": ["verify", "--suite", "all", "--digits", str(VERIFY_DIGITS),
                 "--jobs", str(JOBS), "--format", "json", "--seed", str(seed)],
    }


def verify_core_100(seed: int) -> dict:
    """Serial run_suite over the non-quadrature suites at 100 digits.

    Records share points and constants, so series-engine and memo work shows
    here; quadrature is a few percent of the time.
    """
    return {
        "kind": "suites", "seed": seed, "digits": CORE_DIGITS, "jobs": 1,
        "records": 235, "pass_s": 8, "suites": list(CORE_SUITES),
    }


def theorem_points(seed: int) -> dict:
    """Fresh admissible points through the four theorem evaluators.

    No registry and no runner.  No point repeats, so a cross-call memo never
    hits.  The cost of a point depends steeply on Im z, so the points are a
    seeded systematic sample: each (line, digits) pair gets one point in each
    of POINT_BANDS equal Im z bands, at a random offset shared by its bands.
    The cost profile of a run then varies little from seed to seed, while
    every point is new.
    """
    rng = random.Random(seed)
    points = []
    for re, lo, hi in POINT_LINES:
        for digits in POINT_DIGITS:
            offset = rng.random()
            for band in range(POINT_BANDS):
                im = lo + (hi - lo) * (band + offset) / POINT_BANDS
                points.append({"re": re, "im": "%.6f" % im, "digits": digits})
    rng.shuffle(points)
    return {"kind": "points", "seed": seed, "jobs": 1, "pass_s": 22,
            "records": 8 * len(points), "points": points}


WORKLOADS = {
    "verify-all": verify_all,
    "verify-core-100": verify_core_100,
    "theorem-points": theorem_points,
}
