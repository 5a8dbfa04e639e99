"""Route independence: the two sides of a record run different engines.

Each side of every record is evaluated at 15 digits, with the memo emptied
first, under a ``sys.setprofile`` hook that notes which of the package's
engines run.  A record checks two routes when its sides' engine sets differ,
or when one side runs none of them (a closed form).  Any other record must be
a listed same-route consistency check.
"""

import os
import sys

import modzeta
from modzeta import PrecisionCtx, get_records, mpcore

ENGINES = {"_binom_sums", "_cvz_weights", "_nome_chains", "eta", "_pentagonal", "_agm_k",
           "_k_ratio", "tanh_sinh", "hurwitz_zeta_raw", "hyp_lambert", "eli",
           "inv_binom2_series"}
PACKAGE = os.path.dirname(modzeta.__file__) + os.sep

# id prefix -> why both sides may run the same engines
SAME_ROUTE = {
    "gz.comb.": "two combinations of E(w,2) at z, z+1/2, 2z and 4z: a Lambert-sum relation",
    "gz.2i.s2": "E(2i,2) = E(i/2,2): the inversion z -> -1/z of one Epstein sum",
    "sr.inv2.": "E(z,2) = E(-1/z,2): the inversion of one Epstein sum",
    "sr.inv3.": "E(z,3) = E(-1/z,3): the inversion of one Epstein sum",
    "sr.e2per.": "E2(z+1) = E2(z): the period of one Eisenstein series",
    "s4.rn2p277.": "both sides are Lambert sums, at z and at -1/(2z)",
}


def _engines(side, ctx, monkeypatch) -> set:
    """The engines that one record side runs from an empty memo."""
    monkeypatch.setattr(mpcore, "_memo", {})
    ran = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ENGINES and code.co_filename.startswith(PACKAGE):
            ran.add(code.co_name)
    sys.setprofile(hook)
    try:
        side(ctx)
    finally:
        sys.setprofile(None)
    return ran


def test_record_sides_take_different_routes(monkeypatch):
    ctx = PrecisionCtx(15)
    same = []
    with ctx.working():
        for rec in get_records("all"):
            lhs, rhs = (_engines(side, ctx, monkeypatch) for side in (rec.lhs, rec.rhs))
            if lhs and rhs and lhs == rhs:
                same.append(rec.id)
    unlisted = [rid for rid in same if not rid.startswith(tuple(SAME_ROUTE))]
    assert not unlisted, "same engines on both sides: %s" % unlisted
    assert len(same) == 17, same
