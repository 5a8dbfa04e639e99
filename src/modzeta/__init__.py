"""modzeta: arbitrary-precision modular / zeta / L-function machinery for
central-binomial harmonic series identities, with a verification suite.

Values returned by the operations are mpmath mpf/mpc scalars computed at
``digits + guard`` working precision.  Combine them inside
``with ctx.working():`` (or at a caller-chosen mpmath precision) so that
follow-up arithmetic does not truncate to mpmath's default precision.
"""

from .arith import dirichlet_l, epstein2, epstein3, kronecker
from .eichler import eichler4, eichler6
from .modular import alpha4, eisenstein, eisenstein_eta_form, eta, lambda_fn, r_half
from .mpcore import DomainError, PrecisionCtx, const_catalan, const_zeta
from .quadrature import (QuadResult, h3mix2_tail_integral, lemma_integral,
                         lminus4_4_integral, tanh_sinh, zeta5_integral,
                         zeta7_integral)
from .series import (HypKernel, LinearFactor, WeightSpec, binom2_series,
                     binom3_series, ell_k, ell_k_comp, eli, hyp_lambert,
                     inv_binom2_series, legendre_dnu2)
from .verify import (DEFAULT_SEED, Report, all_suites, get_records, h3_linear,
                     h3_ratios, q_ratios, r_linear, run_suite, s_r, t_r, u_check)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED", "DomainError", "HypKernel", "LinearFactor",
    "PrecisionCtx", "QuadResult", "Report", "WeightSpec",
    "all_suites", "alpha4", "binom2_series", "binom3_series",
    "const_catalan", "const_zeta", "dirichlet_l", "eichler4", "eichler6",
    "eisenstein", "eisenstein_eta_form", "ell_k", "ell_k_comp", "eli", "epstein2",
    "epstein3", "eta", "get_records",
    "h3_linear", "h3_ratios", "h3mix2_tail_integral",
    "hyp_lambert", "inv_binom2_series", "kronecker", "lambda_fn",
    "legendre_dnu2", "lemma_integral", "lminus4_4_integral",
    "q_ratios", "r_half", "r_linear", "run_suite", "s_r", "t_r", "tanh_sinh",
    "u_check", "zeta5_integral", "zeta7_integral",
]
