"""Numerical laboratory for Cesaro-type operators on truncated Taylor series.

Exact lower-triangular coefficient operators, weighted sup-norm sweeps on
the unit disc, three cross-validated resolvent routes, and iterate/average
experiments separating the compact memory-t regime from the boundary case.
"""

from .series import (
    Poly,
    binomial_series,
    cauchy_product,
    horner_eval,
    log_one_minus_inv,
    monomial,
    truncate,
    vanishing_order,
)
from .weights import (
    GrowthReport,
    NormEstimate,
    WeightSpec,
    default_radius_grid,
    growth_classify,
    max_modulus_profile,
    weight_eval,
    weighted_sup_norm,
)
from .operators import (
    build_corpus,
    cesaro_apply,
    cesaro_inverse_apply,
    finite_section,
    generalized_cesaro_apply,
    s_t_apply,
)
from .resolvent import (
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
)
from .ergodic import (
    ErgodicTrace,
    SpectralDichotomyReport,
    eigenvector_ct,
    iterate_trace,
    spectral_dichotomy_report,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "binomial_series",
    "cauchy_product",
    "horner_eval",
    "log_one_minus_inv",
    "monomial",
    "truncate",
    "vanishing_order",
    "GrowthReport",
    "NormEstimate",
    "WeightSpec",
    "default_radius_grid",
    "growth_classify",
    "max_modulus_profile",
    "weight_eval",
    "weighted_sup_norm",
    "build_corpus",
    "cesaro_apply",
    "cesaro_inverse_apply",
    "finite_section",
    "generalized_cesaro_apply",
    "s_t_apply",
    "off_cut_sample_points",
    "resolvent_integral_profile",
    "resolvent_recurrence",
    "resolvent_semigroup",
    "ErgodicTrace",
    "SpectralDichotomyReport",
    "eigenvector_ct",
    "iterate_trace",
    "spectral_dichotomy_report",
    "CheckResult",
    "run_suite",
]
