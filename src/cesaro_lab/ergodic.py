"""Memory-t eigenvectors, iterate/average experiments, and the
spectral dichotomy between the compact regime t < 1 and the boundary case
t = 1.

For t < 1 the averaging operator with memory t is power bounded and its
running averages converge to the rank-one projection f -> f(0) * g0, where
g0 has coefficients t**n.  At t = 1 the averages keep drifting; the traces
record that drift instead of asserting a rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .operators import (
    generalized_cesaro_apply,
    require_degree,
    require_memory_t,
    section_shape_error,
)
from .resolvent import resolvent_recurrence
from .series import Poly, log_one_minus_inv, monomial, truncate
from .weights import GROWTH_RATIO_THRESHOLD, WeightSpec, require_samples, weighted_sup_norm

#: Most iterations a trace takes: it keeps every running average.
N_MAX_CAP = 1024

#: Most points per axis of the spectral sweep's lambda grid.
GRID_POINTS_CAP = 33

#: Memory parameters whose finite sections the spectral report and the
#: ``finite-section-spectrum`` check measure.
SECTION_T_VALUES = (0.0, 0.3, 0.5, 0.9, 1.0)


def eigenvector_ct(t: float, m: int, degree: int) -> Poly:
    """Eigenvector of the memory-t operator for eigenvalue 1/(m+1).

    Normalized with coefficient 1 at z**m; below m everything vanishes and
    above m the triangular recurrence
    x_n * (1/(n+1) - 1/(m+1)) = -(1/(n+1)) * sum_{j<n} t**(n-j) x_j
    determines x_n (the diagonal gaps never vanish for n != m).
    """
    tv = float(t)
    if not np.isfinite(tv) or not (0.0 <= tv < 1.0):
        raise ValueError("t must lie in [0, 1)")
    if not (0 <= m <= degree):
        raise ValueError("m must lie in 0..degree")
    mu = 1.0 / (m + 1)
    x = np.zeros(degree + 1, dtype=complex)
    x[m] = 1.0
    running = x[m]  # sum_{j<=n} t**(n-j) x_j, advanced each step
    for n in range(m + 1, degree + 1):
        s = tv * running
        x[n] = -(s / (n + 1)) / (1.0 / (n + 1) - mu)
        running = s + x[n]
    return Poly(x)


@dataclass(frozen=True, eq=False)
class ErgodicTrace:
    """Per-iteration record of iterate norms, running-average norms,
    average increments, and (for t < 1) distances to the limit projection.

    ``iterate_norms[n-1]`` is the weighted norm of the n-th iterate,
    ``mean_norms[n-1]`` that of the n-term running average T_[n], and
    ``mean_increments[n-1]`` the norm of T_[2n] - T_[n].
    """

    iterate_norms: tuple
    mean_norms: tuple
    mean_increments: tuple
    projection_errors: tuple


def require_trace_budget(n_max: int, samples: int):
    """Refuse an iteration or sample count outside a trace's budget, before
    anything is built."""
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    if n_max > N_MAX_CAP:
        raise ValueError(f"n_max {n_max} exceeds the cap {N_MAX_CAP}")
    require_samples(samples)


def iterate_trace(
    t: float,
    f: Poly,
    weight: WeightSpec,
    n_max: int,
    samples: int = 1024,
) -> ErgodicTrace:
    """Iterate the memory-t operator on f and record the averaging history.

    Projection errors compare T_[n] f against f(0) * g0 truncated to deg f
    and are recorded only for t < 1, where that is the ergodic limit.  The
    iterates fill one array and the averages another, and each of them, the
    projection differences and the increments is normed on the default
    radius grid as one stack.  The degree of f passes :func:`require_degree`.
    """
    require_trace_budget(n_max, samples)
    require_degree(f.degree, "input degree")
    if not np.any(np.abs(f.coeffs) > 0):
        raise ValueError("f must be nonzero")
    tv = require_memory_t(t)

    def norms(stack) -> tuple:
        return tuple(e.value for e in weighted_sup_norm(stack, weight, samples=samples))

    iterates = np.empty((n_max, f.degree + 1), dtype=complex)
    means = np.empty_like(iterates)
    current, mean = f.coeffs[None], np.zeros_like(f.coeffs)
    for n in range(1, n_max + 1):
        current = iterates[n - 1 : n] = generalized_cesaro_apply(tv, current)
        mean = means[n - 1] = mean + (current[0] - mean) / n
    # each array goes once it is normed, and the projection differences
    # overwrite the means, so no trace array is alive beside two others
    iterate_norms = norms(iterates)
    del iterates
    mean_norms = norms(means)
    mean_increments = norms(means[1::2] - means[: n_max // 2])
    projection_errors = ()
    if tv < 1.0:
        means -= f.coeffs[0] * tv ** np.arange(f.degree + 1)
        projection_errors = norms(means)
    return ErgodicTrace(iterate_norms, mean_norms, mean_increments, projection_errors)


@dataclass(frozen=True)
class SpectralPoint:
    """Resolvent norm estimates at one lambda across section degrees."""

    lam: complex
    norms: tuple
    growth_ratio: float
    classification: str


@dataclass(frozen=True, eq=False)
class SpectralDichotomyReport:
    """Finite-section shape check plus a resolvent-norm sweep over a
    lambda grid.  A point is "growing" if its norm estimate at the largest
    section degree is more than ``GROWTH_RATIO_THRESHOLD`` times the one at
    the smallest, and "stable" otherwise.  At degree 1024 the 4 growing
    points all have Re(1/lambda) > 1, and 129 of the 133 points with
    Re lambda > 0 are stable.  A numerical illustration, not a proof."""

    degrees: tuple
    section_diagonal_errors: dict
    points: tuple

    def payload(self) -> dict:
        """Section degrees, diagonal errors and sweep points as JSON values."""
        errors = {f"{t:g}": e for t, e in self.section_diagonal_errors.items()}
        points = [
            {
                "lambda": [pt.lam.real, pt.lam.imag],
                "norms": list(pt.norms),
                "growth_ratio": pt.growth_ratio,
                "classification": pt.classification,
            }
            for pt in self.points
        ]
        return {"degrees": list(self.degrees), "section_diagonal_errors": errors, "points": points}


def spectral_dichotomy_report(
    degree: int,
    degrees=None,
    *,
    grid_points: int,
) -> SpectralDichotomyReport:
    """Tabulate section diagonals at ``SECTION_T_VALUES`` and resolvent norm
    estimates on a grid over [-2, 2] x [-2, 2], excluding lambdas within
    1e-6 of a diagonal value 1/(n+1) or of 0.  The largest section degree
    passes :func:`require_degree` before anything is built."""
    if not 1 <= grid_points <= GRID_POINTS_CAP:
        raise ValueError(f"grid_points must lie in 1..{GRID_POINTS_CAP}, got {grid_points}")
    if degree < 64:
        raise ValueError("degree must be at least 64")
    if degrees is None:
        degrees = tuple(sorted({max(64, degree // 16), max(64, degree // 4), degree}))
    else:
        degrees = tuple(int(d) for d in degrees)
    if len(degrees) < 2:
        raise ValueError("need at least two section degrees")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("section degrees must be strictly increasing")
    if degrees[0] < 1:
        raise ValueError("section degrees must be at least 1")
    require_degree(max(degree, degrees[-1]), "section degree")

    section_errors = {
        tv: section_shape_error(operators.finite_section(tv, degree)) for tv in SECTION_T_VALUES
    }

    diag_values = 1.0 / np.arange(1, max(degrees) + 2)
    axis = np.linspace(-2.0, 2.0, grid_points)
    lams = [
        lam
        for lam in (complex(re, im) for re in axis for im in axis)
        if abs(lam) > 1e-6 and np.min(np.abs(lam - diag_values)) > 1e-6
    ]
    v1 = WeightSpec.log_power(1)
    v2 = WeightSpec.log_power(2)
    # both probes are real, so the solution at conj(lam) is the exact
    # conjugate of the one at lam and has the same norms: solve one lam of
    # each conjugate pair in the grid (bitwise lookup) and copy its ratios
    index = {lam: i for i, lam in enumerate(lams)}
    mirror = [index.get(lam.conjugate(), i) for i, lam in enumerate(lams)]
    solved = [i for i, k in enumerate(mirror) if k >= i]
    # per section degree, the largest ratio over both probes of the v2 norm
    # of the solution to the v1 norm of h: each probe is solved once, at the
    # top degree, as the triangular solve truncates bitwise to lower ones
    best = [[0.0] * len(lams) for _ in degrees]
    for h in (truncate(monomial(0), degrees[-1]), log_one_minus_inv(degrees[-1])):
        solutions = resolvent_recurrence([lams[i] for i in solved], h)
        for row, d in zip(best, degrees):
            den = weighted_sup_norm(truncate(h, d), v1).value
            for i, est in zip(solved, weighted_sup_norm(solutions[:, : d + 1], v2)):
                row[i] = max(row[i], est.value / den)
    ratios = [[row[min(i, k)] for i, k in enumerate(mirror)] for row in best]

    points = []
    for lam, norms in zip(lams, zip(*ratios)):
        growth = norms[-1] / norms[0]
        points.append(
            SpectralPoint(
                lam=lam,
                norms=tuple(norms),
                growth_ratio=float(growth),
                classification="growing" if growth > GROWTH_RATIO_THRESHOLD else "stable",
            )
        )
    return SpectralDichotomyReport(
        degrees=degrees,
        section_diagonal_errors=section_errors,
        points=tuple(points),
    )
