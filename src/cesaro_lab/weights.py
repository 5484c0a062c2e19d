"""Radial weights, sampled max-modulus sweeps, and growth-order fits.

Two weight families are supported: the standard weights (1-r)**gamma and the
logarithmic weights that are constant 1 up to radius 1 - 1/e and equal
(-log(1-r))**(-k) beyond it.  Norm sweeps report the sampled weighted
sup-norm, which is always a lower bound on the true one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import SERIAL_PRODUCT_SIZE, as_given, poly_stack

#: Radius where the logarithmic weight switches from the constant branch.
JUNCTION_RADIUS = 1.0 - 1.0 / np.e

#: Most angles per circle a norm sweep takes; a block of ``STACK_BLOCK_BYTES``
#: then still holds 8 rows of complex samples.
SAMPLES_CAP = 8192

#: Bytes per FFT call: norm sweeps scale their (member, radius) rows into
#: blocks of half this size, held beside their transform and its moduli.  2 MB
#: ran faster than 8 MB, and it keeps peak memory flat whatever the stack size.
STACK_BLOCK_BYTES = 2 * 2**20

#: Norm growth from the smallest degree to the largest beyond this ratio is
#: "growing" in the spectral sweep and sets ``growth_classify``'s divergence
#: flag; an artifact convention, not an asserted rate.
GROWTH_RATIO_THRESHOLD = 10.0


@dataclass(frozen=True)
class WeightSpec:
    """A radial weight: ``standard`` of order gamma or ``log`` of order k."""

    kind: str
    order: float

    def __post_init__(self):
        if self.kind not in ("standard", "log"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "standard":
            if not (np.isfinite(self.order) and self.order > 0):
                raise ValueError("standard weight needs order gamma > 0")
        else:
            if not (float(self.order).is_integer() and self.order >= 1):
                raise ValueError("log weight needs an integer order k >= 1")

    @classmethod
    def standard(cls, gamma: float) -> "WeightSpec":
        return cls("standard", float(gamma))

    @classmethod
    def log_power(cls, k: int) -> "WeightSpec":
        return cls("log", float(k))


def weight_eval(w: WeightSpec, r) -> np.ndarray:
    """Weight values at the radii r, an array of r's shape, defined on [0, 1)."""
    rv = np.asarray(r, dtype=float)
    if np.any(rv < 0) or np.any(rv >= 1):
        raise ValueError("radii must lie in [0, 1)")
    if w.kind == "standard":
        return (1.0 - rv) ** w.order
    base = np.ones_like(rv)
    mask = rv > JUNCTION_RADIUS
    # -log1p(-r) = -log(1-r); both branches give exactly 1 at the junction.
    base[mask] = 1.0 / (-np.log1p(-rv[mask]))
    return base ** int(w.order)


def reliable_radius(degree: int) -> float:
    """Largest radius where a degree-``degree`` truncation of a typical
    log-growth function still carries essentially all of its mass."""
    return max(0.5, 1.0 - 10.0 / max(degree, 1))


def default_radius_grid(degree: int) -> np.ndarray:
    """Radii geometrically spaced in 1-r from 0.5 down to the reliability
    gap, preceded by a coarse linear band below 0.5.

    The geometric band resolves logarithmic growth, which varies on the
    log(1-r) scale; the low band keeps standard-weight norms honest, whose
    suprema can sit at small radii.  r = 0 is prepended so sup-norm ties
    resolve to the centre.
    """
    gap_min = 1.0 - reliable_radius(degree)
    if gap_min >= 0.5:
        outer = np.array([0.5])
    else:
        outer = np.sort(1.0 - np.geomspace(0.5, gap_min, 64))
    low = np.linspace(0.0, 0.5, 9, endpoint=False)
    return np.concatenate([low, outer])


def require_samples(samples) -> int:
    """The number of angles per circle, an integer in 8..``SAMPLES_CAP``."""
    if int(samples) < 8 or samples != int(samples):
        raise ValueError("need at least 8 samples per circle")
    if samples > SAMPLES_CAP:
        raise ValueError(f"at most {SAMPLES_CAP} samples per circle, got {samples}")
    return int(samples)


def _circle_max(scaled: np.ndarray, samples: int) -> np.ndarray:
    """Max modulus over the ``samples``-th roots of unity of each polynomial
    whose radius-scaled, zero-tailed coefficients fill the last axis.

    When the degree reaches the sample count, coefficients are folded modulo
    ``samples`` before the FFT: the DFT of the folded vector equals
    evaluation at the roots, so the result is exact even then.  A real block
    takes the half-spectrum ``rfft``: for real coefficients
    |p(r w)| = |p(r conj(w))|, and the roots of unity are closed under
    conjugation, so its bins hold every modulus.
    """
    if scaled.shape[-1] > samples:
        scaled = scaled.reshape(scaled.shape[:-1] + (-1, samples)).sum(axis=-2)
    if np.iscomplexobj(scaled):
        spectrum = np.fft.fft(scaled, axis=-1)
    else:
        spectrum = np.fft.rfft(scaled, axis=-1)
    return np.abs(spectrum).max(axis=-1)


class _Sweep:
    """The set-up of a norm sweep over a stack of one degree: it checks the
    radii, nonempty in [0, 1), and the sample count, and builds once the
    weights (1 for ``w`` None), the powers 0..N of each radius, one row per
    radius, and the row width, the least multiple of ``samples`` above N."""

    def __init__(self, stack, w: WeightSpec | None, radii, samples):
        rv = np.atleast_1d(np.asarray(radii, dtype=float))
        if rv.size == 0:
            raise ValueError("radius grid must be nonempty")
        if np.any(rv < 0) or np.any(rv >= 1):
            raise ValueError("radii must lie in [0, 1)")
        self.stack, self.radii, self.samples = stack, rv, require_samples(samples)
        self.weights = np.ones(rv.size) if w is None else weight_eval(w, rv)
        self.powers = rv[:, None] ** np.arange(stack.shape[1])
        self.width = stack.shape[1] + (-stack.shape[1]) % self.samples

    def majorant(self) -> np.ndarray:
        """U = w(r) sum |a_n| r^n (1 + margin) per (member, radius) row:
        never below the row's computed weighted sampled maximum."""
        # with u = 2**-53 and A = sum |a_n| p_n over the computed powers p_n that
        # both sides use, a computed row value exceeds w A by at most, to first
        # order, (q + 3) u w A for scaling, folding q = width / samples terms
        # (the exact DFT of the folded row is at most its 1-norm), abs and the
        # weight product, plus the FFT's error in one bin: at most eps sqrt(S) w A
        # for pocketfft's normwise relative error eps <= 24 u log2(4 S) (Higham,
        # Accuracy and Stability of Numerical Algorithms, Thm 24.2: under 8 u per
        # radix-2 level; Bluestein runs three transforms shorter than 4 S), or
        # (S + 3) u w A were the DFT summed directly.  The computed bound falls
        # short of w A (1 + margin) by at most (size + 5) u for |a_n|, the sum of
        # size nonnegative products and three more roundings.  As q <= size and
        # 24 log2(4 S) sqrt(S) <= 64 S for S >= 8, a margin of 64 u (size + S)
        # covers it all; it grows with both because CSV inputs are not capped.
        margin = 64 * 2.0**-53 * (self.powers.shape[1] + self.samples)
        bound = np.empty((len(self.stack), self.radii.size))
        step = max(1, SERIAL_PRODUCT_SIZE // self.powers.size)  # multiply-adds per member
        # an overflowing bound leaves its row open, and :meth:`maxima` refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(self.stack), step):
                bound[i : i + step] = np.abs(self.stack[i : i + step]) @ self.powers.T
            bound *= self.weights * (1.0 + margin)
        return bound

    def maxima(self, open_rows) -> np.ndarray:
        """The weighted sampled maxima of the rows that the boolean (member,
        radius) mask ``open_rows`` opens, and -inf in the closed ones.  The
        rows of real and of complex members go through :func:`_circle_max`
        apart, in blocks of half ``STACK_BLOCK_BYTES``, so a real member
        always takes the half-spectrum transform.  A maximum that overflows
        to inf or NaN raises ValueError, and numpy's warnings on the way
        there are silenced, so that refusal is all a caller sees."""
        stack, size, width = self.stack, self.stack.shape[1], self.width
        real = ~stack.imag.any(axis=1)
        out = np.full(open_rows.shape, -np.inf)
        step = max(1, STACK_BLOCK_BYTES // (32 * width))
        with np.errstate(over="ignore", invalid="ignore"):
            for is_real in (True, False):
                rows, cols = np.nonzero(open_rows & (real == is_real)[:, None])
                block = np.zeros((min(step, rows.size), width), dtype=float if is_real else complex)
                source = stack.real if is_real else stack
                for i in range(0, rows.size, step):
                    part, at = rows[i : i + step], cols[i : i + step]
                    scaled = block[: part.size]
                    np.multiply(source[part], self.powers[at], out=scaled[:, :size])
                    out[part, at] = _circle_max(scaled, self.samples) * self.weights[at]
        if not np.isfinite(out[open_rows]).all():
            raise ValueError("norm sweep overflows: a weighted maximum of the input is not finite")
        return out


def max_modulus_profile(p, radii, samples: int = 1024) -> np.ndarray:
    """Sampled max-modulus over ``samples`` equispaced angles at each radius,
    for a Poly or, one row per member, for a stack of one degree.

    Every (member, radius) row goes through :meth:`_Sweep.maxima`, the row
    path of :func:`weighted_sup_norm` and :func:`sup_norm_exceeds` too, so
    a member's profile is the same alone or in any stack.
    """
    stack = poly_stack(p)
    sweep = _Sweep(stack, None, radii, samples)
    return as_given(p, sweep.maxima(np.ones((len(stack), sweep.radii.size), dtype=bool)))


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """Result of a weighted sup-norm sweep over a radius grid."""

    value: float
    argmax_radius: float


def weighted_sup_norm(p, w: WeightSpec, samples: int = 1024):
    """max over :func:`default_radius_grid` of weight(r) * sampled
    max-modulus at r, for a Poly or, as a list of estimates, for a stack of
    one degree.  The grid ends at :func:`reliable_radius` of the degree:
    beyond it the discarded tail of a typical truncation is no longer
    negligible and the sweep would not be honest.

    Only the radii that the majorant M(r) <= sum |a_n| r^n cannot rule out
    are transformed: every skipped row's computed value lies strictly below
    the maximum, so each member's value and argmax radius (first index on
    ties) are those of ``weight_eval(w, grid) * max_modulus_profile(member,
    grid, samples)``.
    """
    stack = poly_stack(p)
    sweep = _Sweep(stack, w, default_radius_grid(stack.shape[1] - 1), samples)
    bound = sweep.majorant()
    # round 1: each member's row of largest bound gives a lower bound on its
    # maximum.  Round 2: a row whose bound lies below that cannot hold the
    # maximum or tie with it, so only the other rows are transformed; the
    # skipped ones keep -inf
    first = np.argmax(bound, axis=1)[:, None] == np.arange(bound.shape[1])
    lower = sweep.maxima(first)
    open_rows = ~first & ~(bound < lower.max(axis=1, keepdims=True))
    values = np.maximum(lower, sweep.maxima(open_rows))
    estimates = [
        NormEstimate(value=float(row[i]), argmax_radius=float(sweep.radii[i]))
        for row, i in zip(values, np.argmax(values, axis=1))
    ]
    return as_given(p, estimates)


def sup_norm_exceeds(p, w: WeightSpec | None, radii, limit, divisor, samples: int = 1024):
    """For a Poly or, per member, for a stack of one degree,
    whether ``weight(r) * M / divisor > limit`` at some radius r, with M the sampled
    max modulus of :func:`max_modulus_profile` and weight 1 for ``w`` None;
    and the number of rows transformed.  ``limit`` and ``divisor`` broadcast
    against the (member, radius) rows.  A row is transformed only when its
    majorant passes the test: the majorant is never below the computed
    value, and the division and comparison are monotone, so the verdicts are
    those of the full profile, bit for bit."""
    sweep = _Sweep(poly_stack(p), w, radii, samples)
    open_rows = ~(sweep.majorant() / divisor <= limit)  # a NaN bound leaves its row open
    values = sweep.maxima(open_rows)
    return as_given(p, (values / divisor > limit).any(axis=1)), int(open_rows.sum())


@dataclass(frozen=True)
class GrowthReport:
    """Fitted growth orders with fit diagnostics.

    ``log_order`` is the slope of log M(f, r) against log(-log(1-r)) and
    ``standard_order`` the slope against log(1/(1-r)); both are heuristics
    read off a finite radius window, not membership certificates.
    """

    log_order: float
    standard_order: float
    residuals: dict
    divergence_flag: bool
    norms_by_degree: tuple


def growth_classify(truncations, weight: WeightSpec | None = None) -> GrowthReport:
    """Fit growth orders from a family of truncations at increasing degrees,
    on the default radius grids with 1024 angles per circle.

    The fits use the outer half of the radius grid on the u = -log(1-r)
    scale, where the asymptotic growth dominates the bounded prefactors;
    the divergence flag compares weighted norms across the supplied degrees
    (ratio above ``GROWTH_RATIO_THRESHOLD`` between the largest and
    smallest degree).
    """
    truncations = list(truncations)
    if len(truncations) < 3:
        raise ValueError("need at least three truncation degrees")
    degrees = [p.degree for p in truncations]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("truncation degrees must be strictly increasing")
    if weight is None:
        weight = WeightSpec.log_power(1)

    largest = truncations[-1]
    # drop r = 0, which would lower u.min() and so move the fit window
    grid = default_radius_grid(largest.degree)[1:]
    m_vals = max_modulus_profile(largest, grid)
    u = -np.log1p(-grid)
    window = (u >= 0.5 * (u.min() + u.max())) & (m_vals > 0)
    if window.sum() < 4:
        raise ValueError("degenerate fit window: fewer than 4 usable radii")
    log_m = np.log(m_vals[window])

    k_fit, k_res, *_ = np.polyfit(np.log(u[window]), log_m, 1, full=True)
    g_fit, g_res, *_ = np.polyfit(u[window], log_m, 1, full=True)
    npts = int(window.sum())
    k_rms = float(np.sqrt(k_res[0] / npts)) if k_res.size else 0.0
    g_rms = float(np.sqrt(g_res[0] / npts)) if g_res.size else 0.0

    norms = tuple(weighted_sup_norm(p, weight).value for p in truncations)
    return GrowthReport(
        log_order=max(float(k_fit[0]), 0.0),
        standard_order=max(float(g_fit[0]), 0.0),
        residuals={"log_order_rms": k_rms, "standard_order_rms": g_rms},
        divergence_flag=bool(norms[-1] > GROWTH_RATIO_THRESHOLD * norms[0]),
        norms_by_degree=norms,
    )
