"""Exact-truncation arithmetic on complex Taylor polynomials.

Every operator in this package is lower triangular in the monomial basis,
so the first M+1 coefficients of an image depend only on the first M+1
coefficients of the argument and truncation commutes exactly with
application.  Products and compositions are capped at ``DEGREE_CAP`` to
keep costs predictable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Hard cap on the degree produced by products and compositions.
DEGREE_CAP = 1024

#: Coefficient magnitudes at or below this are structural zeros when
#: measuring the vanishing order at the origin.
ZERO_THRESHOLD = 1e-14


def require_finite_param(value, name: str) -> complex:
    """Validate a scalar operation parameter as a finite complex number."""
    v = complex(value)
    if not (np.isfinite(v.real) and np.isfinite(v.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True, eq=False)
class Poly:
    """Truncated Taylor series; ``coeffs[n]`` multiplies z**n."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, copy=True)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must all be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self) -> str:
        return f"Poly(degree={self.degree})"


def monomial(power: int) -> Poly:
    """z**power as a degree-``power`` polynomial."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    c = np.zeros(power + 1, dtype=complex)
    c[power] = 1.0
    return Poly(c)


def truncate(p: Poly, degree: int) -> Poly:
    """Resize to the given degree, cutting or zero-padding the tail."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == p.degree:
        return p
    if degree < p.degree:
        return Poly(p.coeffs[: degree + 1])
    return Poly(np.concatenate([p.coeffs, np.zeros(degree - p.degree, dtype=complex)]))


def horner_eval(p: Poly, z):
    """Evaluate by nested multiplication; ``z`` may be a scalar or an array."""
    zs = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    acc = np.full(zs.shape, p.coeffs[-1], dtype=complex)
    for c in p.coeffs[-2::-1]:
        acc = acc * zs + c
    if zs.ndim == 0:
        return complex(acc[()])
    return acc


def real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real array m and a complex array z, by parts: a complex
    upcast of m is 2-3x slower and wakes idle-spinning BLAS worker threads."""
    out = (m @ z.real).astype(complex)
    out.imag = m @ z.imag
    return out


def cauchy_product(p: Poly, q: Poly, degree: int | None = None) -> Poly:
    """Coefficient convolution, truncated to ``degree`` (default: sum of
    degrees, capped at ``DEGREE_CAP``)."""
    if degree is None:
        degree = min(p.degree + q.degree, DEGREE_CAP)
    full = np.convolve(p.coeffs, q.coeffs)
    out = full[: degree + 1]
    if out.size < degree + 1:
        out = np.concatenate([out, np.zeros(degree + 1 - out.size, dtype=complex)])
    return Poly(out)


def binomial_series(alpha, degree: int) -> Poly:
    """Coefficients of (1 - z)**alpha.

    Uses the stable ratio recurrence c[n] = c[n-1] * (-(alpha - n + 1) / n),
    so c[n] = (-1)**n * alpha*(alpha-1)*...*(alpha-n+1) / n!.
    """
    a = require_finite_param(alpha, "alpha")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    c = np.empty(degree + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, degree + 1):
        c[n] = c[n - 1] * (-(a - n + 1) / n)
    return Poly(c)


def shifted_pole(n: int, degree: int) -> Poly:
    """Coefficients of z**(n-1) * (1 - z)**(-n), namely C(k, n-1) at z**k:
    the eigenvector of the averaging operator for the eigenvalue 1/n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    c = np.zeros(degree + 1, dtype=complex)
    c[n - 1 :] = binomial_series(-n, degree - (n - 1)).coeffs
    return Poly(c)


def log_one_minus_inv(degree: int) -> Poly:
    """Series of log(1/(1-z)): zero constant term, then 1/n."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    c = np.zeros(degree + 1, dtype=complex)
    c[1:] = 1.0 / np.arange(1, degree + 1)
    return Poly(c)


def compose(p: Poly, q: Poly, degree: int | None = None) -> Poly:
    """Truncation of p(q(z)) for an inner series with q(0) = 0.

    The zero constant term is required exactly: it is what makes coefficient
    n of the composition depend only on the first n+1 coefficients of both
    arguments, so truncating at ``degree`` is exact.
    """
    if q.coeffs[0] != 0:
        raise ValueError("inner series must have an exactly zero constant term")
    if degree is None:
        degree = min(p.degree * max(q.degree, 1), DEGREE_CAP)
    out = np.zeros(1, dtype=complex)
    out[0] = p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        out = np.convolve(out, q.coeffs)[: degree + 1]
        out[0] += c
    if out.size < degree + 1:
        out = np.concatenate([out, np.zeros(degree + 1 - out.size, dtype=complex)])
    return Poly(out)


def mobius_coeffs(t: float, degree: int) -> Poly:
    """Series of the disc automorphism a*z / (1 - (1-a)*z) with a = exp(-t).

    Coefficient of z**(n+1) is a*(1-a)**n; the constant term is exactly 0,
    so the result is a valid inner series for :func:`compose`.
    """
    tv = float(t)
    if not np.isfinite(tv) or tv < 0:
        raise ValueError("t must be a finite nonnegative real")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    a = np.exp(-tv)
    c = np.zeros(degree + 1, dtype=complex)
    c[1:] = a * (1.0 - a) ** np.arange(degree)
    return Poly(c)


def vanishing_order(p: Poly, threshold: float = ZERO_THRESHOLD) -> int:
    """Smallest n with |c_n| > threshold; degree+1 for the zero polynomial."""
    idx = np.nonzero(np.abs(p.coeffs) > threshold)[0]
    if idx.size == 0:
        return p.degree + 1
    return int(idx[0])
