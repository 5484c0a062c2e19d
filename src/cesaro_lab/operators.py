"""Coefficient-averaging operators as exact lower-triangular maps.

Covers the classical averaging operator (coefficient n of the image is the
mean of the first n+1 input coefficients), its one-parameter generalization
with geometric memory t, the exact inverse, the weighted composition
semigroup S_t, and dense finite sections for spectral demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import (
    Poly,
    binomial_series,
    cauchy_product,
    log_one_minus_inv,
    monomial,
    truncate,
)

#: Seed for the reproducible test corpus.
CORPUS_SEED = 0x5EED

#: Largest degree :func:`s_t_apply` accepts; its row matrix takes
#: 8*(N+1)**2 bytes, about 34 MB at this cap.
ST_DEGREE_CAP = 2048


def cesaro_apply(p: Poly) -> Poly:
    """Averaged partial sums: output coefficient n is mean(c_0..c_n)."""
    return Poly(np.cumsum(p.coeffs) / np.arange(1, p.degree + 2))


def generalized_cesaro_apply(t: float, p: Poly) -> Poly:
    """Output coefficient n is (t**n c_0 + t**(n-1) c_1 + ... + c_n)/(n+1).

    Computed by the running recurrence s_n = t*s_{n-1} + c_n, so one
    application costs O(N) and the constant term is preserved exactly.
    t = 1 reproduces :func:`cesaro_apply`; t = 0 divides c_n by n+1.
    """
    tv = float(t)
    if not np.isfinite(tv) or not (0.0 <= tv <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    c = p.coeffs
    out = np.empty_like(c)
    s = 0.0 + 0.0j
    for n in range(c.size):
        s = tv * s + c[n]
        out[n] = s / (n + 1)
    return Poly(out)


def cesaro_inverse_apply(p: Poly) -> Poly:
    """Exact inverse of :func:`cesaro_apply` on truncations:
    output coefficient n is (n+1) c_n - n c_{n-1}."""
    n = np.arange(p.degree + 1)
    out = (n + 1) * p.coeffs
    out[1:] -= n[1:] * p.coeffs[:-1]
    return Poly(out)


def s_t_apply(t: float, p: Poly) -> Poly:
    """Weighted composition (phi_t(z)/z) * p(phi_t(z)) truncated to deg p,
    with phi_t(z) = a*z / (1 - (1-a)*z) and a = exp(-t) the disc automorphism
    of :func:`cesaro_lab.series.mobius_coeffs`.

    Closed form: coefficient n of the image is
    a * sum_{k<=n} C(n,k) a**k (1-a)**(n-k) c_k, so row n of the map is a
    times the Binomial(n, a) probabilities.  The rows are built by the
    Pascal recurrence P_n = (1-a)*P_{n-1} + a*shift(P_{n-1}) from P_0 = [a],
    which takes only convex combinations and so stays stable; the real and
    imaginary coefficient parts are then mapped separately.  Cost is O(N**2)
    time and a real (N+1)x(N+1) matrix of 8*(N+1)**2 bytes (8.4 MB at
    degree 1024), so degrees above ``ST_DEGREE_CAP`` = 2048 are refused with
    ValueError before anything is allocated.
    """
    tv = float(t)
    if not np.isfinite(tv) or tv < 0:
        raise ValueError("t must be a finite nonnegative real")
    if p.degree > ST_DEGREE_CAP:
        raise ValueError(f"degree {p.degree} exceeds the S_t cap {ST_DEGREE_CAP}")
    a = np.exp(-tv)
    size = p.degree + 1
    rows = np.zeros((size, size))
    rows[0, 0] = a
    for n in range(1, size):
        rows[n, :n] = (1.0 - a) * rows[n - 1, :n]
        rows[n, 1 : n + 1] += a * rows[n - 1, :n]
    out = np.empty(size, dtype=complex)
    out.real = rows @ p.coeffs.real
    out.imag = rows @ p.coeffs.imag
    return Poly(out)


@dataclass(frozen=True, eq=False)
class FiniteSection:
    """Leading (N+1)x(N+1) corner of the coefficient matrix for parameter t:
    entry (n, j) is t**(n-j)/(n+1) for j <= n, zero above the diagonal."""

    entries: np.ndarray
    t: float


def finite_section(t: float, degree: int) -> FiniteSection:
    """Dense finite section; applying it to a coefficient vector matches
    :func:`generalized_cesaro_apply`."""
    tv = float(t)
    if not np.isfinite(tv) or not (0.0 <= tv <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = degree + 1
    powers = tv ** np.arange(n)
    gap = np.arange(n)[:, None] - np.arange(n)[None, :]
    entries = np.where(gap >= 0, powers[np.clip(gap, 0, n - 1)], 0.0)
    entries = entries / np.arange(1, n + 1)[:, None]
    entries = entries.astype(complex)
    entries.flags.writeable = False
    return FiniteSection(entries=entries, t=tv)


def log_power_identity_check(k: int, degree: int) -> float:
    """Max coefficient discrepancy in the closed-form image of log(1-z)**k.

    Both sides are exact truncations: averaging g**k against the shifted
    coefficients of -g**(k+1)/(k+1), where g = log(1-z).  g has vanishing
    order 1, so g**k to degree N determines g**(k+1) to degree N+1.
    """
    if not (1 <= k <= 6):
        raise ValueError("k must lie in 1..6")
    if degree < 64:
        raise ValueError("degree must be at least 64")
    g = Poly(-log_one_minus_inv(degree + 1).coeffs)
    gk = truncate(g, degree)
    for _ in range(k - 1):
        gk = cauchy_product(gk, g, degree=degree)
    lhs = cesaro_apply(gk)
    gk1 = cauchy_product(gk, g, degree=degree + 1)
    rhs = -gk1.coeffs[1:] / (k + 1)
    return float(np.max(np.abs(lhs.coeffs - rhs)))


def build_corpus(degree: int, seed: int = CORPUS_SEED, include_structured: bool = True):
    """The reproducible test corpus: 50 pseudo-random polynomials with
    coefficients uniform in the unit disc, plus a structured family mixing
    bounded, logarithmic, and standard-order growth.

    Returns a list of (name, Poly) pairs; the random members are named
    ``random-NN``.
    """
    if degree < 4:
        raise ValueError("corpus degree must be at least 4")
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(50):
        radius = np.sqrt(rng.random(degree + 1))
        angle = 2.0 * np.pi * rng.random(degree + 1)
        corpus.append((f"random-{i:02d}", Poly(radius * np.exp(1j * angle))))
    if not include_structured:
        return corpus
    corpus.append(("one", truncate(monomial(0), degree)))
    corpus.append(("log-inv", log_one_minus_inv(degree)))
    g = Poly(-log_one_minus_inv(degree).coeffs)
    gk = g
    corpus.append(("log-pow-1", gk))
    for k in range(2, 5):
        gk = cauchy_product(gk, g, degree=degree)
        corpus.append((f"log-pow-{k}", gk))
    for gamma in (0.5, 1.0, 2.0):
        corpus.append((f"binom-{gamma:g}", binomial_series(-gamma, degree)))
    for n in range(1, 5):
        tail = binomial_series(-n, degree - (n - 1))
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[n - 1 :] = tail.coeffs
        corpus.append((f"eigen-{n}", Poly(coeffs)))
    return corpus
