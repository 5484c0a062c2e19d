"""Coefficient-averaging operators as exact lower-triangular maps.

Covers the classical averaging operator (coefficient n of the image is the
mean of the first n+1 input coefficients), its one-parameter generalization
with geometric memory t, the exact inverse, the weighted composition
semigroup S_t, and dense finite sections for spectral demonstrations.
"""

from __future__ import annotations

import numpy as np

from .series import BUILTIN_FUNCTIONS, Poly, cauchy_product, poly_stack, require_count
from .series import stack_as_given, stack_product

#: Seed for the reproducible test corpus.
CORPUS_SEED = 0x5EED

#: Largest degree a capped kernel or command accepts, refused by
#: :func:`~cesaro_lab.series.require_count`: each dense real matrix of
#: :func:`s_t_rows` and :func:`finite_section` takes 8*(N+1)**2 bytes, about
#: 34 MB at this cap.
ST_DEGREE_CAP = 2048


def cesaro_apply(p):
    """Averaged partial sums, mean(c_0..c_n) at n: the memory-t map at t = 1."""
    return generalized_cesaro_apply(1.0, p)


def require_memory_t(t) -> float:
    """The memory parameter t as a float, refused unless it lies in [0, 1]."""
    tv = float(t)
    if not np.isfinite(tv) or not (0.0 <= tv <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    return tv


def generalized_cesaro_apply(t: float, p):
    """Output coefficient n is (t**n c_0 + t**(n-1) c_1 + ... + c_n)/(n+1),
    for a Poly or, as an array, for a stack of one degree.

    The sums s_n = t*s_{n-1} + c_n are one elementwise doubling scan,
    s[k:] += t**k * s[:-k] for k = 1, 2, 4, ... up to N (at t = 1 the plain
    cumsum), so a member's bits do not depend on its stack, and s_0 is exact.
    """
    tv = require_memory_t(t)
    s = poly_stack(p)
    if tv == 1.0:
        s = np.cumsum(s, axis=1)
    else:
        for k in (2**i for i in range((s.shape[1] - 1).bit_length())):
            s[:, k:] += tv**k * s[:, :-k]
    return stack_as_given(p, s / np.arange(1, s.shape[1] + 1))


def cesaro_inverse_apply(p):
    """Exact inverse of :func:`cesaro_apply` on truncations, for a Poly or,
    as an array, for a stack of one degree: output coefficient n is
    (n+1) c_n - n c_{n-1}, the first difference of (n+1) c_n."""
    c = poly_stack(p)
    weighted = np.arange(1, c.shape[1] + 1) * c
    return stack_as_given(p, np.diff(weighted, axis=1, prepend=0))


def s_t_rows(t: float, degree: int) -> np.ndarray:
    """The real (degree+1)x(degree+1) matrix of the weighted composition
    (phi_t(z)/z) * p(phi_t(z)) truncated to the degree, with
    phi_t(z) = a*z / (1 - (1-a)*z) and a = exp(-t) a disc automorphism.

    Closed form: coefficient n of the image is
    a * sum_{k<=n} C(n,k) a**k (1-a)**(n-k) c_k, so row n is a times the
    Binomial(n, a) probabilities, written from row n-1 by the Pascal
    recurrence P_n[j] = (1-a)*P_{n-1}[j] + a*P_{n-1}[j-1], P_0 = [a], which
    takes only convex combinations and so stays stable.
    Cost is O(N**2) time and 8*(N+1)**2 bytes, so the degree is refused
    above ``ST_DEGREE_CAP`` before anything is allocated.
    """
    tv = float(t)
    if not np.isfinite(tv) or tv < 0:
        raise ValueError("t must be a finite nonnegative real")
    degree = require_count(degree, "degree", cap=ST_DEGREE_CAP)
    a = np.exp(-tv)
    rows = np.zeros((degree + 1, degree + 1))
    rows[0, 0] = a
    for n in range(1, degree + 1):
        rows[n, :n] = (1.0 - a) * rows[n - 1, :n]
        rows[n, 1 : n + 1] += a * rows[n - 1, :n]
    return rows


def s_t_apply(t: float, p):
    """The weighted composition semigroup S_t applied to a Poly or, as an
    array, to a stack: the matrix of :func:`s_t_rows`, built once, times
    the members by :func:`~cesaro_lab.series.stack_product`."""
    stack = poly_stack(p)
    return stack_as_given(p, stack_product(s_t_rows(t, stack.shape[1] - 1), stack))


def finite_section(t: float, degree: int) -> np.ndarray:
    """Leading (N+1)x(N+1) corner of the coefficient matrix for parameter t,
    read-only and real: entry (n, j) is t**(n-j)/(n+1) for j <= n, zero
    above the diagonal.  Applying it to a coefficient vector matches
    :func:`generalized_cesaro_apply`.  The degree is refused above
    ``ST_DEGREE_CAP`` before anything is allocated."""
    tv = require_memory_t(t)
    degree = require_count(degree, "degree", cap=ST_DEGREE_CAP)
    # row n reversed is the window n of N zeros then t**0..t**N: one view,
    # so the division is the only (N+1)**2 allocation
    powers = np.concatenate([np.zeros(degree), tv ** np.arange(degree + 1)])
    windows = np.lib.stride_tricks.sliding_window_view(powers, degree + 1)
    entries = windows[:, ::-1] / np.arange(1, degree + 2)[:, None]
    entries.flags.writeable = False
    return entries


def section_shape_error(section: np.ndarray) -> float:
    """Largest deviation of a finite section from its expected shape, on
    the diagonal and above it: its eigenvalues 1/(n+1) on the diagonal and
    zeros above, whatever the memory t."""
    size = len(section)
    worst = [np.max(np.abs(np.diagonal(section) - 1.0 / np.arange(1, size + 1)))]
    # the caller still holds the section, so it is read in eight blocks of
    # rows, each cut to its columns from the block's first diagonal entry
    # on: the masked copy of one block is the only large temporary
    rows = -(-size // 8)
    for start in range(0, size, rows):
        above = np.triu(section[start : start + rows, start:], k=1)
        worst.append(np.max(np.abs(above, out=above)))
        del above  # before the next block is cut
    # np.max, not max: a NaN anywhere on or above the diagonal is the answer
    return float(np.max(worst))


def build_corpus(degree: int):
    """The reproducible test corpus: 50 pseudo-random polynomials with
    coefficients uniform in the unit disc, named ``random-NN``, then the
    series of :data:`~cesaro_lab.series.BUILTIN_FUNCTIONS` under their names,
    mixing bounded, logarithmic and standard-order growth, then the powers
    2..4 of ``log-neg`` = log(1-z), named ``log-pow-k``: 62 members, pairwise
    distinct.

    Returns a list of (name, Poly) pairs.
    """
    degree = require_count(degree, "corpus degree", 4)
    # per member, its N+1 radius draws and then its N+1 angle draws
    u = np.random.default_rng(CORPUS_SEED).random((50, 2, degree + 1))
    randoms = np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
    corpus = [(f"random-{i:02d}", Poly(c)) for i, c in enumerate(randoms)]
    corpus += [(name, build(degree)) for name, build in BUILTIN_FUNCTIONS.items()]
    g = gk = dict(corpus)["log-neg"]
    for k in range(2, 5):
        gk = cauchy_product(gk, g, degree=degree)
        corpus.append((f"log-pow-{k}", gk))
    return corpus
