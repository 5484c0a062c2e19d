"""Coefficient-averaging operators as exact lower-triangular maps.

Covers the classical averaging operator (coefficient n of the image is the
mean of the first n+1 input coefficients), its one-parameter generalization
with geometric memory t, the exact inverse, the weighted composition
semigroup S_t, and dense finite sections for spectral demonstrations.
"""

from __future__ import annotations

import numpy as np

from .series import (
    Poly,
    binomial_series,
    cauchy_product,
    log_one_minus_inv,
    monomial,
    poly_stack,
    real_matmul,
    shifted_pole,
    stack_as_given,
    truncate,
)

#: Seed for the reproducible test corpus.
CORPUS_SEED = 0x5EED

#: Largest degree a capped kernel or command accepts, refused by
#: :func:`require_degree`: each dense real matrix of :func:`s_t_rows` and
#: :func:`finite_section` takes 8*(N+1)**2 bytes, about 34 MB at this cap.
ST_DEGREE_CAP = 2048

#: Members per product of :func:`s_t_apply`.
ST_BLOCK = 8


def cesaro_apply(p):
    """Averaged partial sums, mean(c_0..c_n) at n: the memory-t map at t = 1."""
    return generalized_cesaro_apply(1.0, p)


def require_degree(degree: int, what: str, cap: int = ST_DEGREE_CAP):
    """Refuse a degree below 0 or above ``cap``, naming it as ``what``,
    before anything of that degree is built."""
    if degree < 0:
        raise ValueError(f"{what} must be nonnegative")
    if degree > cap:
        raise ValueError(f"{what} {degree} exceeds the cap {cap}")


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
    Cost is O(N**2) time and 8*(N+1)**2 bytes, so the degree passes
    :func:`require_degree` before anything is allocated.
    """
    tv = float(t)
    if not np.isfinite(tv) or tv < 0:
        raise ValueError("t must be a finite nonnegative real")
    require_degree(degree, "degree")
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
    the members in blocks of ``ST_BLOCK``, each block the columns of one
    zero-padded (N+1, ST_BLOCK) array in one :func:`real_matmul`, so the
    matrix is read once per block and not once per member.  A single Poly
    is padded too: every member goes through a product of the same shape,
    whose columns' bits depend only on their own column (the stack tests
    check it), so a member's bits do not depend on its stack or its place
    in it."""
    stack = poly_stack(p)
    rows = s_t_rows(t, stack.shape[1] - 1)
    block = np.zeros((stack.shape[1], ST_BLOCK), dtype=complex)
    for start in range(0, len(stack), ST_BLOCK):
        members = stack[start : start + ST_BLOCK]
        block[:, : len(members)] = members.T
        block[:, len(members) :] = 0.0
        members[:] = real_matmul(rows, block)[:, : len(members)].T
    return stack_as_given(p, stack)


def finite_section(t: float, degree: int) -> np.ndarray:
    """Leading (N+1)x(N+1) corner of the coefficient matrix for parameter t,
    read-only and real: entry (n, j) is t**(n-j)/(n+1) for j <= n, zero
    above the diagonal.  Applying it to a coefficient vector matches
    :func:`generalized_cesaro_apply`.  The degree passes
    :func:`require_degree` before anything is allocated."""
    tv = require_memory_t(t)
    require_degree(degree, "degree")
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
    coefficients uniform in the unit disc, plus a structured family mixing
    bounded, logarithmic, and standard-order growth.

    Returns a list of (name, Poly) pairs; the random members come first,
    named ``random-NN``.
    """
    if degree < 4:
        raise ValueError("corpus degree must be at least 4")
    rng = np.random.default_rng(CORPUS_SEED)
    corpus = []
    for i in range(50):
        radius = np.sqrt(rng.random(degree + 1))
        angle = 2.0 * np.pi * rng.random(degree + 1)
        corpus.append((f"random-{i:02d}", Poly(radius * np.exp(1j * angle))))
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
        corpus.append((f"eigen-{n}", shifted_pole(n, degree)))
    return corpus
