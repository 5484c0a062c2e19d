"""Brute-force oracles that only the tests use.

``compose`` evaluates p(q(z)) by nested convolutions, and ``mobius_coeffs``
gives the disc automorphism behind the composition semigroup S_t; together
they define S_t directly, against which the closed-form Binomial rows of
``cesaro_lab.operators.s_t_rows`` are checked.  ``per_member_s_t_apply`` and
``allocating_recurrence`` are the earlier forms of ``s_t_apply`` (one
product per member) and of ``resolvent_recurrence`` (new arrays at every
step, over the whole (lam, member) grid, its gaps corrected from exact
fractions), the references for the blocked and in-place kernels;
``exact_recurrence`` solves the recurrence in exact rational arithmetic,
against which the route's forward bound is checked.
``plain_semigroup`` is the semigroup route's loop for one lam, against
which each lam of ``resolvent_semigroup`` is checked bit for bit.
``traced_peak`` measures the memory a call allocates, for the tests that
bound it.  ``exact_ring_points`` and ``decimal_ring_values`` give the ring
points of ``cesaro_lab.resolvent.off_cut_sample_points`` and a polynomial's
values there to 45 digits, against which the resolvent-routes oracle's
folded FFT is checked; at double points, which decimals hold exactly, the
same sums check Horner's rule in ``cesaro_lab.series.horner_eval``.
"""

import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from cesaro_lab.operators import s_t_rows
from cesaro_lab.series import Poly, poly_stack


def compose(p: Poly, q: Poly, degree: int | None = None) -> Poly:
    """Truncation of p(q(z)) for an inner series with q(0) = 0.

    The zero constant term is required exactly: it is what makes coefficient
    n of the composition depend only on the first n+1 coefficients of both
    arguments, so truncating at ``degree`` is exact.
    """
    if q.coeffs[0] != 0:
        raise ValueError("inner series must have an exactly zero constant term")
    if degree is None:
        degree = min(p.degree * max(q.degree, 1), 1024)
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


#: Pi to 50 digits, for the decimal ring points.
DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _cos_sin(theta: Decimal) -> tuple[Decimal, Decimal]:
    """cos and sin of |theta| <= pi by their Taylor series, in the current
    decimal context."""
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0
    while abs(term) > Decimal(10) ** -60:
        if k % 2 == 0:
            cos += term if k % 4 == 0 else -term
        else:
            sin += term if k % 4 == 1 else -term
        k += 1
        term = term * theta / k
    return cos, sin


def exact_ring_points(radii, angles: int) -> list:
    """The points r e^(i theta), theta = pi (2j + 1 - P)/P for j < P =
    ``angles``, ring by ring, as (re, im) pairs of 45-digit decimals; each
    radius is the double it is given as."""
    with localcontext() as ctx:
        ctx.prec = 45
        points = []
        for r in radii:
            for j in range(angles):
                cos, sin = _cos_sin(DECIMAL_PI * (2 * j + 1 - angles) / angles)
                points.append((Decimal(r) * cos, Decimal(r) * sin))
    return points


def point_offsets(zs, points) -> np.ndarray:
    """|z - p| for each double z and decimal point p, rounded to a double."""
    with localcontext() as ctx:
        ctx.prec = 45
        return np.array(
            [
                float(((Decimal(z.real) - re) ** 2 + (Decimal(z.imag) - im) ** 2).sqrt())
                for z, (re, im) in zip(np.ravel(zs).tolist(), points, strict=True)
            ]
        )


def decimal_ring_values(coeffs, points) -> np.ndarray:
    """sum_n coeffs[n] p**n at each decimal point p, by Horner's rule in
    45-digit decimals, rounded to complex doubles."""
    with localcontext() as ctx:
        ctx.prec = 45
        c = [(Decimal(v.real), Decimal(v.imag)) for v in np.asarray(coeffs, complex).tolist()]
        values = []
        for pr, pi in points:
            ar, ai = c[-1]
            for cr, ci in c[-2::-1]:
                ar, ai = ar * pr - ai * pi + cr, ar * pi + ai * pr + ci
            values.append(complex(float(ar), float(ai)))
    return np.array(values)


def per_member_s_t_apply(t: float, p) -> np.ndarray:
    """S_t times each member of a Poly or a stack, as a (members, N+1)
    array: real matrix-vector products with each part of each member, over
    blocks of 256 rows, which keep OpenBLAS on the calling thread (a whole
    1025 x 1025 product wakes its worker threads, which go on spinning into
    the next test)."""
    stack = poly_stack(p)
    rows = s_t_rows(t, stack.shape[1] - 1)
    for c in stack:
        real, imag = c.real.copy(), c.imag.copy()
        for i in range(0, len(rows), 256):
            c[i : i + 256] = rows[i : i + 256] @ real + 1j * (rows[i : i + 256] @ imag)
    return stack


def allocating_recurrence(lam, h) -> np.ndarray:
    """The forward solve of (lam*I - C) f = h with new arrays at every step:
    for an array of lam and one Poly h, or one lam and a stack, a (lam or
    member, N+1) array; for an array of lam and a stack, a (lam, member,
    N+1) grid."""
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    c = poly_stack(h).T
    f = np.empty((c.shape[0], lams.size, c.shape[1]), dtype=complex)
    running = np.zeros(f.shape[1:], dtype=complex)
    for n in range(c.shape[0]):
        # the gap lam - 1/(n+1) as (lam - q) - r, with q = fl(1/(n+1)) and
        # r = 1/(n+1) - q rounded from exact fractions
        q = 1.0 / (n + 1)
        gap = (lams[:, None] - q) - float(Fraction(1, n + 1) - Fraction(q))
        f[n] = (c[n] + running / (n + 1)) / gap
        running += f[n]
    grid = np.ascontiguousarray(np.moveaxis(f, 0, -1))
    return grid if np.ndim(lam) and not isinstance(h, Poly) else grid.reshape(-1, c.shape[0])


def exact_recurrence(lam, coeffs) -> np.ndarray:
    """The forward solve of (lam*I - C) f = h in exact rational arithmetic,
    at the double lam and h's double coefficients, each f_n rounded once to
    a complex double.  Every part is an integer over one power of two, so
    f_n = (k h_n + S_{n-1}) / (k lam - 1) with k = n + 1 and S_{n-1} =
    f_0 + ... + f_{n-1} is carried as Gaussian integers over one common
    integer denominator, never reduced: no gcd of the growing numbers."""
    values = [complex(lam)] + [complex(c) for c in coeffs]
    parts = [Fraction(x) for v in values for x in (v.real, v.imag)]
    scale = max(p.denominator for p in parts)
    a, b, *h = [int(p * scale) for p in parts]
    x = y = 0  # S_{n-1} = (x + iy) / den
    den = 1
    out = []
    for n in range(len(h) // 2):
        k = n + 1
        c, d = k * a - scale, k * b  # scale (k lam - 1)
        pr = k * h[2 * n] * den + scale * x  # scale den (k h_n + S_{n-1})
        pi = k * h[2 * n + 1] * den + scale * y
        fr, fi = pr * c + pi * d, pi * c - pr * d
        m = c * c + d * d
        out.append(complex(fr / (den * m), fi / (den * m)))  # int division rounds once
        x, y, den = x * m + fr, y * m + fi, den * m
    return np.array(out)


def plain_semigroup(lam, h) -> np.ndarray:
    """The semigroup route's closed form for one lam, one step per n with
    new arrays and n/(n - mu) in Python's complex arithmetic, as a
    (member, N+1) array."""
    stack = poly_stack(h)
    lv = complex(lam)
    mu = 1.0 / lv
    running = np.zeros(len(stack), dtype=complex)
    for n, c in enumerate(stack.T):
        carried = running * (n / (n - mu))
        running = carried + c
        c[:] = ((n + 1) * c + carried / lv) / ((n + 1) * lv - 1)
    return stack


def traced_peak(run):
    """The value of ``run()`` and the peak bytes ``tracemalloc`` traced
    while it ran."""
    tracemalloc.start()
    try:
        value = run()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
