"""Three independent routes to the resolvent of the averaging operator.

For (lam*I - C) f = h on truncated series:

* ``recurrence`` -- forward triangular solve in coefficient space; exact on
  truncations and the oracle against which the other two routes are checked.
* ``integral`` -- the explicit solution formula, evaluated pointwise off the
  cut (-1, 0] by the exact recurrence of its moments, run backward in k per
  point: no quadrature and no complex power.
* ``semigroup`` -- for Re lam < 0, the Laplace transform of the weighted
  composition semigroup, taken exactly: each coefficient is a Beta-weighted
  running sum, within 24 (N+1)**2 u max|f| of the solution at degree N.

Each route takes one lam or an array of them and a Poly h or a stack of one
degree; :func:`~cesaro_lab.series.as_given` shapes every result.  One
function refuses a lam near 0 for every route, each of which then refuses
only what it alone needs.  The recurrence and semigroup routes solve L lam
and M members as one (L, M, N+1) grid in one loop over n; the integral
route loops over lam, as grouping them would hold one (N+1) x points table
per lam at once.
"""

from __future__ import annotations

import numpy as np

from .operators import require_degree
from .series import as_given, poly_stack, require_finite_param, stack_as_given, stack_product
from .series import vanishing_order

#: Refuse a lam this close to 0, which every route divides by, or, in the
#: recurrence, to a diagonal value 1/(n+1), a genuine pole of the finite sections.
DIAGONAL_GUARD = 1e-12

#: Largest degree :func:`resolvent_recurrence` solves: its gap correction is
#: exact while k = n + 1 <= 2**27 keeps k times each half of fl(1/k) exact.
SPLIT_DEGREE_CAP = 2**27 - 1

#: Refuse integral-route calls whose backward recurrence would start more
#: than this many terms past the degree: 4,096 admits max|z| <= 0.991 at
#: Re(1/lam) <= 1, at most about 12 ms per lam; |z| = 1 - 1e-12 needs 3.7e13.
START_CAP = 4096

#: Relative error within which the integral route answers: it refuses a lam
#: whose first-order error bound near a diagonal value passes this.
INTEGRAL_TOLERANCE = 1e-8

#: The rings of :func:`off_cut_sample_points` and the angles on each.
SAMPLE_RADII = (0.5, 0.8)
SAMPLE_ANGLES = 50


def _named(lams: np.ndarray, i: int) -> str:
    """`` (lam[i] = value)`` for an array of lam, nothing for one lam."""
    return f" (lam[{i}] = {lams[i]:.6g})" if lams.size > 1 else ""


def _lambdas(lam) -> np.ndarray:
    """A number or a non-empty array of lam as a 1-d complex array, with the
    refusal that every route shares, as each divides by lam or a multiple of
    it: a lam within ``DIAGONAL_GUARD`` of 0, or whose modulus overflows or
    whose reciprocal underflows to 0 (parts near 1e308), is refused and
    named."""
    lams = np.array([require_finite_param(v, "lam") for v in np.ravel(lam)], dtype=complex)
    if lams.size == 0:
        raise ValueError("lam must be a number or a non-empty array")
    for i, lv in enumerate(lams.tolist()):
        if np.abs(lv) < DIAGONAL_GUARD:
            raise ValueError("lam must be nonzero" + _named(lams, i))
        if not np.isfinite(np.abs(lv)) or 1.0 / lv == 0:
            problem = "lam must have a finite modulus and a nonzero reciprocal"
            raise ValueError(problem + _named(lams, i))
    return lams


def resolvent_recurrence(lam, h):
    """Forward triangular solve of (lam*I - C) f = h.

    Coefficient n satisfies f_n*(lam - 1/(n+1)) = h_n + mean of f_0..f_{n-1}
    scaled by 1/(n+1); values of lam within 1e-12 of a diagonal entry are
    rejected rather than regularized, and so is a degree above
    ``SPLIT_DEGREE_CAP``.  L lam and M members are one (L, M, N+1) grid
    from one loop over n, shaped by :func:`~cesaro_lab.series.as_given`;
    the full grid is a view of the (N+1, L, M) work array (entries L*M*16
    bytes apart along n), the one result that is not C-ordered.

    One (N+1, L, 1) table of the gaps lam - 1/(n+1) refuses a lam near a
    diagonal value and divides each step, which writes into (L, M) buffers
    made once, with coefficient n of h broadcast across the lam axis: the
    plain loop's operations on its operands, so entry [i, j] is the call on
    lam i and member j bit for bit.  Each gap is (lam - q) - r, with
    q = fl(1/k), k = n + 1, and r = 1/k - q correctly rounded by Dekker's
    split of q (Numer. Math. 18, 1971): lam - q is exact near q (Sterbenz),
    so a gap is within 2u of lam - 1/k (u = 2**-53) even 1e-12 from a 1/k
    that is not a binary fraction.

    Forward bound, to first order in u: with g_n = lam - 1/(n+1),
    S_n = f_0 + ... + f_n and t_n = 18u (|h_n| + |S_{n-1}|/(n+1)), the
    computed f_n lies within (d_{n-1}/(n+1) + t_n)/|g_n| of the exact
    solution at the same double lam, where d_{-1} = 0 and d_n =
    |1 + 1/((n+1) g_n)| d_{n-1} + t_n/|g_n| + u |S_n| bounds the error of
    the running sum.  A step rounds the division by n+1 and the addition
    (u each), the gap (2u) and the complex division (14u, Smith's method),
    and the sum adds u |S_n|; an error in the sum grows by the step's own
    factor 1 + 1/((n+1) g_n) = (n+1)/(n+1 - 1/lam).
    """
    lams = _lambdas(lam)
    # h's rows as (1, M), so that at one lam the add skips numpy's broadcasting
    c = np.ascontiguousarray(poly_stack(h).T)[:, None]
    require_degree(c.shape[0] - 1, "input degree", SPLIT_DEGREE_CAP)
    ks = np.arange(1.0, c.shape[0] + 1)[:, None, None]
    q = 1.0 / ks
    high = q * (2.0**27 + 1) - (q * (2.0**27 + 1) - q)
    gaps = (lams[:, None] - q) - ((1.0 - ks * high) - ks * (q - high)) / ks
    for i in np.flatnonzero(np.abs(gaps).min(axis=0) < DIAGONAL_GUARD)[:1]:
        k = np.argmin(np.abs(gaps[:, i])) + 1
        raise ValueError(f"lam within {DIAGONAL_GUARD:g} of diagonal value 1/{k}" + _named(lams, i))
    f = np.empty((c.shape[0], lams.size, c.shape[2]), dtype=complex)
    running = np.zeros(f.shape[1:], dtype=complex)
    rhs = np.empty_like(running)
    for n, (cn, gap, fn) in enumerate(zip(c, gaps, f), 1):
        np.divide(running, n, out=rhs)
        np.add(cn, rhs, out=rhs)
        np.divide(rhs, gap, out=fn)
        running += fn
    return stack_as_given(h, np.moveaxis(f, 0, -1), lam)


def off_cut_sample_points() -> np.ndarray:
    """The fixed evaluation set for route-agreement checks: ``SAMPLE_ANGLES``
    midpoint-spaced angles on each ring |z| = r of ``SAMPLE_RADII``, so no
    point lies on the cut (-1, 0]; each within 6.6e-16 of its exact point."""
    theta = -np.pi + (np.arange(SAMPLE_ANGLES) + 0.5) * (2.0 * np.pi / SAMPLE_ANGLES)
    return np.concatenate([r * np.exp(1j * theta) for r in SAMPLE_RADII])


def _start_index(mu: complex, degree: int, radius: float) -> int:
    """K of :func:`resolvent_integral_profile` at degree N and max|z| = ``radius``."""
    log_radius = float(np.log(radius))
    least = int(np.ceil(np.log(2.0**-53) / log_radius)) + 8
    n = np.arange(degree, degree + START_CAP)
    log_terms = np.cumsum(np.log(radius * (n + 1) / np.abs(n + 2 - mu)))
    drop = log_terms - np.maximum(np.maximum.accumulate(log_terms), 0.0)
    fallen = np.flatnonzero(drop[least - 1 :] <= least * log_radius)
    if fallen.size:
        return degree + least + int(fallen[0])
    raise ValueError(
        f"at lam = {1.0 / mu:.6g} and max|z| = {radius:.6g} the integral route would start "
        f"more than START_CAP = {START_CAP} terms past degree {degree}: take points nearer 0"
    )


def resolvent_integral_profile(lam, h, zs) -> np.ndarray:
    """Pointwise values of the solution formula at an array of points, for
    one lam or an array of them and a Poly h or a stack of one degree,
    shaped by :func:`~cesaro_lab.series.as_given`.

    With mu = 1/lam the formula's moments m_k(z) = int_0^1 tau**(k-mu)
    (1 - tau z)**(mu-1) dtau obey (k+1-mu) m_k = (1-z)**mu + (k+1) z m_{k+1}
    (by parts), and g_k = 1/lam + mu**2 (1-z)**-mu m_k folds them into

        g_k = (mu (1 - z) + z g_{k+1}) / (1 - mu/(k+1)),  f(z) = sum_k h_k z**k g_k(z),

    with no complex power and nothing that cancels as |lam| -> 0.  It runs
    per point from g_{K+1} = mu down to k = v = vanishing_order(h), never
    lower: the order condition v > Re(mu) - 1 keeps the divisors at k >= v
    off zero, and below v one may vanish (k = 1 at lam = 1/2, h = z**2).

    Starting from mu drops mu**2 (1-z)**-mu m_{K+1}, which reaches g_k times
    z**(K+1-k) / prod_{j=k}^{K} (1 - mu/(j+1)): the route sums exactly the
    degree-K truncation of the solution's Taylor series (Miller's algorithm;
    Gautschi, SIAM Rev. 9, 1967).  Past degree N, term n of each part
    h_k z**k g_k is its term N times t_n = prod_{i=N}^{n-1} |z| (i+1)/|i+2-mu|,
    and K is the least n >= K0 = N + ceil(53 ln 2 / ln(1/max|z|)) + 8 where
    t_n has fallen below the largest t_m, m <= n, by max|z|**(K0-N) <=
    2**-53 max|z|**8.  For Re mu <= 1 each factor is at most |z|, so K = K0
    (173 terms past N at |z| <= 0.8); for Re mu > 1 the terms first grow like
    n**(Re mu - 1) |z|**n and K moves past their peak.  A call is refused
    before any table is built if N fails :func:`require_degree`, if K - N
    passes ``START_CAP`` at any lam, if any lam and member break the order
    condition, or if any lam is so near a diagonal value that the bound
    below passes ``INTEGRAL_TOLERANCE``; the first such lam of an array is
    named.

    Near a diagonal value, fl(mu) (within 3u |mu|, u = 2**-53) and
    fl(mu/(k+1)) (within u |mu|/(k+1)) move the divisor 1 - mu/(k+1) by a
    relative 4u |mu| / |k+1-mu|, and g_k and f with it, to first order.
    Under the order condition the least |k+1-mu| over k >= v is |v+1-mu|,
    so the relative error is within 4u |mu| / |v+1-mu|.  Measured at degree
    1024 it stayed within 1.3 u |mu| / |v+1-mu|: 1.85e-7 at lam = 1/3 +
    1e-10 with h = z**2.

    The resolvent-routes oracle truncates the same series at 4N, with
    divisors of the same form, so the two are independent only in summation
    order and arithmetic: here per point and downward in k, there forward in
    n over coefficients and then one folded FFT per ring.  The z**k table is
    built once per call by running products (within 2.83 (k-1) u of the
    power: Higham, Accuracy and Stability, Lemma 3.5); each lam fills one
    (N+1) x points table of z**k g_k, 0 below v, and takes one
    :func:`~cesaro_lab.series.stack_product` with the whole stack, so a
    member's row equals its own call bit for bit.
    """
    lams = _lambdas(lam)
    stack = poly_stack(h)
    degree = stack.shape[1] - 1
    require_degree(degree, "input degree")
    order = vanishing_order(stack)
    for i, lv in enumerate(lams.tolist()):
        mu = 1.0 / lv
        if order <= mu.real - 1.0:
            need = "integral route requires the vanishing order of h to exceed Re(1/lam) - 1"
            raise ValueError(need + _named(lams, i))
        bound = 4 * 2.0**-53 * abs(mu) / abs(order + 1 - mu)
        if bound > INTEGRAL_TOLERANCE:
            raise ValueError(
                f"lam = {lv:.12g} is too near the diagonal value 1/{order + 1} for the integral "
                f"route: its error bound 4u|mu|/|{order + 1} - mu| = {bound:.2g} passes "
                f"{INTEGRAL_TOLERANCE:g}"
            )
    zv = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(np.abs(zv) >= 1.0):
        raise ValueError("evaluation points must lie inside the unit disc")
    if np.any((zv.imag == 0) & (zv.real <= 0)):
        raise ValueError("evaluation points must avoid the cut (-1, 0]")
    radius = float(np.max(np.abs(zv)))
    starts = [_start_index(1.0 / lv, degree, radius) for lv in lams.tolist()]

    z_powers = np.empty((degree + 1, zv.size), dtype=complex)
    z_powers[0] = 1.0
    for k in range(1, degree + 1):
        np.multiply(z_powers[k - 1], zv, out=z_powers[k])
    rows = np.zeros((degree + 1, zv.size), dtype=complex)
    values = np.empty((lams.size, stack.shape[0], zv.size), dtype=complex)
    for lv, start, value in zip(lams.tolist(), starts, values):
        mu = 1.0 / lv
        shift = mu * (1.0 - zv)
        divisors = (1.0 - mu / np.arange(1, start + 2)).tolist()
        g = np.full(zv.size, mu)
        for k in range(start, order - 1, -1):
            out = rows[k] if k <= degree else g
            np.multiply(zv, g, out=out)
            out += shift
            out /= divisors[k]
            g = out
        rows *= z_powers
        value[...] = stack_product(rows.T, stack)
    return as_given(h, values, lam)


def resolvent_semigroup(lam, h):
    """h/lam + lam**-2 * int_0^inf e^(t/lam) S_t h dt in closed form, for one
    lam or an array of them and a Poly h or a stack of one degree, shaped
    by :func:`~cesaro_lab.series.as_given`, each row bit for bit its own
    call.  Every lam needs Re lam < 0, |lam| >= 1e-12 and a finite
    (N+1)|lam| at degree N, all checked before any work.

    Row n of S_t is a * Binomial(n, a) with a = e^-t, so with mu = 1/lam
    each term integrates exactly: C(n,k) B(k+1-mu, n-k+1) =
    prod_{j=k+1}^{n} j/(j-mu) / (n+1-mu) (Euler's Beta integral).  One loop
    over n for every lam and member keeps the Beta sum as a running sum,
    S_n = T_n + h_n with T_n = S_{n-1} * n/(n-mu), and folds the h_n/lam term
    in: f_n = h_n/lam + S_n/((n+1-mu) lam**2) = ((n+1) h_n + T_n/lam) /
    ((n+1) lam - 1), which cancels nothing as |lam| -> 0.

    Error: for Re mu < 0, |n/(n-mu)| <= 1 and |(n+1) lam - 1| >= 1, so no
    step amplifies an earlier rounding error.  T_n/lam is exactly
    f_0 + ... + f_{n-1}, at most n max|f| in modulus, and (n+1)|h_n| is at
    most 2(n+1)|(n+1) lam - 1| max|f|.  Step n adds at most 15u of the first
    to the carried sum and 7u of both to f_n (u = 2**-53), so to first order
    max|error| <= 24 (N+1)**2 u max|f| at degree N.  The recurrence carries
    the same sums through the same factors, so the two routes agree within
    twice that; sampled over the half-plane up to degree 512, to 2e-15.
    """
    lams = _lambdas(lam)
    stack = poly_stack(h)
    for i in np.flatnonzero(lams.real >= 0)[:1]:
        raise ValueError("semigroup route needs Re lam < 0" + _named(lams, i))
    column, ns = lams[:, None], np.arange(1, stack.shape[1] + 1)
    # each step divides by (n+1) lam - 1, whose parts stay finite while (N+1)|lam| does
    with np.errstate(over="ignore"):
        scales = ns.size * np.abs(lams)
    for i in np.flatnonzero(~np.isfinite(scales))[:1]:
        raise ValueError("semigroup route needs a finite (N+1)|lam|" + _named(lams, i))
    # n/(n - mu) by Python's complex division: numpy's differs in the last bit
    ratios = np.array([[n / (n - 1.0 / lv) for lv in lams.tolist()] for n in range(ns.size)])
    steps = zip(stack.T, (stack * ns).T, ratios[..., None], ns[:, None, None] * column - 1)
    out = np.empty((lams.size,) + stack.shape, dtype=complex)
    running = np.zeros(out.shape[:2], dtype=complex)
    for n, (c, scaled, ratio, divisor) in enumerate(steps):
        carried = running * ratio
        running = carried + c
        out[..., n] = (scaled + carried / column) / divisor
    return stack_as_given(h, out, lam)

