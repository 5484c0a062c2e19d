"""Three independent routes to the resolvent of the averaging operator.

For (lam*I - C) f = h on truncated series:

* ``recurrence`` -- forward triangular solve in coefficient space; exact on
  truncations and the oracle against which the other two routes are checked.
* ``integral`` -- the explicit solution formula with principal-branch powers,
  evaluated pointwise off the cut (-1, 0] by fixed-node quadrature.
* ``semigroup`` -- for Re lam < 0, the Laplace transform of the weighted
  composition semigroup, taken exactly: each coefficient is a Beta-weighted
  running sum, within 24 (N+1)**2 u max|f| of the solution at degree N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import as_given, poly_stack, real_matmul, require_finite_param, stack_as_given
from .series import vanishing_order

#: Refuse recurrence solves when lam is this close to a diagonal value
#: 1/(n+1): those are genuine poles of the finite sections.
DIAGONAL_GUARD = 1e-12

#: Steps of :func:`resolvent_recurrence` whose gaps lam - 1/(n+1) are
#: taken at once: 152 kB at the spectral sweep's 149 lam.
GAP_ROWS = 64

#: Multiplicative slack over the proved constants, absorbing the sampling
#: underestimate of circle maxima (applied on both sides of each bound).
INEQUALITY_SLACK = 1.0 + 1e-6

#: Budgets past these caps are refused before any work: a Gauss rule costs
#: an eigensolve (0.8 s at 2048 nodes), the integral kernel 1.6 kB per node
#: at 100 points (105 MB at both caps).
NODE_CAP = 1024  # nodes per integral panel
PANEL_CAP = 64  # integral panels

#: The tau**k table takes 8 bytes per node and coefficient, 1.07 GB at both
#: caps and degree 2048, so a call whose table would pass the kernel's
#: 105 MB at both caps is refused before any work: at both caps past degree
#: 199, at the default 1,024 nodes past degree 12,799.
TABLE_BYTES_CAP = NODE_CAP * PANEL_CAP * 1600


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-node quadrature settings of the integral route: ``panels``
    Gauss-Legendre panels of ``nodes`` nodes each on [0, s_max].  The
    semigroup route takes its transform in closed form and reads none."""

    nodes: int = 256
    panels: int = 4
    s_max: float = 36.0

    def __post_init__(self):
        if not (16 <= self.nodes <= NODE_CAP and 1 <= self.panels <= PANEL_CAP):
            raise ValueError(f"budgets must lie in [16, {NODE_CAP}] nodes, [1, {PANEL_CAP}] panels")
        if not 0 < self.s_max < np.inf:
            raise ValueError("invalid quadrature settings")


def _check_lambda_clear(lams: np.ndarray, degree: int):
    diagonal = 1.0 / (np.arange(degree + 1) + 1)
    for lam in lams:
        if abs(lam) < DIAGONAL_GUARD:
            raise ValueError("lam must be nonzero")
        dist = np.abs(lam - diagonal)
        if dist.min() < DIAGONAL_GUARD:
            k = int(np.argmin(dist))
            raise ValueError(f"lam within {DIAGONAL_GUARD:g} of diagonal value 1/{k + 1}")


def _lambdas(lam) -> np.ndarray:
    """A number or a non-empty array of lam as a 1-d complex array."""
    lams = np.array([require_finite_param(v, "lam") for v in np.ravel(lam)], dtype=complex)
    if lams.size == 0:
        raise ValueError("lam must be a number or a non-empty array")
    return lams


def _check_integral_preconditions(lams: np.ndarray, stack: np.ndarray):
    if np.min(np.abs(lams)) < DIAGONAL_GUARD:
        raise ValueError("lam must be nonzero")
    if vanishing_order(stack) <= np.max((1.0 / lams).real) - 1.0:
        raise ValueError(
            "integral route requires the vanishing order of h to exceed Re(1/lam) - 1"
        )


def resolvent_recurrence(lam, h):
    """Forward triangular solve of (lam*I - C) f = h.

    Coefficient n satisfies f_n*(lam - 1/(n+1)) = h_n + mean of f_0..f_{n-1}
    scaled by 1/(n+1); values of lam within 1e-12 of a diagonal entry are
    rejected rather than regularized.  An array of lam with one Poly h, or
    one lam with a stack of one degree, gives an array of coefficients,
    one row per lam or member, from one loop over n for all of them.

    Each step writes into buffers made once, and the gaps lam - 1/(n+1)
    are taken ``GAP_ROWS`` steps at a time: the same operations on the
    same operands as the plain loop, so the bits are its bits, without
    an (N+1) x lam table.
    """
    lams = _lambdas(lam)
    c = np.ascontiguousarray(poly_stack(h).T)
    if lams.size > 1 and c.shape[1] > 1:
        raise ValueError("give an array of lam or a sequence of h, not both")
    _check_lambda_clear(lams, c.shape[0] - 1)
    f = np.empty((c.shape[0], max(lams.size, c.shape[1])), dtype=complex)
    running = np.zeros(f.shape[1], dtype=complex)
    rhs = np.empty_like(running)
    inverses = 1.0 / np.arange(1, c.shape[0] + 1)
    for start in range(0, c.shape[0], GAP_ROWS):
        stop = start + GAP_ROWS
        gaps = lams - inverses[start:stop, None]
        for n, (cn, gap, fn) in enumerate(zip(c[start:stop], gaps, f[start:stop]), start + 1):
            np.divide(running, n, out=rhs)
            np.add(cn, rhs, out=rhs)
            np.divide(rhs, gap, out=fn)
            running += fn
    solved = np.ascontiguousarray(f.T)
    return stack_as_given(h, solved) if np.ndim(lam) == 0 else solved


def off_cut_sample_points() -> np.ndarray:
    """The fixed evaluation set for route-agreement checks: 50 midpoint-spaced
    angles on each of the rings |z| = 0.5 and 0.8, so no point lies on the
    cut (-1, 0]."""
    theta = -np.pi + (np.arange(50) + 0.5) * (2.0 * np.pi / 50)
    return np.concatenate([r * np.exp(1j * theta) for r in (0.5, 0.8)])


@lru_cache(maxsize=None)
def _gauss_panels(nodes: int, panels: int, length: float):
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, length, panels + 1)
    ss, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        ss.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    s = np.concatenate(ss)
    w = np.concatenate(ws)
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def _validate_points(zs: np.ndarray):
    if np.any(np.abs(zs) >= 1.0):
        raise ValueError("evaluation points must lie inside the unit disc")
    on_cut = (zs.imag == 0) & (zs.real <= 0)
    if np.any(on_cut):
        raise ValueError("evaluation points must avoid the cut (-1, 0]")


def resolvent_integral_profile(lam, h, zs, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Pointwise values of the solution formula at an array of points, for a
    Poly h or, one row per member, for a stack of one degree,
    and for one lam or, along a leading axis, an array of them.

    After the segment substitution zeta = tau*z the powers of z cancel and
    the integrand becomes tau**(-1/lam) (1 - tau*z)**(1/lam - 1) h(tau*z) on
    tau in (0, 1].  The further substitution tau = exp(-s) flattens the
    endpoint oscillation of tau**(-1/lam) into a smooth, exponentially
    damped integrand on [0, s_max], which fixed Gauss-Legendre panels
    resolve to near machine precision.

    The Gauss sum is taken in moment form, sum_k h_k z**k m_k(z) with the
    h-free m_k(z) = sum_s w_s damping_s (1 - tau_s z)**(1/lam - 1) tau_s**k,
    so each lam costs one product for all members.  The lam-free tables are
    built once per call: tau**k and z**k row by row, row k = row k-1 * tau
    and row k-1 * z (above the underflow range, within (k-1) u and
    2.83 (k-1) u of the power relative to first order, u = 2**-53, since a
    complex product errs by at most 2.83 u: Higham, Accuracy and Stability,
    Lemma 3.5), log(1 - tau z) in real arithmetic as log(hypot(x, y)) +
    i atan2(y, x) with x = 1 - tau Re z, y = -tau Im z (about u absolute,
    which the kernel's exp turns into about |1/lam - 1| u relative), and
    log(1 - z).  A lam's row, (member, point) or (point,), equals its own
    call bit for bit.  The whole call is refused if any lam and member
    break the order condition, or if its tau**k table would pass
    ``TABLE_BYTES_CAP``.
    """
    lams = _lambdas(lam)
    quad = quad or QuadratureSpec()
    stack = poly_stack(h)
    _check_integral_preconditions(lams, stack)
    zv = np.atleast_1d(np.asarray(zs, dtype=complex))
    _validate_points(zv)
    table_bytes = 8 * stack.shape[1] * quad.nodes * quad.panels
    if table_bytes > TABLE_BYTES_CAP:
        raise ValueError(
            f"the tau**k table would take {table_bytes / 1e6:.0f} MB, past "
            f"{TABLE_BYTES_CAP / 1e6:.0f} MB: lower the degree, nodes or panels"
        )

    s, w = _gauss_panels(quad.nodes, quad.panels, quad.s_max)
    tau = np.exp(-s)
    tau_powers = np.empty((stack.shape[1], tau.size))
    z_powers = np.empty((stack.shape[1], zv.size), dtype=complex)
    tau_powers[0] = z_powers[0] = 1.0
    for k in range(1, stack.shape[1]):
        np.multiply(tau_powers[k - 1], tau, out=tau_powers[k])
        np.multiply(z_powers[k - 1], zv, out=z_powers[k])
    x = 1.0 - np.multiply.outer(tau, zv.real)
    y = np.multiply.outer(tau, -zv.imag)
    log_kernel = np.empty(x.shape, dtype=complex)
    np.log(np.hypot(x, y), out=log_kernel.real)
    np.arctan2(y, x, out=log_kernel.imag)
    del x, y
    log_point = np.log(1.0 - zv)
    values = []
    for lv in lams.tolist():
        il = 1.0 / lv
        # tau**(-il) * dtau collapses to exp(-s*(1 - il)) ds.
        damping = np.exp(-s * (1.0 - il))
        # in place, so holding log_kernel adds no kernel-sized temporaries;
        # swapping either product's operands would move the last bits
        kernel = np.multiply(log_kernel, il - 1.0)
        np.multiply((w * damping)[:, None], np.exp(kernel, out=kernel), out=kernel)
        moments = real_matmul(tau_powers, kernel)
        prefactor = il**2 * np.exp(-il * log_point)
        weights = z_powers.T * (1.0 / lv + prefactor[:, None] * moments.T)
        values.append(as_given(h, real_matmul(weights, stack.T).T))
    values = np.array(values)
    return values[0] if np.ndim(lam) == 0 else values


def resolvent_semigroup(lam, h):
    """h/lam + lam**-2 * int_0^inf e^(t/lam) S_t h dt in closed form, for a
    Poly h or, as an array, for a stack of one degree; needs Re lam < 0, and
    |lam| below 1e-12 is refused as for the other routes.

    Row n of S_t is a * Binomial(n, a) with a = e^-t, so with mu = 1/lam
    each term integrates exactly: C(n,k) B(k+1-mu, n-k+1) =
    prod_{j=k+1}^{n} j/(j-mu) / (n+1-mu) (Euler's Beta integral).  One loop
    over n for the whole stack keeps the Beta sum as a running sum,
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
    lv = require_finite_param(lam, "lam")
    if lv.real >= 0:
        raise ValueError("semigroup route needs Re lam < 0")
    stack = poly_stack(h)
    _check_lambda_clear(np.array([lv]), stack.shape[1] - 1)
    mu = 1.0 / lv
    running = np.zeros(len(stack), dtype=complex)
    for n, c in enumerate(stack.T):
        carried = running * (n / (n - mu))
        running = carried + c
        c[:] = ((n + 1) * c + carried / lv) / ((n + 1) * lv - 1)
    return stack_as_given(h, stack)


def imaginary_axis_constant(b: float) -> float:
    """1/|b| + exp(4*pi/|b|)/b**2: for lam = i*b it bounds the order-(k+1)
    weighted norm of the resolvent solution by the order-k norm of h."""
    return 1.0 / abs(b) + np.exp(4.0 * np.pi / abs(b)) / b**2

