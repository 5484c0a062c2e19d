"""Verification suite: the package's falsifiable claims, each with its
stated tolerance and runtime budget.

Every check derives its expected values independently of the code path it
exercises (closed forms, triangular oracles, stated constants) and returns
its verdict and detail; ``run_suite`` times each against its budget in
``SUITES`` and returns a :class:`CheckResult`.  It powers both the
command-line ``verify`` subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import operators
from .ergodic import SECTION_T_VALUES, eigenvector_ct, iterate_trace
from .operators import (
    build_corpus,
    cesaro_apply,
    cesaro_inverse_apply,
    generalized_cesaro_apply,
    s_t_apply,
    section_shape_error,
    CORPUS_SEED,
    ST_DEGREE_CAP,
)
from .resolvent import (
    SAMPLE_ANGLES,
    SAMPLE_RADII,
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
)
from .series import (
    Poly,
    cauchy_product,
    log_one_minus_inv,
    monomial,
    poly_stack,
    require_count,
    shifted_pole,
    stack_product,
    truncate,
)
from .weights import (
    SWEEP_SAMPLES,
    WeightSpec,
    default_radius_grid,
    growth_classify,
    max_modulus_profile,
    sup_norm_exceeds,
    weight_eval,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    runtime_s: float
    detail: str


def _eigen_residual(image: Poly, x: Poly, mu: float) -> float:
    """Relative residual max|A x - mu x| / max(max|x|, 1) of an eigenvector
    x of eigenvalue mu, given its image A x."""
    residual = float(np.max(np.abs(image.coeffs - mu * x.coeffs)))
    return residual / max(float(np.max(np.abs(x.coeffs))), 1.0)


def check_eigen_cesaro(degree: int) -> tuple[bool, str]:
    """Eigen-identity for the averaging operator at z**(n-1) (1-z)**-n, n = 1..8."""
    poles = [shifted_pole(n, degree) for n in range(1, 9)]
    worst = max(_eigen_residual(cesaro_apply(x), x, 1.0 / n) for n, x in enumerate(poles, 1))
    return worst <= 1e-12, f"max relative residual {worst:.2e}"


def _binomial_tail(t: float, m: int, first: int, last: int) -> float:
    """Closed-form sum of C(n, m) t**(n-m) over first <= n <= last; C(n, m) = 0 for n < m."""
    return math.fsum(math.comb(n, m) * t ** (n - m) for n in range(max(first, m), last + 1))


def _binomial_remainder(t: float, m: int, degree: int) -> float:
    """Closed-form sum of C(n, m) t**(n-m) over n > degree.

    Scaled by (1-t)**(m+1) this is the negative-binomial tail: fewer than
    m+1 successes, of probability 1-t each, in the first degree+1 trials.
    """
    s = 1.0 - t
    head = math.fsum(
        math.comb(degree + 1, i) * s**i * t ** (degree + 1 - i) for i in range(m + 1)
    )
    return head / s ** (m + 1)


def check_eigen_ct(degree: int) -> tuple[bool, str]:
    """Eigen-identity and absolute-sum tails for the memory-t operator.

    For t < 1 the eigenvector for 1/(m+1) is z**m (1-tz)**-(m+1), with
    coefficients x_n = C(n, m) t**(n-m) and l1 norm (1-t)**-(m+1).  For
    every (t, m) pair, besides the eigen-identity residual, two clauses
    hold to a relative 1e-12 against that closed form, evaluated with
    ``math.comb`` and ``math.fsum``:

    (a) tail: sum |x_n| over half degree < n <= degree equals the closed-form
        increment (exactly 0 at t = 0);
    (b) l1 norm: sum |x_n| over n <= degree plus the closed-form remainder
        beyond the degree equals (1-t)**-(m+1).
    """
    half = degree // 2
    res_errs, tail_errs, norm_errs = [], [], []
    for t in (0.0, 0.3, 0.9):
        for m in range(6):
            x = eigenvector_ct(t, m, degree)
            res_errs.append((_eigen_residual(generalized_cesaro_apply(t, x), x, 1 / (m + 1)), t, m))
            abs_x = np.abs(x.coeffs)
            increment = float(np.sum(abs_x[half + 1 :]))
            expected = _binomial_tail(t, m, half + 1, degree)
            if expected == 0.0:
                tail_err = 0.0 if increment == 0.0 else math.inf
            else:
                tail_err = abs(increment - expected) / expected
            tail_errs.append((tail_err, t, m))
            norm = (1.0 - t) ** -(m + 1)
            total = float(np.sum(abs_x)) + _binomial_remainder(t, m, degree)
            norm_errs.append((abs(total - norm) / norm, t, m))
            if (t, m) == (0.9, 5):
                shown = f"t=0.9 m=5 tail {increment:.6e} (closed form {expected:.6e})"
    clauses = (("residual", res_errs), ("tail", tail_errs), ("l1-norm", norm_errs))
    failed = [clause for clause, errs in clauses if not all(e[0] <= 1e-12 for e in errs)]
    tail_err, tail_t, tail_m = max(tail_errs)
    norm_err, norm_t, norm_m = max(norm_errs)
    detail = (
        f"max relative residual {max(res_errs)[0]:.2e}; "
        f"tail vs closed form max rel err {tail_err:.2e} at t={tail_t:g} m={tail_m}; "
        f"l1 norm vs (1-t)^-(m+1) max rel err {norm_err:.2e} at t={norm_t:g} m={norm_m}; "
        f"{shown}"
    )
    if failed:
        detail += "; failed clauses: " + ", ".join(failed)
    return not failed, detail


def check_inverse_roundtrip(degree: int) -> tuple[bool, str]:
    """Inverse identity over the 50 pseudo-random corpus members."""
    members = poly_stack([f for _, f in build_corpus(degree)[:50]])
    back = cesaro_inverse_apply(cesaro_apply(members))
    worst = float(np.max(np.abs(back - members)))
    return worst <= 1e-12, f"max coefficient error {worst:.2e}"


def check_log_power_identity() -> tuple[bool, str]:
    """Closed-form image of log(1-z)**k for k = 1..4 at degree 256.

    Both sides are exact truncations: averaging g**k against the shifted
    coefficients of -g**(k+1)/(k+1), where g = log(1-z).  g has vanishing
    order 1, so g**k to degree N determines g**(k+1) to degree N+1, and
    g**(k+1) cut back to degree N is the next g**k.
    """
    degree = 256
    g = Poly(-log_one_minus_inv(degree + 1).coeffs)
    gk1, worst = g, 0.0
    for k in (1, 2, 3, 4):
        gk = truncate(gk1, degree)
        gk1 = cauchy_product(gk, g, degree=degree + 1)
        rhs = -gk1.coeffs[1:] / (k + 1)
        worst = max(worst, float(np.max(np.abs(cesaro_apply(gk).coeffs - rhs))))
    return worst <= 1e-10, f"max coefficient error {worst:.2e}"


def _ring_values(stack: np.ndarray) -> np.ndarray:
    """Each row of a (members, N+1) coefficient stack at the exact points of
    :func:`off_cut_sample_points`: r e^(i theta0) w**j on a ring of radius r,
    theta0 = -pi + pi/P, w**P = 1 (P = ``SAMPLE_ANGLES``).  So c_n r**n
    e^(i n theta0), its turn read from the 2P-th roots of unity at index
    -n(P-1) mod 2P, is summed by residue of n mod P and one unscaled inverse
    DFT gives the ring: O(N + P log P), not Horner's O(N P).  Error, to
    first order (u = 2**-53): 19u per weight (a table angle below 2 pi is
    off by 2.4u relative), 3u per product, F - 1 fold sums (F =
    ceil((N+1)/P)) and about 8u in the FFT's three levels (Higham, Accuracy
    and Stability, Thm 24.2): (F + 30) u sum_n |c_n| r**n; points off by
    delta add max|delta| sum_n n |c_n| r**(n-1).
    """
    n = np.arange(stack.shape[1] + -stack.shape[1] % SAMPLE_ANGLES)
    roots = np.exp(1j * np.pi / SAMPLE_ANGLES * np.arange(2 * SAMPLE_ANGLES))
    turns = roots[-n * (SAMPLE_ANGLES - 1) % (2 * SAMPLE_ANGLES)]
    terms = np.pad(stack, ((0, 0), (0, n.size - stack.shape[1])))[:, None]
    terms = terms * (np.power.outer(SAMPLE_RADII, n) * turns)
    folds = terms.reshape(len(stack), len(SAMPLE_RADII), -1, SAMPLE_ANGLES).sum(axis=2)
    return np.fft.ifft(folds, norm="forward").reshape(len(stack), -1)


def _backward_errors(lam: complex, f, h) -> np.ndarray:
    """max|lam f - C f - h| / (|lam| max|f| + max|h|) per member of the
    stacks f and h of one degree, C f by :func:`cesaro_apply`: how far a
    solved resolvent f of h is from solving (lam I - C) f = h."""
    f, h = poly_stack(f), poly_stack(h)
    residual = np.abs(lam * f - cesaro_apply(f) - h).max(axis=1)
    return residual / (abs(lam) * np.abs(f).max(axis=1) + np.abs(h).max(axis=1))


def check_resolvent_routes() -> tuple[bool, str]:
    """Integral and semigroup routes against the triangular oracle.

    The oracle is solved to four times the corpus degree so that its own
    truncation tail at |z| <= 0.8 sits well below the comparison tolerance,
    and summed by :func:`_ring_values` at the exact ring points, within
    1.4e-12 at degree 512; the doubles the route is evaluated at lie up to
    6.6e-16 away, where |f'| <= 7,400, so the check reads 1.80e-12.  The
    integral route sums the same Taylor series, cut 173 terms past the
    degree, so the two are independent in order and arithmetic only: per
    point and downward in k there, forward in n and then by residues here.

    Each side is one recurrence grid: 4 lam x 62 members, zero-padded to 4N,
    for the oracle, summed one lam at a time (all 248 rows would hold 4.4 MB
    of ring terms), and 3 lam x 3 probes against one semigroup call.

    The semigroup grid also goes through the operator itself: its backward
    error max|lam f - C f - h| / (|lam| max|f| + max|h|) per lam and probe,
    with C f by :func:`cesaro_apply`'s cumulative sum.  By the route's own
    step bounds the carried sum is within 7.5u n**2 max|f| and a step within
    14u of its terms (u = 2**-53), and the residual's own rounding adds
    N u max|f| and 16u of its terms, so the error is within
    9 (N+2) u (1 + 1/|lam|) at degree N: 3.5e-13 at the least |lam| here.
    """
    degree = 128
    corpus = build_corpus(degree)
    zs = off_cut_sample_points()
    oracle_degree = 4 * degree

    members = [h for _, h in corpus]
    extended = np.pad(poly_stack(members), ((0, 0), (0, oracle_degree - degree)))
    lams = (1j, 2j, -1 + 1j, 3.0)
    oracles = resolvent_recurrence(lams, extended)
    worst_integral = 0.0
    for oracle, profiles in zip(oracles, resolvent_integral_profile(lams, members, zs)):
        worst_integral = max(worst_integral, float(np.max(np.abs(profiles - _ring_values(oracle)))))

    probes = [truncate(monomial(0), degree), log_one_minus_inv(degree), members[0]]
    lams = (-1.0, -0.5 + 0.3j, -2.0)
    solutions = resolvent_semigroup(lams, probes)
    worst_semigroup = float(np.max(np.abs(resolvent_recurrence(lams, probes) - solutions)))
    backward = max(float(np.max(_backward_errors(v, f, probes))) for v, f in zip(lams, solutions))
    limit = 9 * (degree + 2) * 2.0**-53 * (1.0 + 1.0 / min(abs(v) for v in lams))
    ok = worst_integral <= 1e-8 and worst_semigroup <= 1e-6 and backward <= limit
    detail = f"integral vs oracle {worst_integral:.2e}; semigroup vs oracle {worst_semigroup:.2e}"
    return ok, f"{detail}; semigroup backward error {backward:.2e} (tolerance {limit:.2e})"


def check_resolvent_identity(degree: int) -> tuple[bool, str]:
    """(lam*I - C) applied to the solved resolvent reproduces h."""
    rng = np.random.default_rng(CORPUS_SEED)
    diag = 1.0 / np.arange(1, degree + 2)
    worst = 0.0
    for _, h in build_corpus(degree)[:20]:
        while True:
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            # keep a real spectral gap so the triangular solve stays
            # well-conditioned at the stated tolerance
            if abs(lam) >= 0.05 and np.min(np.abs(lam - diag)) >= 0.05:
                break
        # backward error: for Re(1/lam) > 1 the solution itself grows
        # polynomially in the degree, which is the scale rounding acts on
        worst = max(worst, float(_backward_errors(lam, resolvent_recurrence(lam, h), h)[0]))
    return worst <= 1e-12, f"max residual {worst:.2e}"


#: Multiplicative slack over the proved constants, absorbing the sampling
#: underestimate of circle maxima (applied on both sides of each bound).
INEQUALITY_SLACK = 1.0 + 1e-6


def imaginary_axis_constant(b: float) -> float:
    """1/|b| + exp(4*pi/|b|)/b**2: for lam = i*b it bounds the order-(k+1)
    weighted norm of the resolvent solution by the order-k norm of h."""
    return 1.0 / abs(b) + np.exp(4.0 * np.pi / abs(b)) / b**2


def check_norm_inequalities(degree: int) -> tuple[bool, str]:
    """Zero violations of the five proved norm bounds over the corpus.

    Only the right-hand sides, all of f, are computed in full, from one
    profile of f over the whole grid: a radial weight's norm is
    sup_r w(r) M(f, r), so each sup-norm of f is a row max of the weighted
    profile, the value :func:`weights.weighted_sup_norm` returns, and the
    growth estimate reads the profile radius by radius.  Each left-hand side
    is a threshold test: the clauses on one stack share one call of
    :func:`sup_norm_exceeds`, which transforms once each row that some
    clause's majorant cannot settle; the eight imaginary-axis lam are one
    solve, swept lam by lam.  The detail counts the clause rows certified.

    As the clauses read norms only as ratios, two anchors pin the scales, and
    each failure counts as a violation.  Sweep: the profile of ``const1`` reads
    exactly 1.0 at every radius, as every step is exact, and that of
    ``log-inv``, whose coefficients are nonnegative, is its value at theta =
    0, within the majorant's margin 64u (N+1+S) of the ``math.fsum`` of
    a_n r**n (S = ``SWEEP_SAMPLES``, u = 2**-53).  S_t: S_t 1 has coefficients
    a (1-a)**n, a = e**-t; row n of :func:`operators.s_t_rows` takes n
    products by fl(1-a), the closed form one power and one product, so the
    two agree within (N+2) u a.
    """
    corpus = build_corpus(degree)
    members = [f for _, f in corpus]
    one, log_inv = ([name for name, _ in corpus].index(n) for n in ("const1", "log-inv"))
    grid = default_radius_grid(degree)
    radii = grid[grid > 0]
    log_factor = -np.log1p(-radii) / radii
    continuity_const = 1.0 / (1.0 - 1.0 / np.e)
    counts = []  # (clause rows, rows transformed) of each threshold test
    profile_f = max_modulus_profile(members, grid)

    def norm(w):
        """f's sup-norm, one row per member, to broadcast against the rows."""
        return (weight_eval(w, grid) * profile_f).max(axis=1, keepdims=True)

    def exceeds(stack, tests, over=grid):
        """Each named ``(w, limit, divisor)`` test's verdict, from one sweep of ``stack``."""
        results = sup_norm_exceeds(stack, over, tests.values())
        counts.extend((len(members) * len(over), sampled) for _, sampled in results)
        return {name: exceeded for name, (exceeded, _) in zip(tests, results)}

    def violated(bad):
        """Member by member, the clauses whose flag in ``bad`` is set."""
        return [f"{name}:{c}" for i, (name, _) in enumerate(corpus) for c in bad if bad[c][i]]

    vw = {k: WeightSpec.log_power(k) for k in (1, 2, 3, 4)}
    norm_f = {k: norm(vw[k]) for k in (1, 2, 3)}
    cf = cesaro_apply(members)
    growth_limit = profile_f[:, grid > 0] * log_factor * INEQUALITY_SLACK
    bad = exceeds(cf, {"growth-estimate": (None, growth_limit, 1.0)}, over=radii)
    steps = ((vw[k + 1], continuity_const * norm_f[k] * INEQUALITY_SLACK, 1.0) for k in (1, 2, 3))
    bad |= exceeds(cf, dict(zip(("step-shift-k1", "step-shift-k2", "step-shift-k3"), steps)))
    norm_w1 = norm(WeightSpec.standard(1.0))
    for t in (0.0, 0.5, 0.9):
        ratio = INEQUALITY_SLACK / ((1.0 - t) * (1.0 - 1.0 / np.e))
        c_t = generalized_cesaro_apply(t, members)
        bad |= exceeds(c_t, {f"compact-route-t{t:g}": (vw[1], ratio, norm_w1)})
    bs = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 8.0, -8.0)
    for b, images in zip(bs, resolvent_recurrence(1j * np.array(bs), members)):
        rhs = imaginary_axis_constant(b) * norm_f[1] * INEQUALITY_SLACK
        bad |= exceeds(images, {f"imaginary-axis-b{b:g}": (vw[2], rhs, 1.0)})
    del images  # a view that would keep the whole (8, M, N+1) grid alive
    violations = violated(bad)
    u, n, anchors = 2.0**-53, np.arange(degree + 1), {}
    slack_norm = {k: norm_f[k] * INEQUALITY_SLACK for k in norm_f}
    for t in (0.1, 1.0, 5.0):
        st_f = s_t_apply(t, members)
        grew = {f"contraction-t{t:g}-k{k}": (vw[k], slack_norm[k], 1.0) for k in slack_norm}
        violations += violated(exceeds(st_f, grew))
        a = np.exp(-t)
        off = np.max(np.abs(st_f[one] - a * (1.0 - a) ** n)) > (degree + 2) * u * a
        anchors[f"const1:mobius-t{t:g}"] = off
    anchors["const1:profile-exact"] = not np.all(profile_f[one] == 1.0)
    sums = np.array([math.fsum(row) for row in members[log_inv].coeffs.real * grid[:, None] ** n])
    off = np.abs(profile_f[log_inv] - sums) > 64 * u * (degree + 1 + SWEEP_SAMPLES) * sums
    anchors["log-inv:profile-fsum"] = off.any()
    violations += [clause for clause, failed in anchors.items() if failed]
    detail = f"{len(corpus)} corpus members, {len(violations)} violations"
    if violations:
        detail += ": " + ", ".join(violations[:8])
    total, sampled = np.sum(counts, axis=0)
    detail += f"; {total - sampled:,} of {total:,} rows certified by the bound"
    return not violations, detail


def check_ergodic_dichotomy(degree: int) -> tuple[bool, str]:
    """Mean convergence with explicit limit at t = 0.5; drift at t = 1."""
    f = truncate(monomial(0), degree)
    v1 = WeightSpec.log_power(1)
    n_max = 256

    trace_half = iterate_trace(0.5, f, v1, n_max)
    errors = np.asarray(trace_half.projection_errors)
    decay_ok = errors[n_max - 1] <= 0.01 * errors[0]
    scaled = np.arange(1, n_max + 1) * errors
    rate_ok = np.max(scaled[31:]) <= 10.0 * scaled[31]

    trace_one = iterate_trace(1.0, f, v1, n_max)
    min_increment = min(trace_one.mean_increments)
    drift_ok = min_increment >= 1e-3

    # independent re-derivation of the running averages, watching only the
    # exactly preserved constant coordinate
    current = f.coeffs.copy()
    mean0 = 0.0 + 0.0j
    constant_ok = True
    for n in range(1, n_max + 1):
        current = generalized_cesaro_apply(1.0, Poly(current)).coeffs
        mean0 = mean0 + (current[0] - mean0) / n
        constant_ok &= bool(mean0 == 1.0)

    detail = (
        f"err(256)/err(1)={errors[n_max - 1] / errors[0]:.4f}, "
        f"max n*err / 32*err(32)={np.max(scaled[31:]) / scaled[31]:.2f}, "
        f"min drift increment={min_increment:.3e}, constant term exact={constant_ok}"
    )
    return bool(decay_ok and rate_ok and drift_ok and constant_ok), detail


def check_growth_classification() -> tuple[bool, str]:
    """Fitted growth orders for a log-growth and a standard-order-2 family."""
    degs = (128, 512, 2048)
    log_report = growth_classify([log_one_minus_inv(d) for d in degs])
    quad_report = growth_classify([Poly(np.arange(d + 1, dtype=complex)) for d in degs])
    ok = (
        0.8 <= log_report.log_order <= 1.2
        and 1.9 <= quad_report.standard_order <= 2.1
        and quad_report.divergence_flag
    )
    detail = (
        f"log family k-hat={log_report.log_order:.3f}; "
        f"order-2 family gamma-hat={quad_report.standard_order:.3f}, "
        f"divergence={quad_report.divergence_flag}"
    )
    return ok, detail


def check_finite_section_spectrum(degree: int) -> tuple[bool, str]:
    """Each dense section, applied to the stacked corpus, against the
    memory-t kernel: independent routes to the same image.

    Their difference is measured entry by entry against the sum bound |A||c|
    of the section A and the coefficients c.  Per term, in the real and the
    imaginary part apart, the section route rounds at most N + 3 times
    (N = degree: power, division, product, N additions), and the kernel
    3L + 1 <= 3N + 1 times in its L = ceil(log2(N+1)) doubling steps (an
    addition, a product and the power t**k each, then the division) or
    N + 1 times in its cumulative sum at t = 1, each by at most 2**-53: the
    tolerance 8 (N + 2) 2**-53 covers sqrt(2) (4N + 4) 2**-53.  The
    sections' deviation from diagonal 1/(n+1) and zeros above, exactly 0 as
    built, is held to the same tolerance.
    """
    members = poly_stack([f for _, f in build_corpus(degree)])
    tolerance = 8 * (degree + 2) * 2.0**-53
    worst = shape = 0.0
    for t in SECTION_T_VALUES:
        section = operators.finite_section(t, degree)
        kernel = generalized_cesaro_apply(t, members)
        error = np.abs(stack_product(section, members) - kernel)
        bound = stack_product(np.abs(section), np.abs(members))
        worst = max(worst, float(np.max(error / np.maximum(bound, np.finfo(float).tiny))))
        shape = max(shape, section_shape_error(section))
    detail = (
        f"section x corpus vs memory-t kernel: max error / sum bound {worst:.2e}, tolerance "
        f"{tolerance:.2e}; max deviation from diagonal 1/(n+1), zero above: {shape:.2e}"
    )
    return worst <= tolerance and shape <= tolerance, detail


#: Each check's runtime budget in seconds, and the check called at a
#: degree.  The lambdas look each ``check_*`` up when called, so a check
#: rebound in this module is the one that runs.
SUITES = {
    "eigen-cesaro": (1.0, lambda degree: check_eigen_cesaro(degree)),
    "eigen-ct": (1.0, lambda degree: check_eigen_ct(degree)),
    "inverse-roundtrip": (1.0, lambda degree: check_inverse_roundtrip(degree)),
    "log-power-identity": (1.0, lambda degree: check_log_power_identity()),
    "resolvent-routes": (30.0, lambda degree: check_resolvent_routes()),
    "resolvent-identity": (1.0, lambda degree: check_resolvent_identity(degree)),
    "norm-inequalities": (60.0, lambda degree: check_norm_inequalities(degree)),
    "ergodic-dichotomy": (30.0, lambda degree: check_ergodic_dichotomy(degree)),
    "growth-classification": (30.0, lambda degree: check_growth_classification()),
    "finite-section-spectrum": (1.0, lambda degree: check_finite_section_spectrum(degree)),
}


#: Smallest degree at which every check runs: ``eigen-cesaro``'s last
#: shifted pole (n = 8) needs it, ``eigen-ct`` (m up to 5) and the corpus
#: (degree 4) need less, and at degree 0 ``ergodic-dichotomy`` prints NaN.
DEGREE_FLOOR = 7


def suite_names(suite: str) -> list:
    """The name of one check or, for ``all``, of every check in order; an
    unknown suite is refused."""
    if suite == "all":
        return list(SUITES)
    if suite in SUITES:
        return [suite]
    raise ValueError(f"unknown suite {suite!r}; choose from all, " + ", ".join(SUITES))


def run_suite(suite: str, degree: int):
    """Run the checks of :func:`suite_names` in order at ``degree`` as an int
    and return their results; a degree that is not an integer in
    ``DEGREE_FLOOR``..``ST_DEGREE_CAP`` is refused before any check runs.  A
    check passes only if its verdict holds and it returned within its
    budget; its detail ends with its runtime."""
    degree = require_count(degree, "degree", DEGREE_FLOOR, ST_DEGREE_CAP)
    results = []
    for name in suite_names(suite):
        budget, check = SUITES[name]
        start = time.perf_counter()
        ok, detail = check(degree)
        runtime = time.perf_counter() - start
        in_budget = runtime <= budget
        extra = "" if in_budget else f"; exceeded {budget:g} s budget"
        detail = f"{detail} [{runtime:.2f} s{extra}]"
        results.append(CheckResult(name, bool(ok and in_budget), runtime, detail))
    return results
