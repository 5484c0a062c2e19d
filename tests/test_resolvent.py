import functools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cesaro_lab import resolvent, series
from cesaro_lab.operators import ST_DEGREE_CAP, build_corpus, cesaro_apply
from cesaro_lab.resolvent import (
    SAMPLE_ANGLES,
    SAMPLE_RADII,
    START_CAP,
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
)
from cesaro_lab.series import Poly, horner_eval, log_one_minus_inv, monomial
from cesaro_lab.series import poly_stack, truncate
from cesaro_lab.verify import _ring_values

from oracles import allocating_recurrence, decimal_ring_values, exact_recurrence, exact_ring_points
from oracles import plain_semigroup, point_offsets, traced_peak

#: Unit roundoff.
U = 2.0**-53


#: The four lam of the resolvent-routes check's integral comparison.
ROUTE_LAMS = np.array([1j, 2j, -1 + 1j, 3.0])

#: Left half-plane lam: the check's three semigroup lam, near 0, far out and
#: near the imaginary axis.
LEFT_LAMS = np.array([-1.0, -0.5 + 0.3j, -2.0, -1e-3, -100.0, -1e-6 + 1j, -1e-9 + 1e-3j])


def bits(a):
    """The int64 view of a complex array, copied to C order if need be."""
    return np.ascontiguousarray(a).view(np.int64)


def oracle_stack(degree=128):
    """The 62 corpus members at ``degree``, zero-padded to 4 ``degree`` as
    in the resolvent-routes oracle."""
    members = poly_stack([h for _, h in build_corpus(degree)])
    return np.pad(members, ((0, 0), (0, 3 * degree)))


def route_probes(degree):
    """The three semigroup probes of the resolvent-routes check."""
    return [truncate(monomial(0), degree), log_one_minus_inv(degree), build_corpus(degree)[0][1]]


def cpu_per_wall(run, seconds=0.25):
    """Process CPU seconds per wall second over about ``seconds`` of
    repeated calls, after one warm-up call.

    A complex matrix product wakes the BLAS worker threads, which spin on
    the other cores: about 2 CPU seconds per wall second on two cores,
    against about 1 for products kept single-threaded by their shape.
    """
    run()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while time.perf_counter() - wall0 < seconds:
        run()
    return (time.process_time() - cpu0) / (time.perf_counter() - wall0)


def assert_refused_before_any_table(lam, h, match, zs=None):
    """The integral route refuses the call with a ValueError that matches
    ``match`` before it allocates the bytes of one z**k table."""
    zs = off_cut_sample_points() if zs is None else zs

    def refused():
        with pytest.raises(ValueError, match=match):
            resolvent_integral_profile(lam, h, zs)

    _, peak = traced_peak(refused)
    assert peak < poly_stack(h).shape[1] * zs.size * 16


coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=24,
)


#: lam near the diagonal values 1/3, 1/100, 1/500 and 1/7, which are not
#: binary fractions, and near 1/2, which is; then lam away from them all.
NEAR_DIAGONAL_LAMS = [
    1 / 3 + 2e-12, 1 / 3 + 1e-10, 1 / 3 + 1e-6, 1 / 3 + 5e-12j, 1 / 100 + 3e-12,
    1 / 500 + 2e-12, 1 / 7 + 1e-11, 1 / 2 + 3e-12,
]
OFF_DIAGONAL_LAMS = [1j, -1 + 1j, 3.0, 0.02j, -0.002, 0.05 + 0.05j]


def recurrence_forward_bound(lam, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The forward bound of ``resolvent_recurrence``'s docstring on each
    coefficient, from h and the computed solution f: (d_{n-1}/(n+1) + t_n)
    / |g_n| with t_n = 18u (|h_n| + |S_{n-1}|/(n+1)) and d_n =
    |1 + 1/((n+1) g_n)| d_{n-1} + t_n/|g_n| + u |S_n|."""
    sums = np.abs(np.cumsum(f))
    bound = np.empty(f.size)
    carried = previous = 0.0  # d_{n-1} and |S_{n-1}|
    for n in range(f.size):
        k, gap = n + 1, lam - 1.0 / (n + 1)
        local = 18 * U * (abs(h[n]) + previous / k)
        bound[n] = (carried / k + local) / abs(gap)
        carried = abs(1 + 1 / (k * gap)) * carried + local / abs(gap) + U * sums[n]
        previous = sums[n]
    return bound


class TestRecurrence:
    @pytest.mark.parametrize("lam", NEAR_DIAGONAL_LAMS + OFF_DIAGONAL_LAMS)
    def test_within_its_forward_bound_of_the_exact_solve(self, lam):
        # the exact solve is of the same recurrence at the same double lam;
        # with gaps lam - fl(1/k) the route was off by 9.25e-6 relative at
        # 1/3 + 2e-12, 1e8 times its bound.  The bound itself stays within
        # 6e-12 of max|f| at all fourteen lam
        h = truncate(monomial(0), 512).coeffs
        exact = exact_recurrence(lam, h)
        f = resolvent_recurrence(lam, Poly(h)).coeffs
        bound = recurrence_forward_bound(lam, h, f)
        assert np.all(np.abs(f - exact) <= bound)
        assert np.max(bound) <= 1e-11 * np.max(np.abs(f))

    def test_degree_held_to_the_split_cap(self, monkeypatch):
        # Dekker's split is exact up to degree 2**27 - 1, which a test cannot
        # allocate: at a cap of 8, degree 9 is refused before the loop
        assert resolvent.SPLIT_DEGREE_CAP == 2**27 - 1
        monkeypatch.setattr(resolvent, "SPLIT_DEGREE_CAP", 8)
        with pytest.raises(ValueError, match="^input degree 9 exceeds the cap 8$"):
            resolvent_recurrence(1j, truncate(monomial(0), 9))
        assert resolvent_recurrence(1j, truncate(monomial(0), 8)).degree == 8

    def test_hand_computed_steps(self):
        # f0 = 1 / (lam - 1); f1 = (f0 / 2) / (lam - 1/2), both at lam = -1
        f = resolvent_recurrence(-1.0, truncate(monomial(0), 3))
        f0 = 1.0 / (-1.0 - 1.0)
        f1 = (f0 / 2.0) / (-1.0 - 0.5)
        assert f0 == -0.5 and f1 == pytest.approx(1 / 6)
        np.testing.assert_allclose(f.coeffs[:2], [f0, f1], rtol=1e-15)

    def test_zero_rhs(self):
        f = resolvent_recurrence(2.0, Poly(np.zeros(6)))
        assert np.array_equal(f.coeffs, np.zeros(6))

    @given(coeff_lists)
    @settings(max_examples=60)
    def test_defining_identity(self, c):
        h = Poly(c)
        for lam in (2.0, -1.0, 1j):
            f = resolvent_recurrence(lam, h)
            residual = lam * f.coeffs - cesaro_apply(f).coeffs - h.coeffs
            scale = abs(lam) * np.max(np.abs(f.coeffs)) + np.max(np.abs(h.coeffs)) + 1
            assert np.max(np.abs(residual)) <= 1e-12 * scale

    def test_rejects_near_diagonal(self):
        with pytest.raises(ValueError, match="^lam within 1e-12 of diagonal value 1/3$"):
            resolvent_recurrence(1.0 / 3 + 1e-13, Poly(np.ones(8)))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resolvent_recurrence(0.0, Poly([1]))

    def test_lambda_array_matches_single_calls(self):
        # the spectral sweep's grid at degree 128
        axis = np.linspace(-2.0, 2.0, 17)
        diagonal = 1.0 / np.arange(1, 130)
        lams = [
            lam
            for lam in (complex(re, im) for re in axis for im in axis)
            if abs(lam) > 1e-6 and np.min(np.abs(lam - diagonal)) > 1e-6
        ]
        for h in (truncate(monomial(0), 128), log_one_minus_inv(128)):
            solved = resolvent_recurrence(np.array(lams), h)
            for lam, f in zip(lams, solved, strict=True):
                assert np.array_equal(f, resolvent_recurrence(lam, h).coeffs), lam

    def test_stack_matches_single_calls(self):
        members = [h for _, h in build_corpus(128)]
        for lam in (1j, -1.0, 3.0):
            solved = resolvent_recurrence(lam, members)
            assert isinstance(solved, np.ndarray) and solved.flags.c_contiguous
            for f, h in zip(solved, members, strict=True):
                assert np.array_equal(f, resolvent_recurrence(lam, h).coeffs)

    def test_stacked_oracle_matches_per_member_oracle(self):
        # recurrence stacks at degree 512, as in the resolvent-routes oracle,
        # then Horner
        members = [truncate(h, 512) for _, h in build_corpus(128)[::3]]
        zs = off_cut_sample_points()
        for lam in (1j, 2j, -1 + 1j, 3.0):
            stacked = horner_eval(resolvent_recurrence(lam, members), zs)
            for row, h in zip(stacked, members, strict=True):
                assert np.array_equal(row, horner_eval(resolvent_recurrence(lam, h), zs))

    def test_matches_allocating_loop_bitwise(self):
        # 144 lam on one Poly, as in the spectral sweep, and the 62-member stack
        axis = np.linspace(-2.0, 2.0, 12)
        lams = np.array([complex(re, im) for re in axis for im in axis])
        members = [h for _, h in build_corpus(512)]
        for lam, h in [(lams, log_one_minus_inv(512))] + [(lam, members) for lam in (1j, -1.0, 3.0)]:
            got, want = resolvent_recurrence(lam, h), allocating_recurrence(lam, h)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), lam

    def test_lambda_array_refuses_diagonal_value(self):
        h = Poly(np.ones(8))
        with pytest.raises(ValueError, match="diagonal value 1/3"):
            resolvent_recurrence(np.array([2.0, 1.0 / 3 + 1e-13, -1.0]), h)
        with pytest.raises(ValueError, match="nonzero"):
            resolvent_recurrence(np.array([1j, 0.0]), h)
        with pytest.raises(ValueError, match="^lam must be a number or a non-empty array$"):
            resolvent_recurrence(np.array([]), h)
        # an array of lam with a stack is a grid, not a refusal
        assert resolvent_recurrence(np.array([1j, 2j]), [h, h]).shape == (2, 2, 8)

    @pytest.mark.parametrize("lams", [ROUTE_LAMS, LEFT_LAMS], ids=["route", "left"])
    def test_grid_matches_allocating_loop_bitwise(self, lams):
        # the resolvent-routes oracle's grid at degree 512: against the
        # allocating loop, each lam's call on the stack and each single call
        stack = oracle_stack()
        grid = resolvent_recurrence(lams, stack)
        assert grid.shape == (len(lams),) + stack.shape
        assert np.array_equal(bits(grid), bits(allocating_recurrence(lams, stack)))
        for lam, rows in zip(lams, grid, strict=True):
            assert np.array_equal(bits(rows), bits(resolvent_recurrence(lam, stack))), lam
            for row, h in zip(rows, stack, strict=True):
                assert np.array_equal(bits(row), bits(resolvent_recurrence(lam, Poly(h)).coeffs))

    @pytest.mark.parametrize("where", [0, 2, 3])
    def test_grid_refuses_a_diagonal_lambda_anywhere(self, where):
        lams = list(ROUTE_LAMS)
        lams[where] = 1.0 / 3 + 1e-13
        named = rf"diagonal value 1/3 \(lam\[{where}\] = 0\.333333\+0j\)"
        with pytest.raises(ValueError, match=named):
            resolvent_recurrence(np.array(lams), oracle_stack(16))
        lams[where] = 1e-13j
        with pytest.raises(ValueError, match=rf"nonzero \(lam\[{where}\] = 0\+1e-13j\)"):
            resolvent_recurrence(np.array(lams), oracle_stack(16))

    def test_grid_holds_one_work_array(self):
        # the (N+1, L, M) work array, and the grid is a view of it: with the
        # transposed stack about 1.25 grids at the oracle's 4 x 62 x 513
        stack = oracle_stack()
        grid, peak = traced_peak(lambda: resolvent_recurrence(ROUTE_LAMS, stack))
        assert peak <= 2 * grid.size * 16


class TestSamplePoints:
    def test_count_and_rings(self):
        zs = off_cut_sample_points()
        assert zs.size == 100
        assert np.allclose(np.sort(np.unique(np.round(np.abs(zs), 12))), [0.5, 0.8])

    def test_none_on_cut(self):
        zs = off_cut_sample_points()
        assert not np.any((zs.imag == 0) & (zs.real <= 0))

    def test_match_the_former_formula_bitwise(self):
        theta = -np.pi + (np.arange(50) + 0.5) * (2.0 * np.pi / 50)
        former = np.concatenate([r * np.exp(1j * theta) for r in (0.5, 0.8)])
        assert np.array_equal(off_cut_sample_points().view(np.int64), former.view(np.int64))

    def test_within_the_stated_offset_of_the_exact_points(self):
        # the 6.6e-16 that the resolvent-routes docstrings state; at most
        # 1.85 ulps of each point's angle
        zs = off_cut_sample_points()
        assert max_point_offset() <= 6.6e-16
        assert np.all(point_offsets(zs, ring_points()) <= 1.85 * np.spacing(np.pi) * np.abs(zs))


@functools.cache
def ring_points():
    return exact_ring_points(SAMPLE_RADII, SAMPLE_ANGLES)


@functools.cache
def max_point_offset():
    return float(np.max(point_offsets(off_cut_sample_points(), ring_points())))


def ring_bound(stack):
    """The two terms of the ring oracle's stated error, per member and
    sample point: (F + 30) u sum_n |c_n| r**n at the exact point and the
    points' offset times sum_n n |c_n| r**(n-1); and sum_n |c_n| r**n."""
    r = np.abs(off_cut_sample_points())
    n = np.arange(stack.shape[1])
    size = np.abs(stack) @ r ** n[:, None]
    slope = (n * np.abs(stack)) @ r ** np.maximum(n - 1, 0)[:, None]
    folds = -(-n.size // SAMPLE_ANGLES)
    return (folds + 30) * U * size, max_point_offset() * slope, size


def route_oracles():
    """The resolvent-routes check's oracle stacks: the recurrence at degree
    512 for the 62 corpus members of degree 128, at each of its four lam."""
    members = [truncate(h, 512) for _, h in build_corpus(128)]
    return [resolvent_recurrence(lam, members) for lam in ROUTE_LAMS]


class TestRingOracle:
    """``verify._ring_values``, one folded FFT per ring of sample points."""

    def test_values_of_z_are_the_sample_points(self):
        # within 2 ulps of each point's angle, a double in [-pi, pi]
        zs = off_cut_sample_points()
        got = _ring_values(np.array([[0.0, 1.0]], dtype=complex))[0]
        assert np.all(np.abs(got - zs) <= 2 * np.spacing(np.pi) * np.abs(zs))

    def test_within_the_arithmetic_term_at_the_exact_points(self):
        # against 45-digit Horner sums: measured up to 2.7 u sum |c_n| r**n
        oracles = route_oracles()
        for oracle in (oracles[0], oracles[3]):
            got = _ring_values(oracle)
            arithmetic = ring_bound(oracle)[0]
            for i in (0, 50, 58):  # random-00, const1, e4
                want = decimal_ring_values(oracle[i], ring_points())
                assert np.all(np.abs(got[i] - want) <= arithmetic[i])

    def test_agrees_with_horner_within_the_two_term_bound(self):
        # each side within its own stated bound of the value at the double
        # points: the two terms here, Horner's 4 N u there
        zs = off_cut_sample_points()
        for oracle in route_oracles():
            got = _ring_values(oracle)
            arithmetic, rounding, size = ring_bound(oracle)
            bound = arithmetic + rounding + 4 * 512 * U * size
            assert np.all(np.abs(got - horner_eval(oracle, zs)) <= bound)

    def test_stacked_row_equals_its_own_call(self):
        for oracle in route_oracles():
            stacked = _ring_values(oracle)
            for row, c in zip(stacked, oracle, strict=True):
                assert np.array_equal(row, _ring_values(c[None])[0])

    @pytest.mark.parametrize(
        "degree", [0, SAMPLE_ANGLES - 2, SAMPLE_ANGLES - 1, SAMPLE_ANGLES, 2 * SAMPLE_ANGLES + 7]
    )
    def test_degrees_around_the_fold_length(self, degree):
        # one partial fold, one full fold, then two and three folds with a
        # partial last one
        rng = np.random.default_rng(degree)
        stack = rng.standard_normal((3, degree + 1)) + 1j * rng.standard_normal((3, degree + 1))
        got = _ring_values(stack)
        assert got.shape == (3, 2 * SAMPLE_ANGLES)
        if degree == 0:
            assert np.array_equal(got, np.repeat(stack, 2 * SAMPLE_ANGLES, axis=1))
        arithmetic, rounding, size = ring_bound(stack)
        bound = arithmetic + rounding
        zs = off_cut_sample_points()
        assert np.all(np.abs(got - horner_eval(stack, zs)) <= bound + 4 * degree * U * size)


class TestIntegralRoute:
    def test_matches_recurrence_constant_rhs(self):
        h = truncate(monomial(0), 32)
        oracle = resolvent_recurrence(1j, truncate(h, 256))
        z = 0.4 + 0.2j
        assert abs(resolvent_integral_profile(1j, h, z)[0] - horner_eval(oracle, z)) <= 1e-8

    def test_matches_recurrence_linear_rhs(self):
        h = truncate(monomial(1), 32)
        oracle = resolvent_recurrence(-1.0, truncate(h, 256))
        z = 0.5
        assert abs(resolvent_integral_profile(-1.0, h, z)[0] - horner_eval(oracle, z)) <= 1e-8

    def test_zero_rhs(self):
        vals = resolvent_integral_profile(1j, Poly(np.zeros(8)), off_cut_sample_points())
        assert np.max(np.abs(vals)) == 0.0

    def test_profile_agreement_random(self):
        rng = np.random.default_rng(23)
        h = Poly(rng.normal(size=33) + 1j * rng.normal(size=33))
        zs = off_cut_sample_points()
        for lam in (1j, 2j, -1 + 1j, 3.0):
            oracle = resolvent_recurrence(lam, truncate(h, 256))
            got = resolvent_integral_profile(lam, h, zs)
            assert np.max(np.abs(got - horner_eval(oracle, zs))) <= 1e-8

    def test_rejects_points_on_cut_or_outside(self):
        h = truncate(monomial(0), 8)
        on_cut = r"^evaluation points must avoid the cut \(-1, 0\]$"
        with pytest.raises(ValueError, match=on_cut):
            resolvent_integral_profile(1j, h, -0.5)
        with pytest.raises(ValueError, match=on_cut):
            resolvent_integral_profile(1j, h, 0.0)
        # a NaN point is not inside the disc either
        outside = "^evaluation points must lie inside the unit disc$"
        for points in (1.2, [0.5, np.nan]):
            with pytest.raises(ValueError, match=outside):
                resolvent_integral_profile(1j, h, points)
        # no point, or a 2-d array of points: refused before any table is built
        shape = "^evaluation points must be a number or a non-empty 1-d array$"
        for points in ([], np.full((1, 1), 0.5)):
            with pytest.raises(ValueError, match=shape):
                resolvent_integral_profile(1j, Poly([1, 1]), points)

    def test_rejects_vanishing_order_violation(self):
        # Re(1/lam) - 1 = 1.5 for lam = 0.4, so a nonzero constant term fails
        with pytest.raises(ValueError):
            resolvent_integral_profile(0.4, truncate(monomial(0), 8), 0.5)

    def test_order_condition_admits_shifted_rhs(self):
        # Re(1/lam) = 2.5: the terms grow like n**1.5 |z|**n before they
        # decay, so the recurrence starts past their peak
        h = truncate(monomial(2), 32)
        value = resolvent_integral_profile(0.4, h, 0.5)[0]
        oracle = horner_eval(resolvent_recurrence(0.4, truncate(h, 512)), 0.5)
        assert abs(value - oracle) <= 1e-8

    def test_quadrature_leaves_blas_threads_asleep(self):
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        assert cpu_per_wall(lambda: resolvent_integral_profile(1j, members, zs)) <= 1.5

    def test_stack_matches_single_calls(self):
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        stacked = resolvent_integral_profile(3.0, members, zs)
        assert stacked.shape == (len(members), zs.size)
        singles = [resolvent_integral_profile(3.0, h, zs) for h in members]
        assert np.array_equal(bits(stacked), bits(np.array(singles)))

    def test_stack_refused_whole_for_one_vanishing_order_violation(self):
        # at lam = 0.4 only the constant member breaks the order condition
        stack = [truncate(monomial(m), 16) for m in (2, 3, 0, 4)]
        with pytest.raises(ValueError, match="vanishing order"):
            resolvent_integral_profile(0.4, stack, 0.5)
        with pytest.raises(ValueError, match="one degree"):
            resolvent_integral_profile(1j, [monomial(0), monomial(1)], 0.5)

    def test_lambda_rows_match_single_calls_bitwise(self):
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        stacked = resolvent_integral_profile(ROUTE_LAMS, members, zs)
        single = resolvent_integral_profile(ROUTE_LAMS, members[7], zs)
        for lam, rows, row in zip(ROUTE_LAMS, stacked, single, strict=True):
            assert np.array_equal(rows, resolvent_integral_profile(lam, members, zs)), lam
            assert np.array_equal(row, resolvent_integral_profile(lam, members[7], zs)), lam

    def test_lambda_array_refused_whole_before_quadrature(self):
        h = truncate(monomial(0), 2048)
        # Re(1/lam) - 1 = 1.5 at lam = 0.4 only, which a constant term breaks
        assert_refused_before_any_table(np.array([1j, 2j, 0.4, 3.0]), h, "vanishing order")
        assert_refused_before_any_table([1j, 0.4], [truncate(monomial(2), 2048), h], "vanishing order")
        assert_refused_before_any_table(np.array([1j, 0.0]), h, "nonzero")
        # the refused lam of an array is named, as in the other two routes
        named = r"vanishing order of h to exceed Re\(1/lam\) - 1 \(lam\[1\] = 0\.4\+0j\)$"
        assert_refused_before_any_table([1j, 0.4], h, named)
        assert_refused_before_any_table(np.array([1j, 0.0]), h, r"nonzero \(lam\[1\] = 0\+0j\)$")
        assert_refused_before_any_table(0.0, h, "nonzero$")
        assert_refused_before_any_table(np.array([1j, complex(np.nan, 0)]), h, "finite")
        assert_refused_before_any_table(np.array([]), h, "^lam must be a number or a non-empty")

    def test_start_past_its_cap_refused_before_any_table(self):
        h = truncate(monomial(0), 2048)
        lams = np.array([1j, -1.0])
        # at Re(1/lam) <= 1 the start lies ceil(53 ln 2 / ln(1/max|z|)) + 8
        # terms past the degree: 36,727 at 0.999, 4,582 at 0.992
        for z in (0.999, 0.992, 0.992j):
            zs = np.append(off_cut_sample_points(), z)
            assert_refused_before_any_table(lams, h, f"more than START_CAP = {START_CAP}", zs)
        # 4,072 at 0.991, which goes on to its tables
        zs = np.append(off_cut_sample_points(), 0.991)
        _, peak = traced_peak(lambda: resolvent_integral_profile(lams, h, zs))
        assert peak > 2049 * zs.size * 16
        # at Re(1/lam) = 30.9 the terms grow like n**29.9 |z|**n first: at
        # 0.95 the start lies 2,022 terms out, at 0.98 past the cap
        lam = 1.0 / (30.9 + 0.2j)
        h = truncate(monomial(30), 30)
        with pytest.raises(ValueError, match="START_CAP"):
            resolvent_integral_profile(lam, h, 0.98)
        assert np.isfinite(resolvent_integral_profile(lam, h, 0.95)).all()

    def test_degree_past_the_cap_refused_before_any_table(self):
        # each table takes 1.6 kB per degree at the 100 sample points, so an
        # input's degree is held to ST_DEGREE_CAP, as the ergodic trace's is
        past = truncate(monomial(0), ST_DEGREE_CAP + 1)
        assert_refused_before_any_table(1j, past, f"degree {ST_DEGREE_CAP + 1} exceeds the cap")
        at_cap = truncate(monomial(0), ST_DEGREE_CAP)
        assert np.isfinite(resolvent_integral_profile(1j, at_cap, off_cut_sample_points())).all()

    def test_lambda_array_leaves_blas_threads_asleep(self):
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        assert cpu_per_wall(lambda: resolvent_integral_profile(ROUTE_LAMS, members, zs)) <= 1.5

    def test_lambda_array_builds_its_kernel_in_place(self):
        # in units of one (N+1) x 100 points x 16 bytes table, 206 kB at
        # degree 128: the z**k table and the z**k g_k rows, one each;
        # stack_product's real rows over imaginary rows (one together);
        # the stack (0.63); the values of four lam, in a list and then as
        # one array (3.9).  About 7.5 in all
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        _, peak = traced_peak(lambda: resolvent_integral_profile(ROUTE_LAMS, members, zs))
        assert peak < 8 * 129 * zs.size * 16

    def test_moment_form_makes_no_horner_calls(self, monkeypatch):
        calls = []

        def counting(p, z):
            calls.append(p.degree)
            return horner_eval(p, z)

        monkeypatch.setattr(series, "horner_eval", counting)
        monkeypatch.setattr(resolvent, "horner_eval", counting, raising=False)
        members = [h for _, h in build_corpus(32)]
        resolvent_integral_profile(1j, members, off_cut_sample_points())
        assert calls == []


def assert_within_long_oracle(lam, h, zs):
    """The integral route against the recurrence solved at degree 4096 and
    evaluated by ``horner_eval``, within 1e-8 max(1, max|f|)."""
    want = horner_eval(resolvent_recurrence(lam, truncate(h, 4096)), zs)
    got = resolvent_integral_profile(lam, h, zs)
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want))), lam


class TestIntegralRouteAnswersOrRefuses:
    """The regimes that a fixed integration rule gets wrong without a word:
    lam near 0 along the imaginary axis, where (1-z)**-mu and
    (1 - tau z)**(mu-1) overflow and cancel; near 0 on the negative axis;
    and near the order condition's edge, where the integrand hardly decays
    (|f| is 21 at 1/(0.95 + 0.2i))."""

    @pytest.mark.parametrize(
        "lam",
        [0.02j, 0.01j, 1e-6j, -0.002, -1e-6, pytest.param(1.0 / (0.95 + 0.2j), id="1/(0.95+0.2j)")],
    )
    def test_constant_rhs(self, lam):
        assert_within_long_oracle(lam, truncate(monomial(0), 16), off_cut_sample_points())

    def test_linear_rhs_near_the_edge(self):
        lam = 1.0 / (1.9 + 0.2j)  # |f| is 247
        assert_within_long_oracle(lam, truncate(monomial(1), 16), off_cut_sample_points())

    @pytest.mark.parametrize("order", [10, 20, 30])
    def test_growing_terms_move_the_start_past_their_peak(self, order):
        # Re(1/lam) = order + 0.99: the terms grow like n**(order - 0.01)
        # |z|**n, and a start 173 terms past the degree would be 3.7e-8 off
        # at order 10 and 7.6e-2 at order 30, relative to max|f|
        h = truncate(monomial(order), order)
        zs = np.array([0.3 + 0.3j, 0.5, 0.8, 0.8j, 0.9])
        assert_within_long_oracle(1.0 / (order + 0.99 + 0.2j), h, zs)

    def test_stops_at_the_vanishing_order(self):
        # at lam = 1/2 the divisor 1 - 2/(k+1) vanishes at k = 1, below the
        # order 2 of h = z**2; f = z**2 (2 + (4 - 2z)/(1 - z)**2) in closed form
        zs = np.array([0.5, 0.3 + 0.3j])
        got = resolvent_integral_profile(0.5, monomial(2), zs)
        want = zs**2 * (2 + (4 - 2 * zs) / (1 - zs) ** 2)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert abs(want[0] - 3.5) <= 1e-15
        assert abs(want[1] - (-0.63567182 + 1.22254459j)) <= 1e-8

    def test_right_or_refused_on_either_side_of_the_diagonal_bound(self):
        # h = z**2 has v = 2, so near lam = 1/3 the bound 4u|mu|/|3 - mu|
        # passes 1e-8 within 1.48e-8 of 1/3; at 1/3 + 1e-10 the route once
        # answered 1.85e-7 off
        h, zs = truncate(monomial(2), 256), off_cut_sample_points()
        refusal = "for the integral route: its error bound"
        for delta in (1e-10, 1e-8, 1.4e-8):
            assert_refused_before_any_table(1 / 3 + delta, h, refusal)
        named = r"^lam = 0\.333333333433\+0j is too near the diagonal value 1/3 "
        assert_refused_before_any_table([1j, 1 / 3 + 1e-10], h, named)
        for delta in (1.6e-8, 1e-6, 1e-6j):
            lam = 1 / 3 + delta
            want = horner_eval(resolvent_recurrence(lam, truncate(h, 1024)), zs)
            got = resolvent_integral_profile(lam, h, zs)
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want)), lam

    @pytest.mark.parametrize("regime", ["zero", "axis", "edge"])
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_lambda_meets_the_tolerance_or_is_refused(self, regime, a, b, order, sign):
        if regime == "zero":  # |lam| log-uniform in [1e-14, 0.1], Re lam <= 0.1 |lam|
            angle = np.pi / 2 - 0.1 + (np.pi + 0.2) * b
            lam = 10.0 ** (-14 + 13 * a) * np.exp(1j * angle)
        elif regime == "axis":  # |Im lam| in [1e-3, 10], |Re lam| / |Im lam| in [1e-9, 1]
            im = 10.0 ** (-3 + 4 * a) * (1 if b < 0.5 else -1)
            lam = complex(sign * 10.0 ** (-9 + 18 * abs(b - 0.5)) * abs(im), im)
        else:  # Re(1/lam) - 1 within 10**-6 .. 1 of the order, either side
            lam = 1.0 / complex(order + 1 - sign * 10.0 ** (-6 + 6 * a), 6 * b - 3)
        rng = np.random.default_rng(order)
        h = Poly(np.concatenate([np.zeros(order), rng.normal(size=129 - order)]))
        zs = off_cut_sample_points()
        if abs(lam) >= 1e-12 and order > (1.0 / lam).real - 1:
            want = horner_eval(resolvent_recurrence(lam, truncate(h, 512)), zs)
            got = resolvent_integral_profile(lam, h, zs)
            assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want))), lam
        else:
            with pytest.raises(ValueError):
                resolvent_integral_profile(lam, h, zs)


def assert_within_semigroup_bound(lam, stack):
    """The semigroup route against the recurrence, member by member, within
    twice the first-order bound 24 (N+1)**2 u max|f| that the route's
    docstring derives at degree N, u = 2**-53."""
    got = resolvent_semigroup(lam, stack)
    want = resolvent_recurrence(lam, stack)
    bound = 48 * want.shape[1] ** 2 * 2.0**-53
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= bound * np.max(np.abs(w)), lam


class TestSemigroupRoute:
    @pytest.mark.parametrize("lam", [-1.0, -0.5 + 0.3j, -2.0])
    def test_beta_function_oracle(self, lam):
        # the route's Beta sum on the three probes of the resolvent-routes
        # check, at its degree 128, against the triangular recurrence
        assert_within_semigroup_bound(lam, route_probes(128))

    def test_matches_recurrence_constant(self):
        assert_within_semigroup_bound(-1.0, [truncate(monomial(0), 32)])

    def test_matches_recurrence_random(self):
        rng = np.random.default_rng(31)
        h = Poly(rng.normal(size=33) + 1j * rng.normal(size=33))
        for lam in (-1.0, -0.5 + 0.3j, -2.0):
            assert_within_semigroup_bound(lam, [h])

    @pytest.mark.parametrize(
        "lam", [-1e-3, -1e-6, -1e-9, -1e-11, -1e-12, -100.0, -1e3, -1e-6 + 1j, -1e-9 + 1e-3j]
    )
    def test_near_zero_far_out_and_near_the_axis(self, lam):
        # near 0 the terms h_n/lam and T_n/lam are large, far out the Beta
        # ratios n/(n - mu) are near 1, near the axis they hardly shrink
        assert_within_semigroup_bound(lam, route_probes(128))

    @given(
        st.floats(min_value=-9.0, max_value=3.0),
        st.floats(min_value=-np.pi / 2, max_value=np.pi / 2),
        st.integers(min_value=8, max_value=512),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_left_half_plane_lambda_meets_the_bound(self, exponent, angle, degree, seed):
        # |lam| log-uniform in [1e-9, 1e3], arguments up to the imaginary axis
        lam = -(10.0**exponent) * np.exp(1j * angle)
        assume(lam.real < 0)
        rng = np.random.default_rng(seed)
        randoms = rng.normal(size=(2, degree + 1)) + 1j * rng.normal(size=(2, degree + 1))
        assert_within_semigroup_bound(lam, route_probes(degree) + [Poly(c) for c in randoms])

    def test_zero_rhs(self):
        out = resolvent_semigroup(-1.0, Poly(np.zeros(6)))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_rejects_nonnegative_real_part(self):
        with pytest.raises(ValueError, match="^semigroup route needs Re lam < 0$"):
            resolvent_semigroup(0.5, Poly([1]))
        with pytest.raises(ValueError, match="^semigroup route needs Re lam < 0$"):
            resolvent_semigroup(1j, Poly([1]))

    def test_refuses_lambda_below_the_guard_like_the_other_routes(self):
        # one refusal for |lam| < 1e-12, with one message, on every route
        h = truncate(monomial(0), 4)
        routes = (
            resolvent_semigroup,
            resolvent_recurrence,
            lambda lam, h: resolvent_integral_profile(lam, h, off_cut_sample_points()),
        )
        for lam in (0.0, -1e-13, -1e-13 + 1e-14j, 1e-13j):
            for route in routes:
                with pytest.raises(ValueError, match=r"^lam must be nonzero$"):
                    route(lam, h)
        assert_within_semigroup_bound(-1e-12, [h])

    def test_beta_oracle_degree_512_stacked(self):
        assert_within_semigroup_bound(-1.0, route_probes(512))

    def test_stack_matches_single_calls(self):
        members = [h for _, h in build_corpus(128)]
        stacked = resolvent_semigroup(-0.5 + 0.3j, members)
        singles = [resolvent_semigroup(-0.5 + 0.3j, h) for h in members]
        assert np.array_equal(bits(stacked), bits(np.array([p.coeffs for p in singles])))

    def test_route_leaves_blas_threads_asleep(self):
        probes = route_probes(128)
        assert cpu_per_wall(lambda: resolvent_semigroup(-1.0, probes)) <= 1.5

    @pytest.mark.parametrize("kind", ["probes", "corpus", "poly"])
    def test_lambda_rows_match_single_calls_bitwise(self, kind):
        h = {
            "probes": route_probes(128),
            "corpus": [p for _, p in build_corpus(128)],
            "poly": log_one_minus_inv(128),
        }[kind]
        rows = resolvent_semigroup(LEFT_LAMS, h)
        singles = [resolvent_semigroup(lam, h) for lam in LEFT_LAMS]
        singles = [getattr(single, "coeffs", single) for single in singles]
        assert rows.shape == (len(LEFT_LAMS),) + singles[0].shape
        for lam, row, single in zip(LEFT_LAMS, rows, singles, strict=True):
            assert np.array_equal(bits(row), bits(single)), lam
            plain = plain_semigroup(lam, h)
            assert np.array_equal(bits(single), bits(plain.reshape(single.shape))), lam

    def test_lambda_array_must_be_non_empty(self):
        with pytest.raises(ValueError, match="^lam must be a number or a non-empty array$"):
            resolvent_semigroup(np.array([]), route_probes(8))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.5, r"Re lam < 0 \(lam\[3\] = 0\.5\+0j\)"),
            (1j, r"Re lam < 0 \(lam\[3\] = 0\+1j\)"),
            (0.0, r"lam must be nonzero \(lam\[3\] = 0\+0j\)"),
            (-1e-13, r"lam must be nonzero \(lam\[3\] = -1e-13\+0j\)"),
            (-1e-13 + 1e-14j, r"lam must be nonzero \(lam\[3\] = -1e-13\+1e-14j\)"),
            (-1e308, r"needs a finite \(N\+1\)\|lam\| \(lam\[3\] = -1e\+308\+0j\)"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_lambda_array_refused_whole_before_the_loop(self, bad, message):
        # the refusal allocates less than one result: the stack's copy and
        # the diagonal, not the (L, M, N+1) output or the ratio table
        lams = np.array([-1.0, -0.5 + 0.3j, -2.0, bad, -3.0])
        stack = oracle_stack()

        def refused():
            with pytest.raises(ValueError, match=message):
                resolvent_semigroup(lams, stack)

        _, peak = traced_peak(refused)
        assert peak < 2 * stack.nbytes
