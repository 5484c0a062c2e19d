import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cesaro_lab import resolvent, series
from cesaro_lab.operators import build_corpus, cesaro_apply
from cesaro_lab.resolvent import (
    NODE_CAP,
    PANEL_CAP,
    QuadratureSpec,
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
)
from cesaro_lab.series import Poly, horner_eval, log_one_minus_inv, monomial, truncate

from oracles import allocating_recurrence, traced_peak


#: The four lam of the resolvent-routes check's integral comparison.
ROUTE_LAMS = np.array([1j, 2j, -1 + 1j, 3.0])


def route_probes(degree):
    """The three semigroup probes of the resolvent-routes check."""
    return [truncate(monomial(0), degree), log_one_minus_inv(degree), build_corpus(degree)[0][1]]


def cpu_per_wall(run, seconds=1.0):
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


def out_of_place_integral(lam, members, zs):
    """The integral route for one Python complex lam, with every table
    built in the call and every step out of place: tau**k and z**k row by
    row, log(1 - tau z) from hypot and atan2, one product for all members.
    The reference for the bits of the in-place kernel."""
    lam = complex(lam)
    il = 1.0 / lam
    s, w = resolvent._gauss_panels(256, 4, 36.0)
    tau = np.exp(-s)
    damping = np.exp(-s * (1.0 - il))
    k = np.arange(members[0].degree + 1)
    tau_powers, z_powers = [np.ones_like(tau)], [np.ones_like(zs)]
    for _ in k[1:]:
        tau_powers.append(tau_powers[-1] * tau)
        z_powers.append(z_powers[-1] * zs)
    x = 1.0 - tau[:, None] * zs.real
    y = tau[:, None] * -zs.imag
    log_kernel = np.log(np.hypot(x, y)) + 1j * np.arctan2(y, x)
    kernel = (w * damping)[:, None] * np.exp(log_kernel * (il - 1.0))
    moments = series.real_matmul(np.array(tau_powers), kernel)
    prefactor = il**2 * np.exp(-il * np.log(1.0 - zs))
    weights = np.array(z_powers).T * (1.0 / lam + prefactor[:, None] * moments.T)
    return series.real_matmul(weights, np.array([p.coeffs for p in members]).T).T


def assert_stack_matches_singles(stacked, singles):
    for got, want in zip(stacked, singles, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=24,
)


class TestRecurrence:
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
        with pytest.raises(ValueError):
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
        # the resolvent-routes oracle: recurrence at degree 512, then Horner
        members = [truncate(h, 512) for _, h in build_corpus(128)[::3]]
        zs = off_cut_sample_points()
        for lam in (1j, 2j, -1 + 1j, 3.0):
            stacked = horner_eval(resolvent_recurrence(lam, members), zs)
            for row, h in zip(stacked, members, strict=True):
                assert np.array_equal(row, horner_eval(resolvent_recurrence(lam, h), zs))

    def test_matches_allocating_loop_bitwise(self):
        # 144 lam on one Poly, as in the spectral sweep, and the 63-member stack
        axis = np.linspace(-2.0, 2.0, 12)
        lams = np.array([complex(re, im) for re in axis for im in axis])
        members = [h for _, h in build_corpus(512)]
        for lam, h in [(lams, log_one_minus_inv(512))] + [(lam, members) for lam in (1j, -1.0, 3.0)]:
            got, want = resolvent_recurrence(lam, h), allocating_recurrence(lam, h)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), lam

    def test_oracle_evaluation_leaves_blas_threads_asleep(self):
        # the resolvent-routes oracle: 63 members at degree 512, 100 points
        members = [truncate(h, 512) for _, h in build_corpus(128)]
        oracle = resolvent_recurrence(1j, members)
        zs = off_cut_sample_points()
        assert cpu_per_wall(lambda: horner_eval(oracle, zs)) <= 1.5

    def test_lambda_array_refuses_diagonal_value(self):
        h = Poly(np.ones(8))
        with pytest.raises(ValueError, match="diagonal value 1/3"):
            resolvent_recurrence(np.array([2.0, 1.0 / 3 + 1e-13, -1.0]), h)
        with pytest.raises(ValueError, match="nonzero"):
            resolvent_recurrence(np.array([1j, 0.0]), h)
        with pytest.raises(ValueError, match="non-empty"):
            resolvent_recurrence(np.array([]), h)
        with pytest.raises(ValueError, match="not both"):
            resolvent_recurrence(np.array([1j, 2j]), [h, h])


class TestSamplePoints:
    def test_count_and_rings(self):
        zs = off_cut_sample_points()
        assert zs.size == 100
        assert np.allclose(np.sort(np.unique(np.round(np.abs(zs), 12))), [0.5, 0.8])

    def test_none_on_cut(self):
        zs = off_cut_sample_points()
        assert not np.any((zs.imag == 0) & (zs.real <= 0))


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
        with pytest.raises(ValueError):
            resolvent_integral_profile(1j, h, -0.5)
        with pytest.raises(ValueError):
            resolvent_integral_profile(1j, h, 0.0)
        with pytest.raises(ValueError):
            resolvent_integral_profile(1j, h, 1.2)

    def test_rejects_vanishing_order_violation(self):
        # Re(1/lam) - 1 = 1.5 for lam = 0.4, so a nonzero constant term fails
        with pytest.raises(ValueError):
            resolvent_integral_profile(0.4, truncate(monomial(0), 8), 0.5)

    def test_order_condition_admits_shifted_rhs(self):
        # Re(1/lam) = 2.5 leaves only an exp(-s/2) decay rate, so this case
        # needs a longer contour than the default budget
        h = truncate(monomial(2), 32)
        value = resolvent_integral_profile(0.4, h, 0.5, QuadratureSpec(s_max=72, panels=8))[0]
        oracle = horner_eval(resolvent_recurrence(0.4, truncate(h, 512)), 0.5)
        assert abs(value - oracle) <= 1e-8

    def test_rejects_small_node_budget(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=8)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("nodes", NODE_CAP + 1, "budgets must lie"),
            ("panels", PANEL_CAP + 1, "budgets must lie"),
            ("panels", 0, "budgets must lie"),
            ("s_max", float("inf"), "invalid"),
        ],
    )
    def test_rejects_budget_past_caps(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            QuadratureSpec(**{field: value})

    def test_accepts_budgets_at_caps(self):
        QuadratureSpec(nodes=NODE_CAP, panels=PANEL_CAP)
        QuadratureSpec(nodes=16, panels=1)

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
        assert_stack_matches_singles(stacked, singles)

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

    def test_in_place_kernel_keeps_out_of_place_bits(self):
        members = [h for _, h in build_corpus(128)[::8]]
        zs = off_cut_sample_points()
        got = resolvent_integral_profile(ROUTE_LAMS, members, zs)
        for lam, rows in zip(ROUTE_LAMS, got, strict=True):
            assert np.array_equal(rows, out_of_place_integral(lam, members, zs)), lam

    def test_lambda_array_shapes(self):
        members = [truncate(monomial(m), 16) for m in (0, 1, 2)]
        zs = off_cut_sample_points()
        assert resolvent_integral_profile(1j, members[0], zs).shape == (100,)
        assert resolvent_integral_profile(1j, members, zs).shape == (3, 100)
        assert resolvent_integral_profile(np.array(1j), members[0], 0.5).shape == (1,)
        assert resolvent_integral_profile(ROUTE_LAMS, members[0], zs).shape == (4, 100)
        assert resolvent_integral_profile(ROUTE_LAMS, members, zs).shape == (4, 3, 100)
        assert resolvent_integral_profile([1j], members, 0.5).shape == (1, 3, 1)

    def test_lambda_array_refused_whole_before_quadrature(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a Gauss rule was built for a refused call")

        monkeypatch.setattr(resolvent, "_gauss_panels", no_rule)
        h = truncate(monomial(0), 16)
        # Re(1/lam) - 1 = 1.5 at lam = 0.4 only, which a constant term breaks
        with pytest.raises(ValueError, match="vanishing order"):
            resolvent_integral_profile(np.array([1j, 2j, 0.4, 3.0]), h, 0.5)
        with pytest.raises(ValueError, match="vanishing order"):
            resolvent_integral_profile([1j, 0.4], [truncate(monomial(2), 16), h], 0.5)
        with pytest.raises(ValueError, match="nonzero"):
            resolvent_integral_profile(np.array([1j, 0.0]), h, 0.5)
        with pytest.raises(ValueError, match="finite"):
            resolvent_integral_profile(np.array([1j, complex(np.nan, 0)]), h, 0.5)
        with pytest.raises(ValueError, match="non-empty"):
            resolvent_integral_profile(np.array([]), h, 0.5)

    def test_tau_table_past_its_cap_refused_before_quadrature(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a Gauss rule was built")

        monkeypatch.setattr(resolvent, "_gauss_panels", no_rule)
        caps = QuadratureSpec(nodes=NODE_CAP, panels=PANEL_CAP)
        # 2049 coefficients x 65,536 nodes x 8 bytes
        with pytest.raises(ValueError, match=r"tau\*\*k table would take 1074 MB, past 105 MB"):
            resolvent_integral_profile(1j, truncate(monomial(0), 2048), 0.5, caps)
        with pytest.raises(ValueError, match="past 105 MB"):
            resolvent_integral_profile(1j, truncate(monomial(0), 200), 0.5, caps)
        # degree 199 fills the cap exactly and goes on to the Gauss rule
        assert 8 * 200 * NODE_CAP * PANEL_CAP == resolvent.TABLE_BYTES_CAP
        with pytest.raises(AssertionError, match="Gauss rule was built"):
            resolvent_integral_profile(1j, truncate(monomial(0), 199), 0.5, caps)

    def test_lambda_array_leaves_blas_threads_asleep(self):
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        assert cpu_per_wall(lambda: resolvent_integral_profile(ROUTE_LAMS, members, zs)) <= 1.5

    def test_lambda_array_builds_its_kernel_in_place(self):
        # held across the lam: log(1 - tau z) and one kernel buffer, each
        # 1,024 nodes x 100 points x 16 bytes; per product, real_matmul's
        # real and imaginary copies of the kernel (one kernel together); then
        # tau**k (0.65 of one), z**k and the values.  About 4.4 kernels in
        # all; one kernel-sized temporary per lam would pass 5.
        members = [h for _, h in build_corpus(128)]
        zs = off_cut_sample_points()
        resolvent_integral_profile(1j, members, zs)  # the Gauss rule is cached
        _, peak = traced_peak(lambda: resolvent_integral_profile(ROUTE_LAMS, members, zs))
        assert peak < 5 * 1024 * zs.size * 16

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
        with pytest.raises(ValueError):
            resolvent_semigroup(0.5, Poly([1]))
        with pytest.raises(ValueError):
            resolvent_semigroup(1j, Poly([1]))

    def test_refuses_lambda_below_the_guard_like_the_other_routes(self):
        # the recurrence and integral routes refuse |lam| < 1e-12 too
        h = truncate(monomial(0), 4)
        for lam in (-1e-13, -1e-13 + 1e-14j):
            with pytest.raises(ValueError, match="lam must be nonzero"):
                resolvent_semigroup(lam, h)
            with pytest.raises(ValueError, match="lam must be nonzero"):
                resolvent_recurrence(lam, h)
        assert_within_semigroup_bound(-1e-12, [h])

    def test_beta_oracle_degree_512_stacked(self):
        assert_within_semigroup_bound(-1.0, route_probes(512))

    def test_stack_matches_single_calls(self):
        members = [h for _, h in build_corpus(128)]
        stacked = resolvent_semigroup(-0.5 + 0.3j, members)
        singles = [resolvent_semigroup(-0.5 + 0.3j, h) for h in members]
        assert_stack_matches_singles(stacked, [p.coeffs for p in singles])

    def test_route_leaves_blas_threads_asleep(self):
        probes = route_probes(128)
        assert cpu_per_wall(lambda: resolvent_semigroup(-1.0, probes)) <= 1.5
