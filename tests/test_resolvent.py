import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import resolvent, series
from cesaro_lab.operators import build_corpus, cesaro_apply
from cesaro_lab.resolvent import (
    NODE_CAP,
    PANEL_CAP,
    TIME_NODE_CAP,
    TIME_PANEL,
    QuadratureSpec,
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
    semigroup_horizon,
)
from cesaro_lab.series import Poly, horner_eval, log_one_minus_inv, monomial, truncate

from oracles import traced_peak


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
    built in the call and every product out of place: the reference for
    the bits of the in-place kernel."""
    lam = complex(lam)
    il = 1.0 / lam
    s, w = resolvent._gauss_panels(256, 4, 36.0)
    tau = np.exp(-s)
    damping = np.exp(-s * (1.0 - il))
    k = np.arange(members[0].degree + 1)
    kernel = (w * damping)[:, None] * np.exp((il - 1.0) * np.log(1.0 - tau[:, None] * zs))
    moments = series.real_matmul((tau[:, None] ** k).T, kernel)
    prefactor = il**2 * np.exp(-il * np.log(1.0 - zs))
    weights = zs[:, None] ** k * (1.0 / lam + prefactor[:, None] * moments.T)
    return np.array([series.real_matmul(weights, p.coeffs) for p in members])


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
            ("time_nodes", NODE_CAP + 1, "budgets must lie"),
            ("time_nodes", TIME_NODE_CAP + 1, "budgets must lie"),
            ("time_nodes", 15, "budgets must lie"),
            ("panels", PANEL_CAP + 1, "budgets must lie"),
            ("panels", 0, "budgets must lie"),
            ("t_max", float("inf"), "t_max"),
            ("t_max", float("-inf"), "t_max"),
            ("t_max", float("nan"), "t_max"),
            ("t_max", 1e308, "t_max"),
            ("t_max", TIME_PANEL * PANEL_CAP * (1 + 1e-15), "t_max"),
            ("s_max", float("inf"), "invalid"),
            ("tail_tol", float("nan"), "invalid"),
        ],
    )
    def test_rejects_budget_past_caps(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            QuadratureSpec(**{field: value})

    def test_accepts_budgets_at_caps(self):
        QuadratureSpec(nodes=NODE_CAP, time_nodes=TIME_NODE_CAP, panels=PANEL_CAP, t_max=-128.0)
        QuadratureSpec(nodes=16, time_nodes=16, panels=1, t_max=TIME_PANEL * PANEL_CAP)

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


def laplace_beta_oracle(lam, h):
    """Exact h/lam + lam**-2 * int_0^inf e^(t/lam) S_t h dt, independent of
    any quadrature.

    With a = e^-t and mu = 1/lam, coefficient n of S_t h is
    sum_k C(n,k) a^(k+1) (1-a)^(n-k) h_k, and each term integrates to
    C(n,k) B(k+1-mu, n-k+1) = prod_{j=k+1}^{n} j/(j-mu) / (n+1-mu).  The
    products are ratios of one running product, so a cumsum does the sum.
    """
    mu = 1.0 / lam
    c = h.coeffs
    n = np.arange(c.size)
    running = np.concatenate([[1.0], np.cumprod(n[1:] / (n[1:] - mu))])
    return c / lam + running * np.cumsum(c / running) / ((n + 1 - mu) * lam**2)


class TestSemigroupRoute:
    @pytest.mark.parametrize("lam", [-1.0, -0.5 + 0.3j, -2.0])
    def test_beta_function_oracle(self, lam):
        # the three probes of the resolvent-routes check, at its degree 128
        for h in route_probes(128):
            exact = laplace_beta_oracle(lam, h)
            direct = resolvent_recurrence(lam, h).coeffs
            assert np.max(np.abs(direct - exact)) <= 1e-13 * np.max(np.abs(exact))
            quadrature = resolvent_semigroup(lam, h).coeffs
            assert np.max(np.abs(quadrature - exact)) <= 1e-6

    def test_matches_recurrence_constant(self):
        h = truncate(monomial(0), 32)
        got = resolvent_semigroup(-1.0, h)
        want = resolvent_recurrence(-1.0, h)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-6

    def test_matches_recurrence_random(self):
        rng = np.random.default_rng(31)
        h = Poly(rng.normal(size=33) + 1j * rng.normal(size=33))
        for lam in (-1.0, -0.5 + 0.3j, -2.0):
            got = resolvent_semigroup(lam, h)
            want = resolvent_recurrence(lam, h)
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-6

    def test_zero_rhs(self):
        out = resolvent_semigroup(-1.0, Poly(np.zeros(6)))
        assert np.max(np.abs(out.coeffs)) <= 1e-12

    def test_horizon_formula(self):
        t = semigroup_horizon(-1.0, 1e-9)
        assert np.exp(-t) == pytest.approx(1e-9, rel=1e-6)

    def test_refuses_derived_horizon_past_node_budget_before_building_nodes(self):
        # Re(1/lam) = -1e-6 derives T = 3.45e7: 1.7e7 time panels, some 4e8 nodes
        lam, h = -1e-6 + 1j, truncate(monomial(0), 8)
        assert semigroup_horizon(lam, 1e-9) > 3e7

        def refused():
            with pytest.raises(ValueError, match="time panels of 24 nodes exceed the node budget"):
                resolvent_semigroup(lam, h)

        assert traced_peak(refused)[1] < 1_000_000

    def test_node_budget_counts_panels_times_time_nodes(self):
        # lam = -10 takes 116 time panels and lam = -100 takes 1,267: at 24
        # nodes each both fit NODE_CAP * PANEL_CAP = 65,536; at TIME_NODE_CAP
        # lam = -10 takes 32,480 nodes and lam = -100 would take 354,760
        h = truncate(monomial(0), 8)
        for lam, panels in ((-10.0, 116), (-100.0, 1267)):
            assert np.ceil(semigroup_horizon(lam, 1e-9) / TIME_PANEL) == panels
            got = resolvent_semigroup(lam, h)
            assert np.max(np.abs(got.coeffs - resolvent_recurrence(lam, h).coeffs)) <= 1e-6
        resolvent_semigroup(-10.0, h, QuadratureSpec(time_nodes=TIME_NODE_CAP))
        with pytest.raises(ValueError, match=f"1267 time panels of {TIME_NODE_CAP} nodes"):
            resolvent_semigroup(-100.0, h, QuadratureSpec(time_nodes=TIME_NODE_CAP))
        # the product decides: 1,267 x 51 = 64,617 fits, 1,267 x 52 = 65,884 does not
        resolvent_semigroup(-100.0, h, QuadratureSpec(time_nodes=51))
        with pytest.raises(ValueError, match="1267 time panels of 52 nodes"):
            resolvent_semigroup(-100.0, h, QuadratureSpec(time_nodes=52))

    def test_every_panel_takes_at_least_the_requested_time_nodes(self, monkeypatch):
        # a panel's rule is time_nodes plus the degree's share, capped at
        # TIME_NODE_CAP, which no accepted time_nodes exceeds
        rules = []
        exact = resolvent._gauss_panels

        def recorded(nodes, panels, length):
            rules.append(nodes)
            return exact(nodes, panels, length)

        monkeypatch.setattr(resolvent, "_gauss_panels", recorded)
        h = truncate(monomial(0), 300)
        for time_nodes in (16, TIME_NODE_CAP):
            rules.clear()
            # four panels, from a = 0, where the degree's share exceeds the cap
            quad = QuadratureSpec(time_nodes=time_nodes, t_max=8.0, tail_tol=1e-3)
            resolvent_semigroup(-1.0, h, quad)
            assert len(rules) == 4
            assert min(rules) >= time_nodes
            assert max(rules) == TIME_NODE_CAP

    def test_rejects_nonnegative_real_part(self):
        with pytest.raises(ValueError):
            resolvent_semigroup(0.5, Poly([1]))
        with pytest.raises(ValueError):
            resolvent_semigroup(1j, Poly([1]))

    def test_rejects_unreachable_tail_tolerance(self):
        with pytest.raises(ValueError):
            resolvent_semigroup(-1.0, Poly([1, 0, 0]), QuadratureSpec(t_max=1.0))

    def test_beta_oracle_degree_512_stacked(self):
        probes = route_probes(512)
        for h, solved in zip(probes, resolvent_semigroup(-1.0, probes), strict=True):
            assert np.max(np.abs(solved - laplace_beta_oracle(-1.0, h))) <= 1e-6

    def test_stack_matches_single_calls(self):
        members = [h for _, h in build_corpus(128)]
        stacked = resolvent_semigroup(-0.5 + 0.3j, members)
        singles = [resolvent_semigroup(-0.5 + 0.3j, h) for h in members]
        assert_stack_matches_singles(stacked, [p.coeffs for p in singles])

    def test_quadrature_leaves_blas_threads_asleep(self):
        probes = route_probes(128)
        assert cpu_per_wall(lambda: resolvent_semigroup(-1.0, probes)) <= 1.5

