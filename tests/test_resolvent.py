import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab.operators import build_corpus, cesaro_apply
from cesaro_lab.resolvent import (
    QuadratureSpec,
    ResolventRequest,
    branch_power,
    off_cut_sample_points,
    resolvent_bound_check,
    resolvent_integral_eval,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
    semigroup_horizon,
)
from cesaro_lab.series import Poly, horner_eval, log_one_minus_inv, monomial, truncate

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


class TestBranchPower:
    def test_unit_base(self):
        assert branch_power(1.0, 0.37 + 2j) == pytest.approx(1.0)

    def test_principal_square_root(self):
        assert branch_power(4.0, 0.5) == pytest.approx(2.0)

    def test_i_to_the_i(self):
        assert branch_power(1j, 1j) == pytest.approx(np.exp(-np.pi / 2), rel=1e-14)

    def test_imaginary_exponent_modulus_bound(self):
        rng = np.random.default_rng(9)
        for b in (0.5, -1.0, 2.0):
            for _ in range(50):
                xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if xi.imag == 0 and xi.real <= 0:
                    continue
                assert abs(branch_power(xi, 1j / b)) <= np.exp(np.pi / abs(b)) * (1 + 1e-12)

    @pytest.mark.parametrize("xi", [-1.0, -0.5, 0.0])
    def test_rejects_cut(self, xi):
        with pytest.raises(ValueError):
            branch_power(xi, 0.5)


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
        assert abs(resolvent_integral_eval(1j, h, z) - horner_eval(oracle, z)) <= 1e-8

    def test_matches_recurrence_linear_rhs(self):
        h = truncate(monomial(1), 32)
        oracle = resolvent_recurrence(-1.0, truncate(h, 256))
        z = 0.5
        assert abs(resolvent_integral_eval(-1.0, h, z) - horner_eval(oracle, z)) <= 1e-8

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

    def test_substitution_beats_plain_quadrature(self):
        # the plain tau-integrand oscillates without bound near 0, so the
        # un-substituted rule is markedly less accurate at the same budget
        h = truncate(monomial(0), 16)
        z = 0.3 + 0.4j
        oracle = horner_eval(resolvent_recurrence(1j, truncate(h, 256)), z)
        plain = resolvent_integral_eval(1j, h, z, QuadratureSpec(substitution=False))
        substituted = resolvent_integral_eval(1j, h, z)
        assert abs(substituted - oracle) <= 1e-8
        assert abs(plain - oracle) <= 5e-3
        assert abs(substituted - oracle) < abs(plain - oracle)

    def test_rejects_points_on_cut_or_outside(self):
        h = truncate(monomial(0), 8)
        with pytest.raises(ValueError):
            resolvent_integral_eval(1j, h, -0.5)
        with pytest.raises(ValueError):
            resolvent_integral_eval(1j, h, 0.0)
        with pytest.raises(ValueError):
            resolvent_integral_eval(1j, h, 1.2)

    def test_rejects_vanishing_order_violation(self):
        # Re(1/lam) - 1 = 1.5 for lam = 0.4, so a nonzero constant term fails
        with pytest.raises(ValueError):
            resolvent_integral_eval(0.4, truncate(monomial(0), 8), 0.5)

    def test_order_condition_admits_shifted_rhs(self):
        # Re(1/lam) = 2.5 leaves only an exp(-s/2) decay rate, so this case
        # needs a longer contour than the default budget
        h = truncate(monomial(2), 32)
        value = resolvent_integral_eval(0.4, h, 0.5, QuadratureSpec(s_max=72, panels=8))
        oracle = horner_eval(resolvent_recurrence(0.4, truncate(h, 512)), 0.5)
        assert abs(value - oracle) <= 1e-8

    def test_rejects_small_node_budget(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=8)


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
        degree = 128
        probes = [truncate(monomial(0), degree), log_one_minus_inv(degree), build_corpus(degree)[0][1]]
        for h in probes:
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

    def test_rejects_nonnegative_real_part(self):
        with pytest.raises(ValueError):
            resolvent_semigroup(0.5, Poly([1]))
        with pytest.raises(ValueError):
            resolvent_semigroup(1j, Poly([1]))

    def test_rejects_unreachable_tail_tolerance(self):
        with pytest.raises(ValueError):
            resolvent_semigroup(-1.0, Poly([1, 0, 0]), QuadratureSpec(t_max=1.0))


class TestBoundCheck:
    def test_constant_rhs_passes(self):
        result = resolvent_bound_check(2.0, truncate(monomial(0), 512), k=1)
        assert result.passed
        assert result.lhs <= result.rhs * (1 + 1e-6)

    def test_log_rhs_passes(self):
        result = resolvent_bound_check(-1.0, log_one_minus_inv(512), k=1)
        assert result.passed

    def test_zero_rhs_trivial(self):
        result = resolvent_bound_check(1.0, Poly(np.zeros(64)), k=2)
        assert result.lhs == 0.0 and result.rhs == 0.0 and result.passed

    def test_rejects_zero_b(self):
        with pytest.raises(ValueError):
            resolvent_bound_check(0.0, Poly([1]), k=1)


class TestRequestValidation:
    def test_routes_validate(self):
        h = truncate(monomial(0), 8)
        ResolventRequest(lam=2.0, h=h, route="recurrence").validate()
        ResolventRequest(lam=1j, h=h, route="integral").validate()
        ResolventRequest(lam=-1.0, h=h, route="semigroup").validate()

    def test_rejects_unknown_route(self):
        with pytest.raises(ValueError):
            ResolventRequest(lam=1.0, h=Poly([1]), route="magic").validate()

    def test_rejects_bad_combinations(self):
        h = truncate(monomial(0), 8)
        with pytest.raises(ValueError):
            ResolventRequest(lam=0.5, h=h, route="recurrence").validate()
        with pytest.raises(ValueError):
            ResolventRequest(lam=1j, h=h, route="semigroup").validate()
        with pytest.raises(ValueError):
            ResolventRequest(lam=0.4, h=h, route="integral").validate()
