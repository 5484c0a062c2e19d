import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab.operators import (
    ST_DEGREE_CAP,
    build_corpus,
    cesaro_apply,
    cesaro_inverse_apply,
    finite_section,
    generalized_cesaro_apply,
    log_power_identity_check,
    s_t_apply,
)
from cesaro_lab.series import (
    Poly,
    cauchy_product,
    compose,
    horner_eval,
    log_one_minus_inv,
    mobius_coeffs,
    monomial,
    truncate,
)
from cesaro_lab.weights import WeightSpec, default_radius_grid, max_modulus_profile, weighted_sup_norm

finite_complex = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=24)
memory_params = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_generalized(t, c):
    out = np.zeros(len(c), dtype=complex)
    for n in range(len(c)):
        out[n] = sum(t ** (n - j) * c[j] for j in range(n + 1)) / (n + 1)
    return out


class TestCesaroApply:
    def test_constant_gives_harmonic_averages(self):
        out = cesaro_apply(truncate(monomial(0), 7))
        np.testing.assert_allclose(out.coeffs, 1.0 / np.arange(1, 9), rtol=1e-15)

    def test_linear_monomial(self):
        out = cesaro_apply(truncate(monomial(1), 6))
        expected = np.concatenate([[0.0], 1.0 / np.arange(2, 8)])
        np.testing.assert_allclose(out.coeffs, expected, rtol=1e-15)

    def test_zero(self):
        out = cesaro_apply(Poly(np.zeros(5)))
        assert np.array_equal(out.coeffs, np.zeros(5))

    @given(coeff_lists)
    def test_constant_term_preserved_exactly(self, c):
        assert cesaro_apply(Poly(c)).coeffs[0] == c[0]


class TestGeneralizedCesaro:
    def test_t_one_is_bitwise_cesaro(self):
        rng = np.random.default_rng(0)
        p = Poly(rng.normal(size=200) + 1j * rng.normal(size=200))
        assert np.array_equal(generalized_cesaro_apply(1.0, p).coeffs, cesaro_apply(p).coeffs)

    def test_t_zero_divides_by_index(self):
        p = Poly([4, 9, 16, 25])
        out = generalized_cesaro_apply(0.0, p)
        np.testing.assert_allclose(out.coeffs, [4, 4.5, 16 / 3, 6.25], rtol=1e-15)

    def test_half_memory_on_delta_input(self):
        # only the j = 0 term survives: coefficient n is t**n / (n+1)
        out = generalized_cesaro_apply(0.5, truncate(monomial(0), 9))
        n = np.arange(10)
        np.testing.assert_allclose(out.coeffs, 0.5**n / (n + 1), rtol=1e-14)

    def test_half_memory_geometric_sums_on_ones(self):
        # all-ones input: partial geometric sums (sum of (1/2)**j, j<=n)/(n+1)
        out = generalized_cesaro_apply(0.5, Poly(np.ones(10)))
        n = np.arange(10)
        expected = 2.0 * (1.0 - 0.5 ** (n + 1)) / (n + 1)
        np.testing.assert_allclose(out.coeffs, expected, rtol=1e-14)

    @given(memory_params, coeff_lists)
    @settings(max_examples=60)
    def test_matches_brute_force(self, t, c):
        got = generalized_cesaro_apply(t, Poly(c)).coeffs
        expected = brute_generalized(t, c)
        scale = max(1.0, np.max(np.abs(expected)))
        np.testing.assert_allclose(got, expected, atol=1e-12 * scale, rtol=0)

    @given(memory_params, coeff_lists)
    def test_constant_term_preserved_exactly(self, t, c):
        assert generalized_cesaro_apply(t, Poly(c)).coeffs[0] == c[0]

    @given(memory_params, coeff_lists, st.integers(min_value=0, max_value=23))
    @settings(max_examples=60)
    def test_truncation_commutes_exactly(self, t, c, m):
        # lower-triangular action: leading coefficients never see the tail
        m = min(m, len(c) - 1)
        p = Poly(c)
        whole = generalized_cesaro_apply(t, p).coeffs[: m + 1]
        cut = generalized_cesaro_apply(t, truncate(p, m)).coeffs
        assert np.array_equal(whole, cut)

    def test_rejects_t_outside_unit_interval(self):
        with pytest.raises(ValueError):
            generalized_cesaro_apply(1.5, Poly([1]))
        with pytest.raises(ValueError):
            generalized_cesaro_apply(-0.1, Poly([1]))


class TestInverse:
    def test_constant(self):
        out = cesaro_inverse_apply(truncate(monomial(0), 4))
        assert np.array_equal(out.coeffs, [1, -1, 0, 0, 0])

    @given(coeff_lists)
    def test_roundtrip(self, c):
        p = Poly(c)
        back = cesaro_inverse_apply(cesaro_apply(p)).coeffs
        scale = max(1.0, np.max(np.abs(c)))
        np.testing.assert_allclose(back, p.coeffs, atol=1e-12 * scale, rtol=0)

    def test_log1p_closed_form(self):
        # independent series for (1-z) * (log(1+z) + z/(1+z))
        degree = 64
        n = np.arange(1, degree + 1)
        log1p = np.zeros(degree + 1, dtype=complex)
        log1p[1:] = (-1.0) ** (n + 1) / n
        ray = np.zeros(degree + 1, dtype=complex)
        ray[1:] = (-1.0) ** (n - 1)
        inner = log1p + ray
        expected = inner.copy()
        expected[1:] -= inner[:-1]
        got = cesaro_inverse_apply(Poly(log1p))
        np.testing.assert_allclose(got.coeffs[:-1], expected[:-1], atol=1e-14)


class TestCompositionContraction:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        p = Poly(rng.normal(size=50))
        assert np.array_equal(s_t_apply(0.0, p).coeffs, p.coeffs)

    def test_constant_input_gives_mobius_quotient(self):
        t = 0.7
        a = np.exp(-t)
        out = s_t_apply(t, truncate(monomial(0), 12))
        np.testing.assert_allclose(out.coeffs, a * (1 - a) ** np.arange(13), rtol=1e-13)

    @pytest.mark.parametrize("degree", [128, 512])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_matches_composition_definition(self, t, degree):
        # brute-force oracle: Horner composition with the Mobius series,
        # times the quotient phi_t(z)/z = a/(1 - (1-a)z)
        rng = np.random.default_rng(degree)
        p = Poly(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        a = np.exp(-t)
        quotient = Poly(a * (1 - a) ** np.arange(degree + 1))
        composed = compose(p, mobius_coeffs(t, degree), degree=degree)
        expected = cauchy_product(quotient, composed, degree=degree).coeffs
        got = s_t_apply(t, p).coeffs
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, atol=1e-14 * scale, rtol=0)

    def test_rejects_degree_above_cap(self):
        with pytest.raises(ValueError, match="cap"):
            s_t_apply(1.0, Poly(np.zeros(ST_DEGREE_CAP + 2)))

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        p = Poly(rng.normal(size=40) + 1j * rng.normal(size=40))
        one_step = s_t_apply(0.9, p)
        two_step = s_t_apply(0.4, s_t_apply(0.5, p))
        scale = np.max(np.abs(one_step.coeffs))
        np.testing.assert_allclose(two_step.coeffs, one_step.coeffs, atol=1e-12 * scale, rtol=0)

    def test_norm_contraction_on_sample(self):
        corpus = build_corpus(256)[:6] + [("log-inv", log_one_minus_inv(256))]
        for k in (1, 2):
            w = WeightSpec.log_power(k)
            for t in (0.1, 1.0):
                for _, f in corpus:
                    lhs = weighted_sup_norm(s_t_apply(t, f), w).value
                    rhs = weighted_sup_norm(f, w).value
                    assert lhs <= rhs * (1 + 1e-9)

    def test_schwarz_bound_on_samples(self):
        z = 0.9 * np.exp(1j * np.linspace(0.1, 2 * np.pi, 37))
        for t in (0.1, 1.0, 5.0):
            phi = horner_eval(mobius_coeffs(t, 256), z)
            assert np.all(np.abs(phi) <= np.abs(z) * (1 + 1e-9) + 1e-12)


class TestFiniteSection:
    def test_hardy_diagonal(self):
        fs = finite_section(0.0, 2)
        np.testing.assert_allclose(fs.entries, np.diag([1, 0.5, 1 / 3]), atol=1e-16)

    def test_full_memory_rows(self):
        fs = finite_section(1.0, 2)
        expected = np.array([[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_allclose(fs.entries, expected, rtol=1e-15)

    def test_diagonal_is_reciprocal_integers(self):
        for t in (0.0, 0.3, 1.0):
            fs = finite_section(t, 40)
            assert np.array_equal(np.diagonal(fs.entries).real, 1.0 / np.arange(1, 42))
            assert np.all(np.triu(fs.entries, 1) == 0)

    def test_small_section_eigenvalues_via_solver(self):
        # dense eigensolver cross-check; only trustworthy at small sizes
        # because the eigenvector matrix becomes exponentially ill-conditioned
        for t in (0.0, 0.5, 1.0):
            fs = finite_section(t, 6)
            got = np.sort_complex(np.linalg.eigvals(fs.entries))
            expected = np.sort_complex(1.0 / np.arange(1, 8).astype(complex))
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @given(memory_params, st.lists(finite_complex, min_size=1, max_size=16))
    @settings(max_examples=40)
    def test_matrix_matches_apply(self, t, c):
        fs = finite_section(t, len(c) - 1)
        via_matrix = fs.entries @ np.asarray(c, dtype=complex)
        via_apply = generalized_cesaro_apply(t, Poly(c)).coeffs
        scale = max(1.0, np.max(np.abs(via_apply)))
        np.testing.assert_allclose(via_matrix, via_apply, atol=1e-13 * scale, rtol=0)


class TestLogPowerIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_discrepancy_small(self, k):
        assert log_power_identity_check(k, 256) <= 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            log_power_identity_check(7, 256)
        with pytest.raises(ValueError):
            log_power_identity_check(1, 32)


class TestCorpus:
    def test_deterministic(self):
        a = build_corpus(64)
        b = build_corpus(64)
        assert [n for n, _ in a] == [n for n, _ in b]
        for (_, p), (_, q) in zip(a, b):
            assert np.array_equal(p.coeffs, q.coeffs)

    def test_counts_and_degrees(self):
        corpus = build_corpus(32)
        names = [n for n, _ in corpus]
        assert sum(1 for n in names if n.startswith("random-")) == 50
        assert all(p.degree == 32 for _, p in corpus)
        assert "one" in names and "log-inv" in names and "eigen-4" in names

    def test_random_coefficients_inside_unit_disc(self):
        for name, p in build_corpus(64, include_structured=False):
            assert np.all(np.abs(p.coeffs) <= 1.0)


class TestContinuityEstimates:
    def test_pointwise_growth_bound(self):
        grid = default_radius_grid(256)
        grid = grid[grid > 0]
        factor = -np.log1p(-grid) / grid
        for _, f in build_corpus(256)[:8]:
            m_f = max_modulus_profile(f, grid)
            m_cf = max_modulus_profile(cesaro_apply(f), grid)
            assert np.all(m_cf <= m_f * factor + 1e-9)

    def test_weighted_step_shift_bound(self):
        const = 1.0 / (1.0 - 1.0 / np.e)
        sample = build_corpus(256)[:5] + [("log-inv", log_one_minus_inv(256))]
        for k in (1, 2):
            for _, f in sample:
                lhs = weighted_sup_norm(cesaro_apply(f), WeightSpec.log_power(k + 1)).value
                rhs = const * weighted_sup_norm(f, WeightSpec.log_power(k)).value
                assert lhs <= rhs * (1 + 1e-6)

    def test_compact_route_bound(self):
        grid = default_radius_grid(256)
        w1 = WeightSpec.standard(1.0)
        v1 = WeightSpec.log_power(1)
        for t in (0.0, 0.5, 0.9):
            bound = 1.0 / ((1.0 - t) * (1.0 - 1.0 / np.e))
            for _, f in build_corpus(256)[:5]:
                scale = weighted_sup_norm(f, w1, grid).value
                lhs = weighted_sup_norm(generalized_cesaro_apply(t, f), v1, grid).value / scale
                assert lhs <= bound * (1 + 1e-6)
