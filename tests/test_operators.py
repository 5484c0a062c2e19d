import math
from fractions import Fraction
from itertools import accumulate

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
    s_t_apply,
    s_t_rows,
    section_shape_error,
)
from cesaro_lab.series import (
    Poly,
    cauchy_product,
    horner_eval,
    log_one_minus_inv,
    monomial,
    stack_product,
    truncate,
)

from oracles import compose, mobius_coeffs, per_member_s_t_apply, traced_peak
from cesaro_lab.weights import WeightSpec, default_radius_grid, max_modulus_profile, weighted_sup_norm
from test_resolvent import cpu_per_wall

finite_complex = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=24)
memory_params = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def assert_stack_matches_single_calls(apply):
    # the corpus mixes complex random members with real structured ones
    members = [h for _, h in build_corpus(128)]
    images = apply(members)
    assert isinstance(images, np.ndarray) and images.flags.c_contiguous
    for image, h in zip(images, members, strict=True):
        single = apply(h)
        assert isinstance(single, Poly)
        assert np.array_equal(image, single.coeffs)


def allocating_pascal_rows(a, degree):
    """The Pascal recurrence with a new (nodes, n+1) array per step: the
    reference whose bits :func:`s_t_rows` keeps, writing row n from row n-1."""
    a = np.asarray(a, dtype=float)[:, None]
    row = a.copy()
    yield row
    for n in range(1, degree + 1):
        nxt = np.zeros((a.shape[0], n + 1))
        nxt[:, :n] = (1.0 - a) * row
        nxt[:, 1:] += a * row
        row = nxt
        yield row


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

    def test_stack_matches_single_calls(self):
        assert_stack_matches_single_calls(cesaro_apply)


class TestGeneralizedCesaro:
    @pytest.mark.parametrize("degree", [64, 512, 2048])
    def test_t_one_matches_exact_partial_sums(self, degree):
        # Gaussian integers in [-1000, 1000] keep every partial sum S_n exact
        # in float64, so only the division by n+1 rounds; numpy divides a
        # complex by a real through a rounded reciprocal, so each part may be
        # two units of 2**-53 off S_n/(n+1), not one, and exactly 0 where S_n = 0
        rng = np.random.default_rng(degree)
        re, im = rng.integers(-1000, 1001, size=(2, degree + 1))
        re[1], im[1] = -re[0], -im[0]  # S_1 = 0 in both parts
        got = generalized_cesaro_apply(1.0, Poly(re + 1j * im)).coeffs
        for part, ints in ((got.real, re), (got.imag, im)):
            for n, (value, s) in enumerate(zip(part.tolist(), accumulate(ints.tolist()))):
                exact = Fraction(s, n + 1)
                assert abs(Fraction(value) - exact) <= Fraction(2, 2**53) * abs(exact)

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

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9, 1.0])
    def test_stack_matches_single_calls(self, t):
        assert_stack_matches_single_calls(lambda p: generalized_cesaro_apply(t, p))

    @pytest.mark.parametrize("t", [0.3, 0.9])
    def test_scan_error_against_fsum_reference(self, t):
        # relative to the sum bound sum_m t**m |c_{n-m}| / (n+1), each term
        # of the scan passes L = ceil(log2(N+1)) steps of one addition, one
        # product and one rounded power, then the division; the reference
        # adds its power, product, correctly rounded sum and division, and
        # the real and imaginary parts err apart (sqrt(2))
        degree = 512
        levels = math.ceil(math.log2(degree + 1))
        members = [h for _, h in build_corpus(degree)][::6]
        n = np.arange(degree + 1)
        gap = n[:, None] - n[None, :]
        powers = np.where(gap >= 0, t ** np.clip(gap, 0, None), 0.0)
        worst = 0.0
        for h, image in zip(members, generalized_cesaro_apply(t, members), strict=True):
            terms = powers * h.coeffs
            sums = np.array([complex(math.fsum(row.real), math.fsum(row.imag)) for row in terms])
            bound = np.maximum(powers @ np.abs(h.coeffs) / (n + 1), np.finfo(float).tiny)
            worst = max(worst, np.max(np.abs(image - sums / (n + 1)) / bound))
        assert worst <= math.sqrt(2) * (3 * levels + 5) * 2.0**-53

    def test_rejects_t_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]$"):
            generalized_cesaro_apply(1.5, Poly([1]))
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]$"):
            generalized_cesaro_apply(-0.1, Poly([1]))


class TestInverse:
    def test_stack_matches_single_calls(self):
        assert_stack_matches_single_calls(cesaro_inverse_apply)

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


class TestPascalRows:
    def test_s_t_rows_refuses_a_negative_degree(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            s_t_rows(0.5, -1)

    @pytest.mark.parametrize("t", [-0.1, np.inf, np.nan])
    def test_s_t_rows_refuses_a_negative_or_non_finite_t(self, t):
        with pytest.raises(ValueError, match="^t must be a finite nonnegative real$"):
            s_t_apply(t, Poly([1.0, 2.0]))

    def test_s_t_rows_match_allocating_recurrence_bitwise(self):
        for degree in (8, 64, 513):
            for t in (0.0, 0.1, 1.0, 5.0):
                want = np.zeros((degree + 1, degree + 1))
                for n, row in enumerate(allocating_pascal_rows([np.exp(-t)], degree)):
                    want[n, : n + 1] = row[0]
                assert np.array_equal(s_t_rows(t, degree), want)


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

    @pytest.mark.parametrize("t", [0.1, 5.0])
    def test_stack_matches_single_calls(self, t):
        assert_stack_matches_single_calls(lambda p: s_t_apply(t, p))

    @pytest.mark.parametrize("degree", [128, 512, 1024])
    def test_blocks_stay_within_rounding_of_per_member_products(self, degree):
        # both are real inner products of length N+1 against the same rows,
        # so the real and the imaginary part of each coefficient agree to
        # first order within (N+1) u sum_k P[n, k] |c_k|, P >= 0 (u = 2**-53)
        members = [h for _, h in build_corpus(degree)]
        magnitudes = np.abs([h.coeffs for h in members])
        for t in (0.1, 1.0):
            bound = (degree + 1) * 2.0**-53 * stack_product(s_t_rows(t, degree), magnitudes)
            stacked = s_t_apply(t, members) - per_member_s_t_apply(t, members)
            single = s_t_apply(t, members[0]).coeffs - per_member_s_t_apply(t, members[0])[0]
            for gap, limit in ((stacked, bound), (single, bound[0])):
                assert np.all(np.abs(gap.real) <= limit) and np.all(np.abs(gap.imag) <= limit)

    def test_s_t_apply_leaves_blas_threads_asleep(self):
        # the norm-inequalities contraction clause: 63 members at degree 512
        members = [h for _, h in build_corpus(512)]
        assert cpu_per_wall(lambda: s_t_apply(0.5, members)) <= 1.5

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
        np.testing.assert_allclose(fs, np.diag([1, 0.5, 1 / 3]), atol=1e-16)

    def test_full_memory_rows(self):
        fs = finite_section(1.0, 2)
        expected = np.array([[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_allclose(fs, expected, rtol=1e-15)

    def test_diagonal_is_reciprocal_integers(self):
        for t in (0.0, 0.3, 1.0):
            fs = finite_section(t, 40)
            assert np.array_equal(np.diagonal(fs), 1.0 / np.arange(1, 42))
            assert np.all(np.triu(fs, 1) == 0)

    def test_small_section_eigenvalues_via_solver(self):
        # dense eigensolver cross-check; only trustworthy at small sizes
        # because the eigenvector matrix becomes exponentially ill-conditioned
        for t in (0.0, 0.5, 1.0):
            fs = finite_section(t, 6)
            got = np.sort_complex(np.linalg.eigvals(fs))
            expected = np.sort_complex(1.0 / np.arange(1, 8).astype(complex))
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @given(memory_params, st.lists(finite_complex, min_size=1, max_size=16))
    @settings(max_examples=40)
    def test_matrix_matches_apply(self, t, c):
        fs = finite_section(t, len(c) - 1)
        via_matrix = fs @ np.asarray(c, dtype=complex)
        via_apply = generalized_cesaro_apply(t, Poly(c)).coeffs
        scale = max(1.0, np.max(np.abs(via_apply)))
        np.testing.assert_allclose(via_matrix, via_apply, atol=1e-13 * scale, rtol=0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9, 1.0])
    def test_matrix_matches_apply_on_a_degree_512_stack(self, t):
        members = [h for _, h in build_corpus(512)]
        coeffs = np.array([h.coeffs for h in members]).T
        via_matrix = finite_section(t, 512) @ coeffs
        via_apply = generalized_cesaro_apply(t, members).T
        scale = np.maximum(1.0, np.max(np.abs(via_apply), axis=0))
        assert np.all(np.max(np.abs(via_matrix - via_apply), axis=0) <= 1e-13 * scale)

    def test_real_read_only_and_built_in_one_allocation(self):
        # no gap, mask or complex copy beside the 8 (N+1)**2 bytes it returns
        fs, peak = traced_peak(lambda: finite_section(0.5, 1024))
        assert fs.dtype == np.float64 and not fs.flags.writeable
        assert peak <= 1.1 * 8 * 1025**2

    def test_shape_error_allocates_a_quarter_section_beside_its_argument(self):
        # its callers hold the section while it is measured, so it is read
        # in blocks of rows: a second (N+1)**2 array, or two blocks alive
        # at once, would raise the spectral sweep's peak memory
        fs = finite_section(0.5, 1024)
        error, peak = traced_peak(lambda: section_shape_error(fs))
        assert error == 0.0
        assert peak <= 8 * 1025**2 / 4

    @given(
        memory_params,
        st.integers(min_value=0, max_value=40),
        st.lists(
            st.tuples(
                st.integers(min_value=0),
                st.integers(min_value=0),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=200)
    def test_shape_error_matches_the_masked_copy_bitwise(self, t, degree, mutations):
        # entries set above, on and below the diagonal; the maximum of
        # absolute values is exact, so the blocks give the bits of one max
        section = finite_section(t, degree).copy()
        for row, col, value in mutations:
            section[row % (degree + 1), col % (degree + 1)] = value
        deviation = np.triu(section)
        deviation[np.diag_indices(degree + 1)] -= 1.0 / np.arange(1, degree + 2)
        expected = float(np.max(np.abs(deviation)))
        assert section_shape_error(section).hex() == expected.hex()

    def test_refuses_degree_past_cap_before_allocating(self):
        # accepted, the section would take 8 * (ST_DEGREE_CAP + 2)**2 bytes
        def refused():
            with pytest.raises(ValueError, match=f"exceeds the cap {ST_DEGREE_CAP}"):
                finite_section(0.5, ST_DEGREE_CAP + 1)

        assert traced_peak(refused)[1] < 100_000


class TestLogPowerIdentity:
    # the averaging operator maps g**k to the shifted -g**(k+1)/(k+1) for
    # g = log(1-z); the log-power-identity check bounds k = 1..4 together
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_discrepancy_small(self, k):
        g = -log_one_minus_inv(257).coeffs
        gk1 = g
        for _ in range(k):
            gk = gk1[:257]
            gk1 = np.convolve(gk, g)[:258]
        assert np.max(np.abs(cesaro_apply(Poly(gk)).coeffs + gk1[1:] / (k + 1))) <= 1e-10


class TestCorpus:
    def test_refuses_a_degree_below_four(self):
        with pytest.raises(ValueError, match="^corpus degree must be at least 4$"):
            build_corpus(3)

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
        randoms = build_corpus(64)[:50]
        assert all(name.startswith("random-") for name, _ in randoms)
        for _, p in randoms:
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
        w1 = WeightSpec.standard(1.0)
        v1 = WeightSpec.log_power(1)
        for t in (0.0, 0.5, 0.9):
            bound = 1.0 / ((1.0 - t) * (1.0 - 1.0 / np.e))
            for _, f in build_corpus(256)[:5]:
                scale = weighted_sup_norm(f, w1).value
                lhs = weighted_sup_norm(generalized_cesaro_apply(t, f), v1).value / scale
                assert lhs <= bound * (1 + 1e-6)
