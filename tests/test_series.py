import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab.series import (
    Poly,
    binomial_series,
    cauchy_product,
    horner_eval,
    log_one_minus_inv,
    monomial,
    poly_stack,
    require_count,
    shifted_pole,
    stack_product,
    truncate,
    vanishing_order,
)
from cesaro_lab.ergodic import eigenvector_ct, iterate_trace, require_trace_budget
from cesaro_lab.ergodic import spectral_dichotomy_report
from cesaro_lab.operators import build_corpus, cesaro_inverse_apply, finite_section
from cesaro_lab.operators import generalized_cesaro_apply, s_t_apply, s_t_rows
from cesaro_lab.resolvent import (
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
)
from cesaro_lab.verify import run_suite
from cesaro_lab.weights import (
    NormEstimate,
    WeightSpec,
    max_modulus_profile,
    require_samples,
    sup_norm_exceeds,
    weighted_sup_norm,
)

from oracles import compose, decimal_ring_values, mobius_coeffs

finite_complex = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=24)


def brute_product(a, b):
    out = np.zeros(len(a) + len(b) - 1, dtype=complex)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestPoly:
    def test_degree_and_length(self):
        p = Poly([1, 2, 3])
        assert p.degree == 2
        assert p.coeffs.shape == (3,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^coefficients must form a non-empty 1-d sequence$"):
            Poly([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="^coefficients must all be finite$"):
            Poly([1.0, np.nan])
        with pytest.raises(ValueError, match="^coefficients must all be finite$"):
            Poly([np.inf, 0.0])

    def test_monomial_and_truncate_refuse_a_negative_degree(self):
        with pytest.raises(ValueError, match="^power must be at least 0$"):
            monomial(-1)
        with pytest.raises(ValueError, match="^degree must be at least 0$"):
            truncate(Poly([1.0, 2.0]), -1)

    def test_coeffs_immutable(self):
        p = Poly([1, 2])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_truncate_cut_and_pad(self):
        p = Poly([1, 2, 3])
        assert np.array_equal(truncate(p, 1).coeffs, [1, 2])
        assert np.array_equal(truncate(p, 4).coeffs, [1, 2, 3, 0, 0])
        assert truncate(p, 2) is p


class TestHornerEval:
    @pytest.mark.parametrize("z", [np.nan, [0.5, np.inf], complex(0.5, np.nan)])
    def test_refuses_non_finite_points(self, z):
        with pytest.raises(ValueError, match="^evaluation points must be finite$"):
            horner_eval(Poly([1.0, 2.0]), z)

    def test_constant(self):
        assert horner_eval(Poly([1]), 0.5) == 1

    def test_identity_function(self):
        assert horner_eval(Poly([0, 1]), 0.3) == pytest.approx(0.3)

    def test_geometric_sum(self):
        # closed form for sum of 0.5**n, n = 0..10
        p = Poly([1] * 11)
        expected = (1 - 0.5**11) / (1 - 0.5)
        assert expected == 1.9990234375
        assert horner_eval(p, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_array_argument(self):
        p = Poly([1, 2, 3])
        zs = np.array([0.1, 0.2 + 0.1j])
        vals = horner_eval(p, zs)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(1 + 2 * 0.1 + 3 * 0.01)

    def test_stack_rows_match_members(self):
        rng = np.random.default_rng(9)
        members = [Poly(rng.normal(size=12) + 1j * rng.normal(size=12)) for _ in range(5)]
        zs = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 7)).reshape(7, 1)
        stacked = horner_eval(members, zs)
        assert stacked.shape == (5, 7, 1)
        for row, p in zip(stacked, members):
            assert np.array_equal(row, horner_eval(p, zs))
        assert np.array_equal(horner_eval(members, 0.5), [horner_eval(p, 0.5) for p in members])
        with pytest.raises(ValueError, match="one degree"):
            horner_eval([Poly([1]), Poly([1, 2])], 0.5)

    @pytest.mark.parametrize("degree", [7, 64, 513, 2048])
    def test_within_its_error_bound_of_plain_horner(self, degree):
        # the docstring's 4N u sum_k |c_k| |z|**k against 45-digit Horner
        # sums at the same double points, which decimals hold exactly, for
        # array and scalar z with |z| up to 1
        rng = np.random.default_rng(degree)
        p = Poly(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        radii = np.concatenate([np.ones(10), rng.uniform(0.0, 1.0, size=30)])
        zs = np.append(radii * np.exp(1j * rng.uniform(-np.pi, np.pi, size=40)), [1.0, -0.5])
        want = decimal_ring_values(p.coeffs, [(Decimal(z.real), Decimal(z.imag)) for z in zs.tolist()])
        tol = 4 * degree * 2.0**-53 * (np.abs(p.coeffs) @ np.abs(zs) ** np.arange(degree + 1)[:, None])
        assert np.all(np.abs(horner_eval(p, zs) - want) <= tol)
        for i, z in ((0, zs[0]), (39, complex(zs[39])), (40, 1.0), (41, -0.5)):
            assert abs(horner_eval(p, z) - want[i]) <= tol[i]

    @given(coeff_lists, coeff_lists, finite_complex, finite_complex, finite_complex)
    def test_linearity(self, a, b, alpha, beta, z):
        n = max(len(a), len(b))
        a = a + [0] * (n - len(a))
        b = b + [0] * (n - len(b))
        z = 0.3 * z / max(abs(z), 1.0)
        combined = horner_eval(Poly(np.multiply(alpha, a) + np.multiply(beta, b)), z)
        va, vb = horner_eval(Poly(a), z), horner_eval(Poly(b), z)
        tol = 1e-12 * (abs(alpha) * abs(va) + abs(beta) * abs(vb) + 1)
        assert abs(combined - (alpha * va + beta * vb)) <= tol


class TestCauchyProduct:
    def test_multiplicative_identity(self):
        q = Poly([2, 3 + 1j, 4])
        assert np.array_equal(cauchy_product(Poly([1]), q, degree=2).coeffs, q.coeffs)

    def test_one_minus_z_times_geometric(self):
        ones = Poly([1] * 8)
        out = cauchy_product(Poly([1, -1]), ones, degree=7)
        assert np.array_equal(out.coeffs, [1] + [0] * 7)

    def test_z_squared(self):
        out = cauchy_product(monomial(1), monomial(1), degree=2)
        assert np.array_equal(out.coeffs, [0, 0, 1])

    def test_refuses_a_negative_degree_first(self):
        with pytest.raises(ValueError, match="^degree must be at least 0$"):
            cauchy_product(Poly([1, 1]), Poly([1, 1]), degree=-1)

    @given(coeff_lists, coeff_lists)
    def test_matches_brute_force(self, a, b):
        got = cauchy_product(Poly(a), Poly(b), degree=len(a) + len(b) - 2).coeffs
        expected = brute_product(a, b)
        scale = max(1.0, np.max(np.abs(expected)))
        np.testing.assert_allclose(got, expected[: len(got)], atol=1e-12 * scale, rtol=0)

    @given(coeff_lists, coeff_lists)
    def test_commutative(self, a, b):
        degree = len(a) + len(b) - 2
        pq = cauchy_product(Poly(a), Poly(b), degree=degree).coeffs
        qp = cauchy_product(Poly(b), Poly(a), degree=degree).coeffs
        scale = max(1.0, np.max(np.abs(pq)))
        np.testing.assert_allclose(pq, qp, atol=1e-13 * scale, rtol=0)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_associative(self, a, b, c):
        degree = len(a) + len(b) + len(c) - 3
        left = cauchy_product(cauchy_product(Poly(a), Poly(b), degree), Poly(c), degree).coeffs
        right = cauchy_product(Poly(a), cauchy_product(Poly(b), Poly(c), degree), degree).coeffs
        scale = max(1.0, np.max(np.abs(left)))
        np.testing.assert_allclose(left, right, atol=1e-12 * scale, rtol=0)


class TestBinomialSeries:
    def test_geometric(self):
        out = binomial_series(-1, 6)
        assert np.array_equal(out.coeffs, np.ones(7))

    def test_one_minus_z(self):
        out = binomial_series(1, 5)
        assert np.array_equal(out.coeffs, [1, -1, 0, 0, 0, 0])

    def test_derivative_of_geometric(self):
        # (1-z)**-2 = d/dz (1-z)**-1 termwise, so coefficient n is n+1
        out = binomial_series(-2, 10)
        assert np.allclose(out.coeffs, np.arange(1, 12))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="^degree must be at least 0$"):
            binomial_series(-1, -1)

    def test_rejects_non_finite_alpha(self):
        with pytest.raises(ValueError, match="^alpha must be finite, got inf$"):
            binomial_series(np.inf, 4)


class TestShiftedPole:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_binomial_coefficients(self, n):
        # z**(n-1) (1-z)**-n has coefficient C(k, n-1) at z**k; the ratio
        # recurrence of binomial_series rounds, within a few ulps
        got = shifted_pole(n, 40).coeffs
        exact = np.array([math.comb(k, n - 1) for k in range(41)], dtype=float)
        assert got.size == 41
        assert np.all(got.imag == 0)
        assert np.all(got[: n - 1] == 0) and got[n - 1] == 1
        np.testing.assert_allclose(got.real, exact, rtol=2e-15, atol=0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            shifted_pole(0, 8)
        with pytest.raises(ValueError, match="^degree for n = 4 must be at least 3$"):
            shifted_pole(4, 1)


class TestLogSeries:
    def test_first_terms(self):
        out = log_one_minus_inv(3)
        np.testing.assert_allclose(out.coeffs, [0, 1, 0.5, 1 / 3])

    def test_degree_one(self):
        assert np.array_equal(log_one_minus_inv(1).coeffs, [0, 1])

    def test_sign_flip_gives_log_one_minus(self):
        # series of log(1-z) is the negation
        g = Poly(-log_one_minus_inv(4).coeffs)
        np.testing.assert_allclose(g.coeffs, [0, -1, -0.5, -1 / 3, -0.25])

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            log_one_minus_inv(0)


#: Each count argument of the package, as a call of it alone and the name
#: that its refusal gives it.
COUNTED = {
    "monomial": (lambda v: monomial(v), "power"),
    "truncate": (lambda v: truncate(Poly([1, 2]), v), "degree"),
    "cauchy_product": (lambda v: cauchy_product(Poly([1]), Poly([1]), v), "degree"),
    "binomial_series": (lambda v: binomial_series(-1, v), "degree"),
    "shifted_pole-n": (lambda v: shifted_pole(v, 8), "n"),
    "shifted_pole-degree": (lambda v: shifted_pole(2, v), "degree for n = 2"),
    "log_one_minus_inv": (lambda v: log_one_minus_inv(v), "degree"),
    "s_t_rows": (lambda v: s_t_rows(0.5, v), "degree"),
    "finite_section": (lambda v: finite_section(0.5, v), "degree"),
    "build_corpus": (lambda v: build_corpus(v), "corpus degree"),
    "eigenvector_ct-m": (lambda v: eigenvector_ct(0.5, v, 8), "m"),
    "eigenvector_ct-degree": (lambda v: eigenvector_ct(0.5, 2, v), "degree for m = 2"),
    "require_samples": (lambda v: require_samples(v), "samples per circle"),
    "require_trace_budget": (lambda v: require_trace_budget(v, 1024), "n_max"),
    "iterate_trace": (
        lambda v: iterate_trace(0.5, Poly([1, 1]), WeightSpec.log_power(1), 16, samples=v),
        "samples per circle",
    ),
    "spectrum-grid_points": (
        lambda v: spectral_dichotomy_report(128, grid_points=v),
        "grid_points",
    ),
    "spectrum-degree": (lambda v: spectral_dichotomy_report(v, grid_points=3), "degree"),
    "spectrum-degrees": (
        lambda v: spectral_dichotomy_report(64, degrees=(v, 128), grid_points=3),
        "section degree",
    ),
    "WeightSpec-log": (lambda v: WeightSpec("log", v), "log weight order k"),
    "run_suite": (lambda v: run_suite("all", v), "degree"),
}


class TestRequireCount:
    @pytest.mark.parametrize("value", [8.5, np.nan, np.inf])
    @pytest.mark.parametrize("entry", list(COUNTED))
    def test_every_count_refuses_a_non_integer_by_name(self, entry, value):
        call, what = COUNTED[entry]
        message = f"^{re.escape(what)} must be an integer, got {value}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    def test_returns_an_int_for_any_integer_value(self):
        for value in (1024, 1024.0, np.int64(1024), np.float64(1024.0)):
            count = require_count(value, "samples per circle", 8, 8192)
            assert count == 1024 and type(count) is int

    def test_refuses_by_its_bounds_without_a_float(self):
        # float(10**400) overflows: the count is compared as an int
        huge = 10**400
        with pytest.raises(ValueError, match=f"^degree {huge} exceeds the cap 2048$"):
            require_count(huge, "degree", cap=2048)
        with pytest.raises(ValueError, match=f"^degree {int(1e300)} exceeds the cap 2048$"):
            require_count(1e300, "degree", cap=2048)
        with pytest.raises(ValueError, match="^degree must be at least 0$"):
            require_count(-huge, "degree")
        with pytest.raises(ValueError, match="^degree must be an integer, got 8$"):
            require_count("8", "degree")
        assert require_count(huge, "degree") == huge


class TestCompose:
    def test_identity_inner_is_exact(self):
        p = Poly([2, 1 - 1j, 0.5, 3])
        assert np.array_equal(compose(p, Poly([0, 1])).coeffs, p.coeffs)

    def test_identity_outer_is_exact(self):
        q = Poly([0, 0.3 + 0.1j, 0.2])
        assert np.array_equal(compose(Poly([0, 1]), q).coeffs, q.coeffs)

    def test_geometric_in_z_squared(self):
        # 1/(1-z**2) alternates 1, 0, 1, 0, ...
        p = Poly([1] * 9)
        out = compose(p, Poly([0, 0, 1]))
        expected = np.zeros(out.degree + 1)
        expected[::2] = 1.0
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-14)

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(ValueError):
            compose(Poly([1, 1]), Poly([1e-30, 1]))

    @given(
        st.lists(finite_complex, min_size=1, max_size=8),
        st.lists(finite_complex, min_size=1, max_size=7),
        finite_complex,
    )
    @settings(max_examples=60)
    def test_point_evaluation_consistency(self, a, q_tail, z):
        # with the full uncapped degree the composition is a polynomial
        # identity, so evaluation must commute with composition
        p = Poly(a)
        q = Poly([0] + q_tail)
        z = 0.4 * z / max(abs(z), 1.0)
        comp = compose(p, q, degree=p.degree * max(q.degree, 1))
        direct = horner_eval(p, horner_eval(q, z))
        via = horner_eval(comp, z)
        scale = 1.0 + max(abs(direct), abs(via))
        assert abs(via - direct) <= 1e-10 * scale


class TestMobius:
    def test_t_zero_is_identity_map(self):
        out = mobius_coeffs(0.0, 5)
        assert np.array_equal(out.coeffs, [0, 1, 0, 0, 0, 0])

    def test_half_ratio(self):
        # a = 1/2 gives coefficients (0, 1/2, 1/4, 1/8, ...)
        out = mobius_coeffs(np.log(2.0), 4)
        np.testing.assert_allclose(out.coeffs, [0, 0.5, 0.25, 0.125, 0.0625], rtol=1e-14)

    @given(st.floats(min_value=0, max_value=20, allow_nan=False))
    def test_constant_term_exactly_zero(self, t):
        assert mobius_coeffs(t, 3).coeffs[0] == 0

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            mobius_coeffs(-0.1, 3)


class TestVanishingOrder:
    def test_order_two(self):
        assert vanishing_order(Poly([0, 0, 3])) == 2

    def test_nonzero_constant_is_zero_order(self):
        assert vanishing_order(Poly([5, 1])) == 0

    def test_zero_polynomial_sentinel(self):
        assert vanishing_order(Poly(np.zeros(5))) == 5

    def test_threshold_separates_noise(self):
        assert vanishing_order(Poly([1e-15, 1.0])) == 1


#: Every array-first kernel, as a function of its Poly-or-stack argument.
KERNELS = {
    "horner_eval": lambda h: horner_eval(h, off_cut_sample_points()),
    "generalized_cesaro_apply": lambda h: generalized_cesaro_apply(0.5, h),
    "cesaro_inverse_apply": cesaro_inverse_apply,
    "s_t_apply": lambda h: s_t_apply(0.3, h),
    "resolvent_recurrence": lambda h: resolvent_recurrence(2j, h),
    "resolvent_integral_profile": lambda h: resolvent_integral_profile(2j, h, [0.5j, 0.3]),
    "resolvent_semigroup": lambda h: resolvent_semigroup(-1.0, h),
    "max_modulus_profile": lambda h: max_modulus_profile(h, [0.0, 0.3, 0.6]),
    "weighted_sup_norm": lambda h: weighted_sup_norm(h, WeightSpec.log_power(1)),
    "sup_norm_exceeds": lambda h: sup_norm_exceeds(h, [0.3, 0.6], [(None, 2.0, 1.0)])[0][0],
}


def result_bits(value):
    """The type, shape and bytes of one kernel result."""
    if isinstance(value, Poly):
        value = value.coeffs
    elif isinstance(value, NormEstimate):
        value = np.array([value.value, value.argmax_radius])
    return type(value), np.shape(value), np.asarray(value).tobytes()


#: Four lam that the recurrence and the integral route take; the semigroup
#: route takes only Re lam < 0.
SHAPE_LAMS = (1j, 2j, -1 + 1j, 3.0)

#: The resolvent routes as functions of lam and h: four lam the route takes,
#: whether it returns coefficients, and the length of a member's result.
ROUTES = {
    "recurrence": (resolvent_recurrence, SHAPE_LAMS, True, 17),
    "integral": (
        lambda lam, h: resolvent_integral_profile(lam, h, off_cut_sample_points()),
        SHAPE_LAMS,
        False,
        100,
    ),
    "integral_at_one_point": (
        lambda lam, h: resolvent_integral_profile(lam, h, 0.5),
        SHAPE_LAMS,
        False,
        1,
    ),
    "semigroup": (resolvent_semigroup, (-1.0, -0.5 + 0.3j, -1e-3, -100.0), True, 17),
}

#: lam as the caller may give it, from a route's lam.
LAM_FORMS = {
    "number": lambda lams: lams[0],
    "0d_array": lambda lams: np.array(lams[0]),
    "list": lambda lams: [lams[0]],
    "array": np.array,
}

SHAPE_MEMBERS = [truncate(monomial(0), 16), truncate(monomial(1), 16), log_one_minus_inv(16)]

#: h as the caller may give it.
H_FORMS = {
    "Poly": SHAPE_MEMBERS[0],
    "list_of_one": SHAPE_MEMBERS[:1],
    "list": SHAPE_MEMBERS,
    "2d_array": np.array([p.coeffs for p in SHAPE_MEMBERS]),
}


def int_bits(a):
    """The int64 view of a complex array, copied to C order if need be."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("h_form", H_FORMS)
@pytest.mark.parametrize("lam_form", LAM_FORMS)
@pytest.mark.parametrize("route", ROUTES)
def test_results_take_the_shape_of_lam_and_h(route, lam_form, h_form):
    # series.as_given drops the lam axis of a number lam and the member axis
    # of a Poly h, and hands back C order below three axes
    solve, lams, coefficients, width = ROUTES[route]
    lam, h = LAM_FORMS[lam_form](lams), H_FORMS[h_form]
    lam_list = [complex(v) for v in np.ravel(lam)]
    members = poly_stack(h)
    index = (0 if np.ndim(lam) == 0 else slice(None), 0 if isinstance(h, Poly) else slice(None))
    shape = (len(lam_list), len(members), width)
    singles = [[solve(v, Poly(row)) for row in members] for v in lam_list]
    assert all(isinstance(s, Poly) == coefficients for row in singles for s in row)
    want = np.array([[s.coeffs if coefficients else s for s in row] for row in singles])[index]
    got = solve(lam, h)
    if coefficients and np.ndim(lam) == 0 and isinstance(h, Poly):
        assert isinstance(got, Poly)
        got = got.coeffs
    else:
        assert type(got) is np.ndarray
    assert got.shape == want.shape == np.empty(shape)[index].shape
    assert got.ndim == 3 or got.flags.c_contiguous
    # each row is the call on one number lam and one Poly, bit for bit
    assert np.array_equal(int_bits(got), int_bits(want))


class TestStackBoundary:
    """One Poly, a sequence of Polys of one degree or a finite 2-d array,
    for every kernel."""

    member = Poly(np.random.default_rng(41).normal(size=(33, 2)) @ [1.0, 1j])
    # a complex, a real and a conjugated member
    members = [member, Poly(member.coeffs.real), Poly(member.coeffs.conj())]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_poly_gives_first_result_of_its_stack(self, kernel):
        single = KERNELS[kernel](self.member)
        stacked = KERNELS[kernel]([self.member])
        assert len(stacked) == 1
        assert result_bits(single) == result_bits(stacked[0])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_each_member_gets_the_bits_of_its_own_call(self, kernel):
        # ten members, so over two blocks of series.stack_product, and one of
        # vanishing order 5 in a stack of order 0
        shifted = Poly(np.where(np.arange(33) < 5, 0, self.member.coeffs))
        stack = self.members * 3 + [shifted]
        stacked = KERNELS[kernel](stack)
        assert [result_bits(x) for x in stacked] == [result_bits(KERNELS[kernel](p)) for p in stack]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_array_gives_the_bits_of_its_list(self, kernel):
        # Fortran order, so the kernel sees only the C-ordered copy
        listed = KERNELS[kernel](self.members)
        arrayed = KERNELS[kernel](np.asfortranarray([p.coeffs for p in self.members]))
        assert type(arrayed) is type(listed)
        assert [result_bits(x) for x in arrayed] == [result_bits(x) for x in listed]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_array_argument_is_left_unchanged(self, kernel):
        # the kernels work in place on their own copy, never on the caller's
        given = np.array([p.coeffs for p in self.members])
        before = given.tobytes()
        KERNELS[kernel](given)
        assert given.tobytes() == before

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "given",
        [
            "empty",
            "mixed degrees",
            "bare array",
            "3-d array",
            "non-finite array",
            "no members",
            "no coefficients",
        ],
    )
    def test_refuses_anything_else(self, kernel, given):
        stack = np.array([p.coeffs for p in self.members])
        h = {
            "empty": [],
            "mixed degrees": [self.member, truncate(self.member, 16)],
            "bare array": self.member.coeffs,
            "3-d array": stack[None],
            "non-finite array": np.where(np.arange(33) == 5, np.nan, stack),
            "no members": stack[:0],
            "no coefficients": stack[:, :0],
        }[given]
        with pytest.raises(ValueError, match="one degree"):
            KERNELS[kernel](h)

    def test_vanishing_order_of_a_stack_is_its_members_least(self):
        assert vanishing_order([Poly([0, 0, 3]), Poly([0, 1e-15, 2]), Poly([0, 4, 0])]) == 1
        assert vanishing_order([Poly(np.zeros(4)), Poly(np.zeros(4))]) == 4
        assert vanishing_order(np.array([[0, 0, 3], [0, 1e-15, 2], [0, 4, 0]])) == 1


def random_array(kind, shape, seed):
    """Normal samples of the given shape, with a normal imaginary part when
    ``kind`` is "complex"."""
    rng = np.random.default_rng(seed)
    real = rng.normal(size=shape)
    return real + 1j * rng.normal(size=shape) if kind == "complex" else real


@pytest.mark.parametrize("stack_kind", ["real", "complex"])
@pytest.mark.parametrize("m_kind", ["real", "complex"])
class TestStackProduct:
    """series.stack_product for a real or complex matrix with a real or
    complex stack: 20 members of length 257 fill two blocks of 16 real
    columns, or three of 8 complex ones, and 150 matrix rows (300 real ones
    for a complex m) need several row blocks of at most
    SERIAL_PRODUCT_SIZE multiply-adds."""

    def operands(self, m_kind, stack_kind):
        return random_array(m_kind, (150, 257), 5), random_array(stack_kind, (20, 257), 6)

    def test_each_member_gets_the_bits_of_its_own_call(self, m_kind, stack_kind):
        m, stack = self.operands(m_kind, stack_kind)
        alone = np.array([stack_product(m, c[None])[0] for c in stack])
        order = np.random.default_rng(7).permutation(len(stack))
        for indices in (np.arange(len(stack)), order, order[:11], order[::-1][:3]):
            got = stack_product(m, stack[indices])
            assert got.tobytes() == alone[indices].tobytes()

    def test_stays_within_rounding_of_per_member_products(self, m_kind, stack_kind):
        # each side is within (K + 2) u sum_k |m_nk| |c_k| of the exact product
        # to first order, in its real and its imaginary part (u = 2**-53, K the
        # length of a row; Higham, Accuracy and Stability of Numerical
        # Algorithms, section 3.1, plus two roundings of a complex product)
        m, stack = self.operands(m_kind, stack_kind)
        bound = 2 * (m.shape[1] + 2) * 2.0**-53 * (np.abs(stack) @ np.abs(m).T)
        gap = stack_product(m, stack) - np.array([m @ c for c in stack])
        assert np.all(np.abs(gap.real) <= bound) and np.all(np.abs(gap.imag) <= bound)

    def test_result_is_real_only_for_real_operands(self, m_kind, stack_kind):
        m, stack = self.operands(m_kind, stack_kind)
        got = stack_product(m, stack)
        assert got.shape == (20, 150) and got.flags.c_contiguous
        assert got.dtype == (float if m_kind == stack_kind == "real" else complex)
