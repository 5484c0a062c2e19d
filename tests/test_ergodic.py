from math import comb

import numpy as np
import pytest

from cesaro_lab import ergodic
from cesaro_lab.ergodic import (
    GRID_POINTS_CAP,
    N_MAX_CAP,
    eigenvector_ct,
    iterate_trace,
    spectral_dichotomy_report,
)
from cesaro_lab.operators import ST_DEGREE_CAP, cesaro_apply, generalized_cesaro_apply
from cesaro_lab.resolvent import resolvent_recurrence
from cesaro_lab.series import Poly, log_one_minus_inv, monomial, shifted_pole, truncate
from cesaro_lab.weights import (
    SAMPLES_CAP,
    WeightSpec,
    default_radius_grid,
    max_modulus_profile,
    weight_eval,
    weighted_sup_norm,
)

from oracles import traced_peak


def refusal_peak_bytes(run, match):
    """Peak bytes allocated while ``run()`` raises a ValueError matching
    ``match``: a budget refused before any work allocates almost nothing."""

    def refused():
        with pytest.raises(ValueError, match=match):
            run()

    return traced_peak(refused)[1]


class TestCesaroEigenpairs:
    # series.shifted_pole(n, N) truncates the eigenvector z**(n-1) (1-z)**-n
    # of the averaging operator, for the eigenvalue 1/n
    def test_first_eigenvector_is_geometric(self):
        x = shifted_pole(1, 32)
        assert np.array_equal(x.coeffs, np.ones(33))
        image = cesaro_apply(x)
        np.testing.assert_allclose(image.coeffs, 1.0 * x.coeffs, rtol=1e-15)

    def test_second_eigenvector_arithmetic_series(self):
        x = shifted_pole(2, 24)
        n = np.arange(25)
        assert np.allclose(x.coeffs, n)
        # averaged partial sums of 0,1,..,n: (n(n+1)/2)/(n+1) = n/2
        image = cesaro_apply(x)
        np.testing.assert_allclose(image.coeffs, n / 2.0, atol=1e-14)
        np.testing.assert_allclose(image.coeffs, 0.5 * x.coeffs, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_residual_tiny_at_large_degree(self, n):
        x = shifted_pole(n, 512)
        image = cesaro_apply(x).coeffs
        scale = np.max(np.abs(x.coeffs))
        residual = np.max(np.abs(image - (1.0 / n) * x.coeffs))
        assert residual <= 1e-12 * scale

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            shifted_pole(0, 16)
        with pytest.raises(ValueError, match="^degree must be at least n - 1 = 7$"):
            shifted_pole(8, 4)


class TestMemoryEigenvectors:
    def test_m_zero_is_geometric_in_t(self):
        x = eigenvector_ct(0.5, 0, 16)
        np.testing.assert_allclose(x.coeffs, 0.5 ** np.arange(17), rtol=1e-14)
        # eigenvalue 1/(m+1) = 1
        image = generalized_cesaro_apply(0.5, x)
        np.testing.assert_allclose(image.coeffs, 1.0 * x.coeffs, rtol=1e-14)

    def test_hardy_case_is_unit_vector(self):
        x = eigenvector_ct(0.0, 3, 8)
        expected = np.zeros(9)
        expected[3] = 1.0
        assert np.array_equal(x.coeffs, expected)
        # eigenvalue 1/(m+1) = 0.25, exact: the Hardy operator is diagonal
        assert np.array_equal(generalized_cesaro_apply(0.0, x).coeffs, 0.25 * expected)

    @pytest.mark.parametrize("t,m", [(0.3, 1), (0.5, 2), (0.9, 4)])
    def test_matches_binomial_closed_form(self, t, m):
        # the eigen-equation integrates to x_n = C(n, m) * t**(n-m)
        x = eigenvector_ct(t, m, 64)
        expected = np.array(
            [comb(n, m) * t ** (n - m) if n >= m else 0.0 for n in range(65)]
        )
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(x.coeffs, expected, atol=1e-12 * scale, rtol=0)

    def test_residual_and_l1_tail_small_memory(self):
        x = eigenvector_ct(0.5, 2, 512)
        image = generalized_cesaro_apply(0.5, x).coeffs
        scale = np.max(np.abs(x.coeffs))
        assert np.max(np.abs(image - (1.0 / 3) * x.coeffs)) <= 1e-12 * scale
        tail = np.sum(np.abs(x.coeffs[257:]))
        assert tail <= 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\)$"):
            eigenvector_ct(1.0, 0, 8)
        with pytest.raises(ValueError, match=r"^m must lie in 0\.\.degree$"):
            eigenvector_ct(0.5, 9, 8)


class TestIterateTrace:
    def test_projection_errors_shrink(self):
        trace = iterate_trace(0.5, truncate(monomial(0), 128), WeightSpec.log_power(1), 64)
        errors = np.asarray(trace.projection_errors)
        assert errors[-1] <= 0.1 * errors[0]
        assert len(trace.iterate_norms) == 64
        assert len(trace.mean_increments) == 32

    def test_power_bounded_iterates(self):
        trace = iterate_trace(0.5, truncate(monomial(0), 128), WeightSpec.log_power(1), 64)
        head = max(trace.iterate_norms[:8])
        assert max(trace.iterate_norms) <= 2.0 * head

    def test_boundary_case_has_no_projection_errors(self):
        trace = iterate_trace(1.0, truncate(monomial(0), 64), WeightSpec.log_power(1), 16)
        assert trace.projection_errors == ()
        assert len(trace.mean_norms) == 16

    def test_mean_recombination_identity(self):
        # T**n / n equals the n-average minus (n-1)/n times the previous one
        t = 0.5
        f = truncate(monomial(0), 64)
        current = f.coeffs.copy()
        mean_prev = None
        mean = np.zeros_like(current)
        for n in range(1, 17):
            current = generalized_cesaro_apply(t, Poly(current)).coeffs
            mean_prev, mean = mean, mean + (current - mean) / n
            if n >= 2:
                lhs = current / n
                rhs = mean - (n - 1) / n * mean_prev
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_matches_per_vector_norms(self):
        # one weighted_sup_norm call per vector, as the trace was once taken;
        # the longer trace crosses a batch boundary
        f = log_one_minus_inv(64)
        w = WeightSpec.log_power(1)

        def norm_of(vec):
            return weighted_sup_norm(Poly(vec), w).value

        for t, n_max in ((0.5, 16), (1.0, 16), (0.5, 72)):
            target = f.coeffs[0] * t ** np.arange(65)
            current, mean = f.coeffs.copy(), np.zeros(65, dtype=complex)
            means, iterate_norms, mean_norms, projection_errors = [], [], [], []
            for n in range(1, n_max + 1):
                current = generalized_cesaro_apply(t, Poly(current)).coeffs
                mean = mean + (current - mean) / n
                means.append(mean.copy())
                iterate_norms.append(norm_of(current))
                mean_norms.append(norm_of(mean))
                projection_errors.append(norm_of(mean - target))
            halves = range(1, n_max // 2 + 1)
            increments = [norm_of(means[2 * n - 1] - means[n - 1]) for n in halves]
            trace = iterate_trace(t, f, w, n_max)
            assert trace.iterate_norms == tuple(iterate_norms)
            assert trace.mean_norms == tuple(mean_norms)
            assert trace.mean_increments == tuple(increments)
            assert trace.projection_errors == (tuple(projection_errors) if t < 1 else ())

    def test_refuses_budgets_past_caps_before_allocating(self):
        f = truncate(monomial(0), 512)
        past_cap = truncate(monomial(0), ST_DEGREE_CAP + 1)
        w = WeightSpec.log_power(1)
        runs = (
            (lambda: iterate_trace(0.5, f, w, N_MAX_CAP + 1), f"cap {N_MAX_CAP}"),
            (lambda: iterate_trace(0.5, f, w, 16, samples=SAMPLES_CAP + 1), "samples"),
            (lambda: iterate_trace(0.5, past_cap, w, 16), f"degree {ST_DEGREE_CAP + 1} exceeds"),
        )
        for run, match in runs:
            assert refusal_peak_bytes(run, match) < 100_000

    def test_frees_each_array_once_it_is_normed(self):
        # the iterates and the means take 2.1 MB each at degree 512 and 256
        # iterations; the iterates go before the means are normed, and the
        # projection differences overwrite the means, so no third array of
        # that size is alive beside the norm's own work
        f = truncate(monomial(0), 512)
        w = WeightSpec.log_power(1)
        _, peak = traced_peak(lambda: iterate_trace(0.5, f, w, 256))
        assert peak <= 8.5e6

    def test_accepts_readme_budgets(self):
        f = truncate(monomial(0), 16)
        trace = iterate_trace(0.5, f, WeightSpec.log_power(1), 256, samples=1024)
        assert len(trace.iterate_norms) == 256

    def test_rejects_bad_arguments(self):
        f = truncate(monomial(0), 16)
        with pytest.raises(ValueError, match="^n_max must be at least 8$"):
            iterate_trace(0.5, f, WeightSpec.log_power(1), 4)
        with pytest.raises(ValueError, match="^f must be nonzero$"):
            iterate_trace(0.5, Poly(np.zeros(8)), WeightSpec.log_power(1), 16)


class TestSpectralDichotomy:
    def test_report_classifications(self):
        report = spectral_dichotomy_report(64, degrees=(64, 256, 1024), grid_points=17)
        assert report.degrees == (64, 256, 1024)
        for err in report.section_diagonal_errors.values():
            assert err <= 1e-14
        by_lam = {pt.lam: pt for pt in report.points}
        # excluded: eigenvalues 1 and 1/2 and the origin sit on this grid
        assert 1.0 + 0j not in by_lam
        assert 0.5 + 0j not in by_lam
        assert 0j not in by_lam
        left = [pt for pt in report.points if pt.lam.real <= 0]
        assert left and all(pt.classification == "stable" for pt in left)
        right = [pt for pt in report.points if pt.lam.real > 0]
        assert any(pt.classification == "growing" for pt in right)
        stable_point = by_lam[-1.0 + 0j]
        assert stable_point.classification == "stable"

    def test_conjugate_points_share_norms(self):
        report = spectral_dichotomy_report(64, degrees=(64, 128), grid_points=17)
        by_lam = {pt.lam: pt for pt in report.points}
        mirrored = [pt for pt in report.points if pt.lam.imag and pt.lam.conjugate() in by_lam]
        assert len(mirrored) == 272
        for pt in mirrored:
            twin = by_lam[pt.lam.conjugate()]
            assert pt.norms == twin.norms and pt.growth_ratio == twin.growth_ratio

    def test_solves_one_lambda_per_conjugate_pair(self, monkeypatch):
        # 285 lambdas: 13 on the real axis and 136 conjugate pairs
        solved = {}

        def counted(lam, h):
            key = (h.degree, complex(h.coeffs[0]))  # the probe 1 has h_0 = 1, log(1/(1-z)) 0
            solved[key] = solved.get(key, 0) + len(lam)
            return resolvent_recurrence(lam, h)

        monkeypatch.setattr(ergodic, "resolvent_recurrence", counted)
        report = spectral_dichotomy_report(64, degrees=(64, 128), grid_points=17)
        assert len(report.points) == 285
        assert solved == {(128, h0): 149 for h0 in (1, 0)}

    def test_one_solve_call_per_probe_at_the_top_degree(self, monkeypatch):
        calls = []

        def counted(lam, h):
            calls.append(h.degree)
            return resolvent_recurrence(lam, h)

        monkeypatch.setattr(ergodic, "resolvent_recurrence", counted)
        spectral_dichotomy_report(64, degrees=(64, 128), grid_points=17)
        assert calls == [128, 128]

    def test_top_degree_solves_truncate_bitwise_to_lower_degree_solves(self, monkeypatch):
        # the README sweep's degrees and lambdas: each probe's one solve at
        # degree 1024, cut to 64 and 256, is bit for bit the solve there
        solves = []

        def recorded(lam, h):
            solutions = resolvent_recurrence(lam, h)
            solves.append((lam, h, solutions))
            return solutions

        monkeypatch.setattr(ergodic, "resolvent_recurrence", recorded)
        report = spectral_dichotomy_report(1024, grid_points=17)
        assert report.degrees == (64, 256, 1024)
        probes = (lambda d: truncate(monomial(0), d), log_one_minus_inv)
        for (lams, h, solutions), probe in zip(solves, probes, strict=True):
            assert h.coeffs.tobytes() == probe(1024).coeffs.tobytes()
            for d in (64, 256):
                for own, top in zip(resolvent_recurrence(lams, probe(d)), solutions, strict=True):
                    assert own.tobytes() == top[: d + 1].tobytes()
        # run_spectral_sweep.py prints the norm tuples, so they stay floats
        assert all(type(v) is float for pt in report.points for v in pt.norms)

    @pytest.mark.parametrize("grid_points", [5, 7])
    def test_matches_per_lambda_solves(self, grid_points):
        # linspace(-2, 2, 7) is not bitwise symmetric about 0, so most of its
        # lambdas have no exact conjugate in the grid and are solved directly
        degrees = (64, 128)
        report = spectral_dichotomy_report(64, degrees=degrees, grid_points=grid_points)
        lams = {pt.lam for pt in report.points}
        unmatched = [lam for lam in lams if lam.conjugate() not in lams]
        assert bool(unmatched) == (grid_points == 7)
        v1, v2 = WeightSpec.log_power(1), WeightSpec.log_power(2)

        def profile_norm(p, w, grid):
            # the maximum over every radius's transform: no rows skipped
            return (weight_eval(w, grid) * max_modulus_profile(p, grid)).max()

        for pt in report.points:
            for norm in (lambda p, w, grid: weighted_sup_norm(p, w).value, profile_norm):
                expected = []
                for d in degrees:
                    grid = default_radius_grid(d)
                    expected.append(max(
                        norm(resolvent_recurrence(pt.lam, h), v2, grid) / norm(h, v1, grid)
                        for h in (truncate(monomial(0), d), log_one_minus_inv(d))
                    ))
                np.testing.assert_allclose(pt.norms, expected, rtol=1e-14, atol=0)
                assert pt.growth_ratio == pytest.approx(expected[-1] / expected[0], rel=1e-14)

    def test_holds_one_section_at_a_time(self):
        # each section is measured without a second (N+1)**2 array beside
        # it, and the sweep that follows needs less than one section
        _, peak = traced_peak(lambda: spectral_dichotomy_report(1024, grid_points=17))
        assert peak <= 1.25 * 8 * 1025**2

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError, match="^degree must be at least 64$"):
            spectral_dichotomy_report(32, grid_points=17)

    def test_refuses_budgets_past_caps_before_allocating(self):
        # accepted, degree 1024 would first build five 8.4 MB sections, and
        # a degree past the section cap five 34 MB ones
        past_cap = ST_DEGREE_CAP + 1
        runs = (
            (lambda: spectral_dichotomy_report(1024, grid_points=GRID_POINTS_CAP + 1), "grid"),
            (
                lambda: spectral_dichotomy_report(past_cap, grid_points=17),
                f"degree {past_cap} exceeds",
            ),
            (
                lambda: spectral_dichotomy_report(64, degrees=(64, past_cap), grid_points=17),
                "exceeds the cap",
            ),
        )
        for run, match in runs:
            assert refusal_peak_bytes(run, match) < 100_000

    def test_accepts_sweep_script_degree(self):
        # run_spectral_sweep.py defaults to degree 1024
        report = spectral_dichotomy_report(1024, grid_points=1)
        assert report.degrees == (64, 256, 1024)
        assert all(err <= 1e-14 for err in report.section_diagonal_errors.values())

    def test_rejects_degrees_not_increasing(self):
        # the growth ratio divides the last degree's norm by the first's, so
        # (1024, 64) would read growth as decay and a single degree as 1
        for degrees in ((1024, 64), (256, 64), (64, 64), (64, 256, 128)):
            with pytest.raises(ValueError, match="strictly increasing"):
                spectral_dichotomy_report(64, degrees=degrees, grid_points=3)
        with pytest.raises(ValueError, match="at least two section degrees"):
            spectral_dichotomy_report(64, degrees=(256,), grid_points=3)
        # the default degrees for 64 collapse to the single degree 64
        with pytest.raises(ValueError, match="at least two section degrees"):
            spectral_dichotomy_report(64, grid_points=3)

    def test_refuses_section_degree_below_one_before_allocating(self):
        # the v1 norm of log(1/(1-z)) truncated to degree 0 is 0, and each
        # growth ratio divides by it
        for degrees in ((0, 64), (-1, 64)):
            run = lambda: spectral_dichotomy_report(64, degrees=degrees, grid_points=3)
            assert refusal_peak_bytes(run, "^section degrees must be at least 1$") < 100_000
