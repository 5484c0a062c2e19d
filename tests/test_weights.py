import tracemalloc

import numpy as np
import pytest

from cesaro_lab.series import Poly, binomial_series, horner_eval, log_one_minus_inv, monomial, truncate
from cesaro_lab.weights import (
    JUNCTION_RADIUS,
    SAMPLES_CAP,
    STACK_BLOCK_BYTES,
    WeightSpec,
    default_radius_grid,
    growth_classify,
    max_modulus_profile,
    weight_eval,
    weighted_sup_norm,
)
from test_resolvent import cpu_per_wall


def random_stack(count, size, seed=23):
    rng = np.random.default_rng(seed)
    return [Poly(rng.normal(size=size) + 1j * rng.normal(size=size)) for _ in range(count)]


class TestWeightEval:
    def test_log_weight_at_centre(self):
        assert weight_eval(WeightSpec.log_power(1), 0.0) == 1.0

    def test_log_weight_two_e_folds(self):
        # -log(1-r) = 2 there, so the order-1 weight is 1/2
        r = 1.0 - np.exp(-2.0)
        assert weight_eval(WeightSpec.log_power(1), r) == pytest.approx(0.5, rel=1e-14)
        assert weight_eval(WeightSpec.log_power(3), r) == pytest.approx(0.125, rel=1e-14)

    def test_standard_weight(self):
        assert weight_eval(WeightSpec.standard(1.0), 0.5) == pytest.approx(0.5)
        assert weight_eval(WeightSpec.standard(2.0), 0.25) == pytest.approx(0.5625)

    def test_junction_continuity(self):
        w = WeightSpec.log_power(2)
        below = weight_eval(w, JUNCTION_RADIUS - 1e-12)
        above = weight_eval(w, JUNCTION_RADIUS + 1e-12)
        assert below == pytest.approx(1.0, abs=1e-10)
        assert above == pytest.approx(1.0, abs=1e-10)

    def test_power_identity_is_exact(self):
        r = default_radius_grid(512)
        base = weight_eval(WeightSpec.log_power(1), r)
        for k in (2, 3, 4):
            assert np.array_equal(weight_eval(WeightSpec.log_power(k), r), base**k)

    def test_monotone_in_order(self):
        r = default_radius_grid(512)
        for k in (1, 2, 3):
            vk = weight_eval(WeightSpec.log_power(k), r)
            vk1 = weight_eval(WeightSpec.log_power(k + 1), r)
            assert np.all(vk1 <= vk)

    def test_nonincreasing_in_radius(self):
        r = np.linspace(0, 0.99, 200)
        for w in (WeightSpec.log_power(1), WeightSpec.standard(0.5)):
            vals = weight_eval(w, r)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            weight_eval(WeightSpec.log_power(1), 1.0)
        with pytest.raises(ValueError):
            weight_eval(WeightSpec.log_power(1), -0.1)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            WeightSpec.standard(0.0)
        with pytest.raises(ValueError):
            WeightSpec.log_power(0)
        with pytest.raises(ValueError):
            WeightSpec("log", 1.5)


class TestMaxModulus:
    def test_constant(self):
        assert max_modulus_profile(Poly([1]), [0.3])[0] == pytest.approx(1.0)

    def test_identity_function(self):
        assert max_modulus_profile(Poly([0, 1]), [0.7])[0] == pytest.approx(0.7, rel=1e-14)

    def test_positive_coefficients_attain_at_theta_zero(self):
        rng = np.random.default_rng(3)
        c = rng.random(40)
        p = Poly(c)
        r = 0.6
        assert max_modulus_profile(p, [r])[0] == pytest.approx(np.sum(c * r ** np.arange(40)), rel=1e-13)

    def test_matches_dense_angle_scan_with_folding(self):
        # 63 and 64 coefficients take the zero-padded FFT, 65 and 100 the
        # fold-mod-S path
        rng = np.random.default_rng(11)
        samples = 64
        r = 0.8
        angles = 2 * np.pi * np.arange(samples) / samples
        for size in (samples - 1, samples, samples + 1, 100):
            p = Poly(rng.normal(size=size) + 1j * rng.normal(size=size))
            direct = np.abs(horner_eval(p, r * np.exp(1j * angles))).max()
            assert max_modulus_profile(p, [r], samples)[0] == pytest.approx(direct, rel=1e-12), size

    def test_nondecreasing_in_radius(self):
        rng = np.random.default_rng(5)
        grid = default_radius_grid(256)
        for _ in range(5):
            p = Poly(rng.normal(size=257) + 1j * rng.normal(size=257))
            prof = max_modulus_profile(p, grid)
            assert np.all(prof[1:] >= prof[:-1] * (1 - 1e-12))

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            max_modulus_profile(Poly([1]), [0.5], samples=4)

    def test_rejects_sample_count_above_cap(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {SAMPLES_CAP} samples"):
                max_modulus_profile(Poly([1]), [0.5], samples=SAMPLES_CAP + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert max_modulus_profile(Poly([1]), [0.5], samples=SAMPLES_CAP)[0] == 1.0

    def test_stack_matches_single_calls(self):
        # both sides of the fold at 64 samples, with more members than one
        # FFT chunk holds
        samples = 64
        for size in (samples - 1, samples, samples + 1, 100):
            grid = default_radius_grid(size - 1)
            width = max(samples, -(-size // samples) * samples)
            per_chunk = STACK_BLOCK_BYTES // (16 * grid.size * width)
            members = random_stack(per_chunk + 5, size)
            stacked = max_modulus_profile(members, grid, samples)
            assert stacked.shape == (len(members), grid.size)
            for row, p in zip(stacked, members):
                assert np.array_equal(row, max_modulus_profile(p, grid, samples)), size
            w = WeightSpec.log_power(1)
            for est, p in zip(weighted_sup_norm(members, w, grid, samples), members, strict=True):
                single = weighted_sup_norm(p, w, grid, samples)
                assert est.value == single.value and est.argmax_radius == single.argmax_radius

    def test_rejects_mixed_degree_stack(self):
        mixed = [Poly(np.ones(8)), Poly(np.ones(9))]
        for stack in (mixed, []):
            with pytest.raises(ValueError, match="one degree"):
                max_modulus_profile(stack, [0.5])
            with pytest.raises(ValueError, match="one degree"):
                weighted_sup_norm(stack, WeightSpec.log_power(1), [0.5])

    def test_stacked_profile_memory_is_chunked(self):
        # unchunked, 300 members x 73 radii x 1024 samples is a 359 MB block
        members = random_stack(300, 513)
        grid = default_radius_grid(512)
        tracemalloc.start()
        try:
            max_modulus_profile(members, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * STACK_BLOCK_BYTES

    def test_stacked_norms_leave_blas_threads_asleep(self):
        members = random_stack(63, 513)
        grid = default_radius_grid(512)
        w = WeightSpec.log_power(1)
        assert cpu_per_wall(lambda: weighted_sup_norm(members, w, grid)) <= 1.5


class TestWeightedSupNorm:
    def test_constant_attains_at_centre(self):
        est = weighted_sup_norm(truncate(monomial(0), 512), WeightSpec.log_power(1))
        assert est.value == pytest.approx(1.0)
        assert est.argmax_radius == 0.0

    def test_log_series_cancellation(self):
        # the weight exactly cancels the growth of log(1/(1-z))
        for degree in (128, 512):
            est = weighted_sup_norm(log_one_minus_inv(degree), WeightSpec.log_power(1))
            assert 0.97 <= est.value <= 1.0 + 1e-12

    def test_standard_cancellation(self):
        est = weighted_sup_norm(binomial_series(-2, 512), WeightSpec.standard(2.0))
        assert 0.9 <= est.value <= 1.0 + 1e-12

    def test_norm_monotone_in_weight_order(self):
        rng = np.random.default_rng(17)
        p = Poly(rng.normal(size=257))
        values = [weighted_sup_norm(p, WeightSpec.log_power(k)).value for k in (1, 2, 3, 4)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_radii_beyond_reliability(self):
        with pytest.raises(ValueError):
            weighted_sup_norm(Poly(np.ones(513)), WeightSpec.log_power(1), grid=[0.999])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            weighted_sup_norm(Poly([1]), WeightSpec.log_power(1), grid=[])


class TestGrowthClassify:
    def test_log_family(self):
        report = growth_classify([log_one_minus_inv(d) for d in (128, 512, 2048)])
        assert 0.8 <= report.log_order <= 1.2
        assert not report.divergence_flag

    def test_standard_order_two_family(self):
        family = [Poly(np.arange(d + 1, dtype=complex)) for d in (128, 512, 2048)]
        report = growth_classify(family)
        assert 1.9 <= report.standard_order <= 2.1
        assert report.divergence_flag
        assert report.norms_by_degree[-1] > 10 * report.norms_by_degree[0]

    def test_constant_family(self):
        family = [truncate(monomial(0), d) for d in (64, 128, 256)]
        report = growth_classify(family)
        assert report.log_order == pytest.approx(0.0, abs=1e-6)
        assert report.standard_order == pytest.approx(0.0, abs=1e-6)
        assert not report.divergence_flag

    def test_residuals_finite(self):
        report = growth_classify([log_one_minus_inv(d) for d in (64, 128, 256)])
        assert np.isfinite(report.residuals["log_order_rms"])
        assert np.isfinite(report.residuals["standard_order_rms"])

    def test_rejects_few_truncations(self):
        with pytest.raises(ValueError):
            growth_classify([log_one_minus_inv(64), log_one_minus_inv(128)])

    def test_rejects_nonincreasing_degrees(self):
        fam = [log_one_minus_inv(d) for d in (128, 128, 256)]
        with pytest.raises(ValueError):
            growth_classify(fam)
