import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import weights
from cesaro_lab.ergodic import iterate_trace
from cesaro_lab.operators import build_corpus
from cesaro_lab.series import (
    Poly,
    binomial_series,
    horner_eval,
    log_one_minus_inv,
    monomial,
    poly_stack,
    truncate,
)
from cesaro_lab.weights import (
    JUNCTION_RADIUS,
    SAMPLES_CAP,
    STACK_BLOCK_BYTES,
    WeightSpec,
    default_radius_grid,
    growth_classify,
    max_modulus_profile,
    reliable_radius,
    sup_norm_exceeds,
    weight_eval,
    weighted_sup_norm,
)

from oracles import traced_peak
from test_resolvent import cpu_per_wall


def random_stack(count, size, seed=23):
    rng = np.random.default_rng(seed)
    return [Poly(rng.normal(size=size) + 1j * rng.normal(size=size)) for _ in range(count)]


def random_real_stack(count, size, seed=29):
    rng = np.random.default_rng(seed)
    return [Poly(rng.normal(size=size)) for _ in range(count)]


def chunk_members(size, radii, samples):
    """Fewest members whose (member, radius) rows fill one FFT block of
    ``weights._Sweep.weighted_rows``, which holds
    ``STACK_BLOCK_BYTES // (32 * width)`` rows."""
    width = max(samples, -(-size // samples) * samples)
    return -(-max(1, STACK_BLOCK_BYTES // (32 * width)) // radii)


def count_fft_rows(monkeypatch):
    """Counters of the rows that full and half-spectrum FFT calls transform
    from now on."""
    rows = {"fft": 0, "rfft": 0}
    for name in rows:
        def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            rows[_name] += int(np.prod(np.shape(a)[:-1]))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return rows


def assert_matches_full_profile(members, w, samples):
    """Stacked and single sup-norms equal, bit for bit, the row max and the
    first argmax of the weight times the member's full profile, which
    transforms every radius."""
    grid = default_radius_grid(members[0].degree)
    weights = weight_eval(w, grid)
    stacked = weighted_sup_norm(members, w, samples)
    for est, p in zip(stacked, members, strict=True):
        values = weights * max_modulus_profile(p, grid, samples)
        i = np.argmax(values)
        for got in (est, weighted_sup_norm(p, w, samples)):
            assert (got.value, got.argmax_radius) == (values[i], grid[i])
        if not p.coeffs[1:].any():  # the constant and zero polynomials
            assert est.argmax_radius == 0.0


#: The weights whose sup-norms of f the norm-inequalities check takes from
#: one profile of f.
RHS_WEIGHTS = [*(WeightSpec.log_power(k) for k in (1, 2, 3)), WeightSpec.standard(1.0)]


def assert_profile_gives_sup_norms(members, samples=1024):
    """For each of ``RHS_WEIGHTS``, the row max and first argmax radius of
    the weight times the stacked profile are the stacked sup-norms, bit for
    bit."""
    grid = default_radius_grid(members[0].degree)
    profile = max_modulus_profile(members, grid, samples)
    for w in RHS_WEIGHTS:
        values = weight_eval(w, grid) * profile
        expected = list(zip(values.max(axis=1), grid[np.argmax(values, axis=1)]))
        got = [(e.value, e.argmax_radius) for e in weighted_sup_norm(members, w, samples)]
        assert got == expected, w


def sup_norm_member(kind, size, w, rng):
    """A stack member of one kind.  ``flat`` is (1 - z)^-gamma, whose
    coefficients are positive and whose values under the standard weight of
    order gamma are nearly constant in r, so that they tie to rounding; it
    is all ones under a log weight."""
    if kind == "real":
        return Poly(rng.normal(size=size))
    if kind == "complex":
        return Poly(rng.normal(size=size) + 1j * rng.normal(size=size))
    if kind == "positive":
        return Poly(rng.random(size))
    if kind == "flat":
        return binomial_series(-w.order if w.kind == "standard" else -1.0, size - 1)
    coeffs = np.zeros(size)
    coeffs[0] = rng.normal() if kind == "constant" else 0.0
    return Poly(coeffs)


weight_specs = st.one_of(
    st.integers(min_value=1, max_value=3).map(WeightSpec.log_power),
    st.floats(min_value=0.25, max_value=3.0).map(WeightSpec.standard),
)
member_kinds_all = ["real", "complex", "positive", "flat", "constant", "zero"]
member_kinds = st.sampled_from(member_kinds_all)


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
        for order in (np.inf, np.nan):
            with pytest.raises(ValueError, match="integer order"):
                WeightSpec("log", order)


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

    @pytest.mark.parametrize("samples", [64, 63])
    def test_real_stack_matches_dense_angle_scan(self, samples):
        # the half-spectrum path, both sides of the fold, and an odd sample
        # count, whose rfft has (samples + 1) / 2 bins
        radii = [0.3, 0.8]
        angles = 2 * np.pi * np.arange(samples) / samples
        for size in (63, 64, 65, 100):
            members = random_real_stack(5, size)
            stacked = max_modulus_profile(members, radii, samples)
            for row, p in zip(stacked, members, strict=True):
                for r, value in zip(radii, row):
                    direct = np.abs(horner_eval(p, r * np.exp(1j * angles))).max()
                    assert value == pytest.approx(direct, rel=1e-13), (size, samples, r)

    def test_mixed_stack_matches_single_calls(self):
        # runs of real and complex members, each run filling an FFT block of
        # rows, and members alternating one by one: every row, real or
        # complex, equals its single-member call bit for bit
        for size, samples in ((513, 1024), (100, 64)):
            grid = default_radius_grid(size - 1)
            per_chunk = chunk_members(size, grid.size, samples)
            real, cplx = random_real_stack(2 * per_chunk + 1, size), random_stack(2 * per_chunk, size)
            runs = []
            for k in range(0, 2 * per_chunk, per_chunk):
                runs += real[k : k + per_chunk] + cplx[k : k + per_chunk]
            runs.append(real[-1])
            alternating = [m for pair in zip(real[:3], cplx[:3]) for m in pair]
            for members in (runs, alternating):
                stacked = max_modulus_profile(members, grid, samples)
                for row, p in zip(stacked, members, strict=True):
                    assert np.array_equal(row, max_modulus_profile(p, grid, samples)), size

    def test_half_spectrum_only_for_real_chunks(self, monkeypatch):
        # a silent return to the full transform for real inputs would only
        # show as lost speed
        rows = count_fft_rows(monkeypatch)
        iterate_trace(0.5, truncate(monomial(0), 64), WeightSpec.log_power(1), 16)
        assert rows["fft"] == 0 and rows["rfft"] > 0
        rows.update(fft=0, rfft=0)
        max_modulus_profile(random_stack(3, 65), default_radius_grid(64))
        assert rows["rfft"] == 0 and rows["fft"] > 0

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
        def refused():
            with pytest.raises(ValueError, match=f"at most {SAMPLES_CAP} samples"):
                max_modulus_profile(Poly([1]), [0.5], samples=SAMPLES_CAP + 1)

        assert traced_peak(refused)[1] < 100_000
        assert max_modulus_profile(Poly([1]), [0.5], samples=SAMPLES_CAP)[0] == 1.0

    def test_stack_matches_single_calls(self):
        # both sides of the fold at 64 samples, with more members than one
        # FFT block of rows holds
        samples = 64
        for size in (samples - 1, samples, samples + 1, 100):
            grid = default_radius_grid(size - 1)
            per_chunk = chunk_members(size, grid.size, samples)
            members = random_stack(per_chunk + 5, size)
            stacked = max_modulus_profile(members, grid, samples)
            assert stacked.shape == (len(members), grid.size)
            for row, p in zip(stacked, members):
                assert np.array_equal(row, max_modulus_profile(p, grid, samples)), size
            w = WeightSpec.log_power(1)
            for est, p in zip(weighted_sup_norm(members, w, samples), members, strict=True):
                single = weighted_sup_norm(p, w, samples)
                assert est.value == single.value and est.argmax_radius == single.argmax_radius

    def test_rejects_mixed_degree_stack(self):
        mixed = [Poly(np.ones(8)), Poly(np.ones(9))]
        for stack in (mixed, []):
            with pytest.raises(ValueError, match="one degree"):
                max_modulus_profile(stack, [0.5])
            with pytest.raises(ValueError, match="one degree"):
                weighted_sup_norm(stack, WeightSpec.log_power(1))

    def test_stacked_profile_memory_is_chunked(self):
        # unchunked, 300 members x 73 radii x 1024 samples is a 359 MB block;
        # the mixed stack also holds the real block of the half-spectrum path
        mixed = [p for pair in zip(random_stack(150, 513), random_real_stack(150, 513)) for p in pair]
        grid = default_radius_grid(512)
        for members in (random_stack(300, 513), mixed):
            assert traced_peak(lambda: max_modulus_profile(members, grid))[1] <= 3 * STACK_BLOCK_BYTES

    def test_stacked_norms_leave_blas_threads_asleep(self):
        members = random_stack(63, 513)
        w = WeightSpec.log_power(1)
        assert cpu_per_wall(lambda: weighted_sup_norm(members, w)) <= 1.5


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

    @given(
        st.lists(member_kinds, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=150),
        st.sampled_from([8, 9, 63, 64]),
        weight_specs,
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_profile(self, kinds, size, samples, w, seed):
        # sizes on both sides of the fold, even and odd sample counts, and
        # real, complex and mixed stacks
        rng = np.random.default_rng(seed)
        members = [sup_norm_member(kind, size, w, rng) for kind in kinds]
        assert_matches_full_profile(members, w, samples)

    @pytest.mark.parametrize("w", [WeightSpec.log_power(1), WeightSpec.standard(0.5)])
    def test_uncapped_input_matches_full_profile(self, w):
        # a --input CSV is not capped: 5,000 coefficients fold 625 deep at 8
        # samples, and the bound's margin grows with them
        rng = np.random.default_rng(31)
        members = [sup_norm_member(kind, 5000, w, rng) for kind in ("complex", "positive", "flat")]
        assert_matches_full_profile(members, w, 8)

    def test_profile_gives_sup_norms_on_corpus(self):
        # the identity the norm-inequalities check takes its right-hand sides by
        assert_profile_gives_sup_norms([f for _, f in build_corpus(512)])

    @given(
        st.lists(member_kinds, max_size=4),
        st.integers(min_value=1, max_value=150),
        st.sampled_from([8, 9, 63, 64]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_gives_sup_norms_on_mixed_stack(self, kinds, size, samples, seed):
        # real and complex members in one stack take the two transforms apart
        rng = np.random.default_rng(seed)
        w = WeightSpec.standard(1.0)
        members = [sup_norm_member(k, size, w, rng) for k in ["real", "complex", *kinds]]
        assert_profile_gives_sup_norms(members, samples)

    def test_trace_transforms_at_most_two_rows_per_member(self, monkeypatch):
        # the full sweep transforms all 73 radii of each member; tier-1 runs
        # no benchmark, so a silent return to it shows only here
        rows = count_fft_rows(monkeypatch)
        trace = iterate_trace(0.5, truncate(monomial(0), 64), WeightSpec.log_power(1), 16)
        normed = len(trace.iterate_norms) + len(trace.mean_norms)
        normed += len(trace.mean_increments) + len(trace.projection_errors)
        assert rows["fft"] == 0 and 0 < rows["rfft"] <= 2 * normed

    def test_stacked_memory_is_chunked(self):
        # the bound and the gathered rows are built block by block
        w = WeightSpec.log_power(1)
        for members in (random_stack(300, 513), random_real_stack(300, 513)):
            assert traced_peak(lambda: weighted_sup_norm(members, w))[1] <= 3 * STACK_BLOCK_BYTES

    def test_grid_ends_at_the_reliable_radius(self):
        # the sweep takes the default grid only, so it never passes the
        # radius beyond which a truncation's tail is no longer negligible
        for degree in range(5000):
            grid = default_radius_grid(degree)
            assert 0 <= grid.min() and grid.max() <= reliable_radius(degree)

    def test_rejects_empty_grid(self):
        # the sweeps that take a grid refuse an empty one
        with pytest.raises(ValueError, match="nonempty"):
            max_modulus_profile(Poly([1]), [])
        with pytest.raises(ValueError, match="nonempty"):
            sup_norm_exceeds(Poly([1]), WeightSpec.log_power(1), [], 1.0, 1.0)


def draw_limits(peaks, rng):
    """Per entry of ``peaks``: the peak itself, which a tie must not exceed,
    the next float below it, or the peak scaled by a factor in [0.5, 1.5)."""
    choice = rng.integers(0, 3, size=peaks.shape)
    scaled = peaks * rng.uniform(0.5, 1.5, size=peaks.shape)
    return np.select([choice == 0, choice == 1], [peaks, np.nextafter(peaks, -np.inf)], scaled)


class TestSupNormExceeds:
    @given(
        st.lists(member_kinds, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=150),
        st.sampled_from([8, 9, 63, 64]),
        st.one_of(st.none(), weight_specs),
        st.sampled_from(["member", "row", "divided"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_full_profile(self, kinds, size, samples, w, form, seed):
        # the threshold verdict against the full profile, bit for bit: a
        # limit per member or per (member, radius) row, or the division form
        rng = np.random.default_rng(seed)
        members = [sup_norm_member(kind, size, w or WeightSpec.log_power(1), rng) for kind in kinds]
        grid = default_radius_grid(size - 1)
        values = max_modulus_profile(members, grid, samples)
        if w is not None:
            values = weight_eval(w, grid) * values
        divisor = 1.0
        if form == "row":
            limit = draw_limits(values, rng)
        elif form == "member":
            limit = draw_limits(values.max(axis=1, keepdims=True), rng)
        else:
            divisor = rng.uniform(0.1, 10.0, size=(len(members), 1))
            limit = draw_limits(values.max(axis=1, keepdims=True) / divisor, rng)
        expected = (values / divisor > limit).any(axis=1)
        exceeded, _ = sup_norm_exceeds(members, w, grid, limit, divisor, samples)
        assert exceeded.tolist() == expected.tolist()

    def test_transforms_only_rows_the_bound_leaves_open(self, monkeypatch):
        # record every (member, radius) row that reaches the FFT kernel:
        # none may be one whose majorant already fails the test
        rng = np.random.default_rng(37)
        w = WeightSpec.log_power(2)
        members = [sup_norm_member(k, 257, w, rng) for k in member_kinds_all]
        grid = default_radius_grid(256)
        values = weight_eval(w, grid) * max_modulus_profile(members, grid)
        limit = draw_limits(values.max(axis=1, keepdims=True), rng)
        seen = []
        exact = weights._Sweep.weighted_rows

        def recorded(sweep, rows, cols):
            seen.extend(zip(rows.tolist(), cols.tolist()))
            return exact(sweep, rows, cols)

        monkeypatch.setattr(weights._Sweep, "weighted_rows", recorded)
        exceeded, transformed = sup_norm_exceeds(members, w, grid, limit, 1.0)
        bound = weights._Sweep(poly_stack(members), w, grid, 1024).majorant()
        assert transformed == len(seen) < bound.size
        assert all(bound[m, c] > limit[m, 0] for m, c in seen)
        assert exceeded.tolist() == (values > limit).any(axis=1).tolist()


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
