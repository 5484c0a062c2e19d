"""End-to-end acceptance suite: every verification criterion, and tests
that each check's own gate bites.

``test_check_passes_within_its_budget`` runs each check of
``cesaro_lab.verify.SUITES`` through ``run_suite`` (so the command-line
``verify`` subcommand and this module always agree), prints one pass/fail
line, and asserts the check passed at its stated tolerance and runtime
budget.  Most bite tests call a check directly and read its verdict and
detail, apart from its budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import re

import numpy as np
import pytest

from cesaro_lab import ergodic, operators, series, verify, weights
from cesaro_lab.cli import main
from cesaro_lab.ergodic import SECTION_T_VALUES, spectral_dichotomy_report
from cesaro_lab.series import Poly


def scaled(exact, factor):
    """``exact`` with every image, of a Poly or of a stack, scaled by ``factor``."""

    def apply(*args):
        images = exact(*args)
        if isinstance(images, Poly):
            return Poly(factor * images.coeffs)
        return factor * images

    return apply


#: A kernel off by this relative factor: far below any sampled-norm slack,
#: far above the rounding of the identities that the checks test.
DRIFT = 1 + 1e-9


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_check_passes_within_its_budget(name):
    [result] = verify.run_suite(name, 512)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.name == name
    assert result.passed is True, result.detail
    assert result.runtime_s <= verify.SUITES[name][0]


def test_eigen_cesaro_rejects_a_drifted_kernel(monkeypatch):
    # the check's own residual gate decides, and it reports the residual
    monkeypatch.setattr(verify, "cesaro_apply", scaled(verify.cesaro_apply, DRIFT))
    passed, detail = verify.check_eigen_cesaro(512)
    assert not passed
    assert "max relative residual" in detail


def test_eigen_ct_residual_clause_rejects_a_drifted_kernel(monkeypatch):
    # a drifted kernel leaves the eigenvectors, and so their tails and l1
    # norms, exact: only the residual clause can fail
    exact = verify.generalized_cesaro_apply
    monkeypatch.setattr(verify, "generalized_cesaro_apply", scaled(exact, DRIFT))
    passed, detail = verify.check_eigen_ct(512)
    assert not passed
    assert detail.endswith("failed clauses: residual")


def test_verify_all_reports_every_check_under_drifted_kernels(monkeypatch, capsys):
    # the command prints one line per check and exits 1, not a traceback
    for name in ("cesaro_apply", "generalized_cesaro_apply"):
        monkeypatch.setattr(verify, name, scaled(getattr(verify, name), DRIFT))
    code = main(["verify", "--suite", "all", "--degree", "64"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0].split()[1] for line in lines] == list(verify.SUITES)
    for name in ("eigen-cesaro", "eigen-ct", "log-power-identity"):
        assert any(line.startswith(f"FAIL {name}:") for line in lines)


def test_every_check_passes_at_the_degree_floor():
    # run_suite refuses a lower degree, so the floor must be one where
    # every check runs
    results = verify.run_suite("all", verify.DEGREE_FLOOR)
    assert [r.name for r in results] == list(verify.SUITES)
    assert all(r.passed for r in results)


def test_eigen_ct_at_degrees_where_the_tail_starts_below_m():
    # from degree 7 down the tail starts below m = 5, where C(n, m) = 0 and
    # the closed form's t**(n-m) would divide by zero at t = 0
    for degree in (5, 6, 7):
        passed, detail = verify.check_eigen_ct(degree)
        assert passed, detail


def test_eigen_ct_tail_clause_rejects_truncated_eigenvector(monkeypatch):
    # zeroing the coefficients above 3/4 of the degree leaves the tail
    # increment about 1e-5 short of its closed form at t = 0.9, m = 5
    exact = verify.eigenvector_ct

    def truncated(t, m, degree):
        x = exact(t, m, degree).coeffs.copy()
        x[3 * degree // 4 + 1 :] = 0.0
        return Poly(x)

    monkeypatch.setattr(verify, "eigenvector_ct", truncated)
    passed, detail = verify.check_eigen_ct(512)
    assert not passed
    assert "failed clauses:" in detail
    assert "tail" in detail.split("failed clauses:")[1]


def test_log_power_identity_rejects_a_drifted_kernel(monkeypatch):
    # the check passes only if every k = 1..4 meets the bound 1e-10
    monkeypatch.setattr(verify, "cesaro_apply", scaled(verify.cesaro_apply, DRIFT))
    assert not verify.check_log_power_identity()[0]


def test_resolvent_routes_makes_one_integral_call(monkeypatch):
    # the four lam share one lam-free z**k table
    calls = []
    exact = verify.resolvent_integral_profile

    def counted(lam, *args, **kwargs):
        calls.append(np.ravel(lam).tolist())
        return exact(lam, *args, **kwargs)

    monkeypatch.setattr(verify, "resolvent_integral_profile", counted)
    assert verify.check_resolvent_routes()[0]
    assert calls == [[1j, 2j, -1 + 1j, 3.0]]


def test_resolvent_routes_solves_each_side_as_one_grid(monkeypatch):
    # one recurrence grid for the 4 oracle lam x 62 members, one for the
    # 3 semigroup lam x 3 probes, and one call of each other route
    calls = {"resolvent_recurrence": [], "resolvent_semigroup": [], "resolvent_integral_profile": []}
    for name, shapes in calls.items():

        def counted(lam, h, *args, exact=getattr(verify, name), shapes=shapes):
            shapes.append((len(lam), len(h)))
            return exact(lam, h, *args)

        monkeypatch.setattr(verify, name, counted)
    assert verify.check_resolvent_routes()[0]
    assert calls == {
        "resolvent_recurrence": [(4, 62), (3, 3)],
        "resolvent_semigroup": [(3, 3)],
        "resolvent_integral_profile": [(4, 62)],
    }


@pytest.mark.parametrize("drift, passed", [(1e-6, False), (1e-9, False), (1e-13, True)])
def test_resolvent_routes_semigroup_side_bites(monkeypatch, drift, passed):
    # the semigroup side reads about 7e-16 against its 1e-6 tolerance and its
    # backward error 1.25e-16 against 3.5e-13: a drift of 1e-6 fails both,
    # one of 1e-9 the backward error alone, and one of 1e-13 passes
    exact = verify.resolvent_semigroup
    monkeypatch.setattr(verify, "resolvent_semigroup", scaled(exact, 1 + drift))
    assert verify.check_resolvent_routes()[0] is passed


def test_resolvent_routes_backward_error_bites(monkeypatch):
    # a drift of 1e-9 stays within the comparison's 1e-6, which is its
    # slack, and reads about 7.2e-10 as a backward error through the
    # averaging operator, past its derived tolerance
    monkeypatch.setattr(verify, "resolvent_semigroup", scaled(verify.resolvent_semigroup, DRIFT))
    passed, detail = verify.check_resolvent_routes()
    pattern = r"semigroup vs oracle (\S+); semigroup backward error (\S+) \(tolerance (\S+)\)$"
    gap, backward, tolerance = map(float, re.search(pattern, detail).groups())
    assert not passed
    assert gap <= 1e-6 and 5e-10 <= backward and tolerance <= 4e-13


def test_norm_inequalities_contraction_clause_bites(monkeypatch):
    # S_t scaled by 1.5 is no contraction: its weighted norms exceed those
    # of the argument
    exact = operators.s_t_rows
    monkeypatch.setattr(operators, "s_t_rows", lambda t, degree: 1.5 * exact(t, degree))
    passed, detail = verify.check_norm_inequalities(512)
    assert not passed
    assert "contraction-t" in detail
    assert "62 corpus members, 175 violations:" in detail


#: The violations of the anchors, one per mutant that every ratio of norms
#: misses: S_t at t - ln 2 (a = e**-t doubled, clamped at 1), S_t and every
#: sampled maximum scaled by 1 + 1e-9, and every sampled maximum by 10.
ANCHOR_VIOLATIONS = {
    "s_t_apply-earlier": "3 violations: const1:mobius-t0.1, const1:mobius-t1, const1:mobius-t5;",
    "s_t_apply-drifted": "3 violations: const1:mobius-t0.1, const1:mobius-t1, const1:mobius-t5;",
    "maxima-drifted": "2 violations: const1:profile-exact, log-inv:profile-fsum;",
    "maxima-times-10": "2 violations: const1:profile-exact, log-inv:profile-fsum;",
}


@pytest.mark.parametrize("mutant", ANCHOR_VIOLATIONS)
def test_norm_inequalities_scale_anchors_bite(monkeypatch, mutant):
    exact_st, exact_maxima = verify.s_t_apply, weights._Sweep.maxima
    factor = DRIFT if mutant.endswith("drifted") else 10.0

    def earlier(t, p):
        return exact_st(max(t - np.log(2.0), 0.0), p)

    def maxima(sweep, open_rows, row_weights):
        return factor * exact_maxima(sweep, open_rows, row_weights)

    if mutant.startswith("s_t_apply"):
        drifted = scaled(exact_st, DRIFT)
        monkeypatch.setattr(verify, "s_t_apply", earlier if mutant.endswith("earlier") else drifted)
    else:
        monkeypatch.setattr(weights._Sweep, "maxima", maxima)
    passed, detail = verify.check_norm_inequalities(512)
    assert not passed
    assert f"62 corpus members, {ANCHOR_VIOLATIONS[mutant]}" in detail


#: Violations of the scaled operators below, the same when every sup-norm
#: was computed in full: the threshold tests must not change a verdict.
SCALED_VIOLATIONS = {
    ("cesaro_apply", 1.2): 59,
    ("cesaro_apply", 1.05): 31,
    ("resolvent_recurrence", 50.0): 124,
    ("resolvent_recurrence", 3.0): 77,
    ("generalized_cesaro_apply", 1.2): 37,
}


@pytest.mark.parametrize(
    "name, factor, clause",
    [
        ("cesaro_apply", 1.2, "growth-estimate"),
        ("cesaro_apply", 1.05, "growth-estimate"),
        ("resolvent_recurrence", 50.0, "imaginary-axis-b8"),
        ("resolvent_recurrence", 3.0, "imaginary-axis-b8"),
        ("generalized_cesaro_apply", 1.2, "compact-route"),
    ],
)
def test_norm_inequalities_sup_norm_clauses_bite(monkeypatch, name, factor, clause):
    # an operator scaled past its proved bound fails the clause that bounds
    # it, and every threshold test counts the violations a full sweep counts
    monkeypatch.setattr(verify, name, scaled(getattr(verify, name), factor))
    passed, detail = verify.check_norm_inequalities(512)
    assert not passed
    assert clause in detail
    assert f"62 corpus members, {SCALED_VIOLATIONS[name, factor]} violations:" in detail


def test_norm_inequalities_takes_one_full_profile(monkeypatch):
    # every right-hand side comes from one profile of f over the whole grid;
    # every left-hand side is a threshold test that the majorant settles for
    # almost all of its rows
    calls = []
    exact = verify.max_modulus_profile

    def counted(p, radii, *args, **kwargs):
        calls.append((p, radii))
        return exact(p, radii, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the sup-norms of f are row maxima of its profile")

    rows = []
    gathered = weights._Sweep.maxima

    def gathered_counted(sweep, open_rows, row_weights):
        rows.append(int(open_rows.sum()))
        return gathered(sweep, open_rows, row_weights)

    monkeypatch.setattr(verify, "max_modulus_profile", counted)
    monkeypatch.setattr(weights, "weighted_sup_norm", refused)
    monkeypatch.setattr(verify, "weighted_sup_norm", refused, raising=False)
    monkeypatch.setattr(weights._Sweep, "maxima", gathered_counted)
    passed, detail = verify.check_norm_inequalities(512)
    assert passed
    corpus = [f for _, f in operators.build_corpus(512)]
    assert len(calls) == 1
    assert [q.coeffs.tolist() for q in calls[0][0]] == [f.coeffs.tolist() for f in corpus]
    assert np.array_equal(calls[0][1], weights.default_radius_grid(512))
    # 62 members x 73 radii of the profile, and the 1,350 distinct rows of
    # the 1,464 open clause rows: a row that several clauses on one stack
    # open is transformed once
    assert sum(rows) == 5_876
    found = re.search(r"; ([0-9,]+) of 108,562 rows certified by the bound", detail)
    assert int(found.group(1).replace(",", "")) >= 0.98 * 108_562


def test_norm_inequalities_solves_once_and_sweeps_each_stack_once(monkeypatch):
    # one recurrence grid for the eight imaginary-axis lam, each lam's
    # images swept on their own; the three step-shift clauses share one
    # sweep of Cf, and the three contraction clauses one of S_t f at each t
    solves, sweeps = [], []
    exact_solve, exact_sweep = verify.resolvent_recurrence, verify.sup_norm_exceeds

    def solve(lam, h):
        solves.append((np.shape(lam), len(h)))
        return exact_solve(lam, h)

    def sweep(p, radii, tests):
        tests = list(tests)
        sweeps.append(len(tests))
        return exact_sweep(p, radii, tests)

    monkeypatch.setattr(verify, "resolvent_recurrence", solve)
    monkeypatch.setattr(verify, "sup_norm_exceeds", sweep)
    assert verify.check_norm_inequalities(512)[0]
    assert solves == [((8,), 62)]
    assert sweeps == [1, 3, 1, 1, 1, *[1] * 8, 3, 3, 3]


def test_finite_section_spectrum_builds_each_section_once(monkeypatch):
    # the shape deviation is measured on the section the product used
    calls = []
    exact = operators.finite_section

    def counted(t, degree):
        calls.append(t)
        return exact(t, degree)

    monkeypatch.setattr(operators, "finite_section", counted)
    assert verify.check_finite_section_spectrum(64)[0]
    assert calls == list(SECTION_T_VALUES)


def test_finite_section_spectrum_rejects_entries_above_diagonal(monkeypatch):
    # a section with 1e-3 above its diagonal keeps the right eigenvalues on
    # the diagonal; its product with the corpus fails (error / bound reads
    # 1.00e+00), and the zeros-above gate fails too
    exact = operators.finite_section

    def skewed(t, degree):
        section = exact(t, degree)
        return section + np.triu(np.full(section.shape, 1e-3), 1)

    monkeypatch.setattr(operators, "finite_section", skewed)
    passed, detail = verify.check_finite_section_spectrum(64)
    assert not passed
    assert "1.00e-03" in detail
    sweep = spectral_dichotomy_report(64, degrees=(64, 128), grid_points=3)
    assert all(err == pytest.approx(1e-3) for err in sweep.section_diagonal_errors.values())


@pytest.mark.parametrize("drift, passed", [(1e-9, False), (1e-12, True)])
def test_resolvent_identity_bites(monkeypatch, drift, passed):
    # the check reads about 3.2e-16 against its 1e-12 tolerance: a solve
    # off by a relative 1e-9 fails, and one off by 1e-12 passes, which is
    # its slack
    exact = verify.resolvent_recurrence
    monkeypatch.setattr(verify, "resolvent_recurrence", scaled(exact, 1 + drift))
    passed_now, detail = verify.check_resolvent_identity(512)
    assert passed_now is passed, detail


def test_finite_section_spectrum_rejects_a_drifted_kernel(monkeypatch):
    # the sections keep their exact shape; only their product with the
    # corpus can see a memory-t kernel off by a relative 1e-9
    exact = verify.generalized_cesaro_apply
    monkeypatch.setattr(verify, "generalized_cesaro_apply", scaled(exact, DRIFT))
    passed, detail = verify.check_finite_section_spectrum(64)
    assert not passed
    assert "zero above: 0.00e+00" in detail


def test_finite_section_spectrum_gates_the_shape_it_prints(monkeypatch):
    # the product with the corpus stays exact; only the shape gate, at the
    # check's own tolerance 8 (N+2) 2**-53, can fail a shape off by 0.5
    monkeypatch.setattr(verify, "section_shape_error", lambda section: 0.5)
    [result] = verify.run_suite("finite-section-spectrum", 64)
    assert not result.passed
    assert "zero above: 5.00e-01" in result.detail


@pytest.mark.parametrize("kernel", ["resolvent_integral_profile", "_ring_values"])
@pytest.mark.parametrize(
    "drift, passed, reading",
    [
        pytest.param(1e-9, False, r"2\.67e-07", id="1e-09-False"),
        pytest.param(1e-12, True, r"2\.(66|67)e-10", id="1e-12-True"),
    ],
)
def test_resolvent_routes_integral_side_bites(monkeypatch, kernel, drift, passed, reading):
    # the integral side reads 1.80e-12 against its 1e-8 tolerance, on
    # solutions of modulus up to about 270: a drift of 1e-9 in the route or
    # in the oracle's evaluator fails, and one of 1e-12 passes, which is
    # its slack
    monkeypatch.setattr(verify, kernel, scaled(getattr(verify, kernel), 1 + drift))
    passed_now, detail = verify.check_resolvent_routes()
    assert passed_now is passed
    assert re.match(f"integral vs oracle {reading};", detail), detail


def test_resolvent_routes_evaluates_its_oracle_without_horner(monkeypatch):
    # the oracle is summed by residues, one folded FFT per ring: the four
    # oracle stacks reach the ring evaluator and none reaches Horner's rule
    calls = {"_ring_values": 0, "horner_eval": 0}

    def counted(name, exact):
        def call(*args):
            calls[name] += 1
            return exact(*args)

        return call

    monkeypatch.setattr(verify, "_ring_values", counted("_ring_values", verify._ring_values))
    horner = counted("horner_eval", series.horner_eval)
    monkeypatch.setattr(series, "horner_eval", horner)
    monkeypatch.setattr(verify, "horner_eval", horner, raising=False)
    passed, detail = verify.check_resolvent_routes()
    assert passed, detail
    assert calls == {"_ring_values": 4, "horner_eval": 0}


@pytest.mark.parametrize("drift, passed", [(1e-11, False), (1e-15, True)])
def test_inverse_roundtrip_bites(monkeypatch, drift, passed):
    # the check reads 8.9e-15 against its 1e-12 tolerance: an inverse off by
    # a relative 1e-11 fails, and one off by 1e-15 passes (9.8e-15)
    exact = verify.cesaro_inverse_apply
    monkeypatch.setattr(verify, "cesaro_inverse_apply", scaled(exact, 1 + drift))
    passed_now, detail = verify.check_inverse_roundtrip(512)
    assert passed_now is passed, detail


@pytest.mark.parametrize(
    "power, passed, reading",
    [
        pytest.param(1.1, False, "k-hat=1.100", id="1.1-False"),
        pytest.param(1.01, True, "k-hat=1.010; order-2 family gamma-hat=2.042", id="1.01-True"),
    ],
)
def test_growth_classification_bites(monkeypatch, power, passed, reading):
    # every circle maximum raised to a power p scales both fitted orders by
    # about p: at p = 1.1 the order-2 family's gamma-hat leaves [1.9, 2.1],
    # and at p = 1.01 both stay in their bands, which is the check's slack
    exact = weights._circle_max
    monkeypatch.setattr(weights, "_circle_max", lambda rows, samples: exact(rows, samples) ** power)
    passed_now, detail = verify.check_growth_classification()
    assert passed_now is passed, detail
    assert reading in detail, detail


@pytest.mark.parametrize("drift, passed", [(1e-3, False), (1e-6, True)])
def test_ergodic_dichotomy_bites(monkeypatch, drift, passed):
    # the traces run on the memory-t kernel bound in ``ergodic``: iterates
    # scaled by 1 + 1e-3 per step grow by 1.29 over 256 steps and fail the
    # decay and rate clauses; 1e-6 stays within them
    exact = ergodic.generalized_cesaro_apply
    monkeypatch.setattr(ergodic, "generalized_cesaro_apply", scaled(exact, 1 + drift))
    passed_now, detail = verify.check_ergodic_dichotomy(512)
    assert passed_now is passed, detail
