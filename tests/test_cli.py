import json

import numpy as np
import pytest

from cesaro_lab.cli import build_parser, main, read_coeffs_csv
from cesaro_lab.ergodic import GRID_POINTS_CAP, N_MAX_CAP
from cesaro_lab.operators import ST_DEGREE_CAP, cesaro_apply
from cesaro_lab.resolvent import off_cut_sample_points, resolvent_recurrence
from cesaro_lab.series import binomial_series, horner_eval, log_one_minus_inv, monomial, truncate
from cesaro_lab import verify
from cesaro_lab.verify import run_suite
from cesaro_lab.weights import SAMPLES_CAP

from oracles import traced_peak


def write_constant_csv(path, degree):
    rows = ["n,re,im", "0,1.0,0.0"]
    rows += [f"{n},0.0,0.0" for n in range(1, degree + 1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def past_cap_run(tmp_path, argv):
    """Exit code and peak traced bytes of ``main(argv + --output f)``, and
    whether f exists afterwards."""
    out = tmp_path / "out"
    code, peak = traced_peak(lambda: main(argv + ["--output", str(out)]))
    return code, peak, out.exists()


class TestInputDegreeCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--op", "cesaro", "--f", "const1", "--degree", str(ST_DEGREE_CAP + 1)],
            ["ergodic", "--t", "0.5", "--f", "log-inv", "--degree", str(ST_DEGREE_CAP + 1)],
            ["classify", "--f", "log-inv", "--degrees", f"128,512,{ST_DEGREE_CAP + 1}"],
        ],
    )
    def test_builtin_degree_past_cap_exits_two(self, tmp_path, capsys, argv):
        # refused before any input is built
        code, peak, written = past_cap_run(tmp_path, argv)
        assert code == 2
        assert peak < 1_000_000
        assert not written
        err = capsys.readouterr().err
        assert f"input degree {ST_DEGREE_CAP + 1} exceeds the cap {ST_DEGREE_CAP}" in err

    def test_ergodic_input_past_cap_exits_two(self, tmp_path, capsys):
        # a coefficient file is held to the cap of a builtin before the
        # trace builds its (n_max, N+1) arrays
        src = tmp_path / "coeffs.csv"
        write_constant_csv(src, ST_DEGREE_CAP + 1)
        code, peak, written = past_cap_run(tmp_path, ["ergodic", "--t", "0.5", "--input", str(src)])
        assert code == 2
        assert peak < 1_000_000
        assert not written
        assert f"input degree {ST_DEGREE_CAP + 1} exceeds the cap" in capsys.readouterr().err

    def test_integral_input_past_cap_exits_two(self, tmp_path, capsys):
        # a coefficient file is held to the cap before the integral route
        # builds its two (N+1) x points tables, 3.2 kB per degree
        src = tmp_path / "coeffs.csv"
        write_constant_csv(src, ST_DEGREE_CAP + 1)
        argv = ["resolvent", "--route", "integral", "--lambda-re", "0", "--lambda-im", "1",
                "--input", str(src)]
        code, peak, written = past_cap_run(tmp_path, argv)
        assert code == 2
        assert peak < 1_000_000
        assert not written
        assert f"input degree {ST_DEGREE_CAP + 1} exceeds the cap" in capsys.readouterr().err

    def test_degree_at_cap_accepted(self, tmp_path):
        out = tmp_path / "ct.csv"
        code = main(["apply", "--op", "cesaro", "--f", "const1", "--degree", str(ST_DEGREE_CAP),
                     "--output", str(out)])
        assert code == 0
        assert read_coeffs_csv(str(out)).degree == ST_DEGREE_CAP
        out = tmp_path / "growth.json"
        code = main(["classify", "--f", "log-inv", "--degrees", f"64,128,{ST_DEGREE_CAP}",
                     "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["norms_by_degree"]) == 3


class TestApply:
    def test_cesaro_on_constant_from_file(self, tmp_path):
        src = tmp_path / "coeffs.csv"
        write_constant_csv(src, 8)
        out = tmp_path / "out.csv"
        code = main(["apply", "--op", "cesaro", "--input", str(src), "--output", str(out)])
        assert code == 0
        result = read_coeffs_csv(str(out))
        np.testing.assert_allclose(result.coeffs, 1.0 / np.arange(1, 10), rtol=1e-15)
        assert out.read_text().startswith("# config: ")

    def test_emitted_file_round_trips_exactly(self, tmp_path):
        mid = tmp_path / "stage1.csv"
        main(["apply", "--op", "cesaro", "--f", "binom-half", "--degree", "40", "--output", str(mid)])
        in_process = cesaro_apply(binomial_series(-0.5, 40))
        assert np.array_equal(read_coeffs_csv(str(mid)).coeffs, in_process.coeffs)

    def test_inverse_undoes_cesaro(self, tmp_path):
        mid = tmp_path / "mid.csv"
        out = tmp_path / "back.csv"
        main(["apply", "--op", "cesaro", "--f", "log-inv", "--degree", "32", "--output", str(mid)])
        main(["apply", "--op", "inverse", "--input", str(mid), "--output", str(out)])
        back = read_coeffs_csv(str(out))
        np.testing.assert_allclose(back.coeffs, log_one_minus_inv(32).coeffs, atol=1e-13)

    def test_generalized_requires_t(self, tmp_path, capsys):
        code = main(["apply", "--op", "generalized", "--f", "const1", "--degree", "8"])
        assert code == 2
        assert "--t is required" in capsys.readouterr().err

    def test_composition_degree_above_cap(self, tmp_path, capsys):
        code = main(
            ["apply", "--op", "composition", "--t", "1.0", "--f", "log-inv",
             "--degree", str(ST_DEGREE_CAP + 1), "--output", str(tmp_path / "st.csv")]
        )
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert not (tmp_path / "st.csv").exists()

    def test_unknown_builtin(self):
        assert main(["apply", "--op", "cesaro", "--f", "nope", "--degree", "8"]) == 2

    def test_requires_input_or_builtin(self):
        assert main(["apply", "--op", "cesaro", "--degree", "8"]) == 2

    def test_io_failure_exit_code(self, tmp_path):
        code = main(
            ["apply", "--op", "cesaro", "--f", "const1", "--degree", "4",
             "--output", str(tmp_path / "missing-dir" / "x.csv")]
        )
        assert code == 3

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["apply"])
        assert excinfo.value.code == 2


class TestResolventCommand:
    def test_recurrence_coefficients(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            ["resolvent", "--route", "recurrence", "--lambda-re", "-1", "--f", "const1",
             "--degree", "8", "--output", str(out)]
        )
        assert code == 0
        got = read_coeffs_csv(str(out))
        assert got.coeffs[0] == pytest.approx(-0.5)
        assert got.coeffs[1] == pytest.approx(1 / 6)

    def test_negative_lambda_with_an_exponent_is_a_value(self, tmp_path):
        # argparse's own negative-number pattern has no exponent, so it took
        # -1e-6 for a flag and exited 2 with "expected one argument"
        written = []
        for lam in (["--lambda-re", "-1e-6"], ["--lambda-re=-1e-6"]):
            out = tmp_path / f"res{len(written)}.csv"
            code = main(["resolvent", "--route", "recurrence", *lam, "--lambda-im", "1",
                         "--f", "const1", "--degree", "8", "--output", str(out)])
            assert code == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_parser_reads_exponent_forms_as_numbers(self):
        forms = [(("-2.5E-1", "-1e+2"), (-0.25, -100.0)), (("-.5e1", "-1E-3"), (-5.0, -1e-3))]
        for lam, want in forms:
            args = build_parser().parse_args(
                ["resolvent", "--route", "recurrence", "--lambda-re", lam[0], "--lambda-im",
                 lam[1], "--f", "const1"]
            )
            assert (args.lambda_re, args.lambda_im) == want
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolvent", "--route", "recurrence", "--lambda-re", "-e5"])

    def test_integral_samples_file(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = main(
            ["resolvent", "--route", "integral", "--lambda-re", "0", "--lambda-im", "1",
             "--f", "const1", "--degree", "16", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "z_re,z_im,re,im"
        assert len(lines) == 102

    def test_integral_config_line(self, tmp_path):
        out = tmp_path / "vals.csv"
        main(["resolvent", "--route", "integral", "--lambda-re", "0", "--lambda-im", "1",
              "--f", "const1", "--degree", "128", "--output", str(out)])
        expected = {
            "command": "resolvent", "degree": 128, "function": "const1", "lambda_im": 1.0,
            "lambda_re": 0.0, "nodes": 256, "panels": 4, "route": "integral", "seed": 24301,
            "substitution": True,
        }
        first = out.read_text().splitlines()[0]
        assert first == "# config: " + json.dumps(expected, sort_keys=True)

    def test_no_substitution_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["resolvent", "--route", "integral", "--lambda-re", "0", "--lambda-im", "1",
                  "--f", "const1", "--degree", "16", "--no-substitution"])
        assert excinfo.value.code == 2
        assert "--no-substitution" in capsys.readouterr().err

    def test_rejects_eigenvalue_lambda(self, tmp_path):
        code = main(
            ["resolvent", "--route", "recurrence", "--lambda-re", "0.5", "--f", "const1",
             "--degree", "8", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "route, lambda_re",
        [("semigroup", "0.5"), ("integral", "0.4")],
    )
    def test_route_refusal_writes_nothing(self, tmp_path, capsys, route, lambda_re):
        # semigroup needs Re lam < 0; integral at lam = 0.4 needs h to vanish
        # to order above Re(1/lam) - 1 = 1.5, which const1 does not
        out = tmp_path / "x.csv"
        code = main(
            ["resolvent", "--route", route, "--lambda-re", lambda_re, "--f", "const1",
             "--degree", "8", "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize(
        "route, flag, value",
        [("integral", "--nodes", "1025"), ("integral", "--nodes", "8"),
         ("integral", "--panels", "65"), ("recurrence", "--panels", "0")],
    )
    def test_budget_flags_are_unknown(self, tmp_path, capsys, route, flag, value):
        # the integral route sums its moments by recurrence: nothing to size
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["resolvent", "--route", route, "--lambda-re", "-1", "--f", "const1",
                  "--degree", "8", f"{flag}={value}", "--output", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_integral_near_zero_writes_finite_rows(self, tmp_path):
        # near lam = 0 on the negative axis: every row finite and within the
        # route's tolerance
        out = tmp_path / "vals.csv"
        code = main(["resolvent", "--route", "integral", "--lambda-re=-0.002", "--f", "const1",
                     "--degree", "16", "--output", str(out)])
        assert code == 0
        rows = np.array([line.split(",") for line in out.read_text().splitlines()[2:]], dtype=float)
        assert rows.shape == (100, 4) and np.all(np.isfinite(rows))
        zs = rows[:, 0] + 1j * rows[:, 1]
        assert np.array_equal(zs, off_cut_sample_points())
        want = horner_eval(resolvent_recurrence(-0.002, truncate(monomial(0), 4096)), zs)
        error = np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - want))
        assert error <= 1e-8 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("value", ["3", "inf", "-inf", "nan", "1e308"])
    def test_t_max_is_an_unknown_option(self, tmp_path, capsys, value):
        # the semigroup route takes its transform in closed form: no horizon to set
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["resolvent", "--route", "semigroup", "--lambda-re", "-1", "--f", "const1",
                  "--degree", "8", f"--t-max={value}", "--output", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()
        assert "unrecognized arguments: --t-max" in capsys.readouterr().err

    def test_semigroup_near_the_imaginary_axis_matches_recurrence(self, tmp_path):
        # Re(1/lam) = -1e-6: the integrand e^(t/lam) S_t h barely decays in t
        out = tmp_path / "g.csv"
        code = main(["resolvent", "--route", "semigroup", "--lambda-re=-1e-6", "--lambda-im", "1",
                     "--f", "const1", "--degree", "8", "--output", str(out)])
        assert code == 0
        got = read_coeffs_csv(str(out)).coeffs
        want = resolvent_recurrence(-1e-6 + 1j, truncate(monomial(0), 8)).coeffs
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_semigroup_refuses_lambda_below_the_guard(self, tmp_path, capsys):
        # the same guard and message as the recurrence route
        for route in ("semigroup", "recurrence"):
            out = tmp_path / f"{route}.csv"
            code = main(["resolvent", "--route", route, "--lambda-re=-1e-13", "--f", "const1",
                         "--degree", "4", "--output", str(out)])
            assert code == 2
            assert not out.exists()
            assert capsys.readouterr().err == "error: lam must be nonzero\n"

    @pytest.mark.parametrize("route", ["recurrence", "integral", "semigroup"])
    @pytest.mark.parametrize("lam_re, lam_im", [("-1.7e308", "1.7e308"), ("-1e308", "1e308")])
    def test_lambda_at_the_float_range_exits_two(self, tmp_path, capsys, route, lam_re, lam_im):
        # |lam| overflows at the first, and 1/lam rounds to 0 at both: the
        # semigroup route then divided by zero, the integral route overflowed
        # in abs(lam), and the recurrence wrote zeros for f_0 ~ 1/lam
        out = tmp_path / "x.csv"
        code = main(["resolvent", "--route", route, "--lambda-re", lam_re, "--lambda-im", lam_im,
                     "--f", "const1", "--degree", "8", "--output", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: lam must have a finite modulus and a nonzero reciprocal\n"


class TestErgodicCommand:
    def test_trace_json_and_determinism(self, tmp_path):
        args = ["ergodic", "--t", "0.5", "--n-max", "16", "--f", "const1", "--degree", "64"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        for key in ("config", "iterate_norms", "mean_norms", "mean_increments", "projection_errors"):
            assert key in payload
        assert len(payload["projection_errors"]) == 16
        assert payload["config"]["t"] == 0.5

    def test_boundary_trace_has_empty_projection(self, tmp_path):
        out = tmp_path / "t1.json"
        main(["ergodic", "--t", "1", "--n-max", "8", "--f", "const1", "--degree", "32",
              "--output", str(out)])
        assert json.loads(out.read_text())["projection_errors"] == []

    @pytest.mark.parametrize(
        "flag, value",
        [("--n-max", N_MAX_CAP + 1), ("--samples", SAMPLES_CAP + 1)],
    )
    def test_budget_past_cap_exits_two(self, tmp_path, capsys, flag, value):
        # refused before the 16 MB input function is built
        out = tmp_path / "t.json"
        code, peak = traced_peak(
            lambda: main(["ergodic", "--t", "0.5", flag, str(value), "--f", "const1",
                          "--degree", "1000000", "--output", str(out)])
        )
        assert code == 2
        assert peak < 1_000_000
        assert not out.exists()
        assert str(value - 1) in capsys.readouterr().err

    def test_readme_budgets_accepted(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["ergodic", "--t", "0.5", "--n-max", "256", "--samples", "1024", "--f",
                     "const1", "--degree", "16", "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["iterate_norms"]) == 256

    def test_overflowing_norms_exit_two_before_writing(self, tmp_path, capsys):
        # the norms of coefficients 1e308 + 1e308i overflow, and JSON has no
        # Infinity: refused before the file is opened
        src = tmp_path / "big.csv"
        src.write_text("n,re,im\n" + "".join(f"{n},1e308,1e308\n" for n in range(3)))
        out = tmp_path / "t.json"
        code = main(["ergodic", "--t", "0.5", "--input", str(src), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "not JSON compliant" in capsys.readouterr().err


class TestClassifyCommand:
    def test_log_family_report(self, tmp_path):
        out = tmp_path / "growth.json"
        code = main(
            ["classify", "--f", "log-inv", "--degrees", "64,128,256", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.7 <= payload["log_order"] <= 1.3
        assert payload["divergence_flag"] is False
        assert payload["config"]["function"] == "log-inv"


class TestLogWeightOrder:
    @pytest.mark.parametrize("order", ["1.5", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--f", "log-inv", "--degrees", "64,128,256"],
            ["ergodic", "--t", "0.5", "--n-max", "16", "--f", "const1", "--degree", "64"],
        ],
    )
    def test_non_integer_order_exits_two(self, tmp_path, capsys, argv, order):
        # no log weight has order 1.5 or inf: refused before any work, so a
        # file never records an order other than the one computed with
        out = tmp_path / "out.json"
        code = main(argv + ["--weight-order", order, "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "integer order k >= 1" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_report_payload(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(
            ["spectrum", "--degree", "64", "--degrees", "64,256", "--grid-points", "5",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["degrees"] == [64, 256]
        assert all(v <= 1e-14 for v in payload["section_diagonal_errors"].values())
        assert {pt["classification"] for pt in payload["points"]} <= {"growing", "stable"}

    def test_config_is_exact(self, tmp_path):
        out = tmp_path / "spec.json"
        main(["spectrum", "--degree", "64", "--degrees", "64,128", "--grid-points", "3",
              "--output", str(out)])
        assert json.loads(out.read_text())["config"] == {
            "command": "spectrum", "degree": 64, "degrees": [64, 128], "grid_points": 3,
            "seed": 24301,
        }

    def test_unordered_degrees_exit_two(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = main(
            ["spectrum", "--degree", "64", "--degrees", "256,64", "--grid-points", "5",
             "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "strictly increasing" in capsys.readouterr().err

    def test_grid_points_past_cap_exit_two(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--degree", "1024", "--grid-points", str(GRID_POINTS_CAP + 1),
                     "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "grid_points" in capsys.readouterr().err

    def test_degree_past_cap_exit_two(self, tmp_path, capsys):
        # refused before the first 34 MB section is built
        out = tmp_path / "spec.json"
        code, peak = traced_peak(
            lambda: main(["spectrum", "--degree", str(ST_DEGREE_CAP + 1), "--output", str(out)])
        )
        assert code == 2
        assert peak < 1_000_000
        assert not out.exists()
        assert f"exceeds the cap {ST_DEGREE_CAP}" in capsys.readouterr().err

    def test_readme_grid_points_accepted(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--degree", "64", "--degrees", "64,128", "--grid-points", "17",
                     "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["points"]) > 250


class TestVerifyCommand:
    def test_single_suite_exit_zero(self, capsys):
        code = main(["verify", "--suite", "finite-section-spectrum", "--degree", "64"])
        assert code == 0
        assert "PASS finite-section-spectrum" in capsys.readouterr().out

    def test_exit_matches_results(self, tmp_path, capsys):
        results = run_suite("inverse-roundtrip", 128)
        out = tmp_path / "verify.json"
        code = main(["verify", "--suite", "inverse-roundtrip", "--degree", "128",
                     "--output", str(out)])
        assert code == (0 if all(r.passed for r in results) else 1)
        payload = json.loads(out.read_text())
        assert payload["results"][0]["name"] == "inverse-roundtrip"

    def test_config_is_exact(self, tmp_path):
        out = tmp_path / "verify.json"
        main(["verify", "--suite", "inverse-roundtrip", "--degree", "128", "--output", str(out)])
        assert json.loads(out.read_text())["config"] == {
            "command": "verify", "degree": 128, "seed": 24301, "suite": "inverse-roundtrip",
        }

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # a failing check must be reported and turn the exit status to 1,
        # not be masked; every real check passes, so force one to fail
        failing = (1.0, lambda degree: (False, "forced failure"))
        monkeypatch.setitem(verify.SUITES, "eigen-ct", failing)
        code = main(["verify", "--suite", "eigen-ct", "--degree", "512"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL eigen-ct" in out
        assert "forced failure" in out

    def test_degree_past_cap_exit_two_before_any_check(self, capsys, monkeypatch):
        # at degree 1e7 the corpus alone would take about 10 GB
        ran = []

        def sentinel(degree):
            ran.append(degree)
            return True, "ran"

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, (1.0, sentinel))
        for degree in (ST_DEGREE_CAP + 1, 10**7):
            code = main(["verify", "--suite", "all", "--degree", str(degree)])
            assert code == 2
            assert f"degree {degree} exceeds the cap {ST_DEGREE_CAP}" in capsys.readouterr().err
        assert ran == []
        assert main(["verify", "--suite", "eigen-ct", "--degree", str(ST_DEGREE_CAP)]) == 0
        assert ran == [ST_DEGREE_CAP]

    def test_degree_below_floor_exit_two_before_any_check(self, capsys, monkeypatch):
        # below degree 7 a check refused its own inputs with a message that
        # named neither the check nor the degree, or printed NaN ratios
        ran = []

        def sentinel(degree):
            ran.append(degree)
            return True, "ran"

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, (1.0, sentinel))
        for degree in (-1, 0, 4, 6):
            assert main(["verify", "--suite", "all", "--degree", str(degree)]) == 2
            assert f"degree {degree} is below the floor 7" in capsys.readouterr().err
        with pytest.raises(ValueError, match="degree 6 is below the floor 7"):
            run_suite("eigen-ct", 6)
        assert ran == []
        assert main(["verify", "--suite", "all", "--degree", "7"]) == 0
        assert ran == [7] * len(verify.SUITES)

    def test_each_line_is_printed_as_its_check_returns(self, capsys, monkeypatch):
        # a late check that raises must not discard the lines of the checks
        # that finished before it
        seen = []

        def late(degree):
            seen.append(capsys.readouterr().out)
            raise ZeroDivisionError("late check")

        first = (1.0, lambda degree: (True, "done"))
        monkeypatch.setattr(verify, "SUITES", {"first": first, "late": (1.0, late)})
        with pytest.raises(ZeroDivisionError, match="late check"):
            main(["verify", "--suite", "all", "--degree", "64"])
        assert seen == ["PASS first: done [0.00 s]\n"]
