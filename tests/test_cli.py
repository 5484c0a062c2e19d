import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cesaro_lab import cli
from cesaro_lab.cli import build_parser, main, read_coeffs_csv, write_csv
from cesaro_lab.ergodic import GRID_POINTS_CAP, N_MAX_CAP
from cesaro_lab.operators import ST_DEGREE_CAP, cesaro_apply
from cesaro_lab.resolvent import SPLIT_DEGREE_CAP, off_cut_sample_points, resolvent_recurrence
from cesaro_lab.series import BUILTIN_FUNCTIONS, binomial_series, horner_eval, log_one_minus_inv
from cesaro_lab.series import monomial, truncate
from cesaro_lab import verify
from cesaro_lab.verify import run_suite
from cesaro_lab.weights import SAMPLES_CAP

from oracles import traced_peak


def write_constant_csv(path, degree):
    rows = ["n,re,im", "0,1.0,0.0"]
    rows += [f"{n},0.0,0.0" for n in range(1, degree + 1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_big_csv(path):
    """Three coefficients 1e308 + 1e308i, whose sums overflow."""
    path.write_text("n,re,im\n" + "".join(f"{n},1e308,1e308\n" for n in range(3)))


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
        err = capsys.readouterr().err
        assert f"input degree exceeds the cap {ST_DEGREE_CAP} at row {ST_DEGREE_CAP + 1}" in err

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
        err = capsys.readouterr().err
        assert f"input degree exceeds the cap {ST_DEGREE_CAP} at row {ST_DEGREE_CAP + 1}" in err

    def test_long_input_refused_before_it_is_read(self, tmp_path, capsys):
        # a degree-100,000 file: the rows are counted against the cap as they
        # are read, so the refusal comes at row 2049 and the rest stays unread
        src = tmp_path / "coeffs.csv"
        write_constant_csv(src, 100_000)
        argv = ["resolvent", "--route", "integral", "--lambda-re", "0", "--lambda-im", "1",
                "--input", str(src)]
        code, peak, written = past_cap_run(tmp_path, argv)
        assert code == 2
        assert peak < 200_000
        assert not written
        err = capsys.readouterr().err
        assert f"input degree exceeds the cap {ST_DEGREE_CAP} at row {ST_DEGREE_CAP + 1}" in err

    def test_recurrence_input_held_to_the_split_cap(self, tmp_path, capsys, monkeypatch):
        # the recurrence route reads a file up to SPLIT_DEGREE_CAP, which a
        # test cannot write out (2**27 rows): at a cap of 8, a degree-9 file
        # is refused at its last row
        assert SPLIT_DEGREE_CAP == 2**27 - 1
        monkeypatch.setattr(cli, "SPLIT_DEGREE_CAP", 8)
        src = tmp_path / "coeffs.csv"
        write_constant_csv(src, 9)
        argv = ["resolvent", "--route", "recurrence", "--lambda-re", "-1", "--input", str(src)]
        assert main(argv + ["--output", str(tmp_path / "f.csv")]) == 2
        assert "input degree exceeds the cap 8 at row 9" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()
        write_constant_csv(src, 8)
        assert main(argv + ["--output", str(tmp_path / "f.csv")]) == 0

    def test_degree_at_cap_accepted(self, tmp_path):
        out = tmp_path / "ct.csv"
        code = main(["apply", "--op", "cesaro", "--f", "const1", "--degree", str(ST_DEGREE_CAP),
                     "--output", str(out)])
        assert code == 0
        assert read_coeffs_csv(str(out), None).degree == ST_DEGREE_CAP
        out = tmp_path / "growth.json"
        code = main(["classify", "--f", "log-inv", "--degrees", f"64,128,{ST_DEGREE_CAP}",
                     "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["norms_by_degree"]) == 3


class TestCoefficientFile:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("re,im,n\n0,1.0,0.0\n", "expected header 'n,re,im'"),
            ("", "expected header 'n,re,im'"),
            ("n,re,im\n0,1.0\n", "malformed row '0,1.0'"),
            ("n,re,im\n0,1.0,0.0\n2,1.0,0.0\n", "coefficient rows must be index-complete from 0"),
            ("# config: {}\nn,re,im\n", "no coefficient rows"),
        ],
    )
    def test_malformed_file_exits_two(self, tmp_path, capsys, text, message):
        src = tmp_path / "in.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main(["apply", "--op", "cesaro", "--input", str(src), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--input", "in.csv", "--f", "const1", "--degree", "8"],
             "give either --input or --f, not both"),
            (["--f", "const1"], "--degree is required with --f"),
            (["--degree", "8"], "one of --input or --f is required"),
        ],
    )
    def test_input_choice_exits_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main(["apply", "--op", "cesaro"] + argv + ["--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_writer_refuses_non_finite_values(self, tmp_path):
        # the last gate: Python float arithmetic overflows to inf silently
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="^output values must be finite: nothing written$"):
            write_csv(str(out), {}, "n,re,im", [[0, 1], [1.0, np.inf], [0.0, 0.0]])
        assert not out.exists()


class TestBuiltinsAndEntry:
    @pytest.mark.parametrize("name", sorted(BUILTIN_FUNCTIONS))
    def test_each_builtin_written_to_stdout(self, capsys, name):
        # without --output a command writes its file to standard output
        assert main(["apply", "--op", "cesaro", "--f", name, "--degree", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# config: ") and out[1] == "n,re,im" and len(out) == 11

    @pytest.mark.parametrize("name, floor", [("e2", 1), ("e3", 2), ("e4", 3)])
    def test_eigen_builtin_below_its_degree_floor_exits_two(self, tmp_path, capsys, name, floor):
        # e_n is z**(n-1) (1-z)**-n, so its first coefficient sits at degree n - 1
        out = tmp_path / "out.csv"
        argv = ["apply", "--op", "cesaro", "--f", name, "--output", str(out)]
        assert main(argv + ["--degree", str(floor - 1)]) == 2
        assert not out.exists()
        message = f"error: degree for n = {floor + 1} must be at least {floor}\n"
        assert capsys.readouterr().err == message
        assert main(argv + ["--degree", str(floor)]) == 0

    def test_entry_exits_with_the_code_of_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["cesaro-lab", "verify", "--suite", "bogus"])
        with pytest.raises(SystemExit) as excinfo:
            cli.entry()
        assert excinfo.value.code == 2
        assert "unknown suite 'bogus'" in capsys.readouterr().err


class TestApply:
    def test_cesaro_on_constant_from_file(self, tmp_path):
        src = tmp_path / "coeffs.csv"
        write_constant_csv(src, 8)
        out = tmp_path / "out.csv"
        code = main(["apply", "--op", "cesaro", "--input", str(src), "--output", str(out)])
        assert code == 0
        result = read_coeffs_csv(str(out), None)
        np.testing.assert_allclose(result.coeffs, 1.0 / np.arange(1, 10), rtol=1e-15)
        assert out.read_text().startswith("# config: ")

    def test_emitted_file_round_trips_exactly(self, tmp_path):
        mid = tmp_path / "stage1.csv"
        main(["apply", "--op", "cesaro", "--f", "binom-half", "--degree", "40", "--output", str(mid)])
        in_process = cesaro_apply(binomial_series(-0.5, 40))
        assert np.array_equal(read_coeffs_csv(str(mid), None).coeffs, in_process.coeffs)

    def test_inverse_undoes_cesaro(self, tmp_path):
        mid = tmp_path / "mid.csv"
        out = tmp_path / "back.csv"
        main(["apply", "--op", "cesaro", "--f", "log-inv", "--degree", "32", "--output", str(mid)])
        main(["apply", "--op", "inverse", "--input", str(mid), "--output", str(out)])
        back = read_coeffs_csv(str(out), None)
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
        got = read_coeffs_csv(str(out), None)
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
        got = read_coeffs_csv(str(out), None).coeffs
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

    @pytest.mark.filterwarnings("error")
    def test_semigroup_step_divisor_overflow_exits_two(self, tmp_path, capsys):
        # 9 |lam| overflows, so the step divisor (n+1) lam - 1 would too: numpy
        # warned and the command exited 0
        out = tmp_path / "g.csv"
        code = main(["resolvent", "--route", "semigroup", "--lambda-re", "-1e308", "--f",
                     "const1", "--degree", "8", "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: semigroup route needs a finite (N+1)|lam|\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_samples_exit_two_before_writing(self, tmp_path, capsys):
        # the integral route's sums at 1e308 + 1e308i coefficients overflow:
        # the command's floating-point policy refuses the first overflow,
        # before the CSV writer's own finite check would see -inf in 6 rows
        src = tmp_path / "big.csv"
        write_big_csv(src)
        out = tmp_path / "vals.csv"
        code = main(["resolvent", "--route", "integral", "--lambda-re=-0.5", "--lambda-im",
                     "0.5", "--input", str(src), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: overflow encountered in ")

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norms_exit_two_before_writing(self, tmp_path, capsys):
        # the norms of coefficients 1e308 + 1e308i overflow: the norm sweep
        # refuses them before the file is opened
        src = tmp_path / "big.csv"
        write_big_csv(src)
        out = tmp_path / "t.json"
        code = main(["ergodic", "--t", "0.5", "--input", str(src), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "norm sweep overflows" in capsys.readouterr().err


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
        message = f"error: log weight order k must be an integer, got {float(order)}"
        assert message in capsys.readouterr().err


class TestDegreesOption:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", "--degree", "128", "--degrees", "64.5,128", "--grid-points", "3"],
             "error: section degree must be an integer, got 64.5\n"),
            (["classify", "--f", "log-inv", "--degrees", "128,512.5,2048"],
             "error: input degree must be an integer, got 512.5\n"),
        ],
        ids=["spectrum", "classify"],
    )
    def test_non_integer_degree_is_refused_by_name(self, tmp_path, capsys, argv, message):
        # each field is read as a number and refused by the count check
        # that names it, before the output file is opened
        out = tmp_path / "out.json"
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == message

    def test_integral_fields_stay_ints(self, tmp_path):
        out = tmp_path / "growth.json"
        argv = ["classify", "--f", "log-inv", "--degrees", "64,128.0,256", "--output", str(out)]
        assert main(argv) == 0
        degrees = json.loads(out.read_text())["config"]["degrees"]
        assert degrees == [64, 128, 256] and all(type(d) is int for d in degrees)


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

    def test_section_degree_zero_exits_two(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--degree", "64", "--degrees", "0,64", "--grid-points", "3",
                     "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: section degree must be at least 1\n"

    def test_default_sections_at_degree_64_exit_two(self, tmp_path, capsys):
        # the default section degrees at degree 64 are (64,), one too few
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--degree", "64", "--grid-points", "3", "--output", str(out)])
        assert code == 2
        assert not out.exists()
        message = "the default section degrees collapse to (64,) at degree 64"
        assert capsys.readouterr().err == f"error: {message}\n"

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
        assert "unknown suite 'bogus'; choose from all, eigen-cesaro, " in capsys.readouterr().err

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
            assert "degree must be at least 7" in capsys.readouterr().err
        with pytest.raises(ValueError, match="^degree must be at least 7$"):
            run_suite("eigen-ct", 6)
        assert ran == []
        assert main(["verify", "--suite", "all", "--degree", "7"]) == 0
        assert ran == [7] * len(verify.SUITES)

    def test_a_float_degree_reaches_each_check_as_an_int(self):
        # eigen-ct's math.comb raised TypeError on the float 512.0
        [result] = run_suite("eigen-ct", 512.0)
        assert result.passed
        assert result.detail.split(" [")[0] == run_suite("eigen-ct", 512)[0].detail.split(" [")[0]

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


# every number that the strategies below draw for lam, t or a weight order:
# small values, the guard's neighbours and the ends of the float range
edge_numbers = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.0, 1e-13, -1e-13, 1e308, -1.7e308, 1.7e308, 5e-324]),
)
BIG_ROWS = [1e308 + 1e308j] * 3

#: The commands whose arithmetic overflows on ``BIG_ROWS``: each printed
#: numpy warnings before it exited 2, until one floating-point policy
#: raised the first overflow at the command boundary.
OVERFLOWING_COMMANDS = [
    ["apply", "--op", "cesaro"],
    ["apply", "--op", "inverse"],
    ["resolvent", "--route", "semigroup", "--lambda-re=-1"],
    ["resolvent", "--route", "integral", "--lambda-re=-0.5", "--lambda-im=0.5"],
]


@st.composite
def command_lines(draw):
    """An argv of ``apply``, ``resolvent``, ``ergodic``, ``classify`` or
    ``spectrum``, and the coefficient rows of its CSV input, or None for a
    builtin of degree at most 20 and for ``spectrum``."""
    number = edge_numbers.map(repr)
    command = draw(st.sampled_from(["apply", "resolvent", "ergodic", "classify", "spectrum"]))
    if command == "spectrum":
        degrees = sorted(draw(st.sets(st.integers(0, 80), min_size=1, max_size=3)))
        return ["spectrum", "--degree", "64", "--degrees", ",".join(map(str, degrees)),
                "--grid-points", str(draw(st.integers(1, 3)))], None
    weight = ["--weight-kind", draw(st.sampled_from(["log", "standard"])),
              "--weight-order", draw(st.sampled_from(["0", "1", "2", "0.5"]) | number)]
    if command == "classify":
        degrees = sorted(draw(st.sets(st.integers(0, 20), min_size=3, max_size=3)))
        function = draw(st.sampled_from(sorted(BUILTIN_FUNCTIONS)))
        return ["classify", "--f", function, "--degrees", ",".join(map(str, degrees))] + weight, None
    if command == "apply":
        op = draw(st.sampled_from(["cesaro", "inverse", "hardy", "generalized", "composition"]))
        argv = ["apply", "--op", op, f"--t={draw(number)}"]
    elif command == "resolvent":
        route = draw(st.sampled_from(["recurrence", "integral", "semigroup"]))
        argv = ["resolvent", "--route", route, f"--lambda-re={draw(number)}",
                f"--lambda-im={draw(number)}"]
    else:
        argv = ["ergodic", f"--t={draw(number)}", "--n-max", str(draw(st.integers(1, 8))),
                "--samples", str(draw(st.sampled_from([8, 16, 64])))] + weight
    if draw(st.booleans()):
        function = draw(st.sampled_from(sorted(BUILTIN_FUNCTIONS)))
        return argv + ["--f", function, "--degree", str(draw(st.integers(0, 20)))], None
    parts = st.one_of(st.floats(-2.0, 2.0), edge_numbers)
    values = st.builds(complex, parts, parts)
    return argv, draw(st.lists(values, min_size=1, max_size=21))


def written_numbers(path):
    """Every number in an output file: the rows of a CSV below its config
    line and header, or every value of a JSON document, NaN and infinity
    included."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [float(x) for line in text.splitlines()[2:] for x in line.split(",")]
    numbers = []
    keep = numbers.append
    json.loads(text, parse_float=keep, parse_int=keep, parse_constant=keep)
    return [float(token) for token in numbers]


class TestArgvProperty:
    @given(command_lines())
    @example((OVERFLOWING_COMMANDS[0], BIG_ROWS))
    @example((OVERFLOWING_COMMANDS[1], BIG_ROWS))
    @example((OVERFLOWING_COMMANDS[2], BIG_ROWS))
    @example((OVERFLOWING_COMMANDS[3], BIG_ROWS))
    @example((["ergodic", "--t", "0.5"], BIG_ROWS))
    @example((["spectrum", "--degree", "64", "--degrees", "0,64", "--grid-points", "3"], None))
    @example((["resolvent", "--route", "semigroup", "--lambda-re=-1.7e308",
               "--lambda-im=1.7e308", "--f", "const1", "--degree", "8"], None))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exit_zero_with_finite_numbers_or_exit_two(self, tmp_path, case):
        # never a traceback nor a warning: a command answers with finite
        # numbers or is refused with exit 2 before its output file is opened
        argv, rows = case
        if rows is not None:
            src = tmp_path / "in.csv"
            lines = [f"{n},{c.real!r},{c.imag!r}" for n, c in enumerate(rows)]
            src.write_text("\n".join(["n,re,im"] + lines) + "\n", encoding="utf-8")
            argv = argv + ["--input", str(src)]
        out = tmp_path / ("out.csv" if argv[0] in ("apply", "resolvent") else "out.json")
        out.unlink(missing_ok=True)
        code = main(argv + ["--output", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
        else:
            assert np.isfinite(written_numbers(out)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", OVERFLOWING_COMMANDS)
    def test_overflow_exits_two_with_one_error_line(self, tmp_path, capsys, argv):
        src = tmp_path / "big.csv"
        write_big_csv(src)
        out = tmp_path / "out.csv"
        assert main(argv + ["--input", str(src), "--output", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: overflow encountered in ")
        assert err.count("\n") == 1


class TestCountRefusals:
    @pytest.mark.parametrize(
        "argv, what, cap",
        [
            (["apply", "--op", "cesaro", "--f", "const1", "--degree"], "input degree",
             ST_DEGREE_CAP),
            (["ergodic", "--t", "0.5", "--f", "const1", "--samples"], "samples per circle",
             SAMPLES_CAP),
            (["ergodic", "--t", "0.5", "--f", "const1", "--n-max"], "n_max", N_MAX_CAP),
            (["spectrum", "--grid-points"], "grid_points", GRID_POINTS_CAP),
            (["verify", "--degree"], "degree", ST_DEGREE_CAP),
        ],
    )
    def test_a_400_digit_count_exits_two_with_the_cap_message(self, capsys, argv, what, cap):
        # float() of it overflows: the count is compared as an int
        huge = 10**400 - 1
        assert main(argv + [str(huge)]) == 2
        assert capsys.readouterr().err == f"error: {what} {huge} exceeds the cap {cap}\n"
