import json

import numpy as np
import pytest

from cesaro_lab.cli import main, read_coeffs_csv
from cesaro_lab.operators import ST_DEGREE_CAP, cesaro_apply
from cesaro_lab.series import binomial_series, log_one_minus_inv
from cesaro_lab import verify
from cesaro_lab.verify import CheckResult, run_suite


def write_constant_csv(path, degree):
    rows = ["n,re,im", "0,1.0,0.0"]
    rows += [f"{n},0.0,0.0" for n in range(1, degree + 1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


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
        assert "exceeds the S_t cap" in capsys.readouterr().err
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

    def test_rejects_eigenvalue_lambda(self, tmp_path):
        code = main(
            ["resolvent", "--route", "recurrence", "--lambda-re", "0.5", "--f", "const1",
             "--degree", "8", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2


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


class TestThreadCap:
    def test_worker_count_reads_environment(self, monkeypatch):
        from cesaro_lab.verify import worker_count

        monkeypatch.delenv("CESARO_LAB_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("CESARO_LAB_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("CESARO_LAB_THREADS", "0")
        assert worker_count() == 1
        monkeypatch.setenv("CESARO_LAB_THREADS", "lots")
        assert worker_count() == 1

    def test_parallel_map_preserves_order_and_values(self, monkeypatch):
        from cesaro_lab.verify import _map_ordered

        items = list(range(24))
        monkeypatch.setenv("CESARO_LAB_THREADS", "4")
        threaded = _map_ordered(lambda x: x * x, items)
        monkeypatch.setenv("CESARO_LAB_THREADS", "1")
        serial = _map_ordered(lambda x: x * x, items)
        assert threaded == serial == [x * x for x in items]


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

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # a failing check must be reported and turn the exit status to 1,
        # not be masked; every real check passes, so force one to fail
        failing = CheckResult(name="eigen-ct", passed=False, runtime_s=0.0,
                              detail="forced failure")
        monkeypatch.setitem(verify.SUITES, "eigen-ct", lambda degree: failing)
        code = main(["verify", "--suite", "eigen-ct", "--degree", "512"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL eigen-ct" in out
        assert "forced failure" in out
